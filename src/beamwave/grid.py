"""Torus grid, Fourier transforms, Sobolev norms and inner products.

Everything downstream works with 2pi-periodic functions stored as Fourier
coefficients on a truncated mode set.  Conventions:

    u(x) = sum_j uhat(j) e^{ijx},    uhat(j) = (1/2pi) int_T u(x) e^{-ijx} dx,

so for samples on the uniform grid the forward transform is fft(values)/n.
Coefficients are kept in numpy fft order; ``TorusGrid.modes`` gives the
integer mode of each slot.
"""

import os
from functools import cached_property

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * np.pi


def physical_memory_bytes():
    """Bytes of physical memory: the bound that allocation plans are checked against."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class TorusGrid:
    """Uniform collocation grid on [0, 2pi) with n even points.

    An n for which one dense 4n x 4n complex operator would not fit in
    physical memory is refused before any array; a conservative bound, as
    only the test references form such operators.

    Attributes
    ----------
    n : number of collocation points (even)
    x : grid points, spacing exactly 2pi/n
    modes : integer mode j of each coefficient slot, fft order
    brackets : <j> = sqrt(1 + j^2) per slot
    reflect : slot of mode -j per slot; u(-x) has coefficients u.coeffs[reflect]
    dealias_cut : largest |j| kept by the 2/3-rule product projection
    dealias_mask : True on the slots with |j| <= dealias_cut

    The n x n arrays over all pairs of slots (j, k) that quantization reads
    are built on first use and then held, read-only, by the grid:

    mode_lattice : (j - k, j + k)
    gather_index : (j - k) mod n, the slot of fhat(j - k)
    in_range : whether j - k lies in [-n/2, n/2), the Weyl table of the multiplier 1
    chi_mask : the Bony-Weyl cutoff chi_eps(|j - k| / <j + k>)
    """

    def __init__(self, n):
        if n <= 0 or n % 2 != 0:
            raise ConfigError("grid size must be a positive even integer, got %r" % (n,))
        if (4 * n) ** 2 * 16 > physical_memory_bytes():
            raise ConfigError(
                "grid size %d: one 4n x 4n complex operator would exceed physical memory" % n
            )
        self.n = int(n)
        self.x = TWO_PI * np.arange(self.n) / self.n
        self.modes = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        self.brackets = np.sqrt(1.0 + self.modes.astype(float) ** 2)
        self.reflect = (-np.arange(self.n)) % self.n
        self.dealias_cut = self.n // 3
        self.dealias_mask = np.abs(self.modes) <= self.dealias_cut

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and other.n == self.n

    def __hash__(self):
        return hash(("TorusGrid", self.n))

    def __repr__(self):
        return "TorusGrid(n=%d)" % self.n

    def bracket_power(self, s):
        """Diagonal weights <j>^s in fft order."""
        return self.brackets ** s

    @cached_property
    def mode_lattice(self):
        J = self.modes
        return _read_only(J[:, None] - J[None, :]), _read_only(J[:, None] + J[None, :])

    @cached_property
    def gather_index(self):
        return _read_only(self.mode_lattice[0] % self.n)

    @cached_property
    def in_range(self):
        D = self.mode_lattice[0]
        return _read_only((D >= -(self.n // 2)) & (D < self.n // 2))

    @cached_property
    def chi_mask(self):
        from .symbols import cutoff_chi  # symbols builds on this module

        D, S = self.mode_lattice
        return _read_only(cutoff_chi(np.abs(D) / np.sqrt(1.0 + S.astype(float) ** 2)))


def _read_only(a):
    a.flags.writeable = False
    return a


class SpectralFunction:
    """A 2pi-periodic function stored as Fourier coefficients.

    ``coeffs`` is a complex array in fft order on ``grid.modes``.  For real
    fields the Hermitian symmetry uhat(-j) = conj(uhat(j)) holds and the
    unpaired mode -n/2 is zeroed.
    """

    def __init__(self, grid, coeffs, is_real=False):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n,):
            raise ValueError(
                "coefficient array has length %d, grid has %d modes" % (coeffs.size, grid.n)
            )
        self.grid = grid
        self.coeffs = coeffs
        self.is_real = bool(is_real)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, grid, is_real=True):
        return cls(grid, np.zeros(grid.n, dtype=complex), is_real=is_real)

    @classmethod
    def constant(cls, grid, value):
        c = np.zeros(grid.n, dtype=complex)
        c[0] = value
        return cls(grid, c, is_real=np.isrealobj(np.asarray(value)) or np.imag(value) == 0)

    # -- evaluation ---------------------------------------------------

    def values(self):
        v = np.fft.ifft(self.coeffs) * self.grid.n
        if self.is_real:
            return v.real
        return v

    def copy(self):
        return SpectralFunction(self.grid, self.coeffs.copy(), self.is_real)

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return SpectralFunction(
            self.grid, self.coeffs + other.coeffs, self.is_real and other.is_real
        )

    def __sub__(self, other):
        self._check(other)
        return SpectralFunction(
            self.grid, self.coeffs - other.coeffs, self.is_real and other.is_real
        )

    def __mul__(self, scalar):
        if isinstance(scalar, SpectralFunction):
            raise TypeError("use grid_product for function products")
        real = self.is_real and (np.imag(scalar) == 0)
        return SpectralFunction(self.grid, self.coeffs * scalar, real)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralFunction(self.grid, -self.coeffs, self.is_real)

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("grid mismatch: %r vs %r" % (self.grid, other.grid))

    # -- calculus -----------------------------------------------------

    def deriv(self, k=1):
        return apply_multiplier(self, (1j * self.grid.modes.astype(float)) ** k)

    def norm(self, s=0.0):
        return sobolev_norm(self, s)


def transform(grid, values):
    """Grid samples -> SpectralFunction with uhat = fft(values)/n.

    Real inputs get the reality flag and have the unpaired mode -n/2 zeroed
    so that Hermitian symmetry is exact.
    """
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError("sample array has length %d, grid has %d points" % (values.size, grid.n))
    coeffs = np.fft.fft(values) / grid.n
    is_real = np.isrealobj(values)
    if is_real:
        coeffs[grid.n // 2] = 0.0
    return SpectralFunction(grid, coeffs, is_real=is_real)


def apply_multiplier(u, g):
    """Multiply coefficients pointwise by g(j).

    ``g`` is a callable on the integer mode array or a precomputed array.
    Covers <D>^s (g = <j>^s), d/dx (g = ij) and projectors Pi_N.
    """
    gv = g(u.grid.modes) if callable(g) else np.asarray(g)
    real = u.is_real and np.isrealobj(gv) and bool(np.all(gv == gv[u.grid.reflect]))
    return SpectralFunction(u.grid, u.coeffs * gv, is_real=real)


def project(u, N):
    """Pi_N: keep modes |j| <= N."""
    mask = np.abs(u.grid.modes) <= N
    return SpectralFunction(u.grid, np.where(mask, u.coeffs, 0.0), u.is_real)


def sobolev_norm(u, s):
    """||u||_{H^s} = sqrt(sum |uhat(j)|^2 <j>^{2s})."""
    w = u.grid.bracket_power(s)
    return float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2 * w**2)))


def inner_product(u, v):
    """Scalar L^2 product (u, v) = (1/2pi) int u conj(v) = sum uhat conj(vhat)."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    return complex(np.sum(u.coeffs * np.conj(v.coeffs)))


def grid_product(u, v, dealias=True):
    """Pointwise product on the grid, optionally with the 2/3 rule.

    With ``dealias`` both inputs and the output are truncated to
    |j| <= n//3, which removes aliasing from quadratic products.
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    if dealias:
        u = project(u, u.grid.dealias_cut)
        v = project(v, v.grid.dealias_cut)
    prod = u.values() * v.values()
    out = transform(u.grid, prod)
    if dealias:
        out = project(out, u.grid.dealias_cut)
    if not (u.is_real and v.is_real):
        out = SpectralFunction(u.grid, out.coeffs, is_real=False)
    return out


def check_tame_and_interpolation(u, v, s, s0, theta):
    """Report both sides of the tame-product and interpolation inequalities.

    Test utility only.  s = theta*s1 + (1-theta)*s2 is taken with
    s1 = s, s2 = s0 for the interpolation line unless overridden by the
    caller through the returned raw norms.
    """
    uv = grid_product(u, v, dealias=False)
    tame_lhs = sobolev_norm(uv, s)
    tame_rhs = sobolev_norm(u, s) * sobolev_norm(v, s0) + sobolev_norm(u, s0) * sobolev_norm(v, s)
    s1 = s
    s2 = s0
    s_mid = theta * s1 + (1.0 - theta) * s2
    interp_lhs = sobolev_norm(u, s_mid)
    interp_rhs = sobolev_norm(u, s1) ** theta * sobolev_norm(u, s2) ** (1.0 - theta)
    return {
        "tame_lhs": tame_lhs,
        "tame_rhs": tame_rhs,
        "interp_lhs": interp_lhs,
        "interp_rhs": interp_rhs,
        "interp_index": s_mid,
    }


class RegularityLadder:
    """Sobolev index ladder s0 < s1 < s2 < s_frak <= s used by the solver."""

    def __init__(self, s0=1.0, s=None):
        if s0 <= 0.5:
            raise ValueError("s0 must exceed 1/2, got %g" % s0)
        self.s0 = float(s0)
        self.s1 = self.s0 + 1.5
        self.s2 = self.s1 + 2.0
        self.s_frak = self.s2 + 1.0
        self.s = float(s) if s is not None else self.s2
        if self.s < self.s2:
            raise ValueError("s must be >= s2 = %g, got %g" % (self.s2, self.s))

    def __repr__(self):
        return "RegularityLadder(s0=%g, s=%g)" % (self.s0, self.s)
