"""Torus grid, Fourier transforms and grid products.

Everything downstream works with 2pi-periodic functions stored as Fourier
coefficients on a truncated mode set.  Conventions:

    u(x) = sum_j uhat(j) e^{ijx},    uhat(j) = (1/2pi) int_T u(x) e^{-ijx} dx,

so for samples on the uniform grid the forward transform is fft(values)/n.
Coefficients are kept in numpy fft order; ``TorusGrid.modes`` gives the
integer mode of each slot, and ``TorusGrid.full`` reads a real function's
j >= 0 half (``np.fft.rfft``'s layout, which the solvers march) into them.  The
grid holds the n x n arrays that Bony-Weyl quantization reads, and views
coefficients as the Toeplitz fhat(j - k).

Unlike on the paper's Z, the lattice's mode -n/2 has no partner +n/2; no
dealiased state holds it, and the Bony-Weyl cutoff gives it no entry off the
diagonal, so a real symbol's matrix has M[-j, -k] = conj M[j, k] in every row.
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
    dealias_cut : largest |j| kept by the 2/3 rule
    dealias_mask : True on the slots with |j| <= dealias_cut

    The n x n arrays over all pairs of slots (j, k) that quantization reads
    are built on first use and then held, read-only, by the grid, 9 bytes an
    entry; the lattice j -/+ k they are read from is formed only meanwhile:

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

    def full(self, half):
        """Real functions' fft-order coefficients (..., n) from their j >= 0 halves
        (..., n//2 + 1), read as ``np.fft.irfft`` does: u_{-j} = conj u_j, 0 and n/2 real."""
        out = np.concatenate([half, np.conj(half[..., self.n // 2 - 1 : 0 : -1])], axis=-1)
        out.imag[..., [0, self.n // 2]] = 0.0
        return out

    def toeplitz(self, fhat):
        """fhat[(j - k) mod n] over the slots (j, k), fft order: a read-only
        n x n view of [fhat, fhat] from its slot n, with no n x n copy."""
        twice = np.concatenate([fhat, fhat])
        s = twice.itemsize
        return _read_only(np.ndarray((self.n, self.n), twice.dtype, twice, self.n * s, (s, -s)))

    @cached_property
    def in_range(self):
        D = np.subtract.outer(self.modes, self.modes)
        return _read_only((D >= -(self.n // 2)) & (D < self.n // 2))

    @cached_property
    def chi_mask(self):
        """chi_eps(|j - k| / <j + k>), by ``cutoff_chi`` on the cone 1.1 < xi/eps < 1.9
        alone (1 below it, +0.0 above), by row blocks (``row_blocks``); the row and column
        of the mode -n/2 keep only chi_eps(0) = 1 on the diagonal, so constant symbols
        stay diagonal there."""
        from .symbols import EPS_PARA, cutoff_chi  # symbols builds on this module

        J, n = self.modes.astype(float), self.n
        chi = np.empty((n, n))
        for r in row_blocks(n, n):  # the lattice j -/+ k of a block of rows at a time
            u, xi = np.add.outer(J[r], J), np.subtract.outer(J[r], J)
            np.sqrt(np.add(np.square(u, out=u), 1.0, out=u), out=u)  # <j + k>
            u = np.divide(np.abs(xi, out=xi), u, out=u)  # xi
            u /= EPS_PARA
            chi[r] = u <= 1.1
            j, k = np.nonzero((u > 1.1) & (u < 1.9))
            chi[r][j, k] = cutoff_chi(np.abs(J[r][j] - J[k]) / np.sqrt(1.0 + (J[r][j] + J[k]) ** 2))
        nyq, off = n // 2, self.modes != -(n // 2)
        chi[nyq, off] = chi[off, nyq] = 0.0
        return _read_only(chi)


def row_blocks(height, width):
    """The slices of consecutive rows, about 2^14 entries each, by which a
    height x width array is formed in its own buffer with no scratch of its size."""
    step = max(1, (1 << 14) // width)
    return [slice(i, min(i + step, height)) for i in range(0, height, step)]


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
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.n, dtype=complex), is_real=True)

    @classmethod
    def constant(cls, grid, value):
        c = np.zeros(grid.n, dtype=complex)
        c[0] = value
        return cls(grid, c, is_real=True)

    # -- evaluation ---------------------------------------------------

    def values(self):
        v = np.fft.ifft(self.coeffs) * self.grid.n
        if self.is_real:
            return v.real
        return v

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

    def deriv(self):
        return SpectralFunction(self.grid, self.coeffs * (1j * self.grid.modes.astype(float)))


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


def grid_product(u, v):
    """Pointwise product on the grid, without dealiasing."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    out = transform(u.grid, u.values() * v.values())
    if not (u.is_real and v.is_real):
        out = SpectralFunction(u.grid, out.coeffs, is_real=False)
    return out


class RegularityLadder:
    """The Sobolev indices s0 < s1 < s2 = s of the solver: its norms are taken
    in H^{s0} and H^{s1}, its Kato increment in H^{s1}."""

    s0 = 1.0
    s1 = s0 + 1.5
    s2 = s1 + 2.0
    s = s2
