"""Symbols a(x, xi) and their algebra.

A symbol of order m is represented as a finite sum of separable terms
f_k(x) g_k(xi) where f_k is a SpectralFunction and g_k a FrequencyMultiplier:
a sum of closed-form terms c xi^k |xi|^p <xi>^s psi(xi)^q evaluated in numpy.
Multipliers carry exact xi-derivatives (never finite differences), which the
Poisson bracket of the composition a #_rho b reads.  The two smooth cutoffs chi
(paradifferential truncation, plateaus |xi|<=1.1 / |xi|>=1.9) and psi
(low-frequency excision, plateaus |xi|<=1/4 / |xi|>=1/2) are built from
the standard bump step h(t) = g(t)/(g(t)+g(1-t)), g(t) = exp(-1/t).
"""

import numpy as np

from .grid import SpectralFunction, grid_product

EPS_PARA = 0.5  # width of the paradifferential cutoff chi_eps


def smooth_step(t):
    """h(t): 0 for t<=0, 1 for t>=1, C^inf monotone in between; vectorized."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gt = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        gm = np.where(1 - t > 0, np.exp(-1.0 / np.where(1 - t > 0, 1 - t, 1.0)), 0.0)
    return gt / (gt + gm)


def cutoff_chi(xi):
    """chi_eps(xi) = chi(xi/eps): 1 on |xi| <= 1.1 eps, 0 on |xi| >= 1.9 eps."""
    u = np.abs(np.asarray(xi, dtype=float)) / EPS_PARA
    return 1.0 - smooth_step((u - 1.1) / 0.8)


def cutoff_psi(xi):
    """psi(xi): 0 on |xi| <= 1/4, 1 on |xi| >= 1/2."""
    u = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((u - 0.25) / 0.25)


def _term_deriv(term):
    """d/dxi of c xi^k |xi|^p <xi>^s: the power rule on each factor,
    with d|xi|^p = p xi |xi|^{p-2} and d<xi>^s = s xi <xi>^{s-2}."""
    c, k, p, s, q = term
    if q:
        raise ValueError("the excision cutoff psi is not differentiated")
    out = [(c * k, k - 1, p, s, 0.0), (c * p, k + 1, p - 2, s, 0.0), (c * s, k + 1, p, s - 2, 0.0)]
    return [t for t in out if t[0] != 0]


class FrequencyMultiplier:
    """g(xi) = sum of terms c xi^k |xi|^p <xi>^s psi(xi)^q.

    Exponents are kept as the floats given.  A term with q > 0 is 0 where
    psi is, which keeps psi/xi regular at xi = 0.
    """

    # read by perfbench/child.py --trace as its lambdify count; stays empty
    _lambdified = {}

    def __init__(self, terms):
        self.terms = tuple(tuple(float(v) for v in t) for t in terms)

    # constructors ----------------------------------------------------

    @classmethod
    def one(cls):
        return cls([(1, 0, 0, 0, 0)])

    @classmethod
    def xi_power(cls, k):
        return cls([(1, k, 0, 0, 0)])

    @classmethod
    def abs_xi(cls):
        return cls.abs_xi_power(1)

    @classmethod
    def abs_xi_power(cls, p):
        return cls([(1, 0, p, 0, 0)])

    @classmethod
    def bracket(cls, s):
        return cls([(1, 0, 0, s, 0)])

    @classmethod
    def psi(cls):
        return cls([(1, 0, 0, 0, 1)])

    @classmethod
    def psi_over_xi(cls):
        """psi(xi)/xi, extended by 0 across the psi plateau at 0."""
        return cls([(1, -1, 0, 0, 1)])

    # algebra ---------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, FrequencyMultiplier):
            return NotImplemented
        terms = [
            (c1 * c2, k1 + k2, p1 + p2, s1 + s2, q1 + q2)
            for c1, k1, p1, s1, q1 in self.terms
            for c2, k2, p2, s2, q2 in other.terms
        ]
        return FrequencyMultiplier(terms)

    def deriv(self):
        return FrequencyMultiplier([d for t in self.terms for d in _term_deriv(t)])

    # evaluation ------------------------------------------------------

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        sign, mag = np.sign(xi), np.abs(xi)
        out = np.zeros(xi.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for c, k, p, s, q in self.terms:
                # xi^k |xi|^p as sign^k |xi|^(k+p): finite at 0 whenever k+p >= 0
                v = c * sign**k * mag ** (k + p) * (1.0 + xi**2) ** (s / 2)
                if q:
                    psi = cutoff_psi(xi)
                    v = np.where(psi > 0, v * psi**q, 0.0)
                out += v
        return out


class SeparableSymbol:
    """a(x, xi) = sum_k f_k(x) g_k(xi), f_k spatial, g_k closed-form in xi."""

    def __init__(self, grid, terms):
        self.grid = grid
        self.terms = [(f, g) for (f, g) in terms if np.any(f.coeffs)]

    # constructors ----------------------------------------------------

    @classmethod
    def from_multiplier(cls, grid, g):
        return cls(grid, [(SpectralFunction.constant(grid, 1.0), g)])

    @classmethod
    def from_xfunc(cls, f, g=None):
        if g is None:
            g = FrequencyMultiplier.one()
        return cls(f.grid, [(f, g)])

    # algebra ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SeparableSymbol):
            return SeparableSymbol(self.grid, self.terms + other.terms)
        raise TypeError("can only add symbols")

    def __neg__(self):
        return SeparableSymbol(self.grid, [(-f, g) for f, g in self.terms])

    def __mul__(self, other):
        if isinstance(other, SeparableSymbol):
            out = []
            for f1, g1 in self.terms:
                for f2, g2 in other.terms:
                    out.append((grid_product(f1, f2), g1 * g2))
            return SeparableSymbol(self.grid, out)
        return SeparableSymbol(self.grid, [(f * other, g) for f, g in self.terms])

    __rmul__ = __mul__

    def dx(self):
        return SeparableSymbol(self.grid, [(f.deriv(), g) for f, g in self.terms])

    def dxi(self):
        return SeparableSymbol(self.grid, [(f, g.deriv()) for f, g in self.terms])

    def poisson(self, other):
        """{a, b} = d_xi a d_x b - d_x a d_xi b."""
        return self.dxi() * other.dx() + (-(self.dx() * other.dxi()))


def sharp_rho(a, b, rho):
    """a #_rho b: ab for rho <= 1, ab + (1/2i){a,b} for rho in (1,2]."""
    if not (0.0 < rho <= 2.0):
        raise ValueError("rho must lie in (0,2], got %g" % rho)
    prod = a * b
    if rho <= 1.0:
        return prod
    return prod + (1.0 / 2.0j) * a.poisson(b)
