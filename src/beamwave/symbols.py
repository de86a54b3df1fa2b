"""Symbols a(x, xi) and their algebra.

A symbol of order m is represented as a finite sum of separable terms
f_k(x) g_k(xi) where f_k is a SpectralFunction and g_k a closed-form
frequency multiplier.  Multipliers carry exact symbolic xi-derivatives
(never finite differences) so the seminorms

    |a|_{m,s,n} = max_{beta<=n} sup_xi || <xi>^{beta-m} d_xi^beta a(., xi) ||_{H^s}

can be evaluated cleanly up to n = 8.  The two smooth cutoffs chi
(paradifferential truncation, plateaus |xi|<=1.1 / |xi|>=1.9) and psi
(low-frequency excision, plateaus |xi|<=1/4 / |xi|>=1/2) are built from
the standard bump step h(t) = g(t)/(g(t)+g(1-t)), g(t) = exp(-1/t).
"""

import numpy as np
import sympy as sp

from .grid import SpectralFunction, grid_product

XI = sp.Symbol("xi", real=True)

DEFAULT_EPS_PARA = 0.5

_g = sp.Piecewise((sp.exp(-1 / XI), XI > 0), (0, True))


def _smooth_step_expr(t):
    """h(t): 0 for t<=0, 1 for t>=1, C^inf monotone in between."""
    gt = _g.subs(XI, t)
    gmt = _g.subs(XI, 1 - t)
    return gt / (gt + gmt)


def _chi_expr():
    # 1 on |xi| <= 1.1, 0 on |xi| >= 1.9
    return 1 - _smooth_step_expr((sp.Abs(XI) - sp.Rational(11, 10)) / sp.Rational(8, 10))


def _psi_expr():
    # 0 on |xi| <= 1/4, 1 on |xi| >= 1/2
    return _smooth_step_expr((sp.Abs(XI) - sp.Rational(1, 4)) / sp.Rational(1, 4))


def smooth_step(t):
    """Numeric h(t), vectorized; matches the symbolic construction exactly."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gt = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        gm = np.where(1 - t > 0, np.exp(-1.0 / np.where(1 - t > 0, 1 - t, 1.0)), 0.0)
    return gt / (gt + gm)


def cutoff_chi(xi, eps_para=DEFAULT_EPS_PARA):
    """chi_eps(xi) = chi(xi/eps_para): 1 on |xi| <= 1.1 eps, 0 on |xi| >= 1.9 eps."""
    if not (0.0 < eps_para < 1.0):
        raise ValueError("eps_para must lie in (0,1), got %g" % eps_para)
    u = np.abs(np.asarray(xi, dtype=float)) / eps_para
    return 1.0 - smooth_step((u - 1.1) / 0.8)


def cutoff_psi(xi):
    """psi(xi): 0 on |xi| <= 1/4, 1 on |xi| >= 1/2."""
    u = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((u - 0.25) / 0.25)


class FrequencyMultiplier:
    """Closed-form function of xi with an order tag and exact derivatives."""

    _lambdified = {}

    def __init__(self, expr, order):
        self.expr = sp.sympify(expr)
        self.order = float(order)

    # constructors ----------------------------------------------------

    @classmethod
    def one(cls):
        return cls(sp.Integer(1), 0.0)

    @classmethod
    def constant(cls, c):
        return cls(sp.sympify(c), 0.0)

    @classmethod
    def xi_power(cls, k):
        return cls(XI**k, float(k))

    @classmethod
    def abs_xi(cls):
        return cls(sp.Abs(XI), 1.0)

    @classmethod
    def abs_xi_power(cls, p):
        return cls(sp.Abs(XI) ** sp.nsimplify(p), float(p))

    @classmethod
    def bracket(cls, s):
        return cls((1 + XI**2) ** (sp.nsimplify(s) / 2), float(s))

    @classmethod
    def chi(cls, eps_para=DEFAULT_EPS_PARA):
        return cls(_chi_expr().subs(XI, XI / sp.nsimplify(eps_para)), 0.0)

    @classmethod
    def psi(cls):
        return cls(_psi_expr(), 0.0)

    @classmethod
    def psi_over_xi(cls, power=1):
        """psi(xi)/xi^power, extended by 0 across the psi plateau at 0."""
        expr = sp.Piecewise(
            (_psi_expr() / XI**power, sp.Abs(XI) > sp.Rational(1, 5)),
            (0, True),
        )
        return cls(expr, -float(power))

    # algebra ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, FrequencyMultiplier):
            return FrequencyMultiplier(self.expr * other.expr, self.order + other.order)
        return FrequencyMultiplier(self.expr * sp.sympify(other), self.order)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, FrequencyMultiplier):
            other = FrequencyMultiplier.constant(other)
        return FrequencyMultiplier(self.expr + other.expr, max(self.order, other.order))

    def __neg__(self):
        return FrequencyMultiplier(-self.expr, self.order)

    def deriv(self, n=1):
        return FrequencyMultiplier(sp.diff(self.expr, XI, n), self.order - n)

    # evaluation ------------------------------------------------------

    def _fn(self):
        key = sp.srepr(self.expr)
        fn = FrequencyMultiplier._lambdified.get(key)
        if fn is None:
            fn = sp.lambdify(XI, self.expr, modules="numpy")
            FrequencyMultiplier._lambdified[key] = fn
        return fn

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._fn()(xi)
        out = np.asarray(out)
        if out.shape != xi.shape:
            out = np.broadcast_to(out, xi.shape).copy()
        return out

    def fingerprint(self):
        return sp.srepr(self.expr)


class SeparableSymbol:
    """a(x, xi) = sum_k f_k(x) g_k(xi), f_k spatial, g_k closed-form in xi."""

    def __init__(self, grid, terms):
        self.grid = grid
        self.terms = [(f, g) for (f, g) in terms if np.any(f.coeffs)]

    @property
    def order(self):
        if not self.terms:
            return 0.0
        return max(g.order for _, g in self.terms)

    # constructors ----------------------------------------------------

    @classmethod
    def zero(cls, grid):
        return cls(grid, [])

    @classmethod
    def from_multiplier(cls, grid, g):
        return cls(grid, [(SpectralFunction.constant(grid, 1.0), g)])

    @classmethod
    def from_xfunc(cls, f, g=None):
        if g is None:
            g = FrequencyMultiplier.one()
        return cls(f.grid, [(f, g)])

    # evaluation ------------------------------------------------------

    def eval(self, xi):
        """Values a(x_i, xi_k), shape (grid.n, len(xi))."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.zeros((self.grid.n, xi.size), dtype=complex)
        for f, g in self.terms:
            fv = np.asarray(f.values(), dtype=complex)
            out += fv[:, None] * np.asarray(g(xi), dtype=complex)[None, :]
        return out

    # algebra ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SeparableSymbol):
            return SeparableSymbol(self.grid, self.terms + other.terms)
        raise TypeError("can only add symbols")

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SeparableSymbol(self.grid, [(-f, g) for f, g in self.terms])

    def __mul__(self, other):
        if isinstance(other, SeparableSymbol):
            out = []
            for f1, g1 in self.terms:
                for f2, g2 in other.terms:
                    out.append((grid_product(f1, f2, dealias=False), g1 * g2))
            return SeparableSymbol(self.grid, out)
        if isinstance(other, FrequencyMultiplier):
            return SeparableSymbol(self.grid, [(f, g * other) for f, g in self.terms])
        return SeparableSymbol(self.grid, [(f * other, g) for f, g in self.terms])

    __rmul__ = __mul__

    def dx(self):
        return SeparableSymbol(self.grid, [(f.deriv(), g) for f, g in self.terms])

    def dxi(self, n=1):
        return SeparableSymbol(self.grid, [(f, g.deriv(n)) for f, g in self.terms])

    def poisson(self, other):
        """{a, b} = d_xi a d_x b - d_x a d_xi b."""
        return self.dxi() * other.dx() + (-(self.dx() * other.dxi()))

    def seminorm(self, m, s, n_der, xis=None):
        """|a|_{m,s,n}: sup over the Weyl evaluation set (half-integer lattice)."""
        if n_der > 8:
            raise ValueError("analytic xi-derivatives available only up to order 8")
        if xis is None:
            xis = weyl_xi_lattice(self.grid)
        xis = np.asarray(xis, dtype=float)
        brk = np.sqrt(1.0 + xis**2)
        w2s = self.grid.bracket_power(s) ** 2
        best = 0.0
        for beta in range(n_der + 1):
            db = self.dxi(beta) if beta else self
            if not db.terms:
                continue
            F = np.stack([f.coeffs for f, _ in db.terms])  # (terms, modes)
            G = np.stack([np.asarray(g(xis), dtype=complex) for _, g in db.terms])
            combo = F.T @ G  # (modes, xis)
            norms = np.sqrt(np.sum(np.abs(combo) ** 2 * w2s[:, None], axis=0))
            weighted = norms * brk ** (beta - m)
            best = max(best, float(np.max(weighted)))
        return best

    def fingerprint(self):
        return hash(
            tuple((f.fingerprint(), g.fingerprint()) for f, g in self.terms) + (self.grid.n,)
        )


def weyl_xi_lattice(grid):
    """Mode lattice plus half-integer midpoints: {j/2 : -n <= j < n}."""
    return np.arange(-grid.n, grid.n) / 2.0


def sharp_rho(a, b, rho):
    """a #_rho b: ab for rho <= 1, ab + (1/2i){a,b} for rho in (1,2].

    For MatrixSymbols the product is the matrix product and the Poisson
    bracket keeps the matrix ordering: {a,b} = dxi(a) @ dx(b) - dx(a) @ dxi(b).
    """
    if not (0.0 < rho <= 2.0):
        raise ValueError("rho must lie in (0,2], got %g" % rho)
    matrix = isinstance(a, MatrixSymbol)
    prod = (a @ b) if matrix else (a * b)
    if rho <= 1.0:
        return prod
    return prod + (1.0 / 2.0j) * a.poisson(b)


def _entrywise(fn, *arrays):
    """Object array of fn applied to the matching entries of equal-shape arrays."""
    out = np.empty(np.shape(arrays[0]), dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = fn(*(a[idx] for a in arrays))
    return out


class MatrixSymbol:
    """Square matrix (2x2 or 4x4) of SeparableSymbols."""

    def __init__(self, grid, entries):
        entries = np.asarray(entries, dtype=object)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("matrix symbol must be square")
        self.grid = grid
        self.entries = entries
        self.dim = entries.shape[0]

    @property
    def order(self):
        return max(e.order for e in self.entries.flat)

    @classmethod
    def from_numeric(cls, grid, M, multiplier=None):
        """Constant matrix M times a single multiplier (default 1)."""
        g = multiplier if multiplier is not None else FrequencyMultiplier.one()

        def entry(m):
            if m == 0:
                return SeparableSymbol.zero(grid)
            return SeparableSymbol(grid, [(SpectralFunction.constant(grid, m), g)])

        return cls(grid, _entrywise(entry, np.asarray(M)))

    @classmethod
    def from_xfunc_matrix(cls, grid, F, multiplier=None):
        """Matrix of SpectralFunctions times a single multiplier."""
        g = multiplier if multiplier is not None else FrequencyMultiplier.one()
        F = np.asarray(F, dtype=object)
        return cls(grid, _entrywise(lambda f: SeparableSymbol(grid, [(f, g)]), F))

    @classmethod
    def identity(cls, grid, dim=2):
        return cls.from_numeric(grid, np.eye(dim))

    @classmethod
    def E(cls, grid):
        return cls.from_numeric(grid, np.diag([1.0, -1.0]))

    @classmethod
    def U(cls, grid):
        return cls.from_numeric(grid, np.ones((2, 2)))

    def _map(self, fn, *others):
        return MatrixSymbol(self.grid, _entrywise(fn, self.entries, *(o.entries for o in others)))

    def __add__(self, other):
        return self._map(lambda a, b: a + b, other)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._map(lambda a: -a)

    def __mul__(self, other):
        """Scalar, multiplier, or scalar-symbol multiplication (entrywise)."""
        return self._map(lambda a: a * other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        ent = np.empty((self.dim, self.dim), dtype=object)
        for i in range(self.dim):
            for j in range(self.dim):
                acc = SeparableSymbol.zero(self.grid)
                for k in range(self.dim):
                    acc = acc + self.entries[i, k] * other.entries[k, j]
                ent[i, j] = acc
        return MatrixSymbol(self.grid, ent)

    def dx(self):
        return self._map(lambda a: a.dx())

    def dxi(self, n=1):
        return self._map(lambda a: a.dxi(n))

    def poisson(self, other):
        """Matrix-ordered Poisson bracket dxi(self)@dx(other) - dx(self)@dxi(other)."""
        return self.dxi() @ other.dx() - self.dx() @ other.dxi()

    def eval(self, xi):
        """Values, shape (dim, dim, grid.n, len(xi))."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.zeros((self.dim, self.dim, self.grid.n, xi.size), dtype=complex)
        for i in range(self.dim):
            for j in range(self.dim):
                out[i, j] = self.entries[i, j].eval(xi)
        return out

    def seminorm(self, m, s, n_der):
        return max(e.seminorm(m, s, n_der) for e in self.entries.flat)

    def fingerprint(self):
        return hash(tuple(e.fingerprint() for e in self.entries.flat))
