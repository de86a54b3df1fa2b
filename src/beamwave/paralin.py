"""Paralinearized complex form of the bridge system.

The complexified unknown V = (z, zbar, w, wbar) evolves by

    d_t V = frakA(V) V + frakB(V) V + R V + remainder(V) + G(t)

with

    frakA = diag(-iE Op^BW(A_b), -iE Op^BW(A_w)),
    frakB = antidiag(-iE Op^BW(B_b), -iE Op^BW(B_w)),
    A_b = (1 + U a) xi^2 + 2i U a_x xi,          a = (b - 1)/2,
    A_w = (1 + U a_w) |xi|,                      a_w = d + g_1w,  d = (c - 1)/2,
    B_b = U g_12b <xi>^{-3/2} xi^2,  B_w = U g_12w <xi>^{-3/2} xi^2,

where the g-functions are halved partials of the nonlinearities at the
realified jet of V.  R is defined constructively as the exact complexified
linear part minus frakA(0) (block diagonal, order 0), and the remainder is
defined by subtraction so the decomposition reproduces the full right-hand
side to machine precision.  The solvers apply frakA + frakB + R through
``frozen_generator``; the matrices serve the parametrix and the tests.
"""

import numpy as np

from .bridge import _fft_raw
from .grid import SpectralFunction
from .quantize import (
    SpectralOperator,
    bony_weyl_quantize,
    weyl_gather_index,
    weyl_table,
)
from .state import complex_weights, real_from_stacked, stacked_from_real
from .symbols import (
    DEFAULT_EPS_PARA,
    FrequencyMultiplier,
    MatrixSymbol,
)

_XI2 = FrequencyMultiplier.xi_power(2)
_XI1 = FrequencyMultiplier.xi_power(1)
_ABS_XI = FrequencyMultiplier.abs_xi()
_OFF = FrequencyMultiplier.bracket(-1.5) * _XI2  # <xi>^{-3/2} xi^2, order 1/2


def _u_matrix_symbol(grid, f, mult):
    """MatrixSymbol U * f(x) * g(xi) (all four entries equal)."""
    return MatrixSymbol.from_xfunc_matrix(grid, np.full((2, 2), f, dtype=object), mult)


def _complexified_pair(op, D, d):
    """Generator of (z, zbar) for u'' = op u + d u', z = (D u + i u'/D)/sqrt2,
    D a positive diagonal given by its entries."""
    Q = 0.5j * op / np.outer(D, D)
    P = np.diag(0.5 * (-1j * D**2 + d))
    M = np.diag(0.5 * (-1j * D**2 - d))
    return np.block([[Q + P, Q - P], [-Q + M, -Q - M]])


def minus_iE(M):
    """-iE M on a 2-block matrix, E = diag(1, -1): scale by -i, negate the lower rows."""
    out = -1j * M
    out[out.shape[0] // 2 :] *= -1.0
    return out


class ParalinearizedSystem:
    """The decomposition above on one grid.

    The generator is linear in the symbols and every multiplier is fixed, so
    ``__init__`` quantizes the V-independent blocks (the beam block and the
    wave block at V = 0) once and tabulates chi_eps(|j-k|/<j+k>) g((j+k)/2)
    for g = |xi| and <xi>^{-3/2} xi^2.  A background V then changes only
    g_1w, g_12b and g_12w, each entering frakA / frakB through one gather.
    """

    def __init__(self, source, grid, eps_para=DEFAULT_EPS_PARA):
        self.source = source
        self.grid = grid
        self.eps_para = float(eps_para)
        one = SpectralFunction.constant(grid, 1.0)
        self.a_fun = 0.5 * (source.b - one)
        self.d_fun = 0.5 * (source.c - one)
        self._R = None
        self._base = None

        n2 = 2 * grid.n
        syms = self.assemble_symbols(None)
        self._frak_A0 = np.zeros((2 * n2, 2 * n2), dtype=complex)
        self._frak_A0[:n2, :n2] = minus_iE(bony_weyl_quantize(syms["A_b"], self.eps_para).matrix)
        self._frak_A0[n2:, n2:] = minus_iE(bony_weyl_quantize(syms["A_w"], self.eps_para).matrix)
        self._abs_xi_table = weyl_table(grid, _ABS_XI, self.eps_para)
        self._off_table = weyl_table(grid, _OFF, self.eps_para)
        self._gather = weyl_gather_index(grid)

    # -- g-functions ---------------------------------------------------

    def g_functions(self, V):
        """(a, d, g_1w, g_12b, g_12w) at the realified jet of V."""
        src = self.source
        if V is None:
            zero = SpectralFunction.zero(self.grid)
            return self.a_fun, self.d_fun, zero, zero, zero
        y_hat, _, th_hat, _ = real_from_stacked(self.grid, V)
        jets = src.jets(y_hat, th_hat)

        def g_of(F, slot):
            vals = 0.5 * F.partial_values(slot, jets)
            u = SpectralFunction(self.grid, src._dealias(_fft_raw(self.grid, vals)), is_real=True)
            return u

        g_1w = g_of(src.F2, 5)
        g_12b = g_of(src.F1, 5)
        g_12w = g_of(src.F2, 2)
        return self.a_fun, self.d_fun, g_1w, g_12b, g_12w

    # -- symbols -------------------------------------------------------

    def assemble_symbols(self, V):
        """The symbols A_b, A_w, B_b, B_w at V; the definition that frakA and
        frakB quantize from precomputed tables."""
        grid = self.grid
        a, d, g_1w, g_12b, g_12w = self.g_functions(V)
        A_b = (
            MatrixSymbol.identity(grid) * _XI2
            + _u_matrix_symbol(grid, a, _XI2)
            + _u_matrix_symbol(grid, 2j * a.deriv(), _XI1)
        )
        a_w = d + g_1w
        A_w = MatrixSymbol.identity(grid) * _ABS_XI + _u_matrix_symbol(grid, a_w, _ABS_XI)
        B_b = _u_matrix_symbol(grid, g_12b, _OFF)
        B_w = _u_matrix_symbol(grid, g_12w, _OFF)
        return {"A_b": A_b, "A_w": A_w, "B_b": B_b, "B_w": B_w, "a_w": a_w}

    # -- block operators ----------------------------------------------

    def _weyl_blocks(self, V):
        """Op^BW of g_1w |xi|, g_12b <xi>^{-3/2} xi^2 and g_12w <xi>^{-3/2} xi^2
        as n x n blocks, each one gather of the tabulated multiplier."""
        _, _, g_1w, g_12b, g_12w = self.g_functions(V)
        return (
            g_1w.coeffs[self._gather] * self._abs_xi_table,
            g_12b.coeffs[self._gather] * self._off_table,
            g_12w.coeffs[self._gather] * self._off_table,
        )

    def frak_A(self, V):
        """diag(-iE Op^BW(A_b), -iE Op^BW(A_w)) as a 4-block operator."""
        M = self._frak_A0.copy()
        if V is not None:
            n2 = 2 * self.grid.n
            M[n2:, n2:] += minus_iE(np.tile(self._weyl_blocks(V)[0], (2, 2)))
        return SpectralOperator(self.grid, M, order=2.0, block=4)

    def frak_B(self, V):
        """antidiagonal coupling blocks -iE Op^BW(B_b), -iE Op^BW(B_w)."""
        n2 = 2 * self.grid.n
        M = np.zeros((2 * n2, 2 * n2), dtype=complex)
        if V is not None:
            _, F_12b, F_12w = self._weyl_blocks(V)
            M[:n2, n2:] = minus_iE(np.tile(F_12b, (2, 2)))
            M[n2:, :n2] = minus_iE(np.tile(F_12w, (2, 2)))
        return SpectralOperator(self.grid, M, order=0.5, block=4)

    def frozen_generator(self, V, include_R=True):
        """The action u -> (frakA(V) + frakB(V) + R) u, without R if not ``include_R``.

        The V-independent base frakA(0) + R is formed once.  The V-dependent
        part is U g Op(m) in each block, so with s_z = z + zbar, s_w = w + wbar
        it adds -i (F_12b s_w, -F_12b s_w, F_1w s_w + F_12w s_z, -(...))."""
        if include_R and self._base is None:
            self._base = self.frak_A(None).matrix + self.R_operator().matrix
        base = self._base if include_R else self._frak_A0
        if V is None:
            return lambda u: base @ u
        F_1w, F_12b, F_12w = self._weyl_blocks(V)
        n = self.grid.n

        def apply(u):
            s_z = u[:n] + u[n : 2 * n]
            s_w = u[2 * n : 3 * n] + u[3 * n :]
            beam = -1j * (F_12b @ s_w)
            wave = -1j * (F_1w @ s_w + F_12w @ s_z)
            return base @ u + np.concatenate([beam, -beam, wave, -wave])

        return apply

    # -- exact complexified linear part --------------------------------

    def L_complex_matrix(self):
        """Exact matrix of the complexified linear system on stacked V: the
        beam pair from (calB, <j>, alpha), the wave pair from (calW, <j>^{1/2}, beta)."""
        src = self.source
        D_b, D_w = complex_weights(self.grid)
        n2 = 2 * self.grid.n
        L = np.zeros((2 * n2, 2 * n2), dtype=complex)
        L[:n2, :n2] = _complexified_pair(src.calB_matrix(), D_b, src.alpha)
        L[n2:, n2:] = _complexified_pair(src.calW_matrix(), D_w, src.beta)
        return L

    def R_operator(self):
        """R := L_complex - frakA(0); block diagonal, order <= 0."""
        if self._R is None:
            M = self.L_complex_matrix() - self.frak_A(None).matrix
            self._R = SpectralOperator(self.grid, M, order=0.0, block=4)
        return self._R

    # -- full right-hand side ------------------------------------------

    def full_rhs(self, vec, t=0.0):
        """Exact complexified right-hand side on a stacked vector."""
        y, y_t, th, th_t = real_from_stacked(self.grid, np.asarray(vec, dtype=complex))
        ytt, thtt = self.source.real_rhs(y, y_t, th, th_t, t)
        return stacked_from_real(self.grid, y_t, ytt, th_t, thtt)

    def forcing_G(self, t):
        """Stacked forcing G(t): the complexified zero-mode accelerations
        gamma f_b(t) and delta f_w(t) at zero displacement."""
        src = self.source
        zero = np.zeros(self.grid.n)
        f_b, f_w = zero.copy(), zero.copy()
        if src.gamma != 0.0:
            f_b[0] = src.gamma * src.f_b(t)
        if src.delta != 0.0:
            f_w[0] = src.delta * src.f_w(t)
        return stacked_from_real(self.grid, zero, f_b, zero, f_w)

    def remainder(self, vec, t=0.0):
        """remainder(V) := full_rhs - frakA(V)V - frakB(V)V - RV - G(t)."""
        return self.kato_forcing(vec, t) - self.forcing_G(t)

    def kato_forcing(self, vec, t=0.0):
        """remainder(V) + G(t) = full_rhs - (frakA(V) + frakB(V) + R)V.

        This is the inhomogeneity of the Kato step (P)_n frozen at V = V_{n-1}."""
        vec = np.asarray(vec, dtype=complex)
        return self.full_rhs(vec, t) - self.frozen_generator(vec)(vec)
