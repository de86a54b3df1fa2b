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
linear part L minus frakA(0) (block diagonal, order 0), and the remainder is
defined by subtraction so the decomposition reproduces the full right-hand
side to machine precision.  The solvers apply frakA + frakB + R through
``frozen_generator`` as L, the real system's FFT action carried through the
complexification, plus the gathered V-dependent blocks; the 4n x 4n
matrices serve the parametrix and the tests.
"""

import numpy as np

from .grid import SpectralFunction
from .quantize import bony_weyl_quantize, pair, weyl_gather_index, weyl_table
from .state import real_from_stacked, stacked_from_real
from .symbols import FrequencyMultiplier, SeparableSymbol

_XI2 = FrequencyMultiplier.xi_power(2)
_XI1 = FrequencyMultiplier.xi_power(1)
_ABS_XI = FrequencyMultiplier.abs_xi()
_OFF = FrequencyMultiplier.bracket(-1.5) * _XI2  # <xi>^{-3/2} xi^2, order 1/2


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

    def __init__(self, source, grid):
        self.source = source
        self.grid = grid
        one = SpectralFunction.constant(grid, 1.0)
        self.a_fun = 0.5 * (source.b - one)
        self.d_fun = 0.5 * (source.c - one)
        self._abs_xi_table = weyl_table(grid, _ABS_XI, bony_weyl=True)
        self._off_table = weyl_table(grid, _OFF, bony_weyl=True)
        self._gather = weyl_gather_index(grid)
        self._frak_A0 = self.frak_A(None)

    # -- g-functions ---------------------------------------------------

    def g_functions(self, V):
        """(a, d, g_1w, g_12b, g_12w) at the realified jet of V."""
        if V is None:
            zero = SpectralFunction.zero(self.grid)
            return self.a_fun, self.d_fun, zero, zero, zero
        y_hat, _, th_hat, _ = real_from_stacked(self.grid, V)
        return (self.a_fun, self.d_fun) + self._g_of_jets(self.source.jets(y_hat, th_hat))

    def _g_of_jets(self, jets):
        """(g_1w, g_12b, g_12w): the dealiased halves of dF2/d(theta_xx),
        dF1/d(theta_xx) and dF2/d(y_xx) at the jet values ``jets``."""
        F1, F2 = self.source.F1, self.source.F2
        partials = [F2.partial_values(5, jets), F1.partial_values(5, jets),
                    F2.partial_values(2, jets)]
        hats = self.source.dealiased_hats(0.5 * np.stack(partials))
        return tuple(SpectralFunction(self.grid, h, is_real=True) for h in hats)

    # -- symbols -------------------------------------------------------

    def assemble_symbols(self, V):
        """The symbols A_b, A_w, B_b, B_w at V; the definition that frakA and
        frakB quantize from precomputed tables.

        Each 2 x 2 symbol is I p + U q, so its quantization is
        I Op^BW(p) + U Op^BW(q) = pair(Op^BW(p) + Op^BW(q), Op^BW(q)).  Each
        key maps to (p, q): p a constant-coefficient FrequencyMultiplier (None
        for the coupling blocks), q a SeparableSymbol."""
        grid = self.grid
        a, d, g_1w, g_12b, g_12w = self.g_functions(V)
        return {
            "A_b": (_XI2, SeparableSymbol(grid, [(a, _XI2), (2j * a.deriv(), _XI1)])),
            "A_w": (_ABS_XI, SeparableSymbol(grid, [(d + g_1w, _ABS_XI)])),
            "B_b": (None, SeparableSymbol(grid, [(g_12b, _OFF)])),
            "B_w": (None, SeparableSymbol(grid, [(g_12w, _OFF)])),
        }

    # -- block operators ----------------------------------------------

    def _weyl_blocks(self, g_1w, g_12b, g_12w):
        """Op^BW of g_1w |xi|, g_12b <xi>^{-3/2} xi^2 and g_12w <xi>^{-3/2} xi^2
        as n x n blocks, each one gather of the tabulated multiplier."""
        return (
            g_1w.coeffs[self._gather] * self._abs_xi_table,
            g_12b.coeffs[self._gather] * self._off_table,
            g_12w.coeffs[self._gather] * self._off_table,
        )

    def frak_A(self, V):
        """diag(-iE Op^BW(A_b), -iE Op^BW(A_w)) as a 4n x 4n array.

        At V = None the blocks are quantized from the symbols; the system
        keeps that result as ``_frak_A0``, and a background adds its gathered
        g_1w |xi| block to a copy."""
        n2 = 2 * self.grid.n
        if V is None:
            M = np.zeros((2 * n2, 2 * n2), dtype=complex)
            syms = self.assemble_symbols(None)
            for block, key in ((slice(None, n2), "A_b"), (slice(n2, None), "A_w")):
                p, q = syms[key]
                Q = bony_weyl_quantize(q)
                # p has constant coefficients, so Op^BW(p) = diag(p(j)) (chi_eps(0) = 1)
                M[block, block] = minus_iE(pair(Q + np.diag(p(self.grid.modes)), Q))
            return M
        M = self._frak_A0.copy()
        F_1w = self._weyl_blocks(*self.g_functions(V)[2:])[0]
        M[n2:, n2:] += minus_iE(pair(F_1w, F_1w))
        return M

    def frak_B(self, V):
        """antidiagonal coupling blocks -iE Op^BW(B_b), -iE Op^BW(B_w), 4n x 4n."""
        n2 = 2 * self.grid.n
        M = np.zeros((2 * n2, 2 * n2), dtype=complex)
        if V is not None:
            _, F_12b, F_12w = self._weyl_blocks(*self.g_functions(V)[2:])
            M[:n2, n2:] = minus_iE(pair(F_12b, F_12b))
            M[n2:, :n2] = minus_iE(pair(F_12w, F_12w))
        return M

    def _background_part(self, g_1w, g_12b, g_12w):
        """The action u -> (frakA(V) - frakA(0) + frakB(V)) u from the
        g-functions of V.  It is U g Op(m) in each block, so with
        s_z = z + zbar, s_w = w + wbar it is
        -i (F_12b s_w, -F_12b s_w, F_1w s_w + F_12w s_z, -(...))."""
        F_1w, F_12b, F_12w = self._weyl_blocks(g_1w, g_12b, g_12w)
        n = self.grid.n

        def apply(u):
            s_z = u[:n] + u[n : 2 * n]
            s_w = u[2 * n : 3 * n] + u[3 * n :]
            beam = -1j * (F_12b @ s_w)
            wave = -1j * (F_1w @ s_w + F_12w @ s_z)
            return np.concatenate([beam, -beam, wave, -wave])

        return apply

    def frozen_generator(self, V, include_R=True):
        """The action u -> (frakA(V) + frakB(V) + R) u, without R if not ``include_R``.

        frakA(0) + R is the linear part L, applied by FFT (``L_complex``);
        without R the base is the matrix frakA(0).  A background V adds
        ``_background_part``, three gathered n x n blocks."""
        base = self.L_complex if include_R else (lambda u: self._frak_A0 @ u)
        if V is None:
            return base
        part = self._background_part(*self.g_functions(V)[2:])
        return lambda u: base(u) + part(u)

    # -- exact complexified linear part --------------------------------

    def L_complex(self, vec):
        """L vec on stacked vectors (..., 4n): the real system's linear part
        ``linear_rhs`` carried through the complexification."""
        y, y_t, th, th_t = real_from_stacked(self.grid, vec)
        ytt, thtt = self.source.linear_rhs(y, y_t, th, th_t)
        return stacked_from_real(self.grid, y_t, ytt, th_t, thtt)

    def L_complex_matrix(self):
        """Dense 4n x 4n matrix of L: its action on the columns of the identity."""
        return self.L_complex(np.eye(4 * self.grid.n)).T

    def R_operator(self):
        """R := L_complex - frakA(0); block diagonal, order <= 0."""
        return self.L_complex_matrix() - self.frak_A(None)

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

        L V cancels from that difference, leaving the complexified
        nonlinearities plus G(t) minus the background part at V applied to V;
        both come from one evaluation of the jets of V.  This is the
        inhomogeneity of the Kato step (P)_n frozen at V = V_{n-1}."""
        vec = np.asarray(vec, dtype=complex)
        y_hat, _, th_hat, _ = real_from_stacked(self.grid, vec)
        jets = self.source.jets(y_hat, th_hat)
        f1, f2 = self.source.nonlinearity_hats(jets)
        zero = np.zeros(self.grid.n)
        nonlinear = stacked_from_real(self.grid, zero, f1, zero, f2)
        return nonlinear + self.forcing_G(t) - self._background_part(*self._g_of_jets(jets))(vec)
