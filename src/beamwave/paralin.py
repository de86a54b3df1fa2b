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
side to machine precision.

frakA and frakB are odd: each is held as its halves (pm, mp), 2n x 2n over
(beam, wave), on the parity halves p = D u, m = i D^{-1} u_t of ``state``.
On real states (u, u_t), u = (y, theta), D = (<j>, <j>^{1/2}), they act as
u' = i D^{-1} pm D^{-1} u_t, u_t' = -i D mp D u.  The solvers march this real
form (``real_generator``): L = frakA(0) + R is ``linear_rhs``, and frakA(V) -
frakA(0) + frakB(V) adds P_12b theta to y_tt and P_1w theta + P_12w y to
theta_tt, P = -2 diag(D_out) Op^BW(g m) diag(D_in).  The 4n x 4n matrices of
``L_complex_matrix`` and ``R_operator`` are test references.
"""

import numpy as np

from .grid import SpectralFunction
from .quantize import bony_weyl_quantize, weyl_gather_index, weyl_table
from .state import complex_weights, real_from_stacked, stacked_from_real
from .symbols import FrequencyMultiplier, SeparableSymbol

_XI2 = FrequencyMultiplier.xi_power(2)
_XI1 = FrequencyMultiplier.xi_power(1)
_ABS_XI = FrequencyMultiplier.abs_xi()
_OFF = FrequencyMultiplier.bracket(-1.5) * _XI2  # <xi>^{-3/2} xi^2, order 1/2


class ParalinearizedSystem:
    """The decomposition above on one grid.

    The generator is linear in the symbols and every multiplier is fixed, so
    ``__init__`` quantizes the V-independent blocks (the beam block and the
    wave block at V = 0) once and tabulates chi_eps(|j-k|/<j+k>) g((j+k)/2)
    for g = |xi| and <xi>^{-3/2} xi^2.  A background V then changes only
    g_1w, g_12b and g_12w, each entering frakA / frakB through one gather.
    The real form holds them with P's weights folded in, one per g-function
    that the term lists of F1 and F2 can make nonzero.
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
        self._A0 = self.frak_A(None)
        # g_1w, g_12b, g_12w: the F and jet slot each is half the partial of,
        # the rows (out, in) of u = (y, y_t, theta, theta_t) of its block, its table
        F1, F2, D = source.F1, source.F2, complex_weights(grid)
        specs = ((F2, 5, 3, 2, self._abs_xi_table), (F1, 5, 1, 2, self._off_table),
                 (F2, 2, 3, 0, self._off_table))
        self._real_blocks = [(i, out, inp, -2.0 * D[out // 2][:, None] * table * D[inp // 2])
                             for i, (F, slot, out, inp, table) in enumerate(specs)
                             if any(slot in term[1:] for term in F.terms)]

    # -- g-functions ---------------------------------------------------

    def g_functions(self, V):
        """(a, d, g_1w, g_12b, g_12w) at the realified jet of V."""
        if V is None:
            zero = SpectralFunction.zero(self.grid)
            return self.a_fun, self.d_fun, zero, zero, zero
        return (self.a_fun, self.d_fun) + tuple(
            SpectralFunction(self.grid, h, is_real=True) for h in self.prepass(V)[1])

    def prepass(self, vec):
        """The jets (6, ..., n) of stacked backgrounds ``vec`` (..., 4n), from
        one batched call, and the coefficients (3, ..., n) of g_1w, g_12b and
        g_12w: the dealiased halves of dF2/d(theta_xx), dF1/d(theta_xx) and
        dF2/d(y_xx) at those jets.  F is quadratic, so g is linear in V."""
        y_hat, _, th_hat, _ = real_from_stacked(self.grid, vec)
        jets = self.source.jets(y_hat, th_hat)
        F1, F2 = self.source.F1, self.source.F2
        partials = [F2.partial_values(5, jets), F1.partial_values(5, jets),
                    F2.partial_values(2, jets)]
        return jets, self.source.dealiased_hats(0.5 * np.stack(partials))

    # -- symbols -------------------------------------------------------

    def assemble_symbols(self, V):
        """The symbols A_b, A_w, B_b, B_w at V; the definition that frakA and
        frakB quantize from precomputed tables.

        Each 2 x 2 symbol is I p + U q, so its quantization
        I Op^BW(p) + U Op^BW(q) has the even halves Op^BW(p) + 2 Op^BW(q) and
        Op^BW(p).  Each key maps to (p, q): p a constant-coefficient
        FrequencyMultiplier (None for the coupling blocks), q a SeparableSymbol."""
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
        """The odd halves pm = -i diag(j^2, |j|), mp = -i blockdiag(diag(j^2) +
        2 Op^BW(q_b), diag(|j|) + 2 Op^BW(q_w)) of diag(-iE Op^BW(A_b), -iE
        Op^BW(A_w)); the system keeps them at V = None, and a background adds
        its gathered g_1w |xi| block to a copy of mp."""
        n = self.grid.n
        if V is None:
            syms = self.assemble_symbols(None)
            # p has constant coefficients, so Op^BW(p) = diag(p(j)) (chi_eps(0) = 1)
            p = [syms[key][0](self.grid.modes) for key in ("A_b", "A_w")]
            pm = np.diag(-1j * np.concatenate(p))
            mp = pm.copy()
            mp[:n, :n] -= 2j * bony_weyl_quantize(syms["A_b"][1])
            mp[n:, n:] -= 2j * bony_weyl_quantize(syms["A_w"][1])
            return pm, mp
        pm, mp = self._A0[0], self._A0[1].copy()
        mp[n:, n:] -= 2j * self._weyl_blocks(*self.g_functions(V)[2:])[0]
        return pm, mp

    def frak_B(self, V):
        """The odd halves (pm, mp) of antidiag(-iE Op^BW(B_b), -iE Op^BW(B_w)):
        pm = 0, mp = -i [[0, 2 F_12b], [2 F_12w, 0]] over (beam, wave)."""
        n = self.grid.n
        pm, mp = np.zeros((2, 2 * n, 2 * n), dtype=complex)
        if V is not None:
            _, F_12b, F_12w = self._weyl_blocks(*self.g_functions(V)[2:])
            mp[:n, n:] = -2j * F_12b
            mp[n:, :n] = -2j * F_12w
        return pm, mp

    # -- real form -------------------------------------------------------

    def background_blocks(self, g):
        """The V-dependent part in real form at g-functions ``g`` (3, n): for
        each block F can make nonzero, (out, in, P) adds P @ u[in] to d_t u[out];
        P costs one gather."""
        return [(out, inp, g[i][self._gather] * table) for i, out, inp, table in self._real_blocks]

    def real_linear_part(self, include_R=True):
        """The V-independent part of the generator on real states u of shape
        (4, ..., n): L = frakA(0) + R, (y_t, y_tt, theta_t, theta_tt) from
        ``linear_rhs``; without R, frakA(0)'s halves by the odd rule above."""
        if include_R:
            def L(u):
                ytt, thtt = self.source.linear_rhs(*u)
                return np.array([u[1], ytt, u[3], thtt])

            return L
        n = self.grid.n
        D = np.concatenate(complex_weights(self.grid))
        pm, mp = self._A0
        to_pos, to_vel = 1j * pm / np.outer(D, D), -1j * mp * np.outer(D, D)

        def L(u):
            d_pos = np.concatenate([u[1], u[3]], axis=-1) @ to_pos.T
            d_vel = np.concatenate([u[0], u[2]], axis=-1) @ to_vel.T
            return np.array([d_pos[..., :n], d_vel[..., :n], d_pos[..., n:], d_vel[..., n:]])

        return L

    def real_generator(self, linear_part, g=None):
        """The frozen generator frakA(V) + frakB(V) (+ R) in real form: u ->
        linear_part(u) plus the background blocks at the g-functions g of V."""
        blocks = () if g is None else self.background_blocks(g)

        def apply(u):
            du = linear_part(u)
            for out, inp, P in blocks:
                du[out] += P @ u[inp]
            return du

        return apply

    # -- exact complexified linear part --------------------------------

    def L_complex_matrix(self, include_R=True):
        """Dense 4n x 4n matrix of L (of frakA(0) without R): its real form
        carried through the complexification, applied to the identity."""
        u = np.array(real_from_stacked(self.grid, np.eye(4 * self.grid.n)))
        return stacked_from_real(self.grid, *self.real_linear_part(include_R)(u)).T

    def R_operator(self):
        """R := L - frakA(0); block diagonal, order <= 0."""
        return self.L_complex_matrix() - self.L_complex_matrix(include_R=False)

    # -- full right-hand side ------------------------------------------

    def full_rhs(self, vec, t=0.0):
        """Exact complexified right-hand side on a stacked vector."""
        y, y_t, th, th_t = real_from_stacked(self.grid, np.asarray(vec, dtype=complex))
        ytt, thtt = self.source.real_rhs(y, y_t, th, th_t, t)
        return stacked_from_real(self.grid, y_t, ytt, th_t, thtt)

    def _G_accelerations(self, t):
        """Zero-mode gamma f_b(t), delta f_w(t): (2, ..., n) for times t (...)."""
        src = self.source
        t = np.asarray(t, dtype=float)
        acc = np.zeros((2,) + t.shape + (self.grid.n,))
        for row, amp, f in ((0, src.gamma, src.f_b), (1, src.delta, src.f_w)):
            if amp != 0.0:
                acc[row, ..., 0] = amp * np.vectorize(f, otypes=[float])(t)
        return acc

    def forcing_G(self, t):
        """Stacked forcing G(t), shape (..., 4n) for times of shape (...): the
        complexified zero-mode accelerations at zero displacement."""
        f_b, f_w = self._G_accelerations(t)
        return stacked_from_real(self.grid, 0.0, f_b, 0.0, f_w)

    def remainder(self, vec, t=0.0):
        """remainder(V) := full_rhs - frakA(V)V - frakB(V)V - RV - G(t)."""
        return self.kato_forcing(vec, t) - self.forcing_G(t)

    def kato_forcing(self, vec, t=0.0, prepass=None):
        """remainder(V) + G(t) = full_rhs - (frakA(V) + frakB(V) + R)V for
        stacked V (..., 4n) at times t (...): the inhomogeneity of the Kato
        step (P)_n frozen at V = V_{n-1}.  L V cancels, leaving in real form
        gamma f_b + F1 - P_12b theta in y_tt and delta f_w + F2 - P_1w theta -
        P_12w y in theta_tt, from the jets of V (``prepass``, if the caller
        holds ``self.prepass(vec)``); P is applied node by node."""
        vec = np.asarray(vec, dtype=complex)
        jets, g = self.prepass(vec) if prepass is None else prepass
        f1, f2 = self.source.nonlinearity_hats(jets) + self._G_accelerations(t)
        r, u = (0.0, f1, 0.0, f2), real_from_stacked(self.grid, vec)
        for idx in np.ndindex(vec.shape[:-1]):
            for out, inp, P in self.background_blocks(g[(slice(None),) + idx]):
                r[out][idx] -= P @ u[inp][idx]
        del u
        return stacked_from_real(self.grid, *r)
