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
theta_tt, P = -2 diag(D_out) Op^BW(g m) diag(D_in); ``prepass``,
``kato_forcing`` and ``forcing_G`` act on real states (4, ..., n).  A stacked
V enters only ``g_functions`` and the test references ``full_rhs``,
``remainder``, ``L_complex_matrix`` and ``R_operator``.
"""

import numpy as np

from .grid import SpectralFunction
from .quantize import bony_weyl_quantize, weyl_table
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
    wave block at V = 0) once.  A background V then changes only g_1w,
    g_12b and g_12w, each entering frakA / frakB through one gather against
    the table chi_eps(|j-k|/<j+k>) g((j+k)/2) of g = |xi| or
    <xi>^{-3/2} xi^2.  The real form holds those tables with P's weights
    folded in, one per g-function that the term lists of F1 and F2 can make
    nonzero.
    """

    def __init__(self, source, grid):
        self.source = source
        self.grid = grid
        one = SpectralFunction.constant(grid, 1.0)
        self.a_fun = 0.5 * (source.b - one)
        self.d_fun = 0.5 * (source.c - one)
        self._A0 = self.frak_A(None)
        # g_1w, g_12b, g_12w: the F and jet slot each is half the partial of,
        # the rows (out, in) of u = (y, y_t, theta, theta_t) of its block, its multiplier
        F1, F2, D = source.F1, source.F2, complex_weights(grid)
        specs = ((F2, 5, 3, 2, _ABS_XI), (F1, 5, 1, 2, _OFF), (F2, 2, 3, 0, _OFF))
        self._real_blocks = [
            (i, out, inp,
             -2.0 * D[out // 2][:, None] * weyl_table(grid, mult, bony_weyl=True) * D[inp // 2])
            for i, (F, slot, out, inp, mult) in enumerate(specs)
            if any(slot in term[1:] for term in F.terms)]

    # -- g-functions ---------------------------------------------------

    def g_functions(self, V):
        """(a, d, g_1w, g_12b, g_12w) at the realified jet of a stacked V."""
        if V is None:
            zero = SpectralFunction.zero(self.grid)
            return self.a_fun, self.d_fun, zero, zero, zero
        return (self.a_fun, self.d_fun) + tuple(
            SpectralFunction(self.grid, h, is_real=True)
            for h in self.prepass(real_from_stacked(self.grid, V))[1])

    def prepass(self, u):
        """The jets (6, ..., n) at the slots F reads (``jets``) of real
        backgrounds u = (y, y_t, theta, theta_t) (4, ..., n), in one batched call,
        and the coefficients (3, ..., n) of g_1w, g_12b and g_12w: the dealiased
        halves of dF2/d(theta_xx), dF1/d(theta_xx) and dF2/d(y_xx) there.  F is
        quadratic: g is linear in V."""
        jets = self.source.jets(u[0], u[2])
        F1, F2 = self.source.F1, self.source.F2
        g = np.zeros((3,) + jets.shape[1:], dtype=complex)  # transformed in place
        for row, (F, slot) in zip(g, ((F2, 5), (F1, 5), (F2, 2))):
            F.partial_values(slot, jets, out=row)
        g *= 0.5
        np.fft.fft(g, norm="forward", out=g)[..., ~self.grid.dealias_mask] = 0.0
        return jets, g

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

    def _weyl_block(self, g, mult):
        """Op^BW(g(x) mult(xi)) as an n x n block: one gather of g against
        the tabulated multiplier."""
        return g.coeffs[self.grid.gather_index] * weyl_table(self.grid, mult, bony_weyl=True)

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
        mp[n:, n:] -= 2j * self._weyl_block(self.g_functions(V)[2], _ABS_XI)
        return pm, mp

    def frak_B(self, V):
        """The odd halves (pm, mp) of antidiag(-iE Op^BW(B_b), -iE Op^BW(B_w)):
        pm = 0, mp = -i [[0, 2 F_12b], [2 F_12w, 0]] over (beam, wave)."""
        n = self.grid.n
        pm, mp = np.zeros((2, 2 * n, 2 * n), dtype=complex)
        if V is not None:
            g_12b, g_12w = self.g_functions(V)[3:]
            mp[:n, n:] = -2j * self._weyl_block(g_12b, _OFF)
            mp[n:, :n] = -2j * self._weyl_block(g_12w, _OFF)
        return pm, mp

    # -- real form -------------------------------------------------------

    def background_blocks(self, g):
        """The V-dependent part in real form at g-functions ``g`` (3, n): for
        each block F can make nonzero, (out, in, P) adds P @ u[in] to d_t u[out];
        P costs one gather."""
        gather = self.grid.gather_index
        return [(out, inp, g[i][gather] * table) for i, out, inp, table in self._real_blocks]

    def real_linear_part(self, include_R=True):
        """The V-independent part of the generator on real states u of shape
        (4, ..., n): L = frakA(0) + R, (y_t, y_tt, theta_t, theta_tt) from
        ``linear_rhs``; without R, frakA(0)'s halves by the odd rule above."""
        if include_R:
            return self.source.linear_rhs
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
        linear_part(u) plus the background blocks at the g-functions g of V,
        plus a ``forcing`` (4, ..., n) if given."""
        blocks = () if g is None else self.background_blocks(g)

        def apply(u, forcing=None):
            du = linear_part(u)
            for out, inp, P in blocks:
                du[out] += P @ u[inp]
            if forcing is not None:
                du += forcing
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
        u = np.array(real_from_stacked(self.grid, np.asarray(vec, dtype=complex)))
        return stacked_from_real(self.grid, *self.source.real_rhs(u, t))

    def forcing_G(self, t):
        """Forcing G(t) on real states, (4, ..., n) for times t (...): the
        zero-mode accelerations gamma f_b(t), delta f_w(t) in the y_tt and
        theta_tt rows, zero elsewhere."""
        src = self.source
        t = np.asarray(t, dtype=float)
        G = np.zeros((4,) + t.shape + (self.grid.n,), dtype=complex)
        for row, amp, f in ((1, src.gamma, src.f_b), (3, src.delta, src.f_w)):
            if amp != 0.0:
                G[row, ..., 0] = amp * np.vectorize(f, otypes=[float])(t)
        return G

    def remainder(self, vec, t=0.0):
        """remainder(V) := full_rhs - frakA(V)V - frakB(V)V - RV - G(t) on a stacked V."""
        u = np.array(real_from_stacked(self.grid, np.asarray(vec, dtype=complex)))
        return stacked_from_real(self.grid, *(self.kato_forcing(u, t) - self.forcing_G(t)))

    def kato_forcing(self, u, t=0.0, prepass=None):
        """remainder(V) + G(t) = full_rhs - (frakA(V) + frakB(V) + R)V in real
        form, (4, ..., n) for real states u (4, ..., n) at times t (...): the
        inhomogeneity of the Kato step (P)_n frozen at V = V_{n-1}.  L V
        cancels, leaving gamma f_b + F1 - P_12b theta in y_tt and
        delta f_w + F2 - P_1w theta - P_12w y in theta_tt, from the jets of u
        (``prepass``, if the caller holds ``self.prepass(u)``); P is applied
        node by node."""
        jets, g = self.prepass(u) if prepass is None else prepass
        r = self.forcing_G(t)
        self.source.add_nonlinearity_hats(jets, r)
        for idx in np.ndindex(np.shape(u)[1:-1]):
            for out, inp, P in self.background_blocks(g[(slice(None),) + idx]):
                r[out][idx] -= P @ u[inp][idx]
        return r
