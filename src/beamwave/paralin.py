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

frakA and frakB are odd: each is held as its halves (pm, mp) on the parity
halves p = D u, m = i D^{-1} u_t of ``state``, each half a 2 x 2 tuple of
n x n (beam, wave) blocks ((bb, bw), (wb, ww)), None for a block that is zero
by structure, or, if diagonal, its diagonal: (2n,) for frakA's pm, (n,) for a
block of constant x-coefficients (``bony_weyl_quantize``): frakA(0)'s where b,
or c, is constant, and a background's where its g-function is (at V = 0).
On real states (u, u_t), u = (y, theta), D = (<j>, <j>^{1/2}), they act as
u' = i D^{-1} pm D^{-1} u_t, u_t' = -i D mp D u.  The solvers march this real
form (``real_generator``): L = frakA(0) + R is ``linear_rhs``, and frakA(V) -
frakA(0) + frakB(V) adds P_12b theta to y_tt and P_1w theta + P_12w y to
theta_tt, P = -2 diag(D_out) Op^BW(g m) diag(D_in), formed per node as its
half Q = P / 2 (``frozen_node``) by its rows 0..n/2 (Q[-j, -k] = conj Q[j, k]),
applied to the full coefficients (``TorusGrid.full``) of the row it reads; it,
``prepass``, ``kato_forcing`` and ``forcing_G`` act on real states by their
j >= 0 halves (4, ..., n//2 + 1), ``np.fft.rfft``'s layout.  A stacked V enters only
``g_functions``; the dense stacked references of L, R, the full right-hand
side and the remainder live beside their tests.
"""

import operator

import numpy as np

from .grid import SpectralFunction
from .quantize import bony_weyl_quantize, combine, weyl_table
from .state import complex_weights, real_from_stacked
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
    g_12b and g_12w, each entering frakA / frakB as its Toeplitz view
    (``grid.toeplitz``) times the table chi_eps(|j-k|/<j+k>) g((j+k)/2) of
    g = |xi| or <xi>^{-3/2} xi^2.  The real form holds the rows 0..n/2 of
    those tables with half of P's weights folded in, one per g-function that
    the term lists of F1 and F2 can make nonzero.
    """

    def __init__(self, source, grid):
        self.source = source
        self.grid = grid
        one = SpectralFunction.constant(grid, 1.0)
        self.a_fun = 0.5 * (source.b - one)
        self.d_fun = 0.5 * (source.c - one)
        self._A0 = self.frak_A(None)
        # g_1w, g_12b, g_12w: the F and jet slot each is half the partial of,
        # the rows (out, in) of u = (y, y_t, theta, theta_t) of its block, its
        # multiplier; each table holds rows 0..n/2 of half of P's weights, -2 / 2 =
        # -1, complex, as a float one is cast in every node's form (25-40% slower at N = 128)
        F1, F2, D, h = source.F1, source.F2, complex_weights(grid), grid.n // 2 + 1
        specs = ((F2, 5, 3, 2, _ABS_XI), (F1, 5, 1, 2, _OFF), (F2, 2, 3, 0, _OFF))
        self._real_blocks = [
            (i, out, inp, (-1.0 * D[out // 2][:h, None] * (weyl_table(grid, mult, h)
                           * grid.chi_mask[:h]) * D[inp // 2]).astype(complex))
            for i, (F, slot, out, inp, mult) in enumerate(specs)
            if any(slot in term[1:] for term in F.terms)]

    def coupled(self):
        """(beam-wave, wave-beam): whether the term lists of F can make g_12b,
        g_12w nonzero, and so frakB's coupling block in its mp half."""
        live = {i for i, *_ in self._real_blocks}
        return 1 in live, 2 in live

    # -- g-functions ---------------------------------------------------

    def g_functions(self, V):
        """(a, d, g_1w, g_12b, g_12w) at the realified jet of a stacked V."""
        if V is None:
            zero = SpectralFunction.zero(self.grid)
            return self.a_fun, self.d_fun, zero, zero, zero
        half = np.array(real_from_stacked(self.grid, V))[:, : self.grid.n // 2 + 1]
        return (self.a_fun, self.d_fun) + tuple(
            SpectralFunction(self.grid, self.grid.full(h), is_real=True)
            for h in self.prepass(half)[1])

    def prepass(self, u):
        """The jets (6, ..., n) at the slots F reads (``jets``) of real
        backgrounds u = (y, y_t, theta, theta_t) (4, ..., n//2 + 1), in one
        batched call from the rows u[0] = y and u[2] = theta (the others may be
        None); the halves (3, ..., n//2 + 1) of g_1w, g_12b and g_12w: the
        dealiased halves of dF2/d(theta_xx), dF1/d(theta_xx) and dF2/d(y_xx)
        there; and the wave margin (...) of each background, read from the grid
        values of dF2/d(theta_xx) before they are halved
        (``BridgeSystem.wave_margin``).  A Kato sweep calls it on a chunk of the
        nodes it freezes at a time.  F is quadratic: g is linear in V."""
        jets = self.source.jets(u[0], u[2])
        F1, F2 = self.source.F1, self.source.F2
        values = np.zeros((3,) + jets.shape[1:])
        for row, (F, slot) in zip(values, ((F2, 5), (F1, 5), (F2, 2))):
            F.partial_values(slot, jets, out=row)
        margin = self.source.wave_margin(values[0])
        values *= 0.5
        g = np.fft.rfft(values, norm="forward")
        g[..., self.grid.dealias_cut + 1 :] = 0.0
        return jets, g, margin

    # -- symbols -------------------------------------------------------

    def assemble_symbols(self, V):
        """The symbols A_b, A_w, B_b, B_w at V; the definition that frakA and
        frakB quantize from precomputed tables.

        Each 2 x 2 symbol is I p + U q, so its quantization
        I Op^BW(p) + U Op^BW(q) has the even halves Op^BW(p) + 2 Op^BW(q) and
        Op^BW(p).  Each key maps to (p, q), SeparableSymbols: p of constant
        coefficients (None for the coupling blocks)."""
        grid = self.grid
        a, d, g_1w, g_12b, g_12w = self.g_functions(V)
        return {
            "A_b": (SeparableSymbol.from_multiplier(grid, _XI2),
                    SeparableSymbol(grid, [(a, _XI2), (2j * a.deriv(), _XI1)])),
            "A_w": (SeparableSymbol.from_multiplier(grid, _ABS_XI),
                    SeparableSymbol(grid, [(d + g_1w, _ABS_XI)])),
            "B_b": (None, SeparableSymbol(grid, [(g_12b, _OFF)])),
            "B_w": (None, SeparableSymbol(grid, [(g_12w, _OFF)])),
        }

    # -- block operators ----------------------------------------------

    def frak_A(self, V):
        """The odd halves of diag(-iE Op^BW(A_b), -iE Op^BW(A_w)): pm = -i
        diag(j^2, |j|), held as its diagonal (2n,), and mp = -i
        blockdiag(diag(j^2) + 2 Op^BW(q_b), diag(|j|) + 2 Op^BW(q_w)), held as
        its blocks ((bb, None), (None, ww)), each by its diagonal (n,) where q
        has constant coefficients; the system keeps them at V = None, and a
        background adds its g_1w |xi| block to a new wave block (none if F2 has
        no theta_xx), dense unless g_1w and c are constant."""
        if V is None:
            syms = self.assemble_symbols(None)
            # p has constant coefficients: Op^BW(p) comes back as its diagonal (n,)
            p_b, p_w = (-1j * bony_weyl_quantize(syms[key][0]) for key in ("A_b", "A_w"))
            bb, ww = (combine(operator.sub, p, 2j * bony_weyl_quantize(syms[key][1]))
                      for p, key in ((p_b, "A_b"), (p_w, "A_w")))
            return np.concatenate([p_b, p_w]), ((bb, None), (None, ww))
        if 0 not in {i for i, *_ in self._real_blocks}:  # F2 has no theta_xx slot: g_1w = 0
            return self._A0
        pm, ((bb, _), (_, ww)) = self._A0
        q_w = SeparableSymbol.from_xfunc(self.g_functions(V)[2], _ABS_XI)
        return pm, ((bb, None), (None, combine(operator.sub, ww, 2j * bony_weyl_quantize(q_w))))

    def frak_B(self, V):
        """The odd halves (pm, mp) of antidiag(-iE Op^BW(B_b), -iE Op^BW(B_w))
        as 2 x 2 (beam, wave) blocks: pm = 0, mp = -i [[0, 2 F_12b], [2 F_12w,
        0]].  A block that is zero by structure (all of pm; mp's at V = None
        or where F has no coupling slot, ``coupled``) is None."""
        live = (False, False) if V is None else self.coupled()
        g_12b, g_12w = self.g_functions(V)[3:] if any(live) else (None, None)
        bw, wb = (-2j * bony_weyl_quantize(SeparableSymbol.from_xfunc(g, _OFF)) if on else None
                  for g, on in zip((g_12b, g_12w), live))
        return ((None, None), (None, None)), ((None, bw), (wb, None))

    # -- real form -------------------------------------------------------

    def frozen_node(self, g, bufs=None, u=None, r=None):
        """One node of a frozen background, from its g-functions' halves g (3,
        n//2 + 1): the blocks (out, in, Q) of each g-function F can make nonzero,
        Q = P / 2 by its rows 0..n/2 (into the ``bufs`` if given), so that a
        step's block is the sum Q_k + Q_{k+1} of its two nodes'.  Given the node's
        real state u and forcing r (4, n//2 + 1; rows y and theta of u read), the
        node's P u = 2 Q u is subtracted from r in place (``kato_forcing``)."""
        grid, blocks = self.grid, []
        g = grid.full(g)
        for (i, out, inp, table), buf in zip(self._real_blocks, bufs or [None] * 3):
            Q = np.multiply(grid.toeplitz(g[i])[: grid.n // 2 + 1], table, out=buf)
            if r is not None:
                r[out] -= 2.0 * (Q @ grid.full(u[inp]))
            blocks.append((out, inp, Q))
        return blocks

    def real_generator(self, blocks):
        """The frozen generator frakA(V) + frakB(V) + R in real form, forced:
        (u, forcing) -> ``linear_rhs``(u) plus P @ u[in] in row out for each
        background block (out, in, P) by its rows 0..n/2, u[in] read in full,
        plus the forcing; u and the forcing are halves (4, n//2 + 1)."""
        linear_rhs, full = self.source.linear_rhs, self.grid.full

        def apply(u, forcing):
            du = linear_rhs(u)
            for out, inp, P in blocks:
                du[out] += P @ full(u[inp])
            du += forcing
            return du

        return apply

    def forcing_G(self, t):
        """Forcing G(t) on real states, (4, ..., n//2 + 1) for times t (...): the
        zero-mode accelerations gamma f_b(t), delta f_w(t) in the y_tt and
        theta_tt rows, zero elsewhere."""
        src = self.source
        t = np.asarray(t, dtype=float)
        G = np.zeros((4,) + t.shape + (self.grid.n // 2 + 1,), dtype=complex)
        for row, amp, f in ((1, src.gamma, src.f_b), (3, src.delta, src.f_w)):
            if amp != 0.0:
                G[row, ..., 0] = amp * np.vectorize(f, otypes=[float])(t)
        return G

    def kato_forcing(self, u, t=0.0):
        """remainder(V) + G(t), the full right-hand side minus (frakA(V) +
        frakB(V) + R)V, in real form, (4, ..., n//2 + 1) for real states u
        (4, ..., n//2 + 1) at times t (...): the inhomogeneity of the Kato step
        (P)_n frozen at V = V_{n-1}.  L V cancels, leaving gamma f_b + F1 -
        P_12b theta in y_tt and delta f_w + F2 - P_1w theta - P_12w y in
        theta_tt, from the jets of u
        (``prepass``); P is applied node by node (``frozen_node``, which a Kato
        sweep's march calls on each node as it reads it).  As in ``prepass``,
        only the rows y and theta of u are read."""
        jets, g, _ = self.prepass(u)
        r = self.forcing_G(t)
        self.source.add_nonlinearity_hats(jets, r)
        for idx in np.ndindex(np.shape(u[0])[:-1]):
            node = (slice(None),) + idx
            self.frozen_node(g[node], u=[None if v is None else v[idx] for v in u], r=r[node])
        return r
