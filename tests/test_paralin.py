"""Paralinearized complex system: decomposition exactness and structure."""

import numpy as np
import pytest

import beamwave.paralin as paralin
from beamwave.bridge import BridgeSystem, bridge_system_from_json
from beamwave.cli import PRESET_SYSTEMS, build_preset
from beamwave.evolve import SolverConfig, kato_solve
from beamwave.grid import SpectralFunction, TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.quantize import as_matrix, bony_weyl_quantize
from beamwave.state import (
    complex_weights,
    complexify,
    is_conjugate_pair,
    real_from_stacked,
    stacked_from_real,
    stacked_norm,
)
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol
from conftest import parity_split, reference_norm
from test_bridge import variable_arioli_gazzola
from test_quantize import conjugation_break
from test_spectral_core import parity_join, sobolev_norm


def dense_block(b, n):
    """The matrix of a block held in any form the operators take: b itself
    if it is one, the diagonal matrix of a diagonal, zero (n x n) for None."""
    if b is None:
        return np.zeros((n, n), dtype=complex)
    return np.diag(b) if b.ndim == 1 else b


def dense_half(X, n):
    """The 2n x 2n matrix of a parity half: X itself if it is one, the
    diagonal matrix of a diagonal (2n,), or the 2 x 2 (beam, wave) blocks X
    assembled (``dense_block``)."""
    if isinstance(X, np.ndarray):
        return dense_block(X, 2 * n)
    return np.block([[dense_block(b, n) for b in row] for row in X])


def odd_stacked_matrix(g, pm, mp):
    """The stacked 4n x 4n matrix of the odd operator with halves pm (m -> p)
    and mp (p -> m), in any form ``dense_half`` reads: its action on the
    split identity."""
    pm, mp = dense_half(pm, g.n), dense_half(mp, g.n)
    p, m = parity_split(np.eye(4 * g.n))
    return parity_join(m @ pm.T, p @ mp.T).T


def half_of(g, vec):
    """The real state's half (4, ..., n//2 + 1) of stacked vectors (..., 4n)."""
    return np.array(real_from_stacked(g, vec))[..., : g.n // 2 + 1]


def on_conjugate_pairs(g, f, vec):
    """A map f of real states' halves (4, ..., n//2 + 1) carried to stacked
    conjugate pairs (..., 4n): complexified, it maps V to the stacked form of
    f's value."""
    vec = np.asarray(vec, dtype=complex)
    assert all(is_conjugate_pair(g, v, 1e-10) for v in vec.reshape(-1, 4 * g.n))
    return stacked_from_real(g, *g.full(f(half_of(g, vec))))


def conjugate_swap(g, vec):
    """J (z, zbar, w, wbar) = (conj zbar(-j), conj z(-j), conj wbar(-j), conj w(-j))
    on stacked vectors (..., 4n); its fixed points are the conjugate pairs."""
    z, zb, w, wb = (c[..., g.reflect] for c in np.split(np.conj(vec), 4, axis=-1))
    return np.concatenate([zb, z, wb, w], axis=-1)


def complex_linear_extension(g, f, vec):
    """The complex-linear extension of a real-linear map f of real states'
    halves to any stacked vectors (..., 4n): vec = c1 + i c2 with the
    conjugate pairs c1 = (vec + J vec) / 2 and c2 = (vec - J vec) / 2i, and
    f(vec) = f(c1) + i f(c2), each carried by ``on_conjugate_pairs``."""
    Jv = conjugate_swap(g, vec)
    return (on_conjugate_pairs(g, f, 0.5 * (vec + Jv))
            + 1j * on_conjugate_pairs(g, f, (vec - Jv) / 2j))


def real_form(force, damping, u):
    """The derivative of real states u (4, ..., n//2 + 1) under x'' = force(x)
    + damping x': their velocities, and ``force`` of their positions plus the
    damping (2, 1) of their velocities."""
    du = np.empty_like(u)
    du[0::2] = u[1::2]
    du[1::2] = force(u[0::2]) + damping.reshape((2,) + (1,) * (u.ndim - 1)) * u[1::2]
    return du


def L_complex_matrix(para):
    """Dense 4n x 4n matrix of L = frakA(0) + R: the complex-linear extension
    of its real form, ``linear_force`` and the damping (``real_form``), by
    ``complex_linear_extension``, applied to the identity."""
    g, sys = para.grid, para.source

    def linear_rhs(u):
        return real_form(sys.linear_force, sys.damping, u)

    return complex_linear_extension(g, linear_rhs, np.eye(4 * g.n)).T


def R_operator(para):
    """R := L - frakA(0); block diagonal, order <= 0."""
    return L_complex_matrix(para) - odd_stacked_matrix(para.grid, *para.frak_A(None))


def full_rhs(para, vec, t=0.0):
    """Exact complexified right-hand side on a stacked conjugate pair."""
    return on_conjugate_pairs(para.grid, lambda u: para.source.real_rhs(u, t), vec)


def remainder(para, vec, t=0.0):
    """remainder(V) := full_rhs - frakA(V)V - frakB(V)V - RV - G(t) on a
    stacked conjugate pair V: the Kato forcing less G."""
    return on_conjugate_pairs(para.grid, lambda u: para.kato_forcing(u, t) - para.forcing_G(t), vec)


def structural_zeros(half):
    """The positions of the None blocks of a half in 2 x 2 block form."""
    return {(i, k) for i, row in enumerate(half) for k, b in enumerate(row) if b is None}


EVERY_BLOCK = {(0, 0), (0, 1), (1, 0), (1, 1)}


def constant_background_blocks(para, g_v):
    """The background blocks (out, in, P) of a step frozen at g-functions g_v
    at both of its nodes: the midpoint block Q + Q of the halves
    ``frozen_node`` forms; none for no background."""
    if g_v is None:
        return []
    return [(out, inp, Q + Q) for out, inp, Q in para.frozen_node(g_v, None, None)]


def coupled_system(n=32, amp=1e-2):
    g = TorusGrid(n)
    sys = BridgeSystem(g, 1.0, 1.0, F1=[(1.0, 4, 5)], F2=[(1.0, 2, 5), (0.5, 5, 5)])
    fields = (
        amp * np.sin(g.x),
        0.5 * amp * np.cos(g.x),
        amp * np.sin(2 * g.x),
        0.5 * amp * np.cos(2 * g.x),
    )
    V = complexify(*(transform(g, v) for v in fields)).stacked()
    return g, sys, ParalinearizedSystem(sys, g), V


def test_full_rhs_matches_real_system():
    # complexified right-hand side must be the exact transport of the real one
    g, sys, para, V = coupled_system()
    u = np.array(real_from_stacked(g, V))
    _, ytt, _, thtt = g.full(sys.real_rhs(half_of(g, V), 0.0))
    rhs = full_rhs(para, V, 0.0)
    br = g.brackets
    rt2 = np.sqrt(2.0)
    dz_expect = (br * u[1] + 1j * ytt / br) / rt2
    assert np.max(np.abs(rhs[: g.n] - dz_expect)) < 1e-12


def test_decomposition_reproduces_full_rhs():
    # frakA V + frakB V + R V + remainder(V) + G == full_rhs to machine
    # precision; G and the Kato forcing remainder + G act on the real state,
    # where the generator plus the Kato forcing is the real right-hand side
    g, sys, para, V = coupled_system()
    u = half_of(g, V)
    halves = [dense_half(a, g.n) + dense_half(b, g.n)
              for a, b in zip(para.frak_A(V), para.frak_B(V))]
    lin = (odd_stacked_matrix(g, *halves) + R_operator(para)) @ V
    total = lin + remainder(para, V, 0.0) + stacked_from_real(g, *g.full(para.forcing_G(0.0)))
    assert np.max(np.abs(total - full_rhs(para, V, 0.0))) < 1e-12
    real_total = half_of(g, lin) + para.kato_forcing(u, 0.0)
    assert np.max(np.abs(real_total - sys.real_rhs(u, 0.0))) < 1e-12


def test_remainder_is_quadratically_small():
    g, sys, para, V = coupled_system(amp=1e-2)
    r1 = stacked_norm(g, remainder(para, V, 0.0), 1.0)
    _, _, para2, V2 = coupled_system(amp=1e-3)
    r2 = stacked_norm(g, remainder(para2, V2, 0.0), 1.0)
    # quadratic in the data: one decade in amplitude -> two decades in the rest
    assert r2 < 2e-2 * r1


def test_headline_set_up_peak_at_n512():
    # the set-up, with the first read of the real-form tables (the first
    # frozen node's), holds the grid's chi and in-range mask (9 bytes an
    # entry) and the table of g_1w; chi and the table are formed by row
    # blocks, so neither its lattice nor the table's temporaries set the
    # peak: measured 20.6 bytes an entry, 21.3 with the table formed through
    # four (n/2 + 1) x n temporaries, 24.4 with chi also formed over the
    # whole lattice at once
    import tracemalloc

    g = TorusGrid(512)
    system, _ = build_preset("headline", g)
    tracemalloc.start()
    try:
        para = ParalinearizedSystem(system, g)
        assert len(para._real_blocks) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22.5 * g.n**2, peak / g.n**2


def test_trivial_background_generator_is_diagonal_phases():
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    A = odd_stacked_matrix(g, *para.frak_A(None))
    j2 = g.modes.astype(float) ** 2
    expect = np.concatenate([-1j * j2, 1j * j2, -1j * np.abs(g.modes), 1j * np.abs(g.modes)])
    assert np.max(np.abs(A - np.diag(expect))) < 1e-12
    assert [structural_zeros(h) for h in para.frak_B(None)] == [EVERY_BLOCK] * 2


def test_frak_B_allocates_no_half_that_is_zero_by_structure():
    # pm is zero for every system, and mp where F has no coupling slot (as in
    # headline): each of their blocks is None, owning no memory; an mp that
    # is formed carries only the n x n coupling blocks F can make nonzero
    g = TorusGrid(32)
    n = g.n
    for name in ("headline", "mixed"):
        sysm, fields = build_preset(name, g)
        para = ParalinearizedSystem(sysm, g)
        pm, mp = para.frak_B(complexify(*fields).stacked())
        assert structural_zeros(pm) == EVERY_BLOCK
        assert structural_zeros(mp) == (EVERY_BLOCK if name == "headline" else {(0, 0), (1, 1)})
        assert all(b.shape == (n, n) and np.any(b) for row in mp for b in row if b is not None)
    para = ParalinearizedSystem(BridgeSystem(g, 1.0, 1.0, F1=[(1.0, 4, 5)], F2=[(1.0, 5, 5)]), g)
    assert para.coupled() == (True, False)
    _, mp = para.frak_B(complexify(*build_preset("linear", g)[1]).stacked())
    assert structural_zeros(mp) == {(0, 0), (1, 0), (1, 1)} and np.any(mp[0][1])


def test_frak_A_is_held_by_its_diagonal_and_its_diagonal_blocks(monkeypatch):
    # frakA(0)'s pm half is diagonal, held as its (2n,) diagonal; its mp half
    # is block-diagonal, held as two blocks, here diagonals (n,) as b and c are
    # constant; a background replaces the wave block only, by a dense one, and
    # leaves the system's blocks as they were
    g = TorusGrid(32)
    n = g.n
    sysm, fields = build_preset("mixed", g)
    para = ParalinearizedSystem(sysm, g)
    pm, mp = para._A0
    assert pm.shape == (2 * n,) and structural_zeros(mp) == {(0, 1), (1, 0)}
    assert mp[0][0].shape == mp[1][1].shape == (n,)
    held = [b.copy() for b in (mp[0][0], mp[1][1])]
    pm_v, mp_v = para.frak_A(complexify(*fields).stacked())
    assert pm_v is pm and mp_v[0][0] is mp[0][0] and structural_zeros(mp_v) == {(0, 1), (1, 0)}
    assert mp_v[1][1].shape == (n, n) and np.any(mp_v[1][1] != dense_block(mp[1][1], n))
    assert all(np.array_equal(a, b) for a, b in zip(held, (mp[0][0], mp[1][1])))
    # where F2 has no theta_xx slot, g_1w is zero: a background leaves frakA(0)
    # as it is, its wave block a diagonal, and quantizes nothing
    for preset in ("linear", "parity", "arioli_gazzola"):
        sysm, fields = build_preset(preset, g)
        para = ParalinearizedSystem(sysm, g)
        assert 0 not in {i for i, *_ in para._real_blocks}
        monkeypatch.setattr(paralin, "bony_weyl_quantize", None)
        assert para.frak_A(complexify(*fields).stacked()) is para._A0
        assert para._A0[1][1][1].shape == (n,)
        monkeypatch.undo()


def test_R_operator_trivial_system_order_zero():
    # for b = c = 1 the complex linear part differs from frakA(0) only by the
    # bounded bracket corrections (order 0): <j>^2 vs j^2 and <j> vs |j|
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    R = R_operator(para)
    # the correction <j>^2 - j^2 = 1 is largest at j = 0, giving norm ~ 1,
    # on all modes of the four components
    assert reference_norm(g, R, 0.0, 0.0) < 1.5
    # and it is genuinely order 0: the H^2 -> H^0 norm is no larger
    assert reference_norm(g, R, 2.0, 0.0) < 1.5


def test_rhs_preserves_conjugate_pairing():
    # a half holds a real function but in its slots 0 and n/2, whose imaginary
    # parts the full coefficients drop: there the stage's derivative of a real
    # state is real, exactly, so the stacked right-hand side is a conjugate pair
    g, sys, para, V = coupled_system()
    assert is_conjugate_pair(g, V, 1e-10)
    du = sys.real_rhs(half_of(g, V), 0.0)
    assert not np.any(du[:, [0, g.n // 2]].imag)
    assert is_conjugate_pair(g, full_rhs(para, V, 0.0), 1e-10)


def test_forcing_G_conjugate_structure():
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0, delta=0.5)
    para = ParalinearizedSystem(sys, g)
    assert para.forcing_G(0.7).shape == (4, g.n // 2 + 1)
    G = stacked_from_real(g, *g.full(para.forcing_G(0.7)))
    n = g.n
    assert G[3 * n] == np.conj(G[2 * n]) != 0.0
    assert np.count_nonzero(G) == 2  # delta sin t drives theta_t's mean alone


def test_g_functions_from_nonlinearity():
    g, sys, para, V = coupled_system(amp=1e-2)
    a, d, g_1w, g_12b, g_12w = para.g_functions(V)
    # F2 contains (1/2) theta_xx^2 -> g_1w = (1/2) dF2/d(theta_xx) = theta_xx/2...
    # evaluated at the jet; nonzero for nonzero data, zero at V = None
    assert sobolev_norm(g_1w, 0.0) > 0.0
    a0, d0, z1, z2, z3 = para.g_functions(None)
    assert all(sobolev_norm(z, 0.0) == 0.0 for z in (z1, z2, z3))


def minus_iE_bw(g, parts):
    """-iE Op^BW(I p + U q) of a part (p, q) of ``assemble_symbols``, each of
    Op^BW(p), Op^BW(q) formed as its matrix, as the stacked symmetric pair
    [[P + Q, Q], [Q, P + Q]]."""
    p, q = parts
    E = np.kron(np.diag([1.0, -1.0]), np.eye(g.n))
    Q = as_matrix(bony_weyl_quantize(q))
    P = 0.0 if p is None else as_matrix(bony_weyl_quantize(p))
    return -1j * (E @ np.block([[P + Q, Q], [Q, P + Q]]))


def dense_frak_A(g, para, V):
    """The stacked 4n x 4n frakA(V) = blockdiag(-iE Op^BW(A_b), -iE Op^BW(A_w))."""
    syms, n2 = para.assemble_symbols(V), 2 * g.n
    A = np.zeros((2 * n2, 2 * n2), dtype=complex)
    A[:n2, :n2], A[n2:, n2:] = minus_iE_bw(g, syms["A_b"]), minus_iE_bw(g, syms["A_w"])
    return A


@pytest.mark.parametrize("preset", ["headline", "mixed", "arioli_gazzola"])
def test_tabulated_generator_matches_quantized_symbols(preset):
    # frakA / frakB from the precomputed tables, embedded from their odd
    # halves, equal -iE Op^BW of the assembled symbols I p + U q, each part
    # quantized here on its own and laid out as the stacked symmetric pair
    # [[A, B], [B, A]], at V = None, at V = 0 (every g-function zero, so
    # frakA's wave block and frakB's blocks come back as diagonals), at the
    # preset data and at a perturbed V; the real-form generator's action on
    # real states equals the sum of the matrices, with R, carried through the
    # complexification
    g = TorusGrid(32)
    sysm, fields = build_preset(preset, g)
    para = ParalinearizedSystem(sysm, g)
    V = complexify(*fields).stacked()
    bumped = complexify(
        *(transform(g, 0.3 * u.values().real + 4e-3 * np.cos(3 * g.x)) for u in fields)
    ).stacked()
    n2 = 2 * g.n
    u = np.fft.rfft(np.random.default_rng(3).standard_normal((4, g.n)), norm="forward")
    for v in (None, 0.0 * V, V, V + bumped):
        syms = para.assemble_symbols(v)
        A = dense_frak_A(g, para, v)
        B = np.zeros_like(A)
        B[:n2, n2:] = minus_iE_bw(g, syms["B_b"])
        B[n2:, :n2] = minus_iE_bw(g, syms["B_w"])
        got_A = odd_stacked_matrix(g, *para.frak_A(v))
        got_B = odd_stacked_matrix(g, *para.frak_B(v))
        assert np.linalg.norm(got_A - A) <= 1e-12 * np.linalg.norm(A)
        assert np.linalg.norm(got_B - B) <= 1e-12 * max(np.linalg.norm(B), 1e-300)
        g_v = None if v is None else para.prepass(half_of(g, v))[1]
        M = got_A + got_B + R_operator(para)
        expect = half_of(g, M @ stacked_from_real(g, *g.full(u)))
        force = para.real_generator(constant_background_blocks(para, g_v))
        got = real_form(force, sysm.damping, u)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    assert [structural_zeros(h) for h in para.frak_B(None)] == [EVERY_BLOCK] * 2


@pytest.mark.parametrize("c", [1.0, "cosine:0.2"], ids=["constant_c", "c_profile"])
def test_frak_A_at_a_constant_nonzero_g_1w_equals_its_dense_reference(c):
    # F2 = y theta_xx on constant y data: g_1w = y/2 is a nonzero constant, so
    # Op^BW(g_1w |xi|) comes back as its diagonal (n,); frakA(V)'s wave block
    # is then a diagonal beside c's constant diagonal, or beside the dense
    # block of a c profile, and equals the dense reference either way (numpy
    # would broadcast a diagonal against a matrix into a wrong array)
    g = TorusGrid(32)
    sysm = bridge_system_from_json({"c": c, "F2": [[1.0, 0, 5]]}, g)
    fields = build_preset("headline", g)[1]
    V = complexify(SpectralFunction.constant(g, 0.3), *fields[1:]).stacked()
    para = ParalinearizedSystem(sysm, g)
    g_1w = para.g_functions(V)[2]
    assert g_1w.coeffs[0] != 0.0 and not g_1w.coeffs[1:].any()
    pm, mp = para.frak_A(V)
    assert mp[1][1].shape == para._A0[1][1][1].shape == ((g.n,) if c == 1.0 else (g.n, g.n))
    A = dense_frak_A(g, para, V)
    assert np.linalg.norm(odd_stacked_matrix(g, pm, mp) - A) <= 1e-12 * np.linalg.norm(A)


def test_batched_kato_forcing_matches_single_vectors():
    # one batched call over a real trajectory (4, nodes, n), with its times,
    # gives each node's forcing as a call on that node alone does
    g = TorusGrid(32)
    sysm, fields = build_preset("mixed", g)
    sysm.delta = -0.3
    para = ParalinearizedSystem(sysm, g)
    u = np.array([f.coeffs[: g.n // 2 + 1] for f in fields])
    traj = np.stack([s * u for s in (1.0, 0.5, -2.0, 0.25)], axis=1)
    times = np.array([0.0, 0.1, 0.2, 0.3])
    batched = para.kato_forcing(traj, times)
    assert batched.shape == traj.shape
    for k, t in enumerate(times):
        expect = para.kato_forcing(traj[:, k], t)
        got = batched[:, k]
        assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)


@pytest.mark.parametrize("preset", ["headline", "arioli_gazzola"])
def test_skipping_structurally_zero_blocks_is_bit_identical(preset):
    # a block whose g-function F has no term for adds exact zeros, so leaving
    # it out does not change a single bit of the stage output; the reference
    # system keeps every block through terms with coefficient 0
    g = TorusGrid(32)
    sysm, fields = build_preset(preset, g)
    u = half_of(g, complexify(*fields).stacked())
    skipping = ParalinearizedSystem(sysm, g)
    doc = PRESET_SYSTEMS[preset]
    zero_terms = BridgeSystem(g, **dict(doc, F1=doc.get("F1", []) + [[0.0, 5, 5]],
                                        F2=doc.get("F2", []) + [[0.0, 2, 5]]))
    every = ParalinearizedSystem(zero_terms, g)
    assert len(skipping._real_blocks) < len(every._real_blocks) == 3
    g_v = skipping.prepass(u)[1]
    got = skipping.real_generator(constant_background_blocks(skipping, g_v))(u[0::2])
    expect = every.real_generator(constant_background_blocks(every, g_v))(u[0::2])
    assert np.array_equal(got, expect)


@pytest.mark.parametrize(
    "system",
    [
        lambda g: build_preset("linear", g)[0],
        lambda g: variable_arioli_gazzola(g, alpha=-0.5, beta=-0.5),
    ],
    ids=["linear", "arioli_gazzola_damped"],
)
def test_L_complex_matrix_is_the_linear_right_hand_side(system):
    # for a linear unforced system the dense matrix of L, assembled column by
    # column from its batched FFT action, reproduces full_rhs applied to a
    # single vector; the action itself is checked against grid products of
    # spectral derivatives in test_bridge
    g = TorusGrid(32)
    sysm = system(g)
    para = ParalinearizedSystem(sysm, g)
    _, fields = build_preset("linear", g)
    V = complexify(*fields).stacked()
    expect = full_rhs(para, V, 0.0)
    assert np.linalg.norm(L_complex_matrix(para) @ V - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("n", [16, 32, 128, 512])
def test_frozen_node_blocks_of_a_real_background_map_real_states_to_real_states(n):
    # every background block of the mixed preset (all three g-functions live)
    # at a random real dealiased background is held by its rows 0..n/2,
    # (n/2 + 1) x n: those of its dense reference Q = -diag(D_out)
    # Op^BW(g m) diag(D_in) (``bony_weyl_quantize``).  The reference has
    # Q[-j, -k] = conj Q[j, k] in every row and column, the unpaired mode -n/2
    # included, so the rows j < 0 that the block leaves out are the conjugates
    # of those it holds, and it maps a real state's full coefficients to the
    # half of a real state
    g = TorusGrid(n)
    para = ParalinearizedSystem(build_preset("mixed", g)[0], g)
    g_half = np.fft.rfft(np.random.default_rng(n).standard_normal((3, n)), norm="forward")
    g_half[:, g.dealias_cut + 1 :] = 0.0
    blocks = para.frozen_node(g_half, None, None)
    assert len(blocks) == 3
    D = complex_weights(g)
    off = FrequencyMultiplier.bracket(-1.5) * FrequencyMultiplier.xi_power(2)
    specs = {(3, 2): (0, FrequencyMultiplier.abs_xi()), (1, 2): (1, off), (3, 0): (2, off)}
    for out, inp, Q in blocks:
        i, mult = specs[out, inp]
        f = SpectralFunction(g, g.full(g_half[i]), is_real=True)
        Op = bony_weyl_quantize(SeparableSymbol.from_xfunc(f, mult))
        ref = -D[out // 2][:, None] * Op * D[inp // 2]
        assert Q.shape == (n // 2 + 1, n)
        assert np.max(np.abs(Q - ref[: n // 2 + 1])) <= 1e-15 * np.max(np.abs(ref))
        assert conjugation_break(g, ref) <= 1e-15


def test_every_kato_node_block_holds_the_rows_j_ge_0(monkeypatch):
    # every block a Kato solve forms, for its forcing and its steps, and every
    # midpoint block its generator applies, is (n/2 + 1) x n
    g = TorusGrid(32)
    sysm, fields = build_preset("mixed", g)
    shapes = set()
    generator = ParalinearizedSystem.real_generator
    frozen_node = ParalinearizedSystem.frozen_node

    def recording_generator(self, blocks):
        shapes.update(("step", P.shape) for *_, P in blocks)
        return generator(self, blocks)

    def recording_node(self, *args, **kwargs):
        blocks = frozen_node(self, *args, **kwargs)
        shapes.update(("node", Q.shape) for *_, Q in blocks)
        return blocks

    monkeypatch.setattr(ParalinearizedSystem, "real_generator", recording_generator)
    monkeypatch.setattr(ParalinearizedSystem, "frozen_node", recording_node)
    kato_solve(sysm, complexify(*fields).stacked(), SolverConfig(T_final=0.02))
    assert shapes == {("step", (g.n // 2 + 1, g.n)), ("node", (g.n // 2 + 1, g.n))}
