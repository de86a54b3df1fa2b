"""Diagonalizers, parametrix, modified energy."""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

import beamwave.paralin
import beamwave.parametrix
import beamwave.quantize
import beamwave.symbols
from beamwave.bridge import BridgeSystem, bridge_system_from_json
from beamwave.cli import PRESETS, build_preset
from beamwave.errors import ConfigError, NumericalError, PreconditionError
from beamwave.grid import SpectralFunction, TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.parametrix import (
    BeamDiagonalizer,
    WaveDiagonalizer,
    _mode_energies,
    _periodic_antiderivative,
    _similarity,
    _wave_cut,
    build_parametrix,
    build_T_correctors,
    conjugation_residual,
    energy_operators,
    equivalence_and_garding_report,
    modified_energy,
    residual_operators,
)
from beamwave.quantize import (
    as_matrix,
    bony_weyl_quantize,
    exact_operator_norm,
    weyl_quantize,
    weyl_table,
)
from beamwave.state import complex_weights, complexify, conjugate_pair, stacked_norm
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol, cutoff_psi
from conftest import parity_split, weighted_matrix
from test_paralin import dense_block, dense_half, structural_zeros
from test_quantize import _svd_spy
from test_spectral_core import parity_join, stacked_inner


def phi(Phi, vec):
    """Phi V on stacked vectors (..., 4n) from Phi's halves: Phi+ on the p
    half, Phi- on the m half."""
    n = np.shape(vec)[-1] // 4
    return parity_join(*(u @ dense_half(X, n).T for X, u in zip(Phi, parity_split(vec))))


def l2s(L2s, vec):
    """L_{2s} V on stacked vectors (..., 4n) from L_{2s}'s blocks: the beam
    block on z and z-bar, the wave block on w and w-bar."""
    n = np.shape(vec)[-1] // 4
    b, w = (dense_block(h, n) for h in L2s)
    v = np.reshape(vec, np.shape(vec)[:-1] + (4, n))
    return np.concatenate([v[..., i, :] @ h.T for i, h in enumerate((b, b, w, w))], axis=-1)


def formed(P):
    """(Phi+-, Psi+-, Lambda) of ``residual_operators``, each wave block, which
    it leaves to the residual's cuts, filled with D~_w's half: D_w+- = D~_w-+."""
    Phi, Psi, Lam = residual_operators(P)
    Dt_w = P.wave.right_inverse()

    def fill(X, w):
        (bb, bw), (wb, _) = X
        return (bb, bw), (wb, w)

    return ((fill(Phi[0], Dt_w[1]), fill(Phi[1], Dt_w[0])),
            (fill(Psi[0], Dt_w[0]), fill(Psi[1], Dt_w[1])), Lam)


def variable_b_system(n, amp=0.2):
    g = TorusGrid(n)
    sys = BridgeSystem(g, 1.0 + amp * np.cos(g.x), 1.0)
    return g, sys, ParalinearizedSystem(sys, g)


def coupled_setup(n, amp=0.05):
    g = TorusGrid(n)
    sys = BridgeSystem(g, "cosine:0.2", 1.0, F1=[(1.0, 4, 5)], F2=[(1.0, 2, 5), (0.5, 5, 5)])
    para = ParalinearizedSystem(sys, g)
    fields = (
        amp * np.sin(g.x),
        0.5 * amp * np.cos(g.x),
        amp * np.sin(2 * g.x),
        0.5 * amp * np.cos(2 * g.x),
    )
    V = complexify(*(transform(g, v) for v in fields)).stacked()
    return g, para, V


def test_periodic_antiderivative():
    g = TorusGrid(32)
    F = _periodic_antiderivative(g, np.cos(2 * g.x))
    assert np.max(np.abs(F - np.sin(2 * g.x) / 2.0)) < 1e-12
    with pytest.raises(NumericalError):
        _periodic_antiderivative(g, 1.0 + np.cos(g.x))


def test_beam_pointwise_identity():
    g, sys, para = variable_b_system(32)
    d = BeamDiagonalizer(para.a_fun, g)
    assert d.pointwise_identity_defect() < 1e-10


def test_wave_pointwise_identity():
    g = TorusGrid(32)
    a_w = transform(g, 0.1 * np.cos(g.x))
    d = WaveDiagonalizer(a_w, g)
    assert d.pointwise_identity_defect() < 1e-10


def test_smallness_precondition():
    g = TorusGrid(32)
    with pytest.raises(PreconditionError):
        WaveDiagonalizer(transform(g, -0.6 + 0.0 * g.x), g)
    with pytest.raises(PreconditionError):
        BeamDiagonalizer(transform(g, np.full(g.n, -0.7)), g)


def subprincipal_offdiagonal(beam, xi):
    """The off-diagonal subprincipal symbol of a BeamDiagonalizer after its
    M_{-1} step, assembled at frequencies xi: i n12 xi (1 - psi(xi)); it
    vanishes identically for |xi| >= 1/2."""
    xi = np.asarray(xi, dtype=float)
    return 1j * beam.n12[:, None] * xi[None, :] * (1.0 - cutoff_psi(xi))[None, :]


def test_subprincipal_vanishes_above_half():
    g, sys, para = variable_b_system(32)
    d = BeamDiagonalizer(para.a_fun, g)
    xi = np.linspace(0.5, 20.0, 64)
    assert np.max(np.abs(subprincipal_offdiagonal(d, xi))) == 0.0
    # and does not vanish identically below
    xi_low = np.array([0.35])
    assert np.max(np.abs(subprincipal_offdiagonal(d, xi_low))) > 0.0


def test_trivial_background_gauge_collapses():
    # a = 0: S = identity entries, k = 1, M_{-1} = 0, both halves of D_b = identity
    g = TorusGrid(16)
    d = BeamDiagonalizer(transform(g, np.zeros(g.n)), g)
    assert np.max(np.abs(d.k.values().real - 1.0)) < 1e-12
    assert np.max(np.abs(d.M_minus1())) == 0.0
    for half in d.halves(d.M_minus1()):
        assert np.max(np.abs(dense_block(half, g.n) - np.eye(g.n))) < 1e-12


def test_conjugation_residual_stable_in_n():
    reports = []
    for n in (32, 64):
        g, para, V = coupled_setup(n)
        P = build_parametrix(para, V, 2.5)
        reports.append(conjugation_residual(P, para, V))
    conj = [r["conjugation_norm"] for r in reports]
    inv = [r["inverse_defect_norm"] for r in reports]
    assert max(conj) / min(conj) < 1.25
    assert max(inv) / min(inv) < 1.25


def test_modified_energy_positive_and_equivalent():
    g, para, V = coupled_setup(32)
    P = build_parametrix(para, V, 2.5)
    rep = equivalence_and_garding_report(para, V, 2.5, sample_count=25, seed=1)
    assert rep["ratio_min"] > 0.0
    assert rep["equivalence_constant"] < 10.0
    assert rep["lower_ratio_min"] > 0.0


def test_trivial_background_energy_ratio():
    # b = c = 1, zero background: Phi = identity, L_{2s} weights |j|^{2s};
    # the ratio |V|^2 / ||V||_s^2 is |j|^{2s}/<j>^{2s} per mode, inside [e^-4, 1]
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0)
    para = ParalinearizedSystem(sys, g)
    rep = equivalence_and_garding_report(para, None, 2.5, sample_count=25, seed=2)
    assert rep["ratio_max"] <= 1.0 + 1e-10
    assert rep["ratio_min"] >= np.exp(-4.0)


def test_garding_defect_bounded_across_n():
    vals = []
    for n in (32, 64):
        g, para, V = coupled_setup(n)
        rep = equivalence_and_garding_report(para, V, 2.5, sample_count=10, seed=3)
        vals.append(rep["garding_defect_min"])
    assert abs(vals[0] - vals[1]) < 0.25 * max(1.0, abs(vals[0]))


def test_modified_energy_scalar_quadratic():
    g, para, V = coupled_setup(32)
    P = build_parametrix(para, V, 2.5)
    e1 = modified_energy(*energy_operators(P), parity_split(V))
    e2 = modified_energy(*energy_operators(P), parity_split(2.0 * V))
    assert abs(e2 - 4.0 * e1) < 1e-8 * max(abs(e1), 1.0)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _pair(A, B):
    """The stacked symmetric pair [[A, B], [B, A]] of n x n blocks."""
    return np.block([[A, B], [B, A]])


def _beam_wave(B, W):
    zero = np.zeros_like(B)
    return np.block([[B, zero], [zero, W]])


# system files whose F couples beam and wave one way only: F1 reads
# theta_xx (g_12b), or F2 reads y_xx (g_12w); no preset does
ONE_SIDED = {
    "beam_wave_only": ({"F1": [[1.0, 4, 5]], "F2": [[1.0, 5, 5]]}, (True, False)),
    "wave_beam_only": ({"F2": [[1.0, 2, 5]]}, (False, True)),
    # with a variable b, D_b's halves differ, and so do D~_b's: each bare
    # coupling block tells them apart
    "beam_wave_variable_b": ({"b": "cosine:0.3", "F1": [[1.0, 4, 5]], "F2": [[1.0, 5, 5]]},
                             (True, False)),
    "wave_beam_variable_b": ({"b": "cosine:0.3", "F2": [[1.0, 2, 5]]}, (False, True)),
}


def _preset_setup(preset, n):
    """Grid, system and background of a preset, or of a ONE_SIDED system file
    with the data the CLI gives a system file."""
    g = TorusGrid(n)
    if preset in ONE_SIDED:
        doc, coupled = ONE_SIDED[preset]
        sysm, fields = bridge_system_from_json(doc, g), build_preset("linear", g)[1]
        assert ParalinearizedSystem(sysm, g).coupled() == coupled
    else:
        sysm, fields = build_preset(preset, g)
    return g, ParalinearizedSystem(sysm, g), complexify(*fields).stacked()


def _dense_reference(preset, n):
    """The stacked 4n x 4n Phi = D(1 + T), Psi = (1 - T)D~, D, D~, Lambda,
    L_{2s}, the generator L = frakA + frakB and T, assembled densely here
    from the scalar pieces of the diagonalizers, the quantized T_1, T_2 and
    the assembled symbols, each 2 x 2 block a stacked symmetric pair."""
    g, para, V = _preset_setup(preset, n)
    P = build_parametrix(para, V, 2.5)

    def quantized(f, mult=None):
        return as_matrix(bony_weyl_quantize(SeparableSymbol.from_xfunc(f, mult)))

    b, w = P.beam, P.wave
    zero, one = np.zeros((n, n)), np.eye(n)
    S1, S2, K = quantized(b.s1), quantized(b.s2), quantized(b.k)
    K_inv = quantized(transform(g, 1.0 / b.k.values().real))
    M = _pair(zero, dense_block(b.M_minus1(), n))
    D_b = _pair(K_inv, zero) @ (np.eye(2 * n) + M) @ _pair(S1, -S2)
    Dt_b = _pair(S1, S2) @ (np.eye(2 * n) - M) @ _pair(K, zero)
    S1w, S2w = quantized(w.s1), quantized(w.s2)
    D, Dt = _beam_wave(D_b, _pair(S1w, -S2w)), _beam_wave(Dt_b, _pair(S1w, S2w))
    a, _, _, g_12b, g_12w = para.g_functions(V)
    t_b, t_w = (as_matrix(bony_weyl_quantize(t)) for t in build_T_correctors(a, g_12b, g_12w))
    T = np.zeros_like(D)
    T[: 2 * n, 2 * n :], T[2 * n :, : 2 * n] = _pair(t_b, t_b), _pair(-t_w, t_w)
    eye = np.eye(4 * n)

    minus_iE = np.diag(np.tile(np.repeat([-1j, 1j], n), 2))
    Lam = minus_iE @ _beam_wave(
        _pair(quantized(b.lam, FrequencyMultiplier.xi_power(2)), zero),
        _pair(quantized(w.lam, FrequencyMultiplier.abs_xi()), zero),
    )
    abs5 = FrequencyMultiplier.abs_xi_power(5.0)
    W = _beam_wave(_pair(quantized(transform(g, b.lam.values().real ** 2.5), abs5), zero),
                   _pair(quantized(transform(g, w.lam.values().real ** 5.0), abs5), zero))

    def bw_pair(parts):
        p, q = parts
        Q = as_matrix(bony_weyl_quantize(q))
        Pm = 0.0 if p is None else as_matrix(bony_weyl_quantize(p))
        return _pair(Pm + Q, Q)

    syms = para.assemble_symbols(V)
    L = _beam_wave(bw_pair(syms["A_b"]), bw_pair(syms["A_w"]))
    L[: 2 * n, 2 * n :], L[2 * n :, : 2 * n] = bw_pair(syms["B_b"]), bw_pair(syms["B_w"])
    L = minus_iE @ L
    dense = {"Phi": D @ (eye + T), "Psi": (eye - T) @ Dt, "D": D, "Dt": Dt,
             "Lambda": Lam, "L2s": W, "L": L, "T": T}
    return g, para, V, P, dense


@pytest.mark.parametrize("preset", ["mixed", "arioli_gazzola"])
def test_blocked_parametrix_matches_dense_formula(preset):
    # the halves of Phi and Psi, and the actions of Phi and L_{2s} on a
    # stacked vector, equal the dense stacked formulas
    for n in (32, 64):
        g, para, V, P, dense = _dense_reference(preset, n)
        assert (np.max(np.abs(dense["T"])) > 0.0) == (preset == "mixed")
        split = parity_split(np.eye(4 * n))
        Phi, L2s = energy_operators(P)
        for name, ops in (("Phi", Phi), ("Phi", formed(P)[0]), ("Psi", formed(P)[1])):
            halves = [dense_half(h, n) for h in ops]
            got = parity_join(*(u @ h.T for h, u in zip(halves, split))).T
            assert _rel(got, dense[name]) <= 1e-14, name
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
        assert _rel(phi(Phi, vec), dense["Phi"] @ vec) <= 1e-14
        assert _rel(l2s(L2s, vec), dense["L2s"] @ vec) <= 1e-14


@pytest.mark.parametrize("preset", ["headline", "mixed", "wave_beam_only"])
def test_energy_forms_match_dense_reference(preset):
    # the per-half, per-component quadratic forms give <L_{2s} Phi V, Phi V>
    # of the dense stacked Phi and L_{2s}, on a random batch of conjugate
    # pairs and on the single-mode states of the Garding scan
    for n in (32, 64):
        g, para, V, P, dense = _dense_reference(preset, n)

        def reference(vecs):
            u = vecs @ dense["Phi"].T
            return stacked_inner(g, u @ dense["L2s"].T, u)

        rng = np.random.default_rng(n + 1)
        z, w = rng.standard_normal((2, 6, n)) + 1j * rng.standard_normal((2, 6, n))
        batch = conjugate_pair(g, z * g.bracket_power(-3.5), w * g.bracket_power(-3.5))
        ref = reference(batch)
        Phi, L2s = energy_operators(P)
        got = modified_energy(Phi, L2s, parity_split(batch))
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
        k = np.arange(1, g.dealias_cut + 1)
        e_k, zero = np.eye(n)[k], np.zeros((k.size, n))
        modes = np.concatenate([conjugate_pair(g, e_k, zero), conjugate_pair(g, zero, e_k)])
        ref = reference(modes)
        for got in (_mode_energies(g, Phi, L2s), modified_energy(Phi, L2s, parity_split(modes))):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("preset", ["headline", "mixed", "arioli_gazzola"])
def test_residual_norms_match_dense_svd(preset):
    # each norm that conjugation_residual forms on the halves equals the dense
    # SVD of the stacked residual: relatively where the norm is above
    # round-off, absolutely where it is round-off itself (arioli_gazzola)
    for n in (32, 64):
        g, para, V, P, dense = _dense_reference(preset, n)
        s, h = P.s, 2 * n
        M = dense["Phi"] @ dense["L"] @ dense["Psi"] - dense["Lambda"]
        M_bare = dense["D"] @ dense["L"] @ dense["Dt"] - dense["Lambda"]

        def offdiag(mat):
            out = np.zeros_like(mat)
            out[:h, h:], out[h:, :h] = mat[:h, h:], mat[h:, :h]
            return out

        def norm(mat, s_out=s):  # by its 4 x 4 component blocks on the resolved band
            band = np.ix_(g.dealias_mask, g.dealias_mask)
            blocks = tuple(tuple(b[band] for b in np.hsplit(row, 4)) for row in np.vsplit(mat, 4))
            return exact_operator_norm(g, blocks, s, s_out)

        expect = {
            "conjugation_norm": norm(M),
            "inverse_defect_norm": norm(dense["Psi"] @ dense["Phi"] - np.eye(2 * h), s + 2.0),
            "offdiag_norm": norm(offdiag(M)),
            "offdiag_without_T": norm(offdiag(M_bare)),
        }
        got = conjugation_residual(P, para, V)
        for key, ref in expect.items():
            if ref > 1e-10:
                assert abs(got[key] - ref) <= 1e-12 * ref, (key, n, got[key], ref)
            else:
                assert abs(got[key] - ref) <= 1e-12, (key, n, got[key], ref)


def _full_product_norms(P, para, V):
    """The norms of conjugation_residual from the full n-mode products of the
    halves, X L Y - Lambda, Psi Phi - 1 and D L D~ - Lambda, restricted to
    the resolved band afterwards, each norm the complex SVD of the weighted
    matrix."""
    g, s, n = P.grid, P.s, P.grid.n
    keep = np.tile(g.dealias_mask, 2)
    m = np.count_nonzero(g.dealias_mask)
    L = [dense_half(a, n) + dense_half(b, n) for a, b in zip(para.frak_A(V), para.frak_B(V))]
    Phi, Psi, Lam = formed(P)
    D, Dt = ([_beam_wave(dense_block(X[0][0], n), dense_block(X[1][1], n)) for X in halves]
             for halves in (Phi, Psi))
    Phi, Psi = ([dense_half(h, n) for h in halves] for halves in (Phi, Psi))
    Lam = -1j * _beam_wave(*(dense_block(b, n) for b in Lam))

    def on_band(mat):
        return mat[np.ix_(keep, keep)]

    def norm(mat, s_out=s):
        W = weighted_matrix(g, mat, s, s_out, band="restricted")
        return float(np.linalg.svd(W, compute_uv=False)[0])

    M = [on_band(Phi[i] @ L[i] @ Psi[1 - i] - Lam) for i in (0, 1)]
    bare = [on_band(D[i] @ L[i] @ Dt[1 - i] - Lam) for i in (0, 1)]
    inv = [on_band(Psi[i] @ Phi[i]) - np.eye(2 * m) for i in (0, 1)]
    return {
        "conjugation_norm": max(norm(h) for h in M),
        "inverse_defect_norm": max(norm(h, s + 2.0) for h in inv),
        "offdiag_norm": max(norm(b) for h in M for b in (h[:m, m:], h[m:, :m])),
        "offdiag_without_T": max(norm(b) for h in bare for b in (h[:m, m:], h[m:, :m])),
    }


@pytest.mark.parametrize("preset", ["headline", "mixed", *ONE_SIDED])
def test_residual_norms_match_full_products_and_complex_svds(preset):
    # the column-scaled, blockwise and skipped products and the real-basis
    # and per-component SVDs change nothing beyond round-off; headline's
    # coupling norms stay exact zeros
    for n in (32, 64, 128):
        g, para, V = _preset_setup(preset, n)
        P = build_parametrix(para, V, 2.5)
        got = conjugation_residual(P, para, V)
        for key, ref in _full_product_norms(P, para, V).items():
            if preset == "headline" and key.startswith("offdiag"):
                assert got[key] == ref == 0.0, (key, n)
            else:
                assert abs(got[key] - ref) <= 1e-13 * ref, (key, n, got[key], ref)


@pytest.mark.parametrize("preset", ["headline", "mixed"])
def test_residual_norms_take_only_real_svds(preset, monkeypatch):
    # Phi+-, Psi+- and the generator's halves hold no entry of the unpaired
    # mode -n/2 off the diagonal, so no product's inner sum runs through it:
    # every band norm is real in the cosine-sine basis
    seen, _ = _svd_spy(monkeypatch)
    for n in (32, 64, 128):
        g, para, V = _preset_setup(preset, n)
        conjugation_residual(build_parametrix(para, V, 2.5), para, V)
    assert seen and set(seen) == {"f"}, seen


def test_parametrix_halves_carry_one_coupling_block_each():
    # T+ has only a beam-wave block and T- only a wave-beam block, so the
    # other coupling block of Phi+-, Psi+- is exactly zero
    g, para, V = _preset_setup("mixed", 32)
    P = build_parametrix(para, V, 2.5)
    n = g.n
    Phi, Psi, _ = formed(P)
    phi_p, phi_m, psi_p, psi_m = (dense_half(h, n) for h in Phi + Psi)
    for absent in (phi_p[n:, :n], phi_m[:n, n:], psi_p[n:, :n], psi_m[:n, n:]):
        assert not np.any(absent)
    for carried in (phi_p[:n, n:], phi_m[n:, :n], psi_p[:n, n:], psi_m[n:, :n]):
        assert np.max(np.abs(carried)) > 0.0


@pytest.mark.parametrize("preset", ["headline", *ONE_SIDED])
def test_residuals_form_no_product_through_a_zero_coupling_block(preset, monkeypatch):
    # without a coupling slot every residual half is block-diagonal: its norm
    # takes at most two SVDs of side |R| (none for a block that is exactly
    # zero, as headline's beam blocks of Psi Phi - 1 with b = 1), and T holds
    # no block that F cannot make nonzero
    g, para, V = _preset_setup(preset, 64)
    P = build_parametrix(para, V, 2.5)
    cb, cw = para.coupled()
    assert [t is None for t in P.T()] == [not cb, not cw]
    m = 2 * g.dealias_cut + 1
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    conjugation_residual(P, para, V)
    if not (cb or cw):
        assert 0 < len(shapes) <= 8 and set(shapes) == {(m, m)}
    else:  # each half of Phi and Psi that carries a coupling block keeps it whole
        assert (2 * m, 2 * m) in shapes and (m, m) in shapes


def test_constant_coefficient_residual_blocks_are_normed_as_diagonals(monkeypatch):
    # arioli_gazzola has constant b and c and no F: every block of its
    # residual halves is a diagonal, normed by its largest weighted entry,
    # the wave block of frakA(V)'s mp half too, as F2 has no theta_xx slot
    # and frakA(V) is frakA(0); six SVDs of side |R| when the diagonals were
    # formed as matrices, one while frakA(V) quantized a zero g_1w
    g, para, V = _preset_setup("arioli_gazzola", 64)
    P = build_parametrix(para, V, 2.5)
    assert para.frak_A(V) is para._A0
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    conjugation_residual(P, para, V)
    assert shapes == []


def test_wave_cuts_are_bit_for_bit_the_rows_and_columns_of_the_wave_halves():
    # the rows and columns R that the residual forms of D~_w+ (add) and D~_w-
    # (subtract), one of S_1, S_2 whole at a time, are those of the halves
    # _similarity forms: for a dense pair (headline), a diagonal pair (linear,
    # a_w constant) and a diagonal beside a dense block, formed as its matrix
    from types import SimpleNamespace

    g = TorusGrid(32)
    r = np.flatnonzero(g.dealias_mask)
    waves = [build_parametrix(*_preset_setup(preset, 32)[1:], 2.5).wave
             for preset in ("headline", "linear")]
    varying = transform(g, 0.3 + 0.1 * np.cos(g.x))
    waves += [SimpleNamespace(s1=SpectralFunction.constant(g, 0.9), s2=varying),
              SimpleNamespace(s1=varying, s2=SpectralFunction.constant(g, 0.2))]
    ndims = []
    for wave in waves:
        halves = _similarity(wave.s1, wave.s2)
        for op, half in zip((np.add, np.subtract), halves):
            for axis in (0, 1):
                cut = _wave_cut(wave, op, r, axis)
                ref = half[r] if half.ndim == 1 or axis == 0 else half[:, r]
                assert cut.shape == ref.shape and cut.tobytes() == ref.tobytes()
        ndims.append(halves[0].ndim)
    assert ndims == [2, 1, 2, 2]


def _per_vector_report(para, V, sigma, sample_count, seed):
    """The constants of equivalence_and_garding_report, one vector at a time."""
    grid = para.grid
    n = grid.n
    Phi, L2s = energy_operators(build_parametrix(para, V, sigma))
    rng = np.random.default_rng(seed)
    decay = grid.bracket_power(-(sigma + 1.0))
    upper, lower = [], []
    for _ in range(sample_count):
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
        z[[0, n // 2]] = w[[0, n // 2]] = 0.0
        vec = conjugate_pair(grid, z, w)
        nsq = stacked_norm(grid, vec, sigma) ** 2
        energy = modified_energy(Phi, L2s, parity_split(vec))
        upper.append(energy / nsq)
        lower.append(energy / max(nsq - stacked_norm(grid, vec, -2.0) ** 2, 1e-300))
    j = grid.modes.astype(float)
    delta = np.concatenate([j**4, j**4, j**2, j**2])
    eye, zero, zeros = np.eye(n, dtype=complex), np.zeros(n, dtype=complex), np.zeros(2 * n)
    defects = []
    for k in range(1, grid.dealias_cut + 1):
        for zw in ((eye[k], zero), (zero, eye[k])):
            vec = conjugate_pair(grid, *zw)
            lhs = stacked_inner(grid, l2s(L2s, phi(Phi, delta * vec)), phi(Phi, vec), 0.0)
            zsq = stacked_norm(grid, np.concatenate([vec[: 2 * n], zeros]), sigma + 2.0) ** 2
            wsq = stacked_norm(grid, np.concatenate([zeros, vec[2 * n :]]), sigma + 1.0) ** 2
            defects.append((lhs - 0.25 * (zsq + wsq)) / stacked_norm(grid, vec, sigma) ** 2)
    return {
        "ratio_min": min(upper),
        "ratio_max": max(upper),
        "lower_ratio_min": min(lower),
        "lower_ratio_max": max(lower),
        "garding_defect_min": min(defects),
        "garding_defect_max": max(defects),
        "equivalence_constant": max(max(upper), 1.0 / max(min(lower), 1e-300)),
    }


@pytest.mark.parametrize("preset", ["headline", "mixed", *ONE_SIDED])
def test_batched_energy_report_matches_per_vector_reference(preset):
    for n in (32, 64):
        g, para, V = _preset_setup(preset, n)
        got = equivalence_and_garding_report(para, V, 2.5, sample_count=20, seed=5)
        for key, ref in _per_vector_report(para, V, 2.5, 20, 5).items():
            assert abs(got[key] - ref) <= 1e-13 * abs(ref), (key, n, got[key], ref)


def test_phi_l2s_and_energy_act_on_a_batch_vector_by_vector():
    g, para, V = _preset_setup("mixed", 32)
    Phi, L2s = energy_operators(build_parametrix(para, V, 2.5))
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((5, 4 * g.n)) + 1j * rng.standard_normal((5, 4 * g.n))
    for apply in (partial(phi, Phi), partial(l2s, L2s)):
        got = apply(batch)
        assert got.shape == batch.shape
        for row, vec in zip(got, batch):
            assert _rel(row, apply(vec)) <= 1e-14
    energies = modified_energy(Phi, L2s, parity_split(batch))
    assert energies.shape == (5,)
    for e, vec in zip(energies, batch):
        assert abs(e - modified_energy(Phi, L2s, parity_split(vec))) <= 1e-14 * abs(e)


def test_parametrix_build_evaluates_g_functions_once(monkeypatch):
    # the diagonalizers and the T correctors share one evaluation of the
    # jets and the g-function FFTs
    g, para, V = coupled_setup(32)
    calls = []
    original = ParalinearizedSystem.g_functions

    def counting(self, V):
        calls.append(1)
        return original(self, V)

    monkeypatch.setattr(ParalinearizedSystem, "g_functions", counting)
    build_parametrix(para, V, 2.5)
    assert len(calls) == 1


def _array_sizes(obj, seen):
    values = obj if isinstance(obj, (tuple, list)) else vars(obj).values()
    for value in values:
        if isinstance(value, np.ndarray):
            yield value.size
        elif isinstance(value, (tuple, list)) or hasattr(value, "__dict__"):
            if id(value) in seen:
                continue
            seen.add(id(value))
            yield from _array_sizes(value, seen)


def test_system_and_parametrix_hold_no_array_larger_than_a_block(monkeypatch):
    # operators are held by their parity halves as 2 x 2 blocks of side n
    # over (beam, wave): the system holds no array larger than a block, and a
    # parametrix, the residual's and the energy report's own, only symbols of
    # n entries (its grid's chi and mask aside), once the residual and the
    # report have formed and applied every block
    g, para, V = coupled_setup(32)
    built = _counting(monkeypatch, beamwave.parametrix, "build_parametrix")
    P = beamwave.parametrix.build_parametrix(para, V, 2.5)
    conjugation_residual(P, para, V)
    equivalence_and_garding_report(para, V, 2.5, sample_count=4)
    assert len(built) == 2 and built[0][1] is P
    for _, Q in built:
        assert all(t is not None for t in Q.t)
        assert max(_array_sizes(Q, {id(g)})) == g.n
    assert max(_array_sizes(para, set())) == g.n**2


def test_headline_holds_no_block_that_is_zero_by_structure():
    # headline has no coupling slot: Phi+-, Psi+- and frakA(0)'s mp half
    # hold their two diagonal blocks and no coupling block, frakA(0)'s pm
    # half only its diagonal, and every block they hold is nonzero
    g, para, V = _preset_setup("headline", 32)
    P = build_parametrix(para, V, 2.5)
    pm, mp = para._A0
    assert pm.shape == (2 * g.n,) and np.any(pm)
    for half in (mp,) + formed(P)[0] + formed(P)[1]:
        assert structural_zeros(half) == {(0, 1), (1, 0)}
        assert all(np.any(half[i][i]) for i in (0, 1))


def test_ladder_rung_peak_memory():
    # one N = 128 and one N = 256 rung as the benchmark's parametrix ladder
    # runs them: the build, the residuals, then the energy report (which
    # builds its own parametrix) with the first parametrix alive.  Measured
    # in the suite: 2.12 MB and 6.38 MB (2.83 MB and 6.39 MB in a fresh
    # process); the bounds are the larger plus under 10%.  With Phi, T and
    # L_{2s} held by the parametrix, so that the report ran beside the first
    # parametrix's blocks: 3.25 MB and 8.38 MB (3.31 MB and 8.38 MB fresh);
    # with S_1 +- S_2 also formed as four n x n arrays, each table with its
    # n x n gather index, the Garding scan's diagonal blocks formed as
    # matrices and the samples held beside their parity halves: 3.71 MB and
    # 9.77 MB; with the grid also
    # holding its int64 mode lattice (j - k, j + k) beside chi: 3.98 MB and
    # 10.82 MB; with chi also formed on the whole lattice, each Weyl matrix
    # summed onto zeros and the energy's normal draws held: 4.54 MB and
    # 11.87 MB; with every beam block dense (constant b quantized as a
    # matrix, not held by its diagonal): 6.36 MB and 19.18 MB; with Psi,
    # Lambda and D~_b held by the parametrix and the energy taken on stacked
    # (..., 4n) batches: 10.05 MB and 35.3 MB.
    import tracemalloc

    for n, bound in ((128, 3.1e6), (256, 7.0e6)):
        g = TorusGrid(n)
        sysm, fields = build_preset("headline", g)
        V = complexify(*fields).stacked()
        tracemalloc.start()
        try:
            para = ParalinearizedSystem(sysm, g)
            P = build_parametrix(para, V, 2.5)
            conjugation_residual(P, para, V)
            equivalence_and_garding_report(para, V, 2.5, sample_count=50, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (n, peak)


def test_residual_peak_memory_at_n512():
    # the headline conjugation residual at N = 512, the system and parametrix
    # built first, as ``sweep --axis N`` forms it.  Measured: 11.69 MB, the
    # bound that plus under 10%.  With frakA(V)'s wave block held through
    # both halves and formed as 2i Op^BW(q_w), then its difference with ww,
    # four blocks at once: 13.56 MB
    import tracemalloc

    g = TorusGrid(512)
    sysm, fields = build_preset("headline", g)
    V = complexify(*fields).stacked()
    para = ParalinearizedSystem(sysm, g)
    P = build_parametrix(para, V, 2.5)
    tracemalloc.start()
    try:
        conjugation_residual(P, para, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.6e6, peak


def test_multiplier_one_takes_no_weyl_table(monkeypatch):
    # a headline build quantizes five symbols, S_1, S_2 and K^{-1} of the
    # beam and S_1, S_2 of the wave, all of the multiplier 1, so it takes no
    # table (b = 1, so M_{-1} has no term); Lambda and L_{2s} take one for
    # their wave block on first use, the residuals' and the energy's, and none
    # for their beam block, a diagonal as b is constant; D~_b takes none, and
    # the residuals' generator one, for its g_1w |xi| block.  A quantization
    # forms its table by row blocks; it is counted at its first
    g, para, V = _preset_setup("headline", 64)
    tables = []
    original = beamwave.quantize.weyl_table

    def counting(grid, mult, rows=slice(None)):
        if not rows.start:
            tables.append(mult.terms)
        return original(grid, mult, rows)

    monkeypatch.setattr(beamwave.quantize, "weyl_table", counting)
    P = build_parametrix(para, V, 2.5)
    assert tables == []
    modified_energy(*energy_operators(P), parity_split(V))
    conjugation_residual(P, para, V)
    abs5, abs1 = FrequencyMultiplier.abs_xi_power(5.0), FrequencyMultiplier.abs_xi()
    assert tables == [abs5.terms, abs1.terms, abs1.terms]


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_constant_coefficient_operator_is_exactly_its_diagonal(n):
    # a symbol whose x-coefficients are all constant is quantized as its
    # diagonal (n,): bit for bit, signed zeros included, the diagonal of the
    # Weyl matrix times chi, which is exactly zero off its diagonal, the
    # Nyquist slot n/2 included.  Inputs: one term of each multiplier the
    # parametrix quantizes, frakA(0)'s q_b and q_w of every preset, a sum of
    # three terms and the symbol of no terms.  The real form's tables, formed
    # on their rows 0..n/2, are those rows of the full tables' product
    g = TorusGrid(n)
    xi2, abs1, one = (FrequencyMultiplier.xi_power(2), FrequencyMultiplier.abs_xi(),
                      FrequencyMultiplier.one())
    mults = [one, xi2, abs1, FrequencyMultiplier.psi_over_xi(),
             FrequencyMultiplier.abs_xi_power(5.0)]
    syms = [SeparableSymbol.from_xfunc(SpectralFunction.constant(g, value), mult)
            for value in (1.0, 0.7071, -0.3 + 0.4j, 0.0) for mult in mults]
    syms.append(SeparableSymbol(g, [(SpectralFunction.constant(g, c), m)
                                    for c, m in ((0.7, xi2), (-0.3 + 0.2j, abs1), (0.1, one))]))
    paras = [ParalinearizedSystem(build_preset(preset, g)[0], g) for preset in PRESETS]
    syms += [para.assemble_symbols(None)[key][1] for para in paras for key in ("A_b", "A_w")]
    syms.append(SeparableSymbol(g, []))
    for sym in syms:
        d, M = bony_weyl_quantize(sym), weyl_quantize(sym) * g.chi_mask
        assert d.shape == (n,) and d.tobytes() == np.diagonal(M).tobytes(), sym.terms
        assert not np.any(M - np.diag(np.diagonal(M)))
    D, h = complex_weights(g), n // 2 + 1
    for para in paras:
        for i, out, inp, table in para._real_blocks:
            mult = beamwave.paralin._ABS_XI if i == 0 else beamwave.paralin._OFF
            full = weyl_table(g, mult, slice(None))
            ref = (-1.0 * D[out // 2][:h, None] * (full * g.chi_mask)[:h] * D[inp // 2])
            assert table.tobytes() == ref.astype(complex).tobytes()


@pytest.mark.parametrize("n", [32, 64])
def test_residual_at_a_constant_background_equals_that_of_its_dense_blocks(n, monkeypatch):
    # where a g-function is constant, its blocks come back from the quantizer
    # as diagonals (n,): mixed at V = 0, where all are zero; F1 = y theta_xx,
    # F2 = y theta_xx + y_xx theta on constant y and theta, where all three
    # are nonzero constants, so that frakA(V)'s wave block, frakB's coupling
    # blocks and T are diagonal; and b = 1 + 0.3 cos x with F2 = y y_xx on
    # constant y, where frakB's wave-beam block is diagonal and T's, through
    # 1 + 2a, dense, so a product's block sums a diagonal term with a dense one.
    # The report equals that of the same blocks formed as matrices, as the
    # quantizer returned them before it returned diagonals: bit for bit at
    # V = 0, and to round-off on the nonzero constants, where a matrix product
    # rounds as it will.  The diagonalizers' blocks (``_op``) are the same in both
    g, para, V = _preset_setup("mixed", n)
    fields = build_preset("linear", g)[1]
    const_V = complexify(SpectralFunction.constant(g, 0.3), fields[1],
                         SpectralFunction.constant(g, -0.2), fields[3]).stacked()
    cases = [(para, 0.0 * V)] + [
        (ParalinearizedSystem(bridge_system_from_json(doc, g), g), const_V)
        for doc in ({"F1": [[1.0, 0, 5]], "F2": [[1.0, 0, 5], [1.0, 2, 3]]},
                    {"b": "cosine:0.3", "F2": [[1.0, 0, 2]]})]

    def blocks(p, v):  # the forms of T, frakB(V)'s coupling blocks, frakA(V)'s wave block
        (_, bw), (wb, _) = p.frak_B(v)[1]
        T = build_parametrix(p, v, 2.5).T()
        return [None if b is None else b.ndim for b in (*T, bw, wb, p.frak_A(v)[1][1][1])]

    assert [blocks(p, v) for p, v in cases] == [[1] * 5, [1] * 5, [None, 2, None, 1, 1]]
    got = [conjugation_residual(build_parametrix(p, v, 2.5), p, v) for p, v in cases]
    quantized = beamwave.quantize.bony_weyl_quantize
    monkeypatch.setattr(beamwave.parametrix, "_op", lambda f, mult=None: quantized(
        SeparableSymbol.from_xfunc(f, mult)))
    for module in (beamwave.paralin, beamwave.parametrix):
        monkeypatch.setattr(module, "bony_weyl_quantize", lambda sym: as_matrix(quantized(sym)))
    assert [blocks(p, v) for p, v in cases] == [[2] * 5, [2] * 5, [None, 2, None, 2, 1]]
    ref = [conjugation_residual(build_parametrix(p, v, 2.5), p, v) for p, v in cases]
    assert got[0] == ref[0]
    for report, expect in zip(got[1:], ref[1:]):
        assert expect["offdiag_without_T"] > 0.1 and expect["offdiag_norm"] > 0.1
        assert all(abs(report[k] - expect[k]) <= 1e-14 * max(expect[k], 1.0) for k in expect)


@pytest.mark.parametrize("preset", ["linear", "headline", "mixed", "parity", "damped"])
def test_constant_coefficient_preset_holds_no_dense_beam_block(preset):
    # b and c are constant: D_b, D~_b, K^{+-1} and M_{-1}, Lambda_b, L_{2s}'s
    # beam block, the beam blocks of Phi and Psi and frakA(0)'s mp blocks
    # are held as diagonals (n,), and the beam diagonalizer holds no n x n array
    g, para, V = _preset_setup(preset, 32)
    P = build_parametrix(para, V, 2.5)
    Phi, Psi, Lam = residual_operators(P)
    beam = [P.L2s()[0], Lam[0], *(X[0][0] for X in Phi + Psi),
            *(para._A0[1][i][i] for i in (0, 1))]
    assert all(b.shape == (g.n,) for b in beam)
    assert max(_array_sizes(P.beam, {id(g)})) == g.n


def test_cutoff_is_built_once_per_grid(monkeypatch):
    # the Bony-Weyl cutoff is held by the grid: the system, the parametrix
    # and its residuals quantize many symbols but evaluate chi once, on the
    # entries of its cone (about 13% of the n x n lattice), where it is
    # neither 1 nor 0
    calls = []
    original = beamwave.symbols.cutoff_chi

    def counting(xi):
        calls.append(np.shape(xi))
        return original(xi)

    monkeypatch.setattr(beamwave.symbols, "cutoff_chi", counting)
    g, para, V = coupled_setup(32)
    conjugation_residual(build_parametrix(para, V, 2.5), para, V)
    (cone,), = calls
    assert 0 < cone < 0.2 * g.n**2
    assert cone >= np.count_nonzero((g.chi_mask > 0.0) & (g.chi_mask < 1.0))


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records (first argument, result)
    of each call, and return the record."""
    calls, original = [], getattr(owner, name)

    def counting(first, *args):
        calls.append((first, original(first, *args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, counting)
    return calls


def _freed_on_return(calls, arrays):
    """Weak references to the arrays(result) of each recorded call, with the
    record dropped: each dies once no one else holds its array."""
    refs = [weakref.ref(a) for _, result in calls for a in arrays(result) if a is not None]
    calls.clear()
    gc.collect()
    return refs


def _blocks(ops):
    """The distinct arrays in nested tuples of blocks, None skipped."""
    if isinstance(ops, np.ndarray):
        return {id(ops): ops}
    return {k: b for op in ops if op is not None for k, b in _blocks(op).items()}


def test_psi_is_built_only_for_the_residuals(monkeypatch):
    # the energy never forms Psi (nor Lambda); one residual call forms them,
    # with Phi, D and D~, once but for their wave blocks (``_wave_cut``), and
    # frees every block on return: the parametrix holds none of them
    g, para, V = coupled_setup(32)
    built = _counting(monkeypatch, beamwave.parametrix, "residual_operators")
    P = build_parametrix(para, V, 2.5)
    modified_energy(*energy_operators(P), parity_split(V))
    equivalence_and_garding_report(para, V, 2.5, sample_count=4)
    assert built == []

    first = conjugation_residual(P, para, V)
    assert [c[0] for c in built] == [P]
    # the beam and coupling blocks of Phi and Psi, 4 each, and Lambda's 2
    refs = _freed_on_return(built, lambda r: _blocks(r).values())
    assert len(refs) == 10 and all(ref() is None for ref in refs)
    assert conjugation_residual(P, para, V) == first
    assert [c[0] for c in built] == [P]


def test_phi_and_l2s_are_formed_once_per_energy_report(monkeypatch):
    # the report forms Phi+- and L_{2s} once, for the samples' energy and the
    # Garding scan both, and frees them on return; the residual forms its
    # Phi with Psi (``residual_operators``), not through energy_operators
    g, para, V = coupled_setup(32)
    built = _counting(monkeypatch, beamwave.parametrix, "energy_operators")
    P = build_parametrix(para, V, 2.5)
    conjugation_residual(P, para, V)
    assert built == []

    first = equivalence_and_garding_report(para, V, 2.5, sample_count=4)
    assert len(built) == 1
    # Phi's 6 blocks (both coupling blocks formed here) and L_{2s}'s 2
    refs = _freed_on_return(built, lambda r: _blocks(r).values())
    assert len(refs) == 8 and all(ref() is None for ref in refs)
    assert equivalence_and_garding_report(para, V, 2.5, sample_count=4) == first
    assert len(built) == 1


def test_beam_d_tilde_is_built_only_for_the_residuals(monkeypatch):
    # D~_b enters Psi and the bare coupling blocks, never Phi: the energy
    # report never forms it, a residual call forms it once and frees it
    g, para, V = coupled_setup(32)
    built = _counting(monkeypatch, BeamDiagonalizer, "right_inverse")
    equivalence_and_garding_report(para, V, 2.5, sample_count=4)
    assert built == []

    P = build_parametrix(para, V, 2.5)
    first = conjugation_residual(P, para, V)
    assert [c[0] for c in built] == [P.beam]
    refs = _freed_on_return(built, lambda halves: halves)
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    assert conjugation_residual(P, para, V) == first
    assert [c[0] for c in built] == [P.beam]


@pytest.mark.parametrize("count", [0, -1])
def test_energy_report_refuses_no_samples(count, monkeypatch):
    # sample_count < 1 is a configuration error, raised before any sample is
    # drawn (numpy would raise on the empty or negative batch)
    g, para, V = coupled_setup(32)
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: drawn.append(a))
    with pytest.raises(ConfigError, match="sample_count"):
        equivalence_and_garding_report(para, V, 2.5, sample_count=count)
    assert drawn == []


def test_energy_report_refuses_a_grid_without_sample_modes(monkeypatch):
    # at N = 2 no mode 0 < k <= n/3 exists: the samples would be zero and the
    # Garding scan empty, so the report refuses the grid before any draw
    g = TorusGrid(2)
    sysm, fields = build_preset("headline", g)
    V = complexify(*fields).stacked()
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: drawn.append(a))
    with pytest.raises(PreconditionError, match="no mode 0 < k <= n/3"):
        equivalence_and_garding_report(ParalinearizedSystem(sysm, g), V, 2.5, sample_count=4)
    assert drawn == []


def test_energy_report_at_the_smallest_grid_with_a_sample_mode():
    # N = 4 keeps the mode k = 1: the report is finite
    g = TorusGrid(4)
    sysm, fields = build_preset("headline", g)
    rep = equivalence_and_garding_report(ParalinearizedSystem(sysm, g),
                                         complexify(*fields).stacked(), 2.5, sample_count=4)
    assert rep["n"] == 4 and rep["samples"] == 4
    assert all(np.isfinite(v) for k, v in rep.items() if k not in ("sigma", "n", "samples"))
