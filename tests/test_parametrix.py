"""Diagonalizers, parametrix, modified energy."""

from functools import cached_property

import numpy as np
import pytest

import beamwave.parametrix
import beamwave.symbols
from beamwave.bridge import BridgeSystem, QuadraticNonlinearity
from beamwave.cli import build_preset
from beamwave.errors import NumericalError, PreconditionError
from beamwave.grid import TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.parametrix import (
    BeamDiagonalizer,
    Parametrix,
    WaveDiagonalizer,
    _periodic_antiderivative,
    build_parametrix,
    build_T_correctors,
    conjugation_residual,
    equivalence_and_garding_report,
    modified_energy,
)
from beamwave.quantize import bony_weyl_quantize, exact_operator_norm
from beamwave.state import (
    complexify,
    conjugate_pair,
    parity_join,
    parity_split,
    stacked_inner,
    stacked_norm,
)
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol


def variable_b_system(n, amp=0.2):
    g = TorusGrid(n)
    b = transform(g, 1.0 + amp * np.cos(g.x))
    sys = BridgeSystem(g, b, 1.0)
    return g, sys, ParalinearizedSystem(sys, g)


def coupled_setup(n, amp=0.05):
    g = TorusGrid(n)
    F1 = QuadraticNonlinearity(g, [(1.0, 4, 5)])
    F2 = QuadraticNonlinearity(g, [(1.0, 2, 5), (0.5, 5, 5)])
    sys = BridgeSystem(g, transform(g, 1.0 + 0.2 * np.cos(g.x)), 1.0, F1=F1, F2=F2)
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
        BeamDiagonalizer(np.full(g.n, -0.7), g)


def test_subprincipal_vanishes_above_half():
    g, sys, para = variable_b_system(32)
    d = BeamDiagonalizer(para.a_fun, g)
    xi = np.linspace(0.5, 20.0, 64)
    assert np.max(np.abs(d.subprincipal_offdiagonal(xi))) == 0.0
    # and does not vanish identically below
    xi_low = np.array([0.35])
    assert np.max(np.abs(d.subprincipal_offdiagonal(xi_low))) > 0.0


def test_trivial_background_gauge_collapses():
    # a = 0: S = identity entries, k = 1, M_{-1} = 0, both halves of D_b = identity
    g = TorusGrid(16)
    d = BeamDiagonalizer(np.zeros(g.n), g)
    assert np.max(np.abs(d.k.values().real - 1.0)) < 1e-12
    assert np.max(np.abs(d.M_minus1)) == 0.0
    for half in d.D_b:
        assert np.max(np.abs(half - np.eye(g.n))) < 1e-12


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
    e1 = modified_energy(P, V)
    e2 = modified_energy(P, 2.0 * V)
    assert abs(e2 - 4.0 * e1) < 1e-8 * max(abs(e1), 1.0)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _pair(A, B):
    """The stacked symmetric pair [[A, B], [B, A]] of n x n blocks."""
    return np.block([[A, B], [B, A]])


def _beam_wave(B, W):
    zero = np.zeros_like(B)
    return np.block([[B, zero], [zero, W]])


def _preset_setup(preset, n):
    g = TorusGrid(n)
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
        return bony_weyl_quantize(SeparableSymbol.from_xfunc(f, mult))

    b, w = P.beam, P.wave
    zero, one = np.zeros((n, n)), np.eye(n)
    S1, S2, K = quantized(b.s1_b), quantized(b.s2_b), quantized(b.k)
    K_inv = quantized(transform(g, 1.0 / b.k.values().real))
    M = _pair(zero, b.M_minus1)
    D_b = _pair(K_inv, zero) @ (np.eye(2 * n) + M) @ _pair(S1, -S2)
    Dt_b = _pair(S1, S2) @ (np.eye(2 * n) - M) @ _pair(K, zero)
    S1w, S2w = quantized(w.s1_w), quantized(w.s2_w)
    D, Dt = _beam_wave(D_b, _pair(S1w, -S2w)), _beam_wave(Dt_b, _pair(S1w, S2w))
    a, _, _, g_12b, g_12w = para.g_functions(V)
    t_b, t_w = (bony_weyl_quantize(t) for t in build_T_correctors(a, g_12b, g_12w))
    T = np.zeros_like(D)
    T[: 2 * n, 2 * n :], T[2 * n :, : 2 * n] = _pair(t_b, t_b), _pair(-t_w, t_w)
    eye = np.eye(4 * n)

    minus_iE = np.diag(np.tile(np.repeat([-1j, 1j], n), 2))
    Lam = minus_iE @ _beam_wave(
        _pair(quantized(b.lam_b, FrequencyMultiplier.xi_power(2)), zero),
        _pair(quantized(w.lam_w, FrequencyMultiplier.abs_xi()), zero),
    )
    abs5 = FrequencyMultiplier.abs_xi_power(5.0)
    W = _beam_wave(_pair(quantized(transform(g, b.lam_b.values().real ** 2.5), abs5), zero),
                   _pair(quantized(transform(g, w.lam_w.values().real ** 5.0), abs5), zero))

    def bw_pair(parts):
        p, q = parts
        Q = bony_weyl_quantize(q)
        Pm = 0.0 if p is None else bony_weyl_quantize(SeparableSymbol.from_multiplier(g, p))
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
        for name in ("Phi", "Psi"):
            halves = getattr(P, name)
            got = parity_join(*(u @ h.T for h, u in zip(halves, split))).T
            assert _rel(got, dense[name]) <= 1e-14, name
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
        assert _rel(P.phi(vec), dense["Phi"] @ vec) <= 1e-14
        assert _rel(P.l2s(vec), dense["L2s"] @ vec) <= 1e-14


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

        def norm(mat, s_out=s):
            return exact_operator_norm(g, mat, s, s_out, band="resolved")

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


def test_parametrix_halves_carry_one_coupling_block_each():
    # T+ has only a beam-wave block and T- only a wave-beam block, so the
    # other coupling block of Phi+-, Psi+- is exactly zero
    g, para, V = _preset_setup("mixed", 32)
    P = build_parametrix(para, V, 2.5)
    n = g.n
    (phi_p, phi_m), (psi_p, psi_m) = P.Phi, P.Psi
    for absent in (phi_p[n:, :n], phi_m[:n, n:], psi_p[n:, :n], psi_m[:n, n:]):
        assert not np.any(absent)
    for carried in (phi_p[:n, n:], phi_m[n:, :n], psi_p[:n, n:], psi_m[n:, :n]):
        assert np.max(np.abs(carried)) > 0.0


def _per_vector_report(para, V, sigma, sample_count, seed):
    """The constants of equivalence_and_garding_report, one vector at a time."""
    grid = para.grid
    n = grid.n
    P = build_parametrix(para, V, sigma)
    rng = np.random.default_rng(seed)
    decay = grid.bracket_power(-(sigma + 1.0))
    upper, lower = [], []
    for _ in range(sample_count):
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * decay
        z[[0, n // 2]] = w[[0, n // 2]] = 0.0
        vec = conjugate_pair(grid, z, w)
        nsq = stacked_norm(grid, vec, sigma) ** 2
        energy = modified_energy(P, vec)
        upper.append(energy / nsq)
        lower.append(energy / max(nsq - stacked_norm(grid, vec, -2.0) ** 2, 1e-300))
    j = grid.modes.astype(float)
    delta = np.concatenate([j**4, j**4, j**2, j**2])
    eye, zero, zeros = np.eye(n, dtype=complex), np.zeros(n, dtype=complex), np.zeros(2 * n)
    defects = []
    for k in range(1, grid.dealias_cut + 1):
        for zw in ((eye[k], zero), (zero, eye[k])):
            vec = conjugate_pair(grid, *zw)
            lhs = stacked_inner(grid, P.l2s(P.phi(delta * vec)), P.phi(vec), 0.0)
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


@pytest.mark.parametrize("preset", ["headline", "mixed"])
def test_batched_energy_report_matches_per_vector_reference(preset):
    for n in (32, 64):
        g, para, V = _preset_setup(preset, n)
        got = equivalence_and_garding_report(para, V, 2.5, sample_count=20, seed=5)
        for key, ref in _per_vector_report(para, V, 2.5, 20, 5).items():
            assert abs(got[key] - ref) <= 1e-13 * abs(ref), (key, n, got[key], ref)


def test_phi_l2s_and_energy_act_on_a_batch_vector_by_vector():
    g, para, V = _preset_setup("mixed", 32)
    P = build_parametrix(para, V, 2.5)
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((5, 4 * g.n)) + 1j * rng.standard_normal((5, 4 * g.n))
    for apply in (P.phi, P.l2s):
        got = apply(batch)
        assert got.shape == batch.shape
        for row, vec in zip(got, batch):
            assert _rel(row, apply(vec)) <= 1e-14
    energies = modified_energy(P, batch)
    assert energies.shape == (5,)
    for e, vec in zip(energies, batch):
        assert abs(e - modified_energy(P, vec)) <= 1e-14 * abs(e)


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


def test_parametrix_holds_no_array_larger_than_a_half_block():
    # operators are held by their parity halves, 2n x 2n over (beam, wave);
    # neither the parametrix nor the system holds a 4n x 4n array
    g, para, V = coupled_setup(32)
    P = build_parametrix(para, V, 2.5)
    assert max(_array_sizes(P, set())) == (2 * g.n) ** 2
    assert max(_array_sizes(para, set())) == (2 * g.n) ** 2


def test_cutoff_is_built_once_per_grid(monkeypatch):
    # the Bony-Weyl cutoff is held by the grid: the system, the parametrix
    # and its residuals quantize many symbols but evaluate chi once
    calls = []
    original = beamwave.symbols.cutoff_chi

    def counting(xi):
        calls.append(np.shape(xi))
        return original(xi)

    monkeypatch.setattr(beamwave.symbols, "cutoff_chi", counting)
    g, para, V = coupled_setup(32)
    conjugation_residual(build_parametrix(para, V, 2.5), para, V)
    assert calls == [(g.n, g.n)]


def test_psi_is_built_only_for_the_residuals(monkeypatch):
    g, para, V = coupled_setup(32)
    built = []
    original = Parametrix.Psi.func

    def counting(self):
        built.append(self)
        return original(self)

    psi = cached_property(counting)
    psi.__set_name__(Parametrix, "Psi")
    monkeypatch.setattr(Parametrix, "Psi", psi)
    P = build_parametrix(para, V, 2.5)
    modified_energy(P, V)
    assert "Psi" not in vars(P)

    reports = []

    def keeping(*args):
        reports.append(Parametrix(*args))
        return reports[-1]

    monkeypatch.setattr(beamwave.parametrix, "build_parametrix", keeping)
    equivalence_and_garding_report(para, V, 2.5, sample_count=4)
    assert len(reports) == 1 and "Psi" not in vars(reports[0])
    assert built == []

    first = conjugation_residual(P, para, V)
    assert conjugation_residual(P, para, V) == first
    assert built == [P]
