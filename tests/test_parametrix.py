"""Diagonalizers, parametrix, modified energy."""

import numpy as np
import pytest

from beamwave.bridge import BridgeSystem, QuadraticNonlinearity
from beamwave.cli import build_preset
from beamwave.errors import NumericalError, PreconditionError
from beamwave.grid import TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.parametrix import (
    BeamDiagonalizer,
    WaveDiagonalizer,
    _periodic_antiderivative,
    build_parametrix,
    build_T_correctors,
    conjugation_residual,
    dense_operators,
    equivalence_and_garding_report,
    modified_energy,
)
from beamwave.quantize import bony_weyl_quantize
from beamwave.state import complexify
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
    # a = 0: S = identity entries, k = 1, M_{-1} = 0, D_b = identity
    g = TorusGrid(16)
    d = BeamDiagonalizer(np.zeros(g.n), g)
    assert np.max(np.abs(d.k.values().real - 1.0)) < 1e-12
    assert np.max(np.abs(d.M_minus1.matrix)) == 0.0
    assert np.max(np.abs(d.D_b.matrix - np.eye(2 * g.n))) < 1e-12


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


@pytest.mark.parametrize("preset", ["mixed", "arioli_gazzola"])
def test_blocked_parametrix_matches_dense_formula(preset):
    # Phi = D(1 + T), Psi = (1 - T)D~, Lambda and L_{2s} assembled densely
    # here from the diagonalizers and the quantized T_1, T_2
    for n in (32, 64):
        g = TorusGrid(n)
        sysm, fields = build_preset(preset, g)
        para = ParalinearizedSystem(sysm, g)
        V = complexify(*fields).stacked()
        P = build_parametrix(para, V, 2.5)
        h = 2 * n
        D = np.zeros((2 * h, 2 * h), dtype=complex)
        Dt = np.zeros_like(D)
        T = np.zeros_like(D)
        D[:h, :h], D[h:, h:] = P.beam.D_b.matrix, P.wave.D_w.matrix
        Dt[:h, :h], Dt[h:, h:] = P.beam.D_tilde_b.matrix, P.wave.D_tilde_w.matrix
        T[:h, h:], T[h:, :h] = (bony_weyl_quantize(t).matrix for t in build_T_correctors(para, V))
        assert (np.max(np.abs(T)) > 0.0) == (preset == "mixed")
        eye = np.eye(2 * h)

        def quantized(f, mult):
            return bony_weyl_quantize(SeparableSymbol(g, [(f, mult)])).matrix

        beam, wave = np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])
        minus_iE = np.diag(np.tile(np.repeat([-1j, 1j], n), 2))
        Lam = minus_iE @ (
            np.kron(beam, quantized(P.beam.lam_b, FrequencyMultiplier.xi_power(2)))
            + np.kron(wave, quantized(P.wave.lam_w, FrequencyMultiplier.abs_xi()))
        )
        lb = transform(g, P.beam.lam_b.values().real ** 2.5)
        lw = transform(g, P.wave.lam_w.values().real ** 5.0)
        abs5 = FrequencyMultiplier.abs_xi_power(5.0)
        W = np.kron(beam, quantized(lb, abs5)) + np.kron(wave, quantized(lw, abs5))

        Phi, Psi, _, _, Lam_dense = dense_operators(P)
        assert _rel(Phi, D @ (eye + T)) <= 1e-14
        assert _rel(Psi, (eye - T) @ Dt) <= 1e-14
        assert _rel(Lam_dense, Lam) <= 1e-14
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(2 * h) + 1j * rng.standard_normal(2 * h)
        assert _rel(P.phi(vec), D @ (eye + T) @ vec) <= 1e-14
        assert _rel(P.l2s(vec), W @ vec) <= 1e-14


def _array_sizes(obj, seen):
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value.size
        elif hasattr(value, "__dict__") and id(value) not in seen:
            seen.add(id(value))
            yield from _array_sizes(value, seen)


def test_parametrix_holds_no_array_larger_than_a_half_block():
    # beam and wave blocks are 2n x 2n; the 4n x 4n products are formed
    # only by the residual diagnostics
    g, para, V = coupled_setup(32)
    P = build_parametrix(para, V, 2.5)
    assert max(_array_sizes(P, set())) == (2 * g.n) ** 2
