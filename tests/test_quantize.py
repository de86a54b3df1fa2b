"""Quantization matrices, operator norms, calculus residuals."""

import numpy as np
import pytest

from beamwave.grid import TorusGrid, transform
from beamwave.quantize import (
    SpectralOperator,
    bony_weyl_quantize,
    composition_residual,
    estimate_operator_norm,
    exact_operator_norm,
    remainder_bw_minus_weyl,
    save_operator,
    weyl_quantize,
)
from beamwave.symbols import FrequencyMultiplier, MatrixSymbol, SeparableSymbol


def test_weyl_of_xfunc_is_exact_multiplication():
    g = TorusGrid(32)
    f = transform(g, 1.0 + 0.3 * np.cos(g.x) + 0.1 * np.sin(2 * g.x))
    op = weyl_quantize(SeparableSymbol.from_xfunc(f))
    u = transform(g, np.sin(5 * g.x))
    exact = transform(g, f.values().real * np.sin(5 * g.x))
    assert np.max(np.abs(op @ u.coeffs - exact.coeffs)) < 1e-12


def test_weyl_of_i_xi_is_ddx():
    g = TorusGrid(32)
    op = weyl_quantize(SeparableSymbol.from_multiplier(g, FrequencyMultiplier.xi_power(1)))
    u = transform(g, np.sin(3 * g.x) + np.cos(7 * g.x))
    assert np.max(np.abs(1j * (op @ u.coeffs) - u.deriv().coeffs)) < 1e-12


def test_bony_weyl_equals_weyl_on_diagonal():
    g = TorusGrid(32)
    a = SeparableSymbol(g, [(transform(g, np.cos(3 * g.x)), FrequencyMultiplier.xi_power(2))])
    W = weyl_quantize(a).matrix
    BW = bony_weyl_quantize(a).matrix
    assert np.max(np.abs(np.diag(W) - np.diag(BW))) == 0.0


def test_bony_weyl_kills_high_spatial_frequencies():
    # chi vanishes when |j - k| >= 1.9 eps <j + k>; a pure high-frequency
    # coefficient against a low-frequency function leaves nothing
    g = TorusGrid(64)
    a = SeparableSymbol.from_xfunc(transform(g, np.cos(20 * g.x)))
    BW = bony_weyl_quantize(a).matrix
    # entry (j, k) with j - k = +-20 survives only if <j+k> > 20/(1.9*0.5)
    j, k = 12, -8  # j - k = 20, <j + k> = <4> ~ 4.1 -> cutoff argument ~ 4.8
    assert abs(BW[j % 64, k % 64]) == 0.0


def test_weyl_self_adjoint_for_real_symbol():
    g = TorusGrid(32)
    a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
    W = weyl_quantize(a).matrix
    assert np.max(np.abs(W - W.conj().T)) < 1e-12


def test_matrix_symbol_quantization_blocks():
    g = TorusGrid(16)
    E = MatrixSymbol.E(g)
    op = weyl_quantize(E)
    assert op.block == 2
    assert np.allclose(op.component_block(0, 0), np.eye(g.n))
    assert np.allclose(op.component_block(1, 1), -np.eye(g.n))
    assert np.max(np.abs(op.component_block(0, 1))) == 0.0


def test_operator_norm_diagonal_exact():
    g = TorusGrid(16)
    op = SpectralOperator.from_multiplier_diag(g, g.brackets**2)
    # H^2 -> H^0 norm of <D>^2 is exactly 1
    assert abs(exact_operator_norm(op, 2.0, 0.0) - 1.0) < 1e-12
    assert abs(estimate_operator_norm(op, 2.0, 0.0) - 1.0) < 1e-6


def test_power_iteration_matches_svd():
    g = TorusGrid(24)
    a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.bracket(1.0))])
    op = weyl_quantize(a)
    e1 = exact_operator_norm(op, 1.0, 0.0)
    e2 = estimate_operator_norm(op, 1.0, 0.0)
    assert abs(e1 - e2) < 1e-5 * e1


def test_resolved_band_restriction():
    g = TorusGrid(32)
    op = SpectralOperator.identity(g)
    from beamwave.quantize import weighted_matrix

    W = weighted_matrix(op, 0.0, 0.0, band="resolved")
    keep = 2 * g.dealias_cut + 1
    assert W.shape == (keep, keep)
    with pytest.raises(ValueError):
        weighted_matrix(op, 0.0, 0.0, band="junk")


def test_remainder_bw_minus_weyl_two_smoothing():
    # Op^W - Op^BW maps H^s -> H^{s+2} with an N-stable norm
    norms = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
        norms.append(exact_operator_norm(remainder_bw_minus_weyl(a), 2.0, 4.0, band="resolved"))
    assert max(norms) / min(norms) < 1.25


def test_composition_residual_stable():
    norms = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        a = SeparableSymbol.from_xfunc(transform(g, np.cos(g.x)))
        b = SeparableSymbol(g, [(transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(2))])
        norms.append(
            exact_operator_norm(composition_residual(a, b, 2.0), 2.0, 2.0, band="resolved")
        )
    assert max(norms) / min(norms) < 1.25


def test_quantize_cache_key_is_exact_under_hash_collisions(monkeypatch):
    # every Python hash() seen by the symbol modules collides: quantization
    # must still tell cos(x) xi^2 from sin(x) xi^2
    import beamwave.grid
    import beamwave.symbols

    monkeypatch.setattr(beamwave.symbols, "hash", lambda _: 0, raising=False)
    monkeypatch.setattr(beamwave.grid, "hash", lambda _: 0, raising=False)
    g = TorusGrid(16)
    ops = [
        bony_weyl_quantize(
            SeparableSymbol(g, [(transform(g, fn(g.x)), FrequencyMultiplier.xi_power(2))])
        ).matrix
        for fn in (np.cos, np.sin)
    ]
    assert np.max(np.abs(ops[0] - ops[1])) > 1.0


def test_save_operator(tmp_path):
    g = TorusGrid(8)
    op = SpectralOperator.identity(g)
    base = tmp_path / "op"
    save_operator(op, base, symbol_fingerprint="id")
    M = np.load(str(base) + ".npy")
    assert np.allclose(M, np.eye(8))
    text = (tmp_path / "op.txt").read_text()
    assert "grid_n: 8" in text and "symbol_fingerprint: id" in text
