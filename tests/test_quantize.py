"""Quantization matrices, operator norms, calculus residuals."""

import numpy as np
import pytest

from beamwave.grid import TorusGrid, transform
from beamwave.quantize import (
    bony_weyl_quantize,
    composition_residual,
    exact_operator_norm,
    pair,
    remainder_bw_minus_weyl,
    weighted_matrix,
    weyl_quantize,
)
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol


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
    W = weyl_quantize(a)
    BW = bony_weyl_quantize(a)
    assert np.max(np.abs(np.diag(W) - np.diag(BW))) == 0.0


def test_bony_weyl_kills_high_spatial_frequencies():
    # chi vanishes when |j - k| >= 1.9 eps <j + k>; a pure high-frequency
    # coefficient against a low-frequency function leaves nothing
    g = TorusGrid(64)
    a = SeparableSymbol.from_xfunc(transform(g, np.cos(20 * g.x)))
    BW = bony_weyl_quantize(a)
    # entry (j, k) with j - k = +-20 survives only if <j+k> > 20/(1.9*0.5)
    j, k = 12, -8  # j - k = 20, <j + k> = <4> ~ 4.1 -> cutoff argument ~ 4.8
    assert abs(BW[j % 64, k % 64]) == 0.0


def test_weyl_self_adjoint_for_real_symbol():
    g = TorusGrid(32)
    a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
    W = weyl_quantize(a)
    assert np.max(np.abs(W - W.conj().T)) < 1e-12


def test_pair_fills_symmetric_block_layout():
    # [[A, B], [B, A]]; a scalar B is a zero off-diagonal block, and the
    # blocks act on (u, v) as (Au + Bv, Bu + Av)
    n = 8
    rng = np.random.default_rng(0)
    A, B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    M = pair(A, B)
    assert M.shape == (2 * n, 2 * n) and M.dtype == complex
    assert np.array_equal(M, np.block([[A, B], [B, A]]))
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(M @ np.concatenate([u, v]), np.concatenate([A @ u + B @ v, B @ u + A @ v]))
    assert np.array_equal(pair(A, 0.0), np.kron(np.eye(2), A))
    assert np.array_equal(pair(0.0, B), np.kron(np.ones((2, 2)) - np.eye(2), B))


def test_operator_norm_diagonal_exact():
    # H^2 -> H^0 norm of <D>^2 is exactly 1 on 1, 2 and 4 components; the
    # component count comes from the matrix side
    g = TorusGrid(16)
    for components in (1, 2, 4):
        M = np.diag(np.tile(g.brackets**2, components))
        assert abs(exact_operator_norm(g, M, 2.0, 0.0) - 1.0) < 1e-12


def test_matrix_not_a_stack_of_components_is_refused():
    g = TorusGrid(16)
    for M in (np.eye(g.n + 1), np.eye(3 * g.n - 2), np.ones((g.n, 2 * g.n)), np.eye(4)):
        with pytest.raises(ValueError, match="not a stack of components"):
            exact_operator_norm(g, M, 0.0, 0.0)


def test_resolved_band_restriction():
    g = TorusGrid(32)
    eye = np.eye(g.n)
    W = weighted_matrix(g, eye, 0.0, 0.0, band="resolved")
    keep = 2 * g.dealias_cut + 1
    assert W.shape == (keep, keep)
    with pytest.raises(ValueError):
        weighted_matrix(g, eye, 0.0, 0.0, band="junk")


def test_remainder_bw_minus_weyl_two_smoothing():
    # Op^W - Op^BW maps H^s -> H^{s+2} with an N-stable norm
    norms = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
        norms.append(exact_operator_norm(g, remainder_bw_minus_weyl(a), 2.0, 4.0, band="resolved"))
    assert max(norms) / min(norms) < 1.25


def test_composition_residual_stable():
    norms = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        a = SeparableSymbol.from_xfunc(transform(g, np.cos(g.x)))
        b = SeparableSymbol(g, [(transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(2))])
        norms.append(
            exact_operator_norm(g, composition_residual(a, b, 2.0), 2.0, 2.0, band="resolved")
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
        )
        for fn in (np.cos, np.sin)
    ]
    assert np.max(np.abs(ops[0] - ops[1])) > 1.0
