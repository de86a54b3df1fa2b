"""Grid, transforms, norms, and the complexification layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamwave.grid import SpectralFunction, TorusGrid, grid_product, transform
from beamwave.state import (
    StateVector,
    complex_weights,
    complexify,
    conjugate_pair,
    is_conjugate_pair,
    real_from_stacked,
    real_norm_weights,
    stacked_from_real,
    stacked_norm,
)
from conftest import parity_split

_RT2 = np.sqrt(2.0)


def parity_join(p, m):
    """The inverse of ``conftest.parity_split``: halves p, m (..., 2n) -> stacked
    (..., 4n), for the dense references of the tests."""
    (p_b, p_w), (m_b, m_w) = np.split(p, 2, axis=-1), np.split(m, 2, axis=-1)
    return np.concatenate([p_b + m_b, p_b - m_b, p_w + m_w, p_w - m_w], axis=-1) / _RT2


def stacked_inner(grid, u, v, s=0.0):
    """<U, V> block pairing on stacked vectors (..., 4n) (real for conjugate
    pairs): (1/2) sum over the four components of the H^s pairing."""
    w = grid.bracket_power(s) ** 2
    shape = np.shape(u)[:-1] + (4, grid.n)
    per_component = np.sum(np.reshape(u, shape) * np.conj(np.reshape(v, shape)) * w, axis=-1)
    return sum(np.moveaxis(0.5 * per_component, -1, 0)).real


def sobolev_norm(u, s):
    """||u||_{H^s} = sqrt(sum |uhat(j)|^2 <j>^{2s}) of a SpectralFunction."""
    w = u.grid.bracket_power(s)
    return float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2 * w**2)))


def check_tame_and_interpolation(u, v, s, s0, theta):
    """Both sides of the tame-product inequality in H^s over H^{s0} and of
    the interpolation inequality at s_mid = theta s + (1 - theta) s0."""
    uv = grid_product(u, v)
    tame_lhs = sobolev_norm(uv, s)
    tame_rhs = sobolev_norm(u, s) * sobolev_norm(v, s0) + sobolev_norm(u, s0) * sobolev_norm(v, s)
    s_mid = theta * s + (1.0 - theta) * s0
    interp_lhs = sobolev_norm(u, s_mid)
    interp_rhs = sobolev_norm(u, s) ** theta * sobolev_norm(u, s0) ** (1.0 - theta)
    return {
        "tame_lhs": tame_lhs,
        "tame_rhs": tame_rhs,
        "interp_lhs": interp_lhs,
        "interp_rhs": interp_rhs,
    }


def random_real_function(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n)
    return transform(grid, vals)


def test_grid_requires_even_positive_n():
    with pytest.raises(ValueError):
        TorusGrid(0)
    with pytest.raises(ValueError):
        TorusGrid(33)


def test_modes_and_brackets():
    g = TorusGrid(8)
    assert set(g.modes.tolist()) == {0, 1, 2, 3, -4, -3, -2, -1}
    assert np.allclose(g.brackets, np.sqrt(1.0 + g.modes.astype(float) ** 2))
    assert g.dealias_cut == 2


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_transform_roundtrip(seed):
    g = TorusGrid(32)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.n)
    u = transform(g, vals)
    # the unpaired Nyquist mode is zeroed for real inputs; compare after
    # projecting the input the same way
    back = u.values().real
    u2 = transform(g, back)
    assert np.max(np.abs(u2.coeffs - u.coeffs)) < 1e-12


def test_single_mode_norm():
    g = TorusGrid(16)
    j = 3
    u = transform(g, np.cos(j * g.x))
    # cos(jx) = (e^{ijx} + e^{-ijx})/2
    expect = np.sqrt(2.0 * 0.25 * (1.0 + j**2) ** 1.5)
    assert abs(sobolev_norm(u, 1.5) - expect) < 1e-12


def test_derivative_is_spectral():
    g = TorusGrid(32)
    u = transform(g, np.sin(3 * g.x))
    du = u.deriv()
    assert np.max(np.abs(du.values().real - 3 * np.cos(3 * g.x))) < 1e-12


@given(seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_tame_and_interpolation_inequalities(seed):
    g = TorusGrid(32)
    u = random_real_function(g, seed)
    v = random_real_function(g, seed + 10_000)
    rep = check_tame_and_interpolation(u, v, s=2.0, s0=1.0, theta=0.5)
    assert rep["tame_lhs"] <= rep["tame_rhs"] * (1.0 + 1e-12)
    assert rep["interp_lhs"] <= rep["interp_rhs"] * (1.0 + 1e-12)


def test_complexify_realify_roundtrip():
    g = TorusGrid(32)
    fields = tuple(random_real_function(g, k) for k in range(4))
    V = complexify(*fields)
    back = real_from_stacked(g, V.stacked())
    for a, b in zip(fields, back):
        assert np.max(np.abs(a.coeffs - b)) < 1e-12
    assert is_conjugate_pair(g, V.stacked(), 1e-10)


def test_stacked_real_maps_are_inverse_off_conjugate_pairs():
    g = TorusGrid(32)
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(4 * g.n) + 1j * rng.standard_normal(4 * g.n)
    assert not is_conjugate_pair(g, vec, 1e-10)
    back = stacked_from_real(g, *real_from_stacked(g, vec))
    assert np.max(np.abs(back - vec)) < 1e-14 * np.max(np.abs(vec))
    parts = tuple(rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(4))
    for a, b in zip(parts, real_from_stacked(g, stacked_from_real(g, *parts))):
        assert np.max(np.abs(a - b)) < 1e-14 * np.max(np.abs(a))


def test_stacked_from_real_matches_complexify_on_real_fields():
    g = TorusGrid(32)
    fields = tuple(random_real_function(g, k) for k in range(4))
    vec = stacked_from_real(g, *(u.coeffs for u in fields))
    ref = complexify(*fields).stacked()
    assert np.max(np.abs(vec - ref)) < 1e-15 * np.max(np.abs(ref))


def test_stacked_norm_matches_component_norms():
    g = TorusGrid(16)
    fields = tuple(random_real_function(g, k) for k in range(4))
    V = complexify(*fields)
    vec = V.stacked()
    total = 0.0
    n = g.n
    for c in range(4):
        u = SpectralFunction(g, vec[c * n : (c + 1) * n])
        total += 0.5 * sobolev_norm(u, 1.5) ** 2
    assert abs(stacked_norm(g, vec, 1.5) - np.sqrt(total)) < 1e-12


def test_batched_stacked_norm_equals_per_vector_norms():
    # one call over a trajectory (and over extra leading axes) gives each
    # node's norm bit for bit, as a float per vector and an array per batch
    g = TorusGrid(32)
    rng = np.random.default_rng(5)
    traj = rng.standard_normal((3, 7, 4 * g.n)) + 1j * rng.standard_normal((3, 7, 4 * g.n))
    for s in (0.0, 1.5, 2.5):
        batched = stacked_norm(g, traj, s)
        assert batched.shape == (3, 7)
        single = [[stacked_norm(g, v, s) for v in row] for row in traj]
        assert isinstance(single[0][0], float)
        assert np.array_equal(batched, np.array(single))


def test_real_norm_weights_give_the_stacked_norm_off_conjugate_pairs_too():
    g = TorusGrid(32)
    rng = np.random.default_rng(6)
    u = rng.standard_normal((4, g.n)) + 1j * rng.standard_normal((4, g.n))
    for s in (0.0, 1.5, 2.5):
        direct = np.sqrt(np.sum(real_norm_weights(g, s) * np.abs(u) ** 2))
        assert abs(direct - stacked_norm(g, stacked_from_real(g, *u), s)) <= 1e-14 * direct


def test_parity_halves_round_trip_and_carry_the_real_state():
    # p = D (y, theta), m = i D^{-1} (y_t, theta_t); the change is orthogonal,
    # so joining the halves returns the vector to within one rounding and
    # every H^s norm is kept
    g = TorusGrid(32)
    rng = np.random.default_rng(6)
    vec = rng.standard_normal((5, 4 * g.n)) + 1j * rng.standard_normal((5, 4 * g.n))
    p, m = parity_split(vec)
    assert p.shape == m.shape == (5, 2 * g.n)
    back = parity_join(p, m)
    assert np.max(np.abs(back - vec)) <= 2 * np.finfo(float).eps * np.max(np.abs(vec))
    w = np.tile(g.bracket_power(1.5) ** 2, 2)
    halves = np.sqrt(0.5 * np.sum((np.abs(p) ** 2 + np.abs(m) ** 2) * w, axis=-1))
    assert np.allclose(halves, stacked_norm(g, vec, 1.5), rtol=1e-14, atol=0.0)
    y, y_t, th, th_t = rng.standard_normal((4, g.n)) + 1j * rng.standard_normal((4, g.n))
    p, m = parity_split(stacked_from_real(g, y, y_t, th, th_t))
    D = np.concatenate(complex_weights(g))
    assert np.allclose(p, D * np.concatenate([y, th]), rtol=1e-14, atol=1e-14)
    assert np.allclose(m, 1j * np.concatenate([y_t, th_t]) / D, rtol=1e-14, atol=1e-14)


def test_parity_split_is_its_formula_bit_for_bit():
    # p = (z + zbar, w + wbar)/sqrt2, m = (z - zbar, w - wbar)/sqrt2, written
    # into one output with the same arithmetic, on one vector and on a batch
    g = TorusGrid(16)
    n = g.n
    rng = np.random.default_rng(8)
    for shape in ((4 * n,), (3, 2, 4 * n)):
        vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z, zb, w, wb = (vec[..., i * n:(i + 1) * n] for i in range(4))
        expect = (np.concatenate([z + zb, w + wb], axis=-1) / np.sqrt(2.0),
                  np.concatenate([z - zb, w - wb], axis=-1) / np.sqrt(2.0))
        for got, ref in zip(parity_split(vec), expect):
            assert got.shape == ref.shape and np.array_equal(got, ref)


def test_symmetric_pairs_split_into_even_and_odd_halves():
    # [[A, B], [B, A]] acts as A + B on p and A - B on m; -iE times it, E =
    # diag(1, -1), maps m -> p by -i(A - B) and p -> m by -i(A + B)
    g = TorusGrid(8)
    n = g.n
    rng = np.random.default_rng(7)
    A_b, B_b, A_w, B_w = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                          for _ in range(4))
    zero = np.zeros((n, n))
    pairs = np.block([[A_b, B_b, zero, zero], [B_b, A_b, zero, zero],
                      [zero, zero, A_w, B_w], [zero, zero, B_w, A_w]])
    E = np.diag(np.repeat([1.0, -1.0, 1.0, -1.0], n))

    def blockdiag(b, w):
        return np.block([[b, zero], [zero, w]])

    vec = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
    p, m = parity_split(vec)
    got = parity_join(blockdiag(A_b + B_b, A_w + B_w) @ p, blockdiag(A_b - B_b, A_w - B_w) @ m)
    assert np.allclose(got, pairs @ vec, rtol=0.0, atol=1e-13)
    pm, mp = -1j * blockdiag(A_b - B_b, A_w - B_w), -1j * blockdiag(A_b + B_b, A_w + B_w)
    got = parity_join(pm @ m, mp @ p)
    assert np.allclose(got, -1j * E @ pairs @ vec, rtol=0.0, atol=1e-13)


def test_stacked_inner_real_for_conjugate_pairs():
    g = TorusGrid(16)
    V = complexify(*(random_real_function(g, k) for k in range(4)))
    W = complexify(*(random_real_function(g, k + 7) for k in range(4)))
    val = stacked_inner(g, V.stacked(), W.stacked(), 1.0)
    assert isinstance(val, float)
    # polarization: <V, V> equals the squared norm
    same = stacked_inner(g, V.stacked(), V.stacked(), 1.0)
    assert abs(same - stacked_norm(g, V.stacked(), 1.0) ** 2) < 1e-10


def test_state_vector_stack_unstack():
    g = TorusGrid(16)
    V = complexify(*(random_real_function(g, k) for k in range(4)))
    vec = V.stacked()
    W = StateVector(g, vec[: g.n], vec[2 * g.n : 3 * g.n])
    assert np.max(np.abs(W.z - V.z)) == 0.0
    assert np.max(np.abs(W.w - V.w)) == 0.0


def test_complexify_stacks_the_z_and_w_quarters_of_stacked_from_real():
    # the stacked V that the CLI and the benchmark start from, bit for bit
    g = TorusGrid(32)
    fields = [random_real_function(g, k) for k in range(4)]
    z, _, w, _ = np.split(stacked_from_real(g, *(f.coeffs for f in fields)), 4)
    assert np.array_equal(complexify(*fields).stacked(), conjugate_pair(g, z, w))
