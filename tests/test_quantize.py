"""Quantization matrices, operator norms, calculus residuals."""

import numpy as np
import pytest

import beamwave.paralin as paralin
import beamwave.parametrix as parametrix
import beamwave.quantize as quantize
from beamwave.cli import PRESETS, build_preset
from beamwave.grid import SpectralFunction, TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.quantize import (
    bony_weyl_quantize,
    composition_residual,
    exact_operator_norm,
    remainder_bw_minus_weyl,
    weighted_matrix,
    weyl_quantize,
    weyl_table,
)
from beamwave.state import complex_weights, complexify
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol, cutoff_chi, sharp_rho


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


def test_restricting_before_weighting_is_exact():
    # the band restriction and the diagonal weights commute entry by entry,
    # and a matrix formed on the band alone is weighted by the same path
    g = TorusGrid(32)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2 * g.n, 2 * g.n)) + 1j * rng.standard_normal((2 * g.n, 2 * g.n))
    keep = np.tile(g.dealias_mask, 2)
    for s_in, s_out in ((2.5, 2.5), (2.5, 4.5), ([1.0, 2.0], [3.0, 0.5])):
        full = weighted_matrix(g, M, s_in, s_out)
        got = weighted_matrix(g, M, s_in, s_out, band="resolved")
        assert np.array_equal(got, full[np.ix_(keep, keep)])
        on_band = weighted_matrix(g, M[np.ix_(keep, keep)], s_in, s_out, band="restricted")
        assert np.array_equal(on_band, got)
    with pytest.raises(ValueError, match="not a stack of components"):
        weighted_matrix(g, M, 0.0, 0.0, band="restricted")


def _lattice(g):
    """The mode lattice (j - k, j + k) over the slots (j, k), int64, which the
    grid forms only while it builds its masks."""
    J = g.modes
    return J[:, None] - J[None, :], J[:, None] + J[None, :]


def _closed_chi(g):
    """chi_eps(|j - k| / <j + k>) by one call of cutoff_chi on the whole
    lattice; the unpaired mode -n/2 keeps chi_eps(0) = 1 on the diagonal and
    nothing off it."""
    D, S = _lattice(g)
    chi = cutoff_chi(np.abs(D) / np.sqrt(1.0 + S.astype(float) ** 2))
    off = g.modes != -(g.n // 2)
    chi[g.n // 2, off] = chi[off, g.n // 2] = 0.0
    return chi


def test_grid_lattice_arrays_are_held_read_only():
    # the grid holds chi and the in-range mask, 9 bytes an entry, and not
    # the int64 lattice they are read from
    g = TorusGrid(16)
    assert not {"in_range", "chi_mask"} & set(vars(g))  # built on first use
    for a in (g.in_range, g.chi_mask):
        assert a.shape == (g.n, g.n)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1
    assert g.chi_mask is g.chi_mask and g.in_range is g.in_range
    assert not hasattr(g, "mode_lattice")
    held = [v for v in vars(g).values() if isinstance(v, np.ndarray) and v.ndim == 2]
    assert sum(a.nbytes for a in held) == 9 * g.n**2
    D = _lattice(g)[0]
    assert np.array_equal(g.in_range, (D >= -(g.n // 2)) & (D < g.n // 2))
    # the Toeplitz view fhat[(j - k) mod n], bit for bit, over [fhat, fhat] alone
    rng = np.random.default_rng(3)
    for n in (2, 16, 32):
        g = TorusGrid(n)
        fhat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        view = g.toeplitz(fhat)
        assert view.shape == (n, n) and view.dtype == fhat.dtype
        assert np.array_equal(view, fhat[(g.modes[:, None] - g.modes[None, :]) % n])
        assert view.base.size == 2 * n
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1


def test_bony_weyl_is_weyl_times_the_cutoff_bit_for_bit():
    g = TorusGrid(32)
    sym = SeparableSymbol(g, [(transform(g, np.cos(g.x) + 0.2 * np.sin(3 * g.x)),
                               FrequencyMultiplier.xi_power(2)),
                              (transform(g, np.sin(2 * g.x)), FrequencyMultiplier.abs_xi())])
    assert np.array_equal(bony_weyl_quantize(sym), weyl_quantize(sym) * _closed_chi(g))


def _bits(a):
    """The bytes of an array's entries, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", [2, 4, 16, 32, 100, 128, 256, 512, 1024])
def test_chi_mask_is_the_closed_formula_bit_for_bit(n):
    # the grid evaluates cutoff_chi on the cone 1.1 < |xi| / eps < 1.9
    # alone, and sets 1 below it and +0.0 above it: the closed formula's
    # entries, signed zeros included
    assert np.array_equal(_bits(TorusGrid(n).chi_mask), _bits(_closed_chi(TorusGrid(n))))


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_chi_mask_is_formed_in_28_bytes_an_entry(n):
    # the closed formula takes about 72 bytes an entry of float temporaries;
    # the grid's cone takes 19 (measured at N = 256-1024), 8 of them the
    # result.  Below N = 256 numpy's fixed ufunc buffer (8192 complex) is
    # more than 2 bytes an entry
    import tracemalloc

    g = TorusGrid(n)
    tracemalloc.start()
    try:
        g.chi_mask
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * n * n, peak / n**2


def _reference_table(g, m):
    """m((j + k)/2), zero where j - k leaves [-n/2, n/2), from the local lattice."""
    D, S = _lattice(g)
    return np.where((D >= -(g.n // 2)) & (D < g.n // 2),
                    m(np.arange(-g.n, g.n - 1) / 2.0)[S + g.n], 0.0)


def _reference_bony_weyl(sym):
    """zeros + sum_i toeplitz(fhat_i) * T_i, then times chi: the quantizer's
    arithmetic written as a plain sum."""
    g = sym.grid
    M = np.zeros((g.n, g.n), dtype=complex)
    for f, m in sym.terms:
        M += g.toeplitz(f.coeffs) * _reference_table(g, m)
    return M * _closed_chi(g)


@pytest.mark.parametrize("preset", PRESETS)
def test_every_quantized_block_of_a_preset_is_the_plain_sum_bit_for_bit(preset, monkeypatch):
    # every Bony-Weyl block that the system, its generator at a background,
    # the parametrix, its residuals and the energy quantize, and the tables
    # of the real form's background blocks, against a sum that starts from
    # zeros and a closed-formula chi: the quantizer multiplies its first term
    # straight into the result and chi in place, with the same bits
    g = TorusGrid(32)
    seen = []

    def checked(sym):
        M, ref = quantize.bony_weyl_quantize(sym), _reference_bony_weyl(sym)
        if M.ndim == 1:  # constant coefficients: the block by its diagonal
            assert not np.any(ref - np.diag(np.diagonal(ref)))
            ref = np.diagonal(ref)
        seen.append(np.array_equal(_bits(M), _bits(ref)))
        return M

    for module in (paralin, parametrix):
        monkeypatch.setattr(module, "bony_weyl_quantize", checked)
    sysm, fields = build_preset(preset, g)
    V = complexify(*fields).stacked()
    para = ParalinearizedSystem(sysm, g)
    para.frak_A(V), para.frak_B(V)
    P = parametrix.build_parametrix(para, V, 2.5)
    parametrix.conjugation_residual(P, para, V)
    parametrix.modified_energy(P, V)
    assert seen and all(seen)
    D, h = complex_weights(g), g.n // 2 + 1
    for i, out, inp, table in para._real_blocks:
        T = _reference_table(g, paralin._ABS_XI if i == 0 else paralin._OFF) * _closed_chi(g)
        ref = (-1.0 * D[out // 2][:, None] * T * D[inp // 2])[:h].astype(complex)
        assert np.array_equal(_bits(table), _bits(ref))


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


def test_residuals_of_a_constant_coefficient_symbol_equal_their_dense_references():
    # Op^BW of a symbol of constant x-coefficients comes back as its diagonal
    # (n,): Op^W - Op^BW and the composition residual, with such a symbol on
    # either side or both, still equal their dense formulas, where numpy would
    # broadcast a diagonal against a matrix into a wrong array with no error
    g = TorusGrid(32)
    xi2 = FrequencyMultiplier.xi_power(2)
    const = SeparableSymbol(g, [(SpectralFunction.constant(g, 0.7), xi2),
                                (SpectralFunction.constant(g, -0.2j), FrequencyMultiplier.abs_xi())])
    var = SeparableSymbol(g, [(transform(g, np.cos(g.x)), xi2)])
    assert bony_weyl_quantize(const).shape == (g.n,)
    R = remainder_bw_minus_weyl(const)
    assert R.shape == (g.n, g.n)
    assert np.array_equal(R, weyl_quantize(const) - _reference_bony_weyl(const))
    assert not R.any()  # Op^W = Op^BW on a diagonal symbol: chi_eps(0) = 1
    for a, b in ((const, var), (var, const), (const, const)):
        ref = (_reference_bony_weyl(a) @ _reference_bony_weyl(b)
               - _reference_bony_weyl(sharp_rho(a, b, 2.0)))
        assert np.array_equal(composition_residual(a, b, 2.0), ref)


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


def test_multiplier_one_quantizes_by_the_in_range_mask_bit_for_bit():
    # the multiplier 1 takes no table: the grid's in-range mask stands for
    # its table, with the same matrix to the last bit
    g = TorusGrid(32)
    f = transform(g, 1.0 + 0.3 * np.cos(g.x) + 0.1 * np.sin(3 * g.x))
    table = weyl_table(g, FrequencyMultiplier.one())
    assert np.array_equal(table != 0.0, g.in_range)
    assert np.array_equal(weyl_quantize(SeparableSymbol.from_xfunc(f)),
                          f.coeffs[_lattice(g)[0] % g.n] * table)


def _svd_spy(monkeypatch, record=lambda a: np.asarray(a).dtype.kind):
    """Record the dtype (or ``record(a)``) of every matrix handed to np.linalg.svd."""
    seen, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(record(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen, svd


def _real_symbol_operators(g):
    """Op^BW(cos x xi^2) (even multiplier), Op^BW(sin x i xi) (odd multiplier
    times i) and a -i-phased residual -i(Op^BW(a)Op^BW(b) - Op^BW(a #_2 b))."""
    xi2, xi = FrequencyMultiplier.xi_power(2), FrequencyMultiplier.xi_power(1)
    even = SeparableSymbol(g, [(transform(g, np.cos(g.x)), xi2)])
    odd = SeparableSymbol(g, [(1j * transform(g, np.sin(g.x)), xi)])
    a = SeparableSymbol.from_xfunc(transform(g, 1.0 + 0.2 * np.cos(g.x)))
    return {"even": bony_weyl_quantize(even), "odd_times_i": bony_weyl_quantize(odd),
            "minus_i_residual": -1j * composition_residual(a, even, 2.0)}


def conjugation_break(g, M):
    """max |M[-j, -k] - conj M[j, k]| relative to max |M|: zero for an
    operator that maps real functions to real functions."""
    r = g.reflect
    return np.max(np.abs(M[np.ix_(r, r)] - np.conj(M))) / np.max(np.abs(M))


@pytest.mark.parametrize("n", [16, 32, 128, 512])
def test_bony_weyl_blocks_of_real_symbols_map_real_functions_to_real_functions(n):
    # Op^BW(cos x xi^2) and Op^BW(i sin x xi) in every row and column, the
    # lattice's unpaired mode -n/2 included: the cutoff gives it no entry off
    # the diagonal, so M[-j, -k] = conj M[j, k] holds to round-off
    g = TorusGrid(n)
    for f, mult in ((transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2)),
                    (1j * transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(1))):
        assert conjugation_break(g, bony_weyl_quantize(SeparableSymbol(g, [(f, mult)]))) <= 1e-15


@pytest.mark.parametrize("name", ["even", "odd_times_i", "minus_i_residual"])
def test_real_basis_norm_equals_the_complex_svd(name, monkeypatch):
    # an operator from a real symbol is real (up to its phase) in the
    # cosine-sine basis of the resolved band: its norm takes a real SVD and
    # equals the complex SVD of the weighted matrix; on one component, on a
    # stack of two, and on a matrix formed on the band only
    g = TorusGrid(64)
    M = _real_symbol_operators(g)[name]
    keep = np.tile(g.dealias_mask, 2)
    stack = np.block([[M, 0.5 * M], [np.zeros_like(M), M]])
    seen, svd = _svd_spy(monkeypatch)
    for mat, band, s_in, s_out in ((M, "resolved", 2.0, 0.0), (stack, "resolved", 2.5, [2.5, 1.0]),
                                   (stack[np.ix_(keep, keep)], "restricted", [1.0, 2.0], 2.0)):
        expect = svd(weighted_matrix(g, mat, s_in, s_out, band), compute_uv=False)[0]
        got = exact_operator_norm(g, mat, s_in, s_out, band=band)
        assert abs(got - expect) <= 1e-13 * expect, (band, got, expect)
    assert seen == ["f", "f", "f"]


def test_norm_not_real_in_the_cosine_sine_basis_takes_the_complex_svd(monkeypatch):
    g = TorusGrid(32)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((2 * g.n, 2 * g.n)) + 1j * rng.standard_normal((2 * g.n, 2 * g.n))
    seen, svd = _svd_spy(monkeypatch)
    for band in (None, "resolved"):
        expect = float(svd(weighted_matrix(g, M, 1.0, 2.0, band), compute_uv=False)[0])
        assert exact_operator_norm(g, M, 1.0, 2.0, band=band) == expect
    # a real-symbol operator on all n modes (Nyquist unpaired) also stays complex
    exact_operator_norm(g, _real_symbol_operators(g)["even"], 2.0, 0.0)
    assert seen == ["c"] * 3


def test_zero_block_norm_is_exactly_zero_without_an_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SVD of an all-zero block")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    g = TorusGrid(32)
    m = 2 * g.dealias_cut + 1
    for M, band in ((np.zeros((g.n, g.n)), None), (np.zeros((2 * g.n, 2 * g.n)), "resolved"),
                    (np.zeros((m, m), dtype=complex), "restricted")):
        assert exact_operator_norm(g, M, 2.5, 4.5, band=band) == 0.0
    # nonzero entries outside the band leave a zero block on it
    M = np.zeros((g.n, g.n))
    M[g.n // 2, 0] = 1.0
    assert exact_operator_norm(g, M, 0.0, 0.0, band="resolved") == 0.0


def _block_diagonal(blocks):
    """The component blocks of blockdiag(blocks), None off the diagonal."""
    return tuple(tuple(b if i == k else None for k in range(len(blocks)))
                 for i, b in enumerate(blocks))


def _assembled(M):
    side = next(b for row in M for b in row if b is not None).shape[0]
    zero = np.zeros((side, side), dtype=complex)
    return np.block([[zero if b is None else b for b in row] for row in M])


@pytest.mark.parametrize("band", [None, "restricted"])
def test_block_diagonal_norm_is_the_largest_component_norm(band, monkeypatch):
    # sigma_max(blockdiag) = max sigma_max: handed over by its component
    # blocks, each diagonal block takes its own SVD of one component's side
    # (none for a zero block), and the norm equals the SVD of the whole
    # weighted matrix
    g = TorusGrid(64)
    ops = list(_real_symbol_operators(g).values())
    if band == "restricted":
        keep = g.dealias_mask
        ops = [M[np.ix_(keep, keep)] for M in ops]
    side = ops[0].shape[0]
    shapes, svd = _svd_spy(monkeypatch, np.shape)
    for blocks, s_in, s_out, svds in (((ops[0], ops[1]), 2.0, 0.0, 2),
                                      ((ops[2], ops[0], np.zeros_like(ops[0]), 0.5 * ops[1]),
                                       [2.5, 1.0, 0.0, 2.0], 1.0, 3)):
        W = _block_diagonal(blocks)
        expect = svd(weighted_matrix(g, _assembled(W), s_in, s_out, band), compute_uv=False)[0]
        shapes.clear()
        got = exact_operator_norm(g, W, s_in, s_out, band=band)
        assert abs(got - expect) <= 1e-13 * expect, (len(blocks), got, expect)
        assert shapes == [(side, side)] * svds


@pytest.mark.parametrize("band", [None, "restricted"])
def test_one_nonzero_off_diagonal_entry_takes_the_full_svd(band, monkeypatch):
    g = TorusGrid(64)
    ops = list(_real_symbol_operators(g).values())
    if band == "restricted":
        keep = g.dealias_mask
        ops = [M[np.ix_(keep, keep)] for M in ops]
    side = ops[0].shape[0]
    off = np.zeros_like(ops[0])
    off[1, 1] = 0.3
    W = ((ops[0], None), (off, ops[1]))
    shapes, svd = _svd_spy(monkeypatch, np.shape)
    expect = svd(weighted_matrix(g, _assembled(W), 1.0, 1.0, band), compute_uv=False)[0]
    shapes.clear()
    got = exact_operator_norm(g, W, 1.0, 1.0, band=band)
    assert abs(got - expect) <= 1e-13 * expect
    assert shapes == [(2 * side, 2 * side)]


@pytest.mark.parametrize("band", [None, "resolved", "restricted"])
def test_a_diagonal_is_normed_by_its_largest_weighted_entry_without_an_svd(band, monkeypatch):
    # a block held by its diagonal d has the norm max_j |d_j| <j>^{s_out - s_in}:
    # the SVD of its matrix to round-off, alone and as a component block, with
    # no SVD; beside an off-diagonal block it is assembled as its matrix
    g = TorusGrid(64)
    rng = np.random.default_rng(7)
    d = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    if band == "restricted":
        d = d[g.dealias_mask]
    shapes, svd = _svd_spy(monkeypatch, np.shape)
    expect = svd(weighted_matrix(g, np.diag(d), 1.0, 3.5, band), compute_uv=False)[0]
    shapes.clear()
    for M in (d, _block_diagonal((d, None))):
        got = exact_operator_norm(g, M, 1.0, 3.5, band=band)
        assert abs(got - expect) <= 1e-14 * expect
    assert shapes == []
    if band != "resolved":
        off = np.zeros((d.size, d.size))
        off[1, 2] = 0.3
        W = ((d, None), (off, d))
        expect = svd(weighted_matrix(g, _assembled(((np.diag(d), None), (off, np.diag(d)))),
                                     1.0, 1.0, band), compute_uv=False)[0]
        assert abs(exact_operator_norm(g, W, 1.0, 1.0, band=band) - expect) <= 1e-13 * expect
