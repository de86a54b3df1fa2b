"""Quantization matrices, operator norms, calculus residuals."""

import operator

import numpy as np
import pytest

import beamwave.paralin as paralin
import beamwave.parametrix as parametrix
import beamwave.quantize as quantize
from beamwave.cli import PRESETS, build_preset
from beamwave.grid import SpectralFunction, TorusGrid, row_blocks, transform
from beamwave.paralin import ParalinearizedSystem
from beamwave.quantize import (
    bony_weyl_quantize,
    combine,
    composition_residual,
    exact_operator_norm,
    remainder_bw_minus_weyl,
    subtract_into,
    weyl_quantize,
    weyl_table,
)
from beamwave.state import complex_weights, complexify
from beamwave.symbols import FrequencyMultiplier, SeparableSymbol, cutoff_chi, sharp_rho
from conftest import parity_split, reference_norm, weighted_matrix


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
    # H^2 -> H^0 norm of <D>^2 on the resolved band is exactly 1: as a block,
    # as its diagonal, and as the diagonal blocks of 2 and 4 components, held
    # apart or assembled beside a zero block
    g = TorusGrid(16)
    d = g.brackets[g.dealias_mask] ** 2
    D = np.diag(d)
    for M in (D, d, _block_diagonal((D, d)), _block_diagonal((d,) * 4),
              ((D, np.zeros_like(D)), (None, d))):
        assert abs(exact_operator_norm(g, M, 2.0, 0.0) - 1.0) < 1e-12


def test_matrix_not_a_stack_of_components_is_refused():
    # a norm takes one component's block on the resolved band, its diagonal,
    # or a tuple of them: a block of all n modes, a stack of two components
    # given as one array, or a block of another side is refused
    g = TorusGrid(16)
    m = np.count_nonzero(g.dealias_mask)
    for M in (np.eye(g.n), np.ones(g.n), np.eye(2 * m), np.ones((m, 2 * m)), np.eye(4)):
        with pytest.raises(ValueError):
            exact_operator_norm(g, M, 0.0, 0.0)


def test_restricting_before_weighting_is_exact():
    # an operator on all n modes restricted to the resolved band by one
    # np.ix_, per component, and normed, is the SVD of its weighted matrix on
    # all modes restricted afterwards, bit for bit where the SVD is complex
    g = TorusGrid(32)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2 * g.n, 2 * g.n)) + 1j * rng.standard_normal((2 * g.n, 2 * g.n))
    band = np.ix_(g.dealias_mask, g.dealias_mask)
    blocks = tuple(tuple(b[band] for b in np.hsplit(row, 2)) for row in np.vsplit(M, 2))
    for s_in, s_out in ((2.5, 2.5), (2.5, 4.5)):
        keep = np.tile(g.dealias_mask, 2)
        full = weighted_matrix(g, M, s_in, s_out)
        expect = float(np.linalg.svd(full[np.ix_(keep, keep)], compute_uv=False)[0])
        assert exact_operator_norm(g, blocks, s_in, s_out) == expect
        assert exact_operator_norm(g, blocks[0][0], s_in, s_out) == reference_norm(
            g, M[: g.n, : g.n], s_in, s_out, "resolved")


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
    # the grid's cone, by row blocks of 2^14 entries, takes 19.6, 10.9 and
    # 8.7 (measured at N = 256, 512, 1024), 8 of them the result.  Below
    # N = 256 numpy's fixed ufunc buffer (8192 complex) is more than 2 bytes
    # an entry
    import tracemalloc

    g = TorusGrid(n)
    tracemalloc.start()
    try:
        g.chi_mask
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * n * n, peak / n**2


@pytest.mark.parametrize("n", [256, 512])
def test_weyl_quantize_forms_no_n_by_n_scratch(n):
    # a Bony-Weyl matrix is formed in its own buffer, 16 bytes an entry, by
    # row blocks of 2^14 entries, each with its lattice j + k, table,
    # in-range mask and second term's product (33 bytes an entry of the
    # block, bounded by 48), beside numpy's ufunc buffer (8192 complex):
    # measured 26.3 and 18.6 bytes an entry at N = 256 and 512.  One term of
    # |xi| and two terms (a xi^2 + 2i a_x xi, frakA's q_b); each term's
    # n x n table with its int64 index, or a product per term, exceeds it
    import tracemalloc

    g = TorusGrid(n)
    g.chi_mask, g.in_range
    a = transform(g, 0.3 * np.cos(g.x))
    for sym in (SeparableSymbol.from_xfunc(a, FrequencyMultiplier.abs_xi()),
                SeparableSymbol(g, [(a, FrequencyMultiplier.xi_power(2)),
                                    (2j * a.deriv(), FrequencyMultiplier.xi_power(1))])):
        tracemalloc.start()
        try:
            bony_weyl_quantize(sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * n + 48 * 2**14 + 8192 * 16, peak / n**2


def test_subtract_into_is_the_difference_combine_forms():
    # A - B written over a dense B is, byte for byte, signed zeros included,
    # the difference combine forms (off a diagonal A: 0.0 - B, not -B), for
    # each pairing of a diagonal (n,) and a dense block; a diagonal B is not
    # written over
    rng = np.random.default_rng(0)

    def block(*shape):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b.flat[:3] = 0.0, -0.0, complex(-0.0, -0.0)
        return b

    for A in (block(8), block(8, 8)):
        for B in (block(8), block(8, 8)):
            expect = combine(operator.sub, A, B)
            given = B.copy()
            got = subtract_into(A, given)
            assert got.tobytes() == expect.tobytes()
            assert (got is given) == (B.ndim == 2)


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


def _at(M, rows, cols):
    """The rows and columns (index arrays, None for all) of a block, or of a
    diagonal its entries at the slots kept, rows else cols."""
    if M.ndim == 1:
        return M if rows is None and cols is None else M[cols if rows is None else rows]
    return M[slice(None) if rows is None else rows][:, slice(None) if cols is None else cols]


@pytest.mark.parametrize("preset", PRESETS)
def test_every_quantized_block_of_a_preset_is_the_plain_sum_bit_for_bit(preset, monkeypatch):
    # every Bony-Weyl block that the system, its generator at a background,
    # the parametrix, its residuals and the energy quantize, and the tables
    # of the real form's background blocks, against a sum that starts from
    # zeros and a closed-formula chi: the quantizer multiplies its first term
    # straight into the result and chi in place, with the same bits.  The
    # residual's cuts (its wave rows and columns, Lambda on the band R x R)
    # against those rows and columns of the reference
    g = TorusGrid(32)
    seen, cuts = [], set()

    def checked(sym, rows=None, cols=None):
        M, ref = quantize.bony_weyl_quantize(sym, rows, cols), _reference_bony_weyl(sym)
        if M.ndim == 1:  # constant coefficients: the block by its diagonal
            assert not np.any(ref - np.diag(np.diagonal(ref)))
            ref = np.diagonal(ref)
        seen.append(np.array_equal(_bits(M), _bits(_at(ref, rows, cols))))
        cuts.add((rows is not None, cols is not None))
        return M

    for module in (paralin, parametrix):
        monkeypatch.setattr(module, "bony_weyl_quantize", checked)
    sysm, fields = build_preset(preset, g)
    V = complexify(*fields).stacked()
    para = ParalinearizedSystem(sysm, g)
    para.frak_A(V), para.frak_B(V)
    P = parametrix.build_parametrix(para, V, 2.5)
    parametrix.conjugation_residual(P, para, V)
    P.L2s()
    for h in (0, 1):
        parametrix.energy_operators(P, h)
    assert seen and all(seen)
    assert cuts == {(False, False), (True, False), (False, True), (True, True)}
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
        band = np.ix_(g.dealias_mask, g.dealias_mask)
        norms.append(exact_operator_norm(g, remainder_bw_minus_weyl(a)[band], 2.0, 4.0))
    assert max(norms) / min(norms) < 1.25


def test_composition_residual_stable():
    norms = []
    for n in (32, 64, 128):
        g = TorusGrid(n)
        a = SeparableSymbol.from_xfunc(transform(g, np.cos(g.x)))
        b = SeparableSymbol(g, [(transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(2))])
        band = np.ix_(g.dealias_mask, g.dealias_mask)
        norms.append(exact_operator_norm(g, composition_residual(a, b, 2.0)[band], 2.0, 2.0))
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
    table = weyl_table(g, FrequencyMultiplier.one(), slice(None))
    assert np.array_equal(table != 0.0, g.in_range)
    assert np.array_equal(weyl_quantize(SeparableSymbol.from_xfunc(f)),
                          f.coeffs[_lattice(g)[0] % g.n] * table)


@pytest.mark.parametrize("n", [32, 256])
def test_a_blocks_rows_and_columns_formed_alone_are_those_of_the_whole_block(n):
    # the rows R, the columns R and the R x R block (R the resolved band
    # |j| <= n/3), formed alone, are M[R], M[:, R] and M[np.ix_(R, R)] of the
    # whole block, byte for byte, for Op^W and Op^BW: a dense symbol
    # (headline's S_1 + S_2), a |xi| multiplier (Lambda_w), a constant symbol,
    # whose diagonal is cut to its entries at R, and a symbol with no terms.
    # At N = 256 a cut spans several row blocks
    g = TorusGrid(n)
    r = np.flatnonzero(g.dealias_mask)
    sysm, fields = build_preset("headline", g)
    wave = parametrix.build_parametrix(
        ParalinearizedSystem(sysm, g), complexify(*fields).stacked(), 2.5).wave
    syms = [SeparableSymbol.from_xfunc(wave.s1 + wave.s2),
            SeparableSymbol.from_xfunc(wave.lam, FrequencyMultiplier.abs_xi()),
            SeparableSymbol.from_xfunc(SpectralFunction.constant(g, 0.7),
                                       FrequencyMultiplier.xi_power(2)),
            SeparableSymbol(g, [])]
    cuts = ((r, None), (None, r), (r, r))
    for quantized in (weyl_quantize, bony_weyl_quantize):
        ndims = []
        for sym in syms:
            M = quantized(sym)
            for rows, cols in cuts:
                cut, ref = quantized(sym, rows, cols), _at(M, rows, cols)
                assert cut.shape == ref.shape and cut.tobytes() == ref.tobytes()
            ndims.append(M.ndim)
        assert ndims == ([2] * 4 if quantized is weyl_quantize else [2, 2, 1, 1])
    assert (len(row_blocks(r.size, n)) > 1) == (n == 256)


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


def _on_band(g, M):
    """The resolved band of an operator on all n modes of each component: the
    rows and columns of a block, the entries of a diagonal, and each block of
    a tuple of component blocks."""
    if isinstance(M, tuple):
        return tuple(tuple(None if b is None else _on_band(g, b) for b in row) for row in M)
    keep = g.dealias_mask
    return M[keep] if M.ndim == 1 else M[np.ix_(keep, keep)]


@pytest.mark.parametrize("name", ["even", "odd_times_i", "minus_i_residual"])
def test_real_basis_norm_equals_the_complex_svd(name, monkeypatch):
    # an operator from a real symbol is real (up to its phase) in the
    # cosine-sine basis of the resolved band: its norm takes a real SVD and
    # equals the complex SVD of the weighted matrix; on one component and on
    # a stack of two
    g = TorusGrid(64)
    M = _on_band(g, _real_symbol_operators(g)[name])
    stack = ((M, 0.5 * M), (None, M))
    seen, svd = _svd_spy(monkeypatch)
    for mat, s_in, s_out in ((M, 2.0, 0.0), (stack, 2.5, 2.5), (stack, 1.0, 2.0)):
        ref = _assembled(mat) if isinstance(mat, tuple) else mat
        expect = svd(weighted_matrix(g, ref, s_in, s_out, "restricted"), compute_uv=False)[0]
        got = exact_operator_norm(g, mat, s_in, s_out)
        assert abs(got - expect) <= 1e-13 * expect, (got, expect)
    assert seen == ["f", "f", "f"]


def test_norm_not_real_in_the_cosine_sine_basis_takes_the_complex_svd(monkeypatch):
    # a block not real in the cosine-sine basis, alone and in a stack of two,
    # is normed by the complex SVD of its weighted matrix, bit for bit
    g = TorusGrid(32)
    m = np.count_nonzero(g.dealias_mask)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    seen, svd = _svd_spy(monkeypatch)
    for mat in (M, ((M, None), (M.T, 2.0 * M))):
        ref = _assembled(mat) if isinstance(mat, tuple) else mat
        expect = float(svd(weighted_matrix(g, ref, 1.0, 2.0, "restricted"), compute_uv=False)[0])
        assert exact_operator_norm(g, mat, 1.0, 2.0) == expect
    assert seen == ["c"] * 2


def test_zero_block_norm_is_exactly_zero_without_an_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SVD of an all-zero block")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    g = TorusGrid(32)
    m = np.count_nonzero(g.dealias_mask)
    Z = np.zeros((m, m), dtype=complex)
    for M in (Z, ((Z, Z), (Z, Z))):
        assert exact_operator_norm(g, M, 2.5, 4.5) == 0.0
    # nonzero entries outside the band leave a zero block on it
    M = np.zeros((g.n, g.n))
    M[g.n // 2, 0] = 1.0
    assert exact_operator_norm(g, _on_band(g, M), 0.0, 0.0) == 0.0


def _block_diagonal(blocks):
    """The component blocks of blockdiag(blocks), None off the diagonal."""
    return tuple(tuple(b if i == k else None for k in range(len(blocks)))
                 for i, b in enumerate(blocks))


def _assembled(M):
    """The dense matrix of a block, a diagonal or a tuple of component blocks."""
    if not isinstance(M, tuple):
        M = ((M,),)
    side = next(b for row in M for b in row if b is not None).shape[0]
    zero = np.zeros((side, side), dtype=complex)
    return np.block([[zero if b is None else np.diag(b) if b.ndim == 1 else b for b in row]
                     for row in M])


def _reference(g, M, s_in, s_out, band):
    """The dense weighted matrix whose largest singular value is the norm of
    ``_on_band(g, M)``, for M on all n modes of each component, formed three
    ways: on all n modes with the rows and columns off the band zeroed (band
    None), on all n modes restricted by the reference ("resolved"), or on the
    band alone ("restricted")."""
    if band == "restricted":
        return weighted_matrix(g, _assembled(_on_band(g, M)), s_in, s_out, band)
    A = _assembled(M)
    if band is None:
        keep = np.tile(g.dealias_mask, A.shape[0] // g.n)
        A = np.where(keep[:, None] & keep[None, :], A, 0.0)
    return weighted_matrix(g, A, s_in, s_out, band)


@pytest.mark.parametrize("band", [None, "restricted"])
def test_block_diagonal_norm_is_the_largest_component_norm(band, monkeypatch):
    # sigma_max(blockdiag) = max sigma_max: handed over by its component
    # blocks on the resolved band, each diagonal block takes its own SVD of
    # one component's side (none for a zero block), and the norm equals the
    # SVD of the whole weighted matrix, formed as ``band`` says
    g = TorusGrid(64)
    ops = list(_real_symbol_operators(g).values())
    side = np.count_nonzero(g.dealias_mask)
    shapes, svd = _svd_spy(monkeypatch, np.shape)
    for blocks, s_in, s_out, svds in (((ops[0], ops[1]), 2.0, 0.0, 2),
                                      ((ops[2], ops[0], np.zeros_like(ops[0]), 0.5 * ops[1]),
                                       2.5, 1.0, 3)):
        W = _block_diagonal(blocks)
        expect = svd(_reference(g, W, s_in, s_out, band), compute_uv=False)[0]
        shapes.clear()
        got = exact_operator_norm(g, _on_band(g, W), s_in, s_out)
        assert abs(got - expect) <= 1e-13 * expect, (len(blocks), got, expect)
        assert shapes == [(side, side)] * svds


@pytest.mark.parametrize("band", [None, "restricted"])
def test_one_nonzero_off_diagonal_entry_takes_the_full_svd(band, monkeypatch):
    g = TorusGrid(64)
    ops = list(_real_symbol_operators(g).values())
    side = np.count_nonzero(g.dealias_mask)
    off = np.zeros_like(ops[0])
    off[1, 1] = 0.3
    W = ((ops[0], None), (off, ops[1]))
    shapes, svd = _svd_spy(monkeypatch, np.shape)
    expect = svd(_reference(g, W, 1.0, 1.0, band), compute_uv=False)[0]
    shapes.clear()
    got = exact_operator_norm(g, _on_band(g, W), 1.0, 1.0)
    assert abs(got - expect) <= 1e-13 * expect
    assert shapes == [(2 * side, 2 * side)]


@pytest.mark.parametrize("band", [None, "resolved", "restricted"])
def test_a_diagonal_is_normed_by_its_largest_weighted_entry_without_an_svd(band, monkeypatch):
    # a block held by its diagonal d has the norm max_j |d_j| <j>^{s_out - s_in}
    # over the resolved band: the SVD of its matrix to round-off, formed as
    # ``band`` says, alone and as a component block, with no SVD; beside an
    # off-diagonal block it is assembled as its matrix
    g = TorusGrid(64)
    rng = np.random.default_rng(7)
    d = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    shapes, svd = _svd_spy(monkeypatch, np.shape)
    expect = svd(_reference(g, d, 1.0, 3.5, band), compute_uv=False)[0]
    shapes.clear()
    for M in (d, _block_diagonal((d, None))):
        got = exact_operator_norm(g, _on_band(g, M), 1.0, 3.5)
        assert abs(got - expect) <= 1e-14 * expect
    assert shapes == []
    off = np.zeros((d.size, d.size))
    off[1, 2] = 0.3
    W = ((d, None), (off, d))
    expect = svd(_reference(g, W, 1.0, 1.0, band), compute_uv=False)[0]
    assert abs(exact_operator_norm(g, _on_band(g, W), 1.0, 1.0) - expect) <= 1e-13 * expect
