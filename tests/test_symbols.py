"""Frequency multipliers, cutoffs, symbol algebra, Poisson brackets."""

import numpy as np
import pytest

from beamwave.grid import TorusGrid, transform
from beamwave.symbols import (
    EPS_PARA,
    FrequencyMultiplier,
    SeparableSymbol,
    cutoff_chi,
    cutoff_psi,
    sharp_rho,
    smooth_step,
)


def symbol_values(a, xi):
    """Values a(x_i, xi_k) of a SeparableSymbol, shape (grid.n, len(xi))."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros((a.grid.n, xi.size), dtype=complex)
    for f, g in a.terms:
        fv = np.asarray(f.values(), dtype=complex)
        out += fv[:, None] * np.asarray(g(xi), dtype=complex)[None, :]
    return out


def symbol_order(a):
    """The order of a SeparableSymbol: its terms' largest, 0 with no terms."""
    return max((g.order for _, g in a.terms), default=0.0)


def test_smooth_step_plateaus_and_monotone():
    t = np.linspace(-1, 2, 301)
    h = smooth_step(t)
    assert np.all(h[t <= 0] == 0.0)
    assert np.all(h[t >= 1] == 1.0)
    assert np.all(np.diff(h) >= -1e-15)


def test_cutoff_psi_plateaus():
    xi = np.array([-0.3, -0.25, 0.0, 0.2, 0.25, 0.5, 0.6, 3.0])
    p = cutoff_psi(xi)
    assert np.all(p[np.abs(xi) <= 0.25] == 0.0)
    assert np.all(p[np.abs(xi) >= 0.5] == 1.0)


def test_cutoff_chi_plateaus_scaled():
    assert cutoff_chi(EPS_PARA) == 1.0  # |xi|/eps = 1 <= 1.1
    assert cutoff_chi(2.0 * EPS_PARA) == 0.0  # |xi|/eps = 2 >= 1.9
    assert 0.0 < cutoff_chi(1.5 * EPS_PARA) < 1.0


def test_multiplier_exact_derivatives():
    m = FrequencyMultiplier.bracket(2.0)  # (1 + xi^2)
    d = m.deriv()
    xi = np.linspace(-3, 3, 7)
    assert np.max(np.abs(d(xi) - 2.0 * xi)) < 1e-12
    assert m.order == 2.0 and d.order == 1.0


def test_abs_xi_power_fractional():
    m = FrequencyMultiplier.abs_xi_power(1.5)
    xi = np.array([0.5, 2.0, -2.0])
    assert np.max(np.abs(m(xi) - np.abs(xi) ** 1.5)) < 1e-12
    assert m.order == 1.5


def test_psi_over_xi_regular_at_origin():
    m = FrequencyMultiplier.psi_over_xi()
    xi = np.array([0.0, 0.1, -0.2, 0.5, 2.0])
    v = m(xi)
    assert v[0] == 0.0 and v[1] == 0.0
    assert abs(v[3] - cutoff_psi(0.5) / 0.5) < 1e-12
    assert abs(v[4] - 0.5) < 1e-12


def _guarded_psi_over_xi(xi, power):
    psi = cutoff_psi(xi)
    safe = np.where(psi > 0, xi, 1.0)
    return np.where(psi > 0, psi / safe**power, 0.0)


def _closed_forms():
    """(multiplier, numpy closed form, order) for every constructor and the
    products the paralinearization and the parametrix build."""
    F = FrequencyMultiplier
    return {
        "one": (F.one(), lambda x: np.ones_like(x), 0.0),
        "xi_power_1": (F.xi_power(1), lambda x: x, 1.0),
        "xi_power_2": (F.xi_power(2), lambda x: x**2, 2.0),
        "abs_xi": (F.abs_xi(), np.abs, 1.0),
        "abs_xi_power_5": (F.abs_xi_power(5), lambda x: np.abs(x) ** 5, 5.0),
        "abs_xi_power_1.5": (F.abs_xi_power(1.5), lambda x: np.abs(x) ** 1.5, 1.5),
        "bracket_-1.5": (F.bracket(-1.5), lambda x: (1 + x**2) ** (-1.5 / 2), -1.5),
        "bracket_0.5": (F.bracket(0.5), lambda x: (1 + x**2) ** (0.5 / 2), 0.5),
        "psi": (F.psi(), cutoff_psi, 0.0),
        "psi_over_xi": (F.psi_over_xi(), lambda x: _guarded_psi_over_xi(x, 1), -1.0),
        "psi_over_xi_2": (F.psi_over_xi(2), lambda x: _guarded_psi_over_xi(x, 2), -2.0),
        "bracket_times_xi2": (
            F.bracket(-1.5) * F.xi_power(2),
            lambda x: (1 + x**2) ** (-1.5 / 2) * x**2,
            0.5,
        ),
        "psi_times_bracket": (
            F.psi() * F.bracket(-1.5),
            lambda x: cutoff_psi(x) * (1 + x**2) ** (-1.5 / 2),
            -1.5,
        ),
    }


@pytest.mark.parametrize("n", [32, 256])
@pytest.mark.parametrize("name", sorted(_closed_forms()))
def test_multiplier_matches_numpy_closed_form(name, n):
    m, closed, order = _closed_forms()[name]
    xi = np.arange(-n, n) / 2.0  # the mode lattice and its half-integer midpoints
    got, want = m(xi), closed(xi)
    assert got.shape == xi.shape and np.all(np.isfinite(got))
    scale = np.maximum(np.abs(want), 1e-300)
    assert np.max(np.abs(got - want) / scale) <= 1e-15
    assert m.order == order


def test_multiplier_derivative_of_product_is_analytic():
    # d/dxi [xi^2 <xi>^{-3/2}] = xi (2 + xi^2/2) <xi>^{-7/2}
    m = (FrequencyMultiplier.bracket(-1.5) * FrequencyMultiplier.xi_power(2)).deriv()
    xi = np.arange(-256, 256) / 2.0
    want = xi * (2.0 + 0.5 * xi**2) * (1 + xi**2) ** (-7 / 4)
    scale = np.maximum(np.abs(want), 1e-300)
    assert np.max(np.abs(m(xi) - want) / scale) <= 1e-14
    assert m.order == -0.5


def test_psi_is_not_differentiated():
    with pytest.raises(ValueError):
        FrequencyMultiplier.psi().deriv()
    with pytest.raises(ValueError):
        (FrequencyMultiplier.psi() * FrequencyMultiplier.bracket(-1.5)).deriv()


def test_multiplier_exponents_are_not_rounded():
    p = 0.333333333
    for m, want in (
        (FrequencyMultiplier.abs_xi_power(p), 8.0**p),
        (FrequencyMultiplier.bracket(p), 65.0 ** (p / 2)),
    ):
        assert abs(m(8.0) - want) <= 1e-15 * want
    third = FrequencyMultiplier.abs_xi_power(1 / 3)
    assert FrequencyMultiplier.abs_xi_power(p).terms != third.terms


def test_separable_symbol_eval_and_order():
    g = TorusGrid(16)
    f = transform(g, np.cos(g.x))
    a = SeparableSymbol(g, [(f, FrequencyMultiplier.xi_power(2))])
    xi = np.array([1.0, 2.0])
    vals = symbol_values(a, xi)
    expect = np.cos(g.x)[:, None] * xi[None, :] ** 2
    assert np.max(np.abs(vals - expect)) < 1e-12
    assert symbol_order(a) == 2.0


def test_poisson_bracket_closed_form():
    # a = cos(x) xi^2, b = sin(x) xi:
    # {a,b} = 2 xi cos(x) * cos(x) xi - (-sin(x)) xi^2 * sin(x)
    #       = 2 cos^2(x) xi^2 + sin^2(x) xi^2
    g = TorusGrid(32)
    a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
    b = SeparableSymbol(g, [(transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(1))])
    xi = np.array([1.0, 3.0])
    pb = symbol_values(a.poisson(b), xi)
    expect = (2.0 * np.cos(g.x) ** 2 + np.sin(g.x) ** 2)[:, None] * xi[None, :] ** 2
    assert np.max(np.abs(pb - expect)) < 1e-10


def test_sharp_rho_low_order_is_product():
    g = TorusGrid(16)
    a = SeparableSymbol.from_xfunc(transform(g, np.cos(g.x)))
    b = SeparableSymbol(g, [(transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(1))])
    xi = np.array([2.0])
    c = sharp_rho(a, b, 1.0)
    a_v, b_v = symbol_values(a, xi), symbol_values(b, xi)
    assert np.max(np.abs(symbol_values(c, xi) - a_v * b_v)) < 1e-12
    with pytest.raises(ValueError):
        sharp_rho(a, b, 3.0)


def test_sharp_rho_two_includes_half_poisson():
    g = TorusGrid(16)
    a = SeparableSymbol(g, [(transform(g, np.cos(g.x)), FrequencyMultiplier.xi_power(2))])
    b = SeparableSymbol(g, [(transform(g, np.sin(g.x)), FrequencyMultiplier.xi_power(1))])
    xi = np.array([1.5])
    lhs = symbol_values(sharp_rho(a, b, 2.0), xi)
    rhs = (symbol_values(a, xi) * symbol_values(b, xi)
           + (1.0 / 2.0j) * symbol_values(a.poisson(b), xi))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
