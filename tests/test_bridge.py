"""Bridge system: nonlinearities, hypotheses, serialization, presets."""

import numpy as np
import pytest

import beamwave.bridge
from beamwave.bridge import (
    BridgeSystem,
    QuadraticNonlinearity,
    arioli_gazzola_preset,
    bridge_system_from_json,
)
from beamwave.cli import build_preset
from beamwave.errors import ConfigError, PreconditionError
from beamwave.grid import TorusGrid, transform


def make_system(n=32, **kw):
    g = TorusGrid(n)
    return g, BridgeSystem(g, 1.0, 1.0, **kw)


def test_quadratic_nonlinearity_evaluate():
    g = TorusGrid(32)
    F = QuadraticNonlinearity(g, [(2.0, 0, 3)])  # 2 y theta
    y = transform(g, np.cos(g.x))
    th = transform(g, np.sin(g.x))
    _, sys = make_system(32, F1=F)  # its jets hold the slots F reads
    jets = sys.jets(y.coeffs, th.coeffs)
    vals = F.evaluate(jets)
    assert np.max(np.abs(vals.real - 2.0 * np.cos(g.x) * np.sin(g.x))) < 1e-10


def test_partial_values_affine():
    g = TorusGrid(32)
    F = QuadraticNonlinearity(g, [(1.0, 5, 5)])  # theta_xx^2
    _, sys = make_system(32, F2=F)
    th = transform(g, np.sin(2 * g.x))
    jets = sys.jets(np.zeros(g.n, dtype=complex), th.coeffs)
    dF = F.partial_values(5, jets)
    assert np.max(np.abs(dF.real - 2.0 * (-4.0) * np.sin(2 * g.x))) < 1e-10


def test_jet_slot_validation():
    g = TorusGrid(16)
    with pytest.raises(ConfigError):
        QuadraticNonlinearity(g, [(1.0, 0, 6)])


def test_ellipticity_check():
    g = TorusGrid(32)
    b = transform(g, 1.0 + 0.5 * np.cos(g.x))
    sys = BridgeSystem(g, b, 1.0)
    c1, c2 = sys.check_ellipticity()
    assert abs(c1 - 0.5) < 1e-10 and abs(c2 - 1.0) < 1e-10
    bad = BridgeSystem(g, transform(g, np.cos(g.x)), 1.0)
    with pytest.raises(PreconditionError):
        bad.check_ellipticity()


def test_radius_condition_example():
    # c = 1, F2 = (c3-coefficient) theta_xx^2 with coefficient 0.5:
    # c + dF2/d(theta_xx) = 1 + theta_xx >= 1 - R > 0 for R < 1; at
    # coefficient 0.5 the bound is 1 - 2*0.5*R, positive iff R < 1
    g = TorusGrid(32)
    F2 = QuadraticNonlinearity(g, [(0.5, 5, 5)])
    sys = BridgeSystem(g, 1.0, 1.0, F2=F2)
    c3 = sys.check_radius_condition(0.25)
    assert abs(c3 - 0.75) < 1e-10
    with pytest.raises(PreconditionError):
        sys.check_radius_condition(1.5)


def test_parity_passing_and_failing_couplings():
    g = TorusGrid(32)
    good = BridgeSystem(g, 1.0, 1.0, F2=QuadraticNonlinearity(g, [(1.0, 0, 4)]))  # y theta_x
    bad = BridgeSystem(g, 1.0, 1.0, F2=QuadraticNonlinearity(g, [(1.0, 1, 4)]))  # y_x theta_x
    assert good.check_parity()
    assert not bad.check_parity()


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
def test_parity_check_holds_at_every_grid_size(n):
    # the parity preset preserves parity at every N; headline (theta_xx^2)
    # and a constant y_x term in B do not
    g = TorusGrid(n)
    assert build_preset("parity", g)[0].check_parity()
    assert not build_preset("headline", g)[0].check_parity()
    assert not BridgeSystem(g, 1.0, 1.0, B_terms=[(1.0, 1)]).check_parity()


def test_lower_order_bound():
    g = TorusGrid(16)
    with pytest.raises(ConfigError):
        BridgeSystem(g, 1.0, 1.0, B_terms=[(1.0, 3)])


def test_real_rhs_linear_modes():
    # b = c = 1, no nonlinearity: y_tt = -y_xxxx, theta_tt = theta_xx
    g, sys = make_system(16)
    y = transform(g, np.cos(2 * g.x))
    th = transform(g, np.sin(3 * g.x))
    z = np.zeros(g.n, dtype=complex)
    _, ytt, _, thtt = sys.real_rhs(np.array([y.coeffs, z, th.coeffs, z]), 0.0)
    assert np.max(np.abs(ytt + 16.0 * y.coeffs)) < 1e-10
    assert np.max(np.abs(thtt + 9.0 * th.coeffs)) < 1e-10


def test_real_rhs_matches_grid_products_of_spectral_derivatives():
    # an independent reference for the FFT action of the linear part: the
    # grid values of -b y_xxxx + sum coeff d^k y + alpha y_t and
    # c theta_xx + sum coeff d^k theta + beta theta_t, formed from
    # SpectralFunction derivatives and transformed back
    g = TorusGrid(32)
    sys = arioli_gazzola_preset(g, xi_profile="cosine:0.3", alpha=-0.5, beta=-0.5)
    y = transform(g, np.sin(g.x) + 0.3 * np.cos(3 * g.x))
    yt = transform(g, 0.5 * np.cos(2 * g.x))
    th = transform(g, np.sin(2 * g.x) - 0.2 * np.cos(g.x))
    tht = transform(g, 0.4 * np.sin(3 * g.x))
    _, ytt, _, thtt = sys.real_rhs(np.array([y.coeffs, yt.coeffs, th.coeffs, tht.coeffs]), 0.0)

    def lower_order(terms, u):
        return sum(coeff.values() * u.deriv(k).values() for coeff, k in terms)

    beam = (-sys.b.values() * y.deriv(4).values() + lower_order(sys.B_terms, y)
            + sys.alpha * yt.values())
    wave = (sys.c.values() * th.deriv(2).values() + lower_order(sys.C_terms, th)
            + sys.beta * tht.values())
    assert sys.B_terms and sys.C_terms
    for got, values in ((ytt, beam), (thtt, wave)):
        expect = transform(g, values).coeffs
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.fixture
def fft_calls_of(monkeypatch):
    """fft_calls_of(f, *args) calls f(*args) and returns the FFTs made through
    beamwave.bridge's numpy (by any module), as (name, number of rows)."""
    calls = []
    fft = beamwave.bridge.np.fft
    for name in ("fft", "ifft"):
        def counted(a, *args, _name=name, _fn=getattr(fft, name), **kwargs):
            calls.append((_name, int(np.prod(np.shape(a)[:-1]))))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(fft, name, counted)

    def calls_of(f, *args):
        calls.clear()
        f(*args)
        return list(calls)

    return calls_of


def test_real_rhs_with_constant_and_fluctuating_rows_matches_grid_products(fft_calls_of):
    # beam and wave each mix constant rows (the diagonal symbol), cosine rows
    # (the FFT pair) and a zero-order row, so both halves of the split act in
    # one call, against the same grid-product reference as above
    g = TorusGrid(32)
    sys = BridgeSystem(g, "cosine:0.3", 1.5, B_terms=[(0.4, 2), ("cosine:0.1", 1), (0.5, 0)],
                       C_terms=[("cosine:0.2", 1), (-0.3, 0)], alpha=-0.5, beta=-0.25)
    y = transform(g, np.sin(g.x) + 0.3 * np.cos(3 * g.x))
    yt = transform(g, 0.5 * np.cos(2 * g.x))
    th = transform(g, np.sin(2 * g.x) - 0.2 * np.cos(g.x))
    tht = transform(g, 0.4 * np.sin(3 * g.x))
    u = np.array([y.coeffs, yt.coeffs, th.coeffs, tht.coeffs])
    _, ytt, _, thtt = sys.real_rhs(u, 0.0)
    # the three cosine rows go to the grid, summed per unknown before the forward FFT
    assert fft_calls_of(sys.linear_rhs, u) == [("ifft", 3), ("fft", 2)]

    def products(terms, u):
        return sum(coeff.values() * u.deriv(k).values() for coeff, k in terms)

    beam = products([(-sys.b, 4)] + sys.B_terms, y) + sys.alpha * yt.values()
    wave = products([(sys.c, 2)] + sys.C_terms, th) + sys.beta * tht.values()
    for got, values in ((ytt, beam), (thtt, wave)):
        expect = transform(g, values).coeffs
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_headline_stage_transforms_one_row_each_way(fft_calls_of):
    # F2 = theta_xx^2 with b = c = 1: the linear part is diagonal, the jet is
    # the one slot theta_xx, and F1 = 0 is not transformed
    g = TorusGrid(64)
    sys, fields = build_preset("headline", g)
    u = np.array([f.coeffs for f in fields])
    assert fft_calls_of(sys.real_rhs, u, 0.0) == [("ifft", 1), ("fft", 1)]


def test_real_rhs_on_a_batch_equals_single_state_calls():
    # variable coefficients (the FFT rows), damping, forcing and both F's: a
    # (4, 3, n) batch gives each state's derivative as a call on it alone
    g = TorusGrid(32)
    F1 = QuadraticNonlinearity(g, [(1.0, 4, 5)])
    F2 = QuadraticNonlinearity(g, [("cosine:0.2", 2, 5), (0.5, 5, 5)])
    sys = BridgeSystem(g, "cosine:0.3", 1.5, B_terms=[("cosine:0.1", 1), (0.5, 0)],
                       C_terms=[(-0.3, 0)], alpha=-0.5, beta=-0.25, gamma=0.7, delta=-0.4,
                       f_b=np.cos, F1=F1, F2=F2)
    rng = np.random.default_rng(4)
    u = 1e-2 * (rng.standard_normal((4, 3, g.n)) + 1j * rng.standard_normal((4, 3, g.n)))
    batch = sys.real_rhs(u, 0.3)
    assert batch.shape == (4, 3, g.n)
    for i in range(3):
        single = sys.real_rhs(np.ascontiguousarray(u[:, i]), 0.3)
        assert np.array_equal(batch[:, i], single)


def test_linear_rhs_returns_the_velocities_in_rows_0_and_2():
    g = TorusGrid(32)
    sys = arioli_gazzola_preset(g, xi_profile="cosine:0.3", alpha=-0.5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((4, g.n)) + 1j * rng.standard_normal((4, g.n))
    du = sys.linear_rhs(u)
    assert du.shape == u.shape and not np.shares_memory(du, u)
    assert np.array_equal(du[0], u[1]) and np.array_equal(du[2], u[3])


@pytest.mark.parametrize("preset", ["headline", "mixed", "arioli_gazzola"])
def test_constant_coefficient_linear_part_makes_no_fft(preset, fft_calls_of):
    sys, fields = build_preset(preset, TorusGrid(32))
    assert fft_calls_of(sys.linear_rhs, np.array([u.coeffs for u in fields])) == []


def test_nonlinearity_holds_its_coefficient_values(fft_calls_of):
    g = TorusGrid(32)
    F = QuadraticNonlinearity(g, [("cosine:0.5", 0, 3), (2.0, 5, 5)])
    jets = np.random.default_rng(0).standard_normal((6, 3, g.n)) + 0j
    assert fft_calls_of(F.evaluate, jets) == []
    assert fft_calls_of(F.partial_values, 5, jets) == []
    assert fft_calls_of(F.partial_affine_bounds, 5, 0.1) == []
    # the held values are the coefficients' grid values
    expect = (1.0 + 0.5 * np.cos(g.x)) * jets[0] * jets[3] + 2.0 * jets[5] ** 2
    assert np.max(np.abs(F.evaluate(jets) - expect)) < 1e-12


def test_read_slot_jets_equal_the_six_slot_jets():
    g = TorusGrid(32)
    F1 = QuadraticNonlinearity(g, [(1.0, 0, 4)])
    F2 = QuadraticNonlinearity(g, [(0.5, 2, 5), (1.0, 5, 5)])
    sys = BridgeSystem(g, 1.0, 1.0, F1=F1, F2=F2)
    assert sys.jet_slots == [0, 2, 4, 5]
    rng = np.random.default_rng(1)
    y_hat, th_hat = rng.standard_normal((2, 3, g.n)) + 1j * rng.standard_normal((2, 3, g.n))
    read, full = sys.jets(y_hat, th_hat), sys.jets(y_hat, th_hat, slots=range(6))
    assert read.shape == full.shape == (6, 3, g.n)
    assert np.max(np.abs(read[sys.jet_slots] - full[sys.jet_slots])) <= 1e-15 * np.max(np.abs(full))
    assert np.all(np.isnan(read[[1, 3]])) and not np.any(np.isnan(full))
    assert np.array_equal(F1.evaluate(read), F1.evaluate(full))
    assert np.array_equal(F2.partial_values(5, read), F2.partial_values(5, full))


def test_json_roundtrip():
    g = TorusGrid(16)
    F2 = QuadraticNonlinearity(g, [(1.0, 5, 5)])
    sys = BridgeSystem(g, 1.0, 1.0, F2=F2, alpha=-0.25, gamma=0.5)
    doc = sys.to_json_dict()
    back = bridge_system_from_json(doc)
    y = transform(g, np.cos(g.x))
    th = transform(g, np.sin(2 * g.x))
    z = np.zeros(g.n, dtype=complex)
    u = np.array([y.coeffs, z, th.coeffs, z])
    _, a1, _, b1 = sys.real_rhs(u, 0.3)
    _, a2, _, b2 = back.real_rhs(u, 0.3)
    assert np.max(np.abs(a1 - a2)) < 1e-10
    assert np.max(np.abs(b1 - b2)) < 1e-10


@pytest.mark.parametrize(
    "text, field",
    [('{"b": NaN}', "'b'"), ('{"c": NaN}', "'c'"), ('{"b": "constant:inf"}', "'b'"),
     ('{"B_terms": [[NaN, 2]]}', "'B_terms'"), ('{"F2": [[Infinity, 2, 5]]}', "'F2'"),
     ('{"delta": NaN}', "delta"), ('{"alpha": "inf"}', "alpha")],
)
def test_a_non_finite_coefficient_is_a_config_error_naming_its_field(text, field):
    # Python's json reads NaN and Infinity; no such value reaches a solver
    with pytest.raises(ConfigError, match=field + ".* not finite|%s must be finite" % field):
        bridge_system_from_json(text, TorusGrid(16))


@pytest.mark.parametrize(
    "text", ['{"n": 32.5}', '{"n": NaN}', '{"n": Infinity}', '{"n": "x"}', '{"n": true}', '{}'])
def test_a_grid_size_that_is_missing_or_no_integer_is_a_config_error_naming_n(text):
    # without a grid the document's n builds it: 32.5 is not read as 32
    with pytest.raises(ConfigError, match="'n'"):
        bridge_system_from_json(text)
    assert bridge_system_from_json('{"n": 32.0}').grid.n == 32


def test_the_python_api_refuses_a_non_finite_coefficient():
    g = TorusGrid(16)
    for kw, field in (({"b": np.nan}, "b"), ({"c": np.where(g.x > 1.0, np.nan, 1.0)}, "c"),
                      ({"gamma": np.inf}, "gamma")):
        with pytest.raises(ConfigError, match=field):
            BridgeSystem(g, **{"b": 1.0, "c": 1.0, **kw})
    with pytest.raises(ConfigError, match="not finite"):
        QuadraticNonlinearity(g, [(np.inf, 2, 5)])


def test_profile_strings():
    doc = {"n": 16, "b": "constant:2.0", "c": "cosine:0.1"}
    sys = bridge_system_from_json(doc)
    assert np.max(np.abs(sys.b.values().real - 2.0)) < 1e-12
    g = sys.grid
    assert np.max(np.abs(sys.c.values().real - (1.0 + 0.1 * np.cos(g.x)))) < 1e-12


def test_arioli_gazzola_preset_elliptic():
    g = TorusGrid(32)
    sys = arioli_gazzola_preset(g)
    c1, c2 = sys.check_ellipticity()
    assert c1 > 0 and c2 > 0
    with pytest.raises(ConfigError):
        arioli_gazzola_preset(g, EI=-1.0)
