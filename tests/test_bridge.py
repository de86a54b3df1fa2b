"""Bridge system: nonlinearities, hypotheses, system documents, presets."""

import json

import numpy as np
import pytest

import beamwave.bridge
from beamwave.bridge import BridgeSystem, QuadraticNonlinearity, bridge_system_from_json
from beamwave.cli import PRESET_SYSTEMS, PRESETS, build_preset
from beamwave.errors import ConfigError, PreconditionError
from beamwave.grid import SpectralFunction, TorusGrid, transform
from beamwave.paralin import ParalinearizedSystem


def make_system(n=32, **kw):
    g = TorusGrid(n)
    return g, BridgeSystem(g, 1.0, 1.0, **kw)


def deriv(f, k):
    """The k-th x-derivative of a SpectralFunction."""
    return SpectralFunction(f.grid, f.coeffs * (1j * f.grid.modes.astype(float)) ** k)


# the arioli_gazzola preset's fish-bone bridge: masses M and m, stiffnesses EI
# and GK, width ell, cable tension H0 and the constant hanger profile XI
M_MASS, m_MASS, EI, GK, ELL, H0, XI = 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0


def variable_arioli_gazzola(g, **fields):
    """The Arioli-Gazzola system of the hanger profile xi = XI + 0.3 cos x and
    the preset's other constants, by the fish-bone formulas b = EI/(M + 2m xi),
    c = (3GK/ell^2 + 3 tau)/(M + 6m xi) and the cable's d_x(tau d_x),
    tau = 2 H0/xi^2, over the mass densities as B and C, as a system document
    of sample arrays with ``fields``."""
    xi = transform(g, XI + 0.3 * np.cos(g.x)).values().real
    mb, mw = M_MASS + 2 * m_MASS * xi, (M_MASS + 6 * m_MASS * xi) / 3.0
    tau = 2.0 * H0 / xi**2
    tau_x = transform(g, tau).deriv().values().real
    doc = dict(fields, b=list(EI / mb), c=list(GK / (ELL**2 * mw) + tau / mw),
               B_terms=[[list(tau / mb), 2], [list(tau_x / mb), 1]],
               C_terms=[[list(tau_x / mw), 1]])
    return bridge_system_from_json(json.loads(json.dumps(doc)), g)


def half(coeffs):
    """The j >= 0 half (..., n//2 + 1) of fft-order coefficients (..., n), the
    layout the stage reads."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def test_quadratic_nonlinearity_evaluate():
    g = TorusGrid(32)
    y = transform(g, np.cos(g.x))
    th = transform(g, np.sin(g.x))
    _, sys = make_system(32, F1=[(2.0, 0, 3)])  # 2 y theta; its jets hold the slots F reads
    F = sys.F1
    jets = sys.jets(half(y.coeffs), half(th.coeffs))
    vals = F.evaluate(jets, np.empty(g.n))
    assert np.max(np.abs(vals.real - 2.0 * np.cos(g.x) * np.sin(g.x))) < 1e-10


def test_partial_values_affine():
    g = TorusGrid(32)
    _, sys = make_system(32, F2=[(1.0, 5, 5)])  # theta_xx^2
    F = sys.F2
    th = transform(g, np.sin(2 * g.x))
    jets = sys.jets(np.zeros(g.n // 2 + 1, dtype=complex), half(th.coeffs))
    dF = F.partial_values(5, jets, np.zeros(g.n))
    assert np.max(np.abs(dF.real - 2.0 * (-4.0) * np.sin(2 * g.x))) < 1e-10


def test_jet_slot_validation():
    g = TorusGrid(16)
    with pytest.raises(ConfigError):
        QuadraticNonlinearity(g, [(1.0, 0, 6)])


def test_ellipticity_check():
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0 + 0.5 * np.cos(g.x), 1.0)
    c1, c2 = sys.check_ellipticity()
    assert abs(c1 - 0.5) < 1e-10 and abs(c2 - 1.0) < 1e-10
    bad = BridgeSystem(g, np.cos(g.x), 1.0)
    with pytest.raises(PreconditionError):
        bad.check_ellipticity()


def test_radius_condition_example():
    # c = 1, F2 = (c3-coefficient) theta_xx^2 with coefficient 0.5:
    # c + dF2/d(theta_xx) = 1 + theta_xx >= 1 - R > 0 for R < 1; at
    # coefficient 0.5 the bound is 1 - 2*0.5*R, positive iff R < 1
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F2=[(0.5, 5, 5)])
    c3 = sys.check_radius_condition(0.25)
    assert abs(c3 - 0.75) < 1e-10
    with pytest.raises(PreconditionError):
        sys.check_radius_condition(1.5)


def test_parity_passing_and_failing_couplings():
    g = TorusGrid(32)
    good = BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 0, 4)])  # y theta_x
    bad = BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 1, 4)])  # y_x theta_x
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
    _, ytt, _, thtt = sys.real_rhs(half(np.array([y.coeffs, z, th.coeffs, z])), 0.0)
    assert np.max(np.abs(ytt + 16.0 * half(y.coeffs))) < 1e-10
    assert np.max(np.abs(thtt + 9.0 * half(th.coeffs))) < 1e-10


def test_real_rhs_matches_grid_products_of_spectral_derivatives():
    # an independent reference for the FFT action of the linear part: the
    # grid values of -b y_xxxx + sum coeff d^k y + alpha y_t and
    # c theta_xx + sum coeff d^k theta + beta theta_t, formed from
    # SpectralFunction derivatives and transformed back
    g = TorusGrid(32)
    sys = variable_arioli_gazzola(g, alpha=-0.5, beta=-0.5)
    y = transform(g, np.sin(g.x) + 0.3 * np.cos(3 * g.x))
    yt = transform(g, 0.5 * np.cos(2 * g.x))
    th = transform(g, np.sin(2 * g.x) - 0.2 * np.cos(g.x))
    tht = transform(g, 0.4 * np.sin(3 * g.x))
    u = half(np.array([y.coeffs, yt.coeffs, th.coeffs, tht.coeffs]))
    _, ytt, _, thtt = sys.real_rhs(u, 0.0)

    def lower_order(terms, u):
        return sum(coeff.values() * deriv(u, k).values() for coeff, k in terms)

    beam = (-sys.b.values() * deriv(y, 4).values() + lower_order(sys.B_terms, y)
            + sys.alpha * yt.values())
    wave = (sys.c.values() * deriv(th, 2).values() + lower_order(sys.C_terms, th)
            + sys.beta * tht.values())
    assert sys.B_terms and sys.C_terms
    for got, values in ((ytt, beam), (thtt, wave)):
        expect = half(transform(g, values).coeffs)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.fixture
def fft_calls_of(monkeypatch):
    """fft_calls_of(f, *args) calls f(*args) and returns the FFTs made through
    beamwave.bridge's numpy (by any module), complex or real, as (name,
    number of rows)."""
    calls = []
    fft = beamwave.bridge.np.fft
    for name in ("fft", "ifft", "rfft", "irfft"):
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
    u = half(np.array([y.coeffs, yt.coeffs, th.coeffs, tht.coeffs]))
    _, ytt, _, thtt = sys.real_rhs(u, 0.0)
    # the three cosine rows go to the grid, summed per unknown before the forward FFT
    assert fft_calls_of(sys.linear_rhs, u) == [("irfft", 3), ("rfft", 2)]

    def products(terms, u):
        return sum(coeff.values() * deriv(u, k).values() for coeff, k in terms)

    beam = products([(-sys.b, 4)] + sys.B_terms, y) + sys.alpha * yt.values()
    wave = products([(sys.c, 2)] + sys.C_terms, th) + sys.beta * tht.values()
    for got, values in ((ytt, beam), (thtt, wave)):
        expect = half(transform(g, values).coeffs)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_headline_stage_transforms_one_row_each_way(fft_calls_of):
    # F2 = theta_xx^2 with b = c = 1: the linear part is diagonal, the jet is
    # the one slot theta_xx, and F1 = 0 is not transformed
    g = TorusGrid(64)
    sys, fields = build_preset("headline", g)
    u = half(np.array([f.coeffs for f in fields]))
    assert fft_calls_of(sys.real_rhs, u, 0.0) == [("irfft", 1), ("rfft", 1)]


def test_real_rhs_on_a_batch_equals_single_state_calls():
    # variable coefficients (the FFT rows), damping, forcing and both F's: a
    # batch of three real states' halves (4, 3, n//2 + 1) gives each state's
    # derivative as a call on it alone
    g = TorusGrid(32)
    sys = BridgeSystem(g, "cosine:0.3", 1.5, B_terms=[("cosine:0.1", 1), (0.5, 0)],
                       C_terms=[(-0.3, 0)], alpha=-0.5, beta=-0.25, delta=-0.4,
                       F1=[(1.0, 4, 5)], F2=[("cosine:0.2", 2, 5), (0.5, 5, 5)])
    rng = np.random.default_rng(4)
    u = 1e-2 * np.fft.rfft(rng.standard_normal((4, 3, g.n)), norm="forward")
    batch = sys.real_rhs(u, 0.3)
    assert batch.shape == (4, 3, g.n // 2 + 1)
    for i in range(3):
        single = sys.real_rhs(np.ascontiguousarray(u[:, i]), 0.3)
        assert np.array_equal(batch[:, i], single)


def test_linear_rhs_returns_the_velocities_in_rows_0_and_2():
    g = TorusGrid(32)
    sys = variable_arioli_gazzola(g, alpha=-0.5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((4, g.n // 2 + 1)) + 1j * rng.standard_normal((4, g.n // 2 + 1))
    du = sys.linear_rhs(u)
    assert du.shape == u.shape and not np.shares_memory(du, u)
    assert np.array_equal(du[0], u[1]) and np.array_equal(du[2], u[3])


@pytest.mark.parametrize("preset", ["headline", "mixed", "arioli_gazzola"])
def test_constant_coefficient_linear_part_makes_no_fft(preset, fft_calls_of):
    sys, fields = build_preset(preset, TorusGrid(32))
    assert fft_calls_of(sys.linear_rhs, half(np.array([u.coeffs for u in fields]))) == []


def test_nonlinearity_holds_its_coefficient_values(fft_calls_of):
    g = TorusGrid(32)
    F = QuadraticNonlinearity(g, [("cosine:0.5", 0, 3), (2.0, 5, 5)])
    jets = np.random.default_rng(0).standard_normal((6, 3, g.n)) + 0j
    out = np.empty(jets.shape[1:], complex)
    assert fft_calls_of(F.evaluate, jets, out) == []
    assert fft_calls_of(F.partial_values, 5, jets, np.zeros(jets.shape[1:], complex)) == []
    assert fft_calls_of(F.partial_affine_bounds, 5, 0.1) == []
    # the held values are the coefficients' grid values
    expect = (1.0 + 0.5 * np.cos(g.x)) * jets[0] * jets[3] + 2.0 * jets[5] ** 2
    assert np.max(np.abs(out - expect)) < 1e-12


def test_read_slot_jets_equal_the_six_slot_jets():
    g = TorusGrid(32)
    sys = BridgeSystem(g, 1.0, 1.0, F1=[(1.0, 0, 4)], F2=[(0.5, 2, 5), (1.0, 5, 5)])
    F1, F2 = sys.F1, sys.F2
    assert sys.jet_slots == [0, 2, 4, 5]
    rng = np.random.default_rng(1)
    y_hat, th_hat = np.fft.rfft(rng.standard_normal((2, 3, g.n)), norm="forward")
    read, full = sys.jets(y_hat, th_hat), sys.jets(y_hat, th_hat, slots=range(6))
    assert read.shape == full.shape == (6, 3, g.n)
    assert np.max(np.abs(read[sys.jet_slots] - full[sys.jet_slots])) <= 1e-15 * np.max(np.abs(full))
    assert np.all(np.isnan(read[[1, 3]])) and not np.any(np.isnan(full))
    assert np.array_equal(*(F1.evaluate(j, np.empty((3, g.n))) for j in (read, full)))
    assert np.array_equal(*(F2.partial_values(5, j, np.zeros((3, g.n))) for j in (read, full)))


# the variable-coefficient system of the CI's oracle step (variable.json)
VARIABLE = {"b": "cosine:0.3", "c": "cosine:0.2",
            "B_terms": [["cosine:0.1", 2], [0.5, 0]], "C_terms": [["cosine:0.1", 1]],
            "alpha": -0.1, "beta": -0.1,
            "F1": [[1.0, 4, 5]], "F2": [[1.0, 2, 5], [0.5, 5, 5]]}


def document(name):
    """The system document of a preset, or VARIABLE."""
    return VARIABLE if name == "variable" else PRESET_SYSTEMS[name]


def system_and_state(name, n):
    """A preset (or VARIABLE, with the headline data) and its initial real
    state's half (4, n//2 + 1)."""
    g = TorusGrid(n)
    if name == "variable":
        return bridge_system_from_json(VARIABLE, g), real_fields(build_preset("headline", g)[1])
    sys, fields = build_preset(name, g)
    return sys, real_fields(fields)


def real_fields(fields):
    return half(np.array([f.coeffs for f in fields]))


def full_layout_stage(sys, u, t):
    """The stage's reference in the full layout, from the fft-order
    coefficients u (4, n) of a real state: its derivative (4, n) and its jets
    (6, n), every term a grid product of ``SpectralFunction`` derivatives.
    The linear part is -b y_xxxx + B y + alpha y_t and c theta_xx + C theta +
    beta theta_t; the jets are the derivatives of the 2/3-projected y and
    theta; F1, F2 at the jets are projected back by the 2/3 rule; the forcing
    enters mode 0.  Each derivative's grid values are real up to round-off,
    and are transformed by fft / n, the Nyquist slot kept."""
    g = sys.grid
    y, yt, th, tht = (SpectralFunction(g, c) for c in u)
    y_d, th_d = (SpectralFunction(g, np.where(g.dealias_mask, c, 0.0)) for c in (u[0], u[2]))
    jets = np.array([deriv(f, k).values().real for f in (y_d, th_d) for k in range(3)])

    def products(terms, f):
        return sum(coeff.values() * deriv(f, k).values() for coeff, k in terms)

    def hat(values):
        return np.fft.fft(np.real(values)) / g.n

    def F_hat(F):
        values = sum((co.values().real * jets[a] * jets[b] for co, a, b in F.terms), 0.0 * g.x)
        return np.where(g.dealias_mask, hat(values), 0.0)

    beam = products([(-sys.b, 4)] + sys.B_terms, y) + sys.alpha * yt.values()
    wave = products([(sys.c, 2)] + sys.C_terms, th) + sys.beta * tht.values()
    du = np.array([u[1], hat(beam) + F_hat(sys.F1), u[3], hat(wave) + F_hat(sys.F2)])
    du[3, 0] += sys.delta * np.sin(t)
    return du, jets


def on_every_mode(g, u):
    """u (4, n//2 + 1) plus a seeded real state on every mode but n/2, decaying as
    1e-4 / (1 + j^2)."""
    rng = np.random.default_rng(g.n)
    decay = 1e-4 / (1.0 + np.arange(g.n // 2 + 1.0) ** 2)
    return u + [half(transform(g, rng.standard_normal(g.n)).coeffs) * decay for _ in u]


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("name", PRESETS + ("variable",))
def test_the_half_layout_stage_agrees_with_the_full_layout(name, n):
    # a real state's j >= 0 half (4, n//2 + 1) maps to the half of the
    # derivative that the full layout's grid products give (``full_layout_stage``)
    # on modes 0..n/2-1 (the Nyquist slot: the next test), and its jets are the
    # full layout's, as real values; the initial data plus a real state on
    # every mode, so that the dealias mask acts
    sys, u = system_and_state(name, n)
    g = sys.grid
    u = on_every_mode(g, u)
    full, full_jets = full_layout_stage(sys, g.full(u), 0.3)
    got = sys.real_rhs(u, 0.3)
    assert got.shape == u.shape
    assert np.max(np.abs(got[:, :-1] - full[:, : n // 2])) <= 1e-14 * np.max(np.abs(full))
    lin = sys.linear_rhs(u)
    # the linear part alone: the same document without F1, F2 and the forcing
    linear = BridgeSystem(g, **dict(document(name), F1=(), F2=(), delta=0.0))
    full_lin, _ = full_layout_stage(linear, g.full(u), 0.3)
    assert np.max(np.abs(lin[:, :-1] - full_lin[:, : n // 2])) <= 1e-14 * np.max(np.abs(full_lin))
    jets = sys.jets(u[0], u[2], slots=range(6))
    assert jets.dtype == float and jets.shape == full_jets.shape
    assert np.max(np.abs(jets - full_jets)) <= 1e-14 * np.max(np.abs(full_jets))


def test_the_half_stage_nyquist_slot_is_that_of_the_real_state_the_half_holds():
    # The Nyquist slot of a fluctuating product aliases the products of modes
    # +-(n/2 - 1): the half stage's rfft reads the real grid values, as the
    # full layout's fft does, so on the variable system at N = 64, on a state
    # with every mode but n/2, the half stage's Nyquist slot is the full
    # layout's mode -n/2, and real
    n = 64
    sys, u = system_and_state("variable", n)
    u = on_every_mode(sys.grid, u)
    got, (full, _) = sys.real_rhs(u, 0.3), full_layout_stage(sys, sys.grid.full(u), 0.3)
    scale = np.max(np.abs(full))
    assert np.max(np.abs(got - full[:, : n // 2 + 1])) <= 1e-14 * scale
    assert abs(got[1, -1]) > 1e-3 * scale  # the aliased slot is not empty
    assert np.all(got[:, -1].imag == 0.0)  # rfft's Nyquist slot of a real function


@pytest.mark.parametrize("name, calls", [
    ("headline", [("irfft", 1), ("rfft", 1)]),  # F2 = theta_xx^2: one slot, one live F
    ("mixed", [("irfft", 3), ("rfft", 1), ("rfft", 1)]),  # slots 2, 4, 5 in one call; F1, F2
    ("variable", [("irfft", 4), ("rfft", 2), ("irfft", 3), ("rfft", 1), ("rfft", 1)]),
])
def test_the_half_stage_makes_one_irfft_and_one_rfft_per_live_F(name, calls, fft_calls_of):
    # and no complex transform; the variable system's linear part adds its
    # fluctuation rows' pair first (b, c and one B and one C term: four rows,
    # summed into two unknowns)
    sys, u = system_and_state(name, 32)
    assert fft_calls_of(sys.real_rhs, u, 0.0) == calls


@pytest.mark.parametrize("slots", [None, [5], [2, 3, 4], [0, 2, 5], range(6), []])
@pytest.mark.parametrize("layout", ["half"])  # the one layout jets read
def test_jets_leave_every_unread_slot_nan_in_both_layouts(layout, slots):
    # the read slots are finite real jet values, the others NaN, never a silent zero
    sys, u = system_and_state("mixed", 32)
    jets = sys.jets(u[0], u[2], slots=slots)
    read = sys.jet_slots if slots is None else list(slots)
    assert jets.shape == (6, 32) and jets.dtype == float
    assert np.all(np.isfinite(jets[read]))
    assert np.all(np.isnan(jets[[h for h in range(6) if h not in read]]))
    assert np.array_equal(jets[read], sys.jets(u[0], u[2], slots=range(6))[read])


@pytest.mark.parametrize("name", PRESETS)
def test_a_preset_document_as_keywords_is_the_preset_bit_for_bit(name):
    # BridgeSystem is the one coercion of a system document: its fields as
    # keyword arguments give the preset's stage on a state on every mode
    g = TorusGrid(32)
    preset, fields = build_preset(name, g)
    u = on_every_mode(g, real_fields(fields))
    got = BridgeSystem(g, **PRESET_SYSTEMS[name]).real_rhs(u, 0.3)
    assert np.array_equal(got, preset.real_rhs(u, 0.3))


def test_json_roundtrip():
    g = TorusGrid(16)
    sys = BridgeSystem(g, 1.0, 1.0, F2=[(1.0, 5, 5)], alpha=-0.25, delta=0.5)
    doc = {"b": [1.0] * g.n, "c": "constant:1.0",
           "B_terms": [], "C_terms": [], "alpha": -0.25, "beta": 0.0,
           "delta": 0.5, "F1": [], "F2": [[[1.0] * g.n, 5, 5]]}
    back = bridge_system_from_json(doc, g)
    y = transform(g, np.cos(g.x))
    th = transform(g, np.sin(2 * g.x))
    z = np.zeros(g.n, dtype=complex)
    u = half(np.array([y.coeffs, z, th.coeffs, z]))
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
        bridge_system_from_json(json.loads(text), TorusGrid(16))


def test_the_python_api_refuses_a_non_finite_coefficient():
    g = TorusGrid(16)
    for kw, field in (({"b": np.nan}, "b"), ({"c": np.where(g.x > 1.0, np.nan, 1.0)}, "c"),
                      ({"delta": np.inf}, "delta")):
        with pytest.raises(ConfigError, match=field):
            BridgeSystem(g, **{"b": 1.0, "c": 1.0, **kw})
    with pytest.raises(ConfigError, match="not finite"):
        QuadraticNonlinearity(g, [(np.inf, 2, 5)])


def test_profile_strings():
    doc = {"n": 16, "b": "constant:2.0", "c": "cosine:0.1"}
    sys = bridge_system_from_json(doc, TorusGrid(16))
    assert np.max(np.abs(sys.b.values().real - 2.0)) < 1e-12
    g = sys.grid
    assert np.max(np.abs(sys.c.values().real - (1.0 + 0.1 * np.cos(g.x)))) < 1e-12


@pytest.mark.parametrize("n", [42, 98, 100])
def test_arioli_gazzola_is_an_exactly_constant_elliptic_system(n):
    # its constants hold no round-off off the mean, also at N where a grid
    # transform of the constant samples leaves some: the linear part acts by
    # its symbol alone, and A(0)'s beam and wave blocks are held by their diagonals
    g = TorusGrid(n)
    sys, _ = build_preset("arioli_gazzola", g)
    for coeff in [sys.b, sys.c] + [coeff for coeff, _ in sys.B_terms + sys.C_terms]:
        assert not np.any(coeff.coeffs[1:])
    assert sys._row_unknown.size == 0
    _, ((bb, _), (_, ww)) = ParalinearizedSystem(sys, g).frak_A(None)
    assert bb.ndim == 1 and ww.ndim == 1
    c1, c2 = sys.check_ellipticity()
    assert c1 > 0 and c2 > 0
