"""The beam--wave suspension-bridge system on the torus.

    y_tt     = B_cal y + F1(jet) + alpha y_t + gamma f_b(t)
    theta_tt = W_cal theta + F2(jet) + beta theta_t + delta f_w(t)

with B_cal = -b(x) d_x^4 + B, W_cal = c(x) d_x^2 + C, B and C finite sums
of coefficient * d_x^k with k <= 2, and F1, F2 quadratic homogeneous in the
jet (y, y_x, y_xx, theta, theta_x, theta_xx).  Nonlinearities are stored as
explicit term lists so their partial derivatives (needed by the
paralinearization symbols and the parity/radius checks) are exact.  The
stage ``real_rhs`` maps a real state (y, y_t, theta, theta_t) to its
derivative, one new array that the linear part, the jets and the dealiased
F's write into, in one of two layouts told by the last axis: n slots in fft
order, or rfft's n//2 + 1 of real functions (Nyquist as +n/2), real on the grid.
"""

from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, PreconditionError
from .grid import SpectralFunction, transform

# jet slot order and parity sign under (x, y, theta) -> (-x, -y, -theta)
JET_NAMES = ("y", "y_x", "y_xx", "theta", "theta_x", "theta_xx")
JET_PARITY = (-1, +1, -1, -1, +1, -1)


class QuadraticNonlinearity:
    """F(x, h1..h6) = sum c_ab(x) h_a h_b, homogeneous of degree 2."""

    def __init__(self, grid, terms):
        self.grid = grid
        self.terms = []
        for coeff, ia, ib in terms:
            ia, ib = int(ia), int(ib)
            if not (0 <= ia < 6 and 0 <= ib < 6):
                raise ConfigError("jet slots must be in 0..5")
            self.terms.append((_profile_to_function(grid, coeff), ia, ib))
        # each coefficient's real grid values, transformed once
        self._values = [(np.real(co.values()), ia, ib) for co, ia, ib in self.terms]

    def evaluate(self, jets, out=None):
        """Grid values of F at jet values ``jets`` (6, ..., n), of their dtype,
        written into ``out`` (..., n) if given: its first term, the rest added."""
        out = np.empty(jets.shape[1:], dtype=jets.dtype) if out is None else out
        if not self._values:
            out.fill(0.0)
        for i, (cv, ia, ib) in enumerate(self._values):
            term = np.multiply(cv * jets[ia], jets[ib], out=None if i else out)
            if i:
                out += term
        return out

    def partial_values(self, slot, jets, out=None):
        """Grid values of dF/dh_slot at the jet (6, ..., n) (affine in the jet),
        added to ``out`` (..., n) if given."""
        out = np.zeros(jets.shape[1:], dtype=complex) if out is None else out
        for cv, ia, ib in self._values:
            if ia == slot:
                out += cv * jets[ib]
            if ib == slot:
                out += cv * jets[ia]
        return out

    def partial_affine_bounds(self, slot, R):
        """Min over |h_i| <= R of dF/dh_slot, exactly, per grid point.

        dF/dh_slot is affine in h; the minimum over the box is attained at a
        sign corner, so it equals -R * sum |c-contributions| pointwise.
        """
        acc = np.zeros(self.grid.n)
        for cv, ia, ib in self._values:
            acc += np.abs(cv.real) * ((ia == slot) + (ib == slot))
        return -R * acc

    def parity_sign_ok(self):
        """Each term must be odd under the jet sign flip: sign_a*sign_b = -1,
        with an even spatial coefficient."""
        for coeff, ia, ib in self.terms:
            if JET_PARITY[ia] * JET_PARITY[ib] != -1:
                return False
            if not _has_parity(coeff.grid, coeff.coeffs, +1):
                return False
        return True


def _has_parity(grid, coeffs, sign, tol=1e-10):
    """True iff coeffs(-j) = sign * coeffs(j) within tol: an even (+1) or odd (-1) function."""
    return float(np.max(np.abs(coeffs[grid.reflect] - sign * coeffs))) <= tol


class BridgeSystem:
    """Coefficients, lower-order operators, damping, forcing, nonlinearities.

    The linear part (B_cal y + alpha y_t, W_cal theta + beta theta_t) is one
    pseudo-spectral action, ``linear_rhs``: each product coeff(x) d_x^k of
    B_cal and W_cal splits into its mean coeff^(0) (ij)^k, summed per unknown
    into one diagonal symbol, and its fluctuation coeff - coeff^(0); only the
    nonzero fluctuations act on the grid, in one inverse and one forward FFT.
    ``jets`` transforms only the slots F1 and F2 read (``jet_slots``).
    """

    def __init__(
        self,
        grid,
        b,
        c,
        B_terms=(),
        C_terms=(),
        alpha=0.0,
        beta=0.0,
        gamma=0.0,
        delta=0.0,
        f_b=None,
        f_w=None,
        F1=None,
        F2=None,
    ):
        self.grid = grid
        self.b = _profile_to_function(grid, b, "b")
        self.c = _profile_to_function(grid, c, "c")
        self.B_terms = [(_profile_to_function(grid, coeff), int(k)) for coeff, k in B_terms]
        self.C_terms = [(_profile_to_function(grid, coeff), int(k)) for coeff, k in C_terms]
        for _, k in self.B_terms + self.C_terms:
            if k > 2 or k < 0:
                raise ConfigError("bounded parts B, C only admit derivatives of order <= 2")
        self.alpha, self.beta, self.gamma, self.delta = map(float, (alpha, beta, gamma, delta))
        for name in ("alpha", "beta", "gamma", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite, got %r" % (name, getattr(self, name)))
        self.f_b = f_b if f_b is not None else (lambda t: 0.0)
        self.f_w = f_w if f_w is not None else np.sin
        self.F1 = F1 if F1 is not None else QuadraticNonlinearity(grid, ())
        self.F2 = F2 if F2 is not None else QuadraticNonlinearity(grid, ())
        # the products of B_cal = -b d^4 + B and W_cal = c d^2 + C per unknown
        # (0 = y, 1 = theta); a row with a nonzero fluctuation keeps its
        # unknown, the fluctuation's grid values and the multiplier (ij)^k
        parts = ([(-self.b, 4)] + self.B_terms, [(self.c, 2)] + self.C_terms)
        rows = [(u, coeff, k) for u, part in enumerate(parts) for coeff, k in part
                if np.any(coeff.coeffs[1:])]
        self._row_unknown = np.array([u for u, _, _ in rows], dtype=int)
        values = np.array([coeff.values() - coeff.coeffs[0] for _, coeff, _ in rows])
        self._unknowns, self._row_starts = np.unique(self._row_unknown, return_index=True)
        self._damping = np.array([self.alpha, self.beta], dtype=complex)
        self._c_values = np.real(self.c.values())  # read by every wave margin
        self.jet_slots = sorted({h for F in (self.F1, self.F2) for t in F.terms for h in t[1:]})
        # each F with terms and the row of (y_t, y_tt, theta_t, theta_tt) it adds to
        self._live_F = [(F, row) for F, row in ((self.F1, 1), (self.F2, 3)) if F.terms]
        # per layout (module docstring), by its length; at n = 2 the full one is kept
        self._layout = {}
        for modes, real in ((np.arange(grid.n // 2 + 1), True), (grid.modes, False)):
            d, mask = 1j * modes.astype(float), np.abs(modes) <= grid.dealias_cut
            self._layout[modes.size] = SimpleNamespace(
                symbol=np.array([sum(co.coeffs[0] * d**k for co, k in part) for part in parts]),
                row_mult=np.array([d**k for _, _, k in rows]), mask=mask,
                row_values=values.real if real else values, dtype=float if real else complex,
                jet_mult=[np.where(mask, p, 0j) for p in (1.0, d, d**2)] * 2,
                inverse=np.fft.irfft if real else np.fft.ifft,
                forward=np.fft.rfft if real else np.fft.fft)

    # -- right-hand side ---------------------------------------------

    def jets(self, y_hat, th_hat, slots=None):
        """Dealias-projected jet values (6, ..., n) from coefficients (..., n) or
        (..., n//2 + 1) at ``slots`` (default ``jet_slots``), in one inverse FFT
        into their rows; every other slot is NaN, never a silent zero."""
        lay = self._layout[y_hat.shape[-1]]
        slots = self.jet_slots if slots is None else sorted(slots)
        out = np.empty((6,) + y_hat.shape[:-1] + (self.grid.n,), dtype=lay.dtype)
        lo, hi = (slots[0], slots[-1] + 1) if slots else (6, 6)
        out[:lo] = out[hi:] = np.nan
        if slots:
            rows = np.empty((len(slots),) + y_hat.shape, dtype=complex)
            for row, slot in zip(rows, slots):
                np.multiply((y_hat, th_hat)[slot // 3], lay.jet_mult[slot], out=row)
            if hi - lo == len(slots):  # one block of rows
                lay.inverse(rows, self.grid.n, norm="forward", out=out[lo:hi])
            else:
                out[lo:hi] = np.nan
                out[slots] = lay.inverse(rows, self.grid.n, norm="forward")
        return out

    def add_nonlinearity_hats(self, jets, du):
        """Add the dealiased Fourier coefficients of F1, F2 at the jet values
        ``jets`` (6, ..., n) to the accelerations du[1], du[3] of a derivative
        (4, ..., n) or (4, ..., n//2 + 1); an F without terms is not transformed."""
        lay = self._layout[du.shape[-1]]
        # one F at a time, in one buffer: on a Kato sweep's trajectory a batch of
        # both F's and its FFT set the sweep's memory peak
        values = np.empty(jets.shape[1:], dtype=jets.dtype)
        hat = np.empty(du.shape[1:], dtype=complex) if lay.dtype is float else values
        for F, row in self._live_F:
            lay.forward(F.evaluate(jets, values), norm="forward", out=hat)
            np.add(du[row], hat, out=du[row], where=lay.mask)  # dealiased

    def linear_rhs(self, u):
        """(y_t, B_cal y + alpha y_t, theta_t, W_cal theta + beta theta_t) as one
        new array, from real states u = (y, y_t, theta, theta_t), (4, ..., n) (may
        be complex) or (4, ..., n//2 + 1).  Fluctuations multiply on the grid without
        dealiasing: each coeff d^k acts as the circulant of coeff times (ij)^k."""
        lay = self._layout[u.shape[-1]]
        du = np.empty(u.shape, dtype=complex)
        lead = (2,) + (1,) * (du.ndim - 2)
        du[0::2] = u[1::2]
        np.multiply(lay.symbol.reshape(lead + (-1,)), u[0::2], out=du[1::2])
        if self.alpha or self.beta:
            du[1::2] += self._damping.reshape(lead + (1,)) * u[1::2]
        if self._row_unknown.size:
            rows = np.moveaxis(u[2 * self._row_unknown], 0, -2) * lay.row_mult
            # fft(f * ifft(u) * n) / n: the factors n cancel
            products = lay.row_values * lay.inverse(rows, self.grid.n)
            sums = lay.forward(np.add.reduceat(products, self._row_starts, axis=-2))
            du[2 * self._unknowns + 1] += np.moveaxis(sums, -2, 0)
        return du

    def real_rhs(self, u, t):
        """The derivative (y_t, y_tt, theta_t, theta_tt) at time t as one new array,
        from real states u in either layout; a full-layout u (4, ..., n) may be
        complex (the analytic continuation the complexified system uses)."""
        du = self.linear_rhs(u)
        if self._live_F:
            self.add_nonlinearity_hats(self.jets(u[0], u[2]), du)
        if self.gamma != 0.0:
            du[1, ..., 0] += self.gamma * self.f_b(t)
        if self.delta != 0.0:
            du[3, ..., 0] += self.delta * self.f_w(t)
        return du

    # -- hypotheses ---------------------------------------------------

    def check_ellipticity(self):
        bv = np.real(self.b.values())
        cv = np.real(self.c.values())
        c1 = float(np.min(bv))
        c2 = float(np.min(cv))
        if c1 <= 0.0 or c2 <= 0.0:
            bad = self.grid.x[(bv <= 0) | (cv <= 0)]
            raise PreconditionError(
                "ellipticity violated: min b = %g, min c = %g at x in %s"
                % (c1, c2, np.array2string(bad[:5], precision=4))
            )
        return c1, c2

    def check_radius_condition(self, R):
        """c3 = min over the grid and |h_i| <= R of c(x) + dF2/dh6 (exact:
        the partial is affine in h, so corners suffice), refused if it is not
        positive: the ``wave_margin`` of the worst jet in the box."""
        if R <= 0:
            raise ConfigError("radius R must be positive")
        partial = self.F2.partial_affine_bounds(5, R)
        c3 = float(self.wave_margin(partial))
        if c3 <= 0.0:
            x = self.grid.x[int(np.argmin(self._c_values + partial))]
            raise PreconditionError("smallness radius violated: c(x) + dF2/d(theta_xx) "
                                    "reaches %g at x = %g" % (c3, x))
        return c3

    def wave_margin(self, partial):
        """min over the grid of c(x) + dF2/d(theta_xx), per row (...) of the grid
        values ``partial`` (..., n) of dF2/d(theta_xx): at a jet's values
        (``F2.partial_values(5, jets)``) the exact wave ellipticity 1 + 2 a_w
        that the smallness radius guarantees for every jet in its box."""
        return np.min(self._c_values + np.real(partial), axis=-1)

    def check_parity(self):
        """True iff the system preserves odd (Dirichlet/hinged) data."""
        if not (self.F1.parity_sign_ok() and self.F2.parity_sign_ok()):
            return False
        g = self.grid
        for j in range(1, min(5, g.n // 2)):
            # sin jx = (e^{ijx} - e^{-ijx}) / 2i, exactly: the symbol, up to
            # (n/2)^4, would multiply the round-off of transform(sin jx)
            s = np.zeros(g.n, dtype=complex)
            s[j], s[-j] = -0.5j, 0.5j
            for out in self.linear_rhs(np.array([s, 0.0 * s, s, 0.0 * s])):
                if not _has_parity(g, out, -1, tol=1e-9):
                    return False
        return True


def _profile_to_function(grid, spec_value, field="a coefficient"):
    """Named profile, constant, sample array or callable -> SpectralFunction;
    one that is not finite is a ConfigError naming ``field``."""
    fun = spec_value
    if callable(spec_value):
        fun = transform(grid, np.asarray(spec_value(grid.x), dtype=float))
    elif isinstance(spec_value, str):
        name, _, arg = spec_value.partition(":")
        amp = float(arg) if arg else 1.0
        if name not in ("constant", "cosine"):
            raise ConfigError("unknown profile %r" % spec_value)
        fun = (SpectralFunction.constant(grid, amp) if name == "constant"
               else transform(grid, 1.0 + amp * np.cos(grid.x)))
    elif not isinstance(spec_value, SpectralFunction):
        arr = np.asarray(spec_value, dtype=float)
        if arr.ndim and arr.shape != (grid.n,):
            raise ConfigError("profile sample array must have length n = %d" % grid.n)
        fun = transform(grid, arr) if arr.ndim else SpectralFunction.constant(grid, float(arr))
    if not np.all(np.isfinite(fun.coeffs)):
        raise ConfigError("%s is not finite" % field)
    return fun


def bridge_system_from_json(doc, grid):
    """Build a BridgeSystem on ``grid`` from a parsed system document (a dict)."""

    def field(name, parse, default):
        """parse(doc[name]) (of ``default`` if absent); a value of the wrong
        type or shape is a ConfigError naming the field."""
        try:
            return parse(doc.get(name, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError("system field %r is malformed: %s" % (name, exc)) from None

    def profile(entry):
        if isinstance(entry, dict):
            entry = entry.get("profile", entry.get("values"))
            if entry is None:
                raise ValueError("an object needs a 'profile' or 'values' entry")
        return _profile_to_function(grid, 1.0 if entry is None else entry)

    def terms(entry):
        return [(_profile_to_function(grid, coeff), int(k)) for coeff, k in entry or ()]

    def quadratic(entry):
        return QuadraticNonlinearity(grid, entry or ())

    return BridgeSystem(
        grid,
        b=field("b", profile, None),
        c=field("c", profile, None),
        B_terms=field("B_terms", terms, ()),
        C_terms=field("C_terms", terms, ()),
        alpha=field("alpha", float, 0.0),
        beta=field("beta", float, 0.0),
        gamma=field("gamma", float, 0.0),
        delta=field("delta", float, 0.0),
        F1=field("F1", quadratic, ()),
        F2=field("F2", quadratic, ()),
    )


# -- Arioli-Gazzola preset --------------------------------------------


def arioli_gazzola_preset(
    grid,
    M_mass=10.0,
    m_mass=1.0,
    EI=1.0,
    GK=1.0,
    ell=1.0,
    H0=1.0,
    xi_profile=1.0,
    **system_kwargs,
):
    """Fish-bone bridge coefficients:

        b = EI/(M + 2 m xi),
        c = 3GK/(ell^2 (M + 6 m xi)) + 6 H0/(xi^2 (M + 6 m xi)),

    with the cable-tension operator d_x((2H0/xi^2) d_x .) expanded into the
    bounded parts B, C (all terms of order <= 2 after dividing by the mass
    densities)."""
    for name, v in (("M", M_mass), ("m", m_mass), ("EI", EI), ("GK", GK), ("ell", ell)):
        if v <= 0:
            raise ConfigError("physical constant %s must be positive" % name)
    if H0 < 0:
        raise ConfigError("H0 must be nonnegative")
    xi = _profile_to_function(grid, xi_profile)
    xi_v = np.real(xi.values())
    if np.min(xi_v) <= 0:
        raise ConfigError("xi profile must be strictly positive")
    mb = M_mass + 2 * m_mass * xi_v
    mw = (M_mass + 6 * m_mass * xi_v) / 3.0
    tau = 2.0 * H0 / xi_v**2
    tau_x = np.real(transform(grid, tau).deriv().values())
    b = transform(grid, EI / mb)
    c = transform(grid, GK / (ell**2 * mw) + tau / mw)
    B_terms = [(transform(grid, tau / mb), 2), (transform(grid, tau_x / mb), 1)]
    C_terms = [(transform(grid, tau_x / mw), 1)]
    return BridgeSystem(grid, b, c, B_terms=B_terms, C_terms=C_terms, **system_kwargs)
