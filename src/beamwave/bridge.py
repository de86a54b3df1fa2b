"""The beam--wave suspension-bridge system on the torus.

    y_tt     = B_cal y + F1(jet) + alpha y_t
    theta_tt = W_cal theta + F2(jet) + beta theta_t + delta sin t

with B_cal = -b(x) d_x^4 + B, W_cal = c(x) d_x^2 + C, B and C finite sums
of coefficient * d_x^k with k <= 2, and F1, F2 quadratic homogeneous in the
jet (y, y_x, y_xx, theta, theta_x, theta_xx).  Nonlinearities are stored as
explicit term lists so their partial derivatives (needed by the
paralinearization symbols and the parity/radius checks) are exact.  The
stage ``real_rhs`` maps a real state (y, y_t, theta, theta_t), held by the
j >= 0 half (4, ..., n//2 + 1) of its coefficients (``np.fft.rfft``'s layout,
Nyquist as +n/2), to its derivative, one new array that the linear part, the
jets and the dealiased F's write into through ``irfft``/``rfft``.
"""

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
        self.terms = [(_profile_to_function(grid, coeff), int(ia), int(ib))
                      for coeff, ia, ib in terms]
        if any(not (0 <= ia < 6 and 0 <= ib < 6) for _, ia, ib in self.terms):
            raise ConfigError("jet slots must be in 0..5")
        # each coefficient's real grid values, transformed once
        self._values = [(np.real(co.values()), ia, ib) for co, ia, ib in self.terms]

    def evaluate(self, jets, out):
        """Grid values of F at jet values ``jets`` (6, ..., n), written into
        ``out`` (..., n): its first term, the rest added."""
        if not self._values:
            out.fill(0.0)
        for i, (cv, ia, ib) in enumerate(self._values):
            term = np.multiply(cv * jets[ia], jets[ib], out=None if i else out)
            if i:
                out += term
        return out

    def partial_values(self, slot, jets, out):
        """Grid values of dF/dh_slot at the jet (6, ..., n) (affine in the jet),
        added to ``out`` (..., n)."""
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
            if not np.max(np.abs(coeff.coeffs[coeff.grid.reflect] - coeff.coeffs)) <= 1e-10:
                return False  # coeff(-j) != coeff(j): not even
        return True


class BridgeSystem:
    """Coefficients, lower-order operators, damping, forcing, nonlinearities.

    The linear part (B_cal y + alpha y_t, W_cal theta + beta theta_t) is one
    pseudo-spectral action, ``linear_rhs``: each product coeff(x) d_x^k of
    B_cal and W_cal splits into its mean coeff^(0) (ij)^k, summed per unknown
    into one diagonal symbol, and its fluctuation coeff - coeff^(0); only the
    nonzero fluctuations act on the grid, in one inverse and one forward FFT.
    ``jets`` transforms only the slots F1 and F2 read (``jet_slots``).
    """

    def __init__(self, grid, b=1.0, c=1.0, B_terms=(), C_terms=(), alpha=0.0, beta=0.0,
                 delta=0.0, F1=None, F2=None):
        self.grid = grid
        # each field coerced here, once, a malformed one a ConfigError naming it
        self.b = _coerce("b", _profile_to_function, grid, b)
        self.c = _coerce("c", _profile_to_function, grid, c)
        self.B_terms = _coerce("B_terms", _bounded_terms, grid, B_terms)
        self.C_terms = _coerce("C_terms", _bounded_terms, grid, C_terms)
        self.alpha = _coerce("alpha", _finite, alpha)
        self.beta = _coerce("beta", _finite, beta)
        self.delta = _coerce("delta", _finite, delta)
        self.F1 = F1 if F1 is not None else QuadraticNonlinearity(grid, ())
        self.F2 = F2 if F2 is not None else QuadraticNonlinearity(grid, ())
        # the products of B_cal = -b d^4 + B and W_cal = c d^2 + C per unknown
        # (0 = y, 1 = theta); a row with a nonzero fluctuation keeps its
        # unknown, the fluctuation's grid values and the multiplier (ij)^k
        parts = ([(-self.b, 4)] + self.B_terms, [(self.c, 2)] + self.C_terms)
        rows = [(u, coeff, k) for u, part in enumerate(parts) for coeff, k in part
                if np.any(coeff.coeffs[1:])]
        self._row_unknown = np.array([u for u, _, _ in rows], dtype=int)
        self._unknowns, self._row_starts = np.unique(self._row_unknown, return_index=True)
        self._damping = np.array([self.alpha, self.beta], dtype=complex)
        self._c_values = np.real(self.c.values())  # read by every wave margin
        self.jet_slots = sorted({h for F in (self.F1, self.F2) for t in F.terms for h in t[1:]})
        # each F with terms and the row of (y_t, y_tt, theta_t, theta_tt) it adds to
        self._live_F = [(F, row) for F, row in ((self.F1, 1), (self.F2, 3)) if F.terms]
        # on the half layout (module docstring): modes 0..n/2
        d = 1j * np.arange(grid.n // 2 + 1.0)
        self._mask = np.arange(d.size) <= grid.dealias_cut
        self._symbol = np.array([sum(co.coeffs[0] * d**k for co, k in part) for part in parts])
        self._row_mult = np.array([d**k for _, _, k in rows])
        self._row_values = np.array([coeff.values() - coeff.coeffs[0] for _, coeff, _ in rows]).real
        self._jet_mult = [np.where(self._mask, p, 0j) for p in (1.0, d, d**2)] * 2

    # -- right-hand side ---------------------------------------------

    def jets(self, y_hat, th_hat, slots=None):
        """Dealias-projected real jet values (6, ..., n) from halves (..., n//2 + 1)
        at ``slots`` (default ``jet_slots``), in one ``irfft`` into their rows;
        every other slot is NaN, never a silent zero."""
        slots = self.jet_slots if slots is None else sorted(slots)
        out = np.empty((6,) + y_hat.shape[:-1] + (self.grid.n,))
        lo, hi = (slots[0], slots[-1] + 1) if slots else (6, 6)
        out[:lo] = out[hi:] = np.nan
        if slots:
            rows = np.empty((len(slots),) + y_hat.shape, dtype=complex)
            for row, slot in zip(rows, slots):
                np.multiply((y_hat, th_hat)[slot // 3], self._jet_mult[slot], out=row)
            if hi - lo == len(slots):  # one block of rows
                np.fft.irfft(rows, self.grid.n, norm="forward", out=out[lo:hi])
            else:
                out[lo:hi] = np.nan
                out[slots] = np.fft.irfft(rows, self.grid.n, norm="forward")
        return out

    def add_nonlinearity_hats(self, jets, du):
        """Add the dealiased coefficients of F1, F2 at the jet values ``jets``
        (6, ..., n) to the accelerations du[1], du[3] of a derivative
        (4, ..., n//2 + 1); an F without terms is not transformed."""
        # one F at a time, in one buffer: on a Kato sweep's trajectory a batch of
        # both F's and its FFT set the sweep's memory peak
        values = np.empty(jets.shape[1:])
        hat = np.empty(du.shape[1:], dtype=complex)
        for F, row in self._live_F:
            np.fft.rfft(F.evaluate(jets, values), norm="forward", out=hat)
            np.add(du[row], hat, out=du[row], where=self._mask)  # dealiased

    def linear_rhs(self, u):
        """(y_t, B_cal y + alpha y_t, theta_t, W_cal theta + beta theta_t) as one
        new array, from real states u = (y, y_t, theta, theta_t), (4, ..., n//2 + 1).
        Fluctuations multiply on the grid without dealiasing: each coeff d^k acts
        as the circulant of coeff times (ij)^k."""
        du = np.empty(u.shape, dtype=complex)
        lead = (2,) + (1,) * (du.ndim - 2)
        du[0::2] = u[1::2]
        np.multiply(self._symbol.reshape(lead + (-1,)), u[0::2], out=du[1::2])
        if self.alpha or self.beta:
            du[1::2] += self._damping.reshape(lead + (1,)) * u[1::2]
        if self._row_unknown.size:
            rows = np.moveaxis(u[2 * self._row_unknown], 0, -2) * self._row_mult
            # rfft(f * irfft(u) * n) / n: the factors n cancel
            products = self._row_values * np.fft.irfft(rows, self.grid.n)
            sums = np.fft.rfft(np.add.reduceat(products, self._row_starts, axis=-2))
            du[2 * self._unknowns + 1] += np.moveaxis(sums, -2, 0)
        return du

    def real_rhs(self, u, t):
        """The derivative (y_t, y_tt, theta_t, theta_tt) at time t as one new array,
        from real states u (4, ..., n//2 + 1)."""
        du = self.linear_rhs(u)
        if self._live_F:
            self.add_nonlinearity_hats(self.jets(u[0], u[2]), du)
        if self.delta != 0.0:
            du[3, ..., 0] += self.forcing(t)
        return du

    def forcing(self, t):
        """delta sin t, the acceleration of theta's mean mode at times t, which
        both solvers read: ``real_rhs`` and ``ParalinearizedSystem.forcing_G``."""
        return self.delta * np.sin(t)

    # -- hypotheses ---------------------------------------------------

    def check_ellipticity(self):
        bv, cv = np.real(self.b.values()), self._c_values
        c1, c2 = float(np.min(bv)), float(np.min(cv))
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
            # sin jx as a half, exactly (the symbol, up to (n/2)^4, would multiply
            # the round-off of transform(sin jx)); odd: u_j + u_{-j} = 2 Re u_j = 0
            s = np.zeros(g.n // 2 + 1, dtype=complex)
            s[j] = -0.5j
            if np.max(np.abs(2.0 * self.linear_rhs(np.array([s, 0 * s, s, 0 * s])).real)) > 1e-9:
                return False
        return True


def _coerce(field, coerce, *args):
    """``coerce(*args)``, the one coercion of system field ``field``; a
    TypeError or ValueError it raises is a ConfigError naming the field."""
    try:
        return coerce(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError("system field %r is malformed: %s" % (field, exc)) from None


def _profile_to_function(grid, spec_value):
    """A coefficient profile -> SpectralFunction: "constant:v", "cosine:amp"
    (1 + amp cos x), a number or a sample array of length n (or a
    SpectralFunction); any other form, or one not finite, is a ConfigError."""
    if isinstance(spec_value, str):  # a named profile: its constant or its samples
        name, _, arg = spec_value.partition(":")
        if name not in ("constant", "cosine"):
            raise ConfigError("unknown profile %r" % spec_value)
        amp = float(arg) if arg else 1.0
        spec_value = amp if name == "constant" else 1.0 + amp * np.cos(grid.x)
    fun = spec_value
    if not isinstance(spec_value, SpectralFunction):
        arr = np.asarray(spec_value, dtype=float)
        if arr.ndim and arr.shape != (grid.n,):
            raise ConfigError("profile sample array must have length n = %d" % grid.n)
        fun = transform(grid, arr) if arr.ndim else SpectralFunction.constant(grid, float(arr))
    if not np.all(np.isfinite(fun.coeffs)):
        raise ConfigError("a coefficient is not finite")
    return fun


def _bounded_terms(grid, terms):
    """The (coefficient profile, k) pairs of B or C, each k of order 0..2."""
    terms = [(_profile_to_function(grid, coeff), int(k)) for coeff, k in terms]
    if any(not 0 <= k <= 2 for _, k in terms):
        raise ConfigError("bounded parts B, C only admit derivatives of order <= 2")
    return terms


def _finite(value):
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError("%r is not finite" % value)
    return value


# the fields a system document may hold, BridgeSystem's parameters; ``n`` is the CLI's
SYSTEM_FIELDS = ("b", "c", "B_terms", "C_terms", "alpha", "beta", "delta", "F1", "F2")


def bridge_system_from_json(doc, grid):
    """Build a BridgeSystem on ``grid`` from a parsed system document (a dict):
    F1 and F2 from their term lists [coefficient, slot, slot], each other
    field as BridgeSystem coerces it, and each omitted field BridgeSystem's
    default (b and c the constant 1).  A field the program does not read,
    or one of the wrong type or shape, is a ConfigError naming it."""
    unknown = sorted(set(doc) - set(SYSTEM_FIELDS) - {"n"})
    if unknown:
        raise ConfigError("unknown system field(s) %s: the fields are %s and n"
                          % (", ".join(map(repr, unknown)), ", ".join(SYSTEM_FIELDS)))
    fields = {name: _coerce(name, QuadraticNonlinearity, grid, value) if name in ("F1", "F2")
              else value for name, value in doc.items() if name != "n"}
    return BridgeSystem(grid, **fields)
