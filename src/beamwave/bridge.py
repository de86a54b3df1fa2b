"""The beam--wave suspension-bridge system on the torus.

    y_tt     = B_cal y + F1(jet) + alpha y_t
    theta_tt = W_cal theta + F2(jet) + beta theta_t + delta sin t

with B_cal = -b(x) d_x^4 + B, W_cal = c(x) d_x^2 + C, B and C finite sums
of coefficient * d_x^k with k <= 2, and F1, F2 quadratic homogeneous in the
jet (y, y_x, y_xx, theta, theta_x, theta_xx).  Nonlinearities are stored as
explicit term lists so their partial derivatives (needed by the
paralinearization symbols and the parity/radius checks) are exact.  A real
state (y, y_t, theta, theta_t) is held by the j >= 0 half (4, ..., n//2 + 1)
of its coefficients (``np.fft.rfft``'s layout, Nyquist as +n/2).  ``force``
maps its positions (y, theta) to its accelerations less damping and forcing,
one new array that the linear part, the jets and the dealiased F's write into
through ``irfft``/``rfft``; ``real_rhs``, the derivative, is built on it.
"""

import numbers
from functools import cached_property

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
        form = "[profile, slot, slot], each slot an integer 0..5"
        self.terms = [(_profile_to_function(grid, coeff),
                       *(_integer(h, 5, "a jet slot") for h in (ia, ib)))
                      for coeff, ia, ib in _entries(terms, 3, form)]
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
    """Coefficients, lower-order operators, damping, forcing, nonlinearities,
    each field in its system document's form.

    The linear part (B_cal y, W_cal theta) is one pseudo-spectral action on
    the positions, ``linear_force``: each product coeff(x) d_x^k of
    B_cal and W_cal splits into its mean coeff^(0) (ij)^k, summed per unknown
    into one diagonal symbol, and its fluctuation coeff - coeff^(0); only the
    nonzero fluctuations act on the grid, in one inverse and one forward FFT.
    ``jets`` transforms only the slots F1 and F2 read (``jet_slots``).
    """

    def __init__(self, grid, b=1.0, c=1.0, B_terms=(), C_terms=(), alpha=0.0, beta=0.0,
                 delta=0.0, F1=(), F2=()):
        self.grid = grid
        # each field coerced here, once, a malformed one a ConfigError naming it
        self.b = _coerce("b", _profile_to_function, grid, b)
        self.c = _coerce("c", _profile_to_function, grid, c)
        self.B_terms = _coerce("B_terms", _bounded_terms, grid, B_terms)
        self.C_terms = _coerce("C_terms", _bounded_terms, grid, C_terms)
        self.alpha = _coerce("alpha", _finite, alpha)
        self.beta = _coerce("beta", _finite, beta)
        self.delta = _coerce("delta", _finite, delta)
        self.F1 = _coerce("F1", QuadraticNonlinearity, grid, F1)
        self.F2 = _coerce("F2", QuadraticNonlinearity, grid, F2)
        # the products of B_cal = -b d^4 + B and W_cal = c d^2 + C per unknown
        # (0 = y, 1 = theta); a row with a nonzero fluctuation keeps its
        # unknown, the fluctuation's grid values and the multiplier (ij)^k
        parts = ([(-self.b, 4)] + self.B_terms, [(self.c, 2)] + self.C_terms)
        rows = [(u, coeff, k) for u, part in enumerate(parts) for coeff, k in part
                if np.any(coeff.coeffs[1:])]
        self._row_unknown = np.array([u for u, _, _ in rows], dtype=int)
        self._unknowns, self._row_starts = np.unique(self._row_unknown, return_index=True)
        self.damping = np.array([[self.alpha], [self.beta]])  # of y_t and theta_t
        self._c_values = np.real(self.c.values())  # read by every wave margin
        self.jet_slots = sorted({h for F in (self.F1, self.F2) for t in F.terms for h in t[1:]})
        # each F with terms and the acceleration, of y (0) or theta (1), it adds to
        self._live_F = [(F, row) for F, row in ((self.F1, 0), (self.F2, 1)) if F.terms]
        # on the half layout (module docstring): modes 0..n/2
        d = 1j * np.arange(grid.n // 2 + 1.0)
        mask = np.arange(d.size) <= grid.dealias_cut
        self._symbol = np.array([sum(co.coeffs[0] * d**k for co, k in part) for part in parts])
        self._row_mult = np.array([d**k for _, _, k in rows])
        self._row_values = np.array([coeff.values() - coeff.coeffs[0] for _, coeff, _ in rows]).real
        self._jet_mult = [np.where(mask, p, 0j) for p in (1.0, d, d**2)] * 2

    @cached_property
    def _held(self):
        """``force``'s buffers for a pair of states, formed on first use: the jets
        (unread rows NaN from then on) and F's grid values and hat."""
        n = self.grid.n
        return np.full((6, 2, n), np.nan), (np.empty((2, n)), np.empty((2, n // 2 + 1), complex))

    # -- right-hand side ---------------------------------------------

    def jets(self, y_hat, th_hat, slots=None, out=None):
        """Dealias-projected real jet values (6, ..., n) from halves (..., n//2 + 1)
        at ``slots`` (default ``jet_slots``), in one ``irfft`` into their rows;
        every other slot is NaN, never a silent zero.  The rows go into ``out``,
        a buffer whose other rows are NaN already (``force``'s held one), or,
        by default, into a new array."""
        slots = self.jet_slots if slots is None else sorted(slots)
        if out is None:
            out = np.full((6,) + y_hat.shape[:-1] + (self.grid.n,), np.nan)
        if slots:
            lo, hi = slots[0], slots[-1] + 1
            rows = np.empty((len(slots),) + y_hat.shape, dtype=complex)
            for row, slot in zip(rows, slots):
                np.multiply((y_hat, th_hat)[slot // 3], self._jet_mult[slot], out=row)
            if hi - lo == len(slots):  # one block of rows
                np.fft.irfft(rows, self.grid.n, norm="forward", out=out[lo:hi])
            else:
                out[slots] = np.fft.irfft(rows, self.grid.n, norm="forward")
        return out

    def add_nonlinearity_hats(self, jets, acc, buffers=None):
        """Add the dealiased coefficients of F1, F2 at the jet values ``jets``
        (6, ..., n) to the accelerations acc (2, ..., n//2 + 1) of y and theta,
        modes 0..n/3; an F without terms is not transformed.  F's grid values
        (..., n) and hat (..., n//2 + 1) go into ``buffers`` (``force``'s held
        pair) or, by default, into new arrays."""
        # one F at a time, in one buffer: on a Kato sweep's trajectory a batch of
        # both F's and its FFT set the sweep's memory peak
        values, hat = buffers or (np.empty(jets.shape[1:]), np.empty(acc.shape[1:], complex))
        cut = self.grid.dealias_cut + 1
        for F, row in self._live_F:
            np.fft.rfft(F.evaluate(jets, values), norm="forward", out=hat)
            acc[row, ..., :cut] += hat[..., :cut]  # dealiased

    def linear_force(self, x):
        """(B_cal y, W_cal theta) as one new array, from positions x = (y, theta)
        (2, ..., n//2 + 1).  Fluctuations multiply on the grid without
        dealiasing: each coeff d^k acts as the circulant of coeff times (ij)^k."""
        lead = (-1,) + (1,) * (x.ndim - 2)
        acc = self._symbol.reshape(lead + (x.shape[-1],)) * x
        if self._row_unknown.size:
            rows = x[self._row_unknown]
            rows *= self._row_mult.reshape(lead + (x.shape[-1],))
            # rfft(f * irfft(u) * n) / n: the factors n cancel; one temporary at a time
            rows = np.fft.irfft(rows, self.grid.n)
            rows *= self._row_values.reshape(lead + (self.grid.n,))
            acc[self._unknowns] += np.fft.rfft(np.add.reduceat(rows, self._row_starts))
        return acc

    def force(self, x):
        """(B_cal y + F1, W_cal theta + F2) at positions x = (y, theta) (2, ...,
        n//2 + 1), one new array; a pair (2, 2, n//2 + 1), each oracle call, writes
        its jets and F's values and hat into buffers the system holds."""
        acc = self.linear_force(x)
        if self._live_F:
            pair = x.shape[1:] == (2, self.grid.n // 2 + 1)
            jets, buffers = self._held if pair else (None, None)
            self.add_nonlinearity_hats(self.jets(x[0], x[1], out=jets), acc, buffers)
        return acc

    def real_rhs(self, u, t):
        """The derivative (y_t, y_tt, theta_t, theta_tt) at time t as one new array,
        from real states u (4, ..., n//2 + 1): ``force`` of their positions, the
        damping of their velocities and the forcing."""
        du = np.empty(u.shape, dtype=complex)
        du[0::2] = u[1::2]
        du[1::2] = self.force(u[0::2]) + self.damping.reshape((2,) + (1,) * (u.ndim - 1)) * u[1::2]
        if self.delta != 0.0:
            du[3, ..., 0] += self.forcing(t)
        return du

    def forcing(self, t):
        """delta sin t, the acceleration of theta's mean mode at times t, which
        both solvers read: the oracle's step and ``ParalinearizedSystem.forcing_G``."""
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
            if np.max(np.abs(2.0 * self.linear_force(np.array([s, s])).real)) > 1e-9:
                return False
        return True


def _coerce(field, coerce, *args):
    """``coerce(*args)``, the one coercion of system field ``field``; a
    TypeError or ValueError it raises is a ConfigError naming the field."""
    try:
        return coerce(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError("system field %r is malformed: %s" % (field, exc)) from None


def _profile_to_function(grid, profile):
    """A coefficient profile -> SpectralFunction: "constant:v", "cosine:amp"
    (1 + amp cos x), a number or an array of n samples; any other form is a
    ConfigError that lists these, and one not finite a ConfigError too."""
    try:
        if isinstance(profile, str):  # a named profile: its constant or its samples
            name, _, arg = profile.partition(":")
            amp = float(arg) if arg else 1.0
            profile = {"constant": amp, "cosine": 1.0 + amp * np.cos(grid.x)}[name]
        arr = None if profile is None else np.asarray(profile)
    except (KeyError, TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.shape not in ((), (grid.n,)):
        raise ConfigError('a profile is "constant:v", "cosine:amp", a number or an array '
                          "of n = %d samples" % grid.n)
    arr = arr.astype(float)
    fun = transform(grid, arr) if arr.ndim else SpectralFunction.constant(grid, float(arr))
    if not np.all(np.isfinite(fun.coeffs)):
        raise ConfigError("a coefficient is not finite")
    return fun


def _bounded_terms(grid, terms):
    """The (coefficient profile, k) pairs of B or C, each k of order 0..2."""
    return [(_profile_to_function(grid, coeff), _integer(k, 2, "a derivative order k"))
            for coeff, k in _entries(terms, 2, "[profile, k], k an integer 0..2")]


def _entries(terms, size, form):
    """The entries of a term list, each a tuple of ``size`` items; a list or
    an entry of another shape is a ConfigError that gives their ``form``."""
    try:
        entries = [tuple(entry) for entry in terms]
    except TypeError:
        entries = None
    if entries is None or any(len(entry) != size for entry in entries):
        raise ConfigError("a term list holds entries %s" % form)
    return entries


def _integer(value, top, what):
    """A derivative order or a jet slot, an integer 0..top: a float with an
    integer value is one; a bool, a fraction or any other value is a
    ConfigError (``int`` would truncate)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or not 0 <= value <= top):
        raise ConfigError("%s is an integer 0..%d, not %r" % (what, top, value))
    return int(value)


def _finite(value):
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError("%r is not finite" % value)
    return value


# the fields a system document may hold, BridgeSystem's parameters; ``n`` is the CLI's
SYSTEM_FIELDS = ("b", "c", "B_terms", "C_terms", "alpha", "beta", "delta", "F1", "F2")


def bridge_system_from_json(doc, grid):
    """Build a BridgeSystem on ``grid`` from a parsed system document (a dict),
    each omitted field BridgeSystem's default (b and c the constant 1).  A
    field the program does not read, or one of the wrong type or shape, is a
    ConfigError naming it."""
    unknown = sorted(set(doc) - set(SYSTEM_FIELDS) - {"n"})
    if unknown:
        raise ConfigError("unknown system field(s) %s: the fields are %s and n"
                          % (", ".join(map(repr, unknown)), ", ".join(SYSTEM_FIELDS)))
    return BridgeSystem(grid, **{name: value for name, value in doc.items() if name != "n"})
