"""The beam--wave suspension-bridge system on the torus.

    y_tt     = B_cal y + F1(jet) + alpha y_t + gamma f_b(t)
    theta_tt = W_cal theta + F2(jet) + beta theta_t + delta f_w(t)

with B_cal = -b(x) d_x^4 + B, W_cal = c(x) d_x^2 + C, B and C finite sums
of coefficient * d_x^k with k <= 2, and F1, F2 quadratic homogeneous in the
jet (y, y_x, y_xx, theta, theta_x, theta_xx).  Nonlinearities are stored as
explicit term lists so their partial derivatives (needed by the
paralinearization symbols and the parity/radius checks) are exact.
"""

import json

import numpy as np

from .errors import ConfigError, PreconditionError
from .grid import SpectralFunction, TorusGrid, transform
from .quantize import weyl_gather_index

# jet slot order and parity sign under (x, y, theta) -> (-x, -y, -theta)
JET_NAMES = ("y", "y_x", "y_xx", "theta", "theta_x", "theta_xx")
JET_PARITY = (-1, +1, -1, -1, +1, -1)


def _fft_raw(grid, values):
    """Forward transform without the real-field -n/2 zeroing; used on the
    right-hand-side path so grid products correspond exactly to circulant
    matrices."""
    return np.fft.fft(np.asarray(values, dtype=complex)) / grid.n


def _ifft_raw(grid, coeffs):
    return np.fft.ifft(np.asarray(coeffs, dtype=complex)) * grid.n


def mult_matrix(grid, f):
    """Circulant matrix of pointwise multiplication by f on the grid.

    C[j, k] = fhat[(j - k) mod n]; exactly reproduces fft(f * u)/n.
    """
    # coefficient slots are already indexed mod n in fft order
    return _fft_raw(grid, f.values())[weyl_gather_index(grid)]


def deriv_diag(grid, k):
    return (1j * grid.modes.astype(float)) ** k


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

    @classmethod
    def zero(cls, grid):
        return cls(grid, [])

    def is_zero(self):
        return not self.terms

    def evaluate(self, jets):
        """Grid values of F at jet values ``jets`` (shape (6, n))."""
        out = np.zeros(self.grid.n, dtype=complex)
        for coeff, ia, ib in self.terms:
            out += np.asarray(coeff.values(), dtype=complex) * jets[ia] * jets[ib]
        return out

    def partial_values(self, slot, jets):
        """Grid values of dF/dh_slot at the jet (affine in the jet)."""
        out = np.zeros(self.grid.n, dtype=complex)
        for coeff, ia, ib in self.terms:
            cv = np.asarray(coeff.values(), dtype=complex)
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
        for coeff, ia, ib in self.terms:
            cv = np.real(coeff.values())
            if ia == slot:
                acc += np.abs(cv)
            if ib == slot:
                acc += np.abs(cv)
        return -R * acc

    def parity_sign_ok(self):
        """Each term must be odd under the jet sign flip: sign_a*sign_b = -1,
        with an even spatial coefficient."""
        for coeff, ia, ib in self.terms:
            if JET_PARITY[ia] * JET_PARITY[ib] != -1:
                return False
            if not _is_even(coeff):
                return False
        return True


def _flip(u):
    """u(-x) as a SpectralFunction."""
    return SpectralFunction(u.grid, u.coeffs[u.grid.reflect], u.is_real)


def _is_even(u, tol=1e-10):
    return float(np.max(np.abs(_flip(u).coeffs - u.coeffs))) <= tol


def _is_odd_coeffs(grid, coeffs, tol=1e-10):
    return float(np.max(np.abs(coeffs[grid.reflect] + coeffs))) <= tol


class BridgeSystem:
    """Coefficients, lower-order operators, damping, forcing, nonlinearities."""

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
        self.b = _profile_to_function(grid, b)
        self.c = _profile_to_function(grid, c)
        self.B_terms = [(_profile_to_function(grid, coeff), int(k)) for coeff, k in B_terms]
        self.C_terms = [(_profile_to_function(grid, coeff), int(k)) for coeff, k in C_terms]
        for _, k in self.B_terms + self.C_terms:
            if k > 2 or k < 0:
                raise ConfigError("bounded parts B, C only admit derivatives of order <= 2")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.f_b = f_b if f_b is not None else (lambda t: 0.0)
        self.f_w = f_w if f_w is not None else np.sin
        self.F1 = F1 if F1 is not None else QuadraticNonlinearity.zero(grid)
        self.F2 = F2 if F2 is not None else QuadraticNonlinearity.zero(grid)
        self._calB = None
        self._calW = None

    # -- operator matrices -------------------------------------------

    def lower_order_matrix(self, terms):
        n = self.grid.n
        M = np.zeros((n, n), dtype=complex)
        for coeff, k in terms:
            M += mult_matrix(self.grid, coeff) * deriv_diag(self.grid, k)
        return M

    def calB_matrix(self):
        """Matrix of B_cal = -b(x) d_x^4 + B on Fourier coefficients."""
        if self._calB is None:
            d4 = deriv_diag(self.grid, 4)
            self._calB = -mult_matrix(self.grid, self.b) * d4 + self.lower_order_matrix(
                self.B_terms
            )
        return self._calB

    def calW_matrix(self):
        """Matrix of W_cal = c(x) d_x^2 + C."""
        if self._calW is None:
            d2 = deriv_diag(self.grid, 2)
            self._calW = mult_matrix(self.grid, self.c) * d2 + self.lower_order_matrix(
                self.C_terms
            )
        return self._calW

    # -- right-hand side ---------------------------------------------

    def _dealias(self, coeffs):
        return np.where(np.abs(self.grid.modes) <= self.grid.dealias_cut, coeffs, 0.0)

    def jets(self, y_hat, th_hat):
        """Dealias-projected jet values (6, n) from coefficient arrays."""
        g = self.grid
        yh = self._dealias(y_hat)
        th = self._dealias(th_hat)
        d = 1j * g.modes.astype(float)
        return np.stack(
            [
                _ifft_raw(g, yh),
                _ifft_raw(g, d * yh),
                _ifft_raw(g, d**2 * yh),
                _ifft_raw(g, th),
                _ifft_raw(g, d * th),
                _ifft_raw(g, d**2 * th),
            ]
        )

    def nonlinearity_hats(self, y_hat, th_hat):
        """Dealiased Fourier coefficients of F1, F2 at the jet of (y, theta)."""
        g = self.grid
        if self.F1.is_zero() and self.F2.is_zero():
            z = np.zeros(g.n, dtype=complex)
            return z, z
        jets = self.jets(y_hat, th_hat)
        f1 = self._dealias(_fft_raw(g, self.F1.evaluate(jets)))
        f2 = self._dealias(_fft_raw(g, self.F2.evaluate(jets)))
        return f1, f2

    def real_rhs(self, y_hat, yt_hat, th_hat, tht_hat, t):
        """(y_tt, theta_tt) coefficient arrays; inputs may be complex
        (analytic continuation used by the complexified system)."""
        f1, f2 = self.nonlinearity_hats(y_hat, th_hat)
        ytt = self.calB_matrix() @ y_hat + f1 + self.alpha * yt_hat
        thtt = self.calW_matrix() @ th_hat + f2 + self.beta * tht_hat
        if self.gamma != 0.0:
            ytt[0] += self.gamma * self.f_b(t)
        if self.delta != 0.0:
            thtt[0] += self.delta * self.f_w(t)
        return ytt, thtt

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
        the partial is affine in h, so corners suffice)."""
        if R <= 0:
            raise ConfigError("radius R must be positive")
        cv = np.real(self.c.values())
        worst = cv + self.F2.partial_affine_bounds(5, R)
        c3 = float(np.min(worst))
        if c3 <= 0.0:
            i = int(np.argmin(worst))
            raise PreconditionError(
                "smallness radius violated: c(x) + dF2/d(theta_xx) reaches %g at x = %g"
                % (c3, self.grid.x[i])
            )
        return c3

    def check_parity(self):
        """True iff the system preserves odd (Dirichlet/hinged) data."""
        if not (self.F1.parity_sign_ok() and self.F2.parity_sign_ok()):
            return False
        g = self.grid
        for j in range(1, min(5, g.n // 2)):
            s = transform(g, np.sin(j * g.x))
            for M in (self.calB_matrix(), self.calW_matrix()):
                if not _is_odd_coeffs(g, M @ s.coeffs, tol=1e-9):
                    return False
        return True

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        def fun(u):
            return {"values": list(np.real(u.values()))}

        return {
            "n": self.grid.n,
            "b": fun(self.b),
            "c": fun(self.c),
            "B_terms": [[list(np.real(co.values())), k] for co, k in self.B_terms],
            "C_terms": [[list(np.real(co.values())), k] for co, k in self.C_terms],
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "F1": [[list(np.real(co.values())), ia, ib] for co, ia, ib in self.F1.terms],
            "F2": [[list(np.real(co.values())), ia, ib] for co, ia, ib in self.F2.terms],
        }


def _profile_to_function(grid, spec_value):
    """Named profile, constant, sample array or callable -> SpectralFunction."""
    if isinstance(spec_value, SpectralFunction):
        return spec_value
    if callable(spec_value):
        return transform(grid, np.asarray(spec_value(grid.x), dtype=float))
    if isinstance(spec_value, str):
        name, _, arg = spec_value.partition(":")
        amp = float(arg) if arg else 1.0
        if name == "constant":
            return SpectralFunction.constant(grid, amp)
        if name == "cosine":
            return transform(grid, 1.0 + amp * np.cos(grid.x))
        raise ConfigError("unknown profile %r" % spec_value)
    arr = np.asarray(spec_value, dtype=float)
    if arr.ndim == 0:
        return SpectralFunction.constant(grid, float(arr))
    if arr.shape != (grid.n,):
        raise ConfigError("profile sample array must have length n = %d" % grid.n)
    return transform(grid, arr)


def bridge_system_from_json(doc, grid=None):
    """Build a BridgeSystem from a JSON document (dict or JSON text)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if grid is None:
        grid = TorusGrid(int(doc["n"]))

    def fun(entry, default):
        if isinstance(entry, dict):
            return entry.get("profile", entry.get("values"))
        return default if entry is None else entry

    return BridgeSystem(
        grid,
        b=fun(doc.get("b"), 1.0),
        c=fun(doc.get("c"), 1.0),
        B_terms=doc.get("B_terms") or (),
        C_terms=doc.get("C_terms") or (),
        alpha=float(doc.get("alpha", 0.0)),
        beta=float(doc.get("beta", 0.0)),
        gamma=float(doc.get("gamma", 0.0)),
        delta=float(doc.get("delta", 0.0)),
        F1=QuadraticNonlinearity(grid, doc.get("F1") or ()),
        F2=QuadraticNonlinearity(grid, doc.get("F2") or ()),
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
