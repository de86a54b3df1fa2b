"""Shared fixtures, the parity split of stacked vectors, and the dense
weighted-SVD reference of the norm tests."""

import numpy as np
import pytest

import beamwave.evolve as evolve


@pytest.fixture
def marched(monkeypatch):
    """The real states' halves (4, n//2 + 1) each march of the test marches,
    one list of nodes per ``_march`` call (a Kato solve's last list is its
    result), as the step returns them."""
    runs = []
    march = evolve._march

    def recording(grid, ladder, dt, steps, u0, step, over=None):
        nodes = [u0]
        runs.append(nodes)

        def recorded_step(k, u):
            nodes.append(step(k, u))
            return nodes[-1]

        return march(grid, ladder, dt, steps, u0, recorded_step, over)

    monkeypatch.setattr(evolve, "_march", recording)
    return runs


def weighted_matrix(grid, M, s_in, s_out, band=None):
    """diag(<j>^{s_out}) M diag(<k>^{-s_in}) of a square array M of c stacked
    components, the dense reference whose largest singular value is the
    H^{s_in} -> H^{s_out} norm.  ``band`` says which slots of each component M
    acts on: None, all n; "resolved", all n, M first restricted to the rows and
    columns |mode| <= n // 3 of each component; "restricted", those alone."""
    M = np.asarray(M, dtype=complex)
    slots = grid.dealias_mask if band else slice(None)
    c = M.shape[0] // (np.count_nonzero(slots) if band == "restricted" else grid.n)
    if band == "resolved":
        keep = np.tile(slots, c)
        M = M[np.ix_(keep, keep)]
    w_out, w_in = (np.tile(grid.bracket_power(s)[slots], c) for s in (s_out, s_in))
    assert M.shape == (w_out.size, w_in.size), (M.shape, band)
    W = M * w_out[:, None]
    W /= w_in[None, :]
    return W


def reference_norm(grid, M, s_in, s_out, band=None):
    """The largest singular value of ``weighted_matrix``: the complex SVD."""
    return float(np.linalg.svd(weighted_matrix(grid, M, s_in, s_out, band), compute_uv=False)[0])


def parity_split(vec):
    """Stacked (..., 4n) -> the parity halves p = (z + zbar)/sqrt2, m = (z -
    zbar)/sqrt2, each (..., 2n) over (beam, wave): the operand of every
    paradifferential operator's halves (``beamwave.state``)."""
    vec = np.asarray(vec)
    z, zb, w, wb = np.split(vec, 4, axis=-1)
    # written straight into one output: no concatenated temporaries
    rt2 = np.sqrt(2.0)
    out = np.empty((2,) + vec.shape[:-1] + (vec.shape[-1] // 2,), dtype=np.result_type(vec, rt2))
    (p_b, p_w), (m_b, m_w) = (np.split(h, 2, axis=-1) for h in out)
    np.add(z, zb, out=p_b)
    np.add(w, wb, out=p_w)
    np.subtract(z, zb, out=m_b)
    np.subtract(w, wb, out=m_w)
    out /= rt2
    return out[0], out[1]
