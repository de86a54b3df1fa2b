"""Shared fixtures, and the dense weighted-SVD reference of the norm tests."""

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
