"""Shared fixtures."""

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
