"""Shared fixtures."""

import pytest

import beamwave.evolve as evolve


@pytest.fixture
def marched(monkeypatch):
    """The full real states (4, n) each march of the test marches, one list
    of nodes per ``_march`` call (a Kato solve's last list is its result);
    the trajectories themselves store only their j >= 0 halves."""
    runs = []
    march = evolve._march

    def recording(grid, ladder, dt, steps, u0, step):
        nodes = [u0]
        runs.append(nodes)

        def recorded_step(k, u):
            nodes.append(step(k, u))
            return nodes[-1]

        return march(grid, ladder, dt, steps, u0, recorded_step)

    monkeypatch.setattr(evolve, "_march", recording)
    return runs
