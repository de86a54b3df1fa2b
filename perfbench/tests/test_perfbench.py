"""The benchmark's own tests: gates trip on corrupted results (negative
controls), tracing leaves no wrapper behind, and the metric names agree
with BENCHMARK.json.  Small grids only; run with

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from beamwave import evolve, paralin, parametrix  # noqa: E402

SEED = 3
SHORT = evolve.SolverConfig(T_final=0.02)


def _small_kato(n=32):
    grid, system, fields = workloads.headline_problem(n, SEED)
    kato = evolve.kato_solve(system, workloads.stacked(fields), SHORT)
    oracle = evolve.oracle_solve(system, *fields, SHORT)
    return grid, kato, oracle


def _with(run, **changes):
    args = dict(times=run.times, trajectory=run.trajectory, norms=run.norms,
                termination=run.termination, increments=run.increments)
    args.update(changes)
    return evolve.RunResult(run.grid, **args)


@pytest.fixture(scope="module")
def kato_runs():
    return _small_kato()


def test_kato_gate_passes_on_true_result(kato_runs):
    grid, kato, oracle = kato_runs
    checks = workloads.kato_checks(grid, kato, oracle, SHORT.ladder.s1)
    assert checks["ok"], checks


def test_kato_gate_trips_on_perturbed_trajectory(kato_runs):
    grid, kato, oracle = kato_runs
    bumped = kato.trajectory.copy()
    bumped[-1] = bumped[-1] * (1.0 + 1e-3)
    checks = workloads.kato_checks(grid, _with(kato, trajectory=bumped), oracle, SHORT.ladder.s1)
    assert not checks["ok"] and checks["oracle_gap_rel"] > workloads.GAP_TOL


def test_kato_gate_trips_on_unconverged_run(kato_runs):
    grid, kato, oracle = kato_runs
    checks = workloads.kato_checks(grid, _with(kato, termination="completed"), oracle,
                                   SHORT.ladder.s1)
    assert not checks["ok"]


def test_kato_gate_trips_on_increments_that_do_not_contract(kato_runs):
    grid, kato, oracle = kato_runs
    stalled = [1e-3, 9e-4, 8e-4]
    checks = workloads.kato_checks(grid, _with(kato, increments=stalled), oracle, SHORT.ladder.s1)
    assert not checks["ok"]


def _ladder(ns, frozen_at_zero=False):
    """Ladder reports; ``frozen_at_zero`` builds the parametrix at the zero
    background while the generator stays at V, so the V-dependent wave
    diagonalization is missing.  (Dropping the T correctors is no control
    for the headline system: it has F1 = 0 and dF2/dy_xx = 0, so T = 0.)"""
    residuals, energies = [], []
    for n in ns:
        grid, system, fields = workloads.headline_problem(n, SEED)
        para = paralin.ParalinearizedSystem(system, grid)
        V = workloads.stacked(fields)
        P = parametrix.build_parametrix(para, None if frozen_at_zero else V,
                                        workloads.PARAMETRIX_S)
        residuals.append(parametrix.conjugation_residual(P, para, V))
        energies.append(parametrix.equivalence_and_garding_report(
            para, V, workloads.PARAMETRIX_S, sample_count=10))
    return residuals, energies


LADDER = (32, 64, 128)


def test_ladder_gate_passes_on_true_parametrix():
    checks = workloads.ladder_checks(*_ladder(LADDER))
    assert checks["ok"], checks


def test_ladder_gate_trips_on_parametrix_at_wrong_background():
    checks = workloads.ladder_checks(*_ladder(LADDER, frozen_at_zero=True))
    assert not checks["ok"]
    assert checks["ratios"]["conjugation"] >= workloads.LADDER_RATIO_TOL


def test_ladder_gate_trips_on_pointwise_defect():
    residuals, energies = _ladder(LADDER[:2])
    residuals[0] = dict(residuals[0], wave_pointwise_defect=1e-6)
    assert not workloads.ladder_checks(residuals, energies)["ok"]


def test_ladder_gate_trips_on_zero_norms():
    residuals, energies = _ladder(LADDER[:2])
    zeroed = [dict(r, conjugation_norm=0.0, inverse_defect_norm=0.0) for r in residuals]
    checks = workloads.ladder_checks(zeroed, energies)
    assert not checks["ok"] and checks["ratios"]["conjugation"] == float("inf")


def test_ladder_gate_trips_on_garding_defect_that_moves_with_n():
    residuals, energies = _ladder(LADDER[:2])
    assert workloads.ladder_checks(residuals, energies)["ok"]
    gd = energies[0]["garding_defect_min"]
    energies[1] = dict(energies[1], garding_defect_min=gd - 0.5 * max(1.0, abs(gd)))
    assert not workloads.ladder_checks(residuals, energies)["ok"]


def _refinement(fine_n, coarse_n):
    out = []
    for n in (fine_n, coarse_n):
        grid, system, fields = workloads.headline_problem(n, SEED)
        out.append((grid, evolve.oracle_solve(system, *fields, SHORT).final))
    return out


def test_refinement_gate_passes_and_trips_on_perturbed_state():
    (fine_grid, fine), (coarse_grid, coarse) = _refinement(128, 64)
    s1 = SHORT.ladder.s1
    assert workloads.refinement_checks(fine_grid, fine, coarse_grid, coarse, s1)["ok"]
    bad = fine.copy()
    bad[1] += 1e-6 * np.max(np.abs(fine))
    checks = workloads.refinement_checks(fine_grid, bad, coarse_grid, coarse, s1)
    assert not checks["ok"] and checks["refinement_gap_rel"] > workloads.REFINEMENT_TOL


def _bindings():
    """Every beamwave module attribute and class dict entry a target names."""
    found = {}
    for _, modname, path in tracer.TARGETS:
        module = sys.modules[modname]
        if "." in path:
            clsname, attr = path.split(".")
            owner = getattr(module, clsname)
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(module, path)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] == "beamwave":
                for key, value in vars(other).items():
                    if value is original:
                        found[(other, key)] = value
    return found


def test_tracing_records_spans_and_removes_its_wrappers():
    before = _bindings()
    grid, system, fields = workloads.headline_problem(32, SEED)
    V0 = workloads.stacked(fields)
    t = tracer.Tracer()
    with t:
        assert paralin.bony_weyl_quantize is not before[(paralin, "bony_weyl_quantize")]
        evolve.kato_solve(system, V0, SHORT)
    assert _bindings() == before
    for (owner, attr), value in before.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is value, (owner, attr)

    summary = t.summary()
    assert summary["evolve.kato_solve"]["calls"] == 1
    assert summary["paralin.frak_A"]["calls"] > 0
    assert summary["quantize.bony_weyl_quantize"]["calls"] > 0
    assert t.op_cache.calls == summary["quantize.bony_weyl_quantize"]["calls"]
    assert min(t.self_times()) >= 0.0
    root = [s for s in t.spans if s[3] < 0]
    assert len(root) == 1
    assert sum(t.self_times()) == pytest.approx(root[0][2] - root[0][1], rel=1e-9)

    n = len(t.spans)
    evolve.kato_solve(system, V0, SHORT)
    assert len(t.spans) == n


def test_tracer_closes_span_when_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.spans[0][2] is not None and t._stack == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
