"""The benchmark's workloads: seeded inputs, timed solve calls, gates.

Each workload is three steps, run in one fresh interpreter by ``child.py``:

* ``setup(seed)`` builds the grid, the ``headline`` preset system and the
  seeded initial data (untimed except as ``setup_s``);
* ``run(inputs)`` makes the solve calls a user of the CLI would make; its
  wall time is ``wall_s``;
* ``gate(inputs, outputs)`` checks the outputs against an independent
  reference, outside the timed interval.

The ``*_checks`` functions are pure: they take results and return a dict
with an ``ok`` flag, so the tests can feed them corrupted results.
"""

import numpy as np

from beamwave import cli, evolve, paralin, parametrix, state
from beamwave.grid import TorusGrid, transform

AMPLITUDE = 1e-2  # the presets' default amplitude
T_FINAL = 0.1
MAX_MODE = 3  # the seeded data lives on modes 1 <= |j| <= MAX_MODE

KATO_N = 128
LADDER_NS = (32, 64, 128, 256)
PARAMETRIX_S = 2.5
GARDING_SAMPLES = 50
GARDING_SAMPLE_SEED = 0  # the CLI's default --seed; fixed so only the data varies
ORACLE_N = 512
ORACLE_REF_N = 256

# gate thresholds
GAP_TOL = 1e-4  # acceptance criterion 08
CONTRACTION_MAX_RATIO = 0.5  # acceptance criterion 09
DEFECT_TOL = 1e-10  # verify --suite parametrix
LADDER_RATIO_TOL = 1.25  # verify --suite parametrix / energy
GARDING_GAP_TOL = 0.25  # verify --suite energy, relative to max(1, |first rung|)
REFINEMENT_TOL = 1e-8  # N=512 against N=256 on the shared modes


def seeded_fields(grid, seed):
    """(y0, y1, theta0, theta1) drawn from ``seed``.

    Each field is peak * sum_{j=1..3} w_j cos(j x + phi_j) with random
    phases phi_j and fixed weights w = (1/2, 1, 1/4) / (7/4).  They peak at
    mode 2, as the headline preset's theta0 = amplitude sin 2x does.  The
    peak is at most the presets' (amplitude for y0 and theta0, half of it
    for y1 and theta1).  Only the phases are random, so every Sobolev norm
    of every field is the same for all seeds: the seed changes the data's
    content, not its size.  The fields are the same functions on every
    grid, so runs at different N solve one problem.

    The weights keep two margins.  The Kato iteration takes 4 increments
    at N=128, the third near 3.7e-10 and the fourth near 1.3e-13 against
    kato_tol = 1e-10.  The N=32 rung of the parametrix ladder stays
    resolved: over 400 random phase draws the wave pointwise defect stayed
    below 3.8e-11, under its 1e-10 gate.  With equal weights lambda_w =
    sqrt(1 + 2 a_w) has a Nyquist coefficient near 1e-10 at N=32, and that
    gate fails on about half the seeds.
    """
    rng = np.random.default_rng(seed)
    j = np.arange(1, MAX_MODE + 1)[:, None]
    weights = np.array([[0.5], [1.0], [0.25]]) / 1.75
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, MAX_MODE, 1))
    peaks = (AMPLITUDE, 0.5 * AMPLITUDE, AMPLITUDE, 0.5 * AMPLITUDE)
    return tuple(
        transform(grid, peak * np.sum(weights * np.cos(j * grid.x + ph), axis=0))
        for peak, ph in zip(peaks, phases)
    )


def headline_problem(n, seed):
    """Grid, headline system and seeded data (y0, y1, theta0, theta1)."""
    grid = TorusGrid(n)
    system, _ = cli.build_preset("headline", grid)
    return grid, system, seeded_fields(grid, seed)


def stacked(fields):
    return state.complexify(*fields).stacked()


# -- kato-headline ----------------------------------------------------------


def kato_setup(seed):
    grid, system, fields = headline_problem(KATO_N, seed)
    return {"grid": grid, "system": system, "fields": fields, "V0": stacked(fields),
            "config": evolve.SolverConfig(T_final=T_FINAL)}


def kato_run(inp):
    return {"kato": evolve.kato_solve(inp["system"], inp["V0"], inp["config"])}


def kato_checks(grid, kato, oracle, s1):
    """Criterion 08 gap, convergence, and contraction of the increments."""
    gap_rel = evolve.trajectory_gap(grid, kato, oracle, s1) / max(oracle.sup_norm(s1), 1e-300)
    ratios = kato.increment_ratios()
    return {
        "oracle_gap_rel": gap_rel,
        "termination": kato.termination,
        "increment_ratios": ratios,
        "ok": bool(
            gap_rel <= GAP_TOL
            and kato.termination == "converged"
            and len(ratios) >= 1
            and max(ratios) <= CONTRACTION_MAX_RATIO
        ),
    }


def kato_gate(inp, out):
    oracle = evolve.oracle_solve(inp["system"], *inp["fields"], inp["config"])
    return kato_checks(inp["grid"], out["kato"], oracle, inp["config"].ladder.s1)


def kato_fingerprint(inp, out):
    kato = out["kato"]
    return {
        "sweeps": len(kato.increments) + 1,
        "increments": [float(x) for x in kato.increments],
        "final_norms": {k: float(v[-1]) for k, v in kato.norms.items()},
        "steps": len(kato.times) - 1,
    }


# -- parametrix-ladder ------------------------------------------------------


def ladder_setup(seed):
    rungs = []
    for n in LADDER_NS:
        grid, system, fields = headline_problem(n, seed)
        rungs.append({"grid": grid, "system": system, "V": stacked(fields)})
    return {"rungs": rungs}


def ladder_run(inp):
    residuals, energies = [], []
    for rung in inp["rungs"]:
        para = paralin.ParalinearizedSystem(rung["system"], rung["grid"])
        P = parametrix.build_parametrix(para, rung["V"], PARAMETRIX_S)
        residuals.append(parametrix.conjugation_residual(P, para, rung["V"]))
        energies.append(parametrix.equivalence_and_garding_report(
            para, rung["V"], PARAMETRIX_S, sample_count=GARDING_SAMPLES, seed=GARDING_SAMPLE_SEED))
    return {"residuals": residuals, "energies": energies}


def _spread(values):
    """max/min across the ladder; a norm that is 0 or negative fails."""
    lo, hi = min(values), max(values)
    return hi / lo if lo > 0 else float("inf")


def ladder_checks(residuals, energies):
    """The gates of ``verify --suite parametrix`` and ``--suite energy``,
    taken over every rung of the ladder."""
    defect = max(max(r["beam_pointwise_defect"], r["wave_pointwise_defect"]) for r in residuals)
    ratios = {
        "conjugation": _spread([r["conjugation_norm"] for r in residuals]),
        "inverse_defect": _spread([r["inverse_defect_norm"] for r in residuals]),
        "equivalence": _spread([e["equivalence_constant"] for e in energies]),
    }
    garding = [e["garding_defect_min"] for e in energies]
    garding_gap = max(garding) - min(garding)
    return {
        "pointwise_defect": defect,
        "ratios": ratios,
        "garding_gap": garding_gap,
        "ok": bool(
            defect < DEFECT_TOL
            and max(ratios.values()) < LADDER_RATIO_TOL
            and garding_gap < GARDING_GAP_TOL * max(1.0, abs(garding[0]))
        ),
    }


def ladder_gate(inp, out):
    return ladder_checks(out["residuals"], out["energies"])


def ladder_fingerprint(inp, out):
    return {
        "n": list(LADDER_NS),
        "conjugation_norm": [r["conjugation_norm"] for r in out["residuals"]],
        "inverse_defect_norm": [r["inverse_defect_norm"] for r in out["residuals"]],
        "equivalence_constant": [e["equivalence_constant"] for e in out["energies"]],
        "garding_defect_min": [e["garding_defect_min"] for e in out["energies"]],
    }


# -- oracle-n512 ------------------------------------------------------------


def oracle_setup(seed):
    grid, system, fields = headline_problem(ORACLE_N, seed)
    return {"seed": seed, "grid": grid, "system": system, "fields": fields,
            "config": evolve.SolverConfig(T_final=T_FINAL)}


def oracle_run(inp):
    return {"oracle": evolve.oracle_solve(inp["system"], *inp["fields"], inp["config"])}


def shared_modes(fine_grid, fine_vec, coarse_grid):
    """The stacked fine-grid vector restricted to the coarse grid's modes
    (the coarse Nyquist slot, which real fields keep at zero, stays zero)."""
    nf, nc = fine_grid.n, coarse_grid.n
    slots = coarse_grid.modes % nf
    out = np.asarray(fine_vec).reshape(4, nf)[:, slots].copy()
    out[:, nc // 2] = 0.0
    return out.reshape(4 * nc)


def refinement_checks(fine_grid, fine_final, coarse_grid, coarse_final, s1):
    """Relative H^{s1} gap of the final states on the modes both grids share."""
    restricted = shared_modes(fine_grid, fine_final, coarse_grid)
    gap = state.stacked_norm(coarse_grid, restricted - coarse_final, s1)
    gap_rel = gap / max(state.stacked_norm(coarse_grid, coarse_final, s1), 1e-300)
    return {"refinement_gap_rel": gap_rel, "ok": bool(gap_rel <= REFINEMENT_TOL)}


def oracle_gate(inp, out):
    grid, system, fields = headline_problem(ORACLE_REF_N, inp["seed"])
    ref = evolve.oracle_solve(system, *fields, inp["config"])
    return refinement_checks(inp["grid"], out["oracle"].final, grid, ref.final,
                             inp["config"].ladder.s1)


def oracle_fingerprint(inp, out):
    orc = out["oracle"]
    return {
        "final_norms": {k: float(v[-1]) for k, v in orc.norms.items()},
        "steps": len(orc.times) - 1,
    }


WORKLOADS = {
    "kato-headline": (kato_setup, kato_run, kato_gate, kato_fingerprint),
    "parametrix-ladder": (ladder_setup, ladder_run, ladder_gate, ladder_fingerprint),
    "oracle-n512": (oracle_setup, oracle_run, oracle_gate, oracle_fingerprint),
}
