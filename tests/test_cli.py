"""Command-line interface: subcommands, exit codes, artifacts, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamwave.bridge
import beamwave.cli
import beamwave.evolve
from beamwave.cli import build_preset, main
from beamwave.grid import TorusGrid
from test_bridge import VARIABLE


# constant b and c with both coupling slots: the beam side of its parametrix
# is diagonal, with s_2 != 0 and lambda_b != 1
CONSTANT_BC = {"b": 2.0, "c": 1.5, "F1": [[1.0, 4, 5]], "F2": [[1.0, 2, 5], [0.5, 5, 5]]}


def run_cli(args):
    return main(list(args))


def test_preset_list(capsys):
    assert run_cli(["preset", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "headline" in out and "linear" in out and "arioli_gazzola" in out


def test_build_preset_unknown():
    from beamwave.errors import ConfigError

    with pytest.raises(ConfigError):
        build_preset("nope", TorusGrid(16))


def test_parity_preset_passes_parity_check():
    sys, data = build_preset("parity", TorusGrid(32))
    assert sys.check_parity()


def test_simulate_writes_artifacts(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--preset", "headline", "--n", "32", "--T", "0.02", "--outdir", str(tmp_path)]
    )
    assert code == 0
    csvs = list(tmp_path.glob("run_*.csv"))
    mans = list(tmp_path.glob("run_*.json"))
    assert len(csvs) == 1 and len(mans) == 1
    doc = json.loads(mans[0].read_text())
    assert doc["termination"] == "converged"
    assert doc["config_hash"] in csvs[0].name


def test_simulate_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        run_cli(["simulate", "--preset", "mixed", "--n", "32", "--T", "0.02", "--outdir", str(d)])
    c1 = next(d1.glob("*.csv")).read_bytes()
    c2 = next(d2.glob("*.csv")).read_bytes()
    assert c1 == c2


def test_exit_code_config_error(capsys):
    assert run_cli(["simulate", "--preset", "nope"]) == 2


SIMULATE = ["simulate", "--preset", "linear", "--T", "0.02"]


@pytest.mark.parametrize(
    "args",
    [
        SIMULATE + ["--n", "63"],
        SIMULATE + ["--n", "0"],
        SIMULATE + ["--kato-max-iter", "0"],
        SIMULATE + ["--T", "inf"],
        SIMULATE + ["--T", "nan"],
        SIMULATE + ["--dt", "nan"],
        SIMULATE + ["--amplitude", "nan"],
        ["sweep", "--axis", "N", "--values", "32,abc"],
        SIMULATE + ["--kato-tol", "nan"],
        SIMULATE + ["--kato-tol", "inf"],
        SIMULATE + ["--kato-tol", "0"],
        SIMULATE + ["--cfl-safety", "nan"],
        SIMULATE + ["--dt", "1e-300"],
        SIMULATE + ["--dt", "5e-324"],
        ["sweep", "--axis", "N", "--values", "32,63"],
        ["sweep", "--axis", "amplitude", "--values", "nan,0.01"],
        ["sweep", "--axis", "eps", "--values", "nan,0.1"],
        ["sweep", "--axis", "eps", "--values", "inf,0.1"],
        SIMULATE + ["--system", "missing.json"],
        SIMULATE + ["--system", "truncated.json"],
        SIMULATE + ["--system", "list.json"],
        SIMULATE + ["--system", "n64.json", "--n", "32"],
        SIMULATE + ["--system", "n64.json"],
        SIMULATE + ["--system", "alpha_text.json"],
        SIMULATE + ["--system", "F2_short_term.json"],
        SIMULATE + ["--system", "B_terms_number.json"],
        SIMULATE + ["--system", "b_without_profile.json"],
        ["verify", "--suite", "energy", "--n", "32", "--seed=-1"],
    ],
    ids=["odd_n", "zero_n", "zero_kato_iter", "inf_T", "nan_T", "nan_dt", "nan_amplitude",
         "sweep_unparsable_value", "nan_kato_tol", "inf_kato_tol", "zero_kato_tol",
         "nan_cfl_safety", "tiny_dt", "subnormal_dt", "sweep_odd_n", "sweep_nan_amplitude",
         "sweep_nan_eps", "sweep_inf_eps",
         "missing_system_file", "invalid_system_json", "system_not_an_object",
         "system_n_differs_from_n", "system_n_differs_from_default_n",
         "system_alpha_not_a_number", "system_F2_term_too_short", "system_B_terms_not_a_list",
         "system_b_without_profile", "verify_negative_seed"],
)
def test_exit_code_config_error_inputs(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative system files resolve here
    (tmp_path / "truncated.json").write_text("{")
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "n64.json").write_text('{"n": 64}')
    (tmp_path / "alpha_text.json").write_text('{"alpha": "x"}')
    (tmp_path / "F2_short_term.json").write_text('{"F2": [[0.5]]}')
    (tmp_path / "B_terms_number.json").write_text('{"B_terms": 3}')
    (tmp_path / "b_without_profile.json").write_text('{"b": {}}')
    code = run_cli(args + ["--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "values", ["32,inf", "32,nan", "32,64.7"], ids=["inf", "nan", "non_integer"]
)
def test_sweep_N_refuses_values_that_are_not_finite_integers(values, tmp_path, monkeypatch, capsys):
    # refused before any grid is built: 64.7 is not run as N = 64, and inf or
    # nan never reach int()
    def no_grid(n):
        raise AssertionError("a grid was built for N = %r" % n)

    monkeypatch.setattr(beamwave.cli, "TorusGrid", no_grid)
    assert run_cli(["sweep", "--axis", "N", "--values", values, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_a_system_file_with_a_non_finite_coefficient_exits_2(tmp_path, capsys):
    (tmp_path / "nan_b.json").write_text('{"b": NaN}')
    args = ["--system", str(tmp_path / "nan_b.json"), "--outdir", str(tmp_path)]
    assert run_cli(["simulate", "--T", "0.01"] + args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "'b'" in err and "Traceback" not in err


def test_cli_and_kato_solve_leave_sympy_unimported(tmp_path):
    # the CLI and a Kato solve run on numpy alone
    code = (
        "import sys\n"
        "from beamwave.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'sympy'))\n"
    )
    src = str(Path(beamwave.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["simulate", "--preset", "headline", "--n", "32", "--T", "0.01", "--outdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", code] + argv, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_simulate_artifact_name_ignores_seed(tmp_path):
    # simulate draws no random numbers, so --seed does not enter the hash
    names = []
    for seed in ("0", "5"):
        out = tmp_path / seed
        code = run_cli(SIMULATE + ["--n", "32", "--seed", seed, "--outdir", str(out)])
        assert code == 0
        names.append([p.name for p in out.glob("run_*.json")])
    assert len(names[0]) == 1 and names[0] == names[1]


def test_exit_code_precondition_cfl():
    assert run_cli(["simulate", "--preset", "linear", "--n", "32", "--dt", "1.0"]) == 3


@pytest.mark.parametrize(
    "args",
    [SIMULATE + ["--T", "-1"], SIMULATE + ["--T", "0"], SIMULATE + ["--dt", "-1"],
     SIMULATE + ["--eps", "-1"], SIMULATE + ["--cfl-safety", "2"]],
    ids=["negative_T", "zero_T", "negative_dt", "negative_eps", "cfl_safety_above_1"],
)
def test_exit_code_precondition_inputs(args, tmp_path, capsys):
    assert run_cli(args + ["--n", "32", "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "precondition failure" in err and "Traceback" not in err


def test_sweep_requires_two_values(tmp_path):
    assert (
        run_cli(["sweep", "--axis", "N", "--values", "32", "--outdir", str(tmp_path)]) == 3
    )


@pytest.mark.parametrize("axis, values", [("eps", "0,1e-3"), ("N", "32,48,64")])
def test_sweep_summary_counts_the_values_swept(axis, values, tmp_path, capsys):
    # the eps CSV holds one gap per pair of neighbouring values, one row fewer
    args = ["sweep", "--axis", axis, "--values", values, "--n", "32", "--T", "0.01",
            "--outdir", str(tmp_path)]
    assert run_cli(args) == 0
    count = len(values.split(","))
    assert "sweep %s: %d values, 0 failures" % (axis, count) in capsys.readouterr().out


def test_sweep_N_artifacts(tmp_path, capsys):
    code = run_cli(
        [
            "sweep",
            "--axis",
            "N",
            "--values",
            "32,48",
            "--preset",
            "mixed",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    doc = json.loads(next(tmp_path.glob("sweep_N_*.json")).read_text())
    assert len(doc["rows"]) == 2 and doc["failures"] == {}
    csv_text = next(tmp_path.glob("sweep_N_*.csv")).read_text()
    assert csv_text.startswith("value,metric\n")


def test_amplitude_sweep_reads_the_system_file(tmp_path):
    system = tmp_path / "variable.json"
    system.write_text(json.dumps(VARIABLE))
    sweep = ["sweep", "--axis", "amplitude", "--values", "1e-2,2e-2", "--n", "16", "--T", "0.01"]
    csvs = []
    for name, extra in (("preset", []), ("system", ["--system", str(system)])):
        assert run_cli(sweep + extra + ["--outdir", str(tmp_path / name)]) == 0
        csvs.append(next((tmp_path / name).glob("sweep_amplitude_*.csv")))
    assert csvs[0].name != csvs[1].name
    assert csvs[0].read_text() != csvs[1].read_text()


@pytest.mark.parametrize(
    "command, runs",
    [
        (["sweep", "--axis", "eps", "--values", "1e-2,1e-3", "--n", "16"],
         [["--T", "0.01"], ["--T", "0.02"]]),
        (["verify", "--suite", "oracle", "--n", "16"],
         [["--T", "0.01"], ["--T", "0.02", "--amplitude", "2e-2"]]),
    ],
    ids=["sweep_eps", "verify_oracle"],
)
def test_runs_with_different_settings_keep_their_own_artifacts(command, runs, tmp_path):
    # the hash names every setting the run reads, as simulate's does
    for extra in runs:
        assert run_cli(command + extra + ["--outdir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.json"))) == len(runs)


def test_run_id_hashes_the_system_document_not_its_path(tmp_path):
    # two documents written in turn to one path run as two run ids, and one
    # document as the same id every time, whose manifest records it
    path, out = tmp_path / "system.json", tmp_path / "out"
    argv = ["simulate", "--system", str(path), "--n", "16", "--T", "0.01", "--outdir", str(out)]
    names = []
    for doc in ({"b": 1.0}, {"b": 2.0}, {"b": 1.0}):
        path.write_text(json.dumps(doc))
        assert run_cli(argv) == 0
        names.append(sorted(p.name for p in out.glob("run_*.json")))
    assert len(names[1]) == 2 and names[2] == names[1]
    manifests = [json.loads((out / name).read_text()) for name in names[1]]
    assert sorted(m["request"]["system"]["b"] for m in manifests) == [1.0, 2.0]


def test_simulate_artifact_names_are_those_of_earlier_releases(tmp_path):
    args = ["simulate", "--preset", "headline", "--n", "32", "--T", "0.02", "--outdir", str(tmp_path)]
    assert run_cli(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_68a2da0b0a52.csv",
                                                          "run_68a2da0b0a52.json"]


@pytest.mark.parametrize(
    "args, code, key",
    [
        (["sweep", "--axis", "N", "--values", "2,4"], 0, "bounded"),
        (["verify", "--suite", "parametrix", "--preset", "linear"], 1, "passed"),
    ],
    ids=["sweep_N", "verify_parametrix"],
)
def test_zero_residual_norm_counts_as_unbounded(args, code, key, tmp_path):
    # a conjugation residual of exactly 0 (N = 2, or a linear system) has no
    # max/min spread: as in the benchmark's ladder gate, it fails the bound
    assert run_cli(args + ["--outdir", str(tmp_path)]) == code
    doc = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert doc[key] is False


def test_grid_too_large_for_memory_is_refused(tmp_path, monkeypatch):
    # 1 GiB of physical memory; one 4n x 4n complex128 operator at n = 4096
    # takes 4 GiB, so the grid is refused before it allocates anything
    from beamwave.errors import ConfigError

    sysconf = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", sysconf.__getitem__)
    with pytest.raises(ConfigError):
        TorusGrid(4096)
    assert TorusGrid(1024).n == 1024
    assert run_cli(["sweep", "--axis", "N", "--values", "32,4096", "--outdir", str(tmp_path)]) == 2


def test_verify_operators_pass(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "operators", "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads(next(tmp_path.glob("verify_operators_*.json")).read_text())
    assert doc["passed"] is True


def test_oracle_suite_reports_one_kato_sweep_per_linear_solve(tmp_path, monkeypatch):
    # each Kato sweep is one linear solve, and every sweep but the first
    # leaves an increment; the constant b, c system converges in four sweeps at N = 32
    solves, linear_solve = [], beamwave.evolve.linear_solve

    def counting(*args, **kwargs):
        solves.append(1)
        return linear_solve(*args, **kwargs)

    monkeypatch.setattr(beamwave.evolve, "linear_solve", counting)
    system = tmp_path / "constant_bc.json"
    system.write_text(json.dumps(CONSTANT_BC))
    code = run_cli(["verify", "--suite", "oracle", "--system", str(system), "--n", "32",
                    "--outdir", str(tmp_path)])
    assert code == 0
    doc = json.loads(next(tmp_path.glob("verify_oracle_*.json")).read_text())
    assert doc["checks"]["kato_sweeps"] == len(solves) == 4
    assert len(doc["checks"]["increment_ratios"]) == len(solves) - 2


def test_kato_trajectory_leaving_the_smallness_radius_exits_3(tmp_path, capsys):
    # F2 = theta theta_xx forced by delta sin t: inside the radius at t = 0,
    # outside it on the trajectory that the second Kato sweep freezes
    system = tmp_path / "leaves_radius.json"
    system.write_text('{"n": 32, "F2": [[1.0, 3, 5]], "delta": -10.0}')
    args = ["simulate", "--system", str(system), "--n", "32", "--T", "1.0", "--outdir", str(tmp_path)]
    assert run_cli(args) == 3
    err = capsys.readouterr().err
    assert "smallness radius" in err and "Traceback" not in err
    # the march stops at the first frozen node outside it, and names it
    assert re.search(r"sweep 2 .* at node \d+ \(t = ", err), err


def test_kato_trajectory_with_fast_speeds_inside_the_exact_margin_runs(tmp_path, capsys):
    # delta = -1000 makes |theta_t| about 5 by T = 0.1, but the hypothesis
    # involves the jet only: c + dF2/d(theta_xx) = 1 + theta stays above 0.8,
    # so the run converges instead of being refused at sweep 2
    system = tmp_path / "fast_speeds.json"
    system.write_text('{"n": 32, "F2": [[1.0, 3, 5]], "delta": -1000.0}')
    args = ["simulate", "--system", str(system), "--n", "32", "--T", "0.1", "--outdir", str(tmp_path)]
    assert run_cli(args) == 0
    assert "converged" in capsys.readouterr().out


def test_verify_smallness_violation_reports_precondition(tmp_path, capsys):
    code = run_cli(
        [
            "verify",
            "--suite",
            "parametrix",
            "--preset",
            "mixed",
            "--amplitude",
            "50",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert "precondition failure" in out


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BEAMWAVE_OUT", str(tmp_path / "envroot"))
    assert run_cli(["simulate", "--preset", "linear", "--n", "32", "--T", "0.02"]) == 0
    assert list((tmp_path / "envroot").glob("run_*.csv"))


def test_system_json_input(tmp_path):
    doc = {
        "n": 32,
        "b": "constant:1.0",
        "c": "constant:1.0",
        "F2": [[0.5, 5, 5]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code = run_cli(
        [
            "simulate",
            "--system",
            str(path),
            "--n",
            "32",
            "--T",
            "0.02",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0


def test_system_file_n_must_match_the_grid(tmp_path, capsys):
    # the file's n is not overridden by --n: a mismatch names both values
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"n": 64}))
    code = run_cli(["simulate", "--system", str(path), "--n", "32", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "n = 64" in err and "n = 32" in err
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize(
    "field, text",
    [("b", '{"b": "bogus"}'), ("c", '{"c": [1.0, 2.0, 3.0]}'),
     # a bounded part's order above 2
     ("B_terms", '{"B_terms": [[1.0, 3]]}'), ("C_terms", '{"C_terms": [[1.0, 3]]}'),
     # a profile is "constant:v", "cosine:amp", a number or a sample array only
     ("b", '{"b": {"values": 2.0}}'), ("c", '{"c": {"profile": "constant:1.0"}}'),
     ("b", '{"b": null}'),
     # fields the program does not read: one it read and ignored once, a typo
     ("gamma", '{"F2": [[1.0, 5, 5]], "gamma": 0.7}'), ("alpah", '{"alpah": -0.5}')],
)
def test_a_malformed_system_field_exits_2_naming_it(field, text, tmp_path, capsys):
    (tmp_path / "system.json").write_text(text)
    args = ["--system", str(tmp_path / "system.json"), "--outdir", str(tmp_path)]
    assert run_cli(["simulate", "--T", "0.01"] + args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "%r" % field in err and "Traceback" not in err
    assert not list(tmp_path.glob("run_*"))


# a nonzero value of each field the system loader reads
FIELD_VALUES = {"b": 2.0, "c": 2.0, "B_terms": [[0.5, 0]], "C_terms": [[0.5, 0]],
                "alpha": -0.5, "beta": -0.5, "delta": 1.0,
                "F1": [[1.0, 4, 5]], "F2": [[1.0, 5, 5]]}


@pytest.mark.parametrize("field", sorted(beamwave.bridge.SYSTEM_FIELDS))
def test_every_system_field_moves_the_run(field, tmp_path):
    # a document that sets one field alone gives a run CSV other than the
    # linear preset's (the empty document) on at least one solver: no field is
    # read and then ignored
    (tmp_path / "system.json").write_text(json.dumps({field: FIELD_VALUES[field]}))
    moved = []
    for solver in ("kato", "oracle"):
        csvs = []
        for name, source in (("preset", ["--preset", "linear"]),
                             ("system", ["--system", str(tmp_path / "system.json")])):
            out = tmp_path / solver / name
            assert run_cli(["simulate", "--solver", solver, "--n", "16", "--T", "0.01",
                            "--outdir", str(out)] + source) == 0
            csvs += [p.read_bytes() for p in out.glob("run_*.csv")]
        moved.append(csvs[0] != csvs[1])
    assert any(moved), "system field %r changes no run" % field


# the presets' system documents, as README lists them
PRESET_DOCUMENTS = {
    "linear": {},
    "headline": {"F2": [[1.0, 5, 5]]},
    "mixed": {"F1": [[1.0, 4, 5]], "F2": [[1.0, 2, 5], [0.5, 5, 5]]},
    "damped": {"F2": [[1.0, 5, 5]], "alpha": -0.5, "beta": -0.5},
    "arioli_gazzola": {"b": 0.08333333333333333, "c": 0.5625,
                       "B_terms": [[0.16666666666666666, 2]]},
}


@pytest.mark.parametrize("name", sorted(PRESET_DOCUMENTS))
def test_a_preset_and_its_system_document_give_the_same_run(name, tmp_path):
    (tmp_path / "system.json").write_text(json.dumps(PRESET_DOCUMENTS[name]))
    short = ["--n", "32", "--T", "0.02"]
    assert run_cli(["simulate", "--preset", name, "--outdir", str(tmp_path / "preset")] + short) == 0
    assert run_cli(["simulate", "--system", str(tmp_path / "system.json"),
                    "--outdir", str(tmp_path / "system")] + short) == 0
    (preset,), (system,) = (list((tmp_path / d).glob("run_*.csv")) for d in ("preset", "system"))
    assert preset.read_bytes() == system.read_bytes()
