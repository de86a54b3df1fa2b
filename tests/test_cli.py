"""Command-line interface: subcommands, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamwave.cli
from beamwave.cli import build_preset, main
from beamwave.grid import TorusGrid


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
        SIMULATE + ["--system", "missing.json"],
        SIMULATE + ["--system", "truncated.json"],
    ],
    ids=["odd_n", "zero_n", "zero_kato_iter", "inf_T", "nan_T", "nan_dt", "nan_amplitude",
         "sweep_unparsable_value", "nan_kato_tol", "inf_kato_tol", "zero_kato_tol",
         "nan_cfl_safety", "tiny_dt", "subnormal_dt", "sweep_odd_n", "sweep_nan_amplitude",
         "missing_system_file", "invalid_system_json"],
)
def test_exit_code_config_error_inputs(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative system files resolve here
    (tmp_path / "truncated.json").write_text("{")
    code = run_cli(args + ["--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


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


def test_sweep_requires_two_values(tmp_path):
    assert (
        run_cli(["sweep", "--axis", "N", "--values", "32", "--outdir", str(tmp_path)]) == 3
    )


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
