"""Command-line interface: subcommands, exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

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


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "63"],
        ["--n", "0"],
        ["--kato-max-iter", "0"],
    ],
    ids=["odd_n", "zero_n", "zero_kato_iter"],
)
def test_exit_code_config_error_inputs(args, tmp_path, capsys):
    base = ["simulate", "--preset", "linear", "--T", "0.02", "--outdir", str(tmp_path)]
    code = run_cli(base + args)
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


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
