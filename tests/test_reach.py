"""`src/` holds only what the CLI and the benchmark run, checked by running them.

The CLI commands that CI runs, at small N, run here in-process under
``sys.setprofile``: every preset, a system file, each verification suite,
each sweep axis and a regularized run, and the commands CI expects to be
refused.  Every module- or class-level function of ``src/beamwave`` must
be entered by one of them, or be named in ``perfbench/`` (``test_layout``'s
names: the benchmark's tracer names its targets by dotted strings).  This
resolves what ``test_layout`` matches by bare name only, for the CLI: a
method that shares its name with one the program calls is still found.
Dunder methods are left out, as the interpreter calls them (hashing,
printing).  Every JSON artifact the commands write must be strict JSON,
with no NaN or Infinity.
"""

import ast
import json
import os
import sys
from collections import Counter

import pytest

from beamwave.cli import main
from test_bridge import VARIABLE
from test_layout import ROOT, _names, _trees

# name -> why it stays though no command enters it
ALLOWED = {
    "check_parity": "ROADMAP item 6: verify --suite oracle is to gate parity along the flow",
    "parity_sign_ok": "called by check_parity only",
}

SYSTEMS = {
    "variable.json": json.dumps(VARIABLE),
    "nan_b.json": '{"b": NaN}',
    "leaves_radius.json": '{"n": 32, "F2": [[1.0, 3, 5]], "delta": -10.0}',
    "beam_wave_only.json": '{"F1": [[1.0, 4, 5]], "F2": [[1.0, 5, 5]]}',
    "wave_beam_only.json": '{"F2": [[1.0, 2, 5]]}',
    "bogus_b.json": '{"b": "bogus"}',
    "short_c.json": '{"c": [1.0, 2.0, 3.0]}',
    "gamma.json": '{"F2": [[1.0, 5, 5]], "gamma": 0.7}',
    "alpah.json": '{"alpah": -0.5}',
    # profiles of no documented form
    "null_b.json": '{"b": null}',
    "null_F2.json": '{"F2": [[null, 5, 5]]}',
    "values_b.json": '{"b": {"values": [1.0]}}',
    # an order or a slot that is no integer, a boolean profile, a term entry
    # of another shape
    "order_B_terms.json": '{"B_terms": [[1.0, 2.5]]}',
    "slot_F2.json": '{"F2": [[1.0, 5, 5.7]]}',
    "true_b.json": '{"b": true}',
    "short_B_terms.json": '{"B_terms": [[1.0]]}',
    "number_F2.json": '{"F2": 3}',
}

SHORT = ["--n", "16", "--T", "0.01"]

# (argv, exit code); a system file is named by its key in SYSTEMS
COMMANDS = [
    (["simulate", "--n", "63"], 2),
    (["simulate", "--dt", "1e-300"], 2),
    (["simulate", "--solver", "oracle", "--dt", "1e-300"], 2),
    (["simulate", "--T", "1e-170"], 2),  # a horizon the growth fit cannot square
    (["simulate", "--solver", "oracle", "--T", "1e-170"], 2),
    (["sweep", "--axis", "N", "--values", "2,4"], 0),
    (["sweep", "--axis", "N", "--values", "16,32"], 0),
    (["sweep", "--axis", "eps", "--values", "1e-2,1e-3"] + SHORT, 0),
    (["sweep", "--axis", "amplitude", "--values", "1e-2,2e-2", "--system", "variable.json"]
     + SHORT, 0),
    (["sweep", "--axis", "N", "--values", "16,32", "--amplitude", "10"], 0),  # each value fails
    (["sweep", "--axis", "amplitude", "--values", "1e-2,1e3"], 0),  # 1e3 fails
    (["sweep", "--axis", "amplitude", "--values=-1e-2,1e-2"] + SHORT, 0),
    (["simulate", "--kato-max-iter", "1", "--n", "32", "--T", "0.01"], 4),
    (["sweep", "--axis", "N", "--values", "32,inf"], 2),
    (["verify", "--suite", "energy", "--seed=-1"], 2),
    (["simulate", "--solver", "oracle", "--eps", "0.5"], 2),  # a flag the oracle does not read
    (["simulate", "--system", "nan_b.json"], 2),
    (["simulate", "--system", "bogus_b.json"], 2),
    (["simulate", "--system", "short_c.json"], 2),
    (["simulate", "--system", "gamma.json"], 2),  # a field the program does not read
    (["simulate", "--system", "alpah.json"], 2),
    (["simulate", "--system", "null_b.json"], 2),
    (["simulate", "--system", "null_F2.json"], 2),
    (["simulate", "--system", "values_b.json"], 2),
    (["simulate", "--system", "order_B_terms.json"], 2),
    (["simulate", "--system", "slot_F2.json"], 2),
    (["simulate", "--system", "true_b.json"], 2),
    (["simulate", "--system", "short_B_terms.json"], 2),
    (["simulate", "--system", "number_F2.json"], 2),
    (["verify", "--suite", "parametrix", "--system", "nan_b.json"], 2),
    (["simulate", "--system", "leaves_radius.json", "--n", "32", "--T", "1.0"], 3),
    (["verify", "--suite", "operators"], 0),
    (["verify", "--suite", "parametrix"], 0),
    (["verify", "--suite", "energy"], 0),
    (["verify", "--suite", "parametrix", "--system", "variable.json"], 0),
    (["verify", "--suite", "energy", "--system", "variable.json"], 0),
    (["verify", "--suite", "parametrix", "--system", "beam_wave_only.json"], 0),
    (["verify", "--suite", "energy", "--system", "wave_beam_only.json"], 0),
    (["verify", "--suite", "oracle", "--system", "variable.json"] + SHORT, 0),
    (["simulate", "--solver", "oracle", "--system", "variable.json"] + SHORT, 0),
    (["simulate", "--eps", "1e-3"] + SHORT, 0),
    (["preset", "list"], 0),
] + [(["verify", "--suite", "oracle", "--preset", preset] + SHORT, 0)
     for preset in ("linear", "headline", "mixed", "parity", "damped", "arioli_gazzola")]


def definitions():
    """(file, first line, qualified name) of each module- or class-level
    function in src/beamwave, dunders aside; the first line is a
    decorator's if it has one, as in its code object."""
    found = []

    def walk(path, body, owner=""):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(path, node.body, owner + node.name + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found.append((os.path.realpath(path), line, owner + node.name))

    for path in sorted((ROOT / "src" / "beamwave").glob("*.py")):
        walk(path, ast.parse(path.read_text(), str(path)).body)
    return found


def entered(tmp_path):
    """(file, first line) of every code object that the commands enter."""
    for name, text in SYSTEMS.items():
        (tmp_path / name).write_text(text)
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv, code in COMMANDS:
            argv = [str(tmp_path / a) if a in SYSTEMS else a for a in argv]
            out = [] if argv[0] == "preset" else ["--outdir", str(tmp_path / "out")]
            assert main(argv + out) == code, argv
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes
            if "beamwave" in c.co_filename}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """The directory the commands ran in, and what they entered."""
    tmp_path = tmp_path_factory.mktemp("reach")
    return tmp_path, entered(tmp_path)


def test_every_function_in_src_is_run_by_the_cli_or_named_by_the_benchmark(ran):
    reached = ran[1]
    named = sum((_names(t, strings=True) for t in _trees(ROOT / "perfbench").values()), Counter())
    idle = [(path, line, name) for path, line, name in definitions()
            if (path, line) not in reached and not named[name.rsplit(".", 1)[-1]]]
    missing = [entry for entry in idle if entry[2].rsplit(".", 1)[-1] not in ALLOWED]
    assert not missing, "in src/ but run by no CLI command and named by no benchmark code:\n" + (
        "\n".join("%s:%d %s" % entry for entry in missing))
    stale = set(ALLOWED) - {name.rsplit(".", 1)[-1] for *_, name in idle}
    assert not stale, "allow-listed, but now run or named, or no longer defined: %s" % sorted(stale)


def _refuse(constant):
    raise ValueError("%s is not JSON" % constant)


def test_every_json_artifact_is_strict_json(ran):
    paths = sorted((ran[0] / "out").glob("*.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=_refuse)


@pytest.mark.parametrize("name, field", [("null_b.json", "b"), ("null_F2.json", "F2"),
                                         ("values_b.json", "b")])
def test_a_profile_of_no_documented_form_exits_2_listing_the_forms(name, field, tmp_path, capsys):
    (tmp_path / name).write_text(SYSTEMS[name])
    argv = ["simulate", "--system", str(tmp_path / name), "--n", "16", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "system field %r" % field in err and "Traceback" not in err
    for form in ('"constant:v"', '"cosine:amp"', "a number", "n = 16 samples"):
        assert form in err, err


@pytest.mark.parametrize("name, field, says", [
    ("order_B_terms.json", "B_terms", "a derivative order k is an integer 0..2, not 2.5"),
    ("slot_F2.json", "F2", "a jet slot is an integer 0..5, not 5.7"),
    ("true_b.json", "b", '"constant:v", "cosine:amp", a number or an array'),
    ("short_B_terms.json", "B_terms", "entries [profile, k], k an integer 0..2"),
    ("number_F2.json", "F2", "entries [profile, slot, slot], each slot an integer 0..5"),
])
def test_a_malformed_term_or_profile_exits_2_naming_its_field(name, field, says, tmp_path, capsys):
    # int() would truncate an order or a slot, and numpy reads true as 1; a
    # term entry of another shape is named by its form, not by Python's words
    (tmp_path / name).write_text(SYSTEMS[name])
    argv = ["simulate", "--system", str(tmp_path / name), "--n", "16", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "system field %r" % field in err and says in err and "Traceback" not in err
    assert not list(tmp_path.glob("run_*"))
