"""`src/` holds only the program: every definition there has a caller.

An AST pass over ``src/beamwave``: each function, method and class defined
there must be referenced by name somewhere in ``src/`` outside its own body,
or in ``perfbench/``, whose tracer names its targets by dotted strings.  A
capability that only a test reaches belongs beside that test.

Known blind spot: references are matched by bare name, not resolved, so a
name that another definition or attribute also uses (``order``, ``terms``)
counts as referenced for all of them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a caller in src/ or perfbench/
ALLOWED = {
    "check_parity": "ROADMAP item 6: verify --suite oracle is to gate parity along the flow",
}


def _trees(directory):
    return {p.relative_to(ROOT): ast.parse(p.read_text(), str(p))
            for p in sorted(directory.rglob("*.py"))}


def _names(node, strings=False):
    """Every name that ``node`` references: identifiers and attributes, and,
    with ``strings``, each dotted part of a string constant."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def unreferenced():
    """(file, line, name) of each definition in src/beamwave, dunders aside,
    with no reference outside its own body."""
    src = _trees(ROOT / "src" / "beamwave")
    refs = sum((_names(t) for t in src.values()), Counter())
    refs += sum((_names(t, strings=True) for t in _trees(ROOT / "perfbench").values()), Counter())
    found = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] - _names(node)[name] <= 0:
                found.append((str(path), node.lineno, name))
    return found


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    found = unreferenced()
    missing = [entry for entry in found if entry[2] not in ALLOWED]
    assert not missing, "defined in src/ but reached only by tests:\n" + "\n".join(
        "%s:%d %s" % entry for entry in missing)
    stale = set(ALLOWED) - {name for *_, name in found}
    assert not stale, "allow-listed, but referenced in src/ or no longer defined: %s" % sorted(stale)
