"""`src/` holds only the program: every definition there has a caller, and
every parameter default is a knob that the program turns.

An AST pass over ``src/beamwave``: each function, method and class defined
there must be referenced by name somewhere in ``src/`` outside its own body,
or in ``perfbench/``, whose tracer names its targets by dotted strings.  A
capability that only a test reaches belongs beside that test.  A second pass
matches each defaulted parameter against the calls in ``src/`` and
``perfbench/``: some call must set it and another leave it to its default.

Known blind spot: references are matched by bare name, not resolved, so a
name that another definition or attribute also uses (``order``, ``terms``)
counts as referenced for all of them.  ``test_reach`` runs the CLI and
resolves what it enters.
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


# (function, parameter) -> why its default stays though the scan below flags it
ALLOWED_DEFAULTS = {
    ("kato_forcing", "t"): "perfbench's tracer names kato_forcing; it goes with ROADMAP item 1",
    ("main", "argv"): "the console script relies on sys.argv; tests run the CLI in-process",
}


def _parameters(fn, method):
    """(name, position or None) of each defaulted parameter of ``fn``; a
    method's position counts its self or cls, which a call does not pass."""
    a = fn.args
    positional = a.posonlyargs + a.args
    offset = 1 if method else 0
    out = [(p.arg, i - offset) for i, p in enumerate(positional)
           if i >= len(positional) - len(a.defaults)]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _defaulted():
    """(file, line, name, parameter, position) of each defaulted parameter of a
    function in src/beamwave; an ``__init__`` goes by its class's name, as its
    calls do."""
    found = []
    for path, tree in _trees(ROOT / "src" / "beamwave").items():
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            name = cls if node.name == "__init__" else node.name
            for param, pos in _parameters(node, cls is not None and not static):
                found.append((str(path), node.lineno, name, param, pos))
    return found


def _calls():
    """name -> the calls of that bare name in src/ and in perfbench/ (its
    tests too: they bind the signatures they call), each as (positional count,
    keywords, starred): a ``*`` or ``**`` argument may set, or leave, any
    parameter not written out."""
    calls = {}
    for tree in [*_trees(ROOT / "src" / "beamwave").values(), *_trees(ROOT / "perfbench").values()]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = getattr(f, "id", getattr(f, "attr", None))  # a Name's or an Attribute's
            star = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), None)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            spread = any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args) if star is None else star, keywords, star is not None or spread))
    return calls


def idle_defaults():
    """(file, line, name, parameter, reason) of each defaulted parameter of a
    src/ function that no call in src/ or perfbench/ sets ("never set"), or
    that every such call sets ("always set")."""
    calls, found = _calls(), []
    for path, line, name, param, pos in _defaulted():
        sets = relies = False
        for count, keywords, starred in calls.get(name, ()):
            written = param in keywords or (pos is not None and pos < count)
            sets |= written or starred
            relies |= not written
        if not (sets and relies):
            found.append((path, line, name, param, "never set" if not sets else "always set"))
    return found


def test_every_parameter_default_in_src_is_both_relied_on_and_overridden():
    """A default is a knob: some call in src/ or perfbench/ must turn it and
    another must leave it.  A default that no call sets is a constant; one that
    every call sets is a required argument; a test that needs either form
    builds it beside itself.

    Blind spot: calls are matched to definitions by bare name, as in
    ``test_every_definition_in_src_has_a_caller_outside_the_tests``, so two
    definitions of one name (``to_json_dict``, ``main``) share their calls,
    and a call through another name (``cls(...)``, a callback) is not seen."""
    found = idle_defaults()
    missing = [e for e in found if e[2:4] not in ALLOWED_DEFAULTS]
    assert not missing, "defaults in src/ that no call both relies on and overrides:\n" + (
        "\n".join("%s:%d %s(%s=...): %s" % e for e in missing))
    stale = set(ALLOWED_DEFAULTS) - {e[2:4] for e in found}
    assert not stale, "allow-listed, but both relied on and overridden, or gone: %s" % sorted(stale)
