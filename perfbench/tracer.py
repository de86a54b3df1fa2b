"""Spans at beamwave's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function by a wrapper that records
a span (name, start, end, parent index) in memory.  A module-level function
is replaced in every ``beamwave`` module that bound it, because
``from .quantize import bony_weyl_quantize`` copies the name into the
importing module.  ``Tracer.uninstall`` puts every original back.  The
wrapper of ``quantize.bony_weyl_quantize`` also feeds an ``OpCacheProbe``.

A span's self time is its duration minus the durations of its direct
children; spans nest, so the children's intervals never overlap.
"""

import sys
import time
from collections import defaultdict

# (span name, module, attribute path inside the module)
TARGETS = (
    ("paralin.frak_A", "beamwave.paralin", "ParalinearizedSystem.frak_A"),
    ("paralin.frak_B", "beamwave.paralin", "ParalinearizedSystem.frak_B"),
    ("paralin.assemble_symbols", "beamwave.paralin", "ParalinearizedSystem.assemble_symbols"),
    ("paralin.kato_forcing", "beamwave.paralin", "ParalinearizedSystem.kato_forcing"),
    ("symbols.FrequencyMultiplier.bracket", "beamwave.symbols", "FrequencyMultiplier.bracket"),
    ("quantize.bony_weyl_quantize", "beamwave.quantize", "bony_weyl_quantize"),
    ("quantize.exact_operator_norm", "beamwave.quantize", "exact_operator_norm"),
    ("evolve.kato_solve", "beamwave.evolve", "kato_solve"),
    ("evolve.linear_solve", "beamwave.evolve", "linear_solve"),
    ("evolve.oracle_solve", "beamwave.evolve", "oracle_solve"),
    ("bridge.real_rhs", "beamwave.bridge", "BridgeSystem.real_rhs"),
    ("bridge.jets", "beamwave.bridge", "BridgeSystem.jets"),
    ("state.stacked_norm", "beamwave.state", "stacked_norm"),
    ("state.complexify", "beamwave.state", "complexify"),
    ("grid.transform", "beamwave.grid", "transform"),
    ("parametrix.build_parametrix", "beamwave.parametrix", "build_parametrix"),
    ("parametrix.conjugation_residual", "beamwave.parametrix", "conjugation_residual"),
    ("parametrix.equivalence_and_garding_report", "beamwave.parametrix",
     "equivalence_and_garding_report"),
)


OP_CACHE_SPAN = "quantize.bony_weyl_quantize"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.op_cache = None  # OpCacheProbe, made by install()
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self.op_cache if name == OP_CACHE_SPAN else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                size_before = len(probe.cache)
                result = fn(*args, **kwargs)
                probe.record(size_before, result)
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target; the modules must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.op_cache = OpCacheProbe(sys.modules["beamwave.quantize"]._op_cache)
        for name, modname, path in TARGETS:
            module = sys.modules[modname]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "beamwave":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def summary(self):
        """{name: {"calls": int, "self_s": float}} over the recorded spans."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        return dict(out)

    def count_children(self, child_name, parent_names):
        """Spans named ``child_name`` whose direct parent is in ``parent_names``."""
        return sum(
            1 for name, _, _, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] in parent_names
        )


class OpCacheProbe:
    """Hits and held bytes of ``quantize._op_cache``, seen from outside.

    A call that finds its operator leaves the cache size unchanged; a miss
    inserts one entry, after clearing the cache when it is full.
    """

    def __init__(self, cache):
        self.cache = cache
        self.calls = 0
        self.hits = 0
        self.bytes = sum(op.matrix.nbytes for op in cache.values())
        self.peak_bytes = self.bytes

    def record(self, size_before, op):
        self.calls += 1
        size = len(self.cache)
        if size == size_before:
            self.hits += 1
            return
        if size < size_before:
            self.bytes = 0
        self.bytes += op.matrix.nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes)


MODULES = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in TARGETS))

# derived per-layer metrics: name -> unit
DERIVED = {
    "paralin.frak_cache.hit_ratio": "ratio",
    "symbols.lambdify.count": "count",
    "quantize.op_cache.hit_ratio": "ratio",
    "quantize.op_cache.bytes": "B",
    "evolve.kato_sweeps": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in TARGETS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for module in MODULES:
        units[module + ".self_s"] = "s"
    units.update(DERIVED)
    return units


def per_layer_values(tracer, lambdify_count, wall_s):
    """Per-layer values of one traced run; ``trace.overhead_s`` is left to
    the caller, who holds the untraced run."""
    summary = tracer.summary()
    values = {}
    for name, _, _ in TARGETS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[name + ".calls"] = entry["calls"]
        values[name + ".self_s"] = entry["self_s"]
    for module in MODULES:
        values[module + ".self_s"] = sum(
            entry["self_s"] for name, entry in summary.items() if name.split(".")[0] == module
        )
    frak_calls = values["paralin.frak_A.calls"] + values["paralin.frak_B.calls"]
    assemblies = tracer.count_children("paralin.assemble_symbols",
                                       {"paralin.frak_A", "paralin.frak_B"})
    values["paralin.frak_cache.hit_ratio"] = 1.0 - assemblies / frak_calls if frak_calls else 0.0
    values["symbols.lambdify.count"] = lambdify_count
    probe = tracer.op_cache
    values["quantize.op_cache.hit_ratio"] = probe.hits / probe.calls if probe.calls else 0.0
    values["quantize.op_cache.bytes"] = probe.peak_bytes
    values["evolve.kato_sweeps"] = tracer.count_children("evolve.linear_solve",
                                                         {"evolve.kato_solve"})
    values["trace.unattributed_s"] = wall_s - sum(tracer.self_times())
    return values
