"""Layer tracer for the benchmark.

The tracer wraps the public functions of every latfact layer from outside
the package: it replaces each function at every place it is looked up
(the defining module or class, plus every latfact module that imported it
by value) and restores the originals on ``uninstall``.

Every call that enters a timed layer (``LAYERS``) from outside it, inside a
job, opens a frame.  When the frame closes, its self time (duration minus
the time its child frames cover) is added to the layer.  Frames of the
layers in ``SPAN_LAYERS`` are also kept as spans (id, name, start, end,
parent span, job id, self time) and written out when the benchmark ends.
The hot timed layers (backend primitives, usc operations, the generic
derived operations) keep no spans, so a traced run stays small in memory;
their time still comes off the self time of the span that called them.  A
call into a layer from inside the same layer stays in the outer frame.
The ``COUNTED`` layers (table lookups, closure maps, the forward map) are
only counted; their time stays with their caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

JOB = "bench.job"

# layer -> (module, attribute path) of every function that belongs to it
LAYERS = {
    "cli.main": [("cli", "main")],
    "factor.check_sp_conditions": [("factor", "check_sp_conditions")],
    "factor.radical_factor": [("factor", "radical_factor"), ("factor", "canonical_chain")],
    "core.element_predicates": [("core", "MultLattice.element_predicates")],
    "core.lattice_predicates": [("core", "MultLattice.lattice_predicates")],
    "core.window": [
        ("core", "MultLattice.window"),
        ("core", "grow_window"),
        ("instances", "DedekindExponentLattice.window"),
        ("instances", "Rank2ValuationIdealLattice.window"),
        ("instances", "NumericalMonoidIdealLattice.window"),
    ],
    "core.derived": [
        ("core", f"MultLattice.{name}")
        for name in ("residual", "radical", "localize", "is_prime_elem",
                     "is_maximal_elem", "primes", "maximals", "dimension")
    ] + [("finite", "FiniteMultLattice.residual")],
    "instances.primitive": [
        ("instances", f"{cls}.{name}")
        for cls in ("DedekindExponentLattice", "Rank2ValuationIdealLattice",
                    "NumericalMonoidIdealLattice")
        for name in ("leq", "mul", "join2", "meet2", "residual", "radical", "localize")
    ],
    "finite.parse": [
        ("finite", "loads"),
        ("finite", "load"),
        ("finite", "FiniteMultLattice.from_document"),
        ("finite", "FiniteMultLattice.__init__"),
    ],
    "finite.validate": [
        ("finite", "FiniteMultLattice.validate"),
        ("finite", "validate_document"),
    ],
    "props.localization_checks": [("props", "localization_checks")],
    "idealsys.parse": [("idealsys", "system_from_document")],
    "idealsys.validate_system": [("idealsys", "validate_system")],
    "idealsys.build_ideal_lattice": [("idealsys", "build_ideal_lattice")],
    "represent.build_phi": [("represent", "build_phi")],
    "represent.verify_iso": [("represent", "verify_iso")],
    "usc.ops": [
        ("usc", name) for name in (
            "add", "join_d", "meet_d", "leq_d", "scale", "is_radical", "level_set",
            "support_set", "decompose", "recompose", "definitional_radical",
            "fun_from_doc", "fun_to_doc")
    ],
}

SPAN_LAYERS = frozenset({
    JOB,
    "cli.main",
    "factor.check_sp_conditions",
    "factor.radical_factor",
    "core.element_predicates",
    "core.lattice_predicates",
    "core.window",
    "finite.parse",
    "finite.validate",
    "props.localization_checks",
    "idealsys.parse",
    "idealsys.validate_system",
    "idealsys.build_ideal_lattice",
    "represent.build_phi",
    "represent.verify_iso",
})

# layers that are only counted: their time stays with the caller
COUNTED = {
    "finite.table_ops": [
        ("finite", f"FiniteMultLattice.{name}") for name in ("leq", "mul", "join2", "meet2")
    ],
    "idealsys.closure": [("idealsys", "WeakIdealSystem.closure")],
    "represent.forward": [("represent", "PhiMap.forward")],
}

# per-function counters on top of the per-layer ones: every call counts,
# nested or not; "ok" counts the calls that returned without raising
FUNCTION_COUNTERS = {
    ("usc", "add"): ("usc.add", None),
    ("factor", "radical_factor"): ("factor.radical_factor.attempts",
                                   "factor.radical_factor.ok"),
}


class Tracer:
    """Spans, per-layer self time and call counts for one traced phase."""

    def __init__(self):
        self.stack: list = []  # open frames: [layer, start_ns, child_ns, span_id]
        self.open_spans: list = []
        self.spans: list = []  # (id, name, start_ns, end_ns, parent, job, self_ns)
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()  # frames opened per layer
        self.counts: Counter = Counter()  # FUNCTION_COUNTERS and window sizes
        self.job = None
        self._next_span = 0
        self._patches: list = []

    # -- frames -----------------------------------------------------------

    def _open(self, layer):
        span_id = None
        if layer in SPAN_LAYERS:
            span_id = self._next_span
            self._next_span += 1
            self.open_spans.append(span_id)
        frame = [layer, 0, 0, span_id]
        self.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _close(self, frame, result=None):
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        layer, start, child, span_id = frame
        duration = end - start
        own = duration - child
        if stack:
            stack[-1][2] += duration
        self.self_ns[layer] += own
        self.calls[layer] += 1
        if span_id is not None:
            self.open_spans.pop()
            parent = self.open_spans[-1] if self.open_spans else None
            self.spans.append((span_id, layer, start, end, parent, self.job, own))
        if layer == "core.window" and result is not None:
            self.counts["core.window.elements"] += len(result)

    def run_job(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        frame = self._open(JOB)
        try:
            return fn()
        finally:
            self._close(frame)
            self.job = None

    def wrap(self, layer, fn, count_key=None, ok_key=None):
        stack = self.stack
        counts = self.counts
        open_frame = self._open
        close_frame = self._close
        record_result = layer == "core.window"

        def traced(*args, **kwargs):
            if count_key is not None and stack:
                counts[count_key] += 1
            if not stack or stack[-1][0] == layer:
                # outside a job, or already inside this layer
                result = fn(*args, **kwargs)
            else:
                frame = open_frame(layer)
                result = None
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_frame(frame, result if record_result else None)
            if ok_key is not None and stack:
                counts[ok_key] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def count(self, key, fn):
        stack = self.stack
        counts = self.counts

        def counted(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    # -- patching ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch every layer function of the given latfact modules
        (short name -> module object)."""
        package_modules = list(_package_modules().values())
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                count_key, ok_key = FUNCTION_COUNTERS.get((module_name, path), (None, None))
                self._patch(modules[module_name], path, package_modules,
                            lambda fn: self.wrap(layer, fn, count_key, ok_key))
        for key, targets in COUNTED.items():
            for module_name, path in targets:
                self._patch(modules[module_name], path, package_modules,
                            lambda fn: self.count(key, fn))
        self._patch_closure_maps(modules["idealsys"])

    def _patch(self, module, path, package_modules, make):
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._set(owner, attr, original, replacement)
        if owner is module:
            # names imported by value elsewhere in the package
            for other in package_modules:
                for name, value in list(vars(other).items()):
                    if value is original and (other, name) != (owner, attr):
                        self._set(other, name, original, replacement)

    def _patch_closure_maps(self, idealsys) -> None:
        """Closure maps are built inside the system constructors and handed
        to WeakIdealSystem.__init__, which materializes them; wrap them
        where they are received."""
        cls = idealsys.WeakIdealSystem
        original = cls.__dict__["__init__"]
        count = self.count

        def init(system, monoid, name, closure):
            return original(system, monoid, name, count("idealsys.closure", closure))

        init.__wrapped__ = original
        self._set(cls, "__init__", original, init)

    def _set(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def unpatched(self) -> list:
        """Names in the package that still hold an original function; an
        empty list means every lookup site is patched."""
        originals = {id(original) for _, _, original in self._patches}
        return [f"{module_name}.{name}"
                for module_name, module in _package_modules().items()
                for name, value in vars(module).items() if id(value) in originals]

    # -- results --------------------------------------------------------------

    def layer_table(self) -> dict:
        """layer -> (self seconds, frames); every layer listed, idle ones as 0."""
        names = [JOB] + list(LAYERS)
        return {name: (self.self_ns[name] / 1e9, self.calls[name]) for name in names}


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "latfact" or name.startswith("latfact.")}


def check_span_tree(spans) -> list:
    """Problems with a list of span records: orphans (a parent that is not
    a recorded span of the same job enclosing the child), negative self
    times, or roots that are not jobs.  Empty means the tree is sound."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for span_id, name, start, end, parent, job, own in spans:
        if own < 0 or end < start:
            problems.append(f"span {span_id} ({name}) has negative time")
        if parent is None:
            if name != JOB:
                problems.append(f"span {span_id} ({name}) has no parent")
            continue
        up = by_id.get(parent)
        if up is None:
            problems.append(f"span {span_id} ({name}) has a missing parent {parent}")
        elif up[5] != job or up[2] > start or up[3] < end:
            problems.append(f"span {span_id} ({name}) lies outside its parent {parent}")
    return problems
