"""Spans around the calls into each fhskit layer, installed at run time.

Nothing in fhskit knows about this module.  `install` replaces every public
function of the layer modules, and the validating constructors of their
classes, with a wrapper that records a span while an op is open.  Because it
swaps every module attribute bound to the same function object, calls from
one layer into another (for example `fhskit.report.max_auto`) are traced too.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter, defaultdict

import independent as ind

LAYER_MODULES = ("cli", "construct", "seeds", "gapbound", "report", "sequence", "numtheory", "oracle")

KERNEL = "sequence.kernel"

# sequence.py holds two layers: Fhs validation and the correlation kernel.
SEQUENCE_PARTS = {
    "Fhs": "sequence.validate",
    "CorrelationProfile": "sequence.profile_validate",
    "cross_profile": KERNEL,
    "auto_profile": KERNEL,
    "max_auto": KERNEL,
    "max_cross": KERNEL,
    "hamming_cross": KERNEL,
    "min_gap": "sequence.metrics",
    "is_uniform": "sequence.metrics",
    "frequency_counts": "sequence.metrics",
}

BENCH = "bench"
NO_PARENT = -1


class Tracer:
    """Spans as parallel arrays: name id, parent index, op id, start and end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.op.append(self.op_id)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def begin_op(self) -> int:
        self.op_id += 1
        return self.open(f"{BENCH}:op")

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call made while an op is open.

        after(args, result, idx) counts work once fn returns; idx is the
        closed span's index.
        """
        tracer = self
        nid = self.name_id(name)
        clock = self.clock

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            # open() and close() inlined: this runs once per traced call
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, fhskit) -> None:
        """Wrap the public functions and validating constructors of every layer module."""
        modules = [getattr(fhskit, name) for name in LAYER_MODULES]
        everywhere = [fhskit, *modules]
        hooks = self._hooks()
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                span = f"{SEQUENCE_PARTS.get(attr, 'sequence.bounds') if layer == 'sequence' else layer}:{attr}"
                hook = hooks.get(attr)
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapper = self.wrap(span, obj, hook)
                    for mod in everywhere:
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                self._restore.append((mod, key, obj))
                                setattr(mod, key, wrapper)
                elif inspect.isclass(obj):
                    # Only constructors written in the module validate; dataclass
                    # __init__ methods are generated and merely store fields.
                    for method in ("__post_init__", "__init__"):
                        original = vars(obj).get(method)
                        if original is not None and original.__code__.co_filename == module.__file__:
                            self._restore.append((obj, method, original))
                            setattr(obj, method, self.wrap(span, original, hook))
                            break

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _hooks(self) -> dict:
        counters = self.counters

        def fhs_validated(args, _, __):
            counters["symbols_validated"] += len(args[0].symbols)

        def kernel_pairs(auto: bool):
            """Count the matching pairs of the outermost kernel call only, from its inputs.

            Counting costs more than a span, so it runs in a span of the
            benchmark's own rather than being charged to the caller's layer.
            """

            def count(args, _, idx):
                parent = self.parent[idx]
                if self.names[self.name[parent]].startswith(f"{KERNEL}:"):
                    return
                span = self.open(f"{BENCH}:count")
                s = args[0].symbols
                counters["kernel_pairs"] += ind.matching_pairs(s, s if auto else args[1].symbols)
                self.close(span)

            return count

        def gf_built(args, _, __):
            counters["gf_builds"] += 1
            counters["gf_elements"] += args[0].q

        def enumerated(_, report, __):
            counters["oracle_candidates"] += report.total_candidates
            counters["oracle_survivors"] += len(report.survivors)

        return {"Fhs": fhs_validated, "GfContext": gf_built, "enumerate_optimal_order_seqs": enumerated,
                "auto_profile": kernel_pairs(True), "max_auto": kernel_pairs(True),
                "cross_profile": kernel_pairs(False), "max_cross": kernel_pairs(False)}

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.parent, self.start, self.end)


def self_times(parent, start, end) -> list[float]:
    """Span duration minus the part of it that its child spans cover.

    Spans must be listed in order of opening, so that each parent precedes
    its children and siblings appear in order of start.
    """
    own = [e - s for s, e in zip(start, end)]
    covered_to: dict[int, float] = {}
    for idx, p in enumerate(parent):
        if p == NO_PARENT:
            continue
        lo = max(start[idx], start[p], covered_to.get(p, start[p]))
        hi = min(end[idx], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics of one traced run, per op where they are totals."""
    selfs = tracer.self_times()
    layer_ids = {i: name.split(":", 1)[0] for i, name in enumerate(tracer.names)}
    layer = [layer_ids[n] for n in tracer.name]
    self_by = defaultdict(float)
    calls = Counter()
    for idx, p in enumerate(tracer.parent):
        self_by[layer[idx]] += selfs[idx]
        if p == NO_PARENT or layer[p] != layer[idx]:
            calls[layer[idx]] += 1
    gf_id = tracer.ids.get("numtheory:GfContext")
    gf_s = sum(e - s for n, s, e in zip(tracer.name, tracer.start, tracer.end) if n == gf_id)
    oracle_s = kernel_in_oracle = 0.0
    for idx, p in enumerate(tracer.parent):
        dur = tracer.end[idx] - tracer.start[idx]
        if layer[idx] == "oracle" and (p == NO_PARENT or layer[p] != "oracle"):
            oracle_s += dur
        elif layer[idx] == KERNEL and p != NO_PARENT and layer[p] == "oracle":
            kernel_in_oracle += dur
    c = tracer.counters
    per_op = 1.0 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in ("cli", "construct", "seeds", "gapbound", "report"):
        metrics[f"{name}.calls"] = (calls[name] * per_op, "1/op")
        metrics[f"{name}.self_s"] = (self_by[name] * per_op, "s/op")
    metrics.update({
        "sequence.validate_calls": (calls["sequence.validate"] * per_op, "1/op"),
        "sequence.validate_s": (self_by["sequence.validate"] * per_op, "s/op"),
        "sequence.symbols_validated": (c["symbols_validated"] * per_op, "1/op"),
        "sequence.revalidation_ratio": (ratio(c["symbols_validated"], c["symbols_handed_back"]), "ratio"),
        "sequence.kernel_calls": (calls[KERNEL] * per_op, "1/op"),
        "sequence.kernel_s": (self_by[KERNEL] * per_op, "s/op"),
        "sequence.kernel_pairs": (c["kernel_pairs"] * per_op, "1/op"),
        "sequence.kernel_ns_per_pair": (ratio(self_by[KERNEL] * 1e9, c["kernel_pairs"]), "ns"),
        "sequence.profile_validate_s": (self_by["sequence.profile_validate"] * per_op, "s/op"),
        "sequence.metrics_s": (self_by["sequence.metrics"] * per_op, "s/op"),
        "numtheory.gf_builds": (c["gf_builds"] * per_op, "1/op"),
        "numtheory.gf_build_s": (gf_s * per_op, "s/op"),
        "numtheory.gf_elements": (c["gf_elements"] * per_op, "1/op"),
        "numtheory.gf_ns_per_element": (ratio(gf_s * 1e9, c["gf_elements"]), "ns"),
        "numtheory.self_s": (self_by["numtheory"] * per_op, "s/op"),
        "oracle.calls": (calls["oracle"] * per_op, "1/op"),
        "oracle.self_s": (self_by["oracle"] * per_op, "s/op"),
        "oracle.candidates": (c["oracle_candidates"] * per_op, "1/op"),
        "oracle.survivor_ratio": (ratio(c["oracle_survivors"], c["oracle_candidates"]), "ratio"),
        "oracle.kernel_share": (ratio(kernel_in_oracle, oracle_s), "ratio"),
        "bench.self_s": (self_by[BENCH] * per_op, "s/op"),
    })
    return metrics


def accounted_share(tracer: Tracer) -> tuple[float, float]:
    """Lowest and highest share of an op's traced wall time that its spans' self times add up to.

    Both are 1.0 when layer self times plus the benchmark's remainder account
    for every op exactly.
    """
    selfs = tracer.self_times()
    covered: Counter = Counter()
    wall = {}
    for idx, p in enumerate(tracer.parent):
        covered[tracer.op[idx]] += selfs[idx]
        if p == NO_PARENT:
            wall[tracer.op[idx]] = tracer.end[idx] - tracer.start[idx]
    shares = [covered[op] / w for op, w in wall.items() if w > 0]
    return (min(shares), max(shares)) if shares else (1.0, 1.0)
