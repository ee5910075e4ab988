"""In-memory span tracing of parkfield's public functions, from outside the package.

``install`` wraps each traced function where it is defined and everywhere
a parkfield module has bound it by name (``strategy`` imports ``minimize``
and ``spot_field_set``, ``cli`` imports ``rank_spots`` and
``brute_force_minimize``, ...), and wraps the traced methods on their
class.  A wrapper records a span only while an operation is open, so the
benchmark's own checks, which call the same functions, leave no spans.

Spans keep a name, start and end (``perf_counter_ns``), the index of the
span that called them and the operation id.  The first word of a span
name is the layer: the parkfield module whose function it times.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "strategy", "scenario", "solver", "field")
OP = "op"

# (module, attribute, span name); the module is where the function is defined.
FUNCTIONS = (
    ("parkfield.cli", "main", "cli.main"),
    ("parkfield.strategy", "rank_spots", "strategy.rank_spots"),
    ("parkfield.strategy", "bias_drivers", "strategy.bias_drivers"),
    ("parkfield.strategy", "round_strategy", "strategy.round_strategy"),
    ("parkfield.solver", "minimize", "solver.minimize"),
    ("parkfield.solver", "brute_force_minimize", "solver.brute_force_minimize"),
    ("parkfield.scenario", "load_scenario", "scenario.load_scenario"),
    ("parkfield.scenario", "spot_field_set", "scenario.spot_field_set"),
    ("parkfield.scenario", "build_footprint", "scenario.build_footprint"),
)
# (module, class, method, span name)
METHODS = (
    ("parkfield.solver", "ObjectiveEvaluator", "__init__", "solver.compile"),
    ("parkfield.solver", "ObjectiveEvaluator", "scores", "solver.scores"),
    ("parkfield.field", "CompiledFieldSet", "eval_many", "field.eval_many"),
)


@dataclass
class Span:
    name: str
    start: int = 0
    end: int = 0
    parent: int = -1  # index of the calling span; -1 for an operation root
    op: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        # evaluator -> (lines, polygons) of the field set it compiled
        self._compiled = weakref.WeakKeyDictionary()
        self._restore: list = []

    @contextmanager
    def operation(self, op_id: int, **attrs):
        """Open the root span of one operation; yields the span."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        span = Span(OP, parent=-1, op=op_id, attrs=dict(attrs))
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span named ``name`` while an operation is open.

        ``before(span, args)`` and ``after(span, args, result)`` fill span
        counts; they run outside the span's interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            span = Span(name, parent=stack[-1], op=tracer._op)
            if before is not None:
                before(span, args)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced

    # -- count hooks -----------------------------------------------------

    def _compile_counts(self, span, args, result):
        fields = args[1]
        lines = sum(len(p.edges) for p in fields.polygons)
        self._compiled[args[0]] = (lines, len(fields.polygons))
        span.attrs["lines"] = lines

    def _scores_counts(self, span, args):
        span.attrs["poses"] = np.asarray(args[1]).size // 3
        span.attrs["lines"], span.attrs["polygons"] = self._compiled.get(args[0], (0, 0))

    def _eval_counts(self, span, args):
        span.attrs["points"] = len(args[1])
        parent = self.spans[span.parent]
        span.attrs["lines"] = parent.attrs.get("lines", 0)
        span.attrs["polygons"] = parent.attrs.get("polygons", 0)

    def _field_set_counts(self, span, args, result):
        from parkfield.geometry import OBSTACLE

        span.attrs["offered"] = len(args[1])
        span.attrs["kept"] = sum(1 for p in result.polygons if p.kind == OBSTACLE)

    @staticmethod
    def _converged(span, args, result):
        span.attrs["converged"] = bool(result.converged)
        span.attrs["evaluations"] = int(result.evaluations)

    @staticmethod
    def _drivers(span, args, result):
        span.attrs["drivers"] = len(result)

    # -- patching ----------------------------------------------------------

    def install(self):
        hooks = {
            "solver.compile": (None, self._compile_counts),
            "solver.scores": (self._scores_counts, None),
            "field.eval_many": (self._eval_counts, None),
            "scenario.spot_field_set": (None, self._field_set_counts),
            "solver.minimize": (None, self._converged),
            "solver.brute_force_minimize": (None, self._converged),
            "strategy.bias_drivers": (None, self._drivers),
        }
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "parkfield" or n.startswith("parkfield."))
        ]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            setattr(cls, attr, self.wrap(name, original, *hooks.get(name, (None, None))))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def calibrate(self, calls: int = 20000) -> float:
        """Nanoseconds one traced call adds over a plain call, hooks excluded."""

        def noop():
            return None

        traced = self.wrap("calibrate", noop)
        mark = len(self.spans)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        plain = time.perf_counter_ns() - t0
        with self.operation(-1):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter_ns() - t0
        del self.spans[mark:]
        return max(0.0, (wrapped - plain) / calls)


# Unit of each per-layer metric; "/op" marks a mean per operation.
UNITS = {
    "field.eval_ms": "ms/op",
    "field.eval.point_lines": "count/op",
    "field.eval.ns_per_point_line": "ns",
    "field.eval.mb_computed": "MB/op",
    "solver.scores_self_ms": "ms/op",
    "solver.poses_scored": "count/op",
    "solver.poses_per_s": "1/s",
    "solver.coarse.poses": "count/op",
    "solver.coarse_ms": "ms/op",
    "solver.refine.poses": "count/op",
    "solver.refine.polls": "count/op",
    "solver.refine.mean_batch": "count",
    "solver.minimize_self_ms": "ms/op",
    "solver.minimize.converged_ratio": "ratio",
    "solver.oracle_self_ms": "ms/op",
    "solver.oracle.poses": "count/op",
    "solver.compile_ms": "ms/op",
    "solver.samples": "count",
    "strategy.bias_drivers_ms": "ms/op",
    "strategy.explain.resolves": "count/op",
    "strategy.explain.poses": "count/op",
    "strategy.explain.share": "ratio",
    "strategy.explain.useful_ratio": "ratio",
    "scenario.load_ms": "ms/op",
    "scenario.field_set_ms": "ms/op",
    "scenario.field_set.kept_ratio": "ratio",
    "cli.self_ms": "ms/op",
    "cli.report_bytes": "bytes/op",
    "cli.import_ms": "ms",
    **{layer + ".layer_self_ms": "ms/op" for layer in LAYERS},
    "trace.unattributed_ms": "ms/op",
    "trace.op_ms": "ms/op",
    "trace.spans": "count/op",
    "trace.overhead_pct": "%",
}


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        lo_run = hi_run = None
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(span.end - span.start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, per_span_ns: float):
    """Per-layer metrics of a traced run, the largest self-time mismatch of
    an operation, and per-input rows comparable with the ROADMAP baseline.

    Times and counts are means per operation unless the name says
    otherwise.  Field evaluations count as objective scoring only when
    their parent is ``solver.scores``; those under ``spot_field_set`` are
    the obstacle-domination check and count towards that span.
    ``cli.import_ms`` comes from the set-up spawns, not from spans, and
    is added by the caller.
    """
    selfs = self_times(spans)
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    # Parents precede children in ``spans``, so one pass marks explain work.
    in_explain = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            in_explain[i] = in_explain[s.parent] or p.name == "strategy.bias_drivers"

    root_input = {s.op: s.attrs.get("input", "?") for s in spans if s.parent < 0}
    by_input = defaultdict(lambda: defaultdict(float))
    op_self = defaultdict(int)
    for i, s in enumerate(spans):
        tot = by_input[root_input.get(s.op, "?")]
        dur = s.end - s.start
        op_self[s.op] += selfs[i]
        if s.parent < 0:
            tot["ops"] += 1
            tot["op_ns"] += dur
            tot["unattributed_ns"] += selfs[i]
            tot["report_bytes"] += s.attrs.get("report_bytes", 0)
            continue
        tot["spans"] += 1
        tot[s.name.split(".")[0] + ".layer_self_ns"] += selfs[i]
        tot[s.name + ".ns"] += dur
        tot[s.name + ".self_ns"] += selfs[i]
        tot[s.name + ".calls"] += 1
        parent = spans[s.parent]
        if s.name == "field.eval_many" and parent.name == "solver.scores":
            n, lines, polys = s.attrs["points"], s.attrs["lines"], s.attrs["polygons"]
            tot["eval.ns"] += dur
            tot["eval.points"] += n
            tot["eval.point_lines"] += n * lines
            tot["eval.bytes"] += 8 * n * (3 * lines + 6 * polys - 3) if polys else 0
        elif s.name == "solver.scores":
            tot["scores.poses"] += s.attrs["poses"]
            if in_explain[i]:
                tot["explain.poses"] += s.attrs["poses"]
        elif s.name == "solver.minimize":
            tot["minimize.converged"] += s.attrs.get("converged", False)
            if parent.name == "strategy.bias_drivers":
                tot["explain.resolves"] += 1
            scored = [k for k in kids[i] if spans[k].name == "solver.scores"]
            for rank, k in enumerate(scored):
                stage = "coarse" if rank == 0 else "refine"
                tot[stage + ".poses"] += spans[k].attrs["poses"]
                tot[stage + ".ns"] += spans[k].end - spans[k].start
                tot[stage + ".calls"] += 1
        elif s.name == "solver.brute_force_minimize":
            tot["oracle.poses"] += s.attrs.get("evaluations", 0)
        elif s.name == "strategy.bias_drivers":
            tot["explain.drivers"] += s.attrs.get("drivers", 0)
        elif s.name == "scenario.spot_field_set":
            tot["field_set.offered"] += s.attrs.get("offered", 0)
            tot["field_set.kept"] += s.attrs.get("kept", 0)
    mismatch = max(
        (abs(op_self[s.op] - (s.end - s.start)) for s in spans if s.parent < 0), default=0
    )

    total = defaultdict(float)
    rows = []
    for name in sorted(by_input):
        tot = by_input[name]
        for key, value in tot.items():
            total[key] += value
        m = _metrics(tot, per_span_ns)
        minimizes = tot["solver.minimize.calls"]
        rows.append(
            {
                "input": name,
                "ops": int(tot["ops"]),
                "op_ms": m["trace.op_ms"],
                "minimize_per_op": _ratio(minimizes, tot["ops"]),
                "coarse_poses_per_minimize": _ratio(tot["coarse.poses"], minimizes),
                "poses_per_minimize": _ratio(tot["coarse.poses"] + tot["refine.poses"], minimizes),
                "poses_per_s": m["solver.poses_per_s"],
                "explain_share": m["strategy.explain.share"],
            }
        )
    return _metrics(total, per_span_ns), mismatch, rows


def _metrics(tot, per_span_ns):
    """Metrics from the totals ``layer_metrics`` gathers over some operations."""
    per_op = _ratio(1.0, tot["ops"])
    ms = 1e-6 * per_op

    def t(key):
        return tot[key] * ms

    m = {
        "field.eval_ms": t("eval.ns"),
        "field.eval.point_lines": tot["eval.point_lines"] * per_op,
        "field.eval.ns_per_point_line": _ratio(tot["eval.ns"], tot["eval.point_lines"]),
        "field.eval.mb_computed": tot["eval.bytes"] * per_op / 1e6,
        "solver.scores_self_ms": t("solver.scores.self_ns"),
        "solver.poses_scored": tot["scores.poses"] * per_op,
        "solver.poses_per_s": _ratio(tot["scores.poses"], tot["solver.scores.ns"] * 1e-9),
        "solver.coarse.poses": tot["coarse.poses"] * per_op,
        "solver.coarse_ms": t("coarse.ns"),
        "solver.refine.poses": tot["refine.poses"] * per_op,
        "solver.refine.polls": tot["refine.calls"] * per_op,
        "solver.refine.mean_batch": _ratio(tot["refine.poses"], tot["refine.calls"]),
        "solver.minimize_self_ms": t("solver.minimize.self_ns"),
        "solver.minimize.converged_ratio": _ratio(
            tot["minimize.converged"], tot["solver.minimize.calls"]
        ),
        "solver.oracle_self_ms": t("solver.brute_force_minimize.self_ns"),
        "solver.oracle.poses": tot["oracle.poses"] * per_op,
        "solver.compile_ms": t("solver.compile.ns"),
        "solver.samples": _ratio(tot["eval.points"], tot["scores.poses"]),
        "strategy.bias_drivers_ms": t("strategy.bias_drivers.ns"),
        "strategy.explain.resolves": tot["explain.resolves"] * per_op,
        "strategy.explain.poses": tot["explain.poses"] * per_op,
        "strategy.explain.share": _ratio(tot["strategy.bias_drivers.ns"], tot["op_ns"]),
        "strategy.explain.useful_ratio": _ratio(tot["explain.drivers"], tot["explain.resolves"]),
        "scenario.load_ms": t("scenario.load_scenario.ns"),
        "scenario.field_set_ms": t("scenario.spot_field_set.ns"),
        "scenario.field_set.kept_ratio": _ratio(tot["field_set.kept"], tot["field_set.offered"]),
        "cli.self_ms": t("cli.main.self_ns"),
        "cli.report_bytes": tot["report_bytes"] * per_op,
    }
    for layer in LAYERS:
        m[layer + ".layer_self_ms"] = t(layer + ".layer_self_ns")
    m["trace.unattributed_ms"] = t("unattributed_ns")
    m["trace.op_ms"] = t("op_ns")
    m["trace.spans"] = tot["spans"] * per_op
    m["trace.overhead_pct"] = 100.0 * _ratio(per_span_ns * tot["spans"], tot["op_ns"])
    return m
