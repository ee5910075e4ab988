"""Benchmark worker: one process that imports parkfield and runs one workload.

``run.py`` starts it with the package on ``PYTHONPATH`` and writes one JSON
job to its stdin.  The worker imports parkfield, parses the workload's
inputs and prints a ``ready`` line; ``run.py`` times a cold start up to
that line.  In ``setup`` mode it exits there.  In ``run`` mode it runs the
closed loop for the job's seconds (one client, no threads), checks every
operation's output outside the timed loop and prints one result line.

Operations per workload:

- goldens: ``parkfield.cli.main(["solve", path])`` on one golden file,
  default config, explain on; a run is whole passes over the goldens.
- lot: ``load_scenario(text)`` then ``rank_spots(..., explain=False)`` on
  one generated lot.
- oracle: ``parkfield.cli.main(["oracle", path])`` at the verb's default
  lattice pitch; a run is whole passes over the goldens.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import stats

GAP_TOL = 1e-6  # acceptance 5: minimize never exceeds the lattice oracle by more
SCORE_TOL = 1e-9  # relative; the same quadrature re-evaluated in another batch
REFERENCE_DENSITY = 2500.0


def _emit(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


class Workload:
    """One workload's inputs, operation and output checks.

    Every parkfield function is looked up on the package at call time, so
    the tracer's wrappers see the calls.
    """

    def __init__(self, job, pf):
        self.kind = job["workload"]
        self.pf = pf
        self.expected_dir = job["expected_dir"]
        self.inputs = []  # (name, path or None, text, scenario)
        for item in job["inputs"]:
            path = item.get("path")
            if path is not None:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            else:
                text = item["text"]
            self.inputs.append((item["name"], path, text, pf.load_scenario(text)))
        self._objectives = {}
        self._minimize = {}

    # -- operations ---------------------------------------------------------

    def schedule(self):
        """Batches of inputs; the loop stops only between batches."""
        if self.kind == "lot":
            while True:
                for item in self.inputs:
                    yield [item]
        while True:
            yield self.inputs

    def run_op(self, item):
        """(exit code, output, spots) of one operation."""
        name, path, text, scenario = item
        if self.kind == "lot":
            parsed = self.pf.load_scenario(text)
            ranked = self.pf.rank_spots(parsed, explain=False)
            return 0, (parsed, ranked), len(parsed.spots)
        verb = "solve" if self.kind == "goldens" else "oracle"
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pf.cli.main([verb, path])
        if rc != 0:
            return rc, err.getvalue().strip(), len(scenario.spots)
        return rc, out.getvalue(), len(scenario.spots)

    # -- output checks ------------------------------------------------------

    def objectives(self, name, scenario, spot_id, pose):
        """Objective at the default density and at the reference density."""
        key = (name, spot_id, pose["x"], pose["y"], pose["theta"])
        if key not in self._objectives:
            pf = self.pf
            spot = next(s for s in scenario.spots if s.id == spot_id)
            footprint = pf.build_footprint(scenario.context, scenario.vehicle)
            fields = pf.spot_field_set(spot, list(scenario.obstacles), reach=footprint.max_reach())
            local = pf.FieldSet(
                tuple(pf.geometry.transform_polygon(spot.spot_frame, p) for p in fields.polygons)
            )
            at = pf.Pose(pose["x"], pose["y"], pose["theta"])
            self._objectives[key] = tuple(
                pf.objective(local, footprint, at, plan)
                for plan in (pf.SamplingPlan(), pf.SamplingPlan(density=REFERENCE_DENSITY))
            )
        return self._objectives[key]

    def check(self, item, output):
        """(problems, quadrature errors, oracle gaps) for one operation's output."""
        name, path, text, scenario = item
        if self.kind == "lot":
            return self._check_lot(name, *output)
        report = json.loads(output)
        problems = []
        if self.kind == "goldens":
            expected = os.path.join(self.expected_dir, name + ".report")
            try:
                with open(expected, "rb") as handle:
                    want = handle.read()
            except OSError:
                return [f"no expected report {expected}"], [], []
            if stats.normalize_report(output.encode("utf-8")) != want:
                problems.append("report bytes differ from the expected report")
        gaps = []
        if self.kind == "oracle":
            solved = self._minimize_scores(name, scenario)
            lattice = {s["spot_id"]: s["score"] for s in report["strategies"]}
            if set(lattice) != set(solved):
                problems.append(f"oracle spots {sorted(lattice)} != solve spots {sorted(solved)}")
            for spot_id in sorted(set(lattice) & set(solved)):
                gap = solved[spot_id] - lattice[spot_id]
                gaps.append(gap)
                if gap > GAP_TOL:
                    problems.append(f"{spot_id}: minimize exceeds lattice by {gap:.3g}")
        errs = []
        for s in report["strategies"]:
            coarse, fine = self.objectives(name, scenario, s["spot_id"], s["pose"])
            errs.append(abs(coarse - fine) / abs(fine))
        return problems, errs, gaps

    def _minimize_scores(self, name, scenario):
        if name not in self._minimize:
            ranked = self.pf.rank_spots(scenario, explain=False)
            self._minimize[name] = {s.spot_id: s.score for s in ranked.strategies}
        return self._minimize[name]

    def _check_lot(self, name, scenario, ranked):
        pf = self.pf
        config = pf.SolverConfig()
        footprint = pf.build_footprint(scenario.context, scenario.vehicle)
        spots = {s.id: s for s in scenario.spots}
        problems = []
        if ranked.infeasible:
            problems.append(f"infeasible spots {ranked.infeasible}")
        if sorted(s.spot_id for s in ranked.strategies) != sorted(spots):
            problems.append("strategies do not cover every spot")
        keys = [(s.score, s.spot_id) for s in ranked.strategies]
        if keys != sorted(keys):
            problems.append("ranking is not ascending")
        errs = []
        for st in ranked.strategies:
            spot = spots.get(st.spot_id)
            if spot is None:
                continue
            p = st.pose
            if not (0.0 <= p.x_hat <= spot.length and 0.0 <= p.y_hat <= spot.width):
                problems.append(f"{st.spot_id}: pose {p} outside the spot box")
            deviation = min(
                abs(math.remainder(p.theta_hat - h, 2 * math.pi)) for h in config.headings
            )
            if deviation > config.theta_range + 1e-9:
                problems.append(f"{st.spot_id}: heading {p.theta_hat} outside the window")
            pose = {"x": p.x_hat, "y": p.y_hat, "theta": p.theta_hat}
            coarse, fine = self.objectives(name, scenario, st.spot_id, pose)
            if abs(coarse - st.score) > SCORE_TOL * max(1.0, abs(coarse)):
                problems.append(f"{st.spot_id}: score {st.score!r} != objective {coarse!r}")
            errs.append(abs(coarse - fine) / abs(fine))
            rounded = pf.round_strategy(pf.SolveResult(p, st.score, 0, True), spot, footprint)
            if rounded != st:
                problems.append(f"{st.spot_id}: directives differ from round_strategy")
        return problems, errs, []


def _import_parkfield():
    import numpy

    import parkfield
    import parkfield.cli

    return parkfield, numpy


def main() -> int:
    job = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    pf, numpy = _import_parkfield()
    import_ms = (time.perf_counter() - t0) * 1e3
    workload = Workload(job, pf)
    _emit({"ready": True, "import_ms": import_ms})
    if job["mode"] == "setup":
        return 0

    tracer = None
    if job["trace"]:
        import tracing  # after the timed import, so that one starts cold

        tracer = tracing.Tracer()
        tracer.install()
    ops = []  # [input name, latency ns, spots, error or None]
    outputs = []
    start = time.perf_counter()
    for batch in workload.schedule():
        for item in batch:
            op_id = len(ops)
            try:
                if tracer is None:
                    t = time.perf_counter_ns()
                    rc, out, spots = workload.run_op(item)
                    ns = time.perf_counter_ns() - t
                else:
                    with tracer.operation(op_id, input=item[0]) as root:
                        rc, out, spots = workload.run_op(item)
                    ns = root.end - root.start
                    if isinstance(out, str) and rc == 0:
                        root.attrs["report_bytes"] = len(out.encode("utf-8"))
                error = None if rc == 0 else f"exit code {rc}: {out}"
            except Exception:  # an operation that raises counts as failed
                ns, spots, out = 0, 0, None
                error = traceback.format_exc(limit=3)
            ops.append([item[0], ns, spots, error])
            outputs.append((item, out))
        if time.perf_counter() - start >= job["seconds"]:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    quad_errs, gaps = [], []
    for op, (item, out) in zip(ops, outputs):
        if op[3] is not None:
            continue
        try:
            problems, errs, op_gaps = workload.check(item, out)
        except Exception:  # a check that cannot run fails the operation
            problems, errs, op_gaps = [traceback.format_exc(limit=3)], [], []
        if problems:
            op[3] = "; ".join(problems)
        quad_errs.extend(errs)
        gaps.extend(op_gaps)

    ok = [op for op in ops if op[3] is None]
    result = {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "errors": sorted({f"{op[0]}: {op[3]}" for op in ops if op[3] is not None})[:5],
        "latencies_ms": [op[1] / 1e6 for op in ok],
        "spots": sum(op[2] for op in ok),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "quad_err_rel_max": max(quad_errs) if quad_errs else None,
        "oracle_gap_max": max(gaps) if gaps else None,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if tracer is not None:
        per_span = tracer.calibrate()
        metrics, mismatch, rows = tracing.layer_metrics(tracer.spans, per_span)
        result["trace"] = {
            "metrics": metrics,
            "self_time_mismatch_ns": mismatch,
            "missing": tracer.missing,
            "per_span_ns": per_span,
            "reconcile": rows,
        }
        _write_spans(job["spans_path"], tracer.spans)
    _emit(result)
    return 0


def _write_spans(path, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(
                json.dumps([s.op, s.parent, s.name, s.start, s.end, s.attrs]) + "\n"
            )


if __name__ == "__main__":
    sys.exit(main())
