"""parkfield benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {goldens,lot,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` by
worker subprocesses; nothing is installed or built.  All workloads are a
closed loop with one client in one worker process that starts no threads
of its own, with BLAS pinned to one thread so both sides of a comparison
run alike.  See ``bench/NOTES.md`` for why each workload exists and which
layer each metric belongs to.

With ``--trace 0`` the last line carries the end-to-end metrics, measured
untraced.  With ``--trace 1`` the same loop runs with every public
parkfield function wrapped in a span, and the last line carries the
per-layer metrics; spans are written to ``.bench_out/``.  Lines before
the last one are a human-readable table and the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import lot  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("goldens", "lot", "oracle")
LOT_POOL = 64
# Cold set-up spawns on each side of the timed run: a shared machine's speed
# moves over tens of seconds, so the median takes in both ends of the run.
SETUP_SPAWNS = 8
WORKER_TIMEOUT_S = 150.0
OUT_DIR = ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Reported in the last line.  failed_ops_ratio (0 on working code; the
# line's "failed"/"attempted" carry it) and oracle_gap_max (a signed score
# difference that can be exactly 0) are printed above it but are not
# bounded metrics, because a bound is a share of the parent's median.
END_TO_END = (
    "spots_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb", "quad_err_rel_max"
)

WHY = {
    "goldens": "the documented behaviour contract: report bytes are checked against "
    "the seed; two thirds of the scored poses are bias_drivers re-solves",
    "lot": "generated obstacle-heavy lots without explain: the field kernel and "
    "spot_field_set pruning do the work; the no-change control for explain",
    "oracle": "exhaustive lattice search in ~2M-point batches: kernel throughput "
    "and peak memory, no refinement and no explain",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _inputs(workload: str, seed: int):
    """Job inputs; the program sees only scenario files or scenario text."""
    if workload == "lot":
        rng = random.Random(seed)
        return [
            {"name": f"lot{i:02d}", "text": lot.generate_lot(rng.getrandbits(32))}
            for i in range(LOT_POOL)
        ]
    # The goldens are fixed inputs, so the seed does not change them; the
    # order is fixed too, because it moves peak RSS by several percent.
    names = sorted(n for n in os.listdir("scenarios") if n.endswith(".json"))
    return [{"name": n[: -len(".json")], "path": os.path.join("scenarios", n)} for n in names]


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_ENV:
        env[name] = "1"
    return env


def _spawn(job, env):
    """Start a worker; return (process, seconds from spawn to its ready line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        proc.stdin = None  # so communicate() does not flush the closed pipe
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if not line or not json.loads(line).get("ready"):
            raise RuntimeError(f"worker did not become ready: {line!r}")
    except BaseException:
        _stop(proc)
        raise
    return proc, ready, json.loads(line)


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _setup(job, env, spawns):
    """Spawn-to-ready seconds and import milliseconds of setup-only spawns."""
    times, imports = [], []
    for _ in range(spawns):
        proc, ready, msg = _spawn(dict(job, mode="setup"), env)
        try:
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            _stop(proc)
        if code != 0:
            raise RuntimeError("setup worker failed")
        times.append(ready)
        imports.append(msg["import_ms"])
    return times, imports


def _metadata(versions):
    sha = "unknown"
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        sha = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(os.path.join("src", "parkfield"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "platform": platform.platform(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "worker_blas_env": {name: "1" for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "parkfield", "__init__.py")):
        return _fail("src/parkfield not found; run from the repository root")
    if not os.path.isdir("scenarios") or not any(
        n.endswith(".json") for n in os.listdir("scenarios")
    ):
        return _fail("no golden scenarios in scenarios/")

    env = _worker_env()
    job = {
        "workload": args.workload,
        "inputs": _inputs(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "expected_dir": os.path.join(BENCH_DIR, "expected"),
        "spans_path": os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
    }
    try:
        _setup(job, env, 1)  # warms bytecode and file caches only
        setup_times, imports = _setup(job, env, SETUP_SPAWNS)
        proc, _ready, _msg = _spawn(dict(job, mode="run"), env)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return _fail(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s")
        finally:
            _stop(proc)
        if proc.returncode != 0:
            return _fail(f"worker exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        after_times, after_imports = _setup(job, env, SETUP_SPAWNS)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    setup_times += after_times
    imports += after_imports

    attempted, failed = result["attempted"], result["failed"]
    lat = result["latencies_ms"]
    e2e = {"setup_s": (stats.median(setup_times), "s", len(setup_times))}
    if lat:
        tail_ms, tail_pct, n = stats.tail(lat)
        e2e["spots_per_s"] = (result["spots"] / result["wall_s"], "1/s", len(lat))
        e2e["op_p50_ms"] = (stats.median(lat), "ms", n)
        e2e["op_tail_ms"] = (tail_ms, "ms", n)
    e2e["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)
    e2e["failed_ops_ratio"] = (failed / attempted, "ratio", attempted)
    if result["quad_err_rel_max"] is not None:
        e2e["quad_err_rel_max"] = (result["quad_err_rel_max"], "ratio", len(lat))
    if result["oracle_gap_max"] is not None:
        e2e["oracle_gap_max"] = (result["oracle_gap_max"], "score", len(lat))

    trace = result.get("trace")
    correct = failed == 0 and bool(lat)
    if trace is not None:
        correct = correct and trace["self_time_mismatch_ns"] == 0 and not trace["missing"]
        trace["metrics"]["cli.import_ms"] = stats.median(imports)

    print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
    label = "traced run, not for comparison" if trace else "untraced"
    print(f"end-to-end ({label}), {attempted} ops attempted, {failed} failed:")
    for name, (value, unit, n) in e2e.items():
        extra = f"  p{tail_pct:.1f} of n={n}" if name == "op_tail_ms" else f"  n={n}"
        print(f"  {name:18s} {value:14.6g} {unit:6s}{extra}")
    for error in result["errors"]:
        print(f"  failed: {error}")
    if trace is not None:
        print(
            f"per-layer (per op unless named otherwise), per-span cost "
            f"{trace['per_span_ns']:.0f} ns, self-time mismatch "
            f"{trace['self_time_mismatch_ns']} ns, missing {trace['missing']}:"
        )
        for name, value in trace["metrics"].items():
            print(f"  {name:34s} {value:14.6g} {tracing.UNITS[name]}")
        print("reconcile (per input):")
        for row in trace["reconcile"]:
            print("  " + json.dumps(row))
    meta = _metadata(result["versions"])
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        tail_percentile=tail_pct if lat else None,
        samples=len(lat),
    )
    print("meta " + json.dumps(meta, sort_keys=True))

    if trace is not None:
        metrics = {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in trace["metrics"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in e2e.items()
            if name in END_TO_END
        }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0



if __name__ == "__main__":
    sys.exit(main())
