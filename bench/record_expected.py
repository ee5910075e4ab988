"""Record the expected golden reports the ``goldens`` workload checks against.

    PYTHONPATH=src python3 bench/record_expected.py

Run from the repository root at the commit whose behaviour is the
contract.  Each golden goes through the ``goldens`` workload's own
operation, and its report is stored with ``wall_time_s`` blanked out.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    out_dir = os.path.join(run.BENCH_DIR, "expected")
    os.makedirs(out_dir, exist_ok=True)
    pf, _numpy = worker._import_parkfield()
    job = {"workload": "goldens", "inputs": run._inputs("goldens", 0), "expected_dir": out_dir}
    workload = worker.Workload(job, pf)
    for item in workload.inputs:
        rc, out, _spots = workload.run_op(item)
        if rc != 0:
            print(f"{item[0]}: exit code {rc}: {out}", file=sys.stderr)
            return 1
        with open(os.path.join(out_dir, item[0] + ".report"), "wb") as handle:
            handle.write(stats.normalize_report(out.encode("utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
