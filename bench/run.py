"""smallmass benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload dw1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it record the run environment, every workload run, the sha256 digests of
the output files and the accuracy figure. See README.md in this directory
for the workloads, the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from measure import BenchError, measure
from workloads import WORKLOADS


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    root = Path(__file__).resolve().parent.parent
    try:
        outcome = measure(
            root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), started
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in outcome.report:
        print(line)
    print(outcome.result_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
