"""Measure every workload, print every metric, and rewrite BENCHMARK.json.

    python3 perfbench/report.py [--trace]

Runs each workload once with seed 0 for `spec.RUN_SECONDS` and prints each
end-to-end metric by name, with its unit and sample count, after the run's
correctness checks; `--trace` adds the traced run of each workload and
prints every per-layer metric.  BENCHMARK.json is regenerated from
`spec.py`, so the two never disagree.  Exits 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import spec

SEED = 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true",
                        help="also run traced and print per-layer metrics")
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")

    all_correct = True
    for workload in spec.WORKLOADS:
        for trace in (False, True) if args.trace else (False,):
            result = run.measure(workload, SEED, spec.RUN_SECONDS, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {kind}, correct={result['correct']}")
            for line in result["lines"]:
                print(f"   {line}")
            all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
