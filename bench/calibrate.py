"""Noise calibration: the benchmark's own spread, from which the bounds
in ``BENCHMARK.json`` are derived.

Runs the end-to-end measurement of every workload at :data:`SEEDS`
consecutive seeds starting at its default seed, :data:`SETS` times over
(one whole set after the other, as a regression check would), for
``run_seconds`` each, and writes to ``bench/results/baseline.json`` per
set and metric the median, quartiles and relative spread
``(q3 - q1) / median`` across seeds, the change of the median between
sets, and the output digest of every (workload, seed)::

    python3 -m bench.calibrate [--write-reference]

``--write-reference`` records the digests in ``bench/reference.json``
(after checking that every set produced the same digest for a seed).
A bound must exceed three times the largest spread seen, so the
suggested bound is that, rounded up to a step of 0.05 (0.01 for
counts), at least one step and at most 0.25.  A count needs the step
even at zero spread: the simulation count of ``fc-optimize`` follows
the optimizer's trajectory, and at about one seed in ten it is 0.7 %
lower than at the others.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .run import (DEFAULT_SECONDS, END_TO_END, REFERENCE, BenchError,
                  quartiles, run_workload, spread)
from .workloads import WORKLOADS

SEEDS = 10
SETS = 2
OUT = Path(__file__).resolve().parent / "results" / "baseline.json"
MAX_BOUND = 0.25


def suggested_bound(spreads, unit: str) -> float:
    step = 0.01 if unit == "count" else 0.05
    steps = max(1, math.ceil(round(3 * max(spreads) / step, 9)))
    return min(MAX_BOUND, round(steps * step, 2))


def summarize(sets: list) -> dict:
    """Per workload and metric: each set's quartiles and spread, the
    change of median between consecutive sets, and a suggested bound."""
    summary = {}
    for workload in sets[0]:
        rows = {}
        for name, unit, better in END_TO_END:
            per_set = []
            for runs in sets:
                values = [run["metrics"][name] for run in runs[workload]]
                q1, median, q3 = quartiles(values)
                per_set.append({"q1": q1, "median": median, "q3": q3,
                                "spread": spread(values)})
            medians = [s["median"] for s in per_set]
            drift = [abs(b - a) / a if a else 0.0
                     for a, b in zip(medians, medians[1:])]
            rows[name] = {"unit": unit, "better": better, "sets": per_set,
                          "median_drift": drift,
                          "suggested_bound": suggested_bound(
                              [s["spread"] for s in per_set], unit)}
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.calibrate")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    start = time.monotonic()
    sets = []
    for index in range(SETS):
        runs = {}
        for workload in WORKLOADS:
            runs[workload] = []
            first = WORKLOADS[workload].default_seed
            for seed in range(first, first + SEEDS):
                try:
                    run = run_workload(workload, seed, DEFAULT_SECONDS)
                except BenchError as exc:
                    print(f"calibrate: {exc}", file=sys.stderr)
                    return 1
                record = {"seed": seed, "repeats": len(run.untraced),
                          "seconds": run.seconds, "digest":
                          run.untraced[0]["digest"], "correct": run.correct,
                          "metrics": run.end_to_end()}
                runs[workload].append(record)
                print(f"set {index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}"
                                 for k, v in record["metrics"].items())
                      + f" R={record['repeats']} {record['digest']}",
                      flush=True)
        sets.append(runs)

    digests = {}
    consistent = True
    for workload in WORKLOADS:
        for records in zip(*(runs[workload] for runs in sets)):
            seen = {r["digest"] for r in records}
            consistent &= len(seen) == 1 and all(r["correct"]
                                                 for r in records)
            digests.setdefault(workload, {})[str(records[0]["seed"])] = \
                records[0]["digest"]

    summary = summarize(sets)
    document = {
        "seconds_per_run": DEFAULT_SECONDS,
        "seeds_per_workload": SEEDS,
        "total_seconds": time.monotonic() - start,
        "digests_consistent": consistent,
        "summary": summary,
        "sets": sets,
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(document, indent=1) + "\n")
    for workload, rows in summary.items():
        for name, row in rows.items():
            spreads = ", ".join(f"{s['spread']:.3f}" for s in row["sets"])
            print(f"{workload:<14} {name:<12} spreads [{spreads}] drift "
                  f"{row['median_drift']} -> bound "
                  f"{row['suggested_bound']}")
    if args.write_reference and consistent:
        reference = json.loads(REFERENCE.read_text()) \
            if REFERENCE.exists() else {}
        for workload, seeds in digests.items():
            reference.setdefault(workload, {}).update(seeds)
        REFERENCE.write_text(json.dumps(reference, indent=1,
                                        sort_keys=True) + "\n")
    print(f"wrote {OUT}; digests "
          f"{'consistent' if consistent else 'INCONSISTENT'}")
    return 0 if consistent else 1


if __name__ == "__main__":
    sys.exit(main())
