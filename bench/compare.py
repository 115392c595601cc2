"""Compare a parent and a change on the benchmark, one workload per row.

Both sides run with this checkout's benchmark code and settings; only
the library source tree differs::

    python3 -m bench.compare --parent PARENT/src --change CHANGE/src
                             [--out FILE]

For every workload, :data:`MIN_PAIRS` pairs of ``run_seconds`` runs go
at consecutive seeds starting at the workload's default seed,
alternating which side runs first.  Each (workload, end-to-end metric)
gets a verdict against the bound in ``BENCHMARK.json``:

* ``improved``: at least :data:`MIN_PAIRS` pairs ran, the change wins at
  least nine tenths of them (ties count for neither) and the medians
  differ by more than the parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the parent's spread (interquartile range over median)
  exceeds the bound, unless every change run beats every parent run;
* ``unchanged``: otherwise.

Counts (unit ``count``) are exact at a seed, so they get no spread test:
a median worse by more than the bound is regressed, never worse in any
pair and better in one is improved, anything else unchanged.  Outputs
must also agree: a pair whose digests differ is reported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from .run import (DEFAULT_SECONDS, END_TO_END, ROOT, BenchError, quartiles,
                  run_workload, spread)
from .workloads import WORKLOADS

#: Pairs per workload; fewer timed pairs than this never support a gain.
MIN_PAIRS = 10


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, float]:
    return {m["name"]: m["bound"]
            for m in json.loads(path.read_text())["end_to_end"]}


def pair_gains(parent: Sequence[float], change: Sequence[float],
               better: str) -> List[float]:
    """Per pair, how much better the change reads (positive: better)."""
    sign = 1.0 if better == "lower" else -1.0
    return [sign * (p - c) for p, c in zip(parent, change)]


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, exact: bool = False) -> str:
    """Verdict for paired values (``parent[i]`` and ``change[i]`` ran at
    the same seed); see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    gains = pair_gains(parent, change, better)
    q1, median, q3 = quartiles(parent)
    _, change_median, _ = quartiles(change)
    worse = sign * (change_median - median) / median if median else 0.0
    if exact:
        if worse > bound:
            return "regressed"
        return "improved" if all(g >= 0 for g in gains) and \
            any(g > 0 for g in gains) else "unchanged"
    wins = sum(1 for g in gains if g > 0)
    if len(gains) >= MIN_PAIRS and wins >= 0.9 * len(gains) and \
            sign * (median - change_median) > q3 - q1:
        return "improved"
    separated = max(change) < min(parent) if sign > 0 \
        else min(change) > max(parent)
    if spread(parent) > bound and not separated:
        return "unresolved"
    return "regressed" if worse > bound else "unchanged"


def compare(parent_src: Path, change_src: Path) -> dict:
    """Run the alternating pairs; returns raw values and verdicts."""
    bounds = load_bounds()
    report = {}
    for workload in WORKLOADS:
        first = WORKLOADS[workload].default_seed
        sides = {"parent": [], "change": []}
        digests_match = []
        for i in range(MIN_PAIRS):
            seed = first + i
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            runs = {}
            for side in order:
                src = parent_src if side == "parent" else change_src
                runs[side] = run_workload(workload, seed, DEFAULT_SECONDS,
                                          src=src)
                print(f"{workload} seed {seed} {side}: "
                      f"wall_s={runs[side].end_to_end()['wall_s']:.4g}",
                      file=sys.stderr, flush=True)
            for side in sides:
                sides[side].append(runs[side].end_to_end())
            digests_match.append(runs["parent"].digests
                                 == runs["change"].digests)
        rows = {}
        for name, unit, better in END_TO_END:
            parent = [m[name] for m in sides["parent"]]
            change = [m[name] for m in sides["change"]]
            gains = pair_gains(parent, change, better)
            rows[name] = {
                "unit": unit, "parent": parent, "change": change,
                "parent_quartiles": quartiles(parent),
                "change_quartiles": quartiles(change),
                "win_fraction": sum(g > 0 for g in gains) / len(gains),
                "verdict": verdict(parent, change, better, bounds[name],
                                   exact=unit == "count")}
        report[workload] = {"metrics": rows,
                            "digests_match": all(digests_match)}
    return report


def render(report: dict) -> List[str]:
    lines = [f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<30}"
             f" {'change median [q1, q3]':<30} {'delta':>8} {'wins':>5}"
             f"  verdict"]
    for workload, entry in report.items():
        for name, row in entry["metrics"].items():
            p1, pm, p3 = row["parent_quartiles"]
            c1, cm, c3 = row["change_quartiles"]
            delta = (cm - pm) / pm if pm else 0.0
            lines.append(
                f"{workload:<14} {name:<12} "
                f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<30} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<30} "
                f"{delta:>+8.1%} {row['win_fraction']:>5.0%}  "
                f"{row['verdict']}")
        if not entry["digests_match"]:
            lines.append(f"{workload:<14} outputs differ between parent "
                         f"and change")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare")
    parser.add_argument("--parent", type=Path, required=True,
                        help="parent library source tree (holds repro/)")
    parser.add_argument("--change", type=Path, required=True,
                        help="changed library source tree")
    parser.add_argument("--out", type=Path,
                        help="write the raw values and verdicts as JSON")
    args = parser.parse_args(argv)
    try:
        report = compare(args.parent.resolve(), args.change.resolve())
    except BenchError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    print("\n".join(render(report)))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    regressed = any(row["verdict"] == "regressed"
                    for entry in report.values()
                    for row in entry["metrics"].values())
    mismatch = any(not entry["digests_match"] for entry in report.values())
    return 1 if regressed or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
