"""Benchmark runner: repeats each workload in fresh child interpreters,
checks the outputs, and prints the metrics.

Usage (from the repository root)::

    python3 -m bench [--workload NAME] [--seed N] [--seconds S]
                     [--trace 0|1] [--trace-out DIR]

Without ``--workload`` every workload runs, one after the other.  Each
repeat is a child interpreter (``python -m bench.child``) started only
after the previous one has ended, with BLAS and OpenMP pinned to one
thread, so no cache survives from one repeat to the next and every
repeat reports its own peak RSS.

* ``--trace 0`` measures the end-to-end metrics: untraced repeats for
  ``--seconds`` (at least :data:`MIN_REPEATS`), medians reported.
* ``--trace 1`` measures the per-layer metrics: alternating untraced
  and traced repeats for ``--seconds`` (at least one pair); the traced
  repeats give the layer numbers, the pair gives ``trace.overhead``.
* without ``--trace``, both: the end-to-end repeats, then one traced
  repeat.

A repeat starts only while one as long as the longest so far still
fits in ``--seconds``, so a run ends within its time.

Correctness: every repeat's output digest must be equal, and equal to
the reference in ``bench/reference.json`` when it records the seed.
The last stdout line is one JSON object with the keys ``correct``,
``attempted`` (simulations run), ``failed`` (failed DC solves and
failed samples) and ``metrics``.  The exit code is 0 only when every
workload ran and was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .layers import METRICS
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: The ``run_seconds`` of ``BENCHMARK.json``.
DEFAULT_SECONDS = json.loads(
    (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MIN_REPEATS = 3
#: A child that has not finished by then is killed and the run fails
#: (a repeat takes under 12 s; a run must end within 180 s).
CHILD_TIMEOUT_S = 90

#: ``(name, unit, better)`` of the end-to-end metrics.
END_TO_END = (("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("simulations", "count", "lower"),
              ("peak_rss_mb", "MB", "lower"))


class BenchError(RuntimeError):
    """A child failed, timed out or printed no record."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_child(workload: str, seed: int, traced: bool, src: Path,
              trace_out: Optional[Path] = None) -> dict:
    """Run one repeat to completion and return its record."""
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--src", str(src)]
    if traced:
        cmd.append("--trace")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} seed {seed}: repeat exceeded "
                         f"{CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: repeat exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def load_reference() -> Dict[str, Dict[str, str]]:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; the median for all three below 2 values."""
    if len(values) < 2:
        m = float(values[0])
        return m, m, m
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median; 0 for a zero median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


@dataclass
class WorkloadRun:
    """All repeats of one workload at one seed."""

    workload: str
    seed: int
    untraced: List[dict] = field(default_factory=list)
    traced: List[dict] = field(default_factory=list)
    reference: Optional[str] = None
    seconds: float = 0.0

    @property
    def digests(self) -> set:
        return {r["digest"] for r in self.untraced + self.traced}

    @property
    def correct(self) -> bool:
        digests = self.digests
        return len(digests) == 1 and (self.reference is None
                                      or digests == {self.reference})

    @property
    def attempted(self) -> int:
        return sum(r["simulations"] for r in self.untraced + self.traced)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.untraced + self.traced)

    def end_to_end(self) -> Dict[str, float]:
        rows = self.untraced
        return {"wall_s": statistics.median(r["wall_s"] for r in rows),
                "setup_s": statistics.median(r["setup_s"] for r in rows),
                "simulations": rows[0]["simulations"],
                "peak_rss_mb":
                    statistics.median(r["peak_rss_mb"] for r in rows)}

    def per_layer(self) -> Dict[str, float]:
        names = self.traced[0]["layers"]
        out = {name: statistics.median(r["layers"][name]
                                       for r in self.traced)
               for name in names}
        untraced_wall = statistics.median(r["wall_s"] for r in self.untraced)
        out["trace.overhead"] = out["trace.wall_s"] / untraced_wall - 1.0
        return out


def run_workload(workload: str, seed: int, seconds: float,
                 end_to_end: bool = True, layers: bool = False,
                 src: Path = ROOT / "src",
                 trace_out: Optional[Path] = None) -> WorkloadRun:
    """Repeat ``workload`` as described in the module docstring."""
    run = WorkloadRun(workload, seed,
                      reference=load_reference().get(workload, {})
                      .get(str(seed)))
    start = time.monotonic()

    def more(steps: List[float], since: float) -> bool:
        return time.monotonic() - since + max(steps) <= seconds

    if end_to_end:
        steps = []
        while True:
            began = time.monotonic()
            run.untraced.append(run_child(workload, seed, False, src))
            steps.append(time.monotonic() - began)
            if len(steps) >= MIN_REPEATS and not more(steps, start):
                break
    if layers:
        phase = time.monotonic()
        steps = []
        while True:
            began = time.monotonic()
            if not end_to_end:
                run.untraced.append(run_child(workload, seed, False, src))
            out = trace_out / f"{workload}-seed{seed}.trace.json" \
                if trace_out is not None and not run.traced else None
            run.traced.append(run_child(workload, seed, True, src, out))
            steps.append(time.monotonic() - began)
            if end_to_end or not more(steps, phase):
                break
    run.seconds = time.monotonic() - start
    return run


def describe(run: WorkloadRun, end_to_end: bool, layers: bool,
             units: Dict[str, str]) -> List[str]:
    """Human-readable lines for one workload."""
    status = "ok" if run.correct else \
        f"MISMATCH digests={sorted(run.digests)} reference={run.reference}"
    lines = [f"== {run.workload} seed={run.seed} repeats="
             f"{len(run.untraced)}+{len(run.traced)} traced "
             f"({run.seconds:.1f} s) digest "
             f"{'/'.join(sorted(run.digests))} {status}"]
    if end_to_end:
        for name, value in run.end_to_end().items():
            q1, _, q3 = quartiles([r[name] for r in run.untraced])
            lines.append(f"  {name:<44} {value:>14.6g} {units[name]:<6}"
                         f" q1 {q1:.6g} q3 {q3:.6g}")
    if layers:
        for name, value in run.per_layer().items():
            lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Run the repro benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload and phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--trace-out", type=Path,
                        help="directory for Chrome trace-event JSON of "
                             "the first traced repeat")
    args = parser.parse_args(argv)

    end_to_end = args.trace != 1
    layers = args.trace != 0
    units = {name: unit for name, unit, _ in END_TO_END + METRICS}
    if args.trace_out is not None:
        args.trace_out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)

    runs = []
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None \
            else args.seed
        try:
            run = run_workload(name, seed, args.seconds, end_to_end,
                               layers, trace_out=args.trace_out)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        runs.append(run)
        print("\n".join(describe(run, end_to_end, layers, units)),
              flush=True)

    metrics = {}
    for run in runs:
        values = {}
        if end_to_end:
            values.update(run.end_to_end())
        if layers:
            values.update(run.per_layer())
        prefix = "" if len(runs) == 1 else f"{run.workload}."
        metrics.update({prefix + name: {"value": value,
                                        "unit": units[name]}
                        for name, value in values.items()})
    correct = all(run.correct for run in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1
