"""One repeat of one workload, in a fresh interpreter.

Started by :mod:`bench.run` (one child at a time); prints one JSON
record as its last stdout line::

    python -m bench.child --workload fc-optimize --seed 7 --src src
                          [--trace] [--trace-out FILE]

Set-up time covers ``import repro`` (numpy and scipy are imported
first, untimed) plus the workload set-up.  With ``--trace`` the body
runs under the span tracer of :mod:`bench.layers` and the record
carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from .layers import LAYERS, layer_metrics
from .tracer import ROOT_LAYER, Tracer
from .workloads import WORKLOADS, Prepared, counter_delta, counters

#: Third-party modules the library imports; loaded before the set-up
#: clock starts so that ``setup_s`` measures the library, not scipy.
PRELOAD = ("numpy", "scipy.sparse", "scipy.sparse.linalg",
           "scipy.optimize", "scipy.special", "scipy.stats")


def measure(name: str, setup: Callable[[int], Prepared], seed: int,
            trace: bool = False, trace_out: Optional[str] = None) -> dict:
    """Set up, run and check one repeat; returns its record."""
    for module in PRELOAD:
        importlib.import_module(module)
    t0 = time.perf_counter()
    repro = importlib.import_module("repro")
    prepared = setup(seed)
    setup_s = time.perf_counter() - t0

    before = counters(prepared)
    tracer = None
    body = prepared.body
    if trace:
        evaluators = prepared.evaluators
        tracer = Tracer(probes={
            "sims": lambda: sum(e.simulation_count for e in evaluators),
            "constraint_sims":
                lambda: sum(e.constraint_count for e in evaluators)})
        tracer.install(LAYERS)
        body = tracer.wrap(prepared.body, name, ROOT_LAYER)
    try:
        t0 = time.perf_counter()
        result = body()
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    delta = counter_delta(counters(prepared), before)
    outcome = prepared.outcome(result)

    record = {
        "workload": name, "seed": seed, "traced": trace,
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "simulations": outcome.simulations, "failed": outcome.failed,
        "digest": outcome.digest, "library": repro.__file__,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, wall_s, delta,
                                         outcome.yield_estimate)
        if trace_out:
            with open(trace_out, "w") as handle:
                json.dump(tracer.chrome_trace(), handle)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--src", type=Path, required=True,
                        help="library source tree; must provide repro")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    record = measure(args.workload, WORKLOADS[args.workload].setup,
                     args.seed, args.trace, args.trace_out)
    if not Path(record["library"]).resolve().is_relative_to(
            args.src.resolve()):
        sys.exit(f"repro was imported from {record['library']}, "
                 f"not from {args.src}")
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
