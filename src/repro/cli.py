"""Command-line interface: ``python -m repro <command> ...``.

Exposes the main workflows on the bundled benchmark circuits without
writing any Python:

* ``optimize``  — run the Fig. 6 yield-optimization loop and print the
  paper-style trace table,
* ``yield``     — estimate the operational yield at the initial design
  with a pluggable estimator (plain Monte-Carlo, worst-case mean-shift
  importance sampling, or scrambled-Sobol QMC), optionally in parallel
  or as one shard of a multi-machine split (``--shard i/N --out ...``),
* ``merge-verify`` — combine per-shard yield results exactly (pooled
  sufficient statistics) and optionally splice the merged verification
  into an optimizer checkpoint for ``optimize --resume``,
* ``analyze``   — worst-case operating corners, worst-case distances and
  the Sec. 3 mismatch-pair ranking at the initial design,
* ``corners``   — the PVT corner report,
* ``evaluate``  — nominal performances and constraint values,
* ``simulate``  — DC operating point (and optional AC gain) of a
  SPICE-style netlist file,
* ``serve``     — run the optimization-as-a-service job daemon
  (submit/status/result/cancel JSON API, content-addressed result
  cache, automatic shard orchestration),
* ``submit`` / ``status`` / ``result`` / ``cancel`` — the matching
  client commands against a running daemon.

Examples::

    python -m repro optimize miller --iterations 3 --estimator is --jobs 4
    python -m repro yield folded-cascode --estimator is --samples 300
    python -m repro yield miller --estimator qmc --jobs 2 --json
    python -m repro yield miller --shard 1/4 --out shard1.json
    python -m repro merge-verify shard*.json --checkpoint ckpt.json
    python -m repro analyze folded-cascode --local-only
    python -m repro corners ota
    python -m repro simulate my_circuit.sp --node out --ac 1e3
    python -m repro serve --port 8754 --store /tmp/repro-store
    python -m repro submit folded-cascode --samples 300 --shards 4 --wait
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .circuits import CIRCUITS


def _make_template(name: str, local_only: bool = False):
    try:
        factory = CIRCUITS[name]
    except KeyError:
        raise SystemExit(
            f"unknown circuit {name!r}; choose from "
            f"{', '.join(sorted(CIRCUITS))}")
    if local_only:
        try:
            return factory(with_global=False)
        except TypeError:
            raise SystemExit(
                f"circuit {name!r} does not support --local-only")
    return factory()


def cmd_optimize(args: argparse.Namespace) -> int:
    import json

    from .reporting import health_table, optimization_trace_table
    from .runtime import CheckpointError, RunBudget
    from .serve.jobs import (OptimizeRequest, execute_optimize,
                             optimize_artifact)

    template = _make_template(args.circuit)
    verify_shard = None
    if args.verify_shard:
        from .yieldsim import ShardPlan
        verify_shard = ShardPlan.parse(args.verify_shard)
    # The CLI and the job-server workers execute through the same
    # request path (repro.serve.jobs), so an API-submitted optimize job
    # is trajectory-identical to this command.
    request = OptimizeRequest(
        circuit=args.circuit,
        iterations=args.iterations,
        samples_linear=args.samples,
        samples_verify=args.verify_samples,
        seed=args.seed,
        estimator=args.estimator,
        use_constraints=not args.no_constraints,
        linearize_at="nominal" if args.nominal_linearization
        else "worst_case",
        jobs=args.jobs)
    evaluator = None
    if args.inject_faults > 0.0:
        from .evaluation import Evaluator
        from .runtime import FaultInjectingEvaluator
        evaluator = FaultInjectingEvaluator(
            Evaluator(template), rate=args.inject_faults,
            seed=args.fault_seed)
    try:
        result = execute_optimize(
            request,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            budget=RunBudget(deadline_s=args.deadline,
                             max_simulations=args.max_sims),
            evaluator=evaluator,
            verify_shard=verify_shard)
    except CheckpointError as exc:
        raise SystemExit(str(exc))
    if args.out:
        artifact = optimize_artifact(request, result,
                                     command="optimize")
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"optimize artifact written to {args.out}")
    print(optimization_trace_table(template, result))
    print(f"stop reason: {result.stop_reason}; "
          f"converged: {result.converged}; "
          f"simulations: {result.total_simulations} "
          f"(+{result.total_constraint_simulations} constraint checks, "
          f"{result.total_cache_hits} cache hits); "
          f"wall time {result.wall_time_s:.1f} s")
    if result.total_failed_samples or result.total_retried_evaluations:
        print(f"fault policy: {result.total_failed_samples} failed "
              f"evaluations counted as spec-violating, "
              f"{result.total_retried_evaluations} retries with jitter")
    health = health_table(result)
    if health:
        print(health)
    print("final design:")
    for name in template.design_names:
        print(f"  {name} = {result.d_final[name]:.6g}")
    return 0


def cmd_yield(args: argparse.Namespace) -> int:
    import json

    from .serve.jobs import YieldRequest, execute_yield, yield_artifact

    if args.circuit not in CIRCUITS:
        raise SystemExit(
            f"unknown circuit {args.circuit!r}; choose from "
            f"{', '.join(sorted(CIRCUITS))}")
    # The CLI and the job-server workers execute through the same
    # request path (repro.serve.jobs), so an API-submitted job is
    # bit-identical to this command.
    request = YieldRequest(
        circuit=args.circuit, estimator=args.estimator,
        n_samples=args.samples, seed=args.seed, jobs=args.jobs,
        chunk_timeout=args.chunk_timeout, shard=args.shard or None)
    result = execute_yield(request)
    if args.out:
        # Self-describing artifact: schema version + provenance block,
        # validated on load by merge-verify and the serve result store.
        artifact = yield_artifact(request, result, command="yield")
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    template = _make_template(args.circuit)
    report = result.report
    shard_note = f", shard {args.shard}" if args.shard else ""
    print(f"circuit: {template.name}  (estimator: {args.estimator}, "
          f"N = {result.n_samples}, jobs = {args.jobs}{shard_note})")
    print(f"yield = {result.estimate * 100:.2f}%  "
          f"(95% CI {result.ci_low * 100:.2f}-{result.ci_high * 100:.2f}%, "
          f"ESS {result.ess:.1f})")
    print("bad-sample fraction per spec:")
    for key, fraction in result.bad_fraction.items():
        print(f"  {key:>12}: {fraction * 100:6.2f}%")
    if result.failed_samples:
        print(f"failed samples: {result.failed_samples} "
              f"(counted as spec-violating)")
    print(f"simulations: {report.simulations} "
          f"({report.cache_hits} cache hits, "
          f"{report.theta_groups} worst-case corners, "
          f"backend {report.backend})")
    # Each pool worker owns a private warm-anchor cache (DESIGN §9).
    pooled = " (worker totals)" if report.backend == "process-pool" else ""
    warm = report.warm_cache
    if warm.get("hits", 0) or warm.get("misses", 0):
        chain = ""
        if warm.get("chain_seeds", 0) or warm.get("chain_solves", 0):
            chain = (f", chain seeds/solves "
                     f"{warm.get('chain_seeds', 0)}"
                     f"/{warm.get('chain_solves', 0)}")
        print(f"warm-start cache{pooled}: {warm.get('hits', 0)} hits / "
              f"{warm.get('misses', 0)} misses{chain}")
    dc_effort = report.dc_effort
    if any(dc_effort.values()):
        parts = ", ".join(f"{label} {count}"
                          for label, count in sorted(dc_effort.items())
                          if count)
        print(f"dc solve strategies{pooled}: {parts}")
    if report.retried_chunks:
        print(f"warning: {report.retried_chunks}/{report.chunks} chunks "
              f"re-run serially in the parent "
              f"({report.timed_out_chunks} timed out)")
    if report.degraded_to_serial:
        print("warning: worker pool died mid-run; remainder of the "
              "batch was executed serially")
    phases = ", ".join(f"{phase} {seconds:.3f}"
                       for phase, seconds in report.phase_seconds.items())
    print(f"wall time [s]: {phases}")
    if args.out:
        print(f"shard result written to {args.out}")
    return 0


def cmd_merge_verify(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .reporting import merged_provenance_table
    from .serve.contract import (KIND_MERGED, check_merge_compatible,
                                 load_result_artifact, merged_provenance,
                                 wrap_result)
    from .yieldsim import merge_results

    results = []
    provenances = []
    for path in args.shards:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise SystemExit(f"cannot read shard result {path!r}: {exc}")
        except ValueError as exc:
            raise SystemExit(f"corrupt shard result {path!r}: {exc}")
        try:
            result, provenance = load_result_artifact(data, source=path)
        except ReproError as exc:
            raise SystemExit(str(exc))
        results.append(result)
        provenances.append(provenance)
    try:
        # Shards of one run must agree on template/seed/estimator —
        # pooling mismatched statistics would be silently meaningless.
        check_merge_compatible(provenances, sources=args.shards)
        merged = merge_results(results)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if args.out:
        artifact = wrap_result(
            merged,
            merged_provenance(provenances, n_samples=merged.n_samples,
                              shards=merged.merged_from),
            kind=KIND_MERGED)
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
    if args.checkpoint:
        from .runtime import splice_merged_result
        try:
            splice_merged_result(args.checkpoint, merged)
        except ReproError as exc:
            raise SystemExit(str(exc))
    if args.json:
        print(merged.to_json(indent=2))
        return 0
    print(merged_provenance_table(merged))
    if args.checkpoint:
        print(f"merged verification spliced into {args.checkpoint} "
              f"(continue with: repro optimize ... --checkpoint "
              f"{args.checkpoint} --resume)")
    if args.out:
        print(f"merged result written to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core import analyze_mismatch, find_all_worst_case_points
    from .evaluation import Evaluator
    from .reporting import mismatch_table
    from .spec.operating import find_worst_case_operating_points

    template = _make_template(args.circuit, local_only=args.local_only)
    evaluator = Evaluator(template)
    d = template.initial_design()
    s0 = template.statistical_space.nominal()
    theta_wc = find_worst_case_operating_points(
        lambda theta: evaluator.evaluate(d, s0, theta),
        template.specs, template.operating_range)
    print("worst-case operating points:")
    for key, theta in theta_wc.items():
        print(f"  {key:>10} -> "
              + ", ".join(f"{k}={v:g}" for k, v in theta.items()))
    worst_case = find_all_worst_case_points(evaluator, d, theta_wc,
                                            seed=args.seed)
    print("\nworst-case distances (sigma):")
    for key, wc in worst_case.items():
        print(f"  {key:>10}: beta = {wc.beta_wc:+7.2f}  "
              f"({wc.method}{'' if wc.on_boundary else ', clamped'})")
    names = list(template.statistical_space.names)
    candidates = template.local_vth_names()
    if candidates:
        report = analyze_mismatch(worst_case, names,
                                  candidate_names=candidates,
                                  threshold=args.threshold)
        print("\nmismatch-sensitive specs:")
        for key, pairs in report.items():
            if pairs:
                print(f"  {key}:")
                print("  " + mismatch_table(pairs).replace("\n", "\n  "))
    print(f"\nsimulations: {evaluator.simulation_count}")
    return 0


def cmd_corners(args: argparse.Namespace) -> int:
    from .evaluation import Evaluator, corner_analysis

    template = _make_template(args.circuit)
    evaluator = Evaluator(template)
    report = corner_analysis(evaluator, template.initial_design(),
                             sigma_level=args.sigma)
    print(report.summary())
    failing = report.failing_specs()
    print(f"\ncorner-failing specs: {failing or 'none'} "
          f"({report.simulations} simulations)")
    return 1 if failing else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    template = _make_template(args.circuit)
    d = template.initial_design()
    values = template.evaluate(d, template.statistical_space.nominal(),
                               template.operating_range.nominal())
    print("nominal performances:")
    for performance in template.performances:
        spec = template.spec_for(performance.name)
        value = values[performance.name]
        status = "PASS" if spec.passes(value) else "FAIL"
        print(f"  {performance.name:>8} = {value:10.3f} "
              f"{performance.unit:8} (spec {spec.kind} {spec.bound:g})"
              f"  [{status}]")
    constraints = template.constraints(d)
    worst = min(constraints, key=constraints.get)
    print(f"\nsizing rules: {'all satisfied' if constraints[worst] >= 0 else 'VIOLATED'}"
          f" (tightest: {worst} = {constraints[worst]:+.4f})")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .circuit import parse_netlist, solve_dc, transfer_at
    from .units import db, format_si

    with open(args.netlist) as handle:
        circuit = parse_netlist(handle.read())
    op = solve_dc(circuit, temp_c=args.temp)
    print(f"DC operating point ({op.iterations} Newton iterations, "
          f"{op.strategy}):")
    for node, voltage in sorted(op.voltages().items()):
        print(f"  V({node}) = {voltage:.6f}")
    for name, record in sorted(op.operating_points().items()):
        if "region" in record:
            print(f"  {name}: Id = {format_si(record['ids'], 'A')}, "
                  f"{record['region']}")
    if args.node and args.ac:
        h = transfer_at(circuit, op, args.node, args.ac)
        print(f"\nAC transfer to {args.node} at "
              f"{format_si(args.ac, 'Hz')}: |H| = {abs(h):.4g} "
              f"({db(abs(h)):.1f} dB)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import run_daemon

    try:
        asyncio.run(run_daemon(
            store_dir=args.store, host=args.host, port=args.port,
            workers=args.workers,
            max_queued_per_tenant=args.max_queued_per_tenant,
            store_max_bytes=args.store_max_bytes,
            store_max_age_s=args.store_max_age,
            heartbeat_timeout_s=args.heartbeat_timeout,
            max_attempts=args.max_attempts,
            drain_grace_s=args.drain_grace))
    except KeyboardInterrupt:
        print("serve daemon stopped")
    return 0


def _client(args: argparse.Namespace):
    from .serve import ServeClient
    return ServeClient(args.server)


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeError

    client = _client(args)
    budget = {}
    if args.deadline is not None:
        budget["deadline_s"] = args.deadline
    if args.max_sims is not None:
        budget["max_simulations"] = args.max_sims
    if args.kind == "optimize":
        request = {
            "circuit": args.circuit,
            "iterations": args.iterations,
            "samples_linear": args.opt_samples,
            "samples_verify": args.verify_samples,
            "seed": args.seed,
            "estimator": args.estimator,
        }
    else:
        request = {
            "circuit": args.circuit,
            "estimator": args.estimator,
            "n_samples": args.samples,
            "seed": args.seed,
        }
    payload = {
        "kind": args.kind,
        "request": request,
        "shards": args.shards,
        "tenant": args.tenant,
        "priority": args.priority,
    }
    if budget:
        payload["budget"] = budget
    if args.splice_checkpoint:
        payload["splice_checkpoint"] = args.splice_checkpoint
    try:
        job = client.submit(payload)
        if args.wait:
            job = client.wait(job["id"], timeout_s=args.timeout)
    except ServeError as exc:
        raise SystemExit(str(exc))
    if not args.wait:
        print(json.dumps(job, indent=2))
        return 0
    if job["state"] != "done":
        print(json.dumps(job, indent=2))
        return 1
    artifact = client.result(job["id"])
    print(json.dumps(artifact, indent=2))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeError

    client = _client(args)
    try:
        # No job id = daemon-level view: health plus queue/store stats.
        payload = client.status(args.job) if args.job else client.stats()
    except ServeError as exc:
        raise SystemExit(str(exc))
    if args.job:
        print(json.dumps(payload, indent=2))
    else:
        from .reporting import queue_table
        print(queue_table(payload))
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeError

    client = _client(args)
    try:
        if args.wait:
            job = client.wait(args.job, timeout_s=args.timeout)
            if job["state"] != "done":
                raise SystemExit(
                    f"job {args.job} ended {job['state']}"
                    + (f": {job['error']}" if job.get("error") else ""))
        artifact = client.result(args.job)
    except ServeError as exc:
        raise SystemExit(str(exc))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"result written to {args.out}")
    else:
        print(json.dumps(artifact, indent=2))
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeError

    client = _client(args)
    try:
        job = client.cancel(args.job)
    except ServeError as exc:
        raise SystemExit(str(exc))
    print(json.dumps(job, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC 2001 mismatch analysis and yield optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run the Fig. 6 yield optimizer")
    p.add_argument("circuit", choices=sorted(CIRCUITS))
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--verify-samples", type=int, default=150)
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--no-constraints", action="store_true",
                   help="Table 3 ablation")
    p.add_argument("--nominal-linearization", action="store_true",
                   help="Table 4 ablation")
    p.add_argument("--estimator", choices=("mc", "is", "qmc"),
                   default="mc",
                   help="Y_tilde verification estimator (default: mc)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes of the run's process pool "
                        "(1 = serial)")
    p.add_argument("--verify-shard", metavar="i/N",
                   help="run only shard i of an N-way split of every "
                        "verification Monte-Carlo (merge the shards' "
                        "results with merge-verify)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write a JSON checkpoint after every iteration")
    p.add_argument("--resume", action="store_true",
                   help="continue from --checkpoint when it exists")
    p.add_argument("--deadline", type=float, metavar="S",
                   help="wall-clock budget [s]; exhaustion returns the "
                        "partial trace with stop_reason=deadline")
    p.add_argument("--max-sims", type=int, metavar="N",
                   help="simulation budget; exhaustion returns the "
                        "partial trace with stop_reason=sim_budget")
    p.add_argument("--inject-faults", type=float, default=0.0,
                   metavar="RATE",
                   help="fault-injection testing: fail this fraction of "
                        "simulations with a ConvergenceError")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the injected-fault schedule")
    p.add_argument("--out", metavar="PATH",
                   help="also write the optimization trace as a "
                        "provenance-carrying artifact JSON (the serve "
                        "layer's optimize-result format)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "yield", help="estimate the operational yield at the initial "
                      "design with a pluggable estimator")
    p.add_argument("circuit", choices=sorted(CIRCUITS))
    p.add_argument("--estimator", choices=("mc", "is", "qmc"),
                   default="mc",
                   help="mc = operational Monte-Carlo (Eq. 6-7), "
                        "is = worst-case mean-shift importance sampling, "
                        "qmc = scrambled-Sobol quasi-Monte-Carlo")
    p.add_argument("--samples", type=int, default=300,
                   help="statistical samples N (default: 300)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   help="per-chunk wait [s]; a timeout kills the pool "
                        "and re-runs the chunks in the parent")
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--shard", metavar="i/N",
                   help="run only shard i of an N-way split of the "
                        "logical sample budget (1-based); results merge "
                        "exactly via merge-verify")
    p.add_argument("--out", metavar="PATH",
                   help="also write the result JSON to PATH (the "
                        "merge-verify input format)")
    p.add_argument("--json", action="store_true",
                   help="emit the full result + run report as JSON")
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser(
        "merge-verify",
        help="combine per-shard yield results (from yield --shard i/N "
             "--out ...) into one exact pooled estimate")
    p.add_argument("shards", nargs="+", metavar="SHARD_JSON",
                   help="per-shard result files written by yield --out")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="splice the merged verification into the last "
                        "record of this optimizer checkpoint")
    p.add_argument("--out", metavar="PATH",
                   help="write the merged result JSON to PATH")
    p.add_argument("--json", action="store_true",
                   help="emit the merged result as JSON")
    p.set_defaults(func=cmd_merge_verify)

    p = sub.add_parser("analyze",
                       help="worst-case distances + mismatch pairs")
    p.add_argument("circuit", choices=sorted(CIRCUITS))
    p.add_argument("--local-only", action="store_true",
                   help="Sec. 3 setting: local statistical space only")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=2001)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("corners", help="PVT corner report")
    p.add_argument("circuit", choices=sorted(CIRCUITS))
    p.add_argument("--sigma", type=float, default=3.0)
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("evaluate", help="nominal performances")
    p.add_argument("circuit", choices=sorted(CIRCUITS))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="solve a SPICE-style netlist")
    p.add_argument("netlist", help="netlist file path")
    p.add_argument("--temp", type=float, default=27.0)
    p.add_argument("--node", help="node for an AC transfer readout")
    p.add_argument("--ac", type=float,
                   help="frequency [Hz] for the AC readout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "serve", help="run the optimization-as-a-service job daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--store", default=".repro-store", metavar="DIR",
                   help="content-addressed result store directory "
                        "(default: .repro-store)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes executing jobs (default: 2)")
    p.add_argument("--max-queued-per-tenant", type=int, default=None,
                   metavar="N",
                   help="reject a tenant's submissions beyond N queued "
                        "jobs (default: unlimited)")
    p.add_argument("--store-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="store GC: evict least-recently-accessed "
                        "artifacts beyond this footprint (default: "
                        "unbounded)")
    p.add_argument("--store-max-age", type=float, default=None,
                   metavar="S",
                   help="store GC: evict artifacts not accessed within "
                        "S seconds (default: unbounded)")
    p.add_argument("--heartbeat-timeout", type=float, default=60.0,
                   metavar="S",
                   help="declare a worker wedged after S seconds "
                        "without a heartbeat and retry its jobs "
                        "(default: 60)")
    p.add_argument("--max-attempts", type=int, default=3, metavar="N",
                   help="attempts per job before a transient fault "
                        "becomes terminal (default: 3)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   metavar="S",
                   help="SIGTERM drain: grace period for running jobs "
                        "before the pool is killed (default: 10)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a yield or optimize job to a repro serve daemon")
    p.add_argument("circuit", choices=sorted(CIRCUITS))
    p.add_argument("--kind", choices=("yield", "optimize"),
                   default="yield",
                   help="job kind: a one-shot yield estimation or a "
                        "full checkpoint-backed Fig. 6 optimization "
                        "(default: yield)")
    p.add_argument("--server", default="http://127.0.0.1:8642",
                   help="daemon base URL (default: "
                        "http://127.0.0.1:8642)")
    p.add_argument("--estimator", choices=("mc", "is", "qmc"),
                   default="mc")
    p.add_argument("--samples", type=int, default=300,
                   help="yield jobs: statistical samples N "
                        "(default: 300)")
    p.add_argument("--iterations", type=int, default=5,
                   help="optimize jobs: Fig. 6 iterations (default: 5)")
    p.add_argument("--opt-samples", type=int, default=10000,
                   metavar="N",
                   help="optimize jobs: linearized-model samples "
                        "(default: 10000)")
    p.add_argument("--verify-samples", type=int, default=150,
                   metavar="N",
                   help="optimize jobs: verification samples per "
                        "iteration (default: 150)")
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="decompose the verification into N shard "
                        "workers merged server-side (default: 1)")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (default: 0)")
    p.add_argument("--deadline", type=float, metavar="S",
                   help="per-job wall-clock budget [s]")
    p.add_argument("--max-sims", type=int, metavar="N",
                   help="per-job simulation budget (advisory: overspend "
                        "is flagged budget_exceeded)")
    p.add_argument("--splice-checkpoint", metavar="PATH",
                   help="server-side checkpoint to splice the merged "
                        "verification into")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print its "
                        "result artifact")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait polling timeout [s] (default: 600)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "status", help="job status, or daemon queue/store telemetry")
    p.add_argument("job", nargs="?", default=None,
                   help="job id (omit for the daemon-level summary)")
    p.add_argument("--server", default="http://127.0.0.1:8642")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "result", help="fetch a finished job's result artifact")
    p.add_argument("job", help="job id")
    p.add_argument("--server", default="http://127.0.0.1:8642")
    p.add_argument("--out", metavar="PATH",
                   help="write the artifact to PATH instead of stdout")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job reaches a terminal state "
                        "first")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait polling timeout [s] (default: 600)")
    p.set_defaults(func=cmd_result)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("job", help="job id")
    p.add_argument("--server", default="http://127.0.0.1:8642")
    p.set_defaults(func=cmd_cancel)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
