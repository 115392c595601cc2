"""ASCII renderings of the paper's result tables.

These formatters turn :class:`~repro.core.optimizer.OptimizationResult`
traces and mismatch rankings into the exact row structure of the paper's
Tables 1-7, so the benchmark harness can print "paper vs. measured"
side by side.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.mismatch import PairMismatch
from ..core.optimizer import IterationRecord, OptimizationResult
from ..evaluation.template import CircuitTemplate
from ..spec.operating import spec_key


def _format_row(label: str, cells: Sequence[str], widths: Sequence[int]
                ) -> str:
    parts = [f"{label:<18}"]
    parts.extend(f"{cell:>{width}}" for cell, width in zip(cells, widths))
    return " | ".join(parts)


def _iteration_label(index: int) -> str:
    if index == 0:
        return "Initial"
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(index if index < 20
                                             else index % 10, "th")
    return f"{index}{suffix} Iter."


def optimization_trace_table(template: CircuitTemplate,
                             result: OptimizationResult,
                             records: Optional[Sequence[IterationRecord]]
                             = None) -> str:
    """Render an optimization trace in the layout of Tables 1/3/4/6.

    Per iteration block: the ``f - f_b`` margins (presentation units), the
    per-mille bad-sample counts in the linearized models, and the
    simulation-based yield ``Y_tilde``.
    """
    if records is None:
        records = result.records
    specs = template.specs
    keys = [spec_key(spec) for spec in specs]
    header_cells = [f"{spec.performance}" for spec in specs]
    bound_cells = [f"{spec.kind}{spec.bound:g}" for spec in specs]
    widths = [max(len(h), len(b), 9) for h, b in zip(header_cells,
                                                     bound_cells)]
    lines: List[str] = []
    lines.append(_format_row("Performance", header_cells, widths))
    lines.append(_format_row("Specification", bound_cells, widths))
    lines.append("-" * len(lines[0]))
    for record in records:
        label = _iteration_label(record.index)
        margin_cells = [f"{record.margins[key]:.2f}" for key in keys]
        bad_cells = [f"{record.bad_samples.get(key, 0.0) * 1000:.1f}"
                     for key in keys]
        lines.append(_format_row(f"{label} f-fb", margin_cells, widths))
        lines.append(_format_row("  bad samples [permille]", bad_cells,
                                 widths))
        if record.yield_mc is not None:
            text = f"  Y_tilde = {record.yield_mc * 100:.1f}%"
            if record.mc is not None:
                text += (f" (95% CI {record.mc.ci_low * 100:.1f}"
                         f"-{record.mc.ci_high * 100:.1f}%)")
            lines.append(text)
            if record.verify_shrunk:
                lines.append(f"  verification shrunk to N = "
                             f"{record.verify_samples} "
                             f"(remaining simulation budget)")
            if record.failed_samples:
                total = f"/{record.mc.n_samples}" if record.mc else ""
                lines.append(f"  failed samples = "
                             f"{record.failed_samples}{total} "
                             f"(counted as spec-violating)")
        elif record.verify_shrunk:
            lines.append("  Y_tilde skipped (simulation budget spent)")
        lines.append("")
    return "\n".join(lines)


def improvement_table(template: CircuitTemplate,
                      before: IterationRecord,
                      after: IterationRecord) -> str:
    """Render the Table 2 layout: relative mean-margin improvement and
    relative sigma change per performance between two iterations.

    ``delta_mu / (mu - f_b)`` > 0 means the mean moved away from the spec
    bound; ``delta_sigma / sigma`` < 0 means the spread shrank.  Requires
    both records to carry verification Monte-Carlo statistics.
    """
    if before.mc is None or after.mc is None:
        raise ValueError("improvement table needs verified records")
    lines = [f"{'Performance':<14} | {'dMu/(Mu-fb)':>12} | "
             f"{'dSigma/Sigma':>12}"]
    lines.append("-" * len(lines[0]))
    for spec in template.specs:
        key = spec_key(spec)
        mu0 = before.mc.performance_mean[key]
        mu1 = after.mc.performance_mean[key]
        s0 = before.mc.performance_std[key]
        s1 = after.mc.performance_std[key]
        margin0 = spec.sign * (mu0 - spec.bound)
        dmu = spec.sign * (mu1 - mu0)
        rel_mu = dmu / abs(margin0) if margin0 != 0 else float("inf")
        rel_sigma = (s1 - s0) / s0 if s0 > 0 else 0.0
        lines.append(f"{spec.performance:<14} | {rel_mu * 100:>+11.1f}% | "
                     f"{rel_sigma * 100:>+11.1f}%")
    return "\n".join(lines)


def mismatch_table(pairs: Sequence[PairMismatch], top: int = 3) -> str:
    """Render the Table 5 layout: the top mismatch pairs and measures."""
    chosen = list(pairs)[:top]
    labels = []
    for i, pair in enumerate(chosen, start=1):
        da, db = pair.devices
        labels.append(f"P{i}=({da},{db})")
    lines = ["Pair     | " + " | ".join(f"{label:>16}"
                                        for label in labels)]
    lines.append("m_kl     | " + " | ".join(f"{pair.measure:>16.2f}"
                                            for pair in chosen))
    return "\n".join(lines)


def effort_table(rows: Sequence[Tuple]) -> str:
    """Render the Table 7 layout: circuit, #simulations, wall-clock time.

    Each row is ``(name, simulations, seconds)`` or, with evaluator cache
    accounting, ``(name, simulations, seconds, cache_hits)``; the cache
    column appears only when at least one row provides it.
    """
    with_cache = any(len(row) > 3 for row in rows)
    header = (f"{'Circuit':<16} | {'# Simulations':>14} | "
              f"{'Wall Clock Time':>16}")
    if with_cache:
        header += f" | {'Cache Hits':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        name, simulations, seconds = row[0], row[1], row[2]
        if seconds >= 90:
            time_text = f"{seconds / 60:.1f} min"
        else:
            time_text = f"{seconds:.1f} s"
        line = f"{name:<16} | {simulations:>14} | {time_text:>16}"
        if with_cache:
            hits = f"{row[3]}" if len(row) > 3 else "-"
            line += f" | {hits:>10}"
        lines.append(line)
    return "\n".join(lines)


def health_table(result: OptimizationResult) -> str:
    """Render the failure/recovery telemetry of one optimization run:
    fault-policy activity, executor retries/timeouts, shared-pool usage,
    and warm-start cache effectiveness.  Empty string when the run was
    entirely clean and serial (nothing worth reporting)."""
    health = result.health
    rows: List[Tuple[str, str]] = []
    if result.pool_tasks:
        rows.append(("pool workers", str(result.pool_jobs)))
        rows.append(("pool tasks", str(result.pool_tasks)))
        if result.pool_died:
            rows.append(("pool died", "yes (degraded to serial)"))
    # Each pool worker owns a private warm-anchor cache: pooled counts
    # add up the workers' and depend on which worker ran which task.
    pooled = " (worker totals)" if result.pool_tasks else ""
    warm = result.warm_cache
    if warm and (warm.get("hits", 0) or warm.get("misses", 0)):
        rows.append((f"warm-cache hits/misses{pooled}",
                     f"{warm.get('hits', 0)}/{warm.get('misses', 0)}"))
        if warm.get("chain_seeds", 0) or warm.get("chain_solves", 0):
            rows.append((f"warm-chain seeds/solves{pooled}",
                         f"{warm.get('chain_seeds', 0)}"
                         f"/{warm.get('chain_solves', 0)}"))
        if warm.get("evictions", 0):
            rows.append((f"warm-cache evictions{pooled}",
                         str(warm.get("evictions", 0))))
    dc_effort = result.dc_effort
    if dc_effort and any(dc_effort.values()):
        parts = [f"{label}={count}"
                 for label, count in sorted(dc_effort.items()) if count]
        rows.append((f"dc solve strategies{pooled}", " ".join(parts)))
    if result.total_failed_samples:
        rows.append(("failed evaluations",
                     str(result.total_failed_samples)))
    if result.total_retried_evaluations:
        rows.append(("retried evaluations",
                     str(result.total_retried_evaluations)))
    if health is not None and not health.clean:
        if health.no_data:
            # runs == 0 is *unobserved*, not healthy: say so explicitly
            # instead of printing an empty (clean-looking) section.
            rows.append(("verification telemetry", "none recorded"))
        if health.retried_chunks:
            rows.append(("retried chunks", str(health.retried_chunks)))
        if health.timed_out_chunks:
            rows.append(("timed-out chunks",
                         str(health.timed_out_chunks)))
        if health.degraded_runs:
            rows.append(("degraded verifications",
                         str(health.degraded_runs)))
        if health.incompatible_runs:
            rows.append(("pool-incompatible verifications",
                         str(health.incompatible_runs)))
    if not rows:
        return ""
    width = max(len(label) for label, _ in rows)
    lines = ["Simulator health", "-" * 32]
    lines.extend(f"{label:<{width}} : {value}" for label, value in rows)
    return "\n".join(lines)


def _report_flags(report) -> str:
    """One-line status summary of a shard's :class:`RunReport`."""
    flags: List[str] = []
    if report.failed_samples:
        flags.append(f"{report.failed_samples} failed samples")
    if report.retried_chunks:
        flags.append(f"{report.retried_chunks} retried chunks")
    if report.timed_out_chunks:
        flags.append(f"{report.timed_out_chunks} timed out")
    if report.degraded_to_serial:
        flags.append("degraded to serial")
    if report.pool_incompatible:
        flags.append("pool incompatible")
    return ", ".join(flags) if flags else "clean"


def merged_provenance_table(result) -> str:
    """Render the provenance of a merged sharded verification: the
    pooled estimate, how many shards contributed, and one telemetry
    line per shard (a :class:`repro.yieldsim.YieldResult` produced by
    :func:`repro.yieldsim.merge_results`)."""
    total = result.shard_total or result.merged_from or 1
    lines = [f"Merged verification ({result.merged_from} of "
             f"{total} shard(s), estimator {result.estimator})"]
    lines.append("-" * len(lines[0]))
    lines.append(
        f"yield = {result.estimate * 100:.2f}%  "
        f"({result.ci_level * 100:.0f}% CI "
        f"{result.ci_low * 100:.2f}-{result.ci_high * 100:.2f}%, "
        f"ESS {result.ess:.1f})")
    lines.append(f"samples = {result.n_samples}, "
                 f"simulations = {result.simulations}, "
                 f"failed = {result.failed_samples}")
    reports = result.shard_reports
    for index, report in enumerate(reports, start=1):
        lines.append(
            f"  shard {index}/{len(reports)}: "
            f"n = {report.n_samples}, sims = {report.simulations}, "
            f"backend = {report.backend}, {_report_flags(report)}")
    if not reports:
        lines.append("  (no per-shard telemetry recorded)")
    return "\n".join(lines)


def queue_table(stats: Mapping) -> str:
    """Render ``repro serve`` daemon telemetry (the ``/v1/stats``
    payload): job counts by state and tenant, per-job supervision state
    (attempt, recovered, heartbeat age) for everything queued or
    running, aggregate cache hits and simulation spend, and the
    result-store footprint."""
    queue = stats.get("queue", stats)
    by_state = queue.get("by_state", {})
    order = ("queued", "running", "done", "failed", "cancelled")
    lines = [f"Jobs ({queue.get('jobs', 0)} total)", "-" * 32]
    for state in order:
        if by_state.get(state):
            lines.append(f"  {state:<10} : {by_state[state]}")
    for state in sorted(set(by_state) - set(order)):
        lines.append(f"  {state:<10} : {by_state[state]}")
    by_tenant = queue.get("by_tenant", {})
    if by_tenant:
        lines.append("By tenant")
        for tenant in sorted(by_tenant):
            counts = by_tenant[tenant]
            text = ", ".join(f"{state}={counts[state]}"
                             for state in order if counts.get(state))
            lines.append(f"  {tenant:<10} : {text or '-'}")
    active = stats.get("active") or []
    if active:
        lines.append("Active jobs")
        lines.append(f"  {'id':<12} {'kind':<8} {'state':<8} "
                     f"{'att':>3} {'rec':>3} {'beat':>7}")
        for job in active:
            age = job.get("heartbeat_age_s")
            beat = f"{age:6.1f}s" if age is not None else "      -"
            rec = "yes" if job.get("recovered") else "no"
            lines.append(
                f"  {job.get('id', '?'):<12} {job.get('kind', '?'):<8} "
                f"{job.get('state', '?'):<8} "
                f"{job.get('attempt', 1):>3} {rec:>3} {beat}")
    lines.append(f"cache hits   : {queue.get('cache_hits', 0)}")
    lines.append(f"simulations  : {queue.get('simulations', 0)}")
    if queue.get("recovered"):
        lines.append(f"recovered    : {queue['recovered']} "
                     f"(re-enqueued after a daemon restart)")
    if queue.get("retries"):
        lines.append(f"retries      : {queue['retries']} "
                     f"(supervised re-attempts)")
    store = stats.get("store")
    if store:
        lines.append(f"store        : {store.get('objects', 0)} "
                     f"object(s) at {store.get('root', '?')}")
        if store.get("invalid"):
            lines.append(f"store invalid: {store['invalid']} "
                         f"(corrupt entries treated as misses)")
        if store.get("evictions"):
            bound = store.get("max_bytes")
            bound_text = f" (bound: {bound} bytes)" if bound else ""
            lines.append(f"store GC     : {store['evictions']} "
                         f"eviction(s){bound_text}")
    return "\n".join(lines)


def side_by_side(paper: str, measured: str, title: str) -> str:
    """Join a paper excerpt and our measured table under one banner."""
    bar = "=" * 72
    return (f"{bar}\n{title}\n{bar}\n"
            f"--- paper ---\n{paper.rstrip()}\n\n"
            f"--- this reproduction ---\n{measured.rstrip()}\n")
