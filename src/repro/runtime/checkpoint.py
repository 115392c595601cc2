"""JSON checkpoint/resume for the Fig. 6 optimization loop.

After every completed iteration the optimizer serializes its full loop
state — the iteration records, the current design point, the sampling
state, and the warm-start worst-case points — to a JSON checkpoint
(written atomically: temp file + rename).  A later run with ``resume``
restores that state and continues from the next iteration; because every
random draw in the loop is derived from the configured seed and fault
injection/retry jitter are deterministic in the evaluation *point* (not
call order), a resumed run reproduces the same trajectory — and the same
final design — as an uninterrupted run.

Floats survive bit-identically: ``json`` serializes with ``repr``
(shortest round-trip) and parses back to the exact same double, so
restored :class:`~repro.core.optimizer.IterationRecord` objects compare
equal to the originals field by field.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..errors import ReproError

#: checkpoint schema version: the one this build writes and reads
CHECKPOINT_VERSION = 2

#: top-level fields of every checkpoint (see :func:`save_checkpoint`)
_FIELDS = ("version", "template_name", "seed", "iteration", "d_f",
           "records", "previous_wc", "sample_state", "counters",
           "wall_time_s", "stop_reason")

#: delta marker: "same serialized value as the previous record's entry"
_PREV = "@prev"


class CheckpointError(ReproError):
    """Raised for unreadable, incompatible, or mismatched checkpoints."""


# -- worst-case results -------------------------------------------------------
def _wc_to_dict(wc) -> Dict:
    return {
        "spec_key": f"{wc.spec.performance}{wc.spec.kind}",
        "s_wc": [float(v) for v in np.asarray(wc.s_wc, dtype=float)],
        "beta_wc": float(wc.beta_wc),
        "gradient": [float(v) for v in np.asarray(wc.gradient,
                                                  dtype=float)],
        "g_wc": float(wc.g_wc),
        "g_nominal": float(wc.g_nominal),
        "on_boundary": bool(wc.on_boundary),
        "iterations": int(wc.iterations),
        "method": str(wc.method),
    }


def _wc_from_dict(data: Mapping, template) -> "object":
    from ..core.worst_case import WorstCaseResult
    from ..spec.operating import spec_key
    specs = {spec_key(spec): spec for spec in template.specs}
    try:
        spec = specs[data["spec_key"]]
    except KeyError:
        raise CheckpointError(
            f"checkpoint references spec {data['spec_key']!r} unknown to "
            f"template {template.name!r}")
    return WorstCaseResult(
        spec=spec,
        s_wc=np.asarray(data["s_wc"], dtype=float),
        beta_wc=float(data["beta_wc"]),
        gradient=np.asarray(data["gradient"], dtype=float),
        g_wc=float(data["g_wc"]),
        g_nominal=float(data["g_nominal"]),
        on_boundary=bool(data["on_boundary"]),
        iterations=int(data["iterations"]),
        method=str(data["method"]))


# -- verification results -----------------------------------------------------
def _mc_to_dict(mc) -> Optional[Dict]:
    """Serialize a record's verification ``YieldResult``."""
    if mc is None:
        return None
    return {"kind": "yieldsim", "data": mc.to_dict()}


def _mc_from_dict(data: Optional[Mapping]):
    if data is None:
        return None
    if data["kind"] != "yieldsim":
        raise ValueError(f"unknown verification kind {data['kind']!r}")
    from ..yieldsim.result import YieldResult
    return YieldResult.from_dict(data["data"])


# -- iteration records --------------------------------------------------------
def record_to_dict(record) -> Dict:
    """Serialize one :class:`~repro.core.optimizer.IterationRecord`."""
    return {
        "index": record.index,
        "d": dict(record.d),
        "margins": dict(record.margins),
        "bad_samples": dict(record.bad_samples),
        "yield_linear": record.yield_linear,
        "yield_mc": record.yield_mc,
        "mc": _mc_to_dict(record.mc),
        "worst_case": {key: _wc_to_dict(wc)
                       for key, wc in record.worst_case.items()},
        "simulations": record.simulations,
        "constraint_simulations": record.constraint_simulations,
        "gamma": record.gamma,
        "failed_samples": record.failed_samples,
        "verify_samples": record.verify_samples,
        "verify_shrunk": record.verify_shrunk,
    }


def record_from_dict(data: Mapping, template):
    """Restore one :class:`~repro.core.optimizer.IterationRecord` (the
    inverse of :func:`record_to_dict`: every field is required)."""
    from ..core.optimizer import IterationRecord
    return IterationRecord(
        index=int(data["index"]),
        d=dict(data["d"]),
        margins=dict(data["margins"]),
        bad_samples=dict(data["bad_samples"]),
        yield_linear=float(data["yield_linear"]),
        yield_mc=None if data["yield_mc"] is None
        else float(data["yield_mc"]),
        mc=_mc_from_dict(data["mc"]),
        worst_case={key: _wc_from_dict(wc, template)
                    for key, wc in data["worst_case"].items()},
        simulations=int(data["simulations"]),
        constraint_simulations=int(data["constraint_simulations"]),
        gamma=None if data["gamma"] is None else float(data["gamma"]),
        failed_samples=int(data["failed_samples"]),
        verify_samples=None if data["verify_samples"] is None
        else int(data["verify_samples"]),
        verify_shrunk=bool(data["verify_shrunk"]))


# -- the checkpoint record ----------------------------------------------------
@dataclass
class OptimizerCheckpoint:
    """Everything needed to continue a run after the last completed
    iteration (in-memory form; see :func:`save_checkpoint` for the JSON
    shape)."""

    template_name: str
    seed: int
    #: index of the last completed iteration (records run up to here)
    iteration: int
    #: current design point (start of the next iteration)
    d_f: Dict[str, float]
    records: List = field(default_factory=list)
    #: warm-start worst-case points of the last iteration (or None)
    previous_wc: Optional[Dict[str, object]] = None
    #: sampling state: the Eq. 17 sample matrix is fully determined by
    #: these three values, so storing them *is* storing the RNG state
    sample_state: Dict[str, int] = field(default_factory=dict)
    #: evaluator counters at checkpoint time (folded back on resume so
    #: Table-7 effort accounting spans the whole logical run)
    counters: Dict[str, int] = field(default_factory=dict)
    #: wall time consumed before this checkpoint (summed across resumes)
    wall_time_s: float = 0.0
    #: terminal stop reason when the run already ended at this
    #: checkpoint (e.g. "converged"); None while the run is in progress.
    #: Resume returns the restored trace directly instead of iterating.
    stop_reason: Optional[str] = None


def _compact_wc(records: List[Dict],
                previous_wc: Optional[Dict]) -> None:
    """Delta-encode the serialized worst-case blocks in place (the
    version-2 compaction).

    The warm-started Eq. 8 searches converge: from some iteration on, a
    spec's worst-case point stops moving, and every later record repeats
    the identical (s_wc, gradient, ...) block — the bulk of a long run's
    checkpoint.  A per-spec entry that serializes identically to the
    previous record's entry is replaced by the :data:`_PREV` marker;
    ``previous_wc`` is compared against the *last* record the same way.
    Expansion (:func:`_expand_wc`) restores the exact dicts, so the
    round-trip is bit-identical.
    """
    reference: Optional[Dict] = None
    for record in records:
        worst_case = record.get("worst_case") or {}
        if reference is not None:
            compact = {}
            for key, wc in worst_case.items():
                if reference.get(key) == wc:
                    compact[key] = _PREV
                else:
                    compact[key] = wc
            record["worst_case"] = compact
        reference = worst_case
    if previous_wc is not None and reference is not None:
        for key in list(previous_wc):
            if reference.get(key) == previous_wc[key]:
                previous_wc[key] = _PREV


def _expand_wc(records: List[Dict], previous_wc: Optional[Dict],
               path: str) -> None:
    """Resolve :data:`_PREV` markers in place (inverse of
    :func:`_compact_wc`)."""
    reference: Dict = {}
    for index, record in enumerate(records):
        expanded = {}
        for key, wc in (record.get("worst_case") or {}).items():
            if wc == _PREV:
                if key not in reference:
                    raise CheckpointError(
                        f"checkpoint {path!r}: record {index} marks "
                        f"worst-case {key!r} as unchanged but no "
                        f"previous record defines it")
                expanded[key] = reference[key]
            else:
                expanded[key] = wc
        record["worst_case"] = expanded
        reference = expanded
    if previous_wc is not None:
        for key, wc in previous_wc.items():
            if wc == _PREV:
                if key not in reference:
                    raise CheckpointError(
                        f"checkpoint {path!r}: previous_wc marks "
                        f"{key!r} as unchanged but the last record "
                        f"does not define it")
                previous_wc[key] = reference[key]


def _write_payload(path: str, payload: Dict) -> None:
    """Atomically write ``payload`` as JSON to ``path`` (temp file in the
    same directory + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, suffix=".tmp", delete=False)
    try:
        with handle:
            json.dump(payload, handle)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def save_checkpoint(path: str, checkpoint: OptimizerCheckpoint) -> None:
    """Atomically write ``checkpoint`` as JSON to ``path`` (version-2
    schema: repeated worst-case blocks are delta-compacted)."""
    records = [record_to_dict(record) for record in checkpoint.records]
    previous_wc = None if checkpoint.previous_wc is None else {
        key: _wc_to_dict(wc)
        for key, wc in checkpoint.previous_wc.items()}
    _compact_wc(records, previous_wc)
    _write_payload(path, {
        "version": CHECKPOINT_VERSION,
        "template_name": checkpoint.template_name,
        "seed": checkpoint.seed,
        "iteration": checkpoint.iteration,
        "d_f": dict(checkpoint.d_f),
        "records": records,
        "previous_wc": previous_wc,
        "sample_state": dict(checkpoint.sample_state),
        "counters": dict(checkpoint.counters),
        "wall_time_s": checkpoint.wall_time_s,
        "stop_reason": checkpoint.stop_reason,
    })


def _read_payload(path: str) -> Dict:
    """The raw JSON payload of the checkpoint at ``path``: an object at
    :data:`CHECKPOINT_VERSION` carrying every top-level field.  The one
    reader behind :func:`load_checkpoint`, :func:`peek_checkpoint` and
    :func:`splice_merged_result`; anything else raises
    :class:`CheckpointError`."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}")
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}")
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path!r} holds a JSON {type(payload).__name__}, "
            f"not an object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has schema version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}")
    missing = [name for name in _FIELDS if name not in payload]
    if missing:
        raise CheckpointError(
            f"checkpoint {path!r} lacks field(s) {', '.join(missing)}")
    return payload


@contextlib.contextmanager
def _parsing(path: str, what: str):
    """Report a malformed entry met inside the block as a
    :class:`CheckpointError` naming ``what``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r}: malformed {what} "
            f"({type(exc).__name__}: {exc})") from exc


#: run-report counters a merged verification adds to the checkpoint's
#: evaluator ``counters``
_EFFORT_COUNTERS = ("simulations", "requests", "cache_hits",
                    "cache_misses")


def _effort(result) -> Dict[str, int]:
    """The :data:`_EFFORT_COUNTERS` of a verification result's run
    report (zero without a result or report)."""
    report = None if result is None else result.report
    if report is None:
        return dict.fromkeys(_EFFORT_COUNTERS, 0)
    return {key: getattr(report, key) for key in _EFFORT_COUNTERS}


def splice_merged_result(path: str, result) -> None:
    """Replace the last record's verification result in the checkpoint
    at ``path`` with a merged sharded ``YieldResult``.

    Operates on the raw checkpoint JSON (no template rebinding), so any
    circuit's checkpoint can be spliced.  The record's scalar summary
    fields (``yield_mc``, ``failed_samples``, ``verify_samples``) are
    updated alongside, and the file is rewritten atomically — a
    subsequent ``--resume`` continues the trajectory with the merged
    verification in place.

    Shard-aware budget accounting: the other shards' simulation effort
    (the merged report's counts minus what the local shard already
    recorded) is folded into the checkpoint's evaluator ``counters`` and
    the record's cumulative ``simulations``, so a resumed run's
    ``RunBudget``/Table-7 effort reporting reflects the *fleet-wide*
    spend instead of under-reporting to one shard's share.
    """
    payload = _read_payload(path)
    records = payload["records"]
    if not records:
        raise CheckpointError(
            f"checkpoint {path!r} has no iteration records to splice a "
            f"merged verification into")
    with _parsing(path, "last record"):
        record = records[-1]
        old = _effort(_mc_from_dict(record["mc"]))
        simulations = int(record["simulations"])
    # Fold the sibling shards' effort (merged minus what this
    # checkpoint's own verification already counted) into the pooled
    # budget counters.
    new = _effort(result)
    with _parsing(path, "counters"):
        counters = payload["counters"]
        for key in _EFFORT_COUNTERS:
            delta = new[key] - old[key]
            if delta > 0:
                counters[key] = int(counters.get(key, 0)) + delta
    sims_delta = new["simulations"] - old["simulations"]
    if sims_delta > 0:
        record["simulations"] = simulations + sims_delta
    record["mc"] = _mc_to_dict(result)
    record["yield_mc"] = float(result.estimate)
    record["failed_samples"] = int(result.failed_samples)
    record["verify_samples"] = int(result.n_samples)
    _write_payload(path, payload)


def peek_checkpoint(path: str) -> Dict:
    """Light-weight checkpoint inspection: summary fields only, no
    template rebinding (describes a resumable run without instantiating
    circuits).

    Returns ``{"version", "template_name", "seed", "iteration",
    "stop_reason"}``; raises :class:`CheckpointError` on unreadable,
    malformed or version-incompatible files.
    """
    payload = _read_payload(path)
    return {key: payload[key]
            for key in ("version", "template_name", "seed", "iteration",
                        "stop_reason")}


def load_checkpoint(path: str, template) -> OptimizerCheckpoint:
    """Load a checkpoint and rebind it to ``template``.

    Raises :class:`CheckpointError` for unreadable or malformed files,
    other schema versions, or a template-name mismatch.
    """
    payload = _read_payload(path)
    if payload["template_name"] != template.name:
        raise CheckpointError(
            f"checkpoint {path!r} was written for template "
            f"{payload['template_name']!r}, not {template.name!r}")
    previous_wc = payload["previous_wc"]
    with _parsing(path, "worst-case blocks"):
        _expand_wc(payload["records"], previous_wc, path)
    records = []
    for index, data in enumerate(payload["records"]):
        with _parsing(path, f"record {index}"):
            records.append(record_from_dict(data, template))
    with _parsing(path, "previous_wc"):
        if previous_wc is not None:
            previous_wc = {key: _wc_from_dict(wc, template)
                           for key, wc in previous_wc.items()}
    with _parsing(path, "header"):
        return OptimizerCheckpoint(
            template_name=payload["template_name"],
            seed=int(payload["seed"]),
            iteration=int(payload["iteration"]),
            d_f=dict(payload["d_f"]),
            records=records,
            previous_wc=previous_wc,
            sample_state=dict(payload["sample_state"]),
            counters={key: int(value)
                      for key, value in payload["counters"].items()},
            wall_time_s=float(payload["wall_time_s"]),
            stop_reason=payload["stop_reason"])
