"""The versioned wire format of stored yield-result artifacts.

Every JSON result that leaves this package over a file or the
``repro.serve`` API is wrapped in a self-describing **artifact**::

    {
      "schema_version": 1,
      "kind": "yield-result",
      "provenance": {
        "template": "folded-cascode",
        "seed": 2001,
        "estimator": "qmc",
        "n_samples": 64,
        ...
      },
      "result": { ... YieldResult.to_dict() ... }
    }

The provenance block answers "what request produced this result" without
re-reading any other file: the template and seed identify the sample
stream, the estimator/config fields identify the reduction, and
``code_version`` pins the producing code.  :func:`load_result_artifact`
validates an artifact on load and also accepts the *bare*
``YieldResult.to_dict()`` record that ``yield --json`` and
``merge-verify --json`` print (with no provenance), so such records
merge as shards too.

``merge-verify`` uses the provenance to reject incompatible shard files
(:func:`check_merge_compatible`): pooling sufficient statistics from
different templates, seeds, or estimators would silently produce a
statistically meaningless "merged" estimate.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ArtifactError

#: Current artifact schema version.  Bump on any incompatible change to
#: the wrapper or to ``YieldResult.to_dict()``; the version participates
#: in the ``repro.serve`` cache key, so results produced by a different
#: schema are never served from cache.
SCHEMA_VERSION = 1

#: ``kind`` of a single (possibly sharded) yield estimation artifact.
KIND_YIELD = "yield-result"
#: ``kind`` of a ``merge_results`` pooled artifact.
KIND_MERGED = "merged-yield-result"
#: ``kind`` of an optimization-trace artifact (the serve layer's
#: ``optimize`` job output).
KIND_OPTIMIZE = "optimize-result"

#: every artifact must carry these top-level fields
_REQUIRED_FIELDS = ("schema_version", "kind", "provenance", "result")
#: provenance fields every yield/optimize artifact must carry
_REQUIRED_PROVENANCE = ("template", "seed", "estimator")


def make_provenance(template: str, seed: Optional[int], estimator: str,
                    n_samples: int, command: str,
                    shard: Optional[str] = None,
                    shards: Optional[int] = None,
                    extra: Optional[Mapping] = None) -> Dict:
    """Build a provenance block for a yield artifact.

    ``command`` names the producing entry point (``"yield"``,
    ``"merge-verify"``, ``"serve"``); ``shard`` is the 1-based ``i/N``
    label of a shard artifact, ``shards`` the shard count of a merged
    one.  ``extra`` merges additional keys (e.g. the serve layer's job
    accounting) without displacing the required ones.
    """
    from .. import __version__ as code_version
    provenance: Dict = {
        "template": template,
        "seed": seed,
        "estimator": estimator,
        "n_samples": int(n_samples),
        "command": command,
        "code_version": code_version,
    }
    if shard is not None:
        provenance["shard"] = shard
    if shards is not None:
        provenance["shards"] = int(shards)
    if extra:
        for key, value in extra.items():
            provenance.setdefault(key, value)
    return provenance


def wrap_result(result, provenance: Mapping,
                kind: str = KIND_YIELD) -> Dict:
    """Wrap a :class:`~repro.yieldsim.YieldResult` (or any object with a
    compatible ``to_dict``) into a versioned artifact."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "provenance": dict(provenance),
        "result": result.to_dict() if hasattr(result, "to_dict")
        else dict(result),
    }


def validate_artifact(data: Mapping, source: str = "artifact") -> None:
    """Raise :class:`ArtifactError` unless ``data`` is a structurally
    valid artifact of a schema version this build reads."""
    if not isinstance(data, Mapping):
        raise ArtifactError(f"{source}: artifact must be a JSON object, "
                            f"got {type(data).__name__}")
    missing = [key for key in _REQUIRED_FIELDS if key not in data]
    if missing:
        raise ArtifactError(
            f"{source}: artifact is missing field(s) "
            f"{', '.join(missing)}")
    version = data["schema_version"]
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"{source}: artifact schema version {version!r} is not "
            f"readable by this build (expects {SCHEMA_VERSION})")
    provenance = data["provenance"]
    if not isinstance(provenance, Mapping):
        raise ArtifactError(f"{source}: provenance must be an object")
    if data["kind"] in (KIND_YIELD, KIND_MERGED, KIND_OPTIMIZE):
        absent = [key for key in _REQUIRED_PROVENANCE
                  if key not in provenance]
        if absent:
            raise ArtifactError(
                f"{source}: provenance is missing field(s) "
                f"{', '.join(absent)}")
    if not isinstance(data["result"], Mapping):
        raise ArtifactError(f"{source}: result must be an object")


def load_result_artifact(data: Mapping, source: str = "artifact"
                         ) -> Tuple["object", Optional[Dict]]:
    """Parse a loaded JSON document into ``(YieldResult, provenance)``.

    Accepts both the wrapped artifact format (validated, provenance
    returned) and the bare ``YieldResult.to_dict()`` record that
    ``yield --json`` prints (``provenance = None``).
    """
    from ..yieldsim import YieldResult
    if isinstance(data, Mapping) and "schema_version" in data:
        validate_artifact(data, source=source)
        try:
            result = YieldResult.from_dict(data["result"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ArtifactError(
                f"{source}: result block does not parse as a "
                f"YieldResult: {exc}")
        return result, dict(data["provenance"])
    try:
        return YieldResult.from_dict(data), None
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise ArtifactError(
            f"{source}: neither a versioned artifact nor a bare "
            f"YieldResult record: {exc}")


def check_merge_compatible(
        provenances: Sequence[Optional[Mapping]],
        sources: Optional[Sequence[str]] = None) -> None:
    """Reject shard artifacts whose provenance disagrees on the fields
    that define one logical sample stream.

    Shards of one verification run share the template, the root seed,
    and the estimator; pooling anything else produces a well-formed but
    meaningless estimate.  Artifacts without provenance (bare
    ``yield --json`` records) are skipped — there is nothing to check
    against.
    """
    if sources is None:
        sources = [f"shard {i + 1}" for i in range(len(provenances))]
    reference: Optional[Tuple[int, Mapping]] = None
    for index, provenance in enumerate(provenances):
        if provenance is None:
            continue
        if reference is None:
            reference = (index, provenance)
            continue
        ref_index, ref = reference
        for field in _REQUIRED_PROVENANCE:
            ours, theirs = ref.get(field), provenance.get(field)
            if ours != theirs:
                raise ArtifactError(
                    f"cannot merge incompatible shard results: "
                    f"{sources[ref_index]} has {field}={ours!r} but "
                    f"{sources[index]} has {field}={theirs!r}; shards "
                    f"of one run must share template, seed, and "
                    f"estimator")


def merged_provenance(provenances: Sequence[Optional[Mapping]],
                      n_samples: int, shards: int) -> Dict:
    """Provenance of a ``merge_results`` artifact, derived from its
    inputs (first non-None provenance wins the shared fields)."""
    base = next((p for p in provenances if p is not None), None)
    return make_provenance(
        template=base.get("template") if base else "unknown",
        seed=base.get("seed") if base else None,
        estimator=base.get("estimator") if base else "unknown",
        n_samples=n_samples,
        command="merge-verify",
        shards=shards)


__all__: List[str] = [
    "KIND_MERGED", "KIND_OPTIMIZE", "KIND_YIELD", "SCHEMA_VERSION",
    "check_merge_compatible", "load_result_artifact", "make_provenance",
    "merged_provenance", "validate_artifact", "wrap_result",
]
