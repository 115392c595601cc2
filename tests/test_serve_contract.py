"""Tests for the versioned artifact wire format and the canonical
request identity of :mod:`repro.serve` (contract.py + jobs.py)."""

import json

import pytest

from repro.errors import ArtifactError, ServeError
from repro.serve import (KIND_MERGED, KIND_YIELD, SCHEMA_VERSION,
                         OptimizeRequest, YieldRequest, cache_key,
                         canonical_request, check_merge_compatible,
                         load_result_artifact, make_provenance,
                         merged_provenance, validate_artifact, wrap_result)
from repro.statistics import wilson_interval
from repro.yieldsim import SufficientStats, YieldResult
from repro.yieldsim.result import KIND_BINOMIAL


def binomial_result(k, n):
    stats = SufficientStats(kind=KIND_BINOMIAL, n=n, successes=k,
                            failed=0, w_sum=float(n), w_sq_sum=float(n),
                            w_pass_sum=float(k), w_sq_pass_sum=float(k))
    low, high = wilson_interval(k, n, 0.95)
    return YieldResult(estimator="mc", estimate=k / n, n_samples=n,
                       simulations=n, ci_low=low, ci_high=high,
                       ci_level=0.95, ess=float(n), failed_samples=0,
                       stats=stats)


def provenance(**overrides):
    fields = dict(template="ota", seed=3, estimator="mc", n_samples=10,
                  command="yield")
    fields.update(overrides)
    return make_provenance(**fields)


class TestArtifactFormat:
    def test_wrap_and_validate_round_trip(self):
        artifact = wrap_result(binomial_result(7, 10), provenance())
        validate_artifact(artifact)
        assert artifact["schema_version"] == SCHEMA_VERSION
        assert artifact["kind"] == KIND_YIELD
        assert artifact["provenance"]["template"] == "ota"
        assert artifact["provenance"]["code_version"]
        # JSON round trip stays valid and loads back bit-identically
        reparsed = json.loads(json.dumps(artifact))
        result, loaded = load_result_artifact(reparsed)
        assert loaded == artifact["provenance"]
        assert result.to_dict() == binomial_result(7, 10).to_dict()

    def test_provenance_optional_fields(self):
        block = provenance(shard="1/4", shards=None)
        assert block["shard"] == "1/4"
        assert "shards" not in block
        block = provenance(extra={"template": "evil", "note": "x"})
        # extra must not displace required fields
        assert block["template"] == "ota"
        assert block["note"] == "x"

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda a: a.pop("schema_version"), "missing field"),
        (lambda a: a.pop("result"), "missing field"),
        (lambda a: a.update(schema_version=99), "schema version"),
        (lambda a: a.update(provenance="nope"), "provenance"),
        (lambda a: a.update(result=[1, 2]), "result"),
        (lambda a: a["provenance"].pop("seed"), "seed"),
    ])
    def test_validation_rejects_malformed(self, mutate, fragment):
        artifact = wrap_result(binomial_result(7, 10), provenance())
        mutate(artifact)
        with pytest.raises(ArtifactError, match=fragment):
            validate_artifact(artifact)

    def test_load_accepts_legacy_bare_result(self):
        bare = binomial_result(4, 8).to_dict()
        result, loaded = load_result_artifact(bare)
        assert loaded is None
        assert result.estimate == 0.5

    def test_load_rejects_garbage(self):
        with pytest.raises(ArtifactError):
            load_result_artifact({"hello": "world"})
        with pytest.raises(ArtifactError):
            load_result_artifact([])


class TestMergeCompatibility:
    def test_accepts_matching_and_legacy(self):
        check_merge_compatible([provenance(), provenance(), None])

    @pytest.mark.parametrize("field,value", [
        ("template", "miller"), ("seed", 99), ("estimator", "qmc"),
    ])
    def test_rejects_mismatch(self, field, value):
        with pytest.raises(ArtifactError) as err:
            check_merge_compatible(
                [provenance(), provenance(**{field: value})],
                sources=["a.json", "b.json"])
        message = str(err.value)
        assert field in message
        assert "a.json" in message and "b.json" in message

    def test_merged_provenance_derivation(self):
        # A shard artifact written before the backend knob was deleted
        # still carries its "linsolve" entry; the merge drops it.
        legacy = dict(provenance(), linsolve="dense")
        block = merged_provenance([None, legacy], n_samples=20, shards=2)
        assert block["template"] == "ota"
        assert block["shards"] == 2
        assert block["n_samples"] == 20
        assert block["command"] == "merge-verify"
        assert "linsolve" not in block


class TestYieldRequest:
    def test_round_trip(self):
        request = YieldRequest(circuit="ota", estimator="qmc",
                               n_samples=16, seed=5, policy={"lenient": True})
        assert YieldRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(circuit="nope"), "unknown circuit"),
        (dict(circuit="ota", estimator="bogus"), "unknown estimator"),
        (dict(circuit="ota", n_samples=0), "n_samples"),
        (dict(circuit="ota", jobs=0), "jobs must be >= 1"),
    ])
    def test_validation(self, kwargs, fragment):
        with pytest.raises(ServeError, match=fragment):
            YieldRequest(**kwargs)

    def test_from_dict_wraps_errors(self):
        with pytest.raises(ServeError, match="invalid yield request"):
            YieldRequest.from_dict({"circuit": "ota", "n_samples": "x"})


class TestOptimizeRequest:
    def test_round_trip(self):
        request = OptimizeRequest(circuit="miller", iterations=2, seed=5,
                                  estimator="is", jobs=2)
        assert OptimizeRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_nonpositive_jobs(self, jobs):
        # Below one worker the optimizer would silently run serially.
        with pytest.raises(ServeError, match="jobs must be >= 1"):
            OptimizeRequest(circuit="miller", jobs=jobs)
        with pytest.raises(ServeError, match="jobs must be >= 1"):
            OptimizeRequest.from_dict({"circuit": "miller", "jobs": jobs})

    def test_one_job_is_serial_and_accepted(self):
        assert OptimizeRequest(circuit="miller", jobs=1).jobs == 1
        assert YieldRequest(circuit="miller", jobs=1).jobs == 1


class TestStoredRequests:
    """Requests in the form the write-ahead log and job records stored
    before the engine-mode options were deleted still parse, into the
    same request without those keys (``from_dict`` ignores keys it does
    not know)."""

    def test_yield_request(self):
        stored = {"circuit": "ota", "estimator": "qmc", "n_samples": 16,
                  "seed": 5, "jobs": 2, "linsolve": None,
                  "chunk_timeout": 30.0, "batch_samples": None,
                  "shard": "1/2", "cold_dc": False,
                  "policy": {"lenient": True}}
        request = YieldRequest.from_dict(stored)
        assert request == YieldRequest(
            circuit="ota", estimator="qmc", n_samples=16, seed=5, jobs=2,
            chunk_timeout=30.0, shard="1/2", policy={"lenient": True})
        assert request.to_dict() == {
            key: value for key, value in stored.items()
            if key not in ("linsolve", "batch_samples", "cold_dc")}

    def test_optimize_request(self):
        stored = {"circuit": "miller", "iterations": 2,
                  "samples_linear": 500, "samples_verify": 20, "seed": 5,
                  "estimator": "is", "use_constraints": False,
                  "linearize_at": "nominal", "linsolve": None, "jobs": 2,
                  "batch_samples": None}
        request = OptimizeRequest.from_dict(stored)
        assert request == OptimizeRequest(
            circuit="miller", iterations=2, samples_linear=500,
            samples_verify=20, seed=5, estimator="is",
            use_constraints=False, linearize_at="nominal", jobs=2)
        assert request.to_dict() == {
            key: value for key, value in stored.items()
            if key not in ("linsolve", "batch_samples")}


class TestCacheKey:
    def request(self, **overrides):
        fields = dict(circuit="ota", estimator="qmc", n_samples=16, seed=5)
        fields.update(overrides)
        return YieldRequest(**fields)

    def test_execution_knobs_do_not_change_the_key(self):
        base = cache_key(self.request())
        assert cache_key(self.request(jobs=8)) == base
        assert cache_key(self.request(chunk_timeout=1.5)) == base

    def test_result_determining_fields_change_the_key(self):
        base = cache_key(self.request())
        assert cache_key(self.request(seed=6)) != base
        assert cache_key(self.request(n_samples=32)) != base
        assert cache_key(self.request(estimator="mc")) != base
        assert cache_key(self.request(circuit="miller")) != base
        assert cache_key(self.request(policy={"lenient": False})) != base

    def test_qmc_sharding_is_cache_transparent(self):
        # Sobol skip-ahead shards reproduce the unsharded point set, so
        # the shard count is an execution detail for qmc ...
        request = self.request()
        assert cache_key(request, shards=4) == cache_key(request, shards=1)

    def test_mc_sharding_is_part_of_the_identity(self):
        # ... but MC draws independent sub-streams per shard: a different
        # partition is a different result.
        request = self.request(estimator="mc")
        assert cache_key(request, shards=4) != cache_key(request, shards=1)
        assert cache_key(request, shards=4) != cache_key(request, shards=2)

    def test_canonical_form_pins_specs_and_schema(self):
        canonical = canonical_request(self.request())
        assert canonical["schema_version"] == SCHEMA_VERSION
        assert canonical["statistical_dim"] > 0
        assert all(len(spec) == 3 for spec in canonical["specs"])
        assert json.dumps(canonical)  # JSON-serializable as-is


class TestMergedArtifactKind:
    def test_merge_artifacts_produces_merged_kind(self):
        from repro.serve import merge_artifacts
        request = YieldRequest(circuit="ota", estimator="mc",
                               n_samples=20, seed=1)
        shards = [wrap_result(binomial_result(4, 10),
                              provenance(shard=f"{i + 1}/2"))
                  for i in range(2)]
        artifact = merge_artifacts(shards, request, shards=2)
        validate_artifact(artifact)
        assert artifact["kind"] == KIND_MERGED
        assert artifact["provenance"]["shards"] == 2
        assert artifact["result"]["merged_from"] == 2
        assert artifact["result"]["n_samples"] == 20
