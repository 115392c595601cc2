"""End-to-end tests for the ``repro.serve`` daemon: HTTP API, shard
orchestration, the content-addressed cache, budgets, and the CLI client
commands."""

import asyncio
import json

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.serve import (ResultStore, ServeApp, ServeClient, ServerThread,
                         YieldRequest, cache_key, execute_yield)

#: one cheap, deterministic request used throughout (qmc: shard-stream
#: invariant, so the sharded run must reproduce the unsharded one)
REQUEST = {"circuit": "ota", "estimator": "qmc", "n_samples": 16,
           "seed": 3}

#: result fields that must match the direct CLI run exactly (the same
#: key set the sharded-verification CI gate compares)
EXACT_KEYS = ("estimate", "ci_low", "ci_high", "ess", "n_samples",
              "simulations", "failed_samples", "bad_fraction")


def run_app(coro_fn, **app_kwargs):
    """Drive a ServeApp coroutine on a fresh event loop."""
    async def runner():
        app = ServeApp(**app_kwargs)
        try:
            return await coro_fn(app)
        finally:
            await app.close()
    return asyncio.run(runner())


class TestSubmitValidation:
    def submit_error(self, tmp_path, payload):
        async def scenario(app):
            with pytest.raises(ServeError) as err:
                await app.submit(payload)
            return str(err.value)
        return run_app(scenario, store=ResultStore(str(tmp_path / "s")))

    def test_rejects_non_yield_kinds(self, tmp_path):
        message = self.submit_error(
            tmp_path, {"kind": "espresso", "request": REQUEST})
        assert "unsupported job kind" in message

    def test_rejects_explicit_shard_labels(self, tmp_path):
        request = dict(REQUEST, shard="1/2")
        message = self.submit_error(
            tmp_path, {"kind": "yield", "request": request})
        assert "orchestrates the shard fan-out" in message

    def test_rejects_bad_shard_counts(self, tmp_path):
        message = self.submit_error(
            tmp_path, {"kind": "yield", "request": REQUEST, "shards": 0})
        assert "shards must be >= 1" in message
        message = self.submit_error(
            tmp_path, {"kind": "yield", "request": REQUEST, "shards": 99})
        assert "non-empty shards" in message

    def test_rejects_nonpositive_jobs(self, tmp_path):
        message = self.submit_error(
            tmp_path, {"kind": "yield", "request": dict(REQUEST, jobs=0)})
        assert "jobs must be >= 1" in message
        message = self.submit_error(
            tmp_path, {"kind": "optimize",
                       "request": {"circuit": "ota", "jobs": 0}})
        assert "jobs must be >= 1" in message

    def test_rejects_unknown_circuit_and_bad_budget(self, tmp_path):
        message = self.submit_error(
            tmp_path,
            {"kind": "yield", "request": dict(REQUEST, circuit="nope")})
        assert "unknown circuit" in message
        message = self.submit_error(
            tmp_path,
            {"kind": "yield", "request": REQUEST, "budget": "5s"})
        assert "budget" in message


class TestAppExecution:
    def test_deadline_budget_fails_the_job(self, tmp_path):
        async def scenario(app):
            job = await app.submit({
                "kind": "yield", "request": REQUEST,
                "budget": {"deadline_s": 1e-4}})
            await app.wait_idle()
            return app.status(job["id"])
        record = run_app(scenario,
                         store=ResultStore(str(tmp_path / "s")), workers=1)
        assert record["state"] == "failed"
        assert record["error"] == "deadline exceeded"

    def test_max_simulation_budget_is_flagged_not_truncated(self, tmp_path):
        async def scenario(app):
            job = await app.submit({
                "kind": "yield", "request": REQUEST,
                "budget": {"max_simulations": 1}})
            await app.wait_idle()
            return app.status(job["id"]), app.result(job["id"])
        record, artifact = run_app(
            scenario, store=ResultStore(str(tmp_path / "s")), workers=1)
        assert record["state"] == "done"
        assert record["budget_exceeded"] is True
        # the estimate itself is the full, untruncated batch
        assert artifact["result"]["n_samples"] == REQUEST["n_samples"]

    def test_splice_checkpoint_after_sharded_verification(self, tmp_path):
        from helpers import LinearTemplate
        from repro.core.optimizer import OptimizerConfig, YieldOptimizer
        ckpt = str(tmp_path / "ckpt.json")
        YieldOptimizer(LinearTemplate(),
                       OptimizerConfig(max_iterations=2,
                                       n_samples_linear=400,
                                       n_samples_verify=60, multistart=1,
                                       seed=7),
                       checkpoint_path=ckpt).run()

        async def scenario(app):
            job = await app.submit({
                "kind": "yield", "request": REQUEST, "shards": 2,
                "splice_checkpoint": ckpt})
            await app.wait_idle()
            return app.status(job["id"]), app.result(job["id"])
        record, artifact = run_app(
            scenario, store=ResultStore(str(tmp_path / "s")), workers=2)
        assert record["state"] == "done"
        with open(ckpt) as handle:
            payload = json.load(handle)
        last = payload["records"][-1]
        assert last["yield_mc"] == artifact["result"]["estimate"]
        assert last["mc"]["data"]["merged_from"] == 2


class TestServiceEndToEnd:
    def test_sharded_job_matches_cli_and_resubmit_hits_cache(
            self, tmp_path, capsys):
        # ground truth: the equivalent direct CLI run
        assert main(["yield", REQUEST["circuit"], "--estimator",
                     REQUEST["estimator"], "--samples",
                     str(REQUEST["n_samples"]), "--seed",
                     str(REQUEST["seed"]), "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)

        store_dir = str(tmp_path / "store")
        with ServerThread(store_dir, workers=2) as server:
            client = ServeClient(server.url)
            assert client.health()["status"] == "ok"

            # a 2-way sharded job through the API ...
            job = client.submit({"kind": "yield", "request": REQUEST,
                                 "shards": 2, "tenant": "ci"})
            assert job["state"] in ("queued", "running")
            final = client.wait(job["id"], timeout_s=300)
            assert final["state"] == "done", final["error"]
            assert final["cache_hit"] is False
            assert final["simulations"] > 0
            artifact = client.result(job["id"])
            # ... merges to exactly the unsharded CLI estimate
            for key in EXACT_KEYS:
                assert artifact["result"][key] == direct[key], key
            assert artifact["result"]["merged_from"] == 2
            assert artifact["provenance"]["template"] == REQUEST["circuit"]
            assert artifact["provenance"]["job"]["simulations"] == \
                final["simulations"]

            # identical resubmission: served from the store, no fresh
            # simulations, recorded as such in the provenance
            again = client.submit({"kind": "yield", "request": REQUEST,
                                   "shards": 2, "tenant": "ci"})
            assert again["state"] == "done"
            assert again["cache_hit"] is True
            assert again["simulations"] == 0
            cached = client.result(again["id"])
            assert cached["provenance"]["job"]["cache_hit"] is True
            assert cached["provenance"]["job"]["simulations"] == 0
            assert cached["result"] == artifact["result"]

            # qmc sharding is cache-transparent: the unsharded request
            # resolves to the same stored object
            unsharded = client.submit({"kind": "yield",
                                       "request": REQUEST})
            assert unsharded["state"] == "done"
            assert unsharded["cache_hit"] is True

            stats = client.stats()
            assert stats["queue"]["cache_hits"] == 2
            assert stats["store"]["objects"] == 1

            # error mapping: unknown ids are 404, bad submissions 400
            with pytest.raises(ServeError, match="404"):
                client.status("doesnotexist")
            with pytest.raises(ServeError, match="400"):
                client.submit({"kind": "yield",
                               "request": {"circuit": "nope"}})
            # cancelling a finished job is a harmless no-op
            assert client.cancel(job["id"])["state"] == "done"

        # the store outlives the daemon: a fresh server serves the
        # result without recomputing
        with ServerThread(store_dir, workers=1) as server:
            job = ServeClient(server.url).submit(
                {"kind": "yield", "request": REQUEST, "shards": 2})
            assert job["state"] == "done" and job["cache_hit"] is True

    def test_cli_client_commands(self, tmp_path, capsys):
        with ServerThread(str(tmp_path / "store"), workers=1) as server:
            assert main(["submit", REQUEST["circuit"],
                         "--estimator", REQUEST["estimator"],
                         "--samples", str(REQUEST["n_samples"]),
                         "--seed", str(REQUEST["seed"]),
                         "--server", server.url, "--wait",
                         "--timeout", "300"]) == 0
            artifact = json.loads(capsys.readouterr().out)
            assert artifact["kind"] == "yield-result"
            job_id = artifact["provenance"]["job"]["id"]

            assert main(["status", job_id, "--server", server.url]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["state"] == "done"

            out = str(tmp_path / "result.json")
            assert main(["result", job_id, "--server", server.url,
                         "--out", out]) == 0
            capsys.readouterr()
            with open(out) as handle:
                assert json.load(handle)["result"] == artifact["result"]

            assert main(["cancel", job_id, "--server", server.url]) == 0
            assert json.loads(capsys.readouterr().out)["state"] == "done"

            # daemon-level status renders the telemetry table
            assert main(["status", "--server", server.url]) == 0
            rendered = capsys.readouterr().out
            assert "Jobs (1 total)" in rendered
            assert "cache hits" in rendered

    def test_cli_client_reports_unreachable_daemon(self):
        with pytest.raises(SystemExit, match="cannot reach serve daemon"):
            main(["status", "--server", "http://127.0.0.1:1"])


class TestExecutionParity:
    def test_execute_yield_matches_cli_json(self, capsys):
        assert main(["yield", "ota", "--estimator", "qmc", "--samples",
                     "16", "--seed", "3", "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        request = YieldRequest(circuit="ota", estimator="qmc",
                               n_samples=16, seed=3)
        ours = execute_yield(request).to_dict()
        # the telemetry report carries wall-clock phase timings; every
        # other field is a deterministic function of the request
        ours_report = ours.pop("report")
        direct_report = direct.pop("report")
        assert ours == direct
        assert ours_report["simulations"] == direct_report["simulations"]

    def test_policy_wrapped_execution_matches_bare_run(self):
        # With no faults occurring, a fault-policy-guarded job must
        # produce the identical estimate (the policy only changes what
        # happens when a simulation fails).
        bare = execute_yield(YieldRequest(**REQUEST))
        guarded = execute_yield(YieldRequest(
            **REQUEST, policy={"lenient": True, "retry_attempts": 2}))
        assert guarded.estimate == bare.estimate
        assert guarded.stats.to_dict() == bare.stats.to_dict()
        assert guarded.failed_samples == 0

    def test_cache_key_stability_across_processes(self):
        # the key must be a pure function of the request (no per-process
        # salt), or the persistent store could never hit
        import os
        import subprocess
        import sys
        request = YieldRequest(**REQUEST)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("from repro.serve import YieldRequest, cache_key; "
                f"print(cache_key(YieldRequest(**{REQUEST!r}), shards=2))")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        fresh = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, check=True,
                               cwd=root, env=env).stdout.strip()
        assert fresh == cache_key(request, shards=2)


class TestWaitPollFloor:
    """Regression: near its deadline ``ServeClient.wait`` used to clamp
    the sleep to the time remaining with no lower bound, so the last
    stretch before a timeout degenerated into a zero-sleep busy loop of
    status requests.  Every sleep must respect the minimum floor."""

    def test_sleeps_never_collapse_below_floor(self, monkeypatch):
        from repro.serve import client as client_mod

        client = ServeClient("http://serve.invalid")
        monkeypatch.setattr(client, "status",
                            lambda job_id: {"state": "running"})
        clock = {"t": 0.0}
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["t"] += seconds

        monkeypatch.setattr(client_mod.time, "monotonic",
                            lambda: clock["t"])
        monkeypatch.setattr(client_mod.time, "sleep", fake_sleep)
        with pytest.raises(ServeError, match="still 'running'"):
            client.wait("job-1", timeout_s=1.0, poll_s=0.2,
                        max_poll_s=0.5)
        assert sleeps, "wait() must sleep between polls"
        assert min(sleeps) >= client_mod._MIN_SLEEP_S
        # The floor bounds the number of polls a timeout can cost.
        assert len(sleeps) <= 1.0 / client_mod._MIN_SLEEP_S + 1
