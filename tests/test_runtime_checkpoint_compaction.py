"""Tests for the version-2 checkpoint format: compaction (delta-encoded
worst-case blocks), the one reader's rejection of other versions and
malformed files, and atomic checkpoint writes under concurrency."""

import copy
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from helpers import LinearTemplate
from repro.core.optimizer import OptimizerConfig, YieldOptimizer
from repro.evaluation import Evaluator
from repro.runtime import (CHECKPOINT_VERSION, CheckpointError,
                           OptimizerCheckpoint, load_checkpoint,
                           peek_checkpoint, record_to_dict,
                           save_checkpoint, splice_merged_result)
from repro.runtime.checkpoint import _wc_to_dict
from repro.yieldsim import OperationalMC


def checkpointed_run(tmp_path, name="ck.json"):
    path = str(tmp_path / name)
    config = OptimizerConfig(max_iterations=3, n_samples_linear=400,
                             n_samples_verify=60, multistart=1, seed=7,
                             min_improvement=-1.0)
    result = YieldOptimizer(LinearTemplate(), config,
                            checkpoint_path=path).run()
    return path, config, result


def assert_states_equal(restored, state):
    assert restored.iteration == state.iteration
    assert restored.d_f == state.d_f
    assert len(restored.records) == len(state.records)
    for ours, theirs in zip(restored.records, state.records):
        assert record_to_dict(ours) == record_to_dict(theirs)
    if state.previous_wc is None:
        assert restored.previous_wc is None
    else:
        assert {k: _wc_to_dict(v)
                for k, v in restored.previous_wc.items()} == \
            {k: _wc_to_dict(v) for k, v in state.previous_wc.items()}


class TestCompaction:
    def test_markers_appear_for_repeated_worst_case_blocks(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        # force guaranteed repetition: append bitwise copies of the last
        # record (a converged run repeats its worst-case blocks exactly)
        last = state.records[-1]
        for offset in (1, 2):
            duplicate = copy.deepcopy(last)
            duplicate.index = last.index + offset
            state.records.append(duplicate)
        state.previous_wc = dict(last.worst_case)
        out = str(tmp_path / "compact.json")
        save_checkpoint(out, state)
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["version"] == CHECKPOINT_VERSION == 2
        for record in payload["records"][-2:]:
            assert set(record["worst_case"].values()) == {"@prev"}
        assert set(payload["previous_wc"].values()) == {"@prev"}
        # the first record is always stored in full
        first = payload["records"][0]["worst_case"]
        assert all(isinstance(wc, dict) for wc in first.values())

    def test_round_trip_is_bit_identical(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        duplicate = copy.deepcopy(state.records[-1])
        duplicate.index += 1
        state.records.append(duplicate)
        state.previous_wc = dict(duplicate.worst_case)
        out = str(tmp_path / "compact.json")
        save_checkpoint(out, state)
        restored = load_checkpoint(out, LinearTemplate())
        assert_states_equal(restored, state)
        # saving the restored state reproduces the same bytes
        again = str(tmp_path / "again.json")
        save_checkpoint(again, restored)
        with open(out) as a, open(again) as b:
            assert a.read() == b.read()

    def test_resume_through_compacted_checkpoint(self, tmp_path):
        path, config, result = checkpointed_run(tmp_path)
        with open(path) as handle:
            assert json.load(handle)["version"] == 2
        resumed = YieldOptimizer(LinearTemplate(), config,
                                 checkpoint_path=path, resume=True).run()
        assert resumed.d_final == result.d_final
        assert [r.yield_mc for r in resumed.records] == \
            [r.yield_mc for r in result.records]

    def test_version_1_checkpoints_are_rejected(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        # re-serialize the exact payload the version-1 writer produced:
        # full worst-case blocks, no markers
        payload = {
            "version": 1,
            "template_name": state.template_name,
            "seed": state.seed,
            "iteration": state.iteration,
            "d_f": dict(state.d_f),
            "records": [record_to_dict(r) for r in state.records],
            "previous_wc": None if state.previous_wc is None else {
                key: _wc_to_dict(wc)
                for key, wc in state.previous_wc.items()},
            "sample_state": dict(state.sample_state),
            "counters": dict(state.counters),
            "wall_time_s": state.wall_time_s,
            "stop_reason": state.stop_reason,
        }
        legacy = tmp_path / "v1.json"
        legacy.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="schema version 1;"):
            load_checkpoint(str(legacy), LinearTemplate())

    def test_compaction_shrinks_the_file(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        for offset in range(1, 6):
            duplicate = copy.deepcopy(state.records[-1])
            duplicate.index += offset
            state.records.append(duplicate)
        compact = str(tmp_path / "compact.json")
        save_checkpoint(compact, state)
        expanded = len(json.dumps(
            [record_to_dict(r)["worst_case"] for r in state.records]))
        with open(compact) as handle:
            stored = len(json.dumps(
                [r["worst_case"]
                 for r in json.load(handle)["records"]]))
        assert stored < 0.5 * expanded


def verification_result():
    return OperationalMC().estimate(
        Evaluator(LinearTemplate()), {"d0": 1.0, "d1": 0.0},
        {"f>=": {"temp": 27.0}}, n_samples=20, seed=1)


def rewrite(path, edit):
    """Apply ``edit`` to the raw JSON payload of the file at ``path``."""
    with open(path) as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)


#: (file content, what the CheckpointError says)
MALFORMED = [
    pytest.param([1, 2], "not an object", id="json-array"),
    pytest.param({"version": 2}, "lacks field", id="version-only"),
    pytest.param({"version": 99}, "schema version 99;", id="version-99"),
]


class TestMalformedCheckpoints:
    """Every reader reports a malformed file as a CheckpointError, never
    as a stray AttributeError or KeyError from inside the parse."""

    @pytest.mark.parametrize("content, message", MALFORMED)
    def test_every_reader_raises_checkpoint_error(self, tmp_path,
                                                  content, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path), LinearTemplate())
        with pytest.raises(CheckpointError, match=message):
            peek_checkpoint(str(path))
        with pytest.raises(CheckpointError, match=message):
            splice_merged_result(str(path), verification_result())

    @pytest.mark.parametrize("content, message", MALFORMED)
    def test_cli_exits_with_one_line(self, tmp_path, content, message):
        """``optimize --resume`` and ``merge-verify --checkpoint`` print
        the CheckpointError instead of a traceback."""
        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        shard = tmp_path / "shard.json"
        shard.write_text(verification_result().to_json())
        for argv in (["optimize", "miller", "--checkpoint", str(path),
                      "--resume"],
                     ["merge-verify", str(shard), "--json",
                      "--checkpoint", str(path)]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            text = str(err.value)
            assert message in text and str(path) in text
            assert "\n" not in text

    def test_peek_reads_the_summary_fields(self, tmp_path):
        path, config, result = checkpointed_run(tmp_path)
        assert peek_checkpoint(path) == {
            "version": CHECKPOINT_VERSION,
            "template_name": LinearTemplate().name, "seed": config.seed,
            "iteration": len(result.records) - 1, "stop_reason": None}

    def test_malformed_record_names_its_index(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        rewrite(path, lambda payload:
                payload["records"][1].pop("verify_shrunk"))
        with pytest.raises(CheckpointError, match="record 1"):
            load_checkpoint(path, LinearTemplate())

    def test_verification_block_without_statistics(self, tmp_path):
        path, _, result = checkpointed_run(tmp_path)
        last = len(result.records) - 1

        def drop_stats(payload):
            payload["records"][last]["mc"]["data"]["stats"] = None

        rewrite(path, drop_stats)
        with pytest.raises(CheckpointError, match=f"record {last}"):
            load_checkpoint(path, LinearTemplate())
        with pytest.raises(CheckpointError, match="last record"):
            splice_merged_result(path, verification_result())


def hammer_checkpoints(job):
    """Worker: write ``writes`` distinct checkpoints to one path."""
    path, tag, writes = job
    for index in range(writes):
        checkpoint = OptimizerCheckpoint(
            template_name=tag, seed=index, iteration=index,
            d_f={"d0": float(index)},
            sample_state={"write": index},
            counters={"simulations": index})
        save_checkpoint(path, checkpoint)
    return tag


class TestConcurrentWrites:
    def test_parallel_jobs_never_interleave(self, tmp_path):
        """Two jobs hammering distinct checkpoint paths from separate
        processes: every observable file state is one complete,
        internally consistent JSON document (the atomic temp-file +
        rename protocol), never a mix of the two writers."""
        jobs = [(str(tmp_path / f"job{n}.json"), f"job{n}", 40)
                for n in range(2)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(hammer_checkpoints, job)
                       for job in jobs]
            observations = 0
            while not all(f.done() for f in futures):
                for path, tag, _ in jobs:
                    try:
                        with open(path) as handle:
                            payload = json.load(handle)
                    except (OSError, ValueError):
                        continue  # not yet created; never half-written
                    # a parse that succeeds must be one writer's complete
                    # payload: the tag matches the path and the monotone
                    # fields agree with each other
                    assert payload["template_name"] == tag
                    assert payload["iteration"] == \
                        payload["sample_state"]["write"] == \
                        payload["counters"]["simulations"]
                    observations += 1
            assert [f.result() for f in futures] == ["job0", "job1"]
        assert observations > 0
        for path, tag, writes in jobs:
            with open(path) as handle:
                final = json.load(handle)
            assert final["template_name"] == tag
            assert final["iteration"] == writes - 1
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
