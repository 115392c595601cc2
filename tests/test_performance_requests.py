"""Per-corner measurement: an evaluation measures only the requested
performances.

The verification Monte-Carlo asks each worst-case corner only for the
performances of the specs checked there (Eq. 6-7 reads no other value).
These tests hold the three promises that makes:

* a partial request returns, bitwise, the full evaluation's values of
  exactly the requested performances — on every template, dense and
  sparse, warm and cold, scalar and batched — and runs only the
  analyses they need;
* the evaluator cache answers a request only from an entry that covers
  it, simulates a point again for the union otherwise (one simulation,
  one miss, one DEBUG record), and pool workers' cache writes fold into
  the parent exactly as the serial run would have made them;
* a failed measurement voids only the requested performances.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.circuit.batch as batch_module
import repro.evaluation.measure as measure_module
from repro.circuit.ac import AcSystem
from repro.circuits import CIRCUITS
from repro.circuits.base import DEAD_CIRCUIT_PERFORMANCES
from repro.errors import ExtractionError
from repro.evaluation import Evaluator
from repro.spec.operating import (find_worst_case_operating_points,
                                  group_by_theta, spec_key)
from repro.yieldsim import BatchExecutor, ExecutionConfig

_GROUPS: dict = {}
_CASES: dict = {}


def _groups(name):
    """The template's corner groups at its initial design,
    ``[(theta, request)]``, as the verification Monte-Carlo forms them
    (found once, on the template's default backend)."""
    if name not in _GROUPS:
        template = CIRCUITS[name]()
        d = template.initial_design()
        s0 = template.statistical_space.nominal()
        theta_wc = find_worst_case_operating_points(
            lambda theta: template.evaluate(d, s0, theta),
            template.specs, template.operating_range)
        specs = {spec_key(spec): spec for spec in template.specs}
        _GROUPS[name] = [
            (dict(theta_wc[keys[0]]), template.requested_performances(
                {specs[k].performance for k in keys}))
            for keys in group_by_theta(theta_wc,
                                       template.operating_range).values()]
    return _GROUPS[name]


def _case(name, backend, warm):
    """A template (shared across examples: every result is a pure
    function of its inputs), its initial design and its corner groups."""
    key = (name, backend, warm)
    if key not in _CASES:
        template = CIRCUITS[name]()
        template.linsolve = backend
        template.warm_dc = warm
        _CASES[key] = template, template.initial_design(), _groups(name)
    return _CASES[key]


def _dead(template):
    return {p.name: DEAD_CIRCUIT_PERFORMANCES.get(p.name, 0.0)
            for p in template.performances}


def _assert_requests_match_full(name, backend, warm, batched, seed, pick,
                                n_rows=2):
    """Every corner group's request, and every single performance (at
    the group ``pick`` selects), equals the full evaluation bitwise on
    exactly its keys."""
    template, d, groups = _case(name, backend, warm)
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(template.statistical_space.dim)
            for _ in range(n_rows)]
    single_theta = groups[pick % len(groups)][0]
    requests = groups + [(single_theta, (p.name,))
                         for p in template.performances]
    full = {}
    for theta, request in requests:
        tkey = tuple(sorted(theta.items()))
        if tkey not in full:
            full[tkey] = [template.evaluate(d, row, theta) for row in rows]
        if batched:
            partial = template.evaluate_batch(d, rows, theta, request)
        else:
            partial = [template.evaluate(d, row, theta, request)
                       for row in rows]
        for j, (whole, part) in enumerate(zip(full[tkey], partial)):
            assert not isinstance(part, BaseException), part
            assert list(part) == list(request), (j, request)  # no extras
            if whole == _dead(template):
                continue  # a failure the narrower request may not hit
            for performance in request:
                assert part[performance] == whole[performance], \
                    (j, theta, request, performance)


class TestPartialRequestsEqualTheFullEvaluation:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", ["miller", "folded-cascode", "ota"])
    @given(warm=st.booleans(), batched=st.booleans(),
           seed=st.integers(0, 2 ** 20), pick=st.integers(0, 3))
    @settings(max_examples=3, deadline=None)
    def test_small_templates(self, name, backend, warm, batched, seed,
                             pick):
        _assert_requests_match_full(name, backend, warm, batched, seed,
                                    pick)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    @given(seed=st.integers(0, 2 ** 20), pick=st.integers(0, 3))
    @settings(max_examples=1, deadline=None)
    def test_two_stage_array_sparse(self, warm, batched, seed, pick):
        _assert_requests_match_full("two-stage-array", "sparse", warm,
                                    batched, seed, pick)

    def test_two_stage_array_dense(self):
        """One fixed case: a dense solve of the 508-unknown array costs
        ~8 ms, so this path gets no random search."""
        _assert_requests_match_full("two-stage-array", "dense", True, True,
                                    seed=5, pick=1)


def _count(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function or method)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestExtractionRunsOnlyWhatTheRequestNeeds:
    @pytest.fixture
    def counts(self, monkeypatch):
        return {
            "assemble": _count(monkeypatch, AcSystem, "__init__"),
            "row_systems": _count(monkeypatch, batch_module._RowDCResult,
                                  "ac_systems"),
            "sweep": _count(monkeypatch, measure_module,
                            "unity_gain_frequency"),
            "warm": _count(monkeypatch, measure_module,
                           "warm_unity_crossing"),
            "gains": _count(monkeypatch, measure_module,
                            "shared_matrix_transfers"),
        }

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("request_, needs", [
        (("sr", "power"), set()),
        (("a0", "cmrr"), {"gains"}),
        (("ft",), {"gains", "search"}),
    ])
    def test_analyses_per_request(self, counts, batched, request_, needs):
        template = CIRCUITS["folded-cascode"]()
        template.warm_dc = False  # no anchor measurements in the counts
        d = template.initial_design()
        theta = template.operating_range.nominal()
        rows = [np.random.default_rng(k).standard_normal(
            template.statistical_space.dim) for k in range(3)]
        if batched:
            values = template.evaluate_batch(d, rows, theta, request_)
        else:
            values = [template.evaluate(d, row, theta, request_)
                      for row in rows]
        assert all(list(v) == list(request_) for v in values)
        systems = len(counts["assemble"]) + len(counts["row_systems"])
        assert (systems > 0) == bool(needs)
        assert (len(counts["gains"]) > 0) == ("gains" in needs)
        searches = len(counts["sweep"]) + len(counts["warm"])
        assert (searches > 0) == ("search" in needs)


class TestFailureDomain:
    """A failed measurement voids only the requested performances."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_ft_failure_spares_a_request_without_ft(self, monkeypatch,
                                                    batched):
        template = CIRCUITS["miller"]()
        d = template.initial_design()
        theta = template.operating_range.nominal()
        rows = [np.random.default_rng(k).standard_normal(
            template.statistical_space.dim) for k in range(3)]
        healthy = [template.evaluate(d, row, theta) for row in rows]

        def raising(*args, **kwargs):
            raise ExtractionError("no unity-gain crossing (injected)")

        monkeypatch.setattr(measure_module, "unity_gain_frequency",
                            raising)
        monkeypatch.setattr(measure_module, "warm_unity_crossing", raising)

        def run(request):
            if batched:
                return template.evaluate_batch(d, rows, theta, request)
            return [template.evaluate(d, row, theta, request)
                    for row in rows]

        spared = ("a0", "sr", "power")
        for before, after in zip(healthy, run(spared)):
            assert after == {name: before[name] for name in spared}
        dead = _dead(template)
        assert run(None) == [dead] * len(rows)
        assert run(("ft", "sr")) == [{"ft": dead["ft"], "sr": dead["sr"]}
                                     ] * len(rows)

    def test_lenient_failure_record_covers_the_request(self):
        """Under the lenient fault policy a count-as-fail evaluation
        returns NaN for the requested performances only."""
        from repro.runtime import (FaultInjectingEvaluator, FaultPolicy,
                                   FaultTolerantEvaluator)

        template = CIRCUITS["miller"]()
        guarded = FaultTolerantEvaluator(  # every attempt fails
            FaultInjectingEvaluator(Evaluator(template), rate=1.0),
            FaultPolicy(), fail_mode="nan")
        d = template.initial_design()
        s = template.statistical_space.nominal()
        theta = template.operating_range.nominal()
        record = guarded.evaluate(d, s, theta, ("sr", "ft"))
        assert list(record) == ["ft", "sr"]
        assert all(np.isnan(v) for v in record.values())
        assert list(guarded.evaluate(d, s, theta)) == \
            [p.name for p in template.performances]


def _miller_points(n):
    template = CIRCUITS["miller"]()
    d = template.initial_design()
    rng = np.random.default_rng(17)
    rows = [rng.standard_normal(template.statistical_space.dim)
            for _ in range(n)]
    return template, d, rows


def _counters(evaluator):
    return (evaluator.simulation_count, evaluator.request_count,
            evaluator.cache_hits, evaluator.cache_misses)


def _cache(evaluator):
    return dict(evaluator._cache)


class TestCacheRule:
    def test_a_request_hits_only_an_entry_that_covers_it(self):
        template, d, rows = _miller_points(1)
        theta = template.operating_range.nominal()
        full = template.evaluate(d, rows[0], theta)
        ev = Evaluator(template)
        assert ev.evaluate(d, rows[0], theta, ["sr"]) == {"sr": full["sr"]}
        assert ev.evaluate(d, rows[0], theta, ["sr"]) == {"sr": full["sr"]}
        assert _counters(ev) == (1, 2, 1, 1)
        # Not covered: one simulation of the union, returning the request.
        assert ev.evaluate(d, rows[0], theta, ["ft"]) == {"ft": full["ft"]}
        assert _counters(ev) == (2, 3, 1, 2)
        [(values, measured)] = _cache(ev).values()
        assert values == {"ft": full["ft"], "sr": full["sr"]}
        assert measured == {"ft", "sr"}
        assert ev.evaluate(d, rows[0], theta, ["sr", "ft"]) == \
            {"ft": full["ft"], "sr": full["sr"]}
        assert _counters(ev) == (2, 4, 2, 2)
        # A full request needs a full entry; a full entry covers anything.
        assert ev.evaluate(d, rows[0], theta) == full
        assert ev.evaluate(d, rows[0], theta, ["a0"]) == {"a0": full["a0"]}
        assert _counters(ev) == (3, 6, 3, 3)
        assert _cache(ev)[ev._key(d, rows[0], theta)] == (full, None)

    def test_no_entry_holds_an_unmeasured_performance(self):
        template, d, rows = _miller_points(3)
        theta = template.operating_range.nominal()
        ev = Evaluator(template)
        ev.evaluate_batch(d, rows, theta, ("pm",))
        ev.evaluate(d, rows[0], theta, ("power",))
        for values, measured in _cache(ev).values():
            assert set(values) == measured

    def test_resimulation_is_logged_with_what_the_entry_lacked(self,
                                                               caplog):
        template, d, rows = _miller_points(1)
        theta = template.operating_range.nominal()
        ev = Evaluator(template)
        with caplog.at_level(logging.DEBUG,
                             logger="repro.evaluation.evaluator"):
            ev.evaluate(d, rows[0], theta, ["sr"])
            ev.evaluate(d, rows[0], theta, ["sr"])
            assert caplog.records == []
            ev.evaluate(d, rows[0], theta, ["pm", "ft", "sr"])
            ev.evaluate(d, rows[0], theta)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.evaluation.evaluator"]
        assert messages == [
            "miller: cached point lacks ft, pm; simulating it again",
            "miller: cached point lacks a0, power; simulating it again"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

    def test_batch_replicates_the_serial_loop(self):
        """Rows with a partial entry, a full entry, none, and a
        duplicate: values, counters and cache contents of one batched
        call equal the ``evaluate`` loop's."""
        template, d, rows = _miller_points(5)
        theta = template.operating_range.nominal()
        batch_rows = rows + [rows[0]]

        def primed():
            ev = Evaluator(template)
            ev.evaluate(d, rows[0], theta, ["sr"])
            ev.evaluate(d, rows[1], theta, ["sr", "a0"])
            ev.evaluate(d, rows[2], theta)
            return ev

        serial, batched = primed(), primed()
        expected = [serial.evaluate(d, row, theta, ("a0", "ft"))
                    for row in batch_rows]
        assert batched.evaluate_batch(d, batch_rows, theta,
                                      ("a0", "ft")) == expected
        assert _counters(batched) == _counters(serial) == (7, 9, 2, 7)
        assert _cache(batched) == _cache(serial)

    def test_pooled_folding_equals_serial(self):
        """Pool workers start with empty caches; their writes fold into
        the parent as the serial run makes them: an entry the parent
        covers is a hit, one it lacks part of is one simulation and
        extends the entry."""
        template, d, rows = _miller_points(8)
        thetas = template.operating_range.corners()[:2]
        requests = [("ft",), ("sr", "power")]
        matrix = np.stack(rows)

        def run(jobs):
            ev = Evaluator(template)
            for row in rows[:4]:
                ev.evaluate(d, row, thetas[0], ["sr"])
            for row in rows[4:6]:
                ev.evaluate(d, row, thetas[0])
            outcome = BatchExecutor(ExecutionConfig(jobs=jobs,
                                                    chunk_size=3)).run(
                ev, d, thetas, matrix, requests)
            return ev, outcome

        serial, serial_out = run(1)
        pooled, pooled_out = run(2)
        assert pooled_out.backend == "process-pool"
        assert pooled_out.values == serial_out.values
        assert _counters(pooled) == _counters(serial)
        assert (serial.simulation_count, serial.cache_hits) == \
            (6 + 4 + 2 + 8, 2)
        assert _cache(pooled) == _cache(serial)
        for row in rows[:4]:
            key = serial._key(d, row, thetas[0])
            assert _cache(pooled)[key][1] == {"ft", "sr"}


class TestMonteCarloRequests:
    def test_each_corner_asks_for_its_specs_only(self, monkeypatch):
        """The verification Monte-Carlo of the folded cascode: at each
        corner the template is asked for the performances of the specs
        checked there, so only the f_t corner runs the unity-gain
        search."""
        from repro.circuits.base import OpampTemplate
        from repro.yieldsim import make_estimator

        template = CIRCUITS["folded-cascode"]()
        template.warm_dc = False  # no anchor measurements in the counts
        evaluator = Evaluator(template)
        d = template.initial_design()
        groups = _groups("folded-cascode")
        theta_wc = {spec_key(spec): theta for theta, request in groups
                    for spec in template.specs
                    if spec.performance in request}
        asked = []
        batch = OpampTemplate.evaluate_batch

        def recording(self, d, rows, theta, performances=None):
            asked.append((theta["temp"], theta["vdd"],
                          tuple(sorted(performances))))
            return batch(self, d, rows, theta, performances)

        monkeypatch.setattr(OpampTemplate, "evaluate_batch", recording)
        sweeps = _count(monkeypatch, measure_module, "unity_gain_frequency")
        result = make_estimator("mc").estimate(evaluator, d, theta_wc,
                                               n_samples=8, seed=2)
        assert sorted(asked) == sorted(
            (theta["temp"], theta["vdd"], tuple(sorted(request)))
            for theta, request in groups)
        assert len(sweeps) == 8  # one f_t per sample, at its corner only
        assert result.simulations == 8 * len(groups)
