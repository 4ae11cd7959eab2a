"""Tests for cheap session eviction and reload.

Covers the guarantees the service's LRU churn relies on:

* a suggestion asked before its session was evicted (and so restored into
  the re-issue queue) still accepts its ``tell``, and the finished trace
  equals a plain in-process :func:`drive` of the same session;
* an evicted session's tuner is freed by reference counting alone — no
  ``Tuner -> TuningSession`` back-reference keeps it in a cycle;
* restoring replays the whole history through ``_observe`` in one batch and
  rebuilds exactly the caches the tell-by-tell run holds;
* the packed candidate-pool codec round-trips bit-exactly, and version-1
  checkpoints with list-form pools still resume bit-identically.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baco import BacoSettings, BacoTuner
from repro.core.result import ObjectiveResult
from repro.core.session import (
    TuningSession,
    array_from_json,
    array_to_json,
    drive,
)
from repro.experiments.runner import make_session, restore_session
from repro.service import SessionRegistry, wire_decode
from repro.space.constraints import Constraint
from repro.space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.space.space import SearchSpace
from repro.workloads.registry import get_benchmark

BENCH = "hpvm_bfs"
POOLED = "fast,refit_every=4,sweep_every=8,pool=64"


def _start(name: str, **overrides) -> dict:
    request = {
        "op": "start",
        "session": name,
        "benchmark": BENCH,
        "tuner": "BaCO",
        "budget": 10,
        "seed": 5,
        "surrogate_policy": POOLED,
    }
    request.update(overrides)
    return request


def _tell_request(name: str, suggestion: dict, bench) -> dict:
    configuration = {
        k: (tuple(v) if isinstance(v, list) else v)
        for k, v in suggestion["configuration"].items()
    }
    result = bench.evaluator(configuration)
    request = {"op": "tell", "session": name, "id": suggestion["id"]}
    if result.feasible:
        request["value"] = result.value
    else:
        request["feasible"] = False
    return request


def _reference_evaluations(budget: int, seed: int, policy: str) -> list:
    bench = get_benchmark(BENCH)
    session, _ = make_session(BENCH, "BaCO", budget, seed, surrogate_policy=policy)
    drive(session, bench.evaluator)
    return session.snapshot()["history"]["evaluations"]


def _trace(history) -> dict:
    payload = history.to_dict()
    payload.pop("tuner_seconds", None)
    payload.pop("evaluation_seconds", None)
    return payload


class TestTellAfterEviction:
    def test_tell_of_a_suggestion_asked_before_eviction(self, tmp_path):
        bench = get_benchmark(BENCH)
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=1)
        assert registry.handle(_start("a"))["ok"]
        assert registry.handle(_start("b", seed=6))["ok"]
        [asked_a] = registry.handle({"op": "ask", "session": "a"})["suggestions"]
        # asking "b" evicts "a" with its suggestion still in flight
        assert registry.handle({"op": "ask", "session": "b"})["ok"]
        told = registry.handle(_tell_request("a", asked_a, bench))
        assert told["ok"], told
        assert told["index"] == 0
        # the told suggestion is not re-issued, and a second tell is refused
        assert not registry.handle(_tell_request("a", asked_a, bench))["ok"]
        while True:
            asked = registry.handle({"op": "ask", "session": "a"})
            if not asked["suggestions"]:
                break
            [suggestion] = asked["suggestions"]
            assert suggestion["id"] != asked_a["id"]
            assert registry.handle(_tell_request("a", suggestion, bench))["ok"]
        got = wire_decode(registry.handle({"op": "snapshot", "session": "a"})["snapshot"])
        assert got["history"]["evaluations"] == _reference_evaluations(10, 5, POOLED)

    def test_restored_in_flight_suggestion_accepts_tell_before_reissue(self):
        bench = get_benchmark(BENCH)
        session, _ = make_session(BENCH, "BaCO", 8, 3, surrogate_policy=POOLED)
        first, second = session.ask(2)
        payload = json.loads(json.dumps(session.snapshot()))
        restored, _ = restore_session(payload)
        # tell out of re-issue order, without asking first
        restored.tell(second.id, bench.evaluator(second.configuration))
        assert [s.id for s in restored.pending] == [first.id]
        assert restored.ask(1)[0].id == first.id
        with pytest.raises(KeyError):
            restored.tell(second.id, bench.evaluator(second.configuration))

    def test_rejected_tell_keeps_the_reissued_suggestion(self):
        session, _ = make_session(BENCH, "Uniform Sampling", 4, 3)
        [suggestion] = session.ask(1)
        restored, _ = restore_session(json.loads(json.dumps(session.snapshot())))
        with pytest.raises(TypeError):
            restored.tell(suggestion.id, 1.0)
        assert [s.id for s in restored.pending] == [suggestion.id]


class TestEvictedTunerIsFreed:
    def test_evicted_pooled_tuner_dies_without_cyclic_gc(self, tmp_path):
        bench = get_benchmark(BENCH)
        registry = SessionRegistry(sessions_dir=tmp_path, max_sessions=1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert registry.handle(_start("a"))["ok"]
            for _ in range(7):
                [suggestion] = registry.handle({"op": "ask", "session": "a"})["suggestions"]
                assert registry.handle(_tell_request("a", suggestion, bench))["ok"]
            tuner = registry._sessions["a"].session.tuner
            assert tuner._candidate_pool is not None  # the caches are built
            ref = weakref.ref(tuner)
            del tuner
            assert registry.handle(_start("b"))["ok"]  # evicts "a"
            assert "a" not in registry._sessions
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


def _mixed_space() -> SearchSpace:
    return SearchSpace(
        [
            RealParameter("alpha", 0.1, 10.0, transform="log"),
            IntegerParameter("threads", 1, 16),
            OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
            CategoricalParameter("sched", ["a", "b", "c"]),
            PermutationParameter("perm", 4),
        ],
        constraints=[Constraint("threads <= 12")],
    )


def _objective(configuration) -> ObjectiveResult:
    if configuration["sched"] == "c" and configuration["threads"] > 9:
        return ObjectiveResult(value=float("inf"), feasible=False)
    value = (
        abs(np.log(configuration["alpha"]))
        + 0.1 * configuration["threads"]
        + 0.05 * configuration["tile"]
        + 0.3 * configuration["perm"].index(0)
        + (0.5 if configuration["sched"] == "b" else 0.0)
    )
    return ObjectiveResult(value=float(value), feasible=True)


def _baco(metric: str, seed: int) -> BacoTuner:
    return BacoTuner(
        _mixed_space(),
        settings=BacoSettings(
            doe_size=4,
            permutation_metric=metric,
            surrogate_policy="fast,refit_every=3,sweep_every=6,pool=32",
            gp_prior_samples=4,
            gp_refined_starts=1,
            gp_max_iterations=8,
            n_local_search_starts=2,
            max_local_search_steps=4,
            feasibility_trees=4,
        ),
        seed=seed,
    )


class TestBatchedReplay:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_told=st.integers(min_value=0, max_value=11),
        metric=st.sampled_from(["kendall", "spearman", "hamming"]),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_batch_restore_matches_tell_by_tell_caches(self, n_told, metric, seed):
        incremental = _baco(metric, seed)
        session = incremental.start_session(12)
        for _ in range(n_told):
            [suggestion] = session.ask(1)
            session.tell(suggestion, _objective(suggestion.configuration))
        restored_tuner = _baco(metric, seed)
        restored = TuningSession.restore(
            json.loads(json.dumps(session.snapshot())), restored_tuner
        )

        def caches(tuner):
            return {
                "tensor": tuner._gp_distance_cache.tensor,
                "rows": tuner._gp_distance_cache.rows,
                "space_rows_all": np.array(tuner._space_rows_all),
                "space_rows_feasible": np.array(tuner._space_rows_feasible),
                "feasible_values": np.array(tuner._feasible_values),
                "feasible_flags": np.array(tuner._feasible_flags),
            }

        expected, got = caches(incremental), caches(restored_tuner)
        for key in expected:
            assert np.array_equal(expected[key], got[key]), key
        assert restored_tuner._evaluated_keys == incremental._evaluated_keys
        # same buffer headroom, so the first tell after a restore does not
        # reallocate the tensor where the tell-by-tell run would not
        def capacity(tuner):
            return getattr(tuner._gp_distance_cache._rows_buf, "shape", None)

        assert capacity(restored_tuner) == capacity(incremental)

        # the next ask extends / rebuilds the pool's cross-distance tensor
        [next_incremental] = session.ask(1)
        [next_restored] = restored.ask(1)
        assert next_restored.configuration == next_incremental.configuration
        assert len(restored_tuner._cross_distance) == len(incremental._cross_distance)
        assert np.array_equal(
            restored_tuner._cross_distance.tensor, incremental._cross_distance.tensor
        )


class TestPoolCodec:
    def test_round_trip_is_bit_exact(self):
        space = _mixed_space()
        rows = space.sample_rows(np.random.default_rng(0), 16)
        rows = np.vstack([rows, np.full((1, rows.shape[1]), -0.0)])
        rows[0, 0] = np.log(0.3)  # a non-integral log-warped value
        packed = json.loads(json.dumps(array_to_json(rows)))
        decoded = array_from_json(packed)
        assert decoded.dtype == np.float64 and decoded.shape == rows.shape
        assert decoded.tobytes() == np.ascontiguousarray(rows).tobytes()
        assert np.signbit(decoded[-1]).all()
        decoded[0, 0] = 1.0  # decoded arrays are writable copies

    def test_list_form_still_decodes(self):
        rows = [[0.5, -0.0], [np.log(7.0), 3.0]]
        decoded = array_from_json(rows)
        assert np.array_equal(decoded, np.array(rows))
        assert np.signbit(decoded[0, 1])

    def test_truncated_payload_is_refused(self):
        packed = array_to_json(np.ones((3, 2)))
        packed["shape"] = [4, 2]
        with pytest.raises(ValueError, match="bytes"):
            array_from_json(packed)

    def test_checkpoint_pool_is_packed(self):
        bench = get_benchmark(BENCH)
        session, _ = make_session(BENCH, "BaCO", 12, 4, surrogate_policy=POOLED)
        while len(session.history) < 7:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        payload = session.snapshot()
        assert payload["version"] == 2
        pool = payload["tuner_state"]["surrogate_policy"]["pool_rows"]
        assert set(pool) == {"shape", "f8le"}
        assert np.array_equal(array_from_json(pool), session.tuner._candidate_pool)

    def test_version_1_list_form_checkpoint_resumes_identically(self):
        bench = get_benchmark(BENCH)
        budget, seed = 14, 9
        straight, _ = make_session(BENCH, "BaCO", budget, seed, surrogate_policy=POOLED)
        drive(straight, bench.evaluator)

        session, _ = make_session(BENCH, "BaCO", budget, seed, surrogate_policy=POOLED)
        while len(session.history) < 8:
            [suggestion] = session.ask(1)
            session.tell(suggestion, bench.evaluator(suggestion.configuration))
        payload = json.loads(json.dumps(session.snapshot()))
        # rewrite as a version-1 checkpoint: the pool as nested float lists
        state = payload["tuner_state"]["surrogate_policy"]
        state["pool_rows"] = array_from_json(state["pool_rows"]).tolist()
        payload["version"] = 1
        resumed, _ = restore_session(json.loads(json.dumps(payload)))
        drive(resumed, bench.evaluator)
        assert json.dumps(_trace(resumed.history)) == json.dumps(_trace(straight.history))
