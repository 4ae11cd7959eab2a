"""End-to-end tests of the BaCO tuner and its configuration switches."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.baco import BacoSettings, BacoTuner
from repro.core.result import ObjectiveResult
from repro.space import (
    CategoricalParameter,
    Constraint,
    OrdinalParameter,
    PermutationParameter,
    SearchSpace,
)

_OPTIMUM = 3.1  # p1 == p2, order == (2, 1, 0), sched == "static", + 0.1


def _fast_settings(**overrides) -> BacoSettings:
    base = dict(
        gp_prior_samples=6,
        gp_refined_starts=1,
        gp_max_iterations=10,
        n_random_samples=64,
        n_local_search_starts=3,
        max_local_search_steps=10,
        feasibility_trees=8,
    )
    base.update(overrides)
    return BacoSettings(**base)


class TestBacoSettings:
    def test_defaults_match_paper(self):
        settings = BacoSettings()
        assert settings.surrogate == "gp"
        assert settings.permutation_metric == "spearman"
        assert settings.use_transformations
        assert settings.use_lengthscale_priors
        assert settings.noiseless_ei
        assert settings.use_feasibility_model

    def test_baco_minus_minus(self):
        settings = BacoSettings.baco_minus_minus()
        assert not settings.use_transformations
        assert not settings.use_lengthscale_priors
        assert not settings.use_local_search
        assert settings.permutation_metric == "naive"
        assert not settings.advanced_gp_fitting

    def test_invalid_surrogate(self):
        with pytest.raises(ValueError):
            BacoSettings(surrogate="xgboost")


class TestBacoTuner:
    def test_respects_budget(self, small_space, quadratic_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=0).tune(
            quadratic_objective, budget=15
        )
        assert len(history) == 15

    def test_initial_phase_then_learning(self, small_space, quadratic_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=0).tune(
            quadratic_objective, budget=15
        )
        phases = [e.phase for e in history]
        assert phases[0] == "initial"
        assert "learning" in phases
        first_learning = phases.index("learning")
        assert all(p == "initial" for p in phases[:first_learning])

    def test_finds_optimum_of_toy_problem(self, small_space, quadratic_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=1).tune(
            quadratic_objective, budget=30
        )
        assert history.best_value() == pytest.approx(_OPTIMUM, rel=0.15)

    def test_only_proposes_known_feasible_configurations(self, small_space, quadratic_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=2).tune(
            quadratic_objective, budget=20
        )
        for evaluation in history:
            assert small_space.is_feasible(evaluation.configuration)

    def test_handles_hidden_constraints(self, small_space, hidden_constraint_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=3).tune(
            hidden_constraint_objective, budget=25
        )
        assert history.best_value() < math.inf
        # the best configuration satisfies the hidden constraint p1 <= 8
        assert history.best().configuration["p1"] <= 8

    def test_avoids_reevaluating_configurations(self, small_space, quadratic_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=4).tune(
            quadratic_objective, budget=25
        )
        keys = [small_space.freeze(e.configuration) for e in history]
        # duplicates are allowed only as a rare fallback
        assert len(set(keys)) >= len(keys) - 2

    def test_beats_pure_random_search_on_average(self, small_space, quadratic_objective, rng):
        from repro.baselines.random_search import UniformSamplingTuner

        budget = 20
        baco_best = np.mean(
            [
                BacoTuner(small_space, settings=_fast_settings(), seed=s)
                .tune(quadratic_objective, budget)
                .best_value()
                for s in range(3)
            ]
        )
        random_best = np.mean(
            [
                UniformSamplingTuner(small_space, seed=s).tune(quadratic_objective, budget).best_value()
                for s in range(3)
            ]
        )
        assert baco_best <= random_best + 0.3

    def test_rf_surrogate_variant(self, small_space, quadratic_objective):
        history = BacoTuner(
            small_space, settings=_fast_settings(surrogate="rf", rf_trees=8), seed=5
        ).tune(quadratic_objective, budget=18)
        assert len(history) == 18
        assert history.best_value() < 5.0

    def test_baco_minus_minus_variant_runs(self, small_space, quadratic_objective):
        settings = BacoSettings.baco_minus_minus()
        settings.gp_prior_samples = 6
        settings.n_random_samples = 64
        history = BacoTuner(small_space, settings=settings, seed=6).tune(
            quadratic_objective, budget=15
        )
        assert len(history) == 15

    def test_explicit_doe_size(self, small_space, quadratic_objective):
        history = BacoTuner(
            small_space, settings=_fast_settings(doe_size=7), seed=7
        ).tune(quadratic_objective, budget=12)
        assert sum(1 for e in history if e.phase == "initial") == 7

    def test_budget_smaller_than_doe(self, small_space, quadratic_objective):
        history = BacoTuner(
            small_space, settings=_fast_settings(doe_size=10), seed=8
        ).tune(quadratic_objective, budget=4)
        assert len(history) == 4

    def test_invalid_budget(self, small_space, quadratic_objective):
        with pytest.raises(ValueError):
            BacoTuner(small_space, seed=0).tune(quadratic_objective, budget=0)

    def test_all_infeasible_objective_still_completes(self, small_space):
        def never_feasible(config):
            return ObjectiveResult(value=math.inf, feasible=False)

        history = BacoTuner(small_space, settings=_fast_settings(), seed=9).tune(
            never_feasible, budget=10
        )
        assert len(history) == 10
        assert history.best_value() == math.inf

    def test_permutation_metric_variants_run(self, small_space, quadratic_objective):
        for metric in ("kendall", "hamming", "naive"):
            history = BacoTuner(
                small_space, settings=_fast_settings(permutation_metric=metric), seed=10
            ).tune(quadratic_objective, budget=12)
            assert len(history) == 12

    def test_unconstrained_space(self, unconstrained_space):
        def objective(config):
            value = abs(math.log2(config["tile"]) - 3) + abs(config["threads"] - 4) + config["alpha"]
            return ObjectiveResult(value=value + 0.5)

        history = BacoTuner(unconstrained_space, settings=_fast_settings(), seed=11).tune(
            objective, budget=20
        )
        assert history.best_value() < 4.0

    def test_history_records_benchmark_name_and_seed(self, small_space, quadratic_objective):
        history = BacoTuner(small_space, settings=_fast_settings(), seed=13).tune(
            quadratic_objective, budget=8, benchmark_name="toy"
        )
        assert history.benchmark_name == "toy"
        assert history.seed == 13
        assert history.tuner_seconds >= 0.0
        assert history.evaluation_seconds >= 0.0


class TestRFSurrogateAcquisition:
    """The RF surrogate scores through the shared acquisition function."""

    def test_rf_asks_report_predict_and_ei_phases(self):
        from repro.core.session import drive
        from repro.experiments.runner import make_session

        session, bench = make_session("hpvm_bfs", "BaCO (RF surrogate)", 14, 3)
        drive(session, bench.evaluator)
        calls = session.tuner.phase_profiler.summary()["calls"]
        assert calls["predict"] > 0
        assert calls["ei"] > 0

    def test_rf_session_told_a_zero_finishes_its_budget(self):
        import warnings

        from repro.core.session import drive
        from repro.experiments.runner import make_session

        session, bench = make_session("hpvm_bfs", "BaCO (RF surrogate)", 14, 3)
        told = []

        def objective(configuration):
            # the first evaluation reports a zero runtime: log targets would
            # be -inf, so every later ask must fall back to random search
            told.append(configuration)
            return ObjectiveResult(0.0) if len(told) == 1 else bench.evaluator(configuration)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            history = drive(session, objective)
        assert len(history) == 14
        assert history.best_value() == 0.0
        assert session.tuner.phase_profiler.summary()["calls"]["predict"] == 0
