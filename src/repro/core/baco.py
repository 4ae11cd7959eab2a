"""The BaCO autotuner: the paper's core contribution.

BaCO is a configuration recommendation–evaluation loop (Fig. 2):

1. **Initial phase** — a small design of experiments is sampled uniformly at
   random from the feasible region (through the Chain-of-Trees when known
   constraints are present) and evaluated.
2. **Learning phase** — each iteration
   a. fits a Gaussian process on the *feasible* observations (Matérn-5/2 over
      per-type distances, gamma lengthscale priors, log-transformed
      objective),
   b. fits a random-forest feasibility classifier on *all* observations
      (hidden constraints),
   c. samples the minimum-feasibility threshold ε_f,
   d. maximizes the feasibility-weighted noiseless EI by multi-start local
      search restricted to the feasible region,
   e. evaluates the proposed configuration through the compiler toolchain and
      appends the result to the history.

The class exposes switches for every design choice studied in the paper's
ablations (Fig. 8–10): permutation metric, log transforms, lengthscale
priors, local search, advanced GP fitting, feasibility model, feasibility
threshold, and the surrogate family (GP vs. RF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..models.distances import (
    CrossDistanceTensor,
    DistanceComputer,
    IncrementalDistanceTensor,
)
from ..models.gp import GaussianProcess, GPHyperparameters
from ..models.priors import GammaPrior
from ..models.random_forest import RandomForestRegressor
from ..space.parameters import (
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
)
from ..space.space import Configuration, SearchSpace
from .acquisition import AcquisitionFunction, FusedAcquisitionScorer
from .doe import default_doe_size, initial_design_queue
from .feasibility import FeasibilityModel, FeasibilityThresholdSchedule
from .local_search import (
    LocalSearchSettings,
    multistart_local_search_batch,
    pooled_local_search_batch,
)
from .result import ObjectiveResult
from .session import array_from_json, array_to_json
from .tuner import Tuner

__all__ = ["BacoSettings", "BacoTuner", "SurrogatePolicy"]


@dataclass(frozen=True)
class SurrogatePolicy:
    """Budget-adaptive surrogate refit policy.

    ``mode="exact"`` (default) reproduces the historical behavior exactly:
    every learning iteration re-runs the full multistart MAP hyper-parameter
    sweep and refactorizes the kernel from scratch.  All bit-compat
    trajectory fixtures are recorded in this mode.

    ``mode="fast"`` switches to incremental refits:

    * most iterations keep the hyper-parameters **frozen** and only extend
      the cached Cholesky factor by the new rows (O(n²) per observation);
    * every ``refit_hypers_every`` feasible observations a **warm** refit
      runs one L-BFGS-B refinement seeded from the previous optimum;
    * every ``sweep_every`` feasible observations the full multistart
      **sweep** re-runs (with the previous optimum joining the pool);
    * past ``rf_threshold`` feasible observations (when set) the GP is
      replaced by the O(n log n)-fit random-forest surrogate — the
      budget-adaptive switch for long runs where even incremental GP
      algebra grows quadratically.  The switch is a fixed count, not a
      timing: the trajectory depends only on the seed and the spec, so a
      run replays identically on any host.  The training set only grows,
      so the switch is one-way and the GP is released when it engages.

    ``pool=N`` keeps a **persistent candidate pool** of ``N`` feasible rows
    that survives across asks: instead of redrawing the full random batch
    every iteration, only the rows consumed as climb starts (or filtered out
    by the refreshed ε_f) are resampled, and the rest keep their cached
    distance columns in the companion test–train cross-distance tensor
    (:class:`~repro.models.distances.CrossDistanceTensor`), which makes pool
    predicts a pure kernel-apply whenever the model and search encodings
    agree.  The pool rides on the ``fast`` mode because its redraw pattern
    consumes a different RNG stream than the exact path's batch-per-ask
    draw.

    Spec strings round-trip through :meth:`parse` / :meth:`spec`:
    ``"exact"``, ``"fast"``,
    ``"fast,refit_every=8,sweep_every=40,rf_at=256"``, or
    ``"fast,pool=512"``.  Every option takes an integer.
    """

    mode: str = "exact"
    refit_hypers_every: int = 8
    sweep_every: int = 40
    rf_threshold: int | None = None
    pool_size: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "fast"):
            raise ValueError("surrogate policy mode must be 'exact' or 'fast'")
        if self.refit_hypers_every < 1:
            raise ValueError("refit_hypers_every must be >= 1")
        if self.sweep_every < 1:
            raise ValueError("sweep_every must be >= 1")
        if self.rf_threshold is not None and self.rf_threshold < 2:
            raise ValueError("rf_threshold must be >= 2")
        if self.pool_size is not None:
            if self.mode != "fast":
                raise ValueError("pool= requires the 'fast' policy mode")
            if self.pool_size < 2:
                raise ValueError("pool_size must be >= 2")

    @classmethod
    def parse(cls, spec: "str | SurrogatePolicy | None") -> "SurrogatePolicy":
        """Parse a policy spec string (idempotent on policy instances)."""
        if spec is None:
            return cls()
        if isinstance(spec, SurrogatePolicy):
            return spec
        parts = [part.strip() for part in str(spec).split(",") if part.strip()]
        if not parts:
            raise ValueError("empty surrogate policy spec")
        mode, options = parts[0], parts[1:]
        if mode == "exact":
            if options:
                raise ValueError("'exact' takes no options")
            return cls()
        if mode != "fast":
            raise ValueError(
                f"unknown surrogate policy {mode!r}; expected 'exact' or 'fast'"
            )
        kwargs: dict[str, Any] = {}
        keys = {
            "refit_every": "refit_hypers_every",
            "sweep_every": "sweep_every",
            "rf_at": "rf_threshold",
            "pool": "pool_size",
        }
        seen: set[str] = set()
        for option in options:
            if "=" not in option:
                raise ValueError(f"malformed policy option {option!r} (expected key=value)")
            key, _, value = option.partition("=")
            field = keys.get(key.strip())
            if field is None:
                raise ValueError(
                    f"unknown policy option {key.strip()!r}; expected one of {sorted(keys)}"
                )
            if field in seen:
                raise ValueError(f"duplicate policy option {key.strip()!r}")
            seen.add(field)
            try:
                kwargs[field] = int(value)
            except ValueError:
                raise ValueError(
                    f"policy option {key.strip()!r} must be an integer"
                ) from None
        return cls(mode="fast", **kwargs)

    def spec(self) -> str:
        """Canonical spec string (``parse(spec())`` round-trips)."""
        if self.mode == "exact":
            return "exact"
        spec = f"fast,refit_every={self.refit_hypers_every},sweep_every={self.sweep_every}"
        if self.rf_threshold is not None:
            spec += f",rf_at={self.rf_threshold}"
        if self.pool_size is not None:
            spec += f",pool={self.pool_size}"
        return spec

    def surrogate_for(self, n_train: int) -> str:
        """``"gp"`` or ``"rf"`` for a training set of ``n_train`` rows."""
        if self.mode == "fast" and self.rf_threshold is not None and n_train >= self.rf_threshold:
            return "rf"
        return "gp"

    def fit_strategy(self, n_train: int, last_sweep_n: int, last_refit_n: int) -> str:
        """The :meth:`GaussianProcess.fit_rows` strategy for the next refit."""
        if self.mode == "exact" or last_sweep_n < 2:
            return "sweep"
        if n_train - last_sweep_n >= self.sweep_every:
            return "sweep"
        if n_train - last_refit_n >= self.refit_hypers_every:
            return "warm"
        return "frozen"


def _without_log_transform(param: Parameter) -> Parameter:
    """A linear-transform clone of a numeric parameter (BaCO-- ablation)."""
    if isinstance(param, RealParameter):
        return RealParameter(param.name, param.low, param.high, default=param.default)
    if isinstance(param, IntegerParameter):
        return IntegerParameter(param.name, param.low, param.high, default=param.default)
    if isinstance(param, OrdinalParameter):
        return OrdinalParameter(param.name, param.values, default=param.default)
    raise TypeError(
        f"cannot strip the log transform from {type(param).__name__}"
    )


@dataclass
class BacoSettings:
    """All tunable design choices of BaCO (defaults match the paper)."""

    #: number of initial random configurations; None = rule-of-thumb from the budget
    doe_size: int | None = None
    #: surrogate model family: "gp" (default) or "rf" (Fig. 8 comparison)
    surrogate: str = "gp"
    #: GP kernel
    kernel: str = "matern52"
    #: semimetric for permutation parameters ("spearman" default, Fig. 9 ablation)
    permutation_metric: str = "spearman"
    #: log-transform exponential parameters and the objective (Sec. 4.1 / 4.2)
    use_transformations: bool = True
    #: gamma priors on the GP lengthscales (Sec. 3.2)
    use_lengthscale_priors: bool = True
    #: multistart L-BFGS hyper-parameter fitting (vs. best-of-prior-samples)
    advanced_gp_fitting: bool = True
    #: use the noise-free EI variant (Sec. 3.3)
    noiseless_ei: bool = True
    #: optimize the acquisition with local search (vs. best-of-random-batch)
    use_local_search: bool = True
    #: model hidden constraints with the RF feasibility classifier (Sec. 4.2)
    use_feasibility_model: bool = True
    #: apply the random minimum-feasibility threshold ε_f
    use_feasibility_threshold: bool = True
    #: local-search settings
    n_random_samples: int = 256
    n_local_search_starts: int = 5
    max_local_search_steps: int = 32
    #: feasibility model / threshold settings
    feasibility_trees: int = 24
    epsilon_zero_probability: float = 0.3
    epsilon_max: float = 0.8
    #: GP fitting effort
    gp_prior_samples: int = 16
    gp_refined_starts: int = 2
    gp_max_iterations: int = 25
    #: RF surrogate settings (when surrogate == "rf")
    rf_trees: int = 32
    #: surrogate refit policy spec ("exact" default; see :class:`SurrogatePolicy`)
    surrogate_policy: str = "exact"

    def __post_init__(self) -> None:
        if self.surrogate not in ("gp", "rf"):
            raise ValueError("surrogate must be 'gp' or 'rf'")
        SurrogatePolicy.parse(self.surrogate_policy)  # validate the spec

    @classmethod
    def baco_minus_minus(cls) -> "BacoSettings":
        """The restricted BaCO-- variant used in Fig. 8."""
        return cls(
            use_transformations=False,
            use_lengthscale_priors=False,
            use_local_search=False,
            permutation_metric="naive",
            advanced_gp_fitting=False,
        )


class BacoTuner(Tuner):
    """Bayesian Compiler Optimization autotuner."""

    name = "BaCO"

    def __init__(
        self,
        space: SearchSpace,
        settings: BacoSettings | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, seed=seed)
        self.settings = settings or BacoSettings()
        self._model_space = self._prepare_model_space(space, self.settings)
        self._feasibility = FeasibilityModel(
            space, n_trees=self.settings.feasibility_trees, rng=self._rng
        ) if self.settings.use_feasibility_model else None
        self._epsilon_schedule = FeasibilityThresholdSchedule(
            zero_probability=self.settings.epsilon_zero_probability,
            max_threshold=self.settings.epsilon_max,
            enabled=self.settings.use_feasibility_threshold,
        )
        # Shared encoding layer: one distance computer (and encoder) reused
        # by every per-iteration GP instance, plus per-observation caches
        # maintained by _observe() so the learning loop never re-encodes or
        # re-copies the history.
        self._model_distance = DistanceComputer(self._model_space.parameters)
        self._gp_distance_cache = IncrementalDistanceTensor(self._model_distance)
        self._space_encoder = space.encoder
        self._space_rows_all: list[np.ndarray] = []
        self._space_rows_feasible: list[np.ndarray] = []
        self._feasible_values: list[float] = []
        self._feasible_flags: list[bool] = []
        # Surrogate refit policy ("exact" fits a fresh GP with a full sweep
        # every iteration; "fast" reuses _fast_gp across iterations with
        # incremental Cholesky extension and warm-started hyper fits).
        self._policy = SurrogatePolicy.parse(self.settings.surrogate_policy)
        self._cross_distance = CrossDistanceTensor(self._model_distance)
        self._neighbour_cache: dict[bytes, np.ndarray] = {}
        self._reset_policy_state()
        # The cross tensor measures distances in the *model* encoding; it can
        # only stand in for pool-row distances when both encoders agree on
        # every warp (false under e.g. the no-transformations ablation).
        self._shared_model_encoding = (
            self._model_distance.encoder.signature() == self._space_encoder.signature()
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _prepare_model_space(space: SearchSpace, settings: BacoSettings) -> SearchSpace:
        """Clone the space with the configured permutation metric / transforms.

        The *model* space only affects distances inside the surrogate; the
        original space is still used for sampling and constraint handling, so
        both always agree on which configurations are feasible.  Parameters
        are immutable, so untouched ones are shared with the original space
        rather than deep-copied.
        """
        parameters: list[Parameter] = []
        for param in space.parameters:
            if isinstance(param, PermutationParameter):
                parameters.append(
                    PermutationParameter(
                        param.name,
                        param.n_elements,
                        metric=settings.permutation_metric,
                        default=param.default,
                    )
                )
            elif (
                not settings.use_transformations
                and getattr(param, "transform", "linear") == "log"
            ):
                parameters.append(_without_log_transform(param))
            else:
                parameters.append(param)
        # constraints are irrelevant for distance computations
        return SearchSpace(parameters, constraints=[], build_chain_of_trees=False)

    def set_surrogate_policy(self, policy: "str | SurrogatePolicy") -> None:
        """Install a surrogate refit policy (spec string or instance).

        Resets the fast-path state; call before :meth:`start` / ``tune`` (the
        policy is part of the tuner configuration, not per-run state).
        """
        self._policy = SurrogatePolicy.parse(policy)
        self._reset_policy_state()

    @property
    def surrogate_policy(self) -> SurrogatePolicy:
        return self._policy

    def _reset_policy_state(self) -> None:
        """Drop the fast-policy GP and every acquisition hot-path cache."""
        self._fast_gp: GaussianProcess | None = None
        self._policy_state: dict[str, Any] = {
            "last_sweep_n": 0,
            "last_refit_n": 0,
            "hypers": None,
        }
        self._restored_chol_base_n = 0
        # Acquisition hot-path caches: the persistent candidate pool
        # (space-encoder rows), the indices due a resample before the next
        # ask, and the pool↔train cross-distance tensor serve pooled fast
        # policies only; the cross-ask neighbour-matrix cache serves the
        # climb in every mode.
        self._candidate_pool: np.ndarray | None = None
        self._pool_refill: list[int] = []
        self._cross_distance.reset()
        self._neighbour_cache.clear()

    def _make_surrogate(self, kind: str | None = None) -> GaussianProcess | RandomForestRegressor:
        if (kind or self.settings.surrogate) == "rf":
            return RandomForestRegressor(n_trees=self.settings.rf_trees, rng=self._rng)
        return GaussianProcess(
            self._model_space.parameters,
            kernel=self.settings.kernel,
            lengthscale_prior=GammaPrior(2.0, 2.0) if self.settings.use_lengthscale_priors else None,
            log_transform_output=self.settings.use_transformations,
            n_prior_samples=self.settings.gp_prior_samples,
            n_refined_starts=self.settings.gp_refined_starts,
            max_optimizer_iterations=self.settings.gp_max_iterations,
            advanced_fit=self.settings.advanced_gp_fitting,
            rng=self._rng,
            distance_computer=self._model_distance,
        )

    # ------------------------------------------------------------------
    def _reset_state(self, budget: int) -> None:
        super()._reset_state(budget)
        self._gp_distance_cache.reset()
        self._space_rows_all.clear()
        self._space_rows_feasible.clear()
        self._feasible_values.clear()
        self._feasible_flags.clear()
        self._reset_policy_state()

    def _plan(self, budget: int) -> None:
        doe_size = self.settings.doe_size or default_doe_size(self.space, budget)
        self._doe_queue = initial_design_queue(self.space, doe_size, budget, self._rng)

    def _observe(
        self,
        configurations: Sequence[Mapping[str, Any]],
        results: Sequence[ObjectiveResult],
    ) -> None:
        """Keep the encoded-row caches in step with the recorded history.

        The batch is encoded with one ``encode_batch`` per encoder; its
        feasible observations extend the incremental train-train distance
        tensor with a single append, so the next GP fit starts from a fully
        built Gram input.  Block assembly is bit-identical to appending the
        rows one at a time, so a restore (one batch of the whole history)
        rebuilds exactly the caches the told-one-by-one run holds.
        """
        rows = self._space_encoder.encode_batch(configurations)
        flags = [result.feasible for result in results]
        self._space_rows_all.extend(rows)
        self._feasible_flags.extend(flags)
        feasible = [i for i, flag in enumerate(flags) if flag]
        if feasible:
            self._space_rows_feasible.extend(rows[feasible])
            self._feasible_values.extend(results[i].value for i in feasible)
            self._gp_distance_cache.append(
                self._model_distance.encoder.encode_batch(
                    [configurations[i] for i in feasible]
                )
            )

    # ------------------------------------------------------------------
    def _propose(self, k: int, pending_keys: set[tuple]) -> list[tuple[Configuration, str]]:
        proposals: list[tuple[Configuration, str]] = []
        while self._doe_queue and len(proposals) < k:
            proposals.append((self._doe_queue.popleft(), "initial"))
        need = k - len(proposals)
        if need > 0:
            extra_exclude = set(pending_keys)
            extra_exclude.update(self.space.freeze(c) for c, _ in proposals)
            for config in self._recommend_batch(need, extra_exclude):
                proposals.append((config, "learning"))
        return proposals

    # ------------------------------------------------------------------
    def _recommend_batch(self, k: int, extra_exclude: set[tuple]) -> list[Configuration]:
        """``k`` learning-phase recommendations from one surrogate fit.

        The surrogate is fitted once and the batched acquisition maximizer
        returns the top-``k`` distinct configurations; ``extra_exclude``
        (in-flight suggestions) is honoured alongside the evaluated set.
        With ``k == 1`` and no in-flight work this is exactly the historical
        per-iteration recommendation, RNG draw for RNG draw.
        """
        exclude = self._evaluated_keys | extra_exclude
        values = self._feasible_values
        profiler = self.phase_profiler

        # nothing told back yet (e.g. ask(n) straight after start with n
        # beyond the DoE): skip the feasibility fit — vstack of zero rows is
        # an error — and let the too-few-values guard below go random
        if self._feasibility is not None and self._space_rows_all:
            with profiler.phase("fit"):
                self._feasibility.fit_rows(
                    np.vstack(self._space_rows_all), self._feasible_flags
                )

        # Not enough feasible data to fit the surrogate: keep exploring randomly.
        if len(values) < 2 or len(set(values)) < 2:
            return self._random_fallback_batch(k, exclude)

        surrogate_kind = self.settings.surrogate
        if surrogate_kind == "gp":
            # budget-adaptive switch: past the policy threshold the GP's
            # (even incremental) quadratic algebra loses to the RF surrogate
            surrogate_kind = self._policy.surrogate_for(len(values))
        if surrogate_kind == "rf":
            # n only grows, so the GP is never fitted again: release it
            # rather than carry its factor through every snapshot and reload
            self._fast_gp = None
            if self.settings.use_transformations and min(values) <= 0:
                # log targets need positive values — the GP's fit_rows
                # rejects the same data and takes the same fallback
                return self._random_fallback_batch(k, exclude)
            with profiler.phase("fit"):
                predict_rows, best = self._fit_rf(values)
        else:
            if len(self._gp_distance_cache) != len(values):
                # programming error (e.g. an _observe override skipping
                # super()), not a numerical failure: crash rather than let
                # _fit_gp's fallback silently degrade BaCO to random search
                raise RuntimeError(
                    f"incremental distance cache holds {len(self._gp_distance_cache)} "
                    f"rows but there are {len(values)} feasible observations"
                )
            with profiler.phase("fit"):
                gp = self._fit_gp(values)
            if gp is None:
                return self._random_fallback_batch(k, exclude)
            predict_rows = self._gp_predictor(gp)
            best = float(gp.to_model_scale(min(values)))
        acquisition = AcquisitionFunction(
            predict_rows,
            best,
            feasibility_model=self._feasibility,
            feasibility_threshold=self._epsilon_schedule.sample(self._rng),
            profiler=profiler,
        )

        settings = LocalSearchSettings(
            n_random_samples=self.settings.n_random_samples,
            n_starts=self.settings.n_local_search_starts,
            max_steps=self.settings.max_local_search_steps if self.settings.use_local_search else 0,
        )
        if self._policy.pool_size is not None and surrogate_kind == "gp":
            ranked = self._pooled_search(acquisition, settings, exclude, k)
        else:
            ranked = multistart_local_search_batch(
                self.space,
                acquisition.evaluate_rows,
                self._rng,
                settings=settings,
                exclude=exclude,
                k=k,
                neighbour_cache=self._neighbour_cache,
                profiler=profiler,
            )
        chosen = [config for config, value in ranked if np.isfinite(value)]
        return self._random_fallback_batch(k, exclude, chosen)

    def _pooled_search(
        self,
        acquisition: AcquisitionFunction,
        settings: LocalSearchSettings,
        exclude: set[tuple],
        k: int,
    ) -> list[tuple[Configuration, float]]:
        """One ask over the persistent candidate pool (``pool=N`` policies).

        The pool lifecycle implements lazy invalidation: the first ask draws
        ``pool_size`` feasible rows, later asks resample only the slots the
        previous ask consumed as climb starts or found dead under its ε_f
        (acquisition ``-inf``).  When the model and search encodings agree the
        pool's test–train distance columns are maintained alongside — new
        observations append column blocks, resampled slots recompute their
        row — so priming the pool through the surrogate is a pure
        kernel-apply with no distance computation.
        """
        profiler = self.phase_profiler
        pool_size = self._policy.pool_size
        refreshed: list[int] = []
        full_redraw = False
        with profiler.phase("sample"):
            if self._candidate_pool is None or len(self._candidate_pool) != pool_size:
                self._candidate_pool = np.array(
                    self.space.sample_rows(self._rng, pool_size), copy=True
                )
                self._pool_refill = []
                full_redraw = True
            elif self._pool_refill:
                refreshed = sorted(set(self._pool_refill))
                self._candidate_pool[refreshed] = self.space.sample_rows(
                    self._rng, len(refreshed)
                )
                self._pool_refill = []
        pool = self._candidate_pool

        cross_view = None
        if self._shared_model_encoding:
            cross = self._cross_distance
            train_rows = self._gp_distance_cache.rows
            if full_redraw or cross.n_pool != len(pool):
                cross.set_pool(pool, train_rows)
            else:
                if len(cross) < len(train_rows):
                    cross.extend_train(train_rows[len(cross) :])
                if refreshed:
                    cross.refresh_pool_rows(refreshed, pool[refreshed], train_rows)
            cross_view = cross.tensor

        scorer = FusedAcquisitionScorer(acquisition)
        pool_values = scorer.prime_pool(pool, cross_distance=cross_view)
        ranked, consumed = pooled_local_search_batch(
            self.space,
            scorer.score_rows,
            pool,
            pool_values,
            settings=settings,
            exclude=exclude,
            k=k,
            neighbour_cache=self._neighbour_cache,
            profiler=profiler,
        )
        # Slots to resample before the next ask: consumed starts (their rows
        # were either proposed or climbed away from) plus everything the
        # current ε_f filtered out — the next ε is redrawn, so dead rows are
        # stale, not permanently infeasible.
        stale = np.nonzero(~np.isfinite(pool_values))[0]
        self._pool_refill = sorted({*(int(i) for i in consumed), *(int(i) for i in stale)})
        return ranked

    def _fit_gp(self, values: list[float]) -> GaussianProcess | None:
        """Fit the GP surrogate, incrementally when the policy allows it.

        ``fast`` keeps one instance across iterations so its cached Cholesky
        factor can be extended row by row, with the strategy per
        :meth:`SurrogatePolicy.fit_strategy`.  ``exact`` starts from a fresh
        GP every iteration: with no hyper-parameters the strategy is a cold
        ``"sweep"``, the historical full refit, RNG draw for RNG draw.  Any
        numerical failure drops the cached state and reports ``None``
        (random-fallback iteration — the next call rebuilds from a full
        sweep).
        """
        n = len(values)
        rows = self._gp_distance_cache.rows
        tensor = self._gp_distance_cache.tensor
        gp = self._fast_gp if self._policy.mode == "fast" else None
        if gp is None:
            gp = self._make_surrogate("gp")
        st = self._policy_state
        if gp.hyperparameters is None:
            strategy = "sweep"
        else:
            strategy = self._policy.fit_strategy(n, st["last_sweep_n"], st["last_refit_n"])
        try:
            if strategy == "frozen":
                if gp._chol_n < n:
                    gp.extend_cholesky(rows, tensor)
                gp.refit_targets(values)
            else:
                warm = None
                if gp.hyperparameters is not None:
                    warm = gp.hyperparameters.to_vector()
                gp.fit_rows(
                    rows, values, distance_tensor=tensor,
                    hyper_strategy=strategy, warm_start=warm,
                )
                st["last_refit_n"] = n
                if strategy == "sweep":
                    st["last_sweep_n"] = n
                hp = gp.hyperparameters
                # raw values, not the log-vector: exp(log(x)) is not
                # bit-exact, and restore must rebuild the identical factor
                st["hypers"] = {
                    "lengthscales": [float(x) for x in hp.lengthscales],
                    "outputscale": float(hp.outputscale),
                    "noise_variance": float(hp.noise_variance),
                }
        except (ValueError, np.linalg.LinAlgError):
            self._fast_gp = None
            return None
        self._fast_gp = gp
        return gp

    # ------------------------------------------------------------------
    # snapshot / restore of the fast-policy state
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        state = super()._state_dict()
        if self._policy.mode != "exact":
            gp = self._fast_gp
            payload = dict(self._policy_state)
            payload["spec"] = self._policy.spec()
            payload["chol_base_n"] = (
                gp._chol_base_n if gp is not None and gp.hyperparameters is not None else 0
            )
            if self._policy.pool_size is not None:
                # the pool rows themselves must be snapshotted — their RNG
                # draws are already consumed, so a resumed run cannot redraw
                # them without diverging from the original stream
                payload["pool_rows"] = (
                    None
                    if self._candidate_pool is None
                    else array_to_json(self._candidate_pool)
                )
                payload["pool_refill"] = [int(i) for i in self._pool_refill]
            state["surrogate_policy"] = payload
        return state

    def _load_state_dict(self, state: Mapping[str, Any]) -> None:
        super()._load_state_dict(state)
        payload = state.get("surrogate_policy")
        if payload is not None:
            spec = payload.get("spec")
            if spec is not None:
                self._policy = SurrogatePolicy.parse(spec)
            self._policy_state = {
                "last_sweep_n": int(payload.get("last_sweep_n", 0)),
                "last_refit_n": int(payload.get("last_refit_n", 0)),
                "hypers": payload.get("hypers"),
            }
            self._restored_chol_base_n = int(payload.get("chol_base_n", 0))
            pool_rows = payload.get("pool_rows")
            self._candidate_pool = (
                None if pool_rows is None else array_from_json(pool_rows)
            )
            self._pool_refill = [int(i) for i in payload.get("pool_refill", [])]

    def _post_restore(self) -> None:
        """Rebuild the fast-policy GP so a resumed run replays bit-exactly.

        The snapshot records the hyper-parameters and how many rows the last
        *full* factorization covered (``chol_base_n``).  Refactorizing those
        rows with frozen hyper-parameters reproduces the original factor
        exactly (deterministic linalg on identical inputs); the rows beyond
        it are re-extended one at a time by the next :meth:`_fit_gp`,
        the same per-row arithmetic the original run performed.
        """
        if self._policy.mode == "exact":
            return
        if (
            self._candidate_pool is not None
            and self._shared_model_encoding
            and len(self._feasible_values) >= 2
        ):
            # rebuild the pool's cross-distance cache from the replayed
            # history; block assembly is bit-identical to a fresh pairwise
            # computation, so the resumed predicts match the original run
            self._cross_distance.set_pool(
                self._candidate_pool, self._gp_distance_cache.rows
            )
        st = self._policy_state
        hypers = st.get("hypers")
        base_n = self._restored_chol_base_n
        if hypers is None or base_n < 2:
            self._fast_gp = None
            return
        if base_n > len(self._feasible_values):
            raise ValueError(
                f"surrogate policy state covers {base_n} observations but the "
                f"restored history holds {len(self._feasible_values)}"
            )
        gp = self._make_surrogate("gp")
        gp.hyperparameters = GPHyperparameters(
            lengthscales=np.asarray(hypers["lengthscales"], dtype=float),
            outputscale=float(hypers["outputscale"]),
            noise_variance=float(hypers["noise_variance"]),
        )
        gp.fit_rows(
            self._gp_distance_cache.rows[:base_n],
            self._feasible_values[:base_n],
            distance_tensor=self._gp_distance_cache.tensor[:, :base_n, :base_n],
            hyper_strategy="frozen",
        )
        self._fast_gp = gp

    def _random_fallback_batch(
        self,
        k: int,
        exclude: set[tuple],
        chosen: Sequence[Configuration] = (),
    ) -> list[Configuration]:
        """Top ``chosen`` up to ``k`` random feasible configurations.

        Each fill avoids ``exclude`` and everything chosen so far when one
        64-row draw allows it; otherwise it takes one give-up draw.
        """
        chosen = list(chosen)
        while len(chosen) < k:
            taken = exclude | {self.space.freeze(c) for c in chosen}
            config = self.space.sample_unseen(self._rng, taken, n=64)
            if config is None:
                config = self.space.sample_one(self._rng)
            chosen.append(config)
        return chosen

    # ------------------------------------------------------------------
    def _gp_predictor(self, gp: GaussianProcess):
        """Bind the fitted GP to the acquisition's ``predict_rows`` protocol.

        When the model and search encodings agree the candidate rows flow
        straight into ``predict_rows`` (with the pool's cross-distance
        view); otherwise — e.g. the no-transformations ablation — the rows
        are decoded once and re-encoded for the model.
        """
        include_noise = not self.settings.noiseless_ei
        shared = self._shared_model_encoding
        space_encoder = self._space_encoder

        def predict_rows(rows, cross_distance):
            if not shared:
                rows = gp.encoder.encode_batch(space_encoder.decode_batch(rows))
            return gp.predict_rows(
                rows, include_noise=include_noise, cross_distance=cross_distance
            )

        return predict_rows

    def _fit_rf(self, values: list[float]):
        """Fit the RF surrogate (the Fig. 8 GP-vs-RF comparison).

        Returns the acquisition's row predictor and the incumbent on the
        model scale (log values under the transformations).  The RF consumes
        the search space's encoding, so candidate rows need no re-encoding.
        """
        targets = np.log(values) if self.settings.use_transformations else np.asarray(values, dtype=float)
        surrogate = self._make_surrogate("rf")
        surrogate.fit(np.vstack(self._space_rows_feasible), targets)

        def predict_rows(rows, cross_distance):
            return surrogate.predict_with_uncertainty(rows)

        return predict_rows, float(np.min(targets))
