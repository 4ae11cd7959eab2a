"""Microbenchmarks for the tuner's per-iteration hot path.

Measures the three inner loops that dominate BaCO's overhead between black-box
evaluations (PAPER.md Fig. 2, Table 10 wall-clock):

* **distance_build** — building the per-dimension train-train distance tensor
  for a batch of configurations,
* **gp_fit** — one learning-phase surrogate refit after appending a single
  new observation, across the refit strategies: legacy full recompute, the
  exact-mode multistart fit, a warm-started single L-BFGS refinement, and
  the rank-1 incremental Cholesky extension (frozen hyper-parameters),
* **ei_maximization** — scoring a candidate batch with feasibility-weighted
  EI (cross distances, kernel, RF feasibility pass),
* **candidate_generation** — drawing a feasible candidate batch from a
  constrained space (leaf-matrix Chain-of-Trees gathers + batched parameter
  draws + compiled residual constraints vs. the scalar per-configuration
  rejection loop),
* **constraint_eval** — known-constraint feasibility checks for a batch of
  configurations (compiled column evaluators over encoded rows vs. one
  Python ``eval`` per constraint per configuration),
* **hard_constraint_sampling** — time-to-``n``-feasible on the synthetic
  ``hard_constraint_*`` suite (feasibility densities 1e-2 / 1e-4 / 1e-6):
  plain rejection over the full domains vs. constraint-propagation pruned
  domains (``SearchSpace.with_propagation``).  The headline row reports the
  1e-4 instance — the density the CI gate checks; at 1e-6 rejection exhausts
  its budget and the recorded time is a lower bound (``rejection_failed``),
* **end_to_end** — whole-loop ``BacoTuner.tune`` iterations/sec on a
  constrained space, exact vs fast surrogate policy.

Each section times the **legacy / scalar-reference** path — per-call feature
re-derivation from raw configuration dicts, the per-pair Kendall double loop,
per-row decision tree traversal, per-level tree walks with one weighted
``rng.choice`` per depth, per-config constraint ``eval`` — against the
**vectorized** row path (``ConfigEncoder`` rows + ``DistanceComputer.
pairwise_rows`` + batched RF + ``SearchSpace.sample_rows`` /
``feasible_mask_rows``), and reports throughput plus speedup.  Results are
written as JSON (``BENCH_tuner_hotpath.json``) to seed the performance
trajectory; run it via ``python -m repro bench``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core.acquisition import AcquisitionFunction
from ..core.feasibility import FeasibilityModel
from ..models.distances import DistanceComputer
from ..models.gp import GaussianProcess
from ..space.constraints import Constraint
from ..space.parameters import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from ..space.space import SearchSpace

__all__ = [
    "ALL_SECTIONS",
    "DEFAULT_OUTPUT",
    "hotpath_space",
    "constrained_space",
    "run_hotpath_benchmarks",
]

DEFAULT_OUTPUT = Path("BENCH_tuner_hotpath.json")


def hotpath_space(permutation_metric: str = "kendall") -> SearchSpace:
    """A representative mixed-type space for the hot-path benchmarks.

    Shaped like the paper's RISE/TACO spaces: log-warped tile sizes, an
    integer and a real knob, a categorical scheduling choice, and a loop-order
    permutation.  The permutation metric defaults to Kendall because that is
    the semimetric whose legacy implementation was a per-pair Python double
    loop (Spearman/Hamming were already matrix-form).
    """
    return SearchSpace(
        [
            OrdinalParameter("tile_x", [2, 4, 8, 16, 32, 64, 128], transform="log"),
            OrdinalParameter("tile_y", [2, 4, 8, 16, 32, 64, 128], transform="log"),
            IntegerParameter("unroll", 1, 32, transform="log"),
            RealParameter("threshold", 0.01, 10.0, transform="log"),
            CategoricalParameter("sched", ["static", "dynamic", "guided", "auto"]),
            PermutationParameter("loop_order", 6, metric=permutation_metric),
        ],
        build_chain_of_trees=False,
    )


def constrained_space() -> SearchSpace:
    """A RISE-shaped constrained space for the candidate-generation sections.

    Two Chain-of-Trees groups (tile size divisible by work-group size, capped
    products), a residual constraint over a continuous/integer pair that no
    tree can capture, and unconstrained categorical/permutation knobs — the
    same structure the paper's GPU workloads exhibit.
    """
    powers = [1, 2, 4, 8, 16, 32, 64, 128]
    return SearchSpace(
        [
            OrdinalParameter("ts0", powers, transform="log"),
            OrdinalParameter("ls0", powers[:6], transform="log"),
            OrdinalParameter("ts1", powers, transform="log"),
            OrdinalParameter("ls1", powers[:6], transform="log"),
            IntegerParameter("reps", 1, 16),
            RealParameter("eps", 0.01, 1.0, transform="log"),
            CategoricalParameter("sched", ["static", "dynamic", "guided", "auto"]),
            PermutationParameter("loop_order", 5),
        ],
        [
            Constraint("ts0 % ls0 == 0"),
            Constraint("ts0 * ls0 <= 4096"),
            Constraint("ts1 % ls1 == 0"),
            Constraint("ts1 * ls1 <= 4096"),
            Constraint("reps <= 8 or eps >= 0.25"),
        ],
    )


def _sample_configs(space: SearchSpace, n: int, seed: int) -> list[dict[str, Any]]:
    rng = np.random.default_rng(seed)
    return [{p.name: p.sample(rng) for p in space.parameters} for _ in range(n)]


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs (one warm-up)."""
    fn()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def _bench_distance_build(space: SearchSpace, n: int, repeats: int) -> dict[str, Any]:
    configs = _sample_configs(space, n, seed=7)
    computer = DistanceComputer(space.parameters)

    legacy_s = _best_of(lambda: computer.pairwise_reference(configs), repeats)

    def vectorized() -> np.ndarray:
        rows = computer.encoder.encode_batch(configs)
        return computer.pairwise_rows(rows)

    vector_s = _best_of(vectorized, repeats)
    return {
        "n_configs": n,
        "legacy_seconds": legacy_s,
        "vectorized_seconds": vector_s,
        "legacy_configs_per_sec": n / legacy_s,
        "vectorized_configs_per_sec": n / vector_s,
        "speedup": legacy_s / vector_s,
    }


def _bench_gp_fit(space: SearchSpace, n_train: int, repeats: int) -> dict[str, Any]:
    """One learning-iteration surrogate refit, across the refit strategies.

    Four variants of "a new observation arrived, update the GP":

    * **legacy** — pre-refactor shape: re-derive the full train-train tensor
      from the raw dicts, then run the full multistart MAP fit;
    * **exact** — the current exact-mode iteration: one cross-block update of
      the cached tensor buffer, then the full multistart MAP fit (this is
      what the default ``SurrogatePolicy("exact")`` pays per iteration);
    * **warm_started** — tensor update + a single L-BFGS-B refinement seeded
      from the previous optimum (``hyper_strategy="warm"``);
    * **incremental** — tensor update + rank-1 Cholesky extension + alpha
      recompute with frozen hyper-parameters (the fast policy's steady
      state — no hyper search, no factorization).

    The headline ``speedup`` is exact vs incremental: the per-iteration cost
    the fast surrogate policy removes.
    """
    configs = _sample_configs(space, n_train, seed=11)
    values = list(np.random.default_rng(12).uniform(0.5, 5.0, size=n_train))
    computer = DistanceComputer(space.parameters)
    rows = computer.encoder.encode_batch(configs)

    def make_gp() -> GaussianProcess:
        # fixed fitting effort + seed: the full-fit paths do identical
        # hyper-parameter work, so differences isolate the refit strategy
        return GaussianProcess(
            space.parameters,
            n_prior_samples=8,
            n_refined_starts=1,
            max_optimizer_iterations=10,
            rng=np.random.default_rng(13),
            distance_computer=computer,
        )

    def legacy_iteration() -> None:
        tensor = computer.pairwise_reference(configs)
        make_gp().fit_rows(rows, values, distance_tensor=tensor)

    # Steady state of the refactored loop: the tensor buffer over the first
    # n-1 observations is already cached; one iteration appends a single
    # encoded row (one cross block + O(n) buffer writes) before refitting.
    tensor_buffer = computer.pairwise_rows(rows)

    def update_tensor() -> None:
        cross = computer.pairwise_rows(rows[-1:], rows[:-1])
        tensor_buffer[:, -1:, :-1] = cross
        tensor_buffer[:, :-1, -1:] = np.swapaxes(cross, 1, 2)
        tensor_buffer[:, -1:, -1:] = computer.pairwise_rows(rows[-1:])

    def exact_iteration() -> None:
        update_tensor()
        make_gp().fit_rows(rows, values, distance_tensor=tensor_buffer)

    # a converged previous optimum to seed the warm refit from
    seed_gp = make_gp()
    seed_gp.fit_rows(rows[:-1], values[:-1], distance_tensor=tensor_buffer[:, :-1, :-1])
    warm_vector = seed_gp.hyperparameters.to_vector()

    warm_gp = make_gp()
    warm_gp.hyperparameters = seed_gp.hyperparameters

    def warm_iteration() -> None:
        update_tensor()
        warm_gp.fit_rows(
            rows, values, distance_tensor=tensor_buffer,
            hyper_strategy="warm", warm_start=warm_vector,
        )

    # frozen-hyper steady state: the factor over the first n-1 rows is
    # cached; each iteration extends it by one row and recomputes alpha
    frozen_gp = make_gp()
    frozen_gp.fit_rows(
        rows[:-1], values[:-1], distance_tensor=tensor_buffer[:, :-1, :-1]
    )
    base_cholesky = frozen_gp._cholesky

    def incremental_iteration() -> None:
        update_tensor()
        # rewind to the pre-extension factor so every repeat measures the
        # same one-row extension (references only — O(1), not timed work)
        frozen_gp._cholesky = base_cholesky
        frozen_gp._chol_n = n_train - 1
        frozen_gp.extend_cholesky(rows, tensor_buffer)
        frozen_gp.refit_targets(values)

    legacy_s = _best_of(legacy_iteration, repeats)
    exact_s = _best_of(exact_iteration, repeats)
    warm_s = _best_of(warm_iteration, repeats)
    incremental_s = _best_of(incremental_iteration, repeats)
    return {
        "n_train": n_train,
        "legacy_seconds": legacy_s,
        "exact_seconds": exact_s,
        "warm_started_seconds": warm_s,
        "incremental_seconds": incremental_s,
        "exact_fits_per_sec": 1.0 / exact_s,
        "warm_started_fits_per_sec": 1.0 / warm_s,
        "incremental_fits_per_sec": 1.0 / incremental_s,
        "legacy_speedup": legacy_s / exact_s,
        "warm_started_speedup": exact_s / warm_s,
        "speedup": exact_s / incremental_s,
    }


#: the pooled fast-family policy the end-to-end section benchmarks: sparse
#: hyper refits plus the persistent candidate pool with the cross-distance
#: cache — the full acquisition hot path
POOLED_BENCH_POLICY = "fast,refit_every=32,sweep_every=64,pool=512"


def _bench_end_to_end(budget: int, repeats: int) -> dict[str, Any]:
    """Whole-loop tuner throughput: exact vs fast vs pooled surrogate policy.

    Runs :meth:`BacoTuner.tune` on the constrained space against a synthetic
    objective (always feasible, deterministic) and reports learning-loop
    iterations per second.  This is the number the surrogate policy actually
    moves — every hot-path stage combined, including the acquisition
    maximization the refit sections exclude.

    The GP fitting effort deliberately stays at the paper defaults: the exact
    baseline *is* BaCO's per-iteration full multistart MAP refit, and scaling
    it down would understate exactly the cost the fast policies remove.  Each
    policy's per-phase wall-clock (sample / fit / predict / ei / climb, from
    the tuner's :class:`~repro.core.profiling.PhaseProfiler`) is reported
    alongside the totals, taken from the fastest repeat.
    """
    from ..core.baco import BacoSettings, BacoTuner
    from ..core.result import ObjectiveResult

    space = constrained_space()

    def objective(config: dict[str, Any]) -> ObjectiveResult:
        value = (
            abs(np.log2(config["ts0"]) - 5.0)
            + abs(np.log2(config["ts1"]) - 3.0)
            + 0.1 * config["reps"]
            + config["eps"]
            + (0.5 if config["sched"] == "auto" else 0.0)
            + 0.05 * sum(i * v for i, v in enumerate(config["loop_order"]))
        )
        return ObjectiveResult(value=float(1.0 + value))

    def settings(policy: str) -> BacoSettings:
        # acquisition-optimizer effort trimmed identically for every policy;
        # GP fitting effort kept at the paper defaults (see docstring)
        return BacoSettings(
            n_random_samples=128,
            n_local_search_starts=3,
            max_local_search_steps=16,
            feasibility_trees=16,
            surrogate_policy=policy,
        )

    def run(policy: str) -> tuple[float, dict[str, Any]]:
        best = np.inf
        phases: dict[str, Any] = {}
        for _ in range(repeats):
            tuner = BacoTuner(space, settings=settings(policy), seed=41)
            start = time.perf_counter()
            tuner.tune(objective, budget)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
                phases = tuner.phase_profiler.summary()
        return float(best), phases

    exact_s, exact_phases = run("exact")
    fast_s, fast_phases = run("fast,refit_every=8,sweep_every=40")
    pooled_s, pooled_phases = run(POOLED_BENCH_POLICY)
    return {
        "budget": budget,
        "exact_seconds": exact_s,
        "fast_seconds": fast_s,
        "pooled_seconds": pooled_s,
        "exact_iters_per_sec": budget / exact_s,
        "fast_iters_per_sec": budget / fast_s,
        "pooled_iters_per_sec": budget / pooled_s,
        "speedup": exact_s / fast_s,
        "pooled_speedup": exact_s / pooled_s,
        "pooled_policy": POOLED_BENCH_POLICY,
        "phases": {
            "exact": exact_phases,
            "fast": fast_phases,
            "pooled": pooled_phases,
        },
    }


def _bench_ei_maximization(
    space: SearchSpace, n_train: int, n_candidates: int, repeats: int
) -> dict[str, Any]:
    from scipy import stats

    train = _sample_configs(space, n_train, seed=21)
    values = list(np.random.default_rng(22).uniform(0.5, 5.0, size=n_train))
    candidates = _sample_configs(space, n_candidates, seed=23)

    gp = GaussianProcess(
        space.parameters,
        n_prior_samples=8,
        n_refined_starts=1,
        max_optimizer_iterations=10,
        rng=np.random.default_rng(24),
    )
    train_rows = space.encode_batch(train)
    gp.fit_rows(train_rows, values)

    feasibility = FeasibilityModel(space, n_trees=24, rng=np.random.default_rng(25))
    labels = [bool(b) for b in np.random.default_rng(26).random(n_train) > 0.3]
    feasibility.fit_rows(train_rows, labels)

    best_model_scale = float(gp.to_model_scale(min(values)))
    acquisition = AcquisitionFunction(
        lambda rows, cross_distance: gp.predict_rows(rows, cross_distance=cross_distance),
        best_model_scale,
        feasibility_model=feasibility,
    )
    computer = gp._distance
    hp = gp.hyperparameters
    forest = feasibility._forest

    def legacy() -> np.ndarray:
        # the pre-refactor acquisition data flow: cross distances re-derived
        # per call from the raw dicts (per-pair Kendall loop included), EI on
        # the resulting kernel, and a per-row scalar RF traversal
        cross = computer.pairwise_reference(candidates, train)
        k_star = gp._kernel(cross, hp.lengthscales, hp.outputscale)
        mean = k_star @ gp._alpha
        from scipy import linalg

        v = linalg.solve_triangular(gp._cholesky, k_star.T, lower=True)
        var = np.maximum(hp.outputscale - np.sum(v**2, axis=0), 1e-12)
        std = np.sqrt(np.maximum(var, 1e-18))
        improvement = best_model_scale - mean
        z = improvement / std
        ei = np.maximum(improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z), 0.0)
        feats = space.encode_batch(candidates)
        probability = np.clip(
            np.vstack(
                [[tree._predict_one(row) for row in feats] for tree in forest.trees_]
            ).mean(axis=0),
            0.0,
            1.0,
        )
        return ei * probability

    # encode + score from the same dicts the legacy flow starts from
    vector_s = _best_of(
        lambda: acquisition.evaluate_rows(space.encode_batch(candidates)), repeats
    )
    legacy_s = _best_of(legacy, repeats)
    return {
        "n_train": n_train,
        "n_candidates": n_candidates,
        "legacy_seconds": legacy_s,
        "vectorized_seconds": vector_s,
        "legacy_candidates_per_sec": n_candidates / legacy_s,
        "vectorized_candidates_per_sec": n_candidates / vector_s,
        "speedup": legacy_s / vector_s,
    }


def _bench_candidate_generation(
    space: SearchSpace, n: int, repeats: int
) -> dict[str, Any]:
    """Feasible batch draws: scalar rejection loop vs. row-space sampler."""

    def legacy() -> list[dict[str, Any]]:
        return space.sample_reference(np.random.default_rng(31), n)

    def vectorized() -> np.ndarray:
        return space.sample_rows(np.random.default_rng(31), n)

    legacy_s = _best_of(legacy, repeats)
    vector_s = _best_of(vectorized, repeats)
    return {
        "n_candidates": n,
        "legacy_seconds": legacy_s,
        "vectorized_seconds": vector_s,
        "legacy_candidates_per_sec": n / legacy_s,
        "vectorized_candidates_per_sec": n / vector_s,
        "speedup": legacy_s / vector_s,
    }


def _bench_constraint_eval(space: SearchSpace, n: int, repeats: int) -> dict[str, Any]:
    """Known-constraint evaluation: per-config ``eval`` vs. compiled columns.

    Both pipelines are measured on their native inputs, exactly as their
    samplers hold them.  The batch is a feasible draw — configurations a
    sampler *accepts*, each of which the pre-refactor scalar sampler pushed
    through one Python ``eval`` per constraint with a freshly rebuilt
    ``{"__builtins__": {}}`` namespace (replicated verbatim as the legacy
    reference, like ``pairwise_reference`` in the distance section).  The row
    sampler holds the same batch as raw value columns (its leaf gathers and
    batched draws produce columns directly) and applies every compiled
    evaluator once.  ``feasible_mask_rows``'s agreement with ``is_feasible``
    is pinned by tests; this section times the constraint-checking work
    itself.
    """
    from ..space.constraints import _ALLOWED_FUNCTIONS

    configs = space.sample_reference(np.random.default_rng(37), n)
    rows = space.encode_batch(configs)
    constraints = space.constraints
    evaluators = [c.compile_columns() for c in constraints]
    constrained = sorted(set().union(*(c.variables for c in constraints)))
    columns = space.encoder.value_columns(rows, names=constrained)

    def legacy_evaluate(constraint, configuration) -> bool:
        # the seed implementation of Constraint.evaluate, namespace rebuild
        # and all (the live scalar path now reuses a frozen namespace)
        namespace = dict(_ALLOWED_FUNCTIONS)
        for var in constraint.variables:
            namespace[var] = configuration[var]
        return bool(eval(constraint._code, {"__builtins__": {}}, namespace))  # noqa: S307

    def legacy() -> list[bool]:
        return [
            all(legacy_evaluate(c, config) for c in constraints) for config in configs
        ]

    def vectorized() -> np.ndarray:
        mask = np.ones(n, dtype=bool)
        for evaluator in evaluators:
            mask &= evaluator(columns)
        return mask

    verdicts = vectorized()
    assert verdicts.tolist() == legacy(), "compiled constraints diverge from eval()"
    legacy_s = _best_of(legacy, repeats)
    vector_s = _best_of(vectorized, repeats)
    return {
        "n_configs": n,
        "n_constraints": len(constraints),
        "legacy_seconds": legacy_s,
        "vectorized_seconds": vector_s,
        "legacy_configs_per_sec": n / legacy_s,
        "vectorized_configs_per_sec": n / vector_s,
        "speedup": legacy_s / vector_s,
    }


def _bench_hard_constraint_sampling(n: int, repeats: int) -> dict[str, Any]:
    """Time-to-``n``-feasible on the hard-constraint suite: reject vs propagate.

    Both paths run the same ``sample_rows`` rejection loop over the same
    residual constraints; the propagation path merely draws from the
    arc-consistent pruned domains first (``SearchSpace.with_propagation``),
    so any timing difference is the acceptance-rate gap.  The rejection
    budget is raised well past the default so the 1e-4 instance is timed
    honestly (its expected cost is ~1e4 draws per accepted sample) rather
    than dying mid-measurement; the 1e-6 instance is *expected* to exhaust
    its (reduced) budget — its wall-clock is recorded as a lower bound with
    ``rejection_failed: true`` and the reported speedup is therefore also a
    lower bound.

    The headline keys (``legacy_seconds`` / ``vectorized_seconds`` /
    ``speedup``) mirror the 1e-4 instance, the density the CI bench gate
    asserts on.
    """
    from ..workloads.hard_constraint_suite import (
        HARD_CONSTRAINT_DENSITIES,
        build_hard_constraint_space,
    )

    gated_density = "1e-4"
    densities: dict[str, Any] = {}
    for density in HARD_CONSTRAINT_DENSITIES:
        space = build_hard_constraint_space(density)
        propagating = space.with_propagation()

        prop_s = _best_of(
            lambda: propagating.sample_rows(np.random.default_rng(43), n), repeats
        )
        stats = propagating.last_sample_stats or {}

        # 1e-6 would need ~1e6 draws per accepted sample; cap its budget so
        # the (certain) failure is cheap and honestly labelled a lower bound
        budget_rounds = 2_000 if density == "1e-6" else 200_000

        def rejection() -> np.ndarray:
            return space.sample_rows(
                np.random.default_rng(43), n, max_rejection_rounds=budget_rounds
            )

        # a single timed run: the cost is dominated by millions of batched
        # draws (seconds of work at 1e-4), so repeat noise is negligible and
        # best-of-k would triple the bench wall-clock for nothing
        start = time.perf_counter()
        try:
            rejection()
            rejection_failed = False
        except RuntimeError:
            rejection_failed = True
        rejection_s = float(time.perf_counter() - start)

        densities[density] = {
            "n_candidates": n,
            "rejection_seconds": rejection_s,
            "rejection_failed": rejection_failed,
            "rejection_rounds_budget": budget_rounds,
            "propagation_seconds": prop_s,
            "propagation_candidates_per_sec": n / prop_s,
            "propagation_acceptance_rate": stats.get("acceptance_rate"),
            "propagation_rounds": stats.get("rounds"),
            "speedup": rejection_s / prop_s,
        }

    gated = densities[gated_density]
    return {
        "n_candidates": n,
        "gated_density": gated_density,
        "densities": densities,
        "legacy_seconds": gated["rejection_seconds"],
        "vectorized_seconds": gated["propagation_seconds"],
        "vectorized_candidates_per_sec": gated["propagation_candidates_per_sec"],
        "speedup": gated["speedup"],
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

#: every benchmark section, in report order
ALL_SECTIONS = (
    "distance_build",
    "gp_fit",
    "ei_maximization",
    "candidate_generation",
    "constraint_eval",
    "hard_constraint_sampling",
    "end_to_end",
)


def run_hotpath_benchmarks(
    n_distance_configs: int = 300,
    n_train: int = 80,
    n_candidates: int = 1000,
    n_generated: int = 256,
    repeats: int = 3,
    permutation_metric: str = "kendall",
    end_to_end_budget: int = 40,
    sections: "tuple[str, ...] | list[str] | None" = None,
) -> dict[str, Any]:
    """Run the requested sections (all by default), return the JSON payload.

    ``sections`` filters to a subset of :data:`ALL_SECTIONS` — used by
    ``repro bench --section`` for quick single-section runs.  A filtered
    payload is not a complete baseline; the CLI only writes the committed
    JSON for full runs.
    """
    if sections is None:
        selected = ALL_SECTIONS
    else:
        unknown = sorted(set(sections) - set(ALL_SECTIONS))
        if unknown:
            raise ValueError(
                f"unknown bench section(s) {unknown}; available: {list(ALL_SECTIONS)}"
            )
        selected = tuple(name for name in ALL_SECTIONS if name in set(sections))
    space = hotpath_space(permutation_metric)
    generation_space = constrained_space()
    runners: dict[str, Callable[[], dict[str, Any]]] = {
        "distance_build": lambda: _bench_distance_build(space, n_distance_configs, repeats),
        "gp_fit": lambda: _bench_gp_fit(space, n_train, repeats),
        "ei_maximization": lambda: _bench_ei_maximization(
            space, n_train, n_candidates, repeats
        ),
        "candidate_generation": lambda: _bench_candidate_generation(
            generation_space, n_generated, repeats
        ),
        "constraint_eval": lambda: _bench_constraint_eval(
            generation_space, n_generated, repeats
        ),
        "hard_constraint_sampling": lambda: _bench_hard_constraint_sampling(
            n_generated, max(1, repeats - 1)
        ),
        "end_to_end": lambda: _bench_end_to_end(end_to_end_budget, max(1, repeats - 1)),
    }
    results = {name: runners[name]() for name in selected}
    return {
        "schema": "BENCH_tuner_hotpath/v5",
        "space": {
            "dimension": space.dimension,
            "types": space.parameter_type_codes(),
            "permutation_metric": permutation_metric,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "sections": results,
    }


def write_results(payload: dict[str, Any], path: Path = DEFAULT_OUTPUT) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
