"""Acquisition functions.

BaCO uses Expected Improvement (EI) with two modifications (Sec. 3.3 and 4.2):

* the improvement is computed against the *noise-free* GP prediction
  (``include_noise=False``), which stops EI from repeatedly re-sampling
  already-good points when evaluations are noisy;
* the EI is multiplied by the probability of feasibility predicted by the
  hidden-constraint model, and configurations whose predicted feasibility is
  below a (randomly re-sampled) threshold ε_f are excluded.

All functions operate on the surrogate's *model scale* (e.g. the GP's
log-transformed and standardized objective), in minimization form.

:class:`AcquisitionFunction` is batch-first and row-space only: it scores a
matrix of search-space rows with a single surrogate predict and a single
batched pass of the random-forest feasibility model over the same rows.
It knows no encoders — the tuner binds each surrogate to a row predictor.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Any, Callable

import numpy as np
from scipy.special import ndtr

__all__ = [
    "expected_improvement",
    "floored_std",
    "AcquisitionFunction",
    "FusedAcquisitionScorer",
]

#: floor applied to the predictive variance before taking the square root
_VARIANCE_FLOOR = 1e-18
#: sqrt(2*pi), precomputed for the inline standard-normal pdf
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def floored_std(variance: np.ndarray) -> np.ndarray:
    """Predictive standard deviation with the shared variance floor applied."""
    return np.sqrt(np.maximum(variance, _VARIANCE_FLOOR))


def expected_improvement(
    mean: np.ndarray, variance: np.ndarray, best_value: float, xi: float = 0.0
) -> np.ndarray:
    """EI for minimization: ``E[max(best - Y, 0)]`` under ``Y ~ N(mean, variance)``.

    The Gaussian cdf/pdf are evaluated directly (``scipy.special.ndtr`` and an
    inline ``exp(-z²/2)/√(2π)``) instead of through ``scipy.stats.norm``:
    ``ndtr`` is the exact primitive ``norm.cdf`` bottoms out in and the pdf
    expression replicates ``_norm_pdf`` term for term, so the values are
    bit-identical while skipping the frozen-distribution argument machinery —
    this is the hottest scalar kernel of the acquisition loop.
    """
    std = floored_std(variance)
    improvement = best_value - mean - xi
    z = improvement / std
    ei = improvement * ndtr(z) + std * (np.exp(-z * z / 2.0) / _SQRT_2PI)
    return np.maximum(ei, 0.0)


class AcquisitionFunction:
    """Feasibility-weighted EI over encoded search-space rows.

    The one acquisition for every surrogate: the caller binds the model to a
    row predictor, so the GP and the RF surrogate of the Fig. 8 comparison
    score candidates through the same :meth:`evaluate_rows`.

    Parameters
    ----------
    predict_rows:
        ``predict_rows(rows, cross_distance) -> (mean, variance)`` on the
        model scale, for rows in the search space's encoding.
        ``cross_distance`` is the rows' cached test-train cross tensor or
        ``None``; predictors without such a cache ignore it.
    best:
        Best feasible objective value observed so far, on the model scale.
    feasibility_model:
        Optional model with ``is_trained`` and
        ``predict_probability_rows(rows) -> array``; once trained, the EI of
        each row is multiplied by its probability of feasibility and rows
        below ``feasibility_threshold`` score ``-inf``.
    profiler:
        Optional :class:`~repro.core.profiling.PhaseProfiler`; attributes the
        predict / EI wall-clock to their phases (observation only — never
        touches the arithmetic or any RNG).
    """

    def __init__(
        self,
        predict_rows: Callable[
            [np.ndarray, np.ndarray | None], tuple[np.ndarray, np.ndarray]
        ],
        best: float,
        feasibility_model: Any | None = None,
        feasibility_threshold: float = 0.0,
        profiler: Any | None = None,
    ) -> None:
        if not math.isfinite(best):
            raise ValueError("best must be finite to compute EI")
        self.predict_rows = predict_rows
        self.best = best
        self.feasibility_model = feasibility_model
        self.feasibility_threshold = feasibility_threshold
        self.profiler = profiler

    def evaluate_rows(
        self, rows: np.ndarray, cross_distance: np.ndarray | None = None
    ) -> np.ndarray:
        """Acquisition values (larger is better) for a batch of encoded rows.

        One predict and one feasibility-model pass for the whole batch.
        ``cross_distance`` is forwarded to the predictor (the persistent
        candidate pool's :class:`~repro.models.distances.CrossDistanceTensor`
        view), which turns a GP predict into a pure kernel-apply.
        """
        if len(rows) == 0:
            return np.empty(0)
        profiler = self.profiler
        predict_phase = (
            profiler.phase("predict") if profiler is not None else nullcontext()
        )
        with predict_phase:
            mean, variance = self.predict_rows(rows, cross_distance)
        ei_phase = profiler.phase("ei") if profiler is not None else nullcontext()
        with ei_phase:
            values = expected_improvement(mean, variance, self.best)
            if self.feasibility_model is not None and self.feasibility_model.is_trained:
                probability = self.feasibility_model.predict_probability_rows(rows)
                values = values * probability
                values = np.where(
                    probability >= self.feasibility_threshold, values, -np.inf
                )
        return values


class FusedAcquisitionScorer:
    """Memoizing, buffer-reusing scorer for one acquisition maximization.

    Valid for the lifetime of a single ask: the surrogate, the incumbent, and
    the feasibility threshold ε_f are fixed, so every distinct candidate row
    maps to one acquisition value.  The scorer exploits that three ways:

    * **per-row memoization** — values are cached by ``row.tobytes()``, so
      climb steps that re-visit rows (overlapping neighbourhoods, re-climbed
      pool starts) never re-predict;
    * **fused batch pass** — the unseen rows of a batch go through a single
      predict → EI → feasibility-weighting pipeline
      (:meth:`AcquisitionFunction.evaluate_rows`), not one call per row;
    * **workspace reuse** — assembled values land in one preallocated buffer
      that grows monotonically, so the lockstep climb allocates nothing per
      step.  The returned array is a view into that workspace: consume it
      before the next ``score_rows`` call.

    :meth:`prime_pool` additionally accepts the pool's cached cross-distance
    tensor, turning the pool-scoring predict into a pure kernel-apply.
    """

    def __init__(self, acquisition: AcquisitionFunction) -> None:
        self._acquisition = acquisition
        self._memo: dict[bytes, float] = {}
        self._values_buf = np.empty(0)

    @property
    def n_memoized(self) -> int:
        return len(self._memo)

    def _workspace(self, n: int) -> np.ndarray:
        if self._values_buf.shape[0] < n:
            self._values_buf = np.empty(max(n, 2 * self._values_buf.shape[0]))
        return self._values_buf[:n]

    def prime_pool(
        self, rows: np.ndarray, cross_distance: np.ndarray | None = None
    ) -> np.ndarray:
        """Score the candidate pool in one pass and seed the memo with it."""
        values = np.asarray(
            self._acquisition.evaluate_rows(rows, cross_distance=cross_distance),
            dtype=float,
        )
        memo = self._memo
        # repro: allow[hot-path-purity] memo seeding: one dict insert per row after a single fused batch predict — no vectorized dict alternative
        for row, value in zip(rows, values):
            memo[row.tobytes()] = float(value)
        return values

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Acquisition values for ``rows``; memo hits skip the model entirely.

        Returns a view into the reused workspace buffer — copy any values
        that must survive the next call.
        """
        n = len(rows)
        out = self._workspace(n)
        if n == 0:
            return out
        memo = self._memo
        keys: list[bytes] = []
        unseen: list[int] = []
        for i in range(n):
            key = rows[i].tobytes()
            keys.append(key)
            cached = memo.get(key)
            if cached is None:
                unseen.append(i)
            else:
                out[i] = cached
        if unseen:
            fresh = np.asarray(
                self._acquisition.evaluate_rows(rows[unseen]),
                dtype=float,
            )
            for j, i in enumerate(unseen):
                value = float(fresh[j])
                memo[keys[i]] = value
                out[i] = value
        return out
