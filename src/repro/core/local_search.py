"""Multi-start local search for acquisition-function optimization.

BaCO optimizes its acquisition function (Sec. 3.3) by

1. sampling a large batch of feasible configurations uniformly at random
   (from the Chain-of-Trees where available),
2. keeping the best few as starting points,
3. hill-climbing each start over the *feasible* one-parameter-change
   neighbourhood until no neighbour improves the acquisition value,
4. returning the best configuration found that has not already been
   evaluated.

Because known constraints are enforced when generating both the random batch
and the neighbourhoods, the acquisition optimizer only ever proposes feasible
configurations.

One climber implements steps 2–4; the two public entry points differ only in
where the scored candidates and the starts come from:

* :func:`multistart_local_search_batch` draws a fresh random batch per call
  (step 1) and starts from its top ``n_starts`` rows;
* :func:`pooled_local_search_batch` takes a persistent, pre-scored candidate
  pool and starts from its best distinct rows with finite values.

The whole optimizer runs in **row space**: the random batch is one
``SearchSpace.sample_rows`` call, every climb step materializes the union of
all still-active starts' neighbourhoods as a single row matrix
(``SearchSpace.neighbour_rows_batch`` — candidate values gathered from the
Chain-of-Trees, feasibility by compiled residual constraints), and one
batched acquisition call scores it.  Configurations are decoded to dicts only
for the returned winners, i.e. at the tuner boundary.
"""
# repro: hot-path — row-space module: per-row Python loops, .tolist(), and in-loop decode are flagged (see repro.analysis)

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..space.space import Configuration, SearchSpace

__all__ = [
    "LocalSearchSettings",
    "multistart_local_search_batch",
    "pooled_local_search_batch",
    "random_candidate_rows",
]

#: cross-ask neighbour-matrix cache entries kept before FIFO eviction; the
#: space is immutable, so a row's feasible neighbourhood is a pure function
#: of the row and entries never go stale — the cap only bounds memory
_NEIGHBOUR_CACHE_MAX = 4096

#: scores a matrix of encoded rows, one acquisition value per row
RowScorer = Callable[[np.ndarray], np.ndarray]


class LocalSearchSettings:
    """Knobs of the acquisition optimizer."""

    def __init__(
        self,
        n_random_samples: int = 256,
        n_starts: int = 5,
        max_steps: int = 32,
    ) -> None:
        if n_random_samples < 1 or n_starts < 1 or max_steps < 0:
            raise ValueError("local-search settings must be positive")
        self.n_random_samples = n_random_samples
        self.n_starts = min(n_starts, n_random_samples)
        self.max_steps = max_steps


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in first-seen order (row equality == config equality)."""
    if len(rows) == 0:
        return rows
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def random_candidate_rows(
    space: SearchSpace, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform feasible candidates as encoded rows; duplicates collapsed."""
    return _unique_rows(space.sample_rows(rng, n_samples))


def multistart_local_search_batch(
    space: SearchSpace,
    score_rows: RowScorer,
    rng: np.random.Generator,
    settings: LocalSearchSettings | None = None,
    exclude: Iterable[tuple] = (),
    k: int = 1,
    neighbour_cache: dict[bytes, np.ndarray] | None = None,
    profiler: Any | None = None,
) -> list[tuple[Configuration, float]]:
    """The top-``k`` distinct configurations according to ``score_rows``.

    The fresh-batch start source: one random-row batch is drawn (charged
    to the ``"sample"`` phase of ``profiler``) and scored, and its top
    ``n_starts`` rows start the climb of :func:`_climb`.  ``exclude`` holds
    frozen keys that must not be returned (typically the evaluated
    configurations); fewer than ``k`` results — possibly none — come back
    when too few scored candidates remain.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    settings = settings or LocalSearchSettings()
    with _phase(profiler, "sample"):
        rows = random_candidate_rows(space, settings.n_random_samples, rng)
    if len(rows) == 0:
        return []
    values = score_rows(rows)
    order = np.argsort(-values)
    return _climb(
        space, score_rows, rows, values, order, order[: settings.n_starts],
        settings, exclude, k, neighbour_cache, profiler,
    )


def pooled_local_search_batch(
    space: SearchSpace,
    score_rows: RowScorer,
    pool_rows: np.ndarray,
    pool_values: np.ndarray,
    settings: LocalSearchSettings | None = None,
    exclude: Iterable[tuple] = (),
    k: int = 1,
    neighbour_cache: dict[bytes, np.ndarray] | None = None,
    profiler: Any | None = None,
) -> tuple[list[tuple[Configuration, float]], list[int]]:
    """The top-``k`` distinct configurations of a *persistent* candidate pool.

    The pool start source: instead of drawing a fresh random batch, the
    caller hands in the cross-ask pool (``pool_rows``) together with its
    acquisition values (``pool_values``, typically from
    :meth:`~repro.core.acquisition.FusedAcquisitionScorer.prime_pool` over
    the cached cross-distance tensor), and ``score_rows`` is that scorer's
    :meth:`~repro.core.acquisition.FusedAcquisitionScorer.score_rows`, whose
    per-ask memo folds away re-visited rows during the climb.

    Dead starts are pruned up front: rows whose pooled value is ``-inf`` or
    NaN (ε_f-filtered or otherwise unscorable) never seed a climb, and
    duplicate rows seed it once.

    Returns ``(ranked, start_indices)`` where ``start_indices`` are the pool
    row indices consumed as climb starts — the caller refreshes exactly those
    slots before the next ask.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    settings = settings or LocalSearchSettings()
    pool_values = np.asarray(pool_values, dtype=float)
    order = np.argsort(-pool_values)

    # Walk the ranking, keep distinct rows with finite acquisition values.  A
    # pool drained to all--inf (every candidate below ε_f) yields no starts
    # and no back-fill, and the caller falls back to random sampling.
    start_indices: list[int] = []
    seen_start_keys: set[bytes] = set()
    for i in order:
        if len(start_indices) == settings.n_starts:
            break
        if not np.isfinite(pool_values[i]):
            continue
        key = pool_rows[i].tobytes()
        if key in seen_start_keys:
            continue
        seen_start_keys.add(key)
        start_indices.append(int(i))
    ranked = _climb(
        space, score_rows, pool_rows, pool_values, order, start_indices,
        settings, exclude, k, neighbour_cache, profiler,
    )
    return ranked, start_indices


def _phase(profiler: Any | None, name: str):
    return profiler.phase(name) if profiler is not None else nullcontext()


def _climb(
    space: SearchSpace,
    score_rows: RowScorer,
    rows: np.ndarray,
    values: np.ndarray,
    order: np.ndarray,
    start_indices: Sequence[int],
    settings: LocalSearchSettings,
    exclude: Iterable[tuple],
    k: int,
    neighbour_cache: dict[bytes, np.ndarray] | None,
    profiler: Any | None,
) -> list[tuple[Configuration, float]]:
    """Lockstep hill climb from ``rows[start_indices]``; the ranked top-``k``.

    ``rows`` are scored candidates (``values``, ranked best-first by
    ``order``) and double as the back-fill source.  ``neighbour_cache`` maps
    ``row.tobytes()`` to that row's feasible neighbour matrix.
    Neighbourhoods are pure functions of the row (the space is immutable),
    so a caller-owned cache persists *across asks*; only rows never climbed
    through before pay a ``neighbour_rows_batch`` call.  Because that call
    is owner-major, the fused matrix of cached and fresh neighbourhoods is
    the matrix an uncached build would have returned.

    ``profiler`` — optional :class:`~repro.core.profiling.PhaseProfiler`;
    attributes the climb bookkeeping to ``"climb"`` (scoring attributes
    itself to ``"predict"``/``"ei"`` through the acquisition).  Pure
    observation: the search is byte-identical with and without it.
    """
    excluded = set(exclude)
    decode = space.encoder.decode
    if neighbour_cache is None:
        neighbour_cache = {}
    n_starts = len(start_indices)
    starts = rows[start_indices]
    start_values = values[start_indices].astype(float)
    current = starts.copy()
    current_values = start_values.copy()
    active = list(range(n_starts))

    # Per step, one neighbour-matrix build (cache misses only) and one
    # batched acquisition call cover every active start; each start then
    # takes the argmax within its own owner slice, exactly as if it climbed
    # alone.
    for _ in range(settings.max_steps):
        if not active:
            break
        with _phase(profiler, "climb"):
            mats: list[np.ndarray | None] = []
            missing_positions: list[int] = []
            for position in range(len(active)):
                mat = neighbour_cache.get(current[active[position]].tobytes())
                if mat is None:
                    missing_positions.append(position)
                mats.append(mat)
            if missing_positions:
                expand_rows = current[[active[p] for p in missing_positions]]
                batch, owners = space.neighbour_rows_batch(expand_rows)
                for j, position in enumerate(missing_positions):
                    mat = np.array(batch[owners == j], copy=True)
                    neighbour_cache[expand_rows[j].tobytes()] = mat
                    mats[position] = mat
                while len(neighbour_cache) > _NEIGHBOUR_CACHE_MAX:
                    neighbour_cache.pop(next(iter(neighbour_cache)))
            lengths = [len(mat) for mat in mats]
            if sum(lengths) == 0:
                break
            fused = np.concatenate([mat for mat in mats if len(mat)], axis=0)
        fused_values = score_rows(fused)
        with _phase(profiler, "climb"):
            still_active: list[int] = []
            offset = 0
            for position, start_index in enumerate(active):
                length = lengths[position]
                if length == 0:
                    continue
                span_values = fused_values[offset : offset + length]
                best = int(np.argmax(span_values))
                if span_values[best] > current_values[start_index]:
                    current[start_index] = mats[position][best]
                    current_values[start_index] = float(span_values[best])
                    still_active.append(start_index)
                offset += length
            active = still_active

    # Per start: the first non-excluded of (climbed optimum, original start),
    # kept only when its value beats -inf (NaN and -inf never win).
    winners: list[tuple[Configuration, float]] = []
    for i in range(n_starts):
        candidate_pool = [
            (current[i], float(current_values[i])),
            (starts[i], float(start_values[i])),
        ]
        # repro: allow[hot-path-purity] tuner boundary: decodes at most two rows (climbed optimum, original start) per start
        for row, row_value in candidate_pool:
            config = decode(row)
            if space.freeze(config) in excluded:
                continue
            if row_value > -np.inf:
                winners.append((config, row_value))
            break
    # Stable sort: ties keep start order, so the first entry equals the
    # single-result argmax.
    winners.sort(key=lambda pair: -pair[1])

    results: list[tuple[Configuration, float]] = []
    taken: set[tuple] = set()
    for config, config_value in winners:
        key = space.freeze(config)
        if key in taken:
            continue
        taken.add(key)
        results.append((config, config_value))
        if len(results) == k:
            return results

    # Not enough distinct local optima: back-fill from the ranked candidates
    # (also the fallback when every optimum was already evaluated).
    for i in order:
        if len(results) == k:
            break
        if not np.isfinite(values[i]):
            continue
        config = decode(rows[i])  # repro: allow[hot-path-purity] boundary back-fill: decodes at most k ranked winners
        key = space.freeze(config)
        if key in excluded or key in taken:
            continue
        taken.add(key)
        results.append((config, float(values[i])))
    return results
