"""Hidden-constraint (feasibility) modelling.

Some constraints are only discovered by running the compiler: a GPU kernel
that exceeds shared memory, an FPGA design that does not fit the device, a
schedule that crashes code generation.  BaCO learns these *hidden constraints*
online (Sec. 4.2): a random-forest classifier is trained on all evaluated
configurations with a feasible / infeasible label, and the predicted
probability of feasibility multiplies the EI acquisition.

To stabilize the interaction between the feasibility classifier and the GP —
which otherwise tends to chase "interesting" infeasible regions — BaCO only
considers configurations whose predicted feasibility exceeds a minimum limit
ε_f.  ε_f is re-sampled every iteration with ``P(ε_f = 0) > 0`` so no region
is permanently excluded.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..models.random_forest import RandomForestClassifier
from ..space.space import SearchSpace

__all__ = ["FeasibilityModel", "FeasibilityThresholdSchedule"]


class FeasibilityModel:
    """Random-forest probability-of-feasibility predictor."""

    def __init__(
        self,
        space: SearchSpace,
        n_trees: int = 24,
        max_depth: int = 10,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.space = space
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._forest = RandomForestClassifier(
            n_trees=n_trees, max_depth=max_depth, rng=self._rng
        )
        self._n_feasible = 0
        self._n_infeasible = 0

    @property
    def is_trained(self) -> bool:
        """The model is only useful once both classes have been observed."""
        return self._n_feasible > 0 and self._n_infeasible > 0 and self._forest.is_fitted

    def fit_rows(self, rows: np.ndarray, feasible: Sequence[bool]) -> None:
        """(Re-)train on pre-encoded rows."""
        if len(rows) != len(feasible):
            raise ValueError("rows and labels must have the same length")
        labels = np.asarray([1.0 if f else 0.0 for f in feasible])
        self._n_feasible = int(labels.sum())
        self._n_infeasible = int(len(labels) - labels.sum())
        if self._n_feasible == 0 or self._n_infeasible == 0:
            # Only one class seen: the classifier would be degenerate; predict
            # the observed class probability instead (handled in predict).
            return
        self._forest.fit(rows, labels)

    def _untrained_probability(self, n: int) -> np.ndarray:
        # With no evidence of infeasibility (or none of feasibility) fall
        # back to an uninformative estimate.
        total = self._n_feasible + self._n_infeasible
        if total == 0:
            return np.ones(n)
        return np.full(n, (self._n_feasible + 1.0) / (total + 2.0))

    def predict_probability_rows(self, rows: np.ndarray) -> np.ndarray:
        """Probability that each pre-encoded row satisfies the hidden
        constraints (one batched RF pass)."""
        if not self.is_trained:
            return self._untrained_probability(len(rows))
        return self._forest.predict_proba(rows)


class FeasibilityThresholdSchedule:
    """The randomly re-sampled minimum feasibility limit ε_f of Sec. 4.2.

    Each iteration draws a fresh threshold.  With probability
    ``zero_probability`` the threshold is 0 (no filtering), which guarantees
    asymptotically that no feasible solution is permanently cut away;
    otherwise the threshold is drawn uniformly from ``(0, max_threshold]``.
    """

    def __init__(
        self,
        zero_probability: float = 0.3,
        max_threshold: float = 0.8,
        enabled: bool = True,
    ) -> None:
        if not 0.0 < zero_probability <= 1.0:
            raise ValueError("zero_probability must be in (0, 1]")
        if not 0.0 < max_threshold <= 1.0:
            raise ValueError("max_threshold must be in (0, 1]")
        self.zero_probability = zero_probability
        self.max_threshold = max_threshold
        self.enabled = enabled

    def sample(self, rng: np.random.Generator) -> float:
        if not self.enabled:
            return 0.0
        if rng.random() < self.zero_probability:
            return 0.0
        return float(rng.uniform(0.0, self.max_threshold))
