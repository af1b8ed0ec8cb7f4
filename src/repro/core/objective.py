"""Objective evaluation strategies (Definition 6 / Eq. 11).

``O(mu) = w * O_d(mu)/d_max + (1 - w) * O_lambda(mu)/lambda_max``.

Two interchangeable strategies drive the expansion engine:

* :class:`OnlineStrategy` (ETA) — the connectivity term of every
  candidate is re-estimated with the Lanczos+Hutchinson estimator; the
  demand bound runs on ``L_d`` and the connectivity bound is the
  constant Lemma 4 path bound (valid for every partial candidate since
  the final route is always a <= k-edge path added to ``G_r``).
* :class:`PrecomputedStrategy` (ETA-Pre) — the integrated per-edge
  increment ``L_e`` makes the objective a linear sum (Section 6.2) and
  the Algorithm 2 cursor bound runs directly on ``L_e``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bounds import RankedList
from repro.core.candidate import Candidate
from repro.core.precompute import Precomputation


class _StrategyBase:
    """Shared plumbing: normalization and exact (Lanczos) re-evaluation."""

    name = "base"

    def __init__(self, pre: Precomputation):
        self.pre = pre
        self.config = pre.config
        self.universe = pre.universe

    # -- exact evaluation (used for final reporting by both strategies) --
    def exact_components(self, edge_ids: Sequence[int]) -> tuple[float, float]:
        """``(O_d, O_lambda)`` raw values; connectivity via the estimator."""
        ids = list(edge_ids)
        o_d = float(self.universe.demand[ids].sum()) if ids else 0.0
        pairs = self.universe.new_pairs(ids)
        if pairs:
            extended = self.pre.builder.extended(pairs)
            o_l = self.pre.estimator.estimate(extended) - self.pre.lambda_base
            o_l = max(o_l, 0.0)
        else:
            o_l = 0.0
        return o_d, o_l

    def combine(self, o_d: float, o_lambda: float) -> float:
        """Normalized weighted objective (Eq. 3 with Eq. 12 normalizers)."""
        return (
            self.config.w * o_d / self.pre.d_max
            + (1.0 - self.config.w) * o_lambda / self.pre.lambda_max
        )

    def exact_objective(self, edge_ids: Sequence[int]) -> float:
        o_d, o_l = self.exact_components(edge_ids)
        return self.combine(o_d, o_l)


class OnlineStrategy(_StrategyBase):
    """ETA: per-candidate Lanczos connectivity estimation (Section 5)."""

    name = "eta"

    @property
    def bound_list(self) -> RankedList:
        return self.pre.L_d

    def seed_score(self, edge_index: int) -> float:
        """Objective of a single-edge path (uses the pre-computed Delta)."""
        o_d = float(self.universe.demand[edge_index])
        o_l = float(self.universe.delta[edge_index])
        return self.combine(o_d, o_l)

    def path_score(self, edge_ids: Sequence[int]) -> float:
        """True objective of a path — one connectivity estimate."""
        return self.exact_objective(edge_ids)

    def extension_score(self, cand: Candidate, edge_index: int) -> float:
        return self.path_score(cand.edge_ids + (edge_index,))

    def extension_scores(
        self, cand: Candidate, edge_indices: Sequence[int]
    ) -> np.ndarray:
        """All extension objectives of a round through one batched estimate.

        Groups the per-extension connectivity evaluations into a single
        :meth:`NaturalConnectivityEstimator.estimate_batch` call — one
        shared Lanczos recurrence over the stacked probe block instead of
        one block call per neighbor. Extensions whose paths add no new
        vertex pair skip the estimator, exactly as
        :meth:`exact_components` does, so ``estimator.evaluations``
        advances by exactly the number a loop of :meth:`extension_score`
        calls would have charged.
        """
        indices = list(edge_indices)
        if not indices:
            return np.zeros(0)
        o_d = np.empty(len(indices))
        o_l = np.zeros(len(indices))
        groups: list[list[tuple[int, int]]] = []
        members: list[int] = []
        for pos, e in enumerate(indices):
            ids = list(cand.edge_ids) + [e]
            o_d[pos] = float(self.universe.demand[ids].sum())
            pairs = self.universe.new_pairs(ids)
            if pairs:
                members.append(pos)
                groups.append(self.pre.builder.novel_pairs(pairs))
        if members:
            estimates = self.pre.estimator.estimate_batch(
                self.pre.builder.base(), groups
            )
            o_l[members] = np.maximum(estimates - self.pre.lambda_base, 0.0)
        return (
            self.config.w * o_d / self.pre.d_max
            + (1.0 - self.config.w) * o_l / self.pre.lambda_max
        )

    def bound_to_upper(self, bound_value: float) -> float:
        """Objective-scale bound: Alg. 2 demand bound + Lemma 4 constant."""
        return self.combine(bound_value, self.pre.path_bound_increment)


class PrecomputedStrategy(_StrategyBase):
    """ETA-Pre: linear integrated increments ``L_e`` (Section 6.2)."""

    name = "eta-pre"

    def __init__(self, pre: Precomputation):
        super().__init__(pre)
        self._values = pre.L_e.values_array()

    @property
    def bound_list(self) -> RankedList:
        return self.pre.L_e

    def seed_score(self, edge_index: int) -> float:
        return float(self._values[edge_index])

    def path_score(self, edge_ids: Sequence[int]) -> float:
        ids = list(edge_ids)
        return float(self._values[ids].sum()) if ids else 0.0

    def extension_score(self, cand: Candidate, edge_index: int) -> float:
        return cand.score + float(self._values[edge_index])

    def extension_scores(
        self, cand: Candidate, edge_indices: Sequence[int]
    ) -> np.ndarray:
        """Vectorized linear scores — bitwise equal to the scalar path."""
        if not edge_indices:
            return np.zeros(0)
        idx = np.asarray(list(edge_indices), dtype=np.intp)
        return cand.score + self._values[idx]

    def bound_to_upper(self, bound_value: float) -> float:
        """The Alg. 2 bound on ``L_e`` is already objective-scale."""
        return bound_value
