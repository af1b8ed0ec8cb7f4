"""In-process reference plans and the per-op output checks.

The benchmark plans every distinct input once more, in its own process,
through the program's library at the same commit, outside any timed
region. An op passes only if its route was found, has at most ``k``
edges, uses stops that exist, and has exactly the reference's stops, so
a later change that legitimately moves routes needs no benchmark edit.

Plan quality comes from the reference plans, so it repeats exactly for
one seed at one commit: ``route_demand`` is the route's demand term
``O_d`` and ``route_conn_gain`` is the exact natural-connectivity gain
lambda(G + route) - lambda(G), from dense eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RefPlan:
    stops: tuple
    n_stops: int
    demand: float
    conn_gain: float


class Reference:
    """Plans inputs in-process; one precomputation per artifact key."""

    def __init__(self, profile: str):
        self.profile = profile
        self._datasets = {}
        self._pres = {}
        self._base_lambda = {}
        self._plans = {}

    def _dataset(self, city: str):
        from repro.data.datasets import canned_city

        if city not in self._datasets:
            self._datasets[city] = canned_city(city, self.profile)
        return self._datasets[city]

    def _pre(self, city: str, config):
        from repro.core.precompute import (
            PRECOMPUTE_CONFIG_FIELDS,
            precompute,
            rebind,
        )

        key = (city,) + tuple(getattr(config, f) for f in PRECOMPUTE_CONFIG_FIELDS)
        if key not in self._pres:
            self._pres[key] = precompute(self._dataset(city), config)
        pre = self._pres[key]
        return pre if pre.config == config else rebind(pre, config)

    def plan(self, city: str, method: str, overrides: dict) -> RefPlan:
        """The reference plan for one input (memoized per distinct input)."""
        from repro.core.config import PlannerConfig
        from repro.core.planner import run_method
        from repro.spectral.connectivity import natural_connectivity_exact

        memo = (city, method, tuple(sorted(overrides.items())))
        if memo in self._plans:
            return self._plans[memo]
        config = replace(PlannerConfig(), **overrides)
        pre = self._pre(city, config)
        result = run_method(pre, method)
        n_stops = self._dataset(city).transit.n_stops
        if result.route is None:
            raise RuntimeError(f"reference found no route for {memo}")
        if city not in self._base_lambda:
            self._base_lambda[city] = natural_connectivity_exact(pre.builder.base())
        extended = pre.builder.extended(list(result.route.new_pairs))
        gain = natural_connectivity_exact(extended) - self._base_lambda[city]
        plan = RefPlan(
            stops=tuple(int(s) for s in result.route.stops),
            n_stops=n_stops,
            demand=float(result.o_d),
            conn_gain=float(gain),
        )
        self._plans[memo] = plan
        return plan


def check_route(found: bool, stops, n_edges: int, k: int, ref: RefPlan) -> "str | None":
    """``None`` when an op's route passes every check, else the reason."""
    if not found or stops is None:
        return "no route found"
    stops = tuple(int(s) for s in stops)
    if n_edges > k:
        return f"{n_edges} edges > k={k}"
    if any(not 0 <= s < ref.n_stops for s in stops):
        return "route uses a stop that does not exist"
    if stops != ref.stops:
        return "stops differ from the in-process reference plan"
    return None


def quality(plans) -> dict:
    """Mean plan quality over distinct reference plans."""
    plans = list(plans)
    return {
        "route_demand": sum(p.demand for p in plans) / len(plans),
        "route_conn_gain": sum(p.conn_gain for p in plans) / len(plans),
    }
