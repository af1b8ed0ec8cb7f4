"""Seeded input generation for the three workloads.

Every generator takes the workload seed and nothing else that varies, so
one seed always yields the same inputs. ``random.Random`` seeded with a
string is stable across Python versions and processes.

Inputs are drawn stratified (one draw per cell of ``k`` stratum x ``w``)
rather than independently, so the plan-quality averages and the request
mix are comparable from seed to seed.
"""

from __future__ import annotations

import json
import random

PROFILE = "bench"

W_CHOICES = (0.3, 0.5, 0.7)
K_STRATA = ((10, 16), (17, 23), (24, 30))

PLAN_CITY = "chicago"
"""One city keeps the cold-plan cost unimodal, so its median is steady."""

SERVE_CITIES = ("chicago", "manhattan", "queens")
SERVE_ETA_SHARE = 0.10
SERVE_ETA_PRE_ITERATIONS = 300
SERVE_ETA_OVERRIDES = {"max_iterations": 4, "seed_count": 4}
SERVE_ETA_PER_CITY = 2
SERVE_CLIENTS = 2
"""Closed-loop clients, one keep-alive connection each (one per CPU)."""
SERVE_SEQUENCE = 2000

SWEEP_CITIES = ("manhattan", "queens")
SWEEP_KS = (10, 20, 30)
SWEEP_WS = (0.3, 0.7)
SWEEP_METHODS = ("eta-pre", "vk-tsp")
SWEEP_CONFIG = {"max_iterations": 500}
"""Search budget of every grid scenario: the sweep workload is about the
runner, the backend and the artifact cache, not search depth."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _stratified_kw(rng: random.Random) -> list[tuple[int, float]]:
    """One ``(k, w)`` per (k stratum, w) cell, in seeded order."""
    cells = [(rng.randint(lo, hi), w) for lo, hi in K_STRATA for w in W_CHOICES]
    rng.shuffle(cells)
    return cells


def plan_inputs(seed: int) -> list[tuple[int, float]]:
    """The ``(k, w)`` list that ``plan-cold`` ops cycle through."""
    return _stratified_kw(_rng("plan-cold", seed))


def serve_pool(seed: int) -> tuple[list[dict], list[dict]]:
    """Distinct ``eta-pre`` and ``eta`` request inputs for ``serve-warm``.

    Each input is ``{"city", "method", "k", "w", "overrides"}`` where
    ``overrides`` holds the full :class:`PlannerConfig` overrides sent.
    """
    rng = _rng("serve-warm-pool", seed)
    eta_pre, eta = [], []
    for city in SERVE_CITIES:
        for k, w in _stratified_kw(rng):
            eta_pre.append(_serve_input(
                city, "eta-pre", k, w,
                {"max_iterations": SERVE_ETA_PRE_ITERATIONS},
            ))
        for k, w in _stratified_kw(rng)[:SERVE_ETA_PER_CITY]:
            eta.append(_serve_input(city, "eta", k, w, SERVE_ETA_OVERRIDES))
    return eta_pre, eta


def _serve_input(city, method, k, w, extra) -> dict:
    return {
        "city": city, "method": method, "k": k, "w": w,
        "overrides": {"k": k, "w": w, **extra},
    }


def serve_requests(seed: int) -> list[dict]:
    """The request sequence ``serve-warm`` clients take turns sending.

    Exactly ``SERVE_ETA_SHARE`` of it is online ``eta``, at seeded
    positions; each request is a seeded draw from :func:`serve_pool`.
    """
    rng = _rng("serve-warm", seed)
    eta_pre, eta = serve_pool(seed)
    n_eta = int(round(SERVE_ETA_SHARE * SERVE_SEQUENCE))
    kinds = [True] * n_eta + [False] * (SERVE_SEQUENCE - n_eta)
    rng.shuffle(kinds)
    return [rng.choice(eta if is_eta else eta_pre) for is_eta in kinds]


def warm_inputs(seed: int) -> list[dict]:
    """One request per working-set city, sent during set-up."""
    eta_pre, _ = serve_pool(seed)
    first = {}
    for item in eta_pre:
        first.setdefault(item["city"], item)
    return [first[c] for c in SERVE_CITIES]


def request_doc(item: dict, name: str) -> dict:
    """The ``POST /plan`` body for one serve input."""
    return {
        "scenario": {
            "name": name,
            "city": item["city"],
            "profile": PROFILE,
            "method": item["method"],
            "overrides": dict(item["overrides"]),
        }
    }


def sweep_grid(seed: int) -> dict:
    """The grid document every ``sweep-grid`` op runs (48 scenarios)."""
    rng = _rng("sweep-grid", seed)
    planner_seeds = sorted(rng.sample(range(1, 10_000), 2))
    return {
        "base": {"profile": PROFILE, "config": dict(SWEEP_CONFIG)},
        "axes": {
            "city": list(SWEEP_CITIES),
            "seed": planner_seeds,
            "k": list(SWEEP_KS),
            "w": list(SWEEP_WS),
            "method": list(SWEEP_METHODS),
        },
    }


def grid_scenarios(grid: dict) -> list[dict]:
    """The scenarios of ``grid`` as ``{"city", "method", "k", "w",
    "seed"}`` dicts."""
    axes = grid["axes"]
    return [
        {"city": c, "seed": s, "k": k, "w": w, "method": m}
        for c in axes["city"] for s in axes["seed"] for k in axes["k"]
        for w in axes["w"] for m in axes["method"]
    ]


def canonical(obj) -> str:
    """Stable text of generated inputs (for determinism checks)."""
    return json.dumps(obj, sort_keys=True)
