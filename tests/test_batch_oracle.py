"""Differential oracle: batched planning ≡ the sequential reference.

The batched extension-evaluation kernel (``repro.spectral.batch``) is
correctness-critical — a silent numerical bug would shift every route
the planner emits. The planner ships only the batched path; the
sequential reference lives here, in the test suite, and is swapped in
with ``monkeypatch``:

* extension scoring — one scalar ``extension_score`` per feasible
  extension instead of one ``extension_scores`` batch per round;
* ``Delta(e)`` precompute — one ``estimate(builder.extended([pair]))``
  per candidate edge instead of one ``estimate_batch`` over all of them.

While the reference is active, ``estimate_batch`` raises, so the two
sides of every comparison share no batched code. The corpus is
synthetic cities × both strategies × both expansion modes × both queue
disciplines: 24 corpus points.

Contract: the two paths must plan the *same route* with objectives and
search scores within 1e-9. Routes are compared up to traversal
direction — a path and its reverse are the same physical bus route
(identical edge set, stops, and objective), and which direction wins an
*exact* score tie is an exploration-order artifact that sub-tolerance
(~1e-16) roundoff between the kernel's rank-update matvec and the
reference's rebuilt-CSR matvec may legitimately flip.
"""

import importlib

import numpy as np
import pytest

from repro.core.config import PlannerConfig
from repro.core.objective import OnlineStrategy, PrecomputedStrategy
from repro.core.planner import run_method
from repro.core.precompute import precompute
from repro.data.datasets import canned_city
from repro.spectral.connectivity import NaturalConnectivityEstimator

# The module, not the ``repro.core.precompute`` function that the
# package re-exports under the same name.
precompute_module = importlib.import_module("repro.core.precompute")

TOL = 1e-9

CITIES = ("chicago", "nyc", "manhattan")
METHODS = ("eta", "eta-pre")
EXPANSIONS = ("best", "all")
DISCIPLINES = ("bound", "fifo")

_BASE = dict(
    k=8, w=0.5, max_iterations=60, seed_count=40,
    n_probes=8, lanczos_steps=6, seed=0,
)


# ----------------------------------------------------------------------
# The sequential reference
# ----------------------------------------------------------------------
def sequential_extension_scores(strategy, cand, edge_indices):
    """Score ``cand`` extended by each edge, one scalar call at a time."""
    return np.array(
        [strategy.extension_score(cand, e) for e in edge_indices], dtype=float
    )


def sequential_edge_increments(
    universe, builder, estimator, lambda_base, mode="exact",
    sketch_probes=256, seed=0,
):
    """``Delta(e)`` by re-estimating each extended graph on its own."""
    assert mode == "exact", "the reference covers the exact mode only"
    deltas = np.zeros(len(universe), dtype=float)
    for edge in universe.edges:
        if edge.is_new:
            value = estimator.estimate(builder.extended([edge.pair])) - lambda_base
            # Adding an edge never decreases natural connectivity; clamp noise.
            deltas[edge.index] = max(value, 0.0)
    return deltas


def _no_batched_kernel(*args, **kwargs):
    raise AssertionError("the sequential reference reached estimate_batch")


def use_sequential_reference(patch):
    """Route scoring and precompute through the reference via ``patch``."""
    for strategy in (OnlineStrategy, PrecomputedStrategy):
        patch.setattr(strategy, "extension_scores", sequential_extension_scores)
    patch.setattr(
        precompute_module, "compute_edge_increments", sequential_edge_increments
    )
    patch.setattr(NaturalConnectivityEstimator, "estimate_batch", _no_batched_kernel)


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
_pre_cache: dict = {}


def _plan(city, method, expansion, discipline, reference, monkeypatch):
    """Plan one corpus point on the batched path or the reference."""
    with monkeypatch.context() as patch:
        if reference:
            use_sequential_reference(patch)
        key = (city, expansion, discipline, reference)
        if key not in _pre_cache:
            config = PlannerConfig(
                **_BASE, expansion=expansion, queue_discipline=discipline,
            )
            _pre_cache[key] = precompute(canned_city(city, "tiny"), config)
        return run_method(_pre_cache[key], method)


def _canonical_route(route):
    """Route identity up to traversal direction."""
    if route is None:
        return None
    forward = route.edge_indices
    backward = tuple(reversed(forward))
    return min(forward, backward)


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("expansion", EXPANSIONS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("city", CITIES)
def test_batched_plan_matches_sequential(
    city, method, expansion, discipline, monkeypatch
):
    point = (city, method, expansion, discipline)
    batched = _plan(*point, reference=False, monkeypatch=monkeypatch)
    reference = _plan(*point, reference=True, monkeypatch=monkeypatch)

    assert _canonical_route(batched.route) == _canonical_route(reference.route)
    assert batched.route is not None, "corpus point found no route"
    assert batched.objective == pytest.approx(reference.objective, abs=TOL)
    assert batched.search_score == pytest.approx(
        reference.search_score, abs=TOL
    )
    assert batched.o_d == pytest.approx(reference.o_d, abs=TOL * 1e3)
    assert batched.o_lambda == pytest.approx(reference.o_lambda, abs=TOL)


def test_corpus_size_meets_acceptance_floor():
    """The corpus must keep at least 20 points."""
    n_points = len(CITIES) * len(METHODS) * len(EXPANSIONS) * len(DISCIPLINES)
    assert n_points >= 20


def test_corpus_covers_both_strategies_modes_and_disciplines():
    assert set(METHODS) == {"eta", "eta-pre"}
    assert set(EXPANSIONS) == {"best", "all"}
    assert set(DISCIPLINES) == {"bound", "fifo"}


def test_precomputed_deltas_match_across_modes(monkeypatch):
    """Batched precompute increments agree with sequential ones."""
    config = PlannerConfig(**_BASE)
    ds = canned_city("chicago", "tiny")
    batched = precompute(ds, config)
    with monkeypatch.context() as patch:
        use_sequential_reference(patch)
        reference = precompute(ds, config)
    np.testing.assert_allclose(
        batched.universe.delta, reference.universe.delta, atol=TOL, rtol=0.0
    )
    assert batched.estimator.evaluations == reference.estimator.evaluations
