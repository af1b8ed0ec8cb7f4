"""Unit tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import pytest

import inputs
import layers
from plan_cold import parse_plan_output
from reference import RefPlan, check_route
from stats import (
    beyond,
    latency_summary,
    nearest_rank,
    ok_ratio,
    rate,
    spread,
    supported_percentile,
)


# ----------------------------------------------------------------------
# Percentiles, rates, ok_ratio
# ----------------------------------------------------------------------
def test_nearest_rank_returns_observed_values():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(xs, 50) == 3.0
    assert nearest_rank(xs, 20) == 1.0
    assert nearest_rank(xs, 21) == 2.0
    assert nearest_rank(xs, 100) == 5.0
    assert nearest_rank([7.0], 95) == 7.0


def test_nearest_rank_even_count_takes_lower_middle():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_beyond_counts_samples_past_the_rank():
    assert beyond(200, 95) == 10
    assert beyond(199, 95) == 9
    assert beyond(100, 50) == 50


def test_tail_needs_ten_samples_beyond_it():
    assert supported_percentile(200, 95) == 95
    assert supported_percentile(120, 95) == 91
    assert beyond(120, 91) >= 10 and beyond(120, 92) < 10
    assert supported_percentile(9, 95) == 50
    assert supported_percentile(3, 50) == 50


def test_latency_summary_counts_failures_as_misses():
    xs = [0.1] * 150 + [math.inf] * 50
    s = latency_summary(xs, tail=95)
    assert s["n"] == 200 and s["misses"] == 50
    assert s["p50"] == 0.1
    assert math.isinf(s["tail"]) and s["tail_percentile"] == 95
    assert s["beyond_tail"] == 10


def test_latency_summary_small_run_reports_no_unsupported_tail():
    s = latency_summary([3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0], tail=95)
    assert s["tail_percentile"] == 50
    assert s["tail"] == s["p50"] == 4.0


def test_rate_and_ok_ratio():
    assert rate(10, 4.0) == 2.5
    assert rate(3, 0.0) == 0.0
    assert ok_ratio(9, 10) == 0.9
    assert ok_ratio(0, 3) == 0.0
    with pytest.raises(ValueError):
        ok_ratio(0, 0)
    with pytest.raises(ValueError):
        ok_ratio(4, 3)


def test_spread_matches_statistics_quantiles():
    s = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert s["median"] == 5.5
    assert (s["q1"], s["q3"]) == (2.75, 8.25)
    assert s["iqr_share"] == pytest.approx(5.5 / 5.5)
    assert s["range_share"] == pytest.approx(9 / 5.5)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_one_seed_always_yields_the_same_inputs():
    for seed in (0, 1, 17):
        assert inputs.plan_inputs(seed) == inputs.plan_inputs(seed)
        assert inputs.serve_requests(seed) == inputs.serve_requests(seed)
        assert inputs.sweep_grid(seed) == inputs.sweep_grid(seed)


def test_different_seeds_yield_different_inputs():
    assert inputs.plan_inputs(1) != inputs.plan_inputs(2)
    assert inputs.serve_requests(1) != inputs.serve_requests(2)
    assert inputs.sweep_grid(1) != inputs.sweep_grid(2)


def test_plan_inputs_cover_every_stratum_once():
    cells = inputs.plan_inputs(5)
    assert len(cells) == len(inputs.K_STRATA) * len(inputs.W_CHOICES)
    covered = {
        (next(i for i, (lo, hi) in enumerate(inputs.K_STRATA) if lo <= k <= hi), w)
        for k, w in cells
    }
    assert len(covered) == len(cells)


def test_serve_request_mix():
    seq = inputs.serve_requests(3)
    n_eta = sum(1 for item in seq if item["method"] == "eta")
    assert n_eta == round(inputs.SERVE_ETA_SHARE * len(seq))
    assert {item["city"] for item in seq} == set(inputs.SERVE_CITIES)
    eta_pre, eta = inputs.serve_pool(3)
    assert all(item in eta_pre + eta for item in seq)


def test_sweep_grid_has_48_scenarios_over_4_keys():
    scenarios = inputs.grid_scenarios(inputs.sweep_grid(9))
    assert len(scenarios) == 48
    assert len({(s["city"], s["seed"]) for s in scenarios}) == 4


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
REF = RefPlan(stops=(1, 2, 3), n_stops=10, demand=1.0, conn_gain=0.1)


def test_check_route_passes_matching_route():
    assert check_route(True, [1, 2, 3], 2, 5, REF) is None


@pytest.mark.parametrize("found, stops, n_edges, k, fragment", [
    (False, None, 0, 5, "no route"),
    (True, [1, 2, 3], 6, 5, "edges > k"),
    (True, [1, 2, 30], 2, 5, "does not exist"),
    (True, [1, 3, 2], 2, 5, "differ from the in-process reference"),
])
def test_check_route_failures(found, stops, n_edges, k, fragment):
    assert fragment in check_route(found, stops, n_edges, k, REF)


def test_parse_plan_output():
    text = (
        "| stops                 | 11 -> 43 -> 44 -> 11 |\n"
        "| #edges (#new)         | 3 (2)                |\n"
    )
    assert parse_plan_output(text) == ([11, 43, 44, 11], 3)
    assert parse_plan_output("no feasible route found\n") == (None, 0)


# ----------------------------------------------------------------------
# Per-layer aggregation
# ----------------------------------------------------------------------
def _span(sid, name, start, end, parent=0, counters=None):
    return {"name": name, "start": start, "end": end, "id": sid,
            "parent": parent, "op": None, "pid": 1, "counters": counters}


def test_self_time_subtracts_nested_layers():
    spans = [
        _span(1, "data.trips", 0.0, 10.0),
        _span(2, "network.sp", 1.0, 4.0, parent=1),
        _span(3, "network.sp", 2.0, 3.0, parent=2),  # nested search
        _span(4, "spectral.lanczos", 5.0, 6.0, parent=1, counters={"columns": 7}),
    ]
    m = layers.layer_metrics(spans, n_ops=2)
    assert m["data.trips_s"] == pytest.approx((10.0 - 3.0) / 2)
    assert m["network.sp_s"] == pytest.approx(3.0 / 2)
    assert m["network.sp_calls"] == 0.5
    assert m["spectral.lanczos_columns"] == 3.5


def test_uncovered_share():
    spans = [_span(1, "a", 0.0, 1.0), _span(2, "b", 0.5, 2.0), _span(3, "c", 3.0, 3.5)]
    assert layers.uncovered_share(spans, [(0.0, 4.0)]) == pytest.approx(1.5 / 4.0)
    assert layers.uncovered_share(spans, [(0.0, 1.0), (0.5, 2.0)]) == 0.0
