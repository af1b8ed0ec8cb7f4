"""Taxi trip records and the trip-to-trajectory conversion (Sec. 7.1.1).

A trip record holds only a pickup/drop-off vertex plus recorded travel
distance and time. Following the paper, each trip is realized as the
shortest road path between its endpoints and *accepted* as a trajectory
only when the path's distance and time are both within a tolerance
(default 5%) of the recorded values — otherwise the shortest path is a
poor proxy for the route actually driven and the trip is discarded.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from repro.network.road import RoadNetwork
from repro.network.shortest_path import ShortestPathTree
from repro.trajectory.trajectory import Trajectory
from repro.utils.errors import ValidationError

DEFAULT_TOLERANCE = 0.05
"""Paper: accept a shortest path within 5% of the recorded trip."""


@dataclass(frozen=True)
class TripRecord:
    """One taxi trip: endpoints plus odometer distance and duration."""

    pickup_vertex: int
    dropoff_vertex: int
    distance_km: float
    duration_min: float

    def __post_init__(self) -> None:
        if self.distance_km < 0:
            raise ValidationError(f"distance must be >= 0, got {self.distance_km}")
        if self.duration_min < 0:
            raise ValidationError(f"duration must be >= 0, got {self.duration_min}")


def _within(measured: float, recorded: float, tolerance: float) -> bool:
    if recorded <= 0:
        return measured <= 0
    return abs(measured - recorded) <= tolerance * recorded


def accepted_trip_paths(
    road: RoadNetwork,
    trips: list[TripRecord],
    tolerance: float = DEFAULT_TOLERANCE,
    check_time: bool = True,
) -> Iterator[tuple[TripRecord, ShortestPathTree, list[int]]]:
    """The trip-acceptance rule: yield ``(trip, tree, edges)`` per accepted trip.

    Trips are grouped by pickup vertex so each distinct origin costs one
    Dijkstra run; ``tree`` is that origin's length-shortest-path tree and
    ``edges`` the road edges from pickup to drop-off. A trip is accepted
    when its path length and, with ``check_time``, the travel time along
    that same path are within ``tolerance`` of the recorded values; a
    recorded 0 accepts only a measured 0. Unreachable trips are skipped.
    """
    if not 0 <= tolerance:
        raise ValidationError(f"tolerance must be >= 0, got {tolerance}")
    by_origin: dict[int, list[TripRecord]] = {}
    for trip in trips:
        by_origin.setdefault(trip.pickup_vertex, []).append(trip)

    adj_len = road.adjacency_lists("length")
    for origin, group in by_origin.items():
        tree = ShortestPathTree(adj_len, origin, targets={t.dropoff_vertex for t in group})
        for trip in group:
            d = tree.dist(trip.dropoff_vertex)
            if math.isinf(d) or not _within(d, trip.distance_km, tolerance):
                continue
            edges = tree.edges(trip.dropoff_vertex)
            if check_time:
                travel_time = sum(road.edge_travel_time(e) for e in edges)
                if not _within(travel_time, trip.duration_min, tolerance):
                    continue
            yield trip, tree, edges


def trips_to_trajectories(
    road: RoadNetwork,
    trips: list[TripRecord],
    tolerance: float = DEFAULT_TOLERANCE,
    check_time: bool = True,
) -> list[Trajectory]:
    """Convert trips to trajectories via tolerance-checked shortest paths.

    Acceptance follows :func:`accepted_trip_paths`; rejected trips are
    skipped.
    """
    out: list[Trajectory] = []
    for trip, tree, edges in accepted_trip_paths(road, trips, tolerance, check_time):
        times = [0.0]
        for e in edges:
            times.append(times[-1] + road.edge_travel_time(e))
        vertices = tree.vertices(trip.dropoff_vertex)
        out.append(Trajectory(tuple(vertices), tuple(edges), tuple(times)))
    return out
