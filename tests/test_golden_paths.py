"""Golden oracle for everything built from shortest road paths.

Pins one sha256 per canned city and profile over the outputs that come
from shortest paths: the dataset fingerprint (road demand ``f_e`` and
transit route geometry), the synthetic trip records and how many of them
were accepted, the candidate-edge universe at ``tau = 0.5 km``
(length, demand and road path of every edge) and the trajectories of the
first 300 trips. Any change to how the shortest-path engine is called,
how paths are walked or which trips are accepted shows up here byte for
byte. Float fields are hashed through ``float.hex`` so the digest does
not depend on the float type a caller happens to return.

``tiny`` and ``small`` run in tier-1; the ``bench`` pins are ``slow``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.seeding import build_edge_universe
from repro.data.datasets import CITY_NAMES, canned_city
from repro.sweep.cache import dataset_fingerprint
from repro.trajectory.trips import trips_to_trajectories

GOLDEN = {
    ("chicago", "tiny"):
        "1a1b65a29db1f4c5c04b7f7ba1baa1a2786c1e58749d8d5c489a3f425dcb9e1a",
    ("chicago", "small"):
        "c9a338ab6351a213f153b8b4a44154caa654c817381a943c85fb70c013d9f8b8",
    ("chicago", "bench"):
        "e100da79fa7825f1c45e2437689821e84b0549efdfd7d3a38a44a39d41cb9e04",
    ("nyc", "tiny"):
        "d032134a0f9670aa8261e409b70826ec9e9e62f3f15b521b6a5a7061c7712cc2",
    ("nyc", "small"):
        "58c12079fa28aa2dba7e889b8717315623114769faf332c198d906494f04ab1e",
    ("nyc", "bench"):
        "59b2d8bdead925acb9760396ea5c33d163fdd122ce3515516df46bd4507cec0c",
    ("manhattan", "tiny"):
        "74a44ae74c321fae38ce43b8e5d8e2d1dae47032d5ff627445e1624cecbd4f41",
    ("manhattan", "small"):
        "c2cae7c2d694a45ca1dc742804496e9b2b43690e9b70238a6ba8407c5bb9fd17",
    ("manhattan", "bench"):
        "153ff47ee3b2dc468ea248d47e9d65802e192e00d75254376364c164a76342aa",
    ("queens", "tiny"):
        "a10972cb0686ecf63bd86f1cd716c2ff5ced8c5768b268ce7ab3dcb21c53b98b",
    ("queens", "small"):
        "f0f0beae36383a9591296d963a06e74bcf9ab1255b1ec7ec4796d23a9b815a23",
    ("queens", "bench"):
        "0d55cd28fbb72de3011bddab193df73f476426363b6ef9e7cc99ee2a22050c06",
    ("brooklyn", "tiny"):
        "5879fcb8e598058845a081a125af4280ee569c6c3121dc8d564259c4f945658d",
    ("brooklyn", "small"):
        "0602c9e1039b868dfd7894c7f04c25223e631e4ba386fb08d06740764c2668d4",
    ("brooklyn", "bench"):
        "d1edea530d982c983fd18350f9997d66730c27b5e66ed2a322822783680520ef",
    ("staten_island", "tiny"):
        "94cb631ea2bca0a7fdd51dddc7f1bd57835c0b263f65665d4c21c5f6bfb21067",
    ("staten_island", "small"):
        "9ac01d0a3a58dde2c009dc8a9416df4f5fdf569543246bcadf27a0ac1c4ac9d4",
    ("staten_island", "bench"):
        "d89a9bc5f158548032b15cdf07ea46daff925d1632c24751b6796e80067f5ec1",
    ("bronx", "tiny"):
        "92d9abd3ebf11bb3d66b62ef2fd3784900221633a24786c14b0b9bf8f7c7418c",
    ("bronx", "small"):
        "b9c1214835d1895fbde1d81f5403bd84a24825976723b59db68c205b66261e32",
    ("bronx", "bench"):
        "00d6147cd2c4517cfe02d34a76505f29f79a74a2efee49d968eb08cf6c1dd39b",
}


def _hex(x) -> str:
    return float(x).hex()


def golden_digest(city: str, profile: str) -> str:
    """sha256 over the shortest-path-derived outputs of one canned city."""
    ds = canned_city(city, profile)
    h = hashlib.sha256()
    h.update(dataset_fingerprint(ds).encode())
    h.update(repr(ds.accepted_trips).encode())
    for t in ds.trips:
        h.update(repr((t.pickup_vertex, t.dropoff_vertex, _hex(t.distance_km),
                       _hex(t.duration_min))).encode())
    for e in build_edge_universe(ds, 0.5).edges:
        h.update(repr((e.u, e.v, _hex(e.length), _hex(e.demand), e.is_new,
                       tuple(e.road_path))).encode())
    for traj in trips_to_trajectories(ds.road, ds.trips[:300]):
        h.update(repr((traj.vertices, traj.edges,
                       tuple(_hex(t) for t in traj.timestamps))).encode())
    return h.hexdigest()


def _cases(profiles):
    return [pytest.param(c, p, id=f"{c}-{p}") for p in profiles for c in CITY_NAMES]


@pytest.mark.parametrize("city,profile", _cases(("tiny", "small")))
def test_golden_shortest_path_outputs(city, profile):
    assert golden_digest(city, profile) == GOLDEN[(city, profile)]


@pytest.mark.slow
@pytest.mark.parametrize("city,profile", _cases(("bench",)))
def test_golden_shortest_path_outputs_bench(city, profile):
    assert golden_digest(city, profile) == GOLDEN[(city, profile)]
