"""The join cover: a dense, walk-free build and a prefix-bitmap probe.

``polyfill_dense`` enumerates every res-r cell and tags it from
``index.centroid_box``; it must equal ``wrappers.polyfill_u64`` (the
``cells_from_region`` walk + centroid test), which stays the reference.
``CoverSemiJoin`` probes a bitmap over the raw res-r prefix; it must
keep exactly the rows the old ``su.parent`` + ``searchsorted`` probe
over the sorted cover keys kept.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core import wrappers as W
from rhealpixdggs_py_ray.core.config import (
    WGS84_002, WGS84_003, WGS84_003_RADIANS, WGS84_123, EngineConfig,
)
from rhealpixdggs_py_ray.fixtures import splitmix64
from rhealpixdggs_py_ray.stages.join import (
    CoverSemiJoin, cover_cells, make_cover_ref, polyfill_dense,
)

BAND = geo.Polygon([(-150.0, 55.0), (150.0, 55.0), (150.0, -40.0), (-150.0, -40.0)])
HOLED = geo.Polygon(
    shell=[(-10, -10), (50, -10), (50, 40), (-10, 40), (-10, -10)],
    holes=[
        [(-5, 5), (25, 20), (45, 5), (-5, 5)],
        [(-5, 25), (25, 30), (45, 25), (-5, 25)],
    ],
)
SHAPES = {
    "band": BAND,
    "north": geo.Polygon([(-120.0, 80.0), (60.0, 80.0), (60.0, 50.0), (-120.0, 50.0)]),
    "south": geo.Polygon([(-170.0, -50.0), (170.0, -50.0), (170.0, -89.0), (-170.0, -89.0)]),
    "small": geo.Polygon([(10.1, 10.2), (12.3, 10.2), (12.3, 11.7), (10.1, 11.7)]),
    "triangle": geo.Polygon([(-100.0, -30.0), (40.0, 70.0), (120.0, -60.0)]),
    "world": geo.Polygon([(-180.0, -90.0), (180.0, -90.0), (180.0, 90.0), (-180.0, 90.0)]),
    "holed": HOLED,
    "multi": geo.MultiPolygon([
        HOLED,
        geo.Polygon(
            shell=[(0, 75), (-30, 42), (0, 42), (30, 42), (0, 75)],
            holes=[[(0, 70), (5, 60), (-5, 60), (0, 70)]],
        ),
        geo.Polygon(
            shell=[(30, -42), (0, -75), (90, -75), (60, -42), (30, -42)],
            holes=[[(10, -70), (20, -65), (10, -65), (10, -70)]],
        ),
    ]),
}

# Res 5 runs the walk for minutes on the larger shapes, so its covers
# are pinned by (cells, SHA-256 of the sorted keys) of polyfill_u64's
# walk, evaluated with its centroid step in 2,048-cell chunks
# (centroid is per cell, so chunking leaves every bit as it is).
WALK_RES5 = {
    "band": (215276, "abe23372d36027649ec8e392d0b0f3ea59bb6fa2ccd895fef89206f2a4b7796b"),
    "north": (19608, "dea30ee0a4dafc5cf4c103f67d8f52ee6ca35c8bfba438b7c47fe45091387709"),
    "south": (39653, "a1bda76a8dcfbfa2f0fbc4d33a0b97b897f15d65dd7de912b2c44e73e379ee6a"),
    "small": (24, "9faf200da397b6535b91c3e4e9c4ab3539b6b9a1359153e1fb3101996470bed1"),
    "triangle": (98899, "aa13a7e34bcc3eebc91c6ccc60c36b5c7a17111eef44210c9af76e46ca1d0fdf"),
    "world": (354293, "a18bd0a6d06307f1843a7a228219a9f1705441de410b05a81cba20f0f4ee51d8"),
    "holed": (19794, "2095ed01951b314454199a9da619c12916bc90ac1e5ac4028eab45add6aab5c3"),
    "multi": (32715, "c69e55cdd0fb03b6f5fa15d65465b18ed2b3c7d568b76a6566cc5bb30beecc53"),
}


@pytest.mark.parametrize("res", range(5))
@pytest.mark.parametrize("name", list(SHAPES))
def test_dense_cover_equals_walk(name, res):
    walk = W.polyfill_u64(SHAPES[name], res, plane=False)
    assert np.array_equal(polyfill_dense(SHAPES[name], res), walk)


@pytest.mark.parametrize("name", list(SHAPES))
def test_dense_cover_res5_equals_walk_digest(name):
    keys = polyfill_dense(SHAPES[name], 5)
    n, sha = WALK_RES5[name]
    assert len(keys) == n and hashlib.sha256(keys.tobytes()).hexdigest() == sha


@pytest.mark.parametrize("cfg", [WGS84_123, WGS84_003_RADIANS], ids=["squares_1_2", "radians"])
@pytest.mark.parametrize("res", range(4))
def test_dense_cover_equals_walk_other_configs(cfg, res):
    scale = 1.0 if not cfg.radians else np.pi / 180
    for name in ("band", "north", "south", "multi"):
        g = _scaled(SHAPES[name], scale)
        walk = W.polyfill_u64(g, res, plane=False, cfg=cfg)
        assert np.array_equal(polyfill_dense(g, res, cfg=cfg), walk), name


@pytest.mark.parametrize("res", range(4))
def test_dense_cover_equals_walk_in_the_plane(res):
    r = WGS84_003.R_A
    box = geo.Polygon([(-2.1 * r, 0.3 * r), (1.7 * r, 0.3 * r), (1.7 * r, -0.7 * r), (-2.1 * r, -0.7 * r)])
    tri = geo.Polygon([(-2.9 * r, -0.1 * r), (-1.2 * r, 0.7 * r), (-0.7 * r, -0.4 * r)])
    polar = geo.Polygon([(-3.0 * r, 0.5 * r), (-2.2 * r, 2.0 * r), (-1.8 * r, 0.6 * r)])
    for g in (box, tri, polar):
        assert np.array_equal(polyfill_dense(g, res, plane=True), W.polyfill_u64(g, res, plane=True))


def _scaled(g, s):
    if g.geom_type == "MultiPolygon":
        return geo.MultiPolygon([_scaled(p, s) for p in g.geoms])
    ring = lambda r: [(x * s, y * s) for x, y in r]  # noqa: E731
    return geo.Polygon(ring(g.shell), [ring(h) for h in g.holes])


@pytest.mark.parametrize("cfg", [WGS84_003, WGS84_123, WGS84_003_RADIANS],
                         ids=["wgs84_003", "squares_1_2", "radians"])
def test_centroid_box_holds_every_centroid(cfg):
    """Every cell's exact centroid lies in its box, res 0-4, and only
    skew and dart cells have boxes wider than a point."""
    for res in range(5):
        u = su.tile_from_rank(np.arange(su.num_tile_ranks(res)), res)
        x_lo, x_hi, y_lo, y_hi = idx.centroid_box(cfg, u, plane=False)
        for s in range(0, len(u), 2048):
            part = slice(s, s + 2048)
            cx, cy = idx.centroid(cfg, u[part], plane=False)
            assert ((x_lo[part] <= cx) & (cx <= x_hi[part])).all(), res
            assert ((y_lo[part] <= cy) & (cy <= y_hi[part])).all(), res
        shape = idx.shape_of(cfg, u)
        wide = (x_lo != x_hi) | (y_lo != y_hi)
        assert not wide[(shape == idx.SHAPE_QUAD) | (shape == idx.SHAPE_CAP)].any()


def test_centroid_box_in_the_plane_is_the_nucleus():
    u = su.tile_from_rank(np.arange(su.num_tile_ranks(2)), 2)
    x_lo, x_hi, y_lo, y_hi = idx.centroid_box(WGS84_003, u, plane=True)
    cx, cy = idx.nucleus(WGS84_003, u, plane=True)
    assert np.array_equal(x_lo, cx) and np.array_equal(x_hi, cx)
    assert np.array_equal(y_lo, cy) and np.array_equal(y_hi, cy)


def test_boxes_touch_polygon():
    sq = geo.Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)], [[(4, 4), (6, 4), (6, 6)]])
    lo_x = np.array([1.0, 9.0, -5.0, 20.0, 4.5, 5.5, 0.0, -np.inf])
    hi_x = np.array([2.0, 11.0, 15.0, 21.0, 5.0, 5.6, 0.0, 1.0])
    lo_y = np.array([1.0, 1.0, 2.0, 20.0, 4.1, 5.55, 5.0, 1.0])
    hi_y = np.array([2.0, 2.0, 3.0, 21.0, 4.2, 5.7, 5.0, 2.0])
    want = [False, True, True, False, False, True, True, True]
    assert geo.boxes_touch_polygon(lo_x, hi_x, lo_y, hi_y, sq).tolist() == want


# ---------------------------------------------------------------------------
# The probe
# ---------------------------------------------------------------------------

def _sorted_key_probe(keys, u, res, anti=False):
    """The probe before the bitmap: su.parent + searchsorted over the
    sorted cover keys."""
    anc = su.parent(u, res)
    if len(keys) == 0:
        hit = np.zeros(len(u), dtype=bool)
    else:
        pos = np.minimum(np.searchsorted(keys, anc), len(keys) - 1)
        hit = keys[pos] == anc
    return ~hit if anti else hit


def _probe_cells(n: int) -> np.ndarray:
    """Seeded cells at res 0-9 (coarser and finer than any cover), plus
    INVALID rows."""
    z = splitmix64(np.arange(n, dtype=np.uint64))
    face = (z % np.uint64(6)).astype(np.int64)
    digits = ((z[:, None] >> (np.arange(9, dtype=np.uint64) * np.uint64(4) + np.uint64(3)))
              % np.uint64(9)).astype(np.int64)
    parts = [su.pack(face[r::10], digits[r::10, :r], r) for r in range(10)]
    return np.concatenate(parts + [np.full(7, idx.INVALID, dtype=np.uint64)])


@pytest.mark.parametrize("res", range(su.MAX_TILE_RES + 1))
def test_bitmap_probe_matches_sorted_key_probe(ray_session, res):
    import ray

    ref, n_cells = make_cover_ref(SHAPES["multi"] if res < 5 else SHAPES["small"], res)
    bitmap = ray.get(ref)
    keys = cover_cells(bitmap, res)
    assert bitmap.dtype == bool and bitmap.shape == (16 ** (res + 1),)
    assert n_cells == len(keys) > 0
    u = _probe_cells(20_000)
    batch = pa.table({"cell_u64": pa.array(u)})
    for anti in (False, True):
        semi = CoverSemiJoin(ref, res, anti=anti)
        want = _sorted_key_probe(keys, u, res, anti)
        assert np.array_equal(semi.hits(u), want)
        assert semi(batch)["cell_u64"].to_numpy().tolist() == u[want].tolist()
        # INVALID rows: dropped by the semi-join, kept by the anti-join.
        assert (semi.hits(u[-7:]) == anti).all()


def test_band_cover_cell_counts(ray_session):
    assert make_cover_ref(BAND, 3)[1] == 2646
    assert make_cover_ref(BAND, 2)[1] == 297


def test_empty_cover_keeps_nothing(ray_session):
    ref, n_cells = make_cover_ref(geo.Polygon(shell=[(0, 0), (10, 10), (10, 0), (0, 10), (0, 0)]), 3)
    u = _probe_cells(1000)
    assert n_cells == 0
    assert not CoverSemiJoin(ref, 3).hits(u).any()
    assert CoverSemiJoin(ref, 3, anti=True).hits(u).all()


def test_cover_limits(ray_session):
    with pytest.raises(ValueError):
        make_cover_ref(BAND, su.MAX_TILE_RES + 1)
    with pytest.raises(ValueError):
        make_cover_ref(BAND, 2, cfg=WGS84_002)
    with pytest.raises(ValueError):
        polyfill_dense(BAND, -1)
    with pytest.raises(ValueError):  # recentred: the walk is not its reference
        polyfill_dense(BAND, 2, cfg=EngineConfig(lon_0=40.0))
    ref, _ = make_cover_ref(BAND, 2)
    with pytest.raises(ValueError):
        CoverSemiJoin(ref, su.MAX_TILE_RES + 1)
    with pytest.raises(ValueError):
        CoverSemiJoin(ref, 3)  # a res-2 bitmap probed as res 3
