"""Point->cell indexing and cell geometry: frozen reference goldens."""

import math

import numpy as np
import pytest

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import (
    EngineConfig,
    UNIT_003,
    WGS84_003,
    WGS84_123,
)

PI = math.pi


def cells(cfg, res, lon, lat, plane=False):
    u = idx.cell_from_point(cfg, res, np.atleast_1d(lon), np.atleast_1d(lat), plane=plane)
    return su.to_string(u).tolist()


def test_cell_from_point_goldens():
    # rhp_wrappers.py:64-67
    assert cells(WGS84_003, 9, -176.260506, -43.738058) == ["S001450634"]
    assert cells(WGS84_003, 9, -176.258807, -43.738379) == ["S001450635"]
    # dggs.py:749-752 (planar)
    assert cells(WGS84_003, 1, 0.0, 0.0, plane=True) == ["Q3"]
    # dggs.py:50-53 — WGS84_123 (0, 45) res 1 -> N8
    assert cells(WGS84_123, 1, 0.0, 45.0) == ["N8"]


def test_cell_from_point_offgrid():
    u = idx.cell_from_point(
        WGS84_003, 1, np.array([1e9]), np.array([1e9]), plane=True
    )
    assert u[0] == idx.INVALID


def test_cell_from_point_rejects_unpackable_resolution():
    """Resolution 15 has no nibble left: it used to OR the 15th digit
    into the resolution field ('Q33333333333041?')."""
    from rhealpixdggs_py_ray.core import wrappers as W

    assert su.MAX_PACK_RESOLUTION == 14
    assert len(W.geo_to_rhp(20.0, 10.0, su.MAX_PACK_RESOLUTION)) == 15
    with pytest.raises(ValueError, match="resolution 15 > 14"):
        idx.cell_from_point(WGS84_003, 15, np.array([10.0]), np.array([20.0]), plane=False)
    with pytest.raises(ValueError, match="resolution 15 > 14"):
        W.geo_to_rhp(20.0, 10.0, 15)


def test_spread_digits_matches_per_level_loop():
    """The digit table packs exactly what the per-level
    ``(v // N**k) % N`` loop packed, including values that wrap past
    N**res."""
    rng = np.random.default_rng(5)
    for N in (2, 3):
        for res in range(1, su.MAX_PACK_RESOLUTION + 1):
            top = N**res
            v = np.concatenate([rng.integers(0, top, 300), [0, top - 1, top, 2 * top + 7, -1, -top]])
            want = np.zeros(len(v), dtype=np.uint64)
            for i in range(res):
                k = res - 1 - i
                want |= ((v // N**k) % N).astype(np.uint64) << np.uint64(4 * k)
            assert np.array_equal(idx._spread_digits(v.astype(np.int64), N, res), want), (N, res)


def test_ul_vertex_goldens():
    # cell.py:500 (UNIT_003 N0 -> (-pi, 3pi/4))
    u = su.from_string(["N0"])
    x, y = idx.ul_vertex(UNIT_003, u)
    assert (x[0], y[0]) == (-PI, 3 * PI / 4)
    # cell.py:552-585 (WGS84_003 planar ul vertices)
    u = su.from_string(["P57", "S4", "N43", "S43", "N62", "S62"])
    x, y = idx.ul_vertex(WGS84_003, u)
    expect = [
        (-2223901.0395045895, -555975.2598761478),
        (-16679257.796284417, -8339628.898142208),
        (-16679257.796284417, 10563529.937646799),
        (-16679257.796284417, -9451579.417894501),
        (-17791208.316036712, 8339628.898142208),
        (-17791208.316036712, -11675480.457399093),
    ]
    # Last-ulp tolerance: the reference's docstring values were printed
    # on a different platform; executing the reference here (see
    # tests/test_differential.py) matches our output bit-for-bit.
    for i, (ex, ey) in enumerate(expect):
        assert abs(float(x[i]) - ex) <= 1e-7  # a few ulps at 1.7e7 m
        assert abs(float(y[i]) - ey) <= 1e-7


def test_nw_vertex_goldens():
    # cell.py:552-585
    cases = [
        ("P57", (-2223901.0395045895, -555975.2598761478)),
        ("S4", (-16679257.796284417, -8339628.898142208)),
        ("N43", (-15567307.276532121, 10563529.937646799)),
        ("S43", (-16679257.796284417, -10563529.937646795)),
        ("N62", (-16679257.796284417, 8339628.898142208)),
        ("S62", (-16679257.796284417, -12787430.977151388)),
    ]
    u = su.from_string([c for c, _ in cases])
    v = idx.vertices_plane(WGS84_003, u)
    iw = idx.nw_vertex_index(WGS84_003, u)
    for i, (_, (ex, ey)) in enumerate(cases):
        assert abs(float(v[i, iw[i], 0]) - ex) <= 1e-7  # ulp-level platform drift
        assert abs(float(v[i, iw[i], 1]) - ey) <= 1e-7


def test_nucleus_golden():
    # cell.py:643-644 — UNIT_003 N nucleus
    u = su.from_string(["N"])
    x, y = idx.nucleus(UNIT_003, u, plane=True)
    assert round(float(x[0]), 14) == -2.35619449019234
    assert round(float(y[0]), 14) == 1.5707963267949


def test_vertices_goldens():
    # cell.py:673-678 — UNIT_003 N planar vertices
    u = su.from_string(["N"])
    v = idx.vertices(UNIT_003, u, plane=True)[0]
    expect = [
        (-3.14159265358979, 2.35619449019234),
        (-1.5707963267949, 2.35619449019234),
        (-1.5707963267949, 0.78539816339745),
        (-3.14159265358979, 0.78539816339745),
    ]
    for i, (ex, ey) in enumerate(expect):
        assert round(float(v[i, 0]), 14) == ex
        assert round(float(v[i, 1]), 14) == ey
    # cell.py:682-692 — WGS84_003 N0 ellipsoidal (dart)
    u = su.from_string(["N0"])
    v = idx.vertices(WGS84_003, u, plane=False)[0]
    expect = [
        (89.99999999999993, 74.42400670199599),
        (119.99999999999999, 41.93785391016014),
        (90.0, 41.93785391016014),
        (59.99999999999999, 41.93785391016014),
    ]
    for i, (ex, ey) in enumerate(expect):
        assert round(float(v[i, 0]), 14) == ex
        assert round(float(v[i, 1]), 14) == ey
    # cell.py:694-700 — S0 ellipsoidal
    u = su.from_string(["S0"])
    v = idx.vertices(WGS84_003, u, plane=False)[0]
    expect = [
        (150.0, -41.9378539101601),
        (-180.0, -41.9378539101601),
        (-150.0, -41.9378539101601),
        (-179.9999999999999, -74.424006701996),
    ]
    for i, (ex, ey) in enumerate(expect):
        assert round(float(v[i, 0]), 13) == ex
        assert round(float(v[i, 1]), 13) == ey


def test_shape_goldens():
    # cell.py:1015-1021 + FIXTURES 2.2
    ids = ["P2", "N2", "N", "N43", "S", "Q", "N44", "S001450634"]
    expect = ["quad", "dart", "cap", "skew_quad", "cap", "quad", "cap", "skew_quad"]
    u = su.from_string(ids)
    got = [idx.SHAPE_NAMES[s] for s in idx.shape_of(WGS84_003, u)]
    assert got == expect


def test_region_golden():
    u = su.from_string(["P2", "N2", "S88"])
    assert [idx.REGION_NAMES[r] for r in idx.region_of(u)] == [
        "equatorial",
        "north_polar",
        "south_polar",
    ]


def test_centroid_goldens():
    # rhp_wrappers.py:100-104 (real-scipy doctest values; our fixed
    # Gauss quadrature replaces dblquad — tolerance 1e-9)
    u = su.from_string(["S001450634", "S001450635"])
    lon, lat = idx.centroid(WGS84_003, u, plane=False)
    assert abs(lon[0] - -176.2606635452476) < 1e-9
    assert abs(lat[0] - -43.73654505358369) < 1e-9
    assert abs(lon[1] - -176.25592420875037) < 1e-9
    # quad: centroid lon == nucleus lon, lat = mean of vertex lats
    u = su.from_string(["P02"])
    clon, clat = idx.centroid(WGS84_003, u, plane=False)
    nlon, _ = idx.nucleus(WGS84_003, u, plane=False)
    assert clon[0] == nlon[0]
    # planar centroid == nucleus (cell.py:1070-1073)
    u = su.from_string(["P02"])
    assert idx.centroid(WGS84_003, u, plane=True)[0][0] == idx.nucleus(WGS84_003, u, plane=True)[0][0]


def test_centroid_memory_is_bounded_by_its_chunk():
    """centroid integrates skew and dart cells ``_CENTROID_CHUNK`` at a
    time, so a large batch peaks at a few chunks' temporaries: 4,096
    skew and 256 dart cells of face N at res 5 stay under 64 MB of
    traced allocations (integrated all at once they peaked at 544 MB)."""
    import tracemalloc

    r = 5
    k = np.arange(9**r, dtype=np.int64)
    digits = np.empty((k.size, r), dtype=np.int64)
    for i in range(r - 1, -1, -1):
        digits[:, i] = k % 9
        k //= 9
    u = su.pack(np.zeros(k.size, dtype=np.int64), digits, r)
    shape = idx.shape_of(WGS84_003, u)
    u = np.concatenate([u[shape == idx.SHAPE_SKEW][:4096], u[shape == idx.SHAPE_DART][:256]])
    tracemalloc.start()
    try:
        lon, lat = idx.centroid(WGS84_003, u, plane=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(lon).all() and np.isfinite(lat).all()
    assert peak < 64 * 2**20, peak / 2**20


def test_cell_area_golden():
    # rhp_wrappers.py:348-353
    assert WGS84_003.cell_area(9, plane=False) == 219428.08748562282
    assert WGS84_003.cell_area(8, plane=False) / 1e6 == 1.9748527873706059


def test_cell_width_golden():
    # dggs.py:680-683
    assert UNIT_003.cell_width(0) == PI / 2
    assert UNIT_003.cell_width(1) == PI / 6
    # dggs.py:697-700
    a = UNIT_003.cell_area(1)
    assert a == (PI / 6) ** 2
    assert UNIT_003.cell_area(1, plane=False) == 8 / (3 * PI) * a


def test_cell_from_region_golden():
    # dggs.py:856-861
    c = idx.cell_from_region(UNIT_003, (0, PI / 12), (PI / 6 - 1e-6, 0), plane=True)
    assert su.to_string(np.array([c], dtype=np.uint64))[0] == "Q3"


def test_max_resolution():
    # dggs.py:36 — WGS84_003 max_resolution 15
    assert WGS84_003.max_resolution == 15
    assert UNIT_003.max_resolution == 1


def test_num_cells_formulas():
    # dggs.py:648-657
    k = 9
    assert 6 * (k ** (0 + 1) - k**0) // (k - 1) == 6
    cfg = WGS84_003
    def num_cells(res_1, res_2=None, subcells=False):
        kk = cfg.N_side**2
        if subcells:
            if res_2 is None or res_2 < res_1:
                res_2 = cfg.max_resolution
            return int((kk ** (res_2 - res_1 + 1) - 1) / (kk - 1))
        if res_2 is None or res_2 < res_1:
            res_2 = res_1
        return int(6 * (kk ** (res_2 + 1) - kk**res_1) / (kk - 1))
    assert num_cells(0) == 6
    assert num_cells(0, 1) == 60
    assert num_cells(0, subcells=True) == 231627523606480
    assert num_cells(0, 1, subcells=True) == 10
    assert num_cells(5, 6, subcells=True) == 10


def test_roundtrip_point_cell_nucleus():
    """Property: indexing a cell's own nucleus returns the cell."""
    rng = np.random.default_rng(9)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(-85, 85, 500)
    u = idx.cell_from_point(WGS84_003, 6, lon, lat, plane=False)
    nlon, nlat = idx.nucleus(WGS84_003, u, plane=False)
    u2 = idx.cell_from_point(WGS84_003, 6, nlon, nlat, plane=False)
    assert (u == u2).all()
