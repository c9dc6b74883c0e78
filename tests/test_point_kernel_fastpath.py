"""The filter-and-refine point kernel equals the exact path, bit for bit.

``index.cell_from_point(..., plane=False)`` picks cells from a one-sine
approximate forward (``projection._forward_one_sine``) and sends every
row that the approximation could move to the exact ``forward`` + planar
step (``index._cell_from_lonlat``).  These tests compare it with the
exact path on seeded points and on adversarial ones (poles, the
|sin beta| = 2/3 latitudes, seam and face-edge longitudes, inverse-
projected cell vertices nudged by 1 to 1000 ulp) at res 0-14, and bound
the share of refined rows, so a margin that quietly sends every row
down the exact path fails here instead of only slowing the kernel.

Needs neither the reference library nor Ray.
"""

from __future__ import annotations

import functools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rhealpixdggs_py_ray.core import index as idx  # noqa: E402
from rhealpixdggs_py_ray.core import projection as prj  # noqa: E402
from rhealpixdggs_py_ray.core.config import (  # noqa: E402
    UNIT_003,
    WGS84_002,
    WGS84_003,
    WGS84_003_RADIANS,
    WGS84_123,
    EngineConfig,
)
from rhealpixdggs_py_ray.core.utils import auth_lat  # noqa: E402
from rhealpixdggs_py_ray.fixtures import phash_to_lonlat, splitmix64  # noqa: E402

# Configs of auth_lat's series branch take the filter and refine.
FAST = {
    "WGS84_003": WGS84_003,
    "WGS84_002": WGS84_002,
    "WGS84_123": WGS84_123,
    "WGS84_003_RADIANS": WGS84_003_RADIANS,
    "LON_0": EngineConfig(lon_0=40.0),
    "LAT_0": EngineConfig(lat_0=-25.0),
    "F_150": EngineConfig(f=1 / 150.5),
    "F_TINY": EngineConfig(f=1e-22),  # sin(beta) = sin(phi): one coefficient
}
# A sphere and a flattening past 1/150 keep the exact path.
EXACT = {"UNIT_003": UNIT_003, "FLAT_003": EngineConfig(f=1 / 100)}
RES = range(15)
NUDGES = (0, 1, -1, 10, -10, 100, -100, 1000, -1000)  # ulp


def _uniform_pairs(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    z = splitmix64(np.arange(offset, offset + n, dtype=np.uint64))
    u = (z >> np.uint64(32)).astype(np.float64) / 2**32
    v = (z & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2**32
    return u, v


def _nudged(v: np.ndarray) -> np.ndarray:
    """(len(NUDGES), n): v moved by each of NUDGES ulp."""
    return np.stack([v + k * np.spacing(v) for k in NUDGES])


def exact_cells(cfg: EngineConfig, res: int, lon, lat) -> np.ndarray:
    """The exact path: forward, then the planar step."""
    x, y = prj.forward(cfg, lon, lat)
    return idx.cell_from_point(cfg, res, x, y, plane=True)


@functools.lru_cache(maxsize=None)
def points(name: str) -> tuple[np.ndarray, np.ndarray]:
    cfg = {**FAST, **EXACT}[name]
    half = cfg.pi()
    unit = half / 180.0  # degrees -> the config's angle unit
    lon0, lat0 = cfg.lon_0, cfg.lat_0
    lons, lats = [], []

    def add(lo, la):
        lo, la = np.broadcast_arrays(np.asarray(lo, float), np.asarray(la, float))
        lons.append(lo.ravel())
        lats.append(la.ravel())

    # Uniform on the sphere, then uniform in latitude (denser at the poles).
    u, v = _uniform_pairs(20_000, 1 << 30)
    add(-half + 2 * half * u, np.arcsin(2 * v - 1) * (half / math.pi))
    u, v = _uniform_pairs(5_000, 1 << 31)
    add(-half + 2 * half * u, (v - 0.5) * half)

    # Poles and their neighbourhood, in the projection's frame.
    ring = -half + 2 * half * np.arange(17) / 16
    near = np.array([s * (90.0 - d) * unit for s in (-1, 1) for d in (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2)])
    pole_lon, pole_lat = (a.ravel() for a in np.broadcast_arrays(
        lon0 + ring[:, None, None], _nudged(lat0 + near)[None]))
    add(pole_lon, pole_lat)

    # The latitudes where |sin beta| = 2/3 (geodetic and, as a decoy,
    # authalic), nudged, at seeded longitudes.
    band = math.asin(2 / 3)
    geodetic = float(auth_lat(np.array([band]), cfg, inverse=True, radians=True)[0])
    u, _ = _uniform_pairs(64, 1 << 32)
    for b in (band, geodetic):
        for s in (-1, 1):
            add(-half + 2 * half * u[:, None], _nudged(np.array([lat0 + s * b * half / math.pi])).T)

    # Lon +-180, the face seams and the cap centres, nudged.
    seams = np.array([k * 45.0 * unit for k in range(-4, 5)]) + lon0
    _, v = _uniform_pairs(200, 1 << 33)
    add(_nudged(seams).ravel()[:, None], np.arcsin(2 * v - 1)[None, :] * (half / math.pi))

    # Cell vertices: every res-1 cell, seeded res-9 and res-14 cells
    # and the res 9-14 cells around the poles (where sigma amplifies
    # the error), inverse-projected and nudged in lon, in lat, or both.
    u, v = _uniform_pairs(400, 1 << 34)
    lo, la = -half + 2 * half * u, np.arcsin(2 * v - 1) * (half / math.pi)
    cells = [exact_cells(cfg, 1, *points_grid(half))]
    cells += [exact_cells(cfg, r, lo, la) for r in (9, 14)]
    cells += [exact_cells(cfg, r, pole_lon, pole_lat) for r in range(9, 15)]
    cells = np.unique(np.concatenate(cells))
    cells = cells[cells != idx.INVALID]
    vert = idx.vertices_plane(cfg, cells)
    vlon, vlat, ok = prj.inverse(cfg, vert[:, :, 0].ravel(), vert[:, :, 1].ravel())
    vlon, vlat = vlon[ok], vlat[ok]
    add(_nudged(vlon), vlat)
    add(vlon, _nudged(vlat))
    add(_nudged(vlon), _nudged(vlat))

    # Not numbers: INVALID on both paths.
    add([np.nan, 0.0, np.inf, -np.inf], [0.0, np.nan, 10.0, 10.0])
    return np.concatenate(lons), np.concatenate(lats)


def points_grid(half: float) -> tuple[np.ndarray, np.ndarray]:
    """A coarse lon/lat grid that meets every res-1 cell."""
    g = np.linspace(-half, half, 73)[:-1]
    lon, lat = np.meshgrid(g, g / 2, indexing="ij")
    return lon.ravel(), lat.ravel()


@pytest.mark.parametrize("name", list(FAST) + list(EXACT))
def test_cells_equal_exact_path(name):
    cfg = {**FAST, **EXACT}[name]
    lon, lat = points(name)
    with np.errstate(invalid="ignore"):
        x, y = prj.forward(cfg, lon, lat)
        for r in RES:
            got = idx.cell_from_point(cfg, r, lon, lat, plane=False)
            want = idx.cell_from_point(cfg, r, x, y, plane=True)
            bad = np.flatnonzero(got != want)
            assert bad.size == 0, (
                f"{name} res {r}: {bad.size} of {lon.size} differ, first at "
                f"lon={lon[bad[0]]!r} lat={lat[bad[0]]!r}: {got[bad[0]]:#x} != {want[bad[0]]:#x}"
            )


@pytest.mark.parametrize("name", list(FAST))
def test_adversarial_points_are_refined(name):
    """The adversarial points do reach the exact path (the equality
    above is not vacuous), and so do points exactly at the poles."""
    cfg = FAST[name]
    lon, lat = points(name)
    with np.errstate(invalid="ignore"):
        for r in (0, 9, 14):
            _, refined = idx._cell_from_lonlat(cfg, r, lon, lat)
            assert refined > 0
        pole = np.array([cfg.lon_0, cfg.lon_0 + 45 * cfg.pi() / 180])
        for s in (-1, 1):
            lat_p = np.full(2, cfg.lat_0 + s * cfg.pi() / 2)
            assert idx._cell_from_lonlat(cfg, 9, pole, lat_p)[1] == 2


@pytest.mark.parametrize("name", list(EXACT))
def test_exact_configs_keep_the_exact_path(name):
    assert EXACT[name].auth_sin_coeffs is None


@pytest.mark.parametrize("f", [1 / 298.257223563, 1 / 150.5, 1e-22])
def test_one_sine_error_within_bound(f):
    """The certificate's premise: the one-sine sin(beta) is within a
    tenth of _SIN_BETA_ERR of the sin of forward's series beta."""
    cfg = EngineConfig(f=f)
    phi = np.concatenate([
        np.linspace(-math.pi / 2, math.pi / 2, 1_000_001),
        (_uniform_pairs(1_000_000, 1 << 35)[0] - 0.5) * math.pi,
    ])
    _, _, a = prj._forward_one_sine(EngineConfig(f=f, radians=True), np.zeros_like(phi), phi)
    want = np.abs(np.sin(auth_lat(phi, cfg, radians=True)))
    assert np.abs(a - want).max() <= idx._SIN_BETA_ERR / 10


def test_refine_share_at_res_9():
    """At most 1e-4 of 1M seeded rows take the exact path at res 9,
    for points uniform on the sphere and for the fixture rule."""
    n = 1 << 20
    u, v = _uniform_pairs(n, 1 << 36)
    sphere = (-180.0 + 360.0 * u, np.degrees(np.arcsin(2 * v - 1)))
    fixture = phash_to_lonlat(splitmix64(np.arange(n, dtype=np.uint64)).view(np.int64))
    for lon, lat in (sphere, fixture):
        _, refined = idx._cell_from_lonlat(WGS84_003, 9, lon, lat)
        assert refined <= 1e-4 * n, refined
