"""The lon/lat wrap runs only on out-of-range input.

``prj._geodetic_radians`` skips ``wrap_longitude``/``wrap_latitude``
when min/max show every value in range.  ``forward``,
``_forward_one_sine`` and ``cell_from_point(..., plane=False)`` must
give, bit for bit, what they give when the wraps always run, at the
range edges, one ulp past them, far out, on NaN/inf, and on empty and
0-D input.  No Ray, no reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import projection as prj
from rhealpixdggs_py_ray.core.config import WGS84_003, WGS84_003_RADIANS, EngineConfig
from rhealpixdggs_py_ray.core.utils import wrap_latitude, wrap_longitude

CONFIGS = {
    "wgs84_003": WGS84_003,
    "radians": WGS84_003_RADIANS,
    "lon_0_40": EngineConfig(lon_0=40.0),
}


def _always_wrap(cfg, u, v):
    lam = wrap_longitude(u - cfg.lon_0, radians=cfg.radians)
    phi = wrap_latitude(v - cfg.lat_0, radians=cfg.radians)
    if not cfg.radians:
        lam = np.deg2rad(lam)
        phi = np.deg2rad(phi)
    return lam, phi


def _edge_values(cfg):
    half = cfg.pi()
    lons = [-half, half, np.nextafter(half, np.inf), np.nextafter(-half, -np.inf), -3 * half,
            1e6, 0.0, -0.0, 12.5]
    lats = [half / 2, -half / 2, np.nextafter(half / 2, np.inf), np.nextafter(half / 2, 0),
            np.nextafter(-half / 2, -np.inf), np.nextafter(-half / 2, 0), 0.0, 33.3 * half / 180]
    special = [np.nan, np.inf, -np.inf]
    return [x + cfg.lon_0 for x in lons] + special, lats + special


def _outputs(cfg, lon, lat):
    out = list(prj.forward(cfg, lon, lat))
    out += list(prj._forward_one_sine(cfg, lon, lat))
    for res in (0, 5, 9):
        out.append(idx.cell_from_point(cfg, res, lon, lat, plane=False))
    return out


def _same_bits(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def _check(monkeypatch, cfg, lon, lat):
    with np.errstate(invalid="ignore"):
        got = _outputs(cfg, lon, lat)
        with monkeypatch.context() as m:
            m.setattr(prj, "_geodetic_radians", _always_wrap)
            want = _outputs(cfg, lon, lat)
    _same_bits(got, want)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_each_edge_point_alone(monkeypatch, name):
    """One point per call, so each takes its own path: skip or wrap."""
    cfg = CONFIGS[name]
    lons, lats = _edge_values(cfg)
    for x, y in itertools.product(lons, lats):
        _check(monkeypatch, cfg, np.array([x]), np.array([y]))
        _check(monkeypatch, cfg, np.float64(x), np.float64(y))  # 0-D


@pytest.mark.parametrize("name", list(CONFIGS))
def test_edge_batches(monkeypatch, name):
    """A batch of in-range edges only (the skip path), and all of them."""
    cfg = CONFIGS[name]
    half = cfg.pi()
    lons, lats = _edge_values(cfg)
    grid = np.array(list(itertools.product(lons, lats)))
    inside = ((grid[:, 0] - cfg.lon_0 >= -half) & (grid[:, 0] - cfg.lon_0 < half)
              & (np.abs(grid[:, 1]) <= half / 2))
    assert 10 < inside.sum() < len(grid)
    for rows in (grid[inside], grid):
        _check(monkeypatch, cfg, rows[:, 0].copy(), rows[:, 1].copy())
    empty = np.empty(0)
    _check(monkeypatch, cfg, empty, empty)


def test_in_range_batch_skips_the_wraps(monkeypatch):
    """In-range input calls neither wrap; one value out of range, or a
    NaN, calls the wrap of its own coordinate."""
    calls = []

    def spy(name, f):
        def g(*a, **k):
            calls.append(name)
            return f(*a, **k)
        return g

    monkeypatch.setattr(prj, "wrap_longitude", spy("lon", wrap_longitude))
    monkeypatch.setattr(prj, "wrap_latitude", spy("lat", wrap_latitude))
    lon = np.array([-180.0, 0.0, 179.5])
    lat = np.array([-90.0, 0.0, 90.0])
    prj.forward(WGS84_003, lon, lat)
    assert calls == []
    prj.forward(WGS84_003, np.array([-180.0, 180.0]), lat[:2])
    assert calls == ["lon"]
    calls.clear()
    prj.forward(WGS84_003, lon, np.array([0.0, math.nan, 1.0]))
    assert calls == ["lat"]


def test_forward_one_sine_keeps_its_inputs():
    rng = np.random.default_rng(3)
    lon = rng.uniform(-180, 180, 4096)
    lat = rng.uniform(-90, 90, 4096)
    lon0, lat0 = lon.copy(), lat.copy()
    prj._forward_one_sine(WGS84_003, lon, lat)
    idx.cell_from_point(WGS84_003, 9, lon, lat, plane=False)
    assert lon.tobytes() == lon0.tobytes() and lat.tobytes() == lat0.tobytes()
    rad = np.deg2rad(lon), np.deg2rad(lat)
    rad0 = rad[0].copy(), rad[1].copy()
    prj._forward_one_sine(WGS84_003_RADIANS, *rad)
    assert rad[0].tobytes() == rad0[0].tobytes() and rad[1].tobytes() == rad0[1].tobytes()
