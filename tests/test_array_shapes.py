"""The point kernels take inputs of any shape.

``projection.forward``, ``projection.inverse``,
``projection._forward_one_sine`` and ``index.cell_from_point`` broadcast
their two coordinate arrays, run on the raveled rows and give their
outputs the broadcast shape.  Each is checked bit for bit against the
same call on the raveled inputs, on 0-D, 2-D and 3-D inputs whose rows
include both polar caps.

Needs neither the reference library nor Ray.
"""

from __future__ import annotations

import numpy as np
import pytest

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import projection as prj
from rhealpixdggs_py_ray.core.config import UNIT_003, WGS84_002, WGS84_003

CONFIGS = {"WGS84_003": WGS84_003, "WGS84_002": WGS84_002, "UNIT_003": UNIT_003}
SHAPES = [(), (9, 12), (2, 3, 4)]


def lonlat(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (lon, lat) of ``shape``, about half of them in the polar
    caps (|lat| > 41.9); the 0-D point is polar."""
    rng = np.random.default_rng(2)
    lon = rng.uniform(-180, 180, shape)
    lat = rng.choice([-1.0, 1.0], shape) * rng.uniform(0, 89.9, shape)
    return lon, lat


def assert_same(got, want, shape):
    for g, w in zip(got, want):
        assert g.shape == shape
        assert g.dtype == w.dtype
        assert np.array_equal(g.ravel(), w, equal_nan=True)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_kernels_keep_the_input_shape(name, shape):
    cfg = CONFIGS[name]
    lon, lat = lonlat(shape)
    flat = lon.ravel(), lat.ravel()
    assert_same(prj.forward(cfg, lon, lat), prj.forward(cfg, *flat), shape)
    x, y = prj.forward(cfg, lon, lat)
    assert_same(prj.inverse(cfg, x, y), prj.inverse(cfg, x.ravel(), y.ravel()), shape)
    if cfg.auth_sin_coeffs is not None:
        assert_same(prj._forward_one_sine(cfg, lon, lat), prj._forward_one_sine(cfg, *flat), shape)
    for res in (0, 5, 9):
        assert_same([idx.cell_from_point(cfg, res, lon, lat, plane=False)],
                    [idx.cell_from_point(cfg, res, *flat, plane=False)], shape)
        assert_same([idx.cell_from_point(cfg, res, x, y)],
                    [idx.cell_from_point(cfg, res, x.ravel(), y.ravel())], shape)


def test_inputs_broadcast():
    """A (1, 12) lon row against a (9, 1) lat column is the (9, 12) grid;
    a scalar lat against a lon vector is that vector's shape."""
    lon = np.linspace(-180, 179, 12)[None, :]
    lat = np.linspace(-89, 89, 9)[:, None]
    glon, glat = np.broadcast_arrays(lon, lat)
    assert_same(prj.forward(WGS84_003, lon, lat), prj.forward(WGS84_003, glon.ravel(), glat.ravel()), (9, 12))
    assert_same([idx.cell_from_point(WGS84_003, 5, lon, lat, plane=False)],
                [idx.cell_from_point(WGS84_003, 5, glon.ravel(), glat.ravel(), plane=False)], (9, 12))
    x, y = prj.forward(WGS84_003, lon[0], 89.5)
    assert x.shape == y.shape == (12,)
    assert np.array_equal(y, prj.forward(WGS84_003, lon[0], np.full(12, 89.5))[1])
    # A scalar point gives a 0-D cell.
    assert idx.cell_from_point(WGS84_003, 5, 10.0, 20.0, plane=False).shape == ()
