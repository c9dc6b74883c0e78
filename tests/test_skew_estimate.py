"""The collapsed skew-quad quadrature of the dense cover build.

``index.skew_centroid_estimate`` integrates a skew quad along its
mid-line (30 inverse projections) instead of over the 30x30 tensor
grid ``centroid`` uses.  ``polyfill_dense`` decides a boundary skew
cell from it when the estimate's box, widened by
``CENTROID_BOX_MARGIN``, meets no polygon edge; every other boundary
cell pays the exact ``centroid``.  No Ray, no reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core import wrappers as W
from rhealpixdggs_py_ray.core.config import WGS84_003, WGS84_123
from rhealpixdggs_py_ray.stages.join import polyfill_dense

TOL = 1e-11  # degrees; CENTROID_BOX_MARGIN is 1e-9

BAND = geo.Polygon([(-150.0, 55.0), (150.0, 55.0), (150.0, -40.0), (-150.0, -40.0)])


def _skew_cells(cfg, res):
    u = su.tile_from_rank(np.arange(su.num_tile_ranks(res)), res)
    return u[idx.shape_of(cfg, u) == idx.SHAPE_SKEW]


def _assert_close(cfg, u):
    ex, ey = idx.skew_centroid_estimate(cfg, u)
    cx, cy = idx.centroid(cfg, u, plane=False)
    assert np.abs(ex - cx).max() < TOL and np.abs(ey - cy).max() < TOL


@pytest.mark.parametrize("cfg", [WGS84_003, WGS84_123], ids=["wgs84_003", "squares_1_2"])
def test_estimate_matches_centroid_res_0_to_4(cfg):
    for res in range(5):
        u = _skew_cells(cfg, res)
        assert len(u) == (0, 8, 128, 1352, 12800)[res]
        if len(u):
            _assert_close(cfg, u)


def test_estimate_matches_centroid_on_sampled_res5_cells():
    u = _skew_cells(WGS84_003, 5)
    sample = np.random.default_rng(2025).choice(u, 2000, replace=False)
    _assert_close(WGS84_003, sample)


def _centroid_spy(monkeypatch):
    seen = []
    exact = idx.centroid

    def spy(cfg, u, plane=True):
        seen.append(np.asarray(u).copy())
        return exact(cfg, u, plane=plane)

    monkeypatch.setattr(idx, "centroid", spy)
    return seen


def test_near_edge_estimate_takes_the_exact_path(monkeypatch):
    """A polygon edge on one skew cell's estimated latitude: the cell
    goes to the exact ``centroid``, and the cover is the walk's."""
    u = _skew_cells(WGS84_003, 3)
    ex, ey = idx.skew_centroid_estimate(WGS84_003, u)
    i = int(np.flatnonzero((ey > 50) & (np.abs(ex) < 120))[0])
    x, y = float(ex[i]), float(ey[i])
    poly = geo.Polygon([(x - 30.0, y), (x + 30.0, y), (x + 30.0, y + 8.0), (x - 30.0, y + 8.0)])
    walk = W.polyfill_u64(poly, 3, plane=False)
    seen = _centroid_spy(monkeypatch)
    dense = polyfill_dense(poly, 3)
    assert np.array_equal(dense, walk)
    assert u[i] in np.concatenate(seen)


def test_band_boundary_skew_cells_skip_the_quadrature(monkeypatch):
    """perfbench's band at res 3: every boundary skew cell is decided by
    its estimate; only the 3 boundary darts pay the exact centroid."""
    seen = _centroid_spy(monkeypatch)
    keys = polyfill_dense(BAND, 3)
    assert len(keys) == 2646
    exact = np.concatenate(seen)
    shape = idx.shape_of(WGS84_003, exact)
    assert not (shape == idx.SHAPE_SKEW).any()
    assert (shape == idx.SHAPE_DART).sum() == 3
