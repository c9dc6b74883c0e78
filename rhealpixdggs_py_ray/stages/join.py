"""Broadcast cover semi-join + point-in-polygon refinement stages.

The engine's point-in-polygon spatial join is two-staged (SURVEY.md
§3.2):

1. the SMALL side (a polygon) becomes a cover set of cells at the join
   resolution, built driver-side with the reference's polyfill
   semantics (centroid containment, rhp_wrappers.py:575-593) and
   broadcast ONCE via ``ray.put`` — never re-shipped per batch;
2. every point batch filters by "my cell's res-k ancestor is in the
   cover" — a sorted-array membership test on uint64 keys, zero-copy
   from Arrow.

Because cover membership is exactly polyfill membership, join output
rows equal the reference's polyfill-based join row set.  An optional
exact PIP refinement stage re-tests the point coordinates themselves
for the geometric (non-DGGS) variant of the join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core import wrappers as W
from rhealpixdggs_py_ray.core.config import EngineConfig, WGS84_003


def make_cover_ref(
    geometry, res: int, cfg: EngineConfig = WGS84_003, plane: bool = False
):
    """Build a polygon's polyfill cover (sorted uint64 keys) and put it
    in the object store once.  Returns (ObjectRef, n_cells)."""
    keys = W.polyfill_u64(geometry, res, plane=plane, cfg=cfg)
    if keys is None:
        keys = np.empty(0, dtype=np.uint64)
    return ray.put(keys), len(keys)


class CoverSemiJoin:
    """Filter batches to rows whose cell's ancestor at the cover
    resolution is in the broadcast cover set.

    ``cover_ref`` is the ObjectRef from make_cover_ref (fetched once per
    actor in __init__); ``cover_res`` is the cover's resolution;
    ``anti=True`` turns it into an anti-join (cover complement).
    """

    def __init__(self, cover_ref, cover_res: int, cell_col: str = "cell_u64", anti: bool = False):
        self.keys = ray.get(cover_ref)  # sorted uint64
        self.cover_res = cover_res
        self.cell_col = cell_col
        self.anti = anti

    def __call__(self, batch: pa.Table) -> pa.Table:
        u = batch[self.cell_col].to_numpy(zero_copy_only=False)
        anc = su.parent(u, self.cover_res)
        pos = np.searchsorted(self.keys, anc)
        pos = np.minimum(pos, max(len(self.keys) - 1, 0))
        hit = (
            np.zeros(len(anc), dtype=bool)
            if len(self.keys) == 0
            else self.keys[pos] == anc
        )
        if self.anti:
            hit = ~hit
        return batch.filter(pa.array(hit))


class PIPRefine:
    """Exact geometric refinement: keep rows whose (lon, lat) lies in
    the polygon (vectorized ray casting)."""

    def __init__(self, polygon: geo.Polygon, lon_col: str = "lon", lat_col: str = "lat"):
        self.polygon = polygon
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        inside = geo.points_in_polygon(lon, lat, self.polygon)
        return batch.filter(pa.array(inside))
