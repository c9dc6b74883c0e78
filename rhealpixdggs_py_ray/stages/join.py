"""Broadcast cover semi-join + point-in-polygon refinement stages.

The engine's point-in-polygon spatial join is two-staged (SURVEY.md
§3.2):

1. the SMALL side (a polygon) becomes a cover set of cells at the join
   resolution r, built driver-side with the reference's polyfill
   semantics (centroid containment, rhp_wrappers.py:575-593) and
   broadcast ONCE via ``ray.put`` — never re-shipped per batch.  The
   payload is a bool bitmap over the raw res-r prefix of ``cell_u64``
   (face and r digit nibbles, ``u >> (60 - 4r)``): 16**(r+1) slots,
   65,536 at r = 3;
2. every point batch filters by "my cell's res-r prefix is set" — one
   shift and one gather per row, zero-copy from Arrow.  A cell coarser
   than r probes its digit-0 descendant, as ``su.parent`` would give,
   and ``index.INVALID`` lands on a face-15 slot that is never set.

The cover is built without walking the region: every res-r cell is
enumerated, and ``index.centroid_box`` bounds each centroid.  A cell
whose box meets no polygon edge is inside or outside as a whole.  A
boundary skew quad then takes ``index.skew_centroid_estimate`` (30
inverse projections, within ~1e-12 of ``centroid``) widened by
``CENTROID_BOX_MARGIN``: if that box meets no edge either, the
estimate decides it.  Only boundary darts and near-edge estimates pay
for the exact ``centroid``.  Covers equal ``wrappers.polyfill_u64``
(``cells_from_region`` walk + centroid test), which the tests keep as
the reference.

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
from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import EngineConfig, WGS84_003

# Exact centroids are computed this many cells at a time: a skew
# quad's quadrature holds 900 float64 nodes per cell per temporary.
_CENTROID_CHUNK = 2048


def _prefix_shift(res: int) -> np.uint64:
    """Right shift from a ``cell_u64`` to its res-``res`` prefix (face
    and ``res`` digit nibbles); ValueError past su.MAX_TILE_RES."""
    if not 0 <= res <= su.MAX_TILE_RES:
        raise ValueError(f"cover resolution {res} outside 0..{su.MAX_TILE_RES}")
    return np.uint64(60 - 4 * res)


def polyfill_dense(
    geometry, res: int, cfg: EngineConfig = WGS84_003, plane: bool = False
):
    """``wrappers.polyfill_u64`` without the region walk: sorted uint64
    keys of the res-``res`` cells whose centroid lies in the geometry,
    or None for malformed geometry.  N_side 3, res <= MAX_TILE_RES and
    no recentring only (ValueError otherwise): with lon_0 set, the walk
    can miss a cell whose centroid is inside."""
    if cfg.N_side != 3 or cfg.lon_0 or cfg.lat_0:
        raise ValueError(
            f"dense cover needs N_side 3 and lon_0 = lat_0 = 0, got "
            f"{cfg.N_side} and ({cfg.lon_0}, {cfg.lat_0})"
        )
    _prefix_shift(res)
    if geo.malformed_geometry(geometry):
        return None
    geoms = [geometry] if geometry.geom_type == "Polygon" else list(geometry.geoms)
    cells = su.tile_from_rank(np.arange(su.num_tile_ranks(res)), res)
    x_lo, x_hi, y_lo, y_hi = idx.centroid_box(cfg, cells, plane=plane)
    # A point box is the exact centroid; (a + a) / 2 == a.
    boxed = np.flatnonzero((x_lo != x_hi) | (y_lo != y_hi))
    keep = np.zeros(len(cells), dtype=bool)
    boundary = np.zeros(len(cells), dtype=bool)
    with np.errstate(invalid="ignore"):  # an infinite box's mid is nan
        mid_x, mid_y = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
        for g in geoms:
            keep |= geo.points_in_polygon(mid_x, mid_y, g)
            boundary[boxed] |= geo.boxes_touch_polygon(
                x_lo[boxed], x_hi[boxed], y_lo[boxed], y_hi[boxed], g
            )
    at = np.flatnonzero(boundary)
    keep[at] = False
    # A boundary skew quad is decided by its centroid estimate when the
    # estimate's box, widened by the margin, meets no edge either.
    skew = at[idx.shape_of(cfg, cells.take(at)) == idx.SHAPE_SKEW]
    ex, ey = idx.skew_centroid_estimate(cfg, cells.take(skew))
    m = idx.CENTROID_BOX_MARGIN
    near = np.zeros(len(skew), dtype=bool)
    for g in geoms:
        near |= geo.boxes_touch_polygon(ex - m, ex + m, ey - m, ey + m, g)
    clear = np.flatnonzero(~near)
    for g in geoms:
        keep[skew[clear]] |= geo.points_in_polygon(ex[clear], ey[clear], g)
    at = np.setdiff1d(at, skew[clear], assume_unique=True)
    for s in range(0, len(at), _CENTROID_CHUNK):
        part = at[s:s + _CENTROID_CHUNK]
        cx, cy = idx.centroid(cfg, cells.take(part), plane=plane)
        for g in geoms:
            keep[part[geo.points_in_polygon(cx, cy, g)]] = True
    return cells[keep]


def cover_cells(bitmap: np.ndarray, res: int) -> np.ndarray:
    """The sorted uint64 cells a res-``res`` cover bitmap holds."""
    prefix = np.flatnonzero(bitmap).astype(np.uint64)
    return (prefix << _prefix_shift(res)) | np.uint64(res)


def make_cover_ref(
    geometry, res: int, cfg: EngineConfig = WGS84_003, plane: bool = False
):
    """Build a polygon's polyfill cover as a res-``res`` prefix bitmap
    and put it in the object store once.  Returns (ObjectRef, n_cells);
    malformed geometry gives an empty cover."""
    keys = polyfill_dense(geometry, res, cfg=cfg, plane=plane)
    bitmap = np.zeros(16 ** (res + 1), dtype=bool)
    if keys is not None:
        bitmap[keys >> _prefix_shift(res)] = True
    return ray.put(bitmap), int(np.count_nonzero(bitmap))


class CoverSemiJoin:
    """Filter batches to rows whose cell's prefix at the cover
    resolution is in the broadcast cover bitmap.

    ``cover_ref`` is the ObjectRef from make_cover_ref (fetched once per
    actor in __init__); ``cover_res`` is the cover's resolution;
    ``anti=True`` turns it into an anti-join (cover complement).
    """

    def __init__(self, cover_ref, cover_res: int, cell_col: str = "cell_u64", anti: bool = False):
        self.bitmap = ray.get(cover_ref)
        self.shift = _prefix_shift(cover_res)
        if self.bitmap.shape != (16 ** (cover_res + 1),):
            raise ValueError(f"cover bitmap of {self.bitmap.shape} slots is not res {cover_res}")
        self.cell_col = cell_col
        self.anti = anti

    def hits(self, u: np.ndarray) -> np.ndarray:
        """bool per ``cell_u64``: the rows this stage keeps."""
        prefix = np.asarray(u, dtype=np.uint64) >> self.shift
        hit = self.bitmap.take(prefix.view(np.int64))
        return ~hit if self.anti else hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        u = batch[self.cell_col].to_numpy(zero_copy_only=False)
        hit = self.hits(u)
        # numpy packs the mask's bits ~20x faster than pa.array(hit).
        bits = pa.py_buffer(np.packbits(hit, bitorder="little"))
        return batch.filter(pa.Array.from_buffers(pa.bool_(), len(hit), [None, bits]))


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
