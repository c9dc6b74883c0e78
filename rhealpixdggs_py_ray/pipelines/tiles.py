"""SUID-prefix tile aggregation with combiner + salted two-stage merge.

The "raster" half of raster<->vector tiling: every row already carries
its res-9 ``cell_u64``; tile assignment at resolution k is a mask+shift
(suid.parent).  A bare ``groupby(tile)`` would shuffle every input row
and concentrate polar cap/dart tiles (the skew classes identified a
priori by the SUID digit pattern, cell.py:1008-1059) onto single
reducers.  Aggregation is therefore staged:

1. **Combiner** inside ``map_batches``: one partial row per tile per
   batch (10^2-10^4x row reduction before any shuffle).  It is a dense
   fold with no sort: ``su.tile_rank`` numbers the 6 * 9**k tiles and
   one ``bincount`` counts them, so tile resolutions are capped at
   ``su.MAX_TILE_RES`` (5: 354,294 slots), and a row that holds no
   cell (``index.INVALID``) raises ValueError here.
2. **Salted merge** ``groupby([tile, salt])``: partials of a hot tile
   carry a deterministic salt (derived from the batch's phash mix), so
   even a tile holding most of the data merges on S reducers, not one.
3. **Final merge** ``groupby(tile)`` over <= S rows per tile.

For plain counts stage 2 is belt-and-braces; it is the load-bearing
structure once per-group state is heavy (distinct sketches, per-tile
image statistics), and it is the explicit skew-handling called for at
10^12-row scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data.aggregate import Sum

from rhealpixdggs_py_ray.core import suid as su


class _TileCombiner:
    """Per-batch partial aggregation: (tile_u64, salt, n_partial), one
    row per tile present in the batch, in tile order.  A dense fold:
    each row's ``su.tile_rank`` indexes a 6 * 9**tile_res vector of
    counts and salts, so no row is sorted.  ValueError past
    ``su.MAX_TILE_RES`` and on a row that is not a cell."""

    def __init__(self, tile_res: int, salt_bits: int, cell_col: str, salt_col: str | None):
        self.n_ranks = su.num_tile_ranks(tile_res)
        self.tile_res = tile_res
        self.salt_mask = (1 << salt_bits) - 1
        self.cell_col = cell_col
        self.salt_col = salt_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        u = batch[self.cell_col].to_numpy(zero_copy_only=False)
        rank = su.tile_rank(u, self.tile_res)
        counts = np.bincount(rank, minlength=self.n_ranks)
        hit = np.flatnonzero(counts)
        if self.salt_col is not None and self.salt_mask:
            # Deterministic per-(tile, batch) salt: xor-fold the tile's
            # phashes so a hot tile's partials spread over 2**salt_bits
            # merge keys instead of one.
            ph = batch[self.salt_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
            salts = np.zeros(self.n_ranks, dtype=np.int64)
            np.bitwise_xor.at(salts, rank, ph & self.salt_mask)
            salts = salts[hit]
        else:
            salts = np.zeros(len(hit), dtype=np.int64)
        return pa.table(
            {
                "tile_u64": pa.array(su.tile_from_rank(hit, self.tile_res), type=pa.uint64()),
                "salt": pa.array(salts, type=pa.int64()),
                "n_partial": pa.array(counts[hit], type=pa.int64()),
            }
        )


def aggregate_tiles(
    ds,
    tile_res: int,
    cell_col: str = "cell_u64",
    salt_col: str | None = "phash",
    salt_bits: int = 3,
    batch_size: int = 65536,
):
    """rows-with-cells Dataset -> one row per tile: (tile_u64, tile_id, n)."""
    partials = ds.map_batches(
        _TileCombiner(tile_res, salt_bits, cell_col, salt_col),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    if salt_col is None:
        # Counts are tiny after the combiner: one shuffle suffices.
        merged = partials.groupby("tile_u64").aggregate(Sum("n_partial", alias_name="n"))
    else:
        # Salted two-stage merge — the load-bearing path when per-group
        # state is heavy (sketches, per-tile image stats) and hot
        # cap/dart tiles would otherwise land on one reducer.
        salted = partials.groupby(["tile_u64", "salt"]).aggregate(
            Sum("n_partial", alias_name="n_salted")
        )
        merged = salted.groupby("tile_u64").aggregate(Sum("n_salted", alias_name="n"))

    def add_id(batch: pa.Table) -> pa.Table:
        u = batch["tile_u64"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column("tile_id", su.to_string_fixed(u, tile_res))

    return merged.map_batches(add_id, batch_format="pyarrow")
