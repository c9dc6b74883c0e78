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
   carry a deterministic per-batch salt (a hash of the sum of the
   batch's phashes), so even a tile holding most of the data merges on
   S reducers, not one.
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
    counts, so no row is sorted, and a rank -> tile table built here
    names the occupied slots.  ValueError past ``su.MAX_TILE_RES`` and
    on a row that is not a cell.

    The salt is one value per batch: the top ``salt_bits`` bits of the
    wrapping uint64 sum of the batch's ``salt_col`` times
    ``hash_bucket_u64``'s multiplier (0 without a salt column or bits).
    Its one reader is the salted merge, which only needs a hot tile's
    partials spread over 2**salt_bits keys; a tile has at most one
    partial per batch, so a per-batch value spreads them as well as a
    per-tile one.  Not an xor of the column: that is 0 on every batch
    of aligned sequential ids."""

    def __init__(self, tile_res: int, salt_bits: int, cell_col: str, salt_col: str | None):
        self.n_ranks = su.num_tile_ranks(tile_res)
        self.tile_res = tile_res
        self.tiles = su.tile_from_rank(np.arange(self.n_ranks), tile_res)
        self.salt_bits = salt_bits
        self.cell_col = cell_col
        self.salt_col = salt_col

    def _salt(self, batch: pa.Table) -> int:
        if self.salt_col is None or not self.salt_bits:
            return 0
        col = batch[self.salt_col].to_numpy(zero_copy_only=False)
        s = int(col.astype(np.int64, copy=False).view(np.uint64).sum())
        return (s * 0x9E3779B97F4A7C15 % 2**64) >> (64 - self.salt_bits)

    def __call__(self, batch: pa.Table) -> pa.Table:
        u = batch[self.cell_col].to_numpy(zero_copy_only=False)
        rank = su.tile_rank(u, self.tile_res)
        counts = np.bincount(rank, minlength=self.n_ranks)
        hit = np.flatnonzero(counts != 0)
        return pa.table(
            {
                "tile_u64": pa.array(self.tiles.take(hit), type=pa.uint64()),
                "salt": pa.array(np.full(hit.size, self._salt(batch), dtype=np.int64)),
                "n_partial": pa.array(counts.take(hit), type=pa.int64()),
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
