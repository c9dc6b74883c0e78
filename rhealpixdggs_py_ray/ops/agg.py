"""Scale-friendly aggregation helpers: exact per-key int64 folds of a
uint64 key column, with two reduce sides.

ray.data's sort-based ``groupby(...).aggregate(...)`` measured ~18 s
for 48k rows spread over ~40k groups (the per-group overhead dominates
long before data size matters).  Both sides therefore start with the
same per-batch vectorized combine (np.unique + ``ufunc.at``) and
differ only in where the partials meet:

- Dataset side (``sum_by_u64_key`` / ``max_by_u64_key``): hash-bucket
  column -> groupby over a HANDFUL of buckets -> vectorized combine per
  bucket.  One shuffle, no tiny groups, and the result stays a Dataset.
  Use it when the fold feeds further Dataset operators (a join, a
  second exchange, a distributed map); it is also the 10^12-row shape:
  buckets are the shuffle partitions and each reducer combines its
  bucket vectorized.
- Driver side (``sum_to_driver`` / ``max_to_driver``): the per-batch
  partials stream to the driver and are compacted there as they
  arrive; the result is a pair of numpy arrays.  Use it when only the
  driver reads the result: an exchange in front of a driver gather
  does work the driver then does again.  The distinct-key count is
  bounded by ``ops/graph.DRIVER_EDGE_CAP``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rhealpixdggs_py_ray import sizing


def hash_bucket_u64(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    """THE engine-wide bucket hash (splitmix multiplier, top-6-bit
    fold, mod n).  Every stage that must co-partition by an int64/u64
    key calls this one function — parity of bucket assignment between
    stages is load-bearing (e.g. labels and edges in ops/cc.py must
    collide), so do not fork local copies."""
    return (
        ((ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
         >> np.uint64(58)).astype(np.int64) % n_buckets
    )


def _fold_u64(k: np.ndarray, v: np.ndarray, init, at):
    """(distinct keys ascending, per-key int64 fold of ``v``): one
    np.unique combine.  ``at`` is the ufunc ``.at`` (np.add.at,
    np.maximum.at) and ``init`` its identity."""
    uq, inv = np.unique(k, return_inverse=True)
    s = np.full(len(uq), init, dtype=np.int64)
    at(s, inv, v)
    return uq, s


def _fold_columns(t: pa.Table, key_col, val_col, init, at):
    return _fold_u64(
        t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64),
        t[val_col].to_numpy(zero_copy_only=False), init, at)


def _fold_by_u64_key(ds, key_col, val_col, out_val, n_buckets, init, at):
    """Per-key int64 fold of a uint64 key column: per-batch combine,
    hash buckets, one bucket exchange, per-bucket combine."""
    n_buckets = sizing.exchange_buckets(n_buckets)

    def combine_batch(batch: pa.Table) -> pa.Table:
        uq, s = _fold_columns(batch, key_col, val_col, init, at)
        return pa.table(
            {key_col: pa.array(uq, type=pa.uint64()),
             out_val: pa.array(s),
             "bucket": pa.array(hash_bucket_u64(uq, n_buckets))}
        )

    def combine_group(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or key_col not in g.column_names:
            return pa.table({key_col: pa.array([], type=pa.uint64()),
                             out_val: pa.array([], type=pa.int64())})
        uq, s = _fold_columns(g, key_col, out_val, init, at)
        return pa.table({key_col: pa.array(uq), out_val: pa.array(s)})

    partial = ds.map_batches(combine_batch, batch_format="pyarrow", zero_copy_batch=True)
    return partial.groupby("bucket").map_groups(combine_group, batch_format="pyarrow")


def sum_by_u64_key(ds, key_col: str, val_col: str, out_val: str,
                   n_buckets: int = 32):
    """Exact per-key int64 sums for a uint64 key column.  Returns a
    Dataset with (key_col, out_val)."""
    return _fold_by_u64_key(ds, key_col, val_col, out_val, n_buckets,
                            0, np.add.at)


def max_by_u64_key(ds, key_col: str, val_col: str, out_val: str,
                   n_buckets: int = 32):
    """Exact per-key int64 maxima for a uint64 key column (mergeable
    register folds: HLL, per-key peaks).  Returns (key_col, out_val)."""
    return _fold_by_u64_key(ds, key_col, val_col, out_val, n_buckets,
                            np.iinfo(np.int64).min, np.maximum.at)


# Pending partial rows the driver fold holds before compacting: it
# compacts once they reach max(this, distinct keys so far), so driver
# memory stays a small multiple of the distinct keys.
_COMPACT_ROWS = 1 << 16


def _fold_to_driver(ds, key_col, val_col, init, at, what):
    """Driver-side fold: per-batch combine in the map tasks, partials
    streamed with ``iter_batches`` and compacted on arrival.  Returns
    (keys uint64 ascending, values int64); empty arrays on an empty
    input.  Raises DriverCapExceeded past DRIVER_EDGE_CAP keys."""
    # ops/graph imports this module: import at call time
    from rhealpixdggs_py_ray.ops.graph import check_driver_cap

    def combine_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"k": pa.array([], type=pa.uint64()),
                             "v": pa.array([], type=pa.int64())})
        uq, s = _fold_columns(batch, key_col, val_col, init, at)
        return pa.table({"k": pa.array(uq, type=pa.uint64()),
                         "v": pa.array(s)})

    keys = np.zeros(0, dtype=np.uint64)
    vals = np.zeros(0, dtype=np.int64)
    ks, vs, pending = [], [], 0

    def compact():
        k, v = _fold_u64(np.concatenate([keys, *ks]),
                         np.concatenate([vals, *vs]), init, at)
        check_driver_cap(len(k), what)
        return k, v

    partials = ds.map_batches(combine_batch, batch_format="pyarrow",
                              zero_copy_batch=True)
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        if not b.num_rows:
            continue
        ks.append(b["k"].to_numpy(zero_copy_only=False))
        vs.append(b["v"].to_numpy(zero_copy_only=False))
        pending += b.num_rows
        if pending >= max(_COMPACT_ROWS, len(keys)):
            keys, vals = compact()
            ks, vs, pending = [], [], 0
    if ks:
        keys, vals = compact()
    return keys, vals


def sum_to_driver(ds, key_col: str, val_col: str):
    """Exact per-key int64 sums of a uint64 key column, folded on the
    driver: (keys uint64 ascending, sums int64)."""
    return _fold_to_driver(ds, key_col, val_col, 0, np.add.at,
                           f"sum_to_driver({key_col})")


def max_to_driver(ds, key_col: str, val_col: str):
    """Exact per-key int64 maxima of a uint64 key column, folded on the
    driver: (keys uint64 ascending, maxima int64)."""
    return _fold_to_driver(ds, key_col, val_col, np.iinfo(np.int64).min,
                           np.maximum.at, f"max_to_driver({key_col})")


def pareto_front_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-dominated mask (maximize BOTH) over DISTINCT (x, y) pairs —
    strict dominance: a beats b iff a >= b on both and > on one.
    Sweep: keep the max-y pair per x, walk x descending, survive while
    y exceeds the running max of larger-x ys.  O(n log n), mirrors the
    window-function form the SQL oracles use.

    Skyline reduction is distribution-friendly: the local front of any
    subset contains every global-front point present in that subset
    (a dominator anywhere would dominate globally), so map-side fronts
    union -> one final front is exact."""
    mask = np.zeros(len(x), dtype=bool)
    if not len(x):
        return mask
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    first_of_x = np.ones(len(xs), dtype=bool)
    first_of_x[1:] = xs[1:] != xs[:-1]
    cand = np.flatnonzero(first_of_x)
    cy = ys[cand]
    on = np.ones(len(cand), dtype=bool)
    if len(cand) > 1:
        on[1:] = cy[1:] > np.maximum.accumulate(cy)[:-1]
    mask[order[cand[on]]] = True
    return mask
