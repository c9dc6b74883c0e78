"""Scale-friendly aggregation helpers.

ray.data's sort-based ``groupby(...).aggregate(...)`` measured ~18 s
for 48k rows spread over ~40k groups (the per-group overhead dominates
long before data size matters).  For high-cardinality keys the engine
therefore uses: per-batch vectorized combine (np.unique) -> hash-bucket
column -> groupby over a HANDFUL of buckets -> vectorized combine per
bucket.  Exact same results, one shuffle, no tiny groups.  The pattern
is also the 10^12-row shape: buckets are the shuffle partitions and
each reducer combines its bucket vectorized.
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


def _fold_by_u64_key(ds, key_col, val_col, out_val, n_buckets, init, at):
    """Per-key int64 fold of a uint64 key column: per-batch np.unique
    combine, hash buckets, one bucket exchange, per-bucket combine.
    ``at`` is the ufunc ``.at`` (np.add.at, np.maximum.at) and
    ``init`` its identity."""
    n_buckets = sizing.exchange_buckets(n_buckets)

    def fold(k, v):
        uq, inv = np.unique(k, return_inverse=True)
        s = np.full(len(uq), init, dtype=np.int64)
        at(s, inv, v)
        return uq, s

    def combine_batch(batch: pa.Table) -> pa.Table:
        uq, s = fold(
            batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64),
            batch[val_col].to_numpy(zero_copy_only=False))
        return pa.table(
            {key_col: pa.array(uq, type=pa.uint64()),
             out_val: pa.array(s),
             "bucket": pa.array(hash_bucket_u64(uq, n_buckets))}
        )

    def combine_group(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or key_col not in g.column_names:
            return pa.table({key_col: pa.array([], type=pa.uint64()),
                             out_val: pa.array([], type=pa.int64())})
        uq, s = fold(
            g[key_col].to_numpy(zero_copy_only=False).astype(np.uint64),
            g[out_val].to_numpy(zero_copy_only=False))
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
