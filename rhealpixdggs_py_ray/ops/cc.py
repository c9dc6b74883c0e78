"""Distributed connected components over near-duplicate pairs.

The missing last step of a dedup pipeline: verified pair rows
``(a, b)`` -> cluster labels ``(doc_id, cluster_id, keep)`` where
``cluster_id`` is the smallest doc_id in the component and ``keep``
marks the canonical survivor.  The reference has no analogue (it is a
DGGS library); this is part of the engine's training-data surface.

Algorithm: hash-min label propagation.  State is a (node, label)
table, initialized label = node.  Each iteration is exactly TWO
bucket exchanges (the repo's np.unique + hash-bucket groupby pattern,
see ops/agg.py — never a per-node ray groupby):

  gather:  edge rows are routed to ``h(src)`` where the src labels
           live; each edge emits a message ``(dst, label(src))``.
  scatter: messages + label rows meet at ``h(node)``;
           ``new = min(label, min candidates)``.

Iterate until a scatter pass changes nothing (the per-iteration
``changed`` count is a scalar aggregate over the materialized label
table, not a driver materialization of the data).  Convergence is in
O(cluster diameter) iterations — near-dup clusters are clique-like
(every member pairs with most others), so 2 iterations (1 productive
+ 1 fixpoint check) is the norm.  At 10^12 rows the label/edge tables
stay proportional to the DUPLICATED subset only, orders of magnitude
below the corpus; nothing here ever touches the docs table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rhealpixdggs_py_ray import sizing
from rhealpixdggs_py_ray.ops import graph

from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64 as _bucket_of


def _union_find_label(u: np.ndarray, v: np.ndarray):
    """Exact in-memory connected components over edge arrays; returns
    (nodes, min-member label per node).  Fully vectorized: alternating
    hash-min propagation (np.minimum.at over the edge arrays) and
    pointer jumping, O(log n) rounds — no per-edge Python loop.

    Labels only decrease and are bounded by the component minimum; a
    propagation fixpoint forces equal labels across every edge, and the
    shared value must be the component's min node index."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    eu, ev = inv[: len(u)], inv[len(u):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lab.copy()
        np.minimum.at(new, eu, lab[ev])
        np.minimum.at(new, ev, lab[eu])
        while True:  # pointer jump: labels are node indices, monotone
            nn = new[new]
            if np.array_equal(nn, new):
                break
            new = nn
        if np.array_equal(new, lab):
            return nodes, nodes[lab]
        lab = new


def spanning_forest(pairs_ds, a_col: str = "a", b_col: str = "b",
                    n_buckets: int = 32):
    """ONE bucket exchange that sparsifies the pair graph: edges are
    hash-partitioned by ``h(a)`` and each partition is replaced by the
    spanning forest of its local union-find (connectivity-preserving;
    Boruvka-style edge reduction).  Output is ≤ one edge per distinct
    node per bucket — O(nodes), independent of how dense the pair set
    was."""
    n_buckets = sizing.exchange_buckets(n_buckets)

    def to_bucketed(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "bucket": pa.array(_bucket_of(a, n_buckets)),
            "u": pa.array(a),
            "v": pa.array(b),
        })

    def local_forest(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        nodes, lab = _union_find_label(u, v)
        # one (node -> local component min) edge per node; roots emit a
        # self-edge so isolated-in-this-bucket nodes still survive
        return pa.table({"u": pa.array(nodes), "v": pa.array(lab)})

    return (
        pairs_ds.map_batches(to_bucketed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(local_forest, batch_format="pyarrow")
    )


def connected_components(pairs_ds, a_col: str = "a", b_col: str = "b",
                         n_buckets: int = 32, max_iters: int = 50,
                         driver_cap: int | None = None):
    """pairs Dataset -> Dataset(doc_id, cluster_id, keep).

    Fast path: one spanning-forest exchange reduces the graph to
    O(paired nodes) rows; if that fits under ``driver_cap`` (default
    ``graph.DRIVER_EDGE_CAP``, 8M rows ≈ 128 MB — a bounded take, not
    an O(corpus) materialization) the components are finished with an
    exact driver union-find.  Beyond the cap it falls back to the fully
    distributed hash-min iteration (``connected_components_iterative``),
    which never gathers anything larger than a scalar to the driver.

    Only nodes that appear in a pair are labeled (unpaired docs are
    trivially their own cluster and never enter the exchange).
    """
    n_buckets = sizing.exchange_buckets(n_buckets)
    import ray.data as _rd

    if driver_cap is None:
        driver_cap = graph.DRIVER_EDGE_CAP

    # Map-side sparsification, NO shuffle: a spanning forest of any
    # edge subset preserves connectivity, so replacing each input
    # block's edges by its local forest (≤ distinct nodes per block
    # rows) is exact.  Only if the concatenated forests still exceed
    # the driver cap do we pay the hash-partitioned exchange, whose
    # output is guaranteed O(global nodes), and then the fully
    # distributed iteration.
    def block_forest(batch: pa.Table) -> pa.Table:
        u = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes, lab = _union_find_label(u, v)
        return pa.table({"u": pa.array(nodes), "v": pa.array(lab)})

    forest = pairs_ds.map_batches(
        block_forest, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if forest.count() <= driver_cap:
        # bounded gather (≤ driver_cap rows); empty shuffle partitions
        # surface as zero-column blocks — skip them
        parts = [
            t for t in forest.iter_batches(batch_format="pyarrow", batch_size=None)
            if t.num_rows
        ]
        if not parts:
            empty = np.array([], dtype=np.int64)
            return _rd.from_arrow(pa.table({
                "doc_id": pa.array(empty), "cluster_id": pa.array(empty),
                "keep": pa.array([], type=pa.bool_()),
            }))
        tbl = pa.concat_tables(parts)
        u = tbl["u"].to_numpy(zero_copy_only=False)
        v = tbl["v"].to_numpy(zero_copy_only=False)
        nodes, lab = _union_find_label(u, v)
        out = pa.table({
            "doc_id": pa.array(nodes, type=pa.int64()),
            "cluster_id": pa.array(lab, type=pa.int64()),
            "keep": pa.array(nodes == lab, type=pa.bool_()),
        })
        return _rd.from_arrow(out)
    reduced = spanning_forest(forest, "u", "v", n_buckets)
    return connected_components_iterative(
        reduced, "u", "v", n_buckets=n_buckets, max_iters=max_iters
    )


def connected_components_iterative(pairs_ds, a_col: str = "a", b_col: str = "b",
                                   n_buckets: int = 32, max_iters: int = 50):
    """Fully distributed hash-min label propagation (see module doc).

    Exact same output as ``connected_components``; used when even the
    sparsified forest exceeds the driver cap.
    """
    n_buckets = sizing.exchange_buckets(n_buckets)
    # Directed edge table (both directions), bucketed by h(src); built
    # once and materialized — it is re-read every iteration and its
    # lineage (the whole minhash pipeline) must not re-execute.
    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({
            "bucket": pa.array(_bucket_of(src, n_buckets)),
            "kind": pa.array(np.zeros(len(src), dtype=np.int64)),
            "node": pa.array(src),
            "other": pa.array(dst),
            "changed": pa.array(np.zeros(len(src), dtype=np.int64)),
        })

    edges = pairs_ds.map_batches(
        to_edges, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # Initial labels: label(node) = node; the same kernel serves the
    # per-batch pass and the per-bucket dedup (both are "unique nodes
    # -> self-label rows").
    def init_labels(t: pa.Table) -> pa.Table:
        nodes = np.unique(t["node"].to_numpy(zero_copy_only=False))
        return pa.table({
            "bucket": pa.array(_bucket_of(nodes, n_buckets)),
            "kind": pa.array(np.ones(len(nodes), dtype=np.int64)),
            "node": pa.array(nodes),
            "other": pa.array(nodes),  # label
            "changed": pa.array(np.zeros(len(nodes), dtype=np.int64)),
        })

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(init_labels, batch_format="pyarrow")
        .materialize()
    )

    def gather(g: pa.Table) -> pa.Table:
        # kind 1 = label rows (node, label); kind 0 = edges (src, dst).
        kind = g["kind"].to_numpy(zero_copy_only=False)
        node = g["node"].to_numpy(zero_copy_only=False)
        other = g["other"].to_numpy(zero_copy_only=False)
        lab_nodes = node[kind == 1]
        lab_vals = other[kind == 1]
        order = np.argsort(lab_nodes)
        lab_nodes, lab_vals = lab_nodes[order], lab_vals[order]
        src, dst = node[kind == 0], other[kind == 0]
        cand = lab_vals[np.searchsorted(lab_nodes, src)]
        return pa.table({
            "bucket": pa.array(_bucket_of(dst, n_buckets)),
            "kind": pa.array(np.zeros(len(dst), dtype=np.int64)),  # messages
            "node": pa.array(dst),
            "other": pa.array(cand),
            "changed": pa.array(np.zeros(len(dst), dtype=np.int64)),
        })

    def scatter(g: pa.Table) -> pa.Table:
        # min over (current label, message candidates) per node.
        kind = g["kind"].to_numpy(zero_copy_only=False)
        node = g["node"].to_numpy(zero_copy_only=False)
        val = g["other"].to_numpy(zero_copy_only=False)
        is_lab = kind == 1
        uq, inv = np.unique(node, return_inverse=True)
        new = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(new, inv, val)
        old = np.empty(len(uq), dtype=np.int64)
        old[inv[is_lab]] = val[is_lab]
        return pa.table({
            "bucket": pa.array(_bucket_of(uq, n_buckets)),
            "kind": pa.array(np.ones(len(uq), dtype=np.int64)),
            "node": pa.array(uq),
            "other": pa.array(new),
            "changed": pa.array((new < old).astype(np.int64)),
        })

    converged = False
    for _ in range(max_iters):
        msgs = (
            labels.union(edges)
            .groupby("bucket")
            .map_groups(gather, batch_format="pyarrow")
        )
        labels = (
            labels.union(msgs)
            .groupby("bucket")
            .map_groups(scatter, batch_format="pyarrow")
            .materialize()
        )
        # sum() is None on an all-empty dataset (no pairs at all)
        if (labels.sum("changed") or 0) == 0:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"connected_components_iterative did not converge within "
            f"{max_iters} hash-min iterations (component diameter too "
            f"large); raise max_iters"
        )

    def finish(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        lab = batch["other"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(node, type=pa.int64()),
            "cluster_id": pa.array(lab, type=pa.int64()),
            "keep": pa.array(node == lab, type=pa.bool_()),
        })

    return labels.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def connected_components_sql(pairs_sql: str) -> str:
    """DuckDB oracle: transitive closure of the same pair set via a
    recursive CTE; cluster_id = MIN(reachable node).  Exact integer
    semantics — no float parity concerns."""
    return f"""
WITH RECURSIVE pairs AS MATERIALIZED (
{pairs_sql}
),
edges AS MATERIALIZED (
  SELECT a AS u, b AS v FROM pairs UNION ALL SELECT b AS u, a AS v FROM pairs
),
reach(n, m) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
  UNION
  SELECT r.n, e.v FROM reach r JOIN edges e ON e.u = r.m
)
SELECT n AS doc_id, MIN(m) AS cluster_id, n = MIN(m) AS keep
FROM reach GROUP BY n
"""
