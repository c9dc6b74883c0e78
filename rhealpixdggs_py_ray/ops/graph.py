"""Distributed iterative link analysis (PageRank beyond the driver
rank-vector cap).

q_pagerank (pipelines/queries.py) holds the rank vector on the driver
— the k-means-style bounded sync, capped at 8M nodes.  This module is
the beyond-cap shape: ranks live as a DATASET bucketed by node hash,
and each damped iteration costs exactly TWO exchanges (the hash-min
CC budget, ops/cc.py):

  A. rank-attach: union(edge rows keyed by src, rank rows keyed by
     node) -> groupby hash bucket -> one vectorized resolve that
     computes out-degrees IN-GROUP (every out-edge of src lands in
     src's bucket, so deg needs no separate join), looks ranks up via
     searchsorted, and emits per-dst partial contribution sums;
  B. dst-sum: the partials union a zero base row per node (so nodes
     with no in-links keep the damping floor) -> bucketed sum
     (ops/agg.py machinery) -> r' = 150000 + (85 * s) // 100.

Same exact integer arithmetic as the driver variant, so both paths
hash-match the same unrolled-CTE DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rhealpixdggs_py_ray import sizing
from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64


def _tag_edges(batch: pa.Table, n_buckets: int) -> pa.Table:
    src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "k": pa.array(src), "v": pa.array(dst),
        "is_rank": pa.array(np.zeros(len(src), dtype=np.int8)),
        "bucket": pa.array(hash_bucket_u64(src.astype(np.uint64), n_buckets)),
    })


def _tag_ranks(batch: pa.Table, n_buckets: int) -> pa.Table:
    node = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    r = batch["r"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "k": pa.array(node), "v": pa.array(r),
        "is_rank": pa.array(np.ones(len(node), dtype=np.int8)),
        "bucket": pa.array(hash_bucket_u64(node.astype(np.uint64), n_buckets)),
    })


def _contrib_resolve(g: pa.Table) -> pa.Table:
    if g.num_rows == 0 or "k" not in g.column_names:
        return pa.table({"node": pa.array([], type=pa.int64()),
                         "s": pa.array([], type=pa.int64())})
    k = g["k"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)
    is_rank = g["is_rank"].to_numpy(zero_copy_only=False).astype(bool)
    rk, rv = k[is_rank], v[is_rank]
    es, ed = k[~is_rank], v[~is_rank]
    if not len(es):
        return pa.table({"node": pa.array([], type=pa.int64()),
                         "s": pa.array([], type=pa.int64())})
    order = np.argsort(rk)
    r_src = rv[order][np.searchsorted(rk[order], es)]
    uq, inv, cnt = np.unique(es, return_inverse=True, return_counts=True)
    contrib = r_src // cnt[inv]
    du, dinv = np.unique(ed, return_inverse=True)
    acc = np.zeros(len(du), dtype=np.int64)
    np.add.at(acc, dinv, contrib)
    return pa.table({"node": pa.array(du), "s": pa.array(acc)})


def pagerank_distributed(
    edges, n_nodes: int, iters: int = 3, n_buckets: int | None = None,
):
    """(node, rank_micros) Dataset over ALL n_nodes after ``iters``
    damped integer iterations.  ``edges`` is a (src, dst) int64
    Dataset (materialize it first — it is consumed every iteration)."""
    n_buckets = n_buckets or sizing.exchange_buckets(8)
    base = ray.data.range(n_nodes, override_num_blocks=sizing.range_blocks(n_nodes, 2))

    def init_rank(batch: pa.Table) -> pa.Table:
        node = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": pa.array(node),
            "r": pa.array(np.full(len(node), 1_000_000, dtype=np.int64)),
        })

    def zero_base(batch: pa.Table) -> pa.Table:
        node = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": pa.array(node),
            "s": pa.array(np.zeros(len(node), dtype=np.int64)),
        })

    ranks = base.map_batches(init_rank, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    tagged_edges = edges.map_batches(
        lambda b: _tag_edges(b, n_buckets),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    for _ in range(iters):
        tagged_ranks = ranks.map_batches(
            lambda b: _tag_ranks(b, n_buckets),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        partials = tagged_edges.union(tagged_ranks).groupby("bucket").map_groups(
            _contrib_resolve, batch_format="pyarrow"
        )
        basez = base.map_batches(zero_base, batch_format="pyarrow",
                                 zero_copy_batch=True)

        def sum_part(batch: pa.Table) -> pa.Table:
            node = batch["node"].to_numpy(zero_copy_only=False)
            s = batch["s"].to_numpy(zero_copy_only=False)
            uq, inv = np.unique(node, return_inverse=True)
            acc = np.zeros(len(uq), dtype=np.int64)
            np.add.at(acc, inv, s)
            return pa.table({
                "node": pa.array(uq), "s": pa.array(acc),
                "bucket": pa.array(
                    hash_bucket_u64(uq.astype(np.uint64), n_buckets)),
            })

        def new_rank(g: pa.Table) -> pa.Table:
            if g.num_rows == 0 or "node" not in g.column_names:
                return pa.table({"node": pa.array([], type=pa.int64()),
                                 "r": pa.array([], type=pa.int64())})
            node = g["node"].to_numpy(zero_copy_only=False)
            s = g["s"].to_numpy(zero_copy_only=False)
            uq, inv = np.unique(node, return_inverse=True)
            acc = np.zeros(len(uq), dtype=np.int64)
            np.add.at(acc, inv, s)
            return pa.table({
                "node": pa.array(uq),
                "r": pa.array(150000 + (85 * acc) // 100),
            })

        ranks = (
            partials.union(basez)
            .map_batches(sum_part, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(new_rank, batch_format="pyarrow")
            .materialize()
        )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "rank_micros": batch["r"]})

    return ranks.map_batches(rename, batch_format="pyarrow",
                             zero_copy_batch=True)


def k_core_distributed(edges_ds, k: int, iters: int):
    """Beyond-driver-cap k-core peel: ``edges_ds`` holds packed u64
    edges (``key`` = ua<<32 | ub, ua < ub).  Each round costs TWO
    exchanges — (1) an exact degree fold over edge endpoints, (2) an
    alive-filter of the edge list by both endpoints (edges and the
    <= |V|-row alive set union into ONE bucketed groupby; no join
    operator) — and the edge set only shrinks, so iteration i streams
    less than iteration i-1.  Mirrors pipelines/queries.q_k_core's
    driver peel exactly (same early fixpoint exit).  Returns a Dataset
    (user_id, deg) of the surviving endpoints with their within-core
    degree."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    LOW32 = np.uint64((1 << 32) - 1)
    edges = edges_ds

    def degree_partials(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        node = np.concatenate([ek >> np.uint64(32), ek & LOW32])
        uq, cnt = np.unique(node, return_counts=True)
        return pa.table({"node": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    for _ in range(iters):
        deg = sum_by_u64_key(
            edges.map_batches(degree_partials, batch_format="pyarrow",
                              zero_copy_batch=True),
            "node", "one", "deg", n_buckets=8,
        )
        alive = deg.filter(expr=f"deg >= {k}").materialize()
        n_alive = alive.count()

        # route each edge to BOTH endpoint buckets; alive nodes to
        # their bucket; an edge survives a bucket check if its routed
        # endpoint is alive there — edges surviving BOTH checks (count
        # == 2 in the fold) stay.
        def edge_sides(batch: pa.Table) -> pa.Table:
            ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
            a = ek >> np.uint64(32)
            b = ek & LOW32
            node = np.concatenate([a, b])
            return pa.table({
                "bucket": pa.array(hash_bucket_u64(node, 8)),
                "node": pa.array(node, type=pa.uint64()),
                "key": pa.array(np.concatenate([ek, ek]), type=pa.uint64()),
                "is_edge": pa.array(np.ones(2 * len(ek), dtype=np.int64)),
            })

        def alive_rows(batch: pa.Table) -> pa.Table:
            node = batch["node"].to_numpy(zero_copy_only=False).astype(
                np.uint64)
            return pa.table({
                "bucket": pa.array(hash_bucket_u64(node, 8)),
                "node": pa.array(node, type=pa.uint64()),
                "key": pa.array(np.zeros(len(node), dtype=np.uint64),
                                type=pa.uint64()),
                "is_edge": pa.array(np.zeros(len(node), dtype=np.int64)),
            })

        def check(g: pa.Table) -> pa.Table:
            if g.num_rows == 0 or "node" not in g.column_names:
                return pa.table({"key": pa.array([], type=pa.uint64()),
                                 "one": pa.array([], type=pa.int64())})
            node = g["node"].to_numpy(zero_copy_only=False).astype(np.uint64)
            key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
            is_edge = g["is_edge"].to_numpy(zero_copy_only=False).astype(bool)
            ok_nodes = np.unique(node[~is_edge])
            hit = np.isin(node[is_edge], ok_nodes)
            return pa.table({
                "key": pa.array(key[is_edge][hit], type=pa.uint64()),
                "one": pa.array(np.ones(int(hit.sum()), dtype=np.int64)),
            })

        sides = edges.map_batches(edge_sides, batch_format="pyarrow",
                                  zero_copy_batch=True)
        amarks = alive.map_batches(alive_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
        checked = (
            sides.union(amarks).groupby("bucket")
            .map_groups(check, batch_format="pyarrow")
        )
        folded = sum_by_u64_key(checked, "key", "one", "hits", n_buckets=8)
        new_edges = folded.filter(expr="hits == 2").select_columns(["key"])
        new_edges = new_edges.materialize()
        n_new = new_edges.count()
        n_old = edges.count()
        edges = new_edges
        if n_new == n_old:
            break  # fixpoint
        if n_new == 0:
            break

    final_deg = sum_by_u64_key(
        edges.map_batches(degree_partials, batch_format="pyarrow",
                          zero_copy_batch=True),
        "node", "one", "deg", n_buckets=8,
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pa.array(batch["node"].to_numpy(zero_copy_only=False)
                                .astype(np.int64)),
            "deg": batch["deg"],
        })

    return final_deg.map_batches(rename, batch_format="pyarrow",
                                 zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Beyond-cap triangle machinery (k-truss peel, global clustering
# coefficient).  The driver-bounded bitset paths in pipelines/queries.py
# (q_k_truss, q_clustering_coeff) gather the edge array under
# DRIVER_EDGE_CAP / DRIVER_NODE_CAP; past either cap they route HERE
# instead of asserting.  The shape is q_common_neighbors' in-fold
# edge-mark exchange (wedges +1 per middle node, edge rows +2^40, one
# u64 sum fold) — per-edge triangle support falls out as fold - 2^40
# with NO join operator and no driver state.  Reference parity target:
# the same co-presence graph statistics the driver paths compute
# (rhealpixdggs reference has no graph ops; these are engine-side
# training-data analytics).
# ---------------------------------------------------------------------------

DRIVER_EDGE_CAP = 8_000_000   # rows any driver-side path may gather
DRIVER_NODE_CAP = 20_000      # bitset row bound (N x N/64 u64 matrix)
SUPPORT_MARK = 1 << 40        # in-fold edge marker; support < 2^40 always


class DriverCapExceeded(RuntimeError):
    """A driver-side path was handed more rows than DRIVER_EDGE_CAP."""


def check_driver_cap(n: int, what: str) -> None:
    """Raise DriverCapExceeded when ``n`` rows exceed DRIVER_EDGE_CAP
    (read at call time, so tests can lower it).  A raise, not an
    assert: ``python -O`` must not drop the bound."""
    if n > DRIVER_EDGE_CAP:
        raise DriverCapExceeded(
            f"{what}: {n:,} rows exceed the driver cap {DRIVER_EDGE_CAP:,}")


def edge_support_fold(edges_ds, n_buckets: int = 8):
    """ONE wedge+mark exchange over a packed-u64 edge Dataset
    (``key`` = ua<<32 | ub, ua < ub, deduped): returns a folded
    Dataset (key, v) where rows with v >= SUPPORT_MARK are edges and
    their exact triangle support is v - SUPPORT_MARK.  Rows with
    v < SUPPORT_MARK are non-adjacent wedge pairs (callers filter).
    Wedges are exact (no degree cap — unlike q_common_neighbors'
    CN_DEG link-prediction heuristic, truss support must be exact);
    per-middle fan-out is deg^2, the documented cost of distributed
    triangle counting on an un-oriented fold."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    LOW32 = np.uint64((1 << 32) - 1)

    def directed(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        a = ek >> np.uint64(32)
        b = ek & LOW32
        m = np.concatenate([a, b])
        x = np.concatenate([b, a])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(m, n_buckets)),
            "m": pa.array(m, type=pa.uint64()),
            "x": pa.array(x, type=pa.uint64()),
        })

    def wedges(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "m" not in g.column_names:
            return pa.table({"pkey": pa.array([], type=pa.uint64()),
                             "v": pa.array([], type=pa.int64())})
        m = g["m"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = g["x"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((x, m))
        m, x = m[order], x[order]
        _, start = np.unique(m, return_index=True)
        cnt = np.diff(np.append(start, len(m)))
        out = []
        for s, c in zip(start.tolist(), cnt.tolist()):
            nb = x[s:s + c]  # sorted ascending, deduped edge set
            ia, ib = np.triu_indices(c, k=1)
            out.append((nb[ia] << np.uint64(32)) | nb[ib])
        pk = np.concatenate(out) if out else np.array([], dtype=np.uint64)
        return pa.table({
            "pkey": pa.array(pk, type=pa.uint64()),
            "v": pa.array(np.ones(len(pk), dtype=np.int64)),
        })

    def marks(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "pkey": pa.array(ek, type=pa.uint64()),
            "v": pa.array(np.full(len(ek), SUPPORT_MARK, dtype=np.int64)),
        })

    wedge_partials = (
        edges_ds.map_batches(directed, batch_format="pyarrow",
                             zero_copy_batch=True)
        .groupby("bucket").map_groups(wedges, batch_format="pyarrow")
    )
    mark_rows = edges_ds.map_batches(marks, batch_format="pyarrow",
                                     zero_copy_batch=True)
    return sum_by_u64_key(wedge_partials.union(mark_rows), "pkey", "v",
                          "v", n_buckets=n_buckets)


def _endpoint_count(edges_ds, n_buckets: int = 8) -> int:
    """Distinct-endpoint count of a packed-u64 edge Dataset (one small
    fold; no driver gather of the node set)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    LOW32 = np.uint64((1 << 32) - 1)

    def endpoints(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uq = np.unique(np.concatenate([ek >> np.uint64(32), ek & LOW32]))
        return pa.table({"node": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(np.ones(len(uq), dtype=np.int64))})

    return sum_by_u64_key(
        edges_ds.map_batches(endpoints, batch_format="pyarrow",
                             zero_copy_batch=True),
        "node", "one", "n", n_buckets=n_buckets,
    ).count()


def k_truss_distributed(edges_ds, k: int, rounds: int,
                        n_buckets: int = 8):
    """Beyond-cap k-truss peel: each round is one wedge+mark support
    fold (edge_support_fold) + an expression-pushdown filter keeping
    edges with support >= k-2, mirroring q_k_truss's driver bitset
    peel round-for-round (fixed-round hop-capped semantics, counts
    recorded AFTER each round's drop).  The edge set only shrinks;
    a fixpoint round short-circuits the remaining rounds (identical
    by induction — same edges in, same support out).  Returns the
    same (round, n_edges, n_nodes) convergence-trace table."""
    need = k - 2
    thresh = SUPPORT_MARK + need
    edges = edges_ds
    out_r, out_e, out_n = [], [], []
    prev_ne = edges.count()
    rnd = 1
    while rnd <= rounds:
        folded = edge_support_fold(edges, n_buckets=n_buckets)

        def rekey(batch: pa.Table) -> pa.Table:
            return pa.table({"key": batch["pkey"]})

        edges = (folded.filter(expr=f"v >= {thresh}")
                 .map_batches(rekey, batch_format="pyarrow",
                              zero_copy_batch=True)
                 .materialize())
        ne = edges.count()
        nn = _endpoint_count(edges, n_buckets=n_buckets) if ne else 0
        out_r.append(rnd)
        out_e.append(ne)
        out_n.append(nn)
        rnd += 1
        if ne == prev_ne or ne == 0:
            while rnd <= rounds:  # fixpoint: later rounds are identity
                out_r.append(rnd)
                out_e.append(ne)
                out_n.append(nn)
                rnd += 1
            break
        prev_ne = ne
    return pa.table({
        "round": pa.array(out_r, type=pa.int64()),
        "n_edges": pa.array(out_e, type=pa.int64()),
        "n_nodes": pa.array(out_n, type=pa.int64()),
    })


def triangle_stats_distributed(edges_ds, n_buckets: int = 8):
    """Beyond-cap global clustering coefficient: one support fold
    gives per-edge triangle counts (sum over edges = 3T); one degree
    fold gives n_nodes and the exact wedge total via per-batch
    partial sums (driver holds only #blocks partial rows, never the
    node set).  Returns q_clustering_coeff's one-row
    (n_nodes, n_edges, n_triangles, n_wedges, gcc_e9) table."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    LOW32 = np.uint64((1 << 32) - 1)
    folded = edge_support_fold(edges_ds, n_buckets=n_buckets)
    sup_rows = folded.filter(expr=f"v >= {SUPPORT_MARK}")

    def sup_partial(batch: pa.Table) -> pa.Table:
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.table({
            "s": pa.array([int((v - SUPPORT_MARK).sum())], type=pa.int64()),
            "n": pa.array([len(v)], type=pa.int64()),
        })

    sup3 = 0
    n_edges = 0
    for b in sup_rows.map_batches(sup_partial, batch_format="pyarrow",
                                  zero_copy_batch=True) \
                     .iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            sup3 += int(b["s"].to_numpy(zero_copy_only=False).sum())
            n_edges += int(b["n"].to_numpy(zero_copy_only=False).sum())
    tri = sup3 // 3

    def degree_partials(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        node = np.concatenate([ek >> np.uint64(32), ek & LOW32])
        uq, cnt = np.unique(node, return_counts=True)
        return pa.table({"node": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    deg = sum_by_u64_key(
        edges_ds.map_batches(degree_partials, batch_format="pyarrow",
                             zero_copy_batch=True),
        "node", "one", "deg", n_buckets=n_buckets,
    ).materialize()
    n_nodes = deg.count()

    def wedge_partial(batch: pa.Table) -> pa.Table:
        d = batch["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"w": pa.array([int((d * (d - 1) // 2).sum())],
                                       type=pa.int64())})

    wedges = 0
    for b in deg.map_batches(wedge_partial, batch_format="pyarrow",
                             zero_copy_batch=True) \
                .iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            wedges += int(b["w"].to_numpy(zero_copy_only=False).sum())

    gcc = 3 * tri * 10**9 // wedges if wedges else 0
    return pa.table({
        "n_nodes": pa.array([n_nodes], type=pa.int64()),
        "n_edges": pa.array([n_edges], type=pa.int64()),
        "n_triangles": pa.array([tri], type=pa.int64()),
        "n_wedges": pa.array([wedges], type=pa.int64()),
        "gcc_e9": pa.array([gcc], type=pa.int64()),
    })
