"""Query-suite family module: graph (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_multimodal import q_image_neardup, sql_image_neardup  # noqa: F401
from rhealpixdggs_py_ray.pipelines.q_spatial2 import q_home_cells, sql_home_cells  # noqa: F401

# q_pagerank's rank vector shares ops/graph.DRIVER_EDGE_CAP (8M nodes =
# 64 MB); beyond it the rank table lives as a src-bucketed dataset
# joined to the edges each iteration (the hash-min CC shape, 2
# exchanges/iteration).


def q_pagerank(sf_dir: str):
    """PageRank over a deterministic event graph (src = user_id,
    dst = splitmix64(event_id) mod n_nodes), 3 damped iterations in
    EXACT integer arithmetic: contrib = r[src] // outdeg[src],
    r' = 150000 + (85 * sum_in(contrib)) // 100 — every step is
    order-free, so block/reducer interleaving can't move a bit.

    Shape: edges materialized once as a narrow (src, dst) projection
    (payloads never enter); per iteration ONE map pass emitting
    per-batch np.unique dst-partials, driver-combined into the rank
    vector (n_nodes-bounded, cap documented above; k-means syncs k*d
    the same way).  Returns the top-20 nodes by final rank."""
    from rhealpixdggs_py_ray.fixtures import splitmix64
    from rhealpixdggs_py_ray.ops import graph as _graph

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])
    n = int(ds.max("user_id")) + 1
    if n > _graph.DRIVER_EDGE_CAP:
        # beyond the driver-vector budget: the fully distributed path
        # (bucketed rank dataset, 2 exchanges/iteration) takes over
        return q_pagerank_distributed(sf_dir)

    def mk_edges(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = (splitmix64(eid) % np.uint64(n)).astype(np.int64)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    edges = ds.map_batches(
        mk_edges, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed 1 + ITERS times; never recompute lineage

    def deg_part(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["src"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"k": pa.array(u), "c": pa.array(c.astype(np.int64))})

    deg = np.zeros(n, dtype=np.int64)
    for b in edges.map_batches(
        deg_part, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            np.add.at(deg, b["k"].to_numpy(zero_copy_only=False),
                      b["c"].to_numpy(zero_copy_only=False))

    r = np.full(n, 1_000_000, dtype=np.int64)
    for _ in range(PAGERANK_ITERS):
        contrib_ref = ray.put(r // np.maximum(deg, 1))

        def spart(batch: pa.Table, _ref=contrib_ref) -> pa.Table:
            c = ray.get(_ref)  # zero-copy plasma view
            s = batch["src"].to_numpy(zero_copy_only=False)
            d = batch["dst"].to_numpy(zero_copy_only=False)
            u, inv = np.unique(d, return_inverse=True)
            acc = np.zeros(len(u), dtype=np.int64)
            np.add.at(acc, inv, c[s])
            return pa.table({"k": pa.array(u), "c": pa.array(acc)})

        snew = np.zeros(n, dtype=np.int64)
        for b in edges.map_batches(
            spart, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                np.add.at(snew, b["k"].to_numpy(zero_copy_only=False),
                          b["c"].to_numpy(zero_copy_only=False))
        r = 150000 + (85 * snew) // 100

    order = np.lexsort((np.arange(n), -r))[:PAGERANK_TOPK]
    return pa.table({
        "node": pa.array(order.astype(np.int64)),
        "rank_micros": pa.array(r[order]),
    })


def sql_pagerank() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT event_id, user_id AS src FROM events", "src", "event_id", "h"
    )
    iters = []
    prev = "r0"
    for t in (1, 2, 3):
        iters.append(f"""
s{t} AS MATERIALIZED (
  SELECT e.dst AS node, SUM(r.r // g.d) AS s
  FROM edges e JOIN deg g ON g.src = e.src
  JOIN {prev} r ON r.node = e.src
  GROUP BY e.dst),
r{t} AS MATERIALIZED (
  SELECT n.node, 150000 + (85 * COALESCE(s.s, 0)) // 100 AS r
  FROM nodes n LEFT JOIN s{t} s ON s.node = n.node)""")
        prev = f"r{t}"
    chain = ",".join(iters)
    return f"""
WITH mx AS MATERIALIZED (SELECT MAX(user_id) + 1 AS n FROM events),
edges AS MATERIALIZED (
  SELECT src, CAST(h % CAST((SELECT n FROM mx) AS UBIGINT) AS BIGINT) AS dst
  FROM {sm} t),
deg AS MATERIALIZED (
  SELECT src, CAST(COUNT(*) AS BIGINT) AS d FROM edges GROUP BY src),
nodes AS MATERIALIZED (
  SELECT unnest(generate_series(0, (SELECT n FROM mx) - 1)) AS node),
r0 AS MATERIALIZED (SELECT node, CAST(1000000 AS BIGINT) AS r FROM nodes),
{chain}
SELECT CAST(node AS BIGINT) AS node, CAST(r AS BIGINT) AS rank_micros
FROM r3 ORDER BY r DESC, node LIMIT {PAGERANK_TOPK}
"""


def q_pagerank_distributed(sf_dir: str):
    """The beyond-cap PageRank shape (ops/graph.py): rank table as a
    node-hash-bucketed DATASET, two exchanges per iteration, no
    O(n_nodes) driver state.  Bit-identical to q_pagerank (same exact
    integer rule), so it shares the same unrolled-CTE oracle."""
    from rhealpixdggs_py_ray.fixtures import splitmix64
    from rhealpixdggs_py_ray.ops.graph import pagerank_distributed

    # exchange-bound (6 exchanges over 3 iterations): read narrow at
    # the 4-block profile so blocks x partitions stays small
    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)
    n = int(ds.max("user_id")) + 1

    def mk_edges(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = (splitmix64(eid) % np.uint64(n)).astype(np.int64)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    edges = ds.map_batches(
        mk_edges, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    ranks = pagerank_distributed(edges, n, iters=PAGERANK_ITERS)
    return ranks.sort(["rank_micros", "node"], descending=[True, False]).limit(
        PAGERANK_TOPK
    )


def sql_pagerank_distributed() -> str:
    return sql_pagerank()


# ---------------------------------------------------------------------------
# Triangle counting + dissolve region moments
# ---------------------------------------------------------------------------

def q_triangle_count(sf_dir: str):
    """Distributed triangle counting over the image near-dup graph
    (cluster cohesion audit): the classic wedge-join — each node's
    ordered adjacency emits its wedges (n1 < n2 pairs of neighbors),
    wedges and edges meet in ONE union bucket exchange keyed by the
    packed wedge endpoints, and a wedge closed by an edge is a
    triangle, attributed to its smallest vertex.  Output (node,
    n_triangles) for nodes in >= 1 triangle."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    pairs = q_image_neardup(sf_dir)
    nb = 8

    def wedge_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(b) and int(b.max()) >= (1 << 32):
            raise AssertionError(
                "triangle_count pair packing overflow (node id >= 2^32)")
        # edge rows keyed by the (a, b) pair itself (a < b by contract)
        ekey = a * (1 << 32) + b
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ekey.astype(np.uint64), nb)),
            "k": pa.array(ekey),
            "apex": pa.array(np.full(len(a), -1, dtype=np.int64)),  # edge marker
        })

    # adjacency (and wedges) need all edges of a node together: one
    # h(node) exchange first
    def adj_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.concatenate([a, b])
        o = np.concatenate([b, a])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(n.astype(np.uint64), nb)),
            "n": pa.array(n),
            "o": pa.array(o),
        })

    def make_wedges(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "n" not in g.column_names:
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "k": pa.array([], type=pa.int64()),
                             "apex": pa.array([], type=pa.int64())})
        n = g["n"].to_numpy(zero_copy_only=False)
        o = g["o"].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, n))
        n, o = n[order], o[order]
        starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]])
        lens = np.diff(np.append(starts, len(n)))
        k_l, apex_l = [], []
        for s, L in zip(starts, lens):
            # only neighbors ABOVE the apex: each triangle {x<y<z} is
            # emitted exactly once, as apex x's wedge (y, z)
            nb_ = np.sort(o[s:s + L])
            nb_ = nb_[nb_ > n[s]]
            m_ = len(nb_)
            if m_ < 2:
                continue
            i, j = np.triu_indices(m_, k=1)
            k_l.append(nb_[i] * (1 << 32) + nb_[j])
            apex_l.append(np.full(len(i), n[s], dtype=np.int64))
        if not k_l:
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "k": pa.array([], type=pa.int64()),
                             "apex": pa.array([], type=pa.int64())})
        k = np.concatenate(k_l)
        apex = np.concatenate(apex_l)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(k.astype(np.uint64), nb)),
            "k": pa.array(k),
            "apex": pa.array(apex),
        })

    pairs_m = pairs.materialize()  # two consumers: edges + adjacency
    wedges = (
        pairs_m.map_batches(adj_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(make_wedges, batch_format="pyarrow")
    )
    edges = pairs_m.map_batches(wedge_rows, batch_format="pyarrow",
                                zero_copy_batch=True)

    def close_wedges(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "k" not in g.column_names:
            return pa.table({"node": pa.array([], type=pa.int64()),
                             "n_triangles": pa.array([], type=pa.int64())})
        k = g["k"].to_numpy(zero_copy_only=False)
        apex = g["apex"].to_numpy(zero_copy_only=False)
        is_edge = apex == -1
        ek = np.unique(k[is_edge])
        wk, wapex = k[~is_edge], apex[~is_edge]
        pos = np.searchsorted(ek, wk)
        pos = np.clip(pos, 0, max(len(ek) - 1, 0))
        closed = len(ek) > 0
        m = (ek[pos] == wk) if closed else np.zeros(len(wk), dtype=bool)
        # wedges were emitted with apex < n1 < n2, so the apex IS the
        # triangle's smallest vertex
        uq, cnt = np.unique(wapex[m], return_counts=True)
        return pa.table({"node": pa.array(uq),
                         "n_triangles": pa.array(cnt.astype(np.int64))})

    merged = wedges.union(edges).groupby("bucket").map_groups(
        close_wedges, batch_format="pyarrow")
    # a node's triangles can land in several buckets (different wedge
    # keys) — one final tiny exact sum
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    def rekey(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node_u": pa.array(batch["node"].to_numpy(
                zero_copy_only=False).astype(np.uint64)),
            "n": batch["n_triangles"],
        })

    out = sum_by_u64_key(
        merged.map_batches(rekey, batch_format="pyarrow", zero_copy_batch=True),
        "node_u", "n", "n_triangles")

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(batch["node_u"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "n_triangles": batch["n_triangles"],
        })

    return out.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def sql_triangle_count() -> str:
    return f"""
WITH tp AS MATERIALIZED ({sql_image_neardup()}),
tri AS MATERIALIZED (
  SELECT e1.a AS v1, e1.b AS v2, e2.b AS v3
  FROM tp e1 JOIN tp e2 ON e2.a = e1.b JOIN tp e3
    ON e3.a = e1.a AND e3.b = e2.b
)
SELECT v1 AS node, CAST(COUNT(*) AS BIGINT) AS n_triangles
FROM tri GROUP BY v1
"""


def q_common_neighbors(sf_dir: str):
    """Link prediction by common-neighbor count: for every NON-adjacent
    user pair of the co-presence graph, the number of shared neighbors
    (friend-of-friend recommendation).  Wedges are generated from each
    middle node's CN_DEG smallest-id neighbors (the deterministic
    degree cap that bounds wedge fan-out at scale; SQL mirrors it with
    row_number).  Adjacency is eliminated IN the same fold: edge rows
    enter the wedge exchange carrying -2^40, so any folded sum < 0
    means the pair is already an edge — no join operator, no broadcast.
    Output (user_a, user_b, n_common)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    edges = _copresence_edges(sf_dir)
    EDGE_MARK = np.int64(-(1 << 40))

    def directed(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ua = ek >> np.uint64(32)
        ub = ek & np.uint64((1 << 32) - 1)
        m = np.concatenate([ua, ub])
        x = np.concatenate([ub, ua])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(m, 8)),
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
            nb_ = x[s:s + min(c, CN_DEG)]  # CN_DEG smallest ids (sorted)
            ia, ib = np.triu_indices(len(nb_), k=1)
            out.append((nb_[ia] << np.uint64(32)) | nb_[ib])
        pk = np.concatenate(out) if out else np.array([], dtype=np.uint64)
        return pa.table({
            "pkey": pa.array(pk, type=pa.uint64()),
            "v": pa.array(np.ones(len(pk), dtype=np.int64)),
        })

    def edge_marks(batch: pa.Table) -> pa.Table:
        ek = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "pkey": pa.array(ek, type=pa.uint64()),
            "v": pa.array(np.full(len(ek), EDGE_MARK)),
        })

    wedge_partials = (
        edges.map_batches(directed, batch_format="pyarrow",
                          zero_copy_batch=True)
        .groupby("bucket").map_groups(wedges, batch_format="pyarrow")
    )
    marks = edges.map_batches(edge_marks, batch_format="pyarrow",
                              zero_copy_batch=True)
    folded = sum_by_u64_key(wedge_partials.union(marks), "pkey", "v",
                            "n_common", n_buckets=8)

    def finish(batch: pa.Table) -> pa.Table:
        pk = batch["pkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch["n_common"].to_numpy(zero_copy_only=False)
        keep = v > 0
        pk, v = pk[keep], v[keep]
        return pa.table({
            "user_a": pa.array((pk >> np.uint64(32)).astype(np.int64)),
            "user_b": pa.array((pk & np.uint64((1 << 32) - 1))
                               .astype(np.int64)),
            "n_common": pa.array(v),
        })

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_common_neighbors() -> str:
    return f"""
WITH {_copresence_sql_ctes()},
cnd AS MATERIALIZED (
  SELECT ua AS m, ub AS x FROM cne UNION ALL SELECT ub AS m, ua AS x FROM cne
),
cnn AS MATERIALIZED (
  SELECT m, x FROM (
    SELECT m, x, row_number() OVER (PARTITION BY m ORDER BY x) AS rn FROM cnd
  ) WHERE rn <= {CN_DEG}
),
cnw AS MATERIALIZED (
  SELECT n1.x AS ua, n2.x AS ub, CAST(COUNT(*) AS BIGINT) AS n_common
  FROM cnn n1 JOIN cnn n2 ON n1.m = n2.m AND n1.x < n2.x
  GROUP BY 1, 2
)
SELECT CAST(w.ua AS BIGINT) AS user_a, CAST(w.ub AS BIGINT) AS user_b,
  w.n_common
FROM cnw w
WHERE NOT EXISTS (SELECT 1 FROM cne e WHERE e.ua = w.ua AND e.ub = w.ub)
"""


def q_k_core(sf_dir: str):
    """K-core decomposition (KCORE_K, KCORE_ITERS unrolled peel
    rounds): repeatedly drop users whose degree within the surviving
    edge set is < K, then drop edges touching a dropped user; report
    the endpoints of the final edge set with their within-core degree.
    The edge list is the cached co-presence graph; peeling runs on the
    driver over the gathered edge array (bounded by
    ops/graph.DRIVER_EDGE_CAP, 8M edges — beyond it the peel IS the
    2-exchange/iteration distributed degree-filter loop,
    ops/graph.k_core_distributed, parity-pinned in tests).  Output
    (user_id, deg)."""
    from rhealpixdggs_py_ray.ops import graph as _graph

    edges = _copresence_edges(sf_dir)
    if edges.count() > _graph.DRIVER_EDGE_CAP:  # driver peel cap
        return _graph.k_core_distributed(edges, KCORE_K, KCORE_ITERS)
    parts = []
    for b in edges.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            parts.append(b["key"].to_numpy(zero_copy_only=False)
                         .astype(np.uint64))
    ek = (np.concatenate(parts) if parts
          else np.array([], dtype=np.uint64))
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    for _ in range(KCORE_ITERS):
        if not len(ua):
            break
        u, c = np.unique(np.concatenate([ua, ub]), return_counts=True)
        alive = u[c >= KCORE_K]
        m = np.isin(ua, alive) & np.isin(ub, alive)
        if m.all():
            break  # fixpoint: later rounds are identity
        ua, ub = ua[m], ub[m]
    u, c = (np.unique(np.concatenate([ua, ub]), return_counts=True)
            if len(ua) else (np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)))
    return pa.table({
        "user_id": pa.array(u.astype(np.int64)),
        "deg": pa.array(c.astype(np.int64)),
    })


def sql_k_core() -> str:
    steps = []
    prev = "cne"
    prev_nodes = ("(SELECT ua AS u FROM cne UNION "
                  "SELECT ub AS u FROM cne)")
    for i in range(KCORE_ITERS):
        steps.append(f"""
kdeg{i} AS MATERIALIZED (
  SELECT u, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT ua AS u FROM {prev} UNION ALL SELECT ub AS u FROM {prev}
  ) GROUP BY 1
),
kal{i} AS MATERIALIZED (
  SELECT u FROM kdeg{i} WHERE deg >= {KCORE_K}
),
ked{i} AS MATERIALIZED (
  SELECT e.ua, e.ub FROM {prev} e
  JOIN kal{i} x ON x.u = e.ua JOIN kal{i} y ON y.u = e.ub
)""")
        prev = f"ked{i}"
    body = ",".join(steps)
    return f"""
WITH {_copresence_sql_ctes()},{body}
SELECT u AS user_id, CAST(COUNT(*) AS BIGINT) AS deg FROM (
  SELECT ua AS u FROM {prev} UNION ALL SELECT ub AS u FROM {prev}
) GROUP BY 1
"""


def q_random_walks(sf_dir: str):
    """Graph-embedding corpus generation: RW_WALKS deterministic
    random walks of length RW_LEN from every node of the co-presence
    graph — step t from node cur picks neighbor rank
    splitmix64(cur*64 + w*8 + t) % deg(cur) over the CN_DEG-capped
    ascending neighbor list (the DeepWalk sampling stage, made
    replayable by the engine's seeded-RNG primitive).  Reported as
    per-node visit counts (starts included).  Driver-vectorized under
    the 8M-edge cap (k_core precedent); SQL unrolls the fixed-length
    walk as chained CTE joins against a precomputed hash table.
    Output (user_id, visits)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64

    ua, ub = _copresence_edge_ends(sf_dir, "random_walks")
    # capped ascending neighbor lists (common_neighbors' CN_DEG rule)
    m = np.concatenate([ua, ub])
    x = np.concatenate([ub, ua])
    order = np.lexsort((x, m))
    m, x = m[order], x[order]
    nodes, start = np.unique(m, return_index=True)
    cnt = np.minimum(np.diff(np.append(start, len(m))), CN_DEG)
    nid = {int(n): i for i, n in enumerate(nodes)}
    nbr_start = np.zeros(len(nodes) + 1, dtype=np.int64)
    nbr_start[1:] = np.cumsum(cnt)
    nbr_flat = np.concatenate([x[s:s + c] for s, c in
                               zip(start.tolist(), cnt.tolist())]) \
        if len(nodes) else np.array([], dtype=np.int64)
    visits = np.zeros(len(nodes), dtype=np.int64)
    # walk state: one row per (start node, walk id)
    cur = np.repeat(nodes, RW_WALKS)
    w = np.tile(np.arange(RW_WALKS, dtype=np.int64), len(nodes))
    idx_of = np.vectorize(nid.get, otypes=[np.int64]) if len(nodes) else None
    visits += np.bincount(idx_of(cur), minlength=len(nodes)) \
        if len(cur) else 0
    for t in range(1, RW_LEN + 1):
        ci = idx_of(cur)
        deg = cnt[ci]
        h = splitmix64((cur * 64 + w * 8 + t).astype(np.uint64))
        pick = (h % deg.astype(np.uint64)).astype(np.int64)
        cur = nbr_flat[nbr_start[ci] + pick]
        # walked-to nodes may only appear as neighbors; all neighbors
        # are nodes of the graph (undirected edge set) so idx_of holds
        visits += np.bincount(idx_of(cur), minlength=len(nodes))
    return pa.table({
        "user_id": pa.array(nodes),
        "visits": pa.array(visits),
    })


def sql_random_walks() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT node, w, t, CAST(node * 64 + w * 8 + t AS BIGINT) AS s"
        " FROM rwd", "node, w, t", "s", "h", prefix="rws")
    steps = []
    prev = "rw0"
    for t in range(1, RW_LEN + 1):
        steps.append(f"""
rw{t} AS MATERIALIZED (
  SELECT p.node0, p.w, n.x AS cur
  FROM {prev} p
  JOIN rwg g ON g.node = p.cur
  JOIN rwh h ON h.node = p.cur AND h.w = p.w AND h.t = {t}
  JOIN rwn n ON n.m = p.cur AND n.rn = CAST(h.h % CAST(g.deg AS UBIGINT)
    AS BIGINT)
)""")
        prev = f"rw{t}"
    body = ",".join(steps)
    visits_union = " UNION ALL ".join(
        f"SELECT cur AS node FROM rw{t}" for t in range(0, RW_LEN + 1))
    return f"""
WITH {_copresence_sql_ctes()},
rwdir AS MATERIALIZED (
  SELECT ua AS m, ub AS x FROM cne UNION ALL SELECT ub AS m, ua AS x FROM cne
),
rwn AS MATERIALIZED (
  SELECT m, x, rn FROM (
    SELECT m, x, row_number() OVER (PARTITION BY m ORDER BY x) - 1 AS rn
    FROM rwdir
  ) WHERE rn < {CN_DEG}
),
rwg AS MATERIALIZED (
  SELECT m AS node, CAST(COUNT(*) AS BIGINT) AS deg FROM rwn GROUP BY 1
),
rwd AS MATERIALIZED (
  SELECT g.node, w.w, t.t FROM rwg g,
    (SELECT unnest(generate_series(0, {RW_WALKS - 1})) AS w) w,
    (SELECT unnest(generate_series(1, {RW_LEN})) AS t) t
),
rwh AS MATERIALIZED (
  SELECT node, w, t, h FROM {sm} q
),
rw0 AS MATERIALIZED (
  SELECT node AS node0, w.w, node AS cur FROM rwg,
    (SELECT unnest(generate_series(0, {RW_WALKS - 1})) AS w) w
),{body}
SELECT node AS user_id, CAST(COUNT(*) AS BIGINT) AS visits
FROM ({visits_union}) GROUP BY 1
"""


def q_spectral_partition(sf_dir: str):
    """Community structure via spectral bisection: SPEC_ITERS exact-
    integer power iterations of (cI - L) (c = max degree + 1) on the
    co-presence graph, deflating the trivial eigenvector by truncated-
    mean subtraction each round and rescaling by x*2^20 // max|x| —
    the procedure converges toward the Fiedler vector and every step
    is integer, so Python and SQL HUGEINT replay it bit-exactly.
    Start vector is seeded per node (splitmix64 % 2001 - 1000).
    Driver iteration under the 8M-edge cap (k_core precedent); the
    oracle unrolls the same iterations as chained CTEs joining the
    edge table.  Output (user_id, v_q20, side)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64

    ua, ub = _copresence_edge_ends(sf_dir, "spectral_partition")
    nodes = np.unique(np.concatenate([ua, ub]))
    nid = {int(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    ai = np.array([nid[int(v)] for v in ua], dtype=np.int64)
    bi = np.array([nid[int(v)] for v in ub], dtype=np.int64)
    deg = np.bincount(np.concatenate([ai, bi]), minlength=n)
    c = int(deg.max()) + 1

    def tdiv_vec(a: np.ndarray, b: int) -> np.ndarray:
        q = np.abs(a) // abs(b)
        return np.where((a < 0) != (b < 0), -q, q)

    x = (splitmix64(nodes.astype(np.uint64))
         % np.uint64(2001)).astype(np.int64) - 1000
    for _ in range(SPEC_ITERS):
        y = (c - deg) * x
        np.add.at(y, ai, x[bi])
        np.add.at(y, bi, x[ai])
        m = int(y.sum())
        mm = tdiv_vec(np.array([m], dtype=np.int64), n)[0]
        y = y - mm
        mx = int(np.abs(y).max())
        if not mx > 0:
            raise AssertionError("degenerate spectral iterate")
        x = tdiv_vec(y * SPEC_SCALE, mx)
    return pa.table({
        "user_id": pa.array(nodes),
        "v_q20": pa.array(x),
        "side": pa.array((x >= 0).astype(np.int64)),
    })


def sql_spectral_partition() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT node, CAST(node AS BIGINT) AS s FROM spn",
        "node", "s", "h", prefix="sps")
    steps = []
    prev = "spx0"
    for t in range(1, SPEC_ITERS + 1):
        steps.append(f"""
spa{t} AS MATERIALIZED (
  SELECT e.a AS node, CAST(SUM(x2.val) AS HUGEINT) AS s
  FROM spe e JOIN {prev} x2 ON x2.node = e.b GROUP BY 1
),
spy{t} AS MATERIALIZED (
  SELECT d.node,
    CAST((SELECT c FROM spc) - d.deg AS HUGEINT) * x.val
      + COALESCE(a.s, 0) AS val
  FROM spd d JOIN {prev} x ON x.node = d.node
  LEFT JOIN spa{t} a ON a.node = d.node
),
spm{t} AS MATERIALIZED (
  SELECT CAST(SUM(val) AS HUGEINT) AS s,
    CAST(COUNT(*) AS HUGEINT) AS n FROM spy{t}
),
spz{t} AS MATERIALIZED (
  SELECT node, val - (SELECT s // n FROM spm{t}) AS val FROM spy{t}
),
spq{t} AS MATERIALIZED (SELECT MAX(abs(val)) AS m FROM spz{t}),
spx{t} AS MATERIALIZED (
  SELECT node, CAST(val * {SPEC_SCALE} // (SELECT m FROM spq{t})
    AS HUGEINT) AS val
  FROM spz{t}
)""")
        prev = f"spx{t}"
    return f"""
WITH {_copresence_sql_ctes()},
spe AS MATERIALIZED (
  SELECT ua AS a, ub AS b FROM cne UNION ALL SELECT ub AS a, ua AS b FROM cne
),
spd AS MATERIALIZED (
  SELECT a AS node, CAST(COUNT(*) AS BIGINT) AS deg FROM spe GROUP BY 1
),
spc AS MATERIALIZED (SELECT MAX(deg) + 1 AS c FROM spd),
spn AS MATERIALIZED (SELECT node FROM spd),
sph AS MATERIALIZED (SELECT node, h FROM {sm} q),
spx0 AS MATERIALIZED (
  SELECT node, CAST(CAST(h % 2001 AS BIGINT) - 1000 AS HUGEINT) AS val
  FROM sph
),{",".join(steps)}
SELECT CAST(node AS BIGINT) AS user_id, CAST(val AS BIGINT) AS v_q20,
  CAST(CASE WHEN val >= 0 THEN 1 ELSE 0 END AS BIGINT) AS side
FROM {prev}
"""


def q_influence_spread(sf_dir: str):
    """Temporal-graph reachability: seeds (user_id % SPREAD_SEED_MOD
    == 0) are infected on the global first day; on every later day d,
    any user sharing a (res-2 tile, day d) visit with a user infected
    STRICTLY BEFORE d becomes infected on d — the time-respecting
    cascade a same-day rule would ill-define.  Distinct visits fold
    once; the day loop runs on the driver over the bounded visit set
    (<= users x 486 rows; the distributed fallback is one exchange per
    day).  Output (user_id, inf_day) for reached users."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def visits(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = u.astype(np.uint64) >> np.uint64(52)
        key = np.unique((uid.astype(np.uint64) << np.uint64(32))
                        | (tile << np.uint64(15)) | day)
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    key, _ = sum_to_driver(
        ds.map_batches(visits, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    td = (key & np.uint64((1 << 32) - 1)).astype(np.int64)  # tile<<15|day
    day = td & ((1 << 15) - 1)
    d0, d1 = int(day.min()), int(day.max())
    users, ui = np.unique((key >> np.uint64(32)).astype(np.int64),
                          return_inverse=True)
    inf_day = np.full(len(users), -1, dtype=np.int64)
    inf_day[users % SPREAD_SEED_MOD == 0] = d0
    for d in range(d0 + 1, d1 + 1):
        m = day == d
        if not m.any():
            continue
        infected_before = (inf_day[ui[m]] >= 0) & (inf_day[ui[m]] < d)
        hot_tiles = np.unique(td[m][infected_before])
        newly = np.isin(td[m], hot_tiles) & (inf_day[ui[m]] < 0)
        inf_day[ui[m][newly]] = d
    reached = inf_day >= 0
    return pa.table({
        "user_id": pa.array(users[reached]),
        "inf_day": pa.array(inf_day[reached]),
    })


def sql_influence_spread() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH RECURSIVE isv AS MATERIALIZED (
  SELECT DISTINCT e.user_id, t.cell_id AS tile,
    epoch_us(e.ts) // 86400000000 AS day
  FROM events e JOIN (SELECT event_id, cell_id FROM {idx_sql} q) t
    ON t.event_id = e.event_id
),
isr AS MATERIALIZED (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM isv),
walk(user_id, inf_day) AS (
  SELECT DISTINCT user_id, (SELECT d0 FROM isr) AS inf_day FROM isv
  WHERE user_id % {SPREAD_SEED_MOD} = 0
  UNION
  SELECT v2.user_id, v1.day AS inf_day
  FROM walk w
  JOIN isv v1 ON v1.user_id = w.user_id AND v1.day > w.inf_day
  JOIN isv v2 ON v2.tile = v1.tile AND v2.day = v1.day
)
SELECT user_id, CAST(MIN(inf_day) AS BIGINT) AS inf_day
FROM walk GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Round 4d: degree assortativity of the co-presence graph
# ---------------------------------------------------------------------------


def q_degree_assortativity(sf_dir: str):
    """Mixing-pattern diagnostic: the Pearson correlation of endpoint
    degrees over directed edges (Newman's assortativity).  Everything
    clears to integers; the final denominator sqrt uses EXACT integer
    isqrt — Python math.isqrt vs SQL floor(sqrt(double)) CORRECTED by
    +-1 integer comparisons, so both sides land on the same floor
    square root no matter what the double rounding did.  r_e6 =
    (M*Sxy - Sx*Sy) * 1e6 // isqrt((M*Sxx - Sx^2) * (M*Syy - Sy^2)).
    Output one row (m2, sx, sxy, sxx, r_e6)."""
    import math

    ua, ub = _copresence_edge_ends(sf_dir, "degree_assortativity")
    nodes, deg = np.unique(np.concatenate([ua, ub]), return_counts=True)
    dmap = dict(zip(nodes.tolist(), deg.tolist()))
    da = np.array([dmap[u] for u in ua.tolist()], dtype=np.int64)
    db = np.array([dmap[u] for u in ub.tolist()], dtype=np.int64)
    # directed: each edge contributes both (da, db) and (db, da)
    x = np.concatenate([da, db]).astype(object)
    y = np.concatenate([db, da]).astype(object)
    M = len(x)
    Sx = int(x.sum())
    Sxy = int((x * y).sum())
    Sxx = int((x * x).sum())
    num = M * Sxy - Sx * Sx  # Sy == Sx, Syy == Sxx by symmetry
    den2 = (M * Sxx - Sx * Sx) ** 2
    den = math.isqrt(den2)
    r_e6 = (abs(num) * 10**6 // den) * (1 if num >= 0 else -1) \
        if den else 0
    return pa.table({
        "m2": pa.array([M], type=pa.int64()),
        "sx": pa.array([Sx], type=pa.int64()),
        "sxy": pa.array([Sxy], type=pa.int64()),
        "sxx": pa.array([Sxx], type=pa.int64()),
        "r_e6": pa.array([r_e6], type=pa.int64()),
    })


def sql_degree_assortativity() -> str:
    # exact integer sqrt: float candidate corrected by +-1 integer tests
    cand = "CAST(floor(sqrt(CAST(den2 AS DOUBLE))) AS HUGEINT)"
    isq = (f"(CASE WHEN ({cand} + 1) * ({cand} + 1) <= den2"
           f" THEN {cand} + 1"
           f" WHEN {cand} * {cand} > den2 THEN {cand} - 1"
           f" ELSE {cand} END)")
    return f"""
WITH {_copresence_sql_ctes()},
dad AS MATERIALIZED (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT ua AS node FROM cne UNION ALL SELECT ub FROM cne
  ) GROUP BY 1
),
dae AS MATERIALIZED (
  SELECT x.deg AS dx, y.deg AS dy FROM cne e
  JOIN dad x ON x.node = e.ua JOIN dad y ON y.node = e.ub
  UNION ALL
  SELECT y.deg, x.deg FROM cne e
  JOIN dad x ON x.node = e.ua JOIN dad y ON y.node = e.ub
),
das AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS m,
    CAST(SUM(CAST(dx AS HUGEINT)) AS HUGEINT) AS sx,
    CAST(SUM(CAST(dx AS HUGEINT) * dy) AS HUGEINT) AS sxy,
    CAST(SUM(CAST(dx AS HUGEINT) * dx) AS HUGEINT) AS sxx
  FROM dae
),
dar AS MATERIALIZED (
  SELECT m, sx, sxy, sxx,
    m * sxy - sx * sx AS num,
    (m * sxx - sx * sx) * (m * sxx - sx * sx) AS den2
  FROM das
)
SELECT CAST(m AS BIGINT) AS m2, CAST(sx AS BIGINT) AS sx,
  CAST(sxy AS BIGINT) AS sxy, CAST(sxx AS BIGINT) AS sxx,
  CAST(CASE WHEN den2 = 0 THEN 0
    ELSE (abs(num) * 1000000 // {isq})
      * (CASE WHEN num >= 0 THEN 1 ELSE -1 END) END AS BIGINT) AS r_e6
FROM dar
"""


# ---------------------------------------------------------------------------
# Round 4d: global clustering coefficient of the co-presence graph
# ---------------------------------------------------------------------------


def q_clustering_coeff(sf_dir: str):
    """Transitivity of the social fabric: global clustering
    coefficient 3*triangles / wedges over the co-presence graph
    (complements triangle_count's per-node audit on the image graph).
    Triangles count by sorted-adjacency intersection on the driver
    under the 8M-edge cap (the wedge-join union exchange is the
    at-scale path, q_triangle_count's shape); wedges = sum deg*(deg-1)
    / 2 exactly.  gcc_e9 = 3*T*1e9 // W.  Beyond the driver caps the
    statistics route to the distributed wedge+mark support fold
    (ops/graph.triangle_stats_distributed, parity-pinned in tests).
    Output one row (n_nodes, n_edges, n_triangles, n_wedges,
    gcc_e9)."""
    from rhealpixdggs_py_ray.ops import graph as _graph

    edges = _copresence_edges(sf_dir)
    if edges.count() > _graph.DRIVER_EDGE_CAP:
        return _graph.triangle_stats_distributed(edges)
    parts = []
    for b in edges.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            parts.append(b["key"].to_numpy(zero_copy_only=False)
                         .astype(np.uint64))
    ek = (np.concatenate(parts) if parts else np.array([], dtype=np.uint64))
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    nodes, deg = np.unique(np.concatenate([ua, ub]), return_counts=True)
    N = len(nodes)
    if N > _graph.DRIVER_NODE_CAP:
        return _graph.triangle_stats_distributed(edges)
    # dense-graph path (the co-presence graph runs ~600 avg degree):
    # packed neighbor bitsets + one vectorized AND/popcount per edge
    # chunk.  16.6 s (python set intersections) -> ~0.3 s at sf0.1.
    Wd = (N + 63) // 64
    ca = np.searchsorted(nodes, ua)
    cb = np.searchsorted(nodes, ub)
    A = np.zeros((N, Wd), dtype=np.uint64)
    one = np.uint64(1)
    np.bitwise_or.at(A, (ca, (cb >> 6).astype(np.int64)),
                     one << (cb.astype(np.uint64) & np.uint64(63)))
    np.bitwise_or.at(A, (cb, (ca >> 6).astype(np.int64)),
                     one << (ca.astype(np.uint64) & np.uint64(63)))
    # MASKGT[b] = bitset of ids strictly greater than b
    MASKGT = np.zeros((N, Wd), dtype=np.uint64)
    ar = np.arange(N)
    word = ar >> 6
    off = (ar & 63).astype(np.uint64)
    # full words beyond b's word
    for wix in range(Wd):
        MASKGT[word < wix, wix] = np.uint64(0xFFFFFFFFFFFFFFFF)
    # partial word: bits above b within its own word
    np.bitwise_or.at(
        MASKGT, (ar, word),
        (np.uint64(0xFFFFFFFFFFFFFFFF) << (off + one)).astype(np.uint64)
        * (off < np.uint64(63)))
    # clear bits >= N in the last word everywhere
    if N & 63:
        MASKGT[:, Wd - 1] &= (one << np.uint64(N & 63)) - one
    lut = np.array([bin(i).count("1") for i in range(256)],
                   dtype=np.int64)
    tri = 0
    for lo in range(0, len(ca), 262144):
        sl = slice(lo, lo + 262144)
        C = A[ca[sl]] & A[cb[sl]] & MASKGT[cb[sl]]
        tri += int(lut[C.view(np.uint8)].sum())
    wedges = int((deg.astype(object) * (deg.astype(object) - 1) // 2).sum())
    gcc = 3 * tri * 10**9 // wedges if wedges else 0
    return pa.table({
        "n_nodes": pa.array([len(nodes)], type=pa.int64()),
        "n_edges": pa.array([len(ek)], type=pa.int64()),
        "n_triangles": pa.array([tri], type=pa.int64()),
        "n_wedges": pa.array([wedges], type=pa.int64()),
        "gcc_e9": pa.array([gcc], type=pa.int64()),
    })


def sql_clustering_coeff() -> str:
    return f"""
WITH {_copresence_sql_ctes()},
ccd AS MATERIALIZED (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT ua AS node FROM cne UNION ALL SELECT ub FROM cne
  ) GROUP BY 1
),
cct AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS tri
  FROM cne e1
  JOIN cne e2 ON e2.ua = e1.ub
  JOIN cne e3 ON e3.ua = e1.ua AND e3.ub = e2.ub
),
ccw AS MATERIALIZED (
  SELECT CAST(SUM(deg * (deg - 1) // 2) AS BIGINT) AS w,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM ccd
)
SELECT w.n AS n_nodes, (SELECT COUNT(*) FROM cne) AS n_edges,
  t.tri AS n_triangles, w.w AS n_wedges,
  CAST(CASE WHEN w.w = 0 THEN 0
    ELSE 3 * t.tri * 1000000000 // w.w END AS BIGINT) AS gcc_e9
FROM cct t CROSS JOIN ccw w
"""


# ---------------------------------------------------------------------------
# Round 4e: giant component summary + Fano burstiness
# ---------------------------------------------------------------------------


def q_giant_component(sf_dir: str):
    """Giant-component summary of the co-presence graph — the
    percolation readout (is the social graph one connected mass or
    fragments?): exact connected components over the cached edge set
    (vectorized hash-min union-find under the 8M driver cap,
    ops/cc.py; the distributed iteration is the beyond-cap path),
    then component sizes.  Nodes = endpoints of at least one edge
    (matches the SQL edge-derived universe).
    Output (n_nodes, n_components, giant_size, frac_e6)."""
    from rhealpixdggs_py_ray.ops import cc

    ua, ub = _copresence_edge_ends(sf_dir, "giant_component")
    nodes, lab = cc._union_find_label(ua, ub)
    _, sizes = np.unique(lab, return_counts=True)
    n_nodes = len(nodes)
    giant = int(sizes.max(initial=0))
    return pa.table({
        "n_nodes": pa.array([n_nodes], type=pa.int64()),
        "n_components": pa.array([len(sizes)], type=pa.int64()),
        "giant_size": pa.array([giant], type=pa.int64()),
        "frac_e6": pa.array(
            [giant * 10 ** 6 // n_nodes if n_nodes else 0],
            type=pa.int64()),
    })


def sql_giant_component() -> str:
    return f"""
WITH RECURSIVE {_copresence_sql_ctes()},
gcr(n, m) AS (
  SELECT ua, ua FROM (SELECT DISTINCT ua FROM (
    SELECT ua FROM cne UNION ALL SELECT ub FROM cne)) t
  UNION
  SELECT r.n, e.v FROM gcr r JOIN (
    SELECT ua AS u, ub AS v FROM cne
    UNION ALL SELECT ub AS u, ua AS v FROM cne) e ON e.u = r.m
),
gcl AS MATERIALIZED (
  SELECT n, MIN(m) AS lab FROM gcr GROUP BY n
),
gcs AS MATERIALIZED (
  SELECT lab, CAST(COUNT(*) AS BIGINT) AS sz FROM gcl GROUP BY lab
)
SELECT CAST((SELECT COUNT(*) FROM gcl) AS BIGINT) AS n_nodes,
  CAST((SELECT COUNT(*) FROM gcs) AS BIGINT) AS n_components,
  CAST(MAX(sz) AS BIGINT) AS giant_size,
  CAST(MAX(sz) * 1000000 // (SELECT COUNT(*) FROM gcl) AS BIGINT)
    AS frac_e6
FROM gcs
"""


def q_graph_bfs(sf_dir: str):
    """Hop-distance histogram from the smallest user id over the
    co-presence graph (BFS — the reachability/eccentricity probe):
    dist computed exactly on the cached edge set (vectorized frontier
    sweep under the 8M driver cap), capped at GRAPH_BFS_CAP hops;
    unreachable-within-cap nodes report as dist = -1.
    Output (dist, n_nodes)."""
    ua, ub = _copresence_edge_ends(sf_dir, "graph_bfs")
    nodes = np.unique(np.concatenate([ua, ub]))
    cu = np.searchsorted(nodes, ua)
    cv = np.searchsorted(nodes, ub)
    dist = np.full(len(nodes), -1, dtype=np.int64)
    dist[0] = 0   # nodes sorted: index 0 == smallest user id
    for d in range(1, GRAPH_BFS_CAP + 1):
        fu = dist[cu] == d - 1
        fv = dist[cv] == d - 1
        nxt = np.zeros(len(nodes), dtype=bool)
        nxt[cv[fu]] = True
        nxt[cu[fv]] = True
        nxt &= dist < 0
        if not nxt.any():
            break
        dist[nxt] = d
    uq, cnt = np.unique(dist, return_counts=True)
    return pa.table({
        "dist": pa.array(uq.astype(np.int64)),
        "n_nodes": pa.array(cnt.astype(np.int64)),
    })


def sql_graph_bfs() -> str:
    D = GRAPH_BFS_CAP
    return f"""
WITH RECURSIVE {_copresence_sql_ctes()},
gbn AS MATERIALIZED (
  SELECT DISTINCT ua AS n FROM (
    SELECT ua FROM cne UNION ALL SELECT ub FROM cne) t
),
gbe AS MATERIALIZED (
  SELECT ua AS u, ub AS v FROM cne UNION ALL SELECT ub, ua FROM cne
),
gbr(n, d) AS (
  SELECT (SELECT MIN(n) FROM gbn), 0
  UNION
  SELECT e.v, r.d + 1 FROM gbr r JOIN gbe e ON e.u = r.n
  WHERE r.d < {D}
),
gbd AS MATERIALIZED (
  SELECT n, CAST(MIN(d) AS BIGINT) AS dist FROM gbr GROUP BY n
)
SELECT dist, CAST(COUNT(*) AS BIGINT) AS n_nodes FROM gbd GROUP BY dist
UNION ALL
SELECT CAST(-1 AS BIGINT) AS dist,
  CAST((SELECT COUNT(*) FROM gbn) - (SELECT COUNT(*) FROM gbd) AS BIGINT)
    AS n_nodes
WHERE (SELECT COUNT(*) FROM gbn) > (SELECT COUNT(*) FROM gbd)
"""


def q_eigencentrality(sf_dir: str):
    """Eigenvector centrality on the co-presence graph — who sits in
    the densest social mass (the prestige sibling of q_pagerank):
    EIGC_ROUNDS rounds of exact integer power iteration v <- A v,
    rescaled each round to v * 2^20 // max(v) (positive truncating
    division — Python int == SQL BIGINT bit-for-bit, the pca_power
    precedent), starting from all-ones.  Driver iteration under the
    8M-edge cc.py cap; the distributed hash-bucket iteration is the
    beyond-cap path.  Output (user_id, score_q)."""
    ua, ub = _copresence_edge_ends(sf_dir, "eigencentrality")
    nodes = np.unique(np.concatenate([ua, ub]))
    cu = np.searchsorted(nodes, ua)
    cv = np.searchsorted(nodes, ub)
    v = np.ones(len(nodes), dtype=np.int64)
    for _r in range(EIGC_ROUNDS):
        nxt = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(nxt, cu, v[cv])
        np.add.at(nxt, cv, v[cu])
        mx = int(nxt.max(initial=0))
        if mx == 0:
            break
        v = nxt * EIGC_SCALE // mx
    return pa.table({
        "user_id": pa.array(nodes),
        "score_q": pa.array(v),
    })


def sql_eigencentrality() -> str:
    S = EIGC_SCALE
    rounds = []
    for r in range(1, EIGC_ROUNDS + 1):
        prev = f"ec{r - 1}"
        rounds.append(f"""ecs{r} AS MATERIALIZED (
  SELECT e.u AS n, CAST(SUM(p.v) AS BIGINT) AS s
  FROM ecb e JOIN {prev} p ON p.n = e.v
  GROUP BY e.u
),
ec{r} AS MATERIALIZED (
  SELECT o.n,
    COALESCE(s.s, 0) * {S}
      // greatest(1, (SELECT MAX(s) FROM ecs{r})) AS v
  FROM ecn o LEFT JOIN ecs{r} s ON s.n = o.n
)""")
    chain = ",\n".join(rounds)
    return f"""
WITH {_copresence_sql_ctes()},
ecn AS MATERIALIZED (
  SELECT DISTINCT ua AS n FROM (
    SELECT ua FROM cne UNION ALL SELECT ub FROM cne) t
),
ecb AS MATERIALIZED (
  SELECT ua AS u, ub AS v FROM cne UNION ALL SELECT ub, ua FROM cne
),
ec0 AS MATERIALIZED (
  SELECT n, CAST(1 AS BIGINT) AS v FROM ecn
),
{chain}
SELECT n AS user_id, CAST(v AS BIGINT) AS score_q
FROM ec{EIGC_ROUNDS}
"""


def q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction over the co-presence graph — the
    classic who-should-know-whom score: for non-adjacent pairs,
    aa_q = sum over common neighbors c of 10^24 // floor(ln(deg_c) *
    10^12) (every weight an exact integer; common neighbors always
    have deg >= 2 so ln > 0).  The weighted common-neighbor matrix is
    (A * w) @ A in float64 — every product and partial sum is an
    integer < 2^53, so BLAS order cannot round — then the top
    AA_TOPK non-edges by (score desc, a asc, b asc).  Driver compute
    under the 8M-edge cc.py cap.  Output (user_a, user_b, aa_q)."""
    import math

    from rhealpixdggs_py_ray.ops import graph as _graph

    ua, ub = _copresence_edge_ends(sf_dir, "adamic_adar")
    nodes = np.unique(np.concatenate([ua, ub]))
    Nn = len(nodes)
    if Nn > _graph.DRIVER_NODE_CAP:  # bounds the dense Nn x Nn matrix
        raise DriverCapExceeded(
            f"adamic_adar: {Nn:,} nodes exceed the driver node cap "
            f"{_graph.DRIVER_NODE_CAP:,}")
    cu = np.searchsorted(nodes, ua)
    cv = np.searchsorted(nodes, ub)
    A = np.zeros((Nn, Nn), dtype=np.float64)
    A[cu, cv] = 1.0
    A[cv, cu] = 1.0
    deg = A.sum(axis=1).astype(np.int64)
    w = np.zeros(Nn, dtype=np.float64)
    for dv in np.unique(deg):
        if dv >= 2:
            w[deg == dv] = float(10 ** 24
                                 // math.floor(math.log(float(dv)) * 1e12))
    AA = (A * w[None, :]) @ A
    AA[A > 0] = 0.0
    iu = np.triu_indices(Nn, k=1)
    scores = AA[iu].astype(np.int64)
    order = np.lexsort((nodes[iu[1]], nodes[iu[0]], -scores))
    top = order[:AA_TOPK]
    top = top[scores[top] > 0]
    return pa.table({
        "user_a": pa.array(nodes[iu[0]][top]),
        "user_b": pa.array(nodes[iu[1]][top]),
        "aa_q": pa.array(scores[top]),
    })


def sql_adamic_adar() -> str:
    return f"""
WITH {_copresence_sql_ctes()},
aab AS MATERIALIZED (
  SELECT ua AS u, ub AS v FROM cne UNION ALL SELECT ub, ua FROM cne
),
aad AS MATERIALIZED (
  SELECT u, CAST(COUNT(*) AS BIGINT) AS deg FROM aab GROUP BY u
),
aaw AS MATERIALIZED (
  SELECT u, CAST(1000000000000000000000000 AS HUGEINT)
    // CAST(floor(ln(CAST(deg AS DOUBLE)) * 1000000000000.0) AS HUGEINT)
    AS w
  FROM aad WHERE deg >= 2
),
aas AS MATERIALIZED (
  SELECT e1.u AS a, e2.v AS b, CAST(SUM(w.w) AS BIGINT) AS aa_q
  FROM aab e1
  JOIN aab e2 ON e2.u = e1.v AND e2.v > e1.u
  JOIN aaw w ON w.u = e1.v
  WHERE NOT EXISTS (
    SELECT 1 FROM cne x WHERE x.ua = e1.u AND x.ub = e2.v)
  GROUP BY e1.u, e2.v
)
SELECT a AS user_a, b AS user_b, aa_q
FROM aas
QUALIFY row_number() OVER (ORDER BY aa_q DESC, a ASC, b ASC) <= {AA_TOPK}
"""


# ---------------------------------------------------------------------------
# Round 4e: modularity of the home-tile partition + Cramér–von Mises
# ---------------------------------------------------------------------------


def q_graph_modularity(sf_dir: str):
    """Newman modularity of the co-presence graph under the home-tile
    partition (does geography explain the social structure?):
    Q = sum_c (e_c / m - (d_c / 2m)^2) computed EXACTLY as one bignum
    rational — q_e9 = (4m * sum e_c * m - sum d_c^2 * ...) kept as
    num // den with num = sum_c (4 m e_c - d_c^2) and den = 4 m^2,
    q_e9 = num * 1e9 // den (sign-split for the truncating mirror).
    Composes q_home_cells (community = modal res-3 cell) with the
    cached edge set under the cc.py cap.
    Output (m_edges, n_communities, q_e9)."""
    ua, ub = _copresence_edge_ends(sf_dir, "graph_modularity")
    hc = q_home_cells(sf_dir)
    home: dict = {}
    for b in (hc.iter_batches(batch_format="pyarrow")
              if hasattr(hc, "iter_batches") else [hc]):
        for u, c in zip(b["user_id"].to_pylist(),
                        b["home_cell"].to_pylist()):
            home[int(u)] = c
    m = len(ua)
    e_c: dict = {}
    d_c: dict = {}
    for a, b2 in zip(ua.tolist(), ub.tolist()):
        ca, cb = home.get(a), home.get(b2)
        d_c[ca] = d_c.get(ca, 0) + 1
        d_c[cb] = d_c.get(cb, 0) + 1
        if ca == cb:
            e_c[ca] = e_c.get(ca, 0) + 1
    num = sum(4 * m * e_c.get(c, 0) - d * d for c, d in d_c.items())
    den = 4 * m * m
    q = (abs(num) * 10 ** 9) // den if den else 0
    return pa.table({
        "m_edges": pa.array([m], type=pa.int64()),
        "n_communities": pa.array([len(d_c)], type=pa.int64()),
        "q_e9": pa.array([q if num >= 0 else -q], type=pa.int64()),
    })


def sql_graph_modularity() -> str:
    hc = sql_home_cells()
    return f"""
WITH {_copresence_sql_ctes()},
gmh AS MATERIALIZED (
  SELECT user_id, home_cell FROM ({hc}) t
),
gme AS MATERIALIZED (
  SELECT e.ua, e.ub, ha.home_cell AS ca, hb.home_cell AS cb
  FROM cne e
  JOIN gmh ha ON ha.user_id = e.ua
  JOIN gmh hb ON hb.user_id = e.ub
),
gmm AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS m FROM gme
),
gmd AS MATERIALIZED (
  SELECT c, CAST(COUNT(*) AS HUGEINT) AS d FROM (
    SELECT ca AS c FROM gme UNION ALL SELECT cb FROM gme) t GROUP BY c
),
gmec AS MATERIALIZED (
  SELECT ca AS c, CAST(COUNT(*) AS HUGEINT) AS e
  FROM gme WHERE ca = cb GROUP BY ca
),
gmn AS MATERIALIZED (
  SELECT CAST(SUM(4 * mm.m * COALESCE(ec.e, 0) - d.d * d.d) AS HUGEINT)
    AS num, CAST(COUNT(*) AS BIGINT) AS ncom
  FROM gmd d LEFT JOIN gmec ec ON ec.c = d.c CROSS JOIN gmm mm
)
SELECT CAST(mm.m AS BIGINT) AS m_edges, n.ncom AS n_communities,
  CAST(CASE WHEN mm.m = 0 THEN 0
    WHEN n.num >= 0 THEN abs(n.num) * 1000000000 // (4 * mm.m * mm.m)
    ELSE -(abs(n.num) * 1000000000 // (4 * mm.m * mm.m)) END AS BIGINT)
    AS q_e9
FROM gmn n CROSS JOIN gmm mm
"""


def q_k_truss(sf_dir: str):
    """k-truss peeling of the co-presence graph (the cohesive-core
    detector stronger than k-core): TRUSS_ROUNDS rounds of "drop
    every edge in fewer than TRUSS_K - 2 triangles", run on the
    driver with the packed-bitset AND/popcount support counts (the
    clustering_coeff machinery) under the 8M-edge cap.  The final
    statistic is the surviving edge count per round — a convergence
    trace — plus surviving nodes.  Exact integer decisions, fixed
    rounds (documented hop-capped semantics).  Beyond the driver caps
    (graph.DRIVER_EDGE_CAP / DRIVER_NODE_CAP) the peel routes to the
    distributed wedge+mark support fold (ops/graph.k_truss_distributed,
    parity-pinned in tests) instead of asserting.
    Output (round, n_edges, n_nodes)."""
    from rhealpixdggs_py_ray.ops import graph as _graph

    edges = _copresence_edges(sf_dir)
    if edges.count() > _graph.DRIVER_EDGE_CAP:
        return _graph.k_truss_distributed(edges, TRUSS_K, TRUSS_ROUNDS)
    parts = []
    for b in edges.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            parts.append(b["key"].to_numpy(zero_copy_only=False)
                         .astype(np.uint64))
    ek = (np.concatenate(parts) if parts else np.array([], dtype=np.uint64))
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    nodes = np.unique(np.concatenate([ua, ub]))
    Nn = len(nodes)
    if Nn > _graph.DRIVER_NODE_CAP:
        return _graph.k_truss_distributed(edges, TRUSS_K, TRUSS_ROUNDS)
    cu = np.searchsorted(nodes, ua)
    cv = np.searchsorted(nodes, ub)
    Wd = (Nn + 63) // 64
    one = np.uint64(1)
    lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
    alive = np.ones(len(cu), dtype=bool)
    out_r, out_e, out_n = [], [], []
    need = TRUSS_K - 2
    for rnd in range(1, TRUSS_ROUNDS + 1):
        A = np.zeros((Nn, Wd), dtype=np.uint64)
        au, av = cu[alive], cv[alive]
        np.bitwise_or.at(A, (au, (av >> 6).astype(np.int64)),
                         one << (av.astype(np.uint64) & np.uint64(63)))
        np.bitwise_or.at(A, (av, (au >> 6).astype(np.int64)),
                         one << (au.astype(np.uint64) & np.uint64(63)))
        sup = np.zeros(len(au), dtype=np.int64)
        for lo in range(0, len(au), 262144):
            sl = slice(lo, lo + 262144)
            C = A[au[sl]] & A[av[sl]]
            sup[sl] = lut[C.view(np.uint8)].reshape(
                C.shape[0], -1).sum(axis=1)
        keep = sup >= need
        nxt = alive.copy()
        nxt[np.flatnonzero(alive)] = keep
        alive = nxt
        ne = int(alive.sum())
        nn = len(np.unique(np.concatenate(
            [cu[alive], cv[alive]]))) if ne else 0
        out_r.append(rnd)
        out_e.append(ne)
        out_n.append(nn)
        if keep.all() or ne == 0:
            # fixpoint: identical edge set -> identical support next
            # round, so the remaining rounds repeat these counts
            for r2 in range(rnd + 1, TRUSS_ROUNDS + 1):
                out_r.append(r2)
                out_e.append(ne)
                out_n.append(nn)
            break
    return pa.table({
        "round": pa.array(out_r, type=pa.int64()),
        "n_edges": pa.array(out_e, type=pa.int64()),
        "n_nodes": pa.array(out_n, type=pa.int64()),
    })


def sql_k_truss() -> str:
    need = TRUSS_K - 2
    rounds = []
    for r in range(1, TRUSS_ROUNDS + 1):
        prev = f"tr{r - 1}"
        # set-based support: hash joins over the symmetric adjacency
        # (common neighbor c of both endpoints), not correlated scans
        rounds.append(f"""tra{r} AS MATERIALIZED (
  SELECT ua AS u, ub AS v FROM {prev}
  UNION ALL SELECT ub, ua FROM {prev}
),
trs{r} AS MATERIALIZED (
  SELECT e.ua, e.ub, COUNT(q.v) AS sup
  FROM {prev} e
  LEFT JOIN tra{r} pjoin ON pjoin.u = e.ua
  LEFT JOIN tra{r} q ON q.u = e.ub AND q.v = pjoin.v
  GROUP BY e.ua, e.ub
),
tr{r} AS MATERIALIZED (
  SELECT ua, ub FROM trs{r} WHERE sup >= {need}
)""")
    chain = ",\n".join(rounds)
    sel = "\nUNION ALL\n".join(
        f"""SELECT CAST({r} AS BIGINT) AS round,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM tr{r}) AS n_edges,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM (
    SELECT ua AS n FROM tr{r} UNION SELECT ub FROM tr{r}) t) AS n_nodes"""
        for r in range(1, TRUSS_ROUNDS + 1))
    return f"""
WITH {_copresence_sql_ctes()},
tr0 AS MATERIALIZED (SELECT ua, ub FROM cne),
{chain}
{sel}
"""


def q_rich_club(sf_dir: str):
    """Rich-club coefficient of the co-presence graph — do the most
    social users preferentially connect to each other?  phi =
    edges among nodes with degree >= RICH_DEG over the possible
    pairs, exact integers: phi_e6 = 2 * e_rich * 1e6 //
    (n_rich * (n_rich - 1)).  Driver compute under the 8M cap.
    Output (n_rich, e_rich, phi_e6)."""
    ua, ub = _copresence_edge_ends(sf_dir, "rich_club")
    nodes, deg = np.unique(np.concatenate([ua, ub]), return_counts=True)
    rich = set(nodes[deg >= RICH_DEG].tolist())
    n_rich = len(rich)
    e_rich = sum(1 for a, b2 in zip(ua.tolist(), ub.tolist())
                 if a in rich and b2 in rich)
    phi = (2 * e_rich * 10 ** 6 // (n_rich * (n_rich - 1))
           if n_rich >= 2 else 0)
    return pa.table({
        "n_rich": pa.array([n_rich], type=pa.int64()),
        "e_rich": pa.array([e_rich], type=pa.int64()),
        "phi_e6": pa.array([phi], type=pa.int64()),
    })


def sql_rich_club() -> str:
    return f"""
WITH {_copresence_sql_ctes()},
rcd AS MATERIALIZED (
  SELECT n, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT ua AS n FROM cne UNION ALL SELECT ub FROM cne) t GROUP BY n
),
rcr AS MATERIALIZED (
  SELECT n FROM rcd WHERE deg >= {RICH_DEG}
),
rce AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS e_rich
  FROM cne e
  WHERE e.ua IN (SELECT n FROM rcr) AND e.ub IN (SELECT n FROM rcr)
),
rcn AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_rich FROM rcr
)
SELECT n.n_rich, e.e_rich,
  CAST(CASE WHEN n.n_rich >= 2
    THEN 2 * e.e_rich * 1000000 // (n.n_rich * (n.n_rich - 1))
    ELSE 0 END AS BIGINT) AS phi_e6
FROM rcn n CROSS JOIN rce e
"""


def q_degree_histogram(sf_dir: str):
    """Log-binned degree distribution of the co-presence graph — the
    scale-free-or-not readout: bin k = floor(log2(degree)) computed
    by EXACT integer comparison against powers of two (no float
    log), counts per bin.  Output (bin, lo_degree, n_nodes)."""
    ua, ub = _copresence_edge_ends(sf_dir, "degree_histogram")
    _nodes, deg = np.unique(np.concatenate([ua, ub]), return_counts=True)
    bins = np.zeros(len(deg), dtype=np.int64)
    for k in range(1, 32):
        bins[deg >= (1 << k)] = k
    uq, cnt = np.unique(bins, return_counts=True)
    return pa.table({
        "bin": pa.array(uq),
        "lo_degree": pa.array((np.int64(1) << uq.astype(np.int64))),
        "n_nodes": pa.array(cnt.astype(np.int64)),
    })


def sql_degree_histogram() -> str:
    cases = " ".join(
        f"WHEN deg >= {1 << k} THEN {k}" for k in range(31, 0, -1))
    return f"""
WITH {_copresence_sql_ctes()},
dhd AS MATERIALIZED (
  SELECT n, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT ua AS n FROM cne UNION ALL SELECT ub FROM cne) t GROUP BY n
),
dhb AS MATERIALIZED (
  SELECT CASE {cases} ELSE 0 END AS bin FROM dhd
)
SELECT CAST(bin AS BIGINT) AS bin,
  CAST(CASE bin {" ".join(f"WHEN {k} THEN {1 << k}" for k in range(32))}
    END AS BIGINT) AS lo_degree,
  CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM dhb GROUP BY bin
"""


def q_zero_support_edges(sf_dir: str):
    """Bridge-risk summary of the co-presence graph — edges embedded
    in NO triangle (zero support) are the single points of failure
    for information flow: counted with the packed-bitset AND/popcount
    (the k_truss machinery) under the driver cap.
    Output (n_edges, n_zero_support, frac_e6)."""
    from rhealpixdggs_py_ray.ops import graph as _graph

    ua, ub = _copresence_edge_ends(sf_dir, "zero_support_edges")
    nodes = np.unique(np.concatenate([ua, ub]))
    Nn = len(nodes)
    if Nn > _graph.DRIVER_NODE_CAP:  # bounds the Nn x Nn/64 bitset
        raise DriverCapExceeded(
            f"zero_support_edges: {Nn:,} nodes exceed the driver node cap "
            f"{_graph.DRIVER_NODE_CAP:,}")
    cu = np.searchsorted(nodes, ua)
    cv = np.searchsorted(nodes, ub)
    Wd = (Nn + 63) // 64
    one = np.uint64(1)
    A = np.zeros((Nn, Wd), dtype=np.uint64)
    np.bitwise_or.at(A, (cu, (cv >> 6).astype(np.int64)),
                     one << (cv.astype(np.uint64) & np.uint64(63)))
    np.bitwise_or.at(A, (cv, (cu >> 6).astype(np.int64)),
                     one << (cu.astype(np.uint64) & np.uint64(63)))
    lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
    zero = 0
    for lo in range(0, len(cu), 262144):
        sl = slice(lo, lo + 262144)
        C = A[cu[sl]] & A[cv[sl]]
        sup = lut[C.view(np.uint8)].reshape(C.shape[0], -1).sum(axis=1)
        zero += int((sup == 0).sum())
    m = len(ua)
    return pa.table({
        "n_edges": pa.array([m], type=pa.int64()),
        "n_zero_support": pa.array([zero], type=pa.int64()),
        "frac_e6": pa.array([zero * 10 ** 6 // m if m else 0],
                            type=pa.int64()),
    })


def sql_zero_support_edges() -> str:
    return f"""
WITH {_copresence_sql_ctes()},
zsa AS MATERIALIZED (
  SELECT ua AS u, ub AS v FROM cne UNION ALL SELECT ub, ua FROM cne
),
zss AS MATERIALIZED (
  SELECT e.ua, e.ub, COUNT(q.v) AS sup
  FROM cne e
  LEFT JOIN zsa p ON p.u = e.ua
  LEFT JOIN zsa q ON q.u = e.ub AND q.v = p.v
  GROUP BY e.ua, e.ub
),
zst AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS m,
    CAST(COUNT(*) FILTER (WHERE sup = 0) AS BIGINT) AS z
  FROM zss
)
SELECT m AS n_edges, z AS n_zero_support,
  CAST(CASE WHEN m > 0 THEN z * 1000000 // m ELSE 0 END AS BIGINT)
    AS frac_e6
FROM zst
"""
