"""Query-suite family module: stats2 (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_stats1 import q_tile_counts, q_tile_similarity, sql_tile_similarity  # noqa: F401



def sql_haar_energy() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    n_levels = HAAR_LEN.bit_length() - 1
    steps, energies = [], []
    prev = "hw0"
    for lvl in range(1, n_levels + 1):
        steps.append(f"""
hw{lvl} AS MATERIALIZED (
  SELECT tile_id, i // 2 AS i,
    CAST(SUM(CASE WHEN i % 2 = 0 THEN v ELSE -v END) AS BIGINT) AS d,
    CAST(SUM(v) AS BIGINT) AS v
  FROM {prev} GROUP BY 1, 2
)""")
        energies.append(
            f"SELECT tile_id, {lvl} AS level,"
            f" CAST(SUM(d * d) AS BIGINT) AS energy FROM hw{lvl} GROUP BY 1")
        prev = f"hw{lvl}"
    return f"""
WITH hwi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
hwc AS MATERIALIZED (
  SELECT i.cell_id AS tile_id, epoch_us(e.ts) // 86400000000 AS day,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM events e JOIN hwi i ON i.event_id = e.event_id
  GROUP BY 1, 2
),
hwr AS MATERIALIZED (
  SELECT tile_id, MIN(day) AS d0 FROM hwc GROUP BY 1
),
hw0 AS MATERIALIZED (
  SELECT g.tile_id, g.i, COALESCE(c.c, 0) AS v
  FROM (SELECT r.tile_id, r.d0, unnest(generate_series(0, {HAAR_LEN - 1}))
          AS i FROM hwr r) g
  LEFT JOIN hwc c ON c.tile_id = g.tile_id AND c.day = g.d0 + g.i
),{",".join(steps)}
SELECT tile_id, CAST(level AS BIGINT) AS level, energy
FROM ({" UNION ALL ".join(energies)})
"""


def q_vopt_bins(sf_dir: str):
    """Optimal histogram construction: partition the zero-filled
    global daily count series into VOPT_K contiguous bins minimizing
    total within-bin SSE — the V-optimal binning query optimizers
    build.  Segment cost clears to integers as (L*S2 - S1^2) * 1e6
    // L (Python bignums mirror SQL HUGEINT); the DP tie-breaks on
    the smaller split.  The day table is one bounded fold; the DP is
    a driver finish over n<=span days.  Output VOPT_K rows (bin,
    start_day, end_day, cost_q)."""
    d0, counts = _daily_counts_driver(sf_dir)
    v = counts.tolist()
    n = len(v)
    if not n >= VOPT_K:
        raise AssertionError(f"vopt_bins needs >= {VOPT_K} days, got {n}")
    ps1 = [0] * (n + 1)
    ps2 = [0] * (n + 1)
    for i in range(n):
        ps1[i + 1] = ps1[i] + v[i]
        ps2[i + 1] = ps2[i] + v[i] * v[i]

    def cost(j: int, i: int) -> int:  # inclusive 0-based segment [j, i]
        L = i - j + 1
        s1 = ps1[i + 1] - ps1[j]
        s2 = ps2[i + 1] - ps2[j]
        return (L * s2 - s1 * s1) * 1_000_000 // L

    NEG = -1
    INF = float("inf")
    dp = [[INF] * n for _ in range(VOPT_K + 1)]
    arg = [[NEG] * n for _ in range(VOPT_K + 1)]
    for i in range(n):
        dp[1][i] = cost(0, i)
        arg[1][i] = 0
    for k in range(2, VOPT_K + 1):
        for i in range(k - 1, n):
            best, bj = INF, NEG
            for j in range(k - 1, i + 1):  # bin k starts at j
                val = dp[k - 1][j - 1] + cost(j, i)
                if val < best:  # strict: ties keep the SMALLER j
                    best, bj = val, j
            dp[k][i] = best
            arg[k][i] = bj
    bins = []
    i = n - 1
    for k in range(VOPT_K, 0, -1):
        j = arg[k][i]
        bins.append((k, d0 + j, d0 + i, cost(j, i)))
        i = j - 1
    bins.sort()
    return pa.table({
        "bin": pa.array(np.array([b[0] for b in bins], dtype=np.int64)),
        "start_day": pa.array(np.array([b[1] for b in bins],
                                       dtype=np.int64)),
        "end_day": pa.array(np.array([b[2] for b in bins], dtype=np.int64)),
        "cost_q": pa.array(np.array([b[3] for b in bins], dtype=np.int64)),
    })


def sql_vopt_bins() -> str:
    # dp CTEs per k: dpk{k}(i, val, j) with argmin tie-break smaller j
    steps = []
    for k in range(2, VOPT_K + 1):
        steps.append(f"""
dpk{k} AS MATERIALIZED (
  SELECT i, val, j FROM (
    SELECT s.i, p.val + s.cost AS val, s.j,
      row_number() OVER (PARTITION BY s.i ORDER BY p.val + s.cost, s.j)
        AS rn
    FROM vseg s JOIN dpk{k - 1} p ON p.i = s.j - 1
    WHERE s.i >= {k - 1} AND s.j >= {k - 1}
  ) WHERE rn = 1
)""")
    bt = ["""
bt{K} AS MATERIALIZED (
  SELECT {K} AS bin, d.j AS s, d.i AS e FROM dpk{K} d
  WHERE d.i = (SELECT n - 1 FROM vn)
)""".replace("{K}", str(VOPT_K))]
    for k in range(VOPT_K - 1, 0, -1):
        bt.append(f"""
bt{k} AS MATERIALIZED (
  SELECT {k} AS bin, d.j AS s, d.i AS e
  FROM dpk{k} d JOIN bt{k + 1} b ON d.i = b.s - 1
)""")
    union = " UNION ALL ".join(
        f"SELECT bin, s, e FROM bt{k}" for k in range(1, VOPT_K + 1))
    return f"""
WITH vdc AS MATERIALIZED (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
vr AS MATERIALIZED (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM vdc),
vz AS MATERIALIZED (
  SELECT d.day - r.d0 AS i, CAST(COALESCE(c.c, 0) AS HUGEINT) AS v
  FROM (SELECT unnest(generate_series(r2.d0, r2.d1)) AS day FROM vr r2) d
  CROSS JOIN vr r LEFT JOIN vdc c ON c.day = d.day
),
vn AS MATERIALIZED (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM vz),
vps AS MATERIALIZED (
  SELECT i, SUM(v) OVER w AS s1, SUM(v * v) OVER w AS s2
  FROM vz WINDOW w AS (ORDER BY i ROWS UNBOUNDED PRECEDING)
),
vseg AS MATERIALIZED (
  SELECT j.i AS j, i.i AS i,
    CAST((CAST(i.i - j.i + 1 AS HUGEINT)
        * (i.s2 - COALESCE(jp.s2, 0))
      - (i.s1 - COALESCE(jp.s1, 0)) * (i.s1 - COALESCE(jp.s1, 0)))
      * 1000000 // CAST(i.i - j.i + 1 AS HUGEINT) AS HUGEINT) AS cost
  FROM vps i JOIN vps j ON j.i <= i.i
  LEFT JOIN vps jp ON jp.i = j.i - 1
),
dpk1 AS MATERIALIZED (
  SELECT i, cost AS val, j FROM vseg WHERE j = 0
),{",".join(steps)},{",".join(bt)}
SELECT CAST(u.bin AS BIGINT) AS bin,
  CAST(u.s + r.d0 AS BIGINT) AS start_day,
  CAST(u.e + r.d0 AS BIGINT) AS end_day,
  CAST(g.cost AS BIGINT) AS cost_q
FROM ({union}) u
JOIN vseg g ON g.j = u.s AND g.i = u.e
CROSS JOIN vr r
"""


def _lof_attach(gr: pa.Table) -> pa.Table:
    """q_lof_outliers' per-bucket resolve: bind each edge row
    (qid >= 0) to its neighbor node's dsum row (qid < 0) and emit
    (qid, neighbor mass) partials.  A neighbor with no dsum row in the
    bucket raises KeyError."""
    if gr.num_rows == 0 or "node" not in gr.column_names:
        return pa.table({"key": pa.array([], type=pa.uint64()),
                         "one": pa.array([], type=pa.int64())})
    node = gr["node"].to_numpy(zero_copy_only=False).astype(np.uint64)
    qid = gr["qid"].to_numpy(zero_copy_only=False)
    ds_ = gr["dsum"].to_numpy(zero_copy_only=False)
    own = qid < 0
    em = ~own
    # vectorized lookup: own nodes are unique (dsum is a fold), so
    # searchsorted over the sorted own array replaces a dict
    order = np.argsort(node[own])
    so_nodes = node[own][order]
    so_mass = ds_[own][order]
    nb = node[em]
    pos = np.minimum(np.searchsorted(so_nodes, nb), len(so_nodes) - 1)
    miss = nb if len(so_nodes) == 0 else nb[so_nodes[pos] != nb]
    if len(miss):
        raise KeyError(f"lof_outliers: no dsum row for neighbor node(s) "
                       f"{miss[:5].tolist()}")
    return pa.table({
        "key": pa.array(qid[em].astype(np.uint64), type=pa.uint64()),
        "one": pa.array(so_mass[pos]),
    })


def q_lof_outliers(sf_dir: str):
    """Density-based outlier scoring over the exact kNN graph
    (complements the distributional q_embedding_norm_outliers): each
    vector's k-distance mass dsum = sum over its k neighbors of
    (1e6 - cos_micros); the LOF-style score compares the neighbors'
    average mass to one's own — lof_e6 = (sum_{o in N(p)} dsum_o) *
    1e6 // (k * dsum_p), all integers.  Neighbor masses attach through
    ONE bucketed union exchange (dsum rows + edge rows meet per
    vec_id; no join operator).  Output (qid, dsum, nb_sum, lof_e6)."""
    from rhealpixdggs_py_ray.ops import ann
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    g = ann.knn_graph(emb, k=LOF_K).materialize()  # consumed twice

    def dsum_partial(batch: pa.Table) -> pa.Table:
        qid = batch["qid"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dist = (1_000_000
                - batch["cos_micros"].to_numpy(zero_copy_only=False))
        return pa.table({"key": pa.array(qid, type=pa.uint64()),
                         "one": pa.array(dist.astype(np.int64))})

    dsum = sum_by_u64_key(
        g.map_batches(dsum_partial, batch_format="pyarrow",
                      zero_copy_batch=True),
        "key", "one", "dsum", n_buckets=8,
    ).materialize()  # n vectors rows; consumed twice below

    # attach neighbor masses: edge rows bucket by NEIGHBOR id, dsum
    # rows by their own id; resolve emits (qid, dsum_neighbor) partials
    def edge_rows(batch: pa.Table) -> pa.Table:
        nb_ = batch["vec_id"].to_numpy(zero_copy_only=False).astype(
            np.uint64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(nb_, 8)),
            "node": pa.array(nb_, type=pa.uint64()),
            "qid": pa.array(batch["qid"].to_numpy(zero_copy_only=False)
                            .astype(np.int64)),
            "dsum": pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
        })

    def dsum_rows(batch: pa.Table) -> pa.Table:
        node = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(node, 8)),
            "node": pa.array(node, type=pa.uint64()),
            "qid": pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
            "dsum": pa.array(batch["dsum"].to_numpy(zero_copy_only=False)),
        })

    nb_sum = sum_by_u64_key(
        g.map_batches(edge_rows, batch_format="pyarrow",
                      zero_copy_batch=True)
        .union(dsum.map_batches(dsum_rows, batch_format="pyarrow",
                                zero_copy_batch=True))
        .groupby("bucket").map_groups(_lof_attach, batch_format="pyarrow"),
        "key", "one", "nb_sum", n_buckets=8,
    )

    # final attach: own dsum + neighbor sums meet per qid
    def own_rows(batch: pa.Table) -> pa.Table:
        node = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(node, 8)),
            "node": pa.array(node, type=pa.uint64()),
            "v": pa.array(batch["dsum"].to_numpy(zero_copy_only=False)),
            "kind": pa.array(np.zeros(batch.num_rows, dtype=np.int64)),
        })

    def nbs_rows(batch: pa.Table) -> pa.Table:
        node = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(node, 8)),
            "node": pa.array(node, type=pa.uint64()),
            "v": pa.array(batch["nb_sum"].to_numpy(zero_copy_only=False)),
            "kind": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    def finish(gr: pa.Table) -> pa.Table:
        if gr.num_rows == 0 or "node" not in gr.column_names:
            return pa.table({"qid": pa.array([], type=pa.int64()),
                             "dsum": pa.array([], type=pa.int64()),
                             "nb_sum": pa.array([], type=pa.int64()),
                             "lof_e6": pa.array([], type=pa.int64())})
        node = gr["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = gr["v"].to_numpy(zero_copy_only=False)
        kind = gr["kind"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(node, return_inverse=True)
        own = np.zeros(len(uq), dtype=np.int64)
        nbs = np.zeros(len(uq), dtype=np.int64)
        np.add.at(own, inv[kind == 0], v[kind == 0])
        np.add.at(nbs, inv[kind == 1], v[kind == 1])
        return pa.table({
            "qid": pa.array(uq),
            "dsum": pa.array(own),
            "nb_sum": pa.array(nbs),
            "lof_e6": pa.array(nbs * 1_000_000 // (LOF_K * own)),
        })

    return (
        dsum.map_batches(own_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
        .union(nb_sum.map_batches(nbs_rows, batch_format="pyarrow",
                                  zero_copy_batch=True))
        .groupby("bucket").map_groups(finish, batch_format="pyarrow")
    )


def sql_lof_outliers() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return f"""
WITH lkg AS MATERIALIZED ({ann.knn_graph_sql(LOF_K)}),
lds AS MATERIALIZED (
  SELECT qid, CAST(SUM(1000000 - cos_micros) AS BIGINT) AS dsum
  FROM lkg GROUP BY 1
),
lnb AS MATERIALIZED (
  SELECT g.qid, CAST(SUM(d.dsum) AS BIGINT) AS nb_sum
  FROM lkg g JOIN lds d ON d.qid = g.vec_id
  GROUP BY 1
)
SELECT o.qid, o.dsum, n.nb_sum,
  CAST(n.nb_sum * 1000000 // ({LOF_K} * o.dsum) AS BIGINT) AS lof_e6
FROM lds o JOIN lnb n ON n.qid = o.qid
"""


def q_eb_shrinkage(sf_dir: str):
    """Small-area estimation: each res-2 tile's purchase rate shrunk
    toward the global rate with prior strength EB_ALPHA — shrunk_e9 =
    (x*1e9*(n_g) + alpha*x_g*1e9) // ((n + alpha) * n_g) ... kept as
    the exact integer rational (x + alpha*x_g/n_g) / (n + alpha)
    cleared to (x*n_g + alpha*x_g) * 1e9 // ((n + alpha) * n_g).
    The sparse-tile stabilizer every geospatial risk map needs.  One
    packed (tile, is_purchase) exchange + a global fold.  Output
    (tile_id, x, n, raw_e9, shrunk_e9)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["event_id", "event_type"],
               blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = u.astype(np.uint64) >> np.uint64(52)
        # value packs (purchase << 32) | 1 so one fold carries x and n
        isp = (et == "purchase").astype(np.int64)
        return pa.table({
            "key": pa.array(tile, type=pa.uint64()),
            "one": pa.array((isp << np.int64(32)) | np.int64(1)),
        })

    keys, pcs = sum_to_driver(  # <= 486 rows
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    rows = [(k, v >> 32, v & ((1 << 32) - 1))
            for k, v in zip(keys.tolist(), pcs.tolist())]
    xg = sum(r[1] for r in rows)
    ng = sum(r[2] for r in rows)
    out = []
    for tile, x, n in rows:
        raw = x * 10**9 // n
        shr = (x * ng + EB_ALPHA * xg) * 10**9 // ((n + EB_ALPHA) * ng)
        out.append((tile, x, n, raw, shr))
    t_u64 = (np.array([o[0] for o in out], dtype=np.uint64)
             << np.uint64(52)) | np.uint64(TILE_RES)
    return pa.table({
        "tile_id": su.to_string_fixed(t_u64, TILE_RES),
        "x": pa.array(np.array([o[1] for o in out], dtype=np.int64)),
        "n": pa.array(np.array([o[2] for o in out], dtype=np.int64)),
        "raw_e9": pa.array(np.array([o[3] for o in out], dtype=np.int64)),
        "shrunk_e9": pa.array(np.array([o[4] for o in out],
                                       dtype=np.int64)),
    })


def sql_eb_shrinkage() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH ebi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
ebc AS MATERIALIZED (
  SELECT i.cell_id AS tile_id,
    CAST(COUNT(CASE WHEN e.event_type = 'purchase' THEN 1 END) AS BIGINT)
      AS x,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events e JOIN ebi i ON i.event_id = e.event_id
  GROUP BY 1
),
ebg AS (
  SELECT CAST(SUM(x) AS BIGINT) AS xg, CAST(SUM(n) AS BIGINT) AS ng
  FROM ebc
)
SELECT c.tile_id, c.x, c.n,
  CAST(c.x * 1000000000 // c.n AS BIGINT) AS raw_e9,
  CAST((c.x * g.ng + {EB_ALPHA} * g.xg) * 1000000000
    // ((c.n + {EB_ALPHA}) * g.ng) AS BIGINT) AS shrunk_e9
FROM ebc c CROSS JOIN ebg g
"""


# ---------------------------------------------------------------------------
# Round 4d: leave-one-out target encoding of event_type
# ---------------------------------------------------------------------------


def q_target_encoding(sf_dir: str):
    """Feature engineering: leave-one-out target encoding of
    event_type against the value column — enc = (S_type - v) //
    (n_type - 1) over micro-quantized integer values, the leakage-free
    categorical encoder.  Values quantize BEFORE the sums (order-free
    ints); per-type sums are one tiny fold broadcast into a pure map.
    Output (event_id, event_type, v_micro, enc_micro)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = np.floor(batch["value"].to_numpy(zero_copy_only=False)
                     * 1e6).astype(np.int64)
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        # two key namespaces (code*2 = value sum, code*2+1 = count) so
        # neither can overflow into the other at any scale
        return pa.table({
            "key": pa.array(np.concatenate([code * 2, code * 2 + 1]),
                            type=pa.uint64()),
            "one": pa.array(np.concatenate(
                [v, np.ones(len(v), dtype=np.int64)])),
        })

    keys, sums = sum_to_driver(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    raw = dict(zip(keys.tolist(), sums.tolist()))
    stats = {c: (raw.get(c * 2, 0), raw.get(c * 2 + 1, 0))
             for c in range(len(EVT_TYPES))}
    sref = ray.put(stats)

    def tdiv(a, b):
        q = np.abs(a) // np.abs(b)
        return np.where((a < 0) != (b < 0), -q, q)

    def encode(batch: pa.Table) -> pa.Table:
        st = ray.get(sref)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = np.floor(batch["value"].to_numpy(zero_copy_only=False)
                     * 1e6).astype(np.int64)
        code = np.array([codes[x] for x in et], dtype=np.int64)
        S = np.array([st[c][0] for c in code.tolist()], dtype=np.int64)
        n = np.array([st[c][1] for c in code.tolist()], dtype=np.int64)
        enc = tdiv(S - v, np.maximum(n - 1, 1))
        return pa.table({
            "event_id": batch["event_id"],
            "event_type": batch["event_type"],
            "v_micro": pa.array(v),
            "enc_micro": pa.array(enc),
        })

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def sql_target_encoding() -> str:
    return """
WITH tec AS MATERIALIZED (
  SELECT event_type,
    CAST(SUM(CAST(floor(value * 1000000.0) AS BIGINT)) AS BIGINT) AS s,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1
)
SELECT e.event_id, e.event_type,
  CAST(floor(e.value * 1000000.0) AS BIGINT) AS v_micro,
  CAST((t.s - CAST(floor(e.value * 1000000.0) AS BIGINT))
    // greatest(t.n - 1, 1) AS BIGINT) AS enc_micro
FROM events e JOIN tec t ON t.event_type = e.event_type
"""


def q_facility_placement(sf_dir: str):
    """Operations research on the grid: pick FAC_K res-2 tiles
    greedily maximizing newly covered distinct visitors (the classic
    (1 - 1/e) max-coverage heuristic behind store/antenna placement).
    Ties break on the smaller tile id.  Distinct visits fold through
    one u64 exchange; the greedy runs on the driver over the bounded
    (n_users x occupied-tiles) visit set; the oracle unrolls the
    selection as chained CTEs (mmr_rerank pattern).  Output (rank,
    tile_id, gain, covered_total)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)

    def visits(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = u.astype(np.uint64) >> np.uint64(52)
        key = np.unique((uid.astype(np.uint64) << np.uint64(12)) | tile)
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    key, _ = sum_to_driver(
        ds.map_batches(visits, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    uu, ui = np.unique((key >> np.uint64(12)).astype(np.int64),
                       return_inverse=True)
    tile = (key & np.uint64((1 << 12) - 1)).astype(np.int64)
    covered = np.zeros(len(uu), dtype=bool)
    out = []
    tot = 0
    for r in range(1, FAC_K + 1):
        # gain per tile over uncovered users
        live = ~covered[ui]
        tl, gain = np.unique(tile[live], return_counts=True) \
            if live.any() else (np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64))
        if not len(tl):
            break
        best = int(np.argmax(gain))  # first max -> smallest tile (sorted)
        bt = int(tl[best])
        g = int(gain[best])
        covered[ui[(tile == bt)]] = True
        tot += g
        out.append((r, bt, g, tot))
    t_u64 = (np.array([o[1] for o in out], dtype=np.uint64)
             << np.uint64(52)) | np.uint64(TILE_RES)
    return pa.table({
        "rank": pa.array(np.array([o[0] for o in out], dtype=np.int64)),
        "tile_id": su.to_string_fixed(t_u64, TILE_RES),
        "gain": pa.array(np.array([o[2] for o in out], dtype=np.int64)),
        "covered_total": pa.array(np.array([o[3] for o in out],
                                           dtype=np.int64)),
    })


def sql_facility_placement() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    steps = []
    for r in range(1, FAC_K + 1):
        cov_pred = (f"AND NOT EXISTS (SELECT 1 FROM cov{r - 1} c"
                    f" WHERE c.user_id = v.user_id)") if r > 1 else ""
        picked = " UNION ".join(f"SELECT tile FROM pick{i}"
                                for i in range(1, r + 1))
        steps.append(f"""
gain{r} AS MATERIALIZED (
  SELECT v.tile, CAST(COUNT(*) AS BIGINT) AS g
  FROM fpv v WHERE 1=1 {cov_pred}
  GROUP BY 1
),
pick{r} AS MATERIALIZED (
  SELECT {r} AS rank, tile, g FROM gain{r}
  ORDER BY g DESC, tile ASC LIMIT 1
),
cov{r} AS MATERIALIZED (
  SELECT DISTINCT v.user_id FROM fpv v
  WHERE v.tile IN ({picked})
)""")
    picks_union = " UNION ALL ".join(
        f"SELECT rank, tile, g FROM pick{r}" for r in range(1, FAC_K + 1))
    return f"""
WITH fpi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
fpv AS MATERIALIZED (
  SELECT DISTINCT e.user_id, i.cell_id AS tile
  FROM events e JOIN fpi i ON i.event_id = e.event_id
),{",".join(steps)}
SELECT CAST(p.rank AS BIGINT) AS rank, p.tile AS tile_id, p.g AS gain,
  CAST(SUM(p.g) OVER (ORDER BY p.rank ROWS UNBOUNDED PRECEDING)
    AS BIGINT) AS covered_total
FROM ({picks_union}) p
"""


# ---------------------------------------------------------------------------
# Round 4d: 1-D earth-mover distance between A/B arms
# ---------------------------------------------------------------------------


def q_emd_1d(sf_dir: str):
    """Total distribution shift (companion to ks_test's max): the 1-D
    Wasserstein/EMD between the arms' value distributions clears to
    W_num = sum over the ordered value grid of |cumA*nB - cumB*nA| *
    gap, where gap is the micro-quantized step to the next distinct
    value — all integers (same single-exchange bit-order fold as
    ks_test).  Output one row (n_a, n_b, w_num, emd_micro)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        if not (v >= 0).all():
            raise AssertionError("bit-order key needs non-negative values")
        bits = v.view(np.uint64)
        arm = (uid % 2).astype(np.int64)
        packed = np.where(arm == 0, np.int64(1) << np.int64(32), np.int64(1))
        return pa.table({
            "key": pa.array(bits, type=pa.uint64()),
            "one": pa.array(packed),
        })

    key, pc_ = sum_to_driver(  # keys ascending == values ascending
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    vq = np.floor(key.view(np.float64) * 1e6).astype(np.int64)
    ca = pc_ >> np.int64(32)
    cb = pc_ & np.int64((1 << 32) - 1)
    na, nb_ = int(ca.sum()), int(cb.sum())
    cumA = np.cumsum(ca)[:-1]
    cumB = np.cumsum(cb)[:-1]
    gap = np.diff(vq)
    w_num = int((np.abs(cumA * nb_ - cumB * na) * gap).sum())
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb_], type=pa.int64()),
        "w_num": pa.array([w_num], type=pa.int64()),
        "emd_micro": pa.array([w_num // (na * nb_)], type=pa.int64()),
    })


def sql_emd_1d() -> str:
    return """
WITH emc AS MATERIALIZED (
  SELECT value, CAST(floor(value * 1000000.0) AS BIGINT) AS vq,
    CAST(COUNT(CASE WHEN user_id % 2 = 0 THEN 1 END) AS BIGINT) AS ca,
    CAST(COUNT(CASE WHEN user_id % 2 = 1 THEN 1 END) AS BIGINT) AS cb
  FROM events GROUP BY 1
),
emn AS MATERIALIZED (
  SELECT CAST(SUM(ca) AS BIGINT) AS na, CAST(SUM(cb) AS BIGINT) AS nb
  FROM emc
),
emw AS MATERIALIZED (
  SELECT vq, SUM(ca) OVER w AS cuma, SUM(cb) OVER w AS cumb,
    lead(vq) OVER (ORDER BY value) AS vnext
  FROM emc WINDOW w AS (ORDER BY value ROWS UNBOUNDED PRECEDING)
)
SELECT n.na AS n_a, n.nb AS n_b,
  CAST(SUM(abs(w.cuma * n.nb - w.cumb * n.na) * (w.vnext - w.vq))
    AS BIGINT) AS w_num,
  CAST(SUM(abs(w.cuma * n.nb - w.cumb * n.na) * (w.vnext - w.vq))
    // (n.na * n.nb) AS BIGINT) AS emd_micro
FROM emw w CROSS JOIN emn n
WHERE w.vnext IS NOT NULL
GROUP BY n.na, n.nb
"""


# ---------------------------------------------------------------------------
# Round 4d: geographically weighted mean surface (GWR-lite)
# ---------------------------------------------------------------------------


def q_gw_mean(sf_dir: str):
    """Locally weighted value surface: at every res-4 cell within
    KDE_R-1 of data, the kernel-weighted mean of event values —
    wmean = (sum_o w(c,o)*sv_o) // (sum_o w(c,o)*n_o) with the
    triangular Chebyshev kernel and micro-quantized values; the
    spatial smoother behind price/risk heatmaps, exact end-to-end.
    Same grid_flood halo shape as kde_raster with TWO integer
    accumulators riding one exchange (key namespaces cell*2 /
    cell*2+1).  Output (cell_id, wsum, wcnt, wmean_micro)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    k = DISSOLVE_RES
    D = KDE_R - 1
    L = FLOOD_T + 2 * D

    from rhealpixdggs_py_ray.core import index as cidx

    raw = _read(sf_dir, "events", columns=["event_id", "value"], blocks=4)

    def cells2(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        v = np.floor(batch["value"].to_numpy(zero_copy_only=False)
                     * 1e6).astype(np.int64)
        lon, lat = oracle.lonlat_from_id(ids)
        m = np.abs(lat) <= DISSOLVE_LAT
        ids, v = ids[m], v[m]
        u = cidx.cell_from_point(CFG, k, lon[m], lat[m], plane=False)
        cu = u.astype(np.uint64)
        return pa.table({
            "key": pa.array(np.concatenate([cu * np.uint64(2),
                                            cu * np.uint64(2) + np.uint64(1)]),
                            type=pa.uint64()),
            "one": pa.array(np.concatenate(
                [np.ones(len(cu), dtype=np.int64), v])),
        })

    occ = sum_by_u64_key(
        raw.map_batches(cells2, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "s",
    )

    def split(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "cell_u64": pa.array(key >> np.uint64(1)),
            "s": batch["s"],
            "kind": pa.array((key & np.uint64(1)).astype(np.int64)),
        })

    def conv(ty, tx, ly, lx, vals) -> pa.Table:
        cg = np.zeros((2, L, L), dtype=np.int64)
        np.add.at(cg, (vals["kind"], ly, lx), vals["s"])
        acc = np.zeros((2, L, L), dtype=np.int64)
        for dy in range(-D, D + 1):
            for dx in range(-D, D + 1):
                w = KDE_R - max(abs(dy), abs(dx))
                sy0, sy1 = max(0, -dy), L - max(0, dy)
                sx0, sx1 = max(0, -dx), L - max(0, dx)
                acc[:, sy0 + dy:sy1 + dy, sx0 + dx:sx1 + dx] += \
                    w * cg[:, sy0:sy1, sx0:sx1]
        hy, hx, cell_id = home_cells(acc[0] != 0, ty, tx, D)
        wsum = acc[1, hy, hx]
        wcnt = acc[0, hy, hx]

        def tdiv_vec(a, b):
            q = np.abs(a) // np.abs(b)
            return np.where((a < 0) != (b < 0), -q, q)

        return pa.table({
            "cell_id": cell_id,
            "wsum": pa.array(wsum),
            "wcnt": pa.array(wcnt),
            "wmean_micro": pa.array(tdiv_vec(wsum, wcnt)),
        })

    return halo_stencil(
        occ.map_batches(split, batch_format="pyarrow", zero_copy_batch=True),
        D, ["s", "kind"], conv, pa.schema(
            [("cell_id", pa.string()), ("wsum", pa.int64()),
             ("wcnt", pa.int64()), ("wmean_micro", pa.int64())]))


def sql_gw_mean() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    D = KDE_R - 1
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)
    offs = ", ".join(
        f"({dy}, {dx}, {KDE_R - max(abs(dy), abs(dx))})"
        for dy in range(-D, D + 1) for dx in range(-D, D + 1)
    )
    return f"""
WITH gwi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
gwc AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx, CAST(COUNT(*) AS BIGINT) AS cnt,
    CAST(SUM(CAST(floor(e.value * 1000000.0) AS BIGINT)) AS BIGINT) AS sv
  FROM gwi i JOIN events e ON e.event_id = i.event_id
  GROUP BY 1, 2
),
gwo(dy, dx, w) AS (VALUES {offs}),
gws AS MATERIALIZED (
  SELECT c.gy + o.dy AS gy, ((c.gx + o.dx) % {W} + {W}) % {W} AS gx,
    CAST(SUM(c.cnt * o.w) AS BIGINT) AS wcnt,
    CAST(SUM(c.sv * o.w) AS BIGINT) AS wsum
  FROM gwc c CROSS JOIN gwo o
  WHERE c.gy + o.dy BETWEEN 0 AND {side - 1}
  GROUP BY 1, 2
)
SELECT {rebuild} AS cell_id, wsum, wcnt,
  CAST(wsum // wcnt AS BIGINT) AS wmean_micro
FROM gws
"""


# ---------------------------------------------------------------------------
# Round 4d: chi-square independence test (event_type x arm)
# ---------------------------------------------------------------------------


def q_chi_square(sf_dir: str):
    """Categorical independence check: the chi-square statistic of the
    event_type x user-parity-arm contingency table, each cell cleared
    to integers — term_e6 = (O*N - r*c)^2 * 1e6 // (r*c*N) summed over
    cells (bignum/HUGEINT; N*O etc exceed int64 by design).  One
    packed (type, arm) fold; 10-cell driver readout.  Output one row
    (n, dof, chi2_e6)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        key = code * np.uint64(2) + (uid % 2).astype(np.uint64)
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    keys, ns = sum_to_driver(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    O = dict(zip(keys.tolist(), ns.tolist()))
    types = [c for c in range(len(EVT_TYPES))
             if O.get(c * 2, 0) + O.get(c * 2 + 1, 0) > 0]
    arms = [a for a in (0, 1)
            if sum(O.get(c * 2 + a, 0) for c in types) > 0]
    N = sum(O.values())
    chi2 = 0
    for c in types:
        r = O.get(c * 2, 0) + O.get(c * 2 + 1, 0)
        for a in arms:
            col = sum(O.get(c2 * 2 + a, 0) for c2 in types)
            o = O.get(c * 2 + a, 0)
            chi2 += (o * N - r * col) ** 2 * 1_000_000 // (r * col * N)
    dof = (len(types) - 1) * (len(arms) - 1)
    return pa.table({
        "n": pa.array([N], type=pa.int64()),
        "dof": pa.array([dof], type=pa.int64()),
        "chi2_e6": pa.array([chi2], type=pa.int64()),
    })


def sql_chi_square() -> str:
    return """
WITH chc AS MATERIALIZED (
  SELECT event_type, user_id % 2 AS arm, CAST(COUNT(*) AS HUGEINT) AS o
  FROM events GROUP BY 1, 2
),
chr_ AS MATERIALIZED (
  SELECT event_type, CAST(SUM(o) AS HUGEINT) AS r FROM chc GROUP BY 1
),
chl AS MATERIALIZED (
  SELECT arm, CAST(SUM(o) AS HUGEINT) AS c FROM chc GROUP BY 1
),
chn AS (SELECT CAST(SUM(o) AS HUGEINT) AS n FROM chc),
chg AS MATERIALIZED (
  SELECT r.event_type, l.arm, r.r, l.c,
    COALESCE(x.o, 0) AS o
  FROM chr_ r CROSS JOIN chl l
  LEFT JOIN chc x ON x.event_type = r.event_type AND x.arm = l.arm
)
SELECT CAST((SELECT n FROM chn) AS BIGINT) AS n,
  CAST((COUNT(DISTINCT g.event_type) - 1)
    * (COUNT(DISTINCT g.arm) - 1) AS BIGINT) AS dof,
  CAST(SUM((g.o * (SELECT n FROM chn) - g.r * g.c)
    * (g.o * (SELECT n FROM chn) - g.r * g.c) * 1000000
    // (g.r * g.c * (SELECT n FROM chn))) AS BIGINT) AS chi2_e6
FROM chg g
"""


# ---------------------------------------------------------------------------
# Round 4d: RFM customer segmentation over orders
# ---------------------------------------------------------------------------


def q_rfm_segments(sf_dir: str):
    """Classic RFM segmentation: per customer the Recency (last order
    epoch-day), Frequency (order count) and Monetary (total cents)
    metrics, each quintiled by exact rank — q = (rank-1)*5 // n with
    (metric ASC, custkey ASC) rank order — and the 0..124 segment code
    r_q*25 + f_q*5 + m_q.  Sums/max fold through namespaced u64
    exchanges; ranking runs on the gathered per-customer table
    (DriverCapExceeded past the 8M driver cap; beyond it the rank is a
    distributed sort).  Output (custkey, r_day, f, m_cents, r_q, f_q,
    m_q, segment)."""
    from rhealpixdggs_py_ray.ops.agg import max_to_driver, sum_to_driver

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"],
               blocks=4)

    def sums(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        cents = np.floor(batch["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({
            "key": pa.array(np.concatenate([ck * 2, ck * 2 + 1]),
                            type=pa.uint64()),
            "one": pa.array(np.concatenate(
                [np.ones(len(ck), dtype=np.int64), cents])),
        })

    def lastday(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        day = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        return pa.table({"key": pa.array(ck, type=pa.uint64()),
                         "v": pa.array(day)})

    # every customer has both namespaces (ck*2, ck*2+1) and one max
    # row, so the three arrays below line up in ascending custkey
    fm_key, fm = sum_to_driver(
        ds.map_batches(sums, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    _, r = max_to_driver(
        ds.map_batches(lastday, batch_format="pyarrow",
                       zero_copy_batch=True),
        "key", "v")
    cks = (fm_key[0::2] // np.uint64(2)).astype(np.int64)
    f, m = fm[0::2], fm[1::2]
    n = len(cks)

    def quintile(metric: np.ndarray) -> np.ndarray:
        order = np.lexsort((cks, metric))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(1, n + 1)
        return (rank - 1) * 5 // n

    rq, fq, mq = quintile(r), quintile(f), quintile(m)
    return pa.table({
        "custkey": pa.array(cks),
        "r_day": pa.array(r),
        "f": pa.array(f),
        "m_cents": pa.array(m),
        "r_q": pa.array(rq),
        "f_q": pa.array(fq),
        "m_q": pa.array(mq),
        "segment": pa.array(rq * 25 + fq * 5 + mq),
    })


def sql_rfm_segments() -> str:
    return """
WITH rfa AS MATERIALIZED (
  SELECT o_custkey AS custkey,
    CAST(MAX(epoch_us(o_orderdate) // 86400000000) AS BIGINT) AS r_day,
    CAST(COUNT(*) AS BIGINT) AS f,
    CAST(SUM(CAST(floor(o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
      AS m_cents
  FROM orders GROUP BY 1
),
rfq AS MATERIALIZED (
  SELECT custkey, r_day, f, m_cents,
    (row_number() OVER (ORDER BY r_day, custkey) - 1) * 5
      // (SELECT COUNT(*) FROM rfa) AS r_q,
    (row_number() OVER (ORDER BY f, custkey) - 1) * 5
      // (SELECT COUNT(*) FROM rfa) AS f_q,
    (row_number() OVER (ORDER BY m_cents, custkey) - 1) * 5
      // (SELECT COUNT(*) FROM rfa) AS m_q
  FROM rfa
)
SELECT custkey, r_day, f, m_cents,
  CAST(r_q AS BIGINT) AS r_q, CAST(f_q AS BIGINT) AS f_q,
  CAST(m_q AS BIGINT) AS m_q,
  CAST(r_q * 25 + f_q * 5 + m_q AS BIGINT) AS segment
FROM rfq
"""


# ---------------------------------------------------------------------------
# Round 4d: co-visitation PMI between tiles
# ---------------------------------------------------------------------------


def q_tile_pmi(sf_dir: str):
    """Association strength beyond raw overlap: pointwise mutual
    information of tile co-visitation — pmi_e6 = floor((((ln(n_ab) +
    ln(N)) - ln(n_a)) - ln(n_b)) * 1e6) with N = distinct visitors
    (ln bit-identical libm; the expression TREE is mirrored
    node-for-node).  Composes the tile_similarity pipeline (one more
    map over its output); N folds from the same distinct-visit set.
    Output (tile_a, tile_b, n_common, pmi_e6)."""
    sim = q_tile_similarity(sf_dir)
    ds = _read(sf_dir, "events", columns=["user_id"], blocks=4)
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    def users(batch: pa.Table) -> pa.Table:
        uid = np.unique(batch["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({
            "key": pa.array(uid.astype(np.uint64), type=pa.uint64()),
            "one": pa.array(np.ones(len(uid), dtype=np.int64)),
        })

    N = len(sum_to_driver(
        ds.map_batches(users, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")[0])

    import math

    def pmi(batch: pa.Table) -> pa.Table:
        # scalar-libm logs: SIMD np.log's 1-ulp wobble would flip the
        # sign of exactly-cancelling PMI terms
        nab = batch["n_common"].to_numpy(zero_copy_only=False)
        na = batch["n_a"].to_numpy(zero_copy_only=False)
        nb_ = batch["n_b"].to_numpy(zero_copy_only=False)
        val = (((_libm_log(nab) + math.log(float(N))) - _libm_log(na))
               - _libm_log(nb_)) * 1e6
        return pa.table({
            "tile_a": batch["tile_a"],
            "tile_b": batch["tile_b"],
            "n_common": batch["n_common"],
            "pmi_e6": pa.array(np.floor(val).astype(np.int64)),
        })

    return sim.map_batches(pmi, batch_format="pyarrow",
                           zero_copy_batch=True)


def sql_tile_pmi() -> str:
    return f"""
WITH tps AS MATERIALIZED ({sql_tile_similarity()}),
tpn AS (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n FROM events)
SELECT s.tile_a, s.tile_b, s.n_common,
  CAST(floor((((ln(CAST(s.n_common AS DOUBLE))
    + ln(CAST(n.n AS DOUBLE))) - ln(CAST(s.n_a AS DOUBLE)))
    - ln(CAST(s.n_b AS DOUBLE))) * 1000000.0) AS BIGINT) AS pmi_e6
FROM tps s CROSS JOIN tpn n
"""


# ---------------------------------------------------------------------------
# Round 4d: odds ratio per event type between A/B arms
# ---------------------------------------------------------------------------


def q_odds_ratio(sf_dir: str):
    """Effect size for the A/B readout: per event type the (Haldane-
    corrected, +1 to every cell so zeros never divide) odds ratio of
    'user has >= 1 such event' between arms — or_e6 = ((xa+1) *
    (nb-xb+1)) * 1e6 // ((xb+1) * (na-xa+1)), exact integers on the
    same distinct-(user,type) fold ab_test uses.  Output (event_type,
    x_a, n_a, x_b, n_b, or_e6)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        key = np.unique((uid.astype(np.uint64) << np.uint64(3)) | code)
        ukey = (np.unique(uid).astype(np.uint64) << np.uint64(3)) \
            | np.uint64(7)
        allk = np.concatenate([key, ukey])
        return pa.table({
            "key": pa.array(allk, type=pa.uint64()),
            "one": pa.array(np.ones(len(allk), dtype=np.int64)),
        })

    key, _ = sum_to_driver(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    x = np.zeros((8, 2), dtype=np.int64)
    code = (key & np.uint64(7)).astype(np.int64)
    arm = ((key >> np.uint64(3)) % np.uint64(2)).astype(np.int64)
    np.add.at(x, (code, arm), 1)
    n_a, n_b = int(x[7, 0]), int(x[7, 1])
    rows = []
    for t, i in sorted(codes.items()):
        xa, xb = int(x[i, 0]), int(x[i, 1])
        or_e6 = ((xa + 1) * (n_b - xb + 1)) * 10**6 \
            // ((xb + 1) * (n_a - xa + 1))
        rows.append((t, xa, n_a, xb, n_b, or_e6))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "x_a": pa.array(np.array([r[1] for r in rows], dtype=np.int64)),
        "n_a": pa.array(np.array([r[2] for r in rows], dtype=np.int64)),
        "x_b": pa.array(np.array([r[3] for r in rows], dtype=np.int64)),
        "n_b": pa.array(np.array([r[4] for r in rows], dtype=np.int64)),
        "or_e6": pa.array(np.array([r[5] for r in rows], dtype=np.int64)),
    })


def sql_odds_ratio() -> str:
    return """
WITH oru AS MATERIALIZED (
  SELECT DISTINCT user_id, event_type FROM events
),
orn AS MATERIALIZED (
  SELECT
    CAST(COUNT(DISTINCT CASE WHEN user_id % 2 = 0 THEN user_id END)
      AS BIGINT) AS n_a,
    CAST(COUNT(DISTINCT CASE WHEN user_id % 2 = 1 THEN user_id END)
      AS BIGINT) AS n_b
  FROM events
),
orx AS MATERIALIZED (
  SELECT event_type,
    CAST(COUNT(CASE WHEN user_id % 2 = 0 THEN 1 END) AS BIGINT) AS x_a,
    CAST(COUNT(CASE WHEN user_id % 2 = 1 THEN 1 END) AS BIGINT) AS x_b
  FROM oru GROUP BY 1
)
SELECT x.event_type, x.x_a, n.n_a, x.x_b, n.n_b,
  CAST(((x.x_a + 1) * (n.n_b - x.x_b + 1)) * 1000000
    // ((x.x_b + 1) * (n.n_a - x.x_a + 1)) AS BIGINT) AS or_e6
FROM orx x CROSS JOIN orn n
"""


def q_corr_matrix(sf_dir: str):
    """Pearson correlation matrix over the quantized lineitem numeric
    columns — the dataset-profiling op that tells a curation pipeline
    which feature pairs are redundant before training.  One pass of
    per-batch integer sufficient statistics (n, Sx, Sy, Sxx, Syy, Sxy
    per pair — the q_regression_stats shape, so the 100 TB scan is a
    pure map + one tiny 6-row fold), then an exact bignum resolve:
    corr2_e6 = num^2 * 10^6 // (d1 * d2) with num = n*Sxy - Sx*Sy,
    d = n*Sxx - Sx^2, all Python ints mirroring SQL HUGEINT
    bit-for-bit (HUGEINT->DOUBLE casts round differently above 2^53,
    measured 13/2000 — so NO float ever touches the output; the sign
    travels separately).  Bounds asserted: n * maxq^2 < 4e15 keeps
    every product inside HUGEINT through the e6 scaling (holds to
    ~3e8 rows; beyond that, re-quantize coarser).
    Output (col_a, col_b, n, sign_num, corr2_e6)."""
    cols = [c for c, _q, _b in CORR_COLS]
    ds = _read(sf_dir, "lineitem", columns=cols)

    def quant(batch: pa.Table):
        q = np.empty((len(cols), batch.num_rows), dtype=np.int64)
        q[0] = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        q[1] = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) / 1000.0
        ).astype(np.int64)
        q[2] = np.floor(
            batch["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        q[3] = np.floor(
            batch["l_tax"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return q

    pairs = [(i, j) for i in range(len(cols)) for j in range(i + 1, len(cols))]

    def partial(batch: pa.Table) -> pa.Table:
        q = quant(batch)
        if not np.abs(q).max(initial=0) < 2 ** 20:
            raise AssertionError("quantized value bound")
        rows = {"pair": [], "n": [], "sx": [], "sy": [],
                "sxx": [], "syy": [], "sxy": []}
        for pid, (i, j) in enumerate(pairs):
            x, y = q[i], q[j]
            rows["pair"].append(pid)
            rows["n"].append(len(x))
            rows["sx"].append(int(x.sum()))
            rows["sy"].append(int(y.sum()))
            rows["sxx"].append(int((x * x).sum()))
            rows["syy"].append(int((y * y).sum()))
            rows["sxy"].append(int((x * y).sum()))
        return pa.table({k: pa.array(v, type=pa.int64())
                         for k, v in rows.items()})

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # tiny resolve: 6 partial rows per batch — fold them on the driver
    # in exact bignum (a groupby exchange costs ~1 s fixed for 6 keys;
    # the resumable_tiling tiny-merge precedent)
    acc: dict[int, list[int]] = {}
    for b in part.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        for r in range(b.num_rows):
            pid = int(b["pair"][r].as_py())
            s = acc.setdefault(pid, [0, 0, 0, 0, 0, 0])
            for si, cname in enumerate(("n", "sx", "sy", "sxx", "syy", "sxy")):
                s[si] += int(b[cname][r].as_py())
    out = {"col_a": [], "col_b": [], "n": [], "sign_num": [], "corr2_e6": []}
    for pid in sorted(acc):
        i, j = pairs[pid]
        n, sx, sy, sxx, syy, sxy = acc[pid]
        bound = max(bnd for _c, _q, bnd in CORR_COLS)
        if not n * bound * bound < 4 * 10 ** 15:
            raise AssertionError("HUGEINT headroom")
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        c2 = (num * num * 1000000) // (d1 * d2) if d1 > 0 and d2 > 0 else 0
        out["col_a"].append(cols[i])
        out["col_b"].append(cols[j])
        out["n"].append(n)
        out["sign_num"].append(0 if num == 0 else (1 if num > 0 else -1))
        out["corr2_e6"].append(c2)
    return pa.table({
        "col_a": pa.array(out["col_a"], type=pa.string()),
        "col_b": pa.array(out["col_b"], type=pa.string()),
        "n": pa.array(out["n"], type=pa.int64()),
        "sign_num": pa.array(out["sign_num"], type=pa.int64()),
        "corr2_e6": pa.array(out["corr2_e6"], type=pa.int64()),
    })


def sql_corr_matrix() -> str:
    cols = list(CORR_COLS)
    selects = []
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            ca, qa, _ = cols[i]
            cb, qb, _ = cols[j]
            x = f"CAST({qa} AS HUGEINT)"
            y = f"CAST({qb} AS HUGEINT)"
            selects.append(f"""
  SELECT '{ca}' AS col_a, '{cb}' AS col_b,
    CAST(COUNT(*) AS HUGEINT) AS n, SUM({x}) AS sx, SUM({y}) AS sy,
    SUM({x} * {x}) AS sxx, SUM({y} * {y}) AS syy, SUM({x} * {y}) AS sxy
  FROM lineitem""")
    u = " UNION ALL ".join(selects)
    return f"""
WITH corrs AS MATERIALIZED ({u})
SELECT col_a, col_b, CAST(n AS BIGINT) AS n,
  CAST(CASE WHEN n * sxy - sx * sy > 0 THEN 1
            WHEN n * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT)
    AS sign_num,
  CAST(CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
    THEN (n * sxy - sx * sy) * (n * sxy - sx * sy) * 1000000
         // ((n * sxx - sx * sx) * (n * syy - sy * sy))
    ELSE 0 END AS BIGINT) AS corr2_e6
FROM corrs
"""


def q_benford_test(sf_dir: str):
    """Benford first-digit conformance over order totals — the
    fraud/quality screen: count first digits of the integer cents of
    o_totalprice, compare to Benford expectation p_d = ln((d+1)/d) /
    ln(10), and emit the per-digit chi-square deviation (the total
    statistic is the SUM of dev_e6 — kept per-digit so every float
    tree is independent and order-free).  Counts are a pure map +
    9-key fold; the expectation/deviation resolve is 9 scalar libm
    ops mirrored exactly by DuckDB ln (bit-identical on this host,
    CLAUDE.md round-4 notes).  First digit extraction is pure integer
    (CASE chain over powers of ten, no log10).
    Output (digit, obs, exp_e6, dev_e6)."""
    import math

    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        fd = cents.copy()
        for p in (10 ** 12, 10 ** 11, 10 ** 10, 10 ** 9, 10 ** 8, 10 ** 7,
                  10 ** 6, 10 ** 5, 10 ** 4, 10 ** 3, 10 ** 2, 10):
            fd = np.where((cents >= p) & (fd == cents), cents // p, fd)
        cnt = np.bincount(fd, minlength=10)[1:10]
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.uint64),
                              type=pa.uint64()),
            "obs": pa.array(cnt.astype(np.int64)),
        })

    digit, count = sum_to_driver(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "digit", "obs")
    rows = [(d, o) for d, o in zip(digit.tolist(), count.tolist()) if o > 0]
    n_tot = sum(o for _d, o in rows)
    digs, obs, exp_e6, dev_e6 = [], [], [], []
    for d, o in rows:
        p = math.log(float(d + 1) / float(d)) / math.log(10.0)
        e = float(n_tot) * p
        dev = (float(o) - e) * (float(o) - e) / e
        digs.append(d)
        obs.append(o)
        exp_e6.append(math.floor(e * 1000000.0))
        dev_e6.append(math.floor(dev * 1000000.0))
    return pa.table({
        "digit": pa.array(digs, type=pa.int64()),
        "obs": pa.array(obs, type=pa.int64()),
        "exp_e6": pa.array(exp_e6, type=pa.int64()),
        "dev_e6": pa.array(dev_e6, type=pa.int64()),
    })


def sql_benford_test() -> str:
    fd = "CASE " + " ".join(
        f"WHEN cents >= {10 ** p} THEN cents // {10 ** p}"
        for p in range(12, 0, -1)
    ) + " ELSE cents END"
    return f"""
WITH bfc AS MATERIALIZED (
  SELECT {fd} AS digit
  FROM (SELECT CAST(floor(o_totalprice * 100) AS BIGINT) AS cents
        FROM orders) t
),
bfo AS MATERIALIZED (
  SELECT digit, CAST(COUNT(*) AS BIGINT) AS obs FROM bfc GROUP BY digit
),
bft AS MATERIALIZED (
  SELECT CAST(SUM(obs) AS BIGINT) AS n_tot FROM bfo
)
SELECT CAST(digit AS BIGINT) AS digit, obs,
  CAST(floor(CAST(n_tot AS DOUBLE)
    * (ln(CAST(digit + 1 AS DOUBLE) / CAST(digit AS DOUBLE)) / ln(10))
    * 1000000) AS BIGINT) AS exp_e6,
  CAST(floor(
    (CAST(obs AS DOUBLE) - CAST(n_tot AS DOUBLE)
      * (ln(CAST(digit + 1 AS DOUBLE) / CAST(digit AS DOUBLE)) / ln(10)))
    * (CAST(obs AS DOUBLE) - CAST(n_tot AS DOUBLE)
      * (ln(CAST(digit + 1 AS DOUBLE) / CAST(digit AS DOUBLE)) / ln(10)))
    / (CAST(n_tot AS DOUBLE)
      * (ln(CAST(digit + 1 AS DOUBLE) / CAST(digit AS DOUBLE)) / ln(10)))
    * 1000000) AS BIGINT) AS dev_e6
FROM bfo, bft
"""


def q_mad_outliers(sf_dir: str):
    """Robust outlier screen (median absolute deviation — the
    heavy-tail-safe alternative to q_zscore_events): per event_type,
    med = lower median of integer cents, mad = lower median of
    |v - med|, and an event is an outlier when |v - med| * 10^4 >
    MAD_K_E4 * mad (the classic 3-sigma-equivalent rule kept fully
    integer).  Both medians AND the outlier count resolve inside ONE
    h(event_type) bucket exchange via segmented selection (the
    q_tile_median template run twice in the same map_groups — no
    second exchange for the deviation median).
    Output (event_type, n, median_cents, mad_cents, n_outliers)."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"], blocks=4)
    nb = 4

    def keyed(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        h = (pd.util.hash_array(et.astype(object))
             % np.uint64(nb)).astype(np.int64)
        return pa.table({
            "bucket": pa.array(h),
            "event_type": pa.array(et, type=pa.string()),
            "v": pa.array(v),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "event_type" not in g.column_names:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "median_cents": pa.array([], type=pa.int64()),
                "mad_cents": pa.array([], type=pa.int64()),
                "n_outliers": pa.array([], type=pa.int64())})
        t = g["event_type"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, t))
        t, v = t[order], v[order]
        new_seg = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(new_seg)
        n = np.diff(np.append(starts, len(t)))
        seg = np.cumsum(new_seg) - 1
        med = v[starts + (n - 1) // 2][seg]
        dev = np.abs(v - med)
        order2 = np.lexsort((dev, t))
        dev_s = dev[order2]
        mad = dev_s[starts + (n - 1) // 2]
        n_out = np.zeros(len(starts), dtype=np.int64)
        np.add.at(n_out, seg, (dev * 10000 > MAD_K_E4 * mad[seg]).astype(
            np.int64))
        return pa.table({
            "event_type": pa.array(t[starts], type=pa.string()),
            "n": pa.array(n.astype(np.int64)),
            "median_cents": pa.array(v[starts + (n - 1) // 2]),
            "mad_cents": pa.array(mad),
            "n_outliers": pa.array(n_out),
        })

    return (
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_mad_outliers() -> str:
    return f"""
WITH madv AS MATERIALIZED (
  SELECT event_type, CAST(floor(value * 100) AS BIGINT) AS v FROM events
),
madm AS MATERIALIZED (
  SELECT event_type, v AS med FROM (
    SELECT event_type, v,
      row_number() OVER (PARTITION BY event_type ORDER BY v) AS rn,
      COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM madv) t
  WHERE rn = (n + 1) // 2
),
madd AS MATERIALIZED (
  SELECT a.event_type, a.v, m.med, abs(a.v - m.med) AS dev
  FROM madv a JOIN madm m ON m.event_type = a.event_type
),
mada AS MATERIALIZED (
  SELECT event_type, dev AS mad FROM (
    SELECT event_type, dev,
      row_number() OVER (PARTITION BY event_type ORDER BY dev) AS rn,
      COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM madd) t
  WHERE rn = (n + 1) // 2
)
SELECT d.event_type, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(ANY_VALUE(d.med) AS BIGINT) AS median_cents,
  CAST(ANY_VALUE(a.mad) AS BIGINT) AS mad_cents,
  CAST(COUNT(*) FILTER (WHERE d.dev * 10000 > {MAD_K_E4} * a.mad)
    AS BIGINT) AS n_outliers
FROM madd d JOIN mada a ON a.event_type = d.event_type
GROUP BY d.event_type
"""


# ---------------------------------------------------------------------------
# Round 4e: circular statistics of movement directions
# ---------------------------------------------------------------------------


def q_circular_stats(sf_dir: str):
    """Circular (directional) statistics per user — the vector-mean
    companion to q_heading_histogram: each consecutive step (dx, dy
    integer microdegrees, zero steps dropped) contributes a unit
    vector quantized at 1e-6, ux = floor(dx / sqrt(d2) * 10^6)
    (BIGINT -> DOUBLE is exact-rounded both sides, probed 0/3000
    mismatches; sqrt/div IEEE) so the per-user sums are order-free
    integers; mean resultant length r = sqrt(sx^2 + sy^2) / (n * 10^6)
    (r -> 1 = consistent heading, r -> 0 = isotropic wander) replays
    as one float tree over < 2^53 integer sums.  ONE h(user) bucket
    exchange (the q_heading_histogram shape).
    Output (user_id, n_steps, sux_e6, suy_e6, r_permille)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        lon, lat = oracle.lonlat_from_id(eid)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(eid.astype(np.int64)),
            "xi": pa.array(np.floor(lon * 1e6).astype(np.int64)),
            "yi": pa.array(np.floor(lat * 1e6).astype(np.int64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_steps": pa.array([], type=pa.int64()),
                "sux_e6": pa.array([], type=pa.int64()),
                "suy_e6": pa.array([], type=pa.int64()),
                "r_permille": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        xi = g["xi"].to_numpy(zero_copy_only=False)[order]
        yi = g["yi"].to_numpy(zero_copy_only=False)[order]
        same = uid[1:] == uid[:-1]
        dx = (xi[1:] - xi[:-1])[same]
        dy = (yi[1:] - yi[:-1])[same]
        u = uid[1:][same]
        d2 = dx * dx + dy * dy
        nz = d2 > 0
        dx, dy, u, d2 = dx[nz], dy[nz], u[nz], d2[nz]
        den = np.sqrt(d2.astype(np.float64))
        ux = np.floor(dx.astype(np.float64) / den * 1e6).astype(np.int64)
        uy = np.floor(dy.astype(np.float64) / den * 1e6).astype(np.int64)
        uu, inv = np.unique(u, return_inverse=True)
        n = np.bincount(inv, minlength=len(uu)).astype(np.int64)
        sx = np.zeros(len(uu), dtype=np.int64)
        sy = np.zeros(len(uu), dtype=np.int64)
        np.add.at(sx, inv, ux)
        np.add.at(sy, inv, uy)
        r = (np.sqrt(sx.astype(np.float64) * sx.astype(np.float64)
                     + sy.astype(np.float64) * sy.astype(np.float64))
             / (n.astype(np.float64) * 1e6))
        return pa.table({
            "user_id": pa.array(uu),
            "n_steps": pa.array(n),
            "sux_e6": pa.array(sx),
            "suy_e6": pa.array(sy),
            "r_permille": pa.array(np.floor(r * 1000.0).astype(np.int64)),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def sql_circular_stats() -> str:
    pts = _points_sql("events", "event_id")
    return f"""
WITH cst AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id,
    CAST(floor(p.lon * 1000000.0) AS BIGINT) AS xi,
    CAST(floor(p.lat * 1000000.0) AS BIGINT) AS yi
  FROM events e JOIN ({pts}) p ON p.event_id = e.event_id
),
css AS MATERIALIZED (
  SELECT user_id,
    xi - lag(xi) OVER w AS dx, yi - lag(yi) OVER w AS dy
  FROM cst
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
csu AS MATERIALIZED (
  SELECT user_id,
    CAST(floor(CAST(dx AS DOUBLE)
      / sqrt(CAST(dx * dx + dy * dy AS DOUBLE)) * 1000000.0) AS BIGINT)
      AS ux,
    CAST(floor(CAST(dy AS DOUBLE)
      / sqrt(CAST(dx * dx + dy * dy AS DOUBLE)) * 1000000.0) AS BIGINT)
      AS uy
  FROM css WHERE dx IS NOT NULL AND (dx <> 0 OR dy <> 0)
),
csa AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_steps,
    CAST(SUM(ux) AS BIGINT) AS sux_e6, CAST(SUM(uy) AS BIGINT) AS suy_e6
  FROM csu GROUP BY user_id
)
SELECT user_id, n_steps, sux_e6, suy_e6,
  CAST(floor(sqrt(CAST(sux_e6 AS DOUBLE) * CAST(sux_e6 AS DOUBLE)
    + CAST(suy_e6 AS DOUBLE) * CAST(suy_e6 AS DOUBLE))
    / (CAST(n_steps AS DOUBLE) * 1000000.0) * 1000.0) AS BIGINT)
    AS r_permille
FROM csa
"""


def q_simpson_diversity(sf_dir: str):
    """Simpson diversity index per res-2 tile over event types — the
    fully-integer diversity measure (Shannon needs logs; Simpson is
    pure counting): lambda = sum c_i*(c_i-1) * 1e9 // (N*(N-1)), the
    probability two random events in the tile share a type.  The
    (tile, type) key space is bounded by 486 x |types|, so partials
    fold on the driver with no exchange.  Tiles with N < 2 omitted.
    Output (tile_id, n, simpson_e9)."""
    from rhealpixdggs_py_ray.core import index as cidx

    ds = _read(sf_dir, "events", columns=["event_id", "event_type"],
               blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = su.to_string_fixed(u, TILE_RES).to_pylist()
        key = np.array([a + "\x00" + b for a, b in zip(tile, et)],
                       dtype=object)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, c in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(c)
    per_tile: dict = {}
    for k, c in acc.items():
        tile = k.split("\x00")[0]
        tot, ss = per_tile.get(tile, (0, 0))
        per_tile[tile] = (tot + c, ss + c * (c - 1))
    tiles = sorted(t for t, (tot, _ss) in per_tile.items() if tot >= 2)
    return pa.table({
        "tile_id": pa.array(tiles, type=pa.string()),
        "n": pa.array([per_tile[t][0] for t in tiles], type=pa.int64()),
        "simpson_e9": pa.array(
            [per_tile[t][1] * 10 ** 9 // (per_tile[t][0]
                                          * (per_tile[t][0] - 1))
             for t in tiles], type=pa.int64()),
    })


def sql_simpson_diversity() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",)
    )
    return f"""
WITH sdc AS MATERIALIZED (
  SELECT t.cell_id AS tile_id, e.event_type,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM {inner} t JOIN events e ON e.event_id = t.event_id
  GROUP BY 1, 2
)
SELECT tile_id, CAST(SUM(c) AS BIGINT) AS n,
  CAST(SUM(CAST(c AS HUGEINT) * (c - 1)) * 1000000000
    // (CAST(SUM(c) AS HUGEINT) * (SUM(c) - 1)) AS BIGINT) AS simpson_e9
FROM sdc GROUP BY tile_id
HAVING SUM(c) >= 2
"""


def q_extreme_values(sf_dir: str):
    """Gumbel extreme-value fit by the method of moments — the
    capacity-planning op: per event_type take the WEEKLY block maxima
    (epoch-week = day // 7; the fixtures span ~1 month, so calendar
    months would leave one block) of daily revenue
    (whole dollars, keeping k*sum(x^2) < 2^53 so every
    int->double conversion is exact), then beta = std * sqrt(6)/pi and
    mu = mean - euler * beta from the exact integer moments (std uses
    the k*(k-1) sample form; one float tree, constants repr-crossed).
    Daily sums -> weekly max -> moments: the whole reduction is one
    bucketed fold plus a bounded resolve.
    Output (event_type, k_blocks, mu_e3, beta_e3)."""
    import math

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"],
               blocks=4)
    nb = 4

    def part(batch: pa.Table) -> pa.Table:
        d = (batch["ts"].to_numpy(zero_copy_only=False)
             .astype("datetime64[D]").astype(np.int64))
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        key = np.array([f"{a}\x00{dd}" for a, dd in zip(et, d)],
                       dtype=object)
        uq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, c)
        tp = np.array([k.split("\x00")[0] for k in uq], dtype=object)
        return pa.table({
            "bucket": pa.array(
                (pd.util.hash_array(tp) % np.uint64(nb)).astype(np.int64)),
            "event_type": pa.array(list(tp), type=pa.string()),
            "day": pa.array(
                np.array([int(k.split("\x00")[1]) for k in uq])),
            "s": pa.array(s),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "event_type" not in g.column_names:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "k_blocks": pa.array([], type=pa.int64()),
                "mu_e3": pa.array([], type=pa.int64()),
                "beta_e3": pa.array([], type=pa.int64())})
        et = np.asarray(g["event_type"].to_pylist(), dtype=object)
        day = g["day"].to_numpy(zero_copy_only=False)
        sv = g["s"].to_numpy(zero_copy_only=False)
        out_t, out_k, out_m, out_b = [], [], [], []
        for tp in sorted(set(et.tolist())):
            m = et == tp
            dd, ss = day[m], sv[m]
            uq_d, inv = np.unique(dd, return_inverse=True)
            tot = np.zeros(len(uq_d), dtype=np.int64)
            np.add.at(tot, inv, ss)
            # epoch-week block id (days are non-negative: // == tdiv)
            mon = uq_d // 7
            uq_m, minv = np.unique(mon, return_inverse=True)
            mx = np.full(len(uq_m), np.iinfo(np.int64).min, dtype=np.int64)
            np.maximum.at(mx, minv, tot)
            x = mx // 100   # whole dollars: k * sum(x^2) stays < 2^53
            k = len(x)
            if k < 2:
                continue
            sx = int(x.sum())
            sxx = int((x * x).sum())
            if not k * sxx < (1 << 53):
                raise AssertionError("extreme_values moment overflow")
            mean = float(sx) / float(k)
            var = (float(k) * float(sxx) - float(sx) * float(sx)) / (
                float(k) * float(k - 1))
            std = math.sqrt(var)
            beta = std * GUMBEL_SQRT6_PI
            mu = mean - GUMBEL_EULER * beta
            out_t.append(tp)
            out_k.append(k)
            out_m.append(math.floor(mu * 1000.0))
            out_b.append(math.floor(beta * 1000.0))
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "k_blocks": pa.array(out_k, type=pa.int64()),
            "mu_e3": pa.array(out_m, type=pa.int64()),
            "beta_e3": pa.array(out_b, type=pa.int64()),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_extreme_values() -> str:
    return f"""
WITH evd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1, 2
),
evm AS MATERIALIZED (
  SELECT event_type, day // 7 AS wk,
    CAST(MAX(s) // 100 AS BIGINT) AS x
  FROM evd GROUP BY 1, 2
),
eva AS MATERIALIZED (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS k,
    CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM evm GROUP BY 1 HAVING COUNT(*) >= 2
)
SELECT event_type, k AS k_blocks,
  CAST(floor((CAST(sx AS DOUBLE) / CAST(k AS DOUBLE)
    - {oracle._lit(GUMBEL_EULER)}
      * (sqrt((CAST(k AS DOUBLE) * CAST(sxx AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
          / (CAST(k AS DOUBLE) * CAST(k - 1 AS DOUBLE)))
        * {oracle._lit(GUMBEL_SQRT6_PI)})) * 1000.0) AS BIGINT) AS mu_e3,
  CAST(floor(sqrt((CAST(k AS DOUBLE) * CAST(sxx AS DOUBLE)
      - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
      / (CAST(k AS DOUBLE) * CAST(k - 1 AS DOUBLE)))
    * {oracle._lit(GUMBEL_SQRT6_PI)} * 1000.0) AS BIGINT) AS beta_e3
FROM eva
"""


def q_sprt_monitor(sf_dir: str):
    """Wald SPRT sequential A/B monitor at daily granularity — the
    always-valid experimentation readout: per arm (user_id % 2) the
    cumulative quantized log-likelihood ratio llr_q(day) = a*conv +
    b*(n - conv) (a, b integer at 1e-12, so the running sum is exact
    and order-free within each prefix) is scanned day by day; the
    decision is the FIRST day the llr crosses ln((1-beta)/alpha)
    (accept H1, decision=1) or ln(beta/(1-alpha)) (accept H0,
    decision=-1), else 0 at the horizon.  Per-(arm, day) partials
    fold on the driver (2 x days keys).
    Output (arm, decision, decision_day, llr_q)."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id", "value"],
               blocks=4)
    a, b, up, dn = _sprt_consts()

    def part(batch: pa.Table) -> pa.Table:
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        conv = (np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64) >= SPRT_CONV_CENTS).astype(np.int64)
        arm = (uid % 2).astype(np.int64)
        key = arm * 1_000_000 + day
        uq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        c = np.zeros(len(uq), dtype=np.int64)
        np.add.at(c, inv, conv)
        return pa.table({"key": pa.array(uq), "n": pa.array(n),
                         "c": pa.array(c)})

    acc: dict = {}
    for bt in ds.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True).iter_batches(
                                 batch_format="pyarrow"):
        for k, n, c in zip(bt["key"].to_pylist(), bt["n"].to_pylist(),
                           bt["c"].to_pylist()):
            pn, pc = acc.get(k, (0, 0))
            acc[k] = (pn + int(n), pc + int(c))
    out = {"arm": [], "decision": [], "decision_day": [], "llr_q": []}
    for arm in (0, 1):
        days = sorted(k % 1_000_000 for k in acc if k // 1_000_000 == arm)
        llr, dec, dday = 0, 0, -1
        for d in days:
            n, c = acc[arm * 1_000_000 + d]
            llr += a * c + b * (n - c)
            if llr >= up:
                dec, dday = 1, d
                break
            if llr <= dn:
                dec, dday = -1, d
                break
        out["arm"].append(arm)
        out["decision"].append(dec)
        out["decision_day"].append(dday)
        out["llr_q"].append(llr)
    return pa.table({
        "arm": pa.array(out["arm"], type=pa.int64()),
        "decision": pa.array(out["decision"], type=pa.int64()),
        "decision_day": pa.array(out["decision_day"], type=pa.int64()),
        "llr_q": pa.array(out["llr_q"], type=pa.int64()),
    })


def sql_sprt_monitor() -> str:
    a, b, up, dn = _sprt_consts()
    return f"""
WITH spd AS MATERIALIZED (
  SELECT user_id % 2 AS arm,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(COUNT(*) AS BIGINT) AS n,
    CAST(COUNT(*) FILTER (
      WHERE CAST(floor(value * 100) AS BIGINT) >= {SPRT_CONV_CENTS})
      AS BIGINT) AS c
  FROM events GROUP BY 1, 2
),
spl AS MATERIALIZED (
  SELECT arm, day,
    SUM({a} * c + {b} * (n - c)) OVER (
      PARTITION BY arm ORDER BY day ROWS UNBOUNDED PRECEDING) AS llr
  FROM spd
),
spf AS MATERIALIZED (
  SELECT arm, day, llr,
    CASE WHEN llr >= {up} THEN 1 WHEN llr <= {dn} THEN -1 ELSE 0 END AS hit,
    row_number() OVER (PARTITION BY arm ORDER BY day) AS rn,
    COUNT(*) OVER (PARTITION BY arm) AS nd
  FROM spl
),
sph AS MATERIALIZED (
  SELECT arm, day, llr, hit,
    row_number() OVER (PARTITION BY arm ORDER BY day) AS hrn
  FROM spf WHERE hit <> 0
)
SELECT f.arm,
  CAST(COALESCE(h.hit, 0) AS BIGINT) AS decision,
  CAST(COALESCE(h.day, -1) AS BIGINT) AS decision_day,
  CAST(COALESCE(h.llr, f.llr) AS BIGINT) AS llr_q
FROM spf f
LEFT JOIN (SELECT * FROM sph WHERE hrn = 1) h ON h.arm = f.arm
WHERE f.rn = f.nd
"""


def q_diff_in_diff(sf_dir: str):
    """Difference-in-differences — the quasi-experimental effect
    estimate: arms by user_id % 2, periods split at DID_SPLIT_DAY;
    did = (mean_B_post - mean_B_pre) - (mean_A_post - mean_A_pre)
    over value cents, computed EXACTLY as one bignum rational
    (common denominator = product of the four counts) and floor-
    quantized once at 1e-6 — Python int == SQL HUGEINT, no floats.
    Four (arm, period) integer sums ride one tiny fold.
    Output (n_a_pre, n_a_post, n_b_pre, n_b_post, did_e6)."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id", "value"],
               blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        cell = (uid % 2) * 2 + (day >= DID_SPLIT_DAY).astype(np.int64)
        n = np.bincount(cell, minlength=4).astype(np.int64)
        s = np.zeros(4, dtype=np.int64)
        np.add.at(s, cell, c)
        return pa.table({"cell": pa.array(np.arange(4, dtype=np.int64)),
                         "n": pa.array(n), "s": pa.array(s)})

    N = [0] * 4
    S = [0] * 4
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for cell, n, s in zip(b["cell"].to_pylist(), b["n"].to_pylist(),
                              b["s"].to_pylist()):
            N[cell] += int(n)
            S[cell] += int(s)
    # cells: 0 = A pre, 1 = A post, 2 = B pre, 3 = B post
    if not all(N):
        raise AssertionError("diff_in_diff needs events in every (arm, period) cell")
    num = ((S[3] * N[2] - S[2] * N[3]) * N[0] * N[1]
           - (S[1] * N[0] - S[0] * N[1]) * N[2] * N[3])
    den = N[0] * N[1] * N[2] * N[3]
    # DuckDB HUGEINT // truncates toward zero; mirror for negative num
    q = (abs(num) * 10 ** 6) // den
    did_e6 = q if num >= 0 else -q
    return pa.table({
        "n_a_pre": pa.array([N[0]], type=pa.int64()),
        "n_a_post": pa.array([N[1]], type=pa.int64()),
        "n_b_pre": pa.array([N[2]], type=pa.int64()),
        "n_b_post": pa.array([N[3]], type=pa.int64()),
        "did_e6": pa.array([did_e6], type=pa.int64()),
    })


def sql_diff_in_diff() -> str:
    return f"""
WITH didc AS MATERIALIZED (
  SELECT (user_id % 2) * 2
    + CASE WHEN epoch_us(ts) // 86400000000 >= {DID_SPLIT_DAY}
      THEN 1 ELSE 0 END AS cell,
    CAST(COUNT(*) AS HUGEINT) AS n,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS HUGEINT) AS s
  FROM events GROUP BY 1
),
didp AS MATERIALIZED (
  SELECT
    MAX(CASE WHEN cell = 0 THEN n END) AS n0,
    MAX(CASE WHEN cell = 1 THEN n END) AS n1,
    MAX(CASE WHEN cell = 2 THEN n END) AS n2,
    MAX(CASE WHEN cell = 3 THEN n END) AS n3,
    MAX(CASE WHEN cell = 0 THEN s END) AS s0,
    MAX(CASE WHEN cell = 1 THEN s END) AS s1,
    MAX(CASE WHEN cell = 2 THEN s END) AS s2,
    MAX(CASE WHEN cell = 3 THEN s END) AS s3
  FROM didc
)
SELECT CAST(n0 AS BIGINT) AS n_a_pre, CAST(n1 AS BIGINT) AS n_a_post,
  CAST(n2 AS BIGINT) AS n_b_pre, CAST(n3 AS BIGINT) AS n_b_post,
  CAST(((s3 * n2 - s2 * n3) * n0 * n1 - (s1 * n0 - s0 * n1) * n2 * n3)
    * 1000000 // (n0 * n1 * n2 * n3) AS BIGINT) AS did_e6
FROM didp
"""


def q_hill_tail(sf_dir: str):
    """Hill estimator of the activity tail index — the heavy-tail
    diagnostic (alpha ~ 1-2 = power-law, large = light tail): over
    the top HILL_K per-user event counts x_1 >= ... >= x_k,
    alpha = (k-1) / sum_{i<k} ln(x_i / x_k).  Each ln(ratio of two
    integer counts) is computed ONCE per distinct ratio with scalar
    math.log (libm == DuckDB ln bit-for-bit) and floor-quantized at
    1e-12, so the sum is an order-free integer; alpha then replays
    through one exact division tree.  Per-user counts ride one u64
    fold; the top-k resolve is driver-bounded.
    Output (k, x_min, sum_ln_q, alpha_e6)."""
    import math

    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["user_id"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        uu, cnt = np.unique(uid, return_counts=True)
        return pa.table({
            "user_id": pa.array(uu.astype(np.uint64), type=pa.uint64()),
            "n": pa.array(cnt.astype(np.int64)),
        })

    _, c = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", "n")
    c = np.sort(c)[::-1]
    k = min(HILL_K, len(c))
    top = c[:k]
    xk = int(top[-1])
    sum_q = 0
    for x in top[:-1].tolist():
        sum_q += math.floor(
            math.log(float(int(x)) / float(xk)) * 1e12)
    alpha_e6 = ((k - 1) * 10 ** 18) // sum_q if sum_q > 0 else -1
    return pa.table({
        "k": pa.array([k], type=pa.int64()),
        "x_min": pa.array([xk], type=pa.int64()),
        "sum_ln_q": pa.array([sum_q], type=pa.int64()),
        "alpha_e6": pa.array([alpha_e6], type=pa.int64()),
    })


def sql_hill_tail() -> str:
    return f"""
WITH hlc AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY 1
),
hlt AS MATERIALIZED (
  SELECT c, row_number() OVER (ORDER BY c DESC, user_id ASC) AS i
  FROM hlc QUALIFY i <= {HILL_K}
),
hlk AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(MIN(c) AS BIGINT) AS xk
  FROM hlt
),
hls AS MATERIALIZED (
  SELECT CAST(SUM(CAST(floor(ln(CAST(t.c AS DOUBLE)
      / CAST(kk.xk AS DOUBLE)) * 1000000000000.0) AS BIGINT)) AS HUGEINT)
    AS sum_q
  FROM hlt t CROSS JOIN hlk kk
  WHERE t.i < kk.k
)
SELECT kk.k, kk.xk AS x_min, CAST(s.sum_q AS BIGINT) AS sum_ln_q,
  CAST(CASE WHEN s.sum_q > 0
    THEN (kk.k - 1) * CAST(1000000000000000000 AS HUGEINT) // s.sum_q
    ELSE -1 END AS BIGINT) AS alpha_e6
FROM hlk kk CROSS JOIN hls s
"""


def q_permutation_test(sf_dir: str):
    """Seeded permutation test of the arm effect on event value — the
    assumption-free significance readout: the observed statistic is
    |mean_A - mean_B| under the real arms (user_id % 2); each of
    PERM_K pseudo-permutations reassigns arms by splitmix64(user_id *
    64 + k) & 1 (deterministic, so the oracle replays it through the
    HUGEINT-safe splitmix CTE chain).  Mean differences with
    different denominators compare EXACTLY by cross-multiplication —
    |d_k| * (nA0*nB0) >= |d0| * (nAk*nBk) with d = sA*nB - sB*nA —
    so the p-value is a pure integer count: p_permille = (1 + n_ge) *
    1000 // (K + 1).  Per-batch partials cover all K permutations
    vectorized; the fold is 2K+2 keys on the driver.
    Output (n_perms, n_ge, p_permille)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64

    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)
    K = PERM_K

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        keys, ns, ss = [], [], []
        # observed arms: key = 2*K + arm
        arm0 = (uid % 2).astype(np.int64)
        for a in (0, 1):
            m = arm0 == a
            keys.append(2 * K + a)
            ns.append(int(m.sum()))
            ss.append(int(c[m].sum()))
        base = uid.astype(np.uint64) * np.uint64(K)
        for k in range(K):
            armk = (splitmix64(base + np.uint64(k))
                    & np.uint64(1)).astype(np.int64)
            for a in (0, 1):
                m = armk == a
                keys.append(2 * k + a)
                ns.append(int(m.sum()))
                ss.append(int(c[m].sum()))
        return pa.table({
            "key": pa.array(np.array(keys, dtype=np.int64)),
            "n": pa.array(np.array(ns, dtype=np.int64)),
            "s": pa.array(np.array(ss, dtype=np.int64)),
        })

    N: dict = {}
    S: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n, s in zip(b["key"].to_pylist(), b["n"].to_pylist(),
                           b["s"].to_pylist()):
            N[k] = N.get(k, 0) + int(n)
            S[k] = S.get(k, 0) + int(s)

    def stat(k0: int, k1: int):
        nA, nB = N.get(k0, 0), N.get(k1, 0)
        sA, sB = S.get(k0, 0), S.get(k1, 0)
        return abs(sA * nB - sB * nA), nA * nB

    d0, den0 = stat(2 * K, 2 * K + 1)
    if not den0 > 0:
        raise AssertionError("permutation_test needs both observed arms")
    n_ge = 0
    for k in range(K):
        dk, denk = stat(2 * k, 2 * k + 1)
        if denk == 0:
            continue
        if dk * den0 >= d0 * denk:
            n_ge += 1
    return pa.table({
        "n_perms": pa.array([K], type=pa.int64()),
        "n_ge": pa.array([n_ge], type=pa.int64()),
        "p_permille": pa.array([(1 + n_ge) * 1000 // (K + 1)],
                               type=pa.int64()),
    })


def sql_permutation_test() -> str:
    K = PERM_K
    sm = oracle.splitmix64_sql_ctes(
        f"SELECT u, k, u * {K} + k AS z FROM"
        f" (SELECT DISTINCT user_id AS u FROM events) uu"
        f" CROSS JOIN (SELECT unnest(generate_series(0, {K - 1})) AS k) ks",
        "u, k", "z", "h", prefix="pmsm")
    return f"""
WITH pma AS MATERIALIZED (
  SELECT u, k, CAST(h & 1 AS BIGINT) AS arm FROM {sm} t
),
pmo AS MATERIALIZED (
  SELECT user_id % 2 AS arm, CAST(COUNT(*) AS HUGEINT) AS n,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS HUGEINT) AS s
  FROM events GROUP BY 1
),
pm0 AS MATERIALIZED (
  SELECT abs(MAX(CASE WHEN arm = 0 THEN s END)
      * MAX(CASE WHEN arm = 1 THEN n END)
    - MAX(CASE WHEN arm = 1 THEN s END)
      * MAX(CASE WHEN arm = 0 THEN n END)) AS d0,
    MAX(CASE WHEN arm = 0 THEN n END)
      * MAX(CASE WHEN arm = 1 THEN n END) AS den0
  FROM pmo
),
pmk AS MATERIALIZED (
  SELECT a.k, a.arm, CAST(COUNT(*) AS HUGEINT) AS n,
    CAST(SUM(CAST(floor(e.value * 100) AS BIGINT)) AS HUGEINT) AS s
  FROM events e JOIN pma a ON a.u = e.user_id
  GROUP BY a.k, a.arm
),
pms AS MATERIALIZED (
  SELECT k,
    abs(COALESCE(MAX(CASE WHEN arm = 0 THEN s END), 0)
      * COALESCE(MAX(CASE WHEN arm = 1 THEN n END), 0)
    - COALESCE(MAX(CASE WHEN arm = 1 THEN s END), 0)
      * COALESCE(MAX(CASE WHEN arm = 0 THEN n END), 0)) AS dk,
    COALESCE(MAX(CASE WHEN arm = 0 THEN n END), 0)
      * COALESCE(MAX(CASE WHEN arm = 1 THEN n END), 0) AS denk
  FROM pmk GROUP BY k
),
pmg AS MATERIALIZED (
  SELECT CAST(COUNT(*) FILTER (
      WHERE denk > 0 AND dk * (SELECT den0 FROM pm0)
        >= (SELECT d0 FROM pm0) * denk) AS BIGINT) AS n_ge
  FROM pms
)
SELECT CAST({K} AS BIGINT) AS n_perms, n_ge,
  CAST((1 + n_ge) * 1000 // {K + 1} AS BIGINT) AS p_permille
FROM pmg
"""


def q_coverage_curve(sf_dir: str):
    """Tile concentration curve — how many tiles hold p% of the
    events (the skew summary behind partitioning choices): tiles
    sorted by count desc (ties to the smaller tile_id), k_tiles(p) =
    the first rank whose running share reaches p% (integer rule
    100*cum >= p*n).  Composes q_tile_counts (bounded by the 486-cell
    universe).  Output (pct, k_tiles, cum_events)."""
    t = q_tile_counts(sf_dir)
    rows = []
    for b in (t.iter_batches(batch_format="pyarrow")
              if hasattr(t, "iter_batches") else [t]):
        if b.num_rows:
            rows.extend(zip(b["tile_id"].to_pylist(), b["n"].to_pylist()))
    rows.sort(key=lambda kv: (-kv[1], kv[0]))
    n = sum(c for _t, c in rows)
    out_p, out_k, out_c = [], [], []
    cum, k = 0, 0
    targets = list(range(10, 100, 10))
    ti = 0
    for _tile, c in rows:
        cum += c
        k += 1
        while ti < len(targets) and 100 * cum >= targets[ti] * n:
            out_p.append(targets[ti])
            out_k.append(k)
            out_c.append(cum)
            ti += 1
        if ti == len(targets):
            break
    return pa.table({
        "pct": pa.array(out_p, type=pa.int64()),
        "k_tiles": pa.array(out_k, type=pa.int64()),
        "cum_events": pa.array(out_c, type=pa.int64()),
    })


def sql_coverage_curve() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH cvt AS MATERIALIZED (
  SELECT substr(cell_id, 1, {1 + TILE_RES}) AS tile_id,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM {inner} t GROUP BY 1
),
cvr AS MATERIALIZED (
  SELECT c,
    row_number() OVER (ORDER BY c DESC, tile_id ASC) AS k,
    SUM(c) OVER (ORDER BY c DESC, tile_id ASC
                 ROWS UNBOUNDED PRECEDING) AS cum,
    SUM(c) OVER () AS n
  FROM cvt
)
SELECT CAST(p.pct AS BIGINT) AS pct,
  CAST(MIN(r.k) AS BIGINT) AS k_tiles,
  CAST(MIN(r.cum) AS BIGINT) AS cum_events
FROM (SELECT unnest(generate_series(10, 90, 10)) AS pct) p
JOIN cvr r ON 100 * r.cum >= p.pct * r.n
GROUP BY p.pct
"""


def q_uplift_by_bucket(sf_dir: str):
    """Uplift analysis by value bucket — where the treatment arm
    actually converts better: bucket = min(9, cents // 5000),
    conversion = event_type == 'purchase', uplift_e6 = (cB*nA -
    cA*nB) * 10^6 / (nA*nB) computed EXACTLY with the truncating-
    division mirror (sign split; Python bignum == HUGEINT).  One
    bounded fold (20 cells).
    Output (bucket, n_a, conv_a, n_b, conv_b, uplift_e6)."""
    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        conv = (np.asarray(batch["event_type"].to_pylist(), dtype=object)
                == "purchase").astype(np.int64)
        bucket = np.minimum(9, c // UPLIFT_BUCKET_CENTS)
        cell = bucket * 2 + (uid % 2)
        n = np.bincount(cell, minlength=20).astype(np.int64)
        cv = np.zeros(20, dtype=np.int64)
        np.add.at(cv, cell, conv)
        return pa.table({
            "cell": pa.array(np.arange(20, dtype=np.int64)),
            "n": pa.array(n), "conv": pa.array(cv),
        })

    N = [0] * 20
    C = [0] * 20
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for cell, n, cv in zip(b["cell"].to_pylist(), b["n"].to_pylist(),
                               b["conv"].to_pylist()):
            N[cell] += int(n)
            C[cell] += int(cv)
    out = {c: [] for c in
           ("bucket", "n_a", "conv_a", "n_b", "conv_b", "uplift_e6")}
    for bk in range(10):
        nA, cA = N[bk * 2], C[bk * 2]
        nB, cB = N[bk * 2 + 1], C[bk * 2 + 1]
        if nA == 0 or nB == 0:
            continue
        num = cB * nA - cA * nB
        q = (abs(num) * 10 ** 6) // (nA * nB)
        out["bucket"].append(bk)
        out["n_a"].append(nA)
        out["conv_a"].append(cA)
        out["n_b"].append(nB)
        out["conv_b"].append(cB)
        out["uplift_e6"].append(q if num >= 0 else -q)
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in out.items()})


def sql_uplift_by_bucket() -> str:
    return f"""
WITH upc AS MATERIALIZED (
  SELECT least(9, CAST(floor(value * 100) AS BIGINT)
      // {UPLIFT_BUCKET_CENTS}) AS bucket,
    user_id % 2 AS arm,
    CAST(COUNT(*) AS HUGEINT) AS n,
    CAST(COUNT(*) FILTER (WHERE event_type = 'purchase') AS HUGEINT)
      AS conv
  FROM events GROUP BY 1, 2
),
upp AS MATERIALIZED (
  SELECT bucket,
    MAX(CASE WHEN arm = 0 THEN n END) AS na,
    MAX(CASE WHEN arm = 0 THEN conv END) AS ca,
    MAX(CASE WHEN arm = 1 THEN n END) AS nb,
    MAX(CASE WHEN arm = 1 THEN conv END) AS cb
  FROM upc GROUP BY 1
)
SELECT CAST(bucket AS BIGINT) AS bucket,
  CAST(na AS BIGINT) AS n_a, CAST(ca AS BIGINT) AS conv_a,
  CAST(nb AS BIGINT) AS n_b, CAST(cb AS BIGINT) AS conv_b,
  CAST((cb * na - ca * nb) * 1000000 // (na * nb) AS BIGINT) AS uplift_e6
FROM upp WHERE na IS NOT NULL AND nb IS NOT NULL AND na > 0 AND nb > 0
"""


def q_cvm_test(sf_dir: str):
    """Cramér–von Mises two-sample statistic between the arms' event
    value distributions — the whole-CDF alternative to q_ks_test:
    over the pooled sorted distinct cents, T_num = sum_x w_x *
    (F_A(x)*nB - F_B(x)*nA)^2 with w_x the pooled multiplicity —
    EXACT integers end to end (counts and cross-multiplied CDFs).
    Per-(cent, arm) count partials fold once.
    Output (n_a, n_b, t_num_hi, t_num_lo)."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = c * 2 + (uid % 2)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["key"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    cents = sorted({k // 2 for k in acc})
    nA = sum(n for k, n in acc.items() if k % 2 == 0)
    nB = sum(n for k, n in acc.items() if k % 2 == 1)
    fa, fb, t = 0, 0, 0
    for c in cents:
        a = acc.get(c * 2, 0)
        b2 = acc.get(c * 2 + 1, 0)
        fa += a
        fb += b2
        diff = fa * nB - fb * nA
        t += (a + b2) * diff * diff
    return pa.table({
        "n_a": pa.array([nA], type=pa.int64()),
        "n_b": pa.array([nB], type=pa.int64()),
        "t_num_hi": pa.array([t >> 62], type=pa.int64()),
        "t_num_lo": pa.array([t & ((1 << 62) - 1)], type=pa.int64()),
    })


def sql_cvm_test() -> str:
    return """
WITH cvc AS MATERIALIZED (
  SELECT CAST(floor(value * 100) AS BIGINT) AS c, user_id % 2 AS arm,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
cvp AS MATERIALIZED (
  SELECT c,
    CAST(COALESCE(SUM(CASE WHEN arm = 0 THEN n END), 0) AS HUGEINT) AS a,
    CAST(COALESCE(SUM(CASE WHEN arm = 1 THEN n END), 0) AS HUGEINT) AS b
  FROM cvc GROUP BY c
),
cvf AS MATERIALIZED (
  SELECT c, a, b,
    SUM(a) OVER (ORDER BY c ROWS UNBOUNDED PRECEDING) AS fa,
    SUM(b) OVER (ORDER BY c ROWS UNBOUNDED PRECEDING) AS fb,
    SUM(a) OVER () AS na, SUM(b) OVER () AS nb
  FROM cvp
),
cvt AS MATERIALIZED (
  SELECT CAST(MAX(na) AS BIGINT) AS n_a, CAST(MAX(nb) AS BIGINT) AS n_b,
    CAST(SUM((a + b) * (fa * nb - fb * na) * (fa * nb - fb * na))
      AS HUGEINT) AS t
  FROM cvf
)
SELECT n_a, n_b,
  CAST(t // 4611686018427387904 AS BIGINT) AS t_num_hi,
  CAST(t % 4611686018427387904 AS BIGINT) AS t_num_lo
FROM cvt
"""


# ---------------------------------------------------------------------------
# Round 4e: permutation entropy + arm KL divergence
# ---------------------------------------------------------------------------


def q_permutation_entropy(sf_dir: str):
    """Permutation entropy (order-3 ordinal patterns) of the daily
    revenue series per event_type — the complexity measure that's
    invariant to monotone rescaling: each sliding window of 3 days
    maps to one of 6 ordinal patterns (ties rank by earlier index
    first — an exact integer rule), and H = -sum p ln p over the
    pattern distribution, quantized per distinct count (scalar libm,
    the entropy_rate shape).  Output (event_type, n_windows, sum_q,
    h_e9)."""
    import math

    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents))
    out = {c: [] for c in ("event_type", "n_windows", "sum_q", "h_e9")}
    for tp in sorted(series):
        pts = sorted(series[tp])
        x = [v for _d, v in pts]
        if len(x) < 3:
            continue
        cnt: dict = {}
        for i in range(len(x) - 2):
            a, b2, c2 = x[i], x[i + 1], x[i + 2]
            # pattern id: 2 bits per pairwise order, ties -> earlier
            # index ranks lower (strict > means later is greater)
            pat = 4 * (b2 > a) + 2 * (c2 > a) + (c2 > b2)
            cnt[pat] = cnt.get(pat, 0) + 1
        n = sum(cnt.values())
        sum_q = 0
        for v in cnt.values():
            sum_q += v * math.floor(
                math.log(float(v) / float(n)) * 1e12)
        out["event_type"].append(tp)
        out["n_windows"].append(n)
        out["sum_q"].append(sum_q)
        out["h_e9"].append((-sum_q) // (n * 1000))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_windows": pa.array(out["n_windows"], type=pa.int64()),
        "sum_q": pa.array(out["sum_q"], type=pa.int64()),
        "h_e9": pa.array(out["h_e9"], type=pa.int64()),
    })


def sql_permutation_entropy() -> str:
    return """
WITH ped AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
pew AS MATERIALIZED (
  SELECT event_type, x AS a,
    lead(x, 1) OVER w AS b, lead(x, 2) OVER w AS c
  FROM ped WINDOW w AS (PARTITION BY event_type ORDER BY day)
),
pep AS MATERIALIZED (
  SELECT event_type,
    4 * CASE WHEN b > a THEN 1 ELSE 0 END
    + 2 * CASE WHEN c > a THEN 1 ELSE 0 END
    + CASE WHEN c > b THEN 1 ELSE 0 END AS pat
  FROM pew WHERE b IS NOT NULL AND c IS NOT NULL
),
pec AS MATERIALIZED (
  SELECT event_type, pat, CAST(COUNT(*) AS BIGINT) AS v
  FROM pep GROUP BY 1, 2
),
pen AS MATERIALIZED (
  SELECT event_type, CAST(SUM(v) AS BIGINT) AS n FROM pec GROUP BY 1
)
SELECT c.event_type, n.n AS n_windows,
  CAST(SUM(CAST(c.v AS HUGEINT)
    * CAST(floor(ln(CAST(c.v AS DOUBLE) / CAST(n.n AS DOUBLE))
        * 1000000000000.0) AS HUGEINT)) AS BIGINT) AS sum_q,
  CAST((-SUM(CAST(c.v AS HUGEINT)
    * CAST(floor(ln(CAST(c.v AS DOUBLE) / CAST(n.n AS DOUBLE))
        * 1000000000000.0) AS HUGEINT))) // (n.n * 1000) AS BIGINT)
    AS h_e9
FROM pec c JOIN pen n ON n.event_type = c.event_type
GROUP BY c.event_type, n.n
"""


def q_arm_kl(sf_dir: str):
    """KL divergence between the arms' event-value histograms — the
    drift detector behind "did the treatment change the spend
    distribution": $10 buckets, Laplace +1 smoothing over the union
    support, KL(A||B) = sum p_a * (ln p_a - ln p_b) with each ln of
    a count ratio floor-quantized at 1e-12 (scalar libm) and the
    p_a weighting applied as exact integer cross-multiplication:
    sum_q = sum_b (ca_b+1) * (lnq((ca_b+1)/(na+V)) -
    lnq((cb_b+1)/(nb+V))); kl_e9 = sum_q // ((na+V) * 1000).
    Output (n_a, n_b, n_buckets, sum_q, kl_e9)."""
    import math

    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = (c // ARMKL_BUCKET) * 2 + (uid % 2)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["key"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    buckets = sorted({k // 2 for k in acc})
    V = len(buckets)
    nA = sum(n for k, n in acc.items() if k % 2 == 0)
    nB = sum(n for k, n in acc.items() if k % 2 == 1)
    sum_q = 0
    for bk in buckets:
        ca = acc.get(bk * 2, 0) + 1
        cb = acc.get(bk * 2 + 1, 0) + 1
        la = math.floor(math.log(float(ca) / float(nA + V)) * 1e12)
        lb = math.floor(math.log(float(cb) / float(nB + V)) * 1e12)
        sum_q += ca * (la - lb)
    return pa.table({
        "n_a": pa.array([nA], type=pa.int64()),
        "n_b": pa.array([nB], type=pa.int64()),
        "n_buckets": pa.array([V], type=pa.int64()),
        "sum_q": pa.array([sum_q], type=pa.int64()),
        "kl_e9": pa.array([sum_q // ((nA + V) * 1000)], type=pa.int64()),
    })


def sql_arm_kl() -> str:
    return f"""
WITH akc AS MATERIALIZED (
  SELECT CAST(floor(value * 100) AS BIGINT) // {ARMKL_BUCKET} AS bk,
    user_id % 2 AS arm, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
akp AS MATERIALIZED (
  SELECT bk,
    CAST(COALESCE(SUM(CASE WHEN arm = 0 THEN n END), 0) + 1 AS BIGINT)
      AS ca,
    CAST(COALESCE(SUM(CASE WHEN arm = 1 THEN n END), 0) + 1 AS BIGINT)
      AS cb
  FROM akc GROUP BY bk
),
akn AS MATERIALIZED (
  SELECT CAST(SUM(ca - 1) AS BIGINT) AS na,
    CAST(SUM(cb - 1) AS BIGINT) AS nb,
    CAST(COUNT(*) AS BIGINT) AS v
  FROM akp
),
aks AS MATERIALIZED (
  SELECT CAST(SUM(CAST(p.ca AS HUGEINT)
    * (CAST(floor(ln(CAST(p.ca AS DOUBLE) / CAST(n.na + n.v AS DOUBLE))
        * 1000000000000.0) AS HUGEINT)
      - CAST(floor(ln(CAST(p.cb AS DOUBLE) / CAST(n.nb + n.v AS DOUBLE))
        * 1000000000000.0) AS HUGEINT))) AS HUGEINT) AS sum_q
  FROM akp p CROSS JOIN akn n
)
SELECT n.na AS n_a, n.nb AS n_b, n.v AS n_buckets,
  CAST(s.sum_q AS BIGINT) AS sum_q,
  CAST(CASE WHEN s.sum_q >= 0
    THEN s.sum_q // ((n.na + n.v) * 1000)
    ELSE -((-s.sum_q) // ((n.na + n.v) * 1000)) - CASE WHEN
      (-s.sum_q) % ((n.na + n.v) * 1000) > 0 THEN 1 ELSE 0 END
    END AS BIGINT) AS kl_e9
FROM akn n CROSS JOIN aks s
"""


# ---------------------------------------------------------------------------
# Round 4e: Spearman rank correlation + Theil inequality decomposition
# ---------------------------------------------------------------------------


def q_spearman_rho(sf_dir: str):
    """Spearman rank correlation between per-user activity (event
    count) and spend (total cents) — the robust does-usage-drive-
    revenue readout: ranks are competition-free dense orderings with
    the deterministic tie rule (metric, user_id) asc, and rho
    replays through the exact q_corr_matrix machinery (bignum
    corr^2 + sign; ranks are small ints so everything fits).
    Per-user totals ride one u64 fold; ranking is a bounded driver
    sort.  Output (n_users, sign_num, rho2_e6)."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        n = np.bincount(inv, minlength=len(uu)).astype(np.int64)
        s = np.zeros(len(uu), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({
            "user_id": pa.array(uu.astype(np.int64)),
            "n": pa.array(n), "s": pa.array(s),
        })

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for u, n, s in zip(b["user_id"].to_pylist(), b["n"].to_pylist(),
                           b["s"].to_pylist()):
            pn, ps = acc.get(u, (0, 0))
            acc[u] = (pn + int(n), ps + int(s))
    users = sorted(acc)
    k = len(users)
    by_n = sorted(users, key=lambda u: (acc[u][0], u))
    by_s = sorted(users, key=lambda u: (acc[u][1], u))
    rn = {u: i + 1 for i, u in enumerate(by_n)}
    rs = {u: i + 1 for i, u in enumerate(by_s)}
    sx = sy = sxx = syy = sxy = 0
    for u in users:
        x, y = rn[u], rs[u]
        sx += x
        sy += y
        sxx += x * x
        syy += y * y
        sxy += x * y
    num = k * sxy - sx * sy
    d1 = k * sxx - sx * sx
    d2 = k * syy - sy * sy
    rho2 = (num * num * 10 ** 6) // (d1 * d2) if d1 > 0 and d2 > 0 else 0
    return pa.table({
        "n_users": pa.array([k], type=pa.int64()),
        "sign_num": pa.array(
            [0 if num == 0 else (1 if num > 0 else -1)], type=pa.int64()),
        "rho2_e6": pa.array([rho2], type=pa.int64()),
    })


def sql_spearman_rho() -> str:
    return """
WITH sru AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1
),
srr AS MATERIALIZED (
  SELECT user_id,
    CAST(row_number() OVER (ORDER BY n, user_id) AS HUGEINT) AS x,
    CAST(row_number() OVER (ORDER BY s, user_id) AS HUGEINT) AS y
  FROM sru
),
sra AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k, SUM(x) AS sx, SUM(y) AS sy,
    SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy
  FROM srr
)
SELECT CAST(k AS BIGINT) AS n_users,
  CAST(CASE WHEN k * sxy - sx * sy > 0 THEN 1
            WHEN k * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT)
    AS sign_num,
  CAST(CASE WHEN k * sxx - sx * sx > 0 AND k * syy - sy * sy > 0
    THEN (k * sxy - sx * sy) * (k * sxy - sx * sy) * 1000000
      // ((k * sxx - sx * sx) * (k * syy - sy * sy))
    ELSE 0 END AS BIGINT) AS rho2_e6
FROM sra
"""


def q_band_depth(sf_dir: str):
    """Modified band depth (MBD-2) of each event type's daily revenue
    curve — the functional-data outlier detector: depth_j counts,
    over all days and all pairs of OTHER curves, how often curve j
    lies inside the pair's band (min <= x_j <= max) — exact integer
    counting over the |types| x days fold.
    Output (event_type, depth, n_days, n_pairs)."""
    acc = _daily_cents(sf_dir)
    days = sorted({int(k.split("\x00")[1]) for k in acc})
    types = sorted({k.split("\x00")[0] for k in acc})
    # curves on the common-day grid: a type missing a day contributes
    # nothing on that day (skip day for pairs involving it)
    x = {(tp, d): acc.get(f"{tp}\x00{d}") for tp in types for d in days}
    out_t, out_d = [], []
    n_pairs = (len(types) - 1) * (len(types) - 2) // 2
    for j in types:
        depth = 0
        for d in days:
            xj = x[(j, d)]
            if xj is None:
                continue
            others = [x[(a, d)] for a in types
                      if a != j and x[(a, d)] is not None]
            for i in range(len(others)):
                for k2 in range(i + 1, len(others)):
                    lo, hi = (others[i], others[k2]) \
                        if others[i] <= others[k2] \
                        else (others[k2], others[i])
                    if lo <= xj <= hi:
                        depth += 1
        out_t.append(j)
        out_d.append(depth)
    return pa.table({
        "event_type": pa.array(out_t, type=pa.string()),
        "depth": pa.array(out_d, type=pa.int64()),
        "n_days": pa.array([len(days)] * len(types), type=pa.int64()),
        "n_pairs": pa.array([n_pairs] * len(types), type=pa.int64()),
    })


def sql_band_depth() -> str:
    return """
WITH bdd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
bdt AS MATERIALIZED (
  SELECT DISTINCT event_type FROM bdd
),
bdp AS MATERIALIZED (
  SELECT j.event_type, CAST(COUNT(*) AS BIGINT) AS depth
  FROM bdd j
  JOIN bdd a ON a.day = j.day AND a.event_type <> j.event_type
  JOIN bdd b ON b.day = j.day AND b.event_type <> j.event_type
    AND b.event_type > a.event_type
  WHERE least(a.x, b.x) <= j.x AND j.x <= greatest(a.x, b.x)
  GROUP BY j.event_type
),
bdn AS MATERIALIZED (
  SELECT CAST(COUNT(DISTINCT day) AS BIGINT) AS n_days,
    CAST((COUNT(DISTINCT event_type) - 1)
      * (COUNT(DISTINCT event_type) - 2) // 2 AS BIGINT) AS n_pairs
  FROM bdd
)
SELECT t.event_type, CAST(COALESCE(p.depth, 0) AS BIGINT) AS depth,
  n.n_days, n.n_pairs
FROM bdt t LEFT JOIN bdp p ON p.event_type = t.event_type
CROSS JOIN bdn n
"""


# ---------------------------------------------------------------------------
# Round 4e: Grubbs max-outlier test + Wald–Wolfowitz runs test
# ---------------------------------------------------------------------------


def q_grubbs_test(sf_dir: str):
    """Grubbs statistic on the daily dollar series per event_type —
    is the single worst day a statistical outlier?  G = max|x - mean|
    / std with the same exact-integer moments and one mirrored float
    tree (dollars keep every int -> double conversion exact); the
    argmax day travels as an exact integer decision (maximize
    |x*D - S|, ties to the earliest day).
    Output (event_type, d_days, worst_day, g_e6)."""
    import math

    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents // 100))
    out = {c: [] for c in ("event_type", "d_days", "worst_day", "g_e6")}
    for tp in sorted(series):
        pts = sorted(series[tp])
        x = [v for _d, v in pts]
        D = len(x)
        if D < 3:
            continue
        S = sum(x)
        sxx = sum(v * v for v in x)
        dev = [abs(v * D - S) for v in x]
        mx = max(dev)
        wi = dev.index(mx)   # earliest day attaining the max
        var = (float(D) * float(sxx) - float(S) * float(S)) / (
            float(D) * float(D - 1))
        if var <= 0:
            continue
        g = (float(mx) / float(D)) / math.sqrt(var)
        out["event_type"].append(tp)
        out["d_days"].append(D)
        out["worst_day"].append(pts[wi][0])
        out["g_e6"].append(math.floor(g * 1e6))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "d_days": pa.array(out["d_days"], type=pa.int64()),
        "worst_day": pa.array(out["worst_day"], type=pa.int64()),
        "g_e6": pa.array(out["g_e6"], type=pa.int64()),
    })


def sql_grubbs_test() -> str:
    return """
WITH gbd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
gba AS MATERIALIZED (
  SELECT event_type, day, x,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT) AS d,
    CAST(SUM(x) OVER (PARTITION BY event_type) AS BIGINT) AS s,
    CAST(SUM(x * x) OVER (PARTITION BY event_type) AS BIGINT) AS sxx
  FROM gbd
),
gbw AS MATERIALIZED (
  SELECT event_type, day, x, d, s, sxx,
    row_number() OVER (PARTITION BY event_type
                       ORDER BY abs(x * d - s) DESC, day ASC) AS rn
  FROM gba
)
SELECT event_type, d AS d_days, day AS worst_day,
  CAST(floor((CAST(abs(x * d - s) AS DOUBLE) / CAST(d AS DOUBLE))
    / sqrt((CAST(d AS DOUBLE) * CAST(sxx AS DOUBLE)
      - CAST(s AS DOUBLE) * CAST(s AS DOUBLE))
      / (CAST(d AS DOUBLE) * CAST(d - 1 AS DOUBLE)))
    * 1000000.0) AS BIGINT) AS g_e6
FROM gbw
WHERE rn = 1 AND d >= 3
  AND CAST(d AS DOUBLE) * CAST(sxx AS DOUBLE)
    - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) > 0
"""


# ---------------------------------------------------------------------------
# Round 4e: Lin concordance + k-truss edge peeling
# ---------------------------------------------------------------------------


def q_lin_ccc(sf_dir: str):
    """Lin's concordance correlation between the click and purchase
    daily dollar series — agreement, not just correlation (penalizes
    scale and location shifts): ccc = 2*cov / (var_a + var_b +
    (mean_a - mean_b)^2); with the n^2-scaled integer forms every
    term shares the denominator n^2*n, so ccc_e6 is ONE sign-split
    bignum division.  Output (n_days, sign_num, ccc_e6)."""
    dc = _daily_cents(sf_dir)
    a, bb = {}, {}
    for k, cents in dc.items():
        tp, d = k.split("\x00")
        if tp == XCORR_A:
            a[int(d)] = cents // 100
        elif tp == XCORR_B:
            bb[int(d)] = cents // 100
    days = sorted(set(a) & set(bb))
    n = len(days)
    if n < 2:
        return pa.table({"n_days": pa.array([n], type=pa.int64()),
                         "sign_num": pa.array([0], type=pa.int64()),
                         "ccc_e6": pa.array([0], type=pa.int64())})
    xs = [a[d] for d in days]
    ys = [bb[d] for d in days]
    sa, sb = sum(xs), sum(ys)
    saa = sum(v * v for v in xs)
    sbb = sum(v * v for v in ys)
    sab = sum(x * y for x, y in zip(xs, ys))
    # n^2-scaled: cov*n^2 = n*sab - sa*sb; var_a*n^2 = n*saa - sa^2;
    # (ma-mb)^2*n^2 = (sa-sb)^2
    num = 2 * (n * sab - sa * sb)
    den = (n * saa - sa * sa) + (n * sbb - sb * sb) + (sa - sb) ** 2
    q = (abs(num) * 10 ** 6) // den if den > 0 else 0
    return pa.table({
        "n_days": pa.array([n], type=pa.int64()),
        "sign_num": pa.array(
            [0 if num == 0 else (1 if num > 0 else -1)], type=pa.int64()),
        "ccc_e6": pa.array([q if num >= 0 else -q], type=pa.int64()),
    })


def sql_lin_ccc() -> str:
    return f"""
WITH lcd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
  GROUP BY 1, 2
),
lcp AS MATERIALIZED (
  SELECT CAST(a.x AS HUGEINT) AS xa, CAST(b.x AS HUGEINT) AS xb
  FROM lcd a JOIN lcd b ON b.day = a.day
  WHERE a.event_type = '{XCORR_A}' AND b.event_type = '{XCORR_B}'
),
lca AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(xa) AS sa, SUM(xb) AS sb,
    SUM(xa * xa) AS saa, SUM(xb * xb) AS sbb, SUM(xa * xb) AS sab
  FROM lcp
)
SELECT CAST(n AS BIGINT) AS n_days,
  CAST(CASE WHEN 2 * (n * sab - sa * sb) > 0 THEN 1
            WHEN 2 * (n * sab - sa * sb) < 0 THEN -1 ELSE 0 END
    AS BIGINT) AS sign_num,
  CAST(CASE WHEN (n * saa - sa * sa) + (n * sbb - sb * sb)
      + (sa - sb) * (sa - sb) <= 0 OR n < 2 THEN 0
    WHEN 2 * (n * sab - sa * sb) >= 0
    THEN abs(2 * (n * sab - sa * sb)) * 1000000
      // ((n * saa - sa * sa) + (n * sbb - sb * sb)
        + (sa - sb) * (sa - sb))
    ELSE -(abs(2 * (n * sab - sa * sb)) * 1000000
      // ((n * saa - sa * sa) + (n * sbb - sb * sb)
        + (sa - sb) * (sa - sb)))
    END AS BIGINT) AS ccc_e6
FROM lca
"""


# ---------------------------------------------------------------------------
# Round 4e: QQ-plot slope + Mann-Whitney U
# ---------------------------------------------------------------------------


def q_qq_slope(sf_dir: str):
    """QQ-plot slope between the arms' event-value distributions —
    the scale-shift readout (slope 1 = same shape, > 1 = treatment
    heavier-tailed): deciles are exact lower order statistics (rank
    ceil(k*n/10), the positive-form ceil), and the slope through the
    nine (qA, qB) points replays via the exact sufficient-stats
    machinery (sign + slope ratio as bignum //).
    Output (n_points, sign_num, slope_e6, intercept_sign)."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = c * 2 + (uid % 2)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["key"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)

    def deciles(arm: int):
        hist = sorted((k // 2, n) for k, n in acc.items()
                      if k % 2 == arm)
        n_tot = sum(n for _c, n in hist)
        qs = []
        targets = [((k * n_tot) + 9) // 10 for k in range(1, 10)]
        cum = 0
        ti = 0
        for c, n in hist:
            cum += n
            while ti < 9 and cum >= targets[ti]:
                qs.append(c)
                ti += 1
            if ti == 9:
                break
        return n_tot, qs

    na, qa = deciles(0)
    nb, qb = deciles(1)
    k = len(qa)
    sx = sum(qa)
    sy = sum(qb)
    sxx = sum(v * v for v in qa)
    sxy = sum(x * y for x, y in zip(qa, qb))
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    if den > 0:
        q = (abs(num) * 10 ** 6) // den
        slope = q if num >= 0 else -q
    else:
        slope = 0
    # intercept sign: sy*den - slope-ish — use exact cross-mult:
    # intercept = (sy - slope*sx)/k; sign of sy*den - num*sx
    isign_val = sy * den - num * sx
    return pa.table({
        "n_points": pa.array([k], type=pa.int64()),
        "sign_num": pa.array(
            [0 if num == 0 else (1 if num > 0 else -1)], type=pa.int64()),
        "slope_e6": pa.array([slope], type=pa.int64()),
        "intercept_sign": pa.array(
            [0 if isign_val == 0 else (1 if isign_val > 0 else -1)],
            type=pa.int64()),
    })


def sql_qq_slope() -> str:
    return """
WITH qqc AS MATERIALIZED (
  SELECT CAST(floor(value * 100) AS BIGINT) AS c, user_id % 2 AS arm
  FROM events
),
qqr AS MATERIALIZED (
  SELECT arm, c,
    row_number() OVER (PARTITION BY arm ORDER BY c) AS rn,
    COUNT(*) OVER (PARTITION BY arm) AS n
  FROM qqc
),
qqd AS MATERIALIZED (
  SELECT k.k, 
    CAST(MIN(CASE WHEN arm = 0 THEN c END) AS HUGEINT) AS qa,
    CAST(MIN(CASE WHEN arm = 1 THEN c END) AS HUGEINT) AS qb
  FROM (SELECT unnest(generate_series(1, 9)) AS k) k
  JOIN qqr r ON r.rn = (k.k * r.n + 9) // 10
  GROUP BY k.k
),
qqa AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k, SUM(qa) AS sx, SUM(qb) AS sy,
    SUM(qa * qa) AS sxx, SUM(qa * qb) AS sxy
  FROM qqd
)
SELECT CAST(k AS BIGINT) AS n_points,
  CAST(CASE WHEN k * sxy - sx * sy > 0 THEN 1
            WHEN k * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT)
    AS sign_num,
  CAST(CASE WHEN k * sxx - sx * sx <= 0 THEN 0
    WHEN k * sxy - sx * sy >= 0
    THEN abs(k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx)
    ELSE -(abs(k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx))
    END AS BIGINT) AS slope_e6,
  CAST(CASE WHEN sy * (k * sxx - sx * sx) - (k * sxy - sx * sy) * sx > 0
      THEN 1
    WHEN sy * (k * sxx - sx * sx) - (k * sxy - sx * sy) * sx < 0
      THEN -1 ELSE 0 END AS BIGINT) AS intercept_sign
FROM qqa
"""


def q_wilcoxon_u(sf_dir: str):
    """Mann-Whitney U between the arms' event values — the standard
    nonparametric location test: pooled ranks with the PINNED
    deterministic tie rule (cents asc, arm asc — distinct ranks, no
    averaging; documented contract), U = R_A - nA(nA+1)/2, z from
    the normal approximation as one mirrored float tree.
    Output (n_a, n_b, u_stat, z_e6)."""
    import math

    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = c * 2 + (uid % 2)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["key"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    # ranks in (cents, arm) order; each (cents, arm) block gets
    # consecutive ranks -> block rank sum = n*(2*start + n - 1)/2
    keys = sorted(acc)
    ra = 0
    na = nb = 0
    start = 1
    for k in keys:
        n = acc[k]
        block_sum = n * (2 * start + n - 1) // 2
        if k % 2 == 0:
            ra += block_sum
            na += n
        else:
            nb += n
        start += n
    u = ra - na * (na + 1) // 2
    mu = float(na) * float(nb) / 2.0
    var = (float(na) * float(nb) * (float(na) + float(nb) + 1.0)) / 12.0
    z = (float(u) - mu) / math.sqrt(var)
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "u_stat": pa.array([u], type=pa.int64()),
        "z_e6": pa.array([math.floor(z * 1e6)], type=pa.int64()),
    })


def sql_wilcoxon_u() -> str:
    return """
WITH wuc AS MATERIALIZED (
  SELECT CAST(floor(value * 100) AS BIGINT) AS c, user_id % 2 AS arm
  FROM events
),
wur AS MATERIALIZED (
  SELECT arm, CAST(row_number() OVER (ORDER BY c, arm) AS HUGEINT) AS rn
  FROM wuc
),
wua AS MATERIALIZED (
  SELECT
    CAST(SUM(CASE WHEN arm = 0 THEN rn END) AS HUGEINT) AS ra,
    CAST(COUNT(*) FILTER (WHERE arm = 0) AS HUGEINT) AS na,
    CAST(COUNT(*) FILTER (WHERE arm = 1) AS HUGEINT) AS nb
  FROM wur
)
SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
  CAST(ra - na * (na + 1) // 2 AS BIGINT) AS u_stat,
  CAST(floor((CAST(ra - na * (na + 1) // 2 AS DOUBLE)
    - CAST(na AS DOUBLE) * CAST(nb AS DOUBLE) / 2.0)
    / sqrt((CAST(na AS DOUBLE) * CAST(nb AS DOUBLE)
      * (CAST(na AS DOUBLE) + CAST(nb AS DOUBLE) + 1.0)) / 12.0)
    * 1000000.0) AS BIGINT) AS z_e6
FROM wua
"""


# ---------------------------------------------------------------------------
# Round 4e: L-moments + Friedman rank test
# ---------------------------------------------------------------------------


def q_l_moments(sf_dir: str):
    """L-moments of the daily dollar distribution per event_type —
    the robust shape summary (L-scale, L-skewness) built purely from
    order statistics: with x_(1) <= ... <= x_(n), b1_num = sum (i-1)
    x_(i), l2 shares the denominator n(n-1) so l2_q = (2*b1_num -
    (n-1)*s) * 10^3 // (n*(n-1)) is exact; t3 (L-skewness ratio)
    reports as sign + |l3/l2|^2 * 1e6 via bignum cross-multiplying
    the two rationals (the corr^2 pattern).
    Output (event_type, n_days, l2_q, t3_sign, t3_2_e6)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append(cents // 100)
    out = {c: [] for c in
           ("event_type", "n_days", "l2_q", "t3_sign", "t3_2_e6")}
    for tp in sorted(series):
        x = sorted(series[tp])
        n = len(x)
        if n < 3:
            continue
        s0 = sum(x)
        b1 = sum((i) * v for i, v in enumerate(x))           # (i-1), 0-based
        b2 = sum((i) * (i - 1) * v for i, v in enumerate(x))
        # l2 = 2*b1/(n(n-1)) - b0/n ; common denominator n(n-1)
        l2_num = 2 * b1 - (n - 1) * s0
        l2_den = n * (n - 1)
        # l3 = 6*b2/(n(n-1)(n-2)) - 6*b1/(n(n-1)) + b0/n over
        # denominator n(n-1)(n-2)
        l3_num = 6 * b2 - 6 * (n - 2) * b1 + (n - 1) * (n - 2) * s0
        l3_den = n * (n - 1) * (n - 2)
        if l2_num == 0:
            continue
        # t3 = (l3_num/l3_den) / (l2_num/l2_den)
        t3n = l3_num * l2_den
        t3d = l2_num * l3_den
        t3sq = (t3n * t3n * 10 ** 6) // (t3d * t3d)
        out["event_type"].append(tp)
        out["n_days"].append(n)
        out["l2_q"].append(l2_num * 10 ** 3 // l2_den)
        out["t3_sign"].append(
            0 if t3n == 0 else (1 if (t3n > 0) == (t3d > 0) else -1))
        out["t3_2_e6"].append(t3sq)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_days": pa.array(out["n_days"], type=pa.int64()),
        "l2_q": pa.array(out["l2_q"], type=pa.int64()),
        "t3_sign": pa.array(out["t3_sign"], type=pa.int64()),
        "t3_2_e6": pa.array(out["t3_2_e6"], type=pa.int64()),
    })


def sql_l_moments() -> str:
    return """
WITH lmd AS MATERIALIZED (
  SELECT event_type,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events
  GROUP BY event_type, epoch_us(ts) // 86400000000
),
lmr AS MATERIALIZED (
  SELECT event_type, CAST(x AS HUGEINT) AS x,
    CAST(row_number() OVER (PARTITION BY event_type ORDER BY x)
      AS HUGEINT) AS i,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS HUGEINT) AS n
  FROM lmd
),
lma AS MATERIALIZED (
  SELECT event_type, CAST(MAX(n) AS HUGEINT) AS n,
    SUM(x) AS s0, SUM((i - 1) * x) AS b1,
    SUM((i - 1) * (i - 2) * x) AS b2
  FROM lmr GROUP BY event_type HAVING MAX(n) >= 3
),
lmq AS MATERIALIZED (
  SELECT event_type, n,
    2 * b1 - (n - 1) * s0 AS l2n, n * (n - 1) AS l2d,
    6 * b2 - 6 * (n - 2) * b1 + (n - 1) * (n - 2) * s0 AS l3n,
    n * (n - 1) * (n - 2) AS l3d
  FROM lma WHERE 2 * b1 - (n - 1) * s0 <> 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_days,
  CAST(CASE WHEN l2n >= 0 THEN l2n * 1000 // l2d
    ELSE -((-l2n) * 1000 // l2d)
      - CASE WHEN (-l2n) * 1000 % l2d > 0 THEN 1 ELSE 0 END
    END AS BIGINT) AS l2_q,
  CAST(CASE WHEN l3n * l2d = 0 THEN 0
    WHEN (l3n * l2d > 0) = (l2n * l3d > 0) THEN 1 ELSE -1 END
    AS BIGINT) AS t3_sign,
  CAST((l3n * l2d) * (l3n * l2d) * 1000000
    // ((l2n * l3d) * (l2n * l3d)) AS BIGINT) AS t3_2_e6
FROM lmq
"""


def q_friedman_test(sf_dir: str):
    """Friedman rank test across event types by day — do the types
    keep a consistent revenue ordering day after day?  Within each
    day the five types rank 1..5 (ties pinned to type asc), the rank
    sums R_j are exact integers, and the chi-square statistic
    Q = 12/(n k (k+1)) * sum R_j^2 - 3 n (k+1) replays as one float
    tree.  Output (n_days, k_types, q_e6)."""
    import math

    acc = _daily_cents(sf_dir)
    by_day: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        by_day.setdefault(int(d), []).append((cents, tp))
    types = sorted({k.split("\x00")[0] for k in acc})
    # only days where every type reports (balanced design)
    R = {tp: 0 for tp in types}
    n_days = 0
    for d in sorted(by_day):
        row = by_day[d]
        if len(row) != len(types):
            continue
        n_days += 1
        for rank, (_v, tp) in enumerate(sorted(row), start=1):
            R[tp] += rank
    k = len(types)
    if n_days == 0 or k < 2:
        q = 0.0
    else:
        s2 = sum(v * v for v in R.values())
        q = (12.0 / (float(n_days) * float(k) * float(k + 1))
             * float(s2) - 3.0 * float(n_days) * float(k + 1))
    return pa.table({
        "n_days": pa.array([n_days], type=pa.int64()),
        "k_types": pa.array([k], type=pa.int64()),
        "q_e6": pa.array([math.floor(q * 1e6)], type=pa.int64()),
    })


def sql_friedman_test() -> str:
    return """
WITH frd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
frk AS MATERIALIZED (
  SELECT CAST(COUNT(DISTINCT event_type) AS BIGINT) AS k FROM frd
),
frb AS MATERIALIZED (
  SELECT day FROM frd CROSS JOIN frk
  GROUP BY day, k HAVING COUNT(*) = MAX(k)
),
frr AS MATERIALIZED (
  SELECT d.event_type,
    CAST(row_number() OVER (PARTITION BY d.day
      ORDER BY d.x, d.event_type) AS BIGINT) AS r
  FROM frd d JOIN frb b ON b.day = d.day
),
frs AS MATERIALIZED (
  SELECT event_type, CAST(SUM(r) AS BIGINT) AS rj FROM frr GROUP BY 1
),
fra AS MATERIALIZED (
  SELECT CAST(SUM(rj * rj) AS BIGINT) AS s2 FROM frs
),
frn AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n FROM frb
)
SELECT n.n AS n_days, k.k AS k_types,
  CAST(floor((12.0 / (CAST(n.n AS DOUBLE) * CAST(k.k AS DOUBLE)
    * CAST(k.k + 1 AS DOUBLE)) * CAST(a.s2 AS DOUBLE)
    - 3.0 * CAST(n.n AS DOUBLE) * CAST(k.k + 1 AS DOUBLE))
    * 1000000.0) AS BIGINT) AS q_e6
FROM frn n CROSS JOIN frk k CROSS JOIN fra a
"""


# ---------------------------------------------------------------------------
# Round 4e: Q22-style anti-join + payload byte audit
# ---------------------------------------------------------------------------


def q_customers_without_orders(sf_dir: str):
    """TPC-H Q22 flavor — rich but dormant customers: those with
    acctbal strictly above their market segment's positive-balance
    average (compared EXACTLY by cross-multiplication, no division)
    and no URGENT orders (the fixture gives every customer SOME
    order, so the Q22 anti-join runs against the urgent subset).
    Segment averages are a tiny broadcast;
    the no-orders test is a union-bucket ANTI-JOIN (the
    spatial_antijoin shape — order keys never gather on the driver).
    Output (c_custkey, c_mktsegment, acctbal_cents)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderpriority"], blocks=4)
    nb = 8

    def seg_part(batch: pa.Table) -> pa.Table:
        seg = np.asarray(batch["c_mktsegment"].to_pylist(), dtype=object)
        cents = np.floor(
            batch["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        pos = cents > 0
        uq, inv = np.unique(seg[pos], return_inverse=True)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, cents[pos])
        return pa.table({"seg": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(n), "s": pa.array(s)})

    seg_stats: dict = {}
    for b in cust.map_batches(seg_part, batch_format="pyarrow",
                              zero_copy_batch=True).iter_batches(
                                  batch_format="pyarrow"):
        for sg, n, s in zip(b["seg"].to_pylist(), b["n"].to_pylist(),
                            b["s"].to_pylist()):
            pn, ps = seg_stats.get(sg, (0, 0))
            seg_stats[sg] = (pn + int(n), ps + int(s))
    import ray as _ray
    seg_ref = _ray.put(seg_stats)

    def cust_rows(batch: pa.Table) -> pa.Table:
        st = _ray.get(seg_ref)
        key = batch["c_custkey"].to_numpy(zero_copy_only=False)
        seg = np.asarray(batch["c_mktsegment"].to_pylist(), dtype=object)
        cents = np.floor(
            batch["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        keep = np.array(
            [c * st.get(sg, (1, 0))[0] > st.get(sg, (1, 0))[1]
             for c, sg in zip(cents.tolist(), seg)], dtype=bool)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(key[keep], nb)),
            "key": pa.array(key[keep].astype(np.int64)),
            "seg": pa.array(list(seg[keep]), type=pa.string()),
            "cents": pa.array(cents[keep]),
            "side": pa.array(np.zeros(int(keep.sum()), dtype=np.int64)),
        })

    def order_rows(batch: pa.Table) -> pa.Table:
        pri = np.asarray(batch["o_orderpriority"].to_pylist(),
                         dtype=object)
        key = np.unique(batch["o_custkey"].to_numpy(
            zero_copy_only=False)[pri == "1-URGENT"])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(key, nb)),
            "key": pa.array(key.astype(np.int64)),
            "seg": pa.array([""] * len(key), type=pa.string()),
            "cents": pa.array(np.zeros(len(key), dtype=np.int64)),
            "side": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    u = cust.map_batches(cust_rows, batch_format="pyarrow",
                         zero_copy_batch=True).union(
        orders.map_batches(order_rows, batch_format="pyarrow",
                           zero_copy_batch=True))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({
                "c_custkey": pa.array([], type=pa.int64()),
                "c_mktsegment": pa.array([], type=pa.string()),
                "acctbal_cents": pa.array([], type=pa.int64())})
        key = g["key"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        with_orders = set(key[side == 1].tolist())
        m = (side == 0) & np.array(
            [k not in with_orders for k in key.tolist()], dtype=bool)
        return pa.table({
            "c_custkey": pa.array(key[m]),
            "c_mktsegment": pa.array(
                [g["seg"][i].as_py() for i in np.flatnonzero(m)],
                type=pa.string()),
            "acctbal_cents": pa.array(
                g["cents"].to_numpy(zero_copy_only=False)[m]),
        })

    return u.groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def sql_customers_without_orders() -> str:
    return """
WITH cwa AS MATERIALIZED (
  SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n,
    CAST(SUM(CAST(floor(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS s
  FROM customer WHERE floor(c_acctbal * 100) > 0
  GROUP BY 1
)
SELECT c.c_custkey, c.c_mktsegment,
  CAST(floor(c.c_acctbal * 100) AS BIGINT) AS acctbal_cents
FROM customer c JOIN cwa a ON a.c_mktsegment = c.c_mktsegment
WHERE CAST(floor(c.c_acctbal * 100) AS BIGINT) * a.n > a.s
  AND NOT EXISTS (SELECT 1 FROM orders o
    WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')
"""


def q_price_index(sf_dir: str):
    """Laspeyres price index of the lineitem flow — did unit prices
    rise, holding the early basket fixed?  Per part and period
    (pre/post PRICE_SPLIT_DAY by ship date), unit price = total
    extendedprice cents // total quantity (the pinned floor rule);
    index_e6 = sum(q_pre * up_post) * 1e6 // sum(q_pre * up_pre)
    over parts present in BOTH periods — every step exact integers.
    One u64 fold keyed part*2+period.
    Output (n_parts, basket_pre, basket_post_at_pre_q, index_e6)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity", "l_extendedprice",
                        "l_shipdate"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        q = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        e = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        day = (batch["l_shipdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        per = (day >= PRICE_SPLIT_DAY).astype(np.int64)
        key = (pk * 2 + per).astype(np.uint64)
        uq, inv = np.unique(key, return_inverse=True)
        qs = np.zeros(len(uq), dtype=np.int64)
        es = np.zeros(len(uq), dtype=np.int64)
        np.add.at(qs, inv, q)
        np.add.at(es, inv, e)
        # stat 0 = quantity, 1 = cents, packed as key*2 + stat
        return pa.table({
            "pk": pa.array(np.concatenate([uq * np.uint64(2),
                                           uq * np.uint64(2) + np.uint64(1)]),
                           type=pa.uint64()),
            "v": pa.array(np.concatenate([qs, es])),
        })

    pk4, v = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "pk", "v")
    # pk4 = partkey*4 + period*2 + stat -> one (q0, e0, q1, e1) row per part
    parts, inv = np.unique(pk4 // np.uint64(4), return_inverse=True)
    qe = np.zeros((len(parts), 4), dtype=np.int64)
    qe[inv, (pk4 % np.uint64(4)).astype(np.int64)] = v
    qe = qe[(qe[:, 0] > 0) & (qe[:, 2] > 0)]
    q0, e0, q1, e1 = qe.T
    n_parts = len(qe)
    basket_pre = int((q0 * (e0 // q0)).sum())
    basket_cross = int((q0 * (e1 // q1)).sum())
    idx = (basket_cross * 10 ** 6 // basket_pre) if basket_pre else 0
    return pa.table({
        "n_parts": pa.array([n_parts], type=pa.int64()),
        "basket_pre": pa.array([basket_pre], type=pa.int64()),
        "basket_post_at_pre_q": pa.array([basket_cross], type=pa.int64()),
        "index_e6": pa.array([idx], type=pa.int64()),
    })


def sql_price_index() -> str:
    return f"""
WITH pip AS MATERIALIZED (
  SELECT l_partkey,
    CASE WHEN epoch_us(l_shipdate) // 86400000000 >= {PRICE_SPLIT_DAY}
      THEN 1 ELSE 0 END AS per,
    CAST(SUM(CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS q,
    CAST(SUM(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
      AS e
  FROM lineitem GROUP BY 1, 2
),
piu AS MATERIALIZED (
  SELECT a.l_partkey, a.q AS q0, a.e // a.q AS up0, b.e // b.q AS up1
  FROM pip a JOIN pip b ON b.l_partkey = a.l_partkey
  WHERE a.per = 0 AND b.per = 1 AND a.q > 0 AND b.q > 0
),
pia AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_parts,
    CAST(COALESCE(SUM(CAST(q0 AS HUGEINT) * up0), 0) AS HUGEINT)
      AS basket_pre,
    CAST(COALESCE(SUM(CAST(q0 AS HUGEINT) * up1), 0) AS HUGEINT)
      AS basket_cross
  FROM piu
)
SELECT n_parts, CAST(basket_pre AS BIGINT) AS basket_pre,
  CAST(basket_cross AS BIGINT) AS basket_post_at_pre_q,
  CAST(CASE WHEN basket_pre > 0
    THEN basket_cross * 1000000 // basket_pre ELSE 0 END AS BIGINT)
    AS index_e6
FROM pia
"""


def q_cramers_v(sf_dir: str):
    """Cramér's V association between part brand and part type — the
    categorical dependence screen behind feature selection: exact
    integer chi-square numerators per cell (the q_corr_matrix
    cross-multiplication: (n*o_ij - r_i*c_j)^2 * 1e6 // (n * r_i *
    c_j), each cell's term floor-quantized before the order-free
    sum), then V^2 = chi2 / (n * (min(r,c)-1)) as one more exact
    division.  One bounded fold (|brands| x |types| cells).
    Output (n, n_rows_cat, n_cols_cat, chi2_e6, v2_e6)."""
    ds = _read(sf_dir, "part", columns=["p_brand", "p_type"])

    def part(batch: pa.Table) -> pa.Table:
        br = np.asarray(batch["p_brand"].to_pylist(), dtype=object)
        tp = np.asarray(batch["p_type"].to_pylist(), dtype=object)
        key = np.array([a + "\x00" + b for a, b in zip(br, tp)],
                       dtype=object)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    rows: dict = {}
    cols: dict = {}
    n = 0
    for k, c in acc.items():
        br, tp = k.split("\x00")
        rows[br] = rows.get(br, 0) + c
        cols[tp] = cols.get(tp, 0) + c
        n += c
    chi2 = 0
    for br, r in rows.items():
        for tp, cc in cols.items():
            o = acc.get(br + "\x00" + tp, 0)
            d = n * o - r * cc
            chi2 += (d * d * 10 ** 6) // (n * r * cc)
    mind = min(len(rows), len(cols)) - 1
    v2 = chi2 // (n * mind) if mind > 0 else 0
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "n_rows_cat": pa.array([len(rows)], type=pa.int64()),
        "n_cols_cat": pa.array([len(cols)], type=pa.int64()),
        "chi2_e6": pa.array([chi2], type=pa.int64()),
        "v2_e6": pa.array([v2], type=pa.int64()),
    })


def sql_cramers_v() -> str:
    return """
WITH cvo AS MATERIALIZED (
  SELECT p_brand, p_type, CAST(COUNT(*) AS BIGINT) AS o
  FROM part GROUP BY 1, 2
),
cvr AS MATERIALIZED (
  SELECT p_brand, CAST(SUM(o) AS BIGINT) AS r FROM cvo GROUP BY 1
),
cvcl AS MATERIALIZED (
  SELECT p_type, CAST(SUM(o) AS BIGINT) AS c FROM cvo GROUP BY 1
),
cvn AS MATERIALIZED (
  SELECT CAST(SUM(o) AS BIGINT) AS n FROM cvo
),
cvx AS MATERIALIZED (
  SELECT CAST(SUM(
    (CAST(n.n AS HUGEINT) * COALESCE(o.o, 0) - r.r * c.c)
    * (CAST(n.n AS HUGEINT) * COALESCE(o.o, 0) - r.r * c.c)
    * 1000000 // (CAST(n.n AS HUGEINT) * r.r * c.c)) AS HUGEINT)
    AS chi2
  FROM cvr r CROSS JOIN cvcl c CROSS JOIN cvn n
  LEFT JOIN cvo o ON o.p_brand = r.p_brand AND o.p_type = c.p_type
)
SELECT n.n,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM cvr) AS n_rows_cat,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM cvcl) AS n_cols_cat,
  CAST(x.chi2 AS BIGINT) AS chi2_e6,
  CAST(CASE WHEN least((SELECT COUNT(*) FROM cvr),
      (SELECT COUNT(*) FROM cvcl)) > 1
    THEN x.chi2 // (CAST(n.n AS HUGEINT)
      * (least((SELECT COUNT(*) FROM cvr),
               (SELECT COUNT(*) FROM cvcl)) - 1))
    ELSE 0 END AS BIGINT) AS v2_e6
FROM cvn n CROSS JOIN cvx x
"""


# ---------------------------------------------------------------------------
# Round 4e: upper tail dependence + Engle-Granger residual DW
# ---------------------------------------------------------------------------


def q_tail_dependence(sf_dir: str):
    """Upper tail dependence between the click and purchase daily
    series — do their extreme days coincide?  Thresholds are each
    series' exact p90 order statistic (ceil rank, positive form),
    lambda_U = P(both exceed) / P(one exceeds) reported as exact
    integer counts (n_both, n_a_hi) plus the ratio lambda_e6 =
    n_both * 1e6 // n_a_hi.  Output (n_days, n_a_hi, n_b_hi,
    n_both, lambda_e6)."""
    dc = _daily_cents(sf_dir)
    a, bb = {}, {}
    for k, cents in dc.items():
        tp, d = k.split("\x00")
        if tp == XCORR_A:
            a[int(d)] = cents
        elif tp == XCORR_B:
            bb[int(d)] = cents
    days = sorted(set(a) & set(bb))
    n = len(days)
    if n == 0:
        return pa.table({k: pa.array([0], type=pa.int64())
                         for k in ("n_days", "n_a_hi", "n_b_hi",
                                   "n_both", "lambda_e6")})
    xa = sorted(a[d] for d in days)
    xb = sorted(bb[d] for d in days)
    k90 = (9 * n + 9) // 10   # ceil(0.9 n)
    ta = xa[k90 - 1]
    tb = xb[k90 - 1]
    n_a = sum(1 for d in days if a[d] > ta)
    n_b = sum(1 for d in days if bb[d] > tb)
    n_both = sum(1 for d in days if a[d] > ta and bb[d] > tb)
    lam = n_both * 10 ** 6 // n_a if n_a else 0
    return pa.table({
        "n_days": pa.array([n], type=pa.int64()),
        "n_a_hi": pa.array([n_a], type=pa.int64()),
        "n_b_hi": pa.array([n_b], type=pa.int64()),
        "n_both": pa.array([n_both], type=pa.int64()),
        "lambda_e6": pa.array([lam], type=pa.int64()),
    })


def sql_tail_dependence() -> str:
    return f"""
WITH tdd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
  GROUP BY 1, 2
),
tdp AS MATERIALIZED (
  SELECT a.day, a.x AS xa, b.x AS xb
  FROM tdd a JOIN tdd b ON b.day = a.day
  WHERE a.event_type = '{XCORR_A}' AND b.event_type = '{XCORR_B}'
),
tdn AS MATERIALIZED (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM tdp),
tdta AS MATERIALIZED (
  SELECT xa AS t FROM (
    SELECT xa, row_number() OVER (ORDER BY xa) AS rn FROM tdp) q, tdn
  WHERE rn = (9 * n + 9) // 10
),
tdtb AS MATERIALIZED (
  SELECT xb AS t FROM (
    SELECT xb, row_number() OVER (ORDER BY xb) AS rn FROM tdp) q, tdn
  WHERE rn = (9 * n + 9) // 10
),
tda AS MATERIALIZED (
  SELECT
    CAST(COUNT(*) FILTER (WHERE xa > (SELECT t FROM tdta)) AS BIGINT)
      AS n_a,
    CAST(COUNT(*) FILTER (WHERE xb > (SELECT t FROM tdtb)) AS BIGINT)
      AS n_b,
    CAST(COUNT(*) FILTER (WHERE xa > (SELECT t FROM tdta)
      AND xb > (SELECT t FROM tdtb)) AS BIGINT) AS n_both
  FROM tdp
)
SELECT n.n AS n_days, a.n_a AS n_a_hi, a.n_b AS n_b_hi, a.n_both,
  CAST(CASE WHEN a.n_a > 0 THEN a.n_both * 1000000 // a.n_a
    ELSE 0 END AS BIGINT) AS lambda_e6
FROM tdn n CROSS JOIN tda a
"""


# ---------------------------------------------------------------------------
# Round 4e: transfer entropy + active-day Jaccard
# ---------------------------------------------------------------------------


def q_transfer_entropy(sf_dir: str):
    """Transfer entropy click -> purchase on the binarized (above
    own lower-median) daily series — does knowing yesterday's click
    state improve the purchase forecast beyond its own history?
    TE = sum over (a, b, b') of c(a,b,b') * [lnq(c(a,b,b')
    / c(a,b)) - lnq(c(b,b') / c(b))] with every ln of an integer
    ratio floor-quantized at 1e-12 (scalar libm) and weighted by
    exact integer counts; te_e9 = sum_q // (n * 1000).
    Output (n_transitions, sum_q, te_e9)."""
    import math

    dc = _daily_cents(sf_dir)
    a, bb = {}, {}
    for k, cents in dc.items():
        tp, d = k.split("\x00")
        if tp == XCORR_A:
            a[int(d)] = cents
        elif tp == XCORR_B:
            bb[int(d)] = cents
    days = sorted(set(a) & set(bb))
    if len(days) < 3:
        return pa.table({k: pa.array([0], type=pa.int64())
                         for k in ("n_transitions", "sum_q", "te_e9")})
    ma = sorted(a[d] for d in days)[(len(days) - 1) // 2]
    mb = sorted(bb[d] for d in days)[(len(days) - 1) // 2]
    A = [1 if a[d] > ma else 0 for d in days]
    B = [1 if bb[d] > mb else 0 for d in days]
    c3: dict = {}
    c2ab: dict = {}
    c2bb: dict = {}
    c1b: dict = {}
    for i in range(1, len(days)):
        key3 = (A[i - 1], B[i - 1], B[i])
        c3[key3] = c3.get(key3, 0) + 1
        c2ab[(A[i - 1], B[i - 1])] = c2ab.get((A[i - 1], B[i - 1]), 0) + 1
        c2bb[(B[i - 1], B[i])] = c2bb.get((B[i - 1], B[i]), 0) + 1
        c1b[B[i - 1]] = c1b.get(B[i - 1], 0) + 1
    n = len(days) - 1
    sum_q = 0
    for (av, bv, b2), c in c3.items():
        l1 = math.floor(
            math.log(float(c) / float(c2ab[(av, bv)])) * 1e12)
        l2 = math.floor(
            math.log(float(c2bb[(bv, b2)]) / float(c1b[bv])) * 1e12)
        sum_q += c * (l1 - l2)
    return pa.table({
        "n_transitions": pa.array([n], type=pa.int64()),
        "sum_q": pa.array([sum_q], type=pa.int64()),
        "te_e9": pa.array([sum_q // (n * 1000)], type=pa.int64()),
    })


def sql_transfer_entropy() -> str:
    return f"""
WITH ted AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
  GROUP BY 1, 2
),
tep AS MATERIALIZED (
  SELECT a.day, a.x AS xa, b.x AS xb
  FROM ted a JOIN ted b ON b.day = a.day
  WHERE a.event_type = '{XCORR_A}' AND b.event_type = '{XCORR_B}'
),
tema AS MATERIALIZED (
  SELECT xa AS m FROM (
    SELECT xa, row_number() OVER (ORDER BY xa) AS rn,
      COUNT(*) OVER () AS n FROM tep) q
  WHERE rn = (n + 1) // 2
),
temb AS MATERIALIZED (
  SELECT xb AS m FROM (
    SELECT xb, row_number() OVER (ORDER BY xb) AS rn,
      COUNT(*) OVER () AS n FROM tep) q
  WHERE rn = (n + 1) // 2
),
teb AS MATERIALIZED (
  SELECT day,
    CASE WHEN xa > (SELECT m FROM tema) THEN 1 ELSE 0 END AS av,
    CASE WHEN xb > (SELECT m FROM temb) THEN 1 ELSE 0 END AS bv
  FROM tep
),
tet AS MATERIALIZED (
  SELECT lag(av) OVER w AS ap, lag(bv) OVER w AS bp, bv AS b2
  FROM teb WINDOW w AS (ORDER BY day)
),
tetr AS MATERIALIZED (
  SELECT ap, bp, b2 FROM tet WHERE ap IS NOT NULL
),
tc3 AS MATERIALIZED (
  SELECT ap, bp, b2, CAST(COUNT(*) AS BIGINT) AS c
  FROM tetr GROUP BY 1, 2, 3
),
tc2ab AS MATERIALIZED (
  SELECT ap, bp, CAST(SUM(c) AS BIGINT) AS c FROM tc3 GROUP BY 1, 2
),
tc2bb AS MATERIALIZED (
  SELECT bp, b2, CAST(SUM(c) AS BIGINT) AS c FROM tc3 GROUP BY 1, 2
),
tc1b AS MATERIALIZED (
  SELECT bp, CAST(SUM(c) AS BIGINT) AS c FROM tc3 GROUP BY 1
),
tes AS MATERIALIZED (
  SELECT CAST(SUM(CAST(t.c AS HUGEINT)
    * (CAST(floor(ln(CAST(t.c AS DOUBLE) / CAST(ab.c AS DOUBLE))
        * 1000000000000.0) AS HUGEINT)
      - CAST(floor(ln(CAST(bb2.c AS DOUBLE) / CAST(b1.c AS DOUBLE))
        * 1000000000000.0) AS HUGEINT))) AS HUGEINT) AS sum_q,
    CAST(SUM(t.c) AS BIGINT) AS n
  FROM tc3 t
  JOIN tc2ab ab ON ab.ap = t.ap AND ab.bp = t.bp
  JOIN tc2bb bb2 ON bb2.bp = t.bp AND bb2.b2 = t.b2
  JOIN tc1b b1 ON b1.bp = t.bp
)
SELECT n AS n_transitions, CAST(sum_q AS BIGINT) AS sum_q,
  CAST(CASE WHEN sum_q >= 0 THEN sum_q // (n * 1000)
    ELSE -((-sum_q) // (n * 1000))
      - CASE WHEN (-sum_q) % (n * 1000) > 0 THEN 1 ELSE 0 END
    END AS BIGINT) AS te_e9
FROM tes
"""


def q_active_day_jaccard(sf_dir: str):
    """Active-day Jaccard between every pair of event types — which
    behaviours co-occur in time at all: a type is 'active' on a day
    when its revenue exceeds its own lower-median day; jac_e6 =
    |A∩B| * 1e6 // |A∪B|, exact integers from the shared daily
    fold.  Output (type_a, type_b, n_inter, n_union, jac_e6)."""
    dc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in dc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, {})[int(d)] = cents
    types = sorted(series)
    active: dict = {}
    for tp in types:
        vals = series[tp]
        med = sorted(vals.values())[(len(vals) - 1) // 2]
        active[tp] = {d for d, v in vals.items() if v > med}
    out = {c: [] for c in
           ("type_a", "type_b", "n_inter", "n_union", "jac_e6")}
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            A, B = active[types[i]], active[types[j]]
            inter = len(A & B)
            union = len(A | B)
            out["type_a"].append(types[i])
            out["type_b"].append(types[j])
            out["n_inter"].append(inter)
            out["n_union"].append(union)
            out["jac_e6"].append(
                inter * 10 ** 6 // union if union else 0)
    return pa.table({
        "type_a": pa.array(out["type_a"], type=pa.string()),
        "type_b": pa.array(out["type_b"], type=pa.string()),
        "n_inter": pa.array(out["n_inter"], type=pa.int64()),
        "n_union": pa.array(out["n_union"], type=pa.int64()),
        "jac_e6": pa.array(out["jac_e6"], type=pa.int64()),
    })


def sql_active_day_jaccard() -> str:
    return """
WITH ajd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
ajm AS MATERIALIZED (
  SELECT event_type, x AS med FROM (
    SELECT event_type, x,
      row_number() OVER (PARTITION BY event_type ORDER BY x) AS rn,
      COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM ajd) t
  WHERE rn = (n + 1) // 2
),
aja AS MATERIALIZED (
  SELECT d.event_type, d.day
  FROM ajd d JOIN ajm m ON m.event_type = d.event_type
  WHERE d.x > m.med
),
ajp AS MATERIALIZED (
  SELECT a.event_type AS ta, b.event_type AS tb,
    CAST(COUNT(*) AS BIGINT) AS n_inter
  FROM aja a JOIN aja b ON b.day = a.day AND b.event_type > a.event_type
  GROUP BY 1, 2
),
ajc AS MATERIALIZED (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_act FROM aja
  GROUP BY 1
)
SELECT x.ta AS type_a, x.tb AS type_b,
  CAST(COALESCE(p.n_inter, 0) AS BIGINT) AS n_inter,
  CAST(ca.n_act + cb.n_act - COALESCE(p.n_inter, 0) AS BIGINT)
    AS n_union,
  CAST(CASE WHEN ca.n_act + cb.n_act - COALESCE(p.n_inter, 0) > 0
    THEN COALESCE(p.n_inter, 0) * 1000000
      // (ca.n_act + cb.n_act - COALESCE(p.n_inter, 0))
    ELSE 0 END AS BIGINT) AS jac_e6
FROM (SELECT a.event_type AS ta, b.event_type AS tb
      FROM ajc a JOIN ajc b ON b.event_type > a.event_type) x
LEFT JOIN ajp p ON p.ta = x.ta AND p.tb = x.tb
JOIN ajc ca ON ca.event_type = x.ta
JOIN ajc cb ON cb.event_type = x.tb
"""


# ---------------------------------------------------------------------------
# Round 4e: box-counting dimension + max drawdown + contour crossings
# ---------------------------------------------------------------------------


def q_box_dimension(sf_dir: str):
    """Box-counting fractal dimension of the event point set — how
    space-filling the activity is (2 = dense sheet, ~1 = filament):
    occupied-cell counts N_k at resolutions 1..4 from ONE indexing
    pass, then the regression slope of ln N_k on k*ln 3 over the
    four quantized points (micro-nat integers, the zipf_slope bignum
    pattern; box size shrinks 3x per res so the slope IS the
    dimension estimate — halved because rHEALPix cells shrink 3x in
    EACH axis per res... the pinned statistic is the slope itself).
    Output (n_levels, slope_e6)."""
    import math

    from rhealpixdggs_py_ray.core import index as cidx

    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        outs_k, outs_c = [], []
        for res in (1, 2, 3, 4):
            u = cidx.cell_from_point(CFG, res, lon, lat, plane=False)
            cu = np.unique(u)
            outs_k.append(np.full(len(cu), res, dtype=np.int64))
            outs_c.append(cu.astype(np.int64))
        return pa.table({
            "res": pa.array(np.concatenate(outs_k)),
            "cell": pa.array(np.concatenate(outs_c)),
        })

    occ: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for r, c in zip(b["res"].to_pylist(), b["cell"].to_pylist()):
            occ.setdefault(r, set()).add(c)
    pts = []
    for res in (1, 2, 3, 4):
        nk = len(occ.get(res, ()))
        if nk > 0:
            x = math.floor(float(res) * math.log(3.0) * 1e6)
            y = math.floor(math.log(float(nk)) * 1e6)
            pts.append((x, y))
    k = len(pts)
    sx = sum(x for x, _y in pts)
    sy = sum(y for _x, y in pts)
    sxx = sum(x * x for x, _y in pts)
    sxy = sum(x * y for x, y in pts)
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    if den > 0:
        q = (abs(num) * 10 ** 6) // den
        slope = q if num >= 0 else -q
    else:
        slope = 0
    return pa.table({
        "n_levels": pa.array([k], type=pa.int64()),
        "slope_e6": pa.array([slope], type=pa.int64()),
    })


def sql_box_dimension() -> str:
    selects = []
    for res in (1, 2, 3, 4):
        inner = oracle.cell_from_point_sql(
            _points_sql("events", "event_id"), res, CFG,
            id_cols=("event_id",))
        selects.append(
            f"SELECT {res} AS res,"
            f" CAST(COUNT(DISTINCT cell_id) AS BIGINT) AS nk"
            f" FROM {inner} t")
    u = " UNION ALL ".join(selects)
    ln3 = "ln(CAST(3 AS DOUBLE))"
    return f"""
WITH bdo AS MATERIALIZED ({u}),
bdq AS MATERIALIZED (
  SELECT
    CAST(floor(CAST(res AS DOUBLE) * {ln3} * 1000000.0) AS HUGEINT)
      AS x,
    CAST(floor(ln(CAST(nk AS DOUBLE)) * 1000000.0) AS HUGEINT) AS y
  FROM bdo WHERE nk > 0
),
bda AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k, SUM(x) AS sx, SUM(y) AS sy,
    SUM(x * x) AS sxx, SUM(x * y) AS sxy
  FROM bdq
)
SELECT CAST(k AS BIGINT) AS n_levels,
  CAST(CASE WHEN k * sxx - sx * sx <= 0 THEN 0
    WHEN k * sxy - sx * sy >= 0
    THEN abs(k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx)
    ELSE -(abs(k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx))
    END AS BIGINT) AS slope_e6
FROM bda
"""


# ---------------------------------------------------------------------------
# Round 4e: Jensen-Shannon tile drift + events-to-convert funnel depth
# ---------------------------------------------------------------------------


def q_tile_jsd(sf_dir: str):
    """Jensen-Shannon divergence between the arms' res-2 tile
    distributions — the symmetric, bounded spatial-drift readout:
    with per-tile counts a_t, b_t and the 2x-scaled mixture
    m_t = a_t*nB + b_t*nA (cross-multiplied so all three
    distributions share exact integer forms), each ln of a rational
    floor-quantizes at 1e-12 and the two KL halves are integer
    weighted sums.  jsd_e9 = (sum_qA // (2*nA*1000)) + (sum_qB //
    (2*nB*1000)) with the floor mirror.  One bounded fold
    (486 x 2 keys).  Output (n_a, n_b, n_tiles, jsd_e9)."""
    import math

    from rhealpixdggs_py_ray.core import index as cidx

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"],
               blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = su.to_string_fixed(u, TILE_RES).to_pylist()
        arm = (uid % 2).astype(np.int64)
        key = np.array([f"{t}\x00{a}" for t, a in zip(tile, arm)],
                       dtype=object)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    tiles = sorted({k.split("\x00")[0] for k in acc})
    A = {t: acc.get(t + "\x000", 0) for t in tiles}
    B = {t: acc.get(t + "\x001", 0) for t in tiles}
    nA, nB = sum(A.values()), sum(B.values())
    sum_qA = 0
    sum_qB = 0
    for t in tiles:
        a, b2 = A[t], B[t]
        m = a * nB + b2 * nA     # mixture numerator (over 2 nA nB)
        if a > 0:
            # ln(pA/pM) = ln(2 a nB / m)
            sum_qA += a * math.floor(
                math.log(2.0 * float(a) * float(nB) / float(m)) * 1e12)
        if b2 > 0:
            sum_qB += b2 * math.floor(
                math.log(2.0 * float(b2) * float(nA) / float(m)) * 1e12)

    def fdiv(x: int, d: int) -> int:
        return x // d   # python floor; SQL mirrors with the CASE form

    jsd = fdiv(sum_qA, 2 * nA * 1000) + fdiv(sum_qB, 2 * nB * 1000)
    return pa.table({
        "n_a": pa.array([nA], type=pa.int64()),
        "n_b": pa.array([nB], type=pa.int64()),
        "n_tiles": pa.array([len(tiles)], type=pa.int64()),
        "jsd_e9": pa.array([jsd], type=pa.int64()),
    })


def sql_tile_jsd() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",)
    )

    def fmirror(x: str, d: str) -> str:
        return (f"CASE WHEN {x} >= 0 THEN {x} // ({d})"
                f" ELSE -((-({x})) // ({d}))"
                f" - CASE WHEN (-({x})) % ({d}) > 0 THEN 1 ELSE 0 END END")

    return f"""
WITH jsi AS MATERIALIZED (
  SELECT t.cell_id AS tile, e.user_id % 2 AS arm
  FROM {inner} t JOIN events e ON e.event_id = t.event_id
),
jsc AS MATERIALIZED (
  SELECT tile,
    CAST(COALESCE(SUM(CASE WHEN arm = 0 THEN 1 END), 0) AS BIGINT) AS a,
    CAST(COALESCE(SUM(CASE WHEN arm = 1 THEN 1 END), 0) AS BIGINT) AS b
  FROM jsi GROUP BY tile
),
jsn AS MATERIALIZED (
  SELECT CAST(SUM(a) AS BIGINT) AS na, CAST(SUM(b) AS BIGINT) AS nb
  FROM jsc
),
jsq AS MATERIALIZED (
  SELECT
    CAST(SUM(CASE WHEN c.a > 0 THEN CAST(c.a AS HUGEINT)
      * CAST(floor(ln(2.0 * CAST(c.a AS DOUBLE) * CAST(n.nb AS DOUBLE)
          / CAST(c.a * n.nb + c.b * n.na AS DOUBLE))
          * 1000000000000.0) AS HUGEINT) ELSE 0 END) AS HUGEINT)
      AS sum_qa,
    CAST(SUM(CASE WHEN c.b > 0 THEN CAST(c.b AS HUGEINT)
      * CAST(floor(ln(2.0 * CAST(c.b AS DOUBLE) * CAST(n.na AS DOUBLE)
          / CAST(c.a * n.nb + c.b * n.na AS DOUBLE))
          * 1000000000000.0) AS HUGEINT) ELSE 0 END) AS HUGEINT)
      AS sum_qb,
    CAST(COUNT(*) AS BIGINT) AS n_tiles
  FROM jsc c CROSS JOIN jsn n
)
SELECT n.na AS n_a, n.nb AS n_b, q.n_tiles,
  CAST(({fmirror('q.sum_qa', '2 * n.na * 1000')})
    + ({fmirror('q.sum_qb', '2 * n.nb * 1000')}) AS BIGINT) AS jsd_e9
FROM jsn n CROSS JOIN jsq q
"""


# ---------------------------------------------------------------------------
# Round 4e: channel-ratio index + DAU/WAU stickiness
# ---------------------------------------------------------------------------


def q_channel_ratio(sf_dir: str):
    """Normalized channel-difference index per image (the NDVI shape
    on RGB payloads): with exact per-channel pixel sums s0, s2,
    ratio_e6 = (s2 - s0) * 1e6 // (s2 + s0) sign-split — an honest
    band-math op over the REAL bytes, 3 ints per image out of the
    actor pool.  Output (idx, s0, s2, ratio_e6)."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    class Ratio:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["image_id"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            idx, s0s, s2s, rq = [], [], [], []
            for iid, data, fmt, w, h in zip(ids, blobs, fmts, ws, hs):
                pix = decode_image(data, fmt, int(w), int(h)).astype(
                    np.int64)
                s0 = int(pix[:, :, 0].sum())
                s2 = int(pix[:, :, 2].sum())
                num = s2 - s0
                den = s2 + s0
                q = (abs(num) * 10 ** 6) // den if den else 0
                idx.append(int(iid[3:]))
                s0s.append(s0)
                s2s.append(s2)
                rq.append(q if num >= 0 else -q)
            return pa.table({
                "idx": pa.array(np.array(idx, dtype=np.int64)),
                "s0": pa.array(np.array(s0s, dtype=np.int64)),
                "s2": pa.array(np.array(s2s, dtype=np.int64)),
                "ratio_e6": pa.array(np.array(rq, dtype=np.int64)),
            })

    return ds.map_batches(
        Ratio, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_channel_ratio() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"

    def val(cc: int) -> str:
        return (f"((x * 3 + y * 5 + {cc} * 7"
                f" + CAST((u >> {8 * cc}) & 255 AS BIGINT)) % 256)")

    return f"""
WITH crsrc AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u
  FROM (SELECT image_id, w, h, {u} AS u
        FROM read_parquet('{IMG_DIR}/*.parquet')) q
),
crs AS MATERIALIZED (
  SELECT idx,
    CAST(SUM({val(0)}) AS BIGINT) AS s0,
    CAST(SUM({val(2)}) AS BIGINT) AS s2
  FROM crsrc,
    unnest(generate_series(0, w - 1)) AS tx(x),
    unnest(generate_series(0, h - 1)) AS ty(y)
  GROUP BY idx
)
SELECT idx, s0, s2,
  CAST(CASE WHEN s2 + s0 = 0 THEN 0
    WHEN s2 - s0 >= 0 THEN abs(s2 - s0) * 1000000 // (s2 + s0)
    ELSE -(abs(s2 - s0) * 1000000 // (s2 + s0)) END AS BIGINT)
    AS ratio_e6
FROM crs
"""


def q_mde_estimate(sf_dir: str):
    """A/B power analysis — the minimum detectable absolute lift in
    conversion rate at alpha = 0.05, power = 0.80, given the
    OBSERVED arm sizes and pooled conversion: mde = (z_a + z_b) *
    sqrt(p(1-p)(1/nA + 1/nB)), one float tree over exact integer
    counts (constants repr-crossed).  Conversion = event_type ==
    'purchase'.  Output (n_a, n_b, conv, mde_e6)."""
    import math

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"],
               blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        conv = (np.asarray(batch["event_type"].to_pylist(), dtype=object)
                == "purchase").astype(np.int64)
        arm = (uid % 2).astype(np.int64)
        n = np.bincount(arm, minlength=2).astype(np.int64)
        c = np.zeros(2, dtype=np.int64)
        np.add.at(c, arm, conv)
        return pa.table({"arm": pa.array(np.arange(2, dtype=np.int64)),
                         "n": pa.array(n), "c": pa.array(c)})

    N = [0, 0]
    C = [0, 0]
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for a, n, c in zip(b["arm"].to_pylist(), b["n"].to_pylist(),
                           b["c"].to_pylist()):
            N[a] += int(n)
            C[a] += int(c)
    conv = C[0] + C[1]
    tot = N[0] + N[1]
    p = float(conv) / float(tot)
    mde = ((MDE_Z_ALPHA + MDE_Z_BETA)
           * math.sqrt(p * (1.0 - p)
                       * (1.0 / float(N[0]) + 1.0 / float(N[1]))))
    return pa.table({
        "n_a": pa.array([N[0]], type=pa.int64()),
        "n_b": pa.array([N[1]], type=pa.int64()),
        "conv": pa.array([conv], type=pa.int64()),
        "mde_e6": pa.array([math.floor(mde * 1e6)], type=pa.int64()),
    })


def sql_mde_estimate() -> str:
    za = oracle._lit(MDE_Z_ALPHA)
    zb = oracle._lit(MDE_Z_BETA)
    return f"""
WITH mda AS MATERIALIZED (
  SELECT
    CAST(COUNT(*) FILTER (WHERE user_id % 2 = 0) AS BIGINT) AS na,
    CAST(COUNT(*) FILTER (WHERE user_id % 2 = 1) AS BIGINT) AS nb,
    CAST(COUNT(*) FILTER (WHERE event_type = 'purchase') AS BIGINT)
      AS conv,
    CAST(COUNT(*) AS BIGINT) AS tot
  FROM events
)
SELECT na AS n_a, nb AS n_b, conv,
  CAST(floor(({za} + {zb})
    * sqrt((CAST(conv AS DOUBLE) / CAST(tot AS DOUBLE))
      * (1.0 - CAST(conv AS DOUBLE) / CAST(tot AS DOUBLE))
      * (1.0 / CAST(na AS DOUBLE) + 1.0 / CAST(nb AS DOUBLE)))
    * 1000000.0) AS BIGINT) AS mde_e6
FROM mda
"""


def q_reorder_gaps(sf_dir: str):
    """Customer reorder-interval quartiles — the repeat-purchase
    cadence: per customer, day gaps between consecutive orders (by
    o_orderdate, ties by o_orderkey); pooled gaps report exact lower
    quartiles.  One h(custkey) bucket exchange.
    Output (n_gaps, q1_days, median_days, q3_days)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_orderdate"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        day = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ck, n_buckets)),
            "ck": pa.array(ck.astype(np.int64)),
            "ok": pa.array(ok.astype(np.int64)),
            "day": pa.array(day),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "ck" not in g.column_names:
            return pa.table({"gap": pa.array([], type=pa.int64())})
        ck = g["ck"].to_numpy(zero_copy_only=False)
        ok = g["ok"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, day, ck))
        ck, day = ck[order], day[order]
        same = ck[1:] == ck[:-1]
        gap = (day[1:] - day[:-1])[same]
        return pa.table({"gap": pa.array(gap)})

    gaps = []
    for b in (ds.map_batches(tag, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("bucket")
              .map_groups(per_bucket, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows and "gap" in b.column_names:
            gaps.extend(b["gap"].to_pylist())
    gaps.sort()
    n = len(gaps)

    def qtl(k: int) -> int:
        r = min(max((k * (n + 1) + 3) // 4, 1), n)
        return gaps[r - 1]

    return pa.table({
        "n_gaps": pa.array([n], type=pa.int64()),
        "q1_days": pa.array([qtl(1)], type=pa.int64()),
        "median_days": pa.array([qtl(2)], type=pa.int64()),
        "q3_days": pa.array([qtl(3)], type=pa.int64()),
    })


def sql_reorder_gaps() -> str:
    return """
WITH rgo AS MATERIALIZED (
  SELECT o_custkey,
    CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day,
    CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT)
      - lag(CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT))
        OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
      AS gap
  FROM orders
),
rgg AS MATERIALIZED (
  SELECT gap, row_number() OVER (ORDER BY gap) AS rn,
    COUNT(*) OVER () AS n
  FROM rgo WHERE gap IS NOT NULL
)
SELECT CAST(MAX(n) AS BIGINT) AS n_gaps,
  CAST(MAX(CASE WHEN rn = least(greatest((1 * (n + 1) + 3) // 4, 1), n)
    THEN gap END) AS BIGINT) AS q1_days,
  CAST(MAX(CASE WHEN rn = least(greatest((2 * (n + 1) + 3) // 4, 1), n)
    THEN gap END) AS BIGINT) AS median_days,
  CAST(MAX(CASE WHEN rn = least(greatest((3 * (n + 1) + 3) // 4, 1), n)
    THEN gap END) AS BIGINT) AS q3_days
FROM rgg
"""


def q_ship_lag(sf_dir: str):
    """Order-to-ship lag quartiles per order priority — the
    operations SLA readout: lag days = l_shipdate - o_orderdate via
    the lineitem ⋈ orders join (bucketed by orderkey, the
    priority_revenue shape), exact lower quartiles per priority.
    Output (priority, n, q1_days, median_days, q3_days)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    nb = 8
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_shipdate"], blocks=4)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate",
                            "o_orderpriority"], blocks=4)

    def li_rows(batch: pa.Table) -> pa.Table:
        okk = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        day = (batch["l_shipdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(okk, nb)),
            "key": pa.array(okk.astype(np.int64)),
            "day": pa.array(day),
            "pri": pa.array([""] * len(okk), type=pa.string()),
            "side": pa.array(np.zeros(len(okk), dtype=np.int64)),
        })

    def o_rows(batch: pa.Table) -> pa.Table:
        okk = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        day = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(okk, nb)),
            "key": pa.array(okk.astype(np.int64)),
            "day": pa.array(day),
            "pri": batch["o_orderpriority"],
            "side": pa.array(np.ones(len(okk), dtype=np.int64)),
        })

    u = li.map_batches(li_rows, batch_format="pyarrow",
                       zero_copy_batch=True).union(
        orders.map_batches(o_rows, batch_format="pyarrow",
                           zero_copy_batch=True))

    def resolve(g: pa.Table) -> pa.Table:
        empty = pa.table({"pri": pa.array([], type=pa.string()),
                          "lag": pa.array([], type=pa.int64()),
                          "cnt": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "key" not in g.column_names:
            return empty
        key = g["key"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        pri = np.asarray(g["pri"].to_pylist(), dtype=object)
        om = side == 1
        lm = side == 0
        ks = key[lm]
        ds_ = day[lm]
        if not om.any() or not lm.any():
            return empty
        # vectorized order lookup (order keys unique per bucket):
        # searchsorted membership + fancy-index the day/pri arrays
        order = np.argsort(key[om])
        o_keys = key[om][order]
        o_day = day[om][order]
        o_pri = pri[om][order]
        pos = np.searchsorted(o_keys, ks)
        pos_c = np.minimum(pos, len(o_keys) - 1)
        ok2 = o_keys[pos_c] == ks
        lag = (ds_[ok2] - o_day[pos_c[ok2]]).astype(np.int64)
        pr = o_pri[pos_c[ok2]]
        # histogram partials: lag-days span ~0..130, so (pri, lag, n)
        # rows are bounded by #priorities x #lag values — the driver
        # combines tiny histograms instead of looping per pair row
        pu, pinv = np.unique(pr.astype(str), return_inverse=True)
        if not (len(lag) == 0 or (np.abs(lag) < 500_000).all()):
            raise AssertionError("ship_lag packing bound (|lag| < 500000 days)")
        comb = pinv.astype(np.int64) * 1_000_000 + (lag + 500_000)
        uq, cnt = np.unique(comb, return_counts=True)
        return pa.table({
            "pri": pa.array(pu[(uq // 1_000_000)], type=pa.string()),
            "lag": pa.array(uq % 1_000_000 - 500_000),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    hist: dict = {}
    for b in (u.groupby("bucket")
              .map_groups(resolve, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows == 0 or "pri" not in b.column_names:
            continue
        for p, l, c in zip(b["pri"].to_pylist(), b["lag"].to_pylist(),
                           b["cnt"].to_pylist()):
            hist[(p, int(l))] = hist.get((p, int(l)), 0) + int(c)
    out = {c: [] for c in ("priority", "n", "q1_days", "median_days",
                           "q3_days")}
    for p in sorted({k[0] for k in hist}):
        lags = np.array(sorted(l for (pp, l) in hist if pp == p),
                        dtype=np.int64)
        cts = np.array([hist[(p, int(l))] for l in lags], dtype=np.int64)
        csum = np.cumsum(cts)
        n = int(csum[-1])

        def qtl(k: int) -> int:
            r = min(max((k * (n + 1) + 3) // 4, 1), n)
            return int(lags[np.searchsorted(csum, r)])

        out["priority"].append(p)
        out["n"].append(n)
        out["q1_days"].append(qtl(1))
        out["median_days"].append(qtl(2))
        out["q3_days"].append(qtl(3))
    return pa.table({
        "priority": pa.array(out["priority"], type=pa.string()),
        **{k: pa.array(out[k], type=pa.int64())
           for k in ("n", "q1_days", "median_days", "q3_days")},
    })


def sql_ship_lag() -> str:
    return """
WITH sll AS MATERIALIZED (
  SELECT o.o_orderpriority AS priority,
    CAST(epoch_us(l.l_shipdate) // 86400000000
      - epoch_us(o.o_orderdate) // 86400000000 AS BIGINT) AS lag
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
),
slr AS MATERIALIZED (
  SELECT priority, lag,
    row_number() OVER (PARTITION BY priority ORDER BY lag) AS rn,
    COUNT(*) OVER (PARTITION BY priority) AS n
  FROM sll
)
SELECT priority, CAST(MAX(n) AS BIGINT) AS n,
  CAST(MAX(CASE WHEN rn = least(greatest((1 * (n + 1) + 3) // 4, 1), n)
    THEN lag END) AS BIGINT) AS q1_days,
  CAST(MAX(CASE WHEN rn = least(greatest((2 * (n + 1) + 3) // 4, 1), n)
    THEN lag END) AS BIGINT) AS median_days,
  CAST(MAX(CASE WHEN rn = least(greatest((3 * (n + 1) + 3) // 4, 1), n)
    THEN lag END) AS BIGINT) AS q3_days
FROM slr GROUP BY priority
"""


# ---------------------------------------------------------------------------
# Round 4e: ABC classification + new-vs-returning + brand HHI
# ---------------------------------------------------------------------------


def q_abc_analysis(sf_dir: str):
    """ABC inventory classification of parts by lineitem revenue —
    the Pareto workhorse: parts sorted by revenue desc (ties to the
    smaller partkey), class A = first parts reaching 80% of total
    revenue (integer rule 5*cum >= 4*total), B to 95% (20*cum >=
    19*total), C the rest.  Per class: part count and revenue cents.
    One u64 fold; the ranking is a bounded driver sort (part
    dimension).  Output (cls, n_parts, revenue_cents)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        e = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uq, inv = np.unique(pk, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, e)
        return pa.table({
            "key": pa.array(uq.astype(np.uint64), type=pa.uint64()),
            "v": pa.array(s),
        })

    keys, rev = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "v")
    ranked = sorted(zip(keys.tolist(), rev.tolist()),
                    key=lambda kv: (-kv[1], kv[0]))
    total = sum(v for _k, v in ranked)
    cls_n = {"A": 0, "B": 0, "C": 0}
    cls_r = {"A": 0, "B": 0, "C": 0}
    cum = 0
    reached_a = False
    reached_b = False
    for _k, v in ranked:
        cum += v
        if not reached_a:
            c = "A"
            if 5 * cum >= 4 * total:
                reached_a = True
        elif not reached_b:
            c = "B"
            if 20 * cum >= 19 * total:
                reached_b = True
        else:
            c = "C"
        cls_n[c] += 1
        cls_r[c] += v
    return pa.table({
        "cls": pa.array(["A", "B", "C"], type=pa.string()),
        "n_parts": pa.array([cls_n[c] for c in "ABC"], type=pa.int64()),
        "revenue_cents": pa.array([cls_r[c] for c in "ABC"],
                                  type=pa.int64()),
    })


def sql_abc_analysis() -> str:
    return """
WITH abr AS MATERIALIZED (
  SELECT l_partkey,
    CAST(SUM(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
      AS v
  FROM lineitem GROUP BY 1
),
abk AS MATERIALIZED (
  SELECT l_partkey, v,
    SUM(v) OVER (ORDER BY v DESC, l_partkey ASC
                 ROWS UNBOUNDED PRECEDING) AS cum,
    SUM(v) OVER () AS total,
    SUM(v) OVER (ORDER BY v DESC, l_partkey ASC
                 ROWS UNBOUNDED PRECEDING) - v AS cum_prev
  FROM abr
),
abc AS MATERIALIZED (
  -- class decided by whether the PREVIOUS row already crossed the
  -- threshold (mirrors the engine's reached flags)
  SELECT v,
    CASE WHEN NOT (5 * cum_prev >= 4 * total) THEN 'A'
         WHEN NOT (20 * cum_prev >= 19 * total) THEN 'B'
         ELSE 'C' END AS cls
  FROM abk
)
SELECT c.cls, CAST(COALESCE(a.n, 0) AS BIGINT) AS n_parts,
  CAST(COALESCE(a.r, 0) AS BIGINT) AS revenue_cents
FROM (SELECT unnest(['A', 'B', 'C']) AS cls) c
LEFT JOIN (SELECT cls, COUNT(*) AS n, SUM(v) AS r FROM abc
           GROUP BY cls) a ON a.cls = c.cls
"""


def q_new_vs_returning(sf_dir: str):
    """New-vs-returning user split per day — the growth-vs-retention
    pulse: a user's first-seen day marks them 'new' that day and
    'returning' on later active days.  Exact distinct (user, day)
    fold, then a bounded resolve.  Output (day, n_new,
    n_returning)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        if not uid.max(initial=0) < (1 << 32):
            raise AssertionError("new_vs_returning packing needs user_id < 2^32")
        key = (day.astype(np.uint64) << np.uint64(32)) | uid.astype(
            np.uint64)
        uq = np.unique(key)
        return pa.table({
            "key": pa.array(uq, type=pa.uint64()),
            "one": pa.array(np.ones(len(uq), dtype=np.int64)),
        })

    key, _ = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    # keys ascend by (day, user): a user's first row is its first day
    uid = key & np.uint64((1 << 32) - 1)
    is_new = np.zeros(len(key), dtype=bool)
    is_new[np.unique(uid, return_index=True)[1]] = True
    days, inv = np.unique((key >> np.uint64(32)).astype(np.int64),
                          return_inverse=True)
    n_all = np.bincount(inv, minlength=len(days))
    n_new = np.bincount(inv[is_new], minlength=len(days))
    return pa.table({
        "day": pa.array(days),
        "n_new": pa.array(n_new.astype(np.int64)),
        "n_returning": pa.array((n_all - n_new).astype(np.int64)),
    })


def sql_new_vs_returning() -> str:
    return """
WITH nrd AS MATERIALIZED (
  SELECT DISTINCT user_id,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
  FROM events
),
nrf AS MATERIALIZED (
  SELECT user_id, CAST(MIN(day) AS BIGINT) AS first_day
  FROM nrd GROUP BY 1
)
SELECT d.day,
  CAST(COUNT(*) FILTER (WHERE d.day = f.first_day) AS BIGINT) AS n_new,
  CAST(COUNT(*) FILTER (WHERE d.day > f.first_day) AS BIGINT)
    AS n_returning
FROM nrd d JOIN nrf f ON f.user_id = d.user_id
GROUP BY d.day
"""


def q_brand_hhi(sf_dir: str):
    """Herfindahl-Hirschman concentration of brand revenue — the
    market-structure summary: hhi_e6 = sum_b (r_b)^2 * 1e6 //
    total^2 exactly (bignum == HUGEINT).  lineitem ⋈ part rides the
    bucketed join; the brand fold is bounded.
    Output (n_brands, total_cents, hhi_e6)."""
    nb = 8
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice"], blocks=4)
    part_t = _read(sf_dir, "part", columns=["p_partkey", "p_brand"])
    brand: dict = {}
    for b in part_t.iter_batches(batch_format="pyarrow"):
        for k, br in zip(b["p_partkey"].to_pylist(),
                         b["p_brand"].to_pylist()):
            brand[int(k)] = br
    import ray as _ray
    brand_ref = _ray.put(brand)

    def part(batch: pa.Table) -> pa.Table:
        bm = _ray.get(brand_ref)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        e = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        br = np.asarray([bm[int(k)] for k in pk], dtype=object)
        uq, inv = np.unique(br, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, e)
        return pa.table({"brand": pa.array(list(uq), type=pa.string()),
                         "s": pa.array(s)})

    acc: dict = {}
    for b in li.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for br, s in zip(b["brand"].to_pylist(), b["s"].to_pylist()):
            acc[br] = acc.get(br, 0) + int(s)
    total = sum(acc.values())
    hhi = sum(v * v for v in acc.values()) * 10 ** 6 // (total * total) \
        if total else 0
    return pa.table({
        "n_brands": pa.array([len(acc)], type=pa.int64()),
        "total_cents": pa.array([total], type=pa.int64()),
        "hhi_e6": pa.array([hhi], type=pa.int64()),
    })


def sql_brand_hhi() -> str:
    return """
WITH bhr AS MATERIALIZED (
  SELECT p.p_brand,
    CAST(SUM(CAST(floor(l.l_extendedprice * 100) AS BIGINT)) AS HUGEINT)
      AS r
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1
),
bht AS MATERIALIZED (
  SELECT CAST(SUM(r) AS HUGEINT) AS total,
    CAST(COUNT(*) AS BIGINT) AS nb
  FROM bhr
)
SELECT t.nb AS n_brands, CAST(t.total AS BIGINT) AS total_cents,
  CAST((SELECT SUM(r * r) FROM bhr) * 1000000 // (t.total * t.total)
    AS BIGINT) AS hhi_e6
FROM bht t
"""


# ---------------------------------------------------------------------------
# Round 4e: repeat-spend correlation + zero-support (bridge-risk) edges
# ---------------------------------------------------------------------------


def q_repeat_spend_corr(sf_dir: str):
    """Do big orders predict the next order's size?  Correlation of
    consecutive order totals within customer (pooled lag-1 pairs,
    ordered by o_orderdate then o_orderkey): the exact bignum
    corr^2 + sign over integer cents (the q_corr_matrix resolve).
    One h(custkey) bucket exchange.
    Output (n_pairs, sign_num, r2_e6)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_orderdate",
                        "o_totalprice"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        okk = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        day = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        c = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ck, n_buckets)),
            "ck": pa.array(ck.astype(np.int64)),
            "ok": pa.array(okk.astype(np.int64)),
            "day": pa.array(day),
            "c": pa.array(c),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "ck" not in g.column_names:
            return pa.table({k: pa.array([], type=pa.int64())
                             for k in ("n", "sx", "sy", "sxx", "syy",
                                       "sxy")})
        ck = g["ck"].to_numpy(zero_copy_only=False)
        okk = g["ok"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((okk, day, ck))
        ck, c = ck[order], c[order]
        same = ck[1:] == ck[:-1]
        # dollars keep the pooled products inside int64
        x = (c[:-1] // 100)[same]
        y = (c[1:] // 100)[same]
        return pa.table({
            "n": pa.array([len(x)], type=pa.int64()),
            "sx": pa.array([int(x.sum())], type=pa.int64()),
            "sy": pa.array([int(y.sum())], type=pa.int64()),
            "sxx": pa.array([int((x * x).sum())], type=pa.int64()),
            "syy": pa.array([int((y * y).sum())], type=pa.int64()),
            "sxy": pa.array([int((x * y).sum())], type=pa.int64()),
        })

    n = sx = sy = sxx = syy = sxy = 0
    for b in (ds.map_batches(tag, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("bucket")
              .map_groups(per_bucket, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows == 0 or "n" not in b.column_names:
            continue
        for i in range(b.num_rows):
            n += int(b["n"][i].as_py())
            sx += int(b["sx"][i].as_py())
            sy += int(b["sy"][i].as_py())
            sxx += int(b["sxx"][i].as_py())
            syy += int(b["syy"][i].as_py())
            sxy += int(b["sxy"][i].as_py())
    num = n * sxy - sx * sy
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    # num^2 * 1e6 overflows INT128 at sf0.1 magnitudes, so the ratio
    # goes through doubles with a mirrored expression tree (identical
    # IEEE trees give identical doubles; CLAUDE.md float-chain parity)
    import math

    r2 = (math.floor(float(num) * float(num)
                     / (float(d1) * float(d2)) * 1000000.0)
          if d1 > 0 and d2 > 0 else 0)
    return pa.table({
        "n_pairs": pa.array([n], type=pa.int64()),
        "sign_num": pa.array(
            [0 if num == 0 else (1 if num > 0 else -1)], type=pa.int64()),
        "r2_e6": pa.array([r2], type=pa.int64()),
    })


def sql_repeat_spend_corr() -> str:
    return """
WITH rsp AS MATERIALIZED (
  SELECT o_custkey,
    CAST(floor(o_totalprice * 100) AS BIGINT) // 100 AS c,
    lag(CAST(floor(o_totalprice * 100) AS BIGINT) // 100)
      OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
      AS cp
  FROM orders
),
rsa AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n,
    CAST(SUM(cp) AS HUGEINT) AS sx, CAST(SUM(c) AS HUGEINT) AS sy,
    CAST(SUM(cp * cp) AS HUGEINT) AS sxx,
    CAST(SUM(c * c) AS HUGEINT) AS syy,
    CAST(SUM(cp * c) AS HUGEINT) AS sxy
  FROM rsp WHERE cp IS NOT NULL
)
SELECT CAST(n AS BIGINT) AS n_pairs,
  CAST(CASE WHEN n * sxy - sx * sy > 0 THEN 1
            WHEN n * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT)
    AS sign_num,
  CAST(CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
    THEN floor(CAST(n * sxy - sx * sy AS DOUBLE)
      * CAST(n * sxy - sx * sy AS DOUBLE)
      / (CAST(n * sxx - sx * sx AS DOUBLE)
         * CAST(n * syy - sy * sy AS DOUBLE)) * 1000000)
    ELSE 0 END AS BIGINT) AS r2_e6
FROM rsa
"""


# ---------------------------------------------------------------------------
# Round 4e: Palma ratio + best-lag lead matrix
# ---------------------------------------------------------------------------


def q_palma_ratio(sf_dir: str):
    """Palma inequality ratio of per-user spend — top-10% share over
    bottom-40% share (the inequality measure that ignores the stable
    middle): users sorted by spend asc (ties to smaller user_id),
    bottom-40% = first ceil(0.4 n) users, top-10% = last floor(0.1
    n) + 1... pinned: top = users with rank > n - ceil(0.1 n);
    palma_e6 = s_top * 1e6 // s_bottom.  Per-user totals fold once.
    Output (n_users, s_top, s_bottom, palma_e6)."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        s = np.zeros(len(uu), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({"user_id": pa.array(uu.astype(np.int64)),
                         "s": pa.array(s)})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for u, s in zip(b["user_id"].to_pylist(), b["s"].to_pylist()):
            acc[u] = acc.get(u, 0) + int(s)
    check_driver_cap(len(acc), "palma_ratio")
    ranked = sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    n = len(ranked)
    k_bot = (4 * n + 9) // 10      # ceil(0.4 n)
    k_top = (n + 9) // 10          # ceil(0.1 n)
    s_bot = sum(v for _u, v in ranked[:k_bot])
    s_top = sum(v for _u, v in ranked[n - k_top:])
    return pa.table({
        "n_users": pa.array([n], type=pa.int64()),
        "s_top": pa.array([s_top], type=pa.int64()),
        "s_bottom": pa.array([s_bot], type=pa.int64()),
        "palma_e6": pa.array(
            [s_top * 10 ** 6 // s_bot if s_bot > 0 else -1],
            type=pa.int64()),
    })


def sql_palma_ratio() -> str:
    return """
WITH plu AS MATERIALIZED (
  SELECT user_id,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1
),
plr AS MATERIALIZED (
  SELECT s, row_number() OVER (ORDER BY s, user_id) AS rn,
    COUNT(*) OVER () AS n
  FROM plu
),
pla AS MATERIALIZED (
  SELECT CAST(MAX(n) AS BIGINT) AS n,
    CAST(COALESCE(SUM(s) FILTER (WHERE rn <= (4 * n + 9) // 10), 0)
      AS BIGINT) AS s_bot,
    CAST(COALESCE(SUM(s) FILTER (WHERE rn > n - (n + 9) // 10), 0)
      AS BIGINT) AS s_top
  FROM plr
)
SELECT n AS n_users, s_top, s_bot AS s_bottom,
  CAST(CASE WHEN s_bot > 0 THEN s_top * 1000000 // s_bot
    ELSE -1 END AS BIGINT) AS palma_e6
FROM pla
"""


def q_lag_lead_matrix(sf_dir: str):
    """Best-lag lead matrix across all ordered event-type pairs —
    who leads whom, at what delay: for each (a, b) pair the lag in
    -3..3 maximizing the quantized r2 (the cross_correlation
    statistic; ties to the smallest lag), reported with its r2 and
    sign.  All comparisons on exact integers.  From the shared daily
    fold.  Output (type_a, type_b, best_lag, sign_num, r2_e6)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, {})[int(d)] = cents // 100
    types = sorted(series)
    out = {c: [] for c in ("type_a", "type_b", "best_lag", "sign_num",
                           "r2_e6")}
    for ta in types:
        for tb in types:
            if ta == tb:
                continue
            best = None
            for L in LAGM_LAGS:
                days = sorted(d for d in series[ta]
                              if (d + L) in series[tb])
                n = len(days)
                if n < 2:
                    continue
                xs = [series[ta][d] for d in days]
                ys = [series[tb][d + L] for d in days]
                sx, sy = sum(xs), sum(ys)
                sxx = sum(v * v for v in xs)
                syy = sum(v * v for v in ys)
                sxy = sum(x * y for x, y in zip(xs, ys))
                num = n * sxy - sx * sy
                d1 = n * sxx - sx * sx
                d2 = n * syy - sy * sy
                r2 = (num * num * 10 ** 6) // (d1 * d2) \
                    if d1 > 0 and d2 > 0 else 0
                sign = 0 if num == 0 else (1 if num > 0 else -1)
                cand = (r2, -L, sign)
                if best is None or (cand[0], cand[1]) > (best[0], best[1]):
                    best = (r2, -L, sign)
            if best is not None:
                out["type_a"].append(ta)
                out["type_b"].append(tb)
                out["best_lag"].append(-best[1])
                out["sign_num"].append(best[2])
                out["r2_e6"].append(best[0])
    return pa.table({
        "type_a": pa.array(out["type_a"], type=pa.string()),
        "type_b": pa.array(out["type_b"], type=pa.string()),
        "best_lag": pa.array(out["best_lag"], type=pa.int64()),
        "sign_num": pa.array(out["sign_num"], type=pa.int64()),
        "r2_e6": pa.array(out["r2_e6"], type=pa.int64()),
    })


def sql_lag_lead_matrix() -> str:
    lags = ", ".join(str(x) for x in LAGM_LAGS)
    return f"""
WITH lld AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
llp AS MATERIALIZED (
  SELECT a.event_type AS ta, b.event_type AS tb, l.lag,
    CAST(a.x AS HUGEINT) AS xa, CAST(b.x AS HUGEINT) AS xb
  FROM (SELECT unnest([{lags}]) AS lag) l
  JOIN lld a ON TRUE
  JOIN lld b ON b.event_type <> a.event_type AND b.day = a.day + l.lag
),
lla AS MATERIALIZED (
  SELECT ta, tb, lag, CAST(COUNT(*) AS HUGEINT) AS n,
    SUM(xa) AS sx, SUM(xb) AS sy, SUM(xa * xa) AS sxx,
    SUM(xb * xb) AS syy, SUM(xa * xb) AS sxy
  FROM llp GROUP BY 1, 2, 3 HAVING COUNT(*) >= 2
),
llr AS MATERIALIZED (
  SELECT ta, tb, lag,
    CAST(CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
      THEN (n * sxy - sx * sy) * (n * sxy - sx * sy) * 1000000
        // ((n * sxx - sx * sx) * (n * syy - sy * sy))
      ELSE 0 END AS BIGINT) AS r2,
    CAST(CASE WHEN n * sxy - sx * sy > 0 THEN 1
              WHEN n * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT)
      AS sign_num
  FROM lla
),
llb AS MATERIALIZED (
  SELECT ta, tb, lag, r2, sign_num,
    row_number() OVER (PARTITION BY ta, tb
                       ORDER BY r2 DESC, lag ASC) AS rn
  FROM llr
)
SELECT ta AS type_a, tb AS type_b, CAST(lag AS BIGINT) AS best_lag,
  sign_num, r2 AS r2_e6
FROM llb WHERE rn = 1
"""


PSI_SPLIT_DAY = 15  # reference = days before, current = days after


def q_psi_drift(sf_dir: str):
    """Population Stability Index between the month's two halves (the
    deployment drift gate): decile edges are exact order statistics
    of the REFERENCE half's cent histogram (rank ceil(k*n/10),
    positive-form), values bin by strict > against the nine edges,
    and each bin's term (p2 - p1) * ln(p2 / p1) is computed with
    scalar libm log (bit-identical to DuckDB ln) and floor-quantized
    to 1e-9 BEFORE summation so the total is order-free.  Terms are 0
    when either side's bin is empty (documented rule).  One
    (half, cent) histogram fold; the driver holds only the bounded
    distinct-cent histogram.  Output (bin, n_ref, n_cur, term_e9)."""
    import math

    ds = _read(sf_dir, "events", columns=["ts", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        half = (ts // 86_400_000_000 - 19723 >= PSI_SPLIT_DAY)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = c * 2 + half
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        for k, n in zip(b["key"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + n
    keys = np.array(sorted(acc), dtype=np.int64)
    cnts = np.array([acc[int(k)] for k in keys], dtype=np.int64)
    cents = keys // 2
    half = (keys % 2).astype(bool)
    rc, rn = cents[~half], cnts[~half]
    cc, cn = cents[half], cnts[half]
    n1, n2 = int(rn.sum()), int(cn.sum())
    cum = np.cumsum(rn)
    edges = np.array([int(rc[np.searchsorted(cum, (k * n1 + 9) // 10)])
                      for k in range(1, 10)], dtype=np.int64)
    # bin = number of edges strictly below the value (ties go low)
    rb = np.searchsorted(np.sort(edges), rc, side="left")
    cb = np.searchsorted(np.sort(edges), cc, side="left")
    c1 = np.zeros(10, dtype=np.int64)
    np.add.at(c1, rb, rn)
    c2 = np.zeros(10, dtype=np.int64)
    np.add.at(c2, cb, cn)
    terms = np.zeros(10, dtype=np.int64)
    for i in range(10):
        if c1[i] > 0 and c2[i] > 0:
            p1 = c1[i] / n1
            p2 = c2[i] / n2
            terms[i] = math.floor((p2 - p1) * math.log(p2 / p1)
                                  * 1_000_000_000.0)
    return pa.table({
        "bin": pa.array(np.arange(10, dtype=np.int64)),
        "n_ref": pa.array(c1),
        "n_cur": pa.array(c2),
        "term_e9": pa.array(terms),
    })


def sql_psi_drift() -> str:
    return f"""
WITH psh AS MATERIALIZED (
  SELECT CAST(epoch_us(ts) // 86400000000 - 19723
      >= {PSI_SPLIT_DAY} AS INT) AS half,
    CAST(floor(value * 100) AS BIGINT) AS c,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
psn AS MATERIALIZED (
  SELECT CAST(SUM(n) FILTER (WHERE half = 0) AS BIGINT) AS n1,
    CAST(SUM(n) FILTER (WHERE half = 1) AS BIGINT) AS n2
  FROM psh
),
psr AS MATERIALIZED (
  SELECT c, SUM(n) OVER (ORDER BY c) AS cum FROM psh WHERE half = 0
),
pse AS MATERIALIZED (
  SELECT k, MIN(c) AS e
  FROM psr, (SELECT unnest(generate_series(1, 9)) AS k) ks, psn
  WHERE cum >= (k * n1 + 9) // 10
  GROUP BY k
),
psb AS MATERIALIZED (
  SELECT h.half, h.n,
    (SELECT COUNT(*) FROM pse WHERE pse.e < h.c) AS bin
  FROM psh h
),
psc AS MATERIALIZED (
  SELECT b.bin,
    CAST(COALESCE(SUM(n) FILTER (WHERE half = 0), 0) AS BIGINT) AS c1,
    CAST(COALESCE(SUM(n) FILTER (WHERE half = 1), 0) AS BIGINT) AS c2
  FROM (SELECT unnest(generate_series(0, 9)) AS bin) b
  LEFT JOIN psb ON psb.bin = b.bin
  GROUP BY b.bin
)
SELECT CAST(bin AS BIGINT) AS bin, c1 AS n_ref, c2 AS n_cur,
  CAST(CASE WHEN c1 > 0 AND c2 > 0 THEN floor(
    (CAST(c2 AS DOUBLE) / n2 - CAST(c1 AS DOUBLE) / n1)
    * ln((CAST(c2 AS DOUBLE) / n2) / (CAST(c1 AS DOUBLE) / n1))
    * 1000000000.0)
  ELSE 0 END AS BIGINT) AS term_e9
FROM psc, psn
"""



def q_ltv_cohorts(sf_dir: str):
    """Customer lifetime-value cohort matrix (the subscription-
    economics readout): customers cohort by FIRST order month; each
    (cohort_month, months-since-first) cell reports spend cents and
    active customers.  Two h(custkey) exchanges: a min-month fold
    gives each customer's cohort, then order rows and cohort rows
    meet in one bucketed union resolve (no join operator) emitting
    bounded (cohort, offset) partials that tiny-merge on the driver
    (months^2 cells).  Output (cohort_month, month_offset,
    n_customers, sum_cents)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    nb = 8
    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"],
               blocks=4)

    def rows(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        m = (batch["o_orderdate"].to_numpy(zero_copy_only=False)
             .astype("datetime64[M]").astype(np.int64))
        c = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ck.astype(np.uint64), nb)),
            "ck": pa.array(ck.astype(np.int64)),
            "m": pa.array(m),
            "cents": pa.array(c),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "ck" not in g.column_names:
            return pa.table({k: pa.array([], type=pa.int64())
                             for k in ("cohort", "off", "nc", "s")})
        ck = g["ck"].to_numpy(zero_copy_only=False)
        m = g["m"].to_numpy(zero_copy_only=False)
        c = g["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((m, ck))
        ck, m, c = ck[order], m[order], c[order]
        first_of = np.append(True, ck[1:] != ck[:-1])
        # first month per customer, spread to every row of the run
        fm = m[first_of][np.cumsum(first_of) - 1]
        off = m - fm
        key = fm * 4096 + off  # month idx < 4096 until year 2311
        uq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, c)
        # distinct active customers per cell: count run starts of
        # (ck, key) — rows are sorted by (ck, m) so equal keys of one
        # customer are adjacent
        cell_first = np.append(True, (ck[1:] != ck[:-1])
                               | (key[1:] != key[:-1]))
        nc = np.zeros(len(uq), dtype=np.int64)
        np.add.at(nc, inv, cell_first.astype(np.int64))
        return pa.table({
            "cohort": pa.array(uq // 4096),
            "off": pa.array(uq % 4096),
            "nc": pa.array(nc),
            "s": pa.array(s),
        })

    acc_n: dict = {}
    acc_s: dict = {}
    for b in (ds.map_batches(rows, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("bucket").map_groups(resolve,
                                            batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows == 0 or "cohort" not in b.column_names:
            continue
        for co, off, nc, s in zip(b["cohort"].to_pylist(),
                                  b["off"].to_pylist(),
                                  b["nc"].to_pylist(),
                                  b["s"].to_pylist()):
            acc_n[(co, off)] = acc_n.get((co, off), 0) + nc
            acc_s[(co, off)] = acc_s.get((co, off), 0) + s
    keys = sorted(acc_n)
    return pa.table({
        "cohort_month": pa.array([k[0] for k in keys], type=pa.int64()),
        "month_offset": pa.array([k[1] for k in keys], type=pa.int64()),
        "n_customers": pa.array([acc_n[k] for k in keys],
                                type=pa.int64()),
        "sum_cents": pa.array([acc_s[k] for k in keys],
                              type=pa.int64()),
    })


def sql_ltv_cohorts() -> str:
    return """
WITH lto AS MATERIALIZED (
  SELECT o_custkey AS ck,
    (date_part('year', o_orderdate) - 1970) * 12
      + date_part('month', o_orderdate) - 1 AS m,
    CAST(floor(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
ltf AS MATERIALIZED (
  SELECT ck, m, cents, MIN(m) OVER (PARTITION BY ck) AS fm FROM lto
)
SELECT CAST(fm AS BIGINT) AS cohort_month,
  CAST(m - fm AS BIGINT) AS month_offset,
  CAST(COUNT(DISTINCT ck) AS BIGINT) AS n_customers,
  CAST(SUM(cents) AS BIGINT) AS sum_cents
FROM ltf GROUP BY fm, m - fm
"""
