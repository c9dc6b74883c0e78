"""Query-suite family module: ann (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403



def q_ann_topk(sf_dir: str):
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann.ann_topk(emb)


def sql_ann_topk() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_sql()


def q_ann_topk_lsh(sf_dir: str):
    """Approximate ANN (random-hyperplane buckets, 1-bit probes);
    hash-verified — the SQL oracle reproduces the identical pruning."""
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann.ann_topk_lsh(emb)


def sql_ann_topk_lsh() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_lsh_sql()


def q_ann_topk_ivf(sf_dir: str):
    """IVF ANN (hash-seeded coarse quantizer + nprobe lists);
    hash-verified — the SQL oracle mirrors seeds/assignment/probing."""
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann.ann_topk_ivf(emb)


def sql_ann_topk_ivf() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_ivf_sql()


def q_embedding_centroids(sf_dir: str):
    """Per-label embedding centroids (cluster prototypes): map-side
    per-label vector sums + counts combined per batch, ONE tiny
    exchange over (label, dim) long-format partials.  Elements are
    quantized to integer micros BEFORE summation, so the aggregate is
    order-free and bit-exact against SQL regardless of how blocks or
    reducers interleave — the only float-parity-safe shape for a
    distributed float sum (CLAUDE.md quantization invariant)."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        M = _emb_matrix(batch)  # (n, EMB_D) zero-copy from Arrow
        Q = np.floor(M.astype(np.float64) * 1000000.0).astype(np.int64)
        uq, inv = np.unique(lab, return_inverse=True)
        S = np.zeros((len(uq), Q.shape[1]), dtype=np.int64)
        np.add.at(S, inv, Q)
        cnt = np.bincount(inv).astype(np.int64)
        d = Q.shape[1]
        return pa.table(
            {
                "label": pa.array(np.repeat(uq, d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(uq))),
                "sum_micros": pa.array(S.reshape(-1)),
                "n": pa.array(np.repeat(cnt, d)),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["label", "dim"]).aggregate(
        Sum("sum_micros", alias_name="sum_micros"), Sum("n", alias_name="n")
    )


def sql_embedding_centroids() -> str:
    # static dim range (generate_series can't take lateral column
    # parameters); embedding[i] is 1-based, dim output 0-based
    return (
        "WITH e AS MATERIALIZED ("
        "  SELECT label, d.i - 1 AS dim,"
        "    CAST(floor(CAST(embedding[d.i] AS DOUBLE) * 1000000.0) AS BIGINT) AS m"
        f"  FROM embeddings, (SELECT unnest(generate_series(1, {EMB_D})) AS i) d)"
        " SELECT CAST(label AS BIGINT) AS label, dim,"
        "   CAST(SUM(m) AS BIGINT) AS sum_micros, CAST(COUNT(*) AS BIGINT) AS n"
        " FROM e GROUP BY label, dim"
    )


def q_embedding_gram(sf_dir: str):
    """Distributed second-moment (gram) matrix of the embedding table —
    the reduction behind PCA / whitening / covariance monitoring.  Each
    batch quantizes to integer millis and matmuls Q^T Q (float64 BLAS;
    every partial product and per-batch sum stays < 2^53, so the cast
    back to int64 is exact), emitting only the 2080 upper-triangle
    partials per batch into one tiny (i, j) exchange.  The embedding
    rows themselves never shuffle.  Order-free by construction —
    integer sums commute."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        M = _emb_matrix(batch)
        Q = np.floor(M.astype(np.float64) * 1000.0)
        G = (Q.T @ Q)  # exact: |q| < 2^24, n < 2^17 per batch
        d = Q.shape[1]
        iu, ju = np.triu_indices(d)
        return pa.table({
            "i": pa.array(iu.astype(np.int64)),
            "j": pa.array(ju.astype(np.int64)),
            "g": pa.array(G[iu, ju].astype(np.int64)),
            "n": pa.array(np.full(len(iu), Q.shape[0], dtype=np.int64)),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["i", "j"]).aggregate(
        Sum("g", alias_name="g"), Sum("n", alias_name="n")
    )


def sql_embedding_gram() -> str:
    return (
        "WITH e AS MATERIALIZED ("
        "  SELECT vec_id, d.i - 1 AS i,"
        "    CAST(floor(CAST(embedding[d.i] AS DOUBLE) * 1000.0) AS BIGINT) AS m"
        f"  FROM embeddings, (SELECT unnest(generate_series(1, {EMB_D})) AS i) d)"
        " SELECT a.i AS i, b.i AS j,"
        "   CAST(SUM(a.m * b.m) AS BIGINT) AS g,"
        "   CAST(COUNT(*) AS BIGINT) AS n"
        " FROM e a JOIN e b ON a.vec_id = b.vec_id AND b.i >= a.i"
        " GROUP BY a.i, b.i"
    )


def q_nearest_centroid(sf_dir: str):
    """Nearest-centroid assignment (the k-means assignment step /
    centroid classifier): the 10x64 centroid matrix is derived from the
    verified per-label sums (a bounded aggregate), broadcast once via
    ray.put, and every batch computes its distances vectorized — no
    shuffle touches the embedding rows; only <= 100 confusion partials
    per batch enter the final exchange.  Distances fold dimension-by-
    dimension left-to-right (ops/ann._seq_d2) so they are bit-identical
    to the SQL's left-associative 64-term expression, making the argmin
    (ties -> smaller label) exactly comparable."""
    from rhealpixdggs_py_ray.ops.ann import _seq_d2
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    cdf = (
        q_embedding_centroids(sf_dir)
        .to_pandas()
        .sort_values(["label", "dim"])
        .reset_index(drop=True)
    )
    labels = np.sort(cdf["label"].unique()).astype(np.int64)
    C = (
        cdf["sum_micros"].to_numpy().astype(np.float64)
        / cdf["n"].to_numpy().astype(np.float64)
    ).reshape(len(labels), EMB_D)
    cent_ref = ray.put((labels, C))

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        labs, cm = ray.get(cent_ref)
        true_lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        X = np.floor(_emb_matrix(batch).astype(np.float64) * 1000000.0)
        D = _seq_d2(X, cm)
        near = labs[np.argmin(D, axis=1)]  # first win == smallest label
        pairs = true_lab * 1000 + near
        uq, cnt = np.unique(pairs, return_counts=True)
        return pa.table(
            {
                "label": pa.array(uq // 1000),
                "nearest": pa.array(uq % 1000),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    part = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["label", "nearest"]).aggregate(Sum("n", alias_name="n"))


def sql_nearest_centroid() -> str:
    cent = sql_embedding_centroids()
    cw_cols = ", ".join(
        f"MAX(CASE WHEN dim = {d} THEN CAST(sum_micros AS DOUBLE)"
        f" / CAST(n AS DOUBLE) END) AS c{d}"
        for d in range(EMB_D)
    )

    def e(d: int) -> str:
        return f"floor(CAST(embedding[{d + 1}] AS DOUBLE) * 1000000.0)"

    dist = " + ".join(f"(({e(d)}) - c{d}) * (({e(d)}) - c{d})" for d in range(EMB_D))
    return (
        f"WITH cent AS MATERIALIZED ({cent}),"
        f" cw AS MATERIALIZED (SELECT label AS clabel, {cw_cols} FROM cent GROUP BY label),"
        " d AS MATERIALIZED ("
        "   SELECT e.vec_id, CAST(e.label AS BIGINT) AS label, cw.clabel,"
        f"    ({dist}) AS dist"
        "   FROM embeddings e CROSS JOIN cw),"
        " pick AS MATERIALIZED ("
        "   SELECT vec_id, label, clabel AS nearest FROM d"
        "   QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY dist, clabel) = 1)"
        " SELECT label, nearest, CAST(COUNT(*) AS BIGINT) AS n"
        " FROM pick GROUP BY label, nearest"
    )


def q_kmeans_step(sf_dir: str):
    """One full Lloyd (k-means) iteration, distributed: assignment to
    the broadcast centroids (bit-parity _seq_d2 distances, ties ->
    smaller label) AND the centroid UPDATE sufficient statistics
    (per-assigned-cluster quantized element sums + counts) in the same
    single pass over the embeddings — new centroids are
    sum_micros/n.  Iterating = re-running this query with the new
    centroids; each iteration is one map + one tiny (cluster, dim)
    exchange, the 100 TB k-means shape."""
    from rhealpixdggs_py_ray.ops.ann import _seq_d2
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    cdf = (
        q_embedding_centroids(sf_dir)
        .to_pandas()
        .sort_values(["label", "dim"])
        .reset_index(drop=True)
    )
    labels = np.sort(cdf["label"].unique()).astype(np.int64)
    C = (
        cdf["sum_micros"].to_numpy().astype(np.float64)
        / cdf["n"].to_numpy().astype(np.float64)
    ).reshape(len(labels), EMB_D)
    cent_ref = ray.put((labels, C))

    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def step(batch: pa.Table) -> pa.Table:
        labs, cm = ray.get(cent_ref)
        X = np.floor(_emb_matrix(batch).astype(np.float64) * 1000000.0)
        D = _seq_d2(X, cm)
        near = np.argmin(D, axis=1)  # first win == smallest label
        k, d = len(labs), X.shape[1]
        S = np.zeros((k, d), dtype=np.int64)
        np.add.at(S, near, X.astype(np.int64))
        n = np.bincount(near, minlength=k).astype(np.int64)
        used = np.flatnonzero(n > 0)
        return pa.table({
            "cluster": pa.array(np.repeat(labs[used], d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(used))),
            "sum_micros": pa.array(S[used].reshape(-1)),
            "n": pa.array(np.repeat(n[used], d)),
        })

    part = ds.map_batches(step, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["cluster", "dim"]).aggregate(
        Sum("sum_micros", alias_name="sum_micros"), Sum("n", alias_name="n")
    )


def sql_kmeans_step() -> str:
    cent = sql_embedding_centroids()
    cw_cols = ", ".join(
        f"MAX(CASE WHEN dim = {d} THEN CAST(sum_micros AS DOUBLE)"
        f" / CAST(n AS DOUBLE) END) AS c{d}"
        for d in range(EMB_D)
    )

    def e(d: int) -> str:
        return f"floor(CAST(embedding[{d + 1}] AS DOUBLE) * 1000000.0)"

    dist = " + ".join(f"(({e(d)}) - c{d}) * (({e(d)}) - c{d})" for d in range(EMB_D))
    return (
        f"WITH cent AS MATERIALIZED ({cent}),"
        f" cw AS MATERIALIZED (SELECT label AS clabel, {cw_cols} FROM cent GROUP BY label),"
        " d AS MATERIALIZED ("
        "   SELECT e.vec_id, cw.clabel,"
        f"    ({dist}) AS dist"
        "   FROM embeddings e CROSS JOIN cw),"
        " pick AS MATERIALIZED ("
        "   SELECT vec_id, clabel AS cluster FROM d"
        "   QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY dist, clabel) = 1)"
        " SELECT p.cluster, dd.i - 1 AS dim,"
        "  CAST(SUM(CAST(floor(CAST(e.embedding[dd.i] AS DOUBLE) * 1000000.0)"
        "   AS BIGINT)) AS BIGINT) AS sum_micros,"
        "  CAST(COUNT(*) AS BIGINT) AS n"
        " FROM pick p JOIN embeddings e ON e.vec_id = p.vec_id,"
        f"  (SELECT unnest(generate_series(1, {EMB_D})) AS i) dd"
        " GROUP BY p.cluster, dd.i"
    )


# ---------------------------------------------------------------------------
# Round 2e: ANN recall evaluation + incremental ingest merge
# ---------------------------------------------------------------------------

def q_ann_recall(sf_dir: str):
    """ANN quality evaluation as a first-class pipeline: recall@k of
    the LSH index against exact brute-force, per query.  Both sides
    are the existing distributed pipelines; their outputs are
    Q x k-bounded, so the compare is a driver-side set intersection —
    the eval harness a production ANN deployment runs per re-index."""
    from rhealpixdggs_py_ray.ops import ann

    import concurrent.futures as cf

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    emb2 = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    with cf.ThreadPoolExecutor(2) as ex:  # both pipelines execute at once
        fb = ex.submit(lambda: ann.ann_topk(emb).take_all())
        fa = ex.submit(lambda: ann.ann_topk_lsh(emb2).take_all())
        brute, approx = fb.result(), fa.result()
    b_by_q: dict[int, set[int]] = {}
    for r in brute:
        b_by_q.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    a_by_q: dict[int, set[int]] = {}
    for r in approx:
        a_by_q.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    qids = sorted(b_by_q)
    n_brute = np.array([len(b_by_q[q]) for q in qids], dtype=np.int64)
    n_hit = np.array(
        [len(b_by_q[q] & a_by_q.get(q, set())) for q in qids], dtype=np.int64
    )
    return ray.data.from_arrow(pa.table({
        "qid": pa.array(np.array(qids, dtype=np.int64)),
        "n_brute": pa.array(n_brute),
        "n_hit": pa.array(n_hit),
        "recall_micros": pa.array(n_hit * 1_000_000 // n_brute),
    }))


def sql_ann_recall() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return f"""
WITH b AS MATERIALIZED ({ann.ann_topk_sql()}),
l AS MATERIALIZED ({ann.ann_topk_lsh_sql()}),
hit AS MATERIALIZED (
  SELECT b.qid, CAST(COUNT(l.vec_id) AS BIGINT) AS n_hit
  FROM b LEFT JOIN l ON l.qid = b.qid AND l.vec_id = b.vec_id
  GROUP BY b.qid
),
nb AS MATERIALIZED (
  SELECT qid, CAST(COUNT(*) AS BIGINT) AS n_brute FROM b GROUP BY qid
)
SELECT nb.qid, nb.n_brute, hit.n_hit,
  hit.n_hit * 1000000 // nb.n_brute AS recall_micros
FROM nb JOIN hit ON hit.qid = nb.qid
"""


def q_kmeans_train(sf_dir: str):
    """THE iterative distributed-training loop: KM_ITERS full Lloyd
    iterations of k-means over the embeddings, each iteration one
    broadcast (ray.put centroids) + one map + one tiny (cluster, dim)
    exchange; between iterations only the k x d sufficient statistics
    land on the driver (the irreducible synchronization point of
    distributed k-means).  Clusters that lose all members drop out of
    the next round, matching the SQL replay exactly."""
    cdf = (
        q_embedding_centroids(sf_dir)
        .to_pandas()
        .sort_values(["label", "dim"])
        .reset_index(drop=True)
    )
    labels = np.sort(cdf["label"].unique()).astype(np.int64)
    C = (
        cdf["sum_micros"].to_numpy().astype(np.float64)
        / cdf["n"].to_numpy().astype(np.float64)
    ).reshape(len(labels), EMB_D)
    for it in range(KM_ITERS):
        stats = _kmeans_pass(sf_dir, labels, C)
        if it == KM_ITERS - 1:
            return stats
        sdf = (
            stats.to_pandas()
            .sort_values(["cluster", "dim"])
            .reset_index(drop=True)
        )  # bounded: k x d rows
        labels = np.sort(sdf["cluster"].unique()).astype(np.int64)
        C = (
            sdf["sum_micros"].to_numpy().astype(np.float64)
            / sdf["n"].to_numpy().astype(np.float64)
        ).reshape(len(labels), EMB_D)


def sql_kmeans_train() -> str:
    def e(d: int) -> str:
        return f"floor(CAST(e.embedding[{d + 1}] AS DOUBLE) * 1000000.0)"

    dist = " + ".join(
        f"(({e(d)}) - c{d}) * (({e(d)}) - c{d})" for d in range(EMB_D)
    )
    ctes = [f"cent0 AS MATERIALIZED ({sql_embedding_centroids()})"]
    prev, prev_label = "cent0", "label"
    for it in range(1, KM_ITERS + 1):
        cw_cols = ", ".join(
            f"MAX(CASE WHEN dim = {d} THEN CAST(sum_micros AS DOUBLE)"
            f" / CAST(n AS DOUBLE) END) AS c{d}"
            for d in range(EMB_D)
        )
        ctes.append(
            f"cw{it} AS MATERIALIZED (SELECT {prev_label} AS clabel,"
            f" {cw_cols} FROM {prev} GROUP BY {prev_label})"
        )
        ctes.append(
            f"d{it} AS MATERIALIZED (SELECT e.vec_id, cw{it}.clabel,"
            f" ({dist}) AS dist FROM embeddings e CROSS JOIN cw{it})"
        )
        ctes.append(
            f"pick{it} AS MATERIALIZED (SELECT vec_id, clabel AS cluster"
            f" FROM d{it} QUALIFY row_number() OVER"
            f" (PARTITION BY vec_id ORDER BY dist, clabel) = 1)"
        )
        ctes.append(
            f"stats{it} AS MATERIALIZED (SELECT p.cluster, dd.i - 1 AS dim,"
            f" CAST(SUM(CAST(floor(CAST(e.embedding[dd.i] AS DOUBLE)"
            f" * 1000000.0) AS BIGINT)) AS BIGINT) AS sum_micros,"
            f" CAST(COUNT(*) AS BIGINT) AS n"
            f" FROM pick{it} p JOIN embeddings e ON e.vec_id = p.vec_id,"
            f" (SELECT unnest(generate_series(1, {EMB_D})) AS i) dd"
            f" GROUP BY p.cluster, dd.i)"
        )
        prev, prev_label = f"stats{it}", "cluster"
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT cluster, dim, sum_micros, n FROM stats{KM_ITERS}"
    )


def q_ann_topk_filtered(sf_dir: str):
    """Metadata-filtered exact vector search: per-query label predicate
    applied as a mask inside the scoring batch (ops/ann.py)."""
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "label", "embedding"])
    return ann.ann_topk_filtered(emb)


def sql_ann_topk_filtered() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_filtered_sql()


def q_knn_graph(sf_dir: str):
    """Exact cosine k-NN graph (every vector a query) via chunk-pair
    partial top-k + bucketed resolve (ops/ann.knn_graph)."""
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann.knn_graph(emb)


def sql_knn_graph() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.knn_graph_sql()


def q_rknn_counts(sf_dir: str):
    """Reverse-kNN in-degree: for every vector, how many other vectors
    list it among their top-k (hubness audit of the embedding space).
    The graph's neighbor column and a zero row per vector from the
    embeddings table enter the SAME bucket exchange as mergeable
    partials (union -> one exact u64-key sum) — zero-in-degree vectors
    appear with no driver-side table and no join."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.ops.ann import knn_graph

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    g = knn_graph(emb)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uq, cnt = np.unique(v, return_counts=True)
        return pa.table({
            "vec_id": pa.array(uq),
            "n": pa.array(cnt.astype(np.int64)),
            "bucket": pa.array(hash_bucket_u64(uq.astype(np.uint64), 8)),
        })

    def zeros(batch: pa.Table) -> pa.Table:
        v = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(v),
            "n": pa.array(np.zeros(len(v), dtype=np.int64)),
            "bucket": pa.array(hash_bucket_u64(v.astype(np.uint64), 8)),
        })

    def reduce_(gr: pa.Table) -> pa.Table:
        if gr.num_rows == 0 or "vec_id" not in gr.column_names:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "indeg": pa.array([], type=pa.int64())})
        v = gr["vec_id"].to_numpy(zero_copy_only=False)
        n = gr["n"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(v, return_inverse=True)
        sm = np.zeros(len(uq), dtype=np.int64)
        np.add.at(sm, inv, n)
        return pa.table({"vec_id": pa.array(uq), "indeg": pa.array(sm)})

    parts = g.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        _read(sf_dir, "embeddings", columns=["vec_id"]).map_batches(
            zeros, batch_format="pyarrow", zero_copy_batch=True)
    )
    return parts.groupby("bucket").map_groups(reduce_, batch_format="pyarrow")


def sql_rknn_counts() -> str:
    from rhealpixdggs_py_ray.ops.ann import knn_graph_sql

    return f"""
WITH g AS MATERIALIZED ({knn_graph_sql()})
SELECT e.vec_id, CAST(coalesce(COUNT(g.qid), 0) AS BIGINT) AS indeg
FROM embeddings e LEFT JOIN g ON g.vec_id = e.vec_id
GROUP BY e.vec_id
"""


def q_clip_filter(sf_dir: str):
    """Image-text alignment filtering with a tiny REAL two-tower
    scorer over decoded pixels (deterministic numpy weights stand in
    for trained CLIP weights — no model weights exist in this
    sandbox, but the full pipeline is real: decode raw/png payload ->
    nearest-resize 16x16 -> per-(row, channel) pooled pixel sums (a
    48-dim image feature) -> linear projection P_img; captions ->
    token-hash votes -> P_txt; score = seq-fold cosine).  The actor
    pool loads both projection matrices once per actor (__init__);
    scoring is vectorized per batch.  Keep pairs with score >=
    CLIP_TAU.  Output (idx, score_micros, keep).  The oracle replays
    decode+resize+pool closed-form from the generative pixel formula
    (fixtures.gen_pixels) and the identical fold order, so scores
    are value-hash checked end-to-end."""
    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.ops.ann import _seq_dots, _seq_norm
    from rhealpixdggs_py_ray.ops.dedup import md5_u64_many

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, columns=["image_id", "caption", "bytes", "fmt", "w", "h"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8),
    )

    class ClipScorer:
        def __init__(self):
            from rhealpixdggs_py_ray.fixtures import splitmix64
            i = np.arange(48 * CLIP_D, dtype=np.uint64)
            f = (splitmix64(i + np.uint64(424242)) >> np.uint64(11)
                 ).astype(np.float64) / float(1 << 53)
            self.P_img = (2.0 * f - 1.0).reshape(48, CLIP_D)
            j = np.arange(64 * CLIP_D, dtype=np.uint64)
            g = (splitmix64(j + np.uint64(515151)) >> np.uint64(11)
                 ).astype(np.float64) / float(1 << 53)
            self.P_txt = (2.0 * g - 1.0).reshape(64, CLIP_D)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from rhealpixdggs_py_ray.fixtures import decode_image
            from rhealpixdggs_py_ray.ops.multimodal import resize_nearest

            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            n = len(blobs)
            B = np.empty((n, 48), dtype=np.float64)
            for k in range(n):
                pix = decode_image(blobs[k], fmts[k], int(ws[k]), int(hs[k]))
                small = resize_nearest(pix, 16, 16).astype(np.int64)
                # pooled row sums per channel, feature index gi*3 + c
                B[k] = small.sum(axis=1).reshape(48).astype(np.float64)
            img = _seq_dots(B, self.P_img.T)
            caps = batch["caption"].to_pylist()
            toks_all, doc_idx = [], []
            for i, c in enumerate(caps):
                tk = c.split()
                toks_all.extend(tk)
                doc_idx.extend([i] * len(tk))
            T = np.zeros((n, 64), dtype=np.float64)
            if toks_all:
                h = md5_u64_many(toks_all)
                bit = (h % np.uint64(64)).astype(np.int64)
                np.add.at(T, (np.array(doc_idx), bit), 1.0)
            txt = _seq_dots(T, self.P_txt.T)
            num = np.zeros(n, dtype=np.float64)
            for d in range(CLIP_D):
                num = num + img[:, d] * txt[:, d]
            s = num / (_seq_norm(img) * _seq_norm(txt))
            idx = np.array([int(i[3:]) for i in
                            batch["image_id"].to_pylist()], dtype=np.int64)
            keep = (s >= CLIP_TAU).astype(np.int64)
            return pa.table({
                "idx": pa.array(idx),
                "score_micros": pa.array(
                    np.floor(s * 1000000.0).astype(np.int64)),
                "keep": pa.array(keep),
            })

    return ds.map_batches(
        ClipScorer, batch_format="pyarrow", batch_size=512,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_clip_filter() -> str:
    from rhealpixdggs_py_ray.oracle import _lit

    prefix, num, inrm, tnrm = _clip_sql_parts()
    return f"""
WITH {prefix},
cs AS MATERIALIZED (
  SELECT cimg.idx,
    ({num}) / (sqrt({inrm}) * sqrt({tnrm})) AS s
  FROM cimg JOIN ctxt ON cimg.idx = ctxt.idx
)
SELECT idx, CAST(floor(s * 1000000.0) AS BIGINT) AS score_micros,
  CAST(CASE WHEN s >= {_lit(CLIP_TAU)} THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM cs
"""


def q_quantize_embeddings(sf_dir: str):
    """Int8 scalar quantization audit (the vector-store compression
    step): per vector, scale = max_abs/127, q_i = floor(x_i/scale)
    clipped to [-127, 127], reporting the exact reconstruction error
    sum((x - q*scale)^2) as floor(err * 1e12).  Map-only; the fold
    mirrors the SQL list expressions element-by-element.  Output
    (vec_id, max_abs_micros, err_e12)."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quant(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        M = _emb_matrix(batch)
        amax = np.zeros(M.shape[0], dtype=np.float64)
        for i in range(M.shape[1]):  # seq fold == SQL list_max order
            amax = np.maximum(amax, np.abs(M[:, i]))
        # all-zero vector guard: amax==0 -> scale 1.0 (rows are all
        # zeros, so q=0, d=0, err=0 — no NaN); SQL mirrors the CASE
        scale = np.where(amax > 0.0, amax, 127.0) / 127.0
        err = np.zeros(M.shape[0], dtype=np.float64)
        for i in range(M.shape[1]):
            q = np.clip(np.floor(M[:, i] / scale), -127, 127)
            d = M[:, i] - q * scale
            err = err + d * d
        return pa.table({
            "vec_id": pa.array(ids),
            "max_abs_micros": pa.array(
                np.floor(amax * 1000000.0).astype(np.int64)),
            "err_e12": pa.array(np.floor(err * 1e12).astype(np.int64)),
        })

    return ds.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True)


def sql_quantize_embeddings() -> str:
    return f"""
WITH qe AS MATERIALIZED (
  SELECT vec_id, embedding,
    list_max(list_transform(embedding,
      x -> abs(CAST(x AS DOUBLE)))) AS amax
  FROM embeddings
), qs AS MATERIALIZED (
  -- all-zero vector guard: amax==0 -> scale 1.0 (numpy mirror)
  SELECT vec_id, embedding, amax,
    CASE WHEN amax > 0 THEN amax ELSE 127.0 END / 127.0 AS scale
  FROM qe
)
SELECT vec_id,
  CAST(floor(amax * 1000000.0) AS BIGINT) AS max_abs_micros,
  CAST(floor(list_sum(list_transform(embedding, x ->
    (CAST(x AS DOUBLE) - greatest(least(floor(CAST(x AS DOUBLE)
        / scale), 127.0), -127.0) * scale)
    * (CAST(x AS DOUBLE) - greatest(least(floor(CAST(x AS DOUBLE)
        / scale), 127.0), -127.0) * scale)
  )) * 1e12) AS BIGINT) AS err_e12
FROM qs
"""


def q_pq_encode(sf_dir: str):
    """Product-quantization encode (Jégou et al. 2011, the
    vector-store compression step): split each 64-dim embedding into
    4 subspaces of 16 dims, assign each to the nearest of 8
    deterministic codebook centroids, pack the 4 codes base-8, and
    report the total quantized reconstruction error.  Distances are
    order-free integer sums of floor((x-c)^2 * 1e12) so the argmin and
    the error are exactly replayable in SQL.  Pure map over
    embeddings.  Output (vec_id, pq_code, err_q)."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    C = _pq_codebook()  # (M, K, D)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def encode(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        M = _emb_matrix(batch)
        n = M.shape[0]
        if n == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "pq_code": pa.array([], type=pa.int64()),
                             "err_q": pa.array([], type=pa.int64())})
        X = M.reshape(n, PQ_M, 1, PQ_D)          # (n, M, 1, D)
        d = X - C[None, :, :, :]                 # (n, M, K, D)
        t = np.floor((d * d) * 1e12).astype(np.int64)
        D = t.sum(axis=3)                        # (n, M, K) int64
        code = np.argmin(D, axis=2)              # first-min == lowest k
        dmin = np.take_along_axis(D, code[:, :, None], axis=2)[:, :, 0]
        w = (PQ_K ** np.arange(PQ_M - 1, -1, -1)).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(ids),
            "pq_code": pa.array(code @ w),
            "err_q": pa.array(dmin.sum(axis=1)),
        })

    return ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def sql_pq_encode() -> str:
    c_expr = ("(CAST((k * 37 + j * 11 + s * 5) % 16 AS DOUBLE)"
              f" - {oracle._lit(7.5)}) / {oracle._lit(32.0)}")
    x_expr = f"CAST(embedding[s * {PQ_D} + j + 1] AS DOUBLE)"
    pack = " ".join(
        f"WHEN {s} THEN {PQ_K ** (PQ_M - 1 - s)}" for s in range(PQ_M))
    return f"""
WITH t AS MATERIALIZED (
  SELECT vec_id, s, k,
    CAST(SUM(CAST(floor((({x_expr} - {c_expr}) * ({x_expr} - {c_expr}))
      * {oracle._lit(1e12)}) AS BIGINT)) AS BIGINT) AS d
  FROM embeddings
  CROSS JOIN generate_series(0, {PQ_M - 1}) su(s)
  CROSS JOIN generate_series(0, {PQ_K - 1}) ku(k)
  CROSS JOIN generate_series(0, {PQ_D - 1}) ju(j)
  GROUP BY vec_id, s, k
), m AS MATERIALIZED (
  SELECT vec_id, s, MIN(d) AS dmin FROM t GROUP BY vec_id, s
), cd AS MATERIALIZED (
  SELECT t.vec_id, t.s, CAST(MIN(t.k) AS BIGINT) AS code, MIN(t.d) AS d
  FROM t JOIN m ON t.vec_id = m.vec_id AND t.s = m.s AND t.d = m.dmin
  GROUP BY t.vec_id, t.s
)
SELECT vec_id,
  CAST(SUM(code * CASE s {pack} END) AS BIGINT) AS pq_code,
  CAST(SUM(d) AS BIGINT) AS err_q
FROM cd GROUP BY vec_id
"""


def q_ann_topk_ivfpq(sf_dir: str):
    """IVF-PQ ANN (coarse-quantizer pruning + integer asymmetric-
    distance PQ scan — the FAISS IVFPQ shape); see ops/ann.py
    ann_topk_ivfpq."""
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann.ann_topk_ivfpq(emb)


def sql_ann_topk_ivfpq() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_ivfpq_sql()


def q_mmr_rerank(sf_dir: str):
    """Maximal-marginal-relevance rerank (Carbonell & Goldstein 1998,
    the search-result diversification stage): the exact cosine top-C
    pool per query comes from the distributed ann_topk scan; the
    greedy MMR selection then runs over integer-quantized scores —
    rel_q = floor(cos(q, v) * 1e6), sim_q = floor(cos(v, w) * 1e6),
    step score = 7*rel_q - 3*max(sim_q to picked) — so every pick
    (ties -> smaller vec_id) replays exactly in SQL.  The rerank pool
    is n_queries x C rows BY CONSTRUCTION (the bounded output of the
    ANN stage), so candidate embeddings are a bounded gather; at
    100 TB only the ann_topk scan touches the corpus.  Output (qid,
    vec_id, step, score)."""
    from rhealpixdggs_py_ray.ops import ann
    from rhealpixdggs_py_ray.ops.ann import _seq_dots, _seq_norm

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cands = ann.ann_topk(emb, n_queries=MMR_NQ, k=MMR_C).to_pandas()
    cand_ids = np.unique(cands["vec_id"].to_numpy())

    def keep(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(vid, cand_ids)))

    # bounded: <= MMR_NQ * MMR_C distinct candidate rows
    rows = emb.map_batches(keep, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    rows.sort(key=lambda r: r["vec_id"])
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    M = np.array([r["embedding"] for r in rows], dtype=np.float64)
    nrm = _seq_norm(M)
    S = _seq_dots(M, M) / (nrm[:, None] * nrm[None, :])
    simq = np.floor(S * 1e6).astype(np.int64)
    pos = {int(v): i for i, v in enumerate(ids)}

    out_q, out_v, out_s, out_sc = [], [], [], []
    for qid, g in cands.groupby("qid"):
        vids = g["vec_id"].to_numpy()
        rel = g["cos_micros"].to_numpy().astype(np.int64)
        order = np.argsort(vids)
        vids, rel = vids[order], rel[order]
        picked: list[int] = []
        remaining = list(range(len(vids)))
        for step in range(1, MMR_S + 1):
            best_i, best_score = None, None
            for i in remaining:
                if picked:
                    pen = max(simq[pos[int(vids[i])], pos[int(vids[p])]]
                              for p in picked)
                    sc = MMR_WR * rel[i] - MMR_WD * pen
                else:
                    sc = MMR_WR * rel[i]
                # argmax, ties -> smaller vec_id (remaining is vid-asc)
                if best_score is None or sc > best_score:
                    best_i, best_score = i, sc
            picked.append(best_i)
            remaining.remove(best_i)
            out_q.append(int(qid))
            out_v.append(int(vids[best_i]))
            out_s.append(step)
            out_sc.append(int(best_score))
    return pa.table({
        "qid": pa.array(out_q, type=pa.int64()),
        "vec_id": pa.array(out_v, type=pa.int64()),
        "step": pa.array(out_s, type=pa.int64()),
        "score": pa.array(out_sc, type=pa.int64()),
    })


def sql_mmr_rerank() -> str:
    dot = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
    )
    nrm = "sqrt(list_sum(list_transform({t}.embedding, x -> CAST(x AS DOUBLE) * x)))"
    # greedy steps unrolled: pick1..pick4, each argmax over the
    # remaining candidates with the integer MMR score
    steps = []
    for s in range(2, MMR_S + 1):
        prev = ", ".join(f"p{j}" for j in range(1, s))
        prev_cte = f"picked{s - 1}"
        steps.append(f"""
rem{s} AS MATERIALIZED (
  SELECT c.qid, c.vec_id, c.rel_q,
    {MMR_WR} * c.rel_q - {MMR_WD} * (
      SELECT MAX(sq.sim_q) FROM simq sq
      JOIN {prev_cte} pk ON pk.qid = c.qid
      WHERE sq.a_id = c.vec_id AND sq.b_id IN ({prev.replace('p', 'pk.pick')})
    ) AS score
  FROM cand c
  WHERE NOT EXISTS (
    SELECT 1 FROM {prev_cte} pk WHERE pk.qid = c.qid
      AND c.vec_id IN ({prev.replace('p', 'pk.pick')})
  )
),
sel{s} AS MATERIALIZED (
  SELECT qid, vec_id, score FROM (
    SELECT qid, vec_id, score,
      row_number() OVER (PARTITION BY qid ORDER BY score DESC, vec_id) AS rn
    FROM rem{s}
  ) WHERE rn = 1
),
picked{s} AS MATERIALIZED (
  SELECT p.qid, {", ".join(f"p.pick{j}" for j in range(1, s))}, s.vec_id AS pick{s}
  FROM picked{s - 1} p JOIN sel{s} s ON s.qid = p.qid
)""")
    return f"""
WITH b AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings),
a AS MATERIALIZED (
  SELECT vec_id, embedding FROM embeddings WHERE vec_id < {MMR_NQ}
),
d AS MATERIALIZED (
  SELECT a.vec_id AS qid, b.vec_id AS vec_id,
    {dot} / ({nrm.format(t='a')} * {nrm.format(t='b')}) AS cos
  FROM a CROSS JOIN b WHERE a.vec_id <> b.vec_id
),
cand AS MATERIALIZED (
  SELECT qid, vec_id, CAST(floor(cos * 1000000.0) AS BIGINT) AS rel_q
  FROM (
    SELECT qid, vec_id, cos,
      row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank
    FROM d
  ) WHERE rank <= {MMR_C}
),
cids AS MATERIALIZED (SELECT DISTINCT vec_id FROM cand),
simq AS MATERIALIZED (
  SELECT a.vec_id AS a_id, b.vec_id AS b_id,
    CAST(floor(({dot} / ({nrm.format(t='a')} * {nrm.format(t='b')}))
      * 1000000.0) AS BIGINT) AS sim_q
  FROM (SELECT e.* FROM embeddings e JOIN cids ON cids.vec_id = e.vec_id) a
  CROSS JOIN (SELECT e.* FROM embeddings e JOIN cids ON cids.vec_id = e.vec_id) b
),
sel1 AS MATERIALIZED (
  SELECT qid, vec_id, {MMR_WR} * rel_q AS score FROM (
    SELECT qid, vec_id, rel_q,
      row_number() OVER (PARTITION BY qid ORDER BY rel_q DESC, vec_id) AS rn
    FROM cand
  ) WHERE rn = 1
),
picked1 AS MATERIALIZED (SELECT qid, vec_id AS pick1 FROM sel1),
{",".join(steps)}
SELECT qid, vec_id, CAST(step AS BIGINT) AS step, score FROM (
  SELECT qid, vec_id, 1 AS step, score FROM sel1
  {" ".join(f"UNION ALL SELECT qid, vec_id, {s}, score FROM sel{s}"
             for s in range(2, MMR_S + 1))}
) ORDER BY qid, step
"""


def q_ann_recall_pq(sf_dir: str):
    """Recall@k of the IVF-PQ index against exact brute-force cosine —
    the compression-loss eval a vector store runs before switching an
    index to PQ codes.  Same shape as q_ann_recall: both distributed
    pipelines execute concurrently, outputs are Q x k-bounded, the
    compare is a driver-side set intersection."""
    from rhealpixdggs_py_ray.ops import ann

    import concurrent.futures as cf

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    emb2 = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    with cf.ThreadPoolExecutor(2) as ex:
        fb = ex.submit(lambda: ann.ann_topk(emb).take_all())
        fa = ex.submit(lambda: ann.ann_topk_ivfpq(emb2).take_all())
        brute, approx = fb.result(), fa.result()
    b_by_q: dict[int, set[int]] = {}
    for r in brute:
        b_by_q.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    a_by_q: dict[int, set[int]] = {}
    for r in approx:
        a_by_q.setdefault(int(r["qid"]), set()).add(int(r["vec_id"]))
    qids = sorted(b_by_q)
    n_brute = np.array([len(b_by_q[q]) for q in qids], dtype=np.int64)
    n_hit = np.array(
        [len(b_by_q[q] & a_by_q.get(q, set())) for q in qids], dtype=np.int64
    )
    return ray.data.from_arrow(pa.table({
        "qid": pa.array(np.array(qids, dtype=np.int64)),
        "n_brute": pa.array(n_brute),
        "n_hit": pa.array(n_hit),
        "recall_micros": pa.array(n_hit * 1_000_000 // n_brute),
    }))


def sql_ann_recall_pq() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return f"""
WITH rb AS MATERIALIZED ({ann.ann_topk_sql()}),
rp AS MATERIALIZED ({ann.ann_topk_ivfpq_sql()}),
rhit AS MATERIALIZED (
  SELECT rb.qid, CAST(COUNT(rp.vec_id) AS BIGINT) AS n_hit
  FROM rb LEFT JOIN rp ON rp.qid = rb.qid AND rp.vec_id = rb.vec_id
  GROUP BY rb.qid
),
rnb AS MATERIALIZED (
  SELECT qid, CAST(COUNT(*) AS BIGINT) AS n_brute FROM rb GROUP BY qid
)
SELECT rnb.qid, rnb.n_brute, rhit.n_hit,
  rhit.n_hit * 1000000 // rnb.n_brute AS recall_micros
FROM rnb JOIN rhit ON rhit.qid = rnb.qid
"""


def q_clip_retrieval(sf_dir: str):
    """Text-to-image retrieval over the two-tower features (the CLIP
    retrieval shape): the first CLIP_NQ captions are queries; their
    64-dim token-vote embeddings project through P_txt on the driver
    (bounded: CLIP_NQ rows) and broadcast; every image batch decodes,
    pools and projects through P_img in the actor pool, scores all
    queries with the fold-ordered cosine, and keeps its per-batch
    top-CLIP_K — only ~K rows per (query, batch) reach the per-qid
    resolve.  Output (qid, vec_id, rank, cos_micros)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64, write_images_table
    from rhealpixdggs_py_ray.ops.ann import (
        _final_topk, _partial_topk_table, _seq_dots, _seq_norm)
    from rhealpixdggs_py_ray.ops.dedup import md5_u64_many

    write_images_table(IMG_DIR, IMG_N)
    j = np.arange(64 * CLIP_D, dtype=np.uint64)
    P_txt = (2.0 * ((splitmix64(j + np.uint64(515151)) >> np.uint64(11)
                     ).astype(np.float64) / float(1 << 53)) - 1.0
             ).reshape(64, CLIP_D)
    # query captions via a streaming masked scan (bounded result:
    # CLIP_NQ rows — never a whole-table driver read)
    def qmask(batch: pa.Table) -> pa.Table:
        ids_b = np.array([int(x[3:]) for x in
                          batch["image_id"].to_pylist()], dtype=np.int64)
        return batch.filter(pa.array(ids_b < CLIP_NQ))

    cap_rows = (
        ray.data.read_parquet(IMG_DIR, columns=["image_id", "caption"])
        .map_batches(qmask, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    cap_rows.sort(key=lambda r: int(r["image_id"][3:]))
    qids = np.array([int(r["image_id"][3:]) for r in cap_rows],
                    dtype=np.int64)
    caps = [r["caption"] for r in cap_rows]
    T = np.zeros((len(qids), 64), dtype=np.float64)
    for i, c in enumerate(caps):
        tk = c.split()
        if tk:
            h = md5_u64_many(tk)
            np.add.at(T, (np.full(len(tk), i), (h % np.uint64(64)).astype(np.int64)), 1.0)
    txt = _seq_dots(T, P_txt.T)
    tn = _seq_norm(txt)
    ref = ray.put((qids, txt, tn))

    ds = ray.data.read_parquet(
        IMG_DIR, columns=["image_id", "bytes", "fmt", "w", "h"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8),
    )

    class RetrScorer:
        def __init__(self):
            i = np.arange(48 * CLIP_D, dtype=np.uint64)
            f = (splitmix64(i + np.uint64(424242)) >> np.uint64(11)
                 ).astype(np.float64) / float(1 << 53)
            self.P_img = (2.0 * f - 1.0).reshape(48, CLIP_D)
            self.qids, self.txt, self.tn = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from rhealpixdggs_py_ray.fixtures import decode_image
            from rhealpixdggs_py_ray.ops.multimodal import resize_nearest

            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            n = len(blobs)
            B = np.empty((n, 48), dtype=np.float64)
            for k in range(n):
                pix = decode_image(blobs[k], fmts[k], int(ws[k]), int(hs[k]))
                small = resize_nearest(pix, 16, 16).astype(np.int64)
                B[k] = small.sum(axis=1).reshape(48).astype(np.float64)
            img = _seq_dots(B, self.P_img.T)          # (n, D)
            S = np.zeros((n, len(self.qids)), dtype=np.float64)
            for d in range(CLIP_D):                   # fold order == SQL
                S = S + img[:, d, None] * self.txt[None, :, d]
            S = S / (_seq_norm(img)[:, None] * self.tn[None, :])
            idx = np.array([int(i[3:]) for i in
                            batch["image_id"].to_pylist()], dtype=np.int64)
            return _partial_topk_table(self.qids, idx, S, CLIP_K)

    # bandwidth-bound decode stage: keep the capped actor pool
    partials = ds.map_batches(
        RetrScorer, batch_format="pyarrow", batch_size=512,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )
    return partials.groupby("qid").map_groups(
        _final_topk(CLIP_K), batch_format="pyarrow")


def sql_clip_retrieval() -> str:
    prefix, num, inrm, tnrm = _clip_sql_parts()
    return f"""
WITH {prefix},
rq AS MATERIALIZED (
  SELECT * FROM ctxt WHERE idx < {CLIP_NQ}
),
rs AS MATERIALIZED (
  SELECT rq.idx AS qid, cimg.idx AS vec_id,
    ({num}) / (sqrt({inrm}) * sqrt({tnrm})) AS s
  FROM cimg CROSS JOIN rq
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY s DESC, vec_id) AS rank,
  CAST(floor(s * 1000000.0) AS BIGINT) AS cos_micros
FROM rs QUALIFY rank <= {CLIP_K}
"""


# ---------------------------------------------------------------------------
# Round 4c: embedding norm outliers (embedding-table quality control)
# ---------------------------------------------------------------------------

def q_embedding_norm_outliers(sf_dir: str):
    """Embedding QC: exact quartiles of the (micro-quantized) L2 norm
    distribution and the count of vectors outside the 1.5-IQR Tukey
    fences — the standard screen for broken/degenerate vectors before
    ANN indexing.  One streaming pass emits per-batch (norm, count)
    histogram partials; the driver folds the bounded histogram
    (<= #distinct micro-norms rows) and reads quartiles + outlier
    counts straight off the cumulative counts — no second corpus pass,
    nothing large on the driver.  Output one row (n, q1_micros,
    q3_micros, fence_lo, fence_hi, n_lo, n_hi)."""
    from rhealpixdggs_py_ray.ops.ann import _seq_norm
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["embedding"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        M = _emb_matrix(batch)
        nm = np.floor(_seq_norm(M) * 1e6).astype(np.int64)
        uq, cnt = np.unique(nm, return_counts=True)
        return pa.table({"nm": pa.array(uq),
                         "c": pa.array(cnt.astype(np.int64))})

    hist: dict[int, int] = {}
    for bt in ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        for v, c in zip(bt["nm"].to_numpy(zero_copy_only=False),
                        bt["c"].to_numpy(zero_copy_only=False)):
            hist[int(v)] = hist.get(int(v), 0) + int(c)
    vals = np.array(sorted(hist), dtype=np.int64)
    cnts = np.array([hist[int(v)] for v in vals], dtype=np.int64)
    n = int(cnts.sum())
    csum = np.cumsum(cnts)
    k1 = max((n + 1) // 4, 1)
    k3 = min((3 * (n + 1)) // 4, n)
    q1 = int(vals[np.searchsorted(csum, k1)])
    q3 = int(vals[np.searchsorted(csum, k3)])
    span = (3 * (q3 - q1)) // 2
    flo, fhi = q1 - span, q3 + span
    n_lo = int(cnts[vals < flo].sum())
    n_hi = int(cnts[vals > fhi].sum())
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "q1_micros": pa.array([q1], type=pa.int64()),
        "q3_micros": pa.array([q3], type=pa.int64()),
        "fence_lo": pa.array([flo], type=pa.int64()),
        "fence_hi": pa.array([fhi], type=pa.int64()),
        "n_lo": pa.array([n_lo], type=pa.int64()),
        "n_hi": pa.array([n_hi], type=pa.int64()),
    })


def sql_embedding_norm_outliers() -> str:
    return """
WITH eno AS MATERIALIZED (
  SELECT CAST(floor(sqrt(list_sum(list_transform(embedding,
    x -> CAST(x AS DOUBLE) * x))) * 1000000.0) AS BIGINT) AS nm
  FROM embeddings
),
enr AS MATERIALIZED (
  SELECT nm, row_number() OVER (ORDER BY nm) AS r,
    COUNT(*) OVER () AS n
  FROM eno
),
enq AS MATERIALIZED (
  SELECT CAST(MAX(n) AS BIGINT) AS n,
    MAX(CASE WHEN r = greatest((n + 1) // 4, 1) THEN nm END) AS q1_micros,
    MAX(CASE WHEN r = least((3 * (n + 1)) // 4, n) THEN nm END) AS q3_micros
  FROM enr
),
enf AS MATERIALIZED (
  SELECT n, q1_micros, q3_micros,
    q1_micros - (3 * (q3_micros - q1_micros)) // 2 AS fence_lo,
    q3_micros + (3 * (q3_micros - q1_micros)) // 2 AS fence_hi
  FROM enq
)
SELECT f.n, f.q1_micros, f.q3_micros, f.fence_lo, f.fence_hi,
  CAST((SELECT COUNT(*) FROM eno WHERE nm < f.fence_lo) AS BIGINT) AS n_lo,
  CAST((SELECT COUNT(*) FROM eno WHERE nm > f.fence_hi) AS BIGINT) AS n_hi
FROM enf f
"""


def q_hybrid_rank(sf_dir: str):
    """Hybrid retrieval for doc/vec 0: fuse a lexical ranking (distinct-
    term overlap with doc 0, overlap DESC / doc_id ASC, depth RRF_K)
    and the cosine ANN ranking (ops/ann.py ann_topk, one query) with
    reciprocal-rank fusion — score = sum of 1e9 // (RRF_C + rank) over
    the lists containing the doc, an exact integer.  Both rankings are
    bit-identical to their SQL mirrors (cosine via the _seq_ fold
    parity), so the fused top-RRF_N is too.  Lexical side: broadcast
    doc-0 term set, per-batch partial top-K, one tiny merge.  Output
    (doc_id, rrf_e9)."""
    from rhealpixdggs_py_ray.ops import ann
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    q0 = docs.filter(expr="doc_id == 0").take_all()  # bounded: 1 row
    qset = frozenset(q0[0]["text"].split())
    q_ref = ray.put(qset)

    def overlap_partial(batch: pa.Table) -> pa.Table:
        qs = ray.get(q_ref)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        ov = np.array(
            [len(set(t.split()) & qs) for t in batch["text"].to_pylist()],
            dtype=np.int64)
        m = (ov > 0) & (did != 0)
        did, ov = did[m], ov[m]
        order = np.lexsort((did, -ov))[:RRF_K]
        return pa.table({
            "doc_id": pa.array(did[order].astype(np.int64)),
            "ov": pa.array(ov[order]),
            "g": pa.array(np.zeros(len(order), dtype=np.int64)),
        })

    def text_rank(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "v": pa.array([], type=pa.int64())})
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        ov = g["ov"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -ov))[:RRF_K]
        rank = np.arange(1, len(order) + 1, dtype=np.int64)
        return pa.table({
            "key": pa.array(did[order].astype(np.uint64), type=pa.uint64()),
            "v": pa.array(1_000_000_000 // (RRF_C + rank)),
        })

    textl = (
        docs.map_batches(overlap_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
        .groupby("g").map_groups(text_rank, batch_format="pyarrow")
    )

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    vec = ann.ann_topk(emb, n_queries=1, k=RRF_K)

    def vec_rank(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        rank = batch["rank"].to_numpy(zero_copy_only=False)
        return pa.table({
            "key": pa.array(vid.astype(np.uint64), type=pa.uint64()),
            "v": pa.array(1_000_000_000 // (RRF_C + rank)),
        })

    vecl = vec.map_batches(vec_rank, batch_format="pyarrow",
                           zero_copy_batch=True)
    fused = sum_by_u64_key(textl.union(vecl), "key", "v", "rrf_e9",
                           n_buckets=4)

    def topn(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "rrf_e9": pa.array([], type=pa.int64())})
        did = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g["rrf_e9"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -v))[:RRF_N]
        return pa.table({"doc_id": pa.array(did[order]),
                         "rrf_e9": pa.array(v[order])})

    def const(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "g", pa.array(np.zeros(batch.num_rows, dtype=np.int64)))

    # fused candidate set is <= 2*RRF_K rows: one tiny final group
    return (fused.map_batches(const, batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("g").map_groups(topn, batch_format="pyarrow"))


def sql_hybrid_rank() -> str:
    from rhealpixdggs_py_ray.ops import ann

    vec_sql = ann.ann_topk_sql(n_queries=1, k=RRF_K)
    return f"""
WITH hyq AS MATERIALIZED (
  SELECT DISTINCT unnest(string_split(text, ' ')) AS w
  FROM documents WHERE doc_id = 0
),
hyo AS MATERIALIZED (
  SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS ov FROM (
    SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS w
    FROM documents WHERE doc_id <> 0
  ) t JOIN hyq q ON q.w = t.w
  GROUP BY 1
),
hyt AS MATERIALIZED (
  SELECT doc_id, row_number() OVER (ORDER BY ov DESC, doc_id ASC) AS rn
  FROM hyo QUALIFY rn <= {RRF_K}
),
hyv AS MATERIALIZED ({vec_sql}),
hyr AS MATERIALIZED (
  SELECT doc_id, 1000000000 // ({RRF_C} + rn) AS v FROM hyt
  UNION ALL
  SELECT vec_id AS doc_id, 1000000000 // ({RRF_C} + rank) AS v FROM hyv
)
SELECT doc_id, CAST(SUM(v) AS BIGINT) AS rrf_e9
FROM hyr GROUP BY 1
ORDER BY rrf_e9 DESC, doc_id ASC LIMIT {RRF_N}
"""


def q_ndcg_eval(sf_dir: str):
    """Graded ANN quality eval: NDCG@10 of the IVF ranking against the
    exact cosine top-5 (binary relevance) — the positional metric a
    retrieval deployment tracks next to recall (q_ann_recall).  Both
    rankings are the existing distributed pipelines, run concurrently;
    their outputs are Q x k bounded, so the metric itself is a driver
    fold.  Discount weights quantize BEFORE summation —
    w(i) = floor(1e9 * ln(2) / ln(i+1)) — so DCG/IDCG are exact
    integer sums and ndcg_e9 an exact integer ratio.  Output (qid,
    n_rel_found, dcg, idcg, ndcg_e9)."""
    import concurrent.futures as cf

    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    emb2 = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    with cf.ThreadPoolExecutor(2) as ex:
        f_exact = ex.submit(lambda: ann.ann_topk(
            emb, n_queries=NDCG_Q, k=NDCG_REL).take_all())
        f_ivf = ex.submit(lambda: ann.ann_topk_ivf(
            emb2, n_queries=NDCG_Q, k=NDCG_AT).take_all())
        exact, ivf = f_exact.result(), f_ivf.result()  # bounded: Q*k rows

    rel = {(int(r["qid"]), int(r["vec_id"])) for r in exact}
    n_exact: dict[int, int] = {}
    for r in exact:
        n_exact[int(r["qid"])] = n_exact.get(int(r["qid"]), 0) + 1

    def w(i: int) -> int:
        return int(np.floor(1000000000.0 * np.log(2.0) / np.log(i + 1.0)))

    dcg: dict[int, int] = {q: 0 for q in n_exact}
    hits: dict[int, int] = {q: 0 for q in n_exact}
    for r in ivf:
        q, v, rank = int(r["qid"]), int(r["vec_id"]), int(r["rank"])
        if (q, v) in rel:
            dcg[q] += w(rank)
            hits[q] += 1
    rows = []
    for q in sorted(n_exact):
        idcg = sum(w(i) for i in range(1, n_exact[q] + 1))
        rows.append((q, hits[q], dcg[q], idcg,
                     dcg[q] * 1_000_000_000 // idcg))
    a = np.array(rows, dtype=np.int64).reshape(-1, 5)
    return pa.table({
        "qid": pa.array(a[:, 0]),
        "n_rel_found": pa.array(a[:, 1]),
        "dcg": pa.array(a[:, 2]),
        "idcg": pa.array(a[:, 3]),
        "ndcg_e9": pa.array(a[:, 4]),
    })


def sql_ndcg_eval() -> str:
    from rhealpixdggs_py_ray.ops import ann

    wexpr = ("CAST(floor(1000000000.0 * ln(2.0)"
             " / ln(CAST({i} + 1 AS DOUBLE))) AS BIGINT)")
    return f"""
WITH nde AS MATERIALIZED ({ann.ann_topk_sql(NDCG_Q, NDCG_REL)}),
ndi AS MATERIALIZED ({ann.ann_topk_ivf_sql(NDCG_Q, NDCG_AT)}),
ndh AS MATERIALIZED (
  SELECT i.qid, i.rank FROM ndi i
  JOIN nde e ON e.qid = i.qid AND e.vec_id = i.vec_id
),
ndd AS MATERIALIZED (
  SELECT qid, CAST(COUNT(*) AS BIGINT) AS n_rel_found,
    CAST(SUM({wexpr.format(i='rank')}) AS BIGINT) AS dcg
  FROM ndh GROUP BY 1
),
ndq AS MATERIALIZED (
  SELECT qid, CAST(COUNT(*) AS BIGINT) AS ne FROM nde GROUP BY 1
),
ndic AS MATERIALIZED (
  SELECT qid, CAST(SUM({wexpr.format(i='i')}) AS BIGINT) AS idcg
  FROM (SELECT qid, unnest(generate_series(1, ne)) AS i FROM ndq)
  GROUP BY 1
)
SELECT q.qid, COALESCE(d.n_rel_found, 0) AS n_rel_found,
  COALESCE(d.dcg, 0) AS dcg, c.idcg,
  CAST(COALESCE(d.dcg, 0) * 1000000000 // c.idcg AS BIGINT) AS ndcg_e9
FROM ndq q
JOIN ndic c ON c.qid = q.qid
LEFT JOIN ndd d ON d.qid = q.qid
"""


# ---------------------------------------------------------------------------
# Round 4d: persisted IVF index lifecycle (build -> pruned query)
# ---------------------------------------------------------------------------


def q_ann_ivf_persisted(sf_dir: str):
    """Index lifecycle as a first-class pipeline: build the IVF index
    (assignments written as parquet PARTITIONED BY inverted list),
    then answer the standard query set by reading ONLY the probed
    list partitions — at scale a query touches nprobe/n_lists of the
    index bytes and never the corpus.  Same seeds/assignment/probing
    as ann_topk_ivf, so the transient path's oracle verifies the
    persisted one (parity also pinned in tests)."""
    from rhealpixdggs_py_ray.ops import ann

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    emb2 = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann.ann_topk_ivf_persisted(emb, emb2)


def sql_ann_ivf_persisted() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_ivf_sql()


def q_ann_ivf_ckpt(sf_dir: str):
    """Checkpointed-index ANN (the resumable lifecycle, VERDICT r4
    item 6): the IVF build runs under state/checkpoint.CheckpointedRun
    — vec_id key-range partitions, atomic per-partition publish,
    manifests with lineage + metrics — then the query step reads the
    partitioned index with pruned part=*/list=c reads.  Same
    seeds/assignment/probing as ann_topk_ivf, so the transient oracle
    value-hash-verifies the whole checkpointed path; kill-mid-build
    resume is pinned in tests/test_ops_r5.py."""
    import glob as _glob
    import os
    import shutil

    from rhealpixdggs_py_ray.ops import ann

    out_root = f"/tmp/graft_ivf_ckpt_{os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(out_root, ignore_errors=True)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    emb2 = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = ann.ann_topk_ivf_checkpointed(
        f"{sf_dir}/embeddings.parquet", emb, emb2, out_root)
    out = out.materialize()  # bounded: n_queries * k rows
    if not len(_glob.glob(f"{out_root}/part=*.manifest.json")) == 2:
        raise AssertionError("ann_ivf_ckpt: expected 2 published part manifests")
    shutil.rmtree(out_root, ignore_errors=True)
    return out


def sql_ann_ivf_ckpt() -> str:
    from rhealpixdggs_py_ray.ops import ann

    return ann.ann_topk_ivf_sql()


def q_negative_samples(sf_dir: str):
    """Training-pair generation: for every node of the co-presence
    graph, NEG_PER_NODE negative partners — the first probes
    splitmix64(node * NEG_PROBES + p) % n_nodes (p ascending) landing
    on a DIFFERENT, NON-ADJACENT node (rank into the ascending node
    list).  Seeded rejection sampling made fully replayable; probes
    exhausting without enough valid hits emit fewer rows (p caps at
    NEG_PROBES).  Driver-bounded under the edge cap; the oracle
    enumerates the probe grid relationally and picks the first valid
    probes per node via row_number.  Output (user_id, neg_id, probe)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64

    ua, ub = _copresence_edge_ends(sf_dir, "negative_samples")
    nodes = np.unique(np.concatenate([ua, ub]))
    n = len(nodes)
    edge_set = set(zip(ua.tolist(), ub.tolist()))

    def adjacent(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in edge_set

    out_u, out_n, out_p = [], [], []
    for u in nodes.tolist():
        got = 0
        seen: set[int] = set()
        for p in range(NEG_PROBES):
            if got >= NEG_PER_NODE:
                break
            # % must stay in uint64: numpy uint64 % python-int
            # promotes to float64 and corrupts big hashes
            h = int(splitmix64(np.array(
                [u * NEG_PROBES + p], dtype=np.uint64))[0]
                % np.uint64(n))
            cand = int(nodes[h])
            if cand == u or adjacent(u, cand) or cand in seen:
                continue
            seen.add(cand)
            out_u.append(u)
            out_n.append(cand)
            out_p.append(p)
            got += 1
    return pa.table({
        "user_id": pa.array(np.array(out_u, dtype=np.int64)),
        "neg_id": pa.array(np.array(out_n, dtype=np.int64)),
        "probe": pa.array(np.array(out_p, dtype=np.int64)),
    })


def sql_negative_samples() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT node, p, CAST(node * {NP} + p AS BIGINT) AS s FROM nsp"
        .replace("{NP}", str(NEG_PROBES)),
        "node, p", "s", "h", prefix="nss")
    return f"""
WITH {_copresence_sql_ctes()},
nsn AS MATERIALIZED (
  SELECT node, row_number() OVER (ORDER BY node) - 1 AS rk FROM (
    SELECT ua AS node FROM cne UNION SELECT ub FROM cne
  )
),
nsc AS MATERIALIZED (SELECT CAST(COUNT(*) AS UBIGINT) AS n FROM nsn),
nsp AS MATERIALIZED (
  SELECT n.node, p.p FROM nsn n,
    (SELECT unnest(generate_series(0, {NEG_PROBES - 1})) AS p) p
),
nsh AS MATERIALIZED (
  SELECT node, p, h FROM {sm} q
),
nscand AS MATERIALIZED (
  SELECT h.node, h.p, t.node AS cand
  FROM nsh h JOIN nsn t
    ON t.rk = CAST(h.h % (SELECT n FROM nsc) AS BIGINT)
),
nsvalid AS MATERIALIZED (
  SELECT node, p, cand FROM nscand c
  WHERE c.cand <> c.node
    AND NOT EXISTS (SELECT 1 FROM cne e
      WHERE e.ua = least(c.node, c.cand) AND e.ub = greatest(c.node, c.cand))
    AND NOT EXISTS (SELECT 1 FROM nscand c2
      WHERE c2.node = c.node AND c2.cand = c.cand AND c2.p < c.p
        AND c2.cand <> c2.node
        AND NOT EXISTS (SELECT 1 FROM cne e2
          WHERE e2.ua = least(c2.node, c2.cand)
            AND e2.ub = greatest(c2.node, c2.cand)))
),
nsrank AS MATERIALIZED (
  SELECT node, p, cand,
    row_number() OVER (PARTITION BY node ORDER BY p) AS rn
  FROM nsvalid
)
SELECT CAST(node AS BIGINT) AS user_id, CAST(cand AS BIGINT) AS neg_id,
  CAST(p AS BIGINT) AS probe
FROM nsrank WHERE rn <= {NEG_PER_NODE}
"""


def q_mann_kendall(sf_dir: str):
    """Mann-Kendall trend test on the zero-filled daily series —
    S = sum over i<j of sign(v_j - v_i), tie-corrected variance kept
    as the integer var18 = n(n-1)(2n+5) - sum t(t-1)(2t+5), and the
    z-score via the exact integer isqrt (degree_assortativity trick):
    z_e6 = (S -+ 1) * 1e6 * ~ // isqrt(var18 * 18)... precisely
    tdiv((S - sgn(S)) * 18_000_000, isqrt(var18 * 18 * 18... see
    code)).  All integers, both sides.  Output one row (n, s, var18,
    z_e6)."""
    import math

    _, v = _daily_counts_driver(sf_dir)
    n = len(v)
    s = int(np.sign(v[None, :] - v[:, None])[
        np.triu_indices(n, k=1)].sum())
    _, tcnt = np.unique(v, return_counts=True)
    var18 = (n * (n - 1) * (2 * n + 5)
             - int(sum(t * (t - 1) * (2 * t + 5) for t in tcnt.tolist())))
    # var = var18/18; sd = sqrt(var18/18) = isqrt(var18*18)/18 approx
    den = math.isqrt(var18 * 18)

    def tdiv(a, b):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    adj = s - (1 if s > 0 else (-1 if s < 0 else 0))
    z_e6 = tdiv(adj * 18 * 1_000_000, den) if den else 0
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "s": pa.array([s], type=pa.int64()),
        "var18": pa.array([var18], type=pa.int64()),
        "z_e6": pa.array([z_e6], type=pa.int64()),
    })


def sql_mann_kendall() -> str:
    cand = "CAST(floor(sqrt(CAST(v18 * 18 AS DOUBLE))) AS HUGEINT)"
    isq = (f"(CASE WHEN ({cand} + 1) * ({cand} + 1) <= v18 * 18"
           f" THEN {cand} + 1"
           f" WHEN {cand} * {cand} > v18 * 18 THEN {cand} - 1"
           f" ELSE {cand} END)")
    return f"""
WITH mkc AS MATERIALIZED (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
mkr AS MATERIALIZED (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM mkc),
mkz AS MATERIALIZED (
  SELECT d.day, COALESCE(c.c, 0) AS v
  FROM (SELECT unnest(generate_series(r.d0, r.d1)) AS day FROM mkr r) d
  LEFT JOIN mkc c ON c.day = d.day
),
mks AS MATERIALIZED (
  SELECT CAST(SUM(CASE WHEN b.v > a.v THEN 1
                       WHEN b.v < a.v THEN -1 ELSE 0 END) AS BIGINT) AS s
  FROM mkz a JOIN mkz b ON b.day > a.day
),
mkt AS MATERIALIZED (
  SELECT CAST(SUM(t * (t - 1) * (2 * t + 5)) AS BIGINT) AS ties
  FROM (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM mkz GROUP BY v)
),
mkv AS MATERIALIZED (
  SELECT (SELECT COUNT(*) FROM mkz) AS n, s.s,
    CAST((SELECT COUNT(*) FROM mkz) * ((SELECT COUNT(*) FROM mkz) - 1)
      * (2 * (SELECT COUNT(*) FROM mkz) + 5) - t.ties AS HUGEINT) AS v18
  FROM mks s CROSS JOIN mkt t
)
SELECT CAST(n AS BIGINT) AS n, s, CAST(v18 AS BIGINT) AS var18,
  CAST(CASE WHEN v18 = 0 THEN 0 ELSE
    (abs((s - CASE WHEN s > 0 THEN 1 WHEN s < 0 THEN -1 ELSE 0 END))
     * 18 * 1000000 // {isq})
    * (CASE WHEN s - (CASE WHEN s > 0 THEN 1 WHEN s < 0 THEN -1 ELSE 0
       END) >= 0 THEN 1 ELSE -1 END) END AS BIGINT) AS z_e6
FROM mkv
"""


def q_elbow_point(sf_dir: str):
    """Elbow (knee) detection on the sorted per-user activity curve —
    the cutoff-picking op behind "how many power users": with the
    descending per-user counts c_1..c_k as curve points (i, c_i), the
    elbow maximizes the |cross product| distance to the first-to-last
    chord: |(k-1)*(c_i - c_1) - (i-1)*(c_k - c_1)| — EXACT integers,
    argmax ties to the smallest index.  Per-user counts ride one u64
    fold; the curve resolve is bounded by the user count.
    Output (elbow_rank, elbow_count, n_users, score)."""
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
    k = len(c)
    i = np.arange(1, k + 1, dtype=np.int64)
    score = np.abs((k - 1) * (c - c[0]) - (i - 1) * (c[-1] - c[0]))
    best = int(np.argmax(score))   # first max == smallest rank
    return pa.table({
        "elbow_rank": pa.array([best + 1], type=pa.int64()),
        "elbow_count": pa.array([int(c[best])], type=pa.int64()),
        "n_users": pa.array([k], type=pa.int64()),
        "score": pa.array([int(score[best])], type=pa.int64()),
    })


def sql_elbow_point() -> str:
    return """
WITH elc AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY 1
),
elr AS MATERIALIZED (
  SELECT c, row_number() OVER (ORDER BY c DESC, user_id ASC) AS i,
    COUNT(*) OVER () AS k
  FROM elc
),
elx AS MATERIALIZED (
  -- chord endpoints: c_1 = MAX(c), c_k = MIN(c) (descending order)
  SELECT i, c, k,
    abs((k - 1) * (c - (SELECT MAX(c) FROM elc))
      - (i - 1) * ((SELECT MIN(c) FROM elc)
        - (SELECT MAX(c) FROM elc))) AS score
  FROM elr
),
elb AS MATERIALIZED (
  SELECT i, c, k, score,
    row_number() OVER (ORDER BY score DESC, i ASC) AS rn
  FROM elx
)
SELECT CAST(i AS BIGINT) AS elbow_rank, c AS elbow_count,
  CAST(k AS BIGINT) AS n_users, CAST(score AS BIGINT) AS score
FROM elb WHERE rn = 1
"""


def q_matryoshka_quality(sf_dir: str):
    """Matryoshka truncation quality — how much of each embedding's
    energy the first half of the dimensions keeps (the retrieval
    cost/quality dial): cos^2(x, x_half) = ||x_half||^2 / ||x||^2
    computed over per-dimension quantized integers q = floor(x*10^6)
    (the pq_encode pattern), so cos2_e6 = nh2 * 10^6 // nf2 is exact.
    Pure vectorized map, never a shuffle.
    Output (vec_id, cos2_e6)."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quality(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        M = _emb_matrix(batch)
        # 1e5 quantum: nf2 * 10^6 must stay inside int64 (|x| < 1)
        q = np.floor(M.astype(np.float64) * 1e5).astype(np.int64)
        q2 = q * q
        half = q.shape[1] // 2
        nh2 = q2[:, :half].sum(axis=1)
        nf2 = q2.sum(axis=1)
        ok = nf2 > 0
        return pa.table({
            "vec_id": pa.array(ids[ok].astype(np.int64)),
            "cos2_e6": pa.array(nh2[ok] * 10 ** 6 // nf2[ok]),
        })

    return ds.map_batches(quality, batch_format="pyarrow",
                          zero_copy_batch=True)


def sql_matryoshka_quality() -> str:
    return """
WITH mqe AS MATERIALIZED (
  SELECT vec_id, len(embedding) AS d, embedding FROM embeddings
),
mqq AS MATERIALIZED (
  SELECT vec_id, i,
    CAST(floor(CAST(embedding[i] AS DOUBLE) * 100000.0) AS BIGINT) AS q,
    d
  FROM (SELECT vec_id, d, embedding,
          unnest(generate_series(1, d)) AS i FROM mqe) t
),
mqa AS MATERIALIZED (
  SELECT vec_id,
    CAST(SUM(CASE WHEN i <= d // 2 THEN q * q ELSE 0 END) AS HUGEINT)
      AS nh2,
    CAST(SUM(q * q) AS HUGEINT) AS nf2
  FROM mqq GROUP BY vec_id
)
SELECT vec_id, CAST(nh2 * 1000000 // nf2 AS BIGINT) AS cos2_e6
FROM mqa WHERE nf2 > 0
"""


# ---------------------------------------------------------------------------
# Round 4e: PQ codebook usage + functional band depth
# ---------------------------------------------------------------------------


def q_pq_codebook_usage(sf_dir: str):
    """Codebook health of the PQ index — dead or starved codes mean
    wasted quantization capacity: per (subspace, code) assignment
    counts unpacked from the base-8 pq codes (a 32-key fold over
    q_pq_encode's output).  Output (subspace, code, n)."""
    t = q_pq_encode(sf_dir)
    acc: dict = {}
    for b in (t.iter_batches(batch_format="pyarrow")
              if hasattr(t, "iter_batches") else [t]):
        if b.num_rows == 0:
            continue
        code = b["pq_code"].to_numpy(zero_copy_only=False)
        for m in range(4):
            cm = (code // (8 ** m)) % 8
            uq, cnt = np.unique(cm, return_counts=True)
            for c, n in zip(uq.tolist(), cnt.tolist()):
                acc[(m, int(c))] = acc.get((m, int(c)), 0) + int(n)
    ks = sorted(acc)
    return pa.table({
        "subspace": pa.array([k[0] for k in ks], type=pa.int64()),
        "code": pa.array([k[1] for k in ks], type=pa.int64()),
        "n": pa.array([acc[k] for k in ks], type=pa.int64()),
    })


def sql_pq_codebook_usage() -> str:
    inner = sql_pq_encode()
    return f"""
WITH pqu AS MATERIALIZED (
  SELECT pq_code FROM ({inner}) t
)
SELECT CAST(m.m AS BIGINT) AS subspace,
  CAST((pq_code // CASE m.m WHEN 0 THEN 1 WHEN 1 THEN 8
    WHEN 2 THEN 64 ELSE 512 END) % 8 AS BIGINT) AS code,
  CAST(COUNT(*) AS BIGINT) AS n
FROM pqu CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS m) m
GROUP BY 1, 2
"""


def q_embedding_isotropy(sf_dir: str):
    """Isotropy of the embedding cloud — anisotropic (cone-shaped)
    embeddings break cosine retrieval: r2_q = ||sum_i u_i||^2 where
    u_i is the per-vector unit direction quantized per dimension at
    1e-5 (the pq/circular pattern; 1e-5 keeps the 64 per-dim sums
    and their squares in int64) — isotropic clouds give r2 ~ n,
    collapsed ones r2 ~ n^2.  Per-batch 64-dim integer partial sums;
    driver fold.  Output (n_vecs, dim, r2_q, iso_e6 = r2_q * 1e6 //
    (n^2 * 1e10))."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def part(batch: pa.Table) -> pa.Table:
        M = _emb_matrix(batch).astype(np.float64)
        nrm = np.sqrt((M * M).sum(axis=1))
        ok = nrm > 0
        U = np.floor(M[ok] / nrm[ok][:, None] * 1e5).astype(np.int64)
        s = U.sum(axis=0)
        # the vector count rides as the d = -1 row: iter_batches may
        # coalesce several map outputs into one arrow batch
        return pa.table({
            "d": pa.array(np.r_[np.arange(U.shape[1], dtype=np.int64),
                                -1]),
            "s": pa.array(np.r_[s, int(ok.sum())]),
        })

    sums: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for d, s in zip(b["d"].to_pylist(), b["s"].to_pylist()):
            sums[d] = sums.get(d, 0) + int(s)
    n_vecs = sums.pop(-1, 0)
    dim = len(sums)
    r2 = sum(v * v for v in sums.values())
    iso = r2 * 10 ** 6 // (n_vecs * n_vecs * 10 ** 10) if n_vecs else 0
    return pa.table({
        "n_vecs": pa.array([n_vecs], type=pa.int64()),
        "dim": pa.array([dim], type=pa.int64()),
        "r2_q": pa.array([r2], type=pa.int64()),
        "iso_e6": pa.array([iso], type=pa.int64()),
    })


def sql_embedding_isotropy() -> str:
    return """
WITH eie AS MATERIALIZED (
  SELECT vec_id, embedding, len(embedding) AS d,
    sqrt(list_sum(list_transform(embedding,
      x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))) AS nrm
  FROM embeddings
),
eiq AS MATERIALIZED (
  SELECT vec_id, i,
    CAST(floor(CAST(embedding[i] AS DOUBLE) / nrm * 100000.0)
      AS BIGINT) AS u
  FROM (SELECT vec_id, embedding, nrm, d,
          unnest(generate_series(1, d)) AS i
        FROM eie WHERE nrm > 0) t
),
eis AS MATERIALIZED (
  SELECT i, CAST(SUM(u) AS HUGEINT) AS s FROM eiq GROUP BY i
),
ein AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n FROM eie WHERE nrm > 0
)
SELECT n.n AS n_vecs,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM eis) AS dim,
  (SELECT CAST(SUM(s * s) AS BIGINT) FROM eis) AS r2_q,
  CAST((SELECT SUM(s * s) FROM eis) * 1000000
    // (CAST(n.n AS HUGEINT) * n.n * 10000000000) AS BIGINT) AS iso_e6
FROM ein n
"""
