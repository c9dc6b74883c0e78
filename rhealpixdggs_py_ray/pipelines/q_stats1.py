"""Query-suite family module: stats1 (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_ann import q_nearest_centroid, sql_nearest_centroid  # noqa: F401



# ---------------------------------------------------------------------------
# SUID-prefix tile aggregation (combiner + driver fold)
# ---------------------------------------------------------------------------

def q_tile_counts(sf_dir: str):
    ds = indexed_events(sf_dir)
    return aggregate_tiles(ds, TILE_RES).select_columns(["tile_id", "n"])


def sql_tile_counts() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), RES, CFG, id_cols=("event_id",)
    )
    return (
        f"SELECT substr(cell_id, 1, {1 + TILE_RES}) AS tile_id, COUNT(*) AS n"
        f" FROM {inner} t GROUP BY 1"
    )


def q_agg_lineitem(sf_dir: str):
    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    partial = ds.map_batches(_LineitemCombiner(), batch_format="pyarrow", zero_copy_batch=True)
    return partial.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty_c", alias_name="sum_qty_c"),
        Sum("sum_base_c", alias_name="sum_base_c"),
        Sum("sum_disc_c", alias_name="sum_disc_c"),
        Sum("n_part", alias_name="n"),
    )


def sql_agg_lineitem() -> str:
    return (
        "SELECT l_returnflag, l_linestatus,"
        " CAST(SUM(CAST(floor(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_c,"
        " CAST(SUM(CAST(floor(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_c,"
        " CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100) AS BIGINT)) AS BIGINT) AS sum_disc_c,"
        " COUNT(*) AS n"
        " FROM lineitem GROUP BY l_returnflag, l_linestatus"
    )


def q_join_customer_nation(sf_dir: str):
    """Broadcast join + map-side combine: the nation table ships once
    via ray.put (zero-copy object-store read per task, no actor-pool
    startup for a stateless lookup), each batch pre-aggregates to at
    most 25 (n_name, count, sum) partial rows, and only those partials
    enter the groupby exchange (the first version shuffled all 150k
    joined rows into the sort: 3.8-5.3s vs ~1.2s)."""
    nation = (
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"], blocks=1)
        .to_pandas()
    )
    nkeys = nation["n_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(nkeys)
    lookup_ref = ray.put((nkeys[order], nation["n_name"].to_numpy()[order]))
    ds = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"], blocks=4)

    def join_combine(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(lookup_ref)
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        bal_c = np.floor(
            batch["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uq, inv = np.unique(nk, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, bal_c)
        pos = np.searchsorted(keys, uq)
        pos = np.clip(pos, 0, len(keys) - 1)
        hit = keys[pos] == uq  # inner-join semantics
        return pa.table(
            {
                "n_name": pa.array(names[pos][hit], type=pa.string()),
                "n_partial": pa.array(n[hit]),
                "s_partial": pa.array(s[hit]),
            }
        )

    partials = ds.map_batches(join_combine, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("n_name").aggregate(
        Sum("n_partial", alias_name="n_customers"),
        Sum("s_partial", alias_name="sum_bal_c"),
    )


def sql_join_customer_nation() -> str:
    return (
        "SELECT n_name, COUNT(*) AS n_customers,"
        " CAST(SUM(CAST(floor(c_acctbal*100) AS BIGINT)) AS BIGINT) AS sum_bal_c"
        " FROM customer JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name"
    )


def q_topk_orders(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"], blocks=4)
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def sql_topk_orders() -> str:
    return (
        "SELECT o_orderkey, o_totalprice FROM orders"
        " ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
    )


# ---------------------------------------------------------------------------
# Exact dedup (hash-partition + per-group min)
# ---------------------------------------------------------------------------

def q_curate(sf_dir: str):
    """Composed end-to-end curation pipeline — the realistic shape a
    training-data user runs: language filter (pred_lang == 'en') AND
    quality gate (n_tokens >= 5, alpha_ratio >= 0.5) -> exact dedup of
    the survivors (keep min doc_id per md5) -> per-source kept counts.
    One fused map stage computes lang + quality + md5 per batch (the
    operators compose row-aligned), then a bucket exchange dedupes and
    pre-counts, then a tiny per-source sum."""
    from rhealpixdggs_py_ray.ops.text import LangId, QualityScorer

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def curate_batch(batch: pa.Table) -> pa.Table:
        lang = LangId()(batch)
        qual = QualityScorer()(batch)
        keep = (
            (np.asarray(lang["pred_lang"]) == "en")
            & (qual["n_tokens"].to_numpy() >= 5)
            & (qual["alpha_ratio"].to_numpy() >= 0.5)
        )
        idx = np.flatnonzero(keep)
        texts = batch["text"].to_pylist()
        hexes = [hashlib.md5(texts[i].encode("utf-8")).hexdigest() for i in idx]
        bucket = np.fromiter(
            (int(h[:2], 16) & 31 for h in hexes), dtype=np.int64, count=len(hexes)
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(idx)),
                "source": batch["source"].take(pa.array(idx)),
                "text_md5": pa.array(hexes, type=pa.string()),
                "bucket": pa.array(bucket),
            }
        )

    def dedup_count(g: pa.Table) -> pa.Table:
        md5 = g["text_md5"].to_numpy(zero_copy_only=False)
        doc = g["doc_id"].to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(md5)
        order = np.lexsort((doc, codes))
        cs = codes[order]
        first = order[np.r_[True, cs[1:] != cs[:-1]]]
        src, cnt = np.unique(
            g["source"].to_numpy(zero_copy_only=False)[first], return_counts=True
        )
        return pa.table(
            {
                "source": pa.array(src, type=pa.string()),
                "n_partial": pa.array(cnt.astype(np.int64)),
            }
        )

    kept = ds.map_batches(curate_batch, batch_format="pyarrow", zero_copy_batch=True)
    partials = kept.groupby("bucket").map_groups(dedup_count, batch_format="pyarrow")
    return partials.groupby("source").aggregate(Sum("n_partial", alias_name="n_kept"))


def sql_curate() -> str:
    from rhealpixdggs_py_ray.ops import text

    return (
        f"WITH lang AS MATERIALIZED ({text.langid_sql()}),"
        f" qual AS MATERIALIZED ({text.quality_sql()}),"
        " f AS MATERIALIZED ("
        "  SELECT d.doc_id, d.source, md5(d.text) AS h"
        "  FROM documents d"
        "  JOIN lang l ON l.doc_id = d.doc_id"
        "  JOIN qual q ON q.doc_id = d.doc_id"
        "  WHERE l.pred_lang = 'en' AND q.n_tokens >= 5 AND q.alpha_ratio >= 0.5),"
        " k AS MATERIALIZED (SELECT h, MIN(doc_id) AS keep_id FROM f GROUP BY h)"
        " SELECT f.source, COUNT(*) AS n_kept"
        " FROM f JOIN k ON f.doc_id = k.keep_id GROUP BY f.source"
    )


def q_topk_per_group(sf_dir: str):
    """Per-group top-k (top-3 orders by totalprice within each
    o_orderpriority, ties -> smaller key): every batch keeps at most
    3 rows per group (vectorized lexsort partial top-k), so the final
    exchange merges <= 3*n_groups*n_blocks tiny partials — the
    distributed shape for 'best documents per domain' selection."""
    K = 3
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice", "o_orderpriority"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        pr = batch["o_orderpriority"].to_numpy(zero_copy_only=False)
        key = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        codes, uniques = pd.factorize(pr)
        order = np.lexsort((key, -price, codes))
        codes_s = codes[order]
        # rank within group after the (price DESC, key ASC) sort
        starts = np.flatnonzero(
            np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        )
        rank = np.arange(len(codes_s)) - np.repeat(starts, np.diff(np.append(starts, len(codes_s))))
        keep = order[rank < K]
        return pa.table(
            {
                "o_orderpriority": pa.array(pr[keep], type=pa.string()),
                "o_orderkey": pa.array(key[keep]),
                "price_c": pa.array(np.floor(price[keep] * 100).astype(np.int64)),
            }
        )

    def final(g: pa.Table) -> pa.Table:
        key = g["o_orderkey"].to_numpy(zero_copy_only=False)
        price = g["price_c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, -price))[:K]
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"].take(pa.array(order)),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
                "o_orderkey": pa.array(key[order]),
                "price_c": pa.array(price[order]),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("o_orderpriority").map_groups(final, batch_format="pyarrow")


def sql_topk_per_group() -> str:
    return (
        "SELECT o_orderpriority,"
        " CAST(row_number() OVER (PARTITION BY o_orderpriority"
        "   ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rank,"
        " o_orderkey, CAST(floor(o_totalprice*100) AS BIGINT) AS price_c"
        " FROM orders"
        " QUALIFY rank <= 3"
    )


# ---------------------------------------------------------------------------
# Deterministic stratified sampling (data mixing) + corpus vocabulary
# ---------------------------------------------------------------------------

def q_sample_stratified(sf_dir: str):
    """Deterministic stratified sampling (training-data mixing): each
    source stratum keeps rows at its own dyadic rate (srcN -> rate
    ((N % 4) + 1)/4) decided by splitmix64(doc_id) < rate * 2^64 — an
    exact integer rule, so a mixture-weight sweep over a fixed corpus
    is reproducible shard-by-shard.  Pure map, no shuffle: the 100 TB
    shape (the decision never looks outside the row)."""
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.fixtures import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def keep(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = splitmix64(did)
        m = (
            pc.cast(pc.utf8_slice_codeunits(batch["source"], 3), pa.int64())
            .to_numpy(zero_copy_only=False)
            % 4
        )
        # rate (m+1)/4: threshold (m+1)<<62; m==3 (rate 1.0) would
        # overflow uint64, so it keeps unconditionally
        thr = (m.astype(np.uint64) + np.uint64(1)) << np.uint64(62)
        return batch.filter(pa.array((m == 3) | (h < thr)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def sql_sample_stratified() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT doc_id, source FROM documents", "doc_id, source", "doc_id", "h"
    )
    m = "(CAST(substr(source, 4) AS BIGINT) % 4)"
    return (
        f"SELECT doc_id, source FROM {sm} t"
        f" WHERE {m} = 3"
        f" OR CAST(h AS HUGEINT) < ({m} + 1) * CAST(4611686018427387904 AS HUGEINT)"
    )


def q_sample_bottomk(sf_dir: str):
    """Deterministic per-source sample WITHOUT replacement via hash
    order statistics: the BOTTOMK_K docs with the smallest
    md5(doc_id) per source.  Unlike rate-based stratified sampling
    (sample_stratified) this guarantees an exact sample SIZE, is
    mergeable (bottom-k of bottom-ks), and doubles as a KMV distinct
    sketch.  Shape: per-batch partial bottom-k per source -> one tiny
    exchange over ≤ k rows per (batch, source)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        src = batch["source"].to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (md5_u64(str(int(x))) for x in ids), dtype=np.uint64, count=len(ids)
        )
        keep = np.zeros(len(ids), dtype=bool)
        for s in np.unique(src):
            m = np.flatnonzero(src == s)
            order = np.lexsort((ids[m], h[m]))[:BOTTOMK_K]
            keep[m[order]] = True
        return pa.table({
            "source": pa.array(src[keep]),
            "doc_id": pa.array(ids[keep].astype(np.int64)),
            "h": pa.array(h[keep]),
        })

    def final(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        h = g["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids, h))[:BOTTOMK_K]
        return pa.table({
            "source": g["source"].take(pa.array(order)),
            "rnk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            "doc_id": pa.array(ids[order].astype(np.int64)),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("source").map_groups(final, batch_format="pyarrow")


def sql_sample_bottomk() -> str:
    return (
        "SELECT source,"
        " CAST(row_number() OVER (PARTITION BY source"
        "   ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id)"
        "  AS BIGINT) AS rnk,"
        " doc_id"
        f" FROM documents QUALIFY rnk <= {BOTTOMK_K}"
    )


def q_priority_revenue(sf_dir: str):
    """Big-big fact join (TPC-H Q3 shape): lineitem ⋈ orders on
    orderkey, revenue per order priority.  Lineitem rows are combined
    per orderkey INSIDE each batch (map-side pre-aggregation), then
    both narrow sides meet in ONE union bucket exchange on
    h(orderkey); the resolve joins and immediately reduces to
    per-priority partials, so only a handful of rows reach the final
    groupby.  Revenue quantizes floor(price*(1-disc)*100) per row
    before any summation — order-free and bit-exact vs SQL."""
    # blocks=4/nb=8: the sort exchange's fixed cost scales with input
    # blocks x partitions (A/B at sf0.1: 8.2s @16 blocks/32 buckets vs
    # 1.9s @4/8 — remote compute is ~300ms either way); at 100 TB the
    # fragment count and a proportional bucket count take over.
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"],
               blocks=4)
    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"],
               blocks=4)
    nb = 8

    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    def _bkt(ids: np.ndarray) -> np.ndarray:
        return hash_bucket_u64(ids, nb)

    def li_side(batch: pa.Table) -> pa.Table:
        k = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        r = np.floor(p * (1 - d) * 100).astype(np.int64)
        uq, inv = np.unique(k, return_inverse=True)
        rev = np.zeros(len(uq), dtype=np.int64)
        np.add.at(rev, inv, r)
        nl = np.zeros(len(uq), dtype=np.int64)
        np.add.at(nl, inv, 1)
        return pa.table({
            "bucket": pa.array(_bkt(uq)),
            "side": pa.array(np.zeros(len(uq), dtype=np.int64)),
            "key": pa.array(uq.astype(np.int64)),
            "rev": pa.array(rev),
            "nl": pa.array(nl),
            "prio": pa.array([""] * len(uq), type=pa.string()),
        })

    def od_side(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(_bkt(k)),
            "side": pa.array(np.ones(len(k), dtype=np.int64)),
            "key": pa.array(k.astype(np.int64)),
            "rev": pa.array(np.zeros(len(k), dtype=np.int64)),
            "nl": pa.array(np.zeros(len(k), dtype=np.int64)),
            "prio": batch["o_orderpriority"],
        })

    def resolve(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        lmask = side == 0
        rev_all = g["rev"].to_numpy(zero_copy_only=False)
        nl_all = g["nl"].to_numpy(zero_copy_only=False)
        lk, lrev, lnl = key[lmask], rev_all[lmask], nl_all[lmask]
        ok = key[~lmask]
        opr = g["prio"].to_numpy(zero_copy_only=False)[~lmask]
        empty = pa.table({
            "o_orderpriority": pa.array([], type=pa.string()),
            "n_orders": pa.array([], type=pa.int64()),
            "n_lines": pa.array([], type=pa.int64()),
            "revenue_c": pa.array([], type=pa.int64()),
        })
        if not len(lk) or not len(ok):
            return empty
        # combine lineitem partials per key (a key spans many batches)
        uq, inv = np.unique(lk, return_inverse=True)
        rev = np.zeros(len(uq), dtype=np.int64)
        np.add.at(rev, inv, lrev)
        nl = np.zeros(len(uq), dtype=np.int64)
        np.add.at(nl, inv, lnl)
        order = np.argsort(ok)
        ok, opr = ok[order], opr[order]
        pos = np.minimum(np.searchsorted(ok, uq), len(ok) - 1)
        hit = ok[pos] == uq
        if not hit.any():
            return empty
        pr = opr[pos[hit]]
        pu, pi = np.unique(pr, return_inverse=True)
        n_ord = np.zeros(len(pu), dtype=np.int64)
        np.add.at(n_ord, pi, 1)
        n_li = np.zeros(len(pu), dtype=np.int64)
        np.add.at(n_li, pi, nl[hit])
        rv = np.zeros(len(pu), dtype=np.int64)
        np.add.at(rv, pi, rev[hit])
        return pa.table({
            "o_orderpriority": pa.array(pu, type=pa.string()),
            "n_orders": pa.array(n_ord),
            "n_lines": pa.array(n_li),
            "revenue_c": pa.array(rv),
        })

    both = li.map_batches(
        li_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(od.map_batches(od_side, batch_format="pyarrow", zero_copy_batch=True))
    part = both.groupby("bucket").map_groups(resolve, batch_format="pyarrow")
    return part.groupby("o_orderpriority").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("n_lines", alias_name="n_lines"),
        Sum("revenue_c", alias_name="revenue_c"),
    )


def q_nation_revenue(sf_dir: str):
    """Three-way join: orders ⋈ customer (big-big, one bucket exchange
    on h(custkey)) ⋈ nation (25-row dimension, ray.put broadcast into
    the resolve) -> order count + total-price cents per nation name.
    The canonical star-schema rollup: one exchange total, the fact
    table pre-combined map-side per custkey."""
    # blocks=4/nb=8: exchange fixed cost scales with blocks x
    # partitions (see priority_revenue / BASELINE.md round-2c note)
    od = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"],
               blocks=4)
    cu = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"],
               blocks=4)
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"], blocks=1).to_pandas()
    nk = nation["n_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(nk)
    n_ref = ray.put((nk[order], nation["n_name"].to_numpy()[order]))
    nb = 8
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    def od_side(batch: pa.Table) -> pa.Table:
        k = batch["o_custkey"].to_numpy(zero_copy_only=False)
        pc_ = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uq, inv = np.unique(k, return_inverse=True)
        tp = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tp, inv, pc_)
        n = np.zeros(len(uq), dtype=np.int64)
        np.add.at(n, inv, 1)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uq, nb)),
            "side": pa.array(np.zeros(len(uq), dtype=np.int64)),
            "key": pa.array(uq.astype(np.int64)),
            "a": pa.array(tp), "b": pa.array(n),
        })

    def cu_side(batch: pa.Table) -> pa.Table:
        k = batch["c_custkey"].to_numpy(zero_copy_only=False)
        nkk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(k, nb)),
            "side": pa.array(np.ones(len(k), dtype=np.int64)),
            "key": pa.array(k.astype(np.int64)),
            "a": pa.array(nkk), "b": pa.array(np.zeros(len(k), dtype=np.int64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        keys, names = ray.get(n_ref)
        side = g["side"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        a_all = g["a"].to_numpy(zero_copy_only=False)
        b_all = g["b"].to_numpy(zero_copy_only=False)
        omask = side == 0
        okey, otp, on = key[omask], a_all[omask], b_all[omask]
        ckey, cnat = key[~omask], a_all[~omask]
        empty = pa.table({
            "n_name": pa.array([], type=pa.string()),
            "n_orders": pa.array([], type=pa.int64()),
            "total_c": pa.array([], type=pa.int64()),
        })
        if not len(okey) or not len(ckey):
            return empty
        uq, inv = np.unique(okey, return_inverse=True)
        tp = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tp, inv, otp)
        n = np.zeros(len(uq), dtype=np.int64)
        np.add.at(n, inv, on)
        order = np.argsort(ckey)
        ckey, cnat = ckey[order], cnat[order]
        pos = np.minimum(np.searchsorted(ckey, uq), len(ckey) - 1)
        hit = ckey[pos] == uq
        if not hit.any():
            return empty
        nat = cnat[pos[hit]]
        nu, ni = np.unique(nat, return_inverse=True)
        cnt = np.zeros(len(nu), dtype=np.int64)
        np.add.at(cnt, ni, n[hit])
        tot = np.zeros(len(nu), dtype=np.int64)
        np.add.at(tot, ni, tp[hit])
        name = names[np.searchsorted(keys, nu)]
        return pa.table({
            "n_name": pa.array(name, type=pa.string()),
            "n_orders": pa.array(cnt),
            "total_c": pa.array(tot),
        })

    both = od.map_batches(
        od_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(cu.map_batches(cu_side, batch_format="pyarrow", zero_copy_batch=True))
    part = both.groupby("bucket").map_groups(resolve, batch_format="pyarrow")
    return part.groupby("n_name").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("total_c", alias_name="total_c"),
    )


def sql_nation_revenue() -> str:
    return (
        "SELECT n.n_name,"
        " CAST(COUNT(*) AS BIGINT) AS n_orders,"
        " CAST(SUM(CAST(floor(o.o_totalprice*100) AS BIGINT)) AS BIGINT)"
        "  AS total_c"
        " FROM orders o"
        " JOIN customer c ON c.c_custkey = o.o_custkey"
        " JOIN nation n ON n.n_nationkey = c.c_nationkey"
        " GROUP BY n.n_name"
    )


def sql_priority_revenue() -> str:
    return (
        "WITH l AS MATERIALIZED (SELECT l_orderkey,"
        " CAST(floor(l_extendedprice*(1-l_discount)*100) AS BIGINT) AS r"
        " FROM lineitem)"
        " SELECT o.o_orderpriority,"
        " CAST(COUNT(DISTINCT o.o_orderkey) AS BIGINT) AS n_orders,"
        " CAST(COUNT(*) AS BIGINT) AS n_lines,"
        " CAST(SUM(l.r) AS BIGINT) AS revenue_c"
        " FROM l JOIN orders o ON o.o_orderkey = l.l_orderkey"
        " GROUP BY o.o_orderpriority"
    )


def q_running_totals(sf_dir: str):
    """Ordered window function: per-user running total of value cents
    over event time (SUM OVER (PARTITION BY user ORDER BY ts,
    event_id)).  One bucket exchange on h(user_id) co-locates each
    user's history; the resolve lexsorts the bucket once and computes
    every user's cumulative sum vectorized (segmented cumsum — no
    per-user loop, no per-user ray group)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"], blocks=4)
    nb = 8  # exchange fixed cost ~ blocks x partitions (BASELINE r2c)

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, nb)),
            "user_id": batch["user_id"],
            "t": pa.array(ts.astype(np.int64)),
            "event_id": batch["event_id"],
            "v_c": pa.array(np.floor(
                batch["value"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)),
        })

    def window(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        v = g["v_c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, t, eid, v = uid[order], t[order], eid[order], v[order]
        cum = np.cumsum(v)
        # segmented: subtract the global running total just before each
        # user's first row (sign-safe, unlike a max-accumulate trick)
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        seg_base = np.where(starts > 0, cum[starts - 1], 0)
        seg_id = np.cumsum(new_seg) - 1
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "cum_value_c": pa.array(cum - seg_base[seg_id]),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(window, batch_format="pyarrow")


def sql_running_totals() -> str:
    return (
        "SELECT event_id, user_id,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) OVER ("
        "  PARTITION BY user_id ORDER BY ts, event_id"
        " ) AS BIGINT) AS cum_value_c"
        " FROM events"
    )
#                          every sufficient statistic stays far below 2^63


def q_regression_stats(sf_dir: str):
    """Distributed least-squares sufficient statistics per event_type
    (value trend over time): n, Σx, Σy, Σxx, Σxy with x = days since
    2024-01-01 and y = value cents — all exact integers, so the
    distributed sum is order-free and the user derives slope/intercept
    from five numbers instead of re-scanning 100 TB.  The
    sufficient-statistics shape is the general pattern for distributed
    closed-form model fits."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        x = ts.astype(np.int64) // 86_400_000_000 - REG_EPOCH_DAYS
        y = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(et, return_inverse=True)
        out = {}
        for name, arr in (
            ("n", np.ones(len(x), dtype=np.int64)),
            ("sum_x", x), ("sum_y", y), ("sum_xx", x * x), ("sum_xy", x * y),
        ):
            s = np.zeros(len(uq), dtype=np.int64)
            np.add.at(s, inv, arr)
            out[name] = pa.array(s)
        return pa.table({"event_type": pa.array(uq), **out})

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("event_type").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_x", alias_name="sum_x"),
        Sum("sum_y", alias_name="sum_y"),
        Sum("sum_xx", alias_name="sum_xx"),
        Sum("sum_xy", alias_name="sum_xy"),
    )


def sql_regression_stats() -> str:
    x = f"(epoch_us(ts) // 86400000000 - {REG_EPOCH_DAYS})"
    y = "CAST(floor(value*100) AS BIGINT)"
    return (
        "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,"
        f" CAST(SUM({x}) AS BIGINT) AS sum_x,"
        f" CAST(SUM({y}) AS BIGINT) AS sum_y,"
        f" CAST(SUM({x} * {x}) AS BIGINT) AS sum_xx,"
        f" CAST(SUM({x} * {y}) AS BIGINT) AS sum_xy"
        " FROM events GROUP BY event_type"
    )


def q_props_parse(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column with
    a zero-copy pyarrow.compute regex kernel (no Python per row), then
    aggregate value stats per extracted key.  The parse+combine is one
    map; only ≤ |k| partial rows per batch reach the exchange."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", columns=["props", "value"])

    def parse(batch: pa.Table) -> pa.Table:
        ks = pc.extract_regex(batch["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(ks, "k"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        vc = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uq, inv = np.unique(k, return_inverse=True)
        n = np.zeros(len(uq), dtype=np.int64)
        np.add.at(n, inv, 1)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, vc)
        return pa.table({
            "k": pa.array(uq),
            "n": pa.array(n),
            "sum_value_c": pa.array(s),
        })

    part = ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("k").aggregate(
        Sum("n", alias_name="n"), Sum("sum_value_c", alias_name="sum_value_c")
    )


def sql_props_parse() -> str:
    return (
        "SELECT CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT) AS k,"
        " CAST(COUNT(*) AS BIGINT) AS n,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c"
        " FROM events GROUP BY 1"
    )


def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) + COUNT(*) per event_type.

    Shape: per-batch lexsort dedup of (event_type, user_id) pairs with
    a raw-row tally -> ONE exchange bucketed by h(user_id) (a pair
    lives in exactly one bucket, so per-bucket distinct is globally
    exact) -> per-bucket partials -> tiny final groupby over the
    handful of event types.  Never a per-user ray group."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"], blocks=4)
    n_buckets = sizing.exchange_buckets(32)

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et_uniq, et_inv = np.unique(et, return_inverse=True)
        order = np.lexsort((uid, et_inv))
        ei, ui = et_inv[order], uid[order]
        new = np.ones(len(ui), dtype=bool)
        new[1:] = (ei[1:] != ei[:-1]) | (ui[1:] != ui[:-1])
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, len(ui))).astype(np.int64)
        ei, ui = ei[starts], ui[starts]
        from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

        bucket = hash_bucket_u64(ui, n_buckets)
        return pa.table({
            "bucket": pa.array(bucket),
            "event_type": pa.array(et_uniq[ei]),
            "user_id": pa.array(ui),
            "cnt": pa.array(cnt),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        cnt = g["cnt"].to_numpy(zero_copy_only=False)
        et_uniq, et_inv = np.unique(et, return_inverse=True)
        order = np.lexsort((uid, et_inv))
        ei, ui, ci = et_inv[order], uid[order], cnt[order]
        new = np.ones(len(ui), dtype=bool)
        new[1:] = (ei[1:] != ei[:-1]) | (ui[1:] != ui[:-1])
        n_users = np.zeros(len(et_uniq), dtype=np.int64)
        np.add.at(n_users, ei[new], 1)
        n_events = np.zeros(len(et_uniq), dtype=np.int64)
        np.add.at(n_events, ei, ci)
        return pa.table({
            "event_type": pa.array(et_uniq, type=pa.string()),
            "n_users": pa.array(n_users),
            "n_events": pa.array(n_events),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    buckets = part.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")
    return buckets.groupby("event_type").aggregate(
        Sum("n_users", alias_name="n_users"),
        Sum("n_events", alias_name="n_events"),
    )


def sql_distinct_users() -> str:
    return (
        "SELECT event_type,"
        " CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,"
        " CAST(COUNT(*) AS BIGINT) AS n_events"
        " FROM events GROUP BY event_type"
    )


def q_hll_registers(sf_dir: str):
    """HyperLogLog register sketch of distinct user_ids per event_type
    — the approximate-distinct aggregate the reference has no analogue
    for (SURVEY §2.6 notes it has no sketches at all).  Deterministic
    md5 hashing (ops/dedup.md5_u64 == DuckDB md5_number_lower), so the
    REGISTERS themselves are exact integers the oracle reproduces; the
    user applies the harmonic-mean estimator downstream.  Shape:
    per-batch distinct-uid hash + np.maximum partials -> one tiny
    (event_type, reg) max exchange; mergeable by construction (max is
    commutative), i.e. the 100 TB shape for distinct monitoring."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    mask56 = np.uint64((1 << 56) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et_uniq, et_inv = np.unique(et, return_inverse=True)
        # hash each distinct uid once per batch
        uu, ui = np.unique(uid, return_inverse=True)
        h = np.fromiter(
            (md5_u64(str(int(x))) for x in uu), dtype=np.uint64, count=len(uu)
        )[ui]
        reg = (h >> np.uint64(56)).astype(np.int64)
        suf = h & mask56
        # exact bit_length via 56 vectorized compares (float frexp is
        # NOT exact above 2^53)
        bl = np.zeros(len(suf), dtype=np.int64)
        for k in range(56):
            bl += (suf >= np.uint64(1 << k)).astype(np.int64)
        rho = 57 - bl  # suffix==0 -> bl 0 -> rho 57
        key = et_inv * 256 + reg
        ku, ki = np.unique(key, return_inverse=True)
        mx = np.zeros(len(ku), dtype=np.int64)
        np.maximum.at(mx, ki, rho)
        return pa.table({
            "event_type": pa.array(et_uniq[ku // 256]),
            "reg": pa.array((ku % 256).astype(np.int64)),
            "rho": pa.array(mx),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["event_type", "reg"]).aggregate(
        Max("rho", alias_name="rho")
    )


def sql_hll_registers() -> str:
    return (
        "WITH h AS MATERIALIZED (SELECT event_type,"
        "  md5_number_lower(CAST(user_id AS VARCHAR)) AS h FROM events)"
        " SELECT event_type, CAST(h >> 56 AS BIGINT) AS reg,"
        "  MAX(CASE WHEN h % 72057594037927936 = 0 THEN 57"
        "    ELSE 57 - length(printf('%b',"
        "      CAST(h % 72057594037927936 AS BIGINT))) END) AS rho"
        " FROM h GROUP BY 1, 2"
    )


def q_quantiles(sf_dir: str):
    """Distributed EXACT quantiles (p50/p90/p99 of events.value per
    event_type) via cent-quantized histograms: each batch emits a
    partial (event_type, cent, n) histogram, one small exchange merges
    them per type, and the quantile is read off the cumulative counts
    with pure-integer rank arithmetic (k_q = ceil(q*N) as (q_num*N +
    q_den-1) // q_den) — the streaming shape for value-distribution
    monitoring over a 100 TB corpus, with no per-row sort anywhere."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def part_hist(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": et, "c": c})
            .groupby(["event_type", "c"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"].to_numpy(), type=pa.string()),
                "c": pa.array(g["c"].to_numpy()),
                "n": pa.array(g["n"].to_numpy().astype(np.int64)),
            }
        )

    def resolve(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(c, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, n)
        cum = np.cumsum(s)
        tot = int(cum[-1])
        ranks = ((tot + 1) // 2, (9 * tot + 9) // 10, (99 * tot + 99) // 100)
        p = [int(uq[np.searchsorted(cum, k)]) for k in ranks]
        return pa.table(
            {
                "event_type": g["event_type"].slice(0, 1),
                "n": pa.array([tot], type=pa.int64()),
                "p50_c": pa.array([p[0]], type=pa.int64()),
                "p90_c": pa.array([p[1]], type=pa.int64()),
                "p99_c": pa.array([p[2]], type=pa.int64()),
            }
        )

    part = ds.map_batches(part_hist, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("event_type").map_groups(resolve, batch_format="pyarrow")


def sql_quantiles() -> str:
    return (
        "WITH h AS MATERIALIZED (SELECT event_type,"
        " CAST(floor(value*100) AS BIGINT) AS c, COUNT(*) AS n"
        " FROM events GROUP BY 1, 2),"
        " cum AS (SELECT event_type, c,"
        "  SUM(n) OVER (PARTITION BY event_type ORDER BY c) AS cn,"
        "  SUM(n) OVER (PARTITION BY event_type) AS tot FROM h)"
        " SELECT event_type, CAST(MAX(tot) AS BIGINT) AS n,"
        "  MIN(CASE WHEN cn >= (tot+1)//2 THEN c END) AS p50_c,"
        "  MIN(CASE WHEN cn >= (9*tot+9)//10 THEN c END) AS p90_c,"
        "  MIN(CASE WHEN cn >= (99*tot+99)//100 THEN c END) AS p99_c"
        " FROM cum GROUP BY event_type"
    )


def q_winsorize(sf_dir: str):
    """Outlier clipping (winsorization): clamp events.value to the
    exact per-type [p05, p95] cent thresholds, then aggregate.  Pass 1
    reuses the quantile histogram exchange to produce the tiny
    threshold table (one row per event type), broadcast via ray.put;
    pass 2 is a pure map emitting integer partials (clip counts +
    clamped cent sums, bit-exact under any summation order) merged by
    a final handful-of-groups aggregate."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def part_hist(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        g = (
            pd.DataFrame({"event_type": et, "c": c})
            .groupby(["event_type", "c"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table({
            "event_type": pa.array(g["event_type"].to_numpy(), type=pa.string()),
            "c": pa.array(g["c"].to_numpy()),
            "n": pa.array(g["n"].to_numpy().astype(np.int64)),
        })

    def thresholds(g: pa.Table) -> pa.Table:
        c = g["c"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(c, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, n)
        cum = np.cumsum(s)
        tot = int(cum[-1])
        lo = int(uq[np.searchsorted(cum, (5 * tot + 99) // 100)])
        hi = int(uq[np.searchsorted(cum, (95 * tot + 99) // 100)])
        return pa.table({
            "event_type": g["event_type"].slice(0, 1),
            "lo": pa.array([lo], type=pa.int64()),
            "hi": pa.array([hi], type=pa.int64()),
        })

    thr = (
        ds.map_batches(part_hist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(thresholds, batch_format="pyarrow")
        .to_pandas()  # one row per event type
    )
    thr_ref = ray.put({
        r.event_type: (int(r.lo), int(r.hi)) for r in thr.itertuples()
    })

    def clamp_partial(batch: pa.Table) -> pa.Table:
        bounds = ray.get(thr_ref)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        et_uniq, et_inv = np.unique(et, return_inverse=True)
        lo = np.array([bounds[e][0] for e in et_uniq], dtype=np.int64)[et_inv]
        hi = np.array([bounds[e][1] for e in et_uniq], dtype=np.int64)[et_inv]
        clamped = np.clip(c, lo, hi)
        n = np.zeros(len(et_uniq), dtype=np.int64)
        np.add.at(n, et_inv, 1)
        nlo = np.zeros(len(et_uniq), dtype=np.int64)
        np.add.at(nlo, et_inv, (c < lo).astype(np.int64))
        nhi = np.zeros(len(et_uniq), dtype=np.int64)
        np.add.at(nhi, et_inv, (c > hi).astype(np.int64))
        sc = np.zeros(len(et_uniq), dtype=np.int64)
        np.add.at(sc, et_inv, clamped)
        return pa.table({
            "event_type": pa.array(et_uniq, type=pa.string()),
            "n": pa.array(n), "n_clip_lo": pa.array(nlo),
            "n_clip_hi": pa.array(nhi), "sum_clamped_c": pa.array(sc),
        })

    part = ds.map_batches(clamp_partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("event_type").aggregate(
        Sum("n", alias_name="n"),
        Sum("n_clip_lo", alias_name="n_clip_lo"),
        Sum("n_clip_hi", alias_name="n_clip_hi"),
        Sum("sum_clamped_c", alias_name="sum_clamped_c"),
    )


def sql_winsorize() -> str:
    return (
        "WITH h AS MATERIALIZED (SELECT event_type,"
        " CAST(floor(value*100) AS BIGINT) AS c, COUNT(*) AS n"
        " FROM events GROUP BY 1, 2),"
        " cum AS (SELECT event_type, c,"
        "  SUM(n) OVER (PARTITION BY event_type ORDER BY c) AS cn,"
        "  SUM(n) OVER (PARTITION BY event_type) AS tot FROM h),"
        " thr AS MATERIALIZED (SELECT event_type,"
        "  MIN(CASE WHEN cn >= (5*tot+99)//100 THEN c END) AS lo,"
        "  MIN(CASE WHEN cn >= (95*tot+99)//100 THEN c END) AS hi"
        "  FROM cum GROUP BY event_type),"
        " e AS (SELECT e.event_type,"
        "  CAST(floor(e.value*100) AS BIGINT) AS c, t.lo, t.hi"
        "  FROM events e JOIN thr t USING (event_type))"
        " SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,"
        "  CAST(SUM(CASE WHEN c < lo THEN 1 ELSE 0 END) AS BIGINT) AS n_clip_lo,"
        "  CAST(SUM(CASE WHEN c > hi THEN 1 ELSE 0 END) AS BIGINT) AS n_clip_hi,"
        "  CAST(SUM(least(greatest(c, lo), hi)) AS BIGINT) AS sum_clamped_c"
        " FROM e GROUP BY event_type"
    )


def q_tile_pyramid(sf_dir: str):
    """Aggregation pyramid: per-tile counts at resolutions 0..3 from a
    SINGLE res-9 indexing pass — every batch emits (res, tile, n)
    partials for all levels (np.unique on the packed-SUID prefix via
    su.parent), and one exchange carries the whole pyramid; no
    per-level re-index or re-shuffle.  The standard DGGS rollup shape
    for serving map tiles at every zoom from one scan."""
    ds = indexed_events(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        u = batch["cell_u64"].to_numpy(zero_copy_only=False)
        res_out, tile_out, n_out = [], [], []
        for r in range(PYRAMID_MAX_RES + 1):
            uq, cnt = np.unique(su.parent(u, r), return_counts=True)
            res_out.append(np.full(len(uq), r, dtype=np.int64))
            tile_out.append(su.to_string_fixed(uq, r))
            n_out.append(cnt.astype(np.int64))
        return pa.table(
            {
                "res": pa.array(np.concatenate(res_out)),
                "tile_id": pa.concat_arrays(tile_out),
                "n": pa.array(np.concatenate(n_out)),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["res", "tile_id"]).aggregate(Sum("n", alias_name="n"))


def sql_tile_pyramid() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), RES, CFG, id_cols=("event_id",)
    )
    return (
        f"WITH pts AS MATERIALIZED (SELECT cell_id FROM {inner} t)"
        " SELECT r.res, substr(cell_id, 1, 1 + r.res) AS tile_id,"
        "   CAST(COUNT(*) AS BIGINT) AS n"
        " FROM pts CROSS JOIN"
        f"  (SELECT unnest(generate_series(0, {PYRAMID_MAX_RES})) AS res) r"
        " GROUP BY r.res, tile_id"
    )


def q_pivot_events(sf_dir: str):
    """Pivot / wide aggregation: one row per day, one count column per
    event_type (the columnar report shape).  The pivot happens on the
    MAP side — each batch emits already-wide per-day partials (5 known
    type columns), so the exchange carries ~days × 6 ints, never a
    (day, type) long table."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        day = ts.astype(np.int64) // 86_400_000_000
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        day_uniq, day_inv = np.unique(day, return_inverse=True)
        cols = {"day": pa.array(day_uniq)}
        for t in PIVOT_TYPES:
            n = np.zeros(len(day_uniq), dtype=np.int64)
            np.add.at(n, day_inv[et == t], 1)
            cols[f"n_{t}"] = pa.array(n)
        tot = np.zeros(len(day_uniq), dtype=np.int64)
        np.add.at(tot, day_inv, 1)
        cols["n_total"] = pa.array(tot)
        return pa.table(cols)

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    aggs = [Sum(f"n_{t}", alias_name=f"n_{t}") for t in PIVOT_TYPES]
    aggs.append(Sum("n_total", alias_name="n_total"))
    return p.groupby("day").aggregate(*aggs)


def sql_pivot_events() -> str:
    cols = ",\n  ".join(
        f"CAST(COUNT(*) FILTER (WHERE event_type = '{t}') AS BIGINT) AS n_{t}"
        for t in PIVOT_TYPES
    )
    return f"""
SELECT epoch_us(ts) // 86400000000 AS day,
  {cols},
  CAST(COUNT(*) AS BIGINT) AS n_total
FROM events GROUP BY 1
"""


def q_user_setops(sf_dir: str):
    """Distributed set algebra between two key sets (event users vs
    order customers): INTERSECT / EXCEPT / UNION cardinalities in one
    pass.  Per-batch distinct partials with a side bitmask -> ONE
    h(key) bucket exchange (each key lands in exactly one bucket, so
    per-bucket bit-OR is globally exact) -> 1-row fold."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ev = _read(sf_dir, "events", columns=["user_id"], blocks=4)
    od = _read(sf_dir, "orders", columns=["o_custkey"], blocks=4)

    def side(col: str, bit: int):
        def partial(batch: pa.Table) -> pa.Table:
            k = np.unique(batch[col].to_numpy(zero_copy_only=False))
            return pa.table({
                "bucket": pa.array(hash_bucket_u64(k, n_buckets)),
                "key": pa.array(k.astype(np.int64)),
                "sides": pa.array(np.full(len(k), bit, dtype=np.int64)),
            })
        return partial

    both = ev.map_batches(
        side("user_id", 1), batch_format="pyarrow", zero_copy_batch=True
    ).union(od.map_batches(
        side("o_custkey", 2), batch_format="pyarrow", zero_copy_batch=True
    ))

    def per_bucket(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy(zero_copy_only=False)
        sides = g["sides"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(key, return_inverse=True)
        mask = np.zeros(len(uniq), dtype=np.int64)
        np.bitwise_or.at(mask, inv, sides)
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "n_events_only": pa.array([int(np.count_nonzero(mask == 1))], type=pa.int64()),
            "n_orders_only": pa.array([int(np.count_nonzero(mask == 2))], type=pa.int64()),
            "n_both": pa.array([int(np.count_nonzero(mask == 3))], type=pa.int64()),
        })

    b = both.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")

    def resolve(g: pa.Table) -> pa.Table:
        eo = int(pc.sum(g["n_events_only"]).as_py())
        oo = int(pc.sum(g["n_orders_only"]).as_py())
        nb = int(pc.sum(g["n_both"]).as_py())
        return pa.table({
            "n_event_users": pa.array([eo + nb], type=pa.int64()),
            "n_order_custs": pa.array([oo + nb], type=pa.int64()),
            "n_both": pa.array([nb], type=pa.int64()),
            "n_events_only": pa.array([eo], type=pa.int64()),
            "n_orders_only": pa.array([oo], type=pa.int64()),
            "n_union": pa.array([eo + oo + nb], type=pa.int64()),
        })

    return b.groupby("g").map_groups(resolve, batch_format="pyarrow")


def sql_user_setops() -> str:
    return """
WITH e AS MATERIALIZED (SELECT DISTINCT user_id AS k FROM events),
o AS MATERIALIZED (SELECT DISTINCT o_custkey AS k FROM orders),
b AS MATERIALIZED (SELECT k FROM e INTERSECT SELECT k FROM o),
eo AS MATERIALIZED (SELECT k FROM e EXCEPT SELECT k FROM o),
oo AS MATERIALIZED (SELECT k FROM o EXCEPT SELECT k FROM e)
SELECT
  CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_event_users,
  CAST((SELECT COUNT(*) FROM o) AS BIGINT) AS n_order_custs,
  CAST((SELECT COUNT(*) FROM b) AS BIGINT) AS n_both,
  CAST((SELECT COUNT(*) FROM eo) AS BIGINT) AS n_events_only,
  CAST((SELECT COUNT(*) FROM oo) AS BIGINT) AS n_orders_only,
  CAST((SELECT COUNT(*) FROM (SELECT k FROM e UNION SELECT k FROM o)) AS BIGINT)
    AS n_union
"""


def q_percentile_rank(sf_dir: str):
    """Exact percentile-rank normalization of a per-doc metric within
    its language (quality-threshold calibration): pct_micros =
    floor(1e6 * n_smaller / (n_lang - 1)).  Two passes, ZERO
    exchanges: (1) per-batch (lang, n_chars) histogram partials folded
    on the driver (bounded by metric cardinality, not corpus size);
    (2) broadcast cumulative histogram + np.searchsorted lookup map."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def hist(batch: pa.Table) -> pa.Table:
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        lu, li = np.unique(lang, return_inverse=True)
        vu, vi = np.unique(v, return_inverse=True)
        key = li * len(vu) + vi
        ku, kc = np.unique(key, return_counts=True)
        return pa.table({
            "lang": pa.array(lu[ku // len(vu)]),
            "val": pa.array(vu[ku % len(vu)]),
            "n": pa.array(kc.astype(np.int64)),
        })

    folded: dict[str, dict[int, int]] = {}
    for bt in ds.map_batches(
        hist, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        for lg, v, n in zip(
            bt["lang"].to_pylist(),
            bt["val"].to_numpy(zero_copy_only=False),
            bt["n"].to_numpy(zero_copy_only=False),
        ):
            d = folded.setdefault(lg, {})
            d[int(v)] = d.get(int(v), 0) + int(n)
    lookup = {}
    for lg, d in folded.items():
        vals = np.array(sorted(d), dtype=np.int64)
        cnts = np.array([d[int(v)] for v in vals], dtype=np.int64)
        cum = np.concatenate(([0], np.cumsum(cnts)[:-1]))  # n strictly smaller
        lookup[lg] = (vals, cum, int(cnts.sum()))
    lut_ref = ray.put(lookup)

    def rank(batch: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        n_lt = np.zeros(len(v), dtype=np.int64)
        pct = np.zeros(len(v), dtype=np.int64)
        for lg in np.unique(lang):
            vals, cum, total = lut[lg]
            m = lang == lg
            lt = cum[np.searchsorted(vals, v[m])]
            n_lt[m] = lt
            if total > 1:
                pct[m] = lt * 1_000_000 // (total - 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "n_chars": batch["n_chars"],
            "n_lt": pa.array(n_lt),
            "pct_micros": pa.array(pct),
        })

    return ds.map_batches(rank, batch_format="pyarrow", zero_copy_batch=True)


def sql_percentile_rank() -> str:
    return """
WITH r AS MATERIALIZED (
  SELECT doc_id, lang, n_chars,
    CAST(RANK() OVER (PARTITION BY lang ORDER BY n_chars) - 1 AS BIGINT)
      AS n_lt,
    COUNT(*) OVER (PARTITION BY lang) AS n_lang
  FROM documents
)
SELECT doc_id, lang, n_chars, n_lt,
  CASE WHEN n_lang > 1 THEN n_lt * 1000000 // (n_lang - 1)
    ELSE 0 END AS pct_micros
FROM r
"""


def q_cms_heavy_hitters(sf_dir: str):
    """Count-Min-Sketch heavy hitters over event user_ids: per-batch
    (D x W) register partials sum into one tiny driver-folded matrix
    (registers are counters — merge = add, the mergeable-sketch
    property); candidates' exact counts come from one h(user) bucket
    exchange filtered to n >= threshold (output bounded by the
    threshold, not user cardinality).  Estimates are min-over-rows
    reads of the folded sketch — the oracle replays registers AND the
    over-estimate bias exactly."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "events", columns=["user_id"])

    def reg_partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        uu, cnt = np.unique(uid, return_counts=True)
        reg = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        for u, c in zip(uu, cnt):
            for j in range(CMS_D):
                reg[j, md5_u64(f"{j}|{int(u)}") % CMS_W] += int(c)
        j, p = np.nonzero(reg)
        return pa.table({
            "j": pa.array(j.astype(np.int64)),
            "pos": pa.array(p.astype(np.int64)),
            "n": pa.array(reg[j, p]),
        })

    reg = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for bt in ds.map_batches(
        reg_partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        np.add.at(
            reg,
            (bt["j"].to_numpy(zero_copy_only=False),
             bt["pos"].to_numpy(zero_copy_only=False)),
            bt["n"].to_numpy(zero_copy_only=False),
        )

    def cnt_partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        uu, cnt = np.unique(uid, return_counts=True)
        return pa.table({
            "user_id": pa.array(uu.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    heavy = (
        ds.map_batches(cnt_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Sum("n", alias_name="n_true"))
        .map_batches(
            lambda t: t.filter(
                pa.array(
                    t["n_true"].to_numpy(zero_copy_only=False) >= CMS_HH_MIN
                )
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .take_all()
    )  # bounded by the threshold: at most total_rows / CMS_HH_MIN rows
    uids = np.array(sorted(r["user_id"] for r in heavy), dtype=np.int64)
    true_n = {int(r["user_id"]): int(r["n_true"]) for r in heavy}
    est = np.array([
        min(reg[j, md5_u64(f"{j}|{int(u)}") % CMS_W] for j in range(CMS_D))
        for u in uids
    ], dtype=np.int64)
    return ray.data.from_arrow(pa.table({
        "user_id": pa.array(uids),
        "n_true": pa.array(np.array([true_n[int(u)] for u in uids], dtype=np.int64)),
        "n_est": pa.array(est),
    }))


def sql_cms_heavy_hitters() -> str:
    pos = (
        "CAST(md5_number_lower(CAST(js.j AS VARCHAR) || '|'"
        f" || CAST(user_id AS VARCHAR)) AS HUGEINT) % {CMS_W}"
    )
    return f"""
WITH js AS (SELECT unnest(generate_series(0, {CMS_D - 1})) AS j),
reg AS MATERIALIZED (
  SELECT j, {pos} AS pos, CAST(COUNT(*) AS BIGINT) AS n
  FROM events, js GROUP BY 1, 2
),
heavy AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_true
  FROM events GROUP BY user_id HAVING COUNT(*) >= {CMS_HH_MIN}
)
SELECT h.user_id, h.n_true, MIN(r.n) AS n_est
FROM heavy h CROSS JOIN js
JOIN reg r ON r.j = js.j AND r.pos = {pos.replace('user_id', 'h.user_id')}
GROUP BY h.user_id, h.n_true
"""


def q_left_join_orders(sf_dir: str):
    """LEFT OUTER join: every customer row survives, order aggregates
    COALESCE to zero for the no-order customers (the join type the
    engine's inner/semi/anti trio lacked).  Both sides route through
    ONE union bucket exchange on custkey; the outer semantics cost
    nothing extra — the left side is kept whether or not the bucket
    holds matching right rows."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"], blocks=4)
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"], blocks=4)

    def left_rows(batch: pa.Table) -> pa.Table:
        k = batch["c_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(k, n_buckets)),
            "key": pa.array(k.astype(np.int64)),
            "seg": batch["c_mktsegment"],
            "n": pa.array(np.zeros(len(k), dtype=np.int64)),
            "cents": pa.array(np.zeros(len(k), dtype=np.int64)),
            "side": pa.array(np.zeros(len(k), dtype=np.int64)),
        })

    def right_partial(batch: pa.Table) -> pa.Table:
        k = batch["o_custkey"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        ku, ki = np.unique(k, return_inverse=True)
        n = np.zeros(len(ku), dtype=np.int64)
        np.add.at(n, ki, 1)
        s = np.zeros(len(ku), dtype=np.int64)
        np.add.at(s, ki, cents)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ku, n_buckets)),
            "key": pa.array(ku.astype(np.int64)),
            "seg": pa.array(np.full(len(ku), "", dtype=object), type=pa.string()),
            "n": pa.array(n),
            "cents": pa.array(s),
            "side": pa.array(np.ones(len(ku), dtype=np.int64)),
        })

    both = cust.map_batches(
        left_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(orders.map_batches(
        right_partial, batch_format="pyarrow", zero_copy_batch=True
    ))

    def per_bucket(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        n_all = g["n"].to_numpy(zero_copy_only=False)
        c_all = g["cents"].to_numpy(zero_copy_only=False)
        lm = side == 0
        rk = key[~lm]
        ru, ri = np.unique(rk, return_inverse=True)
        rn = np.zeros(len(ru), dtype=np.int64)
        np.add.at(rn, ri, n_all[~lm])
        rc = np.zeros(len(ru), dtype=np.int64)
        np.add.at(rc, ri, c_all[~lm])
        lk = key[lm]
        pos = np.searchsorted(ru, lk)
        hit = (pos < len(ru)) & (ru[np.minimum(pos, len(ru) - 1)] == lk)
        n = np.where(hit, rn[np.minimum(pos, len(ru) - 1)], 0)
        cents = np.where(hit, rc[np.minimum(pos, len(ru) - 1)], 0)
        return pa.table({
            "c_custkey": pa.array(lk),
            "c_mktsegment": g["seg"].filter(pa.array(lm)),
            "n_orders": pa.array(n),
            "sum_cents": pa.array(cents),
        })

    return both.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_left_join_orders() -> str:
    return """
SELECT c.c_custkey, c.c_mktsegment,
  CAST(COUNT(o.o_custkey) AS BIGINT) AS n_orders,
  CAST(COALESCE(SUM(CAST(floor(o.o_totalprice * 100) AS BIGINT)), 0) AS BIGINT)
    AS sum_cents
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY 1, 2
"""


def q_count_of_counts(sf_dir: str):
    """Skew diagnostic: the distribution of per-user event counts
    (count-of-counts).  Per-batch (user, n) partials -> ONE h(user)
    bucket exchange (per-user totals exact per bucket) -> per-bucket
    count-of-count partials -> tiny final fold over distinct counts."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["user_id"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        uu, cnt = np.unique(uid, return_counts=True)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uu, n_buckets)),
            "user_id": pa.array(uu.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        tot = np.zeros(len(uu), dtype=np.int64)
        np.add.at(tot, inv, n)
        cu, cc = np.unique(tot, return_counts=True)
        return pa.table({
            "n_events": pa.array(cu),
            "n_users": pa.array(cc.astype(np.int64)),
        })

    b = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return (
        b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")
        .groupby("n_events").aggregate(Sum("n_users", alias_name="n_users"))
    )


def sql_count_of_counts() -> str:
    return """
SELECT n_events, CAST(COUNT(*) AS BIGINT) AS n_users FROM (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY user_id
) GROUP BY n_events
"""


# ---------------------------------------------------------------------------
# Round 2c: anomaly filter (quantile-gated) + rollup aggregation
# ---------------------------------------------------------------------------

def q_anomaly_filter(sf_dir: str):
    """Quantile-gated anomaly detection: events whose cent-quantized
    value strictly exceeds their type's EXACT p99 (monitoring's
    standard alert rule).  Pass 1 folds the bounded (type, cent)
    histogram on the driver and reads p99 off cumulative counts with
    pure-integer rank arithmetic (k = (99*N + 99) // 100); pass 2 is a
    broadcast-threshold pure-map filter — the corpus never shuffles."""
    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def part_hist(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        eu, ei = np.unique(et, return_inverse=True)
        cu, ci = np.unique(c, return_inverse=True)
        key = ei * len(cu) + ci
        ku, kc = np.unique(key, return_counts=True)
        return pa.table({
            "event_type": pa.array(eu[ku // len(cu)]),
            "c": pa.array(cu[ku % len(cu)]),
            "n": pa.array(kc.astype(np.int64)),
        })

    hist: dict[str, dict[int, int]] = {}
    for bt in ds.map_batches(
        part_hist, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        for et, c, n in zip(
            bt["event_type"].to_pylist(),
            bt["c"].to_numpy(zero_copy_only=False),
            bt["n"].to_numpy(zero_copy_only=False),
        ):
            d = hist.setdefault(et, {})
            d[int(c)] = d.get(int(c), 0) + int(n)
    p99: dict[str, int] = {}
    for et, d in hist.items():
        cs = np.array(sorted(d), dtype=np.int64)
        cum = np.cumsum([d[int(c)] for c in cs])
        tot = int(cum[-1])
        k = (99 * tot + 99) // 100
        p99[et] = int(cs[np.searchsorted(cum, k)])
    p99_ref = ray.put(p99)

    def flag(batch: pa.Table) -> pa.Table:
        thr = ray.get(p99_ref)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        lim = np.array([thr[t] for t in et], dtype=np.int64)
        keep = c > lim
        return pa.table({
            "event_id": batch["event_id"].filter(pa.array(keep)),
            "event_type": batch["event_type"].filter(pa.array(keep)),
            "value_c": pa.array(c[keep]),
            "p99_c": pa.array(lim[keep]),
        })

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def sql_anomaly_filter() -> str:
    return """
WITH h AS MATERIALIZED (
  SELECT event_type, CAST(floor(value*100) AS BIGINT) AS c, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
cum AS MATERIALIZED (
  SELECT event_type, c,
    SUM(n) OVER (PARTITION BY event_type ORDER BY c) AS cn,
    SUM(n) OVER (PARTITION BY event_type) AS tot
  FROM h
),
thr AS MATERIALIZED (
  SELECT event_type,
    MIN(CASE WHEN cn >= (99*tot+99)//100 THEN c END) AS p99_c
  FROM cum GROUP BY event_type
)
SELECT e.event_id, e.event_type,
  CAST(floor(e.value*100) AS BIGINT) AS value_c, t.p99_c
FROM events e JOIN thr t ON t.event_type = e.event_type
WHERE CAST(floor(e.value*100) AS BIGINT) > t.p99_c
"""


def q_rollup_revenue(sf_dir: str):
    """Multi-granularity ROLLUP in ONE pass: revenue by
    (priority, status), per-priority subtotals and the grand total all
    derive from the same per-batch partials — the finest level is
    aggregated once and coarser levels are re-reduced from it
    (tile_pyramid's relational sibling), never a second scan."""
    ds = _read(sf_dir, "orders",
               columns=["o_orderpriority", "o_orderstatus", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        pr = batch["o_orderpriority"].to_numpy(zero_copy_only=False)
        st = batch["o_orderstatus"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        pu, pi = np.unique(pr, return_inverse=True)
        su_, si = np.unique(st, return_inverse=True)
        key = pi * len(su_) + si
        ku, ki = np.unique(key, return_inverse=True)
        n = np.bincount(ki).astype(np.int64)
        s = np.zeros(len(ku), dtype=np.int64)
        np.add.at(s, ki, cents)
        return pa.table({
            "g": pa.array(np.zeros(len(ku), dtype=np.int64)),
            "prio": pa.array(pu[ku // len(su_)], type=pa.string()),
            "status": pa.array(su_[ku % len(su_)], type=pa.string()),
            "n": pa.array(n),
            "cents": pa.array(s),
        })

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        pr = g["prio"].to_numpy(zero_copy_only=False)
        st = g["status"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)

        def _reduce(pkeys, skeys):
            pu, pi = np.unique(pkeys, return_inverse=True)
            su_, si = np.unique(skeys, return_inverse=True)
            key = pi * len(su_) + si
            ku, ki = np.unique(key, return_inverse=True)
            nn = np.zeros(len(ku), dtype=np.int64)
            np.add.at(nn, ki, n)
            cc = np.zeros(len(ku), dtype=np.int64)
            np.add.at(cc, ki, cents)
            return pu[ku // len(su_)], su_[ku % len(su_)], nn, cc

        fp, fs, fn, fc = _reduce(pr, st)
        sp, ss, sn, sc = _reduce(pr, np.full(len(pr), "ALL", dtype=object))
        out_p = np.concatenate([fp, sp, np.array(["ALL"], dtype=object)])
        out_s = np.concatenate([fs, ss, np.array(["ALL"], dtype=object)])
        out_n = np.concatenate([fn, sn, np.array([fn.sum()], dtype=np.int64)])
        out_c = np.concatenate([fc, sc, np.array([fc.sum()], dtype=np.int64)])
        return pa.table({
            "prio": pa.array(out_p, type=pa.string()),
            "status": pa.array(out_s, type=pa.string()),
            "n_orders": pa.array(out_n),
            "revenue_c": pa.array(out_c),
        })

    return p.groupby("g").map_groups(resolve, batch_format="pyarrow")


def sql_rollup_revenue() -> str:
    return """
SELECT COALESCE(o_orderpriority, 'ALL') AS prio,
  COALESCE(o_orderstatus, 'ALL') AS status,
  CAST(COUNT(*) AS BIGINT) AS n_orders,
  CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
    AS revenue_c
FROM orders
GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
"""


# ---------------------------------------------------------------------------
# Round 2d: co-occurrence matrix + constraint audit
# ---------------------------------------------------------------------------

def q_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence: for every unordered event_type
    pair, the number of (user, day) baskets containing both.  ONE
    h(user, day) bucket exchange; inside a bucket each basket
    collapses to a 5-bit type mask and the 10 pair counters bump off
    the mask — partials leaving a bucket are <= 15 rows."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    types = list(PIVOT_TYPES)
    t_idx = {t: i for i, t in enumerate(types)}
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        day = ts // 86_400_000_000
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        bit = np.array([1 << t_idx[t] for t in et], dtype=np.int64)
        basket = uid * 1_000_000 + day  # day < 1e6: collision-free key
        # per-batch partial: OR the bits per basket
        bu, bi = np.unique(basket, return_inverse=True)
        mask = np.zeros(len(bu), dtype=np.int64)
        np.bitwise_or.at(mask, bi, bit)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(bu, n_buckets)),
            "basket": pa.array(bu),
            "mask": pa.array(mask),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        b = g["basket"].to_numpy(zero_copy_only=False)
        m = g["mask"].to_numpy(zero_copy_only=False)
        bu, bi = np.unique(b, return_inverse=True)
        full = np.zeros(len(bu), dtype=np.int64)
        np.bitwise_or.at(full, bi, m)
        ta, tb, nb = [], [], []
        for i in range(len(types)):
            for j in range(i + 1, len(types)):
                n = int(np.count_nonzero(
                    (full & (1 << i)).astype(bool) & (full & (1 << j)).astype(bool)
                ))
                if n:
                    ta.append(types[i])
                    tb.append(types[j])
                    nb.append(n)
        return pa.table({
            "type_a": pa.array(ta, type=pa.string()),
            "type_b": pa.array(tb, type=pa.string()),
            "n_baskets": pa.array(nb, type=pa.int64()),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return (
        b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n_baskets", alias_name="n_baskets"))
    )


def sql_cooccurrence() -> str:
    return """
WITH basket AS MATERIALIZED (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day, event_type
  FROM events
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
  CAST(COUNT(*) AS BIGINT) AS n_baskets
FROM basket a
JOIN basket b ON b.user_id = a.user_id AND b.day = a.day
  AND b.event_type > a.event_type
GROUP BY 1, 2
"""


def q_page_orders(sf_dir: str):
    """Exact deep pagination (rows ranked 101..110 by totalprice DESC,
    orderkey ASC) WITHOUT a global sort: a driver-folded cent
    histogram finds the price cut that brackets the page, only the
    ~page-sized candidate slice ships to the driver for the final
    exact ordering — the OFFSET/LIMIT shape that stays O(page), not
    O(offset), at 100 TB."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def hist(batch: pa.Table) -> pa.Table:
        c = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        cu, cc = np.unique(c, return_counts=True)
        return pa.table({"c": pa.array(cu), "n": pa.array(cc.astype(np.int64))})

    folded: dict[int, int] = {}
    for bt in ds.map_batches(
        hist, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        for c, n in zip(bt["c"].to_numpy(zero_copy_only=False),
                        bt["n"].to_numpy(zero_copy_only=False)):
            folded[int(c)] = folded.get(int(c), 0) + int(n)
    cs = np.array(sorted(folded, reverse=True), dtype=np.int64)  # DESC
    cum = np.cumsum([folded[int(c)] for c in cs])
    # the page needs ranks (PAGE_OFFSET, PAGE_OFFSET + PAGE_SIZE];
    # candidates: every row with cent >= the cent at rank OFFSET+SIZE
    cut = int(cs[np.searchsorted(cum, PAGE_OFFSET + PAGE_SIZE)])

    def cand(batch: pa.Table) -> pa.Table:
        c = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        keep = c >= cut
        return pa.table({
            "o_orderkey": batch["o_orderkey"].filter(pa.array(keep)),
            "price_c": pa.array(c[keep]),
        })

    rows = ds.map_batches(
        cand, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # bounded: <= OFFSET + SIZE + ties at the cut cent
    rows.sort(key=lambda r: (-r["price_c"], r["o_orderkey"]))
    page = rows[PAGE_OFFSET:PAGE_OFFSET + PAGE_SIZE]
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(
            np.arange(PAGE_OFFSET + 1, PAGE_OFFSET + 1 + len(page),
                      dtype=np.int64)
        ),
        "o_orderkey": pa.array(
            np.array([r["o_orderkey"] for r in page], dtype=np.int64)
        ),
        "price_c": pa.array(
            np.array([r["price_c"] for r in page], dtype=np.int64)
        ),
    }))


def sql_page_orders() -> str:
    return f"""
SELECT CAST(rn AS BIGINT) AS rank, o_orderkey, price_c FROM (
  SELECT o_orderkey,
    CAST(floor(o_totalprice * 100) AS BIGINT) AS price_c,
    row_number() OVER (
      ORDER BY floor(o_totalprice * 100) DESC, o_orderkey) AS rn
  FROM orders
) WHERE rn > {PAGE_OFFSET} AND rn <= {PAGE_OFFSET + PAGE_SIZE}
"""


def q_incremental_merge(sf_dir: str):
    """Incremental materialized-view maintenance: the per-type
    (count, sum) state built from the first half of the month MERGES
    with the second half's delta — associative integer partials, so
    merge(old_state, delta) == full recompute, which is exactly what
    the oracle computes.  The at-scale shape: yesterday's state is a
    tiny table, only the delta is scanned."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"],
               blocks=4)

    def partials(batch: pa.Table) -> pa.Table:
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        day = ts // 86_400_000_000 - 19723  # days since 2024-01-01
        et_all = batch["event_type"].to_numpy(zero_copy_only=False)
        vc_all = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        outs = []
        for which in (0, 1):  # state half, then delta half
            m = (day < INCR_SPLIT_DAY) if which == 0 \
                else (day >= INCR_SPLIT_DAY)
            eu, ei = np.unique(et_all[m], return_inverse=True)
            n = np.bincount(ei, minlength=len(eu)).astype(np.int64)
            s = np.zeros(len(eu), dtype=np.int64)
            np.add.at(s, ei, vc_all[m])
            outs.append((eu, n, s))
        return pa.table({
            "event_type": pa.array(np.concatenate([o[0] for o in outs])),
            "n": pa.array(np.concatenate([o[1] for o in outs])),
            "sum_value_c": pa.array(np.concatenate([o[2] for o in outs])),
        })

    # ONE pass (the r4 shape consumed the read lineage twice via
    # state/delta branches); tiny-group final merge on the driver —
    # a groupby exchange costs ~1 s fixed for ~#event_types rows.
    acc_n: dict = {}
    acc_s: dict = {}
    for b in ds.map_batches(partials, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        for et, n, s in zip(b["event_type"].to_pylist(),
                            b["n"].to_pylist(),
                            b["sum_value_c"].to_pylist()):
            acc_n[et] = acc_n.get(et, 0) + n
            acc_s[et] = acc_s.get(et, 0) + s
    keys = sorted(acc_n)
    return pa.table({
        "event_type": pa.array(keys, type=pa.string()),
        "n": pa.array([acc_n[k] for k in keys], type=pa.int64()),
        "sum_value_c": pa.array([acc_s[k] for k in keys],
                                type=pa.int64()),
    })


def sql_incremental_merge() -> str:
    return (
        "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) AS BIGINT)"
        " AS sum_value_c FROM events GROUP BY event_type"
    )


def q_full_outer_days(sf_dir: str):
    """FULL OUTER join (completes the inner/left/semi/anti family):
    per-epoch-day event counts vs order counts, days surviving from
    EITHER side with the missing side COALESCEd to zero.  Both sides
    arrive as map-side per-day partials through ONE union bucket
    exchange on h(day); outer-ness is free in the resolve (a day's
    group emits whichever sides it holds)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    nb = 8
    events = _read(sf_dir, "events", columns=["ts"], blocks=4)
    orders = _read(sf_dir, "orders", columns=["o_orderdate"], blocks=4)

    def side_partial(col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            ts = batch[col].to_numpy(zero_copy_only=False)
            day = ts.astype("datetime64[us]").astype(np.int64) // 86_400_000_000
            du, dc = np.unique(day, return_counts=True)
            return pa.table({
                "bucket": pa.array(hash_bucket_u64(du.astype(np.uint64), nb)),
                "day": pa.array(du),
                "n": pa.array(dc.astype(np.int64)),
                "side": pa.array(np.full(len(du), side, dtype=np.int64)),
            })
        return fn

    both = events.map_batches(
        side_partial("ts", 0), batch_format="pyarrow", zero_copy_batch=True
    ).union(orders.map_batches(
        side_partial("o_orderdate", 1), batch_format="pyarrow",
        zero_copy_batch=True,
    ))

    def resolve(g: pa.Table) -> pa.Table:
        day = g["day"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        du, di = np.unique(day, return_inverse=True)
        ev = np.zeros(len(du), dtype=np.int64)
        od = np.zeros(len(du), dtype=np.int64)
        np.add.at(ev, di[side == 0], n[side == 0])
        np.add.at(od, di[side == 1], n[side == 1])
        return pa.table({
            "day": pa.array(du),
            "n_events": pa.array(ev),
            "n_orders": pa.array(od),
        })

    return both.groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def sql_full_outer_days() -> str:
    return """
WITH e AS (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1
),
o AS (
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM orders GROUP BY 1
)
SELECT COALESCE(e.day, o.day) AS day,
  CAST(COALESCE(e.n, 0) AS BIGINT) AS n_events,
  CAST(COALESCE(o.n, 0) AS BIGINT) AS n_orders
FROM e FULL OUTER JOIN o ON e.day = o.day
"""


def q_rank_orders(sf_dir: str):
    """Ranking window functions (rank + dense_rank, the tie-aware pair
    row_number can't express): each order ranked by totalprice cents
    DESC within its customer.  One h(custkey) bucket exchange; ranks
    come from flag arithmetic on the lexsorted bucket (rank = offset of
    the latest price-change row within the segment, dense = count of
    price-change rows), fully vectorized."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_totalprice"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ck.astype(np.uint64), nb)),
            "o_orderkey": batch["o_orderkey"],
            "o_custkey": batch["o_custkey"],
            "price_c": pa.array(np.floor(
                batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)),
        })

    def ranks(g: pa.Table) -> pa.Table:
        ck = g["o_custkey"].to_numpy(zero_copy_only=False)
        ok = g["o_orderkey"].to_numpy(zero_copy_only=False)
        pc = g["price_c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, -pc, ck))
        ck, ok, pc = ck[order], ok[order], pc[order]
        n = len(ck)
        i = np.arange(n)
        new_seg = np.r_[True, ck[1:] != ck[:-1]]
        starts = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        seg_start = starts[seg_id]
        chg = new_seg | np.r_[True, pc[1:] != pc[:-1]]
        last_chg = np.maximum.accumulate(np.where(chg, i, 0))
        cnt = np.cumsum(chg)
        return pa.table({
            "o_orderkey": pa.array(ok),
            "o_custkey": pa.array(ck),
            "price_c": pa.array(pc),
            "rnk": pa.array((last_chg - seg_start + 1).astype(np.int64)),
            "drnk": pa.array((cnt - cnt[seg_start] + 1).astype(np.int64)),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(ranks, batch_format="pyarrow")


def sql_rank_orders() -> str:
    return """
SELECT o_orderkey, o_custkey,
  CAST(floor(o_totalprice * 100) AS BIGINT) AS price_c,
  CAST(rank() OVER w AS BIGINT) AS rnk,
  CAST(dense_rank() OVER w AS BIGINT) AS drnk
FROM orders
WINDOW w AS (PARTITION BY o_custkey
             ORDER BY CAST(floor(o_totalprice * 100) AS BIGINT) DESC)
"""


def q_vector_tiles(sf_dir: str):
    """Raster->vector tile export (the north rule's raster<->vector
    leg as ONE artifact): every res-TILE_RES tile holding events is
    emitted as its 4-corner ellipsoidal polygon (unordered vertex set,
    rotation-invariant like cell_boundary) annotated with the tile's
    event count — i.e. a vector layer ready for a tile server.  The
    count comes from the combiner tile aggregation; the
    vertices are computed once per surviving tile (a few hundred
    rows), never per event."""
    ds = q_tile_counts(sf_dir)

    def expand(batch: pa.Table) -> pa.Table:
        tid = batch["tile_id"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        if len(tid) == 0:
            return pa.table({
                "tile_id": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "pt_lon_micros": pa.array([], type=pa.int64()),
                "pt_lat_micros": pa.array([], type=pa.int64()),
            })
        u = su.from_string(tid)
        v = idx.vertices(CFG, u, plane=False)  # (m, 4, 2) NW-rotated
        return pa.table({
            "tile_id": pa.array(np.repeat(tid, 4)),
            "n": pa.array(np.repeat(n, 4).astype(np.int64)),
            "pt_lon_micros": pa.array(
                np.floor(v[:, :, 0].ravel() * 1e6).astype(np.int64)),
            "pt_lat_micros": pa.array(
                np.floor(v[:, :, 1].ravel() * 1e6).astype(np.int64)),
        })

    return ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)


def sql_vector_tiles() -> str:
    counts = sql_tile_counts()
    ul = oracle.grid_ul_sql(TILE_RES, CFG)
    w = oracle._lit(CFG.cell_width(TILE_RES))
    corners = (
        f"(WITH ulv AS (SELECT cell_id, xul, yul FROM {ul} t)"
        f" SELECT cell_id, xul AS xm, yul AS ym FROM ulv"
        f" UNION ALL SELECT cell_id, xul + {w}, yul FROM ulv"
        f" UNION ALL SELECT cell_id, xul + {w}, yul - {w} FROM ulv"
        f" UNION ALL SELECT cell_id, xul, yul - {w} FROM ulv)"
    )
    inv = oracle.inverse_sql(
        f"SELECT cell_id, xm, ym FROM {corners} t", CFG, id_cols=("cell_id",)
    )
    return f"""
WITH counts AS MATERIALIZED ({counts}),
pts AS MATERIALIZED (
  SELECT cell_id,
    CAST(floor(lon * 1e6) AS BIGINT) AS pt_lon_micros,
    CAST(floor(lat * 1e6) AS BIGINT) AS pt_lat_micros
  FROM {inv} t
)
SELECT c.tile_id, CAST(c.n AS BIGINT) AS n, p.pt_lon_micros, p.pt_lat_micros
FROM counts c JOIN pts p ON p.cell_id = c.tile_id
"""


def q_length_buckets(sf_dir: str):
    """Sequence-length bucketing plan (the padding-waste audit a
    training data loader runs before batching): docs binned to
    power-of-two token-length buckets [2^b, 2^(b+1)), per bucket the
    doc count, true token total, padded token total (every doc padded
    to the bucket cap 2^(b+1)) and the implied waste.  Pure map +
    16-key combine — never a shuffle."""
    ds = _read(sf_dir, "documents", columns=["text"], blocks=4)
    powers = (1 << np.arange(LB_MAX_B + 2)).astype(np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        n = np.array(
            [len(t.split()) for t in batch["text"].to_pylist()],
            dtype=np.int64,
        )
        n = n[n >= 1]
        b = np.searchsorted(powers, n, side="right") - 1
        bu, bi = np.unique(b, return_inverse=True)
        cnt = np.zeros(len(bu), dtype=np.int64)
        tok = np.zeros(len(bu), dtype=np.int64)
        np.add.at(cnt, bi, 1)
        np.add.at(tok, bi, n)
        return pa.table({
            "bucket": pa.array(bu),
            "n_docs": pa.array(cnt),
            "sum_tokens": pa.array(tok),
        })

    agg = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("bucket").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_tokens", alias_name="sum_tokens"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].to_numpy(zero_copy_only=False)
        nd = batch["n_docs"].to_numpy(zero_copy_only=False)
        st = batch["sum_tokens"].to_numpy(zero_copy_only=False)
        cap = (np.int64(1) << (b + 1)).astype(np.int64)
        return pa.table({
            "bucket": pa.array(b.astype(np.int64)),
            "n_docs": pa.array(nd.astype(np.int64)),
            "sum_tokens": pa.array(st.astype(np.int64)),
            "padded_tokens": pa.array(nd * cap),
            "waste_tokens": pa.array(nd * cap - st),
        })

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def sql_length_buckets() -> str:
    return f"""
WITH t AS (
  SELECT CASE WHEN trim(text) = '' THEN 0
    ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n
  FROM documents
),
b AS (SELECT unnest(generate_series(0, {LB_MAX_B})) AS bucket),
m AS (
  SELECT b.bucket, t.n, (CAST(1 AS BIGINT) << (b.bucket + 1)) AS cap
  FROM t JOIN b ON t.n >= (CAST(1 AS BIGINT) << b.bucket)
    AND t.n < (CAST(1 AS BIGINT) << (b.bucket + 1))
  WHERE t.n >= 1
)
SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(n) AS BIGINT) AS sum_tokens,
  CAST(COUNT(*) * cap AS BIGINT) AS padded_tokens,
  CAST(COUNT(*) * cap - SUM(n) AS BIGINT) AS waste_tokens
FROM m GROUP BY bucket, cap
"""


def q_mixture_weights(sf_dir: str):
    """Data-mixture weights with temperature alpha=0.5 (the
    multi-source sampling schedule of large-corpus training): per
    source the token total T_s, weight_ppm = floor(1e6 * sqrt(T_s) /
    S) with S the left-to-right fold of sqrt(T_s) in source-name
    order (the engine's list_sum parity rule, ops/ann._seq_*).
    Map-side per-source token partials -> tiny groupby -> the global
    fold runs in-dataset on the one-block repartition."""
    ds = _read(sf_dir, "documents", columns=["source", "text"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["source"].to_pylist(), dtype=object)
        n = np.array(
            [len(t.split()) for t in batch["text"].to_pylist()],
            dtype=np.int64,
        )
        su_, si = np.unique(src, return_inverse=True)
        tok = np.zeros(len(su_), dtype=np.int64)
        np.add.at(tok, si, n)
        return pa.table({
            "source": pa.array(su_, type=pa.string()),
            "sum_tokens": pa.array(tok),
        })

    agg = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("source").aggregate(Sum("sum_tokens", alias_name="sum_tokens"))

    def weights(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["source"].to_pylist(), dtype=object)
        tok = batch["sum_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(src)  # name order = the SQL list ORDER BY
        s = 0.0
        for v in np.sqrt(tok[order].astype(np.float64)):
            s += v
        w = np.floor(
            (1e6 * np.sqrt(tok.astype(np.float64))) / s
        ).astype(np.int64)
        return pa.table({
            "source": pa.array(src, type=pa.string()),
            "sum_tokens": pa.array(tok),
            "weight_ppm": pa.array(w),
        })

    return agg.repartition(1).map_batches(
        weights, batch_format="pyarrow", zero_copy_batch=True
    )


def sql_mixture_weights() -> str:
    return """
WITH t AS MATERIALIZED (
  SELECT source,
    CAST(SUM(CASE WHEN trim(text) = '' THEN 0
      ELSE length(regexp_split_to_array(trim(text), '\\s+')) END)
      AS BIGINT) AS sum_tokens
  FROM documents GROUP BY 1
),
s AS (
  SELECT list_sum(list(sqrt(CAST(sum_tokens AS DOUBLE)) ORDER BY source))
    AS total FROM t
)
SELECT t.source, t.sum_tokens,
  CAST(floor((1e6 * sqrt(CAST(t.sum_tokens AS DOUBLE))) / s.total)
    AS BIGINT) AS weight_ppm
FROM t, s
"""


def q_zscore_events(sf_dir: str):
    """Per-group z-score normalization (feature scaling as a
    distributed two-pass): per event type the exact integer sufficient
    stats (n, Sigma c, Sigma c^2) are combined map-side and broadcast
    via ray.put, then a pure map emits z_milli = floor(1000 * (n*c -
    Sc) / sqrt(n*Sq - Sc^2)) — numerator and radicand are exact
    int64 (envelope: value<=561 -> c<=56101, safe through ~1e6 rows
    per type), so both sides floor the identical IEEE double."""
    import ray

    stats_ds = _read(sf_dir, "events", columns=["event_type", "value"], blocks=4)

    def spartial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        tu, ti = np.unique(et, return_inverse=True)
        n = np.zeros(len(tu), dtype=np.int64)
        sc = np.zeros(len(tu), dtype=np.int64)
        sq = np.zeros(len(tu), dtype=np.int64)
        np.add.at(n, ti, 1)
        np.add.at(sc, ti, c)
        np.add.at(sq, ti, c * c)
        return pa.table({
            "event_type": pa.array(tu, type=pa.string()),
            "n": pa.array(n), "sc": pa.array(sc), "sq": pa.array(sq),
        })

    stats = stats_ds.map_batches(
        spartial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("event_type").aggregate(
        Sum("n", alias_name="n"), Sum("sc", alias_name="sc"),
        Sum("sq", alias_name="sq"),
    ).take_all()  # bounded: one row per event type
    table = {
        r["event_type"]: (int(r["n"]), int(r["sc"]), int(r["sq"]))
        for r in stats
    }
    ref = ray.put(table)

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"], blocks=4)

    def zmap(batch: pa.Table) -> pa.Table:
        tab = ray.get(ref)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        tu, ti = np.unique(et, return_inverse=True)  # lookups per TYPE
        n = np.array([tab[t][0] for t in tu], dtype=np.int64)[ti]
        sc = np.array([tab[t][1] for t in tu], dtype=np.int64)[ti]
        sq = np.array([tab[t][2] for t in tu], dtype=np.int64)[ti]
        den2 = n * sq - sc * sc
        num = 1000 * (n * c - sc)
        z = np.zeros(len(c), dtype=np.int64)
        ok = den2 > 0
        z[ok] = np.floor(
            num[ok].astype(np.float64) / np.sqrt(den2[ok].astype(np.float64))
        ).astype(np.int64)
        return pa.table({
            "event_id": batch["event_id"],
            "event_type": batch["event_type"],
            "z_milli": pa.array(z),
        })

    return ds.map_batches(zmap, batch_format="pyarrow", zero_copy_batch=True)


def sql_zscore_events() -> str:
    return """
WITH c AS MATERIALIZED (
  SELECT event_id, event_type,
    CAST(floor(value * 100) AS BIGINT) AS c
  FROM events
),
s AS MATERIALIZED (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
    CAST(SUM(c) AS BIGINT) AS sc, CAST(SUM(c * c) AS BIGINT) AS sq
  FROM c GROUP BY 1
)
SELECT e.event_id, e.event_type,
  CAST(CASE WHEN s.n * s.sq - s.sc * s.sc <= 0 THEN 0
    ELSE floor(CAST(1000 * (s.n * e.c - s.sc) AS DOUBLE)
               / sqrt(CAST(s.n * s.sq - s.sc * s.sc AS DOUBLE)))
    END AS BIGINT) AS z_milli
FROM c e JOIN s USING (event_type)
"""


def q_user_gini(sf_dir: str):
    """Behavioral diversity per user: Gini impurity of the user's
    event-type distribution, exact-integer ppm (1e6 - (1e6 * Sigma
    n_t^2) // n^2).  Per-batch (user, type) count partials -> ONE
    h(user) bucket exchange -> both aggregation levels resolve
    in-bucket."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"], blocks=4)
    nb = 8

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        key = np.char.add(np.char.add(uid.astype("U20"), "|"), et.astype("U16"))
        ku, ki = np.unique(key, return_inverse=True)
        cnt = np.zeros(len(ku), dtype=np.int64)
        np.add.at(cnt, ki, 1)
        u_of = np.array([k.split("|")[0] for k in ku], dtype=np.int64)
        t_of = np.array([k.split("|")[1] for k in ku], dtype=object)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(u_of.astype(np.uint64), nb)),
            "user_id": pa.array(u_of),
            "event_type": pa.array(t_of, type=pa.string()),
            "nt": pa.array(cnt),
        })

    def resolve(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        nt_in = g["nt"].to_numpy(zero_copy_only=False)
        key = np.fromiter(
            (f"{u}|{t}" for u, t in zip(uid, et)), dtype=object, count=len(uid)
        )
        ku, first, ki = np.unique(key, return_index=True, return_inverse=True)
        nt = np.zeros(len(ku), dtype=np.int64)
        np.add.at(nt, ki, nt_in)
        u_of = uid[first]
        uu, ui = np.unique(u_of, return_inverse=True)
        n = np.zeros(len(uu), dtype=np.int64)
        s2 = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n, ui, nt)
        np.add.at(s2, ui, nt * nt)
        return pa.table({
            "user_id": pa.array(uu),
            "n_events": pa.array(n),
            "gini_ppm": pa.array(1_000_000 - (1_000_000 * s2) // (n * n)),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def sql_user_gini() -> str:
    return """
WITH c AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS nt
  FROM events GROUP BY 1, 2
),
u AS (
  SELECT user_id, CAST(SUM(nt) AS BIGINT) AS n,
    CAST(SUM(nt * nt) AS BIGINT) AS s2
  FROM c GROUP BY 1
)
SELECT user_id, n AS n_events,
  CAST(1000000 - (1000000 * s2) // (n * n) AS BIGINT) AS gini_ppm
FROM u
"""


# ---------------------------------------------------------------------------
# Round 2i: 4-way star join over the last unused dimension tables
# ---------------------------------------------------------------------------

def q_brand_nation_revenue(sf_dir: str):
    """TPC-H-Q9-shaped profit rollup: lineitem joined to part (brand),
    supplier and nation — revenue cents per (brand, supplier nation).
    Both dimension sides are small, so the 4-way join is ONE ray.put
    broadcast of two int->label lookups (partkey->brand idx,
    suppkey->nation name idx) and the combine happens map-side per
    batch; only (brand, nation, partials) rows reach the tiny final
    groupby.  This is the canonical star-schema shape at 100 TB: facts
    never shuffle, dimensions ride the object store once."""
    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand"], blocks=1).to_pandas()
    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"], blocks=1).to_pandas()
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"], blocks=1).to_pandas()

    brands = np.sort(part["p_brand"].unique())
    b_of = dict(zip(brands, range(len(brands))))
    pk = part["p_partkey"].to_numpy()
    part_brand = np.full(int(pk.max()) + 2, -1, dtype=np.int64)  # -1 = no part
    part_brand[pk] = np.array([b_of[b] for b in part["p_brand"]], dtype=np.int64)

    nnames = nation.set_index("n_nationkey")["n_name"]
    sk = supp["s_suppkey"].to_numpy()
    names = np.sort(nation["n_name"].unique())
    n_of = dict(zip(names, range(len(names))))
    supp_nation = np.full(int(sk.max()) + 1, -1, dtype=np.int64)  # -1 = no supp
    supp_nation[sk] = np.array(
        [n_of[nnames[k]] for k in supp["s_nationkey"]], dtype=np.int64
    )
    ref = ray.put((part_brand, supp_nation, brands, names))

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_extendedprice",
                        "l_discount"], blocks=4)

    def combine(batch: pa.Table) -> pa.Table:
        pb, sn, br, nm = ray.get(ref)
        r = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1 - batch["l_discount"].to_numpy(zero_copy_only=False))
            * 100
        ).astype(np.int64)
        lpk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        lsk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        bi = np.where(lpk < len(pb), pb[np.minimum(lpk, len(pb) - 1)], -1)
        ni = np.where(lsk < len(sn), sn[np.minimum(lsk, len(sn) - 1)], -1)
        hit = (bi >= 0) & (ni >= 0)  # inner-join semantics on both dims
        bi, ni, r = bi[hit], ni[hit], r[hit]
        key = bi * len(nm) + ni
        ku, ki = np.unique(key, return_inverse=True)
        n = np.zeros(len(ku), dtype=np.int64)
        s = np.zeros(len(ku), dtype=np.int64)
        np.add.at(n, ki, 1)
        np.add.at(s, ki, r)
        return pa.table({
            "p_brand": pa.array(br[ku // len(nm)], type=pa.string()),
            "n_name": pa.array(nm[ku % len(nm)], type=pa.string()),
            "n_items": pa.array(n),
            "revenue_c": pa.array(s),
        })

    p = ds.map_batches(combine, batch_format="pyarrow", zero_copy_batch=True)
    return p.groupby(["p_brand", "n_name"]).aggregate(
        Sum("n_items", alias_name="n_items"),
        Sum("revenue_c", alias_name="revenue_c"),
    )


def sql_brand_nation_revenue() -> str:
    return """
SELECT p.p_brand, n.n_name,
  CAST(COUNT(*) AS BIGINT) AS n_items,
  CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100)
    AS BIGINT)) AS BIGINT) AS revenue_c
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Round 2j (cont.): CUBE grouping sets
# ---------------------------------------------------------------------------

def q_cube_revenue(sf_dir: str):
    """GROUP BY CUBE(priority, status) in one pass: all four grouping
    sets — (prio, status), (prio), (status), () — re-reduced from the
    same per-batch finest-level partials (rollup_revenue plus the
    column-wise marginal ROLLUP can't express)."""
    ds = _read(sf_dir, "orders",
               columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
               blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        pr = batch["o_orderpriority"].to_numpy(zero_copy_only=False)
        st = batch["o_orderstatus"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        pu, pi = np.unique(pr, return_inverse=True)
        su_, si = np.unique(st, return_inverse=True)
        key = pi * len(su_) + si
        ku, ki = np.unique(key, return_inverse=True)
        n = np.bincount(ki).astype(np.int64)
        s = np.zeros(len(ku), dtype=np.int64)
        np.add.at(s, ki, cents)
        return pa.table({
            "g": pa.array(np.zeros(len(ku), dtype=np.int64)),
            "prio": pa.array(pu[ku // len(su_)], type=pa.string()),
            "status": pa.array(su_[ku % len(su_)], type=pa.string()),
            "n": pa.array(n),
            "cents": pa.array(s),
        })

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        pr = g["prio"].to_numpy(zero_copy_only=False)
        st = g["status"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)

        def _reduce(pkeys, skeys):
            pu, pi = np.unique(pkeys, return_inverse=True)
            su_, si = np.unique(skeys, return_inverse=True)
            key = pi * len(su_) + si
            ku, ki = np.unique(key, return_inverse=True)
            nn = np.zeros(len(ku), dtype=np.int64)
            np.add.at(nn, ki, n)
            cc = np.zeros(len(ku), dtype=np.int64)
            np.add.at(cc, ki, cents)
            return pu[ku // len(su_)], su_[ku % len(su_)], nn, cc

        all_p = np.full(len(pr), "ALL", dtype=object)
        fp, fs, fn, fc = _reduce(pr, st)
        pp, ps, pn, pcn = _reduce(pr, all_p)
        sp, ss, sn, sc = _reduce(all_p, st)
        out_p = np.concatenate([fp, pp, sp, np.array(["ALL"], dtype=object)])
        out_s = np.concatenate([fs, ps, ss, np.array(["ALL"], dtype=object)])
        out_n = np.concatenate([fn, pn, sn, np.array([fn.sum()], dtype=np.int64)])
        out_c = np.concatenate([fc, pcn, sc, np.array([fc.sum()], dtype=np.int64)])
        return pa.table({
            "prio": pa.array(out_p, type=pa.string()),
            "status": pa.array(out_s, type=pa.string()),
            "n_orders": pa.array(out_n),
            "revenue_c": pa.array(out_c),
        })

    return p.groupby("g").map_groups(resolve, batch_format="pyarrow")


def sql_cube_revenue() -> str:
    return """
SELECT COALESCE(o_orderpriority, 'ALL') AS prio,
  COALESCE(o_orderstatus, 'ALL') AS status,
  CAST(COUNT(*) AS BIGINT) AS n_orders,
  CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
    AS revenue_c
FROM orders
GROUP BY CUBE (o_orderpriority, o_orderstatus)
"""


def q_pareto_docs(sf_dir: str):
    """Skyline / Pareto-front curation: the documents that are
    non-dominated on (length, lexical diversity) — the multi-criteria
    shortlist a data-curation pass keeps when no single score wins.

    Distributed anti-chain reduction (ops/agg.py:pareto_front_mask):
    each batch emits its LOCAL front's distinct (n_tokens, ttr) pairs
    with doc counts + min doc_id (a global-front pair survives every
    local front it appears in, so counts merge exactly); one tiny
    exchange; the final resolve re-sweeps the merged pairs."""
    from rhealpixdggs_py_ray.ops.agg import pareto_front_mask

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        dids, xs, ys = [], [], []
        for did, text in zip(
            batch["doc_id"].to_numpy(zero_copy_only=False),
            batch["text"].to_pylist(),
        ):
            toks = text.split()
            if not toks:
                continue
            dids.append(did)
            xs.append(len(toks))
            ys.append(1000 * len(set(toks)) // len(toks))
        did = np.array(dids, dtype=np.int64)
        x = np.array(xs, dtype=np.int64)
        y = np.array(ys, dtype=np.int64)
        key = x.astype(np.uint64) * np.uint64(1024) + y.astype(np.uint64)
        uq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        mind = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mind, inv, did)
        ux = (uq // np.uint64(1024)).astype(np.int64)
        uy = (uq % np.uint64(1024)).astype(np.int64)
        m = pareto_front_mask(ux, uy)
        return pa.table({
            "g": pa.array(np.zeros(int(m.sum()), dtype=np.int64)),
            "x": pa.array(ux[m]), "y": pa.array(uy[m]),
            "n": pa.array(n[m]), "mind": pa.array(mind[m]),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        from rhealpixdggs_py_ray.ops.agg import pareto_front_mask as pfm

        x = g["x"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        mind = g["mind"].to_numpy(zero_copy_only=False)
        key = x.astype(np.uint64) * np.uint64(1024) + y.astype(np.uint64)
        uq, inv = np.unique(key, return_inverse=True)
        ns = np.zeros(len(uq), dtype=np.int64)
        np.add.at(ns, inv, n)
        ms = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(ms, inv, mind)
        ux = (uq // np.uint64(1024)).astype(np.int64)
        uy = (uq % np.uint64(1024)).astype(np.int64)
        m = pfm(ux, uy)
        return pa.table({
            "n_tokens": pa.array(ux[m]), "ttr_permille": pa.array(uy[m]),
            "n_docs": pa.array(ns[m]), "min_doc": pa.array(ms[m]),
        })

    return part.groupby("g").map_groups(resolve, batch_format="pyarrow")


def sql_pareto_docs() -> str:
    return """
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS t
  FROM documents WHERE trim(text) <> ''
),
m AS MATERIALIZED (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS x,
    1000 * COUNT(DISTINCT t) // COUNT(*) AS y
  FROM toks GROUP BY doc_id
),
gx AS MATERIALIZED (SELECT x, MAX(y) AS y FROM m GROUP BY x),
w AS MATERIALIZED (
  SELECT x, y, MAX(y) OVER (ORDER BY x DESC
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm FROM gx
),
front AS MATERIALIZED (SELECT x, y FROM w WHERE pm IS NULL OR y > pm)
SELECT f.x AS n_tokens, CAST(f.y AS BIGINT) AS ttr_permille,
  CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(MIN(m.doc_id) AS BIGINT) AS min_doc
FROM m JOIN front f ON m.x = f.x AND m.y = f.y
GROUP BY f.x, f.y
"""


# ---------------------------------------------------------------------------
# Zonal median + OOV-rate quality score
# ---------------------------------------------------------------------------

def q_tile_median(sf_dir: str):
    """Exact per-tile median event value (zonal stats beyond the sums):
    values quantized to integer cents ride ONE h(tile) bucket exchange;
    the per-bucket resolve takes each tile's lower median by segmented
    selection (lexsort + positional pick) — never a per-tile Ray
    aggregate.  Output (tile_id, n, median_cents)."""
    from rhealpixdggs_py_ray.core import index as cidx

    ds = _read(sf_dir, "events", columns=["event_id", "value"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = su.to_string_fixed(u, TILE_RES)
        v = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        h = (pd.util.hash_array(tile.to_numpy(zero_copy_only=False))
             % np.uint64(nb)).astype(np.int64)
        return pa.table({
            "bucket": pa.array(h),
            "tile_id": tile,
            "v": pa.array(v),
        })

    def median(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "tile_id" not in g.column_names:
            return pa.table({"tile_id": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "median_cents": pa.array([], type=pa.int64())})
        t = g["tile_id"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, t))
        t, v = t[order], v[order]
        new_seg = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(new_seg)
        n = np.diff(np.append(starts, len(t)))
        pick = starts + (n - 1) // 2  # lower median
        return pa.table({
            "tile_id": pa.array(t[starts], type=pa.string()),
            "n": pa.array(n.astype(np.int64)),
            "median_cents": pa.array(v[pick]),
        })

    return (
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(median, batch_format="pyarrow")
    )


def sql_tile_median() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH v AS MATERIALIZED (
  SELECT t.cell_id AS tile_id, CAST(floor(e.value * 100) AS BIGINT) AS v
  FROM {idx_sql} t JOIN events e ON t.event_id = e.event_id
),
r AS MATERIALIZED (
  SELECT tile_id, v,
    row_number() OVER (PARTITION BY tile_id ORDER BY v) AS rn,
    COUNT(*) OVER (PARTITION BY tile_id) AS n
  FROM v
)
SELECT tile_id, CAST(n AS BIGINT) AS n, v AS median_cents
FROM r WHERE rn = (n + 1) // 2
"""


# ---------------------------------------------------------------------------
# Per-tile HLL registers + largest-remainder quota sampling
# ---------------------------------------------------------------------------

def q_tile_hll(sf_dir: str):
    """Per-tile HyperLogLog registers over distinct user_ids (the
    distinct-visitors-per-zone monitoring sketch): md5 register/rho
    exactly as q_hll_registers, keyed by the res-2 cell of the event
    location.  Registers are mergeable maxima — per-batch partials on
    a PACKED u64 key (tile top-bits << 8 | reg; a two-column aggregate
    with a string key is the measured 70 s anti-pattern, CLAUDE.md),
    one integer bucket exchange, strings rebuilt only at the end."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import max_by_u64_key
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)
    mask56 = np.uint64((1 << 56) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        uu, ui = np.unique(uid, return_inverse=True)
        h = np.fromiter(
            (md5_u64(str(int(x))) for x in uu), dtype=np.uint64, count=len(uu)
        )[ui]
        reg = h >> np.uint64(56)
        suf = h & mask56
        bl = np.zeros(len(suf), dtype=np.int64)
        for kk in range(56):
            bl += (suf >= np.uint64(1 << kk)).astype(np.int64)
        rho = 57 - bl
        # a res-2 cell is face+2 digits in bits 63..52 of the u64
        key = ((u.astype(np.uint64) >> np.uint64(52)) << np.uint64(8)) | reg
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "rho": pa.array(rho),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    folded = max_by_u64_key(part, "key", "rho", "rho", n_buckets=8)

    def stringify(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        t_u64 = ((key >> np.uint64(8)) << np.uint64(52)) | np.uint64(TILE_RES)
        return pa.table({
            "tile_id": su.to_string_fixed(t_u64, TILE_RES),
            "reg": pa.array((key & np.uint64(0xFF)).astype(np.int64)),
            "rho": pa.array(batch["rho"]),
        })

    return folded.map_batches(stringify, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_tile_hll() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return (
        f"WITH tl AS MATERIALIZED (SELECT event_id, cell_id FROM {idx_sql} t),"
        " h AS MATERIALIZED (SELECT tl.cell_id AS tile_id,"
        "  md5_number_lower(CAST(e.user_id AS VARCHAR)) AS h"
        "  FROM events e JOIN tl ON e.event_id = tl.event_id)"
        " SELECT tile_id, CAST(h >> 56 AS BIGINT) AS reg,"
        "  MAX(CASE WHEN h % 72057594037927936 = 0 THEN 57"
        "    ELSE 57 - length(printf('%b',"
        "      CAST(h % 72057594037927936 AS BIGINT))) END) AS rho"
        " FROM h GROUP BY 1, 2"
    )


def q_quota_sample(sf_dir: str):
    """Largest-remainder proportional allocation (the exact data-mixing
    primitive): QUOTA_N sample slots split across sources proportional
    to their doc counts — base = N*cnt // total, the leftover slots go
    to the largest remainders (ties -> source ASC) — then each source
    keeps its quota of smallest doc_ids.  Counts are one tiny bucket
    exchange; the per-source quota table is bounded (one row per
    source) and broadcast; selection reuses the segmented-rank resolve.
    Output (doc_id, source, rank, quota)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"], blocks=4)
    nb = 8

    def cnt_partial(batch: pa.Table) -> pa.Table:
        src = batch["source"].to_numpy(zero_copy_only=False)
        uq, c = np.unique(src, return_counts=True)
        h = (pd.util.hash_array(uq) % np.uint64(nb)).astype(np.int64)
        return pa.table({"source": pa.array(uq, type=pa.string()),
                         "n": pa.array(c.astype(np.int64)),
                         "bucket": pa.array(h)})

    def cnt_reduce(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "source" not in g.column_names:
            return pa.table({"source": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        s = g["source"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(s, return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, n)
        return pa.table({"source": pa.array(uq, type=pa.string()),
                         "n": pa.array(tot)})

    cnts = (
        ds.map_batches(cnt_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(cnt_reduce, batch_format="pyarrow")
    ).to_pandas()  # bounded: one row per source
    src = cnts["source"].to_numpy()
    n = cnts["n"].to_numpy().astype(np.int64)
    order = np.argsort(src)
    src, n = src[order], n[order]
    total = int(n.sum())
    base = QUOTA_N * n // total
    rem = QUOTA_N * n % total
    extra_slots = QUOTA_N - int(base.sum())
    rank_rem = np.lexsort((src, -rem))  # rem DESC, source ASC
    extra = np.zeros(len(src), dtype=np.int64)
    extra[rank_rem[:extra_slots]] = 1
    quota = dict(zip(src.tolist(), (base + extra).tolist()))
    quota_ref = ray.put(quota)

    def keyed(batch: pa.Table) -> pa.Table:
        s = batch["source"].to_numpy(zero_copy_only=False)
        h = (pd.util.hash_array(s.astype(object)) % np.uint64(nb)).astype(np.int64)
        return batch.append_column("bucket", pa.array(h))

    def select(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "source": pa.array([], type=pa.string()),
                             "rank": pa.array([], type=pa.int64()),
                             "quota": pa.array([], type=pa.int64())})
        q = ray.get(quota_ref)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        s = g["source"].to_numpy(zero_copy_only=False)
        order_ = np.lexsort((d, s))
        d, s = d[order_], s[order_]
        new_seg = np.r_[True, s[1:] != s[:-1]]
        starts = np.flatnonzero(new_seg)
        rk = np.arange(len(d), dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, len(d)))) + 1
        qv = np.array([q.get(x, 0) for x in s[starts]], dtype=np.int64)
        qfull = np.repeat(qv, np.diff(np.append(starts, len(d))))
        keep = rk <= qfull
        return pa.table({
            "doc_id": pa.array(d[keep]),
            "source": pa.array(s[keep], type=pa.string()),
            "rank": pa.array(rk[keep]),
            "quota": pa.array(qfull[keep]),
        })

    return (
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(select, batch_format="pyarrow")
    )


def sql_quota_sample() -> str:
    return f"""
WITH cnt AS MATERIALIZED (
  SELECT source, COUNT(*) AS n FROM documents GROUP BY source
),
tot AS MATERIALIZED (SELECT SUM(n) AS total FROM cnt),
alloc AS MATERIALIZED (
  SELECT source, n,
    ({QUOTA_N} * n) // total AS base,
    ({QUOTA_N} * n) % total AS rem,
    row_number() OVER (ORDER BY ({QUOTA_N} * n) % total DESC, source) AS rrank
  FROM cnt CROSS JOIN tot
),
slots AS MATERIALIZED (
  SELECT {QUOTA_N} - SUM(base) AS extra FROM alloc
),
quota AS MATERIALIZED (
  SELECT source, base + CASE WHEN rrank <= (SELECT extra FROM slots)
    THEN 1 ELSE 0 END AS quota
  FROM alloc
),
ranked AS MATERIALIZED (
  SELECT d.doc_id, d.source,
    row_number() OVER (PARTITION BY d.source ORDER BY d.doc_id) AS rank,
    q.quota
  FROM documents d JOIN quota q ON d.source = q.source
)
SELECT doc_id, source, rank, CAST(quota AS BIGINT) AS quota
FROM ranked WHERE rank <= quota
"""
                    # lattice neighborhood is a guaranteed candidate superset


def q_pair_counts(sf_dir: str):
    """Spatial pair statistic: per res-3 cell, the number of unordered
    event pairs within PAIR_R_M chord meters whose smaller-id endpoint
    homes in that cell (sum = the Ripley's K numerator).  Distributed
    shape: each point replicates to its home cell plus the 8 lattice
    ring cells as GHOSTS (the halo pattern again — pairs never cross a
    group boundary), one bucket exchange, segmented vectorized
    candidate expansion + exact chord filter per cell.  The ghost trick
    is the 10^12-point shape: candidate pairs are generated only inside
    a 3x3 cell neighborhood, never corpus-quadratic; the brute oracle
    cross-join certifies the superset is lossless at fixture scale."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    k = PAIR_RES
    side = 3 ** k
    W = 4 * side
    r2 = PAIR_R_M * PAIR_R_M
    nb = 8

    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def replicate(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        m = np.abs(lat) <= DISSOLVE_LAT
        ids, lon, lat = ids[m], lon[m], lat[m]
        x, y, z = proj.xyz(CFG, lon, lat)
        u = cidx.cell_from_point(CFG, k, lon, lat, plane=False)
        gy, gx = lattice_of_u64(u, k)
        t_l, e_l, x_l, y_l, z_l, h_l = [], [], [], [], [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ty = gy + dy
                ok = (ty >= 0) & (ty < side)
                tx = (gx + dx) % W
                tkey = ty * W + tx
                t_l.append(tkey[ok])
                e_l.append(ids[ok])
                x_l.append(x[ok]); y_l.append(y[ok]); z_l.append(z[ok])
                h_l.append(np.full(ok.sum(), int(dy == 0 and dx == 0),
                                   dtype=np.int64))
        tk = np.concatenate(t_l)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(tk.astype(np.uint64), nb)),
            "tcell": pa.array(tk),
            "eid": pa.array(np.concatenate(e_l)),
            "x": pa.array(np.concatenate(x_l)),
            "y": pa.array(np.concatenate(y_l)),
            "z": pa.array(np.concatenate(z_l)),
            "home": pa.array(np.concatenate(h_l)),
        })

    def count_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "tcell" not in g.column_names:
            return pa.table({"cell_id": pa.array([], type=pa.string()),
                             "n_pairs": pa.array([], type=pa.int64())})
        t = g["tcell"].to_numpy(zero_copy_only=False)
        e = g["eid"].to_numpy(zero_copy_only=False)
        x = g["x"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        z = g["z"].to_numpy(zero_copy_only=False)
        hm = g["home"].to_numpy(zero_copy_only=False).astype(bool)
        order = np.lexsort((e, t))
        t, e, x, y, z, hm = (a[order] for a in (t, e, x, y, z, hm))
        hidx = np.flatnonzero(hm)
        lo = np.searchsorted(t, t[hidx], side="left")
        hi = np.searchsorted(t, t[hidx], side="right")
        cnt = hi - lo
        if not len(hidx):
            return pa.table({"cell_id": pa.array([], type=pa.string()),
                             "n_pairs": pa.array([], type=pa.int64())})
        a_rep = np.repeat(hidx, cnt)
        b_idx = np.concatenate(
            [np.arange(l, h) for l, h in zip(lo, hi)])
        dx = x[a_rep] - x[b_idx]
        dy = y[a_rep] - y[b_idx]
        dz = z[a_rep] - z[b_idx]
        hit = (e[a_rep] < e[b_idx]) & (dx * dx + dy * dy + dz * dz <= r2)
        tc = t[a_rep][hit]
        uq, n = np.unique(tc, return_counts=True)
        gy_out, gx_out = uq // W, uq % W
        return pa.table({
            "cell_id": lattice_cell_ids(gy_out, gx_out, k),
            "n_pairs": pa.array(n.astype(np.int64)),
        })

    return (
        ds.map_batches(replicate, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(count_pairs, batch_format="pyarrow")
    )


def sql_pair_counts() -> str:
    a = repr(CFG.a)
    e2 = repr(CFG.e**2)
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    idx_sql = oracle.cell_from_point_sql(
        f"SELECT event_id, lon, lat FROM (SELECT event_id, {lon} AS lon,"
        f" {lat} AS lat FROM events) q WHERE abs(lat) <= {DISSOLVE_LAT!r}",
        PAIR_RES, CFG, id_cols=("event_id",))
    nrm = f"{a}/sqrt(1 - {e2}*sin(radians(lat))*sin(radians(lat)))"
    return f"""
WITH pxyz AS MATERIALIZED (
  SELECT event_id,
    {nrm}*cos(radians(lon))*cos(radians(lat)) AS x,
    {nrm}*sin(radians(lon))*cos(radians(lat)) AS y,
    {nrm}*(1 - {e2})*sin(radians(lat)) AS z
  FROM (SELECT event_id, {lon} AS lon, {lat} AS lat FROM events) q
  WHERE abs(lat) <= {DISSOLVE_LAT!r}
),
pcell AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
)
SELECT c.cell_id, CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM pxyz pa_ JOIN pxyz pb
  ON pa_.event_id < pb.event_id
  AND (pa_.x - pb.x) * (pa_.x - pb.x) + (pa_.y - pb.y) * (pa_.y - pb.y)
      + (pa_.z - pb.z) * (pa_.z - pb.z) <= {repr(PAIR_R_M * PAIR_R_M)}
JOIN pcell c ON c.event_id = pa_.event_id
GROUP BY c.cell_id
"""


def q_region_moments(sf_dir: str):
    """First moments of the dissolved region per ring: integer shoelace
    area2 plus the centroid numerators 6A*Cx = sum (x1+x2)(x1*y2-x2*y1)
    and 6A*Cy = sum (y1+y2)(x1*y2-x2*y1) — exact integers, so the
    downstream centroid is a single division.  Same exchanges as
    q_dissolve_rings with the moment partials riding the label
    attach."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.ops.cc import connected_components

    bnd = _dissolve_boundary(sf_dir).materialize()  # two consumers
    nb = 8

    def vertex_rows(batch: pa.Table) -> pa.Table:
        ek = batch["ekey"].to_numpy(zero_copy_only=False).astype(np.int64)
        x1 = batch["x1"].to_numpy(zero_copy_only=False)
        y1 = batch["y1"].to_numpy(zero_copy_only=False)
        x2 = batch["x2"].to_numpy(zero_copy_only=False)
        y2 = batch["y2"].to_numpy(zero_copy_only=False)
        W = 4 * 3 ** DISSOLVE_RES
        v_end = (x2 % W) * (1 << 21) + y2
        v_start = (x1 % W) * (1 << 21) + y1
        vk = np.concatenate([v_end, v_start])
        side = np.concatenate([np.zeros(len(ek), dtype=np.int64),
                               np.ones(len(ek), dtype=np.int64)])
        ek2 = np.concatenate([ek, ek])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(vk.astype(np.uint64), nb)),
            "vk": pa.array(vk), "side": pa.array(side), "ekey": pa.array(ek2),
        })

    def make_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "vk" not in g.column_names:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64())})
        vk = g["vk"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        ek = g["ekey"].to_numpy(zero_copy_only=False)
        e_vk, e_ek = vk[side == 0], ek[side == 0]
        s_vk, s_ek = vk[side == 1], ek[side == 1]
        eo = np.lexsort((e_ek, e_vk)); e_vk, e_ek = e_vk[eo], e_ek[eo]
        so = np.lexsort((s_ek, s_vk)); s_vk, s_ek = s_vk[so], s_ek[so]
        lo = np.searchsorted(s_vk, e_vk, side="left")
        hi = np.searchsorted(s_vk, e_vk, side="right")
        cnt = hi - lo
        a = np.repeat(e_ek, cnt)
        idx = np.concatenate([np.arange(l, h) for l, h in zip(lo, hi)]) \
            if len(lo) else np.array([], dtype=np.int64)
        return pa.table({"a": pa.array(a), "b": pa.array(s_ek[idx])})

    pairs = (
        bnd.map_batches(vertex_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(make_pairs, batch_format="pyarrow")
    )
    lab = connected_components(pairs)

    def lab_rows(batch: pa.Table) -> pa.Table:
        ek = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = batch["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        z = np.zeros(len(ek), dtype=np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ek.astype(np.uint64), nb)),
            "ekey": pa.array(ek), "cl": pa.array(cl),
            "cross": pa.array(z), "mx": pa.array(z), "my": pa.array(z),
            "is_lab": pa.array(np.ones(len(ek), dtype=np.int64)),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        ek = batch["ekey"].to_numpy(zero_copy_only=False).astype(np.int64)
        x1 = batch["x1"].to_numpy(zero_copy_only=False)
        y1 = batch["y1"].to_numpy(zero_copy_only=False)
        x2 = batch["x2"].to_numpy(zero_copy_only=False)
        y2 = batch["y2"].to_numpy(zero_copy_only=False)
        cr = x1 * y2 - x2 * y1
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ek.astype(np.uint64), nb)),
            "ekey": pa.array(ek),
            "cl": pa.array(np.zeros(len(ek), dtype=np.int64)),
            "cross": pa.array(cr.astype(np.int64)),
            "mx": pa.array(((x1 + x2) * cr).astype(np.int64)),
            "my": pa.array(((y1 + y2) * cr).astype(np.int64)),
            "is_lab": pa.array(np.zeros(len(ek), dtype=np.int64)),
        })

    def attach(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "ekey" not in g.column_names:
            return pa.table({"ring_id": pa.array([], type=pa.int64()),
                             "area2": pa.array([], type=pa.int64()),
                             "mx6": pa.array([], type=pa.int64()),
                             "my6": pa.array([], type=pa.int64())})
        ek = g["ekey"].to_numpy(zero_copy_only=False)
        cl = g["cl"].to_numpy(zero_copy_only=False)
        cr = g["cross"].to_numpy(zero_copy_only=False)
        mx = g["mx"].to_numpy(zero_copy_only=False)
        my = g["my"].to_numpy(zero_copy_only=False)
        is_lab = g["is_lab"].to_numpy(zero_copy_only=False).astype(bool)
        lk, lv = ek[is_lab], cl[is_lab]
        o = np.argsort(lk); lk, lv = lk[o], lv[o]
        dk = ek[~is_lab]
        pos = np.clip(np.searchsorted(lk, dk), 0, max(len(lk) - 1, 0))
        if len(lk) == 0 or not np.array_equal(lk[pos], dk):
            raise AssertionError("unlabeled boundary edge")
        ring = lv[pos]
        uq, inv = np.unique(ring, return_inverse=True)
        sa = np.zeros(len(uq), dtype=np.int64); np.add.at(sa, inv, cr[~is_lab])
        sx = np.zeros(len(uq), dtype=np.int64); np.add.at(sx, inv, mx[~is_lab])
        sy = np.zeros(len(uq), dtype=np.int64); np.add.at(sy, inv, my[~is_lab])
        return pa.table({"ring_id": pa.array(uq), "area2": pa.array(sa),
                         "mx6": pa.array(sx), "my6": pa.array(sy)})

    partials = (
        lab.map_batches(lab_rows, batch_format="pyarrow", zero_copy_batch=True)
        .union(bnd.map_batches(edge_rows, batch_format="pyarrow",
                               zero_copy_batch=True))
        .groupby("bucket")
        .map_groups(attach, batch_format="pyarrow")
    )

    def final_key(batch: pa.Table) -> pa.Table:
        c = batch["ring_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "bucket", pa.array(hash_bucket_u64(c.astype(np.uint64), nb)))

    def final_sum(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "ring_id" not in g.column_names:
            return pa.table({"ring_id": pa.array([], type=pa.int64()),
                             "area2": pa.array([], type=pa.int64()),
                             "mx6": pa.array([], type=pa.int64()),
                             "my6": pa.array([], type=pa.int64())})
        c = g["ring_id"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(c, return_inverse=True)
        outs = {}
        for col in ("area2", "mx6", "my6"):
            v = g[col].to_numpy(zero_copy_only=False)
            acc = np.zeros(len(uq), dtype=np.int64)
            np.add.at(acc, inv, v)
            outs[col] = acc
        return pa.table({"ring_id": pa.array(uq),
                         "area2": pa.array(outs["area2"]),
                         "mx6": pa.array(outs["mx6"]),
                         "my6": pa.array(outs["my6"])})

    return (
        partials.map_batches(final_key, batch_format="pyarrow",
                             zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(final_sum, batch_format="pyarrow")
    )


def sql_region_moments() -> str:
    W = 4 * 3 ** DISSOLVE_RES
    return f"""
WITH RECURSIVE {_dissolve_boundary_sql_ctes()},
p AS MATERIALIZED (
  SELECT e.ekey AS a, s.ekey AS b FROM bnd e
  JOIN bnd s ON (e.x2 % {W}) = (s.x1 % {W}) AND e.y2 = s.y1
),
ed2 AS MATERIALIZED (
  SELECT a AS u, b AS v FROM p UNION ALL SELECT b AS u, a AS v FROM p
),
reach(n, m) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM ed2) t
  UNION
  SELECT r.n, e.v FROM reach r JOIN ed2 e ON e.u = r.m
),
lab AS MATERIALIZED (
  SELECT n AS ekey, MIN(m) AS ring_id FROM reach GROUP BY n
)
SELECT l.ring_id,
  CAST(SUM(bnd.x1 * bnd.y2 - bnd.x2 * bnd.y1) AS BIGINT) AS area2,
  CAST(SUM((bnd.x1 + bnd.x2) * (bnd.x1 * bnd.y2 - bnd.x2 * bnd.y1))
    AS BIGINT) AS mx6,
  CAST(SUM((bnd.y1 + bnd.y2) * (bnd.x1 * bnd.y2 - bnd.x2 * bnd.y1))
    AS BIGINT) AS my6
FROM bnd JOIN lab l ON bnd.ekey = l.ekey
GROUP BY 1
"""


def q_tile_change(sf_dir: str):
    """Spatiotemporal change detection: per res-2 tile, event counts
    before/after the split date and the signed delta — the
    monitoring diff that drives re-tiling and anomaly review.  One
    pass, one tiny tile aggregate (side packed into the partial)."""
    from rhealpixdggs_py_ray.core import index as cidx

    split = np.datetime64(TILE_CHANGE_SPLIT, "us")
    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        after = (ts >= split).astype(np.int64)
        df = pd.DataFrame({"t": u, "a": after})
        g = df.groupby(["t", "a"], sort=False).size().reset_index(name="n")
        return pa.table({
            "tile_id": su.to_string_fixed(g["t"].to_numpy(), TILE_RES),
            "n_before": pa.array(
                np.where(g["a"].to_numpy() == 0, g["n"].to_numpy(), 0
                         ).astype(np.int64)),
            "n_after": pa.array(
                np.where(g["a"].to_numpy() == 1, g["n"].to_numpy(), 0
                         ).astype(np.int64)),
        })

    out = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tile_id")
        .aggregate(Sum("n_before", alias_name="n_before"),
                   Sum("n_after", alias_name="n_after"))
    )

    def delta(batch: pa.Table) -> pa.Table:
        nb_ = batch["n_before"].to_numpy(zero_copy_only=False)
        na_ = batch["n_after"].to_numpy(zero_copy_only=False)
        return pa.table({
            "tile_id": batch["tile_id"],
            "n_before": pa.array(nb_), "n_after": pa.array(na_),
            "delta": pa.array(na_ - nb_),
        })

    return out.map_batches(delta, batch_format="pyarrow", zero_copy_batch=True)


def sql_tile_change() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
SELECT t.cell_id AS tile_id,
  CAST(SUM(CASE WHEN e.ts < TIMESTAMP '{TILE_CHANGE_SPLIT}' THEN 1 ELSE 0 END)
    AS BIGINT) AS n_before,
  CAST(SUM(CASE WHEN e.ts >= TIMESTAMP '{TILE_CHANGE_SPLIT}' THEN 1 ELSE 0 END)
    AS BIGINT) AS n_after,
  CAST(SUM(CASE WHEN e.ts >= TIMESTAMP '{TILE_CHANGE_SPLIT}' THEN 1 ELSE -1 END)
    AS BIGINT) AS delta
FROM {inner} t JOIN events e ON e.event_id = t.event_id
GROUP BY 1
"""


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape end-to-end: orders placed before Q3_DATE joined
    to lineitems shipped after it, per-order revenue, global top-10 by
    (revenue DESC, orderkey).  Both narrow filtered sides meet in ONE
    union bucket exchange on h(orderkey); each bucket emits only its
    local top-10, the driver merges 8x10 rows.  Output (rank,
    o_orderkey, revenue_c)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    D = np.datetime64(Q3_DATE, "us")
    nb = 8
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"], blocks=4)
    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"],
               blocks=4)

    def li_side(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]")
        m = ship > D
        k = batch["l_orderkey"].to_numpy(zero_copy_only=False)[m]
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[m]
        d = batch["l_discount"].to_numpy(zero_copy_only=False)[m]
        r = np.floor(p * (1 - d) * 100).astype(np.int64)
        uq, inv = np.unique(k, return_inverse=True)
        rev = np.zeros(len(uq), dtype=np.int64)
        np.add.at(rev, inv, r)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uq.astype(np.uint64), nb)),
            "side": pa.array(np.zeros(len(uq), dtype=np.int64)),
            "key": pa.array(uq.astype(np.int64)),
            "rev": pa.array(rev),
        })

    def od_side(batch: pa.Table) -> pa.Table:
        odt = batch["o_orderdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]")
        m = odt < D
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)[m]
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(k.astype(np.uint64), nb)),
            "side": pa.array(np.ones(len(k), dtype=np.int64)),
            "key": pa.array(k.astype(np.int64)),
            "rev": pa.array(np.zeros(len(k), dtype=np.int64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                             "revenue_c": pa.array([], type=pa.int64())})
        side = g["side"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        rev = g["rev"].to_numpy(zero_copy_only=False)
        lk, lr = key[side == 0], rev[side == 0]
        ok = np.unique(key[side == 1])
        uq, inv = np.unique(lk, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, lr)
        if len(ok):
            pos = np.clip(np.searchsorted(ok, uq), 0, len(ok) - 1)
            m = ok[pos] == uq
        else:
            m = np.zeros(len(uq), dtype=bool)
        uq, s = uq[m], s[m]
        order = np.lexsort((uq, -s))[:10]  # local top-10
        return pa.table({"o_orderkey": pa.array(uq[order]),
                         "revenue_c": pa.array(s[order])})

    merged = (
        li.map_batches(li_side, batch_format="pyarrow", zero_copy_batch=True)
        .union(od.map_batches(od_side, batch_format="pyarrow",
                              zero_copy_batch=True))
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    ).to_pandas()  # <= nb*10 rows
    order = np.lexsort((merged["o_orderkey"].to_numpy(),
                        -merged["revenue_c"].to_numpy()))[:10]
    top = merged.iloc[order]
    return pa.table({
        "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
        "o_orderkey": pa.array(top["o_orderkey"].to_numpy().astype(np.int64)),
        "revenue_c": pa.array(top["revenue_c"].to_numpy().astype(np.int64)),
    })


def sql_shipping_priority() -> str:
    return f"""
WITH r AS MATERIALIZED (
  SELECT l.l_orderkey AS o_orderkey,
    SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT))
      AS revenue_c
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE l.l_shipdate > TIMESTAMP '{Q3_DATE}'
    AND o.o_orderdate < TIMESTAMP '{Q3_DATE}'
  GROUP BY 1
)
SELECT row_number() OVER (ORDER BY revenue_c DESC, o_orderkey) AS rank,
  o_orderkey, CAST(revenue_c AS BIGINT) AS revenue_c
FROM r ORDER BY rank LIMIT 10
"""


def q_priority_sample(sf_dir: str):
    """Weighted sample without replacement via integer priority order
    statistics (the bottom-k flavor of Efraimidis-Spirakis / priority
    sampling): priority(doc) = md5_u64(doc_id) // max(n_chars, 1) —
    heavier docs draw proportionally smaller priorities — and the
    global sample is the K smallest (priority, doc_id).  Mergeable
    (bottom-k of per-batch bottom-ks), one tiny exchange of <= K rows
    per batch.  Output (rnk, doc_id, n_chars)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64_many

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        h = md5_u64_many([str(int(i)) for i in ids])
        prio = (h // np.maximum(nch, 1).astype(np.uint64)).astype(np.uint64)
        sel = np.lexsort((ids, prio))[:PRIOSAMPLE_K]
        return pa.table({
            "prio": pa.array(prio[sel]),
            "doc_id": pa.array(ids[sel]),
            "n_chars": pa.array(nch[sel]),
            "one": pa.array(np.zeros(len(sel), dtype=np.int64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "prio" not in g.column_names:
            return pa.table({"rnk": pa.array([], type=pa.int64()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "n_chars": pa.array([], type=pa.int64())})
        prio = g["prio"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        nch = g["n_chars"].to_numpy(zero_copy_only=False)
        sel = np.lexsort((ids, prio))[:PRIOSAMPLE_K]
        return pa.table({
            "rnk": pa.array(np.arange(1, len(sel) + 1, dtype=np.int64)),
            "doc_id": pa.array(ids[sel]),
            "n_chars": pa.array(nch[sel]),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("one")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_priority_sample() -> str:
    return (
        "SELECT CAST(row_number() OVER (ORDER BY"
        "   md5_number_lower(CAST(doc_id AS VARCHAR))"
        "     // greatest(CAST(n_chars AS UBIGINT), 1), doc_id)"
        " AS BIGINT) AS rnk, doc_id, n_chars"
        f" FROM documents QUALIFY rnk <= {PRIOSAMPLE_K}"
    )


def q_dataset_profile(sf_dir: str):
    """One-pass dataset card (the profiling block at the top of a
    dataset README): doc count, total/min/max chars, exact median
    length (rank rule k = (n+1)//2 over merged per-batch length
    histograms), language count and per-language doc counts — all
    from ONE scan emitting tiny mergeable partials.  Output tall
    (metric, value) rows."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def part(batch: pa.Table) -> pa.Table:
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        lu, lc = np.unique(lang, return_counts=True)
        hu, hc = np.unique(nch, return_counts=True)
        keys = (["n_docs", "sum_chars"]
                + [f"lang_{x}" for x in lu]
                + [f"hist_{int(x)}" for x in hu])
        vals = ([len(nch), int(nch.sum())]
                + lc.astype(np.int64).tolist()
                + hc.astype(np.int64).tolist())
        return pa.table({
            "one": pa.array(np.zeros(len(keys), dtype=np.int64)),
            "metric": pa.array(keys, type=pa.string()),
            "value": pa.array(np.array(vals, dtype=np.int64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "metric" not in g.column_names:
            return pa.table({"metric": pa.array([], type=pa.string()),
                             "value": pa.array([], type=pa.int64())})
        mk = g["metric"].to_numpy(zero_copy_only=False)
        mv = g["value"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(mk, return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, mv)
        agg = dict(zip(uq.tolist(), tot.tolist()))
        hist = sorted((int(k[5:]), v) for k, v in agg.items()
                      if k.startswith("hist_"))
        lens = np.array([h[0] for h in hist], dtype=np.int64)
        cnts = np.array([h[1] for h in hist], dtype=np.int64)
        n = int(cnts.sum())
        csum = np.cumsum(cnts)
        p50 = int(lens[np.searchsorted(csum, (n + 1) // 2)]) if n else 0
        out = {
            "n_docs": agg.get("n_docs", 0),
            "sum_chars": agg.get("sum_chars", 0),
            "min_chars": int(lens[0]) if n else 0,
            "max_chars": int(lens[-1]) if n else 0,
            "p50_chars": p50,
            "n_langs": sum(1 for k in agg if k.startswith("lang_")),
        }
        for k in sorted(agg):
            if k.startswith("lang_"):
                out[k] = agg[k]
        return pa.table({
            "metric": pa.array(list(out.keys()), type=pa.string()),
            "value": pa.array(np.array(list(out.values()), dtype=np.int64)),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("one")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_dataset_profile() -> str:
    return """
WITH dpm AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
    CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
    CAST(MIN(n_chars) AS BIGINT) AS min_chars,
    CAST(MAX(n_chars) AS BIGINT) AS max_chars,
    CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs
  FROM documents
), dpr AS MATERIALIZED (
  SELECT CAST(n_chars AS BIGINT) AS v,
    row_number() OVER (ORDER BY n_chars) AS rn,
    COUNT(*) OVER () AS n
  FROM documents
), dp50 AS MATERIALIZED (
  SELECT v AS p50 FROM dpr WHERE rn = (n + 1) // 2
)
SELECT 'n_docs' AS metric, n_docs AS value FROM dpm
UNION ALL SELECT 'sum_chars', sum_chars FROM dpm
UNION ALL SELECT 'min_chars', min_chars FROM dpm
UNION ALL SELECT 'max_chars', max_chars FROM dpm
UNION ALL SELECT 'p50_chars', p50 FROM dp50
UNION ALL SELECT 'n_langs', n_langs FROM dpm
UNION ALL SELECT 'lang_' || lang, CAST(COUNT(*) AS BIGINT)
  FROM documents GROUP BY lang
"""


def q_tile_modality_balance(sf_dir: str):
    """Cross-modal spatial coverage audit (do we have imagery where we
    have activity?): per res-2 tile, image count (from the images
    table's phash-derived coordinates) vs event count, and the image
    share as an exact integer permille-of-million.  Both modalities
    emit per-batch (tile, side) count partials; ONE union bucket
    exchange resolves.  Payload bytes are never read — metadata-only
    on the image side.  Output (tile_id, n_images, n_events,
    img_share_e6)."""
    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.stages.indexer import CellIndexer

    write_images_table(IMG_DIR, IMG_N)
    nb = 8

    def part_of(cell_u64: np.ndarray, side: int) -> pa.Table:
        uq, cnt = np.unique(cell_u64.astype(np.uint64), return_counts=True)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uq, nb)),
            "tile_u64": pa.array(uq, type=pa.uint64()),
            "n_img": pa.array(cnt.astype(np.int64) * (1 if side else 0)),
            "n_evt": pa.array(cnt.astype(np.int64) * (0 if side else 1)),
        })

    img_idx = CellIndexer(resolution=TILE_RES, emit_cell_id=False)

    def img_part(batch: pa.Table) -> pa.Table:
        out = img_idx(batch)
        return part_of(out["cell_u64"].to_numpy(zero_copy_only=False), 1)

    from rhealpixdggs_py_ray.core import index as cidx

    def evt_part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        return part_of(u, 0)

    imgs = ray.data.read_parquet(
        IMG_DIR, columns=["phash"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8),
    ).map_batches(img_part, batch_format="pyarrow", zero_copy_batch=True)
    evts = _read(sf_dir, "events", columns=["event_id"], blocks=4).map_batches(
        evt_part, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        cols = {"tile_id": pa.string(), "n_images": pa.int64(),
                "n_events": pa.int64(), "img_share_e6": pa.int64()}
        if g.num_rows == 0 or "tile_u64" not in g.column_names:
            return pa.table({c: pa.array([], type=t) for c, t in cols.items()})
        u = g["tile_u64"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ni = g["n_img"].to_numpy(zero_copy_only=False)
        ne = g["n_evt"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(u, return_inverse=True)
        si = np.zeros(len(uq), dtype=np.int64)
        se = np.zeros(len(uq), dtype=np.int64)
        np.add.at(si, inv, ni)
        np.add.at(se, inv, ne)
        return pa.table({
            "tile_id": su.to_string_fixed(uq, TILE_RES),
            "n_images": pa.array(si),
            "n_events": pa.array(se),
            "img_share_e6": pa.array((si * 1_000_000) // (si + se)),
        })

    return (
        imgs.union(evts)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_tile_modality_balance() -> str:
    src = _image_src_sql()
    img_pts = (f"SELECT image_id, lon, lat FROM {src} q4")
    img_idx = oracle.cell_from_point_sql(
        img_pts, TILE_RES, CFG, id_cols=("image_id",))
    evt_idx = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",))
    return f"""
WITH tmi AS MATERIALIZED (
  SELECT cell_id AS tile_id, CAST(COUNT(*) AS BIGINT) AS n_images
  FROM {img_idx} a GROUP BY cell_id
), tme AS MATERIALIZED (
  SELECT cell_id AS tile_id, CAST(COUNT(*) AS BIGINT) AS n_events
  FROM {evt_idx} b GROUP BY cell_id
)
SELECT COALESCE(i.tile_id, e.tile_id) AS tile_id,
  COALESCE(i.n_images, 0) AS n_images,
  COALESCE(e.n_events, 0) AS n_events,
  (COALESCE(i.n_images, 0) * 1000000)
    // (COALESCE(i.n_images, 0) + COALESCE(e.n_events, 0)) AS img_share_e6
FROM tmi i FULL OUTER JOIN tme e ON e.tile_id = i.tile_id
"""


def q_tile_gini(sf_dir: str):
    """Spatial behavioral diversity: Gini impurity of the event-type
    mix per res-2 tile (the land-use-mix / audience-mix analytic) as a
    RATIONAL of exact integers — gini_e9 = (n^2 - sum cnt^2) * 1e9 //
    n^2 (char_diversity's ulp-safe rule).  Per-batch counts pack
    (tile top-bits << 3 | type code) into ONE u64-keyed exchange; the
    folded (<= tiles x 5 row) table resolves per tile in a second tiny
    integer exchange.  Output (tile_id, n_events, n_types, top_cnt,
    gini_e9)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id", "event_type"],
               blocks=4)
    codes = {t: i for i, t in enumerate(EVT_TYPES)}

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        key = ((u.astype(np.uint64) >> np.uint64(52)) << np.uint64(3)) | code
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "cnt", n_buckets=8,
    )

    def key2(batch: pa.Table) -> pa.Table:
        tile = (batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
                >> np.uint64(3))
        return batch.append_column("bucket2",
                                   pa.array(hash_bucket_u64(tile, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"tile_id": pa.array([], type=pa.string()),
                             "n_events": pa.array([], type=pa.int64()),
                             "n_types": pa.array([], type=pa.int64()),
                             "top_cnt": pa.array([], type=pa.int64()),
                             "gini_e9": pa.array([], type=pa.int64())})
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cnt = g["cnt"].to_numpy(zero_copy_only=False)
        tile = key >> np.uint64(3)
        tu, inv = np.unique(tile, return_inverse=True)
        n = np.zeros(len(tu), dtype=np.int64)
        np.add.at(n, inv, cnt)
        s2 = np.zeros(len(tu), dtype=np.int64)
        np.add.at(s2, inv, cnt * cnt)
        nt = np.zeros(len(tu), dtype=np.int64)
        np.add.at(nt, inv, 1)
        top = np.zeros(len(tu), dtype=np.int64)
        np.maximum.at(top, inv, cnt)
        t_u64 = (tu << np.uint64(52)) | np.uint64(TILE_RES)
        return pa.table({
            "tile_id": su.to_string_fixed(t_u64, TILE_RES),
            "n_events": pa.array(n),
            "n_types": pa.array(nt),
            "top_cnt": pa.array(top),
            "gini_e9": pa.array(((n * n - s2) * 1_000_000_000) // (n * n)),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_tile_gini() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH tgi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
tgc AS MATERIALIZED (
  SELECT tl.cell_id AS tile_id, e.event_type, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events e JOIN tgi tl ON e.event_id = tl.event_id
  GROUP BY 1, 2
)
SELECT tile_id,
  CAST(SUM(cnt) AS BIGINT) AS n_events,
  CAST(COUNT(*) AS BIGINT) AS n_types,
  CAST(MAX(cnt) AS BIGINT) AS top_cnt,
  CAST((SUM(cnt) * SUM(cnt) - SUM(cnt * cnt)) * 1000000000
    // (SUM(cnt) * SUM(cnt)) AS BIGINT) AS gini_e9
FROM tgc GROUP BY tile_id
"""


# ---------------------------------------------------------------------------
# Round 4d: tile-to-tile audience similarity (Jaccard over user sets)
# ---------------------------------------------------------------------------


def q_tile_similarity(sf_dir: str):
    """Audience overlap between spatial tiles: for every pair of res-2
    tiles sharing at least one visitor, the Jaccard similarity of
    their DISTINCT user sets (the place-similarity analytic behind
    "people who visit A also visit B").  Distinct (user, tile) visits
    fold through one u64 exchange; within-user tile pairs (bounded by
    each user's distinct-tile count) fold through a second; per-tile
    user counts are a <= 486-row table (res-2 cell count) gathered on
    the driver and closed over the final map.  Output (tile_a, tile_b,
    n_common, n_a, n_b, jacc_e9)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)

    def visits(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        if len(uid) and int(uid.max()) >= (1 << 31):
            raise AssertionError("tile_similarity needs user_id < 2^31")
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = (u.astype(np.uint64) >> np.uint64(52)).astype(np.uint64)
        key = np.unique((uid.astype(np.uint64) << np.uint64(12)) | tile)
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    dvis = sum_by_u64_key(
        ds.map_batches(visits, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "m", n_buckets=8,
    ).materialize()  # bounded: <= n_users x 486 distinct visit rows

    # per-tile distinct-user counts: <= 486 rows, combined on the driver
    tile_users: dict[int, int] = {}
    for b in dvis.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        t = (b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
             & np.uint64((1 << 12) - 1))
        tu, tc = np.unique(t, return_counts=True)
        for k, c in zip(tu.tolist(), tc.tolist()):
            tile_users[k] = tile_users.get(k, 0) + c

    def by_user(batch: pa.Table) -> pa.Table:
        uid = (batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
               >> np.uint64(12))
        return batch.append_column(
            "bucket2", pa.array(hash_bucket_u64(uid, 8)))

    def pairs(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"pkey": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        key = np.sort(g["key"].to_numpy(zero_copy_only=False)
                      .astype(np.uint64))
        uid = key >> np.uint64(12)
        tile = key & np.uint64((1 << 12) - 1)
        # within-user (ta < tb) pairs; sorted key => tiles sorted per user
        uu, start = np.unique(uid, return_index=True)
        cnt = np.diff(np.append(start, len(uid)))
        out = []
        for s, c in zip(start.tolist(), cnt.tolist()):
            t = tile[s:s + c]
            ia, ib = np.triu_indices(c, k=1)
            out.append((t[ia] << np.uint64(12)) | t[ib])
        pk = np.concatenate(out) if out else np.array([], dtype=np.uint64)
        return pa.table({
            "pkey": pa.array(pk, type=pa.uint64()),
            "one": pa.array(np.ones(len(pk), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        dvis.map_batches(by_user, batch_format="pyarrow",
                         zero_copy_batch=True)
        .groupby("bucket2").map_groups(pairs, batch_format="pyarrow"),
        "pkey", "one", "n_common", n_buckets=8,
    )

    def finish(batch: pa.Table) -> pa.Table:
        pk = batch["pkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        nc = batch["n_common"].to_numpy(zero_copy_only=False)
        ta = (pk >> np.uint64(12)).astype(np.uint64)
        tb = (pk & np.uint64((1 << 12) - 1)).astype(np.uint64)
        na = np.array([tile_users[int(x)] for x in ta], dtype=np.int64)
        nb_ = np.array([tile_users[int(x)] for x in tb], dtype=np.int64)
        res = np.uint64(TILE_RES)
        return pa.table({
            "tile_a": su.to_string_fixed((ta << np.uint64(52)) | res, TILE_RES),
            "tile_b": su.to_string_fixed((tb << np.uint64(52)) | res, TILE_RES),
            "n_common": pa.array(nc),
            "n_a": pa.array(na),
            "n_b": pa.array(nb_),
            "jacc_e9": pa.array(nc * 1_000_000_000 // (na + nb_ - nc)),
        })

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_tile_similarity() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH tsv AS MATERIALIZED (
  SELECT DISTINCT e.user_id, t.cell_id AS tile
  FROM events e JOIN (SELECT event_id, cell_id FROM {idx_sql} q) t
    ON t.event_id = e.event_id
),
tsn AS MATERIALIZED (
  SELECT tile, CAST(COUNT(*) AS BIGINT) AS nu FROM tsv GROUP BY 1
),
tsp AS MATERIALIZED (
  SELECT a.tile AS tile_a, b.tile AS tile_b,
    CAST(COUNT(*) AS BIGINT) AS n_common
  FROM tsv a JOIN tsv b ON a.user_id = b.user_id AND a.tile < b.tile
  GROUP BY 1, 2
)
SELECT p.tile_a, p.tile_b, p.n_common, na.nu AS n_a, nb.nu AS n_b,
  CAST(p.n_common * 1000000000 // (na.nu + nb.nu - p.n_common) AS BIGINT)
    AS jacc_e9
FROM tsp p
JOIN tsn na ON na.tile = p.tile_a
JOIN tsn nb ON nb.tile = p.tile_b
"""


# ---------------------------------------------------------------------------
# Round 4d: first-order Markov transitions over event types
# ---------------------------------------------------------------------------


def q_markov_transitions(sf_dir: str):
    """Behavioral Markov chain: global transition counts between
    consecutive event types per user (ordered by ts, event_id) and the
    row-normalized transition probability as an exact integer ratio
    p_e9 = n * 1e9 // row_total.  ONE h(user) bucket exchange emits
    packed (prev*8 | next) partial counts; the folded table is <= 25
    rows (5 event types), combined on the driver (resumable_tiling
    precedent for tiny final merges).  Output (prev_type, next_type,
    n, p_e9)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_to_driver

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        code = np.array([codes[x] for x in et], dtype=np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "eid": pa.array(eid.astype(np.int64)),
            "code": pa.array(code),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "uid" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        uid = g["uid"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        code = g["code"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, code = uid[order], code[order]
        same = uid[1:] == uid[:-1]
        key = (code[:-1][same] * 8 + code[1:][same]).astype(np.uint64)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    # <= 25 rows: combine on the driver
    key, n = sum_to_driver(
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(per_bucket, batch_format="pyarrow"),
        "key", "one")
    key = key.astype(np.int64)
    prev, nxt = key // 8, key % 8
    row_tot = np.zeros(len(EVT_TYPES), dtype=np.int64)
    np.add.at(row_tot, prev, n)
    types = np.array(EVT_TYPES, dtype=object)
    return pa.table({
        "prev_type": pa.array(types[prev], type=pa.string()),
        "next_type": pa.array(types[nxt], type=pa.string()),
        "n": pa.array(n),
        "p_e9": pa.array(n * 1_000_000_000 // row_tot[prev]),
    })


def sql_markov_transitions() -> str:
    return """
WITH mkp AS MATERIALIZED (
  SELECT event_type,
    lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
      AS prev
  FROM events
),
mkc AS MATERIALIZED (
  SELECT prev AS prev_type, event_type AS next_type,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM mkp WHERE prev IS NOT NULL GROUP BY 1, 2
)
SELECT prev_type, next_type, n,
  CAST(n * 1000000000 // SUM(n) OVER (PARTITION BY prev_type) AS BIGINT)
    AS p_e9
FROM mkc
"""


# ---------------------------------------------------------------------------
# Round 4d: per-user event-type entropy (quantized-ln exact integers)
# ---------------------------------------------------------------------------


def q_session_entropy(sf_dir: str):
    """Behavioral diversity as Shannon entropy: per user, H = ln(n) -
    sum(c_i * ln(c_i)) / n over event-type counts c_i.  ln is
    bit-identical libm on both sides (round-4c note), each term
    floor-quantizes to integer nano-nats BEFORE the sum (order-free),
    and the division is integer — entropy_e9 = floor(ln(n)*1e9) -
    sum_i floor(c_i*ln(c_i)*1e9) // n.  Same one-packed-key-exchange
    shape as tile_gini.  Output (user_id, n_events, n_types,
    entropy_e9)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        if len(uid) and int(uid.max()) >= (1 << 60):
            raise AssertionError("session_entropy packing bound")
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        key = (uid.astype(np.uint64) << np.uint64(3)) | code
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "c", n_buckets=8,
    )

    def key2(batch: pa.Table) -> pa.Table:
        uid = (batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
               >> np.uint64(3))
        return batch.append_column("bucket2",
                                   pa.array(hash_bucket_u64(uid, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "n_events": pa.array([], type=pa.int64()),
                             "n_types": pa.array([], type=pa.int64()),
                             "entropy_e9": pa.array([], type=pa.int64())})
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["c"].to_numpy(zero_copy_only=False)
        uid = (key >> np.uint64(3)).astype(np.int64)
        term = np.floor(c.astype(np.float64)
                        * _libm_log(c)
                        * 1e9).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        n = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n, inv, c)
        st = np.zeros(len(uu), dtype=np.int64)
        np.add.at(st, inv, term)
        nt = np.zeros(len(uu), dtype=np.int64)
        np.add.at(nt, inv, 1)
        h = (np.floor(_libm_log(n) * 1e9).astype(np.int64)
             - st // n)
        return pa.table({
            "user_id": pa.array(uu),
            "n_events": pa.array(n),
            "n_types": pa.array(nt),
            "entropy_e9": pa.array(h),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_session_entropy() -> str:
    return """
WITH sec AS MATERIALIZED (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
)
SELECT user_id,
  CAST(SUM(c) AS BIGINT) AS n_events,
  CAST(COUNT(*) AS BIGINT) AS n_types,
  CAST(CAST(floor(ln(CAST(SUM(c) AS DOUBLE)) * 1000000000.0) AS BIGINT)
    - SUM(CAST(floor(CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE))
        * 1000000000.0) AS BIGINT)) // SUM(c) AS BIGINT) AS entropy_e9
FROM sec GROUP BY user_id
"""


def q_pca_power(sf_dir: str):
    """Top principal direction of the embedding second moment: the
    distributed integer gram matrix (q_embedding_gram's reduction —
    embedding rows never shuffle, 2080 upper-triangle partials per
    batch) followed by PCA_ITERS exact-integer power iterations on the
    driver's 64x64 copy.  Each iteration rescales by w * 2^20 //
    max|w| with DuckDB-style TRUNCATED division (bignum Python ints
    mirror SQL HUGEINT, nothing ever rounds), so the direction and its
    Rayleigh quotient replay bit-exactly.  Output 64 rows (i, v_q20,
    lam) — the quantized eigenvector and the shared eigenvalue
    estimate."""
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        M = _emb_matrix(batch)
        Q = np.floor(M.astype(np.float64) * 1000.0)
        G = Q.T @ Q  # exact: |q| < 2^24, n < 2^17 per batch
        d = Q.shape[1]
        iu, ju = np.triu_indices(d)
        return pa.table({
            "i": pa.array(iu.astype(np.int64)),
            "j": pa.array(ju.astype(np.int64)),
            "g": pa.array(G[iu, ju].astype(np.int64)),
        })

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    folded = part.groupby(["i", "j"]).aggregate(Sum("g", alias_name="g"))

    # 2080-row bounded gather; the heavy reduction already happened
    G = [[0] * EMB_D for _ in range(EMB_D)]
    for b in folded.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        for i, j, g in zip(b["i"].to_pylist(), b["j"].to_pylist(),
                           b["g"].to_pylist()):
            G[i][j] = g
            G[j][i] = g

    def tdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    v = [1] * EMB_D
    for _ in range(PCA_ITERS):
        w = [sum(G[i][j] * v[j] for j in range(EMB_D))
             for i in range(EMB_D)]
        m = max(abs(x) for x in w)
        v = [tdiv(x * PCA_SCALE, m) for x in w]
    w2 = [sum(G[i][j] * v[j] for j in range(EMB_D)) for i in range(EMB_D)]
    num = sum(v[i] * w2[i] for i in range(EMB_D))
    den = sum(x * x for x in v)
    lam = tdiv(num, den)
    return pa.table({
        "i": pa.array(np.arange(EMB_D, dtype=np.int64)),
        "v_q20": pa.array(np.array(v, dtype=np.int64)),
        "lam": pa.array(np.full(EMB_D, lam, dtype=np.int64)),
    })


def sql_pca_power() -> str:
    steps = []
    prev = "pcv0"
    for t in range(1, PCA_ITERS + 1):
        steps.append(f"""
pcw{t} AS MATERIALIZED (
  SELECT s.i AS i, CAST(SUM(s.g * v.val) AS HUGEINT) AS val
  FROM pcsym s JOIN {prev} v ON v.i = s.j GROUP BY 1
),
pcm{t} AS MATERIALIZED (SELECT MAX(abs(val)) AS m FROM pcw{t}),
pcv{t} AS MATERIALIZED (
  SELECT i, CAST(val * {PCA_SCALE} // (SELECT m FROM pcm{t}) AS HUGEINT)
    AS val
  FROM pcw{t}
)""")
        prev = f"pcv{t}"
    body = ",".join(steps)
    return f"""
WITH pce AS MATERIALIZED (
  SELECT vec_id, d.i - 1 AS i,
    CAST(floor(CAST(embedding[d.i] AS DOUBLE) * 1000.0) AS BIGINT) AS m
  FROM embeddings, (SELECT unnest(generate_series(1, {EMB_D})) AS i) d
),
pcg AS MATERIALIZED (
  SELECT a.i AS i, b.i AS j, CAST(SUM(a.m * b.m) AS HUGEINT) AS g
  FROM pce a JOIN pce b ON a.vec_id = b.vec_id AND b.i >= a.i
  GROUP BY a.i, b.i
),
pcsym AS MATERIALIZED (
  SELECT i, j, g FROM pcg
  UNION ALL SELECT j AS i, i AS j, g FROM pcg WHERE i <> j
),
pcv0 AS MATERIALIZED (
  SELECT unnest(generate_series(0, {EMB_D - 1})) AS i,
    CAST(1 AS HUGEINT) AS val
),{body},
pcw AS MATERIALIZED (
  SELECT s.i AS i, CAST(SUM(s.g * v.val) AS HUGEINT) AS val
  FROM pcsym s JOIN {prev} v ON v.i = s.j GROUP BY 1
),
pcr AS MATERIALIZED (
  SELECT SUM(v.val * w.val) AS num, SUM(v.val * v.val) AS den
  FROM {prev} v JOIN pcw w ON w.i = v.i
)
SELECT CAST(v.i AS BIGINT) AS i, CAST(v.val AS BIGINT) AS v_q20,
  CAST((SELECT num // den FROM pcr) AS BIGINT) AS lam
FROM {prev} v
"""


def q_tile_trigrams(sf_dir: str):
    """Sequential pattern mining: the TRIGRAM_K most frequent 3-step
    tile sequences across all users (consecutive events by ts,
    event_id; steps may repeat a tile).  Each user-bucket group packs
    its trigrams into 36-bit u64 keys (3 x 12-bit res-2 tiles); exact
    global counts come from ONE u64 fold and the top-K from per-bucket
    partial top-K + a tiny merge (count DESC, key ASC — vocab's
    disjoint-bucket exactness argument).  Output (t1, t2, t3, n)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        lon, lat = oracle.lonlat_from_id(eid)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "eid": pa.array(eid.astype(np.int64)),
            "tile": pa.array(u >> np.uint64(52), type=pa.uint64()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "uid" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        uid = g["uid"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        tile = g["tile"].to_numpy(zero_copy_only=False).astype(
            np.uint64)[order]
        same3 = (uid[2:] == uid[:-2])
        key = ((tile[:-2] << np.uint64(24)) | (tile[1:-1] << np.uint64(12))
               | tile[2:])[same3]
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    folded = sum_by_u64_key(
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(per_bucket, batch_format="pyarrow"),
        "key", "one", "n", n_buckets=8,
    )

    def partial_topk(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = batch["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, -n))[:TRIGRAM_K]
        return pa.table({
            "key": pa.array(key[order], type=pa.uint64()),
            "n": pa.array(n[order]),
            "g": pa.array(np.zeros(len(order), dtype=np.int64)),
        })

    def final(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"t1": pa.array([], type=pa.string()),
                             "t2": pa.array([], type=pa.string()),
                             "t3": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, -n))[:TRIGRAM_K]
        key, n = key[order], n[order]
        res = np.uint64(TILE_RES)
        mask = np.uint64((1 << 12) - 1)

        def s(tt):
            return su.to_string_fixed((tt << np.uint64(52)) | res, TILE_RES)
        return pa.table({
            "t1": pa.array(s((key >> np.uint64(24)) & mask),
                           type=pa.string()),
            "t2": pa.array(s((key >> np.uint64(12)) & mask),
                           type=pa.string()),
            "t3": pa.array(s(key & mask), type=pa.string()),
            "n": pa.array(n),
        })

    return (
        folded.map_batches(partial_topk, batch_format="pyarrow",
                           zero_copy_batch=True)
        .groupby("g").map_groups(final, batch_format="pyarrow")
    )


def sql_tile_trigrams() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH tgx AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id, t.cell_id AS tile
  FROM events e JOIN (SELECT event_id, cell_id FROM {idx_sql} q) t
    ON t.event_id = e.event_id
),
tgs AS MATERIALIZED (
  SELECT tile AS t3,
    lag(tile, 1) OVER w AS t2, lag(tile, 2) OVER w AS t1
  FROM tgx WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
tgc AS MATERIALIZED (
  SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
  FROM tgs WHERE t1 IS NOT NULL GROUP BY 1, 2, 3
)
SELECT t1, t2, t3, n FROM tgc
ORDER BY n DESC, t1 ASC, t2 ASC, t3 ASC LIMIT {TRIGRAM_K}
"""


# ---------------------------------------------------------------------------
# Round 4d: decision-stump feature importance over embedding dims
# ---------------------------------------------------------------------------


def q_decision_stump(sf_dir: str):
    """Per-feature best Gini split against the label (the feature-
    importance table a tree trainer derives): for every embedding
    dimension, the threshold (on milli-quantized values) maximizing
    sum(cL^2)*nR + sum(cR^2)*nL over nL*nR — the integer-cleared form
    of minimizing weighted Gini impurity.  score_e6 floor-quantizes
    the rational identically on both sides; ties break by smaller
    threshold.  Distributed shape: per-batch (dim, value, label)
    partial counts -> one packed u64 fold (bounded by 64 dims x value
    grid x 10 labels, NOT by rows) -> per-dim prefix-sum resolve.
    int64 bound: A*1e6 <= 2*N^3*1e6 needs N <= ~16k rows (asserted;
    beyond that the resolve switches to Python bignums).  Output one
    row per dim (dim, thr_milli, score_e6, n_left, n_right)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    ds = _read(sf_dir, "embeddings", columns=["embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        M = _emb_matrix(batch)
        vq = np.floor(M.astype(np.float64) * 1000.0).astype(np.int64)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        n, d = vq.shape
        if not (np.abs(vq).max() < 2048 and lab.max() < 16):
            raise AssertionError("decision_stump packing bound")
        dim = np.repeat(np.arange(d, dtype=np.int64), n)
        v = vq.T.ravel()
        lb = np.tile(lab, d)
        key = ((dim.astype(np.uint64) << np.uint64(16))
               | ((v + 2048).astype(np.uint64) << np.uint64(4))
               | lb.astype(np.uint64))
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    folded = sum_by_u64_key(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "c", n_buckets=8,
    )

    def key2(batch: pa.Table) -> pa.Table:
        dim = (batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
               >> np.uint64(16))
        return batch.append_column("bucket2",
                                   pa.array(hash_bucket_u64(dim, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        empty = pa.table({"dim": pa.array([], type=pa.int64()),
                          "thr_milli": pa.array([], type=pa.int64()),
                          "score_e6": pa.array([], type=pa.int64()),
                          "n_left": pa.array([], type=pa.int64()),
                          "n_right": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "key" not in g.column_names:
            return empty
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(key)
        key, c = key[order], c[order]
        dim = (key >> np.uint64(16)).astype(np.int64)
        v = ((key >> np.uint64(4)) & np.uint64(4095)).astype(np.int64) - 2048
        lab = (key & np.uint64(15)).astype(np.int64)
        out = {k: [] for k in ("dim", "thr", "sc", "nl", "nr")}
        for dm in np.unique(dim):
            m = dim == dm
            vd, ld, cd = v[m], lab[m], c[m]
            vals = np.unique(vd)
            N = int(cd.sum())
            if not N <= 16_000:
                raise AssertionError("decision_stump int64 score bound")
            # label-count matrix over the value grid
            vidx = np.searchsorted(vals, vd)
            cm = np.zeros((len(vals), 16), dtype=np.int64)
            np.add.at(cm, (vidx, ld), cd)
            pref = np.cumsum(cm, axis=0)          # cL at thr = vals[i]
            nL = pref.sum(axis=1)
            if len(vals) < 2:
                continue
            pref, nL = pref[:-1], nL[:-1]         # thr = max is degenerate
            nR = N - nL
            sL2 = (pref * pref).sum(axis=1)
            tot = cm.sum(axis=0)
            cR = tot[None, :] - pref
            sR2 = (cR * cR).sum(axis=1)
            A = sL2 * nR + sR2 * nL
            score = A * 1_000_000 // (nL * nR)
            best = int(np.argmax(score))          # ties -> smaller thr
            out["dim"].append(int(dm))
            out["thr"].append(int(vals[best]))
            out["sc"].append(int(score[best]))
            out["nl"].append(int(nL[best]))
            out["nr"].append(int(nR[best]))
        if not out["dim"]:
            return empty
        return pa.table({
            "dim": pa.array(np.array(out["dim"], dtype=np.int64)),
            "thr_milli": pa.array(np.array(out["thr"], dtype=np.int64)),
            "score_e6": pa.array(np.array(out["sc"], dtype=np.int64)),
            "n_left": pa.array(np.array(out["nl"], dtype=np.int64)),
            "n_right": pa.array(np.array(out["nr"], dtype=np.int64)),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_decision_stump() -> str:
    return f"""
WITH dse AS MATERIALIZED (
  SELECT d.i - 1 AS dim,
    CAST(floor(CAST(embedding[d.i] AS DOUBLE) * 1000.0) AS BIGINT) AS v,
    label
  FROM embeddings, (SELECT unnest(generate_series(1, {EMB_D})) AS i) d
),
dsc AS MATERIALIZED (
  SELECT dim, v, label, CAST(COUNT(*) AS BIGINT) AS c
  FROM dse GROUP BY 1, 2, 3
),
dsg AS MATERIALIZED (
  SELECT g.dim, g.v, l.label, COALESCE(c.c, 0) AS c
  FROM (SELECT DISTINCT dim, v FROM dsc) g
  CROSS JOIN (SELECT DISTINCT label FROM dsc) l
  LEFT JOIN dsc c ON c.dim = g.dim AND c.v = g.v AND c.label = l.label
),
dsp AS MATERIALIZED (
  SELECT dim, v, label,
    SUM(c) OVER (PARTITION BY dim, label ORDER BY v
                 ROWS UNBOUNDED PRECEDING) AS cl,
    SUM(c) OVER (PARTITION BY dim, label) AS ct
  FROM dsg
),
dst AS MATERIALIZED (
  SELECT dim, v AS thr,
    CAST(SUM(cl * cl) AS BIGINT) AS sl2,
    CAST(SUM((ct - cl) * (ct - cl)) AS BIGINT) AS sr2,
    CAST(SUM(cl) AS BIGINT) AS nl, CAST(SUM(ct - cl) AS BIGINT) AS nr
  FROM dsp GROUP BY 1, 2
),
dss AS MATERIALIZED (
  SELECT dim, thr, nl, nr,
    CAST((sl2 * nr + sr2 * nl) * 1000000 // (nl * nr) AS BIGINT) AS score
  FROM dst WHERE nl > 0 AND nr > 0
)
SELECT CAST(dim AS BIGINT) AS dim, thr AS thr_milli, score AS score_e6,
  nl AS n_left, nr AS n_right
FROM dss
QUALIFY row_number() OVER (
  PARTITION BY dim ORDER BY score DESC, thr ASC) = 1
"""


# ---------------------------------------------------------------------------
# Round 4d: A/B experiment readout (two-proportion z per event type)
# ---------------------------------------------------------------------------


def q_ab_test(sf_dir: str):
    """Experimentation readout: users split into arms by user_id % 2;
    per event type, the share of users with >= 1 such event is
    compared between arms with a two-proportion z-score.  The float
    chain (pA-pB) / sqrt(p*(1-p)*(1/nA+1/nB)) uses one exact-rounded
    op per node in the SAME order both sides, then floor-quantizes to
    z_e6 — micro-level parity without integerizing the statistics.
    Distinct (user, type) pairs fold through one u64 exchange; the
    readout itself is a <= (5 types x 2 arms + 2)-row driver fold.
    Output (event_type, x_a, n_a, x_b, n_b, z_e6)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        key = np.unique((uid.astype(np.uint64) << np.uint64(3)) | code)
        # sentinel code 7 marks "user exists" rows for the arm sizes
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
    # 12 counters (5 types + sentinel, 2 arms) over the distinct pairs
    x = np.zeros((8, 2), dtype=np.int64)
    code = (key & np.uint64(7)).astype(np.int64)
    arm = ((key >> np.uint64(3)) % np.uint64(2)).astype(np.int64)
    np.add.at(x, (code, arm), 1)
    n_a, n_b = int(x[7, 0]), int(x[7, 1])
    rows = []
    for t, i in codes.items():
        xa, xb = int(x[i, 0]), int(x[i, 1])
        if xa + xb == 0 or xa + xb == n_a + n_b:
            z_e6 = 0
        else:
            pa_ = xa / n_a
            pb_ = xb / n_b
            p = (xa + xb) / (n_a + n_b)
            inv = 1.0 / n_a + 1.0 / n_b
            se = np.sqrt(p * (1.0 - p) * inv)
            z_e6 = int(np.floor((pa_ - pb_) / se * 1000000.0))
        rows.append((t, xa, n_a, xb, n_b, z_e6))
    rows.sort()
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "x_a": pa.array(np.array([r[1] for r in rows], dtype=np.int64)),
        "n_a": pa.array(np.array([r[2] for r in rows], dtype=np.int64)),
        "x_b": pa.array(np.array([r[3] for r in rows], dtype=np.int64)),
        "n_b": pa.array(np.array([r[4] for r in rows], dtype=np.int64)),
        "z_e6": pa.array(np.array([r[5] for r in rows], dtype=np.int64)),
    })


def sql_ab_test() -> str:
    return """
WITH abu AS MATERIALIZED (
  SELECT DISTINCT user_id, event_type FROM events
),
abn AS MATERIALIZED (
  SELECT
    CAST(COUNT(DISTINCT CASE WHEN user_id % 2 = 0 THEN user_id END)
      AS BIGINT) AS n_a,
    CAST(COUNT(DISTINCT CASE WHEN user_id % 2 = 1 THEN user_id END)
      AS BIGINT) AS n_b
  FROM events
),
abx AS MATERIALIZED (
  SELECT event_type,
    CAST(COUNT(CASE WHEN user_id % 2 = 0 THEN 1 END) AS BIGINT) AS x_a,
    CAST(COUNT(CASE WHEN user_id % 2 = 1 THEN 1 END) AS BIGINT) AS x_b
  FROM abu GROUP BY 1
)
SELECT x.event_type, x.x_a, n.n_a, x.x_b, n.n_b,
  CAST(CASE
    WHEN x.x_a + x.x_b = 0 OR x.x_a + x.x_b = n.n_a + n.n_b THEN 0
    ELSE floor(
      (CAST(x.x_a AS DOUBLE) / n.n_a - CAST(x.x_b AS DOUBLE) / n.n_b)
      / sqrt(
          (CAST(x.x_a + x.x_b AS DOUBLE) / (n.n_a + n.n_b))
          * (1.0 - CAST(x.x_a + x.x_b AS DOUBLE) / (n.n_a + n.n_b))
          * (1.0 / n.n_a + 1.0 / n.n_b))
      * 1000000.0)
  END AS BIGINT) AS z_e6
FROM abx x CROSS JOIN abn n
"""


def q_distance_decay(sf_dir: str):
    """Spatial-interaction fit: the distance-decay exponent of
    origin-destination flows — least-squares slope of ln(flow) on
    ln(chebyshev tile distance) over consecutive same-user moves whose
    endpoints BOTH sit in the equatorial band and in different res-2
    tiles.  Distances are exact integers on the global res-2 lattice
    (seam wrap); ln terms quantize to micro-nats and the regression is
    the zipf_slope bignum/tdiv pattern.  One user-bucket exchange for
    transitions, one u64 flow fold, bounded (<= eq-lattice^2 = 104k
    pair rows) driver finish.  Output one row (n_pairs, n_moves,
    slope_e6, intercept_e6)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_to_driver

    k = DECAY_RES
    side = 3 ** k
    W = 4 * side
    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        lon, lat = oracle.lonlat_from_id(eid)
        inband = np.abs(lat) <= DISSOLVE_LAT
        u = cidx.cell_from_point(CFG, k, lon, lat, plane=False)
        gy, gx = lattice_of_u64(u, k)
        # polar faces produce face ids outside O..R; inband mask hides
        # them before any lattice use
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "eid": pa.array(eid.astype(np.int64)),
            "gy": pa.array(np.where(inband, gy, -1)),
            "gx": pa.array(np.where(inband, gx, -1)),
        })

    def moves(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "uid" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        uid = g["uid"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        gy = g["gy"].to_numpy(zero_copy_only=False)[order]
        gx = g["gx"].to_numpy(zero_copy_only=False)[order]
        ok = ((uid[1:] == uid[:-1]) & (gy[1:] >= 0) & (gy[:-1] >= 0)
              & ((gy[1:] != gy[:-1]) | (gx[1:] != gx[:-1])))
        a = (gy[:-1][ok] * W + gx[:-1][ok]).astype(np.uint64)
        b = (gy[1:][ok] * W + gx[1:][ok]).astype(np.uint64)
        key = (a << np.uint64(16)) | b
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    key, n = sum_to_driver(
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(moves, batch_format="pyarrow"),
        "key", "one")
    a = (key >> np.uint64(16)).astype(np.int64)
    b = (key & np.uint64((1 << 16) - 1)).astype(np.int64)
    dy = np.abs(a // W - b // W)
    dxr = np.abs(a % W - b % W)
    cheb = np.maximum(dy, np.minimum(dxr, W - dxr))
    x = np.floor(_libm_log(cheb) * 1e6).astype(np.int64)
    y = np.floor(_libm_log(n) * 1e6).astype(np.int64)
    K = len(x)
    n_moves = int(n.sum())
    Sx, Sy = int(x.sum()), int(y.sum())
    Sxx, Sxy = int((x * x).sum()), int((x * y).sum())

    def tdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    den = K * Sxx - Sx * Sx
    num = K * Sxy - Sx * Sy
    slope_e6 = tdiv(num * 1_000_000, den) if den else 0
    intercept_e6 = tdiv(Sy - tdiv(slope_e6 * Sx, 1_000_000), K) if K else 0
    return pa.table({
        "n_pairs": pa.array([K], type=pa.int64()),
        "n_moves": pa.array([n_moves], type=pa.int64()),
        "slope_e6": pa.array([slope_e6], type=pa.int64()),
        "intercept_e6": pa.array([intercept_e6], type=pa.int64()),
    })


def sql_distance_decay() -> str:
    k = DECAY_RES
    W = 4 * 3 ** k
    pts = _points_sql("events", "event_id")
    idx_sql = oracle.cell_from_point_sql(
        f"SELECT event_id, lon, lat FROM ({pts}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}",
        k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    return f"""
WITH ddi AS MATERIALIZED (
  SELECT event_id, {gy} AS gy, {gx} AS gx
  FROM (SELECT event_id, cell_id FROM {idx_sql} t)
),
ddm AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id, i.gy, i.gx
  FROM events e LEFT JOIN ddi i ON i.event_id = e.event_id
),
ddp AS MATERIALIZED (
  SELECT gy AS by_, gx AS bx,
    lag(gy) OVER w AS ay, lag(gx) OVER w AS ax,
    lag(user_id) OVER w AS pu, user_id
  FROM ddm WINDOW w AS (ORDER BY user_id, ts, event_id)
),
ddf AS MATERIALIZED (
  SELECT ay * {W} + ax AS a, by_ * {W} + bx AS b,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM ddp
  WHERE pu = user_id AND ay IS NOT NULL AND by_ IS NOT NULL
    AND (ay <> by_ OR ax <> bx)
  GROUP BY 1, 2
),
ddq AS MATERIALIZED (
  SELECT n,
    greatest(abs(a // {W} - b // {W}),
             least(abs(a % {W} - b % {W}),
                   {W} - abs(a % {W} - b % {W}))) AS cheb
  FROM ddf
),
dds AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k, CAST(SUM(n) AS BIGINT) AS nm,
    SUM(CAST(floor(ln(CAST(cheb AS DOUBLE)) * 1000000.0) AS HUGEINT)) AS sx,
    SUM(CAST(floor(ln(CAST(n AS DOUBLE)) * 1000000.0) AS HUGEINT)) AS sy,
    SUM(CAST(floor(ln(CAST(cheb AS DOUBLE)) * 1000000.0) AS HUGEINT)
      * CAST(floor(ln(CAST(cheb AS DOUBLE)) * 1000000.0) AS HUGEINT)) AS sxx,
    SUM(CAST(floor(ln(CAST(cheb AS DOUBLE)) * 1000000.0) AS HUGEINT)
      * CAST(floor(ln(CAST(n AS DOUBLE)) * 1000000.0) AS HUGEINT)) AS sxy
  FROM ddq
)
SELECT CAST(k AS BIGINT) AS n_pairs, nm AS n_moves,
  CAST((k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx) AS BIGINT)
    AS slope_e6,
  CAST((sy - ((k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx))
    * sx // 1000000) // k AS BIGINT) AS intercept_e6
FROM dds
"""


def q_bootstrap_ci(sf_dir: str):
    """Uncertainty quantification: a seeded bootstrap CI for the mean
    daily event count — BOOT_B resamples of the (zero-filled) day
    series, resample b drawing day index splitmix64(b*n + i) % n,
    means truncated to integers, CI = order statistics [B//40] and
    [B - 1 - B//40] of the sorted means (~2.5/97.5%).  splitmix64 is
    the engine's seeded-RNG primitive (fixtures.py:38), already SQL-
    mirrored; everything downstream is exact integers.  The day table
    is a bounded (span-length) fold; resampling is a driver finish.
    Output one row (n_days, mean_milli, lo_milli, hi_milli)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64

    _, dense = _daily_counts_driver(sf_dir)
    n = len(dense)
    b_i = np.arange(BOOT_B, dtype=np.uint64)[:, None] * np.uint64(n) \
        + np.arange(n, dtype=np.uint64)[None, :]
    idx = (splitmix64(b_i.ravel()) % np.uint64(n)).astype(np.int64)
    means = dense[idx].reshape(BOOT_B, n).sum(axis=1) * 1000 // n
    means.sort()
    lo_i = BOOT_B // 40
    return pa.table({
        "n_days": pa.array([n], type=pa.int64()),
        "mean_milli": pa.array([int(dense.sum()) * 1000 // n],
                               type=pa.int64()),
        "lo_milli": pa.array([int(means[lo_i])], type=pa.int64()),
        "hi_milli": pa.array([int(means[BOOT_B - 1 - lo_i])],
                             type=pa.int64()),
    })


def sql_bootstrap_ci() -> str:
    n_expr = "(SELECT d1 - d0 + 1 FROM bcr)"
    sm = oracle.splitmix64_sql_ctes(
        f"SELECT b, i, b * {n_expr} + i AS s FROM bcb", "b, i", "s", "h",
        prefix="bcs")
    return f"""
WITH bcc AS MATERIALIZED (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
bcr AS MATERIALIZED (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM bcc),
bcz AS MATERIALIZED (
  SELECT d.day - r.d0 AS i, COALESCE(c.c, 0) AS c
  FROM (SELECT unnest(generate_series(r2.d0, r2.d1)) AS day FROM bcr r2) d
  CROSS JOIN bcr r LEFT JOIN bcc c ON c.day = d.day
),
bcb AS MATERIALIZED (
  SELECT b.b, i.i FROM
    (SELECT unnest(generate_series(0, {BOOT_B - 1})) AS b) b
  CROSS JOIN (SELECT i FROM bcz) i
),
bch AS MATERIALIZED (
  SELECT b, i, h FROM {sm} q
),
bcm AS MATERIALIZED (
  SELECT h.b,
    CAST(SUM(z.c) * 1000 // {n_expr} AS BIGINT) AS mean_m
  FROM bch h JOIN bcz z ON z.i = CAST(h.h % CAST({n_expr} AS UBIGINT)
    AS BIGINT)
  GROUP BY 1
),
bco AS MATERIALIZED (
  SELECT mean_m, row_number() OVER (ORDER BY mean_m, b) AS rk FROM bcm
)
SELECT CAST({n_expr} AS BIGINT) AS n_days,
  CAST((SELECT SUM(c) FROM bcz) * 1000 // {n_expr} AS BIGINT) AS mean_milli,
  (SELECT mean_m FROM bco WHERE rk = {BOOT_B // 40 + 1}) AS lo_milli,
  (SELECT mean_m FROM bco WHERE rk = {BOOT_B - BOOT_B // 40}) AS hi_milli
"""


# ---------------------------------------------------------------------------
# Round 4d: Cohen's kappa of the nearest-centroid classifier
# ---------------------------------------------------------------------------


def q_cohens_kappa(sf_dir: str):
    """Chance-corrected agreement of the nearest-centroid classifier
    with the true labels: kappa = (po - pe) / (1 - pe) cleared to the
    exact integer rational (N*trace - sum_i row_i*col_i) * 1e9 //
    (N^2 - sum_i row_i*col_i) over the confusion matrix that
    q_nearest_centroid already computes distributed (<= 100 bounded
    rows).  DuckDB-truncated division mirrored.  Output one row
    (n, trace, pe_num, kappa_e9)."""
    conf = q_nearest_centroid(sf_dir).to_pandas()  # bounded: <=10x10 rows
    N = int(conf["n"].sum())
    trace = int(conf[conf["label"] == conf["nearest"]]["n"].sum())
    row = conf.groupby("label")["n"].sum()
    col = conf.groupby("nearest")["n"].sum()
    labels = sorted(set(row.index) | set(col.index))
    pe_num = sum(int(row.get(l, 0)) * int(col.get(l, 0)) for l in labels)

    def tdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    kappa_e9 = tdiv((N * trace - pe_num) * 1_000_000_000, N * N - pe_num)
    return pa.table({
        "n": pa.array([N], type=pa.int64()),
        "trace": pa.array([trace], type=pa.int64()),
        "pe_num": pa.array([pe_num], type=pa.int64()),
        "kappa_e9": pa.array([kappa_e9], type=pa.int64()),
    })


def sql_cohens_kappa() -> str:
    return f"""
WITH ckc AS MATERIALIZED ({sql_nearest_centroid()}),
ckr AS MATERIALIZED (
  SELECT label AS l, CAST(SUM(n) AS BIGINT) AS r FROM ckc GROUP BY 1
),
ckl AS MATERIALIZED (
  SELECT nearest AS l, CAST(SUM(n) AS BIGINT) AS c FROM ckc GROUP BY 1
),
ckp AS MATERIALIZED (
  SELECT CAST(SUM(COALESCE(r.r, 0) * COALESCE(l.c, 0)) AS BIGINT) AS pe_num
  FROM (SELECT l FROM ckr UNION SELECT l FROM ckl) u
  LEFT JOIN ckr r ON r.l = u.l LEFT JOIN ckl l ON l.l = u.l
),
cks AS (
  SELECT CAST(SUM(n) AS BIGINT) AS nn,
    CAST(SUM(CASE WHEN label = nearest THEN n ELSE 0 END) AS BIGINT)
      AS trace
  FROM ckc
)
SELECT s.nn AS n, s.trace, p.pe_num,
  CAST((s.nn * s.trace - p.pe_num) * 1000000000
    // (s.nn * s.nn - p.pe_num) AS BIGINT) AS kappa_e9
FROM cks s CROSS JOIN ckp p
"""


# ---------------------------------------------------------------------------
# Round 4d: two-sample Kolmogorov-Smirnov test between A/B arms
# ---------------------------------------------------------------------------


def q_ks_test(sf_dir: str):
    """Distribution-shift detection: the exact two-sample KS statistic
    between the event-value distributions of the user_id%2 arms.
    D = max_x |F_A(x) - F_B(x)| cleared to integers — D_num =
    max |cumA*nB - cumB*nA| over the ordered distinct values, d_e9 =
    D_num * 1e9 // (nA*nB).  Values are positive doubles, so their
    IEEE bit patterns order numerically and serve as the fold key;
    both arms' counts pack into ONE summed value (cntA<<32 | cntB) so
    a single u64 exchange carries the joint histogram.  The ordered
    cumsum runs over the folded DISTINCT-value table (bounded by the
    value grid, not rows).  Output one row (n_a, n_b, d_num, d_e9)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        # +0.0 has bit pattern 0 and sorts first: bit order ==
        # numeric order for all NON-NEGATIVE doubles
        if not (v >= 0).all():
            raise AssertionError("bit-order key needs non-negative values")
        bits = v.view(np.uint64)
        arm = (uid % 2).astype(np.int64)
        packed = np.where(arm == 0, np.int64(1) << np.int64(32), np.int64(1))
        return pa.table({
            "key": pa.array(bits, type=pa.uint64()),
            "one": pa.array(packed),
        })

    # keys ascending; positive doubles: bit order == value order
    _, pc = sum_to_driver(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    ca = pc >> np.int64(32)
    cb = pc & np.int64((1 << 32) - 1)
    na, nb_ = int(ca.sum()), int(cb.sum())
    cumA = np.cumsum(ca)
    cumB = np.cumsum(cb)
    d_num = int(np.abs(cumA * nb_ - cumB * na).max())
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb_], type=pa.int64()),
        "d_num": pa.array([d_num], type=pa.int64()),
        "d_e9": pa.array([d_num * 1_000_000_000 // (na * nb_)],
                         type=pa.int64()),
    })


def sql_ks_test() -> str:
    return """
WITH ksc AS MATERIALIZED (
  SELECT value,
    CAST(COUNT(CASE WHEN user_id % 2 = 0 THEN 1 END) AS BIGINT) AS ca,
    CAST(COUNT(CASE WHEN user_id % 2 = 1 THEN 1 END) AS BIGINT) AS cb
  FROM events GROUP BY 1
),
ksn AS MATERIALIZED (
  SELECT CAST(SUM(ca) AS BIGINT) AS na, CAST(SUM(cb) AS BIGINT) AS nb
  FROM ksc
),
ksw AS MATERIALIZED (
  SELECT SUM(ca) OVER w AS cuma, SUM(cb) OVER w AS cumb
  FROM ksc WINDOW w AS (ORDER BY value ROWS UNBOUNDED PRECEDING)
)
SELECT n.na AS n_a, n.nb AS n_b,
  CAST(MAX(abs(w.cuma * n.nb - w.cumb * n.na)) AS BIGINT) AS d_num,
  CAST(MAX(abs(w.cuma * n.nb - w.cumb * n.na)) * 1000000000
    // (n.na * n.nb) AS BIGINT) AS d_e9
FROM ksw w CROSS JOIN ksn n
GROUP BY n.na, n.nb
"""


# ---------------------------------------------------------------------------
# Round 4d: association rules over session baskets
# ---------------------------------------------------------------------------


def q_assoc_rules(sf_dir: str):
    """Market-basket mining: sessions (the SESSION_GAP_S rule) are
    baskets of distinct event types; for every type pair (a < b) the
    support, per-type session counts, confidence(a->b) and lift as
    exact integer rationals — conf_e9 = n_ab*1e9 // n_a, lift_e9 =
    n_ab*N*1e9 // (n_a*n_b).  ONE h(user) bucket exchange sessionizes
    and emits packed partial counts (pair/type/total namespaces share
    one u64 fold); the readout is a <= 41-row driver fold.  Output
    (type_a, type_b, n_ab, n_a, n_b, n_sessions, conf_e9, lift_e9)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_to_driver

    codes = {t: i for i, t in enumerate(EVT_TYPES)}
    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "t": pa.array(batch["ts"].to_numpy(zero_copy_only=False)
                          .astype("datetime64[us]").astype(np.int64)),
            "eid": pa.array(batch["event_id"].to_numpy(zero_copy_only=False)
                            .astype(np.int64)),
            "code": pa.array(np.array(
                [codes[x] for x in
                 batch["event_type"].to_numpy(zero_copy_only=False)],
                dtype=np.int64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "uid" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        uid = g["uid"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        code = g["code"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, t, code = uid[order], t[order], code[order]
        new = np.ones(len(uid), dtype=np.int64)
        new[1:] = ((uid[1:] != uid[:-1])
                   | ((t[1:] - t[:-1]) > SESSION_GAP_S * 1_000_000))
        sess = np.cumsum(new)  # global session index within the bucket
        # distinct (session, type)
        st = np.unique(sess * 8 + code)
        s, c = st // 8, st % 8
        out = []
        # type membership counts: key = (1<<16) | code
        uq, cnt = np.unique(c, return_counts=True)
        out.append(((np.uint64(1) << np.uint64(16))
                    | uq.astype(np.uint64), cnt))
        # pair counts: key = (2<<16) | a*8+b over within-session pairs
        su_, start = np.unique(s, return_index=True)
        n_sess = len(su_)
        ccnt = np.diff(np.append(start, len(s)))
        pairs = []
        for st_, cc_ in zip(start.tolist(), ccnt.tolist()):
            types = c[st_:st_ + cc_]  # ascending (packed sort)
            ia, ib = np.triu_indices(cc_, k=1)
            pairs.append(types[ia] * 8 + types[ib])
        if pairs:
            pk = np.concatenate(pairs)
            uqp, cntp = np.unique(pk, return_counts=True)
            out.append(((np.uint64(2) << np.uint64(16))
                        | uqp.astype(np.uint64), cntp))
        # total sessions: key = 0
        out.append((np.array([0], dtype=np.uint64),
                    np.array([n_sess], dtype=np.int64)))
        keys = np.concatenate([o[0] for o in out])
        vals = np.concatenate([o[1].astype(np.int64) for o in out])
        return pa.table({"key": pa.array(keys, type=pa.uint64()),
                         "one": pa.array(vals)})

    keys, vals = sum_to_driver(
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(per_bucket, batch_format="pyarrow"),
        "key", "one")
    counts = dict(zip(keys.tolist(), vals.tolist()))
    N = counts.get(0, 0)
    types = list(EVT_TYPES)
    rows = []
    for a in range(len(types)):
        for bb in range(a + 1, len(types)):
            n_ab = counts.get((2 << 16) | (a * 8 + bb), 0)
            if n_ab == 0:
                continue
            n_a = counts[(1 << 16) | a]
            n_b = counts[(1 << 16) | bb]
            rows.append((types[a], types[bb], n_ab, n_a, n_b, N,
                         n_ab * 10**9 // n_a,
                         n_ab * N * 10**9 // (n_a * n_b)))
    return pa.table({
        "type_a": pa.array([r[0] for r in rows], type=pa.string()),
        "type_b": pa.array([r[1] for r in rows], type=pa.string()),
        "n_ab": pa.array(np.array([r[2] for r in rows], dtype=np.int64)),
        "n_a": pa.array(np.array([r[3] for r in rows], dtype=np.int64)),
        "n_b": pa.array(np.array([r[4] for r in rows], dtype=np.int64)),
        "n_sessions": pa.array(np.array([r[5] for r in rows],
                                        dtype=np.int64)),
        "conf_e9": pa.array(np.array([r[6] for r in rows], dtype=np.int64)),
        "lift_e9": pa.array(np.array([r[7] for r in rows], dtype=np.int64)),
    })


def sql_assoc_rules() -> str:
    gap = SESSION_GAP_S * 1_000_000
    return f"""
WITH asg AS MATERIALIZED (
  SELECT user_id, event_type,
    SUM(CASE WHEN gap IS NULL OR gap > {gap} THEN 1 ELSE 0 END)
      OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS UNBOUNDED PRECEDING) AS sess
  FROM (
    SELECT user_id, ts, event_id, event_type,
      epoch_us(ts) - lag(epoch_us(ts))
        OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
    FROM events)
),
asb AS MATERIALIZED (
  SELECT DISTINCT user_id, sess, event_type FROM asg
),
asn AS MATERIALIZED (
  SELECT CAST(COUNT(DISTINCT user_id * 1000000 + sess) AS BIGINT) AS n
  FROM asg
),
ast AS MATERIALIZED (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM asb GROUP BY 1
),
asp AS MATERIALIZED (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
    CAST(COUNT(*) AS BIGINT) AS n_ab
  FROM asb a JOIN asb b
    ON a.user_id = b.user_id AND a.sess = b.sess
    AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT p.type_a, p.type_b, p.n_ab, ta.n AS n_a, tb.n AS n_b,
  s.n AS n_sessions,
  CAST(p.n_ab * 1000000000 // ta.n AS BIGINT) AS conf_e9,
  CAST(p.n_ab * s.n * 1000000000 // (ta.n * tb.n) AS BIGINT) AS lift_e9
FROM asp p
JOIN ast ta ON ta.event_type = p.type_a
JOIN ast tb ON tb.event_type = p.type_b
CROSS JOIN asn s
"""


def q_haar_energy(sf_dir: str):
    """Multi-scale temporal signature: the Haar detail energy per
    level over each res-2 tile's 32-day zero-padded count series
    (level 1 = day-to-day, level 5 = half-month vs half-month) — the
    scale decomposition behind seasonality/burst classification, exact
    because Haar details of integers are integers.  One packed
    (tile, day) exchange, dense per-tile transform.  Output (tile_id,
    level, energy)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = u.astype(np.uint64) >> np.uint64(52)
        key = (tile << np.uint64(15)) | day
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "c", n_buckets=8,
    )

    def key2(batch: pa.Table) -> pa.Table:
        tile = (batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
                >> np.uint64(15))
        return batch.append_column("bucket2",
                                   pa.array(hash_bucket_u64(tile, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        empty = pa.table({"tile_id": pa.array([], type=pa.string()),
                          "level": pa.array([], type=pa.int64()),
                          "energy": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "key" not in g.column_names:
            return empty
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(key)
        key, c = key[order], c[order]
        tile = key >> np.uint64(15)
        day = (key & np.uint64((1 << 15) - 1)).astype(np.int64)
        tu, start = np.unique(tile, return_index=True)
        cnt = np.diff(np.append(start, len(tile)))
        tiles_out, levels_out, en_out = [], [], []
        for t, s, m in zip(tu.tolist(), start.tolist(), cnt.tolist()):
            d, cc = day[s:s + m], c[s:s + m]
            d0 = int(d[0])
            series = np.zeros(HAAR_LEN, dtype=np.int64)
            inw = (d - d0) < HAAR_LEN
            series[(d - d0)[inw]] = cc[inw]
            lvl = 1
            while len(series) > 1:
                a, b = series[0::2], series[1::2]
                diff = a - b
                tiles_out.append(t)
                levels_out.append(lvl)
                en_out.append(int((diff * diff).sum()))
                series = a + b
                lvl += 1
        t_u64 = (np.array(tiles_out, dtype=np.uint64) << np.uint64(52)) \
            | np.uint64(TILE_RES)
        return pa.table({
            "tile_id": su.to_string_fixed(t_u64, TILE_RES),
            "level": pa.array(np.array(levels_out, dtype=np.int64)),
            "energy": pa.array(np.array(en_out, dtype=np.int64)),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


SCAN_TOP = 5


def q_tile_scan_stat(sf_dir: str):
    """Kulldorff-style spatial scan statistic over the res-TILE_RES
    tiles (hotspot detection stronger than a raw count ranking): per
    tile the Poisson log-likelihood ratio against the uniform null
    e = n_tot / T, llr = o*ln(o/e) + (n-o)*ln((n-o)/(n-e)) for o > e
    else 0, floor-quantized to 1e-6 BEFORE ranking so ordering is
    order-free.  The distributed tile fold is q_tile_counts' exchange;
    the LLR loop runs over the <= 4*9^TILE_RES surviving tiles on the
    driver with scalar math.log (libm == DuckDB ln bit-for-bit;
    CLAUDE.md).  Output top SCAN_TOP (tile_id, n, llr_e6) by
    (llr_e6 DESC, tile_id)."""
    import math

    t = q_tile_counts(sf_dir).to_pandas()  # bounded: tile cardinality
    tiles = t["tile_id"].to_numpy()
    o = t["n"].to_numpy().astype(np.int64)
    n_tot = int(o.sum())
    T = len(o)
    e = n_tot / T
    llr = np.zeros(len(o), dtype=np.int64)
    for i in range(len(o)):
        oi = int(o[i])
        if oi > e and oi < n_tot:
            v = (oi * math.log(oi / e)
                 + (n_tot - oi) * math.log((n_tot - oi) / (n_tot - e)))
            llr[i] = math.floor(v * 1_000_000.0)
    order = np.lexsort((tiles, -llr))[:SCAN_TOP]
    return pa.table({
        "tile_id": pa.array(tiles[order], type=pa.string()),
        "n": pa.array(o[order]),
        "llr_e6": pa.array(llr[order]),
    })


def sql_tile_scan_stat() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH tsc AS MATERIALIZED (
  SELECT substr(cell_id, 1, {1 + TILE_RES}) AS tile_id,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM {inner} t GROUP BY 1
),
tst AS MATERIALIZED (
  SELECT CAST(SUM(n) AS BIGINT) AS n_tot,
    CAST(COUNT(*) AS BIGINT) AS t FROM tsc
)
SELECT tile_id, n,
  CAST(CASE WHEN CAST(n AS DOUBLE) > CAST(n_tot AS DOUBLE) / t
              AND n < n_tot
    THEN floor((n * ln(n / (CAST(n_tot AS DOUBLE) / t))
      + (n_tot - n) * ln((n_tot - n)
        / (n_tot - CAST(n_tot AS DOUBLE) / t))) * 1000000)
    ELSE 0 END AS BIGINT) AS llr_e6
FROM tsc, tst
ORDER BY llr_e6 DESC, tile_id
LIMIT {SCAN_TOP}
"""
