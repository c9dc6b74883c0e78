"""Query-suite family module: lakehouse (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_stats1 import sql_tile_counts  # noqa: F401



def q_compact_files(sf_dir: str):
    """Small-file compaction — the 100 TB table-maintenance op: a
    24-fragment copy of the events table is read with per-fragment
    fan-out, repartitioned to the byte-target block count
    (sizing.compute_read_blocks with no fragment floor), and written
    back as few large files; the compacted copy is then proven
    content-equal via an order-free splitmix64 checksum.  File-count
    reduction itself is pinned in tests (the oracle proves content)."""
    import os
    import shutil

    from rhealpixdggs_py_ray.fixtures import splitmix64

    src = _fragmented_events(sf_dir)
    out = f"/tmp/graft_compact_out_{os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(out, ignore_errors=True)

    total_bytes, n_frags = sizing._stat_input(src)
    target = max(1, -(-total_bytes // sizing.TARGET_BLOCK_BYTES))
    ds = ray.data.read_parquet(
        src, override_num_blocks=sizing.read_blocks(src, profile=4)
    )
    ds.repartition(target).write_parquet(out)

    comp = ray.data.read_parquet(out, columns=["event_id"])

    def chk(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64))
        s = np.add.reduce(h) if len(h) else np.uint64(0)  # wraps mod 2^64
        return pa.table({
            "chk": pa.array([s], type=pa.uint64()),
            "n": pa.array([len(ids)], type=pa.int64()),
        })

    # one partial row per block -> bounded driver fold
    parts = comp.map_batches(chk, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    total = np.uint64(0)
    for v in parts["chk"].to_numpy():
        total = np.uint64((int(total) + int(v)) % (1 << 64))
    n = int(parts["n"].sum())
    return pa.table({
        "n": pa.array([n], type=pa.int64()),
        "chk_hi": pa.array([int(total) >> 32], type=pa.int64()),
        "chk_lo": pa.array([int(total) & 0xFFFFFFFF], type=pa.int64()),
    })


def sql_compact_files() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT event_id FROM events", "event_id", "event_id", "h"
    )
    m = str(1 << 64)
    return (
        f"SELECT CAST(COUNT(*) AS BIGINT) AS n,"
        f" CAST((SUM(CAST(h AS HUGEINT)) % {m}) // 4294967296 AS BIGINT) AS chk_hi,"
        f" CAST((SUM(CAST(h AS HUGEINT)) % {m}) % 4294967296 AS BIGINT) AS chk_lo"
        f" FROM {sm} t"
    )


def q_table_checksum(sf_dir: str):
    """Order-free integrity fingerprint of the documents and events
    tables: per-row md5 summed with uint64 wraparound (commutative —
    any block order, any reducer interleaving, same checksum), emitted
    as two BIGINT halves.  The standard migration/replication
    validation pass: one map, one scalar-sized exchange, never a
    sort."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    def doc_partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        h = np.fromiter(
            (md5_u64(f"{int(did)}|{t}") for did, t in zip(ids, texts)),
            dtype=np.uint64, count=len(ids),
        )
        s = np.add.reduce(h) if len(h) else np.uint64(0)  # wraps mod 2^64
        return pa.table({
            "tbl": pa.array(["documents"]), "g": pa.array([0], type=pa.int64()),
            "chk": pa.array([s], type=pa.uint64()),
            "n": pa.array([len(ids)], type=pa.int64()),
        })

    def ev_partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (md5_u64(f"{int(eid)}|{int(u)}") for eid, u in zip(ids, uid)),
            dtype=np.uint64, count=len(ids),
        )
        s = np.add.reduce(h) if len(h) else np.uint64(0)  # wraps mod 2^64
        return pa.table({
            "tbl": pa.array(["events"]), "g": pa.array([0], type=pa.int64()),
            "chk": pa.array([s], type=pa.uint64()),
            "n": pa.array([len(ids)], type=pa.int64()),
        })

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        doc_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    evs = _read(sf_dir, "events", columns=["event_id", "user_id"]).map_batches(
        ev_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def resolve(g: pa.Table) -> pa.Table:
        tbl = g["tbl"].to_numpy(zero_copy_only=False)
        chk = g["chk"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = g["n"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(tbl, return_inverse=True)  # sorted table names
        hi, lo, nr = [], [], []
        for i in range(len(uq)):
            m = inv == i
            s = np.add.reduce(chk[m])
            hi.append(int(s >> np.uint64(32)))
            lo.append(int(s & np.uint64(0xFFFFFFFF)))
            nr.append(int(n[m].sum()))
        return pa.table({
            "tbl": pa.array(uq, type=pa.string()),
            "chk_hi": pa.array(hi, type=pa.int64()),
            "chk_lo": pa.array(lo, type=pa.int64()),
            "n_rows": pa.array(nr, type=pa.int64()),
        })

    return docs.union(evs).groupby("g").map_groups(resolve, batch_format="pyarrow")


def sql_table_checksum() -> str:
    m = "18446744073709551616"  # 2^64
    return f"""
SELECT 'documents' AS tbl,
  CAST((SUM(CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || '|' || text)
    AS HUGEINT)) % {m}) // 4294967296 AS BIGINT) AS chk_hi,
  CAST((SUM(CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || '|' || text)
    AS HUGEINT)) % {m}) % 4294967296 AS BIGINT) AS chk_lo,
  CAST(COUNT(*) AS BIGINT) AS n_rows
FROM documents
UNION ALL
SELECT 'events' AS tbl,
  CAST((SUM(CAST(md5_number_lower(CAST(event_id AS VARCHAR) || '|'
    || CAST(user_id AS VARCHAR)) AS HUGEINT)) % {m}) // 4294967296 AS BIGINT),
  CAST((SUM(CAST(md5_number_lower(CAST(event_id AS VARCHAR) || '|'
    || CAST(user_id AS VARCHAR)) AS HUGEINT)) % {m}) % 4294967296 AS BIGINT),
  CAST(COUNT(*) AS BIGINT)
FROM events
"""


def q_csv_source(sf_dir: str):
    """Second source format: ray.data.read_csv over a deterministic
    CSV fixture, aggregated per type.  The oracle reads the identical
    file with DuckDB read_csv, so the source-parse-aggregate loop is
    value-hash verified end-to-end."""
    path = _write_csv_fixture()
    ds = ray.data.read_csv(path)
    return ds.groupby("event_type").aggregate(
        Count(alias_name="n"), Sum("v_c", alias_name="sum_v_c")
    )


def sql_csv_source() -> str:
    path = _write_csv_fixture()  # driver may run the SQL side first
    return (
        "SELECT event_type, COUNT(*) AS n,"
        " CAST(SUM(v_c) AS BIGINT) AS sum_v_c"
        f" FROM read_csv('{path}', header=true,"
        " columns={'event_id': 'BIGINT', 'event_type': 'VARCHAR',"
        " 'v_c': 'BIGINT'})"
        " GROUP BY event_type"
    )


def q_resumable_tiling(sf_dir: str):
    """Checkpointed per-partition run (state/checkpoint.py): the events
    table split into two key-range partitions (predicate-pushdown
    reads), run CONCURRENTLY (CheckpointedRun.run overlaps partition
    sub-pipelines from driver threads), manifests with lineage +
    metrics; second invocation skips completed partitions
    (byte-identical output pinned in tests).  Per-partition tile
    counts are summed at the end on the driver by the same dense fold
    as ``aggregate_tiles`` (no exchange)."""
    import glob
    import os
    import shutil

    import pyarrow.parquet as pq

    from rhealpixdggs_py_ray.pipelines.tiles import fold_tile_partials
    from rhealpixdggs_py_ray.state.checkpoint import CheckpointedRun

    out_dir = f"/tmp/graft_ckpt_{os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(out_dir, ignore_errors=True)

    path = f"{sf_dir}/events.parquet"
    n = pq.ParquetFile(path).metadata.num_rows
    mid = n // 2
    # Key-range partitions (event_id is the layout key); at cluster
    # scale these would be file subsets — here one file, two ranges.
    parts = [[path, 0, mid], [path, mid, n]]

    def pipeline_fn(spec, part_out):
        f, lo, hi = spec
        ds = ray.data.read_parquet(
            f, columns=["event_id"],
            filter=(pc.field("event_id") >= lo) & (pc.field("event_id") < hi),
        )
        ds = ds.map_batches(
            DeriveAndIndex,
            fn_constructor_kwargs={"resolution": RES},
            batch_format="pyarrow",
            zero_copy_batch=True,
            concurrency=sizing.pool(8),
        )
        tiles = aggregate_tiles(ds, TILE_RES)
        tiles.write_parquet(part_out)
        return {"rows_out": tiles.count()}

    run = CheckpointedRun(out_root=out_dir, config_payload={"res": RES, "tile_res": TILE_RES})
    run.run(parts, pipeline_fn)
    # resumability: a second run must skip the completed partitions
    before = run.completed_partitions()
    run.run(parts, pipeline_fn)
    if not run.completed_partitions().keys() == before.keys():
        raise AssertionError("resumable_tiling: resume changed the completed partitions")
    # Final merge: per-partition tile counts are bounded by the grid
    # cardinality at TILE_RES (x P partitions), so they fold on the driver.
    t = pq.read_table(
        sorted(glob.glob(f"{out_dir}/part=*/*.parquet")),
        columns=["tile_u64", "n"],
    ).rename_columns(["tile_u64", "n_partial"])
    return fold_tile_partials([t], TILE_RES).select(["tile_id", "n"])


def sql_resumable_tiling() -> str:
    return sql_tile_counts()


# ---------------------------------------------------------------------------
# Round 2c: split assignment, pivot, set ops, JSON source
# ---------------------------------------------------------------------------

def q_split_assign(sf_dir: str):
    """Deterministic train/val/test split assignment: every doc hashes
    to a split via md5(doc_id) % 100 (<90 train, <95 val, else test) —
    the standard leakage-free dataset split (content-independent, so
    re-crawls land in the same split).  Pure map over the corpus;
    per-batch (split, lang) np.unique partials; one tiny exchange."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    names = np.array(["test", "train", "val"], dtype=object)  # sorted

    def partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (md5_u64(str(int(d))) for d in did), dtype=np.uint64, count=len(did)
        ) % np.uint64(100)
        split = np.where(h < 90, 1, np.where(h < 95, 2, 0))  # idx into names
        lang_uniq, lang_inv = np.unique(lang, return_inverse=True)
        key = split * len(lang_uniq) + lang_inv
        key_uniq, key_inv = np.unique(key, return_inverse=True)
        n = np.zeros(len(key_uniq), dtype=np.int64)
        np.add.at(n, key_inv, 1)
        chars = np.zeros(len(key_uniq), dtype=np.int64)
        np.add.at(chars, key_inv, nch)
        return pa.table({
            "split": pa.array(names[key_uniq // len(lang_uniq)], type=pa.string()),
            "lang": pa.array(lang_uniq[key_uniq % len(lang_uniq)]),
            "n_docs": pa.array(n),
            "sum_chars": pa.array(chars),
        })

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return p.groupby(["split", "lang"]).aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_chars", alias_name="sum_chars"),
    )


def sql_split_assign() -> str:
    return """
SELECT CASE
    WHEN CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS HUGEINT) % 100 < 90
      THEN 'train'
    WHEN CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS HUGEINT) % 100 < 95
      THEN 'val'
    ELSE 'test' END AS split,
  lang,
  CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY 1, 2
"""


def q_json_source(sf_dir: str):
    """Third source format: ray.data.read_json over a deterministic
    JSON-lines fixture, aggregated per kind; the oracle reads the
    identical file with DuckDB read_json_auto, so the parse-aggregate
    loop is value-hash verified end-to-end (csv_source's sibling)."""
    path = _write_json_fixture()
    ds = ray.data.read_json(path)
    return ds.groupby("kind").aggregate(
        Count(alias_name="n"),
        Sum("val", alias_name="sum_val"),
        Min("rec_id", alias_name="min_rec"),
        Max("rec_id", alias_name="max_rec"),
    )


def sql_json_source() -> str:
    path = _write_json_fixture()
    return f"""
SELECT kind, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(val) AS BIGINT) AS sum_val,
  CAST(MIN(rec_id) AS BIGINT) AS min_rec,
  CAST(MAX(rec_id) AS BIGINT) AS max_rec
FROM read_json_auto('{path}')
GROUP BY kind
"""


def q_constraint_audit(sf_dir: str):
    """Data-quality constraint audit in one pass per table (the
    'dbt tests at 100 TB' shape — every check is a map-side count, the
    referential check is the bucket anti-join): duplicate order keys,
    out-of-range values, orphan orders (o_custkey missing from
    customer), negative prices.  Output: one row per check."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"],
                   blocks=4)
    cust = _read(sf_dir, "customer", columns=["c_custkey"], blocks=4)
    events = _read(sf_dir, "events", columns=["value"], blocks=4)

    def ev_checks(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "check_name": pa.array(["events_value_negative"]),
            "n": pa.array(
                np.array([np.count_nonzero(v < 0)], dtype=np.int64)
            ),
        })

    def ord_checks(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "check_name": pa.array(["orders_price_nonpositive"]),
            "n": pa.array(
                np.array([np.count_nonzero(p <= 0)], dtype=np.int64)
            ),
        })

    # referential + uniqueness need co-location: one union bucket
    # exchange keyed by the integer key
    def ord_keys(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        ku, kc = np.unique(ok, return_counts=True)
        cu, cc = np.unique(ck, return_counts=True)
        return pa.table({
            "bucket": pa.array(np.concatenate([
                hash_bucket_u64(ku, n_buckets), hash_bucket_u64(cu, n_buckets),
            ])),
            "key": pa.array(np.concatenate([ku, cu]).astype(np.int64)),
            "kind": pa.array(np.concatenate([
                np.zeros(len(ku), dtype=np.int64),   # order key count
                np.full(len(cu), 1, dtype=np.int64),  # custkey reference
            ])),
            "n": pa.array(np.concatenate([kc, cc]).astype(np.int64)),
        })

    def cust_keys(batch: pa.Table) -> pa.Table:
        k = np.unique(batch["c_custkey"].to_numpy(zero_copy_only=False))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(k, n_buckets)),
            "key": pa.array(k.astype(np.int64)),
            "kind": pa.array(np.full(len(k), 2, dtype=np.int64)),  # cust dim
            "n": pa.array(np.ones(len(k), dtype=np.int64)),
        })

    keyed = orders.map_batches(
        ord_keys, batch_format="pyarrow", zero_copy_batch=True
    ).union(cust.map_batches(
        cust_keys, batch_format="pyarrow", zero_copy_batch=True
    ))

    def per_bucket(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        # duplicate orderkeys: total per key > 1 among kind-0 rows
        ok = kind == 0
        ku, ki = np.unique(key[ok], return_inverse=True)
        cnt = np.zeros(len(ku), dtype=np.int64)
        np.add.at(cnt, ki, n[ok])
        dup = int(np.count_nonzero(cnt > 1))
        # orphan orders: kind-1 custkeys with no kind-2 row
        refs = kind == 1
        ru, ri = np.unique(key[refs], return_inverse=True)
        rn = np.zeros(len(ru), dtype=np.int64)
        np.add.at(rn, ri, n[refs])
        dim = np.unique(key[kind == 2])
        pos = np.searchsorted(dim, ru)
        present = (pos < len(dim)) & (dim[np.minimum(pos, len(dim) - 1)] == ru)
        orphan = int(rn[~present].sum())
        return pa.table({
            "check_name": pa.array(
                ["orders_orderkey_duplicate", "orders_custkey_orphan"],
                type=pa.string(),
            ),
            "n": pa.array([dup, orphan], type=pa.int64()),
        })

    audits = (
        events.map_batches(ev_checks, batch_format="pyarrow", zero_copy_batch=True)
        .union(
            orders.map_batches(
                ord_checks, batch_format="pyarrow", zero_copy_batch=True
            ),
            keyed.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow"),
        )
    )
    return audits.groupby("check_name").aggregate(Sum("n", alias_name="n"))


def sql_constraint_audit() -> str:
    return """
SELECT 'events_value_negative' AS check_name,
  CAST(COUNT(*) FILTER (WHERE value < 0) AS BIGINT) AS n FROM events
UNION ALL
SELECT 'orders_price_nonpositive',
  CAST(COUNT(*) FILTER (WHERE o_totalprice <= 0) AS BIGINT) FROM orders
UNION ALL
SELECT 'orders_orderkey_duplicate',
  CAST(COUNT(*) AS BIGINT) FROM (
    SELECT o_orderkey FROM orders GROUP BY 1 HAVING COUNT(*) > 1)
UNION ALL
SELECT 'orders_custkey_orphan',
  CAST(COUNT(*) AS BIGINT) FROM orders o
  WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
"""


def q_snapshot_diff(sf_dir: str):
    """CDC-style snapshot diff: the old snapshot (all events) vs the
    new one (day>=28 rows dropped, day 20..27 values perturbed) —
    per-event_type modified / removed / unchanged counts.  Both snapshots meet in ONE
    h(event_id) union bucket exchange carrying only (key, row-hash)
    pairs — the migration-validation shape where neither side fits
    anywhere whole."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    n_buckets = sizing.exchange_buckets(8)
    ds_old = _read(sf_dir, "events",
                   columns=["event_id", "ts", "event_type", "value"], blocks=4)
    ds_new = _read(sf_dir, "events",
                   columns=["event_id", "ts", "event_type", "value"], blocks=4)

    def side(which: int):
        def partial(batch: pa.Table) -> pa.Table:
            eid = batch["event_id"].to_numpy(zero_copy_only=False)
            ts = (
                batch["ts"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
            )
            day = ts // 86_400_000_000 - 19723
            et = batch["event_type"].to_numpy(zero_copy_only=False)
            vc = np.floor(
                batch["value"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)
            if which == 0:  # old snapshot: every row, original values
                m = np.ones(len(eid), dtype=bool)
            else:  # new snapshot: day>=28 rows dropped ("removed"),
                # day 20..27 rows value-perturbed ("modified")
                m = day < SNAPDIFF_REMOVE_DAY
                vc = np.where(day >= SNAPDIFF_CUT_DAY, vc + 1, vc)
            eid, et, vc = eid[m], et[m], vc[m]
            h = np.fromiter(
                (md5_u64(f"{int(e)}|{int(v)}") for e, v in zip(eid, vc)),
                dtype=np.uint64, count=len(eid),
            ).view(np.int64)
            return pa.table({
                "bucket": pa.array(hash_bucket_u64(eid, n_buckets)),
                "key": pa.array(eid.astype(np.int64)),
                "event_type": pa.array(et),
                "h": pa.array(h),
                "side": pa.array(np.full(len(eid), which, dtype=np.int64)),
            })
        return partial

    both = ds_old.map_batches(
        side(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(ds_new.map_batches(
        side(1), batch_format="pyarrow", zero_copy_batch=True
    ))

    def per_bucket(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy(zero_copy_only=False)
        h = g["h"].to_numpy(zero_copy_only=False)
        sd = g["side"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        om = sd == 0
        oo = np.argsort(key[om])
        ok_, oh, oet = key[om][oo], h[om][oo], et[om][oo]
        nk, nh, net = key[~om], h[~om], et[~om]
        status = np.full(len(nk), "added", dtype=object)
        if len(ok_) and len(nk):
            pos = np.minimum(np.searchsorted(ok_, nk), len(ok_) - 1)
            hit = ok_[pos] == nk
            status[hit] = np.where(
                oh[pos[hit]] == nh[hit], "unchanged", "modified"
            )
        if len(nk) and len(ok_):
            no = np.sort(nk)
            pos2 = np.minimum(np.searchsorted(no, ok_), len(no) - 1)
            removed_m = no[pos2] != ok_
        else:
            removed_m = np.ones(len(ok_), dtype=bool)
        et_all = np.concatenate([net, oet[removed_m]])
        st_all = np.concatenate(
            [status, np.full(int(removed_m.sum()), "removed", dtype=object)]
        )
        pk = np.fromiter(
            (a + "\x01" + b for a, b in zip(et_all, st_all)),
            dtype=object, count=len(et_all),
        )
        uq, first, cnt = np.unique(pk, return_index=True, return_counts=True)
        return pa.table({
            "event_type": pa.array(et_all[first], type=pa.string()),
            "status": pa.array(st_all[first], type=pa.string()),
            "n": pa.array(cnt.astype(np.int64)),
        })

    return (
        both.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")
        .groupby(["event_type", "status"]).aggregate(Sum("n", alias_name="n"))
    )


def sql_snapshot_diff() -> str:
    # the statuses are closed-form in event day: >=28 removed,
    # 20..27 modified, else unchanged — the oracle needs no join
    day = "(epoch_us(ts) // 86400000000 - 19723)"
    return f"""
SELECT event_type,
  CASE WHEN {day} >= {SNAPDIFF_REMOVE_DAY} THEN 'removed'
    WHEN {day} >= {SNAPDIFF_CUT_DAY} THEN 'modified'
    ELSE 'unchanged' END AS status,
  CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2
"""


def q_polars_source(sf_dir: str):
    """Fourth source format: a deterministic in-memory polars frame
    enters Ray Data zero-copy via Arrow (from_arrow) and aggregates
    per group — the 'dataframe handoff' path (parquet, CSV, JSON-lines
    and Arrow-memory sources now all gate-verified)."""
    import polars as pl

    i = np.arange(POLARS_N, dtype=np.int64)
    frame = pl.DataFrame({
        "k": (i % 7),
        "v": (i * 2654435761) % 1_000_003,
    })
    ds = ray.data.from_arrow(frame.to_arrow())
    return ds.groupby("k").aggregate(
        Count(alias_name="n"),
        Sum("v", alias_name="sum_v"),
        Min("v", alias_name="min_v"),
        Max("v", alias_name="max_v"),
    )


def sql_polars_source() -> str:
    return f"""
SELECT i % 7 AS k, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM((i * 2654435761) % 1000003) AS BIGINT) AS sum_v,
  CAST(MIN((i * 2654435761) % 1000003) AS BIGINT) AS min_v,
  CAST(MAX((i * 2654435761) % 1000003) AS BIGINT) AS max_v
FROM (SELECT unnest(generate_series(0, {POLARS_N - 1})) AS i)
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Round 2h (cont.): custom Datasource (generated image shards, no disk)
# ---------------------------------------------------------------------------

def q_generator_source(sf_dir: str):
    """Custom ``ray.data.Datasource`` connector: the image table
    GENERATED inside read tasks (sources/generator.ImagesDatasource) —
    the extension-surface shape of any object-store / record-service
    source.  The query proves the full row contract: per (w, h) shard
    of the dimension lattice it reports row count, raw-format count,
    the TOTAL raw payload bytes measured from the actual binary
    buffers (pc.binary_length, zero-copy), and the signed phash
    min/max — all replayed closed-form by the oracle from the
    generative rule (splitmix64 + lattice), with no parquet read on
    either side."""
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.sources.generator import ImagesDatasource

    ds = ray.data.read_datasource(ImagesDatasource(IMG_N), override_num_blocks=sizing.range_blocks(IMG_N, 8))

    def partial(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        ph = batch["phash"].to_numpy(zero_copy_only=False)
        raw = np.asarray(batch["fmt"].to_pylist(), dtype=object) == "raw"
        blen = pc.binary_length(batch["bytes"]).to_numpy(zero_copy_only=False).astype(np.int64)
        key = w * 1000 + h
        ku, ki = np.unique(key, return_inverse=True)
        n = np.zeros(len(ku), dtype=np.int64)
        nr = np.zeros(len(ku), dtype=np.int64)
        rb = np.zeros(len(ku), dtype=np.int64)
        mn = np.full(len(ku), np.iinfo(np.int64).max, dtype=np.int64)
        mx = np.full(len(ku), np.iinfo(np.int64).min, dtype=np.int64)
        np.add.at(n, ki, 1)
        np.add.at(nr, ki[raw], 1)
        np.add.at(rb, ki[raw], blen[raw])
        np.minimum.at(mn, ki, ph)
        np.maximum.at(mx, ki, ph)
        return pa.table({
            "w": pa.array(ku // 1000), "h": pa.array(ku % 1000),
            "n": pa.array(n), "n_raw": pa.array(nr),
            "raw_bytes": pa.array(rb),
            "min_phash": pa.array(mn), "max_phash": pa.array(mx),
        })

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return p.groupby(["w", "h"]).aggregate(
        Sum("n", alias_name="n"), Sum("n_raw", alias_name="n_raw"),
        Sum("raw_bytes", alias_name="raw_bytes"),
        Min("min_phash", alias_name="min_phash"),
        Max("max_phash", alias_name="max_phash"),
    )


def sql_generator_source() -> str:
    sm = oracle.splitmix64_sql_ctes(
        f"SELECT unnest(generate_series(0, {IMG_N - 1})) AS i", "i", "i", "hsh"
    )
    signed = (
        "CAST(CAST(hsh AS HUGEINT)"
        " - (CASE WHEN hsh >= CAST(9223372036854775808 AS UBIGINT)"
        "    THEN CAST(18446744073709551616 AS HUGEINT) ELSE CAST(0 AS HUGEINT)"
        "    END) AS BIGINT)"
    )
    return f"""
WITH g AS MATERIALIZED (
  SELECT i, {signed} AS phash,
    16 + (i % 4) * 16 AS w, 16 + ((i // 4) % 4) * 16 AS h,
    (i % 2 = 0) AS is_raw
  FROM {sm} t
)
SELECT CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(CASE WHEN is_raw THEN 1 ELSE 0 END) AS BIGINT) AS n_raw,
  CAST(SUM(CASE WHEN is_raw THEN w * h * 3 ELSE 0 END) AS BIGINT)
    AS raw_bytes,
  CAST(MIN(phash) AS BIGINT) AS min_phash,
  CAST(MAX(phash) AS BIGINT) AS max_phash
FROM g GROUP BY 1, 2
"""


def q_points_source(sf_dir: str):
    """Text-source pipeline: distributed read_text -> vectorized Arrow
    line parse (sources/points.py) -> cell_from_point at res 4 ->
    per-cell counts.  ~1 point per res-4 cell, i.e. a high-cardinality
    key: np.unique partials + the u64 hash-bucket exchange
    (ops/agg.py), never a per-string-key ray group."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key
    from rhealpixdggs_py_ray.sources.points import read_points_text

    path = _write_points_fixture()
    ds = read_points_text(path)

    def index_count(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        cells = idx.cell_from_point(CFG, POINTS_RES, lon, lat, plane=False)
        uniq, cnt = np.unique(cells, return_counts=True)
        return pa.table({
            "cell_u64": pa.array(uniq, type=pa.uint64()),
            "n": pa.array(cnt.astype(np.int64)),
        })

    part = ds.map_batches(index_count, batch_format="pyarrow",
                          zero_copy_batch=True)
    agg = sum_by_u64_key(part, "cell_u64", "n", "n", n_buckets=8)

    def to_name(batch: pa.Table) -> pa.Table:
        u = batch["cell_u64"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "cell_id": pa.array(su.to_string(u).tolist(), type=pa.string()),
            "n": batch["n"],
        })

    return agg.map_batches(to_name, batch_format="pyarrow",
                           zero_copy_batch=True)


def sql_points_source() -> str:
    path = _write_points_fixture()
    pts = (
        "SELECT row_number() OVER () AS id,"
        " CAST(split_part(line, ' ', 1) AS DOUBLE) AS lon,"
        " CAST(split_part(line, ' ', 2) AS DOUBLE) AS lat"
        f" FROM read_csv('{path}', header=false,"
        " columns={'line': 'VARCHAR'}, delim='|', quote='')"
        " WHERE regexp_matches(line, '^[-1-9]')"
    )
    cells = oracle.cell_from_point_sql(pts, POINTS_RES, CFG, id_cols=("id",))
    return (
        f"SELECT cell_id, CAST(COUNT(*) AS BIGINT) AS n FROM {cells} t"
        " GROUP BY cell_id"
    )


def q_source_cap(sf_dir: str):
    """Per-source document quota (the CCNet/C4 corpus-balancing shape):
    within each source keep the SOURCE_CAP docs with the smallest
    doc_id (deterministic priority), flag the rest.  One h(source)
    bucket exchange; the per-bucket resolve ranks every source of the
    bucket in one segmented vectorized pass.  Output (doc_id, source,
    rank, keep)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        src = batch["source"].to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(src.astype(object)).astype(np.uint64)
        return batch.append_column(
            "bucket", pa.array((h % np.uint64(nb)).astype(np.int64)))

    def rank(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "source": pa.array([], type=pa.string()),
                             "rank": pa.array([], type=pa.int64()),
                             "keep": pa.array([], type=pa.int64())})
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        s = g["source"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, s))
        d, s = d[order], s[order]
        new_seg = np.r_[True, s[1:] != s[:-1]]
        starts = np.flatnonzero(new_seg)
        rk = np.arange(len(d), dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, len(d)))) + 1
        return pa.table({
            "doc_id": pa.array(d),
            "source": pa.array(s, type=pa.string()),
            "rank": pa.array(rk),
            "keep": pa.array((rk <= SOURCE_CAP).astype(np.int64)),
        })

    return (
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(rank, batch_format="pyarrow")
    )


def sql_source_cap() -> str:
    return f"""
SELECT doc_id, source,
  row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rank,
  CAST(CASE WHEN row_number() OVER (PARTITION BY source ORDER BY doc_id)
       <= {SOURCE_CAP} THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM documents
"""


def q_range_shards(sf_dir: str):
    """Balanced range partitioner (the shuffle/storage planning
    primitive): per-cell counts at res SHARDS_RES (one exact u64-key
    exchange), then contiguous level-order key ranges with ~equal point
    mass — shard(cell) = floor(cum_before * S / total).  Within one
    resolution, level order == lexicographic SUID order, so the SQL
    mirror is a plain string-ordered window cumsum.  The planning table
    is bounded by the grid at res K, never the corpus.  Output per
    shard: (shard, start_cell, end_cell, n_cells, n_points)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = indexed_events(sf_dir, resolution=SHARDS_RES)

    def cells(batch: pa.Table) -> pa.Table:
        u = batch["cell_u64"].to_numpy(zero_copy_only=False)
        return pa.table({
            "cell_u64": pa.array(u, type=pa.uint64()),
            "one": pa.array(np.ones(len(u), dtype=np.int64)),
        })

    u, n = sum_to_driver(  # bounded by the res-K grid
        ds.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True),
        "cell_u64", "one")
    cid = su.to_string_fixed(u, SHARDS_RES).to_numpy(zero_copy_only=False)
    total = int(n.sum())
    cum_before = np.cumsum(n) - n
    shard = (cum_before * SHARDS_S) // total
    out = []
    for sh in np.unique(shard):
        m = shard == sh
        out.append((int(sh), cid[m][0], cid[m][-1], int(m.sum()),
                    int(n[m].sum())))
    return pa.table({
        "shard": pa.array(np.array([a for a, *_ in out], dtype=np.int64)),
        "start_cell": pa.array([b for _, b, *_ in out], type=pa.string()),
        "end_cell": pa.array([c for _, _, c, *_ in out], type=pa.string()),
        "n_cells": pa.array(np.array([d for *_, d, _ in out], dtype=np.int64)),
        "n_points": pa.array(np.array([e for *_, e in out], dtype=np.int64)),
    })


def sql_range_shards() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), SHARDS_RES, CFG,
        id_cols=("event_id",)
    )
    return f"""
WITH scnt AS MATERIALIZED (
  SELECT cell_id, CAST(COUNT(*) AS BIGINT) AS n
  FROM {inner} t GROUP BY cell_id
),
scum AS MATERIALIZED (
  SELECT cell_id, n,
    SUM(n) OVER (ORDER BY cell_id) - n AS cum_before,
    SUM(n) OVER () AS total
  FROM scnt
)
SELECT CAST((cum_before * {SHARDS_S}) // total AS BIGINT) AS shard,
  MIN(cell_id) AS start_cell, MAX(cell_id) AS end_cell,
  CAST(COUNT(*) AS BIGINT) AS n_cells,
  CAST(SUM(n) AS BIGINT) AS n_points
FROM scum GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Merkle checksum tree over tiles (anti-entropy / replica repair)
# ---------------------------------------------------------------------------

def q_merkle_tiles(sf_dir: str):
    """Merkle tree over the tiled event table (the anti-entropy /
    replica-repair structure): leaf digest per res-2 tile = order-free
    wraparound sum of md5(event_id) (mergeable partials, one exchange);
    each upper level hashes the sorted 'child:digest' list of its
    children; one global root.  Comparing two replicas' trees localizes
    divergent tiles in O(log) probes.  Upper levels are grid-bounded
    driver work.  Output (res, tile_id, digest) with res -1 = root."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.dedup import md5_u64, md5_u64_many

    ds = _read(sf_dir, "events", columns=["event_id"])
    M = 1 << 64
    nb = 8

    def leaf_partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        h = md5_u64_many([str(int(i)) for i in ids]).astype(np.uint64)
        u_uniq, t_inv = np.unique(u, return_inverse=True)
        t_uniq = su.to_string_fixed(u_uniq, TILE_RES).to_numpy(zero_copy_only=False)
        s = np.zeros(len(t_uniq), dtype=np.uint64)
        np.add.at(s, t_inv, h)  # wraparound mod 2^64 by dtype
        hb = (pd.util.hash_array(t_uniq) % np.uint64(nb)).astype(np.int64)
        return pa.table({"tile_id": pa.array(t_uniq, type=pa.string()),
                         "s": pa.array(s),
                         "bucket": pa.array(hb)})

    def leaf_reduce(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "tile_id" not in g.column_names:
            return pa.table({"tile_id": pa.array([], type=pa.string()),
                             "s": pa.array([], type=pa.uint64())})
        t = g["tile_id"].to_numpy(zero_copy_only=False)
        s = g["s"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uq, inv = np.unique(t, return_inverse=True)
        acc = np.zeros(len(uq), dtype=np.uint64)
        np.add.at(acc, inv, s)
        return pa.table({"tile_id": pa.array(uq, type=pa.string()),
                         "s": pa.array(acc)})

    leaves = (
        ds.map_batches(leaf_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(leaf_reduce, batch_format="pyarrow")
    ).to_pandas()  # grid-bounded
    tiles = leaves["tile_id"].to_numpy()
    digs = leaves["s"].to_numpy().astype(np.uint64)
    order = np.argsort(tiles)
    tiles, digs = tiles[order], digs[order]

    out_res = [np.full(len(tiles), TILE_RES, dtype=np.int64)]
    out_tile = [tiles]
    out_dig = [digs.astype(np.uint64)]
    cur_t, cur_d = tiles, digs
    for r in range(TILE_RES - 1, -1, -1):
        parents = np.array([t[: 1 + r] for t in cur_t], dtype=object)
        pu = np.unique(parents)
        pd_ = []
        for p in pu:
            m = parents == p
            payload = "|".join(
                f"{c}:{int(d)}" for c, d in zip(cur_t[m], cur_d[m]))
            pd_.append(md5_u64(payload))
        cur_t = pu.astype(str)
        cur_d = np.array(pd_, dtype=np.uint64)
        out_res.append(np.full(len(pu), r, dtype=np.int64))
        out_tile.append(cur_t)
        out_dig.append(cur_d)
    root_payload = "|".join(
        f"{c}:{int(d)}" for c, d in zip(cur_t, cur_d))
    out_res.append(np.array([-1], dtype=np.int64))
    out_tile.append(np.array(["ROOT"], dtype=object))
    out_dig.append(np.array([md5_u64(root_payload)], dtype=np.uint64))
    return pa.table({
        "res": pa.array(np.concatenate(out_res)),
        "tile_id": pa.array(np.concatenate([a.astype(str) for a in out_tile]),
                            type=pa.string()),
        "digest": pa.array(np.concatenate(out_dig).astype(np.int64)),
    })


def sql_merkle_tiles() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    M = "18446744073709551616"
    lvls = []
    lvls.append(f"""
m2 AS MATERIALIZED (
  SELECT cell_id AS tile_id,
    CAST(SUM(CAST(md5_number_lower(CAST(event_id AS VARCHAR)) AS HUGEINT))
      % {M} AS UBIGINT) AS dig
  FROM {inner} t GROUP BY cell_id
)""")
    prev = "m2"
    for r in range(TILE_RES - 1, -1, -1):
        lvls.append(f"""
m{r} AS MATERIALIZED (
  SELECT substr(tile_id, 1, {1 + r}) AS tile_id,
    md5_number_lower(string_agg(tile_id || ':' || CAST(dig AS VARCHAR),
      '|' ORDER BY tile_id)) AS dig
  FROM {prev} GROUP BY 1
)""")
        prev = f"m{r}"
    root = f"""
mroot AS MATERIALIZED (
  SELECT 'ROOT' AS tile_id,
    md5_number_lower(string_agg(tile_id || ':' || CAST(dig AS VARCHAR),
      '|' ORDER BY tile_id)) AS dig
  FROM {prev}
)"""
    selects = [
        f"SELECT CAST({TILE_RES} AS BIGINT) AS res, tile_id,"
        f" CAST(CAST(dig AS HUGEINT) - CASE WHEN dig >= {1 << 63} THEN {M}"
        f" ELSE 0 END AS BIGINT) AS digest FROM m2"
    ]
    for r in range(TILE_RES - 1, -1, -1):
        selects.append(
            f"SELECT CAST({r} AS BIGINT), tile_id,"
            f" CAST(CAST(dig AS HUGEINT) - CASE WHEN dig >= {1 << 63} THEN {M}"
            f" ELSE 0 END AS BIGINT) FROM m{r}")
    selects.append(
        f"SELECT CAST(-1 AS BIGINT), tile_id,"
        f" CAST(CAST(dig AS HUGEINT) - CASE WHEN dig >= {1 << 63} THEN {M}"
        f" ELSE 0 END AS BIGINT) FROM mroot")
    return "WITH " + ",".join(lvls) + "," + root + "\n" + "\nUNION ALL\n".join(selects)


# ---------------------------------------------------------------------------
# Predicate-pushdown scan + stubbed CLIP-style pair scoring
# ---------------------------------------------------------------------------

def q_pruned_scan(sf_dir: str):
    """Predicate + projection pushdown at the READ: the row filter and
    the two-column projection are evaluated inside the parquet scan
    (pyarrow dataset filter -> row-group pruning + late
    materialization), so only qualifying rows of only the needed
    columns ever leave storage — the prune-at-the-read discipline the
    100 TB target demands.  Output: per-status order counts + total
    cents among 1996 orders."""
    import pyarrow.dataset as pads

    lo = np.datetime64("1996-01-01T00:00:00", "us")
    hi = np.datetime64("1997-01-01T00:00:00", "us")
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_totalprice", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi),
    )

    def agg(batch: pa.Table) -> pa.Table:
        st = batch["o_orderstatus"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uq, inv = np.unique(st, return_inverse=True)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, cents)
        return pa.table({"o_orderstatus": pa.array(uq, type=pa.string()),
                         "n": pa.array(n), "sum_cents": pa.array(s)})

    part = ds.map_batches(agg, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("o_orderstatus").aggregate(
        Sum("n", alias_name="n"), Sum("sum_cents", alias_name="sum_cents"))


def sql_pruned_scan() -> str:
    return """
SELECT o_orderstatus,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
    AS sum_cents
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY o_orderstatus
"""


def q_group_split(sf_dir: str):
    """Group-aware train/val/test split (leakage prevention): the WHOLE
    source goes to one split by md5(source) % 100 (< 80 train, < 90
    val, else test) — documents of one origin can never straddle the
    boundary.  Map-only.  Output (doc_id, source, split)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64_many

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def tag(batch: pa.Table) -> pa.Table:
        src = batch["source"].to_numpy(zero_copy_only=False)
        h = md5_u64_many(src) % np.uint64(100)
        split = np.where(h < 80, "train", np.where(h < 90, "val", "test"))
        return pa.table({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "split": pa.array(split.astype(str), type=pa.string()),
        })

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def sql_group_split() -> str:
    return """
SELECT doc_id, source,
  CASE WHEN md5_number_lower(source) % 100 < 80 THEN 'train'
       WHEN md5_number_lower(source) % 100 < 90 THEN 'val'
       ELSE 'test' END AS split
FROM documents
"""


def q_rendezvous_shards(sf_dir: str):
    """Rendezvous (highest-random-weight) replica placement: every
    occupied res-2 tile picks its top-R of S servers by
    md5(tile || ':' || server) — adding/removing a server moves only
    1/S of the keys, the standard serving-shard assignment.  Map-only
    over the bounded distinct-tile set.  Output (tile_id, server,
    rank)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = indexed_events(sf_dir, resolution=2)

    def cells(batch: pa.Table) -> pa.Table:
        u = batch["cell_u64"].to_numpy(zero_copy_only=False)
        return pa.table({"key": pa.array(u, type=pa.uint64()),
                         "one": pa.array(np.ones(len(u), dtype=np.int64))})

    occ = sum_by_u64_key(
        ds.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "n")

    def place(batch: pa.Table) -> pa.Table:
        u = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tiles = su.to_string_fixed(u, 2).to_pylist()
        S, R = RENDEZVOUS_SERVERS, RENDEZVOUS_R
        n = len(tiles)
        H = np.empty((n, S), dtype=np.uint64)
        for s in range(S):
            H[:, s] = np.fromiter(
                (md5_u64(f"{t}:{s}") for t in tiles), dtype=np.uint64,
                count=n)
        # exact u64 descending with (w DESC, server ASC) ties: bitwise
        # NOT inverts the order losslessly, stable argsort keeps the
        # lower server first on (impossible) ties
        order = np.argsort(~H, axis=1, kind="stable")
        top = order[:, :R]
        return pa.table({
            "tile_id": pa.array(np.repeat(tiles, R), type=pa.string()),
            "server": pa.array(top.ravel().astype(np.int64)),
            "rank": pa.array(np.tile(np.arange(1, R + 1, dtype=np.int64), n)),
        })

    return occ.map_batches(place, batch_format="pyarrow", zero_copy_batch=True)


def sql_rendezvous_shards() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), 2, CFG, id_cols=("event_id",)
    )
    S, R = RENDEZVOUS_SERVERS, RENDEZVOUS_R
    return f"""
WITH rtiles AS MATERIALIZED (
  SELECT DISTINCT cell_id AS tile_id FROM {inner} t
),
rw AS MATERIALIZED (
  SELECT tile_id, s.s AS server,
    md5_number_lower(tile_id || ':' || CAST(s.s AS VARCHAR)) AS w
  FROM rtiles, (SELECT unnest(generate_series(0, {S - 1})) AS s) s
)
SELECT tile_id, CAST(server AS BIGINT) AS server,
  row_number() OVER (PARTITION BY tile_id ORDER BY w DESC, server) AS rank
FROM rw QUALIFY rank <= {R}
"""


# ---------------------------------------------------------------------------
# Global sort + embedding int8 quantization audit
# ---------------------------------------------------------------------------

def q_global_sort(sf_dir: str):
    """Top-100 events by (value DESC, event_id ASC) through Ray Data's
    native distributed sort-exchange (`Dataset.sort`) — the one
    operator family the suite otherwise avoids in favor of bucketed
    exchanges; kept narrow (2 columns in, 100 rows out) so the
    all-to-all moves minimum bytes.  Output (rank, event_id, cents)."""
    ds = _read(sf_dir, "events", columns=["event_id", "value"], blocks=4)

    def narrow(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"],
            "neg_cents": pa.array(-np.floor(
                batch["value"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)),
        })

    top = (
        ds.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["neg_cents", "event_id"])
        .limit(100)
    ).to_pandas()
    return pa.table({
        "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
        "event_id": pa.array(top["event_id"].to_numpy().astype(np.int64)),
        "cents": pa.array((-top["neg_cents"].to_numpy()).astype(np.int64)),
    })


def sql_global_sort() -> str:
    return """
SELECT row_number() OVER (ORDER BY CAST(floor(value * 100) AS BIGINT) DESC,
    event_id) AS rank,
  event_id, CAST(floor(value * 100) AS BIGINT) AS cents
FROM events
ORDER BY rank LIMIT 100
"""


def q_binary_source(sf_dir: str):
    """Fixed-width binary record source: raw shard files read with
    ``ray.data.read_binary_files`` (one row per file, bytes column),
    parsed zero-copy with np.frombuffer inside map_batches, then a
    tiny modulo-bucket aggregate.  The byte-level connector shape for
    proprietary record formats at 100 TB: one read task per shard,
    parse vectorized, nothing but partials shuffles."""
    _write_binrec_fixture()
    ds = ray.data.read_binary_files(BINREC_DIR, file_extensions=["bin"])

    def parse(batch: pa.Table) -> pa.Table:
        outs_k, outs_n, outs_s = [], [], []
        for blob in batch["bytes"].to_pylist():
            rec = np.frombuffer(blob, dtype="<i8").reshape(-1, 2)
            ids, v = rec[:, 0], rec[:, 1]
            k = ids % 7
            uq, inv = np.unique(k, return_inverse=True)
            n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
            sv = np.zeros(len(uq), dtype=np.int64)
            np.add.at(sv, inv, v)
            outs_k.append(uq)
            outs_n.append(n)
            outs_s.append(sv)
        return pa.table({
            "k": pa.array(np.concatenate(outs_k)),
            "n": pa.array(np.concatenate(outs_n)),
            "sum_v": pa.array(np.concatenate(outs_s)),
        })

    part = ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("k").aggregate(
        Sum("n", alias_name="n"), Sum("sum_v", alias_name="sum_v"))


def sql_binary_source() -> str:
    # the records are generated from the same splitmix64 formula the
    # fixture wrote, so the oracle replays the rule over a series
    _write_binrec_fixture()
    sm = oracle.splitmix64_sql_ctes(
        f"SELECT unnest(generate_series(0, {BINREC_N - 1})) AS id",
        "id", "id", "h", prefix="bsm")
    return f"""
SELECT CAST(id % 7 AS BIGINT) AS k,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(CAST(h % 1000000000 AS BIGINT)) AS BIGINT) AS sum_v
FROM {sm} t GROUP BY 1
"""


def q_hive_partitioned_source(sf_dir: str):
    """Source-side partition pruning: the events table is laid out
    once as hive-partitioned parquet (partition key = event_type,
    idempotent per sf_dir fingerprint) and the query reads ONLY the
    click/purchase partition directories — the other three event
    types never leave storage (the layout+pruning contract a lakehouse
    source relies on at 100 TB).  Per-partition daily counts prove the
    read.  Output (event_type, day, n)."""
    import glob
    import os

    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    root = f"/tmp/graft_hive_events_{tag}"
    marker = os.path.join(root, "_DONE")
    if not os.path.exists(marker):
        ds = _read(sf_dir, "events", columns=["event_id", "ts", "event_type"],
                   blocks=4)

        def addcols(batch: pa.Table) -> pa.Table:
            et = batch["event_type"].to_numpy(zero_copy_only=False)
            # partition col consumed by the writer; "etype" rides in data
            t = batch.append_column("ptype", pa.array(et, type=pa.string()))
            return t
        ds.map_batches(addcols, batch_format="pyarrow",
                       zero_copy_batch=True).write_parquet(
            root, partition_cols=["ptype"])
        open(marker, "w").write("ok")

    paths = []
    for t in HIVE_TYPES:
        paths.extend(sorted(glob.glob(os.path.join(root, f"ptype={t}",
                                                   "*.parquet"))))
    pruned = ray.data.read_parquet(paths, columns=["ts", "event_type"])
    codes = {t: i for i, t in enumerate(EVT_TYPES)}

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        code = np.array([codes[x] for x in et], dtype=np.uint64)
        key = (day << np.uint64(3)) | code
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    folded = sum_by_u64_key(pruned.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "n", n_buckets=4)

    def finish(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        types = np.array(EVT_TYPES, dtype=object)
        return pa.table({
            "event_type": pa.array(
                types[(key & np.uint64(7)).astype(np.int64)],
                type=pa.string()),
            "day": pa.array((key >> np.uint64(3)).astype(np.int64)),
            "n": batch["n"],
        })

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_hive_partitioned_source() -> str:
    types = ", ".join(f"'{t}'" for t in HIVE_TYPES)
    return f"""
SELECT event_type, epoch_us(ts) // 86400000000 AS day,
  CAST(COUNT(*) AS BIGINT) AS n
FROM events WHERE event_type IN ({types})
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Round 4d: per-source embedding centroid drift (domain QC)
# ---------------------------------------------------------------------------


def q_source_centroid_shift(sf_dir: str):
    """Training-data domain QC: squared distance between the embedding
    centroids of every source pair — the drift score that flags a
    corpus slice living in its own region of embedding space.  Exact:
    embeddings quantize to integer millis; per-(source, dim) sums fold
    via the union-attach exchange (doc->source tag rows and embedding
    rows meet in ONE bucketed groupby — no join operator; embeddings
    cross a shuffle once, as integer lists); the pairwise readout is a
    bounded (n_sources x 64)-row driver fold with bignum-exact
    rationals: d2 = sum_dim (sa*nb - sb*na)^2 // (na*nb)^2 (in milli^2
    units, SQL HUGEINT mirror).  Output (source_a, source_b, n_a, n_b,
    d2_milli2)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_to_driver
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    # bounded: the distinct source list (20 here; ≤ thousands at scale)
    srcs = sorted({r["source"] for r in
                   docs.groupby("source").count().take_all()})
    scode = {s: i for i, s in enumerate(srcs)}
    sref = ray.put(scode)

    def tag_docs(batch: pa.Table) -> pa.Table:
        sc = ray.get(sref)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        codes = np.array([sc[s] for s in
                          batch["source"].to_pylist()], dtype=np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(did.astype(np.uint64), 8)),
            "id": pa.array(did.astype(np.int64)),
            "scode": pa.array(codes),
            "q": pa.array([None] * len(did),
                          type=pa.list_(pa.int64())),
        })

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def tag_emb(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        Q_ = np.floor(_emb_matrix(batch).astype(np.float64)
                      * 1000.0).astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(vid.astype(np.uint64), 8)),
            "id": pa.array(vid.astype(np.int64)),
            "scode": pa.array(np.full(len(vid), -1, dtype=np.int64)),
            "q": pa.array(list(Q_), type=pa.list_(pa.int64())),
        })

    def attach(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "id" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "v": pa.array([], type=pa.int64())})
        ids = g["id"].to_numpy(zero_copy_only=False)
        sc = g["scode"].to_numpy(zero_copy_only=False)
        tag_m = sc >= 0
        emb_m = ~tag_m
        if not emb_m.any():
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "v": pa.array([], type=pa.int64())})
        eid = ids[emb_m]
        Q_ = np.array(g.filter(pa.array(emb_m))["q"].to_pylist(),
                      dtype=np.int64)
        # vectorized id->scode lookup (tag ids unique per bucket)
        order = np.argsort(ids[tag_m])
        t_ids = ids[tag_m][order]
        t_sc = sc[tag_m][order]
        codes = t_sc[np.searchsorted(t_ids, eid)]
        d = Q_.shape[1]
        cu, cinv = np.unique(codes, return_inverse=True)
        sums = np.zeros((len(cu), d), dtype=np.int64)
        np.add.at(sums, cinv, Q_)
        cnts = np.bincount(cinv)
        keys, vals = [], []
        for i, code in enumerate(cu.tolist()):
            keys.append(code * 64 + np.arange(d, dtype=np.int64))
            vals.append(sums[i])
            keys.append(np.array([(1 << 20) | code], dtype=np.int64))
            vals.append(np.array([cnts[i]], dtype=np.int64))
        return pa.table({
            "key": pa.array(np.concatenate(keys).astype(np.uint64),
                            type=pa.uint64()),
            "v": pa.array(np.concatenate(vals)),
        })

    keys, sums = sum_to_driver(
        docs.map_batches(tag_docs, batch_format="pyarrow",
                         zero_copy_batch=True)
        .union(emb.map_batches(tag_emb, batch_format="pyarrow",
                               zero_copy_batch=True))
        .groupby("bucket").map_groups(attach, batch_format="pyarrow"),
        "key", "v")
    S = dict(zip(keys.tolist(), sums.tolist()))
    rows = []
    for a in range(len(srcs)):
        na = S.get((1 << 20) | a, 0)
        for bb in range(a + 1, len(srcs)):
            nb_ = S.get((1 << 20) | bb, 0)
            if na == 0 or nb_ == 0:
                continue
            num = sum((S.get(a * 64 + d_, 0) * nb_
                       - S.get(bb * 64 + d_, 0) * na) ** 2
                      for d_ in range(EMB_D))
            rows.append((srcs[a], srcs[bb], na, nb_,
                         num // (na * nb_) ** 2))
    return pa.table({
        "source_a": pa.array([r[0] for r in rows], type=pa.string()),
        "source_b": pa.array([r[1] for r in rows], type=pa.string()),
        "n_a": pa.array(np.array([r[2] for r in rows], dtype=np.int64)),
        "n_b": pa.array(np.array([r[3] for r in rows], dtype=np.int64)),
        "d2_milli2": pa.array(np.array([r[4] for r in rows],
                                       dtype=np.int64)),
    })


def sql_source_centroid_shift() -> str:
    return f"""
WITH sce AS MATERIALIZED (
  SELECT d.source, dim.i - 1 AS dim,
    CAST(floor(CAST(e.embedding[dim.i] AS DOUBLE) * 1000.0) AS BIGINT) AS q
  FROM documents d
  JOIN embeddings e ON e.vec_id = d.doc_id,
    (SELECT unnest(generate_series(1, {EMB_D})) AS i) dim
),
scs AS MATERIALIZED (
  SELECT source, dim, CAST(SUM(q) AS HUGEINT) AS s
  FROM sce GROUP BY 1, 2
),
scn AS MATERIALIZED (
  SELECT d.source, CAST(COUNT(*) AS HUGEINT) AS n
  FROM documents d JOIN embeddings e ON e.vec_id = d.doc_id
  GROUP BY 1
),
scp AS MATERIALIZED (
  SELECT a.source AS source_a, b.source AS source_b, na.n AS na, nb.n AS nb,
    CAST(SUM((a.s * nb.n - b.s * na.n) * (a.s * nb.n - b.s * na.n))
      AS HUGEINT) AS num
  FROM scs a
  JOIN scs b ON b.dim = a.dim AND a.source < b.source
  JOIN scn na ON na.source = a.source
  JOIN scn nb ON nb.source = b.source
  GROUP BY 1, 2, 3, 4
)
SELECT source_a, source_b, CAST(na AS BIGINT) AS n_a,
  CAST(nb AS BIGINT) AS n_b,
  CAST(num // ((na * nb) * (na * nb)) AS BIGINT) AS d2_milli2
FROM scp
"""


# ---------------------------------------------------------------------------
# Round 4d: dead-letter quarantine sink
# ---------------------------------------------------------------------------


def q_quarantine_sink(sf_dir: str):
    """Poison-row handling: a validation map splits the stream — rows
    whose props key is divisible by 97 ('suspect_k', checked first) or
    whose micro-quantized value is zero ('zero_value') are WRITTEN to
    a quarantine parquet sink from inside the tasks (the dead-letter
    queue every ingestion pipeline needs), good rows flow on.  The
    summary counts re-read the sink, proving the side-channel: good
    from the main stream, quarantined per reason from the quarantine
    directory.  Output (bucket, n)."""
    import os
    import shutil
    import uuid

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    qdir = f"/tmp/graft_quarantine_{tag}"
    shutil.rmtree(qdir, ignore_errors=True)
    os.makedirs(qdir, exist_ok=True)

    ds = _read(sf_dir, "events", columns=["event_id", "props", "value"],
               blocks=4)

    def split(batch: pa.Table) -> pa.Table:
        ks = pc.extract_regex(batch["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(ks, "k"), pa.int64()).to_numpy(
            zero_copy_only=False)
        vq = np.floor(batch["value"].to_numpy(zero_copy_only=False)
                      * 1e6).astype(np.int64)
        suspect = (k % 97) == 0
        zero = (vq == 0) & ~suspect
        bad = suspect | zero
        if bad.any():
            reasons = np.where(suspect, "suspect_k", "zero_value")[bad]
            qt = pa.table({
                "event_id": pa.array(
                    batch["event_id"].to_numpy(zero_copy_only=False)[bad]),
                "reason": pa.array(reasons.astype(str), type=pa.string()),
            })
            pq.write_table(qt, os.path.join(qdir, f"{uuid.uuid4()}.parquet"))
        return pa.table({
            "key": pa.array(np.zeros(int((~bad).sum()), dtype=np.uint64),
                            type=pa.uint64()),
            "one": pa.array(np.ones(int((~bad).sum()), dtype=np.int64)),
        })

    # the driver fold consumes every batch: barrier, all quarantine
    # files are written before the listdir below
    _, good = sum_to_driver(
        ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    counts = {"good": int(good.sum()), "suspect_k": 0, "zero_value": 0}
    files = [os.path.join(qdir, f) for f in os.listdir(qdir)]
    if files:
        qds = ray.data.read_parquet(files)
        for b in qds.iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                uq, cnt = np.unique(
                    b["reason"].to_numpy(zero_copy_only=False),
                    return_counts=True)
                for r, c in zip(uq.tolist(), cnt.tolist()):
                    counts[r] += int(c)
    buckets = sorted(b for b in counts if counts[b] > 0)  # GROUP BY
    return pa.table({
        "bucket": pa.array(buckets, type=pa.string()),
        "n": pa.array(np.array([counts[b] for b in buckets],
                               dtype=np.int64)),
    })


def sql_quarantine_sink() -> str:
    return """
SELECT CASE
    WHEN CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT) % 97 = 0
      THEN 'suspect_k'
    WHEN CAST(floor(value * 1000000.0) AS BIGINT) = 0 THEN 'zero_value'
    ELSE 'good' END AS bucket,
  CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1
"""


def q_npy_source(sf_dir: str):
    """Tensor-shard source: .npy matrices (the ML-artifact interchange
    format) read with ``ray.data.read_numpy`` — one read task per
    shard, rows stream as ndarray batches — then a vectorized
    quantized-norm map: per dimension q = floor(x * 10^6) as int64,
    norm2_q = sum q^2 (exact integers, so the parquet-side oracle
    replays it order-free).  The connector shape for embedding dumps
    at 100 TB: no Python row loop, no shuffle, ids travel as column 0
    of the tensor.  Output (vec_id, dim, norm2_q)."""
    src = _write_npy_fixture(sf_dir)
    ds = ray.data.read_numpy(src, file_extensions=["npy"])

    def norms(batch):
        X = batch["data"]
        ids = X[:, 0].astype(np.int64)
        q = np.floor(X[:, 1:] * 1e6).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(ids),
            "dim": pa.array(np.full(len(ids), X.shape[1] - 1,
                                    dtype=np.int64)),
            "norm2_q": pa.array((q * q).sum(axis=1)),
        })

    return ds.map_batches(norms, batch_format="numpy")


def sql_npy_source() -> str:
    return """
WITH npe AS MATERIALIZED (
  SELECT vec_id, unnest(embedding) AS x FROM embeddings
),
npq AS MATERIALIZED (
  SELECT vec_id,
    CAST(floor(CAST(x AS DOUBLE) * 1000000.0) AS BIGINT) AS q
  FROM npe
)
SELECT vec_id, CAST(COUNT(*) AS BIGINT) AS dim,
  CAST(SUM(q * q) AS BIGINT) AS norm2_q
FROM npq GROUP BY vec_id
"""


def q_rowgroup_stats(sf_dir: str):
    """Parquet fragment/row-group manifest — the lakehouse metadata
    scan every pruning decision starts from: per fragment of the
    24-file events copy (the compact_files fixture), per row group,
    the row count and event_id min/max (the zone map).  The engine
    reads ONLY footer metadata (no data pages; at 100 TB this is the
    planner's O(row-groups) pass, driver-bounded by design); the
    oracle recomputes the same stats from the DATA through DuckDB's
    filename-attributed scan, proving the footer zone maps honest.
    Output (fragment, row_group, n_rows, min_id, max_id)."""
    import os

    import pyarrow.parquet as pq

    src = _fragmented_events(sf_dir)
    fr, rg, nr, lo, hi = [], [], [], [], []
    for fn in sorted(os.listdir(src)):
        if not fn.endswith(".parquet"):
            continue
        f = pq.ParquetFile(os.path.join(src, fn))
        col = f.schema_arrow.names.index("event_id")
        for i in range(f.metadata.num_row_groups):
            c = f.metadata.row_group(i).column(col)
            fr.append(int(fn[1:4]))
            rg.append(i)
            nr.append(f.metadata.row_group(i).num_rows)
            lo.append(int(c.statistics.min))
            hi.append(int(c.statistics.max))
    return pa.table({
        "fragment": pa.array(fr, type=pa.int64()),
        "row_group": pa.array(rg, type=pa.int64()),
        "n_rows": pa.array(nr, type=pa.int64()),
        "min_id": pa.array(lo, type=pa.int64()),
        "max_id": pa.array(hi, type=pa.int64()),
    })


def sql_rowgroup_stats() -> str:
    # replays the fixture's slicing rule over the source table (the
    # binary_source precedent): fragments are positional ceil(n/24)
    # slices and event_id == row position in the testdata, so
    # fragment = event_id // per; one row group per fragment.  The
    # footer stats the ENGINE reads must agree or the compare fails.
    return """
WITH rgn AS MATERIALIZED (
  SELECT (COUNT(*) + 23) // 24 AS per FROM events
)
SELECT CAST(event_id // per AS BIGINT) AS fragment,
  CAST(0 AS BIGINT) AS row_group,
  CAST(COUNT(*) AS BIGINT) AS n_rows,
  CAST(MIN(event_id) AS BIGINT) AS min_id,
  CAST(MAX(event_id) AS BIGINT) AS max_id
FROM events, rgn
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Round 4e: shuffle-mix quality + near-dup cluster purity
# ---------------------------------------------------------------------------


def q_shuffle_mix(sf_dir: str):
    """Training-shuffle quality — after the deterministic global
    shuffle (order by splitmix64(doc_id)), how often do adjacent
    documents share a source?  A good shuffle leaves adj_same ~=
    sum n_s*(n_s-1) / N expected collisions; systematic clumping
    means the data loader will see correlated batches.  The ordered
    scan is a driver pass over the (bounded) doc key table; counts
    and the expected-collision numerator are exact integers.
    Output (n_docs, adj_same, exp_num, exp_den)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def part(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "h": pa.array(splitmix64(did.astype(np.uint64)),
                          type=pa.uint64()),
            "doc_id": pa.array(did.astype(np.int64)),
            "source": batch["source"],
        })

    rows = []
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        if b.num_rows:
            rows.extend(zip(b["h"].to_pylist(), b["doc_id"].to_pylist(),
                            b["source"].to_pylist()))
    rows.sort()
    srcs = [s for _h, _d, s in rows]
    n = len(srcs)
    adj = sum(1 for i in range(1, n) if srcs[i] == srcs[i - 1])
    cnt: dict = {}
    for s in srcs:
        cnt[s] = cnt.get(s, 0) + 1
    exp_num = sum(c * (c - 1) for c in cnt.values())
    return pa.table({
        "n_docs": pa.array([n], type=pa.int64()),
        "adj_same": pa.array([adj], type=pa.int64()),
        "exp_num": pa.array([exp_num], type=pa.int64()),
        "exp_den": pa.array([n], type=pa.int64()),
    })


def sql_shuffle_mix() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT doc_id, source FROM documents", "doc_id, source",
        "doc_id", "h", prefix="sxm")
    return f"""
WITH sxo AS MATERIALIZED (
  SELECT source,
    lag(source) OVER (ORDER BY h, doc_id) AS prev
  FROM {sm} t
),
sxa AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
    CAST(COUNT(*) FILTER (WHERE source = prev) AS BIGINT) AS adj
  FROM sxo
),
sxe AS MATERIALIZED (
  SELECT CAST(SUM(c * (c - 1)) AS BIGINT) AS exp_num
  FROM (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents
        GROUP BY source) t
)
SELECT a.n AS n_docs, a.adj AS adj_same, e.exp_num, a.n AS exp_den
FROM sxa a CROSS JOIN sxe e
"""


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit over the quasi-identifier (res-2 tile,
    event_type) — the privacy screen before sharing mobility data:
    groups with fewer than KANON_K events are re-identification
    risks; report each risky group with its size and distinct-user
    count.  One bounded fold (486 x |types| keys).
    Output (tile_id, event_type, n, n_users)."""
    from rhealpixdggs_py_ray.core import index as cidx

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = su.to_string_fixed(u, TILE_RES).to_pylist()
        key = np.array([f"{a}\x00{b}\x00{c}"
                        for a, b, c in zip(tile, et, uid)], dtype=object)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    grp: dict = {}
    for k, n in acc.items():
        tile, et, _uid = k.split("\x00")
        tot, users = grp.get((tile, et), (0, 0))
        grp[(tile, et)] = (tot + n, users + 1)
    keys = sorted(k for k, (tot, _u) in grp.items() if tot < KANON_K)
    return pa.table({
        "tile_id": pa.array([k[0] for k in keys], type=pa.string()),
        "event_type": pa.array([k[1] for k in keys], type=pa.string()),
        "n": pa.array([grp[k][0] for k in keys], type=pa.int64()),
        "n_users": pa.array([grp[k][1] for k in keys], type=pa.int64()),
    })


def sql_k_anonymity() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",)
    )
    return f"""
WITH kan AS MATERIALIZED (
  SELECT t.cell_id AS tile_id, e.event_type, e.user_id
  FROM {inner} t JOIN events e ON e.event_id = t.event_id
)
SELECT tile_id, event_type, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM kan GROUP BY 1, 2
HAVING COUNT(*) < {KANON_K}
"""


TT_ASOF = 12       # reconstruct table state as of this commit (day)
TT_DEL_MOD = 17    # (user_id + day) % TT_DEL_MOD == 0 -> DELETE op


def q_time_travel(sf_dir: str):
    """Delta-log time travel with MERGE semantics (the lakehouse
    read-as-of primitive): each epoch day k is one commit of per-user
    ops — UPSERT of the user's last value that day (ties: latest ts,
    then largest event_id), or DELETE when (user_id + k) %
    TT_DEL_MOD == 0.  The log is written ONCE as parquet hive-
    partitioned by commit (the resumable layout), and the as-of read
    lists ONLY commit dirs <= TT_ASOF — partition pruning is the
    point: reconstruction cost scales with the commits read, never
    the table's full history.  Replay is one h(user) bucket exchange:
    last-writer-wins per user across the read commits, DELETE wins
    drop the user.  Output (user_id, cents) of the surviving state.
    Oracle: two-level row_number replay over the same events view."""
    import glob
    import os

    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    log_dir = (f"/tmp/graft_ttlog_{os.path.basename(sf_dir.rstrip('/'))}")
    nb = 8
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"], blocks=4)

    def ops(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = ts // 86_400_000_000 - 19723
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        # per-batch partial: keep the (ts, event_id)-max row per
        # (user, day) — merged exactly again in the replay resolve
        if len(day) and (day.min() < 0 or day.max() >= 64):
            raise AssertionError(
                "time_travel (user, day) packing needs epoch day in "
                "[0, 64) — repack if fixtures move")
        order = np.lexsort((eid, ts, uid.astype(np.int64) * 64 + day))
        uid, day, ts, eid, c = (a[order] for a in (uid, day, ts, eid, c))
        grp = uid.astype(np.int64) * 64 + day
        last = np.append(grp[1:] != grp[:-1], True)
        return pa.table({
            "commit": pa.array(day[last]),
            "user_id": pa.array(uid[last].astype(np.int64)),
            "ts": pa.array(ts[last]),
            "event_id": pa.array(eid[last].astype(np.int64)),
            "cents": pa.array(c[last]),
            "op": pa.array(((uid[last].astype(np.int64) + day[last])
                            % TT_DEL_MOD == 0).astype(np.int64)),
        })

    if not os.path.isdir(log_dir) or not glob.glob(
            f"{log_dir}/commit=*/*.parquet"):
        ds.map_batches(ops, batch_format="pyarrow", zero_copy_batch=True) \
          .write_parquet(log_dir, partition_cols=["commit"])

    # as-of read: ONLY commit dirs <= TT_ASOF leave storage
    paths = []
    for d in glob.glob(f"{log_dir}/commit=*"):
        k = int(d.rsplit("=", 1)[1])
        if k <= TT_ASOF:
            paths.extend(sorted(glob.glob(f"{d}/*.parquet")))
    log = ray.data.read_parquet(paths)

    def bucketize(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(hash_bucket_u64(uid.astype(np.uint64), nb)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "cents": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        com = g["commit"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        c = g["cents"].to_numpy(zero_copy_only=False)
        op = g["op"].to_numpy(zero_copy_only=False)
        # last-writer-wins: max (commit, ts, event_id) per user —
        # ts/event_id tiebreak is moot across partial dup rows of the
        # same (user, commit) but keeps the merge total-ordered
        order = np.lexsort((eid, ts, com, uid))
        uid, com, c, op = (a[order] for a in (uid, com, c, op))
        last = np.append(uid[1:] != uid[:-1], True)
        keep = last & (op == 0)
        return pa.table({
            "user_id": pa.array(uid[keep].astype(np.int64)),
            "cents": pa.array(c[keep]),
        })

    return (log.map_batches(bucketize, batch_format="pyarrow",
                            zero_copy_batch=True)
            .groupby("bucket").map_groups(resolve, batch_format="pyarrow"))


def sql_time_travel() -> str:
    return f"""
WITH ttd AS MATERIALIZED (
  SELECT user_id, event_id,
    epoch_us(ts) AS tus,
    epoch_us(ts) // 86400000000 - 19723 AS day,
    CAST(floor(value * 100) AS BIGINT) AS cents
  FROM events
  WHERE epoch_us(ts) // 86400000000 - 19723 <= {TT_ASOF}
),
ttl AS MATERIALIZED (
  SELECT user_id, day, cents,
    CAST(CASE WHEN (user_id + day) % {TT_DEL_MOD} = 0
      THEN 1 ELSE 0 END AS BIGINT) AS op,
    row_number() OVER (PARTITION BY user_id, day
                       ORDER BY tus DESC, event_id DESC) AS rn
  FROM ttd
),
ttf AS MATERIALIZED (
  SELECT user_id, cents, op,
    row_number() OVER (PARTITION BY user_id ORDER BY day DESC) AS rd
  FROM ttl WHERE rn = 1
)
SELECT CAST(user_id AS BIGINT) AS user_id, cents
FROM ttf WHERE rd = 1 AND op = 0
"""



SCHEMA_V2_DAY = 15  # commits before this day were written pre-migration


def q_schema_evolution(sf_dir: str):
    """Schema-evolution reader (the lakehouse migration reality: old
    files lack columns added later): the log's v1 files carry
    (user_id, cents), v2 files add ``channel``.  Ray reads mixed
    schemas as per-block schemas (different-RefBundle warning), so
    the engine normalizes IN the first map_batches — missing columns
    materialize with a typed default ('legacy') — and aggregates per
    channel with the per-batch partial + driver tiny-merge shape.
    Both file generations are written once from the events table
    (idempotent), so the oracle replays the same split relationally.
    Output (channel, n, sum_cents)."""
    import glob
    import os

    import pyarrow.parquet as pq_

    log_dir = f"/tmp/graft_schevo_{os.path.basename(sf_dir.rstrip('/'))}"
    if not glob.glob(f"{log_dir}/*.parquet"):
        os.makedirs(log_dir, exist_ok=True)
        ds0 = _read(sf_dir, "events",
                    columns=["user_id", "ts", "event_type", "value"],
                    blocks=4)

        def split(batch: pa.Table) -> pa.Table:
            ts = (batch["ts"].to_numpy(zero_copy_only=False)
                  .astype("datetime64[us]").astype(np.int64))
            day = ts // 86_400_000_000 - 19723
            c = np.floor(
                batch["value"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)
            return pa.table({
                "user_id": batch["user_id"],
                "cents": pa.array(c),
                "channel": batch["event_type"],
                "is_v2": pa.array((day >= SCHEMA_V2_DAY).astype(np.int8)),
            })

        rows = pa.concat_tables([
            b for b in ds0.map_batches(split, batch_format="pyarrow",
                                       zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow") if b.num_rows])
        v1 = rows.filter(pa.compute.equal(rows["is_v2"], 0))
        v2 = rows.filter(pa.compute.equal(rows["is_v2"], 1))
        pq_.write_table(v1.select(["user_id", "cents"]),
                        f"{log_dir}/gen1-00000.parquet")
        pq_.write_table(v2.select(["user_id", "cents", "channel"]),
                        f"{log_dir}/gen2-00000.parquet")

    ds = ray.data.read_parquet(sorted(glob.glob(f"{log_dir}/*.parquet")))

    def evolve_and_partial(batch: pa.Table) -> pa.Table:
        # the evolution shim: pre-migration blocks lack `channel`
        if "channel" not in batch.column_names:
            batch = batch.append_column(
                "channel",
                pa.array(["legacy"] * batch.num_rows, type=pa.string()))
        ch = np.asarray(batch["channel"].to_pylist(), dtype=object)
        c = batch["cents"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(ch.astype(str), return_inverse=True)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({
            "channel": pa.array(uq.tolist(), type=pa.string()),
            "n": pa.array(n),
            "sum_cents": pa.array(s),
        })

    acc_n: dict = {}
    acc_s: dict = {}
    for b in ds.map_batches(evolve_and_partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        for ch, n, s in zip(b["channel"].to_pylist(), b["n"].to_pylist(),
                            b["sum_cents"].to_pylist()):
            acc_n[ch] = acc_n.get(ch, 0) + n
            acc_s[ch] = acc_s.get(ch, 0) + s
    keys = sorted(acc_n)
    return pa.table({
        "channel": pa.array(keys, type=pa.string()),
        "n": pa.array([acc_n[k] for k in keys], type=pa.int64()),
        "sum_cents": pa.array([acc_s[k] for k in keys], type=pa.int64()),
    })


def sql_schema_evolution() -> str:
    return f"""
WITH sev AS MATERIALIZED (
  SELECT CASE WHEN epoch_us(ts) // 86400000000 - 19723
      >= {SCHEMA_V2_DAY} THEN event_type ELSE 'legacy' END AS channel,
    CAST(floor(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT channel, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(cents) AS BIGINT) AS sum_cents
FROM sev GROUP BY channel
"""
