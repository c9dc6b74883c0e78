"""Query-suite family module: timeseries (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403



def q_sessions(sf_dir: str):
    """Sessionization without one-pandas-frame-per-user overhead: users
    are hash-bucketed (64 buckets), each bucket's groups are counted in
    one vectorized lexsort + segment-reduce pass."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = ((uid * np.uint64(2654435761)) % np.uint64(64)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket))

    def sess_bucket(g: pa.Table) -> pa.Table:
        if not len(g):
            return pa.table(
                {
                    "user_id": pa.array([], type=pa.int64()),
                    "n_events": pa.array([], type=pa.int64()),
                    "n_sessions": pa.array([], type=pa.int64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            g["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.empty(len(uid), dtype=bool)
        gap[0] = False
        gap[1:] = (ts[1:] - ts[:-1]) > SESSION_GAP_S * 1_000_000
        inc = (new_user | gap).astype(np.int64)
        starts = np.flatnonzero(new_user)
        n_sessions = np.add.reduceat(inc, starts)
        counts = np.diff(np.append(starts, len(uid)))
        return pa.table(
            {
                "user_id": pa.array(uid[starts]),
                "n_events": pa.array(counts.astype(np.int64)),
                "n_sessions": pa.array(n_sessions),
            }
        )

    b = ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(sess_bucket, batch_format="pyarrow")


def sql_sessions() -> str:
    return (
        "WITH d AS (SELECT user_id, ts,"
        "  CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER"
        f"  (PARTITION BY user_id ORDER BY ts) > {SESSION_GAP_S * 1_000_000}"
        "  THEN 1 ELSE 0 END AS new_s"
        " FROM events)"
        " SELECT user_id, COUNT(*) AS n_events,"
        " CAST(1 + SUM(CASE WHEN new_s IS NULL THEN 0 ELSE new_s END) AS BIGINT) AS n_sessions"
        " FROM d GROUP BY user_id"
    )


def q_windowed_counts(sf_dir: str):
    """Tumbling 1-hour event-time window per event_type (streaming-style
    windowed aggregate over the events table)."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"], blocks=4)

    def bucket(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        hour = ts.astype(np.int64) // 3_600_000_000
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "hour": pa.array(hour),
                "event_type": batch["event_type"],
                "v_c": pa.array(np.floor(v * 100).astype(np.int64)),
            }
        )

    b = ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby(["hour", "event_type"]).aggregate(
        Count(alias_name="n"), Sum("v_c", alias_name="sum_value_c")
    )


def sql_windowed_counts() -> str:
    return (
        "SELECT epoch_us(ts) // 3600000000 AS hour, event_type,"
        " COUNT(*) AS n,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c"
        " FROM events GROUP BY 1, 2"
    )


def q_sliding_counts(sf_dir: str):
    """Sliding event-time windows (1 h window, 15 min slide): every
    event belongs to exactly 4 windows.  The 4x expansion happens on
    the per-batch (quarter, type) PARTIALS, not the raw rows — combine
    first, replicate the handful of partials, recombine, then one
    bounded (window, type) exchange.  The streaming construct the
    reference lacks (SURVEY §2.6), windowed_counts' tumbling sibling."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        q = ts.astype(np.int64) // 900_000_000  # 15-min quarter index
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        vc = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        df = pd.DataFrame({"q": q, "event_type": et, "v": vc})
        g = df.groupby(["q", "event_type"], sort=False).agg(
            n=("v", "size"), s=("v", "sum")
        ).reset_index()
        # replicate each (quarter, type) partial into the 4 windows
        # [q-3 .. q] that cover it; window label = start quarter
        win = (g["q"].to_numpy()[None, :] - np.arange(4)[:, None]).reshape(-1)
        return pa.table({
            "win_q": pa.array(win.astype(np.int64)),
            "event_type": pa.array(np.tile(g["event_type"].to_numpy(), 4)),
            "n": pa.array(np.tile(g["n"].to_numpy().astype(np.int64), 4)),
            "sum_value_c": pa.array(np.tile(g["s"].to_numpy().astype(np.int64), 4)),
        })

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["win_q", "event_type"]).aggregate(
        Sum("n", alias_name="n"), Sum("sum_value_c", alias_name="sum_value_c")
    )


def sql_sliding_counts() -> str:
    return (
        "SELECT (epoch_us(ts) // 900000000) - k.k AS win_q, event_type,"
        " CAST(COUNT(*) AS BIGINT) AS n,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c"
        " FROM events, (VALUES (0),(1),(2),(3)) k(k)"
        " GROUP BY 1, 2"
    )


def q_asof_join(sf_dir: str):
    """Per-user AS-OF join: every event matches the latest order of the
    same customer with o_orderdate <= ts (date tie -> max o_orderkey);
    events with no prior order drop (inner as-of).  The reference has
    no as-of operator — engine-only training-data surface.

    Distributed shape: both sides hash-bucket by the join key into ONE
    union + groupby exchange (the _attach_pair_sides pattern); inside a
    bucket the match is a single merged np.lexsort over
    (key, t, okey-with-event-sentinel) plus a cumulative order counter
    — no per-key loop, no JoinOperator, no O(|events| x |orders|)
    intermediate (the SQL oracle's join + QUALIFY builds ~10x the rows
    this pipeline ever materializes)."""
    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)
    od = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        blocks=4,
    )

    def _bkt(ids: np.ndarray) -> np.ndarray:
        return (
            (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(58)
        ).astype(np.int64) % N_ASOF_BUCKETS

    def tag_events(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        )
        n = len(uid)
        return pa.table(
            {
                "bkt": pa.array(_bkt(uid)),
                "kind": pa.array(np.ones(n, dtype=np.int64)),
                "key": pa.array(uid),
                "t": pa.array(ts),
                "okey": pa.array(np.zeros(n, dtype=np.int64)),
                "eid": batch["event_id"],
                "price_c": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        dt = (
            batch["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        n = len(ck)
        return pa.table(
            {
                "bkt": pa.array(_bkt(ck)),
                "kind": pa.array(np.zeros(n, dtype=np.int64)),
                "key": pa.array(ck),
                "t": pa.array(dt),
                "okey": batch["o_orderkey"],
                "eid": pa.array(np.zeros(n, dtype=np.int64)),
                "price_c": pa.array(np.floor(price * 100).astype(np.int64)),
            }
        )

    u = ev.map_batches(tag_events, batch_format="pyarrow", zero_copy_batch=True).union(
        od.map_batches(tag_orders, batch_format="pyarrow", zero_copy_batch=True)
    )

    def resolve(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        key_all = g["key"].to_numpy(zero_copy_only=False)
        t_all = g["t"].to_numpy(zero_copy_only=False)
        okey_all = g["okey"].to_numpy(zero_copy_only=False)
        pc_all = g["price_c"].to_numpy(zero_copy_only=False)
        eid_all = g["eid"].to_numpy(zero_copy_only=False)
        om = kind == 0
        em = ~om
        empty = pa.table(
            {
                c: pa.array([], type=pa.int64())
                for c in ("event_id", "user_id", "o_orderkey", "price_c")
            }
        )
        if not om.any() or not em.any():
            return empty
        ko = key_all[om]
        to = t_all[om]
        oo = okey_all[om]
        pc = pc_all[om]
        ke = key_all[em]
        te = t_all[em]
        ide = eid_all[em]
        n_o = len(ko)
        key = np.concatenate([ko, ke])
        t = np.concatenate([to, te])
        # events sort AFTER every same-(key, t) order via the okey
        # sentinel, so "last order before me" ties to max o_orderkey
        okey_s = np.concatenate(
            [oo, np.full(len(ke), np.iinfo(np.int64).max, dtype=np.int64)]
        )
        kindc = np.concatenate(
            [np.zeros(n_o, dtype=np.int8), np.ones(len(ke), dtype=np.int8)]
        )
        srt = np.lexsort((okey_s, t, key))
        ks = kindc[srt]
        cnt = np.cumsum(ks == 0)
        ordpos = np.flatnonzero(ks == 0)
        evpos = np.flatnonzero(ks == 1)
        c = cnt[evpos]
        has = c > 0
        cand = srt[ordpos[c[has] - 1]]  # concat index of candidate order
        evi = srt[evpos[has]] - n_o  # index into the event arrays
        good = ko[cand] == ke[evi]
        cand, evi = cand[good], evi[good]
        return pa.table(
            {
                "event_id": pa.array(ide[evi]),
                "user_id": pa.array(ke[evi]),
                "o_orderkey": pa.array(oo[cand]),
                "price_c": pa.array(pc[cand]),
            }
        )

    return u.groupby("bkt").map_groups(resolve, batch_format="pyarrow")


def sql_asof_join() -> str:
    return (
        "SELECT e.event_id, e.user_id, o.o_orderkey,"
        " CAST(floor(o.o_totalprice*100) AS BIGINT) AS price_c"
        " FROM events e JOIN orders o"
        " ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts"
        " QUALIFY row_number() OVER (PARTITION BY e.event_id"
        " ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) = 1"
    )


def q_range_join(sf_dir: str):
    """Numeric range (interval) join: events.value against the tiny
    overlapping band table.  Small-side range joins never shuffle: the
    24 intervals are a broadcast constant, each batch evaluates one
    vector mask per band and emits per-batch (band_id, n, sum) partials
    — the only exchange is the 24-group final aggregate."""
    ds = _read(sf_dir, "events", columns=["value"])
    los = np.array([b[0] for b in RANGE_BANDS])
    his = np.array([b[1] for b in RANGE_BANDS])

    def bands(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        vc = np.floor(v * 100).astype(np.int64)
        out_b, out_n, out_s = [], [], []
        for i in range(len(los)):
            m = (v >= los[i]) & (v < his[i])
            k = int(m.sum())
            if k:
                out_b.append(i)
                out_n.append(k)
                out_s.append(int(vc[m].sum()))
        return pa.table(
            {
                "band_id": pa.array(np.array(out_b, dtype=np.int64)),
                "n": pa.array(np.array(out_n, dtype=np.int64)),
                "s": pa.array(np.array(out_s, dtype=np.int64)),
            }
        )

    t = ds.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)
    return t.groupby("band_id").aggregate(
        Sum("n", alias_name="n_events"), Sum("s", alias_name="sum_value_c")
    )


def sql_range_join() -> str:
    from rhealpixdggs_py_ray.oracle import _lit

    rows = ", ".join(
        f"({i}, {_lit(lo)}, {_lit(hi)})" for i, (lo, hi) in enumerate(RANGE_BANDS)
    )
    return (
        f"WITH bands(band_id, lo, hi) AS (VALUES {rows})"
        " SELECT CAST(band_id AS BIGINT) AS band_id, COUNT(*) AS n_events,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c"
        " FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi"
        " GROUP BY band_id"
    )


def q_funnel(sf_dir: str):
    """Funnel analysis (view -> click -> purchase): users whose first
    click strictly follows their first view, and first purchase
    strictly follows that click.  ONE h(user) bucket exchange; inside
    a bucket the three stage timestamps resolve with vectorized pandas
    groupby mins (no per-user loop); only 1-row stage-count partials
    leave the bucket."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "view") | (et == "click") | (et == "purchase")
        uid = batch["user_id"].to_numpy(zero_copy_only=False)[keep]
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)[keep]
        )
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_type": pa.array(et[keep], type=pa.string()),
        })

    def _group_min(u: np.ndarray, t: np.ndarray):
        uu, inv = np.unique(u, return_inverse=True)
        mn = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mn, inv, t)
        return uu, mn

    def _first_after(u: np.ndarray, t: np.ndarray, bu: np.ndarray, bt: np.ndarray):
        # min t per user where the user has a base time and t > base
        if not len(bu) or not len(u):
            return bu[:0], bt[:0]
        pos = np.searchsorted(bu, u)
        safe = np.minimum(pos, len(bu) - 1)
        ok = (bu[safe] == u) & (t > bt[safe])
        return _group_min(u[ok], t[ok])

    def per_bucket(g: pa.Table) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        vm = et == "view"
        vu, vt = _group_min(uid[vm], t[vm])
        cm = et == "click"
        cu_, ct = _first_after(uid[cm], t[cm], vu, vt)
        pm = et == "purchase"
        pu, _pt = _first_after(uid[pm], t[pm], cu_, ct)
        return pa.table({
            "g": pa.array([0], type=pa.int64()),
            "n_view": pa.array([len(vu)], type=pa.int64()),
            "n_click": pa.array([len(cu_)], type=pa.int64()),
            "n_purchase": pa.array([len(pu)], type=pa.int64()),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    out = b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")

    def resolve(g: pa.Table) -> pa.Table:
        return pa.table({
            "n_view": pa.array([int(pc.sum(g["n_view"]).as_py())], type=pa.int64()),
            "n_click": pa.array([int(pc.sum(g["n_click"]).as_py())], type=pa.int64()),
            "n_purchase": pa.array([int(pc.sum(g["n_purchase"]).as_py())], type=pa.int64()),
        })

    return out.groupby("g").map_groups(resolve, batch_format="pyarrow")


def sql_funnel() -> str:
    return """
WITH v AS MATERIALIZED (
  SELECT user_id, MIN(ts) AS t FROM events
  WHERE event_type = 'view' GROUP BY 1
),
c AS MATERIALIZED (
  SELECT e.user_id, MIN(e.ts) AS t
  FROM events e JOIN v ON v.user_id = e.user_id
  WHERE e.event_type = 'click' AND e.ts > v.t GROUP BY 1
),
p AS MATERIALIZED (
  SELECT e.user_id, MIN(e.ts) AS t
  FROM events e JOIN c ON c.user_id = e.user_id
  WHERE e.event_type = 'purchase' AND e.ts > c.t GROUP BY 1
)
SELECT CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_view,
  CAST((SELECT COUNT(*) FROM c) AS BIGINT) AS n_click,
  CAST((SELECT COUNT(*) FROM p) AS BIGINT) AS n_purchase
"""


def q_window_join(sf_dir: str):
    """Stream-stream interval self-join: (click, purchase) pairs by the
    same user with 0 < t_purchase - t_click <= 1 h — the classic
    attribution join.  ONE h(user) bucket exchange; inside a bucket a
    merged lexsort + two-pointer vectorized searchsorted counts pairs
    per user without materializing the pair table (the SQL oracle's
    join DOES build it — the pipeline is strictly cheaper).  Output:
    per-user pair count + matched-purchase count."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        uid = batch["user_id"].to_numpy(zero_copy_only=False)[keep]
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)[keep]
        )
        is_p = (et[keep] == "purchase").astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "is_p": pa.array(is_p),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        is_p = g["is_p"].to_numpy(zero_copy_only=False).astype(bool)
        out_u, out_pairs, out_m = [], [], []
        order = np.lexsort((t, uid))
        uid, t, is_p = uid[order], t[order], is_p[order]
        starts = np.flatnonzero(
            np.concatenate([[True], uid[1:] != uid[:-1]])
        )
        ends = np.append(starts[1:], len(uid))
        for s, e in zip(starts, ends):
            ct = t[s:e][~is_p[s:e]]
            pt = t[s:e][is_p[s:e]]
            if len(ct) == 0 or len(pt) == 0:
                continue
            # pairs per purchase: clicks in [pt - W, pt)
            lo = np.searchsorted(ct, pt - SSJOIN_WINDOW_US)
            hi = np.searchsorted(ct, pt)  # strict: click < purchase
            cnt = hi - lo
            n_pairs = int(cnt.sum())
            if n_pairs:
                out_u.append(int(uid[s]))
                out_pairs.append(n_pairs)
                out_m.append(int(np.count_nonzero(cnt > 0)))
        return pa.table({
            "user_id": pa.array(np.array(out_u, dtype=np.int64)),
            "n_pairs": pa.array(np.array(out_pairs, dtype=np.int64)),
            "n_matched_purchases": pa.array(np.array(out_m, dtype=np.int64)),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_window_join() -> str:
    return f"""
WITH c AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) AS t FROM events WHERE event_type = 'click'
),
p AS MATERIALIZED (
  SELECT user_id, event_id, epoch_us(ts) AS t FROM events
  WHERE event_type = 'purchase'
),
pairs AS MATERIALIZED (
  -- purchase EVENTS, not timestamps: two purchases at the same ts are
  -- distinct matches (surfaced by the hot-key skew test)
  SELECT p.user_id, p.event_id AS pe, c.t AS ct
  FROM p JOIN c ON c.user_id = p.user_id
    AND c.t < p.t AND c.t >= p.t - {SSJOIN_WINDOW_US}
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
  CAST(COUNT(DISTINCT pe) AS BIGINT) AS n_matched_purchases
FROM pairs GROUP BY user_id
"""


def q_moving_avg(sf_dir: str):
    """Sliding window FRAME aggregate: per-user moving sum/count of
    value cents over the last MOV_FRAME events by time (SUM ... OVER
    (PARTITION BY user ORDER BY ts, event_id ROWS BETWEEN 3 PRECEDING
    AND CURRENT ROW)).  Same single h(user) bucket exchange as
    running_totals; the frame is a vectorized difference of the
    segmented cumsum — no per-row loop, no per-user group."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"], blocks=4)
    nb = 8

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
        n = len(v)
        cum = np.cumsum(v)
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        seg_start = starts[seg_id]
        i = np.arange(n)
        lo = np.maximum(i - (MOV_FRAME - 1), seg_start)
        base = np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0)
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "mov_sum_c": pa.array(cum - base),
            "n_frame": pa.array((i - lo + 1).astype(np.int64)),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(window, batch_format="pyarrow")


def sql_moving_avg() -> str:
    return (
        "SELECT event_id, user_id,"
        " CAST(SUM(CAST(floor(value*100) AS BIGINT)) OVER w AS BIGINT)"
        "  AS mov_sum_c,"
        " CAST(COUNT(*) OVER w AS BIGINT) AS n_frame"
        " FROM events WINDOW w AS ("
        f"  PARTITION BY user_id ORDER BY ts, event_id"
        f"  ROWS BETWEEN {MOV_FRAME - 1} PRECEDING AND CURRENT ROW)"
    )


def q_late_events(sf_dir: str):
    """Streaming watermark semantics, replayed deterministically: the
    arrival order of each user's events is the splitmix64(event_id)
    permutation (a fixed shuffle of the time order), the watermark is
    (max event time seen so far for that user) - 15 min, and an event
    is LATE if it arrives below the watermark (the row a streaming
    engine would drop or side-output).  One h(user) bucket exchange;
    the per-bucket resolve is a segmented running max (pandas groupby
    cummax, C-vectorized) + shift, not a per-event loop."""
    from rhealpixdggs_py_ray.fixtures import splitmix64
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, nb)),
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "t": pa.array(ts.astype(np.int64)),
            "arr": pa.array(splitmix64(eid.astype(np.uint64)).view(np.int64)),
        })

    def flag(g: pa.Table) -> pa.Table:
        arr_u = g["arr"].to_numpy(zero_copy_only=False).view(np.uint64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, arr_u, uid))
        eid, uid, t = eid[order], uid[order], t[order]
        n = len(t)
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        seg_id = np.cumsum(new_seg) - 1
        # segmented prefix-max via the offset trick: lift each segment
        # by seg_id*BIG so earlier segments can never win the
        # accumulate; falls back to a per-segment loop if the lift
        # would overflow int64 (gigantic buckets x time range)
        tm = t - t.min() if n else t
        big = int(tm.max()) + 1 if n else 1
        n_seg = int(seg_id[-1]) + 1 if n else 0
        if n and n_seg * big < (1 << 62):
            lifted = tm + seg_id * big
            cm = np.maximum.accumulate(lifted) - seg_id * big + t.min()
        else:
            cm = np.empty(n, dtype=np.int64)
            starts = np.flatnonzero(new_seg)
            for s, e in zip(starts, np.append(starts[1:], n)):
                cm[s:e] = np.maximum.accumulate(t[s:e])
        pm = np.empty(n, dtype=np.int64)
        pm[1:] = cm[:-1]
        has_pm = ~new_seg
        late = has_pm & (t < np.where(has_pm, pm, 0) - LATE_GAP_US)
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "late": pa.array(late.astype(np.int64)),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(flag, batch_format="pyarrow")


def sql_late_events() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT event_id FROM events", "event_id", "event_id", "h"
    )
    return f"""
WITH arr AS MATERIALIZED (SELECT event_id, h FROM {sm} t),
e AS MATERIALIZED (
  SELECT e.event_id, e.user_id, epoch_us(e.ts) AS t, arr.h
  FROM events e JOIN arr USING (event_id)
),
w AS (
  SELECT event_id, user_id, t,
    MAX(t) OVER (PARTITION BY user_id ORDER BY h, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm
  FROM e
)
SELECT event_id, user_id,
  CAST(CASE WHEN pm IS NOT NULL AND t < pm - {LATE_GAP_US}
       THEN 1 ELSE 0 END AS BIGINT) AS late
FROM w
"""
#   ~9 min at sf0.001 — 1 h makes the suppression branch fire at every sf)


def q_debounce(sf_dir: str):
    """Event debouncing (the duplicate-suppression rule of telemetry
    ingestion): within each (user, event_type) stream ordered by (ts,
    event_id), an event is kept iff it is the stream head or arrives
    >= 60 s after its predecessor (LAG semantics, not chained-kept —
    both sides implement the same rule).  One h(user) bucket exchange;
    the resolve is one lexsort + one vectorized diff."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, nb)),
            "event_id": batch["event_id"],
            "user_id": batch["user_id"],
            "event_type": batch["event_type"],
            "t": pa.array(ts.astype(np.int64)),
        })

    def flag(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, et, uid))
        uid, et, eid, t = uid[order], et[order], eid[order], t[order]
        new_seg = np.r_[True, (uid[1:] != uid[:-1]) | (et[1:] != et[:-1])]
        prev_t = np.r_[0, t[:-1]]
        keep = new_seg | (t - prev_t >= DEBOUNCE_US)
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "event_type": pa.array(et, type=pa.string()),
            "keep": pa.array(keep.astype(np.int64)),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(flag, batch_format="pyarrow")


def sql_debounce() -> str:
    return f"""
WITH w AS (
  SELECT event_id, user_id, event_type, epoch_us(ts) AS t,
    lag(epoch_us(ts)) OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS pt
  FROM events
)
SELECT event_id, user_id, event_type,
  CAST(CASE WHEN pt IS NULL OR t - pt >= {DEBOUNCE_US}
       THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM w
"""


# ---------------------------------------------------------------------------
# Round 2j (cont.): calendar-aware date functions
# ---------------------------------------------------------------------------

def q_hourly_profile(sf_dir: str):
    """Hour-of-day activity profile per event type (the diurnal
    seasonality report): pure integer arithmetic (epoch_us // 3600e6
    mod 24), map-side combined on a 5x24 key space — never a wide
    exchange."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        t = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        hod = (t // 3_600_000_000) % 24
        tu, ti = np.unique(et, return_inverse=True)
        key = ti * 24 + hod
        ku, ki = np.unique(key, return_inverse=True)
        n = np.bincount(ki).astype(np.int64)
        return pa.table({
            "event_type": pa.array(tu[ku // 24], type=pa.string()),
            "hour": pa.array((ku % 24).astype(np.int64)),
            "n": pa.array(n),
        })

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return p.groupby(["event_type", "hour"]).aggregate(Sum("n", alias_name="n"))


def sql_hourly_profile() -> str:
    return """
SELECT event_type, (epoch_us(ts) // 3600000000) % 24 AS hour,
  CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2
"""


def q_monthly_orders(sf_dir: str):
    """Calendar seasonality: orders and revenue cents per civil
    (year, month) — the calendar-aware date extraction the epoch-day
    windows can't express.  numpy's datetime64[M] conversion is the
    same proleptic-Gregorian calendar DuckDB's year()/month() use."""
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"],
               blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        d = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        months = d.astype("datetime64[M]").astype(np.int64)  # since 1970-01
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        mu, mi = np.unique(months, return_inverse=True)
        n = np.bincount(mi).astype(np.int64)
        s = np.zeros(len(mu), dtype=np.int64)
        np.add.at(s, mi, cents)
        yy = 1970 + mu // 12
        mm = mu % 12 + 1
        return pa.table({
            "y": pa.array(yy), "m": pa.array(mm),
            "n_orders": pa.array(n), "revenue_c": pa.array(s),
        })

    p = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return p.groupby(["y", "m"]).aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("revenue_c", alias_name="revenue_c"),
    )


def sql_monthly_orders() -> str:
    return """
SELECT CAST(year(o_orderdate) AS BIGINT) AS y,
  CAST(month(o_orderdate) AS BIGINT) AS m,
  CAST(COUNT(*) AS BIGINT) AS n_orders,
  CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
    AS revenue_c
FROM orders GROUP BY 1, 2
"""


def q_retention_cohorts(sf_dir: str):
    """Cohort retention matrix (the product-analytics staple): users
    cohorted by the civil month of their FIRST event; for every
    (cohort, months-since) cell, the count of distinct users active in
    that month.  One h(user) bucket exchange assembles each user's
    distinct activity months (users are bucket-local, so cohort = the
    segment min and the matrix partials are exact); the final fold is
    a tiny int-keyed aggregate."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        mi = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64) // 604_800_000_000  # epoch weeks
        # per-batch (user, month) dedup before the exchange
        key = uid.astype(np.uint64) * np.uint64(4096) + mi.astype(np.uint64)
        ku = np.unique(key)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(ku >> np.uint64(12), nb)),
            "user_id": pa.array((ku >> np.uint64(12)).view(np.int64)),
            "mi": pa.array((ku & np.uint64(0xFFF)).view(np.int64)),
        })

    def matrix(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        mi = g["mi"].to_numpy(zero_copy_only=False)
        key = uid.astype(np.uint64) * np.uint64(4096) + mi.astype(np.uint64)
        ku = np.unique(key)  # cross-batch dedup of (user, month)
        uid = (ku >> np.uint64(12)).view(np.int64)
        mi = (ku & np.uint64(0xFFF)).view(np.int64)
        # segments are sorted by user then month: cohort = segment min
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        cohort = mi[starts][seg_id]
        off = mi - cohort
        ck = cohort * 4096 + off
        cu, ci = np.unique(ck, return_inverse=True)
        n = np.bincount(ci).astype(np.int64)
        return pa.table({
            "cohort_week": pa.array(cu // 4096),
            "weeks_since": pa.array(cu % 4096),
            "n_users": pa.array(n),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    agg = part.groupby("bucket").map_groups(matrix, batch_format="pyarrow")
    return agg.groupby(["cohort_week", "weeks_since"]).aggregate(
        Sum("n_users", alias_name="n_users")
    )


def sql_retention_cohorts() -> str:
    return """
WITH m AS MATERIALIZED (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS mi
  FROM events
),
c AS (SELECT user_id, MIN(mi) AS cohort FROM m GROUP BY 1)
SELECT c.cohort AS cohort_week,
  CAST(m.mi - c.cohort AS BIGINT) AS weeks_since,
  CAST(COUNT(*) AS BIGINT) AS n_users
FROM m JOIN c USING (user_id)
GROUP BY 1, 2
"""


def q_ewma_user(sf_dir: str):
    """Per-user exponentially-decayed activity state (the streaming
    feature-store fold): over each user's events ordered by (ts,
    event_id), r := (r * 7) // 8 + v_cents, seeded with the first
    value.  The integer floor makes the fold NON-associative — unlike
    running_totals' cumsum it cannot be prefix-scanned — so the
    resolve runs all users of a bucket in LOCKSTEP: one vectorized
    gather per event position (max events/user iterations), never a
    per-user Python loop (the fingerprint fold pattern, ops/text.py).
    One h(user) bucket exchange total."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"], blocks=4)
    nb = 8

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

    def fold(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "n_events": pa.array([], type=pa.int64()),
                             "ewma_c": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        v = g["v_c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, v = uid[order], v[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        seg_len = np.diff(np.append(starts, len(uid)))
        r = v[starts].copy()  # seed: first value per user
        jmax = int(seg_len.max()) if len(seg_len) else 0
        for j in range(1, jmax):
            alive = seg_len > j
            pos = starts[alive] + j
            r[alive] = (r[alive] * 7) // 8 + v[pos]
        return pa.table({
            "user_id": pa.array(uid[starts]),
            "n_events": pa.array(seg_len.astype(np.int64)),
            "ewma_c": pa.array(r),
        })

    part = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("bucket").map_groups(fold, batch_format="pyarrow")


def sql_ewma_user() -> str:
    return """
WITH e AS MATERIALIZED (
  SELECT user_id, ts, event_id, CAST(floor(value * 100) AS BIGINT) AS v
  FROM events
),
l AS MATERIALIZED (
  SELECT user_id, list(v ORDER BY ts, event_id) AS vs FROM e GROUP BY user_id
)
SELECT user_id, CAST(len(vs) AS BIGINT) AS n_events,
  CAST(CASE WHEN len(vs) = 1 THEN vs[1]
    ELSE list_reduce(vs, (a, b) -> (a * 7) // 8 + b) END AS BIGINT)
  AS ewma_c
FROM l
"""


def q_daily_p95(sf_dir: str):
    """Per-day exact p95 of event value (the SLO/latency monitoring
    shape): per-batch (day, cent) histogram partials -> one bucketed
    exchange -> per-day cumulative-rank pick k = ceil(0.95 n) as
    (19n + 19) // 20.  Output (day, n, p95_c)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events", columns=["ts", "value"], blocks=4)
    nb = 8

    def part(batch: pa.Table) -> pa.Table:
        t = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[D]")
        day = t.astype(np.int64)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        if len(c) and (np.abs(c) >= 500_000).any():
            raise AssertionError("daily_p95 cent packing overflow (|value| >= 5000)")
        key = day * 1_000_000 + (c + 500_000)  # cents within +-5e5, asserted
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(
                (uq // 1_000_000).astype(np.uint64), nb)),
            "key": pa.array(uq),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def pick(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"day": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "p95_c": pa.array([], type=pa.int64())})
        key = g["key"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        # merge duplicate (day, cent) partials, then rank within day
        uq, inv = np.unique(key, return_inverse=True)
        cnt = np.zeros(len(uq), dtype=np.int64)
        np.add.at(cnt, inv, n)
        day = uq // 1_000_000
        c = uq % 1_000_000 - 500_000
        starts = np.flatnonzero(np.r_[True, day[1:] != day[:-1]])
        lens = np.diff(np.append(starts, len(day)))
        out_d, out_n, out_p = [], [], []
        for s, L in zip(starts, lens):
            cc = cnt[s:s + L]
            tot = int(cc.sum())
            k = (19 * tot + 19) // 20
            pos = int(np.searchsorted(np.cumsum(cc), k))
            out_d.append(int(day[s]))
            out_n.append(tot)
            out_p.append(int(c[s + pos]))
        days = np.array(out_d, dtype="datetime64[D]")
        return pa.table({
            "day": pa.array(np.datetime_as_string(days, unit="D"),
                            type=pa.string()),
            "n": pa.array(np.array(out_n, dtype=np.int64)),
            "p95_c": pa.array(np.array(out_p, dtype=np.int64)),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(pick, batch_format="pyarrow")
    )


def sql_daily_p95() -> str:
    return """
WITH h AS MATERIALIZED (
  SELECT strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
    CAST(floor(value * 100) AS BIGINT) AS c, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
cum AS MATERIALIZED (
  SELECT day, c,
    SUM(n) OVER (PARTITION BY day ORDER BY c) AS cn,
    SUM(n) OVER (PARTITION BY day) AS tot
  FROM h
)
SELECT day, CAST(MAX(tot) AS BIGINT) AS n,
  MIN(CASE WHEN cn >= (19 * tot + 19) // 20 THEN c END) AS p95_c
FROM cum GROUP BY day
"""


def q_window_distinct(sf_dir: str):
    """Rolling 7-day EXACT distinct users per day (the DAU/WAU
    overlap metric, where sketches are the usual compromise): each
    distinct (user, day) pair replicates into the 7 windows it ends
    in; windows hash to buckets so one exchange carries only distinct
    pairs and each window's dedup is local to its bucket.  Output
    (day, n_users)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events", columns=["ts", "user_id"], blocks=4)
    nb = 8

    def part(batch: pa.Table) -> pa.Table:
        t = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[D]").astype(np.int64)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        if not uid.max(initial=0) < (1 << 32):
            raise AssertionError("user id packing overflow")
        pair = np.unique(t * (1 << 32) + uid)
        d = pair >> 32
        u = pair & ((1 << 32) - 1)
        w = (d[:, None] + np.arange(WDIST_W)[None, :]).ravel()
        uu = np.repeat(u, WDIST_W)
        key = np.unique(w * (1 << 32) + uu)
        wk = (key >> 32).astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(wk.astype(np.uint64), nb)),
            "key": pa.array(key.astype(np.uint64)),
            "w": pa.array(wk),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"day": pa.array([], type=pa.int64()),
                             "n_users": pa.array([], type=pa.int64())})
        key = np.unique(g["key"].to_numpy(zero_copy_only=False)
                        .astype(np.uint64))
        wk = (key >> np.uint64(32)).astype(np.int64)
        uq, cnt = np.unique(wk, return_counts=True)
        return pa.table({"day": pa.array(uq),
                         "n_users": pa.array(cnt.astype(np.int64))})

    return (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_window_distinct() -> str:
    return f"""
WITH wdp AS MATERIALIZED (
  SELECT DISTINCT CAST(CAST(ts AS DATE) - DATE '1970-01-01' AS BIGINT) AS d,
    user_id
  FROM events
), wdw AS MATERIALIZED (
  SELECT user_id,
    unnest([d + i for i in generate_series(0, {WDIST_W - 1})]) AS w
  FROM wdp
)
SELECT CAST(w AS BIGINT) AS day, CAST(COUNT(DISTINCT user_id) AS BIGINT)
  AS n_users
FROM wdw GROUP BY w
"""


# ---------------------------------------------------------------------------
# Round 4c: user lifetime survival curve (retention analytics)
# ---------------------------------------------------------------------------

def q_survival_curve(sf_dir: str):
    """Retention survival: per user the observed lifetime in whole
    days (last event day - first event day), then the survival curve
    S(d) = #users with lifetime >= d for every observed lifetime d —
    all integers.  Per-batch (user -> min/max day) partials fold
    through ONE h(user) exchange; the tiny per-lifetime histogram
    resolves driver-side via cumulative counts (bounded by #distinct
    lifetimes).  Output (d, n_surviving, n_total)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(8)
    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        day = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        )
        uu, inv = np.unique(uid, return_inverse=True)
        lo = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(lo, inv, day)
        hi = np.full(len(uu), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(hi, inv, day)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uu, n_buckets)),
            "user_id": pa.array(uu.astype(np.int64)),
            "lo": pa.array(lo), "hi": pa.array(hi),
        })

    def resolve(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        lo = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(lo, inv, g["lo"].to_numpy(zero_copy_only=False))
        hi = np.full(len(uu), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(hi, inv, g["hi"].to_numpy(zero_copy_only=False))
        life = hi - lo
        lu, lc = np.unique(life, return_counts=True)
        return pa.table({"d": pa.array(lu),
                         "c": pa.array(lc.astype(np.int64))})

    hist: dict[int, int] = {}
    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    for bt in (
        part.groupby("bucket").map_groups(resolve, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        if bt.num_rows == 0 or "d" not in bt.column_names:
            continue
        for v, c in zip(bt["d"].to_numpy(zero_copy_only=False),
                        bt["c"].to_numpy(zero_copy_only=False)):
            hist[int(v)] = hist.get(int(v), 0) + int(c)
    ds_ = np.array(sorted(hist), dtype=np.int64)
    cs = np.array([hist[int(v)] for v in ds_], dtype=np.int64)
    n = int(cs.sum())
    # survivors at d = users with lifetime >= d (suffix sums)
    surv = (n - np.r_[0, np.cumsum(cs)[:-1]]).astype(np.int64)
    return pa.table({
        "d": pa.array(ds_),
        "n_surviving": pa.array(surv),
        "n_total": pa.array(np.full(len(ds_), n, dtype=np.int64)),
    })


def sql_survival_curve() -> str:
    return """
WITH svl AS MATERIALIZED (
  SELECT user_id,
    CAST(CAST(MAX(ts) AS DATE) - CAST(MIN(ts) AS DATE) AS BIGINT) AS life
  FROM events GROUP BY user_id
),
svh AS MATERIALIZED (
  SELECT life AS d, CAST(COUNT(*) AS BIGINT) AS c FROM svl GROUP BY life
)
SELECT d,
  CAST(SUM(c) OVER (ORDER BY d DESC) AS BIGINT) AS n_surviving,
  CAST(SUM(c) OVER () AS BIGINT) AS n_total
FROM svh ORDER BY d
"""


def q_acf_lag(sf_dir: str):
    """Activity-rhythm autocorrelation: per-user hourly event counts
    c[h] (missing hours are implicit zeros), raw autocorrelation at
    lags 1..3 as exact integers — num = sum c[h]*c[h+L] (zero terms
    vanish, so only matching hour pairs contribute), den = sum c[h]^2,
    acf_e9 = num*1e9 // den.  Per-batch (user,hour) partial counts
    fold through ONE u64-keyed exchange; lags resolve per user bucket
    with sorted-key searchsorted matching.  Output (user_id, lag,
    num, den, acf_e9)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        hour = (ts // 3_600_000_000).astype(np.uint64)
        if len(uid) and int(uid.max()) >= (1 << 31):
            raise AssertionError("acf_lag packing needs user_id < 2^31")
        key = uid.astype(np.uint64) * np.uint64(1 << 32) + hour
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
               >> np.uint64(32))
        return batch.append_column(
            "bucket2", pa.array(hash_bucket_u64(uid, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                          "lag": pa.array([], type=pa.int64()),
                          "num": pa.array([], type=pa.int64()),
                          "den": pa.array([], type=pa.int64()),
                          "acf_e9": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "key" not in g.column_names:
            return empty
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(key)
        key, c = key[order], c[order]
        uid = (key >> np.uint64(32)).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        den = np.zeros(len(uu), dtype=np.int64)
        np.add.at(den, inv, c * c)
        out_u, out_l, out_n, out_d = [], [], [], []
        for L in ACF_LAGS:
            tgt = key + np.uint64(L)
            pos = np.searchsorted(key, tgt)
            pos_c = np.minimum(pos, len(key) - 1)
            hit = (key[pos_c] == tgt) & (pos < len(key))
            num = np.zeros(len(uu), dtype=np.int64)
            np.add.at(num, inv[hit], c[hit] * c[pos_c[hit]])
            out_u.append(uu)
            out_l.append(np.full(len(uu), L, dtype=np.int64))
            out_n.append(num)
            out_d.append(den)
        return pa.table({
            "user_id": pa.array(np.concatenate(out_u)),
            "lag": pa.array(np.concatenate(out_l)),
            "num": pa.array(np.concatenate(out_n)),
            "den": pa.array(np.concatenate(out_d)),
            "acf_e9": pa.array(np.concatenate(out_n) * 1_000_000_000
                               // np.concatenate(out_d)),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_acf_lag() -> str:
    lags = ", ".join(str(x) for x in ACF_LAGS)
    return f"""
WITH afc AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) // 3600000000 AS hour,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
),
afd AS MATERIALIZED (
  SELECT user_id, CAST(SUM(c * c) AS BIGINT) AS den FROM afc GROUP BY 1
),
afl AS (SELECT unnest([{lags}]) AS lag),
afn AS MATERIALIZED (
  SELECT a.user_id, l.lag, CAST(COALESCE(SUM(a.c * b.c), 0) AS BIGINT) AS num
  FROM afc a CROSS JOIN afl l
  LEFT JOIN afc b ON b.user_id = a.user_id AND b.hour = a.hour + l.lag
  GROUP BY 1, 2
)
SELECT n.user_id, CAST(n.lag AS BIGINT) AS lag, n.num, d.den,
  CAST(n.num * 1000000000 // d.den AS BIGINT) AS acf_e9
FROM afn n JOIN afd d ON d.user_id = n.user_id
"""


# ---------------------------------------------------------------------------
# Round 4d: CUSUM changepoint over per-user daily activity (exact integers)
# ---------------------------------------------------------------------------


def q_cusum_changepoint(sf_dir: str):
    """Changepoint detection: per user, daily event counts over the
    user's own [first_day, last_day] span (missing days = 0); the
    CUSUM statistic at split k (1 <= k < n_days) is |n*P_k - k*T|
    where P_k is the k-day prefix sum and T the total — the mean-shift
    score scaled by n so everything stays integer.  The reported
    changepoint is the argmax split (ties -> earliest day).  Users
    with a single active day have no valid split and are excluded —
    mirrored in SQL.  ONE h(user) bucket exchange on per-batch
    (user, day) partials.  Output (user_id, n_days, total,
    change_day, score)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        if len(uid) and int(uid.max()) >= (1 << 31):
            raise AssertionError("cusum packing needs user_id < 2^31")
        key = uid.astype(np.uint64) * np.uint64(1 << 32) + day
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
               >> np.uint64(32))
        return batch.append_column(
            "bucket2", pa.array(hash_bucket_u64(uid, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                          "n_days": pa.array([], type=pa.int64()),
                          "total": pa.array([], type=pa.int64()),
                          "change_day": pa.array([], type=pa.int64()),
                          "score": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "key" not in g.column_names:
            return empty
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["c"].to_numpy(zero_copy_only=False)
        uid = (key >> np.uint64(32)).astype(np.int64)
        day = (key & np.uint64((1 << 32) - 1)).astype(np.int64)
        out = {k: [] for k in ("user_id", "n_days", "total",
                               "change_day", "score")}
        for u in np.unique(uid):
            m = uid == u
            d, cc = day[m], c[m]
            d0, d1 = int(d.min()), int(d.max())
            n = d1 - d0 + 1
            if n < 2:
                continue
            dense = np.zeros(n, dtype=np.int64)
            dense[d - d0] = cc
            pref = np.cumsum(dense)[:-1]          # P_1 .. P_{n-1}
            k = np.arange(1, n, dtype=np.int64)
            score = np.abs(n * pref - k * int(pref[-1] + dense[-1]))
            best = int(np.argmax(score))          # first max = earliest day
            out["user_id"].append(u)
            out["n_days"].append(n)
            out["total"].append(int(dense.sum()))
            out["change_day"].append(d0 + best + 1)
            out["score"].append(int(score[best]))
        return pa.table({k: pa.array(np.array(v, dtype=np.int64))
                         for k, v in out.items()})

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_cusum_changepoint() -> str:
    return """
WITH cuc AS MATERIALIZED (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
),
cur AS MATERIALIZED (
  SELECT user_id, MIN(day) AS d0, MAX(day) AS d1,
    CAST(SUM(c) AS BIGINT) AS total
  FROM cuc GROUP BY 1 HAVING MAX(day) > MIN(day)
),
cud AS MATERIALIZED (
  SELECT r.user_id, r.d0, r.d1, r.total,
    unnest(generate_series(r.d0, r.d1)) AS day
  FROM cur r
),
cup AS MATERIALIZED (
  SELECT d.user_id, d.day, d.d0, d.d1, d.total,
    SUM(COALESCE(c.c, 0)) OVER (
      PARTITION BY d.user_id ORDER BY d.day
      ROWS UNBOUNDED PRECEDING) AS pref
  FROM cud d LEFT JOIN cuc c ON c.user_id = d.user_id AND c.day = d.day
),
cus AS (
  SELECT user_id, d1 - d0 + 1 AS n_days, total, day + 1 AS change_day,
    abs((d1 - d0 + 1) * pref - (day - d0 + 1) * total) AS score
  FROM cup WHERE day < d1
)
SELECT user_id, CAST(n_days AS BIGINT) AS n_days, total,
  CAST(change_day AS BIGINT) AS change_day, CAST(score AS BIGINT) AS score
FROM cus
QUALIFY row_number() OVER (
  PARTITION BY user_id ORDER BY score DESC, change_day ASC) = 1
"""


# ---------------------------------------------------------------------------
# Round 4d: per-tile burst day + coverage gaps
# ---------------------------------------------------------------------------


def q_tile_burst(sf_dir: str):
    """Spatio-temporal burst detection: for each res-2 tile, the day
    whose count most exceeds the tile's own daily mean — score =
    D * c_day - total over the tile's [first_day, last_day] span D
    (exact integers; argmax over ACTIVE days, ties -> earliest), plus
    the number of silent days inside the span (coverage gaps).  One
    packed (tile, day) u64 exchange, per-tile integer resolve.
    Output (tile_id, n_events, n_days_active, n_zero_days, burst_day,
    burst_score)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        if len(day) and int(day.max()) >= (1 << 15):
            raise AssertionError("tile_burst day packing bound (< 2^15)")
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
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"tile_id": pa.array([], type=pa.string()),
                             "n_events": pa.array([], type=pa.int64()),
                             "n_days_active": pa.array([], type=pa.int64()),
                             "n_zero_days": pa.array([], type=pa.int64()),
                             "burst_day": pa.array([], type=pa.int64()),
                             "burst_score": pa.array([], type=pa.int64())})
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(key)  # per tile: days ascending (packed)
        key, c = key[order], c[order]
        tile = key >> np.uint64(15)
        day = (key & np.uint64((1 << 15) - 1)).astype(np.int64)
        tu, start = np.unique(tile, return_index=True)
        cnt = np.diff(np.append(start, len(tile)))
        rows = {k: [] for k in ("tile", "n", "na", "nz", "bd", "bs")}
        for t, s, m in zip(tu.tolist(), start.tolist(), cnt.tolist()):
            d, cc = day[s:s + m], c[s:s + m]
            D = int(d[-1] - d[0] + 1)
            tot = int(cc.sum())
            score = D * cc - tot
            best = int(np.argmax(score))  # ties -> earliest (sorted days)
            rows["tile"].append(t)
            rows["n"].append(tot)
            rows["na"].append(m)
            rows["nz"].append(D - m)
            rows["bd"].append(int(d[best]))
            rows["bs"].append(int(score[best]))
        t_u64 = (np.array(rows["tile"], dtype=np.uint64) << np.uint64(52)) \
            | np.uint64(TILE_RES)
        return pa.table({
            "tile_id": su.to_string_fixed(t_u64, TILE_RES),
            "n_events": pa.array(np.array(rows["n"], dtype=np.int64)),
            "n_days_active": pa.array(np.array(rows["na"], dtype=np.int64)),
            "n_zero_days": pa.array(np.array(rows["nz"], dtype=np.int64)),
            "burst_day": pa.array(np.array(rows["bd"], dtype=np.int64)),
            "burst_score": pa.array(np.array(rows["bs"], dtype=np.int64)),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_tile_burst() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH tbi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
tbc AS MATERIALIZED (
  SELECT i.cell_id AS tile_id, epoch_us(e.ts) // 86400000000 AS day,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM events e JOIN tbi i ON i.event_id = e.event_id
  GROUP BY 1, 2
),
tbt AS MATERIALIZED (
  SELECT tile_id, CAST(SUM(c) AS BIGINT) AS n_events,
    CAST(COUNT(*) AS BIGINT) AS n_days_active,
    MAX(day) - MIN(day) + 1 - COUNT(*) AS n_zero_days,
    MAX(day) - MIN(day) + 1 AS span
  FROM tbc GROUP BY 1
)
SELECT c.tile_id, t.n_events, t.n_days_active,
  CAST(t.n_zero_days AS BIGINT) AS n_zero_days,
  CAST(c.day AS BIGINT) AS burst_day,
  CAST(t.span * c.c - t.n_events AS BIGINT) AS burst_score
FROM tbc c JOIN tbt t ON t.tile_id = c.tile_id
QUALIFY row_number() OVER (
  PARTITION BY c.tile_id
  ORDER BY t.span * c.c - t.n_events DESC, c.day ASC) = 1
"""


# ---------------------------------------------------------------------------
# Round 4d: per-tile seasonal-naive forecast backtest
# ---------------------------------------------------------------------------


def q_tile_forecast(sf_dir: str):
    """Forecast backtesting: for each res-2 tile, predict every active
    day's count as the TRUNCATED mean of the tile's PRIOR same-weekday
    counts (seasonal-naive baseline; zero-filled days inside the
    tile's own span) and score the total absolute error — the
    walk-forward eval a forecasting deployment runs.  All integers:
    pred_d = sum_prior // n_prior; days with no prior same-weekday
    observation are skipped.  One packed (tile, day) exchange, dense
    per-tile replay (span <= fixture month).  Output (tile_id,
    n_scored, total_abs_err, mae_milli)."""
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
                          "n_scored": pa.array([], type=pa.int64()),
                          "total_abs_err": pa.array([], type=pa.int64()),
                          "mae_milli": pa.array([], type=pa.int64())})
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
        rows = {k: [] for k in ("tile", "ns", "err")}
        for t, s, m in zip(tu.tolist(), start.tolist(), cnt.tolist()):
            d, cc = day[s:s + m], c[s:s + m]
            d0, d1 = int(d[0]), int(d[-1])
            dense = np.zeros(d1 - d0 + 1, dtype=np.int64)
            dense[d - d0] = cc
            n_sc = 0
            err = 0
            # prior same-weekday running sums (span <= ~31 days here;
            # at scale the span bound is the retention window)
            for wd in range(7):
                seq = dense[wd::7] if wd < len(dense) else None
                if seq is None or len(seq) < 2:
                    continue
                csum = np.cumsum(seq)
                n_prior = np.arange(1, len(seq), dtype=np.int64)
                pred = csum[:-1] // n_prior
                err += int(np.abs(seq[1:] - pred).sum())
                n_sc += len(seq) - 1
            if n_sc == 0:
                continue
            rows["tile"].append(t)
            rows["ns"].append(n_sc)
            rows["err"].append(err)
        if not rows["tile"]:
            return empty
        t_u64 = (np.array(rows["tile"], dtype=np.uint64) << np.uint64(52)) \
            | np.uint64(TILE_RES)
        ns = np.array(rows["ns"], dtype=np.int64)
        err = np.array(rows["err"], dtype=np.int64)
        return pa.table({
            "tile_id": su.to_string_fixed(t_u64, TILE_RES),
            "n_scored": pa.array(ns),
            "total_abs_err": pa.array(err),
            "mae_milli": pa.array(err * 1000 // ns),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_tile_forecast() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH tfi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
tfc AS MATERIALIZED (
  SELECT i.cell_id AS tile_id, epoch_us(e.ts) // 86400000000 AS day,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM events e JOIN tfi i ON i.event_id = e.event_id
  GROUP BY 1, 2
),
tfr AS MATERIALIZED (
  SELECT tile_id, MIN(day) AS d0, MAX(day) AS d1 FROM tfc GROUP BY 1
),
tfd AS MATERIALIZED (
  SELECT r.tile_id, unnest(generate_series(r.d0, r.d1)) AS day, r.d0
  FROM tfr r
),
tfz AS MATERIALIZED (
  SELECT d.tile_id, d.day, (d.day - d.d0) % 7 AS wd,
    COALESCE(c.c, 0) AS c
  FROM tfd d LEFT JOIN tfc c ON c.tile_id = d.tile_id AND c.day = d.day
),
tfp AS MATERIALIZED (
  SELECT tile_id, day, c,
    SUM(c) OVER w AS prior_sum, COUNT(*) OVER w AS n_prior
  FROM tfz
  WINDOW w AS (PARTITION BY tile_id, wd ORDER BY day
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
),
tfe AS MATERIALIZED (
  SELECT tile_id, abs(c - prior_sum // n_prior) AS ae
  FROM tfp WHERE n_prior >= 1
)
SELECT tile_id, CAST(COUNT(*) AS BIGINT) AS n_scored,
  CAST(SUM(ae) AS BIGINT) AS total_abs_err,
  CAST(SUM(ae) * 1000 // COUNT(*) AS BIGINT) AS mae_milli
FROM tfe GROUP BY tile_id
"""


def q_holt_lite(sf_dir: str):
    """Trend-aware forecasting: Holt's double exponential smoothing
    over the zero-filled global daily series in 2^20 fixed point with
    TRUNCATED division each step — level' = prev + (obs - prev)//4,
    trend' = trend + (level' - level - trend)//4 — so the recursion is
    pure integers and replays exactly; the one-step-ahead absolute
    errors accumulate into an exact backtest score.  The day table is
    one bounded fold; the 30-step recursion is a driver finish (SQL:
    lateral column aliases in dependency order, the frechet
    precedent).  Output one row (n_days, level_q20, trend_q20,
    forecast_q20, total_abs_err_q20)."""
    _, counts = _daily_counts_driver(sf_dir)
    v = [c << HOLT_SHIFT for c in counts.tolist()]
    n = len(v)

    def tdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    level = v[0]
    trend = v[1] - v[0] if n > 1 else 0
    err = 0
    for t in range(1, n):
        fcast = level + trend
        err += abs(v[t] - fcast)
        new_level = fcast + tdiv(v[t] - fcast, HOLT_ALPHA)
        trend = trend + tdiv(new_level - level - trend, HOLT_BETA)
        level = new_level
    return pa.table({
        "n_days": pa.array([n], type=pa.int64()),
        "level_q20": pa.array([level], type=pa.int64()),
        "trend_q20": pa.array([trend], type=pa.int64()),
        "forecast_q20": pa.array([level + trend], type=pa.int64()),
        "total_abs_err_q20": pa.array([err], type=pa.int64()),
    })


def sql_holt_lite() -> str:
    # 40 chained MATERIALIZED one-row CTEs: deep alias chains with
    # multiple back-references re-expand exponentially when inlined
    # (unlike frechet's shallow DP), so each step must materialize.
    n_max = 40
    vs = ", ".join(f"v{i}" for i in range(n_max))
    steps = []
    for t in range(1, n_max):
        obs = f"(CASE WHEN {t} < nd THEN v{t} ELSE l + tr END)"
        steps.append(f"""
hs{t} AS MATERIALIZED (
  SELECT nd, {vs},
    (l + tr) + ({obs} - (l + tr)) // {HOLT_ALPHA} AS l_new,
    e + (CASE WHEN {t} < nd THEN abs(v{t} - (l + tr)) ELSE 0 END) AS e_new,
    l AS l_prev, tr AS tr_prev
  FROM hq{t - 1}
),
hq{t} AS MATERIALIZED (
  SELECT nd, {vs},
    l_new AS l,
    tr_prev + (l_new - l_prev - tr_prev) // {HOLT_BETA} AS tr,
    e_new AS e
  FROM hs{t}
)""")
    picks = " UNION ALL ".join(
        f"SELECT l, tr, e FROM hq{t} WHERE nd = {t + 1}"
        for t in range(n_max))
    pivot = ", ".join(
        f"CAST(COALESCE(MAX(CASE WHEN i = {t} THEN c END), 0)"
        f" * {1 << HOLT_SHIFT} AS BIGINT) AS v{t}"
        for t in range(n_max))
    return f"""
WITH hdc AS MATERIALIZED (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
hdr AS MATERIALIZED (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM hdc),
hdp AS MATERIALIZED (
  SELECT CAST((SELECT d1 - d0 + 1 FROM hdr) AS BIGINT) AS nd, {pivot}
  FROM (SELECT day - (SELECT d0 FROM hdr) AS i, c FROM hdc)
),
hq0 AS MATERIALIZED (
  SELECT nd, {vs},
    v0 AS l, (CASE WHEN nd > 1 THEN v1 - v0 ELSE 0 END) AS tr,
    CAST(0 AS BIGINT) AS e
  FROM hdp
),{",".join(steps)}
SELECT (SELECT nd FROM hdp) AS n_days, CAST(l AS BIGINT) AS level_q20,
  CAST(tr AS BIGINT) AS trend_q20, CAST(l + tr AS BIGINT) AS forecast_q20,
  CAST(e AS BIGINT) AS total_abs_err_q20
FROM ({picks}) f
"""


def q_theil_sen(sf_dir: str):
    """Theil-Sen robust trend: the exact integer median of the
    n(n-1)/2 pairwise slopes floor(dv * 1e6 / ddays) over the
    zero-filled daily series (lower median for even counts — the
    deterministic order statistic).  Driver finish on the bounded
    span.  Output one row (n_pairs, slope_micro)."""
    _, v = _daily_counts_driver(sf_dir)
    n = len(v)
    i, j = np.triu_indices(n, k=1)
    dd = (j - i).astype(np.int64)
    # numpy int floor-div == SQL floor(double division): the true
    # rational has denominator <= span, so its distance from any
    # integer is >= 1/span >> the double rounding error
    slopes = (v[j] - v[i]) * THEIL_Q // dd
    slopes = np.sort(slopes)
    med = int(slopes[(len(slopes) - 1) // 2])
    return pa.table({
        "n_pairs": pa.array([len(slopes)], type=pa.int64()),
        "slope_micro": pa.array([med], type=pa.int64()),
    })


def sql_theil_sen() -> str:
    return f"""
WITH tsc2 AS MATERIALIZED (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
tsr2 AS MATERIALIZED (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM tsc2),
tsz2 AS MATERIALIZED (
  SELECT d.day, COALESCE(c.c, 0) AS v
  FROM (SELECT unnest(generate_series(r.d0, r.d1)) AS day FROM tsr2 r) d
  LEFT JOIN tsc2 c ON c.day = d.day
),
tsp2 AS MATERIALIZED (
  SELECT CAST(floor(CAST((b.v - a.v) * {THEIL_Q} AS DOUBLE)
    / (b.day - a.day)) AS BIGINT) AS slope
  FROM tsz2 a JOIN tsz2 b ON b.day > a.day
),
tso2 AS MATERIALIZED (
  SELECT slope, row_number() OVER (ORDER BY slope) AS rn,
    COUNT(*) OVER () AS m
  FROM tsp2
)
SELECT CAST(m AS BIGINT) AS n_pairs, CAST(slope AS BIGINT) AS slope_micro
FROM tso2 WHERE rn = (m - 1) // 2 + 1
"""


def q_binseg_changepoint(sf_dir: str):
    """Single-split binary-segmentation changepoint per event_type on
    the daily revenue series (the offline sibling of q_cusum): for
    every split k the between-segment score (s1*n2 - s2*n1)^2 //
    (n1*n2) — the scaled between-group sum of squares — is an EXACT
    integer (Python bignum == SQL HUGEINT), so argmax(score desc, k
    asc) needs no floats at all.  Daily sums ride one bucketed fold;
    each type's series (bounded by the day count) resolves
    vectorized.  Output (event_type, split_day, score_q, n_days)."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"],
               blocks=4)
    nb = 4

    def part(batch: pa.Table) -> pa.Table:
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        key = np.array([f"{a}\x00{d}" for a, d in zip(et, day)],
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
                "split_day": pa.array([], type=pa.int64()),
                "score_q": pa.array([], type=pa.int64()),
                "n_days": pa.array([], type=pa.int64())})
        et = np.asarray(g["event_type"].to_pylist(), dtype=object)
        day = g["day"].to_numpy(zero_copy_only=False)
        sv = g["s"].to_numpy(zero_copy_only=False)
        out_t, out_d, out_q, out_n = [], [], [], []
        for tp in sorted(set(et.tolist())):
            m = et == tp
            dd = day[m]
            ss = sv[m]
            o = np.argsort(dd)
            dd, ss = dd[o], ss[o]
            # merge duplicate (type, day) partials
            uq_d, inv = np.unique(dd, return_inverse=True)
            tot = np.zeros(len(uq_d), dtype=np.int64)
            np.add.at(tot, inv, ss)
            D = len(uq_d)
            if D < 2:
                continue
            S = int(tot.sum())
            best = (-1, -1)
            s1 = 0
            for k in range(1, D):
                s1 += int(tot[k - 1])
                n1, n2 = k, D - k
                d = s1 * n2 - (S - s1) * n1
                q = (d * d) // (n1 * n2)
                if q > best[0]:
                    best = (q, k)
            out_t.append(tp)
            # split day = last day of the FIRST segment (row k, 1-based)
            out_d.append(int(uq_d[best[1] - 1]))
            out_q.append(best[0])
            out_n.append(D)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "split_day": pa.array(out_d, type=pa.int64()),
            "score_q": pa.array(out_q, type=pa.int64()),
            "n_days": pa.array(out_n, type=pa.int64()),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_binseg_changepoint() -> str:
    return """
WITH bsd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1, 2
),
bsp AS MATERIALIZED (
  SELECT event_type, day, s,
    CAST(SUM(s) OVER w AS HUGEINT) AS s1,
    CAST(row_number() OVER w AS HUGEINT) AS k,
    CAST(SUM(s) OVER (PARTITION BY event_type) AS HUGEINT) AS stot,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS HUGEINT) AS d
  FROM bsd
  WINDOW w AS (PARTITION BY event_type ORDER BY day
               ROWS UNBOUNDED PRECEDING)
),
bss AS MATERIALIZED (
  SELECT event_type, day, k, d,
    (s1 * (d - k) - (stot - s1) * k) * (s1 * (d - k) - (stot - s1) * k)
      // (k * (d - k)) AS q
  FROM bsp WHERE k < d
),
bsb AS MATERIALIZED (
  SELECT event_type, day, q, d,
    row_number() OVER (PARTITION BY event_type
                       ORDER BY q DESC, k ASC) AS rn
  FROM bss
)
SELECT event_type, CAST(day AS BIGINT) AS split_day,
  CAST(q AS BIGINT) AS score_q, CAST(d AS BIGINT) AS n_days
FROM bsb WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Round 4e: Hurst R/S exponent + seeded permutation test
# ---------------------------------------------------------------------------


def q_hurst_exponent(sf_dir: str):
    """Rescaled-range (R/S) Hurst exponent per event_type on the
    daily-revenue series — the long-memory diagnostic (H > 0.5 =
    trending, < 0.5 = mean-reverting): with daily dollars x_1..x_D,
    partial-sum deviations c_j = sum_{i<=j}(x_i*D - S) are EXACT
    integers (denominator D deferred), R_num = max c - min c,
    ssq = sum (x_i*D - S)^2, and R/S = R_num / sqrt(ssq / D);
    hurst_e6 = floor(ln(R/S) / ln(D) * 1e6) — one scalar float tree
    per type over < 2^63 integers (int64 -> double is exact-rounded,
    probed).  Daily sums ride one driver fold (|types| x days keys).
    Output (event_type, d_days, r_num, ssq, hurst_e6)."""
    import math

    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents // 100))
    out = {"event_type": [], "d_days": [], "r_num": [], "ssq": [],
           "hurst_e6": []}
    for tp in sorted(series):
        pts = sorted(series[tp])
        x = [v for _d, v in pts]
        D = len(x)
        if D < 2:
            continue
        S = sum(x)
        dev = [v * D - S for v in x]
        cum, c = [], 0
        for d in dev:
            c += d
            cum.append(c)
        r_num = max(cum) - min(cum)
        ssq = sum(d * d for d in dev)
        if r_num <= 0 or ssq <= 0:
            continue
        rs = float(r_num) / math.sqrt(float(ssq) / float(D))
        h = math.log(rs) / math.log(float(D))
        out["event_type"].append(tp)
        out["d_days"].append(D)
        out["r_num"].append(r_num)
        out["ssq"].append(ssq)
        out["hurst_e6"].append(math.floor(h * 1000000.0))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "d_days": pa.array(out["d_days"], type=pa.int64()),
        "r_num": pa.array(out["r_num"], type=pa.int64()),
        "ssq": pa.array(out["ssq"], type=pa.int64()),
        "hurst_e6": pa.array(out["hurst_e6"], type=pa.int64()),
    })


def sql_hurst_exponent() -> str:
    return """
WITH hxd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
hxa AS MATERIALIZED (
  SELECT event_type, day, x,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT) AS d,
    CAST(SUM(x) OVER (PARTITION BY event_type) AS BIGINT) AS s
  FROM hxd
),
hxc AS MATERIALIZED (
  SELECT event_type, d,
    SUM(x * d - s) OVER (PARTITION BY event_type ORDER BY day
      ROWS UNBOUNDED PRECEDING) AS cum,
    (x * d - s) * (x * d - s) AS dev2
  FROM hxa
),
hxg AS MATERIALIZED (
  SELECT event_type, CAST(MAX(d) AS BIGINT) AS d_days,
    CAST(MAX(cum) - MIN(cum) AS BIGINT) AS r_num,
    CAST(SUM(dev2) AS BIGINT) AS ssq
  FROM hxc GROUP BY event_type
  HAVING MAX(d) >= 2 AND MAX(cum) - MIN(cum) > 0 AND SUM(dev2) > 0
)
SELECT event_type, d_days, r_num, ssq,
  CAST(floor(ln(CAST(r_num AS DOUBLE)
      / sqrt(CAST(ssq AS DOUBLE) / CAST(d_days AS DOUBLE)))
    / ln(CAST(d_days AS DOUBLE)) * 1000000.0) AS BIGINT) AS hurst_e6
FROM hxg
"""


# ---------------------------------------------------------------------------
# Round 4e: day-of-week seasonality strength + uplift by value bucket
# + KMV join-cardinality estimate
# ---------------------------------------------------------------------------


def q_dow_seasonality(sf_dir: str):
    """Day-of-week seasonality strength per event_type — the share of
    daily-revenue variance the weekly cycle explains: with daily
    dollars x_d grouped by dow, the pinned integer statistic is
    msq_g = S_g^2 * 10^6 // n_g, SSB_q = max(0, sum msq_g
    - S^2 * 10^6 // D), SST_q = max(0, sum x^2 * 10^6
    - S^2 * 10^6 // D), strength_e6 = SSB_q * 10^6 // SST_q —
    every step exact bignum == HUGEINT.  Daily sums fold on the
    driver (|types| x days keys).
    Output (event_type, d_days, ssb_q, sst_q, strength_e6)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents // 100))
    out = {c: [] for c in
           ("event_type", "d_days", "ssb_q", "sst_q", "strength_e6")}
    for tp in sorted(series):
        pts = series[tp]
        D = len(pts)
        if D < 2:
            continue
        S = sum(x for _d, x in pts)
        sxx = sum(x * x for _d, x in pts)
        g: dict = {}
        for d, x in pts:
            dow = (d + 4) % 7
            n_g, s_g = g.get(dow, (0, 0))
            g[dow] = (n_g + 1, s_g + x)
        msq = sum((s_g * s_g * 10 ** 6) // n_g for n_g, s_g in g.values())
        corr = (S * S * 10 ** 6) // D
        ssb = max(0, msq - corr)
        sst = max(0, sxx * 10 ** 6 - corr)
        out["event_type"].append(tp)
        out["d_days"].append(D)
        out["ssb_q"].append(ssb)
        out["sst_q"].append(sst)
        out["strength_e6"].append(ssb * 10 ** 6 // sst if sst else 0)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "d_days": pa.array(out["d_days"], type=pa.int64()),
        "ssb_q": pa.array(out["ssb_q"], type=pa.int64()),
        "sst_q": pa.array(out["sst_q"], type=pa.int64()),
        "strength_e6": pa.array(out["strength_e6"], type=pa.int64()),
    })


def sql_dow_seasonality() -> str:
    return """
WITH dsd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
dsg AS MATERIALIZED (
  SELECT event_type, (day + 4) % 7 AS dow,
    CAST(COUNT(*) AS HUGEINT) AS n_g, CAST(SUM(x) AS HUGEINT) AS s_g
  FROM dsd GROUP BY 1, 2
),
dst AS MATERIALIZED (
  SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS d,
    CAST(SUM(x) AS HUGEINT) AS s, CAST(SUM(x * x) AS HUGEINT) AS sxx
  FROM dsd GROUP BY 1 HAVING COUNT(*) >= 2
),
dsb AS MATERIALIZED (
  SELECT event_type,
    CAST(SUM(s_g * s_g * 1000000 // n_g) AS HUGEINT) AS msq
  FROM dsg GROUP BY 1
)
SELECT t.event_type, CAST(t.d AS BIGINT) AS d_days,
  CAST(greatest(0, b.msq - t.s * t.s * 1000000 // t.d) AS BIGINT) AS ssb_q,
  CAST(greatest(0, t.sxx * 1000000 - t.s * t.s * 1000000 // t.d)
    AS BIGINT) AS sst_q,
  CAST(CASE WHEN t.sxx * 1000000 - t.s * t.s * 1000000 // t.d > 0
    THEN greatest(0, b.msq - t.s * t.s * 1000000 // t.d) * 1000000
      // (t.sxx * 1000000 - t.s * t.s * 1000000 // t.d)
    ELSE 0 END AS BIGINT) AS strength_e6
FROM dst t JOIN dsb b ON b.event_type = t.event_type
"""


def q_cross_correlation(sf_dir: str):
    """Lagged cross-correlation between the click and purchase daily
    revenue series — does activity lead spend?  For each lag L the
    overlapping pairs (a_d, b_{d+L}) contribute exact integer
    sufficient statistics (n, Sa, Sb, Saa, Sbb, Sab in dollars), and
    r_e6 replays as num^2-with-sign over the exact variances:
    sign * (num*num*1e6 // (va*vb)) pattern from q_corr_matrix —
    bignum == HUGEINT throughout, no floats.  Daily sums fold on the
    driver (2 x days keys).  Output (lag, n, sign_num, r2_e6)."""
    dc = _daily_cents(sf_dir)
    a, bb = {}, {}
    for k, cents in dc.items():
        tp, d = k.split("\x00")
        if tp == XCORR_A:
            a[int(d)] = cents // 100
        elif tp == XCORR_B:
            bb[int(d)] = cents // 100
    out = {c: [] for c in ("lag", "n", "sign_num", "r2_e6")}
    for L in XCORR_LAGS:
        days = sorted(d for d in a if (d + L) in bb)
        n = len(days)
        if n < 2:
            continue
        xs = [a[d] for d in days]
        ys = [bb[d + L] for d in days]
        sa, sb = sum(xs), sum(ys)
        saa = sum(x * x for x in xs)
        sbb = sum(y * y for y in ys)
        sab = sum(x * y for x, y in zip(xs, ys))
        num = n * sab - sa * sb
        va = n * saa - sa * sa
        vb = n * sbb - sb * sb
        r2 = (num * num * 10 ** 6) // (va * vb) if va > 0 and vb > 0 else 0
        out["lag"].append(L)
        out["n"].append(n)
        out["sign_num"].append(0 if num == 0 else (1 if num > 0 else -1))
        out["r2_e6"].append(r2)
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in out.items()})


def sql_cross_correlation() -> str:
    lags = ", ".join(str(x) for x in XCORR_LAGS)
    return f"""
WITH xcd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
  GROUP BY 1, 2
),
xcp AS MATERIALIZED (
  SELECT l.lag, CAST(a.x AS HUGEINT) AS xa, CAST(b.x AS HUGEINT) AS xb
  FROM (SELECT unnest([{lags}]) AS lag) l
  JOIN xcd a ON a.event_type = '{XCORR_A}'
  JOIN xcd b ON b.event_type = '{XCORR_B}' AND b.day = a.day + l.lag
),
xca AS MATERIALIZED (
  SELECT lag, CAST(COUNT(*) AS HUGEINT) AS n,
    SUM(xa) AS sa, SUM(xb) AS sb, SUM(xa * xa) AS saa,
    SUM(xb * xb) AS sbb, SUM(xa * xb) AS sab
  FROM xcp GROUP BY 1 HAVING COUNT(*) >= 2
)
SELECT CAST(lag AS BIGINT) AS lag, CAST(n AS BIGINT) AS n,
  CAST(CASE WHEN n * sab - sa * sb > 0 THEN 1
            WHEN n * sab - sa * sb < 0 THEN -1 ELSE 0 END AS BIGINT)
    AS sign_num,
  CAST(CASE WHEN n * saa - sa * sa > 0 AND n * sbb - sb * sb > 0
    THEN (n * sab - sa * sb) * (n * sab - sa * sb) * 1000000
      // ((n * saa - sa * sa) * (n * sbb - sb * sb))
    ELSE 0 END AS BIGINT) AS r2_e6
FROM xca
"""


def q_peak_detection(sf_dir: str):
    """Peak detection with prominence on the total daily revenue
    series — the alerting primitive: a day is a peak when it exceeds
    both neighbors (strictly left, >= right for plateaus-break-left)
    and its prominence — height above the higher of the two deepest
    valleys separating it from higher ground on each side, computed
    with the standard left/right running-max scan — is at least
    PEAK_PROM_CENTS.  All comparisons exact integers.  Daily sums
    fold on the driver (days keys).
    Output (day, revenue_cents, prominence_cents)."""
    ds = _read(sf_dir, "events", columns=["ts", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uq, inv = np.unique(day, return_inverse=True)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({"day": pa.array(uq), "s": pa.array(s)})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for d, s in zip(b["day"].to_pylist(), b["s"].to_pylist()):
            acc[d] = acc.get(d, 0) + int(s)
    days = sorted(acc)
    x = [acc[d] for d in days]
    D = len(x)
    out_d, out_r, out_p = [], [], []
    for i in range(1, D - 1):
        if not (x[i] > x[i - 1] and x[i] >= x[i + 1]):
            continue
        # prominence: walk left/right to the nearest strictly-higher
        # point; the valley floor on each side is the min in between
        lo_l = x[i]
        j = i - 1
        while j >= 0 and x[j] <= x[i]:
            lo_l = min(lo_l, x[j])
            j -= 1
        left_base = lo_l if j >= 0 else min(lo_l, min(x[:i]))
        lo_r = x[i]
        j = i + 1
        while j < D and x[j] <= x[i]:
            lo_r = min(lo_r, x[j])
            j += 1
        right_base = lo_r if j < D else min(lo_r, min(x[i + 1:]))
        prom = x[i] - max(left_base, right_base)
        if prom >= PEAK_PROM_CENTS:
            out_d.append(days[i])
            out_r.append(x[i])
            out_p.append(prom)
    return pa.table({
        "day": pa.array(out_d, type=pa.int64()),
        "revenue_cents": pa.array(out_r, type=pa.int64()),
        "prominence_cents": pa.array(out_p, type=pa.int64()),
    })


def sql_peak_detection() -> str:
    return f"""
WITH pkd AS MATERIALIZED (
  SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1
),
pkr AS MATERIALIZED (
  SELECT day, x,
    row_number() OVER (ORDER BY day) AS i,
    COUNT(*) OVER () AS d,
    lag(x) OVER (ORDER BY day) AS xl,
    lead(x) OVER (ORDER BY day) AS xr
  FROM pkd
),
pkp AS MATERIALIZED (
  SELECT * FROM pkr WHERE i > 1 AND i < d AND x > xl AND x >= xr
),
pkb AS MATERIALIZED (
  -- per peak: valley floor between the peak and the nearest strictly
  -- higher point on each side (whole-side min when none is higher)
  SELECT p.day, p.x, p.i,
    (SELECT COALESCE(MAX(q.i), 0) FROM pkr q
     WHERE q.i < p.i AND q.x > p.x) AS hl,
    (SELECT COALESCE(MIN(q.i), p.d + 1) FROM pkr q
     WHERE q.i > p.i AND q.x > p.x) AS hr,
    p.d
  FROM pkp p
),
pkm AS MATERIALIZED (
  SELECT b.day, b.x,
    (SELECT MIN(q.x) FROM pkr q WHERE q.i > b.hl AND q.i < b.i) AS lbase,
    (SELECT MIN(q.x) FROM pkr q WHERE q.i > b.i AND q.i < b.hr) AS rbase
  FROM pkb b
)
SELECT day, x AS revenue_cents,
  CAST(x - greatest(COALESCE(lbase, x), COALESCE(rbase, x)) AS BIGINT)
    AS prominence_cents
FROM pkm
WHERE x - greatest(COALESCE(lbase, x), COALESCE(rbase, x))
  >= {PEAK_PROM_CENTS}
"""


# ---------------------------------------------------------------------------
# Round 4e: inter-event burstiness + Heaps-law vocabulary growth
# ---------------------------------------------------------------------------


def q_interevent_burstiness(sf_dir: str):
    """Goh-Barabasi burstiness of the inter-event time process per
    user: B = (sigma - mu) / (sigma + mu) over the inter-event gaps
    in seconds (B -> -1 periodic, 0 Poisson, +1 bursty).  Exact
    integer gap moments (n, S, S2) ride one h(user) bucket exchange;
    B replays as one float tree (sigma = sqrt((n*S2 - S^2)) /
    n-scaled form kept exactly as written; int64 -> double is
    exact-rounded).  Output (user_id, n_gaps, b_e6)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(eid.astype(np.int64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_gaps": pa.array([], type=pa.int64()),
                "b_e6": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, t = uid[order], t[order]
        same = uid[1:] == uid[:-1]
        gap = ((t[1:] - t[:-1]) // 1_000_000)[same]
        u = uid[1:][same]
        uu, inv = np.unique(u, return_inverse=True)
        n = np.bincount(inv, minlength=len(uu)).astype(np.int64)
        s = np.zeros(len(uu), dtype=np.int64)
        s2 = np.zeros(len(uu), dtype=np.int64)
        np.add.at(s, inv, gap)
        np.add.at(s2, inv, gap * gap)
        m = n >= 2
        uu, n, s, s2 = uu[m], n[m], s[m], s2[m]
        # sigma*n = sqrt(n*S2 - S^2) * sqrt(n) is awkward; use the
        # algebraically exact tree written identically in SQL:
        # mu = S/n, var = (S2 - S*S/n)/n, sigma = sqrt(var)
        mu = s.astype(np.float64) / n.astype(np.float64)
        var = (s2.astype(np.float64)
               - s.astype(np.float64) * s.astype(np.float64)
               / n.astype(np.float64)) / n.astype(np.float64)
        sig = np.sqrt(np.maximum(var, 0.0))
        den = sig + mu
        ok = den > 0
        b = np.where(ok, (sig - mu) / np.where(ok, den, 1.0), 0.0)
        return pa.table({
            "user_id": pa.array(uu),
            "n_gaps": pa.array(n),
            "b_e6": pa.array(np.floor(b * 1e6).astype(np.int64)),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def sql_interevent_burstiness() -> str:
    return """
WITH ibg AS MATERIALIZED (
  SELECT user_id,
    (epoch_us(ts) - lag(epoch_us(ts)) OVER w) // 1000000 AS gap
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
iba AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
    CAST(SUM(gap) AS BIGINT) AS s, CAST(SUM(gap * gap) AS BIGINT) AS s2
  FROM ibg WHERE gap IS NOT NULL GROUP BY 1 HAVING COUNT(*) >= 2
)
SELECT user_id, n AS n_gaps,
  CAST(floor(CASE WHEN
      sqrt(greatest((CAST(s2 AS DOUBLE)
        - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
        / CAST(n AS DOUBLE), 0.0))
      + CAST(s AS DOUBLE) / CAST(n AS DOUBLE) > 0
    THEN (sqrt(greatest((CAST(s2 AS DOUBLE)
        - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
        / CAST(n AS DOUBLE), 0.0))
      - CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
      / (sqrt(greatest((CAST(s2 AS DOUBLE)
        - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
        / CAST(n AS DOUBLE), 0.0))
      + CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
    ELSE 0.0 END * 1000000.0) AS BIGINT) AS b_e6
FROM iba
"""


def q_rolling_slope(sf_dir: str):
    """Rolling 7-day least-squares slope of daily revenue per
    event_type — the trend monitor behind "is this source drying
    up": within each window of the last ROLL_W days (by day order,
    only emitted once full), slope = (w*Sxy - Sx*Sy) / (w*Sxx -
    Sx^2) over x = day, y = cents; slope_e6 is the exact
    sign-split bignum // (== HUGEINT trunc).  Daily sums fold on
    the driver; windows are a vectorized sliding pass.
    Output (event_type, day, slope_e6)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents))
    out = {c: [] for c in ("event_type", "day", "slope_e6")}
    W = ROLL_W
    for tp in sorted(series):
        pts = sorted(series[tp])
        for i in range(W - 1, len(pts)):
            win = pts[i - W + 1:i + 1]
            sx = sum(d for d, _x in win)
            sy = sum(x for _d, x in win)
            sxx = sum(d * d for d, _x in win)
            sxy = sum(d * x for d, x in win)
            num = W * sxy - sx * sy
            den = W * sxx - sx * sx
            if den == 0:
                continue
            q = (abs(num) * 10 ** 6) // den
            out["event_type"].append(tp)
            out["day"].append(win[-1][0])
            out["slope_e6"].append(q if num >= 0 else -q)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "day": pa.array(out["day"], type=pa.int64()),
        "slope_e6": pa.array(out["slope_e6"], type=pa.int64()),
    })


def sql_rolling_slope() -> str:
    W = ROLL_W
    return f"""
WITH rsd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
rsw AS MATERIALIZED (
  SELECT event_type, day,
    CAST(SUM(day) OVER w AS HUGEINT) AS sx,
    CAST(SUM(x) OVER w AS HUGEINT) AS sy,
    CAST(SUM(day * day) OVER w AS HUGEINT) AS sxx,
    CAST(SUM(day * x) OVER w AS HUGEINT) AS sxy,
    CAST(COUNT(*) OVER w AS BIGINT) AS nw,
    row_number() OVER (PARTITION BY event_type ORDER BY day) AS rn
  FROM rsd
  WINDOW w AS (PARTITION BY event_type ORDER BY day
               ROWS {W - 1} PRECEDING)
)
SELECT event_type, day,
  CAST(CASE WHEN {W} * sxy - sx * sy >= 0
    THEN abs({W} * sxy - sx * sy) * 1000000 // ({W} * sxx - sx * sx)
    ELSE -(abs({W} * sxy - sx * sy) * 1000000 // ({W} * sxx - sx * sx))
    END AS BIGINT) AS slope_e6
FROM rsw
WHERE rn >= {W} AND {W} * sxx - sx * sx > 0
"""


# ---------------------------------------------------------------------------
# Round 4e: Durbin-Watson serial correlation + DTW between daily series
# ---------------------------------------------------------------------------


def q_durbin_watson(sf_dir: str):
    """Durbin-Watson serial-correlation statistic of the daily
    revenue deviations per event_type (DW ~ 2 independent, ~ 0
    positively autocorrelated): with c_t = x_t*D - S (the deferred-
    denominator deviations, exact integers — the q_hurst machinery),
    dw_e6 = sum (c_t - c_{t-1})^2 * 10^6 // sum c_t^2.
    Output (event_type, d_days, dw_e6)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents // 100))
    out = {c: [] for c in ("event_type", "d_days", "dw_e6")}
    for tp in sorted(series):
        pts = sorted(series[tp])
        x = [v for _d, v in pts]
        D = len(x)
        if D < 2:
            continue
        S = sum(x)
        cdev = [v * D - S for v in x]
        den = sum(c * c for c in cdev)
        if den == 0:
            continue
        num = sum((cdev[i] - cdev[i - 1]) ** 2 for i in range(1, D))
        out["event_type"].append(tp)
        out["d_days"].append(D)
        out["dw_e6"].append(num * 10 ** 6 // den)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "d_days": pa.array(out["d_days"], type=pa.int64()),
        "dw_e6": pa.array(out["dw_e6"], type=pa.int64()),
    })


def sql_durbin_watson() -> str:
    return """
WITH dwd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
dwa AS MATERIALIZED (
  SELECT event_type, day, x,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT) AS d,
    CAST(SUM(x) OVER (PARTITION BY event_type) AS BIGINT) AS s
  FROM dwd
),
dwc AS MATERIALIZED (
  SELECT event_type, d, CAST(x * d - s AS HUGEINT) AS c,
    CAST(lag(x * d - s) OVER (PARTITION BY event_type ORDER BY day)
      AS HUGEINT) AS cp
  FROM dwa
)
SELECT event_type, CAST(MAX(d) AS BIGINT) AS d_days,
  CAST(SUM(CASE WHEN cp IS NULL THEN 0 ELSE (c - cp) * (c - cp) END)
    * 1000000 // SUM(c * c) AS BIGINT) AS dw_e6
FROM dwc GROUP BY event_type
HAVING MAX(d) >= 2 AND SUM(c * c) > 0
"""


def q_dtw_daily(sf_dir: str):
    """Dynamic-time-warping distance between the click and purchase
    daily dollar series (first DTW_N common-calendar days) — the
    shape-matching alternative to lagged correlation: integer costs
    |a_i - b_j|, the classic DP over the 16x16 grid, every min over
    exact integers (the frechet precedent).
    Output one row (n_days, dtw_cost)."""
    dc = _daily_cents(sf_dir)
    a, bb = {}, {}
    for k, cents in dc.items():
        tp, d = k.split("\x00")
        if tp == XCORR_A:
            a[int(d)] = cents // 100
        elif tp == XCORR_B:
            bb[int(d)] = cents // 100
    days = sorted(set(a) & set(bb))[:DTW_N]
    xs = [a[d] for d in days]
    ys = [bb[d] for d in days]
    n = len(days)
    INF = 1 << 60
    prev = [0] + [INF] * n
    for i in range(1, n + 1):
        cur = [INF] * (n + 1)
        for j in range(1, n + 1):
            c = abs(xs[i - 1] - ys[j - 1])
            best = min(prev[j], cur[j - 1], prev[j - 1])
            cur[j] = c + best
        prev = cur
    return pa.table({
        "n_days": pa.array([n], type=pa.int64()),
        "dtw_cost": pa.array([prev[n] if n else 0], type=pa.int64()),
    })


def sql_dtw_daily() -> str:
    N = DTW_N
    # unrolled DP, one chained CTE per row.  Row cells alternate
    # between e{j} and o{j} column namespaces: DuckDB resolves an
    # unqualified name to the FROM column BEFORE the lateral alias,
    # so the current row's aliases must not collide with the previous
    # row's column names (measured: least(p.c1, c1) reads p.c1).
    piv = ", ".join(
        f"MAX(CASE WHEN rn = {j} THEN xa END) AS xa{j},"
        f" MAX(CASE WHEN rn = {j} THEN xb END) AS xb{j}"
        for j in range(1, N + 1))
    big = 1 << 60
    rows = []
    for i in range(1, N + 1):
        prev = f"dtwr{i - 1}"
        pc = "e" if (i - 1) % 2 == 0 else "o"
        cc = "o" if pc == "e" else "e"
        aliases = [f"CAST({big} AS BIGINT) AS {cc}0"]
        for j in range(1, N + 1):
            c = f"abs(v.xa{i} - v.xb{j})"
            if j == 1:
                best = (f"least(p.{pc}{j}, p.{pc}{j - 1})" if i > 1
                        else f"p.{pc}{j - 1}")
            else:
                best = (f"least(p.{pc}{j}, {cc}{j - 1}, p.{pc}{j - 1})"
                        if i > 1 else f"{cc}{j - 1}")
            aliases.append(f"{c} + {best} AS {cc}{j}")
        rows.append(f"""dtwr{i} AS MATERIALIZED (
  SELECT {', '.join(aliases)}
  FROM {prev} p CROSS JOIN dtwv v
)""")
    chain = ",\n".join(rows)
    zero_cols = ", ".join(
        f"CAST({0 if j == 0 else big} AS BIGINT) AS e{j}"
        for j in range(N + 1))
    final = ("e" if N % 2 == 0 else "o") + str(N)
    return f"""
WITH dtwd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
  GROUP BY 1, 2
),
dtws AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY a.day) AS rn,
    a.x AS xa, b.x AS xb
  FROM dtwd a JOIN dtwd b ON b.day = a.day
  WHERE a.event_type = '{XCORR_A}' AND b.event_type = '{XCORR_B}'
  ORDER BY a.day LIMIT {N}
),
dtwv AS MATERIALIZED (
  SELECT {piv} FROM dtws
),
dtwr0 AS MATERIALIZED (
  SELECT {zero_cols}
),
{chain}
SELECT CAST((SELECT COUNT(*) FROM dtws) AS BIGINT) AS n_days,
  CAST((SELECT {final} FROM dtwr{N}) AS BIGINT) AS dtw_cost
"""


def q_runs_test(sf_dir: str):
    """Wald–Wolfowitz runs test on the daily series per event_type —
    too few runs above/below the median means the series is sticky,
    too many means oscillation: the lower median is an exact order
    statistic, above = x > med (days at the median count as below —
    pinned rule), runs counted over day order, and z replays as one
    float tree from the integer (runs, n1, n2).
    Output (event_type, n_above, n_below, n_runs, z_e6)."""
    import math

    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents))
    out = {c: [] for c in
           ("event_type", "n_above", "n_below", "n_runs", "z_e6")}
    for tp in sorted(series):
        pts = sorted(series[tp])
        x = [v for _d, v in pts]
        med = sorted(x)[(len(x) - 1) // 2]
        above = [1 if v > med else 0 for v in x]
        n1 = sum(above)
        n2 = len(x) - n1
        if n1 == 0 or n2 == 0:
            continue
        runs = 1 + sum(1 for i in range(1, len(above))
                       if above[i] != above[i - 1])
        mu = 1.0 + (2.0 * float(n1) * float(n2)) / float(n1 + n2)
        var = ((2.0 * float(n1) * float(n2)
                * (2.0 * float(n1) * float(n2) - float(n1 + n2)))
               / (float(n1 + n2) * float(n1 + n2)
                  * float(n1 + n2 - 1)))
        if var <= 0:
            continue
        z = (float(runs) - mu) / math.sqrt(var)
        out["event_type"].append(tp)
        out["n_above"].append(n1)
        out["n_below"].append(n2)
        out["n_runs"].append(runs)
        out["z_e6"].append(math.floor(z * 1e6))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_above": pa.array(out["n_above"], type=pa.int64()),
        "n_below": pa.array(out["n_below"], type=pa.int64()),
        "n_runs": pa.array(out["n_runs"], type=pa.int64()),
        "z_e6": pa.array(out["z_e6"], type=pa.int64()),
    })


def sql_runs_test() -> str:
    return """
WITH rtd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
rtm AS MATERIALIZED (
  SELECT event_type, x AS med FROM (
    SELECT event_type, x,
      row_number() OVER (PARTITION BY event_type ORDER BY x) AS rn,
      COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM rtd) t
  WHERE rn = (n + 1) // 2
),
rta AS MATERIALIZED (
  SELECT d.event_type, d.day,
    CASE WHEN d.x > m.med THEN 1 ELSE 0 END AS ab
  FROM rtd d JOIN rtm m ON m.event_type = d.event_type
),
rtr AS MATERIALIZED (
  SELECT event_type, ab,
    lag(ab) OVER (PARTITION BY event_type ORDER BY day) AS pab
  FROM rta
),
rts AS MATERIALIZED (
  SELECT event_type,
    CAST(SUM(ab) AS BIGINT) AS n1,
    CAST(COUNT(*) - SUM(ab) AS BIGINT) AS n2,
    CAST(1 + COUNT(*) FILTER (WHERE pab IS NOT NULL AND ab <> pab)
      AS BIGINT) AS runs
  FROM rtr GROUP BY event_type
  HAVING SUM(ab) > 0 AND COUNT(*) - SUM(ab) > 0
)
SELECT event_type, n1 AS n_above, n2 AS n_below, runs AS n_runs,
  CAST(floor((CAST(runs AS DOUBLE)
    - (1.0 + (2.0 * CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE))
      / CAST(n1 + n2 AS DOUBLE)))
    / sqrt((2.0 * CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE)
      * (2.0 * CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE)
        - CAST(n1 + n2 AS DOUBLE)))
      / (CAST(n1 + n2 AS DOUBLE) * CAST(n1 + n2 AS DOUBLE)
        * CAST(n1 + n2 - 1 AS DOUBLE)))
    * 1000000.0) AS BIGINT) AS z_e6
FROM rts
"""


def q_diurnal_vector(sf_dir: str):
    """Diurnal activity vector per event_type — when in the day the
    type happens, as a circular mean over the 24h clock: each event
    contributes the unit vector of its hour angle (24 DISTINCT
    angles, each cos/sin floor-quantized at 1e-6 once — exact
    integers; the sums are order-free), r_permille = resultant /
    count, and peak_hour = the modal hour (ties to the earliest).
    One bounded fold (|types| x 24 keys).
    Output (event_type, n, sux_e6, suy_e6, r_permille, peak_hour)."""
    import math

    ds = _read(sf_dir, "events", columns=["ts", "event_type"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        hour = (ts // 3_600_000_000) % 24
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        key = np.array([f"{a}\x00{h}" for a, h in zip(et, hour)],
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
    # quantized unit vectors per hour (scalar libm; 2*pi*h/24 exact
    # tree both sides)
    cosq = [math.floor(math.cos(2.0 * math.pi * float(h) / 24.0) * 1e6)
            for h in range(24)]
    sinq = [math.floor(math.sin(2.0 * math.pi * float(h) / 24.0) * 1e6)
            for h in range(24)]
    types = sorted({k.split("\x00")[0] for k in acc})
    out = {c: [] for c in ("event_type", "n", "sux_e6", "suy_e6",
                           "r_permille", "peak_hour")}
    for tp in types:
        cnts = {int(k.split("\x00")[1]): v for k, v in acc.items()
                if k.split("\x00")[0] == tp}
        n = sum(cnts.values())
        sx = sum(c * cosq[h] for h, c in cnts.items())
        sy = sum(c * sinq[h] for h, c in cnts.items())
        r = (math.sqrt(float(sx) * float(sx) + float(sy) * float(sy))
             / (float(n) * 1e6))
        peak = min(sorted(cnts), key=lambda h: (-cnts[h], h))
        out["event_type"].append(tp)
        out["n"].append(n)
        out["sux_e6"].append(sx)
        out["suy_e6"].append(sy)
        out["r_permille"].append(math.floor(r * 1000.0))
        out["peak_hour"].append(peak)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        **{k: pa.array(out[k], type=pa.int64())
           for k in ("n", "sux_e6", "suy_e6", "r_permille", "peak_hour")},
    })


def sql_diurnal_vector() -> str:
    return """
WITH dvc AS MATERIALIZED (
  SELECT event_type,
    CAST((epoch_us(ts) // 3600000000) % 24 AS BIGINT) AS h,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
dvq AS MATERIALIZED (
  SELECT event_type, h, n,
    CAST(floor(cos(2.0 * pi() * CAST(h AS DOUBLE) / 24.0) * 1000000.0)
      AS BIGINT) AS cq,
    CAST(floor(sin(2.0 * pi() * CAST(h AS DOUBLE) / 24.0) * 1000000.0)
      AS BIGINT) AS sq
  FROM dvc
),
dva AS MATERIALIZED (
  SELECT event_type, CAST(SUM(n) AS BIGINT) AS n,
    CAST(SUM(n * cq) AS BIGINT) AS sx, CAST(SUM(n * sq) AS BIGINT) AS sy
  FROM dvq GROUP BY 1
),
dvp AS MATERIALIZED (
  SELECT event_type, h AS peak_hour FROM (
    SELECT event_type, h,
      row_number() OVER (PARTITION BY event_type
                         ORDER BY n DESC, h ASC) AS rn
    FROM dvc) t WHERE rn = 1
)
SELECT a.event_type, a.n, a.sx AS sux_e6, a.sy AS suy_e6,
  CAST(floor(sqrt(CAST(a.sx AS DOUBLE) * CAST(a.sx AS DOUBLE)
    + CAST(a.sy AS DOUBLE) * CAST(a.sy AS DOUBLE))
    / (CAST(a.n AS DOUBLE) * 1000000.0) * 1000.0) AS BIGINT)
    AS r_permille,
  p.peak_hour
FROM dva a JOIN dvp p ON p.event_type = a.event_type
"""


def q_cointegration_dw(sf_dir: str):
    """Engle-Granger cointegration screen between the click and
    purchase daily series: regress b on a (exact rational slope and
    intercept via cross-multiplication), then the Durbin-Watson of
    the SCALED residuals e_i * (n * den) — all integers, the scale
    cancels in DW = sum(de^2) * 1e6 // sum(e^2).  Low DW means the
    residual wanders (no cointegration).
    Output (n_days, dw_e6, slope_sign)."""
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
    if n < 3:
        return pa.table({"n_days": pa.array([n], type=pa.int64()),
                         "dw_e6": pa.array([0], type=pa.int64()),
                         "slope_sign": pa.array([0], type=pa.int64())})
    xs = [a[d] for d in days]
    ys = [bb[d] for d in days]
    sx, sy = sum(xs), sum(ys)
    sxx = sum(v * v for v in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num = n * sxy - sx * sy        # slope numerator
    den = n * sxx - sx * sx        # slope denominator (> 0 if x varies)
    if den == 0:
        return pa.table({"n_days": pa.array([n], type=pa.int64()),
                         "dw_e6": pa.array([0], type=pa.int64()),
                         "slope_sign": pa.array([0], type=pa.int64())})
    # e_i * (n * den) = n*den*y_i - n*num*x_i - (sy*den - num*sx)
    c0 = sy * den - num * sx
    e = [n * den * y - n * num * x - c0 for x, y in zip(xs, ys)]
    see = sum(v * v for v in e)
    sde = sum((e[i] - e[i - 1]) ** 2 for i in range(1, n))
    dw = sde * 10 ** 6 // see if see > 0 else 0
    return pa.table({
        "n_days": pa.array([n], type=pa.int64()),
        "dw_e6": pa.array([dw], type=pa.int64()),
        "slope_sign": pa.array(
            [0 if num == 0 else (1 if num > 0 else -1)], type=pa.int64()),
    })


def sql_cointegration_dw() -> str:
    return f"""
WITH cgd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS BIGINT) AS x
  FROM events WHERE event_type IN ('{XCORR_A}', '{XCORR_B}')
  GROUP BY 1, 2
),
cgp AS MATERIALIZED (
  SELECT a.day, CAST(a.x AS HUGEINT) AS xa, CAST(b.x AS HUGEINT) AS xb
  FROM cgd a JOIN cgd b ON b.day = a.day
  WHERE a.event_type = '{XCORR_A}' AND b.event_type = '{XCORR_B}'
),
cga AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(xa) AS sx, SUM(xb) AS sy,
    SUM(xa * xa) AS sxx, SUM(xa * xb) AS sxy
  FROM cgp
),
cge AS MATERIALIZED (
  SELECT p.day,
    a.n * (a.n * sxx - sx * sx) * p.xb
      - a.n * (a.n * sxy - sx * sy) * p.xa
      - (sy * (a.n * sxx - sx * sx) - (a.n * sxy - sx * sy) * sx) AS e
  FROM cgp p CROSS JOIN cga a
  WHERE a.n >= 3 AND a.n * sxx - sx * sx <> 0
),
cgw AS MATERIALIZED (
  SELECT e, lag(e) OVER (ORDER BY day) AS ep FROM cge
)
SELECT (SELECT CAST(n AS BIGINT) FROM cga) AS n_days,
  CAST(CASE WHEN SUM(e * e) > 0
    THEN SUM(CASE WHEN ep IS NULL THEN 0 ELSE (e - ep) * (e - ep) END)
      * 1000000 // SUM(e * e)
    ELSE 0 END AS BIGINT) AS dw_e6,
  (SELECT CAST(CASE WHEN n * sxy - sx * sy > 0 THEN 1
    WHEN n * sxy - sx * sy < 0 THEN -1 ELSE 0 END AS BIGINT)
   FROM cga) AS slope_sign
FROM cgw
"""


def q_max_drawdown(sf_dir: str):
    """Maximum drawdown of the cumulative daily revenue per event
    type — the worst peak-to-trough slide: over the running total
    C_d, dd = max over d of (max_{d' <= d} C_d' - C_d), an exact
    integer scan.  Output (event_type, d_days, peak_day, max_dd)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents))
    out = {c: [] for c in ("event_type", "d_days", "peak_day", "max_dd")}
    for tp in sorted(series):
        pts = sorted(series[tp])
        cum, peak, peak_day, mdd = 0, 0, pts[0][0], 0
        run_peak_day = pts[0][0]
        run_peak = 0
        first = True
        for d, v in pts:
            cum += v
            if first or cum > run_peak:
                run_peak = cum
                run_peak_day = d
                first = False
            dd = run_peak - cum
            if dd > mdd:
                mdd = dd
                peak_day = run_peak_day
        out["event_type"].append(tp)
        out["d_days"].append(len(pts))
        out["peak_day"].append(peak_day)
        out["max_dd"].append(mdd)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "d_days": pa.array(out["d_days"], type=pa.int64()),
        "peak_day": pa.array(out["peak_day"], type=pa.int64()),
        "max_dd": pa.array(out["max_dd"], type=pa.int64()),
    })


def sql_max_drawdown() -> str:
    return """
WITH mdd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
mdc AS MATERIALIZED (
  SELECT event_type, day,
    SUM(x) OVER w AS cum
  FROM mdd WINDOW w AS (PARTITION BY event_type ORDER BY day
                        ROWS UNBOUNDED PRECEDING)
),
mdp AS MATERIALIZED (
  SELECT event_type, day, cum,
    MAX(cum) OVER w AS run_peak
  FROM mdc WINDOW w AS (PARTITION BY event_type ORDER BY day
                        ROWS UNBOUNDED PRECEDING)
),
mdpk AS MATERIALIZED (
  -- day the running peak was set: earliest day attaining run_peak
  SELECT p.event_type, p.day, p.run_peak - p.cum AS dd,
    (SELECT MIN(q.day) FROM mdp q
     WHERE q.event_type = p.event_type AND q.cum = p.run_peak
       AND q.day <= p.day) AS peak_day
  FROM mdp p
),
mdb AS MATERIALIZED (
  SELECT event_type, dd, peak_day,
    row_number() OVER (PARTITION BY event_type
                       ORDER BY dd DESC, day ASC) AS rn,
    COUNT(*) OVER (PARTITION BY event_type) AS d
  FROM mdpk
)
SELECT event_type, CAST(d AS BIGINT) AS d_days,
  CAST(peak_day AS BIGINT) AS peak_day, CAST(dd AS BIGINT) AS max_dd
FROM mdb WHERE rn = 1
"""


def q_events_to_convert(sf_dir: str):
    """Funnel depth per user — how many events before the first
    purchase: per user (ordered by ts, event_id), the count of
    events strictly before the first 'purchase' (-1 when the user
    never converts).  One h(user) bucket exchange, vectorized
    first-occurrence scan.  Output (user_id, n_events, n_before,
    converted)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        conv = (np.asarray(batch["event_type"].to_pylist(), dtype=object)
                == "purchase").astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(eid.astype(np.int64)),
            "conv": pa.array(conv),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "n_before": pa.array([], type=pa.int64()),
                "converted": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        conv = g["conv"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, conv = uid[order], conv[order]
        uq, starts = np.unique(uid, return_index=True)
        ends = np.r_[starts[1:], len(uid)]
        n_ev = (ends - starts).astype(np.int64)
        n_before = np.empty(len(uq), dtype=np.int64)
        did = np.empty(len(uq), dtype=np.int64)
        # first conversion index per segment via cumulative argmax
        for i, (s_, e_) in enumerate(zip(starts, ends)):
            seg = conv[s_:e_]
            hits = np.flatnonzero(seg)
            if len(hits):
                n_before[i] = int(hits[0])
                did[i] = 1
            else:
                n_before[i] = -1
                did[i] = 0
        return pa.table({
            "user_id": pa.array(uq),
            "n_events": pa.array(n_ev),
            "n_before": pa.array(n_before),
            "converted": pa.array(did),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def sql_events_to_convert() -> str:
    return """
WITH evr AS MATERIALIZED (
  SELECT user_id, event_type,
    row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
      AS rn
  FROM events
),
evf AS MATERIALIZED (
  SELECT user_id, CAST(MIN(rn) AS BIGINT) AS first_conv
  FROM evr WHERE event_type = 'purchase' GROUP BY user_id
)
SELECT r.user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
  CAST(COALESCE(ANY_VALUE(f.first_conv) - 1, -1) AS BIGINT) AS n_before,
  CAST(CASE WHEN ANY_VALUE(f.first_conv) IS NULL THEN 0 ELSE 1 END
    AS BIGINT) AS converted
FROM evr r LEFT JOIN evf f ON f.user_id = r.user_id
GROUP BY r.user_id
"""


def q_dau_wau(sf_dir: str):
    """DAU/WAU stickiness per epoch week — the engagement ratio every
    product dashboard opens with: stickiness_e6 = sum of daily
    distinct users over the week * 1e6 // (7 * weekly distinct
    users); exact integer counting from one distinct (user, day)
    fold.  Output (week, dau_sum, wau, stickiness_e6)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["user_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        if not uid.max(initial=0) < (1 << 32):
            raise AssertionError("dau_wau packing needs user_id < 2^32")
        key = (day.astype(np.uint64) << np.uint64(32)) | uid.astype(
            np.uint64)
        uq = np.unique(key)
        return pa.table({
            "key": pa.array(uq, type=pa.uint64()),
            "one": pa.array(np.ones(len(uq), dtype=np.int64)),
        })

    # one key per distinct (day, user)
    key, _ = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    wk = (key >> np.uint64(32)).astype(np.int64) // 7
    uid = (key & np.uint64((1 << 32) - 1)).astype(np.int64)
    weeks, dau = np.unique(wk, return_counts=True)
    wau = np.unique(np.unique((wk << 32) | uid) >> 32,
                    return_counts=True)[1]
    return pa.table({
        "week": pa.array(weeks),
        "dau_sum": pa.array(dau.astype(np.int64)),
        "wau": pa.array(wau.astype(np.int64)),
        "stickiness_e6": pa.array((dau * 10 ** 6 // (7 * wau))
                                  .astype(np.int64)),
    })


def sql_dau_wau() -> str:
    return """
WITH dwd AS MATERIALIZED (
  SELECT DISTINCT user_id,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
  FROM events
),
dwa AS MATERIALIZED (
  SELECT day // 7 AS week, day, CAST(COUNT(*) AS BIGINT) AS dau
  FROM dwd GROUP BY 1, 2
),
dws AS MATERIALIZED (
  SELECT day // 7 AS week, CAST(COUNT(DISTINCT user_id) AS BIGINT)
    AS wau
  FROM dwd GROUP BY 1
)
SELECT a.week, CAST(SUM(a.dau) AS BIGINT) AS dau_sum,
  CAST(ANY_VALUE(s.wau) AS BIGINT) AS wau,
  CAST(SUM(a.dau) * 1000000 // (7 * ANY_VALUE(s.wau)) AS BIGINT)
    AS stickiness_e6
FROM dwa a JOIN dws s ON s.week = a.week
GROUP BY a.week
"""


# ---------------------------------------------------------------------------
# Round 4e: tile recency + weekend lift + conversion latency
# ---------------------------------------------------------------------------


def q_tile_recency(sf_dir: str):
    """Freshness monitor per res-2 tile — days since the tile last
    saw an event (stale tiles signal coverage rot): exact integer
    max-day per tile vs the global max day.  One bounded fold.
    Output (tile_id, last_day, staleness_days, n)."""
    from rhealpixdggs_py_ray.core import index as cidx

    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        uq, inv = np.unique(u, return_inverse=True)
        mx = np.full(len(uq), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(mx, inv, day)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        return pa.table({
            "tile": su.to_string_fixed(uq, TILE_RES),
            "mx": pa.array(mx), "n": pa.array(n),
        })

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for t, mx, n in zip(b["tile"].to_pylist(), b["mx"].to_pylist(),
                            b["n"].to_pylist()):
            pm, pn = acc.get(t, (np.iinfo(np.int64).min, 0))
            acc[t] = (max(pm, int(mx)), pn + int(n))
    gmax = max(m for m, _n in acc.values())
    ks = sorted(acc)
    return pa.table({
        "tile_id": pa.array(ks, type=pa.string()),
        "last_day": pa.array([acc[k][0] for k in ks], type=pa.int64()),
        "staleness_days": pa.array([gmax - acc[k][0] for k in ks],
                                   type=pa.int64()),
        "n": pa.array([acc[k][1] for k in ks], type=pa.int64()),
    })


def sql_tile_recency() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",)
    )
    return f"""
WITH trc AS MATERIALIZED (
  SELECT t.cell_id AS tile_id,
    CAST(MAX(epoch_us(e.ts) // 86400000000) AS BIGINT) AS last_day,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM {inner} t JOIN events e ON e.event_id = t.event_id
  GROUP BY 1
),
trg AS MATERIALIZED (
  SELECT CAST(MAX(last_day) AS BIGINT) AS gmax FROM trc
)
SELECT c.tile_id, c.last_day,
  CAST(g.gmax - c.last_day AS BIGINT) AS staleness_days, c.n
FROM trc c CROSS JOIN trg g
"""


def q_weekend_lift(sf_dir: str):
    """Weekend revenue lift per event_type — mean weekend-day revenue
    over mean weekday revenue, compared exactly by cross-
    multiplication: lift_e6 = (s_we * n_wd) * 1e6 // (s_wd * n_we).
    Epoch day 0 is a Thursday, so dow = (day + 4) % 7, weekend =
    {{0, 6}}.  From the shared daily fold.
    Output (event_type, n_weekend, n_weekday, lift_e6)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents))
    out = {c: [] for c in
           ("event_type", "n_weekend", "n_weekday", "lift_e6")}
    for tp in sorted(series):
        s_we = s_wd = n_we = n_wd = 0
        for d, v in series[tp]:
            if (d + 4) % 7 in (0, 6):
                s_we += v
                n_we += 1
            else:
                s_wd += v
                n_wd += 1
        if n_we == 0 or n_wd == 0 or s_wd <= 0:
            continue
        out["event_type"].append(tp)
        out["n_weekend"].append(n_we)
        out["n_weekday"].append(n_wd)
        out["lift_e6"].append(s_we * n_wd * 10 ** 6 // (s_wd * n_we))
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_weekend": pa.array(out["n_weekend"], type=pa.int64()),
        "n_weekday": pa.array(out["n_weekday"], type=pa.int64()),
        "lift_e6": pa.array(out["lift_e6"], type=pa.int64()),
    })


def sql_weekend_lift() -> str:
    return """
WITH wld AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
wla AS MATERIALIZED (
  SELECT event_type,
    CAST(COUNT(*) FILTER (WHERE (day + 4) % 7 IN (0, 6)) AS HUGEINT)
      AS n_we,
    CAST(COUNT(*) FILTER (WHERE (day + 4) % 7 NOT IN (0, 6)) AS HUGEINT)
      AS n_wd,
    CAST(COALESCE(SUM(x) FILTER (WHERE (day + 4) % 7 IN (0, 6)), 0)
      AS HUGEINT) AS s_we,
    CAST(COALESCE(SUM(x) FILTER (WHERE (day + 4) % 7 NOT IN (0, 6)), 0)
      AS HUGEINT) AS s_wd
  FROM wld GROUP BY 1
)
SELECT event_type, CAST(n_we AS BIGINT) AS n_weekend,
  CAST(n_wd AS BIGINT) AS n_weekday,
  CAST(s_we * n_wd * 1000000 // (s_wd * n_we) AS BIGINT) AS lift_e6
FROM wla WHERE n_we > 0 AND n_wd > 0 AND s_wd > 0
"""


def q_conversion_latency(sf_dir: str):
    """Conversion latency quartiles — seconds from a user's first
    event to their first purchase (converted users only), reported
    as the exact lower quartiles (order statistics at ranks
    ceil(k(n+1)/4) clamped).  One h(user) bucket exchange computes
    per-user latencies; the quartile resolve is a bounded driver
    sort.  Output (n_converted, q1_s, median_s, q3_s)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        conv = (np.asarray(batch["event_type"].to_pylist(), dtype=object)
                == "purchase").astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "conv": pa.array(conv),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({"lat_s": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        conv = g["conv"].to_numpy(zero_copy_only=False)
        uq = np.unique(uid)
        first = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
        firstc = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
        ix = np.searchsorted(uq, uid)
        np.minimum.at(first, ix, t)
        np.minimum.at(firstc, ix[conv == 1], t[conv == 1])
        ok = firstc < np.iinfo(np.int64).max
        lat = (firstc[ok] - first[ok]) // 1_000_000
        return pa.table({"lat_s": pa.array(lat)})

    lats = []
    for b in (ds.map_batches(tag, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("bucket")
              .map_groups(per_bucket, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows and "lat_s" in b.column_names:
            lats.extend(b["lat_s"].to_pylist())
    lats.sort()
    n = len(lats)
    if n == 0:
        return pa.table({k: pa.array([0], type=pa.int64())
                         for k in ("n_converted", "q1_s", "median_s",
                                   "q3_s")})

    def qtl(k: int) -> int:
        r = min(max((k * (n + 1) + 3) // 4, 1), n)
        return lats[r - 1]

    return pa.table({
        "n_converted": pa.array([n], type=pa.int64()),
        "q1_s": pa.array([qtl(1)], type=pa.int64()),
        "median_s": pa.array([qtl(2)], type=pa.int64()),
        "q3_s": pa.array([qtl(3)], type=pa.int64()),
    })


def sql_conversion_latency() -> str:
    return """
WITH cla AS MATERIALIZED (
  SELECT user_id, CAST(MIN(epoch_us(ts)) AS BIGINT) AS first_t,
    CAST(MIN(epoch_us(ts)) FILTER (WHERE event_type = 'purchase')
      AS BIGINT) AS first_c
  FROM events GROUP BY 1
),
cll AS MATERIALIZED (
  SELECT (first_c - first_t) // 1000000 AS lat_s FROM cla
  WHERE first_c IS NOT NULL
),
clr AS MATERIALIZED (
  SELECT lat_s, row_number() OVER (ORDER BY lat_s) AS rn,
    COUNT(*) OVER () AS n
  FROM cll
)
SELECT CAST(MAX(n) AS BIGINT) AS n_converted,
  CAST(MAX(CASE WHEN rn = least(greatest((1 * (n + 1) + 3) // 4, 1), n)
    THEN lat_s END) AS BIGINT) AS q1_s,
  CAST(MAX(CASE WHEN rn = least(greatest((2 * (n + 1) + 3) // 4, 1), n)
    THEN lat_s END) AS BIGINT) AS median_s,
  CAST(MAX(CASE WHEN rn = least(greatest((3 * (n + 1) + 3) // 4, 1), n)
    THEN lat_s END) AS BIGINT) AS q3_s
FROM clr
"""
