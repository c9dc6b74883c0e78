"""Query-suite family module: spatial2 (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_stats1 import q_tile_counts  # noqa: F401



def sql_colocation_pairs() -> str:
    k = COLOC_RES
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    T_us = COLOC_T_S * 1_000_000
    return f"""
WITH ce AS MATERIALIZED (
  SELECT t.event_id, t.cell_id, e.user_id, epoch_us(e.ts) AS tus
  FROM {idx_sql} t JOIN events e ON e.event_id = t.event_id
)
SELECT least(a.user_id, b.user_id) AS user_a,
  greatest(a.user_id, b.user_id) AS user_b,
  CAST(COUNT(*) AS BIGINT) AS n_contacts
FROM ce a JOIN ce b
  ON a.cell_id = b.cell_id
  AND a.user_id <> b.user_id
  AND (b.tus - a.tus > 0 OR (b.tus = a.tus AND a.event_id < b.event_id))
  AND b.tus - a.tus <= {T_us}
GROUP BY 1, 2
"""


def q_home_cells(sf_dir: str):
    """Per-user home-location inference: the user's modal res-3 cell
    (ties -> lexicographically smallest cell), with its visit count and
    the user's total events.  One h(user) bucket exchange; the resolve
    is a segmented (user, cell) count + per-user argmax, all
    vectorized.  Output (user_id, home_cell, n_home, n_total)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)
    nb = 8

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, HOME_RES, lon, lat, plane=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid.astype(np.uint64), nb)),
            "user_id": pa.array(uid),
            "cell": su.to_string_fixed(u, HOME_RES),
        })

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "home_cell": pa.array([], type=pa.string()),
                             "n_home": pa.array([], type=pa.int64()),
                             "n_total": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        cell = g["cell"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"u": uid, "c": cell})
        cnt = df.groupby(["u", "c"], sort=False).size().reset_index(name="n")
        tot = df.groupby("u", sort=False).size()
        cnt = cnt.sort_values(["u", "n", "c"],
                              ascending=[True, False, True])
        first = cnt.drop_duplicates("u", keep="first")
        return pa.table({
            "user_id": pa.array(first["u"].to_numpy()),
            "home_cell": pa.array(first["c"].to_numpy(), type=pa.string()),
            "n_home": pa.array(first["n"].to_numpy().astype(np.int64)),
            "n_total": pa.array(tot.loc[first["u"]].to_numpy().astype(np.int64)),
        })

    return (
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_home_cells() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), HOME_RES, CFG, id_cols=("event_id",)
    )
    return f"""
WITH hc AS MATERIALIZED (
  SELECT e.user_id, t.cell_id FROM {idx_sql} t
  JOIN events e ON e.event_id = t.event_id
),
cnt AS MATERIALIZED (
  SELECT user_id, cell_id, COUNT(*) AS n FROM hc GROUP BY 1, 2
),
tot AS MATERIALIZED (
  SELECT user_id, COUNT(*) AS n_total FROM hc GROUP BY 1
)
SELECT c.user_id, c.cell_id AS home_cell,
  CAST(c.n AS BIGINT) AS n_home, CAST(t.n_total AS BIGINT) AS n_total
FROM cnt c JOIN tot t ON c.user_id = t.user_id
QUALIFY row_number() OVER (PARTITION BY c.user_id
  ORDER BY c.n DESC, c.cell_id) = 1
"""


def q_dateline_fence(sf_dir: str):
    """Fence that CROSSES the antimeridian (lon >= 170 OR lon <= -170):
    per res-2 face, count of contained events — the wrap case every
    naive bbox filter gets wrong.  Pure map + tiny aggregate."""
    lon1, lat1, lon2, lat2 = DATELINE_FENCE
    ds = indexed_events(sf_dir, resolution=2)

    def refine(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        keep = ((lon >= lon1) | (lon <= lon2)) & (lat >= lat1) & (lat <= lat2)
        cell = batch["cell_id"].to_numpy(zero_copy_only=False)[keep]
        face = np.array([c[0] for c in cell], dtype=object)
        uq, n = np.unique(face, return_counts=True)
        return pa.table({"face_id": pa.array(uq.astype(str), type=pa.string()),
                         "n": pa.array(n.astype(np.int64))})

    return ds.map_batches(
        refine, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("face_id").aggregate(Sum("n", alias_name="n"))


def sql_dateline_fence() -> str:
    lon1, lat1, lon2, lat2 = DATELINE_FENCE
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), 2, CFG, id_cols=("event_id",)
    )
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    return (
        f"SELECT substr(cell_id, 1, 1) AS face_id, CAST(COUNT(*) AS BIGINT)"
        f" AS n FROM {inner} t"
        f" WHERE (({lon}) >= {lon1!r} OR ({lon}) <= {lon2!r})"
        f" AND ({lat}) >= {lat1!r} AND ({lat}) <= {lat2!r} GROUP BY 1"
    )


def q_cost_distance(sf_dir: str):
    """Weighted cost-distance raster (the GIS cost-surface / Dijkstra
    shape): minimum path cost from the seed cells through OCCUPIED
    cells only, where entering lattice cell (gy, gx) costs the
    deterministic integer weight 1 + (7*gy + 13*gx) % 4, over paths of
    at most COSTD_H hops (4-neighborhood, antimeridian wrap).  Same
    halo-exchange shape as q_grid_flood — a <=H-hop path stays within
    Manhattan H of its endpoint, so each tile plus an H-halo runs a
    dense hop-capped Bellman-Ford (Jacobi relaxation, H vectorized
    min-plus sweeps) locally; two exchanges total regardless of H.
    Output (cell_id, cost)."""
    k = DISSOLVE_RES
    W = 4 * 3 ** k
    D, T = COSTD_H, FLOOD_T
    L = T + 2 * D
    INF = np.int64(1 << 40)

    occ = band_counts(
        indexed_events(sf_dir, resolution=k), "n_seed",
        value=_flood_seed)

    def bellman(ty, tx, ly, lx, vals) -> pa.Table:
        ns = vals["n_seed"]
        # global coords of every local slot (gx wraps at the seam)
        gys = ty * T + np.arange(L) - D
        gxs = (tx * T + np.arange(L) - D) % W
        wgrid = 1 + (7 * gys[:, None] + 13 * gxs[None, :]) % COSTD_WMOD
        occg = np.zeros((L, L), dtype=bool)
        occg[ly, lx] = True
        dist = np.full((L, L), INF, dtype=np.int64)
        dist[ly[ns > 0], lx[ns > 0]] = 0
        for _hop in range(D):
            cand = np.full((L, L), INF, dtype=np.int64)
            cand[1:, :] = np.minimum(cand[1:, :], dist[:-1, :])
            cand[:-1, :] = np.minimum(cand[:-1, :], dist[1:, :])
            cand[:, 1:] = np.minimum(cand[:, 1:], dist[:, :-1])
            cand[:, :-1] = np.minimum(cand[:, :-1], dist[:, 1:])
            cand = np.where(cand >= INF, INF, cand + wgrid)
            dist = np.where(occg, np.minimum(dist, cand), INF)
        hy, hx, cell_id = home_cells(dist < INF, ty, tx, D)
        return pa.table({"cell_id": cell_id, "cost": pa.array(dist[hy, hx])})

    return halo_stencil(occ, D, ["n_seed"], bellman, pa.schema(
        [("cell_id", pa.string()), ("cost", pa.int64())]))


def sql_cost_distance() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)
    return f"""
WITH RECURSIVE cidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
cocc AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM cidx
),
cseeds AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM cidx
  WHERE event_id % {FLOOD_SEED_MOD} = 0
),
cnbr AS MATERIALIZED (
  SELECT gy, gx, gy AS ny, (gx + 1) % {W} AS nx FROM cocc
  UNION ALL SELECT gy, gx, gy, (gx + {W - 1}) % {W} FROM cocc
  UNION ALL SELECT gy, gx, gy + 1, gx FROM cocc
  UNION ALL SELECT gy, gx, gy - 1, gx FROM cocc
),
cadj AS MATERIALIZED (
  SELECT n.gy AS ay, n.gx AS ax, o.gy AS by_, o.gx AS bx,
    1 + (7 * o.gy + 13 * o.gx) % {COSTD_WMOD} AS wt
  FROM cnbr n JOIN cocc o ON o.gy = n.ny AND o.gx = n.nx
),
walk(gy, gx, d, c) AS (
  SELECT gy, gx, 0, 0 FROM cseeds
  UNION
  SELECT a.by_, a.bx, w.d + 1, w.c + a.wt FROM walk w
  JOIN cadj a ON a.ay = w.gy AND a.ax = w.gx
  WHERE w.d < {COSTD_H}
),
cbest AS MATERIALIZED (
  SELECT gy, gx, MIN(c) AS cost FROM walk GROUP BY 1, 2
)
SELECT {rebuild} AS cell_id, CAST(cost AS BIGINT) AS cost FROM cbest
"""


def q_zorder_layout(sf_dir: str):
    """Z-order data-layout statistics (the OPTIMIZE ZORDER /
    clustering-for-pruning shape): events map to the res-4 equatorial
    lattice, cells get a bit-interleaved Morton key, and Morton-prefix
    blocks (key >> 8) are the target file layout.  Per block: event
    and distinct-cell counts plus the gx/gy bounding box — the min/max
    column stats a scan planner would prune files with.  Per-batch
    partials collapse to distinct (block, cell) rows before ONE
    h(block)-bucket exchange.  Output (block, n_events, n_cells,
    gx_min, gx_max, gy_min, gy_max)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    k = DISSOLVE_RES
    side = 3 ** k
    nb = 8
    ds = indexed_events(sf_dir, resolution=k)

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        u = batch["cell_u64"].to_numpy(zero_copy_only=False)
        m = np.abs(lat) <= DISSOLVE_LAT
        u = u[m].astype(np.uint64)
        gy, gx = lattice_of_u64(u, k)
        cell = gy * (4 * side) + gx
        uq, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(uq), dtype=np.int64)
        np.add.at(n, inv, 1)
        ugy, ugx = uq // (4 * side), uq % (4 * side)
        block = _morton_interleave(ugx, ugy) >> ZORD_SHIFT
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(
                block.astype(np.uint64), nb)),
            "block": pa.array(block),
            "cell": pa.array(uq),
            "n": pa.array(n),
        })

    def resolve(g: pa.Table) -> pa.Table:
        cols = ["block", "n_events", "n_cells",
                "gx_min", "gx_max", "gy_min", "gy_max"]
        if g.num_rows == 0 or "block" not in g.column_names:
            return pa.table({c: pa.array([], type=pa.int64()) for c in cols})
        blk = g["block"].to_numpy(zero_copy_only=False)
        cell = g["cell"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        # same cell may arrive from several batches: collapse first
        cu, cinv = np.unique(cell, return_inverse=True)
        cn = np.zeros(len(cu), dtype=np.int64)
        np.add.at(cn, cinv, n)
        cgy, cgx = cu // (4 * side), cu % (4 * side)
        cblk = np.zeros(len(cu), dtype=np.int64)
        cblk[cinv] = blk  # block is a function of cell
        bu, binv = np.unique(cblk, return_inverse=True)
        ne = np.zeros(len(bu), dtype=np.int64)
        np.add.at(ne, binv, cn)
        nc = np.zeros(len(bu), dtype=np.int64)
        np.add.at(nc, binv, 1)
        gx_min = np.full(len(bu), np.iinfo(np.int64).max)
        gx_max = np.full(len(bu), np.iinfo(np.int64).min)
        gy_min = np.full(len(bu), np.iinfo(np.int64).max)
        gy_max = np.full(len(bu), np.iinfo(np.int64).min)
        np.minimum.at(gx_min, binv, cgx)
        np.maximum.at(gx_max, binv, cgx)
        np.minimum.at(gy_min, binv, cgy)
        np.maximum.at(gy_max, binv, cgy)
        return pa.table({
            "block": pa.array(bu), "n_events": pa.array(ne),
            "n_cells": pa.array(nc),
            "gx_min": pa.array(gx_min), "gx_max": pa.array(gx_max),
            "gy_min": pa.array(gy_min), "gy_max": pa.array(gy_max),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_zorder_layout() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    morton = " + ".join(
        f"((gx // {1 << b}) % 2) * {4 ** b} + ((gy // {1 << b}) % 2) * {2 * 4 ** b}"
        for b in range(9))
    return f"""
WITH zidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
), zg AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx FROM zidx
), zb AS MATERIALIZED (
  SELECT gy, gx, ({morton}) // {1 << ZORD_SHIFT} AS block FROM zg
)
SELECT CAST(block AS BIGINT) AS block,
  CAST(COUNT(*) AS BIGINT) AS n_events,
  CAST(COUNT(DISTINCT gy * {W} + gx) AS BIGINT) AS n_cells,
  CAST(MIN(gx) AS BIGINT) AS gx_min, CAST(MAX(gx) AS BIGINT) AS gx_max,
  CAST(MIN(gy) AS BIGINT) AS gy_min, CAST(MAX(gy) AS BIGINT) AS gy_max
FROM zb GROUP BY block
"""


def q_local_ij(sf_dir: str):
    """cellToLocalIj workalike (h3's experimental local integer
    coordinates): every distinct equatorial-band res-4 cell touched by
    an event maps to its global lattice coordinates (gy = row digits,
    gx = face offset + col digits, wrapping at the antimeridian seam)
    and back — the roundtrip rebuild is the output cell_id, so the
    compare itself proves ij -> cell inverts exactly.  Map + one
    distinct-cell exchange.  Output (cell_id, gi, gj)."""
    k = DISSOLVE_RES
    dist = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def ij(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        return pa.table({
            "cell_id": lattice_cell_ids(gy, gx, k),
            "gi": pa.array(gy),
            "gj": pa.array(gx),
        })

    return dist.map_batches(ij, batch_format="pyarrow", zero_copy_batch=True)


def sql_local_ij() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    return f"""
WITH ijx AS MATERIALIZED (
  SELECT DISTINCT cell_id FROM {idx_sql} t
)
SELECT cell_id, CAST({gy} AS BIGINT) AS gi, CAST({gx} AS BIGINT) AS gj
FROM ijx
"""


def q_hotspot_gi(sf_dir: str):
    """Getis-Ord Gi* hotspot detection over the res-4 equatorial
    lattice (the local sibling of q_morans_i): x = per-cell event
    count over the OCCUPIED-cell universe; for each occupied cell,
    gi = 3x3-neighborhood sum of x (seam wrap), ki = occupied
    neighbors, z from the global (n, sum x, sum x^2).  Shape: one
    exact u64 count exchange -> tile+1-halo dense stencil (grid_flood
    template, one more exchange); global stats are a driver fold over
    the counts table, which is BOUNDED by the lattice itself
    (4*3^4 * 3^4 = 26,244 cells max at any data scale).  Output
    (cell_id, gi, ki, z_micros)."""
    k = DISSOLVE_RES
    D = 1
    L = FLOOD_T + 2 * D

    counts = band_counts(  # two consumers: global stats + stencil
        indexed_events(sf_dir, resolution=k), "x").materialize()

    # global stats: lattice-bounded (<= 26,244 rows)
    n_tot, sx, sxx = 0, 0, 0
    for b in counts.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            xv = b["x"].to_numpy(zero_copy_only=False)
            n_tot += len(xv)
            sx += int(xv.sum())
            sxx += int((xv * xv).sum())

    def stencil(ty, tx, ly, lx, vals) -> pa.Table:
        occ = np.zeros((L, L), dtype=bool)
        X = np.zeros((L, L), dtype=np.int64)
        occ[ly, lx] = True
        X[ly, lx] = vals["x"]
        giq = np.zeros((L, L), dtype=np.int64)
        kiq = np.zeros((L, L), dtype=np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                giq += np.roll(np.roll(X, dy, axis=0), dx, axis=1)
                kiq += np.roll(np.roll(occ.astype(np.int64), dy, axis=0),
                               dx, axis=1)
        # np.roll wraps tile-locally which is WRONG at tile borders —
        # but home cells sit >= D from the local edge, so their 3x3
        # window never touches a rolled-in value
        hy, hx, cell_id = home_cells(occ, ty, tx, D)
        gi = giq[hy, hx]
        ki = kiq[hy, hx]
        z = _gi_z(gi, ki, n_tot, float(sx), float(sxx))
        return pa.table({
            "cell_id": cell_id,
            "gi": pa.array(gi),
            "ki": pa.array(ki),
            "z_micros": pa.array(np.floor(z * 1e6).astype(np.int64)),
        })

    return halo_stencil(counts, D, ["x"], stencil, pa.schema(
        [("cell_id", pa.string()), ("gi", pa.int64()), ("ki", pa.int64()),
         ("z_micros", pa.int64())]))


def sql_hotspot_gi() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)
    return f"""
WITH hidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
hx AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx, CAST(COUNT(*) AS BIGINT) AS x
  FROM hidx GROUP BY 1, 2
),
hglob AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS sx,
    CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM hx
),
hoff AS MATERIALIZED (
  SELECT dy.dy, dx.dx FROM
    (SELECT unnest(generate_series(-1, 1)) AS dy) dy,
    (SELECT unnest(generate_series(-1, 1)) AS dx) dx
),
hnb AS MATERIALIZED (
  SELECT h.gy AS hy, h.gx AS hx2,
    CAST(SUM(o.x) AS BIGINT) AS gi, CAST(COUNT(*) AS BIGINT) AS ki
  FROM hx h
  JOIN hoff f ON TRUE
  JOIN hx o ON o.gy = h.gy + f.dy
    AND o.gx = ((h.gx + f.dx) % {W} + {W}) % {W}
  GROUP BY 1, 2
),
hz AS MATERIALIZED (
  SELECT hy AS gy, hx2 AS gx, gi, ki,
    CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS xbar,
    CAST(sxx AS DOUBLE) / CAST(n AS DOUBLE)
      - (CAST(sx AS DOUBLE) / CAST(n AS DOUBLE))
        * (CAST(sx AS DOUBLE) / CAST(n AS DOUBLE)) AS s2,
    CAST(n AS DOUBLE) AS nf, CAST(ki AS DOUBLE) AS kf
  FROM hnb, hglob
)
SELECT {rebuild} AS cell_id, gi, ki,
  CAST(floor(CASE WHEN s2 > 0
    AND sqrt(s2) * sqrt((nf * kf - kf * kf) / (nf - {oracle._lit(1.0)})) > 0
    THEN (CAST(gi AS DOUBLE) - kf * xbar)
      / (sqrt(s2) * sqrt((nf * kf - kf * kf) / (nf - {oracle._lit(1.0)})))
    ELSE {oracle._lit(0.0)} END * {oracle._lit(1e6)}) AS BIGINT) AS z_micros
FROM hz
"""


def q_snap_to_line(sf_dir: str):
    """Map-matching-lite: snap every event within SNAP_R2 of the fixed
    polyline to its nearest segment point in planar rHEALPix meters —
    nearest (d2, seg) wins, t clamped to [0, 1].  Pure map over events
    (the full forward projection runs in-batch); every float op
    mirrors the SQL expression shape exactly, so t/d2 quantizations
    are bit-identical.  Output (event_id, seg, t_e6, d2_sc)."""
    from rhealpixdggs_py_ray.core import projection as proj

    segs = _snap_segments()
    ds = _read(sf_dir, "events", columns=["event_id"])

    def snap(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        px, py = proj.forward(CFG, lon, lat)
        n = len(ids)
        D2 = np.empty((n, len(segs)), dtype=np.float64)
        T = np.empty((n, len(segs)), dtype=np.float64)
        for i, (ax, ay, dxab, dyab, len2) in enumerate(segs):
            t = ((px - ax) * dxab + (py - ay) * dyab) / len2
            t = np.minimum(np.maximum(t, 0.0), 1.0)
            ddx = px - (ax + t * dxab)
            ddy = py - (ay + t * dyab)
            D2[:, i] = ddx * ddx + ddy * ddy
            T[:, i] = t
        seg = np.argmin(D2, axis=1)       # first min == smallest seg
        rows = np.arange(n)
        d2 = D2[rows, seg]
        t = T[rows, seg]
        m = d2 <= SNAP_R2
        return pa.table({
            "event_id": pa.array(ids[m]),
            "seg": pa.array(seg[m].astype(np.int64)),
            "t_e6": pa.array(np.floor(t[m] * 1e6).astype(np.int64)),
            "d2_sc": pa.array(np.floor(d2[m] * 1e-6).astype(np.int64)),
        })

    return ds.map_batches(snap, batch_format="pyarrow", zero_copy_batch=True)


def sql_snap_to_line() -> str:
    segs = _snap_segments()
    L = oracle._lit
    proj_sql = oracle.projection_sql(
        _points_sql("events", "event_id"), CFG, id_cols=("event_id",))
    t_cols, d_cols = [], []
    for i, (ax, ay, dxab, dyab, len2) in enumerate(segs):
        t = (f"least(greatest(((xm - {L(ax)}) * {L(dxab)}"
             f" + (ym - {L(ay)}) * {L(dyab)}) / {L(len2)},"
             f" {L(0.0)}), {L(1.0)})")
        t_cols.append(f"{t} AS t{i}")
        d_cols.append(
            f"(xm - ({L(ax)} + t{i} * {L(dxab)}))"
            f" * (xm - ({L(ax)} + t{i} * {L(dxab)}))"
            f" + (ym - ({L(ay)} + t{i} * {L(dyab)}))"
            f" * (ym - ({L(ay)} + t{i} * {L(dyab)})) AS d{i}")
    ns = len(segs)
    seg_rows = " UNION ALL ".join(
        f"SELECT event_id, {i} AS seg, t{i} AS t, d{i} AS d2 FROM sd"
        for i in range(ns))
    return f"""
WITH sp AS MATERIALIZED (
  SELECT event_id, xm, ym FROM {proj_sql} q
), st AS MATERIALIZED (
  SELECT event_id, xm, ym, {", ".join(t_cols)} FROM sp
), sd AS MATERIALIZED (
  SELECT event_id, {", ".join(f"t{i}" for i in range(ns))},
    {", ".join(d_cols)} FROM st
), su AS MATERIALIZED ({seg_rows}),
sbest AS MATERIALIZED (
  SELECT event_id, seg, t, d2 FROM (
    SELECT event_id, seg, t, d2,
      row_number() OVER (PARTITION BY event_id ORDER BY d2, seg) AS rn
    FROM su
  ) WHERE rn = 1
)
SELECT event_id, CAST(seg AS BIGINT) AS seg,
  CAST(floor(t * {L(1e6)}) AS BIGINT) AS t_e6,
  CAST(floor(d2 * {L(1e-6)}) AS BIGINT) AS d2_sc
FROM sbest WHERE d2 <= {L(SNAP_R2)}
"""


def q_cell_edges(sf_dir: str):
    """Directed-edge API workalike (h3's cellsToDirectedEdge /
    originToDirectedEdges family) on the res-4 equatorial lattice:
    every distinct occupied cell emits its 4 directed edges — edge_id
    packs (gy, gx, dir), the neighbor is the lattice step with
    antimeridian wrap; steps off the band's gy range drop (the polar
    crossings belong to the topology kernel, not the integer lattice).
    Map + one distinct-cell exchange.  Output (cell_id, dir, edge_id,
    nbr_cell_id)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    dist = band_counts(indexed_events(sf_dir, resolution=k), "n")

    # dir 0=E, 1=W, 2=N (gy-1), 3=S (gy+1)
    DX = np.array([1, -1, 0, 0], dtype=np.int64)
    DY = np.array([0, 0, -1, 1], dtype=np.int64)

    def edges(batch: pa.Table) -> pa.Table:
        u = batch["cell_u64"].to_numpy(zero_copy_only=False).astype(np.uint64)
        gy, gx = lattice_of_u64(u, k)
        n = len(u)
        gy4 = np.repeat(gy, 4)
        gx4 = np.repeat(gx, 4)
        dir4 = np.tile(np.arange(4, dtype=np.int64), n)
        ny = gy4 + DY[dir4]
        nx = (gx4 + DX[dir4]) % W
        ok = (ny >= 0) & (ny < side)
        gy4, gx4, dir4, ny, nx = gy4[ok], gx4[ok], dir4[ok], ny[ok], nx[ok]
        return pa.table({
            "cell_id": lattice_cell_ids(gy4, gx4, k),
            "dir": pa.array(dir4),
            "edge_id": pa.array((gy4 * W + gx4) * 4 + dir4),
            "nbr_cell_id": lattice_cell_ids(ny, nx, k),
        })

    return dist.map_batches(edges, batch_format="pyarrow",
                            zero_copy_batch=True)


def sql_cell_edges() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)

    def rebuild(gy_e: str, gx_e: str) -> str:
        return _lattice_cell_sql(f"({gy_e})", f"({gx_e})", k)

    return f"""
WITH ceidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
cec AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM ceidx
),
ced AS MATERIALIZED (
  SELECT gy, gx, dir,
    gy + CASE dir WHEN 2 THEN -1 WHEN 3 THEN 1 ELSE 0 END AS ny,
    ((gx + CASE dir WHEN 0 THEN 1 WHEN 1 THEN -1 ELSE 0 END) % {W} + {W})
      % {W} AS nx
  FROM cec CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS dir) dd
)
SELECT {rebuild('gy', 'gx')} AS cell_id, CAST(dir AS BIGINT) AS dir,
  CAST((gy * {W} + gx) * 4 + dir AS BIGINT) AS edge_id,
  {rebuild('ny', 'nx')} AS nbr_cell_id
FROM ced WHERE ny >= 0 AND ny < {side}
"""


def q_geofence_transitions(sf_dir: str):
    """Geofence monitoring: each user's events ordered by (ts,
    event_id) form a track; the fence is the union of two res-1 cells
    (N4, S4), membership decided by the full cell_from_point chain.
    Per user: events inside, enters (outside->inside steps; an inside
    FIRST event counts as an entry), exits, and the final state.  ONE
    h(user) bucket exchange; inside a bucket one lexsort + vectorized
    flag diff over the whole bucket (user boundaries masked) — the
    trajectory_segments scale shape."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    fence = su.from_string(list(FENCE_CELLS)).astype(np.uint64)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        lon, lat = oracle.lonlat_from_id(eid)
        u = idx.cell_from_point(CFG, FENCE_RES, lon, lat, plane=False)
        ins = np.isin(u.astype(np.uint64), fence).astype(np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(eid.astype(np.int64)),
            "ins": pa.array(ins),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        ins = g["ins"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, ins = uid[order], ins[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        prev = np.r_[0, ins[:-1]]
        enter = (ins == 1) & (new_seg | (prev == 0))
        exit_ = (ins == 0) & ~new_seg & (prev == 1)
        uu, inv = np.unique(uid, return_inverse=True)
        n_ev = np.bincount(inv, minlength=len(uu)).astype(np.int64)
        n_in = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n_in, inv, ins)
        n_ent = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n_ent, inv, enter.astype(np.int64))
        n_ex = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n_ex, inv, exit_.astype(np.int64))
        ends = np.r_[np.flatnonzero(new_seg)[1:] - 1, len(uid) - 1]
        return pa.table({
            "user_id": pa.array(uu),
            "n_events": pa.array(n_ev),
            "n_inside": pa.array(n_in),
            "n_enter": pa.array(n_ent),
            "n_exit": pa.array(n_ex),
            "last_inside": pa.array(ins[ends].astype(np.int64)),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_geofence_transitions() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), FENCE_RES, CFG,
        id_cols=("event_id",),
    )
    fence = ", ".join(f"'{c}'" for c in FENCE_CELLS)
    return f"""
WITH gfidx AS MATERIALIZED (
  SELECT event_id,
    CASE WHEN cell_id IN ({fence}) THEN 1 ELSE 0 END AS ins
  FROM {inner} t
),
gfe AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id, c.ins
  FROM events e JOIN gfidx c USING (event_id)
),
gfl AS MATERIALIZED (
  SELECT user_id, ins,
    lag(ins) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pins,
    row_number() OVER (PARTITION BY user_id ORDER BY ts DESC,
      event_id DESC) AS rn_last
  FROM gfe
)
SELECT user_id,
  CAST(COUNT(*) AS BIGINT) AS n_events,
  CAST(COUNT(*) FILTER (WHERE ins = 1) AS BIGINT) AS n_inside,
  CAST(COUNT(*) FILTER (WHERE ins = 1 AND (pins IS NULL OR pins = 0))
    AS BIGINT) AS n_enter,
  CAST(COUNT(*) FILTER (WHERE ins = 0 AND pins = 1) AS BIGINT) AS n_exit,
  CAST(MAX(CASE WHEN rn_last = 1 THEN ins END) AS BIGINT) AS last_inside
FROM gfl GROUP BY user_id
"""


def q_hausdorff(sf_dir: str):
    """Symmetric Hausdorff distance between every user's event point
    set and a fixed reference point set, in planar rHEALPix meters —
    the trajectory-vs-route similarity primitive.  Distances are
    integer-quantized PER PAIR (floor(d2 * 1e-6)) before any min/max,
    so every reduction is an order-free integer fold: per batch one
    wide partial row per user (max of per-event min, and per-ref-point
    min); ONE h(user) exchange folds partials.  The corpus never
    shuffles raw points.  Output (user_id, h_ab = max_a min_b,
    h_ba = max_b min_a, hausdorff = max of the two)."""
    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    pts = _haus_xy()
    J = len(pts)
    n_buckets = sizing.exchange_buckets(8)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        px, py = proj.forward(CFG, lon, lat)
        n = len(ids)
        Q = np.empty((n, J), dtype=np.int64)
        for j, (ax, ay) in enumerate(pts):
            ddx = px - ax
            ddy = py - ay
            Q[:, j] = np.floor((ddx * ddx + ddy * ddy) * 1e-6).astype(np.int64)
        emin = Q.min(axis=1)
        uu, inv = np.unique(uid, return_inverse=True)
        amax = np.full(len(uu), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(amax, inv, emin)
        cols = {
            "bucket": pa.array(hash_bucket_u64(uu, n_buckets)),
            "user_id": pa.array(uu.astype(np.int64)),
            "amax": pa.array(amax),
        }
        for j in range(J):
            mj = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(mj, inv, Q[:, j])
            cols[f"m{j}"] = pa.array(mj)
        return pa.table(cols)

    def resolve(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        h_ab = np.full(len(uu), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(h_ab, inv, g["amax"].to_numpy(zero_copy_only=False))
        h_ba = np.full(len(uu), np.iinfo(np.int64).min, dtype=np.int64)
        for j in range(J):
            mj = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(mj, inv, g[f"m{j}"].to_numpy(zero_copy_only=False))
            h_ba = np.maximum(h_ba, mj)
        return pa.table({
            "user_id": pa.array(uu),
            "h_ab": pa.array(h_ab),
            "h_ba": pa.array(h_ba),
            "hausdorff": pa.array(np.maximum(h_ab, h_ba)),
        })

    b = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def sql_hausdorff() -> str:
    pts = _haus_xy()
    L = oracle._lit
    proj_sql = oracle.projection_sql(
        _points_sql("events", "event_id"), CFG, id_cols=("event_id",))
    q_cols = ", ".join(
        f"CAST(floor(((xm - {L(ax)}) * (xm - {L(ax)})"
        f" + (ym - {L(ay)}) * (ym - {L(ay)})) * {L(1e-6)}) AS BIGINT) AS q{j}"
        for j, (ax, ay) in enumerate(pts))
    J = len(pts)
    qs = ", ".join(f"q{j}" for j in range(J))
    mins = ", ".join(f"MIN(q{j})" for j in range(J))
    return f"""
WITH hsp AS MATERIALIZED (
  SELECT event_id, xm, ym FROM {proj_sql} q
),
hsd AS MATERIALIZED (
  SELECT e.user_id, {q_cols}
  FROM hsp p JOIN events e USING (event_id)
),
hsr AS MATERIALIZED (
  SELECT user_id, MAX(least({qs})) AS h_ab, greatest({mins}) AS h_ba
  FROM hsd GROUP BY user_id
)
SELECT user_id, h_ab, h_ba, greatest(h_ab, h_ba) AS hausdorff FROM hsr
"""


def q_viewshed(sf_dir: str):
    """Viewshed: which occupied res-4 lattice cells within Chebyshev
    radius VIEW_R of a fixed observer are VISIBLE over deterministic
    integer terrain.  The sightline to a target at distance n is
    sampled on the grid_path DDA (round-half-up in exact integer
    arithmetic); step k blocks iff elev_k * n > h0*(n-k) + ht*k — an
    integer cross-multiplication, so visibility is bit-exact with no
    float slope anywhere.  Distinct occupied cells come from ONE
    u64-keyed exchange; the DDA loop is vectorized across all targets
    (k = 1..R-1 sweeps, each a masked numpy step).  Output (cell_id,
    dist, elev, visible)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    oy, ox = VIEW_OBS
    h0 = _view_elev(oy, ox) + VIEW_OBS_H

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def los(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        dr = gy - oy
        dcn = ((gx - ox) % W + W) % W
        dc = np.where(dcn >= W // 2, dcn - W, dcn)
        n = np.maximum(np.abs(dr), np.abs(dc))
        m = (n >= 1) & (n <= VIEW_R)
        gy, gx, dr, dc, n = gy[m], gx[m], dr[m], dc[m], n[m]
        ht = _view_elev(gy, gx)
        blocked = np.zeros(len(n), dtype=bool)
        for kk in range(1, VIEW_R):
            live = kk < n
            if not live.any():
                break
            rk = oy + (2 * kk * dr + n) // (2 * n)
            ck = (ox + (2 * kk * dc + n) // (2 * n)) % W
            ek = _view_elev(rk, ck)
            blocked |= live & (ek * n > h0 * (n - kk) + ht * kk)
        return pa.table({
            "cell_id": lattice_cell_ids(gy, gx, k),
            "dist": pa.array(n),
            "elev": pa.array(ht),
            "visible": pa.array((~blocked).astype(np.int64)),
        })

    return occ.map_batches(los, batch_format="pyarrow", zero_copy_batch=True)


def sql_viewshed() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    oy, ox = VIEW_OBS
    h0 = _view_elev(oy, ox) + VIEW_OBS_H
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)
    return f"""
WITH vsi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
vsc AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM vsi
),
vsb AS MATERIALIZED (
  SELECT gy, gx, dr,
    CASE WHEN dcn >= {W // 2} THEN dcn - {W} ELSE dcn END AS dc,
    greatest(abs(dr), abs(CASE WHEN dcn >= {W // 2} THEN dcn - {W}
      ELSE dcn END)) AS n,
    (11 * gy + 17 * gx) % 997 AS ht
  FROM (
    SELECT gy, gx, gy - {oy} AS dr,
      (((gx - {ox}) % {W}) + {W}) % {W} AS dcn
    FROM vsc
  )
  WHERE greatest(abs(dr), abs(CASE WHEN dcn >= {W // 2} THEN dcn - {W}
    ELSE dcn END)) BETWEEN 1 AND {VIEW_R}
),
vss AS MATERIALIZED (
  SELECT gy, gx,
    ({oy} + CAST(floor((2.0 * kk * dr + n) / (2 * n)) AS BIGINT)) AS rk,
    (({ox} + CAST(floor((2.0 * kk * dc + n) / (2 * n)) AS BIGINT)) % {W}
      + {W}) % {W} AS ck,
    n, ht, kk
  FROM vsb, unnest(generate_series(1, n - 1)) AS t(kk)
),
vsk AS MATERIALIZED (
  SELECT gy, gx, CAST(COUNT(*) FILTER (
    WHERE (11 * rk + 17 * ck) % 997 * n > {h0} * (n - kk) + ht * kk
  ) AS BIGINT) AS nb
  FROM vss GROUP BY gy, gx
)
SELECT {rebuild} AS cell_id, CAST(n AS BIGINT) AS dist,
  CAST(ht AS BIGINT) AS elev,
  CAST(CASE WHEN COALESCE(nb, 0) = 0 THEN 1 ELSE 0 END AS BIGINT) AS visible
FROM vsb LEFT JOIN vsk USING (gy, gx)
"""


def q_frechet(sf_dir: str):
    """Discrete Frechet distance (the leash metric for route
    similarity) between each user's first FRECHET_P events (ordered by
    ts, event_id) and the fixed reference route, in planar rHEALPix
    meters.  Per-pair costs are integer-quantized (floor(d2 * 1e-6))
    BEFORE the DP, so every max/min in the recurrence is an order-free
    integer fold and SQL replays it as 30 unrolled lateral-alias
    columns.  ONE h(user) exchange; the DP is vectorized ACROSS users
    (P x M sweeps of whole-bucket numpy ops, no per-user loop).
    Output (user_id, n_pts, frechet)."""
    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    ref = _frechet_ref()
    M = len(ref)
    P = FRECHET_P
    n_buckets = sizing.exchange_buckets(8)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        px, py = proj.forward(CFG, *oracle.lonlat_from_id(ids))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(ids.astype(np.int64)),
            "px": pa.array(px), "py": pa.array(py),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        px = g["px"].to_numpy(zero_copy_only=False)[order]
        py = g["py"].to_numpy(zero_copy_only=False)[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        rank = np.arange(len(uid)) - np.repeat(
            starts, np.diff(np.append(starts, len(uid))))
        keep = rank < P
        uid, px, py, rank = uid[keep], px[keep], py[keep], rank[keep]
        uu, inv = np.unique(uid, return_inverse=True)
        nu = len(uu)
        n_pts = np.bincount(inv, minlength=nu).astype(np.int64)
        # cost cube C[u, i, j]; slots beyond n_pts stay at sentinel and
        # are never read (the answer indexes row n_pts-1)
        C = np.full((nu, P, M), np.int64(1 << 60), dtype=np.int64)
        for j, (ax, ay) in enumerate(ref):
            ddx = px - ax
            ddy = py - ay
            C[inv, rank, j] = np.floor(
                (ddx * ddx + ddy * ddy) * 1e-6).astype(np.int64)
        D = np.empty_like(C)
        for i in range(P):
            for j in range(M):
                if i == 0 and j == 0:
                    best = C[:, 0, 0]
                elif i == 0:
                    best = np.maximum(C[:, 0, j], D[:, 0, j - 1])
                elif j == 0:
                    best = np.maximum(C[:, i, 0], D[:, i - 1, 0])
                else:
                    best = np.maximum(C[:, i, j], np.minimum(
                        np.minimum(D[:, i - 1, j], D[:, i, j - 1]),
                        D[:, i - 1, j - 1]))
                D[:, i, j] = best
        return pa.table({
            "user_id": pa.array(uu),
            "n_pts": pa.array(n_pts),
            "frechet": pa.array(D[np.arange(nu), n_pts - 1, M - 1]),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_frechet() -> str:
    ref = _frechet_ref()
    M = len(ref)
    P = FRECHET_P
    L = oracle._lit
    proj_sql = oracle.projection_sql(
        _points_sql("events", "event_id"), CFG, id_cols=("event_id",))
    cost_cols = ", ".join(
        f"CAST(floor(((xm - {L(ax)}) * (xm - {L(ax)})"
        f" + (ym - {L(ay)}) * (ym - {L(ay)})) * {L(1e-6)}) AS BIGINT) AS c{j}"
        for j, (ax, ay) in enumerate(ref))
    pivot = ", ".join(
        f"MAX(CASE WHEN rn = {i + 1} THEN c{j} END) AS c{i}{j}"
        for i in range(P) for j in range(M))
    dp = []
    for i in range(P):
        for j in range(M):
            if i == 0 and j == 0:
                dp.append("c00 AS d00")
            elif i == 0:
                dp.append(f"greatest(c0{j}, d0{j - 1}) AS d0{j}")
            elif j == 0:
                dp.append(f"greatest(c{i}0, d{i - 1}0) AS d{i}0")
            else:
                dp.append(
                    f"greatest(c{i}{j}, least(d{i - 1}{j}, d{i}{j - 1},"
                    f" d{i - 1}{j - 1})) AS d{i}{j}")
    final = " ".join(
        f"WHEN {i + 1} THEN d{i}{M - 1}" for i in range(P))
    return f"""
WITH frp AS MATERIALIZED (
  SELECT event_id, xm, ym FROM {proj_sql} q
),
fre AS MATERIALIZED (
  SELECT e.user_id, {cost_cols},
    row_number() OVER (PARTITION BY e.user_id ORDER BY e.ts, e.event_id)
      AS rn
  FROM frp p JOIN events e USING (event_id)
),
frw AS MATERIALIZED (
  SELECT user_id, CAST(least(COUNT(*), {P}) AS BIGINT) AS n_pts, {pivot}
  FROM fre WHERE rn <= {P} GROUP BY user_id
),
frd AS MATERIALIZED (
  SELECT user_id, n_pts, {", ".join(dp)} FROM frw
)
SELECT user_id, n_pts, CASE n_pts {final} END AS frechet FROM frd
"""


def q_simplify_track(sf_dir: str):
    """Imai-Iri polyline simplification (the optimal counterpart of
    Douglas-Peucker): per user, the MINIMUM number of vertices of a
    subsequence chain whose every shortcut (i, j) keeps all skipped
    points within sqrt(SIMP_EPS2) of the segment, over the first
    SIMP_P track points.  Shortcut tests reuse the snap_to_line
    clamp-projection float shape (bit-identical in SQL); the DAG
    shortest path is ONE ascending Bellman sweep vectorized across all
    users in a bucket.  ONE h(user) exchange.  Output (user_id, n_pts,
    n_kept, direct_ok)."""
    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    P = SIMP_P
    n_buckets = sizing.exchange_buckets(8)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        px, py = proj.forward(CFG, *oracle.lonlat_from_id(ids))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(ids.astype(np.int64)),
            "px": pa.array(px), "py": pa.array(py),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        px = g["px"].to_numpy(zero_copy_only=False)[order]
        py = g["py"].to_numpy(zero_copy_only=False)[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        rank = np.arange(len(uid)) - np.repeat(
            starts, np.diff(np.append(starts, len(uid))))
        keep = rank < P
        uid, px, py, rank = uid[keep], px[keep], py[keep], rank[keep]
        uu, inv = np.unique(uid, return_inverse=True)
        nu = len(uu)
        n_pts = np.bincount(inv, minlength=nu).astype(np.int64)
        X = np.zeros((nu, P), dtype=np.float64)
        Y = np.zeros((nu, P), dtype=np.float64)
        X[inv, rank] = px
        Y[inv, rank] = py
        # shortcut admissibility: E[:, i, j] (slots past n_pts unused)
        E = np.zeros((nu, P, P), dtype=bool)
        for i in range(P - 1):
            for j in range(i + 1, P):
                dx = X[:, j] - X[:, i]
                dy = Y[:, j] - Y[:, i]
                len2 = dx * dx + dy * dy
                ok = np.ones(nu, dtype=bool)
                for k in range(i + 1, j):
                    tt = ((X[:, k] - X[:, i]) * dx
                          + (Y[:, k] - Y[:, i]) * dy) / len2
                    tt = np.minimum(np.maximum(tt, 0.0), 1.0)
                    ddx = X[:, k] - (X[:, i] + tt * dx)
                    ddy = Y[:, k] - (Y[:, i] + tt * dy)
                    ok &= (ddx * ddx + ddy * ddy) <= SIMP_EPS2
                E[:, i, j] = ok
        # DAG min-hop: one ascending sweep (edges only go forward)
        INF = np.int64(1 << 40)
        dist = np.full((nu, P), INF, dtype=np.int64)
        dist[:, 0] = 0
        for j in range(1, P):
            for i in range(j):
                cand = np.where(E[:, i, j], dist[:, i] + 1, INF)
                dist[:, j] = np.minimum(dist[:, j], cand)
        n_kept = np.where(
            n_pts == 1, 1, dist[np.arange(nu), n_pts - 1] + 1)
        direct = E[np.arange(nu), 0, np.maximum(n_pts - 1, 1)]
        direct = np.where(n_pts <= 2, 1, direct.astype(np.int64))
        return pa.table({
            "user_id": pa.array(uu),
            "n_pts": pa.array(n_pts),
            "n_kept": pa.array(n_kept.astype(np.int64)),
            "direct_ok": pa.array(direct.astype(np.int64)),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_simplify_track() -> str:
    P = SIMP_P
    L = oracle._lit
    proj_sql = oracle.projection_sql(
        _points_sql("events", "event_id"), CFG, id_cols=("event_id",))
    # chained min-hop CTEs: std1 = nodes reachable in 1 hop from rn=1,
    # std_h extends by one edge, MIN-merged; P-1 hops always suffice
    chain = []
    prev = "std1"
    chain.append(
        "std1 AS MATERIALIZED (SELECT user_id, j AS node, 1 AS d"
        " FROM ste WHERE i = 1)")
    for h in range(2, P):
        cur = f"std{h}"
        chain.append(
            f"{cur} AS MATERIALIZED (SELECT user_id, node, MIN(d) AS d FROM ("
            f" SELECT user_id, node, d FROM {prev}"
            f" UNION ALL"
            f" SELECT e.user_id, e.j AS node, p.d + 1 AS d"
            f" FROM {prev} p JOIN ste e ON e.user_id = p.user_id"
            f" AND e.i = p.node"
            f") GROUP BY user_id, node)")
        prev = cur
    tt = (f"least(greatest(((k.xm - a.xm) * (b.xm - a.xm)"
          f" + (k.ym - a.ym) * (b.ym - a.ym))"
          f" / ((b.xm - a.xm) * (b.xm - a.xm)"
          f" + (b.ym - a.ym) * (b.ym - a.ym)), {L(0.0)}), {L(1.0)})")
    d2 = (f"(k.xm - (a.xm + {tt} * (b.xm - a.xm)))"
          f" * (k.xm - (a.xm + {tt} * (b.xm - a.xm)))"
          f" + (k.ym - (a.ym + {tt} * (b.ym - a.ym)))"
          f" * (k.ym - (a.ym + {tt} * (b.ym - a.ym)))")
    return f"""
WITH stpp AS MATERIALIZED (
  SELECT event_id, xm, ym FROM {proj_sql} q
),
stp AS MATERIALIZED (
  SELECT user_id, xm, ym, rn FROM (
    SELECT e.user_id, p.xm, p.ym,
      row_number() OVER (PARTITION BY e.user_id ORDER BY e.ts, e.event_id)
        AS rn
    FROM stpp p JOIN events e USING (event_id)
  ) WHERE rn <= {P}
),
stn AS MATERIALIZED (
  SELECT user_id, CAST(MAX(rn) AS BIGINT) AS n FROM stp GROUP BY user_id
),
ste AS MATERIALIZED (
  SELECT a.user_id, a.rn AS i, b.rn AS j
  FROM stp a
  JOIN stp b ON b.user_id = a.user_id AND b.rn > a.rn
  LEFT JOIN stp k ON k.user_id = a.user_id AND k.rn > a.rn AND k.rn < b.rn
  GROUP BY a.user_id, a.rn, b.rn
  HAVING bool_and(k.rn IS NULL OR {d2} <= {L(SIMP_EPS2)})
),
{", ".join(chain)}
SELECT s.user_id, s.n AS n_pts,
  CAST(CASE WHEN s.n = 1 THEN 1 ELSE d.d + 1 END AS BIGINT) AS n_kept,
  CAST(CASE WHEN s.n <= 2 THEN 1
    WHEN EXISTS (SELECT 1 FROM ste e WHERE e.user_id = s.user_id
      AND e.i = 1 AND e.j = s.n) THEN 1 ELSE 0 END AS BIGINT) AS direct_ok
FROM stn s LEFT JOIN std{P - 1} d ON d.user_id = s.user_id AND d.node = s.n
"""


def q_map_match(sf_dir: str):
    """HMM map-matching (the Viterbi core of every GPS-to-road-network
    matcher): states = the 4 reference route segments, emissions =
    integer-quantized clamp-projection distances (the snap_to_line
    float shape, floor(d2 * 1e-6) BEFORE the DP), transitions =
    MM_PEN * |segment jump|.  All-integer Viterbi -> order-free
    min/adds that SQL replays as 24 unrolled lateral-alias columns.
    ONE h(user) exchange; the DP is vectorized across users (T x S
    sweeps).  Output (user_id, n_pts, cost, end_seg)."""
    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    segs = _snap_segments()
    S = len(segs)
    T = MM_T
    n_buckets = sizing.exchange_buckets(8)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        px, py = proj.forward(CFG, *oracle.lonlat_from_id(ids))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(ids.astype(np.int64)),
            "px": pa.array(px), "py": pa.array(py),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        tt_ = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, tt_, uid))
        uid = uid[order]
        px = g["px"].to_numpy(zero_copy_only=False)[order]
        py = g["py"].to_numpy(zero_copy_only=False)[order]
        new_seg = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_seg)
        rank = np.arange(len(uid)) - np.repeat(
            starts, np.diff(np.append(starts, len(uid))))
        keep = rank < T
        uid, px, py, rank = uid[keep], px[keep], py[keep], rank[keep]
        uu, inv = np.unique(uid, return_inverse=True)
        nu = len(uu)
        n_pts = np.bincount(inv, minlength=nu).astype(np.int64)
        E = np.full((nu, T, S), np.int64(1 << 50), dtype=np.int64)
        for s, (ax, ay, dxab, dyab, len2) in enumerate(segs):
            tcl = ((px - ax) * dxab + (py - ay) * dyab) / len2
            tcl = np.minimum(np.maximum(tcl, 0.0), 1.0)
            ddx = px - (ax + tcl * dxab)
            ddy = py - (ay + tcl * dyab)
            E[inv, rank, s] = np.floor(
                (ddx * ddx + ddy * ddy) * 1e-6).astype(np.int64)
        V = np.empty_like(E)
        V[:, 0, :] = E[:, 0, :]
        for t in range(1, T):
            for s in range(S):
                best = V[:, t - 1, 0] + MM_PEN * abs(s - 0)
                for sp in range(1, S):
                    best = np.minimum(
                        best, V[:, t - 1, sp] + MM_PEN * abs(s - sp))
                V[:, t, s] = E[:, t, s] + best
        rows = np.arange(nu)
        fin = V[rows, n_pts - 1, :]
        cost = fin.min(axis=1)
        end_seg = fin.argmin(axis=1)
        return pa.table({
            "user_id": pa.array(uu),
            "n_pts": pa.array(n_pts),
            "cost": pa.array(cost),
            "end_seg": pa.array(end_seg.astype(np.int64)),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_map_match() -> str:
    segs = _snap_segments()
    S = len(segs)
    T = MM_T
    L = oracle._lit
    proj_sql = oracle.projection_sql(
        _points_sql("events", "event_id"), CFG, id_cols=("event_id",))
    e_cols = []
    for s, (ax, ay, dxab, dyab, len2) in enumerate(segs):
        tcl = (f"least(greatest(((xm - {L(ax)}) * {L(dxab)}"
               f" + (ym - {L(ay)}) * {L(dyab)}) / {L(len2)},"
               f" {L(0.0)}), {L(1.0)})")
        e_cols.append(
            f"CAST(floor(((xm - ({L(ax)} + {tcl} * {L(dxab)}))"
            f" * (xm - ({L(ax)} + {tcl} * {L(dxab)}))"
            f" + (ym - ({L(ay)} + {tcl} * {L(dyab)}))"
            f" * (ym - ({L(ay)} + {tcl} * {L(dyab)}))) * {L(1e-6)})"
            f" AS BIGINT) AS e{s}")
    pivot = ", ".join(
        f"MAX(CASE WHEN rn = {t + 1} THEN e{s} END) AS e{t}{s}"
        for t in range(T) for s in range(S))
    dp = [f"e0{s} AS v0{s}" for s in range(S)]
    for t in range(1, T):
        for s in range(S):
            terms = ", ".join(
                f"v{t - 1}{sp} + {MM_PEN * abs(s - sp)}" for sp in range(S))
            dp.append(f"e{t}{s} + least({terms}) AS v{t}{s}")
    fin_cost, fin_seg = [], []
    for n in range(1, T + 1):
        vs = ", ".join(f"v{n - 1}{s}" for s in range(S))
        fin_cost.append(f"WHEN {n} THEN least({vs})")
        seg_case = " ".join(
            f"WHEN v{n - 1}{s} = least({vs}) THEN {s}" for s in range(S))
        fin_seg.append(f"WHEN {n} THEN (CASE {seg_case} END)")
    return f"""
WITH mmp AS MATERIALIZED (
  SELECT event_id, xm, ym FROM {proj_sql} q
),
mme AS MATERIALIZED (
  SELECT e.user_id, {", ".join(e_cols)},
    row_number() OVER (PARTITION BY e.user_id ORDER BY e.ts, e.event_id)
      AS rn
  FROM mmp p JOIN events e USING (event_id)
),
mmw AS MATERIALIZED (
  SELECT user_id, CAST(least(COUNT(*), {T}) AS BIGINT) AS n_pts, {pivot}
  FROM mme WHERE rn <= {T} GROUP BY user_id
),
mmd AS MATERIALIZED (
  SELECT user_id, n_pts, {", ".join(dp)} FROM mmw
)
SELECT user_id, n_pts,
  CASE n_pts {" ".join(fin_cost)} END AS cost,
  CAST(CASE n_pts {" ".join(fin_seg)} END AS BIGINT) AS end_seg
FROM mmd
"""


# ---------------------------------------------------------------------------
# Round 4c: per-user trip statistics (integer-quantized chord legs)
# ---------------------------------------------------------------------------

def q_trip_stats(sf_dir: str):
    """Trip-level mobility stats: each user's events ordered by (ts,
    event_id) form one trip; per-leg ECEF chord length is quantized to
    integer millimeters BEFORE summation (sqrt is IEEE exact-rounded,
    so floor(sqrt(d2) * 1e3) is bit-identical both sides and the SUM
    is an order-free integer fold).  Output per user: n_legs, total
    path length, longest leg, and mean leg length (integer division).
    ONE h(user) bucket exchange — the trajectory_segments shape."""
    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        lon, lat = oracle.lonlat_from_id(eid)
        x, y, z = proj.xyz(CFG, lon, lat)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(eid.astype(np.int64)),
            "x": pa.array(x), "y": pa.array(y), "z": pa.array(z),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        x = g["x"].to_numpy(zero_copy_only=False)[order]
        y = g["y"].to_numpy(zero_copy_only=False)[order]
        z = g["z"].to_numpy(zero_copy_only=False)[order]
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        dz = z[1:] - z[:-1]
        d2 = dx * dx + dy * dy + dz * dz
        leg_mm = np.floor(np.sqrt(d2) * 1e3).astype(np.int64)
        same = uid[1:] == uid[:-1]
        uu, inv = np.unique(uid, return_inverse=True)
        n_legs = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n_legs, inv[1:][same], 1)
        tot = np.zeros(len(uu), dtype=np.int64)
        np.add.at(tot, inv[1:][same], leg_mm[same])
        mx = np.zeros(len(uu), dtype=np.int64)
        np.maximum.at(mx, inv[1:][same], leg_mm[same])
        mean = np.where(n_legs > 0, tot // np.maximum(n_legs, 1), 0)
        return pa.table({
            "user_id": pa.array(uu),
            "n_legs": pa.array(n_legs),
            "total_mm": pa.array(tot),
            "max_leg_mm": pa.array(mx),
            "mean_leg_mm": pa.array(mean),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_trip_stats() -> str:
    a = repr(CFG.a)
    e2 = repr(CFG.e**2)
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    nn = f"{a}/sqrt(1 - {e2}*sin(radians(lat))*sin(radians(lat)))"
    return f"""
WITH tsp AS MATERIALIZED (
  SELECT user_id, ts, event_id,
    {nn}*cos(radians(lon))*cos(radians(lat)) AS x,
    {nn}*sin(radians(lon))*cos(radians(lat)) AS y,
    {nn}*(1 - {e2})*sin(radians(lat)) AS z
  FROM (SELECT user_id, ts, event_id, {lon} AS lon, {lat} AS lat FROM events)
),
tsl AS MATERIALIZED (
  SELECT user_id,
    lag(x) OVER w AS px, lag(y) OVER w AS py, lag(z) OVER w AS pz, x, y, z
  FROM tsp WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
tsm AS MATERIALIZED (
  SELECT user_id,
    CASE WHEN px IS NULL THEN NULL
      ELSE CAST(floor(sqrt((x-px)*(x-px) + (y-py)*(y-py) + (z-pz)*(z-pz))
        * 1000.0) AS BIGINT) END AS leg_mm
  FROM tsl
)
SELECT user_id,
  CAST(COUNT(leg_mm) AS BIGINT) AS n_legs,
  CAST(COALESCE(SUM(leg_mm), 0) AS BIGINT) AS total_mm,
  CAST(COALESCE(MAX(leg_mm), 0) AS BIGINT) AS max_leg_mm,
  CAST(CASE WHEN COUNT(leg_mm) > 0
    THEN COALESCE(SUM(leg_mm), 0) // COUNT(leg_mm) ELSE 0 END AS BIGINT)
    AS mean_leg_mm
FROM tsm GROUP BY user_id
"""


def q_web_tiles(sf_dir: str):
    """Slippy-map interop: count events per Web-Mercator XYZ tile at
    zoom WEBT_Z and emit the Bing-style quadkey for each occupied tile
    — the export shape every web-map ingestion expects.  The Mercator
    y uses the OSM formula (ln/tan/cos are the same libm on both
    sides; event lats stay within +/-84 so no clamp branch).  Tile
    keys pack to u64 -> ONE integer bucket exchange; quadkeys are
    built only on the folded (<= 4096-row) result.  Output (z, xt, yt,
    quadkey, n)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    Z = WEBT_Z
    n_side = 1 << Z
    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def tiles(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        xt = np.floor((lon + 180.0) / 360.0 * n_side).astype(np.int64)
        rad = np.radians(lat)
        yt = np.floor(
            (1.0 - np.log(np.tan(rad) + 1.0 / np.cos(rad)) / np.pi)
            / 2.0 * n_side).astype(np.int64)
        key = (yt * n_side + xt).astype(np.uint64)
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        ds.map_batches(tiles, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "n", n_buckets=8,
    )

    def stringify(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        yt = key // n_side
        xt = key % n_side
        digs = []
        for b in range(Z - 1, -1, -1):
            digs.append((((xt >> b) & 1) + 2 * ((yt >> b) & 1)).astype(np.int64))
        qk = np.array([''.join(str(d[i]) for d in digs)
                       for i in range(len(key))], dtype=object)
        return pa.table({
            "z": pa.array(np.full(len(key), Z, dtype=np.int64)),
            "xt": pa.array(xt),
            "yt": pa.array(yt),
            "quadkey": pa.array(qk, type=pa.string()),
            "n": pa.array(batch["n"]),
        })

    return folded.map_batches(stringify, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_web_tiles() -> str:
    Z = WEBT_Z
    n_side = 1 << Z
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    qk = " || ".join(
        f"CAST(((xt >> {b}) & 1) + 2 * ((yt >> {b}) & 1) AS VARCHAR)"
        for b in range(Z - 1, -1, -1))
    return f"""
WITH wtt AS MATERIALIZED (
  SELECT
    CAST(floor((lon + 180.0) / 360.0 * {n_side}) AS BIGINT) AS xt,
    CAST(floor((1.0 - ln(tan(radians(lat)) + 1.0 / cos(radians(lat))) / pi())
      / 2.0 * {n_side}) AS BIGINT) AS yt
  FROM (SELECT {lon} AS lon, {lat} AS lat FROM events)
)
SELECT CAST({Z} AS BIGINT) AS z, xt, yt, {qk} AS quadkey,
  CAST(COUNT(*) AS BIGINT) AS n
FROM wtt GROUP BY xt, yt
"""


# ---------------------------------------------------------------------------
# Round 4d: movement-heading histogram (integer octants, one exchange)
# ---------------------------------------------------------------------------


def q_heading_histogram(sf_dir: str):
    """Per-user movement-direction histogram: consecutive events (by
    ts, event_id) give a (dlon, dlat) step in integer microdegrees;
    the step buckets into one of 8 octants by SIGN and |dx| vs |dy|
    comparisons only — no atan2, so the bucket is an exact integer
    decision that replays bit-identically in SQL.  Octant code =
    4*(dy<0) + 2*(dx<0) + (|dy|>|dx|); 8 = zero step.  ONE h(user)
    bucket exchange (the trip_stats shape).  Output (user_id, octant,
    n) for occupied octants."""
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
        octant = (4 * (dy < 0) + 2 * (dx < 0)
                  + (np.abs(dy) > np.abs(dx))).astype(np.int64)
        octant[(dx == 0) & (dy == 0)] = 8
        key, cnt = np.unique(u * 16 + octant, return_counts=True)
        return pa.table({
            "user_id": pa.array(key // 16),
            "octant": pa.array(key % 16),
            "n": pa.array(cnt.astype(np.int64)),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_heading_histogram() -> str:
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    return f"""
WITH hhp AS MATERIALIZED (
  SELECT user_id, ts, event_id,
    CAST(floor({lon} * 1000000.0) AS BIGINT) AS xi,
    CAST(floor({lat} * 1000000.0) AS BIGINT) AS yi
  FROM events
),
hhd AS MATERIALIZED (
  SELECT user_id,
    xi - lag(xi) OVER w AS dx, yi - lag(yi) OVER w AS dy
  FROM hhp WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id,
  CAST(CASE WHEN dx = 0 AND dy = 0 THEN 8
    ELSE 4 * CASE WHEN dy < 0 THEN 1 ELSE 0 END
       + 2 * CASE WHEN dx < 0 THEN 1 ELSE 0 END
       + CASE WHEN abs(dy) > abs(dx) THEN 1 ELSE 0 END
  END AS BIGINT) AS octant,
  CAST(COUNT(*) AS BIGINT) AS n
FROM hhd WHERE dx IS NOT NULL
GROUP BY 1, 2
"""


def q_geohash_encode(sf_dir: str):
    """Geohash interop export: count events per precision-5 geohash
    (the join key for the external geohash ecosystems, like web_tiles
    is for slippy maps).  xi = floor((lon+180)/360 * 2^13) and yi =
    floor((lat+90)/180 * 2^12) are single exact-rounded IEEE ops, so
    both sides derive identical integers; the 25-bit interleave
    (lon on even bit positions from the LSB, per the standard) and the
    base32 digits are pure integer/bit arithmetic.  ONE u64 exchange;
    strings built only on the folded result.  Output (geohash, n)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def code(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        xi = np.floor((lon + 180.0) / 360.0 * 8192.0).astype(np.int64)
        yi = np.floor((lat + 90.0) / 180.0 * 4096.0).astype(np.int64)
        g = np.zeros(len(xi), dtype=np.int64)
        for j in range(13):
            g |= ((xi >> j) & 1) << (2 * j)
        for j in range(12):
            g |= ((yi >> j) & 1) << (2 * j + 1)
        return pa.table({
            "key": pa.array(g.astype(np.uint64), type=pa.uint64()),
            "one": pa.array(np.ones(len(g), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        ds.map_batches(code, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "n", n_buckets=8,
    )

    alpha = np.frombuffer(GH_ALPHA.encode(), dtype=np.uint8)

    def stringify(batch: pa.Table) -> pa.Table:
        g = batch["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        chars = np.empty((len(g), GH_PREC), dtype=np.uint8)
        for i in range(GH_PREC):
            chars[:, i] = alpha[(g >> (5 * (GH_PREC - 1 - i))) & 31]
        gh = chars.tobytes()
        out = [gh[i * GH_PREC:(i + 1) * GH_PREC].decode() for i in
               range(len(g))]
        return pa.table({"geohash": pa.array(out, type=pa.string()),
                         "n": batch["n"]})

    return folded.map_batches(stringify, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_geohash_encode() -> str:
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    inter = " + ".join(
        [f"((xi // {1 << j}) % 2) * {1 << (2 * j)}" for j in range(13)]
        + [f"((yi // {1 << j}) % 2) * {1 << (2 * j + 1)}" for j in range(12)]
    )
    digits = " || ".join(
        f"substr('{GH_ALPHA}', CAST((g // {1 << (5 * (GH_PREC - 1 - i))})"
        f" % 32 AS INTEGER) + 1, 1)"
        for i in range(GH_PREC)
    )
    return f"""
WITH ghq AS MATERIALIZED (
  SELECT CAST(floor(({lon} + 180.0) / 360.0 * 8192.0) AS BIGINT) AS xi,
    CAST(floor(({lat} + 90.0) / 180.0 * 4096.0) AS BIGINT) AS yi
  FROM events
),
ghg AS MATERIALIZED (
  SELECT {inter} AS g, CAST(COUNT(*) AS BIGINT) AS n FROM ghq GROUP BY 1
)
SELECT {digits} AS geohash, n FROM ghg
"""


def q_convex_hull(sf_dir: str):
    """Per-user convex hull of visited locations: over each user's
    HULL_CAP smallest event_ids, quantize (lon, lat) to integer
    microdegrees, dedupe, and emit every directed hull edge (a, b) —
    defined declaratively so degeneracies replay exactly: all other
    points have cross((b-a), (c-a)) >= 0 and none is collinear strictly
    inside the segment's bbox.  The engine evaluates the same rule as
    one vectorized n^3 integer tensor per user (n <= 32 -> 33k ops;
    the at-scale path for bigger n is a monotone-chain per group).
    Cross products stay < 1.2e17 << 2^63.  Output (user_id, x1, y1,
    x2, y2) directed CCW edges."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "eid": pa.array(eid.astype(np.int64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                          "x1": pa.array([], type=pa.int64()),
                          "y1": pa.array([], type=pa.int64()),
                          "x2": pa.array([], type=pa.int64()),
                          "y2": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "uid" not in g.column_names:
            return empty
        uid = g["uid"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, uid))
        uid, eid = uid[order], eid[order]
        uu, start = np.unique(uid, return_index=True)
        cnt = np.diff(np.append(start, len(uid)))
        out_u, out = [], []
        for u, s, c in zip(uu.tolist(), start.tolist(), cnt.tolist()):
            ids = eid[s:s + min(c, HULL_CAP)]
            lon, lat = oracle.lonlat_from_id(ids)
            x = np.floor(lon * 1e6).astype(np.int64)
            y = np.floor(lat * 1e6).astype(np.int64)
            pts = np.unique(np.stack([x, y], axis=1), axis=0)
            n = len(pts)
            if n < 2:
                continue
            X, Y = pts[:, 0], pts[:, 1]
            # cross[i,j,k] = (xj-xi)*(yk-yi) - (yj-yi)*(xk-xi)
            dxj = X[None, :, None] - X[:, None, None]
            dyj = Y[None, :, None] - Y[:, None, None]
            dxk = X[None, None, :] - X[:, None, None]
            dyk = Y[None, None, :] - Y[:, None, None]
            cross = dxj * dyk - dyj * dxk
            left_ok = (cross >= 0).all(axis=2)
            lox = np.minimum(X[:, None], X[None, :])[:, :, None]
            hix = np.maximum(X[:, None], X[None, :])[:, :, None]
            loy = np.minimum(Y[:, None], Y[None, :])[:, :, None]
            hiy = np.maximum(Y[:, None], Y[None, :])[:, :, None]
            inbox = ((X[None, None, :] >= lox) & (X[None, None, :] <= hix)
                     & (Y[None, None, :] >= loy) & (Y[None, None, :] <= hiy))
            is_a = np.zeros((n, n, n), dtype=bool)
            idx_n = np.arange(n)
            is_a[idx_n, :, idx_n] = True
            is_b = np.zeros((n, n, n), dtype=bool)
            is_b[:, idx_n, idx_n] = True
            bad = ((cross == 0) & inbox & ~is_a & ~is_b).any(axis=2)
            edge = left_ok & ~bad & ~np.eye(n, dtype=bool)
            ii, jj = np.nonzero(edge)
            if len(ii):
                out_u.append(np.full(len(ii), u, dtype=np.int64))
                out.append(np.stack([X[ii], Y[ii], X[jj], Y[jj]], axis=1))
        if not out:
            return empty
        e = np.concatenate(out)
        return pa.table({
            "user_id": pa.array(np.concatenate(out_u)),
            "x1": pa.array(e[:, 0]), "y1": pa.array(e[:, 1]),
            "x2": pa.array(e[:, 2]), "y2": pa.array(e[:, 3]),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_convex_hull() -> str:
    lon, lat = oracle.lonlat_from_id_sql("event_id")
    return f"""
WITH chp AS MATERIALIZED (
  SELECT user_id, event_id FROM (
    SELECT user_id, event_id,
      row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn
    FROM events
  ) WHERE rn <= {HULL_CAP}
),
chq AS MATERIALIZED (
  SELECT DISTINCT user_id,
    CAST(floor({lon} * 1000000.0) AS BIGINT) AS x,
    CAST(floor({lat} * 1000000.0) AS BIGINT) AS y
  FROM chp
)
SELECT a.user_id, a.x AS x1, a.y AS y1, b.x AS x2, b.y AS y2
FROM chq a JOIN chq b
  ON a.user_id = b.user_id AND (a.x <> b.x OR a.y <> b.y)
WHERE NOT EXISTS (
    SELECT 1 FROM chq c WHERE c.user_id = a.user_id
      AND (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x) < 0)
  AND NOT EXISTS (
    SELECT 1 FROM chq c WHERE c.user_id = a.user_id
      AND NOT (c.x = a.x AND c.y = a.y) AND NOT (c.x = b.x AND c.y = b.y)
      AND (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x) = 0
      AND c.x BETWEEN least(a.x, b.x) AND greatest(a.x, b.x)
      AND c.y BETWEEN least(a.y, b.y) AND greatest(a.y, b.y))
"""


def q_kde_raster(sf_dir: str):
    """Kernel-density surface: density(c) = sum over event cells o of
    count(o) * (R - cheb(c, o)) for Chebyshev distance < R on the
    res-4 equatorial lattice (antimeridian wrap) — the hotspot raster
    behind every density map, exact because the kernel weights are
    integers.  Distributed shape = the grid_flood halo exchange: exact
    per-cell counts route to home tile + (R-1)-halo neighbors, each
    tile runs a dense 25-shift integer convolution locally and emits
    only its home window.  Two exchanges total.  Output (cell_id,
    density) for density > 0 cells."""
    k = DISSOLVE_RES
    D = KDE_R - 1
    L = FLOOD_T + 2 * D

    occ = band_counts(indexed_events(sf_dir, resolution=k), "cnt")

    def conv(ty, tx, ly, lx, vals) -> pa.Table:
        cg = np.zeros((L, L), dtype=np.int64)
        np.add.at(cg, (ly, lx), vals["cnt"])
        dens = np.zeros((L, L), dtype=np.int64)
        for dy in range(-D, D + 1):
            for dx in range(-D, D + 1):
                w = KDE_R - max(abs(dy), abs(dx))
                sy0, sy1 = max(0, -dy), L - max(0, dy)
                sx0, sx1 = max(0, -dx), L - max(0, dx)
                dens[sy0 + dy:sy1 + dy, sx0 + dx:sx1 + dx] += \
                    w * cg[sy0:sy1, sx0:sx1]
        hy, hx, cell_id = home_cells(dens != 0, ty, tx, D)
        return pa.table({"cell_id": cell_id,
                         "density": pa.array(dens[hy, hx])})

    return halo_stencil(occ, D, ["cnt"], conv, pa.schema(
        [("cell_id", pa.string()), ("density", pa.int64())]))


def sql_kde_raster() -> str:
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
WITH kidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
kcnt AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM kidx GROUP BY 1, 2
),
koff(dy, dx, w) AS (VALUES {offs}),
kde AS MATERIALIZED (
  SELECT c.gy + o.dy AS gy, ((c.gx + o.dx) % {W} + {W}) % {W} AS gx,
    CAST(SUM(c.cnt * o.w) AS BIGINT) AS density
  FROM kcnt c CROSS JOIN koff o
  WHERE c.gy + o.dy BETWEEN 0 AND {side - 1}
  GROUP BY 1, 2
)
SELECT {rebuild} AS cell_id, density FROM kde
"""


def q_mobility_entropy(sf_dir: str):
    """Mobility predictability: per-user conditional entropy of the
    next res-2 tile given the current one — N*H = sum_c n_c*ln(n_c) -
    sum_ct n_ct*ln(n_ct), every term floor-quantized to nano-nats
    (session_entropy's order-free rule), h_cond_e9 = (term1 - term2)
    // N.  Low entropy = predictable commuter, high = explorer.  ONE
    h(user) bucket exchange.  Output (user_id, n_trans, n_states,
    h_cond_e9)."""
    from rhealpixdggs_py_ray.core import index as cidx
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
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "eid": pa.array(eid.astype(np.int64)),
            "tile": pa.array(u >> np.uint64(52), type=pa.uint64()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                          "n_trans": pa.array([], type=pa.int64()),
                          "n_states": pa.array([], type=pa.int64()),
                          "h_cond_e9": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "uid" not in g.column_names:
            return empty
        uid = g["uid"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        tile = g["tile"].to_numpy(zero_copy_only=False).astype(
            np.uint64)[order]
        same = uid[1:] == uid[:-1]
        u = uid[1:][same]
        pair = ((tile[:-1][same] << np.uint64(12)) | tile[1:][same])
        if not len(u):
            return empty

        def qln(n):
            return np.floor(n.astype(np.float64)
                            * _libm_log(n) * 1e9
                            ).astype(np.int64)

        # per (user, cur, next) counts
        k2 = (u.astype(np.uint64) << np.uint64(24)) | pair
        ku, kc = np.unique(k2, return_counts=True)
        # per (user, cur) counts
        k1 = ku >> np.uint64(12)
        cu, cinv = np.unique(k1, return_inverse=True)
        n_c = np.zeros(len(cu), dtype=np.int64)
        np.add.at(n_c, cinv, kc)
        # per user
        uu2, uinv2 = np.unique((cu >> np.uint64(12)).astype(np.int64),
                               return_inverse=True)
        term1 = np.zeros(len(uu2), dtype=np.int64)
        np.add.at(term1, uinv2, qln(n_c))
        nstates = np.zeros(len(uu2), dtype=np.int64)
        np.add.at(nstates, uinv2, 1)
        uu3, uinv3 = np.unique((ku >> np.uint64(24)).astype(np.int64),
                               return_inverse=True)
        term2 = np.zeros(len(uu3), dtype=np.int64)
        np.add.at(term2, uinv3, qln(kc))
        ntrans = np.zeros(len(uu3), dtype=np.int64)
        np.add.at(ntrans, uinv3, kc)
        if not (uu2 == uu3).all():
            raise AssertionError("mobility_entropy: user sets of the two folds differ")
        return pa.table({
            "user_id": pa.array(uu2),
            "n_trans": pa.array(ntrans),
            "n_states": pa.array(nstates),
            "h_cond_e9": pa.array((term1 - term2) // ntrans),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_mobility_entropy() -> str:
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    qln = ("CAST(floor(CAST({n} AS DOUBLE) * ln(CAST({n} AS DOUBLE))"
           " * 1000000000.0) AS BIGINT)")
    return f"""
WITH mex AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id, t.cell_id AS tile
  FROM events e JOIN (SELECT event_id, cell_id FROM {idx_sql} q) t
    ON t.event_id = e.event_id
),
mep AS MATERIALIZED (
  SELECT user_id, lag(tile) OVER w AS cur, tile AS nxt
  FROM mex WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
mec AS MATERIALIZED (
  SELECT user_id, cur, nxt, CAST(COUNT(*) AS BIGINT) AS n
  FROM mep WHERE cur IS NOT NULL GROUP BY 1, 2, 3
),
mes AS MATERIALIZED (
  SELECT user_id, cur, CAST(SUM(n) AS BIGINT) AS n_c,
    CAST(SUM({qln.format(n='n')}) AS BIGINT) AS t2
  FROM mec GROUP BY 1, 2
)
SELECT user_id,
  CAST(SUM(n_c) AS BIGINT) AS n_trans,
  CAST(COUNT(*) AS BIGINT) AS n_states,
  CAST((SUM({qln.format(n='n_c')}) - SUM(t2)) // SUM(n_c) AS BIGINT)
    AS h_cond_e9
FROM mes GROUP BY user_id
"""


def q_hilbert_layout(sf_dir: str):
    """Locality-preserving storage layout (the z-order alternative):
    each in-band event's res-4 lattice cell maps to its Hilbert-curve
    index (classic xy2d — per-bit rotate/reflect, exact integers, the
    loop unrolls to HILB_BITS chained steps in SQL), indexes shard into
    HILB_SHARDS equal key ranges, and the layout quality report is
    per-shard row count + index span (tight spans = good clustering).
    One u64 fold; per-shard readout.  Output (shard, n, d_min,
    d_max)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    n_sq = 1 << HILB_BITS
    shard_w = (n_sq * n_sq) // HILB_SHARDS

    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def hilbert_d(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        x = gx.copy()
        y = gy.copy()
        d = np.zeros(len(x), dtype=np.int64)
        s = n_sq // 2
        while s > 0:
            rx = ((x & s) > 0).astype(np.int64)
            ry = ((y & s) > 0).astype(np.int64)
            d += s * s * ((3 * rx) ^ ry)
            # rotate/reflect quadrant
            swap = ry == 0
            flip = rx[swap] == 1
            xf, yf = x[swap], y[swap]
            nx = np.where(flip, s - 1 - yf, yf)
            ny = np.where(flip, s - 1 - xf, xf)
            x[swap] = nx
            y[swap] = ny
            s //= 2
        return d

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        m = np.abs(lat) <= DISSOLVE_LAT
        u = cidx.cell_from_point(CFG, k, lon[m], lat[m], plane=False)
        gy, gx = lattice_of_u64(u, k)
        d = hilbert_d(gx, gy)
        return pa.table({
            "key": pa.array(d.astype(np.uint64), type=pa.uint64()),
            "one": pa.array(np.ones(len(d), dtype=np.int64)),
        })

    folded = sum_by_u64_key(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "n", n_buckets=8,
    )

    def key2(batch: pa.Table) -> pa.Table:
        d = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        shard = (d // np.uint64(shard_w)).astype(np.uint64)
        return batch.append_column(
            "bucket2", pa.array(hash_bucket_u64(shard, 8)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"shard": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64()),
                             "d_min": pa.array([], type=pa.int64()),
                             "d_max": pa.array([], type=pa.int64())})
        d = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = g["n"].to_numpy(zero_copy_only=False)
        shard = d // shard_w
        uq, inv = np.unique(shard, return_inverse=True)
        cnt = np.zeros(len(uq), dtype=np.int64)
        np.add.at(cnt, inv, n)
        dmin = np.full(len(uq), np.iinfo(np.int64).max)
        np.minimum.at(dmin, inv, d)
        dmax = np.zeros(len(uq), dtype=np.int64)
        np.maximum.at(dmax, inv, d)
        return pa.table({
            "shard": pa.array(uq),
            "n": pa.array(cnt),
            "d_min": pa.array(dmin),
            "d_max": pa.array(dmax),
        })

    return (
        folded.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(resolve, batch_format="pyarrow")
    )


def sql_hilbert_layout() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    n_sq = 1 << HILB_BITS
    shard_w = (n_sq * n_sq) // HILB_SHARDS
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    steps = []
    prev = "hl0"
    s = n_sq // 2
    t = 1
    while s > 0:
        steps.append(f"""
hl{t} AS MATERIALIZED (
  SELECT event_id,
    d + {s * s} * xor(CASE WHEN (x & {s}) > 0 THEN 3 ELSE 0 END,
      CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END) AS d,
    CASE WHEN (y & {s}) > 0 THEN x
         WHEN (x & {s}) > 0 THEN {s} - 1 - y ELSE y END AS x,
    CASE WHEN (y & {s}) > 0 THEN y
         WHEN (x & {s}) > 0 THEN {s} - 1 - x ELSE x END AS y
  FROM {prev}
)""")
        prev = f"hl{t}"
        s //= 2
        t += 1
    return f"""
WITH hli AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
hl0 AS MATERIALIZED (
  SELECT event_id, {gx} AS x, {gy} AS y, CAST(0 AS BIGINT) AS d FROM hli
),{",".join(steps)}
SELECT CAST(d // {shard_w} AS BIGINT) AS shard,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(MIN(d) AS BIGINT) AS d_min, CAST(MAX(d) AS BIGINT) AS d_max
FROM {prev} GROUP BY 1
"""


def q_hillshade(sf_dir: str):
    """Shaded relief (Horn 1981, the classic GIS hillshade) over the
    deterministic integer terrain at every OCCUPIED res-4 lattice
    cell: 3x3 Horn gradients p8 = 8*dz/dx, q8 = 8*dz/dy stay exact
    integers (terrain is closed-form, so neighbors need NO halo
    exchange — one distinct-cells u64 fold, then a pure map);
    illumination = (8*cosZ - (p8*sinZsinA + q8*sinZcosA)) /
    sqrt(64 + p8^2 + q8^2), an exact float tree over integer inputs
    (sqrt/div are IEEE exact-rounded, constants cross via repr), so
    hs_e6 value-hashes bit-for-bit.  Edge rows gy=0 / side-1 are
    excluded (standard raster edge rule).  Output (cell_id, p8, q8,
    hs_e6)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    c1, c2, c3 = _hs_consts()
    num0 = c3 * 8.0

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def shade(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        m = (gy >= 1) & (gy <= side - 2)
        gy, gx = gy[m], gx[m]

        def e(yy, xx):
            return (11 * yy + 17 * (xx % W)) % 997

        xl, xr = gx - 1, gx + 1
        p8 = ((e(gy - 1, xr) + 2 * e(gy, xr) + e(gy + 1, xr))
              - (e(gy - 1, xl) + 2 * e(gy, xl) + e(gy + 1, xl)))
        q8 = ((e(gy + 1, xl) + 2 * e(gy + 1, gx) + e(gy + 1, xr))
              - (e(gy - 1, xl) + 2 * e(gy - 1, gx) + e(gy - 1, xr)))
        num = num0 - (p8 * c1 + q8 * c2)
        den = np.sqrt((64 + p8 * p8 + q8 * q8).astype(np.float64))
        hs = num / den
        return pa.table({
            "cell_id": lattice_cell_ids(gy, gx, k),
            "p8": pa.array(p8),
            "q8": pa.array(q8),
            "hs_e6": pa.array(np.floor(hs * 1e6).astype(np.int64)),
        })

    return occ.map_batches(shade, batch_format="pyarrow", zero_copy_batch=True)


def sql_hillshade() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    c1, c2, c3 = _hs_consts()
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)

    def e(yy: str, xx: str) -> str:
        # numpy % floors; SQL % truncates — double-mod keeps x
        # non-negative before the 997 mod (arguments here are always
        # >= -1 on x and >= 0 on y, so one wrap suffices)
        return f"((11 * ({yy}) + 17 * ((({xx}) % {W} + {W}) % {W})) % 997)"

    p8 = (f"({e('gy - 1', 'gx + 1')} + 2 * {e('gy', 'gx + 1')}"
          f" + {e('gy + 1', 'gx + 1')})"
          f" - ({e('gy - 1', 'gx - 1')} + 2 * {e('gy', 'gx - 1')}"
          f" + {e('gy + 1', 'gx - 1')})")
    q8 = (f"({e('gy + 1', 'gx - 1')} + 2 * {e('gy + 1', 'gx')}"
          f" + {e('gy + 1', 'gx + 1')})"
          f" - ({e('gy - 1', 'gx - 1')} + 2 * {e('gy - 1', 'gx')}"
          f" + {e('gy - 1', 'gx + 1')})")
    return f"""
WITH hsi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
hsc AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM hsi
),
hsg AS MATERIALIZED (
  SELECT gy, gx, {p8} AS p8, {q8} AS q8
  FROM hsc WHERE gy BETWEEN 1 AND {side - 2}
)
SELECT {rebuild} AS cell_id,
  CAST(p8 AS BIGINT) AS p8, CAST(q8 AS BIGINT) AS q8,
  CAST(floor(({oracle._lit(c3)} * 8.0 - (p8 * {oracle._lit(c1)}
    + q8 * {oracle._lit(c2)}))
    / sqrt(CAST(64 + p8 * p8 + q8 * q8 AS DOUBLE)) * 1000000.0)
    AS BIGINT) AS hs_e6
FROM hsg
"""


def q_flow_acc(sf_dir: str):
    """D8 flow accumulation (the hydrology workhorse behind stream
    extraction): every OCCUPIED res-4 cell releases a parcel that
    walks downhill — at each step to the strictly-lower 8-neighbor of
    minimum elevation (first-in-fixed-order tie-break, y-out-of-band
    neighbors invalid), stopping at pits — for up to FLOW_D hops over
    the deterministic closed-form terrain; acc(c) = number of DISTINCT
    sources whose path passes through c (source itself excluded).
    Because terrain is a formula, the whole walk is a pure vectorized
    map after ONE distinct-cells u64 fold; cells are never exchanged
    by path key.  The SQL replays the walk as FLOW_D chained
    MATERIALIZED CTEs whose argmin is a lateral-alias least()/CASE
    chain in the same neighbor order.  Output (cell_id, acc)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def walk(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        n = len(gy)
        if n == 0:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})

        def elev(yy, xx):
            return (11 * yy + 17 * (xx % W)) % 997

        src = gy * W + gx
        cy, cx = gy.copy(), gx.copy()
        ar = np.arange(n)
        seen = []
        for _step in range(FLOW_D):
            e0 = elev(cy, cx)
            E = np.empty((8, n), dtype=np.int64)
            NY = np.empty((8, n), dtype=np.int64)
            NX = np.empty((8, n), dtype=np.int64)
            for i, (dy, dx) in enumerate(offs):
                ny = cy + dy
                nx = (cx + dx) % W
                ok = (ny >= 0) & (ny <= side - 1)
                E[i] = np.where(ok, elev(ny, nx), 1_000_000)
                NY[i] = ny
                NX[i] = nx
            am = np.argmin(E, axis=0)   # first min == fixed-order tie-break
            moved = E[am, ar] < e0
            cy = np.where(moved, NY[am, ar], cy)
            cx = np.where(moved, NX[am, ar], cx)
            seen.append(src * 32768 + cy * W + cx)
        pairs = np.unique(np.concatenate(seen))
        s = pairs // 32768
        c = pairs % 32768
        c = c[c != s]
        uq, cnt = np.unique(c, return_counts=True)
        return pa.table({"key": pa.array(uq.astype(np.uint64),
                                         type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    folded = sum_by_u64_key(
        occ.map_batches(walk, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "acc", n_buckets=4,
    )

    def finish(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        acc = batch["acc"].to_numpy(zero_copy_only=False)
        gy = key // W
        gx = key % W
        return pa.table({
            "cell_id": lattice_cell_ids(gy, gx, k),
            "acc": pa.array(acc),
        })

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_flow_acc() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)

    # one step: lateral aliases compute wrapped x's, the 8 neighbor
    # elevations in fixed order, and the least(); the outer CASE chain
    # mirrors numpy argmin's first-match tie-break
    inner_aliases = [
        f"(((gx - 1) % {W}) + {W}) % {W} AS xl",
        f"(gx + 1) % {W} AS xr",
        "(11 * gy + 17 * gx) % 997 AS e0",
    ]
    ny_case, nx_case = [], []
    for i, (dy, dx) in enumerate(offs, start=1):
        yy = f"gy{'' if dy == 0 else (' - 1' if dy < 0 else ' + 1')}"
        xx = "gx" if dx == 0 else ("xl" if dx < 0 else "xr")
        ee = f"(11 * ({yy}) + 17 * {xx}) % 997"
        if dy < 0:
            ee = f"CASE WHEN gy - 1 < 0 THEN 1000000 ELSE {ee} END"
        elif dy > 0:
            ee = f"CASE WHEN gy + 1 > {side - 1} THEN 1000000 ELSE {ee} END"
        inner_aliases.append(f"{ee} AS e{i}")
        ny_case.append(f"WHEN e{i} = m THEN {yy}")
        nx_case.append(f"WHEN e{i} = m THEN {xx}")
    inner_aliases.append(
        "least(e1, e2, e3, e4, e5, e6, e7, e8) AS m")
    step_inner = ",\n    ".join(inner_aliases)
    ny = ("CASE WHEN m >= e0 THEN gy "
          + " ".join(ny_case) + " END")
    nx = ("CASE WHEN m >= e0 THEN gx "
          + " ".join(nx_case) + " END")
    steps = []
    for s in range(1, FLOW_D + 1):
        prev = "fa0" if s == 1 else f"fa{s - 1}"
        steps.append(f"""fa{s} AS MATERIALIZED (
  SELECT sy, sx, {ny} AS gy, {nx} AS gx
  FROM (SELECT sy, sx, gy, gx,
    {step_inner}
  FROM {prev}) t
)""")
    chain = ",\n".join(steps)
    union = "\n  UNION ALL ".join(
        f"SELECT sy, sx, gy, gx FROM fa{s}" for s in range(1, FLOW_D + 1))
    return f"""
WITH fai AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
fa0 AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx, {gy} AS sy, {gx} AS sx FROM fai
),
{chain},
fav AS MATERIALIZED (
  SELECT DISTINCT sy, sx, gy, gx FROM ({union})
  -- exclude the source itself (pit-at-source walks stay put)
)
SELECT {rebuild} AS cell_id, CAST(COUNT(*) AS BIGINT) AS acc
FROM fav WHERE gy <> sy OR gx <> sx
GROUP BY gy, gx
"""


def q_semivariogram(sf_dir: str):
    """Empirical semivariogram gamma(h) = sum over pairs at Chebyshev
    lag h of (z_i - z_j)^2 / (2 N_h), z = events per occupied res-4
    cell — the kriging prestep.  Pairs enumerate via the gw_mean
    tile+halo template (route each occupied cell to its home tile and
    the 8 neighbors' D-halo, one exchange); inside a tile every
    anchor is HOME and each unordered pair is counted once under the
    half-order offset rule (dy>0 or dy==0,dx>0), so no global pair
    shuffle and no dedup pass.  Integer z keeps every sum exact.
    Output (h, n_pairs, ssq, gamma_micro) for h = 1..SEMI_D."""
    k = DISSOLVE_RES
    D, T = SEMI_D, FLOOD_T
    L = T + 2 * D
    offs = [(dy, dx) for dy in range(0, D + 1)
            for dx in range(-D, D + 1)
            if (dy > 0 or dx > 0) and max(dy, abs(dx)) <= D]

    occ = band_counts(indexed_events(sf_dir, resolution=k), "z")

    def pairs(ty, tx, ly, lx, vals) -> pa.Table:
        Z = np.zeros((L, L), dtype=np.int64)
        O = np.zeros((L, L), dtype=bool)
        Z[ly, lx] = vals["z"]
        O[ly, lx] = True
        nh = np.zeros(D + 1, dtype=np.int64)
        sh = np.zeros(D + 1, dtype=np.int64)
        za = Z[D:D + T, D:D + T]
        oa = O[D:D + T, D:D + T]
        for dy, dx in offs:
            h = max(dy, abs(dx))
            zb = Z[D + dy:D + dy + T, D + dx:D + dx + T]
            ob = O[D + dy:D + dy + T, D + dx:D + dx + T]
            both = oa & ob
            nh[h] += int(both.sum())
            dd = (za - zb)[both]
            sh[h] += int((dd * dd).sum())
        hh = np.nonzero(nh)[0]
        return pa.table({"h": pa.array(hh.astype(np.int64)),
                         "n": pa.array(nh[hh]),
                         "ssq": pa.array(sh[hh])})

    part = halo_stencil(occ, D, ["z"], pairs, pa.schema(
        [("h", pa.int64()), ("n", pa.int64()), ("ssq", pa.int64())]))

    # bounded driver combine: <= n_tiles * D partial rows
    nh = np.zeros(D + 1, dtype=np.int64)
    sh = np.zeros(D + 1, dtype=np.int64)
    for bt in part.iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0 or "h" not in bt.column_names:
            continue
        h = bt["h"].to_numpy(zero_copy_only=False)
        np.add.at(nh, h, bt["n"].to_numpy(zero_copy_only=False))
        np.add.at(sh, h, bt["ssq"].to_numpy(zero_copy_only=False))
    hh = np.nonzero(nh)[0]
    return pa.table({
        "h": pa.array(hh.astype(np.int64)),
        "n_pairs": pa.array(nh[hh]),
        "ssq": pa.array(sh[hh]),
        "gamma_micro": pa.array(sh[hh] * 1_000_000 // (2 * nh[hh])),
    })


def sql_semivariogram() -> str:
    k = DISSOLVE_RES
    W = 4 * 3 ** k
    D = SEMI_D
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    return f"""
WITH svi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
svz AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx, CAST(COUNT(*) AS BIGINT) AS z
  FROM svi GROUP BY 1, 2
),
svp AS MATERIALIZED (
  SELECT greatest(b.gy - a.gy, abs(
      CASE WHEN ((b.gx - a.gx) % {W} + {W}) % {W} >= {W // 2}
        THEN ((b.gx - a.gx) % {W} + {W}) % {W} - {W}
        ELSE ((b.gx - a.gx) % {W} + {W}) % {W} END)) AS h,
    (a.z - b.z) * (a.z - b.z) AS sq
  FROM svz a JOIN svz b
    ON b.gy - a.gy BETWEEN 0 AND {D}
  WHERE (b.gy > a.gy OR (b.gy = a.gy AND
      (CASE WHEN ((b.gx - a.gx) % {W} + {W}) % {W} >= {W // 2}
        THEN ((b.gx - a.gx) % {W} + {W}) % {W} - {W}
        ELSE ((b.gx - a.gx) % {W} + {W}) % {W} END) > 0))
    AND greatest(b.gy - a.gy, abs(
      CASE WHEN ((b.gx - a.gx) % {W} + {W}) % {W} >= {W // 2}
        THEN ((b.gx - a.gx) % {W} + {W}) % {W} - {W}
        ELSE ((b.gx - a.gx) % {W} + {W}) % {W} END)) BETWEEN 1 AND {D}
)
SELECT CAST(h AS BIGINT) AS h, CAST(COUNT(*) AS BIGINT) AS n_pairs,
  CAST(SUM(sq) AS BIGINT) AS ssq,
  CAST(CAST(SUM(sq) AS HUGEINT) * 1000000
    // (2 * COUNT(*)) AS BIGINT) AS gamma_micro
FROM svp GROUP BY h
"""


# ---------------------------------------------------------------------------
# Round 4e: Ripley K function (point-pattern clustering) on the lattice
# ---------------------------------------------------------------------------

def q_ripley_k(sf_dir: str):
    """Ripley's K at Chebyshev lags h = 0..SEMI_D over the in-band
    event point pattern, gridded to res-4 cells: pair counts are
    EVENT pairs (z_a * z_b between distinct cells at lag h, plus the
    within-cell z*(z-1)/2 term at h=0), so the statistic is the true
    weighted second moment, not a cell-level proxy.  Same single
    tile+halo exchange as semivariogram (half-order offsets count
    each unordered cell pair once); Khat = 2 * cum_pairs * |A| /
    (n * (n-1)) stays an exact integer ratio quantized to micros.
    Output (h, pairs_h, cum_pairs, k_e6)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    D, T = SEMI_D, FLOOD_T
    L = T + 2 * D
    A = side * W
    offs = [(dy, dx) for dy in range(0, D + 1)
            for dx in range(-D, D + 1)
            if (dy > 0 or dx > 0) and max(dy, abs(dx)) <= D]

    occ = band_counts(  # consumed twice (h=0 term + halo route)
        indexed_events(sf_dir, resolution=k), "z").materialize()

    def pairs(ty, tx, ly, lx, vals) -> pa.Table:
        Z = np.zeros((L, L), dtype=np.int64)
        Z[ly, lx] = vals["z"]
        ph = np.zeros(D + 1, dtype=np.int64)
        za = Z[D:D + T, D:D + T]
        for dy, dx in offs:
            h = max(dy, abs(dx))
            zb = Z[D + dy:D + dy + T, D + dx:D + dx + T]
            ph[h] += int((za * zb).sum())
        hh = np.nonzero(ph)[0]
        return pa.table({"h": pa.array(hh.astype(np.int64)),
                         "p": pa.array(ph[hh])})

    part = halo_stencil(occ, D, ["z"], pairs, pa.schema(
        [("h", pa.int64()), ("p", pa.int64())]))

    ph = np.zeros(D + 1, dtype=np.int64)
    npts = 0
    for bt in occ.iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        z = bt["z"].to_numpy(zero_copy_only=False)
        npts += int(z.sum())
        ph[0] += int((z * (z - 1) // 2).sum())
    for bt in part.iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0 or "h" not in bt.column_names:
            continue
        np.add.at(ph, bt["h"].to_numpy(zero_copy_only=False),
                  bt["p"].to_numpy(zero_copy_only=False))
    cum = np.cumsum(ph)
    den = npts * (npts - 1)
    k_e6 = (2 * cum.astype(object) * A * 1_000_000 // den).astype(np.int64) \
        if den else np.zeros(D + 1, dtype=np.int64)
    return pa.table({
        "h": pa.array(np.arange(D + 1, dtype=np.int64)),
        "pairs_h": pa.array(ph),
        "cum_pairs": pa.array(cum),
        "k_e6": pa.array(k_e6),
    })


def sql_ripley_k() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    D = SEMI_D
    A = side * W
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    dxs = (f"CASE WHEN ((b.gx - a.gx) % {W} + {W}) % {W} >= {W // 2}"
           f" THEN ((b.gx - a.gx) % {W} + {W}) % {W} - {W}"
           f" ELSE ((b.gx - a.gx) % {W} + {W}) % {W} END")
    return f"""
WITH rki AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
rkz AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx, CAST(COUNT(*) AS BIGINT) AS z
  FROM rki GROUP BY 1, 2
),
rkn AS MATERIALIZED (
  SELECT CAST(SUM(z) AS BIGINT) AS npts,
    CAST(SUM(z * (z - 1) // 2) AS BIGINT) AS p0
  FROM rkz
),
rkp AS MATERIALIZED (
  SELECT greatest(b.gy - a.gy, abs({dxs})) AS h, a.z * b.z AS p
  FROM rkz a JOIN rkz b ON b.gy - a.gy BETWEEN 0 AND {D}
  WHERE (b.gy > a.gy OR (b.gy = a.gy AND ({dxs}) > 0))
    AND greatest(b.gy - a.gy, abs({dxs})) BETWEEN 1 AND {D}
),
rkh AS MATERIALIZED (
  SELECT hh.h,
    CAST(CASE WHEN hh.h = 0 THEN (SELECT p0 FROM rkn)
      ELSE COALESCE(SUM(p.p), 0) END AS BIGINT) AS pairs_h
  FROM (SELECT unnest(generate_series(0, {D})) AS h) hh
  LEFT JOIN rkp p ON p.h = hh.h
  GROUP BY hh.h
),
rkc AS MATERIALIZED (
  SELECT h, pairs_h,
    CAST(SUM(pairs_h) OVER (ORDER BY h) AS BIGINT) AS cum_pairs
  FROM rkh
)
SELECT h, pairs_h, cum_pairs,
  CAST(CASE WHEN (SELECT npts FROM rkn) > 1 THEN
    CAST(2 AS HUGEINT) * cum_pairs * {A} * 1000000
      // (CAST((SELECT npts FROM rkn) AS HUGEINT)
          * ((SELECT npts FROM rkn) - 1))
    ELSE 0 END AS BIGINT) AS k_e6
FROM rkc
"""


# ---------------------------------------------------------------------------
# Round 4e: D8 watershed (drainage-basin) labeling over the res-4 lattice
# ---------------------------------------------------------------------------


def q_watershed(sf_dir: str):
    """Drainage-basin labeling (the watershed-delineation companion to
    q_flow_acc): every OCCUPIED res-4 cell walks D8-downhill for up to
    FLOW_D hops over the deterministic closed-form terrain (strictly
    lower min-elevation neighbor, first-in-fixed-order tie-break,
    y-out-of-band invalid) and is labeled by the cell it lands on;
    basins = groups of sources sharing a landing cell.  Closed-form
    terrain keeps the whole walk a pure vectorized map after ONE
    distinct-cells u64 fold — no per-hop exchange, no pair shuffle.
    is_pit marks landing cells with no strictly-lower valid neighbor
    (true pits; non-pit landings are hop-cap truncations).  Reference
    grid semantics: dggs.py:613 (grid), cell.py:1224 (neighbors).
    Output (cell_id, n_src, is_pit)."""
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def walk(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        n = len(gy)
        if n == 0:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})

        def elev(yy, xx):
            return (11 * yy + 17 * (xx % W)) % 997

        cy, cx = gy.copy(), gx.copy()
        ar = np.arange(n)
        for _step in range(FLOW_D):
            e0 = elev(cy, cx)
            E = np.empty((8, n), dtype=np.int64)
            NY = np.empty((8, n), dtype=np.int64)
            NX = np.empty((8, n), dtype=np.int64)
            for i, (dy, dx) in enumerate(offs):
                ny = cy + dy
                nx = (cx + dx) % W
                ok = (ny >= 0) & (ny <= side - 1)
                E[i] = np.where(ok, elev(ny, nx), 1_000_000)
                NY[i] = ny
                NX[i] = nx
            am = np.argmin(E, axis=0)   # first min == fixed-order tie-break
            moved = E[am, ar] < e0
            cy = np.where(moved, NY[am, ar], cy)
            cx = np.where(moved, NX[am, ar], cx)
        lk = (cy * W + cx).astype(np.uint64)
        uq, cnt = np.unique(lk, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "one": pa.array(cnt.astype(np.int64))})

    folded = sum_by_u64_key(
        occ.map_batches(walk, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "n_src", n_buckets=4,
    )

    def finish(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        ns = batch["n_src"].to_numpy(zero_copy_only=False)
        gy = key // W
        gx = key % W

        def elev(yy, xx):
            return (11 * yy + 17 * (xx % W)) % 997

        e0 = elev(gy, gx)
        best = np.full(len(gy), 1_000_000, dtype=np.int64)
        for dy, dx in offs:
            ny = gy + dy
            nx = (gx + dx) % W
            ok = (ny >= 0) & (ny <= side - 1)
            best = np.minimum(best, np.where(ok, elev(ny, nx), 1_000_000))
        return pa.table({
            "cell_id": lattice_cell_ids(gy, gx, k),
            "n_src": pa.array(ns),
            "is_pit": pa.array((best >= e0).astype(np.int64)),
        })

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_watershed() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)
    # per-step neighbor elevations in the same fixed order as numpy,
    # lateral aliases only (mirrors sql_flow_acc's step builder with a
    # ws CTE prefix so the two oracles can coexist in one session)
    inner_aliases = [
        f"(((gx - 1) % {W}) + {W}) % {W} AS xl",
        f"(gx + 1) % {W} AS xr",
        "(11 * gy + 17 * gx) % 997 AS e0",
    ]
    ny_case, nx_case = [], []
    for i, (dy, dx) in enumerate(offs, start=1):
        yy = f"gy{'' if dy == 0 else (' - 1' if dy < 0 else ' + 1')}"
        xx = "gx" if dx == 0 else ("xl" if dx < 0 else "xr")
        ee = f"(11 * ({yy}) + 17 * {xx}) % 997"
        if dy < 0:
            ee = f"CASE WHEN gy - 1 < 0 THEN 1000000 ELSE {ee} END"
        elif dy > 0:
            ee = f"CASE WHEN gy + 1 > {side - 1} THEN 1000000 ELSE {ee} END"
        inner_aliases.append(f"{ee} AS e{i}")
        ny_case.append(f"WHEN e{i} = m THEN {yy}")
        nx_case.append(f"WHEN e{i} = m THEN {xx}")
    inner_aliases.append("least(e1, e2, e3, e4, e5, e6, e7, e8) AS m")
    step_inner = ",\n    ".join(inner_aliases)
    ny = "CASE WHEN m >= e0 THEN gy " + " ".join(ny_case) + " END"
    nx = "CASE WHEN m >= e0 THEN gx " + " ".join(nx_case) + " END"
    steps = []
    for s in range(1, FLOW_D + 1):
        prev = "ws0" if s == 1 else f"ws{s - 1}"
        steps.append(f"""ws{s} AS MATERIALIZED (
  SELECT {ny} AS gy, {nx} AS gx
  FROM (SELECT gy, gx,
    {step_inner}
  FROM {prev}) t
)""")
    chain = ",\n".join(steps)
    return f"""
WITH wsi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
ws0 AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM wsi
),
{chain},
wsl AS MATERIALIZED (
  SELECT gy, gx, CAST(COUNT(*) AS BIGINT) AS n_src
  FROM (SELECT gy, gx FROM ws{FLOW_D}) t GROUP BY gy, gx
)
SELECT {rebuild} AS cell_id, n_src,
  CAST(CASE WHEN m >= e0 THEN 1 ELSE 0 END AS BIGINT) AS is_pit
FROM (SELECT gy, gx, n_src,
    {step_inner}
  FROM wsl) t
"""


# ---------------------------------------------------------------------------
# Round 4e: TPI / TRI / Laplacian curvature over the res-4 lattice
# ---------------------------------------------------------------------------


def q_tpi_tri(sf_dir: str):
    """Topographic position index, terrain ruggedness index (Riley
    1999) and discrete-Laplacian curvature at every OCCUPIED res-4
    lattice cell over the deterministic closed-form terrain: with the
    3x3 window elevations e_i around e0, tpi8 = 8*e0 - sum(e_i)
    (positive = ridge, negative = valley), tri = sum |e0 - e_i|, and
    lap4 = e_N + e_S + e_E + e_W - 4*e0 (the Zevenbergen-Thorne
    curvature numerator: curv = -lap4 / L^2).  All three are exact
    integers, so the oracle replays them bit-for-bit with no float
    quantization at all.  Closed-form terrain means neighbors need no
    halo exchange — one distinct-cells u64 fold, then a pure map (the
    q_hillshade shape).  Edge rows gy=0 / side-1 excluded.  Reference
    grid semantics: dggs.py:613 (grid), cell.py:1224 (neighbors).
    Output (cell_id, tpi8, tri, lap4)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def window(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        m = (gy >= 1) & (gy <= side - 2)
        gy, gx = gy[m], gx[m]

        def e(yy, xx):
            return (11 * yy + 17 * (xx % W)) % 997

        e0 = e(gy, gx)
        nsum = np.zeros(len(gy), dtype=np.int64)
        tri = np.zeros(len(gy), dtype=np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                ei = e(gy + dy, gx + dx)
                nsum += ei
                tri += np.abs(e0 - ei)
        lap4 = (e(gy - 1, gx) + e(gy + 1, gx)
                + e(gy, gx - 1) + e(gy, gx + 1) - 4 * e0)
        return pa.table({
            "cell_id": lattice_cell_ids(gy, gx, k),
            "tpi8": pa.array(8 * e0 - nsum),
            "tri": pa.array(tri),
            "lap4": pa.array(lap4),
        })

    return occ.map_batches(window, batch_format="pyarrow",
                           zero_copy_batch=True)


def sql_tpi_tri() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)

    def e(yy: str, xx: str) -> str:
        # numpy % floors; SQL % truncates — double-mod keeps x
        # non-negative before the 997 mod
        return f"((11 * ({yy}) + 17 * ((({xx}) % {W} + {W}) % {W})) % 997)"

    neigh = [e(f"gy {('- 1', '', '+ 1')[dy + 1]}",
               f"gx {('- 1', '', '+ 1')[dx + 1]}")
             for dy in (-1, 0, 1) for dx in (-1, 0, 1)
             if not (dy == 0 and dx == 0)]
    e0 = e("gy", "gx")
    nsum = " + ".join(neigh)
    tri = " + ".join(f"abs(e0 - ({t}))" for t in neigh)
    lap4 = (f"{e('gy - 1', 'gx')} + {e('gy + 1', 'gx')}"
            f" + {e('gy', 'gx - 1')} + {e('gy', 'gx + 1')} - 4 * e0")
    return f"""
WITH tpii AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
tpic AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM tpii
)
SELECT {rebuild} AS cell_id,
  CAST(8 * e0 - ({nsum}) AS BIGINT) AS tpi8,
  CAST({tri} AS BIGINT) AS tri,
  CAST({lap4} AS BIGINT) AS lap4
FROM (SELECT gy, gx, {e0} AS e0 FROM tpic
  WHERE gy BETWEEN 1 AND {side - 2}) t
"""


def q_strahler_order(sf_dir: str):
    """Strahler stream order (the hydrology channel-ranking statistic)
    over the D8 flow graph on OCCUPIED res-4 cells: each occupied cell
    flows to its strictly-lower min-elevation 8-neighbor (first-in-
    fixed-order tie-break, y-out-of-band invalid — the q_flow_acc
    rule); a flow edge exists only when the target is ALSO occupied,
    so unlike the closed-form terrain ops this graph is data-dependent
    and needs a real exchange.  Order = STRAHLER_D rounds of the
    Strahler fixed-point from all-ones (leaves stay 1; a cell whose
    in-neighbors' round-(r-1) max is attained >= twice gets max+1,
    else max) — the exact order wherever upstream depth <= STRAHLER_D.
    Distributed shape is the q_grid_flood halo exchange: occupied
    cells fold once, route to home tile + Chebyshev-D halo, and each
    tile runs the whole iteration DENSE and vectorized locally — two
    exchanges total, independent of D (round r at distance d needs
    only round r-1 at distance d+1, and ord_0 == 1 is known
    everywhere, so a D-halo is exactly sufficient).  Reference grid
    semantics: dggs.py:613 (grid), cell.py:1224 (neighbors).
    Output (cell_id, strahler)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    D, T = STRAHLER_D, FLOOD_T
    L = T + 2 * D
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")

    def order_tile(ty, tx, ly, lx, vals) -> pa.Table:
        occg = np.zeros((L, L), dtype=bool)
        occg[ly, lx] = True
        # global coords per window cell (x wraps; y can run out of band
        # in the halo rows — those are never occupied)
        gyg = ty * T + np.arange(L)[:, None] - D + np.zeros((1, L), np.int64)
        gxg = (tx * T + np.arange(L)[None, :] - D) % W + np.zeros(
            (L, 1), np.int64)
        e0 = (11 * gyg + 17 * gxg) % 997
        # D8 downhill target per window cell: index into offs, -1 = pit
        E = np.full((8, L, L), 1_000_000, dtype=np.int64)
        for i, (dy, dx) in enumerate(offs):
            ny = gyg + dy
            nx = (gxg + dx) % W
            ok = (ny >= 0) & (ny <= side - 1)
            E[i] = np.where(ok, (11 * ny + 17 * nx) % 997, 1_000_000)
        am = np.argmin(E, axis=0)
        yy, xx = np.indices((L, L))
        tgt = np.where(E[am, yy, xx] < e0, am, -1)
        # edge exists iff source occupied AND target occupied AND the
        # target lies inside the window (shift handles the geometry)
        ordg = np.where(occg, 1, 0).astype(np.int64)
        for _r in range(D):
            mx = np.zeros((L, L), dtype=np.int64)
            cnt = np.zeros((L, L), dtype=np.int64)
            for i, (dy, dx) in enumerate(offs):
                # source cells choosing offset i, shifted onto their
                # target position (window-local, no wrap: halo routing
                # already planarized x)
                contrib = np.zeros((L, L), dtype=np.int64)
                src = occg & (tgt == i)
                sy0, sy1 = max(0, -dy), min(L, L - dy)
                sx0, sx1 = max(0, -dx), min(L, L - dx)
                sl_src = (slice(sy0, sy1), slice(sx0, sx1))
                sl_dst = (slice(sy0 + dy, sy1 + dy),
                          slice(sx0 + dx, sx1 + dx))
                contrib[sl_dst] = np.where(src[sl_src], ordg[sl_src], 0)
                newmax = contrib > mx
                cnt = np.where(newmax, 1,
                               cnt + ((contrib == mx) & (contrib > 0)))
                mx = np.maximum(mx, contrib)
            ordg = np.where(occg,
                            np.where(mx == 0, 1,
                                     np.where(cnt >= 2, mx + 1, mx)),
                            0)
        hy, hx, cell_id = home_cells(occg, ty, tx, D)
        return pa.table({"cell_id": cell_id,
                         "strahler": pa.array(ordg[hy, hx])})

    return halo_stencil(occ, D, [], order_tile, pa.schema(
        [("cell_id", pa.string()), ("strahler", pa.int64())]))


def sql_strahler_order() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    D = STRAHLER_D
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    rebuild = _lattice_cell_sql("gy", "gx", k)
    # one D8 step: target (ny, nx) per occupied cell, NULL when pit
    inner_aliases = [
        f"(((gx - 1) % {W}) + {W}) % {W} AS xl",
        f"(gx + 1) % {W} AS xr",
        "(11 * gy + 17 * gx) % 997 AS e0",
    ]
    ny_case, nx_case = [], []
    for i, (dy, dx) in enumerate(offs, start=1):
        yy = f"gy{'' if dy == 0 else (' - 1' if dy < 0 else ' + 1')}"
        xx = "gx" if dx == 0 else ("xl" if dx < 0 else "xr")
        ee = f"(11 * ({yy}) + 17 * {xx}) % 997"
        if dy < 0:
            ee = f"CASE WHEN gy - 1 < 0 THEN 1000000 ELSE {ee} END"
        elif dy > 0:
            ee = f"CASE WHEN gy + 1 > {side - 1} THEN 1000000 ELSE {ee} END"
        inner_aliases.append(f"{ee} AS e{i}")
        ny_case.append(f"WHEN e{i} = m THEN {yy}")
        nx_case.append(f"WHEN e{i} = m THEN {xx}")
    inner_aliases.append("least(e1, e2, e3, e4, e5, e6, e7, e8) AS m")
    step_inner = ",\n    ".join(inner_aliases)
    ny = "CASE WHEN m >= e0 THEN NULL " + " ".join(ny_case) + " END"
    nx = "CASE WHEN m >= e0 THEN NULL " + " ".join(nx_case) + " END"
    rounds = []
    for r in range(1, D + 1):
        prev = f"sord{r - 1}"
        rounds.append(f"""smx{r} AS MATERIALIZED (
  SELECT e.ty, e.tx, max(p.ord) AS mx
  FROM sedges e JOIN {prev} p ON p.gy = e.sy AND p.gx = e.sx
  GROUP BY e.ty, e.tx
),
scm{r} AS MATERIALIZED (
  SELECT e.ty, e.tx, m.mx, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM sedges e
  JOIN {prev} p ON p.gy = e.sy AND p.gx = e.sx
  JOIN smx{r} m ON m.ty = e.ty AND m.tx = e.tx
  WHERE p.ord = m.mx
  GROUP BY e.ty, e.tx, m.mx
),
sord{r} AS MATERIALIZED (
  SELECT o.gy, o.gx,
    COALESCE(CASE WHEN c.cnt >= 2 THEN c.mx + 1 ELSE c.mx END, 1) AS ord
  FROM socc o LEFT JOIN scm{r} c ON c.ty = o.gy AND c.tx = o.gx
)""")
    chain = ",\n".join(rounds)
    return f"""
WITH sidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
socc AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM sidx
),
stgt AS MATERIALIZED (
  SELECT gy, gx, {ny} AS ny, {nx} AS nx
  FROM (SELECT gy, gx,
    {step_inner}
  FROM socc) t
),
sedges AS MATERIALIZED (
  SELECT s.gy AS sy, s.gx AS sx, s.ny AS ty, s.nx AS tx
  FROM stgt s JOIN socc o ON o.gy = s.ny AND o.gx = s.nx
),
sord0 AS MATERIALIZED (
  SELECT gy, gx, 1 AS ord FROM socc
),
{chain}
SELECT {rebuild} AS cell_id, CAST(ord AS BIGINT) AS strahler
FROM sord{D}
"""


def q_quadrat_test(sf_dir: str):
    """Quadrat test of complete spatial randomness — the chi-square
    screen run before any clustering claim: counts per res-2 tile
    against the uniform expectation e = n / 486 (the full res-2
    universe), chi2 = sum of per-tile floor(((c-e)^2/e)*1e6) over
    occupied tiles + (486 - occupied) * floor((e)*1e6) for the empty
    ones (each per-tile term floor-quantized BEFORE the sum, so the
    total is an order-free integer).  Composes q_tile_counts (the
    fold is bounded by the 486-cell universe, so the resolve is a
    driver scalar pass).  Output (n_points, n_occupied, chi2_e6)."""
    t = q_tile_counts(sf_dir)
    rows = []
    for b in (t.iter_batches(batch_format="pyarrow")
              if hasattr(t, "iter_batches") else [t]):
        if b.num_rows:
            rows.extend(zip(b["tile_id"].to_pylist(), b["n"].to_pylist()))
    n = sum(c for _t, c in rows)
    occ = len(rows)
    e = float(n) / float(QUADRAT_CELLS)
    import math
    chi2 = sum(math.floor((float(c) - e) * (float(c) - e) / e * 1000000.0)
               for _t, c in rows)
    chi2 += (QUADRAT_CELLS - occ) * math.floor(e * 1000000.0)
    return pa.table({
        "n_points": pa.array([n], type=pa.int64()),
        "n_occupied": pa.array([occ], type=pa.int64()),
        "chi2_e6": pa.array([chi2], type=pa.int64()),
    })


def sql_quadrat_test() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), RES, CFG, id_cols=("event_id",)
    )
    T = QUADRAT_CELLS
    TF = oracle._lit(float(T))
    return f"""
WITH qtc AS MATERIALIZED (
  SELECT substr(cell_id, 1, {1 + TILE_RES}) AS tile_id,
    CAST(COUNT(*) AS BIGINT) AS c
  FROM {inner} t GROUP BY 1
),
qtn AS MATERIALIZED (
  SELECT CAST(SUM(c) AS BIGINT) AS n, CAST(COUNT(*) AS BIGINT) AS occ
  FROM qtc
)
SELECT n AS n_points, occ AS n_occupied,
  (SELECT CAST(SUM(CAST(floor((CAST(c AS DOUBLE) - CAST(n AS DOUBLE) / {TF})
      * (CAST(c AS DOUBLE) - CAST(n AS DOUBLE) / {TF})
      / (CAST(n AS DOUBLE) / {TF}) * 1000000.0) AS BIGINT)) AS BIGINT)
   FROM qtc)
  + ({T} - occ)
    * CAST(floor(CAST(n AS DOUBLE) / {TF} * 1000000.0) AS BIGINT)
  AS chi2_e6
FROM qtn
"""


def q_staypoints(sf_dir: str):
    """Staypoint detection (the trajectory-mining primitive behind
    home/work inference): per user, maximal runs of >= STAY_M
    consecutive steps with squared step length <= STAY_R2 (integer
    micro-degrees; ties and thresholds all exact).  One h(user)
    bucket exchange; the run scan is vectorized gaps-and-islands.
    Output (user_id, n_steps, n_stay_steps, n_staypoints)."""
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
                "n_stay_steps": pa.array([], type=pa.int64()),
                "n_staypoints": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid = uid[order]
        xi = g["xi"].to_numpy(zero_copy_only=False)[order]
        yi = g["yi"].to_numpy(zero_copy_only=False)[order]
        same = uid[1:] == uid[:-1]
        dx = xi[1:] - xi[:-1]
        dy = yi[1:] - yi[:-1]
        stay = (dx * dx + dy * dy <= STAY_R2) & same
        u = uid[1:]
        # island ids: new island at every stay-start (stay and not
        # (prev stay with same user at the prev step))
        prev_stay = np.r_[False, stay[:-1]]
        prev_same_user = np.r_[False, u[1:] == u[:-1]]
        start = stay & ~(prev_stay & prev_same_user)
        island = np.cumsum(start) - 1
        n_isl = int(start.sum())
        lens = np.zeros(max(n_isl, 1), dtype=np.int64)
        if n_isl:
            np.add.at(lens, island[stay], 1)
        isl_user = np.zeros(max(n_isl, 1), dtype=np.int64)
        if n_isl:
            isl_user[island[start]] = u[start]
        uu = np.unique(uid)
        n_steps = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n_steps, np.searchsorted(uu, u[same]), 1)
        n_stay = np.zeros(len(uu), dtype=np.int64)
        np.add.at(n_stay, np.searchsorted(uu, u[stay]), 1)
        n_sp = np.zeros(len(uu), dtype=np.int64)
        if n_isl:
            big = lens >= STAY_M
            np.add.at(n_sp, np.searchsorted(uu, isl_user[big]), 1)
        return pa.table({
            "user_id": pa.array(uu),
            "n_steps": pa.array(n_steps),
            "n_stay_steps": pa.array(n_stay),
            "n_staypoints": pa.array(n_sp),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def sql_staypoints() -> str:
    pts = _points_sql("events", "event_id")
    return f"""
WITH spt AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id,
    CAST(floor(p.lon * 1000000.0) AS BIGINT) AS xi,
    CAST(floor(p.lat * 1000000.0) AS BIGINT) AS yi
  FROM events e JOIN ({pts}) p ON p.event_id = e.event_id
),
spst AS MATERIALIZED (
  SELECT user_id,
    row_number() OVER w AS rn,
    xi - lag(xi) OVER w AS dx, yi - lag(yi) OVER w AS dy
  FROM spt
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
spsf AS MATERIALIZED (
  SELECT user_id, rn,
    CASE WHEN dx * dx + dy * dy <= {STAY_R2} THEN 1 ELSE 0 END AS stay
  FROM spst WHERE dx IS NOT NULL
),
spis AS MATERIALIZED (
  SELECT user_id, stay,
    rn - row_number() OVER (PARTITION BY user_id, stay ORDER BY rn)
      AS grp
  FROM spsf
),
spru AS MATERIALIZED (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS run_len
  FROM spis WHERE stay = 1 GROUP BY user_id, grp
)
SELECT f.user_id, CAST(COUNT(*) AS BIGINT) AS n_steps,
  CAST(SUM(f.stay) AS BIGINT) AS n_stay_steps,
  CAST(COALESCE(ANY_VALUE(r.n_sp), 0) AS BIGINT) AS n_staypoints
FROM spsf f
LEFT JOIN (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_sp
  FROM spru WHERE run_len >= {STAY_M} GROUP BY user_id
) r ON r.user_id = f.user_id
GROUP BY f.user_id
"""


# ---------------------------------------------------------------------------
# Round 4e: Geary's C spatial autocorrelation (exact integer ratio)
# ---------------------------------------------------------------------------


def q_gearys_c(sf_dir: str):
    """Geary's C over the equatorial res-2 event lattice — the
    local-contrast autocorrelation statistic complementing q_morans_i
    (C < 1 clustered, 1 random, > 1 dispersed): with deviations
    d_i = nc*x_i - S (integers), the N^2 denominators cancel and
    C = (nc-1) * sum_{i~j}(d_i - d_j)^2 / (2W * sum d_i^2) EXACTLY;
    c_e6 is one bignum // (== HUGEINT).  Counting distributed, the
    O(324) lattice fold on the driver (resolution-bound).
    Output (n_cells, w_pairs, num2, den, c_e6)."""
    nrow = CFG.N_side**MORAN_RES
    ncol = 4 * nrow
    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = idx.cell_from_point(CFG, MORAN_RES, lon, lat, plane=False)
        face = su.face_of(u)
        eq = (face >= 1) & (face <= 4)
        cu, ci = np.unique(u[eq], return_inverse=True)
        cnt = np.zeros(len(cu), dtype=np.int64)
        np.add.at(cnt, ci, 1)
        row, gcol = lattice_of_u64(cu, MORAN_RES)
        k = row * ncol + gcol
        return pa.table({"k": pa.array(k), "n": pa.array(cnt)})

    agg = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("k").aggregate(Sum("n", alias_name="n"))
    rows = agg.take_all()  # bounded: <= nrow*ncol lattice cells
    x = np.zeros(nrow * ncol, dtype=np.int64)
    for r in rows:
        x[int(r["k"])] = int(r["n"])
    x = x.reshape(nrow, ncol)
    nc = nrow * ncol
    sx = int(x.sum())
    d = (nc * x - sx).astype(object)
    num2 = 0
    w_pairs = 0
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            shifted = np.roll(d, -dc, axis=1)
            if dr == -1:
                a, b = d[1:, :], shifted[:-1, :]
            elif dr == 1:
                a, b = d[:-1, :], shifted[1:, :]
            else:
                a, b = d, shifted
            diff = a - b
            num2 += int((diff * diff).sum())
            w_pairs += a.size
    den = int((d * d).sum())
    c_e6 = ((nc - 1) * num2 * 10 ** 6) // (2 * w_pairs * den) if den else 0
    return pa.table({
        "n_cells": pa.array([nc], type=pa.int64()),
        "w_pairs": pa.array([w_pairs], type=pa.int64()),
        "num2": pa.array([num2], type=pa.int64()),
        "den": pa.array([den], type=pa.int64()),
        "c_e6": pa.array([c_e6], type=pa.int64()),
    })


def sql_gearys_c() -> str:
    res, N = MORAN_RES, CFG.N_side
    nrow = N**res
    ncol = 4 * nrow
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), res, CFG, id_cols=("event_id",)
    )
    dig = lambda i: f"CAST(substr(cell_id, {i + 2}, 1) AS BIGINT)"
    row = "(" + " + ".join(
        f"({dig(i)} // {N}) * {N ** (res - 1 - i)}" for i in range(res)
    ) + ")"
    colf = "(" + " + ".join(
        f"({dig(i)} % {N}) * {N ** (res - 1 - i)}" for i in range(res)
    ) + ")"
    fidx = (
        "(CASE substr(cell_id, 1, 1) "
        + " ".join(f"WHEN '{c}' THEN {i}" for i, c in enumerate(CELLS0))
        + " END)"
    )
    gcol = f"(({fidx} - 1) * {nrow} + {colf})"
    return f"""
WITH gcidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {inner} t
),
gceq AS MATERIALIZED (
  SELECT {row} AS row, {gcol} AS gcol, CAST(COUNT(*) AS BIGINT) AS n
  FROM gcidx WHERE substr(cell_id, 1, 1) IN ('O', 'P', 'Q', 'R')
  GROUP BY 1, 2
),
gclat AS (
  SELECT r.row, c.gcol FROM
    (SELECT unnest(generate_series(0, {nrow - 1})) AS row) r,
    (SELECT unnest(generate_series(0, {ncol - 1})) AS gcol) c
),
gcx AS MATERIALIZED (
  SELECT l.row, l.gcol, COALESCE(gceq.n, 0) AS n
  FROM gclat l LEFT JOIN gceq ON gceq.row = l.row AND gceq.gcol = l.gcol
),
gctot AS (SELECT CAST(SUM(n) AS BIGINT) AS sx,
  CAST(COUNT(*) AS BIGINT) AS nc FROM gcx),
gcd AS MATERIALIZED (
  SELECT row, gcol, CAST(gctot.nc * gcx.n - gctot.sx AS BIGINT) AS d
  FROM gcx, gctot
),
gcoffs AS (
  SELECT dr.dr, dc.dc FROM
    (SELECT unnest(generate_series(-1, 1)) AS dr) dr,
    (SELECT unnest(generate_series(-1, 1)) AS dc) dc
  WHERE NOT (dr.dr = 0 AND dc.dc = 0)
),
gcp AS (
  SELECT CAST(a.d - b.d AS HUGEINT) * (a.d - b.d) AS p
  FROM gcd a JOIN gcoffs o ON TRUE
  JOIN gcd b ON b.row = a.row + o.dr
    AND b.gcol = ((a.gcol + o.dc) % {ncol} + {ncol}) % {ncol}
),
gcs AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS w,
    CAST(SUM(p) AS HUGEINT) AS num2 FROM gcp
),
gcden AS (
  SELECT CAST(SUM(CAST(d AS HUGEINT) * d) AS HUGEINT) AS den FROM gcd
)
SELECT t.nc AS n_cells, s.w AS w_pairs,
  CAST(s.num2 AS BIGINT) AS num2, CAST(dd.den AS BIGINT) AS den,
  CAST(CASE WHEN dd.den > 0
    THEN (t.nc - 1) * s.num2 * 1000000 // (2 * s.w * dd.den)
    ELSE 0 END AS BIGINT) AS c_e6
FROM gctot t, gcs s, gcden dd
"""


def q_conformal_interval(sf_dir: str):
    """Split-conformal prediction interval for daily revenue per
    event_type — the distribution-free uncertainty band: the pre-
    split days (before DID_SPLIT_DAY) fit the model (per-dow floor
    mean, exact integer), the post-split days supply absolute
    residuals, and q_hat is the k-th smallest with k = ceil((1 -
    alpha) * (m + 1)) — a pure order statistic, no floats anywhere.
    n_cover counts post-days inside the band (the empirical
    calibration readout).  Daily sums fold on the driver.
    Output (event_type, m, qhat_cents, n_cover)."""
    acc = _daily_cents(sf_dir)
    series: dict = {}
    for k, cents in acc.items():
        tp, d = k.split("\x00")
        series.setdefault(tp, []).append((int(d), cents))
    out = {c: [] for c in ("event_type", "m", "qhat_cents", "n_cover")}
    for tp in sorted(series):
        pts = sorted(series[tp])
        model: dict = {}
        for d, x in pts:
            if d < DID_SPLIT_DAY:
                dow = (d + 4) % 7
                n_g, s_g = model.get(dow, (0, 0))
                model[dow] = (n_g + 1, s_g + x)
        mean = {dow: s_g // n_g for dow, (n_g, s_g) in model.items()}
        resid = []
        for d, x in pts:
            if d >= DID_SPLIT_DAY and ((d + 4) % 7) in mean:
                resid.append(abs(x - mean[(d + 4) % 7]))
        m = len(resid)
        if m == 0:
            continue
        # ceil((1-alpha)(m+1)) in the positive form (a + b - 1) // b —
        # the negative-division idiom diverges from DuckDB's trunc //
        k_idx = ((CONF_ALPHA_DEN - CONF_ALPHA_NUM) * (m + 1)
                 + CONF_ALPHA_DEN - 1) // CONF_ALPHA_DEN
        resid.sort()
        qhat = resid[min(k_idx, m) - 1]
        cover = sum(1 for r in resid if r <= qhat)
        out["event_type"].append(tp)
        out["m"].append(m)
        out["qhat_cents"].append(qhat)
        out["n_cover"].append(cover)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "m": pa.array(out["m"], type=pa.int64()),
        "qhat_cents": pa.array(out["qhat_cents"], type=pa.int64()),
        "n_cover": pa.array(out["n_cover"], type=pa.int64()),
    })


def sql_conformal_interval() -> str:
    A, D = CONF_ALPHA_NUM, CONF_ALPHA_DEN
    return f"""
WITH cfd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
cfm AS MATERIALIZED (
  SELECT event_type, (day + 4) % 7 AS dow,
    CAST(SUM(x) // COUNT(*) AS BIGINT) AS mean
  FROM cfd WHERE day < {DID_SPLIT_DAY} GROUP BY 1, 2
),
cfr AS MATERIALIZED (
  SELECT d.event_type, abs(d.x - m.mean) AS r
  FROM cfd d JOIN cfm m
    ON m.event_type = d.event_type AND m.dow = (d.day + 4) % 7
  WHERE d.day >= {DID_SPLIT_DAY}
),
cfq AS MATERIALIZED (
  SELECT event_type, r,
    row_number() OVER (PARTITION BY event_type ORDER BY r) AS rn,
    COUNT(*) OVER (PARTITION BY event_type) AS m
  FROM cfr
),
cfh AS MATERIALIZED (
  SELECT event_type, r AS qhat, m FROM cfq
  WHERE rn = least((({D} - {A}) * (m + 1) + {D} - 1) // {D}, m)
)
SELECT q.event_type, CAST(q.m AS BIGINT) AS m,
  CAST(q.qhat AS BIGINT) AS qhat_cents,
  CAST((SELECT COUNT(*) FROM cfr r
        WHERE r.event_type = q.event_type AND r.r <= q.qhat) AS BIGINT)
    AS n_cover
FROM cfh q
"""


# ---------------------------------------------------------------------------
# Round 4e: bilinear 2x upsample of the res-2 count raster
# ---------------------------------------------------------------------------


def q_bilinear_resample(sf_dir: str):
    """Bilinear 2x upsampling of the equatorial res-2 count raster —
    the resampling kernel every raster pipeline needs, kept exact by
    scaling 4x: even/even = 4*x(i,j); odd rows/cols average the two
    (2*(a+b)) or four (a+b+c+d) corner cells; east-west wraps, the
    last odd row is dropped (no southern neighbor).  Zero output
    cells are omitted (GROUP BY parity).  The lattice fold is
    O(324); the upsample is vectorized.
    Output (r2, c2, v4)."""
    nrow = CFG.N_side**MORAN_RES
    ncol = 4 * nrow
    ds = _read(sf_dir, "events", columns=["event_id"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = idx.cell_from_point(CFG, MORAN_RES, lon, lat, plane=False)
        face = su.face_of(u)
        eq = (face >= 1) & (face <= 4)
        cu, ci = np.unique(u[eq], return_inverse=True)
        cnt = np.zeros(len(cu), dtype=np.int64)
        np.add.at(cnt, ci, 1)
        row, gcol = lattice_of_u64(cu, MORAN_RES)
        k = row * ncol + gcol
        return pa.table({"k": pa.array(k), "n": pa.array(cnt)})

    agg = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("k").aggregate(Sum("n", alias_name="n"))
    rows = agg.take_all()  # bounded lattice
    x = np.zeros(nrow * ncol, dtype=np.int64)
    for r in rows:
        x[int(r["k"])] = int(r["n"])
    x = x.reshape(nrow, ncol)
    xe = np.roll(x, -1, axis=1)          # east neighbor (wrap)
    out = {}
    out[(0, 0)] = 4 * x
    out[(0, 1)] = 2 * (x + xe)
    out[(1, 0)] = 2 * (x[:-1] + x[1:])
    out[(1, 1)] = x[:-1] + xe[:-1] + x[1:] + xe[1:]
    r2s, c2s, v4s = [], [], []
    for (dr, dc), v in out.items():
        rr, cc2 = np.nonzero(v)
        r2s.append(2 * rr + dr)
        c2s.append(2 * cc2 + dc)
        v4s.append(v[rr, cc2])
    return pa.table({
        "r2": pa.array(np.concatenate(r2s)),
        "c2": pa.array(np.concatenate(c2s)),
        "v4": pa.array(np.concatenate(v4s)),
    })


def sql_bilinear_resample() -> str:
    res, N = MORAN_RES, CFG.N_side
    nrow = N**res
    ncol = 4 * nrow
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), res, CFG, id_cols=("event_id",)
    )
    dig = lambda i: f"CAST(substr(cell_id, {i + 2}, 1) AS BIGINT)"
    row = "(" + " + ".join(
        f"({dig(i)} // {N}) * {N ** (res - 1 - i)}" for i in range(res)
    ) + ")"
    colf = "(" + " + ".join(
        f"({dig(i)} % {N}) * {N ** (res - 1 - i)}" for i in range(res)
    ) + ")"
    fidx = (
        "(CASE substr(cell_id, 1, 1) "
        + " ".join(f"WHEN '{c}' THEN {i}" for i, c in enumerate(CELLS0))
        + " END)"
    )
    gcol = f"(({fidx} - 1) * {nrow} + {colf})"
    return f"""
WITH blidx AS MATERIALIZED (
  SELECT event_id, cell_id FROM {inner} t
),
bleq AS MATERIALIZED (
  SELECT {row} AS row, {gcol} AS gcol, CAST(COUNT(*) AS BIGINT) AS n
  FROM blidx WHERE substr(cell_id, 1, 1) IN ('O', 'P', 'Q', 'R')
  GROUP BY 1, 2
),
bllat AS (
  SELECT r.row, c.gcol FROM
    (SELECT unnest(generate_series(0, {nrow - 1})) AS row) r,
    (SELECT unnest(generate_series(0, {ncol - 1})) AS gcol) c
),
blx AS MATERIALIZED (
  SELECT l.row, l.gcol, COALESCE(e.n, 0) AS n
  FROM bllat l LEFT JOIN bleq e ON e.row = l.row AND e.gcol = l.gcol
),
blup AS (
  SELECT 2 * row AS r2, 2 * gcol AS c2, 4 * n AS v4 FROM blx
  UNION ALL
  SELECT 2 * a.row, 2 * a.gcol + 1, 2 * (a.n + b.n)
  FROM blx a JOIN blx b
    ON b.row = a.row AND b.gcol = (a.gcol + 1) % {ncol}
  UNION ALL
  SELECT 2 * a.row + 1, 2 * a.gcol, 2 * (a.n + b.n)
  FROM blx a JOIN blx b ON b.row = a.row + 1 AND b.gcol = a.gcol
  UNION ALL
  SELECT 2 * a.row + 1, 2 * a.gcol + 1, a.n + ae.n + b.n + be.n
  FROM blx a
  JOIN blx ae ON ae.row = a.row AND ae.gcol = (a.gcol + 1) % {ncol}
  JOIN blx b ON b.row = a.row + 1 AND b.gcol = a.gcol
  JOIN blx be ON be.row = a.row + 1 AND be.gcol = (a.gcol + 1) % {ncol}
)
SELECT CAST(r2 AS BIGINT) AS r2, CAST(c2 AS BIGINT) AS c2,
  CAST(v4 AS BIGINT) AS v4
FROM blup WHERE v4 > 0
"""


def q_theil_decomposition(sf_dir: str):
    """Theil-T inequality of per-user spend, decomposed between and
    within home tiles — where the revenue concentration lives:
    T_total = sum (x_i / X) ln(x_i N / X), T_between = sum_g (X_g/X)
    ln((X_g N) / (X N_g)); each ln of an integer ratio is floor-
    quantized at 1e-12 (scalar libm per distinct ratio) and weighted
    by exact integer cross-multiplication, so the reported
    numerators are order-free integer sums over a common denominator
    X: t_total_e9 = sum x_i * lnq_i // (X * 1000).  Composes
    q_home_cells for the grouping.
    Output (n_users, t_total_e9, t_between_e9, t_within_e9)."""
    import math

    ds = _read(sf_dir, "events", columns=["user_id", "value"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        c = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        s = np.zeros(len(uu), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({
            "user_id": pa.array(uu.astype(np.int64)),
            "s": pa.array(s),
        })

    tot: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for u, s in zip(b["user_id"].to_pylist(), b["s"].to_pylist()):
            tot[u] = tot.get(u, 0) + int(s)
    hc = q_home_cells(sf_dir)
    home: dict = {}
    for b in (hc.iter_batches(batch_format="pyarrow")
              if hasattr(hc, "iter_batches") else [hc]):
        for u, c in zip(b["user_id"].to_pylist(),
                        b["home_cell"].to_pylist()):
            home[int(u)] = c
    users = [u for u in sorted(tot) if tot[u] > 0]
    N = len(users)
    X = sum(tot[u] for u in users)
    t_tot_num = 0
    for u in users:
        x = tot[u]
        t_tot_num += x * math.floor(
            math.log(float(x) * float(N) / float(X)) * 1e12)
    grp: dict = {}
    for u in users:
        g = home.get(u)
        n_g, x_g = grp.get(g, (0, 0))
        grp[g] = (n_g + 1, x_g + tot[u])
    t_btw_num = 0
    for g, (n_g, x_g) in grp.items():
        t_btw_num += x_g * math.floor(math.log(
            (float(x_g) * float(N)) / (float(X) * float(n_g))) * 1e12)
    t_total = t_tot_num // (X * 1000)
    t_between = t_btw_num // (X * 1000)
    return pa.table({
        "n_users": pa.array([N], type=pa.int64()),
        "t_total_e9": pa.array([t_total], type=pa.int64()),
        "t_between_e9": pa.array([t_between], type=pa.int64()),
        "t_within_e9": pa.array([t_total - t_between], type=pa.int64()),
    })


def sql_theil_decomposition() -> str:
    hc = sql_home_cells()
    return f"""
WITH thu AS MATERIALIZED (
  SELECT user_id,
    CAST(SUM(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1 HAVING SUM(CAST(floor(value * 100) AS BIGINT)) > 0
),
tht AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS xx
  FROM thu
),
thtot AS MATERIALIZED (
  SELECT CAST(SUM(CAST(u.x AS HUGEINT)
    * CAST(floor(ln(CAST(u.x AS DOUBLE) * CAST(t.n AS DOUBLE)
        / CAST(t.xx AS DOUBLE)) * 1000000000000.0) AS HUGEINT))
    AS HUGEINT) AS num
  FROM thu u CROSS JOIN tht t
),
thh AS MATERIALIZED (
  SELECT user_id, home_cell FROM ({hc}) t
),
thg AS MATERIALIZED (
  SELECT h.home_cell, CAST(COUNT(*) AS BIGINT) AS n_g,
    CAST(SUM(u.x) AS BIGINT) AS x_g
  FROM thu u JOIN thh h ON h.user_id = u.user_id
  GROUP BY h.home_cell
),
thb AS MATERIALIZED (
  SELECT CAST(SUM(CAST(g.x_g AS HUGEINT)
    * CAST(floor(ln((CAST(g.x_g AS DOUBLE) * CAST(t.n AS DOUBLE))
        / (CAST(t.xx AS DOUBLE) * CAST(g.n_g AS DOUBLE)))
        * 1000000000000.0) AS HUGEINT)) AS HUGEINT) AS num
  FROM thg g CROSS JOIN tht t
)
SELECT t.n AS n_users,
  CAST(CASE WHEN tt.num >= 0 THEN tt.num // (t.xx * 1000)
    ELSE -((-tt.num) // (t.xx * 1000))
      - CASE WHEN (-tt.num) % (t.xx * 1000) > 0 THEN 1 ELSE 0 END
    END AS BIGINT) AS t_total_e9,
  CAST(CASE WHEN b.num >= 0 THEN b.num // (t.xx * 1000)
    ELSE -((-b.num) // (t.xx * 1000))
      - CASE WHEN (-b.num) % (t.xx * 1000) > 0 THEN 1 ELSE 0 END
    END AS BIGINT) AS t_between_e9,
  CAST(CASE WHEN tt.num >= 0 THEN tt.num // (t.xx * 1000)
    ELSE -((-tt.num) // (t.xx * 1000))
      - CASE WHEN (-tt.num) % (t.xx * 1000) > 0 THEN 1 ELSE 0 END
    END
  - CASE WHEN b.num >= 0 THEN b.num // (t.xx * 1000)
    ELSE -((-b.num) // (t.xx * 1000))
      - CASE WHEN (-b.num) % (t.xx * 1000) > 0 THEN 1 ELSE 0 END
    END AS BIGINT) AS t_within_e9
FROM tht t CROSS JOIN thtot tt CROSS JOIN thb b
"""


def q_revisit_rate(sf_dir: str):
    """Home-revisit behaviour per user — the mobility-loyalty metric:
    with each event labeled home/away by the user's modal res-3 cell
    (q_home_cells), an excursion is a maximal away-run bracketed by
    home visits on BOTH sides; revisits = excursions (the user came
    back), one-way trips = trailing away-runs.  Pure integer
    gaps-and-islands per user inside one h(user) bucket exchange
    (labels broadcast via ray.put).
    Output (user_id, n_events, n_home, n_excursions, n_oneway)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    hc = q_home_cells(sf_dir)
    home: dict = {}
    for b in (hc.iter_batches(batch_format="pyarrow")
              if hasattr(hc, "iter_batches") else [hc]):
        for u, c in zip(b["user_id"].to_pylist(),
                        b["home_cell"].to_pylist()):
            home[int(u)] = c
    import ray as _ray
    home_ref = _ray.put(home)
    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        hm = _ray.get(home_ref)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        lon, lat = oracle.lonlat_from_id(eid)
        u = cidx.cell_from_point(CFG, 3, lon, lat, plane=False)
        cell = su.to_string_fixed(u, 3).to_pylist()
        is_home = np.array(
            [1 if hm.get(int(uu)) == cc else 0
             for uu, cc in zip(uid, cell)], dtype=np.int64)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "user_id": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "event_id": pa.array(eid.astype(np.int64)),
            "h": pa.array(is_home),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "user_id" not in g.column_names:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "n_home": pa.array([], type=pa.int64()),
                "n_excursions": pa.array([], type=pa.int64()),
                "n_oneway": pa.array([], type=pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        h = g["h"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, uid))
        uid, h = uid[order], h[order]
        # vectorized run detection: away-run starts/ends
        away = h == 0
        same_prev = np.r_[False, uid[1:] == uid[:-1]]
        run_start = away & ~(same_prev & np.r_[False, away[:-1]])
        same_next = np.r_[uid[:-1] == uid[1:], False]
        run_end = away & ~(same_next & np.r_[away[1:], False])
        # an excursion run is bracketed by home on both sides (same
        # user): start preceded by same-user home, end followed by
        # same-user home
        prev_home = same_prev & np.r_[False, h[:-1] == 1]
        next_home = same_next & np.r_[h[1:] == 1, False]
        sidx = np.flatnonzero(run_start)
        eidx = np.flatnonzero(run_end)
        exc = prev_home[sidx] & next_home[eidx]
        ow = prev_home[sidx] & ~next_home[eidx]
        uq2, cnts = np.unique(uid, return_counts=True)
        nh = np.zeros(len(uq2), dtype=np.int64)
        np.add.at(nh, np.searchsorted(uq2, uid), h)
        n_exc = np.zeros(len(uq2), dtype=np.int64)
        n_ow = np.zeros(len(uq2), dtype=np.int64)
        if len(sidx):
            np.add.at(n_exc, np.searchsorted(uq2, uid[sidx]),
                      exc.astype(np.int64))
            np.add.at(n_ow, np.searchsorted(uq2, uid[sidx]),
                      ow.astype(np.int64))
        return pa.table({
            "user_id": pa.array(uq2),
            "n_events": pa.array(cnts.astype(np.int64)),
            "n_home": pa.array(nh),
            "n_excursions": pa.array(n_exc),
            "n_oneway": pa.array(n_ow),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def sql_revisit_rate() -> str:
    hc = sql_home_cells()
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), 3, CFG, id_cols=("event_id",)
    )
    return f"""
WITH rvh AS MATERIALIZED (
  SELECT user_id, home_cell FROM ({hc}) t
),
rvi AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
rve AS MATERIALIZED (
  SELECT e.user_id, e.ts, e.event_id,
    CASE WHEN i.cell_id = h.home_cell THEN 1 ELSE 0 END AS hm
  FROM events e
  JOIN rvi i ON i.event_id = e.event_id
  JOIN rvh h ON h.user_id = e.user_id
),
rvs AS MATERIALIZED (
  SELECT user_id, hm,
    row_number() OVER w AS rn,
    lag(hm) OVER w AS prev_hm,
    lead(hm) OVER w AS next_hm,
    row_number() OVER (PARTITION BY user_id, hm ORDER BY ts, event_id)
      AS grn
  FROM rve WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
rvr AS MATERIALIZED (
  -- away runs: gaps-and-islands group id; bracketing flags via
  -- ordered first/last over each run
  SELECT user_id, rn - grn AS grp,
    CAST(first(COALESCE(prev_hm, 0) ORDER BY rn) AS BIGINT) AS headed,
    CAST(last(COALESCE(next_hm, 0) ORDER BY rn) AS BIGINT) AS tailed
  FROM rvs WHERE hm = 0 GROUP BY user_id, rn - grn
),
rva AS MATERIALIZED (
  SELECT user_id,
    CAST(COUNT(*) FILTER (WHERE headed = 1 AND tailed = 1) AS BIGINT)
      AS n_exc,
    CAST(COUNT(*) FILTER (WHERE headed = 1 AND tailed = 0) AS BIGINT)
      AS n_ow
  FROM rvr GROUP BY user_id
)
SELECT e.user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
  CAST(SUM(e.hm) AS BIGINT) AS n_home,
  CAST(COALESCE(ANY_VALUE(a.n_exc), 0) AS BIGINT) AS n_excursions,
  CAST(COALESCE(ANY_VALUE(a.n_ow), 0) AS BIGINT) AS n_oneway
FROM rve e LEFT JOIN rva a ON a.user_id = e.user_id
GROUP BY e.user_id
"""


def q_contour_crossings(sf_dir: str):
    """Contour complexity of the closed-form terrain over OCCUPIED
    cells: for each level T, the number of occupied-cell lattice
    edges (east and south neighbors, seam wrap) whose endpoint
    elevations straddle T — the discrete isoline length.  Exact
    integer comparisons; one distinct-cells fold then a pure map
    (the hillshade shape).  Output (level, n_crossings)."""
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side

    occ = band_counts(indexed_events(sf_dir, resolution=k), "n")
    cellsets = []
    for b in occ.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            cellsets.append(b["cell_u64"].to_numpy(zero_copy_only=False)
                            .astype(np.uint64))
    u = (np.concatenate(cellsets) if cellsets
         else np.array([], dtype=np.uint64))
    gy, gx = lattice_of_u64(u, k)
    occset = set((int(a) * W + int(b)) for a, b in zip(gy, gx % W))

    def e(yy, xx):
        return (11 * yy + 17 * (xx % W)) % 997

    out_l, out_c = [], []
    e0 = e(gy, gx)
    for T in CONTOUR_LEVELS:
        cnt = 0
        for dy, dx in ((0, 1), (1, 0)):
            ny = gy + dy
            nx = (gx + dx) % W
            ok = ny <= side - 1
            nb_in = np.array(
                [(int(a) * W + int(b)) in occset
                 for a, b in zip(ny, nx)], dtype=bool) & ok
            ev = e(ny, nx)
            straddle = ((e0 < T) != (ev < T)) & nb_in
            cnt += int(straddle.sum())
        out_l.append(T)
        out_c.append(cnt)
    return pa.table({
        "level": pa.array(out_l, type=pa.int64()),
        "n_crossings": pa.array(out_c, type=pa.int64()),
    })


def sql_contour_crossings() -> str:
    k = DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)

    def e(yy: str, xx: str) -> str:
        return f"((11 * ({yy}) + 17 * ((({xx}) % {W} + {W}) % {W})) % 997)"

    levels = ", ".join(str(v) for v in CONTOUR_LEVELS)
    return f"""
WITH cci AS MATERIALIZED (
  SELECT event_id, cell_id FROM {idx_sql} t
),
ccc AS MATERIALIZED (
  SELECT DISTINCT {gy} AS gy, {gx} AS gx FROM cci
),
cce AS MATERIALIZED (
  SELECT a.gy AS y1, a.gx AS x1, b.gy AS y2, b.gx AS x2
  FROM ccc a JOIN ccc b
    ON (b.gy = a.gy AND b.gx = (a.gx + 1) % {W})
    OR (b.gy = a.gy + 1 AND b.gx = a.gx)
)
SELECT CAST(l.t AS BIGINT) AS level,
  CAST(COUNT(*) FILTER (WHERE
    ({e('y1', 'x1')} < l.t) <> ({e('y2', 'x2')} < l.t)) AS BIGINT)
    AS n_crossings
FROM cce CROSS JOIN (SELECT unnest([{levels}]) AS t) l
GROUP BY l.t
"""


def q_tile_cross_density(sf_dir: str):
    """Cross-dataset geo join of the two payload worlds: events
    (coordinates from oracle.lonlat_from_id) and images (coordinates
    from the phash rule) meet per res-TILE_RES cell — per tile the
    event count, image count, and events-per-image ratio (1e6-
    quantized; -1 where a tile has events but no images).  Both sides
    fold map-side to <= #tiles partial rows, the join is a driver
    tiny-merge over the bounded tile key space — never a shuffle
    join.  Output (tile_id, n_events, n_images, ratio_e6)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.fixtures import phash_to_lonlat, write_images_table

    ev = q_tile_counts(sf_dir).to_pandas()  # bounded: tile cardinality

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, columns=["phash"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    def img_tiles(batch: pa.Table) -> pa.Table:
        ph = batch["phash"].to_numpy(zero_copy_only=False)
        lon, lat = phash_to_lonlat(ph)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        uq, cnt = np.unique(u, return_counts=True)
        return pa.table({
            "tile_id": su.to_string_fixed(uq.astype(np.uint64), TILE_RES),
            "n": pa.array(cnt.astype(np.int64)),
        })

    img: dict = {}
    for b in ds.map_batches(img_tiles, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        for t, n in zip(b["tile_id"].to_pylist(), b["n"].to_pylist()):
            img[t] = img.get(t, 0) + n
    ev_map = dict(zip(ev["tile_id"].tolist(),
                      ev["n"].astype(int).tolist()))
    tiles = sorted(set(ev_map) | set(img))
    ne = np.array([ev_map.get(t, 0) for t in tiles], dtype=np.int64)
    ni = np.array([img.get(t, 0) for t in tiles], dtype=np.int64)
    ratio = np.where(ni > 0, ne * 1_000_000 // np.maximum(ni, 1), -1)
    return pa.table({
        "tile_id": pa.array(tiles, type=pa.string()),
        "n_events": pa.array(ne),
        "n_images": pa.array(ni),
        "ratio_e6": pa.array(ratio.astype(np.int64)),
    })


def sql_tile_cross_density() -> str:
    ev_inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), RES, CFG, id_cols=("event_id",)
    )
    img_src = _image_src_sql()
    img_tiled = oracle.cell_from_point_sql(
        f"SELECT CAST(substr(image_id, 4, 12) AS BIGINT) AS img_idx,"
        f" lon, lat FROM {img_src} t",
        TILE_RES, CFG, id_cols=("img_idx",))
    return f"""
WITH tcde AS MATERIALIZED (
  SELECT substr(cell_id, 1, {1 + TILE_RES}) AS tile_id,
    CAST(COUNT(*) AS BIGINT) AS ne
  FROM {ev_inner} t GROUP BY 1
),
tcdi AS MATERIALIZED (
  SELECT cell_id AS tile_id, CAST(COUNT(*) AS BIGINT) AS ni
  FROM {img_tiled} t GROUP BY 1
)
SELECT COALESCE(e.tile_id, i.tile_id) AS tile_id,
  CAST(COALESCE(e.ne, 0) AS BIGINT) AS n_events,
  CAST(COALESCE(i.ni, 0) AS BIGINT) AS n_images,
  CAST(CASE WHEN COALESCE(i.ni, 0) > 0
    THEN COALESCE(e.ne, 0) * 1000000 // i.ni
    ELSE -1 END AS BIGINT) AS ratio_e6
FROM tcde e FULL OUTER JOIN tcdi i ON i.tile_id = e.tile_id
"""



def q_tile_affinity(sf_dir: str):
    """Per-user tile affinity by tf-idf over the res-TILE_RES grid
    (the place-recommendation primitive): score(u, t) = visits_ut *
    ln(n_users / df_t), df_t = users who ever visit t.  The (user,
    tile) visit counts fold once; the bounded tile document-frequency
    map broadcasts via ray.put; the per-user argmax resolves in an
    h(user) bucket exchange with _libm_log-exact scores (ties ->
    smallest tile).  Output one row per user (user_id, tile_id,
    score_e6)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import (
        hash_bucket_u64, sum_by_u64_key, sum_to_driver)

    ds = _read(sf_dir, "events", columns=["event_id", "user_id"],
               blocks=4)

    def visits(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = (u.astype(np.uint64) >> np.uint64(52)).astype(np.int64)
        key = uid.astype(np.uint64) * np.uint64(4096) \
            + tile.astype(np.uint64)
        if len(tile) and int(tile.max()) >= 4096:
            raise AssertionError("tile affinity packing needs res-2 "
                                 "prefix < 4096")
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "n": pa.array(cnt.astype(np.int64))})

    ut = sum_by_u64_key(
        ds.map_batches(visits, batch_format="pyarrow",
                       zero_copy_batch=True),
        "key", "n", "n", n_buckets=8).materialize()

    # bounded side state: df per tile folds as tiny per-batch partials
    # (ut is already deduped per (user, tile), so tile occurrence
    # counts ARE document frequencies); n_users is one small fold —
    # the driver never sees the O(pairs) rows
    def df_partial(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tt = (k % np.uint64(4096)).astype(np.int64)
        uq, cnt = np.unique(tt, return_counts=True)
        return pa.table({"t": pa.array(uq),
                         "c": pa.array(cnt.astype(np.int64))})

    df: dict = {}
    for b in ut.map_batches(df_partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        for t, c in zip(b["t"].to_pylist(), b["c"].to_pylist()):
            df[t] = df.get(t, 0) + c

    def uid_rows(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uu = np.unique(k // np.uint64(4096))
        return pa.table({"u": pa.array(uu, type=pa.uint64()),
                         "one": pa.array(np.ones(len(uu),
                                                 dtype=np.int64))})

    n_users = len(sum_to_driver(
        ut.map_batches(uid_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        "u", "one")[0])
    dref = ray.put((df, n_users))

    def bucketize(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "bucket", pa.array(hash_bucket_u64(k // np.uint64(4096), 8)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "tile_id": pa.array([], type=pa.string()),
                             "score_e6": pa.array([], type=pa.int64())})
        dfm, nu = ray.get(dref)
        k = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = g["n"].to_numpy(zero_copy_only=False)
        uid = (k // np.uint64(4096)).astype(np.int64)
        tile = (k % np.uint64(4096)).astype(np.int64)
        dfl = np.zeros(4096, dtype=np.int64)
        for ti, c in dfm.items():
            dfl[ti] = c
        dfa = dfl[tile]
        ratio = nu / dfa  # int / int64 array -> float64, exact-rounded
        idf = _libm_log(ratio)
        score = np.floor(n * idf * 1_000_000.0).astype(np.int64)
        order = np.lexsort((tile, -score, uid))
        first = np.append(True, uid[order][1:] != uid[order][:-1])
        sel = order[first]
        cell_id = su.to_string_fixed(
            (tile[sel].astype(np.uint64)) << np.uint64(52), TILE_RES)
        return pa.table({
            "user_id": pa.array(uid[sel]),
            "tile_id": cell_id,
            "score_e6": pa.array(score[sel]),
        })

    return (ut.map_batches(bucketize, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("bucket").map_groups(resolve, batch_format="pyarrow"))


def sql_tile_affinity() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",))
    return f"""
WITH tav AS MATERIALIZED (
  SELECT e.user_id, t.cell_id AS tile_id,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events e JOIN (SELECT event_id, cell_id FROM {inner} q) t
    ON t.event_id = e.event_id
  GROUP BY 1, 2
),
tad AS MATERIALIZED (
  SELECT tile_id, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS df
  FROM tav GROUP BY 1
),
tau AS MATERIALIZED (
  SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS nu FROM tav
),
tas AS MATERIALIZED (
  SELECT v.user_id, v.tile_id,
    CAST(floor(v.n * ln(CAST(nu AS DOUBLE) / df) * 1000000.0)
      AS BIGINT) AS score_e6
  FROM tav v JOIN tad d ON d.tile_id = v.tile_id CROSS JOIN tau
)
SELECT CAST(user_id AS BIGINT) AS user_id, tile_id, score_e6
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id
      ORDER BY score_e6 DESC, tile_id) AS rn
  FROM tas
) WHERE rn = 1
"""



def q_tile_conversion(sf_dir: str):
    """Geo-segmented conversion: per res-TILE_RES tile the view
    count, purchase count, and purchase-per-view rate (1e6-quantized
    integer //; -1 where a tile has no views) — the funnel x geography
    readout.  ONE pass emits namespaced per-tile partials (tile*2 for
    views, tile*2+1 for purchases, the target_encoding key-split
    pattern) into a single u64 fold; the driver merges ~#tiles rows.
    Omits tiles with neither views nor purchases (GROUP BY parity).
    Output (tile_id, n_views, n_purchases, cr_e6)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        m = (et == "view") | (et == "purchase")
        ids = batch["event_id"].to_numpy(zero_copy_only=False)[m]
        is_p = (et[m] == "purchase")
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = (u.astype(np.uint64) >> np.uint64(52))
        key = tile * np.uint64(2) + is_p.astype(np.uint64)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "n": pa.array(cnt.astype(np.int64))})

    key, n = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "n")
    tiles, inv = np.unique(key // np.uint64(2), return_inverse=True)
    vp = np.zeros((len(tiles), 2), dtype=np.int64)  # (views, purchases)
    vp[inv, (key % np.uint64(2)).astype(np.int64)] = n
    nv, np_ = vp.T
    tid = su.to_string_fixed(tiles << np.uint64(52), TILE_RES)
    cr = np.where(nv > 0, np_ * 1_000_000 // np.maximum(nv, 1), -1)
    return pa.table({
        "tile_id": tid,
        "n_views": pa.array(nv),
        "n_purchases": pa.array(np_),
        "cr_e6": pa.array(cr.astype(np.int64)),
    })


def sql_tile_conversion() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",))
    return f"""
WITH tcv AS MATERIALIZED (
  SELECT t.cell_id AS tile_id,
    CAST(COUNT(*) FILTER (WHERE e.event_type = 'view') AS BIGINT)
      AS nv,
    CAST(COUNT(*) FILTER (WHERE e.event_type = 'purchase') AS BIGINT)
      AS np
  FROM events e JOIN (SELECT event_id, cell_id FROM {inner} q) t
    ON t.event_id = e.event_id
  WHERE e.event_type IN ('view', 'purchase')
  GROUP BY 1
)
SELECT tile_id, nv AS n_views, np AS n_purchases,
  CAST(CASE WHEN nv > 0 THEN np * 1000000 // nv ELSE -1 END
    AS BIGINT) AS cr_e6
FROM tcv
"""



def q_tile_weekend_shift(sf_dir: str):
    """Weekend-mix shift per tile: each res-TILE_RES tile's weekend
    share of events against the global weekend share, as an integer
    lift (share_tile_e6 - share_global_e6) — where does weekend
    activity concentrate?  Same one-fold namespaced shape as
    tile_conversion (tile*2 + is_weekend); epoch day % 7 maps
    Thursday=0, so weekend = day % 7 IN (2, 3) (1970-01-01 was a
    Thursday).  Output (tile_id, n_weekday, n_weekend,
    shift_e6)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        dow = (ts // 86_400_000_000) % 7  # 0 = Thursday
        wk = (dow == 2) | (dow == 3)      # Sat, Sun
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = (u.astype(np.uint64) >> np.uint64(52))
        key = tile * np.uint64(2) + wk.astype(np.uint64)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "n": pa.array(cnt.astype(np.int64))})

    key, n = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "n")
    tiles, inv = np.unique(key // np.uint64(2), return_inverse=True)
    dw = np.zeros((len(tiles), 2), dtype=np.int64)  # (weekday, weekend)
    dw[inv, (key % np.uint64(2)).astype(np.int64)] = n
    nd, nw = dw.T
    g_num = int(nw.sum())
    g_tot = int((nd + nw).sum())
    g_share = g_num * 1_000_000 // g_tot if g_tot else 0
    share = nw * 1_000_000 // np.maximum(nd + nw, 1)
    tid = su.to_string_fixed(tiles << np.uint64(52), TILE_RES)
    return pa.table({
        "tile_id": tid,
        "n_weekday": pa.array(nd),
        "n_weekend": pa.array(nw),
        "shift_e6": pa.array((share - g_share).astype(np.int64)),
    })


def sql_tile_weekend_shift() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",))
    return f"""
WITH tws AS MATERIALIZED (
  SELECT t.cell_id AS tile_id,
    CAST(COUNT(*) FILTER (
      WHERE (epoch_us(e.ts) // 86400000000) % 7 NOT IN (2, 3)
    ) AS BIGINT) AS nd,
    CAST(COUNT(*) FILTER (
      WHERE (epoch_us(e.ts) // 86400000000) % 7 IN (2, 3)
    ) AS BIGINT) AS nw
  FROM events e JOIN (SELECT event_id, cell_id FROM {inner} q) t
    ON t.event_id = e.event_id
  GROUP BY 1
),
twg AS MATERIALIZED (
  SELECT CAST(SUM(nw) AS BIGINT) AS gn,
    CAST(SUM(nd) + SUM(nw) AS BIGINT) AS gt
  FROM tws
)
SELECT tile_id, nd AS n_weekday, nw AS n_weekend,
  CAST(nw * 1000000 // greatest(nd + nw, 1)
    - gn * 1000000 // gt AS BIGINT) AS shift_e6
FROM tws, twg
"""



def q_tile_peak_hour(sf_dir: str):
    """Modal activity hour per tile (when is each place busy?): one
    namespaced fold keyed tile*32 + hour-of-day, per-tile argmax with
    ties to the smallest hour — exact integers throughout.  Output
    (tile_id, peak_hour, n_at_peak, n_total)."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        hour = (ts // 3_600_000_000) % 24
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = (u.astype(np.uint64) >> np.uint64(52))
        key = tile * np.uint64(32) + hour.astype(np.uint64)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "n": pa.array(cnt.astype(np.int64))})

    keys, cnts = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "n")
    tiles = keys // np.uint64(32)
    hours = (keys % np.uint64(32)).astype(np.int64)
    # keys ascend by tile, so each tile's rows start at the same index
    # in key order and in (tile, -count, hour) order: its peak is first
    t, start = np.unique(tiles, return_index=True)
    best = np.lexsort((hours, -cnts, tiles))[start]
    return pa.table({
        "tile_id": su.to_string_fixed(t << np.uint64(52), TILE_RES),
        "peak_hour": pa.array(hours[best]),
        "n_at_peak": pa.array(cnts[best]),
        "n_total": pa.array(np.add.reduceat(cnts, start)),
    })


def sql_tile_peak_hour() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",))
    return f"""
WITH tph AS MATERIALIZED (
  SELECT t.cell_id AS tile_id,
    (epoch_us(e.ts) // 3600000000) % 24 AS hour,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events e JOIN (SELECT event_id, cell_id FROM {inner} q) t
    ON t.event_id = e.event_id
  GROUP BY 1, 2
)
SELECT tile_id, CAST(hour AS BIGINT) AS peak_hour,
  n AS n_at_peak,
  CAST(SUM(n) OVER (PARTITION BY tile_id) AS BIGINT) AS n_total
FROM (
  SELECT *, row_number() OVER (PARTITION BY tile_id
      ORDER BY n DESC, hour) AS rn
  FROM tph
) QUALIFY rn = 1
"""



def q_tile_anomaly_days(sf_dir: str):
    """Robust per-tile burst detection: a (tile, day) is anomalous
    when its event count exceeds the tile's median + 3 * MAD over the
    tile's active days (exact lower medians, rank ceil(n/2) both
    levels) — integer decisions end-to-end, the robust-statistics x
    geography composite.  One (tile, day) fold, then a per-tile
    resolve in an h(tile) bucket exchange.  Output (tile_id, day, n,
    med, mad) for flagged days."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id", "ts"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000) - 19723
        if day.size and (day.min() < 0 or day.max() >= 64):
            raise ValueError(
                "tile_anomaly_days: event day outside the 64-day key "
                "window starting 2024-01-01 (days since: "
                f"{int(day.min())}..{int(day.max())})")
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = (u.astype(np.uint64) >> np.uint64(52))
        key = tile * np.uint64(64) + day.astype(np.uint64)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uq, type=pa.uint64()),
                         "n": pa.array(cnt.astype(np.int64))})

    folded = sum_by_u64_key(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "key", "n", "n", n_buckets=8)

    def tile_bucket(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "tbk", pa.array(hash_bucket_u64(k // np.uint64(64), 8)))

    def resolve(g: pa.Table) -> pa.Table:
        empty = pa.table({"tile": pa.array([], type=pa.int64()),
                          "day": pa.array([], type=pa.int64()),
                          "n": pa.array([], type=pa.int64()),
                          "med": pa.array([], type=pa.int64()),
                          "mad": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "key" not in g.column_names:
            return empty
        k = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = g["n"].to_numpy(zero_copy_only=False)
        tile = (k // np.uint64(64)).astype(np.int64)
        day = (k % np.uint64(64)).astype(np.int64)
        out = {c: [] for c in ("tile", "day", "n", "med", "mad")}
        for t in np.unique(tile):
            m = tile == t
            nn, dd = n[m], day[m]
            s = np.sort(nn)
            med = int(s[(len(s) + 1) // 2 - 1])  # exact lower median
            dev = np.sort(np.abs(nn - med))
            mad = int(dev[(len(dev) + 1) // 2 - 1])
            hit = nn > med + 3 * mad
            out["tile"].extend([int(t)] * int(hit.sum()))
            out["day"].extend(dd[hit].tolist())
            out["n"].extend(nn[hit].tolist())
            out["med"].extend([med] * int(hit.sum()))
            out["mad"].extend([mad] * int(hit.sum()))
        return pa.table({c: pa.array(np.array(out[c], dtype=np.int64))
                         for c in out})

    rows = (folded.map_batches(tile_bucket, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("tbk").map_groups(resolve, batch_format="pyarrow"))

    def finish(batch: pa.Table) -> pa.Table:
        t = batch["tile"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "tile_id": pa.array(su.to_string_fixed(
                t << np.uint64(52), TILE_RES).tolist(), type=pa.string()),
            "day": batch["day"],
            "n": batch["n"],
            "med": batch["med"],
            "mad": batch["mad"],
        })

    return _schema_anchor(
        rows.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True),
        pa.table({"tile_id": pa.array([], type=pa.string()),
                  "day": pa.array([], type=pa.int64()),
                  "n": pa.array([], type=pa.int64()),
                  "med": pa.array([], type=pa.int64()),
                  "mad": pa.array([], type=pa.int64())}))


def sql_tile_anomaly_days() -> str:
    inner = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG,
        id_cols=("event_id",))
    return f"""
WITH tad AS MATERIALIZED (
  SELECT t.cell_id AS tile_id,
    epoch_us(e.ts) // 86400000000 - 19723 AS day,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM events e JOIN (SELECT event_id, cell_id FROM {inner} q) t
    ON t.event_id = e.event_id
  GROUP BY 1, 2
),
tmed AS MATERIALIZED (
  SELECT tile_id, n AS med FROM (
    SELECT tile_id, n,
      row_number() OVER (PARTITION BY tile_id ORDER BY n) AS rn,
      COUNT(*) OVER (PARTITION BY tile_id) AS cnt
    FROM tad
  ) WHERE rn = (cnt + 1) // 2
),
tmad AS MATERIALIZED (
  SELECT tile_id, ad AS mad FROM (
    SELECT d.tile_id, abs(d.n - m.med) AS ad,
      row_number() OVER (PARTITION BY d.tile_id
                         ORDER BY abs(d.n - m.med)) AS rn,
      COUNT(*) OVER (PARTITION BY d.tile_id) AS cnt
    FROM tad d JOIN tmed m ON m.tile_id = d.tile_id
  ) WHERE rn = (cnt + 1) // 2
)
SELECT d.tile_id, CAST(d.day AS BIGINT) AS day, d.n,
  m.med, a.mad
FROM tad d
JOIN tmed m ON m.tile_id = d.tile_id
JOIN tmad a ON a.tile_id = d.tile_id
WHERE d.n > m.med + 3 * a.mad
"""
