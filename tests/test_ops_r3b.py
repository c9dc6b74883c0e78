"""Invariant tests for the round-3b operators (dissolve raster->vector
boundary, and later additions)."""

import numpy as np
import pandas as pd

import rhealpixdggs_py_ray.pipelines.queries as Q
from rhealpixdggs_py_ray import oracle
from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su

SF = "/root/testdata/sf0.001"


def _df(ds):
    return ds.to_pandas() if hasattr(ds, "to_pandas") else ds


def test_dissolve_rings_closed(ray_session):
    """Every boundary vertex must have in-degree == out-degree — the
    directed edge set decomposes into closed rings."""
    df = _df(Q.q_dissolve(SF))
    assert len(df) > 0
    W = 4 * 3 ** Q.DISSOLVE_RES
    starts = (df["x1"].to_numpy() % W) * 100000 + df["y1"].to_numpy()
    ends = (df["x2"].to_numpy() % W) * 100000 + df["y2"].to_numpy()
    s_u, s_c = np.unique(starts, return_counts=True)
    e_u, e_c = np.unique(ends, return_counts=True)
    assert np.array_equal(s_u, e_u)
    assert np.array_equal(s_c, e_c)
    # lattice bounds: x in [0, W], y in [0, 3^k]
    for c in ("x1", "x2"):
        assert df[c].between(0, W).all()
    for c in ("y1", "y2"):
        assert df[c].between(0, 3 ** Q.DISSOLVE_RES).all()
    # every edge is unit-length and axis-aligned
    dx = (df["x2"] - df["x1"]).abs()
    dy = (df["y2"] - df["y1"]).abs()
    assert ((dx + dy) == 1).all()


def test_dissolve_shoelace_equals_cell_count(ray_session):
    """On a seam-free occupied set, the directed boundary's shoelace sum
    equals 2 x (number of occupied cells) — orientation and cancellation
    are both exactly right.  Built directly from the same lattice mapping
    the query uses, on a synthetic blob away from the antimeridian."""
    k = Q.DISSOLVE_RES
    side = 3 ** k
    rng = np.random.default_rng(7)
    # random blob in the middle of face Q (gx in [2*side, 3*side))
    occ = set()
    for _ in range(400):
        occ.add((int(rng.integers(20, 60)), int(2 * side + rng.integers(10, 70))))
    occ = sorted(occ)
    gy = np.array([a for a, b in occ], dtype=np.int64)
    gx = np.array([b for a, b in occ], dtype=np.int64)
    # emit edges exactly as the query does
    W = 4 * side
    ekey = np.concatenate([
        (0 << 41) | (gy << 21) | gx,
        (0 << 41) | ((gy + 1) << 21) | gx,
        (1 << 41) | (gy << 21) | ((gx + 1) % W),
        (1 << 41) | (gy << 21) | gx,
    ])
    w = np.concatenate([np.full(len(gx), 5), np.full(len(gx), 4),
                        np.full(len(gx), 5), np.full(len(gx), 4)]).astype(np.int64)
    uq, inv = np.unique(ekey, return_inverse=True)
    s = np.zeros(len(uq), dtype=np.int64)
    np.add.at(s, inv, w)
    m = s < 8
    key, wsum = uq[m], s[m]
    typ = key >> 41
    y = (key >> 21) & ((1 << 20) - 1)
    x = key & ((1 << 20) - 1)
    fwd = wsum == 5
    x1 = np.where(typ == 0, np.where(fwd, x, x + 1), x)
    x2 = np.where(typ == 0, np.where(fwd, x + 1, x), x)
    y1 = np.where(typ == 0, y, np.where(fwd, y, y + 1))
    y2 = np.where(typ == 0, y, np.where(fwd, y + 1, y))
    shoelace = np.sum(x1 * y2 - x2 * y1)
    assert shoelace == 2 * len(occ)


def test_dissolve_lattice_matches_projection_order(ray_session):
    """The (gy, gx) lattice mapping is consistent with geography: gx
    increases monotonically with longitude along a parallel, gy with
    colatitude along a meridian (the empirical layout pinned at build
    time)."""
    k = Q.DISSOLVE_RES
    side = 3 ** k
    cfg = Q.CFG
    lons = np.linspace(-179.0, 179.0, 41)
    u = idx.cell_from_point(cfg, k, lons, np.full_like(lons, 11.0), plane=False)
    face, digits, _ = su.unpack(u)
    d = digits[:, :k].astype(np.int64)
    pw = (3 ** np.arange(k - 1, -1, -1)).astype(np.int64)
    gx = (face.astype(np.int64) - 1) * side + (d % 3) @ pw
    assert (np.diff(gx) >= 0).all()
    lats = np.linspace(34.0, -34.0, 21)
    u2 = idx.cell_from_point(cfg, k, np.full_like(lats, 11.0), lats, plane=False)
    face2, digits2, _ = su.unpack(u2)
    d2 = digits2[:, :k].astype(np.int64)
    gy = (d2 // 3) @ pw
    assert (np.diff(gy) >= 0).all()


def test_line_buffer_contains_trace_and_is_tight(ray_session):
    """The buffer is exactly the Chebyshev-r dilation of the trace:
    superset of the trace, and every buffer cell is within r (with
    column wrap) of some trace cell of the same line."""
    k = Q.LINETRACE_RES
    side = 3 ** k
    W = 4 * side
    r = Q.LINE_BUFFER_R
    trace = _df(Q.q_linetrace(SF))
    buf = _df(Q.q_line_buffer(SF))
    for lid, tsub in trace.groupby("line_id"):
        bsub = buf[buf["line_id"] == lid]
        tset = set(tsub["cell_id"])
        bset = set(bsub["cell_id"])
        assert tset <= bset
        ty, tx = Q._lattice_from_cell_strings(
            tsub["cell_id"].to_numpy(), k)
        by, bx = Q._lattice_from_cell_strings(
            bsub["cell_id"].to_numpy(), k)
        dy = np.abs(by[:, None] - ty[None, :])
        dxr = np.abs(bx[:, None] - tx[None, :])
        dx = np.minimum(dxr, W - dxr)
        cheb = np.maximum(dy, dx).min(axis=1)
        assert (cheb <= r).all()
        # round-trip of the string codec
        assert list(Q._cell_string_array_from_lattice(by, bx, k)) == list(
            bsub["cell_id"])


def test_semdedup_brute_replay(ray_session):
    """Brute-force replay of the SemDeDup rule at sf0.001: keep == 0
    iff a smaller vec_id in the same assigned cluster has cosine >= tau
    (same seq-fold arithmetic)."""
    from rhealpixdggs_py_ray.ops.ann import _seq_d2, _seq_dots, _seq_norm
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix
    import pyarrow.parquet as pq

    df = _df(Q.q_semdedup(SF)).sort_values("vec_id").reset_index(drop=True)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t["vec_id"].to_numpy().astype(np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    M = _emb_matrix(t)[order]
    cdf = _df(Q.q_embedding_centroids(SF)).sort_values(["label", "dim"])
    labels = np.sort(cdf["label"].unique()).astype(np.int64)
    C = (cdf["sum_micros"].to_numpy() / cdf["n"].to_numpy()).reshape(
        len(labels), Q.EMB_D)
    X = np.floor(M * 1000000.0)
    cl = labels[np.argmin(_seq_d2(X, C), axis=1)]
    nrm = _seq_norm(M)
    S = _seq_dots(M, M) / (nrm[:, None] * nrm[None, :])
    same = cl[:, None] == cl[None, :]
    smaller = ids[:, None] < ids[None, :]
    dropped = ((S >= Q.SEMDEDUP_TAU) & same & smaller).any(axis=0)
    assert np.array_equal(df["vec_id"].to_numpy(), ids)
    assert np.array_equal(df["cluster"].to_numpy(), cl)
    assert np.array_equal(df["keep"].to_numpy(), (~dropped).astype(np.int64))
    assert dropped.sum() > 0  # fixture actually exercises the drop path


def test_knn_graph_matches_ann_topk_on_query_subset(ray_session):
    """The k-NN graph restricted to ann_topk's query set must equal
    ann_topk exactly (same ties, same micros)."""
    g = _df(Q.q_knn_graph(SF))
    t = _df(Q.q_ann_topk(SF))
    sub = g[g["qid"].isin(t["qid"].unique())]
    key = ["qid", "rank"]
    sub = sub.sort_values(key).reset_index(drop=True)
    t = t.sort_values(key).reset_index(drop=True)
    assert len(sub) == len(t)
    for c in ("qid", "vec_id", "rank", "cos_micros"):
        assert np.array_equal(
            sub[c].to_numpy().astype(np.int64),
            t[c].to_numpy().astype(np.int64)), c


def test_idw_raster_bounds_and_totals(ray_session):
    """IDW values are convex combinations of the station values, so the
    per-tile mean must lie in [10, 50] * 1e6; n totals the events."""
    import pyarrow.parquet as pq

    df = _df(Q.q_idw_raster(SF))
    n_events = pq.read_metadata(f"{SF}/events.parquet").num_rows
    assert df["n"].sum() == n_events
    mean = df["sum_idw_micros"].to_numpy() / df["n"].to_numpy()
    assert (mean >= 10_000_000 - 1).all() and (mean <= 50_000_000).all()


def test_rknn_counts_conservation(ray_session):
    """In-degrees must sum to exactly N * k edges and cover every
    vector (zeros included)."""
    import pyarrow.parquet as pq

    df = _df(Q.q_rknn_counts(SF))
    n = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    assert len(df) == n
    assert df["indeg"].sum() == n * 5
    assert df["vec_id"].is_unique


def test_source_cap_rule(ray_session):
    """keep == 1 iff rank <= cap; ranks are 1..n_source contiguous."""
    df = _df(Q.q_source_cap(SF))
    assert ((df["rank"] <= Q.SOURCE_CAP) == (df["keep"] == 1)).all()
    for _, g in df.groupby("source"):
        r = np.sort(g["rank"].to_numpy())
        assert np.array_equal(r, np.arange(1, len(g) + 1))
        # rank order == doc_id order
        gg = g.sort_values("rank")
        assert gg["doc_id"].is_monotonic_increasing


def test_dissolve_rings_partition_boundary(ray_session):
    """Rings exactly partition the boundary edge set; every ring has at
    least 4 edges (the smallest closed lattice ring)."""
    bnd = _df(Q.q_dissolve(SF))
    rings = _df(Q.q_dissolve_rings(SF))
    assert rings["n_edges"].sum() == len(bnd)
    assert (rings["n_edges"] >= 4).all()
    assert rings["ring_id"].is_unique


def test_tile_median_brute(ray_session):
    """Brute per-tile replay: lower median of cents."""
    import pyarrow.parquet as pq
    from rhealpixdggs_py_ray.core import index as cidx

    df = _df(Q.q_tile_median(SF))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "value"]).to_pandas()
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    u = cidx.cell_from_point(Q.CFG, Q.TILE_RES, lon, lat, plane=False)
    ev["tile"] = su.to_string_fixed(u, Q.TILE_RES)
    ev["v"] = np.floor(ev["value"].to_numpy() * 100).astype(np.int64)
    got = df.set_index("tile_id")
    for tile, g in ev.groupby("tile"):
        v = np.sort(g["v"].to_numpy())
        assert got.loc[tile, "n"] == len(v)
        assert got.loc[tile, "median_cents"] == v[(len(v) - 1) // 2]


def test_oov_rate_monotone_and_bounds(ray_session):
    df = _df(Q.q_oov_rate(SF))
    assert (df["oov"] <= df["total"]).all()
    assert df["oov_micros"].between(0, 1000000).all()
    # the vocab is the global top-K: the corpus-wide OOV mass must be
    # smaller than with any other same-size vocab built from a suffix
    assert df["oov"].sum() < df["total"].sum()


def test_grid_flood_bfs_invariants(ray_session):
    """dist-0 rows are exactly the seed cells; every dist-d row has a
    4-neighbor (with wrap) at dist d-1; all rows are occupied cells."""
    from rhealpixdggs_py_ray.core import index as cidx
    import pyarrow.parquet as pq

    k = Q.DISSOLVE_RES
    side = 3 ** k
    W = 4 * side
    df = _df(Q.q_grid_flood(SF))
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_id"])
    ids = ev["event_id"].to_numpy()
    lon, lat = oracle.lonlat_from_id(ids)
    m = np.abs(lat) <= Q.DISSOLVE_LAT
    u = cidx.cell_from_point(Q.CFG, k, lon[m], lat[m], plane=False)
    cells = su.to_string_fixed(u, k).to_numpy(zero_copy_only=False)
    occ = set(cells)
    seeds = set(cells[(ids[m] % Q.FLOOD_SEED_MOD) == 0])
    got0 = set(df[df["dist"] == 0]["cell_id"])
    assert got0 == seeds
    assert set(df["cell_id"]) <= occ
    gy, gx = Q._lattice_from_cell_strings(df["cell_id"].to_numpy(), k)
    pos = {(int(a), int(b)): int(d)
           for a, b, d in zip(gy, gx, df["dist"])}
    for (a, b), d in pos.items():
        if d == 0:
            continue
        nbrs = [(a + 1, b), (a - 1, b), (a, (b + 1) % W), (a, (b - 1) % W)]
        assert any(pos.get(n) == d - 1 for n in nbrs), (a, b, d)


def test_quota_sample_allocation(ray_session):
    """Exactly QUOTA_N rows; per-source quota differs from exact
    proportion by < 1 slot; smallest doc_ids win."""
    import pyarrow.parquet as pq

    df = _df(Q.q_quota_sample(SF))
    assert len(df) == Q.QUOTA_N
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    total = len(docs)
    cnt = docs.groupby("source").size()
    for s, g in df.groupby("source"):
        q = g["quota"].iloc[0]
        exact = Q.QUOTA_N * cnt[s] / total
        assert np.floor(exact) <= q <= np.ceil(exact) + 1e-9
        assert len(g) == q
        want = np.sort(docs[docs["source"] == s]["doc_id"].to_numpy())[:q]
        assert np.array_equal(np.sort(g["doc_id"].to_numpy()), want)


def test_tile_hll_merge_property(ray_session):
    """Registers merged across tiles must equal the global registers
    restricted to users present — max is the merge."""
    df = _df(Q.q_tile_hll(SF))
    glob = _df(Q.q_hll_registers(SF))
    # merging ALL tiles gives the register max over every (reg)
    merged = df.groupby("reg")["rho"].max()
    global_all = glob.groupby("reg")["rho"].max()
    assert (merged == global_all.loc[merged.index]).all()


def test_adaptive_cover_partitions_points(ray_session):
    """The adaptive cover is a prefix-free partition of the data:
    every indexed point has exactly ONE ancestor in the cover, counts
    are consistent, and no selected cell's count exceeds the cap
    unless it is a max-res overflow cell."""
    from rhealpixdggs_py_ray.core import index as cidx
    import pyarrow.parquet as pq

    cov = _df(Q.q_adaptive_cover(SF))
    cells = cov["cell_id"].to_numpy()
    # prefix-free
    cs = sorted(cells)
    for a, b in zip(cs, cs[1:]):
        assert not b.startswith(a)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_id"])
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    u = cidx.cell_from_point(Q.CFG, Q.ADAPT_MAX_RES, lon, lat, plane=False)
    full = su.to_string_fixed(u, Q.ADAPT_MAX_RES).to_numpy(zero_copy_only=False)
    cover_set = set(cells)
    hits = np.zeros(len(full), dtype=np.int64)
    counts = {}
    for i, f in enumerate(full):
        anc = [f[: 1 + r] for r in range(Q.ADAPT_MAX_RES + 1)]
        inc = [a for a in anc if a in cover_set]
        hits[i] = len(inc)
        if inc:
            counts[inc[0]] = counts.get(inc[0], 0) + 1
    assert (hits == 1).all()
    got = dict(zip(cov["cell_id"], cov["n"]))
    assert counts == got
    over = cov[cov["n"] > Q.ADAPT_CAP]
    assert (over["res"] == Q.ADAPT_MAX_RES).all()


def test_winnow_guarantee(ray_session):
    """Winnowing guarantee: every window of W consecutive k-gram
    positions contains at least one selected fingerprint (brute replay
    on a sample of docs)."""
    from rhealpixdggs_py_ray.ops.text import FP_BASE, FP_MOD
    import pyarrow.parquet as pq

    df = _df(Q.q_winnow_fingerprint(SF))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    K, W = Q.WINNOW_K, Q.WINNOW_W
    for _, row in docs.head(10).iterrows():
        t = row["text"]
        sel = df[df["doc_id"] == row["doc_id"]]
        pos = set(sel["pos"])
        npos = len(t) - K + 1
        if npos < W:
            assert len(sel) == 0
            continue
        # brute hashes
        hs = [0] * npos
        for i in range(npos):
            h = 0
            for c in t[i:i + K]:
                h = h * FP_BASE + ord(c)
            hs[i] = h % FP_MOD
        for wi in range(npos - W + 1):
            win = list(range(wi, wi + W))
            mn = min(hs[j] for j in win)
            rightmost = max(j for j in win if hs[j] == mn)
            assert (rightmost + 1) in pos
        # every selected hash is right
        for _, r2 in sel.iterrows():
            assert hs[r2["pos"] - 1] == r2["h"]


def test_range_shards_balance(ray_session):
    """Shards are contiguous, cover everything, and no shard exceeds
    total/S + max single-cell count."""
    df = _df(Q.q_range_shards(SF)).sort_values("shard").reset_index(drop=True)
    assert np.array_equal(df["shard"].to_numpy(), np.arange(len(df)))
    for i in range(1, len(df)):
        assert df["end_cell"][i - 1] < df["start_cell"][i]
    total = df["n_points"].sum()
    target = total / Q.SHARDS_S
    # each shard's mass < target + its own largest cell; loose sanity:
    assert (df["n_points"] <= 2 * target + df["n_points"].max() / 2 + 1).all()
    assert df["n_points"].min() > 0


def test_pair_counts_brute(ray_session):
    """Brute replay: unordered chord-ball pairs per home cell of the
    smaller id."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.core import projection as proj
    import pyarrow.parquet as pq

    df = _df(Q.q_pair_counts(SF))
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_id"])
    ids = ev["event_id"].to_numpy()
    lon, lat = oracle.lonlat_from_id(ids)
    m = np.abs(lat) <= Q.DISSOLVE_LAT
    ids, lon, lat = ids[m], lon[m], lat[m]
    x, y, z = proj.xyz(Q.CFG, lon, lat)
    u = cidx.cell_from_point(Q.CFG, Q.PAIR_RES, lon, lat, plane=False)
    cell = su.to_string_fixed(u, Q.PAIR_RES).to_numpy(zero_copy_only=False)
    X = np.stack([x, y, z], axis=1)
    D = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    hit = (D <= Q.PAIR_R_M ** 2) & (ids[:, None] < ids[None, :])
    ai, _bi = np.nonzero(hit)
    want = {}
    for a in ai:
        want[cell[a]] = want.get(cell[a], 0) + 1
    got = dict(zip(df["cell_id"], df["n_pairs"]))
    assert got == want
    assert sum(want.values()) > 0


def test_merkle_tiles_localizes_change(ray_session):
    """The merkle property: perturbing one leaf changes exactly the
    digests on its root path (replayed driver-side on the query
    output)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    df = _df(Q.q_merkle_tiles(SF))
    if hasattr(df, "to_pandas"):
        df = df.to_pandas()
    leaves = df[df["res"] == Q.TILE_RES].sort_values("tile_id")
    tiles = leaves["tile_id"].to_numpy()
    digs = leaves["digest"].to_numpy().astype(np.int64).astype(np.uint64)

    def build(tiles, digs):
        out = {}
        cur_t, cur_d = tiles, digs
        for r in range(Q.TILE_RES - 1, -1, -1):
            parents = np.array([t[:1 + r] for t in cur_t], dtype=object)
            pu = np.unique(parents)
            pd_ = []
            for p in pu:
                m = parents == p
                pd_.append(md5_u64("|".join(
                    f"{c}:{int(d)}" for c, d in zip(cur_t[m], cur_d[m]))))
            cur_t = pu.astype(str)
            cur_d = np.array(pd_, dtype=np.uint64)
            out[r] = dict(zip(cur_t, cur_d.astype(np.int64)))
        out[-1] = {"ROOT": np.int64(np.uint64(md5_u64("|".join(
            f"{c}:{int(d)}" for c, d in zip(cur_t, cur_d)))).astype(np.int64))}
        return out

    base = build(tiles, digs)
    # the query's own upper levels must equal the replay
    for r in range(Q.TILE_RES - 1, -1, -1):
        got = dict(zip(df[df["res"] == r]["tile_id"],
                       df[df["res"] == r]["digest"].astype(np.int64)))
        assert got == {k: int(v) for k, v in base[r].items()}
    # perturb one leaf
    digs2 = digs.copy()
    digs2[0] += np.uint64(1)
    pert = build(tiles, digs2)
    path = {tiles[0][:1 + r] for r in range(Q.TILE_RES)}
    for r in range(Q.TILE_RES - 1, -1, -1):
        for t in base[r]:
            if t in path:
                assert base[r][t] != pert[r][t]
            else:
                assert base[r][t] == pert[r][t]
    assert base[-1]["ROOT"] != pert[-1]["ROOT"]


def test_triangle_count_brute(ray_session):
    """Brute triple-loop replay over the image near-dup edge set."""
    pairs = _df(Q.q_image_neardup(SF))
    tri = _df(Q.q_triangle_count(SF))
    es = set(zip(pairs["a"], pairs["b"]))
    nodes = sorted({x for e in es for x in e})
    want = {}
    import itertools
    adj = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for x in nodes:
        above = sorted(v for v in adj[x] if v > x)
        for i, y in enumerate(above):
            for z in above[i + 1:]:
                if (y, z) in es:
                    want[x] = want.get(x, 0) + 1
    got = dict(zip(tri["node"], tri["n_triangles"]))
    assert got == want


def test_region_moments_consistency(ray_session):
    """Moments agree with dissolve_rings areas; total area2 == 2 x
    number of occupied cells is NOT asserted (seam wrap), but each
    ring's area2 matches and centroids of positive rings lie inside
    the lattice bounding box."""
    mom = _df(Q.q_region_moments(SF)).set_index("ring_id")
    rings = _df(Q.q_dissolve_rings(SF)).set_index("ring_id")
    assert set(mom.index) == set(rings.index)
    assert (mom["area2"] == rings["area2"]).all()
    pos = mom[mom["area2"] > 0]
    W = 4 * 3 ** Q.DISSOLVE_RES
    cx = pos["mx6"] / (3.0 * pos["area2"])
    cy = pos["my6"] / (3.0 * pos["area2"])
    assert ((cx >= -W) & (cx <= 2 * W)).all()
    assert ((cy >= 0) & (cy <= 3 ** Q.DISSOLVE_RES)).all()


def test_dwell_time_brute(ray_session):
    """Brute per-user replay of the step-function dwell credit."""
    import pyarrow.parquet as pq

    df = _df(Q.q_dwell_time(SF)).set_index("user_id")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id"]).to_pandas()
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    lon1, lat1, lon2, lat2 = Q.DWELL_BBOX
    ev["inside"] = ((lon >= lon1) & (lon <= lon2)
                    & (lat >= lat1) & (lat <= lat2))
    for uid, g in ev.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        t = g["ts"].astype("datetime64[us]").astype(np.int64).to_numpy()
        ins = g["inside"].to_numpy()
        dwell = int((np.diff(t) * ins[:-1]).sum())
        assert df.loc[uid, "dwell_us"] == dwell
        assert df.loc[uid, "n_inside"] == int(ins.sum())


def test_impossible_travel_sanity(ray_session):
    """Every flagged transition really violates the speed bound and is
    a consecutive pair of the same user's ordered events."""
    df = _df(Q.q_impossible_travel(SF))
    assert len(df) > 0
    v = Q.TRAVEL_V_MPS
    d = np.sqrt(df["d2_floor"].to_numpy().astype(np.float64))
    dt = df["dt_us"].to_numpy() / 1e6
    assert (d >= v * dt - 1).all()
    assert (df["dt_us"] >= 0).all()


def test_pruned_scan_counts(ray_session):
    import pyarrow.parquet as pq

    df = _df(Q.q_pruned_scan(SF))
    o = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    mask = (o["o_orderdate"] >= "1996-01-01") & (o["o_orderdate"] < "1997-01-01")
    assert df["n"].sum() == mask.sum()


def test_clip_filter_shapes(ray_session):
    import pyarrow.parquet as pq

    df = _df(Q.q_clip_filter(SF))
    assert df["score_micros"].between(-1000000, 1000000).all()
    assert ((df["score_micros"] >= 0) == (df["keep"] == 1)).all()
    assert 0 < df["keep"].sum() < len(df)  # threshold actually splits


def test_dbscan_cells_invariants(ray_session):
    """Core iff 3x3 focal >= MINPTS; borders are occupied non-core
    adjacent to a core of their cluster; cluster == min core key."""
    from rhealpixdggs_py_ray.core import index as cidx
    import pyarrow.parquet as pq

    SF01 = "/root/testdata/sf0.01"  # sf0.001 is below core density
    k = Q.DBSCAN_RES
    side = 3 ** k
    W = 4 * side
    df = _df(Q.q_dbscan_cells(SF01))
    ev = pq.read_table(f"{SF01}/events.parquet", columns=["event_id"])
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    m = np.abs(lat) <= Q.DISSOLVE_LAT
    u = cidx.cell_from_point(Q.CFG, k, lon[m], lat[m], plane=False)
    gy, gx = Q._lattice_from_cell_strings(su.to_string_fixed(u, k), k)
    key = gy * W + gx
    uq, n = np.unique(key, return_counts=True)
    cnt = dict(zip(uq.tolist(), n.tolist()))

    def focal(kk):
        y, x = kk // W, kk % W
        s = 0
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if 0 <= y + dy < side:
                    s += cnt.get((y + dy) * W + (x + dx) % W, 0)
        return s

    gy2, gx2 = Q._lattice_from_cell_strings(df["cell_id"].to_numpy(), k)
    keys = gy2 * W + gx2
    cores = {int(kk): int(c) for kk, c, kd in
             zip(keys, df["cluster"], df["kind"]) if kd == 1}
    borders = {int(kk): int(c) for kk, c, kd in
               zip(keys, df["cluster"], df["kind"]) if kd == 2}
    # exact core set
    want_cores = {int(kk) for kk in uq if focal(int(kk)) >= Q.DBSCAN_MINPTS}
    assert set(cores) == want_cores
    assert len(want_cores) > 0 and len(borders) > 0
    for kk, c in cores.items():
        assert c <= kk  # label is a min member
    for kk, c in borders.items():
        assert kk in cnt and kk not in cores
        y, x = kk // W, kk % W
        adj = [cores.get((y + dy) * W + (x + dx) % W)
               for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if not (dy == 0 and dx == 0) and 0 <= y + dy < side]
        adj = [a for a in adj if a is not None]
        assert adj and min(adj) == c


def test_colocation_pairs_brute(ray_session):
    """Brute replay of the space-time contact join at sf0.001."""
    from rhealpixdggs_py_ray.core import index as cidx
    import pyarrow.parquet as pq

    SF01 = "/root/testdata/sf0.01"  # sf0.001 has no same-cell contacts
    df = _df(Q.q_colocation_pairs(SF01))
    ev = pq.read_table(f"{SF01}/events.parquet",
                       columns=["event_id", "ts", "user_id"]).to_pandas()
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    m = np.abs(lat) <= Q.DISSOLVE_LAT
    ev = ev[m].copy()
    u = cidx.cell_from_point(Q.CFG, Q.COLOC_RES, lon[m], lat[m], plane=False)
    ev["cell"] = su.to_string_fixed(u, Q.COLOC_RES)
    ev["tus"] = ev["ts"].astype("datetime64[us]").astype(np.int64)
    T = Q.COLOC_T_S * 1_000_000
    want = {}
    for _, g in ev.groupby("cell"):
        r = g.sort_values(["tus", "event_id"]).reset_index(drop=True)
        for i in range(len(r)):
            for j in range(i + 1, len(r)):
                if r["tus"][j] - r["tus"][i] > T:
                    break
                if r["user_id"][i] != r["user_id"][j]:
                    key = (min(r["user_id"][i], r["user_id"][j]),
                           max(r["user_id"][i], r["user_id"][j]))
                    want[key] = want.get(key, 0) + 1
    got = {(a, b): n for a, b, n in
           zip(df["user_a"], df["user_b"], df["n_contacts"])}
    assert got == want and len(want) > 0


def test_home_cells_mode(ray_session):
    """Brute modal-cell replay per user."""
    from rhealpixdggs_py_ray.core import index as cidx
    import pyarrow.parquet as pq

    df = _df(Q.q_home_cells(SF)).set_index("user_id")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id"]).to_pandas()
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    u = cidx.cell_from_point(Q.CFG, Q.HOME_RES, lon, lat, plane=False)
    ev["cell"] = su.to_string_fixed(u, Q.HOME_RES)
    for uid, g in ev.groupby("user_id"):
        vc = g.groupby("cell").size()
        best = sorted(vc.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert df.loc[uid, "home_cell"] == best[0]
        assert df.loc[uid, "n_home"] == best[1]
        assert df.loc[uid, "n_total"] == len(g)


def test_topic_tag_rule(ray_session):
    df = _df(Q.q_topic_tag(SF))
    assert set(df["topic"].unique()) <= (
        {t for t, _ in Q.TOPIC_DICT} | {"none"})
    assert ((df["topic"] == "none") == (df["n_hits"] == 0)).all()


def test_group_split_integrity(ray_session):
    """Every source lands wholly in one split."""
    df = _df(Q.q_group_split(SF))
    assert (df.groupby("source")["split"].nunique() == 1).all()
    assert set(df["split"].unique()) <= {"train", "val", "test"}


def test_rendezvous_stability(ray_session):
    """HRW property: removing one server only reassigns tiles that had
    it in their top-R (replayed from the weights)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    df = _df(Q.q_rendezvous_shards(SF))
    tiles = df["tile_id"].unique()
    S, R = Q.RENDEZVOUS_SERVERS, Q.RENDEZVOUS_R
    for t in tiles[:30]:
        w = {s: md5_u64(f"{t}:{s}") for s in range(S)}
        want = [s for s, _ in sorted(w.items(), key=lambda kv: (-kv[1], kv[0]))][:R]
        got = df[df["tile_id"] == t].sort_values("rank")["server"].tolist()
        assert got == want
        # drop server want[-1]: top-R of remaining = stable prefix + next
        w2 = {s: v for s, v in w.items() if s != want[0]}
        want2 = [s for s, _ in sorted(w2.items(), key=lambda kv: (-kv[1], kv[0]))][:R]
        assert want2[:R - 1] == want[1:R]


def test_dateline_fence_nonempty_and_wraps(ray_session):
    df = _df(Q.q_dateline_fence(SF))
    assert df["n"].sum() > 0
    # only equatorial faces at |lat| <= 25
    assert set(df["face_id"]) <= {"O", "P", "Q", "R"}


def test_global_sort_order(ray_session):
    df = _df(Q.q_global_sort(SF))
    c = df["cents"].to_numpy()
    assert (np.diff(c) <= 0).all()
    assert len(df) == 100 and (df["rank"] == np.arange(1, 101)).all()


def test_quantize_error_bound(ray_session):
    """Scalar int8 error per element is < scale, so total err <
    d * scale^2."""
    df = _df(Q.q_quantize_embeddings(SF))
    amax = df["max_abs_micros"].to_numpy() / 1e6
    err = df["err_e12"].to_numpy() / 1e12
    bound = Q.EMB_D * (amax / 127.0) ** 2
    assert (err <= bound + 1e-9).all()
    assert (err >= 0).all()


def test_daily_p95_rank_rule(ray_session):
    import pyarrow.parquet as pq

    df = _df(Q.q_daily_p95(SF)).set_index("day")
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].dt.strftime("%Y-%m-%d")
    ev["c"] = np.floor(ev["value"].to_numpy() * 100).astype(np.int64)
    for day, g in ev.groupby("day"):
        v = np.sort(g["c"].to_numpy())
        k = (19 * len(v) + 19) // 20
        assert df.loc[day, "p95_c"] == v[k - 1]
        assert df.loc[day, "n"] == len(v)


def test_binary_source_totals(ray_session):
    from rhealpixdggs_py_ray.fixtures import splitmix64

    df = _df(Q.q_binary_source(SF))
    assert df["n"].sum() == Q.BINREC_N
    ids = np.arange(Q.BINREC_N, dtype=np.uint64)
    v = (splitmix64(ids) % np.uint64(1_000_000_000)).astype(np.int64)
    assert df["sum_v"].sum() == v.sum()


def test_simhash_clusters_members_are_banded_neardups(ray_session):
    """Every cluster member shares a 16-bit band AND hamming <= max
    with at least one other member (replayed from q_simhash sigs)."""
    sc = _df(Q.q_simhash_clusters(SF))
    if len(sc) == 0:
        import pytest
        pytest.skip("no simhash near-dups at sf0.001")
    sig_df = _df(Q.q_simhash(SF))
    sig = {d: (int(h) << 32) | int(l) for d, h, l in zip(
        sig_df["doc_id"], sig_df["sim_hi"], sig_df["sim_lo"])}
    by_cluster = {}
    for d, c in zip(sc["doc_id"], sc["cluster_id"]):
        by_cluster.setdefault(c, []).append(d)
    for c, members in by_cluster.items():
        assert len(members) >= 2
        assert min(members) == c
        for d in members:
            ok = False
            for o in members:
                if o == d:
                    continue
                x = sig[d] ^ sig[o]
                if bin(x).count("1") <= Q.SIMHAM_MAX and any(
                    ((sig[d] >> (16 * t)) & 0xFFFF)
                    == ((sig[o] >> (16 * t)) & 0xFFFF) for t in range(4)):
                    ok = True
                    break
            assert ok, (c, d)


def test_tile_change_totals(ray_session):
    import pyarrow.parquet as pq

    df = _df(Q.q_tile_change(SF))
    n = pq.read_metadata(f"{SF}/events.parquet").num_rows
    assert (df["n_before"] + df["n_after"]).sum() == n
    assert (df["delta"] == df["n_after"] - df["n_before"]).all()
    assert df["n_before"].sum() > 0 and df["n_after"].sum() > 0


def test_shipping_priority_brute(ray_session):
    import duckdb

    df = _df(Q.q_shipping_priority(SF))
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM"
                    f" read_parquet('{SF}/{t}.parquet')")
    want = con.execute(Q.sql_shipping_priority()).df()
    assert np.array_equal(df["o_orderkey"].to_numpy(),
                          want["o_orderkey"].to_numpy())
    assert np.array_equal(df["revenue_c"].to_numpy(),
                          want["revenue_c"].to_numpy())
