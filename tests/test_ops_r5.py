"""Round-5 tests: beyond-cap distributed fallbacks for the
driver-bounded bitset-graph family (k_truss, clustering_coeff) —
lowering the caps forces the distributed wedge+mark fold path, which
must return EXACTLY the driver peel's answer (VERDICT r4 item 1)."""

import numpy as np

SF = "/root/testdata/sf0.001"


def test_k_truss_distributed_parity(ray_session, monkeypatch):
    """Force the beyond-cap route (edge cap -> 0) and compare the
    convergence trace to the driver bitset peel row-for-row."""
    from rhealpixdggs_py_ray.ops import graph
    from rhealpixdggs_py_ray.pipelines import queries as Q

    drv = Q.q_k_truss(SF).to_pandas()
    monkeypatch.setattr(graph, "DRIVER_EDGE_CAP", 0)
    dist = Q.q_k_truss(SF).to_pandas()
    assert drv.equals(dist)


def test_k_truss_node_cap_routes_distributed(ray_session, monkeypatch):
    """The node cap alone (edge cap untouched) also routes to the
    distributed peel, and parity still holds."""
    from rhealpixdggs_py_ray.ops import graph
    from rhealpixdggs_py_ray.pipelines import queries as Q

    drv = Q.q_k_truss(SF).to_pandas()
    monkeypatch.setattr(graph, "DRIVER_NODE_CAP", 1)
    dist = Q.q_k_truss(SF).to_pandas()
    assert drv.equals(dist)


def test_clustering_coeff_distributed_parity(ray_session, monkeypatch):
    """triangle_stats_distributed returns the driver bitset path's
    one-row statistics exactly (3T fold // 3, exact wedge sums)."""
    from rhealpixdggs_py_ray.ops import graph
    from rhealpixdggs_py_ray.pipelines import queries as Q

    drv = Q.q_clustering_coeff(SF).to_pandas()
    monkeypatch.setattr(graph, "DRIVER_EDGE_CAP", 0)
    dist = Q.q_clustering_coeff(SF).to_pandas()
    assert drv.equals(dist)


def test_edge_support_fold_exact(ray_session):
    """The wedge+mark fold's per-edge supports equal a brute-force
    numpy triangle count on the gathered fixture graph."""
    from rhealpixdggs_py_ray.ops import graph
    from rhealpixdggs_py_ray.pipelines import queries as Q

    edges = Q._copresence_edges(SF)
    parts = []
    for b in edges.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            parts.append(b["key"].to_numpy(zero_copy_only=False)
                         .astype(np.uint64))
    ek = np.sort(np.concatenate(parts))
    ua = (ek >> np.uint64(32)).astype(np.int64)
    ub = (ek & np.uint64((1 << 32) - 1)).astype(np.int64)
    # brute: adjacency sets, |N(a) & N(b)| per edge
    adj: dict = {}
    for a, b in zip(ua.tolist(), ub.tolist()):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {int(k): len(adj[a] & adj[b])
            for k, a, b in zip(ek.tolist(), ua.tolist(), ub.tolist())}

    folded = graph.edge_support_fold(edges)
    got = {}
    for b in folded.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        pk = b["pkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = b["v"].to_numpy(zero_copy_only=False)
        m = v >= graph.SUPPORT_MARK
        for k, s in zip(pk[m].tolist(), (v[m] - graph.SUPPORT_MARK).tolist()):
            got[int(k)] = int(s)
    assert got == want


def test_pair_cache_lru_eviction(ray_session):
    """MaterializedCache evicts least-recently-used entries past the
    byte budget, never the entry just inserted, and serves warm hits
    without rebuilding."""
    import ray.data
    from rhealpixdggs_py_ray.state.dscache import MaterializedCache

    def mk(n):
        return lambda: ray.data.from_items(
            [{"x": i} for i in range(n)]).materialize()

    a = mk(1000)()
    per = int(a.size_bytes())
    c = MaterializedCache(max_bytes=int(per * 2.5))  # fits 2 entries
    c.get_or_build("a", mk(1000))
    c.get_or_build("b", mk(1000))
    assert c.builds == 2 and len(c) == 2
    # warm hit: no rebuild, touches "a" to MRU
    c.get_or_build("a", mk(1000))
    assert c.builds == 2
    # third insert evicts LRU ("b", since "a" was just touched)
    c.get_or_build("d", mk(1000))
    assert c.evictions == 1 and len(c) == 2
    assert "b" not in c and "a" in c and "d" in c
    # rebuilding the evicted key is a miss again
    c.get_or_build("b", mk(1000))
    assert c.builds == 4


def test_pair_cache_keeps_oversized_insert(ray_session):
    """An entry larger than the whole budget is still returned and
    kept (callers rely on getting their dataset back)."""
    import ray.data
    from rhealpixdggs_py_ray.state.dscache import MaterializedCache

    c = MaterializedCache(max_bytes=1)
    ds = c.get_or_build("big", lambda: ray.data.from_items(
        [{"x": i} for i in range(100)]).materialize())
    assert ds.count() == 100 and len(c) == 1


def test_pair_cache_concurrent_same_key_builds_once():
    """Threads missing on the same key share one slow build and all
    get the same object back."""
    import sys
    import threading
    import time

    from rhealpixdggs_py_ray.state.dscache import MaterializedCache

    c = MaterializedCache()
    n = 8
    gate = threading.Barrier(n, timeout=10)
    got = [None] * n

    def build():
        time.sleep(0.3)
        return object()

    def run(i):
        gate.wait()
        got[i] = c.get_or_build("k", build)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert c.builds == 1
    assert got[0] is not None and all(g is got[0] for g in got)


def test_query_pair_caches_warm(ray_session):
    """The query-side memoized pair sets (copresence, minhash) route
    through the shared PAIR_CACHE: second call is a warm hit."""
    from rhealpixdggs_py_ray.pipelines import queries as Q
    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    Q._copresence_edges(SF)
    b0 = PAIR_CACHE.builds
    Q._copresence_edges(SF)
    assert PAIR_CACHE.builds == b0
    assert f"copresence:{SF}" in PAIR_CACHE


def test_ivf_checkpointed_kill_resume(ray_session, tmp_path):
    """Kill the checkpointed IVF build between partitions, re-invoke,
    and the final index + query results are byte-identical to an
    uninterrupted build (VERDICT r4 item 6)."""
    import glob
    import hashlib

    import numpy as np
    import ray.data
    from rhealpixdggs_py_ray.ops import ann
    from rhealpixdggs_py_ray.state.checkpoint import CheckpointedRun

    emb_path = f"{SF}/embeddings.parquet"
    emb = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
    _, C = ann._ivf_seed_centroids(emb, 16)
    import ray as _ray
    cref = _ray.put(C)
    specs = ann.ivf_partition_specs(emb_path, 2)
    payload = {"n_lists": 16, "n_parts": 2}

    def index_digest(root):
        # hash per (partition, list) directory: Ray's write_parquet
        # names files with a per-run uuid, but the content and the
        # within-dir file order (index suffix) are deterministic
        import os

        h = hashlib.sha256()
        for d in sorted(glob.glob(f"{root}/part=*/list=*")):
            h.update(os.path.relpath(d, root).encode())
            for f in sorted(glob.glob(f"{d}/*.parquet")):
                h.update(open(f, "rb").read())
        return h.hexdigest()

    # uninterrupted reference build
    ref_root = str(tmp_path / "ref")
    CheckpointedRun(out_root=ref_root, config_payload=payload).run(
        specs, ann.ivf_partition_builder(cref, 16))

    # killed build: partition 1 dies on the first attempt
    kill_root = str(tmp_path / "killed")
    inner = ann.ivf_partition_builder(cref, 16)
    state = {"tries": 0}

    def flaky(spec, part_out):
        if spec[1] != 0 and state["tries"] == 0:
            state["tries"] += 1
            raise RuntimeError("simulated worker death")
        return inner(spec, part_out)

    run = CheckpointedRun(out_root=kill_root, config_payload=payload)
    try:
        run.run(specs, flaky, max_concurrent=1)
    except RuntimeError:
        pass
    done = run.completed_partitions()
    assert 0 in done and 1 not in done  # partition 0 survived the kill

    # re-invoke: skips partition 0, completes partition 1
    summary = run.run(specs, flaky, max_concurrent=1)
    assert summary["reused"] == [0] and summary["fresh"] == [1]
    assert index_digest(kill_root) == index_digest(ref_root)


def test_ann_ivf_ckpt_matches_transient(ray_session):
    """The checkpointed-index query results equal the transient IVF
    path exactly (same seeds / assignment / probing)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    a = (Q.q_ann_topk_ivf(SF).to_pandas()
         .sort_values(["qid", "rank"]).reset_index(drop=True))
    b = (Q.q_ann_ivf_ckpt(SF).to_pandas()
         .sort_values(["qid", "rank"]).reset_index(drop=True))
    assert a.equals(b)


def test_registry_complete_and_consistent():
    """queries()/oracle_sql() are derived from the facade namespace:
    one entry per q_* (442, no two mapped to the same key), every sql_*
    backs some entry, and every _KEY_AND_ORACLE row names functions
    that exist — a stale or colliding rename fails here."""
    import __ray_entry__ as E
    from rhealpixdggs_py_ray.pipelines import queries as Q

    qs, sqls = E.queries(), E.oracle_sql()
    q_names = [n for n in dir(Q) if n.startswith("q_")]
    assert len(qs) == len(q_names) == 442
    assert set(qs) == set(sqls)
    assert all(callable(f) for f in qs.values())
    assert all(isinstance(s, str) and s.strip() for s in sqls.values())
    backing = {id(sql) for _, _, sql in E._registry()}
    unused = [n for n in dir(Q)
              if n.startswith("sql_") and id(getattr(Q, n)) not in backing]
    assert not unused
    for stem, (key, sql_stem) in E._KEY_AND_ORACLE.items():
        assert callable(getattr(Q, "q_" + stem, None)), stem
        assert callable(getattr(Q, "sql_" + sql_stem, None)), sql_stem
        assert key in qs, key


def test_family_modules_under_size_limit():
    """No pipelines module exceeds the 8k-line split budget
    (VERDICT r4 item 4)."""
    import glob

    for f in glob.glob("/root/repo/rhealpixdggs_py_ray/pipelines/*.py"):
        n = sum(1 for _ in open(f))
        assert n < 8000, f"{f}: {n} lines"


def test_pcm_features_real_decode(ray_session):
    """PcmFeatures decodes REAL raw-PCM bytes (no codec): features
    match a direct numpy computation, and a compressed fmt raises."""
    import pyarrow as pa
    import pytest
    from rhealpixdggs_py_ray.fixtures import audio_samples
    from rhealpixdggs_py_ray.ops.multimodal import PcmFeatures

    v = audio_samples(7, 100).astype(np.int64)
    batch = pa.table({
        "audio_id": pa.array(["aud00000007"]),
        "bytes": pa.array([audio_samples(7, 100).astype("<i2").tobytes()],
                          type=pa.binary()),
        "fmt": pa.array(["pcm_s16le"]),
    })
    t = PcmFeatures()(batch)
    assert t["n_samples"][0].as_py() == 100
    assert t["energy"][0].as_py() == int((v * v).sum())
    assert t["zero_cross"][0].as_py() == int((v[:-1] * v[1:] < 0).sum())
    assert t["peak_abs"][0].as_py() == int(np.abs(v).max())
    assert t["sample_sum"][0].as_py() == int(v.sum())

    bad = batch.set_column(2, "fmt", pa.array(["mp3"]))
    with pytest.raises(NotImplementedError):
        PcmFeatures()(bad)


def test_rawvideo_frame_stats_real_decode(ray_session):
    """RawVideoFrameStats slices and decodes REAL rawvideo bytes:
    stats match direct numpy frame computation; compressed raises."""
    import pyarrow as pa
    import pytest
    from rhealpixdggs_py_ray.fixtures import video_frame
    from rhealpixdggs_py_ray.ops.multimodal import RawVideoFrameStats

    i, w, h, nf = 4, 16, 12, 5
    blob = b"".join(video_frame(i, f, w, h).tobytes() for f in range(nf))
    batch = pa.table({
        "video_id": pa.array([f"vid{i:08d}"]),
        "bytes": pa.array([blob], type=pa.binary()),
        "w": pa.array([w], type=pa.int32()),
        "h": pa.array([h], type=pa.int32()),
        "fmt": pa.array(["rawvideo"]),
        "n_frames": pa.array([nf], type=pa.int32()),
    })
    t = RawVideoFrameStats(every_n_frames=2)(batch)
    assert t["frame_idx"].to_pylist() == [0, 2, 4]
    for row, f in enumerate((0, 2, 4)):
        fr = video_frame(i, f, w, h).astype(np.int64)
        assert t["px_sum"][row].as_py() == int(fr.sum())
        assert t["px_min"][row].as_py() == int(fr.min())
        assert t["px_max"][row].as_py() == int(fr.max())

    bad = batch.set_column(4, "fmt", pa.array(["h264"]))
    with pytest.raises(NotImplementedError):
        RawVideoFrameStats()(bad)


def test_audio_neardup_ground_truth(ray_session):
    """The banded audio near-dup detector finds exactly the planted
    pairs (i-1, i) for i % 10 == 9, each with 3-5 differing
    samples (one per t % 500 == 0 position within the train)."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_audio_neardup(SF).to_pandas()
    want = {(i - 1, i) for i in range(Q.AUDIO_N) if i % 10 == 9}
    got = set(zip(t["audio_a"].tolist(), t["audio_b"].tolist()))
    assert got == want
    assert (t["n_diff"] <= 5).all() and (t["n_diff"] >= 3).all()


def test_time_travel_merge_semantics(ray_session):
    """As-of reconstruction honors MERGE semantics: every surviving
    user's cents equal the last-writer value at or before TT_ASOF,
    and users whose LAST op by then is a DELETE are absent."""
    import pandas as pd
    import pyarrow.parquet as pq
    from rhealpixdggs_py_ray.pipelines import queries as Q

    got = Q.q_time_travel(SF).to_pandas().set_index("user_id")["cents"]

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts", "value"]
                       ).to_pandas()
    ev["day"] = (ev["ts"].astype("datetime64[us]").astype("int64")
                 // 86_400_000_000 - 19723)
    ev = ev[ev["day"] <= Q.TT_ASOF]
    ev["cents"] = np.floor(ev["value"] * 100).astype("int64")
    # last op per user: max (day, ts, event_id)
    ev = ev.sort_values(["user_id", "day", "ts", "event_id"])
    last = ev.groupby("user_id").tail(1)
    want = {}
    for _, r in last.iterrows():
        if (int(r["user_id"]) + int(r["day"])) % Q.TT_DEL_MOD != 0:
            want[int(r["user_id"])] = int(r["cents"])
    assert dict(got) == want


def test_schema_evolution_legacy_rows(ray_session):
    """Pre-migration rows (no channel column) all fold into the
    'legacy' bucket and totals cover every event exactly once."""
    import pyarrow.parquet as pq
    from rhealpixdggs_py_ray.pipelines import queries as Q

    t = Q.q_schema_evolution(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["ts"]).to_pandas()
    day = (ev["ts"].astype("datetime64[us]").astype("int64")
           // 86_400_000_000 - 19723)
    n_legacy = int((day < Q.SCHEMA_V2_DAY).sum())
    assert int(t.set_index("channel").loc["legacy", "n"]) == n_legacy
    assert int(t["n"].sum()) == len(ev)


def test_tile_anomaly_days_rejects_out_of_window_day(ray_session, tmp_path):
    """The (tile, day) key packs the day offset from 2024-01-01 into 6
    bits: a day before the window or 64+ days after it raises instead
    of wrapping into another tile's keys."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    from rhealpixdggs_py_ray.pipelines import queries as Q

    for i, bad in enumerate(("2023-12-31T12", "2024-03-05")):
        ts = (np.datetime64("2024-01-01", "us")
              + np.arange(8).astype("timedelta64[h]"))
        ts[3] = np.datetime64(bad, "us")
        d = tmp_path / str(i)
        d.mkdir()
        pq.write_table(pa.table({
            "event_id": pa.array(np.arange(8, dtype=np.int64)),
            "ts": pa.array(ts),
        }), f"{d}/events.parquet")
        with pytest.raises(Exception, match="ValueError: tile_anomaly_days"):
            Q.q_tile_anomaly_days(str(d)).materialize()


def test_lof_attach_raises_on_missing_neighbor():
    """q_lof_outliers' neighbor-mass lookup binds each edge row to its
    neighbor's dsum row, and raises on a neighbor with no dsum row —
    both inside the sorted range and past its end."""
    import pyarrow as pa
    import pytest
    from rhealpixdggs_py_ray.pipelines.q_stats2 import _lof_attach

    def group(node, qid, dsum):
        return pa.table({"node": pa.array(node, type=pa.uint64()),
                         "qid": pa.array(qid, type=pa.int64()),
                         "dsum": pa.array(dsum, type=pa.int64())})

    out = _lof_attach(group([9, 5, 9, 5], [-1, -1, 0, 1], [90, 50, -1, -1]))
    assert out["key"].to_pylist() == [0, 1]
    assert out["one"].to_pylist() == [90, 50]
    for nb in (7, 12):
        with pytest.raises(KeyError, match="lof_outliers"):
            _lof_attach(group([5, 9, nb], [-1, -1, 0], [50, 90, -1]))


def test_driver_cap_raises_typed_error(ray_session, monkeypatch):
    """A driver-side edge gather past ops/graph.DRIVER_EDGE_CAP raises
    DriverCapExceeded, read at call time (q_random_walks has no
    distributed route)."""
    import pytest
    from rhealpixdggs_py_ray.ops import graph
    from rhealpixdggs_py_ray.pipelines import queries as Q

    monkeypatch.setattr(graph, "DRIVER_EDGE_CAP", 0)
    with pytest.raises(graph.DriverCapExceeded, match="random_walks"):
        Q.q_random_walks(SF)


def test_driver_node_cap_raises_typed_error(ray_session, monkeypatch):
    """The dense Nn x Nn driver queries raise DriverCapExceeded past
    ops/graph.DRIVER_NODE_CAP, read at call time (neither has a
    distributed route)."""
    import pytest
    from rhealpixdggs_py_ray.ops import graph
    from rhealpixdggs_py_ray.pipelines import queries as Q

    monkeypatch.setattr(graph, "DRIVER_NODE_CAP", 0)
    for name in ("adamic_adar", "zero_support_edges"):
        with pytest.raises(graph.DriverCapExceeded,
                           match=f"{name}: .* nodes exceed"):
            getattr(Q, "q_" + name)(SF)


def test_driver_cap_survives_python_O():
    """The cap is a raise, not an assert: ``python -O`` keeps it."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("from rhealpixdggs_py_ray.ops import graph\n"
            "graph.DRIVER_EDGE_CAP = 1\n"
            "try:\n"
            "    graph.check_driver_cap(2, 'probe')\n"
            "except graph.DriverCapExceeded as e:\n"
            "    print('raised', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True, cwd=repo).stdout
    assert out.startswith("raised probe: 2 rows exceed the driver cap 1")


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``: package code states every bound
    and invariant as an explicit raise (CLAUDE.md "Never `assert` a
    cap")."""
    import ast
    import os

    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "rhealpixdggs_py_ray")
    found = []
    for root, _dirs, files in os.walk(pkg):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), filename=path)
                found += [f"{os.path.relpath(path, pkg)}:{node.lineno}"
                          for node in ast.walk(tree)
                          if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in package code: {found}"
