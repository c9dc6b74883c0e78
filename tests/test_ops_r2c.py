"""Invariant tests for the round-2c operators (split, pivot, set ops,
JSON source, sequence packing, focal stats, bloom, percentile rank,
CMS, left outer join).  Exact Ray-vs-DuckDB parity is covered by
tools/check_queries.py; these pin the semantic invariants the hash
compare can't express (FP behavior, scan contiguity, sketch bias,
neighbor-walk agreement)."""

import numpy as np
import pandas as pd
import pytest

import rhealpixdggs_py_ray.pipelines.queries as Q

SF = "/root/testdata/sf0.001"


def _df(ds):
    out = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    return out


def test_split_assign_partitions_everything(ray_session):
    df = _df(Q.q_split_assign(SF))
    import duckdb

    total = duckdb.sql(
        f"SELECT COUNT(*) FROM '{SF}/documents.parquet'"
    ).fetchone()[0]
    assert df["n_docs"].sum() == total
    assert set(df["split"]) <= {"train", "val", "test"}
    # the 90/5/5 hash split should put the bulk in train
    by_split = df.groupby("split")["n_docs"].sum()
    assert by_split.get("train", 0) > by_split.get("val", 0)
    assert by_split.get("train", 0) > by_split.get("test", 0)


def test_pivot_row_sums(ray_session):
    df = _df(Q.q_pivot_events(SF))
    parts = sum(df[f"n_{t}"] for t in Q.PIVOT_TYPES)
    assert (parts == df["n_total"]).all()


def test_user_setops_identities(ray_session):
    r = _df(Q.q_user_setops(SF)).iloc[0]
    assert r["n_event_users"] == r["n_events_only"] + r["n_both"]
    assert r["n_order_custs"] == r["n_orders_only"] + r["n_both"]
    assert r["n_union"] == r["n_events_only"] + r["n_orders_only"] + r["n_both"]


def test_pack_sequences_contiguous_scan(ray_session):
    df = _df(Q.q_pack_sequences(SF)).sort_values("doc_id").reset_index(drop=True)
    # global exclusive prefix: each start is the previous start + n
    expect = np.concatenate(([0], np.cumsum(df["n_tokens"].to_numpy())[:-1]))
    assert (df["start_tok"].to_numpy() == expect).all()
    assert (df["pack_first"] == df["start_tok"] // Q.PACK_CTX).all()
    n = df["n_tokens"].to_numpy()
    last = np.where(
        n == 0,
        df["pack_first"].to_numpy(),
        (df["start_tok"].to_numpy() + np.maximum(n, 1) - 1) // Q.PACK_CTX,
    )
    assert (df["pack_last"].to_numpy() == last).all()


def test_focal_stats_against_topology_neighbors(ray_session):
    """The 3x3 grid neighborhood of a band-interior cell must agree
    with the true DGGS neighbor walk (core/topology.neighbors)."""
    from rhealpixdggs_py_ray.core import suid as su
    from rhealpixdggs_py_ray.core import topology as tp
    from rhealpixdggs_py_ray.pipelines.queries import CFG, FOCAL_RES

    df = _df(Q.q_focal_stats(SF))
    assert len(df) > 0
    counts = {}  # rebuild raw per-cell counts from n_self
    for _, r in df.iterrows():
        counts[r["cell_id"]] = int(r["n_self"])
    # focal of every output cell == self + sum over the 8 ring cells
    # (ring via the independent topology k_ring walk)
    checked = 0
    for _, r in df.head(50).iterrows():
        u = int(su.from_string([r["cell_id"]])[0])
        ring = [
            su.to_string_fixed(np.array([c], dtype=np.uint64), FOCAL_RES).to_pylist()[0]
            for c in tp.k_ring(CFG, u, 1)
        ]
        total = sum(counts.get(c, 0) for c in ring)
        # ring cells with zero events are absent from the output =
        # contribute 0; cells outside the equatorial band never hold
        # counted events, matching the op's domain
        assert total == int(r["n_focal"]), r["cell_id"]
        checked += 1
    assert checked > 0


def test_bloom_superset_of_exact_decontaminate(ray_session):
    """Bloom filters have false positives but NEVER false negatives:
    every doc the exact decontaminator flags must be bloom-flagged,
    and its bloom hit count must be >= the exact hit count."""
    exact = _df(Q.q_decontaminate(SF)).set_index("doc_id")["n_hits"]
    bloom = _df(Q.q_bloom_decontaminate(SF)).set_index("doc_id")["n_hits"]
    for did, n in exact.items():
        assert did in bloom.index
        assert bloom.loc[did] >= n


def test_percentile_rank_bounds_and_order(ray_session):
    df = _df(Q.q_percentile_rank(SF))
    assert df["pct_micros"].between(0, 1_000_000).all()
    for _, g in df.groupby("lang"):
        g = g.sort_values(["n_chars", "doc_id"])
        assert g["n_lt"].is_monotonic_increasing
        assert g["n_lt"].iloc[0] == 0


def test_cms_never_underestimates(ray_session):
    df = _df(Q.q_cms_heavy_hitters(SF))
    assert len(df) > 0
    assert (df["n_est"] >= df["n_true"]).all()


def test_left_join_keeps_all_customers(ray_session):
    import duckdb

    df = _df(Q.q_left_join_orders(SF))
    n_cust = duckdb.sql(
        f"SELECT COUNT(*) FROM '{SF}/customer.parquet'"
    ).fetchone()[0]
    assert len(df) == n_cust
    zero = df[df["n_orders"] == 0]
    assert (zero["sum_cents"] == 0).all()


def test_json_source_roundtrip(ray_session):
    df = _df(Q.q_json_source(SF))
    assert df["n"].sum() == Q.JSON_FIXTURE_N
    assert set(df["kind"]) == {f"k{i}" for i in range(4)}
