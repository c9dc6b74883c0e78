"""Approximate-nearest-neighbor search over the embeddings table.

- ``ann_topk``: exact brute-force cosine top-k — the correctness
  baseline.  Query matrix broadcast once (ray.put); each batch does a
  vectorized similarity block and keeps its per-batch top-k, so only
  ~k rows per (query, batch) reach the final per-query reduction.
- ``ann_topk_lsh``: random-hyperplane (SimHash-style) bucketing; only
  rows whose bucket is within 1 bit of the query's bucket are scored.
  At 10^12 rows the bucket column is precomputed and hash-partitioned
  so a query touches a vanishing fraction of blocks.  The SQL oracle
  reproduces the identical pruning (plane literals + bit_count(xor)).
- ``ann_topk_ivf``: inverted-file ANN with a deterministic hash-seeded
  coarse quantizer (the ``n_lists`` vectors with smallest
  splitmix64(vec_id) are the centroids — a one-pass IVF).  Seed
  selection is a bounded distributed partial-top-k (never a corpus
  ``take_all``), assignment is distributed, and the whole pruning chain
  is mirrored bit-exactly in SQL.

Float parity with the DuckDB oracles: dot products, norms and squared
distances are accumulated dimension-by-dimension in the same
left-to-right order as ``list_sum(list_transform(...))`` folds, so
similarities are bit-identical; outputs quantize to ``cos_micros =
floor(cos * 1e6)``.  Per-batch top-k selection breaks ties by
(cos DESC, vec_id ASC) — the same total order as the SQL
``row_number()`` — so boundary ties can never drop the globally-ranked
row (round-1 ADVICE).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from rhealpixdggs_py_ray.fixtures import splitmix64
from rhealpixdggs_py_ray.ops.dedup import _emb_matrix
from rhealpixdggs_py_ray import sizing


def _seq_norm(M: np.ndarray) -> np.ndarray:
    """Left-to-right sum of squares per row (matches list_sum fold)."""
    acc = np.zeros(M.shape[0], dtype=np.float64)
    for i in range(M.shape[1]):
        acc = acc + M[:, i] * M[:, i]
    return np.sqrt(acc)


def _seq_dots(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(n, d) x (q, d) -> (n, q) dot products, accumulated left-to-right
    per dimension so float rounding matches the SQL fold exactly."""
    acc = np.zeros((B.shape[0], Q.shape[0]), dtype=np.float64)
    for i in range(B.shape[1]):
        acc = acc + B[:, i, None] * Q[None, :, i]
    return acc


def _seq_d2(B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, d) x (m, d) -> (n, m) squared euclidean distances, summed
    left-to-right per dimension (SQL fold parity)."""
    acc = np.zeros((B.shape[0], C.shape[0]), dtype=np.float64)
    for i in range(B.shape[1]):
        d = B[:, i, None] - C[None, :, i]
        acc = acc + d * d
    return acc


def _gather_queries(emb_ds, n_queries: int):
    """Query vectors via a dataset filter (bounded result — the round-1
    ``take(10_000)`` silently dropped qids beyond the first blocks)."""

    def mask(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(vid < n_queries))

    rows = (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(mask, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    rows.sort(key=lambda r: r["vec_id"])
    if len(rows) != n_queries:
        raise ValueError(f"expected {n_queries} query rows, found {len(rows)}")
    Q = np.array([r["embedding"] for r in rows], dtype=np.float64)
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    return qids, Q


def _partial_topk_table(qids: np.ndarray, vid: np.ndarray, S: np.ndarray, k: int):
    """Per-query top-k over a (n, q) similarity block with
    (cos DESC, vec_id ASC) tie-break; returns (qid, vec_id, cos)."""
    kk = min(k, S.shape[0])
    if kk == 0 or S.shape[1] == 0:
        return pa.table(
            {
                "qid": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "cos": pa.array([], type=pa.float64()),
            }
        )
    sel = np.empty((S.shape[1], kk), dtype=np.int64)
    for j in range(S.shape[1]):
        # hybrid: argpartition for the boundary value, exact
        # (cos DESC, vec_id ASC) lexsort only over >= boundary ties
        col = S[:, j]
        thr = col[np.argpartition(-col, kk - 1)[:kk]].min()
        cand = np.flatnonzero(col >= thr)
        sel[j] = cand[np.lexsort((vid[cand], -col[cand]))[:kk]]
    rows = sel.ravel()
    cols = np.repeat(np.arange(S.shape[1]), kk)
    return pa.table(
        {
            "qid": pa.array(np.repeat(qids, kk)),
            "vec_id": pa.array(vid[rows]),
            "cos": pa.array(S[rows, cols]),
        }
    )


def _final_topk(k: int):
    """Arrow-native per-qid top-k resolve (handles multi-qid groups too:
    ranks restart at every qid boundary, so the same function works under
    a per-qid map_groups or a hash-bucket resolve)."""

    def final(g: pa.Table) -> pa.Table:
        qid = g["qid"].to_numpy(zero_copy_only=False).astype(np.int64)
        vid = g["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cos = g["cos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vid, -cos, qid))
        qs = qid[order]
        starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
        counts = np.diff(np.r_[starts, len(qs)])
        rank = (np.arange(len(qs), dtype=np.int64) - np.repeat(starts, counts)) + 1
        keep = rank <= k
        return pa.table(
            {
                "qid": pa.array(qs[keep]),
                "vec_id": pa.array(vid[order][keep]),
                "rank": pa.array(rank[keep]),
                "cos_micros": pa.array(
                    np.floor(cos[order][keep] * 1000000.0).astype(np.int64)
                ),
            }
        )

    return final


def ann_topk(emb_ds, n_queries: int = 10, k: int = 5):
    """(qid, vec_id, rank, cos_micros) for the first ``n_queries``
    vec_ids as queries, self-matches excluded."""
    qids, Q = _gather_queries(emb_ds, n_queries)
    qn = _seq_norm(Q)
    ref = ray.put((qids, Q, qn))

    class PartialTopK:
        def __init__(self):
            self.qids, self.Q, self.qn = ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            B = _emb_matrix(batch)
            bn = _seq_norm(B)
            S = _seq_dots(B, self.Q) / (bn[:, None] * self.qn[None, :])
            S[vid[:, None] == self.qids[None, :]] = -np.inf  # self-match
            return _partial_topk_table(self.qids, vid, S, self.k)

    partials = sizing.stateful_map(
        emb_ds, PartialTopK, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.groupby("qid").map_groups(_final_topk(k), batch_format="pyarrow")


def ann_topk_sql(n_queries: int = 10, k: int = 5) -> str:
    dot = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
    )
    nrm = "sqrt(list_sum(list_transform({t}.embedding, x -> CAST(x AS DOUBLE) * x)))"
    return f"""
WITH b AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings),
a AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings WHERE vec_id < {n_queries}),
d AS MATERIALIZED (
  SELECT a.vec_id AS qid, b.vec_id AS vec_id,
    {dot} / ({nrm.format(t='a')} * {nrm.format(t='b')}) AS cos
  FROM a CROSS JOIN b WHERE a.vec_id <> b.vec_id
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank,
  CAST(floor(cos * 1000000.0) AS BIGINT) AS cos_micros
FROM d QUALIFY rank <= {k}
"""


# ---------------------------------------------------------------------------
# LSH (random hyperplanes, 1-bit probes)
# ---------------------------------------------------------------------------

LSH_SEED = 1234


def _lsh_planes(dim: int, n_planes: int) -> np.ndarray:
    rng = np.random.RandomState(LSH_SEED)
    return rng.standard_normal((n_planes, dim))


def _lsh_buckets(M: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Bucket id = sum of sign bits (bit p = plane p, LSB first); dots
    use the sequential fold so signs match the SQL oracle exactly."""
    sig = (_seq_dots(M, planes) > 0).astype(np.uint32)
    return (sig << np.arange(planes.shape[0], dtype=np.uint32)).sum(axis=1)


def ann_topk_lsh(emb_ds, n_queries: int = 10, k: int = 5, n_planes: int = 8):
    """LSH-bucketed ANN: random-hyperplane signs -> bucket id; score
    only rows in the query's bucket or adjacent (1-bit flip) buckets.
    Approximate by design, but fully hash-verified: the SQL oracle
    reproduces the identical pruning via plane literals +
    bit_count(xor(bucket, qbucket)) <= 1."""
    qids, Q = _gather_queries(emb_ds, n_queries)
    dim = Q.shape[1]
    planes = _lsh_planes(dim, n_planes)
    qbuck = _lsh_buckets(Q, planes)
    probe_sets = [
        np.array(sorted({int(qb)} | {int(qb) ^ (1 << p) for p in range(n_planes)}),
                 dtype=np.uint32)
        for qb in qbuck
    ]
    allowed = np.array(sorted(set(np.concatenate(probe_sets).tolist())), dtype=np.uint32)
    qn = _seq_norm(Q)
    ref = ray.put((qids, Q, qn, planes, probe_sets, allowed))

    class BucketTopK:
        def __init__(self):
            (self.qids, self.Q, self.qn, self.planes,
             self.probe_sets, self.allowed) = ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            B = _emb_matrix(batch)
            buck = _lsh_buckets(B, self.planes)
            keep = np.isin(buck, self.allowed)
            if not keep.any():
                return _partial_topk_table(self.qids, vid, np.zeros((0, 0)), 0)
            B, vid, buck = B[keep], vid[keep], buck[keep]
            bn = _seq_norm(B)
            S = _seq_dots(B, self.Q) / (bn[:, None] * self.qn[None, :])
            S[vid[:, None] == self.qids[None, :]] = -np.inf
            # outside each query's probe set -> -inf (dropped by rank)
            for j in range(S.shape[1]):
                S[~np.isin(buck, self.probe_sets[j]), j] = -np.inf
            t = _partial_topk_table(self.qids, vid, S, self.k)
            return t.filter(pa.array(np.isfinite(t["cos"].to_numpy(zero_copy_only=False))))

    partials = sizing.stateful_map(
        emb_ds, BucketTopK, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.groupby("qid").map_groups(_final_topk(k), batch_format="pyarrow")


def ann_topk_lsh_sql(n_queries: int = 10, k: int = 5, n_planes: int = 8,
                     dim: int = 64) -> str:
    """Oracle reproducing the LSH pruning bit-exactly."""
    planes = _lsh_planes(dim, n_planes)
    terms = []
    for p in range(n_planes):
        dot = " + ".join(
            f"({planes[p, i]!r})*CAST(embedding[{i + 1}] AS DOUBLE)" for i in range(dim)
        )
        terms.append(f"(CASE WHEN ({dot}) > 0 THEN {1 << p} ELSE 0 END)")
    bucket = " + ".join(terms)
    dotab = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
    )
    nrm = "sqrt(list_sum(list_transform({t}.embedding, x -> CAST(x AS DOUBLE) * x)))"
    return f"""
WITH bk AS MATERIALIZED (
  SELECT vec_id, embedding, CAST({bucket} AS BIGINT) AS bucket FROM embeddings
),
a AS MATERIALIZED (SELECT * FROM bk WHERE vec_id < {n_queries}),
d AS MATERIALIZED (
  SELECT a.vec_id AS qid, b.vec_id AS vec_id,
    {dotab} / ({nrm.format(t='a')} * {nrm.format(t='b')}) AS cos
  FROM a JOIN bk b
    ON a.vec_id <> b.vec_id AND bit_count(xor(a.bucket, b.bucket)) <= 1
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank,
  CAST(floor(cos * 1000000.0) AS BIGINT) AS cos_micros
FROM d QUALIFY rank <= {k}
"""


# ---------------------------------------------------------------------------
# IVF (hash-seeded coarse quantizer, nprobe inverted lists)
# ---------------------------------------------------------------------------

def _ivf_seed_centroids(emb_ds, n_lists: int):
    """The ``n_lists`` vectors with smallest (splitmix64(vec_id),
    vec_id) are the IVF centroids — a deterministic one-pass quantizer
    that both sides can enumerate.  Selection is a distributed partial
    top-k per batch + a bounded (num_batches * n_lists rows) driver
    merge; nothing materializes the corpus."""

    def partial(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(vid.astype(np.uint64))
        sel = np.lexsort((vid, h))[:n_lists]
        return pa.table(
            {
                "vec_id": pa.array(vid[sel]),
                "h": pa.array(h[sel]),
                "embedding": batch["embedding"].take(pa.array(sel)),
            }
        )

    rows = (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    rows.sort(key=lambda r: (r["h"], r["vec_id"]))
    rows = rows[:n_lists]
    C = np.array([r["embedding"] for r in rows], dtype=np.float64)
    seed_ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    return seed_ids, C


def ann_topk_ivf(emb_ds, n_queries: int = 10, k: int = 5, n_lists: int = 16,
                 nprobe: int = 6):
    """IVF ANN: hash-seeded coarse quantizer (see _ivf_seed_centroids),
    distributed assignment; each batch scores only vectors whose
    inverted list is among the query's ``nprobe`` closest lists.  Same
    output schema as ann_topk; the SQL oracle reproduces the identical
    centroid selection, assignment and probing."""
    _, C = _ivf_seed_centroids(emb_ds, n_lists)
    qids, Q = _gather_queries(emb_ds, n_queries)
    qn = _seq_norm(Q)
    qd2 = _seq_d2(Q, C)
    # nprobe closest lists per query, ties -> smaller cid (lexsort)
    probe_lists = np.empty((len(qids), nprobe), dtype=np.int64)
    for j in range(len(qids)):
        probe_lists[j] = np.lexsort((np.arange(C.shape[0]), qd2[j]))[:nprobe]
    ref = ray.put((qids, Q, qn, C, probe_lists))

    class IvfTopK:
        def __init__(self):
            self.qids, self.Q, self.qn, self.C, self.probes = ray.get(ref)
            self.k = k
            self.allowed = np.unique(self.probes.ravel())

        def __call__(self, batch: pa.Table) -> pa.Table:
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            B = _emb_matrix(batch)
            d2 = _seq_d2(B, self.C)
            assign = d2.argmin(axis=1)  # first min == smallest cid tie-break
            keep = np.isin(assign, self.allowed)
            if not keep.any():
                return _partial_topk_table(self.qids, vid, np.zeros((0, 0)), 0)
            B, vid, assign = B[keep], vid[keep], assign[keep]
            bn = _seq_norm(B)
            S = _seq_dots(B, self.Q) / (bn[:, None] * self.qn[None, :])
            S[vid[:, None] == self.qids[None, :]] = -np.inf
            for j in range(S.shape[1]):
                S[~np.isin(assign, self.probes[j]), j] = -np.inf
            t = _partial_topk_table(self.qids, vid, S, self.k)
            return t.filter(pa.array(np.isfinite(t["cos"].to_numpy(zero_copy_only=False))))

    partials = sizing.stateful_map(
        emb_ds, IvfTopK, batch_format="pyarrow", zero_copy_batch=True
    )
    return partials.groupby("qid").map_groups(_final_topk(k), batch_format="pyarrow")


def ivf_prefix_sql(n_lists: int = 16, n_queries: int = 10,
                   nprobe: int = 6) -> str:
    """Shared CTE chain for the IVF-family oracles: splitmix64 seed
    selection (HUGEINT modular arithmetic), fold-ordered squared
    distances, nearest-list ``assign`` with (d2, cid) tie-break, and
    per-query ``qprobe`` probing.  Returns the text from ``h0``
    through ``qprobe`` (no leading WITH)."""
    M = "18446744073709551616"

    def modmul(a: str, const: int) -> str:
        # (a * const) mod 2^64 without overflowing INT128: split const
        # into 32-bit halves; a*lo <= 2^96 and the hi half reduces mod
        # 2^32 before the shift.
        hi, lo = const >> 32, const & 0xFFFFFFFF
        return (
            f"CAST((CAST({a} AS HUGEINT) * {lo}"
            f" + ((CAST(({a}) % 4294967296 AS HUGEINT) * {hi}) % 4294967296)"
            f" * 4294967296) % {M} AS UBIGINT)"
        )

    d2 = (
        "list_sum(list_transform(generate_series(1, len({x}.embedding)),"
        " i -> (CAST({x}.embedding[i] AS DOUBLE) - CAST({c}.embedding[i] AS DOUBLE))"
        " * (CAST({x}.embedding[i] AS DOUBLE) - CAST({c}.embedding[i] AS DOUBLE))))"
    )
    return f"""h0 AS MATERIALIZED (
  SELECT vec_id,
    CAST((CAST(CAST(vec_id AS UBIGINT) AS HUGEINT) + 11400714819323198485) % {M} AS UBIGINT) AS z1
  FROM embeddings
),
h1 AS MATERIALIZED (
  SELECT vec_id, {modmul("xor(z1, z1 >> 30)", 0xBF58476D1CE4E5B9)} AS z2 FROM h0
),
h2 AS MATERIALIZED (
  SELECT vec_id, {modmul("xor(z2, z2 >> 27)", 0x94D049BB133111EB)} AS z3 FROM h1
),
hh AS MATERIALIZED (SELECT vec_id, xor(z3, z3 >> 31) AS h FROM h2),
seeds AS MATERIALIZED (
  SELECT vec_id AS seed_vec, row_number() OVER (ORDER BY h, vec_id) - 1 AS cid
  FROM hh QUALIFY row_number() OVER (ORDER BY h, vec_id) <= {n_lists}
),
cents AS MATERIALIZED (
  SELECT s.cid, e.embedding FROM seeds s JOIN embeddings e ON e.vec_id = s.seed_vec
),
assign AS MATERIALIZED (
  SELECT vec_id, cid FROM (
    SELECT x.vec_id, c.cid,
      row_number() OVER (PARTITION BY x.vec_id
                         ORDER BY {d2.format(x='x', c='c')}, c.cid) AS rn
    FROM embeddings x CROSS JOIN cents c
  ) WHERE rn = 1
),
qprobe AS MATERIALIZED (
  SELECT vec_id AS qid, cid FROM (
    SELECT x.vec_id, c.cid,
      row_number() OVER (PARTITION BY x.vec_id
                         ORDER BY {d2.format(x='x', c='c')}, c.cid) AS rn
    FROM embeddings x CROSS JOIN cents c WHERE x.vec_id < {n_queries}
  ) WHERE rn <= {nprobe}
)"""


def ann_topk_ivf_sql(n_queries: int = 10, k: int = 5, n_lists: int = 16,
                     nprobe: int = 6) -> str:
    """Oracle mirroring ann_topk_ivf: the shared IVF prefix (seed
    selection, assignment, probing) plus cosine ranking."""
    dotab = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
    )
    nrm = "sqrt(list_sum(list_transform({t}.embedding, x -> CAST(x AS DOUBLE) * x)))"
    return f"""
WITH {ivf_prefix_sql(n_lists, n_queries, nprobe)},
d AS MATERIALIZED (
  SELECT a.vec_id AS qid, b.vec_id AS vec_id,
    {dotab} / ({nrm.format(t='a')} * {nrm.format(t='b')}) AS cos
  FROM embeddings a
  JOIN qprobe p ON p.qid = a.vec_id
  JOIN assign v ON v.cid = p.cid
  JOIN embeddings b ON b.vec_id = v.vec_id AND b.vec_id <> a.vec_id
  WHERE a.vec_id < {n_queries}
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank,
  CAST(floor(cos * 1000000.0) AS BIGINT) AS cos_micros
FROM d QUALIFY rank <= {k}
"""


def ann_topk_filtered(emb_ds, n_queries: int = 10, k: int = 5):
    """Filtered vector search (the 'search within my shard' workload):
    exact top-k over only the rows whose metadata passes the query's
    predicate — here label % 3 == qid % 3, evaluated as a vectorized
    mask INSIDE the scoring batch (no second pass over the corpus, no
    per-query filter job).  Same distributed shape as ann_topk:
    broadcast queries, per-batch partial top-k, per-qid merge."""
    qids, Q = _gather_queries(emb_ds, n_queries)
    qn = _seq_norm(Q)
    ref = ray.put((qids, Q, qn))

    class PartialTopKFiltered:
        def __init__(self):
            self.qids, self.Q, self.qn = ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            B = _emb_matrix(batch)
            bn = _seq_norm(B)
            S = _seq_dots(B, self.Q) / (bn[:, None] * self.qn[None, :])
            S[vid[:, None] == self.qids[None, :]] = -np.inf
            S[(lab[:, None] % 3) != (self.qids[None, :] % 3)] = -np.inf
            return _partial_topk_table(self.qids, vid, S, self.k)

    partials = sizing.stateful_map(
        emb_ds, PartialTopKFiltered, batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return partials.groupby("qid").map_groups(_final_topk(k), batch_format="pyarrow")


def ann_topk_filtered_sql(n_queries: int = 10, k: int = 5) -> str:
    dot = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
    )
    nrm = "sqrt(list_sum(list_transform({t}.embedding, x -> CAST(x AS DOUBLE) * x)))"
    return f"""
WITH b AS MATERIALIZED (SELECT vec_id, label, embedding FROM embeddings),
a AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings WHERE vec_id < {n_queries}),
d AS MATERIALIZED (
  SELECT a.vec_id AS qid, b.vec_id AS vec_id,
    {dot} / ({nrm.format(t='a')} * {nrm.format(t='b')}) AS cos
  FROM a CROSS JOIN b
  WHERE a.vec_id <> b.vec_id AND b.label % 3 = a.vec_id % 3
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank,
  CAST(floor(cos * 1000000.0) AS BIGINT) AS cos_micros
FROM d QUALIFY rank <= {k}
"""


# ---------------------------------------------------------------------------
# Exact k-NN GRAPH (top-k neighbors for EVERY vector)
# ---------------------------------------------------------------------------

def knn_graph(emb_ds, k: int = 5, chunk_rows: int | None = None,
              scratch_dir: str | None = None):
    """(qid, vec_id, rank, cos_micros): the exact cosine k-NN graph over
    the whole table — every vector is a query.  Same chunked-scratch
    shape as ops/dedup.embedding_dedup_pairs (the honest exact baseline
    for an inherently quadratic self-join): embeddings spill once to
    hash-chunked parquet, one task per unordered chunk pair emits the
    pair-block's PER-ROW partial top-k in BOTH directions, and partials
    resolve per qid inside a bounded hash-bucket exchange (never a
    per-qid Ray aggregate — qid cardinality is the corpus).  Worker
    memory is O(chunk_rows^2); driver holds nothing.  Parity: seq-fold
    cosines, (cos DESC, vec_id ASC) ties, floor micros.

    Scratch lifecycle: when we create the scratch dir ourselves the
    (bounded, n*k-row) result is materialized and the dir removed before
    returning, so repeated runs never accumulate /tmp parquet; pass
    scratch_dir to manage it externally and get a lazy result."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    n = emb_ds.count()
    if chunk_rows is None:
        chunk_rows = max(512, -(-n // 64))
    K = max(1, -(-n // chunk_rows))
    own_scratch = scratch_dir is None
    scratch = scratch_dir or tempfile.mkdtemp(prefix="knn_graph_", dir="/tmp")

    def add_chunk(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.append_column("chunk", pa.array((vid % K).astype(np.int64)))

    emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        add_chunk, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(scratch, partition_cols=["chunk"])

    pair_items = [{"ci": i, "cj": j} for i in range(K) for j in range(i, K)]
    pairs_ds = ray.data.from_items(
        pair_items, override_num_blocks=min(len(pair_items), 64)
    )
    nb = sizing.exchange_buckets(16)

    class ChunkPairTopK:
        def __init__(self):
            self.cache: dict = {}

        def _load(self, c: int):
            hit = self.cache.get(c)
            if hit is None:
                path = os.path.join(scratch, f"chunk={c}")
                if not os.path.isdir(path):
                    # sparse vec_ids can leave a residue class empty —
                    # no partition dir is written for it
                    hit = (np.array([], dtype=np.int64),
                           np.zeros((0, 0)), np.array([], dtype=np.float64))
                else:
                    t = pq.read_table(path)
                    ids = t["vec_id"].to_numpy().astype(np.int64)
                    M = _emb_matrix(t)
                    hit = (ids, M, _seq_norm(M))
                if len(self.cache) >= 8:
                    self.cache.clear()
                self.cache[c] = hit
            return hit

        def __call__(self, batch: pa.Table) -> pa.Table:
            outs = []
            for ci, cj in zip(batch["ci"].to_pylist(), batch["cj"].to_pylist()):
                ia, Ma, na = self._load(int(ci))
                ib, Mb, nb_ = self._load(int(cj))
                if len(ia) == 0 or len(ib) == 0:
                    continue
                S = _seq_dots(Ma, Mb) / (na[:, None] * nb_[None, :])
                S[ia[:, None] == ib[None, :]] = -np.inf
                # rows of chunk j query against chunk i: S columns
                outs.append(_partial_topk_table(ib, ia, S, k))
                if ci != cj:
                    outs.append(_partial_topk_table(ia, ib, S.T, k))
            return pa.concat_tables(outs) if outs else pa.table(
                {"qid": pa.array([], type=pa.int64()),
                 "vec_id": pa.array([], type=pa.int64()),
                 "cos": pa.array([], type=pa.float64())})

    partials = pairs_ds.map_batches(
        ChunkPairTopK, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=sizing.pool(),
    )

    def bucketed(batch: pa.Table) -> pa.Table:
        q = batch["qid"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(hash_bucket_u64(q, nb)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "qid" not in g.column_names:
            return pa.table({"qid": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64()),
                             "cos_micros": pa.array([], type=pa.int64())})
        q = g["qid"].to_numpy(zero_copy_only=False)
        v = g["vec_id"].to_numpy(zero_copy_only=False)
        c = g["cos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, -c, q))
        q, v, c = q[order], v[order], c[order]
        new_seg = np.r_[True, q[1:] != q[:-1]]
        starts = np.flatnonzero(new_seg)
        rank = np.arange(len(q), dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, len(q)))) + 1
        m = rank <= k
        return pa.table({
            "qid": pa.array(q[m]),
            "vec_id": pa.array(v[m]),
            "rank": pa.array(rank[m]),
            "cos_micros": pa.array(
                np.floor(c[m] * 1000000.0).astype(np.int64)),
        })

    out = (
        partials.map_batches(bucketed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )
    if own_scratch:
        out = out.materialize()  # bounded: n*k rows of 4 int64 columns
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def knn_graph_sql(k: int = 5) -> str:
    dot = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
    )
    nrm = "sqrt(list_sum(list_transform({t}.embedding, x -> CAST(x AS DOUBLE) * x)))"
    return f"""
WITH e AS MATERIALIZED (SELECT vec_id, embedding FROM embeddings),
d AS MATERIALIZED (
  SELECT a.vec_id AS qid, b.vec_id AS vec_id,
    {dot} / ({nrm.format(t='a')} * {nrm.format(t='b')}) AS cos
  FROM e a CROSS JOIN e b WHERE a.vec_id <> b.vec_id
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rank,
  CAST(floor(cos * 1000000.0) AS BIGINT) AS cos_micros
FROM d QUALIFY rank <= {k}
"""


def ann_topk_ivfpq(emb_ds, n_queries: int = 10, k: int = 5, n_lists: int = 16,
                   nprobe: int = 6):
    """IVF-PQ (Jégou et al. 2011, the FAISS IVFPQ shape): the IVF
    coarse quantizer prunes lists exactly as ``ann_topk_ivf``; within
    probed lists each database vector is scored by ASYMMETRIC DISTANCE
    — the query precomputes an integer lookup table lut[s, k] =
    sum_j floor((q_j - c_skj)^2 * 1e12) per subspace/code (driver-side,
    n_queries x M x K ints, broadcast once), and a vector's distance is
    the order-free integer sum of its 4 PQ codes' lut entries.  Codes
    are computed in-batch from the deterministic lattice codebook
    (pipelines.qbase._pq_codebook), so the whole chain — pruning,
    encoding, ADC ranking — replays exactly in SQL.  Output (qid,
    vec_id, rank, adc)."""
    from rhealpixdggs_py_ray.pipelines.qbase import PQ_D, PQ_M, _pq_codebook

    _, C = _ivf_seed_centroids(emb_ds, n_lists)
    qids, Q = _gather_queries(emb_ds, n_queries)
    qd2 = _seq_d2(Q, C)
    probe_lists = np.empty((len(qids), nprobe), dtype=np.int64)
    for j in range(len(qids)):
        probe_lists[j] = np.lexsort((np.arange(C.shape[0]), qd2[j]))[:nprobe]
    Cpq = _pq_codebook()  # (M, K, D)
    # per-query integer ADC tables: lut[q, s, k]
    Xq = Q.reshape(len(qids), PQ_M, 1, PQ_D)
    dq = Xq - Cpq[None, :, :, :]
    lut = np.floor((dq * dq) * 1e12).astype(np.int64).sum(axis=3)
    ref = ray.put((qids, C, probe_lists, Cpq, lut))

    class IvfPqTopK:
        def __init__(self):
            (self.qids, self.C, self.probes, self.Cpq, self.lut) = ray.get(ref)
            self.k = k
            self.allowed = np.unique(self.probes.ravel())

        def __call__(self, batch: pa.Table) -> pa.Table:
            empty = pa.table({"qid": pa.array([], type=pa.int64()),
                              "vec_id": pa.array([], type=pa.int64()),
                              "adc": pa.array([], type=pa.int64())})
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            B = _emb_matrix(batch)
            if B.shape[0] == 0:
                return empty
            d2 = _seq_d2(B, self.C)
            assign = d2.argmin(axis=1)  # first min == smallest cid tie-break
            keep = np.isin(assign, self.allowed)
            if not keep.any():
                return empty
            B, vid, assign = B[keep], vid[keep], assign[keep]
            n = B.shape[0]
            X = B.reshape(n, PQ_M, 1, PQ_D)
            d = X - self.Cpq[None, :, :, :]
            D = np.floor((d * d) * 1e12).astype(np.int64).sum(axis=3)
            code = D.argmin(axis=2)                      # (n, M)
            # adc[i, q] = sum_s lut[q, s, code[i, s]]
            adc = np.zeros((n, len(self.qids)), dtype=np.int64)
            for s in range(PQ_M):
                adc += self.lut[:, s, :][:, code[:, s]].T
            INF = np.int64(1 << 62)
            adc[vid[:, None] == self.qids[None, :]] = INF
            for j in range(adc.shape[1]):
                adc[~np.isin(assign, self.probes[j]), j] = INF
            kk = min(self.k, n)
            outs_q, outs_v, outs_a = [], [], []
            for j in range(adc.shape[1]):
                col = adc[:, j]
                thr = col[np.argpartition(col, kk - 1)[:kk]].max()
                cand = np.flatnonzero(col <= thr)
                sel = cand[np.lexsort((vid[cand], col[cand]))[:kk]]
                sel = sel[col[sel] < INF]
                outs_q.append(np.full(len(sel), self.qids[j], dtype=np.int64))
                outs_v.append(vid[sel])
                outs_a.append(col[sel])
            return pa.table({
                "qid": pa.array(np.concatenate(outs_q)),
                "vec_id": pa.array(np.concatenate(outs_v)),
                "adc": pa.array(np.concatenate(outs_a)),
            })

    def final(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "qid" not in g.column_names:
            return pa.table({"qid": pa.array([], type=pa.int64()),
                             "vec_id": pa.array([], type=pa.int64()),
                             "rank": pa.array([], type=pa.int64()),
                             "adc": pa.array([], type=pa.int64())})
        vid = g["vec_id"].to_numpy(zero_copy_only=False)
        adc = g["adc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vid, adc))[:k]
        return pa.table({
            "qid": g["qid"].take(pa.array(order)),
            "vec_id": pa.array(vid[order]),
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            "adc": pa.array(adc[order]),
        })

    partials = sizing.stateful_map(
        emb_ds, IvfPqTopK, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("qid").map_groups(final, batch_format="pyarrow")


def ann_topk_ivfpq_sql(n_queries: int = 10, k: int = 5, n_lists: int = 16,
                       nprobe: int = 6) -> str:
    """Oracle mirroring ann_topk_ivfpq: shared IVF prefix, PQ codes
    from the closed-form lattice codebook with integer-quantized
    distances, per-query integer ADC tables, (adc, vec_id) rank."""
    from rhealpixdggs_py_ray.oracle import _lit
    from rhealpixdggs_py_ray.pipelines.qbase import PQ_D, PQ_K, PQ_M

    c_expr = ("(CAST((kk * 37 + j * 11 + s * 5) % 16 AS DOUBLE)"
              f" - {_lit(7.5)}) / {_lit(32.0)}")
    xv = f"CAST(v.embedding[s * {PQ_D} + j + 1] AS DOUBLE)"
    xq = f"CAST(q.embedding[s * {PQ_D} + j + 1] AS DOUBLE)"
    return f"""
WITH {ivf_prefix_sql(n_lists, n_queries, nprobe)},
pt AS MATERIALIZED (
  SELECT v.vec_id, s, kk,
    CAST(SUM(CAST(floor((({xv} - {c_expr}) * ({xv} - {c_expr}))
      * {_lit(1e12)}) AS BIGINT)) AS BIGINT) AS d
  FROM embeddings v
  CROSS JOIN generate_series(0, {PQ_M - 1}) su(s)
  CROSS JOIN generate_series(0, {PQ_K - 1}) ku(kk)
  CROSS JOIN generate_series(0, {PQ_D - 1}) ju(j)
  GROUP BY v.vec_id, s, kk
), pm AS MATERIALIZED (
  SELECT vec_id, s, MIN(d) AS dmin FROM pt GROUP BY vec_id, s
), pcodes AS MATERIALIZED (
  SELECT pt.vec_id, pt.s, CAST(MIN(pt.kk) AS BIGINT) AS code
  FROM pt JOIN pm ON pt.vec_id = pm.vec_id AND pt.s = pm.s AND pt.d = pm.dmin
  GROUP BY pt.vec_id, pt.s
), lut AS MATERIALIZED (
  SELECT q.vec_id AS qid, s, kk,
    CAST(SUM(CAST(floor((({xq} - {c_expr}) * ({xq} - {c_expr}))
      * {_lit(1e12)}) AS BIGINT)) AS BIGINT) AS dq
  FROM embeddings q
  CROSS JOIN generate_series(0, {PQ_M - 1}) su(s)
  CROSS JOIN generate_series(0, {PQ_K - 1}) ku(kk)
  CROSS JOIN generate_series(0, {PQ_D - 1}) ju(j)
  WHERE q.vec_id < {n_queries}
  GROUP BY q.vec_id, s, kk
), adc AS MATERIALIZED (
  SELECT p.qid, v.vec_id, CAST(SUM(l.dq) AS BIGINT) AS adc
  FROM qprobe p
  JOIN assign v ON v.cid = p.cid
  JOIN pcodes pc ON pc.vec_id = v.vec_id
  JOIN lut l ON l.qid = p.qid AND l.s = pc.s AND l.kk = pc.code
  WHERE v.vec_id <> p.qid
  GROUP BY p.qid, v.vec_id
)
SELECT qid, vec_id,
  row_number() OVER (PARTITION BY qid ORDER BY adc, vec_id) AS rank, adc
FROM adc QUALIFY rank <= {k}
"""


def ann_topk_ivf_persisted(emb_ds, emb_ds2, n_queries: int = 10, k: int = 5,
                           n_lists: int = 16, nprobe: int = 6,
                           scratch_dir: str | None = None):
    """The IVF index LIFECYCLE: build (assign every vector to its
    inverted list, write parquet partitioned by ``list``), then query
    by reading ONLY the union of probed list partitions — the
    partition-pruned read is the point: at 100 TB a query touches
    nprobe/n_lists of the index bytes, never the corpus.  Same seeds /
    assignment / probing as ann_topk_ivf, so results (and the SQL
    oracle) are identical; parity with the transient path is pinned in
    tests.  Owns and removes its /tmp scratch unless scratch_dir is
    passed (knn_graph precedent)."""
    import os
    import shutil
    import tempfile

    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    own = scratch_dir is None
    scratch = scratch_dir or tempfile.mkdtemp(prefix="ivf_index_", dir="/tmp")

    _, C = _ivf_seed_centroids(emb_ds, n_lists)
    cref = ray.put(C)

    class Assign:
        def __init__(self):
            self.C = ray.get(cref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            B = _emb_matrix(batch)
            a = _seq_d2(B, self.C).argmin(axis=1)  # ties -> smaller cid
            # "list" drives hive partitioning (consumed by the writer);
            # "lst" rides in the data so pruned file reads keep it
            t = batch.append_column("list", pa.array(a.astype(np.int64)))
            return t.append_column("lst", pa.array(a.astype(np.int64)))

    sizing.stateful_map(
        emb_ds, Assign, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(scratch, partition_cols=["list"])

    out = _ivf_query_pruned(
        lambda c: os.path.join(scratch, f"list={c}", "*.parquet"),
        emb_ds2, C, n_queries, k, nprobe)
    if own:
        out = out.materialize()  # bounded: n_queries * k rows
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def _ivf_query_pruned(glob_for_list, emb_ds2, C, n_queries: int, k: int,
                      nprobe: int):
    """Shared IVF query step over a persisted, list-partitioned index:
    pick each query's nprobe nearest centroids, read ONLY those list
    partitions (``glob_for_list(c)`` -> glob pattern for inverted list
    ``c`` — works for both flat and checkpoint-partitioned layouts),
    score, per-query top-k.  Single-sourced so the transient oracle
    verifies every persisted variant."""
    import glob as _glob

    qids, Q = _gather_queries(emb_ds2, n_queries)
    qn = _seq_norm(Q)
    qd2 = _seq_d2(Q, C)
    probe_lists = np.empty((len(qids), nprobe), dtype=np.int64)
    for j in range(len(qids)):
        probe_lists[j] = np.lexsort((np.arange(C.shape[0]), qd2[j]))[:nprobe]
    allowed = np.unique(probe_lists.ravel())
    qref = ray.put((qids, Q, qn, probe_lists))

    # partition-pruned read: only probed list dirs leave storage
    paths = []
    for c in allowed.tolist():
        paths.extend(sorted(_glob.glob(glob_for_list(c))))
    idx = ray.data.read_parquet(paths)

    class ScoreProbed:
        def __init__(self):
            self.qids, self.Q, self.qn, self.probes = ray.get(qref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            assign = batch["lst"].to_numpy(zero_copy_only=False)
            B = _emb_matrix(batch)
            bn = _seq_norm(B)
            S = _seq_dots(B, self.Q) / (bn[:, None] * self.qn[None, :])
            S[vid[:, None] == self.qids[None, :]] = -np.inf
            for j in range(S.shape[1]):
                S[~np.isin(assign, self.probes[j]), j] = -np.inf
            t = _partial_topk_table(self.qids, vid, S, self.k)
            return t.filter(pa.array(np.isfinite(
                t["cos"].to_numpy(zero_copy_only=False))))

    return (
        sizing.stateful_map(idx, ScoreProbed, batch_format="pyarrow",
                            zero_copy_batch=True)
        .groupby("qid").map_groups(_final_topk(k), batch_format="pyarrow")
    )


def ivf_partition_specs(emb_path: str, n_parts: int = 2):
    """Key-range partitions of the embeddings table for the
    checkpointed index build (vec_id is the layout key; at cluster
    scale these would be file subsets — here one file, N ranges)."""
    import pyarrow.parquet as pq

    n = pq.ParquetFile(emb_path).metadata.num_rows
    bounds = [n * i // n_parts for i in range(n_parts + 1)]
    return [[emb_path, bounds[i], bounds[i + 1]] for i in range(n_parts)]


def ivf_partition_builder(cref, n_lists: int):
    """``pipeline_fn`` for state/checkpoint.CheckpointedRun: read one
    vec_id key range (predicate pushdown), assign each vector to its
    inverted list against the broadcast centroids, write parquet
    partitioned by ``list`` under the partition's tmp dir.  Returns
    rows_out from the written files' metadata (re-counting the
    Dataset would re-execute the lineage)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    def pipeline_fn(spec, part_out):
        f, lo, hi = spec
        ds = ray.data.read_parquet(
            f, columns=["vec_id", "embedding"],
            filter=(pc.field("vec_id") >= lo) & (pc.field("vec_id") < hi))

        class Assign:
            def __init__(self):
                self.C = ray.get(cref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                B = _emb_matrix(batch)
                a = _seq_d2(B, self.C).argmin(axis=1)  # ties -> smaller cid
                t = batch.append_column(
                    "list", pa.array(a.astype(np.int64)))
                return t.append_column("lst", pa.array(a.astype(np.int64)))

        sizing.stateful_map(
            ds, Assign, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(part_out, partition_cols=["list"])
        return {"rows_out":
                pads.dataset(part_out, format="parquet").count_rows()}

    return pipeline_fn


def ann_topk_ivf_checkpointed(emb_path: str, emb_ds, emb_ds2,
                              out_root: str, n_queries: int = 10,
                              k: int = 5, n_lists: int = 16,
                              nprobe: int = 6, n_parts: int = 2):
    """The RESUMABLE index lifecycle: the IVF build runs as a
    checkpointed per-partition pipeline (state/checkpoint.py manifests
    with lineage + metrics, atomic per-partition publish) — a killed
    build re-invoked skips completed partitions and reproduces
    byte-identical index files (pinned in tests/test_ops_r5.py).  The
    query step reads only probed list dirs ACROSS partition dirs
    (part=*/list=c/), so pruning survives the partitioned layout.
    Same seeds/assignment/probing as ann_topk_ivf -> same oracle."""
    import hashlib
    import os

    from rhealpixdggs_py_ray.state.checkpoint import CheckpointedRun

    _, C = _ivf_seed_centroids(emb_ds, n_lists)
    cref = ray.put(C)
    run = CheckpointedRun(out_root=out_root, config_payload={
        "n_lists": n_lists, "n_parts": n_parts,
        "centroids": hashlib.sha256(
            np.ascontiguousarray(C).tobytes()).hexdigest()[:16],
    })
    specs = ivf_partition_specs(emb_path, n_parts)
    run.run(specs, ivf_partition_builder(cref, n_lists))
    return _ivf_query_pruned(
        lambda c: os.path.join(out_root, "part=*", f"list={c}",
                               "*.parquet"),
        emb_ds2, C, n_queries, k, nprobe)
