"""Query-suite family module: dedup (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_ann import q_embedding_centroids, sql_embedding_centroids  # noqa: F401



def q_dedup_exact(sf_dir: str):
    """Exact dedup, hash-partitioned: rows ride ONE exchange keyed by a
    small int bucket (the md5's leading byte), and each bucket group
    resolves keep_id/n_dups with a vectorized pandas groupby.  Locally
    this times about even with the string-key sort aggregate (the md5
    computation dominates at sf scale); the bucket exchange is the
    shape that holds when the distinct-key count is billions."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def key(batch: pa.Table) -> pa.Table:
        hexes = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        bucket = np.fromiter(
            (int(h[:2], 16) & 31 for h in hexes), dtype=np.int64, count=len(hexes)
        )
        return pa.table(
            {
                "text_md5": pa.array(hexes, type=pa.string()),
                "doc_id": batch["doc_id"],
                "bucket": pa.array(bucket),
            }
        )

    def combine(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g.select(["text_md5", "doc_id"]), "text_md5").aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        return out.rename_columns(["text_md5", "keep_id", "n_dups"])

    keyed = ds.map_batches(key, batch_format="pyarrow", zero_copy_batch=True)
    return keyed.groupby("bucket").map_groups(combine, batch_format="pyarrow")


def sql_dedup_exact() -> str:
    return (
        "SELECT md5(text) AS text_md5, MIN(doc_id) AS keep_id, COUNT(*) AS n_dups"
        " FROM documents GROUP BY 1"
    )


def q_dedup_normalized(sf_dir: str):
    """Normalization-aware exact dedup: lowercase, collapse every
    non-[a-z0-9] run to one space, trim, then md5-group (catches
    whitespace/punctuation/casing dups that byte-exact dedup misses —
    the first dedup stage of a real curation pipeline).  Same
    one-exchange bucket shape as dedup_exact."""
    import re as _re

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pat = _re.compile(r"[^a-z0-9]+")

    def key(batch: pa.Table) -> pa.Table:
        hexes = [
            hashlib.md5(pat.sub(" ", t.lower()).strip().encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        bucket = np.fromiter(
            (int(h[:2], 16) & 31 for h in hexes), dtype=np.int64, count=len(hexes)
        )
        return pa.table({
            "norm_md5": pa.array(hexes, type=pa.string()),
            "doc_id": batch["doc_id"],
            "bucket": pa.array(bucket),
        })

    def combine(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g.select(["norm_md5", "doc_id"]), "norm_md5").aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        return out.rename_columns(["norm_md5", "keep_id", "n_dups"])

    keyed = ds.map_batches(key, batch_format="pyarrow", zero_copy_batch=True)
    return keyed.groupby("bucket").map_groups(combine, batch_format="pyarrow")


def sql_dedup_normalized() -> str:
    return (
        "SELECT md5(trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')))"
        "   AS norm_md5,"
        " MIN(doc_id) AS keep_id, COUNT(*) AS n_dups"
        " FROM documents GROUP BY 1"
    )


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag training docs sharing any word
    4-gram with the held-out eval set (doc_id < 50 plays the benchmark
    corpus).  The eval shingle set is a bounded small side — built from
    a filtered read and broadcast once via ray.put — and the corpus
    scan is a pure map emitting only contaminated (doc_id, n_hits)
    rows: the 100 TB shape (eval sets are MBs; the corpus never
    shuffles)."""
    from rhealpixdggs_py_ray.ops.dedup import shingles

    def eval_mask(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(did < DECON_EVAL_MAX_ID))

    eval_rows = (
        _read(sf_dir, "documents", columns=["doc_id", "text"], blocks=4)
        .map_batches(eval_mask, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    eval_set: set[str] = set()
    for r in eval_rows:
        eval_set.update(shingles(r["text"]))
    ev_ref = ray.put(eval_set)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        ev = ray.get(ev_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_n = [], []
        for did, t in zip(ids, batch["text"].to_pylist()):
            if did < DECON_EVAL_MAX_ID:
                continue
            n = sum(1 for s in shingles(t) if s in ev)
            if n:
                out_id.append(int(did))
                out_n.append(n)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "n_hits": pa.array(out_n, type=pa.int64()),
            }
        )

    return ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


def sql_decontaminate() -> str:
    from rhealpixdggs_py_ray.ops.dedup import SHINGLE_W

    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w FROM documents
),
sh AS MATERIALIZED (
  SELECT DISTINCT doc_id, array_to_string(w[i : i + {SHINGLE_W - 1}], ' ') AS s
  FROM toks, unnest(generate_series(1, len(w) - {SHINGLE_W - 1})) AS t(i)
),
ev AS MATERIALIZED (
  SELECT DISTINCT s FROM sh WHERE doc_id < {DECON_EVAL_MAX_ID}
)
SELECT d.doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
FROM sh d JOIN ev ON d.s = ev.s
WHERE d.doc_id >= {DECON_EVAL_MAX_ID}
GROUP BY d.doc_id
"""


def q_minhash_lsh(sf_dir: str):
    return _minhash_pairs(sf_dir)


def sql_minhash_lsh() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.minhash_lsh_sql()


def q_minhash_calibration(sf_dir: str):
    """Estimator-quality audit of the MinHash detector: for every
    VERIFIED near-dup pair, the count of matching signature positions
    (N_PERM = 8 permutations) next to the exact shingle Jaccard — the
    bias readout of the E[matches/8] = J estimator that tells you
    whether 8 permutations / 4 bands is enough at your threshold.
    Pairs come from the cached verified set (tiny by construction);
    signatures recompute ONLY for pair endpoints (broadcast id set,
    map-side filter — never a second corpus pass at scale).  Output
    (a, b, match_sigs, jac_micros, est_err_micros)."""
    from rhealpixdggs_py_ray.ops import dedup

    pairs = _minhash_pairs(sf_dir).to_pandas()  # bounded: verified pairs
    if not len(pairs):
        return pa.table({"a": pa.array([], type=pa.int64()),
                         "b": pa.array([], type=pa.int64()),
                         "match_sigs": pa.array([], type=pa.int64()),
                         "jac_micros": pa.array([], type=pa.int64()),
                         "est_err_micros": pa.array([], type=pa.int64())})
    pa_ids = pairs["a"].to_numpy().astype(np.int64)
    pb_ids = pairs["b"].to_numpy().astype(np.int64)
    need = np.unique(np.concatenate([pa_ids, pb_ids]))
    nref = ray.put(need)

    class SigForNeeded(dedup.MinHasher):
        """MinHasher restricted to the pair-endpoint id set."""

        def __init__(self):
            super().__init__()
            self.need = ray.get(nref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = np.isin(ids.astype(np.int64), self.need)
            return super().__call__(batch.filter(pa.array(m)))

    sig = {}  # doc_id -> uint64[8]
    rows = sizing.stateful_map(
        _docs(sf_dir).select_columns(["doc_id", "text"]), SigForNeeded,
        batch_format="pyarrow", zero_copy_batch=True)
    for b in rows.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        band = b["band"].to_numpy(zero_copy_only=False)
        k1 = b["k1"].to_numpy(zero_copy_only=False).astype(np.uint64)
        k2 = b["k2"].to_numpy(zero_copy_only=False).astype(np.uint64)
        for i in range(len(did)):
            s = sig.setdefault(int(did[i]), np.zeros(8, dtype=np.uint64))
            s[2 * band[i]] = k1[i]
            s[2 * band[i] + 1] = k2[i]
    A = np.stack([sig[int(x)] for x in pa_ids])
    B = np.stack([sig[int(x)] for x in pb_ids])
    match = (A == B).sum(axis=1).astype(np.int64)
    jac = pairs["jac_micros"].to_numpy().astype(np.int64)
    est = match * 1_000_000 // 8
    order = np.lexsort((pb_ids, pa_ids))
    return pa.table({
        "a": pa.array(pa_ids[order]),
        "b": pa.array(pb_ids[order]),
        "match_sigs": pa.array(match[order]),
        "jac_micros": pa.array(jac[order]),
        "est_err_micros": pa.array(np.abs(est - jac)[order]),
    })


def sql_minhash_calibration() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup._mh_cand_cte_prefix() + """,
sizes AS MATERIALIZED (
  SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id
),
inter AS MATERIALIZED (
  SELECT c.a, c.b, COUNT(*) AS ni
  FROM cand c
  JOIN sh sa ON sa.doc_id = c.a
  JOIN sh sb ON sb.doc_id = c.b AND sb.s = sa.s
  GROUP BY c.a, c.b
),
vp AS MATERIALIZED (
  SELECT i.a, i.b,
    CAST(floor(CAST(ni AS DOUBLE) / (za.n + zb.n - ni) * 1000000.0)
      AS BIGINT) AS jac_micros
  FROM inter i JOIN sizes za ON za.doc_id = i.a
  JOIN sizes zb ON zb.doc_id = i.b
  WHERE CAST(ni AS DOUBLE) / (za.n + zb.n - ni) >= 0.5
),
sm AS MATERIALIZED (
  SELECT p.a, p.b,
    CAST(SUM(CASE WHEN ma.m = mb.m THEN 1 ELSE 0 END) AS BIGINT)
      AS match_sigs
  FROM vp p
  JOIN mh ma ON ma.doc_id = p.a
  JOIN mh mb ON mb.doc_id = p.b AND mb.s = ma.s
  GROUP BY p.a, p.b
)
SELECT p.a, p.b, s.match_sigs, p.jac_micros,
  CAST(abs(s.match_sigs * 1000000 // 8 - p.jac_micros) AS BIGINT)
    AS est_err_micros
FROM vp p JOIN sm s ON s.a = p.a AND s.b = p.b
"""


def q_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment: minhash pair graph -> connected
    components (distributed hash-min over bucket exchanges, ops/cc.py)
    -> (doc_id, cluster_id=min member, keep=canonical)."""
    from rhealpixdggs_py_ray.ops import cc

    return cc.connected_components(_minhash_pairs(sf_dir))


def sql_dedup_clusters() -> str:
    from rhealpixdggs_py_ray.ops import cc, dedup

    return cc.connected_components_sql(dedup.minhash_lsh_sql())


def q_simhash(sf_dir: str):
    from rhealpixdggs_py_ray.ops.dedup import SimHasher

    return sizing.stateful_map(
        _docs(sf_dir), SimHasher, batch_format="pyarrow", zero_copy_batch=True
    )


def sql_simhash() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.simhash_sql()


def q_ngram_jaccard(sf_dir: str):
    return _ngram_pairs(sf_dir)


def sql_ngram_jaccard() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.ngram_jaccard_sql()


def q_embedding_dedup(sf_dir: str):
    from rhealpixdggs_py_ray.ops import dedup

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.embedding_dedup_pairs(emb)


def sql_embedding_dedup() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.embedding_dedup_sql()


def q_embedding_dedup_lsh(sf_dir: str):
    """Sub-quadratic embedding near-dup: LSH band buckets -> candidate
    pairs -> exact cosine via distributed joins (ops/dedup.py)."""
    from rhealpixdggs_py_ray.ops import dedup

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.embedding_dedup_lsh_pairs(emb)


def sql_embedding_dedup_lsh() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.embedding_dedup_lsh_sql()


def q_fingerprint(sf_dir: str):
    from rhealpixdggs_py_ray.ops.text import Fingerprinter

    return sizing.stateful_map(
        _docs(sf_dir), Fingerprinter, batch_format="pyarrow", zero_copy_batch=True
    )


def sql_fingerprint() -> str:
    from rhealpixdggs_py_ray.ops import text

    return text.fingerprint_sql()


def q_bloom_decontaminate(sf_dir: str):
    """Bloom-filter benchmark decontamination: the eval set's 4-gram
    shingles populate a BLOOM_M-bit, BLOOM_K-hash filter (2 KB — vs
    the exact set's unbounded growth); the corpus scan flags any doc
    with a shingle whose K bits are all set.  Deterministic md5 bit
    positions, so the oracle replays the filter bit-for-bit including
    FALSE POSITIVES — the real at-scale trade (constant-memory filter,
    auditable FP rate).  Eval set is MBs and driver-built (same bound
    as decontaminate); the corpus never shuffles — pure map."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64, shingles

    def eval_mask(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(did < DECON_EVAL_MAX_ID))

    eval_rows = (
        _read(sf_dir, "documents", columns=["doc_id", "text"], blocks=4)
        .map_batches(eval_mask, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    bits = np.zeros(BLOOM_M, dtype=bool)
    for r in eval_rows:
        for s in shingles(r["text"]):
            for j in range(BLOOM_K):
                bits[md5_u64(f"{j}|{s}") % BLOOM_M] = True
    bits_ref = ray.put(bits)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        dids, n_sh, n_hits = [], [], []
        for did, text in zip(
            batch["doc_id"].to_numpy(zero_copy_only=False),
            batch["text"].to_pylist(),
        ):
            if did < DECON_EVAL_MAX_ID:
                continue
            sh = shingles(text)
            hits = sum(
                1 for s in sh
                if all(b[md5_u64(f"{j}|{s}") % BLOOM_M] for j in range(BLOOM_K))
            )
            if hits:
                dids.append(did)
                n_sh.append(len(sh))
                n_hits.append(hits)
        return pa.table({
            "doc_id": pa.array(np.array(dids, dtype=np.int64)),
            "n_shingles": pa.array(np.array(n_sh, dtype=np.int64)),
            "n_hits": pa.array(np.array(n_hits, dtype=np.int64)),
        })

    return ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


def sql_bloom_decontaminate() -> str:
    from rhealpixdggs_py_ray.ops.dedup import SHINGLE_W

    pos = (
        "CAST(md5_number_lower(CAST(j AS VARCHAR) || '|' || s) AS HUGEINT)"
        f" % {BLOOM_M}"
    )
    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w FROM documents
),
sh AS MATERIALIZED (
  SELECT DISTINCT doc_id, array_to_string(w[i : i + {SHINGLE_W - 1}], ' ') AS s
  FROM toks, unnest(generate_series(1, len(w) - {SHINGLE_W - 1})) AS t(i)
),
js AS (SELECT unnest(generate_series(0, {BLOOM_K - 1})) AS j),
bloom AS MATERIALIZED (
  SELECT DISTINCT {pos} AS pos
  FROM (SELECT DISTINCT s FROM sh WHERE doc_id < {DECON_EVAL_MAX_ID}), js
),
probe AS MATERIALIZED (
  SELECT doc_id, s, j, {pos} AS pos
  FROM (SELECT doc_id, s FROM sh WHERE doc_id >= {DECON_EVAL_MAX_ID}), js
),
hit AS MATERIALIZED (
  -- one probe row per (doc, s, j); a j passes iff its pos bit is set,
  -- so COUNT(*) = K even when two j's collide on one position
  SELECT doc_id, s FROM probe JOIN bloom USING (pos)
  GROUP BY doc_id, s HAVING COUNT(*) = {BLOOM_K}
),
ns AS MATERIALIZED (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_shingles FROM sh GROUP BY doc_id
)
SELECT h.doc_id, ns.n_shingles, CAST(COUNT(*) AS BIGINT) AS n_hits
FROM hit h JOIN ns ON ns.doc_id = h.doc_id
GROUP BY h.doc_id, ns.n_shingles
"""


def q_dedup_editdist(sf_dir: str):
    """Edit-distance near-dup refine: exact Levenshtein over the
    minhash-LSH candidate pairs (ops/dedup.editdist_pairs) — the
    byte-accurate last pass after cheap LSH blocking."""
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.editdist_pairs(_docs(sf_dir))


def sql_dedup_editdist() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.editdist_sql()


# ---------------------------------------------------------------------------
# Round 2j (cont.): contrastive training-pair mining
# ---------------------------------------------------------------------------

def q_contrastive_pairs(sf_dir: str):
    """Contrastive training-pair mining: POSITIVES are the verified
    MinHash-LSH near-dup pairs (label 1, with their exact Jaccard);
    NEGATIVES are one deterministic splitmix64 partner per document
    (label 0), minus any that collide with a positive — the anti-join
    runs distributed through the same union bucket exchange as every
    other pair op (positive side rows kill matching negative
    candidates in-resolve; no pair list ever lands on the driver)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    nb = 16
    pos = _minhash_pairs(sf_dir)
    n = _ndocs(sf_dir)

    def _key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a.astype(np.uint64) * np.uint64(1_000_000_007) + b.astype(np.uint64)

    def pos_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(_key(a, b), nb)),
            "a": batch["a"], "b": batch["b"],
            "jac_micros": batch["jac_micros"],
            "side": pa.array(np.ones(len(a), dtype=np.int64)),
        })

    docs = _read(sf_dir, "documents", columns=["doc_id"], blocks=4)

    def neg_rows(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(d.astype(np.uint64))
        partner = (d + 1 + (h % np.uint64(n - 1)).astype(np.int64)) % n
        a = np.minimum(d, partner)
        b = np.maximum(d, partner)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(_key(a, b), nb)),
            "a": pa.array(a), "b": pa.array(b),
            "jac_micros": pa.array(np.zeros(len(a), dtype=np.int64)),
            "side": pa.array(np.zeros(len(a), dtype=np.int64)),
        })

    both = pos.map_batches(
        pos_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(docs.map_batches(
        neg_rows, batch_format="pyarrow", zero_copy_batch=True
    ))

    def resolve(g: pa.Table) -> pa.Table:
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        jac = g["jac_micros"].to_numpy(zero_copy_only=False)
        key = _key(a, b)
        pos_keys = np.unique(key[side == 1])
        if len(pos_keys):
            p = np.searchsorted(pos_keys, key)
            is_pos = pos_keys[np.minimum(p, len(pos_keys) - 1)] == key
        else:
            is_pos = np.zeros(len(key), dtype=bool)
        keep = (side == 1) | ~is_pos
        kk = key[keep]
        lab = side[keep]
        # two docs can pick the same negative pair — dedup per pair
        _, first = np.unique(kk * np.uint64(2) + lab.astype(np.uint64),
                             return_index=True)
        return pa.table({
            "a": pa.array(a[keep][first]),
            "b": pa.array(b[keep][first]),
            "label": pa.array(lab[first]),
            "jac_micros": pa.array(jac[keep][first]),
        })

    return both.groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def sql_contrastive_pairs() -> str:
    sm = oracle.splitmix64_sql_ctes(
        "SELECT doc_id FROM documents", "doc_id", "doc_id", "h"
    )
    return f"""
WITH nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
sm AS MATERIALIZED (SELECT doc_id, h FROM {sm} t),
cand AS (
  SELECT s.doc_id,
    CAST((s.doc_id + 1
          + CAST(s.h % CAST(nn.n - 1 AS UBIGINT) AS BIGINT)) % nn.n
         AS BIGINT) AS partner
  FROM sm s, nn
),
neg AS (
  SELECT DISTINCT least(doc_id, partner) AS a,
    greatest(doc_id, partner) AS b
  FROM cand
),
pos AS MATERIALIZED ({sql_minhash_lsh()})
SELECT a, b, CAST(1 AS BIGINT) AS label, jac_micros FROM pos
UNION ALL
SELECT n.a, n.b, CAST(0 AS BIGINT) AS label, CAST(0 AS BIGINT) AS jac_micros
FROM neg n WHERE NOT EXISTS
  (SELECT 1 FROM pos p WHERE p.a = n.a AND p.b = n.b)
"""


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023 shape): embeddings -> nearest-
    centroid clusters -> exact cosine near-dup removal WITHIN each
    cluster, keeping the smallest vec_id of every near-dup pair.
    Output one row per vector: (vec_id, cluster, keep).

    Scale shape: centroids are a bounded broadcast (ray.put once), the
    corpus shuffles ONCE by cluster id, and the quadratic verify runs
    per cluster — at 10^12 rows the quantizer's k grows with N so
    per-cluster size stays bounded (here k = the 10 fixture labels).
    Float parity: assignment distances and cosines fold left-to-right
    (ops/ann._seq_*) mirroring the SQL list folds; ties -> smaller
    label, matching the QUALIFY ordering."""
    from rhealpixdggs_py_ray.ops.ann import _seq_d2, _seq_dots, _seq_norm
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

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        labs, cm = ray.get(cent_ref)
        X = np.floor(_emb_matrix(batch).astype(np.float64) * 1000000.0)
        near = labs[np.argmin(_seq_d2(X, cm), axis=1)]
        return batch.append_column("cluster", pa.array(near))

    asg = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "vec_id" not in g.column_names:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "cluster": pa.array([], type=pa.int64()),
                             "keep": pa.array([], type=pa.int64())})
        ids = g["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = g["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        M = _emb_matrix(g)
        nrm = _seq_norm(M)
        S = _seq_dots(M, M) / (nrm[:, None] * nrm[None, :])
        smaller = ids[:, None] < ids[None, :]  # [i, j]: i precedes j
        dropped = ((S >= SEMDEDUP_TAU) & smaller).any(axis=0)
        return pa.table({
            "vec_id": pa.array(ids),
            "cluster": pa.array(cl),
            "keep": pa.array((~dropped).astype(np.int64)),
        })

    return asg.groupby("cluster").map_groups(resolve, batch_format="pyarrow")


def sql_semdedup() -> str:
    cent = sql_embedding_centroids()
    cw_cols = ", ".join(
        f"MAX(CASE WHEN dim = {d} THEN CAST(sum_micros AS DOUBLE)"
        f" / CAST(n AS DOUBLE) END) AS c{d}"
        for d in range(EMB_D)
    )

    def e(d: int) -> str:
        return f"floor(CAST(embedding[{d + 1}] AS DOUBLE) * 1000000.0)"

    dist = " + ".join(f"(({e(d)}) - c{d}) * (({e(d)}) - c{d})" for d in range(EMB_D))
    cos = (
        "list_sum(list_transform(generate_series(1, len(a.embedding)),"
        " i -> CAST(a.embedding[i] AS DOUBLE) * b.embedding[i]))"
        " / (a.nrm * b.nrm)"
    )
    return f"""
WITH cent AS MATERIALIZED ({cent}),
cw AS MATERIALIZED (SELECT label AS clabel, {cw_cols} FROM cent GROUP BY label),
d AS MATERIALIZED (
  SELECT e.vec_id, e.embedding, cw.clabel, ({dist}) AS dist
  FROM embeddings e CROSS JOIN cw
),
asg AS MATERIALIZED (
  SELECT vec_id, embedding, clabel AS cluster FROM d
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY dist, clabel) = 1
),
n AS MATERIALIZED (
  SELECT vec_id, cluster, embedding,
    sqrt(list_sum(list_transform(embedding, x -> CAST(x AS DOUBLE) * x))) AS nrm
  FROM asg
),
drops AS MATERIALIZED (
  SELECT DISTINCT b.vec_id FROM n a
  JOIN n b ON a.cluster = b.cluster AND a.vec_id < b.vec_id
  WHERE {cos} >= {SEMDEDUP_TAU!r}
)
SELECT n.vec_id, CAST(n.cluster AS BIGINT) AS cluster,
  CAST(CASE WHEN dr.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM n LEFT JOIN drops dr ON n.vec_id = dr.vec_id
"""


def q_winnow_fingerprint(sf_dir: str):
    """Winnowing fingerprint selection (Schleimer et al., the MOSS
    document-fingerprint scheme): rolling k-gram hashes, one selected
    hash per window of W consecutive positions (the window minimum,
    rightmost on ties), deduplicated per doc.  Guarantees every match
    of length >= W+K-1 shares a selected fingerprint.  Fully
    vectorized: the hash matrix folds K shifted code columns; the
    window minimum scans W shifted slices with <=-updates for the
    rightmost-tie rule.  Map-only.  Output (doc_id, pos, h)."""
    from rhealpixdggs_py_ray.ops.text import FP_BASE, FP_MOD

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    K, W = WINNOW_K, WINNOW_W

    def winnow(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(texts)
        out_d, out_p, out_h = [], [], []
        if n:
            lens = np.array([len(t) for t in texts], dtype=np.int64)
            mx = max(int(lens.max()), K)
            codes = np.zeros((n, mx), dtype=np.int64)
            for i, t in enumerate(texts):
                codes[i, : len(t)] = np.frombuffer(
                    t.encode("utf-32-le"), dtype=np.uint32)
            npos = mx - K + 1
            H = np.zeros((n, npos), dtype=np.int64)
            for j in range(K):
                H = H * FP_BASE + codes[:, j:j + npos]
            H %= FP_MOD
            n_pos = np.maximum(lens - K + 1, 0)  # valid positions/row
            nw = npos - W + 1
            if nw > 0:
                best = np.full((n, nw), np.iinfo(np.int64).max, dtype=np.int64)
                bpos = np.zeros((n, nw), dtype=np.int64)
                for o in range(W):
                    v = H[:, o:o + nw]
                    upd = v <= best  # <= keeps the RIGHTMOST minimum
                    best = np.where(upd, v, best)
                    bpos = np.where(upd, o + np.arange(nw)[None, :], bpos)
                n_win = np.maximum(n_pos - W + 1, 0)
                for i in range(n):
                    w_i = int(n_win[i])
                    if w_i <= 0:
                        continue
                    sel = np.unique(bpos[i, :w_i])
                    out_d.append(np.full(len(sel), dids[i], dtype=np.int64))
                    out_p.append(sel + 1)  # 1-based, matches SQL substr
                    out_h.append(H[i, sel])
        if not out_d:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "pos": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.int64())})
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_d)),
            "pos": pa.array(np.concatenate(out_p)),
            "h": pa.array(np.concatenate(out_h)),
        })

    return ds.map_batches(winnow, batch_format="pyarrow", zero_copy_batch=True)


def sql_winnow_fingerprint() -> str:
    from rhealpixdggs_py_ray.ops.text import FP_BASE, FP_MOD

    K, W = WINNOW_K, WINNOW_W
    # ((((c1*B + c2)*B + c3)*B + c4)*B + c5) % M — codes <= 0x10FFFF so the
    # pre-mod value stays < 2^53 and a single trailing mod is exact.
    # Rightmost-tie window minimum in ONE window scan: minimize the
    # packed key h * 2^21 + (2^21 - 1 - i)  (h < 2^31, i < 2^21, so the
    # key < 2^52 is exact).
    poly = "CAST(ascii(substr(text, i, 1)) AS BIGINT)"
    for j in range(1, K):
        poly = f"({poly}) * {FP_BASE} + CAST(ascii(substr(text, i + {j}, 1)) AS BIGINT)"
    P = 1 << 21
    return f"""
WITH wpos AS MATERIALIZED (
  SELECT doc_id, i, (({poly}) % {FP_MOD}) * {P} + ({P - 1} - i) AS packed
  FROM documents, unnest(generate_series(1, length(text) - {K - 1})) AS t(i)
),
wwin AS MATERIALIZED (
  SELECT doc_id, i AS wi,
    MIN(packed) OVER (PARTITION BY doc_id ORDER BY i
      ROWS BETWEEN CURRENT ROW AND {W - 1} FOLLOWING) AS pmn,
    COUNT(*) OVER (PARTITION BY doc_id) AS np
  FROM wpos QUALIFY i <= np - {W - 1}
)
SELECT DISTINCT doc_id,
  {P - 1} - (pmn % {P}) AS pos,
  pmn // {P} AS h
FROM wwin
"""


def q_simhash_clusters(sf_dir: str):
    """SimHash near-dup clusters, completing the dedup-family symmetry
    (minhash and phash both have cluster steps): 64-bit simhash ->
    4x16-bit band candidates (signatures ride the band rows, 16 bytes)
    -> exact Hamming verify inside the band bucket -> per-pair dedup
    (min over the duplicate band hits) -> connected components.
    Output (doc_id, cluster_id, keep)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.ops.cc import connected_components
    from rhealpixdggs_py_ray.ops.dedup import SimHasher

    nb = 8
    sigs = sizing.stateful_map(
        _docs(sf_dir), SimHasher, batch_format="pyarrow",
        zero_copy_batch=True)

    def bands(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        hi = batch["sim_hi"].to_numpy(zero_copy_only=False).astype(np.uint64)
        lo = batch["sim_lo"].to_numpy(zero_copy_only=False).astype(np.uint64)
        sig = (hi << np.uint64(32)) | lo
        t_l, b_l, d_l, s_l = [], [], [], []
        for t in range(4):
            bk = ((sig >> np.uint64(16 * t)) & np.uint64(0xFFFF)).astype(np.int64)
            key = np.int64(t) * np.int64(1 << 16) + bk
            t_l.append(key)
            d_l.append(d)
            s_l.append(sig)
        key = np.concatenate(t_l)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(key.astype(np.uint64), nb)),
            "bandkey": pa.array(key),
            "doc_id": pa.array(np.concatenate(d_l)),
            "sig": pa.array(np.concatenate(s_l)),
        })

    def cand_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "bandkey" not in g.column_names:
            return pa.table({"pkey": pa.array([], type=pa.uint64()),
                             "ham": pa.array([], type=pa.int64())})
        bk = g["bandkey"].to_numpy(zero_copy_only=False)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        sig = g["sig"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((d, bk))
        bk, d, sig = bk[order], d[order], sig[order]
        starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
        lens = np.diff(np.append(starts, len(bk)))
        pk_l, hm_l = [], []
        for s, L in zip(starts, lens):
            if L < 2:
                continue
            dd = d[s:s + L]
            ss = sig[s:s + L]
            i, j = np.triu_indices(L, k=1)
            x = ss[i] ^ ss[j]
            ham = np.zeros(len(x), dtype=np.int64)
            for b in range(64):
                ham += ((x >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            keep = (ham <= SIMHAM_MAX) & (dd[i] != dd[j])
            a = np.minimum(dd[i][keep], dd[j][keep]).astype(np.uint64)
            b2 = np.maximum(dd[i][keep], dd[j][keep]).astype(np.uint64)
            if len(b2) and int(b2.max()) >= (1 << 32):
                raise AssertionError(
                    "simhash pair packing overflow (doc id >= 2^32)")
            pk_l.append(a * np.uint64(1 << 32) + b2)
            hm_l.append(ham[keep])
        if not pk_l:
            return pa.table({"pkey": pa.array([], type=pa.uint64()),
                             "ham": pa.array([], type=pa.int64())})
        return pa.table({"pkey": pa.array(np.concatenate(pk_l)),
                         "ham": pa.array(np.concatenate(hm_l))})

    cand = (
        sigs.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(cand_pairs, batch_format="pyarrow")
    )

    def dedup_key(batch: pa.Table) -> pa.Table:
        pk = batch["pkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "bucket", pa.array(hash_bucket_u64(pk, nb)))

    def dedup_reduce(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "pkey" not in g.column_names:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64())})
        pk = g["pkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uq = np.unique(pk)
        return pa.table({
            "a": pa.array((uq >> np.uint64(32)).astype(np.int64)),
            "b": pa.array((uq & np.uint64((1 << 32) - 1)).astype(np.int64)),
        })

    pairs = (
        cand.map_batches(dedup_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(dedup_reduce, batch_format="pyarrow")
    )
    return connected_components(pairs)


def sql_simhash_clusters() -> str:
    from rhealpixdggs_py_ray.ops import cc, dedup

    sig = dedup.simhash_sql()
    pairs = f"""
WITH ssig AS MATERIALIZED ({sig}),
sfull AS MATERIALIZED (
  SELECT doc_id,
    CAST(sim_hi AS UBIGINT) * 4294967296 + CAST(sim_lo AS UBIGINT) AS sig
  FROM ssig
),
sbands AS MATERIALIZED (
  SELECT doc_id, sig, t.t AS t,
    CAST((sig >> CAST(16 * t.t AS UBIGINT)) & 65535 AS BIGINT) AS bkey
  FROM sfull, (SELECT unnest(generate_series(0, 3)) AS t) t
)
SELECT DISTINCT least(l.doc_id, r.doc_id) AS a,
  greatest(l.doc_id, r.doc_id) AS b
FROM sbands l JOIN sbands r
  ON l.t = r.t AND l.bkey = r.bkey AND l.doc_id < r.doc_id
WHERE bit_count(xor(l.sig, r.sig)) <= {SIMHAM_MAX}
"""
    return cc.connected_components_sql(pairs)


def q_split_leakage(sf_dir: str):
    """Train/test contamination audit (the leakage check an eval
    pipeline must run after splitting): verified minhash near-dup
    pairs whose two documents landed in DIFFERENT splits under the
    q_split_assign hash rule.  Reuses the materialized shared pair
    intermediate (_minhash_pairs) — zero extra corpus passes; the
    pair set is tiny, the split rule is a pure map over it.  Output
    (a, b, split_a, split_b, jac_micros)."""
    pairs = _minhash_pairs(sf_dir)

    def leak(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        sa, sb = _split_of(a), _split_of(b)
        m = sa != sb
        return pa.table({
            "a": pa.array(a[m]),
            "b": pa.array(b[m]),
            "split_a": pa.array(sa[m], type=pa.string()),
            "split_b": pa.array(sb[m], type=pa.string()),
            "jac_micros": batch["jac_micros"].filter(pa.array(m)),
        })

    return pairs.map_batches(leak, batch_format="pyarrow",
                             zero_copy_batch=True)


def sql_split_leakage() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    def split(col: str) -> str:
        h = f"CAST(md5_number_lower(CAST({col} AS VARCHAR)) AS HUGEINT) % 100"
        return (f"CASE WHEN {h} < 90 THEN 'train'"
                f" WHEN {h} < 95 THEN 'val' ELSE 'test' END")

    return f"""
WITH lk_pairs AS MATERIALIZED (
  SELECT * FROM ({dedup.minhash_lsh_sql()}) t
)
SELECT a, b, {split('a')} AS split_a, {split('b')} AS split_b, jac_micros
FROM lk_pairs WHERE {split('a')} <> {split('b')}
"""


def q_dedup_keep_best(sf_dir: str):
    """Dedup with representative selection (what a curation pipeline
    actually ships): per near-dup cluster keep the LONGEST member
    (max n_chars, ties -> smaller doc_id) and report cluster size.
    Composition: shared minhash pairs -> connected components (tiny)
    -> broadcast membership -> one pass over documents emitting only
    member rows -> mergeable per-cluster argmax partials -> one
    h(cluster) bucket exchange.  Output (cluster_id, keep_doc,
    n_chars, n_members)."""
    from rhealpixdggs_py_ray.ops import cc
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    clusters = cc.connected_components(_minhash_pairs(sf_dir))
    # bounded: one row per doc that appears in a verified near-dup pair
    rows = clusters.take_all()
    m_ids = np.array([int(r["doc_id"]) for r in rows], dtype=np.int64)
    m_cl = np.array([int(r["cluster_id"]) for r in rows], dtype=np.int64)
    order = np.argsort(m_ids)
    memb_ref = ray.put((m_ids[order], m_cl[order]))
    nb = 8

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        mk, mv = ray.get(memb_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(mk, ids)
        pos = np.minimum(pos, max(len(mk) - 1, 0))
        sel = np.flatnonzero((len(mk) > 0) & (mk[pos] == ids))
        if not len(sel):
            return pa.table({
                "bucket": pa.array([], type=pa.int64()),
                "cluster_id": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "n_chars": pa.array([], type=pa.int64()),
                "n_members": pa.array([], type=pa.int64()),
            })
        cl = mv[pos[sel]]
        ids, nch = ids[sel], nch[sel]
        # per-batch argmax per cluster: (n_chars DESC, doc_id ASC)
        order = np.lexsort((ids, -nch, cl))
        clo = cl[order]
        first = np.r_[True, clo[1:] != clo[:-1]]
        cnt = np.diff(np.r_[np.flatnonzero(first), len(clo)])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(
                clo[first].astype(np.uint64), nb)),
            "cluster_id": pa.array(clo[first]),
            "doc_id": pa.array(ids[order][first]),
            "n_chars": pa.array(nch[order][first]),
            "n_members": pa.array(cnt.astype(np.int64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        cols = ["cluster_id", "keep_doc", "n_chars", "n_members"]
        if g.num_rows == 0 or "cluster_id" not in g.column_names:
            return pa.table({c: pa.array([], type=pa.int64()) for c in cols})
        cl = g["cluster_id"].to_numpy(zero_copy_only=False)
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        nch = g["n_chars"].to_numpy(zero_copy_only=False)
        nm = g["n_members"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -nch, cl))
        clo = cl[order]
        first = np.r_[True, clo[1:] != clo[:-1]]
        uq, inv = np.unique(cl, return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, nm)
        return pa.table({
            "cluster_id": pa.array(clo[first]),
            "keep_doc": pa.array(ids[order][first]),
            "n_chars": pa.array(nch[order][first]),
            "n_members": pa.array(tot),  # uq order == clo[first] order
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_dedup_keep_best() -> str:
    return f"""
WITH kb_clusters AS MATERIALIZED (
  SELECT * FROM ({sql_dedup_clusters()}) t
), kb_rank AS MATERIALIZED (
  SELECT c.cluster_id, d.doc_id, d.n_chars,
    row_number() OVER (PARTITION BY c.cluster_id
                       ORDER BY d.n_chars DESC, d.doc_id) AS rn,
    COUNT(*) OVER (PARTITION BY c.cluster_id) AS n_members
  FROM kb_clusters c JOIN documents d ON d.doc_id = c.doc_id
)
SELECT CAST(cluster_id AS BIGINT) AS cluster_id, doc_id AS keep_doc,
  CAST(n_chars AS BIGINT) AS n_chars, CAST(n_members AS BIGINT) AS n_members
FROM kb_rank WHERE rn = 1
"""


def q_dedup_incremental(sf_dir: str):
    """Incremental ingest dedup (the daily-crawl shape: probe the NEW
    batch against the EXISTING corpus index, keep only cross-side
    collisions): verified minhash near-dup pairs with exactly one
    endpoint in the ingest batch (doc_id % 10 == 7).  Composition over
    the shared materialized pair intermediate — zero extra corpus
    passes here; at 100 TB the refinement is a side-aware in-bucket
    pair expansion (index x new only, never index x index), same
    exchanges.  Output (new_doc, index_doc, jac_micros)."""
    pairs = _minhash_pairs(sf_dir)

    def cross(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        na = (a % INGEST_MOD) == INGEST_RES
        nb = (b % INGEST_MOD) == INGEST_RES
        m = na != nb
        new = np.where(na[m], a[m], b[m])
        idx_side = np.where(na[m], b[m], a[m])
        return pa.table({
            "new_doc": pa.array(new),
            "index_doc": pa.array(idx_side),
            "jac_micros": batch["jac_micros"].filter(pa.array(m)),
        })

    return pairs.map_batches(cross, batch_format="pyarrow",
                             zero_copy_batch=True)


def sql_dedup_incremental() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    new = f"(a % {INGEST_MOD} = {INGEST_RES})"
    newb = f"(b % {INGEST_MOD} = {INGEST_RES})"
    return f"""
WITH inc_pairs AS MATERIALIZED (
  SELECT * FROM ({dedup.minhash_lsh_sql()}) t
)
SELECT CASE WHEN {new} THEN a ELSE b END AS new_doc,
  CASE WHEN {new} THEN b ELSE a END AS index_doc,
  jac_micros
FROM inc_pairs WHERE {new} <> {newb}
"""


# ---------------------------------------------------------------------------
# Round 4c: n-gram containment (asymmetric near-dup / quotation detector)
# ---------------------------------------------------------------------------

def q_dedup_containment(sf_dir: str):
    """Shingle containment ni / min(na, nb): catches a short doc fully
    quoted inside a long one, which symmetric Jaccard dilutes away.
    Same fused 3-exchange inverted-index plumbing as ngram_jaccard
    (ops/dedup.py:928) — only the resolve formula differs."""
    return _containment_pairs(sf_dir)


def sql_dedup_containment() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return dedup.ngram_containment_sql(0.4)


# ---------------------------------------------------------------------------
# Round 4c: near-dup source matrix (where does duplication come from?)
# ---------------------------------------------------------------------------

def q_dup_source_matrix(sf_dir: str):
    """Curation analytics: the symmetric source-pair matrix of verified
    minhash near-dup pairs — which corpus sources duplicate each other
    (mirror sites, cross-posts) vs self-duplicate.  Reuses the cached
    pair set (_minhash_pairs) and attaches each endpoint's source code
    through the ONE fused attach exchange (ops/dedup.py
    _attach_pair_sides_fused, kv_mode=direct); per-bucket partial
    counts fold through one integer-key exchange.  Output (src_lo,
    src_hi, n_pairs)."""
    import pandas as pd
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key
    from rhealpixdggs_py_ray.ops.dedup import (
        _attach_pair_sides_fused, _pair_sides_pivot)

    pairs = _minhash_pairs(sf_dir)
    docs = _read(sf_dir, "documents", columns=["doc_id", "source"], blocks=4)

    def kv(batch: pa.Table) -> pa.Table:
        src = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3, 10),
                      pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "src": src})

    kv_ds = docs.map_batches(kv, batch_format="pyarrow", zero_copy_batch=True)
    att = _attach_pair_sides_fused(
        pairs, kv_ds, pair_sums=[], val_cols=[("src", pa.int64())],
        kv_mode="direct",
    )

    def fin(m: pd.DataFrame) -> pd.DataFrame:
        sa = m["src_a"].to_numpy().astype(np.int64)
        sb = m["src_b"].to_numpy().astype(np.int64)
        key = np.minimum(sa, sb) * 1024 + np.maximum(sa, sb)
        ku, cnt = np.unique(key, return_counts=True)
        return pd.DataFrame({"key": ku.astype(np.uint64),
                             "n": cnt.astype(np.int64)})

    part = _pair_sides_pivot(att, fin, ["src"])
    folded = sum_by_u64_key(part, "key", "n", "n_pairs", n_buckets=8)

    def stringify(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "src_lo": pa.array(key // 1024),
            "src_hi": pa.array(key % 1024),
            "n_pairs": pa.array(batch["n_pairs"]),
        })

    return folded.map_batches(stringify, batch_format="pyarrow",
                              zero_copy_batch=True)


def sql_dup_source_matrix() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return f"""
WITH dsmp AS MATERIALIZED ({dedup.minhash_lsh_sql()}),
dsms AS MATERIALIZED (
  SELECT doc_id, CAST(substr(source, 4) AS BIGINT) AS src FROM documents
)
SELECT least(sa.src, sb.src) AS src_lo, greatest(sa.src, sb.src) AS src_hi,
  CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM dsmp p JOIN dsms sa ON sa.doc_id = p.a JOIN dsms sb ON sb.doc_id = p.b
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Round 4c: per-doc n-gram novelty (corpus contribution accounting)
# ---------------------------------------------------------------------------

def q_ngram_novelty(sf_dir: str):
    """Novelty accounting (the dedup-report metric RefinedWeb-style
    pipelines publish): attribute every distinct shingle to its
    minimum doc_id OWNER; a doc's novelty is the share of its shingles
    it owns (1.0 = contributes only new text, ~0 = re-states earlier
    docs).  Exchange 1: hash(shingle) buckets -> per-bucket min-doc ->
    (owner, novel-count) partials; exchange 2: ONE h(doc) union
    exchange folds novel partials with map-side per-doc totals.
    Output (doc_id, n_grams, n_novel)."""
    import pandas as pd

    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64
    from rhealpixdggs_py_ray.ops.dedup import N_PAIR_BUCKETS, ShingleExploder

    sh = sizing.stateful_map(
        _docs(sf_dir), ShingleExploder, batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # two consumers (owners + totals): explode once

    npb = sizing.exchange_buckets(N_PAIR_BUCKETS)
    ndb = sizing.exchange_buckets(8)

    def add_bucket(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False)
        bucket = (pd.util.hash_array(s) % np.uint64(npb)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket))

    def owners(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "s" not in g.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "kind": pa.array([], type=pa.int64()),
                             "v": pa.array([], type=pa.int64())})
        s = g["s"].to_numpy(zero_copy_only=False)
        d = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        su_, inv = np.unique(s, return_inverse=True)
        own = np.full(len(su_), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(own, inv, d)
        ou, oc = np.unique(own, return_counts=True)
        return pa.table({"doc_id": pa.array(ou),
                         "kind": pa.array(np.zeros(len(ou), dtype=np.int64)),
                         "v": pa.array(oc.astype(np.int64))})

    novel = (
        sh.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(owners, batch_format="pyarrow")
    )

    def totals(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        du, dc = np.unique(d, return_counts=True)
        return pa.table({"doc_id": pa.array(du),
                         "kind": pa.array(np.ones(len(du), dtype=np.int64)),
                         "v": pa.array(dc.astype(np.int64))})

    tot = sh.map_batches(totals, batch_format="pyarrow", zero_copy_batch=True)

    def key2(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket2", pa.array(hash_bucket_u64(d, ndb)))

    def resolve(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "doc_id" not in g.column_names:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_grams": pa.array([], type=pa.int64()),
                             "n_novel": pa.array([], type=pa.int64())})
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        kind = g["kind"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        du, inv = np.unique(d, return_inverse=True)
        ng = np.zeros(len(du), dtype=np.int64)
        np.add.at(ng, inv[kind == 1], v[kind == 1])
        nv = np.zeros(len(du), dtype=np.int64)
        np.add.at(nv, inv[kind == 0], v[kind == 0])
        return pa.table({"doc_id": pa.array(du),
                         "n_grams": pa.array(ng),
                         "n_novel": pa.array(nv)})

    both = novel.map_batches(
        key2, batch_format="pyarrow", zero_copy_batch=True
    ).union(tot.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True))
    return both.groupby("bucket2").map_groups(resolve, batch_format="pyarrow")


def sql_ngram_novelty() -> str:
    from rhealpixdggs_py_ray.ops.dedup import SHINGLE_W

    return f"""
WITH nvt AS MATERIALIZED (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w FROM documents
),
nvs AS MATERIALIZED (
  SELECT DISTINCT doc_id, array_to_string(w[i : i + {SHINGLE_W - 1}], ' ') AS s
  FROM nvt, unnest(generate_series(1, len(w) - {SHINGLE_W - 1})) AS t(i)
),
nvo AS MATERIALIZED (
  SELECT s, MIN(doc_id) AS owner FROM nvs GROUP BY s
),
nvn AS MATERIALIZED (
  SELECT owner AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_novel
  FROM nvo GROUP BY owner
)
SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
  COALESCE(MAX(n.n_novel), 0) AS n_novel
FROM nvs t LEFT JOIN nvn n ON n.doc_id = t.doc_id
GROUP BY t.doc_id
"""


def q_kmv_join_estimate(sf_dir: str):
    """KMV-sketch join-cardinality estimate — the planner's distinct-
    intersection guess, validated against truth: per event_type in
    ('click', 'view') keep the KMV_K smallest md5 user hashes; with U
    = the K smallest of the union and h_K its max, union_est = (K-1)
    * 2^64 // h_K and inter_est = |U in both| * union_est // K — all
    exact integers (md5 == DuckDB md5_number_lower).  Sketch partials
    are K-bounded per batch; truth is one distinct-pair fold.
    Output (k, c_both, union_est, inter_est, exact_inter)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"],
               blocks=4)
    K = KMV_K

    def part(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        out_t, out_u = [], []
        for tp in ("click", "view"):
            uu = np.unique(uid[et == tp])
            out_t.extend([tp] * len(uu))
            out_u.extend(uu.tolist())
        return pa.table({"tp": pa.array(out_t, type=pa.string()),
                         "u": pa.array(out_u, type=pa.int64())})

    users: dict = {"click": set(), "view": set()}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for tp, u in zip(b["tp"].to_pylist(), b["u"].to_pylist()):
            users[tp].add(int(u))
    # truth validation gathers the distinct-user sets under the same
    # 8M driver cap as ops/cc.py; the K-bounded sketches ARE the
    # at-scale path (drop exact_inter beyond the cap)
    check_driver_cap(sum(len(us) for us in users.values()), "kmv_join_estimate")
    sk = {tp: sorted(md5_u64(str(u)) for u in us)[:K]
          for tp, us in users.items()}
    exact = len(users["click"] & users["view"])
    union = sorted(set(sk["click"]) | set(sk["view"]))[:K]
    k_eff = len(union)
    h_k = union[-1]
    both = set(sk["click"]) & set(sk["view"])
    c = sum(1 for h in union if h in both)
    union_est = (k_eff - 1) * (1 << 64) // h_k if h_k else 0
    inter_est = c * union_est // k_eff if k_eff else 0
    return pa.table({
        "k": pa.array([k_eff], type=pa.int64()),
        "c_both": pa.array([c], type=pa.int64()),
        "union_est": pa.array([union_est], type=pa.int64()),
        "inter_est": pa.array([inter_est], type=pa.int64()),
        "exact_inter": pa.array([exact], type=pa.int64()),
    })


def sql_kmv_join_estimate() -> str:
    K = KMV_K
    return f"""
WITH kmu AS MATERIALIZED (
  SELECT DISTINCT event_type AS tp, user_id AS u FROM events
  WHERE event_type IN ('click', 'view')
),
kmh AS MATERIALIZED (
  SELECT tp, CAST(md5_number_lower(CAST(u AS VARCHAR)) AS UBIGINT) AS h
  FROM kmu
),
kms AS MATERIALIZED (
  SELECT tp, h FROM kmh
  QUALIFY row_number() OVER (PARTITION BY tp ORDER BY h) <= {K}
),
kmun AS MATERIALIZED (
  SELECT DISTINCT h FROM kms
  ORDER BY h LIMIT {K}
),
kmb AS MATERIALIZED (
  SELECT a.h FROM kms a JOIN kms b ON a.h = b.h
  WHERE a.tp = 'click' AND b.tp = 'view'
),
kmst AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k_eff,
    CAST(MAX(h) AS HUGEINT) AS h_k,
    CAST(COUNT(*) FILTER (WHERE h IN (SELECT h FROM kmb)) AS HUGEINT)
      AS c
  FROM kmun
),
kmex AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS exact_inter FROM (
    SELECT u FROM kmu WHERE tp = 'click'
    INTERSECT SELECT u FROM kmu WHERE tp = 'view') t
)
SELECT CAST(k_eff AS BIGINT) AS k, CAST(c AS BIGINT) AS c_both,
  CAST(CASE WHEN h_k > 0
    THEN (k_eff - 1) * CAST('18446744073709551616' AS HUGEINT) // h_k
    ELSE 0 END AS BIGINT) AS union_est,
  CAST(CASE WHEN k_eff > 0 AND h_k > 0
    THEN c * ((k_eff - 1) * CAST('18446744073709551616' AS HUGEINT)
      // h_k) // k_eff
    ELSE 0 END AS BIGINT) AS inter_est,
  (SELECT exact_inter FROM kmex) AS exact_inter
FROM kmst
"""


# ---------------------------------------------------------------------------
# Round 4e: dedup family coverage + embedding isotropy
# ---------------------------------------------------------------------------


def q_dedup_coverage(sf_dir: str):
    """Coverage summary across the near-dup families — what fraction
    of the corpus each detector touches (the dedup dashboard): per
    family (minhash, ngram, containment), the count of DISTINCT docs
    appearing in any verified pair, over the corpus size, exact
    integers.  Composes the cached/shared pair pipelines.
    Output (family, n_docs_in_pairs, n_docs, frac_e6)."""
    fams = {
        "minhash": _minhash_pairs(sf_dir),
        "ngram": _ngram_pairs(sf_dir),
        "containment": _containment_pairs(sf_dir),
    }
    n_docs = 0
    for b in _docs(sf_dir).map_batches(
            lambda t: pa.table({"n": pa.array([t.num_rows],
                                              type=pa.int64())}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        for v in b["n"].to_pylist():
            n_docs += int(v)
    out = {c: [] for c in ("family", "n_docs_in_pairs", "n_docs",
                           "frac_e6")}
    for fam in sorted(fams):
        docs: set = set()
        for b in fams[fam].iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                docs.update(b["a"].to_pylist())
                docs.update(b["b"].to_pylist())
        out["family"].append(fam)
        out["n_docs_in_pairs"].append(len(docs))
        out["n_docs"].append(n_docs)
        out["frac_e6"].append(len(docs) * 10 ** 6 // n_docs)
    return pa.table({
        "family": pa.array(out["family"], type=pa.string()),
        "n_docs_in_pairs": pa.array(out["n_docs_in_pairs"],
                                    type=pa.int64()),
        "n_docs": pa.array(out["n_docs"], type=pa.int64()),
        "frac_e6": pa.array(out["frac_e6"], type=pa.int64()),
    })


def sql_dedup_coverage() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    parts = []
    for fam, pair_sql in (
        ("minhash", dedup.minhash_lsh_sql()),
        ("ngram", dedup.ngram_jaccard_sql()),
        ("containment", dedup.ngram_containment_sql()),
    ):
        parts.append(f"""SELECT '{fam}' AS family,
  CAST((SELECT COUNT(*) FROM (
    SELECT a AS d FROM ({pair_sql}) p1
    UNION SELECT b FROM ({pair_sql}) p2) u) AS BIGINT)
    AS n_docs_in_pairs,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM documents) AS n_docs,
  CAST((SELECT COUNT(*) FROM (
    SELECT a AS d FROM ({pair_sql}) p3
    UNION SELECT b FROM ({pair_sql}) p4) u2) * 1000000
    // (SELECT COUNT(*) FROM documents) AS BIGINT) AS frac_e6""")
    return "\nUNION ALL\n".join(parts)


def q_dedup_consensus(sf_dir: str):
    """Detector-consensus meta-analytics: which near-dup pairs are
    flagged by at least TWO of the three text detectors (MinHash
    Jaccard >= 0.5, n-gram Jaccard >= 0.2, shingle containment >=
    0.4)?  High-consensus pairs are safe auto-drop candidates; single-
    detector pairs deserve review — the curation triage signal.  All
    three pair sets come from the shared PAIR_CACHE (zero extra
    corpus passes); the bounded sets merge on the driver.  Output
    (a, b, in_minhash, in_ngram, in_containment, n_detectors) for
    pairs with n_detectors >= 2, sorted by (a, b)."""
    sets = {}
    for name, fn in (("m", _minhash_pairs), ("g", _ngram_pairs),
                     ("c", _containment_pairs)):
        df = fn(sf_dir).to_pandas()  # bounded: verified pairs only
        sets[name] = set(zip(df["a"].astype(int).tolist(),
                             df["b"].astype(int).tolist()))
    allp = sorted(sets["m"] | sets["g"] | sets["c"])
    out = {k: [] for k in ("a", "b", "m", "g", "c")}
    for a, b in allp:
        fm = (a, b) in sets["m"]
        fg = (a, b) in sets["g"]
        fc = (a, b) in sets["c"]
        if fm + fg + fc >= 2:
            out["a"].append(a)
            out["b"].append(b)
            out["m"].append(int(fm))
            out["g"].append(int(fg))
            out["c"].append(int(fc))
    n_det = (np.array(out["m"], dtype=np.int64)
             + np.array(out["g"], dtype=np.int64)
             + np.array(out["c"], dtype=np.int64))
    return pa.table({
        "a": pa.array(out["a"], type=pa.int64()),
        "b": pa.array(out["b"], type=pa.int64()),
        "in_minhash": pa.array(out["m"], type=pa.int64()),
        "in_ngram": pa.array(out["g"], type=pa.int64()),
        "in_containment": pa.array(out["c"], type=pa.int64()),
        "n_detectors": pa.array(n_det),
    })


def sql_dedup_consensus() -> str:
    from rhealpixdggs_py_ray.ops import dedup

    return f"""
WITH dcm AS MATERIALIZED (
  SELECT a, b FROM ({dedup.minhash_lsh_sql()}) q
),
dcg AS MATERIALIZED (
  SELECT a, b FROM ({dedup.ngram_jaccard_sql()}) q
),
dcc AS MATERIALIZED (
  SELECT a, b FROM ({dedup.ngram_containment_sql(0.4)}) q
),
dcu AS MATERIALIZED (
  SELECT a, b, MAX(m) AS m, MAX(g) AS g, MAX(c) AS c
  FROM (
    SELECT a, b, 1 AS m, 0 AS g, 0 AS c FROM dcm
    UNION ALL SELECT a, b, 0, 1, 0 FROM dcg
    UNION ALL SELECT a, b, 0, 0, 1 FROM dcc
  ) GROUP BY a, b
)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
  CAST(m AS BIGINT) AS in_minhash, CAST(g AS BIGINT) AS in_ngram,
  CAST(c AS BIGINT) AS in_containment,
  CAST(m + g + c AS BIGINT) AS n_detectors
FROM dcu WHERE m + g + c >= 2
"""
