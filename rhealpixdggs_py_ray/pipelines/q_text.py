"""Query-suite family module: text (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403
from rhealpixdggs_py_ray.pipelines.q_stats1 import q_markov_transitions, sql_markov_transitions  # noqa: F401



# ---------------------------------------------------------------------------
# Token counting / text stats
# ---------------------------------------------------------------------------

def q_token_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def tok(batch: pa.Table) -> pa.Table:
        n = np.array([len(t.split()) for t in batch["text"].to_pylist()], dtype=np.int64)
        return pa.table({"source": batch["source"], "n_tokens": pa.array(n)})

    t = ds.map_batches(tok, batch_format="pyarrow", zero_copy_batch=True)
    return t.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_tokens", alias_name="total_tokens"),
        Max("n_tokens", alias_name="max_tokens"),
    )


def sql_token_stats() -> str:
    # CASE guard: whitespace-only text must count 0 tokens (Python
    # str.split() semantics), not regexp_split_to_array's [''] == 1.
    ntok = (
        "CASE WHEN trim(text) = '' THEN 0"
        " ELSE length(regexp_split_to_array(trim(text), '\\s+')) END"
    )
    return (
        "SELECT source, COUNT(*) AS n_docs,"
        f" CAST(SUM({ntok}) AS BIGINT) AS total_tokens,"
        f" MAX({ntok}) AS max_tokens"
        " FROM documents GROUP BY source"
    )


def q_vocab(sf_dir: str):
    """Corpus vocabulary: global top-50 word 3-grams by total frequency
    (count DESC, gram ASC tie-break).  Distributed shape: per-batch
    np.unique partial counts -> disjoint hash buckets (every occurrence
    of a gram meets exactly one reducer, so per-bucket local top-k is
    exact) -> tiny global merge.  The exploded n-gram table itself is
    never sort-shuffled (ops/agg.py pattern; the bucket hash is
    engine-internal, so any deterministic vectorized hash works)."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        for t in batch["text"].to_pylist():
            toks = t.split()
            grams.extend(
                " ".join(toks[i : i + VOCAB_W])
                for i in range(len(toks) - VOCAB_W + 1)
            )
        if not grams:
            return pa.table(
                {
                    "s": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                    "bucket": pa.array([], type=pa.int64()),
                }
            )
        uq, cnt = np.unique(np.asarray(grams, dtype=object), return_counts=True)
        bucket = (pd.util.hash_array(uq) % VOCAB_BUCKETS).astype(np.int64)
        return pa.table(
            {
                "s": pa.array(uq, type=pa.string()),
                "n": pa.array(cnt.astype(np.int64)),
                "bucket": pa.array(bucket),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        uq, inv = np.unique(g["s"].to_numpy(zero_copy_only=False), return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, g["n"].to_numpy(zero_copy_only=False))
        order = np.lexsort((uq, -tot))[:VOCAB_K]
        return pa.table(
            {
                "s": pa.array(uq[order], type=pa.string()),
                "n": pa.array(tot[order]),
                "g": pa.array(np.zeros(len(order), dtype=np.int64)),
            }
        )

    def final(g: pa.Table) -> pa.Table:
        s = g["s"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, -n))[:VOCAB_K]
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
                "s": pa.array(s[order], type=pa.string()),
                "n": pa.array(n[order]),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    merged = part.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")
    return merged.groupby("g").map_groups(final, batch_format="pyarrow")


def sql_vocab() -> str:
    # short docs: len(w) - 2 < 1 makes generate_series empty, matching
    # Python's empty range; whitespace-only text trims to [''] (len 1)
    # which is likewise below the width
    return f"""
WITH toks AS MATERIALIZED (
  SELECT regexp_split_to_array(trim(text), '\\s+') AS w FROM documents
),
sh AS MATERIALIZED (
  SELECT array_to_string(w[i : i + {VOCAB_W - 1}], ' ') AS s
  FROM toks, unnest(generate_series(1, len(w) - {VOCAB_W - 1})) AS t(i)
),
cnt AS MATERIALIZED (
  SELECT s, CAST(COUNT(*) AS BIGINT) AS n FROM sh GROUP BY s
)
SELECT CAST(row_number() OVER (ORDER BY n DESC, s) AS BIGINT) AS rank, s, n
FROM cnt QUALIFY rank <= {VOCAB_K}
"""


def q_label_quality(sf_dir: str):
    """Cross-modal big-big join: documents (integer token stats) joined
    to embeddings (cluster label) on doc_id = vec_id, aggregated per
    label.  Neither side is bounded, so neither is broadcast: the two
    narrow projections meet in ONE union bucket exchange on h(key) (a
    bucketed hash join without Ray JoinOperator's reserved actor-pool
    cost, cf. CLAUDE.md), and matches are reduced to per-label integer
    partials inside the resolve — only a handful of rows reach the
    final groupby."""
    from rhealpixdggs_py_ray.ops.text import QualityScorer

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"], blocks=4)
    embs = _read(sf_dir, "embeddings", columns=["vec_id", "label"], blocks=4)
    nb = 8  # exchange fixed cost ~ blocks x partitions (BASELINE r2c)

    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    def _bkt(ids: np.ndarray) -> np.ndarray:
        return hash_bucket_u64(ids, nb)

    def doc_side(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        n_tok = np.empty(len(texts), dtype=np.int64)
        n_stop = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            n_tok[i] = len(t.split())
            padded = " " + t + " "
            n_stop[i] = sum(
                padded.count(f" {w} ") for w in QualityScorer.STOPWORDS
            )
        return pa.table({
            "bucket": pa.array(_bkt(ids)),
            "side": pa.array(np.zeros(len(ids), dtype=np.int64)),
            "key": pa.array(ids.astype(np.int64)),
            "a": pa.array(n_tok),
            "b": pa.array(n_stop),
        })

    def emb_side(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        z = np.zeros(len(ids), dtype=np.int64)
        return pa.table({
            "bucket": pa.array(_bkt(ids)),
            "side": pa.array(np.ones(len(ids), dtype=np.int64)),
            "key": pa.array(ids.astype(np.int64)),
            "a": pa.array(lab),
            "b": pa.array(z),
        })

    def resolve(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        dmask = side == 0
        dk, dt, dstp = key[dmask], a[dmask], b[dmask]
        ek, elab = key[~dmask], a[~dmask]
        empty = pa.table({
            "label": pa.array([], type=pa.int64()),
            "n_docs": pa.array([], type=pa.int64()),
            "sum_tokens": pa.array([], type=pa.int64()),
            "sum_stop": pa.array([], type=pa.int64()),
        })
        if not len(dk) or not len(ek):
            return empty
        order = np.argsort(dk)
        dk, dt, dstp = dk[order], dt[order], dstp[order]
        pos = np.minimum(np.searchsorted(dk, ek), len(dk) - 1)
        hit = dk[pos] == ek
        if not hit.any():
            return empty
        lab = elab[hit]
        tok = dt[pos[hit]]
        stp = dstp[pos[hit]]
        lu, li = np.unique(lab, return_inverse=True)
        nd = np.zeros(len(lu), dtype=np.int64)
        np.add.at(nd, li, 1)
        st = np.zeros(len(lu), dtype=np.int64)
        np.add.at(st, li, tok)
        ss = np.zeros(len(lu), dtype=np.int64)
        np.add.at(ss, li, stp)
        return pa.table({
            "label": pa.array(lu.astype(np.int64)),
            "n_docs": pa.array(nd),
            "sum_tokens": pa.array(st),
            "sum_stop": pa.array(ss),
        })

    both = docs.map_batches(
        doc_side, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        embs.map_batches(emb_side, batch_format="pyarrow", zero_copy_batch=True)
    )
    part = both.groupby("bucket").map_groups(resolve, batch_format="pyarrow")
    return part.groupby("label").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_tokens", alias_name="sum_tokens"),
        Sum("sum_stop", alias_name="sum_stop"),
    )


def sql_label_quality() -> str:
    from rhealpixdggs_py_ray.ops.text import QualityScorer

    stop = " + ".join(
        f"CAST((length(p) - length(replace(p, ' {w} ', ''))) // {len(w) + 2} AS BIGINT)"
        for w in QualityScorer.STOPWORDS
    )
    ntok = (
        "CASE WHEN trim(text) = '' THEN 0"
        " ELSE CAST(length(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT) END"
    )
    return (
        "WITH p AS MATERIALIZED (SELECT doc_id, text, ' ' || text || ' ' AS p"
        "  FROM documents),"
        f" q AS MATERIALIZED (SELECT doc_id, {ntok} AS n_tokens, {stop} AS n_stop"
        "  FROM p)"
        " SELECT CAST(e.label AS BIGINT) AS label,"
        "  CAST(COUNT(*) AS BIGINT) AS n_docs,"
        "  CAST(SUM(q.n_tokens) AS BIGINT) AS sum_tokens,"
        "  CAST(SUM(q.n_stop) AS BIGINT) AS sum_stop"
        " FROM q JOIN embeddings e ON e.vec_id = q.doc_id"
        " GROUP BY e.label"
    )


def q_salient_terms(sf_dir: str):
    """Per-doc salient terms: top-3 by (tf DESC, global df ASC, term
    ASC) — the tf-idf selection shape with exact integer ranking (no
    float idf that could flip a boundary bit vs the oracle).

    Two passes, docs never shuffled: (1) distributed document
    frequency — per-doc distinct terms are local to the row, per-batch
    np.unique partials meet in disjoint hash buckets (exact df per
    term, one exchange over the term table only); the df map is
    vocabulary-sized (same bounded-vocab assumption as q_vocab) and is
    broadcast once via ray.put; (2) a pure map over docs computes
    per-doc tf and the top-3 pick against the broadcast df."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        terms: list[str] = []
        for t in batch["text"].to_pylist():
            toks = t.split()
            if toks:
                terms.extend(set(toks))
        if not terms:
            return pa.table({
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
                "bucket": pa.array([], type=pa.int64()),
            })
        uq, cnt = np.unique(np.asarray(terms, dtype=object), return_counts=True)
        bucket = (pd.util.hash_array(uq) % VOCAB_BUCKETS).astype(np.int64)
        return pa.table({
            "term": pa.array(uq, type=pa.string()),
            "df": pa.array(cnt.astype(np.int64)),
            "bucket": pa.array(bucket),
        })

    def df_bucket(g: pa.Table) -> pa.Table:
        uq, inv = np.unique(g["term"].to_numpy(zero_copy_only=False), return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, g["df"].to_numpy(zero_copy_only=False))
        return pa.table({
            "term": pa.array(uq, type=pa.string()),
            "df": pa.array(tot),
        })

    df_pd = (
        ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(df_bucket, batch_format="pyarrow")
        .to_pandas()  # vocabulary-sized, bounded
    )
    df_ref = ray.put(dict(zip(df_pd["term"].tolist(),
                              df_pd["df"].astype(np.int64).tolist())))

    def top_terms(batch: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        o_doc, o_term, o_tf, o_df, o_rank = [], [], [], [], []
        for did, t in zip(ids, batch["text"].to_pylist()):
            toks = t.split()
            if not toks:
                continue
            uq, cnt = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            dfv = np.fromiter((dfm[x] for x in uq), dtype=np.int64, count=len(uq))
            order = np.lexsort((uq, dfv, -cnt))[:SALIENT_K]
            o_doc.extend([did] * len(order))
            o_term.extend(uq[order].tolist())
            o_tf.extend(cnt[order].astype(np.int64).tolist())
            o_df.extend(dfv[order].tolist())
            o_rank.extend(range(1, len(order) + 1))
        return pa.table({
            "doc_id": pa.array(o_doc, type=pa.int64()),
            "term": pa.array(o_term, type=pa.string()),
            "tf": pa.array(o_tf, type=pa.int64()),
            "df": pa.array(o_df, type=pa.int64()),
            "rank": pa.array(np.asarray(o_rank, dtype=np.int64)),
        })

    return ds.map_batches(top_terms, batch_format="pyarrow", zero_copy_batch=True)


def sql_salient_terms() -> str:
    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS term
  FROM documents WHERE trim(text) <> ''
),
tf AS MATERIALIZED (
  SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
  FROM toks GROUP BY doc_id, term
),
df AS MATERIALIZED (
  SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
  FROM toks GROUP BY term
)
SELECT doc_id, term, tf, df,
  CAST(row_number() OVER (
    PARTITION BY doc_id ORDER BY tf DESC, df ASC, term ASC
  ) AS BIGINT) AS rank
FROM tf JOIN df USING (term)
QUALIFY rank <= {SALIENT_K}
"""


def q_chunk_docs(sf_dir: str):
    """Document chunking for training/RAG: fixed 32-token windows at
    stride 24 (8-token overlap).  Pure flat-map — one output row per
    (doc, window), no shuffle anywhere; chunks leave as narrow
    (doc_id, chunk_k, n_tokens, md5) rows so the 100 TB output stream
    stays bytes-per-row bounded regardless of document length."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        o_id, o_k, o_n, o_md5 = [], [], [], []
        for did, t in zip(ids, batch["text"].to_pylist()):
            toks = t.split()
            n = len(toks)
            if n == 0:
                continue
            k = 0
            while k * CHUNK_S < n:
                piece = toks[k * CHUNK_S : k * CHUNK_S + CHUNK_W]
                o_id.append(did)
                o_k.append(k)
                o_n.append(len(piece))
                o_md5.append(hashlib.md5(" ".join(piece).encode("utf-8")).hexdigest())
                k += 1
        return pa.table({
            "doc_id": pa.array(np.asarray(o_id, dtype=np.int64)),
            "chunk_k": pa.array(np.asarray(o_k, dtype=np.int64)),
            "n_tokens": pa.array(np.asarray(o_n, dtype=np.int64)),
            "chunk_md5": pa.array(o_md5, type=pa.string()),
        })

    return ds.map_batches(chunk, batch_format="pyarrow", zero_copy_batch=True)


def sql_chunk_docs() -> str:
    # static chunk-index range (generate_series can't take lateral
    # column parameters — CLAUDE.md); 4096 indices cover ~98k tokens,
    # far above any fixture doc; the filter keeps k*stride < len(w)
    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w
  FROM documents WHERE trim(text) <> ''
),
ks AS (SELECT unnest(generate_series(0, 4095)) AS k)
SELECT doc_id, CAST(k AS BIGINT) AS chunk_k,
  CAST(least({CHUNK_W}, len(w) - k * {CHUNK_S}) AS BIGINT) AS n_tokens,
  md5(array_to_string(w[k * {CHUNK_S} + 1 : k * {CHUNK_S} + {CHUNK_W}], ' '))
    AS chunk_md5
FROM toks, ks
WHERE k * {CHUNK_S} < len(w)
"""


def q_repetition(sf_dir: str):
    """Intra-document repetition score (a standard text-quality gate):
    per doc, the most frequent word 3-gram's share of all 3-grams,
    kept integer-exact as (1000 * max_count) // total.  Pure map —
    the score never looks outside the row."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_m, out_g, out_r = [], [], [], []
        for did, t in zip(ids, batch["text"].to_pylist()):
            toks = t.split()
            g = len(toks) - VOCAB_W + 1
            if g < 1:
                continue  # too short to have a 3-gram (oracle groups nothing)
            c = Counter(
                " ".join(toks[i : i + VOCAB_W]) for i in range(g)
            )
            m = max(c.values())
            out_id.append(int(did))
            out_m.append(m)
            out_g.append(g)
            out_r.append((1000 * m) // g)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "max_count": pa.array(out_m, type=pa.int64()),
                "total_grams": pa.array(out_g, type=pa.int64()),
                "rep_permille": pa.array(out_r, type=pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def sql_repetition() -> str:
    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS w FROM documents
),
sh AS MATERIALIZED (
  SELECT doc_id, array_to_string(w[i : i + {VOCAB_W - 1}], ' ') AS s
  FROM toks, unnest(generate_series(1, len(w) - {VOCAB_W - 1})) AS t(i)
),
cnt AS MATERIALIZED (
  SELECT doc_id, s, COUNT(*) AS c FROM sh GROUP BY doc_id, s
)
SELECT doc_id, CAST(MAX(c) AS BIGINT) AS max_count,
  CAST(SUM(c) AS BIGINT) AS total_grams,
  CAST((1000 * MAX(c)) // SUM(c) AS BIGINT) AS rep_permille
FROM cnt GROUP BY doc_id
"""


def q_lang_id(sf_dir: str):
    from rhealpixdggs_py_ray.ops.text import LangId

    return sizing.stateful_map(
        _docs(sf_dir), LangId, batch_format="pyarrow", zero_copy_batch=True
    )


def sql_lang_id() -> str:
    from rhealpixdggs_py_ray.ops import text

    return text.langid_sql()


def q_quality(sf_dir: str):
    from rhealpixdggs_py_ray.ops.text import QualityScorer

    return sizing.stateful_map(
        _docs(sf_dir), QualityScorer, batch_format="pyarrow", zero_copy_batch=True
    )


def sql_quality() -> str:
    from rhealpixdggs_py_ray.ops import text

    return text.quality_sql()


def q_pack_sequences(sf_dir: str):
    """Sequence packing for LLM training: concatenate the corpus in
    doc_id order and split into fixed PACK_CTX-token context windows;
    emit each doc's global token offset and the pack range it spans.

    This is the canonical DISTRIBUTED PREFIX SCAN: (1) narrow
    (doc_id, n_tokens) map, materialized once; (2) per-range-bucket
    token totals folded on the driver (one tiny row per bucket per
    block — at 100 TB this fold is a tree reduce over ~1e4 bucket
    partials, never the corpus); (3) exclusive prefix over bucket
    totals broadcast via ray.put; (4) ONE order-preserving range
    exchange where each bucket cumsums locally on top of its broadcast
    base.  No global sort, no O(N) driver state."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tok(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = np.array(
            [len(t.split()) for t in batch["text"].to_pylist()], dtype=np.int64
        )
        return pa.table({
            "doc_id": pa.array(did),
            "n_tokens": pa.array(n),
            "bucket": pa.array(did // PACK_BUCKET_W),
        })

    toks = ds.map_batches(
        tok, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # shared by the totals pass and the scan pass

    def bucket_sums(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(b, return_inverse=True)
        s = np.zeros(len(ub), dtype=np.int64)
        np.add.at(s, inv, n)
        return pa.table({"bucket": pa.array(ub), "s": pa.array(s)})

    totals: dict[int, int] = {}
    for bt in toks.map_batches(
        bucket_sums, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        for b, s in zip(
            bt["bucket"].to_numpy(zero_copy_only=False),
            bt["s"].to_numpy(zero_copy_only=False),
        ):
            totals[int(b)] = totals.get(int(b), 0) + int(s)
    base: dict[int, int] = {}
    acc = 0
    for b in sorted(totals):
        base[b] = acc
        acc += totals[b]
    base_ref = ray.put(base)

    def per_bucket(g: pa.Table) -> pa.Table:
        bases = ray.get(base_ref)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        n = g["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.argsort(did)
        did, n = did[order], n[order]
        b0 = int(g["bucket"][0].as_py())
        start = bases[b0] + np.concatenate(([0], np.cumsum(n)[:-1])).astype(np.int64)
        pf = start // PACK_CTX
        pl = np.where(n == 0, pf, (start + np.maximum(n, 1) - 1) // PACK_CTX)
        return pa.table({
            "doc_id": pa.array(did),
            "n_tokens": pa.array(n),
            "start_tok": pa.array(start),
            "pack_first": pa.array(pf),
            "pack_last": pa.array(pl),
        })

    return toks.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_pack_sequences() -> str:
    ntok = (
        "CASE WHEN trim(text) = '' THEN 0"
        " ELSE length(regexp_split_to_array(trim(text), '\\s+')) END"
    )
    return f"""
WITH t AS MATERIALIZED (
  SELECT doc_id, {ntok} AS n FROM documents
),
c AS MATERIALIZED (
  SELECT doc_id, n,
    CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
      AS start_tok
  FROM t
)
SELECT doc_id, CAST(n AS BIGINT) AS n_tokens, start_tok,
  start_tok // {PACK_CTX} AS pack_first,
  CASE WHEN n = 0 THEN start_tok // {PACK_CTX}
    ELSE (start_tok + n - 1) // {PACK_CTX} END AS pack_last
FROM c
"""


def q_bm25_topk(sf_dir: str):
    """BM25 top-k retrieval with INTEGER-EXACT scoring: k1=6/5 and
    b=3/4 are kept rational and avgdl enters as dl*N/T, so the tf
    normalization is one integer division —
      tf_part = (44*T*tf*S1) // (20*T*tf + 6*T + 18*dl*N)
    — and the idf substitute ((N-df)*S2)//(df+1) is integer too: no
    float log anywhere, the oracle replays every division exactly.

    Shape: query-doc terms broadcast (bounded: BM25_NQ docs); pass A
    folds corpus stats (N, T, per-query-term df — bounded by the query
    vocabulary, never the corpus vocabulary) from per-batch partials;
    pass B scores candidates in one map and keeps per-batch partial
    top-k, so the final exchange merges <= K*NQ*n_blocks tiny rows."""
    from collections import Counter

    def q_mask(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(did < BM25_NQ))

    qrows = (
        _read(sf_dir, "documents", columns=["doc_id", "text"], blocks=4)
        .map_batches(q_mask, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    qterms = {int(r["doc_id"]): sorted(set(r["text"].split())) for r in qrows}
    qvocab = sorted({t for ts in qterms.values() for t in ts})
    qv_set = set(qvocab)
    q_ref = ray.put((qterms, qvocab))

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats_partial(batch: pa.Table) -> pa.Table:
        _, qv = ray.get(q_ref)
        qvs = set(qv)
        n_docs = 0
        n_toks = 0
        df: Counter = Counter()
        for did, text in zip(
            batch["doc_id"].to_numpy(zero_copy_only=False),
            batch["text"].to_pylist(),
        ):
            if did < BM25_NQ:
                continue
            toks = text.split()
            if not toks:  # SQL's dl CTE drops token-less docs
                continue
            n_docs += 1
            n_toks += len(toks)
            for t in set(toks) & qvs:
                df[t] += 1
        terms = sorted(df)
        return pa.table({
            "term": pa.array(["\x00N", "\x00T"] + terms, type=pa.string()),
            "n": pa.array(
                np.array([n_docs, n_toks] + [df[t] for t in terms],
                         dtype=np.int64)
            ),
        })

    n_corpus = 0
    t_corpus = 0
    df_map: dict[str, int] = {}
    for bt in ds.map_batches(
        stats_partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        if bt.num_rows == 0:
            continue
        for term, n in zip(bt["term"].to_pylist(),
                           bt["n"].to_numpy(zero_copy_only=False)):
            if term == "\x00N":
                n_corpus += int(n)
            elif term == "\x00T":
                t_corpus += int(n)
            else:
                df_map[term] = df_map.get(term, 0) + int(n)
    stats_ref = ray.put((n_corpus, t_corpus, df_map))

    def score_partial(batch: pa.Table) -> pa.Table:
        qt, _ = ray.get(q_ref)
        N, T, df = ray.get(stats_ref)
        out_q, out_d, out_s = [], [], []
        per_q: dict[int, list[tuple[int, int]]] = {q: [] for q in qt}
        for did, text in zip(
            batch["doc_id"].to_numpy(zero_copy_only=False),
            batch["text"].to_pylist(),
        ):
            if did < BM25_NQ:
                continue
            toks = text.split()
            dl = len(toks)
            tf = Counter(toks)
            for qid, terms in qt.items():
                s = 0
                for t in terms:
                    f = tf.get(t, 0)
                    if not f:
                        continue
                    tf_part = (44 * T * f * BM25_TF_SCALE) // (
                        20 * T * f + 6 * T + 18 * dl * N
                    )
                    idf = ((N - df.get(t, 0)) * BM25_IDF_SCALE) // (
                        df.get(t, 0) + 1
                    )
                    s += tf_part * idf
                if s > 0:
                    per_q[qid].append((int(did), s))
        for qid, rows in per_q.items():
            rows.sort(key=lambda r: (-r[1], r[0]))
            for did, s in rows[:BM25_K]:
                out_q.append(qid)
                out_d.append(did)
                out_s.append(s)
        return pa.table({
            "qid": pa.array(np.array(out_q, dtype=np.int64)),
            "doc_id": pa.array(np.array(out_d, dtype=np.int64)),
            "score": pa.array(np.array(out_s, dtype=np.int64)),
        })

    part = ds.map_batches(
        score_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def final(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        s = g["score"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -s))[:BM25_K]
        return pa.table({
            "qid": g["qid"].take(pa.array(order)),
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            "doc_id": pa.array(d[order]),
            "score": pa.array(s[order]),
        })

    return part.groupby("qid").map_groups(final, batch_format="pyarrow")


def sql_bm25_topk() -> str:
    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS t
  FROM documents WHERE trim(text) <> ''
),
dl AS MATERIALIZED (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM toks
  WHERE doc_id >= {BM25_NQ} GROUP BY doc_id
),
corpus AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(dl) AS BIGINT) AS t FROM dl
),
qterm AS MATERIALIZED (
  SELECT DISTINCT doc_id AS qid, t FROM toks WHERE doc_id < {BM25_NQ}
),
qvocab AS MATERIALIZED (SELECT DISTINCT t FROM qterm),
df AS MATERIALIZED (
  SELECT k.t, CAST(COUNT(DISTINCT k.doc_id) AS BIGINT) AS df
  FROM toks k JOIN qvocab v ON v.t = k.t
  WHERE k.doc_id >= {BM25_NQ} GROUP BY k.t
),
tf AS MATERIALIZED (
  SELECT k.doc_id, k.t, CAST(COUNT(*) AS BIGINT) AS f
  FROM toks k JOIN qvocab v ON v.t = k.t
  WHERE k.doc_id >= {BM25_NQ} GROUP BY k.doc_id, k.t
),
scores AS MATERIALIZED (
  SELECT q.qid, tf.doc_id,
    CAST(SUM(
      ((44 * c.t * tf.f * {BM25_TF_SCALE})
        // (20 * c.t * tf.f + 6 * c.t + 18 * d.dl * c.n))
      * (((c.n - COALESCE(df.df, 0)) * {BM25_IDF_SCALE})
        // (COALESCE(df.df, 0) + 1))
    ) AS BIGINT) AS score
  FROM qterm q
  JOIN tf ON tf.t = q.t
  JOIN dl d ON d.doc_id = tf.doc_id
  LEFT JOIN df ON df.t = q.t
  CROSS JOIN corpus c
  GROUP BY q.qid, tf.doc_id
),
ranked AS (
  SELECT qid, doc_id, score,
    row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id)
      AS rank
  FROM scores WHERE score > 0
)
SELECT qid, CAST(rank AS BIGINT) AS rank, doc_id, score
FROM ranked WHERE rank <= {BM25_K}
"""


def q_ttr(sf_dir: str):
    """Type-token ratio (lexical diversity, a quality gate the float
    entropy score can't beat for oracle-exactness): per doc,
    1000 * distinct_words // words.  Pure map — never a shuffle."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        dids, n_t, n_d, ttr = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_numpy(zero_copy_only=False),
            batch["text"].to_pylist(),
        ):
            toks = text.split()
            if not toks:
                continue
            dids.append(did)
            n_t.append(len(toks))
            n_d.append(len(set(toks)))
            ttr.append(1000 * len(set(toks)) // len(toks))
        return pa.table({
            "doc_id": pa.array(np.array(dids, dtype=np.int64)),
            "n_tokens": pa.array(np.array(n_t, dtype=np.int64)),
            "n_distinct": pa.array(np.array(n_d, dtype=np.int64)),
            "ttr_permille": pa.array(np.array(ttr, dtype=np.int64)),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def sql_ttr() -> str:
    return """
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS t
  FROM documents WHERE trim(text) <> ''
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
  CAST(COUNT(DISTINCT t) AS BIGINT) AS n_distinct,
  1000 * COUNT(DISTINCT t) // COUNT(*) AS ttr_permille
FROM toks GROUP BY doc_id
"""


def q_bpe_pairs(sf_dir: str):
    """The inner loop of BPE tokenizer training: corpus-wide counts of
    ADJACENT token pairs, global top-20 (count DESC, pair ASC).
    Per-batch np.unique partials over the pair strings -> disjoint
    hash-bucket exchange -> exact per-bucket top-k -> tiny final merge
    (the vocab query's bigram sibling; same no-global-sort shape)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        for text in batch["text"].to_pylist():
            toks = text.split()
            for i in range(len(toks) - 1):
                cnt[(toks[i], toks[i + 1])] += 1
        t1 = [k[0] for k in cnt]
        t2 = [k[1] for k in cnt]
        n = np.fromiter(cnt.values(), dtype=np.int64, count=len(cnt))
        bucket = np.fromiter(
            (md5_u64(f"{a}\x01{b}") % n_buckets for a, b in cnt),
            dtype=np.int64, count=len(cnt),
        )
        return pa.table({
            "bucket": pa.array(bucket),
            "t1": pa.array(t1, type=pa.string()),
            "t2": pa.array(t2, type=pa.string()),
            "n": pa.array(n),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        t1 = g["t1"].to_numpy(zero_copy_only=False)
        t2 = g["t2"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        key = np.fromiter(
            (a + "\x01" + b for a, b in zip(t1, t2)), dtype=object, count=len(t1)
        )
        uq, first, inv = np.unique(key, return_index=True, return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, n)
        u1, u2 = t1[first], t2[first]
        order = np.lexsort((u2, u1, -tot))[:BPE_TOPK]
        return pa.table({
            "t1": pa.array(u1[order], type=pa.string()),
            "t2": pa.array(u2[order], type=pa.string()),
            "n": pa.array(tot[order]),
        })

    b = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    parts = b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")

    def final(g: pa.Table) -> pa.Table:
        t1 = g["t1"].to_numpy(zero_copy_only=False)
        t2 = g["t2"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((t2, t1, -n))[:BPE_TOPK]
        return pa.table({
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            "t1": pa.array(t1[order], type=pa.string()),
            "t2": pa.array(t2[order], type=pa.string()),
            "n": pa.array(n[order]),
        })

    return parts.map_batches(
        lambda t: t.append_column("g", pa.array(np.zeros(t.num_rows, dtype=np.int64))),
        batch_format="pyarrow",
    ).groupby("g").map_groups(final, batch_format="pyarrow")


def sql_bpe_pairs() -> str:
    return f"""
WITH toks AS MATERIALIZED (
  SELECT regexp_split_to_array(trim(text), '\\s+') AS w
  FROM documents WHERE trim(text) <> ''
),
pairs AS MATERIALIZED (
  SELECT w[i] AS t1, w[i + 1] AS t2, CAST(COUNT(*) AS BIGINT) AS n
  FROM toks, unnest(generate_series(1, len(w) - 1)) AS g(i)
  GROUP BY 1, 2
)
SELECT CAST(row_number() OVER (ORDER BY n DESC, t1, t2) AS BIGINT) AS rank,
  t1, t2, n
FROM pairs ORDER BY n DESC, t1, t2 LIMIT {BPE_TOPK}
"""


def q_pii_redact(sf_dir: str):
    """PII redaction over documents (engine-only LLM-pipeline op).

    The synthetic corpus carries no PII, so the stage first APPENDS
    deterministic doc_id-derived PII spans (emails x (doc_id%3),
    a phone on even ids, an IPv4 always — integer arithmetic only, so
    the SQL oracle rebuilds the identical augmented text), then runs
    the real operator under test: RE2 count + chained typed-token
    scrub (ops/text.py:pii_counts/pii_redact, vectorized Arrow
    kernels), and an order-free u64-wraparound md5 checksum of the
    scrubbed text proving the redacted bytes match DuckDB's
    regexp_replace chain exactly.  Partials per (batch, lang);
    one tiny exchange."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64_many
    from rhealpixdggs_py_ray.ops.text import pii_counts, pii_redact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def scrub(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        aug = []
        for i, t in zip(did, texts):
            i = int(i)
            parts = [t, " contact",
                     (" u%d@m%d.example.com" % (i, i % 7)) * (i % 3)]
            if i % 2 == 0:
                parts.append(" or +1 %d %d %d" % (
                    100 + i % 900, 200 + i % 800, 1000 + i % 9000))
            parts.append(" from %d.%d.%d.%d" % (
                i % 256, (i // 256) % 256, (i // 7) % 256, i % 254 + 1))
            aug.append("".join(parts))
        arr = pa.array(aug, type=pa.string())
        ne, np_, ni = pii_counts(arr)
        red = pii_redact(arr).to_pylist()
        h = md5_u64_many([f"{int(i)}|{r}" for i, r in zip(did, red)])
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        lu, li = np.unique(lang, return_inverse=True)
        n = np.bincount(li).astype(np.int64)
        sums = []
        for col in (ne, np_, ni):
            s = np.zeros(len(lu), dtype=np.int64)
            np.add.at(s, li, col)
            sums.append(s)
        chk = np.zeros(len(lu), dtype=np.uint64)
        np.add.at(chk, li, h)  # wraps mod 2^64, commutative
        return pa.table({
            "lang": pa.array(lu.tolist(), type=pa.string()),
            "n_docs": pa.array(n),
            "n_email": pa.array(sums[0]),
            "n_phone": pa.array(sums[1]),
            "n_ip": pa.array(sums[2]),
            "chk": pa.array(chk, type=pa.uint64()),
        })

    part = ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)

    def resolve(g: pa.Table) -> pa.Table:
        chk = np.add.reduce(
            g["chk"].to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        out = {
            "lang": g["lang"].slice(0, 1),
            "n_docs": pa.array([int(np.sum(g["n_docs"].to_numpy()))], type=pa.int64()),
        }
        for c in ("n_email", "n_phone", "n_ip"):
            out[c] = pa.array([int(np.sum(g[c].to_numpy()))], type=pa.int64())
        out["chk_hi"] = pa.array([int(chk >> np.uint64(32))], type=pa.int64())
        out["chk_lo"] = pa.array([int(chk & np.uint64(0xFFFFFFFF))], type=pa.int64())
        return pa.table(out)

    return part.groupby("lang").map_groups(resolve, batch_format="pyarrow")


def sql_pii_redact() -> str:
    from rhealpixdggs_py_ray.ops.text import PII_CHAIN

    m = "18446744073709551616"  # 2^64
    aug = (
        "text || ' contact'"
        " || repeat(' u' || CAST(doc_id AS VARCHAR) || '@m'"
        "   || CAST(doc_id % 7 AS VARCHAR) || '.example.com',"
        "   CAST(doc_id % 3 AS INTEGER))"
        " || CASE WHEN doc_id % 2 = 0 THEN ' or +1 '"
        "   || CAST(100 + doc_id % 900 AS VARCHAR) || ' '"
        "   || CAST(200 + doc_id % 800 AS VARCHAR) || ' '"
        "   || CAST(1000 + doc_id % 9000 AS VARCHAR) ELSE '' END"
        " || ' from ' || CAST(doc_id % 256 AS VARCHAR)"
        " || '.' || CAST((doc_id // 256) % 256 AS VARCHAR)"
        " || '.' || CAST((doc_id // 7) % 256 AS VARCHAR)"
        " || '.' || CAST(doc_id % 254 + 1 AS VARCHAR)"
    )
    red = "t"
    for pat, tok in PII_CHAIN:
        red = f"regexp_replace({red}, '{pat}', '{tok}', 'g')"
    counts = ", ".join(
        f"len(regexp_extract_all(t, '{pat}')) AS c{i}"
        for i, (pat, _) in enumerate(PII_CHAIN)
    )
    return f"""
WITH aug AS MATERIALIZED (
  SELECT doc_id, lang, {aug} AS t FROM documents
),
red AS MATERIALIZED (
  SELECT doc_id, lang, {counts}, {red} AS rt FROM aug
)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(c0) AS BIGINT) AS n_email,
  CAST(SUM(c1) AS BIGINT) AS n_phone,
  CAST(SUM(c2) AS BIGINT) AS n_ip,
  CAST((SUM(CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || '|' || rt)
    AS HUGEINT)) % {m}) // 4294967296 AS BIGINT) AS chk_hi,
  CAST((SUM(CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || '|' || rt)
    AS HUGEINT)) % {m}) % 4294967296 AS BIGINT) AS chk_lo
FROM red GROUP BY lang
"""


def q_oov_rate(sf_dir: str):
    """LM-style data-quality score: per-doc out-of-vocabulary token
    ratio against the global top-K unigram vocabulary.  Pass 1 builds
    the vocab with the np.unique-partial -> disjoint-hash-bucket
    pattern (exact counts, bounded K result); pass 2 broadcasts the
    K-word set and scores every doc map-only.  Output (doc_id, total,
    oov, oov_micros); empty docs score 0."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    nb = 16

    def partial(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch["text"].to_pylist():
            toks.extend(t.split())
        if not toks:
            return pa.table({"s": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "bucket": pa.array([], type=pa.int64())})
        uq, cnt = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        bucket = (pd.util.hash_array(uq) % np.uint64(nb)).astype(np.int64)
        return pa.table({"s": pa.array(uq, type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64)),
                         "bucket": pa.array(bucket)})

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "s" not in g.column_names:
            return pa.table({"s": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        uq, inv = np.unique(g["s"].to_numpy(zero_copy_only=False),
                            return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, g["n"].to_numpy(zero_copy_only=False))
        order = np.lexsort((uq, -tot))[:OOV_K]
        return pa.table({"s": pa.array(uq[order], type=pa.string()),
                         "n": pa.array(tot[order])})

    cand = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    ).to_pandas()  # bounded: <= nb * K rows
    s = cand["s"].to_numpy()
    n = cand["n"].to_numpy()
    order = np.lexsort((s, -n))[:OOV_K]
    vocab_ref = ray.put(frozenset(s[order].tolist()))

    def score(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        out_t, out_o = [], []
        for t in batch["text"].to_pylist():
            toks = t.split()
            out_t.append(len(toks))
            out_o.append(sum(1 for w in toks if w not in vocab))
        total = np.array(out_t, dtype=np.int64)
        oov = np.array(out_o, dtype=np.int64)
        safe = np.maximum(total, 1)
        micros = np.floor(
            oov.astype(np.float64) / safe.astype(np.float64) * 1000000.0
        ).astype(np.int64)
        micros[total == 0] = 0
        return pa.table({
            "doc_id": batch["doc_id"],
            "total": pa.array(total),
            "oov": pa.array(oov),
            "oov_micros": pa.array(micros),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def sql_oov_rate() -> str:
    return f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS w
  FROM documents WHERE len(trim(text)) > 0
),
cnt AS MATERIALIZED (SELECT w, COUNT(*) AS c FROM toks GROUP BY w),
topk AS MATERIALIZED (
  SELECT w FROM cnt QUALIFY row_number() OVER (ORDER BY c DESC, w) <= {OOV_K}
),
per AS MATERIALIZED (
  SELECT t.doc_id, COUNT(*) AS total,
    SUM(CASE WHEN k.w IS NULL THEN 1 ELSE 0 END) AS oov
  FROM toks t LEFT JOIN topk k ON t.w = k.w
  GROUP BY t.doc_id
)
SELECT d.doc_id,
  CAST(coalesce(per.total, 0) AS BIGINT) AS total,
  CAST(coalesce(per.oov, 0) AS BIGINT) AS oov,
  CAST(CASE WHEN per.total IS NULL THEN 0
       ELSE floor(CAST(per.oov AS DOUBLE) / per.total * 1000000.0)
       END AS BIGINT) AS oov_micros
FROM documents d LEFT JOIN per ON d.doc_id = per.doc_id
"""


def q_topic_tag(sf_dir: str):
    """Dictionary topic classifier (the seeded-keyword corpus router):
    per doc, count whole-word hits of each topic's keyword list (RE2
    word-boundary counts — Arrow and DuckDB bind the same regex
    engine), assign the argmax topic (ties -> dictionary order), or
    'none' when nothing hits.  Map-only.  Output (doc_id, topic,
    n_hits)."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tag(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        hits = np.zeros((n, len(TOPIC_DICT)), dtype=np.int64)
        for ti, (_t, words) in enumerate(TOPIC_DICT):
            for w in words:
                hits[:, ti] += pc.count_substring_regex(
                    batch["text"], rf"\b{w}\b").to_numpy(zero_copy_only=False)
        best = np.argmax(hits, axis=1)  # first max == dictionary order
        n_hits = hits[np.arange(n), best]
        topics = np.array([t for t, _ in TOPIC_DICT], dtype=object)[best]
        topics = np.where(n_hits > 0, topics, "none")
        return pa.table({
            "doc_id": batch["doc_id"],
            "topic": pa.array(topics.astype(str), type=pa.string()),
            "n_hits": pa.array(n_hits),
        })

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def sql_topic_tag() -> str:
    cols = []
    for ti, (_t, words) in enumerate(TOPIC_DICT):
        terms = " + ".join(
            f"len(regexp_extract_all(text, '\\b{w}\\b'))" for w in words)
        cols.append(f"({terms}) AS h{ti}")
    case = "CASE "
    for ti, (t, _w) in enumerate(TOPIC_DICT):
        others = " AND ".join(
            f"h{ti} >= h{tj}" for tj in range(len(TOPIC_DICT)) if tj != ti)
        prior = " AND ".join(
            f"h{ti} > h{tj}" for tj in range(ti))
        cond = others if not prior else f"{others} AND {prior}"
        # argmax with first-wins ties: topic ti wins iff >= all and
        # strictly greater than every EARLIER topic
        case += f"WHEN {cond} THEN '{t}' "
    case += "END"
    hits_max = "greatest(" + ", ".join(
        f"h{ti}" for ti in range(len(TOPIC_DICT))) + ")"
    return f"""
WITH th AS MATERIALIZED (
  SELECT doc_id, {', '.join(cols)} FROM documents
)
SELECT doc_id,
  CASE WHEN {hits_max} > 0 THEN {case} ELSE 'none' END AS topic,
  CAST({hits_max} AS BIGINT) AS n_hits
FROM th
"""


def q_gopher_rules(sf_dir: str):
    """Gopher/C4-style composite quality gate (Rae et al. 2021 §A1.1
    repertoire, re-expressed with exact-integer rules so the oracle is
    bit-free): per doc — word count in [3, 10000]; mean word length in
    [3, 10] (as 3*n_words <= n_word_chars <= 10*n_words, no float
    division); symbol-to-word ratio <= 0.1 (10*(n_hash + n_ellipsis)
    <= n_words); >= 80 % of words contain an alphabetic char
    (5*n_alpha_words >= 4*n_words); and at least 2 distinct stopwords
    present.  Pure map over documents.  Output (doc_id, n_words, five
    rule flags, pass_gate)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def gate(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        n_words = np.zeros(n, dtype=np.int64)
        n_wchars = np.zeros(n, dtype=np.int64)
        n_sym = np.zeros(n, dtype=np.int64)
        n_alpha = np.zeros(n, dtype=np.int64)
        n_stop = np.zeros(n, dtype=np.int64)
        for i, t in enumerate(texts):
            toks = t.split()
            n_words[i] = len(toks)
            n_wchars[i] = sum(len(w) for w in toks)
            n_sym[i] = t.count("#") + t.count("...")
            n_alpha[i] = sum(
                1 for w in toks
                if any(("a" <= c <= "z") or ("A" <= c <= "Z") for c in w))
            padded = f" {t} "
            n_stop[i] = sum(1 for w in GOPHER_STOPWORDS if f" {w} " in padded)
        r_words = ((n_words >= 3) & (n_words <= 10000)).astype(np.int64)
        r_mean = ((3 * n_words <= n_wchars)
                  & (n_wchars <= 10 * n_words)).astype(np.int64)
        r_symbol = (10 * n_sym <= n_words).astype(np.int64)
        r_alpha = (5 * n_alpha >= 4 * n_words).astype(np.int64)
        r_stop = (n_stop >= 2).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words),
            "r_words": pa.array(r_words),
            "r_mean": pa.array(r_mean),
            "r_symbol": pa.array(r_symbol),
            "r_alpha": pa.array(r_alpha),
            "r_stop": pa.array(r_stop),
            "pass_gate": pa.array(
                r_words & r_mean & r_symbol & r_alpha & r_stop),
        })

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def sql_gopher_rules() -> str:
    stop = " + ".join(
        f"CASE WHEN contains(p, ' {w} ') THEN 1 ELSE 0 END"
        for w in GOPHER_STOPWORDS)
    nw = ("CASE WHEN trim(text) = '' THEN 0 ELSE"
          " CAST(length(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT)"
          " END")
    nalpha = ("CASE WHEN trim(text) = '' THEN 0 ELSE"
              " CAST(length(list_filter(regexp_split_to_array(trim(text),"
              " '\\s+'), w -> regexp_matches(w, '[a-zA-Z]'))) AS BIGINT) END")
    return f"""
WITH p AS MATERIALIZED (
  SELECT doc_id, text, ' ' || text || ' ' AS p FROM documents
), f AS MATERIALIZED (
  SELECT doc_id,
    {nw} AS n_words,
    CAST(length(regexp_replace(text, '\\s', '', 'g')) AS BIGINT) AS n_wchars,
    CAST(length(text) - length(replace(text, '#', '')) AS BIGINT)
      + CAST((length(text) - length(replace(text, '...', ''))) // 3 AS BIGINT)
      AS n_sym,
    {nalpha} AS n_alpha,
    CAST({stop} AS BIGINT) AS n_stop
  FROM p
), r AS MATERIALIZED (
  SELECT doc_id, n_words,
    CASE WHEN n_words >= 3 AND n_words <= 10000 THEN 1 ELSE 0 END AS r_words,
    CASE WHEN 3 * n_words <= n_wchars AND n_wchars <= 10 * n_words
      THEN 1 ELSE 0 END AS r_mean,
    CASE WHEN 10 * n_sym <= n_words THEN 1 ELSE 0 END AS r_symbol,
    CASE WHEN 5 * n_alpha >= 4 * n_words THEN 1 ELSE 0 END AS r_alpha,
    CASE WHEN n_stop >= 2 THEN 1 ELSE 0 END AS r_stop
  FROM f
)
SELECT doc_id, n_words,
  CAST(r_words AS BIGINT) AS r_words, CAST(r_mean AS BIGINT) AS r_mean,
  CAST(r_symbol AS BIGINT) AS r_symbol, CAST(r_alpha AS BIGINT) AS r_alpha,
  CAST(r_stop AS BIGINT) AS r_stop,
  CAST(r_words * r_mean * r_symbol * r_alpha * r_stop AS BIGINT) AS pass_gate
FROM r
"""


def q_bigram_score(sf_dir: str):
    """Corpus bigram language-model scoring (the perplexity-filter
    shape of CCNet/Gopher, with an exact-integer likelihood instead of
    a float log-prob): train char-bigram counts over the WHOLE corpus
    (one bounded exchange), broadcast the model via ray.put, then a
    pure map scores every doc as the order-free integer sum of q(b)
    over its bigram occurrences.  Output (doc_id, n_bigrams, score)."""
    keys, q = _train_bigram_lm(sf_dir)
    model_ref = ray.put((keys, q))
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        mkeys, mq = ray.get(model_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        di, bg = _bigram_pairs(batch["text"].to_pylist())
        pos = np.searchsorted(mkeys, bg)  # every bigram is in-corpus
        n_bg = np.zeros(len(ids), dtype=np.int64)
        np.add.at(n_bg, di, 1)
        sc = np.zeros(len(ids), dtype=np.int64)
        np.add.at(sc, di, mq[pos])
        return pa.table({
            "doc_id": pa.array(ids),
            "n_bigrams": pa.array(n_bg),
            "score": pa.array(sc),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def sql_bigram_score() -> str:
    return f"""
WITH bg AS MATERIALIZED (
  SELECT doc_id,
    unnest([substr(text, i, 2) for i in generate_series(1, length(text) - 1)])
      AS b
  FROM documents WHERE length(text) >= 2
), cb AS MATERIALIZED (
  SELECT b, CAST(COUNT(*) AS BIGINT) AS nb FROM bg GROUP BY b
), cf AS MATERIALIZED (
  SELECT substr(b, 1, 1) AS c, CAST(SUM(nb) AS BIGINT) AS nf
  FROM cb GROUP BY substr(b, 1, 1)
), qt AS MATERIALIZED (
  SELECT b, ({BG_SCALE} * nb) // nf AS qv
  FROM cb JOIN cf ON substr(cb.b, 1, 1) = cf.c
), sc AS MATERIALIZED (
  SELECT bg.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
    CAST(SUM(qv) AS BIGINT) AS score
  FROM bg JOIN qt USING (b) GROUP BY bg.doc_id
)
SELECT d.doc_id,
  COALESCE(sc.n_bigrams, 0) AS n_bigrams,
  COALESCE(sc.score, 0) AS score
FROM documents d LEFT JOIN sc ON d.doc_id = sc.doc_id
"""


def q_char_diversity(sf_dir: str):
    """Per-doc character diversity (the gibberish / low-entropy text
    filter, with Gini impurity instead of Shannon entropy so the
    number is a RATIONAL of exact integers — log2 differs by ulps
    between numpy and DuckDB and can flip a floor boundary): distinct
    char count, top char frequency, and gini_e9 = (n^2 - sum cnt^2)
    * 1e9 // n^2.  Pure map.  Output (doc_id, n_distinct, top_cnt,
    gini_e9)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def div(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        nd = np.zeros(len(texts), dtype=np.int64)
        top = np.zeros(len(texts), dtype=np.int64)
        gini = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            if not t:
                continue
            codes = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            _u, cnt = np.unique(codes, return_counts=True)
            n = np.int64(len(codes))
            nd[i] = len(cnt)
            top[i] = cnt.max()
            s2 = np.int64((cnt.astype(np.int64) ** 2).sum())
            gini[i] = ((n * n - s2) * 1_000_000_000) // (n * n)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_distinct": pa.array(nd),
            "top_cnt": pa.array(top),
            "gini_e9": pa.array(gini),
        })

    return ds.map_batches(div, batch_format="pyarrow", zero_copy_batch=True)


def sql_char_diversity() -> str:
    return """
WITH chd AS MATERIALIZED (
  SELECT doc_id,
    unnest([substr(text, i, 1) for i in generate_series(1, length(text))]) AS c
  FROM documents WHERE length(text) > 0
), ccd AS MATERIALIZED (
  SELECT doc_id, c, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM chd GROUP BY doc_id, c
), agd AS MATERIALIZED (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_distinct,
    CAST(MAX(cnt) AS BIGINT) AS top_cnt,
    CAST(SUM(cnt * cnt) AS BIGINT) AS s2, CAST(SUM(cnt) AS BIGINT) AS n
  FROM ccd GROUP BY doc_id
)
SELECT d.doc_id,
  COALESCE(a.n_distinct, 0) AS n_distinct,
  COALESCE(a.top_cnt, 0) AS top_cnt,
  COALESCE(((a.n * a.n - a.s2) * 1000000000) // (a.n * a.n), 0) AS gini_e9
FROM documents d LEFT JOIN agd a ON a.doc_id = d.doc_id
"""


def q_inverted_index(sf_dir: str):
    """Inverted-index build (the search-engine indexing shape): per
    term — document frequency, total term frequency, and an ORDER-FREE
    posting-list fingerprint (uint64-wraparound sum of
    md5_u64('term:doc:tf') over its postings, split hi/lo), so two
    index replicas compare per-term without shipping postings.
    Per-batch partials collapse each batch's (term, doc, tf) postings
    to one row per term before the single term-bucket exchange — the
    posting table itself never shuffles.  Output (term, df, tf,
    chk_hi, chk_lo)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    M64 = np.uint64(0xFFFFFFFFFFFFFFFF)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        df: dict[str, int] = {}
        tf: dict[str, int] = {}
        chk: dict[str, int] = {}
        for did, t in zip(ids, batch["text"].to_pylist()):
            toks = t.split()
            if not toks:
                continue
            uq, cnt = np.unique(np.asarray(toks, dtype=object),
                                return_counts=True)
            for w, c in zip(uq, cnt):
                df[w] = df.get(w, 0) + 1
                tf[w] = tf.get(w, 0) + int(c)
                h = md5_u64(f"{w}:{int(did)}:{int(c)}")
                chk[w] = (chk.get(w, 0) + h) & 0xFFFFFFFFFFFFFFFF
        terms = np.array(sorted(df.keys()), dtype=object)
        bucket = (pd.util.hash_array(terms) % VOCAB_BUCKETS).astype(np.int64) \
            if len(terms) else np.array([], dtype=np.int64)
        return pa.table({
            "bucket": pa.array(bucket),
            "term": pa.array(terms, type=pa.string()),
            "df": pa.array(np.array([df[w] for w in terms], dtype=np.int64)),
            "tf": pa.array(np.array([tf[w] for w in terms], dtype=np.int64)),
            "chk": pa.array(np.array([chk[w] for w in terms],
                                     dtype=np.uint64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        cols = {"term": pa.string(), "df": pa.int64(), "tf": pa.int64(),
                "chk_hi": pa.int64(), "chk_lo": pa.int64()}
        if g.num_rows == 0 or "term" not in g.column_names:
            return pa.table({c: pa.array([], type=t) for c, t in cols.items()})
        terms = g["term"].to_numpy(zero_copy_only=False)
        uq, inv = np.unique(terms, return_inverse=True)
        df = np.zeros(len(uq), dtype=np.int64)
        tf = np.zeros(len(uq), dtype=np.int64)
        chk = np.zeros(len(uq), dtype=np.uint64)
        np.add.at(df, inv, g["df"].to_numpy(zero_copy_only=False))
        np.add.at(tf, inv, g["tf"].to_numpy(zero_copy_only=False))
        np.add.at(chk, inv,
                  g["chk"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return pa.table({
            "term": pa.array(uq, type=pa.string()),
            "df": pa.array(df), "tf": pa.array(tf),
            "chk_hi": pa.array((chk >> np.uint64(32)).astype(np.int64)),
            "chk_lo": pa.array((chk & np.uint64(0xFFFFFFFF)).astype(np.int64)),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_inverted_index() -> str:
    m = str(1 << 64)
    return f"""
WITH iitok AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\\s+')) AS term
  FROM documents WHERE trim(text) <> ''
), iipost AS MATERIALIZED (
  SELECT term, doc_id, CAST(COUNT(*) AS BIGINT) AS tf
  FROM iitok GROUP BY term, doc_id
), iih AS MATERIALIZED (
  SELECT term, doc_id, tf,
    md5_number_lower(term || ':' || CAST(doc_id AS VARCHAR)
      || ':' || CAST(tf AS VARCHAR)) AS h
  FROM iipost
)
SELECT term,
  CAST(COUNT(*) AS BIGINT) AS df,
  CAST(SUM(tf) AS BIGINT) AS tf,
  CAST((SUM(CAST(h AS HUGEINT)) % {m}) // 4294967296 AS BIGINT) AS chk_hi,
  CAST((SUM(CAST(h AS HUGEINT)) % {m}) % 4294967296 AS BIGINT) AS chk_lo
FROM iih GROUP BY term
"""


def q_zipf_slope(sf_dir: str):
    """Corpus naturalness check: least-squares slope of ln(freq) vs
    ln(rank) over the top-ZIPF_K word bigrams (count DESC, gram ASC) —
    natural text sits near -1.  ln is bit-identical libm both sides;
    each term quantizes to integer micros BEFORE the sums, and the
    bignum regression (driver Python ints / SQL HUGEINT — the sums
    overflow int64 by design) is exact on both sides.  Distributed
    shape: vocab-style disjoint-bucket exact top-K, tiny driver
    finish.  Output one row (k, slope_e6, intercept_e6)."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        for t in batch["text"].to_pylist():
            toks = t.split()
            grams.extend(" ".join(toks[i:i + 2])
                         for i in range(len(toks) - 1))
        if not grams:
            return pa.table({"s": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "bucket": pa.array([], type=pa.int64())})
        uq, cnt = np.unique(np.asarray(grams, dtype=object),
                            return_counts=True)
        bucket = (pd.util.hash_array(uq) % 8).astype(np.int64)
        return pa.table({"s": pa.array(uq, type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64)),
                         "bucket": pa.array(bucket)})

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "s" not in g.column_names:
            return pa.table({"s": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        uq, inv = np.unique(g["s"].to_numpy(zero_copy_only=False),
                            return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, g["n"].to_numpy(zero_copy_only=False))
        order = np.lexsort((uq, -tot))[:ZIPF_K]
        return pa.table({"s": pa.array(uq[order], type=pa.string()),
                         "n": pa.array(tot[order])})

    folded = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")
    )
    s_all, n_all = [], []
    for b in folded.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            s_all.extend(b["s"].to_pylist())
            n_all.extend(b["n"].to_pylist())
    order = sorted(range(len(s_all)), key=lambda i: (-n_all[i], s_all[i]))
    order = order[:ZIPF_K]
    k = len(order)
    # exact bignum regression over quantized ln terms
    import math
    Sx = Sy = Sxx = Sxy = 0
    for rank, i in enumerate(order, start=1):
        x = math.floor(math.log(float(rank)) * 1_000_000)
        y = math.floor(math.log(float(n_all[i])) * 1_000_000)
        Sx += x
        Sy += y
        Sxx += x * x
        Sxy += x * y
    den = k * Sxx - Sx * Sx
    num = k * Sxy - Sx * Sy

    def tdiv(a: int, b: int) -> int:
        # DuckDB integer // truncates toward zero; Python floors —
        # mirror DuckDB (the CLAUDE.md negative-mod rule, division form)
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    slope_e6 = tdiv(num * 1_000_000, den) if den else 0
    intercept_e6 = tdiv(Sy - tdiv(slope_e6 * Sx, 1_000_000), k)
    return pa.table({
        "k": pa.array([k], type=pa.int64()),
        "slope_e6": pa.array([slope_e6], type=pa.int64()),
        "intercept_e6": pa.array([intercept_e6], type=pa.int64()),
    })


def sql_zipf_slope() -> str:
    return f"""
WITH zpt AS MATERIALIZED (
  SELECT string_split(text, ' ') AS toks FROM documents
),
zpg AS MATERIALIZED (
  SELECT toks[i] || ' ' || toks[i + 1] AS s
  FROM (SELECT toks, unnest(generate_series(1, len(toks) - 1)) AS i FROM zpt)
),
zpc AS MATERIALIZED (
  SELECT s, CAST(COUNT(*) AS BIGINT) AS n FROM zpg GROUP BY 1
),
zpr AS MATERIALIZED (
  SELECT s, n, row_number() OVER (ORDER BY n DESC, s ASC) AS rank
  FROM zpc QUALIFY rank <= {ZIPF_K}
),
zpq AS MATERIALIZED (
  SELECT CAST(floor(ln(CAST(rank AS DOUBLE)) * 1000000.0) AS HUGEINT) AS x,
    CAST(floor(ln(CAST(n AS DOUBLE)) * 1000000.0) AS HUGEINT) AS y
  FROM zpr
),
zps AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS k, SUM(x) AS sx, SUM(y) AS sy,
    SUM(x * x) AS sxx, SUM(x * y) AS sxy
  FROM zpq
)
SELECT CAST(k AS BIGINT) AS k,
  CAST((k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx) AS BIGINT)
    AS slope_e6,
  CAST((sy - ((k * sxy - sx * sy) * 1000000 // (k * sxx - sx * sx))
    * sx // 1000000) // k AS BIGINT) AS intercept_e6
FROM zps
"""


def q_attribution(sf_dir: str):
    """Marketing attribution: each purchase is credited to the same
    user's most recent PRIOR click within ATTR_T_S seconds (order by
    ts, event_id; the strictly-earlier rule of colocation_pairs).
    ONE h(user) bucket exchange; inside each group a vectorized
    running-last-click scan (np.maximum.accumulate over click
    positions) attributes every purchase in O(n).  Output
    (event_id, click_event_id, dt_us) for attributed purchases."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    T_us = ATTR_T_S * 1_000_000
    n_buckets = sizing.exchange_buckets(16)
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"], blocks=4)

    def tag(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        b = batch.filter(pa.array(keep))
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        ts = (b["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(uid, n_buckets)),
            "uid": pa.array(uid.astype(np.int64)),
            "t": pa.array(ts),
            "eid": pa.array(b["event_id"].to_numpy(zero_copy_only=False)
                            .astype(np.int64)),
            "is_click": pa.array(
                (b["event_type"].to_numpy(zero_copy_only=False)
                 == "click").astype(np.int64)),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                          "click_event_id": pa.array([], type=pa.int64()),
                          "dt_us": pa.array([], type=pa.int64())})
        if g.num_rows == 0 or "uid" not in g.column_names:
            return empty
        uid = g["uid"].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        ic = g["is_click"].to_numpy(zero_copy_only=False).astype(bool)
        order = np.lexsort((eid, t, uid))
        uid, t, eid, ic = uid[order], t[order], eid[order], ic[order]
        idx = np.arange(len(uid))
        last_click = np.maximum.accumulate(np.where(ic, idx, -1))
        isp = ~ic
        j = last_click[isp]
        ok = j >= 0
        pi = idx[isp][ok]
        j = j[ok]
        ok2 = (uid[j] == uid[pi]) & (t[pi] - t[j] <= T_us)
        pi, j = pi[ok2], j[ok2]
        return pa.table({
            "event_id": pa.array(eid[pi]),
            "click_event_id": pa.array(eid[j]),
            "dt_us": pa.array(t[pi] - t[j]),
        })

    b = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return b.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")


def sql_attribution() -> str:
    T_us = ATTR_T_S * 1_000_000
    return f"""
WITH ate AS MATERIALIZED (
  SELECT event_id, user_id, ts, event_type FROM events
  WHERE event_type IN ('click', 'purchase')
)
SELECT p.event_id, c.event_id AS click_event_id,
  epoch_us(p.ts) - epoch_us(c.ts) AS dt_us
FROM ate p JOIN ate c
  ON c.user_id = p.user_id AND c.event_type = 'click'
  AND (c.ts < p.ts OR (c.ts = p.ts AND c.event_id < p.event_id))
  AND epoch_us(p.ts) - epoch_us(c.ts) <= {T_us}
WHERE p.event_type = 'purchase'
QUALIFY row_number() OVER (
  PARTITION BY p.event_id ORDER BY c.ts DESC, c.event_id DESC) = 1
"""


# ---------------------------------------------------------------------------
# Round 4e: readability scoring + multinomial naive-Bayes language model
# ---------------------------------------------------------------------------


def q_readability(sf_dir: str):
    """Flesch-style readability score per document — the classic text
    quality gate: words = RE2 '\\S+' matches, syllable proxy = vowel
    groups '[aeiou]+' (both Arrow count_substring_regex, byte-parity
    with DuckDB regexp_extract_all — the pii_redact precedent),
    sentences = max(1, words // 15) (synthetic corpus has no sentence
    punctuation; the chunk rule is pinned in the contract).  Score =
    206.835 - 1.015*(w/s) - 84.6*(syl/w), an exact float tree over
    <2^53 integers with repr-crossed constants.  Pure vectorized map,
    never a shuffle.  Output (doc_id, n_words, n_syll, fre_e3)."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        w = pc.count_substring_regex(txt, r"\S+").to_numpy(
            zero_copy_only=False).astype(np.int64)
        syl = pc.count_substring_regex(txt, "[aeiou]+").to_numpy(
            zero_copy_only=False).astype(np.int64)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        m = w > 0
        w, syl, did = w[m], syl[m], did[m]
        s = np.maximum(1, w // 15)
        fre = (206.835 - 1.015 * (w.astype(np.float64) / s.astype(np.float64))
               - 84.6 * (syl.astype(np.float64) / w.astype(np.float64)))
        return pa.table({
            "doc_id": pa.array(did),
            "n_words": pa.array(w),
            "n_syll": pa.array(syl),
            "fre_e3": pa.array(np.floor(fre * 1000.0).astype(np.int64)),
        })

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def sql_readability() -> str:
    return f"""
WITH rdb AS MATERIALIZED (
  SELECT doc_id,
    CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_words,
    CAST(length(regexp_extract_all(text, '[aeiou]+')) AS BIGINT) AS n_syll
  FROM documents
)
SELECT doc_id, n_words, n_syll,
  CAST(floor(({oracle._lit(206.835)}
    - {oracle._lit(1.015)} * (CAST(n_words AS DOUBLE)
        / CAST(greatest(1, n_words // 15) AS DOUBLE))
    - {oracle._lit(84.6)} * (CAST(n_syll AS DOUBLE)
        / CAST(n_words AS DOUBLE))) * 1000.0) AS BIGINT) AS fre_e3
FROM rdb WHERE n_words > 0
"""


def q_naive_bayes(sf_dir: str):
    """Per-doc NB prediction view over the shared scored set (see
    _nb_scored).  Output (doc_id, pred_lang, score_e12, is_correct)."""

    def view(batch: pa.Table) -> pa.Table:
        ok = pa.array(
            (np.asarray(batch["true_lang"].to_pylist(), dtype=object)
             == np.asarray(batch["pred_lang"].to_pylist(),
                           dtype=object)).astype(np.int64))
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred_lang": batch["pred_lang"],
            "score_e12": batch["score_e12"],
            "is_correct": ok,
        })

    return _nb_scored(sf_dir).map_batches(
        view, batch_format="pyarrow", zero_copy_batch=True)


def q_nb_confusion(sf_dir: str):
    """Confusion matrix of the NB classifier (the eval companion —
    per (true_lang, pred_lang) doc counts, zero cells omitted like
    every GROUP BY).  Tiny driver fold over per-batch np.unique
    partials: at most |langs|^2 keys, no exchange.
    Output (true_lang, pred_lang, n)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch["true_lang"].to_pylist(), dtype=object)
        pr = np.asarray(batch["pred_lang"].to_pylist(), dtype=object)
        key = np.array([a + "\x00" + b for a, b in zip(t, pr)],
                       dtype=object)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in _nb_scored(sf_dir).map_batches(
            partial, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        for k, n in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(n)
    ks = sorted(acc)
    return pa.table({
        "true_lang": pa.array([k.split("\x00")[0] for k in ks],
                              type=pa.string()),
        "pred_lang": pa.array([k.split("\x00")[1] for k in ks],
                              type=pa.string()),
        "n": pa.array([acc[k] for k in ks], type=pa.int64()),
    })


def sql_naive_bayes() -> str:
    return """
WITH nbd AS MATERIALIZED (
  SELECT doc_id, lang, string_split(text, ' ') AS toks FROM documents
),
nbt AS MATERIALIZED (
  SELECT doc_id, lang, unnest(toks) AS token FROM nbd
),
nbtok AS MATERIALIZED (
  SELECT doc_id, lang, token FROM nbt WHERE trim(token) <> ''
),
nbcnt AS MATERIALIZED (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS c
  FROM nbtok GROUP BY lang, token
),
nbvoc AS MATERIALIZED (
  SELECT COUNT(DISTINCT token) AS V FROM nbtok
),
nbtot AS MATERIALIZED (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS tot FROM nbtok GROUP BY lang
),
nbpri AS MATERIALIZED (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS nd FROM documents GROUP BY lang
),
nball AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS na FROM documents
),
nblp AS MATERIALIZED (
  -- quantized log-prob for every (lang, token) in the vocab, plus the
  -- smoothing denominator per lang for unknown handling
  SELECT t.lang, v.token,
    CAST(floor(ln(CAST(COALESCE(c.c, 0) + 1 AS DOUBLE)
      / CAST(t.tot + vv.V AS DOUBLE)) * 1000000000000.0) AS BIGINT) AS lp
  FROM nbtot t
  CROSS JOIN (SELECT DISTINCT token FROM nbtok) v
  CROSS JOIN nbvoc vv
  LEFT JOIN nbcnt c ON c.lang = t.lang AND c.token = v.token
),
nbsum AS MATERIALIZED (
  -- per (doc, lang) integer score: order-free SUM of quantized lps
  SELECT d.doc_id, t.lang AS cand, CAST(SUM(lp.lp) AS BIGINT) AS tok_score
  FROM nbtok d
  CROSS JOIN nbtot t
  JOIN nblp lp ON lp.lang = t.lang AND lp.token = d.token
  GROUP BY d.doc_id, t.lang
),
nbsc AS MATERIALIZED (
  SELECT s.doc_id, s.cand,
    s.tok_score + CAST(floor(ln(CAST(p.nd AS DOUBLE)
      / CAST(a.na AS DOUBLE)) * 1000000000000.0) AS BIGINT) AS score
  FROM nbsum s JOIN nbpri p ON p.lang = s.cand CROSS JOIN nball a
),
nbbest AS MATERIALIZED (
  SELECT doc_id, cand AS pred_lang, score,
    row_number() OVER (PARTITION BY doc_id
                       ORDER BY score DESC, cand ASC) AS rn
  FROM nbsc
)
SELECT b.doc_id, b.pred_lang, b.score AS score_e12,
  CAST(CASE WHEN b.pred_lang = dd.lang THEN 1 ELSE 0 END AS BIGINT)
    AS is_correct
FROM nbbest b JOIN documents dd ON dd.doc_id = b.doc_id
WHERE b.rn = 1
"""


def sql_nb_confusion() -> str:
    inner = sql_naive_bayes().replace(
        "SELECT b.doc_id, b.pred_lang, b.score AS score_e12,",
        "SELECT dd.lang AS true_lang, b.pred_lang,").replace(
        """  CAST(CASE WHEN b.pred_lang = dd.lang THEN 1 ELSE 0 END AS BIGINT)
    AS is_correct
""", "")
    return f"""
SELECT true_lang, pred_lang, CAST(COUNT(*) AS BIGINT) AS n
FROM ({inner}) t GROUP BY true_lang, pred_lang
"""


def q_fano_factor(sf_dir: str):
    """Fano factor (burstiness index, variance-to-mean of the daily
    event counts) per event_type — the dispersion diagnostic that
    separates Poisson-like arrivals (F ~= 1) from bursty ones (F > 1):
    fano_e6 = (k*sum(x^2) - sum(x)^2) * 10^6 // ((k-1) * sum(x)), an
    EXACT integer from the count sufficient statistics (Python bignum
    == SQL HUGEINT).  Per-batch (type, day) count partials fold on
    the driver (key space = |types| x days, bounded).
    Output (event_type, k_days, n_events, fano_e6)."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        day = (batch["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        key = np.array([f"{a}\x00{d}" for a, d in zip(et, day)],
                       dtype=object)
        uq, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, c in zip(b["k"].to_pylist(), b["n"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(c)
    per: dict = {}
    for k, c in acc.items():
        tp = k.split("\x00")[0]
        kk, sx, sxx = per.get(tp, (0, 0, 0))
        per[tp] = (kk + 1, sx + c, sxx + c * c)
    tps = sorted(tp for tp, (kk, sx, _s) in per.items()
                 if kk >= 2 and sx > 0)
    return pa.table({
        "event_type": pa.array(tps, type=pa.string()),
        "k_days": pa.array([per[t][0] for t in tps], type=pa.int64()),
        "n_events": pa.array([per[t][1] for t in tps], type=pa.int64()),
        "fano_e6": pa.array(
            [(per[t][0] * per[t][2] - per[t][1] * per[t][1]) * 10 ** 6
             // ((per[t][0] - 1) * per[t][1]) for t in tps],
            type=pa.int64()),
    })


def sql_fano_factor() -> str:
    return """
WITH ffd AS MATERIALIZED (
  SELECT event_type,
    CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
    CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
),
ffa AS MATERIALIZED (
  SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS k,
    CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(x * x) AS HUGEINT) AS sxx
  FROM ffd GROUP BY 1 HAVING COUNT(*) >= 2 AND SUM(x) > 0
)
SELECT event_type, CAST(k AS BIGINT) AS k_days,
  CAST(sx AS BIGINT) AS n_events,
  CAST((k * sxx - sx * sx) * 1000000 // ((k - 1) * sx) AS BIGINT)
    AS fano_e6
FROM ffa
"""


# ---------------------------------------------------------------------------
# Round 4e: Markov entropy rate + tile coverage curve + staypoints
# ---------------------------------------------------------------------------


def q_entropy_rate(sf_dir: str):
    """Empirical entropy rate of the behavioral Markov chain — how
    predictable the next event type is (0 = deterministic): H =
    -sum_ij (c_ij / N) * ln(c_ij / r_i) with the per-cell ln floor-
    quantized at 1e-12 (scalar math.log per cell — <= |types|^2 of
    them — libm == DuckDB ln), so the weighted sum is exact integer
    arithmetic and h_e9 = -sum_q // (N * 1000).  Composes
    q_markov_transitions (a <= 25-row table).
    Output (n_transitions, sum_q, h_e9)."""
    import math

    t = q_markov_transitions(sf_dir)
    if hasattr(t, "to_pandas"):
        df = t.to_pandas()
    else:
        df = t
    r: dict = {}
    for _, row in df.iterrows():
        r[row["prev_type"]] = r.get(row["prev_type"], 0) + int(row["n"])
    N = sum(r.values())
    sum_q = 0
    for _, row in df.iterrows():
        c = int(row["n"])
        sum_q += c * math.floor(
            math.log(float(c) / float(r[row["prev_type"]])) * 1e12)
    return pa.table({
        "n_transitions": pa.array([N], type=pa.int64()),
        "sum_q": pa.array([sum_q], type=pa.int64()),
        "h_e9": pa.array([(-sum_q) // (N * 1000) if N else 0],
                         type=pa.int64()),
    })


def sql_entropy_rate() -> str:
    inner = sql_markov_transitions()
    return f"""
WITH erm AS MATERIALIZED ({inner}),
err AS MATERIALIZED (
  SELECT prev_type, CAST(SUM(n) AS BIGINT) AS r FROM erm GROUP BY 1
),
erq AS MATERIALIZED (
  SELECT m.n, CAST(m.n AS HUGEINT)
    * CAST(floor(ln(CAST(m.n AS DOUBLE) / CAST(r.r AS DOUBLE))
        * 1000000000000.0) AS HUGEINT) AS q
  FROM erm m JOIN err r ON r.prev_type = m.prev_type
)
SELECT CAST(SUM(n) AS BIGINT) AS n_transitions,
  CAST(SUM(q) AS BIGINT) AS sum_q,
  CAST((-SUM(q)) // (SUM(n) * 1000) AS BIGINT) AS h_e9
FROM erq
"""


# ---------------------------------------------------------------------------
# Round 4e: unigram perplexity filter (CCNet-style quality gate)
# ---------------------------------------------------------------------------


def q_unigram_ppl(sf_dir: str):
    """Unigram language-model perplexity proxy per document — the
    CCNet-style curation gate (high ppl = out-of-distribution text):
    a global unigram LM with Laplace smoothing is trained in one
    corpus pass (token counts; vocab-bounded driver fold), then each
    doc scores nll_q = sum over tokens of -floor(ln((c_tok + 1) /
    (T + V)) * 1e12) — an order-free integer sum (quantized-ln per
    DISTINCT token, the naive_bayes pattern) — and ppl_proxy_q =
    nll_q // n_tokens.  Broadcast model via ray.put; pure scoring
    map.  Output (doc_id, n_tokens, nll_q, ppl_proxy_q)."""
    import math

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        acc: dict = {}
        for tx in batch["text"].to_pylist():
            for tk in tx.split(" "):
                if tk.strip():
                    acc[tk] = acc.get(tk, 0) + 1
        ks = sorted(acc)
        return pa.table({
            "token": pa.array(ks, type=pa.string()),
            "n": pa.array([acc[k] for k in ks], type=pa.int64()),
        })

    counts: dict = {}
    for b in ds.map_batches(count_partial, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for tk, n in zip(b["token"].to_pylist(), b["n"].to_pylist()):
            counts[tk] = counts.get(tk, 0) + int(n)
    V = len(counts)
    T = sum(counts.values())
    den = float(T + V)
    nll = {tk: -math.floor(math.log(float(c + 1) / den) * 1e12)
           for tk, c in counts.items()}
    unk = -math.floor(math.log(1.0 / den) * 1e12)
    import ray as _ray
    model_ref = _ray.put((nll, unk))

    def score(batch: pa.Table) -> pa.Table:
        nll_m, unk_q = _ray.get(model_ref)
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_d, out_n, out_s = [], [], []
        for did, tx in zip(dids, batch["text"].to_pylist()):
            toks = [t for t in tx.split(" ") if t.strip()]
            if not toks:
                continue
            s = sum(nll_m.get(t, unk_q) for t in toks)
            out_d.append(int(did))
            out_n.append(len(toks))
            out_s.append(s)
        return pa.table({
            "doc_id": pa.array(out_d, type=pa.int64()),
            "n_tokens": pa.array(out_n, type=pa.int64()),
            "nll_q": pa.array(out_s, type=pa.int64()),
            "ppl_proxy_q": pa.array(
                [s // n for s, n in zip(out_s, out_n)], type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def sql_unigram_ppl() -> str:
    return """
WITH upt AS MATERIALIZED (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
),
uptok AS MATERIALIZED (
  SELECT doc_id, token FROM upt WHERE trim(token) <> ''
),
upc AS MATERIALIZED (
  SELECT token, CAST(COUNT(*) AS BIGINT) AS c FROM uptok GROUP BY 1
),
upv AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS v, CAST(SUM(c) AS BIGINT) AS t
  FROM upc
),
uplp AS MATERIALIZED (
  SELECT c.token,
    -CAST(floor(ln(CAST(c.c + 1 AS DOUBLE) / CAST(v.t + v.v AS DOUBLE))
      * 1000000000000.0) AS BIGINT) AS q
  FROM upc c CROSS JOIN upv v
)
SELECT d.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
  CAST(SUM(lp.q) AS BIGINT) AS nll_q,
  CAST(SUM(lp.q) // COUNT(*) AS BIGINT) AS ppl_proxy_q
FROM uptok d JOIN uplp lp ON lp.token = d.token
GROUP BY d.doc_id
"""


def q_heaps_law(sf_dir: str):
    """Heaps-law vocabulary growth — distinct tokens seen in the
    first n documents (doc_id order) at power-of-two prefixes: the
    curve whose slope says whether more data still buys new
    vocabulary.  Per-(token, first_doc) minima fold exactly; the
    prefix counts are cumulative sums over the bounded vocab.
    Output (n_docs, vocab)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def part(batch: pa.Table) -> pa.Table:
        first: dict = {}
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        for did, tx in zip(dids, batch["text"].to_pylist()):
            for tk in tx.split(" "):
                if tk.strip():
                    d = first.get(tk)
                    if d is None or did < d:
                        first[tk] = int(did)
        ks = sorted(first)
        return pa.table({
            "token": pa.array(ks, type=pa.string()),
            "first_doc": pa.array([first[k] for k in ks],
                                  type=pa.int64()),
        })

    first: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for tk, d in zip(b["token"].to_pylist(), b["first_doc"].to_pylist()):
            cur = first.get(tk)
            if cur is None or d < cur:
                first[tk] = int(d)
    n_docs = 0
    for b in ds.map_batches(
            lambda t: pa.table({"n": pa.array([t.num_rows],
                                              type=pa.int64())}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        for v in b["n"].to_pylist():
            n_docs += int(v)
    out_n, out_v = [], []
    n = 1
    while n <= n_docs:
        out_n.append(n)
        out_v.append(sum(1 for d in first.values() if d < n))
        n *= 2
    if not out_n or out_n[-1] != n_docs:
        out_n.append(n_docs)
        out_v.append(len(first))
    return pa.table({
        "n_docs": pa.array(out_n, type=pa.int64()),
        "vocab": pa.array(out_v, type=pa.int64()),
    })


def sql_heaps_law() -> str:
    return """
WITH hpt AS MATERIALIZED (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
),
hpf AS MATERIALIZED (
  SELECT token, CAST(MIN(doc_id) AS BIGINT) AS first_doc
  FROM hpt WHERE trim(token) <> '' GROUP BY 1
),
hpn AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents
),
hpp AS MATERIALIZED (
  SELECT p AS n FROM (SELECT unnest(generate_series(0, 30)) AS e),
    LATERAL (SELECT CAST(power(2, e) AS BIGINT) AS p)
  WHERE p <= (SELECT n_docs FROM hpn)
  UNION
  SELECT n_docs FROM hpn
)
SELECT n AS n_docs,
  CAST((SELECT COUNT(*) FROM hpf WHERE first_doc < n) AS BIGINT) AS vocab
FROM hpp
"""


def q_cluster_purity(sf_dir: str):
    """Near-dup cluster label coherence — do minhash clusters stay
    within one language (mixed clusters flag tokenizer or boilerplate
    artifacts)?  Components over the shared verified pair set (cc.py
    under the cap), joined to the doc lang; per multi-doc cluster:
    size, majority-lang count (ties to the lexicographically smallest
    lang) and purity_e6 = maj * 1e6 // size.
    Output (cluster_id, size, maj_n, purity_e6)."""
    from rhealpixdggs_py_ray.ops import cc

    pairs = _minhash_pairs(sf_dir)
    pa_, pb_ = [], []
    for b in pairs.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            pa_.append(b["a"].to_numpy(zero_copy_only=False))
            pb_.append(b["b"].to_numpy(zero_copy_only=False))
    if not pa_:
        return pa.table({
            "cluster_id": pa.array([], type=pa.int64()),
            "size": pa.array([], type=pa.int64()),
            "maj_n": pa.array([], type=pa.int64()),
            "purity_e6": pa.array([], type=pa.int64())})
    ua = np.concatenate(pa_).astype(np.int64)
    ub = np.concatenate(pb_).astype(np.int64)
    nodes, lab = cc._union_find_label(ua, ub)
    lang_ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    lang: dict = {}
    want = set(nodes.tolist())
    for b in lang_ds.iter_batches(batch_format="pyarrow"):
        for d, lg in zip(b["doc_id"].to_pylist(), b["lang"].to_pylist()):
            if d in want:
                lang[int(d)] = lg
    clus: dict = {}
    for n, lb in zip(nodes.tolist(), lab.tolist()):
        clus.setdefault(lb, []).append(lang[n])
    out = {c: [] for c in ("cluster_id", "size", "maj_n", "purity_e6")}
    for cid in sorted(clus):
        langs = clus[cid]
        if len(langs) < 2:
            continue
        cnt: dict = {}
        for lg in langs:
            cnt[lg] = cnt.get(lg, 0) + 1
        best = max(cnt.values())
        out["cluster_id"].append(cid)
        out["size"].append(len(langs))
        out["maj_n"].append(best)
        out["purity_e6"].append(best * 10 ** 6 // len(langs))
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in out.items()})


def sql_cluster_purity() -> str:
    from rhealpixdggs_py_ray.ops import cc, dedup

    closure = cc.connected_components_sql(dedup.minhash_lsh_sql())
    return f"""
WITH cpc AS MATERIALIZED (
  SELECT doc_id, cluster_id FROM ({closure}) t
),
cpl AS MATERIALIZED (
  SELECT c.cluster_id, d.lang FROM cpc c
  JOIN documents d ON d.doc_id = c.doc_id
),
cpn AS MATERIALIZED (
  SELECT cluster_id, lang, CAST(COUNT(*) AS BIGINT) AS n
  FROM cpl GROUP BY 1, 2
),
cps AS MATERIALIZED (
  SELECT cluster_id, CAST(SUM(n) AS BIGINT) AS size FROM cpn GROUP BY 1
),
cpm AS MATERIALIZED (
  SELECT cluster_id, n AS maj_n FROM (
    SELECT cluster_id, n,
      row_number() OVER (PARTITION BY cluster_id
                         ORDER BY n DESC, lang ASC) AS rn
    FROM cpn) t WHERE rn = 1
)
SELECT s.cluster_id, s.size, m.maj_n,
  CAST(m.maj_n * 1000000 // s.size AS BIGINT) AS purity_e6
FROM cps s JOIN cpm m ON m.cluster_id = s.cluster_id
WHERE s.size >= 2
"""


# ---------------------------------------------------------------------------
# Round 4e: per-class Matthews correlation + home revisit rate
# ---------------------------------------------------------------------------


def q_nb_mcc(sf_dir: str):
    """Per-class one-vs-rest Matthews correlation of the NB language
    classifier — the eval metric that survives class imbalance:
    from the integer confusion cells, mcc^2 = (tp*tn - fp*fn)^2 /
    ((tp+fp)(tp+fn)(tn+fp)(tn+fn)) exactly (bignum == HUGEINT), the
    sign travels separately (the q_corr_matrix pattern).  Composes
    the shared scored set.  Output (lang, tp, fp, fn, tn, sign_num,
    mcc2_e6)."""
    c = q_nb_confusion(sf_dir)
    df = c.to_pandas() if hasattr(c, "to_pandas") else c
    langs = sorted(set(df["true_lang"]) | set(df["pred_lang"]))
    total = int(df["n"].sum())
    out = {k: [] for k in ("lang", "tp", "fp", "fn", "tn",
                           "sign_num", "mcc2_e6")}
    for lg in langs:
        tp = int(df[(df["true_lang"] == lg)
                    & (df["pred_lang"] == lg)]["n"].sum())
        fp = int(df[(df["true_lang"] != lg)
                    & (df["pred_lang"] == lg)]["n"].sum())
        fn = int(df[(df["true_lang"] == lg)
                    & (df["pred_lang"] != lg)]["n"].sum())
        tn = total - tp - fp - fn
        num = tp * tn - fp * fn
        den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc2 = (num * num * 10 ** 6) // den if den > 0 else 0
        out["lang"].append(lg)
        out["tp"].append(tp)
        out["fp"].append(fp)
        out["fn"].append(fn)
        out["tn"].append(tn)
        out["sign_num"].append(0 if num == 0 else (1 if num > 0 else -1))
        out["mcc2_e6"].append(mcc2)
    return pa.table({
        "lang": pa.array(out["lang"], type=pa.string()),
        **{k: pa.array(out[k], type=pa.int64())
           for k in ("tp", "fp", "fn", "tn", "sign_num", "mcc2_e6")},
    })


def sql_nb_mcc() -> str:
    conf = sql_nb_confusion()
    return f"""
WITH mcconf AS MATERIALIZED ({conf}),
mcl AS MATERIALIZED (
  SELECT DISTINCT lang FROM (
    SELECT true_lang AS lang FROM mcconf
    UNION SELECT pred_lang FROM mcconf) t
),
mct AS MATERIALIZED (
  SELECT CAST(SUM(n) AS BIGINT) AS total FROM mcconf
),
mcc AS MATERIALIZED (
  SELECT l.lang,
    CAST(COALESCE(SUM(c.n) FILTER (WHERE c.true_lang = l.lang
      AND c.pred_lang = l.lang), 0) AS HUGEINT) AS tp,
    CAST(COALESCE(SUM(c.n) FILTER (WHERE c.true_lang <> l.lang
      AND c.pred_lang = l.lang), 0) AS HUGEINT) AS fp,
    CAST(COALESCE(SUM(c.n) FILTER (WHERE c.true_lang = l.lang
      AND c.pred_lang <> l.lang), 0) AS HUGEINT) AS fn
  FROM mcl l LEFT JOIN mcconf c ON TRUE
  GROUP BY l.lang
)
SELECT m.lang, CAST(m.tp AS BIGINT) AS tp, CAST(m.fp AS BIGINT) AS fp,
  CAST(m.fn AS BIGINT) AS fn,
  CAST(t.total - m.tp - m.fp - m.fn AS BIGINT) AS tn,
  CAST(CASE WHEN m.tp * (t.total - m.tp - m.fp - m.fn) - m.fp * m.fn > 0
      THEN 1
    WHEN m.tp * (t.total - m.tp - m.fp - m.fn) - m.fp * m.fn < 0
      THEN -1 ELSE 0 END AS BIGINT) AS sign_num,
  CAST(CASE WHEN (m.tp + m.fp) * (m.tp + m.fn)
      * ((t.total - m.tp - m.fp - m.fn) + m.fp)
      * ((t.total - m.tp - m.fp - m.fn) + m.fn) > 0
    THEN (m.tp * (t.total - m.tp - m.fp - m.fn) - m.fp * m.fn)
      * (m.tp * (t.total - m.tp - m.fp - m.fn) - m.fp * m.fn) * 1000000
      // ((m.tp + m.fp) * (m.tp + m.fn)
        * ((t.total - m.tp - m.fp - m.fn) + m.fp)
        * ((t.total - m.tp - m.fp - m.fn) + m.fn))
    ELSE 0 END AS BIGINT) AS mcc2_e6
FROM mcc m CROSS JOIN mct t
"""


PMI_MIN_COUNT = 5   # bigram support floor (degenerate-singleton guard)
PMI_K = 30          # top collocations reported


def q_collocations(sf_dir: str):
    """Top salient collocations by pointwise mutual information:
    PMI(a, b) = ln((c_ab / N_bi) / ((c_a / N_uni) * (c_b / N_uni)))
    over whitespace bigrams with c_ab >= PMI_MIN_COUNT, quantized to
    1e-6 integers (scalar libm log == DuckDB ln) and ranked (pmi
    DESC, bigram ASC).  ONE pass emits namespaced unigram+bigram
    partials ("1:" / "2:" keys, the namespaced-fold pattern); buckets
    fold exactly; surviving bigrams and the bounded unigram vocab
    gather to the driver for the PMI arithmetic.  Output (rank,
    bigram, n, pmi_e6)."""
    import math

    ds = _read(sf_dir, "documents", columns=["text"])
    nb = sizing.exchange_buckets(VOCAB_BUCKETS)

    def partial(batch: pa.Table) -> pa.Table:
        keys: list[str] = []
        for t in batch["text"].to_pylist():
            toks = t.split()
            keys.extend("1:" + w for w in toks)
            keys.extend("2:" + toks[i] + " " + toks[i + 1]
                        for i in range(len(toks) - 1))
        if not keys:
            return pa.table({"s": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64()),
                             "bucket": pa.array([], type=pa.int64())})
        uq, cnt = np.unique(np.asarray(keys, dtype=object),
                            return_counts=True)
        bucket = (pd.util.hash_array(uq) % nb).astype(np.int64)
        return pa.table({"s": pa.array(uq, type=pa.string()),
                         "n": pa.array(cnt.astype(np.int64)),
                         "bucket": pa.array(bucket)})

    def per_bucket(g: pa.Table) -> pa.Table:
        uq, inv = np.unique(g["s"].to_numpy(zero_copy_only=False),
                            return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, g["n"].to_numpy(zero_copy_only=False))
        # keep every unigram (bounded vocab) and supported bigrams
        is_uni = np.array([s.startswith("1:") for s in uq.tolist()])
        keep = is_uni | (tot >= PMI_MIN_COUNT)
        return pa.table({"s": pa.array(uq[keep], type=pa.string()),
                         "n": pa.array(tot[keep])})

    uni: dict = {}
    bi: dict = {}
    n_uni = 0
    n_bi = 0
    for b in (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("bucket").map_groups(per_bucket,
                                            batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows == 0 or "s" not in b.column_names:
            continue
        for s, n in zip(b["s"].to_pylist(), b["n"].to_pylist()):
            if s.startswith("1:"):
                uni[s[2:]] = n
                n_uni += n
            else:
                bi[s[2:]] = n
    # totals: N_bi from the unfiltered identity sum(len-1) = sum over
    # docs; derive exactly from unigram totals minus doc count
    n_docs = _ndocs(sf_dir)
    n_bi = n_uni - n_docs
    out_s, out_n, out_p = [], [], []
    for s, cab in bi.items():
        a, bb_ = s.split(" ", 1)
        ca, cb = uni[a], uni[bb_]
        pmi = math.floor(math.log(
            (cab / n_bi) / ((ca / n_uni) * (cb / n_uni))) * 1_000_000.0)
        out_s.append(s)
        out_n.append(cab)
        out_p.append(pmi)
    sarr = np.asarray(out_s, dtype=object)
    narr = np.array(out_n, dtype=np.int64)
    parr = np.array(out_p, dtype=np.int64)
    order = np.lexsort((sarr.astype(str), -parr))[:PMI_K]
    return pa.table({
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
        "bigram": pa.array(sarr[order].tolist(), type=pa.string()),
        "n": pa.array(narr[order]),
        "pmi_e6": pa.array(parr[order]),
    })


def sql_collocations() -> str:
    return f"""
WITH clt AS MATERIALIZED (
  SELECT regexp_split_to_array(trim(text), '\\s+') AS w FROM documents
),
clu AS MATERIALIZED (
  SELECT u.tok, CAST(COUNT(*) AS BIGINT) AS c
  FROM clt, unnest(w) AS u(tok) GROUP BY 1
),
clb AS MATERIALIZED (
  SELECT w[i] AS t1, w[i + 1] AS t2, CAST(COUNT(*) AS BIGINT) AS c
  FROM clt, unnest(generate_series(1, len(w) - 1)) AS g(i)
  GROUP BY 1, 2 HAVING COUNT(*) >= {PMI_MIN_COUNT}
),
cln AS MATERIALIZED (
  SELECT CAST(SUM(c) AS BIGINT) AS nu,
    CAST(SUM(c) AS BIGINT) - (SELECT COUNT(*) FROM documents) AS nb
  FROM clu
),
clp AS MATERIALIZED (
  SELECT b.t1 || ' ' || b.t2 AS bigram, b.c,
    CAST(floor(ln((CAST(b.c AS DOUBLE) / nb)
      / ((CAST(ua.c AS DOUBLE) / nu) * (CAST(ub.c AS DOUBLE) / nu)))
      * 1000000.0) AS BIGINT) AS pmi_e6
  FROM clb b
  JOIN clu ua ON ua.tok = b.t1
  JOIN clu ub ON ub.tok = b.t2
  CROSS JOIN cln
)
SELECT CAST(row_number() OVER (ORDER BY pmi_e6 DESC, bigram) AS BIGINT)
    AS rank,
  bigram, c AS n, pmi_e6
FROM clp
ORDER BY pmi_e6 DESC, bigram
LIMIT {PMI_K}
"""
