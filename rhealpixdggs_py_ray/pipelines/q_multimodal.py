"""Query-suite family module: multimodal (split from queries.py).

Every q_*/sql_* pair here is re-exported through
pipelines/queries.py; see qbase.py for shared helpers."""

from rhealpixdggs_py_ray.pipelines.qbase import *  # noqa: F401,F403



def q_image_pipeline(sf_dir: str):
    """Multimodal plumbing: deterministic image fixture table (the
    input_hint schema) -> actor-pool decode + payload verification ->
    per-face tile counts.  The oracle recomputes faces from phash and
    channel means from the generative pixel formula in SQL (see
    _image_src_sql), so the decode chain is value-hash verified."""
    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.stages.indexer import PayloadVerifier

    n = 2000
    out_dir = f"/tmp/graft_images_{n}"
    write_images_table(out_dir, n)
    ds = ray.data.read_parquet(out_dir, override_num_blocks=sizing.read_blocks(out_dir, profile=8))
    ds = ds.map_batches(
        PayloadVerifier,
        batch_format="pyarrow",
        batch_size=256,
        zero_copy_batch=True,
        concurrency=sizing.pool(),
    )
    from rhealpixdggs_py_ray.stages.indexer import CellIndexer

    ds = ds.map_batches(
        CellIndexer,
        fn_constructor_kwargs={"resolution": 9},
        batch_format="pyarrow",
        batch_size=256,
        zero_copy_batch=True,
        concurrency=sizing.pool(),
    )

    def summarize(batch: pa.Table) -> pa.Table:
        # per-batch combine on the int8 face column (CellIndexer emits it)
        fi = batch["face"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = batch["payload_ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        uq, inv = np.unique(fi, return_inverse=True)
        n = np.bincount(inv)
        n_ok = np.zeros(len(uq), dtype=np.int64)
        np.add.at(n_ok, inv, ok)
        return pa.table(
            {
                "face": pa.array(_FACE_LETTERS[uq], type=pa.string()),
                "n": pa.array(n.astype(np.int64)),
                "n_ok": pa.array(n_ok),
            }
        )

    part = ds.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("face").aggregate(
        Sum("n", alias_name="n"), Sum("n_ok", alias_name="n_ok")
    )


def q_image_features(sf_dir: str):
    """Multimodal feature pipeline: decode -> resize(32x32) -> channel
    stats + pixel phash (ops/multimodal.py) -> per-face aggregates."""
    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.ops.multimodal import DecodeResizeFeatures
    from rhealpixdggs_py_ray.stages.indexer import CellIndexer

    n = 2000
    out_dir = f"/tmp/graft_images_{n}"
    write_images_table(out_dir, n)
    ds = ray.data.read_parquet(out_dir, override_num_blocks=sizing.read_blocks(out_dir, profile=8))
    ds = ds.map_batches(
        DecodeResizeFeatures,
        batch_format="pyarrow",
        batch_size=256,
        zero_copy_batch=True,
        concurrency=sizing.pool(),
    )
    ds = ds.map_batches(
        CellIndexer,
        fn_constructor_kwargs={"resolution": 9},
        batch_format="pyarrow",
        batch_size=256,
        zero_copy_batch=True,
        concurrency=sizing.pool(),
    )

    def summarize(batch: pa.Table) -> pa.Table:
        fi = batch["face"].to_numpy(zero_copy_only=False).astype(np.int64)
        fm = np.array(batch["feat_mean"].to_pylist(), dtype=np.float64)
        mean_r_c = np.floor(fm[:, 0] * 100).astype(np.int64)
        uq, inv = np.unique(fi, return_inverse=True)
        n = np.bincount(inv)
        s = np.zeros(len(uq), dtype=np.int64)
        np.add.at(s, inv, mean_r_c)
        return pa.table(
            {
                "face": pa.array(_FACE_LETTERS[uq], type=pa.string()),
                "n": pa.array(n.astype(np.int64)),
                "sum_mean_r_c": pa.array(s),
            }
        )

    part = ds.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("face").aggregate(
        Sum("n", alias_name="n"), Sum("sum_mean_r_c", alias_name="sum_mean_r_c")
    )


def sql_image_pipeline() -> str:
    src = _image_src_sql()
    faced = oracle.cell_from_point_sql(
        f"SELECT image_id, lon, lat FROM {src} t", 0, CFG, id_cols=("image_id",)
    )
    # n_ok == n is the constructed-fixture invariant (lossless payloads
    # + exact captions); the Ray side PROVES it by decoding, the oracle
    # pins the distribution
    return (
        f"SELECT cell_id AS face, COUNT(*) AS n, COUNT(*) AS n_ok"
        f" FROM {faced} t GROUP BY cell_id"
    )


def sql_image_features() -> str:
    src = _image_src_sql()
    faced = oracle.cell_from_point_sql(
        f"SELECT image_id, w, h, u, lon, lat FROM {src} t", 0, CFG,
        id_cols=("image_id",), extra_cols=("w", "h", "u"),
    )
    # channel-0 mean of the 32x32 nearest-resized generative pattern:
    # pix(y, x, 0) = (x*3 + y*5 + (phash & 255)) % 256, sampled at
    # yi = gi*h//32, xi = gj*w//32 (ops/multimodal.resize_nearest)
    val = (
        "(((CAST(gj AS BIGINT) * w) // 32) * 3"
        " + ((CAST(gi AS BIGINT) * h) // 32) * 5"
        " + CAST(u & 255 AS BIGINT)) % 256"
    )
    return (
        f"WITH f AS MATERIALIZED (SELECT image_id, w, h, u, cell_id FROM {faced} t),"
        f" g AS (SELECT gi.gi, gj.gj FROM"
        f"  (SELECT unnest(generate_series(0, 31)) AS gi) gi,"
        f"  (SELECT unnest(generate_series(0, 31)) AS gj) gj),"
        f" mm AS (SELECT image_id, cell_id,"
        f"   CAST(floor((SUM({val}) / 1024.0) * 100) AS BIGINT) AS mean_r_c"
        f"  FROM f, g GROUP BY image_id, cell_id)"
        f" SELECT cell_id AS face, COUNT(*) AS n,"
        f" CAST(SUM(mean_r_c) AS BIGINT) AS sum_mean_r_c"
        f" FROM mm GROUP BY cell_id"
    )


def q_image_patches(sf_dir: str):
    """ViT-style patchification: decode -> non-overlapping 16x16 patch
    grid -> per-patch per-channel integer pixel sums (the patch-
    embedding precursor; one row per (image, patch_y, patch_x, chan)).
    Actor-pool decode; payload bytes never leave the decode stage —
    only the small (id, py, px, c, s) rows do.  The oracle replays the
    closed-form fixture pixel rule over every patch lattice with
    chained lateral generate_series (~10M pixel terms in DuckDB)."""
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    class Patchify:
        def __init__(self, patch: int = PATCH_PX):
            self.patch = patch

        def __call__(self, batch: pa.Table) -> pa.Table:
            from rhealpixdggs_py_ray.fixtures import decode_image

            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy()
            hs = batch["h"].to_numpy()
            ids = batch["image_id"].to_pylist()
            P = self.patch
            cid, cpy, cpx, cc, cs = [], [], [], [], []
            for k in range(len(blobs)):
                w, h = int(ws[k]), int(hs[k])
                pix = decode_image(blobs[k], fmts[k], w, h)
                gy, gx = h // P, w // P
                v = (
                    pix[: gy * P, : gx * P, :]
                    .reshape(gy, P, gx, P, 3)
                    .sum(axis=(1, 3), dtype=np.int64)
                )  # (gy, gx, 3)
                py, px, c = np.indices((gy, gx, 3))
                cid.append(np.repeat(ids[k], v.size))
                cpy.append(py.ravel())
                cpx.append(px.ravel())
                cc.append(c.ravel())
                cs.append(v.ravel())
            return pa.table({
                "image_id": pa.array(np.concatenate(cid), type=pa.string()),
                "py": pa.array(np.concatenate(cpy).astype(np.int64)),
                "px": pa.array(np.concatenate(cpx).astype(np.int64)),
                "c": pa.array(np.concatenate(cc).astype(np.int64)),
                "s": pa.array(np.concatenate(cs)),
            })

    return ds.map_batches(
        Patchify, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_patches() -> str:
    src = _image_src_sql()
    P = PATCH_PX
    return f"""
WITH src AS MATERIALIZED (SELECT image_id, w, h, u FROM {src} q2),
p1 AS MATERIALIZED (
  SELECT image_id, w, u, t.py FROM src,
    unnest(generate_series(0, h // {P} - 1)) AS t(py)),
p2 AS MATERIALIZED (
  SELECT image_id, u, py, t.px FROM p1,
    unnest(generate_series(0, w // {P} - 1)) AS t(px)),
p3 AS MATERIALIZED (
  SELECT image_id, py, px, t.c,
    CAST((u >> CAST(8 * t.c AS INTEGER)) & 255 AS BIGINT) AS chan
  FROM p2, unnest(generate_series(0, 2)) AS t(c)),
p4 AS MATERIALIZED (
  SELECT image_id, py, px, c, chan, t.dy FROM p3,
    unnest(generate_series(0, {P - 1})) AS t(dy))
SELECT image_id, py, px, c,
  CAST(SUM(((px * {P} + t.dx) * 3 + (py * {P} + dy) * 5 + c * 7 + chan)
       % 256) AS BIGINT) AS s
FROM p4, unnest(generate_series(0, {P - 1})) AS t(dx)
GROUP BY image_id, py, px, c
"""


def q_image_neardup(sf_dir: str):
    """Image near-dup detection over the fixture images table: decode
    -> 64-bit perceptual hash -> 4x16-bit band LSH -> candidate pairs
    -> exact Hamming verify (ops/multimodal.image_near_dup_pairs; the
    image axis of the graft).  Payload bytes never ride a shuffle —
    only (id, phash64) rows do.  The oracle recomputes phash64
    closed-form from the generative pixel formula (the same tie-exact
    integer threshold the kernel uses) and replays the identical
    band-LSH candidate rule in SQL, so hashes, candidate recall and
    Hamming distances are all value-hash checked."""
    return _image_neardup_pairs().select_columns(["a", "b", "hamming"])


def sql_image_neardup() -> str:
    # phash64 closed form: the 32x32 nearest-resize of the generative
    # pattern sampled at the 8x8 grid collapses to pixel
    # (yi, xi) = ((a*h)//8, (b*w)//8); the 3-channel integer sum s is
    # thresholded tie-exactly as 64*s > sum(s) (exactly the kernel's
    # g8*64.0 > g8.sum() — all quantities are integers < 2^53).
    src = _image_src_sql()
    val = (
        "((((b.b * w) // 8) * 3 + ((a.a * h) // 8) * 5 + c.c * 7"
        " + CAST((u >> CAST(8 * c.c AS UBIGINT)) & 255 AS BIGINT)) % 256)"
    )
    return (
        f"WITH src AS MATERIALIZED (SELECT CAST(substr(image_id, 4) AS BIGINT)"
        f"  AS idx, CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u"
        f"  FROM {src} tt),"
        f" samp AS MATERIALIZED (SELECT idx, a.a, b.b, SUM({val}) AS s"
        f"  FROM src,"
        f"   (SELECT unnest(generate_series(0, 7)) AS a) a,"
        f"   (SELECT unnest(generate_series(0, 7)) AS b) b,"
        f"   (SELECT unnest(generate_series(0, 2)) AS c) c"
        f"  GROUP BY idx, a.a, b.b),"
        f" ph AS MATERIALIZED (SELECT idx,"
        f"  CAST(SUM(CASE WHEN 64 * s > tot THEN CAST(1 AS HUGEINT)"
        f"   << CAST(a * 8 + b AS INTEGER) ELSE CAST(0 AS HUGEINT) END)"
        f"   AS UBIGINT) AS ph64"
        f"  FROM (SELECT idx, a, b, s, SUM(s) OVER (PARTITION BY idx) AS tot"
        f"        FROM samp) q GROUP BY idx),"
        f" bands AS MATERIALIZED (SELECT idx,"
        f"  t.t AS t, CAST((ph64 >> CAST(16 * t.t AS UBIGINT)) & 65535 AS BIGINT)"
        f"   AS bkey"
        f"  FROM ph, (SELECT unnest(generate_series(0, 3)) AS t) t),"
        f" pairs AS (SELECT DISTINCT l.idx AS a, r.idx AS b"
        f"  FROM bands l JOIN bands r"
        f"  ON l.t = r.t AND l.bkey = r.bkey AND l.idx < r.idx)"
        f" SELECT p.a, p.b, CAST(bit_count(xor(x.ph64, y.ph64)) AS BIGINT)"
        f"  AS hamming"
        f" FROM pairs p JOIN ph x ON x.idx = p.a JOIN ph y ON y.idx = p.b"
        f" WHERE bit_count(xor(x.ph64, y.ph64)) <= {NEARDUP_MAX_HAMMING}"
    )


def q_multimodal_neardup(sf_dir: str):
    """Joint image+caption near-dup: phash-verified image pairs
    (image_near_dup_pairs) annotated with exact caption token-set
    jaccard — the cross-modal dedup decision a web-scale image-text
    curation pipeline makes.  Caption attach is ONE fused bucketed
    exchange (pack mode); the image payload and raw captions never
    ride a pair-keyed shuffle."""
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.ops.dedup import (
        _attach_pair_sides_fused,
        _pair_sides_pivot,
    )

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    def add_idx(batch: pa.Table) -> pa.Table:
        ii = pc.cast(pc.utf8_slice_codeunits(batch["image_id"], 3, 15), pa.int64())
        return batch.append_column("img_idx", ii)

    ds = ds.map_batches(add_idx, batch_format="pyarrow", zero_copy_batch=True)
    pairs = q_image_neardup(sf_dir)  # materialized + shared (cache above)

    def cap_kv(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["img_idx"],
            "caption": batch["caption"],
        })

    caps = ds.map_batches(cap_kv, batch_format="pyarrow", zero_copy_batch=True)

    def kv_pack(sub: pd.DataFrame) -> dict:
        sets = [sorted(set(c.split())) for c in sub["caption"].tolist()]
        return {
            "capset": ["\n".join(s) for s in sets],
            "ncap": np.array([len(s) for s in sets], dtype=np.int64),
        }

    att = _attach_pair_sides_fused(
        pairs,
        caps,
        pair_sums=[("hamming", "hamming")],
        val_cols=[("capset", pa.string()), ("ncap", pa.int64())],
        kv_mode="pack",
        kv_pack=kv_pack,
        kv_in_cols=[("caption", pa.string())],
    )

    def verify(m: pd.DataFrame) -> pd.DataFrame:
        # vectorized |A ∩ B|: within-side token lists are unique, so a
        # (pair, token) key occurring twice across the two sides is an
        # intersection hit — factorize tokens once (np.unique), pack
        # (pair, code) into u64, sort, count adjacent-equal per pair
        if len(m):
            arr_a = pc.split_pattern(pa.array(m["capset_a"], type=pa.string()), "\n")
            arr_b = pc.split_pattern(pa.array(m["capset_b"], type=pa.string()), "\n")
            idx_a = np.repeat(np.arange(len(m), dtype=np.int64),
                              pc.list_value_length(arr_a).to_numpy())
            idx_b = np.repeat(np.arange(len(m), dtype=np.int64),
                              pc.list_value_length(arr_b).to_numpy())
            tokens = np.concatenate([
                pc.list_flatten(arr_a).to_numpy(zero_copy_only=False),
                pc.list_flatten(arr_b).to_numpy(zero_copy_only=False),
            ])
            idxs = np.concatenate([idx_a, idx_b])
            vocab, codes = np.unique(tokens, return_inverse=True)
            key = (idxs.astype(np.uint64) * np.uint64(len(vocab) + 1)
                   + codes.astype(np.uint64))
            order = np.argsort(key)
            k = key[order]
            dup = k[1:] == k[:-1]
            ni = np.bincount(idxs[order][1:][dup], minlength=len(m)).astype(np.int64)
        else:
            ni = np.zeros(0, dtype=np.int64)
        na = m["ncap_a"].to_numpy().astype(np.int64)
        nb = m["ncap_b"].to_numpy().astype(np.int64)
        j = ni.astype(np.float64) / (na + nb - ni).astype(np.float64)
        return pd.DataFrame({
            "a": m["a"].to_numpy(),
            "b": m["b"].to_numpy(),
            "hamming": m["hamming_a"].to_numpy().astype(np.int64),
            "jac_micros": np.floor(j * 1000000.0).astype(np.int64),
        })

    return _pair_sides_pivot(att, verify, ["capset", "ncap", "hamming"])


def sql_multimodal_neardup() -> str:
    # caption reconstruction mirrors fixtures.py:138 exactly
    cap = (
        "'caption ' || CAST(idx AS VARCHAR) || ': cell of img'"
        " || lpad(CAST(idx AS VARCHAR), 12, '0')"
    )
    return f"""
WITH pairs AS MATERIALIZED (
{sql_image_neardup()}
),
ids AS MATERIALIZED (
  SELECT a AS idx FROM pairs UNION SELECT b FROM pairs
),
tok AS MATERIALIZED (
  SELECT DISTINCT idx, unnest(regexp_split_to_array({cap}, ' ')) AS t
  FROM ids
),
sizes AS MATERIALIZED (
  SELECT idx, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY idx
),
inter AS MATERIALIZED (
  SELECT p.a, p.b, CAST(COUNT(*) AS BIGINT) AS ni
  FROM pairs p
  JOIN tok ta ON ta.idx = p.a
  JOIN tok tb ON tb.idx = p.b AND tb.t = ta.t
  GROUP BY p.a, p.b
)
SELECT p.a, p.b, p.hamming,
  CAST(floor(CAST(COALESCE(i.ni, 0) AS DOUBLE)
    / (sa.n + sb.n - COALESCE(i.ni, 0)) * 1000000.0)
    AS BIGINT) AS jac_micros
FROM pairs p
LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
JOIN sizes sa ON sa.idx = p.a
JOIN sizes sb ON sb.idx = p.b
"""


def q_image_mosaic(sf_dir: str):
    """DGGS raster mosaic: decode every image (actor pool), index it
    to its res-2 cell, and aggregate per-tile channel statistics (n +
    per-channel mean sums in centi-units) — the canonical
    'rasters into a discrete global grid' aggregation.  Payload bytes
    never shuffle: only (tile, 3 ints) partials leave the decode
    stage."""
    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.ops.multimodal import DecodeResizeFeatures
    from rhealpixdggs_py_ray.stages.indexer import CellIndexer

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))
    ds = ds.map_batches(
        DecodeResizeFeatures,
        batch_format="pyarrow",
        batch_size=256,
        zero_copy_batch=True,
        concurrency=sizing.pool(),
    )
    ds = ds.map_batches(
        CellIndexer,
        fn_constructor_kwargs={"resolution": MOSAIC_RES},
        batch_format="pyarrow",
        batch_size=256,
        zero_copy_batch=True,
        concurrency=sizing.pool(),
    )

    def summarize(batch: pa.Table) -> pa.Table:
        cid = batch["cell_id"].to_numpy(zero_copy_only=False)
        fm = np.array(batch["feat_mean"].to_pylist(), dtype=np.float64)
        cm = np.floor(fm * 100).astype(np.int64)  # (n, 3) centi-means
        uq, inv = np.unique(cid, return_inverse=True)
        n = np.bincount(inv)
        sums = np.zeros((len(uq), 3), dtype=np.int64)
        np.add.at(sums, inv, cm)
        return pa.table({
            "tile_id": pa.array(uq, type=pa.string()),
            "n": pa.array(n.astype(np.int64)),
            "sum_mean_r_c": pa.array(sums[:, 0]),
            "sum_mean_g_c": pa.array(sums[:, 1]),
            "sum_mean_b_c": pa.array(sums[:, 2]),
        })

    part = ds.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby("tile_id").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_mean_r_c", alias_name="sum_mean_r_c"),
        Sum("sum_mean_g_c", alias_name="sum_mean_g_c"),
        Sum("sum_mean_b_c", alias_name="sum_mean_b_c"),
    )


def sql_image_mosaic() -> str:
    src = _image_src_sql()
    tiled = oracle.cell_from_point_sql(
        f"SELECT image_id, w, h, u, lon, lat FROM {src} t", MOSAIC_RES, CFG,
        id_cols=("image_id",), extra_cols=("w", "h", "u"),
    )
    # channel-c mean of the 32x32 nearest-resized generative pattern:
    # pix(y, x, c) = (x*3 + y*5 + c*7 + ((phash >> 8c) & 255)) % 256
    def val(c: int) -> str:
        return (
            "(((CAST(gj AS BIGINT) * w) // 32) * 3"
            " + ((CAST(gi AS BIGINT) * h) // 32) * 5"
            f" + {c * 7} + CAST((u >> {8 * c}) & 255 AS BIGINT)) % 256"
        )

    means = ", ".join(
        f"CAST(floor((SUM({val(c)}) / 1024.0) * 100) AS BIGINT) AS m{c}"
        for c in range(3)
    )
    return f"""
WITH f AS MATERIALIZED (SELECT image_id, w, h, u, cell_id FROM {tiled} t),
g AS (SELECT gi.gi, gj.gj FROM
  (SELECT unnest(generate_series(0, 31)) AS gi) gi,
  (SELECT unnest(generate_series(0, 31)) AS gj) gj),
mm AS MATERIALIZED (
  SELECT image_id, cell_id, {means} FROM f, g GROUP BY image_id, cell_id
)
SELECT cell_id AS tile_id, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(m0) AS BIGINT) AS sum_mean_r_c,
  CAST(SUM(m1) AS BIGINT) AS sum_mean_g_c,
  CAST(SUM(m2) AS BIGINT) AS sum_mean_b_c
FROM mm GROUP BY cell_id
"""


def q_image_quality_filter(sf_dir: str):
    """Low-texture image filter (the visual twin of the text quality
    gate): decode -> resize(32) -> INTEGER per-channel variance
    var_q = 1024*sum(px^2) - sum(px)^2 (exact — no float std), flag
    images with channel-0 var_q below threshold.  Actor-pool decode,
    small batches, payloads never shuffle; emits only flagged rows."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table
    from rhealpixdggs_py_ray.ops.multimodal import resize_nearest

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    class VarStage:
        def __call__(self, batch: pa.Table) -> pa.Table:
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy()
            hs = batch["h"].to_numpy()
            ids = batch["image_id"].to_pylist()
            out = {"image_id": [], "var_r_q": [], "var_g_q": [], "var_b_q": []}
            for k in range(len(blobs)):
                pix = decode_image(blobs[k], fmts[k], int(ws[k]), int(hs[k]))
                small = resize_nearest(pix, 32, 32).astype(np.int64)
                s = small.sum(axis=(0, 1))
                s2 = (small * small).sum(axis=(0, 1))
                v = 1024 * s2 - s * s
                if v[0] < IMGVAR_MIN:
                    out["image_id"].append(ids[k])
                    out["var_r_q"].append(int(v[0]))
                    out["var_g_q"].append(int(v[1]))
                    out["var_b_q"].append(int(v[2]))
            return pa.table({
                "image_id": pa.array(out["image_id"], type=pa.string()),
                "var_r_q": pa.array(np.array(out["var_r_q"], dtype=np.int64)),
                "var_g_q": pa.array(np.array(out["var_g_q"], dtype=np.int64)),
                "var_b_q": pa.array(np.array(out["var_b_q"], dtype=np.int64)),
            })

    return ds.map_batches(
        VarStage, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_quality_filter() -> str:
    src = _image_src_sql()

    def val(c: int) -> str:
        return (
            "(((CAST(gj AS BIGINT) * w) // 32) * 3"
            " + ((CAST(gi AS BIGINT) * h) // 32) * 5"
            f" + {c * 7} + CAST((u >> {8 * c}) & 255 AS BIGINT)) % 256"
        )

    vars_ = ", ".join(
        f"1024 * SUM(({val(c)}) * ({val(c)})) - SUM({val(c)}) * SUM({val(c)})"
        f" AS v{c}"
        for c in range(3)
    )
    return f"""
WITH f AS MATERIALIZED (SELECT image_id, w, h, u FROM {src} t),
g AS (SELECT gi.gi, gj.gj FROM
  (SELECT unnest(generate_series(0, 31)) AS gi) gi,
  (SELECT unnest(generate_series(0, 31)) AS gj) gj),
v AS MATERIALIZED (
  SELECT image_id, {vars_} FROM f, g GROUP BY image_id
)
SELECT image_id, CAST(v0 AS BIGINT) AS var_r_q, CAST(v1 AS BIGINT)
  AS var_g_q, CAST(v2 AS BIGINT) AS var_b_q
FROM v WHERE v0 < {IMGVAR_MIN}
"""


def q_image_pyramid(sf_dir: str):
    """Thumbnail pyramid in ONE decode pass: each image decodes once
    and resizes to 32/16/8; per-level channel-0 centi-mean sums
    aggregate globally.  The multi-output map shape for 'generate all
    serving resolutions in one read' — 3 output rows per image, never
    3 decodes."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table
    from rhealpixdggs_py_ray.ops.multimodal import resize_nearest

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    class PyramidStage:
        def __call__(self, batch: pa.Table) -> pa.Table:
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy()
            hs = batch["h"].to_numpy()
            n = len(blobs)
            levels = np.empty((n, len(PYRAMID_LEVELS)), dtype=np.int64)
            for k in range(n):
                pix = decode_image(blobs[k], fmts[k], int(ws[k]), int(hs[k]))
                for li, L in enumerate(PYRAMID_LEVELS):
                    small = resize_nearest(pix, L, L).astype(np.int64)
                    m = small[:, :, 0].sum() / (L * L)
                    levels[k, li] = int(np.floor(m * 100))
            out_lv, out_n, out_s = [], [], []
            for li, L in enumerate(PYRAMID_LEVELS):
                out_lv.append(L)
                out_n.append(n)
                out_s.append(int(levels[:, li].sum()))
            return pa.table({
                "level": pa.array(np.array(out_lv, dtype=np.int64)),
                "n": pa.array(np.array(out_n, dtype=np.int64)),
                "sum_mean_r_c": pa.array(np.array(out_s, dtype=np.int64)),
            })

    p = ds.map_batches(
        PyramidStage, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )
    return p.groupby("level").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_mean_r_c", alias_name="sum_mean_r_c"),
    )


def sql_image_pyramid() -> str:
    src = _image_src_sql()
    parts = []
    for L in PYRAMID_LEVELS:
        val = (
            f"(((CAST(gj AS BIGINT) * w) // {L}) * 3"
            f" + ((CAST(gi AS BIGINT) * h) // {L}) * 5"
            " + CAST(u & 255 AS BIGINT)) % 256"
        )
        parts.append(f"""
SELECT CAST({L} AS BIGINT) AS level, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(m) AS BIGINT) AS sum_mean_r_c FROM (
  SELECT image_id,
    CAST(floor((SUM({val}) / {float(L * L)!r}) * 100) AS BIGINT) AS m
  FROM (SELECT image_id, w, h, u FROM {src} t) f,
    (SELECT gi.gi, gj.gj FROM
      (SELECT unnest(generate_series(0, {L - 1})) AS gi) gi,
      (SELECT unnest(generate_series(0, {L - 1})) AS gj) gj) g
  GROUP BY image_id)""")
    return " UNION ALL ".join(parts)


# ---------------------------------------------------------------------------
# Round 2h (cont.): image retention policy, nearest-POI assignment
# ---------------------------------------------------------------------------

def q_image_retention(sf_dir: str):
    """Near-dup retention policy (the curation step AFTER detection):
    from every verified phash near-dup pair, the lower-resolution
    member (fewer pixels; ties -> larger index) is marked dropped, and
    the query reports the distinct dropped images with their
    dimensions.  The (w, h) dims ride the near-dup pipeline's OWN
    fused verify exchange (image_near_dup_pairs extra_val_cols) so the
    loser pick is a pure map over verified pairs, followed by one
    bucketed distinct — no driver-side table read, no max-index-sized
    broadcast array (round 2 built an O(#images) dense driver lookup
    here; at 10^12 images that is a multi-TB driver array — VERDICT r2
    item 2)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    # verified pairs with dims come from the process-wide cached pair
    # set — one decode->phash->LSH->verify pass feeds all five
    # near-dup consumers
    pairs = _image_neardup_pairs()

    def pick_losers(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        wa = batch["w_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        ha = batch["h_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        wb = batch["w_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        hb = batch["h_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        pxa, pxb = wa * ha, wb * hb
        loser = np.where(pxa < pxb, a, np.where(pxb < pxa, b, np.maximum(a, b)))
        is_a = loser == a
        return pa.table({
            "img_idx": pa.array(loser),
            "w": pa.array(np.where(is_a, wa, wb)),
            "h": pa.array(np.where(is_a, ha, hb)),
        })

    lo = pairs.map_batches(pick_losers, batch_format="pyarrow", zero_copy_batch=True)

    nb = sizing.exchange_buckets(16)

    def add_bucket(batch: pa.Table) -> pa.Table:
        i = batch["img_idx"].to_numpy(zero_copy_only=False)
        return batch.append_column("lbkt", pa.array(hash_bucket_u64(i, nb)))

    def distinct(g: pa.Table) -> pa.Table:
        i = g["img_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        uq, first = np.unique(i, return_index=True)
        return pa.table({
            "img_idx": pa.array(uq),
            "w": pa.array(g["w"].to_numpy(zero_copy_only=False).astype(np.int64)[first]),
            "h": pa.array(g["h"].to_numpy(zero_copy_only=False).astype(np.int64)[first]),
        })

    return (
        lo.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lbkt")
        .map_groups(distinct, batch_format="pyarrow")
    )


def sql_image_retention() -> str:
    nd = sql_image_neardup()
    return f"""
WITH pr AS MATERIALIZED (SELECT a, b FROM ({nd}) t),
dims AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) * h AS px, CAST(w AS BIGINT) AS w,
    CAST(h AS BIGINT) AS h
  FROM read_parquet('{IMG_DIR}/*.parquet')
),
losers AS (
  SELECT DISTINCT CASE WHEN da.px < db.px THEN p.a
    WHEN db.px < da.px THEN p.b
    ELSE greatest(p.a, p.b) END AS idx
  FROM pr p JOIN dims da ON da.idx = p.a JOIN dims db ON db.idx = p.b
)
SELECT l.idx AS img_idx, d.w, d.h FROM losers l JOIN dims d ON d.idx = l.idx
"""


def q_image_augment(sf_dir: str):
    """Deterministic augmentation plumbing: actor-pool decode of the
    REAL payload bytes (raw/png codec) -> center square crop ->
    horizontal flip when phash is odd -> position-weighted pixel
    checksum (sum of (row*s + col + 1) * pixel; flip-sensitive, unlike
    a plain sum).  The oracle replays crop/flip index remapping on the
    generative pixel rule, so the whole decode+transform chain is
    value-verified byte-for-byte.  Payload never shuffles: output is
    4 ints per image."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    class Augment:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["image_id"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            phs = batch["phash"].to_numpy(zero_copy_only=False)
            idx, size, flip, chk = [], [], [], []
            for iid, data, fmt, w, h, ph in zip(ids, blobs, fmts, ws, hs, phs):
                w, h = int(w), int(h)
                pix = decode_image(data, fmt, w, h).astype(np.int64)
                s = min(w, h)
                x0, y0 = (w - s) // 2, (h - s) // 2
                crop = pix[y0:y0 + s, x0:x0 + s, :]
                f = int(ph) & 1
                if f:
                    crop = crop[:, ::-1, :]
                wgt = np.arange(s, dtype=np.int64)[:, None] * s \
                    + np.arange(s, dtype=np.int64)[None, :] + 1
                idx.append(int(iid[3:]))
                size.append(s)
                flip.append(f)
                chk.append(int((crop.sum(axis=2) * wgt).sum()))
            return pa.table({
                "idx": pa.array(np.array(idx, dtype=np.int64)),
                "out_size": pa.array(np.array(size, dtype=np.int64)),
                "flipped": pa.array(np.array(flip, dtype=np.int64)),
                "chk": pa.array(np.array(chk, dtype=np.int64)),
            })

    return ds.map_batches(
        Augment, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_augment() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    val = (
        "((x * 3 + y * 5 + cc * 7"
        " + CAST((u >> CAST(8 * cc AS UBIGINT)) & 255 AS BIGINT)) % 256)"
    )
    return f"""
WITH src AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u,
    least(CAST(w AS BIGINT), CAST(h AS BIGINT)) AS s,
    CAST(u & 1 AS BIGINT) AS flip
  FROM (SELECT image_id, w, h, {u} AS u
        FROM read_parquet('{IMG_DIR}/*.parquet')) q
),
cells AS MATERIALIZED (
  SELECT idx, s, flip, u, aa, bb, cc,
    (w - s) // 2 + CASE WHEN flip = 1 THEN s - 1 - bb ELSE bb END AS x,
    (h - s) // 2 + aa AS y
  FROM src,
    unnest(generate_series(0, s - 1)) AS ta(aa),
    unnest(generate_series(0, s - 1)) AS tb(bb),
    (SELECT unnest(generate_series(0, 2)) AS cc) tc
)
SELECT idx, MIN(s) AS out_size, MIN(flip) AS flipped,
  CAST(SUM((aa * s + bb + 1) * {val}) AS BIGINT) AS chk
FROM cells GROUP BY idx
"""


def q_image_clusters(sf_dir: str):
    """Near-dup image clusters: the phash band-LSH + Hamming-verified
    pair graph (q_image_neardup) resolved to canonical clusters with
    the same distributed connected-components machinery as the text
    dedup family (ops/cc) — (doc_id=image idx, cluster_id=min member,
    keep=canonical)."""
    from rhealpixdggs_py_ray.ops import cc

    return cc.connected_components(q_image_neardup(sf_dir))


def sql_image_clusters() -> str:
    from rhealpixdggs_py_ray.ops import cc

    return cc.connected_components_sql(sql_image_neardup())


def q_image_equalize(sf_dir: str):
    """Histogram equalization (the classic contrast transform) over the
    REAL payload bytes: actor-pool decode -> per-image 256-bin joint
    histogram -> integer CDF LUT e(v) = ((cdf(v) - cdf_min) * 255) //
    (n_pix - cdf_min) -> position-weighted checksum of the equalized
    pixels.  Payload never shuffles; output is 3 ints per image.  The
    oracle replays the histogram, CDF and LUT on the generative pixel
    rule in SQL, so the decode+equalize chain is value-verified."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    class Equalize:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["image_id"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            idx, nv, chk = [], [], []
            for iid, data, fmt, w, h in zip(ids, blobs, fmts, ws, hs):
                w, h = int(w), int(h)
                pix = decode_image(data, fmt, w, h).astype(np.int64)
                hist = np.bincount(pix.ravel(), minlength=256)
                cdf = np.cumsum(hist)
                nz = np.flatnonzero(hist)
                cdf_min = int(cdf[nz[0]])
                n = pix.size
                denom = max(n - cdf_min, 1)
                lut = (cdf - cdf_min) * 255 // denom
                eq = lut[pix]
                wgt = (np.arange(h, dtype=np.int64)[:, None] * w
                       + np.arange(w, dtype=np.int64)[None, :] + 1)
                idx.append(int(iid[3:]))
                nv.append(int(len(nz)))
                chk.append(int((eq.sum(axis=2) * wgt).sum()))
            return pa.table({
                "idx": pa.array(np.array(idx, dtype=np.int64)),
                "n_values": pa.array(np.array(nv, dtype=np.int64)),
                "chk": pa.array(np.array(chk, dtype=np.int64)),
            })

    return ds.map_batches(
        Equalize, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_equalize() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    val = (
        "((x * 3 + y * 5 + cc * 7"
        " + CAST((u >> CAST(8 * cc AS UBIGINT)) & 255 AS BIGINT)) % 256)"
    )
    return f"""
WITH esrc AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u
  FROM (SELECT image_id, w, h, {u} AS u
        FROM read_parquet('{IMG_DIR}/*.parquet')) q
),
epix AS MATERIALIZED (
  SELECT idx, w, h, x, y, {val} AS v
  FROM esrc,
    unnest(generate_series(0, w - 1)) AS tx(x),
    unnest(generate_series(0, h - 1)) AS ty(y),
    (SELECT unnest(generate_series(0, 2)) AS cc) tc
),
ehist AS MATERIALIZED (
  SELECT idx, v, COUNT(*) AS c FROM epix GROUP BY idx, v
),
ecdf0 AS MATERIALIZED (
  SELECT idx, v,
    SUM(c) OVER (PARTITION BY idx ORDER BY v) AS cdf,
    SUM(c) OVER (PARTITION BY idx) AS n,
    COUNT(*) OVER (PARTITION BY idx) AS n_values
  FROM ehist
),
ecdf AS MATERIALIZED (
  SELECT idx, v, cdf, n, n_values,
    MIN(cdf) OVER (PARTITION BY idx) AS cdf_min
  FROM ecdf0
),
elut AS MATERIALIZED (
  SELECT idx, v, n_values,
    ((cdf - cdf_min) * 255) // greatest(n - cdf_min, 1) AS e
  FROM ecdf
)
SELECT p.idx, CAST(MIN(l.n_values) AS BIGINT) AS n_values,
  CAST(SUM((p.y * p.w + p.x + 1) * l.e) AS BIGINT) AS chk
FROM epix p JOIN elut l ON p.idx = l.idx AND p.v = l.v
GROUP BY p.idx
"""


def q_image_keep_best(sf_dir: str):
    """Image-dedup representative selection (the multimodal sibling of
    q_dedup_keep_best): per near-dup image cluster keep the
    largest-area member (w*h DESC, ties -> smaller idx) with cluster
    size.  Same shape: bounded cluster membership broadcast ->
    one metadata-only pass over the images table (payload bytes never
    read) -> mergeable per-cluster argmax partials -> one bucket
    exchange.  Output (cluster_id, keep_idx, area, n_members)."""
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64

    clusters = q_image_clusters(sf_dir)
    # bounded: one row per image in a verified near-dup pair
    rows = clusters.take_all()
    m_ids = np.array([int(r["doc_id"]) for r in rows], dtype=np.int64)
    m_cl = np.array([int(r["cluster_id"]) for r in rows], dtype=np.int64)
    order = np.argsort(m_ids)
    memb_ref = ray.put((m_ids[order], m_cl[order]))
    nb = 8

    ds = ray.data.read_parquet(
        IMG_DIR, columns=["image_id", "w", "h"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    def partial(batch: pa.Table) -> pa.Table:
        mk, mv = ray.get(memb_ref)
        ids = np.array([int(x[3:]) for x in batch["image_id"].to_pylist()],
                       dtype=np.int64)
        area = (batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
                * batch["h"].to_numpy(zero_copy_only=False))
        pos = np.searchsorted(mk, ids)
        pos = np.minimum(pos, max(len(mk) - 1, 0))
        sel = np.flatnonzero((len(mk) > 0) & (mk[pos] == ids))
        cols = ["bucket", "cluster_id", "idx", "area", "n_members"]
        if not len(sel):
            return pa.table({c: pa.array([], type=pa.int64()) for c in cols})
        cl = mv[pos[sel]]
        ids, area = ids[sel], area[sel]
        order2 = np.lexsort((ids, -area, cl))
        clo = cl[order2]
        first = np.r_[True, clo[1:] != clo[:-1]]
        cnt = np.diff(np.r_[np.flatnonzero(first), len(clo)])
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(
                clo[first].astype(np.uint64), nb)),
            "cluster_id": pa.array(clo[first]),
            "idx": pa.array(ids[order2][first]),
            "area": pa.array(area[order2][first]),
            "n_members": pa.array(cnt.astype(np.int64)),
        })

    def resolve(g: pa.Table) -> pa.Table:
        cols = ["cluster_id", "keep_idx", "area", "n_members"]
        if g.num_rows == 0 or "cluster_id" not in g.column_names:
            return pa.table({c: pa.array([], type=pa.int64()) for c in cols})
        cl = g["cluster_id"].to_numpy(zero_copy_only=False)
        ids = g["idx"].to_numpy(zero_copy_only=False)
        area = g["area"].to_numpy(zero_copy_only=False)
        nm = g["n_members"].to_numpy(zero_copy_only=False)
        order2 = np.lexsort((ids, -area, cl))
        clo = cl[order2]
        first = np.r_[True, clo[1:] != clo[:-1]]
        uq, inv = np.unique(cl, return_inverse=True)
        tot = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tot, inv, nm)
        return pa.table({
            "cluster_id": pa.array(clo[first]),
            "keep_idx": pa.array(ids[order2][first]),
            "area": pa.array(area[order2][first]),
            "n_members": pa.array(tot),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sql_image_keep_best() -> str:
    src = _image_src_sql()
    return f"""
WITH ikc AS MATERIALIZED (
  SELECT * FROM ({sql_image_clusters()}) t
), iks AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) * CAST(h AS BIGINT) AS area
  FROM {src} q3
), ikr AS MATERIALIZED (
  SELECT c.cluster_id, s.idx, s.area,
    row_number() OVER (PARTITION BY c.cluster_id
                       ORDER BY s.area DESC, s.idx) AS rn,
    COUNT(*) OVER (PARTITION BY c.cluster_id) AS n_members
  FROM ikc c JOIN iks s ON s.idx = c.doc_id
)
SELECT CAST(cluster_id AS BIGINT) AS cluster_id, idx AS keep_idx, area,
  CAST(n_members AS BIGINT) AS n_members
FROM ikr WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Round 4d: image row-projection profiles (document-layout analysis shape)
# ---------------------------------------------------------------------------


def q_image_row_profile(sf_dir: str):
    """Projection profiling over REAL payload bytes: decode each image
    (actor pool, per-(w,h) base-lattice cache), sum channel 0 per
    pixel row, report the peak row (ties -> smallest y) and the total
    — the horizontal-projection primitive of document layout analysis.
    The oracle replays the generative pixel formula over a w x h
    series, so the decode path is value-hash verified end-to-end.
    Output (image_id, w, h, peak_y, peak_sum, total)."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    class RowProfile:
        def __call__(self, batch: pa.Table) -> pa.Table:
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy()
            hs = batch["h"].to_numpy()
            ids = batch["image_id"].to_pylist()
            out = {k: [] for k in ("id", "w", "h", "py", "ps", "tot")}
            for k in range(len(blobs)):
                img = decode_image(blobs[k], fmts[k], int(ws[k]), int(hs[k]))
                rs = img[:, :, 0].astype(np.int64).sum(axis=1)
                py = int(np.argmax(rs))
                out["id"].append(ids[k])
                out["w"].append(int(ws[k]))
                out["h"].append(int(hs[k]))
                out["py"].append(py)
                out["ps"].append(int(rs[py]))
                out["tot"].append(int(rs.sum()))
            return pa.table({
                "image_id": pa.array(out["id"], type=pa.string()),
                "w": pa.array(np.array(out["w"], dtype=np.int64)),
                "h": pa.array(np.array(out["h"], dtype=np.int64)),
                "peak_y": pa.array(np.array(out["py"], dtype=np.int64)),
                "peak_sum": pa.array(np.array(out["ps"], dtype=np.int64)),
                "total": pa.array(np.array(out["tot"], dtype=np.int64)),
            })

    return ds.map_batches(RowProfile, batch_format="pyarrow",
                          batch_size=256, zero_copy_batch=True,
                          concurrency=sizing.pool())


def sql_image_row_profile() -> str:
    src = _image_src_sql()
    val = "(x * 3 + y * 5 + CAST(u & 255 AS BIGINT)) % 256"
    return f"""
WITH irp AS MATERIALIZED (
  SELECT image_id, w, h, u FROM {src} t
),
irr AS MATERIALIZED (
  SELECT i.image_id, i.w, i.h, y.y, CAST(SUM({val}) AS BIGINT) AS rowsum
  FROM irp i,
    LATERAL (SELECT unnest(generate_series(0, i.h - 1)) AS y) y,
    LATERAL (SELECT unnest(generate_series(0, i.w - 1)) AS x) x
  GROUP BY 1, 2, 3, 4
),
irt AS MATERIALIZED (
  SELECT image_id, CAST(SUM(rowsum) AS BIGINT) AS total FROM irr GROUP BY 1
)
SELECT r.image_id, CAST(r.w AS BIGINT) AS w, CAST(r.h AS BIGINT) AS h,
  CAST(r.y AS BIGINT) AS peak_y, r.rowsum AS peak_sum, t.total
FROM irr r JOIN irt t ON t.image_id = r.image_id
QUALIFY row_number() OVER (
  PARTITION BY r.image_id ORDER BY r.rowsum DESC, r.y ASC) = 1
"""


# ---------------------------------------------------------------------------
# Round 4e: gamma correction over payload bytes + parquet row-group
# manifest + matryoshka truncation quality
# ---------------------------------------------------------------------------


def q_image_gamma(sf_dir: str):
    """Gamma correction (gamma = 0.5, i.e. g(v) = floor(255 *
    sqrt(v/255)) — sqrt is IEEE exact-rounded, so the 256-entry LUT is
    bit-identical to the SQL replay) over the REAL payload bytes:
    actor-pool decode -> LUT -> position-weighted checksum + the LUT
    output range actually hit.  The q_image_equalize shape: payload
    never shuffles, 4 ints per image leave the stage.
    Output (idx, chk, g_lo, g_hi)."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )
    lut = np.floor(
        255.0 * np.sqrt(np.arange(256, dtype=np.float64) / 255.0)
    ).astype(np.int64)

    class Gamma:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["image_id"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            idx, chk, glo, ghi = [], [], [], []
            for iid, data, fmt, w, h in zip(ids, blobs, fmts, ws, hs):
                w, h = int(w), int(h)
                pix = decode_image(data, fmt, w, h).astype(np.int64)
                g = lut[pix]
                wgt = (np.arange(h, dtype=np.int64)[:, None] * w
                       + np.arange(w, dtype=np.int64)[None, :] + 1)
                idx.append(int(iid[3:]))
                chk.append(int((g.sum(axis=2) * wgt).sum()))
                glo.append(int(g.min()))
                ghi.append(int(g.max()))
            return pa.table({
                "idx": pa.array(np.array(idx, dtype=np.int64)),
                "chk": pa.array(np.array(chk, dtype=np.int64)),
                "g_lo": pa.array(np.array(glo, dtype=np.int64)),
                "g_hi": pa.array(np.array(ghi, dtype=np.int64)),
            })

    return ds.map_batches(
        Gamma, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_gamma() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    val = (
        "((x * 3 + y * 5 + cc * 7"
        " + CAST((u >> CAST(8 * cc AS UBIGINT)) & 255 AS BIGINT)) % 256)"
    )
    g = ("CAST(floor(CAST(255 AS DOUBLE)"
         " * sqrt(CAST(v AS DOUBLE) / CAST(255 AS DOUBLE))) AS BIGINT)")
    return f"""
WITH gsrc AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u
  FROM (SELECT image_id, w, h, {u} AS u
        FROM read_parquet('{IMG_DIR}/*.parquet')) q
),
gpix AS MATERIALIZED (
  SELECT idx, w, x, y, {val} AS v
  FROM gsrc,
    unnest(generate_series(0, w - 1)) AS tx(x),
    unnest(generate_series(0, h - 1)) AS ty(y),
    (SELECT unnest(generate_series(0, 2)) AS cc) tc
)
SELECT idx,
  CAST(SUM({g} * (y * w + x + 1)) AS BIGINT) AS chk,
  CAST(MIN({g}) AS BIGINT) AS g_lo,
  CAST(MAX({g}) AS BIGINT) AS g_hi
FROM gpix GROUP BY idx
"""


# ---------------------------------------------------------------------------
# Round 4e: Laplacian-variance sharpness (blur screen) over payloads
# ---------------------------------------------------------------------------


def q_image_sharpness(sf_dir: str):
    """Blur screen over the REAL payload bytes — the image-curation
    gate that drops out-of-focus shots: per image, the 4-neighbor
    Laplacian L = 4*g - left - right - up - down over the luma proxy
    g = r + g + b (integer, interior pixels only), reported as the
    EXACT integer variance pair (n*sum(L^2) - sum(L)^2, n) plus a
    sharp flag against SHARP_MIN on the scaled ratio.  Actor-pool
    decode, 5 ints per image, payload never shuffles.
    Output (idx, n_lap, lap_sum, lap_ss, sharp)."""
    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    class Sharp:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["image_id"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            idx, nl, s1, s2, sh = [], [], [], [], []
            for iid, data, fmt, w, h in zip(ids, blobs, fmts, ws, hs):
                w, h = int(w), int(h)
                pix = decode_image(data, fmt, w, h).astype(np.int64)
                g = pix.sum(axis=2)
                L = (4 * g[1:-1, 1:-1] - g[1:-1, :-2] - g[1:-1, 2:]
                     - g[:-2, 1:-1] - g[2:, 1:-1])
                n = L.size
                ls = int(L.sum())
                ss = int((L * L).sum())
                var_num = n * ss - ls * ls
                idx.append(int(iid[3:]))
                nl.append(n)
                s1.append(ls)
                s2.append(ss)
                sh.append(1 if var_num >= SHARP_MIN * n * n else 0)
            return pa.table({
                "idx": pa.array(np.array(idx, dtype=np.int64)),
                "n_lap": pa.array(np.array(nl, dtype=np.int64)),
                "lap_sum": pa.array(np.array(s1, dtype=np.int64)),
                "lap_ss": pa.array(np.array(s2, dtype=np.int64)),
                "sharp": pa.array(np.array(sh, dtype=np.int64)),
            })

    return ds.map_batches(
        Sharp, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_sharpness() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"

    def val(xx: str, yy: str) -> str:
        # luma proxy summed over the three channels of the pixel rule
        terms = []
        for cc in range(3):
            terms.append(
                f"((({xx}) * 3 + ({yy}) * 5 + {cc} * 7"
                f" + CAST((u >> {8 * cc}) & 255 AS BIGINT)) % 256)")
        return "(" + " + ".join(terms) + ")"

    L = (f"(4 * {val('x', 'y')} - {val('x - 1', 'y')} - {val('x + 1', 'y')}"
         f" - {val('x', 'y - 1')} - {val('x', 'y + 1')})")
    return f"""
WITH shsrc AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u
  FROM (SELECT image_id, w, h, {u} AS u
        FROM read_parquet('{IMG_DIR}/*.parquet')) q
),
shlap AS MATERIALIZED (
  SELECT idx, {L} AS lap
  FROM shsrc,
    unnest(generate_series(1, w - 2)) AS tx(x),
    unnest(generate_series(1, h - 2)) AS ty(y)
),
sha AS MATERIALIZED (
  SELECT idx, CAST(COUNT(*) AS BIGINT) AS n_lap,
    CAST(SUM(lap) AS BIGINT) AS lap_sum,
    CAST(SUM(lap * lap) AS BIGINT) AS lap_ss
  FROM shlap GROUP BY idx
)
SELECT idx, n_lap, lap_sum, lap_ss,
  CAST(CASE WHEN n_lap * lap_ss - lap_sum * lap_sum
    >= {SHARP_MIN} * n_lap * n_lap THEN 1 ELSE 0 END AS BIGINT) AS sharp
FROM sha
"""


def q_payload_audit(sf_dir: str):
    """Multimodal payload integrity audit — the ingest gate that
    catches truncated blobs before they poison a training run: per
    (fmt, w, h) shape class, row count, total payload bytes, and the
    count of raw rows whose byte length is EXACTLY w*h*3 (the raw
    contract; png rows audit length > 0 only).  Metadata-only map
    (binary_length, no decode), trivially distributed.
    Output (fmt, w, h, n, total_bytes, n_exact)."""
    import pyarrow.compute as pc
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    def audit(batch: pa.Table) -> pa.Table:
        ln = pc.binary_length(batch["bytes"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        fmt = np.asarray(batch["fmt"].to_pylist(), dtype=object)
        exact = np.where(fmt == "raw", ln == w * h * 3, ln > 0)
        key = np.array([f"{f}\x00{ww}\x00{hh}"
                        for f, ww, hh in zip(fmt, w, h)], dtype=object)
        uq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        tb = np.zeros(len(uq), dtype=np.int64)
        np.add.at(tb, inv, ln)
        ne = np.zeros(len(uq), dtype=np.int64)
        np.add.at(ne, inv, exact.astype(np.int64))
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "n": pa.array(n), "tb": pa.array(tb),
                         "ne": pa.array(ne)})

    acc: dict = {}
    for b in ds.map_batches(audit, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n, tb, ne in zip(b["k"].to_pylist(), b["n"].to_pylist(),
                                b["tb"].to_pylist(), b["ne"].to_pylist()):
            pn, pt, pe = acc.get(k, (0, 0, 0))
            acc[k] = (pn + int(n), pt + int(tb), pe + int(ne))
    ks = sorted(acc)
    return pa.table({
        "fmt": pa.array([k.split("\x00")[0] for k in ks],
                        type=pa.string()),
        "w": pa.array([int(k.split("\x00")[1]) for k in ks],
                      type=pa.int64()),
        "h": pa.array([int(k.split("\x00")[2]) for k in ks],
                      type=pa.int64()),
        "n": pa.array([acc[k][0] for k in ks], type=pa.int64()),
        "total_bytes": pa.array([acc[k][1] for k in ks], type=pa.int64()),
        "n_exact": pa.array([acc[k][2] for k in ks], type=pa.int64()),
    })


def sql_payload_audit() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    return f"""
SELECT fmt, CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(octet_length(bytes)) AS BIGINT) AS total_bytes,
  CAST(COUNT(*) FILTER (WHERE CASE WHEN fmt = 'raw'
    THEN octet_length(bytes) = w * h * 3
    ELSE octet_length(bytes) > 0 END) AS BIGINT) AS n_exact
FROM read_parquet('{IMG_DIR}/*.parquet')
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Round 4e: per-image histogram entropy + caption binding audit
# ---------------------------------------------------------------------------


def q_image_entropy(sf_dir: str):
    """Per-image pixel-histogram entropy — the flat-image screen
    (near-zero entropy = blank/synthetic fill): H = -sum c/n ln(c/n)
    over the 256-bin joint-channel histogram, with every ln of a
    count ratio floor-quantized at 1e-12 via ONE scalar math.log per
    distinct count (counts repeat heavily in a 256-bin histogram —
    the tile_pmi lookup trick), so sum_q is exact and h_e9 = -sum_q
    // (n * 1000).  Actor-pool decode; 3 ints leave per image.
    Output (idx, n_pix, h_e9)."""
    import math

    from rhealpixdggs_py_ray.fixtures import decode_image, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    class Entropy:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["image_id"].to_pylist()
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            idx, npx, he = [], [], []
            for iid, data, fmt, w, h in zip(ids, blobs, fmts, ws, hs):
                w, h = int(w), int(h)
                pix = decode_image(data, fmt, w, h)
                hist = np.bincount(pix.ravel(), minlength=256)
                n = pix.size
                uq = np.unique(hist[hist > 0])
                lnq = {int(c): math.floor(
                    math.log(float(c) / float(n)) * 1e12) for c in uq}
                sum_q = int(sum(int(c) * lnq[int(c)]
                                for c in hist[hist > 0]))
                idx.append(int(iid[3:]))
                npx.append(n)
                he.append((-sum_q) // (n * 1000))
            return pa.table({
                "idx": pa.array(np.array(idx, dtype=np.int64)),
                "n_pix": pa.array(np.array(npx, dtype=np.int64)),
                "h_e9": pa.array(np.array(he, dtype=np.int64)),
            })

    return ds.map_batches(
        Entropy, batch_format="pyarrow", batch_size=256,
        zero_copy_batch=True, concurrency=sizing.pool(),
    )


def sql_image_entropy() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    val = (
        "((x * 3 + y * 5 + cc * 7"
        " + CAST((u >> CAST(8 * cc AS UBIGINT)) & 255 AS BIGINT)) % 256)"
    )
    return f"""
WITH hesrc AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, u
  FROM (SELECT image_id, w, h, {u} AS u
        FROM read_parquet('{IMG_DIR}/*.parquet')) q
),
hepix AS MATERIALIZED (
  SELECT idx, {val} AS v
  FROM hesrc,
    unnest(generate_series(0, w - 1)) AS tx(x),
    unnest(generate_series(0, h - 1)) AS ty(y),
    (SELECT unnest(generate_series(0, 2)) AS cc) tc
),
hec AS MATERIALIZED (
  SELECT idx, v, CAST(COUNT(*) AS BIGINT) AS c FROM hepix GROUP BY 1, 2
),
hen AS MATERIALIZED (
  SELECT idx, CAST(SUM(c) AS BIGINT) AS n FROM hec GROUP BY 1
)
SELECT c.idx, n.n AS n_pix,
  CAST((-SUM(CAST(c.c AS HUGEINT)
    * CAST(floor(ln(CAST(c.c AS DOUBLE) / CAST(n.n AS DOUBLE))
        * 1000000000000.0) AS HUGEINT))) // (n.n * 1000) AS BIGINT)
    AS h_e9
FROM hec c JOIN hen n ON n.idx = c.idx
GROUP BY c.idx, n.n
"""


def q_caption_alignment(sf_dir: str):
    """Caption-image binding audit — the multimodal pairing gate: a
    caption is aligned when it mentions its own image_id (RE2-parity
    substring check).  Per (w, h) shape class: rows, aligned count,
    total caption characters.  Pure metadata map, no decode.
    Output (w, h, n, n_aligned, caption_chars)."""
    import pyarrow.compute as pc
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8)
    )

    def audit(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        caps = batch["caption"].to_pylist()
        aligned = np.array([1 if i in c else 0
                            for i, c in zip(ids, caps)], dtype=np.int64)
        clen = pc.utf8_length(batch["caption"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = w * 1000 + h
        uq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        na = np.zeros(len(uq), dtype=np.int64)
        np.add.at(na, inv, aligned)
        cl = np.zeros(len(uq), dtype=np.int64)
        np.add.at(cl, inv, clen)
        return pa.table({"k": pa.array(uq), "n": pa.array(n),
                         "na": pa.array(na), "cl": pa.array(cl)})

    acc: dict = {}
    for b in ds.map_batches(audit, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, n, na, cl in zip(b["k"].to_pylist(), b["n"].to_pylist(),
                                b["na"].to_pylist(), b["cl"].to_pylist()):
            pn, pa_, pc_ = acc.get(k, (0, 0, 0))
            acc[k] = (pn + int(n), pa_ + int(na), pc_ + int(cl))
    ks = sorted(acc)
    return pa.table({
        "w": pa.array([k // 1000 for k in ks], type=pa.int64()),
        "h": pa.array([k % 1000 for k in ks], type=pa.int64()),
        "n": pa.array([acc[k][0] for k in ks], type=pa.int64()),
        "n_aligned": pa.array([acc[k][1] for k in ks], type=pa.int64()),
        "caption_chars": pa.array([acc[k][2] for k in ks],
                                  type=pa.int64()),
    })


def sql_caption_alignment() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    return f"""
SELECT CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(COUNT(*) FILTER (WHERE contains(caption, image_id)) AS BIGINT)
    AS n_aligned,
  CAST(SUM(length(caption)) AS BIGINT) AS caption_chars
FROM read_parquet('{IMG_DIR}/*.parquet')
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Round 4e: phash bit balance + log-binned degree histogram
# ---------------------------------------------------------------------------


def q_phash_bit_balance(sf_dir: str):
    """Perceptual-hash quality audit — a good 64-bit phash keeps
    every bit near 50/50 (skewed bits waste LSH buckets): per bit
    position, the ones count and the absolute deviation from n/2
    scaled by 2 (|2*ones - n| keeps it integer).  Pure map + 64-key
    fold.  Output (bit, n_ones, dev2)."""
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    ds = ray.data.read_parquet(
        IMG_DIR, override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8),
        columns=["phash"],
    )

    def part(batch: pa.Table) -> pa.Table:
        ph = batch["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ones = np.zeros(64, dtype=np.int64)
        for b in range(64):
            ones[b] = int(((ph >> np.uint64(b))
                           & np.uint64(1)).sum())
        return pa.table({
            "bit": pa.array(np.arange(64, dtype=np.int64)),
            "ones": pa.array(ones),
            "n": pa.array(np.full(64, len(ph), dtype=np.int64)),
        })

    ones = np.zeros(64, dtype=np.int64)
    n = 0
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        bi = b["bit"].to_numpy(zero_copy_only=False)
        on = b["ones"].to_numpy(zero_copy_only=False)
        np.add.at(ones, bi, on)
        nn = b["n"].to_numpy(zero_copy_only=False)
        n += int(nn[bi == 0].sum())
    return pa.table({
        "bit": pa.array(np.arange(64, dtype=np.int64)),
        "n_ones": pa.array(ones),
        "dev2": pa.array(np.abs(2 * ones - n)),
    })


def sql_phash_bit_balance() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    return f"""
WITH pbsrc AS MATERIALIZED (
  SELECT {u} AS u FROM read_parquet('{IMG_DIR}/*.parquet')
),
pbb AS MATERIALIZED (
  SELECT b.bit,
    CAST(SUM(CAST((u >> CAST(b.bit AS UBIGINT)) & 1 AS BIGINT))
      AS BIGINT) AS n_ones,
    CAST(COUNT(*) AS BIGINT) AS n
  FROM pbsrc CROSS JOIN
    (SELECT unnest(generate_series(0, 63)) AS bit) b
  GROUP BY b.bit
)
SELECT bit, n_ones, CAST(abs(2 * n_ones - n) AS BIGINT) AS dev2
FROM pbb
"""


def q_image_tile_locality(sf_dir: str):
    """Geo-locality of image near-duplicates — the two graft axes in
    one statistic: every verified phash near-dup pair is labeled
    same-tile / cross-tile by the endpoints' res-TILE_RES rHEALPix
    cells (phash-derived coordinates, the headline indexing rule),
    with the pair count and Hamming range per label.  Pairs come from
    the cached verified set; tile assignment recomputes only for pair
    endpoints (broadcast id set, map-side filter).  Empty labels are
    omitted (GROUP BY parity).  Output (same_tile, n_pairs,
    min_hamming, max_hamming)."""
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.fixtures import phash_to_lonlat

    pairs = (_image_neardup_pairs()
             .select_columns(["a", "b", "hamming"]).to_pandas())
    a = pairs["a"].to_numpy().astype(np.int64)
    b = pairs["b"].to_numpy().astype(np.int64)
    hm = pairs["hamming"].to_numpy().astype(np.int64)
    need = np.unique(np.concatenate([a, b]))
    nref = ray.put(need)

    ds = ray.data.read_parquet(
        IMG_DIR, columns=["image_id", "phash"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    def tiles(batch: pa.Table) -> pa.Table:
        ii = pc.cast(pc.utf8_slice_codeunits(batch["image_id"], 3, 15),
                     pa.int64()).to_numpy(zero_copy_only=False)
        m = np.isin(ii, ray.get(nref))
        ii = ii[m]
        ph = batch["phash"].to_numpy(zero_copy_only=False)[m]
        lon, lat = phash_to_lonlat(ph)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        return pa.table({
            "img_idx": pa.array(ii),
            "tile": pa.array(u.astype(np.uint64) >> np.uint64(52)),
        })

    idx_l, tile_l = [], []
    for bt in ds.map_batches(tiles, batch_format="pyarrow",
                             zero_copy_batch=True) \
                .iter_batches(batch_format="pyarrow"):
        if bt.num_rows:
            idx_l.append(bt["img_idx"].to_numpy(zero_copy_only=False))
            tile_l.append(bt["tile"].to_numpy(zero_copy_only=False))
    ii = np.concatenate(idx_l) if idx_l else np.array([], dtype=np.int64)
    tt = np.concatenate(tile_l) if tile_l else np.array([], dtype=np.uint64)
    order = np.argsort(ii)
    ii, tt = ii[order], tt[order]
    ta = tt[np.searchsorted(ii, a)]
    tb = tt[np.searchsorted(ii, b)]
    same = (ta == tb).astype(np.int64)
    out = {k: [] for k in ("same_tile", "n_pairs", "min_h", "max_h")}
    for s in (0, 1):
        m = same == s
        if not m.any():
            continue  # GROUP BY never emits empty groups
        out["same_tile"].append(s)
        out["n_pairs"].append(int(m.sum()))
        out["min_h"].append(int(hm[m].min()))
        out["max_h"].append(int(hm[m].max()))
    return pa.table({
        "same_tile": pa.array(out["same_tile"], type=pa.int64()),
        "n_pairs": pa.array(out["n_pairs"], type=pa.int64()),
        "min_hamming": pa.array(out["min_h"], type=pa.int64()),
        "max_hamming": pa.array(out["max_h"], type=pa.int64()),
    })


def sql_image_tile_locality() -> str:
    src_sql = _image_src_sql()
    tiled = oracle.cell_from_point_sql(
        f"SELECT CAST(substr(image_id, 4, 12) AS BIGINT) AS img_idx,"
        f" lon, lat FROM {src_sql} t",
        TILE_RES, CFG, id_cols=("img_idx",))
    return f"""
WITH itp AS MATERIALIZED (
  SELECT * FROM ({sql_image_neardup()}) q
),
itt AS MATERIALIZED (
  SELECT img_idx, cell_id FROM {tiled} t
)
SELECT CAST(CASE WHEN ta.cell_id = tb.cell_id THEN 1 ELSE 0 END
    AS BIGINT) AS same_tile,
  CAST(COUNT(*) AS BIGINT) AS n_pairs,
  CAST(MIN(p.hamming) AS BIGINT) AS min_hamming,
  CAST(MAX(p.hamming) AS BIGINT) AS max_hamming
FROM itp p
JOIN itt ta ON ta.img_idx = p.a
JOIN itt tb ON tb.img_idx = p.b
GROUP BY 1
"""



AUDIO_DIR = "/tmp/graft_audio_400"
AUDIO_N = 400


def q_audio_features(sf_dir: str):
    """REAL audio pipeline over raw-PCM payload bytes (codec-free —
    the one multimodal axis previously stub-only): decode int16
    little-endian samples with numpy frombuffer in an actor-pool
    map_batches stage, emit exact integer features (energy, zero
    crossings, peak, sum).  The oracle replays the generative sample
    formula s(t) = ((t*t*7 + t*13 + i*31) mod 4096) - 2048 through
    generate_series, so the byte decode chain is value-hash verified
    end-to-end (the image generative-codec pattern).  Payload bytes
    never enter a shuffle.  Output (audio_id, n_samples, energy,
    zero_cross, peak_abs, sample_sum)."""
    from rhealpixdggs_py_ray.fixtures import write_audio_table
    from rhealpixdggs_py_ray.ops.multimodal import PcmFeatures

    write_audio_table(AUDIO_DIR, AUDIO_N)
    ds = ray.data.read_parquet(
        AUDIO_DIR, columns=["audio_id", "bytes", "fmt"],
        override_num_blocks=sizing.read_blocks(AUDIO_DIR, profile=8))
    return sizing.stateful_map(ds, PcmFeatures, batch_format="pyarrow",
                               zero_copy_batch=True)


def sql_audio_features() -> str:
    from rhealpixdggs_py_ray.fixtures import write_audio_table

    write_audio_table(AUDIO_DIR, AUDIO_N)  # driver may run SQL first
    return f"""
WITH aud AS MATERIALIZED (
  SELECT audio_id, CAST(substr(audio_id, 4, 8) AS BIGINT) AS i,
    CAST(n_samples AS BIGINT) AS n
  FROM read_parquet('{AUDIO_DIR}/*.parquet')
),
smp AS MATERIALIZED (
  SELECT audio_id,  t,
    ((t * t * 7 + t * 13
      + (i - CASE WHEN i % 10 = 9 THEN 1 ELSE 0 END) * 31) % 4096)
      - 2048
    + CASE WHEN i % 10 = 9 AND t % 500 = 0 THEN 7 ELSE 0 END AS v
  FROM aud, unnest(generate_series(0, n - 1)) AS g(t)
),
lagd AS MATERIALIZED (
  SELECT audio_id, v,
    lag(v) OVER (PARTITION BY audio_id ORDER BY t) AS vp
  FROM smp
)
SELECT audio_id,
  CAST(COUNT(*) AS BIGINT) AS n_samples,
  CAST(SUM(v * v) AS BIGINT) AS energy,
  CAST(COUNT(*) FILTER (WHERE vp IS NOT NULL AND v * vp < 0) AS BIGINT)
    AS zero_cross,
  CAST(MAX(abs(v)) AS BIGINT) AS peak_abs,
  CAST(SUM(v) AS BIGINT) AS sample_sum
FROM lagd GROUP BY audio_id
"""



VIDEO_DIR = "/tmp/graft_video_200"
VIDEO_N = 200
VIDEO_EVERY = 2


def q_video_frame_stats(sf_dir: str):
    """REAL video pipeline over rawvideo payload bytes (codec-free —
    closes the second stub-only multimodal axis): sample every
    VIDEO_EVERY-th fixed-stride RGB frame via numpy frombuffer in an
    actor-pool stage, emit exact integer per-frame statistics.  The
    oracle replays the generative pixel formula pix = (x*3 + y*5 +
    c*7 + f*11 + i*17) mod 256 through a generate_series cross join,
    value-hash-verifying the frame-slicing decode end-to-end.
    Output (video_id, frame_idx, px_sum, px_min, px_max)."""
    from rhealpixdggs_py_ray.fixtures import write_video_table
    from rhealpixdggs_py_ray.ops.multimodal import RawVideoFrameStats

    write_video_table(VIDEO_DIR, VIDEO_N)
    ds = ray.data.read_parquet(
        VIDEO_DIR,
        columns=["video_id", "bytes", "w", "h", "fmt", "n_frames"],
        override_num_blocks=sizing.read_blocks(VIDEO_DIR, profile=8))
    return sizing.stateful_map(
        ds, RawVideoFrameStats,
        fn_constructor_kwargs={"every_n_frames": VIDEO_EVERY},
        batch_format="pyarrow", zero_copy_batch=True)


def sql_video_frame_stats() -> str:
    from rhealpixdggs_py_ray.fixtures import write_video_table

    write_video_table(VIDEO_DIR, VIDEO_N)  # driver may run SQL first
    return f"""
WITH vid AS MATERIALIZED (
  SELECT video_id, CAST(substr(video_id, 4, 8) AS BIGINT) AS i,
    CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
    CAST(n_frames AS BIGINT) AS nf
  FROM read_parquet('{VIDEO_DIR}/*.parquet')
),
vfr AS MATERIALIZED (
  SELECT video_id, i, w, h, f
  FROM vid, unnest(generate_series(0, nf - 1)) AS g(f)
  WHERE f % {VIDEO_EVERY} = 0
),
vpx AS MATERIALIZED (
  SELECT video_id, f,
    (x * 3 + y * 5 + c * 7 + f * 11 + i * 17) % 256 AS v
  FROM vfr,
    unnest(generate_series(0, w - 1)) AS gx(x),
    unnest(generate_series(0, h - 1)) AS gy(y),
    unnest(generate_series(0, 2)) AS gc(c)
)
SELECT video_id, CAST(f AS BIGINT) AS frame_idx,
  CAST(SUM(v) AS BIGINT) AS px_sum,
  CAST(MIN(v) AS BIGINT) AS px_min,
  CAST(MAX(v) AS BIGINT) AS px_max
FROM vpx GROUP BY video_id, f
"""



SCENE_CUT_T = 3000  # |px_sum delta| between consecutive sampled frames


def q_video_scene_cuts(sf_dir: str):
    """Scene-change detection on the real rawvideo path: a sampled
    frame is a cut when its pixel-sum jumps by more than SCENE_CUT_T
    against the previous sampled frame of the same video (the
    classic intensity-delta detector, exact integers end-to-end).
    Fused with the RawVideoFrameStats decode in one stage so a
    video's frames never straddle a batch boundary; per-video
    ordering is a vectorized in-batch lexsort, no exchange.  Output
    (video_id, frame_idx, delta)."""
    from rhealpixdggs_py_ray.fixtures import write_video_table
    from rhealpixdggs_py_ray.ops.multimodal import RawVideoFrameStats

    write_video_table(VIDEO_DIR, VIDEO_N)
    ds = ray.data.read_parquet(
        VIDEO_DIR,
        columns=["video_id", "bytes", "w", "h", "fmt", "n_frames"],
        override_num_blocks=sizing.read_blocks(VIDEO_DIR, profile=8))

    def cuts(batch: pa.Table) -> pa.Table:
        vid = np.asarray(batch["video_id"].to_pylist(), dtype=object)
        f = batch["frame_idx"].to_numpy(zero_copy_only=False)
        s = batch["px_sum"].to_numpy(zero_copy_only=False)
        order = np.lexsort((f, vid.astype(str)))
        vid, f, s = vid[order], f[order], s[order]
        same = np.zeros(len(vid), dtype=bool)
        if len(vid) > 1:
            same[1:] = vid[1:] == vid[:-1]
        d = np.zeros(len(s), dtype=np.int64)
        d[1:] = s[1:] - s[:-1]
        hit = same & (np.abs(d) > SCENE_CUT_T)
        return pa.table({
            "video_id": pa.array(vid[hit].tolist(), type=pa.string()),
            "frame_idx": pa.array(f[hit]),
            "delta": pa.array(d[hit]),
        })

    class DecodeAndCut(RawVideoFrameStats):
        """Fused decode+cut: a video's frames never straddle a batch
        boundary because the cut step runs on the SAME batch the
        decode produced (Ray may re-slice blocks between stages)."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            return cuts(super().__call__(batch))

    return sizing.stateful_map(
        ds, DecodeAndCut,
        fn_constructor_kwargs={"every_n_frames": VIDEO_EVERY},
        batch_format="pyarrow", zero_copy_batch=True)


def sql_video_scene_cuts() -> str:
    return f"""
WITH vsr AS MATERIALIZED (
  SELECT * FROM ({sql_video_frame_stats()}) q
),
vsd AS MATERIALIZED (
  SELECT video_id, frame_idx,
    px_sum - lag(px_sum) OVER (PARTITION BY video_id ORDER BY frame_idx)
      AS delta
  FROM vsr
)
SELECT video_id, frame_idx, CAST(delta AS BIGINT) AS delta
FROM vsd WHERE abs(delta) > {SCENE_CUT_T}
"""



AUDIO_ND_WIN = 256    # fingerprint window (samples)
AUDIO_ND_Q = 4096     # window-energy quantum (LSH band)
AUDIO_ND_MAX = 8      # verify: max differing samples


def q_audio_neardup(sf_dir: str):
    """Audio near-dup detection over REAL raw-PCM bytes — the
    near-dup family's audio modality (images: phash bands; text:
    minhash): per audio, window abs-energy fingerprints (full
    AUDIO_ND_WIN-sample windows), banded by (window, length,
    energy // AUDIO_ND_Q); candidates share >= 1 band; verification
    is the exact count of differing samples <= AUDIO_ND_MAX over the
    equal-length trains (endpoint-only byte fetch via broadcast id
    set — the verified pair set is tiny, candidates are banded,
    never all-pairs).  The fixture plants i%10==9 rows as +7-at-
    every-500th-sample copies of row i-1, so ground truth exists and
    the oracle replays fingerprints, banding AND the sample-level
    diff from the generative formula.  Output (audio_a, audio_b,
    n_diff)."""
    from rhealpixdggs_py_ray.fixtures import write_audio_table
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_to_driver

    write_audio_table(AUDIO_DIR, AUDIO_N)
    ds = ray.data.read_parquet(
        AUDIO_DIR, columns=["audio_id", "bytes"],
        override_num_blocks=sizing.read_blocks(AUDIO_DIR, profile=8))
    nb = 8

    def bands(batch: pa.Table) -> pa.Table:
        ids = batch["audio_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        out_b, out_i = [], []
        for aid, blob in zip(ids, blobs):
            v = np.abs(np.frombuffer(blob, dtype="<i2").astype(np.int64))
            n = len(v)
            nw = n // AUDIO_ND_WIN
            if not nw:
                continue
            e = v[:nw * AUDIO_ND_WIN].reshape(nw, AUDIO_ND_WIN).sum(axis=1)
            j = np.arange(nw, dtype=np.uint64)
            key = ((j << np.uint64(48))
                   | (np.uint64(n & 0xFFFF) << np.uint64(32))
                   | (e // AUDIO_ND_Q).astype(np.uint64))
            out_b.append(key)
            out_i.append(np.full(nw, int(aid[3:]), dtype=np.int64))
        if not out_b:
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "band": pa.array([], type=pa.uint64()),
                             "idx": pa.array([], type=pa.int64())})
        bk = np.concatenate(out_b)
        return pa.table({
            "bucket": pa.array(hash_bucket_u64(bk, nb)),
            "band": pa.array(bk, type=pa.uint64()),
            "idx": pa.array(np.concatenate(out_i)),
        })

    def pairs(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "band" not in g.column_names:
            return pa.table({"pk": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        bk = g["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ix = g["idx"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ix, bk))
        bk, ix = bk[order], ix[order]
        _, start = np.unique(bk, return_index=True)
        cnt = np.diff(np.append(start, len(bk)))
        out = []
        for s, c in zip(start.tolist(), cnt.tolist()):
            ii = ix[s:s + c]
            ia, ib = np.triu_indices(c, k=1)
            out.append((ii[ia] << np.uint64(32)) | ii[ib])
        pk = (np.unique(np.concatenate(out)) if out
              else np.array([], dtype=np.uint64))
        return pa.table({"pk": pa.array(pk, type=pa.uint64()),
                         "one": pa.array(np.ones(len(pk), dtype=np.int64))})

    # candidate pairs ascending: (audio_a, audio_b) lexicographic
    pk, _ = sum_to_driver(
        ds.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(pairs, batch_format="pyarrow"),
        "pk", "one")
    a = (pk >> np.uint64(32)).astype(np.int64)
    bb = (pk & np.uint64((1 << 32) - 1)).astype(np.int64)
    need = np.unique(np.concatenate([a, bb])) if len(pk) else \
        np.array([], dtype=np.int64)
    nref = ray.put(need)

    def fetch(batch: pa.Table) -> pa.Table:
        ids = np.array([int(x[3:]) for x in
                        batch["audio_id"].to_pylist()], dtype=np.int64)
        m = np.isin(ids, ray.get(nref))
        return pa.table({
            "idx": pa.array(ids[m]),
            "bytes": batch["bytes"].filter(pa.array(m)),
        })

    samples = {}
    for bt in ds.map_batches(fetch, batch_format="pyarrow",
                             zero_copy_batch=True) \
                .iter_batches(batch_format="pyarrow"):
        for ii, blob in zip(bt["idx"].to_pylist(),
                            bt["bytes"].to_pylist()):
            samples[int(ii)] = np.frombuffer(blob, dtype="<i2")
    out_a, out_b, out_d = [], [], []
    for x, y in zip(a.tolist(), bb.tolist()):
        va, vb = samples[x], samples[y]
        if len(va) != len(vb):
            continue
        d = int((va != vb).sum())
        if d <= AUDIO_ND_MAX:
            out_a.append(x)
            out_b.append(y)
            out_d.append(d)
    return pa.table({
        "audio_a": pa.array(np.array(out_a, dtype=np.int64)),
        "audio_b": pa.array(np.array(out_b, dtype=np.int64)),
        "n_diff": pa.array(np.array(out_d, dtype=np.int64)),
    })


def sql_audio_neardup() -> str:
    from rhealpixdggs_py_ray.fixtures import write_audio_table

    write_audio_table(AUDIO_DIR, AUDIO_N)
    return f"""
WITH aud AS MATERIALIZED (
  SELECT CAST(substr(audio_id, 4, 8) AS BIGINT) AS i,
    CAST(n_samples AS BIGINT) AS n
  FROM read_parquet('{AUDIO_DIR}/*.parquet')
),
smp AS MATERIALIZED (
  SELECT i, n, t,
    ((t * t * 7 + t * 13
      + (i - CASE WHEN i % 10 = 9 THEN 1 ELSE 0 END) * 31) % 4096)
      - 2048
    + CASE WHEN i % 10 = 9 AND t % 500 = 0 THEN 7 ELSE 0 END AS v
  FROM aud, unnest(generate_series(0, n - 1)) AS g(t)
),
wnd AS MATERIALIZED (
  SELECT i, n, t // {AUDIO_ND_WIN} AS j,
    CAST(SUM(abs(v)) AS BIGINT) AS e
  FROM smp WHERE t < (n // {AUDIO_ND_WIN}) * {AUDIO_ND_WIN}
  GROUP BY i, n, t // {AUDIO_ND_WIN}
),
bk AS MATERIALIZED (
  SELECT i, j, n, e // {AUDIO_ND_Q} AS eq FROM wnd
),
cand AS MATERIALIZED (
  SELECT DISTINCT x.i AS a, y.i AS b
  FROM bk x JOIN bk y
    ON x.j = y.j AND x.n = y.n AND x.eq = y.eq AND x.i < y.i
),
vdiff AS MATERIALIZED (
  SELECT c.a, c.b,
    CAST(COUNT(*) FILTER (WHERE va.v <> vb.v) AS BIGINT) AS n_diff
  FROM cand c
  JOIN smp va ON va.i = c.a
  JOIN smp vb ON vb.i = c.b AND vb.t = va.t
  GROUP BY c.a, c.b
)
SELECT a AS audio_a, b AS audio_b, n_diff
FROM vdiff WHERE n_diff <= {AUDIO_ND_MAX}
"""



def q_image_curation(sf_dir: str):
    """The composite curation flagship in one oracled query — the
    north-rule story end-to-end: verified near-dup pairs -> keep-best
    retention (losers = fewer pixels, ties -> larger index) ->
    survivors assigned to res-TILE_RES rHEALPix cells from their
    phash coordinates -> per-tile survivor counts.  The loser set is
    the bounded output of the banded detector (broadcast via ray.put,
    never a shuffle anti-join); tile partials fold map-side.  Output
    (tile_id, n_survivors)."""
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.fixtures import phash_to_lonlat

    pairs = (_image_neardup_pairs()
             .select_columns(["a", "b", "w_a", "h_a", "w_b", "h_b"])
             .to_pandas())  # bounded: verified pairs only
    pa_ = pairs["a"].to_numpy().astype(np.int64)
    pb_ = pairs["b"].to_numpy().astype(np.int64)
    pxa = (pairs["w_a"].to_numpy().astype(np.int64)
           * pairs["h_a"].to_numpy().astype(np.int64))
    pxb = (pairs["w_b"].to_numpy().astype(np.int64)
           * pairs["h_b"].to_numpy().astype(np.int64))
    losers = np.unique(np.where(
        pxa < pxb, pa_, np.where(pxb < pxa, pb_, np.maximum(pa_, pb_))))
    lref = ray.put(losers)

    ds = ray.data.read_parquet(
        IMG_DIR, columns=["image_id", "phash"],
        override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

    def tiles(batch: pa.Table) -> pa.Table:
        ii = pc.cast(pc.utf8_slice_codeunits(batch["image_id"], 3, 15),
                     pa.int64()).to_numpy(zero_copy_only=False)
        keep = ~np.isin(ii, ray.get(lref))
        ph = batch["phash"].to_numpy(zero_copy_only=False)[keep]
        lon, lat = phash_to_lonlat(ph)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        uq, cnt = np.unique(u, return_counts=True)
        return pa.table({
            "tile_id": su.to_string_fixed(uq.astype(np.uint64), TILE_RES),
            "n": pa.array(cnt.astype(np.int64)),
        })

    acc: dict = {}
    for b in ds.map_batches(tiles, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        for t, n in zip(b["tile_id"].to_pylist(), b["n"].to_pylist()):
            acc[t] = acc.get(t, 0) + n
    keys = sorted(acc)
    return pa.table({
        "tile_id": pa.array(keys, type=pa.string()),
        "n_survivors": pa.array([acc[k] for k in keys], type=pa.int64()),
    })


def sql_image_curation() -> str:
    ret = sql_image_retention()
    img_src = _image_src_sql()
    tiled = oracle.cell_from_point_sql(
        f"SELECT CAST(substr(image_id, 4, 12) AS BIGINT) AS img_idx,"
        f" lon, lat FROM {img_src} t",
        TILE_RES, CFG, id_cols=("img_idx",))
    return f"""
WITH icl AS MATERIALIZED (
  SELECT img_idx FROM ({ret}) q
),
ict AS MATERIALIZED (
  SELECT img_idx, cell_id FROM {tiled} t
)
SELECT cell_id AS tile_id, CAST(COUNT(*) AS BIGINT) AS n_survivors
FROM ict
WHERE NOT EXISTS (SELECT 1 FROM icl WHERE icl.img_idx = ict.img_idx)
GROUP BY cell_id
"""
