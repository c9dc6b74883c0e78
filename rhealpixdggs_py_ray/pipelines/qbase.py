"""Shared base for the query-suite family modules: imports,
constants, helpers and stage classes (split from the former
monolithic queries.py; VERDICT r4 item 4).  Family modules
star-import this namespace."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from rhealpixdggs_py_ray import oracle, sizing
from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import (
    CELLS0,
    EngineConfig,
    WGS84_002,
    WGS84_003,
    WGS84_123,
)
from rhealpixdggs_py_ray.ops.graph import DriverCapExceeded, check_driver_cap
from rhealpixdggs_py_ray.pipelines.knn import knn_brute
from rhealpixdggs_py_ray.pipelines.lattice import (
    DISSOLVE_LAT,
    DISSOLVE_RES,
    FLOOD_T,
    _cell_string_array_from_lattice,
    _dissolve_rowcol_sql,
    _lattice_cell_sql,
    _lattice_from_cell_strings,
    band_counts,
    halo_stencil,
    home_cells,
    lattice_cell_ids,
    lattice_of_u64,
    u64_of_lattice,
)
from rhealpixdggs_py_ray.pipelines.tiles import aggregate_tiles
from rhealpixdggs_py_ray.stages.join import CoverSemiJoin, make_cover_ref

RES = 9          # headline indexing resolution (BASELINE.json metric)
TILE_RES = 2     # SUID-prefix tile resolution for groupby demos
CFG = WGS84_003

# Spatial-join bbox (lon1, lat1, lon2, lat2), degrees.
BBOX = (-40.0, -35.0, 95.0, 50.0)
COVER_RES = 2
COVER_PAD = 16.0  # degrees; cover stays a superset, refine stage is exact


def _read(sf_dir: str, table: str, columns=None, blocks: int | None = 16):
    # ``blocks`` is the measured bench-box profile (16 default; 4 for
    # exchange-bound queries: A/B'd in BASELINE.md — a map-only docs
    # query 0.77s @32 vs 0.38s @8 blocks, exchange fixed cost scales
    # with blocks x partitions).  sizing.read_blocks keeps that value
    # at sandbox scale and switches to fragment/128MiB-driven counts on
    # big inputs, so the override can never fuse a 100 TB read into 16
    # giant tasks (VERDICT r2 item 1).
    kwargs = {"columns": columns}
    path = f"{sf_dir}/{table}.parquet"
    if blocks is not None:
        kwargs["override_num_blocks"] = sizing.read_blocks(path, profile=blocks)
    return ray.data.read_parquet(path, **kwargs)


def _libm_log(a: np.ndarray) -> np.ndarray:
    """Scalar-libm natural log per UNIQUE value.  numpy's SIMD np.log
    path (arrays of length >= 4) differs from libm — and therefore
    from DuckDB's ln() — by 1 ulp on ~25% of inputs, which can flip a
    floor(x * 10^k) quantization at term boundaries.  Count-valued
    inputs have few uniques, so a math.log lookup is cheap and exact.
    (Continuous-valued sites like web_tiles keep SIMD: their floor
    quantum is ~1e14 ulps wide, so a 1-ulp wobble cannot flip.)"""
    import math

    uq, inv = np.unique(a, return_inverse=True)
    return np.array([math.log(float(u)) for u in uq])[inv]


# ---------------------------------------------------------------------------
# Point indexing (cell_from_point, the hot path)
# ---------------------------------------------------------------------------

class DeriveAndIndex:
    """Actor-pool stage: id -> (lon, lat) -> res-RES cell.  DGGS tables
    are materialized once per actor (the reference rebuilds its
    projection closure per point, dggs.py:414-421)."""

    def __init__(self, resolution: int = RES, id_col: str = "event_id"):
        self.resolution = resolution
        self.id_col = id_col
        CFG._tables()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        u = idx.cell_from_point(CFG, self.resolution, lon, lat, plane=False)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "lon": pa.array(lon, type=pa.float64()),
                "lat": pa.array(lat, type=pa.float64()),
                "cell_u64": pa.array(u, type=pa.uint64()),
                "cell_id": su.to_string_fixed(u, self.resolution),
            }
        )


def indexed_events(sf_dir: str, resolution: int = RES, batch_size: int = 65536):
    ds = _read(sf_dir, "events", columns=["event_id"])
    if sizing.use_actor_pool(f"{sf_dir}/events.parquet"):
        return ds.map_batches(
            DeriveAndIndex,
            fn_constructor_kwargs={"resolution": resolution},
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
            concurrency=sizing.pool(),
        )
    # small input: the same callable as a task map — the actor pool's
    # ~0.8 s launch latency never amortizes here (sizing.use_actor_pool)
    return ds.map_batches(
        DeriveAndIndex(resolution=resolution),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def _points_sql(table: str, id_col: str) -> str:
    lon, lat = oracle.lonlat_from_id_sql(id_col)
    return f"SELECT {id_col}, {lon} AS lon, {lat} AS lat FROM {table}"


# Recentered configs (reference projection_wrapper.py:89-121 lon_0 /
# lat_0 handling) — the first SQL-oracled coverage OFF the
# lon_0=lat_0=0 grid (round-3 VERDICT gap 1).  Non-integer shifts keep
# fixture points clear of cell boundaries at every resolution.
CFG_LON0 = EngineConfig(lon_0=31.25)
CFG_SHIFTED = EngineConfig(lon_0=-47.5, lat_0=16.75)


def _cell_from_point_cfg_q(cfg: EngineConfig, res: int = RES):
    def q(sf_dir: str):
        ds = _read(sf_dir, "events", columns=["event_id"])

        def index(batch: pa.Table) -> pa.Table:
            ids = batch["event_id"].to_numpy(zero_copy_only=False)
            lon, lat = oracle.lonlat_from_id(ids)
            u = idx.cell_from_point(cfg, res, lon, lat, plane=False)
            return pa.table({
                "event_id": batch["event_id"],
                "cell_id": su.to_string_fixed(u, res),
            })

        return ds.map_batches(index, batch_format="pyarrow", zero_copy_batch=True)

    return q


RADIANS_N = 1000


_FACE_LETTERS = np.array(list(CELLS0))


ZONAL_ZONES = (
    ((-30.0, 35.0), (20.0, 38.0), (25.0, 5.0), (-20.0, -8.0)),
    ((0.0, 20.0), (60.0, 30.0), (70.0, -15.0), (5.0, -25.0)),
    ((-120.0, 10.0), (-60.0, 25.0), (-55.0, -20.0), (-110.0, -30.0)),
)


# ---------------------------------------------------------------------------
# Grid enumeration (dggs.grid, embarrassingly parallel)
# ---------------------------------------------------------------------------

GRID_RES = 3


GRID_UL_RES = 4


# ---------------------------------------------------------------------------
# kNN (broadcast queries + per-batch partial top-k + per-query reduce)
# ---------------------------------------------------------------------------

KNN_Q = 8
KNN_K = 5


def derived_events(sf_dir: str):
    """events.event_id -> (lon, lat) only — for consumers that never
    touch cells (brute kNN): plain task-pool map, no actor spin-up, no
    SUID string build."""
    ds = _read(sf_dir, "events", columns=["event_id"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = oracle.lonlat_from_id(ids)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "lon": pa.array(lon, type=pa.float64()),
                "lat": pa.array(lat, type=pa.float64()),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Relational shuffle patterns over the TPC-H-ish tables
# ---------------------------------------------------------------------------

class _LineitemCombiner:
    """Per-batch partial aggregation (combiner) before the small groupby:
    quantized to integer cents via floor so merge order can't change a
    single bit of the result.  Pure numpy segment sums — no pandas
    round-trip in the hot path."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rf = batch["l_returnflag"].to_numpy(zero_copy_only=False).astype("U1")
        ls = batch["l_linestatus"].to_numpy(zero_copy_only=False).astype("U1")
        q = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        b = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        d = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1 - batch["l_discount"].to_numpy(zero_copy_only=False))
            * 100
        ).astype(np.int64)
        key = np.char.add(rf, ls)
        uq, inv = np.unique(key, return_inverse=True)
        k = len(uq)
        sums = np.zeros((3, k), dtype=np.int64)
        np.add.at(sums[0], inv, q)
        np.add.at(sums[1], inv, b)
        np.add.at(sums[2], inv, d)
        n = np.bincount(inv, minlength=k).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": pa.array([s[0] for s in uq], type=pa.string()),
                "l_linestatus": pa.array([s[1] for s in uq], type=pa.string()),
                "sum_qty_c": pa.array(sums[0]),
                "sum_base_c": pa.array(sums[1]),
                "sum_disc_c": pa.array(sums[2]),
                "n_part": pa.array(n),
            }
        )


VOCAB_W = 3      # word n-gram width for the vocabulary
VOCAB_K = 50     # global top-k
VOCAB_BUCKETS = 16


SALIENT_K = 3


BOTTOMK_K = 5


CHUNK_W = 32   # tokens per chunk
CHUNK_S = 24   # stride (8-token overlap)


DECON_EVAL_MAX_ID = 50  # doc_id < 50 plays the held-out benchmark set


# ---------------------------------------------------------------------------
# Sessionization (event-time gap > 30 min) — groupby + map_groups
# ---------------------------------------------------------------------------

SESSION_GAP_S = 1800


# ---------------------------------------------------------------------------
# Training-data ops: dedup, similarity search, text analysis
# (rhealpixdggs_py_ray/ops/*, SURVEY.md §2.6 extension surface)
# ---------------------------------------------------------------------------

def _docs(sf_dir: str):
    # 8 blocks: halves the pair pipelines' exchange fan-in vs 16 while
    # still feeding the 8-actor hash stages (A/B at sf0.1: minhash
    # 2.0->1.7s, ngram 2.4->1.8s; 4 blocks is no better)
    return _read(sf_dir, "documents", columns=["doc_id", "text"], blocks=8)


def _minhash_pairs(sf_dir: str):
    """Verified minhash pair set, cached under the process-wide byte
    budget (state/dscache.PAIR_CACHE): three consumers (q_minhash_lsh,
    q_dedup_clusters, q_contrastive_pairs) would otherwise each
    re-execute the full shingle->minhash->band->verify lineage
    (CLAUDE.md: N downstream consumers re-run lineage N times).  The
    pair set is tiny (verified near-dup pairs only); LRU eviction
    bounds a long-lived session across many input dirs."""
    from rhealpixdggs_py_ray.ops import dedup
    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    return PAIR_CACHE.get_or_build(
        f"minhash:{sf_dir}",
        lambda: dedup.minhash_lsh_pairs(_docs(sf_dir)).materialize())


def _ngram_pairs(sf_dir: str):
    """Verified ngram-jaccard pair set, cached in PAIR_CACHE
    (consumers: q_ngram_jaccard, q_dedup_coverage)."""
    from rhealpixdggs_py_ray.ops import dedup
    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    return PAIR_CACHE.get_or_build(
        f"ngram:{sf_dir}",
        lambda: dedup.ngram_jaccard_pairs(_docs(sf_dir)).materialize())


def _containment_pairs(sf_dir: str):
    """Verified containment pair set, cached in PAIR_CACHE
    (consumers: q_dedup_containment, q_dedup_coverage)."""
    from rhealpixdggs_py_ray.ops import dedup
    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    return PAIR_CACHE.get_or_build(
        f"containment:{sf_dir}",
        lambda: dedup.ngram_jaccard_pairs(
            _docs(sf_dir), jaccard_min=0.4,
            metric="containment").materialize())


EMB_D = 64  # fixture embedding width (TESTDATA.md)


# ---------------------------------------------------------------------------
# DGGS cover / topology queries (round 2: all value-hash oracled via
# closed-form cover SQL; semantics additionally golden-tested against
# the reference in tests/)
# ---------------------------------------------------------------------------

# Equatorial-band polygon so the DuckDB oracle can enumerate the cover
# closed-form (rows x cols + centroid PIP); polar-crossing polygons are
# golden-tested against the walk in tests/test_cover.py.
POLYFILL_POLY = [(-30.0, 38.0), (40.0, 41.0), (35.0, -10.0), (-25.0, -5.0)]
POLYFILL_RES = 4


# North-cap polygon in generic position, strictly inside the top
# triangle of face N with >= 3 res-3 (>= 10 res-4) cell widths of
# diagonal margin (verified: |dy| - |dx| in [3.38, 4.35] res-3 cell
# widths at the vertices).
POLY_POLAR = [(20.0, 62.3), (70.0, 58.7), (61.0, 71.8), (33.0, 69.4)]
POLYFILL_POLAR_RES = 4


# Same cap polygon rotated +90 degrees: under north_square=1 the lon
# range [90, 180) maps to the top triangle of the (relocated) N square.
POLY_POLAR_NS = [(110.0, 62.3), (160.0, 58.7), (151.0, 71.8), (123.0, 69.4)]


# Mirrored into the SOUTH cap's top triangle (ss=0: lon [-180, -90)).
POLY_POLAR_S = [(-160.0, -62.3), (-110.0, -58.7), (-119.0, -71.8), (-147.0, -69.4)]


KRING_RES = 5
KRING_K = 2
KRING_N_EVENTS = 200


KRING_POLAR_RES = 4
KRING_POLAR_N = 256


def _polar_seed_lonlat(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic north-cap seed points, bit-exact on both sides:
    dyadic fractions only (m/256, m/512 are exact binary; 360*m/256 =
    45*m/32 and 44*m/512 = 11*m/128 are exact doubles)."""
    lon = -180.0 + 360.0 * ((ids * 73 % 256) / 256.0)
    lat = 45.0 + 44.0 * ((ids * 151 % 512) / 512.0)
    return lon, lat


RASTER_RES = 3
RASTER_NX = 256  # power-of-two sample grid: i/256, j/128 are exact
RASTER_NY = 128  # binary fractions, so lon/lat are bit-identical in SQL


VALIDATE_RE = r"^[NOPQRS][0-8]{0,15}$"


REG_EPOCH_DAYS = 19723  # days(1970-01-01 .. 2024-01-01); centers x so


def _fragmented_events(sf_dir: str, n_frags: int = 24) -> str:
    """24-fragment copy of the events table under /tmp (the small-file
    problem fixture; idempotent, marker-guarded)."""
    import os

    import pyarrow.parquet as pq

    src = f"/tmp/graft_compact_src_{os.path.basename(sf_dir.rstrip('/'))}"
    marker = os.path.join(src, ".complete")
    if not os.path.exists(marker):
        os.makedirs(src, exist_ok=True)
        t = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])
        n = t.num_rows
        per = -(-n // n_frags)
        for k in range(n_frags):
            pq.write_table(t.slice(k * per, per), os.path.join(src, f"f{k:03d}.parquet"))
        open(marker, "w").close()
    return src


CSV_FIXTURE_N = 20000
CSV_FIXTURE_PATH = f"/tmp/graft_csv_fixture_{CSV_FIXTURE_N}.csv"


def _write_csv_fixture() -> str:
    """Deterministic CSV fixture (integer columns only — no float ever
    crosses the text boundary); idempotent, safe whichever side (Ray
    query or DuckDB oracle) runs first."""
    import os

    import pyarrow.csv as pacsv

    if os.path.exists(CSV_FIXTURE_PATH):
        return CSV_FIXTURE_PATH
    i = np.arange(CSV_FIXTURE_N, dtype=np.int64)
    t = pa.table({
        "event_id": pa.array(i),
        "event_type": pa.array(
            np.array([f"t{k}" for k in range(5)], dtype=object)[i % 5],
            type=pa.string(),
        ),
        "v_c": pa.array((i * 2654435761) % 100000),
    })
    tmp = CSV_FIXTURE_PATH + ".tmp"
    pacsv.write_csv(t, tmp)
    os.replace(tmp, CSV_FIXTURE_PATH)
    return CSV_FIXTURE_PATH


HLL_P = 8  # 2^8 = 256 registers


LATBAND_FIXTURES = ((-35.0, 18.0), (-12.5, 38.0), (5.0, 9.0))
LATBAND_RES = 4


N_ASOF_BUCKETS = 8  # exchange fixed cost ~ blocks x partitions


# 24 OVERLAPPING numeric bands over events.value (each 30 wide, step
# 20): events in an overlap region match two bands (multi-match range
# semantics).  Constants integral -> exact float64 on both sides.
RANGE_BANDS = [(20.0 * i, 20.0 * i + 30.0) for i in range(24)]


# ---------------------------------------------------------------------------
# Line / region covers, ring kNN, checkpointed run
# ---------------------------------------------------------------------------

# Equatorial-band polylines in generic position so the walk is
# oracle-checkable (closed-form Liang-Barsky cover SQL); polar
# segments are golden-tested in tests/test_cover.py.
LINETRACE_LINES = [
    [(-29.63, -10.2), (40.37, 25.3)],
    [(100.4, 10.3), (140.2, -34.7), (169.6, 0.45)],
    [(-119.5, 30.2), (-60.3, 40.3)],
]
LINETRACE_RES = 4


REGION_UL = (-20.0, 40.0)
REGION_DR = (50.0, -15.0)


# North-cap region strictly inside the lon (0, 90) quadrant (the top
# triangle of face N under north_square=0), generic-position bounds.
REGION_POLAR_UL = (18.7, 71.3)
REGION_POLAR_DR = (72.4, 57.9)


# North-cap parallels, lon span inside the (0, 90) quadrant => the walk
# is one straight descending-column run on the ring's top edge.
PARALLEL_POLAR_FIXTURES = [
    (6.3, 83.1, 47.2),
    (11.9, 78.4, 58.6),
    (23.7, 66.2, 70.9),
    (31.4, 58.8, 79.3),
]


# Equatorial-band fixtures (|authalic lat| < asin(2/3); fractional
# degrees keep every point off the res-3 row/column boundaries, which
# sit at multiples of 90/27 deg in projected space).
PARALLEL_FIXTURES = [
    (-60.4, 25.2, 17.3),
    (-88.7, -1.6, -29.7),
    (3.9, 77.1, 5.1),
    (100.3, 171.2, 33.3),
    (-170.2, -95.8, -11.9),
    (22.6, 101.4, 24.7),
]
MERIDIAN_FIXTURES = [
    (17.3, -28.6, 31.4),
    (-141.8, -33.2, 12.9),
    (76.4, -5.7, 34.1),
    (-12.1, -34.4, -3.3),
    (155.9, 8.2, 29.8),
]
COVER_LINE_RES = 3


PYRAMID_MAX_RES = 3


N_REGION_PAIRS = 200
REGION_PAIR_OFFSET = 3000


INTERVAL_PAIRS = [("N1", "N8"), ("O23", "O45"), ("Q888", "R011"), ("S00", "S12")]


# boundary(n=3) corner-relative offset plan, mirroring the reference's
# accumulated-corner arithmetic (cell.py:756-831): entries are
# (x_expr_kind, y_expr_kind) consumed by both the numpy kernel and SQL
BOUNDARY_N = 3


INTERIOR_N = 3


CONTAINS_RES = 3
CONTAINS_N = 2000


OVERLAP_REGION = ["N4", "P12", "Q", "S888"]


RANDOM_N = 5000
RANDOM_MAX_RES = 10


ZONE_POLY = [
    (18.0, 14.0), (24.0, 12.0), (27.0, 6.0), (24.0, 1.0),
    (19.0, -2.0), (14.0, 2.0), (12.0, 8.0), (14.0, 12.0),
]
ZONE_RES = 6


# ---------------------------------------------------------------------------
# Image-query oracles: DuckDB reads the SAME deterministic fixture
# parquet and recomputes faces from phash plus channel means from the
# GENERATIVE pixel formula (fixtures.gen_pixels) — so the oracle
# independently verifies the Ray side's decode -> resize -> feature
# chain (any decode bug shifts the Ray means off the closed form).
# Integer pixel sums / 2^10 divisions are order-independent floats, so
# the comparison is bit-exact.
# ---------------------------------------------------------------------------

IMG_N = 2000
IMG_DIR = f"/tmp/graft_images_{IMG_N}"


def _image_src_sql() -> str:
    from rhealpixdggs_py_ray.fixtures import write_images_table

    write_images_table(IMG_DIR, IMG_N)  # idempotent; driver may run SQL first
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    r2d = oracle._lit(180.0 / np.pi)
    scale = oracle._lit(84.0 / 90.0)
    lon = f"(-180.0 + 360.0 * (CAST((u >> 32) & 4294967295 AS DOUBLE) / 4294967296.0))"
    lat = f"((asin(2.0 * (CAST(u & 4294967295 AS DOUBLE) / 4294967296.0) - 1.0) * {r2d}) * {scale})"
    return (
        f"(SELECT image_id, w, h, phash, u, {lon} AS lon, {lat} AS lat FROM"
        f" (SELECT image_id, w, h, phash, {u} AS u"
        f"  FROM read_parquet('{IMG_DIR}/*.parquet')) q)"
    )


PATCH_PX = 16


NEARDUP_MAX_HAMMING = 6
def _image_neardup_pairs():
    """Verified image near-dup pair set (with (w, h) payload for
    image_retention), cached in PAIR_CACHE: four consumers
    (image_neardup, image_clusters, triangle_count,
    multimodal_neardup) would each re-execute the
    decode->phash->LSH->verify lineage."""
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.fixtures import write_images_table
    from rhealpixdggs_py_ray.ops.multimodal import image_near_dup_pairs
    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    def build():
        write_images_table(IMG_DIR, IMG_N)
        ds = ray.data.read_parquet(
            IMG_DIR,
            override_num_blocks=sizing.read_blocks(IMG_DIR, profile=8))

        def add_idx(batch: pa.Table) -> pa.Table:
            ii = pc.cast(pc.utf8_slice_codeunits(batch["image_id"], 3, 15),
                         pa.int64())
            return batch.append_column("img_idx", ii)

        ds = ds.map_batches(add_idx, batch_format="pyarrow",
                            zero_copy_batch=True)
        # carry (w, h) through the verify exchange so image_retention
        # (loser = fewer pixels) reads the SAME cached pair set instead
        # of paying a second decode->phash->LSH pass
        return image_near_dup_pairs(
            ds, max_hamming=NEARDUP_MAX_HAMMING, extra_val_cols=("w", "h")
        ).materialize()

    return PAIR_CACHE.get_or_build(f"imgpairs:{IMG_DIR}", build)


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


JSON_FIXTURE_N = 48_000
JSON_FIXTURE_PATH = f"/tmp/graft_json_fixture_{JSON_FIXTURE_N}.jsonl"


def _write_json_fixture() -> str:
    """Deterministic JSON-lines fixture (integer payloads only);
    idempotent, safe whichever side runs first."""
    import os

    if os.path.exists(JSON_FIXTURE_PATH):
        return JSON_FIXTURE_PATH
    i = np.arange(JSON_FIXTURE_N, dtype=np.int64)
    kind = i % 4
    val = (i * 6364136223846793005) % 1_000_000
    lines = [
        '{"rec_id": %d, "kind": "k%d", "val": %d}' % (int(a), int(b), int(c))
        for a, b, c in zip(i, kind, val)
    ]
    tmp = JSON_FIXTURE_PATH + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, JSON_FIXTURE_PATH)
    return JSON_FIXTURE_PATH


# ---------------------------------------------------------------------------
# Round 2c: sequence packing (distributed prefix scan) + focal statistics
# ---------------------------------------------------------------------------

PACK_CTX = 384        # tokens per packed training context window
PACK_BUCKET_W = 128   # doc_id range-bucket width (order-preserving)


FOCAL_RES = 4  # 81 rows x 324 cols equatorial grid


# ---------------------------------------------------------------------------
# Round 2c: bloom decontamination, percentile rank, count-min sketch,
# left outer join
# ---------------------------------------------------------------------------

BLOOM_M = 16384  # bits
BLOOM_K = 3      # hash functions


CMS_D = 4    # sketch depth (hash functions)
CMS_W = 256  # sketch width
CMS_HH_MIN = 50  # heavy-hitter true-count threshold


# ---------------------------------------------------------------------------
# Round 2c: BM25 retrieval (integer-exact scoring)
# ---------------------------------------------------------------------------

BM25_NQ = 4        # query docs: doc_id 0..3 ("more-like-this" retrieval)
BM25_K = 10        # results per query
BM25_TF_SCALE = 10_000
BM25_IDF_SCALE = 1_000_000


# ---------------------------------------------------------------------------
# Round 2c: distance join, funnel, type-token ratio, count-of-counts
# ---------------------------------------------------------------------------

DISTJOIN_NPOI = 5
DISTJOIN_D2 = 1.44e12  # (1200 km)^2 chord threshold in m^2


# ---------------------------------------------------------------------------
# Round 2c: DGGS image mosaic + trajectory segmentation
# ---------------------------------------------------------------------------

MOSAIC_RES = 2


TRAJ_D2 = 6.4e13  # (8000 km)^2 chord-step segmentation threshold


# ---------------------------------------------------------------------------
# Round 2c: geofence cap cover
# ---------------------------------------------------------------------------

CAP_NPOI = 3
CAP_D2 = 9.0e12  # (3000 km)^2 ECEF chord


# ---------------------------------------------------------------------------
# Round 2d: image quality filter + thumbnail pyramid
# ---------------------------------------------------------------------------

IMGVAR_MIN = 4_000_000_000  # 1024^2-scaled channel-0 variance threshold


PYRAMID_LEVELS = (32, 16, 8)


# ---------------------------------------------------------------------------
# Round 2d: stream-stream window join + exact deep pagination
# ---------------------------------------------------------------------------

SSJOIN_WINDOW_US = 3_600_000_000  # 1 h


PAGE_OFFSET = 100
PAGE_SIZE = 10


INCR_SPLIT_DAY = 15


# ---------------------------------------------------------------------------
# Round 2e: BPE merge-candidate counting
# ---------------------------------------------------------------------------

BPE_TOPK = 20


# ---------------------------------------------------------------------------
# Round 2e: grid distance (h3_distance workalike)
# ---------------------------------------------------------------------------

GRIDDIST_RES = 4


GRIDPATH_MAX = 16  # pairs farther than this many cells are dropped


# ---------------------------------------------------------------------------
# Round 2e: snapshot diff (CDC-style table compare)
# ---------------------------------------------------------------------------

SNAPDIFF_CUT_DAY = 20
SNAPDIFF_REMOVE_DAY = 28


# ---------------------------------------------------------------------------
# Round 2e: in-memory polars/Arrow source
# ---------------------------------------------------------------------------

POLARS_N = 64_000


# ---------------------------------------------------------------------------
# Round 2e: space-time cube
# ---------------------------------------------------------------------------

CUBE_RES = 2


# ---------------------------------------------------------------------------
# Round 2f: window frames, watermarks, outer joins, span dedup, vector tiles
# ---------------------------------------------------------------------------

MOV_FRAME = 4  # ROWS BETWEEN 3 PRECEDING AND CURRENT ROW


LATE_GAP_US = 900_000_000  # 15 min watermark lag


SPAN_W = 8  # tokens per span (substring-level dedup granule)


# ---------------------------------------------------------------------------
# Round 2g: batching plans, mixture weights, normalization, overlay, Moran
# ---------------------------------------------------------------------------

LB_MAX_B = 15  # length buckets 2^0 .. 2^15 (fixture max is 100 tokens)


MIX_ALPHA_NOTE = "alpha = 0.5 (sqrt temperature)"


OVERLAY_A = [(-20.3, 30.2), (25.4, 33.1), (22.2, -8.4), (-18.7, -4.6)]
OVERLAY_B = [(0.3, 20.2), (45.6, 24.1), (41.4, -14.3), (2.6, -10.2)]
OVERLAY_RES = 4


MORAN_RES = 2  # 9 rows x 36 cols equatorial lattice


# ---------------------------------------------------------------------------
# Round 2h: iterative k-means training, event debounce, behavioral Gini
# ---------------------------------------------------------------------------

KM_ITERS = 3


def _kmeans_pass(sf_dir: str, labels: np.ndarray, C: np.ndarray):
    """One distributed Lloyd pass against broadcast centroids (the
    q_kmeans_step kernel, parameterized so iterations can chain):
    returns the (cluster, dim, sum_micros, n) update statistics."""
    from rhealpixdggs_py_ray.ops.ann import _seq_d2
    from rhealpixdggs_py_ray.ops.dedup import _emb_matrix

    cent_ref = ray.put((labels, C))
    # 2 read blocks: the exchange fixed cost scales with blocks x
    # partitions and the per-iteration latency IS the query cost here
    ds = _read(sf_dir, "embeddings", columns=["embedding"], blocks=2)

    def step(batch: pa.Table) -> pa.Table:
        labs, cm = ray.get(cent_ref)
        X = np.floor(_emb_matrix(batch).astype(np.float64) * 1000000.0)
        D = _seq_d2(X, cm)
        near = np.argmin(D, axis=1)  # first win == smallest label
        k, d = len(labs), X.shape[1]
        S = np.zeros((k, d), dtype=np.int64)
        np.add.at(S, near, X.astype(np.int64))
        n = np.bincount(near, minlength=k).astype(np.int64)
        used = np.flatnonzero(n > 0)
        return pa.table({
            "cluster": pa.array(np.repeat(labs[used], d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(used))),
            "sum_micros": pa.array(S[used].reshape(-1)),
            "n": pa.array(np.repeat(n[used], d)),
        })

    part = ds.map_batches(step, batch_format="pyarrow", zero_copy_batch=True)
    return part.groupby(["cluster", "dim"]).aggregate(
        Sum("sum_micros", alias_name="sum_micros"), Sum("n", alias_name="n")
    )


DEBOUNCE_US = 3_600_000_000  # 1 h (fixture gaps: min ~8 s at sf0.01,


OD_RES = 2


_NDOCS_CACHE: dict[str, int] = {}


def _ndocs(sf_dir: str) -> int:
    if sf_dir not in _NDOCS_CACHE:
        import pyarrow.parquet as pq

        _NDOCS_CACHE[sf_dir] = pq.ParquetFile(
            f"{sf_dir}/documents.parquet"
        ).metadata.num_rows
    return _NDOCS_CACHE[sf_dir]


# Cap-safe polar linetrace (round 3; BEYOND the reference, which
# documents cap cells broken in cells_from_line, dggs.py:1110-1114).
# The first segment is the reference's own doctest line; the second is
# a pole-adjacent crossing where the reference's neighbor walk skips
# N442/N445 (pinned in tests/test_polar_linetrace.py).
LINETRACE_POLAR_SEGS = [
    ((-89.669615, 86.549596), (-134.0, 86.0)),
    ((10.1, 87.9), (-79.3, 88.4)),
    ((23.7, 82.3), (157.3, 83.1)),
    ((-42.1, -84.7), (31.9, -83.3)),
    ((12.3, 41.2), (15.9, 44.8)),
]
LINETRACE_POLAR_RES = 3
LINETRACE_POLAR_N = 4096  # power of two: i/N exact, SQL parity


# Text lon/lat points source (Ellipsoid.get_points, ellipsoids.py:306-326)
POINTS_FIXTURE_PATH = "/tmp/graft_points_fixture.txt"
POINTS_FIXTURE_N = 4000
POINTS_RES = 4
# junk lines the leading-char rule must skip — incl. the quirk cases:
# leading '0', leading '+', leading '.' are all ignored (py2 reference
# behavior; see sources/points.py docstring)
POINTS_JUNK = ["# comment line", "", "lon lat", "0.25 33.25",
               "+17.5 2.5", ".5 .5"]


def _write_points_fixture() -> str:
    """Deterministic whitespace-delimited text fixture; repr() floats
    so both float parsers (Arrow cast, DuckDB CAST) see identical
    shortest-round-trip decimal strings.  Idempotent."""
    import os

    if os.path.exists(POINTS_FIXTURE_PATH):
        return POINTS_FIXTURE_PATH
    rows = []
    for i in range(POINTS_FIXTURE_N):
        if i % 7 == 3:
            rows.append(POINTS_JUNK[i % len(POINTS_JUNK)])
        lon = ((i * 2654435761) % 360000) / 1000.0 - 180.0
        lat = ((i * 40503 + 137) % 170000) / 1000.0 - 85.0
        rows.append(f"{lon!r} {lat!r}")
    tmp = POINTS_FIXTURE_PATH + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(rows) + "\n")
    os.replace(tmp, POINTS_FIXTURE_PATH)
    return POINTS_FIXTURE_PATH


# SDXL-style aspect-ratio bucketing for image-batch packing
ASPECT_BINS = [(1, 1), (4, 3), (3, 4), (16, 9), (9, 16)]


# Iterative link analysis (PageRank), round 3
PAGERANK_ITERS = 3
PAGERANK_TOPK = 20


# ---------------------------------------------------------------------------
# Dissolve: raster -> vector boundary of the occupied-cell region
# ---------------------------------------------------------------------------

def _dissolve_boundary(sf_dir: str):
    """Raster->vector dissolve (the north-star's raster<->vector tiling,
    vector direction): events -> occupied res-4 cells (exact distinct)
    -> outer/inner boundary RINGS of the occupied region as directed
    lattice edges, via edge cancellation.

    Inside the equatorial band the res-k cells of faces O..R form one
    global integer lattice (row from the base-3 row digits, col from
    face order O,P,Q,R + col digits; verified empirically and pinned in
    tests).  Every cell emits its 4 directed boundary edges weighted
    4+dir on an undirected edge key; an edge shared by two occupied
    cells is traversed twice in OPPOSITE directions (weight sum >= 8),
    so after one exact u64-key sum the boundary is ``wsum < 8`` and the
    surviving direction bit is ``wsum - 4``.  Two bucket exchanges
    total (cell distinct, edge cancel); both are mergeable partial sums
    -- the 10^12-row shape.  Vertical edges wrap modulo 4*3^k, so the
    dissolve is correct across the antimeridian seam.
    """
    from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

    k = DISSOLVE_RES
    W = 4 * 3 ** k
    occ = band_counts(indexed_events(sf_dir, resolution=k), "n_pts")

    def edges(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), k)
        # undirected key: typ<<41 | y<<21 | x ; weight 4 + direction
        def key(typ, y, x):
            return (np.int64(typ) << np.int64(41)) | (y << np.int64(21)) | x
        ekey = np.concatenate([
            key(0, gy, gx),                 # top,    traversed +x
            key(0, gy + 1, gx),             # bottom, traversed -x
            key(1, gy, (gx + 1) % W),       # right,  traversed +y
            key(1, gy, gx),                 # left,   traversed -y
        ])
        n = len(gx)
        w = np.concatenate([
            np.full(n, 5, dtype=np.int64), np.full(n, 4, dtype=np.int64),
            np.full(n, 5, dtype=np.int64), np.full(n, 4, dtype=np.int64),
        ])
        return pa.table({"ekey": pa.array(ekey.astype(np.uint64)),
                         "w": pa.array(w)})

    bd = sum_by_u64_key(
        occ.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True),
        "ekey", "w", "wsum",
    )

    def decode(batch: pa.Table) -> pa.Table:
        key = batch["ekey"].to_numpy(zero_copy_only=False).astype(np.int64)
        wsum = batch["wsum"].to_numpy(zero_copy_only=False)
        m = wsum < 8
        key, wsum = key[m], wsum[m]
        typ = key >> np.int64(41)
        y = (key >> np.int64(21)) & np.int64((1 << 20) - 1)
        x = key & np.int64((1 << 20) - 1)
        fwd = wsum == 5
        x1 = np.where(typ == 0, np.where(fwd, x, x + 1), x)
        x2 = np.where(typ == 0, np.where(fwd, x + 1, x), x)
        y1 = np.where(typ == 0, y, np.where(fwd, y, y + 1))
        y2 = np.where(typ == 0, y, np.where(fwd, y + 1, y))
        return pa.table({
            "ekey": pa.array(key), "x1": pa.array(x1), "y1": pa.array(y1),
            "x2": pa.array(x2), "y2": pa.array(y2),
        })

    return bd.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Line buffer cover: Chebyshev-r dilation of the linetrace supercover
# ---------------------------------------------------------------------------

LINE_BUFFER_R = 2  # lattice Chebyshev radius (cells)


# ---------------------------------------------------------------------------
# SemDeDup: semantic dedup inside nearest-centroid clusters
# ---------------------------------------------------------------------------

SEMDEDUP_TAU = 0.4


# ---------------------------------------------------------------------------
# IDW interpolation raster: inverse-distance-weighted field per tile
# ---------------------------------------------------------------------------

IDW_NPOI = 5


# ---------------------------------------------------------------------------
# Per-source quota (CCNet-style corpus balancing) + reverse-kNN counts
# ---------------------------------------------------------------------------

SOURCE_CAP = 40


def _dissolve_boundary_sql_ctes() -> str:
    """Boundary-edge CTE chain shared by sql_dissolve_rings (names
    prefixed b- to avoid collisions inside WITH RECURSIVE)."""
    k = DISSOLVE_RES
    W = 4 * 3 ** k
    pts = (
        f"SELECT event_id, lon, lat FROM ({_points_sql('events', 'event_id')}) p"
        f" WHERE abs(lat) <= {DISSOLVE_LAT!r}"
    )
    idx_sql = oracle.cell_from_point_sql(pts, k, CFG, id_cols=("event_id",))
    gy, gx = _dissolve_rowcol_sql(k)
    return f"""
bcells AS MATERIALIZED (
  SELECT DISTINCT cell_id FROM {idx_sql} t
),
brc AS MATERIALIZED (
  SELECT {gy} AS gy, {gx} AS gx FROM bcells
),
bed AS MATERIALIZED (
  SELECT 0 AS typ, gy AS ey, gx AS ex, 5 AS w FROM brc
  UNION ALL SELECT 0, gy + 1, gx, 4 FROM brc
  UNION ALL SELECT 1, gy, (gx + 1) % {W}, 5 FROM brc
  UNION ALL SELECT 1, gy, gx, 4 FROM brc
),
bg AS MATERIALIZED (
  SELECT typ, ey, ex, SUM(w) AS wsum FROM bed
  GROUP BY 1, 2, 3 HAVING SUM(w) < 8
),
bnd AS MATERIALIZED (
  SELECT (typ * {1 << 41} + ey * {1 << 21} + ex) AS ekey,
    CAST(CASE WHEN typ = 0 AND wsum = 4 THEN ex + 1 ELSE ex END AS BIGINT) AS x1,
    CAST(CASE WHEN typ = 1 AND wsum = 4 THEN ey + 1 ELSE ey END AS BIGINT) AS y1,
    CAST(CASE WHEN typ = 0 AND wsum = 5 THEN ex + 1 ELSE ex END AS BIGINT) AS x2,
    CAST(CASE WHEN typ = 1 AND wsum = 5 THEN ey + 1 ELSE ey END AS BIGINT) AS y2
  FROM bg
)"""


OOV_K = 64


# ---------------------------------------------------------------------------
# Grid flood: depth-capped multi-source BFS over the occupied lattice
# ---------------------------------------------------------------------------

FLOOD_D = 4       # BFS depth cap == halo width
FLOOD_SEED_MOD = 97


def _flood_seed(batch: pa.Table) -> np.ndarray:
    """1 for a flood seed event (event_id % FLOOD_SEED_MOD == 0), else 0."""
    return (batch["event_id"].to_numpy(zero_copy_only=False)
            % FLOOD_SEED_MOD == 0).astype(np.int64)


QUOTA_N = 73


# ---------------------------------------------------------------------------
# Adaptive (density-split) cover — data-dependent mixed-resolution tiling
# ---------------------------------------------------------------------------

ADAPT_MAX_RES = 4
ADAPT_CAP = 120


# ---------------------------------------------------------------------------
# Winnowing fingerprints + balanced level-order range sharding
# ---------------------------------------------------------------------------

WINNOW_K = 5   # char k-gram
WINNOW_W = 8   # window of consecutive k-gram hashes


SHARDS_S = 16
SHARDS_RES = 4


# ---------------------------------------------------------------------------
# Distance-band pair counting (Ripley's K numerator)
# ---------------------------------------------------------------------------

PAIR_RES = 3
PAIR_R_M = 150000.0  # chord radius; < half the res-3 cell width so the 3x3


# ---------------------------------------------------------------------------
# Trajectory analytics: geofence dwell time + impossible-travel flags
# ---------------------------------------------------------------------------

DWELL_BBOX = (-40.0, -35.0, 95.0, 50.0)  # same fence as BBOX


TRAVEL_V_MPS = 250.0  # flag transitions implying > 250 m/s sustained


CLIP_D = 16
CLIP_TAU = 0.0


def _clip_sql_parts():
    """Shared oracle pieces for the two-tower CLIP-style ops: the CTE
    chain from the images source through per-image (cimg) and
    per-caption (ctxt) embeddings, plus the fold-ordered cosine
    expression fragments.  Returns (prefix, num, inrm, tnrm)."""
    from rhealpixdggs_py_ray.fixtures import splitmix64, write_images_table

    write_images_table(IMG_DIR, IMG_N)
    i = np.arange(48 * CLIP_D, dtype=np.uint64)
    P_img = (2.0 * ((splitmix64(i + np.uint64(424242)) >> np.uint64(11)
                     ).astype(np.float64) / float(1 << 53)) - 1.0
             ).reshape(48, CLIP_D)
    j = np.arange(64 * CLIP_D, dtype=np.uint64)
    P_txt = (2.0 * ((splitmix64(j + np.uint64(515151)) >> np.uint64(11)
                     ).astype(np.float64) / float(1 << 53)) - 1.0
             ).reshape(64, CLIP_D)
    M = "18446744073709551616"
    u = f"CAST(((CAST(phash AS HUGEINT) % {M}) + {M}) % {M} AS UBIGINT)"
    from rhealpixdggs_py_ray.oracle import _lit
    # pooled pixel features: p{gi*3+c} = sum over gj of the decoded
    # 16x16 nearest-resized pixel (closed-form fixtures.gen_pixels:
    # (xi*3 + yi*5 + c*7 + ((u >> 8c) & 255)) % 256 at yi = gi*h//16,
    # xi = gj*w//16) — exact integers, cast to DOUBLE once
    pool_cols = ", ".join(
        "CAST(SUM(CASE WHEN gi = {gi} AND c = {c} THEN pxv ELSE 0 END)"
        " AS DOUBLE) AS p{i}".format(gi=i_ // 3, c=i_ % 3, i=i_)
        for i_ in range(48)
    )
    img_d = []
    for d in range(CLIP_D):
        terms = " + ".join(
            f"p{b} * ({_lit(float(P_img[b, d]))})" for b in range(48))
        img_d.append(f"({terms})")
    txt_d = []
    for d in range(CLIP_D):
        terms = " + ".join(
            f"tv{b} * ({_lit(float(P_txt[b, d]))})" for b in range(64))
        txt_d.append(f"({terms})")
    tv_cols = ", ".join(
        f"CAST(SUM(CASE WHEN bit = {b} THEN 1 ELSE 0 END) AS DOUBLE) AS tv{b}"
        for b in range(64))
    num = " + ".join(f"i{d} * t{d}" for d in range(CLIP_D))
    inrm = " + ".join(f"i{d} * i{d}" for d in range(CLIP_D))
    tnrm = " + ".join(f"t{d} * t{d}" for d in range(CLIP_D))
    img_cols = ", ".join(f"{e} AS i{d}" for d, e in enumerate(img_d))
    txt_cols = ", ".join(f"{e} AS t{d}" for d, e in enumerate(txt_d))
    prefix = f"""csrc AS MATERIALIZED (
  SELECT CAST(substr(image_id, 4) AS BIGINT) AS idx, caption,
    CAST(w AS BIGINT) AS iw, CAST(h AS BIGINT) AS ih, {u} AS u
  FROM read_parquet('{IMG_DIR}/*.parquet')
),
ctoks AS MATERIALIZED (
  SELECT idx, CAST(md5_number_lower(w) % 64 AS BIGINT) AS bit
  FROM (SELECT idx, unnest(regexp_split_to_array(trim(caption), '\\s+')) AS w
        FROM csrc) q
),
cvotes AS MATERIALIZED (
  SELECT idx, {tv_cols} FROM ctoks GROUP BY idx
),
lat AS MATERIALIZED (
  SELECT gi.gi, gj.gj, c.c FROM
    (SELECT unnest(generate_series(0, 15)) AS gi) gi,
    (SELECT unnest(generate_series(0, 15)) AS gj) gj,
    (SELECT unnest(generate_series(0, 2)) AS c) c
),
cpix AS MATERIALIZED (
  SELECT s.idx, l.gi, l.c,
    ((CAST(l.gj AS BIGINT) * s.iw) // 16) * 3
      + ((CAST(l.gi AS BIGINT) * s.ih) // 16) * 5
      + CAST(l.c AS BIGINT) * 7
      + CAST((s.u >> CAST(8 * l.c AS UBIGINT)) & 255 AS BIGINT) AS raw
  FROM csrc s, lat l
),
cpool AS MATERIALIZED (
  SELECT idx, {pool_cols}
  FROM (SELECT idx, gi, c, raw % 256 AS pxv FROM cpix) q
  GROUP BY idx
),
cimg AS MATERIALIZED (
  SELECT idx, {img_cols} FROM cpool
),
ctxt AS MATERIALIZED (
  SELECT idx, {txt_cols} FROM cvotes
)"""
    return prefix, num, inrm, tnrm


# ---------------------------------------------------------------------------
# Grid DBSCAN over the occupied lattice
# ---------------------------------------------------------------------------

DBSCAN_RES = 3
DBSCAN_MINPTS = 16


# ---------------------------------------------------------------------------
# Space-time co-location (contact tracing join)
# ---------------------------------------------------------------------------

COLOC_RES = 4
COLOC_T_S = 3600 * 24 * 7  # contact window: same cell within 7 days


# ---------------------------------------------------------------------------
# Home-cell inference + dictionary topic tagging
# ---------------------------------------------------------------------------

HOME_RES = 3


TOPIC_DICT = [
    ("commerce", ["order", "price", "ship", "pay"]),
    ("geo", ["cell", "map", "region", "tile"]),
    ("tech", ["data", "model", "train", "index"]),
]


# ---------------------------------------------------------------------------
# Antimeridian fence + group-aware split + rendezvous sharding
# ---------------------------------------------------------------------------

DATELINE_FENCE = (170.0, -25.0, -170.0, 25.0)  # lon wraps across +-180


RENDEZVOUS_SERVERS = 8
RENDEZVOUS_R = 3


QUANT_BITS = 127


# ---------------------------------------------------------------------------
# Fixed-width binary record source
# ---------------------------------------------------------------------------

BINREC_N = 60000
BINREC_SHARDS = 8
BINREC_DIR = "/tmp/graft_binrec"


def _write_binrec_fixture():
    """Deterministic packed little-endian records (id:i64, v:i64
    micros) across BINREC_SHARDS files — v = splitmix64(id) % 10^9."""
    import os

    from rhealpixdggs_py_ray.fixtures import splitmix64

    marker = os.path.join(BINREC_DIR, f".done_{BINREC_N}_{BINREC_SHARDS}")
    if os.path.exists(marker):
        return
    os.makedirs(BINREC_DIR, exist_ok=True)
    per = BINREC_N // BINREC_SHARDS
    for s in range(BINREC_SHARDS):
        ids = np.arange(s * per, (s + 1) * per, dtype=np.int64)
        v = (splitmix64(ids.astype(np.uint64))
             % np.uint64(1_000_000_000)).astype(np.int64)
        rec = np.empty((per, 2), dtype="<i8")
        rec[:, 0] = ids
        rec[:, 1] = v
        with open(os.path.join(BINREC_DIR, f"part-{s:03d}.bin"), "wb") as f:
            f.write(rec.tobytes())
    open(marker, "w").close()


# ---------------------------------------------------------------------------
# SimHash near-dup clusters (band LSH + Hamming verify + cc)
# ---------------------------------------------------------------------------

SIMHAM_MAX = 8


TILE_CHANGE_SPLIT = "2024-01-16"


Q3_DATE = "1998-06-15"


# ---------------------------------------------------------------------------
# Round-4 LLM-pipeline additions: Gopher-style quality gate, corpus
# bigram-LM scoring (the perplexity-filter shape), product quantization.
# ---------------------------------------------------------------------------

GOPHER_STOPWORDS = ("the", "a", "and", "of")  # presence, not frequency


BG_SCALE = 1_000_000_000  # per-bigram score quantum: (1e9 * nb) // nf
BG_PACK = 1 << 21         # unicode code points < 2^21 pack into u64


def _bigram_pairs(texts: list[str]):
    """All adjacent char-pair codes over a batch of texts, vectorized
    via the (n, max_len) code matrix (the Fingerprinter layout).
    Returns (doc_index, packed_bigram) int64 arrays."""
    n = len(texts)
    if n == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    mx = max(int(lens.max()), 2)
    codes = np.zeros((n, mx), dtype=np.int64)
    for i, t in enumerate(texts):
        if t:
            codes[i, : len(t)] = np.frombuffer(
                t.encode("utf-32-le"), dtype=np.uint32)
    valid = np.arange(mx - 1)[None, :] < (lens - 1)[:, None]
    packed = codes[:, :-1] * BG_PACK + codes[:, 1:]
    di, pj = np.nonzero(valid)
    return di, packed[di, pj]


def _train_bigram_lm(sf_dir: str):
    """Phase 1 of the perplexity-filter shape: distributed char-bigram
    counts over the whole corpus (per-batch np.unique partials folded
    on the driver) into a charset^2-bounded table.
    Returns (sorted packed keys, per-bigram quantized score q(b) =
    (BG_SCALE * count(b)) // count(first_char_position(b)))."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "documents", columns=["text"], blocks=4)

    def part(batch: pa.Table) -> pa.Table:
        _di, bg = _bigram_pairs(batch["text"].to_pylist())
        uq, cnt = np.unique(bg, return_counts=True)
        return pa.table({"bg": pa.array(uq.astype(np.uint64)),
                         "n": pa.array(cnt.astype(np.int64))})

    keys, nb = sum_to_driver(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "bg", "n")
    keys = keys.astype(np.int64)
    # broadcast table is charset^2-bounded; guard the bound AND the
    # BG_SCALE * nb packing headroom explicitly
    if not len(keys) < (1 << 22):
        raise AssertionError("bigram table exceeded broadcast bound")
    if not nb.max(initial=0) < (1 << 62) // BG_SCALE:
        raise AssertionError("bigram count overflow")
    first = keys // BG_PACK
    fu, fi = np.unique(first, return_inverse=True)
    nf = np.zeros(len(fu), dtype=np.int64)
    np.add.at(nf, fi, nb)
    q = (BG_SCALE * nb) // nf[fi]
    return keys, q


PQ_M, PQ_K, PQ_D = 4, 8, 16  # 4 subspaces x 16 dims, 8 codes each


def _pq_codebook() -> np.ndarray:
    """Deterministic (M, K, D) codebook on the 1/64 lattice: every
    centroid coordinate is ((k*37 + j*11 + s*5) % 16 - 7.5) / 32 — a
    multiple of 1/64, exact in binary, so the SQL mirror reproduces it
    bit-identically from the same closed form."""
    s = np.arange(PQ_M)[:, None, None]
    k = np.arange(PQ_K)[None, :, None]
    j = np.arange(PQ_D)[None, None, :]
    return (((k * 37 + j * 11 + s * 5) % 16) - 7.5) / 32.0


COSTD_H = 4        # hop cap == halo width (weights make it a cost cap 4..16)
COSTD_WMOD = 4     # per-cell entry weight 1 + (7*gy + 13*gx) % 4


MMR_NQ = 5      # queries (vec_id < MMR_NQ)
MMR_C = 8       # ANN candidate pool per query
MMR_S = 4       # diversified picks per query
MMR_WR, MMR_WD = 7, 3   # lambda = 0.7 scaled to integers


ZORD_SHIFT = 8   # 2^8 morton positions per layout block


def _morton_interleave(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Bit-interleaved Morton key (gx even bits, gy odd bits), loop
    over 9 static bit positions — mirrored term-for-term in SQL."""
    m = np.zeros(len(gx), dtype=np.int64)
    for b in range(9):
        m += ((gx >> b) & 1) * (4 ** b) + ((gy >> b) & 1) * (2 * 4 ** b)
    return m


PRIOSAMPLE_K = 50


def _split_of(ids: np.ndarray) -> np.ndarray:
    """md5(doc_id) % 100 -> train/val/test (the q_split_assign rule)."""
    from rhealpixdggs_py_ray.ops.dedup import md5_u64

    h = np.fromiter((md5_u64(str(int(d))) for d in ids), dtype=np.uint64,
                    count=len(ids)) % np.uint64(100)
    return np.where(h < 90, "train", np.where(h < 95, "val", "test"))


INGEST_MOD, INGEST_RES = 10, 7   # doc_id % 10 == 7 -> "new ingest batch"


CLIP_NQ, CLIP_K = 8, 5   # retrieval: 8 query captions, top-5 images


def _gi_z(gi, ki, n, sx, sxx):
    """Canonical Gi* z expression — the SAME IEEE op sequence as the
    SQL (sqrt/divide are correctly rounded, all inputs exact ints, so
    the doubles are bit-identical).  s2 <= 0 (constant surface) -> 0."""
    nf = n.astype(np.float64) if hasattr(n, "astype") else float(n)
    xbar = sx / nf
    s2 = sxx / nf - xbar * xbar
    kf = ki.astype(np.float64)
    den = np.sqrt(s2) * np.sqrt((nf * kf - kf * kf) / (nf - 1.0))
    z = np.where(
        (s2 > 0) & (den > 0), (gi.astype(np.float64) - kf * xbar) / np.where(den > 0, den, 1.0), 0.0)
    return z


SNAP_LINE = [(-58.37, -17.23), (-21.64, 6.91), (12.58, -4.47),
             (41.19, 13.77), (58.83, 1.29)]   # equatorial band, non-integer
SNAP_R2 = 4.0e12   # snap radius^2 in m^2 (2,000 km)


def _snap_segments():
    """Driver-side projected polyline segments as exact float64
    constants: (ax, ay, dxab, dyab, len2) per segment.  The SQL embeds
    these via repr literals (shortest-round-trip parse is bit-exact),
    so both sides snap against the IDENTICAL planar geometry."""
    from rhealpixdggs_py_ray.core import projection as proj

    lon = np.array([p[0] for p in SNAP_LINE], dtype=np.float64)
    lat = np.array([p[1] for p in SNAP_LINE], dtype=np.float64)
    vx, vy = proj.forward(CFG, lon, lat)
    segs = []
    for i in range(len(SNAP_LINE) - 1):
        ax, ay = float(vx[i]), float(vy[i])
        dxab, dyab = float(vx[i + 1] - vx[i]), float(vy[i + 1] - vy[i])
        segs.append((ax, ay, dxab, dyab, float(dxab * dxab + dyab * dyab)))
    return segs


WDIST_W = 7   # rolling window: distinct users over the trailing 7 days


# ---------------------------------------------------------------------------
# Round 4c: geofence enter/exit transitions
# ---------------------------------------------------------------------------

FENCE_RES = 1
FENCE_CELLS = ("N4", "S4")


# ---------------------------------------------------------------------------
# Round 4c: symmetric Hausdorff distance (user point set vs reference set)
# ---------------------------------------------------------------------------

HAUS_PTS = [(-97.43, 31.17), (-58.37, -17.23), (-3.82, 42.61),
            (12.58, -4.47), (77.21, 23.93), (139.67, -33.41)]


def _haus_xy():
    """Driver-side projected reference points as exact float64
    constants (repr literals cross to SQL bit-identically — the
    snap_to_line pattern)."""
    from rhealpixdggs_py_ray.core import projection as proj

    lon = np.array([p[0] for p in HAUS_PTS], dtype=np.float64)
    lat = np.array([p[1] for p in HAUS_PTS], dtype=np.float64)
    vx, vy = proj.forward(CFG, lon, lat)
    return [(float(x), float(y)) for x, y in zip(vx, vy)]


# ---------------------------------------------------------------------------
# Round 4c: viewshed (line-of-sight raster over the res-4 lattice)
# ---------------------------------------------------------------------------

VIEW_R = 16       # Chebyshev visibility radius (cells)
VIEW_OBS = (40, 162)   # observer (gy, gx) — mid-band, mid-seam-free
VIEW_OBS_H = 50   # observer mast height above terrain (m)


def _view_elev(gy, gx):
    """Deterministic integer terrain: elev(gy, gx) = (11*gy + 17*gx)
    % 997 — trivially mirrored in SQL (the cost_distance weight
    pattern)."""
    return (11 * gy + 17 * gx) % 997


# ---------------------------------------------------------------------------
# Round 4c: discrete Frechet distance (capped trajectory vs reference route)
# ---------------------------------------------------------------------------

FRECHET_P = 6   # per-user trajectory cap (first P points by ts, event_id)


def _frechet_ref():
    """SNAP_LINE vertices projected once on the driver (exact float64
    constants, repr-crossable)."""
    from rhealpixdggs_py_ray.core import projection as proj

    lon = np.array([p[0] for p in SNAP_LINE], dtype=np.float64)
    lat = np.array([p[1] for p in SNAP_LINE], dtype=np.float64)
    vx, vy = proj.forward(CFG, lon, lat)
    return [(float(x), float(y)) for x, y in zip(vx, vy)]


# ---------------------------------------------------------------------------
# Round 4c: Imai-Iri polyline simplification (min-vertex track within eps)
# ---------------------------------------------------------------------------

SIMP_P = 8           # per-user track cap (first P points by ts, event_id)
SIMP_EPS2 = 9.0e12   # corridor half-width^2 in planar m^2 (3,000 km)


# ---------------------------------------------------------------------------
# Round 4c: Viterbi map-matching (HMM over the reference route segments)
# ---------------------------------------------------------------------------

MM_T = 6                 # per-user observation cap
MM_PEN = 2_000_000       # transition penalty per segment of jump (d2-micros)


# ---------------------------------------------------------------------------
# Round 4c: Web-Mercator XYZ tile export (slippy-map interop)
# ---------------------------------------------------------------------------

WEBT_Z = 6


# ---------------------------------------------------------------------------
# Round 4c: per-tile event-type diversity (Gini impurity, exact integers)
# ---------------------------------------------------------------------------

EVT_TYPES = ("click", "error", "purchase", "signup", "view")


# ---------------------------------------------------------------------------
# Round 4d: per-user autocorrelation of hourly activity (exact integers)
# ---------------------------------------------------------------------------

ACF_LAGS = (1, 2, 3)


# ---------------------------------------------------------------------------
# Round 4d: geohash export (base32 interop, exact integer interleave)
# ---------------------------------------------------------------------------

GH_ALPHA = "0123456789bcdefghjkmnpqrstuvwxyz"
GH_PREC = 5  # 25 bits: 13 lon + 12 lat, lon leads (standard geohash)


# ---------------------------------------------------------------------------
# Round 4d: co-presence user graph (shared res-2 tile-day) + graph analytics
# ---------------------------------------------------------------------------

CN_DEG = 32   # per-middle neighbor cap for wedge generation (deterministic:
              # the CN_DEG smallest neighbor ids; row_number mirror in SQL)
KCORE_K = 3
KCORE_ITERS = 8

def _copresence_edges(sf_dir: str):
    """Undirected user-user edges (ua < ub): the two users share at
    least one distinct (res-2 tile, epoch day) visit.  Cached in
    PAIR_CACHE and MATERIALIZED (one process = one Ray session in
    every entry path) because common_neighbors, k_core, k_truss and
    clustering_coeff all consume it."""
    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    return PAIR_CACHE.get_or_build(
        f"copresence:{sf_dir}", lambda: _copresence_edges_build(sf_dir))


def _copresence_edge_ends(sf_dir: str, what: str):
    """Gather the co-presence edge keys to the driver under the one
    driver cap (``check_driver_cap(n, what)``) and split them into
    int64 endpoint arrays (ua, ub), ua < ub."""
    parts = [b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
             for b in _copresence_edges(sf_dir).iter_batches(batch_format="pyarrow")
             if b.num_rows]
    ek = np.concatenate(parts) if parts else np.array([], dtype=np.uint64)
    check_driver_cap(len(ek), what)
    return ((ek >> np.uint64(32)).astype(np.int64),
            (ek & np.uint64((1 << 32) - 1)).astype(np.int64))


def _copresence_edges_build(sf_dir: str):
    """Distinct visits fold through one u64 exchange; per-(tile,day)
    groups emit pair partials (group size bounded by concurrent
    visitors of one tile on one day); a second fold dedups edges."""
    from rhealpixdggs_py_ray.core import index as cidx
    from rhealpixdggs_py_ray.ops.agg import hash_bucket_u64, sum_by_u64_key

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
               blocks=4)

    def visits(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        if len(uid) and (int(uid.max()) >= (1 << 31)
                         or int(day.max()) >= (1 << 15)):
            raise AssertionError(
                "copresence packing needs user_id < 2^31, epoch day < 2^15"
                " (valid until 2059; repack if fixtures move)")
        lon, lat = oracle.lonlat_from_id(ids)
        u = cidx.cell_from_point(CFG, TILE_RES, lon, lat, plane=False)
        tile = u.astype(np.uint64) >> np.uint64(52)
        key = np.unique(((tile << np.uint64(15)) | day) << np.uint64(32)
                        | uid.astype(np.uint64))
        return pa.table({
            "key": pa.array(key, type=pa.uint64()),
            "one": pa.array(np.ones(len(key), dtype=np.int64)),
        })

    dvis = sum_by_u64_key(
        ds.map_batches(visits, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one", "m", n_buckets=8,
    )

    def by_td(batch: pa.Table) -> pa.Table:
        td = (batch["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
              >> np.uint64(32))
        return batch.append_column(
            "bucket2", pa.array(hash_bucket_u64(td, 8)))

    def pair_partials(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "key" not in g.column_names:
            return pa.table({"key": pa.array([], type=pa.uint64()),
                             "one": pa.array([], type=pa.int64())})
        key = np.sort(g["key"].to_numpy(zero_copy_only=False)
                      .astype(np.uint64))
        td = key >> np.uint64(32)
        uid = key & np.uint64((1 << 32) - 1)
        _, start = np.unique(td, return_index=True)
        cnt = np.diff(np.append(start, len(td)))
        out = []
        for s, c in zip(start.tolist(), cnt.tolist()):
            u = uid[s:s + c]  # sorted (key sorted within equal td prefix)
            ia, ib = np.triu_indices(c, k=1)
            out.append((u[ia] << np.uint64(32)) | u[ib])
        ek = np.concatenate(out) if out else np.array([], dtype=np.uint64)
        ek = np.unique(ek)
        return pa.table({
            "key": pa.array(ek, type=pa.uint64()),
            "one": pa.array(np.ones(len(ek), dtype=np.int64)),
        })

    edges = sum_by_u64_key(
        dvis.map_batches(by_td, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket2").map_groups(pair_partials, batch_format="pyarrow"),
        "key", "one", "w", n_buckets=8,
    ).materialize()
    return edges


def _copresence_sql_ctes() -> str:
    """Shared cnv/cne CTE text: distinct visits + deduped edges."""
    idx_sql = oracle.cell_from_point_sql(
        _points_sql("events", "event_id"), TILE_RES, CFG, id_cols=("event_id",)
    )
    return f"""
cnv AS MATERIALIZED (
  SELECT DISTINCT e.user_id, t.cell_id AS tile,
    epoch_us(e.ts) // 86400000000 AS day
  FROM events e JOIN (SELECT event_id, cell_id FROM {idx_sql} q) t
    ON t.event_id = e.event_id
),
cne AS MATERIALIZED (
  SELECT DISTINCT a.user_id AS ua, b.user_id AS ub
  FROM cnv a JOIN cnv b
    ON a.tile = b.tile AND a.day = b.day AND a.user_id < b.user_id
)"""


# ---------------------------------------------------------------------------
# Round 4d: Zipf rank-frequency slope over word bigrams
# ---------------------------------------------------------------------------

ZIPF_K = 256


# ---------------------------------------------------------------------------
# Round 4d: per-user convex hull (exact integer hull edges)
# ---------------------------------------------------------------------------

HULL_CAP = 32


# ---------------------------------------------------------------------------
# Round 4d: hybrid retrieval — reciprocal-rank fusion of text + vector lists
# ---------------------------------------------------------------------------

RRF_K = 20   # depth of each input ranking
RRF_N = 10   # fused results returned
RRF_C = 60   # classic RRF constant


# ---------------------------------------------------------------------------
# Round 4d: kernel-density raster over the equatorial lattice
# ---------------------------------------------------------------------------

KDE_R = 3  # triangular Chebyshev kernel: w(d) = KDE_R - d for d < KDE_R


# ---------------------------------------------------------------------------
# Round 4d: NDCG@10 of the IVF index vs exact cosine top-5
# ---------------------------------------------------------------------------

NDCG_Q = 10   # queries (vec_id < NDCG_Q)
NDCG_REL = 5  # exact top-REL defines the relevant set
NDCG_AT = 10  # IVF list depth scored


# ---------------------------------------------------------------------------
# Round 4d: distributed PCA top component (integer power iteration)
# ---------------------------------------------------------------------------

PCA_ITERS = 96  # tight eigengap on isotropic fixtures (0.93-0.98): 96
# rescaled integer iterations measured cos>=0.994 / lam err<=3e-4 vs eigh
PCA_SCALE = 1 << 20


# ---------------------------------------------------------------------------
# Round 4d: mobility sequence mining + predictability
# ---------------------------------------------------------------------------

TRIGRAM_K = 25


# ---------------------------------------------------------------------------
# Round 4d: gravity-model distance decay over OD tile flows
# ---------------------------------------------------------------------------

DECAY_RES = 2


# ---------------------------------------------------------------------------
# Round 4d: deterministic bootstrap CI of the daily event-count mean
# ---------------------------------------------------------------------------

BOOT_B = 64


# ---------------------------------------------------------------------------
# Round 4d: last-touch click attribution
# ---------------------------------------------------------------------------

ATTR_T_S = 3600


# ---------------------------------------------------------------------------
# Round 4d: hive-partitioned source with partition pruning
# ---------------------------------------------------------------------------

HIVE_TYPES = ("click", "purchase")


# ---------------------------------------------------------------------------
# Round 4d: seeded random walks over the co-presence graph (DeepWalk stage 1)
# ---------------------------------------------------------------------------

RW_LEN = 4
RW_WALKS = 2


# ---------------------------------------------------------------------------
# Round 4d: Haar wavelet energy spectrum per tile
# ---------------------------------------------------------------------------

HAAR_LEN = 32  # power-of-two day window from each tile's first day


# ---------------------------------------------------------------------------
# Round 4d: V-optimal histogram binning of the daily series
# ---------------------------------------------------------------------------

VOPT_K = 4


# ---------------------------------------------------------------------------
# Round 4d: density-based embedding outliers (LOF-lite on the kNN graph)
# ---------------------------------------------------------------------------

LOF_K = 5


# ---------------------------------------------------------------------------
# Round 4d: spectral bisection of the co-presence graph (Fiedler-lite)
# ---------------------------------------------------------------------------

SPEC_ITERS = 32  # sign pattern stabilizes early; 64 doubled oracle bind time
SPEC_SCALE = 1 << 20


# ---------------------------------------------------------------------------
# Round 4d: empirical-Bayes shrinkage of per-tile purchase rates
# ---------------------------------------------------------------------------

EB_ALPHA = 20


# ---------------------------------------------------------------------------
# Round 4d: greedy maximum-coverage facility placement over tiles
# ---------------------------------------------------------------------------

FAC_K = 5


# ---------------------------------------------------------------------------
# Round 4d: time-respecting influence spread (SIR-lite over tile-days)
# ---------------------------------------------------------------------------

SPREAD_SEED_MOD = 97


# ---------------------------------------------------------------------------
# Round 4d: Hilbert-curve storage layout over the res-4 lattice
# ---------------------------------------------------------------------------

HILB_BITS = 9   # 512x512 square covers the 324x81 equatorial lattice
HILB_SHARDS = 16


# ---------------------------------------------------------------------------
# Round 4d: deterministic negative sampling for link prediction
# ---------------------------------------------------------------------------

NEG_PER_NODE = 2
NEG_PROBES = 8


# ---------------------------------------------------------------------------
# Round 4d: Holt double exponential smoothing (integer fixed-point)
# ---------------------------------------------------------------------------

HOLT_SHIFT = 20     # 2^20 fixed-point state
HOLT_ALPHA = 4      # alpha = 1/4 (divide by 4, truncated)
HOLT_BETA = 4       # beta  = 1/4


# ---------------------------------------------------------------------------
# Round 4d: nonparametric trend tests over the daily series
# ---------------------------------------------------------------------------


def _daily_counts_driver(sf_dir: str):
    """Zero-filled global daily counts (bounded span), one driver fold:
    (first epoch day, int64 count per day)."""
    from rhealpixdggs_py_ray.ops.agg import sum_to_driver

    ds = _read(sf_dir, "events", columns=["ts"], blocks=4)

    def partial(batch: pa.Table) -> pa.Table:
        ts = (batch["ts"].to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = (ts // 86_400_000_000).astype(np.uint64)
        return pa.table({
            "key": pa.array(day, type=pa.uint64()),
            "one": pa.array(np.ones(len(day), dtype=np.int64)),
        })

    day, c = sum_to_driver(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "key", "one")
    day = day.astype(np.int64)
    d0 = int(day[0])
    v = np.zeros(int(day[-1]) - d0 + 1, dtype=np.int64)
    v[day - d0] = c
    return d0, v


THEIL_Q = 1_000_000


# ---------------------------------------------------------------------------
# Round 4e: hillshade (Horn shaded relief over the res-4 lattice)
# ---------------------------------------------------------------------------

HS_AZ_DEG = 315.0   # light azimuth (degrees from north, clockwise)
HS_ALT_DEG = 45.0   # light altitude above the horizon


def _hs_consts() -> tuple[float, float, float]:
    """(sinZ*sinA, sinZ*cosA, cosZ) for the fixed light direction —
    computed ONCE on the driver with scalar libm and embedded in the
    SQL via oracle._lit, so no trig ever runs on data values and the
    float chain stays bit-identical (the snap_to_line constant
    pattern)."""
    import math

    z = math.radians(90.0 - HS_ALT_DEG)
    a = math.radians(HS_AZ_DEG)
    return math.sin(z) * math.sin(a), math.sin(z) * math.cos(a), math.cos(z)


# ---------------------------------------------------------------------------
# Round 4e: D8 flow accumulation (hop-capped) over the res-4 lattice
# ---------------------------------------------------------------------------

FLOW_D = 8   # hop cap on the downhill walk


# ---------------------------------------------------------------------------
# Round 4e: empirical semivariogram (geostatistics) on per-cell counts
# ---------------------------------------------------------------------------

SEMI_D = 4   # max Chebyshev lag


# ---------------------------------------------------------------------------
# Round 4e: Strahler stream order over the occupied-cell D8 flow graph
# ---------------------------------------------------------------------------

STRAHLER_D = 6   # fixed-point rounds == halo width


# ---------------------------------------------------------------------------
# Round 4e: dataset-profiling statistics — correlation matrix, Benford test
# ---------------------------------------------------------------------------

CORR_COLS = (
    # (column, quantizer SQL, max |q| bound used in the overflow assert)
    ("l_quantity", "floor(l_quantity)", 64),
    ("l_extendedprice", "floor(l_extendedprice / 1000.0)", 128),
    ("l_discount", "floor(l_discount * 100.0)", 16),
    ("l_tax", "floor(l_tax * 100.0)", 16),
)


NB_Q = 10 ** 12   # log-prob quantum: integer scores -> order-free sums


def _nb_scored(sf_dir: str):
    """Multinomial naive-Bayes language classifier — train AND score
    in one pipeline (the supervised sibling of q_lang_id): per-(lang,
    token) Laplace-smoothed log-probs floor-quantized to integers at
    1e-12 BEFORE summing, so the per-doc score is an order-free integer
    sum (the pq_encode pattern) and argmax is an exact comparison;
    ln((c+1)/(tot+V)) uses one scalar math.log per distinct ratio
    (libm == DuckDB ln bit-for-bit; np.log SIMD diverges 1 ulp —
    CLAUDE.md).  Shape: one pass of per-batch (lang, token) count
    partials folded on the driver (model size is vocab x langs —
    bounded by the language, not the data), model broadcast via
    ray.put, then a pure scoring map.  Prediction ties break to the
    lexicographically smallest lang.  Materialized once per process
    (the _minhash_pairs pattern) — q_naive_bayes and q_nb_confusion
    both consume it.  Output (doc_id, true_lang, pred_lang,
    score_e12)."""
    import math

    from rhealpixdggs_py_ray.state.dscache import PAIR_CACHE

    hit = PAIR_CACHE.get(f"nbscored:{sf_dir}")
    if hit is not None:
        return hit

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def count_partial(batch: pa.Table) -> pa.Table:
        langs = batch["lang"].to_pylist()
        texts = batch["text"].to_pylist()
        acc: dict = {}
        for lg, tx in zip(langs, texts):
            for tk in tx.split(" "):
                if not tk.strip():
                    continue
                k = (lg, tk)
                acc[k] = acc.get(k, 0) + 1
        if not acc:
            return pa.table({"lang": pa.array([], type=pa.string()),
                             "token": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        ks = sorted(acc)
        return pa.table({
            "lang": pa.array([k[0] for k in ks], type=pa.string()),
            "token": pa.array([k[1] for k in ks], type=pa.string()),
            "n": pa.array([acc[k] for k in ks], type=pa.int64()),
        })

    def doc_partial(batch: pa.Table) -> pa.Table:
        lg, cnt = np.unique(
            np.asarray(batch["lang"].to_pylist(), dtype=object),
            return_counts=True)
        return pa.table({"lang": pa.array(list(lg), type=pa.string()),
                         "ndoc": pa.array(cnt.astype(np.int64))})

    counts: dict = {}
    for b in ds.map_batches(count_partial, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for lg, tk, n in zip(b["lang"].to_pylist(), b["token"].to_pylist(),
                             b["n"].to_pylist()):
            counts[(lg, tk)] = counts.get((lg, tk), 0) + int(n)
    ndocs: dict = {}
    for b in ds.map_batches(doc_partial, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for lg, n in zip(b["lang"].to_pylist(), b["ndoc"].to_pylist()):
            ndocs[lg] = ndocs.get(lg, 0) + int(n)

    vocab = sorted({tk for _lg, tk in counts})
    V = len(vocab)
    langs = sorted(ndocs)
    tot = {lg: sum(n for (l2, _tk), n in counts.items() if l2 == lg)
           for lg in langs}
    n_all = sum(ndocs.values())
    # quantized log-probs: floor(ln((c+1)/(tot+V)) * 1e12), plus the
    # unknown-token default (c = 0) and the prior per lang
    model = {}
    for li, lg in enumerate(langs):
        den = float(tot[lg] + V)
        for tk in vocab:
            c = counts.get((lg, tk), 0)
            model[(lg, tk)] = math.floor(
                math.log(float(c + 1) / den) * 1e12)
        model[(lg, None)] = math.floor(math.log(1.0 / den) * 1e12)
    prior = {lg: math.floor(
        math.log(float(ndocs[lg]) / float(n_all)) * 1e12) for lg in langs}

    tok_ix = {tk: i for i, tk in enumerate(vocab)}
    LP = np.empty((len(langs), V + 1), dtype=np.int64)
    for li, lg in enumerate(langs):
        for tk, i in tok_ix.items():
            LP[li, i] = model[(lg, tk)]
        LP[li, V] = model[(lg, None)]
    PR = np.array([prior[lg] for lg in langs], dtype=np.int64)
    import ray as _ray
    lp_ref = _ray.put((LP, PR, tok_ix, langs))

    def score(batch: pa.Table) -> pa.Table:
        LPb, PRb, tix, lgs = _ray.get(lp_ref)
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        true_lg = batch["lang"].to_pylist()
        out_d, out_l, out_s, out_c = [], [], [], []
        nl = len(lgs)
        V_ = LPb.shape[1] - 1
        for did, tx, tl in zip(dids, texts, true_lg):
            ix = np.fromiter(
                (tix.get(tk, V_) for tk in tx.split(" ") if tk.strip()),
                dtype=np.int64)
            if len(ix):
                sc = LPb[:, ix].sum(axis=1) + PRb
            else:
                sc = PRb.copy()
            best = int(np.argmax(sc))   # first max == smallest lang
            out_d.append(int(did))
            out_l.append(lgs[best])
            out_s.append(int(sc[best]))
            out_c.append(tl)
        return pa.table({
            "doc_id": pa.array(out_d, type=pa.int64()),
            "true_lang": pa.array(out_c, type=pa.string()),
            "pred_lang": pa.array(out_l, type=pa.string()),
            "score_e12": pa.array(out_s, type=pa.int64()),
        })

    return PAIR_CACHE.get_or_build(
        f"nbscored:{sf_dir}",
        lambda: ds.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True).materialize())


# ---------------------------------------------------------------------------
# Round 4e: robust MAD outlier screen per event_type
# ---------------------------------------------------------------------------

MAD_K_E4 = 3 * 14826   # 3 * 1.4826 (consistency constant) at 1e-4


# ---------------------------------------------------------------------------
# Round 4e: .npy tensor-shard source
# ---------------------------------------------------------------------------

NPY_SHARDS = 4


def _write_npy_fixture(sf_dir: str) -> str:
    """Shard the embeddings table into .npy tensor files (one float64
    matrix per shard, column 0 = vec_id, columns 1.. = the embedding;
    float32 -> float64 is exact).  Marker-guarded and idempotent —
    the _fragmented_events pattern."""
    import os

    import pyarrow.parquet as pq

    out = f"/tmp/graft_npy_src_{os.path.basename(sf_dir.rstrip('/'))}"
    marker = os.path.join(out, ".complete")
    if not os.path.exists(marker):
        os.makedirs(out, exist_ok=True)
        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.float64)
        M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
        X = np.concatenate([ids[:, None], M], axis=1)
        per = -(-len(X) // NPY_SHARDS)
        for k in range(NPY_SHARDS):
            part = X[k * per:(k + 1) * per]
            if len(part):
                np.save(os.path.join(out, f"shard{k:02d}.npy"), part)
        open(marker, "w").close()
    return out


# ---------------------------------------------------------------------------
# Round 4e shared intermediate: per-(event_type, day) revenue cents
# ---------------------------------------------------------------------------

_DAILY_CENTS: dict[str, dict] = {}


def _daily_cents(sf_dir: str) -> dict:
    """'{event_type}\\x00{day}' -> total value cents, folded ONCE per
    process and shared by the ~13 daily-series statistics (the
    _minhash_pairs precedent: N consumers would otherwise re-run the
    same scan+fold N times; the dict is |types| x days — bounded)."""
    hit = _DAILY_CENTS.get(sf_dir)
    if hit is not None:
        return hit
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"],
               blocks=4)

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
        return pa.table({"k": pa.array(list(uq), type=pa.string()),
                         "s": pa.array(s)})

    acc: dict = {}
    for b in ds.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True).iter_batches(
                                batch_format="pyarrow"):
        for k, v in zip(b["k"].to_pylist(), b["s"].to_pylist()):
            acc[k] = acc.get(k, 0) + int(v)
    _DAILY_CENTS[sf_dir] = acc
    return acc


# ---------------------------------------------------------------------------
# Round 4e: quadrat test + Simpson diversity + binary-segmentation
# changepoint + Gumbel extreme-value moments
# ---------------------------------------------------------------------------

QUADRAT_CELLS = 6 * 9 ** TILE_RES   # full res-2 cell universe


GUMBEL_EULER = 0.5772156649015329   # Euler–Mascheroni
GUMBEL_SQRT6_PI = 0.7796968012336793   # sqrt(6)/pi


# ---------------------------------------------------------------------------
# Round 4e: SPRT sequential monitor + co-presence BFS eccentricity
# ---------------------------------------------------------------------------

SPRT_P0 = 0.30     # H0 conversion rate
SPRT_P1 = 0.35     # H1 conversion rate
SPRT_ALPHA = 0.05
SPRT_BETA = 0.20
SPRT_CONV_CENTS = 10000   # "converted" = value >= $100


def _sprt_consts():
    """Quantized LLR increments and decision boundaries (scalar libm,
    bit-identical to DuckDB ln — computed ONCE, crossed via repr)."""
    import math

    a = math.floor(math.log(SPRT_P1 / SPRT_P0) * 1e12)
    b = math.floor(math.log((1.0 - SPRT_P1) / (1.0 - SPRT_P0)) * 1e12)
    up = math.floor(math.log((1.0 - SPRT_BETA) / SPRT_ALPHA) * 1e12)
    dn = math.floor(math.log(SPRT_BETA / (1.0 - SPRT_ALPHA)) * 1e12)
    return a, b, up, dn


GRAPH_BFS_CAP = 6   # hop cap on the eccentricity scan


# ---------------------------------------------------------------------------
# Round 4e: difference-in-differences + elbow detection + Hill tail index
# ---------------------------------------------------------------------------

DID_SPLIT_DAY = 19738   # 2024-01-16: pre = days before, post = from it on


HILL_K = 64   # top-k order statistics for the tail fit


PERM_K = 64   # seeded label permutations


STAY_R2 = 2_000_000_000   # micro-deg^2 step threshold (~0.045 deg)
STAY_M = 3                # min consecutive stay steps per staypoint


UPLIFT_BUCKET_CENTS = 5000   # $50 buckets, capped at bucket 9


KMV_K = 256


# ---------------------------------------------------------------------------
# Round 4e: cross-correlation at lags + peak detection
# ---------------------------------------------------------------------------

XCORR_LAGS = (-7, -3, -1, 0, 1, 3, 7)
XCORR_A = "click"
XCORR_B = "purchase"


PEAK_PROM_CENTS = 100000   # $1000 minimum prominence


# ---------------------------------------------------------------------------
# Round 4e: eigenvector centrality (exact integer power iteration)
# ---------------------------------------------------------------------------

EIGC_ROUNDS = 16
EIGC_SCALE = 1 << 20


# ---------------------------------------------------------------------------
# Round 4e: Adamic-Adar link prediction
# ---------------------------------------------------------------------------

AA_TOPK = 64


SHARP_MIN = 20000   # variance gate on the Laplacian (squared-luma units)


# ---------------------------------------------------------------------------
# Round 4e: split-conformal interval + k-anonymity audit
# ---------------------------------------------------------------------------

CONF_ALPHA_NUM = 1   # alpha = 1/10
CONF_ALPHA_DEN = 10


KANON_K = 5


# ---------------------------------------------------------------------------
# Round 4e: rolling 7-day regression slope
# ---------------------------------------------------------------------------

ROLL_W = 7


DTW_N = 16


ARMKL_BUCKET = 1000   # $10 value buckets


TRUSS_K = 4        # support threshold: edge needs >= K-2 triangles
TRUSS_ROUNDS = 6   # hop-capped peel rounds


# ---------------------------------------------------------------------------
# Round 4e: rich-club coefficient + diurnal activity vector
# ---------------------------------------------------------------------------

RICH_DEG = 32


# ---------------------------------------------------------------------------
# Round 4e: Laspeyres price index + Cramér's V
# ---------------------------------------------------------------------------


PRICE_SPLIT_DAY = 10408   # 1998-06-30: lineitem ship dates span 1995-2001


CONTOUR_LEVELS = (200, 500, 800)


# ---------------------------------------------------------------------------
# Round 4e: minimum detectable effect + reorder gaps + shipping lag
# ---------------------------------------------------------------------------

MDE_Z_ALPHA = 1.959963984540054   # z_{0.975}
MDE_Z_BETA = 0.8416212335729143   # z_{0.80}


LAGM_LAGS = (-3, -2, -1, 0, 1, 2, 3)


def _schema_anchor(ds, table):
    """Union a zero-row arrow table carrying the output schema: a
    pipeline whose every shuffle partition is empty at tiny scale
    otherwise surfaces schemaless blocks (CLAUDE.md), and the driver
    contract promises a stable schema at >= 0 rows."""
    return ds.union(ray.data.from_arrow(table))


__all__ = [
    "_schema_anchor",
    "DriverCapExceeded",
    "check_driver_cap",
    "annotations",
    "hashlib",
    "np",
    "pd",
    "pa",
    "pc",
    "ray",
    "Count",
    "Max",
    "Min",
    "Sum",
    "oracle",
    "sizing",
    "geo",
    "idx",
    "su",
    "CELLS0",
    "EngineConfig",
    "WGS84_002",
    "WGS84_003",
    "WGS84_123",
    "knn_brute",
    "aggregate_tiles",
    "CoverSemiJoin",
    "make_cover_ref",
    "RES",
    "TILE_RES",
    "CFG",
    "BBOX",
    "COVER_RES",
    "COVER_PAD",
    "_read",
    "_libm_log",
    "DeriveAndIndex",
    "indexed_events",
    "_points_sql",
    "CFG_LON0",
    "CFG_SHIFTED",
    "_cell_from_point_cfg_q",
    "RADIANS_N",
    "_FACE_LETTERS",
    "ZONAL_ZONES",
    "GRID_RES",
    "GRID_UL_RES",
    "KNN_Q",
    "KNN_K",
    "derived_events",
    "_LineitemCombiner",
    "VOCAB_W",
    "VOCAB_K",
    "VOCAB_BUCKETS",
    "SALIENT_K",
    "BOTTOMK_K",
    "CHUNK_W",
    "CHUNK_S",
    "DECON_EVAL_MAX_ID",
    "SESSION_GAP_S",
    "_docs",
    "_minhash_pairs",
    "_ngram_pairs",
    "_containment_pairs",
    "EMB_D",
    "POLYFILL_POLY",
    "POLYFILL_RES",
    "POLY_POLAR",
    "POLYFILL_POLAR_RES",
    "POLY_POLAR_NS",
    "POLY_POLAR_S",
    "KRING_RES",
    "KRING_K",
    "KRING_N_EVENTS",
    "lattice_of_u64",
    "u64_of_lattice",
    "lattice_cell_ids",
    "KRING_POLAR_RES",
    "KRING_POLAR_N",
    "_polar_seed_lonlat",
    "RASTER_RES",
    "RASTER_NX",
    "RASTER_NY",
    "VALIDATE_RE",
    "REG_EPOCH_DAYS",
    "_fragmented_events",
    "CSV_FIXTURE_N",
    "CSV_FIXTURE_PATH",
    "_write_csv_fixture",
    "HLL_P",
    "LATBAND_FIXTURES",
    "LATBAND_RES",
    "N_ASOF_BUCKETS",
    "RANGE_BANDS",
    "LINETRACE_LINES",
    "LINETRACE_RES",
    "REGION_UL",
    "REGION_DR",
    "REGION_POLAR_UL",
    "REGION_POLAR_DR",
    "PARALLEL_POLAR_FIXTURES",
    "PARALLEL_FIXTURES",
    "MERIDIAN_FIXTURES",
    "COVER_LINE_RES",
    "PYRAMID_MAX_RES",
    "N_REGION_PAIRS",
    "REGION_PAIR_OFFSET",
    "INTERVAL_PAIRS",
    "BOUNDARY_N",
    "INTERIOR_N",
    "CONTAINS_RES",
    "CONTAINS_N",
    "OVERLAP_REGION",
    "RANDOM_N",
    "RANDOM_MAX_RES",
    "ZONE_POLY",
    "ZONE_RES",
    "IMG_N",
    "IMG_DIR",
    "_image_src_sql",
    "PATCH_PX",
    "NEARDUP_MAX_HAMMING",
    "_image_neardup_pairs",
    "PIVOT_TYPES",
    "JSON_FIXTURE_N",
    "JSON_FIXTURE_PATH",
    "_write_json_fixture",
    "PACK_CTX",
    "PACK_BUCKET_W",
    "FOCAL_RES",
    "BLOOM_M",
    "BLOOM_K",
    "CMS_D",
    "CMS_W",
    "CMS_HH_MIN",
    "BM25_NQ",
    "BM25_K",
    "BM25_TF_SCALE",
    "BM25_IDF_SCALE",
    "DISTJOIN_NPOI",
    "DISTJOIN_D2",
    "MOSAIC_RES",
    "TRAJ_D2",
    "CAP_NPOI",
    "CAP_D2",
    "IMGVAR_MIN",
    "PYRAMID_LEVELS",
    "SSJOIN_WINDOW_US",
    "PAGE_OFFSET",
    "PAGE_SIZE",
    "INCR_SPLIT_DAY",
    "BPE_TOPK",
    "GRIDDIST_RES",
    "GRIDPATH_MAX",
    "SNAPDIFF_CUT_DAY",
    "SNAPDIFF_REMOVE_DAY",
    "POLARS_N",
    "CUBE_RES",
    "MOV_FRAME",
    "LATE_GAP_US",
    "SPAN_W",
    "LB_MAX_B",
    "MIX_ALPHA_NOTE",
    "OVERLAY_A",
    "OVERLAY_B",
    "OVERLAY_RES",
    "MORAN_RES",
    "KM_ITERS",
    "_kmeans_pass",
    "DEBOUNCE_US",
    "OD_RES",
    "_NDOCS_CACHE",
    "_ndocs",
    "LINETRACE_POLAR_SEGS",
    "LINETRACE_POLAR_RES",
    "LINETRACE_POLAR_N",
    "POINTS_FIXTURE_PATH",
    "POINTS_FIXTURE_N",
    "POINTS_RES",
    "POINTS_JUNK",
    "_write_points_fixture",
    "ASPECT_BINS",
    "PAGERANK_ITERS",
    "PAGERANK_TOPK",
    "DISSOLVE_RES",
    "DISSOLVE_LAT",
    "_dissolve_boundary",
    "_dissolve_rowcol_sql",
    "_lattice_cell_sql",
    "band_counts",
    "halo_stencil",
    "home_cells",
    "LINE_BUFFER_R",
    "_lattice_from_cell_strings",
    "_cell_string_array_from_lattice",
    "SEMDEDUP_TAU",
    "IDW_NPOI",
    "SOURCE_CAP",
    "_dissolve_boundary_sql_ctes",
    "OOV_K",
    "FLOOD_D",
    "FLOOD_T",
    "FLOOD_SEED_MOD",
    "_flood_seed",
    "QUOTA_N",
    "ADAPT_MAX_RES",
    "ADAPT_CAP",
    "WINNOW_K",
    "WINNOW_W",
    "SHARDS_S",
    "SHARDS_RES",
    "PAIR_RES",
    "PAIR_R_M",
    "DWELL_BBOX",
    "TRAVEL_V_MPS",
    "CLIP_D",
    "CLIP_TAU",
    "_clip_sql_parts",
    "DBSCAN_RES",
    "DBSCAN_MINPTS",
    "COLOC_RES",
    "COLOC_T_S",
    "HOME_RES",
    "TOPIC_DICT",
    "DATELINE_FENCE",
    "RENDEZVOUS_SERVERS",
    "RENDEZVOUS_R",
    "QUANT_BITS",
    "BINREC_N",
    "BINREC_SHARDS",
    "BINREC_DIR",
    "_write_binrec_fixture",
    "SIMHAM_MAX",
    "TILE_CHANGE_SPLIT",
    "Q3_DATE",
    "GOPHER_STOPWORDS",
    "BG_SCALE",
    "BG_PACK",
    "_bigram_pairs",
    "_train_bigram_lm",
    "PQ_M",
    "PQ_K",
    "PQ_D",
    "_pq_codebook",
    "COSTD_H",
    "COSTD_WMOD",
    "MMR_NQ",
    "MMR_C",
    "MMR_S",
    "MMR_WR",
    "MMR_WD",
    "ZORD_SHIFT",
    "_morton_interleave",
    "PRIOSAMPLE_K",
    "_split_of",
    "INGEST_MOD",
    "INGEST_RES",
    "CLIP_NQ",
    "CLIP_K",
    "_gi_z",
    "SNAP_LINE",
    "SNAP_R2",
    "_snap_segments",
    "WDIST_W",
    "FENCE_RES",
    "FENCE_CELLS",
    "HAUS_PTS",
    "_haus_xy",
    "VIEW_R",
    "VIEW_OBS",
    "VIEW_OBS_H",
    "_view_elev",
    "FRECHET_P",
    "_frechet_ref",
    "SIMP_P",
    "SIMP_EPS2",
    "MM_T",
    "MM_PEN",
    "WEBT_Z",
    "EVT_TYPES",
    "ACF_LAGS",
    "GH_ALPHA",
    "GH_PREC",
    "CN_DEG",
    "KCORE_K",
    "KCORE_ITERS",
    "_copresence_edge_ends",
    "_copresence_edges",
    "_copresence_edges_build",
    "_copresence_sql_ctes",
    "ZIPF_K",
    "HULL_CAP",
    "RRF_K",
    "RRF_N",
    "RRF_C",
    "KDE_R",
    "NDCG_Q",
    "NDCG_REL",
    "NDCG_AT",
    "PCA_ITERS",
    "PCA_SCALE",
    "TRIGRAM_K",
    "DECAY_RES",
    "BOOT_B",
    "ATTR_T_S",
    "HIVE_TYPES",
    "RW_LEN",
    "RW_WALKS",
    "HAAR_LEN",
    "VOPT_K",
    "LOF_K",
    "SPEC_ITERS",
    "SPEC_SCALE",
    "EB_ALPHA",
    "FAC_K",
    "SPREAD_SEED_MOD",
    "HILB_BITS",
    "HILB_SHARDS",
    "NEG_PER_NODE",
    "NEG_PROBES",
    "HOLT_SHIFT",
    "HOLT_ALPHA",
    "HOLT_BETA",
    "_daily_counts_driver",
    "THEIL_Q",
    "HS_AZ_DEG",
    "HS_ALT_DEG",
    "_hs_consts",
    "FLOW_D",
    "SEMI_D",
    "STRAHLER_D",
    "CORR_COLS",
    "NB_Q",
    "_nb_scored",
    "MAD_K_E4",
    "NPY_SHARDS",
    "_write_npy_fixture",
    "_DAILY_CENTS",
    "_daily_cents",
    "QUADRAT_CELLS",
    "GUMBEL_EULER",
    "GUMBEL_SQRT6_PI",
    "SPRT_P0",
    "SPRT_P1",
    "SPRT_ALPHA",
    "SPRT_BETA",
    "SPRT_CONV_CENTS",
    "_sprt_consts",
    "GRAPH_BFS_CAP",
    "DID_SPLIT_DAY",
    "HILL_K",
    "PERM_K",
    "STAY_R2",
    "STAY_M",
    "UPLIFT_BUCKET_CENTS",
    "KMV_K",
    "XCORR_LAGS",
    "XCORR_A",
    "XCORR_B",
    "PEAK_PROM_CENTS",
    "EIGC_ROUNDS",
    "EIGC_SCALE",
    "AA_TOPK",
    "SHARP_MIN",
    "CONF_ALPHA_NUM",
    "CONF_ALPHA_DEN",
    "KANON_K",
    "ROLL_W",
    "DTW_N",
    "ARMKL_BUCKET",
    "TRUSS_K",
    "TRUSS_ROUNDS",
    "RICH_DEG",
    "PRICE_SPLIT_DAY",
    "CONTOUR_LEVELS",
    "MDE_Z_ALPHA",
    "MDE_Z_BETA",
    "LAGM_LAGS",
]
