"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed, so the same seed
always gives the same rows.  Row ids start at an offset derived from
the seed and go through ``fixtures.splitmix64``, the same rule the
shipped image fixtures use.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.fixtures import splitmix64

BATCH_ROWS = 65_536
# The wide mid-latitude band polygon of bench.py's headline (~40% of
# the globe); both join workloads use it.
BAND = geo.Polygon([(-150.0, 55.0), (150.0, 55.0), (150.0, -40.0), (-150.0, -40.0)])


def row_offset(seed: int) -> int:
    """First row id of a seed's input: spread seeds 2**32 rows apart."""
    return int(seed) << 32


def phash_column(start: int, n: int) -> np.ndarray:
    i = np.arange(start, start + n, dtype=np.uint64)
    return splitmix64(i).view(np.int64)


def write_points(path: str, seed: int, n_rows: int) -> None:
    """``n_rows`` seeded points as a parquet table with the flagship's
    ``phash`` column (coordinates derive from it)."""
    pq.write_table(pa.table({"phash": pa.array(phash_column(row_offset(seed), n_rows))}), path)


def read_batches(path: str) -> list[pa.Table]:
    """The ``phash`` column of a parquet table or directory as
    65,536-row Arrow batches."""
    t = pq.read_table(path, columns=["phash"])
    return [t.slice(s, BATCH_ROWS).combine_chunks() for s in range(0, t.num_rows, BATCH_ROWS)]


def write_image_table(out_dir: str, seed: int, n_rows: int, rows_per_file: int = 25_000) -> None:
    """The image table's input columns (image_id, bytes, w, h, fmt,
    caption, phash) for seeded rows, as parquet files.  The payload
    column holds a short placeholder: every reader here prunes it."""
    os.makedirs(out_dir, exist_ok=True)
    start = row_offset(seed)
    for k, s in enumerate(range(0, n_rows, rows_per_file)):
        n = min(rows_per_file, n_rows - s)
        i = np.arange(start + s, start + s + n, dtype=np.int64)
        ids = np.char.add("img", np.char.zfill(i.astype("U16"), 16))
        t = pa.table({
            "image_id": pa.array(ids, type=pa.string()),
            "bytes": pa.array([b"payload"] * n, type=pa.binary()),
            "w": pa.array((16 + (i % 4) * 16).astype(np.int32)),
            "h": pa.array((16 + ((i // 4) % 4) * 16).astype(np.int32)),
            "fmt": pa.array(np.where(i % 2 == 0, "raw", "png"), type=pa.string()),
            "caption": pa.array(np.char.add("caption of ", ids), type=pa.string()),
            "phash": pa.array(phash_column(start + s, n)),
        })
        pq.write_table(t, os.path.join(out_dir, f"part-{k:05d}.parquet"))
