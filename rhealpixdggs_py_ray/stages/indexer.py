"""Stateful map_batches stages: point->cell indexing and payload checks.

These are callable CLASSES: Ray Data runs them as actor pools
(``ds.map_batches(CellIndexer(cfg, 9), batch_format="pyarrow",
zero_copy_batch=True, concurrency=N)``), so the DGGS parameterization
and its lookup tables are materialized once per actor in ``__init__``
and reused across batches — the engine-side replacement for the
reference's per-point ``Projection`` closure rebuild (dggs.py:414-421,
projection_wrapper.py:98-104; ~72% of the reference's per-point cost,
BASELINE.md).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import EngineConfig, WGS84_003
from rhealpixdggs_py_ray.fixtures import decode_image, gen_pixels, phash_to_lonlat


class CellIndexer:
    """Append cell columns to an Arrow batch.

    Input columns: either (``lon_col``, ``lat_col``) float64, or a
    ``phash_col`` int64 from which the deterministic fixture coordinate
    rule derives (lon, lat).  Output appends:

    - ``lon``/``lat`` (when derived from phash)
    - ``cell_u64``: packed cell (uint64)
    - ``cell_id``: canonical SUID string
    - ``face``: res-0 face index (int8) — the partitioning column
    """

    def __init__(
        self,
        cfg: EngineConfig = WGS84_003,
        resolution: int = 9,
        lon_col: str | None = None,
        lat_col: str | None = None,
        phash_col: str = "phash",
        plane: bool = False,
        emit_cell_id: bool = True,
    ):
        self.cfg = cfg
        self.resolution = resolution
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.phash_col = phash_col
        self.plane = plane
        self.emit_cell_id = emit_cell_id
        # Force table materialization once per actor.
        cfg._tables()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.lon_col is not None:
            lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
            lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
            derived = False
        else:
            phash = batch[self.phash_col].to_numpy(zero_copy_only=False)
            lon, lat = phash_to_lonlat(phash)
            derived = True
        u = idx.cell_from_point(self.cfg, self.resolution, lon, lat, plane=self.plane)
        cols = dict(zip(batch.column_names, batch.columns))
        if derived:
            cols["lon"] = pa.array(lon, type=pa.float64())
            cols["lat"] = pa.array(lat, type=pa.float64())
        cols["cell_u64"] = pa.array(u, type=pa.uint64())
        if self.emit_cell_id:
            cols["cell_id"] = su.to_string_fixed(u, self.resolution)
        cols["face"] = pa.array(su.face_of(u).astype(np.int8), type=pa.int8())
        return pa.table(cols)


class PayloadVerifier:
    """Decode each image payload and verify the per-row invariant from
    the driver's input_hint: decoded pixels exactly equal (lossless
    raw/png) — or PSNR >= ``psnr_min`` dB for lossy formats — to the
    fixture's generated pattern, plus caption equality.

    Appends ``payload_ok`` (bool) and ``psnr_db`` (float64; +inf for
    exact matches).  Decode is per-row by necessity (variable-size
    blobs) but runs inside an actor pool over small batches.
    """

    def __init__(self, psnr_min: float = 40.0):
        self.psnr_min = psnr_min
        # Per-actor cache of the phash-independent base pattern
        # (x*3 + y*5 + c*7) & 255 per (w, h): the fixture pixel rule is
        # base + per-channel phash byte (mod 256), so the expensive
        # (h, w, 3) lattice is built once per shape per actor and each
        # row only pays one int16 add + mask.  Rebuilding it per row
        # (gen_pixels' meshgrid) measured ~0.15 ms/row of pure memory
        # traffic — the stage is bandwidth-bound, not compute-bound.
        self._base: dict[tuple[int, int], np.ndarray] = {}

    def _base_for(self, w: int, h: int) -> np.ndarray:
        b = self._base.get((w, h))
        if b is None:
            x = np.arange(w, dtype=np.int16) * 3
            y = np.arange(h, dtype=np.int16) * 5
            c = np.arange(3, dtype=np.int16) * 7
            b = (y[:, None, None] + x[None, :, None] + c[None, None, :]) & 255
            self._base[(w, h)] = b
        return b

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        phashes = batch["phash"].to_numpy()
        ids = batch["image_id"].to_pylist()
        caps = batch["caption"].to_pylist()
        n = len(blobs)
        ok = np.zeros(n, dtype=bool)
        psnr = np.full(n, -np.inf)
        for k in range(n):
            ph = int(phashes[k]) & 0xFFFFFFFFFFFFFFFF
            chan = np.array(
                [(ph >> (8 * j)) & 0xFF for j in range(3)], dtype=np.int16
            )
            expect = (self._base_for(int(ws[k]), int(hs[k])) + chan) & 255
            got = decode_image(blobs[k], fmts[k], int(ws[k]), int(hs[k]))
            if got.shape != expect.shape:
                continue
            # exact integer SSE (values bounded by 255^2 * h*w*3 << 2^53,
            # so the float64 division reproduces the old float-path mse
            # bit-for-bit)
            d = got.astype(np.int16) - expect
            sse = int(np.sum((d.astype(np.int32)) ** 2, dtype=np.int64))
            mse = sse / d.size
            psnr[k] = np.inf if mse == 0 else 10 * np.log10(255.0**2 / mse)
            cap_ok = caps[k] == f"caption {int(ids[k][3:])}: cell of {ids[k]}"
            ok[k] = cap_ok and (
                mse == 0 if fmts[k] in ("raw", "png") else psnr[k] >= self.psnr_min
            )
        return batch.append_column("payload_ok", pa.array(ok)).append_column(
            "psnr_db", pa.array(psnr)
        )
