"""Deterministic synthetic image+caption table (the engine's primary
input shape, per the driver's input_hint) and its pixel codecs.

Schema (FIXTURES.md §1):
    image_id: string   f"img{i:012d}"
    bytes:    binary   encoded RGB pixels (fmt 'raw' or 'png')
    w, h:     int32    16/32/48/64 cycle
    fmt:      string   cycle ['raw', 'png'] (both lossless -> exact
                       decoded-pixel equality; PSNR>=40dB would apply
                       only to a lossy fmt, none is available here)
    caption:  string   f"caption {i}: cell of img{i:012d}"
    phash:    int64    splitmix64(i), signed

The phash -> (lon, lat) mapping is THE engine-side coordinate rule for
the tiling pipelines (uniform on the sphere via the authalic trick,
clamped to +-84 deg to keep fixtures off the exact poles while still
exercising polar cap/dart cells).

Everything is pure numpy + zlib; PIL is unavailable (SURVEY.md §7.0),
so the PNG path is a minimal lossless encoder/decoder pair for our own
files (filter-0 rows, 8-bit RGB).
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SEED = 42
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(i: np.ndarray) -> np.ndarray:
    """Standard SplitMix64 of the row index (uint64 in, uint64 out)."""
    z = (np.asarray(i, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return z ^ (z >> np.uint64(31))


def phash_to_lonlat(phash: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic phash -> coordinate rule (FIXTURES.md §1.1)."""
    p = np.asarray(phash).astype(np.int64).view(np.uint64)
    u = ((p >> np.uint64(32)) & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2**32
    v = (p & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2**32
    lon = -180.0 + 360.0 * u
    lat = np.degrees(np.arcsin(2.0 * v - 1.0)) * (84.0 / 90.0)
    return lon, lat


def gen_pixels(w: int, h: int, phash: int) -> np.ndarray:
    """Deterministic w x h RGB gradient-plus-hash pattern
    ((x*3 + y*5 + c*7 + phash_byte[c]) mod 256), built by int32
    broadcasting — the earlier triple int64 meshgrid was ~6x the memory
    traffic for identical output."""
    ph = int(phash) & 0xFFFFFFFFFFFFFFFF
    x = np.arange(w, dtype=np.int32) * 3
    y = np.arange(h, dtype=np.int32) * 5
    c = np.arange(3, dtype=np.int32) * 7 + np.array(
        [(ph >> (8 * k)) & 0xFF for k in range(3)], dtype=np.int32
    )
    return (
        (y[:, None, None] + x[None, :, None] + c[None, None, :]) & 255
    ).astype(np.uint8)


def encode_png(pix: np.ndarray) -> bytes:
    """Minimal lossless PNG (8-bit RGB, filter 0 rows)."""
    h, w, _ = pix.shape

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = b"".join(b"\x00" + pix[r].tobytes() for r in range(h))
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNGs produced by encode_png (filter-0 8-bit RGB only)."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", payload[:10])
            if not (depth == 8 and ctype == 2):
                raise ValueError("unsupported PNG layout")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    raw = zlib.decompress(idat)
    stride = 1 + w * 3
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride)
    if arr[:, 0].any():
        raise ValueError("only filter-0 rows supported")
    return np.ascontiguousarray(arr[:, 1:]).reshape(h, w, 3)


def decode_image(data: bytes, fmt: str, w: int, h: int) -> np.ndarray:
    if fmt == "raw":
        return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    if fmt == "png":
        return decode_png(data)
    raise NotImplementedError(
        f"fmt {fmt!r}: lossy codecs (jpeg/webp) need an image library that "
        "is not available in this environment; the Ray-side plumbing "
        "(schema, actor stages, PSNR gate) is exercised via raw/png."
    )


def images_batch(start: int, count: int) -> pa.Table:
    """Rows [start, start+count) of the canonical images table."""
    i = np.arange(start, start + count, dtype=np.uint64)
    phash = splitmix64(i).view(np.int64)
    w = (16 + (i.astype(np.int64) % 4) * 16).astype(np.int32)
    h = (16 + ((i.astype(np.int64) // 4) % 4) * 16).astype(np.int32)
    fmts = np.where(i.astype(np.int64) % 2 == 0, "raw", "png")
    blobs = []
    for k in range(count):
        pix = gen_pixels(int(w[k]), int(h[k]), int(phash[k]))
        blobs.append(pix.tobytes() if fmts[k] == "raw" else encode_png(pix))
    ids = np.array([f"img{int(n):012d}" for n in i], dtype=object)
    captions = np.array([f"caption {int(n)}: cell of img{int(n):012d}" for n in i], dtype=object)
    return pa.table(
        {
            "image_id": pa.array(ids, type=pa.string()),
            "bytes": pa.array(blobs, type=pa.binary()),
            "w": pa.array(w, type=pa.int32()),
            "h": pa.array(h, type=pa.int32()),
            "fmt": pa.array(fmts, type=pa.string()),
            "caption": pa.array(captions, type=pa.string()),
            "phash": pa.array(phash, type=pa.int64()),
        }
    )


def write_images_table(
    out_dir: str, n_rows: int, rows_per_file: int = 25_000
) -> list[str]:
    """Materialize the images table as a directory of parquet files
    (the Lance-shaped input; parquet stands in because the `lance`
    package is absent — SURVEY.md §7.0 / BASELINE.md).  Idempotent: a
    matching existing directory is reused."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, f".complete-{n_rows}")
    files = sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir) if f.endswith(".parquet")
    )
    if os.path.exists(marker) and files:
        return files
    for f in files:
        os.remove(f)
    paths = []
    for start in range(0, n_rows, rows_per_file):
        count = min(rows_per_file, n_rows - start)
        t = images_batch(start, count)
        p = os.path.join(out_dir, f"part-{start // rows_per_file:05d}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    open(marker, "w").close()
    return paths


# ---------------------------------------------------------------------------
# Raw-PCM audio fixture (codec-free: int16 little-endian samples, so the
# decode path is REAL numpy frombuffer work — no soundfile/librosa needed)
# ---------------------------------------------------------------------------


def audio_base(i: int) -> int:
    """Rows with i % 10 == 9 are planted near-copies of row i-1."""
    return i - 1 if i % 10 == 9 else i


def audio_n_samples(i: int) -> int:
    return 1500 + (audio_base(i) % 5) * 250


def audio_samples(i: int, n: int) -> np.ndarray:
    """Deterministic int16 sample train for audio row ``i``:
    s(t) = ((t*t*7 + t*13 + b*31) mod 4096) - 2048 with b =
    audio_base(i), plus +7 at every t % 500 == 0 when the row is a
    planted near-copy — pure integers, so the DuckDB oracle replays
    the train exactly via generate_series (and the near-dup detector
    has ground-truth pairs to find)."""
    b = audio_base(i)
    t = np.arange(n, dtype=np.int64)
    v = ((t * t * 7 + t * 13 + b * 31) % 4096) - 2048
    if i % 10 == 9:
        v = v + 7 * (t % 500 == 0)
    return v.astype(np.int16)


def write_audio_table(out_dir: str, n_rows: int) -> list[str]:
    """Materialize the raw-PCM audio table (audio_id, bytes, fmt, sr,
    n_samples); idempotent like write_images_table."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, f".complete-v2-{n_rows}")
    files = sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir)
        if f.endswith(".parquet")
    )
    if os.path.exists(marker) and files:
        return files
    for f in files:
        os.remove(f)
    ids, blobs, ns = [], [], []
    for i in range(n_rows):
        n = audio_n_samples(i)
        ids.append(f"aud{i:08d}")
        blobs.append(audio_samples(i, n).astype("<i2").tobytes())
        ns.append(n)
    t = pa.table({
        "audio_id": pa.array(ids, type=pa.string()),
        "bytes": pa.array(blobs, type=pa.binary()),
        "fmt": pa.array(["pcm_s16le"] * n_rows, type=pa.string()),
        "sr": pa.array([8000] * n_rows, type=pa.int32()),
        "n_samples": pa.array(ns, type=pa.int32()),
    })
    p = os.path.join(out_dir, "part-00000.parquet")
    pq.write_table(t, p)
    open(marker, "w").close()
    return [p]


def video_frame(i: int, f: int, w: int, h: int) -> np.ndarray:
    """Deterministic uint8 RGB frame for video ``i``, frame ``f``:
    pix(y, x, c) = (x*3 + y*5 + c*7 + f*11 + i*17) mod 256."""
    x = np.arange(w, dtype=np.int32)[None, :, None]
    y = np.arange(h, dtype=np.int32)[:, None, None]
    c = np.arange(3, dtype=np.int32)[None, None, :]
    return ((x * 3 + y * 5 + c * 7 + f * 11 + i * 17) % 256).astype(np.uint8)


def write_video_table(out_dir: str, n_rows: int, w: int = 16,
                      h: int = 12) -> list[str]:
    """Materialize the raw-video table (video_id, bytes = concatenated
    rawvideo RGB frames, w, h, fmt, n_frames); idempotent."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, f".complete-{n_rows}")
    files = sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir)
        if f.endswith(".parquet")
    )
    if os.path.exists(marker) and files:
        return files
    for f in files:
        os.remove(f)
    ids, blobs, nf = [], [], []
    for i in range(n_rows):
        frames = 8 + (i % 5)
        ids.append(f"vid{i:08d}")
        blobs.append(b"".join(
            video_frame(i, f, w, h).tobytes() for f in range(frames)))
        nf.append(frames)
    t = pa.table({
        "video_id": pa.array(ids, type=pa.string()),
        "bytes": pa.array(blobs, type=pa.binary()),
        "w": pa.array([w] * n_rows, type=pa.int32()),
        "h": pa.array([h] * n_rows, type=pa.int32()),
        "fmt": pa.array(["rawvideo"] * n_rows, type=pa.string()),
        "n_frames": pa.array(nf, type=pa.int32()),
    })
    p = os.path.join(out_dir, "part-00000.parquet")
    pq.write_table(t, p)
    open(marker, "w").close()
    return [p]
