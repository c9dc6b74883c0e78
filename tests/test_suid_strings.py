"""SUID strings as Arrow arrays, and the string-free cover build.

``su.to_string_fixed`` builds its ``pa.StringArray`` straight from the
fixed-width digit buffer; ``su.to_string`` does the same for mixed
resolutions.  ``make_cover_ref`` builds its prefix bitmap without
formatting a string.  Cover goldens are SHA-256 digests of the sorted
keys built by the string round trip (polyfill -> sorted ->
``from_string``) before the core split; ``cover_cells`` reads them back
from the bitmap.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core import wrappers as W
from rhealpixdggs_py_ray.core.config import WGS84_003

# perfbench's band polygon (perfbench/inputs.py BAND)
BAND = geo.Polygon([(-150.0, 55.0), (150.0, 55.0), (150.0, -40.0), (-150.0, -40.0)])
HOLED = geo.Polygon(
    shell=[(-10, -10), (50, -10), (50, 40), (-10, 40), (-10, -10)],
    holes=[
        [(-5, 5), (25, 20), (45, 5), (-5, 5)],
        [(-5, 25), (25, 30), (45, 25), (-5, 25)],
    ],
)
MULTI = geo.MultiPolygon([
    HOLED,
    geo.Polygon(
        shell=[(0, 75), (-30, 42), (0, 42), (30, 42), (0, 75)],
        holes=[[(0, 70), (5, 60), (-5, 60), (0, 70)]],
    ),
    geo.Polygon(
        shell=[(30, -42), (0, -75), (90, -75), (60, -42), (30, -42)],
        holes=[[(10, -70), (20, -65), (10, -65), (10, -70)]],
    ),
])
BOWTIE = geo.Polygon(shell=[(0, 0), (10, 10), (10, 0), (0, 10), (0, 0)])

COVER_GOLDENS = [
    (BAND, 2, 297, "5aaff4e261cfd4f2aaa730ca8ac06b976d4ff0ed9a5bc18c56638ac8240bcdae"),
    (BAND, 3, 2646, "1236ff9923731b64bebc7a14a74dd3dd214fb8ad7f852ab9a82e3382038a4eaf"),
    (HOLED, 3, 233, "a96b29dc216bee69cde4cf1cec9a3dbff8d057b633e82bf88e46f1297ce2625b"),
    (MULTI, 2, 44, "a9b61655128e78673d2b1a181a4a97028cd7ac600fe203c6f16dd48ff0bbed2f"),
]


def _cells(rng, n: int, res: int) -> np.ndarray:
    face = np.arange(n) % 6  # every face once n >= 6
    return su.pack(face, rng.integers(0, 9, (n, res)), res)


@pytest.mark.parametrize("res", range(su.MAX_PACK_RESOLUTION + 1))
@pytest.mark.parametrize("n", [0, 1, 600])
def test_to_string_fixed_matches_to_string(res, n):
    u = _cells(np.random.default_rng(res * 1000 + n), n, res)
    got = su.to_string_fixed(u, res)
    assert isinstance(got, pa.StringArray)
    assert got.type == pa.string()
    got.validate(full=True)
    want = su.to_string(u).tolist()
    assert got.to_pylist() == want
    assert all(len(s) == 1 + res for s in want)


@pytest.mark.parametrize("res", range(su.MAX_PACK_RESOLUTION + 1))
def test_to_string_fixed_every_nibble(res):
    """Byte pairs at odd and even widths, digit nibbles 0-15 (10-15
    print as ':'..'?', as in to_string), and the last row's spill."""
    rng = np.random.default_rng(40 + res)
    for n in (0, 1, 2, 3, 257):
        face = np.arange(n, dtype=np.uint64) % np.uint64(6)
        bits = rng.integers(0, 2**63, n, dtype=np.int64).astype(np.uint64) << np.uint64(1)
        digits = bits >> np.uint64(64 - 4 * res) << np.uint64(60 - 4 * res) if res else np.zeros(n, np.uint64)
        u = (face << np.uint64(60)) | digits | np.uint64(res)
        got = su.to_string_fixed(u, res)
        got.validate(full=True)
        assert got.to_pylist() == su.to_string(u).tolist()
        assert su.to_string_fixed(u[::2], res).to_pylist() == su.to_string(u[::2]).tolist()
        if res and n == 257:
            assert any(set(s[1:]) & set(":;<=>?") for s in got.to_pylist())


@pytest.mark.parametrize("res", [0, 1, 8, 9, 14])
def test_to_string_fixed_rejects_non_faces(res):
    for top in [6, 9, 15]:
        u = np.array([0, top << 60 | res], dtype=np.uint64)
        with pytest.raises(IndexError):
            su.to_string_fixed(u, res)
    with pytest.raises(IndexError):
        su.to_string_fixed(np.array([res, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64), res)


def test_to_string_fixed_checks_bytes_before_allocating(monkeypatch):
    u = _cells(np.random.default_rng(2), 10, 9)  # 100 string bytes
    monkeypatch.setattr(su, "MAX_STRING_BYTES", 99)
    allocs = []
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda *a, **k: allocs.append(a) or empty(*a, **k))
    with pytest.raises(ValueError):
        su.to_string_fixed(u, 9)
    assert allocs == []


def test_to_string_mixed_resolutions():
    rng = np.random.default_rng(7)
    u = np.concatenate([_cells(rng, 40, r) for r in range(su.MAX_PACK_RESOLUTION + 1)])
    u = u[rng.permutation(len(u))]
    got = su.to_string(u)
    assert got.dtype == object and all(type(s) is str for s in got)
    assert su.from_string(got).tolist() == u.tolist()
    assert [len(s) - 1 for s in got] == su.resolution_of(u).tolist()
    assert su.to_string(np.empty(0, dtype=np.uint64)).tolist() == []


def test_string_bytes_limit_is_int32_offsets():
    assert su.MAX_STRING_BYTES == np.iinfo(np.int32).max
    su.check_string_bytes(su.MAX_STRING_BYTES)
    with pytest.raises(ValueError, match="Arrow string array"):
        su.check_string_bytes(su.MAX_STRING_BYTES + 1)


def test_string_builders_refuse_past_the_limit(monkeypatch):
    u = _cells(np.random.default_rng(1), 10, 9)  # 100 string bytes
    monkeypatch.setattr(su, "MAX_STRING_BYTES", 99)
    with pytest.raises(ValueError):
        su.to_string_fixed(u, 9)
    with pytest.raises(ValueError):
        su.to_string(u)
    monkeypatch.setattr(su, "MAX_STRING_BYTES", 100)
    assert len(su.to_string_fixed(u, 9)) == len(su.to_string(u)) == 10


@pytest.mark.parametrize("geom,res,n,sha", COVER_GOLDENS)
def test_cover_keys_match_string_polyfill(ray_session, geom, res, n, sha):
    import ray

    from rhealpixdggs_py_ray.stages.join import cover_cells, make_cover_ref

    ref, n_cells = make_cover_ref(geom, res)
    keys = cover_cells(ray.get(ref), res)
    assert keys.dtype == np.uint64 and n_cells == len(keys) == n
    assert hashlib.sha256(keys.tobytes()).hexdigest() == sha
    strings = W.polyfill(geom, res, plane=False)
    assert np.array_equal(keys, np.sort(su.from_string(sorted(strings))))


def test_cover_of_malformed_geometry_is_empty(ray_session):
    import ray

    from rhealpixdggs_py_ray.stages.join import cover_cells, make_cover_ref

    assert W.polyfill(BOWTIE, 2, plane=False) is None
    ref, n_cells = make_cover_ref(BOWTIE, 2)
    keys = cover_cells(ray.get(ref), 2)
    assert n_cells == 0 and keys.dtype == np.uint64 and len(keys) == 0


def test_cell_indexer_schema_unchanged():
    from rhealpixdggs_py_ray.stages.indexer import CellIndexer

    phash = pa.table({"phash": pa.array(np.arange(1, 1001, dtype=np.int64) * 7919)})
    out = CellIndexer(WGS84_003, 9)(phash)
    assert out.schema == pa.schema([
        ("phash", pa.int64()), ("lon", pa.float64()), ("lat", pa.float64()),
        ("cell_u64", pa.uint64()), ("cell_id", pa.string()), ("face", pa.int8()),
    ])
    u = out["cell_u64"].to_numpy()
    assert out["cell_id"].to_pylist() == su.to_string(u).tolist()

    pts = out.select(["lon", "lat"])
    out2 = CellIndexer(WGS84_003, 9, lon_col="lon", lat_col="lat")(pts)
    assert out2.column_names == ["lon", "lat", "cell_u64", "cell_id", "face"]
    assert out2.select(["cell_u64", "cell_id"]).equals(out.select(["cell_u64", "cell_id"]))
