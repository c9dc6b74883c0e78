"""The global equatorial lattice (pipelines/lattice.py), without Ray:
codec round trips over every band cell at two resolutions, the tile +
halo routing of the stencil exchange, and the SQL mirrors of the
codecs evaluated in DuckDB against the numpy side."""

import itertools

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import WGS84_003 as CFG
from rhealpixdggs_py_ray.pipelines import lattice as lat


def band_cells(k: int) -> np.ndarray:
    """Every res-k cell of the equatorial faces O..R (4 * 9^k)."""
    digits = np.array(list(itertools.product(range(9), repeat=k)),
                      dtype=np.int64)
    face = np.repeat(np.arange(1, 5), len(digits))
    return su.pack(face, np.tile(digits, (4, 1)), k)


@pytest.mark.parametrize("k", [3, 4])
def test_codec_round_trip_every_band_cell(k):
    u = band_cells(k)
    side, W = 3 ** k, 4 * 3 ** k
    assert len(u) == side * W  # 26,244 at k = 4
    gy, gx = lat.lattice_of_u64(u, k)
    assert gy.min() == 0 and gy.max() == side - 1
    assert gx.min() == 0 and gx.max() == W - 1
    assert len(np.unique(gy * W + gx)) == len(u)  # a bijection
    np.testing.assert_array_equal(lat.u64_of_lattice(gy, gx, k), u)

    strings = su.to_string_fixed(u, k).to_pylist()
    assert lat.lattice_cell_ids(gy, gx, k).to_pylist() == strings
    assert list(lat._cell_string_array_from_lattice(gy, gx, k)) == strings
    sy, sx = lat._lattice_from_cell_strings(np.array(strings), k)
    np.testing.assert_array_equal(sy, gy)
    np.testing.assert_array_equal(sx, gx)


@pytest.mark.parametrize("k", [3, 4])
def test_lattice_is_the_planar_grid(k):
    """Independent of the digit formula: the planar nucleus of every
    band cell sits at (x0 + gx * w, y0 - gy * w)."""
    u = band_cells(k)
    gy, gx = lat.lattice_of_u64(u, k)
    x, y = idx.nucleus(CFG, u, plane=True)
    w = idx.width_of(CFG, u)
    np.testing.assert_allclose((x - x.min()) / w, gx, atol=1e-6)
    np.testing.assert_allclose((y.max() - y) / w, gy, atol=1e-6)


@pytest.mark.parametrize("D", [1, 4, 9])
def test_halo_route(D):
    k, T = lat.DISSOLVE_RES, lat.FLOOD_T
    side, W = 3 ** k, 4 * 3 ** k
    n_tx, n_ty = W // T, side // T
    u = band_cells(k)
    gy, gx = lat.lattice_of_u64(u, k)
    tile, ly, lx, src = lat.halo_route(gy, gx, D)
    ty, tx = tile // n_tx, tile % n_tx
    assert ((ty >= 0) & (ty < n_ty)).all()
    L = T + 2 * D
    assert ((ly >= 0) & (ly < L) & (lx >= 0) & (lx < L)).all()
    # every replica maps back to its source cell (seam wrapped)
    np.testing.assert_array_equal(ty * T + ly - D, gy[src])
    np.testing.assert_array_equal((tx * T + lx - D) % W, gx[src])

    # exactly one replica per cell in its home tile's interior
    interior = (ly >= D) & (ly < T + D) & (lx >= D) & (lx < T + D)
    np.testing.assert_array_equal(np.sort(src[interior]),
                                  np.arange(len(u)))
    home = tile[interior][np.argsort(src[interior])]
    np.testing.assert_array_equal(home, (gy // T) * n_tx + gx // T)

    # replicas go to exactly the tiles whose window covers the cell
    all_ty = np.arange(n_ty)[:, None]
    all_tx = np.arange(n_tx)[:, None]
    cy = (gy[None, :] >= all_ty * T - D) & (gy[None, :] < all_ty * T + T + D)
    off = (gx[None, :] - all_tx * T + D) % W
    cx = off < L
    covers = cy[:, None, :] & cx[None, :, :]  # (n_ty, n_tx, cells)
    t_idx, c_idx = np.nonzero(covers.reshape(n_ty * n_tx, -1))
    want = np.sort(c_idx.astype(np.int64) * (n_ty * n_tx) + t_idx)
    got = np.sort(src.astype(np.int64) * (n_ty * n_tx) + tile)
    np.testing.assert_array_equal(got, want)

    # the seam: column 0 is in the last tile column's halo and
    # column W-1 in the first one's
    first = src[(tx == n_tx - 1) & (lx == T + D)]
    assert set(gx[first]) == {0}
    last = src[(tx == 0) & (lx == D - 1)]
    assert set(gx[last]) == {W - 1}


def test_home_cells():
    k, T, D = lat.DISSOLVE_RES, lat.FLOOD_T, 2
    L = T + 2 * D
    mask = np.zeros((L, L), dtype=bool)
    mask[0, 0] = mask[D, D] = mask[T + D - 1, T + D - 1] = True
    mask[T + D, D] = True  # halo slot: never emitted
    ty, tx = 1, 11  # last tile column: its east edge is the seam
    hy, hx, ids = lat.home_cells(mask, ty, tx, D)
    np.testing.assert_array_equal(hy, [D, T + D - 1])
    np.testing.assert_array_equal(hx, [D, T + D - 1])
    want = lat.lattice_cell_ids(np.array([ty * T, ty * T + T - 1]),
                                np.array([tx * T, tx * T + T - 1]), k)
    assert ids.to_pylist() == want.to_pylist()


@pytest.mark.parametrize("k", [3, 4])
def test_sql_codecs_match_numpy(k):
    u = band_cells(k)
    W = 4 * 3 ** k
    gy, gx = lat.lattice_of_u64(u, k)
    cell_id = su.to_string_fixed(u, k)
    cells = pa.table({"cell_id": cell_id, "i": pa.array(np.arange(len(u)))})
    sy, sx = lat._dissolve_rowcol_sql(k)
    con = duckdb.connect()
    con.register("cells", cells)
    got = con.execute(f"""
        WITH g AS (SELECT i, cell_id, {sy} AS gy, {sx} AS gx FROM cells)
        SELECT i, gy, gx,
          {lat._lattice_cell_sql("gy", "gx", k)} AS a,
          {lat._lattice_cell_sql("ty", "tx", k, three_first=True)} AS b,
          {lat._lattice_cell_sql(f"(key // {W})", f"(key % {W})", k)} AS c
        FROM (SELECT *, gy AS ty, gx AS tx, gy * {W} + gx AS key FROM g)
        ORDER BY i""").fetchnumpy()
    np.testing.assert_array_equal(got["gy"], gy)
    np.testing.assert_array_equal(got["gx"], gx)
    for col in ("a", "b", "c"):
        assert list(got[col]) == cell_id.to_pylist()
