"""The global equatorial lattice.

Inside the equatorial band the res-k cells of faces O..R form one
integer grid (suid_rowcol semantics, reference cell.py:269-291): the
row ``gy`` is read from the base-3 row digits, the column ``gx`` is
``(face - 1) * 3^k`` plus the column digits, and the vertical seam
wraps modulo ``W = 4 * 3^k``.  Every raster query reaches that grid
through this module: the u64 and string codecs, the SQL expressions
that mirror them, the in-band per-cell fold and the tile + halo
stencil exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.ops.agg import sum_by_u64_key

DISSOLVE_RES = 4      # res-4 equatorial lattice: 4*3^4 = 324 cols, 81 rows
DISSOLVE_LAT = 35.0   # keeps every point inside faces O..R (caps start ~41.9)
FLOOD_T = 27          # stencil tile size (divides both 81 rows and 324 cols)


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

def lattice_of_u64(u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(gy, gx) int64 of packed res-k cells.  Polar cells decode with
    the same formula (gx outside [0, W)); callers filter them first."""
    u = np.asarray(u, dtype=np.uint64)
    gy = np.zeros(len(u), dtype=np.int64)
    gx = np.zeros(len(u), dtype=np.int64)
    for i in range(k):
        d = ((u >> np.uint64(56 - 4 * i)) & np.uint64(0xF)).astype(np.int64)
        gy = gy * 3 + d // 3
        gx = gx * 3 + d % 3
    return gy, (su.face_of(u) - 1) * 3 ** k + gx


def u64_of_lattice(gy: np.ndarray, gx: np.ndarray, k: int) -> np.ndarray:
    """Packed res-k cells of lattice points (gx already wrapped)."""
    side = 3 ** k
    gy = np.asarray(gy, dtype=np.int64)
    gx = np.asarray(gx, dtype=np.int64)
    digits = np.empty((len(gy), k), dtype=np.int64)
    for i in range(k):
        p = 3 ** (k - 1 - i)
        digits[:, i] = ((gy // p) % 3) * 3 + ((gx % side) // p) % 3
    return su.pack(1 + gx // side, digits, k)


def lattice_cell_ids(gy: np.ndarray, gx: np.ndarray, k: int) -> pa.StringArray:
    """cell_id strings (Arrow ``string``) of lattice points."""
    return su.to_string_fixed(u64_of_lattice(gy, gx, k), k)


def _lattice_from_cell_strings(cell_id: np.ndarray, k: int):
    """Vectorized (gy, gx) from fixed-width equatorial cell_id strings.
    Faces O..R are contiguous ASCII (79..82), digit chars are '0'..'8'."""
    b = np.frombuffer(
        np.asarray(cell_id, dtype=f"S{k + 1}").tobytes(), dtype=np.uint8
    ).reshape(-1, k + 1)
    side = 3 ** k
    face_col = b[:, 0].astype(np.int64) - 79
    d = b[:, 1:].astype(np.int64) - 48
    pw = (3 ** np.arange(k - 1, -1, -1)).astype(np.int64)
    gy = (d // 3) @ pw
    gx = face_col * side + (d % 3) @ pw
    return gy, gx


def _cell_string_array_from_lattice(gy, gx, k) -> np.ndarray:
    """cell_id strings (numpy ``str``) of lattice points."""
    return lattice_cell_ids(gy, gx, k).to_numpy(zero_copy_only=False).astype(str)


# ---------------------------------------------------------------------------
# SQL mirrors of the codecs
# ---------------------------------------------------------------------------

def _dissolve_rowcol_sql(k: int) -> tuple[str, str]:
    """Closed-form (gy, gx) from the cell_id string digits."""
    side = 3 ** k
    gy = " + ".join(
        f"(CAST(substr(cell_id, {1 + i}, 1) AS INT) // 3) * {3 ** (k - i)}"
        for i in range(1, k + 1)
    )
    gx = " + ".join(
        f"(CAST(substr(cell_id, {1 + i}, 1) AS INT) % 3) * {3 ** (k - i)}"
        for i in range(1, k + 1)
    )
    face = ("(CASE substr(cell_id, 1, 1) WHEN 'O' THEN 0 WHEN 'P' THEN 1"
            f" WHEN 'Q' THEN 2 ELSE 3 END) * {side}")
    return gy, f"{face} + {gx}"


def _lattice_cell_sql(gy: str, gx: str, k: int, *,
                      three_first: bool = False) -> str:
    """The cell_id string of lattice point (gy, gx): the inverse of
    _dissolve_rowcol_sql.  ``gy``/``gx`` are SQL expressions spliced
    in as given (parenthesize compound ones; gx must be wrapped).
    ``three_first`` spells each digit ``3 * row + col`` instead of
    ``row * 3 + col`` (same value, another oracle's text)."""
    side = 3 ** k

    def digit(i: int) -> str:
        p = 3 ** (k - 1 - i)
        row = f"(({gy} // {p}) % 3)"
        col = f" + ((({gx} % {side}) // {p}) % 3)"
        lead = f"3 * {row}" if three_first else f"{row} * 3"
        return f"CAST({lead}{col} AS VARCHAR)"

    return (f"CASE {gx} // {side} WHEN 0 THEN 'O' WHEN 1 THEN 'P'"
            " WHEN 2 THEN 'Q' ELSE 'R' END || "
            + " || ".join(digit(i) for i in range(k)))


# ---------------------------------------------------------------------------
# Distributed building blocks
# ---------------------------------------------------------------------------

def band_counts(ds, out_val: str, value=None):
    """Per-cell exact fold of the in-band (|lat| <= DISSOLVE_LAT)
    rows of an indexed-events Dataset (``lat``, ``cell_u64``): the row
    count, or the sum of ``value(batch)`` (int64 per row) when given.
    Returns (cell_u64, out_val)."""
    def cells(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        m = np.abs(lat) <= DISSOLVE_LAT
        u = batch["cell_u64"].to_numpy(zero_copy_only=False)[m]
        v = (np.ones(len(u), dtype=np.int64) if value is None
             else value(batch)[m])
        return pa.table({"cell_u64": pa.array(u, type=pa.uint64()),
                         "v": pa.array(v)})

    return sum_by_u64_key(
        ds.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True),
        "cell_u64", "v", out_val,
    )


def halo_route(gy: np.ndarray, gx: np.ndarray, D: int):
    """Route res-DISSOLVE_RES lattice cells to their home tile (side
    T = FLOOD_T) and to every 8-neighbour tile whose (T + 2D)^2 window
    covers them.  Returns (tile, ly, lx, src): tile id
    ``ty * n_tx + tx``, window-local coordinates (the seam is unwrapped
    around the tile) and the source row of each replica."""
    T = FLOOD_T
    side = 3 ** DISSOLVE_RES
    W = 4 * side
    n_tx, n_ty = W // T, side // T
    L = T + 2 * D
    home_ty, home_tx = gy // T, gx // T
    tiles, lys, lxs, srcs = [], [], [], []
    for dty in (-1, 0, 1):
        for dtx in (-1, 0, 1):
            ty = home_ty + dty
            tx = (home_tx + dtx) % n_tx
            ly = gy - ty * T + D
            lx = ((gx - tx * T + W // 2) % W) - W // 2 + D
            ok = ((ty >= 0) & (ty < n_ty) & (ly >= 0) & (ly < L)
                  & (lx >= 0) & (lx < L))
            tiles.append((ty * n_tx + tx)[ok])
            lys.append(ly[ok])
            lxs.append(lx[ok])
            srcs.append(np.flatnonzero(ok))
    return (np.concatenate(tiles), np.concatenate(lys),
            np.concatenate(lxs), np.concatenate(srcs))


def home_cells(mask: np.ndarray, ty: int, tx: int, D: int):
    """Window slots (hy, hx) where ``mask`` holds inside tile (ty, tx)'s
    home square [D, T + D)^2, with their cell ids."""
    T, k = FLOOD_T, DISSOLVE_RES
    L = T + 2 * D
    r = np.arange(L)
    inside = (r >= D) & (r < T + D)
    hy, hx = np.nonzero(mask & inside[:, None] & inside[None, :])
    gx = (tx * T + hx - D) % (4 * 3 ** k)
    return hy, hx, lattice_cell_ids(ty * T + hy - D, gx, k)


def halo_stencil(cells, D: int, cols: list[str], kernel, schema: pa.Schema):
    """Tile + D-halo stencil over a cell-keyed Dataset (``cell_u64``
    plus the value ``cols``): each cell is routed by halo_route, and
    each tile's rows meet in ONE ``groupby("tile").map_groups`` call
    of ``kernel(ty, tx, ly, lx, vals) -> pa.Table``, ``vals`` mapping
    each name in ``cols`` to its array.  Any depth-<=D computation is
    exact on the home window, so the stencil costs one exchange
    whatever D is.  An empty partition yields ``schema``'s empty
    table."""
    n_tx = 4 * 3 ** DISSOLVE_RES // FLOOD_T

    def route(batch: pa.Table) -> pa.Table:
        gy, gx = lattice_of_u64(
            batch["cell_u64"].to_numpy(zero_copy_only=False), DISSOLVE_RES)
        tile, ly, lx, src = halo_route(gy, gx, D)
        out = {"tile": pa.array(tile), "ly": pa.array(ly),
               "lx": pa.array(lx)}
        for c in cols:
            out[c] = pa.array(batch[c].to_numpy(zero_copy_only=False)[src])
        return pa.table(out)

    def run(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "tile" not in g.column_names:
            return schema.empty_table()
        tile = int(g["tile"][0].as_py())
        vals = {c: g[c].to_numpy(zero_copy_only=False) for c in cols}
        return kernel(tile // n_tx, tile % n_tx,
                      g["ly"].to_numpy(zero_copy_only=False),
                      g["lx"].to_numpy(zero_copy_only=False), vals)

    return (
        cells.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tile")
        .map_groups(run, batch_format="pyarrow")
    )
