"""Region / line -> cell-cover builders.

Re-expresses RHEALPixDGGS.cell_latitudes, cells_from_parallel,
cells_from_meridian, cells_from_region, cells_from_line, minimal_cover
(dggs.py:909-1410) plus Cell.intersects_meridian/_parallel
(cell.py:909-957) over packed uint64 cells.

These builders produce the SMALL side of the engine's spatial joins
(polygon cover sets, broadcast to every task; SURVEY.md §3.2/§4) and so
run driver-side, scalar, exactly reproducing the reference's walk order
— including its west->east / north->south output ordering, which the
distributed side then re-derives with ``ds.sort(cell_u64)``.
"""

from __future__ import annotations

import math

import numpy as np

from rhealpixdggs_py_ray.core import geometry as geo
from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import projection as prj
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core import topology as tp
from rhealpixdggs_py_ray.core.config import DOWN, LEFT, RIGHT, UP, EngineConfig
from rhealpixdggs_py_ray.core.utils import wrap_longitude


def _shape_name(cfg, u: int) -> str:
    return idx.SHAPE_NAMES[int(idx.shape_of(cfg, np.asarray([u], dtype=np.uint64))[0])]


def cell_latitudes(
    cfg: EngineConfig,
    resolution: int,
    phi_min: float,
    phi_max: float,
    nucleus: bool = True,
    plane: bool = True,
) -> list[float]:
    """Latitudes of cell nuclei (or boundaries) in a band
    (dggs.py:909-1004).  Scalar float accumulation mirrors the reference
    exactly so band-edge membership decisions agree."""
    if phi_min > phi_max:
        return []
    R = cfg.R_A
    pi = math.pi
    if plane:
        y_min, y_max = phi_min, phi_max
    else:
        y_min = float(prj.forward(cfg, np.array([0.0]), np.array([phi_min]), proj="healpix")[1][0])
        y_max = float(prj.forward(cfg, np.array([0.0]), np.array([phi_max]), proj="healpix")[1][0])
    w = cfg.cell_width(resolution)
    if cfg.N_side % 2 == 1:
        y = -R * pi / 2 + w if nucleus else -R * pi / 2 + w / 2
    else:
        if resolution == 0:
            y = 0 if nucleus else -R * pi / 4
        else:
            y = -R * pi / 2 + w / 2 if nucleus else -R * pi / 2 + w
    if y <= y_min:
        dy = y_min - y
        y = max(y + int(math.ceil(dy / w)) * w, y + w)
    result = []
    while y < y_max:
        result.append(y)
        y += w
    if not plane:
        ys = np.array(result, dtype=np.float64)
        if ys.size:
            _, lat, _ = prj.inverse(
                cfg, np.full(ys.shape, R * pi / 4), ys, proj="healpix"
            )
            result = [float(v) for v in lat]
    return result


def intersects_meridian(cfg: EngineConfig, u: int, lam: float) -> bool:
    """cell.py:909-939."""
    if _shape_name(cfg, u) == "cap":
        return True
    v = idx.vertices(cfg, np.asarray([u], dtype=np.uint64), plane=False)[0]
    lon_min = v[:, 0].min()
    lon_max = v[:, 0].max()
    PI = cfg.pi()
    if abs(lon_min - lon_max) > PI:
        lon_min = -lon_max
        return lon_max <= lam or lam <= lon_min
    return lon_min <= lam <= lon_max


def intersects_parallel(cfg: EngineConfig, u: int, phi: float) -> bool:
    """cell.py:941-957."""
    v = idx.vertices(cfg, np.asarray([u], dtype=np.uint64), plane=False)[0]
    lat_min = v[:, 1].min()
    lat_max = v[:, 1].max()
    if _shape_name(cfg, u) == "cap":
        reg = int(idx.region_of(np.asarray([u], dtype=np.uint64))[0])
        return phi >= lat_min if reg == 1 else phi <= lat_max
    return lat_min <= phi <= lat_max


def _cell_from_point_scalar(cfg, resolution, p, plane):
    c = idx.cell_from_point(
        cfg, resolution, np.asarray([p[0]], dtype=np.float64),
        np.asarray([p[1]], dtype=np.float64), plane=plane
    )[0]
    return None if c == idx.INVALID else int(c)


def cells_from_parallel(
    cfg: EngineConfig, resolution: int, phi: float, lam_min: float, lam_max: float
) -> list[int]:
    """dggs.py:1060-1094: east-neighbor walk along a parallel."""
    if lam_min > lam_max:
        return []
    start = _cell_from_point_scalar(cfg, resolution, (lam_min, phi), plane=False)
    end = _cell_from_point_scalar(cfg, resolution, (lam_max, phi), plane=False)
    PI = cfg.pi()
    if start == end:
        if _shape_name(cfg, start) == "cap" or lam_max - lam_min < PI / 2:
            return [start]
        end = tp.neighbors(cfg, start, plane=False)["west"]
    result = []
    current = start
    while current != end:
        result.append(current)
        current = tp.neighbors(cfg, current, plane=False)["east"]
    result.append(end)
    return result


def _east_west_vec(cfg: EngineConfig, u: np.ndarray):
    """Vectorized ellipsoidal east/west neighbors for quad/dart/skew
    cells (caps have no east/west; their entries are unspecified and
    must not be used).  Exactly reproduces topology.neighbors()
    relabeling (cell.py:1347-1446) including its first-maximal
    tie-breaks, which the walk builders rely on for reference-order
    parity — one vectorized call replaces a per-cell dict build."""
    u = np.asarray(u, dtype=np.uint64)
    shape = idx.shape_of(cfg, u)
    east = tp.neighbor(cfg, u, RIGHT)
    west = tp.neighbor(cfg, u, LEFT)
    nonquad = (shape == idx.SHAPE_DART) | (shape == idx.SHAPE_SKEW)
    if not nonquad.any():
        return east, west
    # Only darts and skew quads relabel, from all four planar
    # neighbours in the reference's dict-iteration order [left, right,
    # down, up] (cell.py:1366-1368).
    uu = u[nonquad]
    cand = np.stack(
        [west[nonquad], east[nonquad], tp.neighbor(cfg, uu, DOWN), tp.neighbor(cfg, uu, UP)],
        axis=1,
    )
    m = cand.shape[0]
    # One nucleus call for the candidates and the cells themselves.
    lon, lat = idx.nucleus(cfg, np.concatenate([cand.ravel(), uu]), plane=False)
    my_lon = lon[4 * m:]
    lon = lon[:4 * m].reshape(m, 4)
    lat = lat[:4 * m].reshape(m, 4)
    lon_s = wrap_longitude(lon - my_lon[:, None], radians=cfg.radians)

    e_nq = np.empty(m, dtype=np.uint64)
    w_nq = np.empty(m, dtype=np.uint64)
    sk = shape[nonquad] == idx.SHAPE_SKEW
    if sk.any():
        ls, la, cs = lon_s[sk], lat[sk], cand[sk]
        r = np.arange(len(cs))
        ni = np.argmax(la, axis=1)  # first-maximal == python max()
        la2 = la.copy()
        la2[r, ni] = np.inf
        si = np.argmin(la2, axis=1)
        lo2 = ls.copy()
        lo2[r, ni] = -np.inf
        lo2[r, si] = -np.inf
        ei = np.argmax(lo2, axis=1)
        wi = 6 - ni - si - ei
        e_nq[sk] = cs[r, ei]
        w_nq[sk] = cs[r, wi]
    da = ~sk
    if da.any():
        ls, la, cs = lon_s[da], lat[da], cand[da]
        # reference sorts (lon', lat, cell) tuples: full lexicographic
        order = np.lexsort((cs, la, ls))
        r = np.arange(len(cs))
        w_nq[da] = cs[r, order[:, 0]]
        e_nq[da] = cs[r, order[:, 3]]
    east[nonquad] = e_nq
    west[nonquad] = w_nq
    return east, west


def _walk_rows(cfg: EngineConfig, starts: np.ndarray, ends: np.ndarray,
               resolution: int, step: str = "east") -> list[list[int]]:
    """Walk every row simultaneously from its start to its end cell,
    one vectorized neighbor step per iteration (replaces the per-cell
    scalar walk; SURVEY §7.2(e)).  ``step`` is 'east' (ellipsoidal) or
    'right' (planar)."""
    n = len(starts)
    rows: list[list[int]] = [[] for _ in range(n)]
    current = np.asarray(starts, dtype=np.uint64).copy()
    ends = np.asarray(ends, dtype=np.uint64)
    active = np.arange(n)
    limit = 4 * cfg.N_side**resolution + 2  # a full circle + slack
    for _ in range(limit):
        if not len(active):
            return rows
        cur = current[active]
        for i, c in zip(active, cur):
            rows[i].append(int(c))
        going = cur != ends[active]
        active = active[going]
        if not len(active):
            return rows
        if step == "east":
            nxt, _ = _east_west_vec(cfg, current[active])
        else:
            nxt = tp.neighbor(cfg, current[active], RIGHT)
        current[active] = nxt
    raise RuntimeError("cover walk failed to terminate (corrupt start/end?)")


def cells_from_parallel_vec(
    cfg: EngineConfig, resolution: int, phis, lam_min: float, lam_max: float
) -> list[list[int]]:
    """Vectorized cells_from_parallel over MANY parallels at once
    (dggs.py:1060-1094 semantics per row, identical output order)."""
    phis = np.asarray(phis, dtype=np.float64)
    n = len(phis)
    if not n:
        return []
    lam1 = np.full(n, lam_min)
    lam2 = np.full(n, lam_max)
    starts = idx.cell_from_point(cfg, resolution, lam1, phis, plane=False)
    ends = idx.cell_from_point(cfg, resolution, lam2, phis, plane=False)
    PI = cfg.pi()
    same = starts == ends
    shape = idx.shape_of(cfg, starts)
    single = same & ((shape == idx.SHAPE_CAP) | (lam_max - lam_min < PI / 2))
    wrap = same & ~single
    if wrap.any():
        _, wests = _east_west_vec(cfg, starts[wrap])
        ends = ends.copy()
        ends[wrap] = wests
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in np.flatnonzero(single):
        rows[i] = [int(starts[i])]
    walk = np.flatnonzero(~single)
    if len(walk):
        walked = _walk_rows(cfg, starts[walk], ends[walk], resolution, step="east")
        for i, row in zip(walk, walked):
            rows[i] = row
    return rows


def cells_from_meridian(
    cfg: EngineConfig, resolution: int, lam: float, phi_min: float, phi_max: float
) -> list[int]:
    """dggs.py:1006-1058."""
    if phi_min > phi_max:
        return []
    start = _cell_from_point_scalar(cfg, resolution, (lam, phi_max), plane=False)
    end = _cell_from_point_scalar(cfg, resolution, (lam, phi_min), plane=False)
    if start == end:
        return [start]
    phis = cell_latitudes(cfg, resolution, phi_min, phi_max, True, plane=False)
    if not phis:
        return [start, end]
    result: list[int] = []
    for phi in reversed(phis):
        c = _cell_from_point_scalar(cfg, resolution, (lam, phi), plane=False)
        new_cells = [c]
        if _shape_name(cfg, c) in ("dart", "skew_quad"):
            nbrs = tp.neighbors(cfg, c, plane=False)
            west = nbrs["west"]
            east = nbrs["east"]
            if intersects_meridian(cfg, west, lam):
                new_cells = [west, c]
            elif intersects_meridian(cfg, east, lam):
                new_cells = [c, east]
        result.extend(new_cells)
    if start not in result[0:2]:
        result.insert(0, start)
    if end not in result[-1:-3]:
        result.append(end)
    return result


def cells_from_region(
    cfg: EngineConfig,
    resolution: int,
    ul,
    dr,
    plane: bool = True,
) -> list[list[int]]:
    """Region -> cover rows (dggs.py:1181-1331).  Planar rectangle via
    right/down neighbor walks; ellipsoidal quad/cap via rows of
    parallels.  Output ordering identical to the reference, but every
    row advances in lockstep through ONE vectorized neighbor call per
    column step (_walk_rows) instead of a per-cell scalar walk."""
    if ul[0] > dr[0] or ul[1] < dr[1]:
        return []
    if plane:
        ur = _cell_from_point_scalar(cfg, resolution, (dr[0], ul[1]), plane)
        dl = _cell_from_point_scalar(cfg, resolution, (ul[0], dr[1]), plane)
        ulc = _cell_from_point_scalar(cfg, resolution, ul, plane)
        drc = _cell_from_point_scalar(cfg, resolution, dr, plane)
        if ur is None or dl is None:
            return []
        if ulc == drc:
            return [[ulc]]
        starts, ends = [ulc], [ur]
        limit = 4 * cfg.N_side**resolution + 2
        while ends[-1] != drc:
            if len(ends) > limit:
                raise RuntimeError("planar cover rows failed to reach drc")
            edge = np.asarray([starts[-1], ends[-1]], dtype=np.uint64)
            down = tp.neighbor(cfg, edge, DOWN)
            starts.append(int(down[0]))
            ends.append(int(down[1]))
        return _walk_rows(
            cfg, np.asarray(starts, dtype=np.uint64),
            np.asarray(ends, dtype=np.uint64), resolution, step="right",
        )

    # Ellipsoidal quad or cap region.
    phi_min, phi_max = dr[1], ul[1]
    phis = cell_latitudes(cfg, resolution, phi_min, phi_max, True, plane)
    PI = cfg.pi()
    if (tuple(ul) == (-PI, PI / 2) and dr[0] == -PI) or (
        tuple(dr) == (-PI, -PI / 2) and ul[0] == -PI
    ):
        lam_min, lam_max = -PI, PI
    else:
        lam_min, lam_max = ul[0], dr[0]
    # One vectorized multi-row walk covers the nucleus parallels plus
    # the (possibly redundant) phi_max / phi_min boundary rows.
    all_phis = [phi_max] + list(reversed(phis)) + [phi_min]
    rows_all = cells_from_parallel_vec(cfg, resolution, all_phis, lam_min, lam_max)
    top, bot = rows_all[0], rows_all[-1]
    result = rows_all[1:-1]
    ul_cell = _cell_from_point_scalar(cfg, resolution, ul, plane)
    if not result or result[0][0] != ul_cell:
        result.insert(0, top)
    dl_cell = _cell_from_point_scalar(cfg, resolution, (ul[0], dr[1]), plane)
    if not result or result[-1][0] != dl_cell:
        result.append(bot)
    return result


def antimeridian_check_and_flip(cfg: EngineConfig, vertices, plane: bool = True):
    """dggs.py:1412-1471."""
    if plane:
        return vertices
    half = math.pi if cfg.radians else 180.0
    lngs = [v[0] for v in vertices]
    if half not in lngs and -half not in lngs:
        return vertices
    check = half if half in lngs else -half
    fine = True
    for lng in lngs:
        if lng != check and lng * check < 0:
            fine = False
            break
    if fine:
        return vertices
    lngs = [lng if lng != check else -lng for lng in lngs]
    return [(lng, v[1]) for lng, v in zip(lngs, vertices)]


def cells_from_line(
    cfg: EngineConfig, resolution: int, lstart, lend, plane: bool = True
) -> list[int]:
    """Neighbor walk along a segment (dggs.py:1096-1179), with the
    reference's own limitations (no antimeridian crossing; cap cells
    documented-broken, dggs.py:1110-1114)."""
    start = _cell_from_point_scalar(cfg, resolution, lstart, plane)
    end = _cell_from_point_scalar(cfg, resolution, lend, plane)
    line_cells: list[int] = []
    if start is None or end is None:
        return line_cells
    if start == end:
        return [start]
    current = start
    while current != end:
        line_cells.append(current)
        nns = tp.neighbors(cfg, current, plane=plane)
        following = None
        for key in nns:
            nn = nns[key]
            verts = [
                (float(p[0]), float(p[1]))
                for p in idx.vertices(cfg, np.asarray([nn], dtype=np.uint64), plane=plane)[0]
            ]
            verts.append(verts[0])
            for a, b in zip(verts, verts[1:]):
                if following:
                    break
                a2, b2 = antimeridian_check_and_flip(cfg, [a, b], plane=plane)
                if geo.segments_intersect(lstart, lend, a2, b2) and nn not in line_cells:
                    following = nn
        if not following:
            current = end
        else:
            current = following
    line_cells.append(end)
    return line_cells


def minimal_cover(
    cfg: EngineConfig, resolution: int, points, plane: bool = True
) -> list[int]:
    """Distinct cells covering a point list (dggs.py:1372-1410);
    first-seen order like the reference's dict insertion order."""
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    ys = np.asarray([p[1] for p in points], dtype=np.float64)
    cells = idx.cell_from_point(cfg, resolution, xs, ys, plane=plane)
    seen: dict[int, None] = {}
    for c in cells:
        seen[int(c)] = None
    return list(seen.keys())


def cells_from_line_sampled(
    cfg: EngineConfig, resolution: int, lstart, lend, n_samples: int = 4096
) -> list[int]:
    """Cap-safe linetrace (round-3 extension BEYOND the reference).

    ``cells_from_line`` above mirrors the reference's ellipsoidal
    neighbor walk, including its documented breakage on cap cells
    (dggs.py:1110-1114: "Cap cells are not handled correctly").  This
    variant instead samples the lon/lat-straight segment at
    ``n_samples``+1 uniform parameters, indexes every sample with the
    exact vectorized ``cell_from_point`` kernel (valid at ALL
    latitudes, caps included) and collapses consecutive duplicates —
    yielding the exact entry-ordered crossing sequence whenever no
    cell is clipped over a parameter interval shorter than one step
    (fixtures keep step << cell width; tests pin refinement
    stability).  Still no antimeridian crossing, like the reference.

    n_samples is a power of two so i/n_samples is exact in binary —
    the DuckDB oracle (oracle.linetrace_sampled_sql) replays the
    sample coordinates bit-identically.
    """
    x0, y0 = float(lstart[0]), float(lstart[1])
    x1, y1 = float(lend[0]), float(lend[1])
    t = np.arange(n_samples + 1, dtype=np.float64) / float(n_samples)
    lon = x0 + (x1 - x0) * t
    lat = y0 + (y1 - y0) * t
    cells = idx.cell_from_point(cfg, resolution, lon, lat, plane=False)
    keep = np.ones(len(cells), dtype=bool)
    keep[1:] = cells[1:] != cells[:-1]
    return [int(c) for c in cells[keep]]
