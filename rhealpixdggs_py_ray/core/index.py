"""Vectorized point->cell indexing and per-cell geometry kernels.

Re-expresses the reference's ``RHEALPixDGGS.cell_from_point``
(dggs.py:737-831) and the ``Cell`` geometry methods
(ul_vertex/nucleus/vertices/nw_vertex/centroid/region/shape,
cell.py:483-1147) as numpy kernels over packed uint64 cell columns.

Scalar arithmetic mirrors the reference exactly, including the border
fuzz at dx==1 (dggs.py:807-814) and the truncation semantics of
``int(float(str(dy * N**res)))`` (dggs.py:820-823; a repr round-trip,
hence plain float64 truncation in Python 3).
"""

from __future__ import annotations

import math

import numpy as np

from rhealpixdggs_py_ray.core import projection as prj
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import EngineConfig
from rhealpixdggs_py_ray.core.utils import ravel_pair, wrap_longitude

INVALID = np.uint64(0xFFFFFFFFFFFFFFFF)  # sentinel for "no cell" (off-grid)

# Ellipsoidal shape codes (cell.py:1008-1059).
SHAPE_QUAD, SHAPE_CAP, SHAPE_DART, SHAPE_SKEW = 0, 1, 2, 3
SHAPE_NAMES = ("quad", "cap", "dart", "skew_quad")

REGION_NAMES = ("equatorial", "north_polar", "south_polar")


def cell_from_point(
    cfg: EngineConfig, resolution: int, x: np.ndarray, y: np.ndarray, plane: bool = True
) -> np.ndarray:
    """THE point->cell indexer (dggs.py:737-831), fully vectorized.

    ``x, y`` are planar meters when ``plane`` else (lon, lat) in the
    config's angle unit.  Returns packed uint64 cells; INVALID marks
    off-grid points.  Resolutions past ``su.MAX_PACK_RESOLUTION`` raise
    ValueError, as ``su.pack`` does.  (lon, lat) on an ellipsoid of the
    authalic series branch take ``_cell_from_lonlat``'s filter and
    refine; its cells equal those of ``forward`` + the planar step.
    ``x`` and ``y`` broadcast; the cells take their shape.
    """
    if resolution > su.MAX_PACK_RESOLUTION:
        raise ValueError(f"resolution {resolution} > {su.MAX_PACK_RESOLUTION}")
    shape, x, y = ravel_pair(x, y)
    if not plane:
        if cfg.auth_sin_coeffs is not None:
            return _cell_from_lonlat(cfg, resolution, x, y)[0].reshape(shape)
        x, y = prj.forward(cfg, x, y)
    return _plane_cells(cfg, resolution, x, y)[0].reshape(shape)


# Filter-and-refine bounds, in unit-sphere planar units (the plane
# before the R_A scaling); see _cell_from_lonlat.
_SIN_BETA_ERR = 1e-14  # bound on |sin beta (one sine) - sin beta (forward)|
_POLE_GUARD = 1e-6  # rows with |sin beta| > 1 - _POLE_GUARD are refined
_REFINE_MARGIN = 1.5e-10  # rows this close to a grid line are refined


def _cell_from_lonlat(cfg: EngineConfig, resolution: int, lon: np.ndarray, lat: np.ndarray):
    """cell_from_point on (lon, lat), filter and refine: the planar step
    runs on ``prj._forward_one_sine``'s approximate (x, y), and every
    row whose cell that error could change is recomputed through the
    exact ``forward`` + planar step.  Returns (cells, rows refined).

    Error bound.  The one-sine sin(beta) and the sin of forward's
    series beta differ by at most 2.2e-16 (one ulp at 1) over 6M
    latitudes, dense and random, for WGS84 and f = 1/150.5; a rounding
    estimate of the two chains gives ~1e-15.  _SIN_BETA_ERR takes
    1e-14.  Both paths share lambda, the branch formulas, the
    rotation and R_A, so the planar error comes from sin(beta) alone:
    3 pi / 8 * err in the band; in the caps, through
    sigma = sqrt(3 (1 - |sin beta|)), at most pi / 4 * 3 err / sigma
    per coordinate, which grows without bound at the poles (sigma -> 0;
    with N_side 2 the pole is a grid vertex at every resolution).  So
    a row is refined when
    - it is within _REFINE_MARGIN of a res-r grid line (face edges are
      grid lines too, so this covers the face and the cell);
    - | |sin beta| - 2/3 | <= _SIN_BETA_ERR (the two paths may take
      different branches; such a row is also within the margin of the
      face edge |y| = pi/4, but the branch argument does not lean on
      that);
    - |sin beta| > 1 - _POLE_GUARD;
    - its cell is INVALID.
    Outside the guards sigma >= sqrt(3e-6), so the worst-case planar
    error is 1.4e-11 (9e-5 m on WGS84) against a margin of 1.5e-10
    (0.96 mm): a ratio of 11 at the pole guard, ~1e4 in the band.  The
    largest error measured, over 2M points uniform on the sphere plus
    2M with 1 - |sin beta| in [1e-6, 1e-3], was 7.6e-14 (4.8e-7 m,
    next to the pole guard) for WGS84, N_side 2 and f = 1/150.5: a
    ratio of ~2,000.  The margin refines about 4 * 1.5e-10 / (pi / 2)
    * N**r of the rows: 7.5e-6 at res 9, 1.8e-3 at res 14 (N = 3).
    """
    x, y, sin_beta = prj._forward_one_sine(cfg, lon, lat)
    u, gx, gy = _plane_cells(cfg, resolution, x, y)
    m = _REFINE_MARGIN / (math.pi / 2) * cfg.N_side**resolution  # in res-r cell widths
    refine = np.abs(gx - np.rint(gx)) < m
    refine |= np.abs(gy - np.rint(gy)) < m
    refine |= np.abs(sin_beta - 2 / 3) <= _SIN_BETA_ERR
    refine |= sin_beta > 1 - _POLE_GUARD
    refine |= u == INVALID
    at = np.flatnonzero(refine)
    if at.size:
        xe, ye = prj.forward(cfg, lon.take(at), lat.take(at))
        u[at] = _plane_cells(cfg, resolution, xe, ye)[0]
    return u, at.size


def _plane_cells(cfg: EngineConfig, resolution: int, x: np.ndarray, y: np.ndarray):
    """cell_from_point's planar step on float64 (x, y) meters.  Returns
    (cells, gx, gy): gx, gy are each point's offsets from its face's
    ul vertex in res-r cell widths, before the border fuzz at dx == 1,
    so the res-r grid lines (face edges included) are the integers."""
    ns = cfg.north_square % 4
    ss = cfg.south_square % 4
    R = cfg.R_A
    pi = math.pi

    # Resolution-0 face selection (dggs.py:768-795).  The north, south
    # and band tests are disjoint, and so are the band's four [lo, hi)
    # columns, so the face is one sum of the comparisons: N (0) adds
    # nothing, a band column adds 1..4 and S adds 5.
    eq_band = (y >= -R * pi / 4) & (y <= R * pi / 4)
    north = (
        (y > R * pi / 4)
        & (y < R * 3 * pi / 4)
        & (x > R * (-pi + ns * (pi / 2)))
        & (x < R * (-pi / 2 + ns * (pi / 2)))
    )
    south = (
        (y > -R * 3 * pi / 4)
        & (y < -R * pi / 4)
        & (x > R * (-pi + ss * (pi / 2)))
        & (x < R * (-pi / 2 + ss * (pi / 2)))
    )
    column = sum((x >= R * lo).view(np.int8) for lo in (-pi, -pi / 2, 0.0, pi / 2))
    column *= (eq_band & (x < R * pi)).view(np.int8)
    fidx = column + 5 * south.view(np.int8)
    invalid = np.flatnonzero(~((column > 0) | north | south))

    # Fractional offsets from the face's ul vertex (dggs.py:803-814).
    w = cfg.cell_width(0)
    ul = cfg.ul_vertex
    dx = np.abs(x - ul[:, 0].take(fidx)) / w
    dy = np.abs(y - ul[:, 1].take(fidx)) / w
    N = cfg.N_side
    scale = float(N**resolution)
    gx = dx * scale
    gy = dy * scale
    if resolution == 0:
        out = fidx.astype(np.uint64) << np.uint64(60)
        out[invalid] = INVALID
        return out, gx, gy

    # int(d * scale) truncates toward zero, as int() does; d == 1 first
    # moves in by the smidgen.
    smidgen = 0.5 * cfg.cell_width(cfg.max_resolution) / w
    col = gx.astype(np.int64)
    row = gy.astype(np.int64)
    for d, rc in ((dx, col), (dy, row)):
        rc[np.flatnonzero(d == 1)] = int((1.0 - smidgen) * scale)

    # Level-i digit is child_order[(r, c)] = r*N + c of the i-th base-N
    # digits of (row, col); N*N <= 16, so N * spread(row) + spread(col)
    # is every level's digit in its own nibble, least significant last.
    digits = np.uint64(N) * _spread_digits(row, N, resolution) + _spread_digits(col, N, resolution)
    out = (
        (fidx.astype(np.uint64) << np.uint64(60))
        | (digits << np.uint64(60 - 4 * resolution))
        | np.uint64(resolution)
    )
    out[invalid] = INVALID
    return out, gx, gy


_SPREAD_SLOTS = 1 << 16  # most entries of a spread table
_SPREAD: dict[int, np.ndarray] = {}


def _spread_width(N: int) -> int:
    """Base-N digits per spread-table lookup: the most with N**k <=
    _SPREAD_SLOTS (10 for N = 3, 16 for N = 2)."""
    k = 1
    while N ** (k + 1) <= _SPREAD_SLOTS:
        k += 1
    return k


def _spread_table(N: int) -> np.ndarray:
    """uint64[N**k], k = _spread_width(N): entry v holds v's k base-N
    digits, one per nibble, least significant digit in the lowest
    nibble."""
    t = _SPREAD.get(N)
    if t is None:
        k = _spread_width(N)
        v = np.arange(N**k, dtype=np.uint64)
        t = np.zeros_like(v)
        for j in range(k):
            t |= ((v // np.uint64(N**j)) % np.uint64(N)) << np.uint64(4 * j)
        t.flags.writeable = False
        _SPREAD[N] = t
    return t


def _spread_digits(v: np.ndarray, N: int, resolution: int) -> np.ndarray:
    """The low ``resolution`` base-N digits of int64 ``v``, one per
    nibble (the per-level ``(v // N**k) % N`` of dggs.py:816-829): one
    gather while N**resolution fits the table (res <= 10 at N = 3)."""
    t = _spread_table(N)
    width = _spread_width(N)
    if not (v.size and 0 <= v.min() and v.max() < N**resolution):
        v = v % N**resolution  # dy just past 1 gives N**res: wrap it to 0
    if resolution <= width:
        return t.take(v)
    base = N**width
    out = t.take(v % base)
    for k in range(1, -(-resolution // width)):
        v = v // base
        out |= t.take(v % base) << np.uint64(4 * width * k)
    return out


# ---------------------------------------------------------------------------
# Cell geometry
# ---------------------------------------------------------------------------

_NEG_POW: dict[int, np.ndarray] = {}


def _neg_pow_table(N: int) -> np.ndarray:
    """N**(-r) for r in 0..30 computed with Python's int.__pow__, which
    rounds differently (by 1 ulp) than np.power for some exponents; the
    reference uses the Python expression (cell.py:516, dggs.py:687)."""
    t = _NEG_POW.get(N)
    if t is None:
        t = np.array([N ** (-r) for r in range(31)], dtype=np.float64)
        _NEG_POW[N] = t
    return t


def ul_vertex(cfg: EngineConfig, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar upper-left vertex of each cell (cell.py:483-531)."""
    face, digits, res = su.unpack(u)
    N = cfg.N_side
    rmax = digits.shape[1]
    resL = res.astype(np.int64)
    # Integer digit dot products: sum N**(res-i) * digit_i, i = 1..res.
    dxi = np.zeros(u.shape, dtype=np.int64)
    dyi = np.zeros(u.shape, dtype=np.int64)
    for i in range(rmax):
        lvl = i + 1
        take = resL >= lvl
        p = np.where(take, N ** np.maximum(resL - lvl, 0), 0)
        rowd = digits[:, i] // N
        cold = digits[:, i] % N
        dxi += p * cold
        dyi += p * rowd
    invscale = _neg_pow_table(N)[resL]
    dx = dxi.astype(np.float64) * invscale
    dy = dyi.astype(np.float64) * invscale
    w0 = cfg.cell_width(0)
    x0 = cfg.ul_vertex[face, 0]
    y0 = cfg.ul_vertex[face, 1]
    return x0 + w0 * dx, y0 - w0 * dy


def width_of(cfg: EngineConfig, u: np.ndarray) -> np.ndarray:
    res = su.resolution_of(u)
    return cfg.R_A * (math.pi / 2) * _neg_pow_table(cfg.N_side)[res]


def nucleus(cfg: EngineConfig, u: np.ndarray, plane: bool = True):
    """Cell center (cell.py:625-653)."""
    x, y = ul_vertex(cfg, u)
    w = width_of(cfg, u)
    cx, cy = x + w / 2, y - w / 2
    if plane:
        return cx, cy
    lon, lat, _ = prj.inverse(cfg, cx, cy)
    return lon, lat


def region_of(u: np.ndarray) -> np.ndarray:
    """0 equatorial / 1 north_polar / 2 south_polar (cell.py:986-1006)."""
    face = su.face_of(u)
    out = np.zeros(face.shape, dtype=np.int8)
    out[face == 0] = 1
    out[face == 5] = 2
    return out


def shape_of(cfg: EngineConfig, u: np.ndarray) -> np.ndarray:
    """Ellipsoidal shape classification (cell.py:1008-1059):
    quad / cap / dart / skew_quad, from SUID digit patterns."""
    face, digits, res = su.unpack(u)
    N = cfg.N_side
    resL = res.astype(np.int64)
    out = np.full(u.shape, SHAPE_SKEW, dtype=np.int8)
    polar = (face == 0) | (face == 5)
    out[~polar] = SHAPE_QUAD

    center = (N * N - 1) // 2
    cap = polar & (N % 2 == 1)
    diag1 = polar.copy()  # digits on main diagonal {i*(N+1)}
    diag2 = polar.copy()  # digits on anti diagonal {(i+1)*(N-1)}
    on1 = np.zeros(N * N, dtype=bool)
    on1[[i * (N + 1) for i in range(N)]] = True
    on2 = np.zeros(N * N, dtype=bool)
    on2[[(i + 1) * (N - 1) for i in range(N)]] = True
    for i in range(digits.shape[1]):
        has = resL > i
        d = digits[:, i]
        cap &= ~has | (d == center)
        diag1 &= ~has | on1[d]
        diag2 &= ~has | on2[d]
    out[polar & (diag1 | diag2)] = SHAPE_DART
    out[cap] = SHAPE_CAP  # cap wins over dart (center digit is on diag1)
    out[polar & (resL == 0)] = SHAPE_CAP  # res-0 N/S are caps for any N_side
    return out


def vertices_plane(cfg: EngineConfig, u: np.ndarray) -> np.ndarray:
    """(n, 4, 2) planar corners in (ul, ur, dr, dl) order
    (cell.py:708-713)."""
    x, y = ul_vertex(cfg, u)
    w = width_of(cfg, u)
    out = np.empty((u.shape[0], 4, 2), dtype=np.float64)
    out[:, 0, 0] = x
    out[:, 0, 1] = y
    out[:, 1, 0] = x + w
    out[:, 1, 1] = y
    out[:, 2, 0] = x + w
    out[:, 2, 1] = y - w
    out[:, 3, 0] = x
    out[:, 3, 1] = y - w
    return out


def nw_vertex_index(cfg: EngineConfig, u: np.ndarray) -> np.ndarray:
    """Index (0..3) of the northwest vertex within the planar vertex
    list (cell.py:533-623), vectorized over cells."""
    n = u.shape[0]
    shape = shape_of(cfg, u)
    reg = region_of(u)
    idx = np.zeros(n, dtype=np.int64)  # quad/cap: ul vertex

    skew = shape == SHAPE_SKEW
    if skew.any():
        cx, cy = nucleus(cfg, u[skew], plane=True)
        tri, _ = prj.triangle(
            cx / cfg.R_A,
            cy / cfg.R_A,
            north_square=cfg.north_square,
            south_square=cfg.south_square,
            inverse=True,
        )
        r = reg[skew]
        i_n = (tri - cfg.north_square) % 4
        i_s = (tri - cfg.south_square) % 4
        # north: v[-i] -> index (4 - i) % 4 ; south: v[i]
        idx[skew] = np.where(r == 1, (4 - i_n) % 4, i_s)

    dart = shape == SHAPE_DART
    if dart.any():
        v = vertices_plane(cfg, u[dart])  # (m, 4, 2)
        m = v.shape[0]
        lon, lat, _ = prj.inverse(cfg, v[:, :, 0].ravel(), v[:, :, 1].ravel())
        lat = np.abs(lat.reshape(m, 4))
        # max over (|lat|, j) pairs -> last argmax on ties (reference
        # max((abs, j)) picks the larger j among equal lats)
        rev = lat[:, ::-1]
        i_pole = 3 - np.argmax(rev, axis=1)
        r = reg[dart]
        idx[dart] = np.where(r == 1, i_pole, (i_pole + 1) % 4)
    return idx


def vertices(
    cfg: EngineConfig, u: np.ndarray, plane: bool = True
) -> np.ndarray:
    """(n, 4, 2) vertices.  Planar: (ul, ur, dr, dl).  Ellipsoidal:
    rotated to start at the northwest vertex then inverse-projected with
    the cell's region (cell.py:655-732).  Dart cells still return 4
    points (the non-vertex included), as the reference does without
    trim_dart."""
    v = vertices_plane(cfg, u)
    if plane:
        return v
    i = nw_vertex_index(cfg, u)
    n = u.shape[0]
    rows = np.arange(n)[:, None]
    order = (i[:, None] + np.arange(4)[None, :]) % 4
    v = v[rows, order]
    reg = region_of(u)
    out = np.empty_like(v)
    for code, rname in ((0, "equatorial"), (1, "north_polar"), (2, "south_polar")):
        m = reg == code
        if not m.any():
            continue
        lon, lat, _ = prj.inverse(
            cfg, v[m, :, 0].ravel(), v[m, :, 1].ravel(), region=rname
        )
        out[m, :, 0] = lon.reshape(-1, 4)
        out[m, :, 1] = lat.reshape(-1, 4)
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(30)

# Skew and dart cells per quadrature pass: 256 cells are 230,400 inverse
# projections, ~1.8 MB per float64 temporary, whatever the batch size.
_CENTROID_CHUNK = 256


def centroid(cfg: EngineConfig, u: np.ndarray, plane: bool = True):
    """Cell centroid (cell.py:1061-1147).  The reference's adaptive
    ``scipy.integrate.dblquad`` over the inverse projection (dart /
    skew_quad cells) is replaced by a fixed 30x30 Gauss-Legendre rule on
    the planar square — deterministic, batched, and within ~1e-11 of the
    reference for these smooth integrands (validated in tests).  The
    quadrature runs _CENTROID_CHUNK cells at a time; each cell's sums
    are its own, so the chunking changes no bit."""
    if plane:
        return nucleus(cfg, u, plane=True)
    n = u.shape[0]
    lon = np.empty(n)
    lat = np.empty(n)
    shape = shape_of(cfg, u)

    simple = (shape == SHAPE_CAP) | (shape == SHAPE_QUAD)
    if simple.any():
        nl, np_ = nucleus(cfg, u[simple], plane=False)
        lon[simple] = nl
        lat[simple] = np_
        quad = shape == SHAPE_QUAD
        if quad.any():
            # Longitude is the nucleus's, set above; latitude the mean
            # of the four vertex latitudes.
            vq = vertices(cfg, u[quad], plane=False)
            lat[quad] = vq[:, :, 1].sum(axis=1) / 4

    for code, integrate in ((SHAPE_SKEW, _skew_centroid), (SHAPE_DART, _dart_centroid)):
        rows = np.flatnonzero(shape == code)
        for i in range(0, rows.size, _CENTROID_CHUNK):
            at = rows[i:i + _CENTROID_CHUNK]
            lon[at], lat[at] = integrate(cfg, u.take(at))
    return lon, lat


def _square(cfg: EngineConfig, uh: np.ndarray):
    """(x1, x2, y1, y2): each cell's planar square."""
    vh = vertices_plane(cfg, uh)
    return vh[:, :, 0].min(axis=1), vh[:, :, 0].max(axis=1), vh[:, :, 1].min(axis=1), vh[:, :, 1].max(axis=1)


def _face_centre(cfg: EngineConfig, uh: np.ndarray):
    """(x, y): the planar centre of each cell's res-0 face."""
    face = su.face_of(uh)
    w0 = cfg.cell_width(0)
    return cfg.ul_vertex[face, 0] + w0 / 2, cfg.ul_vertex[face, 1] - w0 / 2


def _skew_centroid(cfg: EngineConfig, uh: np.ndarray):
    """(lon, lat) centroids of skew-quad cells.  A skew quad lies inside
    one polar triangle, so the inverse projection is smooth over the
    square: tensor Gauss-Legendre."""
    x1, x2, y1, y2 = _square(cfg, uh)
    area = (x2 - x1) ** 2
    g = _GL_NODES
    wgt = _GL_WEIGHTS
    xm = (x1[:, None] + x2[:, None]) / 2 + (x2 - x1)[:, None] / 2 * g[None, :]
    ym = (y1[:, None] + y2[:, None]) / 2 + (y2 - y1)[:, None] / 2 * g[None, :]
    m = uh.shape[0]
    k = g.shape[0]
    X = np.repeat(xm[:, :, None], k, axis=2)  # (m, kx, ky)
    Y = np.repeat(ym[:, None, :], k, axis=1)
    lo, la, _ = prj.inverse(cfg, X.ravel(), Y.ravel())
    lo = lo.reshape(m, k, k)
    la = la.reshape(m, k, k)
    W2 = wgt[None, :, None] * wgt[None, None, :]
    jac = ((x2 - x1) / 2 * (y2 - y1) / 2)[:, None, None]
    return (lo * W2 * jac).sum(axis=(1, 2)) / area, (la * W2 * jac).sum(axis=(1, 2)) / area


def skew_centroid_estimate(cfg: EngineConfig, uh: np.ndarray):
    """(lon, lat) within ~1e-12 of ``centroid`` for skew-quad cells,
    from 30 inverse projections instead of 900.  In one polar triangle
    latitude depends only on the Chebyshev axis (the one along which
    distance from the face centre grows), and longitude is affine in
    the other axis (HEALPix: lambda = x_c + (x - x_c) / tau, then a
    quarter turn).  The GL rule has sum w = 2 and sum w g = 0, so the
    30x30 tensor sum is 1/2 sum_i w_i F(a_i, b_mid): the 1-D rule
    along the cell's mid-line on that axis.  The two sums round
    differently, so this only decides cells with a margin
    (``stages.join.polyfill_dense``); ``centroid`` keeps its bits."""
    x1, x2, y1, y2 = _square(cfg, uh)
    cx = (x1 + x2) / 2
    cy = (y1 + y2) / 2
    fx, fy = _face_centre(cfg, uh)
    vertical = np.abs(cy - fy) > np.abs(cx - fx)
    g = _GL_NODES[None, :]
    X = np.where(vertical[:, None], cx[:, None], cx[:, None] + (x2 - x1)[:, None] / 2 * g)
    Y = np.where(vertical[:, None], cy[:, None] + (y2 - y1)[:, None] / 2 * g, cy[:, None])
    lo, la, _ = prj.inverse(cfg, X.ravel(), Y.ravel())
    k = _GL_NODES.shape[0]
    return lo.reshape(-1, k) @ _GL_WEIGHTS / 2, la.reshape(-1, k) @ _GL_WEIGHTS / 2


def _dart_centroid(cfg: EngineConfig, uh: np.ndarray):
    """(lon, lat) centroids of dart cells.  A dart cell's square is
    bisected by a polar-square diagonal, across which the inverse
    projection has a derivative kink (triangle boundary,
    pj_rhealpix.py:220-257).  Integrate the latitude over the two smooth
    triangle halves separately (Duffy-mapped Gauss rule per triangle);
    longitude is the nucleus longitude (cell.py:1104-1109)."""
    vh = vertices_plane(cfg, uh)  # (m, 4, 2): ul, ur, dr, dl
    ul_, ur_, dr_, dl_ = vh[:, 0], vh[:, 1], vh[:, 2], vh[:, 3]
    cx = (ul_[:, 0] + ur_[:, 0]) / 2
    cy = (ul_[:, 1] + dl_[:, 1]) / 2
    w = ur_[:, 0] - ul_[:, 0]
    # Which diagonal of the polar square passes through the center?
    # Rising (slope +1) runs dl->ur; falling (slope -1) runs ul->dr.
    fx, fy = _face_centre(cfg, uh)
    rising = np.abs((cy - fy) - (cx - fx)) <= np.abs((cy - fy) + (cx - fx))
    # Triangle pairs sharing the bisecting diagonal.
    A1 = np.where(rising[:, None], ul_, ur_)
    B1 = np.where(rising[:, None], dl_, ul_)
    C1 = np.where(rising[:, None], ur_, dr_)
    A2 = np.where(rising[:, None], dr_, dl_)
    B2 = np.where(rising[:, None], dl_, ul_)
    C2 = np.where(rising[:, None], ur_, dr_)
    area = w * w

    def tri_integral(A, B, C):
        # Duffy map of the GL square onto triangle (A, B, C).
        s = (_GL_NODES + 1) / 2  # [0, 1]
        ws = _GL_WEIGHTS / 2
        S = s[None, :, None]
        T = s[None, None, :]
        WT = (ws[:, None] * ws[None, :])[None, :, :]
        px = A[:, 0, None, None] + S * (
            (1 - T) * (B[:, 0, None, None] - A[:, 0, None, None])
            + T * (C[:, 0, None, None] - A[:, 0, None, None])
        )
        py = A[:, 1, None, None] + S * (
            (1 - T) * (B[:, 1, None, None] - A[:, 1, None, None])
            + T * (C[:, 1, None, None] - A[:, 1, None, None])
        )
        detJ = np.abs(
            (B[:, 0] - A[:, 0]) * (C[:, 1] - A[:, 1])
            - (C[:, 0] - A[:, 0]) * (B[:, 1] - A[:, 1])
        )
        _, la, _ = prj.inverse(cfg, px.ravel(), py.ravel())
        la = la.reshape(px.shape)
        return (la * WT * S).sum(axis=(1, 2)) * detJ

    integ = tri_integral(A1, B1, C1) + tri_integral(A2, B2, C2)
    nl, _ = nucleus(cfg, uh, plane=False)
    return nl, integ / area


# How far a centroid box reaches past its computed extremes, in the
# config's angle unit: far above the rounding of the inverse projection
# and of the quadrature sums (~1e-11 degrees), far below a cell width.
CENTROID_BOX_MARGIN = 1e-9


def centroid_box(cfg: EngineConfig, u: np.ndarray, plane: bool = True):
    """Closed boxes (x_lo, x_hi, y_lo, y_hi) that each contain the
    cell's ``centroid`` (N_side 3).  Planar, quad and cap centroids are
    cheap and come back exactly (lo == hi).  Skew and dart cells skip
    their quadrature: on a polar face, latitude is a monotone function
    of the Chebyshev distance from the face centre and constant
    longitude is a ray from it, so the cell's latitudes span those at
    its corners and at its point nearest the centre, and a skew quad's
    longitudes (one polar triangle) span its corners'.  The quadrature
    averages those values with positive weights; the box adds
    CENTROID_BOX_MARGIN.  A box that would cross the seam, or a
    recentred latitude, is infinite."""
    if plane:
        x, y = centroid(cfg, u, plane=True)
        return x, x, y, y
    n = u.shape[0]
    shape = shape_of(cfg, u)
    polar = np.flatnonzero((shape == SHAPE_SKEW) | (shape == SHAPE_DART))
    cheap = np.flatnonzero((shape == SHAPE_QUAD) | (shape == SHAPE_CAP))
    x_lo, x_hi, y_lo, y_hi = (np.empty(n) for _ in range(4))
    lon, lat = centroid(cfg, u.take(cheap), plane=False)
    x_lo[cheap] = x_hi[cheap] = lon
    y_lo[cheap] = y_hi[cheap] = lat
    if polar.size:
        uh = u.take(polar)
        v = vertices_plane(cfg, uh)  # ul, ur, dr, dl
        fx, fy = _face_centre(cfg, uh)
        near_x = np.clip(fx, v[:, 0, 0], v[:, 1, 0])
        near_y = np.clip(fy, v[:, 2, 1], v[:, 0, 1])
        px = np.concatenate([v[:, :, 0], near_x[:, None]], axis=1)
        py = np.concatenate([v[:, :, 1], near_y[:, None]], axis=1)
        plon, plat, _ = prj.inverse(cfg, px.ravel(), py.ravel())
        plon = plon.reshape(-1, 5)
        plat = plat.reshape(-1, 5)
        nl, _ = nucleus(cfg, uh, plane=False)
        # Longitudes as seen from the nucleus, so a corner on the seam
        # counts on the cell's side of it.
        with np.errstate(invalid="ignore"):  # off-grid corners are inf
            plon = nl[:, None] + wrap_longitude(plon - nl[:, None], radians=cfg.radians)
        dart = shape.take(polar) == SHAPE_DART
        lo = np.where(dart, nl, plon.min(axis=1))
        hi = np.where(dart, nl, plon.max(axis=1))
        half = cfg.pi()
        bad = ~np.isfinite(plat).all(axis=1) | ~np.isfinite(plon).all(axis=1)
        bad |= (lo < -half) | (hi > half) | (cfg.lat_0 != 0)
        m = CENTROID_BOX_MARGIN
        x_lo[polar] = np.where(bad, -np.inf, lo - m)
        x_hi[polar] = np.where(bad, np.inf, hi + m)
        y_lo[polar] = np.where(bad, -np.inf, plat.min(axis=1) - m)
        y_hi[polar] = np.where(bad, np.inf, plat.max(axis=1) + m)
    return x_lo, x_hi, y_lo, y_hi


def cell_from_region(
    cfg: EngineConfig, ul: tuple, dr: tuple, plane: bool = True
):
    """Smallest single cell containing the rectangle/quad/cap region
    (dggs.py:833-907).  Returns a packed uint64 or None."""
    if not plane:
        PI = cfg.pi()
        if tuple(ul) == (-PI, PI / 2) or tuple(dr) == (-PI, -PI / 2):
            phi = dr[1] if dr[1] != -PI / 2 else ul[1]
            verts = [(-3 * PI / 4, phi), (-PI / 4, phi), (PI / 4, phi), (3 * PI / 4, phi)]
        else:
            verts = [tuple(ul), (ul[0], dr[1]), tuple(dr), (dr[0], ul[1])]
        vx, vy = prj.forward(
            cfg, np.array([p[0] for p in verts]), np.array([p[1] for p in verts])
        )
        ul = (vx.min(), vy.max())
        dr = (vx.max(), vy.min())
    resolution = cfg.max_resolution
    pts_x = np.array([ul[0], dr[0]])
    pts_y = np.array([ul[1], dr[1]])
    # Packed codec caps at resolution 14; the common-prefix answer is
    # identical for any resolution deep enough to separate the corners,
    # and the reference's own tests never require depth > 14 to split.
    resolution = min(resolution, su.MAX_PACK_RESOLUTION)
    cells = cell_from_point(cfg, resolution, pts_x, pts_y, plane=True)
    if (cells == INVALID).any():
        return None
    t1 = su.suid_tuple(int(cells[0]))
    t2 = su.suid_tuple(int(cells[1]))
    least = resolution + 1
    for i in range(resolution + 1):
        if t1[i] != t2[i]:
            least = i
            break
    if least == 0:
        return None
    return su.from_suid_tuple(t1[:least])


def xy_range(cfg: EngineConfig, u: np.ndarray):
    """Planar extremes ((x_min, x_max), (y_min, y_max)) per cell
    (cell.py:734-754), vectorized: returns 4 arrays."""
    x, y = ul_vertex(cfg, u)
    w = width_of(cfg, u)
    return x, x + w, y - w, y


def boundary(cfg: EngineConfig, u: np.ndarray, n: int = 2, plane: bool = True,
             interior_nudge: bool = False) -> np.ndarray:
    """(m, 4n-4, 2) boundary points per cell, n per edge, clockwise
    from the planar upper-left corner (cell.py:756-831).  Ellipsoidal
    output rotates to start at the northwest vertex then inverse-
    projects with the cell's region, exactly like the reference."""
    u = np.asarray(u, dtype=np.uint64)
    m = u.shape[0]
    if n < 2:
        n = 2
    x, y = ul_vertex(cfg, u)
    w = width_of(cfg, u)
    eps = w / 10000 if interior_nudge else np.zeros_like(w)
    delta = (w - 2 * eps) / (n - 1)
    npts = 4 * n - 4
    pts = np.empty((m, npts, 2), dtype=np.float64)
    px = x + eps
    py = y - eps
    k = 0
    for direction in ((1, 0), (0, -1), (-1, 0), (0, 1)):
        for j in range(0, n - 1):
            if k < npts:
                pts[:, k, 0] = px + j * delta * direction[0]
                pts[:, k, 1] = py + j * delta * direction[1]
            k += 1
        px = px + (n - 1) * delta * direction[0]
        py = py + (n - 1) * delta * direction[1]
    if plane:
        return pts
    # rotate so the list starts at the NW vertex, then project
    i = nw_vertex_index(cfg, u) * (n - 1)
    rows = np.arange(m)[:, None]
    order = (i[:, None] + np.arange(npts)[None, :]) % npts
    pts = pts[rows, order]
    reg = region_of(u)
    out = np.empty_like(pts)
    for code, rname in ((0, "equatorial"), (1, "north_polar"), (2, "south_polar")):
        msk = reg == code
        if not msk.any():
            continue
        lon, lat, _ = prj.inverse(
            cfg, pts[msk, :, 0].ravel(), pts[msk, :, 1].ravel(), region=rname
        )
        out[msk, :, 0] = lon.reshape(-1, npts)
        out[msk, :, 1] = lat.reshape(-1, npts)
    return out


def interior_grid(cfg: EngineConfig, u: np.ndarray, n: int = 2,
                  plane: bool = True) -> np.ndarray:
    """(m, n, n, 2) row-major interior sample grid per cell
    (cell.py:833-883): points at ul + eps + delta*(j, -i), eps=1e-6."""
    u = np.asarray(u, dtype=np.uint64)
    m = u.shape[0]
    x, y = ul_vertex(cfg, u)
    w = width_of(cfg, u)
    eps = 1e-6
    delta = (w - 2 * eps) / (n - 1)
    j = np.arange(n, dtype=np.float64)
    px = x[:, None, None] + eps + delta[:, None, None] * j[None, None, :]
    py = y[:, None, None] - eps - delta[:, None, None] * j[None, :, None]
    pts = np.stack([np.broadcast_to(px, (m, n, n)),
                    np.broadcast_to(py, (m, n, n))], axis=3)
    if plane:
        return pts
    lon, lat, _ = prj.inverse(cfg, pts[..., 0].ravel(), pts[..., 1].ravel())
    out = np.empty_like(pts)
    out[..., 0] = lon.reshape(m, n, n)
    out[..., 1] = lat.reshape(m, n, n)
    return out


def contains(cfg: EngineConfig, u: np.ndarray, x: np.ndarray, y: np.ndarray,
             plane: bool = True) -> np.ndarray:
    """Point-in-cell predicate (cell.py:885-907): exactly the
    reference's definition — index the point at the cell's resolution
    and compare (boundary semantics follow cell_from_point)."""
    u = np.asarray(u, dtype=np.uint64)
    res = su.resolution_of(u)
    out = np.zeros(u.shape, dtype=bool)
    for r in np.unique(res):
        msk = res == r
        c = cell_from_point(cfg, int(r), np.asarray(x)[msk], np.asarray(y)[msk],
                            plane=plane)
        out[msk] = c == u[msk]
    return out


def xyz_cube(cfg: EngineConfig, x: np.ndarray, y: np.ndarray,
             lonlat: bool = False):
    """Fold planar points onto the unit-width cube centered at the
    origin (dggs.py:527-594), vectorized branch-by-branch."""
    if lonlat:
        x, y = prj.forward(cfg, x, y)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = cfg.cell_width(0)
    ns = cfg.north_square
    ss = cfg.south_square
    x = x + 2 * w
    y = y + w / 2
    qx = np.empty_like(x)
    qy = np.empty_like(x)
    qz = np.empty_like(x)

    def setq(mask, vx, vy, vz):
        qx[mask] = np.broadcast_to(vx, x.shape)[mask]
        qy[mask] = np.broadcast_to(vy, x.shape)[mask]
        qz[mask] = np.broadcast_to(vz, x.shape)[mask]

    south = y < 0
    xs = x - ss * w
    if ss == 0:
        setq(south, xs, 0.0, y)
    elif ss == 1:
        setq(south, y + w, 0.0, -xs)
    elif ss == 2:
        setq(south, w - xs, 0.0, -y - w)
    else:
        setq(south, -y, 0.0, xs - w)
    north = (~south) & (y > w)
    xn = x - ns * w
    if ns == 0:
        setq(north, xn, w, -y + w)
    elif ns == 1:
        setq(north, -y + 2 * w, w, -xn)
    elif ns == 2:
        setq(north, -xn + w, w, y - 2 * w)
    else:
        setq(north, y - w, w, xn - w)
    band = ~south & ~north
    mO = band & (x < w)
    setq(mO, x, y, 0.0)
    mP = band & (x >= w) & (x < 2 * w)
    setq(mP, w, y, -(x - w))
    mQ = band & (x >= 2 * w) & (x < 3 * w)
    setq(mQ, w - (x - 2 * w), y, -w)
    mR = band & (x >= 3 * w)
    setq(mR, 0.0, y, (x - 3 * w) - w)
    h = w / 2
    return qx - h, qy - h, qz + h
