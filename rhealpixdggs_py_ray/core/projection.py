"""Vectorized (r)HEALPix map projection kernels.

Re-expresses the reference's scalar projection stack —
pj_healpix.py:30-155 (HEALPix sphere/ellipsoid fwd+inv),
pj_rhealpix.py:51-257 (combine_triangles / triangle),
pj_rhealpix.py:260-411 (rhealpix sphere/ellipsoid fwd+inv),
projection_wrapper.py:89-121 (lon_0/lat_0 recentering + R_A scaling) —
as fused numpy kernels over float64 columns.

Differences from the reference, by design:
- one fused function call per batch instead of a rebuilt ``Projection``
  closure + ``importlib`` lookup per point (dggs.py:414-421);
- the matplotlib ``Path.contains_point`` bounds tests
  (pj_healpix.py:158-223, pj_rhealpix.py:414-470) are replaced by
  closed-form band/triangle tests with the same boundary fuzz;
- out-of-bounds points yield inf coordinates + a False validity mask
  instead of printing to stdout.

Scalar arithmetic (operation order, branch conditions, rotation-matrix
products by 0/±1) is kept identical, so in-bounds outputs are
bit-for-bit equal to the reference.
"""

from __future__ import annotations

import math

import numpy as np

from rhealpixdggs_py_ray.core.config import EngineConfig
from rhealpixdggs_py_ray.core.utils import auth_lat, ravel_pair, wrap_latitude, wrap_longitude

PI = math.pi

# Region codes (int8 columns).
REGION_EQUATORIAL = 0
REGION_NORTH = 1
REGION_SOUTH = 2

# cos/sin of q anticlockwise quarter turns, exact integers.
_COSQ = np.array([1.0, 0.0, -1.0, 0.0])
_SINQ = np.array([0.0, 1.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# HEALPix, unit authalic sphere
# ---------------------------------------------------------------------------

def healpix_sphere(lam: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HEALPix projection of the unit sphere (pj_healpix.py:30-61).
    The polar branch runs on the polar rows only."""
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    phi0 = math.asin(2.0 / 3)
    sin_phi = np.sin(phi)
    x = lam.copy()
    y = 3 * PI / 8 * sin_phi
    polar = np.flatnonzero(~(np.abs(phi) <= phi0))
    if polar.size:
        x[polar], y[polar] = _healpix_polar(lam.take(polar), sin_phi.take(polar))
    return x, y


def _healpix_polar(lam: np.ndarray, sin_phi: np.ndarray):
    """healpix_sphere's polar branch.  On a polar row |phi| > asin(2/3),
    so sign(sin phi) is sign(phi)."""
    sigma = np.sqrt(3 * (1 - np.abs(sin_phi)))
    cap = np.minimum(np.floor(2 * lam / PI + 2), 3.0)  # integral: >= 4 iff > 3
    lamc = -3 * PI / 4 + (PI / 2) * cap
    return lamc + (lam - lamc) * sigma, np.sign(sin_phi) * (PI / 4) * (2 - sigma)


def in_healpix_image(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form point-in-HEALPix-image test with the reference's
    eps=1e-10 boundary fuzz (pj_healpix.py:158-223)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    eps = 1e-10
    ay = np.abs(y)
    in_x = np.abs(x) <= PI + eps
    band = ay <= PI / 4 + eps
    cap = np.clip(np.floor(2 * x / PI + 2), 0, 3)
    xc = -3 * PI / 4 + (PI / 2) * cap
    tri = ay <= PI / 2 - np.abs(x - xc) + 2 * eps
    return in_x & (band | tri)


def healpix_sphere_inverse(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse HEALPix on the unit sphere (pj_healpix.py:64-107).

    Returns (lam, phi, valid); invalid points get inf.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = in_healpix_image(x, y)
    ay = np.abs(y)
    equatorial = ay <= PI / 4
    poles = ay >= PI / 2

    with np.errstate(invalid="ignore", divide="ignore"):
        # Equatorial branch.
        phi_eq = np.arcsin(np.clip(8 * y / (3 * PI), -1, 1))
        # Polar (non-pole) branch.
        cap = np.floor(2 * x / PI + 2)
        cap = np.where(cap >= 4, 3.0, cap)
        xc = -3 * PI / 4 + (PI / 2) * cap
        tau = 2 - 4 * ay / PI
        lam_pol = xc + (x - xc) / tau
        lam_pol = np.clip(lam_pol, -PI, PI)
        phi_pol = np.sign(y) * np.arcsin(np.clip(1 - tau**2 / 3, -1, 1))

    lam = np.where(equatorial, x, lam_pol)
    phi = np.where(equatorial, phi_eq, phi_pol)
    lam = np.where(poles, -PI, lam)
    phi = np.where(poles, np.sign(y) * PI / 2, phi)
    lam = np.where(valid, lam, np.inf)
    phi = np.where(valid, phi, np.inf)
    return lam, phi, valid


def healpix_ellipsoid(lam, phi, cfg_or_e=0.0):
    """pj_healpix.py:110-131 — authalic latitude then HEALPix sphere."""
    beta = auth_lat(phi, cfg_or_e, radians=True)
    return healpix_sphere(lam, beta)


def healpix_ellipsoid_inverse(x, y, cfg_or_e=0.0):
    """pj_healpix.py:134-155."""
    lam, beta, valid = healpix_sphere_inverse(x, y)
    phi = np.where(valid, auth_lat(np.where(valid, beta, 0.0), cfg_or_e, radians=True, inverse=True), np.inf)
    return lam, phi, valid


# ---------------------------------------------------------------------------
# rHEALPix rearrangement
# ---------------------------------------------------------------------------

def triangle(
    x: np.ndarray,
    y: np.ndarray,
    north_square: int = 0,
    south_square: int = 0,
    inverse: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Polar-triangle number and region of each point
    (pj_rhealpix.py:120-257).  Returns (tri int64 with -1 for
    equatorial, region int8)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ns = north_square % 4
    ss = south_square % 4

    north = y > PI / 4
    south = y < -PI / 4
    region = north.view(np.int8) * REGION_NORTH + south.view(np.int8) * REGION_SOUTH

    if not inverse:
        # HEALPix image: triangle from x bins (pj_rhealpix.py:209-219):
        # 3, less one per bin edge right of x; -1 off the poles.
        t1 = 4 - ((x < PI / 2).view(np.int8) + (x < 0).view(np.int8) + (x < -PI / 2).view(np.int8))
        tri = (t1 * (region != 0) - 1).astype(np.int64)
    else:
        # Each polar square's formulas run on its own rows only; a
        # later rule overrides an earlier one, as in the reference.
        tri = np.full(x.shape, -1, dtype=np.int64)
        eps = 1e-15  # fuzz, pj_rhealpix.py:231
        # North polar square (pj_rhealpix.py:235-244).
        at = np.flatnonzero(north)
        xn, yn = x.take(at), y.take(at)
        L1 = xn - (-3 * PI / 4 + (ns - 1) * PI / 2)
        L2 = -xn + (-3 * PI / 4 + (ns + 1) * PI / 2)
        t = np.full(at.shape, ns, dtype=np.int64)
        t[(yn > L1 + eps) & (yn <= L2 + eps)] = (ns + 3) % 4
        t[(yn >= L1 - eps) & (yn > L2 + eps)] = (ns + 2) % 4
        t[(yn < L1 - eps) & (yn >= L2 - eps)] = (ns + 1) % 4
        tri[at] = t
        # South polar square (pj_rhealpix.py:247-256).
        at = np.flatnonzero(south)
        xs, ys = x.take(at), y.take(at)
        L1 = xs - (-3 * PI / 4 + (ss + 1) * PI / 2)
        L2 = -xs + (-3 * PI / 4 + (ss - 1) * PI / 2)
        t = np.full(at.shape, ss, dtype=np.int64)
        t[(ys >= L1 - eps) & (ys < L2 - eps)] = (ss + 3) % 4
        t[(ys < L1 - eps) & (ys <= L2 + eps)] = (ss + 2) % 4
        t[(ys <= L1 + eps) & (ys > L2 + eps)] = (ss + 1) % 4
        tri[at] = t
    return tri, region


def combine_triangles(
    x: np.ndarray,
    y: np.ndarray,
    north_square: int = 0,
    south_square: int = 0,
    inverse: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Rearrange HEALPix polar triangles into polar squares and back
    (pj_rhealpix.py:51-117).  Rotations are gathers of exact 0/±1
    cos/sin values, reproducing ``dot(ROTATE[k], xy - tc) + u``; only
    the polar rows are rotated."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ns = north_square % 4
    ss = south_square % 4
    polar = np.flatnonzero((y > PI / 4) | (y < -PI / 4))  # triangle()'s region rule
    if polar.size == x.size:
        return _rotate_polar(x, y, ns, ss, inverse)
    xo = x.copy()
    yo = y.copy()
    if polar.size:
        xo[polar], yo[polar] = _rotate_polar(x.take(polar), y.take(polar), ns, ss, inverse)
    return xo, yo


def _rotate_polar(x, y, ns: int, ss: int, inverse: bool):
    """combine_triangles on rows that are all polar.  Every operand but
    x and y depends only on (north?, triangle), so one gather from an
    8-column table replaces the per-row selects."""
    c, region = triangle(x, y, north_square=ns, south_square=ss, inverse=inverse)
    k = c + 4 * (region == REGION_NORTH)
    px, py, sx, sy, cq, sq, nsq = _polar_table(ns, ss, inverse).take(k, axis=1)
    xr = x - px
    yr = y - py
    return cq * xr + nsq * yr + sx, sq * xr + cq * yr + sy


_POLAR_TABLES: dict = {}


def _polar_table(ns: int, ss: int, inverse: bool) -> np.ndarray:
    """(7, 8) float64 operands of combine_triangles' rotation, column
    4 * north + triangle: rows px, py (rotation centre), sx, sy
    (translation), cos q, sin q and -sin q, evaluated as the reference
    does per point: rotate about tc = (-3pi/4 + c pi/2, sign(y) pi/2),
    translate to u = (-3pi/4 + square pi/2, +-pi/2), or back when
    inverting (pj_rhealpix.py:51-117)."""
    key = (ns, ss, inverse)
    t = _POLAR_TABLES.get(key)
    if t is None:
        t = np.empty((7, 8), dtype=np.float64)
        for north in (0, 1):
            for c in range(4):
                tc = (-3 * PI / 4 + c * (PI / 2), PI / 2 if north else -PI / 2)
                u = (-3 * PI / 4 + (ns if north else ss) * (PI / 2), PI / 2 if north else -PI / 2)
                q = (c - ns) % 4 if north else (-(c - ss)) % 4
                if inverse:
                    q = (-q) % 4
                centre, shift = (u, tc) if inverse else (tc, u)
                t[:, 4 * north + c] = (*centre, *shift, _COSQ[q], _SINQ[q], -_SINQ[q])
        t.flags.writeable = False
        _POLAR_TABLES[key] = t
    return t


def in_rhealpix_image(
    x: np.ndarray, y: np.ndarray, north_square: int = 0, south_square: int = 0
) -> np.ndarray:
    """Closed-form point-in-rHEALPix-image test with the reference's
    eps=1e-15 fuzz (pj_rhealpix.py:414-470)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    eps = 1e-15
    ns = north_square % 4
    ss = south_square % 4
    band = (np.abs(x) <= PI + eps) & (np.abs(y) <= PI / 4 + eps)
    xn = -PI + ns * PI / 2
    north = (
        (x >= xn - eps)
        & (x <= xn + PI / 2 + eps)
        & (y >= PI / 4 - eps)
        & (y <= 3 * PI / 4 + eps)
    )
    xs = -PI + ss * PI / 2
    south = (
        (x >= xs - eps)
        & (x <= xs + PI / 2 + eps)
        & (y <= -PI / 4 + eps)
        & (y >= -3 * PI / 4 - eps)
    )
    return band | north | south


# ---------------------------------------------------------------------------
# Full fused forward / inverse (what the Ray stages call)
# ---------------------------------------------------------------------------

def forward(
    cfg: EngineConfig,
    u: np.ndarray,
    v: np.ndarray,
    region: str | None = None,
    proj: str = "rhealpix",
) -> tuple[np.ndarray, np.ndarray]:
    """Geodetic (lon, lat) in the config's angle unit -> planar (x, y)
    meters.  Fuses projection_wrapper.py:109-114 (recentering),
    pj_rhealpix.py:542-562 (deg->rad + x R_A) and the projection chain
    into one batched call.  ``region='equatorial'`` skips the polar
    rearrangement (pj_rhealpix.py:371-374); ``proj='healpix'`` stops
    before combine_triangles (dggs.py:379-395).  ``u`` and ``v``
    broadcast; (x, y) take their shape.
    """
    shape, u, v = ravel_pair(u, v)
    lam, phi = _geodetic_radians(cfg, u, v)
    x, y = healpix_ellipsoid(lam, phi, cfg)
    if proj == "rhealpix" and region != "equatorial":
        x, y = combine_triangles(
            x, y, north_square=cfg.north_square, south_square=cfg.south_square
        )
    return (cfg.R_A * x).reshape(shape), (cfg.R_A * y).reshape(shape)


def _geodetic_radians(cfg: EngineConfig, u, v) -> tuple[np.ndarray, np.ndarray]:
    """forward's first step on 1-D float64 (lon, lat): recentre and
    wrap, in radians.  A wrap leaves in-range values as they are, so it
    runs only when min/max find one out of range; a NaN fails every
    compare, and empty input takes the wrap too.  Both outputs are
    fresh arrays (``_forward_one_sine`` writes into lam)."""
    lam = u - cfg.lon_0
    phi = v - cfg.lat_0
    half = cfg.pi()
    if not (lam.size and -half <= lam.min() and lam.max() < half):
        lam = wrap_longitude(lam, radians=cfg.radians)
    if not (phi.size and -half / 2 <= phi.min() and phi.max() <= half / 2):
        phi = wrap_latitude(phi, radians=cfg.radians)
    if not cfg.radians:
        np.deg2rad(lam, out=lam)
        np.deg2rad(phi, out=phi)
    return lam, phi


def _forward_one_sine(cfg: EngineConfig, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An approximate rHEALPix ``forward`` with one transcendental, for
    configs whose ``auth_sin_coeffs`` is set (the authalic series
    branch).  HEALPix reads the authalic latitude beta only through
    sin(beta) (the polar test |beta| > asin(2/3) is |sin beta| > 2/3),
    and sin(beta) is an odd polynomial in sin(phi); the lon/lat wrap,
    the polar branch, the polar rearrangement and the R_A scaling are
    forward's own.  The rearrangement rotates the rows of the polar
    branch; forward's ``combine_triangles`` picks its rows by |y| > pi/4,
    and the two sets differ only where sigma rounds to 1, on a face edge.

    Returns (x, y, |sin beta|), in the broadcast shape of ``u`` and
    ``v``.  Not bit-identical to ``forward``: it only picks cells,
    through ``index.cell_from_point``, which refines every row the
    error could move (the bound is documented there)."""
    shape, u, v = ravel_pair(u, v)
    lam, phi = _geodetic_radians(cfg, u, v)
    s = np.sin(phi)
    c = cfg.auth_sin_coeffs
    t = s * s
    p = np.full_like(s, c[-1])  # Horner in sin(phi)**2
    for ck in c[-2::-1]:
        p *= t
        p += ck
    p *= s
    a = np.abs(p)
    x = lam  # a fresh array
    y = 3 * PI / 8 * p
    polar = np.flatnonzero(a > 2 / 3)
    if polar.size:
        xp, yp = _healpix_polar(lam.take(polar), p.take(polar))
        x[polar], y[polar] = _rotate_polar(xp, yp, cfg.north_square % 4, cfg.south_square % 4, False)
    return (cfg.R_A * x).reshape(shape), (cfg.R_A * y).reshape(shape), a.reshape(shape)


def inverse(
    cfg: EngineConfig,
    x: np.ndarray,
    y: np.ndarray,
    region: str | None = None,
    proj: str = "rhealpix",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar (x, y) meters -> geodetic (lon, lat) in the config's angle
    unit.  Returns (lon, lat, valid), in the broadcast shape of ``x``
    and ``y``."""
    shape, x, y = ravel_pair(x, y)
    x = x / cfg.R_A
    y = y / cfg.R_A
    if proj == "rhealpix":
        valid = in_rhealpix_image(
            x, y, north_square=cfg.north_square, south_square=cfg.south_square
        )
        if region != "equatorial":
            x, y = combine_triangles(
                x,
                y,
                north_square=cfg.north_square,
                south_square=cfg.south_square,
                inverse=True,
            )
    else:
        valid = in_healpix_image(x, y)
    lam, phi, v2 = healpix_ellipsoid_inverse(x, y, cfg)
    valid = valid & v2
    if not cfg.radians:
        lam = np.rad2deg(lam)
        phi = np.rad2deg(phi)
    lam = np.where(
        valid, wrap_longitude(np.where(valid, lam, 0.0) + cfg.lon_0, radians=cfg.radians), np.inf
    )
    phi = np.where(
        valid, wrap_latitude(np.where(valid, phi, 0.0) + cfg.lat_0, radians=cfg.radians), np.inf
    )
    return lam.reshape(shape), phi.reshape(shape), valid.reshape(shape)


def xyz(cfg: EngineConfig, lam: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geodetic -> 3D ECEF rectangular coordinates
    (ellipsoids.py:328-350).  Used for kNN chord-distance refinement."""
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if not cfg.radians:
        lam = np.deg2rad(lam)
        phi = np.deg2rad(phi)
    a = cfg.R if cfg.sphere else cfg.a
    e = cfg.e
    N = a / np.sqrt(1 - e**2 * np.sin(phi) ** 2)
    return (
        N * np.cos(lam) * np.cos(phi),
        N * np.sin(lam) * np.cos(phi),
        N * (1 - e**2) * np.sin(phi),
    )


def healpix_vertices() -> list[tuple[float, float]]:
    """Planar vertices of the HEALPix image of the unit sphere
    (pj_healpix.py:226-250)."""
    return [
        (PI, PI / 4), (3 * PI / 4, PI / 2), (PI / 2, PI / 4),
        (PI / 4, PI / 2), (0, PI / 4), (-PI / 4, PI / 2),
        (-PI / 2, PI / 4), (-3 * PI / 4, PI / 2), (-PI, PI / 4),
        (-PI, -PI / 4), (-3 * PI / 4, -PI / 2), (-PI / 2, -PI / 4),
        (-PI / 4, -PI / 2), (0, -PI / 4), (PI / 4, -PI / 2),
        (PI / 2, -PI / 4), (3 * PI / 4, -PI / 2), (PI, -PI / 4),
    ]


def rhealpix_vertices(north_square: int = 0, south_square: int = 0):
    """Planar vertices of the rHEALPix image outline
    (pj_rhealpix.py:473-508), including the reference's removal of
    degenerate corner points at the square seams."""
    ns, ss = north_square, south_square
    vertices = [
        (PI, PI / 4),
        (-PI + (ns + 1) * PI / 2, PI / 4),
        (-PI + (ns + 1) * PI / 2, 3 * PI / 4),
        (-PI + ns * PI / 2, 3 * PI / 4),
        (-PI + ns * PI / 2, PI / 4),
        (-PI, PI / 4),
        (-PI, -PI / 4),
        (-PI + ss * PI / 2, -PI / 4),
        (-PI + ss * PI / 2, -3 * PI / 4),
        (-PI + (ss + 1) * PI / 2, -3 * PI / 4),
        (-PI + (ss + 1) * PI / 2, -PI / 4),
        (PI, -PI / 4),
    ]
    if ns == 3:
        vertices.remove((PI, PI / 4))
        vertices.remove((PI, PI / 4))
    elif ns == 0:
        vertices.remove((-PI, PI / 4))
        vertices.remove((-PI, PI / 4))
    if ss == 3:
        vertices.remove((PI, -PI / 4))
        vertices.remove((PI, -PI / 4))
    elif ss == 0:
        vertices.remove((-PI, -PI / 4))
        vertices.remove((-PI, -PI / 4))
    return vertices
