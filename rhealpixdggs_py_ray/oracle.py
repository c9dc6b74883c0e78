"""DuckDB oracle-SQL generators for the driver's correctness gate.

The driver runs each Ray pipeline from ``__ray_entry__.queries()`` AND
the matching ANSI-SQL string from ``oracle_sql()`` side-by-side and
compares row counts, schemas and order-insensitive value hashes.  For
the hash to match, float64 outputs must be *bit-identical* — so these
generators re-express the engine's kernels (projection, SUID digit
extraction, coordinate derivation) as SQL arithmetic that mirrors the
numpy kernels operation-for-operation:

- every ellipsoid-derived constant (R_A, authalic series coefficients,
  face ul-vertices, cell widths) is computed once here in Python and
  embedded as a ``repr`` float literal, which round-trips exactly;
- DuckDB's ``sin``/``sqrt``/``floor``/``radians`` were verified
  ULP-identical to numpy's in this environment (both bind libm /
  IEEE-754 correctly-rounded kernels);
- the *forward* rHEALPix chain (auth_lat series -> healpix_sphere ->
  combine_triangles -> face/digit extraction) contains no ``asin`` /
  ``atan2``, the only libm calls whose last-ULP behavior differs, so
  full value parity is achievable for ``cell_from_point`` itself
  (reference semantics: dggs.py:737-831 + pj_rhealpix.py:260-411).

Engine kernels mirrored here live in core/projection.py, core/index.py,
core/suid.py; the shared deterministic id->(lon,lat) coordinate rule
for the TPC-H-ish test tables lives in both ``lonlat_from_id`` (numpy)
and ``lonlat_from_id_sql`` below.
"""

from __future__ import annotations

import math

import numpy as np

from rhealpixdggs_py_ray.core.config import CELLS0, EngineConfig, WGS84_003

PI = math.pi


# ---------------------------------------------------------------------------
# Deterministic id -> (lon, lat) rule shared by Ray queries and SQL oracles.
# Two independent 32-bit Knuth multiplicative hashes; every operation is
# exact or identically-rounded in int64/float64 on both sides.
# ---------------------------------------------------------------------------

def lonlat_from_id(ids) -> tuple[np.ndarray, np.ndarray]:
    """numpy side of the coordinate rule (int64 ids)."""
    ids = np.asarray(ids, dtype=np.int64)
    h1 = (ids * 2654435761) % 4294967296
    h2 = ((ids + 1) * 2246822519) % 4294967296
    lon = -180.0 + 360.0 * (h1 / 4294967296.0)
    lat = -84.0 + 168.0 * (h2 / 4294967296.0)
    return lon, lat


def lonlat_from_id_sql(id_expr: str) -> tuple[str, str]:
    """SQL side of the coordinate rule; mirrors lonlat_from_id exactly."""
    h1 = f"((({id_expr}) * 2654435761) % 4294967296)"
    h2 = f"(((({id_expr}) + 1) * 2246822519) % 4294967296)"
    lon = f"(-180.0 + 360.0 * ({h1} / 4294967296.0))"
    lat = f"(-84.0 + 168.0 * ({h2} / 4294967296.0))"
    return lon, lat


# ---------------------------------------------------------------------------
# cell_from_point as SQL (forward projection + face/digit extraction)
# ---------------------------------------------------------------------------

def _lit(x: float) -> str:
    """Exact float64 literal.  The CAST is load-bearing: DuckDB parses
    bare decimal literals as DECIMAL, and DECIMAL arithmetic with an
    integer column (e.g. ``dxi * 0.111...``) rounds differently from
    double arithmetic by 1 ulp.  A string-parse cast is the correctly
    rounded double for repr's shortest round-trip digits."""
    return f"CAST('{float(x)!r}' AS DOUBLE)"


def _recenter_lon_sql(col: str, shift: float) -> str:
    """SQL mirror of ``wrap_longitude(col - shift)`` (utils.py:19) in
    degrees.  In-range differences pass through UNCHANGED (the numpy
    wrap only rewrites out-of-range entries); out-of-range entries go
    through the identical fmod + correction chain, which is bit-exact
    (fmod is IEEE-exact, the single correction add rounds identically
    on both sides)."""
    if shift == 0:
        return col
    d = f"(({col}) - {_lit(shift)})"
    m = f"((({d} % 360.0) + 360.0) % 360.0)"
    w = f"(CASE WHEN {m} >= 180.0 THEN {m} - 360.0 ELSE {m} END)"
    return f"(CASE WHEN {d} >= -180.0 AND {d} < 180.0 THEN {d} ELSE {w} END)"


def _recenter_lat_sql(col: str, shift: float) -> str:
    """SQL mirror of ``wrap_latitude(col - shift)`` (utils.py:32):
    wrap_longitude then reflect |phi| > 90 across the nearer pole."""
    if shift == 0:
        return col
    w = _recenter_lon_sql(col, shift)
    return (
        f"(CASE WHEN abs({w}) > 90.0 THEN {w} -"
        f" (CASE WHEN {w} >= 0 THEN 180.0 ELSE -180.0 END) ELSE {w} END)"
    )


def _proj_parts(cfg: EngineConfig):
    """Shared SQL fragments for the forward projection chain."""
    ns = cfg.north_square % 4
    ss = cfg.south_square % 4
    R = _lit(cfg.R_A)
    pi = _lit(PI)
    if cfg.e == 0:
        beta = "phi"
    else:
        coeffs = cfg.auth_coeffs_fwd
        terms = " + ".join(
            f"({_lit(coeffs[k])})*sin({2 * (k + 1)}*phi)" for k in range(6)
        )
        beta = f"phi + ({terms})"
    phi0 = _lit(math.asin(2.0 / 3))
    sigma = "sqrt(3*(1 - abs(sin(beta))))"
    cap_raw = f"floor(2*lam/{pi} + 2)"
    cap = f"(CASE WHEN {cap_raw} >= 4 THEN 3.0 ELSE {cap_raw} END)"
    lamc = f"(-3*{pi}/4 + ({pi}/2)*cap)"
    hx = f"(CASE WHEN abs(beta) <= {phi0} THEN lam ELSE {lamc} + (lam - {lamc})*sigma END)"
    hy = (
        f"(CASE WHEN abs(beta) <= {phi0} THEN 3*{pi}/8*sin(beta)"
        f" ELSE sign(beta)*({pi}/4)*(2 - sigma) END)"
    )
    tri = (
        f"(CASE WHEN hx < -{pi}/2 THEN 0 WHEN hx < 0 THEN 1"
        f" WHEN hx < {pi}/2 THEN 2 ELSE 3 END)"
    )
    qn = f"((((tri - {ns}) % 4) + 4) % 4)"
    qs = f"(((-(tri - {ss}) % 4) + 4) % 4)"
    q = f"(CASE WHEN hy > {pi}/4 THEN {qn} ELSE {qs} END)"
    cq = "(CASE q WHEN 0 THEN 1.0 WHEN 1 THEN 0.0 WHEN 2 THEN -1.0 ELSE 0.0 END)"
    sq = "(CASE q WHEN 0 THEN 0.0 WHEN 1 THEN 1.0 WHEN 2 THEN 0.0 ELSE -1.0 END)"
    tcx = f"(-3*{pi}/4 + tri*({pi}/2))"
    tcy = f"(sign(hy)*({pi}/2))"
    ux = (
        f"(CASE WHEN hy > {pi}/4 THEN -3*{pi}/4 + {ns}*({pi}/2)"
        f" ELSE -3*{pi}/4 + {ss}*({pi}/2) END)"
    )
    uy = f"(CASE WHEN hy > {pi}/4 THEN {pi}/2 ELSE -({pi}/2) END)"
    xo = f"(({cq}*(hx - {tcx}) + (-{sq})*(hy - {tcy})) + {ux})"
    yo = f"(({sq}*(hx - {tcx}) + {cq}*(hy - {tcy})) + {uy})"
    polar = f"(abs(hy) > {pi}/4)"
    rx = f"({R} * (CASE WHEN {polar} THEN {xo} ELSE hx END))"
    ry = f"({R} * (CASE WHEN {polar} THEN {yo} ELSE hy END))"
    return {
        "beta": beta, "sigma": sigma, "cap": cap, "hx": hx, "hy": hy,
        "tri": tri, "q": q, "rx": rx, "ry": ry, "R": R, "pi": pi,
        "ns": ns, "ss": ss,
    }


def projection_sql(
    points_sql: str, cfg: EngineConfig = WGS84_003,
    id_cols: tuple[str, ...] = ("id",), extra_cols: tuple[str, ...] = (),
) -> str:
    """Subquery: (id_cols..., extra..., lon, lat in the config's angle
    unit) -> planar (xm, ym) meters via the forward rHEALPix chain
    (projection.py:forward).  Radians configs pass angles straight
    through (the engine skips deg2rad identically); in-range inputs
    need no wrap either side."""
    if cfg.radians and (cfg.lon_0 != 0 or cfg.lat_0 != 0):
        raise NotImplementedError("radians oracle SQL assumes lon_0 = lat_0 = 0")
    f = 1 - math.sqrt(1 - cfg.e**2)
    if cfg.e != 0 and abs(f) > 1 / 150:
        raise NotImplementedError("oracle SQL implements the series auth-lat path")
    p = _proj_parts(cfg)
    keep = ", ".join(id_cols + extra_cols)
    if cfg.radians:
        lam_in, phi_in = "lon", "lat"
    else:
        lam_in = f"radians({_recenter_lon_sql('lon', cfg.lon_0)})"
        phi_in = f"radians({_recenter_lat_sql('lat', cfg.lat_0)})"
    return (
        f"(WITH pts AS ({points_sql}),"
        f" rr AS MATERIALIZED (SELECT {keep}, {lam_in} AS lam, {phi_in} AS phi FROM pts),"
        f" au AS MATERIALIZED (SELECT {keep}, lam, {p['beta']} AS beta FROM rr),"
        f" h1 AS MATERIALIZED (SELECT {keep}, lam, beta, {p['sigma']} AS sigma FROM au),"
        f" h2 AS MATERIALIZED (SELECT {keep}, lam, beta, sigma, {p['cap']} AS cap FROM h1),"
        f" hp AS MATERIALIZED (SELECT {keep}, {p['hx']} AS hx, {p['hy']} AS hy FROM h2),"
        f" tq AS MATERIALIZED (SELECT {keep}, hx, hy, {p['tri']} AS tri FROM hp),"
        f" tq2 AS MATERIALIZED (SELECT {keep}, hx, hy, tri, {p['q']} AS q FROM tq)"
        f" SELECT {keep}, {p['rx']} AS xm, {p['ry']} AS ym FROM tq2)"
    )


def planar_cell_sql(
    planar_sql: str, resolution: int, cfg: EngineConfig = WGS84_003,
    id_cols: tuple[str, ...] = ("id",), extra_cols: tuple[str, ...] = (),
    keep_invalid: bool = False,
) -> str:
    """Subquery: (id_cols..., xm, ym planar meters) -> cell_id SUID at
    ``resolution`` (index.py:cell_from_point, plane=True path)."""
    p = _proj_parts(cfg)
    ns, ss = p["ns"], p["ss"]
    R, pi = p["R"], p["pi"]
    N = cfg.N_side
    keep = ", ".join(id_cols + extra_cols)
    north_face = (
        f"(ym > {R}*{pi}/4 AND ym < {R}*3*{pi}/4"
        f" AND xm > {R}*(-{pi} + {ns}*({pi}/2))"
        f" AND xm < {R}*(-{pi}/2 + {ns}*({pi}/2)))"
    )
    south_face = (
        f"(ym > (-{R})*3*{pi}/4 AND ym < -({R}*{pi}/4)"
        f" AND xm > {R}*(-{pi} + {ss}*({pi}/2))"
        f" AND xm < {R}*(-{pi}/2 + {ss}*({pi}/2)))"
    )
    eq_band = f"(ym >= -({R}*{pi}/4) AND ym <= {R}*{pi}/4)"
    bins = [
        (f"-{pi}", f"-{pi}/2"),
        (f"-{pi}/2", "0.0"),
        ("0.0", f"{pi}/2"),
        (f"{pi}/2", f"{pi}"),
    ]
    eq_cases = " ".join(
        f"WHEN {eq_band} AND xm >= {R}*({lo}) AND xm < {R}*({hi}) THEN {i + 1}"
        for i, (lo, hi) in enumerate(bins)
    )
    face = (
        f"(CASE WHEN {north_face} THEN 0 WHEN {south_face} THEN 5"
        f" {eq_cases} ELSE -1 END)"
    )
    letter = (
        "(CASE face "
        + " ".join(f"WHEN {i} THEN '{c}'" for i, c in enumerate(CELLS0))
        + " END)"
    )
    if resolution == 0:
        where = "" if keep_invalid else " WHERE face >= 0"
        return (
            f"(WITH pl AS ({planar_sql}),"
            f" fc AS MATERIALIZED (SELECT {keep}, xm, ym, {face} AS face FROM pl)"
            f" SELECT {keep}, {letter} AS cell_id FROM fc{where})"
        )
    w = cfg.cell_width(0)
    smidgen = 0.5 * cfg.cell_width(cfg.max_resolution) / w
    ul = cfg.ul_vertex
    ulx = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(ul[i, 0])}" for i in range(6)
    ) + " END)"
    uly = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(ul[i, 1])}" for i in range(6)
    ) + " END)"
    scale = _lit(float(N**resolution))
    dxe = f"(abs(xm - {ulx}) / {_lit(w)})"
    dye = f"(abs(ym - {uly}) / {_lit(w)})"
    dxs = f"(CASE WHEN dx0 = 1 THEN dx0 - {_lit(smidgen)} ELSE dx0 END)"
    dys = f"(CASE WHEN dy0 = 1 THEN dy0 - {_lit(smidgen)} ELSE dy0 END)"
    digits = "".join(
        f" || CAST(((rw // {N ** (resolution - 1 - i)}) % {N}) * {N}"
        f" + ((cl // {N ** (resolution - 1 - i)}) % {N}) AS VARCHAR)"
        for i in range(resolution)
    )
    if keep_invalid:
        # invalid (off-grid) rows survive with NULL cell_id; digit
        # arithmetic must not run on them (face -1 has no ul vertex)
        return (
            f"(WITH pl AS ({planar_sql}),"
            f" fc AS MATERIALIZED (SELECT {keep}, xm, ym, {face} AS face FROM pl),"
            f" fr AS MATERIALIZED (SELECT {keep}, xm, ym, face,"
            f"        CASE WHEN face >= 0 THEN {dxe} ELSE 0.0 END AS dx0,"
            f"        CASE WHEN face >= 0 THEN {dye} ELSE 0.0 END AS dy0 FROM fc),"
            f" fr2 AS MATERIALIZED (SELECT {keep}, face, {dxs} AS dx, {dys} AS dy FROM fr),"
            f" rc AS MATERIALIZED (SELECT {keep}, face,"
            f"        CAST(floor(dy * {scale}) AS BIGINT) AS rw,"
            f"        CAST(floor(dx * {scale}) AS BIGINT) AS cl FROM fr2)"
            f" SELECT {keep}, CASE WHEN face >= 0 THEN {letter}{digits}"
            f" ELSE NULL END AS cell_id FROM rc)"
        )
    return (
        f"(WITH pl AS ({planar_sql}),"
        f" fc AS MATERIALIZED (SELECT {keep}, xm, ym, {face} AS face FROM pl),"
        f" fr AS MATERIALIZED (SELECT {keep}, xm, ym, face, {dxe} AS dx0, {dye} AS dy0 FROM fc"
        f"        WHERE face >= 0),"
        f" fr2 AS MATERIALIZED (SELECT {keep}, face, {dxs} AS dx, {dys} AS dy FROM fr),"
        f" rc AS MATERIALIZED (SELECT {keep}, face,"
        f"        CAST(floor(dy * {scale}) AS BIGINT) AS rw,"
        f"        CAST(floor(dx * {scale}) AS BIGINT) AS cl FROM fr2)"
        f" SELECT {keep}, {letter}{digits} AS cell_id FROM rc)"
    )


def cell_from_point_sql(
    points_sql: str,
    resolution: int,
    cfg: EngineConfig = WGS84_003,
    id_cols: tuple[str, ...] = ("id",),
    extra_cols: tuple[str, ...] = (),
) -> str:
    """Subquery computing ``cell_id`` (canonical SUID string) for each
    row of ``points_sql`` (id cols + lon/lat degrees).  Composition of
    projection_sql + planar_cell_sql; mirrors core/index.py:
    cell_from_point + core/projection.py:forward exactly."""
    proj = projection_sql(points_sql, cfg, id_cols, extra_cols)
    inner = f"SELECT * FROM {proj} t"
    return planar_cell_sql(inner, resolution, cfg, id_cols, extra_cols)


def cell_from_region_sql(
    pairs_sql: str, cfg: EngineConfig = WGS84_003
) -> str:
    """Smallest single cell containing each ellipsoidal quad
    (index.py:cell_from_region / dggs.py:833-907).  ``pairs_sql`` must
    yield (pair_id, lon1, lat1, lon2, lat2 degrees, two arbitrary
    corner points).  NULL cell_id when the corners fall on different
    faces."""
    res = min(cfg.max_resolution, 14)
    corners = (
        f"WITH pr AS ({pairs_sql}),"
        " ul AS (SELECT pair_id, least(lon1, lon2) AS wlon,"
        "        greatest(lon1, lon2) AS elon, least(lat1, lat2) AS slat,"
        "        greatest(lat1, lat2) AS nlat FROM pr),"
        " cn AS ("
        "  SELECT pair_id, wlon AS lon, nlat AS lat FROM ul UNION ALL"
        "  SELECT pair_id, wlon, slat FROM ul UNION ALL"
        "  SELECT pair_id, elon, slat FROM ul UNION ALL"
        "  SELECT pair_id, elon, nlat FROM ul)"
        " SELECT pair_id, lon, lat FROM cn"
    )
    proj = projection_sql(corners, cfg, id_cols=("pair_id",))
    ext = (
        f"WITH pj AS (SELECT * FROM {proj} t)"
        " SELECT pair_id, min(xm) AS x1, max(ym) AS y1,"
        " max(xm) AS x2, min(ym) AS y2 FROM pj GROUP BY pair_id"
    )
    ca = planar_cell_sql(
        f"SELECT pair_id, x1 AS xm, y1 AS ym FROM ({ext}) e", res, cfg,
        id_cols=("pair_id",), keep_invalid=True,
    )
    cb = planar_cell_sql(
        f"SELECT pair_id, x2 AS xm, y2 AS ym FROM ({ext}) e", res, cfg,
        id_cols=("pair_id",), keep_invalid=True,
    )
    prefix_cases = " ".join(
        f"WHEN substr(a.cell_id, 1, {L}) = substr(b.cell_id, 1, {L})"
        f" THEN substr(a.cell_id, 1, {L})"
        for L in range(res + 1, 0, -1)
    )
    return (
        f"SELECT a.pair_id, CASE {prefix_cases} ELSE NULL END AS cell_id"
        f" FROM {ca} a JOIN {cb} b ON a.pair_id = b.pair_id"
    )


# ---------------------------------------------------------------------------
# Grid enumeration as SQL (suid.py:suid_from_level_order_index)
# ---------------------------------------------------------------------------

def grid_sql(resolution: int, cfg: EngineConfig = WGS84_003) -> str:
    """All 6*N^(2r) cells at a resolution, as SUID strings in canonical
    (level-order index) order — mirrors ``ray.data.range`` +
    suid_from_level_order_index (reference dggs.py:613-631 grid)."""
    N2 = cfg.N_side**2
    total = 6 * N2**resolution
    digits = "".join(
        f" || CAST((i // {N2 ** (resolution - 1 - k)}) % {N2} AS VARCHAR)"
        for k in range(resolution)
    )
    letter = (
        f"(CASE (i // {N2 ** resolution}) "
        + " ".join(f"WHEN {f} THEN '{c}'" for f, c in enumerate(CELLS0))
        + " END)"
    )
    return (
        f"SELECT {letter}{digits} AS cell_id"
        f" FROM (SELECT unnest(generate_series(0, {total - 1})) AS i)"
        f" ORDER BY i"
    )


# ---------------------------------------------------------------------------
# Inverse projection as SQL (projection.py:inverse — planar meters ->
# lon/lat degrees).  Mirrors combine_triangles(inverse=True) +
# healpix_sphere_inverse + the inverse authalic series operation-for-
# operation.  NOTE: this chain contains asin(), whose last-ULP rounding
# can differ between DuckDB and numpy (measured <= 2 ulp in this
# environment); downstream oracles therefore only use the result
# through coarse quantization (floor(x * 1e6)) or through inside/
# outside decisions with >> 1e-9 margins, both verified in tests.
# ---------------------------------------------------------------------------

def inverse_sql(
    planar_sql: str,
    cfg: EngineConfig = WGS84_003,
    id_cols: tuple[str, ...] = ("id",),
    extra_cols: tuple[str, ...] = (),
) -> str:
    """Subquery: (id_cols..., extra..., xm, ym planar meters) ->
    (id_cols..., extra..., lon, lat in the config's angle unit).
    Radians configs skip the rad->deg scaling exactly like the engine
    (projection.py:324); lon_0/lat_0 recentering is degree-only."""
    if cfg.radians and (cfg.lon_0 != 0 or cfg.lat_0 != 0):
        raise NotImplementedError("radians inverse SQL assumes lon_0 = lat_0 = 0")
    ns = cfg.north_square % 4
    ss = cfg.south_square % 4
    R = _lit(cfg.R_A)
    pi = _lit(PI)
    eps = "1e-15"
    keep = ", ".join(id_cols + extra_cols)

    # region from the original (pre-rearrangement) y
    north = f"(y > {pi}/4)"
    south = f"(y < -{pi}/4)"
    # triangle(inverse=True): successive np.where writes; conditions are
    # mutually disjoint so CASE order is free (projection.py:166-183)
    l1n = f"(x - (-3*{pi}/4 + ({ns} - 1)*{pi}/2))"
    l2n = f"(-x + (-3*{pi}/4 + ({ns} + 1)*{pi}/2))"
    tn = (
        f"(CASE WHEN y > {l1n} + {eps} AND y <= {l2n} + {eps} THEN {(ns + 3) % 4}"
        f" WHEN y >= {l1n} - {eps} AND y > {l2n} + {eps} THEN {(ns + 2) % 4}"
        f" WHEN y < {l1n} - {eps} AND y >= {l2n} - {eps} THEN {(ns + 1) % 4}"
        f" ELSE {ns} END)"
    )
    l1s = f"(x - (-3*{pi}/4 + ({ss} + 1)*{pi}/2))"
    l2s = f"(-x + (-3*{pi}/4 + ({ss} - 1)*{pi}/2))"
    ts = (
        f"(CASE WHEN y >= {l1s} - {eps} AND y < {l2s} - {eps} THEN {(ss + 3) % 4}"
        f" WHEN y < {l1s} - {eps} AND y <= {l2s} + {eps} THEN {(ss + 2) % 4}"
        f" WHEN y <= {l1s} + {eps} AND y > {l2s} + {eps} THEN {(ss + 1) % 4}"
        f" ELSE {ss} END)"
    )
    c = f"(CASE WHEN {north} THEN {tn} WHEN {south} THEN {ts} ELSE -1 END)"
    # combine_triangles(inverse): rotate about u, translate to tc
    qn = f"((-(c - {ns}) % 4) + 4) % 4"
    qs = f"(((c - {ss}) % 4) + 4) % 4"
    q = f"(CASE WHEN {north} THEN {qn} ELSE {qs} END)"
    cq = "(CASE q WHEN 0 THEN 1.0 WHEN 1 THEN 0.0 WHEN 2 THEN -1.0 ELSE 0.0 END)"
    sq = "(CASE q WHEN 0 THEN 0.0 WHEN 1 THEN 1.0 WHEN 2 THEN 0.0 ELSE -1.0 END)"
    tcx = f"(-3*{pi}/4 + c*({pi}/2))"
    tcy = f"(sign(y)*({pi}/2))"
    ux = (
        f"(CASE WHEN {north} THEN -3*{pi}/4 + {ns}*({pi}/2)"
        f" ELSE -3*{pi}/4 + {ss}*({pi}/2) END)"
    )
    uy = f"(CASE WHEN {north} THEN {pi}/2 ELSE -({pi}/2) END)"
    xo = f"({cq}*(x - {ux}) + (-{sq})*(y - {uy}) + {tcx})"
    yo = f"({sq}*(x - {ux}) + {cq}*(y - {uy}) + {tcy})"
    polar = f"({north} OR {south})"
    hx = f"(CASE WHEN {polar} THEN {xo} ELSE x END)"
    hy = f"(CASE WHEN {polar} THEN {yo} ELSE y END)"

    # healpix_sphere_inverse on (hx, hy) (projection.py:84-116)
    clip1 = "greatest(-1.0, least(1.0, {v}))"
    phi_eq = f"asin({clip1.format(v=f'8*hy/(3*{pi})')})"
    cap_raw = f"floor(2*hx/{pi} + 2)"
    cap = f"(CASE WHEN {cap_raw} >= 4 THEN 3.0 ELSE {cap_raw} END)"
    xc = f"(-3*{pi}/4 + ({pi}/2)*{cap})"
    tau = f"(2 - 4*abs(hy)/{pi})"
    lam_pol = f"greatest(-{pi}, least({pi}, {xc} + (hx - {xc})/{tau}))"
    phi_pol = f"sign(hy)*asin({clip1.format(v=f'1 - ({tau}*{tau})/3')})"
    equat = f"(abs(hy) <= {pi}/4)"
    poles = f"(abs(hy) >= {pi}/2)"
    lam_r = (
        f"(CASE WHEN {poles} THEN -{pi}"
        f" WHEN {equat} THEN hx ELSE {lam_pol} END)"
    )
    beta = (
        f"(CASE WHEN {poles} THEN sign(hy)*{pi}/2"
        f" WHEN {equat} THEN {phi_eq} ELSE {phi_pol} END)"
    )

    # inverse authalic series (utils.py:auth_lat inverse; left-to-right)
    if cfg.e == 0:
        phi_r = "beta"
    else:
        coeffs = cfg.auth_coeffs_inv
        series = " + ".join(
            f"({_lit(coeffs[k])})*sin({2 * (k + 1)}*beta)" for k in range(6)
        )
        phi_r = f"(beta + ({series}))"

    r2d = _lit(180.0 / PI)
    wrap = (
        "(CASE WHEN {v} >= 180 THEN {v} - 360"
        " WHEN {v} < -180 THEN {v} + 360 ELSE {v} END)"
    )
    # engine inverse re-adds lon_0/lat_0 then wraps (projection.py:324)
    if cfg.radians:
        wrap_rad = (
            f"(CASE WHEN {{v}} >= {pi} THEN {{v}} - 2*{pi}"
            f" WHEN {{v}} < -{pi} THEN {{v}} + 2*{pi} ELSE {{v}} END)"
        )
        lon = wrap_rad.format(v="lam_r")
        lat = "phi_r"
    else:
        lam_deg = f"(lam_r * {r2d})"
        if cfg.lon_0 != 0:
            lam_deg = f"({lam_deg} + {_lit(cfg.lon_0)})"
        lon = wrap.format(v=lam_deg)
        lat = f"(phi_r * {r2d})"
        if cfg.lat_0 != 0:
            v = f"({lat} + {_lit(cfg.lat_0)})"
            w = wrap.format(v=v)
            lat = (
                f"(CASE WHEN abs({w}) > 90.0 THEN {w} -"
                f" (CASE WHEN {w} >= 0 THEN 180.0 ELSE -180.0 END) ELSE {w} END)"
            )

    return (
        f"(WITH pl AS ({planar_sql}),"
        f" s0 AS MATERIALIZED (SELECT {keep}, xm / {R} AS x, ym / {R} AS y FROM pl),"
        f" s1 AS MATERIALIZED (SELECT {keep}, x, y, {c} AS c FROM s0),"
        f" s2 AS MATERIALIZED (SELECT {keep}, x, y, c, {q} AS q FROM s1),"
        f" s3 AS MATERIALIZED (SELECT {keep}, {hx} AS hx, {hy} AS hy FROM s2),"
        f" s4 AS MATERIALIZED (SELECT {keep}, {lam_r} AS lam_r, {beta} AS beta FROM s3),"
        f" s5 AS MATERIALIZED (SELECT {keep}, lam_r, {phi_r} AS phi_r FROM s4)"
        f" SELECT {keep}, {lon} AS lon, {lat} AS lat FROM s5)"
    )


# ---------------------------------------------------------------------------
# Closed-form cover enumeration as SQL (equatorial band).
#
# Inside the equatorial band the reference's east-neighbor walk
# (dggs.py:1181-1331) enumerates exactly the grid rectangle
# [row(y_max)..row(y_min)] x [col(x_min)..col(x_max)]: equatorial faces
# tile the plane contiguously, every row cell is a quad, and the
# boundary-row insertion rules collapse to "each covered cell-row once"
# (SURVEY §3.2).  The SQL derives the row/col ranges from its own
# forward-projection chain, enumerates nuclei, and maps them through
# the verified cell_from_point SQL — fully independent of the engine's
# walk code.
# ---------------------------------------------------------------------------

def _check_equatorial(cfg: EngineConfig, lats) -> None:
    phi0 = math.degrees(math.asin(2.0 / 3))
    for lat in lats:
        import numpy as _np

        from rhealpixdggs_py_ray.core.utils import auth_lat

        beta = float(auth_lat(_np.asarray([lat], dtype=float), cfg)[0])
        if abs(beta) >= phi0 - 1e-9:
            raise NotImplementedError(
                f"closed-form cover SQL requires an equatorial-band region;"
                f" lat={lat} has authalic latitude outside +-{phi0:.4f}"
            )


def _cover_cells_sql(
    lon_min: float, lat_max: float, lon_max: float, lat_min: float,
    resolution: int, cfg: EngineConfig = WGS84_003,
) -> str:
    """Subquery enumerating the equatorial-band cover:
    (row, col, xm, ym) with (xm, ym) the cell NUCLEUS computed exactly
    as core/index.py ul_vertex + w/2 does (same float ops)."""
    _check_equatorial(cfg, (lat_min, lat_max))
    if not (-180.0 <= lon_min < lon_max < 180.0) or lon_max - lon_min >= 90.0:
        raise NotImplementedError("cover SQL: need -180 <= lon_min < lon_max, span < 90")
    R = cfg.R_A
    pi = _lit(PI)
    w = _lit(cfg.cell_width(resolution))
    Rpi4 = _lit(R * PI / 4)
    Rpi = _lit(R * PI)
    n3r = cfg.N_side**resolution
    w0 = _lit(cfg.cell_width(0))
    inv = _lit(float(cfg.N_side ** (-resolution)))  # python int**-int rounding
    bpts = (
        "SELECT * FROM (VALUES"
        f" (0, {lon_min!r}, {lat_max!r}), (1, {lon_max!r}, {lat_min!r})"
        ") AS t(id, lon, lat)"
    )
    proj = projection_sql(bpts, cfg, id_cols=("id",))
    # row/col of the two bound points via the engine's own face + dx
    # truncation semantics (dggs.py:803-823) — a bound landing exactly
    # on a cell boundary must pick the same side as cell_from_point
    pi_b = PI
    bins = [(-pi_b, -pi_b / 2), (-pi_b / 2, 0.0), (0.0, pi_b / 2), (pi_b / 2, pi_b)]
    face_eq = "(CASE " + " ".join(
        f"WHEN xm >= {_lit(cfg.R_A * lo)} AND xm < {_lit(cfg.R_A * hi)} THEN {i + 1}"
        for i, (lo, hi) in enumerate(bins)
    ) + " END)"
    ulxc = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 0])}" for i in range(1, 5)
    ) + " END)"
    uly = _lit(cfg.ul_vertex[1, 1])
    w0b = _lit(cfg.cell_width(0))
    scale = _lit(float(cfg.N_side**resolution))
    smidgen = _lit(0.5 * cfg.cell_width(cfg.max_resolution) / cfg.cell_width(0))
    dxs = f"(CASE WHEN dx0 = 1 THEN dx0 - {smidgen} ELSE dx0 END)"
    dys = f"(CASE WHEN dy0 = 1 THEN dy0 - {smidgen} ELSE dy0 END)"
    x0case = "(CASE (1 + c // {n}) ".format(n=n3r) + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 0])}" for i in range(1, 5)
    ) + " END)"
    y0 = _lit(cfg.ul_vertex[1, 1])  # R*pi/4 for every equatorial face
    return (
        f"(WITH bb0 AS (SELECT id, xm, ym, {face_eq} AS face FROM {proj} t),"
        f" bb1 AS (SELECT id, face, abs(xm - {ulxc})/{w0b} AS dx0,"
        f"   abs(ym - {uly})/{w0b} AS dy0 FROM bb0),"
        f" bb AS (SELECT id,"
        f"   (face - 1) * {n3r} + CAST(floor({dxs} * {scale}) AS BIGINT) AS gc,"
        f"   CAST(floor({dys} * {scale}) AS BIGINT) AS gk FROM bb1),"
        f" rng AS MATERIALIZED (SELECT"
        f"  (SELECT gk FROM bb WHERE id=0) AS k_min,"
        f"  (SELECT gk FROM bb WHERE id=1) AS k_max,"
        f"  (SELECT gc FROM bb WHERE id=0) AS c_min,"
        f"  (SELECT gc FROM bb WHERE id=1) AS c_max),"
        # static series + filter: this DuckDB build rejects lateral
        # column parameters to generate_series (res <= 4 here, so the
        # unfiltered cross stays small; cell_zone_sql pre-filters its
        # own res-6 ranges)
        f" kk AS (SELECT unnest(generate_series(0, {n3r})) AS dk),"
        f" cc AS (SELECT unnest(generate_series(0, {4 * n3r})) AS dc),"
        f" kc AS (SELECT k_min + dk AS k, c_min + dc AS c, dk AS row, dc AS col"
        f"   FROM rng, kk, cc WHERE dk <= k_max - k_min AND dc <= c_max - c_min)"
        f" SELECT row, col,"
        f"  ({x0case} + {w0}*((c % {n3r}) * {inv})) + {w}/2 AS xm,"
        f"  ({y0} - {w0}*(k * {inv})) - {w}/2 AS ym,"
        f"  ({x0case} + {w0}*((c % {n3r}) * {inv})) AS xul,"
        f"  ({y0} - {w0}*(k * {inv})) AS yul"
        f" FROM kc)"
    )


def cells_from_region_sql(
    ul: tuple, dr: tuple, resolution: int, cfg: EngineConfig = WGS84_003
) -> str:
    """(row, col, cell_id) oracle for cells_from_region over an
    equatorial-band ellipsoidal region (degrees)."""
    cover = _cover_cells_sql(ul[0], ul[1], dr[0], dr[1], resolution, cfg)
    inner = f"SELECT row, col, xm, ym FROM {cover} t"
    return (
        "SELECT row, col, cell_id FROM "
        + planar_cell_sql(inner, resolution, cfg, id_cols=("row", "col"))
        + " z"
    )


def cells_from_meridian_sql(
    lam: float, phi_min: float, phi_max: float, resolution: int,
    cfg: EngineConfig = WGS84_003,
) -> str:
    """(row, cell_id) oracle for cells_from_meridian over an
    equatorial-band segment.  In the band the walk equals one cover
    column (degenerate epsilon-wide quad), PLUS the reference's
    ``result[-1:-3]`` empty-slice quirk (dggs.py:1054-1055): ``end`` is
    re-appended whenever the nucleus loop already emitted the last row,
    i.e. whenever that row's nucleus latitude >= phi_min — in projected
    space, cover ym of the max row >= the projected y of phi_min."""
    sub = cells_from_region_sql(
        (lam, phi_max), (lam + 1e-9, phi_min), resolution, cfg
    )
    cover = _cover_cells_sql(lam, phi_max, lam + 1e-9, phi_min, resolution, cfg)
    pt = (
        f"SELECT * FROM (VALUES (0, {lam!r}, {phi_min!r})) AS t(id, lon, lat)"
    )
    proj = projection_sql(pt, cfg, id_cols=("id",))
    return (
        f"WITH rows_ AS MATERIALIZED ({sub}),"
        f" cov AS MATERIALIZED (SELECT row, ym FROM {cover} c),"
        f" pm AS (SELECT ym AS ymin FROM {proj} p)"
        " SELECT row, cell_id FROM rows_"
        " UNION ALL"
        " SELECT (SELECT max(row) FROM rows_) + 1 AS row, cell_id FROM rows_"
        "  WHERE row = (SELECT max(row) FROM rows_)"
        "   AND (SELECT count(*) FROM rows_) > 1"
        "   AND (SELECT ym FROM cov WHERE row = (SELECT max(row) FROM cov))"
        "       >= (SELECT ymin FROM pm)"
    )


def cells_from_region_polar_sql(
    ul, dr, resolution: int, cfg: EngineConfig = WGS84_003
) -> str:
    """(row, col, cell_id) oracle for ellipsoidal cells_from_region
    over a NORTH-CAP region whose longitude span lies strictly inside
    one cap-face quadrant (dggs.py:1181-1331 polar path).  In that
    domain every parallel row is a straight run along the ring's top
    edge (no corner turning), so the reference's east-neighbor walk
    enumerates exactly [col(lam_min) .. col(lam_max)] stepping
    west->east = DECREASING face column.  The SQL derives:

    - the nucleus ring indices m from the projected radii of the two
      latitude bounds (parallels map to squares of Chebyshev radius r;
      nucleus rings sit at exact multiples of the cell width),
    - each ring's nucleus latitude by INVERSE-projecting the planar
      point (face center x, fy + m*w),
    - each row's first/last cell via the verified forward
      cell_from_point chain at (lam_min/lam_max, lat_m),
    - the reference's boundary-row insertion (top row iff the phi_max
      walk's first cell differs from the first nucleus row's, bottom
      row symmetrical, dggs.py:1302-1310).

    Latitude/longitude bounds must be in generic position (off cell
    boundaries); the build asserts the region sits in the top triangle
    with >= 1 cell width margin and spans >= 1 nucleus ring."""
    import numpy as np

    from rhealpixdggs_py_ray.core import projection as _prj

    N = cfg.N_side
    n = N**resolution
    w = cfg.cell_width(resolution)
    ulv = cfg.ul_vertex[0]
    W0 = cfg.cell_width(0)
    fx, fy = ulv[0] + W0 / 2, ulv[1] - W0 / 2

    lam_min, phi_max = ul
    lam_max, phi_min = dr
    lons = np.array([lam_min, lam_max, lam_min, lam_max], dtype=float)
    lats = np.array([phi_max, phi_max, phi_min, phi_min], dtype=float)
    vx, vy = _prj.forward(cfg, lons, lats)
    dxv, dyv = vx - fx, vy - fy
    if not (dyv > np.abs(dxv) + w).all():
        raise NotImplementedError(
            "cells_from_region_polar_sql: region corners must lie in the "
            "top cap triangle with >= 1 cell width diagonal margin"
        )
    r_top, r_bot = float(dyv[0]), float(dyv[2])
    if not (int(np.ceil(r_top / w)) <= int(np.floor(r_bot / w))):
        raise NotImplementedError(
            "cells_from_region_polar_sql: region spans no nucleus ring"
        )

    wl = _lit(w)
    fxl, fyl = _lit(fx), _lit(fy)
    cl = (n - 1) // 2  # face-center cell index (odd N_side)

    # --- bounds: radii of the two latitude bounds off the forward chain
    corners = (
        f"SELECT 0 AS bid, {_lit(lam_min)} AS lon, {_lit(phi_max)} AS lat"
        f" UNION ALL SELECT 1, {_lit(lam_min)}, {_lit(phi_min)}"
    )
    proj_b = projection_sql(corners, cfg, id_cols=("bid",))

    # --- nucleus ring latitudes via the inverse chain at (fx, fy + m*w)
    inv_m = inverse_sql(
        f"SELECT m, {fxl} AS xm, {fyl} + CAST(m AS DOUBLE) * {wl} AS ym"
        f" FROM cr_rings",
        cfg,
        id_cols=("m",),
    )

    # --- row endpoints through the verified forward cell chain
    # rowkey rk: -1 = phi_max boundary walk, m = nucleus ring, 10^9 =
    # phi_min boundary walk; side 0 = lam_min (walk start), 1 = lam_max.
    endpoints = (
        f"SELECT rk, side, lon, lat FROM ("
        f"  SELECT m AS rk, s.side,"
        f"   CASE s.side WHEN 0 THEN {_lit(lam_min)} ELSE {_lit(lam_max)} END AS lon,"
        f"   lat"
        f"  FROM cr_latm, (SELECT 0 AS side UNION ALL SELECT 1) s"
        f"  UNION ALL"
        f"  SELECT b.rk, s.side,"
        f"   CASE s.side WHEN 0 THEN {_lit(lam_min)} ELSE {_lit(lam_max)} END,"
        f"   b.lat"
        f"  FROM (SELECT -1 AS rk, {_lit(phi_max)} AS lat"
        f"        UNION ALL SELECT 1000000000, {_lit(phi_min)}) b,"
        f"       (SELECT 0 AS side UNION ALL SELECT 1) s"
        f") t0"
    )
    cells = cell_from_point_sql(endpoints, resolution, cfg, id_cols=("rk", "side"))

    dig = lambda i: f"CAST(substr(cell_id, {i + 2}, 1) AS BIGINT)"
    row_i = "(" + " + ".join(
        f"({dig(i)} // {N}) * {N ** (resolution - 1 - i)}" for i in range(resolution)
    ) + ")"
    col_j = "(" + " + ".join(
        f"({dig(i)} % {N}) * {N ** (resolution - 1 - i)}" for i in range(resolution)
    ) + ")"
    digits2 = "".join(
        f" || CAST({N} * ((fi // {N ** (resolution - 1 - i)}) % {N})"
        f" + ((j2 // {N ** (resolution - 1 - i)}) % {N}) AS VARCHAR)"
        for i in range(resolution)
    )

    return f"""
WITH cr_bnd AS MATERIALIZED (
  SELECT max(CASE WHEN bid = 0 THEN ym END) - {fyl} AS r_top,
         max(CASE WHEN bid = 1 THEN ym END) - {fyl} AS r_bot
  FROM {proj_b} pb
),
cr_rings AS MATERIALIZED (
  SELECT unnest(generate_series(CAST(ceil(r_top / {wl}) AS BIGINT),
                                CAST(floor(r_bot / {wl}) AS BIGINT))) AS m
  FROM cr_bnd
),
cr_latm AS MATERIALIZED (SELECT m, lat FROM {inv_m} im),
cr_cells AS MATERIALIZED (
  SELECT rk, side, cell_id, {row_i} AS fi, {col_j} AS fj FROM {cells} cc
),
cr_rows AS MATERIALIZED (
  SELECT rk,
         max(CASE WHEN side = 0 THEN cell_id END) AS start_cell,
         max(CASE WHEN side = 0 THEN fi END) AS fi,
         max(CASE WHEN side = 0 THEN fj END) AS j_start,
         max(CASE WHEN side = 1 THEN fj END) AS j_end
  FROM cr_cells GROUP BY rk
),
cr_keep AS MATERIALIZED (
  SELECT r.* FROM cr_rows r
  WHERE (r.rk >= 0 AND r.rk < 1000000000)
     OR (r.rk = -1 AND r.start_cell <>
          (SELECT start_cell FROM cr_rows
           WHERE rk >= 0 AND rk < 1000000000 ORDER BY rk LIMIT 1))
     OR (r.rk = 1000000000 AND r.start_cell <>
          (SELECT start_cell FROM cr_rows
           WHERE rk >= 0 AND rk < 1000000000 ORDER BY rk DESC LIMIT 1))
),
cr_ordered AS MATERIALIZED (
  SELECT rk, fi, j_start, j_end,
         CAST(row_number() OVER (ORDER BY rk) - 1 AS BIGINT) AS row
  FROM cr_keep
),
cr_expand AS (
  SELECT row, fi, j_start - j2 AS col, j2
  FROM (SELECT row, fi, j_start,
               unnest(generate_series(j_end, j_start)) AS j2
        FROM cr_ordered) e
)
SELECT row, col, 'N'{digits2} AS cell_id FROM cr_expand
"""


def _pip_sql(ring, px: str, py: str) -> str:
    """Ray-casting parity test mirroring geometry.points_in_ring
    (same xint arithmetic); ``ring`` is a list of (x, y) vertices."""
    terms = []
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if y2 == y1:
            continue
        xint = (
            f"({x1!r} + ({py} - {y1!r}) * ({x2!r} - {x1!r}) / ({y2!r} - {y1!r}))"
        )
        cond = f"(({y1!r} > {py}) <> ({y2!r} > {py}))"
        terms.append(f"(CASE WHEN {cond} AND {px} < {xint} THEN 1 ELSE 0 END)")
    return "((" + " + ".join(terms) + ") % 2 = 1)"


def polyfill_sql(
    poly, resolution: int, cfg: EngineConfig = WGS84_003
) -> str:
    """cell_id oracle for polyfill over an equatorial-band polygon:
    bbox cover -> quad-cell centroid (nucleus lon, mean of the four
    ellipsoidal vertex latitudes — cell.py:1061-1147 quad branch) ->
    ray-casting point-in-polygon."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    cover = _cover_cells_sql(min(xs), max(ys), max(xs), min(ys), resolution, cfg)
    R = _lit(cfg.R_A)
    pi = _lit(PI)
    r2d = _lit(180.0 / PI)
    w = _lit(cfg.cell_width(resolution))
    coeffs = cfg.auth_coeffs_inv

    # corner latitudes: ul==ur (y + w/2) and dr==dl (y - w/2) share a
    # row, so only two betas are needed; xm/ym is the nucleus
    half = f"{w}/2"
    b_ul = f"asin(greatest(-1.0, least(1.0, 8*(((ym + {half}))/{R})/(3*{pi}))))"
    b_dl = f"asin(greatest(-1.0, least(1.0, 8*(((ym - {half}))/{R})/(3*{pi}))))"
    series_t = " + ".join(
        f"({_lit(coeffs[k])})*sin({2 * (k + 1)}*{{b}})" for k in range(6)
    )
    lat_t = f"(({{b}} + ({series_t})) * {r2d})"
    lat_ul = lat_t.format(b="bu")
    lat_dl = lat_t.format(b="bd")
    # ul==ur and dr==dl latitudes (same y), so mean = (((ul+ur)+dr)+dl)/4
    lat_mean = f"((({lat_ul} + {lat_ul}) + {lat_dl}) + {lat_dl}) / 4"
    wrap = (
        "(CASE WHEN {v} >= 180 THEN {v} - 360"
        " WHEN {v} < -180 THEN {v} + 360 ELSE {v} END)"
    )
    lon = wrap.format(v=f"((xm / {R}) * {r2d})")
    pip = _pip_sql(list(poly), "clon", "clat")
    inner = (
        f"(WITH cov AS (SELECT row, col, xm, ym FROM {_sq(cover)} t),"
        f" bb AS (SELECT row, col, xm, ym, {b_ul} AS bu, {b_dl} AS bd FROM cov),"
        f" cc AS (SELECT row, col, xm, ym, {lon} AS clon, {lat_mean} AS clat FROM bb)"
        f" SELECT row, col, xm, ym FROM cc WHERE {pip})"
    )
    cells = planar_cell_sql(
        f"SELECT row, col, xm, ym FROM {inner} t", resolution, cfg,
        id_cols=("row", "col"),
    )
    return f"SELECT cell_id FROM {cells} z"


def _sq(s: str) -> str:
    return s


def polyfill_polar_sql(
    poly, resolution: int, cfg: EngineConfig = WGS84_003, face: int = 0
) -> str:
    """cell_id oracle for polyfill over a polygon strictly inside ONE
    open TOP triangle of a cap face (``face`` 0 = N, 5 = S) — the first polar polyfill
    oracle (round-3 VERDICT gap 2; reference semantics
    rhp_wrappers.py:510-599, centroid cell.py:1061-1147 skew branch).

    Every candidate cell is a skew quad, so the SQL replays the
    engine's skew-quad centroid (core/index.py:297-352): a 30x30
    tensor Gauss-Legendre rule over the planar cell square, each node
    mapped through the FULL inverse projection (polar rearrangement +
    healpix polar branch + inverse authalic series, inverse_sql), then
    the weighted lat/lon means are ray-cast against the polygon.

    Candidates are pruned to the polygon's Chebyshev ring (parallels
    map to concentric squares on the cap face) and to the top triangle
    sector; cells on the cap diagonals (darts + the cap cell) are
    excluded — valid because the polygon is required to keep >= 1.5
    cell widths from the diagonals, so no dart/cap centroid can lie
    inside it (asserted below from the projected vertices).  Summation
    order differs from numpy's pairwise sum by ~1e-13 relative; the
    only consumers are inside/outside decisions with >> 1e-9 margins
    (generic-position polygon)."""
    import numpy as np

    from rhealpixdggs_py_ray.core import projection as _prj

    if face not in (0, 5):
        raise AssertionError(f"polyfill_polar_sql: face {face} is not a cap (0 or 5)")
    n = cfg.N_side**resolution
    w = cfg.cell_width(resolution)
    ul = cfg.ul_vertex[face]
    W0 = cfg.cell_width(0)
    fx, fy = ul[0] + W0 / 2, ul[1] - W0 / 2

    lons = np.array([p[0] for p in poly], dtype=float)
    lats = np.array([p[1] for p in poly], dtype=float)
    vx, vy = _prj.forward(cfg, lons, lats)
    dxv, dyv = vx - fx, vy - fy
    # Polygon must sit in the open top triangle of the cap square with
    # >= 1.5 cell widths of margin from both diagonals.
    if not (dyv > np.abs(dxv) + 1.5 * w).all():
        raise NotImplementedError(
            "polyfill_polar_sql: polygon must lie inside the top cap "
            "triangle with >= 1.5 cell widths margin from the diagonals"
        )
    # Chebyshev ring bounds from the projected vertices (a parallel maps
    # to a square of constant Chebyshev radius, so the polygon's planar
    # image stays inside the vertices' radius range); 2 cell widths of
    # slack keeps the pruned set a superset of any centroid-in-polygon
    # candidate.
    cheb_v = np.maximum(np.abs(dxv), np.abs(dyv))
    r_lo = _lit(float(cheb_v.min()) - 2 * w)
    r_hi = _lit(float(cheb_v.max()) + 2 * w)

    wl = _lit(w)
    ulx, uly = _lit(ul[0]), _lit(ul[1])
    fxl, fyl = _lit(fx), _lit(fy)

    nodes, weights = np.polynomial.legendre.leggauss(30)
    gl_rows = ", ".join(
        f"({_lit(g)}, {_lit(wt)})" for g, wt in zip(nodes, weights)
    )

    # SUID digit string from (row i, col j): d_t = 3*row_t + col_t.
    digits = " || ".join(
        f"CAST(3*((i // {cfg.N_side ** (resolution - 1 - t)}) % 3)"
        f" + ((j // {cfg.N_side ** (resolution - 1 - t)}) % 3) AS VARCHAR)"
        for t in range(resolution)
    )

    inv = inverse_sql(
        "SELECT i, j, wab, xm, ym FROM pp_nodes",
        cfg,
        id_cols=("i", "j"),
        extra_cols=("wab",),
    )
    pip = _pip_sql(list(poly), "clon", "clat")

    return f"""
WITH pp_ij AS (
  SELECT i, j FROM (SELECT unnest(generate_series(0, {n - 1})) AS i)
  CROSS JOIN (SELECT unnest(generate_series(0, {n - 1})) AS j)
),
pp_cand AS MATERIALIZED (
  SELECT i, j,
         {ulx} + CAST(j AS DOUBLE) * {wl} AS x1,
         {uly} - (CAST(i AS DOUBLE) + 1.0) * {wl} AS y1
  FROM pp_ij
  WHERE greatest(abs(({ulx} + (CAST(j AS DOUBLE) + 0.5) * {wl}) - {fxl}),
                 abs(({uly} - (CAST(i AS DOUBLE) + 0.5) * {wl}) - {fyl}))
          BETWEEN {r_lo} AND {r_hi}
    AND (({uly} - (CAST(i AS DOUBLE) + 0.5) * {wl}) - {fyl})
          >= abs(({ulx} + (CAST(j AS DOUBLE) + 0.5) * {wl}) - {fxl}) - {wl}
    AND abs(abs(({ulx} + (CAST(j AS DOUBLE) + 0.5) * {wl}) - {fxl})
            - abs(({uly} - (CAST(i AS DOUBLE) + 0.5) * {wl}) - {fyl})) > {wl}/4
),
pp_gl(g, wg) AS (VALUES {gl_rows}),
pp_nodes AS MATERIALIZED (
  SELECT c.i, c.j, a.wg * b.wg AS wab,
         (c.x1 + (c.x1 + {wl})) / 2 + ((c.x1 + {wl}) - c.x1) / 2 * a.g AS xm,
         (c.y1 + (c.y1 + {wl})) / 2 + ((c.y1 + {wl}) - c.y1) / 2 * b.g AS ym
  FROM pp_cand c CROSS JOIN pp_gl a CROSS JOIN pp_gl b
),
pp_cent AS MATERIALIZED (
  SELECT i, j, SUM(wab * lon) / 4 AS clon, SUM(wab * lat) / 4 AS clat
  FROM {inv} t GROUP BY i, j
)
SELECT '{CELLS0[face]}' || {digits} AS cell_id FROM pp_cent WHERE {pip}
"""


def compress_cells_sql(
    poly, resolution: int, cfg: EngineConfig = WGS84_003, polar: bool = False
) -> str:
    """compress_order_cells oracle over the polyfill cover
    (conversion.py:114-135): merge complete sibling groups, emit
    parents.  ``polar=True`` compresses the north-cap cover from
    polyfill_polar_sql instead of the equatorial one."""
    pf = (
        polyfill_polar_sql(poly, resolution, cfg)
        if polar
        else polyfill_sql(poly, resolution, cfg)
    )
    n2 = cfg.N_side**2
    return (
        f"WITH pf AS ({pf}),"
        " up AS (SELECT substr(cell_id, 1, length(cell_id) - 1) AS p, cell_id FROM pf),"
        " cnt AS (SELECT p, COUNT(*) AS n FROM up GROUP BY p)"
        f" SELECT DISTINCT CASE WHEN cnt.n = {n2} THEN u.p ELSE u.cell_id END AS cell_id"
        " FROM up u JOIN cnt ON u.p = cnt.p"
    )


def cell_geometry_sql(resolution: int = 2, cfg: EngineConfig = WGS84_003) -> str:
    """(cell_id, nuc_lon_micros, nuc_lat_micros, shape) for every cell
    at ``resolution`` (1..4) — nucleus via ul_vertex digit arithmetic
    (cell.py:483-531, 625-653) + the full inverse projection; shape via
    the per-digit SUID patterns (cell.py:1008-1059): cap iff every
    digit is the center, dart iff every digit sits on one diagonal."""
    if not 1 <= resolution <= 4:
        raise NotImplementedError("cell_geometry oracle supports res 1..4")
    N = cfg.N_side
    b = N * N
    res = resolution
    total = 6 * b**res
    w0 = _lit(cfg.cell_width(0))
    w = _lit(cfg.cell_width(res))
    inv = _lit(float(N ** (-res)))
    x0case = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 0])}" for i in range(6)
    ) + " END)"
    y0case = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 1])}" for i in range(6)
    ) + " END)"
    letter = (
        "(CASE face "
        + " ".join(f"WHEN {i} THEN '{c}'" for i, c in enumerate(CELLS0))
        + " END)"
    )
    digs = [f"((i // {b ** (res - 1 - k)}) % {b})" for k in range(res)]
    dnames = [f"d{k}" for k in range(res)]
    cell = letter + "".join(f" || CAST({d} AS VARCHAR)" for d in dnames)
    dxi = " + ".join(
        f"({d} % {N}) * {N ** (res - 1 - k)}" for k, d in enumerate(dnames)
    )
    dyi = " + ".join(
        f"({d} // {N}) * {N ** (res - 1 - k)}" for k, d in enumerate(dnames)
    )
    center = (b - 1) // 2
    diag1 = sorted({i * (N + 1) for i in range(N)})
    diag2 = sorted({(i + 1) * (N - 1) for i in range(N)})
    in1 = "({d} IN (" + ", ".join(str(v) for v in diag1) + "))"
    in2 = "({d} IN (" + ", ".join(str(v) for v in diag2) + "))"
    cap_cond = " AND ".join(f"{d} = {center}" for d in dnames)
    dart1 = " AND ".join(in1.format(d=d) for d in dnames)
    dart2 = " AND ".join(in2.format(d=d) for d in dnames)
    shape = (
        f"(CASE WHEN face IN (0, 5) THEN"
        f" (CASE WHEN {cap_cond} THEN 'cap'"
        f" WHEN ({dart1}) OR ({dart2}) THEN 'dart'"
        f" ELSE 'skew_quad' END)"
        f" ELSE 'quad' END)"
    )
    dig_sel = ", ".join(f"{e} AS {n}" for e, n in zip(digs, dnames))
    keep_d = ", ".join(dnames)
    base = (
        f"(WITH i0 AS (SELECT unnest(generate_series(0, {total - 1})) AS i),"
        f" dg AS (SELECT i, i // {b ** res} AS face, {dig_sel} FROM i0),"
        f" rc AS (SELECT i, face, {keep_d},"
        f"   ({dxi}) AS dxi, ({dyi}) AS dyi FROM dg),"
        f" nu AS (SELECT i, face, {keep_d},"
        f"   ({x0case} + {w0}*(dxi * {inv})) + {w}/2 AS xm,"
        f"   ({y0case} - {w0}*(dyi * {inv})) - {w}/2 AS ym FROM rc)"
        f" SELECT i, face, {keep_d}, xm, ym FROM nu)"
    )
    invq = inverse_sql(
        f"SELECT i, face, {keep_d}, xm, ym FROM {base} t", cfg,
        id_cols=("i",), extra_cols=("face",) + tuple(dnames),
    )
    return (
        f"SELECT {cell} AS cell_id,"
        f" CAST(floor(lon * 1000000.0) AS BIGINT) AS nuc_lon_micros,"
        f" CAST(floor(lat * 1000000.0) AS BIGINT) AS nuc_lat_micros,"
        f" {shape} AS shape"
        f" FROM {invq} t"
    )


def grid_ul_sql(resolution: int, cfg: EngineConfig = WGS84_003) -> str:
    """Subquery: every cell at ``resolution`` (1..5) with its SUID and
    planar upper-left vertex computed by the ul_vertex digit arithmetic
    (cell.py:483-531): (cell_id, xul, yul).  The arithmetic is fully
    parametric in the resolution; 5 (2.1M rows enumerated in DuckDB)
    is a practicality cap, not a correctness one."""
    if not 1 <= resolution <= 5:
        raise NotImplementedError("grid_ul_sql supports resolutions 1..5")
    N = cfg.N_side
    b = N * N
    total = 6 * b**resolution
    w0 = _lit(cfg.cell_width(0))
    inv = _lit(float(N ** (-resolution)))
    x0case = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 0])}" for i in range(6)
    ) + " END)"
    y0case = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 1])}" for i in range(6)
    ) + " END)"
    letter = (
        "(CASE face "
        + " ".join(f"WHEN {i} THEN '{c}'" for i, c in enumerate(CELLS0))
        + " END)"
    )
    digs = [f"((i // {b ** (resolution - 1 - k)}) % {b})" for k in range(resolution)]
    cell = letter + "".join(f" || CAST({d} AS VARCHAR)" for d in digs)
    dxi = " + ".join(f"({d} % {N}) * {N ** (resolution - 1 - k)}" for k, d in enumerate(digs))
    dyi = " + ".join(f"({d} // {N}) * {N ** (resolution - 1 - k)}" for k, d in enumerate(digs))
    return (
        f"(WITH i0 AS (SELECT unnest(generate_series(0, {total - 1})) AS i),"
        f" fc AS (SELECT i, i // {b ** resolution} AS face FROM i0)"
        f" SELECT i, face, {cell} AS cell_id,"
        f" ({x0case} + {w0}*(({dxi}) * {inv})) AS xul,"
        f" ({y0case} - {w0}*(({dyi}) * {inv})) AS yul"
        f" FROM fc)"
    )


def splitmix64_sql_ctes(src_sql: str, id_cols: str, in_col: str,
                        out_col: str, prefix: str = "sm") -> str:
    """CTE chain computing splitmix64(``in_col``) (fixtures.py:38-44)
    with HUGEINT-safe 32-bit-split modular multiplies; yields a
    subquery (id_cols..., out_col)."""
    M = "18446744073709551616"

    def modmul(a: str, const: int) -> str:
        hi, lo = const >> 32, const & 0xFFFFFFFF
        return (
            f"CAST((CAST({a} AS HUGEINT) * {lo}"
            f" + ((CAST(({a}) % 4294967296 AS HUGEINT) * {hi}) % 4294967296)"
            f" * 4294967296) % {M} AS UBIGINT)"
        )

    z1 = f"CAST((CAST(CAST({in_col} AS UBIGINT) AS HUGEINT) + 11400714819323198485) % {M} AS UBIGINT)"
    return (
        f"(WITH {prefix}0 AS ({src_sql}),"
        f" {prefix}1 AS (SELECT {id_cols}, {z1} AS z1 FROM {prefix}0),"
        f" {prefix}2 AS (SELECT {id_cols}, {modmul('xor(z1, z1 >> 30)', 0xBF58476D1CE4E5B9)} AS z2 FROM {prefix}1),"
        f" {prefix}3 AS (SELECT {id_cols}, {modmul('xor(z2, z2 >> 27)', 0x94D049BB133111EB)} AS z3 FROM {prefix}2)"
        f" SELECT {id_cols}, xor(z3, z3 >> 31) AS {out_col} FROM {prefix}3)"
    )


def linetrace_sql(lines, resolution: int, cfg: EngineConfig = WGS84_003) -> str:
    """(line_id, seq, cell_id) oracle for linetrace over equatorial-band
    polylines in generic position (no cell-corner hits, no antimeridian,
    no axis-parallel segments).

    Independent derivation: inside the band the reference's neighbor
    walk (dggs.py:1096-1179) visits exactly the cells whose lon/lat
    rectangle the segment properly crosses, in order of entry parameter
    t — so the oracle enumerates the segment-bbox cover, Liang-Barsky
    clips each cell rectangle against the segment, keeps cells with a
    positive-length clip, orders by t and drops consecutive duplicates
    at segment junctions (rhp_wrappers.py:602-674 dedup)."""
    R = _lit(cfg.R_A)
    r2d = _lit(180.0 / PI)
    pi = _lit(PI)
    w = _lit(cfg.cell_width(resolution))
    coeffs = cfg.auth_coeffs_inv
    series = " + ".join(
        f"({_lit(coeffs[k])})*sin({2 * (k + 1)}*{{b}})" for k in range(6)
    )
    beta_t = "asin(greatest(-1.0, least(1.0, 8*(({y})/" + R + f")/(3*{pi}))))"
    lat_t = "(({b} + (" + series + f")) * {r2d})"

    line_parts = []
    for li, coords in enumerate(lines):
        seg_parts = []
        for si, (p1, p2) in enumerate(zip(coords, coords[1:])):
            (x1, y1), (x2, y2) = p1, p2
            if x1 == x2 or y1 == y2:
                raise NotImplementedError("linetrace oracle: generic segments only")
            cover = _cover_cells_sql(
                min(x1, x2), max(y1, y2), max(x1, x2), min(y1, y2),
                resolution, cfg,
            )
            cells = planar_cell_sql(
                f"SELECT row, col, xul, yul, xm, ym FROM {cover} t",
                resolution, cfg, id_cols=("row", "col"),
                extra_cols=("xul", "yul"),
            )
            lon_lo = f"((xul / {R}) * {r2d})"
            lon_hi = f"(((xul + {w}) / {R}) * {r2d})"
            bt = beta_t.format(y="yul")
            bb = beta_t.format(y=f"yul - {w}")
            lat_hi = lat_t.format(b="btop")
            lat_lo = lat_t.format(b="bbot")
            dx = f"({x2!r} - {x1!r})"
            dy = f"({y2!r} - {y1!r})"
            txa = f"((lon_lo - {x1!r}) / {dx})"
            txb = f"((lon_hi - {x1!r}) / {dx})"
            tya = f"((lat_lo - {y1!r}) / {dy})"
            tyb = f"((lat_hi - {y1!r}) / {dy})"
            tmin = f"greatest(least({txa}, {txb}), least({tya}, {tyb}), 0.0)"
            tmax = f"least(greatest({txa}, {txb}), greatest({tya}, {tyb}), 1.0)"
            seg_parts.append(
                f"SELECT {si} AS sidx, cell_id, {tmin} AS t"
                f" FROM (SELECT cell_id, {lon_lo} AS lon_lo, {lon_hi} AS lon_hi,"
                f"   {lat_lo} AS lat_lo, {lat_hi} AS lat_hi"
                f"  FROM (SELECT cell_id, xul, yul, {bt} AS btop, {bb} AS bbot"
                f"        FROM {cells} z) zz) q"
                f" WHERE {tmin} < {tmax}"
            )
        segs = " UNION ALL ".join(seg_parts)
        line_parts.append(
            f"SELECT CAST({li} AS BIGINT) AS line_id,"
            f" row_number() OVER (ORDER BY sidx, t) - 1 AS seq, cell_id FROM ("
            f"  SELECT sidx, t, cell_id,"
            f"   lag(cell_id) OVER (ORDER BY sidx, t) AS prev"
            f"  FROM ({segs}) u) v WHERE prev IS NULL OR prev <> cell_id"
        )
    return " UNION ALL ".join(f"({p})" for p in line_parts)


# ---------------------------------------------------------------------------
# CellZoneFromPoly as SQL: unrolled quadtree descent (conversion.py:40-111)
# for an equatorial-band polygon in generic position.  Every geometry
# predicate mirrors core/geometry.py operation-for-operation (ray-cast
# parity PIP, ccw sign segment intersection), cell rings come from the
# ul-vertex digit arithmetic + the equatorial inverse, and the emit
# order is reproduced as lexicographic SUID rank (the reference's
# depth-first digit-order emit IS lexicographic, pinned in tests).
# ---------------------------------------------------------------------------

def _sql_ccw(ax, ay, bx, by, cx, cy) -> str:
    """geometry.py ccw(a, b, c) = (c1-a1)*(b0-a0) - (b1-a1)*(c0-a0)."""
    return f"(({cy} - {ay})*({bx} - {ax}) - ({by} - {ay})*({cx} - {ax}))"


def _sql_on(ax, ay, bx, by, cx, cy) -> str:
    return (
        f"(least({ax}, {bx}) <= {cx} AND {cx} <= greatest({ax}, {bx})"
        f" AND least({ay}, {by}) <= {cy} AND {cy} <= greatest({ay}, {by}))"
    )


def _sql_seg_intersect(a, b, c, d) -> str:
    """geometry.py segments_intersect(a, b, c, d); each arg is an
    (x_expr, y_expr) pair."""
    d1 = _sql_ccw(c[0], c[1], d[0], d[1], a[0], a[1])
    d2 = _sql_ccw(c[0], c[1], d[0], d[1], b[0], b[1])
    d3 = _sql_ccw(a[0], a[1], b[0], b[1], c[0], c[1])
    d4 = _sql_ccw(a[0], a[1], b[0], b[1], d[0], d[1])
    # generic-position fixture: proper crossings only (the engine's
    # collinear-touch branches never fire; asserted by the local gate)
    proper = (
        f"((({d1} > 0 AND {d2} < 0) OR ({d1} < 0 AND {d2} > 0))"
        f" AND (({d3} > 0 AND {d4} < 0) OR ({d3} < 0 AND {d4} > 0)))"
    )
    return proper




def cell_zone_sql(poly, res_limit: int, cfg: EngineConfig = WGS84_003) -> str:
    """(seq, cell_id, kind) oracle for cell_zone_from_poly over an
    equatorial-band polygon in generic position.

    Independent closed-form derivation (no frontier recursion): the
    reference's depth-first descent emits exactly

    - every cell c (res <= limit) with poly CONTAINS ring(c) whose
      parent is NOT contained (a contained ancestor forces the child
      contained, and the finest-containing bounding cell guarantees the
      overlap-recursion gates hold), labelled 'fully contained' — or
      'bounding poly' in the degenerate poly == bounding-ring case; and
    - every res-limit cell that is not contained but whose nucleus lies
      in the polygon ('nucleus'),

    and its emit order is the lexicographic SUID order (pinned in
    tests/test_conversion.py).  Candidate cells come from the bbox
    cover enumeration per resolution; the ray-cast / ccw predicates
    mirror core/geometry.py through unpivoted edge/vertex tables
    (relational form keeps the SQL text small enough to plan)."""
    _check_equatorial(cfg, [p[1] for p in poly])
    R = _lit(cfg.R_A)
    pi = _lit(PI)
    r2d = _lit(180.0 / PI)
    w0 = _lit(cfg.cell_width(0))
    coeffs = cfg.auth_coeffs_inv
    series = " + ".join(
        f"({_lit(coeffs[k])})*sin({2 * (k + 1)}*{{b}})" for k in range(6)
    )
    wrap = (
        "(CASE WHEN {v} >= 180 THEN {v} - 360"
        " WHEN {v} < -180 THEN {v} + 360 ELSE {v} END)"
    )

    def lonw(x):
        return wrap.format(v=f"(({x} / {R}) * {r2d})")

    def lat_of(y):
        b = f"asin(greatest(-1.0, least(1.0, 8*(({y})/{R})/(3*{pi}))))"
        return f"(({b} + ({series.format(b=b)})) * {r2d})"

    N = cfg.N_side
    shell = list(poly)
    m = len(shell)
    xs = [p[0] for p in shell]
    ys = [p[1] for p in shell]
    bbox = (min(xs), max(ys), max(xs), min(ys))

    pedges = ", ".join(
        f"({shell[i][0]!r}, {shell[i][1]!r},"
        f" {shell[(i + 1) % m][0]!r}, {shell[(i + 1) % m][1]!r})"
        for i in range(m)
    )
    pverts = ", ".join(f"({x!r}, {y!r})" for x, y in shell)

    # shared bbox-corner projection (ONE forward-projection instance;
    # per-res ranges derive arithmetically from the shared face/dx/dy)
    bpts = (
        "SELECT * FROM (VALUES"
        f" (0, {bbox[0]!r}, {bbox[1]!r}), (1, {bbox[2]!r}, {bbox[3]!r})"
        ") AS t(id, lon, lat)"
    )
    proj = projection_sql(bpts, cfg, id_cols=("id",))
    pi_b = PI
    bins = [(-pi_b, -pi_b / 2), (-pi_b / 2, 0.0), (0.0, pi_b / 2), (pi_b / 2, pi_b)]
    face_eq = "(CASE " + " ".join(
        f"WHEN xm >= {_lit(cfg.R_A * lo)} AND xm < {_lit(cfg.R_A * hi)} THEN {i + 1}"
        for i, (lo, hi) in enumerate(bins)
    ) + " END)"
    ulxc = "(CASE face " + " ".join(
        f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 0])}" for i in range(1, 5)
    ) + " END)"
    uly_l = _lit(cfg.ul_vertex[1, 1])
    smidgen = _lit(0.5 * cfg.cell_width(cfg.max_resolution) / cfg.cell_width(0))
    zb_cte = (
        f"zb AS MATERIALIZED (SELECT id, face,"
        f" CASE WHEN dx0 = 1 THEN dx0 - {smidgen} ELSE dx0 END AS dxs,"
        f" CASE WHEN dy0 = 1 THEN dy0 - {smidgen} ELSE dy0 END AS dys FROM"
        f" (SELECT id, face, abs(xm - {ulxc})/{w0} AS dx0,"
        f"   abs(ym - {uly_l})/{w0} AS dy0 FROM"
        f"  (SELECT id, xm, ym, {face_eq} AS face FROM {proj} t) q0) q1)"
    )

    def geo_cte(r: int) -> tuple[list, str]:
        """per-res CTE list enumerating the bbox cover at res r with
        (k, c, cell_id, corner coords); k/c ranges from the shared zb."""
        n3r = N**r
        w = _lit(cfg.cell_width(r))
        inv = _lit(float(N ** (-r)))
        scale = _lit(float(n3r))
        face = f"(1 + c // {n3r})"
        x0case = f"(CASE {face} " + " ".join(
            f"WHEN {i} THEN {_lit(cfg.ul_vertex[i, 0])}" for i in range(1, 5)
        ) + " END)"
        letter = f"(CASE {face} " + " ".join(
            f"WHEN {i} THEN '{ch}'" for i, ch in enumerate(CELLS0)
        ) + " END)"
        digits = "".join(
            f" || CAST(((k // {N ** (r - 1 - i)}) % {N}) * {N}"
            f" + (((c % {n3r}) // {N ** (r - 1 - i)}) % {N}) AS VARCHAR)"
            for i in range(r)
        )
        pre = []
        if r == 0:
            kc = "(SELECT 0 AS k, c FROM (SELECT unnest(generate_series(0, 3)) AS c))"
        else:
            pre.append(
                f"rng{r} AS MATERIALIZED (SELECT"
                f" (SELECT CAST(floor(dys * {scale}) AS BIGINT) FROM zb WHERE id=0) AS k_min,"
                f" (SELECT CAST(floor(dys * {scale}) AS BIGINT) FROM zb WHERE id=1) AS k_max,"
                f" (SELECT (face - 1) * {n3r} + CAST(floor(dxs * {scale}) AS BIGINT) FROM zb WHERE id=0) AS c_min,"
                f" (SELECT (face - 1) * {n3r} + CAST(floor(dxs * {scale}) AS BIGINT) FROM zb WHERE id=1) AS c_max)"
            )
            kc = (
                f"(SELECT k_min + dk AS k, c_min + dc AS c FROM rng{r},"
                f" (SELECT dk FROM (SELECT unnest(generate_series(0, {n3r})) AS dk), rng{r}"
                f"  WHERE dk <= k_max - k_min) a,"
                f" (SELECT dc FROM (SELECT unnest(generate_series(0, {4 * n3r})) AS dc), rng{r}"
                f"  WHERE dc <= c_max - c_min) b)"
            )
        geo = (
            f"(SELECT k, c, cell_id,"
            f" {lonw('xul')} AS lon_lo, {lonw(f'(xul + {w})')} AS lon_hi,"
            f" {lat_of('yul')} AS lat_hi, {lat_of(f'(yul - {w})')} AS lat_lo,"
            f" xul, yul FROM"
            f" (SELECT k, c, {letter}{digits} AS cell_id,"
            f"  ({x0case} + {w0}*((c % {n3r}) * {inv})) AS xul,"
            f"  ({uly_l} - {w0}*(k * {inv})) AS yul FROM {kc} s) g)"
        )
        return pre, geo

    # generic predicate fragments over unpivoted tables
    pip_corner = (
        "SELECT k, c, cid, SUM(CASE WHEN (ey1 > py) <> (ey2 > py)"
        " AND px < ex1 + (py - ey1) * (ex2 - ex1) / (ey2 - ey1)"
        " THEN 1 ELSE 0 END) % 2 = 1 AS inside"
        " FROM {cor} x CROSS JOIN pedges WHERE ey1 <> ey2"
        " GROUP BY k, c, cid, px, py"
    )
    ring_edge = (
        "(SELECT k, c, ei,"
        " CASE ei WHEN 0 THEN lon_lo WHEN 1 THEN lon_hi WHEN 2 THEN lon_hi ELSE lon_lo END AS rx1,"
        " CASE ei WHEN 0 THEN lat_hi WHEN 1 THEN lat_hi WHEN 2 THEN lat_lo ELSE lat_lo END AS ry1,"
        " CASE ei WHEN 0 THEN lon_hi WHEN 1 THEN lon_hi WHEN 2 THEN lon_lo ELSE lon_lo END AS rx2,"
        " CASE ei WHEN 0 THEN lat_hi WHEN 1 THEN lat_lo WHEN 2 THEN lat_lo ELSE lat_hi END AS ry2"
        " FROM {geo} g, (SELECT unnest(generate_series(0, 3)) AS ei))"
    )
    seg = _sql_seg_intersect(
        ("ex1", "ey1"), ("ex2", "ey2"), ("rx1", "ry1"), ("rx2", "ry2")
    )

    parts = [f"pedges(ex1, ey1, ex2, ey2) AS (VALUES {pedges})",
             f"pverts(vx, vy) AS (VALUES {pverts})",
             zb_cte]
    emits = []
    for r in range(0, res_limit + 1):
        pre, geo = geo_cte(r)
        parts.extend(pre)
        parts.append(f"geo{r} AS MATERIALIZED {geo}")
        corners = (
            f"(SELECT k, c, cid,"
            f" CASE cid WHEN 0 THEN lon_lo WHEN 1 THEN lon_hi WHEN 2 THEN lon_hi ELSE lon_lo END AS px,"
            f" CASE cid WHEN 0 THEN lat_hi WHEN 1 THEN lat_hi WHEN 2 THEN lat_lo ELSE lat_lo END AS py"
            f" FROM geo{r} g, (SELECT unnest(generate_series(0, 3)) AS cid))"
        )
        parts.append(
            f"cpip{r} AS MATERIALIZED ({pip_corner.format(cor=corners)})"
        )
        parts.append(
            f"pipagg{r} AS MATERIALIZED (SELECT k, c, bool_and(inside) AS pip_all,"
            f" bool_or(inside) AS pip_any FROM cpip{r} GROUP BY k, c)"
        )
        parts.append(
            f"pvin{r} AS MATERIALIZED (SELECT k, c, vx, vy,"
            f" ((CASE WHEN (lat_hi > vy) <> (lat_lo > vy) AND vx < lon_hi THEN 1 ELSE 0 END)"
            f" + (CASE WHEN (lat_lo > vy) <> (lat_hi > vy) AND vx < lon_lo THEN 1 ELSE 0 END))"
            f" % 2 = 1 AS inside FROM geo{r} g CROSS JOIN pverts)"
        )
        parts.append(
            f"pvagg{r} AS MATERIALIZED (SELECT k, c, bool_and(inside) AS pv_all"
            f" FROM pvin{r} GROUP BY k, c)"
        )
        parts.append(
            f"ri{r} AS MATERIALIZED (SELECT k, c, bool_or({seg}) AS anyint"
            f" FROM {ring_edge.format(geo=f'geo{r}')} re CROSS JOIN pedges"
            f" GROUP BY k, c)"
        )
        nuc = ""
        if r == res_limit:
            w = _lit(cfg.cell_width(r))
            nlon = lonw(f"(xul + {w}/2)")
            nlat = lat_of(f"(yul - {w}/2)")
            parts.append(
                f"nucp{r} AS MATERIALIZED (SELECT g.k, g.c,"
                f" SUM(CASE WHEN (ey1 > ny) <> (ey2 > ny)"
                f" AND nx < ex1 + (ny - ey1) * (ex2 - ex1) / (ey2 - ey1)"
                f" THEN 1 ELSE 0 END) % 2 = 1 AS nuc_in FROM"
                f" (SELECT k, c, {nlon} AS nx, {nlat} AS ny FROM geo{r} z) g"
                f" CROSS JOIN pedges WHERE ey1 <> ey2 GROUP BY g.k, g.c, nx, ny)"
            )
        parts.append(
            f"fl{r} AS MATERIALIZED (SELECT g.k, g.c, g.cell_id,"
            f" p.pip_all AND NOT i.anyint AS cont,"
            f" v.pv_all AND NOT i.anyint AS holds_poly"
            f" FROM geo{r} g JOIN pipagg{r} p ON p.k = g.k AND p.c = g.c"
            f" JOIN pvagg{r} v ON v.k = g.k AND v.c = g.c"
            f" JOIN ri{r} i ON i.k = g.k AND i.c = g.c)"
        )
        if r > 0:
            emits.append(
                f"SELECT a.cell_id,"
                f" CASE WHEN a.holds_poly THEN 'bounding poly'"
                f" ELSE 'fully contained' END AS kind"
                f" FROM fl{r} a LEFT JOIN fl{r - 1} b"
                f" ON b.k = a.k // {N} AND b.c = a.c // {N}"
                f" WHERE a.cont AND NOT coalesce(b.cont, FALSE)"
            )
        if r == res_limit:
            emits.append(
                f"SELECT f.cell_id, 'nucleus' AS kind"
                f" FROM fl{r} f JOIN nucp{r} n ON n.k = f.k AND n.c = f.c"
                f" WHERE NOT f.cont AND n.nuc_in"
            )
    allemit = " UNION ALL ".join(f"({e})" for e in emits)
    return (
        "WITH " + ", ".join(parts)
        + f" SELECT row_number() OVER (ORDER BY cell_id) - 1 AS seq,"
        f" cell_id, kind FROM ({allemit})"
    )


def linetrace_sampled_sql(
    segs, resolution: int, n_samples: int = 4096,
    cfg: EngineConfig = WGS84_003,
) -> str:
    """(line_id, seq, cell_id) oracle for the cap-safe sampled
    linetrace (core/cover.py:cells_from_line_sampled) — valid at ALL
    latitudes, unlike linetrace_sql's equatorial band.

    Replays the engine's rule verbatim: n_samples+1 uniform samples
    per segment (n_samples a power of two, so i/n is exact and the
    sample coordinates are bit-identical doubles), cell_from_point on
    each sample via the verified projection SQL, then a lag() collapse
    of consecutive duplicates ordered by sample index."""
    if n_samples & (n_samples - 1):
        raise NotImplementedError("n_samples must be a power of two for bit parity")
    inv_n = f"(CAST(i AS DOUBLE) / {float(n_samples)!r})"
    vals = ", ".join(
        f"({li}, {_lit(float(p0[0]))}, {_lit(float(p0[1]))},"
        f" {_lit(float(p1[0]))}, {_lit(float(p1[1]))})"
        for li, (p0, p1) in enumerate(segs)
    )
    points = (
        f"SELECT line_id, i,"
        f" lon0 + (lon1 - lon0) * {inv_n} AS lon,"
        f" lat0 + (lat1 - lat0) * {inv_n} AS lat"
        f" FROM (VALUES {vals}) seg(line_id, lon0, lat0, lon1, lat1)"
        f" CROSS JOIN range({n_samples + 1}) r(i)"
    )
    cells = cell_from_point_sql(points, resolution, cfg, id_cols=("line_id", "i"))
    return (
        f"WITH c AS MATERIALIZED (SELECT * FROM {cells} t),"
        f" d AS MATERIALIZED (SELECT line_id, i, cell_id,"
        f"   lag(cell_id) OVER (PARTITION BY line_id ORDER BY i) AS prev FROM c),"
        f" e AS (SELECT line_id, i, cell_id FROM d"
        f"   WHERE prev IS NULL OR cell_id <> prev)"
        f" SELECT CAST(line_id AS BIGINT) AS line_id,"
        f" CAST(row_number() OVER (PARTITION BY line_id ORDER BY i) - 1 AS BIGINT) AS seq,"
        f" cell_id FROM e ORDER BY line_id, seq"
    )
