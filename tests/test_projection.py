"""Projection kernel conformance: frozen doctest goldens from the
reference (pj_healpix.py / pj_rhealpix.py / projection_wrapper.py /
utils.py) evaluated through the batched kernels, plus round-trip
property tests."""

import math

import numpy as np
import pytest

from rhealpixdggs_py_ray.core import projection as prj
from rhealpixdggs_py_ray.core import utils as ut
from rhealpixdggs_py_ray.core.config import (
    EngineConfig,
    UNIT_003,
    WGS84_003,
)

PI = math.pi


def test_healpix_sphere_golden():
    # pj_healpix.py:42-43
    x, y = prj.healpix_sphere(np.array([0.0]), np.array([math.asin(2.0 / 3)]))
    assert x[0] == 0 and y[0] == PI / 4
    # inverse round-trip, pj_healpix.py:75
    lam, phi, ok = prj.healpix_sphere_inverse(np.array([0.0]), np.array([PI / 4]))
    assert ok[0] and lam[0] == 0 and phi[0] == math.asin(2.0 / 3)


def test_healpix_ellipsoid_golden():
    # pj_healpix.py:124-127
    x, y = prj.healpix_ellipsoid(np.array([0.0]), np.array([PI / 7]))
    assert round(float(y[0]), 15) == 0.511157237746422
    x, y = prj.healpix_ellipsoid(np.array([0.0]), np.array([PI / 7]), 0.8)
    assert round(float(y[0]), 15) == 0.268484450857837


def test_healpix_closure_golden():
    # pj_healpix.py:262-270 — healpix(a=2)(0, pi/3, radians=True)
    cfg = EngineConfig(R=2.0, radians=True)
    x, y = prj.forward(cfg, np.array([0.0]), np.array([PI / 3]), proj="healpix")
    assert round(float(x[0]), 15) == 0.574951359778215
    assert round(float(y[0]), 15) == 2.145747686573111
    # degrees variant
    cfgd = EngineConfig(R=2.0)
    x, y = prj.forward(cfgd, np.array([0.0]), np.array([60.0]), proj="healpix")
    assert round(float(x[0]), 15) == 0.574951359778215
    lam, phi, ok = prj.inverse(cfgd, x, y, proj="healpix")
    assert ok[0] and abs(phi[0] - 60) < 1e-13


def test_combine_triangles_golden():
    # pj_rhealpix.py:77-84
    x, y = prj.combine_triangles(np.array([-PI / 4]), np.array([PI / 3]))
    # Exact values from executing the reference in this environment
    # (docstring rounds differ in the last printed digit).
    assert float(x[0]) == -1.832595714594046
    assert float(y[0]) == 1.5707963267948966
    xi, yi = prj.combine_triangles(x, y, inverse=True)
    assert float(xi[0]) == -0.7853981633974483
    assert float(yi[0]) == 1.0471975511965976


def test_triangle_golden():
    # pj_rhealpix.py:159-162
    t, r = prj.triangle(np.array([-PI / 4]), np.array([PI / 4 + 0.1]))
    assert t[0] == 1 and r[0] == prj.REGION_NORTH
    t, r = prj.triangle(np.array([-3 * PI / 4 + 0.1]), np.array([PI / 2]), inverse=True)
    assert t[0] == 1 and r[0] == prj.REGION_NORTH


def test_rhealpix_sphere_golden():
    # pj_rhealpix.py:283-284 via unit-sphere radians config
    cfg = EngineConfig(R=1.0, radians=True)
    x, y = prj.forward(cfg, np.array([0.0]), np.array([PI / 4]))
    assert round(float(x[0]), 15) == -1.619978633413937
    assert round(float(y[0]), 15) == 2.307012183573304


def test_rhealpix_closure_golden():
    # pj_rhealpix.py:524-534 — rhealpix(a=2, ns=1, ss=2)(0, pi/3, radians=True)
    cfg = EngineConfig(R=2.0, radians=True, north_square=1, south_square=2)
    x, y = prj.forward(cfg, np.array([0.0]), np.array([PI / 3]))
    assert round(float(x[0]), 15) == -0.574951359778215
    assert round(float(y[0]), 15) == 2.145747686573111


def test_projection_wrapper_golden():
    # projection_wrapper.py:55-57 — WGS84 ellipsoid, ns=1, ss=0, (0, 30) deg
    cfg = EngineConfig(north_square=1, south_square=0)
    x, y = prj.forward(cfg, np.array([0.0]), np.array([30.0]))
    assert round(float(x[0]), 15) == 0.0
    assert round(float(y[0]), 15) == 3740232.8933662786


def test_auth_lat_golden():
    # utils.py:126-134
    e = 0.08181919104281579
    beta = ut.auth_lat(np.array([PI / 3]), e, radians=True)
    assert round(float(beta[0]), 15) == 1.045256493205824
    phi = ut.auth_lat(beta, e, radians=True, inverse=True)
    assert round(float(phi[0]), 15) == 1.047197551196598


def test_wrap_golden():
    assert ut.wrap_longitude(np.array([3 * PI]), radians=True)[0] == -PI
    got = ut.wrap_latitude(np.array([45.0, -45.0, 90.0, -90.0, 135.0, -135.0]))
    assert got.tolist() == [45.0, -45.0, 90.0, -90.0, -45.0, 45.0]


def test_in_image_boundary_points():
    # pj_healpix.py doctest boundary corpus (eps=0)
    hp = []
    for s in (1, -1):
        hp += [(-PI, s * PI / 4), (PI, s * PI / 4), (0, s * PI / 4),
               (-PI / 2, s * PI / 4), (PI / 2, s * PI / 4),
               (-3 * PI / 4, s * PI / 2), (-PI / 4, s * PI / 2),
               (PI / 4, s * PI / 2), (3 * PI / 4, s * PI / 2)]
    xs = np.array([p[0] for p in hp])
    ys = np.array([p[1] for p in hp])
    assert prj.in_healpix_image(xs, ys).all()
    assert prj.in_healpix_image(np.array([0.0]), np.array([0.0]))[0]
    assert not prj.in_healpix_image(np.array([0.0]), np.array([PI / 4 + 0.1]))[0]
    # rHEALPix (ns=ss=0) corpus, pj_rhealpix.py:425-446
    rhp = [(-PI, PI / 4), (-PI, 3 * PI / 4), (-PI / 2, 3 * PI / 4),
           (-PI / 2, PI / 4), (PI, PI / 4), (PI, -PI / 4),
           (-PI / 2, -PI / 4), (-PI / 2, -3 * PI / 4), (-PI, -3 * PI / 4),
           (-PI, -PI / 4)]
    xs = np.array([p[0] for p in rhp])
    ys = np.array([p[1] for p in rhp])
    assert prj.in_rhealpix_image(xs, ys).all()
    assert not prj.in_rhealpix_image(np.array([0.0]), np.array([PI / 4 + 0.1]))[0]


@pytest.mark.parametrize("cfg", [WGS84_003, UNIT_003, EngineConfig(north_square=1, south_square=2)])
def test_forward_inverse_roundtrip(cfg):
    rng = np.random.default_rng(42)
    lon = rng.uniform(-180, 180, 4000)
    lat = rng.uniform(-89.9, 89.9, 4000)
    x, y = prj.forward(cfg, lon, lat)
    lam, phi, ok = prj.inverse(cfg, x, y)
    assert ok.all()
    assert np.max(np.abs(lam - lon)) < 1e-9
    assert np.max(np.abs(phi - lat)) < 1e-9


def test_xyz_golden():
    # ellipsoids.py:335-337 — unit sphere xyz(0, 45)
    x, y, z = prj.xyz(UNIT_003, np.array([0.0]), np.array([45.0]))
    assert abs(float(x[0]) - 0.7071067811865476) < 1e-15
    assert y[0] == 0.0
    assert abs(float(z[0]) - 0.7071067811865476) < 1e-15


def test_projection_image_outlines():
    # pj_healpix.py:226-250 / pj_rhealpix.py:473-508
    import math

    from rhealpixdggs_py_ray.core import projection as prj

    hv = prj.healpix_vertices()
    assert len(hv) == 18
    assert hv[0] == (math.pi, math.pi / 4)
    rv = prj.rhealpix_vertices(0, 0)
    # ns=0/ss=0 removes two degenerate seam points per cap: 12 - 4
    assert len(rv) == 8
    import numpy as np

    x = np.array([p[0] for p in rv])
    y = np.array([p[1] for p in rv])
    assert prj.in_rhealpix_image(x, y).all()
    assert len(prj.rhealpix_vertices(1, 2)) == 12


def test_radians_oracle_sql_parity():
    """The radians-config SQL chains (forward cell_from_point with
    dyadic-exact radian inputs; inverse nucleus geometry) match the
    engine bit-for-bit — pins the projection_sql/inverse_sql radians
    branches outside the driver sweep."""
    import duckdb

    from rhealpixdggs_py_ray import oracle
    from rhealpixdggs_py_ray.core import index as idx
    from rhealpixdggs_py_ray.core import suid as su
    from rhealpixdggs_py_ray.core.config import WGS84_003_RADIANS as RCFG

    # forward: 500 dyadic radian points
    ids = np.arange(500, dtype=np.int64)
    lon = -3.0 + 6.0 * ((ids * 73 % 256) / 256.0)
    lat = -1.5 + 3.0 * ((ids * 151 % 512) / 512.0)
    u = idx.cell_from_point(RCFG, 6, lon, lat, plane=False)
    eng = su.to_string_fixed(u, 6).to_pylist()
    pts = (
        "SELECT k AS pid,"
        " -3.0 + 6.0 * (CAST(k * 73 % 256 AS DOUBLE) / 256.0) AS lon,"
        " -1.5 + 3.0 * (CAST(k * 151 % 512 AS DOUBLE) / 512.0) AS lat"
        " FROM (SELECT unnest(generate_series(0, 499)) AS k)"
    )
    sql = oracle.cell_from_point_sql(pts, 6, RCFG, id_cols=("pid",))
    got = [r[0] for r in duckdb.connect().execute(
        f"SELECT cell_id FROM {sql} t ORDER BY pid").fetchall()]
    assert got == eng

    # inverse: res-2 nucleus geometry in radians
    b = RCFG.N_side**2
    total, base = 6 * b**2, 6 * (b**2 - 1) // (b - 1)
    uu = su.suid_from_level_order_index(np.arange(total) + base, RCFG)
    nlon, nlat = idx.nucleus(RCFG, uu, plane=False)
    eng2 = sorted(zip(
        su.to_string_fixed(uu, 2).to_pylist(),
        np.floor(nlon * 1e6).astype(np.int64),
        np.floor(nlat * 1e6).astype(np.int64),
    ))
    got2 = sorted(
        (r[0], int(r[1]), int(r[2]))
        for r in duckdb.connect().execute(
            f"SELECT cell_id, nuc_lon_micros, nuc_lat_micros FROM"
            f" ({oracle.cell_geometry_sql(2, RCFG)}) t").fetchall()
    )
    assert [(a, int(x), int(y)) for a, x, y in eng2] == got2


def test_projection_dispatch_wrapper():
    """core.projection_dispatch.Projection: named dispatch matches the
    kernels; roundtrip closes; unknown names raise an ImportError that
    names pyproj (absent in this sandbox)."""
    import numpy as np
    import pytest

    from rhealpixdggs_py_ray.core import projection as proj
    from rhealpixdggs_py_ray.core.config import WGS84_003
    from rhealpixdggs_py_ray.core.projection_dispatch import Projection

    lon = np.array([-123.4, 0.37, 71.2])
    lat = np.array([22.1, -45.6, 3.3])
    p = Projection(WGS84_003, "rhealpix")
    x, y = p(lon, lat)
    xe, ye = proj.forward(WGS84_003, lon, lat)
    assert np.array_equal(x, xe) and np.array_equal(y, ye)
    lon2, lat2 = p(x, y, inverse=True)
    assert np.allclose(lon2, lon, atol=1e-9)
    assert np.allclose(lat2, lat, atol=1e-9)
    # scalar in -> scalar out (the reference accepts scalars)
    xs, ys = p(-123.4, 22.1)
    assert xs == x[0] and ys == y[0]
    # healpix dispatch
    ph = Projection(WGS84_003, "healpix")
    xh, yh = ph(lon, lat)
    xhe, yhe = proj.forward(WGS84_003, lon, lat, proj="healpix")
    assert np.array_equal(xh, xhe) and np.array_equal(yh, yhe)
    # non-homemade projection needs pyproj, which this sandbox lacks
    with pytest.raises(ImportError, match="pyproj"):
        Projection(WGS84_003, "utm")
