"""Bit-exactness goldens for the point kernel and the cover walk.

Pins SHA-256 digests of the output bytes of ``index.cell_from_point``
(res 0-14, planar and lon/lat), ``projection.forward``/``inverse``,
``index.shape_of`` (every cell at res 0-5), ``index.centroid`` (lon/lat,
every cell at res 0-4), ``cover._east_west_vec`` (every non-cap cell at
res 1-4) and ``wrappers.polyfill_u64`` (res 0-5, two boxes), over
seeded points plus seam, pole, face-edge, ``asin(2/3)``-band and
off-grid points.  A few dozen literal rows sit
next to the digests so that a failure also shows a readable diff.

Needs neither the reference library nor Ray.  The goldens were taken
from the engine before its branch-local kernel rewrite, the centroid
digests before ``centroid`` dropped its second ``nucleus`` call on quad
cells (CHANGES.md names both commits); an optimisation must keep every digest.  Only an
intended output change may regenerate them:

    python tests/test_kernel_goldens.py > goldens.txt

prints the GOLDEN dict and the LITERALS dict as Python source.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rhealpixdggs_py_ray.core import cover as cov  # noqa: E402
from rhealpixdggs_py_ray.core import geometry as geo  # noqa: E402
from rhealpixdggs_py_ray.core import index as idx  # noqa: E402
from rhealpixdggs_py_ray.core import projection as prj  # noqa: E402
from rhealpixdggs_py_ray.core import suid as su  # noqa: E402
from rhealpixdggs_py_ray.core import wrappers as W  # noqa: E402
from rhealpixdggs_py_ray.core.config import (  # noqa: E402
    UNIT_003,
    WGS84_002,
    WGS84_003,
    WGS84_003_RADIANS,
    WGS84_123,
    EngineConfig,
)
from rhealpixdggs_py_ray.core.utils import auth_lat  # noqa: E402
from rhealpixdggs_py_ray.fixtures import splitmix64  # noqa: E402

CONFIGS = {
    "WGS84_003": WGS84_003,
    "WGS84_003_RADIANS": WGS84_003_RADIANS,
    "WGS84_002": WGS84_002,
    "WGS84_123": WGS84_123,
    "UNIT_003": UNIT_003,
    # f > 1/150 takes auth_lat's direct formula, not the series.
    "FLAT_003": EngineConfig(f=1 / 100),
}
N_SEEDED = 12_000
POINT_RES = range(15)
SHAPE_RES = range(6)
CENTROID_RES = range(5)
WALK_RES = range(1, 5)
COVER_RES = range(6)

# The mid-latitude band box of the index_kernel benchmark, and a box
# inside the north polar face (skew and dart cells on its walk).
BAND = geo.Polygon([(-150.0, 55.0), (150.0, 55.0), (150.0, -40.0), (-150.0, -40.0)])
NORTH_BOX = geo.Polygon([(-120.0, 80.0), (60.0, 80.0), (60.0, 50.0), (-120.0, 50.0)])
BOXES = {"band": BAND, "north": NORTH_BOX}
inf = math.inf  # off-grid inverse rows print as inf in LITERALS


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _uniform_pairs(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded uniform columns in [0, 1) from splitmix64."""
    z = splitmix64(np.arange(offset, offset + n, dtype=np.uint64))
    u = (z >> np.uint64(32)).astype(np.float64) / 2**32
    v = (z & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2**32
    return u, v


def _with_neighbours(vals) -> list[float]:
    """Each value plus its float64 neighbours on both sides."""
    out = []
    for v in vals:
        v = float(v)
        out += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return out


def lonlat_points(cfg: EngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded points over the whole sphere, then a grid of seam, pole,
    face-edge and asin(2/3)-band longitudes x latitudes."""
    half = cfg.pi()
    u, v = _uniform_pairs(N_SEEDED, 1 << 20)
    lon = -half + 2 * half * u
    lat = np.arcsin(2 * v - 1) * (half / math.pi)
    band = math.asin(2 / 3)
    geodetic_band = float(auth_lat(np.array([band]), cfg, inverse=True, radians=True)[0])
    unit = half / math.pi
    lons = _with_neighbours([f * half for f in (-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1)])
    lons += [1.5 * half, -1.25 * half, 2.5 * half]  # wrapped on input
    lats = _with_neighbours(
        [s * x for s in (-1, 1) for x in (half / 2, band * unit, geodetic_band * unit, half / 4)]
    )
    lats += [0.0, 0.6 * half, -0.7 * half]  # past the poles: reflected
    glon, glat = np.meshgrid(np.array(lons), np.array(lats), indexing="ij")
    return np.concatenate([lon, glon.ravel()]), np.concatenate([lat, glat.ravel()])


def plane_points(cfg: EngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded planar points over a box slightly larger than the image
    (so some are off-grid), then a grid on and next to every face edge."""
    R = cfg.R_A
    pi = math.pi
    u, v = _uniform_pairs(N_SEEDED, 1 << 21)
    x = R * pi * (2 * u - 1) * 1.02
    y = R * (3 * pi / 4) * (2 * v - 1) * 1.02
    xs = _with_neighbours([R * (k * pi / 4) for k in range(-4, 5)] + [R * -pi, R * (-pi / 2)])
    ys = _with_neighbours(
        [R * pi / 4, -R * pi / 4, R * 3 * pi / 4, -R * 3 * pi / 4, R * pi / 2, -R * pi / 2, 0.0]
    )
    gx, gy = np.meshgrid(np.array(xs), np.array(ys), indexing="ij")
    return np.concatenate([x, gx.ravel()]), np.concatenate([y, gy.ravel()])


def all_cells(N: int, res: int) -> np.ndarray:
    """Every cell of the grid at ``res``, in packed order."""
    k = np.arange((N * N) ** res, dtype=np.int64)
    digits = np.empty((k.size, res), dtype=np.int64)
    for i in range(res - 1, -1, -1):
        digits[:, i] = k % (N * N)
        k = k // (N * N)
    per_face = [su.pack(np.full(digits.shape[0], f), digits, res) for f in range(6)]
    return np.concatenate(per_face)


def _cell_digests():
    for name, cfg in CONFIGS.items():
        for mode, pts in (("lonlat", lonlat_points(cfg)), ("plane", plane_points(cfg))):
            for r in POINT_RES:
                u = idx.cell_from_point(cfg, r, pts[0], pts[1], plane=mode == "plane")
                yield f"cell_from_point/{name}/{mode}/r{r:02d}", _digest(u)


def _projection_digests():
    for name, cfg in CONFIGS.items():
        lon, lat = lonlat_points(cfg)
        for proj in ("rhealpix", "healpix"):
            yield f"forward/{name}/{proj}", _digest(*prj.forward(cfg, lon, lat, proj=proj))
        x, y = plane_points(cfg)
        for proj in ("rhealpix", "healpix"):
            yield f"inverse/{name}/{proj}", _digest(*prj.inverse(cfg, x, y, proj=proj))


def _shape_digests():
    for name in ("WGS84_003", "WGS84_002"):
        cfg = CONFIGS[name]
        for r in SHAPE_RES:
            yield f"shape_of/{name}/r{r}", _digest(idx.shape_of(cfg, all_cells(cfg.N_side, r)))


def _centroid_digests():
    for name in ("WGS84_003", "WGS84_002"):
        cfg = CONFIGS[name]
        for r in CENTROID_RES:
            u = all_cells(cfg.N_side, r)
            yield f"centroid/{name}/r{r}", _digest(*idx.centroid(cfg, u, plane=False))


def _east_west_digests():
    for name in ("WGS84_003", "WGS84_002", "WGS84_123", "WGS84_003_RADIANS"):
        cfg = CONFIGS[name]
        for r in WALK_RES:
            u = all_cells(cfg.N_side, r)
            u = u[idx.shape_of(cfg, u) != idx.SHAPE_CAP]
            yield f"east_west/{name}/r{r}", _digest(*cov._east_west_vec(cfg, u))


def _polyfill_digests():
    for box, poly in BOXES.items():
        for r in COVER_RES:
            u = W.polyfill_u64(poly, r, plane=False, cfg=WGS84_003)
            yield f"polyfill_u64/{box}/r{r}", _digest(u)


SECTIONS = {
    "cell_from_point": _cell_digests,
    "centroid": _centroid_digests,
    "projection": _projection_digests,
    "shape_of": _shape_digests,
    "east_west": _east_west_digests,
    "polyfill_u64": _polyfill_digests,
}
# Golden key prefixes each section yields.
_SECTION_KEYS = {
    "cell_from_point": ("cell_from_point",),
    "centroid": ("centroid",),
    "projection": ("forward", "inverse"),
    "shape_of": ("shape_of",),
    "east_west": ("east_west",),
    "polyfill_u64": ("polyfill_u64",),
}


def _strs(u) -> list[str]:
    return [s if int(c) != int(idx.INVALID) else "INVALID"
            for s, c in zip(su.to_string(np.where(u == idx.INVALID, 0, u)), u)]


def literal_rows() -> dict[str, list]:
    """Readable rows drawn from the digested outputs."""
    cfg = WGS84_003
    lon, lat = lonlat_points(cfg)
    pick = np.r_[0:6, N_SEEDED:lon.size:97]
    lon, lat = lon[pick], lat[pick]
    x, y = plane_points(cfg)
    pk = np.r_[0:4, N_SEEDED:x.size:23]
    x, y = x[pk], y[pk]
    fx, fy = prj.forward(cfg, lon, lat)
    ilon, ilat, ivalid = prj.inverse(cfg, x, y)
    walk = all_cells(3, 2)
    walk = walk[idx.shape_of(cfg, walk) != idx.SHAPE_CAP][::13]
    east, west = cov._east_west_vec(cfg, walk)
    shapes = all_cells(3, 2)[::17]
    band = W.polyfill_u64(BAND, 1, plane=False, cfg=cfg)
    north = W.polyfill_u64(NORTH_BOX, 2, plane=False, cfg=cfg)
    return {
        "cell_from_point_lonlat_r9": [
            (a, b, s) for a, b, s in zip(
                lon.tolist(), lat.tolist(), _strs(idx.cell_from_point(cfg, 9, lon, lat, plane=False)))
        ],
        "cell_from_point_plane_r5": [
            (a, b, s) for a, b, s in zip(
                x.tolist(), y.tolist(), _strs(idx.cell_from_point(cfg, 5, x, y)))
        ],
        "forward": list(zip(lon.tolist(), lat.tolist(), fx.tolist(), fy.tolist())),
        "inverse": list(zip(x.tolist(), y.tolist(), ilon.tolist(), ilat.tolist(), ivalid.tolist())),
        "shape_of_r2": list(zip(_strs(shapes), [idx.SHAPE_NAMES[s] for s in idx.shape_of(cfg, shapes)])),
        "east_west_r2": list(zip(_strs(walk), _strs(east), _strs(west))),
        "polyfill_band_r1": _strs(band),
        "polyfill_north_r2": _strs(north),
    }


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_digests_match_goldens(section):
    got = dict(SECTIONS[section]())
    want = {k: v for k, v in GOLDEN.items() if k.split("/")[0] in _SECTION_KEYS[section]}
    assert got == want


@pytest.fixture(scope="module")
def literals():
    return literal_rows()


@pytest.mark.parametrize("name", [
    "cell_from_point_lonlat_r9", "cell_from_point_plane_r5", "forward", "inverse",
    "shape_of_r2", "east_west_r2", "polyfill_band_r1", "polyfill_north_r2",
])
def test_literal_rows(literals, name):
    assert literals[name] == LITERALS[name]


def test_goldens_cover_every_point_kernel_input():
    """The grids hold the edge cases the digests are meant to pin."""
    for cfg in (WGS84_003, WGS84_123):
        x, y = plane_points(cfg)
        for r in (0, 9):
            u = idx.cell_from_point(cfg, r, x, y)
            assert (u == idx.INVALID).any() and (u != idx.INVALID).any()
            assert set(su.face_of(u[u != idx.INVALID]).tolist()) == set(range(6))
    lon, lat = lonlat_points(WGS84_003)
    assert {-180.0, 180.0} <= set(lon.tolist()) and {-90.0, 90.0} <= set(lat.tolist())


GOLDEN: dict[str, str] = {
    'cell_from_point/WGS84_003/lonlat/r00': '14bacc01eb169b4b27efdf4b5e3e007f372f6cd5cf97eb8f3328efff5ca49254',
    'cell_from_point/WGS84_003/lonlat/r01': '2106fefddcc9f3e9108acee0008443dd9d62e2e6dfb3e949af1f9e279a3a2bb5',
    'cell_from_point/WGS84_003/lonlat/r02': 'e47ca6baa9fed0fa5d7956daf4f8e7fdeee54b2ed3277f1bf45a0d092b7953ed',
    'cell_from_point/WGS84_003/lonlat/r03': '52329cdc1b4bddd9d3274aab966e9545a299500c71befd6a0e77c88c5ae9f763',
    'cell_from_point/WGS84_003/lonlat/r04': '0dc27f1974b9b9e56cea9418ab92ad71ea4b61aa2dc6dc2b3d0ecb5fccc0f1c3',
    'cell_from_point/WGS84_003/lonlat/r05': '23dcc497d61803296c89866b48caccf2fb1752fb520742f7d65a9127d6cc61d2',
    'cell_from_point/WGS84_003/lonlat/r06': '90c502d6e9e1d54b43b439b547cb3e0909567d937e8564dd5556e625b0dc13ae',
    'cell_from_point/WGS84_003/lonlat/r07': 'e73be9a20c39640a4fca2ff4c2803971420e2a7e93a9ae821058be87127260fb',
    'cell_from_point/WGS84_003/lonlat/r08': '5c215b4386cff5b61cd242950e1f80d458db776e781f361d76f49e9f89a965c9',
    'cell_from_point/WGS84_003/lonlat/r09': 'b8e3210bc4bc576ad2f04cc410ccd7908ba8272bc8c013b1d1be1de1c78c273a',
    'cell_from_point/WGS84_003/lonlat/r10': '1ee825bc3725489ac757cebc85c40940efe1f43910e70cd5ae2ca72b1b93ebeb',
    'cell_from_point/WGS84_003/lonlat/r11': '12d31fed9b8a2590c4527bd9183ffbf450f895cf03164910bebcb8d81a653d82',
    'cell_from_point/WGS84_003/lonlat/r12': '4f37e5abaa428a52469939670e1d7f1addbe57365f26e5f39619ca45f270ce4b',
    'cell_from_point/WGS84_003/lonlat/r13': 'd8ae65f17c91689af8fccb2d33553fa5ff6d552650c2cf840519905ed815d6a6',
    'cell_from_point/WGS84_003/lonlat/r14': '9dc5b9fdebd55c82730c6cd3210d1fd05c949f3bce9dbdf11f91a1a71e223877',
    'cell_from_point/WGS84_003/plane/r00': '72081337606d1d5e9d4e09fbbaf1b96b88ac17b0a6c342c86d9fef71d57f5de0',
    'cell_from_point/WGS84_003/plane/r01': '6e59a58fb446cb6be6b267653304043c7631ea8e8f0299d5ff589c929e9ed856',
    'cell_from_point/WGS84_003/plane/r02': '257514d3552b1d986cc14a95a606b18576edf71ab88140fd64807c9e14cbe472',
    'cell_from_point/WGS84_003/plane/r03': '48937613659ceeccdfbbeb97b22c87bef8e9406a575dd58f7de3cf6a2618b113',
    'cell_from_point/WGS84_003/plane/r04': '1fc5a7f8b227224d1754c9c5120bb8e7839ba73fbcf5c4f6db9c3f906d1dd33d',
    'cell_from_point/WGS84_003/plane/r05': 'c8ac851e038a6aefdfccb352c7b828ae1037d4366428b4f13fa3e851d8c014b4',
    'cell_from_point/WGS84_003/plane/r06': 'f4a60bba1a205904d72cb84d09a7181dbf6817a234ca56b57dabd7b59cdd1fe8',
    'cell_from_point/WGS84_003/plane/r07': 'b1bf78994af7ac30f2754d9539144eede8ca26e8d95838480713cd90e3e46750',
    'cell_from_point/WGS84_003/plane/r08': 'e31fae02869da263c0e69d5ccaf1b7c46ba78c6e7647b950982b20c453d62c9f',
    'cell_from_point/WGS84_003/plane/r09': '8f713ad75b0efdbce374441199c3749eefaaa5a64f6bd480de4e41098b500b1f',
    'cell_from_point/WGS84_003/plane/r10': 'f39b9c3d75bb25db9706a709185c759f19f283749e9244fb9c48523c9ee9fd56',
    'cell_from_point/WGS84_003/plane/r11': 'b0edf1744ea0242d3b9cfd64725726589d3c2a6e7ac055d2ae12ef9dae467787',
    'cell_from_point/WGS84_003/plane/r12': '0cb1bb81e3edeb9baa3a5cbb1730f991b7166beb5f7e603427cb491c1f8d0b37',
    'cell_from_point/WGS84_003/plane/r13': '4be14529f077caad865ea6ad5c3053531edcdf9f4e3450320726ab0130157840',
    'cell_from_point/WGS84_003/plane/r14': '80550886f5692fcdd723f4e953c8c92f1070261453a19e907d86d83ffc328b91',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r00': '9152cd5070f4ec16cecf76183cd28758ccebf8cb7525dca816ae7f1de339916d',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r01': '98778e5f3e2288dfa305a8ab9c95b37ffb2d8c828d8726415eea27569772fd23',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r02': 'a0c42c55263fa493b0dc6029bcd5bf514054845d31b48ebabe2e656beaa9e00e',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r03': 'daffa26a01dad7c7a7b54d53837ef2d8221ccd06c53bb63730802051e01dc1b9',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r04': '38ab080807bb702fc2ffcd0c8d70165bde3e3f2c86f7fc5ca6f3cf5acd54b970',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r05': '008de17af804c6658c2294dce231ac1df4669ea3ad785d8b50616514e73b064b',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r06': '7cb9a9d92867dae2a8f55406237c65eb5540bfc33e403d57922ce5c90f823225',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r07': 'cf17f40b139abd4acbcae9a60339f3cdde7ac25f711b5db71a69957baadc2d10',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r08': '4b6315abcc0b00f471a733fb9a33a9b4d2ff8d14932d9d172baf87ef52b1d7d5',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r09': '98c927c88eb31e489a77e126b4845f1564da5739bec4868742ec7bb7f2889b6b',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r10': 'ab44586000faf9c13fd6f59892e8219eecc7dff95b394857ba94aa33e228e637',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r11': '069305c3dfdb9bc23d7e4e2b0d1cdc3f8ebf6feb63a80eb3a183fe9c0d7c1bda',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r12': '9353b2139c3458fa467f2533a9c7b2e3d732f319aa5a380cdc0313619e406fc2',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r13': 'a7e6f5e205d8826f90bd912c46cedffd24ecaf2a602525a858d3080fd8d70a2c',
    'cell_from_point/WGS84_003_RADIANS/lonlat/r14': '3a19c55ddfc022f6fb59524cece6b460ae82ab82f8fc4b9176943d94c6bf9f93',
    'cell_from_point/WGS84_003_RADIANS/plane/r00': '72081337606d1d5e9d4e09fbbaf1b96b88ac17b0a6c342c86d9fef71d57f5de0',
    'cell_from_point/WGS84_003_RADIANS/plane/r01': '6e59a58fb446cb6be6b267653304043c7631ea8e8f0299d5ff589c929e9ed856',
    'cell_from_point/WGS84_003_RADIANS/plane/r02': '257514d3552b1d986cc14a95a606b18576edf71ab88140fd64807c9e14cbe472',
    'cell_from_point/WGS84_003_RADIANS/plane/r03': '48937613659ceeccdfbbeb97b22c87bef8e9406a575dd58f7de3cf6a2618b113',
    'cell_from_point/WGS84_003_RADIANS/plane/r04': '1fc5a7f8b227224d1754c9c5120bb8e7839ba73fbcf5c4f6db9c3f906d1dd33d',
    'cell_from_point/WGS84_003_RADIANS/plane/r05': 'c8ac851e038a6aefdfccb352c7b828ae1037d4366428b4f13fa3e851d8c014b4',
    'cell_from_point/WGS84_003_RADIANS/plane/r06': 'f4a60bba1a205904d72cb84d09a7181dbf6817a234ca56b57dabd7b59cdd1fe8',
    'cell_from_point/WGS84_003_RADIANS/plane/r07': 'b1bf78994af7ac30f2754d9539144eede8ca26e8d95838480713cd90e3e46750',
    'cell_from_point/WGS84_003_RADIANS/plane/r08': 'e31fae02869da263c0e69d5ccaf1b7c46ba78c6e7647b950982b20c453d62c9f',
    'cell_from_point/WGS84_003_RADIANS/plane/r09': '8f713ad75b0efdbce374441199c3749eefaaa5a64f6bd480de4e41098b500b1f',
    'cell_from_point/WGS84_003_RADIANS/plane/r10': 'f39b9c3d75bb25db9706a709185c759f19f283749e9244fb9c48523c9ee9fd56',
    'cell_from_point/WGS84_003_RADIANS/plane/r11': 'b0edf1744ea0242d3b9cfd64725726589d3c2a6e7ac055d2ae12ef9dae467787',
    'cell_from_point/WGS84_003_RADIANS/plane/r12': '0cb1bb81e3edeb9baa3a5cbb1730f991b7166beb5f7e603427cb491c1f8d0b37',
    'cell_from_point/WGS84_003_RADIANS/plane/r13': '4be14529f077caad865ea6ad5c3053531edcdf9f4e3450320726ab0130157840',
    'cell_from_point/WGS84_003_RADIANS/plane/r14': '80550886f5692fcdd723f4e953c8c92f1070261453a19e907d86d83ffc328b91',
    'cell_from_point/WGS84_002/lonlat/r00': '14bacc01eb169b4b27efdf4b5e3e007f372f6cd5cf97eb8f3328efff5ca49254',
    'cell_from_point/WGS84_002/lonlat/r01': '8168291fda7d7351ef8278f25298c72be71517a2ee5cad1f63d637aad48ae407',
    'cell_from_point/WGS84_002/lonlat/r02': '89ba1b01bda77d4134aa854cf3803f52f0bd96ec1c20cb330234abdb1e76f5c6',
    'cell_from_point/WGS84_002/lonlat/r03': 'c7ca4b36c6652c260782ba2c3b4dfc8c3a0945e63dd8e61e37b6042e8bada90f',
    'cell_from_point/WGS84_002/lonlat/r04': '1918ec1c638f4e864a8264caec5ca7a97c7e5cf689d01451af9e33f7611a38c2',
    'cell_from_point/WGS84_002/lonlat/r05': '6525491171f9b9550641059ae74a185ea5bf540ff53acf82c2091ff046d2d538',
    'cell_from_point/WGS84_002/lonlat/r06': 'ccea712bbb7608a9a46dc0462061e9ccd974a2a534a753cef18e05602cd4810c',
    'cell_from_point/WGS84_002/lonlat/r07': '51a6a849c229acff3d174c3b6859207fdf6c111878aed7f699e5fff1460a76e8',
    'cell_from_point/WGS84_002/lonlat/r08': 'bdd5f51ddc02f561a8f6d59b92841d789549e7eea1d94b46f02df67495f79c56',
    'cell_from_point/WGS84_002/lonlat/r09': '9426c492776c36f9fff0c0d5ca39ff47185451f153a3e29e2d469756bdcf7e3e',
    'cell_from_point/WGS84_002/lonlat/r10': '2747f04bc4351cb3896c09455962d8aa7f928873ef84cdd2b60289204d6da0c5',
    'cell_from_point/WGS84_002/lonlat/r11': 'd578314c4c6f78c3e9d4cb953fc46381e71e96788f4da669b7f4e1931fe784a0',
    'cell_from_point/WGS84_002/lonlat/r12': '551bbaa521c8567c9febcc0b4d07f08e619036de11e9f8dccf883d1be45056d5',
    'cell_from_point/WGS84_002/lonlat/r13': '7560740554022e810d6b74042b2f3314419148600575c8bea2959c21d75291c0',
    'cell_from_point/WGS84_002/lonlat/r14': '924511f21fa7d0bec5483933dc12b10e704f66e619a5d4e584ebb3159a3edee0',
    'cell_from_point/WGS84_002/plane/r00': '72081337606d1d5e9d4e09fbbaf1b96b88ac17b0a6c342c86d9fef71d57f5de0',
    'cell_from_point/WGS84_002/plane/r01': '5f6bf70e6cc750fc1bcf23f3f21dd65ce4ffddc8e87729103c5b7dfb244ca810',
    'cell_from_point/WGS84_002/plane/r02': '483e29b3c0a1b0088afeb7fcb75670f64c412d7c47e9342052702133928d3818',
    'cell_from_point/WGS84_002/plane/r03': '7c8221d7de8220a8319189654d924bb8895a6615794a623b14e510d85cd93635',
    'cell_from_point/WGS84_002/plane/r04': '332919b14c07ead3df5f0cd5f9d24af0829b4eb0bccfee3c935b2567677f6aa3',
    'cell_from_point/WGS84_002/plane/r05': '3adb38545fb136ef4069262601b0d7e8d0afbeac349ad7cd274fd105d255a0e1',
    'cell_from_point/WGS84_002/plane/r06': '7daa6e6d2e7de2d7092a4f8c8dda63fdd55cb6a09888ad5deea0b0e4d21b0c01',
    'cell_from_point/WGS84_002/plane/r07': 'bfc302bfbe07a8d54783ba44dc7f0b30da22130ac63667f266850e4b90502664',
    'cell_from_point/WGS84_002/plane/r08': '7076bfd3dda098b5c2cb68b1134a3db7dccef6262b4abf14c860e1c7f2d2ab3a',
    'cell_from_point/WGS84_002/plane/r09': '4a5b316c9ef73b5f2c7e67e0036f60b27d51f24785e358b70b7283d9f2e382b8',
    'cell_from_point/WGS84_002/plane/r10': 'f64eb30a4778eab0435564bceb56d4ebf831f9d9378102ee6ccd9f95c5855b8b',
    'cell_from_point/WGS84_002/plane/r11': '405e6f8f5b631740f09b4c84806b401143e18fe683e19444dac6c4c8b52b23ab',
    'cell_from_point/WGS84_002/plane/r12': '646d57db5f9463dfc5fd6a77509b0dfdd867f3512c492783adbefa1ba9fec917',
    'cell_from_point/WGS84_002/plane/r13': 'e74f6edaab7dd95a0da117a259815d6e521381f64a0e214dd247ce91ba31c761',
    'cell_from_point/WGS84_002/plane/r14': '13d3505198ec318ab0c4ac71c8b664400f6d7ba68250c614fd9de79043159ee9',
    'cell_from_point/WGS84_123/lonlat/r00': '14bacc01eb169b4b27efdf4b5e3e007f372f6cd5cf97eb8f3328efff5ca49254',
    'cell_from_point/WGS84_123/lonlat/r01': '987e83360f2d54d296864fcd4d018cf0160998c1f24a895d5020ada03f827794',
    'cell_from_point/WGS84_123/lonlat/r02': '075758aad9767fd137c3f3c8c3dc2ff1f9b8b97b3f5c53870432bbdcd19d003f',
    'cell_from_point/WGS84_123/lonlat/r03': 'e471b1ab48ef8b72711bca2877040a97a11381015ce691715eb41ca0421d6486',
    'cell_from_point/WGS84_123/lonlat/r04': 'afa6c741f482eaabbfa155bc9315f1720c034381711381e9c400ef01c404a759',
    'cell_from_point/WGS84_123/lonlat/r05': '29462b3abc95ebe33cc5c6995f1b03dabca2d864dcffd80f11e62280c6778d8d',
    'cell_from_point/WGS84_123/lonlat/r06': 'b4ebb6d13895baabde67b740fe4e2bc4af41d000f3d51b7715b2987ad3f7a4f7',
    'cell_from_point/WGS84_123/lonlat/r07': '1b10bfee1b2626b299a341271c7b83986a80be68eee847467c8d9f381fb6fb1e',
    'cell_from_point/WGS84_123/lonlat/r08': '1e420eae50b51542a011f552895427ad2fa17196ebbd3a3450350dcf0a85cffc',
    'cell_from_point/WGS84_123/lonlat/r09': '7fb9d1d3f31d08f5f6eaf588e54bb328d7597a6b5cbf16b7bf0f3e0d89782e24',
    'cell_from_point/WGS84_123/lonlat/r10': '8a9f477ba17201f40895daa854c55f5179ecd146b857080b7a741a3e71c11133',
    'cell_from_point/WGS84_123/lonlat/r11': '016d04781a53db52ac80d40776866b7b47f235a23257bd61230dcb62c8db6370',
    'cell_from_point/WGS84_123/lonlat/r12': '2eef364dcbb64978e5bf5fb068a02c07be44c5c1dfc39b15b01433b8b4ffc7a3',
    'cell_from_point/WGS84_123/lonlat/r13': '7d358533b89ac0ec76114c0450f7082993b771c3ba290b11c4ae134586f8596c',
    'cell_from_point/WGS84_123/lonlat/r14': 'e5ea3edab0184792e6e4c8ad5fd585ec030c0d810be4ec23b775263dacc5bd97',
    'cell_from_point/WGS84_123/plane/r00': '857f8e4bee54aace1ebe6b8724686edd9624effa752df5a8df654ae7f34f2dcc',
    'cell_from_point/WGS84_123/plane/r01': '09a131546af7e3da935ff31e81e35e9209dd66ac00a36aa4e00d1a56ed58ddc6',
    'cell_from_point/WGS84_123/plane/r02': 'b4aaa49f4d07e2bbc24b299b455a45880d3b25d6de9c2d81752946bb28eca796',
    'cell_from_point/WGS84_123/plane/r03': 'ffaf9c300a98ad9aec3b4063b6679cc36ab7d5cea656a6257864ad2a83a8b134',
    'cell_from_point/WGS84_123/plane/r04': '1599e5eeea42a52892b2394d19d61e2eacbbfea8c881f97b1bbc0754c4358877',
    'cell_from_point/WGS84_123/plane/r05': 'cdd5f1ec1ef87df84f0573616ae4546ee2b79a34fe9e1e0c82549d9622c64f68',
    'cell_from_point/WGS84_123/plane/r06': '6a93bb5dd3f1fafa99f871141aeff9f5082547f9f82121b279b4c612091dbb0e',
    'cell_from_point/WGS84_123/plane/r07': '473ccdba24d9edb1583d5bd1c551613f8de235a40fc4575d21736a83b3ad79ba',
    'cell_from_point/WGS84_123/plane/r08': '539de491c36bf33567eb7cfab51179ab783474ba8586dd1244bfd5855a177341',
    'cell_from_point/WGS84_123/plane/r09': '01241a6a52d2523c0bcd21cd189257e6f0e95fe4b19b4d6ef335e16d99728448',
    'cell_from_point/WGS84_123/plane/r10': '94ac9f98da4c91de7586baa9fa1ee25bef6cf4a2c0366af44dfc0b6a98f2cffb',
    'cell_from_point/WGS84_123/plane/r11': '5f998d5d262e4fd3a54f6cf2f73ba338f2365457753c4a8e6ca3255bdf99ffdf',
    'cell_from_point/WGS84_123/plane/r12': '31b0d414cb5a5f745721a0d8f0d3899dedebbce4cffd9a74373b20554255c90b',
    'cell_from_point/WGS84_123/plane/r13': '12b04141b65993b5bb6139dc890b397465af200a3863168cc36edc50a346d0df',
    'cell_from_point/WGS84_123/plane/r14': '4c8eb7f01b7213ddd225c66d1cd14c5408220e4256b0cd35170e3f86375831de',
    'cell_from_point/UNIT_003/lonlat/r00': '8b6706051644149881642b9cc711791b82041ca6448c642ba9c74d7187f6b63f',
    'cell_from_point/UNIT_003/lonlat/r01': 'c9ca05360bda01aae7d6fe3f201cdcbed1d4231862b27f24960f1bd290765b33',
    'cell_from_point/UNIT_003/lonlat/r02': 'f6ca68503c34c2118566c7c94978246194135c2da60f4cbd163e475113e5c1ca',
    'cell_from_point/UNIT_003/lonlat/r03': 'd79267b7cc855e191995dd26b45995f5382b3d005f7b615a0d4fa57c1a35e055',
    'cell_from_point/UNIT_003/lonlat/r04': '417c2ec6fd00f7c57fb2e8c45dc5f5eb4494bc711e2e017602a624eda9f5d158',
    'cell_from_point/UNIT_003/lonlat/r05': 'd544d8744e6955dc6a511e9a38872996cf9b740555c8edd2ebdbbed5ddca9e05',
    'cell_from_point/UNIT_003/lonlat/r06': '6d6f4b42750bb804fb2eed07b024b33dafb70aefa50fd64442f5519fd26245bd',
    'cell_from_point/UNIT_003/lonlat/r07': 'e0783c811edcc2c121f5c8d09d8a0f68aa850acb67b122fd3065c3487b25e600',
    'cell_from_point/UNIT_003/lonlat/r08': '0b57707c275ba9aeee419002669c5b716b83cd1973dce9c0cb76cf6128668809',
    'cell_from_point/UNIT_003/lonlat/r09': 'd4ad7651e7aff66d445744b03c0422e6dbbd894d7c7f4516b3f586dc26af7577',
    'cell_from_point/UNIT_003/lonlat/r10': 'ddf404c9484d5f8f95b547691f60a2d1b9572c1651c20b5d0cf98a19b6d976bb',
    'cell_from_point/UNIT_003/lonlat/r11': '4bbec539f03fd06b7dbd30eb3d36e924076a434436ea7716b8962a3abfa7df97',
    'cell_from_point/UNIT_003/lonlat/r12': '3c3ca18db2f996bd16a48c302d31e53dc504a8d3e1a76860721fa07bb957fd72',
    'cell_from_point/UNIT_003/lonlat/r13': 'c430e4e30846a3b7dca095538eb64ece22d8840e5b45a4bdffd940b8648d071c',
    'cell_from_point/UNIT_003/lonlat/r14': 'd6928634f8f738155f626227883dd12be5fc295bfd6eb58acf940736c57e7c2f',
    'cell_from_point/UNIT_003/plane/r00': '72081337606d1d5e9d4e09fbbaf1b96b88ac17b0a6c342c86d9fef71d57f5de0',
    'cell_from_point/UNIT_003/plane/r01': '6e59a58fb446cb6be6b267653304043c7631ea8e8f0299d5ff589c929e9ed856',
    'cell_from_point/UNIT_003/plane/r02': 'f29f20745c06ade0f3eda8f37c0bbcd52d5bb6f7c0cbbb9aff3b45747a1daf8b',
    'cell_from_point/UNIT_003/plane/r03': '41150e14e1f5afb48a326c25379d67125d97c4e2a19907e07de6ec6164e91c94',
    'cell_from_point/UNIT_003/plane/r04': '209bd86647131eb6893242077be3ef911fa6ecc2d1001225910840750807ce7d',
    'cell_from_point/UNIT_003/plane/r05': 'd3ec28c5b41d44bcc7977df1ae15966d701223908a19b28f70358fcd5629be04',
    'cell_from_point/UNIT_003/plane/r06': '02fb7312acb4dfc7e9b3963fd082eedaf742818ebe2a108d0b59ae57e1e65833',
    'cell_from_point/UNIT_003/plane/r07': '1abde520925fec19a55deebff93eb68570a243770604d999d67a6585e1fe253b',
    'cell_from_point/UNIT_003/plane/r08': '640eeecbeda44a45f76814cbdbff81f8a75a890021f8b7e9bc4a78cdeb2d7a3c',
    'cell_from_point/UNIT_003/plane/r09': '34e092ae8df14369138069945a9daa993ce8dd825fa47901707004ac00f2e1b0',
    'cell_from_point/UNIT_003/plane/r10': '773132b7b5e5a6f6575b2239a53e212790ac15e51d194511bb9a4a5b4b150223',
    'cell_from_point/UNIT_003/plane/r11': 'e7bd1329d711d07326bc9c61aa3dca72b1b9e8fa559158c70326a95384143bdf',
    'cell_from_point/UNIT_003/plane/r12': '6267ccf42c4aec5da7148829c6a5e7fa4fdf4116546be75d60ec599d9ac25c73',
    'cell_from_point/UNIT_003/plane/r13': '6502988fd25d36e78dc54018c75411c07ce08b324683dc7614be331d42402e7a',
    'cell_from_point/UNIT_003/plane/r14': '72203973f03f8ab438d77c99c9a3c106e7c3eb96ea880b5db434828cad49b1a7',
    'cell_from_point/FLAT_003/lonlat/r00': 'e91f4e75b23ca1395db8b12d93e7cff546ad662148fbe17f9a638c13767b0aab',
    'cell_from_point/FLAT_003/lonlat/r01': 'f2d6f29f543bb2e9443bb39ad8555c2cc227dabca81701bf1aeeeac9073c60b4',
    'cell_from_point/FLAT_003/lonlat/r02': '18a107408b3ea2fd641391e3644e71c70fcd2c2e08cb91a614d406d7b097efe7',
    'cell_from_point/FLAT_003/lonlat/r03': '43e0f88a720de8d7484a1f82e6326311cb09f8b2a290de7dd88d6d1079fefb80',
    'cell_from_point/FLAT_003/lonlat/r04': 'f7515ceb8807c48f286bfead2249d91c84b402b5a143021500ad84d79e85e257',
    'cell_from_point/FLAT_003/lonlat/r05': 'a3a9e050a89de509f2a8eb2ab313bf619bc005374cac6da0605bdfe6c1c4dd58',
    'cell_from_point/FLAT_003/lonlat/r06': '5e6a6feeb7431c82962b9e017bf3d60b007573348091d1c8bcc3279a271219e3',
    'cell_from_point/FLAT_003/lonlat/r07': '91b3e9fda39fe9e6d7d18ea4394aa74616b15bcea68f4a95b0c026ffca22c576',
    'cell_from_point/FLAT_003/lonlat/r08': 'd19a4c432920619119a7840a25a91e6cc7ab531db8308aeab873247053881032',
    'cell_from_point/FLAT_003/lonlat/r09': 'd6706a612761824379fafba11b7370f72b0798274ae877bf90d9e24b5a33c8b5',
    'cell_from_point/FLAT_003/lonlat/r10': '2717010cf3b79cbd7ec7df971f53363dbe199623c8ef34093dfa8037a99f56aa',
    'cell_from_point/FLAT_003/lonlat/r11': '57494ed5892245179f7d53c709e06a5d61aec8913b33a9d794434e0bfd414baa',
    'cell_from_point/FLAT_003/lonlat/r12': '722c7ad1e4617127039932e4cd0172ce441f38404a03d9d534684305017591b1',
    'cell_from_point/FLAT_003/lonlat/r13': '0c05b827a52c7a8ad3bfc91e2f5f62d72e34b666bb607bff05d0dfe08aa7f22c',
    'cell_from_point/FLAT_003/lonlat/r14': 'c7d7466c101a7bce9546ff6b28e66a6214bd3161f98ec7b60407e10749645ed7',
    'cell_from_point/FLAT_003/plane/r00': '72081337606d1d5e9d4e09fbbaf1b96b88ac17b0a6c342c86d9fef71d57f5de0',
    'cell_from_point/FLAT_003/plane/r01': '6e59a58fb446cb6be6b267653304043c7631ea8e8f0299d5ff589c929e9ed856',
    'cell_from_point/FLAT_003/plane/r02': '257514d3552b1d986cc14a95a606b18576edf71ab88140fd64807c9e14cbe472',
    'cell_from_point/FLAT_003/plane/r03': '48937613659ceeccdfbbeb97b22c87bef8e9406a575dd58f7de3cf6a2618b113',
    'cell_from_point/FLAT_003/plane/r04': '1fc5a7f8b227224d1754c9c5120bb8e7839ba73fbcf5c4f6db9c3f906d1dd33d',
    'cell_from_point/FLAT_003/plane/r05': 'c8ac851e038a6aefdfccb352c7b828ae1037d4366428b4f13fa3e851d8c014b4',
    'cell_from_point/FLAT_003/plane/r06': 'f4a60bba1a205904d72cb84d09a7181dbf6817a234ca56b57dabd7b59cdd1fe8',
    'cell_from_point/FLAT_003/plane/r07': 'b1bf78994af7ac30f2754d9539144eede8ca26e8d95838480713cd90e3e46750',
    'cell_from_point/FLAT_003/plane/r08': 'e31fae02869da263c0e69d5ccaf1b7c46ba78c6e7647b950982b20c453d62c9f',
    'cell_from_point/FLAT_003/plane/r09': '8f713ad75b0efdbce374441199c3749eefaaa5a64f6bd480de4e41098b500b1f',
    'cell_from_point/FLAT_003/plane/r10': 'f39b9c3d75bb25db9706a709185c759f19f283749e9244fb9c48523c9ee9fd56',
    'cell_from_point/FLAT_003/plane/r11': 'b0edf1744ea0242d3b9cfd64725726589d3c2a6e7ac055d2ae12ef9dae467787',
    'cell_from_point/FLAT_003/plane/r12': '0cb1bb81e3edeb9baa3a5cbb1730f991b7166beb5f7e603427cb491c1f8d0b37',
    'cell_from_point/FLAT_003/plane/r13': '4be14529f077caad865ea6ad5c3053531edcdf9f4e3450320726ab0130157840',
    'cell_from_point/FLAT_003/plane/r14': '80550886f5692fcdd723f4e953c8c92f1070261453a19e907d86d83ffc328b91',
    'centroid/WGS84_003/r0': '4bb15f2c1a916f5a7fc81db9cb2bd16412942dc41a3260fe9734fead16550568',
    'centroid/WGS84_003/r1': '4027df6be9a68a8fffe2c51fbf78005f0fa1f4f1dccc7c06198810764d9187f3',
    'centroid/WGS84_003/r2': '2f62f5f5ee1d3f21a4e354cfc5a4fee5d20b0aba99676958fcc7a4c3de73af3e',
    'centroid/WGS84_003/r3': 'da8832820cbe7204967f8446792e33e4e8ccb3cff08e63530cc9d4c72068da8f',
    'centroid/WGS84_003/r4': '0ba4af2b3095cf30343d5e6a2469d031901d7a8dd18a34e66b96875275ee8a47',
    'centroid/WGS84_002/r0': '4bb15f2c1a916f5a7fc81db9cb2bd16412942dc41a3260fe9734fead16550568',
    'centroid/WGS84_002/r1': '3d28e495eb8a3404d7b9d7a81c0916a79123c3e643163b66750939d3266660d0',
    'centroid/WGS84_002/r2': '94e40b159634a9c8665312dc3bb9cc461a1fc65dd4c8b4b5b43afcb83b846afa',
    'centroid/WGS84_002/r3': 'e270e5bc54edfd5b2a9f930b7fa0e3e47ecd2186f3494db86830eedf109f361c',
    'centroid/WGS84_002/r4': '014c614c24d83246d53a4c59d12bbbddbd49736e4870c8add3ad1bf3664f8417',
    'east_west/WGS84_003/r1': '7b0782cf93e238a917273c38f5c61576ed97987fef8882ac74a9c930d7ed4098',
    'east_west/WGS84_003/r2': '8df9a9c3f8a41ebc1b6d282f9f8e06e6761a5692afad908dad94da508205e0d0',
    'east_west/WGS84_003/r3': '43b3c806792cfe13346af4c779f643670f74ad1f37f1b0c42f76df36415273f9',
    'east_west/WGS84_003/r4': '74b6dee36684db6b980e81b71339e8252038fc9a341776cf1440aaafa9c7bafc',
    'east_west/WGS84_002/r1': 'b9cbf2bf0228e5c6d3f2ebce126da0ee835c963d898b44f6eaecfe4ee6458015',
    'east_west/WGS84_002/r2': '1e8b2b8dcafcd0db118957d4831e60dcc233c50525fb27035f662b2c8789bccf',
    'east_west/WGS84_002/r3': 'd41832ffebf0e44d8904245d02aac63d935b0dea88db73fcabda44eaba4641ce',
    'east_west/WGS84_002/r4': '8b7510214ea0acc7fa90c4b1eb0daa0caaa5ca5d62e7b784d0c46726e9295693',
    'east_west/WGS84_123/r1': '7b0782cf93e238a917273c38f5c61576ed97987fef8882ac74a9c930d7ed4098',
    'east_west/WGS84_123/r2': '8df9a9c3f8a41ebc1b6d282f9f8e06e6761a5692afad908dad94da508205e0d0',
    'east_west/WGS84_123/r3': '43b3c806792cfe13346af4c779f643670f74ad1f37f1b0c42f76df36415273f9',
    'east_west/WGS84_123/r4': '74b6dee36684db6b980e81b71339e8252038fc9a341776cf1440aaafa9c7bafc',
    'east_west/WGS84_003_RADIANS/r1': '7b0782cf93e238a917273c38f5c61576ed97987fef8882ac74a9c930d7ed4098',
    'east_west/WGS84_003_RADIANS/r2': '8df9a9c3f8a41ebc1b6d282f9f8e06e6761a5692afad908dad94da508205e0d0',
    'east_west/WGS84_003_RADIANS/r3': '43b3c806792cfe13346af4c779f643670f74ad1f37f1b0c42f76df36415273f9',
    'east_west/WGS84_003_RADIANS/r4': '74b6dee36684db6b980e81b71339e8252038fc9a341776cf1440aaafa9c7bafc',
    'polyfill_u64/band/r0': 'fb9b2e8e29aabe9ee1e3b237c5401da4fbd941b18630b2ef40d4ddcaf024eef8',
    'polyfill_u64/band/r1': 'b0076b8675159bf8a4a4aca85a71e134d4c390d19d7e65d2a84e4e28219b4981',
    'polyfill_u64/band/r2': 'a5b7fada7433759b2484d8103fbbb2993161f328cafbdab63fa3e5e572b65c26',
    'polyfill_u64/band/r3': '4bfff2e946cd020adfc5a4ce2b849f58f909c1b3c1644aff8f6f6eeef90f38b4',
    'polyfill_u64/band/r4': 'e1422fdd14440427e05c0ced7d2c1711164d550f9413086cc07b3f912ee74dce',
    'polyfill_u64/band/r5': '2b4c3b90db2e8f21d357a5b0a635f35a48df47bc7b47a5f3fd9f9a37a40401db',
    'polyfill_u64/north/r0': '323f9f09df39667f079dc9636c1a0d75b65ca22187aad2d8e8640f4954e453e1',
    'polyfill_u64/north/r1': 'b23229f326c7c91b4b1f256b093b60df2e7153585439d223623a6b1cc8d5f0f9',
    'polyfill_u64/north/r2': '63198420ecffa271f05a2abae0d264f09b8ab4ffd9c5f7582dce2863b351f785',
    'polyfill_u64/north/r3': '0fc9fc819c36d23b8ad11315d3ee94e7604d6b4613f097ba70582041ac3685d4',
    'polyfill_u64/north/r4': '011fd7a8fde85b31fdc4e82d9aeb6a47b7a1d375f3e0fdaeb72d5e684f3da42d',
    'polyfill_u64/north/r5': 'a53d79844d66102863a21ddc625e3cd030bfd3287a240f65aa4cee909ccf653b',
    'forward/WGS84_003/rhealpix': '5f00e720c46b141fa903778f0c178303d16dc2223d0bfb4e36aa5faa24cbd265',
    'forward/WGS84_003/healpix': '50e49c95564c77067db6805c568f7a07e0a6c0f58358ed8e339dabee63438ce8',
    'inverse/WGS84_003/rhealpix': 'b8add419f38fe8e6a90f3ce29e38b45a4b97c288b2660d5433ad601dcbbc86a8',
    'inverse/WGS84_003/healpix': '4ae2129d471490713bd11aa364a50cbb3bcbfb649bb94d7f4684acc94b75a5e5',
    'forward/WGS84_003_RADIANS/rhealpix': '8951d97aea0fbf5e156ff1329623baed7d679063e6c9fc8ce7630f5207737c19',
    'forward/WGS84_003_RADIANS/healpix': '4b378d29e44e1cac86cb09984ae6baec44dbe24cf29e2d617528727d6a499d19',
    'inverse/WGS84_003_RADIANS/rhealpix': 'eb1160e49a512ada7054106073e4a30c01a421d6310a27308d6ccf0283617194',
    'inverse/WGS84_003_RADIANS/healpix': 'd16754c58f2fbbafee0b89ed66f811b819abe372eb7f3365e95b2afb9d937363',
    'forward/WGS84_002/rhealpix': '5f00e720c46b141fa903778f0c178303d16dc2223d0bfb4e36aa5faa24cbd265',
    'forward/WGS84_002/healpix': '50e49c95564c77067db6805c568f7a07e0a6c0f58358ed8e339dabee63438ce8',
    'inverse/WGS84_002/rhealpix': 'b8add419f38fe8e6a90f3ce29e38b45a4b97c288b2660d5433ad601dcbbc86a8',
    'inverse/WGS84_002/healpix': '4ae2129d471490713bd11aa364a50cbb3bcbfb649bb94d7f4684acc94b75a5e5',
    'forward/WGS84_123/rhealpix': 'eeccd17ece434837d71c70664fac1382706b982d3018212d6ce9a4468d99db11',
    'forward/WGS84_123/healpix': '50e49c95564c77067db6805c568f7a07e0a6c0f58358ed8e339dabee63438ce8',
    'inverse/WGS84_123/rhealpix': 'ac105d15c23ab8eddbfa01b6a4aa1e0af4ca6961cd2d69097e5d57a02e0d19b0',
    'inverse/WGS84_123/healpix': '4ae2129d471490713bd11aa364a50cbb3bcbfb649bb94d7f4684acc94b75a5e5',
    'forward/UNIT_003/rhealpix': 'efcc002ca6ef4c59f4a6318a0ec55c04699ab18a2ed61146caadee468fa2c846',
    'forward/UNIT_003/healpix': '0875d7e4a92d878dc6835b5f8b317276394f3d26d0dd1780fa43d4cf4d6eb9e9',
    'inverse/UNIT_003/rhealpix': 'c1035a5e8170f4a7540d5abaa48894732b12197459d7d7692c42481f5a52a277',
    'inverse/UNIT_003/healpix': 'ceb96ea54bde78eee0be98e51cab602cbf3ec90ac4ab8c5b2ebc87e8bff715c1',
    'forward/FLAT_003/rhealpix': 'd740ffc96428d7c4276eea624f2040372c264984f9299686ae4f4eb6f91aeca8',
    'forward/FLAT_003/healpix': 'bb33954d4dac8ca6ee82af736c51c2a561b8f47fef1a4e2ae2395cecda6c0c0c',
    'inverse/FLAT_003/rhealpix': 'f6110e99cdc75eeb53de2a5ed6d815b8c93adb3f0170f161dc02c055ea9f564f',
    'inverse/FLAT_003/healpix': 'e4ebd975fde8b5fe72fef9b8fabdce87272a6fddb7608b2b3de72c4c21e60dee',
    'shape_of/WGS84_003/r0': '86adf72b45634ba391efad62c006eafaca0011e082b3ebe574f3bc1088e3b3c0',
    'shape_of/WGS84_003/r1': 'ddf7dde1fa5e645549f147440332fa12bc4c9151804e149ebfc9b5d35e2b23e8',
    'shape_of/WGS84_003/r2': '9b97f5152b04126c6ea11a6f12427d76a771716188e84e0c2c786ad4ec99e61d',
    'shape_of/WGS84_003/r3': '3631ed3fb885cdce3b9be75e57936941413505d250453dffc2b1bbf0abba3454',
    'shape_of/WGS84_003/r4': '859c505247e227e8de61e10e3c82b59e1ff9092421a35c01d28c229a48d7c171',
    'shape_of/WGS84_003/r5': '5a0f17b68e250ec7c5f2a7e4fac95353155e1156f98e423c81e8f6e2f6268542',
    'shape_of/WGS84_002/r0': '86adf72b45634ba391efad62c006eafaca0011e082b3ebe574f3bc1088e3b3c0',
    'shape_of/WGS84_002/r1': '541315529718bccf97b0927845dc2ca451868d28073172c41f1cbbd9637676cd',
    'shape_of/WGS84_002/r2': '101cf206a652cd004f61983927af419b19229fa706f70f898e3ee84f317b36b7',
    'shape_of/WGS84_002/r3': '2ad5f7a010111cbe9f7b6df7e2fa1e1071345f7ec7ce06ab6ab37b2dbaf70bd4',
    'shape_of/WGS84_002/r4': '0dce49493c73618716f0a6d7ec45c3829583ceaf089984cec2e711f196e3f352',
    'shape_of/WGS84_002/r5': 'af90eb2d5eabc0c6275a986f07f78a688e5987e20097854a0ff905f4a9eec1b1',
}

LITERALS: dict[str, list] = {
    'cell_from_point_lonlat_r9': [
        (-107.81681712716818, -87.09495996729545, 'S442366626'),
        (166.34658976458013, 31.560033559056375, 'R217883164'),
        (-44.52242656610906, -15.84659200201271, 'P714122133'),
        (63.645726665854454, 31.434127398807743, 'Q207668175'),
        (-51.27895088866353, 43.05172101232456, 'N582501061'),
        (-61.484345057979226, 13.10975526582002, 'P088775222'),
        (-180.00000000000003, -90.00000000000001, 'N444444444'),
        (-135.00000000000003, 41.810314895778596, 'O111111771'),
        (-90.0, -41.81031489577859, 'P666666006'),
        (-45.0, 44.99999999999999, 'N555345335'),
        (5e-324, -45.0, 'S888048008'),
        (45.00000000000001, -125.99999999999999, 'N141171711'),
        (134.99999999999997, 41.81031489577859, 'R111111771'),
        (180.0, -41.810314895778596, 'O666666006'),
        (-225.0, 41.93785391016015, 'R111111111'),
    ],
    'cell_from_point_plane_r5': [
        (-2727361.6357386922, 8944946.171699751, 'INVALID'),
        (-11153885.905493962, 15264897.640377142, 'INVALID'),
        (8659392.193494653, -10841142.536957368, 'INVALID'),
        (18375089.49291856, 5890869.216822637, 'INVALID'),
        (-20015109.355541304, 5003777.338885324, 'INVALID'),
        (-20015109.3555413, 5003777.338885326, 'INVALID'),
        (-20015109.355541296, -5003777.338885325, 'O66666'),
        (-15011332.016655978, 15011332.016655972, 'N11111'),
        (-15011332.016655976, 15011332.016655976, 'INVALID'),
        (-15011332.016655974, -15011332.016655974, 'INVALID'),
        (-10007554.677770652, 10007554.677770648, 'N55555'),
        (-10007554.67777065, 10007554.677770652, 'INVALID'),
        (-10007554.677770648, -10007554.67777065, 'INVALID'),
        (-5003777.338885326, -5e-324, 'P44444'),
        (-5003777.338885325, 5e-324, 'P44444'),
        (-5e-324, 5003777.338885325, 'P22222'),
        (0.0, -5003777.338885326, 'INVALID'),
        (5e-324, -5003777.338885324, 'Q66666'),
        (5003777.338885324, 15011332.016655974, 'INVALID'),
        (5003777.338885325, -15011332.016655976, 'INVALID'),
        (5003777.338885326, -15011332.016655972, 'INVALID'),
        (10007554.677770648, 10007554.67777065, 'INVALID'),
        (10007554.67777065, -10007554.677770652, 'INVALID'),
        (10007554.677770652, -10007554.677770648, 'INVALID'),
        (15011332.016655974, 0.0, 'R44444'),
        (15011332.016655978, 5003777.338885324, 'R11111'),
        (20015109.355541296, 5003777.338885326, 'INVALID'),
        (20015109.3555413, -5003777.338885325, 'INVALID'),
        (20015109.355541304, 15011332.016655972, 'INVALID'),
        (-20015109.355541304, 15011332.016655976, 'INVALID'),
        (-20015109.3555413, -15011332.016655974, 'INVALID'),
        (-20015109.355541296, 10007554.677770648, 'N33333'),
        (-10007554.677770652, 10007554.677770652, 'N55555'),
        (-10007554.67777065, -10007554.67777065, 'INVALID'),
        (-10007554.677770648, -5e-324, 'P33333'),
    ],
    'forward': [
        (-107.81681712716818, -87.09495996729545, -14822813.11088465, -9695473.829865662),
        (166.34658976458013, 31.560033559056375, 18496917.69477466, 3915632.549821562),
        (-44.52242656610906, -15.84659200201271, -4950673.536081834, -2041034.917520253),
        (63.645726665854454, 31.434127398807743, 7077089.884610933, 3901580.623927243),
        (-51.27895088866353, 43.05172101232456, -10116504.347985784, 9324568.399102839),
        (-61.484345057979226, 13.10975526582002, -6836754.944384943, 1695193.2667387256),
        (-180.00000000000003, -90.00000000000001, -15011332.016655976, 10007554.67777065),
        (-135.00000000000003, 41.810314895778596, -15011332.016655978, 4991318.158153664),
        (-90.0, -41.81031489577859, -10007554.67777065, -4991318.158153663),
        (-45.0, 44.99999999999999, -10308220.375805276, 10007554.67777065),
        (5e-324, -45.0, -10308220.375805276, -14710666.31862135),
        (45.00000000000001, -125.99999999999999, -15011332.016655976, 13807501.068672799),
        (134.99999999999997, 41.81031489577859, 15011332.016655972, 4991318.158153663),
        (180.0, -41.810314895778596, -20015109.3555413, -4991318.158153664),
        (-225.0, 41.93785391016015, 15011332.016655976, 5003777.338885325),
    ],
    'inverse': [
        (-2727361.6357386922, 8944946.171699751, inf, inf, False),
        (-11153885.905493962, 15264897.640377142, inf, inf, False),
        (8659392.193494653, -10841142.536957368, inf, inf, False),
        (18375089.49291856, 5890869.216822637, inf, inf, False),
        (-20015109.355541304, 5003777.338885324, 179.99999999999997, 41.93785391016012, True),
        (-20015109.3555413, 5003777.338885326, -180.0, 41.93785391016015, True),
        (-20015109.355541296, -5003777.338885325, -179.99999999999994, -41.93785391016014, True),
        (-15011332.016655978, 15011332.016655972, 45.00000000000003, 41.93785391016018, True),
        (-15011332.016655976, 15011332.016655976, 45.0, 41.93785391016014, True),
        (-15011332.016655974, -15011332.016655974, 44.99999999999997, -41.93785391016018, True),
        (-10007554.677770652, 10007554.677770648, -45.00000000000003, 41.93785391016015, True),
        (-10007554.67777065, 10007554.677770652, -44.999999999999986, 41.93785391016014, True),
        (-10007554.677770648, -10007554.67777065, -45.0, -41.937853910160115, True),
        (-5003777.338885326, -5e-324, -45.00000000000001, 0.0, True),
        (-5003777.338885325, 5e-324, -45.0, 0.0, True),
        (-5e-324, 5003777.338885325, 0.0, 41.93785391016014, True),
        (0.0, -5003777.338885326, -90.0, 41.93785391016014, True),
        (5e-324, -5003777.338885324, 0.0, -41.93785391016012, True),
        (5003777.338885324, 15011332.016655974, inf, inf, False),
        (5003777.338885325, -15011332.016655976, inf, inf, False),
        (5003777.338885326, -15011332.016655972, inf, inf, False),
        (10007554.677770648, 10007554.67777065, inf, inf, False),
        (10007554.67777065, -10007554.677770652, inf, inf, False),
        (10007554.677770652, -10007554.677770648, inf, inf, False),
        (15011332.016655974, 0.0, 134.99999999999997, 0.0, True),
        (15011332.016655978, 5003777.338885324, 135.00000000000003, 41.93785391016012, True),
        (20015109.355541296, 5003777.338885326, inf, inf, False),
        (20015109.3555413, -5003777.338885325, -180.0, -41.93785391016014, True),
        (20015109.355541304, 15011332.016655972, inf, inf, False),
        (-20015109.355541304, 15011332.016655976, 90.0, 41.937853910160115, True),
        (-20015109.3555413, -15011332.016655974, 90.00000000000003, -41.93785391016014, True),
        (-20015109.355541296, 10007554.677770648, 135.00000000000003, 41.9378539101602, True),
        (-10007554.677770652, 10007554.677770652, -44.999999999999986, 41.93785391016015, True),
        (-10007554.67777065, -10007554.67777065, -45.0, -41.93785391016014, True),
        (-10007554.677770648, -5e-324, -89.99999999999997, 0.0, True),
    ],
    'shape_of_r2': [
        ('N00', 'dart'),
        ('N18', 'skew_quad'),
        ('N37', 'skew_quad'),
        ('N56', 'skew_quad'),
        ('N75', 'skew_quad'),
        ('O04', 'quad'),
        ('O23', 'quad'),
        ('O42', 'quad'),
        ('O61', 'quad'),
        ('O80', 'quad'),
        ('P08', 'quad'),
        ('P27', 'quad'),
        ('P46', 'quad'),
        ('P65', 'quad'),
        ('P84', 'quad'),
        ('Q13', 'quad'),
        ('Q32', 'quad'),
        ('Q51', 'quad'),
        ('Q70', 'quad'),
        ('Q88', 'quad'),
        ('R17', 'quad'),
        ('R36', 'quad'),
        ('R55', 'quad'),
        ('R74', 'quad'),
        ('S03', 'skew_quad'),
        ('S22', 'dart'),
        ('S41', 'skew_quad'),
        ('S60', 'skew_quad'),
        ('S78', 'skew_quad'),
    ],
    'east_west_r2': [
        ('N00', 'N03', 'N01'),
        ('N14', 'N13', 'N15'),
        ('N28', 'N25', 'N52'),
        ('N43', 'N46', 'N40'),
        ('N58', 'N55', 'N82'),
        ('N73', 'N74', 'N65'),
        ('N87', 'N88', 'N86'),
        ('O12', 'O20', 'O11'),
        ('O26', 'O27', 'O18'),
        ('O41', 'O42', 'O40'),
        ('O55', 'P33', 'O54'),
        ('O70', 'O71', 'O62'),
        ('O84', 'O85', 'O83'),
        ('P08', 'P16', 'P07'),
        ('P23', 'P24', 'P15'),
        ('P37', 'P38', 'P36'),
        ('P52', 'Q30', 'P51'),
        ('P66', 'P67', 'O88'),
        ('P81', 'P82', 'P80'),
        ('Q05', 'Q13', 'Q04'),
        ('Q20', 'Q21', 'Q12'),
        ('Q34', 'Q35', 'Q33'),
        ('Q48', 'Q56', 'Q47'),
        ('Q63', 'Q64', 'P85'),
        ('Q77', 'Q78', 'Q76'),
        ('R02', 'R10', 'R01'),
        ('R16', 'R17', 'R08'),
        ('R31', 'R32', 'R30'),
        ('R45', 'R53', 'R44'),
        ('R60', 'R61', 'Q82'),
        ('R74', 'R75', 'R73'),
        ('R88', 'O66', 'R87'),
        ('S13', 'S14', 'S05'),
        ('S27', 'S51', 'S24'),
        ('S42', 'S45', 'S41'),
        ('S57', 'S81', 'S54'),
        ('S72', 'S71', 'S80'),
        ('S86', 'S78', 'S87'),
    ],
    'polyfill_band_r1': [
        'N0',
        'N2',
        'N8',
        'O1',
        'O2',
        'O4',
        'O5',
        'O7',
        'O8',
        'P0',
        'P1',
        'P2',
        'P3',
        'P4',
        'P5',
        'P6',
        'P7',
        'P8',
        'Q0',
        'Q1',
        'Q2',
        'Q3',
        'Q4',
        'Q5',
        'Q6',
        'Q7',
        'Q8',
        'R0',
        'R1',
        'R3',
        'R4',
        'R6',
        'R7',
    ],
    'polyfill_north_r2': [
        'N14',
        'N15',
        'N17',
        'N18',
        'N23',
        'N24',
        'N26',
        'N27',
        'N41',
        'N42',
        'N45',
        'N48',
        'N50',
        'N51',
        'N53',
        'N54',
        'N56',
        'N57',
        'N72',
        'N75',
        'N80',
        'N81',
        'N83',
        'N84',
    ],
}


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for section in sorted(SECTIONS):
        for key, dig in SECTIONS[section]():
            print(f"    {key!r}: {dig!r},")
    print("}\n")
    print("LITERALS: dict[str, list] = {")
    for name, rows in literal_rows().items():
        print(f"    {name!r}: [")
        for row in rows:
            print(f"        {row!r},")
        print("    ],")
    print("}")
