"""Engine configuration: ellipsoid + rHEALPix DGGS parameterization.

Replaces the reference's ``Ellipsoid`` (ellipsoids.py:41-350) and
``RHEALPixDGGS.__init__`` precomputations (dggs.py:215-350) with one
frozen, picklable config object whose derived lookup tables are plain
numpy arrays.  A config instance is tiny (<10 KB) and is closure-captured
or held in actor state by every Ray stage; nothing here is mutated at
run time (the reference's ``Cell.neighbors`` lon_0 mutation hazard,
cell.py:1399-1445, is deliberately not reproduced).

All math follows the published formulas: authalic radius/latitude from
the power series of arXiv:2212.05818 (reference utils.py:116-380), grid
layout from [GRS2013].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Face letters of the six resolution-0 cells, in canonical order
# (reference cell.py:11).  Face index f in [0, 6) <-> letter CELLS0[f].
CELLS0 = ("N", "O", "P", "Q", "R", "S")
FACE_INDEX = {c: i for i, c in enumerate(CELLS0)}

# Planar direction encoding used throughout the engine.
DIRECTIONS = ("up", "right", "down", "left")
UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3
DIR_INDEX = {d: i for i, d in enumerate(DIRECTIONS)}

# WGS84 defining constants (identical values to the reference's pyproj
# lookup, ellipsoids.py:33-38).
WGS84_A = 6378137.0
WGS84_F = 1 / 298.257223563


def auth_rad(a: float, e: float, inverse: bool = False) -> float:
    """Authalic-sphere radius of an ellipsoid (reference utils.py:346-380)."""
    if e == 0:
        return a
    k = math.sqrt(0.5 * (1 - (1 - e**2) / (2 * e) * math.log((1 - e) / (1 + e))))
    return a * k if not inverse else a / k


def _auth_lat_coeffs_forward(n: float) -> tuple[float, ...]:
    """sin(2k*phi) coefficients of the forward authalic-latitude series
    (eq. A19 of arXiv:2212.05818; reference utils.py:178-255), evaluated
    with the identical nested (Horner-in-n) arithmetic so scalar results
    are bit-for-bit equal to the reference."""
    c1 = n * (
        -4 / 3
        + n
        * (
            -4 / 45
            + n
            * (
                88 / 315
                + n * (538 / 4725 + n * (20824 / 467775 + n * (-44732 / 2837835)))
            )
        )
    )
    c2 = n * (
        n
        * (
            34 / 45
            + n
            * (
                8 / 105
                + n * (-2482 / 14175 + n * (-37192 / 467775 + n * (-12467764 / 212837625)))
            )
        )
    )
    c3 = n * (
        n
        * (
            n
            * (
                -1532 / 2835
                + n * (-898 / 14175 + n * (54968 / 467775 + n * 100320856 / 1915538625))
            )
        )
    )
    c4 = n * (
        n * (n * (n * (6007 / 14175 + n * (24496 / 467775 + n * (-5884124 / 70945875)))))
    )
    c5 = n * (n * (n * (n * (n * (-23356 / 66825 + n * (-839792 / 19348875))))))
    c6 = n * (n * (n * (n * (n * (n * 570284222 / 1915538625)))))
    return (c1, c2, c3, c4, c5, c6)


def _auth_lat_coeffs_inverse(n: float) -> tuple[float, ...]:
    """sin(2k*phi) coefficients of the inverse series (eq. A20 of
    arXiv:2212.05818; reference utils.py:267-338)."""
    c1 = n * (
        4 / 3
        + n
        * (
            4 / 45
            + n
            * (
                -16 / 35
                + n * (-2582 / 14175 + n * (60136 / 467775 + n * 28112932 / 212837625))
            )
        )
    )
    c2 = n * (
        n
        * (
            46 / 45
            + n
            * (
                152 / 945
                + n * (-11966 / 14175 + n * (-21016 / 51975 + n * 251310128 / 638512875))
            )
        )
    )
    c3 = n * (
        n
        * (
            n
            * (
                3044 / 2835
                + n * (3802 / 14175 + n * (-94388 / 66825 + n * (-8797648 / 10945935)))
            )
        )
    )
    c4 = n * (
        n
        * (
            n
            * (n * (6059 / 4725 + n * (41072 / 93555 + n * (-1472637812 / 638512875))))
        )
    )
    c5 = n * (n * (n * (n * (n * (768272 / 467775 + n * 455935736 / 638512875)))))
    c6 = n * (n * (n * (n * (n * (n * 4210684958 / 1915538625)))))
    return (c1, c2, c3, c4, c5, c6)


def _auth_sin_coeffs(e: float) -> tuple[float, ...]:
    """a_k of sin(beta) = sum_k a_k sin(phi)**(2k+1), the authalic
    latitude's closed form q(phi) / q_p (reference utils.py:157-175)
    expanded in e**2: with s = sin(phi),
    q = (1 - e**2) sum_k (2k + 2) / (2k + 1) e**(2k) s**(2k+1),
    so a_k = c_k / sum_j c_j, c_k = (2k + 2) / (2k + 1) e**(2k).  The
    terms stop below 1e-20 (10 of them for WGS84); for e**2 < 0.02 the
    tail they drop is below 2e-20."""
    e2 = e * e
    c = [(2 * k + 2) / (2 * k + 1) * e2**k for k in range(200)]
    q_p = math.fsum(c)
    return tuple(ck / q_p for ck in c if ck >= 1e-20)


@dataclass(frozen=True)
class EngineConfig:
    """Frozen DGGS parameterization (ellipsoid + grid layout).

    Mirrors the user-extension surface of the reference
    (``RHEALPixDGGS(ellipsoid, N_side, north_square, south_square)``,
    dggs.py:215-222 + ``Ellipsoid``, ellipsoids.py:67-112) as one value
    object passed to every kernel and pipeline builder.
    """

    a: float = WGS84_A
    f: float = WGS84_F
    R: float | None = None  # if set: sphere of this radius (overrides a/f)
    lon_0: float = 0.0
    lat_0: float = 0.0
    radians: bool = False
    N_side: int = 3
    north_square: int = 0
    south_square: int = 0
    max_areal_resolution: float = 1.0  # m^2

    # ---- derived scalar attributes -------------------------------------
    @property
    def sphere(self) -> bool:
        return self.R is not None

    @property
    def e(self) -> float:
        if self.R is not None:
            return 0.0
        return math.sqrt(self.f * (2 - self.f))

    @property
    def R_A(self) -> float:
        if self.R is not None:
            return float(self.R)
        return auth_rad(self.a, self.e)

    @property
    def max_resolution(self) -> int:
        # dggs.py:229-234
        return int(
            math.ceil(
                math.log(self.R_A**2 * (2 * math.pi / 3) / self.max_areal_resolution)
                / (2 * math.log(self.N_side))
            )
        )

    def pi(self) -> float:
        """pi in this config's angle unit (reference ellipsoids.py:140-147)."""
        return math.pi if self.radians else 180.0

    def cell_width(self, resolution: int) -> float:
        """Planar cell width at a resolution (dggs.py:671-687)."""
        return self.R_A * (math.pi / 2) * self.N_side ** (-resolution)

    def cell_area(self, resolution: int, plane: bool = True) -> float:
        """Planar / ellipsoidal cell area (dggs.py:689-708)."""
        w = self.cell_width(resolution)
        return w**2 if plane else 8 / (3 * math.pi) * w**2

    # ---- derived lookup tables (cached) --------------------------------
    # dataclass(frozen) + cached tables: compute lazily via object dict
    # of a companion cache keyed by id; simplest is functools-style
    # per-instance memo on __dict__ which frozen dataclass forbids, so we
    # use a module-level cache.

    def _tables(self) -> "_Tables":
        key = (
            self.a,
            self.f,
            self.R,
            self.N_side,
            self.north_square,
            self.south_square,
        )
        t = _TABLE_CACHE.get(key)
        if t is None:
            t = _Tables(self)
            _TABLE_CACHE[key] = t
        return t

    @property
    def ul_vertex(self) -> np.ndarray:
        """(6, 2) float64: planar upper-left vertex of each face, meters
        (dggs.py:266-277)."""
        return self._tables().ul_vertex

    @property
    def face_neighbors(self) -> np.ndarray:
        """(6, 4) int8: face index of each face's neighbor per direction
        (up, right, down, left) — dggs.py:293-334."""
        return self._tables().face_neighbors

    @property
    def digit_neighbors(self) -> np.ndarray:
        """(N_side**2, 4) int8: atomic neighbor digit per direction with
        wraparound carry semantics (dggs.py:336-350).  A step that stays
        within the parent iff the digit is NOT on the crossed border."""
        return self._tables().digit_neighbors

    @property
    def rotate_digit(self) -> np.ndarray:
        """(4, N_side**2) int8: digit image under q anticlockwise quarter
        turns of the child matrix (cell.py:1149-1205)."""
        return self._tables().rotate_digit

    @property
    def auth_coeffs_fwd(self) -> np.ndarray:
        return self._tables().auth_fwd

    @property
    def auth_coeffs_inv(self) -> np.ndarray:
        return self._tables().auth_inv

    @property
    def auth_sin_coeffs(self) -> tuple[float, ...] | None:
        """``_auth_sin_coeffs`` of this ellipsoid where ``auth_lat``
        takes its series branch (e > 0, f <= 1/150), else None."""
        return self._tables().auth_sin


class _Tables:
    """Precomputed integer lookup tables for one grid parameterization."""

    def __init__(self, cfg: EngineConfig):
        N = cfg.N_side
        ns = cfg.north_square % 4
        ss = cfg.south_square % 4
        R_A = cfg.R_A
        pi = math.pi

        # Upper-left vertices of the 6 faces (unit scale then * R_A),
        # dggs.py:266-277.
        ul = np.array(
            [
                (-pi + ns * pi / 2, 3 * pi / 4),
                (-pi, pi / 4),
                (-pi / 2, pi / 4),
                (0.0, pi / 4),
                (pi / 2, pi / 4),
                (-pi + ss * pi / 2, -pi / 4),
            ],
            dtype=np.float64,
        )
        self.ul_vertex = R_A * ul

        # Face adjacency (up, right, down, left), dggs.py:293-334.
        fn = np.zeros((6, 4), dtype=np.int8)
        # Equatorial faces 1..4: left/right wrap around the equator band,
        # up is N (0), down is S (5).
        for i in range(1, 5):
            fn[i, UP] = 0
            fn[i, DOWN] = 5
            fn[i, LEFT] = 1 + (i - 1 - 1) % 4
            fn[i, RIGHT] = 1 + (i - 1 + 1) % 4
        # Face N (0) and S (5) depend on north_square / south_square.
        fn[0, DOWN] = (ns + 0) % 4 + 1
        fn[0, RIGHT] = (ns + 1) % 4 + 1
        fn[0, UP] = (ns + 2) % 4 + 1
        fn[0, LEFT] = (ns + 3) % 4 + 1
        fn[5, UP] = (ss + 0) % 4 + 1
        fn[5, RIGHT] = (ss + 1) % 4 + 1
        fn[5, DOWN] = (ss + 2) % 4 + 1
        fn[5, LEFT] = (ss + 3) % 4 + 1
        self.face_neighbors = fn

        # Digit adjacency with modular wrap (dggs.py:336-350).
        K = N * N
        dn = np.zeros((K, 4), dtype=np.int8)
        for i in range(K):
            left = i - 1
            right = i + 1
            if i % N == 0:
                left = i - 1 + N
            if i % N == N - 1:
                right = i + 1 - N
            dn[i, LEFT] = left
            dn[i, RIGHT] = right
            dn[i, UP] = (i - N) % K
            dn[i, DOWN] = (i + N) % K
        self.digit_neighbors = dn

        # Border membership per direction: digit d is on the `dir` border
        # of its parent (cell.py:1287-1296).
        border = np.zeros((K, 4), dtype=bool)
        for i in range(K):
            r, c = divmod(i, N)
            border[i, UP] = r == 0
            border[i, DOWN] = r == N - 1
            border[i, LEFT] = c == 0
            border[i, RIGHT] = c == N - 1
        self.digit_border = border

        # Child-matrix quarter-turn permutations (cell.py:1183-1205):
        # rotating the N x N matrix of digits anticlockwise by q quarter
        # turns maps digit at (i, j) to position (j, N-1-i)'s number.
        rot = np.zeros((4, K), dtype=np.int8)
        rot[0] = np.arange(K, dtype=np.int8)
        f1 = np.zeros(K, dtype=np.int8)
        for i in range(N):
            for j in range(N):
                f1[i * N + j] = j * N + (N - 1 - i)
        rot[1] = f1
        rot[2] = f1[f1]
        rot[3] = f1[f1[f1]]
        self.rotate_digit = rot

        # Authalic-latitude series coefficients (scalar, reused across
        # all batches; eliminates the reference's per-call recomputation).
        e = cfg.e
        if e == 0:
            n3 = 0.0
        else:
            n3 = (1 - math.sqrt(1 - e**2)) / (1 + math.sqrt(1 - e**2))
        self.auth_fwd = np.array(_auth_lat_coeffs_forward(n3), dtype=np.float64)
        self.auth_inv = np.array(_auth_lat_coeffs_inverse(n3), dtype=np.float64)
        # auth_lat's branch rule, on the f it derives from e.
        series = e != 0 and abs(1 - math.sqrt(1 - e**2)) <= 1 / 150
        self.auth_sin = _auth_sin_coeffs(e) if series else None


_TABLE_CACHE: dict = {}


# Canonical configurations mirroring the reference's predefined DGGSs
# (dggs.py:1474-1484 and tests/test_dggs.py:44-52).
WGS84_003 = EngineConfig()
WGS84_003_RADIANS = EngineConfig(radians=True)
WGS84_002 = EngineConfig(N_side=2)
WGS84_123 = EngineConfig(north_square=1, south_square=2)
UNIT_003 = EngineConfig(R=1.0)
UNIT_003_RADIANS = EngineConfig(R=1.0, radians=True)
