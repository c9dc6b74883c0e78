"""Dependency-free planar geometry primitives.

The reference leans on shapely for polygon/line predicates
(rhp_wrappers.py:510-674, conversion.py, dggs.py:1096-1179).  shapely
is not available in this environment (SURVEY.md §7.0), so the engine
ships its own minimal, vectorized primitives: ray-casting
point-in-polygon (with holes), segment intersection, and tiny geometry
value types used by the public polyfill/linetrace API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Polygon:
    shell: list  # [(x, y), ...]
    holes: list = field(default_factory=list)

    geom_type = "Polygon"

    @property
    def bounds(self):
        xs = [p[0] for p in self.shell]
        ys = [p[1] for p in self.shell]
        return (min(xs), min(ys), max(xs), max(ys))


@dataclass
class MultiPolygon:
    geoms: list

    geom_type = "MultiPolygon"


@dataclass
class LineString:
    coords: list

    geom_type = "LineString"


@dataclass
class MultiLineString:
    geoms: list

    geom_type = "MultiLineString"


def points_in_ring(px: np.ndarray, py: np.ndarray, ring) -> np.ndarray:
    """Vectorized ray-casting point-in-polygon over one ring."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    inside = np.zeros(px.shape, dtype=bool)
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        cond = (y1 > py) != (y2 > py)
        if y2 != y1:
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cond & (px < xint)
    return inside


def points_in_polygon(px: np.ndarray, py: np.ndarray, poly: Polygon) -> np.ndarray:
    """Inside the shell and outside every hole."""
    inside = points_in_ring(px, py, poly.shell)
    for h in poly.holes:
        inside &= ~points_in_ring(px, py, h)
    return inside


def boxes_touch_polygon(x_lo, x_hi, y_lo, y_hi, poly: Polygon) -> np.ndarray:
    """Per closed box [x_lo, x_hi] x [y_lo, y_hi]: does any edge of the
    polygon's shell or holes meet it?  Separating axes: an edge misses
    a box when their bounding boxes miss or all four box corners lie
    strictly on one side of the edge's line.  Non-finite boxes count
    as touching."""
    touch = ~(np.isfinite(x_lo) & np.isfinite(x_hi) & np.isfinite(y_lo) & np.isfinite(y_hi))
    with np.errstate(invalid="ignore"):
        for ring in [poly.shell, *poly.holes]:
            n = len(ring)
            for i in range(n):
                x1, y1 = ring[i]
                x2, y2 = ring[(i + 1) % n]
                hit = (
                    (max(x1, x2) >= x_lo) & (min(x1, x2) <= x_hi)
                    & (max(y1, y2) >= y_lo) & (min(y1, y2) <= y_hi)
                )
                dx, dy = x2 - x1, y2 - y1
                sides = [dx * (cy - y1) - dy * (cx - x1)
                         for cx in (x_lo, x_hi) for cy in (y_lo, y_hi)]
                above = (sides[0] > 0) & (sides[1] > 0) & (sides[2] > 0) & (sides[3] > 0)
                below = (sides[0] < 0) & (sides[1] < 0) & (sides[2] < 0) & (sides[3] < 0)
                touch |= hit & ~above & ~below
    return touch


def segments_intersect(p1, p2, p3, p4) -> bool:
    """Proper + collinear-touching segment intersection (the semantics
    shapely's ``intersects`` gives the reference's line walks)."""

    def ccw(a, b, c):
        return (c[1] - a[1]) * (b[0] - a[0]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = ccw(p3, p4, p1)
    d2 = ccw(p3, p4, p2)
    d3 = ccw(p1, p2, p3)
    d4 = ccw(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    if d1 == 0 and on(p3, p4, p1):
        return True
    if d2 == 0 and on(p3, p4, p2):
        return True
    if d3 == 0 and on(p1, p2, p3):
        return True
    if d4 == 0 and on(p1, p2, p4):
        return True
    return False


def segment_intersects_ring(a, b, ring) -> bool:
    n = len(ring)
    for i in range(n):
        if segments_intersect(a, b, ring[i], ring[(i + 1) % n]):
            return True
    return False


def polygon_contains_ring(poly: Polygon, ring) -> bool:
    """All ring vertices inside and no boundary crossing — the polygon
    fully contains the ring's polygon (sufficient for the convex-ish
    cell quads the engine feeds it)."""
    xs = np.array([p[0] for p in ring])
    ys = np.array([p[1] for p in ring])
    if not points_in_polygon(xs, ys, poly).all():
        return False
    m = len(ring)
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        if segment_intersects_ring(a, b, poly.shell):
            return False
        for h in poly.holes:
            if segment_intersects_ring(a, b, h):
                return False
    return True


def polygon_overlaps_ring(poly: Polygon, ring) -> bool:
    """Any vertex of either inside the other, or boundaries crossing."""
    xs = np.array([p[0] for p in ring])
    ys = np.array([p[1] for p in ring])
    if points_in_polygon(xs, ys, poly).any():
        return True
    sx = np.array([p[0] for p in poly.shell])
    sy = np.array([p[1] for p in poly.shell])
    if points_in_ring(sx, sy, ring).any():
        return True
    m = len(ring)
    for i in range(m):
        if segment_intersects_ring(ring[i], ring[(i + 1) % m], poly.shell):
            return True
    return False


# ---------------------------------------------------------------------------
# Malformed-geometry validation (reference rhp_wrappers.py:810-846)
# ---------------------------------------------------------------------------

def ring_area2(ring) -> float:
    """Signed shoelace area x2 of one ring (closing edge implicit;
    a repeated closing vertex is tolerated)."""
    r = list(ring)
    if len(r) > 1 and tuple(r[0]) == tuple(r[-1]):
        r = r[:-1]
    n = len(r)
    if n < 3:
        return 0.0
    s = 0.0
    for i in range(n):
        x1, y1 = r[i]
        x2, y2 = r[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def polygon_area(poly: Polygon) -> float:
    """shapely-equivalent planar area: |shell| minus the holes."""
    a = abs(ring_area2(poly.shell)) / 2.0
    for h in poly.holes:
        a -= abs(ring_area2(h)) / 2.0
    return a


def _norm_ring(ring) -> list:
    r = [tuple(p) for p in ring]
    if len(r) > 1 and r[0] == r[-1]:
        r = r[:-1]
    return r


def ring_self_intersects(ring) -> bool:
    """Any two non-adjacent edges of the ring intersecting (proper
    crossing OR touching) — the figure-8 / bow-tie invalidity shapely's
    ``is_valid`` rejects (rhp_wrappers.py:822)."""
    r = _norm_ring(ring)
    n = len(r)
    if n < 3:
        return False
    for i in range(n):
        a1, a2 = r[i], r[(i + 1) % n]
        for j in range(i + 1, n):
            # skip the edge itself and the two edges sharing a vertex
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_intersect(a1, a2, r[j], r[(j + 1) % n]):
                return True
    return False


def _edge_midpoints(ring) -> tuple[np.ndarray, np.ndarray]:
    r = _norm_ring(ring)
    n = len(r)
    mx = np.array([(r[i][0] + r[(i + 1) % n][0]) / 2.0 for i in range(n)])
    my = np.array([(r[i][1] + r[(i + 1) % n][1]) / 2.0 for i in range(n)])
    return mx, my


def _rings_properly_cross(r1, r2) -> bool:
    """Proper (interior) crossing between any edge pair of two rings —
    point touches at shared vertices do NOT count (MultiPolygons may
    touch at points and stay valid)."""

    def ccw(a, b, c):
        return (c[1] - a[1]) * (b[0] - a[0]) - (b[1] - a[1]) * (c[0] - a[0])

    a = _norm_ring(r1)
    b = _norm_ring(r2)
    na, nb = len(a), len(b)
    for i in range(na):
        p1, p2 = a[i], a[(i + 1) % na]
        for j in range(nb):
            p3, p4 = b[j], b[(j + 1) % nb]
            d1 = ccw(p3, p4, p1)
            d2 = ccw(p3, p4, p2)
            d3 = ccw(p1, p2, p3)
            d4 = ccw(p1, p2, p4)
            if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
                (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
            ):
                return True
    return False


def _polygons_overlap(pa: Polygon, pb: Polygon) -> bool:
    """Interiors intersect: a proper shell crossing, or any vertex OR
    edge midpoint of one strictly inside the other (midpoints catch
    axis-aligned overlaps whose vertices all land on boundaries, e.g.
    the reference's multi_overlap fixture)."""
    if _rings_properly_cross(pa.shell, pb.shell):
        return True
    for src, dst in ((pa, pb), (pb, pa)):
        vx = np.array([p[0] for p in _norm_ring(src.shell)])
        vy = np.array([p[1] for p in _norm_ring(src.shell)])
        mx, my = _edge_midpoints(src.shell)
        if points_in_polygon(np.concatenate([vx, mx]),
                             np.concatenate([vy, my]), dst).any():
            return True
    return False


def _polygon_invalid(poly: Polygon) -> bool:
    rings = [poly.shell, *poly.holes]
    for r in rings:
        if ring_self_intersects(r):
            return True
    # holes must stay inside the shell and not cross each other
    for k, h in enumerate(poly.holes):
        if _rings_properly_cross(h, poly.shell):
            return True
        hx = np.array([p[0] for p in _norm_ring(h)])
        hy = np.array([p[1] for p in _norm_ring(h)])
        if len(hx) and not points_in_ring(hx, hy, poly.shell).any():
            return True  # fully outside the shell
        for h2 in poly.holes[k + 1:]:
            if _rings_properly_cross(h, h2):
                return True
    return False


def _is_empty(geometry) -> bool:
    t = getattr(geometry, "geom_type", None)
    if t == "Polygon":
        return not geometry.shell
    if t in ("MultiPolygon", "MultiLineString"):
        return not geometry.geoms
    if t == "LineString":
        return not geometry.coords
    return True


def malformed_geometry(geometry) -> bool:
    """Reference ``_malformed_geometry`` (rhp_wrappers.py:810-827) on
    the engine's typed geometries: None/empty, wrong type, invalid
    (self-intersecting rings/holes, holes escaping the shell,
    overlapping MultiPolygon members — the documented subset of
    shapely's is_valid the reference tests exercise; shared boundary
    SEGMENTS between members are not detected), or zero area."""
    if geometry is None or _is_empty(geometry):
        return True
    t = getattr(geometry, "geom_type", None)
    if t == "Polygon":
        polys = [geometry]
    elif t == "MultiPolygon":
        polys = list(geometry.geoms)
    else:
        return True
    for p in polys:
        if _polygon_invalid(p):
            return True
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if _polygons_overlap(polys[i], polys[j]):
                return True
    if sum(polygon_area(p) for p in polys) == 0:
        return True
    return False


def line_length(line: LineString) -> float:
    c = line.coords
    return float(
        sum(
            ((c[i + 1][0] - c[i][0]) ** 2 + (c[i + 1][1] - c[i][1]) ** 2) ** 0.5
            for i in range(len(c) - 1)
        )
    )


def malformed_lines(lines) -> bool:
    """Reference ``_malformed_lines`` (rhp_wrappers.py:830-846):
    None/empty, wrong type, or zero total length (a line collapsed to
    a point)."""
    if lines is None or _is_empty(lines):
        return True
    t = getattr(lines, "geom_type", None)
    if t == "LineString":
        ls = [lines]
    elif t == "MultiLineString":
        ls = list(lines.geoms)
    else:
        return True
    if any(len(l.coords) < 2 for l in ls):
        return True
    if sum(line_length(l) for l in ls) == 0:
        return True
    return False
