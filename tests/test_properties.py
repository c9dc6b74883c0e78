"""Property-based tests (hypothesis) over the pure-numpy kernels —
no Ray needed.  Mirrors the reference's randomized-property layer
(SURVEY.md §5: successor/predecessor consistency test_dggs.py:76-82,
atomic-neighbor involution test_dggs.py:57-66) plus engine-specific
invariants (pack/unpack, prefix algebra, projection round-trip).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import projection as prj
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core import topology as tp
from rhealpixdggs_py_ray.core.config import WGS84_003

CFG = WGS84_003

lon_s = st.floats(min_value=-180.0, max_value=179.999, allow_nan=False)
lat_s = st.floats(min_value=-89.9, max_value=89.9, allow_nan=False)
res_s = st.integers(min_value=1, max_value=10)


@settings(max_examples=200, deadline=None)
@given(lon=lon_s, lat=lat_s, res=res_s)
def test_point_cell_nucleus_roundtrip(lon, lat, res):
    """cell_from_point(nucleus(cell)) == cell (the reference round-trip
    property, test_dggs.py:122-180)."""
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    assert u[0] != idx.INVALID
    nlon, nlat = idx.nucleus(CFG, u, plane=False)
    u2 = idx.cell_from_point(CFG, res, nlon, nlat, plane=False)
    assert u2[0] == u[0]


@settings(max_examples=200, deadline=None)
@given(lon=lon_s, lat=lat_s, res=res_s)
def test_parent_contains_child(lon, lat, res):
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    p = su.parent(u, res - 1)
    assert su.is_subcell(u, p)[0]
    # and the parent is what direct indexing at res-1 gives
    d = idx.cell_from_point(CFG, res - 1, np.array([lon]), np.array([lat]), plane=False)
    assert d[0] == p[0]


@settings(max_examples=200, deadline=None)
@given(lon=lon_s, lat=lat_s, res=res_s)
def test_pack_string_roundtrip(lon, lat, res):
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    s = su.to_string_fixed(u, res).to_pylist()[0]
    assert su.from_string([s])[0] == u[0]
    t = su.suid_tuple(int(u[0]))
    assert su.from_suid_tuple(t) == int(u[0])
    assert len(s) == res + 1


@settings(max_examples=100, deadline=None)
@given(lon=lon_s, lat=lat_s, res=st.integers(min_value=1, max_value=8))
def test_neighbor_adjacency_symmetric(lon, lat, res):
    """Planar adjacency is symmetric: every neighbor n of u has u among
    its own 4 neighbors (direction labels flip across cube-face
    crossings, so the stronger direction-involution only holds within
    a face — the reference's atomic involution, test_dggs.py:57-66,
    is the per-digit restriction of this).'"""
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    from rhealpixdggs_py_ray.core.config import DOWN, LEFT, RIGHT, UP

    for d in (LEFT, RIGHT, UP, DOWN):
        n = tp.neighbor(CFG, u, d)
        back = {int(tp.neighbor(CFG, n, dd)[0]) for dd in (LEFT, RIGHT, UP, DOWN)}
        assert int(u[0]) in back, (su.to_string(u)[0], d)
        # within-face steps are exact direction-involutions
        if su.face_of(n)[0] == su.face_of(u)[0]:
            dinv = {LEFT: RIGHT, RIGHT: LEFT, UP: DOWN, DOWN: UP}[d]
            assert int(tp.neighbor(CFG, n, dinv)[0]) == int(u[0])


@settings(max_examples=150, deadline=None)
@given(lon=lon_s, lat=lat_s)
def test_projection_forward_inverse_roundtrip(lon, lat):
    x, y = prj.forward(CFG, np.array([lon]), np.array([lat]))
    lon2, lat2, ok = prj.inverse(CFG, x, y)
    assert ok[0]
    assert abs(lon2[0] - lon) < 1e-7 or abs(abs(lon2[0] - lon) - 360.0) < 1e-7
    assert abs(lat2[0] - lat) < 1e-7


@settings(max_examples=100, deadline=None)
@given(i=st.integers(min_value=0, max_value=6 * 9**5 - 2))
def test_successor_is_levelorder_increment(i):
    b = 9
    base = 6 * (b**5 - 1) // (b - 1)
    u = su.suid_from_level_order_index(np.array([i + base]), CFG)
    nxt = su.successor(u, CFG)
    expect = su.suid_from_level_order_index(np.array([i + 1 + base]), CFG)
    assert nxt[0] == expect[0]


@settings(max_examples=50, deadline=None)
@given(lon=lon_s, lat=lat_s, res=st.integers(min_value=1, max_value=6))
def test_ring_membership_and_size(lon, lat, res):
    """k_ring(1) contains the origin and its 4 planar neighbors; the
    1-ring has <= 8 cells (exactly 8 away from cube-edge anomalies)."""
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    ring = set(tp.k_ring(CFG, int(u[0]), 1))
    assert int(u[0]) in ring
    # The ring walk follows the reference's algorithm, which is
    # documented-incomplete across cube faces (rhp_wrappers.py:37, 799
    # — engine matches the reference's goldens); full planar-neighbor
    # membership is asserted only for face-interior cells.
    nbrs = [int(tp.neighbor(CFG, u, d)[0]) for d in range(4)]
    if all(su.face_of(np.array([n], dtype=np.uint64))[0] == su.face_of(u)[0] for n in nbrs):
        for n in nbrs:
            assert n in ring
    assert 1 <= len(ring) <= 9


@settings(max_examples=200, deadline=None)
@given(lon=lon_s, lat=lat_s, res=res_s)
def test_predecessor_successor_inverse(lon, lat, res):
    """pred(succ(c)) == c and succ(pred(c)) == c away from the ends
    (reference randomized property, test_dggs.py:76-82)."""
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    nxt = su.successor(u, CFG)
    if int(nxt[0]) != 0:
        assert su.predecessor(nxt, CFG)[0] == u[0]
    prv = su.predecessor(u, CFG)
    if int(prv[0]) != 0:
        assert su.successor(prv, CFG)[0] == u[0]


@settings(max_examples=200, deadline=None)
@given(lon=lon_s, lat=lat_s, res=res_s)
def test_suid_rowcol_reconstructs(lon, lat, res):
    """Interleaving the row/col digit streams recovers the cell
    (cell.py:269-291: digit = row*N + col per level)."""
    u = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    r, c = su.suid_rowcol(u, CFG)
    _, rd, _ = su.unpack(r)
    _, cd, _ = su.unpack(c)
    _, d, _ = su.unpack(u)
    N = CFG.N_side
    assert np.all(rd * N + cd == d)
    assert su.face_of(r)[0] == su.face_of(u)[0] == su.face_of(c)[0]


@settings(max_examples=50, deadline=None)
@given(lon=lon_s, lat=lat_s, res=st.integers(min_value=1, max_value=5),
       span=st.integers(min_value=0, max_value=40))
def test_interval_contiguous_and_bounded(lon, lat, res, span):
    """interval(a, b) is the contiguous level-order index range
    (dggs.py:710-735; reference pins index contiguity)."""
    a = idx.cell_from_point(CFG, res, np.array([lon]), np.array([lat]), plane=False)
    ia = int(su.level_order_index(a, CFG)[0])
    K = CFG.N_side**2
    base_r = 6 * (K**res - 1) // (K - 1)
    last = base_r + 6 * K**res - 1
    b = su.suid_from_level_order_index(np.array([min(ia + span, last)]), CFG)
    cells = su.interval_cells(int(a[0]), int(b[0]), CFG)
    idxs = su.level_order_index(cells, CFG)
    assert np.all(np.diff(idxs) == 1)
    assert idxs[0] == ia


def test_morton_interleave_roundtrip_property():
    """Morton key decodes back to (gx, gy) for every lattice coord."""
    from hypothesis import given, strategies as st
    from rhealpixdggs_py_ray.pipelines.queries import _morton_interleave
    import numpy as np

    @given(st.lists(st.tuples(st.integers(0, 323), st.integers(0, 80)),
                    min_size=1, max_size=50))
    def check(pairs):
        gx = np.array([p[0] for p in pairs], dtype=np.int64)
        gy = np.array([p[1] for p in pairs], dtype=np.int64)
        m = _morton_interleave(gx, gy)
        dx = np.zeros_like(gx)
        dy = np.zeros_like(gy)
        for b in range(9):
            dx += ((m >> (2 * b)) & 1) << b
            dy += ((m >> (2 * b + 1)) & 1) << b
        assert (dx == gx).all() and (dy == gy).all()
        # z-order locality: equal high bits -> nearby cells
        assert (m >= 0).all()

    check()


def test_bigram_pairs_property():
    """_bigram_pairs emits exactly len(t)-1 pairs per doc in order,
    and packing is injective for BMP text."""
    from hypothesis import given, strategies as st
    from rhealpixdggs_py_ray.pipelines.queries import BG_PACK, _bigram_pairs

    # surrogates excluded: parquet text is UTF-8, lone surrogates
    # cannot reach the engine
    @given(st.lists(st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=0xFFFF,
                               exclude_categories=("Cs",)),
        max_size=30), min_size=1, max_size=10))
    def check(texts):
        di, bg = _bigram_pairs(texts)
        expect = sum(max(len(t) - 1, 0) for t in texts)
        assert len(di) == expect == len(bg)
        k = 0
        for i, t in enumerate(texts):
            for a, b in zip(t, t[1:]):
                assert di[k] == i
                assert bg[k] == ord(a) * BG_PACK + ord(b)
                k += 1

    check()


def test_pq_codebook_exact_binary():
    """Every codebook coordinate is a multiple of 1/64 — exact in
    binary, so the SQL closed form reproduces it bit-identically."""
    from rhealpixdggs_py_ray.pipelines.queries import _pq_codebook
    import numpy as np

    C = _pq_codebook()
    assert np.all(C * 64 == np.round(C * 64))
    assert C.min() >= -1.0 and C.max() <= 1.0


def test_suid_roundtrip_properties():
    """Hypothesis: level-order index <-> SUID and string <-> packed
    roundtrips close for arbitrary (resolution, index); successor and
    predecessor invert each other away from the ends."""
    from hypothesis import given, settings, strategies as st
    import numpy as np
    from rhealpixdggs_py_ray.core import suid as su
    from rhealpixdggs_py_ray.core.config import WGS84_003
    from rhealpixdggs_py_ray.core.wrappers import num_cells

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 10**9))
    def check(res, raw):
        # cells at EXACTLY resolution res (level-order tail segment)
        n_upto = int(num_cells(0, res, cfg=WGS84_003))
        n_prev = int(num_cells(0, res - 1, cfg=WGS84_003)) if res else 0
        i = n_prev + (raw % (n_upto - n_prev))
        u = su.suid_from_level_order_index(
            np.array([i], dtype=np.int64), WGS84_003)
        assert int(su.level_order_index(u, WGS84_003)[0]) == i
        s = su.to_string(u)[0]
        assert int(su.from_string([s])[0]) == int(u[0])
        assert int(su.resolution_of(u)[0]) == res
        if i + 1 < n_upto:
            nxt = su.successor(u, WGS84_003)
            assert int(su.predecessor(nxt, WGS84_003)[0]) == int(u[0])

    check()
