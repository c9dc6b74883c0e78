"""Packed cell-ID codec and integer SUID operations.

The reference addresses cells by SUID tuples ``(face_letter, d1..dr)``
and strings like ``'S001450634'`` (cell.py:11, cell.py:122-188).  The
engine keeps the canonical string for output/joins with reference
goldens, and additionally packs every cell into one ``uint64`` for
shuffles, sorts, prefix joins and groupbys:

    bits 63..60  face index (0..5)
    bits 59..4   up to 14 digits, 4 bits each, most significant first
    bits  3..0   resolution (0..14)

Within one resolution the packed value is order-isomorphic to the
lexicographic SUID order, which equals the reference's planar row-major
cover ordering within a face (dggs.py:1194) and its alphanumeric sort
(conversion.py:120-123).  Prefix (subcell) tests become shift/compare
(cell.py:437-454); parent truncation becomes mask+shift
(rhp_wrappers.py:123-160); successor becomes +1 in digit space
(cell.py:317-376).

Supports N_side in {2, 3} (digit < 9 < 16) and resolution <= 14
(MAX_PACK_RESOLUTION), which covers every parameterization exercised by
the reference's tests.  The canonical WGS84_003 grid has max_resolution
15, but resolution-15 cells have no packed or string form here:
``pack`` and ``index.cell_from_point`` raise ValueError past
MAX_PACK_RESOLUTION.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rhealpixdggs_py_ray.core.config import CELLS0, EngineConfig

MAX_PACK_RESOLUTION = 14
# One Arrow string array indexes its bytes with int32 offsets.
MAX_STRING_BYTES = 2**31 - 1
_FACE_CHARS = np.array([ord(c) for c in CELLS0], dtype=np.uint8)
# The two characters of one byte of a cell_u64 as one native uint16:
# two digit nibbles, or (bytes 0-95) the face and the first digit.  A
# nibble past 9 prints as ':'..'?'.
_DIGIT_PAIRS = np.array([[48 + (b >> 4), 48 + (b & 15)] for b in range(256)], dtype=np.uint8).view(np.uint16).ravel()
_FACE_PAIRS = np.array([[_FACE_CHARS[b >> 4], 48 + (b & 15)] for b in range(96)], dtype=np.uint8).view(np.uint16).ravel()


def pack(face: np.ndarray, digits: np.ndarray, resolution: int) -> np.ndarray:
    """Pack (face[n], digits[n, resolution]) into uint64[n]."""
    face = np.asarray(face)
    n = face.shape[0]
    if resolution > MAX_PACK_RESOLUTION:
        raise ValueError(f"resolution {resolution} > {MAX_PACK_RESOLUTION}")
    out = face.astype(np.uint64) << np.uint64(60)
    for i in range(resolution):
        shift = np.uint64(56 - 4 * i)
        out |= digits[:, i].astype(np.uint64) << shift
    out |= np.uint64(resolution)
    return out


def unpack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """uint64[n] -> (face[n] uint8, digits[n, max_res] uint8, res[n] uint8).

    Digit columns beyond each row's resolution are zero.
    """
    u = np.asarray(u, dtype=np.uint64)
    face = (u >> np.uint64(60)).astype(np.uint8)
    res = (u & np.uint64(0xF)).astype(np.uint8)
    rmax = int(res.max()) if res.size else 0
    digits = np.zeros((u.shape[0], rmax), dtype=np.uint8)
    for i in range(rmax):
        shift = np.uint64(56 - 4 * i)
        digits[:, i] = ((u >> shift) & np.uint64(0xF)).astype(np.uint8)
        digits[res <= i, i] = 0
    return face, digits, res


def resolution_of(u: np.ndarray) -> np.ndarray:
    return (np.asarray(u, dtype=np.uint64) & np.uint64(0xF)).astype(np.int64)


def face_of(u: np.ndarray) -> np.ndarray:
    return (np.asarray(u, dtype=np.uint64) >> np.uint64(60)).astype(np.int64)


def digit_at(u: np.ndarray, level: int) -> np.ndarray:
    """Digit at 1-based level (level 1 = first digit after the face)."""
    shift = np.uint64(56 - 4 * (level - 1))
    return ((np.asarray(u, dtype=np.uint64) >> shift) & np.uint64(0xF)).astype(np.int64)


def with_digit(u: np.ndarray, level: int, digit) -> np.ndarray:
    shift = np.uint64(56 - 4 * (level - 1))
    mask = ~(np.uint64(0xF) << shift)
    return (np.asarray(u, dtype=np.uint64) & mask) | (
        np.asarray(digit).astype(np.uint64) << shift
    )


def parent(u: np.ndarray, res: int) -> np.ndarray:
    """Truncate to resolution ``res`` (rhp_to_parent semantics for
    res <= cell resolution; rhp_wrappers.py:123-160)."""
    u = np.asarray(u, dtype=np.uint64)
    if res < 0:
        raise ValueError("resolution must be >= 0")
    keep = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(60 - 4 * res)
    return (u & keep) | np.uint64(res)


# Dense tile folds count into one slot per tile rank: 6 * 9**res slots,
# 354,294 (2.8 MB as int64) at the cap.
MAX_TILE_RES = 5
MAX_TILE_RANKS = 6 * 9**MAX_TILE_RES
_NOT_A_CELL = 1 << 40  # an entry past every rank: some nibble is >= 9


def _rank_tables() -> tuple[np.ndarray, np.ndarray]:
    """(LO, HI), int64[4096] each: entry t of LO maps three nibbles
    (a, b, c) to their base-9 value 81 * a + 9 * b + c, HI to 729 times
    that; either holds _NOT_A_CELL when a nibble is >= 9."""
    t = np.arange(4096, dtype=np.int64)
    a, b, c = t >> 8, (t >> 4) & 0xF, t & 0xF
    cell = (a < 9) & (b < 9) & (c < 9)
    lo = np.where(cell, 81 * a + 9 * b + c, _NOT_A_CELL)
    hi = np.where(cell, 729 * lo, _NOT_A_CELL)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _digit_table() -> np.ndarray:
    """uint64[9**4]: entry v holds v's four base-9 digits, one per
    nibble, least significant digit in the lowest nibble."""
    v = np.arange(9**4, dtype=np.int64)
    t = np.zeros_like(v)
    for j in range(4):
        t |= (v // 9**j % 9) << (4 * j)
    t = t.astype(np.uint64)
    t.flags.writeable = False
    return t


_RANK_LO, _RANK_HI = _rank_tables()
_DIGIT_TABLE = _digit_table()


def num_tile_ranks(res: int) -> int:
    """6 * 9**res, the tile ranks at ``res``; ValueError outside
    0..MAX_TILE_RES."""
    if not 0 <= res <= MAX_TILE_RES:
        raise ValueError(
            f"tile resolution {res} outside 0..{MAX_TILE_RES} "
            f"(a dense tile fold holds at most {MAX_TILE_RANKS} ranks)"
        )
    return 6 * 9**res


def tile_rank(u: np.ndarray, res: int) -> np.ndarray:
    """Rank of each cell's res-``res`` prefix among the 6 * 9**res
    tiles: the base-9 number whose digits are the face and the first
    ``res`` digits, so at one resolution rank order is packed (SUID)
    order.  int64 in [0, 6 * 9**res).  Two table lookups: the prefix
    has at most six nibbles (24 bits), three per table.  Raises
    ValueError past MAX_TILE_RES and on a prefix that is not a cell
    (face >= 6 or a digit >= 9, e.g. ``index.INVALID``)."""
    k = num_tile_ranks(res)
    u = np.asarray(u, dtype=np.uint64)
    flat = u.reshape(-1)  # 1-D, so on 0-D input too the ufuncs give arrays ``take`` can fill
    p = (flat >> np.uint64(60 - 4 * res)).view(np.int64)
    hi = p >> 12
    p &= 0xFFF
    # Both indices are < 4096, so mode="wrap" only skips the bounds
    # check and lets ``take`` write into ``out`` unbuffered.
    rank = _RANK_HI.take(hi, mode="wrap")
    rank += _RANK_LO.take(p, out=hi, mode="wrap")
    if rank.size and int(rank.max()) >= k:
        bad = int(flat[np.argmax(rank >= k)])
        raise ValueError(f"{bad:#018x} has no res-{res} tile: not a cell prefix")
    return rank.reshape(u.shape)


def tile_from_rank(rank: np.ndarray, res: int) -> np.ndarray:
    """Inverse of tile_rank: int ranks -> packed res-``res`` tiles."""
    k = num_tile_ranks(res)
    rank = np.asarray(rank, dtype=np.int64)
    if rank.size and (int(rank.min()) < 0 or int(rank.max()) >= k):
        raise ValueError(f"tile rank outside [0, {k}) at resolution {res}")
    hi = rank // 9**4  # < 9**4 too, as rank < 9**(1 + MAX_TILE_RES)
    nibbles = (_DIGIT_TABLE.take(hi) << np.uint64(16)) | _DIGIT_TABLE.take(rank - hi * 9**4)
    return (nibbles << np.uint64(60 - 4 * res)) | np.uint64(res)


def is_subcell(child: np.ndarray, ancestor: np.ndarray) -> np.ndarray:
    """Vectorized prefix test (cell.py:437-454): child's SUID starts
    with ancestor's SUID (and child resolution >= ancestor's)."""
    child = np.asarray(child, dtype=np.uint64)
    ancestor = np.asarray(ancestor, dtype=np.uint64)
    ares = (ancestor & np.uint64(0xF)).astype(np.int64)
    cres = (child & np.uint64(0xF)).astype(np.int64)
    shift = (60 - 4 * ares).astype(np.uint64)
    trunc_child = (child >> shift) << shift
    trunc_anc = (ancestor >> shift) << shift
    return (trunc_child == trunc_anc) & (cres >= ares)


def check_string_bytes(nbytes: int) -> None:
    """Raise ValueError when one string array would hold more than
    MAX_STRING_BYTES of SUID characters (its int32 offsets overflow)."""
    if nbytes > MAX_STRING_BYTES:
        raise ValueError(
            f"{nbytes} SUID string bytes exceed one Arrow string array's "
            f"{MAX_STRING_BYTES}-byte limit; split the input into smaller batches"
        )


def to_string(u: np.ndarray) -> np.ndarray:
    """uint64[n] (any mix of resolutions) -> numpy object array of
    canonical SUID strings (cell.py:181-188), e.g. 'S001450634'.
    Row i takes the first 1 + res[i] bytes of a byte matrix; Arrow
    decodes the packed buffer in one pass."""
    u = np.asarray(u, dtype=np.uint64)
    face, digits, res = unpack(u)
    width = 1 + res.astype(np.int64)
    offsets = np.zeros(u.shape[0] + 1, dtype=np.int64)
    np.cumsum(width, out=offsets[1:])
    check_string_bytes(int(offsets[-1]))
    buf = np.empty((u.shape[0], 1 + digits.shape[1]), dtype=np.uint8)
    buf[:, 0] = _FACE_CHARS[face]
    buf[:, 1:] = digits + ord("0")
    data = buf[np.arange(buf.shape[1]) < width[:, None]]
    return _string_array(offsets.astype(np.int32), data).to_numpy(zero_copy_only=False)


def to_string_fixed(u: np.ndarray, resolution: int) -> pa.StringArray:
    """uint64[n] (all at the same resolution) -> Arrow string array of
    SUID strings, fully vectorized (no per-row Python).  Every string
    is 1 + resolution bytes, so the digit matrix is the Arrow data
    buffer as is and the offsets are an arange.  The hot-path variant
    used by the CellIndexer stage.

    Byte k of ``u``, most significant first, holds characters 2k and
    2k + 1, so each string is ceil(width / 2) two-byte gathers, written
    through a uint16 view with row stride ``width``.  Columns go last
    first: an odd width's last pair spills one byte into the next row,
    which that row's first pair then overwrites (the buffer has one
    spare byte for the last row).  The first byte's 96-entry table ends
    at face 5, so faces 6-15 and INVALID raise IndexError."""
    u = np.asarray(u, dtype=np.uint64)
    n = u.shape[0]
    width = 1 + resolution
    check_string_bytes(n * width)
    data = np.empty(n * width + 1, dtype=np.uint8)
    pairs = (width + 1) // 2
    out = np.ndarray((n, pairs), dtype=np.uint16, buffer=data, strides=(width, 2))
    le = np.ascontiguousarray(u, dtype="<u8").view(np.uint8).reshape(n, 8)  # byte 7 is the top
    for k in range(pairs - 1, 0, -1):
        out[:, k] = _DIGIT_PAIRS.take(le[:, 7 - k])
    out[:, 0] = _FACE_PAIRS.take(le[:, 7])
    return _string_array(np.arange(0, (n + 1) * width, width, dtype=np.int32), data[:n * width])


def _string_array(offsets: np.ndarray, data: np.ndarray) -> pa.StringArray:
    """Arrow string array over int32 ``offsets`` and ASCII ``data`` bytes."""
    return pa.StringArray.from_buffers(
        len(offsets) - 1, pa.py_buffer(offsets), pa.py_buffer(np.ascontiguousarray(data))
    )


def from_string(ids) -> np.ndarray:
    """SUID strings -> uint64 (inverse of to_string)."""
    out = np.zeros(len(ids), dtype=np.uint64)
    for i, s in enumerate(ids):
        face = CELLS0.index(s[0])
        res = len(s) - 1
        u = np.uint64(face) << np.uint64(60)
        for j, ch in enumerate(s[1:]):
            u |= np.uint64(int(ch)) << np.uint64(56 - 4 * j)
        out[i] = u | np.uint64(res)
    return out


def suid_tuple(u: int) -> tuple:
    """Single packed id -> reference-style suid tuple ('S', 0, 0, 1, ...)."""
    arr = np.asarray([u], dtype=np.uint64)
    face, digits, res = unpack(arr)
    r = int(res[0])
    return (CELLS0[int(face[0])],) + tuple(int(d) for d in digits[0, :r])


def from_suid_tuple(t) -> int:
    face = CELLS0.index(t[0])
    u = np.uint64(face) << np.uint64(60)
    for j, d in enumerate(t[1:]):
        u |= np.uint64(int(d)) << np.uint64(56 - 4 * j)
    return int(u | np.uint64(len(t) - 1))


def successor(u: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """Next cell at the same resolution in SUID order (cell.py:317-376).

    Returns 0 (invalid) past the last cell.  Vectorized base-N_side**2
    increment over the digit field.
    """
    u = np.asarray(u, dtype=np.uint64)
    face, digits, res = unpack(u)
    n = u.shape[0]
    K = cfg.N_side**2
    out_face = face.astype(np.int64)
    d = digits.astype(np.int64).copy()
    rmax = d.shape[1]
    carry = np.ones(n, dtype=bool)
    for lvl in range(rmax - 1, -1, -1):
        active = carry & (res > lvl)
        d[active, lvl] += 1
        wrapped = active & (d[:, lvl] >= K)
        d[wrapped, lvl] = 0
        carry = carry & ((res <= lvl) | wrapped)
    out_face[carry] += 1
    invalid = out_face > 5
    packed = pack(np.clip(out_face, 0, 5), d, int(res.max()) if n else 0)
    # pack() wrote a uniform resolution; restore per-row resolutions.
    packed = (packed & ~np.uint64(0xF)) | res.astype(np.uint64)
    # Zero out digit levels beyond each row's resolution (pack wrote them all).
    for lvl in range(rmax):
        shift = np.uint64(56 - 4 * lvl)
        clear = res <= lvl
        packed[clear] &= ~(np.uint64(0xF) << shift)
    packed[invalid] = 0
    return packed


def level_order_index(u: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """Level-order index of each cell (cell.py:218-267)."""
    u = np.asarray(u, dtype=np.uint64)
    face, digits, res = unpack(u)
    b = cfg.N_side**2
    resL = res.astype(np.int64)
    # num_cells(0, L-1) = 6*(b**L - 1)/(b - 1)
    base = 6 * (np.power(b, resL) - 1) // (b - 1)
    val = face.astype(np.int64)
    for i in range(digits.shape[1]):
        take = resL > i
        val = np.where(take, val * b + digits[:, i], val)
    return base + val


def suid_from_level_order_index(index: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """Inverse of level_order_index, vectorized (cell.py:89-120).
    Used by grid enumeration: ray.data.range -> packed cells."""
    index = np.asarray(index, dtype=np.int64)
    b = cfg.N_side**2
    # Find resolution L: cells at L occupy [ind(L), ind(L+1)).
    L = np.zeros(index.shape, dtype=np.int64)
    bound = np.full(index.shape, 6, dtype=np.int64)  # ind(1)
    total = np.full(index.shape, 6, dtype=np.int64)
    while True:
        more = index >= total
        if not more.any():
            break
        L[more] += 1
        bound = bound * b
        total = total + np.where(more, bound, 0)
        # total now = ind(L+1) for rows at this L
    # remainder within resolution block
    ind_L = 6 * (np.power(b, L) - 1) // (b - 1)
    rem = index - ind_L
    rmax = int(L.max()) if L.size else 0
    digits = np.zeros((index.shape[0], rmax), dtype=np.uint8)
    v = rem.copy()
    for i in range(rmax - 1, -1, -1):
        take = L > i
        digits[take, i] = (v[take] % b).astype(np.uint8)
        v = np.where(take, v // b, v)
    face = v.astype(np.uint8)  # leading base-b digit is the face
    out = pack(face, digits, rmax) if rmax else (face.astype(np.uint64) << np.uint64(60))
    out = (np.asarray(out, dtype=np.uint64) & ~np.uint64(0xF)) | L.astype(np.uint64)
    for lvl in range(rmax):
        shift = np.uint64(56 - 4 * lvl)
        clear = L <= lvl
        out[clear] &= ~(np.uint64(0xF) << shift)
    return out


def predecessor(u: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """Previous cell at the same resolution in SUID order
    (cell.py:378-435).  Returns 0 (invalid) before the first cell.
    Vectorized base-N_side**2 decrement with borrow."""
    u = np.asarray(u, dtype=np.uint64)
    face, digits, res = unpack(u)
    n = u.shape[0]
    K = cfg.N_side**2
    M = K - 1
    out_face = face.astype(np.int64)
    d = digits.astype(np.int64).copy()
    rmax = d.shape[1]
    borrow = np.ones(n, dtype=bool)
    for lvl in range(rmax - 1, -1, -1):
        active = borrow & (res > lvl)
        d[active, lvl] -= 1
        wrapped = active & (d[:, lvl] < 0)
        d[wrapped, lvl] = M
        borrow = borrow & ((res <= lvl) | wrapped)
    out_face[borrow] -= 1
    invalid = out_face < 0
    packed = pack(np.clip(out_face, 0, 5), d, rmax) if rmax else (
        np.clip(out_face, 0, 5).astype(np.uint64) << np.uint64(60)
    )
    packed = (np.asarray(packed, dtype=np.uint64) & ~np.uint64(0xF)) | res.astype(np.uint64)
    for lvl in range(rmax):
        shift = np.uint64(56 - 4 * lvl)
        clear = res <= lvl
        packed[clear] &= ~(np.uint64(0xF) << shift)
    packed[invalid] = 0
    return packed


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True when the cells' SUIDs agree on their common prefix —
    i.e. one is an ancestor-or-equal of the other (cell.py:959-972)."""
    return is_subcell(a, b) | is_subcell(b, a)


def region_overlaps(a: np.ndarray, region: np.ndarray) -> np.ndarray:
    """For each cell in ``a``: does it overlap ANY cell in ``region``
    (cell.py:974-984)?  Vectorized as an (n, m) prefix matrix."""
    a = np.asarray(a, dtype=np.uint64)
    region = np.asarray(region, dtype=np.uint64)
    out = np.zeros(a.shape, dtype=bool)
    for r in region:
        out |= overlaps(a, np.full(a.shape, r, dtype=np.uint64))
    return out


def suid_rowcol(u: np.ndarray, cfg: EngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Row- and column-SUIDs (cell.py:269-291): each digit d splits into
    (d // N_side, d % N_side); returns two packed uint64 arrays on the
    same face."""
    u = np.asarray(u, dtype=np.uint64)
    face, digits, res = unpack(u)
    N = cfg.N_side
    rowd = (digits // N).astype(np.uint8)
    cold = (digits % N).astype(np.uint8)
    rmax = digits.shape[1]
    ru = pack(face, rowd, rmax) if rmax else (face.astype(np.uint64) << np.uint64(60))
    cu = pack(face, cold, rmax) if rmax else (face.astype(np.uint64) << np.uint64(60))
    for arr in (ru, cu):
        arr &= ~np.uint64(0xF)
        arr |= res.astype(np.uint64)
        for lvl in range(rmax):
            shift = np.uint64(56 - 4 * lvl)
            arr[res <= lvl] &= ~(np.uint64(0xF) << shift)
    return ru, cu


def interval_cells(a: int, b: int, cfg: EngineConfig) -> np.ndarray:
    """All cells at resolution max(res(a), res(b)) between ``a`` and
    ``b`` in post-order (dggs.py:710-735), as a vectorized level-order
    index range."""
    ua = np.asarray([a], dtype=np.uint64)
    ub = np.asarray([b], dtype=np.uint64)
    ra = int(resolution_of(ua)[0])
    rb = int(resolution_of(ub)[0])
    r = max(ra, rb)
    K = cfg.N_side**2
    if ra < r:
        # reference: start = a.successor(r) = successor at res ra, padded 0s
        nxt = successor(ua, cfg)
        if int(nxt[0]) == 0:
            return np.empty(0, dtype=np.uint64)
        start_u = nxt
        for lvl in range(ra + 1, r + 1):
            start_u = with_digit(start_u, lvl, 0)
        start_u = (start_u & ~np.uint64(0xF)) | np.uint64(r)
    else:
        start_u = (parent(ua, r) & ~np.uint64(0xF)) | np.uint64(r)
    end_u = ub
    for lvl in range(rb + 1, r + 1):
        end_u = with_digit(end_u, lvl, K - 1)
    end_u = (end_u & ~np.uint64(0xF)) | np.uint64(r)
    i0 = int(level_order_index(start_u, cfg)[0])
    i1 = int(level_order_index(end_u, cfg)[0])
    if i1 < i0:
        return np.empty(0, dtype=np.uint64)
    return suid_from_level_order_index(np.arange(i0, i1 + 1, dtype=np.int64), cfg)
