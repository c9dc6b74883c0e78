"""The dense tile combiner (``pipelines.tiles._TileCombiner``) and its
fold key ``su.tile_rank``.

The combiner is checked table-for-table against the sort-based fold it
replaced, kept below as the reference; the driver fold
(``fold_tile_partials``) against su.parent + np.unique.  Only the
``aggregate_tiles`` tests need Ray.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rhealpixdggs_py_ray.core import index as idx
from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import WGS84_002, WGS84_003
from rhealpixdggs_py_ray.pipelines.tiles import _TileCombiner, fold_tile_partials

CONFIGS = {"WGS84_003": WGS84_003, "WGS84_002": WGS84_002}
TILE_COUNTS_SCHEMA = pa.schema([("tile_u64", pa.uint64()), ("tile_id", pa.string()), ("n", pa.int64())])


def reference_combine(batch, tile_res, salt_bits, cell_col="cell_u64", salt_col="phash"):
    """The sort-based combiner: stable argsort by tile, one partial per
    run of equal tiles, every partial salted with reference_salt."""
    u = batch[cell_col].to_numpy(zero_copy_only=False)
    tile = su.parent(u, tile_res)
    order = np.argsort(tile, kind="stable")
    t_s = tile[order]
    change = np.flatnonzero(np.diff(t_s.view(np.int64)) != 0)
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [len(t_s)]])
    counts = (ends - starts).astype(np.int64)
    out_tile = t_s[starts]
    salts = np.full(len(out_tile), reference_salt(batch, salt_bits, salt_col), dtype=np.int64)
    return pa.table(
        {
            "tile_u64": pa.array(out_tile, type=pa.uint64()),
            "salt": pa.array(salts, type=pa.int64()),
            "n_partial": pa.array(counts, type=pa.int64()),
        }
    )


def reference_salt(batch, salt_bits, salt_col="phash"):
    """The batch's salt in Python ints: the top ``salt_bits`` bits of
    (sum of the salt column mod 2**64) * 0x9E3779B97F4A7C15 mod 2**64;
    0 without a salt column or bits."""
    if salt_col is None or salt_bits == 0:
        return 0
    s = sum(batch[salt_col].to_pylist()) % 2**64
    return (s * 0x9E3779B97F4A7C15 % 2**64) >> (64 - salt_bits)


def points_batch(cfg, n: int, seed: int, polar_share: float = 0.0) -> pa.Table:
    """``n`` seeded res-9 cells and phashes; ``polar_share`` of the rows
    fall in the north polar cap (lat 88-89.9)."""
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-180, 180, n)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    cap = rng.uniform(0, 1, n) < polar_share
    lat[cap] = rng.uniform(88, 89.9, int(cap.sum()))
    u = idx.cell_from_point(cfg, 9, lon, lat, plane=False)
    return pa.table(
        {
            "cell_u64": pa.array(u, type=pa.uint64()),
            "phash": pa.array(rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)),
        }
    )


def every_cell(N: int, res: int) -> np.ndarray:
    """Every cell at ``res`` in packed order."""
    k = np.arange((N * N) ** res, dtype=np.int64)
    digits = np.empty((k.size, res), dtype=np.int64)
    for i in range(res - 1, -1, -1):
        digits[:, i] = k % (N * N)
        k //= N * N
    return np.concatenate([su.pack(np.full(digits.shape[0], f), digits, res) for f in range(6)])


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("tile_res", range(su.MAX_TILE_RES + 1))
def test_combiner_matches_sort_reference(name, tile_res):
    for seed, n in ((tile_res, 20_000), (100 + tile_res, 777)):
        batch = points_batch(CONFIGS[name], n, seed)
        got = _TileCombiner(tile_res, 3, "cell_u64", "phash")(batch)
        assert got.equals(reference_combine(batch, tile_res, 3))


@pytest.mark.parametrize("tile_res", [1, 4])
def test_combiner_on_polar_skew(tile_res):
    """95% of rows in the north cap, as in the salted-merge skew test."""
    batch = points_batch(WGS84_003, 50_000, 7, polar_share=0.95)
    got = _TileCombiner(tile_res, 3, "cell_u64", "phash")(batch)
    assert got.equals(reference_combine(batch, tile_res, 3))
    if tile_res == 1:  # the skew is real: the cap tile holds ~95% of rows
        assert pc.max(got["n_partial"]).as_py() > 0.9 * 50_000


@pytest.mark.parametrize("salt_col, salt_bits", [(None, 3), ("phash", 0), ("phash", 1), ("phash", 3)])
def test_combiner_salt_variants(salt_col, salt_bits):
    batch = points_batch(WGS84_003, 30_000, 11)
    got = _TileCombiner(3, salt_bits, "cell_u64", salt_col)(batch)
    assert got.equals(reference_combine(batch, 3, salt_bits, salt_col=salt_col))
    if salt_col is None or salt_bits == 0:
        assert not pc.any(pc.not_equal(got["salt"], 0)).as_py()


@pytest.mark.parametrize("salt_kind", ["random", "sequential"])
def test_salt_spreads_a_hot_tile(salt_kind):
    """What the salt is for: over 64 batches with 95% of rows in one
    north-cap tile, that tile's partials take >= 4 of the 8 salts, so
    the salted merge spreads them over >= 4 keys.  The sequential
    column holds aligned ids, whose xor is 0 on every batch."""
    n, rows = 64, 1024
    big = points_batch(WGS84_003, n * rows, 21, polar_share=0.95)
    if salt_kind == "sequential":
        big = big.set_column(1, "phash", pa.array(np.arange(n * rows, dtype=np.int64)))
    comb = _TileCombiner(1, 3, "cell_u64", "phash")
    hot_salts = []
    for b in range(n):
        batch = big.slice(b * rows, rows)
        got = comb(batch)
        salts = got["salt"].to_numpy()
        assert (salts == salts[0]).all()  # one salt per batch
        assert salts[0] == reference_salt(batch, 3)
        hot_salts.append(int(salts[np.argmax(got["n_partial"].to_numpy())]))
        for salt_col, salt_bits in ((None, 3), ("phash", 0)):
            unsalted = _TileCombiner(1, salt_bits, "cell_u64", salt_col)(batch)
            assert not unsalted["salt"].to_numpy().any()
    assert len(set(hot_salts)) >= 4
    # Equal batches give equal salts, in a fresh combiner too.
    first = big.slice(0, rows)
    copy = pa.table(first.to_pydict(), schema=first.schema)
    assert _TileCombiner(1, 3, "cell_u64", "phash")(copy).equals(comb(first))


def nibble_rank(word: int, res: int):
    """tile_rank of one word, one nibble at a time: the base-9 number of
    its face and first ``res`` digits, or None when that prefix is not
    a cell (face >= 6 or a digit >= 9)."""
    nibbles = [(word >> (60 - 4 * i)) & 0xF for i in range(res + 1)]
    if nibbles[0] >= 6 or max(nibbles) >= 9:
        return None
    rank = 0
    for d in nibbles:
        rank = 9 * rank + d
    return rank


@pytest.mark.parametrize("res", range(su.MAX_TILE_RES + 1))
def test_tile_rank_matches_nibble_loop(res):
    """Random words, cell prefixes with random low bits, prefixes with
    one nibble pushed to 9..15 (faces 6..15 among them) and INVALID:
    cell prefixes get the loop's rank, every other word raises."""
    rng = np.random.default_rng(1000 + res)
    words = [int(w) for w in rng.integers(0, 2**64, 300, dtype=np.uint64)]
    for _ in range(300):
        nibbles = [int(rng.integers(0, 6))] + [int(d) for d in rng.integers(0, 9, res)]
        low = int(rng.integers(0, 2 ** (60 - 4 * res), dtype=np.uint64))
        word = sum(d << (60 - 4 * i) for i, d in enumerate(nibbles)) | low
        words.append(word)
        at = int(rng.integers(0, res + 1))
        bad = int(rng.integers(6 if at == 0 else 9, 16))
        words.append(word & ~(0xF << (60 - 4 * at)) | (bad << (60 - 4 * at)))
    words.append(int(idx.INVALID))
    want = [nibble_rank(w, res) for w in words]
    cells = [w for w, r in zip(words, want) if r is not None]
    assert len(cells) >= 300 and len(cells) < len(words) - 300
    got = su.tile_rank(np.array(cells, dtype=np.uint64), res)
    assert got.tolist() == [r for r in want if r is not None]
    for w, r in zip(words, want):
        if r is None:
            with pytest.raises(ValueError, match="not a cell prefix"):
                su.tile_rank(np.array([w], dtype=np.uint64), res)


def test_combiner_empty_and_one_row_batches():
    one = points_batch(WGS84_003, 1, 5)
    comb = _TileCombiner(4, 3, "cell_u64", "phash")
    assert comb(one).equals(reference_combine(one, 4, 3))
    # The sort-based fold indexed past the end of an empty batch; the
    # dense fold returns an empty table of the same schema.
    empty = comb(one.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == comb(one).schema


@pytest.mark.parametrize("N", [3, 2])
@pytest.mark.parametrize("res", range(su.MAX_TILE_RES + 1))
def test_tile_rank_round_trip_and_order(N, res):
    u = every_cell(N, res)
    rank = su.tile_rank(u, res)
    assert rank.dtype == np.int64
    assert rank.min() >= 0 and rank.max() < su.num_tile_ranks(res)
    assert (np.diff(rank) > 0).all()  # packed order is rank order
    if N == 3:
        assert np.array_equal(rank, np.arange(6 * 9**res))
    assert np.array_equal(su.tile_from_rank(rank, res), u)
    if res < su.MAX_TILE_RES:
        finer = every_cell(N, res + 1)
        assert np.array_equal(su.tile_rank(finer, res), su.tile_rank(su.parent(finer, res), res))


def test_rank_cap_and_non_cells_raise():
    assert su.num_tile_ranks(su.MAX_TILE_RES) == su.MAX_TILE_RANKS == 6 * 9**5
    for res in (-1, su.MAX_TILE_RES + 1):
        with pytest.raises(ValueError):
            _TileCombiner(res, 3, "cell_u64", "phash")
        with pytest.raises(ValueError):
            su.tile_rank(np.zeros(1, dtype=np.uint64), res)
    with pytest.raises(ValueError):
        su.tile_from_rank(np.array([su.num_tile_ranks(2)]), 2)
    with pytest.raises(ValueError):
        su.tile_from_rank(np.array([-1]), 2)
    batch = points_batch(WGS84_003, 1000, 3)
    cells = batch["cell_u64"].to_numpy().copy()
    cells[500] = idx.INVALID
    bad = batch.set_column(0, "cell_u64", pa.array(cells, type=pa.uint64()))
    for res in range(su.MAX_TILE_RES + 1):
        with pytest.raises(ValueError, match="not a cell prefix"):
            _TileCombiner(res, 3, "cell_u64", "phash")(bad)
        # No face >= 6 or digit >= 9 prefix aliases into a tile.
        base = su.pack(np.array([2]), np.zeros((1, 9), dtype=int), 9)
        prefixes = [(base & ~np.uint64(0xF << 60)) | np.uint64(f << 60) for f in (6, 7, 8, 9, 15)]
        prefixes += [su.with_digit(base, lvl, d) for lvl in range(1, res + 1) for d in (9, 12, 15)]
        for p in prefixes:
            with pytest.raises(ValueError, match="not a cell prefix"):
                su.tile_rank(p, res)


def test_aggregate_tiles_fails_early_on_non_cells(ray_session):
    """An INVALID cell stops the combiner with its ValueError, not a
    face-15 partial that dies later in the tile-id formatting."""
    import ray

    from rhealpixdggs_py_ray.pipelines.tiles import aggregate_tiles

    batch = points_batch(WGS84_003, 100, 9)
    cells = np.append(batch["cell_u64"].to_numpy(), idx.INVALID)
    t = pa.table({"cell_u64": pa.array(cells, type=pa.uint64()),
                  "phash": pa.array(np.arange(cells.size, dtype=np.int64))})
    with pytest.raises(ray.exceptions.RayError) as err:
        aggregate_tiles(ray.data.from_arrow(t), 2).take_all()
    msg = str(err.value)
    assert "ValueError" in msg and "not a cell prefix" in msg and "IndexError" not in msg


@pytest.mark.parametrize("tile_res", [0, 2, 5])
def test_fold_tile_partials_matches_unique(tile_res):
    """The driver fold over combiner partials (tiles recur across
    batches, and within the concatenated last batch) == su.parent +
    np.unique over the raw rows, in ascending tile_u64 order."""
    batches = [points_batch(WGS84_003, 3000, seed, polar_share=0.5) for seed in range(4)]
    comb = _TileCombiner(tile_res, 0, "cell_u64", None)
    parts = [comb(b) for b in batches[:2]] + [pa.concat_tables([comb(b) for b in batches[2:]])]
    got = fold_tile_partials(parts, tile_res)
    u = np.concatenate([b["cell_u64"].to_numpy() for b in batches])
    tiles, counts = np.unique(su.parent(u, tile_res), return_counts=True)
    assert got.schema.equals(TILE_COUNTS_SCHEMA)
    assert got["tile_u64"].to_numpy().tolist() == tiles.tolist()
    assert got["tile_id"].to_pylist() == su.to_string_fixed(tiles, tile_res).to_pylist()
    assert got["n"].to_numpy().tolist() == counts.tolist()
    assert fold_tile_partials([], tile_res).equals(TILE_COUNTS_SCHEMA.empty_table())


def test_aggregate_tiles_runs_no_exchange(ray_session):
    """The counts come back as one from_arrow Dataset: no Aggregate and
    no sort in its plan or its stats."""
    import ray

    from rhealpixdggs_py_ray.pipelines.tiles import aggregate_tiles

    batch = points_batch(WGS84_003, 5000, 3, polar_share=0.3)
    agg = aggregate_tiles(ray.data.from_arrow(batch).repartition(4), 2)
    tiles, counts = np.unique(su.parent(batch["cell_u64"].to_numpy(), 2), return_counts=True)
    df = agg.to_pandas()
    assert df["tile_u64"].tolist() == tiles.tolist()
    assert df["n"].tolist() == counts.tolist()
    text = str(agg) + agg.stats()
    assert "Aggregate" not in text and "Sort" not in text


def test_aggregate_tiles_empty_input(ray_session):
    """No rows in, no rows out, with the typed (uint64, string, int64)
    schema."""
    import ray

    from rhealpixdggs_py_ray.pipelines.tiles import aggregate_tiles

    empty = pa.table({"cell_u64": pa.array([], type=pa.uint64())})
    agg = aggregate_tiles(ray.data.from_arrow(empty), 3)
    assert agg.count() == 0
    assert agg.schema().base_schema.equals(TILE_COUNTS_SCHEMA)
