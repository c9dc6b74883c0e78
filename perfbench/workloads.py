"""The two workloads.  Each drives only shipped entry points and puts
most of its time on a different layer:

- ``index_kernel``: the point kernel (stages.indexer, stages.join,
  core.*) in one process, no Ray Data execution;
- ``tile_fold``: the tile roll-up's fold (pipelines.tiles' combiner and
  the per-tile sum), in one process; traced runs add the same roll-up
  through Ray Data (pipelines.flagship, pipelines.tiles).

A workload writes its inputs in ``prepare`` (set-up), runs one unit of
timed work in ``job``, checks a job's output in ``check`` (untimed),
and reports per-layer metrics from a traced run in ``layers``.
"""

from __future__ import annotations

import os
import re
import statistics

import numpy as np

from inputs import BAND, read_batches, write_image_table, write_points
from spans import Tracer, parse_stats

WGS_RES = 9
TILE_RES = 4
RAY_ROWS = 262_144


def _iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def chain_tile_counts(batches, cover_res: int, tracer: Tracer | None = None, sample_every: int = 0):
    """The in-process stage chain: CellIndexer -> CoverSemiJoin ->
    su.parent(., 4), folded to per-tile counts.  Returns the counts and
    the input's shape (rows, polar share, distinct tiles, cover cells,
    kept ratio), plus every ``sample_every``-th (phash, cell_id) row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rhealpixdggs_py_ray.core import suid as su
    from rhealpixdggs_py_ray.core.config import WGS84_003
    from rhealpixdggs_py_ray.stages.indexer import CellIndexer
    from rhealpixdggs_py_ray.stages.join import CoverSemiJoin, make_cover_ref

    tr = tracer or Tracer("", enabled=False)
    with tr.span("stages.join.make_cover_ref"):
        cover_ref, n_cover = make_cover_ref(BAND, cover_res)
        semi = CoverSemiJoin(cover_ref, cover_res)
    indexer = CellIndexer(WGS84_003, WGS_RES)
    tiles, samples, rows, polar = [], [], 0, 0
    for b in batches:
        with tr.span("stages.indexer.CellIndexer"):
            out = indexer(b)
        with tr.span("stages.join.CoverSemiJoin"):
            hit = semi(out)
        with tr.span("core.suid.parent"):
            t = su.parent(hit["cell_u64"].to_numpy(zero_copy_only=False), TILE_RES)
        tiles.append(t)
        rows += out.num_rows
        polar += pc.sum(pc.is_in(out["face"], pa.array([0, 5], pa.int8()))).as_py() or 0
        if sample_every:
            idx = pa.array(np.arange(0, out.num_rows, sample_every))
            samples.append(pc.take(out.select(["phash", "cell_id"]), idx))
    all_tiles = np.concatenate(tiles)
    uq, counts = np.unique(all_tiles, return_counts=True)
    shape = {"rows": rows, "polar_share": polar / rows, "distinct_tiles": len(uq),
             "cover_cells": n_cover, "kept_ratio": len(all_tiles) / rows}
    return {"tiles": uq, "counts": counts, "shape": shape,
            "sample": pa.concat_tables(samples) if samples else None}


class IndexKernel:
    name = "index_kernel"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_points = 65_536 if tiny else 16 * 65_536
        self.items_per_job = self.n_points
        self.extra_checks: list[bool] = []
        self.cover_res = 3
        self.batches = None
        self.ref = None

    def prepare(self, work: str) -> None:
        path = os.path.join(work, "points.parquet")
        write_points(path, self.seed, self.n_points)
        self.batches = read_batches(path)

    def job(self, tracer: Tracer):
        with tracer.span("index_kernel.job"):
            out = chain_tile_counts(self.batches, self.cover_res, tracer, sample_every=512)
        return out

    def check(self, out) -> int:
        """Failed operations of one job (0 or 1): tile counts repeat
        exactly across jobs, and the first job's sampled cells equal
        DuckDB's oracle.cell_from_point_sql."""
        if self.ref is None:
            self.ref = dict(out, cells_ok=_oracle_cells_match(out["sample"]))
        ref = self.ref
        return int(not (ref["cells_ok"] and np.array_equal(out["tiles"], ref["tiles"])
                        and np.array_equal(out["counts"], ref["counts"])))

    def shape(self, out) -> dict:
        return out["shape"]

    def layers(self, tracer: Tracer, shape: dict) -> dict:
        """Per-layer ns/pt from the traced jobs, plus a split of the
        CellIndexer stage measured on the same batches outside it."""
        from rhealpixdggs_py_ray.core import index as idx
        from rhealpixdggs_py_ray.core import projection as prj
        from rhealpixdggs_py_ray.core import suid as su
        from rhealpixdggs_py_ray.core.config import WGS84_003
        from rhealpixdggs_py_ray.fixtures import phash_to_lonlat

        jobs = len(tracer.durations("index_kernel.job"))
        pts = jobs * self.n_points
        with tracer.span("index_kernel.split"):
            for b in self.batches:
                ph = b["phash"].to_numpy()
                with tracer.span("fixtures.phash_to_lonlat"):
                    lon, lat = phash_to_lonlat(ph)
                with tracer.span("core.projection.forward"):
                    prj.forward(WGS84_003, lon, lat)
                with tracer.span("core.index.cell_from_point"):
                    u = idx.cell_from_point(WGS84_003, WGS_RES, lon, lat, plane=False)
                with tracer.span("core.suid.to_string_fixed"):
                    su.to_string_fixed(u, WGS_RES)
        ns = lambda name, n: 1e9 * tracer.total(name) / n  # noqa: E731
        out = {
            "fixtures.phash_to_lonlat.ns_per_pt": ns("fixtures.phash_to_lonlat", self.n_points),
            "core.projection.forward.ns_per_pt": ns("core.projection.forward", self.n_points),
            "core.index.cell_from_point.ns_per_pt": ns("core.index.cell_from_point", self.n_points),
            "core.suid.to_string_fixed.ns_per_pt": ns("core.suid.to_string_fixed", self.n_points),
            "stages.indexer.CellIndexer.ns_per_pt": ns("stages.indexer.CellIndexer", pts),
            "stages.join.make_cover_ref.s": tracer.total("stages.join.make_cover_ref") / jobs,
            "stages.join.CoverSemiJoin.ns_per_pt": ns("stages.join.CoverSemiJoin", pts),
            "core.suid.parent.ns_per_pt": ns("core.suid.parent", pts),
            "index_kernel.job.self_ns_per_pt": 1e9 * tracer.self_times()["index_kernel.job"] / pts,
        }
        split = sum(out[k] for k in ("fixtures.phash_to_lonlat.ns_per_pt",
                                     "core.index.cell_from_point.ns_per_pt",
                                     "core.suid.to_string_fixed.ns_per_pt"))
        out["index_kernel.split_residual_ns_per_pt"] = out["stages.indexer.CellIndexer.ns_per_pt"] - split
        per_batch = [1e9 * d / b.num_rows for d, b in zip(
            tracer.durations("stages.indexer.CellIndexer"), self.batches * jobs)]
        out["stages.indexer.CellIndexer.iqr_ns_per_pt"] = _iqr(per_batch)
        out["stages.join.cover_cells"] = shape["cover_cells"]
        out["stages.join.kept_ratio"] = shape["kept_ratio"]
        return out


def _oracle_cells_match(sample) -> bool:
    """DuckDB over oracle.cell_from_point_sql on the sampled points."""
    import duckdb
    import pyarrow as pa

    from rhealpixdggs_py_ray import oracle
    from rhealpixdggs_py_ray.fixtures import phash_to_lonlat

    lon, lat = phash_to_lonlat(sample["phash"].to_numpy())
    pts = pa.table({"id": pa.array(np.arange(sample.num_rows, dtype=np.int64)),
                    "lon": pa.array(lon), "lat": pa.array(lat)})
    con = duckdb.connect()
    con.register("bench_points", pts)
    sql = oracle.cell_from_point_sql("SELECT id, lon, lat FROM bench_points", WGS_RES)
    got = con.execute(f"SELECT id, cell_id FROM {sql} ORDER BY id").fetchall()
    con.close()
    want = sample["cell_id"].to_pylist()
    return len(got) == len(want) and all(c == w for (_, c), w in zip(got, want))


class TileFold:
    """The tile roll-up's fold, in process.  Set-up indexes the seeded
    points and keeps those in the res-2 band cover, as
    ``spatial_join_tiling`` does.  A job runs the shipped
    ``pipelines.tiles._TileCombiner`` on every batch and sums the
    partials per tile, the sum ``aggregate_tiles``' exchange computes.

    The same roll-up through Ray Data (``spatial_join_tiling`` then
    ``aggregate_tiles``) runs once per traced run over the first
    ``RAY_ROWS`` points, for its per-operator stats and an output check.
    Its wall time spread 16-48% of the median between runs on a 1-core
    host, too wide for an end-to-end metric.
    """

    name = "tile_fold"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_rows = 65_536 if tiny else 16 * 65_536
        self.work = None
        self.kept = None
        self.items_per_job = 0
        self.ref = None
        self.extra_checks: list[bool] = []

    def prepare(self, work: str) -> None:
        from rhealpixdggs_py_ray.core.config import WGS84_003
        from rhealpixdggs_py_ray.stages.indexer import CellIndexer
        from rhealpixdggs_py_ray.stages.join import CoverSemiJoin, make_cover_ref

        self.work = work
        path = os.path.join(work, "points.parquet")
        write_points(path, self.seed, self.n_rows)
        cover_ref, _ = make_cover_ref(BAND, 2)
        semi, indexer = CoverSemiJoin(cover_ref, 2), CellIndexer(WGS84_003, WGS_RES)
        self.kept = [semi(indexer(b)) for b in read_batches(path)]
        self.items_per_job = sum(b.num_rows for b in self.kept)

    def job(self, tracer: Tracer):
        import pyarrow as pa

        from rhealpixdggs_py_ray.pipelines.tiles import _TileCombiner

        # aggregate_tiles' defaults: 3 salt bits from the phash column
        combiner = _TileCombiner(TILE_RES, 3, "cell_u64", "phash")
        parts = []
        for b in self.kept:
            with tracer.span("pipelines.tiles._TileCombiner"):
                parts.append(combiner(b))
        with tracer.span("tile_fold.merge"):
            t = pa.concat_tables(parts)
            uq, inv = np.unique(t["tile_u64"].to_numpy(), return_inverse=True)
            counts = np.bincount(inv, weights=t["n_partial"].to_numpy(), minlength=len(uq))
        return {"tiles": uq, "counts": counts.astype(np.int64), "partial_rows": t.num_rows}

    def _reference(self) -> dict:
        if self.ref is None:
            self.ref = chain_tile_counts(read_batches(os.path.join(self.work, "points.parquet")), 2)
        return self.ref

    def check(self, out) -> int:
        """Failed operations of one job (0 or 1): per-tile counts equal
        the in-process stage chain's (su.parent + np.unique, no
        combiner) over the same rows."""
        ref = self._reference()
        return int(not (np.array_equal(out["tiles"], ref["tiles"])
                        and np.array_equal(out["counts"], ref["counts"])))

    def shape(self, out) -> dict:
        return self._reference()["shape"]

    def layers(self, tracer: Tracer, shape: dict) -> dict:
        """Combiner and merge ns/row from the traced jobs, then one Ray
        Data roll-up of the same rows: its per-operator stats, plan
        times and wait time.  Its output check goes to
        ``extra_checks``."""
        from rhealpixdggs_py_ray.pipelines.flagship import spatial_join_tiling
        from rhealpixdggs_py_ray.pipelines.tiles import aggregate_tiles

        rows = len(tracer.durations("tile_fold.merge")) * self.items_per_job
        out = {
            "pipelines.tiles._TileCombiner.ns_per_row": 1e9 * tracer.total("pipelines.tiles._TileCombiner") / rows,
            "tile_fold.merge.ns_per_row": 1e9 * tracer.total("tile_fold.merge") / rows,
        }
        # The first RAY_ROWS points only: over all of them the roll-up
        # takes ~35 s cold here, and a traced run must end within 180 s.
        images = os.path.join(self.work, "images")
        write_image_table(images, self.seed, min(RAY_ROWS, self.n_rows))
        with tracer.span("pipelines.flagship.spatial_join_tiling"):
            ds = spatial_join_tiling(images, BAND, cover_res=2, tile_res=TILE_RES)
        with tracer.span("pipelines.tiles.aggregate_tiles"):
            agg = aggregate_tiles(ds, TILE_RES)
        with tracer.span("tile_rollup.execute"):
            df = agg.to_pandas().sort_values("tile_u64")
        ref = chain_tile_counts(read_batches(images), 2)
        self.extra_checks.append(
            np.array_equal(df["tile_u64"].to_numpy().astype(np.uint64), ref["tiles"])
            and np.array_equal(df["n"].to_numpy(), ref["counts"]))
        ops = operator_metrics(parse_stats(agg.stats()))
        out.update({f"tile_rollup.op.{k}": v for k, v in ops.items()})
        cpu = sum(v for k, v in ops.items() if k.endswith(".remote_cpu_s"))
        out["pipelines.flagship.spatial_join_tiling.plan_s"] = tracer.total("pipelines.flagship.spatial_join_tiling")
        out["pipelines.tiles.aggregate_tiles.plan_s"] = tracer.total("pipelines.tiles.aggregate_tiles")
        out["tile_rollup.execute_s"] = tracer.total("tile_rollup.execute")
        out["tile_rollup.wait_s"] = out["tile_rollup.execute_s"] - cpu
        rows_in = ops.get("assign_tile-TileCombiner.rows_out", 0)
        kept = ops.get("CoverSemiJoin.rows_out", 0)
        out["pipelines.tiles.exchange_rows_in"] = rows_in
        out["pipelines.tiles.combine_ratio"] = rows_in / kept if kept else 0.0
        return out


# Ray Data operator names in tile_rollup's stats -> metric stems.
_OP_NAMES = {
    "ReadParquet": "ReadParquet",
    "MapBatches(CellIndexer)": "CellIndexer",
    "MapBatches(CoverSemiJoin)": "CoverSemiJoin",
    "MapBatches(assign_tile)->MapBatches(_TileCombiner)": "assign_tile-TileCombiner",
    "MapBatches(add_id)": "add_id",
}


def operator_metrics(ops: list[dict]) -> dict:
    """Per-operator remote wall/cpu and rows out, keyed by a stable
    stem.  Ray's stats break out the map and reduce sub-operators of
    the first (salted) Aggregate only; the final Aggregate reads
    "[execution cached]" and is folded into the first."""
    out: dict = {}
    for op in ops:
        name = re.sub(r"->SplitBlocks\(\d+\)$", "", op["name"])
        stem = {"AggregateMap": "Aggregate.map", "AggregateReduce": "Aggregate.reduce"}.get(
            name, _OP_NAMES.get(name))
        if stem is None or f"{stem}.rows_out" in out:
            continue
        for k in ("remote_wall_s", "remote_cpu_s", "rows_out"):
            out[f"{stem}.{k}"] = op[k]
    return out


_TILE_OPS = ("ReadParquet", "CellIndexer", "CoverSemiJoin", "assign_tile-TileCombiner",
             "Aggregate.map", "Aggregate.reduce", "add_id")

# Every per-layer metric a traced run prints, in BENCHMARK.json's order.
LAYER_METRICS = [
    "fixtures.phash_to_lonlat.ns_per_pt",
    "core.projection.forward.ns_per_pt",
    "core.index.cell_from_point.ns_per_pt",
    "core.suid.to_string_fixed.ns_per_pt",
    "stages.indexer.CellIndexer.ns_per_pt",
    "stages.indexer.CellIndexer.iqr_ns_per_pt",
    "index_kernel.split_residual_ns_per_pt",
    "stages.join.make_cover_ref.s",
    "stages.join.cover_cells",
    "stages.join.CoverSemiJoin.ns_per_pt",
    "stages.join.kept_ratio",
    "core.suid.parent.ns_per_pt",
    "index_kernel.job.self_ns_per_pt",
    *(f"tile_rollup.op.{op}.{k}" for op in _TILE_OPS
      for k in ("remote_wall_s", "remote_cpu_s", "rows_out")),
    "pipelines.flagship.spatial_join_tiling.plan_s",
    "pipelines.tiles.aggregate_tiles.plan_s",
    "pipelines.tiles.exchange_rows_in",
    "pipelines.tiles.combine_ratio",
    "tile_rollup.execute_s",
    "tile_rollup.wait_s",
    "pipelines.tiles._TileCombiner.ns_per_row",
    "tile_fold.merge.ns_per_row",
    "index_kernel.fail_ratio",
    "tile_fold.fail_ratio",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith(("ns_per_pt", "ns_per_row")):
        return "ns"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


WORKLOADS = {w.name: w for w in (IndexKernel, TileFold)}
