"""Flagship pipeline: spatial-join + tile-assignment over the image
table (the BASELINE.json headline metric).

Stages (all streaming, zero-copy Arrow):

    read_parquet (columns pruned)
      -> map_batches(CellIndexer)         actor pool, res-9 cell per row
      -> [optional] CoverSemiJoin         broadcast polyfill cover
      -> tile assignment (suid.parent)    mask+shift, no shuffle
      -> write_parquet partitioned by face / tile prefix  (resumable)

Payload discipline at 100 TB: the ``bytes`` column never enters a
shuffle — pipelines that only need coordinates read (image_id, phash)
and the payload-fidelity check is a separate actor-pool pass that joins
back by image_id only when demanded (SURVEY.md §4 memory row).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rhealpixdggs_py_ray.core import suid as su
from rhealpixdggs_py_ray.core.config import EngineConfig, WGS84_003
from rhealpixdggs_py_ray.sources.images import read_images
from rhealpixdggs_py_ray.stages.indexer import CellIndexer
from rhealpixdggs_py_ray.stages.join import CoverSemiJoin, make_cover_ref
from rhealpixdggs_py_ray import sizing


def index_images(
    path: str,
    cfg: EngineConfig = WGS84_003,
    resolution: int = 9,
    with_payload: bool = False,
    concurrency=None,
    batch_size: int = 65536,
    override_num_blocks: int | None = None,
):
    """Image table -> Dataset with (image_id, phash, lon, lat, cell_u64,
    cell_id, face [, payload columns]).  Column pruning at the read."""
    columns = None if with_payload else ["image_id", "phash", "caption"]
    ds = read_images(path, columns=columns, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        CellIndexer,
        fn_constructor_kwargs={"cfg": cfg, "resolution": resolution},
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=concurrency or sizing.pool(),
    )


def spatial_join_tiling(
    path: str,
    region_polygon=None,
    cfg: EngineConfig = WGS84_003,
    resolution: int = 9,
    tile_res: int = 3,
    cover_res: int = 3,
    out_dir: str | None = None,
    concurrency=None,
    batch_size: int = 65536,
    override_num_blocks: int | None = None,
):
    """The headline pipeline.  Returns the (lazy) joined+tiled Dataset;
    if ``out_dir`` is given, also writes partitioned parquet (one
    directory per face) and returns the Dataset read back lazily."""
    ds = index_images(
        path,
        cfg=cfg,
        resolution=resolution,
        concurrency=concurrency or sizing.pool(),
        batch_size=batch_size,
        override_num_blocks=override_num_blocks,
    )
    if region_polygon is not None:
        cover_ref, ncells = make_cover_ref(region_polygon, cover_res, cfg=cfg, plane=False)
        ds = ds.map_batches(
            CoverSemiJoin,
            fn_constructor_args=(cover_ref, cover_res),
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
            concurrency=concurrency or sizing.pool(),
        )

    def assign_tile(batch: pa.Table) -> pa.Table:
        u = batch["cell_u64"].to_numpy(zero_copy_only=False)
        tile = su.parent(u, tile_res)
        batch = batch.append_column("tile_u64", pa.array(tile, type=pa.uint64()))
        return batch.append_column(
            "tile_id", su.to_string_fixed(tile, tile_res)
        )

    ds = ds.map_batches(assign_tile, batch_format="pyarrow", batch_size=batch_size,
                        zero_copy_batch=True)
    if out_dir is not None:
        ds.write_parquet(out_dir, partition_cols=["face"])
        import ray.data

        return ray.data.read_parquet(out_dir)
    return ds
