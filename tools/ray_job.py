"""Cluster job entrypoint — the `ray job submit` launch path of the
north rule (BASELINE.json: "launched via ray job submit on fixed-size
clusters at N and 4N nodes").

On a real cluster:

    ray job submit --working-dir . -- \
        python tools/ray_job.py --input /data/images --out /data/tiles \
        --resolution 9 --tile-res 4

The job connects to the cluster Ray (`RAY_ADDRESS` from the job
runtime), streams the image table through the indexing + tiling
pipeline with per-partition checkpoints, and prints one JSON line of
lineage + metrics.  Locally (this sandbox) it runs single-node:

    python tools/ray_job.py --rows 1000000 --out /tmp/ray_job_out

This is the ONLY script besides bench.py and the test fixture that owns
a Ray session; `__ray_entry__` / library code never call ray.init().
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", default=None,
                    help="image-table directory (parquet/Lance); default: "
                         "generate --rows rows in-task")
    ap.add_argument("--rows", type=int, default=1_000_000,
                    help="rows to generate when --input is absent")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--resolution", type=int, default=9)
    ap.add_argument("--tile-res", type=int, default=4)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local-mode CPU cap (ignored on a cluster)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():  # cluster jobs arrive pre-initialized
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)

    import pyarrow as pa

    from rhealpixdggs_py_ray.core import index as idx
    from rhealpixdggs_py_ray.core import suid as su
    from rhealpixdggs_py_ray.core.config import WGS84_003
    from rhealpixdggs_py_ray.fixtures import phash_to_lonlat

    t0 = time.time()
    if args.input:
        from rhealpixdggs_py_ray.sources.images import read_images

        ds = read_images(args.input)
    else:
        from rhealpixdggs_py_ray.sources.generator import ImagesDatasource

        ds = ray.data.read_datasource(
            ImagesDatasource(args.rows, meta_only=True)
        )

    res, tres = args.resolution, args.tile_res
    cfg = WGS84_003

    class IndexStage:
        def __init__(self):
            cfg._tables()

        def __call__(self, batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            lon, lat = phash_to_lonlat(
                batch["phash"].to_numpy(zero_copy_only=False)
            )
            u = idx.cell_from_point(cfg, res, lon, lat, plane=False)
            cell = pa.array(su.to_string_fixed(u, res))
            # tile/shard are PREFIXES of the cell string: slice, don't
            # run the SUID codec three times per row
            return pa.table({
                "image_id": batch["image_id"],
                "cell_id": cell,
                "tile_id": pc.utf8_slice_codeunits(cell, 0, 1 + tres),
                # output partition key: res-1 prefix (54 dirs) — a
                # resumable run skips finished shards; res-4 tiles
                # would explode into 39k hive partitions
                "shard": pc.utf8_slice_codeunits(cell, 0, 2),
            })

    out = ds.map_batches(
        IndexStage, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 8), batch_size=65536,
    )
    n = ds.count()  # metadata count on the SOURCE — the map stage is
    #                 1:1, so counting `out` would re-execute lineage
    out.write_parquet(args.out, partition_cols=["shard"])
    wall = time.time() - t0
    print(json.dumps({
        "job": "index+tile", "rows": n, "wall_sec": round(wall, 3),
        "rows_per_sec": round(n / wall),
        "resolution": res, "tile_res": tres, "out": args.out,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
