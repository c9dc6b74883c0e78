"""Local stand-in for the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` pipeline against its
``oracle_sql()`` DuckDB query at a given scale factor and compares:
row count, schema (column names, sorted), and exact values (columns
sorted by name, rows sorted by all columns) — strictly stronger than
the driver's order-insensitive value hash.

Usage: python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()
SPILL_DIR = "/tmp/duck_spill"


def duckdb_limits(spill_dir: str = SPILL_DIR) -> tuple[int, int]:
    """(memory_limit, max_temp_directory_size) in bytes: half of this
    host's physical memory (Ray's workers share the rest) and half of
    the free disk under the spill directory.  An oracle past either
    limit raises in DuckDB, which reports as one FAIL line, instead of
    the process being OOM-killed or the disk filling."""
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    parent = spill_dir
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    return mem // 2, shutil.disk_usage(parent).free // 2


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        df = result.to_pandas()
        if not len(df) and not len(df.columns):
            # all-empty pipelines: Dataset.to_pandas drops the schema
            # even when result.schema() knows it — rebuild the empty
            # frame from the schema so the compare sees real columns
            sch = result.schema()
            if sch is not None and sch.names:
                df = pa.table({n: pa.array([], type=t) for n, t in
                               zip(sch.names, sch.types)}).to_pandas()
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype) in ("int32", "int16", "int8"):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"schema: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    # dtype-strict: int-vs-float or object mismatches survive canon's
    # value compare but can break a dtype-sensitive driver hash
    for c in sorted(ray_df.columns):
        ra = str(ray_df[c].dtype).lstrip("u")
        sq = str(sql_df[c].dtype).lstrip("u")
        if {ra, sq} == {"int64", "float64"} or (ra != sq and "object" not in (ra, sq)):
            problems.append(f"dtype {c}: ray={ray_df[c].dtype} sql={sql_df[c].dtype}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if av.dtype.kind == "f":
                eq = (av == bv) | (np.isnan(av) & np.isnan(bv))
            else:
                eq = av == bv
            bad = int((~eq).sum())
            if bad:
                i = int(np.flatnonzero(~eq)[0])
                problems.append(f"col {c}: {bad} mismatches, first @{i}: {av[i]!r} vs {bv[i]!r}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="error")
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E

    con = duckdb.connect()
    # heavy oracles (k_truss wedge joins at sf0.1) need disk spill;
    # an in-memory connection has no temp dir and dies OOM instead
    mem, spill = duckdb_limits()
    con.execute(f"SET temp_directory='{SPILL_DIR}'")
    con.execute(f"SET memory_limit='{mem >> 20}MiB'")
    con.execute(f"SET max_temp_directory_size='{spill >> 20}MiB'")
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, sqls = E.queries(), E.oracle_sql()
    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL {name}: ray raised {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        t1 = time.time()
        try:
            sql_df = con.execute(sqls[name]).fetchdf()
        except Exception as exc:
            print(f"FAIL {name}: sql raised {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name} ({t1 - t0:.1f}s): " + "; ".join(problems))
            failed.append(name)
        else:
            print(f"PASS {name}: {len(ray_df)} rows ({t1 - t0:.1f}s ray, {time.time() - t1:.1f}s sql)")
    ray.shutdown()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
