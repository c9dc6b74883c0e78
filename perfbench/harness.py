"""One workload run, in its own process (``run.py`` starts it, bounds
it with a timeout and stops whatever it leaves behind).

The run starts one Ray session (4 logical CPUs, so the flagship's two
actor pools and its task stage can all be placed; untraced runs only
keep the cover in it).  Set-up, writing and loading the workload's
seeded inputs, is done several times and its median reported as
``setup_s``.  One untimed job runs first.  Then jobs run back to back
(one client, closed loop) for ``--seconds``, at least one, each after a
host-speed calibration; a traced run times pairs of one untraced and
one traced job instead.  Outputs are checked after the timed loop.  The
last stdout line is the result.  Every file of the run, Ray's included,
stays under ``--work`` in the checkout.

Times are reported in seconds at a reference host speed: the raw time
times ``REF_CALIB_S`` over the run's median calibration time.  This host
drifts up to 2x in speed over minutes; the scaling cancels most of it.
The raw times are printed on the ``timing`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, ROOT]

from spans import Tracer  # noqa: E402
from workloads import LAYER_METRICS, WORKLOADS, layer_unit  # noqa: E402

SETUP_REPS = 5
RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
# Median ``calibrate()`` time on the reference host (1 core, 2026).
REF_CALIB_S = 0.12
# Longest Ray temp dir whose session sockets stay under the 107-byte
# AF_UNIX limit: it gains "/session_<date>_<time>_<us>_<pid>" (at most
# 41 bytes) and "/sockets/plasma_store" (21 bytes).
MAX_RAY_TMP = 44


def ray_temp_dir(work: str) -> str:
    """Ray's temp dir, inside ``work``, named through this process's
    ``/proc/<pid>/cwd`` link (the checkout root) so that its socket
    paths stay short however deep the checkout is.  Ray's processes
    all run while this one does."""
    rel = os.path.relpath(os.path.join(work, "ray"), ROOT)
    path = f"/proc/{os.getpid()}/cwd/{rel}"
    if len(path) > MAX_RAY_TMP:
        raise SystemExit(f"Ray temp dir name too long for its sockets: {path}")
    os.makedirs(path, exist_ok=True)
    return path


def start_session(work: str) -> None:
    tmp = ray_temp_dir(work)
    # Ray's defaults for its other files, also inside the checkout.
    os.environ["RAY_TMPDIR"] = tmp
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=tmp,
        # The object store's file, too, in the checkout, not /dev/shm.
        # Timed jobs make no use of it, so it costs them nothing.
        _plasma_directory=tmp,
        object_store_memory=OBJECT_STORE_BYTES,
        # Workers start in Ray's own directories; the env var, not the
        # driver's sys.path, is what lets them import the package.
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
        # No idle workers at start-up: untraced runs need none.
        _system_config={"prestart_worker_first_driver": False},
    )
    DataContext.get_current().enable_progress_bars = False


def calibrate() -> float:
    """Seconds for a fixed NumPy computation shaped like the point
    kernel (transcendentals over 2**21 doubles, then a sort-based
    unique), best of 3.  It measures how fast this host runs now."""
    import numpy as np

    x = (np.arange(1 << 21, dtype=np.float64) * 0.6180339887) % 1.0
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        y = np.arcsin(2.0 * x - 1.0)
        z = np.sqrt(x) * np.sin(3.0 * y) + np.cos(y)
        np.unique((z * 1e9).astype(np.int64))
        best = min(best, time.perf_counter() - t0)
    return best


def timed_jobs(w, tracer: Tracer, seconds: float, failures: list, calibs: list | None = None):
    """Run jobs until ``seconds`` have passed (at least one); return the
    wall time and output of each.  A job that raises ends the loop.
    With ``calibs``, the host speed is measured before each job."""
    walls, outs = [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        if calibs is not None:
            calibs.append(calibrate())
        t0 = time.perf_counter()
        try:
            out = w.job(tracer)
        except Exception:
            traceback.print_exc()
            failures.append(1)
            break
        walls.append(time.perf_counter() - t0)
        outs.append(out)
    return walls, outs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, args.tiny)

    calibs = [calibrate()]
    t0 = time.perf_counter()
    start_session(args.work)
    session_s = time.perf_counter() - t0
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        w.prepare(args.work)
        setups.append(time.perf_counter() - t0)
    failures: list = []
    # One untimed job first: its output gives the input's shape.
    _, outs = timed_jobs(w, Tracer(run_id, enabled=False), 0, failures)
    shape = w.shape(outs[0]) if outs else {}
    if outs:
        print("input " + json.dumps({"workload": args.workload, "seed": args.seed, **shape}), flush=True)
    tracer = Tracer(run_id, enabled=bool(args.trace))
    if args.trace:
        # Pairs of one untraced and one traced job; their difference is
        # the tracing overhead.  Untraced runs time the same jobs.
        walls, t_walls = [], []
        t_end = time.perf_counter() + args.seconds
        while not failures and (not t_walls or time.perf_counter() < t_end):
            calibs.append(calibrate())
            for tr, sink in ((Tracer(run_id, enabled=False), walls), (tracer, t_walls)):
                wl, ol = timed_jobs(w, tr, 0, failures)
                sink += wl
                outs += ol
    else:
        walls, timed_outs = timed_jobs(w, Tracer(run_id, enabled=False), args.seconds, failures,
                                       calibs)
        outs += timed_outs
    calibs.append(calibrate())
    speed = REF_CALIB_S / statistics.median(calibs)
    print("timing " + json.dumps({"calib_s": calibs, "session_s": session_s, "setup_s": setups,
                                  "job_s": walls}), flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer_values = w.layers(tracer, shape) if args.trace else {}
    attempted = len(outs) + len(failures) + len(w.extra_checks)
    failed = len(failures) + sum(w.check(o) for o in outs) + w.extra_checks.count(False)

    job_s = speed * statistics.median(walls) if walls else 0.0
    if args.trace:
        # Every per-layer metric is printed; those of other workloads read 0.
        values = dict.fromkeys(LAYER_METRICS, 0.0)
        values.update(layer_values)
        if walls and t_walls:
            values["trace.overhead_s"] = statistics.median(t_walls) - statistics.median(walls)
        values[f"{args.workload}.fail_ratio"] = failed / attempted
        metrics = {k: {"value": values[k], "unit": layer_unit(k)} for k in LAYER_METRICS}
        tracer.dump(os.path.join(os.path.dirname(args.work), f"spans-{run_id}.json"))
    else:
        metrics = {
            "setup_s": {"value": speed * statistics.median(setups), "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "items_per_s": {"value": w.items_per_job / job_s if job_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    import ray

    ray.shutdown()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
