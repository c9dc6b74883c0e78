"""Benchmark entry point.

    python3 perfbench/run.py --workload {index_kernel,tile_fold}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a child process
(``harness.py``) in its own session, bounded by a timeout: a stall or
an actor restart loop ends as a failed run with the tail of its stderr,
not a hang.  Whatever the child started (Ray's raylet, GCS and workers
share its process group) is killed and waited for before exit.  Scratch
files go under ``.perfbench/`` in the checkout; a traced run leaves
its spans there as ``spans-<run id>.json``.

The last stdout line is the child's JSON result.  Exit status is 0 only
when the child produced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("index_kernel", "tile_fold")
# The run must end within 180 s; leave room for shutdown and clean-up.
CHILD_TIMEOUT_S = 160
REQUIRED = ("rhealpixdggs_py_ray/__init__.py",)


def group_alive(pgid: int) -> bool:
    """True while any process of the group still exists."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            if os.getpgid(int(pid)) == pgid:
                return True
        except (ProcessLookupError, PermissionError):
            continue
    return False


def stop_group(child: subprocess.Popen, timeout: float = 15.0) -> None:
    """SIGTERM, then SIGKILL, the child's process group; wait until it
    is gone (reaping the child itself, so it does not linger as a
    zombie of the group)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(child.pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + timeout / 2
        while time.monotonic() < deadline:
            child.poll()
            if not group_alive(child.pid):
                return
            time.sleep(0.1)


def tail(path: str, n: int = 40) -> str:
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-n:])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    args = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"run from the repository root: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # Every file of the run, Ray's and temp files too, goes under it.
    work = os.path.join(root, ".perfbench", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=root, PYTHONUNBUFFERED="1", RAY_USAGE_STATS_ENABLED="0",
               TMPDIR=work)
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work] + (["--tiny"] if args.tiny else [])
    err_path = os.path.join(work, "stderr.log")
    # A SIGTERM to this process still stops the child's group (below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(err_path, "w") as err:
        child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                                 text=True, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
            status = f"exit code {child.returncode}"
        except subprocess.TimeoutExpired:
            out, status = "", f"timed out after {CHILD_TIMEOUT_S} s"
        finally:
            stop_group(child)
            child.wait()

    lines = [ln for ln in out.splitlines() if ln.strip()]
    result = None
    if child.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        print(f"{args.workload} run failed ({status}); stderr tail:\n{tail(err_path)}", file=sys.stderr)
        return 1
    for ln in lines[:-1]:
        print(ln)
    print(json.dumps(result))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
