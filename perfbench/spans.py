"""In-memory spans around the benchmark's calls into each layer, and a
parser for Ray Data's per-operator stats text.

A span has a name, a start, an end, the id of the span open around it
and the run id.  Spans stay in memory until ``Tracer.dump`` writes them
as JSON when the run ends.  A layer's self time is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` costs one
    generator step and records nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of all spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct
        children cover (children of one span never overlap here)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans, "self_s": self.self_times()}, f)


_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP = re.compile(r"^\s*(?:Operator|Suboperator) \d+ (.+?): ")
_TOTAL = re.compile(r"^\s*\* (Remote wall time|Remote cpu time|Output num rows per block): .*?"
                    r"([\d.]+)(us|ms|s)? total")


def parse_stats(text: str) -> list[dict]:
    """Ray Data stats text -> one record per operator (or all-to-all
    sub-operator): name, remote_wall_s, remote_cpu_s, rows_out."""
    ops: list[dict] = []
    for line in text.splitlines():
        m = _OP.match(line)
        if m:
            ops.append({"name": m.group(1), "remote_wall_s": 0.0, "remote_cpu_s": 0.0, "rows_out": 0})
            continue
        m = _TOTAL.match(line)
        if m and ops:
            kind, val, unit = m.group(1), float(m.group(2)), m.group(3)
            if kind == "Remote wall time":
                ops[-1]["remote_wall_s"] = val * _UNIT[unit]
            elif kind == "Remote cpu time":
                ops[-1]["remote_cpu_s"] = val * _UNIT[unit]
            else:
                ops[-1]["rows_out"] = int(val)
    return ops
