"""In-memory spans around the benchmark's calls into hampack modules.

A span records name, start, end, parent span and job id; spans are kept
in a list and written out once, when the run ends.  ``NULL_TRACER`` has
the same interface and records nothing, for the untraced runs.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

# layer spans recorded by jobs.py; the order is the order of the table
LAYERS = (
    "core.parse_code",
    "core.format_code",
    "constructions.build",
    "linalg.gf2_rank",
    "bounds",
    "analysis.verify_packing.q2",
    "analysis.verify_packing.qary",
    "analysis.unitrade",
    "analysis.structure",
    "analysis.distributions",
    "partitions",
    "search.canonical_form",
    "search.are_equivalent",
    "search.classify_extended_unitrades",
    "search.min_extended_unitrade_size",
    "search.max_packing_size",
)
JOB = "job"


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name: str, **counts):
        return nullcontext(counts)

    def job(self, job_id: int):
        return nullcontext({})


NULL_TRACER = NullTracer()


class Tracer:
    """Records (name, start, end, parent, job, counts) tuples in memory,
    with times read from ``clock``."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job_id: int | None = None

    @contextmanager
    def span(self, name: str, **counts):
        """Time the block; the yielded dict takes counts known only after it."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                  "job": self._job_id, "counts": counts}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = self.clock()
        try:
            yield counts
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        self._job_id = job_id
        try:
            with self.span(JOB) as counts:
                yield counts
        finally:
            self._job_id = None

    def layer_table(self, scale: dict[int, float] | None = None) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds, summed counts.

        Self time is a span's duration minus the part its children cover.
        ``scale`` maps a job id to the factor its spans' durations are
        multiplied by (see speed.py); spans of other jobs keep theirs.
        """
        scale = scale or {}
        durations = [(rec["end"] - rec["start"]) * scale.get(rec["job"], 1.0) for rec in self.spans]
        child_time = [0.0] * len(self.spans)
        for rec, dur in zip(self.spans, durations):
            if rec["parent"] is not None:
                child_time[rec["parent"]] += dur
        table: dict[str, dict] = {}
        for i, (rec, dur) in enumerate(zip(self.spans, durations)):
            row = table.setdefault(rec["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[i]
            for key, value in rec["counts"].items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return table

    def write(self, path: Path, table: dict, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "layers": table, **extra}
        path.write_text(json.dumps(payload) + "\n")
