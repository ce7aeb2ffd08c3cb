"""Spans around the benchmark's calls into each layer, kept in memory.

A span records its name, its parent, the round it belongs to and its
start and end. A span's self time is its duration minus the durations
of its children; children never overlap because every call runs on the
one driver thread.

Timing is always on, since the end-to-end metrics are span durations.
Inside ``instrumented(True)`` the tracer adds what only traced rounds
pay for:

* each span opened with ``spark=True`` puts its Spark jobs in a job
  group of its own, and the jobs and stages of that group are counted
  through ``SparkContext.statusTracker()`` once the span ends;
* garbage collections are timed and counted through ``gc.callbacks``.
"""
from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.instrument = False
        self.spans: List[dict] = []
        self.round: object = None  # a round number, "setup" or "warmup"
        self._stack: List[dict] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    @contextmanager
    def span(self, name: str, spark: bool = False) -> Iterator[dict]:
        rec = {
            "id": len(self.spans), "name": name, "round": self.round,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        group = f"perfbench-{rec['id']}" if spark and self.instrument else None
        if group is not None:
            self.sc.setJobGroup(group, name)
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()
            if group is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self._count_jobs(rec, group)

    def _count_jobs(self, rec: dict, group: str) -> None:
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        infos = [tracker.getJobInfo(j) for j in jobs]
        rec["jobs"] = len(jobs)
        rec["stages"] = sum(len(i.stageIds) for i in infos if i is not None)

    # -- garbage collection --------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    @contextmanager
    def instrumented(self, on: bool) -> Iterator[None]:
        """Instrument the spans opened inside this block when ``on``."""
        self.instrument = on
        if on:
            gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            if on:
                gc.callbacks.remove(self._on_gc)
            self.instrument = False

    # -- summaries -----------------------------------------------------

    def by_round(self, rounds) -> Dict[str, List[dict]]:
        """Spans of the given rounds grouped by name, each with its
        duration ``s`` and self time ``self_s``."""
        rounds = set(rounds)
        child_s: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["t1"] - s["t0"]
        out: Dict[str, List[dict]] = defaultdict(list)
        for s in self.spans:
            if s["round"] in rounds:
                dur = s["t1"] - s["t0"]
                out[s["name"]].append({**s, "s": dur, "self_s": dur - child_s[s["id"]]})
        return out
