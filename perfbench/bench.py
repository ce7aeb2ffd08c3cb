"""One benchmark run: one workload, one process, one Spark session.

The run sets the workload up several times, warms up untimed, then
times closed-loop rounds for the requested seconds. A round is these
operations in order, each started when the previous one returned:

* ``audit``: ``CoverageIndex.from_spark`` then ``mups_deepdiver``;
* ``breaker``: ``mups_pattern_breaker`` on the round's index;
* ``combiner``: ``mups_pattern_combiner`` on the round's index, only in
  the warm-up round and in instrumented rounds;
* ``remedy``: ``mups_deepdiver(max_level=λ)``, ``uncovered_at_level``,
  ``greedy_hitting_set``, ``append_collected`` and
  ``verify_covered_level``.

A timed round calls each timed operation the workload's ``calls`` times
back to back; the operation's sample is the mean of those calls. Every call's
outputs are checked after the round, outside the timed region. An
operation whose check fails, or that runs out of its time budget, counts
as failed, and a budget overrun skips the rest of its round.
"""
from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, TimeBudgetExceeded
from repro.core.deepdiver import mups_deepdiver
from repro.core.pattern_breaker import mups_pattern_breaker
from repro.core.pattern_combiner import mups_pattern_combiner
from repro.enhance.apply import append_collected, verify_covered_level
from repro.enhance.expand import uncovered_at_level
from repro.enhance.hitting_set import greedy_hitting_set

from spans import Tracer
from workloads import Workload, make_data

SETUPS = 4
MAX_WARMUP_SCANS = 8
#: Every budgeted call gets the time left until this many seconds past
#: the requested measuring time, counted from the process start, so a
#: pathological regression is reported as a failed operation instead of
#: a run that never ends.
BUDGET_MARGIN_S = 120.0

#: End-to-end timing metric -> the operation it times, in round order.
OP_SPANS = {"audit_s": "audit", "breaker_s": "breaker", "remedy_s": "remedy"}
#: PATTERN-COMBINER is checked in the warm-up round and timed in
#: instrumented rounds only. It slows down most when the host is busy:
#: timed in turn with the others in one process for 150 s, its slowest
#: tenth of calls took 1.85x its fastest tenth, against 1.6x for
#: DEEPDIVER and PATTERN-BREAKER, and over ten runs its spread was above
#: the largest bound a gated metric may have. Its share of each round
#: goes to the gated operations instead.
OPS_WITH_COMBINER = ("audit", "breaker", "combiner", "remedy")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return time.perf_counter() - t0


class Run:
    def __init__(self, spark: SparkSession, w: Workload, seed: int, deadline: float):
        self.spark = spark
        self.w = w
        self.seed = seed
        self.deadline = deadline
        self.tr = Tracer(spark.sparkContext)
        self.attempted = 0
        self.failures: List[str] = []
        self.failed_ops = set()  # (round, operation)
        self.df: Optional[DataFrame] = None
        self.pdf = None
        tr = self.tr

        class TracedIndex(CoverageIndex):
            """The program's index; only its constructor gets a span."""

            def __init__(self, *args, **kwargs):
                with tr.span("coverage.index"):
                    super().__init__(*args, **kwargs)

        self.index_cls = TracedIndex

    def limit(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def fail(self, op: str, why: str) -> None:
        self.failed_ops.add((self.tr.round, op))
        self.failures.append(f"round {self.tr.round} {op}: {why}")
        print(f"perfbench: FAILED {op}: {why}", file=sys.stderr)

    # -- set-up --------------------------------------------------------

    def set_up(self) -> None:
        """Generate the data and cache it in Spark, ``SETUPS`` times;
        the last frame is the one the rounds audit."""
        self.tr.round = "setup"
        for _ in range(SETUPS):
            self.attempted += 1
            if self.df is not None:
                self.df.unpersist()
            with self.tr.span("setup"):
                with self.tr.span("synth_data.gen"):
                    pdf = make_data(self.w, self.seed)
                with self.tr.span("spark.load"):
                    df = self.spark.createDataFrame(pdf)
                    df = df.repartition(self.spark.sparkContext.defaultParallelism).cache()
                    df.count()
            self.pdf, self.df = pdf, df

    def check_scan_oracle(self) -> None:
        """The groupBy scan equals a DuckDB GROUP BY over the same data.
        DuckDB is imported here, after the peak RSS has been read."""
        from repro.oracle import assert_equivalent

        self.attempted += 1
        cols = ", ".join(self.w.attrs)
        try:
            assert_equivalent(
                self.df.groupBy(*self.w.attrs).count(),
                f"SELECT {cols}, COUNT(*) AS count FROM data GROUP BY {cols}",
                data=self.pdf,
            )
        except AssertionError as e:
            self.fail("scan", f"groupBy differs from DuckDB: {e}")

    def warm_up(self) -> float:
        """Untimed: scan until the scan stops getting faster, then run one
        full round. Each warm-up scan first appends a few tuples the way
        the remedy does, so the JVM also warms the append-and-verify path.
        Returns the seconds spent."""
        w = self.w
        t0 = time.perf_counter()
        extra = [tuple(int(v) for v in row) for row in self.pdf.to_numpy()[:32]]
        best = math.inf
        for _ in range(MAX_WARMUP_SCANS):
            t = time.perf_counter()
            df = append_collected(self.spark, self.df, extra, w.attrs, w.tau)
            CoverageIndex.from_spark(df, w.attrs, w.cards)
            dt = time.perf_counter() - t
            if dt > 0.95 * best:
                break
            best = dt
        self.round("warmup")
        return time.perf_counter() - t0

    # -- one round -----------------------------------------------------

    def round(self, rid) -> dict:
        """Run and check one round; return its counts, not its outputs,
        so that the heap and the peak RSS do not grow with the rounds."""
        tr = self.tr
        tr.round = rid
        gc.collect()  # every round starts from the same heap state
        # Each output key holds one value per call; "dnf" maps an operation
        # that did not finish to the reason.
        r: dict = {k: [] for k in ("dd", "pb", "pc", "ddl", "m_lam", "combos", "level")}
        r["dnf"] = {}
        gc0 = (tr.gc_s, tr.gc_collections)
        ops = (OPS_WITH_COMBINER if rid == "warmup" or tr.instrument
               else tuple(OP_SPANS.values()))
        with tr.span("round"):
            for op in ops:
                if r["dnf"]:
                    # An overrun means the deadline is near or past; the
                    # remaining operations would each get the minimum budget
                    # and verify_covered_level none at all.
                    r["dnf"][op] = "skipped after an earlier time-budget overrun"
                    continue
                # The warm-up round calls each operation once; it only warms up.
                calls = 1 if rid == "warmup" else self.w.calls.get(op, 1)
                try:
                    with tr.span(op):
                        for _ in range(calls):
                            getattr(self, "_" + op)(r)
                except TimeBudgetExceeded:
                    r["dnf"][op] = "did not finish within its time budget"
        r["python.gc_s"] = tr.gc_s - gc0[0]
        r["python.gc_collections"] = tr.gc_collections - gc0[1]
        self.attempted += len(ops)
        self._check(r)
        counts = {k: len(r[v][0]) for k, v in (("n_mups", "dd"), ("m_lambda", "m_lam"),
                                               ("combos", "combos")) if r[v]}
        if "idx" in r:
            counts["m"] = len(r["idx"].counts)
        return {**counts, **{k: v for k, v in r.items() if k == "dnf" or "." in k}}

    def _audit(self, r: dict) -> None:
        w = self.w
        with self.tr.span("coverage.from_spark", spark=True):
            idx = self.index_cls.from_spark(self.df, w.attrs, w.cards)
        r["idx"] = idx
        c0 = idx.cov_calls
        with self.tr.span("deepdiver"):
            r["dd"].append(mups_deepdiver(idx, w.tau, time_limit=self.limit()))
        r["deepdiver.cov_calls"] = idx.cov_calls - c0

    def _breaker(self, r: dict) -> None:
        idx = r["idx"]
        c0 = idx.cov_calls
        with self.tr.span("pattern_breaker"):
            r["pb"].append(mups_pattern_breaker(idx, self.w.tau, time_limit=self.limit()))
        r["pattern_breaker.cov_calls"] = idx.cov_calls - c0

    def _combiner(self, r: dict) -> None:
        with self.tr.span("pattern_combiner"):
            r["pc"].append(mups_pattern_combiner(r["idx"], self.w.tau, time_limit=self.limit()))

    def _remedy(self, r: dict) -> None:
        w, tr = self.w, self.tr
        with tr.span("remedy.deepdiver"):
            ddl = mups_deepdiver(r["idx"], w.tau, max_level=w.lam, time_limit=self.limit())
        with tr.span("expand"):
            m_lam = sorted(uncovered_at_level(ddl, w.lam, w.cards))
        with tr.span("hitting_set"):
            combos = greedy_hitting_set(m_lam, w.cards, time_limit=self.limit())
        with tr.span("apply.append"):
            df2 = append_collected(self.spark, self.df, combos, w.attrs, w.tau)
        # verify_covered_level takes no time_limit, and its unbounded
        # DEEPDIVER is the remedy's largest call: start it only while the
        # budget lasts, so a slow round fails instead of hanging.
        if time.perf_counter() >= self.deadline:
            raise TimeBudgetExceeded()
        with tr.span("apply.verify", spark=True):
            level = verify_covered_level(df2, w.attrs, w.cards, w.tau)
        for k, v in (("ddl", ddl), ("m_lam", m_lam), ("combos", combos), ("level", level)):
            r[k].append(v)

    # -- correctness ---------------------------------------------------

    def _check(self, r: dict) -> None:
        """Check every call of the round; the first finished DEEPDIVER
        call is the reference the others are compared with."""
        w = self.w
        for op, why in r["dnf"].items():
            self.fail(op, why)
        idx = r.get("idx")
        if idx is not None and idx.n != len(self.pdf):
            self.fail("audit", f"index counts {idx.n} rows, data has {len(self.pdf)}")
        if not r["dd"]:
            return
        dd = r["dd"][0]
        if len(dd) != w.expected_mups:
            self.fail("audit", f"{len(dd)} MUPs, expected {w.expected_mups}")
        if any(x != dd for x in r["dd"][1:]):
            self.fail("audit", "repeated DEEPDIVER calls return different MUPs")
        if any(x != dd for x in r["pb"]):
            self.fail("breaker", "PATTERN-BREAKER and DEEPDIVER MUPs differ")
        if any(x != dd for x in r["pc"]):
            self.fail("combiner", "PATTERN-COMBINER and DEEPDIVER MUPs differ")
        low = {p for p in dd if pt.level(p) <= w.lam}
        for ddl, m_lam, combos, level in zip(r["ddl"], r["m_lam"], r["combos"], r["level"]):
            if ddl != low:
                self.fail("remedy", "level-limited DEEPDIVER disagrees with the full MUP set")
            if len(m_lam) != w.expected_m_lambda:
                self.fail("remedy", f"|M_λ|={len(m_lam)}, expected {w.expected_m_lambda}")
            unhit = count_unhit(m_lam, combos)
            if unhit:
                self.fail("remedy", f"{unhit} patterns of M_λ match no collected combination")
            if level < w.lam:
                self.fail("remedy", f"covered level {level} after the remedy, target {w.lam}")


def count_unhit(patterns, combos) -> int:
    """Patterns matched by none of ``combos`` (X matches every value)."""
    if not patterns:
        return 0
    p = np.asarray(patterns, dtype=np.int64)
    hit = np.zeros(len(p), dtype=bool)
    for c in combos:
        hit |= ((p == pt.X) | (p == np.asarray(c))).all(axis=1)
    return int((~hit).sum())


# -- reporting -------------------------------------------------------------


def _median(xs):
    """Median, or None when an operation never finished."""
    return statistics.median(xs) if xs else None


def _mean(xs):
    return statistics.mean(xs) if xs else None


def _sample(xs, unit, value=_median) -> dict:
    return {"value": value(xs), "unit": unit, "n": len(xs),
            "median": _median(xs), "min": min(xs, default=None),
            "max": max(xs, default=None), "samples": xs}


def _op_times(run: Run, rounds, results, op: str) -> List[float]:
    """Seconds per call of ``op`` in each of ``rounds``, leaving out
    budget overruns."""
    return [s["s"] / run.w.calls[op] for s in run.tr.by_round(rounds)[op]
            if op not in results[s["round"]]["dnf"]]


def end_to_end(run: Run, rounds, results, rss_mib: float) -> Dict[str, dict]:
    setups = run.tr.by_round(["setup"])["setup"]
    out = {"setup_s": _sample([s["s"] for s in setups], "s")}
    for metric, op in OP_SPANS.items():
        # The mean, not the median: on a shared host the driver thread
        # flips between a fast mode and one up to ~1.7x slower, so a
        # median of a few rounds lands in either mode, while the mean
        # follows the share of slow calls smoothly. In a closed loop the
        # mean is also the inverse of throughput.
        out[metric] = _sample(_op_times(run, rounds, results, op), "s", value=_mean)
    out["remedy_combos"] = _sample(
        [results[i]["combos"] for i in rounds if "combos" in results[i]], "count")
    out["peak_rss_mib"] = _sample([rss_mib], "MiB")
    return out


def max_rss_mib() -> float:
    """Peak RSS of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(run: Run, traced, plain, results, extra) -> Dict[str, dict]:
    w = run.w
    spans = run.tr.by_round(traced)
    setup = run.tr.by_round(["setup"])
    res = [results[i] for i in traced]

    def span_s(name, key="s", src=spans):
        return _median([s[key] for s in src[name]])

    def count(key):
        return _median([x[key] for x in res if key in x])

    def ratio(num, den):
        return num / den if num is not None and den else None

    m = count("m")
    mups = count("n_mups")
    combos = count("combos")
    traced_audit = _mean(_op_times(run, traced, results, "audit"))
    plain_audit = _mean(_op_times(run, plain, results, "audit"))
    values = {
        "synth_data.gen_s": (span_s("synth_data.gen", src=setup), "s"),
        "spark.load_s": (span_s("spark.load", src=setup), "s"),
        "spark.session_s": (extra["session_s"], "s"),
        "spark.warmup_s": (extra["warmup_s"], "s"),
        "host.calib_s": (extra["calib"][0], "s"),
        "host.calib_end_s": (extra["calib"][1], "s"),
        "python.base_rss_mib": (extra["base_rss_mib"], "MiB"),
        "coverage.scan_s": (span_s("coverage.from_spark", "self_s"), "s"),
        "coverage.index_s": (span_s("coverage.index"), "s"),
        "coverage.m": (m, "count"),
        "coverage.rows_per_combo": (ratio(len(run.pdf), m), "rows/combo"),
        "spark.scan_jobs": (span_s("coverage.from_spark", "jobs"), "count"),
        "spark.scan_stages": (span_s("coverage.from_spark", "stages"), "count"),
        "deepdiver.s": (span_s("deepdiver"), "s"),
        "deepdiver.cov_calls": (count("deepdiver.cov_calls"), "count"),
        "deepdiver.mups": (mups, "count"),
        "deepdiver.cov_ratio_vs_breaker": (
            ratio(count("deepdiver.cov_calls"), count("pattern_breaker.cov_calls")), "ratio"),
        "pattern_breaker.s": (span_s("pattern_breaker"), "s"),
        "pattern_breaker.cov_calls": (count("pattern_breaker.cov_calls"), "count"),
        "pattern_breaker.cov_per_mup": (ratio(count("pattern_breaker.cov_calls"), mups), "ratio"),
        "pattern_combiner.s": (span_s("pattern_combiner"), "s"),
        "pattern_combiner.seeds": (math.prod(w.cards), "count"),
        "remedy.deepdiver_s": (span_s("remedy.deepdiver"), "s"),
        "expand.s": (span_s("expand"), "s"),
        "expand.m_lambda": (count("m_lambda"), "count"),
        "hitting_set.s": (span_s("hitting_set"), "s"),
        "hitting_set.rounds": (combos, "count"),
        "hitting_set.patterns_per_combo": (ratio(count("m_lambda"), combos), "ratio"),
        "apply.append_s": (span_s("apply.append"), "s"),
        "apply.append_rows": (None if combos is None else w.tau * combos, "count"),
        "apply.verify_s": (span_s("apply.verify"), "s"),
        "spark.verify_jobs": (span_s("apply.verify", "jobs"), "count"),
        "spark.verify_stages": (span_s("apply.verify", "stages"), "count"),
        "python.gc_s": (count("python.gc_s"), "s"),
        "python.gc_collections": (count("python.gc_collections"), "count"),
        "audit.self_s": (span_s("audit", "self_s"), "s"),
        "remedy.self_s": (span_s("remedy", "self_s"), "s"),
        "round.self_s": (span_s("round", "self_s"), "s"),
        "trace.overhead_ratio": (ratio(traced_audit, plain_audit), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def span_summary(run: Run, rounds) -> List[dict]:
    names = {s["id"]: s["name"] for s in run.tr.spans}
    out = []
    for name, ss in run.tr.by_round(rounds).items():
        out.append({
            "span": name,
            "parent": names.get(ss[0]["parent"]),
            "n": len(ss),
            "median_s": _median([s["s"] for s in ss]),
            "median_self_s": _median([s["self_s"] for s in ss]),
        })
    return out


def _print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(f"{title}:")
    for k, m in metrics.items():
        v = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        line = f"  {k:32s} {v:>12s} {m['unit']:10s}"
        if "n" in m:
            line += f" n={m['n']}"
            if m["n"]:
                line += f"  median {m['median']:.6g}  min {m['min']:.6g}  max {m['max']:.6g}"
        print(line)


def run(spark: SparkSession, w: Workload, *, seed: int, seconds: float,
        trace: bool, t_process: float, session_s: float) -> int:
    """Run the benchmark; print the report and, last, the result line.
    Returns the process exit code: 0 if every check passed."""
    bench = Run(spark, w, seed, t_process + seconds + BUDGET_MARGIN_S)
    calib = [calibrate()]
    base_rss_mib = max_rss_mib()
    bench.set_up()
    warmup_s = bench.warm_up()

    results: Dict[int, dict] = {}
    plain: List[int] = []
    traced: List[int] = []
    t0 = time.perf_counter()
    i = 0
    while not plain or (trace and not traced) or (
            # Start a round only if a round of the mean length so far
            # still ends within the measuring time.
            (time.perf_counter() - t0) * (i + 1) / i <= seconds):
        # The traced run alternates plain and instrumented rounds so the
        # tracing overhead is measured within one process.
        on = trace and i % 2 == 1
        with bench.tr.instrumented(on):
            r = bench.round(i)
        results[i] = r
        (traced if on else plain).append(i)
        i += 1
    calib.append(calibrate())
    e2e = end_to_end(bench, plain, results, max_rss_mib())
    bench.check_scan_oracle()

    print(f"perfbench workload={w.name} seed={seed} data_seed={w.data_seed} "
          f"master={spark.sparkContext.master} rounds={len(plain)}+{len(traced)} traced "
          f"host.calib_s={calib[0]:.4f}->{calib[1]:.4f}")
    _print_table("end-to-end (setup_s: median of set-ups; other times: mean per call "
                 "over rounds)", e2e)
    record = {
        "workload": w.name, "seed": seed, "params": w.params,
        "master": spark.sparkContext.master, "rounds": len(plain), "setups": SETUPS,
        "session_s": session_s, "warmup_s": warmup_s, "calib_s": calib,
        "base_rss_mib": base_rss_mib,
        "end_to_end": e2e, "failures": bench.failures,
    }
    if trace:
        layer = per_layer(bench, traced, plain, results,
                          {"session_s": session_s, "warmup_s": warmup_s, "calib": calib,
                           "base_rss_mib": base_rss_mib})
        _print_table("per layer (traced rounds)", layer)
        record.update(traced_rounds=len(traced), per_layer=layer,
                      spans=span_summary(bench, traced))
    print("RECORD " + json.dumps(record, default=str))
    metrics = layer if trace else e2e
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failed_ops),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if not bench.failures else 1
