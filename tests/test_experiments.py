"""Smoke tests for every experiment harness at tiny scale: rows are
well-formed, DNFs are honest, and the headline qualitative claims hold."""
import pytest

from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.experiments import classifier_effect, compas_validation, mup_perf
from repro.experiments.common import DNF, fmt_seconds, show_rows, timed
from repro.experiments.enhance_perf import (
    enhance_dimensions_sweep,
    enhance_threshold_sweep,
)
from repro.experiments.mup_perf import (
    build_airbnb_index,
    datasize_sweep,
    dimensions_sweep,
    level_histogram,
    level_limited_sweep,
    threshold_sweep,
)


def test_timed_success():
    secs, val = timed(lambda: 42)
    assert val == 42 and secs is not DNF and secs >= 0


def test_timed_dnf():
    from repro.core.coverage import TimeBudgetExceeded

    def boom():
        raise TimeBudgetExceeded()

    secs, val = timed(boom)
    assert secs is DNF and val is None


def test_fmt_seconds():
    assert fmt_seconds(DNF) == "DNF"
    assert fmt_seconds(1.234) == "1.23"


def test_show_rows_markdown():
    md = show_rows([
        {"a": 1, "seconds": DNF, "rate": 1e-05},
        {"a": 2, "seconds": 0.5, "rate": 1e-4},
    ])
    assert "| a | seconds |" in md
    assert "DNF" in md
    assert "0.50" in md
    assert "1e-05" in md and "0.0001" in md
    assert "| 0.000 |" not in md  # the old fixed 3-decimal rendering of both rates


def test_t1_compas_validation(spark):
    rows = compas_validation.run(spark, n=3000, tau=10)
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["total_mups"] > 0
    assert metrics["min_single_value_coverage"] >= 10
    assert "mups_level_1" not in metrics  # no level-1 MUP, as in the paper


def test_t2_classifier_effect():
    rows = classifier_effect.run(hf_train_counts=(0, 40, 80))
    hf = [r for r in rows if r["setting"] == "hf_test"]
    assert len(hf) == 3
    # Remedying coverage helps: full-coverage accuracy beats zero-coverage.
    assert hf[-1]["accuracy"] > hf[0]["accuracy"]


def test_t3_threshold_sweep_tiny(spark):
    rows = threshold_sweep(
        spark, dataset="airbnb", n=5000, d=7, rates=(1e-3, 1e-2), time_limit=60.0
    )
    assert len(rows) == 6  # 2 rates x 3 algorithms
    by_setting = {}
    for r in rows:
        assert r["tau"] >= 1
        by_setting.setdefault((r["rate"],), set()).add(r["n_mups"])
    # All algorithms that finished agree on the MUP count.
    for counts in by_setting.values():
        assert len(counts - {None}) == 1


def test_each_algorithm_gets_a_cold_index(monkeypatch):
    # Every (setting, algorithm) call is timed on its own index, so no
    # algorithm reuses the memoised cells an earlier call built.
    idx = CoverageIndex.from_rows([(0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 0)], [2, 2, 2])
    monkeypatch.setattr(mup_perf, "build_airbnb_index", lambda spark, **kw: idx)
    seen = []
    for name, fn in list(mup_perf.ALGORITHMS.items()):
        def spy(index, tau, *, _fn=fn, **kw):
            seen.append((index, len(index._cells)))
            return _fn(index, tau, **kw)
        monkeypatch.setitem(mup_perf.ALGORITHMS, name, spy)
    rows = threshold_sweep(
        None, dataset="airbnb", rates=(0.3, 0.6), algos=tuple(mup_perf.ALGORITHMS)
    )
    assert len(rows) == len(seen) == 2 * len(mup_perf.ALGORITHMS)
    assert all(r["n_mups"] for r in rows)
    assert len({id(i) for i, _ in seen} | {id(idx)}) == len(seen) + 1
    assert [n for _, n in seen] == [0] * len(seen)
    assert not idx._cells


def test_t4_bluenile_tiny(spark):
    rows = threshold_sweep(
        spark, dataset="bluenile", n=5000, rates=(1e-3,), time_limit=60.0
    )
    assert len(rows) == 3
    assert {r["algorithm"] for r in rows} == {
        "pattern_breaker", "pattern_combiner", "deepdiver"
    }


def test_t5_datasize_tiny(spark):
    rows = datasize_sweep(spark, sizes=(2000, 5000), d=7, rate=1e-2, time_limit=60.0)
    assert len(rows) == 6
    assert {r["n"] for r in rows} == {2000, 5000}


def test_t6_dimensions_tiny(spark):
    rows = dimensions_sweep(spark, n=5000, dims=(5, 7), rate=1e-2, time_limit=60.0)
    assert {r["d"] for r in rows} == {5, 7}


def test_t7_level_limited_tiny(spark):
    rows = level_limited_sweep(
        spark, n=5000, dims=(10, 14), rate=1e-2, max_level=2, time_limit=60.0
    )
    assert len(rows) == 2
    for r in rows:
        assert r["seconds"] is not DNF
        assert r["n_mups"] is not None


def test_f6_level_histogram_tiny(spark):
    rows = level_histogram(spark, n=500, d=7, tau=20)
    levels = [r["level"] for r in rows]
    assert levels == sorted(set(levels)) and all(r["n_mups"] > 0 for r in rows)
    mups = mups_deepdiver(build_airbnb_index(spark, n=500, d=7), 20)
    assert sum(r["n_mups"] for r in rows) == len(mups)


def test_t8_enhance_threshold_tiny(spark):
    rows = enhance_threshold_sweep(
        spark, n=5000, d=7, rates=(1e-2,), lams=(2,), include_naive=True,
        time_limit=60.0,
    )
    assert [r["algorithm"] for r in rows] == ["greedy", "dense", "naive"]
    greedy = next(r for r in rows if r["algorithm"] == "greedy")
    naive = next(r for r in rows if r["algorithm"] == "naive")
    if greedy["seconds"] is not DNF and naive["seconds"] is not DNF:
        assert greedy["n_input"] == naive["n_input"]
        assert greedy["n_output"] <= greedy["n_input"]
    dense = next(r for r in rows if r["algorithm"] == "dense")
    if dense["seconds"] is not DNF and naive["seconds"] is not DNF:
        # Same argmax and tie-break as the naive scan: the same output.
        assert dense["n_output"] == naive["n_output"]


def test_t9_enhance_dimensions_tiny(spark):
    rows = enhance_dimensions_sweep(
        spark, n=5000, dims=(5, 7), lams=(2, 3), rate=1e-2, time_limit=60.0
    )
    assert len(rows) == 8
    assert [r["algorithm"] for r in rows[:2]] == ["greedy", "dense"]
    for r in rows:
        if r["seconds"] is not DNF:
            assert r["n_output"] <= max(1, r["n_input"])


def test_t9_lam_above_d_skipped(spark):
    rows = enhance_dimensions_sweep(
        spark, n=1000, dims=(2,), lams=(3,), rate=1e-2, time_limit=30.0
    )
    assert rows == []
