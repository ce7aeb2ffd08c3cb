"""End-to-end coverage enhancement through Spark (Problem 2).

Identify MUPs from a Spark scan, expand to level λ, run GREEDY, union
the collected tuples back into the DataFrame, and verify the maximum
covered level reached λ — the full §IV pipeline on real dataflow.
"""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.enhance.apply import append_collected, verify_covered_level
from repro.enhance.expand import uncovered_at_level
from repro.enhance.hitting_set import greedy_hitting_set
from repro.oracle import assert_equivalent


def test_append_collected_counts(spark):
    df = spark.createDataFrame(pd.DataFrame({"a": [0, 1], "b": [1, 0]}))
    out = append_collected(spark, df, [(1, 1)], ["a", "b"], tau=4)
    assert out.count() == 6
    assert out.where("a = 1 AND b = 1").count() == 4


def test_append_collected_noop(spark):
    df = spark.createDataFrame(pd.DataFrame({"a": [0, 1], "b": [1, 0], "c": [5, 6]}))
    out = append_collected(spark, df, [], ["a", "b"], tau=4)
    assert out.columns == ["a", "b"]
    assert out.count() == 2


@pytest.mark.parametrize("tau", [0, 1])
def test_append_collected_small_tau(spark, tau):
    # Spark's sequence(1, 0) is [1, 0]: τ = 0 must still append nothing.
    df = spark.createDataFrame(pd.DataFrame({"a": [0, 1], "b": [1, 0], "c": [5, 6]}))
    out = append_collected(spark, df, [(1, 1), (0, 0)], ["a", "b"], tau)
    assert out.columns == ["a", "b"]
    assert out.count() == 2 + 2 * tau
    assert out.where("a = 0 AND b = 0").count() == tau


def test_append_collected_negative_tau(spark):
    df = spark.createDataFrame(pd.DataFrame({"a": [0, 1], "b": [1, 0]}))
    with pytest.raises(ValueError, match="tau"):
        append_collected(spark, df, [(1, 1)], ["a", "b"], tau=-1)


def test_append_collected_matches_duckdb(spark):
    """The appended relation's groupBy equals DuckDB's GROUP BY over the
    data plus τ copies of each combination; a combination listed twice
    gets 2τ copies. Neither that scan, nor the index ``from_spark``
    builds from it, nor the verify's level depends on the shuffle's
    partition count: each is checked with one reducer, one per core and
    64, with AQE's coalescing off so that each count is a different
    layout of reducers."""
    attrs, cards = sd.BLUENILE_ATTRS, sd.BLUENILE_CARDS
    tau = 7
    df = sd.bluenile_like(spark, n=5000)
    g = np.random.default_rng(4)
    combos = [tuple(int(g.integers(c)) for c in cards) for _ in range(120)]
    combos.append(combos[0])
    out = append_collected(spark, df, combos, attrs, tau)
    ref = CoverageIndex.from_pandas(out.toPandas(), attrs, cards)
    full = tuple(range(len(attrs)))
    cols = ", ".join(attrs)
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    before = [spark.conf.get(k) for k in keys]
    try:
        spark.conf.set(keys[1], "false")
        for parts in (1, spark.sparkContext.defaultParallelism, 64):
            spark.conf.set(keys[0], str(parts))
            assert_equivalent(
                out.groupBy(*attrs).count(),
                f"SELECT {cols}, count(*) AS count FROM ("
                f" SELECT {cols} FROM data"
                f" UNION ALL SELECT {cols} FROM combos CROSS JOIN range({tau})"
                f") GROUP BY {cols}",
                data=df,
                combos=pd.DataFrame(combos, columns=attrs),
            )
            np.testing.assert_array_equal(
                CoverageIndex.from_spark(out, attrs, cards).cells(full), ref.cells(full))
            assert verify_covered_level(out, attrs, cards, tau) == ref.max_covered_level(tau)
    finally:
        for k, v in zip(keys, before):
            spark.conf.set(k, v)


@pytest.mark.parametrize("lam", [1, 2])
def test_enhancement_end_to_end_compas(spark, lam):
    """After enhancement at level λ, no material MUP remains at ≤ λ."""
    attrs, cards = sd.COMPAS_ATTRS, sd.COMPAS_CARDS
    tau = 10
    df = sd.compas_like(spark, n=2000, seed=5).select(*attrs)
    idx = CoverageIndex.from_spark(df, attrs, cards)
    before = verify_covered_level(df, attrs, cards, tau)
    mups = mups_deepdiver(idx, tau, max_level=lam)
    pats = sorted(uncovered_at_level(mups, lam, cards))
    combos = greedy_hitting_set(pats, cards)
    enhanced = append_collected(spark, df, combos, attrs, tau)
    after = verify_covered_level(enhanced, attrs, cards, tau)
    assert after >= lam
    assert after >= before
    # The level-wise check is exact: it equals the lowest-MUP level.
    assert before == pt.max_covered_level(mups_deepdiver(idx, tau), len(cards))
    idx_after = CoverageIndex.from_spark(enhanced, attrs, cards)
    assert after == pt.max_covered_level(mups_deepdiver(idx_after, tau), len(cards))
    # Output is a hitting set: strictly fewer combos than patterns when
    # any combination hits more than one pattern.
    assert len(combos) <= max(1, len(pats))


def test_enhancement_output_smaller_than_input_airbnb(spark):
    """Fig 19's qualitative claim: |output| << |input| because each
    combination hits many patterns."""
    d, lam = 8, 3
    attrs, cards = sd.airbnb_attrs(d), [2] * d
    df = sd.airbnb_like(spark, n=20_000, d=d)
    tau = max(1, int(0.01 * 20_000))
    idx = CoverageIndex.from_spark(df, attrs, cards)
    mups = mups_deepdiver(idx, tau, max_level=lam)
    pats = sorted(uncovered_at_level(mups, lam, cards))
    if len(pats) < 5:
        pytest.skip("instance too covered to be meaningful")
    combos = greedy_hitting_set(pats, cards)
    assert len(combos) < len(pats)
    enhanced = append_collected(spark, df, combos, attrs, tau)
    assert verify_covered_level(enhanced, attrs, cards, tau) >= lam
