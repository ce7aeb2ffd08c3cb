"""Spark-native coverage computation, oracle-checked against DuckDB.

Every query-shaped result here goes through
``repro.oracle.assert_equivalent`` so a broken Catalyst plan (not just a
crash) is caught.
"""
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro import synth_data as sd
from repro.core import brute
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.core.cube import collect_patterns, cube_coverage, mups_spark
from repro.oracle import assert_equivalent

EX1_ROWS = [(0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)]
EX1_CARDS = [2, 2, 2]
ATTRS = ["a0", "a1", "a2"]


def ex1_df(spark):
    return spark.createDataFrame(pd.DataFrame(EX1_ROWS, columns=ATTRS))


def test_cube_coverage_matches_duckdb(spark):
    df = ex1_df(spark)
    got = cube_coverage(df, ATTRS)
    assert_equivalent(
        got,
        "SELECT a0, a1, a2, count(*) AS cov FROM t GROUP BY CUBE (a0, a1, a2)",
        t=df,
    )


def test_cube_coverage_matches_duckdb_compas(spark):
    df = sd.compas_like(spark, n=800).select(*sd.COMPAS_ATTRS)
    got = cube_coverage(df, sd.COMPAS_ATTRS)
    assert_equivalent(
        got,
        "SELECT sex, age, race, marital, count(*) AS cov "
        "FROM t GROUP BY CUBE (sex, age, race, marital)",
        t=df,
    )


@pytest.mark.parametrize("tau", [1, 2, 3, 6])
def test_mups_spark_matches_brute_example1(spark, tau):
    df = ex1_df(spark)
    got = collect_patterns(mups_spark(spark, df, ATTRS, EX1_CARDS, tau), ATTRS)
    assert got == brute.mups(EX1_ROWS, EX1_CARDS, tau)


def test_mups_spark_matches_driver_algorithms_on_compas(spark):
    df = sd.compas_like(spark, n=400, seed=3).select(*sd.COMPAS_ATTRS)
    tau = 5
    got = collect_patterns(
        mups_spark(spark, df, sd.COMPAS_ATTRS, sd.COMPAS_CARDS, tau),
        sd.COMPAS_ATTRS,
    )
    idx = CoverageIndex.from_spark(df, sd.COMPAS_ATTRS, sd.COMPAS_CARDS)
    assert got == mups_deepdiver(idx, tau)


def test_mups_spark_ternary(spark):
    rows = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 2), (2, 2)]
    df = spark.createDataFrame(pd.DataFrame(rows, columns=["a0", "a1"]))
    for tau in (1, 2, 3):
        got = collect_patterns(mups_spark(spark, df, ["a0", "a1"], [3, 3], tau), ["a0", "a1"])
        assert got == brute.mups(rows, [3, 3], tau)


TERNARY_ROWS = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 2), (2, 2)]


def definition5_sql(attrs, cards, tau):
    """Definition 5 written literally in DuckDB SQL: every pattern of the
    grid with its coverage (0 when absent from the cube), kept when it is
    uncovered and no parent is uncovered."""
    grid = ", ".join(
        f"(VALUES {', '.join(f'({v})' for v in range(c))}, (NULL)) v{i}({a})"
        for i, (a, c) in enumerate(zip(attrs, cards))
    )
    on = " AND ".join(f"p.{a} IS NOT DISTINCT FROM c.{a}" for a in attrs)
    # q is a parent of p: p fixes some attribute a that q leaves X, and
    # the two agree everywhere else.
    parent = " OR ".join(
        f"(p.{a} IS NOT NULL AND q.{a} IS NULL AND "
        + " AND ".join(f"q.{b} IS NOT DISTINCT FROM p.{b}" for b in attrs if b != a)
        + ")"
        for a in attrs
    )
    cols = ", ".join(attrs)
    return f"""
    WITH cube_cov AS (
      SELECT {cols}, count(*) AS c FROM t GROUP BY CUBE ({cols})
    ),
    covg AS (
      SELECT {', '.join(f'p.{a} AS {a}' for a in attrs)}, coalesce(c.c, 0) AS cov
      FROM (SELECT * FROM {grid}) p LEFT JOIN cube_cov c ON {on}
    )
    SELECT * FROM covg p
    WHERE p.cov < {tau}
      AND NOT EXISTS (SELECT 1 FROM covg q WHERE q.cov < {tau} AND ({parent}))
    """


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize(
    "rows, cards",
    [(EX1_ROWS, EX1_CARDS), (TERNARY_ROWS, [3, 3])],
    ids=["example1", "ternary"],
)
def test_mups_spark_matches_duckdb(spark, rows, cards, tau):
    attrs = ATTRS[: len(cards)]
    df = spark.createDataFrame(pd.DataFrame(rows, columns=attrs))
    got = mups_spark(spark, df, attrs, cards, tau)
    assert_equivalent(got, definition5_sql(attrs, cards, tau), t=df)


ROOT2 = (pt.X, pt.X)


@pytest.mark.parametrize(
    "rows, cards, tau, expected",
    [
        (EX1_ROWS, EX1_CARDS, 0, set()),
        ([], [2, 2], 1, {ROOT2}),
        (TERNARY_ROWS, [3, 3], len(TERNARY_ROWS) + 1, {ROOT2}),
        ([(0, 0, 1), (0, 1, 1), (0, 2, 0), (0, 0, 0)], [1, 3, 2], 2, None),
    ],
    ids=["tau0", "empty_frame", "tau_n_plus_1", "cardinality1"],
)
def test_mups_spark_edge_cases(spark, rows, cards, tau, expected):
    attrs = ATTRS[: len(cards)]
    schema = ", ".join(f"{a} int" for a in attrs)
    df = spark.createDataFrame(rows, schema)
    got = collect_patterns(mups_spark(spark, df, attrs, cards, tau), attrs)
    want = brute.mups(rows, cards, tau)
    assert got == want
    if expected is not None:
        assert want == expected


def test_coverage_index_from_spark_matches_pandas(spark):
    pdf = sd.airbnb_like_pdf(n=3000, d=6)
    attrs = sd.airbnb_attrs(6)
    df = spark.createDataFrame(pdf).repartition(8)
    i_spark = CoverageIndex.from_spark(df, attrs, [2] * 6)
    i_pandas = CoverageIndex.from_pandas(pdf, attrs, [2] * 6)
    assert i_spark.n == i_pandas.n == 3000
    for p in pt.all_patterns([2] * 6):
        assert i_spark.cov(p) == i_pandas.cov(p)


def test_audit_scan_groupby_oracle(spark):
    """The audit scan's exact ``groupBy(*attrs).count()``, as
    CoverageIndex.from_spark issues it, checked against DuckDB."""
    df = sd.bluenile_like(spark, n=5000)
    agg = df.groupBy(*sd.BLUENILE_ATTRS).count()
    cols = ", ".join(sd.BLUENILE_ATTRS)
    assert_equivalent(
        agg,
        f'SELECT {cols}, count(*) AS "count" FROM t GROUP BY {cols}',
        t=df,
    )


def test_bucketized_continuous_attribute_coverage(spark):
    """§II: continuous attributes are bucketised to categorical before
    coverage analysis — do it in Spark and audit the result."""
    n = 1000
    # x = (37·id mod n) / 10 is a continuous attribute spread over [0, 100).
    x = (F.col("id") * 37 % n) / 10.0
    cat = spark.range(n).select(
        F.when(x <= 10, 0).when(x <= 25, 1).otherwise(2).alias("x_bucket"),
        (F.col("id") % 2).cast("int").alias("parity"),
    )
    idx = CoverageIndex.from_spark(cat, ["x_bucket", "parity"], [3, 2])
    assert idx.n == n

    def bucket(i):
        v = (37 * i % n) / 10.0
        return 0 if v <= 10 else 1 if v <= 25 else 2

    rows = [(bucket(i), i % 2) for i in range(n)]
    assert mups_deepdiver(idx, 1) == set()  # every combination occurs
    assert mups_deepdiver(idx, 60) == brute.mups(rows, [3, 2], 60) != set()


def test_pattern_coverage_filter_oracle(spark):
    """Coverage of individual patterns as Spark filters vs DuckDB WHERE."""
    df = sd.compas_like(spark, n=1500).select(*sd.COMPAS_ATTRS)
    got = (
        df.where((F.col("race") == 2) & (F.col("marital") == 3))
        .agg(F.count(F.lit(1)).alias("cov"))
    )
    assert_equivalent(
        got,
        "SELECT count(*) AS cov FROM t WHERE race = 2 AND marital = 3",
        t=df,
    )
