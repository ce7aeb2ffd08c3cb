"""CoverageIndex against the brute-force Definition-2 count, and its
covered-level check against the Definition-6 level of brute MUPs."""
import itertools
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import brute
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, Deadline, TimeBudgetExceeded
from repro.core.patterns import X

EX1_ROWS = [(0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)]
EX1_CARDS = [2, 2, 2]


def rows_strategy(max_d=4, max_c=3, max_n=25, min_c=2, min_n=1):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.integers(min_c, max_c), min_size=d, max_size=d).flatmap(
            lambda cards: st.tuples(
                st.just(cards),
                st.lists(
                    st.tuples(*[st.integers(0, c - 1) for c in cards]),
                    min_size=min_n,
                    max_size=max_n,
                ),
            )
        )
    )


def test_appendix_a_worked_example():
    # Appendix A computes cov(0X1) = 3 on Example 1's data.
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.cov(pt.parse("0X1")) == 3


def test_root_coverage_is_n():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.cov(pt.root(3)) == 5
    assert idx.n == 5


def test_zero_coverage_pattern():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.cov(pt.parse("1XX")) == 0
    assert idx.cov(pt.parse("111")) == 0


@pytest.mark.parametrize(
    "p",
    ["XXX", "0XX", "1XX", "X1X", "XX1", "01X", "0X0", "010", "001", "111"],
)
def test_example1_patterns_vs_brute(p):
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    pat = pt.parse(p)
    assert idx.cov(pat) == brute.coverage(EX1_ROWS, pat)


@given(rows_strategy())
@settings(max_examples=60, deadline=None)
def test_cov_matches_brute_on_random_data(cr):
    cards, rows = cr
    idx = CoverageIndex.from_rows(rows, cards)
    for p in pt.all_patterns(cards):
        assert idx.cov(p) == brute.coverage(rows, p)


def test_counts_aggregate_duplicates():
    rows = [(0, 0)] * 7 + [(1, 1)] * 3
    idx = CoverageIndex.from_rows(rows, [2, 2])
    assert len(idx.counts) == 2
    assert idx.cov((0, 0)) == 7
    assert idx.cov((X, 1)) == 3


@given(rows_strategy(min_c=1, min_n=0))
@settings(max_examples=60, deadline=None)
@example(([2, 2, 2], EX1_ROWS))
@example(([1, 2], []))
def test_cells_match_brute(cr):
    """Every subset's cells are the coverages of its patterns, in
    mixed-radix order; on all the attributes they are the multiplicities
    of the full combinations, 0 for the absent ones."""
    cards, rows = cr
    d = len(cards)
    idx = CoverageIndex.from_rows(rows, cards)
    for k in range(d + 1):
        for attrs in itertools.combinations(range(d), k):
            cells = idx.cells(attrs)
            assert len(cells) == math.prod(cards[i] for i in attrs)
            values = itertools.product(*(range(cards[i]) for i in attrs))
            for code, vals in enumerate(values):
                p = [X] * d
                for i, v in zip(attrs, vals):
                    p[i] = v
                assert cells[code] == brute.coverage(rows, tuple(p))


@given(rows_strategy())
@settings(max_examples=80, deadline=None)
def test_max_covered_level_matches_brute(cr):
    cards, rows = cr
    idx = CoverageIndex.from_rows(rows, cards)
    n, d = len(rows), len(cards)
    for tau in (0, 1, 2, n, n + 1):
        want = pt.max_covered_level(brute.mups(rows, cards, tau), d)
        assert idx.max_covered_level(tau) == want


def test_max_covered_level_edge_cases():
    # Example 1: 1XX has coverage 0, so level 1 is uncovered at τ=1.
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.max_covered_level(1) == 0
    assert idx.max_covered_level(5) == 0
    assert idx.max_covered_level(6) == -1  # root uncovered: n < τ
    assert idx.max_covered_level(0) == 3  # nothing is below τ=0
    # Every combination occurs twice: fully covered at τ ≤ 2.
    full = [c for c in pt.all_combos([2, 3]) for _ in range(2)]
    idx = CoverageIndex.from_rows(full, [2, 3])
    assert idx.max_covered_level(2) == 2
    assert idx.max_covered_level(3) == 1  # level-2 cells hold 2 rows
    assert idx.max_covered_level(5) == 0  # a1's values hold 4 rows
    # An attribute of cardinality 1 is covered wherever its parent is.
    rows = [(0, 0), (0, 1), (0, 1)]
    idx = CoverageIndex.from_rows(rows, [1, 2])
    for tau in range(5):
        want = pt.max_covered_level(brute.mups(rows, [1, 2], tau), 2)
        assert idx.max_covered_level(tau) == want
    assert idx.max_covered_level(1) == 2
    # No rows: the root is uncovered for any positive τ.
    empty = CoverageIndex.from_rows([], [2, 2])
    assert empty.max_covered_level(1) == -1
    assert empty.max_covered_level(0) == 2


def test_null_in_audited_column_rejected():
    pdf = pd.DataFrame({"a": [0, 1, None], "b": [1, 0, 1]})
    with pytest.raises(ValueError, match="'a' contains NULL"):
        CoverageIndex.from_pandas(pdf, ["a", "b"], [2, 2])


def test_non_integer_column_rejected():
    pdf = pd.DataFrame({"a": [0, 1, 1], "b": ["x", "y", "x"]})
    with pytest.raises(ValueError, match="'b' is not integer-typed"):
        CoverageIndex.from_pandas(pdf, ["a", "b"], [2, 2])


def test_null_in_audited_column_rejected_spark(spark):
    df = spark.createDataFrame([(0, 1), (1, 0), (None, 1)], "a int, b int")
    with pytest.raises(ValueError, match="'a' contains NULL"):
        CoverageIndex.from_spark(df, ["a", "b"], [2, 2])


def test_non_integer_column_rejected_spark(spark):
    df = spark.createDataFrame([(0, "x"), (1, "y")], "a int, b string")
    with pytest.raises(ValueError, match="'b' is not integer-typed"):
        CoverageIndex.from_spark(df, ["a", "b"], [2, 2])


def test_value_out_of_cardinality_rejected():
    with pytest.raises(ValueError):
        CoverageIndex.from_rows([(0, 5)], [2, 2])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        CoverageIndex(np.array([[0, 0]]), np.array([1, 2]), [2, 2])


def test_from_pandas_matches_from_rows():
    pdf = pd.DataFrame(EX1_ROWS, columns=["a0", "a1", "a2"])
    i1 = CoverageIndex.from_pandas(pdf, ["a0", "a1", "a2"], EX1_CARDS)
    i2 = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    for p in pt.all_patterns(EX1_CARDS):
        assert i1.cov(p) == i2.cov(p)


def test_cov_calls_counter():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    before = idx.cov_calls
    idx.cov(pt.parse("0X1"))
    idx.cov(pt.parse("XXX"))
    assert idx.cov_calls == before + 2
    # 0X0, 0X1, 1X0 on subset (0, 2): one evaluation each.
    got = idx.cov_many((0, 2), np.array([0, 1, 2]))
    assert idx.cov_calls == before + 5
    assert got.tolist() == [idx.cov(pt.parse(s)) for s in ("0X0", "0X1", "1X0")]
    idx.cov_many((1,), np.array([], dtype=np.int64))
    assert idx.cov_calls == before + 8


def test_deadline_unlimited_never_raises():
    d = Deadline(None, stride=1)
    for _ in range(10_000):
        d.check()


def test_deadline_expires():
    d = Deadline(0.0, stride=1)
    with pytest.raises(TimeBudgetExceeded):
        for _ in range(10):
            d.check()
