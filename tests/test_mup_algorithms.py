"""The three MUP-identification algorithms vs the brute-force ground
truth: the paper's worked examples, its two hardness constructions, and
hypothesis-generated random datasets."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import brute
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, TimeBudgetExceeded
from repro.core.deepdiver import mups_deepdiver
from repro.core.naive import mups_naive
from repro.core.pattern_breaker import mups_pattern_breaker
from repro.core.pattern_combiner import mups_pattern_combiner

ALGOS = [mups_naive, mups_pattern_breaker, mups_pattern_combiner, mups_deepdiver]
ALGO_IDS = ["naive", "pattern_breaker", "pattern_combiner", "deepdiver"]

EX1_ROWS = [(0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)]
EX1_CARDS = [2, 2, 2]


def rows_strategy(max_d=4, max_c=3, max_n=20):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.integers(2, max_c), min_size=d, max_size=d).flatmap(
            lambda cards: st.tuples(
                st.just(cards),
                st.lists(
                    st.tuples(*[st.integers(0, c - 1) for c in cards]),
                    min_size=0,
                    max_size=max_n,
                ),
                st.integers(1, 5),
            )
        )
    )


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
def test_example1(algo):
    """Example 1: τ=1 -> the single MUP is 1XX."""
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert algo(idx, 1) == {pt.parse("1XX")}


def test_example1_uncovered_count():
    """§III-A: Example 1 has 9 uncovered patterns, 8 dominated by 1XX."""
    uncovered = brute.uncovered_patterns(EX1_ROWS, EX1_CARDS, 1)
    assert len(uncovered) == 9
    assert set(uncovered) >= {pt.parse(s) for s in
                              ["1XX", "1X0", "1X1", "10X", "11X", "100", "101", "110", "111"]}


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
@pytest.mark.parametrize("tau", [1, 2, 3, 6])
def test_example1_all_thresholds(algo, tau):
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert algo(idx, tau) == brute.mups(EX1_ROWS, EX1_CARDS, tau)


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
def test_all_covered_returns_empty(algo):
    rows = [(v1, v2) for v1 in range(2) for v2 in range(2)] * 3
    idx = CoverageIndex.from_rows(rows, [2, 2])
    assert algo(idx, 3) == set()


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
def test_empty_dataset(algo):
    """No rows: nothing is covered at τ = 1, so the root is the only MUP."""
    idx = CoverageIndex.from_rows([], [2, 3])
    assert idx.max_covered_level(1) == -1
    assert algo(idx, 1) == {pt.root(2)}


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
def test_root_uncovered(algo):
    """τ above n: the root itself is the only MUP."""
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert algo(idx, 6) == {pt.root(3)}


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_theorem1_diagonal_construction(algo, n):
    """Theorem 1: the diagonal dataset with τ=n/2+1 has n singleton MUPs
    with value 1 plus C(n, n/2) all-zero MUPs at level n/2."""
    import math

    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    idx = CoverageIndex.from_rows(rows, [2] * n)
    tau = n // 2 + 1
    mups = algo(idx, tau)
    expected_count = n + math.comb(n, n // 2)
    assert len(mups) == expected_count
    singles = {p for p in mups if pt.level(p) == 1}
    assert len(singles) == n
    assert all(1 in p for p in singles)
    deep = mups - singles
    assert all(pt.level(p) == n // 2 and set(p) <= {0, pt.X} for p in deep)


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
def test_theorem2_vertex_cover_reduction(algo):
    """Theorem 2's reduction on the triangle graph: 3 vertices, 3 edges.

    d = |E| = 3 attributes, one item per vertex with 1s on incident
    edges, plus three all-zero items; τ=3. The MUPs must be exactly the
    three singleton value-1 patterns (one per edge)."""
    #   vertices a,b,c; edges e0=(a,b), e1=(b,c), e2=(a,c)
    rows = [
        (1, 0, 1),  # a
        (1, 1, 0),  # b
        (0, 1, 1),  # c
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
    ]
    idx = CoverageIndex.from_rows(rows, [2, 2, 2])
    mups = algo(idx, 3)
    assert mups == {pt.parse("1XX"), pt.parse("X1X"), pt.parse("XX1")}


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
def test_ternary_attributes(algo):
    rows = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 2), (2, 2)]
    cards = [3, 3]
    for tau in (1, 2, 3):
        idx = CoverageIndex.from_rows(rows, cards)
        assert algo(idx, tau) == brute.mups(rows, cards, tau)


@given(rows_strategy())
@settings(max_examples=80, deadline=None)
def test_random_agreement_with_brute(crt):
    cards, rows, tau = crt
    expected = brute.mups(rows, cards, tau)
    idx = CoverageIndex.from_rows(rows, cards)
    assert mups_pattern_breaker(idx, tau) == expected
    assert mups_pattern_combiner(idx, tau) == expected
    assert mups_deepdiver(idx, tau) == expected
    assert mups_naive(idx, tau) == expected


@given(rows_strategy())
@settings(max_examples=40, deadline=None)
def test_mups_are_mutually_non_dominating(crt):
    """Definition 5 sanity: no MUP dominates another."""
    cards, rows, tau = crt
    idx = CoverageIndex.from_rows(rows, cards)
    mups = sorted(mups_deepdiver(idx, tau))
    for i, p in enumerate(mups):
        for q in mups[i + 1 :]:
            assert not pt.dominates(p, q)
            assert not pt.dominates(q, p)


@pytest.mark.parametrize(
    "algo", [mups_pattern_breaker, mups_deepdiver], ids=["pattern_breaker", "deepdiver"]
)
@pytest.mark.parametrize("max_level", [0, 1, 2, 3])
def test_max_level_restriction(algo, max_level):
    """Level-limited search returns exactly the MUPs at level ≤ L."""
    rows = [(0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 0, 0)]
    cards = [2, 2, 2]
    for tau in (1, 2, 3):
        full = brute.mups(rows, cards, tau)
        idx = CoverageIndex.from_rows(rows, cards)
        got = algo(idx, tau, max_level=max_level)
        assert got == {p for p in full if pt.level(p) <= max_level}


@pytest.mark.parametrize(
    "algo",
    [mups_naive, mups_pattern_breaker, mups_pattern_combiner, mups_deepdiver],
    ids=ALGO_IDS,
)
def test_time_limit_raises(algo):
    """A zero budget must surface as TimeBudgetExceeded, not bad output."""
    rows = [tuple((i >> j) & 1 for j in range(8)) for i in range(200)]
    idx = CoverageIndex.from_rows(rows, [2] * 8)
    with pytest.raises(TimeBudgetExceeded):
        algo(idx, 5, time_limit=0.0)


@pytest.mark.parametrize(
    "algo", [mups_pattern_breaker, mups_deepdiver], ids=["pattern_breaker", "deepdiver"]
)
def test_time_limit_fires_mid_search(algo):
    """A positive budget stops the search partway through a search that
    takes longer: the clock is read at every attribute subset's batch,
    not only at the start."""
    from repro.synth_data import airbnb_attrs, airbnb_like_pdf

    pdf = airbnb_like_pdf(n=100_000, d=13)
    idx = CoverageIndex.from_pandas(pdf, airbnb_attrs(13), [2] * 13)
    t0 = time.perf_counter()
    algo(idx, 100)
    full = time.perf_counter() - t0
    idx = CoverageIndex.from_pandas(pdf, airbnb_attrs(13), [2] * 13)
    t0 = time.perf_counter()
    with pytest.raises(TimeBudgetExceeded):
        algo(idx, 100, time_limit=0.2)
    assert time.perf_counter() - t0 < full / 2


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_IDS)
@pytest.mark.parametrize("tau", [0, -1])
def test_nonpositive_tau_has_no_mups(algo, tau):
    """Every coverage is ≥ 0 ≥ τ, so there is no MUP, and the top-down
    searches return at once without asking the oracle."""
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert algo(idx, tau) == brute.mups(EX1_ROWS, EX1_CARDS, tau) == set()
    if algo in (mups_pattern_breaker, mups_deepdiver):
        assert idx.cov_calls == 0


@pytest.mark.parametrize("d", [40, 64])
def test_breaker_wide_patterns(d):
    """Binary patterns wider than an int64 radix code or subset bitmask:
    PATTERN-BREAKER agrees with DEEPDIVER, with as many evaluations, and
    returns tuples of Python ints."""
    rows = [tuple(r) for r in np.random.default_rng(d).integers(0, 2, (12, d)).tolist()]
    pb_idx = CoverageIndex.from_rows(rows, [2] * d)
    dd_idx = CoverageIndex.from_rows(rows, [2] * d)
    pb = mups_pattern_breaker(pb_idx, 2, max_level=2)
    assert pb and pb == mups_deepdiver(dd_idx, 2, max_level=2)
    assert pb_idx.cov_calls == dd_idx.cov_calls
    assert all(type(v) is int for p in pb for v in p)


def _asked(algo, rows, cards, tau, max_level):
    """The patterns ``algo`` asks the coverage oracle about, through
    ``cov`` or ``cov_many``, in order, and the index's ``cov_calls``
    afterwards."""
    idx = CoverageIndex.from_rows(rows, cards)
    asked = []
    cov, cov_many = idx.cov, idx.cov_many

    def recording_cov(p):
        asked.append(p)
        return cov(p)

    def recording_cov_many(attrs, codes):
        for code in codes.tolist():
            p = [pt.X] * len(cards)
            for i in reversed(attrs):
                code, p[i] = divmod(code, cards[i])
            asked.append(tuple(p))
        return cov_many(attrs, codes)

    idx.cov, idx.cov_many = recording_cov, recording_cov_many
    algo(idx, tau, max_level=max_level)
    return asked, idx.cov_calls


@given(rows_strategy(max_d=5, max_c=4, max_n=30))
@settings(max_examples=80, deadline=None)
def test_deepdiver_asks_what_breaker_asks(crt):
    """DEEPDIVER's dive order is topological, so it evaluates exactly
    PATTERN-BREAKER's nodes (the covered ones and the MUPs), once each."""
    cards, rows, tau = crt
    for max_level in [None, *range(len(cards) + 1)]:
        dd, dd_calls = _asked(mups_deepdiver, rows, cards, tau, max_level)
        pb, pb_calls = _asked(mups_pattern_breaker, rows, cards, tau, max_level)
        assert len(dd) == len(set(dd))
        assert set(dd) == set(pb)
        assert dd_calls == pb_calls


def _subset_runs(asked):
    """The attribute subsets of the asked patterns, one per run of
    consecutive patterns on the same subset."""
    runs = []
    for p in asked:
        attrs = tuple(i for i, v in enumerate(p) if v != pt.X)
        if not runs or runs[-1] != attrs:
            runs.append(attrs)
    return runs


def _rule1_preorder(attrs, d):
    """The Rule-1 tree of attribute subsets below ``attrs``, in pre-order,
    entering the child with the larger new position first."""
    yield attrs
    for j in reversed(range(attrs[-1] + 1 if attrs else 0, d)):
        yield from _rule1_preorder(attrs + (j,), d)


def test_deepdiver_stays_depth_first():
    """DEEPDIVER asks each subset's patterns in one contiguous run, its
    subsets in Rule-1 pre-order; PATTERN-BREAKER asks level by level. On
    this instance the searches reach level 4 and skip 4 of the 32 subsets."""
    g = np.random.default_rng(5)
    cards = [2, 3, 2, 2, 3]
    rows = [tuple(int(v) for v in g.integers(0, cards)) for _ in range(60)]
    dd, _ = _asked(mups_deepdiver, rows, cards, 6, None)
    pb, _ = _asked(mups_pattern_breaker, rows, cards, 6, None)
    dd_runs, pb_runs = _subset_runs(dd), _subset_runs(pb)
    assert len(dd_runs) == len(set(dd_runs)) and len(pb_runs) == len(set(pb_runs))
    assert set(dd_runs) == set(pb_runs)
    assert dd_runs == [s for s in _rule1_preorder((), len(cards)) if s in set(dd_runs)]
    assert [len(s) for s in pb_runs] == sorted(len(s) for s in pb_runs)
    assert len(dd_runs) == 28 and max(len(s) for s in dd_runs) == 4 and dd_runs != pb_runs


def test_deepdiver_matches_breaker_medium_instance():
    """A denser 6-attribute instance exercising the parent-flag filter."""
    import numpy as np

    g = np.random.default_rng(0)
    rows = [tuple(int(v) for v in g.integers(0, 2, 6)) for _ in range(300)]
    cards = [2] * 6
    idx = CoverageIndex.from_rows(rows, cards)
    for tau in (2, 10, 40):
        assert mups_deepdiver(idx, tau) == mups_pattern_breaker(idx, tau)
        assert mups_pattern_combiner(idx, tau) == mups_pattern_breaker(idx, tau)


@pytest.mark.parametrize("algo", [mups_pattern_breaker, mups_deepdiver],
                         ids=["pattern_breaker", "deepdiver"])
def test_cell_memo_bounded_by_search(algo):
    """The index memoises cells only for the subsets a search touches: a
    level-limited search no deeper subsets, an unbounded one at most
    Π(c_i + 1) cells, the size of the pattern graph."""
    from repro.synth_data import airbnb_attrs, airbnb_like_pdf

    pdf = airbnb_like_pdf(n=20_000, d=30)
    idx = CoverageIndex.from_pandas(pdf, airbnb_attrs(30), [2] * 30)
    algo(idx, 200, max_level=2)
    assert idx._cells and all(len(attrs) <= 2 for attrs in idx._cells)

    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    for tau in (1, 2, 3, 6):
        algo(idx, tau)
    assert sum(len(c) for c in idx._cells.values()) <= 27
