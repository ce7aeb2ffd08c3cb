"""Coverage enhancement (§IV + Appendices B/C): expansion, hitting set,
GREEDY vs naïve baseline, and end-to-end covered-level verification."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import brute
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, TimeBudgetExceeded
from repro.core.deepdiver import mups_deepdiver
from repro.core.patterns import X
from repro.enhance import hitting_set
from repro.enhance.expand import uncovered_at_level
from repro.enhance.hitting_set import (
    build_inverted_indices,
    greedy_hitting_set,
    greedy_hitting_set_dfs,
    hit_count,
)
from repro.enhance.naive_greedy import naive_greedy_hitting_set

# Example 2: five attributes, A2/A3 ternary, the rest binary.
EX2_CARDS = [2, 3, 3, 2, 2]


def rows_strategy(max_d=4, max_c=3, max_n=20):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.integers(2, max_c), min_size=d, max_size=d).flatmap(
            lambda cards: st.tuples(
                st.just(cards),
                st.lists(
                    st.tuples(*[st.integers(0, c - 1) for c in cards]),
                    min_size=1,
                    max_size=max_n,
                ),
                st.integers(1, 4),
            )
        )
    )


# -- Appendix C expansion ---------------------------------------------


def test_uncovered_at_level_matches_brute():
    rows = [(0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)]
    cards = [2, 2, 2]
    for tau in (1, 2):
        mups = brute.mups(rows, cards, tau)
        for lam in (1, 2, 3):
            got = uncovered_at_level(mups, lam, cards)
            assert got == brute.uncovered_at_level(rows, cards, tau, lam)


@given(rows_strategy())
@settings(max_examples=50, deadline=None)
def test_uncovered_at_level_matches_brute_random(crt):
    cards, rows, tau = crt
    mups = brute.mups(rows, cards, tau)
    for lam in range(len(cards) + 1):
        assert uncovered_at_level(mups, lam, cards) == brute.uncovered_at_level(
            rows, cards, tau, lam
        )


def test_uncovered_at_level_skips_deeper_mups():
    # A MUP deeper than λ contributes nothing at level λ.
    mups = {pt.parse("110")}
    assert uncovered_at_level(mups, 2, [2, 2, 2]) == set()


def patterns_strategy(max_d=5, max_c=4, max_k=12):
    """(cards, patterns): cardinalities from 1, patterns of mixed levels
    (the all-X root included), drawn with repetition so duplicates occur."""
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.integers(1, max_c), min_size=d, max_size=d).flatmap(
            lambda cards: st.tuples(
                st.just(cards),
                st.lists(
                    st.tuples(*[st.integers(X, c - 1) for c in cards]),
                    min_size=1,
                    max_size=max_k,
                ),
            )
        )
    )


# -- inverted indices + hit-count -------------------------------------


def test_inverted_indices_basic():
    pats = [pt.parse("1X"), pt.parse("X0")]
    idx = build_inverted_indices(pats, [2, 2])
    # attr 0 value 0: pattern 0 requires 1 -> excluded; pattern 1 has X.
    assert idx[0][0] == 0b10
    assert idx[0][1] == 0b11
    assert idx[1][0] == 0b11
    assert idx[1][1] == 0b01


@given(patterns_strategy())
@settings(max_examples=150, deadline=None)
def test_inverted_indices_match_definition(cp):
    """Figure 9: bit j of idx[i][v] is set iff element i of pattern j is v or X."""
    cards, pats = cp
    idx = build_inverted_indices(pats, cards)
    for i, c in enumerate(cards):
        for v in range(c):
            assert idx[i][v] == sum(1 << j for j, p in enumerate(pats) if p[i] in (v, X))


def test_hit_count_finds_max_hitting_combo():
    pats = [pt.parse("1X"), pt.parse("X0"), pt.parse("0X")]
    idx = build_inverted_indices(pats, [2, 2])
    cnt, combo = hit_count((1 << 3) - 1, idx, [2, 2])
    assert cnt == 2  # no combo hits all three; 10 hits P0+P1, 00 hits P1+P2
    assert combo in {(1, 0), (0, 0)}


def test_hit_count_empty_filter():
    pats = [pt.parse("1X")]
    idx = build_inverted_indices(pats, [2, 2])
    cnt, combo = hit_count(0, idx, [2, 2])
    assert cnt == 0 and combo is None


def test_hit_count_exhaustive_agreement():
    """hit_count equals the brute-force max over all combinations."""
    import itertools

    cards = [2, 3, 2]
    pats = [pt.parse("1XX"), pt.parse("X2X"), pt.parse("XX0"), pt.parse("02X"),
            pt.parse("1X1")]
    idx = build_inverted_indices(pats, cards)
    full = (1 << len(pats)) - 1
    cnt, combo = hit_count(full, idx, cards)
    best = max(
        sum(1 for p in pats if pt.matches(c, p))
        for c in itertools.product(*[range(c) for c in cards])
    )
    assert cnt == best
    assert sum(1 for p in pats if pt.matches(combo, p)) == best


@given(patterns_strategy())
@settings(max_examples=100, deadline=None)
def test_hit_count_matches_brute_random(cp):
    cards, pats = cp
    idx = build_inverted_indices(pats, cards)
    cnt, combo = hit_count((1 << len(pats)) - 1, idx, cards)
    best = max(sum(1 for p in pats if pt.matches(c, p)) for c in pt.all_combos(cards))
    assert cnt == best
    assert sum(1 for p in pats if pt.matches(combo, p)) == best


# -- GREEDY ------------------------------------------------------------


def _covers_all(combos, pats):
    return all(any(pt.matches(c, p) for c in combos) for p in pats)


def test_greedy_figure7_example():
    """Figure 7: λ=1 over ternary attrs with MUPs XX1 and 0XX — one
    combination (e.g. 001) hits both."""
    pats = [pt.parse("XX1"), pt.parse("0XX")]
    out = greedy_hitting_set(pats, [3, 3, 3])
    assert len(out) == 1
    assert _covers_all(out, pats)


def test_greedy_empty_input():
    assert greedy_hitting_set([], [2, 2]) == []
    assert naive_greedy_hitting_set([], [2, 2]) == []


def test_greedy_triangle_edge_patterns():
    """The three edge patterns of the triangle reduction: unlike vertex
    cover (where the universe is the vertex rows), the hitting-set
    universe is *all* value combinations, so 111 hits all three at once."""
    pats = [pt.parse("1XX"), pt.parse("X1X"), pt.parse("XX1")]
    out = greedy_hitting_set(pats, [2, 2, 2])
    assert _covers_all(out, pats)
    assert out == [(1, 1, 1)]


@pytest.mark.parametrize(
    "solve", [greedy_hitting_set, greedy_hitting_set_dfs], ids=lambda f: f.__name__
)
@given(rows_strategy())
@settings(max_examples=50, deadline=None)
def test_greedy_covers_all_uncovered_random(solve, crt):
    # Both argmax oracles: the dense hit array, which greedy_hitting_set
    # takes on these narrow universes, and Algorithm 4's inverted-index DFS.
    cards, rows, tau = crt
    mups = brute.mups(rows, cards, tau)
    for lam in range(len(cards) + 1):
        pats = sorted(uncovered_at_level(mups, lam, cards))
        out = solve(pats, cards)
        assert _covers_all(out, pats)
        # Each collected combination must hit at least one pattern.
        assert len(out) <= len(pats)


@given(rows_strategy(max_d=3))
@settings(max_examples=25, deadline=None)
def test_greedy_and_naive_same_size(crt):
    """Both implement the same greedy rule; with deterministic tie-breaks
    they may pick different combos but coverage must hold for both, and
    sizes stay within the ln(m) bound of optimal on tiny instances."""
    import math

    cards, rows, tau = crt
    mups = brute.mups(rows, cards, tau)
    lam = min(2, len(cards))
    pats = sorted(uncovered_at_level(mups, lam, cards))
    if not pats or len(pats) > 8:
        return
    g = greedy_hitting_set(pats, cards)
    n = naive_greedy_hitting_set(pats, cards)
    assert _covers_all(g, pats) and _covers_all(n, pats)
    opt = brute.min_hitting_set_size(pats, cards)
    bound = opt * (1 + math.log(len(pats)))
    assert len(g) <= bound and len(n) <= bound


@given(patterns_strategy())
@settings(max_examples=100, deadline=None)
def test_greedy_equals_naive_greedy(cp):
    """On a narrow universe the dense argmax takes the first maximum in
    itertools.product order, the naive scan's choice, so the outputs are
    the same list, duplicates counted with their multiplicity in both."""
    cards, pats = cp
    assert greedy_hitting_set(pats, cards) == naive_greedy_hitting_set(pats, cards)


def test_greedy_wide_universe_uses_dfs(monkeypatch):
    """2**40 combinations are too many for the hit array. Every value of
    a1..a38 keeps all patterns, so only the dominated-sibling cut keeps
    Algorithm 4 from walking the whole value tree."""
    calls = []

    def dfs(*args, **kw):
        calls.append(1)
        return greedy_hitting_set_dfs(*args, **kw)

    monkeypatch.setattr(hitting_set, "greedy_hitting_set_dfs", dfs)
    d = 40
    pats = [
        tuple(v if i == pos else X for i in range(d))
        for pos in (0, d - 1)
        for v in (0, 1)
    ]
    out = hitting_set.greedy_hitting_set(pats, [2] * d, time_limit=5)
    assert calls == [1]
    assert len(out) == 2 and _covers_all(out, pats)


def test_greedy_unhittable_pattern_rejected():
    # 2 lies outside attribute 0's domain {0, 1}; Algorithm 4's indices
    # would file it under X and return (0, 0), which does not hit it.
    for solve in (greedy_hitting_set, greedy_hitting_set_dfs):
        for bad in ([(2, X)], [(X, 5)], [(-2, 0)]):
            with pytest.raises(AssertionError):
                solve(bad, [2, 2])


def test_greedy_time_limit():
    pats = [pt.parse("1" + "X" * 9)]
    with pytest.raises(TimeBudgetExceeded):
        greedy_hitting_set(pats * 50, [2] * 10, time_limit=0.0)


def test_naive_time_limit():
    pats = [pt.parse("1" + "X" * 9)]
    with pytest.raises(TimeBudgetExceeded):
        naive_greedy_hitting_set(pats * 50, [2] * 10, time_limit=0.0)


# -- end-to-end (pandas path) -----------------------------------------


@given(rows_strategy())
@settings(max_examples=30, deadline=None)
def test_enhancement_reaches_target_level(crt):
    """Problem 2 end-to-end: after collecting the greedy combinations
    (each replicated τ times), the maximum covered level is ≥ λ."""
    cards, rows, tau = crt
    d = len(cards)
    lam = min(2, d)
    idx = CoverageIndex.from_rows(rows, cards)
    mups = mups_deepdiver(idx, tau)
    pats = sorted(uncovered_at_level(mups, lam, cards))
    combos = greedy_hitting_set(pats, cards)
    new_rows = list(rows) + [c for c in combos for _ in range(tau)]
    new_mups = brute.mups(new_rows, cards, tau)
    assert pt.max_covered_level(new_mups, d) >= lam
