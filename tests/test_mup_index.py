"""Appendix-B dominance index vs direct dominance scans."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import patterns as pt
from repro.core.mup_index import MupIndex
from repro.core.patterns import X


def test_empty_index_dominates_nothing():
    idx = MupIndex([2, 2, 2])
    assert not idx.dominated_by_any(pt.parse("000"))


def test_paper_dominance_pair():
    idx = MupIndex([2, 2, 2, 2])
    idx.add(pt.parse("10X1"))
    # 10X1's children are dominated by it.
    assert idx.dominated_by_any(pt.parse("1001"))
    assert idx.dominated_by_any(pt.parse("10X1"))  # reflexive
    assert not idx.dominated_by_any(pt.parse("11XX"))


def test_multiple_mups():
    idx = MupIndex([3, 3])
    idx.add(pt.parse("0X"))
    idx.add(pt.parse("X2"))
    assert idx.dominated_by_any(pt.parse("02"))
    assert idx.dominated_by_any(pt.parse("12"))
    assert not idx.dominated_by_any(pt.parse("11"))


def cards_and_patterns():
    return st.integers(1, 4).flatmap(
        lambda d: st.lists(st.integers(2, 3), min_size=d, max_size=d).flatmap(
            lambda cards: st.tuples(
                st.just(cards),
                st.lists(
                    st.tuples(*[st.sampled_from([X] + list(range(c))) for c in cards]),
                    min_size=0,
                    max_size=8,
                ),
                st.tuples(*[st.sampled_from([X] + list(range(c))) for c in cards]),
            )
        )
    )


@given(cards_and_patterns())
@settings(max_examples=150, deadline=None)
def test_index_matches_direct_scan(cpq):
    cards, mups, probe = cpq
    idx = MupIndex(cards)
    for m in mups:
        idx.add(m)
    assert idx.dominated_by_any(probe) == any(pt.dominates(m, probe) for m in mups)
