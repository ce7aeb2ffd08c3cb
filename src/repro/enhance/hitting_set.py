"""Efficient greedy hitting set (Algorithms 4–5, §IV-B).

The universe is the cross product of attribute values; the sets are the
uncovered patterns to hit. Per attribute value (i, v) an inverted index
holds the bitmask (python int, bit j ↔ pattern j) of patterns whose
i-th element is v or X — exactly the Figure-9 indices, read off the
per-value and X masks of a :class:`MupIndex` over the patterns. The best
combination each round is found by a DFS over the value tree
(Figure 10 / Algorithm 4): the running bitmask is ANDed edge by edge,
children are visited in decreasing popcount order, and a subtree is cut
as soon as its popcount cannot beat the best combination found so far.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.coverage import Deadline
from repro.core.mup_index import MupIndex
from repro.core.patterns import Pattern


def build_inverted_indices(
    patterns: Sequence[Pattern], cards: Sequence[int]
) -> List[List[int]]:
    """idx[i][v] = bitmask of patterns with element i ∈ {v, X} (Figure 9)."""
    mi = MupIndex(cards)
    for p in patterns:
        mi.add(p)
    return [[m[v] | m[c] for v in range(c)] for m, c in zip(mi.masks, cards)]


def hit_count(
    filter_bv: int,
    idx: Sequence[Sequence[int]],
    cards: Sequence[int],
    deadline: Optional[Deadline] = None,
) -> Tuple[int, Optional[Pattern]]:
    """Algorithm 4: the combination hitting the most still-unhit patterns.

    Iterative DFS with the best-known hit count as a pruning threshold.
    Returns ``(count, combination)``; count 0 with ``None`` when the
    filter is empty (nothing left to hit).
    """
    d = len(cards)
    best_cnt = 0
    best: Optional[Pattern] = None

    def rec(bv: int, i: int, prefix: List[int]) -> None:
        nonlocal best_cnt, best
        if deadline is not None:
            deadline.check()
        # A subtree can only improve on the best-known combination if its
        # bitmask has strictly more set bits than best_cnt.
        scored = []
        for v in range(cards[i]):
            child = bv & idx[i][v]
            c = child.bit_count()
            if c > best_cnt:
                scored.append((c, v, child))
        if i == d - 1:
            for c, v, _child in scored:
                if c > best_cnt:
                    best_cnt = c
                    best = tuple(prefix + [v])
            return
        scored.sort(key=lambda t: -t[0])
        for c, v, child in scored:
            if c <= best_cnt:
                continue  # best_cnt may have grown while visiting siblings
            prefix.append(v)
            rec(child, i + 1, prefix)
            prefix.pop()

    if filter_bv:
        rec(filter_bv, 0, [])
    return best_cnt, best


def greedy_hitting_set(
    patterns: Sequence[Pattern],
    cards: Sequence[int],
    *,
    time_limit: Optional[float] = None,
) -> List[Pattern]:
    """Algorithm 5: repeatedly collect the max-hitting combination until
    every pattern is hit. Returns the value combinations to collect."""
    deadline = Deadline(time_limit, stride=64)
    patterns = list(patterns)
    if not patterns:
        return []
    idx = build_inverted_indices(patterns, cards)
    filter_bv = (1 << len(patterns)) - 1
    out: List[Pattern] = []
    while filter_bv:
        deadline.check()
        cnt, combo = hit_count(filter_bv, idx, cards, deadline)
        if combo is None or cnt == 0:
            raise AssertionError(
                "no combination hits the remaining patterns — "
                "patterns must be over the same attribute domain"
            )
        out.append(combo)
        hit = filter_bv
        for i, v in enumerate(combo):
            hit &= idx[i][v]
        filter_bv &= ~hit
    return out
