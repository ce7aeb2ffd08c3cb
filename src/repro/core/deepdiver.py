"""DEEPDIVER — fast search-space pruner (Algorithm 3, §III-E).

DFS over the Rule-1 tree, skipping every node that a discovered MUP
dominates (the Appendix-B index). Children are pushed in increasing
(position, value) order and popped last-first, so the walk is a
pre-order of the Rule-1 tree that enters the child with the larger new
position first. In that order every ancestor of a node is popped before
the node: the parent that drops the right-most deterministic position
is the Rule-1 parent, and any other parent's Rule-1 branch leaves the
shared prefix at a position further right, so it is entered first.

Hence Algorithm 3's climb and its "dominates a MUP" probe never act
here. An undominated uncovered node has only covered parents (an
uncovered parent would be dominated by a MUP already found, which would
dominate the node too), so it is a MUP as popped. And a popped node is
never an ancestor of a found MUP, which would come later in the walk.
The search evaluates exactly PATTERN-BREAKER's nodes, the covered
nodes and the MUPs, once each.
"""
from __future__ import annotations

from typing import Optional, Set

from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, Deadline
from repro.core.mup_index import MupIndex
from repro.core.patterns import Pattern


def mups_deepdiver(
    idx: CoverageIndex,
    tau: int,
    *,
    max_level: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Set[Pattern]:
    """Return all MUPs (restricted to level ≤ ``max_level`` if given)."""
    if tau <= 0:  # no pattern has coverage below τ
        return set()
    deadline = Deadline(time_limit)
    d = idx.d
    depth = d if max_level is None else min(d, max_level)
    mindex = MupIndex(idx.cards)
    stack = [pt.root(d)]
    while stack:
        deadline.check()
        p = stack.pop()
        if mindex.dominated_by_any(p):
            continue
        if idx.cov(p) >= tau:
            if pt.level(p) < depth:
                stack.extend(pt.rule1_children(p, idx.cards))
        else:
            mindex.add(p)
    return set(mindex.mups)
