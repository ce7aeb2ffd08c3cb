"""DEEPDIVER — fast search-space pruner (Algorithm 3, §III-E).

A DFS over the Rule-1 tree of *attribute subsets*, one numpy batch per
subset: PATTERN-BREAKER's batch step (``pattern_breaker.rule1_walk``)
driven from a stack instead of level by level, the way BUC walks
cuboids depth-first (Beyer & Ramakrishnan, SIGMOD 1999). T's children
T ∪ {j}, j > max(T), are pushed in increasing j and popped last-first.
A popped T extends the covered codes of S = T[:-1] by the values of its
new position, drops the candidates whose parent on some other T ∖ {u}
is not flagged covered, evaluates the rest with one ``cov_many``
gather, records those below τ as MUPs, flags the rest as covered and,
below ``max_level``, pushes T's children.

This is the per-pattern dive order (children in increasing (position,
value) order, popped last-first) projected onto subsets: a pre-order of
the Rule-1 tree that enters the child with the larger new position
first. In it every proper subset R ⊂ T is popped before T, or never
pushed. For T ∖ {u} with u = max(T) this is T's Rule-1 parent. For
u < max(T), the Rule-1 paths of T and T ∖ {u} split after their common
prefix of positions below u, where T ∖ {u}'s branch adds a position
right of u and is entered, and finished, first. By induction over the
chain R ⊂ … ⊂ T ∖ {u} ⊂ T this holds for every R. A subset that is
never pushed lies below a visited subset with no covered node, so by
monotonicity it holds none either.

Hence the flags of every visited subset are exactly its covered nodes
(by induction in pop order: a covered node's parents are covered and
flagged, so it is generated and kept), and when T is popped, a
candidate p on T is dominated by a MUP found so far exactly when some
parent of p is not flagged covered:

* If a found MUP m dominates p, m ≠ p and m is X at some u ∈ T. The
  parent q of p that sets u to X is still dominated by m, so it is
  uncovered and not flagged.
* If a parent q is not flagged, q is uncovered, so some MUP m dominates
  it. m lies on a subset R ⊂ T ∖ {u} whose prefixes hold m's covered
  ancestors, so R was visited before T, and m, all of whose parents are
  covered and flagged, was kept and recorded there. m dominates p.

So the parent-flag filter is Appendix B's "dominated by a found MUP"
probe, and DEEPDIVER prunes, records and evaluates what Algorithm 3
does node by node: an undominated uncovered node has only covered
parents, so it is a MUP as popped and Algorithm 3's climb never moves;
a popped node is never an ancestor of a found MUP, which comes later in
the walk. The search evaluates exactly PATTERN-BREAKER's nodes, the
covered nodes and the MUPs, once each. It keeps the flags of every
visited subset: at most one byte per memoised int64 cell.
"""
from __future__ import annotations

from typing import Optional, Set

from repro.core.coverage import CoverageIndex
from repro.core.pattern_breaker import rule1_walk
from repro.core.patterns import Pattern


def mups_deepdiver(
    idx: CoverageIndex,
    tau: int,
    *,
    max_level: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Set[Pattern]:
    """Return all MUPs (restricted to level ≤ ``max_level`` if given)."""
    return rule1_walk(idx, tau, max_level, time_limit, depth_first=True)
