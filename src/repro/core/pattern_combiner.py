"""PATTERN-COMBINER — the bottom-up algorithm (Algorithm 2, §III-D).

Starts from the level-d nodes (full value combinations), whose coverage
is exactly the multiplicity in the data (0 for absent combinations), and
keeps only the uncovered ones. Moving up, each uncovered node generates
its Rule-2 parents; a parent's coverage is the sum over its children on
the parent's right-most X attribute — children not in the uncovered map
are known covered and contribute at least τ, which settles the
comparison without knowing their exact count (line 14 of Algorithm 2).
A node is emitted as a MUP when none of its parents is uncovered.
"""
from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, Deadline
from repro.core.patterns import X, Pattern


def mups_pattern_combiner(
    idx: CoverageIndex,
    tau: int,
    *,
    time_limit: Optional[float] = None,
) -> Set[Pattern]:
    """Return all MUPs via the bottom-up Rule-2 traversal."""
    deadline = Deadline(time_limit)
    cards = idx.cards
    d = idx.d
    exact = dict(zip(map(tuple, idx.combos.tolist()), idx.counts.tolist()))

    # Level-d seeding: every combination of the cross product whose
    # multiplicity is below τ (absent combinations count 0).
    count: Dict[Pattern, int] = {}
    for combo in pt.all_combos(cards):
        deadline.check()
        c = exact.get(combo, 0)
        if c < tau:
            count[combo] = c

    mups: Set[Pattern] = set()
    if not count:
        return mups

    for _ in range(d, 0, -1):
        next_count: Dict[Pattern, int] = {}
        for p in count:
            for parent in pt.rule2_parents(p):
                deadline.check()
                if parent in next_count:
                    continue
                i = pt.rightmost_x(parent)
                total = 0
                for v in range(cards[i]):
                    child = parent[:i] + (v,) + parent[i + 1 :]
                    # A child absent from `count` is covered: it adds ≥ τ,
                    # enough to decide covered-ness of the parent.
                    total += count.get(child, tau)
                    if total >= tau:
                        break
                if total < tau:
                    next_count[parent] = total
        for p in count:
            deadline.check()
            if not any(q in next_count for q in pt.parents(p)):
                mups.add(p)
        if not next_count:
            break
        count = next_count
    else:
        # Loop ran through level 1 -> 0; if the root is uncovered it is
        # the only remaining candidate and has no parents.
        if count:
            mups.update(count.keys())
    return mups
