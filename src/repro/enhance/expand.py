"""Appendix C: the set of patterns to hit for a target covered level λ.

Covering only the MUPs with level ≤ λ is *not* sufficient (the appendix
gives 1X11X as a counter-example): a collected combination that matches
a MUP need not match its still-uncovered level-λ descendants. The
correct target set M_λ is every uncovered pattern at level exactly λ,
i.e. the union over MUPs P with ℓ(P) ≤ λ of P's descendants at level λ
(descendants of an uncovered pattern are uncovered by monotonicity, and
every uncovered pattern is dominated by some MUP at or above its level).
"""
from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from repro.core import patterns as pt
from repro.core.patterns import Pattern


def uncovered_at_level(
    mups: Iterable[Pattern], lam: int, cards: Sequence[int]
) -> Set[Pattern]:
    """M_λ: all uncovered patterns at level λ (Appendix C)."""
    out: Set[Pattern] = set()
    for p in mups:
        if pt.level(p) <= lam:
            out.update(pt.descendants_at_level(p, lam, cards))
    return out

