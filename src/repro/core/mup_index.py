"""MUP-dominance inverted indices (Appendix B).

One bitmask per attribute value (plus one per attribute for X) over the
MUPs discovered so far; bit k is set when MUP k has that element. Python
ints serve as arbitrary-width bit vectors, so AND/OR are single C-level
operations and appending a MUP is O(d) mask updates.

``dominated_by_any(P)``: P is dominated by some MUP iff ANDing, per
attribute, ``mask[X]`` (for P's X elements) or ``mask[X] | mask[v]``
(for deterministic v) is non-zero. DEEPDIVER skips such nodes; the
enhancement's GREEDY (Algorithm 4) reads the same masks.
"""
from __future__ import annotations

from typing import List, Sequence

from repro.core.patterns import X, Pattern


class MupIndex:
    """Incremental dominance index over a growing set of MUPs."""

    def __init__(self, cards: Sequence[int]):
        self.cards = list(cards)
        self.d = len(self.cards)
        # masks[i][v] for v in 0..c_i-1; masks[i][c_i] is the X mask.
        self.masks: List[List[int]] = [[0] * (c + 1) for c in self.cards]
        self.m = 0
        self.mups: List[Pattern] = []

    def add(self, p: Pattern) -> None:
        bit = 1 << self.m
        for i, v in enumerate(p):
            slot = self.cards[i] if v == X else v
            self.masks[i][slot] |= bit
        self.m += 1
        self.mups.append(p)

    def dominated_by_any(self, p: Pattern) -> bool:
        """True iff some MUP dominates p (p equal to or below a MUP)."""
        if self.m == 0:
            return False
        bv = (1 << self.m) - 1
        for i, v in enumerate(p):
            xmask = self.masks[i][self.cards[i]]
            bv &= xmask if v == X else (xmask | self.masks[i][v])
            if not bv:
                return False
        return bv != 0
