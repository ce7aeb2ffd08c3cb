"""PATTERN-BREAKER — the top-down algorithm (Algorithm 1, §III-C).

Level-by-level BFS from the root ``XX…X``. Covered nodes generate the
next level's candidates under Rule 1, so every node is generated at most
once (Theorem 3). A candidate all of whose parents were covered at the
previous level is a *MUP candidate*: its coverage is evaluated and it is
either a MUP (cov < τ) or covered (and expands). A candidate with any
non-covered parent is uncovered-and-dominated by monotonicity and is
pruned without touching the data.

Each level is evaluated in batches, the way Apriori generates and
prunes its candidates (Agrawal & Srikant, VLDB 1994). The covered nodes
of a level are kept per set S of deterministic positions, as a flag per
cell of ``CoverageIndex.cells(S)``, set on the covered ones (a cell's
code is mixed radix, first position most significant). Rule 1 sets one
position i right of max(S), so the candidates on T = S ∪ {i} are the
codes ``s·c_i + v`` of S's covered codes s. A candidate's other parents
drop a position j < i: T ∖ {j} must hold covered nodes, and each
parent's code, the candidate's with j's digit cut out, is looked up in
T ∖ {j}'s flags. The survivors on T are evaluated by one
``CoverageIndex.cov_many`` gather. A code on T is below Π c_T, the size
of T's cell array, so no code overflows however wide the pattern is,
and the flags are at most an eighth of the int64 cells already held.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, Deadline
from repro.core.patterns import Pattern


def mups_pattern_breaker(
    idx: CoverageIndex,
    tau: int,
    *,
    max_level: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Set[Pattern]:
    """Return all MUPs (restricted to level ≤ ``max_level`` if given)."""
    # A batch costs far more than a clock read: read it at every one.
    deadline = Deadline(time_limit, stride=1)
    d = idx.d
    cards = idx.cards
    depth = d if max_level is None else min(d, max_level)
    if tau <= 0:  # no pattern has coverage below τ
        return set()
    r = pt.root(d)
    if idx.cov(r) < tau:
        return {r}

    mups: Set[Pattern] = set()
    # Subset S -> a flag per cell of S, set on this level's covered nodes.
    covered: Dict[Tuple[int, ...], np.ndarray] = {(): np.ones(1, dtype=bool)}
    for _ in range(depth):
        nxt: Dict[Tuple[int, ...], np.ndarray] = {}
        for s_attrs, s_flags in covered.items():
            s_codes = np.flatnonzero(s_flags)
            for i in range(s_attrs[-1] + 1 if s_attrs else 0, d):
                t_attrs = s_attrs + (i,)
                # Each other parent's subset must hold covered nodes.
                drops = [t_attrs[:u] + t_attrs[u + 1 :] for u in range(len(s_attrs))]
                if not all(q in covered for q in drops):
                    continue
                deadline.check()
                c = cards[i]
                cand = (s_codes[:, None] * c + np.arange(c)).ravel()
                # Drop position u: cut its digit out of the code.
                low = c  # Π c over the positions right of u
                for u in range(len(s_attrs) - 1, -1, -1):
                    cu = cards[t_attrs[u]]
                    cand = cand[covered[drops[u]][cand // (cu * low) * low + cand % low]]
                    low *= cu
                if not len(cand):
                    continue
                low_cov = idx.cov_many(t_attrs, cand) < tau
                if low_cov.any():
                    mups.update(_decode(cand[low_cov], t_attrs, cards, d))
                    cand = cand[~low_cov]
                if len(cand):
                    nxt[t_attrs] = f = np.zeros(len(idx.cells(t_attrs)), dtype=bool)
                    f[cand] = True
        covered = nxt
    return mups


def _decode(codes: np.ndarray, attrs: Tuple[int, ...], cards: Sequence[int], d: int) -> Set[Pattern]:
    """The patterns on ``attrs`` with the given cell codes, as tuples of ints."""
    out = np.full((d, len(codes)), pt.X, dtype=np.int64)
    out[list(attrs)] = np.unravel_index(codes, [cards[i] for i in attrs])
    return set(zip(*out.tolist()))
