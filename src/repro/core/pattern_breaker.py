"""PATTERN-BREAKER — the top-down algorithm (Algorithm 1, §III-C).

Level-by-level BFS from the root ``XX…X``. Covered nodes generate the
next level's candidates under Rule 1, so every node is generated at most
once (Theorem 3). A candidate all of whose parents were covered at the
previous level is a *MUP candidate*: its coverage is evaluated and it is
either a MUP (cov < τ) or covered (and expands). A candidate with any
non-covered parent is uncovered-and-dominated by monotonicity and is
pruned without touching the data.

The search runs one numpy batch per set of deterministic positions, the
way Apriori generates and prunes its candidates (Agrawal & Srikant,
VLDB 1994). The covered nodes on a set S are kept as a flag per cell of
``CoverageIndex.cells(S)``, set on the covered ones (a cell's code is
mixed radix, first position most significant). Rule 1 sets one
position i right of max(S), so the candidates on T = S ∪ {i} are the
codes ``s·c_i + v`` of S's covered codes s. A candidate's other parents
drop a position j < i: T ∖ {j} must hold covered nodes, and each
parent's code, the candidate's with j's digit cut out, is looked up in
T ∖ {j}'s flags. The survivors on T are evaluated by one
``CoverageIndex.cov_many`` gather. A code on T is below Π c_T, the size
of T's cell array, so no code overflows however wide the pattern is,
and the flags are at most an eighth of the int64 cells already held.

The subsets form the Rule-1 tree too (T's parent is T[:-1]), and
:func:`rule1_walk` visits it from a worklist of subsets: popped
first-in first-out it is this BFS, level by level; popped last-in
first-out it is DEEPDIVER's DFS (see :mod:`repro.core.deepdiver`).
"""
from __future__ import annotations

from collections import deque
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
    return rule1_walk(idx, tau, max_level, time_limit, depth_first=False)


def rule1_walk(
    idx: CoverageIndex,
    tau: int,
    max_level: Optional[int],
    time_limit: Optional[float],
    *,
    depth_first: bool,
) -> Set[Pattern]:
    """The MUPs of level ≤ ``max_level``, one batch per attribute subset
    T of the Rule-1 tree, visited breadth- or depth-first.

    A subset's children T ∪ {j}, j > max(T), are appended in increasing
    j with T's covered codes. The covered flags of every visited subset
    are kept; a T ∖ {u} missing from them holds no covered node and
    prunes T whole. The clock is read at every popped subset.
    """
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
    # Subset S -> a flag per cell of S, set on its covered nodes.
    covered: Dict[Tuple[int, ...], np.ndarray] = {(): np.ones(1, dtype=bool)}
    # (T, covered codes of T's Rule-1 parent T[:-1]); the root has code 0.
    todo = deque(((i,), np.zeros(1, dtype=np.int64)) for i in range(d if depth else 0))
    pop = todo.pop if depth_first else todo.popleft
    while todo:
        deadline.check()
        t_attrs, s_codes = pop()
        # Each other parent's subset must hold covered nodes.
        drops = [t_attrs[:u] + t_attrs[u + 1 :] for u in range(len(t_attrs) - 1)]
        if not all(q in covered for q in drops):
            continue
        c = cards[t_attrs[-1]]
        cand = (s_codes[:, None] * c + np.arange(c)).ravel()
        # Drop position u: cut its digit out of the code.
        low = c  # Π c over the positions right of u
        for u in range(len(drops) - 1, -1, -1):
            cu = cards[t_attrs[u]]
            cand = cand[covered[drops[u]][cand // (cu * low) * low + cand % low]]
            low *= cu
        if not len(cand):
            continue
        low_cov = idx.cov_many(t_attrs, cand) < tau
        if low_cov.any():
            mups.update(_decode(cand[low_cov], t_attrs, cards, d))
            cand = cand[~low_cov]
        if not len(cand):
            continue
        covered[t_attrs] = f = np.zeros(len(idx.cells(t_attrs)), dtype=bool)
        f[cand] = True
        if len(t_attrs) < depth:
            todo.extend((t_attrs + (j,), cand) for j in range(t_attrs[-1] + 1, d))
    return mups


def _decode(codes: np.ndarray, attrs: Tuple[int, ...], cards: Sequence[int], d: int) -> Set[Pattern]:
    """The patterns on ``attrs`` with the given cell codes, as tuples of ints."""
    out = np.full((d, len(codes)), pt.X, dtype=np.int64)
    out[list(attrs)] = np.unravel_index(codes, [cards[i] for i in attrs])
    return set(zip(*out.tolist()))
