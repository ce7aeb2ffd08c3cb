"""Benchmark workloads: what each run generates and audits.

Each workload is one synthetic dataset from ``repro.synth_data`` with
the coverage threshold τ and the remedy target level λ used on it.

``--seed`` does not change the generator seed. It picks a seeded
relabelling of every attribute's values and a seeded row order of the
generated data. The relabelled dataset is isomorphic to the generated
one, so the MUP count, |M_λ| and the coverage evaluations stay the
same for every ``--seed`` and only the order in which the algorithms
meet values changes. A different generator seed is a different-size
instance (at d=12, seed 12 gives 2,230 MUPs against seed 11's 4,376),
so it would be a workload of its own with its own expected counts.

``calls`` says how many times a timed round calls each timed operation
back to back; one sample is the mean of those calls. It makes every
sample of an operation last a second or more, so that short operations
are not timed in single sub-second calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
import pandas as pd

from repro import synth_data as sd


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], pd.DataFrame]  # data seed -> generated frame
    attrs: Tuple[str, ...]
    cards: Tuple[int, ...]
    data_seed: int
    tau: int
    lam: int
    expected_mups: int  # for every --seed
    expected_m_lambda: int
    calls: Dict[str, int]  # timed operation -> calls per sample

    @property
    def params(self) -> Dict[str, object]:
        return {
            "attrs": list(self.attrs), "cards": list(self.cards),
            "data_seed": self.data_seed, "tau": self.tau, "lam": self.lam,
            "calls": dict(self.calls),
        }


_AIRBNB_D = 10
_BLUENILE_ATTRS = tuple(sd.BLUENILE_ATTRS[:6])

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="airbnb10",
            why=(
                "Top-down traversal and the cov() oracle dominate: PB and DD "
                "make 34,430 cov() calls each, and the unbounded DEEPDIVER "
                "inside verify is most of the remedy."
            ),
            generate=lambda s: sd.airbnb_like_pdf(n=100_000, d=_AIRBNB_D, seed=s),
            attrs=tuple(sd.airbnb_attrs(_AIRBNB_D)),
            cards=(2,) * _AIRBNB_D,
            data_seed=11,
            tau=100,
            lam=5,
            expected_mups=1079,
            expected_m_lambda=1535,
            calls={"audit": 2, "breaker": 2, "remedy": 1},
        ),
        Workload(
            name="bluenile6",
            why=(
                "Wide cardinalities move the work to other layers: GREEDY "
                "leads the remedy (|M_3|=2,063 patterns), PATTERN-COMBINER "
                "seeds 20,160 combinations, and the scan's share of the "
                "audit is larger (m=10,233)."
            ),
            generate=lambda s: sd.bluenile_like_pdf(n=116_300, seed=s)[list(_BLUENILE_ATTRS)],
            attrs=_BLUENILE_ATTRS,
            cards=tuple(sd.BLUENILE_CARDS[:6]),
            data_seed=13,
            tau=349,
            lam=3,
            expected_mups=2697,
            expected_m_lambda=2063,
            calls={"audit": 5, "breaker": 16, "remedy": 1},
        ),
    )
}


def make_data(w: Workload, seed: int) -> pd.DataFrame:
    """The generated frame with each attribute's values relabelled by a
    permutation drawn from ``seed``, in a row order drawn from ``seed``."""
    base = w.generate(w.data_seed)
    g = np.random.default_rng(seed)
    cols = {a: g.permutation(c)[base[a].to_numpy()] for a, c in zip(w.attrs, w.cards)}
    return pd.DataFrame(cols).iloc[g.permutation(len(base))].reset_index(drop=True)
