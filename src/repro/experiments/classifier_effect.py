"""T2 (Fig 11, §V-B.2): effect of lack of coverage on classification.

Trains the decision-tree substrate on sex/age/race/marital to predict
recidivism. A fixed test set of 20 Hispanic females (HF) is held out;
training sets contain all non-HF individuals plus {0, 20, 40, 60, 80}
HF. The paper observes <50% HF accuracy with 0 HF and monotone-ish
improvement as coverage is remedied, while the global cross-validated
accuracy (~0.76) looks fine.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pandas as pd

from repro import synth_data as sd
from repro.ml import DecisionTree, accuracy, f1_score

FEATURES = sd.COMPAS_ATTRS
LABEL = "reoffend"


def run(
    spark=None,
    *,
    n: int = 6889,
    seed: int = 7,
    hf_train_counts: Sequence[int] = (0, 20, 40, 60, 80),
    n_test_hf: int = 20,
    max_depth: int = 8,
) -> List[dict]:
    """Rows of the Fig-11 table. Driver-only: ``spark`` is accepted so
    every harness has the same call shape, and is not used."""
    pdf = sd.compas_like_pdf(n=n, seed=seed)
    g = np.random.default_rng(seed + 1)

    # Global sanity reference: random 80/20 split over the full data.
    perm = g.permutation(len(pdf))
    cut = int(0.8 * len(pdf))
    tr, te = pdf.iloc[perm[:cut]], pdf.iloc[perm[cut:]]
    tree = DecisionTree(max_depth=max_depth).fit(
        tr[FEATURES].to_numpy(), tr[LABEL].to_numpy()
    )
    pred = tree.predict(te[FEATURES].to_numpy())
    rows: List[dict] = [
        {
            "setting": "global_holdout",
            "hf_in_training": "-",
            "accuracy": accuracy(te[LABEL].to_numpy(), pred),
            "f1": f1_score(te[LABEL].to_numpy(), pred),
        }
    ]

    hf_mask = (pdf.race == 2) & (pdf.sex == 1)
    hf = pdf[hf_mask].sample(frac=1.0, random_state=seed)  # shuffled HF pool
    non_hf = pdf[~hf_mask]
    test_hf = hf.iloc[:n_test_hf]
    pool_hf = hf.iloc[n_test_hf:]
    if len(pool_hf) < max(hf_train_counts):
        raise ValueError(
            f"only {len(pool_hf)} HF available for training, "
            f"need {max(hf_train_counts)}"
        )
    for k in hf_train_counts:
        train = pd.concat([non_hf, pool_hf.iloc[:k]], ignore_index=True)
        tree = DecisionTree(max_depth=max_depth).fit(
            train[FEATURES].to_numpy(), train[LABEL].to_numpy()
        )
        pred = tree.predict(test_hf[FEATURES].to_numpy())
        rows.append(
            {
                "setting": "hf_test",
                "hf_in_training": k,
                "accuracy": accuracy(test_hf[LABEL].to_numpy(), pred),
                "f1": f1_score(test_hf[LABEL].to_numpy(), pred),
            }
        )
    return rows
