"""Synthetic stand-ins for the paper's three datasets.

The paper evaluates on three real datasets we cannot ship (COMPAS,
AirBnB listings, BlueNile diamonds). The generators below reproduce
their schemas, cardinalities, and — via mixture/conditional skew — the
covered/uncovered *structure* the experiments depend on. See DESIGN.md
§3 for the substitution rationale. Generators are deterministic in
``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


COMPAS_ATTRS = ["sex", "age", "race", "marital"]
COMPAS_CARDS = [2, 4, 4, 7]


def compas_like_pdf(*, n: int = 6889, seed: int = 7) -> pd.DataFrame:
    """Synthetic COMPAS: sex(2), age(4), race(4), marital(7) + label.

    Marginals keep every single attribute value above the paper's τ=10
    while conditional skew (marital | age, and extra thinning of
    widowed Hispanics) creates sparse level-2+ intersections, including
    the paper's headline ``XX23`` (widowed Hispanic, ~2 rows). The
    binary ``reoffend`` label follows a global age-driven rule, except
    for Hispanic females whose rule is inverted — reproducing the
    §V-B.2 setup where a model trained without HF coverage mispredicts
    that group.
    """
    g = _rng(seed)
    sex = g.choice(2, n, p=[0.81, 0.19])  # 0 male, 1 female
    age = g.choice(4, n, p=[0.10, 0.55, 0.28, 0.07])
    race = g.choice(4, n, p=[0.50, 0.34, 0.09, 0.07])
    # marital | age: single/married/separated/widowed/sig-other/divorced/unknown
    marital_by_age = np.array(
        [
            [0.920, 0.020, 0.005, 0.001, 0.040, 0.004, 0.010],  # under 20
            [0.600, 0.170, 0.060, 0.004, 0.090, 0.060, 0.016],  # 20-39
            [0.380, 0.280, 0.090, 0.020, 0.050, 0.160, 0.020],  # 40-59
            [0.220, 0.330, 0.080, 0.130, 0.030, 0.190, 0.020],  # 60+
        ]
    )
    u = g.random(n)
    cdf = marital_by_age.cumsum(axis=1)
    marital = (u[:, None] > cdf[age]).sum(axis=1)
    # Thin widowed Hispanics to ~2 rows (the paper's XX23 MUP).
    widowed_hisp = (race == 2) & (marital == 3)
    flip = widowed_hisp & (g.random(n) > 0.04)
    marital = np.where(flip, 0, marital)

    p_global = np.array([0.88, 0.70, 0.30, 0.12])[age] * np.where(sex == 1, 0.6, 1.0)
    p_hf = np.array([0.10, 0.20, 0.85, 0.90])[age]
    hf = (race == 2) & (sex == 1)
    p = np.where(hf, p_hf, p_global)
    reoffend = (g.random(n) < p).astype(np.int64)
    return pd.DataFrame(
        {
            "sex": sex.astype(np.int64),
            "age": age.astype(np.int64),
            "race": race.astype(np.int64),
            "marital": marital.astype(np.int64),
            "reoffend": reoffend,
        }
    )


def compas_like(spark: SparkSession, *, n: int = 6889, seed: int = 7) -> DataFrame:
    return spark.createDataFrame(compas_like_pdf(n=n, seed=seed))


AIRBNB_MAX_D = 36


def airbnb_attrs(d: int) -> list:
    return [f"a{i}" for i in range(d)]


def airbnb_like_pdf(*, n: int = 100_000, d: int = 15, seed: int = 11) -> pd.DataFrame:
    """Synthetic AirBnB: ``d`` (≤36) boolean amenity attributes.

    Mixture of 8 listing prototypes: each attribute has a skewed global
    rate (many rare amenities) shifted per cluster, giving correlated
    columns and therefore realistic large covered regions next to empty
    ones — the structure the MUP-identification sweeps depend on.
    """
    if not 1 <= d <= AIRBNB_MAX_D:
        raise ValueError(f"d must be in [1, {AIRBNB_MAX_D}]")
    g = _rng(seed)
    k = 8
    base = g.beta(0.7, 1.6, size=AIRBNB_MAX_D)
    logit = np.log(base / (1 - base))
    shift = g.normal(0.0, 1.5, size=(k, AIRBNB_MAX_D))
    rate = 1.0 / (1.0 + np.exp(-(logit[None, :] + shift)))
    weights = g.dirichlet(np.full(k, 2.0))
    z = g.choice(k, size=n, p=weights)
    x = (g.random((n, d)) < rate[z][:, :d]).astype(np.int64)
    return pd.DataFrame(x, columns=airbnb_attrs(d))


def airbnb_like(
    spark: SparkSession, *, n: int = 100_000, d: int = 15, seed: int = 11
) -> DataFrame:
    df = spark.createDataFrame(airbnb_like_pdf(n=n, d=d, seed=seed))
    return df.repartition(spark.sparkContext.defaultParallelism)


BLUENILE_ATTRS = ["shape", "cut", "color", "clarity", "polish", "symmetry", "florescence"]
BLUENILE_CARDS = [10, 4, 7, 8, 3, 3, 5]


def bluenile_like_pdf(*, n: int = 116_300, seed: int = 13) -> pd.DataFrame:
    """Synthetic BlueNile: 7 categorical attributes, cards 10/4/7/8/3/3/5.

    Per-cluster Dirichlet-skewed categorical distributions give each
    attribute a long tail (some shapes/colors rare), so higher-level
    intersections go uncovered while the wide bottom level (>100K
    combinations) stresses the bottom-up algorithm exactly as in §V-C.1.
    """
    g = _rng(seed)
    k = 6
    weights = g.dirichlet(np.full(k, 2.0))
    z = g.choice(k, size=n, p=weights)
    cols = {}
    for a, c in zip(BLUENILE_ATTRS, BLUENILE_CARDS):
        probs = g.dirichlet(np.full(c, 0.5), size=k)
        u = g.random(n)
        cdf = probs.cumsum(axis=1)
        cols[a] = (u[:, None] > cdf[z]).sum(axis=1).astype(np.int64)
    return pd.DataFrame(cols)


def bluenile_like(spark: SparkSession, *, n: int = 116_300, seed: int = 13) -> DataFrame:
    df = spark.createDataFrame(bluenile_like_pdf(n=n, seed=seed))
    return df.repartition(spark.sparkContext.defaultParallelism)
