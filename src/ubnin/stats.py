"""Permutation testing of group metric differences, and one-way ANOVA.

The permutation test relabels subjects into pseudo-groups of the original
sizes and recomputes the full correlation-threshold-metric pipeline each
iteration, which is the only resampling scheme that yields a valid null
distribution for group-level covariance networks. The iterations run in one
serial loop, and iteration t draws its relabeling from the stream (seed, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import special

from .errors import DegenerateDesignError, ValidationError
from .graphs import sparsity_threshold
from .metrics import mean_clustering
from .subjects import CohortTable, _pearson_network

__all__ = ["PermutationResult", "permutation_test", "AnovaResult", "one_way_anova"]


@dataclass(frozen=True)
class PermutationResult:
    """Per-sparsity observed differences and permutation p-values."""

    sparsities: tuple[float, ...]
    observed_diff: tuple[float, ...]
    perm_mean_diff: tuple[float, ...]
    p_value: tuple[float, ...]
    iterations: int
    seed: int
    tail: str = "two-tailed"
    metric_name: ClassVar[str] = "mean_clustering"

    def __post_init__(self):
        n = len(self.sparsities)
        for name in ("observed_diff", "perm_mean_diff", "p_value"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"{name} length does not match sparsity levels")
        lo = 1.0 / (self.iterations + 1)
        if any(not lo <= p <= 1.0 for p in self.p_value):
            raise ValidationError(f"p-values must lie in [{lo}, 1]")

    def to_dict(self) -> dict:
        return {
            "sparsities": list(self.sparsities),
            "observed_diff": list(self.observed_diff),
            "perm_mean_diff": list(self.perm_mean_diff),
            "p_value": list(self.p_value),
            "iterations": self.iterations,
            "seed": self.seed,
            "tail": self.tail,
            "metric": self.metric_name,
        }


def permutation_test(group_a: CohortTable, group_b: CohortTable, sparsities,
                     iterations: int = 1000, seed: int = 0) -> PermutationResult:
    """Nonparametric permutation test of a group mean-clustering difference.

    The observed statistic, per sparsity level, is the mean clustering of the
    binarized group association matrix of A minus the same for B. Each
    iteration reassigns the pooled subjects uniformly at random to
    pseudo-groups of the original sizes and recomputes the whole statistic.
    The two-tailed p-value uses add-one smoothing:
    (1 + #{|perm| >= |observed|}) / (1 + iterations).

    Iteration t relabels the subjects with ``np.random.default_rng([seed, t])``,
    so equal inputs, iterations and seed give an equal result.
    """
    if group_a.region_labels != group_b.region_labels:
        raise ValidationError("cohorts must share identical region labels")
    if len(group_a) < 3 or len(group_b) < 3:
        raise DegenerateDesignError("permutation test needs >= 3 subjects per cohort")
    sparsities = tuple(float(s) for s in sparsities)
    if not sparsities or any(not 0 < s <= 1 for s in sparsities):
        raise ValueError("sparsity levels must be a non-empty subset of (0, 1]")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    labels = group_a.region_labels
    pool = np.vstack([group_a.volume_matrix(), group_b.volume_matrix()])
    n_a = len(group_a)
    n_total = pool.shape[0]

    def stat(rows_a, rows_b):
        net_a = _pearson_network(pool[rows_a], labels)
        net_b = _pearson_network(pool[rows_b], labels)
        return [
            mean_clustering(sparsity_threshold(net_a, s))
            - mean_clustering(sparsity_threshold(net_b, s))
            for s in sparsities
        ]

    observed = stat(np.arange(n_a), np.arange(n_a, n_total))

    perms = (np.random.default_rng([seed, t]).permutation(n_total) for t in range(iterations))
    perm_stats = np.asarray([stat(perm[:n_a], perm[n_a:]) for perm in perms])
    obs = np.asarray(observed)
    exceed = (np.abs(perm_stats) >= np.abs(obs)).sum(axis=0)
    p = (1.0 + exceed) / (1.0 + iterations)
    return PermutationResult(
        sparsities=sparsities,
        observed_diff=tuple(float(x) for x in obs),
        perm_mean_diff=tuple(float(x) for x in perm_stats.mean(axis=0)),
        p_value=tuple(float(x) for x in p),
        iterations=iterations,
        seed=seed,
    )


@dataclass(frozen=True)
class AnovaResult:
    """One-way ANOVA outcome."""

    F: float
    df_between: int
    df_within: int
    p: float

    def to_dict(self) -> dict:
        return {"F": self.F, "df_between": self.df_between, "df_within": self.df_within, "p": self.p}


def one_way_anova(groups) -> AnovaResult:
    """Standard one-way F test across two or more groups of values.

    The upper tail probability comes from the regularized incomplete beta
    function, I_x(d2/2, d1/2) at x = d2 / (d2 + d1*F). Groups with all values
    identical across the board give F = 0, p = 1 by definition.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValueError("need at least 2 groups")
    if any(a.ndim != 1 or a.size == 0 for a in arrays):
        raise ValueError("every group must be a non-empty flat sequence")
    if any(not np.all(np.isfinite(a)) for a in arrays):
        raise ValidationError("non-finite value in ANOVA input")
    sizes = np.array([a.size for a in arrays])
    n_total = int(sizes.sum())
    k = len(arrays)
    if n_total <= k:
        raise DegenerateDesignError(
            f"{n_total} observations cannot support {k} group means plus residual variance"
        )
    grand = float(np.concatenate(arrays).mean())
    means = np.array([a.mean() for a in arrays])
    ss_between = float((sizes * (means - grand) ** 2).sum())
    ss_within = float(sum(((a - m) ** 2).sum() for a, m in zip(arrays, means)))
    df_between = k - 1
    df_within = n_total - k
    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(F=0.0, df_between=df_between, df_within=df_within, p=1.0)
        raise DegenerateDesignError("zero within-group variance with unequal group means")
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    x = df_within / (df_within + df_between * f_stat)
    p = float(special.betainc(df_within / 2.0, df_between / 2.0, x))
    p = min(max(p, np.finfo(np.float64).tiny), 1.0)
    return AnovaResult(F=f_stat, df_between=df_between, df_within=df_within, p=p)
