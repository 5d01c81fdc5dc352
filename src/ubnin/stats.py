"""Permutation testing of group metric differences, and one-way ANOVA.

The permutation test relabels subjects into pseudo-groups of the original
sizes and recomputes the full correlation-threshold-metric pipeline each
iteration, which is the only resampling scheme that yields a valid null
distribution for group-level covariance networks. Iteration t draws its
relabeling from the stream (seed, t).

The statistic is computed for a block of splits at a time, on raw arrays:
one correlation stack per group (``_pearson_stack``), one partition per
level for the thresholds of the whole block, and one float32 matrix product
for its closed walks. A block holds as many splits as fit ``_BLOCK_BYTES``
for its float64 (splits, regions, regions) correlation stack. The floats are
those of ``_pearson_network``, ``sparsity_threshold`` and
``nodal_clustering``, so the result does not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import ClassVar

import numpy as np
from scipy import special

from .errors import DegenerateDesignError, ValidationError
from .graphs import _upper_flat, target_edge_count
# perfbench/tracing.py wraps ``stats.sparsity_threshold`` and
# ``stats._pearson_network``: the block kernel does not call the first, and
# calls the second only to raise what a rejected split raises.
from .graphs import sparsity_threshold  # noqa: F401
from .subjects import CohortTable, _pearson_network, _pearson_rejects, _pearson_stack

# A block holds as many splits as fit this many bytes of float64 (B, r, r)
# correlation stack: 4 at 90 regions. At 90 regions, blocks of 2 to 8 splits
# ran a cohort-permutation round equally fast; larger blocks only add memory.
_BLOCK_BYTES = 256 << 10

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
    so equal inputs, iterations and seed give an equal result. The statistics
    are computed for a block of splits at a time, whatever the block size: the
    observed split first, then the iterations in order.
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
    n_total, r = pool.shape
    edges = [target_edge_count(s, r * (r - 1) // 2) for s in sparsities]
    splits = chain(
        [np.arange(n_total)],  # the observed split
        (np.random.default_rng([seed, t]).permutation(n_total) for t in range(iterations)),
    )
    # Row 0 holds the observed statistic, row t + 1 that of iteration t. The
    # rows are filled in place, so the array stays C-ordered: the mean over
    # iterations below then sums in the same order as over a list of rows.
    stat = np.empty((iterations + 1, len(sparsities)))
    block = max(1, _BLOCK_BYTES // (8 * r * r))
    kernel = _BlockKernel(pool, n_a, labels, edges, min(block, iterations + 1))
    for start in range(0, iterations + 1, block):
        rows = np.array(list(islice(splits, block)))
        stat[start:start + len(rows)] = kernel.statistic(rows)

    obs, perm_stats = stat[0], stat[1:]
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


class _BlockKernel:
    """The statistic of a block of splits at a time, over work arrays reused
    from block to block.

    Fresh arrays for every block cost more than their arithmetic: freed
    arrays of a few hundred KiB go back to the system, and refilling them
    page by page took about a third of the test's time at 90 regions and 24
    iterations.
    """

    def __init__(self, pool, n_a, labels, edges, rows):
        r = pool.shape[1]
        self.pool, self.n_a, self.labels, self.edges = pool, n_a, labels, edges
        self.upper_cells = _upper_flat(r)
        self.corr = np.empty((rows, r, r))
        # The symmetrized correlations (c + c.T) / 2 of every network, A's
        # then B's, with -inf on the diagonal so no threshold keeps a self-loop.
        self.weights = np.empty((2 * rows, r, r))
        # Their upper triangles, in an order that each level's partition changes.
        self.upper = np.empty((2 * rows, self.upper_cells.size))
        self.adjacency = np.empty((2 * rows, r, r), dtype=np.float32)
        self.walks = np.empty_like(self.adjacency)

    def statistic(self, splits) -> np.ndarray:
        """Mean clustering of A minus that of B, per split (row) and level (column).

        Row i of ``splits`` orders the pooled subjects with A's first
        ``n_a``. A split that ``_pearson_network`` would reject raises,
        through a call of it on that split, what the one-network path raises
        for the first such split: group A before group B.
        """
        pool, n_a = self.pool, self.n_a
        b, r = len(splits), pool.shape[1]
        weights = self.weights[:2 * b]
        rejected = np.empty((2, b), dtype=bool)
        with np.errstate(all="ignore"):  # a rejected split warns in the call below
            for g, rows in enumerate((splits[:, :n_a], splits[:, n_a:])):
                volumes = pool[rows]
                c, var = _pearson_stack(volumes, out=self.corr[:b])
                rejected[g] = _pearson_rejects(volumes, c, var)
                w = weights[g * b:(g + 1) * b]
                np.add(c, c.transpose(0, 2, 1), out=w)
                w /= 2.0
        if rejected.any():
            first = splits[np.argmax(rejected.any(axis=0))]
            _pearson_network(pool[first[:n_a]], self.labels)
            _pearson_network(pool[first[n_a:]], self.labels)
        flat = weights.reshape(2 * b, r * r)
        flat[:, ::r + 1] = -np.inf
        flat.take(self.upper_cells, axis=1, out=self.upper[:2 * b])
        clustering = np.empty((2 * b, len(self.edges)))
        for level, k in enumerate(self.edges):
            clustering[:, level] = self._mean_clustering(2 * b, k)
        return clustering[:b] - clustering[b:]

    def _mean_clustering(self, g: int, k: int) -> np.ndarray:
        """``mean_clustering(sparsity_threshold(w, keep))`` for the first g networks.

        k is the edge count ``sparsity_threshold`` keeps. The edges kept and
        the arithmetic are those of ``sparsity_threshold`` and
        ``nodal_clustering``, so each mean is the same float.
        """
        weights, upper = self.weights[:g], self.upper[:g]
        n, m = weights.shape[1], upper.shape[1]
        if k == 0:
            return np.zeros(g)
        # t is each network's k-th largest weight. Every weight above it is
        # kept, and of those equal to it the first in (row, col) order fill
        # the k places.
        upper.partition(m - k, axis=1)
        t = upper[:, m - k]
        a = np.greater_equal(weights, t[:, None, None], out=self.adjacency[:g], casting="unsafe")
        extra = np.count_nonzero(upper >= t[:, None], axis=1) - k
        for i in np.flatnonzero(extra):
            ties = np.flatnonzero(np.triu(weights[i] == t[i], 1))  # (row, col) order
            for cell in ties[ties.size - extra[i]:]:
                row, col = divmod(int(cell), n)
                a[i, row, col] = a[i, col, row] = 0.0
        # 2-walk counts, exact in float32 as in nodal_clustering; a node's
        # closed 2-walks are its degree.
        walks = np.matmul(a, a, out=self.walks[:g])
        deg = np.diagonal(walks, axis1=1, axis2=2).astype(np.float64)
        closed = np.einsum("gij,gij->gi", walks, a, dtype=np.float64)
        c = np.zeros((g, n))
        connected = deg >= 2
        d = deg[connected]
        c[connected] = closed[connected] / (d * (d - 1.0))
        return c.mean(axis=1)


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
