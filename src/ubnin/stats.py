"""Permutation testing of group metric differences, and one-way ANOVA.

The permutation test relabels subjects into pseudo-groups of the original
sizes and recomputes the full correlation-threshold-metric pipeline each
iteration, which is the only resampling scheme that yields a valid null
distribution for group-level covariance networks. Iteration t draws its
relabeling from the stream (seed, t).

The statistic is computed for a block of splits at a time, on raw arrays:
one correlation stack per group (``_pearson_stack``, whose one-matrix case
is ``_pearson_network``) and its checks (``_pearson_rejection``), then per
level one call of ``graphs._keep_strongest`` and one of
``metrics._clustering`` on the stack of the whole block.
``sparsity_threshold`` and ``nodal_clustering`` call the same two functions
for one network, so the result does not depend on the block size. A block
holds as many splits as fit ``_BLOCK_BYTES`` for its float64 (splits,
regions, regions) correlation stack.

The levels are nested: the k strongest edges of a network hold the k' < k
strongest. So a block visits its levels in ascending edge count, and each
level partitions only the prefix of the upper triangles that the level
before left below its cut (``ranked``); a repeated edge count partitions
nothing. Each level's mean goes to the column of its place in
``sparsities``, so the order of the levels given changes no value.

The work arrays are views of buffers that each thread keeps and reuses for
all its tests (``_work_array``); not one set per process, because numpy
releases the GIL, so threads that test at once need arrays of their own.

``one_way_anova`` takes its tail probability from ``scipy.special``, which
it imports on its first call, so importing ``ubnin`` loads no scipy and a
run that makes no ANOVA (``pipeline.run_fingerprint``) never pays for it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain, islice
from typing import ClassVar

import numpy as np

from .errors import DegenerateDesignError, ValidationError
from .graphs import _keep_strongest, _upper_flat, target_edge_count
from .metrics import _check_count, _clustering
from .subjects import CohortTable, _pearson_rejection, _pearson_stack
# Not called here: kept only because perfbench/tracing.py WRAPPED looks them up.
from .graphs import sparsity_threshold  # noqa: F401
from .subjects import _pearson_network  # noqa: F401

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
    tail: ClassVar[str] = "two-tailed"
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


_thread = threading.local()  # per thread: ``vars(_thread)`` maps names to flat buffers


def _work_array(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A C-ordered array of ``shape`` on this thread's buffer ``name``; contents undefined.

    Each buffer grows to the largest size a call in this thread has asked for
    and is then kept: calls of one shape get the same memory every time, and a
    smaller call a prefix of it. Freed arrays of a few hundred KiB go back to
    the system, so fresh ones for every test cost a page fault per 4 KiB page
    on every call.
    """
    buffers = vars(_thread)
    size = math.prod(shape)
    buffer = buffers.get(name)
    if buffer is None or buffer.dtype != dtype or buffer.size < size:
        buffer = buffers[name] = np.empty(size, dtype)
    return buffer[:size].reshape(shape)


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
    observed split first, then the iterations in order. Nor does the result
    depend on what earlier calls left in the work arrays.
    """
    if group_a.region_labels != group_b.region_labels:
        raise ValidationError("cohorts must share identical region labels")
    if len(group_a) < 3 or len(group_b) < 3:
        raise DegenerateDesignError("permutation test needs >= 3 subjects per cohort")
    sparsities = tuple(float(s) for s in sparsities)
    if not sparsities or any(not 0 < s <= 1 for s in sparsities):
        raise ValueError("sparsity levels must be a non-empty subset of (0, 1]")
    _check_count("iterations", iterations)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _check_count("seed", seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    iterations, seed = int(iterations), int(seed)
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
    """The statistic of a block of splits at a time, on this thread's work arrays.

    ``rows`` is the most splits a block holds; the arrays are sized for it.
    The gathers pass ``mode="clip"`` to ``np.take``, which then writes to
    ``out`` directly; the default "raise" fills a temporary and copies it.
    Every index is in range, so the mode changes no value.
    """

    def __init__(self, pool, n_a, labels, edges, rows):
        n_total, r = pool.shape
        self.pool, self.n_a, self.labels, self.edges = pool, n_a, labels, edges
        self.upper_cells = _upper_flat(r)
        # Levels in ascending edge count: each one partitions only the prefix
        # that the level before it left unranked (``_keep_strongest``).
        self.ascending = sorted(range(len(edges)), key=edges.__getitem__)
        # The gathered and the centred volumes of one group of a block.
        size = rows * max(n_a, n_total - n_a) * r
        self.volumes = _work_array("volumes", (size,))
        self.centred = _work_array("centred", (size,))
        self.corr = _work_array("corr", (rows, r, r))
        # The symmetrized correlations (c + c.T) / 2 of every network, A's then B's.
        self.weights = _work_array("weights", (2 * rows, r, r))
        # Their upper triangles, in an order that each level's partition changes.
        self.upper = _work_array("upper", (2 * rows, self.upper_cells.size))
        self.adjacency = _work_array("adjacency", (2 * rows, r, r), np.float32)
        self.walks = _work_array("walks", (2 * rows, r, r), np.float32)

    def statistic(self, splits) -> np.ndarray:
        """Mean clustering of A minus that of B, per split (row) and level (column).

        Row i of ``splits`` orders the pooled subjects with A's first
        ``n_a``. The first rejected split raises what ``_pearson_rejection``
        found in it, group A before group B, each checked before the other
        group's stack overwrites the shared work arrays.
        """
        pool, n_a = self.pool, self.n_a
        b, r = len(splits), pool.shape[1]
        weights = self.weights[:2 * b]
        first = None
        with np.errstate(all="ignore"):  # what numpy warns about is rejected below
            for g, rows in enumerate((splits[:, :n_a], splits[:, n_a:])):
                size, shape = b * rows.shape[1] * r, (b, rows.shape[1], r)
                volumes = np.take(pool, rows, axis=0, mode="clip",
                                  out=self.volumes[:size].reshape(shape))
                c, var = _pearson_stack(volumes, self.corr[:b],
                                        self.centred[:size].reshape(shape))
                found = _pearson_rejection(volumes, c, var, self.labels)
                if found and (first is None or found[0] < first[0]):
                    first = found
                w = weights[g * b:(g + 1) * b]
                np.add(c, c.transpose(0, 2, 1), out=w)
                w *= 0.5  # the float of w / 2.0
        if first:
            raise first[1]
        upper = weights.reshape(2 * b, r * r).take(self.upper_cells, axis=1, mode="clip",
                                                   out=self.upper[:2 * b])
        means = np.empty((len(self.edges), 2 * b))  # per level (row) and network
        ranked = m = upper.shape[1]
        for level in self.ascending:
            k = self.edges[level]
            a = _keep_strongest(weights, upper, k, self.adjacency[:2 * b], ranked)
            # np.mean's sum; its division by the count follows for every level at once
            np.add.reduce(_clustering(a, self.walks[:2 * b]), axis=1, out=means[level])
            ranked = m - k
        means /= r
        return (means[:, :b] - means[:, b:]).T


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
    from scipy import special  # see the module docstring

    f_stat = (ss_between / df_between) / (ss_within / df_within)
    x = df_within / (df_within + df_between * f_stat)
    p = float(special.betainc(df_within / 2.0, df_between / 2.0, x))
    p = min(max(p, np.finfo(np.float64).tiny), 1.0)
    return AnovaResult(F=f_stat, df_between=df_between, df_within=df_within, p=p)
