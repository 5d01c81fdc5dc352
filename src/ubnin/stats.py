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
for one network, so the result does not depend on the block size. One call
of ``_block_statistic`` computes one block, of as many splits as
``_block_size`` gives for their float64 (splits, regions, regions)
correlation stack; the fingerprint blocks its subjects by the same rule.

The levels are nested: the k strongest edges of a network hold the k' < k
strongest. So a block visits its levels in ascending edge count, and each
level partitions only the prefix of the upper triangles that the level
before left below its cut (``ranked``); a repeated edge count partitions
nothing. Each level's mean goes to the column of its place in
``sparsities``, so the order of the levels given changes no value.

The work arrays are views of buffers that each thread keeps and reuses for
all its tests (``_work_array``); not one set per process, because numpy
releases the GIL, so threads that test at once need arrays of their own.

``one_way_anova`` computes its tail probability with the standard library
(``_f_tail``): a continued fraction for the regularized incomplete beta
function. At a given x it is within 2e-12 relative of 50-digit mpmath for 1
to 25 between-group and up to 2*10^4 within-group degrees of freedom (the
largest cohort has 245), and within 4e-11 at 10^6. The p of ``one_way_anova``
also carries the rounding of x, about df_within ulps. No run imports scipy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain, islice
from typing import ClassVar

import numpy as np

from .errors import DegenerateDesignError, ValidationError, _check_count
from .graphs import _keep_strongest, _upper_flat, target_edge_count
from .metrics import _clustering
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
    if not sparsities:
        raise ValidationError("permutation test needs at least one sparsity level")
    labels = group_a.region_labels
    r = len(labels)
    edges = [target_edge_count(s, r * (r - 1) // 2) for s in sparsities]  # checks each level
    _check_count("iterations", iterations, 1)
    _check_count("seed", seed, 0)
    iterations, seed = int(iterations), int(seed)
    pool = np.vstack([group_a.volume_matrix(), group_b.volume_matrix()])
    n_a = len(group_a)
    n_total = len(pool)
    splits = chain(
        [np.arange(n_total)],  # the observed split
        (np.random.default_rng([seed, t]).permutation(n_total) for t in range(iterations)),
    )
    # Row 0 holds the observed statistic, row t + 1 that of iteration t. The
    # rows are filled in place, so the array stays C-ordered: the mean over
    # iterations below then sums in the same order as over a list of rows.
    stat = np.empty((iterations + 1, len(sparsities)))
    ascending = sorted(range(len(edges)), key=edges.__getitem__)
    block = _block_size(r)
    for start in range(0, iterations + 1, block):
        rows = np.array(list(islice(splits, block)))
        stat[start:start + block] = _block_statistic(pool, n_a, labels, edges, ascending, rows)

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


def _block_size(regions: int) -> int:
    """Networks per block: as many float64 (regions, regions) matrices as fit
    ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (8 * regions * regions))


def _block_statistic(pool, n_a, labels, edges, ascending, splits) -> np.ndarray:
    """Mean clustering of A minus that of B, per split (row) and level (column).

    Row i of ``splits`` orders the rows of ``pool`` with A's first ``n_a``.
    ``edges`` holds each level's edge count and ``ascending`` the levels in
    ascending edge count. The arrays are this thread's work arrays in the
    block's shapes (``_work_array``).

    The first rejected split raises what ``_pearson_rejection`` found in it,
    group A before group B, each checked before the other group's stack
    overwrites the shared work arrays. The gathers pass ``mode="clip"`` to
    ``np.take``, which then writes to ``out`` directly; the default "raise"
    fills a temporary and copies it. Every index is in range, so the mode
    changes no value.
    """
    b, r = len(splits), pool.shape[1]
    # The symmetrized correlations (c + c.T) / 2 of every network, A's then B's.
    weights = _work_array("weights", (2 * b, r, r))
    first = None
    with np.errstate(all="ignore"):  # what numpy warns about is rejected below
        for g, rows in enumerate((splits[:, :n_a], splits[:, n_a:])):
            shape = (b, rows.shape[1], r)  # one group's gathered and centred volumes
            volumes = np.take(pool, rows, axis=0, mode="clip", out=_work_array("volumes", shape))
            c, var = _pearson_stack(volumes, _work_array("corr", (b, r, r)),
                                    _work_array("centred", shape))
            found = _pearson_rejection(volumes, c, var, labels)
            if found and (first is None or found[0] < first[0]):
                first = found
            w = weights[g * b:(g + 1) * b]
            np.add(c, c.transpose(0, 2, 1), out=w)
            w *= 0.5  # the float of w / 2.0
    if first:
        raise first[1]
    # The upper triangles, in an order that each level's partition changes.
    cells = _upper_flat(r)
    upper = weights.reshape(2 * b, r * r).take(cells, axis=1, mode="clip",
                                               out=_work_array("upper", (2 * b, cells.size)))
    adjacency = _work_array("adjacency", (2 * b, r, r), np.float32)
    walks = _work_array("walks", (2 * b, r, r), np.float32)
    means = np.empty((len(edges), 2 * b))  # per level (row) and network
    ranked = m = cells.size
    for level in ascending:
        k = edges[level]
        a = _keep_strongest(weights, upper, k, adjacency, ranked)
        # np.mean's sum; its division by the count follows for every level at once
        np.add.reduce(_clustering(a, walks), axis=1, out=means[level])
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

    The upper tail probability is the regularized incomplete beta function
    I_x(d2/2, d1/2) at x = d2 / (d2 + d1*F), from ``_f_tail`` (see the module
    docstring for its accuracy), clipped to [smallest normal float, 1]. Groups with all values
    identical across the board give F = 0, p = 1 by definition.

    The values are first divided by the power of two that brings the largest
    magnitude into [0.5, 1). That is exact, so F keeps its bits wherever the
    sums stay in float64's normal range, and values near 1e200 or 1e-170 give
    an accurate F where their squares would overflow to nan or underflow to 0.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValidationError("need at least 2 groups")
    if any(a.ndim != 1 or a.size == 0 for a in arrays):
        raise ValidationError("every group must be a non-empty flat sequence")
    if any(not np.all(np.isfinite(a)) for a in arrays):
        raise ValidationError("non-finite value in ANOVA input")
    sizes = np.array([a.size for a in arrays])
    n_total = int(sizes.sum())
    k = len(arrays)
    if n_total <= k:
        raise DegenerateDesignError(
            f"{n_total} observations cannot support {k} group means plus residual variance"
        )
    shift = -math.frexp(max(float(np.abs(a).max()) for a in arrays))[1]
    arrays = [np.ldexp(a, shift) for a in arrays]
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
    p = _f_tail(df_between, df_within, x)
    p = min(max(p, np.finfo(np.float64).tiny), 1.0)
    return AnovaResult(F=f_stat, df_between=df_between, df_within=df_within, p=p)


# The continued fraction below stops when a step changes its value by at
# most one part in 2^52, and gives up after this many steps. Steps grow as
# the square root of the smaller shape: 419 at 10^6 degrees of freedom each.
_CF_STEPS = 10_000
_CF_TINY = 1e-300  # the modified Lentz method's stand-in for a zero denominator


def _f_tail(df_between: int, df_within: int, x: float) -> float:
    """I_x(a, b), a = df_within/2 and b = df_between/2: the F test's upper tail.

    Below x = (a+1)/(a+b+2) the continued fraction of I_x(a, b) converges
    fast; above it, that of I_(1-x)(b, a) does, and the result is one minus
    it. Both are scaled by x^a (1-x)^b / (B(a, b) a), or b in place of a, as
    one ``exp`` of a sum of logarithms (``_ln_beta``).
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a, b = df_within / 2.0, df_between / 2.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method.

    Its terms are 1 + e_1/(1 + e_2/(1 + ...)), with
    e_(2m) = m(b-m)x / ((a+2m-1)(a+2m)) and
    e_(2m+1) = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1)).
    """
    def nonzero(v):
        return v if abs(v) > _CF_TINY else _CF_TINY

    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    c = 1.0
    h = d
    for m in range(1, _CF_STEPS + 1):
        for e in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                  -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + e * d)
            c = nonzero(1.0 + e / c)
            step = d * c
            h *= step
        if abs(step - 1.0) <= 2.0 ** -52:
            return h
    raise ArithmeticError(f"incomplete beta fraction at a={a}, b={b}, x={x} did not converge")


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b) for multiples of 1/2, without the cancellation of three lgammas.

    With s the smaller and g the larger shape, ln B = ln Gamma(s) - ln(Gamma(g+s)
    / Gamma(g)); the ratio is a sum of logarithms over the whole part of s,
    plus ln(Gamma(g+1/2) / Gamma(g)) when s is a half-integer. At 10^5 degrees
    of freedom lgamma(g) is near 5*10^5, so lgamma(a) + lgamma(b) - lgamma(a+b)
    would be off by about 1e-10, and p by that share.
    """
    small, big = min(a, b), max(a, b)
    whole = math.floor(small)
    half = small - whole
    ratio = math.fsum(math.log(big + half + i) for i in range(whole))
    if half:
        ratio += _ln_gamma_half_ratio(big)
    return math.lgamma(small) - ratio


def _ln_gamma_half_ratio(z: float) -> float:
    """ln(Gamma(z + 1/2) / Gamma(z)); from z = 20 on, its asymptotic series in 1/z.

    The series' terms come from Stirling's series of ln Gamma(z + h) at h = 1/2
    and h = 0 (Bernoulli polynomials); the first one left out is 2e-17 at
    z = 20.
    """
    if z < 20.0:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    w = 1.0 / (z * z)
    series = 1 / 8 - w * (1 / 192 - w * (1 / 640 - w * (17 / 14336 - w * (31 / 18432))))
    return 0.5 * math.log(z) - series / z
