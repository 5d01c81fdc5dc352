"""The block kernel of ``permutation_test`` against the serial object loop.

``permutation_test`` computes the statistic of several splits per numpy call
on raw arrays; ``permutation_test_objects`` in ``tests/oracles.py`` is the
earlier loop that built one ``WeightedNetwork`` and one ``BinaryNetwork`` per
group and level. Every result must be ``==`` to the oracle's, and every
rejected input must raise the oracle's exception type and message, whatever
the number of splits per block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubnin import (
    CohortTable,
    DegenerateDesignError,
    SubjectRecord,
    UbninError,
    ValidationError,
    group_association_matrix,
    permutation_test,
    stats,
)
from ubnin.graphs import _upper_flat, target_edge_count
from ubnin.subjects import _pearson_network
from oracles import permutation_test_objects
from synth import region_labels

# 1e-4 keeps no edge below 100 regions; 1.0 keeps every edge.
LEVELS = (1e-4, 0.3, 0.6, 0.9, 1.0)


def cohorts(volumes, n_a):
    """Two cohorts over the rows of ``volumes``: the first ``n_a``, then the rest."""
    labels = region_labels(volumes.shape[1])
    records = [SubjectRecord(f"s{i}", 40.0, "F", "G", v) for i, v in enumerate(volumes)]
    return (CohortTable("A", labels, tuple(records[:n_a])),
            CohortTable("B", labels, tuple(records[n_a:])))


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    except (UbninError, ValueError) as exc:
        return type(exc), str(exc)


def block_rows(r: int) -> int:
    return max(1, stats._BLOCK_BYTES // (8 * r * r))


def set_block_rows(monkeypatch, rows: int, r: int) -> None:
    monkeypatch.setattr(stats, "_BLOCK_BYTES", rows * 8 * r * r)
    assert block_rows(r) == rows


def assert_same(a, b, levels, iterations, seed):
    new = outcome(permutation_test, a, b, levels, iterations=iterations, seed=seed)
    old = outcome(permutation_test_objects, a, b, levels, iterations=iterations, seed=seed)
    assert new == old
    return new


@pytest.mark.parametrize("r", [56, 90])
def test_matches_objects_at_the_block_edges(r):
    rng = np.random.default_rng(r)
    volumes = rng.normal(600.0, 40.0, (25 + 20, r))
    a, b = cohorts(volumes, 25)
    block = block_rows(r)
    assert block > 2  # the two rows of iterations=1 fit in one block
    for iterations in (1, block - 2, block - 1, block, 2 * block + 1):
        result = assert_same(a, b, LEVELS, iterations, seed=iterations)
        assert result.iterations == iterations


@pytest.mark.parametrize("n_a,n_b,r", [
    (3, 3, 3), (3, 69, 4), (69, 3, 7), (5, 14, 30), (4, 46, 90), (25, 25, 90), (42, 46, 57),
])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_matches_objects_over_sizes_and_block_rows(monkeypatch, n_a, n_b, r, rows):
    set_block_rows(monkeypatch, rows, r)
    rng = np.random.default_rng([n_a, n_b, r])
    volumes = rng.normal(600.0, 40.0, (n_a + n_b, r))
    a, b = cohorts(volumes, n_a)
    for iterations in (1, 7):
        assert_same(a, b, LEVELS, iterations, seed=r)


# One level sums each column of the iteration statistics as a contiguous run,
# several levels as a strided one: two summation orders for the mean.
@pytest.mark.parametrize("levels", [(0.8,), (0.2, 0.5, 1.0)])
def test_matches_objects_over_1000_iterations(levels):
    rng = np.random.default_rng(1000)
    a, b = cohorts(rng.normal(600.0, 40.0, (17, 12)), 8)
    assert block_rows(12) < 1000
    result = assert_same(a, b, levels, 1000, seed=3)
    assert result.iterations == 1000


def test_matches_objects_on_tied_integer_volumes(monkeypatch):
    # Volumes of a few integer values give many equal correlations, so the
    # k-th largest weight is often shared and the (row, col) order decides.
    tied_cuts = 0
    for case in range(12):
        rng = np.random.default_rng([77, case])
        r = int(rng.integers(4, 20))
        n_a, n_b = (int(x) for x in rng.integers(5, 12, 2))
        volumes = rng.integers(0, 3, (n_a + n_b, r)).astype(float)
        a, b = cohorts(volumes, n_a)
        set_block_rows(monkeypatch, 1 + case % 3, r)
        assert_same(a, b, (0.1, 0.35, 0.5, 0.8), 9, seed=case)
        upper = outcome(group_association_matrix, a)
        if not isinstance(upper, tuple):
            weights = upper.weights.take(_upper_flat(r))
            for keep in (0.1, 0.35, 0.5, 0.8):
                k = target_edge_count(keep, weights.size)
                t = np.sort(weights)[weights.size - k]
                tied_cuts += np.count_nonzero(weights >= t) > k
    assert tied_cuts > 0


def split_errors(volumes, n_a, seed, iterations):
    """What ``_pearson_network`` raises for group A and for group B, per iteration."""
    labels = region_labels(volumes.shape[1])
    errors = []
    for t in range(iterations):
        perm = np.random.default_rng([seed, t]).permutation(len(volumes))
        pair = []
        for rows in (perm[:n_a], perm[n_a:]):
            got = outcome(_pearson_network, volumes[rows], labels)
            pair.append(got if isinstance(got, tuple) else None)
        errors.append(tuple(pair))
    return errors


def failing_pool():
    """Six plus six subjects whose splits can fail in either group, two ways.

    Region r1 is 0.1 except for subjects 0 and 6, so a group with neither has
    a zero span. Its mean is then not exactly 0.1, so its variance comes out
    positive and normal, and only the span check can reject it. Region r2
    holds 1.2e154 for subjects 1 and 7, so a group with both overflows its
    variance. The observed split passes.
    """
    volumes = np.random.default_rng(12).normal(size=(12, 5))
    volumes[:, 0] = 0.1
    volumes[[0, 6], 0] = [1.0, 2.0]
    volumes[[1, 7], 1] = 1.2e154
    return volumes


def test_first_rejected_split_raises_the_serial_loops_error(monkeypatch):
    volumes = failing_pool()
    a, b = cohorts(volumes, 6)
    iterations, checked = 12, 0
    for seed in range(60):
        errors = split_errors(volumes, 6, seed, iterations)
        first = next((t for t, pair in enumerate(errors) if pair != (None, None)), None)
        if first is None or errors[first][0] is not None:
            continue
        if not any(pair[0] is not None for pair in errors[first + 1:]):
            continue
        # Iteration `first` fails in group B alone; a later one fails in A.
        for rows in (1, 2, 3, 4):
            set_block_rows(monkeypatch, rows, 5)
            got = assert_same(a, b, (0.5,), iterations, seed)
            assert got == errors[first][1]
        checked += 1
    assert checked >= 3


OVERFLOW = (ValidationError, "non-finite weight between region r2 and itself: "
                             "the correlation of their volumes overflows or underflows float64")


@pytest.mark.parametrize("spread,huge,expected", [
    # group A has a zero span in r1 and overflows in r2: the zero span first
    ((6, 7), (0, 1), (DegenerateDesignError, "zero-variance regions: r1")),
    # group A overflows and group B has a zero span: group A first
    ((0, 1), (2, 3), OVERFLOW),
    # group A passes and group B overflows
    ((0, 6), (6, 7), OVERFLOW),
])
def test_observed_split_checks_run_in_the_serial_order(spread, huge, expected):
    volumes = np.random.default_rng(12).normal(size=(12, 5))
    volumes[:, 0] = 0.1
    volumes[list(spread), 0] = [1.0, 2.0]
    volumes[list(huge), 1] = 1.2e154
    a, b = cohorts(volumes, 6)
    assert assert_same(a, b, (0.5,), 5, seed=0) == expected


def subnormal_cohorts():
    """Ten subjects whose region r4 has a subnormal variance, then eight others."""
    volumes = np.random.default_rng(0).normal(size=(18, 4))
    volumes[:10, 3] *= 1e-160
    assert 0 < np.var(volumes[:10, 3], ddof=1) < np.finfo(np.float64).tiny
    return cohorts(volumes, 10)


SUBNORMAL = ("region r4: the variance of its volumes, ",
             ", is below the smallest normal float64, so its correlations lose precision")


def test_subnormal_variance_rejected_by_group_association_matrix():
    a, _ = subnormal_cohorts()
    with pytest.raises(ValidationError) as err:
        group_association_matrix(a)
    assert str(err.value).startswith(SUBNORMAL[0])
    assert str(err.value).endswith(SUBNORMAL[1])


def test_subnormal_variance_rejected_by_permutation_test():
    a, b = subnormal_cohorts()
    kind, message = assert_same(a, b, (0.5,), 3, seed=0)
    assert kind is ValidationError
    assert message.startswith(SUBNORMAL[0]) and message.endswith(SUBNORMAL[1])


@settings(max_examples=60, deadline=None)
@given(n_a=st.integers(3, 8), n_b=st.integers(3, 8), r=st.integers(3, 12),
       integer=st.booleans(), seed=st.integers(0, 2**16), iterations=st.integers(1, 12),
       rows=st.integers(1, 5),
       levels=st.lists(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]), min_size=1, max_size=3))
def test_matches_objects_on_random_pools(n_a, n_b, r, integer, seed, iterations, rows, levels):
    rng = np.random.default_rng(seed)
    shape = (n_a + n_b, r)
    volumes = rng.integers(0, 4, shape).astype(float) if integer else rng.normal(size=shape)
    a, b = cohorts(volumes, n_a)
    with pytest.MonkeyPatch.context() as mp:
        set_block_rows(mp, rows, r)
        assert_same(a, b, levels, iterations, seed)
