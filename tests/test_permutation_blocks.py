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


def zero_span_pool(r, n_a, n_b, seed):
    """Normal volumes, with region r1 at 0.1 for all but subjects 0 and n_a.

    The observed split passes; a split that puts neither subject in a group
    gives that group a zero span in r1.
    """
    volumes = np.random.default_rng(seed).normal(600.0, 40.0, (n_a + n_b, r))
    volumes[:, 0] = 0.1
    volumes[[0, n_a], 0] = [1.0, 2.0]
    return volumes


def test_one_workspace_serves_a_sequence_of_calls():
    workspace = stats.PermutationWorkspace()
    calls = []
    for r, n_a, n_b in ((12, 9, 14), (56, 20, 7), (90, 11, 23)):
        rng = np.random.default_rng([r, n_a, n_b])
        pair = cohorts(rng.normal(600.0, 40.0, (n_a + n_b, r)), n_a)
        block = block_rows(r)
        for iterations in (1, block - 1, block + 1, 24):
            for levels in ((0.6,), (0.3, 0.63, 0.9)):
                calls.append((pair, levels, iterations))
    # A call whose first rejected split is iteration t, row t + 1 of the
    # statistics, in a block after the first one.
    volumes = zero_span_pool(90, 4, 5, seed=5)
    for failing_seed in range(100):
        passed = [pair == (None, None) for pair in split_errors(volumes, 4, failing_seed, 6)]
        if False in passed and passed.index(False) + 1 >= block_rows(90):
            break
    else:
        pytest.fail("no seed rejects a split after the first block")
    calls.insert(13, (cohorts(volumes, 4), (0.5,), 6))
    raised = 0
    for (a, b), levels, iterations in calls:
        seed = failing_seed if iterations == 6 else iterations
        kept = outcome(permutation_test, a, b, levels, iterations, seed, workspace)
        assert kept == assert_same(a, b, levels, iterations, seed)
        raised += isinstance(kept, tuple)
    assert raised == 1


def test_same_shaped_calls_reuse_the_workspace_buffers():
    workspace = stats.PermutationWorkspace()
    rng = np.random.default_rng(3)
    a, b = cohorts(rng.normal(600.0, 40.0, (30, 56)), 14)
    c, d = cohorts(rng.normal(600.0, 40.0, (30, 56)), 14)

    def addresses():
        return {name: buffer.ctypes.data for name, buffer in workspace._buffers.items()}

    first = permutation_test(a, b, (0.4, 0.8), iterations=24, seed=1, workspace=workspace)
    used = addresses()
    assert set(used) == {"volumes", "centred", "corr", "weights", "upper", "adjacency", "walks"}
    second = permutation_test(c, d, (0.4, 0.8), iterations=24, seed=2, workspace=workspace)
    assert addresses() == used
    # a call of fewer splits uses a prefix of the same buffers
    assert permutation_test(a, b, (0.4, 0.8), iterations=1, seed=1,
                            workspace=workspace) == permutation_test(a, b, (0.4, 0.8), 1, 1)
    assert addresses() == used
    assert first == permutation_test(a, b, (0.4, 0.8), iterations=24, seed=1)
    assert second == permutation_test(c, d, (0.4, 0.8), iterations=24, seed=2)


def test_workspace_grows_only_to_the_largest_call():
    workspace = stats.PermutationWorkspace()
    rng = np.random.default_rng(4)
    a, b = cohorts(rng.normal(600.0, 40.0, (20, 90)), 10)
    permutation_test(a, b, (0.6,), iterations=1, seed=0, workspace=workspace)
    # iterations=1 has two splits, fewer than a block of 90 regions holds
    assert block_rows(90) > 2
    assert workspace._buffers["corr"].size == 2 * 90 * 90
    assert workspace._buffers["volumes"].size == 2 * 10 * 90
    permutation_test(a, b, (0.6,), iterations=24, seed=0, workspace=workspace)
    assert workspace._buffers["corr"].size == block_rows(90) * 90 * 90


@pytest.mark.parametrize("n_a,value,seed", [(3, 0.1, 0), (4, 7.0, 2)])
def test_zero_span_in_a_pool_with_a_repeated_value(n_a, value, seed):
    # Region r3 holds `value` for the first n_a subjects only, so the pool
    # repeats a value there. With n_a = 3, group A of the observed split has
    # a zero span in r3; with n_a = 4 (and 126 ways to choose group A), the
    # first iteration that draws exactly those four subjects into it. Three
    # times 0.1 has a mean other than 0.1, so a positive variance, and only
    # the span check rejects the group; four times 7.0 has variance 0.
    volumes = np.random.default_rng(seed).normal(600.0, 40.0, (n_a + 5, 6))
    volumes[:n_a, 2] = value
    r3 = volumes[None, :n_a, 2]
    positive_variance = (r3 - r3.mean(axis=1, keepdims=True)).any()
    assert positive_variance == (value == 0.1)
    a, b = cohorts(volumes, n_a)
    expected = (DegenerateDesignError, "zero-variance regions: r3")
    assert assert_same(a, b, (0.5,), 200, seed) == expected

