"""The block kernel of ``permutation_test`` against the serial object loop.

``permutation_test`` computes the statistic of several splits per numpy call
on raw arrays; ``permutation_test_objects`` in ``tests/oracles.py`` is the
earlier loop that built one ``WeightedNetwork`` and one ``BinaryNetwork`` per
group and level. Every result must be ``==`` to the oracle's, and every
rejected input must raise the oracle's exception type and message, whatever
the number of splits per block.
"""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    subjects,
)
from ubnin.graphs import _upper_flat, target_edge_count
from oracles import pearson_network_three_checks, permutation_test_objects
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
    return stats._block_size(r)


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


# The kernel visits levels in ascending edge count and partitions each
# network's weights only below the cut of the level before; the oracle
# thresholds every level from the full triangle, in the order given.
NESTED_LEVELS = {
    "eleven": tuple(round(0.6 + 0.03 * i, 10) for i in range(11)),
    "unsorted": (0.9, 0.6, 0.75),
    "same edge count": (0.5, 0.5001, 0.3, 0.5),  # 0.5 and 0.5001 keep 218 of 435 edges
    "none and all": (1.0, 1e-4, 0.45, 1e-4, 1.0),
}


@pytest.mark.parametrize("levels", NESTED_LEVELS.values(), ids=NESTED_LEVELS)
@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_nested_levels_match_objects(monkeypatch, levels, rows):
    r = 30
    set_block_rows(monkeypatch, rows, r)
    rng = np.random.default_rng([18, rows])
    a, b = cohorts(rng.normal(600.0, 40.0, (21 + 17, r)), 21)
    result = assert_same(a, b, levels, 2 * rows + 1, seed=rows)
    assert result.sparsities == levels
    # Tied integer volumes: many equal weights at every cut.
    a, b = cohorts(rng.integers(0, 3, (21 + 17, r)).astype(float), 21)
    result = assert_same(a, b, levels, 2 * rows + 1, seed=rows)
    assert not isinstance(result, tuple)


def split_errors(volumes, n_a, seed, iterations):
    """What the one-network checks raise for group A and for group B, per iteration."""
    labels = region_labels(volumes.shape[1])
    errors = []
    for t in range(iterations):
        perm = np.random.default_rng([seed, t]).permutation(len(volumes))
        pair = []
        for rows in (perm[:n_a], perm[n_a:]):
            got = outcome(pearson_network_three_checks, volumes[rows], labels)
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


# Group A of this order of the failing pool holds subjects 1 and 7, so its r2
# overflows; group B holds subject 6, so its r1 varies and it passes.
OVERFLOWING_OBSERVED_SPLIT = [0, 1, 7, 2, 3, 4, 5, 6, 8, 9, 10, 11]


def first_failing_seed(volumes, n_a, iterations):
    """A seed whose first rejected split is an iteration after the first."""
    for seed in range(100):
        errors = split_errors(volumes, n_a, seed, iterations)
        failed = [t for t, pair in enumerate(errors) if pair != (None, None)]
        if failed and failed[0] > 0:
            return seed, next(e for e in errors[failed[0]] if e is not None)
    pytest.fail("no seed rejects a later iteration")


def test_rejected_splits_make_no_one_network_call(monkeypatch):
    calls = []
    for module in (subjects, stats):
        monkeypatch.setattr(module, "_pearson_network",
                            lambda *args, _module=module: calls.append(_module))
    # the observed split fails
    a, b = cohorts(failing_pool()[OVERFLOWING_OBSERVED_SPLIT], 6)
    assert assert_same(a, b, (0.5,), 3, seed=0) == OVERFLOW
    # the observed split passes and a later iteration fails
    seed, expected = first_failing_seed(failing_pool(), 6, 12)
    a, b = cohorts(failing_pool(), 6)
    assert assert_same(a, b, (0.5,), 12, seed) == expected
    assert calls == []


def test_overflow_raises_no_numpy_warning():
    a, b = cohorts(failing_pool()[OVERFLOWING_OBSERVED_SPLIT], 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            group_association_matrix(a)
        assert (type(err.value), str(err.value)) == OVERFLOW
        with pytest.raises(ValidationError) as err:
            permutation_test(a, b, (0.5,), iterations=3, seed=0)
        assert (type(err.value), str(err.value)) == OVERFLOW
        # and in a later iteration
        seed, expected = first_failing_seed(failing_pool(), 6, 12)
        a, b = cohorts(failing_pool(), 6)
        with pytest.raises(expected[0]) as err:
            permutation_test(a, b, (0.5,), iterations=12, seed=seed)
        assert str(err.value) == expected[1]


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


def test_subnormal_variance_in_a_later_split_of_a_block(monkeypatch):
    # Region r4 is on the scale 1e-160 except for subjects 0 and 6, so a group
    # with neither has a subnormal variance there; the observed split passes.
    volumes = np.random.default_rng(3).normal(size=(12, 5))
    volumes[:, 3] *= 1e-160
    volumes[[0, 6], 3] = [1.0, 2.0]
    a, b = cohorts(volumes, 6)
    set_block_rows(monkeypatch, 4, 5)
    for seed in range(100):
        errors = split_errors(volumes, 6, seed, 12)
        t = next((t for t, pair in enumerate(errors) if pair != (None, None)), None)
        if t is not None and (t + 1) % 4:  # not the first split of its block
            break
    else:
        pytest.fail("no seed rejects a split inside a block")
    kind, message = assert_same(a, b, (0.5,), 12, seed)
    assert kind is ValidationError
    assert message.startswith(SUBNORMAL[0]) and message.endswith(SUBNORMAL[1])


def zero_span_pool(r, n_a, n_b, seed):
    """Normal volumes, with region r1 at 0.1 for all but subjects 0 and n_a.

    The observed split passes; a split that puts neither subject in a group
    gives that group a zero span in r1.
    """
    volumes = np.random.default_rng(seed).normal(600.0, 40.0, (n_a + n_b, r))
    volumes[:, 0] = 0.1
    volumes[[0, n_a], 0] = [1.0, 2.0]
    return volumes


def in_new_thread(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` in a thread of its own, so on work buffers that start empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args, **kwargs).result(timeout=120)


def buffer_addresses():
    """The address of each work buffer of this thread, by name."""
    return {name: buffer.ctypes.data for name, buffer in vars(stats._thread).items()}


def test_kept_buffers_serve_a_sequence_of_calls():
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

    def sequence():
        kept = []
        for (a, b), levels, iterations in calls:
            seed = failing_seed if iterations == 6 else iterations
            kept.append(outcome(permutation_test, a, b, levels, iterations, seed))
        return kept

    raised = 0
    for kept, ((a, b), levels, iterations) in zip(in_new_thread(sequence), calls):
        seed = failing_seed if iterations == 6 else iterations
        assert kept == in_new_thread(outcome, permutation_test, a, b, levels, iterations, seed)
        assert kept == outcome(permutation_test_objects, a, b, levels, iterations, seed)
        raised += isinstance(kept, tuple)
    assert raised == 1


def test_same_shaped_calls_reuse_the_buffers():
    rng = np.random.default_rng(3)
    a, b = cohorts(rng.normal(600.0, 40.0, (30, 56)), 14)
    c, d = cohorts(rng.normal(600.0, 40.0, (30, 56)), 14)

    def calls():
        first = permutation_test(a, b, (0.4, 0.8), iterations=24, seed=1)
        used = buffer_addresses()
        assert set(used) == {"volumes", "centred", "corr", "weights", "upper", "adjacency",
                             "walks"}
        second = permutation_test(c, d, (0.4, 0.8), iterations=24, seed=2)
        assert buffer_addresses() == used
        # a call of fewer splits uses a prefix of the same buffers
        third = permutation_test(a, b, (0.4, 0.8), iterations=1, seed=1)
        assert buffer_addresses() == used
        return first, second, third

    first, second, third = in_new_thread(calls)
    assert first == in_new_thread(permutation_test, a, b, (0.4, 0.8), iterations=24, seed=1)
    assert second == in_new_thread(permutation_test, c, d, (0.4, 0.8), iterations=24, seed=2)
    assert third == in_new_thread(permutation_test, a, b, (0.4, 0.8), iterations=1, seed=1)


def test_buffers_grow_only_to_the_largest_call():
    rng = np.random.default_rng(4)
    a, b = cohorts(rng.normal(600.0, 40.0, (20, 90)), 10)

    def sizes(iterations):
        permutation_test(a, b, (0.6,), iterations=iterations, seed=0)
        buffers = vars(stats._thread)
        return buffers["corr"].size, buffers["volumes"].size

    # iterations=1 has two splits, fewer than a block of 90 regions holds
    assert block_rows(90) > 2
    assert in_new_thread(lambda: [sizes(1), sizes(24), sizes(1)]) == [
        (2 * 90 * 90, 2 * 10 * 90),
        (block_rows(90) * 90 * 90, block_rows(90) * 10 * 90),
        (block_rows(90) * 90 * 90, block_rows(90) * 10 * 90),
    ]


def test_threads_testing_at_once_give_the_serial_results():
    pairs = [cohorts(np.random.default_rng(r).normal(600.0, 40.0, (40, r)), 18)
             for r in (56, 90)]
    serial = [permutation_test(a, b, LEVELS, iterations=24, seed=r)
              for r, (a, b) in zip((56, 90), pairs)]
    start = threading.Barrier(2)

    def repeat(a, b, seed):
        start.wait(timeout=60)
        return [permutation_test(a, b, LEVELS, iterations=24, seed=seed) for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(repeat, a, b, r) for r, (a, b) in zip((56, 90), pairs)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[want] * 4 for want in serial]


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

