"""Operators whose output is valid by construction skip the constructors' checks.

Thresholds, references, ``decode``, ``individual_network`` and the group
correlation network wrap their fresh array without copying or re-checking it.
Each output must still be what the checking constructor builds: read-only,
sharing no memory with the caller's arrays, of the constructor's dtype and
label type, and equal to the network rebuilt through ``BinaryNetwork(...)`` or
``WeightedNetwork(...)``.
"""

import numpy as np
import pytest

from ubnin import (
    BinaryNetwork,
    ValidationError,
    WeightedNetwork,
    consistency_threshold,
    decode,
    encode,
    individual_network,
    random_reference,
    sparsity_threshold,
)
from ubnin.subjects import _pearson_network, _similarity_stack
from oracles import individual_network_pairwise, sparsity_threshold_argsort
from synth import random_binary, random_weighted, region_labels

SIZES = (2, 3, 4, 5, 8, 13, 30, 57, 90)
TIE_VALUES = (-1.0, -0.0, 0.0, 0.5, 1.0)


def array_of(net) -> np.ndarray:
    return net.edges if isinstance(net, BinaryNetwork) else net.weights


def assert_checked_build(net, *caller_arrays):
    """``net`` equals its rebuild through the public constructor and owns its array."""
    arr = array_of(net)
    rebuilt = type(net)(arr, net.labels)
    assert net == rebuilt
    assert arr.dtype == array_of(rebuilt).dtype
    assert type(net.labels) is tuple and all(type(lab) is str for lab in net.labels)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 1] = arr[0, 1]
    for other in caller_arrays:
        assert not np.shares_memory(arr, other)


def tie_heavy(n, rng) -> WeightedNetwork:
    w = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    w[rows, cols] = w[cols, rows] = rng.choice(TIE_VALUES, size=rows.size)
    return WeightedNetwork(w, region_labels(n))


def keeps(n):
    """Fractions keeping 0 edges, 1 edge, some, and all m edges of n nodes."""
    m = n * (n - 1) // 2
    return (0.25 / m, 1 / m, 0.3, 0.77, 1.0)


@pytest.mark.parametrize("n", SIZES)
def test_sparsity_threshold(n):
    rng = np.random.default_rng(n)
    for w in (tie_heavy(n, rng), random_weighted(n, rng)):
        for keep in keeps(n):
            b = sparsity_threshold(w, keep)
            assert_checked_build(b, w.weights)
            assert b == sparsity_threshold_argsort(w, keep)


@pytest.mark.parametrize("n", SIZES)
def test_consistency_threshold(n):
    rng = np.random.default_rng(100 + n)
    stack = [tie_heavy(n, rng) for _ in range(3)]
    weights = [w.weights for w in stack]
    for keep in keeps(n):
        per_subject = consistency_threshold(stack, keep)
        assert len(per_subject) == len(stack)
        for w, b in zip(stack, per_subject):
            assert_checked_build(b, *weights)
            assert b == sparsity_threshold(w, keep)


@pytest.mark.parametrize("n", [4, 8, 30, 90])
@pytest.mark.parametrize("density", [0.3, 0.75, 0.9])
def test_random_reference(n, density):
    b = random_binary(n, density, np.random.default_rng([n, int(density * 100)]))
    for seed in range(3):
        ref = random_reference(b, seed=seed, swaps_per_edge=3)
        assert_checked_build(ref, b.edges)
        assert ref.labels == b.labels


@pytest.mark.parametrize("n", SIZES)
def test_decode(n):
    rng = np.random.default_rng(200 + n)
    for density in (0.0, 0.4, 1.0):
        b = random_binary(n, density, rng)
        for labels in (None, (), region_labels(n), list(range(1, n + 1))):
            out = decode(encode(b), labels)
            assert_checked_build(out, b.edges)
            assert out == BinaryNetwork(b.edges, labels)


@pytest.mark.parametrize("labels,message", [
    (("a", "b"), "expected 3 node labels, got 2"),
    (("a", "b", "a"), "node labels must be unique"),
    (("a", "", "c"), "node labels must be non-empty"),
])
def test_decode_and_individual_network_still_check_labels(labels, message):
    code = encode(random_binary(3, 0.5, np.random.default_rng(0)))
    with pytest.raises(ValidationError, match=message):
        decode(code, labels)
    with pytest.raises(ValidationError, match=message):
        individual_network(np.array([1.0, 2.0, 3.0]), labels)


@pytest.mark.parametrize("n", SIZES)
def test_individual_network(n):
    rng = np.random.default_rng(300 + n)
    volume_sets = [
        rng.normal(600.0, 40.0, n),
        rng.integers(0, 3, n).astype(float),  # many equal volumes
        rng.choice([-1e200, 0.0, 1e200], n),  # squared differences overflow
    ]
    for volumes in volume_sets:
        for labels in (None, region_labels(n)):
            with np.errstate(over="ignore"):
                w = individual_network(volumes, labels)
                want = individual_network_pairwise(volumes, labels)
            assert_checked_build(w, volumes)
            assert np.all((w.weights >= 0) & (w.weights <= 1))
            assert w.weights.tobytes() == want.weights.tobytes()
    with np.errstate(over="ignore"):
        stack = _similarity_stack(np.stack(volume_sets))
        rows = [individual_network(v).weights.tobytes() for v in volume_sets]
    assert [w.tobytes() for w in stack] == rows


@pytest.mark.parametrize("n", SIZES)
def test_pearson_network(n):
    rng = np.random.default_rng(400 + n)
    for subjects in (3, 8, 40):
        volumes = rng.normal(600.0, 40.0, (subjects, n))
        volumes[:, -1] = volumes[:, 0]  # a tie: two regions correlate perfectly
        w = _pearson_network(volumes, region_labels(n))
        assert_checked_build(w, volumes)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_pearson_network_rejects_non_finite_correlations(scale):
    volumes = np.random.default_rng(5).normal(size=(10, 5)) * scale
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite weight") as err:
        _pearson_network(volumes, region_labels(5))
    assert "between regions r1 and r2" in str(err.value)
    assert "overflows or underflows float64" in str(err.value)


# One region on a huge or tiny scale leaves its NaN on the diagonal alone, with
# finite but wrong correlations (0 or +-1) to every other region.
@pytest.mark.parametrize("scale", [1e200, 1e-170])
@pytest.mark.parametrize("region", [0, 3])
def test_pearson_network_rejects_one_region_on_a_non_finite_scale(scale, region):
    volumes = np.random.default_rng(5).normal(size=(10, 4))
    volumes[:, region] *= scale
    with np.errstate(all="ignore"), pytest.raises(ValidationError) as err:
        _pearson_network(volumes, region_labels(4))
    assert str(err.value) == (
        f"non-finite weight between region r{region + 1} and itself: "
        "the correlation of their volumes overflows or underflows float64"
    )
