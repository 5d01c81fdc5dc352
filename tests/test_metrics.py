import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ubnin import metrics
from ubnin import (
    BinaryNetwork,
    NotEstimableError,
    SmallWorldResult,
    UndefinedMetricError,
    ValidationError,
    characteristic_path_length,
    degree_sequence,
    edge_count,
    mean_clustering,
    metrics_report,
    nodal_clustering,
    random_reference,
    small_world_index,
    sparsity_threshold,
)
from oracles import (
    clustering_brute,
    cpl_bfs_loop,
    cpl_floyd,
    metrics_report_one_loop,
    metrics_report_separate,
    nodal_clustering_float32,
    nodal_clustering_float64,
    random_reference_bytearray,
    random_reference_loop,
    random_reference_two_lookup,
    small_world_index_separate,
)
from synth import (
    complete_graph,
    empty_graph,
    path_graph,
    random_binary,
    random_weighted,
    region_labels,
    ring_lattice,
    star_graph,
)

# The grid over which the rewritten functions must equal the old loops kept in
# tests/oracles.py. n=90 at density 0.6 and 0.9 is the benchmark's shape.
ORACLE_SIZES = [3, 4, 5, 7, 12, 20, 33, 55, 90]
ORACLE_DENSITIES = [0.05, 0.2, 0.4, 0.6, 0.75, 0.9, 0.95]
SWAPS_PER_EDGE = [0, 1, 3, 10]


def k4_minus_edge():
    e = ~np.eye(4, dtype=bool)
    e[2, 3] = e[3, 2] = False
    return BinaryNetwork(e)


def two_disjoint_edges():
    e = np.zeros((4, 4), dtype=bool)
    e[0, 1] = e[1, 0] = e[2, 3] = e[3, 2] = True
    return BinaryNetwork(e)


class TestClustering:
    def test_triangle_is_fully_clustered(self):
        assert nodal_clustering(complete_graph(3)).tolist() == [1.0, 1.0, 1.0]

    def test_path_midpoint_has_no_triangles(self):
        assert nodal_clustering(path_graph(3))[1] == 0.0

    def test_k4_minus_edge(self):
        c = nodal_clustering(k4_minus_edge())
        assert np.allclose(c, [2 / 3, 2 / 3, 1.0, 1.0], atol=1e-15)
        assert mean_clustering(k4_minus_edge()) == pytest.approx(5 / 6, abs=1e-15)

    def test_complete_graph_mean_is_one(self):
        assert mean_clustering(complete_graph(7)) == 1.0

    def test_empty_graph_mean_is_zero(self):
        assert mean_clustering(empty_graph(5)) == 0.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            b = random_binary(n, float(rng.uniform(0.1, 0.9)), rng)
            assert np.allclose(nodal_clustering(b), clustering_brute(b.edges), atol=1e-12)

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = nodal_clustering(random_binary(10, 0.5, rng))
            assert np.all((c >= 0) & (c <= 1))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        b = random_binary(9, 0.4, rng)
        perm = rng.permutation(9)
        relabeled = BinaryNetwork(b.edges[np.ix_(perm, perm)])
        assert np.allclose(nodal_clustering(relabeled), nodal_clustering(b)[perm], atol=1e-15)


class TestClusteringMatchesFloat64Oracle:
    """float32 counting gives the same floats as the earlier float64 count."""

    @pytest.mark.parametrize("n", range(2, 91))
    def test_identical_at_every_density(self, n):
        rng = np.random.default_rng([13, n])
        graphs = [empty_graph(n), complete_graph(n), path_graph(n), star_graph(n - 1)]
        graphs += [random_binary(n, p, rng) for p in (0.05, 0.2, 0.5, 0.75, 0.95)]
        for b in graphs:
            expected = nodal_clustering_float64(b)
            c = nodal_clustering(b)
            assert c.dtype == np.float64
            assert c.tobytes() == expected.tobytes()
            assert c.tobytes() == nodal_clustering_float32(b).tobytes()
            assert mean_clustering(b) == float(expected.mean())
        # the permutation test's call: the stack of every graph at once, and
        # the 2-walk counts in a work array of its own
        a = np.stack([b.edges for b in graphs]).astype(np.float32)
        walks = np.empty_like(a)
        stacked = metrics._clustering(a, walks)
        assert np.array_equal(walks, a @ a)
        for b, c in zip(graphs, stacked):
            assert c.tobytes() == nodal_clustering_float64(b).tobytes()

    def test_closed_walks_sum_in_float32_while_every_count_is_exact(self):
        # A node's closed 3-walks, and every partial sum of them, are at most
        # (n-1)(n-2): below 2^24, where float32 holds every integer, up to
        # n = 4097.
        assert 4096 * 4095 < 2**24 < 4097 * 4096
        assert metrics._closed_walk_dtype(2) is np.float32
        assert metrics._closed_walk_dtype(4097) is np.float32
        assert metrics._closed_walk_dtype(4098) is np.float64
        assert metrics._closed_walk_dtype(10**5) is np.float64

    def test_identical_with_isolated_and_degree_one_nodes(self):
        rng = np.random.default_rng(14)
        for n in (5, 17, 90):
            for _ in range(10):
                e = random_binary(n, float(rng.uniform(0.2, 1.0)), rng).edges.copy()
                cut = rng.choice(n, size=max(2, n // 3), replace=False)
                e[cut] = e[:, cut] = False  # isolated nodes
                e[cut[0], cut[1]] = e[cut[1], cut[0]] = True  # two of degree 1
                b = BinaryNetwork(e)
                assert nodal_clustering(b).tobytes() == nodal_clustering_float64(b).tobytes()


class TestPathLength:
    def test_path_of_three(self):
        length, frac = characteristic_path_length(path_graph(3))
        assert length == pytest.approx(4 / 3, abs=1e-15)
        assert frac == 1.0

    def test_complete_graph(self):
        assert characteristic_path_length(complete_graph(6)) == (1.0, 1.0)

    def test_disconnected_counts_within_components_only(self):
        length, frac = characteristic_path_length(two_disjoint_edges())
        assert length == 1.0
        assert frac == pytest.approx(2 / 6, abs=1e-15)

    def test_edgeless_graph_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            characteristic_path_length(empty_graph(4))

    def test_matches_floyd_warshall_on_random_graphs(self):
        # Both sides divide Python ints, so the floats agree exactly. Paths and
        # rings, and sparse graphs up to 30 nodes, have diameters beyond 2.
        rng = np.random.default_rng(13)
        graphs = [path_graph(k) for k in range(3, 21)] + [ring_lattice(k, 2) for k in range(5, 21)]
        for _ in range(60):
            n = int(rng.integers(2, 31))
            graphs.append(random_binary(n, float(rng.uniform(0.05, 0.9)), rng))
        for b in graphs:
            if edge_count(b) == 0:
                continue
            assert characteristic_path_length(b) == cpl_floyd(b.edges)


def _path_length_or_undefined(fn, b):
    try:
        return fn(b)
    except UndefinedMetricError:
        return "undefined"


class TestPathLengthMatchesOracle:
    @pytest.mark.parametrize("n", [2] + ORACLE_SIZES)
    def test_identical_to_per_source_bfs(self, n):
        rng = np.random.default_rng(100 + n)
        for density in [0.0, 0.02] + ORACLE_DENSITIES + [1.0]:
            for _ in range(3):
                b = random_binary(n, density, rng)
                assert (_path_length_or_undefined(characteristic_path_length, b)
                        == _path_length_or_undefined(cpl_bfs_loop, b))

    @pytest.mark.parametrize("n", [4, 9, 30, 90])
    def test_identical_on_disconnected_graphs(self, n):
        rng = np.random.default_rng(200 + n)
        for density in ORACLE_DENSITIES:
            k = int(rng.integers(2, n - 1))
            e = np.zeros((n, n), dtype=bool)
            e[:k, :k] = random_binary(k, density, rng).edges
            e[k:, k:] = random_binary(n - k, density, rng).edges
            b = BinaryNetwork(e)
            assert (_path_length_or_undefined(characteristic_path_length, b)
                    == _path_length_or_undefined(cpl_bfs_loop, b))


class TestRandomReference:
    def test_degree_sequence_preserved_exactly(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            b = random_binary(15, 0.3, rng)
            if edge_count(b) < 2:
                continue
            ref = random_reference(b, seed=seed)
            assert np.array_equal(degree_sequence(ref), degree_sequence(b))
            assert edge_count(ref) == edge_count(b)

    def test_star_graph_admits_no_swap(self):
        s = star_graph(4)
        assert random_reference(s, seed=0) == s

    def test_deterministic_given_seed(self):
        b = ring_lattice(20, 4)
        assert random_reference(b, seed=5) == random_reference(b, seed=5)

    def test_seed_changes_output(self):
        b = ring_lattice(30, 6)
        outs = {tuple(random_reference(b, seed=s).edges.flatten()) for s in range(5)}
        assert len(outs) > 1

    def test_zero_swaps_is_identity(self):
        b = ring_lattice(10, 4)
        assert random_reference(b, seed=0, swaps_per_edge=0) == b

    def test_needs_two_edges(self):
        with pytest.raises(ValidationError):
            random_reference(path_graph(2), seed=0)

    @pytest.mark.parametrize("swaps", [1.5, 10.0, True, "10", None])
    def test_rejects_non_integer_swaps_before_any_work(self, swaps):
        # A one-edge network would raise ValidationError if any work ran first.
        message = f"^swaps_per_edge must be an integer, got {swaps!r}$"
        for b in (ring_lattice(10, 4), path_graph(2)):
            with pytest.raises(ValueError, match=message):
                random_reference(b, seed=0, swaps_per_edge=swaps)

    def test_keeps_messages_for_integer_swaps(self):
        with pytest.raises(ValueError, match="^swaps_per_edge must be nonnegative$"):
            random_reference(ring_lattice(10, 4), seed=0, swaps_per_edge=-1)
        with pytest.raises(ValidationError, match="^rewiring needs at least 2 edges, got 1$"):
            random_reference(path_graph(2), seed=0, swaps_per_edge=-1)

    def test_numpy_integer_swaps_accepted(self):
        b = ring_lattice(20, 4)
        assert random_reference(b, 3, np.int64(4)) == random_reference(b, 3, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=4, max_value=40),
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                  st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=2, max_size=2)),
        st.integers(min_value=0, max_value=5),
    )
    def test_property_matches_loop_and_keeps_degrees(self, n, density, graph_seed, seed, swaps):
        b = random_binary(n, density, np.random.default_rng(graph_seed))
        assume(edge_count(b) >= 2)
        ref = random_reference(b, seed, swaps)
        assert ref == random_reference_loop(b, seed, swaps)
        assert np.array_equal(degree_sequence(ref), degree_sequence(b))
        assert np.array_equal(ref.edges, ref.edges.T)
        assert not ref.edges.diagonal().any()


def network_with_edges(n, m, rng):
    """A network on n nodes with exactly m edges at random places."""
    rows, cols = np.triu_indices(n, 1)
    picked = rng.choice(rows.size, size=m, replace=False)
    e = np.zeros((n, n), dtype=bool)
    e[rows[picked], cols[picked]] = True
    return BinaryNetwork(e | e.T)


def assert_matches_both_oracles(b, seed, swaps):
    ref = random_reference(b, seed, swaps)
    assert ref == random_reference_loop(b, seed, swaps)
    assert ref == random_reference_bytearray(b, seed, swaps)
    assert ref == random_reference_two_lookup(b, seed, swaps)
    return ref


class TestRewiringMatchesOracle:
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_identical_to_tuple_and_set_loop(self, n):
        rng = np.random.default_rng(n)
        for density in ORACLE_DENSITIES:
            b = random_binary(n, density, rng)
            if edge_count(b) < 2:
                continue
            for seed in (0, 7, [n, 3]):
                for swaps in SWAPS_PER_EDGE:
                    assert_matches_both_oracles(b, seed, swaps)

    @pytest.mark.parametrize("keep", [0.6, 0.9])
    def test_identical_on_thresholded_atlas_networks(self, keep):
        rng = np.random.default_rng(16)
        for _ in range(2):
            b = sparsity_threshold(random_weighted(90, rng, labels=region_labels(90)), keep)
            for idx in range(2):
                assert random_reference(b, [5, idx]) == random_reference_loop(b, [5, idx])

    @pytest.mark.parametrize("b", [star_graph(6), complete_graph(8), path_graph(10),
                                   ring_lattice(20, 4), ring_lattice(31, 6)])
    def test_identical_on_structured_graphs(self, b):
        for seed in (1, [2, 0]):
            for swaps in SWAPS_PER_EDGE:
                assert random_reference(b, seed, swaps) == random_reference_loop(b, seed, swaps)

    def test_identical_beyond_the_small_int_cache(self):
        b = random_binary(300, 0.02, np.random.default_rng(300))
        assert b.n > 257 and edge_count(b) > 500
        for seed in (0, [300, 1]):
            assert_matches_both_oracles(b, seed, 10)

    @pytest.mark.parametrize("m, swaps", [(819, 5), (1024, 4), (241, 17), (2731, 3)],
                             ids=["4095", "4096", "4097", "8193"])
    def test_identical_at_chunk_edges(self, m, swaps):
        # swaps * m attempts: one short of, exactly, one past and two chunks
        # and one past the chunk of 4096.
        b = network_with_edges(100, m, np.random.default_rng(m))
        assert edge_count(b) == m
        for seed in (m, [m, 2]):
            assert_matches_both_oracles(b, seed, swaps)

    def test_complete_graph_rejects_every_attempt(self):
        for n in (4, 8, 30):
            b = complete_graph(n)
            for swaps in (1, 10):
                assert assert_matches_both_oracles(b, n, swaps) == b

    @pytest.mark.parametrize("b", [star_graph(6), two_disjoint_edges()], ids=["star", "two-edges"])
    def test_identical_on_star_and_two_disjoint_edges(self, b):
        for seed in range(20):
            for swaps in (1, 10):
                assert_matches_both_oracles(b, seed, swaps)

    def test_zero_swaps_is_identity_in_all_three(self):
        rng = np.random.default_rng(0)
        for b in (random_binary(30, 0.3, rng), ring_lattice(12, 4), two_disjoint_edges()):
            assert assert_matches_both_oracles(b, 5, 0) == b


class TestSmallWorld:
    def test_ring_lattice_clustering_is_point_six(self):
        assert mean_clustering(ring_lattice(56, 6)) == pytest.approx(0.6, abs=1e-12)

    def test_ring_lattice_is_small_world(self):
        result = small_world_index(ring_lattice(56, 6), n_rand=20, seed=1)
        assert result.sigma > 1.0
        assert result.sigma == result.gamma / result.lam

    def test_random_graph_scores_near_one(self):
        rng = np.random.default_rng(15)
        b = random_binary(40, 0.3, rng)
        result = small_world_index(b, n_rand=30, seed=2)
        assert 0.7 < result.sigma < 1.3

    def test_sparse_fragmented_graph_not_estimable(self):
        with pytest.raises(NotEstimableError):
            small_world_index(two_disjoint_edges(), n_rand=5, seed=0)

    def test_deterministic_given_seed(self):
        b = ring_lattice(24, 4)
        assert small_world_index(b, n_rand=8, seed=3) == small_world_index(b, n_rand=8, seed=3)


def small_world_oracle(b, n_rand, seed, swaps_per_edge):
    """small_world_index composed from the old rewiring and path-length loops."""
    l_obs, _ = cpl_bfs_loop(b)
    c_rand = np.empty(n_rand)
    l_rand = np.empty(n_rand)
    for idx in range(n_rand):
        ref = random_reference_loop(b, [seed, idx], swaps_per_edge)
        l_rand[idx], _ = cpl_bfs_loop(ref)
        c_rand[idx] = mean_clustering(ref)
    gamma = mean_clustering(b) / float(c_rand.mean())
    lam = l_obs / float(l_rand.mean())
    return SmallWorldResult(sigma=gamma / lam, gamma=gamma, lam=lam)


class TestSmallWorldMatchesOracle:
    @pytest.mark.parametrize("n, density, seed, swaps", [
        (12, 0.5, 0, 10), (24, 0.3, 4, 3), (40, 0.6, 9, 1), (90, 0.6, 201, 10), (90, 0.9, 201, 10),
    ])
    def test_identical_sigma_gamma_lambda(self, n, density, seed, swaps):
        b = random_binary(n, density, np.random.default_rng(n))
        assert small_world_index(b, n_rand=3, seed=seed, swaps_per_edge=swaps) == \
            small_world_oracle(b, 3, seed, swaps)


class TestMetricsReport:
    @pytest.mark.parametrize("n_rand", [1.5, 2.0, True, "2"])
    def test_rejects_non_integer_n_rand_before_any_work(self, monkeypatch, n_rand):
        def no_work(*args, **kwargs):
            raise AssertionError("measured a network before checking n_rand")

        monkeypatch.setattr(metrics, "nodal_clustering", no_work)
        for fn in (metrics_report, small_world_index):
            with pytest.raises(ValueError, match=f"^n_rand must be an integer, got {n_rand!r}$"):
                fn(ring_lattice(12, 4), n_rand=n_rand)

    def test_numpy_integer_n_rand_accepted(self):
        b = ring_lattice(12, 4)
        assert metrics_report(b, n_rand=np.int64(2)) == metrics_report(b, n_rand=2)

    def test_mean_is_mean_of_nodal(self):
        report = metrics_report(k4_minus_edge(), n_rand=0)
        assert report.mean_clustering == pytest.approx(5 / 6, abs=1e-15)
        assert report.mean_clustering == np.mean(report.nodal_clustering)
        assert report.small_world_sigma is None
        assert report.mean_degree == 2.5

    def test_small_world_trio_present_together(self):
        report = metrics_report(ring_lattice(20, 4), n_rand=5, seed=0)
        assert report.small_world_sigma == report.gamma / report.lam
        assert report.n_rand == 5 and report.seed == 0 and report.swaps_per_edge == 10

    def test_inconsistent_construction_rejected(self):
        from ubnin import MetricsReport

        with pytest.raises(ValidationError):
            MetricsReport(
                mean_clustering=0.5,
                nodal_clustering=(0.5, 0.5),
                char_path_length=1.0,
                reachable_pair_fraction=1.0,
                mean_degree=1.0,
                small_world_sigma=2.0,
                gamma=None,
                lam=None,
            )
        with pytest.raises(ValidationError):
            MetricsReport(
                mean_clustering=0.9,
                nodal_clustering=(0.5, 0.5),
                char_path_length=1.0,
                reachable_pair_fraction=1.0,
                mean_degree=1.0,
            )

    def test_to_row_is_flat(self):
        row = metrics_report(ring_lattice(12, 4), n_rand=0).to_row()
        assert row["sigma"] is None
        assert row["mean_clustering"] == pytest.approx(0.5, abs=1e-12)


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


def assert_same_as_separate(b, n_rand, seed, swaps):
    if not isinstance(n_rand, int):
        # The earlier pair compared a non-integer n_rand as a number; both
        # functions now reject it before any work, whatever the network.
        want = (ValidationError, f"n_rand must be an integer, got {n_rand!r}")
        assert outcome(metrics_report, b, n_rand=n_rand, seed=seed, swaps_per_edge=swaps) == want
        assert outcome(small_world_index, b, n_rand=n_rand, seed=seed,
                       swaps_per_edge=swaps) == want
        return want
    if n_rand < 0:
        # The earlier metrics_report returned a report without small-world
        # fields for a negative n_rand; it now rejects it before any work.
        want = (ValidationError, "n_rand must be nonnegative")
        assert outcome(metrics_report, b, n_rand=n_rand, seed=seed, swaps_per_edge=swaps) == want
        assert outcome(small_world_index, b, n_rand=n_rand, seed=seed, swaps_per_edge=swaps) == \
            as_package(outcome(small_world_index_separate, b, n_rand, seed, swaps))
        return want
    want = as_package(outcome(metrics_report_separate, b, n_rand, seed, swaps))
    assert outcome(metrics_report, b, n_rand=n_rand, seed=seed, swaps_per_edge=swaps) == want
    assert outcome(small_world_index, b, n_rand=n_rand, seed=seed, swaps_per_edge=swaps) == \
        as_package(outcome(small_world_index_separate, b, n_rand, seed, swaps))
    return want


def as_package(kept):
    """An oracle outcome as the package now gives it.

    The oracles' rewiring raised ValidationError for a network of fewer than
    2 edges. The package reports such a network as not estimable, with the
    same message, as it does a reference that fails. The oracles raise a bad
    argument as a plain ValueError, the package as a ValidationError, which
    is also a ValueError, with the same message.
    """
    if (isinstance(kept, tuple) and kept[0] is ValidationError
            and kept[1].startswith("rewiring needs at least 2 edges")):
        return NotEstimableError, kept[1]
    if isinstance(kept, tuple) and kept[0] is ValueError:
        return ValidationError, kept[1]
    return kept


def one_edge():
    e = np.zeros((4, 4), dtype=bool)
    e[0, 1] = e[1, 0] = True
    return BinaryNetwork(e)


class TestReportMatchesSeparateLoops:
    """metrics_report and small_world_index against the earlier pair in oracles.py."""

    @pytest.mark.parametrize("n", [4, 5, 7, 12, 20, 33, 55, 90])
    def test_identical_over_sizes_densities_and_references(self, n):
        rng = np.random.default_rng(700 + n)
        n_rands = range(6) if n <= 20 else (0, 2, 5)
        outcomes = Counter()
        for density in (0.1, 0.3, 0.6, 0.9):
            b = random_binary(n, density, rng)
            for n_rand in n_rands:
                for seed in (0, 201):
                    for swaps in (0, 10):
                        want = assert_same_as_separate(b, n_rand, seed, swaps)
                        outcomes[want[0] if isinstance(want, tuple) else "report"] += 1
        assert outcomes["report"] > 0

    @pytest.mark.parametrize("b", [empty_graph(2), empty_graph(6), one_edge(),
                                   two_disjoint_edges(), star_graph(5), path_graph(5),
                                   complete_graph(4), k4_minus_edge()],
                             ids=["edgeless-2", "edgeless-6", "one-edge", "two-edges",
                                  "star", "path", "complete", "k4-minus-edge"])
    def test_identical_on_edge_cases(self, b):
        for n_rand in (-1, 0, 0.5, 1, 3):
            for seed in (-1, 0, 5):
                for swaps in (-1, 0, 10):
                    assert_same_as_separate(b, n_rand, seed, swaps)

    def test_edge_cases_reach_every_outcome(self):
        cases = [
            (empty_graph(6), 5, -1, 10, (UndefinedMetricError,
             "no reachable node pairs; path length is undefined")),
            (one_edge(), 2, 0, 10, (NotEstimableError, "rewiring needs at least 2 edges, got 1")),
            (two_disjoint_edges(), 3, 0, 10, (NotEstimableError,
             "random reference 0 has zero clustering")),
            (path_graph(5), 2, -1, 10, (ValidationError, "seed must be nonnegative")),
            (path_graph(5), 0.5, 0, 10, (ValidationError, "n_rand must be an integer, got 0.5")),
            (path_graph(5), -1, 0, 10, (ValidationError, "n_rand must be nonnegative")),
            (path_graph(5), 2, 0, -1, (ValidationError, "swaps_per_edge must be nonnegative")),
        ]
        for b, n_rand, seed, swaps, raised in cases:
            assert assert_same_as_separate(b, n_rand, seed, swaps) == raised

    def test_small_world_checks_run_before_any_metric(self):
        edgeless = empty_graph(5)
        assert outcome(metrics_report, edgeless, n_rand=5, seed=-1) == \
            (UndefinedMetricError, "no reachable node pairs; path length is undefined")
        assert outcome(metrics_report, edgeless, n_rand=-1) == (
            ValidationError, "n_rand must be nonnegative")
        assert outcome(small_world_index, edgeless, seed=-1) == \
            (ValidationError, "seed must be nonnegative")
        assert outcome(small_world_index, edgeless, n_rand=0) == \
            (ValidationError, "n_rand must be >= 1")

    @pytest.mark.parametrize("n_rand", [0, 1, 2, 4])
    def test_measures_the_network_once(self, monkeypatch, n_rand):
        # perfbench/tracing.py times clustering and path length by replacing
        # these module attributes, so the reference loop must keep calling
        # through them: once for the network, once per reference. Rewiring
        # runs as one _rewire call per reference.
        calls = Counter()
        for name in ("nodal_clustering", "characteristic_path_length", "_rewire"):
            def counted(*args, _name=name, _original=getattr(metrics, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counted)
        b = ring_lattice(20, 4)
        report = metrics_report(b, n_rand=n_rand, seed=3)
        expected = Counter(nodal_clustering=1 + n_rand, characteristic_path_length=1 + n_rand,
                           _rewire=n_rand)
        assert calls == expected
        assert report == metrics_report_separate(b, n_rand, 3)
        if n_rand:
            calls.clear()
            result = small_world_index(b, n_rand=n_rand, seed=3)
            assert (result.sigma, result.gamma, result.lam) == \
                (report.small_world_sigma, report.gamma, report.lam)
            assert calls == expected


def thresholded_batch(size, n, keep, seed):
    """``size`` networks of n nodes thresholded at one level: one edge count."""
    rng = np.random.default_rng(seed)
    return [sparsity_threshold(random_weighted(n, rng), keep) for _ in range(size)]


class TestBatchRewiringMatchesOneNetworkOracle:
    """_rewire against random_reference_two_lookup, network by network."""

    @pytest.mark.parametrize("size", [1, 2, 5, 10])
    @pytest.mark.parametrize("n", [4, 5, 12, 33, 90])
    def test_identical_per_network(self, size, n):
        for keep in (0.3, 0.6, 0.95):
            batch = thresholded_batch(size, n, keep, [size, n])
            assert len({edge_count(b) for b in batch}) == 1
            for swaps in (0, 1, 10):
                seed = [n, swaps]
                refs = metrics._rewire(batch, seed, swaps)
                assert len(refs) == size
                for b, ref in zip(batch, refs):
                    assert ref == random_reference_two_lookup(b, seed, swaps)
                    assert ref.labels == b.labels

    @pytest.mark.parametrize("m, swaps", [(819, 5), (1024, 4), (241, 17)],
                             ids=["4095", "4096", "4097"])
    def test_identical_at_chunk_edges(self, m, swaps):
        batch = [network_with_edges(100, m, np.random.default_rng([m, k])) for k in range(3)]
        for seed in (m, [m, 2]):
            for b, ref in zip(batch, metrics._rewire(batch, seed, swaps)):
                assert ref == random_reference_two_lookup(b, seed, swaps)

    def test_inputs_are_left_as_they_were(self):
        batch = thresholded_batch(3, 20, 0.5, 8)
        before = [b.edges.copy() for b in batch]
        metrics._rewire(batch, 4, 10)
        assert all(np.array_equal(b.edges, e) for b, e in zip(batch, before))

    def test_mixed_edge_counts_raise(self):
        batch = [ring_lattice(12, 4), ring_lattice(12, 4), ring_lattice(12, 6)]
        with pytest.raises(ValueError, match=r"^networks rewired together need equal edge "
                                             r"counts, got \[24, 36\]$"):
            metrics._rewire(batch, 0, 10)

    def test_keeps_the_one_network_messages(self):
        with pytest.raises(ValueError, match="^swaps_per_edge must be an integer, got 1.5$"):
            metrics._rewire([path_graph(2), ring_lattice(10, 4)], 0, 1.5)
        with pytest.raises(ValidationError, match="^rewiring needs at least 2 edges, got 1$"):
            metrics._rewire([path_graph(2), path_graph(2)], 0, -1)
        with pytest.raises(ValueError, match="^swaps_per_edge must be nonnegative$"):
            metrics._rewire([ring_lattice(10, 4)] * 2, 0, -1)


def separate_outcome(b, n_rand, seed, swaps):
    """The (report, error) pair that _reports gives one network, from the oracles."""
    try:
        report = metrics_report_separate(b, n_rand, seed, swaps)
    except (NotEstimableError, ValidationError) as exc:
        return metrics_report_separate(b, 0), as_package((type(exc), str(exc)))
    except UndefinedMetricError as exc:
        return None, (UndefinedMetricError, str(exc))
    assert outcome(metrics_report_one_loop, b, n_rand, seed, swaps) == report
    return report, None


def batch_outcomes(networks, n_rand, seed, swaps):
    return [(report, None if error is None else (type(error), str(error)))
            for report, error in metrics._reports(networks, n_rand, seed, swaps)]


class TestBatchReportsMatchSeparateLoops:
    """_reports against metrics_report_separate, network by network."""

    @pytest.mark.parametrize("n, m", [(8, 6), (12, 10), (12, 14), (16, 16)])
    def test_identical_when_some_references_fail(self, n, m):
        # Sparse networks of one edge count: some have a reference with zero
        # clustering, at reference 0 or later, while others in the batch go on.
        outcomes = Counter()
        for g in range(4):
            batch = [network_with_edges(n, m, np.random.default_rng([n, m, g, k]))
                     for k in range(5)]
            for n_rand in (0, 1, 5):
                want = [separate_outcome(b, n_rand, 3, 10) for b in batch]
                assert batch_outcomes(batch, n_rand, 3, 10) == want
                outcomes.update(error[1] if error else "report" for _, error in want)
        assert outcomes["report"] > 0
        assert any(key.startswith("random reference") for key in outcomes)

    def test_failures_at_later_references_leave_the_rest_of_the_batch(self):
        batch = [network_with_edges(12, 14, np.random.default_rng([12, 14, g, 0]))
                 for g in range(12)]
        want = [separate_outcome(b, 5, 3, 10) for b in batch]
        failed_late = {error[1] for _, error in want
                       if error and not error[1].startswith("random reference 0 ")}
        assert failed_late and any(error is None for _, error in want)
        assert batch_outcomes(batch, 5, 3, 10) == want

    def test_undefined_path_length_leaves_the_batch(self):
        batch = [empty_graph(12), ring_lattice(12, 4), empty_graph(12), ring_lattice(12, 4)]
        for n_rand in (0, 2):
            want = [separate_outcome(b, n_rand, 5, 10) for b in batch]
            assert want[0] == (None, (UndefinedMetricError,
                                      "no reachable node pairs; path length is undefined"))
            assert batch_outcomes(batch, n_rand, 5, 10) == want

    def test_edgeless_batch_makes_no_references(self, monkeypatch):
        def no_rewiring(*args):
            raise AssertionError("rewired an edgeless network")

        monkeypatch.setattr(metrics, "_rewire", no_rewiring)
        outcomes = batch_outcomes([empty_graph(6)] * 3, 4, -1, 10)
        assert outcomes == [separate_outcome(empty_graph(6), 4, -1, 10)] * 3

    def test_one_edge_batch_makes_no_references(self, monkeypatch):
        def no_rewiring(*args):
            raise AssertionError("rewired a one-edge network")

        want = separate_outcome(one_edge(), 4, 0, 10)
        monkeypatch.setattr(metrics, "_rewire", no_rewiring)
        outcomes = batch_outcomes([one_edge()] * 3, 4, 0, 10)
        assert outcomes == [want] * 3
        assert want[1] == (NotEstimableError, "rewiring needs at least 2 edges, got 1")

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_one_draw_per_reference_index(self, monkeypatch, size):
        calls = []
        real = metrics._rewire

        def counted(networks, seed, swaps_per_edge):
            calls.append((len(networks), seed))
            return real(networks, seed, swaps_per_edge)

        monkeypatch.setattr(metrics, "_rewire", counted)
        batch = thresholded_batch(size, 30, 0.6, size)
        got = batch_outcomes(batch, 3, 7, 10)
        assert calls == [(size, [7, idx]) for idx in range(3)]
        assert got == [separate_outcome(b, 3, 7, 10) for b in batch]


class TestReportSeedChecks:
    def test_numpy_integer_seed_gives_a_json_row(self):
        b = ring_lattice(12, 4)
        report = metrics_report(b, n_rand=2, seed=np.int64(3), swaps_per_edge=np.int64(10))
        assert report == metrics_report(b, n_rand=2, seed=3)
        assert type(report.seed) is int and type(report.swaps_per_edge) is int
        assert json.loads(json.dumps(report.to_row()))["seed"] == 3

    @pytest.mark.parametrize("seed", [True, 1.5, "3", None])
    @pytest.mark.parametrize("n_rand", [0, 2])
    def test_non_integer_seed_rejected_before_any_work(self, monkeypatch, seed, n_rand):
        def no_work(*args, **kwargs):
            raise AssertionError("measured a network before checking seed")

        monkeypatch.setattr(metrics, "nodal_clustering", no_work)
        message = f"^seed must be an integer, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            metrics_report(ring_lattice(12, 4), n_rand=n_rand, seed=seed)
        if n_rand:
            with pytest.raises(ValueError, match=message):
                small_world_index(ring_lattice(12, 4), n_rand=n_rand, seed=seed)
