import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubnin import (
    BinaryNetwork,
    ValidationError,
    WeightedNetwork,
    UbninCode,
    consistency_threshold,
    decode,
    degree,
    edge_count,
    load_binary_matrix,
    load_weighted_matrix,
    save_binary_matrix,
    save_weighted_matrix,
    sparsity_threshold,
    target_edge_count,
)
from ubnin.graphs import _keep_strongest, _upper_flat
from ubnin.subjects import _pearson_network
from oracles import (
    keep_strongest_full_partition,
    kept_edges_oracle,
    ranked_upper_triangle_lexsort,
    sparsity_threshold_argsort,
    sparsity_threshold_partition,
    target_edge_count_fraction,
)
from synth import complete_graph, empty_graph, path_graph, random_weighted, region_labels


def weighted_from_upper(n, entries):
    w = np.zeros((n, n))
    for (i, j), v in entries.items():
        w[i, j] = w[j, i] = v
    return WeightedNetwork(w)


def edge_set(b):
    rows, cols = np.nonzero(np.triu(b.edges, 1))
    return {(int(r), int(c)) for r, c in zip(rows, cols)}


class TestSparsityThreshold:
    def test_keeps_strongest_half(self):
        w = weighted_from_upper(
            4,
            {(0, 1): 0.9, (0, 2): 0.8, (0, 3): 0.7, (1, 2): 0.4, (1, 3): 0.3, (2, 3): 0.1},
        )
        assert edge_set(sparsity_threshold(w, 0.5)) == {(0, 1), (0, 2), (0, 3)}

    def test_keep_all_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        w = random_weighted(6, rng)
        assert sparsity_threshold(w, 1.0) == complete_graph(6)

    def test_equal_weights_resolved_lexicographically(self):
        w = weighted_from_upper(4, {(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)})
        assert edge_set(sparsity_threshold(w, 0.5)) == {(0, 1), (0, 2), (0, 3)}

    @pytest.mark.parametrize("keep", [0.05, 0.3, 0.5, 0.63, 0.8, 1.0])
    def test_edge_count_matches_rounded_target(self, keep):
        rng = np.random.default_rng(42)
        for n in (4, 9, 20, 56):
            b = sparsity_threshold(random_weighted(n, rng), keep)
            total = n * (n - 1) // 2
            assert edge_count(b) == target_edge_count(keep, total) == kept_edges_oracle(keep, total)

    def test_half_boundary_rounding_is_exact(self):
        # float(0.06) * 325 rounds up to 19.5 although the exact product is below it
        assert target_edge_count(0.06, 325) == 19
        # a numpy count must not wrap around in the exact integer product
        assert target_edge_count(0.06, np.int64(325)) == 19
        assert target_edge_count(0.06, np.int64(10**7)) == 600_000
        b = sparsity_threshold(random_weighted(26, np.random.default_rng(2)), 0.06)
        assert edge_count(b) == 19

    def test_nesting_for_distinct_weights(self):
        rng = np.random.default_rng(1)
        w = random_weighted(12, rng)
        previous = set()
        for keep in (0.2, 0.4, 0.6, 0.8, 1.0):
            current = edge_set(sparsity_threshold(w, keep))
            assert previous <= current
            previous = current

    def test_negative_weights_ranked_by_raw_value(self):
        w = weighted_from_upper(3, {(0, 1): -0.9, (0, 2): 0.1, (1, 2): -0.2})
        assert edge_set(sparsity_threshold(w, 1 / 3)) == {(0, 2)}

    @pytest.mark.parametrize("keep", [0.0, -0.1, 1.0001, 2.0])
    def test_rejects_fraction_outside_unit_interval(self, keep):
        with pytest.raises(ValueError):
            sparsity_threshold(random_weighted(4, np.random.default_rng(0)), keep)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_output_is_symmetric_loopless_with_exact_count(self, n, seed, keep):
        w = random_weighted(n, np.random.default_rng(seed))
        b = sparsity_threshold(w, keep)
        assert np.array_equal(b.edges, b.edges.T)
        assert not b.edges.diagonal().any()
        assert edge_count(b) == target_edge_count(keep, n * (n - 1) // 2)


class TestConsistencyThreshold:
    def test_identical_subjects_keep_all(self):
        rng = np.random.default_rng(5)
        w = random_weighted(5, rng)
        for strategy in ("per-subject", "group-mask"):
            outs = consistency_threshold([w, w], 1.0, strategy)
            assert all(b == complete_graph(5) for b in outs)

    def test_per_subject_edge_count_at_30_percent(self):
        rng = np.random.default_rng(6)
        stack = [random_weighted(56, rng) for _ in range(3)]
        for b in consistency_threshold(stack, 0.3):
            assert edge_count(b) == 462

    def test_group_mask_outputs_share_one_edge_set(self):
        rng = np.random.default_rng(7)
        stack = [random_weighted(10, rng) for _ in range(4)]
        outs = consistency_threshold(stack, 0.4, "group-mask")
        assert all(edge_set(b) == edge_set(outs[0]) for b in outs)

    def test_per_subject_outputs_depend_only_on_own_input(self):
        rng = np.random.default_rng(8)
        stack = [random_weighted(8, rng) for _ in range(3)]
        changed = list(stack)
        changed[2] = random_weighted(8, rng)
        assert consistency_threshold(stack, 0.5)[0] == consistency_threshold(changed, 0.5)[0]

    def test_group_mask_constant_edge_scores_infinite_first(self):
        base = np.zeros((3, 3))
        base[0, 1] = base[1, 0] = 0.2  # identical across subjects -> stddev 0
        w1, w2 = base.copy(), base.copy()
        w1[0, 2] = w1[2, 0] = 0.9
        w2[0, 2] = w2[2, 0] = 0.95
        stack = [WeightedNetwork(w1), WeightedNetwork(w2)]
        outs = consistency_threshold(stack, 1 / 3, "group-mask")
        assert edge_set(outs[0]) == {(0, 1)}

    def test_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValidationError):
            consistency_threshold([random_weighted(4, rng), random_weighted(5, rng)], 0.5)
        with pytest.raises(ValidationError):
            consistency_threshold(
                [random_weighted(4, rng, ("a", "b", "c", "d")), random_weighted(4, rng)], 0.5
            )
        with pytest.raises(ValidationError):
            consistency_threshold([random_weighted(4, rng)], 0.5)


TIE_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
ORACLE_SIZES = (2, 3, 4, 5, 8, 13, 30, 90)
ORACLE_KEEPS = (0.01, 0.1, 1 / 3, 0.5, 0.77, 1.0)  # 0.01 keeps no edge below 10 nodes


def oracle_keeps(n):
    """ORACLE_KEEPS plus the fractions that keep exactly 0 and exactly 1 of n nodes' edges."""
    m = n * (n - 1) // 2
    return ORACLE_KEEPS + (0.25 / m, 1 / m)


def upper_weights(n, upper):
    w = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    w[rows, cols] = upper
    w[cols, rows] = upper
    return WeightedNetwork(w)


def tie_heavy(n, rng, values=TIE_VALUES):
    return upper_weights(n, rng.choice(values, size=n * (n - 1) // 2))


def group_mask_keys(stack):
    """Per upper-triangle edge: mean / stddev across the stack (inf at stddev 0), and mean."""
    n = stack[0].n
    vals = np.stack([w.weights[np.triu_indices(n, 1)] for w in stack])
    mean, std = vals.mean(axis=0), vals.std(axis=0)
    return np.where(std == 0, np.inf, mean / np.where(std == 0, 1.0, std)), mean


def weight_sets(n, rng):
    """Tie-heavy, signed-zero-only, all-0.5, all-(-0.0) and distinct upper-triangle weights."""
    m = n * (n - 1) // 2
    return [
        tie_heavy(n, rng),
        tie_heavy(n, rng, (-0.0, 0.0)),
        upper_weights(n, np.full(m, 0.5)),
        upper_weights(n, np.full(m, -0.0)),
        random_weighted(n, rng),
    ]


def lexsort_edge_set(values, n, keep, secondary=None):
    """The first k edges of the earlier three-key lexsort ranking."""
    rows, cols = np.triu_indices(n, 1)
    order = ranked_upper_triangle_lexsort(values, rows, cols, secondary)
    sel = order[:kept_edges_oracle(keep, rows.size)]
    return {(int(r), int(c)) for r, c in zip(rows[sel], cols[sel])}


class TestRankingMatchesLexsortOracle:
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_sparsity_and_per_subject(self, n):
        stack = weight_sets(n, np.random.default_rng(n))
        rows, cols = np.triu_indices(n, 1)
        for keep in oracle_keeps(n):
            per_subject = consistency_threshold(stack, keep, "per-subject")
            for w, b in zip(stack, per_subject):
                expected = lexsort_edge_set(w.weights[rows, cols], n, keep)
                assert edge_set(sparsity_threshold(w, keep)) == expected
                assert edge_set(b) == expected

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_group_mask(self, n):
        rng = np.random.default_rng(100 + n)
        values = (-1.0, 0.0, 1.0, 2.0, 3.0)
        base = tie_heavy(n, rng, values)
        stacks = [
            [tie_heavy(n, rng, values) for _ in range(2)],
            [tie_heavy(n, rng, values) for _ in range(3)],
            [base, base],  # every edge has stddev 0
            [base, tie_heavy(n, rng, values), base],
            [tie_heavy(n, rng) for _ in range(2)],
            [random_weighted(n, rng) for _ in range(3)],
        ]
        for stack in stacks:
            score, mean = group_mask_keys(stack)
            for keep in oracle_keeps(n):
                expected = lexsort_edge_set(score, n, keep, secondary=mean)
                for b in consistency_threshold(stack, keep, "group-mask"):
                    assert edge_set(b) == expected

    def test_group_mask_tie_breaks(self):
        # the mean breaks score ties against row-major order; equal means keep it
        stack = [upper_weights(4, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]),
                 upper_weights(4, [1.0, 2.0, 1.0, 1.0, 2.0, 4.0])]
        score, mean = group_mask_keys(stack)
        assert score.tolist() == [1.0, 1.0, np.inf, np.inf, np.inf, 3.0]
        assert mean.tolist() == [0.5, 1.0, 1.0, 1.0, 2.0, 3.0]
        expected = {1 / 3: {(1, 3), (0, 3)},
                    0.5: {(1, 3), (0, 3), (1, 2)},
                    0.77: {(1, 3), (0, 3), (1, 2), (2, 3), (0, 2)}}
        for keep, edges in expected.items():
            assert lexsort_edge_set(score, 4, keep, secondary=mean) == edges
            assert edge_set(consistency_threshold(stack, keep, "group-mask")[0]) == edges


class TestSelectionMatchesArgsortOracle:
    def test_every_size_and_edge_count(self):
        rng = np.random.default_rng(12)
        for n in range(2, 91):
            m = n * (n - 1) // 2
            for w in weight_sets(n, rng):
                for keep in oracle_keeps(n):
                    assert target_edge_count(keep, m) == target_edge_count_fraction(keep, m)
                    b = sparsity_threshold(w, keep)
                    assert b == sparsity_threshold_argsort(w, keep)
                    assert b == sparsity_threshold_partition(w, keep)
            assert target_edge_count(0.25 / m, m) == 0
            assert target_edge_count(1 / m, m) == 1

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_stacked_selection_row_by_row(self, n):
        # Tie-heavy networks and few-subject correlations, which hold negative
        # weights: at keep 1.0 the threshold lies below the diagonal's 0 or 1,
        # so only the diagonal clear keeps self-loops out. The permutation test
        # passes its networks with a diagonal of 1 and a float32 output.
        rng = np.random.default_rng([15, n])
        nets = weight_sets(n, rng) + [
            _pearson_network(rng.normal(size=(4, n)), region_labels(n)) for _ in range(3)
        ]
        flat = _upper_flat(n)
        zero_diag = np.stack([w.weights for w in nets])
        unit_diag = zero_diag.copy()
        unit_diag[:, np.arange(n), np.arange(n)] = 1.0
        for keep in oracle_keeps(n):
            k = target_edge_count(keep, flat.size)
            for weights, dtype in ((zero_diag, bool), (unit_diag, np.float32)):
                out = np.ones(weights.shape, dtype=dtype)
                upper = weights.reshape(len(nets), -1)[:, flat]
                assert _keep_strongest(weights, upper, k, out) is out
                for w, a in zip(nets, out):
                    assert np.array_equal(a, sparsity_threshold_argsort(w, keep).edges)

    def test_stacked_selection_edge_cases(self):
        # Every k from 0 to m on one stack: k == m leaves nothing below the
        # partition's pivot, k == 1 keeps the largest weight alone, and ties
        # above t, at t inside the k places, and at t across the cut occur
        # in different networks of the stack at the same k.
        n, m = 6, 15
        rng = np.random.default_rng(16)
        designs = [
            np.arange(m, dtype=float),
            np.array([9.0] * 3 + list(range(m - 3))),  # ties at the top
            np.array([9.0] + [8.0] * 4 + [7.0] * 3 + list(range(m - 8))),  # ties inside
            np.full(m, 0.5),  # all equal
            np.array([-0.0, 0.0] * 7 + [1.0]),  # signed zeros compare equal
        ]
        nets = [upper_weights(n, rng.permutation(upper)) for upper in designs]
        weights = np.stack([w.weights for w in nets])
        weights[:, np.arange(n), np.arange(n)] = 1.0
        flat = _upper_flat(n)
        straddles = inside = 0
        for k in range(m + 1):
            keep = k / m if k else 0.25 / m
            assert target_edge_count(keep, m) == k
            out = np.ones(weights.shape, dtype=np.float32)
            upper = weights.reshape(len(nets), -1)[:, flat]
            assert _keep_strongest(weights, upper, k, out) is out
            for w, a in zip(nets, out):
                assert np.array_equal(a, sparsity_threshold_argsort(w, keep).edges)
                ranked = np.sort(w.weights.take(flat))[::-1]
                if 0 < k < m and ranked[k - 1] == ranked[k]:
                    straddles += 1
                elif 0 < k < m and ranked[k - 1] == ranked[k - 2]:
                    inside += 1
        assert straddles > 0 and inside > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.data(),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_first_k_of_lexsort_ranking(self, n, data, keep):
        m = n * (n - 1) // 2
        upper = data.draw(st.lists(st.sampled_from(TIE_VALUES), min_size=m, max_size=m))
        w = upper_weights(n, upper)
        expected = lexsort_edge_set(w.weights[np.triu_indices(n, 1)], n, keep)
        assert edge_set(sparsity_threshold(w, keep)) == expected

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.integers(min_value=0, max_value=10**7),
    )
    def test_edge_count_matches_fraction(self, keep, total):
        assert target_edge_count(keep, total) == target_edge_count_fraction(keep, total)

    def test_cached_indices_are_read_only_and_not_shared(self):
        rng = np.random.default_rng(11)
        for n in (5, 9, 5, 30, 2, 9, 90, 30):
            w = tie_heavy(n, rng)
            flat = _upper_flat(n)
            with pytest.raises(ValueError):
                flat[0] = 1
            for keep in oracle_keeps(n):
                b = sparsity_threshold(w, keep)
                assert b == sparsity_threshold_argsort(w, keep)
                assert not np.shares_memory(b.edges, flat)
            for b in consistency_threshold([w, tie_heavy(n, rng)], 0.5, "group-mask"):
                assert not np.shares_memory(b.edges, flat)
            assert np.array_equal(flat, np.flatnonzero(np.triu(np.ones((n, n)), 1)))


def nested_edge_counts(m, rng):
    """Ascending edge counts from 0 to m, with repeats and random counts between."""
    inner = rng.integers(0, m + 1, size=6).tolist()
    return sorted(inner + [0, 0, 1, m // 2, m // 2, max(m - 1, 0), m, m])


class TestNestedRankingMatchesFullPartition:
    """``_keep_strongest`` with ``ranked`` carried from the level before,
    against ``keep_strongest_full_partition``, which partitions every row in
    full at every level."""

    @staticmethod
    def assert_nested_levels(weights, edge_counts):
        g, n = weights.shape[:2]
        flat = _upper_flat(n)
        m = flat.size
        fresh = weights.reshape(g, -1)[:, flat]
        for dtype in (bool, np.float32):
            upper, ranked = fresh.copy(), m
            for k in edge_counts:
                out = np.ones(weights.shape, dtype=dtype)
                expected = keep_strongest_full_partition(
                    weights, fresh.copy(), k, np.ones(weights.shape, dtype=dtype))
                assert _keep_strongest(weights, upper, k, out, ranked) is out
                assert np.array_equal(out, expected)
                assert out.sum() == 2 * k * g  # k edges per network, both triangles
                ranked = m - k
            # the partitions only reorder each row
            assert np.array_equal(np.sort(upper, axis=1), np.sort(fresh, axis=1))

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_ascending_repeated_and_extreme_edge_counts(self, n):
        # Tie-heavy and distinct weights, integer weights of a few values (ties
        # across every cut), and few-subject correlations with a unit diagonal,
        # as the permutation test passes them.
        rng = np.random.default_rng([18, n])
        m = n * (n - 1) // 2
        nets = weight_sets(n, rng) + [
            upper_weights(n, rng.integers(0, 3, size=m).astype(float)),
            upper_weights(n, rng.integers(-2, 2, size=m).astype(float)),
        ] + [_pearson_network(rng.normal(size=(4, n)), region_labels(n)) for _ in range(3)]
        weights = np.stack([w.weights for w in nets])
        unit_diag = weights.copy()
        unit_diag[:, np.arange(n), np.arange(n)] = 1.0
        for stack in (weights, unit_diag):
            for _ in range(3):
                self.assert_nested_levels(stack, nested_edge_counts(m, rng))
            self.assert_nested_levels(stack, list(range(m + 1)) if m <= 50 else [0, m, m])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=4),
           st.data())
    def test_tie_heavy_stacks(self, n, g, data):
        m = n * (n - 1) // 2
        nets = [upper_weights(n, data.draw(st.lists(st.sampled_from(TIE_VALUES),
                                                    min_size=m, max_size=m)))
                for _ in range(g)]
        edge_counts = sorted(data.draw(st.lists(st.integers(0, m), min_size=1, max_size=6)))
        self.assert_nested_levels(np.stack([w.weights for w in nets]), edge_counts)

    def test_rejects_a_pivot_outside_the_unranked_prefix(self):
        w = random_weighted(6, np.random.default_rng(19)).weights[None]
        upper = w.reshape(1, -1)[:, _upper_flat(6)]
        out = np.empty(w.shape, dtype=bool)
        for k, ranked in ((3, 11), (15, -1), (5, 16)):
            with pytest.raises(ValueError, match="ranked prefix"):
                _keep_strongest(w, upper, k, out, ranked)


class TestDegreeAndEdgeCount:
    def test_complete_graph_degrees(self):
        b = complete_graph(5)
        assert all(degree(b, i) == 4 for i in range(5))

    def test_empty_graph_edge_count(self):
        assert edge_count(empty_graph(4)) == 0

    def test_path_midpoint_degree(self):
        assert degree(path_graph(3), 1) == 2

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            degree(path_graph(3), 3)


class TestNetworkValidation:
    def test_weighted_requires_symmetry(self):
        w = np.zeros((3, 3))
        w[0, 1] = 0.5
        with pytest.raises(ValidationError, match="not symmetric"):
            WeightedNetwork(w)

    def test_weighted_rejects_non_finite(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            WeightedNetwork(w)

    def test_weighted_rejects_nonzero_diagonal(self):
        w = np.zeros((3, 3))
        w[1, 1] = 1.0
        with pytest.raises(ValidationError, match="diagonal"):
            WeightedNetwork(w)

    def test_binary_rejects_self_loop(self):
        e = np.eye(3, dtype=bool)
        with pytest.raises(ValidationError, match="self-loop"):
            BinaryNetwork(e)

    def test_label_count_must_match(self):
        with pytest.raises(ValidationError):
            WeightedNetwork(np.zeros((3, 3)), ("a", "b"))

    # Both constructors share one check: cells are named by label and entries
    # print as plain numbers, not as numpy scalar reprs.
    @pytest.mark.parametrize("cells,labels,message", [
        ({(0, 1): 0.5, (1, 0): 0.4}, None,
         "weight matrix is not symmetric at (v1,v2): 0.5 vs 0.4"),
        ({(1, 2): 0.1 + 0.2, (2, 1): 0.3}, ("a", "b", "c"),
         "weight matrix is not symmetric at (b,c): 0.30000000000000004 vs 0.3"),
        ({(1, 1): 1.0}, None, "self-loop at v2; diagonal must be zero, found 1.0"),
        ({(2, 2): -0.5}, ("a", "b", "c"), "self-loop at c; diagonal must be zero, found -0.5"),
        ({(0, 2): np.inf, (2, 0): np.inf}, ("a", "b", "c"), "non-finite weight at (a,c): inf"),
        ({(1, 0): np.nan}, None, "non-finite weight at (v2,v1): nan"),
        ({(0, 1): 0.5, (1, 0): 0.4, (2, 2): np.nan}, None, "non-finite weight at (v3,v3): nan"),
        ({(0, 1): 0.5, (1, 1): 1.0}, None,
         "weight matrix is not symmetric at (v1,v2): 0.5 vs 0.0"),
    ])
    def test_weighted_messages(self, cells, labels, message):
        w = np.zeros((3, 3))
        for cell, v in cells.items():
            w[cell] = v
        with pytest.raises(ValidationError) as err:
            WeightedNetwork(w, labels)
        assert str(err.value) == message

    @pytest.mark.parametrize("cells,labels,message", [
        ({(0, 1)}, None, "adjacency matrix is not symmetric at (v1,v2): 1 vs 0"),
        ({(2, 1)}, ("a", "b", "c"), "adjacency matrix is not symmetric at (b,c): 0 vs 1"),
        ({(1, 1)}, None, "self-loop at v2; diagonal must be zero, found 1"),
        ({(0, 0), (0, 1)}, ("x", "y", "z"), "adjacency matrix is not symmetric at (x,y): 1 vs 0"),
    ])
    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
    def test_binary_messages(self, cells, labels, message, dtype):
        e = np.zeros((3, 3), dtype=dtype)
        for cell in cells:
            e[cell] = 1
        with pytest.raises(ValidationError) as err:
            BinaryNetwork(e, labels)
        assert str(err.value) == message

    @pytest.mark.parametrize("build,shape,message", [
        (WeightedNetwork, (2, 3), "weight matrix must be square, got shape (2, 3)"),
        (BinaryNetwork, (3,), "adjacency matrix must be square, got shape (3,)"),
        (WeightedNetwork, (1, 1), "a network needs at least 2 nodes"),
        (BinaryNetwork, (1, 1), "a network needs at least 2 nodes"),
    ])
    def test_shape_messages(self, build, shape, message):
        with pytest.raises(ValidationError) as err:
            build(np.zeros(shape))
        assert str(err.value) == message

    def test_labels_are_checked_before_entries(self):
        w = np.zeros((3, 3))
        w[0, 1] = np.nan
        with pytest.raises(ValidationError) as err:
            WeightedNetwork(w, ("a", "a", "b"))
        assert str(err.value) == "node labels must be unique"

    # A numpy array of labels has no single truth value; only an empty one
    # falls back to v1..vn.
    @pytest.mark.parametrize("build", [
        lambda labels: BinaryNetwork(np.zeros((3, 3), bool), labels),
        lambda labels: WeightedNetwork(np.zeros((3, 3)), labels),
        lambda labels: decode(UbninCode(3, 3, 1), labels),
    ], ids=["binary", "weighted", "decode"])
    def test_array_labels(self, build):
        assert build(np.array(["a", "b", "c"])).labels == ("a", "b", "c")
        assert build(np.array([], dtype=str)).labels == ("v1", "v2", "v3")
        assert build(None).labels == ("v1", "v2", "v3")
        with pytest.raises(ValidationError, match="unique"):
            build(np.array(["a", "a", "c"]))

    def test_arrays_are_frozen(self):
        b = complete_graph(3)
        with pytest.raises(ValueError):
            b.edges[0, 1] = False


class TestMatrixCsv:
    def test_binary_round_trip(self, tmp_path):
        b = path_graph(5)
        path = tmp_path / "m.csv"
        save_binary_matrix(b, path)
        assert load_binary_matrix(path) == b

    def test_weighted_round_trip(self, tmp_path):
        w = random_weighted(6, np.random.default_rng(2), labels=tuple("abcdef"))
        path = tmp_path / "w.csv"
        save_weighted_matrix(w, path)
        assert load_weighted_matrix(path) == w

    def test_asymmetric_binary_names_offending_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,0\n0,0,1\n0,1,0\n")
        with pytest.raises(ValidationError, match=r"\(a,b\)"):
            load_binary_matrix(path)

    def test_non_binary_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0.5\n0.5,0\n")
        with pytest.raises(ValidationError, match="expected 0 or 1"):
            load_binary_matrix(path)

    def test_weighted_symmetry_tolerance(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(f"a,b\n0,{0.5 + 4e-13!r}\n0.5,0\n")
        w = load_weighted_matrix(path)
        assert np.array_equal(w.weights, w.weights.T)

        path.write_text("a,b\n0,0.5001\n0.5,0\n")
        with pytest.raises(ValidationError, match="not symmetric"):
            load_weighted_matrix(path)

    def test_weighted_asymmetry_message_prints_plain_numbers(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,b,c\n0,0,1e-3\n0,0,0\n0.0011,0,0\n")
        with pytest.raises(ValidationError) as err:
            load_weighted_matrix(path)
        assert str(err.value) == f"{path}: matrix is not symmetric at (a,c): 0.001 vs 0.0011"

    @pytest.mark.parametrize("body,message", [
        ("0,x\n0.5,0", r"invalid number 'x' at \(1,2\)"),
        ("0,0.5\n,0", r"invalid number '' at \(2,1\)"),
        ("0,nan\n0.5,0", r"non-finite weight at \(1,2\)"),
        ("0,0.5\n-inf,0", r"non-finite weight at \(2,1\)"),
        ("0,0.5\n1e500,0", r"non-finite weight at \(2,1\)"),
        ("0,inf\nx,0", r"non-finite weight at \(1,2\)"),  # the first bad cell wins
        ("0,x\ninf,0", r"invalid number 'x' at \(1,2\)"),
    ])
    def test_weighted_cell_errors_name_the_first_bad_cell(self, tmp_path, body, message):
        path = tmp_path / "w.csv"
        path.write_text(f"a,b\n{body}\n")
        with pytest.raises(ValidationError, match=message):
            load_weighted_matrix(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,0\n1,0,0\n")
        with pytest.raises(ValidationError, match="expected 3 data rows"):
            load_binary_matrix(path)
