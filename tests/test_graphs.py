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
    save_binary_matrix,
    sparsity_threshold,
    target_edge_count,
)
from ubnin import graphs
from ubnin.graphs import _check_labels, _keep_strongest, _upper_flat
from ubnin.subjects import _pearson_network
from oracles import (
    check_labels_converted,
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
        assert all(b == complete_graph(5) for b in consistency_threshold([w, w], 1.0))

    def test_per_subject_edge_count_at_30_percent(self):
        rng = np.random.default_rng(6)
        stack = [random_weighted(56, rng) for _ in range(3)]
        for b in consistency_threshold(stack, 0.3):
            assert edge_count(b) == 462

    def test_per_subject_outputs_depend_only_on_own_input(self):
        rng = np.random.default_rng(8)
        stack = [random_weighted(8, rng) for _ in range(3)]
        changed = list(stack)
        changed[2] = random_weighted(8, rng)
        assert consistency_threshold(stack, 0.5)[0] == consistency_threshold(changed, 0.5)[0]

    def test_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValidationError):
            consistency_threshold([random_weighted(4, rng), random_weighted(5, rng)], 0.5)
        with pytest.raises(ValidationError):
            consistency_threshold(
                [random_weighted(4, rng, ("a", "b", "c", "d")), random_weighted(4, rng)], 0.5
            )
        with pytest.raises(ValidationError):
            consistency_threshold([], 0.5)

    def test_one_network_is_thresholded_alone(self):
        w = random_weighted(6, np.random.default_rng(10))
        assert consistency_threshold([w], 0.4) == [sparsity_threshold(w, 0.4)]


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


def lexsort_edge_set(values, n, keep):
    """The first k edges of the earlier three-key lexsort ranking."""
    rows, cols = np.triu_indices(n, 1)
    order = ranked_upper_triangle_lexsort(values, rows, cols)
    sel = order[:kept_edges_oracle(keep, rows.size)]
    return {(int(r), int(c)) for r, c in zip(rows[sel], cols[sel])}


class TestRankingMatchesLexsortOracle:
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_sparsity_and_per_subject(self, n):
        stack = weight_sets(n, np.random.default_rng(n))
        rows, cols = np.triu_indices(n, 1)
        for keep in oracle_keeps(n):
            per_subject = consistency_threshold(stack, keep)
            for w, b in zip(stack, per_subject):
                expected = lexsort_edge_set(w.weights[rows, cols], n, keep)
                assert edge_set(sparsity_threshold(w, keep)) == expected
                assert edge_set(b) == expected


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


def label_outcome(check, labels, n):
    """The labels a check returns, with their types, or the error it raises."""
    try:
        checked = check(labels, n)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return type(checked), checked, [type(x) for x in checked]


# Equal labels of different types (1, 1.0 and True; "1" and np.str_("1")),
# duplicates, empty strings and unhashable lists.
LABEL_ITEMS = st.one_of(st.text(alphabet="ab1", max_size=2), st.integers(0, 2),
                        st.sampled_from([1.0, True, False, -0.0, np.str_("1"), np.int64(1)]),
                        st.lists(st.integers(0, 1), max_size=1))
LABELS = st.one_of(
    st.none(),
    st.lists(LABEL_ITEMS, max_size=4).map(tuple),
    st.lists(LABEL_ITEMS, max_size=4),
    st.lists(st.text(alphabet="ab1", max_size=2), max_size=4).map(np.array),
)


class TestLabelFastPath:
    """_check_labels against the check that converts every label, in oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(LABELS, st.integers(2, 4)), min_size=1, max_size=6))
    def test_same_outcome_as_converting_check(self, calls):
        # Each call twice, then on an equal copy: a tuple that passed passes
        # again at once, so the same tuple at another length and an equal
        # tuple must still get the full check.
        for labels, n in calls * 2:
            want = label_outcome(check_labels_converted, labels, n)
            assert label_outcome(_check_labels, labels, n) == want
            if isinstance(labels, tuple):
                copy = tuple(list(labels))
                assert label_outcome(_check_labels, copy, n) == want
                assert label_outcome(_check_labels, labels, n + 1) == \
                    label_outcome(check_labels_converted, labels, n + 1)

    def test_equal_tuples_of_other_types(self):
        assert _check_labels(("1", "2"), 2) == ("1", "2")
        assert _check_labels((1.0, 2.0), 2) == ("1.0", "2.0")
        assert _check_labels((True, 2), 2) == ("True", "2")
        assert _check_labels(([1], [2]), 2) == ("[1]", "[2]")
        assert type(_check_labels((np.str_("a"), "b"), 2)[0]) is str

    def test_tuple_of_str_returned_as_given_and_kept(self):
        labels = tuple(f"r{i}" for i in range(90))
        for _ in range(2):
            assert _check_labels(labels, 90) is labels
            assert graphs._passed is labels  # the next call skips the checks
            with pytest.raises(ValidationError, match="expected 91 node labels, got 90"):
                _check_labels(labels, 91)


class TestMatrixCsv:
    def test_binary_round_trip(self, tmp_path):
        b = path_graph(5)
        path = tmp_path / "m.csv"
        save_binary_matrix(b, path)
        assert load_binary_matrix(path) == b

    def test_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path):
        net = path_graph(5)
        path = tmp_path / "m.csv"
        save_binary_matrix(net, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_binary_matrix(path) == net

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

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,0\n1,0,0\n")
        with pytest.raises(ValidationError, match="expected 3 data rows"):
            load_binary_matrix(path)

    # Rows are numbered as the file's non-blank lines, the header being row 1.
    @pytest.mark.parametrize("text, message", [
        ("a,b\n0,1,1\n1,0\n", "row 2 has 3 values, expected 2"),
        ("a,b\n0,1\n\n1\n", "row 3 has 1 values, expected 2"),
    ])
    def test_row_error_numbers_the_row_as_the_file_does(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_binary_matrix(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header, message", [("a,a", "node labels must be unique"),
                                                 ("a,", "node labels must be non-empty")])
    def test_label_errors_name_the_file(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0,1\n1,0\n")
        with pytest.raises(ValidationError) as err:
            load_binary_matrix(path)
        assert str(err.value) == f"{path}: {message}"
