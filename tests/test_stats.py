import json
from collections import Counter

import numpy as np
import pytest

from ubnin import (
    CohortTable,
    DegenerateDesignError,
    PermutationResult,
    ValidationError,
    graphs,
    metrics,
    one_way_anova,
    permutation_test,
    stats,
)
from oracles import f_statistic_fraction, f_tail_mpmath
from synth import make_cohort, make_null_pair

# exact F and 30-digit mpmath tail probability for groups {1,2} and {5,6}
EXAMPLE_F = 32.0
EXAMPLE_P = 0.0298574998546681059243741515355


class TestAnova:
    def test_identical_groups_give_f_zero_p_one(self):
        result = one_way_anova([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert result.F == 0.0 and result.p == 1.0
        assert (result.df_between, result.df_within) == (2, 6)

    def test_fixed_example_matches_high_precision_oracle(self):
        result = one_way_anova([[1, 2], [5, 6]])
        assert result.F == pytest.approx(float(f_statistic_fraction([[1, 2], [5, 6]])), rel=1e-12)
        assert result.F == EXAMPLE_F
        assert (result.df_between, result.df_within) == (1, 2)
        assert result.p == pytest.approx(EXAMPLE_P, rel=1e-12)

    def test_matches_mpmath_tail_on_random_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            groups = [list(rng.normal(rng.uniform(-2, 2), 1.0, rng.integers(3, 9)))
                      for _ in range(int(rng.integers(2, 5)))]
            result = one_way_anova(groups)
            assert result.p == pytest.approx(
                float(f_tail_mpmath(result.F, result.df_between, result.df_within)), rel=1e-10
            )

    def test_repeated_single_value_gives_f_zero(self):
        result = one_way_anova([[7.0, 7.0], [7.0], [7.0, 7.0, 7.0]])
        assert result.F == 0.0 and result.p == 1.0

    def test_too_few_observations_rejected(self):
        with pytest.raises(DegenerateDesignError):
            one_way_anova([[1.0], [2.0]])

    def test_zero_within_variance_with_unequal_means_rejected(self):
        with pytest.raises(DegenerateDesignError):
            one_way_anova([[1.0, 1.0], [2.0, 2.0]])

    def test_fewer_than_two_groups_rejected(self):
        with pytest.raises(ValueError):
            one_way_anova([[1.0, 2.0]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        groups = [list(rng.normal(0, 1, 6)) for _ in range(3)]
        shifted = [[v + 1234.5 for v in g] for g in groups]
        assert one_way_anova(shifted).F == pytest.approx(one_way_anova(groups).F, rel=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        groups = [list(rng.normal(i, 1, 5)) for i in range(3)]
        scaled = [[v * 37.5 for v in g] for g in groups]
        assert one_way_anova(scaled).F == pytest.approx(one_way_anova(groups).F, rel=1e-9)

    def test_p_decreases_with_f(self):
        from scipy.special import betainc

        ps = [float(betainc(6 / 2, 2 / 2, 6 / (6 + 2 * f))) for f in (0.5, 1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert all(0 < p <= 1 for p in ps)


class TestPermutationTest:
    def test_identical_cohorts_give_zero_diff_and_p_one(self):
        a, _ = make_null_pair(0, n_subjects=6, n_regions=10)
        result = permutation_test(a, a, [0.5, 0.8], iterations=30, seed=1)
        assert result.observed_diff == (0.0, 0.0)
        assert result.p_value == (1.0, 1.0)

    def test_p_respects_smoothing_floor(self):
        a, b = make_null_pair(1, n_subjects=6, n_regions=10)
        result = permutation_test(a, b, [0.7], iterations=19, seed=2)
        assert all(p >= 1 / 20 for p in result.p_value)

    def test_deterministic_given_seed(self):
        a, b = make_null_pair(2, n_subjects=5, n_regions=12)
        r1 = permutation_test(a, b, [0.6, 0.9], iterations=25, seed=3)
        r2 = permutation_test(a, b, [0.6, 0.9], iterations=25, seed=3)
        assert r1 == r2

    def test_seed_changes_permutations(self):
        a, b = make_null_pair(3, n_subjects=5, n_regions=12)
        r1 = permutation_test(a, b, [0.7], iterations=25, seed=4)
        r2 = permutation_test(a, b, [0.7], iterations=25, seed=5)
        assert r1.perm_mean_diff != r2.perm_mean_diff

    def test_subject_order_within_cohort_is_immaterial(self):
        a, b = make_null_pair(5, n_subjects=6, n_regions=10)
        a_shuffled = a.replace_subjects(tuple(reversed(a.subjects)))
        r1 = permutation_test(a, a, [0.7], iterations=10, seed=7)
        r2 = permutation_test(a_shuffled, a, [0.7], iterations=10, seed=7)
        assert r1.observed_diff == r2.observed_diff == (0.0,)
        assert r1.p_value == r2.p_value == (1.0,)

    def test_observed_diff_tolerates_subject_reordering(self):
        a, b = make_null_pair(6, n_subjects=7, n_regions=10)
        b_shuffled = b.replace_subjects(tuple(reversed(b.subjects)))
        r1 = permutation_test(a, b, [0.8], iterations=5, seed=8)
        r2 = permutation_test(a, b_shuffled, [0.8], iterations=5, seed=8)
        assert r1.observed_diff[0] == pytest.approx(r2.observed_diff[0], abs=1e-10)

    def test_reports_mean_clustering(self):
        a, b = make_null_pair(7, n_subjects=5, n_regions=8)
        result = permutation_test(a, b, [0.5], iterations=3, seed=9)
        assert result.metric_name == "mean_clustering"
        assert result.to_dict()["metric"] == "mean_clustering"

    def test_success_path_builds_no_network_objects(self, monkeypatch):
        # The statistic runs on raw arrays: no per-network correlation,
        # threshold or clustering call is made unless a split is rejected.
        calls = Counter()
        for module, name in ((stats, "_pearson_network"), (stats, "sparsity_threshold"),
                             (graphs, "sparsity_threshold"), (metrics, "nodal_clustering")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        a, b = make_null_pair(11, n_subjects=5, n_regions=9)
        permutation_test(a, b, [0.6, 0.75, 0.9], iterations=7, seed=0)
        assert calls == {}

    def test_too_small_cohort_rejected(self):
        a, b = make_null_pair(8, n_subjects=3, n_regions=8)
        small = a.replace_subjects(a.subjects[:2])
        with pytest.raises(DegenerateDesignError):
            permutation_test(small, b, [0.5], iterations=5, seed=0)

    def test_mismatched_labels_rejected(self):
        a, _ = make_null_pair(9, n_subjects=4, n_regions=8)
        rng = np.random.default_rng(0)
        other = make_cohort("X", 4, 9, rng)
        with pytest.raises(ValidationError):
            permutation_test(a, other, [0.5], iterations=5, seed=0)

    @pytest.mark.parametrize("levels", [[], [0.0], [1.2]])
    def test_invalid_sparsities_rejected(self, levels):
        a, b = make_null_pair(10, n_subjects=4, n_regions=8)
        with pytest.raises(ValueError):
            permutation_test(a, b, levels, iterations=5, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", True), ("iterations", 2.5), ("iterations", "3"),
        ("seed", False), ("seed", 1.5), ("seed", [1, 2]),
    ])
    def test_non_integer_counts_rejected_before_any_work(self, monkeypatch, field, value):
        a, b = make_null_pair(10, n_subjects=4, n_regions=8)

        def stacked(self):
            raise AssertionError("the pool was stacked")

        monkeypatch.setattr(CohortTable, "volume_matrix", stacked)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            permutation_test(a, b, [0.5], **{"iterations": 5, "seed": 0, field: value})

    def test_numpy_integer_counts_stored_as_python_ints(self):
        a, b = make_null_pair(10, n_subjects=4, n_regions=8)
        result = permutation_test(a, b, [0.5], iterations=np.int64(4), seed=np.int64(2))
        assert type(result.iterations) is int and type(result.seed) is int
        assert result == permutation_test(a, b, [0.5], iterations=4, seed=2)
        assert json.loads(json.dumps(result.to_dict()))["seed"] == 2

    def test_result_invariants_enforced(self):
        with pytest.raises(ValidationError):
            PermutationResult(
                sparsities=(0.5,),
                observed_diff=(0.0, 0.0),
                perm_mean_diff=(0.0,),
                p_value=(1.0,),
                iterations=10,
                seed=0,
            )
        with pytest.raises(ValidationError):
            PermutationResult(
                sparsities=(0.5,),
                observed_diff=(0.0,),
                perm_mean_diff=(0.0,),
                p_value=(0.0,),
                iterations=10,
                seed=0,
            )
