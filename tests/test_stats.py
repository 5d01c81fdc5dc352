import json
import math
import time
import warnings
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
from oracles import f_statistic_float, f_statistic_fraction, f_tail_mpmath
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
            assert result.F == f_statistic_float(groups)  # the power-of-two scaling is exact
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
        for g in (groups, shifted):
            assert one_way_anova(g).F == f_statistic_float(g)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        groups = [list(rng.normal(i, 1, 5)) for i in range(3)]
        scaled = [[v * 37.5 for v in g] for g in groups]
        assert one_way_anova(scaled).F == pytest.approx(one_way_anova(groups).F, rel=1e-9)
        for g in (groups, scaled):
            assert one_way_anova(g).F == f_statistic_float(g)

    def test_p_decreases_with_f(self):
        ps = [stats._f_tail(2, 6, 6 / (6 + 2 * f)) for f in (0.5, 1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert all(0 < p <= 1 for p in ps)

    @pytest.mark.parametrize("groups", [
        [[1e200, 2e200], [3e200, 5e200]],
        [[1e155, 2e155, 3e155], [4e155, 5e155]],
        [[1e-170, 2e-170], [3e-170, 5e-170, 6e-170]],
    ])
    def test_extreme_magnitudes_give_the_exact_f(self, groups):
        # Unscaled, the first two overflow to F = p = nan and the third
        # underflows to F = 0, p = 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = one_way_anova(groups)
        assert result.F == pytest.approx(float(f_statistic_fraction(groups)), rel=1e-12)
        assert result.p == pytest.approx(
            float(f_tail_mpmath(result.F, result.df_between, result.df_within)), rel=1e-12
        )

    def test_power_of_two_scaling_keeps_every_bit(self):
        rng = np.random.default_rng(24)
        groups = [list(rng.normal(i, 1, 6)) for i in range(3)]
        result = one_way_anova(groups)
        for e in (-1000, -900, -300, -1, 1, 300, 900, 1000):
            scaled = one_way_anova([[math.ldexp(v, e) for v in g] for g in groups])
            assert (scaled.F, scaled.p) == (result.F, result.p)

    def test_f_zero_gives_p_exactly_one(self):
        result = one_way_anova([[1.0, 3.0], [0.0, 4.0], [2.5, 1.5]])
        assert result.F == 0.0 and result.p == 1.0
        assert stats._f_tail(2, 3, 1.0) == 1.0

    def test_underflowing_p_gives_the_smallest_normal_float(self):
        groups = [[0.0, 1.0] * 300, [1e6, 1e6 + 1.0] * 300]
        result = one_way_anova(groups)
        assert stats._f_tail(result.df_between, result.df_within,
                             result.df_within / (result.df_within + result.F)) == 0.0
        assert result.p == np.finfo(float).tiny


# d_within values of the accuracy grids; the largest real cohort has 245.
WITHIN = (1, 2, 3, 5, 8, 13, 30, 60, 120, 245, 2000, 20000)
F_VALUES = (1e-3, 0.1, 0.5, 1, 2, 4, 10, 32, 100, 1e3)


def f_tail_error(df_between, df_within, f_value):
    """Relative error of ``_f_tail`` against 50-digit mpmath at the same float x;
    None where the exact p is below 1e-290, near where it underflows."""
    import mpmath as mp

    x = df_within / (df_within + df_between * f_value)
    with mp.workdps(50):
        exact = mp.betainc(mp.mpf(df_within) / 2, mp.mpf(df_between) / 2, 0, mp.mpf(x),
                           regularized=True)
        if exact < mp.mpf("1e-290"):
            return None
        return float(abs(stats._f_tail(df_between, df_within, x) - exact) / exact)


class TestFTail:
    @pytest.mark.parametrize("df_between", range(1, 26))  # 25 is the most --bins allows
    def test_within_2e_12_of_mpmath(self, df_between):
        errors = [f_tail_error(df_between, w, f) for w in WITHIN for f in F_VALUES]
        assert max(e for e in errors if e is not None) <= 2e-12

    @pytest.mark.parametrize("df_between", [60, 200, 1000])
    def test_within_1e_10_of_mpmath_at_many_groups(self, df_between):
        errors = [f_tail_error(df_between, w, f) for w in WITHIN[:-1] + (10_000,)
                  for f in F_VALUES]
        assert max(e for e in errors if e is not None) <= 1e-10

    def test_log_gamma_half_ratio_matches_mpmath(self):
        import mpmath as mp

        for z in [0.5, 1, 1.5, 7, 19.5, 20, 20.5, 21, 33.5, 100, 1e3 + 0.5, 1e5, 1e6 + 0.5]:
            with mp.workdps(50):
                exact = mp.loggamma(mp.mpf(z) + 0.5) - mp.loggamma(z)
                assert abs(stats._ln_gamma_half_ratio(z) - exact) <= 4e-15 * max(1, abs(exact))

    def test_ends_of_the_unit_interval(self):
        for df_between, df_within in ((1, 1), (25, 20000), (1000, 3)):
            assert stats._f_tail(df_between, df_within, 0.0) == 0.0
            assert stats._f_tail(df_between, df_within, 1.0) == 1.0

    def test_under_a_millisecond_at_a_million_degrees_of_freedom(self):
        for df_between in (1, 4, 25):
            for f_value in (0.01, 1.0, 1.2, 3.0):
                x = 10**6 / (10**6 + df_between * f_value)
                best = math.inf
                for _ in range(20):
                    start = time.perf_counter()
                    stats._f_tail(df_between, 10**6, x)
                    best = min(best, time.perf_counter() - start)
                assert best < 1e-3

    def test_a_fraction_that_cannot_converge_raises(self):
        # Steps grow as the square root of the shapes: about 10^6 here.
        with pytest.raises(ArithmeticError, match="did not converge"):
            stats._beta_fraction(1e12, 1e12, 0.5)


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
