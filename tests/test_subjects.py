import tempfile
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubnin import (
    CohortTable,
    DegenerateDesignError,
    SubjectRecord,
    ValidationError,
    age_binning,
    group_association_matrix,
    individual_network,
    load_subjects_csv,
    residualize_covariate,
)
from ubnin import subjects as subjects_module
from ubnin.subjects import _pearson_network, _pearson_stack, stream_subjects_csv
from oracles import (
    load_subjects_csv_cellwise,
    load_subjects_csv_lists,
    load_subjects_csv_two_loops,
    pearson_brute,
    pearson_network_three_checks,
    residualize_covariate_constructor,
)
from synth import (
    csv_text,
    make_cohort,
    region_labels,
    split_subject_rows,
    subjects_csv_text,
    table_fields,
)


def subject(sid, volumes, age=50.0, gender="F", group="HC", clinical=None):
    return SubjectRecord(sid, age, gender, group, np.asarray(volumes, float), clinical or {})


def table(subjects, n_regions=None):
    n_regions = n_regions or subjects[0].volumes.size
    return CohortTable("t", region_labels(n_regions), tuple(subjects))


class TestIndividualNetwork:
    def test_equal_volumes_give_weight_one(self):
        w = individual_network([5.0, 5.0, 8.0])
        assert w.weights[0, 1] == 1.0

    def test_unit_difference_gives_half(self):
        assert individual_network([3.0, 4.0]).weights[0, 1] == 0.5

    def test_difference_of_three_gives_tenth(self):
        assert individual_network([1.0, 4.0]).weights[0, 1] == pytest.approx(0.1, abs=1e-15)

    def test_weights_in_unit_interval_with_one_iff_equal(self):
        rng = np.random.default_rng(0)
        vols = rng.normal(600, 40, 30)
        w = individual_network(vols).weights
        off = w[~np.eye(30, dtype=bool)]
        assert np.all((off > 0) & (off <= 1))
        assert not np.any(off == 1.0)  # continuous volumes are all distinct

    def test_invariant_under_common_volume_shift(self):
        rng = np.random.default_rng(1)
        vols = rng.normal(600, 40, 12)
        w1 = individual_network(vols).weights
        w2 = individual_network(vols + 137.25).weights
        assert np.allclose(w1, w2, atol=1e-12)

    def test_takes_subject_record_and_labels(self):
        s = subject("x", [1.0, 2.0, 3.0])
        w = individual_network(s, region_labels(3))
        assert w.labels == region_labels(3)

    def test_rejects_short_or_non_finite_input(self):
        with pytest.raises(ValidationError):
            individual_network([1.0])
        with pytest.raises(ValidationError):
            individual_network([1.0, np.nan])


class TestResidualize:
    def test_single_level_covariate_is_identity(self):
        t = table([subject(f"s{i}", [10.0 + i, 20.0, 30.0], gender="F") for i in range(4)])
        assert residualize_covariate(t, "gender") is t

    def test_saturated_two_level_design_gives_grand_mean(self):
        t = table(
            [
                subject("a", [10.0, 10.0], gender="F"),
                subject("b", [10.0, 10.0], gender="F"),
                subject("c", [20.0, 20.0], gender="M"),
                subject("d", [20.0, 20.0], gender="M"),
            ]
        )
        out = residualize_covariate(t, "gender")
        assert np.allclose(out.volume_matrix(), 15.0, atol=1e-10)

    def test_level_centered_volumes_pass_through(self):
        t = table(
            [
                subject("a", [-1.0, 3.0], gender="F"),
                subject("b", [1.0, -3.0], gender="F"),
                subject("c", [-2.0, 5.0], gender="M"),
                subject("d", [2.0, -5.0], gender="M"),
            ]
        )
        out = residualize_covariate(t, "gender")
        assert np.allclose(out.volume_matrix(), t.volume_matrix(), atol=1e-10)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(2)
        t = make_cohort("c", 12, 8, rng)
        once = residualize_covariate(t, "gender")
        twice = residualize_covariate(once, "gender")
        assert np.allclose(once.volume_matrix(), twice.volume_matrix(), atol=1e-10)

    def test_too_few_subjects_rejected(self):
        t = table([subject("a", [1.0, 2.0], gender="F"), subject("b", [2.0, 1.0], gender="M")])
        with pytest.raises(DegenerateDesignError):
            residualize_covariate(t, "gender")

    def test_saturated_design_returns_grand_means(self):
        t = table([subject(f"s{i}", [float(i), 2.0 * i + 1.0], group=f"g{i}") for i in range(3)])
        out = residualize_covariate(t, "group")
        assert np.allclose(out.volume_matrix(), t.volume_matrix().mean(axis=0), atol=1e-9)

    @pytest.mark.parametrize("covariate", ["age", "updrs_off"])
    def test_numeric_covariate_removes_one_slope_per_region(self, covariate):
        rng = np.random.default_rng(11)
        values = rng.uniform(30.0, 80.0, 25)
        values[:3] = values[3]  # four subjects share a value, the rest are alone at theirs
        volumes = rng.normal(600.0, 40.0, (25, 6)) + np.outer(values, rng.normal(0, 2, 6))
        t = table([subject(f"s{i}", v, age=float(x), clinical={"updrs_off": float(x)})
                   for i, (x, v) in enumerate(zip(values, volumes))])
        x = values - values.mean()
        slope = x @ (volumes - volumes.mean(axis=0)) / (x @ x)
        out = residualize_covariate(t, covariate).volume_matrix()
        np.testing.assert_allclose(out, volumes - np.outer(x, slope), rtol=0, atol=1e-9)
        assert len({row.tobytes() for row in out}) == 25

    @pytest.mark.parametrize("covariate", ["gender", "group"])
    def test_categorical_covariate_fits_one_dummy_per_level(self, covariate):
        rng = np.random.default_rng(12)
        t = table([subject(f"s{i}", rng.normal(600.0, 40.0, 5), gender="FMX"[i % 3],
                           group=("HC", "PD")[i % 2]) for i in range(12)])
        values = [getattr(s, covariate) for s in t.subjects]
        levels = sorted(set(values))
        design = np.column_stack([np.ones(12)] + [[float(v == lvl) for v in values]
                                                  for lvl in levels[1:]])
        y = t.volume_matrix()
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        want = y - design @ beta + y.mean(axis=0)
        assert np.array_equal(residualize_covariate(t, covariate).volume_matrix(), want)

    def test_missing_clinical_covariate_names_subjects(self):
        t = table([subject(f"s{i}", [1.0, 2.0], clinical={"updrs_off": 30.0} if i else None)
                   for i in range(3)])
        with pytest.raises(ValidationError) as err:
            residualize_covariate(t, "updrs_off")
        assert str(err.value) == ("covariate 'updrs_off' missing for 1 of 3 subjects, in "
                                  "groups HC: s0; a clinical covariate needs a value for "
                                  "every subject")

    def test_missing_clinical_covariate_lists_ten_ids(self):
        t = table([subject(f"s{i}", [1.0, i], group=("HC", "PD", "PD", "SWEDD")[i % 4],
                           clinical={"hy_stage": 2.0} if i % 4 == 1 else None)
                   for i in range(30)])
        with pytest.raises(ValidationError) as err:
            residualize_covariate(t, "hy_stage")
        ids = ", ".join(f"s{i}" for i in range(30) if i % 4 != 1)
        assert str(err.value) == (
            "covariate 'hy_stage' missing for 22 of 30 subjects, in groups HC, PD, SWEDD: "
            f"{', '.join(ids.split(', ')[:10])}, ...; a clinical covariate needs a value "
            "for every subject")

    def test_unknown_covariate_rejected(self):
        t = table([subject(f"s{i}", [1.0, 2.0]) for i in range(3)])
        with pytest.raises(ValidationError, match="unknown covariate"):
            residualize_covariate(t, "height")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("covariate", ["gender", "group", "age"])
    def test_records_match_the_constructor(self, tmp_path, seed, covariate):
        # Records built without the checks equal the checked ones, field by
        # field, the volumes' bytes and read-only flags included.
        path = tmp_path / "s.csv"
        path.write_text(subjects_csv_text(30, 6, seed=seed, groups=("PD", "HC", "SWEDD")))
        t = load_subjects_csv(path)
        got = residualize_covariate(t, covariate)
        want = residualize_covariate_constructor(t, covariate)
        assert got.region_labels == want.region_labels
        assert ([record_fields(s) for s in got.subjects]
                == [record_fields(s) for s in want.subjects])

    def test_overflowing_fit_is_reported_as_the_constructor_did(self):
        t = table([subject(f"s{i}", [1e308, 1e308 * (0.5 + i / 10), 3.0], gender="FM"[i % 2])
                   for i in range(4)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's overflow in the fit
            with pytest.raises(ValidationError) as want:
                residualize_covariate_constructor(t, "gender")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the program warns about nothing
            with pytest.raises(ValidationError) as got:
                residualize_covariate(t, "gender")
        assert str(got.value) == str(want.value) == "subject s0: non-finite volume value"


def three_checks(t):
    """The oracle's network of a table, with numpy's warnings off."""
    with np.errstate(all="ignore"):
        return pearson_network_three_checks(t.volume_matrix(), t.region_labels)


class TestGroupAssociation:
    def test_duplicate_region_correlates_perfectly(self):
        t = table(
            [subject("a", [1.0, 1.0, 9.0]), subject("b", [2.0, 2.0, 4.0]), subject("c", [5.0, 5.0, 7.0])]
        )
        assert group_association_matrix(t).weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_region_anticorrelates(self):
        t = table(
            [subject("a", [1.0, 9.0, 3.0]), subject("b", [2.0, 8.0, 1.0]), subject("c", [5.0, 5.0, 2.0])]
        )
        assert group_association_matrix(t).weights[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_example_against_brute_force(self):
        t = table([subject("a", [1.0, 2.0]), subject("b", [2.0, 2.0]), subject("c", [3.0, 5.0])])
        got = group_association_matrix(t).weights[0, 1]
        assert got == pytest.approx(pearson_brute([1, 2, 3], [2, 2, 5]), abs=1e-14)
        assert got == pytest.approx(np.sqrt(3) / 2, abs=1e-14)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(3)
        t = make_cohort("c", 9, 6, rng)
        w = group_association_matrix(t).weights
        m = t.volume_matrix()
        for i in range(6):
            for j in range(i + 1, 6):
                assert w[i, j] == pytest.approx(pearson_brute(m[:, i], m[:, j]), abs=1e-12)

    def test_same_floats_as_corrcoef(self):
        # The stack replays np.corrcoef's operations, so every matrix of it,
        # and the network, hold the bytes the earlier np.corrcoef path gave.
        rng = np.random.default_rng(6)
        shapes = ((3, 2, 1), (4, 90, 3), (25, 90, 4), (69, 56, 2), (9, 7, 5))
        for subjects, regions, count in shapes:
            volumes = rng.normal(600.0, 40.0, (count, subjects, regions))
            volumes[0] = np.round(volumes[0])  # ties between regions
            stack, var = _pearson_stack(volumes)
            # the same bytes through work arrays that hold earlier values
            out, centred = np.full(stack.shape, np.nan), np.full(volumes.shape, np.nan)
            again, again_var = _pearson_stack(volumes, out, centred)
            assert again is out
            assert again.tobytes() == stack.tobytes() and again_var.tobytes() == var.tobytes()
            for v, c, d in zip(volumes, stack, var):
                corr = np.corrcoef(v, rowvar=False)
                assert c.tobytes() == corr.tobytes()
                np.testing.assert_allclose(d, np.var(v, axis=0, ddof=1), rtol=1e-12)
                corr = (corr + corr.T) / 2.0
                np.fill_diagonal(corr, 0.0)
                network = _pearson_network(v, region_labels(regions))
                assert network.weights.tobytes() == corr.tobytes()

    def test_values_bounded_and_diagonal_zero(self):
        rng = np.random.default_rng(4)
        w = group_association_matrix(make_cohort("c", 20, 10, rng)).weights
        assert np.all(np.abs(w) <= 1.0)
        assert np.all(np.diagonal(w) == 0)

    def test_invariant_under_positive_affine_rescaling(self):
        rng = np.random.default_rng(5)
        t = make_cohort("c", 10, 5, rng)
        m = t.volume_matrix()
        scaled = m * rng.uniform(0.5, 3.0, 5) + rng.normal(0, 10, 5)
        t2 = table([subject(f"x{i}", scaled[i]) for i in range(10)], n_regions=5)
        assert np.allclose(
            group_association_matrix(t).weights, group_association_matrix(t2).weights, atol=1e-10
        )

    def test_zero_variance_region_flagged_by_name(self):
        t = table([subject("a", [1.0, 7.0]), subject("b", [2.0, 7.0]), subject("c", [3.0, 7.0])])
        for network in (group_association_matrix, three_checks):
            with pytest.raises(DegenerateDesignError, match="r2"):
                network(t)

    def test_too_few_subjects_rejected(self):
        t = table([subject("a", [1.0, 2.0]), subject("b", [2.0, 1.0])])
        for network in (group_association_matrix, three_checks):
            with pytest.raises(DegenerateDesignError):
                network(t)


def network_outcome(fn, volumes):
    """Weight bytes of a network, or the type and message of what was raised."""
    try:
        return fn(volumes, region_labels(volumes.shape[1])).weights.tobytes()
    except (DegenerateDesignError, ValidationError) as exc:
        return type(exc), str(exc)


def rejected_volume_matrices():
    """Volume matrices, one for each way the correlation checks reject."""
    rng = np.random.default_rng(21)
    cases = []
    v = rng.normal(600.0, 40.0, (3, 5))
    v[:, 2] = 0.1  # three times 0.1 has a mean other than 0.1: a positive variance
    assert np.var(v[:, 2]) > 0
    cases.append(pytest.param(v, id="zero span, positive variance"))
    v = rng.normal(600.0, 40.0, (6, 5))
    v[:, [1, 4]] = 7.0
    cases.append(pytest.param(v, id="zero span, variance 0, two regions"))
    v = rng.normal(size=(6, 5))
    v[:, 0] = 0.1
    v[:, 3] *= 1e200
    cases.append(pytest.param(v, id="zero span before an overflow"))
    for scale in (1e200, 1e-170):
        cases.append(pytest.param(rng.normal(size=(10, 5)) * scale, id=f"every region at {scale}"))
    v = rng.normal(size=(8, 4))
    v[[2, 5], 1] = 1.2e154
    cases.append(pytest.param(v, id="an overflowing region pair"))
    for scale in (1e200, 1e-170):
        for region in (0, 3):
            v = rng.normal(size=(10, 4))
            v[:, region] *= scale
            cases.append(pytest.param(v, id=f"NaN on the diagonal only, r{region + 1} at {scale}"))
    v = rng.normal(size=(10, 4))
    v[:, 3] *= 1e-160
    assert 0 < np.var(v[:, 3], ddof=1) < np.finfo(np.float64).tiny
    cases.append(pytest.param(v, id="a subnormal variance"))
    cases.append(pytest.param(rng.normal(size=(2, 4)), id="two subjects"))
    return cases


@pytest.mark.parametrize("volumes", rejected_volume_matrices())
def test_rejections_match_the_three_check_oracle(volumes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning comes before the error
        got = network_outcome(_pearson_network, volumes)
    with np.errstate(all="ignore"):
        expected = network_outcome(pearson_network_three_checks, volumes)
    assert isinstance(expected, tuple)
    assert got == expected


def test_networks_match_the_three_check_oracle():
    rng = np.random.default_rng(22)
    for subjects, regions in ((3, 2), (3, 9), (8, 30), (40, 90), (69, 56)):
        for volumes in (rng.normal(600.0, 40.0, (subjects, regions)),
                        rng.integers(0, 4, (subjects, regions)).astype(float)):
            volumes[:, -1] = volumes[:, 0]  # two regions correlate perfectly
            expected = network_outcome(pearson_network_three_checks, volumes)
            if isinstance(expected, tuple):
                continue  # a small integer draw left a region without spread
            assert network_outcome(_pearson_network, volumes) == expected


class TestAgeBinning:
    def test_default_edges_one_subject_per_cohort(self):
        ages = [30.0, 33.0, 43.0, 53.0, 63.0]
        t = table([subject(f"s{i}", [1.0, 2.0], age=a) for i, a in enumerate(ages)])
        cohorts = age_binning(t)
        assert [c.cohort_id for c in cohorts] == ["A", "B", "C", "D", "E"]
        assert all(len(c) == 1 for c in cohorts)

    @pytest.mark.parametrize("age,cohort", [(32.0, "A"), (42.0, "B"), (42.5, "C"), (62.01, "E")])
    def test_upper_closed_bin_membership(self, age, cohort):
        t = table([subject("s", [1.0, 2.0], age=age)])
        placed = [c.cohort_id for c in age_binning(t) if len(c)]
        assert placed == [cohort]

    def test_empty_table_gives_five_empty_cohorts(self):
        t = CohortTable("t", region_labels(2), ())
        cohorts = age_binning(t)
        assert len(cohorts) == 5 and all(len(c) == 0 for c in cohorts)

    def test_rejects_non_ascending_edges(self):
        t = CohortTable("t", region_labels(2), ())
        with pytest.raises(ValidationError):
            age_binning(t, (40, 30))

    @pytest.mark.parametrize("edges", [
        (), (float("nan"),), (32.0, float("inf")), (float("-inf"), 40.0), (30.0, float("nan"), 50.0),
    ])
    def test_rejects_empty_or_non_finite_edges(self, edges):
        t = table([subject("s", [1.0, 2.0], age=40.0)])
        with pytest.raises(ValidationError,
                           match="^bin edges must be non-empty, finite and strictly ascending$"):
            age_binning(t, edges)

    def test_at_most_25_edges(self):
        t = table([subject("s", [1.0, 2.0], age=40.0)])
        assert len(age_binning(t, range(1, 26))) == 26
        with pytest.raises(ValidationError, match="^at most 25 bin edges supported$"):
            age_binning(t, range(1, 27))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=100.0), max_size=12))
    def test_partition_property(self, ages):
        t = table([subject(f"s{i}", [1.0, 2.0], age=a) for i, a in enumerate(ages)]) \
            if ages else CohortTable("t", region_labels(2), ())
        cohorts = age_binning(t)
        ids = [s.id for c in cohorts for s in c.subjects]
        assert sorted(ids) == sorted(s.id for s in t.subjects)
        assert len(ids) == len(set(ids)) or len(ages) == 0


CSV_HEADER = "id,age,gender,group,updrs_off,updrs_on,hy_stage,age_at_onset,r1,r2,r3\n"


class TestSubjectsCsv:
    def test_combined_format_with_clinical(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            CSV_HEADER
            + "p1,54.5,M,PD,33.0,17.5,2,48.0,600.1,550.2,610.3\n"
            + "p2,61.0,F,HC,,,,,590.0,560.0,600.0\n"
        )
        t = load_subjects_csv(path)
        assert t.region_labels == ("r1", "r2", "r3")
        assert t.subjects[0].clinical["updrs_off"] == 33.0
        assert "updrs_off" not in t.subjects[1].clinical
        assert t.subjects[1].group == "HC"

    def test_combined_format_without_clinical(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,age,gender,group,r1,r2\np1,40,M,PD,1.5,2.5\n")
        t = load_subjects_csv(path)
        assert t.subjects[0].volumes.tolist() == [1.5, 2.5]

    def test_reserved_column_after_regions_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,age,gender,group,r1,r2,updrs_off\np1,40,M,PD,1,2,3\n")
        with pytest.raises(ValidationError, match="updrs_off"):
            load_subjects_csv(path)

    def test_wrong_header_start_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("subject,age,gender,group,r1,r2\np1,40,M,PD,1,2\n")
        with pytest.raises(ValidationError, match="header must start"):
            load_subjects_csv(path)

    def test_bad_rows_all_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "id,age,gender,group,r1,r2\n"
            "p1,forty,M,PD,1,2\n"
            "p2,41,F,HC,1,nan\n"
            "p3,42,F,HC,1,2\n"
        )
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(path)
        assert "row 2" in str(err.value) and "row 3" in str(err.value)

    def test_demographics_join(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1.0,2.0\np2,3.0,4.0\n")
        demo.write_text("id,age,gender,group,updrs_off\np2,50,F,HC,\np1,40,M,PD,31.5\n")
        t = load_subjects_csv(vols, demo)
        assert t.subjects[0].id == "p1" and t.subjects[0].group == "PD"
        assert t.subjects[0].clinical == {"updrs_off": 31.5}
        assert t.subjects[1].age == 50.0

    def test_demographics_missing_subject_rejected(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1.0,2.0\n")
        demo.write_text("id,age,gender,group\np9,50,F,HC\n")
        with pytest.raises(ValidationError, match="p1"):
            load_subjects_csv(vols, demo)

    def test_demographics_with_combined_input_rejected(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,age,gender,group,r1,r2\np1,40,M,PD,1,2\n")
        demo.write_text("id,age,gender,group\np1,40,M,PD\n")
        with pytest.raises(ValidationError, match="only"):
            load_subjects_csv(vols, demo)

    def test_unknown_demographics_column_rejected(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1.0,2.0\n")
        demo.write_text("id,age,gender,group,shoe_size\np1,40,M,PD,43\n")
        with pytest.raises(ValidationError, match="shoe_size"):
            load_subjects_csv(vols, demo)


    def test_empty_subject_id_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,age,gender,group,r1,r2\np1,40,M,PD,1,2\n ,41,F,HC,1,2\n")
        with pytest.raises(ValidationError, match=r"s\.csv: row 3: empty subject id"):
            load_subjects_csv(path)

    def test_demographics_missing_subject_names_file_and_row(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np9,1.0,2.0\np1,1.0,2.0\n")
        demo.write_text("id,age,gender,group\np9,50,F,HC\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(vols, demo)
        assert f"{vols}: row 3: subject 'p1' missing from demographics file" in str(err.value)

    def test_duplicate_demographics_id_after_a_bad_row_rejected(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1.0,2.0\n")
        demo.write_text("id,age,gender,group\np1,x,F,HC\np1,40,F,HC\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(vols, demo)
        assert str(err.value) == ("invalid demographics rows:\n"
                                  f"  {demo}: row 2 (p1): invalid age 'x'\n"
                                  f"  {demo}: row 3: duplicate subject id 'p1'")

    def test_duplicate_demographics_id_rejected(self, tmp_path):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1.0,2.0\n")
        demo.write_text("id,age,gender,group\np1,50,F,HC\np1,51,F,HC\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(vols, demo)
        assert f"{demo}: row 3: duplicate subject id 'p1'" in str(err.value)

    @pytest.mark.parametrize("two_file", [False, True])
    def test_repeated_subject_id_rejected_after_the_last_row(self, tmp_path, two_file):
        path = tmp_path / "s.csv"
        demo = None
        if two_file:
            demo = tmp_path / "d.csv"
            path.write_text("id,r1,r2\ns1,1,2\ns1,3,4\ns2,5,6\ns3,x,8\n")
            demo.write_text("id,age,gender,group\ns1,40,M,PD\ns2,41,F,HC\ns3,42,F,HC\n")
        else:
            path.write_text("id,age,gender,group,r1,r2\ns1,40,M,PD,1,2\ns1,40,M,PD,3,4\n"
                            "s2,41,F,HC,5,6\ns3,42,F,HC,x,8\n")
        regions, subjects = stream_subjects_csv(path, demo)
        assert next(subjects).id == "s1" and next(subjects).id == "s2"
        with pytest.raises(ValidationError) as err:
            next(subjects)
        assert str(err.value) == ("invalid subject rows:\n"
                                  f"  {path}: row 3: duplicate subject id 's1'\n"
                                  f"  {path}: row 5 (s3): invalid volume 'x'")

    def test_byte_order_mark_accepted(self, tmp_path):
        text = subjects_csv_text(6, 5, seed=8)
        volumes, demographics = split_subject_rows([r.split(",") for r in text.splitlines()])
        for name, content in (("s", text), ("v", csv_text(volumes)),
                              ("d", csv_text(demographics))):
            (tmp_path / f"{name}.csv").write_text(content, encoding="utf-8")
            (tmp_path / f"{name}-bom.csv").write_text(content, encoding="utf-8-sig")
        assert (tmp_path / "s-bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        want = table_fields(load_subjects_csv(tmp_path / "s.csv"))
        assert table_fields(load_subjects_csv(tmp_path / "s-bom.csv")) == want
        assert table_fields(load_subjects_csv(tmp_path / "v-bom.csv",
                                              tmp_path / "d-bom.csv")) == want

    @pytest.mark.parametrize("column", ["age", "gender", "group"])
    def test_demographics_column_required(self, tmp_path, column):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1.0,2.0\n")
        header = [c for c in ("id", "age", "gender", "group") if c != column]
        demo.write_text(",".join(header) + "\n" + ",".join(["p1", "50", "F"]) + "\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(vols, demo)
        assert str(err.value) == f"{demo}: demographics file must contain {column!r}"

    def test_duplicate_region_column_names_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,age,gender,group,r1,r2,r1\np1,40,M,PD,1,2,3\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(path)
        assert str(err.value) == f"{path}: duplicate region column"

    @pytest.mark.parametrize("header", ["id,r1", "id"])
    def test_volumes_only_region_count_reported(self, tmp_path, header):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text(header + "\n")
        demo.write_text("id,age,gender,group\np1,40,M,PD\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(vols, demo)
        got = header.count(",")
        assert str(err.value) == f"{vols}: need at least 2 region columns, got {got}"


def load_outcome(loader, tmp_path, subjects_text, demographics_text):
    """The table fields a loader returns, or the type and message it raises."""
    path = tmp_path / "subjects.csv"
    path.write_text(subjects_text)
    demo = None
    if demographics_text is not None:
        demo = tmp_path / "demographics.csv"
        demo.write_text(demographics_text)
    try:
        return table_fields(loader(path, demo))
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


COMBINED = "id,age,gender,group,updrs_off,updrs_on,hy_stage,age_at_onset,r1,r2,r3\n"
VOLUMES = "id,r1,r2,r3\n"
DEMOGRAPHICS = "id,age,gender,group,updrs_off,updrs_on,hy_stage,age_at_onset\n"

# (subjects file, demographics file or None) for both layouts.
LOADER_CORPUS = {
    "one-file": (COMBINED + "p1,54.5,M,PD,33.0,17.5,2,48.0,600.1,550.2,610.3\n"
                 "p2,61.0,F,HC,,,,,590.0,560.0,600.0\n", None),
    "one-file no clinical": ("id,age,gender,group,r1,r2\np1,40,M,PD,1.5,2.5\n", None),
    "one-file clinical reordered": ("id,age,gender,group,hy_stage,age_at_onset,updrs_off,r1,r2\n"
                                    "p1,40,M,PD,2,31,12.5,1,2\np2,50,F,HC,, 33 ,,3,4\n", None),
    "one-file padded cells": (" id , age ,gender, group ,r1, r2 \n p1 , 40 , M , PD , 1 , 2 \n",
                              None),
    "one-file header only": ("id,age,gender,group,r1,r2\n", None),
    "one-file duplicate rows": ("id,age,gender,group,r1,r2\np1,40,M,PD,1,2\np1,40,M,PD,1,2\n",
                                None),
    "one-file bad ages": ("id,age,gender,group,r1,r2\np1,forty,M,PD,1,2\np2,nan,F,HC,1,2\n"
                          "p3,inf,F,HC,1,2\np4,-3,F,HC,1,2\np5,0,F,HC,1,2\np6,,F,HC,1,2\n",
                          None),
    "one-file bad clinical": (COMBINED + "p1,40,M,PD,x,inf,2,30,1,2,3\n"
                              "p2,40,M,PD,1,-inf,2,30,1,2,3\np3,40,M,PD,1,2,3,1e400,1,2,3\n",
                              None),
    "one-file bad volumes": ("id,age,gender,group,r1,r2,r3\np1,40,M,PD,abc,nan,3\n"
                             "p2,40,M,PD,1,-inf,\np3,forty,M,PD,x,2,3\n", None),
    "one-file cell counts": ("id,age,gender,group,r1,r2\np1,40,M,PD,1\np2,40,M,PD,1,2,3\n"
                             "p3,40,M,PD,1,2\n", None),
    "one-file empty ids": ("id,age,gender,group,r1,r2\n,40,M,PD,1,2\n  ,41,F,HC,1,2\n", None),
    "one-file empty file": ("", None),
    "one-file blank lines": ("\n\n", None),
    "one-file blank lines between rows": ("\nid,age,gender,group,r1,r2\n\np1,40,M,PD,1,2\n\n\n"
                                          "p2,41,F,HC,3,4\n\np3,42,F,HC,5,6\n\n", None),
    "one-file blank lines around bad rows": ("id,age,gender,group,r1,r2\n\np1,40,M,PD,1,x\n\n"
                                             "p2,41,F,HC,3,4\n\n\np3,42,F,HC\n", None),
    "one-file wrong start": ("subject,age,gender,group,r1,r2\np1,40,M,PD,1,2\n", None),
    "one-file short header": ("id,age\n", None),
    "one-file reserved after regions": ("id,age,gender,group,r1,r2,age\np1,40,M,PD,1,2,3\n",
                                        None),
    "one-file clinical after regions": ("id,age,gender,group,r1,updrs_on,r2\np1,40,M,PD,1,2,3\n",
                                        None),
    "one-file duplicate clinical": ("id,age,gender,group,hy_stage,hy_stage,r1,r2\n", None),
    "one-file one region": ("id,age,gender,group,updrs_off,r1\np1,40,M,PD,1,2\n", None),
    "one-file no regions": ("id,age,gender,group\np1,40,M,PD\n", None),
    "one-file empty region label": ("id,age,gender,group,r1,,r3\np1,40,M,PD,1,2,3\n", None),
    "one-file duplicate region": ("id,age,gender,group,r1,r2,r1\np1,40,M,PD,1,2,3\n", None),
    "two-file": ("id,r1,r2\np1,1.0,2.0\np2,3.0,4.0\n",
                 "id,age,gender,group,updrs_off\np2,50,F,HC,\np1,40,M,PD,31.5\n"),
    "two-file clinical in any order": (
        VOLUMES + "p1,1,2,3\np2,4,5,6\n",
        "id,age_at_onset,group,updrs_on,gender,hy_stage,age,updrs_off\n"
        "p2,45,HC,12,F,1,50,30\np1,,PD,9,M,2,40,\n"),
    "two-file extra and duplicate rows": (VOLUMES + "p1,1,2,3\np1,1,2,3\n",
                                          DEMOGRAPHICS + "p9,60,F,HC,,,,\np1,40,M,PD,1,2,3,30\n"),
    "two-file missing ids": (VOLUMES + "p1,1,2,3\np2,1,2,3\np3,1,2,3\n",
                             DEMOGRAPHICS + "p2,60,F,HC,,,,\n"),
    "two-file duplicate demographics ids": (VOLUMES + "p1,1,2,3\n",
                                            DEMOGRAPHICS + "p1,60,F,HC,,,,\np1,60,F,HC,,,,\n"
                                            "p2,61,F,HC,,,,\np2,x,F,HC,,,,\n"),
    "two-file bad demographics cells": (VOLUMES + "p1,1,2,3\n",
                                        DEMOGRAPHICS + "p1,forty,M,PD,,,,\np2,inf,M,PD,,,,\n"
                                        "p3,40,M,PD,x,nan,,\np4,40,M,PD,1,2,3\n,40,M,PD,,,,\n"
                                        "p5,40,M,PD,1,nan,,\n"),
    "two-file duplicate after a bad demographics row": (
        VOLUMES + "p1,1,2,3\n", DEMOGRAPHICS + "p1,x,F,HC,,,,\np1,40,F,HC,,,,\n"),
    "two-file negative ages": (VOLUMES + "p1,1,2,3\np2,1,2,3\np1,1,2,3\n",
                               DEMOGRAPHICS + "p1,-3,M,PD,,,,\np2,0,F,HC,,,,\np3,-1,F,HC,,,,\n"),
    "two-file unused negative age": (VOLUMES + "p1,1,2,3\n",
                                     DEMOGRAPHICS + "p1,30,M,PD,,,,\np3,-1,F,HC,,,,\n"),
    "two-file bad subject rows": (VOLUMES + "p1,1,2\n,1,2,3\np2,1,x,nan\np3,1,2,3,4\n",
                                  DEMOGRAPHICS + "p1,30,M,PD,,,,\np2,30,M,PD,,,,\n"),
    "two-file blank lines between rows": ("\n" + VOLUMES + "\np1,1,2,3\n\n\np2,4,5,6\n\n",
                                          DEMOGRAPHICS + "\n\np2,50,F,HC,,,,\n\np1,40,M,PD,,,,\n"),
    "two-file blank lines around bad rows": (VOLUMES + "\n\np1,1,2,x\n\np2,4,5,6\n",
                                             "\n" + DEMOGRAPHICS + "p1,40,M,PD,,,,\n\n\n"
                                             "p2,x,F,HC,,,,\n"),
    "two-file empty volumes file": ("", DEMOGRAPHICS),
    "two-file combined input": ("id,age,gender,group,r1,r2\np1,40,M,PD,1,2\n",
                                "id,age,gender,group\np1,40,M,PD\n"),
    "two-file reserved volume column": ("id,r1,updrs_off,r2\n", DEMOGRAPHICS),
    "two-file volumes not starting with id": ("subject,r1,r2\n", DEMOGRAPHICS),
    "two-file duplicate region": ("id,r1,r2,r1\np1,1,2,3\n", DEMOGRAPHICS + "p1,30,M,PD,,,,\n"),
    "two-file one region": ("id,r1\np1,1\n", DEMOGRAPHICS),
    "two-file no regions": ("id\np1\n", DEMOGRAPHICS),
    "two-file empty demographics": (VOLUMES, ""),
    "two-file demographics without id": (VOLUMES, "age,id,gender,group\n"),
    "two-file unknown demographics column": (VOLUMES, "id,age,gender,group,shoe_size\n"),
    "two-file demographics without age": (VOLUMES, "id,gender,group\n"),
    "two-file demographics without group": (VOLUMES, "id,age,gender\n"),
    "two-file repeated demographics column": (VOLUMES + "p1,1,2,3\n",
                                              "id,age,gender,group,age\np1,30,M,PD,x\n"),
}

# The region-column check names the file in both layouts, gives the count in
# both and rejects an empty label at the header; these messages differ from the
# earlier loader's on purpose.
CHANGED_MESSAGES = {
    "one-file duplicate region": "{path}: duplicate region column",
    "one-file empty region label": "{path}: empty region column label",
    "two-file one region": "{path}: need at least 2 region columns, got 1",
    "two-file no regions": "{path}: need at least 2 region columns, got 0",
}


class TestLoaderMatchesOracle:
    """The one-loop loader against the earlier two-loop loader in oracles.py."""

    @pytest.mark.parametrize("case", sorted(LOADER_CORPUS))
    def test_corpus_case(self, tmp_path, case):
        subjects_text, demographics_text = LOADER_CORPUS[case]
        got = load_outcome(load_subjects_csv, tmp_path, subjects_text, demographics_text)
        want = load_outcome(load_subjects_csv_two_loops, tmp_path, subjects_text,
                            demographics_text)
        if case in CHANGED_MESSAGES:
            assert want[0] is ValidationError and want != got
            message = CHANGED_MESSAGES[case].format(path=tmp_path / "subjects.csv")
            assert got == (ValidationError, message)
        else:
            assert got == want
        assert got == load_outcome(load_subjects_csv_cellwise, tmp_path, subjects_text,
                                   demographics_text)
        assert got == load_outcome(load_subjects_csv_lists, tmp_path, subjects_text,
                                   demographics_text)

    @pytest.mark.parametrize("case", sorted(LOADER_CORPUS))
    def test_streamed_errors_come_before_the_first_row_or_after_the_last(self, tmp_path, case):
        want = load_outcome(load_subjects_csv, tmp_path, *LOADER_CORPUS[case])
        path = tmp_path / "subjects.csv"
        demo = tmp_path / "demographics.csv" if LOADER_CORPUS[case][1] is not None else None
        try:
            regions, subjects = stream_subjects_csv(path, demo)
        except ValidationError as exc:
            assert not str(exc).startswith("invalid subject rows")
            assert want == (ValidationError, str(exc))
            return
        yielded = []
        with pytest.raises(ValidationError) if want[0] is ValidationError else nullcontext():
            yielded.extend(subjects)
        assert subjects.gi_frame is None  # finished, so its file is closed
        if want[0] is ValidationError:
            assert want[1].startswith("invalid subject rows")
        else:
            assert table_fields(CohortTable("all", regions, tuple(yielded))) == want

    def test_corpus_cases_that_load(self, tmp_path):
        loaded = {case for case in LOADER_CORPUS
                  if load_outcome(load_subjects_csv, tmp_path, *LOADER_CORPUS[case])[0] == "all"}
        assert loaded == {
            "one-file", "one-file no clinical", "one-file clinical reordered",
            "one-file padded cells", "one-file header only",
            "one-file blank lines between rows", "two-file blank lines between rows",
            "two-file", "two-file clinical in any order",
            "two-file unused negative age", "two-file repeated demographics column",
        }

    @pytest.mark.parametrize("seed", range(60))
    def test_mutated_synth_tables(self, tmp_path, seed):
        rng = np.random.default_rng([77, seed])
        rows = [r.split(",") for r in subjects_csv_text(
            5, 3, seed=seed, clinical=bool(seed % 2)).splitlines()]
        if seed % 4 < 2:
            files = [rows]
        else:
            files = list(split_subject_rows(rows))
        for _ in range(int(rng.integers(0, 4))):
            mutate(files[int(rng.integers(len(files)))], rng)
        texts = [csv_text(f) for f in files] + [None]
        got = load_outcome(load_subjects_csv, tmp_path, texts[0], texts[1])
        want = load_outcome(load_subjects_csv_two_loops, tmp_path, texts[0], texts[1])
        assert got == want
        assert got == load_outcome(load_subjects_csv_cellwise, tmp_path, texts[0], texts[1])
        assert got == load_outcome(load_subjects_csv_lists, tmp_path, texts[0], texts[1])


# Cells on which numpy's conversion and ``float`` could part: whitespace,
# underscores, spelled-out infinities and NaNs, non-ASCII digits, underflow and
# overflow, and text that neither accepts.
ODD_CELLS = (" 1.5 ", "1_000", "Infinity", "-nan", "\u0661\u0662\u0663", "\uff11\uff12",
             "1e-400", "1e400", "-0", "+.5e1", "5.", "\u20071", "1__0", "_1", "0x10", "1,5",
             "True", "", " ", "\t2\t", "nan(1)", "infinit", "1e", "\u0661.\u0662")
CELL_TEXT = st.text(alphabet="0123456789.eE+-_ nNaAiIfFtTyY\t\u0661\u0662\uff11\u2007",
                    max_size=8)
CELLS = st.one_of(st.sampled_from(ODD_CELLS), CELL_TEXT,
                  st.floats().map(repr), st.floats(width=32).map(str))


class TestRowConversionMatchesCellwiseLoader:
    """Volume cells through numpy a row at a time against ``float`` cell by cell."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=4),
           st.booleans())
    def test_equal_tables_or_equal_errors(self, rows, two_file):
        if two_file:
            header, demographics = ["id"], "id,age,gender,group\n" + "".join(
                f"s{i},40,M,PD\n" for i in range(len(rows)))
        else:
            header, demographics = ["id", "age", "gender", "group"], None
        body = [header + ["r1", "r2", "r3"]]
        body += [[f"s{i}"] + ["40", "M", "PD"][:len(header) - 1] + cells
                 for i, cells in enumerate(rows)]
        with tempfile.TemporaryDirectory() as where:
            got = load_outcome(load_subjects_csv, Path(where), csv_text(body), demographics)
            want = load_outcome(load_subjects_csv_cellwise, Path(where), csv_text(body),
                                demographics)
        assert got == want

    def test_odd_cells_reach_both_outcomes(self, tmp_path):
        loaded = set()
        for cell in ODD_CELLS:
            text = csv_text([["id", "age", "gender", "group", "r1", "r2"],
                             ["s1", "40", "M", "PD", cell, "2"]])
            got = load_outcome(load_subjects_csv, tmp_path, text, None)
            assert got == load_outcome(load_subjects_csv_cellwise, tmp_path, text, None)
            if got[0] == "all":
                loaded.add(cell)
        assert {" 1.5 ", "1_000", "\u0661\u0662\u0663", "\uff11\uff12", "1e-400"} <= loaded
        assert not {"Infinity", "-nan", "1e400", "0x10", "", "True"} & loaded


MUTANT_CELLS = ("", " ", "x", "nan", "inf", "-1", "0", "1e400", " 7 ")


def mutate(rows, rng):
    """Apply one random edit to the body of a CSV held as a list of rows."""
    r = 1 + int(rng.integers(len(rows) - 1))
    row = rows[r]
    kind = int(rng.integers(8))
    if kind < 4:
        row[int(rng.integers(len(row)))] = MUTANT_CELLS[int(rng.integers(len(MUTANT_CELLS)))]
    elif kind == 4:
        row.pop()
    elif kind == 5:
        row.append("1")
    elif kind == 6:
        rows.insert(r, list(row))
    else:
        row[0] = rows[1 + int(rng.integers(len(rows) - 1))][0]


def record_fields(s):
    """Everything a record holds, with the types and array flags of its fields."""
    v = s.volumes
    return (type(s), s.id, type(s.age), s.age, s.gender, s.group,
            type(s.clinical), [(k, type(x), x) for k, x in s.clinical.items()],
            v.dtype, v.shape, v.flags.writeable, v.flags.c_contiguous, v.tobytes())


class TestLoadedRecordsMatchTheConstructor:
    """The loader builds each record without the constructor's checks; the
    records equal what the constructor builds from the same fields."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("two_file", [False, True])
    def test_synth_tables(self, tmp_path, seed, two_file):
        rows = [r.split(",") for r in subjects_csv_text(
            12, 5, seed=seed, groups=("PD", "HC", "SWEDD"), clinical=bool(seed % 2)).splitlines()]
        path, demo = tmp_path / "s.csv", None
        if two_file:
            volumes, demographics = split_subject_rows(rows)
            demo = tmp_path / "d.csv"
            path.write_text(csv_text(volumes))
            demo.write_text(csv_text(demographics))
        else:
            path.write_text(csv_text(rows))
        loaded = load_subjects_csv(path, demo)
        assert len(loaded) == 12
        rebuilt = [SubjectRecord(s.id, s.age, s.gender, s.group, s.volumes, dict(s.clinical))
                   for s in loaded.subjects]
        oracle = load_subjects_csv_lists(path, demo)
        assert ([record_fields(s) for s in loaded.subjects]
                == [record_fields(s) for s in rebuilt]
                == [record_fields(s) for s in oracle.subjects])

    @pytest.mark.parametrize("case", sorted(LOADER_CORPUS))
    def test_corpus_cases(self, tmp_path, case):
        got = load_outcome(load_subjects_csv, tmp_path, *LOADER_CORPUS[case])
        if got[0] == "all":
            path = tmp_path / "subjects.csv"
            demo = tmp_path / "demographics.csv" if LOADER_CORPUS[case][1] is not None else None
            loaded = load_subjects_csv(path, demo).subjects
            assert ([record_fields(s) for s in loaded]
                    == [record_fields(s) for s in load_subjects_csv_lists(path, demo).subjects])

    @pytest.mark.parametrize("two_file", [False, True])
    def test_age_at_or_below_zero_message(self, tmp_path, two_file):
        path = tmp_path / "s.csv"
        demo = None
        if two_file:
            demo = tmp_path / "d.csv"
            path.write_text("id,r1,r2\np1,1,2\np2,3,4\np3,5,x\n")
            demo.write_text("id,age,gender,group\np1,-3,M,PD\np2,0,F,HC\np3,0,F,HC\n")
        else:
            path.write_text("id,age,gender,group,r1,r2\np1,-3,M,PD,1,2\np2,0,F,HC,3,4\n"
                            "p3,0,F,HC,5,x\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(path, demo)
        assert str(err.value) == (
            "invalid subject rows:\n"
            f"  {path}: row 2: subject p1: age must be a positive number, got -3.0\n"
            f"  {path}: row 3: subject p2: age must be a positive number, got 0.0\n"
            f"  {path}: row 4 (p3): invalid volume 'x'")
        with pytest.raises(ValidationError) as want:
            load_subjects_csv_lists(path, demo)
        assert str(want.value) == str(err.value)

    def test_no_record_shares_a_clinical_dict_with_the_demographics(self, tmp_path,
                                                                    monkeypatch):
        vols, demo = tmp_path / "v.csv", tmp_path / "d.csv"
        vols.write_text("id,r1,r2\np1,1,2\n")
        demo.write_text("id,age,gender,group,updrs_off\np1,40,M,PD,31.5\n")
        parsed = []
        load = subjects_module._load_demographics
        monkeypatch.setattr(subjects_module, "_load_demographics",
                            lambda p: parsed.append(load(p)) or parsed[0])
        record, = load_subjects_csv(vols, demo).subjects
        parsed[0]["p1"][3]["updrs_off"] = 0.0
        assert record.clinical == {"updrs_off": 31.5}
        with pytest.raises(TypeError):
            record.clinical["updrs_off"] = 0.0
        with pytest.raises(ValueError):
            record.volumes[0] = 9.0


class TestRecordValidation:
    def test_volume_length_must_match_labels(self):
        with pytest.raises(ValidationError):
            CohortTable("t", region_labels(3), (subject("a", [1.0, 2.0]),))

    @pytest.mark.parametrize("labels,message", [
        (("a",), "a cohort needs at least 2 region labels"),
        (("a", "b", "a"), "region labels must be unique"),
        (("a", ""), "region labels must be non-empty"),
        (("", "b", "c"), "region labels must be non-empty"),
    ])
    def test_region_labels_checked(self, labels, message):
        with pytest.raises(ValidationError, match=message):
            CohortTable("A", labels, ())

    def test_empty_region_column_rejected_at_load(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,age,gender,group,r1,,r3\np1,40,M,PD,1.0,2.0,3.0\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(path)
        assert str(err.value) == f"{path}: empty region column label"

    @pytest.mark.parametrize("header", ["id,r1, ,r3", "id,,r2", "id,r1,"])
    def test_volumes_only_empty_region_column_names_file(self, tmp_path, header):
        vols = tmp_path / "v.csv"
        demo = tmp_path / "d.csv"
        vols.write_text(header + "\np1,1,2,3\nbad row\n")
        demo.write_text("id,age,gender,group\np1,40,M,PD\n")
        with pytest.raises(ValidationError) as err:
            load_subjects_csv(vols, demo)
        assert str(err.value) == f"{vols}: empty region column label"

    def test_age_must_be_positive(self):
        with pytest.raises(ValidationError):
            subject("a", [1.0, 2.0], age=-4.0)

    def test_volumes_are_frozen(self):
        s = subject("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            s.volumes[0] = 9.0
