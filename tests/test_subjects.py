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
from oracles import pearson_brute
from synth import make_cohort, region_labels


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

    def test_missing_clinical_covariate_names_subjects(self):
        t = table([subject(f"s{i}", [1.0, 2.0], clinical={"updrs_off": 30.0} if i else None)
                   for i in range(3)])
        with pytest.raises(ValidationError, match="s0"):
            residualize_covariate(t, "updrs_off")

    def test_unknown_covariate_rejected(self):
        t = table([subject(f"s{i}", [1.0, 2.0]) for i in range(3)])
        with pytest.raises(ValidationError, match="unknown covariate"):
            residualize_covariate(t, "height")


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
        with pytest.raises(DegenerateDesignError, match="r2"):
            group_association_matrix(t)

    def test_too_few_subjects_rejected(self):
        t = table([subject("a", [1.0, 2.0]), subject("b", [2.0, 1.0])])
        with pytest.raises(DegenerateDesignError):
            group_association_matrix(t)


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
        with pytest.raises(ValidationError, match="region labels must be non-empty"):
            load_subjects_csv(path)

    def test_age_must_be_positive(self):
        with pytest.raises(ValidationError):
            subject("a", [1.0, 2.0], age=-4.0)

    def test_volumes_are_frozen(self):
        s = subject("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            s.volumes[0] = 9.0
