"""Counts, seeds, kept fractions and threshold spellings, at every entry point.

Each rule is checked by one helper (``errors._check_count``,
``errors._check_fraction``, ``cli.parse_threshold_spec``), so a bad value gets
the same error type, ``ValidationError``, which is also a ``ValueError``,
whichever function it reaches. A value is rejected before the work it would
feed: each case names the functions that must not run first, and replaces
them with one that fails. Where two values are bad, the first check of the
entry point reports its own.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from ubnin import (
    CohortTable,
    RunConfig,
    ValidationError,
    codec,
    complete_graph_code,
    consistency_threshold,
    graphs,
    load_subjects_csv,
    metrics,
    metrics_report,
    one_way_anova,
    permutation_test,
    pipeline,
    random_reference,
    run_fingerprint,
    small_world_index,
    stats,
    sweep_values,
    target_edge_count,
)
from ubnin.cli import parse_threshold_spec
from synth import make_null_pair, path_graph, random_weighted, ring_lattice, subjects_csv_text

NAN = float("nan")
RING = ring_lattice(10, 4)
COHORTS = make_null_pair(10, n_subjects=4, n_regions=8)
STACK = [random_weighted(6, np.random.default_rng(k)) for k in range(3)]

# What a call may not reach before its arguments are checked.
MEASURE = [(metrics, "nodal_clustering")]
DRAW = [(np.random, "default_rng")]
EDGES = [(metrics, "edge_count")] + DRAW
POOL = [(CohortTable, "volume_matrix"), (stats, "_block_statistic")]
RANK = [(graphs, "_keep_strongest")]
SWEEP = [(pipeline, "sweep_values")]  # RunConfig's last check


def config(**fields):
    return RunConfig(input="in.csv", out_dir="out", **fields)


def reports(n_rand=2, seed=0, swaps=10):
    return metrics._reports([RING, RING], n_rand, seed, swaps)


def rewire(swaps, networks=(RING, RING)):
    return metrics._rewire(list(networks), 0, swaps)


def permute(levels=(0.5,), iterations=5, seed=0):
    return permutation_test(*COHORTS, levels, iterations=iterations, seed=seed)


# (call, message, what it may not reach first)
REJECTED = {
    "config-fraction-0": (lambda: config(threshold_fraction=0.0),
                          "threshold fraction must lie in (0, 1], got 0.0", SWEEP),
    "config-fraction-1.5": (lambda: config(threshold_fraction=1.5),
                            "threshold fraction must lie in (0, 1], got 1.5", SWEEP),
    "config-fraction-nan": (lambda: config(threshold_fraction=NAN),
                            "threshold fraction must lie in (0, 1], got nan", SWEEP),
    "config-iterations-float": (lambda: config(iterations=2.5),
                                "iterations must be an integer, got 2.5", SWEEP),
    "config-iterations-bool": (lambda: config(iterations=True),
                               "iterations must be an integer, got True", SWEEP),
    "config-iterations-0": (lambda: config(iterations=0), "iterations must be >= 1", SWEEP),
    "config-seed-str": (lambda: config(seed="3"), "seed must be an integer, got '3'", SWEEP),
    "config-seed-numpy": (lambda: config(seed=np.int64(3)),
                          "seed must be an integer, got np.int64(3)", SWEEP),
    "config-seed-negative": (lambda: config(seed=-1), "seed must be nonnegative", SWEEP),
    "config-n-rand-bool": (lambda: config(n_rand=False),
                           "n_rand must be an integer, got False", SWEEP),
    "config-n-rand-negative": (lambda: config(n_rand=-1), "n_rand must be nonnegative", SWEEP),
    "config-swaps-float": (lambda: config(swaps_per_edge=1.5),
                           "swaps_per_edge must be an integer, got 1.5", SWEEP),
    "config-swaps-negative": (lambda: config(swaps_per_edge=-1),
                              "swaps_per_edge must be nonnegative", SWEEP),
    "config-fraction-before-counts": (lambda: config(threshold_fraction=2.0, iterations=0),
                                      "threshold fraction must lie in (0, 1], got 2.0", SWEEP),
    "config-counts-before-anova": (lambda: config(seed=-1, anova_fields=("bogus",)),
                                   "seed must be nonnegative", SWEEP),
    "reports-n-rand-str": (lambda: reports(n_rand="2"),
                           "n_rand must be an integer, got '2'", MEASURE),
    "reports-n-rand-negative": (lambda: reports(n_rand=-1), "n_rand must be nonnegative",
                                MEASURE),
    "reports-seed-float": (lambda: reports(seed=1.5), "seed must be an integer, got 1.5",
                           MEASURE),
    "reports-seed-none-without-references": (lambda: reports(n_rand=0, seed=None),
                                             "seed must be an integer, got None", MEASURE),
    # The seed's bound and the swaps are checked once a network has references to draw.
    "reports-seed-negative": (lambda: reports(seed=-1), "seed must be nonnegative", DRAW),
    "reports-swaps-str": (lambda: reports(swaps="10"),
                          "swaps_per_edge must be an integer, got '10'", DRAW),
    "reports-swaps-negative": (lambda: reports(swaps=-1), "swaps_per_edge must be nonnegative",
                               DRAW),
    "metrics-report-n-rand-float": (lambda: metrics_report(RING, n_rand=1.5),
                                    "n_rand must be an integer, got 1.5", MEASURE),
    "small-world-n-rand-0": (lambda: small_world_index(RING, n_rand=0),
                             "n_rand must be >= 1", MEASURE),
    "small-world-n-rand-bool": (lambda: small_world_index(RING, n_rand=True),
                                "n_rand must be an integer, got True", MEASURE),
    "small-world-seed-negative": (lambda: small_world_index(RING, seed=-1),
                                  "seed must be nonnegative", MEASURE),
    "small-world-seed-float": (lambda: small_world_index(RING, seed=0.5),
                               "seed must be an integer, got 0.5", MEASURE),
    "small-world-n-rand-before-seed": (lambda: small_world_index(RING, n_rand=0, seed=-1),
                                       "n_rand must be >= 1", MEASURE),
    "small-world-swaps-negative": (lambda: small_world_index(RING, n_rand=1, swaps_per_edge=-1),
                                   "swaps_per_edge must be nonnegative", DRAW),
    "rewire-swaps-float": (lambda: rewire(1.5), "swaps_per_edge must be an integer, got 1.5",
                           EDGES),
    "rewire-swaps-none": (lambda: rewire(None), "swaps_per_edge must be an integer, got None",
                          EDGES),
    "rewire-swaps-negative": (lambda: rewire(-1), "swaps_per_edge must be nonnegative", DRAW),
    "rewire-edges-before-swaps-bound": (lambda: rewire(-1, [path_graph(2)] * 2),
                                        "rewiring needs at least 2 edges, got 1", DRAW),
    "random-reference-swaps-bool": (lambda: random_reference(RING, 0, swaps_per_edge=True),
                                    "swaps_per_edge must be an integer, got True", EDGES),
    "random-reference-swaps-negative": (lambda: random_reference(RING, 0, swaps_per_edge=-2),
                                        "swaps_per_edge must be nonnegative", DRAW),
    "permutation-no-levels": (lambda: permute(levels=()),
                              "permutation test needs at least one sparsity level", POOL),
    "permutation-level-0": (lambda: permute(levels=(0.5, 0.0)),
                            "keep fraction must lie in (0, 1], got 0.0", POOL),
    "permutation-level-above-1": (lambda: permute(levels=(1.2,)),
                                  "keep fraction must lie in (0, 1], got 1.2", POOL),
    "permutation-level-nan": (lambda: permute(levels=(NAN,)),
                              "keep fraction must lie in (0, 1], got nan", POOL),
    "permutation-iterations-str": (lambda: permute(iterations="5"),
                                   "iterations must be an integer, got '5'", POOL),
    "permutation-iterations-0": (lambda: permute(iterations=0), "iterations must be >= 1", POOL),
    "permutation-seed-bool": (lambda: permute(seed=False), "seed must be an integer, got False",
                              POOL),
    "permutation-seed-negative": (lambda: permute(seed=-1), "seed must be nonnegative", POOL),
    "permutation-levels-before-iterations": (lambda: permute(levels=(2.0,), iterations=0),
                                             "keep fraction must lie in (0, 1], got 2.0", POOL),
    "permutation-iterations-before-seed": (lambda: permute(iterations=0, seed=-1),
                                           "iterations must be >= 1", POOL),
    "target-edge-count-0": (lambda: target_edge_count(0.0, 10),
                            "keep fraction must lie in (0, 1], got 0.0", []),
    "target-edge-count-negative": (lambda: target_edge_count(-0.5, 10),
                                   "keep fraction must lie in (0, 1], got -0.5", []),
    "target-edge-count-inf": (lambda: target_edge_count(float("inf"), 10),
                              "keep fraction must lie in (0, 1], got inf", []),
    "target-edge-count-nan": (lambda: target_edge_count(NAN, 10),
                              "keep fraction must lie in (0, 1], got nan", []),
    "target-edge-count-numpy": (lambda: target_edge_count(np.float64(1.5), 10),
                                "keep fraction must lie in (0, 1], got 1.5", []),
    "consistency-fraction-0": (lambda: consistency_threshold(STACK, 0.0),
                               "keep fraction must lie in (0, 1], got 0.0", RANK),
    "threshold-spec-consistency": (
        lambda: parse_threshold_spec("consistency:2.0:mask"),
        "the consistency threshold spellings were removed: use sparsity:<f>, which "
        "thresholds each subject the same way", []),
    "threshold-spec-trailing-strategy": (
        lambda: parse_threshold_spec("sparsity:0.3:per-subject"),
        "invalid threshold fraction '0.3:per-subject'; expected sparsity:<f>, e.g. "
        "sparsity:0.3", []),
    "anova-one-group": (lambda: one_way_anova([[1.0, 2.0]]), "need at least 2 groups", []),
    "anova-empty-group": (lambda: one_way_anova([[1.0], []]),
                          "every group must be a non-empty flat sequence", []),
    "complete-graph-code-1": (lambda: complete_graph_code(1), "node count must be >= 2",
                              [(codec, "_triangular")]),
    "complete-graph-code-float": (lambda: complete_graph_code(2.5),
                                  "node count must be an integer, got 2.5",
                                  [(codec, "_triangular")]),
    "complete-graph-code-whole-float": (lambda: complete_graph_code(3.0),
                                        "node count must be an integer, got 3.0",
                                        [(codec, "_triangular")]),
    "complete-graph-code-bool": (lambda: complete_graph_code(True),
                                 "node count must be an integer, got True",
                                 [(codec, "_triangular")]),
    "sweep-level-rounds-to-0": (lambda: sweep_values(1e-11, 0.5, 0.1),
                                "sweep level must lie in (0, 1], got 0.0", []),
    "sweep-level-rounds-above-1": (lambda: sweep_values(1 + 5e-10, 1 + 5e-10, 0.1),
                                   "sweep level must lie in (0, 1], got 1.0000000005", []),
}


def fail(*args, **kwargs):
    raise AssertionError("ran before the arguments were checked")


@pytest.mark.parametrize("case", REJECTED)
def test_bad_value_raises_validation_error_before_the_work(monkeypatch, case):
    call, message, work = REJECTED[case]
    for owner, name in work:
        monkeypatch.setattr(owner, name, fail)
    with pytest.raises(ValidationError) as err:
        call()
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message


ACCEPTED = {
    "config-bounds": lambda: config(iterations=1, seed=0, n_rand=0, swaps_per_edge=0,
                                    threshold_fraction=1.0),
    "config-tiny-fraction": lambda: config(threshold_fraction=5e-324),
    "reports-no-references-any-seed": lambda: reports(n_rand=0, seed=-1, swaps="any"),
    "reports-numpy": lambda: reports(n_rand=np.int64(1), seed=np.int64(0), swaps=np.int64(0)),
    "small-world-bounds": lambda: small_world_index(RING, n_rand=1, seed=0, swaps_per_edge=0),
    "rewire-numpy": lambda: rewire(np.int32(2)),
    "random-reference-sequence-seed": lambda: random_reference(RING, [3, 1], swaps_per_edge=0),
    "permutation-bounds": lambda: permute(levels=(1.0, np.float64(0.2)), iterations=np.int64(1),
                                          seed=0),
    "target-edge-count-int-keep": lambda: target_edge_count(1, 10),
    "target-edge-count-numpy-keep": lambda: target_edge_count(np.float64(0.5), 10),
    "consistency-per-subject": lambda: consistency_threshold(STACK, 1.0),
    "consistency-tiny-fraction": lambda: consistency_threshold(STACK, 5e-324),
    "sweep-to-1-plus-rounding": lambda: sweep_values(0.5, 1 + 1e-11, 0.5),
    "threshold-spec-tiny-fraction": lambda: parse_threshold_spec("sparsity:5e-324"),
}


@pytest.mark.parametrize("case", ACCEPTED)
def test_good_value_accepted(case):
    ACCEPTED[case]()


def test_config_fields_cannot_be_reassigned(tmp_path):
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(6, 5, 0))
    c = RunConfig(input=str(data), out_dir=str(tmp_path / "out"))
    for field, value in [("threshold_fraction", 2.0), ("iterations", 0), ("seed", 1)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, value)
    assert run_fingerprint(c)["config"]["threshold_fraction"] == 0.3


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_loaded_table_round_trips(tmp_path, clone):
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(6, 5, 1))
    table = load_subjects_csv(data)
    back = clone(table)
    assert (back.cohort_id, back.region_labels) == (table.cohort_id, table.region_labels)
    assert len(back) == len(table)
    for s, t in zip(back.subjects, table.subjects):
        assert (s.id, s.age, s.gender, s.group) == (t.id, t.age, t.gender, t.group)
        assert np.array_equal(s.volumes, t.volumes) and not s.volumes.flags.writeable
        assert dict(s.clinical) == dict(t.clinical) and s.clinical
        with pytest.raises(TypeError):
            s.clinical["updrs_on"] = 0.0
