"""The benchmark's checks pass on real outputs and fail on perturbed ones.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from checks import CohortCheck, check_fingerprint  # noqa: E402
from ubnin import BinaryNetwork  # noqa: E402
from inputs import write_subjects_csv  # noqa: E402
from workloads import KEEP, CohortWorkload, FingerprintWorkload  # noqa: E402

SEED = 3
SMALL = {"PD": (3, 4, 3, 5, 3), "HC": (4, 3, 3, 3, 4)}


def run(workload, tmp_path):
    subjects = workload.subjects(SEED)
    write_subjects_csv(subjects, tmp_path / "subjects.csv")
    r = workload.run_round(SEED, subjects, tmp_path / "subjects.csv", tmp_path / "out")
    assert r.failed == 0, r.outputs
    return subjects, r


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    w = CohortWorkload("small", n_rand=1, iterations=5, counts=SMALL, regions=14,
                       sweep=(0.6, 0.63, 0.66))
    subjects, r = run(w, tmp_path_factory.mktemp("cohort"))
    return w, subjects, r.outputs["out_dir"]


@pytest.fixture(scope="module")
def fingerprint(tmp_path_factory):
    w = FingerprintWorkload("small", per_bin=2, regions=14)
    return run(w, tmp_path_factory.mktemp("fingerprint"))


def cohort_errors(w, subjects, out_dir):
    return CohortCheck(w, SEED, subjects).run(out_dir)


def test_cohort_outputs_pass(cohort):
    assert cohort_errors(*cohort) == []


@pytest.mark.parametrize("name,column", [
    ("metrics.csv", "mean_clustering"),
    ("metrics.csv", "char_path_length"),
    ("metrics.csv", "gamma"),
    ("significance.csv", "observed_diff"),
    ("significance.csv", "perm_mean_diff"),
    ("significance.csv", "p_value"),
    ("anova.csv", "F"),
])
def test_one_nudged_metric_fails(cohort, tmp_path, name, column):
    w, subjects, out_dir = cohort
    for f in Path(out_dir).iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    lines = (tmp_path / name).read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[header].split(",").index(column)
    row = len(lines) - 1
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    errors = cohort_errors(w, subjects, tmp_path)
    assert any(column in e or "gamma/lambda" in e for e in errors), errors


def test_consistent_small_world_nudge_fails(cohort, tmp_path):
    """gamma and sigma nudged together pass sigma = gamma / lambda; the
    recomputed reference of the first row, which is always checked, fails."""
    w, subjects, out_dir = cohort
    for f in Path(out_dir).iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    names = lines[header].split(",")
    cells = lines[header + 1].split(",")
    gamma = float(cells[names.index("gamma")]) * (1 + 1e-6)
    cells[names.index("gamma")] = repr(gamma)
    cells[names.index("sigma")] = repr(gamma / float(cells[names.index("lambda")]))
    lines[header + 1] = ",".join(cells)
    (tmp_path / "metrics.csv").write_text("\n".join(lines) + "\n")
    errors = cohort_errors(w, subjects, tmp_path)
    assert errors and all("gamma/lambda" in e for e in errors), errors


def test_rewiring_that_moves_a_degree_fails(cohort, monkeypatch):
    w, subjects, out_dir = cohort
    real = checks.random_reference

    def one_edge_flipped(b, seed, swaps_per_edge):
        e = real(b, seed, swaps_per_edge).edges.copy()
        e[0, 1] = e[1, 0] = not e[0, 1]
        return BinaryNetwork(e)

    monkeypatch.setattr(checks, "random_reference", one_edge_flipped)
    errors = cohort_errors(w, subjects, out_dir)
    assert any("changed a degree" in e for e in errors), errors


def test_fingerprint_outputs_pass(fingerprint):
    subjects, r = fingerprint
    assert check_fingerprint(subjects, KEEP, r.outputs) == []


def test_one_flipped_edge_fails(fingerprint):
    subjects, r = fingerprint
    rec, code, parsed, edges = r.outputs["read_back"][0]
    flipped = edges.copy()
    flipped[0, 1] = flipped[1, 0] = not edges[0, 1]
    outputs = dict(r.outputs, read_back=[(rec, code, parsed, flipped)])
    errors = check_fingerprint(subjects, KEEP, outputs)
    assert any("decoded network differs" in e for e in errors), errors


def test_one_changed_code_bit_fails(fingerprint):
    subjects, r = fingerprint
    registry = json.loads(json.dumps(r.outputs["registry"]))
    rec = registry["records"][0]
    rec["numerator"] = str(int(rec["numerator"]) ^ 2)
    read_back = [(rec, *r.outputs["read_back"][0][1:])]
    errors = check_fingerprint(subjects, KEEP, dict(r.outputs, registry=registry,
                                                   read_back=read_back))
    assert any("Fraction fold" in e for e in errors), errors


def test_tracer_counts_calls_and_restores_the_program(tmp_path):
    from ubnin import pipeline
    from tracing import METRICS, Tracer

    original = pipeline.run_cohort
    cohort = CohortWorkload("small", n_rand=1, iterations=5, counts=SMALL, regions=14,
                            sweep=(0.6, 0.63, 0.66))
    with Tracer() as tracer:
        run(cohort, tmp_path)
    assert pipeline.run_cohort is original
    counts = tracer.per_round(1)
    assert set(counts) == set(METRICS)
    # 2 groups x 5 cohorts x 3 levels rows, one reference each; 20 pairs
    assert counts["metrics.rewire_calls"] == 30
    assert counts["metrics.path_length_calls"] == 30 * 3
    assert counts["stats.permutation_iterations"] == 20 * 5
    assert counts["graphs.threshold_calls"] == 30 + 20 * (1 + 5) * 2 * 3
    assert counts["codec.pairs"] == 0 and counts["codec.encode_s"] == 0
    assert counts["metrics.rewire_attempts"] > counts["metrics.rewire_edges_moved"] > 0

    with Tracer() as tracer:
        subjects, _ = run(FingerprintWorkload("small", per_bin=2, regions=14), tmp_path)
    counts = tracer.per_round(1)
    assert counts["metrics.rewire_calls"] == 0
    assert counts["graphs.threshold_calls"] == len(subjects.ids)
    assert counts["codec.pairs"] == len(subjects.ids) * 14 * 13 // 2
