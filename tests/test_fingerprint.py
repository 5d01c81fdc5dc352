"""The fingerprint run: the same registry as the list-based run, one subject's
matrices in memory at a time, and no scipy on its way."""

import json
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import oracles
from ubnin import DegenerateDesignError, ValidationError, pipeline
from ubnin.pipeline import RunConfig, run_fingerprint
from oracles import run_fingerprint_lists
from synth import csv_text, split_subject_rows, subjects_csv_text

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def outcome(runner, config):
    """The registry bytes and returned document, or the error a run raises."""
    registry = Path(config.out_dir) / "fingerprints.json"
    registry.unlink(missing_ok=True)
    try:
        doc = runner(config)
    except Exception as exc:  # the exception itself is the outcome compared
        assert not registry.exists()
        return type(exc), str(exc)
    return registry.read_bytes(), doc


def assert_same_as_lists(config):
    want = outcome(run_fingerprint_lists, config)
    assert outcome(run_fingerprint, config) == want
    return want


def with_duplicates(text):
    """The subjects CSV with its first and third rows repeated at the end."""
    header, *rows = text.splitlines(keepends=True)
    return "".join([header, *rows, rows[0], rows[2]])


INPUTS = {
    "paper-size": lambda: subjects_csv_text(24, 90, 1),
    "small": lambda: subjects_csv_text(9, 6, 2),
    "one-subject": lambda: subjects_csv_text(1, 12, 3),
    "two-regions": lambda: subjects_csv_text(5, 2, 4),
    "duplicates": lambda: with_duplicates(subjects_csv_text(7, 10, 5)),
}
THRESHOLDS = [("sparsity", 0.3, "per-subject"), ("consistency", 0.3, "per-subject"),
              ("consistency", 0.25, "group-mask"), ("sparsity", 1.0, "per-subject"),
              ("consistency", 0.05, "group-mask")]


class TestMatchesListBasedRun:
    """run_fingerprint against the earlier list-based run in oracles.py."""

    @pytest.mark.parametrize("name", INPUTS)
    @pytest.mark.parametrize("mode,keep,strategy", THRESHOLDS)
    def test_identical_registry(self, tmp_path, name, mode, keep, strategy):
        data = tmp_path / "subjects.csv"
        data.write_text(INPUTS[name]())
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"), threshold_mode=mode,
                           threshold_fraction=keep, threshold_strategy=strategy)
        _, doc = assert_same_as_lists(config)
        assert doc["subjects"] == len(doc["records"]) > 0
        if name == "duplicates":
            assert doc["duplicates"]

    @pytest.mark.parametrize("strategy", ["per-subject", "group-mask"])
    def test_identical_with_residualized_two_file_input(self, tmp_path, strategy):
        volumes, demographics = split_subject_rows(
            [row.split(",") for row in subjects_csv_text(12, 8, 6).splitlines()])
        (tmp_path / "volumes.csv").write_text(csv_text(volumes))
        (tmp_path / "demo.csv").write_text(csv_text(demographics))
        config = RunConfig(input=str(tmp_path / "volumes.csv"),
                           demographics=str(tmp_path / "demo.csv"),
                           out_dir=str(tmp_path / "out"), residualize="gender",
                           threshold_strategy=strategy)
        assert isinstance(assert_same_as_lists(config)[0], bytes)

    @pytest.mark.parametrize("text,message", [
        ("id,age,gender,group,r1,r2\n", "no subjects to fingerprint"),
        ("id,age,gender,group,r1,r2\ns1,30,F,PD,1.0,x\n", "invalid subject rows"),
        ("id,age,gender,group,r1\ns1,30,F,PD,1.0\n", "need at least 2 region columns"),
    ], ids=["no-subjects", "bad-volume", "one-region"])
    def test_same_loader_errors(self, tmp_path, text, message):
        data = tmp_path / "subjects.csv"
        data.write_text(text)
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"))
        raised = assert_same_as_lists(config)
        assert raised[0] is ValidationError and message in raised[1]

    def test_same_residualization_error(self, tmp_path):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(2, 6, 7))
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"), residualize="gender")
        assert assert_same_as_lists(config) == \
            (DegenerateDesignError, "residualization needs >= 3 subjects, got 2")

    @pytest.mark.parametrize("strategy", ["per-subject", "group-mask"])
    def test_first_failing_subject_and_error_unchanged(self, tmp_path, monkeypatch, strategy):
        # The loader rejects every volume that individual_network would, so
        # the network step fails here only by design: at subjects 3 and 5.
        real = pipeline.individual_network

        def failing(subject, labels=None):
            if subject.id in ("s0003", "s0005"):
                raise ValidationError(f"network of {subject.id} rejected")
            return real(subject, labels)

        monkeypatch.setattr(pipeline, "individual_network", failing)
        monkeypatch.setattr(oracles, "individual_network", failing)
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(8, 10, 8))
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                           threshold_strategy=strategy)
        assert assert_same_as_lists(config) == (ValidationError, "network of s0003 rejected")
        assert not (tmp_path / "out").exists()


def test_five_calls_per_subject_in_turn(tmp_path, monkeypatch):
    # perfbench/tracing.py times these five calls through pipeline's names.
    calls = []
    for name in ("individual_network", "sparsity_threshold", "encode", "to_decimal_string",
                 "to_record"):
        def logged(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, logged)
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(3, 6, 9))
    run_fingerprint(RunConfig(input=str(data), out_dir=str(tmp_path / "out")))
    assert calls == ["individual_network", "sparsity_threshold", "encode", "to_decimal_string",
                     "to_record"] * 3


def traced_peak(tmp_path, n_subjects):
    data = tmp_path / f"subjects-{n_subjects}.csv"
    data.write_text(subjects_csv_text(n_subjects, 90, 10))
    config = RunConfig(input=str(data), out_dir=str(tmp_path / f"out-{n_subjects}"))
    tracemalloc.start()
    try:
        run_fingerprint(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_by_a_matrix_per_subject(tmp_path):
    # Holding every subject's float64 90 x 90 weights adds 64,800 bytes per
    # subject; the registry itself adds about 5 KB per subject at 90 regions.
    growth = traced_peak(tmp_path, 400) - traced_peak(tmp_path, 100)
    assert growth < 300 * 90 * 90 * 8 // 2


def test_no_scipy_until_the_first_anova(tmp_path):
    # A child process: other tests in this session have imported scipy.
    data = tmp_path / "subjects.csv"
    code = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
        import ubnin, ubnin.cli
        from ubnin import RunConfig, one_way_anova, run_fingerprint
        from synth import subjects_csv_text
        with open({str(data)!r}, "w") as fh:
            fh.write(subjects_csv_text(6, 10, 11))
        doc = run_fingerprint(RunConfig(input={str(data)!r}, out_dir={str(tmp_path / "out")!r}))
        before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        anova = one_way_anova([[1.0, 2.0, 4.0], [2.5, 3.5, 6.0, 7.0], [0.5, 1.5]])
        after = "scipy.special" in sys.modules
        print(json.dumps([doc["subjects"], before, anova.to_dict(), after]))
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    subjects, before, anova, after = json.loads(done.stdout)
    assert subjects == 6
    assert before == []
    assert anova == {"F": 3.497737556561086, "df_between": 2, "df_within": 6,
                     "p": 0.09841861871229315}
    assert after
