"""The fingerprint run: the same registry as the list-based run, one subject's
row and matrices in memory at a time, only codes held until the registry is
written, and no scipy on its way."""

import json
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """The outcome of both runs; run_fingerprint returns no records."""
    want = outcome(run_fingerprint_lists, config)
    if isinstance(want[0], bytes):
        want = want[0], {k: v for k, v in want[1].items() if k != "records"}
    assert outcome(run_fingerprint, config) == want
    return want


def with_duplicates(text):
    """The subjects CSV with its first and third rows repeated at the end."""
    header, *rows = text.splitlines(keepends=True)
    return "".join([header, *rows, rows[0], rows[2]])


def bad_rows_after_good():
    """Six valid rows, a short row 8, a blank line, two valid rows, and a row 11
    with a bad volume."""
    header, *rows = subjects_csv_text(8, 10, 13).splitlines(keepends=True)
    bad = rows[0].replace("s0001", "s0099", 1).rsplit(",", 1)[0] + ",x\n"
    return "".join([header, *rows[:6], "s0007,30,F,PD\n", "\n", *rows[6:], bad])


INPUTS = {
    "paper-size": lambda: subjects_csv_text(24, 90, 1),
    "small": lambda: subjects_csv_text(9, 6, 2),
    "one-subject": lambda: subjects_csv_text(1, 12, 3),
    "two-regions": lambda: subjects_csv_text(5, 2, 4),
    "duplicates": lambda: with_duplicates(subjects_csv_text(7, 10, 5)),
}
THRESHOLDS = [(0.3, "per-subject"), (0.25, "group-mask"), (1.0, "per-subject"),
              (0.05, "group-mask")]


class TestMatchesListBasedRun:
    """run_fingerprint against the earlier list-based run in oracles.py."""

    @pytest.mark.parametrize("name", INPUTS)
    @pytest.mark.parametrize("keep,strategy", THRESHOLDS)
    def test_identical_registry(self, tmp_path, name, keep, strategy):
        data = tmp_path / "subjects.csv"
        data.write_text(INPUTS[name]())
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                           threshold_fraction=keep, threshold_strategy=strategy)
        registry, doc = assert_same_as_lists(config)
        assert doc["subjects"] == len(json.loads(registry)["records"]) > 0
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
        ("id,age,gender,group,r1,r2\ns1,x,F,PD,1,2\n\ns2,30,F,PD,1\n",
         "row 2 (s1): invalid age 'x'\n  {path}: row 3: expected 6 cells, got 5"),
        (bad_rows_after_good(), "row 8: expected 18 cells, got 4\n"
         "  {path}: row 11 (s0099): invalid volume 'x'"),
    ], ids=["no-subjects", "bad-volume", "one-region", "all-rows-invalid", "bad-after-good"])
    def test_same_loader_errors(self, tmp_path, text, message):
        data = tmp_path / "subjects.csv"
        data.write_text(text)
        out = tmp_path / "out"
        config = RunConfig(input=str(data), out_dir=str(out))
        raised = assert_same_as_lists(config)
        assert raised[0] is ValidationError and message.format(path=data) in raised[1]
        assert [p.name for p in tmp_path.iterdir()] == ["subjects.csv"]
        # A registry from an earlier run stays as it was, alone in its directory.
        out.mkdir()
        (out / "fingerprints.json").write_text("earlier\n")
        with pytest.raises(ValidationError) as failed:
            run_fingerprint(config)
        assert str(failed.value) == raised[1]
        assert [p.name for p in out.iterdir()] == ["fingerprints.json"]
        assert (out / "fingerprints.json").read_text() == "earlier\n"

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


def test_three_calls_per_subject_in_turn_then_two(tmp_path, monkeypatch):
    # perfbench/tracing.py times these calls through pipeline's names. Codes
    # are made as rows are read; records as the registry is written.
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
    assert calls == (["individual_network", "sparsity_threshold", "encode"] * 3
                     + ["to_decimal_string", "to_record"] * 3)


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


def test_memory_grows_by_under_1_5_kb_per_subject(tmp_path):
    # At 90 regions a subject's held code is about 0.95 KiB: its numerator,
    # which the duplicate check keys on, and its id. Loading every row first
    # and holding every record grew the peak by about 7.6 KiB per subject;
    # holding every subject's float64 weights adds 64,800 bytes.
    growth = traced_peak(tmp_path, 1500) - traced_peak(tmp_path, 150)
    assert growth < 1350 * 1536


def test_registry_text_is_never_held_whole(tmp_path):
    # A registry built as one string, then encoded to bytes for the write,
    # peaked at 3.6 times the file at 400 subjects; streamed from a list of
    # every record, at 1.5 times; rendered a record at a time, at 0.3 times.
    peak = traced_peak(tmp_path, 400)
    registry = tmp_path / "out-400" / "fingerprints.json"
    assert peak < 2 * registry.stat().st_size
    assert [p.name for p in registry.parent.iterdir()] == ["fingerprints.json"]


def test_failed_registry_write_leaves_no_file(tmp_path, monkeypatch):
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(5, 10, 12))
    out = tmp_path / "out"
    config = RunConfig(input=str(data), out_dir=str(out))
    registry = out / "fingerprints.json"
    real = pipeline.to_record
    calls = []

    def unserializable_last(code):
        calls.append(code)
        return real(code) | ({"bad": object()} if len(calls) == 5 else {})

    monkeypatch.setattr(pipeline, "to_record", unserializable_last)
    with pytest.raises(TypeError, match="not JSON serializable"):
        run_fingerprint(config)
    assert list(out.iterdir()) == []
    # A registry from an earlier run stays as it was.
    registry.write_text("earlier\n")
    calls.clear()
    with pytest.raises(TypeError, match="not JSON serializable"):
        run_fingerprint(config)
    assert [p.name for p in out.iterdir()] == ["fingerprints.json"]
    assert registry.read_text() == "earlier\n"
    monkeypatch.setattr(pipeline, "to_record", real)
    run_fingerprint_lists(config)
    want = registry.read_bytes()
    run_fingerprint(config)
    assert registry.read_bytes() == want


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=4), st.data())
def test_written_json_is_json_dump_text(doc, data):
    # Any list value may be handed over as an iterator, and is written the same.
    streamed = {k: iter(v) if isinstance(v, list) and data.draw(st.booleans()) else v
                for k, v in doc.items()}
    with tempfile.TemporaryDirectory() as where:
        path = Path(where) / "doc.json"
        pipeline._write_json(path, streamed)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_json_text_of_a_list_value_is_never_held_whole(tmp_path):
    # results.json's values are lists, not iterators. Encoding each value as
    # one string and then padding it peaked at over twice the file; written
    # a piece at a time, at under 0.1 times.
    doc = {"metrics": [{"row": i, "sigma": i / 7, "gamma": i / 3, "group": "PD"}
                       for i in range(4000)]}
    path = tmp_path / "results.json"
    tracemalloc.start()
    try:
        pipeline._write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    assert peak < path.stat().st_size / 4


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
