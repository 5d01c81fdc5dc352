"""The fingerprint run: the same registry as the list-based run, one block of
subjects' rows and matrices in memory at a time, only codes held until the
registry is written; and no run, the cohort's ANOVA included, imports scipy."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ubnin import (DegenerateDesignError, ValidationError, codec, encode, load_subjects_csv,
                   pipeline, residualize_covariate, to_decimal_string, to_record)
from ubnin.graphs import target_edge_count
from ubnin.pipeline import RunConfig, run_fingerprint
from oracles import run_fingerprint_lists, subject_code
from synth import csv_text, random_binary, split_subject_rows, subjects_csv_text

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
    """The subjects CSV with its first and third rows repeated at the end,
    under ids of their own."""
    header, *rows = text.splitlines(keepends=True)
    return "".join([header, *rows, "copy-" + rows[0], "copy-" + rows[2]])


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
KEEPS = [0.3, 0.25, 1.0, 0.05]


class TestMatchesListBasedRun:
    """run_fingerprint against the earlier list-based run in oracles.py."""

    @pytest.mark.parametrize("name", INPUTS)
    @pytest.mark.parametrize("keep", KEEPS)
    def test_identical_registry(self, tmp_path, name, keep):
        data = tmp_path / "subjects.csv"
        data.write_text(INPUTS[name]())
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                           threshold_fraction=keep)
        registry, doc = assert_same_as_lists(config)
        assert doc["subjects"] == len(json.loads(registry)["records"]) > 0
        if name == "duplicates":
            assert doc["duplicates"]

    @pytest.mark.parametrize("covariate", ["gender", "group"])
    def test_identical_with_residualized_two_file_input(self, tmp_path, covariate):
        volumes, demographics = split_subject_rows(
            [row.split(",") for row in subjects_csv_text(12, 8, 6).splitlines()])
        (tmp_path / "volumes.csv").write_text(csv_text(volumes))
        (tmp_path / "demo.csv").write_text(csv_text(demographics))
        config = RunConfig(input=str(tmp_path / "volumes.csv"),
                           demographics=str(tmp_path / "demo.csv"),
                           out_dir=str(tmp_path / "out"), residualize=covariate)
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

    @pytest.mark.parametrize("regions", [10, 90])
    @pytest.mark.parametrize("residualize", [None, "gender"])
    def test_first_failing_subject_and_error_unchanged(self, tmp_path, monkeypatch, residualize,
                                                       regions):
        # The loader rejects every volume that a network would, so the
        # network step fails here only by design: at subjects 3 and 5. At 10
        # regions both are in the first block; at 90, blocks hold 4 subjects.
        # Residualized volumes are the ones a network is built from there.
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(8, regions, 8))
        table = load_subjects_csv(data)
        if residualize:
            table = residualize_covariate(table, residualize)
        rejected = {s.volumes.tobytes(): s.id for s in table.subjects
                    if s.id in ("s0003", "s0005")}

        def check(volumes):
            if volumes.tobytes() in rejected:
                raise ValidationError(f"network of {rejected[volumes.tobytes()]} rejected")

        def failing_block(volumes, _real=pipeline._similarity_stack):
            for row in volumes:
                check(row)
            return _real(volumes)

        def failing_one(subject, labels=None, _real=oracles.individual_network_pairwise):
            check(subject.volumes)
            return _real(subject, labels)

        monkeypatch.setattr(pipeline, "_similarity_stack", failing_block)
        monkeypatch.setattr(oracles, "individual_network_pairwise", failing_one)
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                           residualize=residualize)
        assert assert_same_as_lists(config) == (ValidationError, "network of s0003 rejected")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("residualize", [None, "gender"])
    @pytest.mark.parametrize("decimals", [0, 1])
    @pytest.mark.parametrize("regions,subjects", [(90, 14), (400, 5)])
    def test_identical_with_ties_across_blocks(self, tmp_path, regions, subjects, decimals,
                                               residualize):
        # 3 blocks and 2 subjects more: blocks hold 4 subjects at 90 regions
        # and 1 at 400. Whole-number and one-decimal volumes tie at the cut.
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(subjects, regions, 14, decimals=decimals))
        config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                           residualize=residualize)
        assert isinstance(assert_same_as_lists(config)[0], bytes)


def ties_at_cut(volumes, keep):
    """Whether equal weights straddle the cut of ``sparsity_threshold``."""
    diff = volumes[:, None] - volumes[None, :]
    upper = np.sort((1.0 / (diff * diff + 1.0))[np.triu_indices(len(volumes), 1)])[::-1]
    k = target_edge_count(keep, upper.size)
    return upper[k - 1] == upper[k]


@pytest.mark.parametrize("decimals", [0, 1])
@pytest.mark.parametrize("regions,block", [(90, 4), (400, 1)])
def test_block_codes_equal_per_subject_codes(tmp_path, regions, block, decimals):
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(3 * block + 2, regions, 15, decimals=decimals))
    table = load_subjects_csv(data)
    assert sum(ties_at_cut(s.volumes, 0.3) for s in table.subjects) > len(table) / 2
    for count in sorted({1, block - 1, block, block + 1, 3 * block + 2} - {0}):
        subjects = table.subjects[:count]
        blocks = list(pipeline._blocks(subjects, regions))
        assert [len(ids) for ids, _ in blocks] == \
            [block] * (count // block) + [count % block] * (count % block > 0)
        codes = [code for _, volumes in blocks for code in pipeline._block_codes(volumes, 0.3)]
        assert codes == [subject_code(s, table.region_labels, 0.3) for s in subjects]


def test_age_residualized_paper_input_keeps_every_subject_apart(tmp_path, monkeypatch):
    """The benchmark's paper-shaped input at seed 1 holds 249 subjects, 139 of
    them alone at their age. One dummy column per age fitted each of those
    exactly, gave them all the grand mean and one code (111 distinct codes),
    and left region r13 of PD cohort A without variance. One slope per region
    keeps every subject's code its own."""
    spec = importlib.util.spec_from_file_location("benchmark_inputs",
                                                  TESTS.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclass looks itself up there
    spec.loader.exec_module(inputs)
    data = tmp_path / "subjects.csv"
    inputs.write_subjects_csv(inputs.make_subjects(1, inputs.PAPER_COUNTS, 90), data)
    doc = run_fingerprint(RunConfig(input=str(data), out_dir=str(tmp_path / "fp"),
                                    residualize="age"))
    assert doc["subjects"] == doc["distinct_codes"] == 249
    doc = pipeline.run_cohort(RunConfig(input=str(data), out_dir=str(tmp_path / "co"),
                                        residualize="age", sweep_start=0.6, sweep_stop=0.9,
                                        sweep_step=0.3, iterations=2, n_rand=0))
    assert doc["warnings"] == []


@pytest.mark.parametrize("sid", ['say "hi"', "back\\slash", "Contrôle-ß-日本", "bell\x07\ttab",
                                 "s0001"])
def test_record_text_is_json_dumps_text(sid):
    code = encode(random_binary(90, 0.3, np.random.default_rng(16)))
    held = [(sid, code)]
    text, = pipeline._records(held)
    assert held == [None]
    record = {"id": sid, "n": code.n, "value": to_decimal_string(code)} | to_record(code)
    assert text == json.dumps(record, indent=2)


def test_registry_of_one_subject_with_an_id_to_escape(tmp_path):
    header, row = subjects_csv_text(1, 12, 17).splitlines()
    sid = 'Contrôle "1" \\ \x07'
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([sid] + row.split(",")[1:])
    data = tmp_path / "subjects.csv"
    data.write_text(f"{header}\n{buf.getvalue()}", encoding="utf-8")
    registry, _ = assert_same_as_lists(RunConfig(input=str(data), out_dir=str(tmp_path / "out")))
    doc = json.loads(registry)
    assert [r["id"] for r in doc["records"]] == [sid]
    assert registry.decode() == json.dumps(doc, indent=2) + "\n"


def test_codes_made_as_rows_are_read_a_block_at_a_time(tmp_path, monkeypatch):
    # Codes are made as rows are read, at most one block (4 subjects at 90
    # regions) behind the reader; records as the registry is written, one
    # chunk of up to RENDER_CHUNK codes at a time.
    events = []

    def stream(*args, _real=pipeline.stream_subjects_csv):
        labels, subjects = _real(*args)
        return labels, (events.append("row") or s for s in subjects)

    def block_codes(volumes, keep, _real=pipeline._block_codes):
        events.append(len(volumes))
        return _real(volumes, keep)

    def render(codes, _real=pipeline._render_stack):
        events.append(("render", len(codes)))
        return _real(codes)

    monkeypatch.setattr(pipeline, "stream_subjects_csv", stream)
    monkeypatch.setattr(pipeline, "_block_codes", block_codes)
    monkeypatch.setattr(pipeline, "_render_stack", render)
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(10, 90, 9))
    run_fingerprint(RunConfig(input=str(data), out_dir=str(tmp_path / "out")))
    assert events == (["row"] * 4 + [4] + ["row"] * 4 + [4] + ["row"] * 2 + [2]
                      + [("render", 10)])


def test_records_are_rendered_a_chunk_at_a_time(monkeypatch):
    rng = np.random.default_rng(27)
    codes = [encode(random_binary(12, 0.3, rng)) for _ in range(2 * pipeline.RENDER_CHUNK + 2)]
    held = [(f"s{i}", code) for i, code in enumerate(codes)]
    chunks = []

    def render(codes, _real=pipeline._render_stack):
        chunks.append(len(codes))
        return _real(codes)

    monkeypatch.setattr(pipeline, "_render_stack", render)
    records = pipeline._records(held)
    first = next(records)
    assert held[:pipeline.RENDER_CHUNK] == [None] * pipeline.RENDER_CHUNK
    assert None not in held[pipeline.RENDER_CHUNK:]
    texts = [first, *records]
    assert chunks == [pipeline.RENDER_CHUNK, pipeline.RENDER_CHUNK, 2]
    assert held == [None] * len(codes)
    assert [json.loads(t) for t in texts] == [
        {"id": f"s{i}", "n": 12, "value": to_decimal_string(c)} | to_record(c)
        for i, c in enumerate(codes)]


def test_a_400_region_registry_builds_no_render_table(tmp_path, monkeypatch):
    # A 400-node table would take minutes to build, and its product sums
    # would pass 2^53: such codes render one at a time.
    def refused(*args):
        raise AssertionError("render table built")

    monkeypatch.setattr(codec, "_limb_table", refused)
    codec._render_tables.cache_clear()
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(3, 400, 27))
    config = RunConfig(input=str(data), out_dir=str(tmp_path / "out"))
    assert isinstance(assert_same_as_lists(config)[0], bytes)


def registries_in_children(tmp_path, envs):
    """The registry that ``ubnin fingerprint`` writes in a child process under
    each of ``envs``, environment variables set over this process's. Every
    run writes to one output directory, which the registry's config names."""
    # 70 subjects: full chunks of codes, and one part-filled.
    data = tmp_path / "subjects.csv"
    data.write_text(subjects_csv_text(70, 90, 27))
    out = tmp_path / "out"
    registries = []
    for env in envs:
        done = subprocess.run(
            [sys.executable, "-m", "ubnin", "fingerprint", "--input", str(data),
             "--out-dir", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", **env))
        assert done.returncode == 0, done.stderr
        registries.append((out / "fingerprints.json").read_bytes())
    assert json.loads(registries[0])["subjects"] == 70
    return registries


def test_registry_bytes_do_not_depend_on_blas_threads(tmp_path):
    one, two = registries_in_children(
        tmp_path, [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}])
    assert one == two


def openblas_kernels_selectable() -> bool:
    """True when numpy's BLAS is an x86 OpenBLAS built with DYNAMIC_ARCH,
    which picks its kernels when it loads and takes OPENBLAS_CORETYPE, and
    this CPU runs the Haswell kernels (AVX2 and FMA)."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except (AttributeError, KeyError, ImportError):
        return False
    return ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and features.get("AVX2", False) and features.get("FMA3", False))


@pytest.mark.skipif(not openblas_kernels_selectable(),
                    reason="numpy's BLAS is not an x86 DYNAMIC_ARCH OpenBLAS on an AVX2 CPU")
def test_registry_bytes_do_not_depend_on_blas_kernel(tmp_path):
    # The render's products are exact, so every kernel sums them to the same
    # floats: Prescott's SSE3 kernels and Haswell's AVX2 ones.
    prescott, haswell = registries_in_children(
        tmp_path, [{"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": core}
                   for core in ("Prescott", "Haswell")])
    assert prescott == haswell


def traced_peak(tmp_path, n_subjects):
    data = tmp_path / f"subjects-{n_subjects}.csv"
    data.write_text(subjects_csv_text(n_subjects, 90, 10))
    config = RunConfig(input=str(data), out_dir=str(tmp_path / f"out-{n_subjects}"))
    codec._render_tables.cache_clear()  # each run builds its render tables, as a new process does
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
    # A full chunk of records is written before the last record fails.
    data.write_text(subjects_csv_text(pipeline.RENDER_CHUNK + 1, 10, 12))
    out = tmp_path / "out"
    config = RunConfig(input=str(data), out_dir=str(out))
    registry = out / "fingerprints.json"
    real = pipeline._render_stack
    calls = []

    def failing_last(codes):
        calls.append(codes)
        if len(calls) == 2:
            raise RuntimeError("the last record failed")
        return real(codes)

    monkeypatch.setattr(pipeline, "_render_stack", failing_last)
    with pytest.raises(RuntimeError, match="the last record failed"):
        run_fingerprint(config)
    assert list(out.iterdir()) == []
    # A registry from an earlier run stays as it was.
    registry.write_text("earlier\n")
    calls.clear()
    with pytest.raises(RuntimeError, match="the last record failed"):
        run_fingerprint(config)
    assert [p.name for p in out.iterdir()] == ["fingerprints.json"]
    assert registry.read_text() == "earlier\n"
    monkeypatch.setattr(pipeline, "_render_stack", real)
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
    # Any list value may be handed over as an iterator of its items' JSON
    # texts, and is written the same.
    streamed = {k: iter([json.dumps(x, indent=2) for x in v])
                if isinstance(v, list) and data.draw(st.booleans()) else v
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


def test_no_scipy_in_any_run(tmp_path):
    # A child process: the benchmark's checks, run in this session, may import scipy.
    data = tmp_path / "subjects.csv"
    code = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]
        import ubnin, ubnin.cli
        from ubnin import RunConfig, one_way_anova, run_cohort, run_fingerprint
        from synth import subjects_csv_text

        def scipy_loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        with open({str(data)!r}, "w") as fh:
            fh.write(subjects_csv_text(60, 10, 11))
        loaded = [scipy_loaded()]
        doc = run_fingerprint(RunConfig(input={str(data)!r}, out_dir={str(tmp_path / "fp")!r}))
        loaded.append(scipy_loaded())
        cohort = run_cohort(RunConfig(input={str(data)!r}, out_dir={str(tmp_path / "lib")!r},
                                      sweep_start=0.8, sweep_stop=0.8, iterations=5, n_rand=0))
        loaded.append(scipy_loaded())
        code = ubnin.cli.main(["cohort", "--input", {str(data)!r},
                               "--out-dir", {str(tmp_path / "cli")!r}, "--sweep", "0.8:0.8:0.1",
                               "--iterations", "5", "--n-rand", "0"])
        loaded.append(scipy_loaded())
        anova = one_way_anova([[1.0, 2.0, 4.0], [2.5, 3.5, 6.0, 7.0], [0.5, 1.5]])
        loaded.append(scipy_loaded())
        print(json.dumps([doc["subjects"], cohort["anova"], code, anova.to_dict(), loaded]))
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    subjects, cohort_anova, exit_code, anova, loaded = json.loads(done.stdout.splitlines()[-1])
    assert subjects == 60
    assert exit_code == 0
    assert {row["field"] for row in cohort_anova} == set(pipeline.CLINICAL_FIELDS)
    assert (tmp_path / "cli" / "anova.csv").is_file()
    assert loaded == [[]] * 5
    assert (anova["F"], anova["df_between"], anova["df_within"]) == (3.497737556561086, 2, 6)
    assert anova["p"] == pytest.approx(float(oracles.f_tail_mpmath(anova["F"], 2, 6)), rel=1e-12)
    project = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert "scipy" not in project.split("\ndependencies = [", 1)[1].split("]", 1)[0]
