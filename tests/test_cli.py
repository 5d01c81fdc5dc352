import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ubnin import (
    NotEstimableError,
    UndefinedMetricError,
    ValidationError,
    decode,
    encode,
    from_record,
    individual_network,
    load_binary_matrix,
    load_subjects_csv,
    parse_decimal_string,
    save_binary_matrix,
    sparsity_threshold,
    sweep_values,
    to_record,
)
from ubnin import cli
from ubnin.cli import main, parse_threshold_spec
from ubnin.graphs import format_binary_matrix
from ubnin import pipeline
from oracles import (
    metrics_report_one_loop,
    parse_threshold_spec_with_mode,
    run_fingerprint_lists,
    to_decimal_string_int,
)
from synth import (
    complete_graph,
    csv_text,
    path_graph,
    random_binary,
    split_subject_rows,
    subjects_csv_text,
    table_fields,
)

SRC = Path(__file__).resolve().parent.parent / "src"
K10_DECIMAL = "511.999999999985448084771633148193359375"
NAN, INF = float("nan"), float("inf")
NON_FINITE_SWEEPS = [(0.6, 0.9, NAN), (NAN, 0.9, 0.03), (0.6, NAN, 0.03), (0.6, INF, 0.03),
                     (-INF, 0.9, 0.03), (0.6, 0.9, INF)]


def no_sweep_loop(monkeypatch):
    """Make the level loop of ``sweep_values`` fail at once if it is entered.

    The loop never ends on a NaN value, so a check that let one through would
    hang the test instead of failing it.
    """
    def entered(*args):
        raise AssertionError("the sweep loop ran")

    monkeypatch.setattr(pipeline, "round", entered, raising=False)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepAndThresholdParsing:
    def test_default_sweep_has_eleven_levels(self):
        levels = sweep_values(0.6, 0.9, 0.03)
        assert len(levels) == 11
        assert levels[0] == 0.6 and levels[-1] == 0.9
        assert levels[1] == 0.63

    def test_single_level_sweep(self):
        assert sweep_values(0.8, 0.8, 0.03) == (0.8,)

    @pytest.mark.parametrize("start, stop, step", NON_FINITE_SWEEPS)
    def test_non_finite_sweep_rejected_before_the_loop(self, monkeypatch, start, stop, step):
        from ubnin import ValidationError

        no_sweep_loop(monkeypatch)
        with pytest.raises(ValidationError, match="^sweep start, stop and step must be finite$"):
            sweep_values(start, stop, step)
        with pytest.raises(ValidationError, match="^sweep start, stop and step must be finite$"):
            pipeline.RunConfig(input="in.csv", out_dir="out", sweep_start=start,
                               sweep_stop=stop, sweep_step=step)

    @pytest.mark.parametrize("start, stop, step, message", [
        (0.6, 1e300, 0.03, "sweep levels must lie in (0, 1]"),
        (0.6, 1.1, 1.0, "sweep levels must lie in (0, 1]"),
        (0.0, 0.5, 0.1, "sweep levels must lie in (0, 1]"),
        (-1e300, 0.5, 1e-300, "sweep levels must lie in (0, 1]"),
        (0.6, 0.9, 1e-300, "sweep must have at most 10000 levels"),
        (0.8, 0.8, 5e-324, "sweep must have at most 10000 levels"),
        (1e-5, 1.0, 1e-5, "sweep must have at most 10000 levels"),
    ])
    def test_unbounded_sweep_rejected_before_the_loop(self, monkeypatch, start, stop, step,
                                                      message):
        no_sweep_loop(monkeypatch)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sweep_values(start, stop, step)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            pipeline.RunConfig(input="in.csv", out_dir="out", sweep_start=start,
                               sweep_stop=stop, sweep_step=step)

    @pytest.mark.parametrize("start, stop, step, level", [
        (0.8, 0.8, 1e-12, 0.8),  # 1050 levels, 11 of them distinct
        (0.6, 0.6000001, 3e-11, 0.6),  # 3369 levels, 1011 of them distinct
        (0.3, 0.3000001, 5e-11, 0.3),
    ])
    def test_repeated_levels_rejected(self, start, stop, step, level):
        message = f"sweep step {step!r} repeats level {level!r}: levels are rounded to 10 decimals"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sweep_values(start, stop, step)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            pipeline.RunConfig(input="in.csv", out_dir="out", sweep_start=start,
                               sweep_stop=stop, sweep_step=step)

    def test_smallest_steps_that_keep_levels_distinct(self):
        levels = sweep_values(0.6, 0.60000001, 1e-10)
        assert len(levels) == len(set(levels)) == 101
        assert levels[:3] == (0.6, 0.6000000001, 0.6000000002)
        levels = sweep_values(0.5, 0.5000000012, 1.5e-10)
        assert len(levels) == len(set(levels)) == 9

    # Levels once ran up to stop + 1e-9: 511 levels ending at 0.600000051 for
    # the first case, 111 ending at 0.600000011 for the second, and 9 ending
    # at 0.5000000012 for the third.
    @pytest.mark.parametrize("start, stop, step, count", [
        (0.6, 0.60000005, 1e-10, 501),
        (0.6, 0.60000001, 1e-10, 101),
        (0.5, 0.5000000002, 1.5e-10, 2),
        (0.6, 0.9, 0.03, 11),
        (0.6, 0.9, 0.3, 2),
    ])
    def test_no_level_above_stop(self, start, stop, step, count):
        levels = sweep_values(start, stop, step)
        assert len(levels) == count
        assert levels[0] == start and levels[-1] == stop

    def test_longest_sweep_within_the_cap(self):
        assert pipeline.MAX_SWEEP_LEVELS == 10_000
        levels = sweep_values(1e-4, 1.0, 1e-4)
        assert len(levels) == 10_000 and levels[-1] == 1.0
        assert sweep_values(0.6, 1.0 + 1e-10, 0.4) == (0.6, 1.0)

    @pytest.mark.parametrize("edges", [(NAN,), (32.0, INF), (-INF, 40.0), (30.0, NAN, 50.0)])
    def test_config_rejects_non_finite_bin_edges(self, edges):
        from ubnin import ValidationError

        with pytest.raises(ValidationError, match="^bin edges must be non-empty, finite and "):
            pipeline.RunConfig(input="in.csv", out_dir="out", bin_edges=edges)

    def test_config_keeps_bin_edges_as_floats(self):
        config = pipeline.RunConfig(input="in.csv", out_dir="out", bin_edges=[30, 40.5])
        assert config.bin_edges == (30.0, 40.5)
        assert all(type(x) is float for x in config.bin_edges)

    def test_threshold_spec_forms(self):
        assert parse_threshold_spec("sparsity:0.3") == 0.3
        assert parse_threshold_spec("sparsity:0.25") == 0.25

    @pytest.mark.parametrize("spec", [
        # accepted by the earlier parser
        "sparsity:0.3", "consistency:0.3", "consistency:0.3:per-subject",
        "consistency:0.25:group-mask", "sparsity:1.0", "sparsity:1", "consistency:.5",
        "sparsity: 0.3 ", "sparsity:1e-1", "sparsity:nan", "sparsity:2", "sparsity:-0.3",
        "consistency:0.3:bogus", "consistency:0.3:", "consistency:0.3:Group-Mask",
        # rejected by the earlier parser
        "", ":", "sparsity", "consistency", "median:0.5", "Sparsity:0.3", " sparsity:0.3",
        "sparsity:", "sparsity:x", "consistency:0,3", "sparsity:0.5:mask",
        "sparsity:0.3:group-mask", "sparsity:0.3:per-subject", "sparsity:0.3:",
        "sparsity:0.3:a:b", "consistency:0.3:group-mask:x", "consistency:x:group-mask",
        "consistency:0.3::",
    ])
    def test_spec_means_what_it_meant_with_a_mode(self, spec):
        """A sparsity spelling gives the earlier parser's fraction, or is
        rejected as it was. Every consistency spelling, which the earlier
        parser accepted or rejected, now names its replacement."""
        if spec.partition(":")[0] == "consistency":
            with pytest.raises(ValidationError, match=(
                    "^the consistency threshold spellings were removed: use sparsity:<f>")):
                parse_threshold_spec(spec)
            return
        try:
            _, fraction, _ = parse_threshold_spec_with_mode(spec)
        except ValidationError:
            with pytest.raises(ValidationError):
                parse_threshold_spec(spec)
            return
        assert repr(parse_threshold_spec(spec)) == repr(fraction)  # repr: nan == nan

    def test_settings_on_which_nothing_depends_are_gone(self, capsys):
        from ubnin import PermutationResult

        assert [f.name for f in dataclasses.fields(pipeline.RunConfig)] == [
            "input", "out_dir", "demographics", "threshold_fraction", "sweep_start", "sweep_stop",
            "sweep_step", "bin_edges", "iterations", "seed", "residualize", "n_rand",
            "swaps_per_edge", "anova_fields"]
        code, help_text, _ = run(capsys, "fingerprint", "--help")
        assert code == 0 and "--threshold" in help_text and "--seed" not in help_text
        assert "--seed" in run(capsys, "cohort", "--help")[1]
        with pytest.raises(TypeError):
            PermutationResult((0.5,), (0.1,), (0.0,), (1.0,), 9, 0, tail="two-tailed")
        assert PermutationResult((0.5,), (0.1,), (0.0,), (1.0,), 9, 0).to_dict()["tail"] == (
            "two-tailed")

    @pytest.mark.parametrize("field, value", [
        ("swaps_per_edge", 1.5), ("n_rand", 1.5), ("iterations", 2.5), ("seed", 1.5),
        ("iterations", True), ("n_rand", False), ("seed", "3"), ("swaps_per_edge", np.int64(10)),
    ])
    def test_config_rejects_non_integer_counts(self, field, value):
        from ubnin import ValidationError

        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got "):
            pipeline.RunConfig(input="in.csv", out_dir="out", **{field: value})

    def test_config_keeps_messages_for_integer_counts(self):
        from ubnin import ValidationError

        for kwargs, message in [
            ({"iterations": 0}, "iterations must be >= 1"),
            ({"seed": -1}, "seed must be nonnegative"),
            ({"n_rand": -1}, "n_rand must be nonnegative"),
            ({"swaps_per_edge": -1}, "swaps_per_edge must be nonnegative"),
        ]:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                pipeline.RunConfig(input="in.csv", out_dir="out", **kwargs)


class TestEncodeCommand:
    def test_k10(self, tmp_path, capsys):
        path = tmp_path / "k10.csv"
        save_binary_matrix(complete_graph(10), path)
        code, out, _ = run(capsys, "encode", "--input", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["value"] == K10_DECIMAL
        assert record["n"] == 10

    def test_zero_matrix(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        path.write_text("a,b,c\n0,0,0\n0,0,0\n0,0,0\n")
        code, out, _ = run(capsys, "encode", "--input", str(path))
        assert code == 0 and json.loads(out)["value"] == "0"

    def test_path_graph(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        save_binary_matrix(path_graph(5), path)
        code, out, _ = run(capsys, "encode", "--input", str(path))
        assert json.loads(out)["value"] == "8.578125"

    def test_asymmetric_matrix_exits_one_naming_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n0,0\n")
        code, _, err = run(capsys, "encode", "--input", str(path))
        assert code == 1
        assert "(a,b)" in err


class TestDecodeCommand:
    def test_decimal_literal_to_stdout(self, capsys):
        code, out, _ = run(capsys, "decode", "--input", "8.578125", "--nodes", "5")
        assert code == 0
        assert out == "v1,v2,v3,v4,v5\n0,1,0,0,0\n1,0,1,0,0\n0,1,0,1,0\n0,0,1,0,1\n0,0,0,1,0\n"

    def test_zero_to_zero_matrix(self, capsys):
        code, out, _ = run(capsys, "decode", "--input", "0", "--nodes", "3")
        assert code == 0
        assert out == "v1,v2,v3\n0,0,0\n0,0,0\n0,0,0\n"

    def test_code_file_and_out_file(self, tmp_path, capsys):
        src = tmp_path / "code.txt"
        src.write_text("8.578125\n")
        dst = tmp_path / "matrix.csv"
        code, _, _ = run(capsys, "decode", "--input", str(src), "--nodes", "5", "--out", str(dst))
        assert code == 0
        assert load_binary_matrix(dst) == path_graph(5)

    def test_record_input_carries_node_count(self, capsys):
        code, out, _ = run(capsys, "decode", "--input", '{"n": 5, "numerator": "549", "scale": 6}')
        assert code == 0 and out.startswith("v1,")

    def test_record_node_count_conflict(self, capsys):
        code, _, err = run(
            capsys, "decode", "--input", '{"n": 5, "numerator": "549", "scale": 6}', "--nodes", "6"
        )
        assert code == 1 and "contradicts" in err

    def test_decimal_without_nodes_rejected(self, capsys):
        code, _, err = run(capsys, "decode", "--input", "8.578125")
        assert code == 1 and "--nodes" in err

    def test_value_out_of_bounds_for_nodes(self, capsys):
        code, _, err = run(capsys, "decode", "--input", K10_DECIMAL, "--nodes", "9")
        assert code == 1 and "out of range" in err

    @pytest.mark.parametrize("literal", ["\u00b2", "\u0663", "3.\u0665"])
    def test_non_ascii_digits_rejected_as_malformed(self, capsys, literal):
        code, out, err = run(capsys, "decode", "--input", literal, "--nodes", "5")
        assert code == 1 and out == ""
        assert "not a nonnegative decimal number" in err

    def test_non_ascii_record_numerator_rejected_as_malformed(self, capsys):
        record = '{"n": 5, "numerator": "\u00b2", "scale": 0}'
        code, _, err = run(capsys, "decode", "--input", record)
        assert code == 1 and "digit string" in err

    @pytest.mark.parametrize("text, nodes", [
        ('{"n": 5, "numerator": "549", "scale": 6}\n', []),
        ("8.578125\n", ["--nodes", "5"]),
    ])
    def test_code_file_with_a_byte_order_mark(self, tmp_path, capsys, text, nodes):
        src = tmp_path / "code.txt"
        src.write_text(text, encoding="utf-8-sig")
        code, out, err = run(capsys, "decode", "--input", str(src), *nodes)
        assert (code, err) == (0, "")
        assert out == format_binary_matrix(path_graph(5))

    # The matrix cannot be allocated: far past the address space at 10^8
    # nodes, past the largest int at 10^20. Either is refused at once.
    @pytest.mark.parametrize("nodes", ["100000000", "100000000000000000000"])
    @pytest.mark.parametrize("form", ["record", "literal"])
    def test_code_too_large_to_decode_exits_one(self, capsys, nodes, form):
        args = (["--input", f'{{"n": {nodes}, "numerator": "1", "scale": 0}}'] if form == "record"
                else ["--input", "5", "--nodes", nodes])
        assert run(capsys, "decode", *args) == (
            1, "", f"error: a network of {nodes} nodes is too large to decode: its adjacency "
                   "matrix does not fit in memory\n")

    def test_nodes_via_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("UBNIN_DECODE_NODES", "5")
        code, out, _ = run(capsys, "decode", "--input", "8.578125")
        assert code == 0 and out.startswith("v1,")


class TestFileLevelRoundTrips:
    def test_decode_then_encode_restores_value(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        code, _, _ = run(capsys, "decode", "--input", K10_DECIMAL, "--nodes", "10",
                         "--out", str(matrix))
        assert code == 0
        code, out, _ = run(capsys, "encode", "--input", str(matrix))
        assert json.loads(out)["value"] == K10_DECIMAL

    def test_encode_then_decode_restores_matrix(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        save_binary_matrix(path_graph(7), src)
        code, out, _ = run(capsys, "encode", "--input", str(src))
        record = json.loads(out)
        dst = tmp_path / "dst.csv"
        code, _, _ = run(capsys, "decode", "--input", record["value"], "--nodes", "7",
                         "--out", str(dst))
        assert code == 0
        assert dst.read_text() == src.read_text()

    @pytest.mark.parametrize("source", ["value", "record"])
    def test_150_node_matrix_round_trips(self, tmp_path, capsys, source):
        # its decimal value exceeds CPython's 4300-digit int/str limit
        src = tmp_path / "src.csv"
        save_binary_matrix(random_binary(150, 0.5, np.random.default_rng(150)), src)
        code, out, err = run(capsys, "encode", "--input", str(src))
        assert code == 0, err
        record = json.loads(out)
        assert len(record["value"]) > 4300
        args = ["--input", record["value"], "--nodes", "150"] if source == "value" else [
            "--input", json.dumps(record)]
        dst = tmp_path / "dst.csv"
        code, _, err = run(capsys, "decode", *args, "--out", str(dst))
        assert code == 0, err
        assert load_binary_matrix(dst).edges.tolist() == load_binary_matrix(src).edges.tolist()

    def test_record_with_bare_integer_numerator_beyond_the_digit_limit(self, capsys):
        b = random_binary(200, 0.5, np.random.default_rng(200))
        rec = to_record(encode(b))
        assert len(rec["numerator"]) > 4300
        bare = '{"n": 200, "numerator": %s, "scale": %d}' % (rec["numerator"], rec["scale"])
        code, out, err = run(capsys, "decode", "--input", bare)
        assert code == 0, err
        assert out == format_binary_matrix(b)


class TestFingerprintCommand:
    @pytest.mark.parametrize("regions", [116, 148])
    def test_atlas_sized_records_decode_to_each_network(self, tmp_path, capsys, regions):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(20, regions, seed=1))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir))
        assert code == 0, err
        doc = json.loads((out_dir / "fingerprints.json").read_text())
        table = load_subjects_csv(data)
        assert [r["id"] for r in doc["records"]] == [s.id for s in table.subjects]
        for rec, subject in zip(doc["records"], table.subjects):
            expected = sparsity_threshold(individual_network(subject, table.region_labels), 0.3)
            code = from_record({k: rec[k] for k in ("n", "numerator", "scale")})
            assert rec["value"] == to_decimal_string_int(code)
            assert parse_decimal_string(rec["value"], regions) == code
            assert decode(code, table.region_labels) == expected

    def test_registry_distinct_and_reproducible(self, tmp_path, capsys):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(12, 16, seed=100))
        out_dir = tmp_path / "registry"
        code, out, err = run(capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir))
        assert code == 0, err
        assert "12 subjects" in out
        r1 = (out_dir / "fingerprints.json").read_bytes()
        code, _, _ = run(capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir))
        assert code == 0
        r2 = (out_dir / "fingerprints.json").read_bytes()
        assert r1 == r2
        doc = json.loads(r1)
        assert doc["subjects"] == 12 and doc["distinct_codes"] == 12
        assert doc["records"][0]["n"] == 16
        assert doc["config"]["threshold_fraction"] == 0.3

    def test_duplicate_rows_warned_but_allowed(self, tmp_path, capsys):
        rows = subjects_csv_text(3, 8, seed=5).splitlines()
        data = tmp_path / "subjects.csv"
        data.write_text("\n".join(rows + ["copy-" + rows[1]]) + "\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir))
        assert code == 0
        assert "duplicate code" in err
        doc = json.loads((out_dir / "fingerprints.json").read_text())
        assert doc["duplicates"] == [["s0001", "copy-s0001"]]

    def test_same_summary_and_warnings_as_the_list_based_run(self, tmp_path, capsys):
        header, *rows = subjects_csv_text(7, 10, seed=5).splitlines(keepends=True)
        data = tmp_path / "subjects.csv"
        data.write_text("".join([header, *rows, "copy-" + rows[0], "copy-" + rows[2]]))
        out_dir = tmp_path / "out"
        want = run_fingerprint_lists(pipeline.RunConfig(input=str(data), out_dir=str(out_dir)))
        registry = (out_dir / "fingerprints.json").read_bytes()
        code, out, err = run(capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir))
        assert code == 0
        assert len(want["duplicates"]) == 2
        assert err == "".join(f"warning: duplicate code shared by subjects {', '.join(ids)}\n"
                              for ids in want["duplicates"])
        assert out == (f"fingerprinted {want['subjects']} subjects "
                       f"({want['distinct_codes']} distinct codes) -> {want['registry_path']}\n")
        assert (out_dir / "fingerprints.json").read_bytes() == registry

    def test_invalid_row_aborts_without_output(self, tmp_path, capsys):
        import re

        text = re.sub(r"(s0002,)[0-9.]+", r"\1not-an-age", subjects_csv_text(4, 8, seed=6))
        data = tmp_path / "subjects.csv"
        data.write_text(text)
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir))
        assert code == 1
        assert "s0002" in err
        assert not (out_dir / "fingerprints.json").exists()

    def test_sparsity_threshold_and_residualization(self, tmp_path, capsys):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(8, 10, seed=7))
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir),
            "--threshold", "sparsity:0.5", "--residualize", "gender",
        )
        assert code == 0, err
        doc = json.loads((out_dir / "fingerprints.json").read_text())
        assert doc["config"]["threshold_fraction"] == 0.5
        assert "threshold_strategy" not in doc["config"]
        assert doc["config"]["residualize"] == "gender"

    def test_default_threshold_is_sparsity_0_3(self, tmp_path, capsys):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(9, 12, seed=9))
        out_dir = tmp_path / "out"
        registries = []
        for spec in ([], ["--threshold", "sparsity:0.3"]):
            code, _, err = run(capsys, "fingerprint", "--input", str(data),
                               "--out-dir", str(out_dir), *spec)
            assert code == 0, err
            registries.append((out_dir / "fingerprints.json").read_bytes())
        assert registries[0] == registries[1]
        config = json.loads(registries[0])["config"]
        assert config["threshold_fraction"] == 0.3
        assert list(config) == [f.name for f in dataclasses.fields(pipeline.RunConfig)]

    # One rule, written three ways, and the removed group mask.
    @pytest.mark.parametrize("spec", ["consistency:0.3", "consistency:0.3:per-subject",
                                      "consistency:0.3:group-mask", "consistency"])
    def test_consistency_spellings_are_removed(self, tmp_path, capsys, spec):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(6, 10, seed=8))
        out_dir = tmp_path / "out"
        assert run(
            capsys, "fingerprint", "--input", str(data), "--out-dir", str(out_dir),
            "--threshold", spec,
        ) == (1, "", "error: the consistency threshold spellings were removed: use "
                     "sparsity:<f>, which thresholds each subject the same way\n")
        assert not out_dir.exists()

    def test_demographics_join(self, tmp_path, capsys):
        vols = tmp_path / "volumes.csv"
        demo = tmp_path / "demo.csv"
        vols.write_text(
            "id,r1,r2,r3\n"
            "a,600.5,612.2,598.8\n"
            "b,590.1,601.9,611.4\n"
            "c,605.3,597.6,603.2\n"
        )
        demo.write_text(
            "id,age,gender,group\na,40,M,PD\nb,50,F,HC\nc,60,F,PD\n"
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "fingerprint", "--input", str(vols), "--demographics", str(demo),
            "--out-dir", str(out_dir),
        )
        assert code == 0, err
        doc = json.loads((out_dir / "fingerprints.json").read_text())
        assert [r["id"] for r in doc["records"]] == ["a", "b", "c"]

    def test_degenerate_residualization_exits_two(self, tmp_path, capsys):
        data = tmp_path / "subjects.csv"
        data.write_text(
            "id,age,gender,group,r1,r2\n"
            "a,40,M,PD,1.0,2.0\n"
            "b,50,F,PD,2.0,1.0\n"
        )
        code, _, err = run(
            capsys, "fingerprint", "--input", str(data), "--out-dir", str(tmp_path / "o"),
            "--residualize", "gender",
        )
        assert code == 2
        assert "3 subjects" in err

    def test_overflowing_residualization_prints_one_error_line(self, tmp_path):
        # numpy's overflow warnings in the fit once reached stderr before the error.
        data = tmp_path / "subjects.csv"
        data.write_text("id,age,gender,group,r1,r2,r3\n" + "".join(
            f"s{i},40,{'FM'[i % 2]},PD,1e308,{1e308 * (0.5 + i / 10)!r},3.0\n"
            for i in range(4)))
        done = run_in_child(["fingerprint", "--input", str(data),
                             "--out-dir", str(tmp_path / "o"), "--residualize", "gender"])
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: subject s0: non-finite volume value\n")


def cohort_csv(tmp_path, ages, group="G", n_regions=8, seed=50):
    rng = np.random.default_rng(seed)
    lines = ["id,age,gender,group," + ",".join(f"r{i}" for i in range(1, n_regions + 1))]
    for i, age in enumerate(ages):
        vols = ",".join(f"{v:.5f}" for v in rng.normal(600, 40, n_regions))
        lines.append(f"s{i:03d},{age},{'M' if i % 2 else 'F'},{group},{vols}")
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCohortCommand:
    def test_three_bins_full_outputs(self, tmp_path, capsys):
        ages = [28, 29, 30, 31, 38, 39, 40, 41, 48, 49, 50, 51]
        data = cohort_csv(tmp_path, ages)
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(out_dir),
            "--sweep", "0.7:0.8:0.05", "--iterations", "19", "--n-rand", "4", "--seed", "3",
        )
        assert code == 0, err
        metrics = (out_dir / "metrics.csv").read_text()
        assert metrics.startswith("# version:")
        assert "# config:" in metrics
        data_rows = [l for l in metrics.splitlines() if l and not l.startswith("#")][1:]
        assert len(data_rows) == 3 * 3  # 3 cohorts x 3 sparsity levels
        sig_rows = [
            l for l in (out_dir / "significance.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        assert len(sig_rows) == 3 * 3  # 3 cohort pairs x 3 levels
        results = json.loads((out_dir / "results.json").read_text())
        assert results["sweep"] == [0.7, 0.75, 0.8]
        assert len(results["permutation"]) == 3
        for doc in results["permutation"]:
            assert all(p >= 1 / 20 for p in doc["p_value"])
        assert "analyzed 3/5 cohorts" in out

    def test_mean_clustering_rises_with_the_level(self, tmp_path):
        # A level is the fraction of possible edges kept, not removed (README).
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(120, 90, 4))
        config = pipeline.RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                                    sweep_start=0.1, sweep_stop=0.9, sweep_step=0.1,
                                    iterations=1, n_rand=0)
        doc = pipeline.run_cohort(config)
        by_cohort = {}
        for row in doc["metrics"]:
            by_cohort.setdefault((row["group"], row["cohort"]), []).append(
                (row["sparsity"], row["mean_clustering"]))
        assert len(by_cohort) == 10
        for levels in by_cohort.values():
            assert [s for s, _ in levels] == list(doc["sweep"])
            clustering = [c for _, c in levels]
            assert all(lo < hi for lo, hi in zip(clustering, clustering[1:]))
            assert clustering[0] < 0.4 and clustering[-1] > 0.8

    def test_one_subject_bins_all_skipped_exit_zero(self, tmp_path, capsys):
        data = cohort_csv(tmp_path, [30, 35, 45, 55, 65])
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(out_dir),
            "--iterations", "5",
        )
        assert code == 0
        assert err.count("skipped") == 5
        data_rows = [
            l for l in (out_dir / "metrics.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        assert data_rows == []
        assert "analyzed 0/5 cohorts" in out

    def test_anova_on_clinical_fields(self, tmp_path, capsys):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(30, 8, seed=60, groups=("PD",)))
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(out_dir),
            "--sweep", "0.8:0.8:0.1", "--iterations", "9", "--anova", "updrs_off,updrs_on",
        )
        assert code == 0, err
        anova_rows = [
            l for l in (out_dir / "anova.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        fields = {row.split(",")[1] for row in anova_rows}
        assert fields == {"updrs_off", "updrs_on"}
        results = json.loads((out_dir / "results.json").read_text())
        assert all(0 < row["p"] <= 1 for row in results["anova"])

    def test_unknown_anova_field_exits_one(self, tmp_path, capsys):
        data = cohort_csv(tmp_path, [30, 31, 32])
        code, _, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(tmp_path / "o"),
            "--anova", "iq",
        )
        assert code == 1 and "iq" in err

    @pytest.mark.parametrize("sweep", ["0.6:0.9:nan", "nan:0.9:0.03", "0.6:nan:0.03",
                                       "0.6:inf:0.03"])
    def test_non_finite_sweep_exits_one(self, monkeypatch, tmp_path, capsys, sweep):
        no_sweep_loop(monkeypatch)
        data = cohort_csv(tmp_path, [30, 31, 32])
        code, out, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(tmp_path / "o"),
            "--sweep", sweep,
        )
        assert (code, out) == (1, "")
        assert err == "error: sweep start, stop and step must be finite\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep, message", [
        ("0.6:1e300:0.03", "sweep levels must lie in (0, 1]"),
        ("0.6:0.9:1e-300", "sweep must have at most 10000 levels"),
    ])
    def test_unbounded_sweep_exits_one(self, monkeypatch, tmp_path, capsys, sweep, message):
        no_sweep_loop(monkeypatch)
        data = cohort_csv(tmp_path, [30, 31, 32])
        code, out, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(tmp_path / "o"),
            "--sweep", sweep,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_repeated_sweep_levels_exit_one(self, tmp_path, capsys):
        data = cohort_csv(tmp_path, [30, 31, 32])
        code, out, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(tmp_path / "o"),
            "--sweep", "0.8:0.8:1e-12",
        )
        assert (code, out) == (1, "")
        assert err == ("error: sweep step 1e-12 repeats level 0.8: "
                       "levels are rounded to 10 decimals\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bins", ["nan", "32,inf", "-inf,40", "30,nan,50"])
    def test_non_finite_bins_exit_one_before_the_input_loads(self, tmp_path, capsys, bins):
        code, out, err = run(
            capsys, "cohort", "--input", str(tmp_path / "missing.csv"),
            "--out-dir", str(tmp_path / "o"), "--bins", bins,
        )
        assert (code, out) == (1, "")
        assert err == "error: bin edges must be non-empty, finite and strictly ascending\n"
        assert not (tmp_path / "o").exists()

    def test_malformed_sweep_exits_one(self, tmp_path, capsys):
        data = cohort_csv(tmp_path, [30, 31, 32])
        code, _, err = run(
            capsys, "cohort", "--input", str(data), "--out-dir", str(tmp_path / "o"),
            "--sweep", "0.6-0.9",
        )
        assert code == 1 and "sweep" in err

    def test_reproducible_outputs(self, tmp_path, capsys):
        ages = [28, 29, 30, 38, 39, 40]
        data = cohort_csv(tmp_path, ages, seed=70)
        out_dir = tmp_path / "out"
        snapshots = []
        for _ in range(2):
            args = ["cohort", "--input", str(data), "--out-dir", str(out_dir),
                    "--sweep", "0.75:0.75:0.1", "--iterations", "11", "--seed", "9"]
            code, _, _ = run(capsys, *args)
            assert code == 0
            snapshots.append({
                name: (out_dir / name).read_bytes()
                for name in ("metrics.csv", "significance.csv", "anova.csv", "results.json")
            })
        assert snapshots[0] == snapshots[1]


class TestLayoutEquivalence:
    """One cohort as a one-file CSV and as volumes plus demographics."""

    def test_both_layouts_give_the_same_table_and_outputs(self, tmp_path, monkeypatch, capsys):
        text = subjects_csv_text(40, 12, seed=31)
        volumes, demographics = split_subject_rows([r.split(",") for r in text.splitlines()])
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir()
        two.mkdir()
        (one / "subjects.csv").write_text(text)
        (two / "subjects.csv").write_text(csv_text(volumes))
        (two / "demo.csv").write_text(csv_text(demographics))
        assert table_fields(load_subjects_csv(one / "subjects.csv")) == \
            table_fields(load_subjects_csv(two / "subjects.csv", two / "demo.csv"))

        commands = [
            ["fingerprint", "--out-dir", "fp"],
            ["cohort", "--out-dir", "co", "--sweep", "0.6:0.9:0.15", "--iterations", "3",
             "--n-rand", "1"],
        ]
        results = []
        for where, extra in ((one, []), (two, ["--demographics", "demo.csv"])):
            monkeypatch.chdir(where)
            streams = [run(capsys, *cmd, "--input", "subjects.csv", *extra) for cmd in commands]
            assert [code for code, _, _ in streams] == [0, 0]
            files = {
                p.relative_to(where).as_posix(): p.read_bytes().replace(
                    b'"demographics": "demo.csv"', b'"demographics": null')
                for p in sorted(where.glob("*/*"))
            }
            results.append((streams, files))
        assert sorted(results[0][1]) == [
            "co/anova.csv", "co/metrics.csv", "co/results.json", "co/significance.csv",
            "fp/fingerprints.json",
        ]
        assert results[0] == results[1]


class TestSubjectsFileChecks:
    """What both runs accept and reject in a subjects file, in either layout."""

    @pytest.mark.parametrize("command", ["fingerprint", "cohort"])
    @pytest.mark.parametrize("two_file", [False, True])
    def test_repeated_subject_id_rejected(self, tmp_path, capsys, command, two_file):
        rows = [r.split(",") for r in subjects_csv_text(12, 6, seed=4).splitlines()]
        files = split_subject_rows(rows) if two_file else [rows]
        files[0][5][0] = files[0][2][0]  # row 6 repeats the id of row 3
        files[0][9][-1] = "x"  # and row 10 holds a bad volume
        paths = [tmp_path / name for name in ("subjects.csv", "demo.csv")[:len(files)]]
        for path, content in zip(paths, files):
            path.write_text(csv_text(content))
        extra = ["--demographics", str(paths[1])] if two_file else []
        code, out, err = run(capsys, command, "--input", str(paths[0]), *extra,
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == ("error: invalid subject rows:\n"
                       f"  {paths[0]}: row 6: duplicate subject id 's0002'\n"
                       f"  {paths[0]}: row 10 (s0009): invalid volume 'x'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["fingerprint"],
        ["cohort", "--sweep", "0.6:0.9:0.3", "--iterations", "3", "--n-rand", "1"],
    ])
    def test_byte_order_mark_gives_the_same_outputs(self, tmp_path, monkeypatch, capsys,
                                                    command):
        text = subjects_csv_text(30, 8, seed=6)
        results = []
        for encoding in ("utf-8", "utf-8-sig"):
            where = tmp_path / encoding
            where.mkdir()
            (where / "subjects.csv").write_text(text, encoding=encoding)
            monkeypatch.chdir(where)
            streams = run(capsys, *command, "--input", "subjects.csv", "--out-dir", "out")
            assert streams[0] == 0, streams[2]
            results.append((streams, [p.read_bytes() for p in sorted(where.glob("out/*"))]))
        assert results[0] == results[1]


class TestRunCohortErrors:
    def config(self, tmp_path, data):
        return pipeline.RunConfig(input=str(data), out_dir=str(tmp_path / "out"), sweep_start=0.8,
                                  sweep_stop=0.8, iterations=5, n_rand=0)

    def test_constant_region_is_a_warning(self, tmp_path):
        data = cohort_csv(tmp_path, [30, 31, 32, 40, 41, 42])
        lines = data.read_text().splitlines()
        for i in (1, 2, 3):  # region r1 is constant across cohort A
            cells = lines[i].split(",")
            lines[i] = ",".join(cells[:4] + ["600.00000"] + cells[5:])
        data.write_text("\n".join(lines) + "\n")
        doc = pipeline.run_cohort(self.config(tmp_path, data))
        assert "G/A: zero-variance regions: r1" in doc["warnings"]
        assert "G/A vs B: zero-variance regions: r1" in doc["warnings"]
        assert [row["cohort"] for row in doc["metrics"]] == ["B"]
        assert (tmp_path / "out" / "results.json").is_file()

    def test_level_of_one_edge_is_a_warning(self, tmp_path):
        # At 30 regions, level 0.003 keeps 1 of the 435 possible edges: no
        # swap can rewire it, so no reference can be drawn.
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(80, 30, 9))
        config = pipeline.RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                                    sweep_start=0.003, sweep_stop=0.006, sweep_step=0.003,
                                    iterations=5, n_rand=1)
        doc = pipeline.run_cohort(config)
        cohorts = [(c["group"], c["cohort"]) for c in doc["cohorts"]]
        assert len(cohorts) == 10 and all(c["n_subjects"] >= 3 for c in doc["cohorts"])
        rows = [(row["group"], row["cohort"], row["sparsity"]) for row in doc["metrics"]]
        assert rows == [(g, c, s) for g, c in cohorts for s in (0.003, 0.006)]
        assert all(row["sigma"] is None and row["mean_degree"] == 2 / 30
                   for row in doc["metrics"] if row["sparsity"] == 0.003)
        assert [w for w in doc["warnings"] if " 0.003: " in w] == \
            [f"{g}/{c} sparsity 0.003: rewiring needs at least 2 edges, got 1" for g, c in cohorts]
        assert len(doc["permutation"]) == 2 * 10

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken permutation test")

        monkeypatch.setattr(pipeline, "permutation_test", broken)
        data = cohort_csv(tmp_path, [30, 31, 32, 40, 41, 42])
        with pytest.raises(TypeError, match="broken permutation test"):
            pipeline.run_cohort(self.config(tmp_path, data))


def reports_one_at_a_time(networks, n_rand, seed, swaps_per_edge):
    """``metrics._reports`` as one report per network, its references drawn for it alone."""
    out = []
    for b in networks:
        try:
            out.append((metrics_report_one_loop(b, n_rand, seed, swaps_per_edge), None))
        except NotEstimableError as exc:
            out.append((metrics_report_one_loop(b, 0), exc))
        except UndefinedMetricError as exc:
            out.append((None, exc))
    return out


class TestCohortBatches:
    """run_cohort reports each level's cohorts in one batch that shares reference draws."""

    OUTPUTS = ("metrics.csv", "significance.csv", "anova.csv", "results.json")

    @pytest.fixture
    def data(self, tmp_path):
        # Cohorts A-D of one group; region r1 is constant across cohort B, so
        # its association fails between cohorts whose sparse levels warn.
        ages = [28, 29, 30, 31, 38, 39, 40, 41, 48, 49, 50, 51, 58, 59, 60]
        path = cohort_csv(tmp_path, ages, n_regions=10, seed=51)
        lines = path.read_text().splitlines()
        for i in (5, 6, 7, 8):
            cells = lines[i].split(",")
            lines[i] = ",".join(cells[:4] + ["600.00000"] + cells[5:])
        path.write_text("\n".join(lines) + "\n")
        return path

    def config(self, tmp_path, data, **kwargs):
        return pipeline.RunConfig(input=str(data), out_dir=str(tmp_path / "out"),
                                  sweep_start=0.1, sweep_stop=0.5, sweep_step=0.1,
                                  iterations=5, seed=2, **kwargs)

    def test_warnings_keep_cohort_order(self, tmp_path, data):
        doc = pipeline.run_cohort(self.config(tmp_path, data, n_rand=3))
        assert doc["warnings"] == [
            "G/E: skipped (0 subjects < 3)",
            "G/A sparsity 0.1: random reference 0 has zero clustering",
            "G/A sparsity 0.2: random reference 0 has zero clustering",
            "G/B: zero-variance regions: r1",
            "G/D sparsity 0.1: random reference 0 has zero clustering",
            "G/D sparsity 0.2: random reference 0 has zero clustering",
            "G/A vs B: zero-variance regions: r1",
            "G/B vs C: zero-variance regions: r1",
            "G/B vs D: zero-variance regions: r1",
        ]
        rows = [(row["cohort"], row["sparsity"], row["sigma"] is None) for row in doc["metrics"]]
        assert rows == [(c, s, c != "C" and s < 0.3)
                        for c in "ACD" for s in (0.1, 0.2, 0.3, 0.4, 0.5)]

    @pytest.mark.parametrize("n_rand, swaps", [(0, 10), (2, 1), (3, 10), (5, 10)])
    def test_same_bytes_as_one_report_per_cohort(self, tmp_path, monkeypatch, data,
                                                 n_rand, swaps):
        config = self.config(tmp_path, data, n_rand=n_rand, swaps_per_edge=swaps)
        out_dir = tmp_path / "out"
        pipeline.run_cohort(config)
        batched = {name: (out_dir / name).read_bytes() for name in self.OUTPUTS}
        monkeypatch.setattr(pipeline, "_reports", reports_one_at_a_time)
        pipeline.run_cohort(config)
        assert {name: (out_dir / name).read_bytes() for name in self.OUTPUTS} == batched

    @pytest.mark.parametrize("n_rand", [0, 2, 3])
    def test_same_bytes_in_worker_processes_and_in_one(self, tmp_path, monkeypatch, data,
                                                       n_rand):
        config = self.config(tmp_path, data, n_rand=n_rand)
        out_dir = tmp_path / "out"
        # three workers whatever the CPU count, so the pool runs on any machine
        monkeypatch.setattr(pipeline, "_workers", lambda tasks: min(3, tasks))
        pooled_doc = pipeline.run_cohort(config)
        pooled = {name: (out_dir / name).read_bytes() for name in self.OUTPUTS}
        monkeypatch.setattr(pipeline, "_workers", lambda tasks: 1)
        assert pipeline.run_cohort(config) == pooled_doc
        assert {name: (out_dir / name).read_bytes() for name in self.OUTPUTS} == pooled

    def test_same_cli_output_in_worker_processes_and_in_one(self, tmp_path, monkeypatch,
                                                            capsys, data):
        args = ("cohort", "--input", str(data), "--out-dir", str(tmp_path / "out"),
                "--sweep", "0.1:0.5:0.1", "--iterations", "5", "--n-rand", "2", "--seed", "2")
        runs = []
        for workers in (3, 1):
            monkeypatch.setattr(pipeline, "_workers", lambda tasks: min(workers, tasks))
            runs.append(run(capsys, *args) + tuple(
                (tmp_path / "out" / name).read_bytes() for name in self.OUTPUTS))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "warning: G/B vs C: zero-variance regions: r1" in runs[0][2]
        assert multiprocessing.active_children() == []


class TestCsvFieldLimit:
    """A cell longer than the csv module's field size limit is an input error."""

    @pytest.mark.parametrize("command", ["fingerprint", "cohort"])
    def test_error_line_names_the_file_and_row(self, tmp_path, capsys, command):
        path = tmp_path / "subjects.csv"
        big = "1" * 140_000
        path.write_text("id,age,gender,group,r1,r2,r3\ns1,30,F,G,1,2,3\n\n"
                        f"s2,31,M,G,{big},2,3\ns3,32,F,G,1,2,3\n")
        code, out, err = run(capsys, command, "--input", str(path),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: row 3: field larger than field limit (131072)\n"
        assert not (tmp_path / "out").exists()

    def test_matrix_csv_error_names_the_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b,c\n0,1,0\n\n1,0,{'0' * 200_000}\n0,0,0\n")
        assert run(capsys, "encode", "--input", str(path)) == (
            1, "", f"error: {path}: row 3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("args, message", [
    (["cohort", "--iterations", "0"], "iterations must be >= 1"),
    (["cohort", "--n-rand", "-1"], "n_rand must be nonnegative"),
    (["cohort", "--swaps-per-edge", "-1"], "swaps_per_edge must be nonnegative"),
    (["fingerprint", "--threshold", "sparsity:1.5"],
     "threshold fraction must lie in (0, 1], got 1.5"),
    (["fingerprint", "--threshold", "consistency:0.3:per-subject"],
     "the consistency threshold spellings were removed: use sparsity:<f>, which thresholds "
     "each subject the same way"),
    (["fingerprint", "--threshold", "sparsity:0.3:per-subject"],
     "invalid threshold fraction '0.3:per-subject'; expected sparsity:<f>, e.g. sparsity:0.3"),
    (["fingerprint", "--threshold", "median:0.3"], "threshold mode must be 'sparsity', got 'median'"),
])
def test_bad_argument_exits_one_with_one_error_line(tmp_path, args, message):
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "ubnin", *args, "--input", str(tmp_path / "none.csv"),
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"))
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("fingerprint", "run_fingerprint"),
                                             ("cohort", "run_cohort")])
@pytest.mark.parametrize("error", [ValueError, KeyError, RuntimeError])
def test_program_fault_exits_three_with_one_line(tmp_path, capsys, monkeypatch, command, target,
                                                 error):
    # A bare ValueError is an invariant of the program, not bad input.
    def fault(config):
        raise error("an invariant broke")

    monkeypatch.setattr(cli, target, fault)
    code, out, err = run(capsys, command, "--input", str(tmp_path / "none.csv"),
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert re.fullmatch(rf"internal error: {error.__name__} at test_cli\.py:\d+: "
                        rf"{re.escape(str(error('an invariant broke')))}\n", err)
    assert not (tmp_path / "out").exists()


def run_in_child(args, env=None, limit=None):
    """``ubnin`` with ``args`` in a child process; ``limit`` caps the size of
    any file it writes (RLIMIT_FSIZE), and a write past it fails with EFBIG."""
    code = textwrap.dedent(f"""
        import resource, signal, sys
        sys.path.insert(0, {str(SRC)!r})
        from ubnin.cli import main
        if {limit!r} is not None:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, ({limit!r}, {limit!r}))
        sys.exit(main({list(args)!r}))
    """)
    env = dict(env or os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


class TestOutputFiles:
    OUTPUTS = ("metrics.csv", "significance.csv", "anova.csv", "results.json")

    def test_failed_rerun_leaves_the_earlier_files(self, tmp_path, capsys):
        data = cohort_csv(tmp_path, [28, 29, 30, 31, 38, 39, 40, 41, 48, 49, 50, 51])
        out_dir = tmp_path / "out"
        args = ["cohort", "--input", str(data), "--out-dir", str(out_dir),
                "--sweep", "0.7:0.8:0.05", "--iterations", "19", "--n-rand", "2"]
        assert run(capsys, *args)[0] == 0
        before = {name: (out_dir / name).read_bytes() for name in self.OUTPUTS}
        limit = len(before["metrics.csv"]) - 100
        done = run_in_child(args + ["--seed", "4"], limit=limit)
        assert done.returncode == 1
        assert "File too large" in done.stderr
        assert sorted(os.listdir(out_dir)) == sorted(self.OUTPUTS)
        assert {name: (out_dir / name).read_bytes() for name in self.OUTPUTS} == before

    @pytest.mark.parametrize("command", ["fingerprint", "cohort", "encode"])
    def test_same_bytes_under_an_ascii_locale(self, tmp_path, capsys, command):
        if command == "encode":
            data = tmp_path / "m.csv"
            data.write_text("région1,b,c\n0,1,1\n1,0,0\n1,0,0\n", encoding="utf-8")
            args = ["encode", "--input", str(data)]
        else:
            text = subjects_csv_text(30, 12, 5, groups=("Contrôle", "PD"))
            data = tmp_path / "subjects.csv"
            data.write_text(text.replace(",r1,", ",région1,", 1), encoding="utf-8")
            args = [command, "--input", str(data), "--out-dir", str(tmp_path / "out")]
        if command == "cohort":
            args += ["--sweep", "0.5:0.5:0.1", "--iterations", "5", "--n-rand", "0"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").glob("*"))}
        ascii_env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = run_in_child(args, env=ascii_env)
        assert (done.returncode, done.stdout) == (0, out), done.stderr
        assert {p.name: p.read_bytes() for p in sorted((tmp_path / "out").glob("*"))} == files
        if command == "cohort":
            assert "Contrôle".encode() in files["metrics.csv"]


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_input_file_exits_one(self, capsys):
        assert main(["encode", "--input", "/nonexistent/m.csv"]) == 1
