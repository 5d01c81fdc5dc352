"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ubnin import (
    complete_graph_code,
    decode,
    degree_sequence,
    edge_count,
    encode,
    encode_float64_emulation,
    mean_clustering,
    nodal_clustering,
    characteristic_path_length,
    one_way_anova,
    permutation_test,
    small_world_index,
    sparsity_threshold,
    random_reference,
    to_decimal_string,
    to_float64,
)
from ubnin.cli import main
from oracles import (
    clustering_brute,
    cpl_floyd,
    f_statistic_fraction,
    f_tail_mpmath,
    kept_edges_oracle,
)
from synth import (
    complete_graph,
    graph_from_bitmask,
    make_null_pair,
    random_binary,
    random_weighted,
    subjects_csv_text,
    watts_strogatz,
)

K10_DECIMAL = "511.999999999985448084771633148193359375"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def test_01_exact_decimal_of_k10():
    with criterion(1, "complete graph on 10 nodes renders to the exact 39-digit decimal"):
        assert to_decimal_string(encode(complete_graph(10))) == K10_DECIMAL


def test_02_double_precision_agreement():
    with criterion(2, "double renderings and emulation agree with the reference rows"):
        expected = {20: 524288.0, 30: 536870912.0, 40: 549755813888.0, 50: 562949953421312.0}
        for n, value in expected.items():
            assert to_float64(encode(complete_graph(n))) == value
        k1024 = encode_float64_emulation(complete_graph(1024))
        assert f"{k1024:.14e}" == f"{8.98846567431158e307:.14e}"  # 15 significant digits
        assert not math.isfinite(encode_float64_emulation(complete_graph(1025)))


def test_03_exact_encoding_beyond_the_double_ceiling():
    with criterion(3, "exact encode of the 1025-node complete graph in under 5 s"):
        started = time.perf_counter()
        code = encode(complete_graph(1025))
        elapsed = time.perf_counter() - started
        oracle = complete_graph_code(1025)
        assert code == oracle
        assert oracle.scale == 523776
        assert oracle.numerator == 2 ** (1024 + 523776) - 1
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_04_bijection_over_all_five_node_networks():
    with criterion(4, "1024 distinct codes and perfect round-trips on 5 nodes in under 1 s"):
        started = time.perf_counter()
        seen = set()
        for mask in range(1024):
            network = graph_from_bitmask(5, mask)
            code = encode(network)
            seen.add((code.numerator, code.scale))
            assert decode(code) == network
        elapsed = time.perf_counter() - started
        assert len(seen) == 1024
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_05_metric_oracle_equivalence():
    with criterion(5, "clustering and path length match brute force on 200 random graphs"):
        rng = np.random.default_rng(500)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            b = random_binary(n, float(rng.uniform(0.1, 0.95)), rng)
            nodal = nodal_clustering(b)
            assert np.allclose(nodal, clustering_brute(b.edges), atol=1e-12)
            assert abs(mean_clustering(b) - np.mean(clustering_brute(b.edges))) <= 1e-12
            if edge_count(b) > 0:
                length, frac = characteristic_path_length(b)
                exp_length, exp_frac = cpl_floyd(b.edges)
                assert abs(length - exp_length) <= 1e-12
                assert abs(frac - exp_frac) <= 1e-12
            checked += 1


def test_06_threshold_exactness_and_nesting():
    with criterion(6, "kept-edge counts exact and nested over 100 networks x 11 levels"):
        rng = np.random.default_rng(600)
        levels = [round(0.6 + 0.03 * i, 10) for i in range(11)]
        for _ in range(100):
            n = int(rng.integers(3, 40))
            w = random_weighted(n, rng)
            uppers = w.weights[np.triu_indices(n, 1)]
            assert np.unique(uppers).size == uppers.size  # distinct weights
            total = n * (n - 1) // 2
            previous = set()
            for s in levels:
                b = sparsity_threshold(w, s)
                assert edge_count(b) == kept_edges_oracle(s, total)
                rows, cols = np.nonzero(np.triu(b.edges, 1))
                current = set(zip(rows.tolist(), cols.tolist()))
                assert previous <= current
                previous = current


def test_07_small_world_sanity():
    with criterion(7, "rewired ring lattice scores sigma > 1 with 100 degree-true references"):
        lattice = watts_strogatz(56, 6, 0.1, seed=42)
        original_degrees = degree_sequence(lattice)
        for idx in range(100):
            reference = random_reference(lattice, seed=[7, idx])
            assert np.array_equal(degree_sequence(reference), original_degrees)
        result = small_world_index(lattice, n_rand=100, seed=7)
        assert result.sigma > 1.0


def test_08_permutation_test_calibration():
    with criterion(8, "null calibration >= 45/50 and a bit-identical rerun"):
        insignificant = 0
        for run in range(50):
            group_a, group_b = make_null_pair(run)
            started = time.perf_counter()
            result = permutation_test(group_a, group_b, [0.8], iterations=1000, seed=0)
            elapsed = time.perf_counter() - started
            assert elapsed < 60.0, f"run {run} took {elapsed:.1f}s"
            if run == 0:
                reference = result
            if result.p_value[0] > 0.05:
                insignificant += 1
        assert insignificant >= 45, f"only {insignificant}/50 runs above 0.05"

        group_a, group_b = make_null_pair(0)
        repeat = permutation_test(group_a, group_b, [0.8], iterations=1000, seed=0)
        assert repeat == reference


def test_09_anova_oracle():
    with criterion(9, "ANOVA matches the high-precision oracle to 1e-10 relative error"):
        result = one_way_anova([[1, 2], [5, 6]])
        exact_f = float(f_statistic_fraction([[1, 2], [5, 6]]))
        oracle_p = float(f_tail_mpmath(exact_f, 1, 2, dps=50))
        assert result.F == pytest.approx(exact_f, rel=1e-10)
        assert result.p == pytest.approx(oracle_p, rel=1e-10)
        identical = one_way_anova([[4.0, 4.0], [4.0, 4.0, 4.0]])
        assert identical.F == 0.0 and identical.p == 1.0


def test_10_end_to_end_reproducibility(tmp_path, capsys):
    with criterion(10, "250 synthetic subjects fingerprint to 250 distinct codes, twice, byte-identical"):
        data = tmp_path / "subjects.csv"
        data.write_text(subjects_csv_text(250, 56, seed=250))
        out_dir = tmp_path / "registry"
        snapshots = []
        for _ in range(2):
            assert main(["fingerprint", "--input", str(data), "--out-dir", str(out_dir)]) == 0
            capsys.readouterr()
            snapshots.append((out_dir / "fingerprints.json").read_bytes())
        assert snapshots[0] == snapshots[1]
        import json

        doc = json.loads(snapshots[0])
        assert doc["subjects"] == 250
        assert doc["distinct_codes"] == 250
        assert doc["duplicates"] == []
        # 30% of the 1540 possible edges on 56 regions survive thresholding
        from ubnin import UbninCode

        first = doc["records"][0]
        network = decode(UbninCode(first["n"], int(first["numerator"]), first["scale"]))
        assert edge_count(network) == 462
