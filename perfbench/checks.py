"""Checks of every workload output against computations made apart from ubnin.

The benchmark thresholds the networks itself, with a stable ``argsort`` whose
tie order (ascending row, then column) is the one the program documents, and
recomputes clustering and path length with networkx, codes with the Fraction
fold of ``tests/oracles.py``, and ANOVA with ``scipy.stats.f_oneway``. Method
properties are checked as well: kept-edge counts, degree-preserving rewiring,
sigma = gamma / lambda, p-values on their lattice, decode(encode(x)) = x and
distinct codes. Each check returns a list of error strings; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import stats as sps

from oracles import encode_fraction, kept_edges_oracle
from ubnin import BinaryNetwork
from ubnin.metrics import random_reference

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Independent computations
# ---------------------------------------------------------------------------

def correlation(volumes: np.ndarray) -> np.ndarray:
    """Region-by-region Pearson correlation across subjects, zero diagonal."""
    c = np.corrcoef(volumes, rowvar=False)
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 0.0)
    return c


def similarity(volumes: np.ndarray) -> np.ndarray:
    """One subject's similarity weights 1 / ((v_i - v_j)^2 + 1), zero diagonal."""
    d = volumes[:, None] - volumes[None, :]
    w = 1.0 / (d * d + 1.0)
    np.fill_diagonal(w, 0.0)
    return w


def threshold(weights: np.ndarray, keep: float) -> np.ndarray:
    """Keep the round(keep * n(n-1)/2) strongest edges; ties by (row, col)."""
    return next(thresholds(weights, (keep,)))


def thresholds(weights: np.ndarray, levels):
    """``threshold`` at each level, from one stable ranking of the edges."""
    n = weights.shape[0]
    rows, cols = np.triu_indices(n, 1)
    order = np.argsort(-weights[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    for keep in levels:
        k = kept_edges_oracle(keep, rows.size)
        e = np.zeros((n, n), dtype=bool)
        e[rows[:k], cols[:k]] = True
        yield e | e.T


def to_graph(edges: np.ndarray) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(edges.shape[0]))
    rows, cols = np.nonzero(np.triu(edges, 1))
    g.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return g


def nx_clustering(edges: np.ndarray) -> float:
    """Mean clustering from networkx triangle counts, degree < 2 as 0."""
    g = to_graph(edges)
    triangles = nx.triangles(g)
    total = 0.0
    for v, k in g.degree():
        if k >= 2:
            total += 2.0 * triangles[v] / (k * (k - 1))
    return total / g.number_of_nodes()


def nx_path_length(edges: np.ndarray) -> tuple[float, float]:
    """Mean distance over reachable ordered pairs, and their share of all pairs."""
    n = edges.shape[0]
    dist = nx.floyd_warshall_numpy(to_graph(edges))
    reach = np.isfinite(dist) & ~np.eye(n, dtype=bool)
    return float(dist[reach].sum() / reach.sum()), float(reach.sum() / (n * (n - 1)))


def matrix_clustering(edges: np.ndarray) -> float:
    """Mean clustering from the diagonal of A^3, for the permutation nulls."""
    a = edges.astype(np.float64)
    closed = np.einsum("ij,ij->i", a @ a, a)
    k = a.sum(axis=1)
    c = np.divide(closed, k * (k - 1), out=np.zeros_like(closed), where=k >= 2)
    return float(c.mean())


def upper_edges(edges: np.ndarray) -> int:
    return int(np.count_nonzero(np.triu(edges, 1)))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Cohort workloads
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class CohortCheck:
    """Checks one ``run_cohort`` output directory of a cohort workload."""

    def __init__(self, workload, seed: int, subjects):
        self.w = workload
        self.seed = seed
        self.s = subjects
        self.errors: list[str] = []
        self.members = {}
        for i, (group, age) in enumerate(zip(subjects.groups, subjects.ages)):
            self.members.setdefault((group, subjects.cohort(age)), []).append(i)
        self._nets = {}

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def network(self, group: str, cohort: str, s: float) -> np.ndarray:
        key = (group, cohort)
        if key not in self._nets:
            self._nets[key] = correlation(self.s.volumes[self.members[key]])
        return threshold(self._nets[key], s)

    def run(self, out_dir: Path) -> list[str]:
        out_dir = Path(out_dir)
        results = json.loads((out_dir / "results.json").read_text())
        if results["warnings"]:
            self.fail(f"warnings: {results['warnings'][:3]}")
        for c in results["cohorts"]:
            size = len(self.members.get((c["group"], c["cohort"]), ()))
            if c["n_subjects"] != size:
                self.fail(f"{c['group']}/{c['cohort']}: {c['n_subjects']} subjects, expected {size}")
        clustering = self.check_metrics(read_csv(out_dir / "metrics.csv"))
        self.check_significance(read_csv(out_dir / "significance.csv"), clustering)
        self.check_anova(read_csv(out_dir / "anova.csv"))
        return self.errors

    def check_metrics(self, rows: list[dict]) -> dict:
        """Every metrics.csv row against networkx on the benchmark's own networks."""
        groups = sorted(set(self.s.groups))
        want = {(g, c, s) for g in groups for c in "ABCDE" for s in self.w.sweep}
        got = [(r["group"], r["cohort"], float(r["sparsity"])) for r in rows]
        if sorted(got) != sorted(want):
            self.fail(f"metrics.csv holds {len(got)} rows, expected one per cohort and level")
        cohorts = sorted(self.members)
        clustering = {}
        for r, key in zip(rows, got):
            g, c, s = key
            if key not in want:
                continue
            e = self.network(g, c, s)
            n = e.shape[0]
            where = f"metrics {g}/{c} sparsity {s}"
            k = kept_edges_oracle(s, n * (n - 1) // 2)
            if float(r["mean_degree"]) != 2.0 * k / n:
                self.fail(f"{where}: mean_degree {r['mean_degree']} means other than {k} kept edges")
            if int(r["n_subjects"]) != len(self.members[(g, c)]):
                self.fail(f"{where}: n_subjects {r['n_subjects']}")
            clustering[key] = nx_clustering(e)
            if not close(float(r["mean_clustering"]), clustering[key]):
                self.fail(f"{where}: mean_clustering {r['mean_clustering']} != {clustering[key]!r}")
            length, reach = nx_path_length(e)
            if not close(float(r["char_path_length"]), length):
                self.fail(f"{where}: char_path_length {r['char_path_length']} != {length!r}")
            if not close(float(r["reachable_pair_fraction"]), reach):
                self.fail(f"{where}: reachable_pair_fraction {r['reachable_pair_fraction']}")
            self.check_small_world(r, where)
            sampled = cohorts[self.w.sweep.index(s) % len(cohorts)] == (g, c)
            if sampled and self.w.n_rand > 0 and all((r["gamma"], r["lambda"])):
                self.check_references(r, key, e, clustering[key], length)
        return clustering

    def check_small_world(self, r: dict, where: str) -> None:
        trio = (r["sigma"], r["gamma"], r["lambda"])
        if self.w.n_rand == 0:
            if any(trio) or r["n_rand"]:
                self.fail(f"{where}: small-world fields set with references off")
            return
        if not all(trio):
            self.fail(f"{where}: small-world fields missing")
            return
        sigma, gamma, lam = (float(x) for x in trio)
        if sigma != gamma / lam:
            self.fail(f"{where}: sigma {sigma!r} != gamma / lambda {gamma / lam!r}")
        if (int(r["n_rand"]), int(r["swaps_per_edge"]), int(r["seed"])) != (
                self.w.n_rand, 10, self.seed):
            self.fail(f"{where}: reference settings {r['n_rand']}, {r['swaps_per_edge']}, {r['seed']}")

    def check_references(self, r: dict, key: tuple, e: np.ndarray,
                         clustering: float, length: float) -> None:
        """gamma and lambda from the program's rewiring, checked to keep every
        degree, and networkx metrics of the rewired networks.

        Rewiring costs as much here as in the timed round, so one row per
        sweep level is checked, cycling through the cohorts; sigma = gamma /
        lambda is checked on every row.
        """
        c_ref, l_ref = [], []
        for idx in range(self.w.n_rand):
            ref = random_reference(BinaryNetwork(e), seed=[self.seed, idx], swaps_per_edge=10).edges
            if not np.array_equal(ref.sum(axis=0), e.sum(axis=0)) or ref.diagonal().any():
                self.fail(f"reference {key} #{idx}: rewiring changed a degree")
            c_ref.append(nx_clustering(ref))
            l_ref.append(nx_path_length(ref)[0])
        gamma = clustering / float(np.mean(c_ref))
        lam = length / float(np.mean(l_ref))
        if not close(float(r["gamma"]), gamma) or not close(float(r["lambda"]), lam):
            self.fail(f"reference {key}: gamma/lambda {r['gamma']}/{r['lambda']} "
                      f"!= {gamma!r}/{lam!r}")

    def check_significance(self, rows: list[dict], clustering: dict) -> None:
        """Observed differences, p-value lattice and null distribution of
        every pair."""
        iterations = self.w.iterations
        by_pair = {}
        for r in rows:
            by_pair.setdefault((r["group"], r["cohort_a"], r["cohort_b"]), []).append(r)
        want = {(g, a, b) for g in sorted(set(self.s.groups)) for a, b in combinations("ABCDE", 2)}
        if set(by_pair) != want:
            self.fail(f"significance.csv covers {len(by_pair)} pairs, expected {len(want)}")
        for (g, a, b), pair_rows in sorted(by_pair.items()):
            where = f"pair {g}/{a}-{b}"
            if [float(r["sparsity"]) for r in pair_rows] != list(self.w.sweep):
                self.fail(f"{where}: sparsity levels differ from the sweep")
                continue
            for r in pair_rows:
                s = float(r["sparsity"])
                want_diff = clustering.get((g, a, s), math.nan) - clustering.get((g, b, s), math.nan)
                if not close(float(r["observed_diff"]), want_diff):
                    self.fail(f"{where} sparsity {s}: observed_diff {r['observed_diff']} != {want_diff!r}")
                if (int(r["iterations"]), int(r["seed"]), r["tail"], r["metric"]) != (
                        iterations, self.seed, "two-tailed", "mean_clustering"):
                    self.fail(f"{where}: settings {r['iterations']}, {r['seed']}, {r['tail']}")
                exceed = float(r["p_value"]) * (1 + iterations) - 1
                if abs(exceed - round(exceed)) > 1e-6 or not 0 <= round(exceed) <= iterations:
                    self.fail(f"{where} sparsity {s}: p_value {r['p_value']} off the lattice")
            self.check_null(g, a, b, pair_rows)

    def check_null(self, g: str, a: str, b: str, pair_rows: list[dict]) -> None:
        """Redraw every permutation of a pair from its documented stream
        (seed, t) and recompute the null distribution independently."""
        rows_a, rows_b = self.members[(g, a)], self.members[(g, b)]
        pool = np.vstack([self.s.volumes[rows_a], self.s.volumes[rows_b]])
        n_a = len(rows_a)

        def stat(idx_a, idx_b):
            nets_a = thresholds(correlation(pool[idx_a]), self.w.sweep)
            nets_b = thresholds(correlation(pool[idx_b]), self.w.sweep)
            return [matrix_clustering(ea) - matrix_clustering(eb) for ea, eb in zip(nets_a, nets_b)]

        observed = np.array(stat(np.arange(n_a), np.arange(n_a, len(pool))))
        draws = []
        for t in range(self.w.iterations):
            perm = np.random.default_rng([self.seed, t]).permutation(len(pool))
            draws.append(stat(perm[:n_a], perm[n_a:]))
        draws = np.array(draws)
        # A draw within rounding of the observed value may fall either side.
        gap = np.abs(draws) - np.abs(observed)
        slack = 1e-12 * np.maximum(np.abs(observed), 1e-12)
        least = (gap > slack).sum(axis=0)
        most = (gap >= -slack).sum(axis=0)
        for r, lo, hi, want_mean in zip(pair_rows, least, most, draws.mean(axis=0)):
            where = f"null of {g}/{a}-{b} sparsity {r['sparsity']}"
            k = float(r["p_value"]) * (1 + self.w.iterations) - 1
            if not lo - 1e-6 <= k <= hi + 1e-6:
                self.fail(f"{where}: p_value {r['p_value']} implies {k:g} exceedances, "
                          f"expected {lo}..{hi}")
            if not close(float(r["perm_mean_diff"]), float(want_mean)):
                self.fail(f"{where}: perm_mean_diff {r['perm_mean_diff']} != {want_mean!r}")

    def check_anova(self, rows: list[dict]) -> None:
        """Every ANOVA field against scipy.stats.f_oneway across cohorts A..E."""
        from inputs import CLINICAL

        want = {}
        for g in sorted(set(self.s.groups)):
            for f, name in enumerate(CLINICAL):
                groups = []
                for c in "ABCDE":
                    vals = self.s.clinical[self.members[(g, c)], f]
                    vals = vals[~np.isnan(vals)]
                    if vals.size:
                        groups.append(vals)
                if len(groups) >= 2:
                    want[(g, name)] = groups
        got = {(r["group"], r["field"]): r for r in rows}
        if set(got) != set(want):
            self.fail(f"anova.csv fields {sorted(got)} != {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            r, groups = got[key], want[key]
            ref = sps.f_oneway(*groups)
            n_values = sum(v.size for v in groups)
            if not close(float(r["F"]), float(ref.statistic)) or not math.isclose(
                    float(r["p"]), float(ref.pvalue), rel_tol=1e-7):
                self.fail(f"anova {key}: F={r['F']} p={r['p']} != "
                          f"{ref.statistic!r}, {ref.pvalue!r}")
            if (int(r["df_between"]), int(r["df_within"]), int(r["n_groups"]), int(r["n_values"])) != (
                    len(groups) - 1, n_values - len(groups), len(groups), n_values):
                self.fail(f"anova {key}: degrees of freedom or counts differ")


# ---------------------------------------------------------------------------
# Fingerprint workload
# ---------------------------------------------------------------------------

def check_fingerprint(subjects, keep: float, outputs: dict) -> list[str]:
    """Registry and read-back against the benchmark's own thresholding and
    the Fraction fold of the code."""
    errors: list[str] = []
    registry, read_back = outputs["registry"], outputs["read_back"]
    n_subjects = len(subjects.ids)
    if registry["subjects"] != n_subjects or len(registry["records"]) != n_subjects:
        errors.append(f"registry holds {registry['subjects']} subjects, expected {n_subjects}")
    if [rec["id"] for rec in registry["records"]] != list(subjects.ids):
        errors.append("registry ids differ from the input order")
    codes = {(rec["numerator"], rec["scale"]) for rec in registry["records"]}
    if len(codes) != n_subjects or registry["distinct_codes"] != n_subjects or registry["duplicates"]:
        errors.append(f"{n_subjects - len(codes)} duplicate codes across subjects")
    index = {sid: i for i, sid in enumerate(subjects.ids)}
    for rec, code, parsed, decoded in read_back:
        where = f"record {rec['id']}"
        if rec["id"] not in index:
            errors.append(f"{where}: no such subject")
            continue
        e = threshold(similarity(subjects.volumes[index[rec["id"]]]), keep)
        n = e.shape[0]
        if rec["n"] != n or upper_edges(decoded) != kept_edges_oracle(keep, n * (n - 1) // 2):
            errors.append(f"{where}: n={rec['n']} with {upper_edges(decoded)} kept edges")
        if not np.array_equal(decoded, e):
            errors.append(f"{where}: decoded network differs from the thresholded one")
        want = encode_fraction(e)
        if Fraction(int(rec["numerator"]), 1 << rec["scale"]) != want:
            errors.append(f"{where}: numerator/scale differ from the Fraction fold")
        if Fraction(rec["value"]) != want:
            errors.append(f"{where}: decimal value differs from the Fraction fold")
        if parsed != code:
            errors.append(f"{where}: decimal and record forms parse to different codes")
    return errors
