"""Synthetic graphs and subject datasets used across the test suite."""

from __future__ import annotations

import csv
import io

import numpy as np

from ubnin import BinaryNetwork, CohortTable, SubjectRecord, WeightedNetwork
from ubnin.subjects import CLINICAL_FIELDS, REQUIRED_COLUMNS


def complete_graph(n) -> BinaryNetwork:
    return BinaryNetwork(~np.eye(n, dtype=bool))


def empty_graph(n) -> BinaryNetwork:
    return BinaryNetwork(np.zeros((n, n), dtype=bool))


def path_graph(n) -> BinaryNetwork:
    e = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        e[i, i + 1] = e[i + 1, i] = True
    return BinaryNetwork(e)


def star_graph(leaves) -> BinaryNetwork:
    e = np.zeros((leaves + 1, leaves + 1), dtype=bool)
    e[0, 1:] = e[1:, 0] = True
    return BinaryNetwork(e)


def ring_lattice(n, k) -> BinaryNetwork:
    e = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for d in range(1, k // 2 + 1):
            v = (u + d) % n
            e[u, v] = e[v, u] = True
    return BinaryNetwork(e)


def watts_strogatz(n, k, p, seed) -> BinaryNetwork:
    """Ring lattice with each clockwise edge rewired to a random node with prob p."""
    rng = np.random.default_rng(seed)
    e = ring_lattice(n, k).edges.copy()
    for u in range(n):
        for d in range(1, k // 2 + 1):
            v = (u + d) % n
            if e[u, v] and rng.random() < p:
                candidates = np.flatnonzero(~e[u])
                candidates = candidates[candidates != u]
                if candidates.size:
                    w = int(rng.choice(candidates))
                    e[u, v] = e[v, u] = False
                    e[u, w] = e[w, u] = True
    return BinaryNetwork(e)


def random_bitmask(n_bits, rng) -> int:
    bits = rng.integers(0, 2, size=n_bits)
    return sum(int(b) << i for i, b in enumerate(bits))


def graph_from_bitmask(n, mask) -> BinaryNetwork:
    """Upper-triangle edges set from the bits of mask, row-major order."""
    e = np.zeros((n, n), dtype=bool)
    rows, cols = np.triu_indices(n, 1)
    for bit, (r, c) in enumerate(zip(rows, cols)):
        if (mask >> bit) & 1:
            e[r, c] = e[c, r] = True
    return BinaryNetwork(e)


def random_binary(n, p, rng) -> BinaryNetwork:
    upper = np.triu(rng.random((n, n)) < p, 1)
    return BinaryNetwork(upper | upper.T)


def random_weighted(n, rng, labels=None) -> WeightedNetwork:
    w = rng.random((n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightedNetwork(w, labels or ())


def region_labels(n):
    return tuple(f"r{i}" for i in range(1, n + 1))


def make_cohort(tag, n_subjects, n_regions, rng, ages=None, group=None) -> CohortTable:
    subjects = []
    for i in range(n_subjects):
        volumes = rng.normal(600.0, 40.0, n_regions)
        age = float(ages[i]) if ages is not None else float(rng.uniform(25, 70))
        subjects.append(
            SubjectRecord(
                id=f"{tag}{i + 1:03d}",
                age=age,
                gender="M" if i % 2 else "F",
                group=group or tag,
                volumes=volumes,
            )
        )
    return CohortTable(tag, region_labels(n_regions), tuple(subjects))


def make_null_pair(seed, n_subjects=20, n_regions=56):
    """Two cohorts drawn from one shared volume distribution."""
    rng = np.random.default_rng([9000, seed])
    a = make_cohort("A", n_subjects, n_regions, rng)
    b = make_cohort("B", n_subjects, n_regions, rng)
    return a, b


def subjects_csv_text(n_subjects, n_regions, seed, groups=("PD", "HC"), clinical=True,
                      decimals=6) -> str:
    """Combined-format subjects CSV with ages spread across the default bins.

    Volumes are written to ``decimals`` decimals: at 0 or 1, most subjects
    have equal weights across the cut of a sparsity threshold.
    """
    rng = np.random.default_rng(seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["id", "age", "gender", "group"]
    if clinical:
        header += ["updrs_off", "updrs_on", "hy_stage", "age_at_onset"]
    header += list(region_labels(n_regions))
    writer.writerow(header)
    for i in range(n_subjects):
        age = float(rng.uniform(22, 72))
        row = [f"s{i + 1:04d}", f"{age:.1f}", "M" if i % 2 else "F", groups[i % len(groups)]]
        if clinical:
            row += [
                f"{rng.uniform(15, 50):.2f}",
                f"{rng.uniform(8, 30):.2f}",
                str(int(rng.integers(1, 4))),
                f"{max(age - rng.uniform(2, 12), 10.0):.1f}",
            ]
        row += [f"{v:.{decimals}f}" for v in rng.normal(600.0, 40.0, n_regions)]
        writer.writerow(row)
    return buf.getvalue()


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def split_subject_rows(rows) -> tuple[list, list]:
    """Split combined-format rows into volumes-only rows and demographics rows.

    The demographics rows come in reverse subject order, so a loader must
    look them up by id.
    """
    header = rows[0]
    n_demo = 1
    while n_demo < len(header) and header[n_demo] in REQUIRED_COLUMNS + CLINICAL_FIELDS:
        n_demo += 1
    volumes = [[row[0]] + row[n_demo:] for row in rows]
    demographics = [header[:n_demo]] + [row[:n_demo] for row in reversed(rows[1:])]
    return volumes, demographics


def table_fields(table):
    """Everything a loaded table holds, in a form that compares with ==."""
    return (
        table.cohort_id,
        table.region_labels,
        [(s.id, s.age, s.gender, s.group, list(s.clinical.items()), s.volumes.tobytes())
         for s in table.subjects],
    )
