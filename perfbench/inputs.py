"""Seeded synthetic inputs for the benchmark workloads.

Everything here depends only on numpy and the standard library, so the checks
can rebuild the exact volumes the program read without going through
``ubnin``. Volumes are written with six decimals and read back with
``float``, which is what the program's loader does too.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLINICAL = ("updrs_off", "updrs_on", "hy_stage", "age_at_onset")
# Age bins of the paper: A <= 32, B 33-42, C 43-52, D 53-62, E >= 63.
BIN_EDGES = (32.0, 42.0, 52.0, 62.0)
BIN_RANGES = ((18.0, 32.0), (32.0, 42.0), (42.0, 52.0), (52.0, 62.0), (62.0, 80.0))
# Per-cohort subject counts of the paper, cohorts A..E.
PAPER_COUNTS = {"PD": (4, 18, 42, 69, 46), "HC": (5, 14, 23, 22, 6)}


@dataclass(frozen=True)
class Subjects:
    """The subjects one input file holds, exactly as the program reads them."""

    ids: tuple[str, ...]
    ages: np.ndarray        # (subjects,)
    groups: tuple[str, ...]
    clinical: np.ndarray    # (subjects, 4), NaN where a cell is empty
    volumes: np.ndarray     # (subjects, regions)

    @property
    def regions(self) -> int:
        return self.volumes.shape[1]

    def cohort(self, age: float) -> str:
        """Age cohort letter A..E, bins closed on the right as in the program."""
        return "ABCDE"[sum(age > e for e in BIN_EDGES)]


def make_subjects(seed: int, counts: dict[str, tuple[int, ...]], regions: int) -> Subjects:
    """Subjects with the given per-group, per-age-bin counts, in shuffled order.

    Volumes share one latent subject factor with region-specific loadings, so
    group correlation matrices carry structure rather than pure noise. Only
    PD subjects get clinical scores, as in the paper; HC cells stay empty.
    """
    rng = np.random.default_rng([20230602, seed])
    region_mean = rng.uniform(400.0, 900.0, regions)
    loading = rng.uniform(0.0, 1.0, regions)
    rows = []
    for group in sorted(counts):
        for (lo, hi), count in zip(BIN_RANGES, counts[group]):
            for _ in range(count):
                # ages in tenths of a year, strictly inside (lo, hi]
                age = int(rng.integers(int(lo * 10) + 1, int(hi * 10) + 1)) / 10
                rows.append((group, age))
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    n = len(rows)
    factor = rng.normal(0.0, 0.6, n)
    noise = rng.normal(0.0, 1.0, (n, regions))
    raw = region_mean + 40.0 * (factor[:, None] * loading + noise)
    volumes = np.array([[float(f"{v:.6f}") for v in row] for row in raw])
    clinical = np.full((n, len(CLINICAL)), np.nan)
    for i, (group, age) in enumerate(rows):
        if group == "PD":
            clinical[i] = (
                round(float(rng.uniform(15, 50)), 2),
                round(float(rng.uniform(8, 30)), 2),
                float(rng.integers(1, 4)),
                round(max(age - float(rng.uniform(2, 12)), 10.0), 1),
            )
    return Subjects(
        ids=tuple(f"s{i + 1:04d}" for i in range(n)),
        ages=np.array([age for _, age in rows]),
        groups=tuple(group for group, _ in rows),
        clinical=clinical,
        volumes=volumes,
    )


def region_labels(regions: int) -> tuple[str, ...]:
    return tuple(f"r{i}" for i in range(1, regions + 1))


def write_subjects_csv(subjects: Subjects, path: Path) -> None:
    """Combined-format subjects CSV, the program's documented input."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "age", "gender", "group", *CLINICAL, *region_labels(subjects.regions)])
        for i, sid in enumerate(subjects.ids):
            clinical = ["" if np.isnan(v) else repr(float(v)) for v in subjects.clinical[i]]
            writer.writerow(
                [sid, repr(float(subjects.ages[i])), "M" if i % 2 else "F", subjects.groups[i],
                 *clinical, *(f"{v:.6f}" for v in subjects.volumes[i])]
            )
