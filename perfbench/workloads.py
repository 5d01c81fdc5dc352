"""The benchmark's workloads: what one timed round runs, and its operations.

A round is one call of a pipeline runner on inputs written during set-up,
plus, for ``fingerprint``, reading every registry record back. Each round of a
run repeats the same operations on the same inputs, so the share of failed
operations does not depend on how many rounds fit into a run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

import ubnin
from ubnin import codec, pipeline

from inputs import CLINICAL, PAPER_COUNTS, Subjects, make_subjects, region_labels

# The two ends of the paper's sweep 0.60, 0.63, ..., 0.90. Every level does
# the same work at its own density; two levels keep a round short enough that
# a run holds ten or more, so the median round time shrugs off a busy moment.
ENDS = pipeline.sweep_values(0.6, 0.9, 0.3)
COHORTS = "ABCDE"
KEEP = 0.3  # fingerprint threshold: consistency:0.3:per-subject, the default
# Errors a runner raises on input it cannot handle; anything else is a bug
# and ends the benchmark.
RUN_ERRORS = (ubnin.UbninError, ValueError)


@dataclass(frozen=True)
class Round:
    """What one round produced: operation counts and the outputs to check."""

    attempted: int
    failed: int
    outputs: dict

    def digest(self) -> str:
        """Hash of everything the round produced, to compare rounds."""
        h = hashlib.sha256()
        if "out_dir" in self.outputs:
            for path in sorted(Path(self.outputs["out_dir"]).iterdir()):
                h.update(path.name.encode() + path.read_bytes())
        elif "registry" in self.outputs:
            h.update(json.dumps(self.outputs["registry"], sort_keys=True).encode())
            for _, code, parsed, edges in self.outputs["read_back"]:
                h.update(repr((code, parsed)).encode() + edges.tobytes())
        else:
            h.update(self.outputs["error"].encode())
        return h.hexdigest()


@dataclass(frozen=True)
class CohortWorkload:
    """``run_cohort`` on a paper-shaped cohort: sweep, references, permutations."""

    name: str
    n_rand: int
    iterations: int
    counts: dict | None = None
    regions: int = 90
    sweep: tuple = ENDS

    def subjects(self, seed: int) -> Subjects:
        return make_subjects(seed, self.counts or PAPER_COUNTS, self.regions)

    def config(self, seed: int, input_csv: Path, out_dir: Path) -> pipeline.RunConfig:
        return pipeline.RunConfig(
            input=str(input_csv), out_dir=str(out_dir), sweep_start=self.sweep[0],
            sweep_stop=self.sweep[-1], sweep_step=round(self.sweep[1] - self.sweep[0], 10),
            iterations=self.iterations, seed=seed, n_rand=self.n_rand,
        )

    def expected_ops(self, subjects: Subjects) -> int:
        """Output units a run must produce: metric rows, pairs, ANOVA fields."""
        groups = set(subjects.groups)
        with_scores = {g for g, row in zip(subjects.groups, subjects.clinical)
                       if not np.isnan(row).all()}
        return (len(groups) * len(COHORTS) * len(self.sweep)
                + len(groups) * len(list(combinations(COHORTS, 2)))
                + len(with_scores) * len(CLINICAL))

    def run_round(self, seed: int, subjects: Subjects, input_csv: Path, out_dir: Path) -> Round:
        attempted = self.expected_ops(subjects)
        try:
            doc = pipeline.run_cohort(self.config(seed, input_csv, out_dir))
        except RUN_ERRORS as exc:
            return Round(attempted, attempted, {"error": repr(exc)})
        produced = len(doc["metrics"]) + len(doc["permutation"]) + len(doc["anova"])
        return Round(attempted, attempted - produced, {"out_dir": out_dir})

    def check(self, seed: int, subjects: Subjects, r: Round) -> list[str]:
        from checks import CohortCheck

        if "out_dir" not in r.outputs:
            return []
        return CohortCheck(self, seed, subjects).run(r.outputs["out_dir"])


@dataclass(frozen=True)
class FingerprintWorkload:
    """``run_fingerprint`` on many subjects, then every record read back."""

    name: str
    per_bin: int
    regions: int = 90

    def subjects(self, seed: int) -> Subjects:
        counts = {g: (self.per_bin,) * len(COHORTS) for g in ("PD", "HC")}
        return make_subjects(seed, counts, self.regions)

    def config(self, seed: int, input_csv: Path, out_dir: Path) -> pipeline.RunConfig:
        return pipeline.RunConfig(input=str(input_csv), out_dir=str(out_dir), seed=seed,
                                  threshold_fraction=KEEP)

    def run_round(self, seed: int, subjects: Subjects, input_csv: Path, out_dir: Path) -> Round:
        attempted = len(subjects.ids)
        try:
            doc = pipeline.run_fingerprint(self.config(seed, input_csv, out_dir))
        except RUN_ERRORS as exc:
            return Round(attempted, attempted, {"error": repr(exc)})
        labels = region_labels(self.regions)
        registry = json.loads(Path(doc["registry_path"]).read_text())
        read_back = []
        for rec in registry["records"]:
            try:
                code = codec.from_record(
                    {"n": rec["n"], "numerator": rec["numerator"], "scale": rec["scale"]}
                )
                parsed = codec.parse_decimal_string(rec["value"], rec["n"])
                read_back.append((rec, code, parsed, codec.decode(code, labels).edges))
            except RUN_ERRORS:
                continue
        return Round(attempted, attempted - len(read_back),
                     {"registry": registry, "read_back": read_back})

    def check(self, seed: int, subjects: Subjects, r: Round) -> list[str]:
        from checks import check_fingerprint

        if "registry" not in r.outputs:
            return []
        return check_fingerprint(subjects, KEEP, r.outputs)


WORKLOADS = {
    w.name: w
    for w in (
        # Rewiring for the small-world references dominates. One reference
        # per level and one permutation iteration are the least that runs
        # every stage.
        CohortWorkload("cohort-smallworld", n_rand=1, iterations=1),
        # No references: the permutation test and its edge ranking dominate.
        CohortWorkload("cohort-permutation", n_rand=0, iterations=24),
        # Loader, per-subject thresholding and the codec, both ways.
        FingerprintWorkload("fingerprint", per_bin=40),
    )
}
