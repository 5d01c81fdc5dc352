"""End-to-end runs: subject fingerprinting and cohort metric analysis.

Both runners are deterministic functions of (input files, RunConfig): output
files embed the effective configuration and package version, carry no
timestamps, and are byte-identical across repeated runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, asdict
from itertools import combinations
from pathlib import Path

from . import __version__
from .codec import encode, to_decimal_string, to_record
from .errors import UbninError, ValidationError
from .graphs import consistency_threshold, sparsity_threshold
from .metrics import _reports
from .stats import PermutationWorkspace, one_way_anova, permutation_test
from .subjects import (
    CLINICAL_FIELDS,
    DEFAULT_BIN_EDGES,
    CohortTable,
    _check_bin_edges,
    age_binning,
    group_association_matrix,
    individual_network,
    load_subjects_csv,
    residualize_covariate,
)
# Not called here: kept only because perfbench/tracing.py WRAPPED looks it up.
from .metrics import metrics_report  # noqa: F401

THRESHOLD_MODES = ("sparsity", "consistency")
THRESHOLD_STRATEGIES = ("per-subject", "group-mask")
MIN_COHORT_SIZE = 3  # correlation across fewer subjects is meaningless
MAX_SWEEP_LEVELS = 10_000


@dataclass
class RunConfig:
    """Effective settings of one pipeline run; serialized into every output."""

    input: str
    out_dir: str
    demographics: str | None = None
    threshold_mode: str = "consistency"
    threshold_fraction: float = 0.3
    threshold_strategy: str = "per-subject"
    sweep_start: float = 0.6
    sweep_stop: float = 0.9
    sweep_step: float = 0.03
    bin_edges: tuple[float, ...] = DEFAULT_BIN_EDGES
    iterations: int = 1000
    seed: int = 0
    residualize: str | None = None
    n_rand: int = 100
    swaps_per_edge: int = 10
    anova_fields: tuple[str, ...] | None = None

    def __post_init__(self):
        self.bin_edges = _check_bin_edges(self.bin_edges)
        if self.anova_fields is not None:
            self.anova_fields = tuple(self.anova_fields)
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValidationError(f"threshold mode must be one of {THRESHOLD_MODES}")
        if self.threshold_strategy not in THRESHOLD_STRATEGIES:
            raise ValidationError(f"threshold strategy must be one of {THRESHOLD_STRATEGIES}")
        if self.threshold_mode != "consistency" and self.threshold_strategy != "per-subject":
            raise ValidationError("only consistency thresholds take a strategy")
        if not 0 < self.threshold_fraction <= 1:
            raise ValidationError("threshold fraction must lie in (0, 1]")
        for name in ("iterations", "seed", "n_rand", "swaps_per_edge"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.n_rand < 0 or self.swaps_per_edge < 0:
            raise ValidationError("n_rand and swaps_per_edge must be nonnegative")
        bad = [f for f in (self.anova_fields or ()) if f not in CLINICAL_FIELDS]
        if bad:
            raise ValidationError(
                f"unknown clinical field {bad[0]!r}; choose from {', '.join(CLINICAL_FIELDS)}"
            )
        sweep_values(self.sweep_start, self.sweep_stop, self.sweep_step)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["bin_edges"] = list(self.bin_edges)
        d["anova_fields"] = None if self.anova_fields is None else list(self.anova_fields)
        return d


def sweep_values(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Sparsity levels start, start+step, ... up to and including stop.

    Each level is rounded to 10 decimals; a step so small that two levels
    round to the same value is rejected.
    """
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError("sweep start, stop and step must be finite")
    if step <= 0:
        raise ValidationError("sweep step must be positive")
    if stop < start:
        raise ValidationError("sweep stop must be >= start")
    # Levels run up to stop + 1e-9; these two checks bound the loop below.
    if start <= 0 or stop > 1 + 1e-9:
        raise ValidationError("sweep levels must lie in (0, 1]")
    if (stop + 1e-9 - start) / step >= MAX_SWEEP_LEVELS:
        raise ValidationError(f"sweep must have at most {MAX_SWEEP_LEVELS} levels")
    vals = []
    i = 0
    while True:
        v = round(start + i * step, 10)
        if v > stop + 1e-9:
            break
        vals.append(v)
        i += 1
    if not vals or any(not 0 < v <= 1 for v in vals):
        raise ValidationError("sweep levels must lie in (0, 1]")
    repeated = next((v for v, w in zip(vals, vals[1:]) if v == w), None)
    if repeated is not None:
        raise ValidationError(
            f"sweep step {step!r} repeats level {repeated!r}: levels are rounded to 10 decimals"
        )
    return tuple(vals)


def parse_threshold_spec(text: str) -> tuple[str, float, str]:
    """Parse 'sparsity:<f>' or 'consistency:<f>[:<strategy>]' flag values."""
    parts = text.split(":")
    if parts[0] not in THRESHOLD_MODES:
        raise ValidationError(f"threshold mode must be one of {THRESHOLD_MODES}, got {parts[0]!r}")
    if len(parts) < 2:
        raise ValidationError("threshold spec needs a fraction, e.g. sparsity:0.3")
    try:
        fraction = float(parts[1])
    except ValueError:
        raise ValidationError(f"invalid threshold fraction {parts[1]!r}") from None
    strategy = "per-subject"
    if len(parts) > 2:
        if parts[0] != "consistency":
            raise ValidationError("only consistency thresholds take a strategy")
        strategy = parts[2]
    if len(parts) > 3:
        raise ValidationError(f"malformed threshold spec {text!r}")
    return parts[0], fraction, strategy


def _provenance_lines(config: RunConfig) -> str:
    return (
        f"# version: {__version__}\n"
        f"# config: {json.dumps(config.to_dict(), sort_keys=True)}\n"
    )


def _write_csv(path: Path, config: RunConfig, header: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if row.get(k) is None else _cell(row.get(k)) for k in header])
    path.write_text(_provenance_lines(config) + buf.getvalue())


def _cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as indented JSON, streamed into a file that replaces ``path``.

    ``json.dump`` writes the text a piece at a time, so the whole text is
    never held as one string. The pieces go to a temporary file next to
    ``path``, which is renamed over it once complete: a write that fails
    leaves no partial file and whatever ``path`` held before.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already unless the write failed


def _load_table(config: RunConfig):
    table = load_subjects_csv(config.input, config.demographics)
    if config.residualize:
        table = residualize_covariate(table, config.residualize)
    return table


def _codes(table: CohortTable, config: RunConfig):
    """Yield each subject's code in turn.

    Per subject, and in group-mask mode with a single subject, one subject's
    weighted and binary networks are built, encoded and dropped before the
    next subject starts. A group mask over 2 or more subjects needs every
    weighted network at once; they are dropped once the mask is applied.
    """
    labels, keep = table.region_labels, config.threshold_fraction
    # Per-subject consistency is each network's sparsity threshold; a mask needs 2+ networks.
    mask = (config.threshold_mode, config.threshold_strategy) == ("consistency", "group-mask")
    if mask and len(table.subjects) > 1:
        stack = [individual_network(s, labels) for s in table.subjects]
        shared = consistency_threshold(stack, keep, "group-mask")
        del stack
        for net in shared:
            yield encode(net)
    else:
        for subject in table.subjects:
            yield encode(sparsity_threshold(individual_network(subject, labels), keep))


def run_fingerprint(config: RunConfig) -> dict:
    """Encode every subject's thresholded similarity network; write the registry.

    Output is all-or-nothing: any subject that fails validation aborts the run
    before the registry file is created.
    """
    table = _load_table(config)
    if not table.subjects:
        raise ValidationError("no subjects to fingerprint")
    records = []
    by_code: dict = {}
    for subject, code in zip(table.subjects, _codes(table, config)):
        records.append(
            {"id": subject.id, "n": code.n, "value": to_decimal_string(code)} | to_record(code)
        )
        by_code.setdefault((code.numerator, code.scale), []).append(subject.id)
    duplicates = [ids for ids in by_code.values() if len(ids) > 1]
    doc = {
        "version": __version__,
        "config": config.to_dict(),
        "subjects": len(records),
        "distinct_codes": len(by_code),
        "records": records,
        "duplicates": duplicates,
    }
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = out_dir / "fingerprints.json"
    _write_json(registry, doc)
    doc["registry_path"] = str(registry)
    return doc


def run_cohort(config: RunConfig) -> dict:
    """Age-binned metric sweep, pairwise permutation tests, and clinical ANOVA.

    Cohorts smaller than MIN_COHORT_SIZE are skipped with a warning; a package
    error (``UbninError``) within one cohort, pair, or field is reported as a
    warning rather than aborting the rest of the run. Other exceptions propagate.
    At each sweep level a group's cohorts are measured in one batch that shares
    its reference draws (``metrics._reports``); rows and warnings keep cohort
    order.
    """
    table = _load_table(config)
    sweep = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    warnings: list[str] = []
    metric_rows: list[dict] = []
    significance_rows: list[dict] = []
    perm_docs: list[dict] = []
    anova_rows: list[dict] = []
    cohort_summaries: list[dict] = []

    groups = sorted({s.group for s in table.subjects})
    for group in groups:
        members = tuple(s for s in table.subjects if s.group == group)
        cohorts = age_binning(
            CohortTable(group, table.region_labels, members), config.bin_edges
        )
        analyzed = []
        for cohort in cohorts:
            cohort_summaries.append(
                {"group": group, "cohort": cohort.cohort_id, "n_subjects": len(cohort)}
            )
            if len(cohort) < MIN_COHORT_SIZE:
                warnings.append(
                    f"{group}/{cohort.cohort_id}: skipped "
                    f"({len(cohort)} subjects < {MIN_COHORT_SIZE})"
                )
                continue
            analyzed.append(cohort)

        logs = [([], []) for _ in analyzed]  # each cohort's rows and warnings, in cohort order
        weighted = []  # (cohort, its log, its association matrix)
        for cohort, log in zip(analyzed, logs):
            try:
                weighted.append((cohort, log, group_association_matrix(cohort)))
            except UbninError as exc:
                log[1].append(f"{group}/{cohort.cohort_id}: {exc}")
        for s in sweep:
            # The cohorts keep one edge count per level, so they share reference draws.
            binarized = [sparsity_threshold(association, s) for _, _, association in weighted]
            reports = _reports(binarized, config.n_rand, config.seed, config.swaps_per_edge)
            for (cohort, (rows, cohort_warnings), _), (report, error) in zip(weighted, reports):
                if error is not None:
                    cohort_warnings.append(f"{group}/{cohort.cohort_id} sparsity {s}: {error}")
                if report is not None:
                    rows.append({"group": group, "cohort": cohort.cohort_id,
                                 "n_subjects": len(cohort), "sparsity": s} | report.to_row())
        for rows, cohort_warnings in logs:
            metric_rows += rows
            warnings += cohort_warnings

        workspace = PermutationWorkspace()  # shared by the group's tests
        for cohort_a, cohort_b in combinations(analyzed, 2):
            try:
                result = permutation_test(
                    cohort_a, cohort_b, sweep, iterations=config.iterations, seed=config.seed,
                    workspace=workspace,
                )
            except UbninError as exc:
                warnings.append(
                    f"{group}/{cohort_a.cohort_id} vs {cohort_b.cohort_id}: {exc}"
                )
                continue
            pair = {"group": group, "cohort_a": cohort_a.cohort_id,
                    "cohort_b": cohort_b.cohort_id}
            perm_docs.append(pair | result.to_dict())
            for i, s in enumerate(result.sparsities):
                significance_rows.append(
                    pair | {
                        "sparsity": s,
                        "observed_diff": result.observed_diff[i],
                        "perm_mean_diff": result.perm_mean_diff[i],
                        "p_value": result.p_value[i],
                        "iterations": result.iterations,
                        "seed": result.seed,
                        "tail": result.tail,
                        "metric": result.metric_name,
                    }
                )
        del workspace  # idle through the next group's metric rows

        fields = config.anova_fields
        if fields is None:
            present = {k for s in members for k in s.clinical}
            fields = tuple(f for f in CLINICAL_FIELDS if f in present)
        for fname in fields:
            value_groups = []
            for cohort in analyzed:
                vals = [s.clinical[fname] for s in cohort.subjects if fname in s.clinical]
                if vals:
                    value_groups.append(vals)
            if len(value_groups) < 2:
                warnings.append(
                    f"{group}: ANOVA on {fname!r} skipped (fewer than 2 cohorts with values)"
                )
                continue
            try:
                result = one_way_anova(value_groups)
            except UbninError as exc:
                warnings.append(f"{group}: ANOVA on {fname!r} failed: {exc}")
                continue
            anova_rows.append(
                {"group": group, "field": fname} | result.to_dict()
                | {"n_groups": len(value_groups), "n_values": sum(len(v) for v in value_groups)}
            )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "metrics.csv", config,
        ["group", "cohort", "n_subjects", "sparsity", "mean_clustering",
         "char_path_length", "reachable_pair_fraction", "mean_degree",
         "sigma", "gamma", "lambda", "n_rand", "swaps_per_edge", "seed"],
        metric_rows,
    )
    _write_csv(
        out_dir / "significance.csv", config,
        ["group", "cohort_a", "cohort_b", "sparsity", "observed_diff",
         "perm_mean_diff", "p_value", "iterations", "seed", "tail", "metric"],
        significance_rows,
    )
    _write_csv(
        out_dir / "anova.csv", config,
        ["group", "field", "F", "df_between", "df_within", "p", "n_groups", "n_values"],
        anova_rows,
    )
    doc = {
        "version": __version__,
        "config": config.to_dict(),
        "sweep": list(sweep),
        "cohorts": cohort_summaries,
        "warnings": warnings,
        "metrics": metric_rows,
        "permutation": perm_docs,
        "anova": anova_rows,
    }
    _write_json(out_dir / "results.json", doc)
    doc["out_dir"] = str(out_dir)
    return doc
