"""End-to-end runs: subject fingerprinting and cohort metric analysis.

Both runners are deterministic functions of (input files, RunConfig): output
files embed the effective configuration and package version, carry no
timestamps, and are byte-identical across repeated runs.

``run_cohort`` runs its small-world reference batches and permutation tests
in forked worker processes, one per usable CPU (``_run_tasks``), and writes
the same bytes for any number of workers. Each task is a call of no
arguments, which the workers inherit by fork. ``multiprocessing`` and
``concurrent.futures`` are imported only when a pool starts, so importing
``ubnin`` and ``run_fingerprint`` never load them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass, asdict
from functools import partial
from itertools import chain, combinations
from pathlib import Path

from . import __version__
from .codec import encode, to_decimal_string, to_record
from .errors import UbninError, ValidationError
from .graphs import consistency_threshold, sparsity_threshold
from .metrics import _reports
from .stats import one_way_anova, permutation_test
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
    stream_subjects_csv,
)
# Not called here: kept only because perfbench/tracing.py WRAPPED looks it up.
from .metrics import metrics_report  # noqa: F401

THRESHOLD_STRATEGIES = ("per-subject", "group-mask")
MIN_COHORT_SIZE = 3  # correlation across fewer subjects is meaningless
MAX_SWEEP_LEVELS = 10_000


@dataclass
class RunConfig:
    """Effective settings of one pipeline run; serialized into every output."""

    input: str
    out_dir: str
    demographics: str | None = None
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
        if self.threshold_strategy not in THRESHOLD_STRATEGIES:
            raise ValidationError(f"threshold strategy must be one of {THRESHOLD_STRATEGIES}")
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

    A level is the fraction of possible edges that a network keeps, so mean
    clustering rises with it; the paper's levels may be the fraction removed.
    Each level is rounded to 10 decimals; a step so small that two levels
    round to the same value is rejected.
    """
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError("sweep start, stop and step must be finite")
    if step <= 0:
        raise ValidationError("sweep step must be positive")
    if stop < start:
        raise ValidationError("sweep stop must be >= start")
    # Levels run up to round(stop, 10), below stop + 1e-9; these two checks
    # bound the loop below.
    if start <= 0 or stop > 1 + 1e-9:
        raise ValidationError("sweep levels must lie in (0, 1]")
    if (stop + 1e-9 - start) / step >= MAX_SWEEP_LEVELS:
        raise ValidationError(f"sweep must have at most {MAX_SWEEP_LEVELS} levels")
    last = round(stop, 10)
    vals = []
    i = 0
    while True:
        v = round(start + i * step, 10)
        if v > last:
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
    _replace_file(path, (_provenance_lines(config), buf.getvalue()))


def _cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as ``json.dump(doc, fh, indent=2)`` writes it, plus a
    newline, into a file that replaces ``path`` (``_replace_file``).

    The text is written a piece at a time, as ``json.dump`` writes it, and a
    value of ``doc`` that is an iterator is written as a list, an item at a
    time: so the whole text is never held as one string, and the iterator
    may drop each item once it has yielded it.
    """
    _replace_file(path, chain(_json_pieces(doc), "\n"))


def _replace_file(path: Path, pieces) -> None:
    """Write the text ``pieces`` as UTF-8 into a temporary file next to
    ``path``, and rename it over ``path`` once complete: a write that fails
    leaves no partial file and whatever ``path`` held before."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already unless the write failed


_ENCODER = json.JSONEncoder(indent=2)  # json.dump's encoder at indent=2


def _json_pieces(doc: dict):
    """The text of ``json.dump(doc, fh, indent=2)`` for a ``doc`` with string
    keys, in pieces.

    Each value is encoded on its own, a piece at a time as ``json.dump``
    encodes it, and indented one level further by padding the newlines in
    its pieces: a JSON string holds no raw newline, so every newline in the
    text starts a line of indentation.
    """
    mark = "{"
    for key, value in doc.items():
        yield f"{mark}\n  {json.dumps(key)}: "
        mark = ","
        if isinstance(value, Iterator):
            item_mark = "["
            for item in value:
                yield f"{item_mark}\n    "
                yield from _indented(item, "\n    ")
                item_mark = ","
            yield "[]" if item_mark == "[" else "\n  ]"
        else:
            yield from _indented(value, "\n  ")
    yield "{}" if mark == "{" else "\n}"


def _indented(value, pad: str):
    for piece in _ENCODER.iterencode(value):
        yield piece.replace("\n", pad)


def _load_table(config: RunConfig):
    table = load_subjects_csv(config.input, config.demographics)
    if config.residualize:
        table = residualize_covariate(table, config.residualize)
    return table


def _subject_codes(config: RunConfig):
    """Yield each subject's id and code, in row order.

    Per subject, and in group-mask mode with a single subject, one subject's
    weighted and binary networks are built, encoded and dropped before the
    next subject starts. Without residualization or a group mask, rows are
    read as they are reached (``stream_subjects_csv``), so no row is held
    once its subject is encoded. Residualization needs every subject's
    volumes at once, and a group mask over 2 or more subjects every weighted
    network; those are dropped once the mask is applied.
    """
    keep = config.threshold_fraction
    mask = config.threshold_strategy == "group-mask"  # a mask needs 2+ networks
    if config.residualize or mask:
        table = _load_table(config)
        labels, subjects = table.region_labels, table.subjects
        if mask and len(subjects) > 1:
            stack = [individual_network(s, labels) for s in subjects]
            shared = consistency_threshold(stack, keep, "group-mask")
            del stack
            for subject, net in zip(subjects, shared):
                yield subject.id, encode(net)
            return
    else:
        labels, subjects = stream_subjects_csv(config.input, config.demographics)
    for subject in subjects:
        yield subject.id, encode(sparsity_threshold(individual_network(subject, labels), keep))


def _records(held: list):
    """Yield the registry record of each held (id, code), dropping the code
    (and the digits it caches) from ``held`` once its record is made."""
    for i, (sid, code) in enumerate(held):
        held[i] = None
        yield {"id": sid, "n": code.n, "value": to_decimal_string(code)} | to_record(code)


def run_fingerprint(config: RunConfig) -> dict:
    """Encode every subject's thresholded similarity network; write the registry.

    Returns the registry document without its records, plus
    ``registry_path``: the records (one per subject, in row order) are only
    in the file. Only each subject's id and code are held until the registry
    is written, and each record is rendered as the file reaches it.

    Output is all-or-nothing: any subject that fails validation aborts the run
    before the registry file is created. A streamed run (``_subject_codes``)
    encodes subjects before it reaches an invalid row further down, but it
    raises the same error as a run that loads every row first: the loader
    lists every invalid row after the last one, and no network or encoding
    step can fail on a subject that the loader accepted (finite volumes, at
    least 2 unique, non-empty region labels).
    """
    held = []  # (id, code) per subject, in row order
    by_code: dict = {}
    for sid, code in _subject_codes(config):
        held.append((sid, code))
        by_code.setdefault((code.numerator, code.scale), []).append(sid)
    if not held:
        raise ValidationError("no subjects to fingerprint")
    doc = {
        "version": __version__,
        "config": config.to_dict(),
        "subjects": len(held),
        "distinct_codes": len(by_code),
        "records": _records(held),
        "duplicates": [ids for ids in by_code.values() if len(ids) > 1],
    }
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = out_dir / "fingerprints.json"
    _write_json(registry, doc)
    del doc["records"]
    doc["registry_path"] = str(registry)
    return doc


@dataclass
class _GroupPlan:
    """One group's age cohorts, and the tasks of its references and tests.

    ``tasks`` holds one ``metrics._reports`` batch per sweep level, over the
    analyzed cohorts whose association matrix was built, then one
    ``permutation_test`` per pair of analyzed cohorts, in that order.
    """

    group: str
    members: tuple
    cohorts: list  # every age cohort
    analyzed: list  # those of MIN_COHORT_SIZE or more subjects
    association_errors: list  # per analyzed cohort: the UbninError of its matrix, or None
    tasks: list


def _plan_group(table: CohortTable, group: str, sweep, config: RunConfig) -> _GroupPlan:
    members = tuple(s for s in table.subjects if s.group == group)
    cohorts = age_binning(CohortTable(group, table.region_labels, members), config.bin_edges)
    analyzed = [c for c in cohorts if len(c) >= MIN_COHORT_SIZE]
    association_errors, associations = [], []
    for cohort in analyzed:
        try:
            associations.append(group_association_matrix(cohort))
            association_errors.append(None)
        except UbninError as exc:
            association_errors.append(exc)
    # The cohorts keep one edge count per level, so each level's batch shares reference draws.
    tasks = [partial(_reports, [sparsity_threshold(a, s) for a in associations],
                     config.n_rand, config.seed, config.swaps_per_edge) for s in sweep]
    tasks += [partial(_permutation_task, a, b, sweep, config)
              for a, b in combinations(analyzed, 2)]
    return _GroupPlan(group, members, cohorts, analyzed, association_errors, tasks)


def _permutation_task(cohort_a, cohort_b, sweep, config: RunConfig):
    """The test's result, or the UbninError it raised."""
    try:
        return permutation_test(cohort_a, cohort_b, sweep, iterations=config.iterations,
                                seed=config.seed)
    except UbninError as exc:
        return exc


def _workers(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: one per CPU this process may run
    on, and no more than tasks; 1 where the affinity is unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), tasks)


_worker_tasks: list = []  # set in a worker process of _run_tasks only


def _start_worker(tasks: list, cpus) -> None:
    """Keep ``tasks``, and pin this worker to the next CPU of ``cpus``.

    Left alone, the scheduler may keep forked workers on their parent's CPU
    for a second or more, and then they take turns on it.
    """
    global _worker_tasks
    _worker_tasks = tasks
    with suppress(OSError):  # an optimisation only
        os.sched_setaffinity(0, {cpus.get()})


def _run_in_worker(index: int):
    return _worker_tasks[index]()


def _run_tasks(tasks: list) -> list:
    """``task()`` of every task, in task order.

    With two or more ``_workers`` and the ``fork`` start method, the tasks
    run in a pool of forked worker processes, each pinned to one of the
    usable CPUs. The workers inherit ``tasks`` and are sent only indices, so
    a task need not pickle; each result comes back pickled. Otherwise the
    tasks run here. Every task draws from its own seed-keyed streams, so the
    results are the same either way. A task's exception propagates with
    its type, and a worker that dies raises ``BrokenProcessPool``; either
    way the pool is shut down, its pending tasks cancelled and its
    processes joined before this returns or raises.
    """
    workers = _workers(len(tasks))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            usable = sorted(os.sched_getaffinity(0))
            cpus = context.SimpleQueue()  # one CPU for each worker to take
            for i in range(workers):
                cpus.put(usable[i % len(usable)])
            # A fork-context pool forks every worker before it starts its own threads.
            pool = ProcessPoolExecutor(workers, context, initializer=_start_worker,
                                       initargs=(tasks, cpus))
            try:
                futures = [pool.submit(_run_in_worker, i) for i in range(len(tasks))]
                return [f.result() for f in futures]
            finally:
                pool.shutdown(cancel_futures=True)
                cpus.close()
    return [task() for task in tasks]


def run_cohort(config: RunConfig) -> dict:
    """Age-binned metric sweep, pairwise permutation tests, and clinical ANOVA.

    Cohorts smaller than MIN_COHORT_SIZE are skipped with a warning; a package
    error (``UbninError``) within one cohort, pair, or field is reported as a
    warning rather than aborting the rest of the run. Other exceptions propagate.

    The run plans, runs, then assembles. Loading, binning, association
    matrices and thresholds come first, and give each group's tasks
    (``_plan_group``): at each sweep level one batch of its cohorts that
    shares reference draws (``metrics._reports``), and one permutation test
    per cohort pair. ``_run_tasks`` runs every group's tasks, in worker
    processes where there are CPUs for them. Rows, warnings and ANOVA are
    then assembled in group, cohort, level and pair order, whatever order
    the tasks ran in.
    """
    table = _load_table(config)
    sweep = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    plans = [_plan_group(table, group, sweep, config)
             for group in sorted({s.group for s in table.subjects})]
    results = iter(_run_tasks([task for plan in plans for task in plan.tasks]))
    warnings: list[str] = []
    metric_rows: list[dict] = []
    significance_rows: list[dict] = []
    perm_docs: list[dict] = []
    anova_rows: list[dict] = []
    cohort_summaries: list[dict] = []

    for plan in plans:
        group = plan.group
        for cohort in plan.cohorts:
            cohort_summaries.append(
                {"group": group, "cohort": cohort.cohort_id, "n_subjects": len(cohort)}
            )
            if len(cohort) < MIN_COHORT_SIZE:
                warnings.append(
                    f"{group}/{cohort.cohort_id}: skipped "
                    f"({len(cohort)} subjects < {MIN_COHORT_SIZE})"
                )

        # Each measured cohort's (report, error) per level, in cohort order.
        measured = zip(*[next(results) for _ in sweep])
        for cohort, failed in zip(plan.analyzed, plan.association_errors):
            if failed is not None:
                warnings.append(f"{group}/{cohort.cohort_id}: {failed}")
                continue
            for s, (report, error) in zip(sweep, next(measured)):
                if error is not None:
                    warnings.append(f"{group}/{cohort.cohort_id} sparsity {s}: {error}")
                if report is not None:
                    metric_rows.append({"group": group, "cohort": cohort.cohort_id,
                                        "n_subjects": len(cohort), "sparsity": s}
                                       | report.to_row())

        for cohort_a, cohort_b in combinations(plan.analyzed, 2):
            result = next(results)
            if isinstance(result, UbninError):
                warnings.append(
                    f"{group}/{cohort_a.cohort_id} vs {cohort_b.cohort_id}: {result}"
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

        fields = config.anova_fields
        if fields is None:
            present = {k for s in plan.members for k in s.clinical}
            fields = tuple(f for f in CLINICAL_FIELDS if f in present)
        for fname in fields:
            value_groups = []
            for cohort in plan.analyzed:
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
