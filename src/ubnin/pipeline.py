"""End-to-end runs: subject fingerprinting and cohort metric analysis.

Both runners are deterministic functions of (input files, RunConfig): output
files embed the effective configuration and package version, carry no
timestamps, and are byte-identical across repeated runs.

``run_cohort`` runs its small-world reference batches and permutation tests
in worker processes, one per usable CPU, that ``_run_tasks`` forks once the
run is planned, and writes the same bytes for any number of workers. Each
task is a call of no arguments, which the workers inherit by fork: they are
sent only task indices, through one index pipe, and send each result back
pickled through a result pipe of their own. No thread is started, and every
worker is reaped before ``_run_tasks`` returns or raises. No
``multiprocessing`` or ``concurrent.futures`` module is loaded, except to
raise ``BrokenProcessPool`` when a worker dies.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass, asdict
from functools import partial
from itertools import chain, combinations, islice
from pathlib import Path

import numpy as np

from . import __version__
from .codec import _encode_stack, _render_stack
from .errors import UbninError, ValidationError, _check_count, _check_fraction
from .graphs import _threshold_stack, sparsity_threshold
from .metrics import _reports
from .stats import _block_size, one_way_anova, permutation_test
from .subjects import (
    CLINICAL_FIELDS,
    DEFAULT_BIN_EDGES,
    CohortTable,
    _check_bin_edges,
    _similarity_stack,
    age_binning,
    group_association_matrix,
    load_subjects_csv,
    residualize_covariate,
    stream_subjects_csv,
)
# Not called here: kept only because perfbench/tracing.py WRAPPED looks them up.
from .codec import encode, to_decimal_string  # noqa: F401
from .graphs import consistency_threshold  # noqa: F401
from .metrics import metrics_report  # noqa: F401
from .subjects import individual_network  # noqa: F401

MIN_COHORT_SIZE = 3  # correlation across fewer subjects is meaningless
MAX_SWEEP_LEVELS = 10_000
RENDER_CHUNK = 32  # registry codes per codec._render_stack call


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one pipeline run; serialized into every output.

    Checked once, when made, and then fixed: a field cannot be reassigned.
    """

    input: str
    out_dir: str
    demographics: str | None = None
    threshold_fraction: float = 0.3
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
        object.__setattr__(self, "bin_edges", _check_bin_edges(self.bin_edges))
        if self.anova_fields is not None:
            object.__setattr__(self, "anova_fields", tuple(self.anova_fields))
        _check_fraction("threshold fraction", self.threshold_fraction)
        # Python ints only: the config is written as JSON, which takes no numpy integer.
        for name, minimum in (("iterations", 1), ("seed", 0), ("n_rand", 0),
                              ("swaps_per_edge", 0)):
            _check_count(name, getattr(self, name), minimum, int)
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
    for v in vals:  # the first may round to 0, the last above 1
        _check_fraction("sweep level", v)
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

    The text is written a piece at a time, as ``json.dump`` writes it. A
    value of ``doc`` that is an iterator stands for a list, and yields the
    text of each of its items as it stands in the file: the text of
    ``json.dumps(item, indent=2)`` with four spaces after each newline, the
    two levels of the list inside the document. It is written as given, so
    the whole text is never held as one string, and the iterator may drop
    each item once it has yielded its text.
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
    text starts a line of indentation. An iterator value yields the text of
    each item of a list already indented (``_write_json``).
    """
    mark = "{"
    for key, value in doc.items():
        yield f"{mark}\n  {json.dumps(key)}: "
        mark = ","
        if isinstance(value, Iterator):
            item_mark = "["
            for text in value:
                yield f"{item_mark}\n    "
                yield text
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

    Each block of subjects (``_blocks``) is built, thresholded and encoded
    at once (``_block_codes``), and its arrays dropped before the next
    block is read. Without residualization, rows are read as they are
    reached (``stream_subjects_csv``), so no row is held once its block is
    encoded; residualization needs every subject's volumes at once.
    """
    if config.residualize:
        table = _load_table(config)
        labels, subjects = table.region_labels, table.subjects
    else:
        labels, subjects = stream_subjects_csv(config.input, config.demographics)
    for ids, volumes in _blocks(subjects, len(labels)):
        yield from zip(ids, _block_codes(volumes, config.threshold_fraction))


def _blocks(subjects, regions: int):
    """Yield the ids and the (b, regions) volumes of consecutive subjects,
    reading ``subjects`` a block at a time: ``stats._block_size`` subjects,
    whose float64 (b, regions, regions) similarity stack fits its bytes."""
    size = _block_size(regions)
    subjects = iter(subjects)
    while block := list(islice(subjects, size)):
        yield [s.id for s in block], np.array([s.volumes for s in block])


def _block_codes(volumes: np.ndarray, keep: float) -> list:
    """``encode(sparsity_threshold(individual_network(v), keep))`` of each
    row ``v`` of a (b, r) block of volumes: one similarity stack, one
    threshold of the stack and one ``packbits`` for the whole block."""
    return _encode_stack(_threshold_stack(_similarity_stack(volumes), keep))


def _records(held: list):
    """Yield the registry record of each held (id, code) as its text in the
    registry: that of ``json.dumps(record, indent=2)``, written at the
    records list's indentation (``_write_json``), so that it is rendered
    once and never padded.

    Codes are rendered ``RENDER_CHUNK`` at a time (``codec._render_stack``),
    and each is dropped from ``held`` (with the digits it caches) once it
    is rendered. Only the id needs JSON's escaping: the node count and scale
    are ints, and the value and numerator digit strings.
    """
    for start in range(0, len(held), RENDER_CHUNK):
        chunk = held[start:start + RENDER_CHUNK]
        rendered = _render_stack([code for _, code in chunk])
        held[start:start + len(chunk)] = [None] * len(chunk)
        for (sid, code), (value, numerator) in zip(chunk, rendered):
            yield (f'{{\n      "id": {json.dumps(sid)},\n      "n": {code.n},\n'
                   f'      "value": "{value}",\n'
                   f'      "numerator": "{numerator}",\n      "scale": {code.scale}\n    }}')


def run_fingerprint(config: RunConfig) -> dict:
    """Encode every subject's thresholded similarity network; write the registry.

    Returns the registry document without its records, plus
    ``registry_path``: the records (one per subject, in row order) are only
    in the file. Subjects are encoded a block at a time (``_subject_codes``),
    only each subject's id and code are held until the registry is written,
    and each record is rendered as the file reaches it.

    Output is all-or-nothing: any subject that fails validation aborts the run
    before the registry file is created. A streamed run (``_subject_codes``)
    encodes blocks of subjects before it reaches an invalid row further down, but it
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


_INDEX = 4  # bytes of one task index on the index pipe
_LENGTH = 8  # bytes of the length before each pickled outcome on a result pipe


def _run_tasks(tasks: list) -> list:
    """``task()`` of every task, in task order.

    With two or more ``_workers`` and ``os.fork``, the tasks run in that many
    worker processes forked from this one, each pinned to one of the usable
    CPUs. The workers inherit ``tasks``, so no task is pickled. They take
    task indices from one index pipe, which this process keeps topped up
    with at most two indices per worker, so it never fills; each worker
    sends ``(index, ok, result or exception)`` back pickled on a result pipe
    of its own, read here with ``selectors``. No thread is started.
    Otherwise the tasks run here. Every task draws from its own seed-keyed
    streams, so the results are the same either way.

    The first failing task in task order raises its exception, with its type;
    a result that does not pickle raises the pickling error. A worker that
    ends before the tasks are done raises ``BrokenProcessPool``. However this
    returns or raises, an interrupt included, every worker still running is
    killed and every worker is reaped first.
    """
    workers = _workers(len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [task() for task in tasks]
    import selectors
    import signal

    usable = sorted(os.sched_getaffinity(0))
    count = len(tasks)
    outcomes: list = [None] * count  # (ok, result or exception) per task
    done = sent = 0  # tasks whose outcome is in, in order; indices sent
    index_r, index_w = os.pipe()
    opened = {index_r, index_w}  # this process's pipe ends
    running = {}  # result pipe's read end -> its worker's pid, until reaped

    def close(fd):
        opened.discard(fd)
        os.close(fd)

    def send_next():
        nonlocal sent
        os.write(index_w, sent.to_bytes(_INDEX, "little"))
        sent += 1
        if sent == count:
            close(index_w)  # the workers leave once they read to its end

    try:
        for w in range(workers):
            result_r, result_w = os.pipe()
            opened |= {result_r, result_w}
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in opened - {index_r, result_w}:
                        os.close(fd)
                    # Left alone, the scheduler may keep forked workers on this
                    # CPU for a second or more, and then they take turns on it.
                    with suppress(OSError):  # an optimisation only
                        os.sched_setaffinity(0, {usable[w % len(usable)]})
                    _work(tasks, index_r, result_w)
                    status = 0
                finally:
                    os._exit(status)
            running[result_r] = pid
            close(result_w)
        for _ in range(min(2 * workers, count)):
            send_next()
        with selectors.DefaultSelector() as selector:
            for fd in running:
                selector.register(fd, selectors.EVENT_READ, bytearray())
            while selector.get_map():
                for key, _ in selector.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:  # the worker has left
                        selector.unregister(key.fd)
                        close(key.fd)
                        _, status = os.waitpid(running.pop(key.fd), 0)
                        if status and done < count:
                            raise _broken(f"a worker ended with exit code "
                                          f"{os.waitstatus_to_exitcode(status)}")
                        continue
                    pending = key.data
                    pending += chunk
                    while len(pending) >= _LENGTH:
                        end = _LENGTH + int.from_bytes(pending[:_LENGTH], "little")
                        if len(pending) < end:
                            break
                        index, ok, value = pickle.loads(pending[_LENGTH:end])
                        del pending[:end]
                        outcomes[index] = (ok, value)
                        if sent < count:
                            send_next()
                    while done < count and outcomes[done] is not None:
                        ok, value = outcomes[done]
                        if not ok:
                            raise value
                        outcomes[done] = value
                        done += 1
        if done < count:
            raise _broken("the workers ended before the tasks were done")
        return outcomes
    finally:
        for fd in opened:
            os.close(fd)
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
        for pid in running.values():
            os.waitpid(pid, 0)


def _work(tasks: list, indices: int, results: int) -> None:
    """A worker's loop: for each task index read from the pipe ``indices``
    until it ends, run the task and write ``(index, ok, result or exception)``
    to the pipe ``results``, pickled after its length."""
    while record := os.read(indices, _INDEX):  # a write of one index is atomic
        index = int.from_bytes(record, "little")
        try:
            outcome = (index, True, tasks[index]())
        except Exception as exc:
            outcome = (index, False, exc)
        try:
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the result does not pickle
            payload = pickle.dumps((index, False, exc), pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(payload).to_bytes(_LENGTH, "little") + payload)
        while view:
            view = view[os.write(results, view):]


def _broken(reason: str):
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool(reason)


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
