"""Subject tables and the construction of similarity and correlation networks.

A subject is a demographic record plus one gray-matter volume per region.
Individual networks use the similarity kernel 1 / ((v_i - v_j)^2 + 1) on a
single subject's volumes; group networks use Pearson correlation of region
volumes across the subjects of a cohort.
"""

from __future__ import annotations

import math
import types
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateDesignError, ValidationError
from .graphs import WeightedNetwork, _built, _check_labels, _csv_rows

CLINICAL_FIELDS = ("updrs_off", "updrs_on", "hy_stage", "age_at_onset")
REQUIRED_COLUMNS = ("id", "age", "gender", "group")
DEFAULT_BIN_EDGES = (32.0, 42.0, 52.0, 62.0)


@dataclass(frozen=True, eq=False)
class SubjectRecord:
    """One subject: identity, demographics, optional clinical scores, volumes."""

    id: str
    age: float
    gender: str
    group: str
    volumes: np.ndarray
    clinical: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("subject id must be a non-empty string")
        age = float(self.age)
        if not math.isfinite(age) or age <= 0:
            raise _age_error(self.id, self.age)
        v = np.array(self.volumes, dtype=np.float64, copy=True)
        if v.ndim != 1:
            raise ValidationError(f"subject {self.id}: volumes must be a flat vector")
        if not np.all(np.isfinite(v)):
            raise ValidationError(f"subject {self.id}: non-finite volume value")
        v.setflags(write=False)
        clinical = {str(k): float(x) for k, x in dict(self.clinical).items()}
        if any(not math.isfinite(x) for x in clinical.values()):
            raise ValidationError(f"subject {self.id}: non-finite clinical value")
        object.__setattr__(self, "age", age)
        object.__setattr__(self, "gender", str(self.gender))
        object.__setattr__(self, "group", str(self.group))
        object.__setattr__(self, "volumes", v)
        object.__setattr__(self, "clinical", types.MappingProxyType(clinical))

    def __reduce__(self):
        # Through the constructor: a mappingproxy does not pickle, and an
        # unpickled array would be writable.
        return SubjectRecord, (self.id, self.age, self.gender, self.group, self.volumes,
                               dict(self.clinical))


def _age_error(sid: str, age) -> ValidationError:
    return ValidationError(f"subject {sid}: age must be a positive number, got {age}")


@dataclass(frozen=True, eq=False)
class CohortTable:
    """A set of subjects sharing one region-label list.

    The labels are at least 2 non-empty, unique strings, so they pass
    ``_check_labels`` for networks over the cohort's regions.
    """

    cohort_id: str
    region_labels: tuple[str, ...]
    subjects: tuple[SubjectRecord, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.region_labels)
        if len(labels) < 2:
            raise ValidationError("a cohort needs at least 2 region labels")
        if len(set(labels)) != len(labels):
            raise ValidationError("region labels must be unique")
        if not all(labels):
            raise ValidationError("region labels must be non-empty")
        subjects = tuple(self.subjects)
        for s in subjects:
            if s.volumes.shape[0] != len(labels):
                raise ValidationError(
                    f"subject {s.id}: {s.volumes.shape[0]} volumes for {len(labels)} regions"
                )
        object.__setattr__(self, "cohort_id", str(self.cohort_id))
        object.__setattr__(self, "region_labels", labels)
        object.__setattr__(self, "subjects", subjects)

    def __len__(self):
        return len(self.subjects)

    def volume_matrix(self) -> np.ndarray:
        """Subjects-by-regions volume matrix."""
        return np.stack([s.volumes for s in self.subjects])

    def replace_subjects(self, subjects) -> "CohortTable":
        return CohortTable(self.cohort_id, self.region_labels, tuple(subjects))


def _covariate_values(table: CohortTable, covariate: str) -> list:
    if covariate in ("gender", "group"):
        return [getattr(s, covariate) for s in table.subjects]
    if covariate == "age":
        return [s.age for s in table.subjects]
    if covariate in CLINICAL_FIELDS:
        lacking = [s for s in table.subjects if covariate not in s.clinical]
        if lacking:
            groups = ", ".join(sorted({s.group for s in lacking}))
            ids = ", ".join(s.id for s in lacking[:10])
            more = ", ..." if len(lacking) > 10 else ""
            raise ValidationError(
                f"covariate {covariate!r} missing for {len(lacking)} of {len(table)} "
                f"subjects, in groups {groups}: {ids}{more}; a clinical covariate needs "
                "a value for every subject"
            )
        return [s.clinical[covariate] for s in table.subjects]
    raise ValidationError(f"unknown covariate {covariate!r}")


def residualize_covariate(table: CohortTable, covariate: str) -> CohortTable:
    """Remove a covariate's effect from every region volume.

    Fits ordinary least squares of each region's volumes on an intercept plus
    the covariate, and replaces each volume by its residual plus the region's
    grand mean, preserving the natural volume scale. ``gender`` and ``group``
    are categorical: one 0/1 column per level after the first in sorted
    order. ``age`` and the clinical fields are numeric: one column of their
    values, so one slope per region. A covariate with a single value leaves
    the table unchanged.
    """
    values = _covariate_values(table, covariate)
    levels = sorted(set(values))
    if len(levels) < 2:
        return table
    n_subjects = len(table)
    if n_subjects < 3:
        raise DegenerateDesignError(f"residualization needs >= 3 subjects, got {n_subjects}")
    if covariate in ("gender", "group"):
        columns = [[v == lvl for v in values] for lvl in levels[1:]]
    else:
        columns = [values]
    design = np.column_stack([np.ones(n_subjects), *np.asarray(columns, float)])
    y = table.volume_matrix()
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    adjusted = y - design @ beta + y.mean(axis=0)
    finite = np.isfinite(adjusted).all(axis=1)
    if not finite.all():  # volumes near the float64 limit can overflow the fit
        sid = table.subjects[int(np.argmin(finite))].id
        raise ValidationError(f"subject {sid}: non-finite volume value")
    # Every other field comes from a checked record, and its clinical mapping
    # is read-only: each new record shares it, over its own fresh row.
    return table.replace_subjects(
        _built(SubjectRecord, s.id, s.age, s.gender, s.group, adjusted[i], s.clinical)
        for i, s in enumerate(table.subjects))


def individual_network(subject, region_labels=None) -> WeightedNetwork:
    """Similarity network of one subject's regional volumes.

    weight(i, j) = 1 / ((v_i - v_j)^2 + 1), a value in [0, 1] that is 1
    exactly when the two volumes are equal. Finite volumes give finite,
    exactly symmetric weights, so only the labels are checked. The
    one-subject case of ``_similarity_stack``.
    """
    volumes = subject.volumes if isinstance(subject, SubjectRecord) else np.asarray(subject, float)
    if volumes.ndim != 1 or volumes.shape[0] < 2:
        raise ValidationError("need a flat vector of at least 2 volumes")
    if not np.all(np.isfinite(volumes)):
        raise ValidationError("non-finite volume value")
    labels = _check_labels(region_labels, len(volumes))
    return _built(WeightedNetwork, _similarity_stack(volumes[None])[0], labels)


def _similarity_stack(volumes: np.ndarray) -> np.ndarray:
    """The ``individual_network`` weights of each row of a (b, r) block of
    finite volumes, as one (b, r, r) array: the same floats, computed for
    the whole block at once."""
    b, r = volumes.shape
    w = volumes[:, :, None] - volumes[:, None, :]
    w *= w
    w += 1.0
    np.divide(1.0, w, out=w)
    w.reshape(b, r * r)[:, ::r + 1] = 0.0  # the diagonals, through a view of C-ordered w
    return w


_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


def _pearson_stack(volumes: np.ndarray, out=None,
                   centred=None) -> tuple[np.ndarray, np.ndarray]:
    """Correlations of each subjects-by-regions matrix in a (B, s, r) float64 stack.

    Runs ``np.corrcoef(v, rowvar=False)``'s operations in its order: the mean
    over subjects (``np.mean``'s two: a sum, then a division by the count),
    centring, the product of the transposed view with the centred volumes
    (one BLAS ``syrk`` per matrix, as in ``np.dot``), scaling by 1/(s-1),
    two divisions by the root of the diagonal, and the clip to [-1, 1]. So
    each (r, r) slice holds the same floats as ``np.corrcoef`` of that matrix.
    Also returns the (B, r) region variances: the diagonal before the
    divisions. The correlations go to ``out`` and the centred volumes to
    ``centred``, a C-ordered array of the shape of ``volumes``, when they are
    given.
    """
    mean = np.add.reduce(volumes, axis=1, keepdims=True)
    mean /= volumes.shape[1]
    x = np.subtract(volumes, mean, out=centred)
    c = np.matmul(x.transpose(0, 2, 1), x, out=out)
    c *= np.true_divide(1, volumes.shape[1] - 1)
    var = np.diagonal(c, axis1=1, axis2=2).copy()
    sd = np.sqrt(var)
    c /= sd[:, :, None]
    c /= sd[:, None, :]
    np.clip(c, -1, 1, out=c)
    return c, var


def _pearson_rejection(volumes: np.ndarray, c: np.ndarray, var: np.ndarray,
                       labels) -> tuple[int, Exception] | None:
    """``(index, error)`` for the first matrix of a ``_pearson_stack`` call
    that makes no network, or None. The error is built for that matrix only.

    The checks, in order: regions whose volumes do not vary; a NaN
    correlation (after the clip, the only non-finite value), named by the
    first region pair it reaches, or by a region and itself when a region on
    a huge or tiny scale leaves its NaN on the diagonal alone; and a region
    whose variance is subnormal, so that its correlations lose precision.
    """
    flat = volumes.max(axis=1) - volumes.min(axis=1) == 0
    nan, low = np.isnan(c), var < _TINY
    rejected = flat.any(axis=1) | nan.any(axis=(1, 2)) | low.any(axis=1)
    if not rejected.any():
        return None
    k = int(np.argmax(rejected))
    if flat[k].any():
        names = ", ".join(labels[i] for i in np.flatnonzero(flat[k]))
        return k, DegenerateDesignError(f"zero-variance regions: {names}")
    if nan[k].any():
        cells = np.argwhere(nan[k] | nan[k].T)  # the NaNs of (c + c.T) / 2
        i, j = cells[np.argmax(cells[:, 0] != cells[:, 1])]  # a region pair before a region
        pair = (f"regions {labels[i]} and {labels[j]}" if i != j
                else f"region {labels[i]} and itself")
        return k, ValidationError(f"non-finite weight between {pair}: the correlation "
                                  "of their volumes overflows or underflows float64")
    i = np.flatnonzero(low[k])[0]
    return k, ValidationError(
        f"region {labels[i]}: the variance of its volumes, {var[k, i]}, "
        "is below the smallest normal float64, so its correlations lose precision"
    )


def _pearson_network(volume_matrix: np.ndarray, labels) -> WeightedNetwork:
    """Correlation network of a subjects-by-regions matrix.

    The one-matrix case of ``_pearson_stack`` and ``_pearson_rejection``.
    ``labels`` are a cohort's region labels, which ``CohortTable`` has
    checked. numpy warns about nothing here: every value it would warn about
    is rejected with an error that names its cause.
    """
    if volume_matrix.shape[0] < 3:
        raise DegenerateDesignError(
            f"association matrix needs >= 3 subjects, got {volume_matrix.shape[0]}"
        )
    with np.errstate(all="ignore"):
        stack, var = _pearson_stack(volume_matrix[None])
        rejection = _pearson_rejection(volume_matrix[None], stack, var, labels)
    if rejection:
        raise rejection[1]
    corr = (stack[0] + stack[0].T) / 2.0
    np.fill_diagonal(corr, 0.0)
    return _built(WeightedNetwork, corr, labels)


def group_association_matrix(table: CohortTable) -> WeightedNetwork:
    """Pearson correlation between every pair of regions across subjects."""
    return _pearson_network(table.volume_matrix(), table.region_labels)


def _check_bin_edges(edges: Sequence[float]) -> tuple[float, ...]:
    """The edges as floats: 1 to 25 of them, finite and strictly ascending."""
    edges = tuple(float(x) for x in edges)
    ascending = all(a < b for a, b in zip(edges, edges[1:]))
    if not edges or not ascending or not all(map(math.isfinite, edges)):
        raise ValidationError("bin edges must be non-empty, finite and strictly ascending")
    if len(edges) > 25:
        raise ValidationError("at most 25 bin edges supported")
    return edges


def age_binning(table: CohortTable, edges: Sequence[float] = DEFAULT_BIN_EDGES) -> list[CohortTable]:
    """Partition subjects into age cohorts A, B, ... by ascending year cutoffs.

    Cohort A takes ages up to and including the first edge, each middle cohort
    the half-open interval (previous edge, next edge], and the final cohort
    everything above the last edge. Empty cohorts are kept.
    """
    edges = _check_bin_edges(edges)
    buckets: list[list[SubjectRecord]] = [[] for _ in range(len(edges) + 1)]
    for s in table.subjects:
        buckets[bisect_left(edges, s.age)].append(s)
    return [
        CohortTable(chr(ord("A") + i), table.region_labels, tuple(bucket))
        for i, bucket in enumerate(buckets)
    ]


# ---------------------------------------------------------------------------
# Subjects CSV: header id,age,gender,group[,<clinical...>],<region labels...>
# with one row per subject. A separate demographics CSV (id plus demographic
# and clinical columns) can supply the demographics of a volumes-only file
# (id,<regions>), looked up by id row by row.
# ---------------------------------------------------------------------------

def _check_regions(path, regions) -> None:
    if len(regions) < 2:
        raise ValidationError(f"{path}: need at least 2 region columns, got {len(regions)}")
    if len(set(regions)) != len(regions):
        raise ValidationError(f"{path}: duplicate region column")
    if not all(regions):
        raise ValidationError(f"{path}: empty region column label")


def _split_header(path, header) -> tuple[list[str], list[str]]:
    """Return (clinical columns, region columns) of a combined subjects header."""
    if tuple(header[:4]) != REQUIRED_COLUMNS:
        raise ValidationError(
            f"{path}: header must start with {','.join(REQUIRED_COLUMNS)}, "
            f"got {','.join(header[:4])}"
        )
    rest = header[4:]
    n_clinical = 0
    while n_clinical < len(rest) and rest[n_clinical] in CLINICAL_FIELDS:
        n_clinical += 1
    clinical, regions = rest[:n_clinical], rest[n_clinical:]
    if len(set(clinical)) != len(clinical):
        raise ValidationError(f"{path}: duplicate clinical column")
    stray = [c for c in regions if c in CLINICAL_FIELDS + REQUIRED_COLUMNS]
    if stray:
        raise ValidationError(
            f"{path}: column {stray[0]!r} appears after region columns began; "
            "clinical and demographic columns must precede regions"
        )
    _check_regions(path, regions)
    return clinical, regions


def _parse_float(cell: str, what: str, errors: list, row_id: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        errors.append(f"{row_id}: invalid {what} {cell!r}")
        return None
    if not math.isfinite(v):
        errors.append(f"{row_id}: non-finite {what}")
        return None
    return v


def _parse_volumes(cells: list, errors: list, row_id: str) -> np.ndarray | None:
    """One row's volume cells as floats, or None once errors are recorded.

    numpy converts each cell as ``float`` does. Only a row that it rejects,
    or that holds a non-finite value, is parsed again cell by cell, and that
    parse decides: it records every bad cell, in order, or accepts the row.
    """
    try:
        volumes = np.array(cells, dtype=np.float64)
    except ValueError:
        volumes = None
    if volumes is None or not np.isfinite(volumes).all():
        parsed = [_parse_float(c, "volume", errors, row_id) for c in cells]
        volumes = None if any(v is None for v in parsed) else np.array(parsed)
    return volumes


def _parse_demographics(age, gender, group, clinical_cells, errors: list,
                        row_id: str) -> tuple | None:
    """Return (age, gender, group, clinical) parsed from one row's cells.

    ``clinical_cells`` are (column, cell) pairs; an empty cell leaves its
    column out. Returns None once an error is recorded in ``errors``.
    """
    age = _parse_float(age, "age", errors, row_id)
    if age is None:
        return None
    clinical = {}
    for column, cell in clinical_cells:
        if cell.strip() == "":
            continue
        v = _parse_float(cell, column, errors, row_id)
        if v is None:
            return None
        clinical[column] = v
    return age, gender.strip(), group.strip(), clinical


def load_subjects_csv(path, demographics_path=None) -> CohortTable:
    """Load subjects from CSV, optionally with a separate demographics file.

    Every malformed row is reported; the load fails as a whole if any row is
    invalid, so a successfully loaded table is always complete.
    """
    regions, subjects = stream_subjects_csv(path, demographics_path)
    return CohortTable("all", regions, tuple(subjects))


def stream_subjects_csv(path, demographics_path=None
                        ) -> tuple[tuple[str, ...], Iterator[SubjectRecord]]:
    """The region labels of a subjects CSV, and its subjects as they are read.

    Header, empty-file and demographics errors are raised before this
    returns. The iterator then reads one row at a time and yields each valid
    subject in row order. After the last row it raises the ``ValidationError``
    that lists every invalid row, if there is one, as ``load_subjects_csv``
    does: a subject it yielded counts only once the iterator is exhausted.
    The input file stays open until then, or until the iterator is closed.
    """
    subjects = _subject_rows(path, demographics_path)
    return next(subjects), subjects


def _subject_rows(path, demographics_path):
    """Yield the region labels, then each valid subject; see ``stream_subjects_csv``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, body = _csv_rows(path, fh)
        if demographics_path is None:
            clinical_cols, regions = _split_header(path, header)
            first_volume = 4 + len(clinical_cols)
            demographics = None
        else:
            if header[:1] != ["id"] or any(c in CLINICAL_FIELDS + REQUIRED_COLUMNS
                                           for c in header[1:]):
                raise ValidationError(
                    f"{path}: with a demographics file, the input must contain only "
                    "an id column followed by region columns"
                )
            regions = header[1:]
            _check_regions(path, regions)
            first_volume = 1
            demographics = _load_demographics(demographics_path)
        yield tuple(regions)
        errors: list[str] = []
        seen: set[str] = set()
        for r, row in body:
            row_id = f"{path}: row {r}"
            if len(row) != len(header):
                errors.append(f"{row_id}: expected {len(header)} cells, got {len(row)}")
                continue
            sid = row[0].strip()
            if not sid:
                errors.append(f"{row_id}: empty subject id")
                continue
            if sid in seen:
                errors.append(f"{row_id}: duplicate subject id {sid!r}")
                continue
            seen.add(sid)
            where = f"{row_id} ({sid})"
            if demographics is None:
                fields = _parse_demographics(
                    row[1], row[2], row[3], zip(clinical_cols, row[4:first_volume]), errors,
                    where
                )
            elif sid in demographics:
                fields = demographics[sid]
            else:
                errors.append(f"{row_id}: subject {sid!r} missing from demographics file")
                continue
            if fields is None:
                continue
            volumes = _parse_volumes(row[first_volume:], errors, where)
            if volumes is None:
                continue
            age, gender, group, clinical = fields
            if age <= 0:
                errors.append(f"{row_id}: {_age_error(sid, age)}")
                continue
            # The row's cells passed SubjectRecord's checks above: a non-empty
            # id, finite values and a flat vector of fresh float64 volumes.
            yield _built(SubjectRecord, sid, age, gender, group, volumes,
                         types.MappingProxyType(dict(clinical)))
    if errors:
        raise ValidationError("invalid subject rows:\n  " + "\n  ".join(errors))


def _load_demographics(path) -> dict:
    """Map each subject id of a demographics CSV to its parsed fields."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, body = _csv_rows(path, fh)
        body = list(body)
    if header[:1] != ["id"]:
        raise ValidationError(f"{path}: demographics header must start with 'id'")
    known = ("age", "gender", "group") + CLINICAL_FIELDS
    unknown = [c for c in header[1:] if c not in known]
    if unknown:
        raise ValidationError(f"{path}: unknown demographics column {unknown[0]!r}")
    for col in ("age", "gender", "group"):
        if col not in header:
            raise ValidationError(f"{path}: demographics file must contain {col!r}")
    idx = {c: header.index(c) for c in header}
    clinical_idx = [(k, idx[k]) for k in CLINICAL_FIELDS if k in idx]
    errors: list[str] = []
    seen: set[str] = set()
    out: dict[str, tuple] = {}
    for r, row in body:
        row_id = f"{path}: row {r}"
        if len(row) != len(header):
            errors.append(f"{row_id}: expected {len(header)} cells, got {len(row)}")
            continue
        sid = row[0].strip()
        if not sid:
            errors.append(f"{row_id}: empty subject id")
            continue
        if sid in seen:
            errors.append(f"{row_id}: duplicate subject id {sid!r}")
            continue
        seen.add(sid)
        fields = _parse_demographics(
            row[idx["age"]], row[idx["gender"]], row[idx["group"]],
            [(k, row[i]) for k, i in clinical_idx], errors, f"{row_id} ({sid})",
        )
        if fields is not None:
            out[sid] = fields
    if errors:
        raise ValidationError("invalid demographics rows:\n  " + "\n  ".join(errors))
    return out
