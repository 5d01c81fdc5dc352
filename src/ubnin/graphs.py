"""Network containers and binarization operators.

Networks are labeled, symmetric, and loop-free. ``WeightedNetwork`` holds
real-valued association or similarity weights, ``BinaryNetwork`` a boolean
adjacency matrix. Both are immutable after construction. Their constructors
check every input; the library's own operators, whose output is valid by
construction, wrap it with ``_built`` instead. ``_built`` serves any frozen
dataclass of the package: the loader's subject records and the encoder's
codes skip their constructors' checks through it too.
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError, _check_fraction


def default_labels(n: int) -> tuple[str, ...]:
    """Generate placeholder node labels v1..vn."""
    return tuple(f"v{i}" for i in range(1, n + 1))


# The labels that last passed _check_labels, a tuple of str. A tuple of str
# cannot change, so it passes again at the same length without the checks:
# a cohort's networks share one tuple of region labels.
_passed: tuple[str, ...] = ()


def _check_labels(labels, n) -> tuple[str, ...]:
    """Checked labels as strings, or ``default_labels(n)`` for None or no labels.

    Converts to a tuple before testing for emptiness: a numpy array of
    labels has no truth value of its own. A tuple whose labels are all
    ``str`` needs no conversion and is returned as it is.
    """
    global _passed
    if labels is _passed and len(labels) == n:
        return labels
    if labels is None:
        labels = ()
    elif type(labels) is not tuple or not all(type(x) is str for x in labels):
        labels = tuple(str(x) for x in labels)
    if not labels:
        return default_labels(n)
    if len(labels) != n:
        raise ValidationError(f"expected {n} node labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValidationError("node labels must be unique")
    if any(not lab for lab in labels):
        raise ValidationError("node labels must be non-empty")
    _passed = labels
    return labels


@dataclass(frozen=True, eq=False)
class WeightedNetwork:
    """Symmetric real-valued network over labeled nodes, zero diagonal."""

    weights: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        labels = _check_matrix(w, self.labels, "weight")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __eq__(self, other):
        if not isinstance(other, WeightedNetwork):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.weights, other.weights)

    def __repr__(self):
        return f"WeightedNetwork(n={self.n})"


@dataclass(frozen=True, eq=False)
class BinaryNetwork:
    """Symmetric boolean adjacency matrix over labeled nodes, zero diagonal."""

    edges: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        e = np.array(self.edges, copy=True)
        if e.dtype != np.bool_:
            vals = np.unique(e)
            if not np.all(np.isin(vals, (0, 1))):
                raise ValidationError("adjacency entries must be 0 or 1")
            e = e.astype(bool)
        labels = _check_matrix(e.view(np.uint8), self.labels, "adjacency")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.edges.shape[0]

    def __eq__(self, other):
        if not isinstance(other, BinaryNetwork):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.edges, other.edges)

    def __repr__(self):
        return f"BinaryNetwork(n={self.n}, edges={edge_count(self)})"


def _built(cls, *values):
    """A ``cls`` instance over field values that are valid by construction.

    Skips the constructor's checks, conversions and copies: the caller
    passes every field's value, in field order, in the form that the
    constructor stores, each one fresh or immutable. Every array among them
    becomes read-only. For a network: a square array of the field's dtype
    (bool edges, float64 weights) with at least 2 rows, symmetric, with a
    zero diagonal and finite entries, and labels that ``_check_labels`` has
    accepted.
    """
    obj = object.__new__(cls)
    for value in values:
        if type(value) is np.ndarray:
            value.setflags(write=False)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))  # the field names, in order
    return obj


def _check_matrix(m: np.ndarray, labels, what: str) -> tuple[str, ...]:
    """Check a network's ``what`` matrix ``m`` and return its checked labels.

    Checks, in order: a square shape, at least 2 nodes, the labels, finite
    entries, symmetry and a zero diagonal. Messages name cells by label and
    format entries with ``str``, which prints numpy scalars as plain numbers;
    pass a boolean matrix as uint8 so that its entries print as 1 and 0.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise ValidationError("a network needs at least 2 nodes")
    labels = _check_labels(labels, n)
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValidationError(f"non-finite {what} at ({labels[i]},{labels[j]}): {m[i, j]}")
    if not np.array_equal(m, m.T):
        i, j = np.argwhere(np.triu(m != m.T, 1))[0]
        raise ValidationError(
            f"{what} matrix is not symmetric at ({labels[i]},{labels[j]}): "
            f"{m[i, j]} vs {m[j, i]}"
        )
    diag = np.diagonal(m)
    if diag.any():
        i = int(np.flatnonzero(diag)[0])
        raise ValidationError(f"self-loop at {labels[i]}; diagonal must be zero, found {diag[i]}")
    return labels


def degree(b: BinaryNetwork, i: int) -> int:
    """Number of neighbors of node ``i`` (0-based index)."""
    if not 0 <= int(i) < b.n:
        raise IndexError(f"node index {i} out of range for {b.n} nodes")
    return int(b.edges[int(i)].sum())


def degree_sequence(b: BinaryNetwork) -> np.ndarray:
    """Degrees of all nodes, in node order."""
    return b.edges.sum(axis=1).astype(np.int64)


def edge_count(b: BinaryNetwork) -> int:
    """Number of undirected edges."""
    return int(b.edges.sum()) // 2


def target_edge_count(keep: float, total_edges: int) -> int:
    """Edges retained when keeping a fraction of ``total_edges``.

    Rounds half away from zero, so ``keep * total_edges = 2.5`` keeps 3 edges.
    The product is evaluated in exact integer arithmetic on the fraction's
    ratio p/q; a float product can cross the half boundary and misround
    (e.g. keep 0.06 of 325 edges).
    """
    _check_fraction("keep fraction", keep)
    p, q = keep.as_integer_ratio()
    # a Python int, so a numpy integer count cannot wrap around in the product
    total_edges = operator.index(total_edges)
    return (2 * p * total_edges + q) // (2 * q)


@functools.lru_cache(maxsize=8)
def _upper_flat(n: int) -> np.ndarray:
    """Read-only flat indices ``row * n + col`` of the upper triangle, row-major."""
    rows, cols = np.triu_indices(n, 1)
    flat = rows * n + cols
    flat.setflags(write=False)
    return flat


def _keep_strongest(weights: np.ndarray, upper: np.ndarray, k: int,
                    out: np.ndarray, ranked: int | None = None) -> np.ndarray:
    """The k strongest edges of each network of a stack, as adjacency ``out``.

    ``weights`` is a (g, n, n) stack of symmetric matrices and ``upper`` a
    (g, m) array of their upper triangles, which the partition reorders.
    ``out`` is a C-ordered (g, n, n) array of any dtype; it receives 1 for a
    kept edge, in both triangles, and 0 elsewhere, the diagonal included.
    Ties at the k-th largest weight keep the first equal weights in
    (row, col) order.

    ``ranked`` (default m) is the length of the prefix of ``upper`` whose
    order is still unknown: a call at k leaves ``upper[:, m - k:]`` at least
    as large as every entry before it, so a later call at k' >= k passes
    ``ranked=m - k`` and partitions only that prefix. The result depends on
    ``upper`` only through each row's multiset, so it is the same for any
    ``ranked`` that a call of a smaller or equal k left behind.
    """
    if k == 0:
        out[...] = 0
        return out
    (g, n), m = weights.shape[:2], upper.shape[1]
    ranked = m if ranked is None else ranked
    if not m - k <= ranked <= m:
        raise ValueError(f"a ranked prefix of {ranked} cannot hold the pivot {m - k} of {m}")
    # t is each network's k-th largest weight. Every weight above it is kept,
    # and of those equal to it the first in (row, col) order fill the k places.
    if m - k < ranked:
        upper[:, :ranked].partition(m - k, axis=1)
    t = upper[:, m - k]
    np.greater_equal(weights, t[:, None, None], out=out, casting="unsafe")
    out.reshape(g, n * n)[:, ::n + 1] = 0  # the diagonal, through a view of C-ordered out
    if k == m:
        return out
    # The partition leaves the m - k weights below its pivot at most t, so a
    # network has more ties at t than places only if their largest equals t.
    below = upper[:, :m - k]
    for i in np.flatnonzero(below.max(axis=1) == t):
        extra = np.count_nonzero(below[i] == t[i])
        ties = np.flatnonzero(np.triu(weights[i] == t[i], 1))  # (row, col) order
        rows, cols = np.divmod(ties[ties.size - extra:], n)
        out[i, rows, cols] = out[i, cols, rows] = 0
    return out


def sparsity_threshold(w: WeightedNetwork, keep: float) -> BinaryNetwork:
    """Binarize a weighted network by retaining the strongest edges.

    Keeps exactly ``round(keep * n(n-1)/2)`` upper-triangle edges with the
    largest weights. Equal weights are resolved deterministically in ascending
    (row, col) order, so the result is reproducible for any weight multiset.
    """
    return _built(BinaryNetwork, _threshold_stack(w.weights[None], keep)[0], w.labels)


def _threshold_stack(weights: np.ndarray, keep: float) -> np.ndarray:
    """The ``sparsity_threshold`` adjacency of each network of a C-ordered
    (b, n, n) stack of weights, as one (b, n, n) bool array: one take of the
    upper triangles and one ``_keep_strongest`` call for the whole stack."""
    b, n = weights.shape[:2]
    flat = _upper_flat(n)
    upper = weights.reshape(b, n * n).take(flat, axis=1)
    return _keep_strongest(weights, upper, target_edge_count(keep, flat.size),
                           np.empty((b, n, n), bool))


def consistency_threshold(stack: Sequence[WeightedNetwork], keep: float) -> list[BinaryNetwork]:
    """Binarize a stack of same-shaped weighted networks, each on its own.

    Every network is thresholded independently at the given keep fraction
    (``sparsity_threshold``), which preserves between-subject differences.
    The stack must hold at least 1 network, and its networks the same labels.
    """
    if not stack:
        raise ValidationError("consistency thresholding needs at least 1 network")
    first = stack[0]
    for idx, w in enumerate(stack[1:], start=2):
        if w.n != first.n or w.labels != first.labels:
            raise ValidationError(
                f"network {idx} does not match network 1 (labels or dimensions differ)"
            )
    return [sparsity_threshold(w, keep) for w in stack]


# ---------------------------------------------------------------------------
# Matrix CSV format: first row is the node labels, then n rows of n 0/1
# values. The subjects readers read their rows through the same _csv_rows.
# ---------------------------------------------------------------------------

def _csv_rows(path, fh) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header of an open CSV file, and an iterator over its
    later rows as (row number, cells).

    Blank lines are skipped and not counted: the header is row 1, and the
    n-th non-empty row after it is row n + 1. Rows are read as they are
    reached, so none is held after the caller moves on. A row that the
    ``csv`` module cannot read, such as one with a cell over its field size
    limit, raises ``ValidationError`` naming the file and the row.
    """
    rows = _numbered_rows(path, fh)
    first = next(rows, None)
    if first is None:
        raise ValidationError(f"{path}: empty file")
    return [cell.strip() for cell in first[1]], rows


def _numbered_rows(path, fh) -> Iterator[tuple[int, list[str]]]:
    r = 0
    try:
        for row in filter(None, csv.reader(fh)):
            r += 1
            yield r, row
    except csv.Error as exc:
        raise ValidationError(f"{path}: row {r + 1}: {exc}") from None


def _read_matrix_rows(path) -> tuple[tuple[str, ...], list[list[str]]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, rows = _csv_rows(path, fh)
        numbered = list(rows)
    labels = tuple(header)
    n = len(labels)
    if len(numbered) != n:
        raise ValidationError(f"{path}: expected {n} data rows for {n} labels, got {len(numbered)}")
    for r, row in numbered:
        if len(row) != n:
            raise ValidationError(f"{path}: row {r} has {len(row)} values, expected {n}")
    return labels, [row for _, row in numbered]


def _network(path, cls, matrix, labels):
    """``cls(matrix, labels)``, with ``path`` before the message of what it raises."""
    try:
        return cls(matrix, labels)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_binary_matrix(path) -> BinaryNetwork:
    """Load a binary network from matrix CSV with strict 0/1 entries."""
    labels, body = _read_matrix_rows(path)
    cells = np.char.strip(np.array(body, dtype=str))
    invalid = (cells != "0") & (cells != "1")
    if invalid.any():
        i, j = np.argwhere(invalid)[0]
        raise ValidationError(
            f"{path}: invalid binary value {body[i][j]!r} at ({i + 1},{j + 1}); expected 0 or 1"
        )
    return _network(path, BinaryNetwork, cells == "1", labels)


def _format_matrix(labels, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(labels)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def format_binary_matrix(b: BinaryNetwork) -> str:
    """Render a binary network in matrix CSV form."""
    return _format_matrix(b.labels, b.edges.astype(int).tolist())


def save_binary_matrix(b: BinaryNetwork, path) -> None:
    Path(path).write_text(format_binary_matrix(b), encoding="utf-8")

