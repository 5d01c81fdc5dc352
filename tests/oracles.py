"""Independent brute-force reference implementations.

Everything here deliberately avoids the code paths of the package under test:
clustering counts neighbor pairs directly, path lengths come from
Floyd-Warshall, the network code is folded with Fraction arithmetic, and
statistics are evaluated in exact rationals or with mpmath.

``random_reference_loop`` and ``cpl_bfs_loop`` are the earlier
implementations of ``random_reference`` and ``characteristic_path_length``
(a tuple-and-set swap loop and a per-source BFS),
``random_reference_bytearray`` the ``random_reference`` that came between
(two endpoint lists, a flat upper-triangle ``bytearray`` and a branch per
rejection rule), and ``ranked_upper_triangle_lexsort`` the earlier edge
ranking of the thresholds (a lexsort with row and column as explicit keys),
kept as references that the rewritten functions must match exactly.
Likewise ``sparsity_threshold_argsort`` is the earlier
``sparsity_threshold`` (a stable sort of every weight),
``target_edge_count_fraction`` the earlier ``target_edge_count`` (a
``Fraction`` product) and ``nodal_clustering_float64`` the earlier
``nodal_clustering`` (triangle counts in float64). ``sparsity_threshold_partition``
and ``nodal_clustering_float32`` are the one-network ``sparsity_threshold`` (a
partition of one upper triangle) and ``nodal_clustering`` (degrees as row
sums) from before both became the one-network case of the stacked functions
that the permutation test calls. ``keep_strongest_full_partition`` is the
stacked selection before the permutation test visited its levels in
ascending edge count: it partitions every row of the upper triangles in
full at each level, where ``graphs._keep_strongest`` partitions only the
prefix left unranked by the level before. ``encode_tril`` and
``decode_tril`` are the earlier ``encode`` and ``decode`` (a 2-D
``tril_indices`` lookup), and ``to_decimal_string_int`` and
``parse_decimal_string_int`` the earlier value form (int multiplication and
division by 5^scale), the latter with ``is_digits_str``, the earlier digit
check on the string itself. ``encode_stack_canonical``, ``decode_scatter``
and ``digits_to_int_split`` are the earlier ``codec._encode_stack`` (every
code through ``UbninCode.canonical`` and its checks), ``decode`` (a zeroed
matrix, a scatter into its lower triangle and an OR with its transpose) and
``_digits_to_int`` (one ``int`` call up to 640 digits, halves beyond).
``load_subjects_csv_two_loops`` is the earlier
``load_subjects_csv``, with its ``_load_combined`` and ``_load_demographics``
(a subject-row loop per CSV layout, and a clinical-cell loop in each of
``_load_combined`` and ``_load_demographics``). ``metrics_report_separate``
and ``small_world_index_separate`` are the earlier ``metrics_report`` and
``small_world_index``, in which the small-world index measured the network's
clustering and path length a second time and ran the reference loop itself.
``random_reference_two_lookup`` and ``metrics_report_one_loop`` are the
``random_reference`` and ``metrics_report`` from before both became the
one-network case of batches that share one set of reference draws
(``metrics._rewire`` and ``metrics._reports``).
``load_subjects_csv_cellwise`` is the one-loop ``load_subjects_csv`` before
its volume cells went through numpy a row at a time: it parses every cell
with ``float``. ``load_subjects_csv_lists`` is the one-loop loader before it
read its rows as they came (``subjects.stream_subjects_csv``): it reads every
non-empty row into a list first. All three subjects loaders also reject a
repeated subject id, a check that ``load_subjects_csv`` gained after them.
They build every record through the ``SubjectRecord`` constructor and its
checks, where ``load_subjects_csv`` builds a row's record without them once
the row has passed its own. Like the package's ``_load_demographics``, the
list-based one here reports a repeated id even when the id's first row
failed to parse.
``residualize_covariate_constructor`` is the earlier ``residualize_covariate``,
which rebuilt every record through the ``SubjectRecord`` constructor, where
the package builds each one without the checks, from the fit's fresh row
and the record's own read-only clinical mapping.
``check_labels_converted`` is the label
check before a tuple of ``str`` was checked without converting it.
``permutation_test_objects`` is the earlier ``permutation_test``: one serial
loop that builds a ``WeightedNetwork`` and a ``BinaryNetwork`` per group and
level for the observed split and for every iteration. Its networks come from
``pearson_network_three_checks``, the earlier ``_pearson_network``, which ran
its zero-span, non-finite and subnormal checks one after another on one
matrix (with numpy's warnings on), where the package now runs them through
``_pearson_rejection`` on a whole stack. Its correlations come from the
package's ``_pearson_stack``, which ``tests/test_subjects.py`` pins to the
bytes of ``np.corrcoef``. ``run_fingerprint_lists`` is the earlier
``run_fingerprint``, which built every subject's weighted network, then every
binary network, before it encoded the first, and returned every record;
it builds, thresholds and encodes one subject at a time through
``individual_network_pairwise`` and ``encode_take``, the ``individual_network``
and ``encode`` from before both became the one-row case of the block helpers
that the fingerprint run calls (``subjects._similarity_stack`` and
``codec._encode_stack``).
``parse_threshold_spec_with_mode`` is the earlier ``--threshold`` parser,
which returned a threshold mode and a strategy as well as the fraction.
``f_statistic_float`` is the earlier F of ``one_way_anova``, computed on the
values as given rather than scaled by a power of two first.
``decode_take_int32``, ``carry_by_division``, ``limb_digits_by_tens`` and
``parse_decimal_string_canonical`` are the earlier ``decode`` (a ``take``
through an int32 index), ``codec._carry`` (a division
in every pass), ``codec._limb_digits`` (each limb's digits by seven
divisions by 10) and ``parse_decimal_string`` (the table's proven quotient
built through ``UbninCode.canonical``).
``records_padded`` and ``write_json_padded`` are the earlier registry
writer: ``pipeline._records`` yielded each record's ``json.dumps(record,
indent=2)`` text, and ``pipeline._write_json`` padded its newlines to the
records list's indentation.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

import numpy as np

from ubnin import (
    __version__,
    BinaryNetwork,
    CohortTable,
    DegenerateDesignError,
    MalformedCodeError,
    MetricsReport,
    NotEstimableError,
    PermutationResult,
    SmallWorldResult,
    SubjectRecord,
    UbninCode,
    UndefinedMetricError,
    ValidationError,
    WeightedNetwork,
    characteristic_path_length,
    edge_count,
    mean_clustering,
    nodal_clustering,
    random_reference,
    sparsity_threshold,
)
from ubnin.codec import (
    _int_to_digits,
    _lower_flat,
    _render_stack,
    _table_numerator,
    max_scale,
    to_decimal_string,
    to_record,
)
from ubnin.graphs import _built, _upper_flat, target_edge_count
from ubnin import subjects as package_subjects
from ubnin.metrics import _check_count
from ubnin.pipeline import RENDER_CHUNK, RunConfig, _load_table, _write_json
from ubnin.subjects import (
    CLINICAL_FIELDS,
    REQUIRED_COLUMNS,
    _pearson_stack,
)


def clustering_brute(edges) -> list[float]:
    """Per-node clustering by enumerating neighbor pairs."""
    n = edges.shape[0]
    out = []
    for i in range(n):
        nbrs = [j for j in range(n) if edges[i, j]]
        k = len(nbrs)
        if k < 2:
            out.append(0.0)
            continue
        linked = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if edges[nbrs[a], nbrs[b]]
        )
        out.append(float(Fraction(2 * linked, k * (k - 1))))
    return out


def nodal_clustering_float64(b) -> np.ndarray:
    """Per-node clustering 2*t / (k*(k-1)) with degrees and triangles in float64."""
    a = b.edges.astype(np.float64)
    deg = a.sum(axis=1)
    triangles = ((a @ a) * a).sum(axis=1) / 2.0
    c = np.zeros(b.n)
    connected = deg >= 2
    c[connected] = 2.0 * triangles[connected] / (deg[connected] * (deg[connected] - 1.0))
    return c


def nodal_clustering_float32(b) -> np.ndarray:
    """Per-node clustering with float32 2-walks and degrees as float64 row sums."""
    a = b.edges.astype(np.float32)
    deg = a.sum(axis=1, dtype=np.float64)
    closed = ((a @ a) * a).sum(axis=1, dtype=np.float64)
    c = np.zeros(b.n)
    connected = deg >= 2
    k = deg[connected]
    c[connected] = closed[connected] / (k * (k - 1.0))
    return c


def cpl_floyd(edges) -> tuple[float, float]:
    """Characteristic path length via Floyd-Warshall over reachable pairs."""
    n = edges.shape[0]
    inf = math.inf
    dist = [[0 if i == j else (1 if edges[i, j] else inf) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    total = 0
    reachable = 0
    for i in range(n):
        for j in range(n):
            if i != j and dist[i][j] != inf:
                total += dist[i][j]
                reachable += 1
    if reachable == 0:
        raise ZeroDivisionError("no reachable pairs")
    return total / reachable, reachable / (n * (n - 1))


def cpl_bfs_loop(b) -> tuple[float, float]:
    """Characteristic path length by breadth-first search from each source."""
    e = b.edges
    n = b.n
    total = 0
    reachable = 0
    for src in range(n):
        visited = np.zeros(n, dtype=bool)
        visited[src] = True
        frontier = visited.copy()
        dist = 0
        while True:
            nxt = e[frontier].any(axis=0) & ~visited
            if not nxt.any():
                break
            dist += 1
            cnt = int(nxt.sum())
            total += dist * cnt
            reachable += cnt
            visited |= nxt
            frontier = nxt
    if reachable == 0:
        raise UndefinedMetricError("no reachable node pairs; path length is undefined")
    return total / reachable, reachable / (n * (n - 1))


def random_reference_loop(b, seed, swaps_per_edge: int = 10):
    """Double-edge swaps over a list of edge tuples and a set of present edges."""
    m = edge_count(b)
    if m < 2:
        raise ValidationError(f"rewiring needs at least 2 edges, got {m}")
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be nonnegative")
    rows, cols = np.nonzero(np.triu(b.edges, 1))
    edges = [(int(u), int(v)) for u, v in zip(rows, cols)]
    present = set(edges)
    rng = np.random.default_rng(seed)
    attempts = swaps_per_edge * m
    pair_idx = rng.integers(0, m, size=(attempts, 2))
    flips = rng.integers(0, 2, size=attempts)
    for (i, j), flip in zip(pair_idx, flips):
        if i == j:
            continue
        a, b_ = edges[i]
        c, d = edges[j]
        if flip:
            c, d = d, c
        first = (min(a, d), max(a, d))
        second = (min(c, b_), max(c, b_))
        if a == d or c == b_:
            continue
        if first == second or first in present or second in present:
            continue
        present.discard(edges[i])
        present.discard(edges[j])
        present.add(first)
        present.add(second)
        edges[i] = first
        edges[j] = second
    out = np.zeros((b.n, b.n), dtype=bool)
    for u, v in edges:
        out[u, v] = True
    out |= out.T
    return BinaryNetwork(out, b.labels)


def random_reference_bytearray(b, seed, swaps_per_edge: int = 10):
    """Double-edge swaps over two endpoint lists and a flat upper-triangle bytearray."""
    m = edge_count(b)
    if m < 2:
        raise ValidationError(f"rewiring needs at least 2 edges, got {m}")
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be nonnegative")
    n = b.n
    upper = np.triu(b.edges, 1)
    rows, cols = np.nonzero(upper)
    us = rows.tolist()
    vs = cols.tolist()
    adj = bytearray(upper.tobytes())
    rng = np.random.default_rng(seed)
    attempts = swaps_per_edge * m
    slots_i, slots_j = rng.integers(0, m, size=(attempts, 2)).T.tolist()
    flips = rng.integers(0, 2, size=attempts).tolist()
    for i, j, flip in zip(slots_i, slots_j, flips):
        if i == j:
            continue
        a = us[i]
        b_ = vs[i]
        if flip:
            c = vs[j]
            d = us[j]
        else:
            c = us[j]
            d = vs[j]
        if a == d or c == b_:
            continue
        first = a * n + d if a < d else d * n + a
        second = c * n + b_ if c < b_ else b_ * n + c
        if adj[first] or adj[second]:
            continue
        adj[a * n + b_] = 0
        adj[us[j] * n + vs[j]] = 0
        adj[first] = 1
        adj[second] = 1
        us[i], vs[i] = divmod(first, n)
        us[j], vs[j] = divmod(second, n)
    out = np.frombuffer(adj, dtype=np.uint8).reshape(n, n).astype(bool)
    out |= out.T
    return BinaryNetwork(out, b.labels)


def random_reference_two_lookup(b, seed, swaps_per_edge: int = 10):
    """Double-edge swaps of one network, tested with two byte reads per attempt."""
    _check_count("swaps_per_edge", swaps_per_edge)
    m = edge_count(b)
    if m < 2:
        raise ValidationError(f"rewiring needs at least 2 edges, got {m}")
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be nonnegative")
    rows, cols = np.nonzero(np.triu(b.edges, 1))
    us = np.concatenate([rows, cols]).tolist()
    vs = np.concatenate([cols, rows]).tolist()
    full = b.edges.view(np.uint8).copy()
    np.fill_diagonal(full, 1)
    adj = [bytearray(row) for row in full]
    rng = np.random.default_rng(seed)
    attempts = swaps_per_edge * m
    draws = rng.integers(0, m, size=(attempts, 2))
    second = draws[:, 1]
    second += m * rng.integers(0, 2, size=attempts)
    for start in range(0, attempts, 4096):
        stop = start + 4096
        for i, j in zip(draws[start:stop, 0].tolist(), second[start:stop].tolist()):
            # Slot i is edge (a, b) and slot j edge (c, d): this is adj[a][d] or adj[c][b].
            if adj[us[i]][vs[j]] or adj[us[j]][vs[i]]:
                continue
            # Accepted, so a, b, c, d are four distinct nodes (a == c or b == d
            # would make a new edge edge i itself) and the writes do not overlap.
            a = us[i]
            b_ = vs[i]
            c = us[j]
            d = vs[j]
            adj[a][b_] = adj[b_][a] = adj[c][d] = adj[d][c] = 0
            adj[a][d] = adj[d][a] = adj[c][b_] = adj[b_][c] = 1
            if j >= m:
                j -= m
            if a > d:
                a, d = d, a
            if c > b_:
                c, b_ = b_, c
            us[i] = vs[i + m] = a
            vs[i] = us[i + m] = d
            us[j] = vs[j + m] = c
            vs[j] = us[j + m] = b_
    out = np.frombuffer(b"".join(adj), dtype=np.uint8).reshape(b.n, b.n).astype(bool)
    np.fill_diagonal(out, False)
    return _built(BinaryNetwork, out, b.labels)


def small_world_index_separate(b, n_rand: int = 100, seed: int = 0,
                               swaps_per_edge: int = 10) -> SmallWorldResult:
    if n_rand < 1:
        raise ValueError("n_rand must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    c_obs = mean_clustering(b)
    l_obs, _ = characteristic_path_length(b)
    c_rand = np.empty(n_rand)
    l_rand = np.empty(n_rand)
    for idx in range(n_rand):
        ref = random_reference(b, seed=[seed, idx], swaps_per_edge=swaps_per_edge)
        try:
            l_rand[idx], _ = characteristic_path_length(ref)
        except UndefinedMetricError:
            raise NotEstimableError(
                f"random reference {idx} has undefined path length"
            ) from None
        c_rand[idx] = mean_clustering(ref)
        if c_rand[idx] == 0:
            raise NotEstimableError(f"random reference {idx} has zero clustering")
    gamma = c_obs / float(c_rand.mean())
    lam = l_obs / float(l_rand.mean())
    return SmallWorldResult(sigma=gamma / lam, gamma=gamma, lam=lam)


def metrics_report_separate(b, n_rand: int = 100, seed: int = 0,
                            swaps_per_edge: int = 10) -> MetricsReport:
    nodal = nodal_clustering(b)
    length, reach = characteristic_path_length(b)
    sw = None
    if n_rand > 0:
        sw = small_world_index_separate(b, n_rand=n_rand, seed=seed,
                                        swaps_per_edge=swaps_per_edge)
    return MetricsReport(
        mean_clustering=float(nodal.mean()),
        nodal_clustering=tuple(float(x) for x in nodal),
        char_path_length=length,
        reachable_pair_fraction=reach,
        mean_degree=2.0 * edge_count(b) / b.n,
        small_world_sigma=None if sw is None else sw.sigma,
        gamma=None if sw is None else sw.gamma,
        lam=None if sw is None else sw.lam,
        n_rand=n_rand if sw is not None else None,
        swaps_per_edge=swaps_per_edge if sw is not None else None,
        seed=seed if sw is not None else None,
    )


def metrics_report_one_loop(b, n_rand: int = 100, seed: int = 0,
                            swaps_per_edge: int = 10) -> MetricsReport:
    """The metric record of one network, its references drawn for it alone."""
    _check_count("n_rand", n_rand)
    if n_rand < 0:
        raise ValueError("n_rand must be >= 0")
    nodal = nodal_clustering(b)
    length, reach = characteristic_path_length(b)
    c_obs = float(nodal.mean())
    small_world = {}
    if n_rand > 0:
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        c_rand = np.empty(n_rand)
        l_rand = np.empty(n_rand)
        for idx in range(n_rand):
            ref = random_reference_two_lookup(b, [seed, idx], swaps_per_edge)
            try:
                l_rand[idx], _ = characteristic_path_length(ref)
            except UndefinedMetricError:
                raise NotEstimableError(
                    f"random reference {idx} has undefined path length"
                ) from None
            c_rand[idx] = mean_clustering(ref)
            if c_rand[idx] == 0:
                raise NotEstimableError(f"random reference {idx} has zero clustering")
        gamma = c_obs / float(c_rand.mean())
        lam = length / float(l_rand.mean())
        small_world = dict(small_world_sigma=gamma / lam, gamma=gamma, lam=lam,
                           n_rand=n_rand, swaps_per_edge=swaps_per_edge, seed=seed)
    return MetricsReport(
        mean_clustering=c_obs,
        nodal_clustering=tuple(nodal.tolist()),
        char_path_length=length,
        reachable_pair_fraction=reach,
        mean_degree=2.0 * edge_count(b) / b.n,
        **small_world,
    )


def ranked_upper_triangle_lexsort(values, rows, cols):
    """Indices sorting edge values descending, ties by (row, col) ascending."""
    return np.lexsort((cols, rows, -values))


def target_edge_count_fraction(keep: float, total_edges: int) -> int:
    """Edges retained when keeping a fraction of ``total_edges``.

    Rounds half away from zero, so ``keep * total_edges = 2.5`` keeps 3 edges.
    The product is evaluated in exact rational arithmetic; a float product
    can cross the half boundary and misround (e.g. keep 0.06 of 325 edges).
    """
    if not 0 < keep <= 1:
        raise ValueError(f"keep fraction must be in (0, 1], got {keep}")
    return int(math.floor(Fraction(keep) * total_edges + Fraction(1, 2)))


def sparsity_threshold_argsort(w, keep: float) -> BinaryNetwork:
    """Binarize a weighted network by retaining the strongest edges.

    Keeps exactly ``round(keep * n(n-1)/2)`` upper-triangle edges with the
    largest weights. Equal weights are resolved deterministically in ascending
    (row, col) order, so the result is reproducible for any weight multiset.
    """
    rows, cols = np.triu_indices(w.n, 1)
    vals = w.weights[rows, cols]
    k = target_edge_count_fraction(keep, vals.size)
    # triu_indices lists edges in ascending (row, col) order, which a stable
    # sort keeps among equal weights.
    sel = np.argsort(-vals, kind="stable")[:k]
    e = np.zeros((w.n, w.n), dtype=bool)
    e[rows[sel], cols[sel]] = True
    return BinaryNetwork(e | e.T, w.labels)


def sparsity_threshold_partition(w, keep: float) -> BinaryNetwork:
    """The k strongest upper-triangle edges by one partition of the triangle.

    Ties at the k-th largest weight keep the first equal weights in (row, col)
    order.
    """
    n = w.n
    flat = _upper_flat(n)
    vals = w.weights.take(flat)
    m = vals.size
    k = target_edge_count(keep, m)
    if k == 0:
        return _built(BinaryNetwork, np.zeros((n, n), dtype=bool), w.labels)
    # t is the k-th largest weight: fewer than k weights exceed it and the
    # rest of the k are the first weights equal to it in (row, col) order.
    t = np.partition(vals, m - k)[m - k]
    chosen = vals > t
    chosen[np.flatnonzero(vals == t)[:k - np.count_nonzero(chosen)]] = True
    e = np.zeros(n * n, dtype=bool)
    e[flat[chosen]] = True
    e = e.reshape(n, n)
    return _built(BinaryNetwork, e | e.T, w.labels)


def keep_strongest_full_partition(weights: np.ndarray, upper: np.ndarray, k: int,
                                  out: np.ndarray) -> np.ndarray:
    """The k strongest edges of each network of a stack, as adjacency ``out``.

    ``weights`` is a (g, n, n) stack of symmetric matrices and ``upper`` a
    (g, m) array of their upper triangles, which the partition reorders: all
    m entries of every row, whatever an earlier call left in them. ``out``
    is a (g, n, n) array of any dtype; it receives 1 for a kept edge, in both
    triangles, and 0 elsewhere, the diagonal included. Ties at the k-th
    largest weight keep the first equal weights in (row, col) order.
    """
    if k == 0:
        out[...] = 0
        return out
    n, m = weights.shape[1], upper.shape[1]
    upper.partition(m - k, axis=1)
    t = upper[:, m - k]
    np.greater_equal(weights, t[:, None, None], out=out, casting="unsafe")
    diag = np.arange(n)
    out[:, diag, diag] = 0
    if k == m:
        return out
    below = upper[:, :m - k]
    for i in np.flatnonzero(below.max(axis=1) == t):
        extra = np.count_nonzero(below[i] == t[i])
        ties = np.flatnonzero(np.triu(weights[i] == t[i], 1))  # (row, col) order
        rows, cols = np.divmod(ties[ties.size - extra:], n)
        out[i, rows, cols] = out[i, cols, rows] = 0
    return out


def check_labels_converted(labels, n) -> tuple[str, ...]:
    """The label check before a tuple of ``str`` skipped the conversion:
    every call converts every label to ``str`` and then checks it."""
    labels = () if labels is None else tuple(str(x) for x in labels)
    if not labels:
        return tuple(f"v{i}" for i in range(1, n + 1))
    if len(labels) != n:
        raise ValidationError(f"expected {n} node labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValidationError("node labels must be unique")
    if any(not lab for lab in labels):
        raise ValidationError("node labels must be non-empty")
    return labels


def column_codes(edges) -> tuple[int, ...]:
    """Column codes D_2 .. D_n: bit r of D_(j+1) is the edge (r, j), 0-based."""
    n = edges.shape[0]
    decs = []
    for j in range(1, n):
        value = 0
        for r in range(j):
            if edges[r, j]:
                value += 2 ** r
        decs.append(value)
    return tuple(decs)


def encode_fraction(edges) -> Fraction:
    """Fold the column codes with Fraction arithmetic."""
    decs = column_codes(edges)
    u = Fraction(decs[0])
    for i, d in enumerate(decs[1:], start=2):
        u = u / 2 ** (i - 1) + d
    return u


def encode_tril(b) -> UbninCode:
    """The lower triangle, read through ``tril_indices``, packed as the numerator."""
    bits = np.packbits(b.edges[np.tril_indices(b.n, -1)], bitorder="little")
    num = int.from_bytes(bits.tobytes(), "little")
    return UbninCode.canonical(b.n, num, max_scale(b.n))


def encode_take(b) -> UbninCode:
    """The lower triangle, read through flat ``take`` indices, packed as the numerator."""
    bits = np.packbits(b.edges.take(_lower_flat(b.n)), bitorder="little")
    return UbninCode.canonical(b.n, int.from_bytes(bits.tobytes(), "little"), max_scale(b.n))


def decode_tril(code, labels=None) -> BinaryNetwork:
    """The numerator at scale ``max_scale(n)`` unpacked into the lower triangle."""
    n = code.n
    pairs = n * (n - 1) // 2
    num = code.numerator << (max_scale(n) - code.scale)
    raw = np.frombuffer(num.to_bytes((pairs + 7) // 8, "little"), dtype=np.uint8)
    e = np.zeros((n, n), dtype=bool)
    e[np.tril_indices(n, -1)] = np.unpackbits(raw, count=pairs, bitorder="little")
    e |= e.T
    return BinaryNetwork(e, () if labels is None else labels)


def encode_stack_canonical(edges) -> list[UbninCode]:
    """The code of each adjacency of a (b, n, n) stack, each built through
    ``UbninCode.canonical`` and its checks."""
    n = edges.shape[1]
    lower = edges.reshape(len(edges), n * n).take(_lower_flat(n), axis=1)
    rows = np.packbits(lower, axis=1, bitorder="little")
    return [UbninCode.canonical(n, int.from_bytes(row.tobytes(), "little"), max_scale(n))
            for row in rows]


def decode_scatter(code, labels=None) -> BinaryNetwork:
    """The unpacked bits scattered into a zeroed lower triangle, then OR-ed
    with the transpose."""
    n = code.n
    pairs = n * (n - 1) // 2
    num = code.numerator << (max_scale(n) - code.scale)
    raw = np.frombuffer(num.to_bytes((pairs + 7) // 8, "little"), dtype=np.uint8)
    e = np.zeros(n * n, dtype=bool)
    e[_lower_flat(n)] = np.unpackbits(raw, count=pairs, bitorder="little").view(bool)
    e = e.reshape(n, n)
    e |= e.T
    return BinaryNetwork(e, () if labels is None else labels)


def decode_take_int32(code, labels=None) -> BinaryNetwork:
    """The unpacked bits gathered by one ``take`` through a flat int32
    index."""
    n = code.n
    pairs = n * (n - 1) // 2
    index = np.full(n * n, pairs, np.int32)
    flat = _lower_flat(n)
    index[flat] = index[flat % n * n + flat // n] = np.arange(pairs, dtype=np.int32)
    num = code.numerator << (max_scale(n) - code.scale)
    raw = np.frombuffer(num.to_bytes((pairs + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=pairs + 1, bitorder="little").view(bool)
    return BinaryNetwork(bits.take(index).reshape(n, n), () if labels is None else labels)


def carry_by_division(limbs: np.ndarray) -> np.ndarray:
    """``codec._carry`` with a division in every pass, along the last axis."""
    while True:
        high = limbs // 10 ** 8
        if not high.any():
            return limbs
        limbs[..., 1:] += high[..., :-1]
        high *= 10 ** 8
        limbs -= high


def limb_digits_by_tens(numerators: list[int], table: np.ndarray) -> str:
    """``codec._limb_digits`` with each carried limb's 8 digits found by
    seven passes of division by 10, after ``carry_by_division``."""
    words, limbs = table.shape
    packed = b"".join(x.to_bytes(2 * words, "little") for x in numerators)
    stack = np.frombuffer(packed, "<u2").reshape(len(numerators), words)
    carried = carry_by_division((stack @ table).astype(np.int64))
    rest = np.ascontiguousarray(carried[:, ::-1], np.uint32)
    digits = np.empty(rest.shape + (8,), np.uint8)
    for place in range(7, 0, -1):
        high = rest // 10
        digits[..., place] = rest - high * 10
        rest = high
    digits[..., 0] = rest
    digits += 48
    return str(digits.data, "ascii")


def parse_decimal_string_canonical(text: str, n: int) -> UbninCode:
    """``parse_decimal_string`` with every code built through
    ``UbninCode.canonical`` and its checks, the table's proven quotient
    included."""
    text = text.strip()
    int_part, sep, frac_part = text.partition(".")
    if not is_digits_str(int_part) or (sep and not is_digits_str(frac_part)):
        raise MalformedCodeError(f"not a nonnegative decimal number: {text!r}")
    frac_part = frac_part.rstrip("0")
    k = len(frac_part)
    if len(int_part.lstrip("0")) > n - 1 or k > max_scale(n):
        raise MalformedCodeError(f"{text!r} is out of range for {n} nodes")
    if k and (m := _table_numerator(int_part.lstrip("0") + frac_part, k, n)) is not None:
        return UbninCode.canonical(n, m, k)
    m, rest = divmod(digits_to_int_split(int_part + frac_part), 5 ** k)
    if rest:
        raise MalformedCodeError(f"{text!r} is not a dyadic rational; it cannot be a network code")
    return UbninCode.canonical(n, m, k)


def digits_to_int_split(digits: str) -> int:
    """A digit string as an int: one ``int`` call up to 640 digits, the
    least any interpreter limit allows, and halves joined by a power of
    ten beyond."""
    if len(digits) <= 640:
        return int(digits)
    k = len(digits) // 2
    return digits_to_int_split(digits[:-k]) * 10 ** k + digits_to_int_split(digits[-k:])


def to_decimal_string_int(code) -> str:
    """Digits of numerator * 5^scale with the point ``scale`` digits from the right."""
    if code.scale == 0:
        return _int_to_digits(code.numerator)
    digits = _int_to_digits(code.numerator * 5 ** code.scale).zfill(code.scale + 1)
    return f"{digits[:-code.scale]}.{digits[-code.scale:]}"


def is_digits_str(text: str) -> bool:
    """A nonempty string of ASCII digits 0-9 only, by ``str.isdigit``."""
    return text.isascii() and text.isdigit()


def parse_decimal_string_int(text: str, n: int) -> UbninCode:
    """Digits divided by 5^k in int arithmetic, k the fraction digits."""
    text = text.strip()
    int_part, sep, frac_part = text.partition(".")
    if not is_digits_str(int_part) or (sep and not is_digits_str(frac_part)):
        raise MalformedCodeError(f"not a nonnegative decimal number: {text!r}")
    frac_part = frac_part.rstrip("0")
    k = len(frac_part)
    if len(int_part.lstrip("0")) > n - 1 or k > max_scale(n):
        raise MalformedCodeError(f"{text!r} is out of range for {n} nodes")
    m = digits_to_int_split(int_part + frac_part)
    m, rest = divmod(m, 5 ** k)
    if rest:
        raise MalformedCodeError(f"{text!r} is not a dyadic rational; it cannot be a network code")
    return UbninCode.canonical(n, m, k)


def pearson_brute(x, y) -> float:
    """Pearson correlation in exact rational arithmetic, rounded at the end."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def kept_edges_oracle(keep: float, total: int) -> int:
    """round(keep * total), half away from zero, in exact arithmetic."""
    exact = Fraction(keep) * total
    return int(math.floor(exact + Fraction(1, 2)))


def f_statistic_fraction(groups) -> Fraction:
    """One-way ANOVA F statistic in exact rational arithmetic."""
    groups = [[Fraction(v) for v in g] for g in groups]
    sizes = [len(g) for g in groups]
    n = sum(sizes)
    k = len(groups)
    grand = sum(sum(g) for g in groups) / n
    means = [sum(g) / len(g) for g in groups]
    ssb = sum(s * (m - grand) ** 2 for s, m in zip(sizes, means))
    ssw = sum(sum((v - m) ** 2 for v in g) for g, m in zip(groups, means))
    return (ssb / (k - 1)) / (ssw / (n - k))


def f_statistic_float(groups) -> float:
    """One-way ANOVA F statistic in float64, on the values as given."""
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    sizes = np.array([a.size for a in arrays])
    grand = float(np.concatenate(arrays).mean())
    means = np.array([a.mean() for a in arrays])
    ss_between = float((sizes * (means - grand) ** 2).sum())
    ss_within = float(sum(((a - m) ** 2).sum() for a, m in zip(arrays, means)))
    return (ss_between / (len(arrays) - 1)) / (ss_within / (int(sizes.sum()) - len(arrays)))


def f_tail_mpmath(f_value, df_between, df_within, dps=50):
    """Upper-tail F probability with mpmath at high precision."""
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(df_within) / (df_within + mp.mpf(df_between) * mp.mpf(f_value))
        return mp.betainc(
            mp.mpf(df_within) / 2, mp.mpf(df_between) / 2, 0, x, regularized=True
        )


# The earlier subjects loader, copied unchanged apart from the entry point's
# name and the repeated-id check, with the header and cell helpers it calls.

def _read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    return header, rows[1:]


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
    if len(regions) < 2:
        raise ValidationError(f"{path}: need at least 2 region columns, got {len(regions)}")
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


def load_subjects_csv_two_loops(path, demographics_path=None) -> CohortTable:
    """Load subjects from CSV, optionally joining a separate demographics file.

    Every malformed row is reported; the load fails as a whole if any row is
    invalid, so a successfully loaded table is always complete.
    """
    header, body = _read_csv_rows(path)
    if demographics_path is None:
        return _load_combined(path, header, body)
    if header[:1] != ["id"] or any(c in CLINICAL_FIELDS + REQUIRED_COLUMNS for c in header[1:]):
        raise ValidationError(
            f"{path}: with a demographics file, the input must contain only "
            "an id column followed by region columns"
        )
    regions = header[1:]
    if len(regions) < 2:
        raise ValidationError(f"{path}: need at least 2 region columns")
    if len(set(regions)) != len(regions):
        raise ValidationError(f"{path}: duplicate region column")
    demo = _load_demographics(demographics_path)
    errors: list[str] = []
    seen: set[str] = set()
    subjects = []
    for r, row in enumerate(body, start=2):
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
        if sid not in demo:
            errors.append(f"{row_id}: subject {sid!r} missing from demographics file")
            continue
        age, gender, group, clinical = demo[sid]
        volumes = [_parse_float(c, "volume", errors, f"{row_id} ({sid})") for c in row[1:]]
        if any(v is None for v in volumes):
            continue
        try:
            subjects.append(SubjectRecord(sid, age, gender, group, np.array(volumes), clinical))
        except ValidationError as exc:
            errors.append(f"{row_id}: {exc}")
    if errors:
        raise ValidationError("invalid subject rows:\n  " + "\n  ".join(errors))
    return CohortTable("all", tuple(regions), tuple(subjects))


def _load_combined(path, header, body) -> CohortTable:
    clinical_cols, regions = _split_header(path, header)
    errors: list[str] = []
    seen: set[str] = set()
    subjects = []
    for r, row in enumerate(body, start=2):
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
        age = _parse_float(row[1], "age", errors, f"{row_id} ({sid})")
        if age is None:
            continue
        gender, group = row[2].strip(), row[3].strip()
        clinical = {}
        bad = False
        for k, cell in zip(clinical_cols, row[4:4 + len(clinical_cols)]):
            if cell.strip() == "":
                continue
            v = _parse_float(cell, k, errors, f"{row_id} ({sid})")
            if v is None:
                bad = True
                break
            clinical[k] = v
        if bad:
            continue
        volumes = [
            _parse_float(c, "volume", errors, f"{row_id} ({sid})")
            for c in row[4 + len(clinical_cols):]
        ]
        if any(v is None for v in volumes):
            continue
        try:
            subjects.append(SubjectRecord(sid, age, gender, group, np.array(volumes), clinical))
        except ValidationError as exc:
            errors.append(f"{row_id}: {exc}")
    if errors:
        raise ValidationError("invalid subject rows:\n  " + "\n  ".join(errors))
    return CohortTable("all", tuple(regions), tuple(subjects))


def _load_demographics(path) -> dict:
    header, body = _read_csv_rows(path)
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
    errors: list[str] = []
    seen: set[str] = set()
    out: dict[str, tuple] = {}
    for r, row in enumerate(body, start=2):
        row_id = f"{path}: row {r}"
        if len(row) != len(header):
            errors.append(f"{row_id}: expected {len(header)} cells, got {len(row)}")
            continue
        sid = row[idx["id"]].strip()
        if not sid:
            errors.append(f"{row_id}: empty subject id")
            continue
        if sid in seen:
            errors.append(f"{row_id}: duplicate subject id {sid!r}")
            continue
        seen.add(sid)
        age = _parse_float(row[idx["age"]], "age", errors, f"{row_id} ({sid})")
        if age is None:
            continue
        clinical = {}
        bad = False
        for k in CLINICAL_FIELDS:
            if k in idx and row[idx[k]].strip() != "":
                v = _parse_float(row[idx[k]], k, errors, f"{row_id} ({sid})")
                if v is None:
                    bad = True
                    break
                clinical[k] = v
        if bad:
            continue
        out[sid] = (age, row[idx["gender"]].strip(), row[idx["group"]].strip(), clinical)
    if errors:
        raise ValidationError("invalid demographics rows:\n  " + "\n  ".join(errors))
    return out


# The one-loop loader as it was before its volume cells went through numpy
# a row at a time; it shares the package's header and demographics helpers.

def load_subjects_csv_cellwise(path, demographics_path=None) -> CohortTable:
    """The one-loop loader, parsing every volume cell with ``float``.

    Every malformed row is reported; the load fails as a whole if any row is
    invalid, so a successfully loaded table is always complete.
    """
    header, body = _read_csv_rows(path)
    if demographics_path is None:
        clinical_cols, regions = package_subjects._split_header(path, header)
        first_volume = 4 + len(clinical_cols)
        demographics = None
    else:
        if header[:1] != ["id"] or any(c in CLINICAL_FIELDS + REQUIRED_COLUMNS for c in header[1:]):
            raise ValidationError(
                f"{path}: with a demographics file, the input must contain only "
                "an id column followed by region columns"
            )
        regions = header[1:]
        package_subjects._check_regions(path, regions)
        first_volume = 1
        demographics = package_subjects._load_demographics(demographics_path)
    errors: list[str] = []
    seen: set[str] = set()
    subjects = []
    for r, row in enumerate(body, start=2):
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
            fields = package_subjects._parse_demographics(
                row[1], row[2], row[3], zip(clinical_cols, row[4:first_volume]), errors, where
            )
        elif sid in demographics:
            fields = demographics[sid]
        else:
            errors.append(f"{row_id}: subject {sid!r} missing from demographics file")
            continue
        if fields is None:
            continue
        volumes = [_parse_float(c, "volume", errors, where) for c in row[first_volume:]]
        if any(v is None for v in volumes):
            continue
        age, gender, group, clinical = fields
        try:
            subjects.append(SubjectRecord(sid, age, gender, group, np.array(volumes), clinical))
        except ValidationError as exc:
            errors.append(f"{row_id}: {exc}")
    if errors:
        raise ValidationError("invalid subject rows:\n  " + "\n  ".join(errors))
    return CohortTable("all", tuple(regions), tuple(subjects))


# The one-loop loader as it was before it read its rows as they came: every
# non-empty row is read into a list first. It shares the package's header
# and cell helpers, and joins a demographics file through the list-based
# ``_load_demographics`` above.

def load_subjects_csv_lists(path, demographics_path=None) -> CohortTable:
    """The one-loop loader over a list of every row.

    Every malformed row is reported; the load fails as a whole if any row is
    invalid, so a successfully loaded table is always complete.
    """
    header, body = _read_csv_rows(path)
    if demographics_path is None:
        clinical_cols, regions = package_subjects._split_header(path, header)
        first_volume = 4 + len(clinical_cols)
        demographics = None
    else:
        if header[:1] != ["id"] or any(c in CLINICAL_FIELDS + REQUIRED_COLUMNS for c in header[1:]):
            raise ValidationError(
                f"{path}: with a demographics file, the input must contain only "
                "an id column followed by region columns"
            )
        regions = header[1:]
        package_subjects._check_regions(path, regions)
        first_volume = 1
        demographics = _load_demographics(demographics_path)
    errors: list[str] = []
    seen: set[str] = set()
    subjects = []
    for r, row in enumerate(body, start=2):
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
            fields = package_subjects._parse_demographics(
                row[1], row[2], row[3], zip(clinical_cols, row[4:first_volume]), errors, where
            )
        elif sid in demographics:
            fields = demographics[sid]
        else:
            errors.append(f"{row_id}: subject {sid!r} missing from demographics file")
            continue
        if fields is None:
            continue
        volumes = package_subjects._parse_volumes(row[first_volume:], errors, where)
        if volumes is None:
            continue
        age, gender, group, clinical = fields
        try:
            subjects.append(SubjectRecord(sid, age, gender, group, volumes, clinical))
        except ValidationError as exc:
            errors.append(f"{row_id}: {exc}")
    if errors:
        raise ValidationError("invalid subject rows:\n  " + "\n  ".join(errors))
    return CohortTable("all", tuple(regions), tuple(subjects))



def residualize_covariate_constructor(table: CohortTable, covariate: str) -> CohortTable:
    """Remove a covariate's effect from every region volume, rebuilding each
    record through the ``SubjectRecord`` constructor and its checks."""
    values = package_subjects._covariate_values(table, covariate)
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
    new_subjects = [
        SubjectRecord(s.id, s.age, s.gender, s.group, adjusted[i], dict(s.clinical))
        for i, s in enumerate(table.subjects)
    ]
    return table.replace_subjects(new_subjects)


_TINY = np.finfo(np.float64).tiny


def pearson_network_three_checks(volume_matrix: np.ndarray, labels) -> WeightedNetwork:
    """Correlation network of a subjects-by-regions matrix, checked step by step."""
    if volume_matrix.shape[0] < 3:
        raise DegenerateDesignError(
            f"association matrix needs >= 3 subjects, got {volume_matrix.shape[0]}"
        )
    spans = volume_matrix.max(axis=0) - volume_matrix.min(axis=0)
    flat = np.flatnonzero(spans == 0)
    if flat.size:
        names = ", ".join(labels[i] for i in flat)
        raise DegenerateDesignError(f"zero-variance regions: {names}")
    stack, var = _pearson_stack(volume_matrix[None])
    corr = (stack[0] + stack[0].T) / 2.0
    if not np.isfinite(corr).all():
        cells = np.argwhere(~np.isfinite(corr))
        i, j = cells[np.argmax(cells[:, 0] != cells[:, 1])]  # a region pair before a region
        pair = (f"regions {labels[i]} and {labels[j]}" if i != j
                else f"region {labels[i]} and itself")
        raise ValidationError(
            f"non-finite weight between {pair}: "
            "the correlation of their volumes overflows or underflows float64"
        )
    low = np.flatnonzero(var[0] < _TINY)
    if low.size:
        i = low[0]
        raise ValidationError(
            f"region {labels[i]}: the variance of its volumes, {var[0, i]}, "
            "is below the smallest normal float64, so its correlations lose precision"
        )
    np.fill_diagonal(corr, 0.0)
    return _built(WeightedNetwork, corr, labels)


def permutation_test_objects(group_a: CohortTable, group_b: CohortTable, sparsities,
                             iterations: int = 1000, seed: int = 0) -> PermutationResult:
    """The permutation test as one serial loop over network objects."""
    if group_a.region_labels != group_b.region_labels:
        raise ValidationError("cohorts must share identical region labels")
    if len(group_a) < 3 or len(group_b) < 3:
        raise DegenerateDesignError("permutation test needs >= 3 subjects per cohort")
    sparsities = tuple(float(s) for s in sparsities)
    if not sparsities or any(not 0 < s <= 1 for s in sparsities):
        raise ValueError("sparsity levels must be a non-empty subset of (0, 1]")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    labels = group_a.region_labels
    pool = np.vstack([group_a.volume_matrix(), group_b.volume_matrix()])
    n_a = len(group_a)
    n_total = pool.shape[0]

    def stat(rows_a, rows_b):
        net_a = pearson_network_three_checks(pool[rows_a], labels)
        net_b = pearson_network_three_checks(pool[rows_b], labels)
        return [
            mean_clustering(sparsity_threshold(net_a, s))
            - mean_clustering(sparsity_threshold(net_b, s))
            for s in sparsities
        ]

    observed = stat(np.arange(n_a), np.arange(n_a, n_total))

    perms = (np.random.default_rng([seed, t]).permutation(n_total) for t in range(iterations))
    perm_stats = np.asarray([stat(perm[:n_a], perm[n_a:]) for perm in perms])
    obs = np.asarray(observed)
    exceed = (np.abs(perm_stats) >= np.abs(obs)).sum(axis=0)
    p = (1.0 + exceed) / (1.0 + iterations)
    return PermutationResult(
        sparsities=sparsities,
        observed_diff=tuple(float(x) for x in obs),
        perm_mean_diff=tuple(float(x) for x in perm_stats.mean(axis=0)),
        p_value=tuple(float(x) for x in p),
        iterations=iterations,
        seed=seed,
    )


def individual_network_pairwise(subject, region_labels=None) -> WeightedNetwork:
    """One subject's similarity network from its own matrix of differences."""
    volumes = np.asarray(getattr(subject, "volumes", subject), dtype=float)
    diff = volumes[:, None] - volumes[None, :]
    w = 1.0 / (diff * diff + 1.0)
    np.fill_diagonal(w, 0.0)
    return WeightedNetwork(w, () if region_labels is None else region_labels)


def subject_code(subject, region_labels, keep: float) -> UbninCode:
    """A subject's code, built, thresholded and encoded on its own."""
    return encode_take(sparsity_threshold(individual_network_pairwise(subject, region_labels),
                                          keep))


def run_fingerprint_lists(config: RunConfig) -> dict:
    """The fingerprint run with every subject's networks held in lists."""
    table = _load_table(config)
    if not table.subjects:
        raise ValidationError("no subjects to fingerprint")
    networks = [individual_network_pairwise(s, table.region_labels) for s in table.subjects]
    binarized = [sparsity_threshold(w, config.threshold_fraction) for w in networks]
    records = []
    by_code: dict = {}
    for subject, net in zip(table.subjects, binarized):
        code = encode_take(net)
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


def records_padded(held: list):
    """Each held (id, code)'s registry record as the text of
    ``json.dumps(record, indent=2)``, rendered a chunk at a time by
    ``codec._render_stack``, for ``write_json_padded`` to indent."""
    for start in range(0, len(held), RENDER_CHUNK):
        chunk = held[start:start + RENDER_CHUNK]
        rendered = _render_stack([code for _, code in chunk])
        held[start:start + len(chunk)] = [None] * len(chunk)
        for (sid, code), (value, numerator) in zip(chunk, rendered):
            yield (f'{{\n  "id": {json.dumps(sid)},\n  "n": {code.n},\n'
                   f'  "value": "{value}",\n'
                   f'  "numerator": "{numerator}",\n  "scale": {code.scale}\n}}')


def write_json_padded(path, doc: dict) -> None:
    """``json.dump(doc, fh, indent=2)`` and a newline, a piece at a time, an
    iterator value standing for a list of the ``json.dumps(item, indent=2)``
    texts it yields, each padded to the list's indentation by a
    ``str.replace`` of its newlines."""
    encoder = json.JSONEncoder(indent=2)

    def pieces():
        mark = "{"
        for key, value in doc.items():
            yield f"{mark}\n  {json.dumps(key)}: "
            mark = ","
            if isinstance(value, Iterator):
                item_mark = "["
                for text in value:
                    yield f"{item_mark}\n    "
                    yield text.replace("\n", "\n    ")
                    item_mark = ","
                yield "[]" if item_mark == "[" else "\n  ]"
            else:
                for piece in encoder.iterencode(value):
                    yield piece.replace("\n", "\n  ")
        yield "{}" if mark == "{" else "\n}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces())
        fh.write("\n")


THRESHOLD_MODES = ("sparsity", "consistency")


def parse_threshold_spec_with_mode(text: str) -> tuple[str, float, str]:
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
