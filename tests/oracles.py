"""Independent brute-force reference implementations.

Everything here deliberately avoids the code paths of the package under test:
clustering counts neighbor pairs directly, path lengths come from
Floyd-Warshall, the network code is folded with Fraction arithmetic, and
statistics are evaluated in exact rationals or with mpmath.

``random_reference_loop`` and ``cpl_bfs_loop`` are the earlier
implementations of ``random_reference`` and ``characteristic_path_length``
(a tuple-and-set swap loop and a per-source BFS), and
``ranked_upper_triangle_lexsort`` the earlier edge ranking of the thresholds
(a lexsort with row and column as explicit keys), kept as references that the
rewritten functions must match exactly. Likewise ``sparsity_threshold_argsort``
is the earlier ``sparsity_threshold`` (a stable sort of every weight) and
``target_edge_count_fraction`` the earlier ``target_edge_count`` (a
``Fraction`` product).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ubnin import BinaryNetwork, UndefinedMetricError, ValidationError, edge_count


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


def ranked_upper_triangle_lexsort(values, rows, cols, secondary=None):
    """Indices sorting edge values descending, ties by (row, col) ascending."""
    keys = [cols, rows]
    if secondary is not None:
        keys.append(-secondary)
    keys.append(-values)
    return np.lexsort(tuple(keys))


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


def f_tail_mpmath(f_value, df_between, df_within, dps=50):
    """Upper-tail F probability with mpmath at high precision."""
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(df_within) / (df_within + mp.mpf(df_between) * mp.mpf(f_value))
        return mp.betainc(
            mp.mpf(df_within) / 2, mp.mpf(df_between) / 2, 0, x, regularized=True
        )
