"""Graph-theoretic metrics on binary networks.

Clustering coefficient, characteristic path length, degree-preserving
rewiring, and the small-world index against rewired references. All
functions are pure; the stochastic ones take explicit seeds and derive one
independent stream per random reference, so results do not depend on how the
reference computations are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotEstimableError, UndefinedMetricError, ValidationError, _check_count
from .graphs import BinaryNetwork, _built, edge_count

__all__ = [
    "nodal_clustering",
    "mean_clustering",
    "characteristic_path_length",
    "random_reference",
    "small_world_index",
    "SmallWorldResult",
    "MetricsReport",
    "metrics_report",
]


def nodal_clustering(b: BinaryNetwork) -> np.ndarray:
    """Clustering coefficient of every node.

    Parameters
    ----------
    b : BinaryNetwork
        Undirected binary network.

    Returns
    -------
    c : (n,) np.ndarray
        Per-node coefficients 2*t / (k*(k-1)), where k is the node's degree
        and t the number of edges among its neighbors. Nodes of degree < 2
        get 0. Values lie in [0, 1].

    The 2-walk counts ``a @ a`` run in float32: each is an integer of at most
    n-1, exact in float32 for any n below 2^24. Degrees are the closed 2-walks
    on the diagonal. The closed 3-walks ``2*t`` of a node are at most
    (n-1)(n-2), and so is every partial sum of them: they are summed in
    float32 while that bound is below 2^24 (n up to 4097) and in float64
    above it, so every count is exact. The division runs in float64, so the
    coefficients are the floats of a float64 count.
    """
    return _clustering(b.edges.astype(np.float32)[None])[0]


def _closed_walk_dtype(n: int) -> type:
    """The dtype in which the closed 3-walks of an n-node network sum exactly."""
    return np.float32 if (n - 1) * (n - 2) < 1 << 24 else np.float64


def _clustering(a: np.ndarray, walks: np.ndarray | None = None) -> np.ndarray:
    """Nodal clustering, (g, n) float64, of a (g, n, n) float32 adjacency stack.

    ``walks``, if given, is the (g, n, n) float32 array for the 2-walk counts.
    """
    walks = np.matmul(a, a, out=walks)
    deg = np.diagonal(walks, axis1=1, axis2=2).astype(np.float64)
    closed = np.einsum("gij,gij->gi", walks, a,
                       dtype=_closed_walk_dtype(a.shape[1])).astype(np.float64)
    return np.divide(closed, deg * (deg - 1.0), out=np.zeros(deg.shape), where=deg >= 2)


def mean_clustering(b: BinaryNetwork) -> float:
    """Arithmetic mean of nodal clustering over all nodes, isolated nodes as 0."""
    return float(nodal_clustering(b).mean())


def characteristic_path_length(b: BinaryNetwork) -> tuple[float, float]:
    """Mean shortest-path distance over reachable node pairs.

    Runs breadth-first search from all sources at once: row s of ``frontier``
    holds the nodes first reached from s at the current distance, and one
    matrix product with the adjacency matrix per distance level advances every
    row. Distances and pair counts are summed as Python ints, so the result is
    the same float as a per-source search (``cpl_bfs_loop`` in
    ``tests/oracles.py``). Unreachable pairs are excluded from the mean; the
    fraction of reachable ordered pairs is returned alongside so sparse or
    fragmented networks are explicit about coverage.

    Returns
    -------
    length : float
        Mean distance over reachable ordered pairs.
    reachable_pair_fraction : float
        Reachable ordered pairs divided by n*(n-1).

    Raises
    ------
    UndefinedMetricError
        If no pair of distinct nodes is reachable (edgeless network).
    """
    a = b.edges.astype(np.float64)
    n = b.n
    visited = np.eye(n, dtype=bool)
    frontier = visited
    total = 0
    reachable = 0
    dist = 0
    while True:
        frontier = ((frontier.astype(np.float64) @ a) > 0) & ~visited
        cnt = int(np.count_nonzero(frontier))
        if cnt == 0:
            break
        dist += 1
        total += dist * cnt
        reachable += cnt
        visited |= frontier
    if reachable == 0:
        raise UndefinedMetricError("no reachable node pairs; path length is undefined")
    return total / reachable, reachable / (n * (n - 1))


_CHUNK = 4096
"""Attempts whose draws ``_rewire`` converts to lists at a time."""


def random_reference(b: BinaryNetwork, seed, swaps_per_edge: int = 10) -> BinaryNetwork:
    """Degree-preserving randomization by repeated double-edge swaps.

    Attempts ``swaps_per_edge * edge_count`` swaps of edge pairs (a,b), (c,d)
    into (a,d), (c,b); any attempt that would create a self-loop or duplicate
    edge is rejected and simply counts as an attempt. The degree sequence of
    the output equals the input exactly, and the result is a deterministic
    function of (input, seed, swaps_per_edge).

    This is the one-network case of ``_rewire``. The random draws, the
    accept/reject rule and the slot each swap writes are those of the
    tuple-and-set loop kept as ``random_reference_loop`` in
    ``tests/oracles.py``, and the output is identical to it.
    """
    return _rewire([b], seed, swaps_per_edge)[0]


def _rewire(networks, seed, swaps_per_edge: int) -> list[BinaryNetwork]:
    """``random_reference`` of each network, from one set of draws.

    The draws depend only on (seed, edge count, swaps_per_edge), so networks
    with equal edge counts share them: they are drawn once, converted to
    lists ``_CHUNK`` attempts at a time, and each chunk runs through every
    network's swap loop in turn. Each output is the network's own
    ``random_reference``. Networks with different edge counts raise
    ValueError.

    Each attempt is one test, ``adj[a][d] or adj[c][b]``, on the adjacency
    held as n ``bytearray`` rows over both triangles with the diagonal set
    to 1, so the diagonal reads as an edge that is present. That one test
    rejects every attempt that would duplicate an edge, every self-loop
    (``a == d`` or ``c == b``) and every pair with i == j (with flip 0 the
    new edge (a, d) is edge i itself, with flip 1 it is a self-loop). The
    edge list is held as two int lists of endpoints of length 2m: slot s
    holds edge s as (u, v) with u < v and slot s + m holds it as (v, u), so
    the flip is folded into the second slot, j + m * flip, and an attempt
    reads its four endpoints without a branch. Node ids below 257 are
    CPython's cached small ints, so at atlas sizes the loop allocates nothing.
    """
    _check_count("swaps_per_edge", swaps_per_edge)
    counts = {edge_count(b) for b in networks}
    if len(counts) > 1:
        raise ValueError(f"networks rewired together need equal edge counts, got {sorted(counts)}")
    m, = counts
    if m < 2:
        raise ValidationError(f"rewiring needs at least 2 edges, got {m}")
    # Its bound only now: a network too small to rewire says so first.
    _check_count("swaps_per_edge", swaps_per_edge, 0)
    states = []
    for b in networks:
        rows, cols = np.nonzero(np.triu(b.edges, 1))
        full = b.edges.view(np.uint8).copy()
        np.fill_diagonal(full, 1)
        states.append(([bytearray(row) for row in full],
                       np.concatenate([rows, cols]).tolist(),
                       np.concatenate([cols, rows]).tolist()))
    rng = np.random.default_rng(seed)
    attempts = swaps_per_edge * m
    draws = rng.integers(0, m, size=(attempts, 2))
    second = draws[:, 1]
    second += m * rng.integers(0, 2, size=attempts)
    for start in range(0, attempts, _CHUNK):
        stop = start + _CHUNK
        firsts = draws[start:stop, 0].tolist()
        seconds = second[start:stop].tolist()
        for adj, us, vs in states:
            for i, j in zip(firsts, seconds):
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
    refs = []
    for b, (adj, _, _) in zip(networks, states):
        out = np.frombuffer(b"".join(adj), dtype=np.uint8).reshape(b.n, b.n).astype(bool)
        np.fill_diagonal(out, False)
        refs.append(_built(BinaryNetwork, out, b.labels))
    return refs


@dataclass(frozen=True)
class SmallWorldResult:
    sigma: float
    gamma: float
    lam: float


def small_world_index(b: BinaryNetwork, n_rand: int = 100, seed: int = 0,
                      swaps_per_edge: int = 10) -> SmallWorldResult:
    """Small-world index against degree-preserving random references.

    gamma is the clustering ratio C / <C_rand>, lam the path-length ratio
    L / <L_rand>, and sigma = gamma / lam; sigma > 1 indicates small-world
    organization. Reference i is generated from the stream (seed, i), so the
    result is independent of evaluation order.

    Raises
    ------
    ValidationError
        Before any work, unless n_rand >= 1 and seed >= 0 are integers.
    NotEstimableError
        If the network has fewer than 2 edges to rewire, or a reference has
        undefined path length or zero clustering: it is too sparse to compare.
    """
    _check_count("n_rand", n_rand, 1)
    _check_count("seed", seed, 0)
    report = metrics_report(b, n_rand=n_rand, seed=seed, swaps_per_edge=swaps_per_edge)
    return SmallWorldResult(sigma=report.small_world_sigma, gamma=report.gamma, lam=report.lam)


@dataclass(frozen=True)
class MetricsReport:
    """Flat metric record for one binary network.

    The small-world trio (sigma, gamma, lam) is either fully present or fully
    absent, and sigma always equals gamma / lam. Configuration of the random
    references is echoed so every row is self-describing.
    """

    mean_clustering: float
    nodal_clustering: tuple[float, ...]
    char_path_length: float
    reachable_pair_fraction: float
    mean_degree: float
    small_world_sigma: float | None = None
    gamma: float | None = None
    lam: float | None = None
    n_rand: int | None = None
    swaps_per_edge: int | None = None
    seed: int | None = None

    def __post_init__(self):
        trio = (self.small_world_sigma, self.gamma, self.lam)
        if any(v is None for v in trio) != all(v is None for v in trio):
            raise ValidationError("sigma, gamma, lam must be present together")
        if self.small_world_sigma is not None and self.small_world_sigma != self.gamma / self.lam:
            raise ValidationError("sigma must equal gamma / lam")
        if self.mean_clustering != float(np.mean(self.nodal_clustering)):
            raise ValidationError("mean_clustering must be the mean of nodal_clustering")

    def to_row(self) -> dict:
        """Flat dict for CSV serialization, nodal values omitted."""
        return {
            "mean_clustering": self.mean_clustering,
            "char_path_length": self.char_path_length,
            "reachable_pair_fraction": self.reachable_pair_fraction,
            "mean_degree": self.mean_degree,
            "sigma": self.small_world_sigma,
            "gamma": self.gamma,
            "lambda": self.lam,
            "n_rand": self.n_rand,
            "swaps_per_edge": self.swaps_per_edge,
            "seed": self.seed,
        }


def metrics_report(b: BinaryNetwork, n_rand: int = 100, seed: int = 0,
                   swaps_per_edge: int = 10) -> MetricsReport:
    """Compute the full metric record for one network.

    The network's clustering and path length are measured once and serve both
    the record and the small-world ratios (see ``small_world_index``). With
    n_rand 0 the sigma/gamma/lam fields stay empty; otherwise
    NotEstimableError propagates when references fail or cannot be drawn
    (fewer than 2 edges). A negative or non-integer n_rand, or a non-integer
    seed, raises ValidationError before any work.
    """
    ((report, error),) = _reports([b], n_rand, seed, swaps_per_edge)
    if error is not None:
        raise error
    return report


def _reports(networks, n_rand: int, seed: int, swaps_per_edge: int) -> list[tuple]:
    """``metrics_report`` of networks of one edge count, with shared reference draws.

    Each network's clustering and path length are measured once. Reference
    idx of every network still estimable then comes from one ``_rewire`` call
    on stream (seed, idx), so each network gets the references it would get
    alone. Returns one (report, error) pair per network, in order: (report,
    None); (the report without small-world fields, NotEstimableError) when it
    has fewer than 2 edges to rewire or one of its references fails; or (None,
    UndefinedMetricError) when its own path length is undefined. Argument
    errors, and those of ``_rewire``, raise.
    """
    _check_count("n_rand", n_rand, 0)
    _check_count("seed", seed)
    observed = []  # per network: its report's fields, or the error of its path length
    for b in networks:
        nodal = nodal_clustering(b)
        try:
            length, reach = characteristic_path_length(b)
        except UndefinedMetricError as exc:
            observed.append(exc)
            continue
        observed.append(dict(
            mean_clustering=float(nodal.mean()),
            nodal_clustering=tuple(nodal.tolist()),
            char_path_length=length,
            reachable_pair_fraction=reach,
            mean_degree=2.0 * edge_count(b) / b.n,
        ))
    live = [k for k, fields in enumerate(observed) if isinstance(fields, dict)]
    failed = {}
    if n_rand > 0 and live:
        _check_count("seed", seed, 0)
        _check_count("swaps_per_edge", swaps_per_edge)
        for k in live:
            m = edge_count(networks[k])
            if m < 2:  # no swap is possible, so no reference can be drawn
                failed[k] = NotEstimableError(f"rewiring needs at least 2 edges, got {m}")
        live = [k for k in live if k not in failed]
        c_rand = np.empty((len(networks), n_rand))
        l_rand = np.empty((len(networks), n_rand))
        for idx in range(n_rand):
            if not live:
                break
            refs = _rewire([networks[k] for k in live], [seed, idx], swaps_per_edge)
            for k, ref in zip(live, refs):
                try:
                    l_rand[k, idx], _ = characteristic_path_length(ref)
                except UndefinedMetricError:
                    failed[k] = NotEstimableError(
                        f"random reference {idx} has undefined path length")
                    continue
                c_rand[k, idx] = mean_clustering(ref)
                if c_rand[k, idx] == 0:
                    failed[k] = NotEstimableError(f"random reference {idx} has zero clustering")
            live = [k for k in live if k not in failed]
        for k in live:
            gamma = observed[k]["mean_clustering"] / float(c_rand[k].mean())
            lam = observed[k]["char_path_length"] / float(l_rand[k].mean())
            observed[k].update(small_world_sigma=gamma / lam, gamma=gamma, lam=lam,
                               n_rand=int(n_rand), swaps_per_edge=int(swaps_per_edge),
                               seed=int(seed))
    return [(None, fields) if isinstance(fields, Exception)
            else (MetricsReport(**fields), failed.get(k))
            for k, fields in enumerate(observed)]
