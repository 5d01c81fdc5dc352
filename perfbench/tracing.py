"""Per-layer timings and counts, measured from outside the program.

Tracing replaces, for the length of a traced run, the names through which one
``ubnin`` module calls into another (``pipeline.sparsity_threshold``,
``metrics.random_reference``, ...) with wrappers that record a span per call.
The program's source is not touched, and untraced runs never install the
wrappers. A span's time counts towards its layer metric only when no
enclosing span belongs to the same metric, so nested calls are not counted
twice. ``pipeline.self_s`` is the runners' time outside their direct child
spans: orchestration plus CSV and JSON writing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from ubnin import codec, graphs, metrics, pipeline, stats

# (module, attribute, metric prefix). A prefix of None records a span, so that
# pipeline self time excludes it, without a metric of its own.
WRAPPED = (
    (pipeline, "run_cohort", "pipeline"),
    (pipeline, "run_fingerprint", "pipeline"),
    (pipeline, "load_subjects_csv", "subjects.load"),
    (pipeline, "residualize_covariate", None),
    (pipeline, "age_binning", None),
    (pipeline, "individual_network", "subjects.individual"),
    (pipeline, "group_association_matrix", "subjects.association"),
    (stats, "_pearson_network", "subjects.association"),
    (pipeline, "sparsity_threshold", "graphs.threshold"),
    (stats, "sparsity_threshold", "graphs.threshold"),
    (graphs, "sparsity_threshold", "graphs.threshold"),  # via consistency_threshold
    (pipeline, "consistency_threshold", None),
    (pipeline, "metrics_report", None),
    (metrics, "nodal_clustering", "metrics.clustering"),
    (metrics, "characteristic_path_length", "metrics.path_length"),
    (metrics, "random_reference", "metrics.rewire"),
    (pipeline, "permutation_test", "stats.permutation"),
    (pipeline, "one_way_anova", "stats.anova"),
    (pipeline, "encode", "codec.encode"),
    (pipeline, "to_decimal_string", "codec.render"),
    # The read-back in the fingerprint workload calls these through ``codec``.
    (codec, "from_record", "codec.parse"),
    (codec, "parse_decimal_string", "codec.parse"),
    (codec, "decode", "codec.decode"),
)

TIMED = tuple(dict.fromkeys(p for _, _, p in WRAPPED if p not in (None, "pipeline")))
COUNTS = ("metrics.rewire_calls", "metrics.rewire_attempts", "metrics.rewire_edges_moved",
          "metrics.path_length_calls", "graphs.threshold_calls",
          "stats.permutation_iterations", "codec.pairs")
METRICS = tuple(f"{m}_s" for m in TIMED) + COUNTS + ("pipeline.self_s",)


def _upper_edges(edges: np.ndarray) -> int:
    return int(np.count_nonzero(np.triu(edges, 1)))


def _count(totals, prefix, args, kwargs, result) -> None:
    """Counts for one call, computed from its arguments and result."""
    if prefix == "metrics.rewire":
        before = args[0].edges
        swaps = kwargs.get("swaps_per_edge", args[2] if len(args) > 2 else 10)
        totals["metrics.rewire_calls"] += 1
        totals["metrics.rewire_attempts"] += swaps * _upper_edges(before)
        totals["metrics.rewire_edges_moved"] += _upper_edges(result.edges & ~before)
    elif prefix == "metrics.path_length":
        totals["metrics.path_length_calls"] += 1
    elif prefix == "graphs.threshold":
        totals["graphs.threshold_calls"] += 1
    elif prefix == "stats.permutation":
        totals["stats.permutation_iterations"] += result.iterations
    elif prefix == "codec.encode":
        n = args[0].n
        totals["codec.pairs"] += n * (n - 1) // 2


class Tracer:
    """Installs the wrappers, and accumulates span times and counts."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [prefix, child time]
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, prefix in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, prefix))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, prefix):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = prefix is None or all(p != prefix for p, _ in self._stack)
            self._stack.append([prefix, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
            if prefix == "pipeline":
                self.totals["pipeline.self_s"] += elapsed - child
            elif prefix is not None:
                if outermost:
                    self.totals[f"{prefix}_s"] += elapsed
                _count(self.totals, prefix, args, kwargs, result)
            return result

        return traced

    def per_round(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, averaged over the rounds of the run."""
        return {name: self.totals.get(name, 0.0) / rounds for name in METRICS}
