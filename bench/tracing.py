"""Per-layer tracing: spans around the public functions of each pcl module.

The tracer replaces each traced function, at every name under which a pcl
module holds it, with a wrapper that records one span per call.  A span's
self time is its duration minus the durations of the traced calls made
inside it, so the self times of a layer's functions add up to the layer's
self time.  Spans are recorded only while ``active`` is set: the benchmark
sets it around the operations it times, and input generation and output
checks stay out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> functions traced at the module boundary.  A dotted name is a
# method; a class name traces its construction.
LAYERS = {
    "core": [
        "is_realizable",
        "FiniteDistribution.sample",
        "PartialConceptClass.binary_patterns",
        "labeled_sample",
        "min_mistakes",
    ],
    "dimensions": [
        "measure_report",
        "vc_dimension",
        "is_shattered",
        "littlestone_dimension",
        "threshold_dimension",
        "shattering_strength",
        "multiclass_dimensions",
    ],
    "disambiguation": [
        "vc_majority_disambiguate",
        "weighted_disambiguate",
        "support_indicator_disambiguation",
        "strong_violation",
    ],
    "learners": [
        "pac_learn_realizable",
        "materialize_transductive",
        "one_inclusion_predict",
        "loo_error",
        "alpha_boost_compress",
        "reconstruct",
        "ld_compress",
        "OneInclusionGraph",
        "OneInclusionCache.graph",
    ],
    "online": [
        "Soa",
        "play_sequence",
        "littlestone_tree",
        "AgnosticOnlineLearner.run",
        "experts_aggregate",
    ],
    "geometry": [
        "min_enclosing_ball",
        "hull_distance",
        "separability_report",
        "weak_learning_game",
        "voronoi_disambiguate",
        "perceptron_run",
    ],
    "experiments": ["run_experiment"],
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list] = {}  # "layer.function" -> [calls, self seconds]
        self._open: list[list[float]] = []  # child time of each open span

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed - children[0]
                if open_spans:
                    open_spans[-1][0] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` wherever a pcl module refers to it."""
        for layer in LAYERS:
            importlib.import_module(f"pcl.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "pcl" or n.startswith("pcl.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"pcl.{layer}"]
            for name in names:
                owner_name, _, method = name.partition(".")
                owner = getattr(module, owner_name)
                if method:
                    original = owner.__dict__[method]
                    setattr(owner, method, self._wrap(f"{layer}.{name}", original))
                elif isinstance(owner, type):
                    owner.__init__ = self._wrap(f"{layer}.{name}", owner.__init__)
                else:
                    wrapped = self._wrap(f"{layer}.{name}", owner)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is owner:
                                setattr(mod, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        """``<layer>.<function>.calls`` and ``.self_s``, plus the layer totals."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls, self_s = 0, 0.0
            for name, (n, s) in self.stats.items():
                if name.startswith(layer + "."):
                    out[f"{name}.calls"] = n
                    out[f"{name}.self_s"] = s
                    calls += n
                    self_s += s
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        lookups = out["learners.OneInclusionCache.graph.calls"]
        builds = out["learners.OneInclusionGraph.calls"]
        out["learners.oig_cache_hit_ratio"] = 1 - builds / lookups if lookups else 0.0
        return out
