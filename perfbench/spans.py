"""Span tracing for the traced benchmark pass, recorded from outside ``src/``.

A :class:`Tracer` patches named public callables of the program (class
methods and module-level functions) with timing wrappers for the duration
of a ``with tracer.installed():`` block and restores the originals on exit.
Every call becomes a span; spans nest on a stack, and each span's
*self time* (its duration minus the time covered by its child spans) is
added to the span's layer name.  Self times therefore partition the covered
wall time: summing them over all layers never double-counts, which is what
lets ``fit.unattributed_s`` be "phase wall time minus every span".

The wrappers only time and count; arguments and return values pass through
untouched, so traced and untraced runs compute identical results (asserted
by the benchmark itself and by ``test_perfbench.py``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, "module:Owner.attr" or "module:function", counter)`` for every
#: traced callable of the fit/refresh path.  ``counter`` optionally turns a
#: call's return value into a count added to a per-layer counter.
FIT_SPANS: Tuple[Tuple[str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("graph.build_s", "repro.graph.csr:CSRGraph.from_dataset",
     ("graph.edges", lambda graph: graph.num_edges)),
    ("graph.alias_s", "repro.graph.csr:CSRGraph.alias_tables", None),
    ("graph.walks_s", "repro.graph.walks:RandomWalkGenerator.positive_pairs",
     ("gnn.pairs", lambda pairs: pairs.shape[0])),
    ("graph.walks_s", "repro.graph.negative_sampling:NegativeSampler.sample_for_pairs", None),
    ("graph.grow_s", "repro.graph.bipartite:BipartiteGraph.add_record", None),
    ("graph.grow_s", "repro.graph.bipartite:BipartiteGraph.add_batch", None),
    ("graph.grow_s", "repro.graph.bipartite:BipartiteGraph.freeze",
     ("graph.edges", lambda graph: graph.num_edges)),
    ("graph.grow_s", "repro.graph.csr:CSRGraph.thaw", None),
    ("gnn.init_s", "repro.gnn.trainer:RFGNNTrainer.__init__", None),
    ("gnn.train_s", "repro.gnn.trainer:RFGNNTrainer.fit", None),
    ("gnn.train_s", "repro.gnn.trainer:RFGNNTrainer.train_epoch", None),
    ("gnn.infer_s", "repro.gnn.trainer:RFGNNTrainer.sample_embeddings", None),
    ("gnn.snapshot_s", "repro.gnn.trainer:RFGNNTrainer.frozen_encoder", None),
    ("clustering.hier_s", "repro.clustering.hierarchical:HierarchicalClustering.fit_predict",
     None),
    ("clustering.kmeans_s", "repro.clustering.kmeans:KMeans.fit_predict", None),
    ("indexing.s", "repro.core.pipeline:FisOne.index_clusters", None),
    ("indexing.s", "repro.core.refresh:cluster_mac_profile_from_graph", None),
    ("indexing.s", "repro.indexing.indexer:ClusterIndexer.similarity_matrix", None),
    ("core.canary_s", "repro.serving.registry:score_refresh_canary", None),
    ("artifacts.save_s", "repro.serving.registry:save_artifacts", None),
)

#: Driver-side spans of the sharded label path.
LABEL_SPANS = (
    ("sharded.submit_s", "repro.serving.sharded:ShardedFleetServer.submit", None),
)


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Owner.attr"`` -> ``(Owner, "attr")``; ``"pkg.mod:fn"`` -> ``(module, "fn")``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


class Tracer:
    """Accumulates per-layer self time and counts from patched callables."""

    def __init__(self, spans=FIT_SPANS) -> None:
        self.spans = spans
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # Time covered by the children of each open span.  The workloads call
        # traced code from one thread only.
        self._stack: List[float] = []

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time one span of ``layer``; nested spans are subtracted from it."""
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += duration
            self.self_seconds[layer] += duration - children
            self.calls[layer] += 1

    def _wrap(self, layer: str, function: Callable, counter) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = function(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every span target for the block; always restore the originals."""
        patched = []
        try:
            for layer, target, counter in self.spans:
                owner, attr = resolve(target)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(layer, original.__func__, counter))
                elif isinstance(original, staticmethod):
                    wrapper = staticmethod(self._wrap(layer, original.__func__, counter))
                else:
                    wrapper = self._wrap(layer, original, counter)
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
