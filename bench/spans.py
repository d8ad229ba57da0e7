"""Outside-in tracing of dcom: wrap public functions, record spans, sum layers.

``Tracer.installed()`` replaces every public function defined in a dcom module
by a wrapper, under every name that binds it. The package binds functions with
``from .x import y``, so ``dcom.engine.build_radius_graph`` and
``dcom.baselines.build_radius_graph`` are separate names for one function, and
both are patched. Leaving the context restores every original binding.

A span holds name, start, end and the index of its parent span, plus counts
taken from the call's arguments and result. Spans stay in memory until
``write`` dumps them as JSON lines. The tracer assumes one thread calls into
dcom, which the benchmark guarantees by leaving DCOM_THREADS unset.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import types
import weakref
from dataclasses import dataclass, field

_LAYERS = ("data", "purity", "graph", "learners", "engine", "baselines", "harness")

# Public helpers called in an inner loop of a traced function of their own
# module: once per training epoch, and once per newly labeled point. A span
# per call would cost more than it shows; their time stays in the caller's.
_INNER_LOOP = {"learners.probe_loss_and_grad", "engine.largest_passing_index"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _count_build(args, result, tracer):
    data = args["embedding_set"]
    edges = int(result.out_degree.sum())
    counts = {"edges_built": edges, "edges_kept": edges, "gram_flop": 2 * data.count**2 * data.dim}
    tracer.graph_counts[result] = counts
    return counts


def _count_prune(args, result, tracer):
    graph = args["graph"]
    counts = tracer.graph_counts.get(graph)
    if counts is not None:
        counts["edges_kept"] = int(graph.out_degree.sum())
    return {}


def _count_curve(args, result, tracer):
    n = args["embedding_set"].count
    sample = args["sample"]
    centres = n if sample is None else len(sample)
    return {"pair_evals": centres * n}


# Counts recorded per wrapped function, keyed by "<layer>.<function>".
_COUNTERS = {
    "graph.build_radius_graph": _count_build,
    "graph.prune_incoming_for_covered": _count_prune,
    "graph.prune_outgoing_for_labeled": _count_prune,
    "graph.covered_set": lambda a, r, t: {
        "pair_evals": len(a["labeled"]) * a["embedding_set"].count
    },
    "purity.estimate_purity_curve": _count_curve,
    "learners.train_learner": lambda a, r, t: {
        "row_epochs": len(a["labeled"]) * a["spec"].epochs
    },
    "learners.predict_softmax": lambda a, r, t: {"rows": len(a["targets"])},
    "engine.dcom_select": lambda a, r, t: {"picks": len(r.selected)},
    "engine.expand_delta": lambda a, r, t: {"points": len(a["new_points"])},
    "harness.run_al_loop": lambda a, r, t: {"reps": a["config"].get("repetitions", 1)},
}


class Tracer:
    """Collects spans from wrapped dcom functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.graph_counts = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts = counter(bound.arguments, result, self)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m
            for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType) and (name == "dcom" or name.startswith("dcom."))
        ]

    def _targets(self):
        """Public functions defined in a layer module, mapped to span names."""
        targets = {}
        for module in self._modules():
            layer = module.__name__.rpartition(".")[2]
            if layer not in _LAYERS:
                continue
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                    and name not in _INNER_LOOP
                ):
                    targets[value] = name
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them all on exit."""
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        patched = []
        try:
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[value])
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the part of it its child spans cover."""
        children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children[i], key=lambda c: self.spans[c].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def subtree(self, root):
        """Indices of root and every span below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def additivity_error(self, root, self_times):
        """|sum of self times under root - root duration| in seconds.

        The root's own self time is the part of the wall time no dcom span
        covers, so a well-nested trace sums exactly to the root's duration.
        """
        total = sum(self_times[i] for i in self.subtree(root))
        return abs(total - self.spans[root].duration)

    def write(self, path, self_times):
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self_times)):
                record = {
                    "id": i,
                    "name": s.name,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self": own,
                    **s.counts,
                }
                fh.write(json.dumps(record) + "\n")


def layer_totals(tracer, indices, self_times):
    """Per-function sums over the given spans: seconds, self seconds, calls, counts."""
    totals = {}
    for i in indices:
        s = tracer.spans[i]
        t = totals.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += s.duration
        t["self_s"] += self_times[i]
        t["calls"] += 1
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
