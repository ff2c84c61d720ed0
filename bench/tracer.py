"""Spans and counters around the layers of codebounds, installed from
outside the package.

Each traced function is replaced by a wrapper on every ``codebounds``
module attribute that names it, because ``search``, ``pipelines`` and
``cli`` import functions by name.  A span holds a layer name, start, end
and the index of its parent span; spans stay in memory until the
workload ends.  A function that is missing (renamed or removed by a later
change) is skipped, so its metrics read as absent, not as zero.

Pool children inherit the wrappers through fork, but their spans stay in
the child and are never collected; their cost shows only as
``process.children_cpu_s``.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# (module, attribute, layer) of the functions that open a span.
SPANNED = (
    ("codebounds.cli", "main", "cli"),
    ("codebounds.pipelines", "run_pipeline", "pipelines"),
    ("codebounds.pipelines", "write_certificate", "pipelines"),
    ("codebounds.search", "enumerate_codes", "search.enumerate"),
    ("codebounds.search", "codes_by_deletion", "search.deletion"),
    ("codebounds.search", "alpha_stats", "search.alpha"),
    # the one seam from search into canonical's decision procedure
    ("codebounds.search", "_decide_words", "canonical.decide"),
    ("codebounds.canonical", "canonical_form", "canonical.form"),
    ("codebounds.fileio", "atomic_write_text", "fileio"),
    ("codebounds.fileio", "write_class_files", "fileio"),
    ("codebounds.fileio", "read_class_files", "fileio"),
    ("codebounds.fileio", "packaged_text", "fileio"),
)
# Modules whose every public function opens a span of the given layer.
SPANNED_MODULES = (("codebounds.nets", "nets"), ("codebounds.bounds", "bounds"))
# Methods that are only counted: they run too often for a span each.
COUNTED = (("codebounds.search", "_Searcher", "child_state", "search.child_states"),)


def _decide_hook(counters, args, result):
    counters["canonical.decide.accepted"] += bool(result)


def _deletion_hook(counters, args, result):
    counters["search.deletion.classes"] += len(result)


def _alpha_hook(counters, args, result):
    params = args[0].params
    counters["search.alpha.words_scanned"] += params.q**params.n * args[0].size


def _write_hook(counters, args, result):
    counters["fileio.writes"] += 1
    counters["fileio.bytes"] += len(args[1].encode())


HOOKS = {
    "_decide_words": _decide_hook,
    "codes_by_deletion": _deletion_hook,
    "alpha_stats": _alpha_hook,
    "atomic_write_text": _write_hook,
}


def wrapper_costs(calls=100_000):
    """Seconds a span wrapper and a counting wrapper add to one call,
    measured on a function that does nothing."""

    def noop(*args):
        return None

    probe = Tracer()
    spanned = probe.span("probe", noop)
    counted = probe.count("probe", noop)

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn(1)
        return time.perf_counter() - start

    bare = min(loop(noop) for _ in range(3))
    span_cost = (min(loop(spanned) for _ in range(3)) - bare) / calls
    count_cost = (min(loop(counted) for _ in range(3)) - bare) / calls
    return max(span_cost, 0.0), max(count_cost, 0.0)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.installed: set[str] = set()

    def span(self, layer, fn, hook=None):
        layers, starts, ends = self.layers, self.starts, self.ends
        parents, stack, counters = self.parents, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            layers.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, fn, wrapper):
        for name, module in list(sys.modules.items()):
            if name == "codebounds" or name.startswith("codebounds."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def install(self):
        targets = []
        for module, attr, layer in SPANNED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None:
                targets.append((fn, layer, HOOKS.get(attr)))
        for module, layer in SPANNED_MODULES:
            mod = sys.modules.get(module)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn):
                    targets.append((fn, layer, None))
        for fn, layer, hook in targets:
            self._replace(fn, self.span(layer, fn, hook))
            self.installed.add(layer)
        for module, cls_name, attr, key in COUNTED:
            cls = getattr(sys.modules.get(module), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is not None:
                setattr(cls, attr, self.count(key, fn))
                self.installed.add(key)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of the recorded spans and counters.

        A layer's calls and seconds count only its outermost spans, so a
        layer function calling another of the same layer is not counted
        twice.  Self time is a span's duration minus the durations of its
        direct children, summed over the layer's spans.
        """
        layers, parents = self.layers, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += dur[i]
        calls: Counter = Counter()
        secs: Counter = Counter()
        self_s: Counter = Counter()
        forms_in_deletion = 0
        for i, layer in enumerate(layers):
            self_s[layer] += dur[i] - covered[i]
            nested = in_deletion = False
            p = parents[i]
            while p >= 0:
                nested = nested or layers[p] == layer
                in_deletion = in_deletion or layers[p] == "search.deletion"
                p = parents[p]
            if not nested:
                calls[layer] += 1
                secs[layer] += dur[i]
            if layer == "canonical.form" and in_deletion:
                forms_in_deletion += 1
        c = self.counters
        out: dict[str, float] = {}
        if "canonical.decide" in self.installed:
            decided = calls["canonical.decide"]
            out["canonical.decide.calls"] = decided
            out["canonical.decide.accepted"] = c["canonical.decide.accepted"]
            out["canonical.decide.accept_ratio"] = (
                c["canonical.decide.accepted"] / decided if decided else 0.0
            )
            out["canonical.decide.s"] = secs["canonical.decide"]
        if "canonical.form" in self.installed:
            out["canonical.form.calls"] = calls["canonical.form"]
            out["canonical.form.s"] = secs["canonical.form"]
        if "search.enumerate" in self.installed:
            out["search.enumerate.s"] = secs["search.enumerate"]
            out["search.enumerate.self_s"] = self_s["search.enumerate"]
        if "search.child_states" in self.installed:
            out["search.child_states"] = c["search.child_states"]
        if "search.deletion" in self.installed:
            classes = c["search.deletion.classes"]
            out["search.deletion.s"] = secs["search.deletion"]
            out["search.deletion.forms_per_class"] = (
                forms_in_deletion / classes if classes else 0.0
            )
        if "search.alpha" in self.installed:
            out["search.alpha.calls"] = calls["search.alpha"]
            out["search.alpha.s"] = secs["search.alpha"]
            out["search.alpha.words_scanned"] = c["search.alpha.words_scanned"]
        if "nets" in self.installed:
            out["nets.calls"] = calls["nets"]
            out["nets.s"] = secs["nets"]
        if "bounds" in self.installed:
            out["bounds.s"] = secs["bounds"]
        if "fileio" in self.installed:
            out["fileio.writes"] = c["fileio.writes"]
            out["fileio.bytes"] = c["fileio.bytes"]
            out["fileio.s"] = secs["fileio"]
        if "cli" in self.installed:
            out["cli.self_s"] = self_s["cli"]
        if "pipelines" in self.installed:
            out["pipelines.self_s"] = self_s["pipelines"]
        span_cost, count_cost = wrapper_costs()
        counted = sum(c[key] for *_, key in COUNTED)
        out["trace.overhead_s"] = len(dur) * span_cost + counted * count_cost
        return out
