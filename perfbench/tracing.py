"""Per-layer tracing from outside the program.

:func:`install` replaces chosen public functions of the ``lamp`` modules by
wrappers that record a span (name, start, end, parent) for each call and add
to counters.  Every module global bound to the same function object is
replaced, so calls between modules (``cli`` calling ``core.log_likelihood``)
and inside a module (``perplexity`` calling ``log_likelihood``) are both seen.
The returned function puts the originals back.

A span's name is the per-layer metric its self time adds to: its duration
minus the durations of its child spans.  The bookkeeping a wrapper does
after its call is itself recorded as a child span of the caller, named
``trace``, so it never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from checks import floor_entries

#: Per-layer metrics in report order, each with its unit.
METRICS = {
    "data.load_corpus_s": "s", "data.preprocess_s": "s", "data.cache_io_s": "s", "data.tokens": "count",
    "learn.empirical_init_s": "s", "learn.w_half_s": "s", "learn.P_half_s": "s", "learn.self_s": "s",
    "learn.blocks": "count", "learn.newton_iters": "count", "learn.accepted_steps": "count",
    "learn.support_entries": "count",
    "core.log_likelihood_s": "s", "core.log_likelihood_floor_s": "s", "core.log_likelihood_calls": "count",
    "core.scored_transitions": "count", "core.floor_entries": "count", "core.model_save_s": "s",
    "core.model_load_s": "s", "core.generate_s": "s", "core.generated_states": "count",
    "baselines.fit_s": "s", "baselines.score_s": "s", "baselines.contexts": "count",
    "analysis.is_ergodic_s": "s", "analysis.stationary_s": "s", "analysis.mixing_time_s": "s",
    "analysis.mixing_steps": "count", "analysis.exponent_s": "s", "analysis.exponent_steps": "count",
    "glamp.lift_s": "s", "glamp.lifted_states": "count", "glamp.mixture_s": "s",
    "cli.self_s": "s", "cli.commands": "count", "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def _begin(self, name: str, start: float) -> int:
        self.spans.append((name, start, start, self._open[-1] if self._open else -1))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int, end: float) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        self._open.pop()

    def wrap(self, fn, name, count=None):
        """Wrap ``fn``; ``name`` is a metric name or a function of the call's
        arguments returning one; ``count(tracer, result, args, kwargs)``
        updates counters after the call.  With ``name`` None the wrapper only
        counts, and its bookkeeping stays in the caller's time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if label is None:
                result = fn(*args, **kwargs)
                count(self, result, args, kwargs)
                return result
            index = self._begin(label, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index, time.perf_counter())
            if count is not None:
                book = self._begin("trace", time.perf_counter())
                count(self, result, args, kwargs)
                self._end(book, time.perf_counter())
            return result

        return traced

    def mark(self) -> tuple:
        return len(self.spans), dict(self.counts)

    def rollback(self, mark: tuple) -> None:
        """Forget the spans and counts recorded since ``mark``."""
        del self.spans[mark[0]:]
        self.counts = defaultdict(float, mark[1])

    def metrics(self) -> dict[str, float]:
        """Self time per span name plus the counters, for every metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in METRICS}
        for (name, start, end, _), inner in zip(self.spans, child):
            if name in out:
                out[name] += end - start - inner
        for name, value in self.counts.items():
            out[name] += value
        return out


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper counts


def _corpus_of(result):
    return result[0] if isinstance(result, tuple) else result


def _tokens(t, result, args, kwargs):
    t.counts["data.tokens"] += sum(int(s.size) for s in _corpus_of(result).sequences)


def _trained(t, result, args, kwargs):
    model, report = result
    halves = {"w": 0.0, "P": 0.0}
    for record in report.records[1:]:
        halves[record.block] += record.wall_time_s
    t.counts["learn.w_half_s"] += halves["w"]
    t.counts["learn.P_half_s"] += halves["P"]
    t.counts["learn.self_s"] -= halves["w"] + halves["P"]
    t.counts["learn.support_entries"] += model.P.support_size


def _block(t, result, args, kwargs):
    t.counts["learn.blocks"] += 1
    t.counts["learn.newton_iters"] += result.iterations
    t.counts["learn.accepted_steps"] += result.accepted_steps


def _floor_of(args, kwargs):
    return kwargs.get("floor", args[2] if len(args) > 2 else None)


def _scored(t, result, args, kwargs):
    t.counts["core.log_likelihood_calls"] += 1
    t.counts["core.scored_transitions"] += result.scored_transitions
    if _floor_of(args, kwargs) is not None:
        model, corpus = args[0], args[1]
        sizes = np.array([c.size for c in model.P.row_cols])
        t.counts["core.floor_entries"] += floor_entries(sizes, list(corpus.sequences), model.k)


def _counter(metric, measure):
    def count(t, result, args, kwargs):
        t.counts[metric] += measure(result, args)
    return count


PLAN = {
    ("lamp.data", "load_corpus"): ("data.load_corpus_s", _tokens),
    ("lamp.data", "load_corpus_cache"): ("data.cache_io_s", _tokens),
    ("lamp.data", "save_corpus_cache"): ("data.cache_io_s", None),
    ("lamp.data", "preprocess"): ("data.preprocess_s", None),
    ("lamp.data", "split"): ("data.preprocess_s", None),
    ("lamp.learn", "alternate_minimize"): ("learn.self_s", _trained),
    ("lamp.learn", "empirical_transition_matrix"): ("learn.empirical_init_s", None),
    ("lamp.learn", "optimize_simplex_block"): (None, _block),
    ("lamp.core", "log_likelihood"): (
        lambda a, kw: "core.log_likelihood_s" if _floor_of(a, kw) is None else "core.log_likelihood_floor_s",
        _scored,
    ),
    ("lamp.core", "save_model"): ("core.model_save_s", None),
    ("lamp.core", "load_model"): ("core.model_load_s", None),
    ("lamp.core", "generate"): ("core.generate_s", _counter("core.generated_states", lambda r, a: len(r))),
    ("lamp.baselines", "fit_kneser_ney"): ("baselines.fit_s", _counter("baselines.contexts", lambda r, a: len(r.counts))),
    ("lamp.baselines", "fit_naive_ngram"): ("baselines.fit_s", _counter("baselines.contexts", lambda r, a: len(r.counts))),
    ("lamp.baselines", "ngram_perplexity"): ("baselines.score_s", None),
    ("lamp.analysis", "is_ergodic"): ("analysis.is_ergodic_s", None),
    ("lamp.analysis", "stationary_distribution"): ("analysis.stationary_s", None),
    ("lamp.analysis", "mixing_time"): ("analysis.mixing_time_s", _counter("analysis.mixing_steps", lambda r, a: r)),
    ("lamp.analysis", "simulate_exponent_process"): (
        "analysis.exponent_s", _counter("analysis.exponent_steps", lambda r, a: r.t_max),
    ),
    ("lamp.analysis", "renewal_rate_estimate"): ("analysis.exponent_s", None),
    ("lamp.glamp", "lift_to_kth_order"): ("glamp.lift_s", _counter("glamp.lifted_states", lambda r, a: len(r.states))),
    ("lamp.glamp", "mixture_matrix"): ("glamp.mixture_s", None),
    ("lamp.cli", "main"): ("cli.self_s", _counter("cli.commands", lambda r, a: 1)),
}


def install(tracer: Tracer, modules: dict):
    """Wrap every function in :data:`PLAN` wherever a ``lamp`` module binds
    it; return a function that restores the originals."""
    replaced = []
    for (module_name, attr), (name, count) in PLAN.items():
        original = getattr(modules[module_name], attr)
        wrapped = tracer.wrap(original, name, count)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    replaced.append((module, key, original))

    def restore() -> None:
        for module, key, original in reversed(replaced):
            setattr(module, key, original)

    return restore
