"""The benchmark's tracer wraps ``lamp`` functions by name from outside the
package; these tests fail when a rename would leave a traced run without
its hooks."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cycle_matrix
from lamp.core import Corpus, HistoryDistribution, LampModel, SparseStochasticMatrix, Vocabulary
from lamp.learn import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py``, imported with ``perfbench/`` on the path;
    the path and the module table lose the benchmark's modules afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    for name, module in list(sys.modules.items()):
        if str(getattr(module, "__file__", None) or "").startswith(str(PERFBENCH)):
            del sys.modules[name]


def test_every_traced_function_resolves(tracing):
    assert tracing.PLAN
    for module, name in tracing.PLAN:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_token_counter_reads_corpus_sequences(tracing):
    corpus = Corpus.from_sequences(Vocabulary.from_size(3), [[0, 1, 2], [2], [1, 1]])
    tracer = tracing.Tracer()
    tracing._tokens(tracer, (corpus, None), (), {})
    assert tracer.counts["data.tokens"] == 6


def test_training_calls_the_traced_learn_functions(tracing):
    # The tracer sees a call only through a module global it replaced; a
    # private twin called instead would leave its layer reading 0.
    modules = {name: importlib.import_module(name) for name, _ in tracing.PLAN}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, modules)
    try:
        corpus = Corpus.from_sequences(Vocabulary.from_size(3), [[0, 1, 2, 0, 2, 1, 1, 0]])
        modules["lamp.learn"].alternate_minimize(corpus, TrainConfig(k=2, rounds=1.5))
    finally:
        restore()
    assert "learn.empirical_init_s" in {name for name, *_ in tracer.spans}
    assert tracer.counts["learn.blocks"] == 2


def test_glamp_calls_through_the_modules_reach_their_layers(tracing):
    # The benchmark's lift calls lift_to_kth_order and mixture_matrix as
    # attributes of lamp.glamp; both layers and the state count must fill.
    modules = {name: importlib.import_module(name) for name, _ in tracing.PLAN}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, modules)
    try:
        glamp = modules["lamp.glamp"]
        model = LampModel.per_lag(
            HistoryDistribution.from_weights([0.5, 0.5]),
            (SparseStochasticMatrix.from_dense(np.full((2, 2), 0.5)),
             SparseStochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))),
            (1, 2),
            Vocabulary.from_size(2),
        )
        lifted = glamp.lift_to_kth_order(model)
        glamp.mixture_matrix(model)
    finally:
        restore()
    assert {"glamp.lift_s", "glamp.mixture_s"} <= {name for name, *_ in tracer.spans}
    assert tracer.counts["glamp.lifted_states"] == len(lifted.states) == 4


def test_analysis_calls_through_the_module_reach_their_layers(tracing):
    # The benchmark's mixing and bound commands call mixing_time and
    # lamp_mixing_bound as attributes of lamp.analysis; the bound's own call
    # of mixing_time and each call's ergodicity check must be traced too.
    modules = {name: importlib.import_module(name) for name, _ in tracing.PLAN}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, modules)
    try:
        analysis = modules["lamp.analysis"]
        P = SparseStochasticMatrix.from_dense(cycle_matrix(6, 0.5))
        t = analysis.mixing_time(P, 0.01)
        bound = analysis.lamp_mixing_bound(HistoryDistribution.from_weights([0.5, 0.5]), P, 0.01, 0.1, 10)
    finally:
        restore()
    spans = [name for name, *_ in tracer.spans]
    assert bound.chain_mixing_time == t > 0
    assert spans.count("analysis.mixing_time_s") == 2
    assert tracer.counts["analysis.mixing_steps"] == 2 * t
    assert spans.count("analysis.is_ergodic_s") == 2
