"""Tests of the benchmark itself, at reduced sizes.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Every check must pass on the program's real outputs for two seeds and every
workload shape, and each check must fail on a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from checks import CheckFailed  # noqa: E402

SMALL = {
    "wide": dict(n=60, sequences=40, length=12, chain_n=20, exponent_steps=2000, generate_length=500,
                 glamp_n=4, glamp_k=2),
    "deep": dict(n=12, sequences=20, length=80, chain_n=20, exponent_steps=2000, generate_length=500,
                 glamp_n=4, glamp_k=2),
    "chain": dict(n=40, sequences=20, length=40, exponent_steps=2000, generate_length=500,
                  glamp_n=4, glamp_k=2),
}


def small_round(name: str, seed: int, workdir: Path, traced: bool = False):
    wl = dataclasses.replace(W.WORKLOADS[name], **SMALL[name])
    inputs = W.make_inputs(wl, seed, str(workdir))
    modules = run.import_lamp()
    tracer = tracing.Tracer() if traced else None
    restore = tracing.install(tracer, modules) if traced else None
    try:
        times, failed, outputs = run.run_round(run.operations(inputs, seed), modules, inputs, tracer)
    finally:
        if restore:
            restore()
    return inputs, outputs, failed, tracer


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    return small_round("wide", 3, tmp_path_factory.mktemp("wide"))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_check_passes(name, seed, tmp_path):
    inputs, outputs, failed, _ = small_round(name, seed, tmp_path)
    run.check_outputs(inputs, outputs)
    assert failed == (1 if name == "wide" else 0)


def test_inputs_repeat_for_a_seed(tmp_path):
    wl = dataclasses.replace(W.WORKLOADS["deep"], **SMALL["deep"])
    a = W.make_inputs(wl, 5, str(tmp_path / "a"))
    b = W.make_inputs(wl, 5, str(tmp_path / "b"))
    c = W.make_inputs(wl, 6, str(tmp_path / "c"))
    assert a.lines == b.lines and a.lines != c.lines
    for key in ("corpus", "gen", "chain", "glamp"):
        assert Path(a.paths[key]).read_bytes() == Path(b.paths[key]).read_bytes()


def test_failed_operation_is_left_out_of_the_trace(tmp_path):
    inputs, _, failed, tracer = small_round("wide", 1, tmp_path, traced=True)
    cli_ops = [op for op in run.operations(inputs, 1) if op.argv is not None]
    assert failed == 1
    assert tracer.metrics()["cli.commands"] == len(cli_ops) - 1


def test_traced_round_reports_every_layer(tmp_path):
    inputs, outputs, _, tracer = small_round("chain", 1, tmp_path, traced=True)
    values = tracer.metrics()
    assert set(values) == set(tracing.METRICS)
    cli_ops = [op for op in run.operations(inputs, 1) if op.argv is not None]
    assert values["cli.commands"] == len(cli_ops)
    assert values["core.log_likelihood_calls"] >= 1
    assert values["glamp.lifted_states"] == 4 ** 2
    assert values["analysis.exponent_steps"] == 2000
    assert values["core.generated_states"] == 500
    assert all(values[m] > 0 for m in ("learn.blocks", "data.tokens", "learn.P_half_s", "cli.self_s"))


# ---------------------------------------------------------------------------
# Each check fails on a corrupted output


def read(inputs, key):
    return checks.read_json(inputs.paths[key])


def model_and_test(inputs):
    model = checks.SparseModel.from_doc(read(inputs, "model"))
    _, test = checks.read_sequences(inputs.paths["test"])
    _, train = checks.read_sequences(inputs.paths["train"])
    return model, train, test


def test_nudged_perplexity_fails(wide):
    inputs = wide[0]
    model, _, test = model_and_test(inputs)
    doc = read(inputs, "eval_floor")
    checks.check_evaluation(doc, model, test, floored=True)
    doc["perplexity"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="perplexity"):
        checks.check_evaluation(doc, model, test, floored=True)


def test_nudged_log_likelihood_fails(wide):
    inputs = wide[0]
    model, _, test = model_and_test(inputs)
    doc = read(inputs, "eval_floor")
    doc["log_likelihood"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="log-likelihood"):
        checks.check_evaluation(doc, model, test, floored=True)


def test_wrong_impossible_count_fails(tmp_path):
    inputs, _, _, _ = small_round("chain", 1, tmp_path)
    model, _, test = model_and_test(inputs)
    src, tgt = checks.positions(test, model.k)
    p = checks.plain_probabilities(model, src, tgt)
    doc = {"scored_transitions": int(tgt.size), "floor": None, "impossible_transitions": int((p <= 0).sum()),
           "log_likelihood": -math.inf if (p <= 0).any() else float(np.log(p).sum())}
    doc["perplexity"] = math.inf if (p <= 0).any() else math.exp(-doc["log_likelihood"] / tgt.size)
    checks.check_evaluation(doc, model, test, floored=False)
    doc["impossible_transitions"] += 1
    with pytest.raises(CheckFailed, match="impossible"):
        checks.check_evaluation(doc, model, test, floored=False)


def test_row_not_summing_to_one_fails(wide):
    doc = read(wide[0], "model")
    checks.check_model(doc, doc["k"])
    doc["matrix"][0][2] += 1e-6
    with pytest.raises(CheckFailed, match="row"):
        checks.check_model(doc, doc["k"])


def test_lag_weights_not_summing_to_one_fail(wide):
    doc = read(wide[0], "model")
    doc["w"][0] += 1e-6
    with pytest.raises(CheckFailed, match="lag weights"):
        checks.check_model(doc, doc["k"])


def test_training_record_corruptions_fail(wide):
    inputs = wide[0]
    model, train, _ = model_and_test(inputs)
    with open(inputs.paths["report"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    checks.check_training(records, model, train)
    last = copy.deepcopy(records)
    last[-1]["log_likelihood"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_training(last, model, train)
    falling = copy.deepcopy(records)
    falling[1]["log_likelihood"] = records[0]["log_likelihood"] - 1.0
    falling[2]["log_likelihood"] = records[0]["log_likelihood"] - 2.0
    with pytest.raises(CheckFailed, match="fell"):
        checks.check_training(falling, model, train)


def test_nudged_kneser_ney_perplexity_fails(wide):
    inputs = wide[0]
    vocab, train = checks.read_sequences(inputs.paths["train"])
    _, test = checks.read_sequences(inputs.paths["test"])
    doc = read(inputs, "kn")
    checks.check_baseline(doc, train, test, len(vocab))
    doc["eval_perplexity"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="eval_perplexity"):
        checks.check_baseline(doc, train, test, len(vocab))


def test_split_corruption_fails(wide, tmp_path):
    inputs = wide[0]
    doc = read(inputs, "test")
    doc["sequences"][0] = doc["sequences"][0][::-1]
    bad = tmp_path / "test.json"
    bad.write_text(json.dumps(doc))
    p = inputs.paths
    checks.check_split(inputs.lines, p["cache"], p["train"], p["test"], W.SPLIT)
    with pytest.raises(CheckFailed, match="test side"):
        checks.check_split(inputs.lines, p["cache"], p["train"], str(bad), W.SPLIT)


def test_off_stationary_vector_fails(wide):
    inputs = wide[0]
    gen = checks.SparseModel.from_arrays(inputs.gen.w, inputs.gen.cols, inputs.gen.probs)
    doc = read(inputs, "pi")
    checks.check_stationary(doc, gen, W.STATIONARY_TOL)
    doc["stationary"][0] += 1e-6
    doc["stationary"][1] -= 1e-6
    with pytest.raises(CheckFailed, match="pi P - pi"):
        checks.check_stationary(doc, gen, W.STATIONARY_TOL)


def test_wrong_mixing_time_or_bound_fails(wide):
    inputs = wide[0]
    chain = checks.SparseModel.from_arrays(inputs.chain.w, inputs.chain.cols, inputs.chain.probs)
    mix, bound = read(inputs, "mix"), read(inputs, "bound")
    args = (chain, inputs.chain.dense(), W.DELTA, W.EPSILON, W.BOUND_T)
    checks.check_mixing(mix, bound, *args)
    for t in (mix["mixing_time"] - 1, mix["mixing_time"] + 1):
        with pytest.raises(CheckFailed, match="bracket"):
            checks.check_mixing(dict(mix, mixing_time=t), dict(bound, chain_mixing_time=t), *args)
    with pytest.raises(CheckFailed, match="bound"):
        checks.check_mixing(mix, dict(bound, bound=bound["bound"] + 1), *args)


def test_exponent_statistic_out_of_range_fails(wide):
    inputs = wide[0]
    doc = read(inputs, "exp")
    checks.check_exponent(doc, inputs.gen.w, inputs.workload.exponent_steps)
    with pytest.raises(CheckFailed, match="CLT"):
        checks.check_exponent(dict(doc, clt_statistic=6.5), inputs.gen.w, inputs.workload.exponent_steps)


def test_generated_step_outside_support_fails(wide):
    inputs = wide[0]
    gen = checks.SparseModel.from_arrays(inputs.gen.w, inputs.gen.cols, inputs.gen.probs)
    doc = read(inputs, "generated")
    length = inputs.workload.generate_length
    checks.check_generated(doc, gen, "s0", length)
    ids = list(doc["ids"])
    window = {int(c) for i in range(1, gen.k + 1) for c in inputs.gen.cols[ids[max(0, 1 - i)]]}
    ids[1] = next(x for x in range(gen.n) if x not in window)
    with pytest.raises(CheckFailed, match="support"):
        checks.check_generated(dict(doc, ids=ids, tokens=[f"s{x}" for x in ids]), gen, "s0", length)


def test_lift_marginal_off_mixture_law_fails(wide):
    inputs, outputs = wide[0], wide[1]
    g = outputs["glamp lift"][1]
    args = (g["mixture_pi"], g["mixture"], g["states"], inputs.glamp_w, inputs.glamp_mats, inputs.glamp_lag_map)
    checks.check_lift(g["marginal"], *args)
    bad = np.array(g["marginal"])
    bad[0] += 1e-6
    bad[1] -= 1e-6
    with pytest.raises(CheckFailed, match="lifted marginal"):
        checks.check_lift(bad, *args)


# ---------------------------------------------------------------------------
# Command-line behaviour


def test_compare_reports_change():
    base = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"a_s": {"value": 2.0, "unit": "s"}}}
    new = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"a_s": {"value": 1.5, "unit": "s"},
                                                                       "b": {"value": 3, "unit": "count"}}}
    assert compare.rows(base, new) == [("a_s", "s", 2.0, 1.5, -0.5, -0.25), ("b", "count", None, 3, None, None)]


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
