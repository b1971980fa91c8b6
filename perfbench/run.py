"""Benchmark of the ``lamp`` command-line pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 24 --trace 0

Run from the repository root.  Set-up makes the inputs from the seed, writes
them under perfbench/work/ and imports ``lamp`` from src/; it is repeated
several times and its median reported.  Rounds then run the pipeline's
commands in this process through ``lamp.cli.main`` until ``--seconds`` have
passed, each round the same operations: preprocess and train; held-out and
in-sample scoring and the Kneser-Ney baseline; then the chain analyses,
generation and the per-lag lift.  The first round's outputs are checked against independent
recomputations, and every later round must write the same bytes.

The last stdout line is one JSON object: whether every check passed, the
operations attempted and failed, and the metrics, end-to-end with
``--trace 0`` and per layer with ``--trace 1``.  A traced run alternates
untraced and traced rounds, so the tracing overhead is measured too.
"""

from __future__ import annotations

import os

# One thread, BLAS included, set before numpy loads: the load comes from this
# process alone and the timings do not depend on a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads as W
from checks import CheckFailed, require

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run; their median is setup_s.
SETUPS = 7
#: Fewest rounds per run (traced runs: fewest untraced/traced pairs).
MIN_ROUNDS = 3
MIN_PAIRS = 2

LAMP_MODULES = ("lamp", "lamp.core", "lamp.data", "lamp.learn", "lamp.analysis",
                "lamp.baselines", "lamp.glamp", "lamp.cli")
#: Outputs that must be byte-identical in every round.
ARTIFACTS = ("cache", "train", "test", "model", "report", "eval", "eval_floor", "eval_train", "kn",
             "pi", "mix", "bound", "exp", "generated")
STAGES = ("train", "score", "analyze")


@dataclass(frozen=True)
class Op:
    stage: str
    label: str
    argv: list | None        # lamp command line; None for the per-lag lift library calls
    known_fault: bool = False


def import_lamp() -> dict:
    """Import every ``lamp`` module afresh from src/."""
    for name in [m for m in sys.modules if m == "lamp" or m.startswith("lamp.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in LAMP_MODULES}
    require(Path(modules["lamp"].__file__).resolve().is_relative_to(SRC), "lamp was not imported from src/")
    return modules


def operations(inputs: W.Inputs, seed: int) -> list:
    wl, p = inputs.workload, inputs.paths
    ops = [
        Op("train", "preprocess", ["preprocess", p["corpus"], "--output", p["cache"],
                                   "--split", str(W.SPLIT), "--split-seed", str(seed)]),
        Op("train", "train", ["train", p["train"], "--output", p["model"], "--k", str(wl.k),
                              "--rounds", str(wl.rounds)]),
    ]
    if wl.plain_eval != "skip":
        ops.append(Op("score", "evaluate", ["evaluate", p["model"], p["test"], "--output", p["eval"]],
                      known_fault=wl.plain_eval == "fails"))
    ops += [
        Op("score", "evaluate --floor", ["evaluate", p["model"], p["test"], "--output", p["eval_floor"], "--floor"]),
        Op("score", "evaluate train", ["evaluate", p["model"], p["train"], "--output", p["eval_train"]]),
        Op("score", "baseline", ["baseline", p["train"], "--order", str(W.KN_ORDER), "--smoothing", "kneser_ney",
                                 "--eval-corpus", p["test"], "--output", p["kn"]]),
        Op("analyze", "analyze stationary", ["analyze", "stationary", p["gen"], "--tol", str(W.STATIONARY_TOL),
                                             "--output", p["pi"]]),
        Op("analyze", "analyze mixing", ["analyze", "mixing", p["chain"], "--delta", str(W.DELTA),
                                         "--output", p["mix"]]),
        Op("analyze", "analyze bound", ["analyze", "bound", p["chain"], "--delta", str(W.DELTA),
                                        "--epsilon", str(W.EPSILON), "--T", str(W.BOUND_T), "--output", p["bound"]]),
        Op("analyze", "analyze exponent", ["analyze", "exponent", "--model", p["gen"], "--steps",
                                           str(wl.exponent_steps), "--seed", str(seed), "--output", p["exp"]]),
        Op("analyze", "generate", ["generate", p["gen"], "--start", "s0", "--length", str(wl.generate_length),
                                   "--seed", str(seed), "--output", p["generated"]]),
        Op("analyze", "glamp lift", None),
    ]
    return ops


def lift(modules: dict, path: str) -> dict:
    """Lift the per-lag model, and the stationary laws of the lift and of its
    mixture matrix."""
    glamp, analysis = modules["lamp.glamp"], modules["lamp.analysis"]
    model = glamp.load_glamp_model(path)
    lifted = glamp.lift_to_kth_order(model)
    marginal = lifted.marginal_over_last(analysis.stationary_distribution(lifted.Q))
    mixture = glamp.mixture_matrix(model)
    return {"marginal": marginal, "mixture_pi": analysis.stationary_distribution(mixture),
            "mixture": mixture.dense(), "states": len(lifted.states)}


def run_round(ops: list, modules: dict, inputs: W.Inputs, tracer=None) -> tuple[dict, int, dict]:
    """(wall seconds per stage, failed operations, outputs by label).  A
    failed operation is left out of the stage times and of the trace."""
    times = dict.fromkeys(STAGES, 0.0)
    failed = 0
    outputs = {}
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        mark = tracer.mark() if tracer else None
        start = time.perf_counter()
        if op.argv is None:
            result, code = lift(modules, inputs.paths["glamp"]), 0
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = modules["lamp.cli"].main(op.argv)
            result = out.getvalue()
        elapsed = time.perf_counter() - start
        outputs[op.label] = (code, result, err.getvalue())
        if op.known_fault:
            if code != 0:
                failed += 1
                if tracer:
                    tracer.rollback(mark)
            continue
        require(code == 0, f"{op.label} exited {code}: {err.getvalue().strip()}")
        require(op.argv is None or result.count("\n") == 1, f"{op.label} did not print exactly one line")
        times[op.stage] += elapsed
    return times, failed, outputs


def check_outputs(inputs: W.Inputs, outputs: dict) -> None:
    """Every check of a round's outputs against its independent recomputation."""
    wl, p = inputs.workload, inputs.paths
    read = checks.read_json
    checks.check_split(inputs.lines, p["cache"], p["train"], p["test"], W.SPLIT)
    model = checks.check_model(read(p["model"]), wl.k)
    vocab, train = checks.read_sequences(p["train"])
    _, test = checks.read_sequences(p["test"])
    require(model.vocab == vocab, "trained model vocabulary differs from the train cache")
    with open(p["report"], encoding="utf-8") as fh:
        checks.check_training([json.loads(line) for line in fh], model, train)
    if "evaluate" in outputs:
        code, _, err = outputs["evaluate"]
        if code == 0:
            checks.check_evaluation(read(p["eval"]), model, test, floored=False)
        else:
            require(code == 3 and checks.blocked_by_empty_row(model, test),
                    f"plain evaluate failed otherwise than on an empty trained row: {err.strip()}")
    checks.check_evaluation(read(p["eval_floor"]), model, test, floored=True)
    checks.check_evaluation(read(p["eval_train"]), model, train, floored=False)
    checks.check_baseline(read(p["kn"]), train, test, len(vocab))
    gen = checks.SparseModel.from_arrays(inputs.gen.w, inputs.gen.cols, inputs.gen.probs)
    checks.check_stationary(read(p["pi"]), gen, W.STATIONARY_TOL)
    chain = checks.SparseModel.from_arrays(inputs.chain.w, inputs.chain.cols, inputs.chain.probs)
    checks.check_mixing(read(p["mix"]), read(p["bound"]), chain, inputs.chain.dense(),
                        W.DELTA, W.EPSILON, W.BOUND_T)
    checks.check_exponent(read(p["exp"]), inputs.gen.w, wl.exponent_steps)
    checks.check_generated(read(p["generated"]), gen, "s0", wl.generate_length)
    g = outputs["glamp lift"][1]
    checks.check_lift(g["marginal"], g["mixture_pi"], g["mixture"], g["states"],
                      inputs.glamp_w, inputs.glamp_mats, inputs.glamp_lag_map)


def digest(paths: dict) -> dict:
    out = {}
    for key in ARTIFACTS:
        if os.path.exists(paths[key]):
            with open(paths[key], "rb") as fh:
                out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


def measure(wl: W.Workload, seed: int, seconds: float, traced: bool, workdir: Path, tally: dict) -> dict:
    """Set up, run rounds and check them; ``tally`` keeps the operation
    counts so far, for the report of a run whose check failed."""
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = W.make_inputs(wl, seed, str(workdir))
        modules = import_lamp()
        setups.append(time.perf_counter() - start)
    ops = operations(inputs, seed)
    rounds = []  # (traced, stage times, per-layer metrics or None)
    first = None
    start = time.perf_counter()
    while True:
        gc.collect()
        tracer = tracing.Tracer() if traced and len(rounds) % 2 == 1 else None
        restore = tracing.install(tracer, modules) if tracer else None
        try:
            times, fails, outputs = run_round(ops, modules, inputs, tracer)
        finally:
            if restore:
                restore()
        tally["attempted"] += len(ops)
        tally["failed"] += fails
        if first is None:
            # The high-water mark of set-up and one round, before the checks
            # allocate their own arrays.
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            check_outputs(inputs, outputs)
            first = digest(inputs.paths)
        else:
            require(digest(inputs.paths) == first, "outputs differ from the first round's")
        rounds.append((tracer is not None, times, tracer.metrics() if tracer else None))
        print(f"round {len(rounds)}{' traced' if tracer else ''}: "
              + " ".join(f"{s}={t:.3f}" for s, t in times.items()), file=sys.stderr)
        enough = len(rounds) >= (2 * MIN_PAIRS if traced else MIN_ROUNDS)
        if enough and time.perf_counter() - start >= seconds and len(rounds) % (2 if traced else 1) == 0:
            break

    if traced:
        layers = [m for _, _, m in rounds if m is not None]
        values = {name: statistics.median(m[name] for m in layers) for name in tracing.METRICS}
        # Each traced round follows an untraced one; pairing them cancels drift
        # in the machine's speed.
        totals = [sum(t.values()) for _, t, _ in rounds]
        values["trace.overhead_s"] = statistics.median(b - a for a, b in zip(totals[0::2], totals[1::2]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **{f"{s}_s": {"value": statistics.median(t[s] for _, t, _ in rounds), "unit": "s"} for s in STAGES},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
            "model_bytes": {"value": os.path.getsize(inputs.paths["model"]), "unit": "B"},
        }
    return {"correct": True, **tally, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the result JSON to this file")
    args = parser.parse_args(argv)
    if not (SRC / "lamp" / "__init__.py").is_file():
        print(f"perfbench: no lamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = {"attempted": 0, "failed": 0}
    try:
        result = measure(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir, tally)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": max(tally["attempted"], 1), "failed": tally["failed"], "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
