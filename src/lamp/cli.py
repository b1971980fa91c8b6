"""Command-line pipeline: preprocess, train, evaluate, generate, analyze,
and n-gram baselines.

Machine output is JSON only.  Each command reads its inputs, runs every
check and returns a ``_Result`` naming the files to write; it writes none.
:func:`main` alone finishes the run.  It hashes the inputs and checks that
every output's directory exists, then writes the files other than --output,
then --output, then the manifest (<output>.manifest.json) recording the
command, its configuration, sha256 hashes of the inputs as read, the output
paths, the seed, the wall time and the library version, and last prints the
command's one summary line to stdout.  Every number on that line is the JSON
rendering of a value stored in the command's JSON output or manifest
summary.  A command that fails leaves neither --output nor a manifest, and
an error caused by an empty row names the state's token.  All artifact JSON is
byte-deterministic for fixed inputs and seed; wall time lives only in the
manifest.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, vocabulary
mismatches, invalid values), 3 numeric error (non-ergodic matrices,
divergence, undefined quantities).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from lamp import __version__
from lamp.core import (
    Corpus,
    DataError,
    EVALUATION_FLOOR,
    EmptyRowError,
    HistoryDistribution,
    NonErgodicError,
    NumericError,
    Vocabulary,
    _write_json,
    generate,
    load_model,
    log_likelihood,
    save_model,
)
from lamp.analysis import (
    export_trace_csv,
    lamp_mixing_bound,
    mixing_time,
    renewal_rate_estimate,
    simulate_exponent_process,
    stationary_distribution,
)
from lamp.baselines import fit_kneser_ney, fit_naive_ngram, ngram_perplexity, save_ngram
from lamp.data import (
    PreprocessConfig,
    decode_ids,
    encode_tokens,
    load_corpus,
    load_corpus_cache,
    preprocess,
    save_corpus_cache,
    split,
)
from lamp.learn import TrainConfig, alternate_minimize

__all__ = ["main"]


class _Result(NamedTuple):
    """What a command hands :func:`main` to write."""

    inputs: list  # every file the command read
    writes: list  # (path, write) of every file to write, --output first; write(path) writes it
    summary: dict  # the manifest's summary
    line: str  # the one stdout line


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """Render a value exactly as it appears in the JSON output."""
    return json.dumps(value)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc}") from exc
    return digest.hexdigest()


def _json_writer(doc) -> functools.partial:
    """A write that saves ``doc`` as artifact JSON."""
    return functools.partial(_write_json, doc)


def _write_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_stem(path: str) -> str:
    return path[:-5] if path.endswith(".json") else path


def _load_any_corpus(path: str) -> Corpus:
    """Cache JSON if the file's first non-blank bytes are '{"', as every cache
    writer emits them; whitespace-token text otherwise, so a text token may
    start with '{'."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(64).lstrip()
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    if head.startswith(b'{"'):
        return load_corpus_cache(path)
    return load_corpus(path)


def _align_corpus(corpus: Corpus, vocab: Vocabulary) -> Corpus:
    """Re-encode a corpus against a model's vocabulary.

    Identical token sets pass through unchanged; otherwise tokens are mapped
    by name, with unknown tokens falling back to the vocabulary's rare token
    or raising a data error when it has none.
    """
    if corpus.vocab.tokens == vocab.tokens:
        return corpus
    # Map each id that occurs once, in order of first occurrence, so an
    # unknown token is the first one the corpus holds.
    ids, first = np.unique(corpus.tokens, return_index=True)
    ids = ids[np.argsort(first)]
    new_id = np.zeros(len(corpus.vocab), dtype=np.int64)
    new_id[ids] = encode_tokens(vocab, decode_ids(corpus.vocab, ids))
    return Corpus(vocab, new_id[corpus.tokens], corpus.offsets)


@contextlib.contextmanager
def _naming_empty_state(vocab: Vocabulary):
    """Re-raise an error caused by an empty row with the state's token in
    place of its id."""
    try:
        yield
    except (EmptyRowError, NonErgodicError) as exc:
        if exc.empty_state is None:
            raise
        state = exc.empty_state
        message = str(exc).replace(f"state {state} ", f"state {vocab.token(state)!r} ", 1)
        raise type(exc)(message, state) from None


# ---------------------------------------------------------------------------
# Commands: each reads its inputs, checks everything and returns a _Result
# for main to write.


def cmd_preprocess(args: argparse.Namespace) -> _Result:
    corpus, load_report = load_corpus(args.input, limit=args.limit, return_report=True)
    cfg = PreprocessConfig(
        collapse_repeats=args.collapse_repeats,
        rare_min_count=args.rare_min_count,
        rare_token_label=args.rare_label,
        split_fraction=args.split if args.split is not None else 0.9,
        split_seed=args.split_seed,
    )
    out, report = preprocess(corpus, cfg)
    writes = [(args.output, functools.partial(save_corpus_cache, out))]
    summary = {
        "n_sequences": report.n_sequences_out,
        "vocab_size": report.vocab_size_out,
        "dropped_short_sequences": report.dropped_short_sequences,
        "skipped_empty_lines": load_report.skipped_empty_lines,
        "rare_token_types": report.rare_token_types,
    }
    if args.split is not None:
        train, test = split(out, cfg.split_fraction, cfg.split_seed, cfg.rare_token_label)
        stem = _json_stem(args.output)
        train_path, test_path = stem + ".train.json", stem + ".test.json"
        writes += [(train_path, functools.partial(save_corpus_cache, train)),
                   (test_path, functools.partial(save_corpus_cache, test))]
        summary["n_train_sequences"] = len(train)
        summary["n_test_sequences"] = len(test)
    return _Result([args.input], writes, summary, (
        f"preprocess: kept {_fmt(summary['n_sequences'])} sequences"
        f" vocab={_fmt(summary['vocab_size'])}"
        f" dropped={_fmt(summary['dropped_short_sequences'])} -> {args.output}"
    ))


def cmd_train(args: argparse.Namespace) -> _Result:
    corpus = _load_any_corpus(args.corpus)
    cfg = TrainConfig(
        k=args.k,
        rounds=args.rounds,
        kkt_tol=args.kkt_tol,
        init_decay=args.init_decay,
        support_epsilon=args.support_epsilon,
        weight_only=args.weight_only,
        prior_count=args.prior_count,
        seed=args.seed,
    )
    model, report = alternate_minimize(corpus, cfg)
    report_path = args.report or _json_stem(args.output) + ".report.jsonl"
    final = report.records[-1]
    summary = {
        "k": cfg.k,
        "rounds": cfg.rounds,
        "log_likelihood": final.log_likelihood,
        "perplexity": final.perplexity,
        "halves": [
            {"block": r.block, "iterations": r.iterations, "capped": r.capped,
             "converged": bool(r.kkt_residual <= cfg.kkt_tol)}
            for r in report.records[1:]
        ],
    }
    writes = [(args.output, functools.partial(save_model, model)),
              (report_path, functools.partial(_write_text, report.to_jsonl()))]
    return _Result([args.corpus], writes, summary, (
        f"train: k={_fmt(cfg.k)} rounds={_fmt(cfg.rounds)}"
        f" perplexity={_fmt(final.perplexity)} -> {args.output}"
    ))


def cmd_evaluate(args: argparse.Namespace) -> _Result:
    model = load_model(args.model)
    corpus = _align_corpus(_load_any_corpus(args.corpus), model.vocab)
    floor = EVALUATION_FLOOR if args.floor else None
    ll = log_likelihood(model, corpus, floor=floor)
    ppl = ll.perplexity()
    doc = {
        "model": args.model,
        "corpus": args.corpus,
        "perplexity": ppl,
        "log_likelihood": ll.total,
        "scored_transitions": ll.scored_transitions,
        "impossible_transitions": ll.impossible_transitions,
        "floor": floor,
    }
    summary = {
        "perplexity": ppl,
        "impossible_transitions": ll.impossible_transitions,
    }
    return _Result([args.model, args.corpus], [(args.output, _json_writer(doc))], summary, (
        f"evaluate: perplexity={_fmt(ppl)}"
        f" impossible={_fmt(ll.impossible_transitions)} -> {args.output}"
    ))


def cmd_generate(args: argparse.Namespace) -> _Result:
    model = load_model(args.model)
    start_token = args.start if args.start is not None else model.vocab.tokens[0]
    start = model.vocab.id(start_token)
    with _naming_empty_state(model.vocab):
        ids = generate(model, start, args.length, args.seed)
    tokens = decode_ids(model.vocab, ids)
    doc = {
        "model": args.model,
        "start": start_token,
        "length": args.length,
        "seed": args.seed,
        "tokens": tokens,
        "ids": ids.tolist(),
    }
    return _Result([args.model], [(args.output, _json_writer(doc))], {"length": args.length}, " ".join(tokens))


def cmd_analyze_stationary(args: argparse.Namespace) -> _Result:
    model = load_model(args.model)
    with _naming_empty_state(model.vocab):
        pi = [float(p) for p in stationary_distribution(model.P, tol=args.tol)]
    doc = {"model": args.model, "tol": args.tol, "stationary": pi}
    return _Result([args.model], [(args.output, _json_writer(doc))], {"stationary": pi},
                   f"analyze stationary: pi={_fmt(pi)} -> {args.output}")


def cmd_analyze_mixing(args: argparse.Namespace) -> _Result:
    model = load_model(args.model)
    with _naming_empty_state(model.vocab):
        t_mix = mixing_time(model.P, args.delta)
    doc = {"model": args.model, "delta": args.delta, "mixing_time": t_mix}
    summary = {"mixing_time": t_mix, "delta": args.delta}
    return _Result([args.model], [(args.output, _json_writer(doc))], summary, (
        f"analyze mixing: mixing_time={_fmt(t_mix)}"
        f" delta={_fmt(args.delta)} -> {args.output}"
    ))


def cmd_analyze_exponent(args: argparse.Namespace) -> _Result:
    if args.w is None and args.model is None:
        raise DataError("analyze exponent needs --w or --model")
    if args.w is not None:
        try:
            w = HistoryDistribution.from_weights(float(v) for v in args.w.split(",") if v.strip() != "")
        except ValueError as exc:  # float() names the value it could not read
            raise DataError(f"lag weight is not a number: {exc}") from None
        inputs = []
    else:
        w = load_model(args.model).w
        inputs = [args.model]
    trace = simulate_exponent_process(w, args.steps, args.seed)
    est = renewal_rate_estimate(trace, w)
    doc = {
        "w": [float(v) for v in w.weights],
        "t_max": args.steps,
        "seed": args.seed,
        "rate": est.rate,
        "predicted": est.predicted,
        "clt_statistic": est.clt_statistic,
    }
    writes = [(args.output, _json_writer(doc))]
    if args.trace_csv:
        writes.append((args.trace_csv, functools.partial(export_trace_csv, trace)))
    return _Result(inputs, writes, {"rate": est.rate, "predicted": est.predicted}, (
        f"analyze exponent: rate={_fmt(est.rate)}"
        f" predicted={_fmt(est.predicted)} -> {args.output}"
    ))


def cmd_analyze_bound(args: argparse.Namespace) -> _Result:
    model = load_model(args.model)
    with _naming_empty_state(model.vocab):
        bound = lamp_mixing_bound(model.w, model.P, args.delta, args.epsilon, args.T)
    doc = {"model": args.model, **asdict(bound)}
    summary = {"bound": bound.bound, "confidence": bound.confidence}
    return _Result([args.model], [(args.output, _json_writer(doc))], summary, (
        f"analyze bound: bound={_fmt(bound.bound)}"
        f" confidence={_fmt(bound.confidence)} -> {args.output}"
    ))


def cmd_baseline(args: argparse.Namespace) -> _Result:
    corpus = _load_any_corpus(args.corpus)
    if args.smoothing == "naive":
        model = fit_naive_ngram(corpus, order=args.order)
    else:
        model = fit_kneser_ney(corpus, order=args.order, discount=args.discount)
    doc = {
        "corpus": args.corpus,
        "order": args.order,
        "smoothing": args.smoothing,
        "discount": model.discount,
        "train_perplexity": ngram_perplexity(model, corpus),
    }
    inputs = [args.corpus]
    summary = {"train_perplexity": doc["train_perplexity"]}
    if args.eval_corpus:
        held_out = _align_corpus(_load_any_corpus(args.eval_corpus), model.vocab)
        doc["eval_corpus"] = args.eval_corpus
        doc["eval_perplexity"] = summary["eval_perplexity"] = ngram_perplexity(model, held_out)
        inputs.append(args.eval_corpus)
    writes = [(args.output, _json_writer(doc))]
    if args.model_output:
        writes.append((args.model_output, functools.partial(save_ngram, model)))
    return _Result(inputs, writes, summary, (
        f"baseline: order={_fmt(args.order)} smoothing={args.smoothing}"
        f" train_perplexity={_fmt(doc['train_perplexity'])} -> {args.output}"
    ))


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="lamp", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean a text corpus into a JSON cache")
    p.add_argument("input", help="text corpus: one sequence per line, whitespace tokens")
    p.add_argument("--output", required=True, help="corpus cache JSON path")
    p.add_argument("--limit", type=int, default=None, help="keep only the first N sequences")
    p.add_argument("--collapse-repeats", action="store_true")
    p.add_argument("--rare-min-count", type=int, default=0)
    p.add_argument("--rare-label", default="<RARE>")
    p.add_argument("--split", type=float, default=None, metavar="FRACTION",
                   help="also write .train/.test caches with this train fraction")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fit a model by alternating maximization")
    p.add_argument("corpus", help="corpus cache JSON or text file")
    p.add_argument("--output", required=True, help="model JSON path")
    p.add_argument("--k", type=int, required=True, help="number of history lags")
    p.add_argument("--rounds", type=float, default=1.5)
    p.add_argument("--weight-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-decay", type=float, default=0.8)
    p.add_argument("--support-epsilon", type=float, default=1e-3)
    p.add_argument("--prior-count", type=float, default=0.0)
    p.add_argument("--kkt-tol", type=float, default=1e-6)
    p.add_argument("--report", default=None, help="training report JSONL path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="perplexity of a model on a corpus")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("--output", required=True, help="evaluation JSON path")
    p.add_argument("--floor", action="store_true",
                   help="smooth impossible transitions with the evaluation floor")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="sample a sequence from a model")
    p.add_argument("model")
    p.add_argument("--output", required=True, help="generation JSON path")
    p.add_argument("--start", default=None, help="start token (default: first in vocab)")
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="chain analyses on a trained model")
    asub = p.add_subparsers(dest="analyze_command", required=True)

    q = asub.add_parser("stationary", help="stationary distribution of P")
    q.add_argument("model")
    q.add_argument("--output", required=True)
    q.add_argument("--tol", type=float, default=1e-12)
    q.set_defaults(func=cmd_analyze_stationary)

    q = asub.add_parser("mixing", help="exact mixing time of P")
    q.add_argument("model")
    q.add_argument("--output", required=True)
    q.add_argument("--delta", type=float, default=0.01)
    q.set_defaults(func=cmd_analyze_mixing)

    q = asub.add_parser("exponent", help="simulate the exponent process")
    q.add_argument("--model", default=None, help="take lag weights from this model")
    q.add_argument("--w", default=None, help="comma-separated lag weights, e.g. 0.5,0.5")
    q.add_argument("--steps", type=int, default=100_000, help="horizon t_max")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--output", required=True)
    q.add_argument("--trace-csv", default=None, help="also export the trace as CSV")
    q.set_defaults(func=cmd_analyze_exponent)

    q = asub.add_parser("bound", help="high-probability mixing bound")
    q.add_argument("model")
    q.add_argument("--output", required=True)
    q.add_argument("--delta", type=float, default=0.01)
    q.add_argument("--epsilon", type=float, default=1.0)
    q.add_argument("--T", type=int, default=100)
    q.set_defaults(func=cmd_analyze_bound)

    p = sub.add_parser("baseline", help="fit and score an n-gram baseline")
    p.add_argument("corpus")
    p.add_argument("--output", required=True, help="scores JSON path")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--smoothing", choices=("naive", "kneser_ney"), default="naive")
    p.add_argument("--discount", type=float, default=0.75)
    p.add_argument("--eval-corpus", default=None)
    p.add_argument("--model-output", default=None, help="also save the fitted model")
    p.set_defaults(func=cmd_baseline)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser :func:`main` uses, built once per process.  Parsing only
    reads it: each call fills a namespace of its own."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command: time it, hash its inputs and check its output
    directories before the first write, write --output after every other
    file, then its manifest, then print its summary line."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    started = time.perf_counter()
    try:
        result = args.func(args)
        input_hashes = {path: _sha256(path) for path in result.inputs}
        outputs = [path for path, _ in result.writes]
        for path in outputs:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise DataError(f"cannot write {path}: its directory does not exist")
        for path, write in result.writes[1:] + result.writes[:1]:
            write(path)
        manifest = {
            "command": " ".join(filter(None, (args.command, getattr(args, "analyze_command", None)))),
            "config": {k: v for k, v in vars(args).items()
                       if k not in ("func", "command", "analyze_command")},
            "input_hashes": input_hashes,
            "outputs": outputs,
            "seed": getattr(args, "seed", None),
            "wall_time_s": time.perf_counter() - started,
            "version": __version__,
            "summary": result.summary,
        }
        _write_json(manifest, outputs[0] + ".manifest.json")
    except NumericError as exc:
        print(f"lamp: numeric error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"lamp: data error: {exc}", file=sys.stderr)
        return 2
    print(result.line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
