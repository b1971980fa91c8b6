"""End-to-end tests for the command-line pipeline."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lamp
from lamp.cli import build_parser, main
from lamp.core import (
    HistoryDistribution,
    LampModel,
    SparseStochasticMatrix,
    Vocabulary,
    generate,
    load_model,
    save_model,
)
from lamp.data import load_corpus_cache
from lamp.baselines import load_ngram
from lamp.learn import empirical_transition_matrix

from conftest import make_corpus, make_model, random_stochastic_matrix, worked_matrix


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus_text(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def save_worked_model(tmp_path, w=(0.6, 0.4), name="model.json"):
    model = make_model(w, worked_matrix())
    path = tmp_path / name
    save_model(model, str(path))
    return str(path), model


# ---------------------------------------------------------------------------
# Usage and exit codes


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "usage" in out


HELP_AND_USAGE_ERRORS = [
    [],
    ["--help"],
    ["bogus"],
    *([command, "--help"] for command in
      ("preprocess", "train", "evaluate", "generate", "analyze", "baseline")),
    *(["analyze", sub, "--help"] for sub in ("stationary", "mixing", "exponent", "bound")),
    ["preprocess", "c.txt"],
    ["train", "c.json", "--output", "m.json"],
    ["train", "c.json", "--output", "m.json", "--k", "two"],
    ["evaluate", "m.json", "c.json", "--output", "e.json", "--extra"],
    ["generate", "m.json", "--output", "g.json", "--length"],
    ["analyze"],
    ["analyze", "bound", "m.json"],
    ["analyze", "spectrum", "m.json"],
    ["baseline", "c.json", "--output", "b.json", "--order", "3", "--smoothing", "witten_bell"],
]


@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_match_a_fresh_parser(capsys, argv):
    # main builds its parser once per process; help and usage errors keep
    # the bytes and exit codes of a parser built for the call.
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    fresh = capsys.readouterr()
    want = (int(info.value.code) if info.value.code else 0, fresh.out, fresh.err)
    assert want[0] in (0, 1) and fresh.out + fresh.err
    for _ in range(2):
        assert run(capsys, argv) == want


def test_main_calls_share_no_parsed_values(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    exponent, first, second = (str(tmp_path / name) for name in ("exp.json", "a.json", "b.json"))
    argv = ["analyze", "exponent", "--w", "0.5,0.5", "--steps", "20", "--seed", "5", "--output", exponent]
    assert run(capsys, argv)[0] == 0
    argv = ["generate", model_path, "--start", "s1", "--length", "3", "--seed", "7", "--output", first]
    assert run(capsys, argv)[0] == 0
    assert run(capsys, ["generate", model_path, "--output", second])[0] == 0
    doc = json.loads(open(second).read())
    assert (doc["start"], doc["length"], doc["seed"]) == ("s0", 10, 0)
    config = json.loads(open(second + ".manifest.json").read())["config"]
    assert config == {"model": model_path, "output": second, "start": None, "length": 10, "seed": 0}


def save_two_matrix_model(tmp_path):
    """A two-lag model whose second lag reads a swap matrix."""
    model = LampModel.per_lag(
        HistoryDistribution.from_weights([0.5, 0.5]),
        (
            SparseStochasticMatrix.from_dense(worked_matrix()),
            SparseStochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])),
        ),
        (1, 2),
        Vocabulary.from_size(2),
    )
    path = tmp_path / "two.json"
    save_model(model, str(path))
    return str(path)


def save_edited_worked_model(tmp_path, edit):
    """The worked model's document after ``edit`` changes it in place."""
    path, _ = save_worked_model(tmp_path)
    doc = json.loads(open(path).read())
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def worked_corpus(tmp_path):
    return write_corpus_text(tmp_path, "s0 s1 s0 s0\n")


def train_argv(tmp_path, *flags):
    return ["train", worked_corpus(tmp_path), "--output", str(tmp_path / "m.json"), "--k", "2",
            *flags]


def empty_row_model(tmp_path):
    """A model trained with k = 2 on "a b c" / "a b a b c": c only ends
    lines, so its row is empty."""
    path = str(tmp_path / "m.json")
    assert main(["train", write_corpus_text(tmp_path, "a b c\na b a b c\n"), "--output", path,
                 "--k", "2"]) == 0
    return path


def three_state_chain_model(tmp_path):
    """A 3-state ergodic chain; rounding keeps its powers more than 1e-30
    from the stationary law in total variation."""
    path = str(tmp_path / "chain.json")
    save_model(make_model([1.0], [[0.3, 0.7, 0.0], [0.0, 0.6, 0.4], [0.55, 0.0, 0.45]]), path)
    return path


def edited_model_file(tmp_path, old, new):
    """bad.json: the worked model's file with the bytes ``old`` replaced by
    ``new``."""
    path, _ = save_worked_model(tmp_path, name="bad.json")
    raw = open(path, "rb").read()
    assert raw.count(old) == 1
    with open(path, "wb") as fh:
        fh.write(raw.replace(old, new))
    return path


def bad_cache(tmp_path):
    """bad.json: a corpus cache whose second token holds the byte 0xFF."""
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"vocab":["s0","s\xff"],"sequences":[[0,1,0]]}\n')
    return str(path)


def cache_argv(tmp_path, sequences):
    """``train`` on a corpus cache over s0, s1 whose "sequences" field is the
    JSON text ``sequences``."""
    path = write_corpus_text(tmp_path, f'{{"vocab": ["s0", "s1"], "sequences": {sequences}}}',
                             name="cache.json")
    return ["train", path, "--output", str(tmp_path / "m.json"), "--k", "1"]


#: (id, argv from the test's tmp dir, exit code[, text stderr must hold]).
#: Every failing command names its class of error on stderr.
EXIT_CODES = [
    ("no-command", lambda t: [], 1),
    ("unknown-flag", lambda t: ["train", "x", "--output", str(t / "m.json"), "--k", "2",
                                "--bogus"], 1),
    ("train-threads", lambda t: ["train", worked_corpus(t), "--output", str(t / "m.json"),
                                 "--k", "2", "--threads", "2"], 1),
    ("missing-corpus", lambda t: ["train", str(t / "nope.txt"), "--output", str(t / "m.json"),
                                  "--k", "2"], 2),
    ("missing-model", lambda t: ["evaluate", str(t / "no model.json"), worked_corpus(t),
                                 "--output", str(t / "e.json")], 2),
    ("model-not-json", lambda t: ["evaluate", write_corpus_text(t, "not json\n", name="m.json"),
                                  worked_corpus(t), "--output", str(t / "e.json")], 2),
    ("model-short-triple", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc["matrix"][0].pop()), worked_corpus(t), "--output", str(t / "e.json")], 2),
    ("model-fractional-index", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc["matrix"][3].__setitem__(1, 1.5)), worked_corpus(t),
        "--output", str(t / "e.json")], 2),
    ("model-bool-weight", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc.update(w=[True, 0])), worked_corpus(t), "--output", str(t / "e.json")], 2,
     "lag weight True is not a number"),
    ("model-string-weight", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc.update(w=["0.6", 0.4])), worked_corpus(t), "--output", str(t / "e.json")], 2,
     "lag weight '0.6' is not a number"),
    ("model-bool-column", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc["matrix"][3].__setitem__(1, True)), worked_corpus(t),
        "--output", str(t / "e.json")], 2, "matrix entry value True is not a number"),
    ("model-string-triple", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc["matrix"].__setitem__(0, ["0", "0", "0.9"])), worked_corpus(t),
        "--output", str(t / "e.json")], 2, "matrix entry value '0' is not a number"),
    ("model-both-shapes", lambda t: ["evaluate", save_edited_worked_model(
        t, lambda doc: doc.update(matrices=[doc["matrix"]], lag_map=[1, 1])), worked_corpus(t),
        "--output", str(t / "e.json")], 2),
    ("unknown-token-no-rare", lambda t: ["evaluate", save_worked_model(t)[0],
                                         write_corpus_text(t, "s0 zzz s1\n"),
                                         "--output", str(t / "e.json")], 2),
    ("bad-delta", lambda t: ["analyze", "mixing", save_worked_model(t)[0],
                             "--output", str(t / "o.json"), "--delta", "-1"], 2),
    ("evaluate-two-matrix", lambda t: ["evaluate", save_two_matrix_model(t), worked_corpus(t),
                                       "--output", str(t / "e.json")], 0),
    ("stationary-two-matrix", lambda t: ["analyze", "stationary", save_two_matrix_model(t),
                                         "--output", str(t / "o.json")], 2),
    ("generate-two-matrix", lambda t: ["generate", save_two_matrix_model(t),
                                       "--output", str(t / "g.json")], 0),
    ("stationary-empty-row", lambda t: ["analyze", "stationary", empty_row_model(t),
                                        "--output", str(t / "o.json")], 3,
     "state 'c' has no outgoing transitions"),
    ("generate-empty-row", lambda t: ["generate", empty_row_model(t), "--start", "c",
                                      "--output", str(t / "g.json")], 3,
     "state 'c' has no outgoing transitions"),
    ("train-rounds-nan", lambda t: train_argv(t, "--rounds", "nan"), 2, "rounds must be finite"),
    ("train-rounds-inf", lambda t: train_argv(t, "--rounds", "inf"), 2, "rounds must be finite"),
    ("train-kkt-tol-nan", lambda t: train_argv(t, "--kkt-tol", "nan"), 2, "kkt_tol must be finite"),
    ("train-prior-count-nan", lambda t: train_argv(t, "--prior-count", "nan"), 2,
     "prior_count must be finite"),
    ("stationary-tol-nan", lambda t: ["analyze", "stationary", save_worked_model(t)[0],
                                      "--output", str(t / "o.json"), "--tol", "nan"], 2, "tol"),
    ("mixing-delta-nan", lambda t: ["analyze", "mixing", save_worked_model(t)[0],
                                    "--output", str(t / "o.json"), "--delta", "nan"], 2, "delta"),
    ("mixing-horizon", lambda t: ["analyze", "mixing", three_state_chain_model(t),
                                  "--output", str(t / "o.json"), "--delta", "1e-30"], 3,
     "mixing-time horizon exceeded"),
    ("bound-epsilon-nan", lambda t: ["analyze", "bound", save_worked_model(t)[0],
                                     "--output", str(t / "o.json"), "--epsilon", "nan"], 2,
     "epsilon"),
    ("bound-epsilon-inf", lambda t: ["analyze", "bound", save_worked_model(t)[0],
                                     "--output", str(t / "o.json"), "--epsilon", "inf"], 2,
     "epsilon must be positive and finite"),
    ("exponent-word-weight", lambda t: ["analyze", "exponent", "--w", "1,abc", "--output", str(t / "o.json")], 2,
     "lag weight is not a number: could not convert string to float: 'abc'"),
    ("generate-negative-seed", lambda t: ["generate", save_worked_model(t)[0], "--seed", "-1",
                                          "--output", str(t / "g.json")], 2, "got -1"),
    ("exponent-negative-seed", lambda t: ["analyze", "exponent", "--w", "0.5,0.5", "--seed", "-1",
                                          "--steps", "10", "--output", str(t / "o.json")], 2, "got -1"),
    ("preprocess-negative-split-seed", lambda t: ["preprocess", write_corpus_text(t, "a b a\nb a b\n"),
                                                  "--output", str(t / "c.json"), "--split", "0.5",
                                                  "--split-seed", "-1"], 2, "got -1"),
    ("cache-fractional-id", lambda t: cache_argv(t, "[[0, 1.7, 0]]"), 2, "state id 1.7"),
    ("cache-string-id", lambda t: cache_argv(t, '[[0, "1", 0]]'), 2, "state id '1'"),
    ("cache-huge-id", lambda t: cache_argv(t, "[[0, 1e30, 0]]"), 2, "state id 1e+30"),
    ("cache-nested-id", lambda t: cache_argv(t, "[[0, [1], 0]]"), 2, "state id [1]"),
    ("cache-bool-id", lambda t: cache_argv(t, "[[0, true, 1]]"), 2, "state id True"),
    ("cache-sequence-not-list", lambda t: cache_argv(t, "[0, 1]"), 2, "sequence 0 is not a list"),
    # Past 2^64 the parser reads an integer as a float, here 1.8446744073709552e+19.
    ("cache-id-past-64-bits", lambda t: cache_argv(t, "[[0, 18446744073709551616, 0]]"), 2,
     "is not an integer"),
    ("model-invalid-utf8", lambda t: ["analyze", "stationary", edited_model_file(t, b'"s1"', b'"s\xff"'),
                                      "--output", str(t / "o.json")], 2, "bad.json is not valid JSON"),
    ("model-nan", lambda t: ["evaluate", edited_model_file(t, b'"w":[0.6', b'"w":[NaN'), worked_corpus(t),
                             "--output", str(t / "e.json")], 2, "bad.json is not valid JSON"),
    ("model-1e400", lambda t: ["evaluate", edited_model_file(t, b'"w":[0.6', b'"w":[1e400'),
                               worked_corpus(t), "--output", str(t / "e.json")], 2, "bad.json is not valid JSON"),
    ("model-bom", lambda t: ["generate", edited_model_file(t, b'{"k"', b'\xef\xbb\xbf{"k"'),
                             "--output", str(t / "g.json")], 2, "bad.json is not valid JSON"),
    ("model-unpaired-surrogate", lambda t: ["generate", edited_model_file(t, b'"s1"', b'"s\\ud800"'),
                                            "--output", str(t / "g.json")], 2, "bad.json is not valid JSON"),
    ("cache-invalid-utf8", lambda t: ["evaluate", save_worked_model(t)[0], bad_cache(t),
                                      "--output", str(t / "e.json")], 2, "bad.json is not valid JSON"),
]


@pytest.mark.parametrize(
    "argv_for, expected, names",
    [pytest.param(f, c, *(names or [""]), id=name) for name, f, c, *names in EXIT_CODES],
)
def test_exit_code_map(capsys, tmp_path, argv_for, expected, names):
    argv = argv_for(tmp_path)
    capsys.readouterr()  # what making the inputs printed
    inputs = set(tmp_path.rglob("*"))
    code, out, err = run(capsys, argv)
    assert code == expected
    assert {0: "", 1: "error", 2: "data error", 3: "numeric error"}[code] in err
    assert names in err
    if code:  # a failing command prints no summary and writes no file
        assert out == ""
        assert set(tmp_path.rglob("*")) == inputs


#: (id, argv from the test's tmp dir) of commands that read their inputs and
#: then fail, at a check or at an output whose directory is missing.
FAILING_AFTER_READING = [
    ("preprocess-split-one-line", lambda t: [
        "preprocess", write_corpus_text(t, "a b a\n"), "--output", str(t / "out.json"),
        "--split", "0.9"]),
    ("exponent-trace-csv-missing-dir", lambda t: [
        "analyze", "exponent", "--w", "0.5,0.5", "--steps", "20", "--output", str(t / "out.json"),
        "--trace-csv", str(t / "missing" / "t.csv")]),
    ("baseline-model-output-missing-dir", lambda t: [
        "baseline", worked_corpus(t), "--order", "2", "--output", str(t / "out.json"),
        "--model-output", str(t / "missing" / "ng.json")]),
    ("train-report-missing-dir", lambda t: [
        "train", worked_corpus(t), "--output", str(t / "out.json"), "--k", "2",
        "--report", str(t / "missing" / "r.jsonl")]),
    ("train-output-missing-dir", lambda t: [
        "train", write_corpus_text(t, "a b a\nb a b\n", "c.txt"), "--output", str(t / "missing" / "m.json"),
        "--k", "1", "--report", str(t / "r.jsonl")]),
]


@pytest.mark.parametrize("argv_for", [pytest.param(f, id=name) for name, f in FAILING_AFTER_READING])
def test_a_failing_command_leaves_no_output_or_manifest(capsys, tmp_path, argv_for):
    argv = argv_for(tmp_path)
    inputs = set(tmp_path.rglob("*"))
    code, _, err = run(capsys, argv)
    assert code == 2 and "data error" in err
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.json.manifest.json").exists()
    assert not (tmp_path / "r.jsonl").exists()
    assert set(tmp_path.rglob("*")) == inputs  # no file of any kind was written


def test_module_entry_point_runs():
    # pytest's own pythonpath setting does not reach a child process, so the
    # child gets the source tree, located from this file, on PYTHONPATH.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lamp", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_rare_threshold_worked_example(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "a b a c\n")
    out = str(tmp_path / "cache.json")
    code, stdout, _ = run(
        capsys, ["preprocess", corpus_path, "--output", out, "--rare-min-count", "2"]
    )
    assert code == 0
    assert stdout.count("\n") == 1
    cached = load_corpus_cache(out)
    assert cached.vocab.tokens == ("a", "<RARE>")
    assert [seq.tolist() for seq in cached.sequences] == [[0, 1, 0, 1]]


def test_preprocess_split_writes_three_caches(tmp_path, capsys):
    lines = "".join(f"a{i} b{i} a{i}\n" for i in range(10))
    corpus_path = write_corpus_text(tmp_path, lines)
    out = str(tmp_path / "cache.json")
    code, _, _ = run(
        capsys,
        ["preprocess", corpus_path, "--output", out, "--split", "0.9", "--split-seed", "1"],
    )
    assert code == 0
    train = load_corpus_cache(str(tmp_path / "cache.train.json"))
    test = load_corpus_cache(str(tmp_path / "cache.test.json"))
    assert len(train.sequences) == 9
    assert len(test.sequences) == 1


def test_preprocess_writes_frozen_bytes(capsys, tmp_path):
    # "h" occurs only in a line the split sends to test, "e e e" and "x x"
    # collapse to one token and are dropped, "f" and "q" are rare, and one
    # line is blank.
    corpus_path = write_corpus_text(tmp_path, (
        "a b b c a d\nb c c a\ne e e\n\na b c d a b\nc a b a c\nd d c b a f\nb a d c\n"
        "g a g b\nx x\na c b d\nc d a b c\nq a b\nh b h a\n"
    ))
    code, stdout, err = run(capsys, ["preprocess", corpus_path, "--output",
                                     str(tmp_path / "cache.json"), "--collapse-repeats",
                                     "--rare-min-count", "2", "--split", "0.7"])
    assert code == 0, err
    assert "kept 11 sequences vocab=9 dropped=2" in stdout
    assert "h" not in load_corpus_cache(str(tmp_path / "cache.train.json")).vocab.tokens
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("cache.json", "cache.train.json", "cache.test.json")}
    assert digests == {
        "cache.json": "8847379fd35dd0ad06fdfb9e07bb87d92afd712899565a199a0b61f3377f9458",
        "cache.train.json": "25a06ad6053884a172ffd69e13663167bc1b30a83ff557609ff3dd87f839d902",
        "cache.test.json": "646517b866f24073251602f88c5119e3eafc222badf8e93d764a7262344a0f72",
    }


def test_preprocess_empty_file_exits_two(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "\n\n")
    code, _, _ = run(
        capsys, ["preprocess", corpus_path, "--output", str(tmp_path / "c.json")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# train


def test_train_writes_model_and_report(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "a b a b a a b\nb a b b a\n")
    out = str(tmp_path / "model.json")
    code, stdout, _ = run(capsys, ["train", corpus_path, "--output", out, "--k", "2"])
    assert code == 0
    assert stdout.count("\n") == 1
    assert "perplexity=" in stdout
    model = load_model(out)
    assert model.w.k == 2
    lines = (tmp_path / "model.report.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["block"] == "init"
    assert len(records) == 4  # init + three half iterations for rounds=1.5


def test_train_half_round_keeps_empirical_matrix(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "a b a b a a b\nb a b b a\n")
    out = str(tmp_path / "model.json")
    code, _, _ = run(
        capsys, ["train", corpus_path, "--output", out, "--k", "2", "--rounds", "0.5"]
    )
    assert code == 0
    model = load_model(out)
    from lamp.data import load_corpus

    empirical = empirical_transition_matrix(load_corpus(corpus_path), 2)
    assert np.array_equal(model.P.dense(), empirical.dense())


def test_train_weight_only_never_touches_matrix(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "a b a b a a b\nb a b b a\n")
    out = str(tmp_path / "model.json")
    code, _, _ = run(
        capsys,
        ["train", corpus_path, "--output", out, "--k", "2", "--rounds", "2", "--weight-only"],
    )
    assert code == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "model.report.jsonl").read_text().splitlines()
    ]
    assert {r["block"] for r in records} == {"init", "w"}


#: A corpus whose training drives three entries of P below 1e-22, which
#: the snap after the last P half keeps (dropping them would lower the
#: log-likelihood by rounding), and ends with a zero lag weight and the empty
#: rows of d and e, which only end sequences.
GOLDEN_CORPUS = (
    "a b c a b c a b d\n"
    "b c a b c a b c e\n"
    "c a b c a a b c a b\n"
    "a b c b a c a b c d\n"
)


def test_train_writes_frozen_bytes(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, GOLDEN_CORPUS)
    out = tmp_path / "model.json"
    code, _, err = run(capsys, ["train", corpus_path, "--output", str(out), "--k", "3",
                                "--rounds", "2.5"])
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert doc["w"][-1] == 0.0
    assert all(prob > 0.0 for _, _, prob in doc["matrix"])
    pairs = {(r, c) for r, c, _ in doc["matrix"]}
    assert not pairs & {(0, 3), (1, 1), (1, 4)}  # near zero; the snap drops them within rounding
    assert {t[0] for t in doc["matrix"]} == {0, 1, 2}
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("model.json", "model.report.jsonl")}
    assert digests == {
        "model.json": "e08984e0875b523289bf5c6c6a0a94a37e7ed7780aedbe217b43a832f7101132",
        "model.report.jsonl": "0eebed02e6ee6e7c80c7375efa785be6fa66de62e1c8e8be1c8fffb716fc90a8",
    }


def test_train_manifest_records_each_half(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, GOLDEN_CORPUS)
    out = str(tmp_path / "model.json")
    code, stdout, err = run(capsys, ["train", corpus_path, "--output", out, "--k", "3",
                                     "--rounds", "2.5"])
    assert code == 0, err
    assert len(stdout.splitlines()) == 1
    halves = json.loads(open(out + ".manifest.json").read())["summary"]["halves"]
    assert [h["block"] for h in halves] == ["w", "P", "w", "P", "w"]
    for half in halves:
        assert set(half) == {"block", "iterations", "capped", "converged"}
        assert half["capped"] is False
        assert half["converged"] is True
        assert half["iterations"] >= (1 if half["block"] == "P" else 0)


def test_train_manifest_marks_halves_that_stop_short_of_the_tolerance(capsys, tmp_path):
    # At a tolerance of 1e-300 only a half whose residual is exactly 0
    # converges; `converged` is the report's residual at most the tolerance.
    corpus_path = write_corpus_text(tmp_path, GOLDEN_CORPUS)
    out = str(tmp_path / "model.json")
    code, _, err = run(capsys, ["train", corpus_path, "--output", out, "--k", "3",
                                "--rounds", "2.5", "--kkt-tol", "1e-300"])
    assert code == 0, err
    halves = json.loads(open(out + ".manifest.json").read())["summary"]["halves"]
    residuals = [json.loads(line)["kkt_residual"] for line in open(str(tmp_path / "model.report.jsonl"))]
    assert [h["converged"] for h in halves] == [r <= 1e-300 for r in residuals[1:]]
    assert {h["converged"] for h in halves} == {True, False}


def test_every_w_half_of_an_eight_lag_corpus_converges_within_ten_iterations(capsys, tmp_path):
    # Newton steps on the full Hessian of the lag weights reach kkt_tol in a
    # few iterations, however strongly the eight lags' columns correlate.
    rng = np.random.default_rng(1)
    model = make_model(HistoryDistribution.geometric(0.8, 8).weights, random_stochastic_matrix(rng, 12))
    lines = [" ".join(f"s{x}" for x in generate(model, int(start), 200, seed))
             for seed, start in enumerate(rng.integers(12, size=6))]
    corpus_path = write_corpus_text(tmp_path, "\n".join(lines) + "\n")
    out = str(tmp_path / "model.json")
    code, _, err = run(capsys, ["train", corpus_path, "--output", out, "--k", "8", "--rounds", "2.5"])
    assert code == 0, err
    halves = json.loads(open(out + ".manifest.json").read())["summary"]["halves"]
    records = [json.loads(line) for line in open(str(tmp_path / "model.report.jsonl"))]
    w_halves = [(h, r) for h, r in zip(halves, records[1:]) if h["block"] == "w"]
    assert len(w_halves) == 3
    for half, record in w_halves:
        assert record["block"] == "w"
        assert half["iterations"] <= 10
        assert record["kkt_residual"] <= 1e-6


def test_train_reads_text_whose_first_token_starts_with_a_brace(capsys, tmp_path):
    # Only '{"' marks a corpus cache; a text token may start with '{'.
    corpus_path = write_corpus_text(tmp_path, "{x a b\na b a\n", name="c.txt")
    out = str(tmp_path / "m.json")
    code, _, err = run(capsys, ["train", corpus_path, "--output", out, "--k", "2"])
    assert code == 0, err
    assert "{x" in load_model(out).vocab.tokens


def test_train_accepts_cache_input(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "a b a b a\n")
    cache = str(tmp_path / "cache.json")
    run(capsys, ["preprocess", corpus_path, "--output", cache])
    code, _, _ = run(
        capsys, ["train", cache, "--output", str(tmp_path / "m.json"), "--k", "1"]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_uniform_model_has_perplexity_vocab_size(capsys, tmp_path):
    model = make_model((1.0,), np.full((5, 5), 0.2))
    model_path = str(tmp_path / "uniform.json")
    save_model(model, model_path)
    corpus_path = write_corpus_text(tmp_path, "s0 s1 s2 s3 s4 s0\n")
    out = str(tmp_path / "eval.json")
    code, stdout, _ = run(capsys, ["evaluate", model_path, corpus_path, "--output", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["perplexity"] == pytest.approx(5.0, abs=1e-9)
    assert doc["impossible_transitions"] == 0
    # the stdout number is the JSON rendering of the stored value
    assert f"perplexity={json.dumps(doc['perplexity'])}" in stdout


def test_evaluate_worked_example(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    corpus_path = write_corpus_text(tmp_path, "s0 s1 s1\n")
    out = str(tmp_path / "eval.json")
    code, _, _ = run(capsys, ["evaluate", model_path, corpus_path, "--output", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["perplexity"] == pytest.approx(4.385290096535146, abs=1e-4)
    assert doc["log_likelihood"] == pytest.approx(math.log(0.1) + math.log(0.52), rel=1e-12)
    assert doc["scored_transitions"] == 2


def test_evaluate_two_matrix_model_worked_example(capsys, tmp_path):
    # Lag 1 reads the worked matrix and lag 2 the swap, each at weight 0.5.
    # On s0 s1 s0 s0 the positions score 0.5 * 0.1 + 0.5 * 1 (lag 2 clamped
    # to s0), 0.5 * 0.2 + 0.5 * 0 and 0.5 * 0.9 + 0.5 * 1.  Every state of
    # every mixture is above the floor, so flooring changes no term.
    model_path, corpus_path = save_two_matrix_model(tmp_path), worked_corpus(tmp_path)
    for flags in ([], ["--floor"]):
        out = str(tmp_path / "eval.json")
        code, stdout, err = run(capsys, ["evaluate", model_path, corpus_path, "--output", out, *flags])
        assert code == 0, err
        doc = json.loads(open(out).read())
        assert (doc["scored_transitions"], doc["impossible_transitions"]) == (3, 0)
        assert doc["log_likelihood"] == pytest.approx(math.log(0.55 * 0.1 * 0.95), rel=1e-12)
        assert doc["perplexity"] == pytest.approx((0.55 * 0.1 * 0.95) ** (-1 / 3), rel=1e-12)
        assert f"perplexity={json.dumps(doc['perplexity'])}" in stdout


def test_evaluate_floor_toggles_impossible_transitions(capsys, tmp_path):
    model = make_model((1.0,), [[1.0, 0.0], [0.5, 0.5]])
    model_path = str(tmp_path / "hard.json")
    save_model(model, model_path)
    corpus_path = write_corpus_text(tmp_path, "s0 s1\n")

    out = str(tmp_path / "eval.json")
    code, _, _ = run(capsys, ["evaluate", model_path, corpus_path, "--output", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["perplexity"] == math.inf
    assert doc["impossible_transitions"] == 1

    out2 = str(tmp_path / "eval_floor.json")
    code, _, _ = run(
        capsys, ["evaluate", model_path, corpus_path, "--output", out2, "--floor"]
    )
    assert code == 0
    doc2 = json.loads(open(out2).read())
    assert doc2["perplexity"] == pytest.approx(1e10)
    assert doc2["floor"] == 1e-10


def test_evaluate_held_out_empty_row_is_impossible(capsys, tmp_path):
    # c only ends training sequences, so its trained row is empty: held-out
    # scoring gives it zero mass, while sampling from it is a numeric error.
    model_path = str(tmp_path / "m.json")
    train = write_corpus_text(tmp_path, "a b c\na b a b c\n")
    code, _, err = run(capsys, ["train", train, "--output", model_path, "--k", "2"])
    assert code == 0, err
    out = tmp_path / "eval.json"
    held_out = write_corpus_text(tmp_path, "c a b\n", name="test.txt")
    code, stdout, err = run(capsys, ["evaluate", model_path, held_out, "--output", str(out)])
    assert code == 0, err
    assert '"perplexity":Infinity' in out.read_text()
    doc = json.loads(out.read_text())
    assert (doc["impossible_transitions"], doc["scored_transitions"]) == (1, 2)
    assert stdout.startswith("evaluate: perplexity=Infinity impossible=1 ")
    code, _, err = run(capsys, ["generate", model_path, "--start", "c",
                                "--output", str(tmp_path / "g.json")])
    assert code == 3
    assert "state 'c' has no outgoing transitions" in err


# ---------------------------------------------------------------------------
# generate


def test_generate_length_one_prints_start_token(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    out = str(tmp_path / "gen.json")
    code, stdout, _ = run(capsys, ["generate", model_path, "--length", "1", "--output", out])
    assert code == 0
    assert stdout.strip() == "s0"
    doc = json.loads(open(out).read())
    assert doc["ids"] == [0]
    assert doc["tokens"] == ["s0"]


def test_generate_start_flag_and_determinism(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    argv = ["generate", model_path, "--start", "s1", "--length", "5", "--seed", "3"]
    code, stdout_a, _ = run(capsys, argv + ["--output", out_a])
    assert code == 0
    tokens = stdout_a.split()
    assert len(tokens) == 5
    assert tokens[0] == "s1"
    run(capsys, argv + ["--output", out_b])
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_generate_matches_library_sampler(capsys, tmp_path):
    model_path, model = save_worked_model(tmp_path)
    out = str(tmp_path / "gen.json")
    run(
        capsys,
        ["generate", model_path, "--length", "8", "--seed", "7", "--output", out],
    )
    doc = json.loads(open(out).read())
    assert doc["ids"] == generate(model, 0, 8, 7).tolist()


def test_generate_unknown_start_exits_two(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    code, _, _ = run(
        capsys,
        ["generate", model_path, "--start", "nope", "--output", str(tmp_path / "g.json")],
    )
    assert code == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_stationary_worked_example(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    out = str(tmp_path / "pi.json")
    code, stdout, _ = run(capsys, ["analyze", "stationary", model_path, "--output", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["stationary"] == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
    assert stdout.startswith("analyze stationary:")
    assert stdout.count("\n") == 1


def test_analyze_stationary_non_ergodic_exits_three(capsys, tmp_path):
    model = make_model((1.0,), [[1.0, 0.0], [0.0, 1.0]])
    model_path = str(tmp_path / "frozen.json")
    save_model(model, model_path)
    code, _, err = run(
        capsys, ["analyze", "stationary", model_path, "--output", str(tmp_path / "o.json")]
    )
    assert code == 3
    assert "numeric error" in err


def test_analyze_mixing_worked_example(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    out = str(tmp_path / "mix.json")
    code, _, _ = run(
        capsys, ["analyze", "mixing", model_path, "--output", out, "--delta", "0.01"]
    )
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["mixing_time"] == 12


def test_analyze_exponent_single_lag_rate_is_one(capsys, tmp_path):
    out = str(tmp_path / "exp.json")
    code, stdout, _ = run(
        capsys,
        ["analyze", "exponent", "--w", "1", "--steps", "500", "--seed", "0", "--output", out],
    )
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["rate"] == 1.0
    assert doc["predicted"] == 1.0
    assert doc["w"] == [1.0]
    assert "rate=1.0" in stdout


def test_analyze_exponent_from_model_with_csv(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    out = str(tmp_path / "exp.json")
    csv_path = str(tmp_path / "trace.csv")
    code, _, _ = run(
        capsys,
        [
            "analyze", "exponent", "--model", model_path,
            "--steps", "200", "--seed", "5",
            "--output", out, "--trace-csv", csv_path,
        ],
    )
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["w"] == [0.6, 0.4]
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "t,e_t"
    assert lines[1] == "1,1"
    assert len(lines) == 201


def test_analyze_exponent_requires_weights(capsys, tmp_path):
    code, _, _ = run(
        capsys, ["analyze", "exponent", "--output", str(tmp_path / "o.json")]
    )
    assert code == 2


def test_analyze_bound_worked_example(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path, w=(0.5, 0.5))
    out = str(tmp_path / "bound.json")
    code, stdout, _ = run(
        capsys,
        [
            "analyze", "bound", model_path, "--output", out,
            "--delta", "0.01", "--epsilon", "1.0", "--T", "100",
        ],
    )
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["bound"] == 100
    assert doc["chain_mixing_time"] == 12
    assert doc["C"] == pytest.approx(0.3, abs=1e-12)
    assert 1.0 - doc["confidence"] == pytest.approx(3.6105e-13, rel=1e-3)
    assert "bound=100" in stdout


def ring_matrix(n):
    """Ring with a skip edge and a self-loop: slow to mix, aperiodic."""
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] += 0.8
        P[i, (i + 2) % n] += 0.15
        P[i, i] += 0.05
    return P


def test_analyze_writes_frozen_bytes(capsys, tmp_path, monkeypatch):
    # Relative paths: the documents record the model path.
    monkeypatch.chdir(tmp_path)
    save_model(make_model((0.7, 0.3), ring_matrix(8)), "ring.json")
    commands = {
        "pi.json": ["analyze", "stationary", "ring.json"],
        "mix.json": ["analyze", "mixing", "ring.json", "--delta", "0.05"],
        "bound.json": ["analyze", "bound", "ring.json", "--delta", "0.05", "--epsilon", "0.5",
                       "--T", "20"],
        "exp.json": ["analyze", "exponent", "--model", "ring.json", "--steps", "5000",
                     "--seed", "3"],
    }
    for name, argv in commands.items():
        code, _, err = run(capsys, argv + ["--output", name])
        assert code == 0, err
    assert json.loads((tmp_path / "mix.json").read_text())["mixing_time"] == 45
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in commands}
    assert digests == {
        "pi.json": "859073865e5137c7c839f15d7a3f72cd3ffaad93a3bde12389db56e1f3d00e2b",
        "mix.json": "b5b2ea1ffdf438646b17afa4219892ca7ab6f689d10d662d36d9814bcc4f8f77",
        "bound.json": "8b0510ba3e6973e0f52e0026bc98d7eafed2acf3a9588b3f04d5cedc87632c96",
        "exp.json": "3858266e87a5a19e9161c69f89f2309a3e61cd21279ff27779c858524e371e00",
    }


def test_evaluate_generate_and_baseline_write_frozen_bytes(capsys, tmp_path, monkeypatch):
    # Relative paths: the documents record their input paths.  On the ring
    # model the held-out s5 -> s1 is impossible, so --floor changes the score.
    monkeypatch.chdir(tmp_path)
    save_model(make_model((0.7, 0.3), ring_matrix(8)), "ring.json")
    write_corpus_text(tmp_path, "s0 s1 s2 s4 s5 s1\ns3 s4 s6 s0 s0 s1\n", name="held.txt")
    write_corpus_text(tmp_path, GOLDEN_CORPUS, name="train.txt")
    write_corpus_text(tmp_path, "a b c a d\nc b a b c e\n", name="test.txt")
    commands = {
        "eval.json": ["evaluate", "ring.json", "held.txt"],
        "eval_floor.json": ["evaluate", "ring.json", "held.txt", "--floor"],
        "gen.json": ["generate", "ring.json", "--start", "s3", "--length", "40", "--seed", "9"],
        "scores.json": ["baseline", "train.txt", "--order", "3", "--smoothing", "kneser_ney",
                        "--eval-corpus", "test.txt", "--model-output", "ngram.json"],
    }
    for name, argv in commands.items():
        code, _, err = run(capsys, argv + ["--output", name])
        assert code == 0, err
    assert json.loads((tmp_path / "eval.json").read_text())["impossible_transitions"] == 1
    assert json.loads((tmp_path / "eval_floor.json").read_text())["impossible_transitions"] == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in [*commands, "ngram.json"]}
    assert digests == {
        "eval.json": "e6b20fe05c9aeaa72e55ff2c1065428e012def17a290faee40e9dd6ca113bd1a",
        "eval_floor.json": "79e9c6e60b33ec9896c7d08a4d7051266b67370361d336bef6eda75b44fb8ce9",
        "gen.json": "59676dd62008add285518b8d5ca3b24fd27d3c9e58f43779343f599a855fb202",
        "scores.json": "a8aee9048a73f6adc89c6100bd5f9926f7483ddf1ceb3dd91b39e7a4da425921",
        "ngram.json": "a529881973b07a368000597a14928f2fb812e307e087e7025dfac68591f07cf9",
    }


# ---------------------------------------------------------------------------
# baseline


def test_baseline_order_one_matches_single_lag_model(capsys, tmp_path):
    corpus_path = write_corpus_text(tmp_path, "a b a b a a b\nb a b b a\nb b a a\n")
    scores = str(tmp_path / "scores.json")
    code, stdout, _ = run(
        capsys, ["baseline", corpus_path, "--order", "1", "--output", scores]
    )
    assert code == 0
    assert stdout.count("\n") == 1

    model_out = str(tmp_path / "m.json")
    run(capsys, ["train", corpus_path, "--output", model_out, "--k", "1", "--rounds", "0.5"])
    eval_out = str(tmp_path / "eval.json")
    run(capsys, ["evaluate", model_out, corpus_path, "--output", eval_out])

    baseline_ppl = json.loads(open(scores).read())["train_perplexity"]
    lamp_ppl = json.loads(open(eval_out).read())["perplexity"]
    assert baseline_ppl == pytest.approx(lamp_ppl, rel=1e-9)


def test_baseline_kneser_ney_survives_unseen_bigrams(capsys, tmp_path):
    train_path = write_corpus_text(tmp_path, "a b c a b c\nb c a\n", name="train.txt")
    eval_path = write_corpus_text(tmp_path, "c b a\n", name="eval.txt")

    naive_out = str(tmp_path / "naive.json")
    code, _, _ = run(
        capsys,
        ["baseline", train_path, "--order", "2", "--output", naive_out,
         "--eval-corpus", eval_path],
    )
    assert code == 0
    naive = json.loads(open(naive_out).read())
    assert naive["eval_perplexity"] == math.inf

    kn_out = str(tmp_path / "kn.json")
    model_out = str(tmp_path / "kn_model.json")
    code, _, _ = run(
        capsys,
        ["baseline", train_path, "--order", "2", "--smoothing", "kneser_ney",
         "--output", kn_out, "--eval-corpus", eval_path, "--model-output", model_out],
    )
    assert code == 0
    kn = json.loads(open(kn_out).read())
    assert kn["eval_perplexity"] < math.inf
    reloaded = load_ngram(model_out)
    assert reloaded.smoothing == "kneser_ney"


# ---------------------------------------------------------------------------
# Manifests and determinism


def test_manifest_records_run_metadata(capsys, tmp_path):
    model_path, _ = save_worked_model(tmp_path)
    corpus_path = write_corpus_text(tmp_path, "s0 s1 s1\n")
    out = str(tmp_path / "eval.json")
    run(capsys, ["evaluate", model_path, corpus_path, "--output", out])
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["command"] == "evaluate"
    assert manifest["version"] == lamp.__version__
    assert manifest["outputs"] == [out]
    assert set(manifest["input_hashes"]) == {model_path, corpus_path}
    for digest in manifest["input_hashes"].values():
        assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    doc = json.loads(open(out).read())
    assert manifest["summary"]["perplexity"] == doc["perplexity"]
    assert manifest["wall_time_s"] >= 0.0


def test_manifest_hashes_an_input_that_output_overwrites(capsys, tmp_path):
    # The hash is of the bytes the command read, taken before its first
    # write, not of the cache that replaced them.
    path = write_corpus_text(tmp_path, "a b a\nb a b\n", "c.txt")
    with open(path, "rb") as fh:
        read = hashlib.sha256(fh.read()).hexdigest()
    code, _, _ = run(capsys, ["preprocess", path, "--output", path])
    assert code == 0
    assert load_corpus_cache(path).vocab.tokens  # the cache replaced the text
    manifest = json.loads(open(path + ".manifest.json").read())
    assert manifest["input_hashes"] == {path: read}


def test_every_command_writes_exactly_one_manifest(capsys, tmp_path):
    # Every command form: exit 0, one stdout line, one manifest naming the
    # command with --output first, every listed output on disk, a hash of
    # every file read, and each "=" value on the line rendering a value of
    # the document or the manifest summary (numbers as JSON, words as is).
    corpus = write_corpus_text(tmp_path, "a b a b c a\nb a c a b\nc a b a\na c b a b\n")
    model, _ = save_worked_model(tmp_path)
    t = {name: str(tmp_path / name) for name in (
        "c.json", "s.json", "s.train.json", "s.test.json", "m.json", "m.report.jsonl", "e.json",
        "ef.json", "g.json", "pi.json", "mix.json", "exp.json", "trace.csv", "bound.json",
        "b.json", "ng.json")}
    # (command, argv, files read, outputs with --output first)
    forms = [
        ("preprocess", ["preprocess", corpus, "--output", t["c.json"]], [corpus], ["c.json"]),
        ("preprocess", ["preprocess", corpus, "--output", t["s.json"], "--split", "0.5"], [corpus],
         ["s.json", "s.train.json", "s.test.json"]),
        ("train", ["train", t["s.train.json"], "--output", t["m.json"], "--k", "2"],
         [t["s.train.json"]], ["m.json", "m.report.jsonl"]),
        ("evaluate", ["evaluate", t["m.json"], t["s.test.json"], "--output", t["e.json"]],
         [t["m.json"], t["s.test.json"]], ["e.json"]),
        ("evaluate", ["evaluate", t["m.json"], t["s.test.json"], "--output", t["ef.json"], "--floor"],
         [t["m.json"], t["s.test.json"]], ["ef.json"]),
        ("generate", ["generate", t["m.json"], "--length", "5", "--output", t["g.json"]],
         [t["m.json"]], ["g.json"]),
        ("analyze stationary", ["analyze", "stationary", model, "--output", t["pi.json"]], [model],
         ["pi.json"]),
        ("analyze mixing", ["analyze", "mixing", model, "--output", t["mix.json"]], [model],
         ["mix.json"]),
        ("analyze exponent", ["analyze", "exponent", "--model", model, "--steps", "50",
                              "--output", t["exp.json"], "--trace-csv", t["trace.csv"]], [model],
         ["exp.json", "trace.csv"]),
        ("analyze bound", ["analyze", "bound", model, "--output", t["bound.json"]], [model],
         ["bound.json"]),
        ("baseline", ["baseline", t["s.train.json"], "--order", "2", "--output", t["b.json"],
                      "--eval-corpus", t["s.test.json"], "--model-output", t["ng.json"]],
         [t["s.train.json"], t["s.test.json"]], ["b.json", "ng.json"]),
    ]
    for command, argv, inputs, outputs in forms:
        before = set(tmp_path.glob("*.manifest.json"))
        code, stdout, err = run(capsys, argv)
        assert code == 0, (command, err)
        assert stdout.count("\n") == 1, command
        output = t[outputs[0]]
        assert set(tmp_path.glob("*.manifest.json")) - before == {tmp_path / (outputs[0] + ".manifest.json")}
        manifest = json.loads(open(output + ".manifest.json").read())
        assert manifest["command"] == command
        assert manifest["outputs"] == [t[name] for name in outputs]
        assert all(os.path.exists(path) for path in manifest["outputs"])
        assert set(manifest["input_hashes"]) == set(inputs), command
        values = [*json.loads(open(output).read()).values(), *manifest["summary"].values()]
        renderings = {json.dumps(v) for v in values} | {v for v in values if isinstance(v, str)}
        line = stdout.rstrip("\n")
        for at in (m.end() for m in re.finditer(r"\w=", line)):
            assert any(line.startswith(r + " ", at) or line[at:] == r for r in renderings), (
                command, line[at:])


def test_pipeline_reruns_are_byte_identical(capsys, tmp_path, monkeypatch):
    text = "a b a b c a\nb a c a b\nc a b a\n"
    outputs = {}
    for tag in ("one", "two"):
        work = tmp_path / tag
        work.mkdir()
        write_corpus_text(work, text)
        monkeypatch.chdir(work)
        run(capsys, ["preprocess", "corpus.txt", "--output", "cache.json"])
        run(capsys, ["train", "cache.json", "--output", "model.json", "--k", "2", "--seed", "0"])
        run(capsys, ["evaluate", "model.json", "cache.json", "--output", "eval.json"])
        outputs[tag] = [
            (work / name).read_bytes()
            for name in ("cache.json", "model.json", "model.report.jsonl", "eval.json")
        ]
    assert outputs["one"] == outputs["two"]
