"""Tests for corpus loading, caching, transforms, and splitting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_align_corpus, ref_apply_rare_threshold, ref_collapse_repeats, ref_project
from lamp.cli import _align_corpus
from lamp.core import Corpus, DataError, Vocabulary
from lamp.data import (
    PreprocessConfig,
    _project,
    apply_rare_threshold,
    collapse_repeats,
    decode_ids,
    encode_tokens,
    kfold_split,
    load_corpus,
    load_corpus_cache,
    preprocess,
    save_corpus_cache,
    split,
    token_counts,
)


def text_corpus(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def corpus_from_tokens(token_sequences):
    """Corpus over first-appearance ids from lists of token strings."""
    index = {}
    sequences = []
    for toks in token_sequences:
        seq = []
        for t in toks:
            if t not in index:
                index[t] = len(index)
            seq.append(index[t])
        sequences.append(seq)
    return Corpus.from_sequences(Vocabulary.from_tokens(index), sequences)


class TestLoadCorpus:
    def test_worked_example(self, tmp_path):
        corpus = load_corpus(text_corpus(tmp_path, "a b a\nc c\n"))
        assert corpus.vocab.tokens == ("a", "b", "c")
        assert [list(s) for s in corpus.sequences] == [[0, 1, 0], [2, 2]]

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = text_corpus(tmp_path, "a b\n\n   \nb a\n")
        corpus, report = load_corpus(path, return_report=True)
        assert len(corpus.sequences) == 2
        assert report.skipped_empty_lines == 2
        assert report.n_sequences == 2
        assert report.n_tokens == 4

    def test_limit(self, tmp_path):
        path = text_corpus(tmp_path, "a b\nb c\nc a\n")
        corpus = load_corpus(path, limit=2)
        assert len(corpus.sequences) == 2
        assert corpus.vocab.tokens == ("a", "b", "c")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(str(tmp_path / "absent.txt"))

    def test_no_nonempty_lines(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(text_corpus(tmp_path, "\n  \n"))

    def test_limit_validation(self, tmp_path):
        path = text_corpus(tmp_path, "a b\n")
        with pytest.raises(DataError):
            load_corpus(path, limit=0)


class TestCache:
    def test_round_trip(self, tmp_path):
        corpus = corpus_from_tokens([["a", "b", "a"], ["c", "c"]])
        path = tmp_path / "cache.json"
        save_corpus_cache(corpus, str(path))
        back = load_corpus_cache(str(path))
        assert back.vocab.tokens == corpus.vocab.tokens
        assert [list(s) for s in back.sequences] == [list(s) for s in corpus.sequences]

    def test_rare_token_preserved(self, tmp_path):
        vocab = Vocabulary.from_tokens(("a", "<RARE>"), "<RARE>")
        corpus = Corpus.from_sequences(vocab, [[0, 1, 0]])
        path = tmp_path / "cache.json"
        save_corpus_cache(corpus, str(path))
        assert load_corpus_cache(str(path)).vocab.rare_token == "<RARE>"

    def test_deterministic_bytes(self, tmp_path):
        corpus = corpus_from_tokens([["a", "b"], ["b", "a"]])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_corpus_cache(corpus, str(a))
        save_corpus_cache(corpus, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text(encoding="utf-8").endswith("\n")

    def test_malformed_cache(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"vocab\": [\"a\"]}", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus_cache(str(path))
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus_cache(str(path))


class TestTokenMapping:
    def test_encode_known(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        assert encode_tokens(vocab, ["b", "a", "b"]) == [1, 0, 1]

    def test_encode_unknown_falls_back_to_rare(self):
        vocab = Vocabulary.from_tokens(("a", "<RARE>"), "<RARE>")
        assert encode_tokens(vocab, ["a", "zzz"]) == [0, 1]

    def test_encode_unknown_without_rare_errors(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        with pytest.raises(DataError):
            encode_tokens(vocab, ["zzz"])

    def test_decode(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        assert decode_ids(vocab, [1, 0]) == ["b", "a"]
        assert decode_ids(vocab, []) == []
        with pytest.raises(DataError, match="^state id 2 out of range for vocabulary of size 2$"):
            decode_ids(vocab, [1, 2, -1])

    def test_token_counts(self):
        corpus = corpus_from_tokens([["a", "b", "a"], ["b", "c"]])
        assert token_counts(corpus).tolist() == [2, 2, 1]


class TestCollapseRepeats:
    def test_worked_example(self):
        corpus = Corpus.from_sequences(Vocabulary.from_size(2), [[0, 0, 1, 1, 0]])
        out = collapse_repeats(corpus)
        assert [list(s) for s in out.sequences] == [[0, 1, 0]]
        assert out.vocab is corpus.vocab

    def test_idempotent(self):
        corpus = Corpus.from_sequences(Vocabulary.from_size(3), [[0, 0, 2, 2, 2, 1, 0, 0]])
        once = collapse_repeats(corpus)
        twice = collapse_repeats(once)
        assert [list(s) for s in once.sequences] == [list(s) for s in twice.sequences]

    def test_run_collapses_to_single_token(self):
        corpus = Corpus.from_sequences(Vocabulary.from_size(2), [[1, 1, 1]])
        assert [list(s) for s in collapse_repeats(corpus).sequences] == [[1]]


class TestRareThreshold:
    def test_worked_example(self):
        corpus = corpus_from_tokens([["a", "b", "a", "c"]])
        out = apply_rare_threshold(corpus, min_count=2)
        assert out.vocab.tokens == ("a", "<RARE>")
        assert out.vocab.rare_token == "<RARE>"
        assert [list(s) for s in out.sequences] == [[0, 1, 0, 1]]

    def test_zero_threshold_is_identity(self):
        corpus = corpus_from_tokens([["a", "b"]])
        assert apply_rare_threshold(corpus, min_count=0) is corpus

    def test_nothing_below_threshold_is_identity(self):
        corpus = corpus_from_tokens([["a", "b", "a", "b"]])
        assert apply_rare_threshold(corpus, min_count=2) is corpus

    def test_all_tokens_rare(self):
        corpus = corpus_from_tokens([["a", "b"]])
        out = apply_rare_threshold(corpus, min_count=5)
        assert out.vocab.tokens == ("<RARE>",)
        assert [list(s) for s in out.sequences] == [[0, 0]]

    def test_existing_label_is_reused(self):
        corpus = corpus_from_tokens([["x", "<RARE>", "x", "<RARE>", "y"]])
        out = apply_rare_threshold(corpus, min_count=2)
        assert out.vocab.tokens == ("x", "<RARE>")
        assert [list(s) for s in out.sequences] == [[0, 1, 0, 1, 1]]

    def test_pre_collapse_counts_decide(self):
        # After collapsing [[a, a, b]] the token a occurs once, but the
        # pipeline thresholds on pre-collapse counts where it occurs twice.
        original = corpus_from_tokens([["a", "a", "b"]])
        pre_counts = token_counts(original)
        collapsed = collapse_repeats(original)
        kept = apply_rare_threshold(collapsed, min_count=2, counts=pre_counts)
        assert kept.vocab.tokens == ("a", "<RARE>")
        without = apply_rare_threshold(collapsed, min_count=2)
        assert without.vocab.tokens == ("<RARE>",)

    def test_custom_label(self):
        corpus = corpus_from_tokens([["a", "b", "a"]])
        out = apply_rare_threshold(corpus, min_count=2, rare_label="<unk>")
        assert out.vocab.tokens == ("a", "<unk>")

    def test_validation(self):
        corpus = corpus_from_tokens([["a", "b"]])
        with pytest.raises(DataError):
            apply_rare_threshold(corpus, min_count=-1)
        with pytest.raises(DataError):
            apply_rare_threshold(corpus, min_count=1, counts=np.array([1]))


class TestPreprocess:
    def test_replacement_then_second_collapse(self):
        corpus = corpus_from_tokens([["a", "b", "c", "a"], ["a", "a"]])
        cfg = PreprocessConfig(collapse_repeats=True, rare_min_count=2)
        out, report = preprocess(corpus, cfg)
        # b and c are rare; their replacements become adjacent and collapse.
        assert out.vocab.tokens == ("a", "<RARE>")
        assert [list(s) for s in out.sequences] == [[0, 1, 0]]
        assert report.dropped_short_sequences == 1  # [a, a] collapsed to [a]
        assert report.rare_token_types == 2
        assert report.n_sequences_in == 2
        assert report.n_sequences_out == 1
        assert report.vocab_size_in == 3
        assert report.vocab_size_out == 2

    def test_without_collapse_keeps_adjacent_rares(self):
        corpus = corpus_from_tokens([["a", "b", "c", "a"]])
        cfg = PreprocessConfig(collapse_repeats=False, rare_min_count=2)
        out, _ = preprocess(corpus, cfg)
        assert [list(s) for s in out.sequences] == [[0, 1, 1, 0]]

    def test_all_sequences_dropped(self):
        corpus = corpus_from_tokens([["a", "a", "a"]])
        cfg = PreprocessConfig(collapse_repeats=True)
        with pytest.raises(DataError):
            preprocess(corpus, cfg)

    def test_noop_config(self):
        corpus = corpus_from_tokens([["a", "b", "a"]])
        out, report = preprocess(corpus, PreprocessConfig())
        assert [list(s) for s in out.sequences] == [[0, 1, 0]]
        assert report.dropped_short_sequences == 0

    def test_config_validation_and_round_trip(self):
        with pytest.raises(DataError):
            PreprocessConfig(rare_min_count=-1)
        with pytest.raises(DataError):
            PreprocessConfig(split_fraction=1.0)
        with pytest.raises(DataError):
            PreprocessConfig(split_fraction=0.0)
        with pytest.raises(DataError):
            PreprocessConfig(rare_token_label="")
        cfg = PreprocessConfig(collapse_repeats=True, rare_min_count=3, split_fraction=0.8)
        assert PreprocessConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(DataError):
            PreprocessConfig.from_dict({"bogus": 1})


def unique_token_corpus(n_seqs=10):
    """Sequence i is [c, u{i}, c]: one shared token plus a private one."""
    return corpus_from_tokens([["c", f"u{i}", "c"] for i in range(n_seqs)])


class TestSplit:
    def test_ninety_ten(self):
        train, test = split(unique_token_corpus(10), fraction=0.9, seed=0)
        assert len(train.sequences) == 9
        assert len(test.sequences) == 1
        assert train.vocab is test.vocab

    def test_test_only_tokens_become_rare(self):
        train, test = split(unique_token_corpus(10), fraction=0.9, seed=3)
        assert test.vocab.rare_token == "<RARE>"
        rare = test.vocab.rare_id
        seq = list(test.sequences[0])
        c = test.vocab.index["c"]
        assert seq == [c, rare, c]
        # Train sequences decode back to their original tokens.
        for seq in train.sequences:
            toks = decode_ids(train.vocab, seq)
            assert toks[0] == "c" and toks[2] == "c" and toks[1].startswith("u")

    def test_deterministic(self):
        corpus = unique_token_corpus(8)
        a_train, a_test = split(corpus, fraction=0.75, seed=11)
        b_train, b_test = split(corpus, fraction=0.75, seed=11)
        assert a_train.vocab.tokens == b_train.vocab.tokens
        assert [list(s) for s in a_train.sequences] == [list(s) for s in b_train.sequences]
        assert [list(s) for s in a_test.sequences] == [list(s) for s in b_test.sequences]

    def test_clamping_keeps_both_sides_nonempty(self):
        corpus = corpus_from_tokens([["a", "b"], ["b", "a"]])
        for fraction in (0.05, 0.95):
            train, test = split(corpus, fraction=fraction, seed=0)
            assert len(train.sequences) == 1
            assert len(test.sequences) == 1

    def test_validation(self):
        corpus = corpus_from_tokens([["a", "b"]])
        with pytest.raises(DataError):
            split(corpus, fraction=0.5, seed=0)
        two = corpus_from_tokens([["a", "b"], ["b", "a"]])
        with pytest.raises(DataError):
            split(two, fraction=0.0, seed=0)
        with pytest.raises(DataError):
            split(two, fraction=1.0, seed=0)


class TestKfoldSplit:
    def test_partition(self):
        corpus = unique_token_corpus(10)
        pairs = kfold_split(corpus, n_folds=5, seed=2)
        assert len(pairs) == 5
        test_names = []
        for train, test in pairs:
            assert len(test.sequences) == 2
            assert len(train.sequences) == 8
            assert train.vocab is test.vocab
            for seq in test.sequences:
                toks = decode_ids(test.vocab, seq)
                test_names.append(toks[1])
        # Every private token appears as a rare stand-in exactly once.
        assert sorted(test_names) == ["<RARE>"] * 10

    def test_ten_folds_cover_each_sequence_once(self):
        corpus = corpus_from_tokens(
            [["a", "b"], ["b", "a"], ["a", "a"], ["b", "b"], ["a", "b"],
             ["b", "a"], ["a", "a"], ["b", "b"], ["a", "b"], ["b", "a"]]
        )
        pairs = kfold_split(corpus, n_folds=10, seed=0)
        assert len(pairs) == 10
        assert all(len(test.sequences) == 1 for _, test in pairs)
        assert sum(len(train.sequences) for train, _ in pairs) == 90

    def test_validation(self):
        corpus = corpus_from_tokens([["a", "b"], ["b", "a"]])
        with pytest.raises(DataError):
            kfold_split(corpus, n_folds=1)
        with pytest.raises(DataError):
            kfold_split(corpus, n_folds=3)


# ---------------------------------------------------------------------------
# Flat storage against the per-sequence references


@st.composite
def corpora(draw, min_sequences=0):
    """Up to eight sequences of lengths 1 to 6 over up to six tokens; the
    rare marker may be unset, an ordinary token or the label "<RARE>"."""
    n = draw(st.integers(1, 6))
    tokens = [f"t{i}" for i in range(n)]
    rare = draw(st.sampled_from([None, "t0", "<RARE>"]))
    if rare == "<RARE>":
        tokens[-1] = rare
    seqs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
                         min_size=min_sequences, max_size=8))
    return Corpus.from_sequences(Vocabulary.from_tokens(tokens, rare), seqs)


def assert_same_corpus(got, want):
    assert got.vocab.tokens == want.vocab.tokens
    assert got.vocab.rare_token == want.vocab.rare_token
    assert [s.tolist() for s in got.sequences] == [s.tolist() for s in want.sequences]
    for arr in (got.tokens, got.offsets):
        assert arr.dtype == np.int64 and not arr.flags.writeable


def outcome(fn, *args):
    """``fn(*args)``, or DataError when it raises one."""
    try:
        return fn(*args)
    except DataError:
        return DataError


class TestFlatStorage:
    def test_sequences_are_read_only_views(self):
        corpus = Corpus.from_sequences(Vocabulary.from_size(3), [[0, 1], [2], [1, 1, 0]])
        assert corpus.offsets.tolist() == [0, 2, 3, 6]
        assert [s.tolist() for s in corpus.sequences] == [[0, 1], [2], [1, 1, 0]]
        assert all(np.shares_memory(s, corpus.tokens) for s in corpus.sequences)
        assert not any(s.flags.writeable for s in corpus.sequences)
        assert [s.tolist() for s in corpus.take([2, 0]).sequences] == [[1, 1, 0], [0, 1]]
        assert len(corpus.take([])) == 0

    def test_validation_names_the_first_bad_sequence(self):
        v = Vocabulary.from_size(2)
        for seqs, message in (
            ([[0], [1, 5], []], "sequence 1 contains a state id outside"),
            ([[0], [], [1, 5]], "sequence 1 is empty"),
            ([[-1]], "sequence 0 contains a state id outside"),
        ):
            with pytest.raises(DataError, match=message):
                Corpus.from_sequences(v, seqs)
        with pytest.raises(DataError, match="offsets"):
            Corpus(v, np.array([0, 1]), np.array([0, 3]))
        with pytest.raises(DataError, match="flat list"):
            Corpus.from_sequences(v, [[0, 1], [[0], [1]]])

    @settings(max_examples=200, deadline=None)
    @given(corpora())
    def test_collapse_repeats_matches_reference(self, corpus):
        assert_same_corpus(collapse_repeats(corpus), ref_collapse_repeats(corpus))

    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.integers(0, 4), st.sampled_from(["<RARE>", "t0"]), st.data())
    def test_apply_rare_threshold_matches_reference(self, corpus, min_count, label, data):
        counts = data.draw(st.none() | st.lists(st.integers(0, 5), min_size=len(corpus.vocab),
                                                max_size=len(corpus.vocab)))
        counts = None if counts is None else np.array(counts)
        assert_same_corpus(apply_rare_threshold(corpus, min_count, label, counts),
                           ref_apply_rare_threshold(corpus, min_count, label, counts))

    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.data())
    def test_project_matches_reference(self, corpus, data):
        side = data.draw(st.lists(st.sampled_from("tx-"), min_size=len(corpus),
                                  max_size=len(corpus)))
        train_idx = [i for i, c in enumerate(side) if c == "t"]
        test_idx = [i for i, c in enumerate(side) if c == "x"]
        got = outcome(_project, corpus, np.array(train_idx, dtype=np.int64),
                      np.array(test_idx, dtype=np.int64), "<RARE>")
        want = outcome(ref_project, corpus, train_idx, test_idx)
        if want is DataError:
            assert got is DataError
        else:
            for g, w in zip(got, want):
                assert_same_corpus(g, w)
            assert got[0].vocab is got[1].vocab

    @settings(max_examples=100, deadline=None)
    @given(corpora(min_sequences=2), st.floats(0.05, 0.95), st.integers(0, 50), st.data())
    def test_splits_match_reference(self, corpus, fraction, seed, data):
        n = len(corpus)
        order = np.random.default_rng(seed).permutation(n)
        n_train = min(max(int(fraction * n), 1), n - 1)
        want = ref_project(corpus, sorted(int(i) for i in order[:n_train]),
                           sorted(int(i) for i in order[n_train:]))
        for g, w in zip(split(corpus, fraction, seed), want):
            assert_same_corpus(g, w)
        n_folds = data.draw(st.integers(2, n))
        bounds = np.linspace(0, n, n_folds + 1).astype(int)
        for f, pair in enumerate(kfold_split(corpus, n_folds, seed)):
            test_idx = sorted(int(i) for i in order[bounds[f] : bounds[f + 1]])
            want = ref_project(corpus, sorted(set(range(n)) - set(test_idx)), test_idx)
            for g, w in zip(pair, want):
                assert_same_corpus(g, w)

    @settings(max_examples=200, deadline=None)
    @given(corpora(), st.data())
    def test_align_corpus_matches_reference(self, corpus, data):
        tokens = data.draw(st.lists(st.sampled_from([*corpus.vocab.tokens, "u0", "u1"]),
                                    min_size=1, max_size=8, unique=True))
        rare = data.draw(st.none() | st.sampled_from(tokens))
        vocab = Vocabulary.from_tokens(tokens, rare)
        try:
            want = ref_align_corpus(corpus, vocab)
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc).split()[1]):
                _align_corpus(corpus, vocab)
        else:
            assert_same_corpus(_align_corpus(corpus, vocab), want)
