"""Tests for the n-gram baselines: maximum-likelihood counts, Kneser-Ney
smoothing against an independently written recursion, and protocol parity
with the lagged model."""

import json
import math
import re
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_corpus,
    make_model,
    random_sequences,
    ref_ngram_conditional,
    ref_ngram_counts,
)

from lamp.core import (
    Corpus,
    DataError,
    LogLikelihood,
    ScoredPositions,
    SparseStochasticMatrix,
    Vocabulary,
    VocabularyMismatch,
    log_likelihood,
)
from lamp.baselines import (
    NgramModel,
    fit_kneser_ney,
    fit_naive_ngram,
    load_ngram,
    ngram_from_dict,
    ngram_log_likelihood,
    ngram_perplexity,
    ngram_to_dict,
    save_ngram,
)


def corpus_of(sequences, n):
    return Corpus.from_sequences(Vocabulary.from_size(n), sequences)


def kn_oracle(sequences, order, D, V):
    """Textbook interpolated Kneser-Ney over truncated contexts, written
    directly from the recursion with flat counters."""
    raw = [Counter() for _ in range(order + 1)]
    for seq in sequences:
        for j in range(1, len(seq)):
            m = min(j, order)
            raw[m][(tuple(seq[j - m : j]), seq[j])] += 1
    table = [Counter() for _ in range(order + 1)]
    table[order] = Counter(raw[order])
    for m in range(order - 1, -1, -1):
        lefts = defaultdict(set)
        for (ctx, y), c in table[m + 1].items():
            if c > 0:
                lefts[(ctx[1:], y)].add(ctx[0])
        cont = Counter({key: len(zs) for key, zs in lefts.items()})
        cont.update(raw[m])
        table[m] = cont

    def prob(ctx, y):
        ctx = tuple(ctx)[-order:] if len(ctx) > order else tuple(ctx)
        m = len(ctx)
        if m == 0:
            total = sum(table[0].values())
            distinct = sum(1 for c in table[0].values() if c > 0)
            return max(table[0][((), y)] - D, 0.0) / total + (
                D * distinct / total
            ) * (1.0 / V)
        n_ctx = sum(c for (cc, _), c in table[m].items() if cc == ctx)
        if n_ctx == 0:
            return prob(ctx[1:], y)
        distinct = sum(1 for (cc, _), c in table[m].items() if cc == ctx and c > 0)
        return max(table[m][(ctx, y)] - D, 0.0) / n_ctx + (
            D * distinct / n_ctx
        ) * prob(ctx[1:], y)

    return prob


class TestNaiveNgram:
    def test_worked_order_one(self):
        model = fit_naive_ngram(corpus_of([[0, 1, 0, 1, 0]], 2), order=1)
        assert model.conditional([0], 1) == 1.0
        assert model.conditional([1], 0) == 1.0
        assert model.conditional([0], 0) == 0.0

    def test_worked_order_two(self):
        model = fit_naive_ngram(corpus_of([[0, 1, 0, 1, 0]], 2), order=2)
        assert model.conditional([0, 1], 0) == 1.0
        assert model.conditional([1, 0], 1) == 1.0
        # Truncated start: position 1 trains the length-1 context (0,).
        assert model.conditional([0], 1) == 1.0

    def test_unseen_context_scores_zero(self):
        model = fit_naive_ngram(corpus_of([[0, 1]], 2), order=1)
        assert model.conditional([1], 0) == 0.0
        assert ngram_perplexity(model, corpus_of([[1, 0]], 2)) == math.inf

    def test_counts_are_ratios(self):
        rng = np.random.default_rng(0)
        seqs = random_sequences(rng, 4, 20, 12)
        corpus = corpus_of(seqs, 4)
        model = fit_naive_ngram(corpus, order=2)
        counts = defaultdict(Counter)
        for seq in seqs:
            for j in range(1, len(seq)):
                m = min(j, 2)
                counts[tuple(seq[j - m : j])][seq[j]] += 1
        for ctx, targets in counts.items():
            total = sum(targets.values())
            for y in range(4):
                assert model.conditional(ctx, y) == pytest.approx(
                    targets[y] / total, abs=1e-15
                )

    def test_seen_context_distributions_sum_to_one(self):
        rng = np.random.default_rng(1)
        corpus = corpus_of(random_sequences(rng, 5, 15, 10), 5)
        model = fit_naive_ngram(corpus, order=3)
        for ctx in list(model.counts)[:25]:
            assert model.distribution(ctx).sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_likelihood_matches_hand_computation(self):
        corpus = corpus_of([[0, 1, 1, 0], [1, 0]], 2)
        model = fit_naive_ngram(corpus, order=1)
        # Events: 0->1 once, 1->1 once, 1->0 twice, so the (1,) context
        # has three events total.
        p01, p11, p10 = 1.0, 1.0 / 3.0, 2.0 / 3.0
        want = math.log(p01) + math.log(p11) + math.log(p10) + math.log(p10)
        ll = ngram_log_likelihood(model, corpus)
        assert ll.total == pytest.approx(want, rel=1e-12)
        assert ll.scored_transitions == 4
        assert ll.impossible_transitions == 0

    def test_train_perplexity_monotone_in_order(self):
        rng = np.random.default_rng(2)
        corpus = corpus_of(random_sequences(rng, 4, 30, 15), 4)
        ppls = [
            ngram_perplexity(fit_naive_ngram(corpus, order=m), corpus)
            for m in range(1, 5)
        ]
        for lo, hi in zip(ppls[1:], ppls[:-1]):
            assert lo <= hi + 1e-12

    def test_impossible_count(self):
        model = fit_naive_ngram(corpus_of([[0, 1]], 2), order=1)
        ll = ngram_log_likelihood(model, corpus_of([[1, 0], [0, 1, 0]], 2))
        # (1,)->0 and the final (1,)->0 are unseen; 0->1 is seen.
        assert ll.impossible_transitions == 2
        assert ll.total == -math.inf

    def test_protocol_parity_with_first_order_model(self):
        # A pure lag-1 model with MLE rows scores exactly like the order-1
        # maximum-likelihood n-gram.
        rng = np.random.default_rng(3)
        seqs = random_sequences(rng, 4, 25, 12)
        corpus = corpus_of(seqs, 4)
        ngram = fit_naive_ngram(corpus, order=1)
        rows = [[] for _ in range(4)]
        for ctx, targets in ngram.counts.items():
            total = sum(targets.values())
            rows[ctx[0]] = [(y, c / total) for y, c in sorted(targets.items())]
        model = make_model([1.0], np.zeros((4, 4)))
        P = SparseStochasticMatrix.from_rows(4, rows)
        lamp_corpus = make_corpus(model.vocab, seqs)
        lamp_ll = log_likelihood(
            type(model)(w=model.w, P=P, vocab=model.vocab), lamp_corpus
        )
        ngram_ll = ngram_log_likelihood(ngram, corpus)
        assert lamp_ll.total == pytest.approx(ngram_ll.total, abs=1e-9)
        assert lamp_ll.scored_transitions == ngram_ll.scored_transitions


class TestKneserNey:
    def test_matches_independent_recursion(self):
        seqs = [[0, 1, 0, 1, 0, 2]]
        corpus = corpus_of(seqs, 3)
        model = fit_kneser_ney(corpus, order=2, discount=0.75)
        oracle = kn_oracle(seqs, 2, 0.75, 3)
        contexts = [()]
        contexts += [(a,) for a in range(3)]
        contexts += [(a, b) for a in range(3) for b in range(3)]
        for ctx in contexts:
            for y in range(3):
                assert model.conditional(ctx, y) == pytest.approx(
                    oracle(ctx, y), abs=1e-12
                )

    def test_matches_recursion_on_random_corpora(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            seqs = random_sequences(rng, n, 10, 8)
            corpus = corpus_of(seqs, n)
            order = int(rng.integers(1, 4))
            D = float(rng.uniform(0.1, 0.9))
            model = fit_kneser_ney(corpus, order=order, discount=D)
            oracle = kn_oracle(seqs, order, D, n)
            for _ in range(20):
                m = int(rng.integers(0, order + 1))
                ctx = tuple(int(x) for x in rng.integers(0, n, size=m))
                y = int(rng.integers(0, n))
                assert model.conditional(ctx, y) == pytest.approx(
                    oracle(ctx, y), abs=1e-12
                )

    def test_conditionals_sum_to_one(self):
        rng = np.random.default_rng(5)
        n = 5
        corpus = corpus_of(random_sequences(rng, n, 12, 9), n)
        model = fit_kneser_ney(corpus, order=3, discount=0.6)
        contexts = [()]
        contexts += [(int(a),) for a in rng.integers(0, n, size=6)]
        contexts += [tuple(int(x) for x in rng.integers(0, n, size=2)) for _ in range(6)]
        contexts += [tuple(int(x) for x in rng.integers(0, n, size=3)) for _ in range(6)]
        for ctx in contexts:
            assert model.distribution(ctx).sum() == pytest.approx(1.0, abs=1e-12)

    def test_strictly_positive(self):
        corpus = corpus_of([[0, 1, 0]], 3)  # state 2 never appears
        model = fit_kneser_ney(corpus, order=2)
        for ctx in [(), (2,), (2, 2), (0, 1)]:
            for y in range(3):
                assert model.conditional(ctx, y) > 0.0

    def test_unseen_context_backs_off_directly(self):
        corpus = corpus_of([[0, 1, 0, 1, 2]], 3)
        model = fit_kneser_ney(corpus, order=2, discount=0.75)
        # (2, 2) was never observed, so its conditional equals the (2,)
        # backoff, itself unseen and equal to the continuation unigram.
        for y in range(3):
            assert model.conditional((2, 2), y) == model.conditional((2,), y)
            assert model.conditional((2,), y) == model.conditional((), y)

    def test_beats_naive_on_sparse_held_out(self):
        rng = np.random.default_rng(6)
        train = corpus_of(random_sequences(rng, 5, 20, 10), 5)
        held_out = corpus_of([[0, 1, 2, 3, 4, 0, 4, 1, 3, 0]], 5)
        naive = fit_naive_ngram(train, order=2)
        kn = fit_kneser_ney(train, order=2)
        naive_ppl = ngram_perplexity(naive, held_out)
        kn_ppl = ngram_perplexity(kn, held_out)
        assert math.isinf(naive_ppl)
        assert math.isfinite(kn_ppl)
        assert kn_ppl < naive_ppl

    def test_discount_validation(self):
        corpus = corpus_of([[0, 1]], 2)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DataError):
                fit_kneser_ney(corpus, order=1, discount=bad)


@st.composite
def ngram_cases(draw):
    """A vocabulary, a training corpus over a prefix of it (so held-out
    lines can hold unseen targets and contexts), a held-out corpus, lines of
    length 1 and up, an order of 1 to 5 and a smoothing."""
    n = draw(st.integers(1, 5))
    seen = draw(st.integers(1, n))

    def lines(symbols):
        return st.lists(st.lists(st.integers(0, symbols - 1), min_size=1, max_size=8),
                        min_size=1, max_size=6)

    train = draw(lines(seen).filter(lambda seqs: any(len(s) > 1 for s in seqs)))
    held_out = draw(lines(n))
    order = draw(st.integers(1, 5))
    smoothing = draw(st.sampled_from(["none", "kneser_ney"]))
    discount = draw(st.floats(0.01, 0.99)) if smoothing == "kneser_ney" else 0.0
    return n, train, held_out, order, smoothing, discount


@settings(max_examples=300, deadline=None)
@given(ngram_cases())
def test_scoring_matches_dict_walk_reference_bitwise(case):
    n, train, held_out, order, smoothing, discount = case
    corpus = corpus_of(train, n)
    if smoothing == "none":
        model = fit_naive_ngram(corpus, order)
    else:
        model = fit_kneser_ney(corpus, order, discount)
    counts = ref_ngram_counts(train, order)
    assert model.counts == counts
    reference = ref_ngram_conditional(counts, order, smoothing, discount, n)
    for seqs in (train, held_out):
        got, want = [], []
        for seq in seqs:
            for j in range(1, len(seq)):
                ctx = seq[max(0, j - order) : j]
                got.append(model.conditional(ctx, seq[j]))
                got.append(float(model.distribution(ctx)[seq[j]]))
                want += [reference(ctx, seq[j])] * 2
        assert [p.hex() for p in got] == [p.hex() for p in want]
        scored = corpus_of(seqs, n)
        expected = LogLikelihood.of_positions(ScoredPositions(scored, 1), np.array(want[::2]))
        assert ngram_log_likelihood(model, scored) == expected


class TestValidationAndSerialization:
    def test_order_validation(self):
        corpus = corpus_of([[0, 1]], 2)
        with pytest.raises(DataError):
            fit_naive_ngram(corpus, order=0)
        with pytest.raises(DataError):
            fit_kneser_ney(corpus, order=0)

    def test_no_transitions_rejected(self):
        corpus = corpus_of([[0], [1]], 2)
        with pytest.raises(DataError):
            fit_naive_ngram(corpus, order=1)
        with pytest.raises(DataError):
            fit_kneser_ney(corpus, order=1)

    def test_model_field_validation(self):
        vocab = Vocabulary.from_size(2)
        counts = {(0,): {1: 1}}
        with pytest.raises(DataError):
            NgramModel(1, "magic", 0.0, vocab, counts)
        with pytest.raises(DataError):
            NgramModel(1, "none", 0.5, vocab, counts)
        with pytest.raises(DataError):
            NgramModel(1, "none", 0.0, vocab, {})
        with pytest.raises(DataError):
            NgramModel(1, "none", 0.0, vocab, {(0, 1): {0: 1}})  # too long
        with pytest.raises(DataError):
            NgramModel(1, "none", 0.0, vocab, {(0,): {5: 1}})  # bad id
        with pytest.raises(DataError):
            NgramModel(1, "none", 0.0, vocab, {(0,): {}})  # context without events
        for bad_count in (-3, 0, 1.7, math.nan, math.inf, "2"):
            with pytest.raises(DataError):
                NgramModel(1, "none", 0.0, vocab, {(0,): {1: bad_count}})
        for bad_id in ("x", 0.5, None):
            with pytest.raises(DataError):
                NgramModel(1, "none", 0.0, vocab, {(bad_id,): {1: 1}})
            with pytest.raises(DataError):
                NgramModel(1, "none", 0.0, vocab, {(0,): {bad_id: 1}})
        # An integral number is read as that integer.
        assert NgramModel(1, "none", 0.0, vocab, {(0.0,): {1: 2.0}}).conditional([0], 1) == 1.0

    def test_vocabulary_mismatch(self):
        model = fit_naive_ngram(corpus_of([[0, 1]], 2), order=1)
        other = Corpus.from_sequences(Vocabulary.from_tokens(["x", "y"]), [[0, 1]])
        with pytest.raises(VocabularyMismatch):
            ngram_log_likelihood(model, other)

    def test_round_trip_preserves_conditionals(self, tmp_path):
        rng = np.random.default_rng(7)
        corpus = corpus_of(random_sequences(rng, 4, 15, 8), 4)
        for model in (
            fit_naive_ngram(corpus, order=2),
            fit_kneser_ney(corpus, order=2, discount=0.4),
        ):
            path = tmp_path / f"{model.smoothing}.json"
            save_ngram(model, str(path))
            back = load_ngram(str(path))
            assert back == model
            for ctx in [(), (0,), (1, 2), (3, 3)]:
                assert np.array_equal(back.distribution(ctx), model.distribution(ctx))

    def test_document_shape(self, tmp_path):
        model = fit_kneser_ney(corpus_of([[0, 1, 0]], 2), order=1, discount=0.75)
        path = tmp_path / "model.json"
        save_ngram(model, str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc) == {"order", "smoothing", "discount", "vocab", "counts"}
        assert doc["counts"] == [[[0], 1, 1], [[1], 0, 1]]

    def test_save_is_deterministic(self, tmp_path):
        corpus = corpus_of([[0, 1, 1, 0, 1]], 2)
        model = fit_naive_ngram(corpus, order=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_ngram(model, str(a))
        save_ngram(model, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_undecodable_file_is_a_data_error_naming_it(self, tmp_path):
        path = tmp_path / "ngram.json"
        save_ngram(fit_naive_ngram(corpus_of([[0, 1, 0]], 2), order=1), str(path))
        path.write_bytes(path.read_bytes().replace(b'"smoothing":"none"', b'"smoothing":"\xff"'))
        with pytest.raises(DataError, match=f"model file {re.escape(str(path))} is not valid JSON"):
            load_ngram(str(path))

    def test_malformed_document(self):
        with pytest.raises(DataError):
            ngram_from_dict({"order": 1})
        doc = ngram_to_dict(fit_naive_ngram(corpus_of([[0, 1, 0]], 2), order=1))
        for bad in (
            [[0], "x", 1],  # next state not a number
            [0, 1, 1],  # context not a list
            [[0], 1],  # short triple
            [["0"], 1, 1],  # context of strings
            [[0], 1, -3],
            [[0], 1, 0],
            [[0], 1, 1.7],
            [[0], 1, 1],  # repeats the pair (0,) -> 1
            [[0], 1.0, 1],  # the same pair again
        ):
            with pytest.raises(DataError):
                ngram_from_dict({**doc, "counts": doc["counts"] + [bad]})
        for header, message in (
            ({"order": 2.9}, "order 2.9"),
            ({"order": "2"}, "order '2'"),
            ({"discount": "0.5"}, "discount '0.5'"),
            ({"discount": True}, "discount True"),
        ):
            with pytest.raises(DataError, match=message):
                ngram_from_dict({**doc, **header})
        assert ngram_from_dict({**doc, "order": 1.0}).order == 1
