"""Core model types and evaluation semantics."""

import json
import math
import os
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamp.core as core
from lamp import analysis, data
from lamp.core import (
    Corpus,
    DataError,
    EmptyRowError,
    HistoryDistribution,
    LampModel,
    SparseStochasticMatrix,
    Vocabulary,
    VocabularyMismatch,
)
from conftest import (
    cycle_matrix,
    make_corpus,
    make_model,
    random_simplex,
    random_stochastic_matrix,
    ref_floored_log_likelihood,
    ref_floored_probabilities,
    ref_generate,
    ref_log_likelihood,
    ref_per_lag_log_likelihood,
    ref_transition_distribution,
    sparse_models,
    worked_matrix,
)

W2 = [0.6, 0.4]

# Frozen by hand from the defining mixture and cross-checked against the
# naive reference implementation below.
WORKED_LL = math.log(0.1) + math.log(0.52)          # -2.95651156040071
WORKED_PPL = (0.1 * 0.52) ** -0.5                   # 4.385290096535146


def worked_model():
    return make_model(W2, worked_matrix())


# ---------------------------------------------------------------------------
# Types


def test_vocabulary_basics():
    v = Vocabulary.from_tokens(["a", "b", "c"], rare_token="c")
    assert len(v) == 3
    assert v.id("b") == 1
    assert v.token(2) == "c"
    assert v.rare_id == 2
    assert "a" in v and "z" not in v


def test_vocabulary_validation():
    with pytest.raises(DataError):
        Vocabulary.from_tokens([])
    with pytest.raises(DataError):
        Vocabulary.from_tokens(["a", "a"])
    with pytest.raises(DataError):
        Vocabulary.from_tokens(["a"], rare_token="missing")
    with pytest.raises(DataError):
        Vocabulary.from_tokens(["a"]).id("b")
    with pytest.raises(DataError):
        Vocabulary.from_tokens(["a"]).token(5)


def rows_matrix(n, rows):
    return lambda: SparseStochasticMatrix.from_rows(n, rows)


def csr_matrix(n, indptr, cols, probs):
    return lambda: SparseStochasticMatrix.from_csr(
        n, np.array(indptr), np.array(cols), np.array(probs, dtype=float)
    )


def loaded_matrix(triples):
    doc = {"k": 1, "w": [1.0], "n": 2, "vocab": ["s0", "s1"], "matrix": triples}
    return lambda: core.model_from_dict(doc)


#: (id, builder of a bad matrix, expected DataError message).  Rows name the
#: first bad row; within a row the checks run in the order length, range,
#: strictly increasing, finite and nonnegative, row sum.
BAD_MATRICES = [
    ("no-states", csr_matrix(0, [0], [], []), "at least one state"),
    ("row-count", rows_matrix(3, [[(0, 1.0)], [(1, 1.0)]]), "row arrays must have length n"),
    ("indptr-length", csr_matrix(2, [0, 1], [0], [1.0]), r"indptr must hold n \+ 1 = 3"),
    ("indptr-decreasing", csr_matrix(2, [0, 2, 1], [0, 1], [0.5, 0.5]), "nondecreasing offsets"),
    ("array-lengths", csr_matrix(2, [0, 1, 2], [0, 1], [1.0, 1.0, 0.0]), "differ in length"),
    ("column-range", rows_matrix(2, [[(5, 1.0)], [(0, 1.0)]]), "^row 0: column index out of range"),
    ("negative-column", csr_matrix(2, [0, 1, 2], [0, -1], [1.0, 1.0]), "^row 1: column index out of range"),
    ("repeated-column", rows_matrix(2, [[(0, 0.5), (0, 0.5)], [(0, 1.0)]]),
     "^row 0: columns must be strictly increasing"),
    ("decreasing-columns", csr_matrix(2, [0, 0, 2], [1, 0], [0.5, 0.5]),
     "^row 1: columns must be strictly increasing"),
    ("negative-prob", rows_matrix(2, [[(0, -0.1), (1, 1.1)], [(0, 1.0)]]),
     "^row 0: probabilities must be finite and nonnegative"),
    ("nan-prob", csr_matrix(2, [0, 1, 2], [0, 1], [1.0, float("nan")]),
     "^row 1: probabilities must be finite and nonnegative"),
    ("row-sum", rows_matrix(2, [[(0, 0.5), (1, 0.6)], [(0, 1.0)]]),
     "^row 0: probabilities sum to 1.1, expected 1 within 1e-09"),
    ("first-bad-row-wins", rows_matrix(3, [[(0, 1.0)], [(0, 0.5)], [(7, 1.0)]]),
     "^row 1: probabilities sum to 0.5"),
    ("range-before-sign", rows_matrix(2, [[(9, -1.0), (1, 2.0)], [(0, 1.0)]]),
     "^row 0: column index out of range"),
    ("loader-fractional-index", loaded_matrix([[0, 0.5, 1.0], [1, 0, 1.0]]),
     r"matrix entry \(0, 0.5\) has a non-integral index"),
    ("loader-out-of-range", loaded_matrix([[0, 0, 1.0], [1, 7, 1.0]]),
     r"matrix entry \(1, 7\) out of range"),
    ("loader-negative-row", loaded_matrix([[-1, 0, 1.0]]), r"matrix entry \(-1, 0\) out of range"),
    ("loader-nan-index", loaded_matrix([[0, 0, 1.0], [None, 0, 1.0]]), "non-integral index"),
    ("loader-short-triple", loaded_matrix([[0, 0, 1.0], [1, 0]]), "malformed matrix entry"),
    ("loader-repeated-pair", loaded_matrix([[1, 0, 1.0], [0, 1, 0.5], [0, 1, 0.5]]),
     "^row 0: columns must be strictly increasing"),
    ("loader-repeated-pair-in-order", loaded_matrix([[0, 1, 0.5], [0, 1, 0.5], [1, 0, 1.0]]),
     "^row 0: columns must be strictly increasing"),
]


@pytest.mark.parametrize(
    "build, message", [pytest.param(b, m, id=name) for name, b, m in BAD_MATRICES]
)
def test_matrix_validation(build, message):
    with pytest.raises(DataError, match=message):
        build()


def test_loader_orders_triples_and_keeps_explicit_zeros():
    model = loaded_matrix([[1, 1, 0.75], [0, 1, 0.0], [1, 0, 0.25], [0, 0, 1.0]])()
    assert core.model_to_dict(model)["matrix"] == [
        [0, 0, 1.0], [0, 1, 0.0], [1, 0, 0.25], [1, 1, 0.75]
    ]


def test_matrix_storage_is_read_only_and_never_aliased():
    cols, probs = np.array([1, 0, 1]), np.array([1.0, 0.25, 0.75])
    m = SparseStochasticMatrix.from_csr(2, np.array([0, 1, 3]), cols, probs)
    probs[0] = 0.5  # the caller keeps a writable buffer
    assert m.prob(0, 1) == 1.0
    for arr in (m.indptr, m.cols, m.probs, *m.row(1), m.row_cols[1], m.row_probs[1]):
        assert not arr.flags.writeable


def test_left_multiply_copies_no_matrix_array():
    # numpy's bincount copies a read-only input on every call: 1.28 MB of
    # columns here, at 160 000 entries.  left_multiply holds only the
    # repeated pi, weighted in place, and its result, and gives the bits of
    # the plain expression over the public, read-only arrays.
    n, width = 20_000, 8
    rng = np.random.default_rng(4)
    cols = np.sort((np.arange(n)[:, None] + 2500 * np.arange(width)) % n, axis=1)
    m = SparseStochasticMatrix(n, width * np.arange(n + 1), cols.ravel(), rng.dirichlet(np.ones(width), size=n).ravel())
    assert not m.cols.flags.writeable and not m.probs.flags.writeable
    pi = rng.dirichlet(np.ones(n))
    want = np.bincount(m.cols, weights=np.repeat(pi, width) * m.probs, minlength=n)
    m.left_multiply(pi)  # builds the cached row sizes
    tracemalloc.start()
    try:
        got = m.left_multiply(pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 8 * (m.cols.size + n) + 4096, peak


def test_matrix_accessors_and_empty_rows():
    m = SparseStochasticMatrix.from_rows(3, [[(1, 1.0)], [], [(0, 0.25), (2, 0.75)]])
    assert m.prob(0, 1) == 1.0
    assert m.prob(0, 0) == 0.0
    assert m.empty_rows() == [1]
    assert m.support_size == 3
    np.testing.assert_allclose(
        m.dense(), [[0, 1, 0], [0, 0, 0], [0.25, 0, 0.75]]
    )


def test_matrix_pair_lookup():
    rng = np.random.default_rng(7)
    P = random_stochastic_matrix(rng, 5, min_entry=0.01)
    m = SparseStochasticMatrix.from_dense(P)
    src = rng.integers(0, 5, size=40)
    tgt = rng.integers(0, 5, size=40)
    np.testing.assert_allclose(m.lookup_pairs(src, tgt), P[src, tgt], atol=0)


def test_matrix_left_multiply():
    rng = np.random.default_rng(8)
    P = random_stochastic_matrix(rng, 6, min_entry=0.0)
    m = SparseStochasticMatrix.from_dense(P)
    pi = random_simplex(rng, 6)
    np.testing.assert_allclose(m.left_multiply(pi), pi @ P, atol=1e-15)


def test_history_distribution_moments():
    w = HistoryDistribution.from_weights([0.5, 0.5])
    assert w.k == 2
    assert w.mean == pytest.approx(1.5, abs=1e-15)
    assert w.variance == pytest.approx(0.25, abs=1e-15)
    g = HistoryDistribution.geometric(0.8, 3)
    raw = np.array([0.8, 0.64, 0.512])
    np.testing.assert_allclose(g.weights, raw / raw.sum(), atol=1e-15)


def test_history_distribution_validation():
    with pytest.raises(DataError):
        HistoryDistribution.from_weights([])
    with pytest.raises(DataError):
        HistoryDistribution.from_weights([0.5, 0.6])
    with pytest.raises(DataError):
        HistoryDistribution.from_weights([-0.5, 1.5])


def test_corpus_validation():
    v = Vocabulary.from_size(2)
    with pytest.raises(DataError):
        Corpus.from_sequences(v, [[0, 1], []])
    with pytest.raises(DataError):
        Corpus.from_sequences(v, [[0, 3]])
    c = Corpus.from_sequences(v, [[0, 1, 1], [1]])
    assert c.total_transitions == 2
    assert len(c) == 2


def test_model_requires_matching_sizes():
    with pytest.raises(DataError):
        LampModel(
            w=HistoryDistribution.first_order(),
            P=SparseStochasticMatrix.from_dense(np.eye(2)),
            vocab=Vocabulary.from_size(3),
        )


# ---------------------------------------------------------------------------
# transition_distribution


def test_transition_distribution_worked_example():
    model = worked_model()
    dist = core.transition_distribution(model, [0, 1])
    np.testing.assert_allclose(dist, [0.48, 0.52], atol=1e-12)
    np.testing.assert_allclose(
        dist, ref_transition_distribution(W2, worked_matrix(), [0, 1]), atol=0
    )


def test_transition_distribution_clamps_short_history():
    model = worked_model()
    # Both lags clamp to the single historical state.
    np.testing.assert_allclose(
        core.transition_distribution(model, [0]), [0.9, 0.1], atol=1e-15
    )


def test_transition_distribution_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        P = random_stochastic_matrix(rng, n, min_entry=0.01)
        w = random_simplex(rng, k)
        model = make_model(w, P)
        hist = rng.integers(0, n, size=rng.integers(1, 8)).tolist()
        got = core.transition_distribution(model, hist)
        np.testing.assert_allclose(
            got, ref_transition_distribution(w, P, hist), atol=1e-14
        )
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(got >= 0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=1, max_value=5),
)
def test_transition_distribution_ignores_states_older_than_k(data, k, extra):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = 4
    model = make_model(random_simplex(rng, k), random_stochastic_matrix(rng, n, 0.01))
    hist = rng.integers(0, n, size=k).tolist()
    prefix = rng.integers(0, n, size=extra).tolist()
    a = core.transition_distribution(model, hist)
    b = core.transition_distribution(model, prefix + hist)
    np.testing.assert_array_equal(a, b)


def test_transition_distribution_errors():
    model = worked_model()
    with pytest.raises(DataError):
        core.transition_distribution(model, [])
    with pytest.raises(DataError):
        core.transition_distribution(model, [0, 9])
    holey = make_model([1.0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(EmptyRowError):
        core.transition_distribution(holey, [1])


def test_transition_distribution_skips_zero_weight_lags():
    # Row 1 is empty and only the zero-weight lag 2 reads it.
    holey = make_model([1.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(core.transition_distribution(holey, [1, 0]), [0.0, 1.0])
    with pytest.raises(EmptyRowError):
        core.transition_distribution(holey, [0, 1])


# ---------------------------------------------------------------------------
# log_likelihood and perplexity


def test_log_likelihood_worked_example():
    model = worked_model()
    corpus = make_corpus(model, [[0, 1, 1]])
    ll = core.log_likelihood(model, corpus)
    assert ll.total == pytest.approx(WORKED_LL, abs=1e-12)
    assert ll.scored_transitions == 2
    assert ll.impossible_transitions == 0
    assert ll.per_sequence == (ll.total,)
    ref_total, ref_imp = ref_log_likelihood(W2, worked_matrix(), [[0, 1, 1]])
    assert ll.total == pytest.approx(ref_total, abs=1e-12)
    assert ref_imp == 0


def test_log_likelihood_matches_reference():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        P = random_stochastic_matrix(rng, n, min_entry=0.02)
        w = random_simplex(rng, k)
        model = make_model(w, P)
        seqs = [
            rng.integers(0, n, size=rng.integers(2, 7)).tolist()
            for _ in range(int(rng.integers(1, 4)))
        ]
        got = core.log_likelihood(model, make_corpus(model, seqs))
        want, imp = ref_log_likelihood(w, P, seqs)
        assert imp == 0
        assert got.total == pytest.approx(want, abs=1e-11)
        assert got.total == pytest.approx(sum(got.per_sequence), abs=1e-11)


def test_log_likelihood_single_element_sequences():
    model = worked_model()
    ll = core.log_likelihood(model, make_corpus(model, [[0], [1]]))
    assert ll.total == 0.0
    assert ll.scored_transitions == 0
    assert ll.impossible_transitions == 0


def test_log_likelihood_impossible_transition():
    # P(0, 0) = 0, so the sequence [0, 0] is impossible under w = (1).
    model = make_model([1.0], np.array([[0.0, 1.0], [0.5, 0.5]]))
    corpus = make_corpus(model, [[0, 0], [0, 1]])
    ll = core.log_likelihood(model, corpus)
    assert ll.total == -math.inf
    assert ll.impossible_transitions == 1
    assert ll.per_sequence[0] == -math.inf
    assert ll.per_sequence[1] == pytest.approx(math.log(1.0), abs=1e-15)
    assert core.perplexity(model, corpus) == math.inf


def test_floor_smoothing_matches_dense_recomputation():
    floor = core.EVALUATION_FLOOR
    model = make_model([1.0], np.array([[0.0, 1.0], [0.5, 0.5]]))
    corpus = make_corpus(model, [[0, 0], [1, 0, 1]])
    got = core.log_likelihood(model, corpus, floor=floor)
    # Recompute naively: lift every state to the floor, renormalize.
    P = np.array([[0.0, 1.0], [0.5, 0.5]])
    want = ref_floored_log_likelihood([1.0], P, [[0, 0], [1, 0, 1]], floor)
    assert got.total == pytest.approx(want, rel=1e-12)
    assert got.impossible_transitions == 0
    assert core.perplexity(model, corpus, floor=floor) < math.inf


def test_floor_smoothing_covers_empty_rows():
    # State 1 has no outgoing transitions: both evaluations treat its row as
    # all zeros.  Plain scoring counts the position as impossible, floored
    # scoring still normalizes.
    model = make_model([1.0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    corpus = make_corpus(model, [[1, 0]])
    plain = core.log_likelihood(model, corpus)
    assert (plain.total, plain.impossible_transitions) == (-math.inf, 1)
    assert plain.perplexity() == math.inf
    got = core.log_likelihood(model, corpus, floor=core.EVALUATION_FLOOR)
    assert got.total == pytest.approx(math.log(0.5), abs=1e-9)


def test_empty_rows_contribute_zero_mass():
    # Rows 1 and 2 are empty.  A position is impossible only when every
    # positive-weight lag reads an empty row or misses the target: (0, 2, 1, 0)
    # scores 0->2 at 0.5 * 0 + 0.5 * 0, 2->1 at 0.5 * 0 + 0.5 * P(0, 1) = 0.5,
    # and 1->0 from the empty rows 1 and 2.
    P = np.zeros((3, 3))
    P[0, 1] = 1.0
    model = make_model([0.5, 0.5], P)
    got = core.log_likelihood(model, make_corpus(model, [[0, 1], [0, 2, 1, 0]]))
    assert got.per_sequence == (0.0, -math.inf)
    assert (got.scored_transitions, got.impossible_transitions) == (4, 2)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scoring_kernel_matches_dense_oracle(data):
    model = data.draw(sparse_models())
    seqs = data.draw(st.lists(
        st.lists(st.integers(0, model.n - 1), min_size=1, max_size=6), min_size=1, max_size=4,
    ))
    corpus = make_corpus(model, seqs)
    w, P = model.w.weights, model.P.dense()

    def close(got, want):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    floor = core.EVALUATION_FLOOR
    floored = core.log_likelihood(model, corpus, floor=floor)
    assert floored.impossible_transitions == 0
    for got, seq in zip(floored.per_sequence, seqs):
        assert close(got, ref_floored_log_likelihood(w, P, [seq], floor))

    # Empty rows contribute zero mass, as in the dense oracle.
    plain = core.log_likelihood(model, corpus)
    impossible = 0
    for got, seq in zip(plain.per_sequence, seqs):
        want, imp = ref_log_likelihood(w, P, [seq])
        impossible += imp
        assert got == -math.inf if imp else close(got, want)
    assert plain.impossible_transitions == impossible
    assert plain.total == sum(plain.per_sequence)


def test_per_lag_scoring_matches_the_per_position_oracle():
    # Lag i reads matrix lag_map[i] through the same kernel as a
    # single-matrix model: plain and floored scores against a per-position
    # walk over matrix_for_lag, on models with impossible positions, empty
    # rows, zero lag weights, lags sharing a matrix and clamped starts.
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(model=sparse_models(max_matrices=3), data=st.data())
    def check(model, data):
        seqs = data.draw(st.lists(
            st.lists(st.integers(0, model.n - 1), min_size=1, max_size=7), min_size=1, max_size=4,
        ))
        corpus = make_corpus(model, seqs)

        def close(got, want):
            return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

        plain = core.log_likelihood(model, corpus)
        want, impossible = ref_per_lag_log_likelihood(model, seqs)
        assert plain.impossible_transitions == impossible
        for got, ref in zip(plain.per_sequence, want):
            assert got == ref == -math.inf or close(got, ref)
        assert plain.total == sum(plain.per_sequence)
        floored = core.log_likelihood(model, corpus, floor=core.EVALUATION_FLOOR)
        want, _ = ref_per_lag_log_likelihood(model, seqs, floor=core.EVALUATION_FLOOR)
        assert floored.impossible_transitions == 0
        for got, ref in zip(floored.per_sequence, want):
            assert close(got, ref)
        seen["several matrices"] += model.n_matrices > 1
        seen["impossible"] += impossible > 0
        seen["empty row"] += any(m.empty_rows() for m in model.matrices)
        seen["zero weight"] += bool((model.w.weights == 0.0).any())
        seen["shared matrix"] += 1 < model.n_matrices and len(set(model.lag_map)) < model.k
        seen["clamped"] += model.k > 1 and any(len(s) > 1 for s in seqs)

    check()
    assert min(seen[key] for key in (
        "several matrices", "impossible", "empty row", "zero weight", "shared matrix", "clamped")) > 0


@settings(max_examples=200, deadline=None)
@given(model=sparse_models(max_matrices=3))
def test_model_document_round_trip(model):
    doc = core.model_to_dict(model)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    back = core.model_from_dict(json.loads(text))
    assert np.array_equal(back.w.weights, model.w.weights)
    assert back.lag_map == model.lag_map
    assert back.vocab == model.vocab
    assert back.n_matrices == model.n_matrices
    for got, want in zip(back.matrices, model.matrices):
        for x in range(model.n):
            assert np.array_equal(got.row_cols[x], want.row_cols[x])
            assert np.array_equal(got.row_probs[x], want.row_probs[x])
    keys = {"k", "w", "n", "vocab"} | ({"rare_token"} if model.vocab.rare_token else set())
    shape = {"matrix"} if model.n_matrices == 1 else {"matrices", "lag_map"}
    assert set(doc) == keys | shape
    # Explicit zeros and zero lag weights are kept, so a reload writes the
    # same bytes.
    assert json.dumps(core.model_to_dict(back), sort_keys=True, separators=(",", ":")) == text


def test_perplexity_worked_example():
    model = worked_model()
    ppl = core.perplexity(model, make_corpus(model, [[0, 1, 1]]))
    assert ppl == pytest.approx(WORKED_PPL, abs=1e-12)
    # Base-2 definition: 2 ** (-L2 / T) with L2 the base-2 log-likelihood.
    l2 = WORKED_LL / math.log(2.0)
    assert ppl == pytest.approx(2.0 ** (-l2 / 2), rel=1e-14)


def test_perplexity_uniform_matrix_is_vocab_size():
    n = 5
    P = np.full((n, n), 1.0 / n)
    for w in ([1.0], [0.3, 0.7], [0.2, 0.2, 0.6]):
        model = make_model(w, P)
        corpus = make_corpus(model, [[0, 1, 2, 3, 4, 0, 2]])
        assert core.perplexity(model, corpus) == pytest.approx(5.0, rel=1e-12)


def test_perplexity_requires_scored_transitions():
    model = worked_model()
    with pytest.raises(DataError):
        core.perplexity(model, make_corpus(model, [[0]]))


def test_first_order_reduction():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        P = random_stochastic_matrix(rng, n, min_entry=0.02)
        w = [1.0] + [0.0] * (k - 1)
        model = make_model(w, P)
        seq = rng.integers(0, n, size=10).tolist()
        got = core.log_likelihood(model, make_corpus(model, [seq]))
        want = sum(math.log(P[seq[j - 1], seq[j]]) for j in range(1, len(seq)))
        assert got.total == pytest.approx(want, abs=1e-12)


def test_vocab_mismatch_rejected():
    model = worked_model()
    other = Corpus.from_sequences(Vocabulary.from_tokens(["x", "y"]), [[0, 1]])
    with pytest.raises(VocabularyMismatch):
        core.log_likelihood(model, other)


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic_and_well_formed():
    model = worked_model()
    a = core.generate(model, start=0, length=200, seed=42)
    b = core.generate(model, start=0, length=200, seed=42)
    c = core.generate(model, start=0, length=200, seed=43)
    np.testing.assert_array_equal(a, b)
    assert a.size == 200
    assert a[0] == 0
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {0, 1}


def test_generate_length_one_is_start():
    model = worked_model()
    np.testing.assert_array_equal(core.generate(model, 1, 1, 0), [1])


def test_generate_prefix_extension():
    model = worked_model()
    short = core.generate(model, 0, 50, seed=5)
    long = core.generate(model, 0, 400, seed=5)
    np.testing.assert_array_equal(long[:50], short)


def test_generate_single_step_frequencies():
    # With k = 1 the second element is a draw from P(start, .).
    rng_checks = np.random.default_rng(0)
    P = random_stochastic_matrix(rng_checks, 3, min_entry=0.05)
    model = make_model([1.0], P)
    draws = np.array([core.generate(model, 0, 2, seed=s)[1] for s in range(4000)])
    freq = np.bincount(draws, minlength=3) / 4000
    np.testing.assert_allclose(freq, P[0], atol=0.03)


def test_generate_draws_by_each_rows_cumulative_sums():
    # Each step's two uniforms pick a lag from w's cumulative sums, then the
    # next state from the source row's, each row's last sum pinned to 1.
    rng = np.random.default_rng(3)
    P = random_stochastic_matrix(rng, 6)
    P[rng.random((6, 6)) < 0.5] = 0.0
    P[np.arange(6), (np.arange(6) + 1) % 6] += 0.1
    model = make_model([0.5, 0.3, 0.2], P / P.sum(axis=1, keepdims=True))
    cum_w = np.cumsum(model.w.weights)
    cum_w[-1] = 1.0
    want = [2]
    for u_lag, u_row in np.random.default_rng(9).random((299, 2)):
        lag = int(np.searchsorted(cum_w, u_lag, side="right")) + 1
        src = want[-lag] if lag <= len(want) else want[0]
        cols, probs = model.P.row(src)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        want.append(int(cols[np.searchsorted(cum, u_row, side="right")]))
    assert core.generate(model, 2, 300, seed=9).tolist() == want


def test_generate_matches_the_stepwise_reference_bitwise():
    # Models with one matrix and several, zero lag weights, stored zeros and
    # empty rows; lengths 1, 2 and past k, so early lags clamp to the start;
    # lags drawn in blocks of 1, 3 and the shipped size.
    seen = Counter()

    @settings(max_examples=200, deadline=None)
    @given(model=sparse_models(max_matrices=3), data=st.data())
    def check(model, data):
        start = data.draw(st.integers(0, model.n - 1))
        length = data.draw(st.sampled_from([1, 2]) | st.integers(model.k + 1, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        block = data.draw(st.sampled_from([1, 3, core._GENERATE_BLOCK]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_GENERATE_BLOCK", block)
            try:
                want = ref_generate(model, start, length, seed)
            except EmptyRowError as exc:
                with pytest.raises(EmptyRowError) as info:
                    core.generate(model, start, length, seed)
                assert str(info.value) == str(exc)
                seen["empty row"] += 1
            else:
                got = core.generate(model, start, length, seed)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        seen["several matrices"] += model.n_matrices > 1
        seen["past k"] += length > model.k
        seen["several blocks"] += length - 1 > block

    check()
    assert min(seen[key] for key in ("empty row", "several matrices", "past k", "several blocks")) > 0


def test_generate_empty_row_error():
    model = make_model([1.0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(EmptyRowError):
        core.generate(model, 0, 10, seed=1)


def two_sequences():
    return make_corpus(Vocabulary.from_size(2), [[0, 1, 0], [1, 0, 1]])


@pytest.mark.parametrize("draw", [
    pytest.param(lambda seed: core.generate(make_model([1.0], worked_matrix()), 0, 10, seed), id="generate"),
    pytest.param(lambda seed: analysis.simulate_exponent_process(
        HistoryDistribution.from_weights([0.5, 0.5]), 10, seed), id="exponent"),
    pytest.param(lambda seed: data.split(two_sequences(), 0.5, seed), id="split"),
    pytest.param(lambda seed: data.kfold_split(two_sequences(), 2, seed), id="kfold"),
])
def test_a_negative_seed_is_a_data_error_naming_it(draw):
    # Every seeded draw starts from one generator; numpy refuses a negative
    # seed with a ValueError, which the package reports as a DataError.
    draw(0)
    with pytest.raises(DataError, match="seed must be a non-negative integer, got -3"):
        draw(-3)


def test_cycle_double_but_never_triple_repeats():
    # Deterministic cycle with a two-lag mixture: lag 2 can reproduce the
    # current state once, but from a doubled state both lags point at the
    # same row, which cannot repeat it again.
    model = make_model([0.5, 0.5], cycle_matrix(6, eps=0.0))
    seq = core.generate(model, 0, 1_000_000, seed=123)
    same1 = seq[1:] == seq[:-1]
    doubles = int(np.count_nonzero(same1))
    triples = int(np.count_nonzero(same1[1:] & same1[:-1]))
    assert triples == 0
    assert doubles >= 1


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        model = make_model(
            random_simplex(rng, k),
            random_stochastic_matrix(rng, n, min_entry=0.0),
            rare_token="s0" if rng.random() < 0.5 else None,
        )
        doc = json.loads(json.dumps(core.model_to_dict(model)))
        back = core.model_from_dict(doc)
        np.testing.assert_array_equal(back.w.weights, model.w.weights)
        assert back.vocab.tokens == model.vocab.tokens
        assert back.vocab.rare_token == model.vocab.rare_token
        for x in range(n):
            np.testing.assert_array_equal(back.P.row_cols[x], model.P.row_cols[x])
            np.testing.assert_array_equal(back.P.row_probs[x], model.P.row_probs[x])


def test_model_file_round_trip(tmp_path):
    model = worked_model()
    path = tmp_path / "model.json"
    core.save_model(model, str(path))
    back = core.load_model(str(path))
    np.testing.assert_array_equal(back.w.weights, model.w.weights)
    doc = json.loads(path.read_text())
    assert set(doc) == {"k", "w", "n", "vocab", "matrix"}
    assert doc["matrix"] == sorted(doc["matrix"])


def test_model_document_validation():
    with pytest.raises(DataError):
        core.model_from_dict({"k": 1})
    good = core.model_to_dict(worked_model())
    bad = dict(good, w=[1.0])
    with pytest.raises(DataError):
        core.model_from_dict(bad)
    bad = dict(good, matrix=[[0, 7, 1.0]])
    with pytest.raises(DataError):
        core.model_from_dict(bad)


def test_saved_model_bytes_are_frozen(tmp_path):
    path = tmp_path / "model.json"
    core.save_model(worked_model(), str(path))
    assert path.read_bytes() == (
        b'{"k":2,"matrix":[[0,0,0.9],[0,1,0.1],[1,0,0.2],[1,1,0.8]],'
        b'"n":2,"vocab":["s0","s1"],"w":[0.6,0.4]}\n'
    )


def test_load_model_rejects_per_lag_documents(tmp_path):
    doc = core.model_to_dict(worked_model())
    doc["matrices"] = []
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        core.load_model(str(path))


# ---------------------------------------------------------------------------
# Sort-free branches of the scoring kernel


def sparse_lamp(n, rows, w):
    return LampModel(HistoryDistribution.from_weights(w), SparseStochasticMatrix.from_rows(n, rows),
                     Vocabulary.from_size(n))


@st.composite
def floor_models(draw, near_dense):
    """A model whose rows mix empty rows, stored zeros and positive entries,
    with lag weights that may be zero.  Near-dense models have at most 8
    states and most columns stored, so floored scoring counts their cells;
    sparse ones have 200-500 states and 1-3 entries per row, so it sorts."""
    k = draw(st.integers(1, 4))
    raw_w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    if near_dense:
        n = draw(st.integers(1, 8))
        cells = [draw(st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4, 4, 4]), min_size=n, max_size=n))
                 for _ in range(n)]  # -1 is absent
        stored = [[(c, v) for c, v in enumerate(row) if v >= 0] for row in cells]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(200, 500))
        stored = [list(zip(np.sort(rng.choice(n, size=rng.integers(1, 4), replace=False)).tolist(),
                           rng.integers(0, 5, size=3).tolist())) for _ in range(n)]
    rows = []
    for row in stored:
        mass = sum(v for _, v in row)
        rows.append([(c, v / mass) for c, v in row] if mass else [])
    return sparse_lamp(n, rows, np.array(raw_w) / sum(raw_w))


def floored_both_ways(model, corpus, chunk, branches=None):
    """The package's floored probabilities and the sorting reference's, at
    ``chunk`` gathered entries per chunk; ``branches`` tallies the chunks
    that ``_cell_sums`` counted and sorted."""
    positions = core.ScoredPositions(corpus, model.k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_FLOOR_CHUNK", chunk)
        if branches is not None:
            cell_sums = core._cell_sums

            def tallied(cell, terms, cells):
                branches["count" if cells <= core._CELLS_PER_ENTRY * cell.size else "sort"] += 1
                return cell_sums(cell, terms, cells)

            mp.setattr(core, "_cell_sums", tallied)
        got = core._floored_probabilities(model, positions, core.EVALUATION_FLOOR)
    return got, ref_floored_probabilities(model, positions, core.EVALUATION_FLOOR, chunk)


def test_floored_probabilities_match_sorting_reference_bitwise():
    branches = Counter()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        near_dense = data.draw(st.booleans())
        model = data.draw(floor_models(near_dense))
        seqs = data.draw(st.lists(st.lists(st.integers(0, model.n - 1), min_size=1, max_size=30),
                                  min_size=1, max_size=4))
        chunk = data.draw(st.sampled_from([1, 7, 64]))
        got, want = floored_both_ways(model, make_corpus(model, seqs), chunk, branches)
        assert np.array_equal(got, want)

    check()
    assert branches["count"] > 0 and branches["sort"] > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stored_zeros_keep_their_bytes_and_score_like_absent_entries(data):
    # Trained models store only positive entries, but a hand-written model
    # may store zeros: they survive save -> load -> save, and scoring gives
    # the bits of the same model without them, or with the floor, whose norm
    # adds the floor in another order, the same within 1e-12.
    model = data.draw(floor_models(data.draw(st.booleans())))
    P = model.P
    keep = P.probs > 0.0
    indptr = np.append(0, np.cumsum(keep))[P.indptr]
    compact = LampModel(model.w, SparseStochasticMatrix(P.n, indptr, P.cols[keep], P.probs[keep]), model.vocab)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        core.save_model(model, first)
        core.save_model(core.load_model(first), second)
        assert open(first, "rb").read() == open(second, "rb").read()
    assert len(core.model_to_dict(model)["matrix"]) == P.support_size
    seqs = data.draw(st.lists(st.lists(st.integers(0, model.n - 1), min_size=1, max_size=30),
                              min_size=1, max_size=4))
    corpus = make_corpus(model, seqs)
    assert repr(core.log_likelihood(model, corpus)) == repr(core.log_likelihood(compact, corpus))
    got = core.log_likelihood(model, corpus, floor=core.EVALUATION_FLOOR)
    want = core.log_likelihood(compact, corpus, floor=core.EVALUATION_FLOOR)
    assert got.impossible_transitions == want.impossible_transitions == 0
    for a, b in zip(got.per_sequence + (got.total,), want.per_sequence + (want.total,)):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_floored_probabilities_edge_chunks(chunk):
    # One position of 8 states and 4 full lags gathers 32 entries, more
    # than a chunk of 1 or 7 holds.
    rng = np.random.default_rng(3)
    dense = sparse_lamp(8, [list(enumerate(rng.dirichlet(np.ones(8)))) for _ in range(8)],
                        [0.4, 0.3, 0.0, 0.3])
    got, want = floored_both_ways(dense, make_corpus(dense, [rng.integers(0, 8, size=40).tolist()]), chunk)
    assert np.array_equal(got, want)
    # States 0-9 have empty rows.  A line of them ends the first corpus and
    # is the whole second one, so a chunk of the second (and with chunks of
    # 1 or 7 the last of the first) gathers no entries at all: each of its
    # positions scores 1/n.
    n = 300
    rows = [[] for _ in range(10)] + [[(c, 0.5), (c + 1, 0.5)] for c in range(10, n - 1)] + [[(0, 1.0)]]
    sparse = sparse_lamp(n, rows, [0.5, 0.5])
    empty_line = list(range(10)) * 3
    for seqs in ([rng.integers(10, n, size=30).tolist(), empty_line], [empty_line]):
        got, want = floored_both_ways(sparse, make_corpus(sparse, seqs), chunk)
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got[-29:], 1.0 / n, rtol=1e-12)


@pytest.mark.parametrize("sizes, want", [
    ([], []),  # no rows, no blocks
    ([0, 0, 0], [(0, 3)]),  # rows of no entries share a block
    ([2, 0, 2, 0, 1], [(0, 4), (4, 5)]),  # the first block ends at exactly 4 entries
    ([1, 6, 0, 3], [(0, 1), (1, 2), (2, 4)]),  # the row of 6 is a block alone
])
def test_row_blocks_cut_whole_rows_at_the_budget(sizes, want):
    assert list(core._row_blocks(np.cumsum(sizes, dtype=np.int64), 4)) == want


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 9), max_size=30), budget=st.integers(1, 12))
def test_row_blocks_are_greedy_runs_of_whole_rows(sizes, budget):
    # The blocks tile the rows in order.  Each holds at most ``budget``
    # entries or is one row, and the row after a block would overflow it.
    blocks = list(core._row_blocks(np.cumsum(sizes, dtype=np.int64), budget))
    bounds = [0] + [b for _, b in blocks]
    assert [a for a, _ in blocks] == bounds[:-1] and bounds[-1] == len(sizes)
    for a, b in blocks:
        held = sum(sizes[a:b])
        assert held <= budget or b == a + 1
        assert b == len(sizes) or held + sizes[b] > budget


@pytest.mark.parametrize("per_term", [0, 4, 10**6])  # always sort, as shipped, always count
@settings(max_examples=100, deadline=None)
@given(data=st.data(), cell=st.lists(st.integers(0, 40), max_size=60))
def test_cell_sums_add_each_cell_in_input_order(per_term, data, cell):
    terms = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(cell), max_size=len(cell)))
    want = {}
    for c, t in zip(cell, terms):
        want[c] = want.get(c, 0.0) + t
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CELLS_PER_ENTRY", per_term)
        keys, sums = core._cell_sums(np.array(cell, dtype=np.int64), np.array(terms, dtype=float), 41)
    assert keys.tolist() == sorted(want)
    assert [s.hex() for s in sums.tolist()] == [want[c].hex() for c in sorted(want)]


def brute_find(sorted_keys, keys):
    where = {int(key): i for i, key in enumerate(sorted_keys)}
    return np.array([where.get(int(key), -1) for key in np.ravel(keys)], dtype=np.int64).reshape(np.shape(keys))


@pytest.mark.parametrize("slots", [0, 4, 10**6])  # never, as shipped, always a table
@settings(max_examples=100, deadline=None)
@given(
    stored=st.lists(st.integers(-5, 300), max_size=40, unique=True),
    queries=st.lists(st.integers(-10, 400), max_size=60),
    shape=st.sampled_from([None, (), (-1, 1), (1, -1, 1)]),
)
def test_find_sorted_matches_brute_force(slots, stored, queries, shape):
    sorted_keys = np.array(sorted(stored), dtype=np.int64)
    if shape == ():
        keys = np.array(queries[0] if queries else 7, dtype=np.int64)
    else:
        keys = np.array(queries, dtype=np.int64).reshape(shape or (len(queries),))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TABLE_SLOTS_PER_QUERY", slots)
        got = core._find_sorted(sorted_keys, keys.copy())  # it answers in the keys' buffer
    assert np.shape(got) == keys.shape
    assert np.array_equal(got, brute_find(sorted_keys, keys))


def test_pair_indices_take_the_table_on_small_ranges():
    rng = np.random.default_rng(5)
    P = random_stochastic_matrix(rng, 6)
    P[P < 0.15] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    m = SparseStochasticMatrix.from_dense(P)
    src, tgt = rng.integers(0, 6, size=(2, 20, 3))
    assert m._pair_keys[-1] < core._TABLE_SLOTS_PER_QUERY * src.size  # the table branch
    rows, cols = np.repeat(np.arange(6), np.diff(m.indptr)), m.cols
    where = {(int(r), int(c)): i for i, (r, c) in enumerate(zip(rows, cols))}
    want = np.array([[where.get((int(s), int(t)), -1) for s, t in zip(a, b)] for a, b in zip(src, tgt)])
    assert np.array_equal(m.pair_indices(src, tgt), want)
    np.testing.assert_array_equal(m.lookup_pairs(src, tgt), P[src, tgt])


@pytest.mark.parametrize("n, queries", [(6, 200), (300, 5)], ids=["table", "sort"])
def test_pair_lookups_leave_writable_int64_inputs_alone(n, queries):
    # _find_sorted writes its answers into the keys it is handed;
    # pair_indices and lookup_pairs build those keys in a buffer of their
    # own, so the caller's src and tgt keep their values.
    rng = np.random.default_rng(9)
    m = SparseStochasticMatrix.from_dense(random_stochastic_matrix(rng, n))
    src, tgt = rng.integers(0, n, size=(queries, 3)), rng.integers(0, n, size=(queries, 1))
    assert (m._pair_keys[-1] < core._TABLE_SLOTS_PER_QUERY * src.size) == (queries == 200)  # the branch named
    before = src.copy(), tgt.copy()
    assert (m.pair_indices(src, tgt) >= 0).all()
    np.testing.assert_array_equal(m.lookup_pairs(src, tgt), m.dense()[before[0], before[1]])
    assert np.array_equal(src, before[0]) and np.array_equal(tgt, before[1])


def test_find_sorted_sort_branch_holds_two_key_sized_arrays():
    # Besides the keys, which it sorts and answers in, the sort branch holds
    # the argsort and the search, and checks the hits 2^16 queries at a time
    # (0.6 MB here).  Gathering the sorted keys and the answers into arrays
    # of their own held four arrays the size of the keys.
    rng = np.random.default_rng(10)
    stored = np.unique(rng.integers(0, 10**9, size=50_000))
    keys = rng.integers(0, 10**9, size=(1 << 18, 4))
    keys[::3] = stored[rng.integers(0, stored.size, size=keys[::3].shape)]
    want = brute_find(stored, keys[:1000])
    assert stored[-1] > core._TABLE_SLOTS_PER_QUERY * keys.size  # the sort branch
    tracemalloc.start()
    try:
        got = core._find_sorted(stored, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * keys.nbytes, peak / keys.nbytes
    assert np.array_equal(got[:1000], want) and (got >= 0).mean() > 0.3
    assert got is keys  # the answers are written over the keys


def read_only(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("n, queries", [(6, 200), (300, 5)], ids=["table", "sort"])
def test_pair_lookups_leave_read_only_int32_inputs_alone(n, queries):
    # pair_indices and lookup_pairs build their keys in buffers of their
    # own: the caller's arrays stay as they were, and the result is the
    # reference key src * n + tgt looked up in the sorted stored keys.
    rng = np.random.default_rng(8)
    P = random_stochastic_matrix(rng, n)
    keep = rng.random((n, n)) < 0.4
    keep[np.arange(n), np.argmax(P, axis=1)] = True  # no row is empty
    P = np.where(keep, P, 0.0)
    P /= P.sum(axis=1, keepdims=True)
    m = SparseStochasticMatrix.from_dense(P)
    src = read_only(rng.integers(0, n, size=(queries, 3)).astype(np.int32))
    tgt = read_only(rng.integers(0, n, size=(queries, 1)).astype(np.int32))
    keys = m._pair_keys
    span = int(keys[-1]) + 1
    assert (span <= core._TABLE_SLOTS_PER_QUERY * src.size) == (queries == 200)  # the branch named
    before = src.copy(), tgt.copy()
    want_keys = src.astype(np.int64) * n + tgt.astype(np.int64)
    at = np.minimum(np.searchsorted(keys, want_keys), keys.size - 1)
    want = np.where(keys[at] == want_keys, at, -1)
    got = m.pair_indices(src, tgt)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert (want >= 0).any() and (want < 0).any()
    np.testing.assert_array_equal(m.lookup_pairs(src, tgt), P[src, tgt])
    assert np.array_equal(src, before[0]) and np.array_equal(tgt, before[1])


def test_scored_positions_leave_read_only_int32_tokens_alone():
    tokens = read_only(np.array([3, 0, 4, 4, 1, 2, 0, 1, 3], dtype=np.int32))
    offsets = read_only(np.array([0, 4, 5, 9], dtype=np.int32))
    corpus = Corpus(Vocabulary.from_size(5), tokens, offsets)
    k = 3
    stats = core.ScoredPositions(corpus, k)
    want = [[seq[max(p - i, 0)] for i in range(1, k + 1)]
            for seq in np.split(tokens, offsets[1:-1]) for p in range(1, seq.size)]
    assert np.array_equal(stats.src, np.array(want))
    assert np.array_equal(tokens, [3, 0, 4, 4, 1, 2, 0, 1, 3]) and np.array_equal(offsets, [0, 4, 5, 9])
    assert np.array_equal(corpus.tokens, tokens)


def test_scoring_memory_stays_bounded_on_a_large_sparse_vocabulary():
    # 4000 states with 2 entries a row: a table over every (row, column) key
    # would take 128 MB, and counting over a chunk's (position, column)
    # cells about 65 MB, while the selection rules keep both scorers within
    # a few MB.  A larger vocabulary would make a broken rule allocate
    # gigabytes before this test could fail.
    n, k, T = 4000, 4, 4096
    rng = np.random.default_rng(11)
    rows = [[(int(c), 0.5) for c in np.sort(rng.choice(n, size=2, replace=False))] for _ in range(n)]
    model = sparse_lamp(n, rows, [0.4, 0.3, 0.2, 0.1])
    corpus = make_corpus(model, rng.integers(0, n, size=(8, T // 8 + 1)).tolist())
    positions = core.ScoredPositions(corpus, k)
    queries = positions.T * k
    bound = 64 * queries + 64 * core._FLOOR_CHUNK * 8  # bytes
    for run in (lambda: core.log_likelihood(model, corpus, floor=core.EVALUATION_FLOOR),
                lambda: positions.lag_probabilities(model)):
        run()  # cached views of the matrix are built outside the measurement
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)
