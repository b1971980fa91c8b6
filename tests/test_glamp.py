"""Tests for models whose lags read different matrices: the transition rule,
generation, the mixture matrix, the exact k-tuple lift, and serialization."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_matrix,
    make_model,
    random_simplex,
    random_stochastic_matrix,
    ref_lift,
    ref_mixture_matrix,
    sparse_models,
)

from lamp.core import (
    DataError,
    EmptyRowError,
    HistoryDistribution,
    LampModel,
    SparseStochasticMatrix,
    Vocabulary,
    generate,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    transition_distribution,
)
from lamp.analysis import is_ergodic, stationary_distribution
from lamp.glamp import lift_to_kth_order, mixture_matrix


def worked_glamp():
    """Two lags, two matrices: lag 1 reads a fair-coin matrix, lag 2 a swap."""
    flat = np.array([[0.5, 0.5], [0.5, 0.5]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return LampModel.per_lag(
        w=HistoryDistribution.from_weights([0.5, 0.5]),
        matrices=(
            SparseStochasticMatrix.from_dense(flat),
            SparseStochasticMatrix.from_dense(swap),
        ),
        lag_map=(1, 2),
        vocab=Vocabulary.from_size(2),
    )


def random_glamp(rng, n, k, n_matrices):
    mats = tuple(
        SparseStochasticMatrix.from_dense(random_stochastic_matrix(rng, n, min_entry=0.05))
        for _ in range(n_matrices)
    )
    return LampModel.per_lag(
        w=HistoryDistribution.from_weights(random_simplex(rng, k)),
        matrices=mats,
        lag_map=tuple(int(j) for j in rng.integers(1, n_matrices + 1, size=k)),
        vocab=Vocabulary.from_size(n),
    )


def same_matrix_twice(rng, model):
    """The single-matrix model as a two-matrix one whose matrices are the
    same, with the lags spread over both at random."""
    return LampModel.per_lag(
        model.w,
        (model.P, model.P),
        tuple(int(j) for j in rng.integers(1, 3, size=model.k)),
        model.vocab,
    )


def ref_glamp_dist(weights, dense_mats, lag_map, history):
    n = dense_mats[0].shape[0]
    out = np.zeros(n)
    L = len(history)
    for i in range(1, len(weights) + 1):
        src = history[L - i] if i <= L else history[0]
        out += weights[i - 1] * dense_mats[lag_map[i - 1] - 1][src]
    return out


class TestTransitionDistribution:
    def test_worked_two_lag_history(self):
        model = worked_glamp()
        assert np.array_equal(
            transition_distribution(model, [0, 1]), [0.25, 0.75]
        )
        assert np.array_equal(
            transition_distribution(model, [1, 0]), [0.75, 0.25]
        )

    def test_clamped_history_keeps_per_lag_matrices(self):
        # A length-1 history clamps both lags to the same source, but lag 2
        # still reads the swap matrix.
        model = worked_glamp()
        assert np.array_equal(transition_distribution(model, [0]), [0.25, 0.75])
        assert np.array_equal(transition_distribution(model, [1]), [0.75, 0.25])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            model = random_glamp(rng, n, k, int(rng.integers(1, 4)))
            history = [int(x) for x in rng.integers(0, n, size=int(rng.integers(1, 6)))]
            got = transition_distribution(model, history)
            want = ref_glamp_dist(
                model.w.weights,
                [m.dense() for m in model.matrices],
                model.lag_map,
                history,
            )
            assert np.allclose(got, want, atol=1e-12)

    def test_single_matrix_reduces_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            model = make_model(random_simplex(rng, k), random_stochastic_matrix(rng, n))
            history = [int(x) for x in rng.integers(0, n, size=int(rng.integers(1, 7)))]
            assert np.array_equal(
                transition_distribution(model, history),
                transition_distribution(same_matrix_twice(rng, model), history),
            )

    def test_validation(self):
        model = worked_glamp()
        with pytest.raises(DataError):
            transition_distribution(model, [])
        with pytest.raises(DataError):
            transition_distribution(model, [2])

    def test_empty_row_raises(self):
        model = LampModel.per_lag(
            w=HistoryDistribution.from_weights([1.0]),
            matrices=(SparseStochasticMatrix.from_rows(2, [[(1, 1.0)], []]),),
            lag_map=(1,),
            vocab=Vocabulary.from_size(2),
        )
        with pytest.raises(EmptyRowError):
            transition_distribution(model, [1])


class TestGenerate:
    def test_single_matrix_reduces_bitwise(self):
        rng = np.random.default_rng(4)
        for seed in (0, 1, 7):
            n = int(rng.integers(2, 6))
            model = make_model(random_simplex(rng, 3), random_stochastic_matrix(rng, n))
            assert np.array_equal(
                generate(model, 0, 200, seed),
                generate(same_matrix_twice(rng, model), 0, 200, seed),
            )

    def test_prefix_extension(self):
        model = worked_glamp()
        short = generate(model, 0, 100, seed=5)
        long = generate(model, 0, 300, seed=5)
        assert np.array_equal(long[:100], short)

    def test_row_draw_follows_the_drawn_lag(self):
        # All lag mass on lag 2, whose matrix is a deterministic +1 cycle,
        # makes the sequence follow x_t = x_{t-2} + 1 mod 3 exactly.
        cycle = np.zeros((3, 3))
        for x in range(3):
            cycle[x, (x + 1) % 3] = 1.0
        model = LampModel.per_lag(
            w=HistoryDistribution.from_weights([0.0, 1.0]),
            matrices=(
                SparseStochasticMatrix.from_dense(np.full((3, 3), 1.0 / 3.0)),
                SparseStochasticMatrix.from_dense(cycle),
            ),
            lag_map=(1, 2),
            vocab=Vocabulary.from_size(3),
        )
        seq = generate(model, 0, 9, seed=0)
        assert np.array_equal(seq, [0, 1, 1, 2, 2, 0, 0, 1, 1])

    def test_start_validation(self):
        with pytest.raises(DataError):
            generate(worked_glamp(), 2, 10, seed=0)


class TestMixtureMatrix:
    def test_worked_instance(self):
        mix = mixture_matrix(worked_glamp())
        assert np.array_equal(mix.dense(), [[0.25, 0.75], [0.75, 0.25]])

    def test_zero_weight_lag_drops_out(self):
        model = worked_glamp()
        first_only = LampModel.per_lag(
            w=HistoryDistribution.from_weights([1.0, 0.0]),
            matrices=model.matrices,
            lag_map=(1, 2),
            vocab=model.vocab,
        )
        assert np.array_equal(mixture_matrix(first_only).dense(), [[0.5, 0.5], [0.5, 0.5]])

    def test_single_matrix_mixture_is_that_matrix(self):
        rng = np.random.default_rng(6)
        model = make_model(random_simplex(rng, 3), random_stochastic_matrix(rng, 4))
        assert np.allclose(mixture_matrix(model).dense(), model.matrices[0].dense(), atol=1e-12)


    def test_row_empty_at_some_positive_lags_raises(self):
        # Row 1 is empty in A (lag 1) but not in B (lag 2): its mixture
        # would hold half a distribution.
        a = SparseStochasticMatrix.from_rows(2, [[(1, 1.0)], []])
        b = SparseStochasticMatrix.from_rows(2, [[(0, 1.0)], [(0, 1.0)]])
        model = LampModel.per_lag(
            HistoryDistribution.from_weights([0.5, 0.5]), (a, b), (1, 2), Vocabulary.from_size(2))
        with pytest.raises(EmptyRowError, match="^state 1 has no outgoing transitions$"):
            mixture_matrix(model)
        # Empty at every positive-weight lag, the row stays empty.
        first_only = LampModel.per_lag(
            HistoryDistribution.from_weights([1.0, 0.0]), (a, b), (1, 2), Vocabulary.from_size(2))
        mix = mixture_matrix(first_only)
        assert mix.empty_rows() == [1] and mix.dense().tolist() == [[0.0, 1.0], [0.0, 0.0]]

    @settings(max_examples=300, deadline=None)
    @given(model=sparse_models(max_matrices=3))
    def test_matches_the_dense_sum_bitwise(self, model):
        # Stored zeros, zero-weight lags and empty rows included.
        positive = [i for i in range(1, model.k + 1) if model.w.weights[i - 1] > 0.0]
        empty = np.array([[model.matrix_for_lag(i).row(x)[0].size == 0 for x in range(model.n)]
                          for i in positive])
        partly = np.flatnonzero(empty.any(axis=0) & ~empty.all(axis=0))
        if partly.size:
            with pytest.raises(EmptyRowError, match=f"^state {partly[0]} has"):
                mixture_matrix(model)
            return
        got, want = mixture_matrix(model), ref_mixture_matrix(model)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.cols, want.cols)
        assert got.probs.tobytes() == want.probs.tobytes()

    def test_builds_no_dense_matrix(self):
        # 2000 states with 3 entries a row in each of two matrices: one
        # 2000 x 2000 float64 array would take 32 MB.
        n, rng = 2000, np.random.default_rng(17)
        matrices = [
            SparseStochasticMatrix.from_rows(n, [
                [(int(c), 1 / 3) for c in np.sort(rng.choice(n, size=3, replace=False))]
                for _ in range(n)])
            for _ in range(2)
        ]
        model = LampModel.per_lag(
            HistoryDistribution.from_weights([0.5, 0.3, 0.2]), matrices, (1, 2, 1), Vocabulary.from_size(n))
        tracemalloc.start()
        try:
            mix = mixture_matrix(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert mix.probs.tobytes() == ref_mixture_matrix(model).probs.tobytes()


def assert_same_lift(lifted, states, indptr, cols, probs):
    """The lift equals the reference's: state order, index and Q, bitwise."""
    assert lifted.states == tuple(states)
    assert lifted.index == {h: s for s, h in enumerate(states)}
    assert np.array_equal(lifted.Q.indptr, indptr)
    assert np.array_equal(lifted.Q.cols, cols)
    assert lifted.Q.probs.tobytes() == probs.tobytes()


class TestLift:
    def test_first_order_lift_equals_mixture(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            model = random_glamp(rng, n, 1, int(rng.integers(1, 4)))
            lifted = lift_to_kth_order(model)
            assert lifted.states == tuple((x,) for x in range(n))
            assert np.allclose(lifted.Q.dense(), mixture_matrix(model).dense(), atol=1e-15)

    def test_worked_two_lag_lift(self):
        lifted = lift_to_kth_order(worked_glamp())
        assert set(lifted.states) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        q = lifted.Q.dense()
        idx = lifted.index
        # Rows follow the same per-lag rule as the sequence process.
        assert q[idx[(0, 0)], idx[(0, 0)]] == 0.25
        assert q[idx[(0, 0)], idx[(0, 1)]] == 0.75
        assert q[idx[(0, 1)], idx[(1, 0)]] == 0.25
        assert q[idx[(0, 1)], idx[(1, 1)]] == 0.75
        assert q[idx[(1, 0)], idx[(0, 0)]] == 0.75
        assert q[idx[(1, 0)], idx[(0, 1)]] == 0.25
        assert q[idx[(1, 1)], idx[(1, 0)]] == 0.75
        assert q[idx[(1, 1)], idx[(1, 1)]] == 0.25

    def test_cycle_doubled_state_self_loops(self):
        # From (i, i) both lags read row i, so the self-loop probability of
        # the doubled state equals the matrix's own self-loop at i.
        eps = 0.2
        model = make_model([0.5, 0.5], cycle_matrix(4, eps))
        lifted = lift_to_kth_order(model)
        q = lifted.Q.dense()
        for i in range(4):
            s = lifted.index[(i, i)]
            assert q[s, s] == pytest.approx(eps if i == 0 else 0.0, abs=1e-15)

    def test_pure_cycle_lift_is_ergodic(self):
        # A periodic mixture does not force a periodic lift: with two lags
        # the doubled states add detours of coprime length, so the lifted
        # walk over a pure cycle is ergodic even though the cycle is not.
        model = make_model([0.5, 0.5], cycle_matrix(6, 0.0))
        assert not is_ergodic(model.matrices[0]).ergodic
        lifted = lift_to_kth_order(model)
        assert is_ergodic(lifted.Q).ergodic

    def test_reducible_mixture_gives_non_ergodic_lift(self):
        dense = np.zeros((4, 4))
        dense[:2, :2] = [[0.6, 0.4], [0.3, 0.7]]
        dense[2:, 2:] = [[0.2, 0.8], [0.5, 0.5]]
        model = make_model([0.5, 0.5], dense)
        assert is_ergodic(mixture_matrix(model)).reason == "reducible"
        lifted = lift_to_kth_order(model)
        assert is_ergodic(lifted.Q).reason == "reducible"

    def test_pure_first_order_weights_inherit_periodicity(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        one_lag = make_model([1.0], swap)
        assert is_ergodic(lift_to_kth_order(one_lag).Q).reason == "periodic"
        two_lag = make_model([1.0, 0.0], swap)
        assert not is_ergodic(lift_to_kth_order(two_lag).Q).ergodic

    def test_stationary_marginal_matches_mixture(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            model = random_glamp(rng, n, k, int(rng.integers(1, 4)))
            lifted = lift_to_kth_order(model)
            pi_lift = stationary_distribution(lifted.Q, tol=1e-13)
            marginal = lifted.marginal_over_last(pi_lift)
            pi_mix = stationary_distribution(mixture_matrix(model), tol=1e-13)
            assert np.allclose(marginal, pi_mix, atol=1e-8)

    def test_lifted_walk_reproduces_trigram_statistics(self):
        model = worked_glamp()
        steps = 200_000
        direct = generate(model, 0, steps, seed=11)
        lifted = lift_to_kth_order(model)
        walk_model = LampModel(
            w=HistoryDistribution.from_weights([1.0]),
            P=lifted.Q,
            vocab=Vocabulary.from_size(len(lifted.states)),
        )
        walk = generate(walk_model, lifted.index[(0, 0)], steps, seed=12)
        mapped = np.array([lifted.states[s][-1] for s in walk])
        def trigram_freqs(seq):
            counts = Counter(zip(seq[:-2], seq[1:-1], seq[2:]))
            total = len(seq) - 2
            return {g: c / total for g, c in counts.items()}
        direct_freqs = trigram_freqs([int(x) for x in direct])
        walk_freqs = trigram_freqs([int(x) for x in mapped])
        for gram in set(direct_freqs) | set(walk_freqs):
            assert abs(direct_freqs.get(gram, 0.0) - walk_freqs.get(gram, 0.0)) <= 0.01

    def test_state_count_guard(self):
        model = LampModel.per_lag(
            w=HistoryDistribution.uniform(4),
            matrices=(SparseStochasticMatrix.from_dense(np.full((25, 25), 0.04)),),
            lag_map=(1, 1, 1, 1),
            vocab=Vocabulary.from_size(25),
        )
        with pytest.raises(DataError):
            lift_to_kth_order(model)

    def test_start_state_subset(self):
        lifted = lift_to_kth_order(worked_glamp(), start_states=[0])
        assert lifted.states == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_start_state_validation(self):
        model = worked_glamp()
        with pytest.raises(DataError):
            lift_to_kth_order(model, start_states=[])
        with pytest.raises(DataError):
            lift_to_kth_order(model, start_states=[5])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_fifo_oracle(self, data):
        model = data.draw(sparse_models(max_matrices=3))
        starts = data.draw(st.none() | st.lists(st.integers(0, model.n - 1), min_size=1, max_size=4))
        try:
            states, indptr, cols, probs = ref_lift(
                model, range(model.n) if starts is None else starts)
        except LookupError as exc:
            with pytest.raises(EmptyRowError, match=f"^{exc.args[0]}$"):
                lift_to_kth_order(model, starts)
            return
        assert_same_lift(lift_to_kth_order(model, starts), states, indptr, cols, probs)

    @pytest.mark.parametrize("n, k, n_matrices", [(7, 3, 2), (5, 4, 3), (20, 2, 1)])
    def test_multi_chunk_lift_matches_fifo_oracle(self, n, k, n_matrices):
        # More tuple states than one expansion chunk holds.
        model = random_glamp(np.random.default_rng(n * k), n, k, n_matrices)
        states, indptr, cols, probs = ref_lift(model, [3, 0, 3])
        assert len(states) > 256
        lifted = lift_to_kth_order(model, [3, 0, 3])
        assert_same_lift(lifted, states, indptr, cols, probs)
        pi = stationary_distribution(lifted.Q)
        expected = np.zeros(n)
        for h, p in zip(states, pi):
            expected[h[-1]] += p
        assert lifted.marginal_over_last(pi).tobytes() == expected.tobytes()

    def test_lift_holds_at_most_one_copy_of_its_entries(self):
        # A dense 20^3 lift: 8000 tuple states and 160 000 entries in Q.
        # While it builds, the lift holds each row's size and its targets
        # and probabilities; Q's arrays are joined from those, one at a
        # time.  Its tracemalloc peak stays within what the returned chain
        # holds (Q, its states and their index) plus one copy of Q's columns
        # and probabilities.
        rng = np.random.default_rng(3)
        n = 20
        mats = tuple(SparseStochasticMatrix.from_dense(rng.dirichlet(np.ones(n), size=n)) for _ in range(2))
        model = LampModel.per_lag(
            HistoryDistribution.from_weights([0.5, 0.3, 0.2]), mats, (1, 2, 1), Vocabulary.from_size(n))
        lift_to_kth_order(model)  # the first call loads what numpy imports lazily
        tracemalloc.start()
        try:
            lifted = lift_to_kth_order(model)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        Q = lifted.Q
        assert Q.cols.size == n**3 * n
        assert peak <= held + Q.cols.nbytes + Q.probs.nbytes, (peak, held)

    def test_marginal_length_validation(self):
        lifted = lift_to_kth_order(worked_glamp())
        with pytest.raises(DataError):
            lifted.marginal_over_last(np.array([1.0]))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        model = random_glamp(rng, 4, 3, 2)
        doc = model_to_dict(model)
        back = model_from_dict(doc)
        assert np.array_equal(back.w.weights, model.w.weights)
        assert back.lag_map == model.lag_map
        assert back.vocab.tokens == model.vocab.tokens
        for got, want in zip(back.matrices, model.matrices):
            assert np.array_equal(got.dense(), want.dense())

    def test_save_load_file(self, tmp_path):
        model = worked_glamp()
        path = tmp_path / "model.json"
        save_model(model, str(path))
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"k", "w", "n", "vocab", "lag_map", "matrices"}
        back = load_model(str(path))
        assert back.lag_map == (1, 2)
        assert np.array_equal(back.matrices[1].dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_one_loader_reads_both_shapes(self, tmp_path):
        single = make_model([0.6, 0.4], np.array([[0.9, 0.1], [0.2, 0.8]]))
        for model, key in ((single, "matrix"), (worked_glamp(), "matrices")):
            path = tmp_path / f"{key}.json"
            save_model(model, str(path))
            assert key in json.loads(path.read_text(encoding="utf-8"))
            back = load_model(str(path))
            assert back.lag_map == model.lag_map
            assert [m.dense().tolist() for m in back.matrices] == [
                m.dense().tolist() for m in model.matrices
            ]

    def test_one_matrix_document_loads_as_single_matrix_model(self):
        doc = model_to_dict(worked_glamp())
        doc["matrices"], doc["lag_map"] = doc["matrices"][:1], [1, 1]
        model = model_from_dict(doc)
        assert model.n_matrices == 1
        assert set(model_to_dict(model)) == {"k", "w", "n", "vocab", "matrix"}

    def test_malformed_document(self):
        doc = model_to_dict(worked_glamp())
        for bad, message in (
            ({k: v for k, v in doc.items() if k != "lag_map"}, "lag_map"),
            ({**doc, "lag_map": [1, 1.5]}, "lag 1.5"),
            ({**doc, "k": 2.7}, "k 2.7"),
            ({**doc, "k": "2"}, "k '2'"),
            ({**doc, "n": 2.5}, "n 2.5"),
            ({**doc, "n": [2]}, r"n \[2\]"),
        ):
            with pytest.raises(DataError, match=message):
                model_from_dict(bad)
        # A whole number written as a float is read as that integer.
        back = model_from_dict({**doc, "k": float(doc["k"]), "lag_map": [1.0, 2.0]})
        assert back.k == doc["k"] and back.lag_map == (1, 2)


class TestValidation:
    def test_lag_map_range(self):
        model = worked_glamp()
        with pytest.raises(DataError):
            LampModel.per_lag(model.w, model.matrices, (1, 3), model.vocab)
        with pytest.raises(DataError):
            LampModel.per_lag(model.w, model.matrices, (0, 1), model.vocab)

    def test_lag_map_length(self):
        model = worked_glamp()
        with pytest.raises(DataError):
            LampModel.per_lag(model.w, model.matrices, (1,), model.vocab)

    def test_matrix_sizes_must_agree(self):
        model = worked_glamp()
        odd = SparseStochasticMatrix.from_dense(np.eye(3))
        with pytest.raises(DataError):
            LampModel.per_lag(model.w, (model.matrices[0], odd), (1, 2), model.vocab)

    def test_vocab_size_must_match(self):
        model = worked_glamp()
        with pytest.raises(DataError):
            LampModel.per_lag(model.w, model.matrices, (1, 2), Vocabulary.from_size(3))

    def test_matrix_for_lag_bounds(self):
        model = worked_glamp()
        assert model.matrix_for_lag(2) is model.matrices[1]
        with pytest.raises(DataError):
            model.matrix_for_lag(3)

    def test_classic_constructor_fields(self):
        w = HistoryDistribution.from_weights([0.6, 0.4])
        P = SparseStochasticMatrix.from_dense(np.array([[0.9, 0.1], [0.2, 0.8]]))
        vocab = Vocabulary.from_size(2)
        for model in (LampModel(w, P, vocab), LampModel(w=w, P=P, vocab=vocab)):
            assert model.k == 2 and model.n == 2 and model.n_matrices == 1
            assert model.matrices == (P,)
            assert model.lag_map == (1, 1)
            assert model.P is P
            assert model.vocab is vocab

    def test_P_needs_a_single_matrix(self):
        with pytest.raises(DataError):
            worked_glamp().P
