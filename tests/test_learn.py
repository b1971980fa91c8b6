"""Gradients, the water-filling block solver, and alternating training."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamp.learn as learn
from lamp.core import (
    Corpus,
    DataError,
    EmptyRowError,
    HistoryDistribution,
    LampModel,
    NumericError,
    SparseStochasticMatrix,
    Vocabulary,
    generate,
    log_likelihood,
    model_to_dict,
)
from lamp.learn import (
    TrainConfig,
    alternate_minimize,
    empirical_transition_matrix,
    grad_P,
    grad_w,
    optimize_row,
    optimize_simplex_block,
)
from conftest import (
    fd_grad_P,
    fd_grad_w,
    make_corpus,
    make_model,
    random_simplex,
    random_stochastic_matrix,
    random_sequences,
    ref_alternate_minimize,
    ref_empirical_rows,
    ref_grad_P,
    ref_log_likelihood,
    ref_optimize_row,
    ref_optimize_simplex_block,
    sparse_models,
    worked_matrix,
)

CFG2 = TrainConfig(k=2)


def ll_of(model, sequences):
    """Reference log-likelihood of a fitted model on raw id sequences."""
    return ref_log_likelihood(model.w.weights, model.P.dense(), sequences)[0]


# ---------------------------------------------------------------------------
# Empirical transition matrix


class TestEmpiricalMatrix:
    def test_lag1_counts_k1(self):
        corpus = make_corpus(Vocabulary.from_size(2), [[0, 1, 0, 1, 0]])
        P = empirical_transition_matrix(corpus, k=1)
        assert np.allclose(P.dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_window_support_k2(self):
        # Lag-2 pairs 0->0 and 1->1 enter the support at epsilon mass and the
        # rows renormalize to (eps, 1)/(1+eps) and (1, eps)/(1+eps).
        corpus = make_corpus(Vocabulary.from_size(2), [[0, 1, 0, 1, 0]])
        P = empirical_transition_matrix(corpus, k=2, support_epsilon=1e-3)
        want = np.array([
            [1e-3 / 1.001, 1.0 / 1.001],
            [1.0 / 1.001, 1e-3 / 1.001],
        ])
        assert np.allclose(P.dense(), want, atol=1e-15)

    def test_state_seen_only_last_gets_empty_row(self):
        corpus = make_corpus(Vocabulary.from_size(3), [[0, 1, 2]])
        P, report = empirical_transition_matrix(corpus, k=1, return_report=True)
        assert P.empty_rows() == [2]
        assert report.empty_rows == (2,)
        assert report.lag1_pairs == 2
        assert report.clamped_only_pairs == 0

    def test_report_counts_deep_lag_pairs(self):
        corpus = make_corpus(Vocabulary.from_size(2), [[0, 1, 0, 1, 0]])
        _, report = empirical_transition_matrix(corpus, k=2, return_report=True)
        assert report.lag1_pairs == 2
        assert report.clamped_only_pairs == 2
        assert report.support_size == 4
        assert report.empty_rows == ()

    def test_rows_renormalized_and_support_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            seqs = random_sequences(rng, n, 5, 12)
            corpus = make_corpus(Vocabulary.from_size(n), seqs)
            P = empirical_transition_matrix(corpus, k=k)
            support = [set() for _ in range(n)]
            for seq in seqs:
                for j in range(1, len(seq)):
                    for i in range(1, k + 1):
                        support[seq[max(j - i, 0)]].add(seq[j])
            for x in range(n):
                cols, probs = P.row(x)
                assert set(cols.tolist()) == support[x]
                if cols.size:
                    assert abs(float(probs.sum()) - 1.0) < 1e-12

    def test_matches_dict_walk_reference_bitwise(self):
        rng = np.random.default_rng(11)
        shapes = [(int(rng.integers(1, 8)), int(rng.integers(1, 6)), 6, 15) for _ in range(30)]
        for n, k, n_seqs, max_len in shapes + [(60, 8, 40, 120)]:
            eps = float(rng.choice([1e-3, 0.25, 0.7]))
            seqs = random_sequences(rng, n, n_seqs, max_len, min_len=1)
            corpus = make_corpus(Vocabulary.from_size(n), seqs)
            P, report = empirical_transition_matrix(corpus, k, eps, return_report=True)
            rows, lag1_pairs, clamped_only = ref_empirical_rows(seqs, n, k, eps)
            for x in range(n):
                cols, probs = P.row(x)
                assert cols.tolist() == [y for y, _ in rows[x]]
                assert probs.tolist() == [p for _, p in rows[x]]
            assert report.lag1_pairs == lag1_pairs
            assert report.clamped_only_pairs == clamped_only

    def test_parameter_validation(self):
        corpus = make_corpus(Vocabulary.from_size(2), [[0, 1]])
        with pytest.raises(DataError):
            empirical_transition_matrix(corpus, k=0)
        with pytest.raises(DataError):
            empirical_transition_matrix(corpus, k=1, support_epsilon=0.0)


# ---------------------------------------------------------------------------
# Gradients


class TestGradients:
    def test_grad_w_worked_instance(self):
        model = make_model([0.6, 0.4], worked_matrix())
        corpus = make_corpus(model, [[0, 1, 1]])
        g = grad_w(model, corpus)
        assert np.allclose(g, [2.538462, 1.192308], atol=1e-6)
        assert abs(g[0] - (1.0 + 0.8 / 0.52)) < 1e-12
        assert abs(g[1] - (1.0 + 0.1 / 0.52)) < 1e-12

    def test_grad_P_worked_instance(self):
        model = make_model([0.6, 0.4], worked_matrix())
        corpus = make_corpus(model, [[0, 1, 1]])
        rows = grad_P(model, corpus)
        dense = np.zeros((2, 2))
        for x in range(2):
            dense[x, model.P.row_cols[x]] = rows[x]
        assert abs(dense[0, 1] - 10.769231) < 1e-6
        assert abs(dense[1, 1] - 1.153846) < 1e-6
        assert abs(dense[0, 1] - (10.0 + 0.4 / 0.52)) < 1e-12
        assert abs(dense[1, 1] - 0.6 / 0.52) < 1e-12
        assert dense[0, 0] == 0.0 and dense[1, 0] == 0.0

    def test_grad_w_first_order_is_transition_count(self):
        rng = np.random.default_rng(0)
        P = random_stochastic_matrix(rng, 3, min_entry=0.05)
        model = make_model([1.0], P)
        seqs = random_sequences(rng, 3, 4, 9)
        corpus = make_corpus(model, seqs)
        g = grad_w(model, corpus)
        assert np.allclose(g, [corpus.total_transitions], rtol=1e-12)

    def test_grad_P_first_order_is_count_ratio(self):
        rng = np.random.default_rng(1)
        P = random_stochastic_matrix(rng, 3, min_entry=0.05)
        model = make_model([1.0], P)
        seqs = random_sequences(rng, 3, 4, 9)
        corpus = make_corpus(model, seqs)
        rows = grad_P(model, corpus)
        counts = np.zeros((3, 3))
        for seq in seqs:
            for j in range(1, len(seq)):
                counts[seq[j - 1], seq[j]] += 1
        for x in range(3):
            cols = model.P.row_cols[x]
            want = counts[x, cols] / P[x, cols]
            assert np.allclose(rows[x], want, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            P = random_stochastic_matrix(rng, n, min_entry=0.05)
            w = random_simplex(rng, k)
            model = make_model(w, P)
            seqs = random_sequences(rng, n, 3, 10)
            corpus = make_corpus(model, seqs)

            g = grad_w(model, corpus)
            gfd = fd_grad_w(w, P, seqs)
            scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(gfd)))
            assert np.all(np.abs(g - gfd) <= 1e-5 * scale)

            rows = grad_P(model, corpus)
            entries = [(x, int(c)) for x in range(n) for c in model.P.row_cols[x]]
            pfd = fd_grad_P(w, P, seqs, entries)
            for x in range(n):
                for pos, c in enumerate(model.P.row_cols[x]):
                    a, b = rows[x][pos], pfd[(x, int(c))]
                    assert abs(a - b) <= 1e-5 * max(1.0, abs(a), abs(b))

    def test_zero_probability_transition_names_position(self):
        P = SparseStochasticMatrix.from_rows(2, [[(0, 1.0)], [(0, 1.0)]])
        model = LampModel(HistoryDistribution.from_weights([1.0]), P, Vocabulary.from_size(2))
        corpus = make_corpus(model, [[0, 0, 1]])
        with pytest.raises(NumericError, match="sequence 0 position 2"):
            grad_w(model, corpus)
        with pytest.raises(NumericError, match="sequence 0 position 2"):
            grad_P(model, corpus)


# ---------------------------------------------------------------------------
# Water-filling block solver


def entropy_objective(c):
    c = np.asarray(c, dtype=np.float64)

    def value(p):
        if np.any(p <= 0.0):
            return -math.inf
        return float(c @ np.log(p))

    def derivatives(p):
        return c / p, -c / (p * p)

    return value, derivatives


def simplex_projection(t):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(t)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, t.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(t - theta, 0.0)


class TestSimplexBlock:
    def test_dirichlet_objective_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            c = rng.random(k) + 0.1
            value, derivatives = entropy_objective(c)
            start = random_simplex(rng, k)
            res = optimize_simplex_block(value, derivatives, start, CFG2)
            assert np.allclose(res.point, c / c.sum(), atol=1e-7)
            assert res.kkt_residual <= CFG2.kkt_tol

    def test_quadratic_objective_matches_projection(self):
        # Maximizing -||p - t||^2 / 2 over the simplex lands on the
        # projection of t, exercising corner handling when entries clamp at 0.
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            t = rng.normal(0.0, 1.0, size=k)

            def value(p, t=t):
                return -0.5 * float(np.sum((p - t) ** 2))

            def derivatives(p, t=t):
                return t - p, -np.ones_like(p)

            start = np.full(k, 1.0 / k)
            res = optimize_simplex_block(value, derivatives, start, CFG2)
            assert np.allclose(res.point, simplex_projection(t), atol=1e-7)

    def test_single_coordinate_block(self):
        value, derivatives = entropy_objective([2.0])
        res = optimize_simplex_block(value, derivatives, np.array([1.0]), CFG2)
        assert res.point.tolist() == [1.0]
        assert res.kkt_residual == 0.0
        assert res.iterations == 0

    def test_started_at_optimum_takes_no_step(self):
        c = np.array([0.3, 0.5, 0.2])
        value, derivatives = entropy_objective(c)
        res = optimize_simplex_block(value, derivatives, c.copy(), CFG2)
        assert res.iterations == 0
        assert res.accepted_steps == 0
        assert res.kkt_residual <= CFG2.kkt_tol
        assert np.array_equal(res.point, c)

    def test_result_feasible_and_no_worse_than_start(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(2, 10))
            c = rng.random(k) + 0.05
            b = rng.normal(0.0, 2.0, size=k)

            def value(p, c=c, b=b):
                if np.any(p <= 0.0):
                    return -math.inf
                return float(c @ np.log(p) + b @ p)

            def derivatives(p, c=c, b=b):
                return c / p + b, -c / (p * p)

            start = random_simplex(rng, k)
            res = optimize_simplex_block(value, derivatives, start, CFG2)
            assert np.all(res.point >= 0.0)
            assert abs(float(res.point.sum()) - 1.0) <= 1e-12
            assert res.value >= value(start) - 1e-10

    def test_invalid_start_rejected(self):
        value, derivatives = entropy_objective([1.0, 1.0])
        with pytest.raises(DataError):
            optimize_simplex_block(value, derivatives, np.array([0.7, 0.7]), CFG2)
        with pytest.raises(DataError):
            optimize_simplex_block(value, derivatives, np.array([1.2, -0.2]), CFG2)


# ---------------------------------------------------------------------------
# Row optimization


class TestOptimizeRow:
    def test_matches_row_grid_search(self):
        model = make_model([0.6, 0.4], worked_matrix())
        seqs = [[0, 1, 1, 0, 0, 1]]
        corpus = make_corpus(model, seqs)
        q = optimize_row(model, corpus, 0, CFG2)
        dense = model.P.dense()
        dense[0] = 0.0
        dense[0, model.P.row_cols[0]] = q
        achieved = ref_log_likelihood([0.6, 0.4], dense, seqs)[0]
        best = -math.inf
        for a in np.linspace(0.0, 1.0, 1001):
            trial = model.P.dense()
            trial[0] = [a, 1.0 - a]
            best = max(best, ref_log_likelihood([0.6, 0.4], trial, seqs)[0])
        assert achieved >= best - 1e-6

    def test_untouched_row_unchanged(self):
        rng = np.random.default_rng(6)
        model = make_model([0.5, 0.5], random_stochastic_matrix(rng, 3, min_entry=0.1))
        corpus = make_corpus(model, [[0, 1, 0, 1]])  # state 2 never a source
        q = optimize_row(model, corpus, 2, CFG2)
        assert np.array_equal(q, model.P.row_probs[2])

    def test_single_entry_row_stays_unit(self):
        P = SparseStochasticMatrix.from_rows(2, [[(1, 1.0)], [(0, 0.5), (1, 0.5)]])
        model = LampModel(HistoryDistribution.from_weights([1.0]), P, Vocabulary.from_size(2))
        corpus = make_corpus(model, [[0, 1, 0]])
        cfg = TrainConfig(k=1)
        assert optimize_row(model, corpus, 0, cfg).tolist() == [1.0]

    def test_empty_row_rejected(self):
        P = SparseStochasticMatrix.from_rows(2, [[(0, 0.5), (1, 0.5)], []])
        model = LampModel(HistoryDistribution.from_weights([1.0]), P, Vocabulary.from_size(2))
        corpus = make_corpus(model, [[0, 0]])
        with pytest.raises(EmptyRowError):
            optimize_row(model, corpus, 1, TrainConfig(k=1))

    def test_other_rows_untouched_and_ll_not_decreased(self):
        rng = np.random.default_rng(8)
        model = make_model(random_simplex(rng, 2), random_stochastic_matrix(rng, 3, min_entry=0.1))
        seqs = random_sequences(rng, 3, 4, 10)
        corpus = make_corpus(model, seqs)
        before = ll_of(model, seqs)
        q = optimize_row(model, corpus, 1, CFG2)
        dense = model.P.dense()
        dense[1] = 0.0
        dense[1, model.P.row_cols[1]] = q
        after = ref_log_likelihood(model.w.weights, dense, seqs)[0]
        assert after >= before - 1e-10


# ---------------------------------------------------------------------------
# Alternating minimization


class TestAlternateMinimize:
    def test_weight_block_matches_grid_search(self):
        # Tiny two-state corpus, one sequence of length 6: the optimized w
        # must match a 1001-point grid over w_1 with P frozen at empirical.
        seqs = [[0, 1, 1, 0, 1, 1]]
        corpus = make_corpus(Vocabulary.from_size(2), seqs)
        cfg = TrainConfig(k=2, rounds=0.5, weight_only=True)
        model, _ = alternate_minimize(corpus, cfg)
        dense = model.P.dense()
        achieved = ref_log_likelihood(model.w.weights, dense, seqs)[0]
        grid = np.linspace(0.0, 1.0, 1001)
        values = [ref_log_likelihood([a, 1.0 - a], dense, seqs)[0] for a in grid]
        best = int(np.argmax(values))
        assert achieved >= values[best] - 1e-6
        assert abs(float(model.w.weights[0]) - grid[best]) <= 1e-3

    def test_weight_only_freezes_matrix_bitwise(self):
        rng = np.random.default_rng(9)
        seqs = random_sequences(rng, 3, 5, 12)
        corpus = make_corpus(Vocabulary.from_size(3), seqs)
        cfg = TrainConfig(k=2, rounds=1.5, weight_only=True)
        model, report = alternate_minimize(corpus, cfg)
        emp = empirical_transition_matrix(corpus, 2, cfg.support_epsilon)
        for x in range(3):
            assert np.array_equal(model.P.row_cols[x], emp.row_cols[x])
            assert np.array_equal(model.P.row_probs[x], emp.row_probs[x])
        # Skipped P halves leave only init + two w records.
        assert [r.block for r in report.records] == ["init", "w", "w"]

    def test_first_order_training_reaches_count_mle(self):
        # With k=1 the w block is trivial and the empirical start is already
        # the maximizer, so training returns the count MLE exactly.
        rng = np.random.default_rng(10)
        seqs = random_sequences(rng, 3, 6, 15)
        corpus = make_corpus(Vocabulary.from_size(3), seqs)
        model, report = alternate_minimize(corpus, TrainConfig(k=1, rounds=1.5))
        counts = np.zeros((3, 3))
        for seq in seqs:
            for j in range(1, len(seq)):
                counts[seq[j - 1], seq[j]] += 1
        for x in range(3):
            cols, probs = model.P.row(x)
            assert np.allclose(probs, counts[x, cols] / counts[x].sum(), rtol=1e-12)
        assert model.w.weights.tolist() == [1.0]
        assert report.records[-1].kkt_residual <= TrainConfig(k=1).kkt_tol

    def test_joint_grid_optimum_k1(self):
        # k=1 log-likelihood separates over rows, so the exhaustive joint
        # grid optimum is the sum of per-row grid maxima.
        seqs = [[0, 1, 1, 0, 0, 0, 1, 0, 1, 1]]
        corpus = make_corpus(Vocabulary.from_size(2), seqs)
        model, _ = alternate_minimize(corpus, TrainConfig(k=1, rounds=1.5))
        counts = np.zeros((2, 2))
        for j in range(1, len(seqs[0])):
            counts[seqs[0][j - 1], seqs[0][j]] += 1
        grid = np.linspace(0.0, 1.0, 1001)
        joint = 0.0
        for x in range(2):
            best = -math.inf
            for a in grid:
                with np.errstate(divide="ignore"):
                    v = counts[x, 0] * np.log(a) + counts[x, 1] * np.log(1.0 - a)
                best = max(best, float(v))
            joint += best
        assert ll_of(model, seqs) >= joint - 1e-6

    def test_records_monotone_and_consistent(self):
        rng = np.random.default_rng(11)
        seqs = random_sequences(rng, 4, 8, 20)
        corpus = make_corpus(Vocabulary.from_size(4), seqs)
        cfg = TrainConfig(k=3, rounds=3.0)
        model, report = alternate_minimize(corpus, cfg)
        blocks = [r.block for r in report.records]
        assert blocks == ["init", "w", "P", "w", "P", "w", "P"]
        lls = [r.log_likelihood for r in report.records]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9
        T = corpus.total_transitions
        for r in report.records:
            assert abs(r.perplexity - math.exp(-r.log_likelihood / T)) < 1e-12
            assert (r.kkt_residual is None) == (r.block == "init")
            assert r.active_set_size > 0
            assert r.wall_time_s >= 0.0
        assert abs(ll_of(model, seqs) - lls[-1]) < 1e-8
        assert report.final_model is model

    def test_improves_on_initializer(self):
        rng = np.random.default_rng(12)
        seqs = random_sequences(rng, 3, 10, 25)
        corpus = make_corpus(Vocabulary.from_size(3), seqs)
        model, report = alternate_minimize(corpus, TrainConfig(k=2, rounds=1.5))
        assert report.final_log_likelihood >= report.initial_log_likelihood
        assert abs(ll_of(model, seqs) - report.final_log_likelihood) < 1e-8

    def test_recovers_first_order_generator(self):
        chain = make_model([1.0], worked_matrix())
        seq = generate(chain, start=0, length=5001, seed=77)
        corpus = make_corpus(Vocabulary.from_size(2), [seq.tolist()])
        model, _ = alternate_minimize(corpus, TrainConfig(k=3, rounds=1.5))
        assert float(model.w.weights[0]) >= 0.9

    def test_report_jsonl_round(self):
        rng = np.random.default_rng(14)
        seqs = random_sequences(rng, 3, 4, 10)
        corpus = make_corpus(Vocabulary.from_size(3), seqs)
        cfg = TrainConfig(k=2, rounds=1.0)
        _, r1 = alternate_minimize(corpus, cfg)
        _, r2 = alternate_minimize(corpus, cfg)
        assert r1.to_jsonl() == r2.to_jsonl()
        lines = r1.to_jsonl().splitlines()
        assert len(lines) == 3  # init + w + P
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {
                "block", "log_likelihood", "perplexity", "kkt_residual", "active_set_size",
            }

    def test_length_one_corpus_rejected(self):
        corpus = make_corpus(Vocabulary.from_size(2), [[0], [1]])
        with pytest.raises(DataError):
            alternate_minimize(corpus, TrainConfig(k=1))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            TrainConfig(k=0)
        with pytest.raises(DataError):
            TrainConfig(k=2, rounds=0.7)
        with pytest.raises(DataError):
            TrainConfig(k=2, rounds=0.0)
        with pytest.raises(DataError):
            TrainConfig(k=2, trust_shrink=1.2)
        with pytest.raises(DataError):
            TrainConfig(k=2, trust_expand=0.9)
        with pytest.raises(DataError):
            TrainConfig(k=2, kkt_tol=0.0)
        with pytest.raises(DataError):
            TrainConfig(k=2, prior_count=-1.0)

    @pytest.mark.parametrize(
        "name",
        ["rounds", "kkt_tol", "trust_init", "trust_expand", "trust_shrink", "init_decay",
         "support_epsilon", "prior_count"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_field_is_named(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite"):
            TrainConfig(k=2, **{name: value})

    def test_half_iteration_count(self):
        assert TrainConfig(k=2, rounds=0.5).half_iterations == 1
        assert TrainConfig(k=2, rounds=1.5).half_iterations == 3
        assert TrainConfig(k=2, rounds=3.0).half_iterations == 6

    def test_dict_round_trip(self):
        cfg = TrainConfig(k=3, rounds=2.5, prior_count=0.5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        json.dumps(cfg.to_dict())  # JSON-serializable


# ---------------------------------------------------------------------------
# Concavity witnesses


class TestBlockConcavity:
    def test_weight_segments(self):
        rng = np.random.default_rng(15)
        P = random_stochastic_matrix(rng, 3, min_entry=0.05)
        seqs = random_sequences(rng, 3, 4, 12)
        for _ in range(10):
            wa = random_simplex(rng, 3)
            wb = random_simplex(rng, 3)
            thetas = np.linspace(0.0, 1.0, 11)
            vals = [
                ref_log_likelihood((1 - t) * wa + t * wb, P, seqs)[0] for t in thetas
            ]
            for left, mid, right in zip(vals, vals[1:], vals[2:]):
                assert mid >= (left + right) / 2.0 - 1e-9

    def test_row_segments(self):
        rng = np.random.default_rng(16)
        P = random_stochastic_matrix(rng, 3, min_entry=0.05)
        w = random_simplex(rng, 2)
        seqs = random_sequences(rng, 3, 4, 12)
        for _ in range(10):
            qa = random_simplex(rng, 3)
            qb = random_simplex(rng, 3)
            thetas = np.linspace(0.0, 1.0, 11)
            vals = []
            for t in thetas:
                trial = P.copy()
                trial[1] = (1 - t) * qa + t * qb
                vals.append(ref_log_likelihood(w, trial, seqs)[0])
            for left, mid, right in zip(vals, vals[1:], vals[2:]):
                assert mid >= (left + right) / 2.0 - 1e-9


# ---------------------------------------------------------------------------
# Bitwise agreement with the reference trainer


def outcome(fn, *args):
    """fn(*args), or the type and message of the data or numeric error it raised."""
    try:
        return fn(*args)
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)


def model_bits(model):
    return (
        json.dumps(model_to_dict(model)),
        model.w.weights.tobytes(),
        model.P.indptr.tobytes(),
        model.P.cols.tobytes(),
        model.P.probs.tobytes(),
    )


def training_bits(result):
    if isinstance(result[0], type):
        return result
    model, report = result
    return model_bits(model), report.to_jsonl()


@st.composite
def training_cases(draw):
    """Small corpora with lines of length 1, states that never start a
    transition (empty rows) or have one successor (rows of size 1), and
    configurations whose kkt_tol ranges from tight to loose enough that a
    P half skips some rows and solves later ones."""
    n = draw(st.integers(1, 5))
    seqs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), min_size=1, max_size=6))
    seqs.append(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=12)))
    cfg = TrainConfig(
        k=draw(st.integers(1, 4)),
        rounds=draw(st.integers(1, 6)) / 2.0,
        kkt_tol=draw(st.sampled_from([1e-6, 1e-3, 0.1, 10.0])),
        prior_count=draw(st.sampled_from([0.0, 0.5])),
        init_decay=draw(st.sampled_from([0.01, 0.8, 5.0])),
        max_newton_iters=draw(st.sampled_from([2, 100])),
    )
    return make_corpus(Vocabulary.from_size(n), seqs), cfg


class TestReferenceTrainer:
    @settings(max_examples=200, deadline=None)
    @given(case=training_cases())
    def test_training_matches_reference_bitwise(self, case):
        corpus, cfg = case
        got = training_bits(outcome(alternate_minimize, corpus, cfg))
        assert got == training_bits(outcome(ref_alternate_minimize, corpus, cfg))

    @pytest.mark.parametrize("seqs, k, rounds, kkt_tol", [
        ([[0, 0, 1, 0, 1, 1, 0]], 3, 1.0, 0.1),
        ([[2, 0, 0, 2, 0, 2, 2, 1, 2], [1, 2, 2, 0, 0, 1, 0, 1, 0]], 2, 2.0, 1.0),
    ])
    def test_skipped_row_rounds_mixture_like_the_solver(self, seqs, k, rounds, kkt_tol):
        # A row skipped before a solved row in the same half: its rewrite
        # (denom - m*q) + m*q differs from denom in the last bit at some
        # position the solved row reads, and the solved row's result shows it.
        corpus = make_corpus(Vocabulary.from_size(3), seqs)
        cfg = TrainConfig(k=k, rounds=rounds, kkt_tol=kkt_tol, init_decay=5.0)
        got = training_bits(alternate_minimize(corpus, cfg))
        assert got == training_bits(ref_alternate_minimize(corpus, cfg))

    @pytest.mark.parametrize("seed", range(3))
    def test_larger_corpus_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        seqs = random_sequences(rng, 30, 25, 40, min_len=1)
        corpus = make_corpus(Vocabulary.from_size(32), seqs)
        for cfg in (TrainConfig(k=3, rounds=2.5), TrainConfig(k=2, rounds=2.0, kkt_tol=0.5, prior_count=0.5)):
            got = training_bits(alternate_minimize(corpus, cfg))
            assert got == training_bits(ref_alternate_minimize(corpus, cfg))

    @settings(max_examples=150, deadline=None)
    @given(model=sparse_models(), data=st.data())
    def test_grad_P_and_optimize_row_match_reference_bitwise(self, model, data):
        seqs = data.draw(st.lists(st.lists(st.integers(0, model.n - 1), min_size=1, max_size=10), min_size=1, max_size=5))
        corpus = make_corpus(model, seqs)
        cfg = TrainConfig(k=model.k, kkt_tol=data.draw(st.sampled_from([1e-6, 0.1])),
                          prior_count=data.draw(st.sampled_from([0.0, 0.5])))
        got, want = outcome(grad_P, model, corpus), outcome(ref_grad_P, model, corpus)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
        for x in range(model.n):
            if model.P.row_cols[x].size == 0:
                continue
            got, want = outcome(optimize_row, model, corpus, x, cfg), outcome(ref_optimize_row, model, corpus, x, cfg)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()

    def test_simplex_block_matches_reference_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k = int(rng.integers(2, 10))
            c = rng.random(k) + 0.05
            b = rng.normal(0.0, 2.0, size=k)

            def value(p, c=c, b=b):
                if np.any(p <= 0.0):
                    return -math.inf
                return float(c @ np.log(p) + b @ p)

            def derivatives(p, c=c, b=b):
                return c / p + b, -c / (p * p)

            cfg = TrainConfig(k=1, kkt_tol=float(rng.choice([1e-9, 1e-3])),
                              max_newton_iters=int(rng.choice([1, 3, 100])),
                              trust_init=float(rng.choice([1e-3, 0.1, 1.0])))
            start = random_simplex(rng, k)
            got = optimize_simplex_block(value, derivatives, start, cfg)
            want = ref_optimize_simplex_block(value, derivatives, start, cfg)
            assert got.point.tobytes() == want.point.tobytes()
            assert (got.value, got.kkt_residual, got.iterations, got.accepted_steps) == (
                want.value, want.kkt_residual, want.iterations, want.accepted_steps)


# ---------------------------------------------------------------------------
# Rows at their optimum are skipped


class TestRowSkip:
    # k = 1 with a prior: rows separate, and each row's optimum has
    # q_c proportional to count_c + prior.  Row 0's counts (1, 1) start it at
    # that optimum; row 1's counts (2, 1) do not.  State 2 has no successor.
    SEQS = [[0, 1], [0, 2], [1, 0], [1, 0], [1, 2]]

    def traced_training(self, monkeypatch, cfg):
        calls = []
        solve = learn.optimize_simplex_block

        def traced(objective, derivatives, point, cfg):
            calls.append(np.array(point))
            return solve(objective, derivatives, point, cfg)

        monkeypatch.setattr(learn, "optimize_simplex_block", traced)
        corpus = make_corpus(Vocabulary.from_size(3), self.SEQS)
        return corpus, calls, alternate_minimize(corpus, cfg)

    def test_converged_half_calls_no_block_solver(self, monkeypatch):
        cfg = TrainConfig(k=1, rounds=2.5, prior_count=0.5)
        corpus, calls, (model, report) = self.traced_training(monkeypatch, cfg)
        # w, row 1, w, (no row), w: the second P half solves nothing.
        assert [c.size for c in calls] == [1, 2, 1, 1]
        assert [r.block for r in report.records] == ["init", "w", "P", "w", "P", "w"]
        assert report.records[4].kkt_residual <= cfg.kkt_tol
        assert training_bits((model, report)) == training_bits(ref_alternate_minimize(corpus, cfg))

    def test_row_above_tolerance_after_skipped_row_is_solved(self, monkeypatch):
        cfg = TrainConfig(k=1, rounds=1.0, prior_count=0.5)
        corpus, calls, (model, report) = self.traced_training(monkeypatch, cfg)
        start = empirical_transition_matrix(corpus, 1)
        assert len(calls) == 2  # the w block, then row 1 alone
        assert calls[1].tobytes() == start.row_probs[1].tobytes()
        assert model.P.row_probs[0].tobytes() == start.row_probs[0].tobytes()
        assert np.allclose(model.P.row_probs[1], [2.5 / 4.0, 1.5 / 4.0], atol=1e-6)
        assert training_bits((model, report)) == training_bits(ref_alternate_minimize(corpus, cfg))


# ---------------------------------------------------------------------------
# Training with a prior


def test_prior_training_guards_the_penalized_objective():
    # The blocks ascend log-likelihood + prior * (sum log w + sum log P), so
    # the plain log-likelihood may fall; that is not a numeric failure.
    seqs = [
        [0, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 1, 0, 0],
        [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 1, 1, 1, 1, 1],
    ]
    corpus = make_corpus(Vocabulary.from_size(2), seqs)
    cfg = TrainConfig(k=1, prior_count=0.5, init_decay=0.01, rounds=1.5)
    model, report = alternate_minimize(corpus, cfg)
    start = empirical_transition_matrix(corpus, 1)

    def penalized(ll, w, P):
        return ll + 0.5 * (float(np.log(w).sum()) + float(np.log(P.probs).sum()))

    assert report.final_log_likelihood < report.initial_log_likelihood
    assert penalized(report.final_log_likelihood, model.w.weights, model.P) >= penalized(
        report.initial_log_likelihood, np.ones(1), start)
