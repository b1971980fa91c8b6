"""Gradients, the projected Newton block solver, and alternating training."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lamp.learn as learn
from lamp.core import (
    DataError,
    HistoryDistribution,
    LampModel,
    NumericError,
    ScoredPositions,
    SparseStochasticMatrix,
    Vocabulary,
    generate,
    log_likelihood,
)
from lamp.learn import (
    TrainConfig,
    alternate_minimize,
    empirical_transition_matrix,
    grad_P,
    grad_w,
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
    ref_weight_objective,
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
# Projected Newton block solver


def entropy_objective(c):
    c = np.asarray(c, dtype=np.float64)

    def value(p):
        if np.any(p <= 0.0):
            return -math.inf
        return float(c @ np.log(p))

    def derivatives(p):
        return c / p, np.diag(-c / (p * p))

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
                return t - p, np.diag(-np.ones_like(p))

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
                return c / p + b, np.diag(-c / (p * p))

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

    def test_coordinate_enters_and_leaves_the_face(self):
        # From the vertex e_0 of a correlated concave quadratic, coordinate 2
        # enters the face, later hits zero in the ratio test, and the block
        # ends at the vertex e_1, where e_1's gradient is the largest.
        M = np.array([[0.2, -0.5, -0.4], [-2.4, 1.8, 1.1], [-0.3, 0.8, 0.3]])
        Q, t = M @ M.T + 0.1 * np.eye(3), np.array([-0.6, 1.0, -0.3])
        points = []

        def value(p):
            return -0.5 * float((p - t) @ Q @ (p - t))

        def derivatives(p):
            points.append(p.copy())
            return -Q @ (p - t), -Q

        res = optimize_simplex_block(value, derivatives, np.array([1.0, 0.0, 0.0]), CFG2)
        path = [float(p[2]) for p in points]
        assert path[0] == 0.0 and path[1] > 0.0 and path[-1] == 0.0
        assert res.point.tolist() == [0.0, 1.0, 0.0]
        g = -Q @ (res.point - t)
        assert g[1] > max(g[0], g[2])
        assert res.kkt_residual == 0.0

    def test_lags_sharing_a_column_give_a_singular_hessian(self):
        # k is longer than every line, so lags 4..6 read the first state at
        # every position: three equal columns of A.
        corpus = make_corpus(Vocabulary.from_size(3), [[0, 1, 2, 1], [1, 0, 0], [2, 2, 1, 0]])
        stats = ScoredPositions(corpus, 6)
        A = empirical_transition_matrix(corpus, 6).lookup_pairs(stats.src, stats.tgt[:, None])
        obj = learn._WeightObjective(A, 0.0)
        start = HistoryDistribution.geometric(0.8, 6).weights
        assert np.linalg.matrix_rank(obj.derivatives(start)[1]) < 6
        res = optimize_simplex_block(obj.value, obj.derivatives, start, CFG2)
        want = ref_optimize_simplex_block(*ref_weight_objective(A, 0.0), start, CFG2)
        assert res.kkt_residual <= CFG2.kkt_tol and res.iterations < CFG2.max_newton_iters
        assert res.value >= want.value - 1e-9 * abs(want.value)

    @pytest.mark.parametrize("prior", [0.0, 0.5])
    def test_prior_keeps_every_weight_positive(self, prior):
        # Lag 3 reads a tenth of lag 1's probability at every position, so
        # it takes no weight without a prior; the prior's barrier keeps it
        # positive.
        rng = np.random.default_rng(21)
        A = np.empty((40, 3))
        A[:, 0] = rng.random(40) + 0.05
        A[:, 1] = 1.1 - A[:, 0]
        A[:, 2] = 0.1 * A[:, 0]
        obj = learn._WeightObjective(A, prior)
        res = optimize_simplex_block(obj.value, obj.derivatives, np.full(3, 1.0 / 3.0), CFG2)
        assert res.kkt_residual <= CFG2.kkt_tol and res.iterations < CFG2.max_newton_iters
        assert (res.point[2] > 0.0) == bool(prior)
        assert (res.point[:2] > 0.0).all()


# ---------------------------------------------------------------------------
# Rows after a P half


def p_half(model, corpus, **settings):
    """The model after one P half of training from it, w fixed."""
    cfg = TrainConfig(k=model.k, **settings)
    q = learn._p_half(ScoredPositions(corpus, model.k), model.P, model.P.probs, model.w.weights, cfg)[0]
    P = SparseStochasticMatrix.from_csr(model.n, model.P.indptr, model.P.cols, q)
    return LampModel(model.w, P, model.vocab)


class TestOptimizeRow:
    """Each row of P after a P half, with w fixed."""

    def test_matches_row_grid_search(self):
        model = make_model([0.6, 0.4], worked_matrix())
        seqs = [[0, 1, 1, 0, 0, 1]]
        fitted = p_half(model, make_corpus(model, seqs), kkt_tol=1e-12, max_newton_iters=10000)
        dense = fitted.P.dense()
        achieved = ref_log_likelihood([0.6, 0.4], dense, seqs)[0]
        for x in range(2):
            best = -math.inf
            for a in np.linspace(0.0, 1.0, 1001):
                trial = dense.copy()
                trial[x] = [a, 1.0 - a]
                best = max(best, ref_log_likelihood([0.6, 0.4], trial, seqs)[0])
            assert achieved >= best - 1e-6

    def test_no_row_solve_improves_a_converged_half(self):
        # At the block optimum a Newton solve of any one row, the others
        # fixed, gains nothing beyond the tolerance.
        rng = np.random.default_rng(18)
        for _ in range(5):
            model = make_model(random_simplex(rng, 3), random_stochastic_matrix(rng, 4, min_entry=0.1))
            seqs = random_sequences(rng, 4, 6, 15)
            corpus = make_corpus(model, seqs)
            fitted = p_half(model, corpus, kkt_tol=1e-10, max_newton_iters=100000)
            achieved = ll_of(fitted, seqs)
            for x in range(4):
                dense = fitted.P.dense()
                dense[x, fitted.P.row_cols[x]] = ref_optimize_row(fitted, corpus, x, TrainConfig(k=3))
                assert ref_log_likelihood(fitted.w.weights, dense, seqs)[0] <= achieved + 1e-6

    def test_untouched_row_unchanged(self):
        rng = np.random.default_rng(6)
        model = make_model([0.5, 0.5], random_stochastic_matrix(rng, 3, min_entry=0.1))
        fitted = p_half(model, make_corpus(model, [[0, 1, 0, 1]]))  # state 2 never a source
        assert fitted.P.row_probs[2].tobytes() == model.P.row_probs[2].tobytes()

    def test_single_entry_row_stays_unit(self):
        P = SparseStochasticMatrix.from_rows(2, [[(1, 1.0)], [(0, 0.5), (1, 0.5)]])
        model = LampModel(HistoryDistribution.from_weights([1.0]), P, Vocabulary.from_size(2))
        fitted = p_half(model, make_corpus(model, [[0, 1, 0]]))
        assert fitted.P.row_probs[0].tolist() == [1.0]

    def test_other_rows_untouched_and_ll_not_decreased(self):
        # State 3 never occurs, so no scored position reaches its row.
        rng = np.random.default_rng(8)
        model = make_model(random_simplex(rng, 2), random_stochastic_matrix(rng, 4, min_entry=0.1))
        seqs = random_sequences(rng, 3, 4, 10)
        fitted = p_half(model, make_corpus(model, seqs))
        assert fitted.P.row_probs[3].tobytes() == model.P.row_probs[3].tobytes()
        assert ll_of(fitted, seqs) >= ll_of(model, seqs) - 1e-10


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

    def test_training_builds_the_position_table_once(self, monkeypatch):
        # The trainer hands its table to the initializer, which would build
        # the same table again from the corpus; the trained model keeps its
        # bits.
        rng = np.random.default_rng(9)
        corpus = make_corpus(Vocabulary.from_size(3), random_sequences(rng, 3, 5, 12))
        cfg = TrainConfig(k=2, rounds=1.5)
        expected, _ = alternate_minimize(corpus, cfg)
        built = []

        class CountingPositions(ScoredPositions):
            def __init__(self, corpus, k):
                built.append(k)
                super().__init__(corpus, k)

        monkeypatch.setattr(learn, "ScoredPositions", CountingPositions)
        model, _ = alternate_minimize(corpus, cfg)
        assert built == [2]
        assert model.P.probs.tobytes() == expected.P.probs.tobytes()
        assert model.w.weights.tobytes() == expected.w.weights.tobytes()

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
            assert r.iterations >= (r.block == "P")
            assert r.capped == (r.iterations == cfg.max_newton_iters and r.kkt_residual > cfg.kkt_tol)
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
            TrainConfig(k=2, kkt_tol=0.0)
        with pytest.raises(DataError):
            TrainConfig(k=2, prior_count=-1.0)

    @pytest.mark.parametrize(
        "name",
        ["rounds", "kkt_tol", "init_decay", "support_epsilon", "prior_count"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_field_is_named(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite"):
            TrainConfig(k=2, **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("k", True), ("max_newton_iters", 2.5), ("weight_only", "no"),
        ("rounds", True), ("prior_count", True), ("kkt_tol", "1e-6"), ("seed", None),
    ])
    def test_field_of_the_wrong_type_is_named(self, name, value):
        doc = {"k": 2, name: value}
        with pytest.raises(DataError, match=f"^{name} {value!r} is not"):
            TrainConfig(**doc)
        with pytest.raises(DataError, match=f"^{name} {value!r} is not"):
            TrainConfig.from_dict(doc)

    def test_integral_numbers_read_as_integers(self):
        cfg = TrainConfig(k=2.0, max_newton_iters=np.float64(3.0), seed=np.int32(4), rounds=2)
        assert (cfg.k, cfg.max_newton_iters, cfg.seed, cfg.rounds) == (2, 3, 4, 2.0)
        assert [type(v) for v in (cfg.k, cfg.max_newton_iters, cfg.seed, cfg.rounds)] == [int, int, int, float]

    def test_half_iteration_count(self):
        assert TrainConfig(k=2, rounds=0.5).half_iterations == 1
        assert TrainConfig(k=2, rounds=1.5).half_iterations == 3
        assert TrainConfig(k=2, rounds=3.0).half_iterations == 6

    def test_dict_round_trip(self):
        cfg = TrainConfig(k=3, rounds=2.5, prior_count=0.5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        json.dumps(cfg.to_dict())  # JSON-serializable

    @pytest.mark.parametrize("doc", [{"k": 2, "trust_init": 0.1}, {"rounds": 1.5}],
                             ids=["unknown-key", "missing-k"])
    def test_from_dict_refuses_malformed_documents(self, doc):
        with pytest.raises(DataError, match="malformed train config"):
            TrainConfig.from_dict(doc)


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
# Agreement with the reference trainer


def outcome(fn, *args):
    """fn(*args), or the type and message of the data or numeric error it raised."""
    try:
        return fn(*args)
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)


@st.composite
def training_cases(draw):
    """Small corpora with lines of length 1, states that never start a
    transition (empty rows) or have one successor (rows of size 1), and
    configurations from tight to loose tolerances and caps."""
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


def penalized(report, model, cfg):
    """The objective training ascends: the final log-likelihood plus the prior."""
    ll = report.final_log_likelihood
    if not cfg.prior_count:
        return ll
    return ll + cfg.prior_count * (float(np.log(model.w.weights).sum()) + float(np.log(model.P.probs).sum()))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6), k=st.integers(2, 3))
def test_long_training_leaves_every_snapped_entry_at_a_kkt_point(seed, n, k):
    # Embed the P trained for 20.5 rounds in the initializer's support, w
    # fixed.  On the simplex, an entry the snap set to zero is optimal only
    # if its gradient g is at most its row's multiplier lambda = sum(q * g);
    # allow 1% for halves that stop at kkt_tol.  A snap after every P half
    # breaks this: later halves cannot undo its zeros once w has moved on.
    rng = np.random.default_rng(seed)
    dense = random_stochastic_matrix(rng, n)
    dense[rng.random((n, n)) < 0.5] = 0.0
    dense[np.arange(n), (np.arange(n) + 1) % n] += 0.2
    source = make_model(rng.dirichlet(np.full(k, 4.0)), dense / dense.sum(axis=1, keepdims=True))
    seqs = [generate(source, int(rng.integers(n)), int(rng.integers(20, 60)), seed=i).tolist()
            for i in range(int(rng.integers(2, 6)))]
    corpus = make_corpus(source, seqs)
    cfg = TrainConfig(k=k, rounds=20.5)
    snapped = set()  # (row, column) pairs that a snap set to zero
    p_half, snap = learn._p_half, learn._EMHalf.snap

    def recording_p_half(stats, P, *args, **kwargs):
        def recording_snap(em, q, d, tol):
            out = snap(em, q, d, tol)
            zeroed = (q > 0.0) & (out[0] == 0.0)
            snapped.update(zip(P._entry_rows[zeroed].tolist(), P.cols[zeroed].tolist()))
            return out

        mp.setattr(learn._EMHalf, "snap", recording_snap)
        return p_half(stats, P, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learn, "_p_half", recording_p_half)
        model, _ = alternate_minimize(corpus, cfg)
    init = empirical_transition_matrix(corpus, k, cfg.support_epsilon)
    q = model.P.lookup_pairs(init._entry_rows, init.cols)
    embedded = SparseStochasticMatrix.from_csr(n, init.indptr, init.cols, q)
    g = np.concatenate(grad_P(LampModel(model.w, embedded, model.vocab), corpus))
    lam = np.bincount(init._entry_rows, weights=q * g, minlength=n)[init._entry_rows]
    pairs = zip(init._entry_rows.tolist(), init.cols.tolist())
    checked = np.array([pair in snapped for pair in pairs], dtype=bool)
    assert np.all(q[checked] == 0.0)
    assert np.all(g[checked] <= 1.01 * lam[checked])


class TestReferenceTrainer:
    @pytest.mark.parametrize("seed", range(3))
    def test_larger_corpus_reaches_reference_likelihood(self, seed):
        # Pinned corpora: the EM half ends no lower than a Newton solve of
        # every row in turn, on the objective both ascend.
        rng = np.random.default_rng(seed)
        seqs = random_sequences(rng, 30, 25, 40, min_len=1)
        corpus = make_corpus(Vocabulary.from_size(32), seqs)
        for cfg in (TrainConfig(k=3, rounds=2.5), TrainConfig(k=2, rounds=2.0, kkt_tol=0.5, prior_count=0.5)):
            got = penalized(*reversed(alternate_minimize(corpus, cfg)), cfg)
            want = penalized(*reversed(ref_alternate_minimize(corpus, cfg)), cfg)
            assert got >= want - 1e-9 * abs(want)

    @settings(max_examples=150, deadline=None)
    @given(model=sparse_models(), data=st.data())
    def test_grad_P_matches_reference_bitwise(self, model, data):
        seqs = data.draw(st.lists(st.lists(st.integers(0, model.n - 1), min_size=1, max_size=10), min_size=1, max_size=5))
        corpus = make_corpus(model, seqs)
        got, want = outcome(grad_P, model, corpus), outcome(ref_grad_P, model, corpus)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
        kkt_tol=st.sampled_from([1e-9, 1e-3]),
        cap=st.sampled_from([1, 3, 100]),
    )
    def test_simplex_block_reaches_the_reference_value(self, k, seed, kkt_tol, cap):
        # Unless the cap stops it, the projected Newton solver ends at its
        # tolerance, and at the tight one no lower than the diagonal-model
        # trust-region solver it replaced.  At any point p of a concave
        # objective, max(g) - g.p bounds how far the maximum lies above f(p).
        rng = np.random.default_rng(seed)
        c = rng.random(k) + 0.05
        b = rng.normal(0.0, 2.0, size=k)

        def value(p):
            if np.any(p <= 0.0):
                return -math.inf
            return float(c @ np.log(p) + b @ p)

        def gradient(p):
            return c / p + b

        cfg = TrainConfig(k=1, kkt_tol=kkt_tol, max_newton_iters=cap)
        start = random_simplex(rng, k)
        got = optimize_simplex_block(value, lambda p: (gradient(p), np.diag(-c / (p * p))), start, cfg)
        want = ref_optimize_simplex_block(value, lambda p: (gradient(p), -c / (p * p)), start, cfg)
        assert got.value == value(got.point) >= value(start)
        g = gradient(got.point)
        assert want.value <= got.value + float(g.max() - g @ got.point) + 1e-12
        if got.iterations < cap:
            assert got.kkt_residual <= kkt_tol
            if kkt_tol == 1e-9:
                assert got.value >= want.value - 1e-9 * abs(want.value)


# ---------------------------------------------------------------------------
# The EM update of a P half


@st.composite
def em_cases(draw):
    """A P half's inputs: a small corpus, its empirical P, lag weights that
    may hold zeros, and a prior count."""
    n = draw(st.integers(1, 5))
    seqs = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=12), min_size=0, max_size=6))
    seqs.append(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=12)))
    k = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    corpus = make_corpus(Vocabulary.from_size(n), seqs)
    P = empirical_transition_matrix(corpus, k, draw(st.sampled_from([1e-3, 0.3])))
    return ScoredPositions(corpus, k), P, np.array(raw) / sum(raw), draw(st.sampled_from([0.0, 0.5]))


def em_log_likelihood(em, q):
    with np.errstate(divide="ignore"):
        return float(np.log(em.mixture(q)).sum())


def em_objective(em, q):
    """What the EM update ascends: the log-likelihood plus the prior."""
    value = em_log_likelihood(em, q)
    return value + em.prior * float(np.log(q).sum()) if em.prior else value


def assert_rows_stochastic(P, q):
    assert (q >= 0.0).all()
    sums = np.add.reduceat(q, P.indptr[:-1][np.diff(P.indptr) > 0])
    assert np.allclose(sums, 1.0, rtol=0.0, atol=1e-12)


class TestEMHalf:
    @settings(max_examples=200, deadline=None)
    @given(case=em_cases())
    def test_no_update_lowers_the_objective(self, case):
        stats, P, w, prior = case
        em = learn._EMHalf(stats, P, w, prior)
        q = P.probs
        for _ in range(6):
            new = em.update(q, em.mixture(q))
            assert_rows_stochastic(P, new)
            before = em_objective(em, q)
            assert em_objective(em, new) >= before - 1e-12 * max(1.0, abs(before))
            q = new

    @settings(max_examples=200, deadline=None)
    @given(case=em_cases(), tol=st.sampled_from([1e-6, 1e-3]))
    def test_uncapped_half_ends_at_a_fixed_point(self, case, tol):
        # The half stops at its first update that moves no entry by more
        # than tol, so that update's input is a fixed point within tol.
        stats, P, w, prior = case
        em = learn._EMHalf(stats, P, w, prior)
        q, _, change, updates = em.iterate(P.probs, tol, 100000)
        assert change <= tol and updates < 100000
        before = P.probs
        if updates > 1:
            before, _, earlier, _ = em.iterate(P.probs, tol, updates - 1)
            assert earlier > tol
        step = em.update(before, em.mixture(before))
        assert step.tobytes() == q.tobytes()
        assert float(np.abs(step - before).max()) == change

    def test_cap_bounds_the_updates(self):
        corpus = make_corpus(Vocabulary.from_size(3), [[0, 1, 2, 0, 2, 1, 1, 0, 2, 2, 0]])
        stats, P = ScoredPositions(corpus, 3), empirical_transition_matrix(corpus, 3)
        cfg = TrainConfig(k=3, max_newton_iters=2)
        q, _, residual, updates = learn._p_half(stats, P, P.probs, np.full(3, 1.0 / 3.0), cfg)
        assert updates == 2 and residual > cfg.kkt_tol
        _, report = alternate_minimize(corpus, TrainConfig(k=3, rounds=1.0, max_newton_iters=2))
        assert [(r.iterations, r.capped) for r in report.records[2:]] == [(2, True)]

    @settings(max_examples=100, deadline=None)
    @given(case=training_cases())
    def test_prior_keeps_every_entry_positive_and_never_snaps(self, case):
        corpus, cfg = case
        cfg = TrainConfig(**{**cfg.to_dict(), "prior_count": 0.5, "kkt_tol": 0.5})
        result = outcome(alternate_minimize, corpus, cfg)
        if isinstance(result[0], type):
            return
        model, _ = result
        assert (model.P.probs > 0.0).all()
        stats = ScoredPositions(corpus, cfg.k)
        em = learn._EMHalf(stats, model.P, model.w.weights, cfg.prior_count)
        q = em.iterate(model.P.probs, cfg.kkt_tol, cfg.max_newton_iters)[0]
        got = learn._p_half(stats, model.P, model.P.probs, model.w.weights, cfg)[0]
        assert got.tobytes() == q.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=em_cases(), tol=st.sampled_from([1e-6, 0.05, 0.5]))
    def test_snap_is_kept_only_if_the_likelihood_does_not_fall(self, case, tol):
        stats, P, w, _ = case
        em = learn._EMHalf(stats, P, w, 0.0)
        q = em.iterate(P.probs, tol, 3)[0]
        snapped = em.snap(q, em.mixture(q), tol)[0]
        if snapped is q:
            return
        before = em_log_likelihood(em, q)  # a kept snap may cost rounding error
        assert em_log_likelihood(em, snapped) >= before - learn._ROUNDING * abs(before)
        dropped = (snapped == 0.0) & (q > 0.0)
        assert dropped.any() and (q[dropped] <= tol).all()
        assert_rows_stochastic(P, snapped)

    def test_snap_that_lowers_the_likelihood_is_refused(self):
        # k = 1, row 0 has counts (1, 2) and sits at (0.4, 0.6): the first
        # entry's gradient 2.5 is below lambda = 3, but zeroing it leaves the
        # transition 0 -> 1 impossible.
        corpus = make_corpus(Vocabulary.from_size(3), [[0, 1], [0, 2], [0, 2]])
        P = SparseStochasticMatrix.from_rows(3, [[(1, 0.4), (2, 0.6)], [], []])
        em = learn._EMHalf(ScoredPositions(corpus, 1), P, np.ones(1), 0.0)
        assert em.snap(P.probs, em.mixture(P.probs), 0.5)[0] is P.probs

    @pytest.mark.parametrize("share, kept", [(0.25, True), (4.0, False)], ids=["within", "beyond"])
    def test_snap_guard_allows_rounding_error(self, share, kept):
        # The snap's trial is given the mixture d scaled so that its
        # log-likelihood falls by `share` times the rounding allowance
        # _ROUNDING * |ll|: a drop within it is kept, one beyond it refused.
        corpus = make_corpus(Vocabulary.from_size(3), [[0, 1], [0, 2], [0, 2]])
        P = SparseStochasticMatrix.from_rows(3, [[(1, 0.4), (2, 0.6)], [], []])
        em = learn._EMHalf(ScoredPositions(corpus, 1), P, np.ones(1), 0.0)
        d = em.mixture(P.probs)
        cost = share * learn._ROUNDING * abs(float(np.log(d).sum()))
        em.mixture = lambda q: d * math.exp(-cost / d.size)
        snapped, snapped_d = em.snap(P.probs, d, 0.5)
        assert (snapped is not P.probs) == kept
        if kept:
            assert snapped.tolist() == [0.0, 1.0] and snapped_d is not d

    def test_snap_of_an_unreached_entry_is_kept(self):
        # With w = (1, 0) no pair reaches row 0's lag-2 entry 0 -> 0.
        corpus = make_corpus(Vocabulary.from_size(2), [[0, 1, 0]])
        P = empirical_transition_matrix(corpus, 2)
        em = learn._EMHalf(ScoredPositions(corpus, 2), P, np.array([1.0, 0.0]), 0.0)
        assert em.snap(P.probs, em.mixture(P.probs), 0.01)[0].tolist() == [0.0, 1.0, 1.0]

    def test_prior_keeps_a_row_read_only_at_zero_weight_lags(self):
        # With w = (0, 1), row 2 is read at lag 1 alone, so no pair reaches
        # it and the prior's q * g + prior must not flatten it.
        corpus = make_corpus(Vocabulary.from_size(3), [[1, 2, 0], [1, 2, 0], [1, 2, 1]])
        stats, P = ScoredPositions(corpus, 2), empirical_transition_matrix(corpus, 2)
        w = np.array([0.0, 1.0])
        assert not learn._EMHalf(stats, P, w, 0.5).reached[2]
        q = learn._p_half(stats, P, P.probs, w, TrainConfig(k=2, prior_count=0.5))[0]
        row = slice(P.indptr[2], P.indptr[3])
        assert P.probs[row].tolist() == [2.0 / 3.0, 1.0 / 3.0]
        assert q[row].tobytes() == P.probs[row].tobytes()
        assert q.tobytes() != P.probs.tobytes()

    @pytest.mark.parametrize("w", [(0.5, 0.0, 0.5), (0.5, 0.25, 0.25)], ids=["zero-lag", "all-live"])
    def test_gradient_is_the_per_pair_sum(self, w):
        # Pairs outside the support (row 2 stores only 2 -> 2, which no
        # pair reads) and, with a zero weight, every pair at lag 2 add
        # nothing; every other pair adds w_i / d[t] to its entry, in
        # position order, so the sums keep the bits of this loop.  Row 2 is
        # read only by pairs outside the support, so no pair reaches it.
        corpus = make_corpus(Vocabulary.from_size(3), [[0, 1, 2, 0, 1, 0, 2, 1], [1, 2, 0, 0, 1]])
        P = SparseStochasticMatrix.from_rows(
            3, [[(0, 0.2), (1, 0.5), (2, 0.3)], [(0, 0.4), (1, 0.3), (2, 0.3)], [(2, 1.0)]])
        w = np.array(w)
        stats = ScoredPositions(corpus, 3)
        where = {(int(r), int(c)): j for j, (r, c) in enumerate(zip(P._entry_rows, P.cols))}
        pairs = [(t, i, where.get((int(stats.src[t, i]), int(stats.tgt[t])))) for t in range(stats.T) for i in range(3)]
        assert any(j is None and w[i] > 0 for _, i, j in pairs)
        assert all(j is None for t, i, j in pairs if stats.src[t, i] == 2 and w[i] > 0)
        em = learn._EMHalf(stats, P, w, 0.0)
        d = em.mixture(P.probs)
        assert (d > 0.0).all()
        want = [0.0] * P.support_size
        for t, i, j in pairs:
            if w[i] > 0.0 and j is not None:
                want[j] += w[i] / d[t]
        assert [g.hex() for g in em.gradient(d).tolist()] == [g.hex() for g in want]
        assert em.reached.tolist() == [True, True, False]
        np.testing.assert_array_equal(grad_P(LampModel(HistoryDistribution(w), P, corpus.vocab), corpus)[2], [0.0])

    @settings(max_examples=200, deadline=None)
    @given(case=em_cases())
    def test_lag_one_weights_give_count_ratios(self, case):
        stats, P, w, _ = case
        w = np.eye(stats.k)[0]
        em = learn._EMHalf(stats, P, w, 0.0)
        new = em.update(P.probs, em.mixture(P.probs))
        counts = np.zeros((stats.n, stats.n))
        np.add.at(counts, (stats.src[:, 0], stats.tgt), 1.0)
        for x in range(stats.n):
            cols = P.row_cols[x]
            if cols.size:
                got = new[P.indptr[x] : P.indptr[x + 1]]
                assert np.allclose(got, counts[x, cols] / counts[x].sum(), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# One table for every block


def positive_model(support, q, w, vocab):
    """The model of lag weights w and the positive entries of q, the flat
    probabilities over ``support``'s entries."""
    keep = q > 0.0
    P = SparseStochasticMatrix._from_entries(support.n, support._entry_rows[keep], support.cols[keep], q[keep])
    return LampModel(HistoryDistribution(w), P, vocab)


@settings(max_examples=100, deadline=None)
@given(case=training_cases())
def test_em_mixture_is_the_scoring_kernels(case):
    # Every mixture EM computes (each update's input, the last point of a
    # half, the snap's trial) has the bits the scoring kernel gives for the
    # model of those lag weights and the positive entries.
    corpus, cfg = case
    seen = []  # (support, w, q, d) of every EM mixture
    init, mixture = learn._EMHalf.__init__, learn._EMHalf.mixture

    def recording_init(em, stats, support, w, *args, **kwargs):
        init(em, stats, support, w, *args, **kwargs)
        em.seen = (support, w)

    def recording_mixture(em, q):
        d = mixture(em, q)
        seen.append((*em.seen, q, d))
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learn._EMHalf, "__init__", recording_init)
        mp.setattr(learn._EMHalf, "mixture", recording_mixture)
        if isinstance(outcome(alternate_minimize, corpus, cfg)[0], type):
            return
    stats = ScoredPositions(corpus, cfg.k)
    for support, w, q, d in seen:
        model = positive_model(support, q, w, corpus.vocab)
        assert (stats.lag_probabilities(model) @ w).tobytes() == d.tobytes()


def test_training_memory_per_scored_pair_stays_bounded():
    # Training holds one (T, k) table, the initializer support's index of
    # every (position, lag) pair, and at each step at most the scratch of one
    # block.  On this corpus of 127 680 scored pairs its tracemalloc peak is
    # 31.5 bytes a pair (numpy 2.4): in the w half's Hessian, the table, A
    # and B = A / d.  The P half, whose gradient reads the table in place,
    # peaks at 24.2.  Keeping the sources and a per-pair position index
    # besides took 39.7.
    rng = np.random.default_rng(24)
    n, k = 60, 8
    source = make_model([1.0], rng.dirichlet(np.full(n, 0.3), size=n))
    corpus = make_corpus(source, [generate(source, int(rng.integers(n)), 400, seed=i).tolist() for i in range(40)])
    pairs = ScoredPositions(corpus, k).T * k
    assert pairs >= 10**5
    tracemalloc.start()
    try:
        alternate_minimize(corpus, TrainConfig(k=k, rounds=1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / pairs < 36.0, peak / pairs


def test_initializer_and_entry_peak_per_scored_pair():
    # The position table, the initializer and the support index of every
    # (position, lag) pair, up to the first mixture training computes.  The
    # table's sources become the pair keys, one argsort sorts them, and
    # their support index replaces them: at most three (T, k) integer tables
    # at once.  This support holds more than half the pairs, so the
    # support-sized arrays weigh too.  Building the keys once more for a
    # search of the support read 72.5 bytes a pair here; now 36.7 (numpy 2.4).
    rng = np.random.default_rng(28)
    n, k = 2000, 4
    P = np.zeros((n, n))
    for x in range(n):
        P[x, rng.choice(n, 5, replace=False)] = rng.dirichlet(np.ones(5))
    source = make_model([0.4, 0.3, 0.2, 0.1], P)
    corpus = make_corpus(source, [generate(source, int(rng.integers(n)), 40, seed=i).tolist() for i in range(800)])
    pairs = ScoredPositions(corpus, k).T * k
    assert empirical_transition_matrix(corpus, k).support_size >= pairs / 2

    class FirstMixture(Exception):
        pass

    def first_mixture(stats, d):
        raise FirstMixture(tracemalloc.get_traced_memory()[1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learn, "_denominators", first_mixture)
        tracemalloc.start()
        try:
            with pytest.raises(FirstMixture) as stop:
                alternate_minimize(corpus, TrainConfig(k=k))
        finally:
            tracemalloc.stop()
    peak = stop.value.args[0]
    assert peak / pairs <= 55.0, peak / pairs


def test_initializer_of_a_corpus_without_transitions_is_empty():
    # No scored position: the sort, the first-occurrence flags and the
    # support index all run on empty arrays.
    corpus = make_corpus(Vocabulary.from_size(3), [[2], [0], [2]])
    matrix, report = empirical_transition_matrix(corpus, 2, return_report=True)
    assert matrix.indptr.tolist() == [0, 0, 0, 0] and matrix.support_size == 0
    assert report == learn.EmpiricalMatrixReport(
        empty_rows=(0, 1, 2), support_size=0, lag1_pairs=0, clamped_only_pairs=0)


def test_dropping_zero_entries_keeps_every_bit_of_training():
    # Zeros stay in the table while training runs and leave the support only
    # when it returns: the trained model stores positive entries within the
    # initializer's support and scores the final record's log-likelihood to
    # the bit.  Weight-only training returns the initializer bitwise.  The
    # pinned case drops 2 of the initializer's 6 entries, so the drop is
    # checked on every run, whatever the drawn cases do.
    tally = Counter()

    @settings(max_examples=200, deadline=None)
    @given(case=training_cases(), weight_only=st.booleans())
    @example(case=(make_corpus(Vocabulary.from_size(3), [[1, 2, 0, 1, 0]]), TrainConfig(k=2, rounds=1.0)),
             weight_only=False)
    def check(case, weight_only):
        corpus, cfg = case
        cfg = TrainConfig(**{**cfg.to_dict(), "weight_only": weight_only})
        result = outcome(alternate_minimize, corpus, cfg)
        if isinstance(result[0], type):
            return
        model, report = result
        init = empirical_transition_matrix(corpus, cfg.k, cfg.support_epsilon)
        assert (model.P.probs > 0.0).all()
        assert (init.pair_indices(model.P._entry_rows, model.P.cols) >= 0).all()
        if weight_only:
            for name in ("indptr", "cols", "probs"):
                assert getattr(model.P, name).tobytes() == getattr(init, name).tobytes()
        d = ScoredPositions(corpus, cfg.k).lag_probabilities(model) @ model.w.weights
        assert float(np.log(d).sum()) == report.final_log_likelihood
        tally["dropped"] += model.P.support_size < init.support_size

    check()
    assert tally["dropped"] > 0


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
