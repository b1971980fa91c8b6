"""Tests for chain analysis: ergodicity, stationary vectors, mixing times,
the exponent process, and the renewal-based mixing bound."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_matrix,
    make_model,
    random_stochastic_matrix,
    ref_exponents,
    ref_is_ergodic,
    ref_mixing_time,
    ref_stationary,
    worked_matrix,
)

from lamp.core import (
    DataError,
    HistoryDistribution,
    LampModel,
    NonErgodicError,
    NumericError,
    SparseStochasticMatrix,
    Vocabulary,
)
from lamp import analysis
from lamp.analysis import (
    ErgodicityReport,
    ExponentTrace,
    MixingBound,
    bernstein_constant,
    empirical_state_distribution,
    export_trace_csv,
    is_ergodic,
    lamp_mixing_bound,
    mixing_time,
    renewal_rate_estimate,
    simulate_exponent_process,
    simulate_exponent_processes,
    stationary_distribution,
)
from lamp.glamp import lift_to_kth_order


def brute_stationary(dense):
    """Solve pi (P - I) = 0, sum(pi) = 1 as a least-squares system."""
    n = dense.shape[0]
    A = np.vstack([dense.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def brute_mixing(dense, delta, horizon=100_000):
    """Scan all start states over explicit dense powers, from P^0 = I."""
    pi = brute_stationary(dense)
    M = np.eye(dense.shape[0])
    for t in range(horizon):
        if 0.5 * np.max(np.abs(M - pi).sum(axis=1)) <= delta:
            return t
        M = M @ dense
    raise AssertionError("chain did not mix within the horizon")


def ring_chain(rng, n, ring):
    """Row i moves to i+1 with probability ``ring`` and to two random states
    with the rest, so every row holds at most three entries."""
    rows = np.repeat(np.arange(n), 3)
    cols = np.stack([np.arange(1, n + 1) % n, *(rng.integers(0, n, (2, n)))], axis=1).ravel()
    probs = np.column_stack([np.full(n, ring), (1.0 - ring) * rng.dirichlet(np.ones(2), size=n)])
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), probs.ravel())
    return SparseStochasticMatrix.from_dense(dense)


def band_chain(rng, n, width, ring):
    """Row i moves to i+1 with probability ``ring`` and to i+2 and width - 2
    other random states with the rest, so every row holds exactly ``width``
    entries and the chain is ergodic: it has cycles of n and n - 1 steps."""
    others = [rng.choice(np.arange(3, n), width - 2, replace=False) for _ in range(n)]
    offsets = np.column_stack([np.ones(n, dtype=np.int64), np.full(n, 2), np.reshape(others, (n, width - 2))])
    probs = np.column_stack([np.full(n, ring), (1.0 - ring) * rng.dirichlet(np.ones(width - 1), size=n)])
    dense = np.zeros((n, n))
    dense[np.arange(n)[:, None], (np.arange(n)[:, None] + offsets) % n] = probs
    return SparseStochasticMatrix.from_dense(dense)


def stepwise_tv(P, t_max):
    """d(0..t_max) over the stepwise products P^t = P^(t-1) P."""
    pi, dense = ref_stationary(P), P.dense()
    M, d = np.eye(P.n), [1.0 - float(pi.min())]
    for _ in range(t_max):
        M = M @ dense
        d.append(0.5 * float(np.max(np.abs(M - pi).sum(axis=1))))
    return d


@st.composite
def class_graphs(draw):
    """(n, rows) for SparseStochasticMatrix.from_rows, n up to 40.  Edges run
    from class c to class c + 1 mod d, so d > 1 allows a periodic chain; a
    row draws a value for at most ``width`` of its targets, and may end up
    empty or hold explicit zeros."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    width = draw(st.integers(1, 9))
    cls = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    rows = []
    for x in range(n):
        targets = [y for y in range(n) if cls[y] == (cls[x] + 1) % d]
        if targets:
            targets = sorted(draw(st.lists(st.sampled_from(targets), max_size=width, unique=True)))
        cells = draw(st.lists(st.integers(-2, 3), min_size=len(targets), max_size=len(targets)))
        mass = sum(v for v in cells if v > 0)
        rows.append([(y, v / mass) for y, v in zip(targets, cells) if v >= 0] if mass else [])
    return n, rows


def cycle_with_edge(n, source, target, p):
    """The cycle 0 -> 1 -> ... -> n-1 -> 0 and one more edge, source ->
    target with probability p, stored even when p is 0."""
    rows = [[((x + 1) % n, 1.0)] for x in range(n)]
    rows[source] = [((source + 1) % n, 1.0 - p), (target, p)]
    return n, rows


def schedule(monkeypatch, P):
    """Record what mixing_time does from now on, in order: "r" for a unit
    step through P's rows, "p" for a dense product with P on the left, "g"
    for any other dense product and "F" for a full total-variation scan.
    The batched products inside a row step are 3-D and are not dense
    products."""
    events, dense = [], P.dense()
    row_steps, matmul, worst_tv = analysis._sparse_times, np.matmul, analysis._worst_tv

    def product(a, b, **kwargs):
        if np.ndim(a) == 2:
            events.append("p" if np.array_equal(a, dense) else "g")
        return matmul(a, b, **kwargs)

    def scan(M, pi, buf, stop=math.inf):
        if stop == math.inf:
            events.append("F")
        return worst_tv(M, pi, buf, stop)

    monkeypatch.setattr(analysis, "_sparse_times", lambda *args: events.append("r") or row_steps(*args))
    monkeypatch.setattr(np, "matmul", product)
    monkeypatch.setattr(analysis, "_worst_tv", scan)
    return events


class TestErgodicity:
    def test_worked_matrix_is_ergodic(self):
        report = is_ergodic(SparseStochasticMatrix.from_dense(worked_matrix()))
        assert report == ErgodicityReport(True, "ergodic")

    def test_permutation_is_periodic(self):
        P = SparseStochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert is_ergodic(P) == ErgodicityReport(False, "periodic")

    def test_identity_is_reducible(self):
        P = SparseStochasticMatrix.from_dense(np.eye(2))
        assert is_ergodic(P) == ErgodicityReport(False, "reducible")

    def test_pure_cycle_is_periodic(self):
        P = SparseStochasticMatrix.from_dense(cycle_matrix(6, 0.0))
        assert is_ergodic(P) == ErgodicityReport(False, "periodic")

    def test_cycle_with_self_loop_is_ergodic(self):
        P = SparseStochasticMatrix.from_dense(cycle_matrix(6, 0.2))
        assert is_ergodic(P).ergodic

    def test_one_way_edge_is_reducible(self):
        P = SparseStochasticMatrix.from_dense(
            np.array([[0.5, 0.5], [0.0, 1.0]])
        )
        assert is_ergodic(P) == ErgodicityReport(False, "reducible")

    def test_stored_zero_probability_entries_are_not_edges(self):
        # A zero-probability self-loop must not break the period-2 structure.
        P = SparseStochasticMatrix.from_rows(
            2, [[(0, 0.0), (1, 1.0)], [(0, 1.0)]]
        )
        assert is_ergodic(P) == ErgodicityReport(False, "periodic")

    def test_single_state(self):
        P = SparseStochasticMatrix.from_dense(np.array([[1.0]]))
        assert is_ergodic(P).ergodic

    def test_report_consistency_validated(self):
        with pytest.raises(DataError):
            ErgodicityReport(True, "reducible")
        with pytest.raises(DataError):
            ErgodicityReport(False, "nonsense")

    @settings(max_examples=300, deadline=None)
    @given(graph=class_graphs(), block=st.integers(1, 5))
    # A cycle of 60 with a self-loop on its last state: both searches go 60
    # levels deep, and the gcd reaches 1 only in the last block.  Stored as
    # 0, the loop leaves the cycle periodic.  A chord 58 -> 0 closes a cycle
    # of 59: the gcd reaches 1 only from the gaps 59 and 60 of two blocks.
    @example(graph=cycle_with_edge(60, 59, 59, 0.5), block=2)
    @example(graph=cycle_with_edge(60, 59, 59, 0.0), block=3)
    @example(graph=cycle_with_edge(60, 58, 0, 0.5), block=1)
    @example(graph=(2, [[(0, 0.0), (1, 1.0)], [(0, 1.0)]]), block=1)
    def test_matches_python_bfs_oracle(self, graph, block):
        # Each graph is classified as it is and again with blocks of a few
        # edges, so frontiers, the in-neighbour lists and the gcd span many
        # blocks, and a block can hold only stored zeros.
        P = SparseStochasticMatrix.from_rows(*graph)
        want = ref_is_ergodic(P)
        assert is_ergodic(P).reason == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_EDGE_BLOCK", block)
            assert is_ergodic(P).reason == want

    def test_scratch_is_a_block_and_the_in_neighbour_sources(self):
        # The dense 20^3 lift of test_glamp's memory test: 8000 states and
        # 160 000 entries.  Besides arrays of n entries, the check holds the
        # in-neighbour sources (4 bytes an edge) and one block of edges.
        rng = np.random.default_rng(3)
        n = 20
        mats = tuple(SparseStochasticMatrix.from_dense(rng.dirichlet(np.ones(n), size=n)) for _ in range(2))
        model = LampModel.per_lag(
            HistoryDistribution.from_weights([0.5, 0.3, 0.2]), mats, (1, 2, 1), Vocabulary.from_size(n))
        Q = lift_to_kth_order(model).Q
        assert Q.cols.size == n**3 * n
        assert is_ergodic(Q).ergodic  # the first call loads what numpy imports lazily
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert is_ergodic(Q).ergodic
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 1.5 * Q.cols.nbytes, (peak - held) / Q.cols.nbytes

    def test_validated_matrix_keeps_only_its_three_arrays(self):
        # Validation reads each entry's row from a local array; the matrix
        # builds and caches that array only when a reader asks for it.
        rng = np.random.default_rng(5)
        n, width = 5000, 8
        indptr = width * np.arange(n + 1)
        cols = np.sort((np.arange(n)[:, None] + 600 * np.arange(width)) % n, axis=1).ravel()
        probs = rng.dirichlet(np.ones(width), size=n).ravel()
        tracemalloc.start()
        try:
            m = SparseStochasticMatrix.from_csr(n, indptr, cols, probs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= indptr.nbytes + cols.nbytes + probs.nbytes + 4096, held
        assert np.array_equal(m._entry_rows, np.repeat(np.arange(n), width))


class TestStationaryDistribution:
    def test_worked_matrix(self):
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        pi = stationary_distribution(P)
        assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)

    def test_circulant_is_uniform(self):
        row = np.array([0.5, 0.3, 0.2])
        dense = np.array([np.roll(row, s) for s in range(3)])
        pi = stationary_distribution(SparseStochasticMatrix.from_dense(dense))
        assert np.allclose(pi, 1.0 / 3.0, atol=1e-10)

    def test_non_ergodic_raises(self):
        P = SparseStochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonErgodicError):
            stationary_distribution(P)

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            dense = random_stochastic_matrix(rng, n, min_entry=0.02)
            pi = stationary_distribution(SparseStochasticMatrix.from_dense(dense))
            assert np.allclose(pi, brute_stationary(dense), atol=1e-9)

    def test_residual_contract(self):
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        tol = 1e-10
        pi = stationary_distribution(P, tol=tol)
        assert np.abs(P.left_multiply(pi) - pi).sum() <= tol

    def test_invalid_tol(self):
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        with pytest.raises(DataError):
            stationary_distribution(P, tol=0.0)
        with pytest.raises(DataError):
            stationary_distribution(P, tol=math.nan)


class TestMixingTime:
    def test_worked_matrix(self):
        # The second eigenvalue is 0.7 and the worst start is state 1, the
        # state with the smaller stationary mass: its total variation decays
        # as (2/3) * 0.7^t, which first drops to 0.01 at t = 12.
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        t_eig = min(
            t for t in range(1, 100) if (2.0 / 3.0) * 0.7**t <= 0.01
        )
        assert t_eig == 12
        assert mixing_time(P, 0.01) == 12
        assert brute_mixing(worked_matrix(), 0.01) == 12

    def test_matches_brute_oracle_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            dense = random_stochastic_matrix(rng, n, min_entry=0.05)
            P = SparseStochasticMatrix.from_dense(dense)
            for delta in (0.05, 0.01):
                assert mixing_time(P, delta) == brute_mixing(dense, delta)

    def test_uniform_matrix_mixes_in_one_step(self):
        P = SparseStochasticMatrix.from_dense(np.full((3, 3), 1.0 / 3.0))
        assert mixing_time(P, 0.01) == 1

    def test_vacuous_threshold(self):
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        assert mixing_time(P, 1.0) == 0
        assert mixing_time(P, 2.5) == 0

    def test_zero_when_the_start_is_within_delta(self):
        # d(0) = 1 - min(pi): 0 for one state, 0.5 for the two-state chain
        # whose every entry is 1/2, which mixes fully in one step.
        one = SparseStochasticMatrix.from_dense(np.array([[1.0]]))
        assert mixing_time(one, 0.01) == 0
        half = np.full((2, 2), 0.5)
        P = SparseStochasticMatrix.from_dense(half)
        assert mixing_time(P, 0.6) == brute_mixing(half, 0.6) == ref_mixing_time(P, 0.6) == 0
        assert mixing_time(P, 0.4) == brute_mixing(half, 0.4) == ref_mixing_time(P, 0.4) == 1
        bound = lamp_mixing_bound(HistoryDistribution.from_weights([0.5, 0.5]), P, delta=0.6, epsilon=1.0, T=7)
        assert (bound.chain_mixing_time, bound.bound) == (0, 7)

    def test_state_guard(self):
        n = 2001
        rows = [[((x + 1) % n, 1.0)] for x in range(n)]
        P = SparseStochasticMatrix.from_rows(n, rows)
        with pytest.raises(DataError):
            mixing_time(P, 0.01)

    def test_non_ergodic_raises(self):
        P = SparseStochasticMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonErgodicError):
            mixing_time(P, 0.01)

    @pytest.mark.parametrize("low, high, ring, common", [
        (1, 1, (0.0, 0.3), (0.8, 1.0)),
        (2, 8, (0.0, 0.6), (0.0, 0.0)),
        (17, 10_000, (0.9, 0.98), (0.0, 0.0)),
        (9, 16, (0.7, 0.9), (0.0, 0.0)),
        pytest.param(1, 10_000, None, None, id="lazy-cycle"),
    ])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_stepwise_oracle(self, low, high, ring, common, data):
        # Each case draws chains whose stepwise mixing time lies in
        # [low, high]: one step, within the first giant step, past two, and
        # within the second.
        # A ring of weight r mixes slowly, a common row shared with weight c
        # mixes in one step, and random rows mix in a few.  A lazy cycle
        # (no ring range) keeps state 0 with probability lazy and moves
        # every other state to its successor, so d(t) sits on a plateau
        # before it falls.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(2, 30 if ring is None else 8))
        delta = data.draw(st.floats(0.005, 0.3))
        if ring is None:
            dense = cycle_matrix(n, data.draw(st.sampled_from((0.2, 0.5, 0.8))))
        else:
            r, c = data.draw(st.floats(*ring)), data.draw(st.floats(*common))
            noise = random_stochastic_matrix(rng, n, min_entry=0.05)
            dense = r * np.roll(np.eye(n), 1, axis=1) + (1.0 - r) * noise
            dense = (1.0 - c) * dense + c * rng.dirichlet(np.ones(n))
        P = SparseStochasticMatrix.from_dense(dense)
        expected = ref_mixing_time(P, delta)
        assume(low <= expected <= high)
        assert mixing_time(P, delta) == expected

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(144, 200), ring=st.floats(0.05, 0.9),
           delta=st.floats(0.005, 0.3))
    def test_row_steps_match_stepwise_oracle(self, seed, n, ring, delta):
        # At most three entries per row and n = 144..200 states straddle the
        # split: from n = 3 * _CSR_STEP_RATIO up the search is the row walk,
        # with no dense product, and below that it takes giant steps, with
        # no row step.
        P = ring_chain(np.random.default_rng(seed), n, ring)
        assume(is_ergodic(P).ergodic)
        walk = int(np.diff(P.indptr).max()) * analysis._CSR_STEP_RATIO <= n
        with pytest.MonkeyPatch.context() as mp:
            events = schedule(mp, P)
            assert mixing_time(P, delta) == ref_mixing_time(P, delta)
        assert (set(events) <= {"r"}) if walk else ("r" not in events)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(450, 480), ring=st.floats(0.05, 0.9),
           delta=st.floats(0.005, 0.3))
    def test_row_walk_matches_stepwise_oracle(self, seed, n, ring, delta):
        # At most three entries per row and n >= 450 states: the search is
        # the row walk, with no dense product.
        P = ring_chain(np.random.default_rng(seed), n, ring)
        assume(is_ergodic(P).ergodic)
        with pytest.MonkeyPatch.context() as mp:
            events = schedule(mp, P)
            assert mixing_time(P, delta) == ref_mixing_time(P, delta)
        assert set(events) <= {"r"}

    @pytest.mark.parametrize("n", [100, 180, 450])
    def test_every_crossing_is_found_within_one_giant_step(self, n, monkeypatch):
        # A threshold between d(t - 1) and d(t) puts the crossing at t, for
        # every t = 1..40.  Three entries per row take the row walk at
        # n = 180 and 450 and giant steps at n = 100.  The walk forms no
        # dense product and reaches P^t in exactly t - 1 row steps from P.
        # With giant steps, at most eight unit steps follow the last one.
        P = ring_chain(np.random.default_rng(5), n, 0.8)
        walk = int(np.diff(P.indptr).max()) * analysis._CSR_STEP_RATIO <= n
        assert walk == (n != 100)
        d = stepwise_tv(P, 40)
        events = schedule(monkeypatch, P)
        kinds = set()
        for t in range(1, 41):
            assert d[t - 1] > 1.001 * d[t]
            delta = math.sqrt(d[t - 1] * d[t])
            assert ref_mixing_time(P, delta) == t
            events.clear()
            assert mixing_time(P, delta) == t
            products = [e for e in events if e != "F"]
            kinds.update(products)
            if walk:
                assert products == ["r"] * (t - 1)
                continue
            last_giant = len(products) - products[::-1].index("g")
            assert len(products) - last_giant <= 8
        assert kinds == ({"r"} if walk else {"p", "g"})

    @pytest.mark.parametrize("width", [3, 4, 6])
    @pytest.mark.parametrize("wider", [False, True])
    def test_longest_row_picks_the_schedule(self, width, wider, monkeypatch):
        # A chain whose longest row times _CSR_STEP_RATIO is n takes the row
        # walk: row steps and no dense product.  One entry wider, it takes
        # giant steps: dense products and no row step.
        n = width * analysis._CSR_STEP_RATIO
        P = band_chain(np.random.default_rng(width), n, width + wider, 0.6)
        assert int(np.diff(P.indptr).max()) == width + wider
        events = schedule(monkeypatch, P)
        assert mixing_time(P, 0.05) == ref_mixing_time(P, 0.05)
        assert set(events) - {"F"} == ({"p", "g"} if wider else {"r"})

    def test_dense_schedule_is_squarings_giant_steps_then_unit_steps(self, monkeypatch):
        # The lazy 13-cycle's d sits on plateaus, and its rows are too long
        # for row steps.  Three squarings form G = P^8; the giant steps land
        # on P^8 = G, with no product, and then on P^(8j+8) = P^(8j) G while
        # the landing stays above delta; unit steps P P^(t-1) from the last
        # power above delta, at most eight, end at the stepwise crossing.
        # No scan reads a whole matrix.
        P = SparseStochasticMatrix.from_dense(cycle_matrix(13, 0.5))
        delta = 0.5
        t = ref_mixing_time(P, delta)
        d = stepwise_tv(P, t)
        last = max(j for j in range(t // 8 + 1) if d[8 * j] > delta)  # P^(8 last), the last above delta
        assert last >= 2 and min(d[8 * j] for j in range(1, last + 1)) > delta
        events = schedule(monkeypatch, P)
        assert mixing_time(P, delta) == t
        assert "".join(events) == "pgg" + "g" * last + "p" * (t - 8 * last)
        assert t - 8 * last <= 8

    @pytest.mark.parametrize("n", [100, 150, 450])
    def test_last_power_read_is_the_crossing(self, n, monkeypatch):
        # d(t) never rises, so nothing past the first crossing is read: the
        # last matrix whose total variation is taken is P^t itself.  Three
        # entries per row take giant steps with dense unit steps at n = 100
        # and 150, and the row walk at n = 450.
        P = ring_chain(np.random.default_rng(5), n, 0.8)
        last = []
        worst_tv = analysis._worst_tv
        monkeypatch.setattr(analysis, "_worst_tv", lambda M, *args: last.append(M.copy()) or worst_tv(M, *args))
        for delta in (0.3, 0.05, 0.01):
            last.clear()
            t = mixing_time(P, delta)
            np.testing.assert_allclose(last[-1], np.linalg.matrix_power(P.dense(), t), rtol=0, atol=1e-12)

    def test_converged_powers_end_the_search(self, monkeypatch):
        # From about t = 50 the rows of this chain's powers agree to rounding
        # and d sits near 6e-16.  A delta below that ends at the next giant
        # step instead of walking _MIXING_HORIZON powers (125 002 total
        # variation scans); a delta above it is found at the crossing of the
        # stepwise powers against a linear-solve pi.
        dense = np.array([[0.3, 0.7, 0.0], [0.0, 0.6, 0.4], [0.55, 0.0, 0.45]])
        P = SparseStochasticMatrix.from_dense(dense)
        calls = []
        worst_tv = analysis._worst_tv
        monkeypatch.setattr(analysis, "_worst_tv", lambda *args: calls.append(1) or worst_tv(*args))
        with pytest.raises(NumericError, match="mixing-time horizon exceeded"):
            mixing_time(P, 1e-30)
        assert len(calls) <= 20
        for delta in (1e-13, 1e-12):
            calls.clear()
            assert mixing_time(P, delta) == brute_mixing(dense, delta)
            assert len(calls) <= 20

    def test_row_walk_ends_where_the_rows_agree(self, monkeypatch):
        # The converged-rows exit holds on the row walk too: with a delta
        # below rounding, the walk checks the rows of every P^(8j) and raises
        # at the first one whose rows agree within n·2^-52.
        P = ring_chain(np.random.default_rng(5), 450, 0.8)
        checks = []
        rows_agree = analysis._rows_agree
        monkeypatch.setattr(analysis, "_rows_agree", lambda M, buf: checks.append(M.copy()) or rows_agree(M, buf))
        with pytest.raises(NumericError, match="mixing-time horizon exceeded"):
            mixing_time(P, 1e-30)
        spread = [0.5 * float(np.abs(M - M[0]).sum(axis=1).max()) for M in checks]
        assert min(spread[:-1]) > P.n * 2.0**-52 >= spread[-1]
        dense = P.dense()
        for j, M in enumerate(checks, 1):
            np.testing.assert_allclose(M, np.linalg.matrix_power(dense, 8 * j), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dense", [False, True])
    def test_memory_stays_within_four_dense_arrays(self, dense):
        # The row walk keeps two n x n arrays live (two powers) and the dense
        # steps four (P, P^8 and two powers), plus one block of rows for
        # total variation and the row steps, and a quarter of an array for
        # vectors and ufunc buffers.  Three entries per row take the row
        # walk at n = 450.
        n = 450
        rng = np.random.default_rng(9)
        if dense:
            P = SparseStochasticMatrix.from_dense(
                0.9 * np.roll(np.eye(n), 1, axis=1) + 0.1 * rng.dirichlet(np.ones(n), size=n))
        else:
            P = ring_chain(rng, n, 0.9)
            assert int(np.diff(P.indptr).max()) * analysis._CSR_STEP_RATIO <= n
        t = mixing_time(P, 0.01)  # the first call loads what numpy imports lazily
        tracemalloc.start()
        try:
            assert mixing_time(P, 0.01) == t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = n * n * 8
        arrays, block = (4, analysis._TV_BLOCK * 8) if dense else (2, analysis._GATHER_BLOCK * 8)
        assert peak <= arrays * array + block + array // 4

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), rows=st.integers(1, 12), block=st.integers(1, 5),
           stop=st.floats(0.0, 1.0))
    def test_worst_tv_stops_only_above_the_threshold(self, seed, rows, block, stop):
        rng = np.random.default_rng(seed)
        M = rng.dirichlet(np.ones(4), size=rows)
        pi = rng.dirichlet(np.ones(4))
        buf = np.empty((block, 4))
        full = analysis._worst_tv(M, pi, buf)
        assert full == 0.5 * float(np.abs(M - pi).sum(axis=1).max())
        got = analysis._worst_tv(M, pi, buf, stop)
        if full > stop:
            assert stop < got <= full
        else:
            assert got == full

    def test_empty_row_is_named(self):
        P = SparseStochasticMatrix.from_rows(3, [[(1, 1.0)], [(0, 0.5), (1, 0.5)], []])
        model = LampModel(HistoryDistribution.from_weights([0.5, 0.5]), P, Vocabulary.from_size(3))
        for analysis in (
            lambda: stationary_distribution(P),
            lambda: mixing_time(P, 0.1),
            lambda: lamp_mixing_bound(model.w, P, 0.1, 1.0, 10),
            lambda: empirical_state_distribution(model, steps=10, burn_in=0, seed=0),
        ):
            with pytest.raises(NonErgodicError, match="state 2 has no outgoing") as info:
                analysis()
            assert info.value.empty_state == 2
        assert is_ergodic(P).reason == "reducible"

    def test_invalid_delta(self):
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        with pytest.raises(DataError):
            mixing_time(P, 0.0)
        with pytest.raises(DataError):
            mixing_time(P, math.nan)
        assert mixing_time(P, math.inf) == 0


class TestExponentProcess:
    def test_lag_one_counts_every_step(self):
        w = HistoryDistribution.from_weights([1.0])
        trace = simulate_exponent_process(w, 50, seed=3)
        assert np.array_equal(trace.exponents, np.arange(1, 51))

    def test_prefix_coupling(self):
        # A longer horizon with the same seed extends the shorter trace.
        w = HistoryDistribution.from_weights([0.5, 0.3, 0.2])
        short = simulate_exponent_process(w, 300, seed=9)
        long = simulate_exponent_process(w, 800, seed=9)
        assert np.array_equal(long.exponents[:300], short.exponents)

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any),
        t_max=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(raw=[1, 1], t_max=1, seed=0)
    @example(raw=[1, 1], t_max=2, seed=0)
    def test_matches_fancy_indexing_oracle(self, raw, t_max, seed):
        w = HistoryDistribution.from_weights(np.array(raw) / sum(raw))
        trace = simulate_exponent_process(w, t_max, seed)
        assert np.array_equal(trace.exponents, ref_exponents(w, t_max, seed))
        batch = simulate_exponent_processes(w, t_max, 3, seed)
        for i in range(3):
            assert np.array_equal(batch[i], ref_exponents(w, t_max, seed ^ i))

    def test_batch_rows_match_scalar_seeds(self):
        w = HistoryDistribution.from_weights([0.6, 0.4])
        batch = simulate_exponent_processes(w, 200, 6, seed=123)
        assert batch.shape == (6, 200)
        for i in (0, 1, 5):
            scalar = simulate_exponent_process(w, 200, seed=123 ^ i)
            assert np.array_equal(batch[i], scalar.exponents)

    def test_pointwise_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            raw = rng.random(k) + 1e-3
            w = HistoryDistribution.from_weights(raw / raw.sum())
            e = simulate_exponent_processes(w, 400, 5, seed=int(rng.integers(1 << 20)))
            t = np.arange(1, 401)
            assert np.all(e[:, 0] == 1)
            assert np.all(e <= t)
            assert np.all(e >= np.ceil(t / k).astype(np.int64))

    def test_law_of_large_numbers_two_lags(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        trace = simulate_exponent_process(w, 100_000, seed=42)
        rate = trace.exponents[-1] / trace.t_max
        assert 0.66 <= rate <= 0.674  # 1/E[w] = 2/3

    def test_rate_for_skewed_lags(self):
        w = HistoryDistribution.from_weights([0.9, 0.1])
        trace = simulate_exponent_process(w, 100_000, seed=4)
        est = renewal_rate_estimate(trace, w)
        assert abs(est.rate - 1.0 / 1.1) <= 0.01
        assert est.predicted == pytest.approx(1.0 / 1.1)

    def test_rate_for_heavy_tailed_lags(self):
        i = np.arange(1, 51, dtype=float)
        raw = i**-2.5
        w = HistoryDistribution.from_weights(raw / raw.sum())
        trace = simulate_exponent_process(w, 100_000, seed=8)
        est = renewal_rate_estimate(trace, w)
        assert abs(est.rate - est.predicted) <= 0.02

    def test_clt_normalized_fluctuations(self):
        # Coarse normality: about 95% of normalized fluctuations at a long
        # horizon should fall within +/-1.96.
        w = HistoryDistribution.from_weights([0.5, 0.5])
        t_max = 10_000
        e = simulate_exponent_processes(w, t_max, 1000, seed=20240819)
        mu, sigma = 1.5, 0.5
        stats = (e[:, -1] - t_max / mu) / (sigma * mu**-1.5 * math.sqrt(t_max))
        frac = float(np.mean(np.abs(stats) <= 1.96))
        assert 0.93 <= frac <= 0.97

    def test_renewal_estimate_deterministic_lags(self):
        w = HistoryDistribution.from_weights([1.0])
        trace = simulate_exponent_process(w, 100, seed=0)
        est = renewal_rate_estimate(trace, w)
        assert est.rate == 1.0
        assert est.predicted == 1.0
        assert est.clt_statistic is None

    def test_renewal_estimate_formula(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        trace = simulate_exponent_process(w, 1000, seed=2)
        est = renewal_rate_estimate(trace, w)
        e_t = trace.exponents[-1]
        expected = (e_t - 1000 / 1.5) / (0.5 * 1.5**-1.5 * math.sqrt(1000))
        assert est.clt_statistic == pytest.approx(expected, rel=1e-12)

    def test_trace_validation(self):
        with pytest.raises(DataError):
            ExponentTrace(t_max=2, exponents=np.array([2, 2]), seed=0)  # e_1 != 1
        with pytest.raises(DataError):
            ExponentTrace(t_max=2, exponents=np.array([1, 5]), seed=0)  # e_2 > 2
        trace = ExponentTrace(t_max=3, exponents=np.array([1, 2, 2]), seed=0)
        assert trace.exponent_at(3) == 2
        with pytest.raises(DataError):
            trace.exponent_at(4)

    def test_invalid_sizes(self):
        w = HistoryDistribution.from_weights([1.0])
        with pytest.raises(DataError):
            simulate_exponent_process(w, 0, seed=1)
        with pytest.raises(DataError):
            simulate_exponent_processes(w, 5, 0, seed=1)


class TestBernsteinConstant:
    def test_half_half_at_epsilon_one(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        assert bernstein_constant(w, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_single_lag_closed_form(self):
        w = HistoryDistribution.from_weights([1.0])
        for eps in (0.1, 0.5, 1.0, 2.0):
            expected = 3.0 * eps / (2.0 * (1.0 + eps))
            assert bernstein_constant(w, eps) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 7))
            raw = rng.random(k) + 1e-2
            w = HistoryDistribution.from_weights(raw / raw.sum())
            eps = float(rng.uniform(0.05, 2.0))
            lags = np.arange(1, k + 1)
            mean = float(lags @ w.weights)
            var = float((lags**2) @ w.weights) - mean**2
            expected = eps**2 * mean / ((1 + eps) * (2 * var + (2.0 / 3.0) * k * eps * mean))
            assert bernstein_constant(w, eps) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_epsilon(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        grid = [bernstein_constant(w, eps) for eps in (0.01, 0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_tail_probability_respects_bound(self):
        # With w = (1/2, 1/2) the a-th renewal time is a + Binomial(a, 1/2),
        # so the lower-deviation tail at time t = (1+eps) E[w] a has an exact
        # binomial expression that must sit below exp(-C(eps) t).
        w = HistoryDistribution.from_weights([0.5, 0.5])
        eps = 0.2
        C = bernstein_constant(w, eps)
        for a in (10, 20, 40, 80):
            t = (1 + eps) * 1.5 * a
            threshold = math.ceil(t - a)  # Binomial part must reach t - a
            tail = float(
                sum(Fraction(math.comb(a, b), 2**a) for b in range(threshold, a + 1))
            )
            assert tail <= math.exp(-C * t)

    def test_invalid_epsilon(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        with pytest.raises(DataError):
            bernstein_constant(w, 0.0)
        with pytest.raises(DataError):
            bernstein_constant(w, math.nan)
        with pytest.raises(DataError):
            bernstein_constant(w, math.inf)


class TestLampMixingBound:
    def test_worked_instance(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        bound = lamp_mixing_bound(w, P, delta=0.01, epsilon=1.0, T=100)
        assert isinstance(bound, MixingBound)
        assert bound.chain_mixing_time == 12
        assert bound.bound == 100  # max(100, ceil(2 * 1.5 * 12) = 36)
        assert bound.C == pytest.approx(0.3, abs=1e-15)
        expected_conf = 1.0 - math.exp(-0.3 * 100) / (1.0 - math.exp(-0.3))
        assert bound.confidence == expected_conf
        assert 1.0 - bound.confidence == pytest.approx(3.6105e-13, rel=1e-3)

    def test_renewal_term_dominates_small_T(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        bound = lamp_mixing_bound(w, P, delta=0.01, epsilon=1.0, T=10)
        assert bound.bound == 36

    def test_zero_T_reports_vacuous_confidence(self):
        w = HistoryDistribution.from_weights([0.5, 0.5])
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        bound = lamp_mixing_bound(w, P, delta=0.01, epsilon=1.0, T=0)
        assert bound.bound == 36
        assert bound.confidence < 0.0  # reported raw, not clamped

    def test_single_lag_reduction(self):
        # All mass on lag 1: the chain's own mixing time is exact and is
        # reported alongside the inflated ceil((1+eps) t_mix) bound.
        w = HistoryDistribution.from_weights([1.0])
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        eps = 1e-9
        bound = lamp_mixing_bound(w, P, delta=0.01, epsilon=eps, T=0)
        assert bound.chain_mixing_time == 12
        assert bound.bound == math.ceil((1 + eps) * 12)

    @pytest.mark.parametrize("n, k", [(6, 2), (5, 3)])
    def test_bound_dominates_the_exact_process(self, n, k):
        # Nine single-matrix models per size: a band chain with rows i+1,
        # i+2 and one random state, under lag weights proportional to
        # decay**i.  The lift to k-tuples is the exact process, and the law
        # of its newest symbol tends to P's pi from every tuple it reaches.
        # That law's worst-start total variation need not fall monotonically,
        # so the exact mixing time is one past the last t, up to twice the
        # bound, at which it is above delta.
        delta = 0.01
        for seed, (decay, ring) in enumerate(itertools.product((0.4, 1.0, 2.5), (0.3, 0.7, 0.9))):
            P = band_chain(np.random.default_rng(seed), n, 3, ring)
            w = HistoryDistribution.geometric(decay, k)
            bound = lamp_mixing_bound(w, P, delta, epsilon=1.0, T=0).bound
            lift = lift_to_kth_order(LampModel(w, P, Vocabulary.from_size(n)))
            law = np.zeros((len(lift.states), n))  # row s: the newest symbol's law from states[s]
            law[np.arange(len(lift.states)), [s[-1] for s in lift.states]] = 1.0
            Q, pi = lift.Q.dense(), ref_stationary(P)
            exact = 1
            for t in range(1, 2 * bound + 1):
                law = Q @ law
                if 0.5 * float(np.abs(law - pi).sum(axis=1).max()) > delta:
                    exact = t + 1
            assert exact <= bound, (seed, decay, ring, exact, bound)

    def test_negative_T_rejected(self):
        w = HistoryDistribution.from_weights([1.0])
        P = SparseStochasticMatrix.from_dense(worked_matrix())
        with pytest.raises(DataError):
            lamp_mixing_bound(w, P, delta=0.01, epsilon=1.0, T=-1)


class TestEmpiricalStateDistribution:
    def test_trajectory_converges_to_stationary(self):
        model = make_model([0.6, 0.4], worked_matrix())
        dist = empirical_state_distribution(model, steps=150_000, burn_in=500, seed=5)
        tv = 0.5 * np.abs(dist - np.array([2.0 / 3.0, 1.0 / 3.0])).sum()
        assert tv <= 0.02

    def test_occupancy_is_weight_invariant(self):
        slow = make_model([1.0], worked_matrix())
        mixed = make_model([0.3, 0.7], worked_matrix())
        d1 = empirical_state_distribution(slow, steps=150_000, burn_in=500, seed=21)
        d2 = empirical_state_distribution(mixed, steps=150_000, burn_in=500, seed=22)
        assert 0.5 * np.abs(d1 - d2).sum() <= 0.02

    def test_many_runs_mode(self):
        model = make_model([0.6, 0.4], worked_matrix())
        dist = empirical_state_distribution(
            model, steps=3000, burn_in=40, seed=17, many_runs=True
        )
        tv = 0.5 * np.abs(dist - np.array([2.0 / 3.0, 1.0 / 3.0])).sum()
        assert tv <= 0.03

    def test_deterministic_given_seed(self):
        model = make_model([0.6, 0.4], worked_matrix())
        a = empirical_state_distribution(model, steps=2000, burn_in=10, seed=3)
        b = empirical_state_distribution(model, steps=2000, burn_in=10, seed=3)
        assert np.array_equal(a, b)

    def test_non_ergodic_raises(self):
        model = make_model([0.6, 0.4], np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonErgodicError):
            empirical_state_distribution(model, steps=10, burn_in=0, seed=0)

    def test_parameter_validation(self):
        model = make_model([0.6, 0.4], worked_matrix())
        with pytest.raises(DataError):
            empirical_state_distribution(model, steps=0, burn_in=0, seed=0)
        with pytest.raises(DataError):
            empirical_state_distribution(model, steps=1, burn_in=-1, seed=0)


class TestReporting:
    def test_export_trace_csv(self, tmp_path):
        w = HistoryDistribution.from_weights([1.0])
        trace = simulate_exponent_process(w, 3, seed=0)
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, str(path))
        assert path.read_text(encoding="utf-8") == "t,e_t\n1,1\n2,2\n3,3\n"
