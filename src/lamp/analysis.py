"""Chain structure checks and the model's equilibrium/mixing machinery.

Covers stationary distributions, ergodicity classification, exact mixing
times by powering the transition matrix, simulation of the exponent
(renewal) process that drives the model's equilibrium behavior,
Bernstein-type constants, and the resulting mixing-time bound for the
history-mixture process.

Ergodicity is a breadth-first search over the CSR arrays, forwards and over
the reversed edges, with the period taken as a gcd over the edges that
stops once it reaches 1.  Stored zeros are dropped once, up front, by a
copy of the positive entries' columns made only when P holds a zero.
Every pass then reads blocks of whole rows, cut by the rule of
:func:`lamp.core._row_blocks`: over all rows a block's targets are a
slice of the columns, and over a frontier they are gathered by
:func:`lamp.core._row_entries`.

The mixing time takes unit steps P^t = P P^(t-1) to the first crossing of
delta (see :func:`mixing_time`).  When P's longest row is short against n,
each step goes through P's rows and two n x n arrays are live.  Otherwise
each step is a dense product, and giant steps of P^8 come first, while the
power they land on stays above delta; four n x n arrays are live.  pi is
the power iteration's, moved on by P^8 until it settles near rounding.  The
result can depart from a stepwise search over P^t = P^(t-1) P only where
d(t) ties delta to within rounding, about 1 ulp.  The analyses that need an
ergodic matrix name its first empty row, when it has one, as the cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from lamp.core import (
    DataError,
    HistoryDistribution,
    LampModel,
    NonErgodicError,
    NumericError,
    SparseStochasticMatrix,
    _rng,
    _row_blocks,
    _row_entries,
    generate,
)

__all__ = [
    "ErgodicityReport",
    "ExponentTrace",
    "RenewalEstimate",
    "MixingBound",
    "is_ergodic",
    "stationary_distribution",
    "mixing_time",
    "simulate_exponent_process",
    "simulate_exponent_processes",
    "renewal_rate_estimate",
    "bernstein_constant",
    "lamp_mixing_bound",
    "empirical_state_distribution",
    "export_trace_csv",
]

#: Dense matrix powering is used for exact mixing times; refuse larger n.
MIXING_STATE_GUARD = 2000

#: Hard cap on powering steps before declaring non-convergence.
_MIXING_HORIZON = 1_000_000

#: Powers of P per giant step of the mixing-time search, G = P^8.
_GIANT_STEP = 8

#: Stored entries that the ergodicity check reads at a time, in whole rows.
#: On a dense 20^3 lift (8000 states, 160 000 entries; 2-core x86-64, numpy
#: 2.4) the check took 7.2-7.5 / 6.3-6.9 / 6.2-6.3 ms with 2^12 / 2^13 / 2^14
#: entries a block, and its scratch was 0.94 / 1.05 / 1.33 copies of the
#: matrix's column array; on a dense 2000-state chain it took 174-190 /
#: 148-162 / 147-161 ms.
_EDGE_BLOCK = 1 << 13

#: Entries per row block when total variation is taken over a dense power.
_TV_BLOCK = 1 << 14

#: Entries of the block that a row step gathers rows of P^t into; total
#: variation then works through the same block.  Timed like the ratio
#: below, one row step, best of 7: at n = 600 with 4 entries per row, 1.39 ms
#: with 6 rows per block (2^14 entries), 0.97 to 1.08 ms with 13 to 54 rows
#: (2^15 to 2^17) and 1.46 ms with 109 (2^18); at n = 1200 with 22 entries
#: and n = 2000 with 8, 2^16 was within 1% of the best and 2^18 took 1.5
#: times as long.
_GATHER_BLOCK = 1 << 16

#: The mixing-time search takes its unit steps through P's rows when P's
#: longest row holds at most n / _CSR_STEP_RATIO entries, and giant steps with
#: dense unit steps otherwise.  Timed on a 2-core x86-64 machine with numpy
#: 2.4 and one BLAS thread: whole calls on ring chains
#: (``perfbench.workloads.ring_chain``, ring 0.7, delta 0.01, t = 18 to 38),
#: best of 3 to 5, with row steps from P and with giant steps and dense unit
#: steps, for n from 256 to 2000 and 3 to 62 entries per row.  At n = 600 the
#: row steps won or tied (within 4%) at n/46 entries per row and fewer, and
#: lost by 15% at n/40; at n = 1200 they won by 11% at n/60 and lost by 4 to
#: 19% from n/55 to n/46; at n = 2000 they won by 12% at n/67, tied at n/61
#: (-0.4 to +5%) and lost by 3 to 94% from n/56 to n/32.  At n = 256 the two
#: were within 5 ms of each other.  60 keeps the row steps on the side where
#: they win or tie.  The sweep's dense side skipped the giant step that
#: crosses delta by predicting it; the search forms that one product more.
_CSR_STEP_RATIO = 60


@dataclass(frozen=True)
class ErgodicityReport:
    """Classification of a stochastic matrix: ergodic, reducible, or periodic."""

    ergodic: bool
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in ("ergodic", "reducible", "periodic"):
            raise DataError(f"unknown ergodicity reason {self.reason!r}")
        if self.ergodic != (self.reason == "ergodic"):
            raise DataError("ergodic flag inconsistent with reason")


def _edges(indptr: np.ndarray, cols: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every edge u -> v of a CSR digraph in storage order, as (u, v) for
    the blocks of whole rows that :func:`lamp.core._row_blocks` cuts at
    ``_EDGE_BLOCK`` stored entries; a block's targets are a slice of
    ``cols``."""
    for a, b in _row_blocks(indptr[1:], _EDGE_BLOCK):
        lo, hi = indptr[a], indptr[b]
        yield np.repeat(np.arange(a, b), np.diff(indptr[a:b + 1])), cols[lo:hi]


def _levels(indptr: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Breadth-first distance from state 0 over a CSR digraph, -1 where
    unreachable; each frontier's targets are read a block of its rows at a
    time, cut as in :func:`_edges`.  A new state reached several times in a
    block joins the frontier once: each copy writes its place into
    ``owner``, and the copy whose place was kept joins.  This takes no sort,
    and no scan over all n states per level as a boolean mark would."""
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    owner = np.empty(n, dtype=np.int64)
    sizes = np.diff(indptr)
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        found = [frontier[:0]]  # empty, for a frontier with no edges out
        for a, b in _row_blocks(np.cumsum(sizes[frontier]), _EDGE_BLOCK):
            nbrs = cols[_row_entries(indptr, frontier[a:b])]
            nbrs = nbrs.astype(np.intp, copy=False)  # int32 indices convert at every use
            nbrs = nbrs[level[nbrs] < 0]
            place = np.arange(nbrs.size)
            owner[nbrs] = place
            nbrs = nbrs[owner[nbrs] == place]
            level[nbrs] = depth  # so later blocks of this frontier pass them by
            found.append(nbrs)
        frontier = np.concatenate(found)
    return level


def _in_neighbours(indptr: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The reversed edges of a CSR digraph in CSR form: offsets from the
    in-degrees, and the sources of each state's in-edges, ascending, filled
    one block of rows at a time.  The sources are int32 where n allows."""
    into = np.zeros(n + 1, dtype=np.int64)
    into[1:] = np.bincount(cols, minlength=n)
    np.cumsum(into, out=into)
    sources = np.empty(int(into[-1]), dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    fill = into[:-1].copy()  # the next free slot of each state's list
    shift = n.bit_length()  # a key holds the target above this many bits and the source below
    for u, v in _edges(indptr, cols):
        key = v << shift
        key |= u
        key.sort()  # the block's edges by target, then source
        v = key >> shift
        key &= (1 << shift) - 1  # now the sources
        head = np.empty(v.size, dtype=bool)  # where a target's run starts
        head[:1] = True
        np.not_equal(v[1:], v[:-1], out=head[1:])
        place = np.arange(v.size)
        start = place * head
        np.maximum.accumulate(start, out=start)  # the start of each edge's run
        place -= start
        place += fill[v]
        sources[place] = key
        np.add.at(fill, v, 1)
    return into, sources


def is_ergodic(P: SparseStochasticMatrix) -> ErgodicityReport:
    """Classify the support digraph of P.

    Irreducibility is strong connectivity of the positive-probability edge
    set: every state is reached from state 0 forwards and backwards.
    Aperiodicity is a period of 1, computed as the gcd of
    level(u) + 1 - level(v) over all edges (u, v) with BFS levels from
    state 0.

    Stored zeros are not edges.  When P holds one, the check first copies
    the columns of the positive entries, 8 bytes an entry, and shifts each
    row offset back by the zeros before it; it keeps that copy to the end.
    Besides it and arrays of n entries, the check holds the in-neighbour
    sources, 4 bytes an edge, and one block at a time: whole rows of at
    most ``_EDGE_BLOCK`` edges together, or one longer row.
    """
    n, indptr, cols = P.n, P.indptr, P._cols_rw  # bincount copies a read-only array
    if not P.probs.all():
        indptr = indptr - np.searchsorted(np.flatnonzero(P.probs == 0.0), indptr)
        cols = cols[P.probs > 0.0]
    forward = _levels(indptr, cols, n)
    if np.any(forward < 0):
        return ErgodicityReport(False, "reducible")
    backward = _levels(*_in_neighbours(indptr, cols, n), n)
    if np.any(backward < 0):
        return ErgodicityReport(False, "reducible")
    period = 0
    for u, v in _edges(indptr, cols):
        gap = forward[u]  # level(u) + 1 - level(v) over the block's edges (u, v)
        gap += 1
        gap -= forward[v]
        period = math.gcd(period, int(np.gcd.reduce(gap)))
        if period == 1:
            return ErgodicityReport(True, "ergodic")
    return ErgodicityReport(False, "periodic")


def _require_ergodic(P: SparseStochasticMatrix) -> None:
    """Raise NonErgodicError unless P is ergodic, naming the first empty row
    when there is one."""
    empty = np.flatnonzero(np.diff(P.indptr) == 0)
    if empty.size:
        x = int(empty[0])
        raise NonErgodicError(
            f"matrix is not ergodic: state {x} has no outgoing transitions", empty_state=x
        )
    report = is_ergodic(P)
    if not report.ergodic:
        raise NonErgodicError(f"matrix is not ergodic: {report.reason}")


def _power_iteration(
    P: SparseStochasticMatrix, tol: float = 1e-12, max_iters: int = 500_000
) -> np.ndarray:
    """:func:`stationary_distribution` for a P already known to be ergodic."""
    pi = np.full(P.n, 1.0 / P.n)
    for _ in range(max_iters):
        nxt = P.left_multiply(pi)
        if float(np.abs(nxt - pi).sum()) <= tol:
            return nxt / nxt.sum()
        pi = nxt
    raise NumericError(f"power iteration did not reach {tol} in {max_iters} iterations")


def stationary_distribution(
    P: SparseStochasticMatrix, tol: float = 1e-12, max_iters: int = 500_000
) -> np.ndarray:
    """Stationary probability vector of an ergodic P by power iteration.

    Starts from the uniform vector and stops when the L1 residual of one
    update falls to ``tol``; the returned vector satisfies
    ||pi P - pi||_1 <= tol because left-multiplication by a stochastic
    matrix never expands L1 distances.
    """
    if not tol > 0.0:
        raise DataError("tol must be positive")
    _require_ergodic(P)
    return _power_iteration(P, tol, max_iters)


def _settled(P: SparseStochasticMatrix, pi: np.ndarray, giant: np.ndarray | None) -> np.ndarray:
    """The power-iteration vector ``pi`` moved on by P^8 while each move
    shrinks its L1 change, so that its error nears rounding instead of the
    iteration's tolerance.  A move is one product by ``giant`` = P^8 when it
    is given, and eight steps through P's rows otherwise."""
    change = math.inf
    while True:
        if giant is None:
            nxt = pi
            for _ in range(_GIANT_STEP):
                nxt = P.left_multiply(nxt)
        else:
            nxt = pi @ giant
        nxt /= nxt.sum()
        moved = float(np.abs(nxt - pi).sum())
        if not moved < change:
            return pi
        pi, change = nxt, moved


def _worst_tv(M: np.ndarray, pi: np.ndarray, buf: np.ndarray, stop: float = math.inf) -> float:
    """max_z TV(M[z], pi), a block of rows at a time; each row's sum is the
    same pairwise sum as over the whole matrix.  The scan ends at the first
    block holding a row above ``stop``, so a result above ``stop`` says only
    that the maximum is above it; any other result is the maximum."""
    rows = buf.shape[0]
    worst = 0.0
    for lo in range(0, M.shape[0], rows):
        block = buf[: min(rows, M.shape[0] - lo)]
        np.subtract(M[lo:lo + rows], pi, out=block)
        np.abs(block, out=block)
        worst = max(worst, 0.5 * float(block.sum(axis=1).max()))
        if worst > stop:
            break
    return worst


def _padded_rows(P: SparseStochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """P's columns and probabilities as (n, longest row) arrays; the slots
    past a row's end hold column 0 with probability 0."""
    width = int(np.diff(P.indptr).max())
    cols = np.zeros((P.n, width), dtype=np.int64)
    probs = np.zeros((P.n, width))
    cols[P._entry_rows, P._entry_slots] = P.cols
    probs[P._entry_rows, P._entry_slots] = P.probs
    return cols, probs


def _sparse_times(
    cols: np.ndarray, probs: np.ndarray, M: np.ndarray, out: np.ndarray, buf: np.ndarray
) -> None:
    """out = P M for P given by :func:`_padded_rows`, a block of rows at a
    time: the rows of M that a block reads are gathered into ``buf``, which
    holds at least one padded row, and each row of the block is one
    (1, width) x (width, n) product of a batched matmul."""
    width, n = cols.shape[1], M.shape[1]
    rows = buf.shape[0] // width
    for lo in range(0, cols.shape[0], rows):
        hi = min(lo + rows, cols.shape[0])
        gathered = buf[: (hi - lo) * width]
        np.take(M, cols[lo:hi].ravel(), axis=0, out=gathered, mode="clip")  # "clip" writes in place
        np.matmul(probs[lo:hi, None, :], gathered.reshape(hi - lo, width, n), out=out[lo:hi, None, :])


def _rows_agree(M: np.ndarray, buf: np.ndarray) -> bool:
    """Whether every row of M lies within n·2^-52 of its first row in total
    variation; the powers after such an M average its rows, so d moves
    only by rounding from there on."""
    tol = M.shape[0] * 2.0**-52
    return _worst_tv(M, M[0], buf, tol) <= tol


def _first_crossing(P: SparseStochasticMatrix, pi: np.ndarray, delta: float) -> int:
    """:func:`mixing_time` once d(0) is known to lie above delta: the first
    t with d(t) <= delta, by the schedule that :func:`mixing_time` sets out.
    The powers of P live in ``powers``, and each new one is written into
    the array of the two that does not hold the power it is formed from."""
    n = P.n
    width = int(np.diff(P.indptr).max())
    row_steps = width * _CSR_STEP_RATIO <= n
    t, cur = 0, None  # P^0 = I
    if row_steps:
        pi = _settled(P, pi, None)  # before the n x n arrays, as in mixing_time
        cols, probs = _padded_rows(P)
        buf = np.empty((max(1, _GATHER_BLOCK // (width * n)) * width, n))
        step = P.dense()
        powers = (step, np.empty((n, n)))  # row steps read P's padded rows, so they may write over P
    else:
        buf = np.empty((max(1, _TV_BLOCK // n), n))
        step = P.dense()
        half = np.matmul(step, step)
        powers = (np.matmul(half, half), np.empty((n, n)))
        giant = np.matmul(powers[0], powers[0], out=half)
        pi = _settled(P, pi, giant)
        landing = giant  # P^(t + 8)
        while _worst_tv(landing, pi, buf, delta) > delta:
            t, cur = t + _GIANT_STEP, landing
            if t > _MIXING_HORIZON or _rows_agree(cur, buf):
                raise NumericError("mixing-time horizon exceeded")
            landing = np.matmul(cur, giant, out=powers[cur is powers[0]])
    while True:
        if cur is None:
            cur = step
        else:
            out = powers[cur is powers[0]]
            if row_steps:
                _sparse_times(cols, probs, cur, out, buf)
            else:
                np.matmul(step, cur, out=out)
            cur = out
        t += 1
        if _worst_tv(cur, pi, buf, delta) <= delta:
            return t
        if t % _GIANT_STEP == 0 and (t > _MIXING_HORIZON or _rows_agree(cur, buf)):
            raise NumericError("mixing-time horizon exceeded")


def mixing_time(P: SparseStochasticMatrix, delta: float) -> int:
    """Smallest t with worst-start total variation d(t) = max_z TV(P^t(z, .), pi) <= delta.

    d(t) never increases with t (Levin, Peres & Wilmer, *Markov Chains and
    Mixing Times*, section 4.4), so the first crossing is the mixing time.
    The search starts at t = 0, where P^0 = I gives d(0) = 1 - min(pi): a
    delta at or above that, as every delta >= 1 is, gives 0.

    **Schedule.**  The search takes unit steps P^t = P P^(t-1) to the first
    crossing, and d is read at every power it forms.  How it forms them
    depends on the length of P's longest row, against n:

    - at most n / ``_CSR_STEP_RATIO`` entries: each unit step goes through
      P's rows, padded to the longest, from t = 1.
    - longer: each unit step is a dense product.  Before them the search
      takes giant steps of G = P^8, formed by three squarings:
      P^(8j+8) = P^(8j) G from P^0 = I, while the power it lands on stays
      above delta.  The unit steps then start from the last power above
      delta, so at most eight of them follow the last giant step, and d is
      read at powers up to the crossing plus one giant step past it.

    Every scan stops at the first row above delta, since only d > delta is
    asked.

    **Buffers.**  The row steps keep two n x n arrays live, the powers that
    they write in turn; the dense side keeps four: P, G and two powers.
    Total variation and the row steps work through one block of rows.

    **Stop.**  The search raises :class:`NumericError` after
    ``_MIXING_HORIZON`` powers, or at the first power P^(8j) above delta
    whose rows agree within n·2^-52 in total variation: later powers average
    those rows, so d moves only by rounding.  A merely flat d goes on; it
    can be flat while the rows differ.

    **Rounding.**  pi is the power-iteration vector moved on by P^8 while
    each move still shrinks its L1 change, so d(t) floors near rounding
    rather than at the power iteration's tolerance; where P^8 contracts
    slowly, the floor is rounding over that contraction.  The powers are formed
    in a different order from the stepwise products P^t = P^(t-1) P, so d(t)
    may differ from theirs by rounding: the result can differ from the
    stepwise search only where d(t) ties delta to within that rounding,
    about 1 ulp.
    """
    if not delta > 0.0:
        raise DataError("delta must be positive")
    n = P.n
    if n > MIXING_STATE_GUARD:
        raise DataError(
            f"dense mixing-time computation is limited to n <= {MIXING_STATE_GUARD}"
        )
    _require_ergodic(P)
    if delta >= 1.0:
        return 0
    pi = _power_iteration(P)  # before the n x n arrays, which its temporaries would join
    if 1.0 - float(pi.min()) <= delta:  # d(0) <= delta
        return 0
    return _first_crossing(P, pi, delta)


# ---------------------------------------------------------------------------
# Exponent (renewal) process


@dataclass(frozen=True)
class ExponentTrace:
    """Realized exponent process e_1..e_{t_max}.

    e_t counts how many matrix applications separate the state at time t
    from the start state, following the recursion e_t = e_{t - W_t} + 1
    with e_s = 0 for s <= 0, so e_1 = 1 always and e_t never exceeds t.
    """

    t_max: int
    exponents: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        e = np.ascontiguousarray(np.asarray(self.exponents, dtype=np.int64))
        e.setflags(write=False)
        object.__setattr__(self, "exponents", e)
        if self.t_max < 1 or e.shape != (self.t_max,):
            raise DataError("trace must hold exponents e_1..e_{t_max}")
        if e[0] != 1:
            raise DataError("e_1 must be 1")
        t = np.arange(1, self.t_max + 1)
        if np.any(e < 0) or np.any(e > t):
            raise DataError("exponents must satisfy 0 <= e_t <= t")

    def exponent_at(self, t: int) -> int:
        if not 1 <= t <= self.t_max:
            raise DataError(f"t={t} outside the simulated horizon")
        return int(self.exponents[t - 1])


def _simulate_exponent_matrix(
    w: HistoryDistribution, t_max: int, seeds: list[int]
) -> np.ndarray:
    """(len(seeds), t_max) exponent values; row r is driven by seeds[r].

    Each trace draws exactly one uniform per time step t = 2..t_max from its
    own generator, so a longer horizon with the same seed extends a shorter
    trace without changing its prefix.
    """
    if t_max < 1:
        raise DataError("t_max must be at least 1")
    cum = w._cum
    out = np.empty((len(seeds), t_max), dtype=np.int64)
    for r, seed in enumerate(seeds):
        u = _rng(seed).random(t_max - 1)
        # e holds k zeros for e_s, s <= 0, then e_1 = 1; e[-lag] is e_{t - lag}.
        e = [0] * w.k + [1]
        for lag in (np.searchsorted(cum, u, side="right") + 1).tolist():
            e.append(e[-lag] + 1)
        out[r] = e[w.k:]
    return out


def simulate_exponent_process(w: HistoryDistribution, t_max: int, seed: int) -> ExponentTrace:
    """Simulate one exponent trace; deterministic given the seed."""
    values = _simulate_exponent_matrix(w, t_max, [seed])[0]
    return ExponentTrace(t_max=t_max, exponents=values, seed=seed)


def simulate_exponent_processes(
    w: HistoryDistribution, t_max: int, n_traces: int, seed: int
) -> np.ndarray:
    """(n_traces, t_max) array of independent exponent traces.

    Row i is bitwise identical to simulate_exponent_process with seed
    ``seed ^ i``, the package-wide seed-splitting rule for independent
    Monte-Carlo trials.
    """
    if n_traces < 1:
        raise DataError("n_traces must be at least 1")
    return _simulate_exponent_matrix(w, t_max, [seed ^ i for i in range(n_traces)])


@dataclass(frozen=True)
class RenewalEstimate:
    """Empirical renewal rate of a trace against its theory prediction.

    ``clt_statistic`` is (e_t - t/mu) / (sigma mu^{-3/2} sqrt(t)); it is
    None when sigma = 0 (deterministic lag distribution), where the
    normalized fluctuation is undefined.
    """

    rate: float
    predicted: float
    clt_statistic: float | None


def renewal_rate_estimate(trace: ExponentTrace, w: HistoryDistribution) -> RenewalEstimate:
    t = trace.t_max
    e_t = float(trace.exponents[-1])
    mu = w.mean
    sigma2 = max(w.variance, 0.0)
    rate = e_t / t
    predicted = 1.0 / mu
    if sigma2 == 0.0:
        return RenewalEstimate(rate=rate, predicted=predicted, clt_statistic=None)
    sigma = math.sqrt(sigma2)
    stat = (e_t - t / mu) / (sigma * mu ** -1.5 * math.sqrt(t))
    return RenewalEstimate(rate=rate, predicted=predicted, clt_statistic=stat)


def bernstein_constant(w: HistoryDistribution, epsilon: float) -> float:
    """Exponential-decay constant for the renewal lower-deviation bound.

    Applying Bernstein's inequality to the centered lags (bounded by k)
    gives, in time units,

        C(eps) = eps^2 E[w] / ((1 + eps) (2 Var[w] + (2/3) k eps E[w])).
    """
    if not 0.0 < epsilon < math.inf:
        raise DataError("epsilon must be positive and finite")
    mu = w.mean
    var = max(w.variance, 0.0)
    k = w.k
    return epsilon**2 * mu / ((1.0 + epsilon) * (2.0 * var + (2.0 / 3.0) * k * epsilon * mu))


@dataclass(frozen=True)
class MixingBound:
    """High-probability mixing-time bound for the history-mixture process.

    ``bound`` dominates the process's delta-mixing time with probability at
    least ``confidence`` = 1 - e^{-C T} / (1 - e^{-C}).  The confidence is
    reported raw: for small T it can be zero or negative, meaning the bound
    is vacuous at that threshold, and callers must check rather than rely
    on clamping.  ``chain_mixing_time`` is the underlying matrix's own
    mixing time, which is also the exact value when all lag mass sits on
    lag 1.
    """

    T: int
    epsilon: float
    delta: float
    bound: int
    confidence: float
    C: float
    chain_mixing_time: int


def lamp_mixing_bound(
    w: HistoryDistribution,
    P: SparseStochasticMatrix,
    delta: float,
    epsilon: float,
    T: int,
) -> MixingBound:
    """bound = max(T, ceil((1 + eps) E[w] t_mix(P, delta))) with its confidence."""
    if T < 0:
        raise DataError("T must be nonnegative")
    t_mix = mixing_time(P, delta)
    C = bernstein_constant(w, epsilon)
    bound = max(int(T), int(math.ceil((1.0 + epsilon) * w.mean * t_mix)))
    confidence = 1.0 - math.exp(-C * T) / (1.0 - math.exp(-C))
    return MixingBound(
        T=int(T),
        epsilon=float(epsilon),
        delta=float(delta),
        bound=bound,
        confidence=confidence,
        C=C,
        chain_mixing_time=t_mix,
    )


# ---------------------------------------------------------------------------
# Empirical occupancy


def empirical_state_distribution(
    model: LampModel,
    steps: int,
    burn_in: int,
    seed: int,
    many_runs: bool = False,
) -> np.ndarray:
    """Occupancy frequencies of the generated process after a burn-in.

    Default view: one long trajectory from state 0, counting the ``steps``
    states after position ``burn_in``.  With ``many_runs`` the ensemble
    view is used instead: ``steps`` independent runs (seeded seed ^ i) each
    contribute their state at time burn_in + 1.  Both converge to the same
    limit for ergodic instances.
    """
    if steps < 1:
        raise DataError("steps must be at least 1")
    if burn_in < 0:
        raise DataError("burn_in must be nonnegative")
    _require_ergodic(model.P)
    counts = np.zeros(model.n)
    if many_runs:
        for i in range(steps):
            seq = generate(model, start=0, length=burn_in + 2, seed=seed ^ i)
            counts[int(seq[-1])] += 1.0
    else:
        seq = generate(model, start=0, length=burn_in + steps + 1, seed=seed)
        states, c = np.unique(seq[burn_in + 1:], return_counts=True)
        counts[states] = c
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# Reporting


def export_trace_csv(trace: ExponentTrace, path: str) -> None:
    """Write a trace as CSV with columns t, e_t."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,e_t\n")
        for t in range(1, trace.t_max + 1):
            fh.write(f"{t},{int(trace.exponents[t - 1])}\n")
