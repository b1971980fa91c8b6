"""Long-run views of a model whose lags may read different matrices (see
:meth:`lamp.core.LampModel.per_lag`): the mixture matrix, the lag-weighted
average of the mapped matrices, whose stationary vector is the process's
limiting state distribution; and an exact lift of the process to a
first-order chain over k-tuples of states.

Both are sums of lag rows formed by the next-state kernel that scoring and
the transition rule use (``lamp.core._lag_terms`` and ``_cell_sums``), so
each entry adds its per-lag terms in lag order.  The mixture reads every
state as a history.  The lift reads each tuple state, a chunk at a time,
and numbers the states exactly as a one-state-at-a-time FIFO walk would:
in order of discovery, where a state's successors are met lag by lag (lag
1 first) and by ascending column within a lag.

While it builds, the lift holds the base-n codes of the states found so far
and, for each chunk, each row's size and its targets and probabilities in
target order.  Q's CSR arrays are built from those directly: the offsets
from the sizes, then the columns, whose chunks go before the probabilities
are joined.  On a dense 20^3 lift (8000 states, 160 000 entries) the
``tracemalloc`` peak is 4.22 MiB against the 3.45 MiB the returned chain
holds; Q builds no row index per entry, not even to validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lamp.core import (
    DataError,
    EmptyRowError,
    LampModel,
    SparseStochasticMatrix,
    _cell_sums,
    _lag_terms,
    generate,
    load_model,
    transition_distribution,
)

__all__ = [
    "LiftedChain",
    "LIFT_STATE_GUARD",
    "mixture_matrix",
    "lift_to_kth_order",
    "GlampModel",
    "glamp_transition_distribution",
    "glamp_generate",
    "load_glamp_model",
]

#: The lifted chain materializes up to n^k tuple states; refuse larger lifts.
LIFT_STATE_GUARD = 100_000

#: Tuple states expanded per step of the lift's breadth-first walk.
_LIFT_CHUNK = 256

# The per-lag names from before the model types merged; existing callers use them.
GlampModel = LampModel.per_lag
glamp_transition_distribution = transition_distribution
glamp_generate = generate
load_glamp_model = load_model


def mixture_matrix(model: LampModel) -> SparseStochasticMatrix:
    """Lag-weighted average of the mapped matrices.

    The process's limiting state distribution is the stationary vector of
    this matrix whenever it (and the lifted chain) is ergodic.  Each entry
    sums its per-lag terms in lag order, and entries that sum to zero are
    dropped.  A row empty at every positive-weight lag stays empty; a row
    empty at only some of them raises :class:`EmptyRowError`.
    """
    n, w = model.n, model.w.weights
    lags = np.flatnonzero(w > 0.0)
    rows = np.arange(n)[:, None] + model._lag_rows[lags]  # bank rows, state-major
    sizes = np.diff(model._bank.indptr)[rows]
    partly = np.flatnonzero((sizes == 0).any(axis=1) & (sizes > 0).any(axis=1))
    if partly.size:
        raise EmptyRowError(f"state {partly[0]} has no outgoing transitions", int(partly[0]))
    cells, acc = _cell_sums(*_lag_terms(model, rows, w[lags]), n * n)
    keep = acc != 0.0
    return SparseStochasticMatrix._from_entries(n, *np.divmod(cells[keep], n), acc[keep])


@dataclass(frozen=True)
class LiftedChain:
    """First-order chain over k-tuples of states, exactly equivalent to the
    lagged process started from a repeated-symbol tuple.

    ``states`` lists tuples in discovery order (oldest symbol first, newest
    last); ``index`` inverts it; row s of ``Q`` is the next-tuple
    distribution from states[s].
    """

    n: int
    states: tuple[tuple[int, ...], ...]
    index: dict
    Q: SparseStochasticMatrix

    def marginal_over_last(self, dist: np.ndarray) -> np.ndarray:
        """Push a distribution over tuple states down to the newest symbol."""
        dist = np.asarray(dist, dtype=float)
        if dist.shape != (len(self.states),):
            raise DataError("distribution length does not match the state list")
        newest = np.fromiter((h[-1] for h in self.states), dtype=np.int64, count=len(self.states))
        return np.bincount(newest, weights=dist, minlength=self.n)


def lift_to_kth_order(
    model: LampModel, start_states: Sequence[int] | None = None
) -> LiftedChain:
    """Materialize the tuple chain reachable from repeated-symbol starts.

    A history tuple (x_1, ..., x_k) steps to (x_2, ..., x_k, y) with
    probability sum_i w_i * M_{f(i)}(x_{k+1-i}, y), the same rule the
    sequence process applies.  Only tuples reachable from the given start
    symbols (default: all of them) are materialized, numbered in FIFO
    discovery order (see the module docstring).  An empty row read at a
    positive-weight lag raises :class:`EmptyRowError`.
    """
    k, n = model.k, model.n
    if n**k > LIFT_STATE_GUARD:
        raise DataError(
            f"lift would need up to {n**k} tuple states (guard {LIFT_STATE_GUARD})"
        )
    if start_states is None:
        starts = list(range(n))
    else:
        starts = [int(x) for x in start_states]
        if not starts:
            raise DataError("start_states must be nonempty")
        for x in starts:
            if not 0 <= x < n:
                raise DataError(f"start state {x} out of range")
    w, indptr = model.w.weights, model._bank.indptr
    lags = np.flatnonzero(w > 0.0)  # 0-based
    place = n ** np.arange(k, dtype=np.int64)  # lag i reads the digit of place n^(i-1)
    top = n ** (k - 1)
    codes = np.empty(n**k, dtype=np.int64)  # codes[s]: base-n code of states[s]
    first = np.array(list(dict.fromkeys(starts)), dtype=np.int64) * int(place.sum())
    m = first.size
    codes[:m] = first
    id_of = np.full(n**k, -1, dtype=np.int64)
    id_of[first] = np.arange(m)
    sizes, target_chunks, prob_chunks = [], [], []  # Q's rows, a chunk at a time
    done = 0
    while done < m:  # states in id order, a chunk at a time; new ids follow m
        chunk = codes[done:min(m, done + _LIFT_CHUNK)]
        # The bank row of every (state, lag), in the order a FIFO walk reads rows.
        x = chunk[:, None] // place[lags] % n
        rows = x + model._lag_rows[lags]
        empty = indptr[rows + 1] == indptr[rows]
        if empty.any():
            state = int(x.flat[empty.argmax()])
            raise EmptyRowError(f"state {state} has no outgoing transitions", state)
        # Every positive (state, lag, column) term, in that order, and its next tuple.
        cell, term = _lag_terms(model, rows, w[lags])
        cell, term = cell[term > 0.0], term[term > 0.0]
        shifted = chunk % top * n  # the next tuple's code less its newest symbol
        nxt = shifted[cell // n] + cell % n
        # Unseen next tuples get ids in order of first appearance, as a FIFO walk gives them.
        new, at = np.unique(nxt[id_of[nxt] < 0], return_index=True)
        new = new[np.argsort(at)]
        id_of[new] = np.arange(m, m + new.size)
        codes[m:m + new.size] = new
        m += new.size
        # Each (state, y) probability sums its per-lag terms in lag order;
        # the cells ascend by state, and each row of Q lists its targets by id.
        cells, q = _cell_sums(cell, term, chunk.size * n)
        row = cells // n
        target = id_of[shifted[row] + cells % n]
        order = np.lexsort((target, row))
        sizes.append(np.bincount(row, minlength=chunk.size))
        target_chunks.append(target[order])
        prob_chunks.append(q[order])
        done += chunk.size
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    cols = np.concatenate(target_chunks)
    target_chunks.clear()  # each array's chunks go once it is joined
    probs = np.concatenate(prob_chunks)
    prob_chunks.clear()
    Q = SparseStochasticMatrix(m, indptr, cols, probs)
    digits = codes[:m, None] // place[::-1] % n  # oldest symbol first
    states = tuple(map(tuple, digits.tolist()))
    return LiftedChain(n=n, states=states, index=dict(zip(states, range(m))), Q=Q)
