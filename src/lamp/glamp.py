"""Long-run views of a model whose lags may read different matrices (see
:meth:`lamp.core.LampModel.per_lag`): the mixture matrix, the lag-weighted
average of the mapped matrices, whose stationary vector is the process's
limiting state distribution; and an exact lift of the process to a
first-order chain over k-tuples of states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lamp.core import (
    DataError,
    EmptyRowError,
    LampModel,
    SparseStochasticMatrix,
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

# The per-lag names from before the model types merged; existing callers use them.
GlampModel = LampModel.per_lag
glamp_transition_distribution = transition_distribution
glamp_generate = generate
load_glamp_model = load_model


def mixture_matrix(model: LampModel) -> SparseStochasticMatrix:
    """Lag-weighted average of the mapped matrices.

    The process's limiting state distribution is the stationary vector of
    this matrix whenever it (and the lifted chain) is ergodic.
    """
    dense = np.zeros((model.n, model.n))
    for i in range(1, model.k + 1):
        dense += model.w.weights[i - 1] * model.matrix_for_lag(i).dense()
    return SparseStochasticMatrix.from_dense(dense)


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
        out = np.zeros(self.n)
        for s, h in enumerate(self.states):
            out[h[-1]] += dist[s]
        return out


def lift_to_kth_order(
    model: LampModel, start_states: Sequence[int] | None = None
) -> LiftedChain:
    """Materialize the tuple chain reachable from repeated-symbol starts.

    A history tuple (x_1, ..., x_k) steps to (x_2, ..., x_k, y) with
    probability sum_i w_i * M_{f(i)}(x_{k+1-i}, y), the same rule the
    sequence process applies.  Only tuples reachable from the given start
    symbols (default: all of them) are materialized, in BFS discovery
    order.
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
    w = model.w.weights
    index: dict = {}
    states: list[tuple[int, ...]] = []
    queue: deque = deque()
    for x in starts:
        h = (x,) * k
        if h not in index:
            index[h] = len(states)
            states.append(h)
            queue.append(h)
    # Q in flat form: row s, the next-tuple law of states[s], has q_sizes[s] entries.
    q_sizes: list[int] = []
    q_cols: list[int] = []
    q_probs: list[float] = []
    while queue:
        h = queue.popleft()
        acc: dict[int, float] = {}
        for i in range(1, k + 1):
            wi = float(w[i - 1])
            if wi == 0.0:
                continue
            cols, probs = model.matrix_for_lag(i).row(h[k - i])
            if cols.size == 0:
                raise EmptyRowError(f"state {h[k - i]} has no outgoing transitions")
            for c, p in zip(cols, probs):
                if p > 0.0:
                    acc[int(c)] = acc.get(int(c), 0.0) + wi * float(p)
        for y in acc:
            nxt = h[1:] + (y,)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            q_cols.append(index[nxt])
        q_probs.extend(acc.values())
        q_sizes.append(len(acc))
    m = len(states)
    Q = SparseStochasticMatrix._from_entries(
        m, np.repeat(np.arange(m), q_sizes), np.array(q_cols, dtype=np.int64), np.array(q_probs)
    )
    return LiftedChain(n=n, states=tuple(states), index=index, Q=Q)
