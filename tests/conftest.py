"""Shared test helpers: independent dense reference implementations and
random instance builders.

The reference functions here are deliberately naive.  They work on dense
numpy matrices and raw weight vectors, follow the defining equations term by
term, and share no code with the package, so they can serve as oracles for
the optimized implementations.  The chain-analysis references (the
``ref_*`` functions at the end of this file) read matrices only through
their row and dense accessors, and walk states one at a time in Python, in
the order that fixes the package's state ids and sums.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from lamp.core import (
    Corpus,
    HistoryDistribution,
    LampModel,
    SparseStochasticMatrix,
    Vocabulary,
)


# ---------------------------------------------------------------------------
# Naive dense reference implementations


def ref_transition_distribution(w, P_dense, history):
    """Mixture of P rows of the clamped last-k states; w may be any length."""
    P_dense = np.asarray(P_dense, dtype=np.float64)
    n = P_dense.shape[0]
    out = np.zeros(n)
    L = len(history)
    for i in range(1, len(w) + 1):
        src = history[L - i] if i <= L else history[0]
        out += w[i - 1] * P_dense[src]
    return out


def ref_log_likelihood(w, P_dense, sequences):
    """(total natural-log likelihood, impossible count) scored from j = 1.

    Accepts raw (not necessarily normalized) w and P so it can double as the
    function under finite differences.
    """
    total = 0.0
    impossible = 0
    for seq in sequences:
        for j in range(1, len(seq)):
            p = 0.0
            for i in range(1, len(w) + 1):
                src = seq[j - i] if j - i >= 0 else seq[0]
                p += w[i - 1] * P_dense[src][seq[j]]
            if p <= 0.0:
                impossible += 1
                total = -math.inf
            elif total != -math.inf:
                total += math.log(p)
    return total, impossible


def ref_floored_log_likelihood(w, P_dense, sequences, floor):
    """Floor-smoothed natural-log likelihood: at each scored position every
    state of the mixture is raised to at least ``floor``, and the
    distribution is renormalized."""
    total = 0.0
    for seq in sequences:
        for j in range(1, len(seq)):
            dist = np.maximum(ref_transition_distribution(w, P_dense, seq[:j]), floor)
            total += math.log(dist[seq[j]] / dist.sum())
    return total


def ref_empirical_rows(sequences, n, k, support_epsilon):
    """The empirical initializer as a walk over the corpus with dicts.

    Row x holds every clamped (x, y) pair seen at lags 1..k, valued by the
    lag-1 count ratio or ``support_epsilon``, then divided by its sum taken
    left to right.  Returns (per-row lists of (column, probability), number
    of lag-1 pairs, number of clamped-only pairs).
    """
    lag1_counts = [dict() for _ in range(n)]
    lag1_totals = [0] * n
    support = [set() for _ in range(n)]
    for seq in sequences:
        for j in range(1, len(seq)):
            src1, tgt = seq[j - 1], seq[j]
            lag1_counts[src1][tgt] = lag1_counts[src1].get(tgt, 0) + 1
            lag1_totals[src1] += 1
            for i in range(1, k + 1):
                support[seq[max(j - i, 0)]].add(tgt)
    rows = []
    lag1_pairs = clamped_only = 0
    for x in range(n):
        entries = []
        for y in sorted(support[x]):
            c = lag1_counts[x].get(y, 0)
            if c:
                entries.append((y, c / lag1_totals[x]))
                lag1_pairs += 1
            else:
                entries.append((y, support_epsilon))
                clamped_only += 1
        total = sum(v for _, v in entries)
        rows.append([(y, v / total) for y, v in entries])
    return rows, lag1_pairs, clamped_only


def ref_perplexity(w, P_dense, sequences):
    total, impossible = ref_log_likelihood(w, P_dense, sequences)
    T = sum(len(s) - 1 for s in sequences)
    if impossible:
        return math.inf
    return math.exp(-total / T)


def fd_grad_w(w, P_dense, sequences, h=1e-6):
    """Central finite differences of the log-likelihood in raw w coordinates,
    without renormalizing the perturbed weight vector."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for i in range(w.size):
        hi = w.copy()
        lo = w.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (ref_log_likelihood(hi, P_dense, sequences)[0]
                - ref_log_likelihood(lo, P_dense, sequences)[0]) / (2 * h)
    return g


def fd_grad_P(w, P_dense, sequences, entries, h=1e-6):
    """Central finite differences for selected (row, col) entries of P,
    perturbing the raw entry without renormalizing the row."""
    P_dense = np.asarray(P_dense, dtype=np.float64)
    out = {}
    for (r, c) in entries:
        hi = P_dense.copy()
        lo = P_dense.copy()
        hi[r, c] += h
        lo[r, c] -= h
        out[(r, c)] = (ref_log_likelihood(w, hi, sequences)[0]
                       - ref_log_likelihood(w, lo, sequences)[0]) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# Instance builders


def make_model(w, P_dense, rare_token=None):
    """LampModel from a weight list and dense matrix, with a synthetic vocab."""
    P_dense = np.asarray(P_dense, dtype=np.float64)
    n = P_dense.shape[0]
    tokens = tuple(f"s{i}" for i in range(n))
    return LampModel(
        w=HistoryDistribution.from_weights(w),
        P=SparseStochasticMatrix.from_dense(P_dense),
        vocab=Vocabulary(tokens, rare_token),
    )


def make_corpus(vocab_or_model, sequences):
    vocab = getattr(vocab_or_model, "vocab", vocab_or_model)
    return Corpus.from_sequences(vocab, sequences)


def worked_matrix():
    """The 2-state worked instance used across the suite."""
    return np.array([[0.9, 0.1], [0.2, 0.8]])


def cycle_matrix(n, eps):
    """Cycle on n states: row x goes to x+1 mod n, except state 0 keeps a
    self-loop of mass eps.  eps = 0 is the pure deterministic cycle, under
    which a state can repeat twice in a row but never three times."""
    P = np.zeros((n, n))
    for x in range(1, n):
        P[x, (x + 1) % n] = 1.0
    P[0, 0] = eps
    P[0, 1] = 1.0 - eps
    return P


def random_stochastic_matrix(rng, n, min_entry=0.0):
    """Dense random row-stochastic matrix; positive min_entry makes it ergodic."""
    raw = rng.random((n, n)) + min_entry
    return raw / raw.sum(axis=1, keepdims=True)


def random_simplex(rng, k):
    raw = rng.random(k) + 1e-3
    return raw / raw.sum()


def random_sequences(rng, n, n_seqs, max_len, min_len=2):
    return [
        rng.integers(0, n, size=rng.integers(min_len, max_len + 1)).tolist()
        for _ in range(n_seqs)
    ]


@st.composite
def sparse_models(draw, max_matrices=1):
    """Random model whose rows mix absent entries, explicit zeros and
    positive entries; a row with no positive entry is stored empty, and lag
    weights may be zero.  With ``max_matrices`` > 1 the lags may read
    different matrices."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    raw_w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    matrices = []
    for _ in range(draw(st.integers(1, max_matrices))):
        rows = []
        for _ in range(n):
            cells = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))  # -1 is absent
            mass = sum(v for v in cells if v > 0)
            rows.append([(c, v / mass) for c, v in enumerate(cells) if v >= 0] if mass else [])
        matrices.append(SparseStochasticMatrix.from_rows(n, rows))
    lag_map = draw(st.lists(st.integers(1, len(matrices)), min_size=k, max_size=k))
    tokens = [f"s{i}" for i in range(n)]
    return LampModel.per_lag(
        HistoryDistribution.from_weights(np.array(raw_w) / sum(raw_w)),
        matrices,
        lag_map,
        Vocabulary.from_tokens(tokens, draw(st.none() | st.sampled_from(tokens))),
    )


# ---------------------------------------------------------------------------
# Reference chain analyses: per-state Python walks and stepwise powers


def ref_is_ergodic(P):
    """Reason ("ergodic", "reducible" or "periodic") by Python BFS over
    per-row lists of positive entries, with the period as a running gcd."""
    n = P.n
    adj = [[int(c) for c, p in zip(*P.row(x)) if p > 0.0] for x in range(n)]

    def levels(graph):
        level = [-1] * n
        level[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in graph[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    forward = levels(adj)
    radj = [[] for _ in range(n)]
    for u in range(n):
        for v in adj[u]:
            radj[v].append(u)
    if min(forward) < 0 or min(levels(radj)) < 0:
        return "reducible"
    period = 0
    for u in range(n):
        for v in adj[u]:
            period = math.gcd(period, forward[u] + 1 - forward[v])
    return "ergodic" if period == 1 else "periodic"


def ref_stationary(P, tol=1e-12):
    """Power iteration from the uniform vector, as pi @ P by bincount."""
    rows = np.repeat(np.arange(P.n), np.diff(P.indptr))
    pi = np.full(P.n, 1.0 / P.n)
    while True:
        nxt = np.bincount(P.cols, weights=pi[rows] * P.probs, minlength=P.n)
        if float(np.abs(nxt - pi).sum()) <= tol:
            return nxt / nxt.sum()
        pi = nxt


def ref_mixing_time(P, delta):
    """First t with worst-start TV <= delta over stepwise products
    P^t = P^(t-1) P, continued until TV <= delta/10 or t = 10 n t_first."""
    if delta >= 1.0:
        return 0
    pi = ref_stationary(P)
    dense = P.dense()
    M = np.eye(P.n)
    t, t_first = 0, None
    while True:
        M = M @ dense
        t += 1
        d = 0.5 * float(np.max(np.abs(M - pi).sum(axis=1)))
        if t_first is None:
            if d <= delta:
                t_first = t
        else:
            assert d <= delta, "total variation rose back above delta"
            if d <= delta / 10.0 or t >= 10 * P.n * t_first:
                return t_first


def ref_lift(model, starts):
    """The k-th order lift by a FIFO walk over tuples with dicts.

    Returns (states in discovery order, indptr, cols, probs) of Q, each
    row's entries sorted by target id and each probability summed over
    lags in lag order.  Raises LookupError on an empty row read at a
    positive-weight lag."""
    k, n, w = model.k, model.n, model.w.weights
    index, states, queue = {}, [], deque()
    for x in starts:
        h = (x,) * k
        if h not in index:
            index[h] = len(states)
            states.append(h)
            queue.append(h)
    rows = []
    while queue:
        h = queue.popleft()
        acc = {}
        for i in range(1, k + 1):
            if w[i - 1] == 0.0:
                continue
            cols, probs = model.matrix_for_lag(i).row(h[k - i])
            if cols.size == 0:
                raise LookupError(f"state {h[k - i]} has no outgoing transitions")
            for c, p in zip(cols.tolist(), probs.tolist()):
                if p > 0.0:
                    acc[c] = acc.get(c, 0.0) + float(w[i - 1]) * p
        row = []
        for y, p in acc.items():
            nxt = h[1:] + (y,)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            row.append((index[nxt], p))
        rows.append(sorted(row))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols = np.array([c for r in rows for c, _ in r], dtype=np.int64)
    probs = np.array([p for r in rows for _, p in r], dtype=np.float64)
    return states, indptr, cols, probs


def ref_exponents(w, t_max, seed):
    """e_1..e_{t_max} by the recursion e_t = e_{t - W_t} + 1 (e_s = 0 for
    s <= 0), with lag W_t drawn from one uniform per step t >= 2."""
    cum = np.cumsum(np.asarray(w.weights, dtype=np.float64))
    cum[-1] = 1.0
    u = np.random.default_rng(seed).random(t_max - 1)
    lags = np.searchsorted(cum, u, side="right") + 1
    e = np.zeros(t_max + 1, dtype=np.int64)
    e[1] = 1
    for t in range(2, t_max + 1):
        e[t] = e[max(t - lags[t - 2], 0)] + 1
    return e[1:]
