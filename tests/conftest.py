"""Shared test helpers: independent dense reference implementations and
random instance builders.

The reference functions here are deliberately naive.  They work on dense
numpy matrices and raw weight vectors, follow the defining equations term by
term, and share no code with the package, so they can serve as oracles for
the optimized implementations.  The chain-analysis references (the
``ref_*`` functions after the instance builders) read matrices only through
their row and dense accessors, and walk states one at a time in Python, in
the order that fixes the package's state ids and sums; ``ref_mixture_matrix``
is the mixture matrix as a dense sum of the mapped matrices in lag order;
``ref_generate`` is the sampler as a per-step loop over each row's own
cumulative sums.  The n-gram
references count and score one position at a time through dict-of-dict
tables, in the expression order that fixes the baselines' bits.  The
corpus references are the corpus transforms as they were written before
the corpus was stored flat: one sequence at a time, each new id looked up
by token name.  The
reference trainer at the end of this file is the P half-round as one block
solve per row, with each row's inputs gathered by its own ``np.unique``; the
package's EM trainer must end no lower than it on pinned corpora, and its
row solve checks that a converged EM half leaves no row to improve.  Before
it, ``ref_grad_P`` adds each (position, lag) pair's term to its entry in a
Python loop, positions first and then lags, the order whose bits EM's
gradient must give.
"""

from __future__ import annotations

import bisect
import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from lamp.core import (
    Corpus,
    DataError,
    EmptyRowError,
    HistoryDistribution,
    LampModel,
    NumericError,
    ScoredPositions,
    SparseStochasticMatrix,
    Vocabulary,
)
from lamp.learn import (
    BlockResult,
    HalfIterationRecord,
    TrainReport,
    _denominators,
    empirical_transition_matrix,
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


def ref_per_lag_log_likelihood(model, sequences, floor=None):
    """(per-sequence natural-log likelihoods, impossible count) of a model
    whose lags may read different matrices, one position at a time: lag i
    reads the dense copy of ``matrix_for_lag(i)`` at its clamped source.
    With ``floor``, every state of the mixture is raised to at least
    ``floor`` and the distribution is renormalized."""
    w = model.w.weights
    dense = [model.matrix_for_lag(i).dense() for i in range(1, model.k + 1)]
    per_sequence, impossible = [], 0
    for seq in sequences:
        total = 0.0
        for j in range(1, len(seq)):
            dist = np.zeros(model.n)
            for i in range(1, model.k + 1):
                dist += w[i - 1] * dense[i - 1][seq[j - i] if j - i >= 0 else seq[0]]
            if floor is not None:
                dist = np.maximum(dist, floor)
                dist /= dist.sum()
            if dist[seq[j]] <= 0.0:
                impossible += 1
                total = -math.inf
            elif total != -math.inf:
                total += math.log(dist[seq[j]])
        per_sequence.append(total)
    return per_sequence, impossible


def ref_floored_probabilities(model, positions, floor, chunk):
    """Floored scoring as it was written with sorting alone: per chunk of
    positions (``chunk`` gathered entries at most, one position at least),
    ``np.unique`` groups the gathered entries by (position, column) cell,
    ``bincount`` sums each cell's terms in lag order and each target is
    searched among the sorted cells.  The package must match it bit for
    bit."""
    P, n, k = model.P, model.n, model.k
    indptr, cols, probs, w = P.indptr, P.cols, P.probs, model.w.weights
    sizes = np.diff(indptr)[positions.src]
    ends = np.cumsum(sizes.sum(axis=1))
    out = np.empty(positions.T)
    start = 0
    while start < positions.T:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + chunk, side="right")), start + 1)
        rows = positions.src[start:stop].ravel()
        counts = indptr[rows + 1] - indptr[rows]
        owner = np.repeat(np.arange(rows.size), counts)
        entry = np.concatenate([np.arange(indptr[r], indptr[r + 1]) for r in rows]).astype(np.int64)
        keys, inverse = np.unique((owner // k) * n + cols[entry], return_inverse=True)
        acc = np.bincount(inverse, weights=w[owner % k] * probs[entry], minlength=keys.size)
        local = keys // n
        m = stop - start
        norm = (np.bincount(local, weights=np.maximum(acc, floor), minlength=m)
                + (n - np.bincount(local, minlength=m)) * floor)
        want = np.arange(m) * n + positions.tgt[start:stop]
        at = np.minimum(np.searchsorted(keys, want), max(keys.size - 1, 0))
        hit = (keys[at] == want) if keys.size else np.zeros(m, dtype=bool)
        at_tgt = np.where(hit, np.append(acc, 0.0)[at], 0.0)
        out[start:stop] = np.maximum(at_tgt, floor) / norm
        start = stop
    return out


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
# Reference n-gram baselines: per-position walks over dict-of-dict tables


def ref_ngram_counts(sequences, order):
    """Raw (context, next) counts: position j of a sequence contributes one
    event with context seq[j - m : j], m = min(j, order)."""
    counts = {}
    for seq in sequences:
        for j in range(1, len(seq)):
            m = min(j, order)
            targets = counts.setdefault(tuple(seq[j - m : j]), {})
            targets[seq[j]] = targets.get(seq[j], 0) + 1
    return counts


def ref_ngram_conditional(counts, order, smoothing, discount, n):
    """P(y | ctx) for a context already truncated to the order, by dict
    lookups in the package's expression order.

    Unsmoothed: the count ratio of the context, 0.0 for an unseen one.
    Kneser-Ney: level ``order`` holds the raw counts, each shorter level one
    count per distinct left extension of the level above plus its own raw
    sequence-start counts; the recursion interpolates upward from the
    uniform law and skips contexts a level does not hold.
    """
    if smoothing == "none":
        totals = {ctx: sum(t.values()) for ctx, t in counts.items()}

        def ratio(ctx, y):
            targets = counts.get(tuple(ctx))
            return 0.0 if targets is None else targets.get(y, 0) / totals[tuple(ctx)]

        return ratio
    raw = [{} for _ in range(order + 1)]
    for ctx, targets in counts.items():
        raw[len(ctx)][ctx] = dict(targets)
    tables = [{} for _ in range(order + 1)]
    tables[order] = raw[order]
    for m in range(order - 1, -1, -1):
        level = {}
        for ctx, targets in tables[m + 1].items():
            dest = level.setdefault(ctx[1:], {})
            for y in targets:
                dest[y] = dest.get(y, 0) + 1
        for ctx, targets in raw[m].items():
            dest = level.setdefault(ctx, {})
            for y, c in targets.items():
                dest[y] = dest.get(y, 0) + c
        tables[m] = level
    stats = [{ctx: (sum(t.values()), len(t)) for ctx, t in level.items()} for level in tables]

    def kneser_ney(ctx, y):
        ctx = tuple(ctx)
        D = discount
        total0, distinct0 = stats[0][()]
        p = max(tables[0][()].get(y, 0) - D, 0.0) / total0 + (D * distinct0 / total0) * (1.0 / n)
        for m in range(1, len(ctx) + 1):
            sub = ctx[len(ctx) - m :]
            if sub not in stats[m]:
                continue
            total, distinct = stats[m][sub]
            p = max(tables[m][sub].get(y, 0) - D, 0.0) / total + (D * distinct / total) * p
        return p

    return kneser_ney


# ---------------------------------------------------------------------------
# Reference corpus transforms: one sequence at a time


def ref_collapse_repeats(corpus):
    collapsed = []
    for seq in corpus.sequences:
        keep = np.ones(len(seq), dtype=bool)
        keep[1:] = seq[1:] != seq[:-1]
        collapsed.append(seq[keep])
    return Corpus.from_sequences(corpus.vocab, collapsed)


def ref_apply_rare_threshold(corpus, min_count, rare_label="<RARE>", counts=None):
    n = len(corpus.vocab)
    if counts is None:
        counts = np.zeros(n, dtype=np.int64)
        for seq in corpus.sequences:
            counts += np.bincount(seq, minlength=n)
    rare_ids = np.asarray(counts) < min_count
    if min_count == 0 or not bool(rare_ids.any()):
        return corpus
    survivors = [t for t, is_rare in zip(corpus.vocab.tokens, rare_ids) if not is_rare]
    if rare_label not in survivors:
        survivors.append(rare_label)
    vocab = Vocabulary.from_tokens(survivors, rare_label)
    new_id = np.empty(n, dtype=np.int64)
    for old, tok in enumerate(corpus.vocab.tokens):
        new_id[old] = vocab.index[rare_label if rare_ids[old] else tok]
    return Corpus.from_sequences(vocab, [new_id[seq] for seq in corpus.sequences])


def ref_project(corpus, train_idx, test_idx, rare_label="<RARE>"):
    """Train/test corpora over the train side's vocabulary; test-only
    tokens map to the rare token."""
    seen = np.zeros(len(corpus.vocab), dtype=bool)
    for i in train_idx:
        seen[corpus.sequences[i]] = True
    survivors = [t for t, s in zip(corpus.vocab.tokens, seen) if s]
    needs_rare = any(not seen[x] for i in test_idx for x in np.unique(corpus.sequences[i]))
    rare = corpus.vocab.rare_token if corpus.vocab.rare_token is not None else rare_label
    if needs_rare and rare not in survivors:
        survivors.append(rare)
    keep_marker = needs_rare or (
        corpus.vocab.rare_token is not None and corpus.vocab.rare_token in survivors
    )
    vocab = Vocabulary.from_tokens(survivors, rare if keep_marker else None)
    new_id = np.full(len(corpus.vocab), -1, dtype=np.int64)
    for old, tok in enumerate(corpus.vocab.tokens):
        if seen[old]:
            new_id[old] = vocab.index[tok]
        elif needs_rare:
            new_id[old] = vocab.index[rare]
    train = Corpus.from_sequences(vocab, [new_id[corpus.sequences[i]] for i in train_idx])
    test = Corpus.from_sequences(vocab, [new_id[corpus.sequences[i]] for i in test_idx])
    return train, test


def ref_align_corpus(corpus, vocab):
    """Re-encode token by token against ``vocab``; an unknown token falls
    back to its rare token, or raises DataError naming the token."""
    if corpus.vocab.tokens == vocab.tokens:
        return corpus
    remapped = []
    for seq in corpus.sequences:
        ids = []
        for x in seq:
            tok = corpus.vocab.tokens[int(x)]
            if tok in vocab.index:
                ids.append(vocab.index[tok])
            elif vocab.rare_token is not None:
                ids.append(vocab.index[vocab.rare_token])
            else:
                raise DataError(f"token {tok!r} is not in the vocabulary")
        remapped.append(ids)
    return Corpus.from_sequences(vocab, remapped)


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
    """First t >= 0 with worst-start TV <= delta over stepwise products
    P^t = P^(t-1) P from P^0 = I, continued until TV <= delta/10 or
    t = 10 n t_first."""
    if delta >= 1.0:
        return 0
    pi = ref_stationary(P)
    dense = P.dense()
    M = np.eye(P.n)
    t, t_first = 0, None
    while True:
        d = 0.5 * float(np.max(np.abs(M - pi).sum(axis=1)))
        if t_first is None:
            if d <= delta:
                t_first = t
        else:
            assert d <= delta, "total variation rose back above delta"
            if d <= delta / 10.0 or t >= 10 * P.n * t_first:
                return t_first
        M = M @ dense
        t += 1


def ref_mixture_matrix(model):
    """The mixture matrix as a dense sum: each lag's mapped matrix, made
    dense and scaled by its weight, added in lag order; the nonzero cells
    are kept.  A row empty at only some positive-weight lags fails the
    matrix's row-sum check."""
    dense = np.zeros((model.n, model.n))
    for i in range(1, model.k + 1):
        dense += model.w.weights[i - 1] * model.matrix_for_lag(i).dense()
    return SparseStochasticMatrix.from_dense(dense)


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


def ref_generate(model, start, length, seed):
    """``generate`` one step at a time: each step bisects w's cumulative sums
    for its lag and the source row's own cumulative sums for the next state,
    every row's last sum pinned to 1."""
    samplers = []
    for i in range(1, model.k + 1):
        m = model.matrix_for_lag(i)
        cum = np.concatenate([np.cumsum(probs) for probs in m.row_probs])
        cum[m.indptr[1:][np.diff(m.indptr) > 0] - 1] = 1.0
        samplers.append((m.cols.tolist(), cum.tolist(), m.indptr.tolist()))
    rng = np.random.default_rng(seed)
    seq = [start]
    if length == 1:
        return np.asarray(seq, dtype=np.int64)
    m = length - 1
    u = rng.random((m, 2))
    u_lag, u_row = u[:, 0], u[:, 1]
    cum_w = np.cumsum(model.w.weights)
    cum_w[-1] = 1.0
    cum_w = cum_w.tolist()
    for t in range(m):
        lag = bisect.bisect_right(cum_w, u_lag[t]) + 1
        pos = len(seq)
        src = seq[pos - lag] if lag <= pos else seq[0]
        cols, cum, indptr = samplers[lag - 1]
        lo, hi = indptr[src], indptr[src + 1]
        if lo == hi:
            raise EmptyRowError(f"state {src} has no outgoing transitions")
        seq.append(cols[bisect.bisect_right(cum, u_row[t], lo, hi)])
    return np.asarray(seq, dtype=np.int64)


# ---------------------------------------------------------------------------
# Reference trainer: a block solve for every row, inputs gathered row by row


def ref_kkt_residual(point, grad):
    """Simplex stationarity residual with the multiplier as np.mean."""
    active = point > 0.0
    lam = float(grad[active].mean())
    res = float(np.max(np.abs(grad[active] - lam)))
    if np.any(~active):
        res += max(0.0, float(np.max(grad[~active] - lam)))
    return res


def ref_water_fill(point, grad, hdiag, radius):
    """Water-filling step, sweeping the kinks with array reads."""
    h = np.minimum(hdiag, -1e-8)
    slope = -1.0 / h
    lo = np.minimum(point, radius)
    lam_enter = grad + lo / slope
    lam_sat = grad - radius / slope
    k = point.size
    order = np.argsort(-np.concatenate([lam_enter, lam_sat]), kind="stable")
    C, A, G = -float(lo.sum()), 0.0, 0.0
    prev, lam_star = math.inf, None
    for ev in order:
        lam_e = float(lam_enter[ev] if ev < k else lam_sat[ev - k])
        if A > 0.0:
            cand = (C + G) / A
            if lam_e <= cand <= prev:
                lam_star = cand
                break
        elif C == 0.0:
            lam_star = lam_e
            break
        i = ev if ev < k else ev - k
        if ev < k:
            C += float(lo[i])
            A += float(slope[i])
            G += float(grad[i]) * float(slope[i])
        else:
            A -= float(slope[i])
            G -= float(grad[i]) * float(slope[i])
            C += radius
        prev = lam_e
    if lam_star is None:
        lam_star = (C + G) / A if A > 0.0 else prev
    return np.clip((lam_star - grad) / h, -lo, radius)


def ref_optimize_simplex_block(objective, derivatives, point, cfg):
    """The trust-region water-filling solver, evaluating the derivatives at
    the start of every iteration and once more at the exit."""
    p = np.asarray(point, dtype=np.float64).copy()
    if p.ndim != 1 or p.size == 0:
        raise DataError("block point must be a nonempty vector")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise DataError("block point must lie on the probability simplex")
    if p.size == 1:
        p = np.array([1.0])
        return BlockResult(p, float(objective(p)), 0.0, 0, 0)
    value = float(objective(p))
    if not np.isfinite(value):
        raise NumericError("block objective is not finite at the starting point")
    radius, accepted, iterations = 0.1, 0, 0
    for _ in range(cfg.max_newton_iters):
        g, h = derivatives(p)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise NumericError("block derivatives are not finite")
        if ref_kkt_residual(p, g) <= cfg.kkt_tol:
            break
        iterations += 1
        u = ref_water_fill(p, g, h, radius)
        if float(np.max(np.abs(u))) < 1e-16:
            break
        cand = p + u
        cand[cand < 0.0] = 0.0
        cand[int(np.argmax(cand))] -= float(cand.sum()) - 1.0
        cand_value = float(objective(cand))
        if cand_value >= value - 1e-12:
            p, value = cand, cand_value
            accepted += 1
            radius = min(radius * 2.0, 1.0)
        else:
            radius *= 0.5
            if radius < 1e-14:
                break
    g, _ = derivatives(p)
    return BlockResult(p, value, ref_kkt_residual(p, g), iterations, accepted)


def _ref_simplex_objective(mixture, slopes, prior):
    """(value, derivatives) of sum_j log(d_j) + prior * sum(log theta), where
    d = mixture(theta) and slopes(d) gives the log terms' gradient and
    diagonal curvature in theta."""

    def value(theta):
        d = mixture(theta)
        if np.any(d <= 0.0):
            return -math.inf
        v = float(np.log(d).sum())
        if prior:
            if np.any(theta <= 0.0):
                return -math.inf
            v += prior * float(np.log(theta).sum())
        return v

    def derivatives(theta):
        g, h = slopes(mixture(theta))
        if prior:
            safe = np.maximum(theta, 1e-12)
            g = g + prior / safe
            h = h - prior / (safe * safe)
        return g, h

    return value, derivatives


def ref_weight_objective(A, prior):
    def slopes(d):
        r = 1.0 / d
        return A.T @ r, -(A * A).T @ (r * r)

    return _ref_simplex_objective(lambda w: A @ w, slopes, prior)


def ref_row_objective(base, m, colidx, size, prior):
    def slopes(d):
        r = m / d
        return (
            np.bincount(colidx, weights=r, minlength=size),
            -np.bincount(colidx, weights=r * r, minlength=size),
        )

    return _ref_simplex_objective(lambda q: base + m * q[colidx], slopes, prior)


def ref_row_positions(stats):
    """Per state x: (position indices, lag indices) of every (t, i) with
    clamped source x, positions ascending, then lags."""
    flat = stats.src.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.cumsum(np.bincount(flat, minlength=stats.n))[:-1]
    return [(idx // stats.k, idx % stats.k) for idx in np.split(order, bounds)]


def ref_row_block_inputs(row_positions, stats, x, cols, q, w, denom):
    """(positions, m, colidx, base) of row x's block, or None if no
    position with positive lag weight reaches a support column of x."""
    pos_pairs, lag_pairs = row_positions[x]
    if pos_pairs.size == 0 or cols.size == 0:
        return None
    upos, inverse = np.unique(pos_pairs, return_inverse=True)
    m = np.bincount(inverse, weights=w[lag_pairs])
    keep = m > 0.0
    upos, m = upos[keep], m[keep]
    if upos.size == 0:
        return None
    tgt = stats.tgt[upos]
    cidx = np.searchsorted(cols, tgt)
    on = (cidx < cols.size) & (cols[np.minimum(cidx, cols.size - 1)] == tgt)
    upos, m, cidx = upos[on], m[on], cidx[on]
    if upos.size == 0:
        return None
    return upos, m, cidx, denom[upos] - m * q[cidx]


def ref_grad_P(model, corpus):
    """Per-row gradient of the log-likelihood in P's stored entries: each
    (position, lag) pair adds w_i / (mixture probability) to its entry,
    positions first and then lags."""
    stats = ScoredPositions(corpus, model.k)
    w = model.w.weights
    denom = _denominators(stats, stats.lag_probabilities(model) @ w)
    out = [np.zeros(model.P.row(x)[0].size) for x in range(model.n)]
    for t in range(stats.T):
        y = int(stats.tgt[t])
        for i in range(stats.k):
            x = int(stats.src[t, i])
            cols = model.P.row(x)[0]
            j = int(np.searchsorted(cols, y))
            if j < cols.size and cols[j] == y:
                out[x][j] += w[i] / denom[t]
    return out


def ref_optimize_row(model, corpus, state, cfg):
    """One row's block solve with everything else fixed."""
    cols, probs = model.P.row(state)
    q = probs.copy()
    if cols.size == 1:
        return np.ones(1)
    stats = ScoredPositions(corpus, model.k)
    w = model.w.weights
    denom = _denominators(stats, stats.lag_probabilities(model) @ w)
    inputs = ref_row_block_inputs(ref_row_positions(stats), stats, state, cols, q, w, denom)
    if inputs is None:
        return q
    _, m, cidx, base = inputs
    value, derivatives = ref_row_objective(base, m, cidx, cols.size, cfg.prior_count)
    return ref_optimize_simplex_block(value, derivatives, q, cfg).point


def ref_alternate_minimize(corpus, cfg):
    """Alternating minimization with a block solve for every row of every
    P half: w, then each row with more than one support entry in state
    order, reading the mixture probabilities the sweep has left.  No
    final guard.  Returns (model, report)."""
    stats = ScoredPositions(corpus, cfg.k)
    positions = ref_row_positions(stats)
    P0 = empirical_transition_matrix(corpus, cfg.k, cfg.support_epsilon)
    w = HistoryDistribution.geometric(cfg.init_decay, cfg.k).weights.copy()
    n = len(corpus.vocab)
    indptr, cols = P0.indptr, P0.cols
    q = P0.probs.copy()
    matrix = P0
    A = matrix.lookup_pairs(stats.src, stats.tgt[:, None])
    denom = _denominators(stats, A @ w)

    def record(block, residual):
        ll = float(np.log(denom).sum())
        return HalfIterationRecord(
            block, ll, float(np.exp(-ll / stats.T)), residual,
            int(np.count_nonzero(w > 0)) + int(np.count_nonzero(q > 0)), 0.0,
        )

    records = [record("init", None)]
    for half in range(cfg.half_iterations):
        if half % 2 == 0:
            value, derivatives = ref_weight_objective(A, cfg.prior_count)
            res = ref_optimize_simplex_block(value, derivatives, w, cfg)
            w = res.point
            denom = _denominators(stats, A @ w)
            records.append(record("w", res.kkt_residual))
        elif not cfg.weight_only:
            worst = 0.0
            for x in range(n):
                lo, hi = indptr[x], indptr[x + 1]
                if hi - lo < 2:
                    continue
                inputs = ref_row_block_inputs(positions, stats, x, cols[lo:hi], q[lo:hi], w, denom)
                if inputs is None:
                    continue
                upos, m, cidx, base = inputs
                value, derivatives = ref_row_objective(base, m, cidx, int(hi - lo), cfg.prior_count)
                res = ref_optimize_simplex_block(value, derivatives, q[lo:hi], cfg)
                q[lo:hi] = res.point
                denom[upos] = base + m * res.point[cidx]
                worst = max(worst, res.kkt_residual)
            matrix = SparseStochasticMatrix.from_csr(n, indptr, cols, q)
            A = matrix.lookup_pairs(stats.src, stats.tgt[:, None])
            denom = _denominators(stats, A @ w)
            records.append(record("P", worst))
    model = LampModel(w=HistoryDistribution(w), P=matrix, vocab=corpus.vocab)
    return model, TrainReport(tuple(records), final_model=model)
