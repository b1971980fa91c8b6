"""Core model types and exact evaluation for linear additive Markov processes.

A LAMP couples a sparse row-stochastic matrix P with a distribution w over
lags 1..k.  Given a history x_0..x_{t-1}, the next-state law is the
w-weighted mixture of the P rows of the k most recent states, where lags
reaching past the start of the history clamp to x_0:

    Pr[X_t = y | x_0..x_{t-1}] = sum_i w_i * P(x_{max(0, t-i)}, y)

With w = (1, 0, ..., 0) this is an ordinary first-order Markov chain.  The
generalized model keeps a bank of matrices and lets lag i read the matrix
lag_map[i]; the transition rule, the generator and the JSON format here
serve both, while scoring and training need a single matrix.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LampError",
    "DataError",
    "NumericError",
    "VocabularyMismatch",
    "EmptyRowError",
    "NonErgodicError",
    "Vocabulary",
    "SparseStochasticMatrix",
    "HistoryDistribution",
    "LampModel",
    "Corpus",
    "ScoredPositions",
    "LogLikelihood",
    "transition_distribution",
    "log_likelihood",
    "perplexity",
    "generate",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

#: Probability floor used when floor smoothing is requested at evaluation time.
EVALUATION_FLOOR = 1e-10

#: Tolerance on row sums of stored stochastic matrices.
ROW_SUM_TOL = 1e-9


class LampError(Exception):
    """Base class for errors raised by this package."""


class DataError(LampError):
    """Invalid or incompatible input data."""


class NumericError(LampError):
    """Numeric failure: divergence, non-finite values, undefined quantities."""


class VocabularyMismatch(DataError):
    """Model and corpus vocabularies do not agree."""


class EmptyRowError(NumericError):
    """A state with no outgoing transitions was queried during evaluation."""


class NonErgodicError(NumericError):
    """An operation that requires an ergodic matrix received a non-ergodic one."""


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token set mapping token strings to dense integer ids."""

    tokens: tuple[str, ...]
    rare_token: str | None = None

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise DataError("vocabulary must contain at least one token")
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("vocabulary tokens must be unique")
        if self.rare_token is not None and self.rare_token not in self.tokens:
            raise DataError(f"rare token {self.rare_token!r} is not in the vocabulary")

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], rare_token: str | None = None) -> "Vocabulary":
        return cls(tuple(tokens), rare_token)

    @classmethod
    def from_size(cls, n: int, prefix: str = "s") -> "Vocabulary":
        """Synthetic vocabulary s0..s{n-1}, handy for matrix-level work."""
        return cls(tuple(f"{prefix}{i}" for i in range(n)))

    @cached_property
    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def id(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise DataError(f"token {token!r} is not in the vocabulary") from None

    def token(self, state: int) -> str:
        if not 0 <= state < len(self.tokens):
            raise DataError(f"state id {state} out of range for vocabulary of size {len(self)}")
        return self.tokens[state]

    @property
    def rare_id(self) -> int | None:
        return None if self.rare_token is None else self.index[self.rare_token]


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SparseStochasticMatrix:
    """Row-stochastic matrix stored as per-row sorted (column, probability) arrays.

    Rows may be empty (a state with no observed outgoing transition); empty
    rows are valid storage but raise :class:`EmptyRowError` when queried by
    evaluation or generation.  Non-empty rows must sum to 1 within 1e-9 and
    every stored probability must be nonnegative.
    """

    n: int
    row_cols: tuple[np.ndarray, ...]
    row_probs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise DataError("matrix must have at least one state")
        if len(self.row_cols) != self.n or len(self.row_probs) != self.n:
            raise DataError("row arrays must have length n")
        for x, (cols, probs) in enumerate(zip(self.row_cols, self.row_probs)):
            if cols.shape != probs.shape:
                raise DataError(f"row {x}: column and probability arrays differ in length")
            if cols.size == 0:
                continue
            if np.any(cols < 0) or np.any(cols >= self.n):
                raise DataError(f"row {x}: column index out of range")
            if np.any(np.diff(cols) <= 0):
                raise DataError(f"row {x}: columns must be strictly increasing")
            if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
                raise DataError(f"row {x}: probabilities must be finite and nonnegative")
            s = float(probs.sum())
            if abs(s - 1.0) > ROW_SUM_TOL:
                raise DataError(f"row {x}: probabilities sum to {s!r}, expected 1 within {ROW_SUM_TOL}")

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Iterable[tuple[int, float]]]) -> "SparseStochasticMatrix":
        """Build from per-row iterables of (column, probability) pairs."""
        row_cols, row_probs = [], []
        for entries in rows:
            entries = sorted(entries)
            cols = _as_readonly(np.array([c for c, _ in entries], dtype=np.int64))
            probs = _as_readonly(np.array([p for _, p in entries], dtype=np.float64))
            row_cols.append(cols)
            row_probs.append(probs)
        return cls(n, tuple(row_cols), tuple(row_probs))

    @classmethod
    def from_csr(
        cls, n: int, indptr: np.ndarray, cols: np.ndarray, probs: np.ndarray
    ) -> "SparseStochasticMatrix":
        """Build from flat storage: row x holds ``cols[indptr[x]:indptr[x+1]]``
        (strictly increasing) with the matching ``probs``."""
        bounds = indptr[1:-1]
        return cls(
            n,
            tuple(_as_readonly(c) for c in np.split(cols, bounds)),
            tuple(_as_readonly(p) for p in np.split(probs, bounds)),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseStochasticMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DataError("dense matrix must be square")
        n = dense.shape[0]
        rows = [[(int(c), float(dense[x, c])) for c in np.nonzero(dense[x])[0]] for x in range(n)]
        return cls.from_rows(n, rows)

    def row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= x < self.n:
            raise DataError(f"state id {x} out of range for matrix of size {self.n}")
        return self.row_cols[x], self.row_probs[x]

    def prob(self, x: int, y: int) -> float:
        cols, probs = self.row(x)
        i = np.searchsorted(cols, y)
        if i < cols.size and cols[i] == y:
            return float(probs[i])
        return 0.0

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for x in range(self.n):
            out[x, self.row_cols[x]] = self.row_probs[x]
        return out

    def empty_rows(self) -> list[int]:
        return [x for x in range(self.n) if self.row_cols[x].size == 0]

    @property
    def support_size(self) -> int:
        return sum(int(c.size) for c in self.row_cols)

    # Cached flat views used by vectorised lookups and left-multiplication.

    @cached_property
    def indptr(self) -> np.ndarray:
        """Row offsets into the flat support storage: row x occupies
        ``indptr[x]:indptr[x+1]``."""
        out = np.zeros(self.n + 1, dtype=np.int64)
        out[1:] = np.cumsum([c.size for c in self.row_cols])
        return out

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return rows, np.concatenate(self.row_cols), np.concatenate(self.row_probs)

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        rows, cols, _ = self._flat
        return rows * self.n + cols  # sorted because rows are visited in order and cols ascend

    def pair_indices(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Indices into flat support storage for (src, tgt) pairs, -1 if absent."""
        keys = src.astype(np.int64) * self.n + tgt.astype(np.int64)
        pos = np.searchsorted(self._pair_keys, keys)
        pos = np.minimum(pos, max(self._pair_keys.size - 1, 0))
        if self._pair_keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        hit = self._pair_keys[pos] == keys
        return np.where(hit, pos, -1)

    def lookup_pairs(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Vectorised P(src, tgt); zero for pairs outside the support."""
        _, _, probs = self._flat
        idx = self.pair_indices(src, tgt)
        out = np.zeros(idx.shape)
        hit = idx >= 0
        out[hit] = probs[idx[hit]]
        return out

    def left_multiply(self, pi: np.ndarray) -> np.ndarray:
        """Row-vector product pi @ P without densifying."""
        rows, cols, probs = self._flat
        out = np.zeros(self.n)
        np.add.at(out, cols, pi[rows] * probs)
        return out

    @cached_property
    def _samplers(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per-row column lists and cumulative probabilities for bisect sampling."""
        col_lists: list[list[int]] = []
        cum_lists: list[list[float]] = []
        for cols, probs in zip(self.row_cols, self.row_probs):
            cum = np.cumsum(probs)
            if cum.size:
                cum[-1] = 1.0  # guard against row sums a few ulp below 1
            col_lists.append([int(c) for c in cols])
            cum_lists.append([float(v) for v in cum])
        return col_lists, cum_lists


@dataclass(frozen=True)
class HistoryDistribution:
    """Distribution over lags 1..k with cached first and second moments."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _as_readonly(np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise DataError("lag weights must be a nonempty vector")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise DataError("lag weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DataError(f"lag weights sum to {float(w.sum())!r}, expected 1 within 1e-12")

    @classmethod
    def from_weights(cls, weights: Iterable[float]) -> "HistoryDistribution":
        return cls(np.asarray(list(weights), dtype=np.float64))

    @classmethod
    def uniform(cls, k: int) -> "HistoryDistribution":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def geometric(cls, decay: float, k: int) -> "HistoryDistribution":
        """Weights proportional to decay**i for i = 1..k."""
        if not 0.0 < decay:
            raise DataError("decay must be positive")
        raw = decay ** np.arange(1, k + 1, dtype=np.float64)
        return cls(raw / raw.sum())

    @classmethod
    def first_order(cls) -> "HistoryDistribution":
        return cls(np.array([1.0]))

    @property
    def k(self) -> int:
        return int(self.weights.size)

    @cached_property
    def mean(self) -> float:
        lags = np.arange(1, self.k + 1, dtype=np.float64)
        return float(lags @ self.weights)

    @cached_property
    def variance(self) -> float:
        lags = np.arange(1, self.k + 1, dtype=np.float64)
        return float((lags * lags) @ self.weights - self.mean**2)

    @cached_property
    def _cum(self) -> list[float]:
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        return [float(v) for v in cum]


@dataclass(frozen=True, init=False)
class LampModel:
    """A LAMP: lag distribution w, a bank of stochastic matrices, a 1-based
    map sending each lag i in 1..k to the matrix scoring that lag, and the
    token vocabulary.

    ``LampModel(w, P, vocab)`` is the classic model: one matrix read at
    every lag.  :meth:`per_lag` builds the generalized model whose lags may
    read different matrices.
    """

    w: HistoryDistribution
    matrices: tuple[SparseStochasticMatrix, ...]
    lag_map: tuple[int, ...]
    vocab: Vocabulary

    def __init__(self, w: HistoryDistribution, P: SparseStochasticMatrix, vocab: Vocabulary) -> None:
        self._assign(w, (P,), (1,) * w.k, vocab)

    @classmethod
    def per_lag(
        cls,
        w: HistoryDistribution,
        matrices: Sequence[SparseStochasticMatrix],
        lag_map: Sequence[int],
        vocab: Vocabulary,
    ) -> "LampModel":
        """Model whose lag i reads ``matrices[lag_map[i-1] - 1]``."""
        model = cls.__new__(cls)
        model._assign(w, tuple(matrices), tuple(int(j) for j in lag_map), vocab)
        return model

    def _assign(self, w, matrices, lag_map, vocab) -> None:
        fields = {"w": w, "matrices": matrices, "lag_map": lag_map, "vocab": vocab}
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not matrices:
            raise DataError("model needs at least one transition matrix")
        n = matrices[0].n
        if any(m.n != n for m in matrices):
            raise DataError("all transition matrices must share one state space")
        if n != len(vocab):
            raise DataError(f"matrix has {n} states but vocabulary has {len(vocab)} tokens")
        if len(lag_map) != w.k:
            raise DataError(f"lag map has {len(lag_map)} entries for {w.k} lags")
        for j in lag_map:
            if not 1 <= j <= len(matrices):
                raise DataError(f"lag map entry {j} outside 1..{len(matrices)}")

    @property
    def k(self) -> int:
        return self.w.k

    @property
    def n(self) -> int:
        return self.matrices[0].n

    @property
    def n_matrices(self) -> int:
        return len(self.matrices)

    @property
    def P(self) -> SparseStochasticMatrix:
        """The one matrix of a single-matrix model; scoring, training and
        the chain analyses need one."""
        if self.n_matrices != 1:
            raise DataError(f"model has {self.n_matrices} matrices; this operation needs one")
        return self.matrices[0]

    def matrix_for_lag(self, i: int) -> SparseStochasticMatrix:
        """Matrix scoring lag i (1-based)."""
        if not 1 <= i <= self.k:
            raise DataError(f"lag {i} outside 1..{self.k}")
        return self.matrices[self.lag_map[i - 1] - 1]


@dataclass(frozen=True)
class Corpus:
    """Sequences of state ids over a shared vocabulary."""

    vocab: Vocabulary
    sequences: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = len(self.vocab)
        seqs = []
        for s, seq in enumerate(self.sequences):
            seq = _as_readonly(np.asarray(seq, dtype=np.int64))
            if seq.ndim != 1 or seq.size == 0:
                raise DataError(f"sequence {s} is empty; empty sequences cannot be stored")
            if seq.min() < 0 or seq.max() >= n:
                raise DataError(f"sequence {s} contains a state id outside the vocabulary")
            seqs.append(seq)
        object.__setattr__(self, "sequences", tuple(seqs))

    @classmethod
    def from_sequences(cls, vocab: Vocabulary, sequences: Iterable[Iterable[int]]) -> "Corpus":
        return cls(vocab, tuple(np.asarray(list(s), dtype=np.int64) for s in sequences))

    @property
    def total_transitions(self) -> int:
        return sum(int(s.size - 1) for s in self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)


class ScoredPositions:
    """Every scored position of a corpus, flattened for lags 1..k.

    Position t is index ``pos[t]`` >= 1 of sequence ``seq_id[t]``, with
    target ``tgt[t]`` and ``src[t, i-1]`` its source at lag i, clamped to the
    sequence's first state.  Positions run in sequence order, then in order
    within each sequence.  This table is the one place the package derives
    per-position mixture terms from: scoring, the empirical initializer and
    the trainer all read it.
    """

    def __init__(self, corpus: Corpus, k: int) -> None:
        self.k = k
        self.n = len(corpus.vocab)
        self.n_sequences = len(corpus)
        lengths = np.array([s.size for s in corpus.sequences], dtype=np.int64)
        flat = np.concatenate(corpus.sequences) if len(corpus) else np.empty(0, np.int64)
        starts = np.cumsum(lengths) - lengths
        self.seq_id = np.repeat(np.arange(lengths.size), lengths - 1)
        first = starts[self.seq_id]  # flat index of each position's sequence start
        scored = np.ones(flat.size, dtype=bool)
        scored[starts] = False
        at = np.flatnonzero(scored)
        self.pos = at - first
        self.tgt = flat[at]
        self.src = flat[np.maximum(at[:, None] - np.arange(1, k + 1), first[:, None])]
        self.T = int(self.tgt.size)

    @cached_property
    def row_positions(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per state x: (position indices, lag indices) of every (t, i) with
        clamped source x.  Computed once per corpus."""
        flat = self.src.ravel()  # position-major, lag minor
        order = np.argsort(flat, kind="stable")
        bounds = np.cumsum(np.bincount(flat, minlength=self.n))[:-1]
        return [(idx // self.k, idx % self.k) for idx in np.split(order, bounds)]

    def lag_probabilities(self, P: SparseStochasticMatrix) -> np.ndarray:
        """The (T, k) matrix A with ``A[t, i-1] = P(src[t, i-1], tgt[t])``, so
        that ``A @ w`` is every position's mixture probability."""
        return P.lookup_pairs(self.src, self.tgt[:, None])


@dataclass(frozen=True)
class LogLikelihood:
    """Natural-log likelihood of a corpus with a per-sequence breakdown.

    Positions whose mixture probability is exactly zero contribute -inf and
    are tallied in ``impossible_transitions``.
    """

    total: float
    per_sequence: tuple[float, ...]
    scored_transitions: int
    impossible_transitions: int

    def perplexity(self) -> float:
        """exp(-total / scored_transitions), or +inf when any scored
        transition is impossible."""
        if self.scored_transitions == 0:
            raise DataError("perplexity requires at least one scored transition")
        if self.impossible_transitions > 0:
            return math.inf
        return math.exp(-self.total / self.scored_transitions)


# ---------------------------------------------------------------------------
# Evaluation


def _check_vocab(model_vocab: Vocabulary, corpus_vocab: Vocabulary) -> None:
    if model_vocab is corpus_vocab:
        return
    if model_vocab.tokens != corpus_vocab.tokens:
        raise VocabularyMismatch("model and corpus vocabularies differ")


def transition_distribution(model: LampModel, history: Sequence[int]) -> np.ndarray:
    """Next-state distribution given a nonempty history of state ids.

    Lags that reach past the start of the history clamp to its first element,
    and lag i reads its row from the matrix mapped to it, also when clamped.
    Entries older than k steps never influence the result.
    """
    if len(history) == 0:
        raise DataError("history must contain at least one state")
    n = model.n
    hist = np.asarray(history, dtype=np.int64)
    if hist.min() < 0 or hist.max() >= n:
        raise DataError("history contains a state id outside the vocabulary")
    out = np.zeros(n)
    L = len(hist)
    w = model.w.weights
    for i in range(1, model.k + 1):
        src = int(hist[L - i]) if i <= L else int(hist[0])
        cols, probs = model.matrix_for_lag(i).row(src)
        if cols.size == 0:
            raise EmptyRowError(f"state {src} has no outgoing transitions")
        out[cols] += w[i - 1] * probs
    return out


#: Most stored entries one chunk of floored scoring gathers at once; bounds
#: the scratch memory whatever the corpus size.
_FLOOR_CHUNK = 1 << 14


def _floored_probabilities(
    model: LampModel, positions: ScoredPositions, floor: float
) -> np.ndarray:
    """Floor-smoothed mixture probability of every scored position.

    Every one of the n states is raised to at least ``floor`` and the
    distribution is renormalized, so a position scores
    ``max(acc[tgt], floor) / (sum(max(acc, floor)) + (n - |acc|) * floor)``
    where ``acc`` sums ``w_i * P(src_i, .)`` over the stored entries of the k
    source rows.  Those entries are gathered as slices of the flat storage and
    summed per (position, column) key, one chunk of positions at a time.
    """
    P, n, k = model.P, model.n, model.k
    _, cols, probs = P._flat
    indptr, w = P.indptr, model.w.weights
    sizes = np.diff(indptr)[positions.src]  # stored entries per (position, lag)
    ends = np.cumsum(sizes.sum(axis=1))
    out = np.empty(positions.T)
    start = 0
    while start < positions.T:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _FLOOR_CHUNK, side="right")), start + 1)
        src = positions.src[start:stop].ravel()
        counts = sizes[start:stop].ravel()
        owner = np.repeat(np.arange(src.size), counts)  # (position, lag) of each gathered entry
        offset = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
        entry = indptr[src][owner] + offset
        keys, inverse = np.unique((owner // k) * n + cols[entry], return_inverse=True)
        # bincount adds each column's terms in lag order, as the mixture does.
        acc = np.bincount(inverse, weights=w[owner % k] * probs[entry], minlength=keys.size)
        local = keys // n
        m = stop - start
        norm = (np.bincount(local, weights=np.maximum(acc, floor), minlength=m)
                + (n - np.bincount(local, minlength=m)) * floor)
        want = np.arange(m) * n + positions.tgt[start:stop]
        at = np.searchsorted(keys, want)
        hit = at < keys.size
        hit[hit] = keys[at[hit]] == want[hit]
        at_tgt = np.zeros(m)
        at_tgt[hit] = acc[at[hit]]
        out[start:stop] = np.maximum(at_tgt, floor) / norm
        start = stop
    return out


def log_likelihood(
    model: LampModel, corpus: Corpus, floor: float | None = None
) -> LogLikelihood:
    """Natural-log likelihood of a corpus under the model.

    Every position j >= 1 of every sequence is scored, including the early
    positions where lags clamp to the first element.  Passing
    ``floor=EVALUATION_FLOOR`` enables floor smoothing so that no scored
    transition has probability zero.  Without it, a scored source state with
    an empty row raises :class:`EmptyRowError`.  A model with several
    matrices raises :class:`DataError`.
    """
    _check_vocab(model.vocab, corpus.vocab)
    positions = ScoredPositions(corpus, model.k)
    if floor is None:
        src = positions.src.ravel()
        empty = np.flatnonzero(np.diff(model.P.indptr)[src] == 0)
        if empty.size:  # the first empty source row, position-major, lag-minor
            raise EmptyRowError(f"state {int(src[empty[0]])} has no outgoing transitions")
        p = positions.lag_probabilities(model.P) @ model.w.weights
    else:
        p = _floored_probabilities(model, positions, floor)
    impossible = p <= 0.0
    per_seq = np.zeros(positions.n_sequences)
    np.add.at(per_seq, positions.seq_id, np.log(np.where(impossible, 1.0, p)))
    per_seq[positions.seq_id[impossible]] = -math.inf
    per_sequence = tuple(per_seq.tolist())
    return LogLikelihood(
        total=float(sum(per_sequence)),
        per_sequence=per_sequence,
        scored_transitions=positions.T,
        impossible_transitions=int(impossible.sum()),
    )


def perplexity(model: LampModel, corpus: Corpus, floor: float | None = None) -> float:
    """Perplexity 2**(-L2/T) where L2 is the base-2 log-likelihood and T the
    number of scored transitions.  Equals exp(-L/T) for the natural-log L.

    Returns +inf when any scored transition is impossible and floor smoothing
    is off.
    """
    return log_likelihood(model, corpus, floor=floor).perplexity()


# ---------------------------------------------------------------------------
# Generation


def generate(model: LampModel, start: int, length: int, seed: int) -> np.ndarray:
    """Sample a sequence of ``length`` state ids beginning with ``start``.

    Each step draws a lag from w, takes the clamped historical state at that
    lag, and samples the next state from that state's row in the matrix
    mapped to the drawn lag.  Deterministic for a fixed seed.
    """
    if not 0 <= start < model.n:
        raise DataError(f"start state {start} out of range")
    if length < 1:
        raise DataError("length must be at least 1")
    samplers = [model.matrix_for_lag(i)._samplers for i in range(1, model.k + 1)]
    rng = np.random.default_rng(seed)
    seq = [start]
    if length == 1:
        return np.asarray(seq, dtype=np.int64)
    m = length - 1
    # One row of uniforms per step, so a longer run with the same seed
    # extends a shorter one without changing its prefix.
    u = rng.random((m, 2))
    u_lag, u_row = u[:, 0], u[:, 1]
    cum_w = model.w._cum
    for t in range(m):
        lag = bisect.bisect_right(cum_w, u_lag[t]) + 1
        pos = len(seq)
        src = seq[pos - lag] if lag <= pos else seq[0]
        col_lists, cum_lists = samplers[lag - 1]
        cum = cum_lists[src]
        if not cum:
            raise EmptyRowError(f"state {src} has no outgoing transitions")
        seq.append(col_lists[src][bisect.bisect_right(cum, u_row[t])])
    return np.asarray(seq, dtype=np.int64)


# ---------------------------------------------------------------------------
# Serialization


def _triples(m: SparseStochasticMatrix) -> list:
    """A matrix flattened to [row, col, prob] triples in row-major order."""
    triples = []
    for x in range(m.n):
        cols, probs = m.row(x)
        triples.extend([int(x), int(c), float(p)] for c, p in zip(cols, probs))
    return triples


def _matrix(n: int, triples) -> SparseStochasticMatrix:
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    try:
        for entry in triples:
            r, c, p = int(entry[0]), int(entry[1]), float(entry[2])
            if not (0 <= r < n and 0 <= c < n):
                raise DataError(f"matrix entry ({r}, {c}) out of range")
            rows[r].append((c, p))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed matrix entry in model document: {exc}") from exc
    return SparseStochasticMatrix.from_rows(n, rows)


def model_to_dict(model: LampModel) -> dict:
    """JSON-ready document {"k", "w", "n", "vocab"} plus, for a single-matrix
    model, "matrix" as [row, col, prob] triples in row-major order, and
    otherwise "matrices" (one triple list per matrix) and "lag_map"."""
    doc = {
        "k": model.k,
        "w": [float(v) for v in model.w.weights],
        "n": model.n,
        "vocab": list(model.vocab.tokens),
    }
    if model.n_matrices == 1:
        doc["matrix"] = _triples(model.matrices[0])
    else:
        doc["matrices"] = [_triples(m) for m in model.matrices]
        doc["lag_map"] = [int(j) for j in model.lag_map]
    if model.vocab.rare_token is not None:
        doc["rare_token"] = model.vocab.rare_token
    return doc


def model_from_dict(doc: dict) -> LampModel:
    """Read either document shape written by :func:`model_to_dict`."""
    if not isinstance(doc, dict) or ("matrix" in doc) == ("matrices" in doc):
        raise DataError('model document needs exactly one of "matrix" and "matrices"')
    try:
        k = int(doc["k"])
        w = [float(v) for v in doc["w"]]
        n = int(doc["n"])
        tokens = [str(t) for t in doc["vocab"]]
        if "matrix" in doc:
            all_triples, lag_map = [doc["matrix"]], [1] * k
        else:
            all_triples, lag_map = doc["matrices"], [int(j) for j in doc["lag_map"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    if len(w) != k:
        raise DataError(f"model document declares k={k} but has {len(w)} lag weights")
    if len(tokens) != n:
        raise DataError(f"model document declares n={n} but has {len(tokens)} tokens")
    return LampModel.per_lag(
        HistoryDistribution.from_weights(w),
        [_matrix(n, triples) for triples in all_triples],
        lag_map,
        Vocabulary.from_tokens(tokens, doc.get("rare_token")),
    )


def save_model(model: LampModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str) -> LampModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
