"""Core model types and exact evaluation for linear additive Markov processes.

A LAMP couples a sparse row-stochastic matrix P with a distribution w over
lags 1..k.  Given a history x_0..x_{t-1}, the next-state law is the
w-weighted mixture of the P rows of the k most recent states, where lags
reaching past the start of the history clamp to x_0:

    Pr[X_t = y | x_0..x_{t-1}] = sum_i w_i * P(x_{max(0, t-i)}, y)

With w = (1, 0, ..., 0) this is an ordinary first-order Markov chain.  The
generalized model keeps a bank of matrices and lets lag i read the matrix
lag_map[i]; the transition rule, scoring, the generator and the JSON format
here serve both, each reading lag i's rows through one stacked matrix (see
``LampModel._bank``), while training needs a single matrix.  The sum over
lags has one kernel: ``_lag_terms`` gathers a batch of histories' weighted
rows and ``_cell_sums`` adds them per (history, column) cell in lag order,
for the transition rule, floored scoring and ``lamp.glamp``.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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
    """A state with no outgoing transitions was drawn from or queried.

    ``empty_state`` is that state's id, when the raiser knows it.
    """

    def __init__(self, message: str, empty_state: int | None = None) -> None:
        super().__init__(message)
        self.empty_state = empty_state


class NonErgodicError(NumericError):
    """An operation that requires an ergodic matrix received a non-ergodic one.

    ``empty_state`` is the first state with no outgoing transitions when
    that is the cause, else None.
    """

    def __init__(self, message: str, empty_state: int | None = None) -> None:
        super().__init__(message)
        self.empty_state = empty_state


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


def _rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``, which must be a non-negative integer;
    a negative one raises DataError naming it."""
    if seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices into the flat storage of every stored entry of the CSR rows
    ``rows``, in order."""
    counts = indptr[rows + 1] - indptr[rows]
    entry = np.repeat(indptr[rows] - (np.cumsum(counts) - counts), counts)
    entry += np.arange(entry.size)
    return entry


#: ``_find_sorted`` builds a direct-address table when the key range is at
#: most this many slots per query.  Timed on a 2-core x86-64 machine with
#: numpy 2.4 for 10^3 to 3*10^5 random queries: building and reading the table
#: took 0.06-0.36 of the sort branch's time at 4 slots per query and broke
#: even near 64.  4 keeps the table at 32 bytes per query, about the sort
#: branch's own scratch.
_TABLE_SLOTS_PER_QUERY = 4


def _find_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of each of ``keys`` (any shape) in ``sorted_keys``, which
    strictly ascend, or -1 where it is absent.

    The caller hands over ``keys``, a contiguous int64 array, whose buffer
    takes the answers.  When the stored keys are non-negative and the
    largest is below ``_TABLE_SLOTS_PER_QUERY`` times the number of queries,
    a table indexed by key maps each stored key to its index and every query
    reads its slot.  Otherwise the keys are sorted in place and searched in
    ascending order, which walks ``sorted_keys`` once; the hits are checked
    in blocks and the argsort scatters them back, so the argsort and the
    search are the only key-sized scratch.  Both branches agree.
    """
    if sorted_keys.size == 0:
        return np.full(keys.shape, -1, dtype=np.int64)
    span = int(sorted_keys[-1]) + 1
    if sorted_keys[0] >= 0 and span <= _TABLE_SLOTS_PER_QUERY * keys.size:
        table = np.full(span + 1, -1, dtype=np.int64)  # slot `span` answers every key out of range
        table[sorted_keys] = np.arange(sorted_keys.size)
        slot = np.clip(keys, -1, span, out=keys)
        # "wrap" sends -1 to slot `span`.  take reads each index before it
        # writes that place, so the answers can overwrite the slots.
        return np.take(table, slot, out=slot, mode="wrap")
    order = np.argsort(keys, axis=None)
    flat = keys.reshape(-1)  # a view, sorted in place
    flat.sort()
    at = np.searchsorted(sorted_keys, flat)
    np.minimum(at, sorted_keys.size - 1, out=at)
    for lo in range(0, at.size, 1 << 16):
        part = slice(lo, lo + (1 << 16))
        at[part][sorted_keys[at[part]] != flat[part]] = -1
    flat[order] = at
    return keys


def _integers(values: list, low: float, high: float, what: str) -> np.ndarray:
    """``values`` as an array, each an integer in [low, high); the one reader
    of integers loaded from JSON.  A number such as 2.0 counts as the integer
    2; anything else, a boolean included, is refused with a
    :class:`DataError` naming it."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a list among numbers
        arr = np.asarray(values, dtype=object)
    # numpy reads a boolean among numbers as 0 or 1, so look for one by type.
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or bool in set(map(type, values)):
        # Name a value that is not a number, else an integer past int64.
        odd = [v for v in values if isinstance(v, bool) or not isinstance(v, (int, float, np.number))]
        raise DataError(f"{what} {(odd or [max(values, key=abs)])[0]!r} is not an integer")
    bad = np.flatnonzero(~((arr == np.floor(arr)) & (arr >= low) & (arr < high)))
    if bad.size:
        raise DataError(f"{what} {arr[bad[0]].item()!r} is not an integer in [{low}, {high})")
    return arr


def _refuse_non_numbers(values: list, what: str) -> None:
    """Raise a :class:`DataError` naming the first of ``values`` that is a
    boolean, a string or a container.  numpy and ``float`` would read a
    boolean as 0 or 1 and a numeric string as its number, so loaded values
    are checked by type, in one scan when each is a plain int, float or
    None; a None is left to the reader, which takes it for nan or refuses
    it."""
    if set(map(type, values)) <= {int, float, type(None)}:
        return
    for v in values:
        if isinstance(v, bool) or not (v is None or isinstance(v, (int, float, np.integer, np.floating))):
            raise DataError(f"{what} {v!r} is not a number")


@dataclass(frozen=True)
class SparseStochasticMatrix:
    """Row-stochastic matrix in compressed sparse row storage.

    Row x holds the strictly increasing columns ``cols[indptr[x]:indptr[x+1]]``
    with the matching ``probs``.  The three arrays are stored read-only;
    :meth:`from_csr` copies them first.  numpy's ``bincount`` copies a
    read-only input on every call, so the matrix also keeps private writable
    views of ``cols`` and ``probs`` for it to read; an input that is already
    read-only is copied once for them.  Rows may be empty (a state with no
    observed outgoing transition): scoring gives an empty row zero mass,
    while generation and the transition rule raise :class:`EmptyRowError`
    when they must draw from one.  Non-empty rows must sum to 1 within
    ``ROW_SUM_TOL`` and every stored probability must be finite and
    nonnegative.
    """

    n: int
    indptr: np.ndarray
    cols: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise DataError("matrix must have at least one state")
        object.__setattr__(self, "indptr", _as_readonly(np.asarray(self.indptr, dtype=np.int64)))
        for name, dtype in (("cols", np.int64), ("probs", np.float64)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if not arr.flags.writeable:
                arr = arr.copy()
            object.__setattr__(self, f"_{name}_rw", arr.view())  # the writable view bincount reads
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n, indptr, cols, probs = self.n, self.indptr, self.cols, self.probs
        if indptr.shape != (n + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise DataError(f"indptr must hold n + 1 = {n + 1} nondecreasing offsets from 0")
        if cols.ndim != 1 or cols.shape != probs.shape or indptr[-1] != cols.size:
            raise DataError("column and probability arrays differ in length")
        decreasing = np.append(False, cols[1:] <= cols[:-1])  # entry i's column is not above entry i-1's
        decreasing[indptr[:-1][indptr[:-1] < cols.size]] = False  # except at row starts
        starts = indptr[:-1][np.diff(indptr) > 0]  # of the nonempty rows; a sum runs to the next
        off_sum = np.zeros(cols.size, dtype=bool)  # at the first entry of a row
        off_sum[starts[np.abs(np.add.reduceat(probs, starts) - 1.0) > ROW_SUM_TOL]] = True
        checks = (  # in the order each row is checked; each marks its bad entries
            ("column index out of range", (cols < 0) | (cols >= n)),
            ("columns must be strictly increasing", decreasing),
            ("probabilities must be finite and nonnegative", (probs < 0.0) | ~np.isfinite(probs)),
            (None, off_sum),
        )
        bad = [(int(np.searchsorted(indptr, entries.argmax(), "right")) - 1, i, reason)
               for i, (reason, entries) in enumerate(checks) if entries.any()]
        if bad:  # name the first bad row and the first check it fails
            x, _, reason = min(bad)
            if reason is None:
                s = float(self.row(x)[1].sum())
                reason = f"probabilities sum to {s!r}, expected 1 within {ROW_SUM_TOL}"
            raise DataError(f"row {x}: {reason}")

    @classmethod
    def from_csr(
        cls, n: int, indptr: np.ndarray, cols: np.ndarray, probs: np.ndarray
    ) -> "SparseStochasticMatrix":
        """Build from flat storage: row x holds ``cols[indptr[x]:indptr[x+1]]``
        (strictly increasing) with the matching ``probs``.  The matrix keeps
        read-only copies, so the caller may keep writing to its arrays."""
        return cls(n, np.array(indptr), np.array(cols), np.array(probs))

    @classmethod
    def _from_entries(
        cls, n: int, rows: np.ndarray, cols: np.ndarray, probs: np.ndarray
    ) -> "SparseStochasticMatrix":
        """Build from integer (row, col) entries in any order, with rows in
        0..n-1.  The stable sort keeps a repeated (row, col) pair adjacent,
        so validation reports it; entries already in strictly increasing
        (row, col) order, as ``save_model`` writes them, skip the sort."""
        ordered = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
        if not ordered.all():
            order = np.lexsort((cols, rows))
            rows, cols, probs = rows[order], cols[order], probs[order]
        return cls(n, np.searchsorted(rows, np.arange(n + 1)), cols, probs)

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence[tuple[int, float]]]) -> "SparseStochasticMatrix":
        """Build from per-row sequences of (column, probability) pairs."""
        if len(rows) != n:
            raise DataError("row arrays must have length n")
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        # Streams the scalars: no per-entry Python objects or lists are made.
        flat = chain.from_iterable(chain.from_iterable(rows))
        pairs = np.fromiter(flat, dtype=np.float64, count=2 * int(sizes.sum())).reshape(-1, 2)
        return cls._from_entries(n, np.repeat(np.arange(n), sizes), pairs[:, 0].astype(np.int64), pairs[:, 1])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseStochasticMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DataError("dense matrix must be square")
        n = dense.shape[0]
        rows, cols = np.nonzero(dense)  # row-major, columns ascending
        return cls(n, np.searchsorted(rows, np.arange(n + 1)), cols, dense[rows, cols])

    def row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (columns, probabilities) views of row x."""
        if not 0 <= x < self.n:
            raise DataError(f"state id {x} out of range for matrix of size {self.n}")
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return self.cols[lo:hi], self.probs[lo:hi]

    def prob(self, x: int, y: int) -> float:
        cols, probs = self.row(x)
        i = np.searchsorted(cols, y)
        if i < cols.size and cols[i] == y:
            return float(probs[i])
        return 0.0

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """P as an n x n array, written into ``out`` when one is given."""
        if out is None:
            out = np.zeros((self.n, self.n))
        else:
            out.fill(0.0)
        out[self._entry_rows, self.cols] = self.probs
        return out

    def empty_rows(self) -> list[int]:
        return np.flatnonzero(np.diff(self.indptr) == 0).tolist()

    @property
    def support_size(self) -> int:
        return int(self.cols.size)

    # Lazy views derived from the flat storage.

    @cached_property
    def row_cols(self) -> tuple[np.ndarray, ...]:
        """Read-only per-row column views."""
        return tuple(np.split(self.cols, self.indptr[1:-1]))

    @cached_property
    def row_probs(self) -> tuple[np.ndarray, ...]:
        """Read-only per-row probability views."""
        return tuple(np.split(self.probs, self.indptr[1:-1]))

    @cached_property
    def _row_sizes(self) -> np.ndarray:
        """The number of stored entries in every row."""
        return np.diff(self.indptr)

    @cached_property
    def _entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self._row_sizes)

    @cached_property
    def _entry_slots(self) -> np.ndarray:
        """The position of every stored entry within its row."""
        return np.arange(self.cols.size) - self.indptr[:-1][self._entry_rows]

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        return self._entry_rows * self.n + self.cols  # sorted: rows ascend, then columns

    def pair_indices(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Indices into the flat storage for (src, tgt) pairs, -1 if absent."""
        keys = np.empty(np.broadcast_shapes(np.shape(src), np.shape(tgt)), dtype=np.int64)
        np.multiply(src, self.n, out=keys, dtype=np.int64)
        keys += tgt
        return _find_sorted(self._pair_keys, keys)

    def lookup_pairs(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Vectorised P(src, tgt); zero for pairs outside the support."""
        return np.append(self.probs, 0.0)[self.pair_indices(src, tgt)]  # index -1 reads the 0

    def left_multiply(self, pi: np.ndarray) -> np.ndarray:
        """Row-vector product pi @ P without densifying."""
        weights = np.repeat(np.asarray(pi, dtype=np.float64), self._row_sizes)
        weights *= self._probs_rw
        return np.bincount(self._cols_rw, weights=weights, minlength=self.n)

    @cached_property
    def _samplers(self) -> tuple[list[int], list[float], list[int]]:
        """The columns, per-row cumulative probabilities and row offsets as
        flat lists, for bisect sampling within ``indptr[x]:indptr[x+1]``.
        Each row's last cumulative value is pinned to 1, against row sums a
        few ulp below 1.

        The rows are grouped by length class, (2^(j-1), 2^j] entries, and
        each group takes one row-wise cumsum padded to its longest row, so
        the padding at most doubles the entries and every row gets the
        bits of its own cumsum."""
        sizes = np.diff(self.indptr)
        length_class = np.frexp(sizes - 1)[1]  # empty rows join a class and add no entries
        cum = np.empty(self.probs.size)
        for j in np.unique(length_class).tolist():
            rows = np.flatnonzero(length_class == j)
            entry = _row_entries(self.indptr, rows)
            at = (np.repeat(np.arange(rows.size), sizes[rows]), self._entry_slots[entry])
            padded = np.zeros((rows.size, int(sizes[rows].max())))
            padded[at] = self.probs[entry]
            cum[entry] = np.cumsum(padded, axis=1)[at]
        cum[self.indptr[1:][sizes > 0] - 1] = 1.0
        return self.cols.tolist(), cum.tolist(), self.indptr.tolist()


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
    def _cum(self) -> np.ndarray:
        """Cumulative lag weights for sampling a lag, the last pinned to 1."""
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        return cum


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
        """The one matrix of a single-matrix model; training and the chain
        analyses need one."""
        if self.n_matrices != 1:
            raise DataError(f"model has {self.n_matrices} matrices; this operation needs one")
        return self.matrices[0]

    def matrix_for_lag(self, i: int) -> SparseStochasticMatrix:
        """Matrix scoring lag i (1-based)."""
        if not 1 <= i <= self.k:
            raise DataError(f"lag {i} outside 1..{self.k}")
        return self.matrices[self.lag_map[i - 1] - 1]

    @cached_property
    def _bank(self) -> SparseStochasticMatrix:
        """Every matrix stacked into one square matrix over n_matrices·n
        states, whose columns all lie below n: row x of matrix j is row
        (j-1)·n + x.  Every kernel reads lag i's matrix here, at row
        ``x + _lag_rows[i-1]``.  A single-matrix model's bank is its matrix."""
        if self.n_matrices == 1:
            return self.matrices[0]
        ends = np.cumsum([0] + [m.support_size for m in self.matrices])
        return SparseStochasticMatrix(
            self.n_matrices * self.n,
            np.concatenate([m.indptr[:-1] + end for m, end in zip(self.matrices, ends)] + [ends[-1:]]),
            np.concatenate([m.cols for m in self.matrices]),
            np.concatenate([m.probs for m in self.matrices]),
        )

    @cached_property
    def _lag_rows(self) -> np.ndarray:
        """The bank row offset of each lag: lag i reads row x of its matrix
        at bank row ``x + _lag_rows[i-1]``."""
        return _as_readonly((np.array(self.lag_map, dtype=np.int64) - 1) * self.n)


@dataclass(frozen=True)
class Corpus:
    """Sequences of state ids over a shared vocabulary, stored flat.

    Sequence s is ``tokens[offsets[s]:offsets[s + 1]]``: ``tokens`` holds
    every id of every sequence in order and ``offsets`` the n_sequences + 1
    nondecreasing offsets from 0 to ``tokens.size``.  Both arrays are int64
    and stored read-only; the corpus keeps a private writable view of
    ``tokens`` for ``np.bincount``, which copies a read-only input, and an
    input ``tokens`` that is already read-only is copied once for it.  Every
    sequence must be nonempty and every id must lie in the vocabulary.
    """

    vocab: Vocabulary
    tokens: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        tokens = np.ascontiguousarray(self.tokens, dtype=np.int64)
        if not tokens.flags.writeable:
            tokens = tokens.copy()
        object.__setattr__(self, "_tokens_rw", tokens.view())  # the writable view bincount reads
        object.__setattr__(self, "tokens", _as_readonly(tokens))
        object.__setattr__(self, "offsets", _as_readonly(np.asarray(self.offsets, dtype=np.int64)))
        tokens, offsets = self.tokens, self.offsets
        if (tokens.ndim != 1 or offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != tokens.size or np.any(np.diff(offsets) < 0)):
            raise DataError("offsets must run nondecreasing from 0 to the number of tokens")
        empty = np.flatnonzero(offsets[1:] == offsets[:-1])
        outside = np.flatnonzero((tokens < 0) | (tokens >= len(self.vocab)))
        owner = np.searchsorted(offsets, outside[:1], side="right") - 1
        if empty.size and not (owner.size and owner[0] < empty[0]):
            raise DataError(f"sequence {empty[0]} is empty; empty sequences cannot be stored")
        if owner.size:
            raise DataError(f"sequence {owner[0]} contains a state id outside the vocabulary")

    @classmethod
    def from_sequences(cls, vocab: Vocabulary, sequences: Iterable[Iterable[int]]) -> "Corpus":
        seqs = [np.asarray(list(s), dtype=np.int64) for s in sequences]
        if any(s.ndim != 1 for s in seqs):
            raise DataError("every sequence must be a flat list of state ids")
        offsets = np.cumsum([0, *(s.size for s in seqs)])
        return cls(vocab, np.concatenate([np.empty(0, np.int64), *seqs]), offsets)

    @cached_property
    def sequences(self) -> tuple[np.ndarray, ...]:
        """Read-only views of the sequences, one array each."""
        bounds = self.offsets.tolist()
        return tuple(self.tokens[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, index) -> "Corpus":
        """The sequences ``index``, in that order, over the same vocabulary."""
        index = np.asarray(index, dtype=np.int64)
        entry = _row_entries(self.offsets, index)
        return Corpus(self.vocab, self.tokens[entry], np.append(0, np.cumsum(self.lengths[index])))

    @property
    def total_transitions(self) -> int:
        return self.tokens.size - len(self)

    def __len__(self) -> int:
        return self.offsets.size - 1


class ScoredPositions:
    """Every scored position of a corpus, flattened for lags 1..k.

    Position t is index ``pos[t]`` >= 1 of sequence ``seq_id[t]``, with
    target ``tgt[t]`` and ``src[t, i-1]`` its source at lag i, clamped to the
    sequence's first state.  Positions run in sequence order, then in order
    within each sequence.  This table is the one place the package derives
    per-position terms from: scoring, the empirical initializer, the trainer
    and the n-gram baselines all read it.
    """

    def __init__(self, corpus: Corpus, k: int) -> None:
        self.k = k
        self.n = len(corpus.vocab)
        self.n_sequences = len(corpus)
        lengths, flat, starts = corpus.lengths, corpus.tokens, corpus.offsets[:-1]
        self.seq_id = np.repeat(np.arange(lengths.size), lengths - 1)
        first = starts[self.seq_id]  # flat index of each position's sequence start
        scored = np.ones(flat.size, dtype=bool)
        scored[starts] = False
        at = np.flatnonzero(scored)
        self.pos = at - first
        self.tgt = flat[at]
        source = at[:, None] - np.arange(1, k + 1)
        np.maximum(source, first[:, None], out=source)  # clamped to the sequence start
        self.src = np.take(flat, source, out=source, mode="clip")  # in place; "clip" is unbuffered
        self.T = int(self.tgt.size)

    def lag_probabilities(self, model: LampModel) -> np.ndarray:
        """The (T, k) matrix A with ``A[t, i-1] = M_i(src[t, i-1], tgt[t])``,
        where M_i is the matrix lag i reads, so that ``A @ w`` is every
        position's mixture probability."""
        return model._bank.lookup_pairs(self.src + model._lag_rows, self.tgt[:, None])


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

    @classmethod
    def of_positions(cls, positions: ScoredPositions, p: np.ndarray) -> LogLikelihood:
        """Sum the logs of ``p``, one probability per scored position, per
        sequence in position order; every scorer aggregates through here."""
        impossible = p <= 0.0
        per_seq = np.zeros(positions.n_sequences)
        np.add.at(per_seq, positions.seq_id, np.log(np.where(impossible, 1.0, p)))
        per_seq[positions.seq_id[impossible]] = -math.inf
        per_sequence = tuple(per_seq.tolist())
        return cls(float(sum(per_sequence)), per_sequence, positions.T, int(impossible.sum()))

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
    Entries older than k steps never influence the result.  Lags of zero
    weight are skipped; an empty row read at a positive-weight lag raises
    :class:`EmptyRowError`.
    """
    if len(history) == 0:
        raise DataError("history must contain at least one state")
    hist = np.asarray(history, dtype=np.int64)
    if hist.min() < 0 or hist.max() >= model.n:
        raise DataError("history contains a state id outside the vocabulary")
    w = model.w.weights
    lags = np.flatnonzero(w > 0.0)
    src = hist[np.maximum(hist.size - 1 - lags, 0)]  # clamped to the first state
    rows = src + model._lag_rows[lags]
    empty = model._bank.indptr[rows + 1] == model._bank.indptr[rows]
    if empty.any():
        state = int(src[empty.argmax()])
        raise EmptyRowError(f"state {state} has no outgoing transitions", state)
    cols, acc = _cell_sums(*_lag_terms(model, rows[None, :], w[lags]), model.n)
    out = np.zeros(model.n)
    out[cols] = acc
    return out


def _lag_terms(model: LampModel, rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every term of sum_j weights[j] * (bank row rows[h, j]) for a batch of
    histories h, as (cell, value) pairs with cell h·n + column, in
    (history, lag, column) order.  ``rows`` is (histories, lags); this and
    :func:`_cell_sums` are the only code that gathers and sums lag rows."""
    bank = model._bank
    sizes = bank.indptr[rows + 1] - bank.indptr[rows]
    entry = _row_entries(bank.indptr, rows.ravel())
    cell = np.repeat(np.arange(0, rows.shape[0] * model.n, model.n), sizes.sum(axis=1)) + bank.cols[entry]
    terms = np.repeat(np.broadcast_to(weights, rows.shape).ravel(), sizes.ravel()) * bank.probs[entry]
    return cell, terms


#: ``_cell_sums`` counts its cells instead of sorting its terms when there
#: are at most this many cells per term.  Timed on a 2-core x86-64 machine
#: with numpy 2.4 on chunks of 2^14 terms and n of 150 or 2000: counting took
#: 0.25-0.6 of the sort's time up to 4 cells per term and broke even near 8.
#: The counting scratch is then 9 bytes per cell, at most 36 bytes per term.
_CELLS_PER_ENTRY = 4


def _cell_sums(cell: np.ndarray, terms: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``cell`` (each in 0..cells-1) in ascending
    order, each with its ``terms`` added in input order from 0.0, so a
    history's terms from :func:`_lag_terms` add in lag order.  Up to
    ``_CELLS_PER_ENTRY`` cells per term one ``bincount`` over every cell
    sums them, else ``np.unique`` sorts the cells; the bits are the same."""
    if cells <= _CELLS_PER_ENTRY * cell.size:
        acc = np.bincount(cell, weights=terms, minlength=cells)
        present = np.zeros(cells, dtype=bool)
        present[cell] = True
        keys = np.flatnonzero(present)
        return keys, acc[keys]
    keys, inverse = np.unique(cell, return_inverse=True)
    return keys, np.bincount(inverse, weights=terms, minlength=keys.size)


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
    where ``acc`` sums ``w_i * M_i(src_i, .)`` over the stored entries of the
    k source rows, zero-weight lags included.  :func:`_lag_terms` and
    :func:`_cell_sums` form ``acc`` one chunk of positions at a time; each
    target is looked up among the chunk's ascending cells, and the norm adds
    the stored cells in column order.
    """
    bank, n = model._bank, model.n
    rows = positions.src + model._lag_rows  # bank row of every (position, lag)
    ends = np.cumsum((bank.indptr[rows + 1] - bank.indptr[rows]).sum(axis=1))
    out = np.empty(positions.T)
    start = 0
    while start < positions.T:
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _FLOOR_CHUNK, side="right")), start + 1)
        m = stop - start
        keys, acc = _cell_sums(*_lag_terms(model, rows[start:stop], model.w.weights), m * n)
        want = np.arange(0, m * n, n) + positions.tgt[start:stop]  # ascending, like keys
        at = np.searchsorted(keys, want)
        at_tgt = np.where(np.append(keys, -1)[at] == want, np.append(acc, 0.0)[at], 0.0)
        local = keys // n
        norm = (np.bincount(local, weights=np.maximum(acc, floor), minlength=m)
                + (n - np.bincount(local, minlength=m)) * floor)
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
    transition has probability zero.  Without it, an empty row contributes
    zero mass, and a position whose mixture probability is zero counts as
    impossible.  Each lag reads the matrix the model maps to it.
    """
    _check_vocab(model.vocab, corpus.vocab)
    positions = ScoredPositions(corpus, model.k)
    if floor is None:  # lag_probabilities, with the pair keys built over the sources
        bank, keys = model._bank, positions.src
        keys += model._lag_rows
        keys *= bank.n
        keys += positions.tgt[:, None]
        p = np.append(bank.probs, 0.0)[_find_sorted(bank._pair_keys, keys)] @ model.w.weights
    else:
        p = _floored_probabilities(model, positions, floor)
    return LogLikelihood.of_positions(positions, p)


def perplexity(model: LampModel, corpus: Corpus, floor: float | None = None) -> float:
    """Perplexity 2**(-L2/T) where L2 is the base-2 log-likelihood and T the
    number of scored transitions.  Equals exp(-L/T) for the natural-log L.

    Returns +inf when any scored transition is impossible and floor smoothing
    is off.
    """
    return log_likelihood(model, corpus, floor=floor).perplexity()


# ---------------------------------------------------------------------------
# Generation


#: Steps whose lags ``generate`` draws in one pass; the block's Python lists
#: of sources, lags and uniforms take about 80 bytes per step.
_GENERATE_BLOCK = 1 << 12


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
    cols, cum, indptr = model._bank._samplers
    rng = _rng(seed)
    seq = [start]
    # One row of uniforms per step, so a longer run with the same seed
    # extends a shorter one without changing its prefix.
    u = rng.random((length - 1, 2))
    for first in range(0, length - 1, _GENERATE_BLOCK):
        block = u[first:first + _GENERATE_BLOCK]
        lags = np.searchsorted(model.w._cum, block[:, 0], side="right") + 1
        source = np.maximum(np.arange(first + 1, first + 1 + len(block)) - lags, 0)  # clamped to 0
        for at, offset, x in zip(source.tolist(), model._lag_rows[lags - 1].tolist(), block[:, 1].tolist()):
            src = seq[at]
            row = src + offset
            lo, hi = indptr[row], indptr[row + 1]
            if lo == hi:
                raise EmptyRowError(f"state {src} has no outgoing transitions", int(src))
            seq.append(cols[bisect.bisect_right(cum, x, lo, hi)])
    return np.asarray(seq, dtype=np.int64)


# ---------------------------------------------------------------------------
# Serialization


def _triples(m: SparseStochasticMatrix) -> list:
    """A matrix flattened to [row, col, prob] triples in row-major order."""
    return list(map(list, zip(m._entry_rows.tolist(), m.cols.tolist(), m.probs.tolist())))


def _matrix(n: int, triples) -> SparseStochasticMatrix:
    """Parse [row, col, prob] triples in any order.  Row and column indices
    must be integers in 0..n-1; a repeated (row, col) pair is refused."""
    try:
        if not set(map(len, triples)) <= {3}:
            raise DataError("malformed matrix entry in model document: expected [row, col, prob] triples")
        flat = list(chain.from_iterable(triples))
        _refuse_non_numbers(flat, "matrix entry value")
        entries = np.fromiter(flat, dtype=np.float64, count=len(flat)).reshape(-1, 3)
    except (TypeError, OverflowError) as exc:
        raise DataError(f"malformed matrix entry in model document: {exc}") from exc
    index = entries[:, :2]
    integral = index == np.floor(index)  # false for nan; inf fails the range test
    bad = np.flatnonzero(~(integral & (index >= 0) & (index < n)).all(axis=1))
    if bad.size:
        r, c = index[bad[0]]
        reason = "out of range" if integral[bad[0]].all() else "has a non-integral index"
        raise DataError(f"matrix entry ({r:.15g}, {c:.15g}) {reason}")
    rows, cols = index.astype(np.int64).T
    return SparseStochasticMatrix._from_entries(n, rows, cols, entries[:, 2])


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
        k, n = (int(_integers([doc[key]], 1, np.inf, key)[0]) for key in ("k", "n"))
        _refuse_non_numbers(doc["w"], "lag weight")
        w = [float(v) for v in doc["w"]]
        tokens = [str(t) for t in doc["vocab"]]
        if "matrix" in doc:
            all_triples, lag_map = [doc["matrix"]], [1] * k
        else:
            all_triples, lag_map = doc["matrices"], _integers(doc["lag_map"], 1, np.inf, "lag")
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


def _write_json(doc, path: str) -> None:
    """Write a document as compact JSON with sorted keys and a trailing
    newline, so equal documents give equal bytes."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_model(model: LampModel, path: str) -> None:
    _write_json(model_to_dict(model), path)


def _read_json(path: str, what: str):
    """Parse a JSON file; an unreadable or malformed file is a DataError
    naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_model(path: str) -> LampModel:
    return model_from_dict(_read_json(path, "model file"))
