"""Output checks, computed apart from the program.

Each check reads what a command wrote and recomputes it from the inputs with
numpy and plain Python, sharing no code with ``lamp``.  A check raises
:class:`CheckFailed` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

#: Relative agreement required of recomputed log-likelihoods and perplexities.
RTOL = 1e-9
#: Largest drop between consecutive training records, relative to the value.
MONOTONE_RTOL = 1e-9
#: Largest |1 - sum| of a stored row or of the lag weights.
ROW_SUM_TOL = 1e-9
#: Largest |CLT statistic| of the exponent process accepted.
CLT_LIMIT = 6.0
#: L1 agreement of the lifted chain's marginal and the mixture's stationary law.
LIFT_TOL = 1e-8
#: Evaluation floor the program documents for ``evaluate --floor``.
EVALUATION_FLOOR = 1e-10


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    if math.isinf(got) or math.isinf(want) or math.isnan(got) or math.isnan(want):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Models and corpora as plain arrays


@dataclass(frozen=True)
class SparseModel:
    """A model document as sorted (row, col, prob) arrays with row offsets."""

    w: np.ndarray
    vocab: list
    rows: np.ndarray
    cols: np.ndarray
    probs: np.ndarray
    indptr: np.ndarray

    @property
    def n(self) -> int:
        return len(self.vocab)

    @property
    def k(self) -> int:
        return int(self.w.size)

    @classmethod
    def from_doc(cls, doc: dict) -> "SparseModel":
        n = int(doc["n"])
        triples = np.asarray(doc["matrix"], dtype=np.float64).reshape(-1, 3)
        rows = triples[:, 0].astype(np.int64)
        cols = triples[:, 1].astype(np.int64)
        order = np.lexsort((cols, rows))
        rows, cols, probs = rows[order], cols[order], triples[order, 2]
        indptr = np.searchsorted(rows, np.arange(n + 1))
        require(len(doc["vocab"]) == n, "model vocabulary size differs from n")
        return cls(np.asarray(doc["w"], dtype=np.float64), list(doc["vocab"]), rows, cols, probs, indptr)

    @classmethod
    def from_arrays(cls, w: np.ndarray, cols: np.ndarray, probs: np.ndarray) -> "SparseModel":
        """From rectangular per-row successor arrays (the generator's form)."""
        n, r = cols.shape
        return cls(w, [f"s{i}" for i in range(n)], np.repeat(np.arange(n), r),
                   cols.ravel(), probs.ravel(), np.arange(n + 1) * r)

    @property
    def row_sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def lookup(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """P(src, tgt) elementwise, zero outside the stored support."""
        keys = self.rows * self.n + self.cols
        want = src * self.n + tgt
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[at] == want, self.probs[at], 0.0)

    def dense_rows(self, src: np.ndarray) -> np.ndarray:
        """(len(src), n) dense copies of the given rows."""
        sizes = self.row_sizes[src]
        first = np.repeat(self.indptr[src], sizes)
        offset = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        out = np.zeros((src.size, self.n))
        out[np.repeat(np.arange(src.size), sizes), self.cols[first + offset]] = self.probs[first + offset]
        return out


def read_sequences(path: str) -> tuple[list, list]:
    """(vocabulary, sequences as int arrays) of a corpus cache."""
    doc = read_json(path)
    return list(doc["vocab"]), [np.asarray(s, dtype=np.int64) for s in doc["sequences"]]


def positions(seqs: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) of every scored position j >= 1: row t of sources
    holds the states at lags 1..k, clamped to the first state of the line."""
    lengths = np.array([s.size for s in seqs])
    flat = np.concatenate(seqs)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths - 1)
    j = np.arange(start.size) - np.repeat(np.cumsum(lengths - 1) - (lengths - 1), lengths - 1) + 1
    src = flat[start[:, None] + np.maximum(j[:, None] - np.arange(1, k + 1), 0)]
    return src, flat[start + j]


def plain_probabilities(model: SparseModel, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    return model.lookup(src, tgt[:, None]) @ model.w


def floored_probabilities(model: SparseModel, src: np.ndarray, tgt: np.ndarray,
                          floor: float, chunk: int = 256) -> np.ndarray:
    """Each position's full mixture row, raised to ``floor`` and renormalized."""
    out = np.empty(tgt.size)
    for a in range(0, tgt.size, chunk):
        s = src[a:a + chunk]
        mix = np.zeros((s.shape[0], model.n))
        for i in range(model.k):
            mix += model.w[i] * model.dense_rows(s[:, i])
        lifted = np.maximum(mix, floor)
        out[a:a + chunk] = lifted[np.arange(s.shape[0]), tgt[a:a + chunk]] / lifted.sum(axis=1)
    return out


def blocked_by_empty_row(model: SparseModel, seqs: list) -> bool:
    """Whether some scored position has a source whose stored row is empty."""
    src, _ = positions(seqs, model.k)
    return bool((model.row_sizes[src] == 0).any())


def floor_entries(row_sizes: np.ndarray, seqs: list, k: int) -> int:
    """Stored entries visited by floored scoring: the row sizes of the k
    sources, summed over positions."""
    src, _ = positions(seqs, k)
    return int(row_sizes[src].sum())


# ---------------------------------------------------------------------------
# Data layer


def check_split(lines: list, full: str, train: str, test: str, fraction: float) -> None:
    """The full cache keeps every line; train and test partition the lines
    with train holding floor(fraction * n); test tokens unseen in training
    read as the rare token."""
    vocab, seqs = read_sequences(full)
    require([" ".join(vocab[x] for x in s) for s in seqs] == [ln.strip() for ln in lines],
            "the preprocessed cache does not reproduce the corpus lines")
    tr_doc, te_doc = read_json(train), read_json(test)
    require(tr_doc["vocab"] == te_doc["vocab"], "train and test caches use different vocabularies")
    tv = tr_doc["vocab"]
    train_lines = Counter(" ".join(tv[x] for x in s) for s in tr_doc["sequences"])
    test_lines = Counter(" ".join(tv[x] for x in s) for s in te_doc["sequences"])
    require(sum(train_lines.values()) == int(fraction * len(lines)),
            "the train side does not hold floor(fraction * n) lines")
    every = Counter(ln.strip() for ln in lines)
    require(not (train_lines - every), "a train line is not a corpus line")
    seen = {tok for line in train_lines for tok in line.split()}
    rare = tr_doc.get("rare_token")
    require(set(tv) == seen | ({rare} if rare else set()), "train vocabulary is not the train tokens")
    expected = Counter(
        " ".join(t if t in seen else str(rare) for t in line.split()) for line in (every - train_lines).elements()
    )
    require(test_lines == expected, "the test side is not the remaining lines with unseen tokens made rare")


# ---------------------------------------------------------------------------
# Training and scoring


def check_model(doc: dict, k: int) -> SparseModel:
    """Lag weights and every non-empty row are distributions."""
    model = SparseModel.from_doc(doc)
    require(model.k == k == int(doc["k"]), f"model has {model.k} lag weights, expected {k}")
    require(bool(np.all(model.w >= 0.0)) and abs(model.w.sum() - 1.0) <= ROW_SUM_TOL,
            "lag weights are not a distribution")
    require(bool(np.all(model.probs >= 0.0)), "a stored probability is negative")
    sums = np.bincount(model.rows, weights=model.probs, minlength=model.n)
    nonempty = model.row_sizes > 0
    require(bool(np.all(np.abs(sums[nonempty] - 1.0) <= ROW_SUM_TOL)), "a non-empty row does not sum to 1")
    return model


def check_training(records: list, model: SparseModel, train_seqs: list) -> None:
    """The recorded log-likelihood never falls, and its last value is the
    trained model's log-likelihood of the training corpus."""
    lls = [r["log_likelihood"] for r in records]
    for a, b in zip(lls, lls[1:]):
        require(b >= a - MONOTONE_RTOL * abs(a), f"training log-likelihood fell from {a!r} to {b!r}")
    src, tgt = positions(train_seqs, model.k)
    p = plain_probabilities(model, src, tgt)
    require(bool(np.all(p > 0.0)), "a training transition has zero probability under the trained model")
    ll = float(np.log(p).sum())
    require(close(lls[-1], ll), f"final training log-likelihood {lls[-1]!r} != recomputed {ll!r}")
    require(close(records[-1]["perplexity"], math.exp(-ll / tgt.size)), "final training perplexity disagrees")


def check_evaluation(doc: dict, model: SparseModel, seqs: list, floored: bool) -> None:
    """Log-likelihood, perplexity and impossible count of ``evaluate``."""
    src, tgt = positions(seqs, model.k)
    require(doc["scored_transitions"] == tgt.size, "scored transition count disagrees")
    if floored:
        require(doc["floor"] == EVALUATION_FLOOR, "evaluation floor disagrees")
        p = floored_probabilities(model, src, tgt, EVALUATION_FLOOR)
    else:
        require(doc["floor"] is None, "plain evaluation reports a floor")
        p = plain_probabilities(model, src, tgt)
    impossible = int((p <= 0.0).sum())
    require(doc["impossible_transitions"] == impossible,
            f"impossible transitions {doc['impossible_transitions']} != recomputed {impossible}")
    ll = -math.inf if impossible else float(np.log(p).sum())
    ppl = math.inf if impossible else math.exp(-ll / tgt.size)
    require(close(doc["log_likelihood"], ll), f"log-likelihood {doc['log_likelihood']!r} != recomputed {ll!r}")
    require(close(doc["perplexity"], ppl), f"perplexity {doc['perplexity']!r} != recomputed {ppl!r}")


# ---------------------------------------------------------------------------
# Kneser-Ney baseline


def kneser_ney_perplexity(train: list, test: list, order: int, discount: float, n: int) -> float:
    """Interpolated Kneser-Ney perplexity from counts, under the truncated
    context protocol: position j is predicted from the min(j, order)
    preceding symbols.  The top level holds raw counts; each lower level
    counts distinct left extensions of the level above plus the raw counts of
    sequence-start events of its own length; the bottom level interpolates
    with the uniform law."""
    raw = [dict() for _ in range(order + 1)]
    for seq in train:
        ids = seq.tolist()
        for j in range(1, len(ids)):
            ctx = tuple(ids[max(0, j - order):j])
            bucket = raw[len(ctx)].setdefault(ctx, Counter())
            bucket[ids[j]] += 1
    levels = [None] * (order + 1)
    levels[order] = raw[order]
    for m in range(order - 1, -1, -1):
        level: dict = {}
        for ctx, nxt in levels[m + 1].items():
            bucket = level.setdefault(ctx[1:], Counter())
            for y in nxt:
                bucket[y] += 1
        for ctx, nxt in raw[m].items():
            level.setdefault(ctx, Counter()).update(nxt)
        levels[m] = level
    totals = [{ctx: (sum(c.values()), len(c)) for ctx, c in level.items()} for level in levels]

    def prob(ctx: tuple, y: int) -> float:
        total, distinct = totals[0][()]
        p = (max(levels[0][()][y] - discount, 0.0) + discount * distinct / n) / total
        for m in range(1, len(ctx) + 1):
            sub = ctx[len(ctx) - m:]
            if sub in totals[m]:
                total, distinct = totals[m][sub]
                p = (max(levels[m][sub][y] - discount, 0.0) + discount * distinct * p) / total
        return p

    ll = 0.0
    count = 0
    for seq in test:
        ids = seq.tolist()
        for j in range(1, len(ids)):
            ll += math.log(prob(tuple(ids[max(0, j - order):j]), ids[j]))
            count += 1
    return math.exp(-ll / count)


def check_baseline(doc: dict, train: list, test: list, n: int) -> None:
    for key, seqs in (("train_perplexity", train), ("eval_perplexity", test)):
        want = kneser_ney_perplexity(train, seqs, doc["order"], doc["discount"], n)
        require(close(doc[key], want), f"Kneser-Ney {key} {doc[key]!r} != recomputed {want!r}")


# ---------------------------------------------------------------------------
# Chain analyses


def stationary_law(dense: np.ndarray) -> np.ndarray:
    """Solve pi (P - I) = 0 with sum(pi) = 1."""
    n = dense.shape[0]
    a = dense.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def left_multiply(model: SparseModel, pi: np.ndarray) -> np.ndarray:
    return np.bincount(model.cols, weights=pi[model.rows] * model.probs, minlength=model.n)


def check_stationary(doc: dict, model: SparseModel, tol: float) -> None:
    pi = np.asarray(doc["stationary"], dtype=np.float64)
    require(pi.size == model.n and bool(np.all(pi >= 0.0)), "stationary vector has the wrong shape or sign")
    require(abs(pi.sum() - 1.0) <= 1e-12, "stationary vector does not sum to 1")
    residual = float(np.abs(left_multiply(model, pi) - pi).sum())
    require(residual <= tol, f"||pi P - pi||_1 = {residual!r} exceeds {tol!r}")


def check_mixing(mix: dict, bound: dict, model: SparseModel, dense: np.ndarray,
                 delta: float, epsilon: float, T: int) -> None:
    """TV(t) <= delta < TV(t-1) by dense powering, and the bound formula."""
    t = int(mix["mixing_time"])
    require(t >= 1, "mixing time below 1")
    pi = stationary_law(dense)

    def tv(power: np.ndarray) -> float:
        return 0.5 * float(np.abs(power - pi).sum(axis=1).max())

    before = np.linalg.matrix_power(dense, t - 1)
    at, prev = tv(before @ dense), tv(before)
    require(at <= delta < prev, f"TV({t}) = {at!r}, TV({t - 1}) = {prev!r} do not bracket delta = {delta!r}")
    mean = float(np.arange(1, model.k + 1) @ model.w)
    want = max(T, math.ceil((1.0 + epsilon) * mean * t))
    require(bound["chain_mixing_time"] == t, "bound's chain mixing time differs from the mixing time")
    require(bound["bound"] == want, f"bound {bound['bound']} != max(T, ceil((1+eps) E[w] t)) = {want}")


def check_exponent(doc: dict, w: np.ndarray, steps: int) -> None:
    mean = float(np.arange(1, w.size + 1) @ w)
    require(doc["t_max"] == steps, "exponent horizon differs from the requested steps")
    require(close(doc["predicted"], 1.0 / mean, 1e-12), "predicted renewal rate is not 1/E[w]")
    z = doc["clt_statistic"]
    require(z is not None and abs(z) <= CLT_LIMIT, f"exponent CLT statistic {z!r} outside +-{CLT_LIMIT}")


def check_generated(doc: dict, model: SparseModel, start: str, length: int) -> None:
    """Every step lies in the support of one of the rows of its k clamped sources."""
    ids = np.asarray(doc["ids"], dtype=np.int64)
    require(ids.size == length and doc["tokens"] == [model.vocab[x] for x in ids],
            "generated ids and tokens disagree with the request")
    require(model.vocab[ids[0]] == start, "generation does not begin at the start token")
    src, tgt = positions([ids], model.k)
    reachable = (model.lookup(src, tgt[:, None]) > 0.0).any(axis=1)
    require(bool(reachable.all()), f"{int((~reachable).sum())} generated steps leave the sources' support")


def check_lift(marginal: np.ndarray, mixture_pi: np.ndarray, mixture_dense: np.ndarray,
               lifted_states: int, w: np.ndarray, mats: tuple, lag_map: tuple) -> None:
    """The lifted chain's stationary marginal equals the mixture matrix's law."""
    n = mats[0].shape[0]
    mixture = sum(w[i] * mats[lag_map[i] - 1] for i in range(w.size))
    require(lifted_states == n ** w.size, f"lift has {lifted_states} states, expected {n ** w.size}")
    require(float(np.abs(mixture_dense - mixture).max()) <= 1e-12, "mixture matrix disagrees")
    law = stationary_law(mixture)
    for name, got in (("lifted marginal", marginal), ("mixture stationary vector", mixture_pi)):
        gap = float(np.abs(np.asarray(got) - law).sum())
        require(gap <= LIFT_TOL, f"{name} is {gap!r} from the mixture's stationary law")
