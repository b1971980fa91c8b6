"""Fixed-order n-gram baselines scored under the same protocol as the lagged
model: every position after the first is predicted from its preceding
context, truncated near the start of the sequence instead of padded.

Two estimators are provided: plain maximum likelihood ("none" smoothing),
which assigns zero probability to unseen events, and interpolated
Kneser-Ney smoothing, which discounts seen events and backs off through
shorter contexts down to a continuation unigram interpolated with the
uniform distribution, so every conditional is strictly positive.

As for the lagged model, events and scored positions come from
:class:`lamp.core.ScoredPositions` and scores aggregate through
:meth:`lamp.core.LogLikelihood.of_positions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from lamp.core import (
    Corpus,
    DataError,
    LogLikelihood,
    ScoredPositions,
    Vocabulary,
    _check_vocab,
    _find_sorted,
    _integers,
    _read_json,
    _write_json,
)

__all__ = [
    "NgramModel",
    "fit_naive_ngram",
    "fit_kneser_ney",
    "ngram_log_likelihood",
    "ngram_perplexity",
    "ngram_to_dict",
    "ngram_from_dict",
    "save_ngram",
    "load_ngram",
]


def _trie(lags: np.ndarray, m: np.ndarray, n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Suffix trie of contexts given lag-first: row r has length ``m[r]`` and
    its symbol at lag j in ``lags[r, j - 1]``.

    A level-j node is keyed ``parent * n + symbol at lag j``, its parent being
    the node of the length-(j-1) suffix, and numbered by its rank among its
    level's sorted keys, so keys stay below (contexts x n) at any order.
    Returns each level's sorted keys (level 0 holds the root, node 0) and
    each row's node at its own level.
    """
    node = np.zeros(m.size, dtype=np.int64)
    levels = [np.zeros(1, dtype=np.int64)]
    for j in range(1, lags.shape[1] + 1):
        deep = np.flatnonzero(m >= j)
        keys, node[deep] = np.unique(node[deep] * n + lags[deep, j - 1], return_inverse=True)
        levels.append(keys)
    return levels, node


def _positions(corpus: Corpus, order: int) -> tuple[ScoredPositions, np.ndarray]:
    """The corpus's scored positions, with lags up to the longest context
    that occurs, and each position's context length min(pos, order)."""
    longest = int(corpus.lengths.max(initial=1)) - 1
    positions = ScoredPositions(corpus, max(min(order, longest), 0))
    return positions, np.minimum(positions.pos, order)


class _Events(NamedTuple):
    """Raw training events in trie form, by context length j = 0..longest:
    ``nodes[j]`` holds the sorted keys of the trie's level j (see
    ``_trie``), and ``keys[j]`` and ``counts[j]`` the keys ``node * n +
    next`` of the events whose context has length j and their counts."""

    nodes: list[np.ndarray]
    keys: list[np.ndarray]
    counts: list[np.ndarray]


def _events(corpus: Corpus, order: int) -> _Events:
    """Raw (context, next) counts: scored position j of a sequence contributes
    one event with context seq[j - m : j] where m = min(j, order), so contexts
    shorter than the order appear only at sequence starts."""
    positions, m = _positions(corpus, order)
    nodes, node = _trie(positions.src, m, positions.n)
    keys, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]  # no context is empty
    for j in range(1, positions.k + 1):
        at = m == j
        k, c = np.unique(node[at] * positions.n + positions.tgt[at], return_counts=True)
        keys.append(k)
        counts.append(c.astype(np.float64))
    return _Events(nodes, keys, counts)


def _counted_events(triples: list, n: int, order: int) -> _Events:
    """The events of [context, next, count] triples, which must hold
    contexts no longer than the order, state ids of the vocabulary, positive
    integer counts and no (context, next) pair twice."""
    if not triples:
        raise DataError("model has no training events")
    contexts, targets, cs = (list(part) for part in zip(*triples, strict=True))  # ValueError unless triples
    m = np.fromiter(map(len, contexts), np.int64, len(contexts))
    if m.max() > order:
        raise DataError(f"context {contexts[m.argmax()]} longer than the model order")
    ids = _integers([*chain.from_iterable(contexts), *targets], 0, n, "state id").astype(np.int64)
    cs = _integers(cs, 1, np.inf, "count").astype(np.float64)
    owner = np.repeat(np.arange(m.size), m)
    lags = np.zeros((m.size, int(m.max())), dtype=np.int64)
    lags[owner, np.cumsum(m)[owner] - np.arange(owner.size) - 1] = ids[: owner.size]
    nodes, own = _trie(lags, m, n)
    keys = own * n + ids[owner.size :]
    _, first = np.unique(keys * (order + 1) + m, return_index=True)  # one per (context, next) pair
    if first.size < keys.size:
        i = np.setdiff1d(np.arange(keys.size), first)[0]
        raise DataError(f"repeated n-gram event {[contexts[i], targets[i]]!r}")
    by_length = [m == j for j in range(len(nodes))]
    return _Events(nodes, [keys[at] for at in by_length], [cs[at] for at in by_length])


class _Level(NamedTuple):
    """The contexts of one length: their sorted trie keys, the sorted keys
    ``node * n + next`` of their events, the events' counts followed by one
    0.0 that a missing event (index -1) reads, and per node the sum of its
    counts and its number of distinct next states."""

    nodes: np.ndarray
    events: np.ndarray
    counts: np.ndarray
    total: np.ndarray
    distinct: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class NgramModel:
    """Order-m conditional model over truncated contexts.

    ``NgramModel(order, smoothing, discount, vocab, counts)`` takes the raw
    training events as ``{context tuple: {next state: count}}``; the fits
    pass them in array form.  Smoothed tables are derived from the events on
    construction, so a serialized model reloads to identical conditionals.
    """

    order: int
    smoothing: str
    discount: float
    vocab: Vocabulary

    def __init__(self, order: int, smoothing: str, discount: float, vocab: Vocabulary, counts) -> None:
        for name, value in (("order", order), ("smoothing", smoothing), ("discount", discount), ("vocab", vocab)):
            object.__setattr__(self, name, value)
        if self.order < 1:
            raise DataError("order must be at least 1")
        if self.smoothing not in ("none", "kneser_ney"):
            raise DataError(f"unknown smoothing {self.smoothing!r}")
        if self.smoothing == "none" and self.discount != 0.0:
            raise DataError("unsmoothed models take no discount")
        if self.smoothing == "kneser_ney" and not 0.0 < self.discount < 1.0:
            raise DataError("discount must lie strictly between 0 and 1")
        if not isinstance(counts, _Events):
            empty = [ctx for ctx, targets in counts.items() if not targets]
            if empty:
                raise DataError(f"context {empty[0]} has no events")
            counts = _counted_events([(ctx, y, c) for ctx, t in counts.items() for y, c in t.items()], self.n, order)
        if not any(c.size for c in counts.counts):
            raise DataError("model has no training events")
        object.__setattr__(self, "_events", counts)
        self._tables  # building the tables validates the events

    def __eq__(self, other) -> bool:
        if not isinstance(other, NgramModel):
            return NotImplemented
        return (self.order, self.smoothing, self.discount, self.vocab, self.counts) == (
            other.order, other.smoothing, other.discount, other.vocab, other.counts)

    @property
    def n(self) -> int:
        return len(self.vocab)

    @cached_property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """The raw training events as ``{context: {next state: count}}``,
        each context oldest state first."""
        n, ev = self.n, self._events
        out: dict[tuple[int, ...], dict[int, int]] = {}
        for j, (keys, counts) in enumerate(zip(ev.keys, ev.counts)):
            context = np.empty((keys.size, j), dtype=np.int64)
            node = keys // n
            for level in range(j, 0, -1):  # a level-j key holds the symbol at lag j
                key = ev.nodes[level][node]
                context[:, j - level], node = key % n, key // n
            for ctx, y, c in zip(map(tuple, context.tolist()), (keys % n).tolist(), counts.tolist()):
                out.setdefault(ctx, {})[y] = int(c)
        return out

    @cached_property
    def _tables(self) -> list[_Level]:
        """Levels 0..(longest context) of the context trie, built from the
        raw events.

        Unsmoothed levels hold the raw events of their length.  Kneser-Ney's
        deepest level holds the raw counts; each shorter level holds one
        continuation count per distinct event of the level above, moved to
        its parent node, plus the raw counts of truncated sequence-start
        events at that length, which have no left extension and would
        otherwise vanish from the backoff chain.
        """
        n, ev = self.n, self._events
        levels: list[_Level] = []
        for j in range(len(ev.nodes) - 1, -1, -1):
            events, counts = ev.keys[j], ev.counts[j]
            if levels and self.smoothing == "kneser_ney":
                upper = levels[-1].events
                parent = ev.nodes[j + 1][upper // n] // n
                events = np.concatenate([parent * n + upper % n, events])
                counts = np.concatenate([np.ones(upper.size), counts])
            events, inverse = np.unique(events, return_inverse=True)
            counts = np.bincount(inverse, weights=counts, minlength=events.size)
            node = events // n
            total = np.bincount(node, weights=counts, minlength=ev.nodes[j].size)
            distinct = np.bincount(node, minlength=ev.nodes[j].size)
            levels.append(_Level(ev.nodes[j], events, np.append(counts, 0.0), total, distinct))
        return levels[::-1]

    def _probabilities(self, lags: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
        """P(y[r] | context r) for a batch of contexts given lag-first: row r
        has length ``m[r]`` <= order and its symbol at lag j in
        ``lags[r, j - 1]``.

        All rows descend the trie together.  Kneser-Ney interpolates at every
        level a row's context reaches, so an unseen context backs off without
        discounting; the unsmoothed model takes the ratio at the row's own
        level, 0.0 where that context has no events.
        """
        n, D = self.n, self.discount
        kn = self.smoothing == "kneser_ney"
        p = np.full(y.size, 1.0 / n) if kn else np.zeros(y.size)
        rows, node = np.arange(y.size), np.zeros(y.size, dtype=np.int64)
        for j, level in enumerate(self._tables):
            if j:
                deep = m[rows] >= j
                rows, node = rows[deep], node[deep]
                if not rows.size:
                    break
                at = _find_sorted(level.nodes, node * n + lags[rows, j - 1])
                rows, node = rows[at >= 0], at[at >= 0]
            here = slice(None) if kn else m[rows] == j
            r, v = rows[here], node[here]
            c, total = level.counts[_find_sorted(level.events, v * n + y[r])], level.total[v]
            if kn:
                p[r] = np.maximum(c - D, 0.0) / total + (D * level.distinct[v] / total) * p[r]
            else:
                p[r] = np.divide(c, total, out=np.zeros(c.size), where=total > 0)
        return p

    def conditional(self, context: Sequence[int], y: int) -> float:
        """P(y | context), truncating the context to the model order."""
        y = int(y)
        if not 0 <= y < self.n:
            raise DataError(f"state id {y} outside the vocabulary")
        return float(self.distribution(context)[y])

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Full conditional distribution over the vocabulary, truncating the
        context to the model order."""
        ctx = _integers(list(context)[-self.order :], 0, self.n, "state id").astype(np.int64)
        lags = np.tile(ctx[::-1], (self.n, 1))
        return self._probabilities(lags, np.full(self.n, ctx.size), np.arange(self.n))


def fit_naive_ngram(corpus: Corpus, order: int) -> NgramModel:
    """Maximum-likelihood n-gram; unseen events get probability zero."""
    return NgramModel(order, "none", 0.0, corpus.vocab, _events(corpus, order))


def fit_kneser_ney(corpus: Corpus, order: int, discount: float = 0.75) -> NgramModel:
    """Interpolated Kneser-Ney n-gram with a fixed discount."""
    return NgramModel(order, "kneser_ney", discount, corpus.vocab, _events(corpus, order))


def ngram_log_likelihood(model: NgramModel, corpus: Corpus) -> LogLikelihood:
    """Natural-log likelihood under the shared scoring protocol: positions
    j = 1..len-1, context truncated at sequence starts."""
    _check_vocab(model.vocab, corpus.vocab)
    positions, m = _positions(corpus, model.order)
    p = model._probabilities(positions.src, m, positions.tgt)
    return LogLikelihood.of_positions(positions, p)


def ngram_perplexity(model: NgramModel, corpus: Corpus) -> float:
    """exp(-L/T); +inf when any scored transition is impossible."""
    return ngram_log_likelihood(model, corpus).perplexity()


# ---------------------------------------------------------------------------
# Serialization


def ngram_to_dict(model: NgramModel) -> dict:
    """JSON-ready document; events are stored as [context list, next, count]
    triples sorted for byte-stable output."""
    triples = [
        [list(ctx), int(y), int(c)]
        for ctx in sorted(model.counts)
        for y, c in sorted(model.counts[ctx].items())
    ]
    doc = {
        "order": model.order,
        "smoothing": model.smoothing,
        "discount": model.discount,
        "vocab": list(model.vocab.tokens),
        "counts": triples,
    }
    if model.vocab.rare_token is not None:
        doc["rare_token"] = model.vocab.rare_token
    return doc


def ngram_from_dict(doc: dict) -> NgramModel:
    """Inverse of :func:`ngram_to_dict`; the events are read straight from
    the triples, which must not repeat a (context, next) pair."""
    try:
        order = int(_integers([doc["order"]], 1, np.inf, "order")[0])
        smoothing, discount = str(doc["smoothing"]), doc["discount"]
        if isinstance(discount, bool) or not isinstance(discount, (int, float)):
            raise DataError(f"discount {discount!r} is not a number")
        vocab = Vocabulary.from_tokens([str(t) for t in doc["vocab"]], doc.get("rare_token"))
        events = _counted_events(doc["counts"], len(vocab), order)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed n-gram document: {exc}") from exc
    return NgramModel(order, smoothing, float(discount), vocab, events)


def save_ngram(model: NgramModel, path: str) -> None:
    _write_json(ngram_to_dict(model), path)


def load_ngram(path: str) -> NgramModel:
    return ngram_from_dict(_read_json(path, "model file"))
