"""Fixed-order n-gram baselines scored under the same protocol as the lagged
model: every position after the first is predicted from its preceding
context, truncated near the start of the sequence instead of padded.

Two estimators are provided: plain maximum likelihood ("none" smoothing),
which assigns zero probability to unseen events, and interpolated
Kneser-Ney smoothing, which discounts seen events and backs off through
shorter contexts down to a continuation unigram interpolated with the
uniform distribution, so every conditional is strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from lamp.core import (
    Corpus,
    DataError,
    LogLikelihood,
    Vocabulary,
    _check_vocab,
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


def _count_events(corpus: Corpus, order: int) -> dict[tuple[int, ...], dict[int, int]]:
    """Raw (context, next) counts under the truncated-context protocol.

    Position j of a sequence contributes one event with context
    seq[j - m : j] where m = min(j, order), so contexts shorter than the
    order appear only at sequence starts.
    """
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for seq in corpus.sequences:
        ids = [int(x) for x in seq]
        for j in range(1, len(ids)):
            m = min(j, order)
            ctx = tuple(ids[j - m : j])
            targets = counts.setdefault(ctx, {})
            targets[ids[j]] = targets.get(ids[j], 0) + 1
    return counts


@dataclass(frozen=True)
class NgramModel:
    """Order-m conditional model over truncated contexts.

    ``counts`` holds the raw training events; smoothed tables are derived
    from them on demand, so a serialized model reloads to identical
    conditionals.
    """

    order: int
    smoothing: str
    discount: float
    vocab: Vocabulary
    counts: dict[tuple[int, ...], dict[int, int]]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise DataError("order must be at least 1")
        if self.smoothing not in ("none", "kneser_ney"):
            raise DataError(f"unknown smoothing {self.smoothing!r}")
        if self.smoothing == "none" and self.discount != 0.0:
            raise DataError("unsmoothed models take no discount")
        if self.smoothing == "kneser_ney" and not 0.0 < self.discount < 1.0:
            raise DataError("discount must lie strictly between 0 and 1")
        if not self.counts:
            raise DataError("model has no training events")
        n = len(self.vocab)
        for ctx, targets in self.counts.items():
            if len(ctx) > self.order:
                raise DataError(f"context {ctx} longer than the model order")
            for y in (*ctx, *targets):
                if not 0 <= int(y) < n:
                    raise DataError(f"state id {y} outside the vocabulary")

    @property
    def n(self) -> int:
        return len(self.vocab)

    @cached_property
    def _totals(self) -> dict[tuple[int, ...], int]:
        return {ctx: sum(t.values()) for ctx, t in self.counts.items()}

    @cached_property
    def _kn_tables(self) -> list[dict[tuple[int, ...], dict[int, int]]]:
        """Per-level event tables for Kneser-Ney.

        Level ``order`` holds the raw full-context counts.  Each shorter
        level holds continuation counts (the number of distinct one-symbol
        left extensions seen at the level above) plus the raw counts of
        truncated sequence-start events at that length, which have no left
        extension and would otherwise vanish from the backoff chain.
        """
        raw: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(self.order + 1)
        ]
        for ctx, targets in self.counts.items():
            raw[len(ctx)][ctx] = dict(targets)
        tables = [dict() for _ in range(self.order + 1)]
        tables[self.order] = raw[self.order]
        for m in range(self.order - 1, -1, -1):
            level: dict[tuple[int, ...], dict[int, int]] = {}
            for ctx, targets in tables[m + 1].items():
                suffix = ctx[1:]
                dest = level.setdefault(suffix, {})
                for y, c in targets.items():
                    if c > 0:
                        # ctx determines its first symbol, so each upper
                        # context adds exactly one distinct left extension.
                        dest[y] = dest.get(y, 0) + 1
            for ctx, targets in raw[m].items():
                dest = level.setdefault(ctx, {})
                for y, c in targets.items():
                    dest[y] = dest.get(y, 0) + c
            tables[m] = level
        return tables

    @cached_property
    def _kn_stats(self) -> list[dict[tuple[int, ...], tuple[int, int]]]:
        """Per level: context -> (total count, distinct continuations)."""
        return [
            {ctx: (sum(t.values()), len(t)) for ctx, t in level.items()}
            for level in self._kn_tables
        ]

    def conditional(self, context: Sequence[int], y: int) -> float:
        """P(y | context), truncating the context to the model order."""
        y = int(y)
        if not 0 <= y < self.n:
            raise DataError(f"state id {y} outside the vocabulary")
        ctx = tuple(int(c) for c in context)
        if len(ctx) > self.order:
            ctx = ctx[-self.order:]
        for c in ctx:
            if not 0 <= c < self.n:
                raise DataError(f"state id {c} outside the vocabulary")
        if self.smoothing == "none":
            targets = self.counts.get(ctx)
            if targets is None:
                return 0.0
            return targets.get(y, 0) / self._totals[ctx]
        return self._kneser_ney(ctx, y)

    def _kneser_ney(self, ctx: tuple[int, ...], y: int) -> float:
        D = self.discount
        tables, stats = self._kn_tables, self._kn_stats
        total0, distinct0 = stats[0][()]
        c0 = tables[0][()].get(y, 0)
        p = max(c0 - D, 0.0) / total0 + (D * distinct0 / total0) * (1.0 / self.n)
        for m in range(1, len(ctx) + 1):
            sub = ctx[len(ctx) - m :]
            entry = stats[m].get(sub)
            if entry is None:
                continue  # unseen context: back off without discounting
            total, distinct = entry
            c = tables[m][sub].get(y, 0)
            p = max(c - D, 0.0) / total + (D * distinct / total) * p
        return p

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Full conditional distribution over the vocabulary."""
        return np.array([self.conditional(context, y) for y in range(self.n)])


def fit_naive_ngram(corpus: Corpus, order: int) -> NgramModel:
    """Maximum-likelihood n-gram; unseen events get probability zero."""
    if order < 1:
        raise DataError("order must be at least 1")
    if corpus.total_transitions == 0:
        raise DataError("corpus has no scored transitions")
    return NgramModel(
        order=order,
        smoothing="none",
        discount=0.0,
        vocab=corpus.vocab,
        counts=_count_events(corpus, order),
    )


def fit_kneser_ney(corpus: Corpus, order: int, discount: float = 0.75) -> NgramModel:
    """Interpolated Kneser-Ney n-gram with a fixed discount."""
    if order < 1:
        raise DataError("order must be at least 1")
    if not 0.0 < discount < 1.0:
        raise DataError("discount must lie strictly between 0 and 1")
    if corpus.total_transitions == 0:
        raise DataError("corpus has no scored transitions")
    return NgramModel(
        order=order,
        smoothing="kneser_ney",
        discount=discount,
        vocab=corpus.vocab,
        counts=_count_events(corpus, order),
    )


def ngram_log_likelihood(model: NgramModel, corpus: Corpus) -> LogLikelihood:
    """Natural-log likelihood under the shared scoring protocol: positions
    j = 1..len-1, context truncated at sequence starts."""
    _check_vocab(model.vocab, corpus.vocab)
    per_sequence = []
    total = 0.0
    scored = 0
    impossible = 0
    for seq in corpus.sequences:
        ids = [int(x) for x in seq]
        ll = 0.0
        for j in range(1, len(ids)):
            m = min(j, model.order)
            p = model.conditional(ids[j - m : j], ids[j])
            scored += 1
            if p <= 0.0:
                impossible += 1
                ll = -math.inf
            elif ll != -math.inf:
                ll += math.log(p)
        per_sequence.append(ll)
        total += ll
    return LogLikelihood(
        total=total,
        per_sequence=tuple(per_sequence),
        scored_transitions=scored,
        impossible_transitions=impossible,
    )


def ngram_perplexity(model: NgramModel, corpus: Corpus) -> float:
    """exp(-L/T); +inf when any scored transition is impossible."""
    ll = ngram_log_likelihood(model, corpus)
    if ll.scored_transitions == 0:
        raise DataError("perplexity requires at least one scored transition")
    if ll.impossible_transitions > 0:
        return math.inf
    return math.exp(-ll.total / ll.scored_transitions)


# ---------------------------------------------------------------------------
# Serialization


def ngram_to_dict(model: NgramModel) -> dict:
    """JSON-ready document; events are stored as [context list, next, count]
    triples sorted for byte-stable output."""
    triples = []
    for ctx in sorted(model.counts):
        for y in sorted(model.counts[ctx]):
            triples.append([list(ctx), int(y), int(model.counts[ctx][y])])
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
    try:
        order = int(doc["order"])
        smoothing = str(doc["smoothing"])
        discount = float(doc["discount"])
        tokens = [str(t) for t in doc["vocab"]]
        triples = doc["counts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed n-gram document: {exc}") from exc
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for entry in triples:
        ctx, y, c = tuple(int(v) for v in entry[0]), int(entry[1]), int(entry[2])
        counts.setdefault(ctx, {})[y] = c
    return NgramModel(
        order=order,
        smoothing=smoothing,
        discount=discount,
        vocab=Vocabulary.from_tokens(tokens, doc.get("rare_token")),
        counts=counts,
    )


def save_ngram(model: NgramModel, path: str) -> None:
    _write_json(ngram_to_dict(model), path)


def load_ngram(path: str) -> NgramModel:
    return ngram_from_dict(_read_json(path, "model file"))
