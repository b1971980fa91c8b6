"""Corpus loading and preprocessing: whitespace-token text files, repeat
collapsing, rare-token thresholding, deterministic train/test splitting,
and a JSON cache for preprocessed corpora.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from lamp.core import Corpus, DataError, Vocabulary, _integers, _read_json, _write_json

__all__ = [
    "LoadReport",
    "PreprocessConfig",
    "PreprocessReport",
    "load_corpus",
    "save_corpus_cache",
    "load_corpus_cache",
    "encode_tokens",
    "decode_ids",
    "token_counts",
    "collapse_repeats",
    "apply_rare_threshold",
    "preprocess",
    "split",
    "kfold_split",
]


@dataclass(frozen=True)
class LoadReport:
    """What a text load saw: kept sequences, token instances, skipped blanks."""

    n_sequences: int
    n_tokens: int
    skipped_empty_lines: int


def load_corpus(path: str, limit: int | None = None, return_report: bool = False):
    """Read a corpus as UTF-8 text: one sequence per line, whitespace tokens.

    Token ids are assigned in order of first appearance.  Blank lines are
    skipped and counted in the report.  ``limit`` keeps only the first that
    many nonempty lines.
    """
    if limit is not None and limit < 1:
        raise DataError("limit must be at least 1 when given")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"corpus file {path} is not valid UTF-8: {exc}") from exc
    words = [line.split() for line in lines]
    nonempty = [i for i, toks in enumerate(words) if toks]
    kept = [words[i] for i in nonempty[:limit]]
    if not kept:
        raise DataError(f"corpus file {path} contains no nonempty lines")
    # Blank lines count up to the first nonempty line past the limit.
    end = nonempty[limit] if limit is not None and limit < len(nonempty) else len(words)
    index: dict[str, int] = {}
    tokens = np.fromiter((index.setdefault(t, len(index)) for t in chain.from_iterable(kept)), np.int64)
    corpus = Corpus(Vocabulary.from_tokens(index), tokens, np.cumsum([0, *map(len, kept)]))
    if return_report:
        return corpus, LoadReport(
            n_sequences=len(kept), n_tokens=tokens.size, skipped_empty_lines=end - len(kept)
        )
    return corpus


# ---------------------------------------------------------------------------
# JSON cache


def save_corpus_cache(corpus: Corpus, path: str) -> None:
    """Write a corpus as compact JSON: token list plus integer sequences."""
    doc = {
        "vocab": list(corpus.vocab.tokens),
        "sequences": [seq.tolist() for seq in corpus.sequences],
    }
    if corpus.vocab.rare_token is not None:
        doc["rare_token"] = corpus.vocab.rare_token
    _write_json(doc, path)


def load_corpus_cache(path: str) -> Corpus:
    """Read a cache written by :func:`save_corpus_cache`; every sequence
    must be a list of integer state ids of the vocabulary."""
    doc = _read_json(path, "corpus cache")
    try:
        tokens = [str(t) for t in doc["vocab"]]
        sequences = list(doc["sequences"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed corpus cache: {exc}") from exc
    vocab = Vocabulary.from_tokens(tokens, doc.get("rare_token"))
    odd = [s for s in sequences if not isinstance(s, list)]
    if odd:
        raise DataError(f"corpus cache sequence {odd[0]!r} is not a list of state ids")
    ids = _integers([*chain.from_iterable(sequences)], 0, len(vocab), "state id")
    return Corpus(vocab, ids, np.cumsum([0, *map(len, sequences)]))


# ---------------------------------------------------------------------------
# Token mapping


def encode_tokens(vocab: Vocabulary, tokens: Sequence[str]) -> list[int]:
    """Map token strings to ids; unknown tokens fall back to the rare id."""
    rare = vocab.rare_id
    ids = []
    for tok in tokens:
        if tok in vocab:
            ids.append(vocab.index[tok])
        elif rare is not None:
            ids.append(rare)
        else:
            raise DataError(
                f"token {tok!r} is not in the vocabulary and no rare token is set"
            )
    return ids


def decode_ids(vocab: Vocabulary, ids: Sequence[int]) -> list[str]:
    ids = np.asarray(ids, dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= len(vocab)))
    if bad.size:
        vocab.token(int(ids[bad[0]]))  # raises the out-of-range DataError
    tokens = vocab.tokens
    return [tokens[i] for i in ids.tolist()]


def token_counts(corpus: Corpus) -> np.ndarray:
    """Occurrences of each token id across all sequences."""
    return np.bincount(corpus._tokens_rw, minlength=len(corpus.vocab))


# ---------------------------------------------------------------------------
# Transforms


def collapse_repeats(corpus: Corpus) -> Corpus:
    """Squash runs of identical consecutive ids to one occurrence each.

    The vocabulary is unchanged and the transform is idempotent.
    """
    tokens = corpus.tokens
    keep = np.ones(tokens.size, dtype=bool)
    keep[1:] = tokens[1:] != tokens[:-1]
    keep[corpus.offsets[:-1]] = True
    return Corpus(corpus.vocab, tokens[keep], np.append(0, np.cumsum(keep))[corpus.offsets])


def apply_rare_threshold(
    corpus: Corpus,
    min_count: int,
    rare_label: str = "<RARE>",
    counts: np.ndarray | None = None,
) -> Corpus:
    """Replace tokens occurring fewer than ``min_count`` times with a rare
    token and rebuild the vocabulary densely.

    ``counts`` supplies the occurrence counts to threshold on (the pipeline
    passes pre-collapse counts); by default they are taken from ``corpus``
    itself.  Surviving tokens keep their relative order; the rare label is
    appended unless it is already a surviving token, in which case that id
    doubles as the sink.  With nothing below the threshold the corpus is
    returned unchanged.
    """
    if min_count < 0:
        raise DataError("min_count must be nonnegative")
    n = len(corpus.vocab)
    if counts is None:
        counts = token_counts(corpus)
    counts = np.asarray(counts)
    if counts.shape != (n,):
        raise DataError(f"counts must have one entry per token (expected {n})")
    rare_ids = counts < min_count
    if min_count == 0 or not bool(rare_ids.any()):
        return corpus
    survivors = [t for t, is_rare in zip(corpus.vocab.tokens, rare_ids) if not is_rare]
    if rare_label not in survivors:
        survivors.append(rare_label)
    vocab = Vocabulary.from_tokens(survivors, rare_label)
    # Survivors keep their order, so a surviving id maps to its rank.
    new_id = np.where(rare_ids, vocab.index[rare_label], np.cumsum(~rare_ids) - 1)
    return Corpus(vocab, new_id[corpus.tokens], corpus.offsets)


@dataclass(frozen=True)
class PreprocessConfig:
    """Pipeline switches: repeat collapsing, rare thresholding, splitting."""

    collapse_repeats: bool = False
    rare_min_count: int = 0
    rare_token_label: str = "<RARE>"
    split_fraction: float = 0.9
    split_seed: int = 0

    def __post_init__(self) -> None:
        if self.rare_min_count < 0:
            raise DataError("rare_min_count must be nonnegative")
        if not 0.0 < self.split_fraction < 1.0:
            raise DataError("split_fraction must lie strictly between 0 and 1")
        if not self.rare_token_label:
            raise DataError("rare_token_label must be nonempty")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PreprocessConfig":
        try:
            return cls(**doc)
        except TypeError as exc:
            raise DataError(f"malformed preprocess config: {exc}") from exc


@dataclass(frozen=True)
class PreprocessReport:
    n_sequences_in: int
    n_sequences_out: int
    dropped_short_sequences: int
    rare_token_types: int
    vocab_size_in: int
    vocab_size_out: int


def preprocess(corpus: Corpus, cfg: PreprocessConfig) -> tuple[Corpus, PreprocessReport]:
    """Collapse, threshold, re-collapse, and drop too-short sequences.

    Rare thresholding always uses token counts from the original corpus,
    taken before any collapsing.  Rare replacement can create new adjacent
    repeats, so collapsing runs again afterwards.  Sequences reduced below
    two tokens are dropped (they carry no scored transition).
    """
    original_counts = token_counts(corpus)
    vocab_in = len(corpus.vocab)
    out = corpus
    if cfg.collapse_repeats:
        out = collapse_repeats(out)
    if cfg.rare_min_count > 0:
        out = apply_rare_threshold(
            out, cfg.rare_min_count, cfg.rare_token_label, counts=original_counts
        )
        if cfg.collapse_repeats:
            out = collapse_repeats(out)
    kept = np.flatnonzero(out.lengths >= 2)
    dropped = len(out) - kept.size
    if not kept.size:
        raise DataError("preprocessing dropped every sequence")
    if dropped:
        out = out.take(kept)
    rare_types = int((original_counts < cfg.rare_min_count).sum()) if cfg.rare_min_count else 0
    report = PreprocessReport(
        n_sequences_in=len(corpus),
        n_sequences_out=len(out),
        dropped_short_sequences=dropped,
        rare_token_types=rare_types,
        vocab_size_in=vocab_in,
        vocab_size_out=len(out.vocab),
    )
    return out, report


# ---------------------------------------------------------------------------
# Splitting


def _project(
    corpus: Corpus,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    rare_label: str,
) -> tuple[Corpus, Corpus]:
    """Build train/test corpora over the train side's vocabulary.

    Tokens appearing only on the test side map to the rare token.  Both
    corpora share one vocabulary object.
    """
    train, test = corpus.take(train_idx), corpus.take(test_idx)
    seen = np.zeros(len(corpus.vocab), dtype=bool)
    seen[train.tokens] = True
    survivors = [t for t, s in zip(corpus.vocab.tokens, seen) if s]
    needs_rare = not seen[test.tokens].all()
    rare = corpus.vocab.rare_token if corpus.vocab.rare_token is not None else rare_label
    if needs_rare and rare not in survivors:
        survivors.append(rare)
    keep_marker = needs_rare or (
        corpus.vocab.rare_token is not None and corpus.vocab.rare_token in survivors
    )
    vocab = Vocabulary.from_tokens(survivors, rare if keep_marker else None)
    # Seen tokens keep their order, so a seen id maps to its rank.
    new_id = np.where(seen, np.cumsum(seen) - 1, vocab.index[rare] if needs_rare else -1)
    return (Corpus(vocab, new_id[train.tokens], train.offsets),
            Corpus(vocab, new_id[test.tokens], test.offsets))


def split(
    corpus: Corpus, fraction: float, seed: int, rare_label: str = "<RARE>"
) -> tuple[Corpus, Corpus]:
    """Whole-sequence train/test split, deterministic in the seed.

    The train side gets floor(fraction * n) sequences, clamped so both
    sides stay nonempty.  Vocabulary is rebuilt from the train side and
    shared by both corpora; test-only tokens become the rare token.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError("fraction must lie strictly between 0 and 1")
    n = len(corpus)
    if n < 2:
        raise DataError("splitting requires at least two sequences")
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(fraction * n), 1), n - 1)
    return _project(corpus, np.sort(order[:n_train]), np.sort(order[n_train:]), rare_label)


def kfold_split(
    corpus: Corpus, n_folds: int = 10, seed: int = 0, rare_label: str = "<RARE>"
) -> list[tuple[Corpus, Corpus]]:
    """Deterministic k-fold partition: every sequence lands in exactly one
    test fold; each pair shares the train side's vocabulary."""
    n = len(corpus)
    if n_folds < 2:
        raise DataError("k-fold splitting needs at least two folds")
    if n_folds > n:
        raise DataError(f"cannot make {n_folds} folds from {n} sequences")
    order = np.random.default_rng(seed).permutation(n)
    bounds = np.linspace(0, n, n_folds + 1).astype(int)
    pairs = []
    for f in range(n_folds):
        in_test = np.zeros(n, dtype=bool)
        in_test[order[bounds[f] : bounds[f + 1]]] = True
        pairs.append(_project(corpus, np.flatnonzero(~in_test), np.flatnonzero(in_test), rare_label))
    return pairs
