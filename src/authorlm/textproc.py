"""Corpus ingestion and preprocessing.

Raw one-sentence-per-line author files are tokenized, optionally stemmed,
frequency-pruned into a per-author vocabulary, encoded to integer ids with
sentence-boundary padding, and split into train/validation/test parts.
Everything downstream (both language model families) consumes the encoded
form produced here.

``encode_local`` is the one encoder: ``preprocess`` and attribution pad
and code token sentences with it, then gather through ``Vocabulary.ids``
for each vocabulary.  Encoded sentences stay two int64 arrays
(``Sentences``) from the saved file to the samples and counts the models
train on.  The encoded corpus is one self-contained ``files`` container:
its header holds the vocabulary and the token behind each unknown id, so
``ProcessedCorpus.tokens`` gives back the preprocessed tokens of any
sentence, and it is read only in the one layout ``save_processed``
writes.  ``save_vocabulary`` writes a readable copy of the vocabulary,
which nothing reads back.
"""

from __future__ import annotations

import string
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import porter
from .files import Layout, read_arrays, row_count, write_arrays, write_file
from .prng import stream

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"
START_ID, END_ID, UNK_ID = 0, 1, 2
_RESERVED = (SENTENCE_START, SENTENCE_END, UNKNOWN)

_VOCAB_MAGIC = "authorlm-vocab 1"
_CORPUS_MAGIC = "authorlm-corpus"
_CORPUS_VERSION = 3


@dataclass(frozen=True)
class RawCorpus:
    """One author's corpus: an id label plus raw sentence lines."""

    author_id: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"corpus {self.author_id!r} has no sentences")
        for i, s in enumerate(self.sentences):
            if not s.strip():
                raise ValueError(
                    f"corpus {self.author_id!r}: sentence {i} is empty"
                )


def read_corpus_file(path: str | Path) -> RawCorpus:
    """Read a UTF-8 one-sentence-per-line file; the file stem is the author id."""
    path = Path(path)
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return RawCorpus(author_id=path.stem, sentences=tuple(filter(None, lines)))


def tokenize(line: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    Digits are kept; tokens that are empty after stripping are dropped.
    """
    out = []
    for tok in line.lower().split():
        tok = tok.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def stem_sentences(token_sentences: Iterable[Sequence[str]]) -> list[list[str]]:
    """The Porter stem of every token, one list per sentence."""
    return [[porter.stem(t) for t in toks] for toks in token_sentences]


def preprocess_sentences(lines: Iterable[str], stemming: bool = True) -> list[list[str]]:
    """Tokenize (and optionally stem) raw sentence lines.

    Keeps one output list per input line, even when no tokens survive, so
    sentence indices stay aligned with the raw corpus.
    """
    sentences = [tokenize(line) for line in lines]
    return stem_sentences(sentences) if stemming else sentences


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional word/id map with reserved boundary and unknown tokens.

    Ids are dense: 0 = sentence start, 1 = sentence end, 2 = unknown, then
    corpus words ordered by descending count (ties broken lexicographically).
    ``counts`` holds the build-time occurrence count per id (0 for the
    reserved entries).
    """

    words: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.words[:3] != _RESERVED:
            raise ValueError("reserved tokens missing or out of order")
        if len(self.words) != len(set(self.words)):
            raise ValueError("duplicate words in vocabulary")
        if len(self.counts) != len(self.words):
            raise ValueError("counts/words length mismatch")
        object.__setattr__(
            self, "_index", {w: i for i, w in enumerate(self.words)}
        )

    @property
    def size(self) -> int:
        return len(self.words)

    def index_of(self, word: str) -> int:
        """Id of a word, or the unknown id if it was pruned/unseen."""
        return self._index.get(word, UNK_ID)

    def ids(self, words: Iterable[str]) -> np.ndarray:
        """``[START_ID, END_ID]``, then each word's id (the unknown id if
        pruned or unseen), as int64: the lookup ``encode_local``'s codes index."""
        return np.array([START_ID, END_ID, *map(self._index.get, words, repeat(UNK_ID))], dtype=np.int64)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.words[i] for i in ids]


def build_vocabulary(
    token_sentences: Sequence[Sequence[str]], prune_threshold: float = 0.0
) -> Vocabulary:
    """Count tokens and keep those with relative frequency >= the threshold.

    At the usual corpus scale (~1e5 tokens) a threshold of 1e-5 prunes
    exactly the singletons; on small corpora the cutoff count can drop
    below 1, in which case nothing is pruned.
    """
    if not 0.0 <= prune_threshold <= 1.0:
        raise ValueError(f"prune_threshold must be in [0, 1], got {prune_threshold}")
    counts = Counter()
    for sent in token_sentences:
        counts.update(sent)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot build a vocabulary from zero tokens")
    kept = [
        (word, count)
        for word, count in counts.items()
        if count / total >= prune_threshold
    ]
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    words = _RESERVED + tuple(w for w, _ in kept)
    vocab_counts = (0, 0, 0) + tuple(c for _, c in kept)
    return Vocabulary(words=words, counts=vocab_counts)


class Sentences(Sequence):
    """Padded id sentences as int64 arrays: ``lengths``, one per sentence,
    ``ids``, all their ids concatenated, and ``starts``, each one's offset
    into ``ids``.  A read-only sequence of id tuples that compares equal to
    a tuple of the same tuples; a slice is a ``Sentences``.
    """

    __slots__ = ("lengths", "ids", "starts")

    def __init__(self, lengths: np.ndarray, ids: np.ndarray):
        self.lengths, self.ids = lengths, ids
        self.starts = np.cumsum(lengths) - lengths
        for a in (lengths, ids, self.starts):
            a.flags.writeable = False

    @classmethod
    def of(cls, sentences: Iterable[Sequence[int]]) -> Sentences:
        """``sentences`` itself if a ``Sentences``, else its id sequences flattened."""
        if isinstance(sentences, Sentences):
            return sentences
        sentences = list(sentences)
        lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
        ids = np.fromiter(chain.from_iterable(sentences), dtype=np.int64, count=int(lengths.sum()))
        return cls(lengths, ids)

    def take(self, indices: Iterable[int]) -> Sentences:
        """The sentences at ``indices``, in that order, from one gather."""
        indices = np.asarray(indices, dtype=np.int64)
        lengths = self.lengths[indices]
        return Sentences(lengths, self.ids[runs(self.starts[indices], lengths)])

    def windows(self, k: int) -> np.ndarray:
        """The first position in ``ids`` of each length-k window inside a sentence."""
        return runs(self.starts, np.maximum(self.lengths - k + 1, 0))

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        start = self.starts[index]
        return tuple(self.ids[start : start + self.lengths[index]].tolist())

    def __eq__(self, other):
        if isinstance(other, Sentences):
            return np.array_equal(self.lengths, other.lengths) and np.array_equal(self.ids, other.ids)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"Sentences(lengths={self.lengths!r}, ids={self.ids!r})"


def runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[r], ..., starts[r] + counts[r] - 1 of each run r, in order."""
    return np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """int64 keys of the rows of an (n, k) array of ids in [0, base) that
    sort like the rows.  Columns are packed base-``base``; before one would
    overflow, the keys so far are replaced by their ranks, which stay below
    the row count."""
    keys = np.zeros(len(rows), dtype=np.int64)
    span = 1  # keys lie in [0, span)
    for column in rows.T:
        if span * base >= 2**63:
            _, keys = np.unique(keys, return_inverse=True)
            span = int(keys.max(initial=0)) + 1
        keys = keys * base + column
        span *= base
    return keys


def encode_local(token_sentences: Sequence[Sequence[str]], order: int) -> tuple[Sentences, tuple[str, ...]]:
    """The sentences padded for ``order`` in local codes, and the words coded.

    Each sentence is order-1 start paddings (code 0), one code per token
    and one end (code 1); ``2 + j`` codes ``words[j]``, the j-th distinct
    token in first-seen order.  ``vocab.ids(words)[codes]`` is the
    encoding under ``vocab``.  A ValueError for an order below 2.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    tokens = list(chain.from_iterable(token_sentences))
    words = tuple(dict.fromkeys(tokens))
    codes = dict(zip(words, range(2, len(words) + 2)))
    counts = np.fromiter(map(len, token_sentences), dtype=np.int64, count=len(token_sentences))
    lengths = counts + order
    ends = np.cumsum(lengths)
    ids = np.zeros(int(lengths.sum()), dtype=np.int64)
    content = np.fromiter(map(codes.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    ids[runs(ends - counts - 1, counts)] = content
    ids[ends - 1] = 1
    return Sentences(lengths, ids), words


def padded_sentences(
    sentences: Iterable[Sequence[int]], order: int, vocab_size: int | None = None
) -> Sentences:
    """``Sentences.of(sentences)``; a ValueError naming the first bad
    sentence unless each is order-1 start ids, its content and one end id,
    and, given ``vocab_size``, every id is in [0, vocab_size)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    s = Sentences.of(sentences)
    if vocab_size is not None:
        outside = (s.ids < 0) | (s.ids >= vocab_size)
        if outside.any():
            at = int(np.argmax(outside))
            k = int(np.searchsorted(s.starts, at, side="right")) - 1
            raise ValueError(f"sentence {k}: id {s.ids[at]} outside the vocabulary of {vocab_size}")
    bad = s.lengths < order
    fits = ~bad
    first = s.starts[fits]
    pads = s.ids[first[:, None] + np.arange(order - 1)]
    bad[fits] = (pads != START_ID).any(axis=1) | (s.ids[first + s.lengths[fits] - 1] != END_ID)
    if bad.any():
        raise ValueError(f"sentence {int(np.argmax(bad))} not padded for order {order}")
    return s


@dataclass(frozen=True)
class ProcessedCorpus:
    """Encoded sentences plus the pipeline parameters that produced them.

    Each sentence is order-1 start paddings, the content ids (unknowns
    already substituted) and one end id, held as ``Sentences``.
    ``unknown[j]`` is the token that the j-th unknown id in
    ``sentences.ids`` stands for; a ValueError unless there is one per id.
    """

    vocabulary: Vocabulary
    sentences: Sentences
    order: int
    stemming: bool
    prune_threshold: float
    unknown: tuple[str, ...] = ()

    def __post_init__(self):
        checked = padded_sentences(self.sentences, self.order, self.vocabulary.size)
        object.__setattr__(self, "sentences", checked)
        ids = int(np.count_nonzero(checked.ids == UNK_ID))
        if len(self.unknown) != ids:
            raise ValueError(f"{len(self.unknown)} unknown tokens for {ids} unknown ids")

    def __len__(self) -> int:
        return len(self.sentences)

    def tokens(self, indices: Iterable[int]) -> list[list[str]]:
        """The preprocessed tokens of the sentences at ``indices``, in that
        order: each content id's word, or the token behind an unknown id."""
        s = self.sentences
        indices = np.asarray(indices, dtype=np.int64)
        counts = s.lengths[indices] - self.order
        at = runs(s.starts[indices] + self.order - 1, counts)
        ids = s.ids[at]
        rank = np.cumsum(s.ids == UNK_ID) - 1  # of each unknown id among them all
        codes = np.where(ids == UNK_ID, self.vocabulary.size + rank[at], ids)
        words = iter(map((self.vocabulary.words + self.unknown).__getitem__, codes.tolist()))
        return [list(islice(words, n)) for n in counts.tolist()]


def encode(
    token_sentences: Sequence[Sequence[str]], vocab: Vocabulary, order: int,
    stemming: bool = True, prune_threshold: float = 0.0,
) -> ProcessedCorpus:
    """Encode preprocessed token sentences against a vocabulary, keeping
    the token behind each unknown id."""
    local, words = encode_local(token_sentences, order)
    ids = vocab.ids(words)[local.ids]
    unknown = tuple(words[code - 2] for code in local.ids[ids == UNK_ID].tolist())
    return ProcessedCorpus(vocab, Sentences(local.lengths, ids), order, stemming, prune_threshold, unknown)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/validation/test sentence indices for one seed."""

    seed: int
    ratios: tuple[Fraction, Fraction, Fraction]
    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]


def split_ratios(ratios: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """``ratios`` as exact rationals (each the nearest fraction with a denominator
    of at most 10**6); a ValueError unless three, none negative, summing to 1."""
    fracs = tuple(Fraction(r).limit_denominator(10**6) for r in ratios)
    if len(fracs) != 3 or sum(fracs) != 1 or min(fracs) < 0:
        raise ValueError(f"ratios must be three non-negative rationals summing to 1, got {ratios}")
    return fracs


def split(
    n_sentences: int, seed: int, ratios: Sequence = (Fraction(8, 10), Fraction(1, 10), Fraction(1, 10))
) -> SplitAssignment:
    """Partition sentence indices into train/validation/test.

    Validation and test sizes are floored; the remainder goes to train.
    A split that would leave a part empty is refused with a ValueError
    naming the part.  The permutation is drawn from the seeded PCG64
    stream, so one seed always yields the same partition.
    """
    if n_sentences < 10:
        raise ValueError(f"need at least 10 sentences to split, got {n_sentences}")
    fracs = split_ratios(ratios)
    n_valid = int(n_sentences * fracs[1])
    n_test = int(n_sentences * fracs[2])
    n_train = n_sentences - n_valid - n_test
    for part, size, frac in zip(("train", "validation", "test"), (n_train, n_valid, n_test), fracs):
        if size == 0:
            raise ValueError(f"{n_sentences} sentences leave the {part} part empty (ratio {frac})")
    perm = stream(seed).permutation(n_sentences)
    return SplitAssignment(
        seed=seed,
        ratios=fracs,
        train=tuple(sorted(int(i) for i in perm[:n_train])),
        validation=tuple(sorted(int(i) for i in perm[n_train : n_train + n_valid])),
        test=tuple(sorted(int(i) for i in perm[n_train + n_valid :])),
    )


class Samples(NamedTuple):
    """A batch of next-word prediction samples.

    ``contexts`` is (M, order-1) int64, ``targets`` is (M,) int64; row i
    pairs a context window with the word that follows it.
    """

    contexts: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def samples_from_sentences(sentences: Iterable[Sequence[int]], order: int) -> Samples:
    """Sliding-window samples over padded sentences.

    Every non-padding position becomes a target, the sentence end included,
    so a sentence of T content tokens yields T + 1 samples.
    """
    width = order - 1
    s = Sentences.of(sentences)
    ids, starts = s.ids, s.windows(order)
    if not len(starts):  # no window of ``width`` ids to view
        return Samples(np.empty((0, width), dtype=np.int64), np.empty(0, dtype=np.int64))
    return Samples(contexts=sliding_window_view(ids, width)[starts], targets=ids[starts + width])


def extract_samples(processed: ProcessedCorpus, indices: Sequence[int] | None = None) -> Samples:
    """Samples for the given sentence indices (all, if None)."""
    sentences = processed.sentences if indices is None else processed.sentences.take(indices)
    return samples_from_sentences(sentences, processed.order)


def top_k_coverage(processed: ProcessedCorpus, ks: Sequence[int]) -> dict[int, float]:
    """Share of encoded content tokens covered by the k most frequent ids.

    Boundary paddings are excluded; the unknown token competes like any
    other vocabulary entry, so k = vocabulary size always gives 1.0.
    """
    s, pads = processed.sentences, processed.order - 1
    counts = np.bincount(s.ids[runs(s.starts + pads, s.lengths - pads - 1)])
    ranked = sorted(counts[counts > 0].tolist(), reverse=True)
    total = sum(ranked)
    return {k: sum(ranked[:k]) / total if total else 0.0 for k in ks}


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write the word<TAB>id<TAB>count table with a small header, a readable
    copy of what the ``.corpus`` header holds."""
    lines = [f"# {_VOCAB_MAGIC}", f"# size {vocab.size}"]
    lines += [f"{w}\t{i}\t{c}" for i, (w, c) in enumerate(zip(vocab.words, vocab.counts))]
    write_file(path, "\n".join(lines) + "\n")


def save_processed(processed: ProcessedCorpus, path: str | Path) -> None:
    """The ``files`` container: a header with the format, version, pipeline
    settings, the vocabulary's words and counts, the token behind each
    unknown id and the array shapes, then the int64 lengths and ids."""
    s, vocab = processed.sentences, processed.vocabulary
    header = {
        "format": _CORPUS_MAGIC,
        "version": _CORPUS_VERSION,
        "order": processed.order,
        "stemming": bool(processed.stemming),
        "prune_threshold": float(processed.prune_threshold),
        "words": list(vocab.words),
        "counts": list(vocab.counts),
        "unknown": list(processed.unknown),
        "arrays": [["lengths", [len(s.lengths)]], ["ids", [len(s.ids)]]],
    }
    write_arrays(path, header, [s.lengths, s.ids])


def load_processed(path: str | Path) -> ProcessedCorpus:
    """Read a ``save_processed`` file; a ValueError naming the file for a
    header value of the wrong type or range, a vocabulary ``Vocabulary``
    refuses, lengths that are not counts summing to the number of ids, or
    sentences or unknown tokens ``ProcessedCorpus`` refuses."""

    def layout(path, header: dict) -> Layout:
        order, stemming, threshold, words, counts, unknown, arrays = (
            header.get(key) for key in ("order", "stemming", "prune_threshold", "words", "counts", "unknown", "arrays")
        )
        for key, ok in [("order", type(order) is int and order >= 2), ("stemming", type(stemming) is bool),
                        ("prune_threshold", type(threshold) is float and 0 <= threshold <= 1)]:
            if not ok:
                raise ValueError(f"{path}: bad {key} {header.get(key)!r}")
        strings = lambda values: type(values) is list and all(type(v) is str for v in values)
        for key, ok, kind in [
            ("words", strings(words), "strings"), ("unknown", strings(unknown), "strings"),
            ("counts", type(counts) is list and all(type(c) is int and c >= 0 for c in counts), "integers >= 0"),
        ]:
            if not ok:
                raise ValueError(f"{path}: {key} is not a list of {kind}")
        n, total = row_count(arrays, 0), row_count(arrays, 1)
        if arrays != [["lengths", [n]], ["ids", [total]]] or None in (n, total):
            raise ValueError(f"{path}: arrays {arrays!r} are not lengths and ids")
        return [("lengths", "<i8", (n,)), ("ids", "<i8", (total,))]

    header, (lengths, ids) = read_arrays(path, _CORPUS_MAGIC, _CORPUS_VERSION, layout)
    if lengths.min(initial=0) < 0 or lengths.max(initial=0) > len(ids) or lengths.sum() != len(ids):
        raise ValueError(f"{path}: sentence lengths are not counts summing to the {len(ids)} ids")
    try:
        vocab = Vocabulary(tuple(header["words"]), tuple(header["counts"]))
        return ProcessedCorpus(
            vocab, Sentences(lengths, ids), header["order"], header["stemming"], header["prune_threshold"],
            tuple(header["unknown"]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
