"""Corpus ingestion and preprocessing.

Raw one-sentence-per-line author files are tokenized, optionally stemmed,
frequency-pruned into a per-author vocabulary, encoded to integer ids with
sentence-boundary padding, and split into train/validation/test parts.
Everything downstream (both language model families) consumes the encoded
form produced here.

The vocabulary and encoded corpus files are read only in the one layout
``save_vocabulary`` and ``save_processed`` write.  In both, ids are read
only by ``parse_ids`` (ASCII digits, single spaces), many rows at once by
``parse_id_rows``, and header integers by ``header_int``.
"""

from __future__ import annotations

import contextlib
import string
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import porter
from .files import write_file
from .prng import stream

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"
START_ID, END_ID, UNK_ID = 0, 1, 2
_RESERVED = (SENTENCE_START, SENTENCE_END, UNKNOWN)

_VOCAB_MAGIC = "authorlm-vocab 1"
_CORPUS_MAGIC = "authorlm-corpus 1"


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


@dataclass(frozen=True)
class ProcessedCorpus:
    """Encoded sentences plus the pipeline parameters that produced them.

    Each sentence is a tuple of ids: order-1 start paddings, the content
    ids (unknowns already substituted), and one end id.
    """

    vocabulary: Vocabulary
    sentences: tuple[tuple[int, ...], ...]
    order: int
    stemming: bool
    prune_threshold: float

    def __post_init__(self):
        _, ids = flatten_padded(self.sentences, self.order)
        if len(ids) and not (ids.min() >= 0 and ids.max() < self.vocabulary.size):
            raise ValueError("sentence id outside the vocabulary")

    def __len__(self) -> int:
        return len(self.sentences)

    def content_tokens(self, index: int) -> list[str]:
        """Decoded sentence without the boundary padding."""
        s = self.sentences[index]
        return self.vocabulary.decode(s[self.order - 1 : -1])


def _flatten(sentences: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each sentence's length, and all their ids concatenated (int64)."""
    sentences = list(sentences)
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ids = np.fromiter(chain.from_iterable(sentences), dtype=np.int64, count=int(lengths.sum()))
    return lengths, ids


def flatten_padded(sentences: Iterable[Sequence[int]], order: int) -> tuple[np.ndarray, np.ndarray]:
    """``_flatten``, refusing any sentence that is not order-1 start ids,
    its content and one end id."""
    if order < 1:
        raise ValueError("order must be >= 1")
    lengths, ids = _flatten(sentences)
    firsts = np.cumsum(lengths) - lengths
    if (
        (lengths < order).any()
        or (ids[firsts + lengths - 1] != END_ID).any()
        or any((ids[firsts + j] != START_ID).any() for j in range(order - 1))
    ):
        raise ValueError("sentence not padded for the stated order")
    return lengths, ids


def encode_sentence(tokens: Sequence[str], vocab: Vocabulary, order: int) -> tuple[int, ...]:
    if order < 2:
        raise ValueError("order must be >= 2")
    # the index's own get, with the unknown id as its default: no Python
    # call per token
    ids = tuple(map(vocab._index.get, tokens, repeat(UNK_ID)))
    return (START_ID,) * (order - 1) + ids + (END_ID,)


def encode(
    token_sentences: Sequence[Sequence[str]],
    vocab: Vocabulary,
    order: int,
    stemming: bool = True,
    prune_threshold: float = 0.0,
) -> ProcessedCorpus:
    """Encode preprocessed token sentences against a vocabulary."""
    sentences = tuple(encode_sentence(s, vocab, order) for s in token_sentences)
    return ProcessedCorpus(
        vocabulary=vocab,
        sentences=sentences,
        order=order,
        stemming=stemming,
        prune_threshold=prune_threshold,
    )


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
    lengths, ids = _flatten(sentences)
    counts = np.maximum(lengths - width, 0)
    m = int(counts.sum())
    if m == 0:
        return Samples(
            contexts=np.empty((0, width), dtype=np.int64),
            targets=np.empty(0, dtype=np.int64),
        )
    # window j, the r-th of its sentence, starts r ids after that sentence's
    # first id; in the concatenation that is j plus a per-sentence shift
    shift = (np.cumsum(lengths) - lengths) - (np.cumsum(counts) - counts)
    starts = np.arange(m) + np.repeat(shift, counts)
    return Samples(
        contexts=sliding_window_view(ids, width)[starts],
        targets=ids[starts + width],
    )


def extract_samples(
    processed: ProcessedCorpus, indices: Sequence[int] | None = None
) -> Samples:
    """Samples for the given sentence indices (all, if None)."""
    if indices is None:
        indices = range(len(processed.sentences))
    return samples_from_sentences(
        (processed.sentences[i] for i in indices), processed.order
    )


def top_k_coverage(processed: ProcessedCorpus, ks: Sequence[int]) -> dict[int, float]:
    """Share of encoded content tokens covered by the k most frequent ids.

    Boundary paddings are excluded; the unknown token competes like any
    other vocabulary entry, so k = vocabulary size always gives 1.0.
    """
    counts = Counter()
    for sent in processed.sentences:
        counts.update(sent[processed.order - 1 : -1])
    total = sum(counts.values())
    ranked = sorted(counts.values(), reverse=True)
    out = {}
    for k in ks:
        out[k] = sum(ranked[:k]) / total if total else 0.0
    return out


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write the word<TAB>id<TAB>count table with a small header."""
    lines = [f"# {_VOCAB_MAGIC}", f"# size {vocab.size}"]
    lines += [f"{w}\t{i}\t{c}" for i, (w, c) in enumerate(zip(vocab.words, vocab.counts))]
    write_file(path, "\n".join(lines) + "\n")


def _read_lines(path: str | Path, magic: str) -> list[str]:
    """The lines of a file that starts with ``# <magic>`` and ends each line in ``\\n``."""
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    if lines[0] != f"# {magic}":
        raise ValueError(f"{path}: expected header {magic!r} on line 1")
    if lines.pop():
        raise ValueError(f"{path}:{len(lines) + 1}: last line does not end in a newline")
    return lines


def header_int(line: str, prefix: str, least: int) -> int | None:
    """n when the line is exactly ``prefix`` + str(n) for an n >= ``least``."""
    digits = line.removeprefix(prefix) if line.startswith(prefix) else ""
    ok = digits.isascii() and digits.isdigit() and digits == str(int(digits))
    return int(digits) if ok and int(digits) >= least else None


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a table in the one layout ``save_vocabulary`` writes: the format
    header, ``# size N``, then exactly N ``word<TAB>i<TAB>count`` rows, i
    the row index and count an integer >= 0 (``header_int`` digits)."""
    lines = _read_lines(path, _VOCAB_MAGIC)
    first = 2 if lines[1:2] and lines[1].startswith("#") else 1  # else line 2 is a row
    words, counts = [], []
    for lineno, line in enumerate(lines[first:], first + 1):
        fields = line.split("\t")
        count = header_int(fields[2], "", 0) if len(fields) == 3 else None
        if count is None or fields[1] != str(len(words)):
            raise ValueError(f"{path}:{lineno}: expected word<TAB>{len(words)}<TAB>count, got {line!r}")
        words.append(fields[0])
        counts.append(count)
    if first == 1 or header_int(lines[1], "# size ", 0) != len(words):
        raise ValueError(f"{path}:2: expected '# size {len(words)}' for {len(words)} rows")
    return Vocabulary(words=tuple(words), counts=tuple(counts))


def save_processed(processed: ProcessedCorpus, path: str | Path) -> None:
    """Write encoded sentences (one per line, space-separated ids)."""
    lines = [
        f"# {_CORPUS_MAGIC}",
        f"# order {processed.order}",
        f"# stemming {int(processed.stemming)}",
        f"# prune_threshold {processed.prune_threshold!r}",
    ]
    names = [str(i) for i in range(processed.vocabulary.size)]  # each id's text, made once
    lines += [" ".join([names[i] for i in sent]) for sent in processed.sentences]
    write_file(path, "\n".join(lines) + "\n")


def parse_ids(text: str) -> np.ndarray | None:
    """The ids of ``text`` as int64, in one numpy parse, or None unless the
    text is runs of ASCII digits separated by single spaces.  On such text
    numpy reads every id as ``int()`` does; a number beyond int64 is read
    as the int64 maximum."""
    if not text.isascii() or text.encode().translate(None, b"0123456789 ") or "  " in f" {text} ":
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ")


def parse_id_rows(rows: Sequence[str], vocab_size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's length and all the rows' ids, as ``_flatten`` gives them,
    from one ``parse_ids`` call; None unless every row is ids in [0, V).
    Each row is followed by the marker V, which no valid id equals, so the
    markers are exactly the ids >= V when there is one per row."""
    if not len(rows):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ids = parse_ids(f" {vocab_size} ".join(rows) + f" {vocab_size}")
    if ids is None:
        return None
    markers = ids >= vocab_size
    if markers.sum() != len(rows):
        return None
    return np.diff(np.flatnonzero(markers), prepend=-1) - 1, ids[~markers]


def _sentence_error(lines: list[str], vocab_size: int, order: int) -> tuple[int, str]:
    """Offset and message of the first sentence line ``load_processed``
    refuses, keeping no sentence; a minus sign and digits are an id."""
    for j, line in enumerate(lines):
        tokens = line.split(" ")
        ids = parse_ids(" ".join(t.removeprefix("-") for t in tokens))
        if ids is None or len(ids) != len(tokens):
            return j, "malformed sentence line"
        outside = [t for t, i in zip(tokens, ids.tolist()) if t[0] == "-" or i >= vocab_size]
        if outside:
            return j, f"id {outside[0]} outside the vocabulary of {vocab_size}"
        if len(ids) < order or ids[-1] != END_ID or (ids[: order - 1] != START_ID).any():
            return j, "sentence not padded for the stated order"
    raise AssertionError("every sentence line is valid")


def load_processed(path: str | Path, vocab: Vocabulary) -> ProcessedCorpus:
    """Read an encoded corpus in the one layout ``save_processed`` writes:
    the format header, ``# order N`` (N >= 2), ``# stemming 0|1``,
    ``# prune_threshold`` and a float in [0, 1], then one sentence per
    line: ids in [0, V) padded for the order, parsed in one call.  A
    refused body is scanned again only to name the first line that differs.
    """
    lines = _read_lines(path, _CORPUS_MAGIC)
    head = (lines[1:4] + [""] * 3)[:3]  # a missing header line reads as ""
    order = header_int(head[0], "# order ", 2)
    stemming = header_int(head[1], "# stemming ", 0)
    threshold, prefix = float("nan"), "# prune_threshold "
    if head[2].startswith(prefix):
        with contextlib.suppress(ValueError):
            threshold = float(head[2].removeprefix(prefix))
    for lineno, ok in enumerate((order is not None, stemming in (0, 1), 0 <= threshold <= 1), 2):
        if not ok:
            raise ValueError(f"{path}:{lineno}: bad header line {head[lineno - 2]!r}")
    body = lines[4:]
    parsed = parse_id_rows(body, vocab.size)
    if parsed is not None:
        flat, ends = parsed[1].tolist(), np.cumsum(parsed[0]).tolist()
        sentences = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
        try:
            return ProcessedCorpus(vocab, sentences, order, bool(stemming), threshold)
        except ValueError:  # a sentence not padded for the order
            pass
    j, message = _sentence_error(body, vocab.size, order)
    raise ValueError(f"{path}:{5 + j}: {message}")
