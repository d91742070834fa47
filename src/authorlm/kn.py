"""Interpolated Kneser-Ney n-gram language model.

One absolute discount per order.  The top order discounts raw window
counts; every lower order works on continuation counts (how many distinct
words can precede a sequence), and the recursion bottoms out in the
uniform distribution over the vocabulary, which keeps every probability
strictly positive and every context's distribution summing to one.  The
discounts are always estimated from the counts (``estimate_discounts``).

Counting flattens the sentences once, takes each length's windows from
that one id array, and collapses them into the distinct id rows, in
lexicographic order, and their counts: the rows are packed into 1-D keys
(base max id + 1) and ranked with one sort.  A continuation table is the
same collapse over the suffixes of the distinct rows one order up.

In memory a model is a dense unigram log10 array plus, per order, sorted
packed tables (``_Table``): the id tuple (w1, ..., wk) is stored as the
base-V number w1*V**(k-1) + ... + wk next to its log10 probability or
log10 back-off weight.  For tuples of one length, key order is
lexicographic id order, the order the text format lists entries in and
the order count rows come in, so packing count rows needs no sort.  Keys
are int64 when V**order < 2**63 and exact Python ints (object arrays)
otherwise, so the choice depends only on the model's shape.  Every query
(single probabilities, batches, whole distributions, and the lower-order
terms ``build_model`` interpolates with) goes through one vectorized
back-off walk, ``KnModel._walk``.

Float rule: counts, totals, discounts, the interpolation sum and the final
``* ln 10`` are exact IEEE operations and run vectorized; the
transcendentals of the higher orders (``math.log10`` of each probability
and weight, ``10.0 ** x`` of each lower-order term) stay per-element Python
scalars, because numpy's vectorized log10 and power can differ from them in
the last bit and saved model files must not change.  The unigram level has
always used ``np.log10``.

The text serialization holds exactly the stored tables, so a round-trip
through a file reproduces query results bit for bit.  ``save_model``
builds each section as whole columns (probability, ids, back-off) and
joins them once; it keeps one ``repr`` per float, the shortest string that
reads back to the same double, so the bytes of a saved model do not
depend on how it is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .files import write_file
from .textproc import flatten_padded, parse_ids

_KN_MAGIC = "authorlm-kn 1"
_NO_PROB = "na"  # entry kept only for its back-off weight
_LN10 = math.log(10.0)

Gram = tuple[int, ...]


class KnParseError(ValueError):
    """Malformed model file; carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


def _key_dtype(vocab_size: int, order: int):
    """int64 while every key of the model fits, exact Python ints beyond."""
    return np.int64 if vocab_size**order < 2**63 else object


def _pack(ids: np.ndarray, base: int, dtype) -> np.ndarray:
    """Keys of the rows of an (n, k>=1) id array, read as base-``base`` numbers."""
    keys = ids[:, 0].astype(dtype)
    for j in range(1, ids.shape[1]):
        keys = keys * base + ids[:, j]
    return keys


def _unpack(keys: np.ndarray, k: int, base: int) -> np.ndarray:
    ids = np.empty((len(keys), k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        ids[:, j] = keys % base
        keys = keys // base
    return ids


class _Table:
    """One order's entries: sorted packed keys and their log10 values.

    Supports ``len(table)`` and ``gram in table`` for id tuples.
    """

    __slots__ = ("order", "base", "keys", "values")

    def __init__(self, order: int, base: int, keys: np.ndarray, values: np.ndarray):
        self.order, self.base, self.keys, self.values = order, base, keys, values

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, gram) -> bool:
        ids = np.asarray(gram, dtype=np.int64).reshape(1, -1)
        if ids.shape[1] != self.order or ids.min() < 0 or ids.max() >= self.base:
            return False
        return bool(self.find(_pack(ids, self.base, self.keys.dtype))[0][0])

    def find(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hit mask over the packed query keys, and the hits' values."""
        if not len(self.keys):
            return np.zeros(len(query), dtype=bool), self.values[:0]
        pos = np.searchsorted(self.keys, query)
        np.minimum(pos, len(self.keys) - 1, out=pos)
        hit = self.keys[pos] == query
        return hit, self.values[pos[hit]]


def _table(order: int, base: int, dtype, chunks: list) -> _Table:
    """Table from (ids, values) chunks in file order; a repeated id tuple
    keeps its last value."""
    if not chunks:
        return _Table(order, base, np.empty(0, dtype=dtype), np.empty(0))
    keys = _pack(np.concatenate([ids for ids, _ in chunks]), base, dtype)
    values = np.concatenate([v for _, v in chunks])
    if not (keys[1:] > keys[:-1]).all():
        ranked = np.argsort(keys, kind="stable")
        keys, values = keys[ranked], values[ranked]
        last = np.append(keys[1:] != keys[:-1], True)
        keys, values = keys[last], values[last]
    return _Table(order, base, keys, values)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return np.flatnonzero(first)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, k>=1) id array in lexicographic order,
    and how often each occurs.

    Rows read as base-(max id + 1) numbers sort like the rows themselves,
    so one sort of the packed keys and one adjacent-key compare find the
    runs, and each run's key unpacks back into its row.
    """
    base = int(rows.max(initial=0)) + 1
    keys = np.sort(_pack(rows, base, _key_dtype(base, rows.shape[1])))
    starts = _run_starts(keys)
    return _unpack(keys[starts], rows.shape[1], base), np.diff(np.append(starts, len(keys)))


def _as_dict(rows: np.ndarray, counts: np.ndarray) -> dict[Gram, int]:
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))


@dataclass(frozen=True)
class CountTables:
    """Raw window counts for orders 1..N plus derived continuation counts.

    ``raw[k-1]`` is a (rows, counts) pair: the distinct length-k windows as
    an (n, k) id array in lexicographic order, and each one's occurrence
    count.  ``continuation[k-1]`` (k < N) has the same layout and counts,
    per length-k sequence, the distinct ids that appear immediately before
    it.
    """

    order: int
    raw: tuple[tuple[np.ndarray, np.ndarray], ...]
    continuation: tuple[tuple[np.ndarray, np.ndarray], ...]

    def raw_counts(self, k: int) -> dict[Gram, int]:
        return _as_dict(*self.raw[k - 1])

    def continuation_counts(self, k: int) -> dict[Gram, int]:
        return _as_dict(*self.continuation[k - 1])

    def discounted(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, counts) discounted at order k: raw at the top, continuation below."""
        return self.raw[k - 1] if k == self.order else self.continuation[k - 1]


def count(sentences: Iterable[Gram], order: int) -> CountTables:
    """Sliding-window counts over padded sentences.

    Sentences must carry order-1 start paddings and one end marker, the
    form the text pipeline produces; order-N windows then line up one to
    one with next-word prediction events, the samples
    ``textproc.samples_from_sentences`` enumerates.  Every window of
    every length that fits inside a sentence counts, paddings included.
    """
    lengths, ids = flatten_padded(sentences, order)
    # ids from each position to the end of its sentence, that position included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))
    raw = []
    for k in range(1, order + 1):
        starts = np.flatnonzero(room >= k)
        raw.append(_distinct_rows(ids[starts[:, None] + np.arange(k)]))
    # each distinct (k+1)-gram adds one preceding id to its length-k suffix
    continuation = [_distinct_rows(raw[k][0][:, 1:]) for k in range(1, order)]
    return CountTables(order=order, raw=tuple(raw), continuation=tuple(continuation))


def estimate_discounts(tables: CountTables) -> tuple[float, ...]:
    """Absolute discount per order: n1 / (n1 + 2*n2) over the counts that
    the order actually discounts, clamped to [0.05, 0.95] (0.5 when the
    count-of-counts are empty)."""
    discounts = []
    for k in range(1, tables.order + 1):
        _, counts = tables.discounted(k)
        n1, n2 = int((counts == 1).sum()), int((counts == 2).sum())
        if n1 + 2 * n2 == 0:
            d = 0.5
        else:
            d = n1 / (n1 + 2 * n2)
        discounts.append(min(0.95, max(0.05, d)))
    return tuple(discounts)


@dataclass(frozen=True)
class KnModel:
    """Queryable model: dense unigram log10 probabilities, a sorted table of
    log10 probabilities per higher order, and a sorted table of log10
    back-off weights per context length.
    """

    order: int
    vocab_size: int
    discounts: tuple[float, ...]
    unigram_log10: np.ndarray
    probs: Mapping[int, _Table]  # order k (2..N) -> gram -> log10 p
    bows: Mapping[int, _Table]   # context len (1..N-1) -> log10 weight

    def _walk(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """log10 probabilities of (n, L) contexts and (n,) targets, L < order.

        Each row backs off from its longest context suffix: a stored
        sequence ends the row's walk, a stored context adds its back-off
        weight, an unknown one adds nothing, and rows that never hit end on
        the unigram.  Per row the additions come in the same order as in a
        scalar walk, so every result is bit-identical to it.  The walk for
        L reads only the tables of orders up to L + 1.
        """
        n, width = contexts.shape
        base, dtype = self.vocab_size, _key_dtype(self.vocab_size, self.order)
        out = np.empty(n)
        acc = np.zeros(n)
        rows = np.arange(n)
        for k in range(width, 0, -1):
            ctx = _pack(contexts[rows, width - k :], base, dtype)
            hit, log10_p = self.probs[k + 1].find(ctx * base + targets[rows])
            out[rows[hit]] = acc[rows[hit]] + log10_p
            rows, ctx = rows[~hit], ctx[~hit]
            found, bow = self.bows[k].find(ctx)
            acc[rows[found]] += bow
        out[rows] = acc[rows] + self.unigram_log10[targets[rows]]
        return out

    def _log10(self, contexts, targets) -> np.ndarray:
        """Range-checked walk; contexts longer than order-1 keep their tail."""
        targets = np.asarray(targets, dtype=np.int64)
        if not len(targets):
            return np.empty(0)
        contexts = np.asarray(contexts, dtype=np.int64).reshape(len(targets), -1)
        for name, ids in (("target", targets), ("context", contexts)):
            bad = (ids < 0) | (ids >= self.vocab_size)
            if bad.any():
                raise ValueError(
                    f"{name} id {ids[bad][0]} out of range for V={self.vocab_size}"
                )
        keep = min(contexts.shape[1], self.order - 1)
        return self._walk(contexts[:, contexts.shape[1] - keep :], targets)

    def log10_prob(self, context: Sequence[int], target: int) -> float:
        return float(self._log10([list(context)], [target])[0])

    def log_prob(self, context: Sequence[int], target: int) -> float:
        """Natural log probability of the target after the context."""
        return self.log10_prob(context, target) * _LN10

    def log_probs(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Natural log probabilities of a batch: row i of contexts, targets[i]."""
        return self._log10(contexts, targets) * _LN10

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Probabilities of every vocabulary id after the context."""
        contexts = np.tile(np.asarray(context, dtype=np.int64), (self.vocab_size, 1))
        log10_p = self._log10(contexts, np.arange(self.vocab_size))
        return np.array([10.0**x for x in log10_p.tolist()])


def build_model(tables: CountTables, vocab_size: int) -> KnModel:
    """Turn count tables into the interpolated probability representation.

    Discounts come from ``estimate_discounts``.  Working from the unigrams
    up, each order's seen sequences get max(count - D, 0) / total plus the
    context's back-off weight times the lower-order probability; the weight
    is D * distinct / total, which is exactly the mass removed by
    discounting.  An order is computed in one batch: its lower-order terms
    come from the walk over the finished lower orders.
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    order = tables.order
    discounts = estimate_discounts(tables)

    # unigram level: interpolate with the uniform base for every id
    uniform = 1.0 / vocab_size
    unigram = np.full(vocab_size, uniform)
    ids, counts = tables.discounted(1)
    total1 = int(counts.sum())
    if total1 > 0:
        d1 = discounts[0]
        lam1 = d1 * len(counts) / total1
        unigram = np.full(vocab_size, lam1 * uniform)
        unigram[ids[:, 0]] += np.maximum(counts - d1, 0.0) / total1

    model = KnModel(
        order=order,
        vocab_size=vocab_size,
        discounts=discounts,
        unigram_log10=np.log10(unigram),
        probs={},
        bows={},
    )
    dtype = _key_dtype(vocab_size, order)
    for k in range(2, order + 1):
        grams, counts = tables.discounted(k)
        keys = _pack(grams, vocab_size, dtype)
        # sorted grams group by context: one run per context
        ctx = keys // vocab_size
        starts = _run_starts(ctx)
        distinct = np.diff(np.append(starts, len(keys)))
        totals = np.add.reduceat(counts, starts)
        dk = discounts[k - 1]
        lam = dk * distinct / totals
        model.bows[k - 1] = _Table(
            k - 1, vocab_size, ctx[starts], np.array([math.log10(x) for x in lam.tolist()])
        )
        lower = model._walk(grams[:, 1:-1], grams[:, -1])
        lower = np.array([10.0**x for x in lower.tolist()])
        p = (
            np.maximum(counts - dk, 0.0) / np.repeat(totals, distinct)
            + np.repeat(lam, distinct) * lower
        )
        model.probs[k] = _Table(
            k, vocab_size, keys, np.array([math.log10(x) for x in p.tolist()])
        )
    return model


def train_model(
    sentences: Iterable[Gram], order: int, vocab_size: int
) -> KnModel:
    """Count, estimate discounts, and build in one call."""
    tables = count(sentences, order)
    return build_model(tables, vocab_size)


def save_model(model: KnModel, path: str | Path) -> None:
    """Write the ARPA-style text form.

    Layout: comment headers (format version, order, vocab size, discounts),
    a \\data\\ section with per-order entry counts, then one section per
    order holding ``log10prob<TAB>ids<TAB>log10bow`` lines.  The bow field
    appears only on entries that are back-off contexts; entries kept only
    for their bow carry ``na`` in the probability field.  Floats use
    ``repr`` so parsing restores them exactly.

    A section is built as columns over the sorted union of its probability
    and back-off keys: the formatted floats land by ``searchsorted``
    position, and each id column is gathered from a table of one string
    per id, so a line is the sum of k + 2 string columns.
    """
    V = model.vocab_size
    dtype = _key_dtype(V, model.order)
    no_bows = _Table(model.order, V, np.empty(0, dtype=dtype), np.empty(0))
    first_id = np.array([f"\t{i}" for i in range(V)], dtype=object)
    next_id = np.array([f" {i}" for i in range(V)], dtype=object)
    sections = []
    for k in range(1, model.order + 1):
        if k == 1:
            probs = _Table(1, V, np.arange(V).astype(dtype), model.unigram_log10)
        else:
            probs = model.probs[k]
        bows = model.bows.get(k, no_bows)
        keys = np.sort(np.concatenate([probs.keys, bows.keys]))
        keys = keys[_run_starts(keys)]
        ids = _unpack(keys, k, V)
        entries = np.full(len(keys), _NO_PROB, dtype=object)
        entries[np.searchsorted(keys, probs.keys)] = list(map(repr, probs.values.tolist()))
        entries += first_id[ids[:, 0]]
        for j in range(1, k):
            entries += next_id[ids[:, j]]
        bow = np.full(len(keys), "", dtype=object)
        bow[np.searchsorted(keys, bows.keys)] = [f"\t{x!r}" for x in bows.values.tolist()]
        sections.append((entries + bow).tolist())

    lines = [
        f"# {_KN_MAGIC}",
        f"# order {model.order}",
        f"# vocab {model.vocab_size}",
        "# discounts " + " ".join(repr(d) for d in model.discounts),
        "\\data\\",
    ]
    lines += [f"ngram {k}={len(entries)}" for k, entries in enumerate(sections, 1)]
    for k, entries in enumerate(sections, 1):
        lines.append(f"\\{k}-grams:")
        lines += entries
    lines.append("\\end\\")
    write_file(path, "\n".join(lines) + "\n")


def _bulk_ids(fields: np.ndarray, k: int, vocab_size: int) -> np.ndarray | None:
    """(n, k) ids from n id-list fields in one numpy parse, or None unless
    every field holds exactly k in-range ids that int() reads the same way.

    Each field is followed by the out-of-range marker V.  With n * (k + 1)
    numbers in all, a field with more or fewer than k of them moves some
    marker into an id column, where it fails the range test like any id of
    V or above.
    """
    ids = parse_ids(f" {vocab_size} ".join(fields) + f" {vocab_size}")
    if ids is None or len(ids) != len(fields) * (k + 1):
        return None
    ids = ids.reshape(len(fields), k + 1)[:, :k]
    return ids if ids.max() < vocab_size else None


def _bulk_floats(fields: np.ndarray) -> np.ndarray | None:
    """float() of every field of an object array, or None if one fails."""
    try:
        return fields.astype(np.float64)
    except (ValueError, TypeError):
        return None


class _Reader:
    """State machine over the lines of a model file.

    ``line`` handles any single line and owns every error message.
    ``block`` takes a run of lines that should all be entries of the current
    section and parses them in bulk; it changes nothing unless every line
    is a well-formed entry, so the caller can re-scan a refused block with
    ``line`` to get the same error and line number as a line-by-line read.
    """

    def __init__(self, path):
        self.path = path
        self.order = self.vocab_size = None
        self.discounts: tuple[float, ...] = ()
        self.expected: dict[int, int] = {}
        self.seen_magic = self.seen_end = False
        self.section = None
        self.section_rows = 0
        # per section, (ids, values) chunks in file order; None before \data\
        self.probs: dict[int, list] | None = None
        self.bows: dict[int, list] | None = None

    def error(self, lineno: int, message: str) -> KnParseError:
        return KnParseError(self.path, lineno, message)

    def pending(self) -> int:
        """Entries the current section still expects (0 outside a section)."""
        if self.section is None or self.probs is None:
            return 0
        return max(self.expected.get(self.section, 0) - self.section_rows, 0)

    def close_section(self, lineno: int) -> None:
        if self.section is not None and self.section_rows != self.expected.get(self.section, 0):
            raise self.error(
                lineno,
                f"section {self.section} has {self.section_rows} entries, header said "
                f"{self.expected.get(self.section, 0)}",
            )

    def header(self, lineno: int, line: str) -> None:
        fields = line[1:].split()
        if not self.seen_magic:
            if line[1:].strip() != _KN_MAGIC:
                raise self.error(lineno, f"expected header {_KN_MAGIC!r}")
            self.seen_magic = True
            return
        name = {"order": "order", "vocab": "vocab_size"}.get(fields[0]) if fields else None
        try:
            if fields[:1] == ["discounts"]:
                self.discounts = tuple(float(x) for x in fields[1:])
            value = int(fields[1]) if name else None
        except (ValueError, IndexError):
            raise self.error(lineno, f"bad header line {line!r}")
        if name is None:
            return
        if self.probs is not None and value != getattr(self, name):
            # the tables were laid out for the values seen at \data\
            raise self.error(lineno, "order/vocab headers must precede \\data\\")
        setattr(self, name, value)

    def line(self, lineno: int, line: str) -> None:
        if not line.strip():
            return
        if line.startswith("#"):
            self.header(lineno, line)
            return
        if not self.seen_magic:
            raise self.error(lineno, "missing format header")
        if line == "\\data\\":
            if self.order is None or self.vocab_size is None:
                raise self.error(lineno, "order/vocab headers must precede \\data\\")
            self.probs = {k: [] for k in range(1, self.order + 1)}
            self.bows = {k: [] for k in range(1, self.order)}
            return
        if line.startswith("ngram "):
            try:
                k, n = line[len("ngram ") :].split("=")
                self.expected[int(k)] = int(n)
            except ValueError:
                raise self.error(lineno, f"bad ngram count line {line!r}")
            return
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                k = int(line[1:].split("-")[0])
            except ValueError:
                k = 0
            if self.order is None or not 1 <= k <= self.order:
                raise self.error(lineno, f"unexpected section {line!r}")
            self.close_section(lineno)
            self.section, self.section_rows = k, 0
            return
        if line == "\\end\\":
            self.close_section(lineno)
            self.seen_end = True
            self.section = None
            return
        if self.section is None:
            raise self.error(lineno, f"unexpected line {line!r}")
        self.entry(lineno, line)

    def entry(self, lineno: int, line: str) -> None:
        section = self.section
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise self.error(lineno, "expected 2 or 3 tab-separated fields")
        try:
            gram = tuple(int(t) for t in fields[1].split())
        except ValueError:
            raise self.error(lineno, f"bad id list {fields[1]!r}")
        if len(gram) != section:
            raise self.error(lineno, f"id list length != section order {section}")
        if self.probs is None:
            raise self.error(lineno, "entries must follow \\data\\")
        if any(not 0 <= g < self.vocab_size for g in gram):
            raise self.error(lineno, "word id out of range")
        ids = np.array([gram], dtype=np.int64)
        if fields[0] != _NO_PROB:
            try:
                lp = float(fields[0])
            except ValueError:
                raise self.error(lineno, f"bad probability {fields[0]!r}")
            self.probs[section].append((ids, np.array([lp])))
        elif section == 1:
            raise self.error(lineno, "unigram entries need a probability")
        if len(fields) == 3:
            if section >= self.order:
                raise self.error(lineno, "top-order entries cannot carry a bow")
            try:
                bow = float(fields[2])
            except ValueError:
                raise self.error(lineno, f"bad back-off weight {fields[2]!r}")
            self.bows[section].append((ids, np.array([bow])))
        self.section_rows += 1

    def block(self, lines: list[str]) -> bool:
        """Bulk-parse ``lines`` as entries of the current section."""
        k = self.section
        text = "\n".join(lines)
        fields = np.array(text.replace("\n", "\t").split("\t"), dtype=object)
        # the tab and newline bytes, in order, give each line's field count
        raw = np.frombuffer(text.encode() + b"\n", dtype=np.uint8)
        line_ends = np.flatnonzero(raw[(raw == 9) | (raw == 10)] == 10)
        widths = np.diff(np.append(-1, line_ends))
        starts = line_ends - widths + 1  # index of each line's first field
        if not ((widths == 2) | (widths == 3)).all():
            return False
        ids = _bulk_ids(fields[starts + 1], k, self.vocab_size)
        if ids is None:
            return False

        log10_p = fields[starts]
        has_p = log10_p != _NO_PROB
        if k == 1 and not has_p.all():
            return False
        probs = _bulk_floats(log10_p[has_p])
        if probs is None:
            return False

        has_bow = widths == 3
        bows = None
        if has_bow.any():
            if k >= self.order:
                return False
            bows = _bulk_floats(fields[starts[has_bow] + 2])
            if bows is None:
                return False

        self.probs[k].append((ids[has_p], probs))
        if bows is not None:
            self.bows[k].append((ids[has_bow], bows))
        self.section_rows += len(lines)
        return True

    def model(self, lineno: int) -> KnModel:
        if not self.seen_end:
            raise self.error(lineno or 1, "file ends before \\end\\")
        if self.probs is None:
            raise self.error(lineno or 1, "missing \\data\\ section")
        order, V = self.order, self.vocab_size
        dtype = _key_dtype(V, order)
        unigrams = _table(1, V, dtype, self.probs[1])
        unigram_log10 = np.full(V, np.nan)
        unigram_log10[unigrams.keys.astype(np.int64)] = unigrams.values
        if np.isnan(unigram_log10).any():
            missing = int(np.isnan(unigram_log10).argmax())
            raise self.error(lineno, f"unigram section misses id {missing}")
        discounts = self.discounts
        if len(discounts) != order:
            discounts = tuple(0.0 for _ in range(order))
        return KnModel(
            order=order,
            vocab_size=V,
            discounts=discounts,
            unigram_log10=unigram_log10,
            probs={k: _table(k, V, dtype, self.probs[k]) for k in range(2, order + 1)},
            bows={k: _table(k, V, dtype, self.bows[k]) for k in range(1, order)},
        )


def load_model(path: str | Path) -> KnModel:
    """Parse a model file written by save_model.

    Structural lines go one at a time.  The entry lines a section header
    announces are parsed as one block: one split of the block's text, one
    numpy parse of all ids, and ``float`` mapped over each float column.
    A block that is not all well-formed entries is re-read line by line,
    so errors name the same line and message either way.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    reader = _Reader(path)
    i = 0
    while i < len(lines):
        pending = reader.pending()
        if pending:
            block = lines[i : i + pending]
            if not reader.block(block):
                for lineno, line in enumerate(block, i + 1):
                    reader.line(lineno, line)
            i += len(block)
        else:
            reader.line(i + 1, lines[i])
            i += 1
    return reader.model(len(lines))
