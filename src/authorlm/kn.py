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
and weight, ``10.0 ** x`` of each lower-order term) stay Python scalar
calls, because numpy's vectorized log10 and power can differ from them in
the last bit and saved model files must not change.  Back-off weights come
from small integer counts and repeat, so their ``math.log10`` runs once per
distinct value (``_each_distinct``); probabilities are mostly distinct and
are converted one by one.  The unigram level has always used ``np.log10``.

The text serialization holds exactly the stored tables, so a round-trip
through a file reproduces query results bit for bit.  ``save_model``
builds each section as whole columns (probability, ids, back-off) and
joins them once; every float is written as its ``repr``, the shortest
string that reads back to the same double, and each distinct value is
formatted once, so the bytes of a saved model do not depend on how it is
written.  ``load_model`` reads that one layout and no other: fixed header
and section lines, exactly the announced number of entries per section,
strictly rising id tuples, so each section's packed keys are used as
parsed; each distinct back-off text is parsed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .files import write_file
from .textproc import flatten_padded, header_int, parse_id_rows, parse_ids

_KN_MAGIC = "authorlm-kn 1"
_NO_PROB = "na"  # entry kept only for its back-off weight
_LN10 = math.log(10.0)

Gram = tuple[int, ...]


class KnParseError(ValueError):
    """Malformed model file; the message names ``path:line``."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


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


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return np.flatnonzero(first)


def _each_distinct(convert, values: np.ndarray, dtype) -> np.ndarray:
    """``convert`` of every element of a float64 array, as a ``dtype`` array.

    ``convert`` runs once per distinct bit pattern (so -0.0 and 0.0 stay
    apart) and its results are gathered to every element, so each result is
    the one a call per element would give.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([convert(x) for x in distinct.view(np.float64).tolist()], dtype=dtype)[inverse]


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
            k - 1, vocab_size, ctx[starts], _each_distinct(math.log10, lam, np.float64)
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
    and back-off keys: the formatted floats, one ``repr`` per distinct value
    gathered to every entry, land by ``searchsorted`` position, and each id
    column is gathered from a table of one string per id, so a line is the
    sum of k + 2 string columns.  The bytes are those of one ``repr`` per
    entry.
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
        entries[np.searchsorted(keys, probs.keys)] = _each_distinct(repr, probs.values, object)
        entries += first_id[ids[:, 0]]
        for j in range(1, k):
            entries += next_id[ids[:, j]]
        bow = np.full(len(keys), "", dtype=object)
        bow[np.searchsorted(keys, bows.keys)] = _each_distinct("\t{!r}".format, bows.values, object)
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


def _bulk_floats(fields: np.ndarray) -> np.ndarray | None:
    """float() of every field of an object array, or None if one fails."""
    try:
        return fields.astype(np.float64)
    except (ValueError, TypeError):
        return None


def _distinct_floats(fields: np.ndarray) -> np.ndarray | None:
    """float() of every field of an object array of strings, parsed once
    per distinct text and gathered to every field, or None if one fails."""
    texts = fields.tolist()
    try:
        parsed = {text: float(text) for text in dict.fromkeys(texts)}
    except ValueError:
        return None
    return np.fromiter(map(parsed.__getitem__, texts), dtype=np.float64, count=len(texts))


def _parse_entries(
    lines: list[str], k: int, order: int, vocab_size: int
) -> tuple[_Table, _Table] | None:
    """The probability and back-off tables of section k's entry lines in one
    bulk parse, or None unless every line is a well-formed entry and the
    packed keys rise strictly.

    One split of the block's text gives the fields, one ``parse_id_rows``
    call all ids, ``float`` mapped over the probability column its values,
    and one ``float`` per distinct text the back-off weights, which repeat.
    """
    dtype = _key_dtype(vocab_size, order)
    if not lines:
        empty = _Table(k, vocab_size, np.empty(0, dtype=dtype), np.empty(0))
        return empty, empty
    text = "\n".join(lines)
    fields = np.array(text.replace("\n", "\t").split("\t"), dtype=object)
    # the tab and newline bytes, in order, give each line's field count
    raw = np.frombuffer(text.encode() + b"\n", dtype=np.uint8)
    line_ends = np.flatnonzero(raw[(raw == 9) | (raw == 10)] == 10)
    widths = np.diff(np.append(-1, line_ends))
    starts = line_ends - widths + 1  # index of each line's first field
    if not ((widths == 2) | (widths == 3)).all():
        return None
    parsed = parse_id_rows(fields[starts + 1], vocab_size)
    if parsed is None or (parsed[0] != k).any():
        return None
    keys = _pack(parsed[1].reshape(-1, k), vocab_size, dtype)
    if not (keys[1:] > keys[:-1]).all():
        return None
    log10_p = fields[starts]
    has_p = log10_p != _NO_PROB
    if k == 1 and not has_p.all():
        return None
    probs = _bulk_floats(log10_p[has_p])
    if probs is None or not ((-np.inf < probs) & (probs <= 0.0)).all():
        return None
    has_bow = widths == 3
    if k == order and has_bow.any():
        return None
    bows = _distinct_floats(fields[starts[has_bow] + 2])
    if bows is None or not np.isfinite(bows).all():
        return None
    return _Table(k, vocab_size, keys[has_p], probs), _Table(k, vocab_size, keys[has_bow], bows)


def _entry_error(lines: list[str], k: int, order: int, vocab_size: int, count: int):
    """Offset and message of the first line that ``_parse_entries`` refuses
    in the block of section k that its header said holds ``count`` lines.

    The checks are those of the bulk parse, one line at a time, and build
    no values.  A block that runs into the next section or the end of the
    file has fewer entries than its header said.
    """
    previous = None
    for j, line in enumerate(lines):
        if line.startswith("\\"):
            return j, f"section {k} has {j} entries, header said {count}"
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            return j, "expected 2 or 3 tab-separated fields"
        ids = parse_ids(fields[1])
        if ids is None:
            return j, f"bad id list {fields[1]!r}"
        if len(ids) != k:
            return j, f"id list length != section order {k}"
        if ids.max() >= vocab_size:
            return j, "word id out of range"
        gram = tuple(ids.tolist())
        if previous is not None and gram <= previous:
            return j, "id list does not rise above the previous entry's"
        previous = gram
        if fields[0] != _NO_PROB:
            try:
                lp = float(fields[0])
            except ValueError:
                return j, f"bad probability {fields[0]!r}"
            if not -math.inf < lp <= 0.0:  # NaN fails too
                return j, f"log10 probability {fields[0]!r} must be finite and <= 0"
        elif k == 1:
            return j, "unigram entries need a probability"
        if len(fields) == 3:
            if k == order:
                return j, "top-order entries cannot carry a bow"
            try:
                bow = float(fields[2])
            except ValueError:
                return j, f"bad back-off weight {fields[2]!r}"
            if not math.isfinite(bow):
                return j, f"back-off weight {fields[2]!r} must be finite"
    return len(lines), f"section {k} has {len(lines)} entries, header said {count}"


def load_model(path: str | Path) -> KnModel:
    """Parse a model file in the one layout ``save_model`` writes: the
    format header; ``# order N``, ``# vocab V``, ``# discounts`` and N
    values; ``\\data\\`` and ``ngram k=n`` for k = 1..N; per order k,
    ``\\k-grams:`` and exactly n entries, their id tuples rising strictly;
    ``\\end\\`` last, every line ending in a newline.  Errors name the file
    and the first line that differs.
    """
    lines = Path(path).read_bytes().decode("utf-8").split("\n")

    def line(i: int) -> str:
        if i >= len(lines):
            raise KnParseError(path, max(len(lines), 1), "file ends before \\end\\")
        return lines[i]

    def expect(i: int, want: str, value):
        """``value`` unless it is None, which refuses line i."""
        if value is None:
            raise KnParseError(path, i + 1, f"expected {want}, got {line(i)!r}")
        return value

    def exactly(i: int, want: str) -> None:
        expect(i, repr(want), line(i) == want or None)

    exactly(0, f"# {_KN_MAGIC}")
    if lines.pop():  # what follows the last newline
        raise KnParseError(path, len(lines) + 1, "last line does not end in a newline")
    order = expect(1, "'# order <N>'", header_int(line(1), "# order ", 1))
    V = expect(2, "'# vocab <V>'", header_int(line(2), "# vocab ", 1))
    fields = line(3).split(" ")
    try:
        discounts = tuple(map(float, fields[2:])) if fields[:2] == ["#", "discounts"] else ()
    except ValueError:
        discounts = ()
    expect(3, f"'# discounts' and {order} values", discounts if len(discounts) == order else None)
    exactly(4, "\\data\\")
    counts = [
        expect(4 + k, f"'ngram {k}=<count>'", header_int(line(4 + k), f"ngram {k}=", 0))
        for k in range(1, order + 1)
    ]
    i = 5 + order
    sections = []
    for k, count in enumerate(counts, 1):
        exactly(i, f"\\{k}-grams:")
        block = lines[i + 1 : i + 1 + count]
        parsed = _parse_entries(block, k, order, V) if len(block) == count else None
        if parsed is None:
            j, message = _entry_error(block, k, order, V, count)
            raise KnParseError(path, min(i + 1 + j, len(lines) - 1) + 1, message)
        sections.append(parsed)
        i += 1 + count
    exactly(i, "\\end\\")
    if i + 1 < len(lines):
        raise KnParseError(path, i + 2, f"unexpected line after \\end\\: {lines[i + 1]!r}")

    unigrams = sections[0][0]
    if len(unigrams) < V:  # the ids rise, so V of them can only be 0..V-1
        missing = next((j for j, u in enumerate(unigrams.keys.tolist()) if u != j), len(unigrams))
        raise KnParseError(path, 6 + order, f"unigram section misses id {missing}")
    return KnModel(
        order=order,
        vocab_size=V,
        discounts=discounts,
        unigram_log10=unigrams.values,
        probs={k: sections[k - 1][0] for k in range(2, order + 1)},
        bows={k: sections[k - 1][1] for k in range(1, order)},
    )
