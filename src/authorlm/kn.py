"""Interpolated Kneser-Ney n-gram language model.

One absolute discount per order.  The top order discounts raw window
counts; every lower order works on continuation counts (how many distinct
words can precede a sequence), and the recursion bottoms out in the
uniform distribution over the vocabulary, which keeps every probability
strictly positive and every context's distribution summing to one.  The
discounts are always estimated from the counts (``estimate_discounts``).

Counting takes each length's windows from the sentences' one id array
(``textproc.Sentences``) and collapses them into the distinct id rows, in
lexicographic order, and their counts: each row becomes one int64 key
that sorts like it (``textproc.row_keys``), and one sort of the keys finds
the runs.  A continuation table is the same collapse over the suffixes of
the distinct rows one order up.

In memory a model is a dense unigram log10 array plus, per order, a
sorted table (``_Table``) of int64 keys and their log10 probabilities or
back-off weights.  The k-gram (w1, ..., wk) has the key r * V + w1, where
r is the row of its suffix (w2, ..., wk) in the probability table one
order down (w2 itself at k = 2, and 0 for a one-id context).  Every stored
gram is a window of a padded sentence, so its suffix is a stored
continuation gram, and keys stay below (rows one order down) * V, which
fits int64 at any shape.  A key comes from a chain up the gram's
suffixes, each key found giving the next rank, and the row it names holds
the lower-order term ``build_model`` interpolates with.  Every query
(single probabilities, batches, whole distributions) goes through one
vectorized back-off walk, ``KnModel._walk``: a chain over the grams that
end in the target, and one over the context's suffixes, each of whose
keys is looked up in the back-off and probability tables of its length
at once.  A lookup (``_lookup``) binary-searches the distinct keys in
sorted order and gathers the positions back.

Float rule: counts, totals, discounts, the interpolation sum and the final
``* ln 10`` are exact IEEE operations and run vectorized; the
transcendentals of the higher orders (``math.log10`` of each probability
and weight, ``10.0 ** x`` of each lower-order term) stay Python scalar
calls, because numpy's vectorized log10 and power can differ from them in
the last bit and saved model files must not change.  Back-off weights come
from small integer counts and repeat, so their ``math.log10`` runs once per
distinct value (``_each_distinct``); probabilities are mostly distinct and
are converted one by one.  The unigram level has always used ``np.log10``.

A saved model is the ``files`` container holding exactly the stored
tables: the unigram log10 array, then each table's keys and log10 values,
as raw bytes, so a round-trip reproduces query results bit for bit and a
model's bytes depend only on the model.  ``load_model`` checks every
array, and that each key's suffix rank is a row one order down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .files import Layout, read_arrays, row_count, write_arrays
from .textproc import padded_sentences, row_keys

_KN_MAGIC = "authorlm-kn"
_KN_VERSION = 3
_LN10 = math.log(10.0)

Gram = tuple[int, ...]


@dataclass(frozen=True)
class _Table:
    """One order's entries: sorted int64 keys and their log10 values."""

    keys: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def _lookup(keys: np.ndarray, *tables: _Table) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per table, the hit mask over the keys and the hits' rows.

    The keys' distinct values are searched once, in sorted order, so that
    successive binary searches walk each table from one end to the other
    instead of jumping around it; the results are gathered back to the
    keys' order.
    """
    distinct, inverse = np.unique(keys, return_inverse=True)
    found = []
    for table in tables:
        pos = np.searchsorted(table.keys, distinct)
        hit = pos < len(table)
        hit[hit] = table.keys[pos[hit]] == distinct[hit]
        hit = hit[inverse]
        found.append((hit, pos[inverse[hit]]))
    return found


def _sorted(keys: np.ndarray, values: np.ndarray) -> _Table:
    """The table of distinct keys and their values, in key order."""
    order = np.argsort(keys)
    return _Table(keys[order], values[order])


def _each_distinct(convert, values: np.ndarray) -> np.ndarray:
    """``convert`` of every element of a float64 array, as a float64 array.

    ``convert`` runs once per distinct bit pattern and its results are
    gathered to every element, so each result is the one a call per
    element would give.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([convert(x) for x in distinct.view(np.float64).tolist()])[inverse]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, k>=1) id array in lexicographic order,
    and how often each occurs: one sort of the rows' keys and one
    adjacent-key compare find the runs."""
    keys = row_keys(rows, int(rows.max(initial=0)) + 1)
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return rows[order[starts]], np.diff(np.append(starts, len(keys)))


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
    s = padded_sentences(sentences, order)
    raw = [_distinct_rows(s.ids[s.windows(k)[:, None] + np.arange(k)]) for k in range(1, order + 1)]
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
        the unigram.  Stored grams are closed under suffixes, so a row's
        walk ends at the longest stored gram that ends in its target, which
        a chain up from the target finds; a chain over the context's
        suffixes finds the weights of those at least as long.  Per row the
        additions come in the same order as in a scalar walk (the weights,
        longest context first, then the probability), so every result is
        bit-identical to it.  The walk for L reads only the tables of
        orders up to L + 1.
        """
        n, width = contexts.shape
        V = self.vocab_size
        level, log10_p = np.ones(n, dtype=np.int64), self.unigram_log10[targets]
        rows, rank = np.arange(n), targets
        for k in range(2, width + 2):
            [(hit, rank)] = _lookup(rank * V + contexts[rows, width + 1 - k], self.probs[k])
            rows = rows[hit]
            level[rows], log10_p[rows] = k, self.probs[k].values[rank]
        weights = []
        rows = np.flatnonzero(level <= width)  # rows that back off at all
        rank = np.zeros(len(rows), dtype=np.int64)
        for k in range(1, width + 1):
            key = rank * V + contexts[rows, width - k]
            ranked = 1 < k < width  # the next key needs this suffix's rank
            (found, pos), *suffix = _lookup(key, self.bows[k], *([self.probs[k]] if ranked else []))
            weights.append((k, rows[found], self.bows[k].values[pos]))
            if ranked:
                [(hit, rank)] = suffix
                rows = rows[hit]
            elif k == 1:
                rank = key
        acc = np.zeros(n)
        for k, rows, bow in reversed(weights):
            keep = level[rows] <= k
            acc[rows[keep]] += bow[keep]
        return acc + log10_p

    def _keys(self, grams: np.ndarray) -> np.ndarray:
        """The keys of (n, k) id rows whose suffixes are stored."""
        n, k = grams.shape
        rank = grams[:, -1] if k > 1 else np.zeros(n, dtype=np.int64)
        for j in range(2, k):
            [(_, rank)] = _lookup(rank * self.vocab_size + grams[:, k - j], self.probs[j])
        return rank * self.vocab_size + grams[:, 0]

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
    discounting.  An order is computed in one batch.  A gram's suffix is a
    stored gram one order down, so its lower-order term is that gram's
    probability, in the row its key names.  A ValueError for an id outside
    [0, vocab_size).
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    ids = tables.raw[0][0][:, 0]  # every id counted, sorted
    if len(ids) and (ids[0] < 0 or ids[-1] >= vocab_size):
        raise ValueError(f"id {ids[0] if ids[0] < 0 else ids[-1]} outside the vocabulary of {vocab_size}")
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
    for k in range(2, order + 1):
        grams, counts = tables.discounted(k)
        contexts = row_keys(grams[:, :-1], vocab_size)  # lexicographic grams: one run per context
        _, starts, distinct = np.unique(contexts, return_index=True, return_counts=True)
        totals = np.add.reduceat(counts, starts)
        dk = discounts[k - 1]
        lam = dk * distinct / totals
        model.bows[k - 1] = _sorted(model._keys(grams[starts, :-1]), _each_distinct(math.log10, lam))
        keys = model._keys(grams)
        lower = (model.unigram_log10 if k == 2 else model.probs[k - 1].values)[keys // vocab_size]
        lower = np.array([10.0**x for x in lower.tolist()])
        p = (
            np.maximum(counts - dk, 0.0) / np.repeat(totals, distinct)
            + np.repeat(lam, distinct) * lower
        )
        model.probs[k] = _sorted(keys, np.array([math.log10(x) for x in p.tolist()]))
    return model


def train_model(
    sentences: Iterable[Gram], order: int, vocab_size: int
) -> KnModel:
    """Count, estimate discounts, and build in one call."""
    tables = count(sentences, order)
    return build_model(tables, vocab_size)


def _table_names(order: int) -> list[tuple[str, int]]:
    """Name and gram length of each table, in file order: probabilities of
    orders 2..N, then back-off weights of context lengths 1..N-1."""
    return [(f"probs{k}", k) for k in range(2, order + 1)] + [(f"bows{k}", k) for k in range(1, order)]


def save_model(model: KnModel, path: str | Path) -> None:
    """The model container (``files.write_arrays``).  The header holds the
    format, version, order, vocabulary size, discounts and each array's
    name and shape.  Then come the dense unigram log10 array and, per
    table, its sorted keys (int64) and their log10 values."""
    arrays = {"unigram": model.unigram_log10}
    for name, k in _table_names(model.order):
        table = (model.probs if name.startswith("probs") else model.bows)[k]
        arrays[f"{name}.keys"] = table.keys
        arrays[name] = table.values
    header = {
        "format": _KN_MAGIC,
        "version": _KN_VERSION,
        "order": model.order,
        "vocab": model.vocab_size,
        "discounts": list(model.discounts),
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
    }
    write_arrays(path, header, list(arrays.values()))


def _layout(path, header: dict) -> Layout:
    """The arrays a header's order and vocabulary size imply, with the row
    counts it states; the header must list exactly those."""
    order, V, discounts, arrays = (header.get(key) for key in ("order", "vocab", "discounts", "arrays"))
    if type(order) is not int or type(V) is not int or order < 1 or V < 1:
        raise ValueError(f"{path}: bad order {order!r} or vocabulary size {V!r}")
    if not (isinstance(discounts, list) and len(discounts) == order
            and all(type(d) in (int, float) for d in discounts)):
        raise ValueError(f"{path}: expected {order} discounts, got {discounts!r}")
    layout = [("unigram", "<f8", (V,))]
    for name, _ in _table_names(order):
        n = row_count(arrays, len(layout))
        layout += [(f"{name}.keys", "<i8", (n,)), (name, "<f8", (n,))]
    if arrays != [[name, list(shape)] for name, _, shape in layout] or any(
        shape[0] is None for _, _, shape in layout
    ):
        raise ValueError(f"{path}: arrays do not match order {order} and vocabulary size {V}")
    return layout


def _check_values(path, name: str, values: np.ndarray) -> None:
    """Log10 probabilities must be finite and <= 0, back-off weights finite;
    a refusal names the first bad row."""
    if name.startswith("bows"):
        bad = ~np.isfinite(values)
        what = "back-off weight {!r} must be finite"
    else:
        bad = ~((-np.inf < values) & (values <= 0.0))  # NaN fails too
        what = "log10 probability {!r} must be finite and <= 0"
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}: {name}: row {row}: " + what.format(float(values[row])))


def load_model(path: str | Path) -> KnModel:
    """Read a ``save_model`` file (``files.read_arrays``).  Refuses, naming
    the file, an array list that differs from what the order and vocabulary
    size imply, keys that do not rise strictly within a table, a key whose
    suffix rank is not a row of the table one order down (an id below V at
    k = 2, 0 at k = 1), a log10 probability that is not finite and <= 0,
    and a back-off weight that is not finite; no trained model holds one.
    A bad entry's message also names its table and row (counted from 0)."""
    header, arrays = read_arrays(path, _KN_MAGIC, _KN_VERSION, _layout)
    order, V = header["order"], header["vocab"]
    _check_values(path, "unigram", arrays[0])
    tables = {}
    for (name, k), keys, values in zip(_table_names(order), arrays[1::2], arrays[2::2]):
        rising = keys[1:] > keys[:-1]
        if not rising.all():
            row = np.argmin(rising) + 1
            raise ValueError(f"{path}: {name}: row {row} does not rise above the row before it")
        suffixes = 1 if k == 1 else V if k == 2 else len(tables[f"probs{k - 1}"])
        row = 0 if len(keys) and keys[0] < 0 else np.searchsorted(keys, suffixes * V)
        if row < len(keys):
            raise ValueError(f"{path}: {name}: row {row}: suffix rank {keys[row] // V} is not in [0, {suffixes})")
        _check_values(path, name, values)
        tables[name] = _Table(keys, values)
    return KnModel(
        order=order,
        vocab_size=V,
        discounts=tuple(map(float, header["discounts"])),
        unigram_log10=arrays[0],
        probs={k: tables[f"probs{k}"] for k in range(2, order + 1)},
        bows={k: tables[f"bows{k}"] for k in range(1, order)},
    )
