"""Hand-style reference for the smoothed n-gram recursion.

Deliberately naive and exact: counts come from nested loops, probabilities
from the textbook interpolation recursion evaluated in Fraction arithmetic
with no caching, tables, or log space.  Used as the oracle the library's
float implementation must match.

``save_model`` is the earlier model writer, kept verbatim: one ``repr``
and one f-string per entry in Python loops.  ``authorlm.kn.save_model``
must write the same bytes.
"""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from authorlm.files import write_file
from authorlm.kn import _KN_MAGIC, _NO_PROB, KnModel, _key_dtype, _Table, _unpack


def brute_counts(sentences, order):
    """raw[k][gram] = occurrences of the length-k window, k = 1..order."""
    raw = {k: Counter() for k in range(1, order + 1)}
    for s in sentences:
        s = tuple(s)
        for k in range(1, order + 1):
            for i in range(len(s) - k + 1):
                raw[k][s[i : i + k]] += 1
    return raw


def brute_continuation(raw, k):
    """Distinct left extensions of each length-k gram, from raw k+1 grams."""
    preceders = {}
    for gram in raw[k + 1]:
        preceders.setdefault(gram[1:], set()).add(gram[0])
    return {g: len(v) for g, v in preceders.items()}


class ReferenceKn:
    """Interpolated single-discount model over exact rationals."""

    def __init__(self, sentences, order, vocab_size, discounts=None):
        self.order = order
        self.vocab_size = vocab_size
        self.raw = brute_counts(sentences, order)
        self.cont = {k: brute_continuation(self.raw, k) for k in range(1, order)}
        if discounts is None:
            discounts = [self._estimate(k) for k in range(1, order + 1)]
        self.discounts = [Fraction(d) for d in discounts]

    def _table(self, k):
        return self.raw[k] if k == self.order else self.cont[k]

    def _estimate(self, k):
        values = list(self._table(k).values())
        n1 = sum(1 for c in values if c == 1)
        n2 = sum(1 for c in values if c == 2)
        if n1 + 2 * n2 == 0:
            d = Fraction(1, 2)
        else:
            d = Fraction(n1, n1 + 2 * n2)
        return min(Fraction(19, 20), max(Fraction(1, 20), d))

    def prob(self, context, target) -> Fraction:
        context = tuple(context)
        if len(context) > self.order - 1:
            context = context[len(context) - self.order + 1 :]
        return self._prob(context, target)

    def _lower(self, context, target) -> Fraction:
        if context:
            return self._prob(context[1:], target)
        return Fraction(1, self.vocab_size)

    def _prob(self, context, target) -> Fraction:
        k = len(context) + 1
        table = self._table(k)
        following = {g: c for g, c in table.items() if g[:-1] == context}
        denom = sum(following.values())
        if denom == 0:
            return self._lower(context, target)
        d = self.discounts[k - 1]
        num = table.get(context + (target,), 0)
        weight = d * len(following) / denom
        discounted = max(num - d, Fraction(0)) / denom
        return discounted + weight * self._lower(context, target)


def save_model(model: KnModel, path: str | Path) -> None:
    V = model.vocab_size
    dtype = _key_dtype(V, model.order)
    no_bows = _Table(model.order, V, np.empty(0, dtype=dtype), np.empty(0))
    sections = []
    for k in range(1, model.order + 1):
        if k == 1:
            probs = _Table(1, V, np.arange(V).astype(dtype), model.unigram_log10)
        else:
            probs = model.probs[k]
        bows = model.bows.get(k, no_bows)
        keys = np.union1d(probs.keys, bows.keys)
        log10_p = [_NO_PROB] * len(keys)
        for i, x in zip(np.searchsorted(keys, probs.keys).tolist(), probs.values.tolist()):
            log10_p[i] = repr(x)
        bow = [""] * len(keys)
        for i, x in zip(np.searchsorted(keys, bows.keys).tolist(), bows.values.tolist()):
            bow[i] = "\t" + repr(x)
        ids = [" ".join(map(str, gram)) for gram in _unpack(keys, k, V).tolist()]
        sections.append([f"{p}\t{g}{b}" for p, g, b in zip(log10_p, ids, bow)])

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
