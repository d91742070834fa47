"""Hand-style reference for the smoothed n-gram recursion.

Deliberately naive and exact: counts come from nested loops, probabilities
from the textbook interpolation recursion evaluated in Fraction arithmetic
with no caching, tables, or log space.  Used as the oracle the library's
float implementation must match.

``read_saved`` and ``write_saved`` read and write a saved model's file
without the library, so that tests can inspect and corrupt it, and
``decode_keys`` turns a table's keys back into id tuples.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np


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



def read_saved(path):
    """(header, arrays) of a saved model: the JSON header line, then each
    array the header lists, in order, as a writable copy keyed by name
    (keys int64, everything else float64)."""
    header, body = path.read_bytes().split(b"\n", 1)
    header, arrays, start = json.loads(header), {}, 0
    for name, shape in header["arrays"]:
        count = math.prod(shape)
        dtype = "<i8" if name.endswith(".keys") else "<f8"
        arrays[name] = np.frombuffer(body, dtype, count, start).reshape(shape).copy()
        start += 8 * count
    assert start == len(body)
    return header, arrays


def decode_keys(V, keys):
    """The id tuples of tables given as ``{"probs<k>" or "bows<k>": keys}``,
    in row order: the key r * V + w of a k-gram is (w,) followed by row r
    of probs<k-1>, which is the id r at k = 2 and nothing at k = 1."""
    def length(name):
        return int(name.removeprefix("probs").removeprefix("bows"))

    grams = {}
    for name in sorted(keys, key=length):
        k = length(name)
        suffixes = [()] if k == 1 else [(r,) for r in range(V)] if k == 2 else grams[f"probs{k - 1}"]
        grams[name] = [(key % V, *suffixes[key // V]) for key in keys[name].tolist()]
    return grams


def write_saved(path, header, arrays):
    """The file ``read_saved`` reads: the sorted-key header line, then the
    arrays' bytes in order."""
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    path.write_bytes(line + b"".join(a.tobytes() for a in arrays.values()))


def edit_saved(path, edit):
    """Rewrite a saved model with ``edit`` applied to its arrays."""
    header, arrays = read_saved(path)
    edit(arrays)
    write_saved(path, header, arrays)
