"""The smoothed n-gram baseline, from counts to a portable text model.

Works the 4-token corpus "a b a b" end to end, since every number in it
can be checked by hand, then shows the ARPA-style file format.

Run:  python demos/03_ngram_lm.py
"""

import math
import tempfile
from pathlib import Path

from authorlm import kn
from authorlm import textproc as tp

sentences = [["a", "b", "a", "b"]]
vocab = tp.build_vocabulary(sentences)
processed = tp.encode(sentences, vocab, order=2)
a, b = vocab.index_of("a"), vocab.index_of("b")
print("padded ids:", processed.sentences[0], "   words:", vocab.words)

# --- counting: raw sliding windows plus continuation counts, kept as
# lexicographic id rows; raw_counts/continuation_counts show them as dicts
tables = kn.count(processed.sentences, order=2)
print("\nbigram counts:", dict(tables.raw_counts(2)))
print("continuation counts (distinct predecessors):",
      dict(tables.continuation_counts(1)))

# --- discounts from the count-of-counts: n1/(n1 + 2 n2) per order;
# build_model always estimates them this way
discounts = kn.estimate_discounts(tables)
print("discounts (unigram, bigram):", discounts)

# --- the smoothed probability, by hand:
#   P(b|a) = (count(a,b) - D2)/count(a,.) + backoff(a) * P(b)
#          = (2 - 0.6)/2 + 0.3 * 0.2 = 0.76
# where P(b) interpolates b's continuation count with the uniform 1/5.
model = kn.build_model(tables, vocab.size)
print(f"\nP(b|a) = {math.exp(model.log_prob([a], b)):.6f}   (hand value 0.76)")

# Every context yields a proper distribution, even unseen ones.
for ctx, label in [((a,), "a"), ((tp.UNK_ID,), "<unk>")]:
    dist = model.distribution(ctx)
    print(f"sum of P(.|{label}) = {dist.sum():.12f}")

# --- the text serialization: one entry per line with log10 values;
# entries that exist only to carry a back-off weight say "na"
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.arpa"
    kn.save_model(model, path)
    print(f"\n{path.name}:")
    print(path.read_text())
    restored = kn.load_model(path)
    assert restored.log_prob([a], b) == model.log_prob([a], b)
    print("reloaded model answers queries bit-for-bit identically")
