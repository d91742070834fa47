"""The smoothed n-gram baseline, from counts to a saved model.

Works the 4-token corpus "a b a b" end to end, since every number in it
can be checked by hand, then saves the model and shows its file's header
line and the tables it stores.

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

# --- the saved model: one JSON header line, then the raw arrays it lists
# (unigram log10 probabilities, then each table's int64 keys and log10 values)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.kn"
    kn.save_model(model, path)
    print(f"\n{path.name} header:")
    print(path.read_bytes().split(b"\n", 1)[0].decode())
    restored = kn.load_model(path)
    assert restored.log_prob([a], b) == model.log_prob([a], b)
    print("reloaded model answers queries bit-for-bit identically")

# --- the stored tables, through the API: log10 unigram probabilities,
# then the sorted tables of bigram probabilities and back-off weights; a
# k-gram's key is its suffix's row one order down times V plus its first
# id, so a bigram (w1, w2) has the key w2 * V + w1 and a context w1 the key w1
V, words = vocab.size, vocab.words
probs, bows = restored.probs[2], restored.bows[1]
print("\nlog10 P(w):", dict(zip(words, restored.unigram_log10.round(6).tolist())))
print("log10 P(w2|w1):", {(words[key % V], words[key // V]): x
                          for key, x in zip(probs.keys.tolist(), probs.values.round(6).tolist())})
print("log10 backoff(w1):", {words[key]: x
                             for key, x in zip(bows.keys.tolist(), bows.values.round(6).tolist())})
