"""Walk through the text pipeline: raw lines to model-ready id sequences.

Run:  python demos/01_text_pipeline.py
"""

from authorlm import textproc as tp

# A miniature author corpus, one sentence per line.
lines = [
    "The cats were running happily through the gardens.",
    "A cat runs; the ponies ran too!",
    "Gardens are full of running ponies.",
    "The pony stopped running.",
]

# --- tokenize: lowercase, whitespace split, surrounding punctuation off
print("tokens:")
for line in lines:
    print("   ", tp.tokenize(line))

# --- stem: plural/verb inflections collapse, e.g. ponies -> poni
stemmed = tp.preprocess_sentences(lines, stemming=True)
print("\nstemmed:")
for sent in stemmed:
    print("   ", sent)

# --- vocabulary: count, prune rare types, order by frequency
# threshold 0.05 on this tiny corpus means a word needs 2 of the ~26
# tokens to survive; everything else will encode as the unknown token.
vocab = tp.build_vocabulary(stemmed, prune_threshold=0.05)
print(f"\nvocabulary ({vocab.size} entries, first three reserved):")
for i, (word, count) in enumerate(zip(vocab.words, vocab.counts)):
    print(f"    {i:2d}  {word:10s} count={count}")

# --- encode for a 3-gram model: 2 start paddings, unknowns mapped, 1 end
processed = tp.encode(stemmed, vocab, order=3, prune_threshold=0.05)
print("\nencoded sentences (order 3):")
for sent in processed.sentences:
    print("   ", sent)
print("decoded back:", vocab.decode(processed.sentences[1][2:-1]))
# the corpus keeps the token behind each unknown id, so the preprocessed
# tokens of any sentence come back whole (as attribution needs them)
print("tokens behind the unknown ids:", processed.unknown)
print("sentence 1's tokens:", processed.tokens([1])[0])

# --- deterministic 8:1:1 split (needs >= 10 sentences, so replicate)
big = tp.encode(stemmed * 3, vocab, order=3, prune_threshold=0.05)
assignment = tp.split(len(big), seed=0)
print(
    f"\nsplit of {len(big)} sentences:"
    f" train={len(assignment.train)}"
    f" validation={len(assignment.validation)}"
    f" test={len(assignment.test)}"
)
assert assignment == tp.split(len(big), seed=0)  # same seed, same split

# --- sliding-window samples: every word and the sentence end is a target
samples = tp.extract_samples(processed)
print(f"\n{len(samples)} prediction samples; first four:")
for ctx, tgt in list(zip(samples.contexts.tolist(), samples.targets.tolist()))[:4]:
    print(f"    {vocab.decode(ctx)} -> {vocab.words[tgt]}")
