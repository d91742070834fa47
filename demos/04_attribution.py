"""Closed-set authorship attribution with both model families.

Builds four synthetic authors over one shared lexicon, trains a neural LM
and an n-gram LM per author, then attributes pooled test sentences to the
author whose model fits them best (minimum perplexity).  Ends with the
accuracy-versus-text-length sweep and a confusion matrix.

Run:  python demos/04_attribution.py   (about half a minute)
"""

from authorlm import evaluation as ev  # before numpy, so that BLAS runs one thread
from authorlm import kn, nnlm, synthetic
from authorlm import textproc as tp
from authorlm.prng import derive_seed

import numpy as np

AUTHORS = 4
lexicon = synthetic.default_lexicon(30)
specs = [
    synthetic.random_markov_author(
        f"author{i}", lexicon, seed=derive_seed(100, i), concentration=0.12
    )
    for i in range(AUTHORS)
]
corpora = synthetic.generate_synthetic_corpus(specs, seed=100, sentence_count=600)

candidates = {"nnlm": [], "kn": []}
pools = {}
for index, corpus in enumerate(corpora):
    tokens = tp.preprocess_sentences(corpus.sentences, stemming=True)
    vocab = tp.build_vocabulary(tokens, prune_threshold=1e-5)
    processed = tp.encode(tokens, vocab, order=4, prune_threshold=1e-5)
    assignment = tp.split(len(processed), seed=0)

    config = nnlm.NnlmConfig(
        vocab_size=vocab.size, order=4, embed_dim=12, hidden_dim=32,
        batch_size=100, learning_rate=0.3, momentum=0.9, max_epochs=12,
        patience=3, init_seed=derive_seed(0, index),
    )
    neural, _ = nnlm.train(
        config,
        tp.extract_samples(processed, assignment.train),
        tp.extract_samples(processed, assignment.validation),
    )
    ngram = kn.train_model(
        [processed.sentences[i] for i in assignment.train], 4, vocab.size
    )
    candidates["nnlm"].append(ev.AuthorModel(corpus.author_id, neural, vocab))
    candidates["kn"].append(ev.AuthorModel(corpus.author_id, ngram, vocab))
    pools[corpus.author_id] = [tokens[i] for i in assignment.test]
    print(f"trained both models for {corpus.author_id} (V={vocab.size})")

# --- one classification, spelled out: pooled perplexity per candidate
probe = pools["author2"][:5]
result = ev.classify(candidates["nnlm"], probe, true_author="author2")
print("\n5 test sentences from author2, neural candidates:")
for name, pp in result.perplexities.items():
    marker = "  <-- predicted" if name == result.predicted_author else ""
    print(f"    {name}: perplexity {pp:8.2f}{marker}")

# --- accuracy versus number of test sentences, both methods
print("\naccuracy by test-text length (40 trials per author):")
# one pass scores both methods: each trial's draw is shared, so the two
# methods are compared on the same sentences
reports = dict(zip(candidates, ev.accuracy_sweep(
    list(candidates.values()), pools, sentence_counts=[1, 2, 5, 10], trials=40, seed=0
)))
for method, report in reports.items():
    curve = report.accuracy_by_count()
    print(f"    {method}: " + "  ".join(f"s={s}: {a:.3f}" for s, a in curve.items()))

# --- confusion matrix for single-sentence tests (the hardest case)
matrix = reports["nnlm"].confusion(sentence_count=1)
print("\nneural confusion at s=1 (rows true, columns predicted):")
print(np.array2string(matrix))
print("row sums equal the trial count:", matrix.sum(axis=1).tolist())
