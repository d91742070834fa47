"""The earlier synthetic sampler, kept verbatim: one ``rng.choice`` per
word.  ``authorlm.synthetic.sample_sentences`` must draw the same
sentences from the same generator state.
"""

import numpy as np

from authorlm.synthetic import MarkovAuthor


def sample_sentences(author: MarkovAuthor, rng: np.random.Generator, count: int) -> list[str]:
    """Draw sentences by walking the author's chain."""
    lo, hi = author.length_range
    k = len(author.lexicon)
    sentences = []
    for _ in range(count):
        length = int(rng.integers(lo, hi + 1))
        state = int(rng.choice(k, p=author.initial))
        words = [author.lexicon[state]]
        for _ in range(length - 1):
            state = int(rng.choice(k, p=author.transitions[state]))
            words.append(author.lexicon[state])
        sentences.append(" ".join(words))
    return sentences
