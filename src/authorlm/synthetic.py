"""Synthetic author corpora from first-order Markov chains.

Stands in for real per-author text: each author is a word lexicon plus a
stochastic initial/transition table, so ground truth is known and corpora
of any size can be regenerated from a seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .prng import stream
from .textproc import RawCorpus

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MarkovAuthor:
    """One synthetic author: lexicon, initial distribution, transitions."""

    author_id: str
    lexicon: tuple[str, ...]
    initial: np.ndarray
    transitions: np.ndarray
    length_range: tuple[int, int] = (4, 11)

    def __post_init__(self):
        k = len(self.lexicon)
        initial = np.asarray(self.initial, dtype=np.float64)
        transitions = np.asarray(self.transitions, dtype=np.float64)
        if k == 0:
            raise ValueError("lexicon is empty")
        if initial.shape != (k,) or transitions.shape != (k, k):
            raise ValueError("distribution shapes do not match the lexicon")
        if not (np.all(initial >= 0) and np.all(transitions >= 0)):
            raise ValueError("negative or NaN probabilities in author tables")
        if abs(initial.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError("initial distribution does not sum to 1")
        row_err = np.abs(transitions.sum(axis=1) - 1.0)
        if np.any(row_err > _ROW_SUM_TOL):
            bad = int(np.argmax(row_err))
            raise ValueError(f"transition row {bad} does not sum to 1")
        lo, hi = self.length_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad length range {self.length_range}")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", transitions)


def sample_sentences(author: MarkovAuthor, rng: np.random.Generator, count: int) -> list[str]:
    """Draw sentences by walking the author's chain.

    Each sentence draws its length with ``rng.integers`` and then one
    uniform double per word.  A word is where its double falls in the
    cumulative distribution of the state it follows, normalized by the
    last entry: exactly what ``rng.choice(k, p=row)`` computes, with the
    same draws, but with every row's cdf made once.
    """
    lo, hi = author.length_range
    initial = np.cumsum(author.initial)
    initial /= initial[-1]
    rows = np.cumsum(author.transitions, axis=1)
    rows /= rows[:, -1:]
    initial, rows = initial.tolist(), rows.tolist()
    sentences = []
    for _ in range(count):
        length = int(rng.integers(lo, hi + 1))
        draws = rng.random(length).tolist()
        state = bisect_right(initial, draws[0])
        words = [author.lexicon[state]]
        for u in draws[1:]:
            state = bisect_right(rows[state], u)  # searchsorted(side="right")
            words.append(author.lexicon[state])
        sentences.append(" ".join(words))
    return sentences


def generate_synthetic_corpus(
    authors: list[MarkovAuthor], seed: int, sentence_count: int
) -> list[RawCorpus]:
    """One RawCorpus per author, all derived from a single run seed.

    Author i samples from ``stream(seed, i)``, so adding or reordering
    authors does not perturb the others' text.
    """
    corpora = []
    for i, author in enumerate(authors):
        rng = stream(seed, i)
        sentences = sample_sentences(author, rng, sentence_count)
        corpora.append(RawCorpus(author_id=author.author_id, sentences=tuple(sentences)))
    return corpora


def default_lexicon(size: int) -> tuple[str, ...]:
    return tuple(f"w{i:03d}" for i in range(size))


def random_markov_author(
    author_id: str,
    lexicon: tuple[str, ...],
    seed: int,
    concentration: float = 0.1,
    length_range: tuple[int, int] = (4, 11),
) -> MarkovAuthor:
    """Author with Dirichlet-random tables; low concentration makes the
    per-state next-word distributions spiky and authors easy to tell apart."""
    if not concentration > 0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    k = len(lexicon)
    rng = stream(seed)
    alpha = np.full(k, concentration)
    transitions = rng.dirichlet(alpha, size=k)
    initial = rng.dirichlet(alpha)
    return MarkovAuthor(
        author_id=author_id,
        lexicon=lexicon,
        initial=initial,
        transitions=transitions,
        length_range=length_range,
    )
