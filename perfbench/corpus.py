"""The benchmark's own seeded corpus sampler.

Inputs are made here, not by ``authorlm.synthetic``, so that a change to
the program cannot change what the benchmark feeds it.  Only Python's
``random.Random`` is used (integer seeds, ``random()``, ``randint``,
``sample``, ``shuffle``), whose streams are stable across Python releases.

Every author is a first-order Markov chain over its lexicon.  Each word
has the same number of successors, weighted by one fixed Zipf profile, and
the start word follows the same profile over a shuffled lexicon.  Only the
*choice* of words is random, so the entropy of every author, and with it
the amount of work and the attribution difficulty, hardly depends on the
seed.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from itertools import accumulate
from pathlib import Path


def _zipf_cumulative(n: int) -> list[float]:
    return list(accumulate(1.0 / (r + 1) for r in range(n)))


def _draw(rng: random.Random, items, cumulative: list[float]):
    return items[bisect.bisect_right(cumulative, rng.random() * cumulative[-1])]


def author_sentences(
    rng: random.Random,
    lexicon: list[str],
    sentences: int,
    successors: int,
    length_range: tuple[int, int],
) -> list[str]:
    starts = lexicon[:]
    rng.shuffle(starts)
    start_cum = _zipf_cumulative(len(starts))
    succ_cum = _zipf_cumulative(successors)
    table = {w: rng.sample(lexicon, successors) for w in lexicon}
    out = []
    for _ in range(sentences):
        word = _draw(rng, starts, start_cum)
        words = [word]
        for _ in range(rng.randint(*length_range) - 1):
            word = _draw(rng, table[word], succ_cum)
            words.append(word)
        out.append(" ".join(words))
    return out


def synthetic_lexicon(size: int) -> list[str]:
    """``w000`` .. ``w<size-1>``: the README lexicon, untouched by stemming."""
    return [f"w{i:03d}" for i in range(size)]


def english_words(reference_tsv: Path) -> list[str]:
    """Alphabetic inputs of the Porter reference table (word<TAB>stem), the
    first for each stem, in file order.  Distinct stems keep the
    vocabulary size from depending on which words a seed draws."""
    words, stems = [], set()
    with open(reference_tsv, encoding="utf-8") as f:
        for line in f:
            word, stem = line.rstrip("\n").split("\t")
            if word.isalpha() and word.isascii() and stem not in stems:
                stems.add(stem)
                words.append(word)
    if not words:
        raise ValueError(f"{reference_tsv}: no alphabetic words")
    return words


def write_corpus(
    corpus_dir: Path,
    seed: int,
    authors: int,
    sentences: int,
    successors: int,
    length_range: tuple[int, int],
    shared_words: list[str],
    lexicon_size: int,
) -> None:
    """One ``author<i>.txt`` per author.  Author i draws its lexicon of
    ``lexicon_size`` words from ``shared_words`` and samples from the
    stream seeded with ``seed * 1000 + i``."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for i in range(authors):
        rng = random.Random(seed * 1000 + i)
        lexicon = (
            shared_words[:]
            if lexicon_size >= len(shared_words)
            else rng.sample(shared_words, lexicon_size)
        )
        lines = author_sentences(rng, lexicon, sentences, successors, length_range)
        (corpus_dir / f"author{i:02d}.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )


def tree_digest(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative paths and contents of the files under root
    that match ``pattern``, with the ``# generated <timestamp>`` lines left
    out."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as f:
            for line in f:
                if not line.startswith(b"# generated "):
                    h.update(line)
        h.update(b"\0")
    return h.hexdigest()
