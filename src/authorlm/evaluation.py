"""Perplexity measurement, closed-set attribution, and experiment sweeps.

Perplexity is the exponential of the mean negative log likelihood over
every predicted position (sentence ends included, paddings never targets).
Attribution scores a pooled set of test sentences under every candidate
author's model, each with its own vocabulary, and predicts the author
whose model assigns the lowest perplexity; ties break toward the lowest
author index so repeated runs agree.

Sweeps score once and sum per trial: each test pool's padded windows are
built once, in local token indices, and one gather through a lookup array
encodes them under each candidate's vocabulary; every pool sentence is then
scored under each candidate exactly once, one query per (candidate, pool),
into one (candidates, tokens) matrix.  A trial gathers its drawn
sentences' columns in draw order and sums each row as ``perplexity`` sums
a token stream, so its accumulated perplexity is that of the pooled token
stream, with no per-sentence partial sums.  ``classify`` is the one-pool,
one-trial case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .prng import stream
from .textproc import END_ID, START_ID, Samples, Vocabulary, samples_from_sentences

_CHUNK = 8192


class LanguageModel(Protocol):
    """What evaluation needs from a model: its shape and log probabilities."""

    @property
    def order(self) -> int: ...

    @property
    def vocab_size(self) -> int: ...

    def log_prob(self, context: Sequence[int], target: int) -> float: ...

    def log_probs(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class PerplexityReport:
    token_count: int
    total_log_prob: float

    @property
    def perplexity(self) -> float:
        return math.exp(-self.total_log_prob / self.token_count)


def _log_probs(model: LanguageModel, samples: Samples) -> np.ndarray:
    """Per-sample log probabilities, queried in chunks of ``_CHUNK`` rows."""
    chunks = [
        model.log_probs(
            samples.contexts[start : start + _CHUNK],
            samples.targets[start : start + _CHUNK],
        )
        for start in range(0, len(samples), _CHUNK)
    ]
    return np.concatenate(chunks) if chunks else np.empty(0)


def _report(log_probs: np.ndarray) -> PerplexityReport:
    """Perplexity of a token stream, summed chunk by chunk in log space."""
    n = len(log_probs)
    if n == 0:
        raise ValueError("no predictable tokens")
    total = 0.0
    for start in range(0, n, _CHUNK):
        total += float(log_probs[start : start + _CHUNK].sum())
    return PerplexityReport(token_count=n, total_log_prob=total)


def perplexity_from_samples(model: LanguageModel, samples: Samples) -> PerplexityReport:
    """Perplexity over prediction samples, summed in log space."""
    return _report(_log_probs(model, samples))


def perplexity(model: LanguageModel, sentences: Sequence[Sequence[int]]) -> PerplexityReport:
    """Perplexity over encoded, padded sentences."""
    return perplexity_from_samples(model, samples_from_sentences(sentences, model.order))


@dataclass(frozen=True)
class AuthorModel:
    """A candidate author: model plus the vocabulary it was trained with."""

    author_id: str
    model: LanguageModel
    vocabulary: Vocabulary


@dataclass(frozen=True)
class ClassificationResult:
    predicted_author: str
    perplexities: Mapping[str, float]
    true_author: str | None = None

    @property
    def correct(self) -> bool:
        return self.true_author is not None and self.predicted_author == self.true_author


@dataclass(frozen=True)
class _PoolEncoding:
    """A pool's padded windows in local token indices, built once per pool.

    Index 0 is the start padding, 1 the sentence end and ``2 + j`` the
    pool's j-th distinct token, so one gather through a candidate's lookup
    array (``samples``) gives that candidate's encoded windows.
    """

    windows: Samples
    distinct: tuple[str, ...]

    def samples(self, vocab: Vocabulary) -> Samples:
        lookup = np.array([START_ID, END_ID, *map(vocab.index_of, self.distinct)], dtype=np.int64)
        return Samples(lookup[self.windows.contexts], lookup[self.windows.targets])


def _encode_pool(pool: Sequence[Sequence[str]], order: int) -> _PoolEncoding:
    """The pool's padded sentences' windows, in local token indices."""
    if order < 2:
        raise ValueError("order must be >= 2")
    codes: dict[str, int] = {}
    pad = (START_ID,) * (order - 1)
    local = [
        pad + tuple(codes.setdefault(word, len(codes) + 2) for word in sent) + (END_ID,)
        for sent in pool
    ]
    return _PoolEncoding(samples_from_sentences(local, order), tuple(codes))


@dataclass(frozen=True)
class _PoolTable:
    """Every candidate's per-token log probabilities over one test pool.

    Row c of the C-contiguous (candidates, tokens) matrix ``log_probs`` is
    candidate c's token stream over the whole pool; sentence k owns the
    columns ``positions[k]`` (a sentence yields the same number of tokens
    under any vocabulary).
    """

    log_probs: np.ndarray
    positions: list[np.ndarray]


def _score_pool(authors: Sequence[AuthorModel], pool: Sequence[Sequence[str]]) -> _PoolTable:
    """Encode a pool once per model order and score it under each candidate."""
    encodings: dict[int, _PoolEncoding] = {}
    ends = np.cumsum([len(sent) + 1 for sent in pool], dtype=np.int64)
    log_probs = np.empty((len(authors), int(ends[-1]) if len(ends) else 0))
    for row, author in zip(log_probs, authors):
        order = author.model.order
        if order not in encodings:
            encodings[order] = _encode_pool(pool, order)
        row[...] = _log_probs(author.model, encodings[order].samples(author.vocabulary))
    return _PoolTable(
        log_probs=log_probs,
        positions=[np.arange(end - len(sent) - 1, end) for sent, end in zip(pool, ends)],
    )


def _decide(table: _PoolTable, chosen: Sequence[int]) -> tuple[int, list[float]]:
    """Index of the minimum-perplexity candidate, and every perplexity.

    Each candidate's perplexity is that of the chosen sentences' token
    stream in draw order.  Only a strictly lower perplexity replaces the
    best so far, so exact ties go to the lowest candidate index.
    """
    stream_positions = np.concatenate([table.positions[k] for k in chosen])
    n = len(stream_positions)
    streams = np.take(table.log_probs, stream_positions, axis=1)
    # each row of a C-contiguous gather sums bit for bit as its own 1-D
    # stream does in _report; a strided gather's row sums need not
    assert streams.flags.c_contiguous
    if n <= _CHUNK:
        perps = [math.exp(-total / n) for total in streams.sum(axis=1).tolist()]
    else:
        perps = [_report(lp).perplexity for lp in streams]
    best = 0
    for i, value in enumerate(perps):
        if value < perps[best]:
            best = i
    return best, perps


def classify(
    authors: Sequence[AuthorModel],
    token_sentences: Sequence[Sequence[str]],
    true_author: str | None = None,
) -> ClassificationResult:
    """Attribute pooled test sentences to the minimum-perplexity author.

    The sentences arrive as preprocessed tokens and are encoded separately
    under each candidate's vocabulary, so every model sees the same number
    of positions (out-of-vocabulary words become that author's unknown
    token rather than disappearing).
    """
    if not authors:
        raise ValueError("no candidate authors")
    if not token_sentences:
        raise ValueError("no test sentences")
    table = _score_pool(authors, token_sentences)
    best, perps = _decide(table, range(len(token_sentences)))
    return ClassificationResult(
        predicted_author=authors[best].author_id,
        perplexities={a.author_id: pp for a, pp in zip(authors, perps)},
        true_author=true_author,
    )


@dataclass(frozen=True)
class TrialRecord:
    author_id: str
    sentence_count: int
    trial: int
    predicted_author: str

    @property
    def correct(self) -> bool:
        return self.author_id == self.predicted_author


@dataclass(frozen=True)
class ExperimentReport:
    """Trial outcomes and the one place they are aggregated: one sweep's, as
    ``accuracy_sweep`` returns them, or records ``report`` reads back."""

    author_ids: tuple[str, ...]
    sentence_counts: tuple[int, ...]
    excluded_authors: tuple[str, ...]
    records: tuple[TrialRecord, ...]

    def accuracy_by_count(self) -> dict[int, float]:
        """Mean accuracy per sentence count over the non-excluded authors."""
        hits = {s: 0 for s in self.sentence_counts}
        totals = {s: 0 for s in self.sentence_counts}
        for rec in self.records:
            if rec.author_id not in self.excluded_authors:
                totals[rec.sentence_count] += 1
                hits[rec.sentence_count] += rec.correct
        return {
            s: hits[s] / totals[s] if totals[s] else float("nan")
            for s in self.sentence_counts
        }

    def confusion(self, sentence_count: int | None = None) -> np.ndarray:
        """Count matrix: entry (i, j) = trials of author i predicted as j."""
        index = {a: i for i, a in enumerate(self.author_ids)}
        k = len(self.author_ids)
        matrix = np.zeros((k, k), dtype=np.int64)
        for rec in self.records:
            if sentence_count is None or rec.sentence_count == sentence_count:
                matrix[index[rec.author_id], index[rec.predicted_author]] += 1
        return matrix


def accuracy_sweep(
    authors: Sequence[AuthorModel],
    test_pools: Mapping[str, Sequence[Sequence[str]]],
    sentence_counts: Sequence[int],
    trials: int,
    seed: int,
    excluded_authors: Sequence[str] = (),
) -> ExperimentReport:
    """Classification accuracy versus test-text length.

    For each (author, sentence count, trial) the trial's own PCG64 stream,
    keyed by (seed, author index, count, trial), draws that many sentences
    from the author's test pool without replacement.  Every pool is scored
    under every candidate once up front; a trial only sums the rows of its
    drawn sentences.
    """
    sentence_counts = tuple(int(s) for s in sentence_counts)
    if any(s < 1 for s in sentence_counts):
        raise ValueError("sentence counts must be >= 1")
    max_s = max(sentence_counts, default=0)
    pools = [test_pools[author.author_id] for author in authors]
    for author, pool in zip(authors, pools):
        if len(pool) < max_s:
            raise ValueError(
                f"author {author.author_id!r} has {len(pool)} test sentences, "
                f"need {max_s}"
            )

    records = []
    for i, (author, pool) in enumerate(zip(authors, pools)):
        table = _score_pool(authors, pool)
        for s in sentence_counts:
            for t in range(trials):
                chosen = stream(seed, i, s, t).choice(len(pool), size=s, replace=False)
                best, _ = _decide(table, chosen)
                records.append(
                    TrialRecord(
                        author_id=author.author_id,
                        sentence_count=s,
                        trial=t,
                        predicted_author=authors[best].author_id,
                    )
                )

    return ExperimentReport(
        author_ids=tuple(a.author_id for a in authors),
        sentence_counts=sentence_counts,
        excluded_authors=tuple(excluded_authors),
        records=tuple(records),
    )


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and n-1 standard deviation."""
    if len(values) < 2:
        raise ValueError("aggregation needs at least 2 values")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1))


def mean_std_or_single(values: Sequence[float]) -> tuple[float, float]:
    """``mean_std`` over two or more values; one value stands alone with std 0."""
    if len(values) == 1:
        return values[0], 0.0
    return mean_std(values)


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.1f}±{std:.1f}"

