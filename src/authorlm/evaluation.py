"""Perplexity measurement, closed-set attribution, and experiment sweeps.

Perplexity is the exponential of the mean negative log likelihood over
every predicted position (sentence ends included, paddings never targets).
Attribution scores a pooled set of test sentences under every candidate
author's model, each with its own vocabulary, and predicts the author
whose model assigns the lowest perplexity; ties break toward the lowest
author index so repeated runs agree.

Sweeps score once and sum per trial, for every method in one pass: the
table's rows are the candidates of each method's list in turn, and a
trial's one draw, gather and row sum serve every list, each of which
picks its best candidate over its own rows.  The test pools are encoded
once per model order by ``textproc.encode_local``, the encoder
``preprocess`` uses, in local codes, and one gather of their windows
through ``Vocabulary.ids`` encodes them under each candidate's
vocabulary, once per vocabulary when an author's models share one.
Pools are scored in author-order groups that keep the (candidates,
tokens) table within ``_TABLE_VALUES`` values: every group sentence is
scored under each candidate exactly once, in one query per candidate,
and the group's trials run before the next group is scored.  A model's
per-token scores do not depend on what else shares a query (KN lookups
are per row, and an NNLM scores each distinct context once, in fixed
blocks), so the grouping changes no bit.  Each sentence is a run of
table columns, and a trial gathers its drawn sentences' runs in draw
order (``textproc.runs``, as ``Sentences.take`` gathers ids) and sums
each row as ``perplexity`` sums a token stream, so its accumulated
perplexity is that of the pooled token stream, with no per-sentence
partial sums.  ``classify`` is the one-pool, one-trial, one-list case of
the same code.

A score that is not a finite number is an error, never a result: a
non-finite per-token log probability or perplexity raises a ValueError
(``NonFiniteScore`` with the candidate's row when candidates compete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .prng import stream
from .textproc import Samples, Vocabulary, encode_local, runs, samples_from_sentences

_CHUNK = 8192  # tokens summed per group in a stream; the grouping sets the perplexity bits
# The most values (float64, 32 MB) a sweep's score table holds at a time:
# pools are scored in groups under it, unless one pool alone exceeds it.
_TABLE_VALUES = 2**22


class LanguageModel(Protocol):
    """What evaluation needs from a model: its shape and log probabilities."""

    @property
    def order(self) -> int: ...

    @property
    def vocab_size(self) -> int: ...

    def log_probs(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray: ...


class NonFiniteScore(ValueError):
    """A candidate's model gave a non-finite log probability or perplexity;
    ``candidate`` is its row among the candidates scored (in a sweep, the
    lists' candidates in turn)."""

    def __init__(self, candidate: int, what: str):
        super().__init__(f"model gives a non-finite {what}")
        self.candidate = candidate


def _perplexity(total_log_prob: float, token_count: int) -> float:
    """exp of the mean negative log probability; inf beyond the float range."""
    try:
        return math.exp(-total_log_prob / token_count)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PerplexityReport:
    token_count: int
    total_log_prob: float

    @property
    def perplexity(self) -> float:
        """The perplexity; a ValueError when it is not finite."""
        value = _perplexity(self.total_log_prob, self.token_count)
        if not math.isfinite(value):
            raise ValueError("model gives a non-finite perplexity")
        return value


def _log_probs(model: LanguageModel, samples: Samples) -> np.ndarray:
    """The model's log probabilities of the samples in one query.  numpy's
    overflow and invalid-value warnings are off: a non-finite result is
    refused by the caller, with the model named."""
    with np.errstate(all="ignore"):
        return model.log_probs(samples.contexts, samples.targets)


def _report(log_probs: np.ndarray) -> PerplexityReport:
    """Perplexity of a token stream, summed chunk by chunk in log space; a
    ValueError when a token's log probability is not finite."""
    n = len(log_probs)
    if n == 0:
        raise ValueError("no predictable tokens")
    if not np.isfinite(log_probs).all():
        raise ValueError("model gives a non-finite log probability")
    total = 0.0
    for start in range(0, n, _CHUNK):
        total += float(log_probs[start : start + _CHUNK].sum())
    return PerplexityReport(token_count=n, total_log_prob=total)


def perplexity_from_samples(model: LanguageModel, samples: Samples) -> PerplexityReport:
    """Perplexity over prediction samples, queried at once and summed in
    log space."""
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
class _PoolTable:
    """Every candidate's per-token log probabilities over pooled sentences.

    Row c of the C-contiguous (candidates, tokens) matrix ``log_probs`` is
    candidate c's token stream over all the sentences; sentence k owns the
    ``tokens[k]`` columns from ``starts[k]`` on (a sentence yields the same
    number of tokens under any vocabulary).
    """

    log_probs: np.ndarray
    starts: np.ndarray
    tokens: np.ndarray


def _score_pool(authors: Sequence[AuthorModel], pool: Sequence[Sequence[str]]) -> _PoolTable:
    """Encode the sentences once per model order and score them under each
    candidate in one query; a ``NonFiniteScore`` when a log probability is
    not finite.  Candidates that share an order and a vocabulary object
    (one author's models of several methods) share one gather of the
    windows through that vocabulary's ids, which lives only while they are
    scored.  A sweep passes a group of test pools' sentences at once."""
    windows: dict[int, tuple[Samples, tuple[str, ...]]] = {}  # order -> local-code windows, words
    shared: dict[tuple[int, int], list[int]] = {}  # (order, id(vocabulary)) -> rows
    for c, author in enumerate(authors):
        shared.setdefault((author.model.order, id(author.vocabulary)), []).append(c)
    tokens = np.array([len(sent) + 1 for sent in pool], dtype=np.int64)
    log_probs = np.empty((len(authors), int(tokens.sum())))
    for (order, _), rows in shared.items():
        if order not in windows:
            local, words = encode_local(pool, order)
            windows[order] = samples_from_sentences(local, order), words
        local_samples, words = windows[order]
        lookup = authors[rows[0]].vocabulary.ids(words)
        samples = Samples(lookup[local_samples.contexts], lookup[local_samples.targets])
        for c in rows:
            log_probs[c] = _log_probs(authors[c].model, samples)
            if not np.isfinite(log_probs[c]).all():
                raise NonFiniteScore(c, "log probability")
    return _PoolTable(log_probs=log_probs, starts=np.cumsum(tokens) - tokens, tokens=tokens)


def _decide(table: _PoolTable, chosen: Sequence[int], lists: int = 1) -> tuple[list[int], list[float]]:
    """The minimum-perplexity row of each of ``lists`` equal runs of the
    table's rows (one run per candidate list), and every perplexity.

    Each candidate's perplexity is that of the chosen sentences' token
    stream in draw order; a ``NonFiniteScore`` when one is not finite.  Only
    a strictly lower perplexity replaces the best so far, so exact ties go
    to the lowest row of the run.
    """
    stream_positions = runs(table.starts[chosen], table.tokens[chosen])
    n = len(stream_positions)
    streams = np.take(table.log_probs, stream_positions, axis=1)
    # each row of a C-contiguous gather sums bit for bit as its own 1-D
    # stream does in _report; a strided gather's row sums need not
    assert streams.flags.c_contiguous
    if n <= _CHUNK:
        totals = streams.sum(axis=1).tolist()
    else:
        totals = [_report(lp).total_log_prob for lp in streams]
    perps = [_perplexity(total, n) for total in totals]
    for i, value in enumerate(perps):
        if not math.isfinite(value):
            raise NonFiniteScore(i, "perplexity")
    k = len(perps) // lists
    # min keeps the first of equal keys
    return [min(range(m * k, m * k + k), key=perps.__getitem__) for m in range(lists)], perps


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
    [best], perps = _decide(table, range(len(token_sentences)))
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


def _groups(pools: Sequence[Sequence[Sequence[str]]], rows: int) -> Iterator[range]:
    """Runs of consecutive pools whose tokens times ``rows`` stay within
    ``_TABLE_VALUES``; a pool that alone exceeds it is a run of its own."""
    start, tokens = 0, 0
    for i, pool in enumerate(pools):
        size = sum(len(sent) + 1 for sent in pool)
        if i > start and (tokens + size) * rows > _TABLE_VALUES:
            yield range(start, i)
            start, tokens = i, 0
        tokens += size
    if start < len(pools):
        yield range(start, len(pools))


def accuracy_sweep(
    candidates: Sequence[Sequence[AuthorModel]],
    test_pools: Mapping[str, Sequence[Sequence[str]]],
    sentence_counts: Sequence[int],
    trials: int,
    seed: int,
    excluded_authors: Sequence[str] = (),
) -> list[ExperimentReport]:
    """Classification accuracy versus test-text length, for each list of
    candidates (one list per method), all in one pass.

    Every list names the same authors in the same order.  For each (author,
    sentence count, trial) the trial's own PCG64 stream, keyed by (seed,
    author index, count, trial), draws that many sentences from the
    author's test pool without replacement, and every list decides that one
    draw among its own candidates.  The table's rows are the lists'
    candidates in turn, so a ``NonFiniteScore``'s index ``c`` is candidate
    ``c % authors`` of list ``c // authors``.  The pools are scored in
    author-order groups of at most ``_TABLE_VALUES`` table values, one
    query per candidate and group, and a group's trials run before the
    next group is scored; a trial only sums the rows of its drawn
    sentences.  One ``ExperimentReport`` per list, in list order.
    """
    sentence_counts = tuple(int(s) for s in sentence_counts)
    if any(s < 1 for s in sentence_counts):
        raise ValueError("sentence counts must be >= 1")
    author_ids = [a.author_id for a in candidates[0]] if candidates else []
    if any([a.author_id for a in authors] != author_ids for authors in candidates):
        raise ValueError("every candidate list must name the same authors in the same order")
    max_s = max(sentence_counts, default=0)
    pools = [test_pools[author_id] for author_id in author_ids]
    for author_id, pool in zip(author_ids, pools):
        if len(pool) < max_s:
            raise ValueError(
                f"author {author_id!r} has {len(pool)} test sentences, need {max_s}"
            )

    rows = [author for authors in candidates for author in authors]
    records: list[list[TrialRecord]] = [[] for _ in candidates]
    for group in _groups(pools, len(rows)):
        table = _score_pool(rows, [sent for i in group for sent in pools[i]])
        first = 0  # the index of the pool's first sentence in the table
        for i in group:
            pool = pools[i]
            for s in sentence_counts:
                for t in range(trials):
                    chosen = stream(seed, i, s, t).choice(len(pool), size=s, replace=False)
                    bests, _ = _decide(table, first + chosen, len(candidates))
                    for list_records, best in zip(records, bests):
                        list_records.append(TrialRecord(
                            author_id=author_ids[i],
                            sentence_count=s,
                            trial=t,
                            predicted_author=rows[best].author_id,
                        ))
            first += len(pool)
        del table  # before the next group's table is filled

    return [
        ExperimentReport(
            author_ids=tuple(author_ids),
            sentence_counts=sentence_counts,
            excluded_authors=tuple(excluded_authors),
            records=tuple(list_records),
        )
        for list_records in records
    ]


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

