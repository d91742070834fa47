"""Output checks and the quality figures read from a run's output tree.

Each check returns a list of failure messages; an empty list means it
passed.  Every check counts as one attempted operation in the result.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from statistics import fmean


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def vocab_size(out: Path, author: str) -> int:
    """Model vocabulary size (reserved ids included) from the vocab header."""
    with open(out / "preprocess" / f"{author}.vocab.tsv", encoding="utf-8") as f:
        for line in f:
            if line.startswith("# size "):
                return int(line.split()[2])
    raise ValueError(f"{author}: vocabulary has no size header")


def check_perplexities(out: Path, authors: list[str], seed: int) -> list[str]:
    """One row per (author, method); each value finite and in (1, V]."""
    rows = _rows(out / "eval" / "perplexity.csv")
    errors = []
    seen = {(r["author"], int(r["seed"]), r["method"]) for r in rows}
    want = {(a, seed, m) for a in authors for m in ("nnlm", "kn")}
    if seen != want or len(rows) != len(want):
        errors.append(f"perplexity.csv covers {sorted(seen)}, expected {sorted(want)}")
    for r in rows:
        pp = float(r["perplexity"])
        limit = vocab_size(out, r["author"])
        if not (math.isfinite(pp) and 1.0 < pp <= limit):
            errors.append(f"{r['author']} {r['method']}: perplexity {pp} not in (1, {limit}]")
    return errors


def check_trials(
    out: Path, authors: list[str], seed: int, counts: list[int], trials: int
) -> list[str]:
    """Each trials CSV has authors x counts x trials rows, one per key, and
    the summary accuracies equal the share of correct trials."""
    errors = []
    want = {(a, s, t) for a in authors for s in counts for t in range(trials)}
    summary = {
        (r["method"], int(r["s"])): float(r["mean_acc"])
        for r in _rows(out / "experiment" / "summary.csv")
    }
    for method in ("nnlm", "kn"):
        path = out / "experiment" / f"trials_{method}_{seed}.csv"
        rows = _rows(path)
        keys = {(r["author"], int(r["sentence_count"]), int(r["trial"])) for r in rows}
        if len(rows) != len(want) or keys != want:
            errors.append(f"{path.name}: {len(rows)} rows, expected {len(want)}")
            continue
        if any(r["predicted"] not in authors for r in rows):
            errors.append(f"{path.name}: prediction outside the candidate set")
        for s in counts:
            hits = [int(r["correct"]) for r in rows if int(r["sentence_count"]) == s]
            if summary.get((method, s)) != sum(hits) / len(hits):
                errors.append(f"summary.csv {method} s={s} disagrees with {path.name}")
    return errors


def check_above_chance(accuracy: dict[str, float], authors: list[str]) -> list[str]:
    chance = 1.0 / len(authors)
    return [
        f"{method} accuracy {acc:.3f} is not above chance {chance:.3f}"
        for method, acc in accuracy.items()
        if not acc > chance
    ]


def mean_perplexity(out: Path) -> dict[str, float]:
    """Mean test perplexity per method over ``eval/perplexity.csv``."""
    rows = _rows(out / "eval" / "perplexity.csv")
    return {m: fmean(float(r["perplexity"]) for r in rows if r["method"] == m) for m in ("nnlm", "kn")}


def mean_accuracy(out: Path) -> dict[str, float]:
    """Mean over the sweep's sentence counts of ``experiment/summary.csv``."""
    rows = _rows(out / "experiment" / "summary.csv")
    return {m: fmean(float(r["mean_acc"]) for r in rows if r["method"] == m) for m in ("nnlm", "kn")}
