"""Command-line pipeline driver.

Subcommands: synth, preprocess, train-nnlm, train-ngram, eval, experiment,
report.  Outputs land under ``<output_dir>/<stage>/`` with file names of
the form ``<author>_<seed>.<ext>`` so runs are scriptable; every output is
replaced atomically (``files.write_file``).

The stages after preprocess start from one inventory per author: its
``preprocess/<author>.corpus`` loaded once, the one file of the author's
that they read, each seed's split (or the error that refused it, such as
a missing ``.corpus``), and the (seed, method) models on disk.
They work on every item the inventory allows and print one stderr line for
each item they skip; the training stages fork one worker process per
usable CPU, which takes items from a pipe (``_run_items``).  Exit codes:
0 success, 1 configuration or usage error, a missing, corrupt or stale input, a
dead worker process, nothing to work on, a stage output that cannot be
written, or a closed stdout; 2 partial
failure (some items skipped or failed, the rest done); 3 divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import os
import pickle
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from . import evaluation, files, kn, nnlm, synthetic, textproc
from .config import ConfigError, RunConfig
from .prng import derive_seed

# once per process: what the imports made lives until it ends, so no
# collection, the several at interpreter teardown included, walks it again
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_DIVERGED = 3

METHODS = ("nnlm", "kn")


def _author_files(cfg: RunConfig) -> list[Path]:
    paths = sorted(cfg.corpus_dir.glob("*.txt"))
    if not paths:
        raise ConfigError(f"no author files (*.txt) in {cfg.corpus_dir}")
    return paths


def _stage_dir(cfg: RunConfig, stage: str) -> Path:
    path = cfg.output_dir / stage
    path.mkdir(parents=True, exist_ok=True)
    return path


def _model_path(cfg: RunConfig, author: str, seed: int, method: str) -> Path:
    return cfg.output_dir / "models" / f"{author}_{seed}.{method}"


def _load(loader, path: Path, *args):
    """Run a file loader; a corrupt file becomes a ConfigError naming it."""
    try:
        return loader(path, *args)
    except ValueError as exc:
        message = str(exc)
        raise ConfigError(
            message if str(path) in message else f"{path}: {message}"
        ) from exc


@dataclass(frozen=True)
class _Author:
    """One author's inputs to a stage, loaded once.

    ``corpus`` is the encoded preprocess output, the one source of the
    vocabulary, the pipeline settings, the sentence count and the test
    pools' tokens.  ``splits[seed]`` is that seed's split of the sentences,
    or the ``ValueError`` that refused it; ``models`` holds the (seed,
    method) pairs whose model file exists.  An author whose ``.corpus`` is
    missing has no corpus, and every seed refuses it.
    """

    name: str
    corpus: textproc.ProcessedCorpus | None
    splits: dict
    models: frozenset


def _load_model(cfg: RunConfig, author: _Author, seed: int, method: str):
    """The (seed, method) model of an author; a ConfigError naming the file
    when its vocabulary size or order differs from the author's
    ``.corpus``."""
    path = _model_path(cfg, author.name, seed, method)
    model = _load(nnlm.load_model if method == "nnlm" else kn.load_model, path)
    shape = (author.corpus.vocabulary.size, author.corpus.order)
    if (model.vocab_size, model.order) != shape:
        raise ConfigError(
            f"{path}: model vocabulary size {model.vocab_size} and order {model.order}, "
            f"preprocess outputs {shape[0]} and {shape[1]} (retrain after preprocess)"
        )
    return model


def _inventory(cfg: RunConfig) -> list[_Author]:
    """Every author's inventory; a ConfigError when no author has a
    ``.corpus``."""
    authors, missing = [], []
    for path in _author_files(cfg):
        name = path.stem
        corpus_path = cfg.output_dir / "preprocess" / f"{name}.corpus"
        models = frozenset(
            (seed, method)
            for seed in cfg.seeds
            for method in METHODS
            if _model_path(cfg, name, seed, method).exists()
        )
        if not corpus_path.exists():  # preprocess failed for this author
            missing.append(corpus_path)
            refused = dict.fromkeys(cfg.seeds, ValueError(f"missing {corpus_path}"))
            authors.append(_Author(name, None, refused, models))
            continue
        corpus = _load(textproc.load_processed, corpus_path)
        splits = {}
        for seed in cfg.seeds:
            try:
                splits[seed] = textproc.split(len(corpus.sentences), seed, cfg.split["ratios"])
            except ValueError as exc:
                splits[seed] = exc
        authors.append(_Author(name, corpus, splits, models))
    if len(missing) == len(authors):
        raise ConfigError(f"missing {missing[0]} (run `authorlm preprocess` first)")
    return authors


class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception that ``run`` raised in a
    worker; the exception is raised from it."""


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data) :]


def _keep_freed_memory(libc) -> None:
    """Have glibc's malloc keep what this process frees, where ``libc``
    has ``mallopt``.  Its defaults map each block past a dynamic threshold
    that starts at 128 KiB (an NNLM batch's (100, V) arrays at V of about
    2,000, and the gradient vector) and hand freed heap tops back, so every
    batch faulted its pages in again.  No block is mapped below 32 MiB,
    glibc's 64-bit maximum, which also ends the dynamic threshold, and no
    heap top below 256 MiB is returned."""
    if mallopt := getattr(libc, "mallopt", None):
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _work(items, run, tasks: int, feed: int, out: int, stage_pid: int) -> None:
    """A forked worker: runs each item whose index it reads from ``tasks``
    and writes its record to ``out``: the length of the pickled (index,
    result, raised exception and its traceback, distinct warnings), then
    its bytes.  Ends the process instead of returning."""
    code = 1
    try:
        libc = ctypes.CDLL(None)
        # an idle worker would wait on ``tasks`` forever once the stage
        # process is gone, so on Linux the kernel kills it when that dies
        if prctl := getattr(libc, "prctl", None):
            prctl(1, ctypes.c_ulong(9))  # PR_SET_PDEATHSIG, SIGKILL
        # only the workers: the stage process keeps glibc's defaults, so
        # the peak RSS of ``eval`` and ``experiment`` does not move
        _keep_freed_memory(libc)
        os.close(feed)  # or ``tasks`` would never end
        while os.getppid() == stage_pid and (index := os.read(tasks, 4)):
            i = int.from_bytes(index, "little")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome = run(*items[i]), None
                except Exception as exc:  # sent with its traceback, which pickling drops
                    import traceback

                    outcome = None, (exc, traceback.format_exc())
            shown = dict.fromkeys((str(w.message), w.category, w.filename, w.lineno) for w in caught)
            record = pickle.dumps((i, *outcome, list(shown)))
            _write_all(out, len(record).to_bytes(4, "little") + record)
        code = 0
    finally:
        os._exit(code)


def _receive(selector, workers: dict, outcomes: dict) -> bool:
    """Wait for the workers' result pipes, put each whole record that has
    come in ``outcomes`` and reap each worker that has closed its pipe;
    True if one of those ended with a non-zero code."""
    died = False
    for key, _ in selector.select():
        buffer = key.data
        buffer += (chunk := os.read(key.fd, 1 << 16))
        while len(buffer) >= 4 + (size := int.from_bytes(buffer[:4], "little")):
            record = pickle.loads(buffer[4 : 4 + size])
            outcomes[record[0]] = record[1:]
            del buffer[: 4 + size]
        if not chunk:
            selector.unregister(key.fd)
            os.close(key.fd)
            died |= os.waitpid(workers.pop(key.fd), 0)[1] != 0
    return died


def _run_items(stage: str, cfg: RunConfig, authors: list[_Author], run) -> list[Exception]:
    """Call ``run(author_index, author, seed, split)`` for every (author,
    seed) whose split exists; ``run`` returns None or the item's exception.
    Prints one line per item in (author, seed) order as soon as its turn
    comes, a failed or refused one with its error on stderr, and returns
    those errors; an exception that ``run`` raised is raised in its turn.

    Forks one worker per usable CPU, up to the item count, which takes item
    indices from one pipe, filled and closed here, and sends its records
    back on its own pipe.  A worker that dies (killed, out of memory) or
    ends with items unreported ends the stage with a ConfigError naming the
    first unfinished item.  No worker outlives this call."""
    import selectors  # here, so that the other stages do not pay for it

    items = [(ai, a, seed, a.splits[seed]) for ai, a in enumerate(authors) for seed in cfg.seeds]
    runnable = {i for i, item in enumerate(items) if not isinstance(item[3], ValueError)}
    errors, shown, outcomes, dead = [], {}, {}, False
    workers = {}  # the read end of each live worker's result pipe -> its pid
    selector = selectors.DefaultSelector()
    stage_pid, (tasks, feed) = os.getpid(), os.pipe()
    sys.stdout.flush()  # a forked child must not write the parent's buffered lines again
    sys.stderr.flush()
    try:
        for _ in range(min(len(runnable), len(os.sched_getaffinity(0)))):
            results, out = os.pipe()
            if (pid := os.fork()) == 0:
                _work(items, run, tasks, feed, out, stage_pid)
            os.close(out)
            workers[results] = pid
            selector.register(results, selectors.EVENT_READ, bytearray())
        # 4 bytes an index, and a pipe holds whole indices (a write of up to
        # PIPE_BUF bytes is atomic, and Linux fills whole pages beyond that),
        # so a worker's 4-byte read takes one whole index
        _write_all(feed, b"".join(i.to_bytes(4, "little") for i in sorted(runnable)))
        os.close(feed)
        feed = None
        for i, (_, author, seed, exc) in enumerate(items):
            while i in runnable and i not in outcomes:
                if dead or not workers:
                    raise ConfigError(f"a worker process died before {author.name} seed {seed} finished")
                dead |= _receive(selector, workers, outcomes)
            if i in outcomes:
                exc, raised, caught = outcomes[i]
                if raised is not None:
                    raise raised[0] from _WorkerTraceback(raised[1])
                for text, category, filename, lineno in caught:
                    warnings.warn_explicit(text, category, filename, lineno, registry=shown)
            if exc is None:
                print(f"{stage}: {author.name} seed {seed}: done")
            else:
                errors.append(exc)
                print(f"{stage}: {author.name} seed {seed}: {exc}", file=sys.stderr)
    finally:  # a worker still running is killed; each is reaped
        for fd, pid in workers.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(fd)
        selector.close()
        os.close(tasks)
        if feed is not None:
            os.close(feed)
    return errors


def _write_perplexity_summary(path: Path, per_method: dict) -> dict:
    """Mean and std of each method's perplexities, as CSV rows and a dict."""
    rows, summary = [], {}
    for method, values in per_method.items():
        mean, std = evaluation.mean_std_or_single(values)
        rows.append([method, repr(mean), repr(std), evaluation.format_mean_std(mean, std)])
        summary[method] = {"mean": mean, "std": std}
    files.write_csv(path, ["method", "mean", "std", "display"], rows)
    return summary


def _write_accuracy_summary(path: Path, curves: dict, counts=None) -> dict:
    """Mean and std over seeds of each method's accuracy at each sentence
    count (``counts``, or every count the curves have), as CSV rows and a
    dict; ``curves[method]`` holds one {count: accuracy} dict per seed."""
    rows, summary = [], defaultdict(dict)
    for method, per_seed in curves.items():
        for s in counts or sorted({s for curve in per_seed for s in curve}):
            mean, std = evaluation.mean_std_or_single([curve[s] for curve in per_seed])
            rows.append([method, s, repr(float(mean)), repr(float(std))])
            summary[method][str(s)] = {"mean": mean, "std": std}
    files.write_csv(path, ["method", "s", "mean_acc", "std_acc"], rows)
    return dict(summary)


def _write_confusion(path: Path, matrix, author_ids) -> None:
    rows = ([author, *map(int, row)] for author, row in zip(author_ids, matrix))
    files.write_csv(path, ["true\\predicted", *author_ids], rows)


# ---------------------------------------------------------------------------
# commands

def cmd_synth(cfg: RunConfig) -> int:
    s = cfg.synth
    lexicon = synthetic.default_lexicon(s["lexicon_size"])
    try:
        authors = [
            synthetic.random_markov_author(
                f"author{i:02d}",
                lexicon,
                seed=derive_seed(s["seed"], i, 1),
                concentration=s["concentration"],
                length_range=tuple(s["length_range"]),
            )
            for i in range(s["authors"])
        ]
        corpora = synthetic.generate_synthetic_corpus(authors, s["seed"], s["sentences"])
    except ValueError as exc:  # a backstop: validate checks every synth setting's range
        raise ConfigError(str(exc)) from None
    cfg.corpus_dir.mkdir(parents=True, exist_ok=True)
    for corpus in corpora:
        path = cfg.corpus_dir / f"{corpus.author_id}.txt"
        files.write_file(path, "\n".join(corpus.sentences) + "\n")
        print(f"synth: wrote {path} ({len(corpus.sentences)} sentences)")
    return EXIT_OK


def cmd_preprocess(cfg: RunConfig) -> int:
    author_files = _author_files(cfg)
    order, stemming, threshold = (
        cfg.pipeline[key] for key in ("order", "stemming", "prune_threshold")
    )
    out = _stage_dir(cfg, "preprocess")

    rows = []
    code = EXIT_OK
    for path in author_files:
        author = path.stem
        try:
            raw = textproc.read_corpus_file(path)
            raw_tokens = textproc.preprocess_sentences(raw.sentences, stemming=False)
            tokens = textproc.stem_sentences(raw_tokens) if stemming else raw_tokens
            vocab = textproc.build_vocabulary(tokens, threshold)
            processed = textproc.encode(tokens, vocab, order, stemming, threshold)
            textproc.save_vocabulary(vocab, out / f"{author}.vocab.tsv")
            textproc.save_processed(processed, out / f"{author}.corpus")
        except (OSError, ValueError) as exc:
            print(f"preprocess: {author}: {exc}", file=sys.stderr)
            code = EXIT_PARTIAL
            continue
        coverage = textproc.top_k_coverage(processed, (500, 1000, 2000))
        rows.append([
            author, len(raw.sentences), sum(len(s) for s in tokens),
            len({t for s in raw_tokens for t in s}), len({t for s in tokens for t in s}),
            vocab.size - 3, *(repr(coverage[k]) for k in (500, 1000, 2000)),
        ])
        print(f"preprocess: {author}: V={vocab.size - 3} (+3 reserved)")
    files.write_csv(
        out / "stats.csv",
        [
            "author", "sentences", "tokens", "raw_vocab", "stemmed_vocab",
            "pruned_vocab", "coverage_500", "coverage_1000", "coverage_2000",
        ],
        rows,
    )
    return code


def cmd_train_nnlm(cfg: RunConfig) -> int:
    authors = _inventory(cfg)
    _stage_dir(cfg, "models")
    logs = _stage_dir(cfg, "logs")

    def run(ai, author, seed, split):
        corpus = author.corpus
        train_samples = textproc.extract_samples(corpus, split.train)
        val_samples = textproc.extract_samples(corpus, split.validation)
        # a vocabulary too small for the network, divergence or an output
        # that cannot be written is this item's failure
        try:
            model_cfg = cfg.nnlm_config(corpus.vocabulary.size, corpus.order, derive_seed(seed, ai, 1))
            model, history = nnlm.train(model_cfg, train_samples, val_samples)
            nnlm.save_model(model, _model_path(cfg, author.name, seed, "nnlm"))
            files.write_csv(
                logs / f"{author.name}_{seed}.train.csv",
                ["epoch", "train_loss", "validation_loss"],
                [[e.epoch, repr(e.train_loss), repr(e.validation_loss)] for e in history],
            )
        except (OSError, ValueError, nnlm.TrainingDiverged) as exc:
            return exc
        return None

    errors = _run_items("train-nnlm", cfg, authors, run)
    if any(isinstance(exc, nnlm.TrainingDiverged) for exc in errors):
        return EXIT_DIVERGED
    return EXIT_PARTIAL if errors else EXIT_OK


def cmd_train_ngram(cfg: RunConfig) -> int:
    authors = _inventory(cfg)
    _stage_dir(cfg, "models")

    def run(ai, author, seed, split):
        corpus = author.corpus
        model = kn.train_model(corpus.sentences.take(split.train), corpus.order, corpus.vocabulary.size)
        try:
            kn.save_model(model, _model_path(cfg, author.name, seed, "kn"))
        except OSError as exc:  # a model that cannot be written is this item's failure
            return exc
        return None

    return EXIT_PARTIAL if _run_items("train-ngram", cfg, authors, run) else EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    """Test perplexity of every (author, seed, method) that has a model."""
    items, skipped = [], []
    for author in _inventory(cfg):
        for seed in cfg.seeds:
            split = author.splits[seed]
            if isinstance(split, ValueError):
                skipped.append(f"{author.name} seed {seed}: {split}")
                continue
            for method in METHODS:
                if (seed, method) in author.models:
                    items.append((author, seed, split, method))
                else:
                    path = _model_path(cfg, author.name, seed, method)
                    skipped.append(f"{author.name} seed {seed} {method}: missing {path}")
    if not items:
        raise ConfigError(
            f"nothing to evaluate: {skipped[0]} (run `authorlm train-nnlm / train-ngram` first)"
        )
    out = _stage_dir(cfg, "eval")

    rows = []
    per_method = {method: [] for method in METHODS}
    for author, seed, split, method in items:
        model = _load_model(cfg, author, seed, method)
        try:
            perplexity = evaluation.perplexity(model, author.corpus.sentences.take(split.test)).perplexity
        except ValueError as exc:
            raise ConfigError(f"{_model_path(cfg, author.name, seed, method)}: {exc}") from None
        rows.append([author.name, seed, method, repr(perplexity)])
        per_method[method].append(perplexity)
        print(f"eval: {author.name} seed {seed} {method}: PP={perplexity:.2f}")
    files.write_csv(out / "perplexity.csv", ["author", "seed", "method", "perplexity"], rows)
    summary = _write_perplexity_summary(
        out / "perplexity_summary.csv", {m: v for m, v in per_method.items() if v}
    )
    for method, s in summary.items():
        print(f"eval: {method} test perplexity {evaluation.format_mean_std(s['mean'], s['std'])}")
    # only now, so that refusing a model, its score or an output is the one stderr line
    for line in skipped:
        print(f"eval: {line}", file=sys.stderr)
    return EXIT_PARTIAL if skipped else EXIT_OK


def _sweep_seed(cfg: RunConfig, authors: list[_Author], seed: int, methods: list[str]) -> list:
    """One ``ExperimentReport`` per method of the seed, from one sweep over
    every method's candidates; a ConfigError naming the model whose score
    is not finite."""
    exp = cfg.experiment
    pools = {a.name: a.corpus.tokens(a.splits[seed].test) for a in authors}
    candidates = [
        [evaluation.AuthorModel(a.name, _load_model(cfg, a, seed, method), a.corpus.vocabulary) for a in authors]
        for method in methods
    ]
    try:
        return evaluation.accuracy_sweep(
            candidates, pools, exp["sentence_counts"], exp["trials"],
            seed=seed, excluded_authors=exp["excluded_authors"],
        )
    except evaluation.NonFiniteScore as exc:
        method, author = divmod(exc.candidate, len(authors))
        path = _model_path(cfg, authors[author].name, seed, methods[method])
        raise ConfigError(f"{path}: {exc}") from None


def cmd_experiment(cfg: RunConfig) -> int:
    """Attribution sweeps over every author whose text splits, for each
    (method, seed) that has all of those authors' models; one pass per
    seed scores all of its methods.

    A seed's test pools are the preprocessed tokens of its test sentences,
    as the author's ``.corpus`` keeps them (the token behind each unknown
    id included), because classification re-encodes them under every
    candidate's vocabulary; they are decoded only for a seed that has a
    sweep.
    """
    exp = cfg.experiment
    need = max(exp["sentence_counts"], default=0)
    authors, skipped = [], []
    for author in _inventory(cfg):
        refused = [s for s in author.splits.values() if isinstance(s, ValueError)]
        if refused:
            skipped.append(f"{author.name}: left out, {refused[0]}")
            continue
        for seed, split in author.splits.items():
            if len(split.test) < need:
                raise ConfigError(
                    f"author {author.name!r} seed {seed} has {len(split.test)} "
                    f"test sentences, fewer than sentence count {need}"
                )
        authors.append(author)
    if not authors:
        raise ConfigError(f"no author has a test pool: {skipped[0]}")
    sweeps, unrunnable = [], []
    for method in METHODS:
        for seed in cfg.seeds:
            missing = [a.name for a in authors if (seed, method) not in a.models]
            if missing:
                unrunnable.append(f"{method} seed {seed}: skipped, no model for {', '.join(missing)}")
                # an earlier run's results for this sweep must not reach report
                for kind in ("trials", "confusion"):
                    (cfg.output_dir / "experiment" / f"{kind}_{method}_{seed}.csv").unlink(missing_ok=True)
            else:
                sweeps.append((method, seed))
    if not sweeps:
        raise ConfigError(
            f"no sweep can run: {unrunnable[0]} (run `authorlm train-nnlm / train-ngram` first)"
        )
    skipped += unrunnable
    out = _stage_dir(cfg, "experiment")
    reports = {}
    for seed in cfg.seeds:
        methods = [m for m, s in sweeps if s == seed]
        if methods:
            reports.update(zip(((m, seed) for m in methods), _sweep_seed(cfg, authors, seed, methods)))

    curves = defaultdict(list)
    for method, seed in sweeps:
        report = reports[method, seed]
        files.write_csv(
            out / f"trials_{method}_{seed}.csv",
            ["method", "seed", "author", "sentence_count", "trial", "predicted", "correct"],
            ([method, seed, r.author_id, r.sentence_count, r.trial, r.predicted_author,
              int(r.correct)] for r in report.records),
        )
        _write_confusion(
            out / f"confusion_{method}_{seed}.csv", report.confusion(), report.author_ids
        )
        curve = report.accuracy_by_count()
        curves[method].append(curve)
        shown = {s: round(a, 3) for s, a in curve.items()}
        print(f"experiment: {method} seed {seed}: accuracy {shown}")

    summary = _write_accuracy_summary(out / "summary.csv", curves, exp["sentence_counts"])
    methods = {m: {"accuracy_by_count": acc} for m, acc in summary.items()}
    files.write_json(
        out / "summary.json",
        {"seeds": cfg.seeds, "excluded_authors": exp["excluded_authors"], "methods": methods},
    )
    # only now, so that refusing a model, its score or an output is the one stderr line
    for line in skipped:
        print(f"experiment: {line}", file=sys.stderr)
    return EXIT_PARTIAL if skipped else EXIT_OK


def _read_rows(path: Path, columns: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The ``columns`` of every row of a ``write_csv`` file; a ValueError
    for a missing column or a short row."""
    rows = []
    for n, row in enumerate(files.read_csv(path), 1):
        values = tuple(row.get(c) for c in columns)
        if None in values:
            raise ValueError(f"{path}: data row {n} lacks column {columns[values.index(None)]!r}")
        rows.append(values)
    return rows


def _read_trials(path: Path) -> list[evaluation.TrialRecord]:
    """The rows of one ``trials_<method>_<seed>.csv`` as records."""
    return [
        evaluation.TrialRecord(author, int(count), int(trial), predicted)
        for author, count, trial, predicted in _read_rows(
            path, ("author", "sentence_count", "trial", "predicted")
        )
    ]


def _read_perplexities(path: Path) -> list[tuple[str, float]]:
    return [(method, float(p)) for method, p in _read_rows(path, ("method", "perplexity"))]


def cmd_report(cfg: RunConfig) -> int:
    """Aggregate eval and experiment outputs into one summary directory.

    Reads back the sweeps experiment wrote for every method and configured
    seed and aggregates them only through ``evaluation.ExperimentReport``:
    each sweep's accuracy curve, seeds in ``split.seeds`` order as in
    experiment, and one confusion pooled over a method's sweeps, which
    counts the excluded authors that the accuracy leaves out.
    """
    eval_csv = cfg.output_dir / "eval" / "perplexity.csv"
    if not eval_csv.exists():
        raise ConfigError(f"missing {eval_csv} (run `authorlm eval` first)")
    exp_dir = cfg.output_dir / "experiment"
    sweeps = defaultdict(list)  # method -> one record list per seed
    for method in sorted(METHODS):
        for seed in cfg.seeds:
            if (path := exp_dir / f"trials_{method}_{seed}.csv").exists():
                sweeps[method].append(_load(_read_trials, path))
    if not sweeps:
        raise ConfigError(f"no experiment trial files under {exp_dir}")
    out = _stage_dir(cfg, "report")

    perps = defaultdict(list)
    for method, perplexity in _load(_read_perplexities, eval_csv):
        perps[method].append(perplexity)
    perp_json = _write_perplexity_summary(
        out / "perplexity_summary.csv", {m: perps[m] for m in sorted(perps)}
    )

    authors = tuple(sorted({r.author_id for seeds in sweeps.values() for rs in seeds for r in rs}))
    excluded = tuple(cfg.experiment["excluded_authors"])
    curves = {}
    for method, per_seed in sweeps.items():
        pooled = tuple(r for recs in per_seed for r in recs)
        counts = tuple(sorted({r.sentence_count for r in pooled}))
        curves[method] = [
            evaluation.ExperimentReport(authors, counts, excluded, tuple(recs)).accuracy_by_count()
            for recs in per_seed
        ]
        if pooled:
            confusion = evaluation.ExperimentReport(authors, counts, excluded, pooled).confusion()
            _write_confusion(out / f"confusion_{method}.csv", confusion, authors)
    acc_json = _write_accuracy_summary(out / "accuracy_summary.csv", curves)
    files.write_json(out / "summary.json", {"perplexity": perp_json, "accuracy": acc_json})
    print(f"report: wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {
    "synth": (cmd_synth, False),
    "preprocess": (cmd_preprocess, True),
    "train-nnlm": (cmd_train_nnlm, True),
    "train-ngram": (cmd_train_ngram, True),
    "eval": (cmd_eval, True),
    "experiment": (cmd_experiment, True),
    "report": (cmd_report, False),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, with the configuration-error code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="authorlm",
        description="Per-author language models compared by perplexity "
        "and closed-set attribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set nnlm.max_epochs=5",
        )
        p.add_argument("--corpus-dir", help="override corpus_dir")
        p.add_argument("--output-dir", help="override output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fn, need_corpus = _COMMANDS[args.command]
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg.apply_override(key, value)
        if args.corpus_dir:
            cfg.data["corpus_dir"] = args.corpus_dir
        if args.output_dir:
            cfg.data["output_dir"] = args.output_dir
        cfg.validate(need_corpus=need_corpus)
        code = fn(cfg)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except ConfigError as exc:
        print(f"authorlm {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # Python's recipe for a closed stdout (``| head -1``): the stage stops
        # at its next line, and since the interpreter flushes stdout again at
        # exit, stdout is first pointed at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except OSError as exc:  # e.g. a directory where a summary file goes
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"authorlm {args.command}: {message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
