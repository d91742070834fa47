"""Command-line pipeline driver.

Subcommands: synth, preprocess, train-nnlm, train-ngram, eval, experiment,
report.  Outputs land under ``<output_dir>/<stage>/`` with file names of
the form ``<author>_<seed>.<ext>`` so runs are scriptable; every output is
replaced atomically (``files.write_file``).

The stages after preprocess start from one inventory per author: its
inputs loaded once, each seed's split (or the error that refused it, such
as missing preprocess outputs), and the (seed, method) models on disk.
They work on every item the inventory allows and print one stderr line for
each item they skip.  Exit codes:
0 success, 1 configuration or usage error, a missing or corrupt input, or
nothing to work on; 2 partial failure (some items skipped or failed, the
rest done); 3 divergence.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from . import evaluation, files, kn, nnlm, synthetic, textproc
from .config import ConfigError, RunConfig
from .prng import derive_seed

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
    ext = "nnlm" if method == "nnlm" else "arpa"
    return cfg.output_dir / "models" / f"{author}_{seed}.{ext}"


def _load(loader, path: Path, *args):
    """Run a file loader; a corrupt file becomes a ConfigError naming it."""
    try:
        return loader(path, *args)
    except ValueError as exc:
        message = str(exc)
        raise ConfigError(
            message if str(path) in message else f"{path}: {message}"
        ) from exc


def _load_model(cfg: RunConfig, author: str, seed: int, method: str):
    path = _model_path(cfg, author, seed, method)
    return _load(nnlm.load_model if method == "nnlm" else kn.load_model, path)


@dataclass(frozen=True)
class _Author:
    """One author's inputs to a stage, loaded once.

    ``corpus`` is the encoded preprocess output, or the raw text for the
    attribution sweep; ``splits[seed]`` is that seed's split of it, or the
    ``ValueError`` that refused it; ``models`` holds the (seed, method)
    pairs whose model file exists.  An author whose preprocess outputs are
    missing has no vocabulary or corpus, and every seed refuses it.
    """

    name: str
    vocab: textproc.Vocabulary | None
    corpus: textproc.ProcessedCorpus | textproc.RawCorpus | None
    splits: dict
    models: frozenset


def _inventory(cfg: RunConfig, raw: bool = False) -> list[_Author]:
    """Every author's inventory; ``raw`` reads the author's text file
    instead of the encoded corpus, which is then never opened.  A
    ConfigError when no author has preprocess outputs."""
    authors, missing = [], []
    for path in _author_files(cfg):
        name = path.stem
        vocab_path = cfg.output_dir / "preprocess" / f"{name}.vocab.tsv"
        corpus_path = cfg.output_dir / "preprocess" / f"{name}.corpus.txt"
        models = frozenset(
            (seed, method)
            for seed in cfg.seeds
            for method in METHODS
            if _model_path(cfg, name, seed, method).exists()
        )
        needed = [vocab_path] if raw else [vocab_path, corpus_path]
        absent = [p for p in needed if not p.exists()]
        if absent:  # preprocess failed for this author
            missing.append(absent[0])
            refusal = ValueError(f"missing {absent[0]}")
            authors.append(_Author(name, None, None, dict.fromkeys(cfg.seeds, refusal), models))
            continue
        vocab = _load(textproc.load_vocabulary, vocab_path)
        if raw:
            corpus = _load(textproc.read_corpus_file, path)
        else:
            corpus = _load(textproc.load_processed, corpus_path, vocab)
        splits = {}
        for seed in cfg.seeds:
            try:
                splits[seed] = textproc.split(len(corpus.sentences), seed, cfg.split["ratios"])
            except ValueError as exc:
                splits[seed] = exc
        authors.append(_Author(name, vocab, corpus, splits, models))
    if len(missing) == len(authors):
        raise ConfigError(f"missing {missing[0]} (run `authorlm preprocess` first)")
    return authors


def _run_items(stage: str, cfg: RunConfig, authors: list[_Author], run) -> list[Exception]:
    """Call ``run(author_index, author, seed, split)`` for every (author,
    seed) whose split exists.  Prints one line per item, a failed or
    refused one with its error on stderr, and returns those errors."""
    errors = []
    for ai, author in enumerate(authors):
        for seed in cfg.seeds:
            split = author.splits[seed]
            exc = split if isinstance(split, ValueError) else run(ai, author, seed, split)
            if exc is None:
                print(f"{stage}: {author.name} seed {seed}: done")
            else:
                errors.append(exc)
                print(f"{stage}: {author.name} seed {seed}: {exc}", file=sys.stderr)
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
    except ValueError as exc:  # an out-of-range synth setting
        raise ConfigError(f"synth: {exc}") from None
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
            textproc.save_processed(processed, out / f"{author}.corpus.txt")
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
        processed = author.corpus
        train_samples = textproc.extract_samples(processed, split.train)
        val_samples = textproc.extract_samples(processed, split.validation)
        try:  # a vocabulary too small for the network is this item's failure
            model_cfg = cfg.nnlm_config(author.vocab.size, processed.order, derive_seed(seed, ai, 1))
            model, history = nnlm.train(model_cfg, train_samples, val_samples)
        except (ValueError, nnlm.TrainingDiverged) as exc:
            return exc
        nnlm.save_model(model, _model_path(cfg, author.name, seed, "nnlm"))
        files.write_csv(
            logs / f"{author.name}_{seed}.train.csv",
            ["epoch", "train_loss", "validation_loss"],
            [[e.epoch, repr(e.train_loss), repr(e.validation_loss)] for e in history],
        )
        return None

    errors = _run_items("train-nnlm", cfg, authors, run)
    if any(isinstance(exc, nnlm.TrainingDiverged) for exc in errors):
        return EXIT_DIVERGED
    return EXIT_PARTIAL if errors else EXIT_OK


def cmd_train_ngram(cfg: RunConfig) -> int:
    authors = _inventory(cfg)
    _stage_dir(cfg, "models")

    def run(ai, author, seed, split):
        sentences = [author.corpus.sentences[i] for i in split.train]
        model = kn.train_model(sentences, author.corpus.order, author.vocab.size)
        kn.save_model(model, _model_path(cfg, author.name, seed, "kn"))
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
    for line in skipped:
        print(f"eval: {line}", file=sys.stderr)

    rows = []
    per_method = {method: [] for method in METHODS}
    for author, seed, split, method in items:
        model = _load_model(cfg, author.name, seed, method)
        report = evaluation.perplexity(model, [author.corpus.sentences[i] for i in split.test])
        rows.append([author.name, seed, method, repr(report.perplexity)])
        per_method[method].append(report.perplexity)
        print(f"eval: {author.name} seed {seed} {method}: PP={report.perplexity:.2f}")
    files.write_csv(out / "perplexity.csv", ["author", "seed", "method", "perplexity"], rows)
    summary = _write_perplexity_summary(
        out / "perplexity_summary.csv", {m: v for m, v in per_method.items() if v}
    )
    for method, s in summary.items():
        print(f"eval: {method} test perplexity {evaluation.format_mean_std(s['mean'], s['std'])}")
    return EXIT_PARTIAL if skipped else EXIT_OK


def cmd_experiment(cfg: RunConfig) -> int:
    """Attribution sweeps over every author whose text splits, for each
    (method, seed) that has all of those authors' models.

    Test pools come from the raw text (tokenize + stem only), not from the
    encoded corpus, because classification re-encodes them under every
    candidate's vocabulary; only the lines of a seed's test part are
    stemmed.
    """
    exp = cfg.experiment
    need = max(exp["sentence_counts"], default=0)
    authors, skipped = [], []
    for author in _inventory(cfg, raw=True):
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
    pools = {
        seed: {
            author.name: textproc.preprocess_sentences(
                [author.corpus.sentences[i] for i in author.splits[seed].test],
                stemming=cfg.pipeline["stemming"],
            )
            for author in authors
        }
        for seed in cfg.seeds
    }
    out = _stage_dir(cfg, "experiment")
    for line in skipped:
        print(f"experiment: {line}", file=sys.stderr)

    curves = defaultdict(list)
    for method, seed in sweeps:
        candidates = [
            evaluation.AuthorModel(a.name, _load_model(cfg, a.name, seed, method), a.vocab)
            for a in authors
        ]
        report = evaluation.accuracy_sweep(
            candidates, pools[seed], exp["sentence_counts"], exp["trials"],
            seed=seed, excluded_authors=exp["excluded_authors"],
        )
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
    return EXIT_PARTIAL if skipped else EXIT_OK


def _read_trials(path: Path) -> list[evaluation.TrialRecord]:
    """The rows of one ``trials_<method>_<seed>.csv`` as records."""
    return [
        evaluation.TrialRecord(r["author"], int(r["sentence_count"]), int(r["trial"]), r["predicted"])
        for r in files.read_csv(path)
    ]


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
    for row in files.read_csv(eval_csv):
        perps[row["method"]].append(float(row["perplexity"]))
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
        return fn(cfg)
    except ConfigError as exc:
        print(f"authorlm {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
