"""Command-line pipeline driver.

Subcommands: synth, preprocess, train-nnlm, train-ngram, eval, experiment,
report.  Outputs land under ``<output_dir>/<stage>/`` with file names of
the form ``<author>_<seed>.<ext>`` so runs are scriptable.  Exit codes:
0 success, 1 configuration or usage error, 2 partial failure, 3 divergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import evaluation, kn, nnlm, porter, synthetic, textproc
from .config import ConfigError, RunConfig
from .prng import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_DIVERGED = 3

METHODS = ("nnlm", "kn")


def _author_files(cfg: RunConfig) -> list[Path]:
    files = sorted(cfg.corpus_dir.glob("*.txt"))
    if not files:
        raise ConfigError(f"no author files (*.txt) in {cfg.corpus_dir}")
    return files


def _stage_dir(cfg: RunConfig, stage: str) -> Path:
    path = cfg.output_dir / stage
    path.mkdir(parents=True, exist_ok=True)
    return path


def _vocab_path(cfg: RunConfig, author: str) -> Path:
    return cfg.output_dir / "preprocess" / f"{author}.vocab.tsv"


def _corpus_path(cfg: RunConfig, author: str) -> Path:
    return cfg.output_dir / "preprocess" / f"{author}.corpus.txt"


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


def _load_vocabulary(cfg: RunConfig, author: str) -> textproc.Vocabulary:
    return _load(textproc.load_vocabulary, _vocab_path(cfg, author))


def _load_processed(cfg: RunConfig, author: str):
    vocab = _load_vocabulary(cfg, author)
    processed = _load(textproc.load_processed, _corpus_path(cfg, author), vocab)
    return vocab, processed


def _require(path: Path, hint: str) -> None:
    if not path.exists():
        raise ConfigError(f"missing {path} (run `{hint}` first)")


def _report_items(stage: str, results) -> int:
    """Print one line per (author, seed, error-or-None) work item; a failed
    item goes to stderr and makes the stage a partial failure."""
    code = EXIT_OK
    for author, seed, exc in results:
        if exc is None:
            print(f"{stage}: {author} seed {seed}: done")
        else:
            print(f"{stage}: {author} seed {seed}: {exc}", file=sys.stderr)
            code = EXIT_PARTIAL
    return code


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(evaluation.timestamp_line() + "\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


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
        path.write_text("\n".join(corpus.sentences) + "\n", encoding="utf-8")
        print(f"synth: wrote {path} ({len(corpus.sentences)} sentences)")
    return EXIT_OK


def cmd_preprocess(cfg: RunConfig) -> int:
    files = _author_files(cfg)
    pipeline = cfg.pipeline
    order = pipeline["order"]
    stemming = pipeline["stemming"]
    threshold = pipeline["prune_threshold"]
    out = _stage_dir(cfg, "preprocess")

    rows = []
    failures = []
    for path in files:
        author = path.stem
        try:
            raw = textproc.read_corpus_file(path)
            raw_tokens = [textproc.tokenize(line) for line in raw.sentences]
            tokens = (
                [[porter.stem(t) for t in sent] for sent in raw_tokens]
                if stemming
                else raw_tokens
            )
            vocab = textproc.build_vocabulary(tokens, threshold)
            processed = textproc.encode(tokens, vocab, order, stemming, threshold)
            textproc.save_vocabulary(vocab, _vocab_path(cfg, author))
            textproc.save_processed(processed, _corpus_path(cfg, author))
        except (OSError, ValueError) as exc:
            failures.append((author, exc))
            print(f"preprocess: {author}: {exc}", file=sys.stderr)
            continue
        coverage = textproc.top_k_coverage(processed, (500, 1000, 2000))
        n_tokens = sum(len(s) for s in tokens)
        rows.append(
            [
                author,
                len(raw.sentences),
                n_tokens,
                len({t for sent in raw_tokens for t in sent}),
                len({t for sent in tokens for t in sent}),
                vocab.size - 3,
                repr(coverage[500]),
                repr(coverage[1000]),
                repr(coverage[2000]),
            ]
        )
        print(f"preprocess: {author}: V={vocab.size - 3} (+3 reserved)")
    _write_csv(
        out / "stats.csv",
        [
            "author", "sentences", "tokens", "raw_vocab", "stemmed_vocab",
            "pruned_vocab", "coverage_500", "coverage_1000", "coverage_2000",
        ],
        rows,
    )
    return EXIT_PARTIAL if failures else EXIT_OK


def _train_inputs(cfg: RunConfig):
    files = _author_files(cfg)
    for path in files:
        _require(_vocab_path(cfg, path.stem), "authorlm preprocess")
        _require(_corpus_path(cfg, path.stem), "authorlm preprocess")
    return [path.stem for path in files]


def cmd_train_nnlm(cfg: RunConfig) -> int:
    authors = _train_inputs(cfg)
    _stage_dir(cfg, "models")
    _stage_dir(cfg, "logs")
    ratios = cfg.split["ratios"]

    def run(ai, author, seed):
        vocab, processed = _load_processed(cfg, author)
        try:
            assignment = textproc.split(len(processed), seed, ratios)
        except ValueError as exc:  # too few sentences for this author
            return (author, seed, exc)
        train_samples = textproc.extract_samples(processed, assignment.train)
        val_samples = textproc.extract_samples(processed, assignment.validation)
        model_cfg = cfg.nnlm_config(vocab.size, processed.order, derive_seed(seed, ai, 1))
        try:
            model, history = nnlm.train(model_cfg, train_samples, val_samples)
        except nnlm.TrainingDiverged as exc:
            return (author, seed, exc)
        nnlm.save_model(model, _model_path(cfg, author, seed, "nnlm"))
        _write_csv(
            cfg.output_dir / "logs" / f"{author}_{seed}.train.csv",
            ["epoch", "train_loss", "validation_loss"],
            [[e.epoch, repr(e.train_loss), repr(e.validation_loss)] for e in history],
        )
        return (author, seed, None)

    results = [
        run(ai, author, seed) for ai, author in enumerate(authors) for seed in cfg.seeds
    ]
    code = _report_items("train-nnlm", results)
    if any(isinstance(exc, nnlm.TrainingDiverged) for _, _, exc in results):
        return EXIT_DIVERGED
    return code


def cmd_train_ngram(cfg: RunConfig) -> int:
    authors = _train_inputs(cfg)
    _stage_dir(cfg, "models")
    ratios = cfg.split["ratios"]

    def run(author, seed):
        vocab, processed = _load_processed(cfg, author)
        try:
            assignment = textproc.split(len(processed), seed, ratios)
        except ValueError as exc:  # too few sentences for this author
            return (author, seed, exc)
        sentences = [processed.sentences[i] for i in assignment.train]
        model = kn.train_model(sentences, processed.order, vocab.size)
        kn.save_model(model, _model_path(cfg, author, seed, "kn"))
        return (author, seed, None)

    results = [run(author, seed) for author in authors for seed in cfg.seeds]
    return _report_items("train-ngram", results)


def _load_model(cfg: RunConfig, author: str, seed: int, method: str):
    path = _model_path(cfg, author, seed, method)
    train_cmd = "authorlm train-nnlm" if method == "nnlm" else "authorlm train-ngram"
    _require(path, train_cmd)
    return _load(nnlm.load_model if method == "nnlm" else kn.load_model, path)


def cmd_eval(cfg: RunConfig) -> int:
    authors = _train_inputs(cfg)
    for author in authors:
        for seed in cfg.seeds:
            for method in METHODS:
                _require(
                    _model_path(cfg, author, seed, method),
                    "authorlm train-nnlm / train-ngram",
                )
    out = _stage_dir(cfg, "eval")
    ratios = cfg.split["ratios"]

    rows = []
    per_method = defaultdict(list)
    for author in authors:
        vocab, processed = _load_processed(cfg, author)
        for seed in cfg.seeds:
            assignment = textproc.split(len(processed), seed, ratios)
            test_sentences = [processed.sentences[i] for i in assignment.test]
            for method in METHODS:
                model = _load_model(cfg, author, seed, method)
                report = evaluation.perplexity(model, test_sentences)
                rows.append([author, seed, method, repr(report.perplexity)])
                per_method[method].append(report.perplexity)
                print(f"eval: {author} seed {seed} {method}: PP={report.perplexity:.2f}")
    _write_csv(out / "perplexity.csv", ["author", "seed", "method", "perplexity"], rows)

    summary_rows = []
    for method in METHODS:
        mean, std = evaluation.mean_std_or_single(per_method[method])
        summary_rows.append(
            [method, repr(mean), repr(std), evaluation.format_mean_std(mean, std)]
        )
        print(f"eval: {method} test perplexity {evaluation.format_mean_std(mean, std)}")
    _write_csv(
        out / "perplexity_summary.csv", ["method", "mean", "std", "display"], summary_rows
    )
    return EXIT_OK


def _test_pools(cfg: RunConfig, authors: list[str]) -> dict[int, dict[str, list]]:
    """Per-seed, per-author stemmed test sentences.

    Pools come from the raw text (tokenize + stem only), not from the
    encoded corpus, because classification re-encodes them under every
    candidate's vocabulary.  Each author file is read once, and only the
    lines of a seed's test part are stemmed.
    """
    ratios = cfg.split["ratios"]
    stemming = cfg.pipeline["stemming"]
    pools = {seed: {} for seed in cfg.seeds}
    for author in authors:
        raw = textproc.read_corpus_file(cfg.corpus_dir / f"{author}.txt")
        for seed in cfg.seeds:
            assignment = textproc.split(len(raw.sentences), seed, ratios)
            pools[seed][author] = textproc.preprocess_sentences(
                [raw.sentences[i] for i in assignment.test], stemming=stemming
            )
    return pools


def cmd_experiment(cfg: RunConfig) -> int:
    authors = _train_inputs(cfg)
    exp = cfg.experiment
    sentence_counts = exp["sentence_counts"]
    excluded = exp["excluded_authors"]
    for author in authors:
        for seed in cfg.seeds:
            for method in METHODS:
                _require(
                    _model_path(cfg, author, seed, method),
                    "authorlm train-nnlm / train-ngram",
                )
    pools = _test_pools(cfg, authors)
    need = max(sentence_counts, default=0)
    for seed, seed_pools in pools.items():
        for author, pool in seed_pools.items():
            if len(pool) < need:
                raise ConfigError(
                    f"author {author!r} seed {seed} has {len(pool)} "
                    f"test sentences, fewer than sentence count {need}"
                )
    out = _stage_dir(cfg, "experiment")

    vocabs = {author: _load_vocabulary(cfg, author) for author in authors}
    accuracy_curves = defaultdict(list)
    json_summary = {"seeds": cfg.seeds, "excluded_authors": excluded, "methods": {}}
    for method in METHODS:
        for seed in cfg.seeds:
            candidates = [
                evaluation.AuthorModel(
                    author_id=author,
                    model=_load_model(cfg, author, seed, method),
                    vocabulary=vocabs[author],
                )
                for author in authors
            ]
            report = evaluation.accuracy_sweep(
                candidates,
                pools[seed],
                sentence_counts,
                exp["trials"],
                seed=seed,
                excluded_authors=excluded,
            )
            evaluation.write_trials_csv(
                report, out / f"trials_{method}_{seed}.csv", method
            )
            evaluation.write_confusion_csv(
                report.confusion(),
                report.author_ids,
                out / f"confusion_{method}_{seed}.csv",
            )
            curve = report.accuracy_by_count()
            accuracy_curves[method].append(curve)
            shown = {s: round(a, 3) for s, a in curve.items()}
            print(f"experiment: {method} seed {seed}: accuracy {shown}")

    summary_rows = []
    for method in METHODS:
        curves = accuracy_curves[method]
        method_summary = {}
        for s in sentence_counts:
            mean, std = evaluation.mean_std_or_single([c[s] for c in curves])
            summary_rows.append((method, s, mean, std))
            method_summary[str(s)] = {"mean": mean, "std": std}
        json_summary["methods"][method] = {"accuracy_by_count": method_summary}
    evaluation.write_summary_csv(summary_rows, out / "summary.csv")
    evaluation.write_json_summary(json_summary, out / "summary.json")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    """Aggregate eval and experiment outputs into one summary directory."""
    eval_csv = cfg.output_dir / "eval" / "perplexity.csv"
    _require(eval_csv, "authorlm eval")
    trial_files = sorted((cfg.output_dir / "experiment").glob("trials_*.csv"))
    if not trial_files:
        raise ConfigError(
            f"no experiment trial files under {cfg.output_dir / 'experiment'}"
        )
    out = _stage_dir(cfg, "report")

    perps = defaultdict(list)
    with open(eval_csv, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(line for line in f if not line.startswith("#")):
            perps[row["method"]].append(float(row["perplexity"]))
    perp_rows = []
    perp_json = {}
    for method in sorted(perps):
        mean, std = evaluation.mean_std_or_single(perps[method])
        perp_rows.append([method, repr(mean), repr(std), evaluation.format_mean_std(mean, std)])
        perp_json[method] = {"mean": mean, "std": std}
    _write_csv(
        out / "perplexity_summary.csv", ["method", "mean", "std", "display"], perp_rows
    )

    # (method, seed) -> accuracy curve; (method,) -> pooled confusion counts
    curves = defaultdict(dict)
    confusion = {}
    author_set = set()
    for path in trial_files:
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(line for line in f if not line.startswith("#")):
                author_set.add(row["author"])
                key = (row["method"], int(row["seed"]))
                s = int(row["sentence_count"])
                hits, total = curves[key].get(s, (0, 0))
                curves[key][s] = (hits + int(row["correct"]), total + 1)
                confusion.setdefault(row["method"], defaultdict(int))[
                    (row["author"], row["predicted"])
                ] += 1
    authors = sorted(author_set)
    acc_rows = []
    acc_json = defaultdict(dict)
    methods = sorted({m for m, _ in curves})
    for method in methods:
        per_seed = [curve for (m, _), curve in sorted(curves.items()) if m == method]
        counts = sorted({s for curve in per_seed for s in curve})
        for s in counts:
            mean, std = evaluation.mean_std_or_single(
                [hits / total for curve in per_seed for hits, total in [curve[s]]]
            )
            acc_rows.append((method, s, mean, std))
            acc_json[method][str(s)] = {"mean": mean, "std": std}
        matrix = np.zeros((len(authors), len(authors)), dtype=np.int64)
        for (true, pred), n in confusion[method].items():
            matrix[authors.index(true), authors.index(pred)] += n
        evaluation.write_confusion_csv(matrix, authors, out / f"confusion_{method}.csv")
    evaluation.write_summary_csv(acc_rows, out / "accuracy_summary.csv")
    evaluation.write_json_summary(
        {"perplexity": perp_json, "accuracy": dict(acc_json)}, out / "summary.json"
    )
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
