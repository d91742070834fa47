"""End-to-end command tests: exit codes, outputs, overrides, determinism."""

import contextlib
import ctypes
import io
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from kn_reference import decode_keys, edit_saved, read_saved, write_saved
from textproc_reference import read_corpus, write_corpus

import authorlm
from authorlm import cli, evaluation, files, kn, nnlm, textproc


def write_config(path, **overrides):
    cfg = {
        "corpus_dir": "corpus",
        "output_dir": "outputs",
        "synth": {
            "authors": 2, "lexicon_size": 12, "sentences": 60, "seed": 3,
            "length_range": [3, 7], "concentration": 0.15,
        },
        "split": {"ratios": [0.8, 0.1, 0.1], "seeds": [0]},
        "nnlm": {
            "embed_dim": 6, "hidden_dim": 10, "batch_size": 32,
            "learning_rate": 0.2, "momentum": 0.9, "max_epochs": 2,
            "patience": 2, "init_scale": 0.1,
        },
        "experiment": {"sentence_counts": [1, 2], "trials": 3, "excluded_authors": []},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "cfg.json")
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def module_env(unset=()):
    """This environment with this package on the path, without ``unset``."""
    src = str(Path(authorlm.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in unset}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_module(*argv, unset=(), **kwargs):
    """``python -m authorlm.cli`` in a subprocess, with this package on the path."""
    return subprocess.run(
        [sys.executable, "-m", "authorlm.cli", *argv],
        capture_output=True, text=True, env=module_env(unset), timeout=120, **kwargs,
    )


class TestConfigErrors:
    def test_missing_config_file(self, workdir):
        assert run("preprocess", "--config", "nope.json") == cli.EXIT_CONFIG

    def test_bad_ratios(self, workdir):
        write_config(workdir / "bad.json", split={"ratios": [0.5, 0.2, 0.2], "seeds": [0]})
        assert run("synth", "--config", "bad.json") == cli.EXIT_CONFIG

    def test_unknown_set_key(self, workdir):
        assert run("synth", "--config", "cfg.json", "--set", "nnlm.bogus=1") == cli.EXIT_CONFIG

    def test_missing_corpus_dir(self, workdir):
        assert run("preprocess", "--config", "cfg.json") == cli.EXIT_CONFIG

    def test_training_requires_preprocess_outputs(self, workdir):
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        assert run("train-nnlm", "--config", "cfg.json") == cli.EXIT_CONFIG

    def test_unknown_top_level_config_key(self, workdir):
        (workdir / "weird.json").write_text('{"mystery": 1}')
        assert run("synth", "--config", "weird.json") == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "text", ['{"nnlm": {"max_epoch": 5}}', '{"nnlm": 5}'], ids=["unknown", "not-object"]
    )
    def test_bad_config_section(self, workdir, text, capsys):
        (workdir / "weird.json").write_text(text)
        assert run("synth", "--config", "weird.json") == cli.EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize(
        "setting, named",
        [
            # every NNLM range check
            ("nnlm.embed_dim=0", "embed_dim"),
            ("nnlm.hidden_dim=0", "hidden_dim"),
            ("nnlm.batch_size=0", "batch_size"),
            ("nnlm.max_epochs=0", "max_epochs"),
            ("nnlm.patience=0", "patience"),
            ("nnlm.learning_rate=0", "learning_rate"),
            ("nnlm.momentum=1", "momentum"),
            ("nnlm.momentum=-0.5", "momentum"),
            ("nnlm.init_scale=-1", "init_scale"),
            ("nnlm.learning_rate=NaN", "learning_rate"),
            ("nnlm.init_scale=NaN", "init_scale"),
            # values that cannot be read as their setting's type
            ("nnlm.embed_dim=abc", "nnlm.embed_dim"),
            ("nnlm.learning_rate=null", "nnlm.learning_rate"),
            ("nnlm.max_epochs=Infinity", "nnlm.max_epochs"),
            ("pipeline.order=abc", "pipeline.order"),
            ("pipeline.stemming=yes", "pipeline.stemming"),
            ("experiment.trials=x", "experiment.trials"),
            ("experiment.sentence_counts=[1, \"x\"]", "experiment.sentence_counts"),
            ("synth.sentences=x", "synth.sentences"),
            ("split.seeds=3", "split.seeds"),
            ('split.ratios="abc"', "split.ratios"),
            ('nnlm={"embed_dim": 3}', "nnlm"),
            # a fraction is not truncated into an integer setting, and a
            # boolean is no number
            ("split.seeds=[0.9]", "split.seeds"),
            ("nnlm.max_epochs=2.5", "nnlm.max_epochs"),
            ("experiment.sentence_counts=[1.5, 2]", "experiment.sentence_counts"),
            ("nnlm.hidden_dim=true", "nnlm.hidden_dim"),
            ("nnlm.learning_rate=true", "nnlm.learning_rate"),
            ("synth.concentration=false", "synth.concentration"),
            # other out-of-range values
            ("split.seeds=[-1]", "split.seeds"),
            ("split.seeds=[0, 0]", "split.seeds"),
            ("experiment.sentence_counts=[2, 2]", "experiment.sentence_counts"),
            ("split.ratios=[0.9, 0, 0.1]", "split.ratios"),
            ("split.ratios=[0.9, 0.1, 0]", "split.ratios"),
            ("split.ratios=[1.2, -0.1, -0.1]", "split.ratios"),
            ('split.ratios=[0.8, 0.1, "NaN"]', "split.ratios"),
            # sums to 1 within 1e-9 as floats, but not as the rationals a split uses
            ("split.ratios=[0.6, 0.3000001, 0.0999999]", "split.ratios"),
            ("synth.length_range=[4, 5, 6]", "synth.length_range"),
            ("synth.length_range=[5, 2]", "synth.length_range"),
            ("synth.lexicon_size=0", "synth.lexicon_size"),
            ("synth.concentration=0", "synth.concentration"),
            ("synth.sentences=0", "synth.sentences"),
            ("synth.authors=0", "synth.authors"),
            ("synth.authors=-2", "synth.authors"),
            ("synth.seed=-1", "synth.seed"),
        ],
    )
    def test_bad_setting_is_one_line_config_error(self, workdir, setting, named, capsys):
        assert run("synth", "--config", "cfg.json", "--set", setting) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not (workdir / "corpus").exists()

    @pytest.mark.parametrize(
        "setting",
        ["synth.concentration=-1", "synth.concentration=Infinity", "synth.lexicon_size=0",
         "synth.sentences=0", "synth.length_range=[5, 2]", "synth.length_range=[0, 2]", "synth.seed=-1"],
    )
    def test_bad_synth_setting_stops_a_later_stage(self, workdir, setting, capsys):
        # every command checks every setting, synth's included, before it writes anything
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert run("eval", "--config", "cfg.json", "--set", setting) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"authorlm eval: {setting.split('=')[0]} "), err
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv", [["synth", "--workers", "1"], ["eval", "--bogus", "1"], ["nope"]]
    )
    def test_usage_error_is_config_error(self, workdir, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(*argv, "--config", "cfg.json")
        assert exit_info.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "error:" in err[0], err

    def test_module_run_writes_one_stderr_line(self, workdir):
        proc = run_module("preprocess", "--config", "cfg.json")
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            "authorlm preprocess: corpus directory not found: corpus"
        ]

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "block-buffered"])
    @pytest.mark.parametrize("command", ["synth", "preprocess"])
    def test_closed_stdout_is_exit_1_without_traceback(self, workdir, command, unbuffered):
        # ``| head -1`` without the race: the pipe's reader is gone before
        # the stage prints its first line
        if command == "preprocess":
            assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "authorlm.cli", command, "--config", "cfg.json"],
                stdout=writer, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**module_env(), "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(writer)
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stderr == ""


class TestBlasPin:
    """Importing the package before numpy pins OpenBLAS to one thread;
    importing numpy first, unpinned, warns once and says how to fix it."""

    def python(self, code, pinned, *flags):
        env = module_env(unset=("OPENBLAS_NUM_THREADS",))
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        return subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )

    def test_numpy_first_warns_once(self):
        proc = self.python("import numpy, authorlm", False)
        assert proc.returncode == 0
        [line] = proc.stderr.splitlines()
        assert "RuntimeWarning: numpy was imported before authorlm" in line
        assert "import authorlm before numpy, or set OPENBLAS_NUM_THREADS=1" in line
        assert self.python("import numpy, authorlm", False, "-W", "error::RuntimeWarning").returncode != 0

    @pytest.mark.parametrize(
        "code, pinned",
        [("import authorlm, numpy", False), ("import authorlm, numpy", True), ("import numpy, authorlm", True)],
        ids=["package-first", "package-first-pinned", "numpy-first-pinned"],
    )
    def test_no_warning(self, code, pinned):
        proc = self.python(code + "; import os; print(os.environ['OPENBLAS_NUM_THREADS'])",
                           pinned, "-W", "error::RuntimeWarning")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


class TestPipeline:
    def run_all(self, workdir):
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command

    def test_full_pipeline_outputs(self, workdir):
        self.run_all(workdir)
        out = workdir / "outputs"
        assert (out / "preprocess" / "stats.csv").is_file()
        assert (out / "preprocess" / "author00.vocab.tsv").is_file()
        assert (out / "models" / "author00_0.nnlm").is_file()
        assert (out / "models" / "author01_0.kn").is_file()
        assert (out / "logs" / "author00_0.train.csv").is_file()
        assert (out / "eval" / "perplexity.csv").is_file()
        assert (out / "experiment" / "trials_nnlm_0.csv").is_file()
        assert (out / "experiment" / "confusion_kn_0.csv").is_file()
        assert (out / "experiment" / "summary.csv").is_file()
        assert (out / "report" / "summary.json").is_file()
        stats = (out / "preprocess" / "stats.csv").read_text().splitlines()
        assert len(stats) == 2 + 2  # timestamp, header, one row per author
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert set(summary["perplexity"]) == {"nnlm", "kn"}

    def test_every_output_parses_as_its_column_type(self, workdir):
        # every CSV cell as its column's type, and every number of both summary.json files
        write_config(
            workdir / "cfg.json", synth={"authors": 2, "lexicon_size": 12, "sentences": 120, "seed": 3},
            experiment={"sentence_counts": [1, 2, 10], "trials": 3, "excluded_authors": []},
        )
        self.run_all(workdir)
        out = workdir / "outputs"
        authors = {p.stem for p in (workdir / "corpus").glob("*.txt")}

        def finite(value: str) -> bool:
            try:
                return math.isfinite(float(value))
            except ValueError:
                return False

        integer = re.compile(r"-?[0-9]+").fullmatch
        columns = {
            **dict.fromkeys(("author", "true\\predicted", "predicted"), authors.__contains__),
            "method": cli.METHODS.__contains__,
            "correct": ("0", "1").__contains__,
            "display": lambda v: v.count("±") == 1 and all(map(finite, v.split("±"))),
            **dict.fromkeys(("sentences", "tokens", "raw_vocab", "stemmed_vocab", "pruned_vocab", "epoch",
                             "seed", "sentence_count", "trial", "s", *authors), integer),
            **dict.fromkeys(("coverage_500", "coverage_1000", "coverage_2000", "train_loss", "validation_loss",
                             "perplexity", "mean", "std", "mean_acc", "std_acc"), finite),
        }
        csvs = sorted(out.rglob("*.csv"))
        assert len(csvs) == 1 + 2 + 2 + 4 + 1 + 4  # stats, logs, eval, sweeps, experiment summary, report
        for path in csvs:
            rows = files.read_csv(path)
            assert rows, path
            for row in rows:
                assert None not in row and None not in row.values(), (path, row)
                for column, value in row.items():
                    assert columns[column](value), (path, column, value)

        def leaves(node):
            if isinstance(node, (dict, list)):
                for child in node.values() if isinstance(node, dict) else node:
                    yield from leaves(child)
            else:
                yield node

        experiment = json.loads((out / "experiment" / "summary.json").read_text())
        report = json.loads((out / "report" / "summary.json").read_text())
        for summary in (experiment, report):
            numbers = list(leaves(summary))
            assert numbers and all(type(x) in (int, float) and math.isfinite(x) for x in numbers), numbers
        # sentence counts are keys sorted as text
        by_count = [experiment["methods"][m]["accuracy_by_count"] for m in cli.METHODS]
        by_count += [report["accuracy"][m] for m in cli.METHODS]
        assert all(list(counts) == ["1", "10", "2"] for counts in by_count), by_count

    def test_pruned_tokens_reach_the_sweep(self, workdir):
        # at a 0.05 threshold some test sentences hold tokens pruned from
        # their author's vocabulary and kept in the other's: experiment's
        # trials are those of a sweep over pools stemmed from the raw lines
        counts, trials = [1, 3], 10
        write_config(workdir / "cfg.json", experiment={"sentence_counts": counts, "trials": trials})
        prune = ["--set", "pipeline.prune_threshold=0.05"]
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram", "experiment"):
            assert run(command, "--config", "cfg.json", *prune) == cli.EXIT_OK, command
        out = workdir / "outputs"
        names = ["author00", "author01"]
        vocabs, pools = {}, {}
        for name in names:
            lines = textproc.read_corpus_file(workdir / "corpus" / f"{name}.txt").sentences
            vocabs[name] = textproc.build_vocabulary(textproc.preprocess_sentences(lines), 0.05)
            test = textproc.split(len(lines), 0, [0.8, 0.1, 0.1]).test
            pools[name] = textproc.preprocess_sentences([lines[i] for i in test], stemming=True)
        pruned = {name: {t for s in pools[name] for t in s if t not in vocabs[name]} for name in names}
        assert all(pruned.values()), pruned
        assert pruned["author00"] & set(vocabs["author01"].words), pruned
        assert pruned["author01"] & set(vocabs["author00"].words), pruned
        candidates = [
            [evaluation.AuthorModel(name, load(out / "models" / f"{name}_0.{method}"), vocabs[name]) for name in names]
            for method, load in (("nnlm", nnlm.load_model), ("kn", kn.load_model))
        ]
        reports = evaluation.accuracy_sweep(candidates, pools, counts, trials, seed=0)
        for method, report in zip(("nnlm", "kn"), reports):
            rows = files.read_csv(out / "experiment" / f"trials_{method}_0.csv")
            assert [(r["author"], int(r["sentence_count"]), int(r["trial"]), r["predicted"]) for r in rows] == [
                (r.author_id, r.sentence_count, r.trial, r.predicted_author) for r in report.records
            ]

    def test_repeat_runs_byte_identical(self, workdir):
        self.run_all(workdir)
        first = {
            p.relative_to(workdir / "outputs"): p.read_bytes()
            for p in (workdir / "outputs").rglob("*")
            if p.is_file()
        }
        # re-run everything into the same tree
        for command in ("preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK
        for rel, payload in first.items():
            now = (workdir / "outputs" / rel).read_bytes()
            if rel.suffix in (".csv",):
                strip = lambda b: b"\n".join(
                    l for l in b.splitlines() if not l.startswith(b"# generated")
                )
                assert strip(now) == strip(payload), rel
            else:
                assert now == payload, rel

    def test_partial_failure_exit_code(self, workdir):
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        (workdir / "corpus" / "broken.txt").write_text("\n")
        assert run("preprocess", "--config", "cfg.json") == cli.EXIT_PARTIAL
        # healthy authors still came through
        assert (workdir / "outputs" / "preprocess" / "author00.vocab.tsv").is_file()
        stats = (workdir / "outputs" / "preprocess" / "stats.csv").read_text()
        assert "broken" not in stats

    def test_short_author_is_partial_failure(self, workdir, capsys):
        # one sentence passes preprocess but cannot be split for training
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        (workdir / "corpus" / "short.txt").write_text("a single sentence\n")
        assert run("preprocess", "--config", "cfg.json") == cli.EXIT_OK
        models = workdir / "outputs" / "models"
        for stage, ext in (("train-ngram", "kn"), ("train-nnlm", "nnlm")):
            capsys.readouterr()
            assert run(stage, "--config", "cfg.json") == cli.EXIT_PARTIAL, stage
            assert capsys.readouterr().err.splitlines() == [
                f"{stage}: short seed 0: need at least 10 sentences to split, got 1"
            ]
            # the other authors still trained
            assert (models / f"author00_0.{ext}").is_file()
            assert (models / f"author01_0.{ext}").is_file()
            assert not (models / f"short_0.{ext}").exists()

    def test_short_author_downstream_is_partial(self, workdir, capsys):
        # the other authors are trained, scored, swept and reported
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        (workdir / "corpus" / "short.txt").write_text("a single sentence\n")
        codes, errors = [], {}
        for stage in ("preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
            capsys.readouterr()
            codes.append(run(stage, "--config", "cfg.json"))
            errors[stage] = capsys.readouterr().err.splitlines()
        assert codes == [0, 2, 2, 2, 2, 0]
        refusal = "need at least 10 sentences to split, got 1"
        assert errors["eval"] == [f"eval: short seed 0: {refusal}"]
        assert errors["experiment"] == [f"experiment: short: left out, {refusal}"]
        assert errors["report"] == []
        out = workdir / "outputs"
        scored = [(r["author"], r["method"]) for r in files.read_csv(out / "eval" / "perplexity.csv")]
        assert scored == [(a, m) for a in ("author00", "author01") for m in ("nnlm", "kn")]
        for method in ("nnlm", "kn"):
            trials = files.read_csv(out / "experiment" / f"trials_{method}_0.csv")
            assert {r["author"] for r in trials} == {"author00", "author01"}
            assert {r["predicted"] for r in trials} <= {"author00", "author01"}
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert set(summary["perplexity"]) == set(summary["accuracy"]) == {"nnlm", "kn"}

    def test_failed_preprocess_author_downstream_is_partial(self, workdir, capsys):
        # an author without preprocess outputs is refused, the others run
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        (workdir / "corpus" / "broken.txt").write_text("")
        codes, errors = [], {}
        for stage in ("preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
            capsys.readouterr()
            codes.append(run(stage, "--config", "cfg.json"))
            errors[stage] = capsys.readouterr().err.splitlines()
        assert codes == [2, 2, 2, 2, 2, 0]
        missing = f"missing {Path('outputs/preprocess/broken.corpus')}"
        assert errors == {
            "preprocess": ["preprocess: broken: corpus 'broken' has no sentences"],
            "train-nnlm": [f"train-nnlm: broken seed 0: {missing}"],
            "train-ngram": [f"train-ngram: broken seed 0: {missing}"],
            "eval": [f"eval: broken seed 0: {missing}"],
            "experiment": [f"experiment: broken: left out, {missing}"],
            "report": [],
        }
        out = workdir / "outputs"
        for author in ("author00", "author01"):
            assert (out / "models" / f"{author}_0.nnlm").is_file()
            assert (out / "models" / f"{author}_0.kn").is_file()
        scored = [(r["author"], r["method"]) for r in files.read_csv(out / "eval" / "perplexity.csv")]
        assert scored == [(a, m) for a in ("author00", "author01") for m in ("nnlm", "kn")]
        for method in ("nnlm", "kn"):
            trials = files.read_csv(out / "experiment" / f"trials_{method}_0.csv")
            assert {r["author"] for r in trials} == {"author00", "author01"}

    def test_report_leaves_excluded_authors_out_of_accuracy(self, workdir):
        # at concentration 1 the two authors' accuracies differ, so counting
        # author00 would change the report's numbers
        exclude = [
            "--set", 'experiment.excluded_authors=["author00"]', "--set", "synth.concentration=1.0",
        ]
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
            assert run(command, "--config", "cfg.json", *exclude) == cli.EXIT_OK, command
        out = workdir / "outputs"
        rows = lambda path: [(r["method"], r["s"], r["mean_acc"]) for r in files.read_csv(path)]
        expected = rows(out / "experiment" / "summary.csv")
        assert sorted(rows(out / "report" / "accuracy_summary.csv")) == sorted(expected)
        # the pooled confusion still holds the excluded author's trials
        confusion = files.read_csv(out / "report" / "confusion_kn.csv")
        assert [r["true\\predicted"] for r in confusion] == ["author00", "author01"]

    def test_missing_model_skips_its_items(self, workdir, capsys):
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram", "experiment"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        models = workdir / "outputs" / "models"
        (models / "author01_0.nnlm").unlink()
        capsys.readouterr()
        assert run("eval", "--config", "cfg.json") == cli.EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            f"eval: author01 seed 0 nnlm: missing {Path('outputs/models/author01_0.nnlm')}"
        ]
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            "experiment: nnlm seed 0: skipped, no model for author01"
        ]
        out = workdir / "outputs" / "experiment"
        # the first run's nnlm sweep is deleted, so report cannot read it
        assert not (out / "trials_nnlm_0.csv").exists()
        assert not (out / "confusion_nnlm_0.csv").exists()
        assert {r["method"] for r in files.read_csv(out / "summary.csv")} == {"kn"}
        assert run("report", "--config", "cfg.json") == cli.EXIT_OK
        report = workdir / "outputs" / "report"
        assert {r["method"] for r in files.read_csv(report / "accuracy_summary.csv")} == {"kn"}
        assert not (report / "confusion_nnlm.csv").exists()
        for path in models.glob("*"):
            path.unlink()
        for stage in ("eval", "experiment", "report"):  # no sweep is left to report
            capsys.readouterr()
            assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG, stage
            assert len(capsys.readouterr().err.splitlines()) == 1

    def test_seed_without_nnlm_models_sweeps_kn_alone(self, workdir, capsys):
        write_config(workdir / "cfg.json", split={"ratios": [0.8, 0.1, 0.1], "seeds": [0, 1]})
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        capsys.readouterr()
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_OK
        full = capsys.readouterr().out.splitlines()
        out = workdir / "outputs" / "experiment"
        body = lambda name: (out / name).read_bytes().split(b"\n", 1)[1]  # after the timestamp
        kept = [f"{kind}_{sweep}.csv" for kind in ("trials", "confusion")
                for sweep in ("nnlm_0", "kn_0", "kn_1")]
        before = {name: body(name) for name in kept}
        (workdir / "outputs" / "models" / "author01_1.nnlm").unlink()
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_PARTIAL
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["experiment: nnlm seed 1: skipped, no model for author01"]
        # (method, seed) order, each line as the run with every model printed it
        assert [line.split(":")[1] for line in full] == [" nnlm seed 0", " nnlm seed 1", " kn seed 0", " kn seed 1"]
        assert captured.out.splitlines() == [full[0], *full[2:]]
        assert not (out / "trials_nnlm_1.csv").exists()
        assert not (out / "confusion_nnlm_1.csv").exists()
        assert {name: body(name) for name in kept} == before

    def test_degenerate_split_is_partial_failure(self, workdir, capsys):
        # 12 sentences at 5% validation leave the validation part empty
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        lines = (workdir / "corpus" / "author00.txt").read_text().splitlines()[:12]
        (workdir / "corpus" / "short.txt").write_text("\n".join(lines) + "\n")
        ratios = ["--set", "split.ratios=[0.9, 0.05, 0.05]"]
        assert run("preprocess", "--config", "cfg.json", *ratios) == cli.EXIT_OK
        refusal = "short seed 0: 12 sentences leave the validation part empty (ratio 1/20)"
        for stage in ("train-nnlm", "train-ngram", "eval"):
            capsys.readouterr()
            assert run(stage, "--config", "cfg.json", *ratios) == cli.EXIT_PARTIAL, stage
            assert capsys.readouterr().err.splitlines() == [f"{stage}: {refusal}"]

    def test_vocabulary_too_small_for_nnlm_is_partial_failure(self, workdir, capsys):
        # a threshold of 1 prunes every word, leaving only the reserved ids
        prune = ["--set", "pipeline.prune_threshold=1.0"]
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json", *prune) == cli.EXIT_OK, command
        capsys.readouterr()
        assert run("train-nnlm", "--config", "cfg.json", *prune) == cli.EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            f"train-nnlm: author0{i} seed 0: vocab_size must cover the reserved ids plus one word"
            for i in range(2)
        ]

    @pytest.mark.parametrize("stage, ext", [("train-ngram", "kn"), ("train-nnlm", "nnlm")])
    def test_unwritable_model_is_partial_failure(self, workdir, capsys, stage, ext):
        # a directory where the model goes fails that item only, in one line
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        models = workdir / "outputs" / "models"
        (models / f"author00_0.{ext}").mkdir(parents=True)
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_PARTIAL
        out, err = capsys.readouterr()
        assert out.splitlines() == [f"{stage}: author01 seed 0: done"]
        [line] = err.splitlines()
        # the target only: the temporary file write_file wrote is gone
        target = Path("outputs", "models", f"author00_0.{ext}")
        assert line == f"{stage}: author00 seed 0: [Errno 21] Is a directory: '{target}'"
        assert ".tmp" not in line
        assert (models / f"author01_0.{ext}").is_file()
        assert sorted(p.name for p in models.iterdir()) == [f"author00_0.{ext}", f"author01_0.{ext}"]

    @pytest.mark.parametrize(
        "stage, summary", [("preprocess", "preprocess/stats.csv"), ("eval", "eval/perplexity.csv")]
    )
    def test_unwritable_summary_is_config_error(self, workdir, capsys, stage, summary):
        # a directory where the stage's summary file goes: exit 1, one line naming it
        before = ("synth", "preprocess", "train-nnlm", "train-ngram")
        for command in before[: before.index(stage)] if stage in before else before:
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        path = workdir / "outputs" / summary
        path.mkdir(parents=True)
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm {stage}: {Path('outputs', summary)}: Is a directory"
        ]
        assert list(path.parent.glob(".*.tmp")) == []

    def test_divergence_exit_code(self, workdir, capsys):
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        assert run("preprocess", "--config", "cfg.json") == cli.EXIT_OK
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(
                "train-nnlm", "--config", "cfg.json", "--set", "nnlm.init_scale=8e307"
            )
        assert code == cli.EXIT_DIVERGED
        # the exception crossed back from its worker process
        assert capsys.readouterr().err.splitlines() == [
            f"train-nnlm: author0{i} seed 0: non-finite training loss at epoch 1" for i in range(2)
        ]

    def test_sentence_count_above_test_pool_is_config_error(self, workdir, capsys, monkeypatch):
        # 60 sentences per author leave 6 test sentences, fewer than 20
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command

        def no_model_load(*args):
            raise AssertionError("a model was loaded")

        monkeypatch.setattr(cli, "_load_model", no_model_load)
        capsys.readouterr()
        code = run(
            "experiment", "--config", "cfg.json", "--set", "experiment.sentence_counts=[1, 20]"
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "authorlm experiment: author 'author00' seed 0 has 6 test "
            "sentences, fewer than sentence count 20"
        ]
        assert not (workdir / "outputs" / "experiment").exists()

    def test_set_overrides_apply(self, workdir):
        assert run("synth", "--config", "cfg.json", "--set", "synth.authors=3") == cli.EXIT_OK
        files = sorted(p.name for p in (workdir / "corpus").glob("*.txt"))
        assert files == ["author00.txt", "author01.txt", "author02.txt"]

    def test_flag_beats_config(self, workdir):
        assert run("synth", "--config", "cfg.json", "--corpus-dir", "elsewhere") == cli.EXIT_OK
        assert (workdir / "elsewhere" / "author00.txt").is_file()
        assert not (workdir / "corpus").exists()


class TestWorkers:
    """Training items run in forked worker processes, one per usable CPU."""

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_models_do_not_depend_on_core_count(self, workdir):
        # at V near 2,000, two BLAS threads round some products differently
        # from one; the package pins one, so the CPU count cannot matter
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        write_config(
            workdir / "cfg.json",
            synth={
                "authors": 2, "lexicon_size": 2000, "sentences": 1000, "seed": 5,
                "length_range": [4, 11], "concentration": 0.5,
            },
            nnlm={"embed_dim": 16, "hidden_dim": 48, "batch_size": 100, "max_epochs": 1, "patience": 1},
        )
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        models = workdir / "outputs" / "models"
        runs = []
        for allowed in ({min(cpus)}, cpus):
            proc = run_module(
                "train-nnlm", "--config", "cfg.json", unset=self.BLAS_VARS,
                preexec_fn=lambda: os.sched_setaffinity(0, allowed),
            )
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            runs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(models.glob("*.nnlm"))}))
        assert len(runs[0][1]) == 2
        assert runs[0] == runs[1]

    def test_item_lines_once_and_in_order_when_piped(self, workdir):
        # block-buffered stdout: a forked worker must not repeat the parent's lines
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        (workdir / "corpus" / "short.txt").write_text("a single sentence\n")
        seeds = ["--set", "split.seeds=[2, 0, 1]"]
        assert run("preprocess", "--config", "cfg.json", *seeds) == cli.EXIT_OK
        proc = run_module("train-ngram", "--config", "cfg.json", *seeds, unset=("PYTHONUNBUFFERED",))
        assert proc.returncode == cli.EXIT_PARTIAL
        assert proc.stdout.splitlines() == [
            f"train-ngram: {author} seed {seed}: done"
            for author in ("author00", "author01") for seed in (2, 0, 1)
        ]
        assert proc.stderr.splitlines() == [
            f"train-ngram: short seed {seed}: need at least 10 sentences to split, got 1"
            for seed in (2, 0, 1)
        ]

    @staticmethod
    def patched_train_ngram(body):
        """A ``python -c`` script that runs ``train-ngram`` (its arguments
        follow) as ``python -m authorlm.cli`` does, with ``kn.train_model``
        replaced by a function with the given body."""
        return "\n".join([
            "import os, runpy, sys, time",
            "from authorlm import kn",
            "def train_model(*args):",
            *(f"    {line}" for line in body),
            "kn.train_model = train_model",
            "sys.argv = ['authorlm', 'train-ngram', *sys.argv[1:]]",
            "runpy.run_module('authorlm.cli', run_name='__main__', alter_sys=True)",
        ])

    @pytest.mark.parametrize(
        "launcher",
        [
            ["-m", "cProfile", "-o", "stage.prof", "-m", "authorlm.cli"],
            ["-c", "import runpy, sys; sys.argv[0] = 'authorlm'; "
                   "runpy.run_module('authorlm.cli', run_name='__main__')"],
        ],
        ids=["cprofile", "runpy"],
    )
    def test_stage_runs_when_main_is_another_module(self, workdir, launcher):
        # the stage's __main__ is cProfile or the -c script, not authorlm.cli;
        # the forked workers run the item function they inherit, so nothing
        # is looked up in __main__
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        proc = subprocess.run(
            [sys.executable, *launcher, "train-ngram", "--config", "cfg.json"],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines() == [
            f"train-ngram: author0{i} seed 0: done" for i in range(2)
        ]
        assert len(list((workdir / "outputs" / "models").glob("*.kn"))) == 2

    def test_dead_worker_ends_the_stage(self, workdir):
        # the first item to start kills its worker; the others would sleep
        # for minutes, so the stage must end them: a worker left running
        # keeps the output pipes open and the run times out
        seeds = ["--set", "split.seeds=[0, 1, 2]"]
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json", *seeds) == cli.EXIT_OK, command
        script = self.patched_train_ngram([
            "try:",
            f"    os.close(os.open({str(workdir / 'first')!r}, os.O_CREAT | os.O_EXCL))",
            "except FileExistsError:",
            "    time.sleep(300)",
            "os._exit(9)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script, "--config", "cfg.json", *seeds],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "authorlm train-ngram: a worker process died before author00 seed 0 finished"
        ]
        assert not list((workdir / "outputs" / "models").glob("*.kn"))

    def test_exception_raised_in_a_worker_keeps_its_traceback(self, workdir, monkeypatch, capsys):
        # an exception that is no item's failure ends the stage as raised,
        # from the worker's traceback, and leaves no worker behind
        seeds = ["--set", "split.seeds=[0, 1, 2]"]
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json", *seeds) == cli.EXIT_OK, command

        def train_model(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(kn, "train_model", train_model)
        capsys.readouterr()
        with pytest.raises(RuntimeError, match="^boom$") as raised:
            run("train-ngram", "--config", "cfg.json", *seeds)
        cause = raised.value.__cause__
        assert isinstance(cause, cli._WorkerTraceback)
        assert "in train_model" in str(cause) and str(cause).rstrip().endswith("RuntimeError: boom")
        assert capsys.readouterr().out == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(
        not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs a libc with mallopt"
    )
    def test_workers_keep_freed_memory(self):
        # batch-shaped arrays: three (100, 2,000) float64 arrays and a
        # 130k-value vector, allocated and freed 50 times in a worker; past
        # the first iteration each reuses the pages of the one before, where
        # glibc's defaults map and unmap them (about 50k minor faults)
        def item(*_):
            def batch():
                arrays = [np.ones((100, 2000)) for _ in range(3)], np.ones(130_000)
                del arrays

            batch()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(49):
                batch()
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        author = types.SimpleNamespace(name="batches", splits={0: None})
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            [faults] = cli._run_items("batches", cli.RunConfig(), [author], item)
        pages = (3 * 100 * 2000 + 130_000) * 8 // 4096  # one iteration's
        assert faults < pages // 10, faults

    def test_killed_stage_takes_its_workers(self, workdir):
        # every item sleeps; once the stage process is killed, its workers
        # must go too, or they keep the output pipes open
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        started = workdir / "started"
        script = self.patched_train_ngram([f"open({str(started)!r}, 'a').close()", "time.sleep(300)"])
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "--config", "cfg.json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert started.exists()
            proc.kill()
            proc.communicate(timeout=30)
        finally:  # whatever happened, leave no process of this test behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


class TestAcrossStages:
    """One pipeline run with three authors, seeds out of order, sentence
    counts out of order and an excluded author, checked across stages."""

    SEEDS = [2, 0, 1]

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stages")
        cfg = write_config(
            root / "cfg.json", corpus_dir=str(root / "corpus"), output_dir=str(root / "outputs"),
            synth={
                "authors": 3, "lexicon_size": 12, "sentences": 80, "seed": 3,
                "length_range": [3, 7], "concentration": 1.0,
            },
            split={"ratios": [0.8, 0.1, 0.1], "seeds": self.SEEDS},
            experiment={"sentence_counts": [2, 1, 3], "trials": 5, "excluded_authors": ["author01"]},
        )
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
            assert run(command, "--config", str(cfg)) == cli.EXIT_OK, command
        return root

    def test_report_accuracy_equals_experiment_summary(self, outputs):
        # the same rows byte for byte, std_acc included; report sorts methods
        lines = lambda path: sorted(
            line for line in path.read_text().splitlines() if not line.startswith("#")
        )
        report = lines(outputs / "outputs" / "report" / "accuracy_summary.csv")
        assert report == lines(outputs / "outputs" / "experiment" / "summary.csv")
        assert len(report) == 1 + 2 * 3

    def test_eval_scores_the_stream_experiment_scores(self, outputs):
        # eval's perplexity is the whole-pool perplexity of the author's own
        # row in experiment's table, which scores every author's pool in one
        # query per candidate, bit for bit
        out = outputs / "outputs"
        scored = files.read_csv(out / "eval" / "perplexity.csv")
        assert len(scored) == 3 * len(self.SEEDS) * 2
        authors = sorted(p.stem for p in (outputs / "corpus").glob("*.txt"))
        for row in scored:
            author, seed, method = row["author"], int(row["seed"]), row["method"]
            vocab = textproc.load_processed(out / "preprocess" / f"{author}.corpus").vocabulary
            if method == "nnlm":
                model = nnlm.load_model(out / "models" / f"{author}_{seed}.nnlm")
            else:
                model = kn.load_model(out / "models" / f"{author}_{seed}.kn")
            pools = []
            for name in authors:
                lines = textproc.read_corpus_file(outputs / "corpus" / f"{name}.txt").sentences
                test = textproc.split(len(lines), seed, [0.8, 0.1, 0.1]).test
                pools.append(textproc.preprocess_sentences([lines[i] for i in test], stemming=True))
            table = evaluation._score_pool(
                [evaluation.AuthorModel(author, model, vocab)], [s for pool in pools for s in pool]
            )
            mine = authors.index(author)
            first = sum(len(pool) for pool in pools[:mine])
            k = slice(first, first + len(pools[mine]))
            own = textproc.runs(table.starts[k], table.tokens[k])
            assert row["perplexity"] == repr(evaluation._report(table.log_probs[0, own]).perplexity)


class TestCorruptInputs:
    @pytest.fixture
    def trained(self, workdir):
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        return workdir / "outputs"

    @pytest.mark.parametrize("stage", ["eval", "experiment"])
    def test_truncated_nnlm_is_config_error(self, trained, stage, capsys):
        path = trained / "models" / "author00_0.nnlm"
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "models/author00_0.nnlm: truncated tensor" in err

    @pytest.mark.parametrize("stage", ["eval", "experiment"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda data: data + b"\x00\x01\x02", "unexpected bytes after tensor 'b_out'"),
            (lambda data: data[:-8] + np.array([np.inf], dtype="<f8").tobytes(),
             "non-finite parameter value"),
        ],
        ids=["trailing-bytes", "inf-b_out"],
    )
    def test_bad_nnlm_payload_is_config_error(self, trained, stage, corrupt, message, capsys):
        path = trained / "models" / "author00_0.nnlm"
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"models/author00_0.nnlm: {message}" in err

    @pytest.mark.parametrize("stage", ["eval", "experiment"])
    def test_truncated_kn_is_config_error(self, trained, stage, capsys):
        path = trained / "models" / "author01_0.kn"
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "models/author01_0.kn: truncated tensor" in err

    @pytest.mark.parametrize("stage", ["eval", "experiment"])
    def test_garbled_kn_is_config_error(self, trained, stage, capsys):
        path = trained / "models" / "author01_0.kn"
        path.write_bytes(b"garbled" + path.read_bytes()[7:])
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "models/author01_0.kn: no authorlm-kn header" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: [h], "no authorlm-nnlm header"),
            (lambda h: {k: v for k, v in h.items() if k != "config"}, "must have exactly the keys"),
            (lambda h: {**h, "config": {**h["config"], "bogus": 1}}, "must have exactly the keys"),
            (lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "patience"}},
             "must have exactly the keys"),
            (lambda h: {**h, "config": {**h["config"], "embed_dim": True}}, "bad embed_dim True"),
            (lambda h: {**h, "config": {**h["config"], "order": "4"}}, "bad order '4'"),
            (lambda h: {**h, "config": {**h["config"], "momentum": 1.5}}, "momentum must be in [0, 1)"),
            (lambda h: {**h, "dtype": "garbage"}, "dtype 'garbage', expected '<f8'"),
            (lambda h: {**h, "dtype": "<f4"}, "dtype '<f4', expected '<f8'"),
            (lambda h: {k: v for k, v in h.items() if k != "dtype"}, "dtype None, expected '<f8'"),
        ],
        ids=["not-object", "no-config", "unknown-key", "missing-key", "bool", "string", "range",
             "dtype-garbage", "dtype-f4", "dtype-missing"],
    )
    def test_bad_nnlm_header_is_config_error(self, trained, edit, message, capsys):
        path = trained / "models" / "author00_0.nnlm"
        header, body = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + body)
        for stage in ("eval", "experiment"):
            capsys.readouterr()
            assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG, stage
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "models/author00_0.nnlm: " in err[0] and message in err[0], err

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("probs2", np.nan, "probs2: row {row}: log10 probability nan must be finite and <= 0"),
            ("probs3", np.inf, "probs3: row {row}: log10 probability inf must be finite and <= 0"),
            ("unigram", 5.0, "unigram: row {row}: log10 probability 5.0 must be finite and <= 0"),
            ("bows1", np.inf, "bows1: row {row}: back-off weight inf must be finite"),
        ],
        ids=["nan", "inf", "positive", "inf-back-off"],
    )
    def test_impossible_kn_value_is_config_error(self, trained, name, value, message, capsys):
        path = trained / "models" / "author01_0.kn"

        rows = []

        def edit(arrays):
            rows.append(len(arrays[name]) // 2)
            arrays[name][rows[0]] = value

        edit_saved(path, edit)
        capsys.readouterr()
        assert run("eval", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm eval: {Path('outputs/models/author01_0.kn')}: {message.format(row=rows[0])}"
        ]

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("experiment/trials_kn_0.csv", lambda t: t.replace("sentence_count", "count"),
             "data row 1 lacks column 'sentence_count'"),
            ("experiment/trials_kn_0.csv", lambda t: t.rstrip("\n").rsplit(",", 4)[0] + "\n",
             "lacks column 'sentence_count'"),
            ("eval/perplexity.csv", lambda t: t.replace(",perplexity", ",pp"),
             "data row 1 lacks column 'perplexity'"),
        ],
        ids=["trials-column", "trials-short-row", "eval-column"],
    )
    def test_bad_csv_under_report_is_config_error(self, trained, name, edit, message, capsys):
        for command in ("eval", "experiment"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        path = trained / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert run("report", "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{Path('outputs') / name}: " in err[0] and message in err[0], err

    @pytest.fixture
    def corpus_file(self, workdir):
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        return workdir / "outputs" / "preprocess" / "author00.corpus"

    def test_negative_id_is_config_error(self, corpus_file, capsys):
        header, lengths, ids = read_corpus(corpus_file)
        ids[lengths[0] - 2] = -1  # sentence 0's last id before its end id
        write_corpus(corpus_file, header, lengths, ids)
        capsys.readouterr()
        assert run("train-ngram", "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "author00.corpus: sentence 0: id -1 outside the vocabulary" in err
        assert not list((corpus_file.parents[1] / "models").glob("*.kn"))

    def test_header_without_value_is_config_error(self, corpus_file):
        header, lengths, ids = read_corpus(corpus_file)
        del header["order"]
        write_corpus(corpus_file, header, lengths, ids)
        proc = run_module("train-ngram", "--config", "cfg.json")
        assert proc.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "author00.corpus: bad order None" in proc.stderr

    def test_duplicated_order_header_is_config_error(self, corpus_file, capsys):
        # json lets the last "order" win: order-3 models of sentences padded
        # for order 4
        data = corpus_file.read_bytes()
        corpus_file.write_bytes(data.replace(b'"order": 4', b'"order": 4, "order": 3', 1))
        capsys.readouterr()
        assert run("train-ngram", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm train-ngram: {Path('outputs/preprocess/author00.corpus')}: "
            "header key 'order' repeated"
        ]
        assert not list((corpus_file.parents[1] / "models").glob("*.kn"))

    @pytest.mark.parametrize("stage", ["train-nnlm", "train-ngram", "eval", "experiment"])
    def test_out_of_vocabulary_id_stops_every_stage(self, corpus_file, stage, capsys):
        header, lengths, ids = read_corpus(corpus_file)
        V = len(header["words"])
        ids[header["order"] - 1] = V  # sentence 0's first id after its paddings
        write_corpus(corpus_file, header, lengths, ids)
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm {stage}: {Path('outputs/preprocess/author00.corpus')}: "
            f"sentence 0: id {V} outside the vocabulary of {V}"
        ]

    def test_text_changed_since_preprocess_is_config_error(self, trained, capsys):
        # authors are the texts' names: renamed texts have no .corpus
        for text in (trained.parent / "corpus").glob("*.txt"):
            text.rename(text.with_name(f"new_{text.name}"))
        capsys.readouterr()
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm experiment: missing {Path('outputs/preprocess/new_author00.corpus')} "
            "(run `authorlm preprocess` first)"
        ]

    def test_experiment_stems_as_preprocess_did(self, trained, monkeypatch):
        # the test pools are the tokens preprocess stemmed: experiment stems
        # nothing itself, so another stemming setting changes no trial
        seen = []
        preprocess_sentences = textproc.preprocess_sentences

        def spy(lines, stemming):
            seen.append(stemming)
            return preprocess_sentences(lines, stemming)

        assert run("experiment", "--config", "cfg.json") == cli.EXIT_OK
        before = (trained / "experiment" / "trials_nnlm_0.csv").read_text().splitlines()[1:]
        monkeypatch.setattr(textproc, "preprocess_sentences", spy)
        code = run("experiment", "--config", "cfg.json", "--set", "pipeline.stemming=false")
        assert code == cli.EXIT_OK
        assert seen == []
        assert (trained / "experiment" / "trials_nnlm_0.csv").read_text().splitlines()[1:] == before

    def test_text_edited_after_preprocess_changes_no_output(self, trained):
        # every later stage reads only the .corpus: edited texts with the
        # same names, no .vocab.tsv and another stemming setting change no
        # byte of what they write, timestamp lines aside
        stages = ("train-nnlm", "train-ngram", "eval", "experiment")
        for stage in stages[2:]:
            assert run(stage, "--config", "cfg.json") == cli.EXIT_OK, stage
        body = lambda path: [line for line in path.read_bytes().splitlines() if not line.startswith(b"# generated")]
        outputs = lambda: {p: body(p) for d in ("models", "logs", "eval", "experiment") for p in (trained / d).iterdir()}
        before = outputs()
        for text in (trained.parent / "corpus").glob("*.txt"):
            lines = text.read_text().splitlines()
            text.write_text("".join(" ".join(reversed(line.split())) + " w001\n" for line in lines) + "w002 w003\n")
        for vocab in (trained / "preprocess").glob("*.vocab.tsv"):
            vocab.unlink()
        for stage in stages:
            assert run(stage, "--config", "cfg.json", "--set", "pipeline.stemming=false") == cli.EXIT_OK, stage
        assert outputs() == before

    @pytest.mark.parametrize("stage", ["eval", "experiment"])
    def test_refusal_is_the_one_stderr_line(self, trained, stage, capsys):
        # an author that every stage skips, then a corrupt model
        (trained.parent / "corpus" / "short.txt").write_text("a single sentence\n")
        assert run("preprocess", "--config", "cfg.json") == cli.EXIT_OK
        path = trained / "models" / "author01_0.kn"
        path.write_bytes(b"garbled" + path.read_bytes()[7:])
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        named = f"authorlm {stage}: {path.relative_to(trained.parent)}: "
        assert len(err) == 1 and err[0].startswith(named), err

    def test_bad_vocabulary_header_is_config_error(self, corpus_file, capsys):
        header, lengths, ids = read_corpus(corpus_file)
        header["words"][0] = "<S>"
        write_corpus(corpus_file, header, lengths, ids)
        capsys.readouterr()
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm experiment: {Path('outputs/preprocess/author00.corpus')}: "
            "reserved tokens missing or out of order"
        ]

    @pytest.mark.parametrize("stage", ["eval", "experiment"])
    def test_overflowing_nnlm_score_is_config_error(self, trained, stage, capsys):
        # finite weights that the loader accepts, whose perplexity overflows
        path = trained / "models" / "author00_0.nnlm"
        data = path.read_bytes()
        path.write_bytes(data[:-8] + np.array([1e300], dtype="<f8").tobytes())
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm {stage}: {Path('outputs/models/author00_0.nnlm')}: "
            "model gives a non-finite perplexity"
        ]

    def test_swapped_kn_entries_are_config_error(self, trained, capsys):
        path = trained / "models" / "author01_0.kn"

        def swap(arrays):
            arrays["probs2.keys"][[0, 1]] = arrays["probs2.keys"][[1, 0]]

        edit_saved(path, swap)
        capsys.readouterr()
        assert run("eval", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm eval: {Path('outputs/models/author01_0.kn')}: "
            "probs2: row 1 does not rise above the row before it"
        ]

    def test_version_2_kn_is_config_error(self, trained, capsys):
        # the layout before rank keys: each table's grams as (n, k) id rows
        # in lexicographic order
        path = trained / "models" / "author01_0.kn"
        header, arrays = read_saved(path)
        keys = {name[:-5]: a for name, a in arrays.items() if name.endswith(".keys")}
        grams = decode_keys(header["vocab"], keys)
        old = {"unigram": arrays["unigram"]}
        for name in keys:  # in file order
            rows = grams[name]
            order = sorted(range(len(rows)), key=rows.__getitem__)
            old[f"{name}.ids"] = np.array([rows[i] for i in order], dtype=np.int64)
            old[name] = arrays[name][order]
        header.update(version=2, arrays=[[name, list(a.shape)] for name, a in old.items()])
        write_saved(path, header, old)
        capsys.readouterr()
        assert run("eval", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm eval: {Path('outputs/models/author01_0.kn')}: unsupported version 2"
        ]

    def test_vocabulary_rows_must_match_size_header(self, corpus_file, capsys):
        # one count per word
        header, lengths, ids = read_corpus(corpus_file)
        del header["words"][-2:]
        write_corpus(corpus_file, header, lengths, ids)
        capsys.readouterr()
        assert run("train-nnlm", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm train-nnlm: {Path('outputs/preprocess/author00.corpus')}: counts/words length mismatch"
        ]

    @pytest.mark.parametrize("edit, message", [
        (lambda header: header.update(unknown=["w001"]), "1 unknown tokens for 0 unknown ids"),
        (lambda header: header.update(unknown="w001"), "unknown is not a list of strings"),
    ], ids=["count", "type"])
    def test_bad_unknown_section_is_config_error(self, corpus_file, edit, message, capsys):
        header, lengths, ids = read_corpus(corpus_file)
        edit(header)
        write_corpus(corpus_file, header, lengths, ids)
        capsys.readouterr()
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"authorlm experiment: {Path('outputs/preprocess/author00.corpus')}: {message}"
        ]

    def test_version_2_corpus_is_config_error(self, corpus_file):
        # the layout before the vocabulary moved into the header
        header, lengths, ids = read_corpus(corpus_file)
        header = {k: v for k, v in header.items() if k not in ("words", "counts", "unknown")}
        write_corpus(corpus_file, {**header, "version": 2, "vocab": 15}, lengths, ids)
        proc = run_module("train-ngram", "--config", "cfg.json")
        assert (proc.returncode, proc.stderr) == (
            cli.EXIT_CONFIG,
            f"authorlm train-ngram: {Path('outputs/preprocess/author00.corpus')}: unsupported version 2\n",
        )

    @pytest.mark.parametrize(
        "setting, stages, shape",
        [
            ("pipeline.prune_threshold=0.05", ("eval", "experiment"), "11 and 4"),
            ("pipeline.order=3", ("eval", "experiment"), "15 and 3"),
        ],
        ids=["pruned-vocabulary", "order"],
    )
    def test_stale_model_is_config_error(self, trained, setting, stages, shape, capsys):
        assert run("preprocess", "--config", "cfg.json", "--set", setting) == cli.EXIT_OK
        for stage in stages:
            capsys.readouterr()
            assert run(stage, "--config", "cfg.json", "--set", setting) == cli.EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert err == [
                f"authorlm {stage}: {Path('outputs/models/author00_0.nnlm')}: model vocabulary "
                f"size 15 and order 4, preprocess outputs {shape} (retrain after preprocess)"
            ]


def _corrupt(kind: str, data: bytes, rng) -> bytes:
    """``data`` with one corruption of the given kind, placed by ``rng``."""
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "byte-flip":
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1 :]
    if kind == "byte-insert":
        i = rng.randrange(len(data) + 1)
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = data.split(b"\n")
    i = rng.randrange(len(lines) - 1)
    if kind == "duplicate-line":
        return b"\n".join(lines[: i + 1] + lines[i:])
    assert kind == "swap-lines"
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return b"\n".join(lines)


class TestCorruptionReplay:
    """Seeded corruptions of every file the scoring and training stages
    read: each run ends with a documented exit code and no traceback, and
    a run that succeeds writes only finite perplexities."""

    KINDS = ["truncate", "byte-flip", "byte-insert", "duplicate-line", "swap-lines", "crlf"]
    TARGETS = {
        "kn": "models/{}_0.kn",
        "nnlm": "models/{}_0.nnlm",
        "vocab": "preprocess/{}.vocab.tsv",
        "corpus": "preprocess/{}.corpus",
    }

    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("replay")
        cfg = write_config(root / "cfg.json")
        dirs = ["--corpus-dir", str(root / "corpus"), "--output-dir", str(root / "outputs")]
        for command in ("synth", "preprocess", "train-nnlm", "train-ngram"):
            assert run(command, "--config", str(cfg), *dirs) == cli.EXIT_OK, command
        return root

    @pytest.mark.parametrize("target", list(TARGETS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_replay(self, template, tmp_path, kind, target, capsys):
        rng = random.Random(f"{kind} {target}")
        relative = self.TARGETS[target].format(rng.choice(["author00", "author01"]))
        for stage in ("eval", "experiment", "train-ngram"):
            out = tmp_path / stage
            shutil.copytree(template / "outputs", out)
            path = out / relative
            path.write_bytes(_corrupt(kind, path.read_bytes(), rng))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(stage, "--config", str(template / "cfg.json"),
                           "--corpus-dir", str(template / "corpus"), "--output-dir", str(out))
            err = capsys.readouterr().err
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_PARTIAL), (stage, code, err)
            if target == "vocab":  # a readable copy that no stage reads
                assert code == cli.EXIT_OK, (stage, err)
            if code == cli.EXIT_CONFIG:  # one line, and no numpy warning before it
                assert len(err.splitlines()) == 1 and not caught, (stage, err, caught)
            if code == cli.EXIT_OK and stage == "eval":
                rows = files.read_csv(out / "eval" / "perplexity.csv")
                assert all(np.isfinite(float(r["perplexity"])) for r in rows), rows
