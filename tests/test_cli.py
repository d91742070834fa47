"""End-to-end command tests: exit codes, outputs, overrides, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def run_module(*argv):
    """``python -m authorlm.cli`` in a subprocess, with this package on the path."""
    src = str(Path(authorlm.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "authorlm.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
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
            # other out-of-range values
            ("split.seeds=[-1]", "split.seeds"),
            ("split.ratios=[0.9, 0, 0.1]", "split.ratios"),
            ("split.ratios=[0.9, 0.1, 0]", "split.ratios"),
            ("split.ratios=[1.2, -0.1, -0.1]", "split.ratios"),
            ('split.ratios=[0.8, 0.1, "NaN"]', "split.ratios"),
            # sums to 1 within 1e-9 as floats, but not as the rationals a split uses
            ("split.ratios=[0.6, 0.3000001, 0.0999999]", "split.ratios"),
            ("synth.length_range=[4, 5, 6]", "synth.length_range"),
            ("synth.length_range=[5, 2]", "synth"),
            ("synth.lexicon_size=0", "synth"),
            ("synth.concentration=0", "synth: concentration"),
            ("synth.sentences=0", "synth"),
        ],
    )
    def test_bad_setting_is_one_line_config_error(self, workdir, setting, named, capsys):
        assert run("synth", "--config", "cfg.json", "--set", setting) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not (workdir / "corpus").exists()

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
        assert (out / "models" / "author01_0.arpa").is_file()
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
        for stage, ext in (("train-ngram", "arpa"), ("train-nnlm", "nnlm")):
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
        missing = f"missing {Path('outputs/preprocess/broken.vocab.tsv')}"
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
            assert (out / "models" / f"{author}_0.arpa").is_file()
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

    def test_divergence_exit_code(self, workdir):
        assert run("synth", "--config", "cfg.json") == cli.EXIT_OK
        assert run("preprocess", "--config", "cfg.json") == cli.EXIT_OK
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(
                "train-nnlm", "--config", "cfg.json", "--set", "nnlm.init_scale=8e307"
            )
        assert code == cli.EXIT_DIVERGED

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
        # row in experiment's pool table, bit for bit
        out = outputs / "outputs"
        scored = files.read_csv(out / "eval" / "perplexity.csv")
        assert len(scored) == 3 * len(self.SEEDS) * 2
        for row in scored:
            author, seed, method = row["author"], int(row["seed"]), row["method"]
            vocab = textproc.load_vocabulary(out / "preprocess" / f"{author}.vocab.tsv")
            if method == "nnlm":
                model = nnlm.load_model(out / "models" / f"{author}_{seed}.nnlm")
            else:
                model = kn.load_model(out / "models" / f"{author}_{seed}.arpa")
            lines = textproc.read_corpus_file(outputs / "corpus" / f"{author}.txt").sentences
            test = textproc.split(len(lines), seed, [0.8, 0.1, 0.1]).test
            pool = textproc.preprocess_sentences([lines[i] for i in test], stemming=True)
            table = evaluation._score_pool([evaluation.AuthorModel(author, model, vocab)], pool)
            assert row["perplexity"] == repr(evaluation._report(table.log_probs[0]).perplexity)


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
    def test_garbled_kn_is_config_error(self, trained, stage, capsys):
        path = trained / "models" / "author01_0.arpa"
        path.write_text(path.read_text().replace("\\data\\", "\\date\\"))
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "models/author01_0.arpa:" in err

    @pytest.fixture
    def corpus_file(self, workdir):
        for command in ("synth", "preprocess"):
            assert run(command, "--config", "cfg.json") == cli.EXIT_OK, command
        return workdir / "outputs" / "preprocess" / "author00.corpus.txt"

    def test_negative_id_is_config_error(self, corpus_file, capsys):
        lines = corpus_file.read_text().splitlines()
        ids = lines[4].split()
        lines[4] = " ".join(ids[:-1] + ["-1", ids[-1]])
        corpus_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("train-ngram", "--config", "cfg.json") == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "author00.corpus.txt:5: id -1 outside the vocabulary" in err
        assert not list((corpus_file.parents[1] / "models").glob("*.arpa"))

    def test_header_without_value_is_config_error(self, corpus_file):
        text = corpus_file.read_text()
        corpus_file.write_text(text.replace("# order 4\n", "# order\n"))
        proc = run_module("train-ngram", "--config", "cfg.json")
        assert proc.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "author00.corpus.txt:2: bad header line '# order'" in proc.stderr

    def test_bad_vocabulary_header_is_config_error(self, trained, capsys):
        path = trained / "preprocess" / "author00.vocab.tsv"
        path.write_text(path.read_text().replace("authorlm-vocab 1", "authorlm-vocab 9"))
        capsys.readouterr()
        assert run("experiment", "--config", "cfg.json") == cli.EXIT_CONFIG
        assert "expected header" in capsys.readouterr().err
