"""Stage benchmark for the authorlm attribution pipeline.

    python3 perfbench/run.py --workload train|attribute|english
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: it needs ``src/authorlm`` and
``BENCHMARK.json`` there, and ``tests/data/porter_reference.tsv`` for the
``english`` workload.  It writes only under ``.perfbench_work/``.

A run makes its corpus from ``--seed`` with the benchmark's own sampler
(``corpus.py``), writes a ``run.json`` and drives the documented CLI, one
process per stage (``python3 -m authorlm.cli <stage> --config run.json``),
with one BLAS thread.  Every workload runs all five stages from
``preprocess`` to ``experiment``; it differs in which stages are set-up
(done five times, for the median ``setup_s``), which are repeated and
measured for ``--seconds``, and which run afterwards (three times) so that
the outputs can be checked:

- ``train``: set-up makes the corpus; ``preprocess``, ``train-nnlm`` and
  ``train-ngram`` are measured; ``eval`` and ``experiment`` run after.
- ``attribute``: set-up makes the corpus and trains both model families;
  ``eval`` and ``experiment`` are measured.
- ``english``: set-up makes the corpus; all five stages are measured.

A stage time is the median over every time the stage ran in the run
(set-up, measured or after), so every end-to-end metric is reported on
every workload.  ``wall_s`` is the median over repetitions of the summed
measured stages.  Each stage time is scaled by the host speed measured
with ``reference.py`` right before and after the stage (see
``Runner.reference``).

With ``--trace 1`` the run sets up and checks once, then repeats the whole
pipeline in a fresh directory with every stage under ``tracer.py`` and
prints the per-layer metrics; ``trace.overhead_s`` is that pass's time for
the measured stages minus the untraced median.

The last line of standard output is the JSON result; a detail record
(environment, digests, every sample) goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread in every measured process; set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 1  # seed 1009 is held out: never used while building this
STAGES = ("preprocess", "train-nnlm", "train-ngram", "eval", "experiment")
SETUP_REPEATS = 5
CHECK_REPEATS = 3
DEADLINE_S = 170.0
PORTER_TSV = Path("tests/data/porter_reference.tsv")
# Reported times are scaled to the host speed at which reference.py takes
# REF_S seconds (its median on the 2-core VM the baseline was made on).
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REF_S = 0.3
SPLIT_SEED = 0

# README shapes: 8 authors over the 50-word ``w###`` lexicon (V = 53).
SYNTHETIC = {"authors": 8, "sentences": 1000, "successors": 20, "lexicon_size": 50}
# 4 authors, each with 2000 words drawn from a 3400-word pool of Porter
# reference inputs with distinct stems: V is about 1.95k.
ENGLISH = {"authors": 4, "sentences": 1000, "successors": 8, "lexicon_size": 2000, "pool": 3400}
LENGTH_RANGE = (4, 11)
SENTENCE_COUNTS = [1, 2, 5, 10, 20]


@dataclass(frozen=True)
class Workload:
    corpus: dict
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    check: tuple[str, ...]
    epochs: int
    trials: int


WORKLOADS = {
    "train": Workload(SYNTHETIC, (), STAGES[:3], STAGES[3:], epochs=5, trials=10),
    "attribute": Workload(SYNTHETIC, STAGES[:3], STAGES[3:], (), epochs=5, trials=10),
    "english": Workload(ENGLISH, (), STAGES, (), epochs=2, trials=5),
}


def run_config(w: Workload) -> dict:
    """The ``run.json`` of a workload; ``workers`` stays at its default."""
    return {
        "corpus_dir": "corpus",
        "output_dir": "out",
        "pipeline": {"stemming": True, "prune_threshold": 1e-5, "order": 4},
        "split": {"ratios": [0.8, 0.1, 0.1], "seeds": [SPLIT_SEED]},
        "nnlm": {
            "embed_dim": 16, "hidden_dim": 48, "batch_size": 100,
            "learning_rate": 0.3, "momentum": 0.9,
            # patience = max_epochs: every seed trains the same number of epochs
            "max_epochs": w.epochs, "patience": w.epochs,
        },
        "experiment": {"sentence_counts": SENTENCE_COUNTS, "trials": w.trials},
    }


def make_inputs(w: Workload, seed: int, root: Path, directory: Path) -> None:
    c = w.corpus
    if "pool" in c:
        words = corpus.english_words(root / PORTER_TSV)
        shared = random.Random(seed).sample(words, c["pool"])
    else:
        shared = corpus.synthetic_lexicon(c["lexicon_size"])
    corpus.write_corpus(
        directory / "corpus", seed, c["authors"], c["sentences"], c["successors"],
        LENGTH_RANGE, shared, c["lexicon_size"],
    )
    (directory / "run.json").write_text(json.dumps(run_config(w), indent=1) + "\n")


class StageFailed(RuntimeError):
    pass


class Runner:
    """Runs stage processes and counts attempted and failed operations."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)  # scaled
        self.raw_times: dict[str, list[float]] = defaultdict(list)
        self.refs: list[float] = []
        self.peak_rss_kib = 0

    def reference(self) -> float:
        """Time the reference task and return the speed factor: REF_S over
        the mean of this and the previous reference time.

        On a shared host the speed of a core drifts by 10-30% over seconds
        to minutes, so whole runs read slow or fast.  The reference task,
        run before and after each timed piece of work, drifts with it, and
        scaling by it cuts the spread of a run's medians between runs.
        """
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(REFERENCE)], env=self.env, check=True,
            capture_output=True, timeout=max(1.0, self.deadline - time.monotonic()),
        )
        ref = time.perf_counter() - start
        factor = REF_S / (ref + self.refs[-1]) * 2 if self.refs else REF_S / ref
        self.refs.append(ref)
        return factor

    def stage(self, stage: str, cwd: Path, trace: Path | None = None) -> float:
        """Run one stage process; return its time scaled by the host speed."""
        if trace is None:
            cmd = [sys.executable, "-m", "authorlm.cli", stage, "--config", "run.json"]
        else:
            cmd = [sys.executable, tracer.__file__, str(trace), stage, "--config", "run.json"]
        self.attempted += 1
        log = cwd / f"{stage}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            # wait4 gives this process's own peak RSS; the timer kills it
            # at the run's deadline.
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            self._fail(f"{stage}: exit {proc.returncode}\n{tail}")
            raise StageFailed(stage)
        scaled = elapsed * self.reference()
        if trace is None:
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            self.raw_times[stage].append(elapsed)
            self.times[stage].append(scaled)
        return scaled

    def check(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def setup(runner: Runner, w: Workload, seed: int, directory: Path) -> float:
    start = time.perf_counter()
    make_inputs(w, seed, runner.root, directory)
    elapsed = (time.perf_counter() - start) * runner.reference()
    return elapsed + sum(runner.stage(stage, directory) for stage in w.setup)


def measure(runner: Runner, w: Workload, directory: Path, seconds: float) -> tuple[list[float], set[str]]:
    """Repeat the measured stages for ``seconds`` (at least once); return
    each repetition's summed time and the distinct output digests."""
    walls, digests = [], set()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(sum(runner.stage(stage, directory) for stage in w.timed))
        digests.add(corpus.tree_digest(directory / "out"))
    return walls, digests


def check_outputs(runner: Runner, w: Workload, out: Path) -> dict[str, float]:
    authors = sorted(p.name.split(".")[0] for p in (out / "preprocess").glob("*.vocab.tsv"))
    runner.check([] if len(authors) == w.corpus["authors"] else [f"{len(authors)} authors preprocessed"])
    try:
        runner.check(checks.check_perplexities(out, authors, SPLIT_SEED))
        runner.check(checks.check_trials(out, authors, SPLIT_SEED, SENTENCE_COUNTS, w.trials))
        accuracy = checks.mean_accuracy(out)
        runner.check(checks.check_above_chance(accuracy, authors))
        ppl = checks.mean_perplexity(out)
    except (OSError, KeyError, ValueError) as exc:
        runner.check([f"cannot read the outputs: {exc!r}"])
        raise StageFailed("outputs") from exc
    return {
        "nnlm_test_ppl": ppl["nnlm"], "kn_test_ppl": ppl["kn"],
        "nnlm_accuracy": accuracy["nnlm"], "kn_accuracy": accuracy["kn"],
    }


def layer_metrics(traces: list[dict], overhead: float, untraced: float) -> tuple[dict, list[str]]:
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
    extra: dict[str, float] = defaultdict(float)
    unique = total = 0
    absent: set[str] = set()
    m: dict[str, float] = {}
    for t in traces:
        for name, values in t["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], values)]
        for name, value in t["extra"].items():
            extra[name] += value
        unique += t["scorings"][0]
        total += t["scorings"][1]
        absent.update(t["absent"])
        m[f"cli.{t['stage'].replace('-', '_')}.self_s"] = t["self_s"]

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    for name in tracer.SPANS + tracer.COUNTERS:
        m[f"{name}.calls"], m[f"{name}.busy_s"] = stats[name]
    batch = sum(stats[f"nnlm.{f}"][1] for f in ("forward", "backward", "momentum_step"))
    m["nnlm.batch_us"] = ratio(batch, stats["nnlm.forward"][0], 1e6)
    m["nnlm.epochs"] = extra["nnlm.epochs"]
    m["nnlm.NnlmModel.log_probs.tokens"] = extra["nnlm.tokens"]
    m["kn.KnModel.log_probs.tokens"] = extra["kn.tokens"]
    m["kn.entries"] = extra["kn.entries"]
    m["kn.us_per_token"] = ratio(stats["kn.KnModel.log_probs"][1], extra["kn.tokens"], 1e6)
    m["porter.stem.us_per_word"] = ratio(stats["porter.stem"][1], stats["porter.stem"][0], 1e6)
    m["evaluation.unique_score_share"] = ratio(unique, total)
    if not total:
        absent.add("evaluation.unique_score_share")
    m["trace.overhead_s"] = overhead
    m["trace.overhead_share"] = ratio(overhead, untraced)
    return m, sorted(absent)


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_ENV,
        "git_revision": git_revision(root),
        "source_digest": corpus.tree_digest(root / "src" / "authorlm", pattern="*.py"),
    }


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit(spec: list[dict], values: dict[str, float]) -> dict:
    missing = [s["name"] for s in spec if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in spec}


def run(args, root: Path, work: Path, spec: dict) -> tuple[dict, dict]:
    w = WORKLOADS[args.workload]
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    values: dict[str, float] = {}
    try:
        runner.reference()
        setups, inputs = [], set()
        for i in range(1 if args.trace else SETUP_REPEATS):
            directory = work / f"setup{i}"
            setups.append(setup(runner, w, args.seed, directory))
            inputs.add(corpus.tree_digest(directory / "corpus"))
        runner.check([] if len(inputs) == 1 else ["set-up made different inputs from one seed"])
        walls, digests = measure(runner, w, directory, args.seconds)
        for _ in range(1 if args.trace else CHECK_REPEATS):
            for stage in w.check:
                runner.stage(stage, directory)
        quality = check_outputs(runner, w, directory / "out")
        runner.check([] if len(digests) == 1 else ["repetitions wrote different outputs"])
        output_digest = corpus.tree_digest(directory / "out")
        detail.update(
            input_digest=inputs.pop(), output_digest=output_digest,
            setup_samples=setups, wall_samples=walls, stage_samples=dict(runner.times),
            raw_stage_samples=dict(runner.raw_times), reference_samples=runner.refs,
        )
        if args.trace:
            traced = work / "traced"
            make_inputs(w, args.seed, root, traced)
            traces, traced_wall = [], 0.0
            for stage in STAGES:
                path = traced / f"{stage}.trace.json"
                elapsed = runner.stage(stage, traced, trace=path)
                traced_wall += elapsed if stage in w.timed else 0.0
                traces.append(json.loads(path.read_text()))
            runner.check(
                [] if corpus.tree_digest(traced / "out") == output_digest
                else ["the traced pass wrote different outputs"]
            )
            values, absent = layer_metrics(traces, traced_wall - median(walls), median(walls))
            detail["absent"] = absent
            detail["spans"] = {t["stage"]: t["spans"] for t in traces}
        else:
            values = {
                "setup_s": median(setups),
                "wall_s": median(walls),
                **{f"{s.replace('-', '_')}_s": median(runner.times[s]) for s in STAGES},
                "peak_rss_mb": runner.peak_rss_kib / 1024,
                **quality,
            }
    except StageFailed:
        pass
    values["ok_share"] = (runner.attempted - runner.failed) / runner.attempted
    correct = runner.failed == 0
    detail.update(errors=runner.errors, environment=environment(root))
    key = "per_layer" if args.trace else "end_to_end"
    metrics = emit(spec[key], values) if correct else {}
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "authorlm" / "cli.py"]
    if args.workload == "english":
        needed.append(root / PORTER_TSV)
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a checkout root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = root / ".perfbench_work" / run_id
    try:
        result, detail = run(args, root, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail["result"] = result
    (results / f"{run_id}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for error in detail["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
