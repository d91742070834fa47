"""Outside-in layer trace of one authorlm CLI stage.

Run as ``python3 perfbench/tracer.py TRACE_JSON STAGE --config run.json``
with ``src`` on ``PYTHONPATH``.  It wraps public functions of the authorlm
modules, runs ``authorlm.cli.main`` in this process, writes what it
recorded to TRACE_JSON and exits with the stage's exit code.  No file of
the program changes: the wrappers replace module and class attributes in
this process only.

Coarse calls get one span each (name, start, end, parent span).  Calls made
per word, per token or per batch only bump aggregated counters, which keeps
the overhead bounded.  Every wrapped function records its call count and
inclusive time (``busy``); the stage records its time minus that of the
wrapped calls directly inside it (``self``).  A function that no longer
exists is reported as absent.
"""

from __future__ import annotations

import json
import sys
import time

SPANS = (
    "evaluation.accuracy_sweep",
    "evaluation.classify",
    "evaluation.perplexity",
    "nnlm.train",
    "nnlm.load_model",
    "kn.load_model",
)
COUNTERS = (
    "nnlm.forward",
    "nnlm.backward",
    "nnlm.momentum_step",
    "nnlm.NnlmModel.log_probs",
    "kn.count",
    "kn.build_model",
    "kn.save_model",
    "kn.KnModel.log_probs",
    "textproc.encode_sentence",
    "textproc.samples_from_sentences",
    "textproc.read_corpus_file",
    "textproc.load_vocabulary",
    "textproc.load_processed",
    "porter.stem",
    "prng.stream",
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s]
        self.extra = {"nnlm.epochs": 0, "kn.entries": 0, "nnlm.tokens": 0, "kn.tokens": 0}
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.absent: list[str] = []
        self._depth = 0  # 1 inside the stage, +1 per open wrapped call
        self._covered = 0.0  # time of wrapped calls directly inside the stage
        self._open_spans: list[int] = []
        self._scorings: set = set()
        self._scoring_total = 0
        self._models: dict[int, object] = {}

    def wrap(self, name: str, fn, span: bool, hook=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        open_spans, spans = self._open_spans, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            self._depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._depth -= 1
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                if self._depth == 1:
                    self._covered += elapsed
                if span:
                    open_spans.pop()
                    spans[index][1:3] = [start, end]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # hooks: counts taken where the work happens, outside the timed call --

    def _tokens(self, key):
        def hook(args, kwargs, result):
            self.extra[key] += len(result)
        return hook

    def _epochs(self, args, kwargs, result):
        self.extra["nnlm.epochs"] += len(result[1])

    def _entries(self, args, kwargs, result):
        self.extra["kn.entries"] += result.vocab_size + sum(
            len(t) for t in (*result.probs.values(), *result.bows.values())
        )

    def _classify(self, args, kwargs, result):
        authors = kwargs.get("authors", args[0] if args else ())
        sentences = kwargs.get("token_sentences", args[1] if len(args) > 1 else ())
        keys = [tuple(s) for s in sentences]
        for author in authors:
            model_id = id(author.model)
            self._models[model_id] = author.model  # keep ids unique
            self._scorings.update((model_id, k) for k in keys)
        self._scoring_total += len(authors) * len(keys)

    def install(self, package) -> None:
        import importlib

        hooks = {
            "nnlm.NnlmModel.log_probs": self._tokens("nnlm.tokens"),
            "kn.KnModel.log_probs": self._tokens("kn.tokens"),
            "evaluation.classify": self._classify,
            "nnlm.train": self._epochs,
            "kn.build_model": self._entries,
        }
        modules = [
            m for n, m in sys.modules.items()
            if n == package.__name__ or n.startswith(package.__name__ + ".")
        ]
        for name in SPANS + COUNTERS:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{package.__name__}.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, name in SPANS, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            # Replace every module-level reference, so that names imported
            # with ``from .x import f`` are traced too.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def run_stage(self, main, argv: list[str]) -> tuple[int, float, float]:
        """Run the stage; return its exit code, time and self time."""
        self._depth, self._covered = 1, 0.0
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        self._depth = 0
        return code, elapsed, elapsed - self._covered

    def report(self, stage: str, code: int, busy: float, self_s: float) -> dict:
        return {
            "stage": stage,
            "exit": code,
            "busy_s": busy,
            "self_s": self_s,
            "stats": self.stats,
            "extra": self.extra,
            "scorings": [len(self._scorings), self._scoring_total],
            "absent": self.absent,
            "spans": self.spans,
        }


def main(argv: list[str]) -> int:
    out_path, stage, *cli_args = argv
    import authorlm
    from authorlm import cli

    tracer = Tracer()
    tracer.install(authorlm)
    code, busy, self_s = tracer.run_stage(cli.main, [stage, *cli_args])
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(tracer.report(stage, code, busy, self_s), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
