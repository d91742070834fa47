"""Run configuration: one JSON file drives the whole pipeline.

Values resolve in order: built-in defaults, then the config file, then
``--set key=value`` overrides, then dedicated command-line flags.  Every
command validates the whole config before touching the filesystem:
``RunConfig.validate`` reads each value once as the type of its default,
so commands use the values as they are.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .nnlm import MIN_VOCAB_SIZE, NnlmConfig
from .textproc import split_ratios


class ConfigError(ValueError):
    pass


_DEFAULTS: dict[str, Any] = {
    "corpus_dir": "corpus",
    "output_dir": "outputs",
    "pipeline": {
        "stemming": True,
        "prune_threshold": 1e-5,
        "order": 4,
    },
    "split": {
        "ratios": [0.8, 0.1, 0.1],
        "seeds": [0],
    },
    "nnlm": {
        "embed_dim": 50,
        "hidden_dim": 200,
        "batch_size": 100,
        "learning_rate": 0.1,
        "momentum": 0.9,
        "max_epochs": 20,
        "patience": 5,
        "init_scale": 0.1,
    },
    "experiment": {
        "sentence_counts": list(range(1, 21)),
        "trials": 100,
        "excluded_authors": [],
    },
    "synth": {
        "authors": 8,
        "lexicon_size": 50,
        "sentences": 2000,
        "seed": 7,
        "length_range": [4, 11],
        "concentration": 0.1,
    },
}


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix + key} must be an object")
            out[key] = _merge(base[key], value, f"{prefix}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _convert(default, value):
    """``value`` read as the type of ``default``, a list entry by entry.

    The one list whose default is empty, ``experiment.excluded_authors``,
    holds strings.
    """
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise TypeError("not a list")
        return [_convert(default[0] if default else "", v) for v in value]
    if isinstance(default, bool) and value not in (True, False):
        raise ValueError("not true or false")
    return type(default)(value)


def _convert_all(defaults: dict, node: dict, prefix: str = "") -> None:
    """Replace every value under ``node`` with its converted form."""
    for key, default in defaults.items():
        dotted = prefix + key
        if isinstance(default, dict):
            _convert_all(default, node[key], dotted + ".")
            continue
        try:
            node[key] = _convert(default, node[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{dotted}: {exc}") from None


@dataclass
class RunConfig:
    data: dict = field(default_factory=lambda: copy.deepcopy(_DEFAULTS))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be an object")
        try:
            return cls(data=_merge(_DEFAULTS, loaded))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def apply_override(self, dotted: str, raw: str) -> None:
        """Apply one ``section.key=value`` override; values parse as JSON
        first and fall back to plain strings."""
        node = self.data
        *parents, last = dotted.split(".")
        for part in parents:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config section {dotted!r}")
            node = node[part]
        if last not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(node[last], dict):
            raise ConfigError(f"{dotted!r} is a section; set its keys one by one")
        try:
            node[last] = json.loads(raw)
        except json.JSONDecodeError:
            node[last] = raw

    # typed accessors -------------------------------------------------

    @property
    def corpus_dir(self) -> Path:
        return Path(self.data["corpus_dir"])

    @property
    def output_dir(self) -> Path:
        return Path(self.data["output_dir"])

    @property
    def pipeline(self) -> dict:
        return self.data["pipeline"]

    @property
    def split(self) -> dict:
        return self.data["split"]

    @property
    def nnlm(self) -> dict:
        return self.data["nnlm"]

    @property
    def experiment(self) -> dict:
        return self.data["experiment"]

    @property
    def synth(self) -> dict:
        return self.data["synth"]

    @property
    def seeds(self) -> list[int]:
        return self.split["seeds"]

    def nnlm_config(self, vocab_size: int, order: int, init_seed: int) -> NnlmConfig:
        """The neural model settings for one (author, seed) work item."""
        return NnlmConfig(
            vocab_size=vocab_size, order=order, init_seed=init_seed, **self.nnlm
        )

    def validate(self, need_corpus: bool = True) -> None:
        _convert_all(_DEFAULTS, self.data)
        p = self.pipeline
        if p["order"] < 2:
            raise ConfigError("pipeline.order must be >= 2")
        if not 0.0 <= p["prune_threshold"] <= 1.0:
            raise ConfigError("pipeline.prune_threshold must be in [0, 1]")
        try:  # the rule every split applies, so no split refuses a valid config
            ratios = split_ratios(self.split["ratios"])
        except (ValueError, OverflowError) as exc:  # NaN and infinities have no ratio
            raise ConfigError(f"split.ratios: {exc}") from None
        if min(ratios) == 0:
            raise ConfigError("split.ratios must all be positive")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("split.seeds must be nonempty and all >= 0")
        exp = self.experiment
        if exp["trials"] < 0:
            raise ConfigError("experiment.trials must be >= 0")
        if any(s < 1 for s in exp["sentence_counts"]):
            raise ConfigError("experiment.sentence_counts must all be >= 1")
        if len(self.synth["length_range"]) != 2:
            raise ConfigError("synth.length_range must have two entries")
        try:
            self.nnlm_config(MIN_VOCAB_SIZE, p["order"], init_seed=0)
        except ValueError as exc:
            raise ConfigError(f"nnlm: {exc}") from None
        if need_corpus and not self.corpus_dir.is_dir():
            raise ConfigError(f"corpus directory not found: {self.corpus_dir}")
