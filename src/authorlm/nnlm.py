"""Feed-forward neural language model.

Four layers: word ids, a shared embedding table, one sigmoid hidden layer,
and a softmax over the vocabulary.  The context's embedding rows are
concatenated in position order, and the model is trained to minimize mean
cross-entropy of the next word with mini-batch gradient descent plus
classical (heavy-ball) momentum.  All arithmetic is float64; softmax is
computed in log space with max subtraction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .prng import stream
from .textproc import Samples

_MODEL_MAGIC = "authorlm-nnlm"
_MODEL_VERSION = 1
MIN_VOCAB_SIZE = 4  # the three reserved ids plus one word


class TrainingDiverged(RuntimeError):
    """Raised when a training or validation loss stops being finite."""

    def __init__(self, epoch: int, where: str):
        super().__init__(f"non-finite {where} loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class NnlmConfig:
    vocab_size: int
    order: int = 4
    embed_dim: int = 50
    hidden_dim: int = 200
    batch_size: int = 100
    learning_rate: float = 0.1
    momentum: float = 0.9
    max_epochs: int = 20
    patience: int = 5
    init_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.vocab_size < MIN_VOCAB_SIZE:
            raise ValueError("vocab_size must cover the reserved ids plus one word")
        for name in ("embed_dim", "hidden_dim", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.init_scale < 0.0:
            raise ValueError("init_scale must be non-negative")


@dataclass
class NnlmParams:
    """All weight and bias tensors; embeddings are shared across positions."""

    embed: np.ndarray   # (V, D)
    w_hid: np.ndarray   # ((order-1)*D, H)
    b_hid: np.ndarray   # (H,)
    w_out: np.ndarray   # (H, V)
    b_out: np.ndarray   # (V,)

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "embed", self.embed
        yield "w_hid", self.w_hid
        yield "b_hid", self.b_hid
        yield "w_out", self.w_out
        yield "b_out", self.b_out

    def copy(self) -> "NnlmParams":
        return NnlmParams(*(t.copy() for _, t in self.tensors()))

    def zeros_like(self) -> "NnlmParams":
        return NnlmParams(*(np.zeros_like(t) for _, t in self.tensors()))


def init_params(config: NnlmConfig) -> NnlmParams:
    """Weights uniform on (-init_scale, init_scale) from the seeded stream;
    biases exactly zero."""
    rng = stream(config.init_seed)
    s = config.init_scale
    ctx = config.order - 1

    def draw(*shape):
        return rng.uniform(-s, s, size=shape)

    return NnlmParams(
        embed=draw(config.vocab_size, config.embed_dim),
        w_hid=draw(ctx * config.embed_dim, config.hidden_dim),
        b_hid=np.zeros(config.hidden_dim),
        w_out=draw(config.hidden_dim, config.vocab_size),
        b_out=np.zeros(config.vocab_size),
    )


@dataclass
class ForwardTrace:
    """Intermediate activations kept for the backward pass.

    ``log_probs`` is the numerically safe representation; ``output_probs``
    is its exponential and can underflow to zero for extreme logits.
    """

    embedded: np.ndarray      # (B, (order-1)*D)
    hidden: np.ndarray        # (B, H)
    log_probs: np.ndarray     # (B, V)
    output_probs: np.ndarray  # (B, V)
    loss: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_ids(contexts: np.ndarray, targets: np.ndarray, vocab_size: int) -> None:
    if contexts.size == 0:
        raise ValueError("batch is empty")
    lo = min(contexts.min(), targets.min())
    hi = max(contexts.max(), targets.max())
    if lo < 0 or hi >= vocab_size:
        raise ValueError(f"word id out of range: saw {lo}..{hi} for V={vocab_size}")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def _activations(params: NnlmParams, contexts: np.ndarray):
    b = contexts.shape[0]
    embedded = params.embed[contexts].reshape(b, -1)
    hidden = _sigmoid(embedded @ params.w_hid + params.b_hid)
    log_probs = _log_softmax(hidden @ params.w_out + params.b_out)
    return embedded, hidden, log_probs


def forward(params: NnlmParams, batch: Samples) -> ForwardTrace:
    """Forward pass over a batch; loss is the mean negative log probability
    assigned to the targets."""
    contexts, targets = batch
    _check_ids(contexts, targets, params.b_out.shape[0])
    embedded, hidden, log_probs = _activations(params, contexts)
    loss = cross_entropy(log_probs, targets)
    return ForwardTrace(
        embedded=embedded,
        hidden=hidden,
        log_probs=log_probs,
        output_probs=np.exp(log_probs),
        loss=loss,
    )


def cross_entropy(log_probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of -log p(target)."""
    return float(-log_probs[np.arange(len(targets)), targets].mean())


def backward(params: NnlmParams, trace: ForwardTrace, batch: Samples) -> NnlmParams:
    """Analytic gradients of the batch-mean cross-entropy.

    Embedding gradients accumulate over the context positions, so a word
    repeated within one context contributes once per occurrence.
    """
    contexts, targets = batch
    b = contexts.shape[0]
    d = params.embed.shape[1]

    dlogits = trace.output_probs.copy()
    dlogits[np.arange(b), targets] -= 1.0
    dlogits /= b

    grads = params.zeros_like()
    grads.w_out[:] = trace.hidden.T @ dlogits
    grads.b_out[:] = dlogits.sum(axis=0)

    dhidden = dlogits @ params.w_out.T
    dpre = dhidden * trace.hidden * (1.0 - trace.hidden)
    grads.w_hid[:] = trace.embedded.T @ dpre
    grads.b_hid[:] = dpre.sum(axis=0)

    dembedded = (dpre @ params.w_hid.T).reshape(-1, d)
    np.add.at(grads.embed, contexts.ravel(), dembedded)
    return grads


def momentum_step(
    params: NnlmParams,
    velocity: NnlmParams,
    grads: NnlmParams,
    learning_rate: float,
    momentum: float,
) -> None:
    """velocity <- momentum * velocity - learning_rate * grads;
    params <- params + velocity.  Updates both arguments in place."""
    for (_, p), (_, v), (_, g) in zip(params.tensors(), velocity.tensors(), grads.tensors()):
        v *= momentum
        v -= learning_rate * g
        p += v


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    validation_loss: float


@dataclass(frozen=True)
class NnlmModel:
    """Trained model; immutable after training."""

    config: NnlmConfig
    params: NnlmParams

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

    @property
    def order(self) -> int:
        return self.config.order

    def log_probs(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Natural log probability of each target given its context row."""
        contexts = np.asarray(contexts, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        _check_ids(contexts, targets, self.vocab_size)
        _, _, log_probs = _activations(self.params, contexts)
        return log_probs[np.arange(len(targets)), targets]

    def log_prob(self, context: Sequence[int], target: int) -> float:
        return float(self.log_probs(np.asarray([context]), np.asarray([target]))[0])

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Full next-word distribution for one context (probabilities)."""
        contexts = np.asarray([context], dtype=np.int64)
        _check_ids(contexts, np.zeros(1, dtype=np.int64), self.vocab_size)
        _, _, log_probs = _activations(self.params, contexts)
        return np.exp(log_probs[0])


def _mean_loss(params: NnlmParams, samples: Samples, chunk: int = 4096) -> float:
    total = 0.0
    n = len(samples)
    for start in range(0, n, chunk):
        ctx = samples.contexts[start : start + chunk]
        tgt = samples.targets[start : start + chunk]
        _, _, log_probs = _activations(params, ctx)
        total += -log_probs[np.arange(len(tgt)), tgt].sum()
    return total / n


def train(
    config: NnlmConfig, train_samples: Samples, validation_samples: Samples
) -> tuple[NnlmModel, list[EpochStats]]:
    """Mini-batch training with per-epoch seeded shuffles and early stopping.

    Keeps the parameters from the epoch with the lowest validation loss and
    stops after ``patience`` epochs without improvement.  Raises
    TrainingDiverged as soon as any loss turns non-finite.
    """
    if len(train_samples) == 0 or len(validation_samples) == 0:
        raise ValueError("train and validation sample sets must be nonempty")
    _check_ids(train_samples.contexts, train_samples.targets, config.vocab_size)
    _check_ids(validation_samples.contexts, validation_samples.targets, config.vocab_size)

    params = init_params(config)
    velocity = params.zeros_like()
    best_params = params.copy()
    best_val = np.inf
    since_improvement = 0
    history: list[EpochStats] = []

    n = len(train_samples)
    for epoch in range(1, config.max_epochs + 1):
        perm = stream(config.init_seed, epoch).permutation(n)
        running = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = Samples(train_samples.contexts[idx], train_samples.targets[idx])
            trace = forward(params, batch)
            if not np.isfinite(trace.loss):
                raise TrainingDiverged(epoch, "training")
            grads = backward(params, trace, batch)
            momentum_step(params, velocity, grads, config.learning_rate, config.momentum)
            running += trace.loss * len(batch)
        train_loss = running / n

        val_loss = _mean_loss(params, validation_samples)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(epoch, "validation")
        history.append(EpochStats(epoch, train_loss, val_loss))

        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                break

    return NnlmModel(config=config, params=best_params), history


def save_model(model: NnlmModel, path: str | Path) -> None:
    """Binary container: one JSON header line (config, tensor shapes,
    dtype, format version) followed by raw row-major float64 tensor bytes.
    Round-trips bit-exactly."""
    tensors = list(model.params.tensors())
    header = {
        "format": _MODEL_MAGIC,
        "version": _MODEL_VERSION,
        "config": asdict(model.config),
        "tensors": [[name, list(t.shape)] for name, t in tensors],
        "dtype": "<f8",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, t in tensors:
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_model(path: str | Path) -> NnlmModel:
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a model file") from exc
        if header.get("format") != _MODEL_MAGIC:
            raise ValueError(f"{path}: unexpected format {header.get('format')!r}")
        if header.get("version") != _MODEL_VERSION:
            raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
        config = NnlmConfig(**header["config"])
        arrays = {}
        for name, shape in header["tensors"]:
            count = int(np.prod(shape))
            buf = f.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated tensor {name!r}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return NnlmModel(config=config, params=NnlmParams(**arrays))
