"""Feed-forward neural language model.

Four layers: word ids, a shared embedding table, one sigmoid hidden layer,
and a softmax over the vocabulary.  The context's embedding rows are
concatenated in position order, and the model is trained to minimize mean
cross-entropy of the next word with mini-batch gradient descent plus
classical (heavy-ball) momentum.  All arithmetic is float64; softmax is
computed in log space with max subtraction.

Each parameter set (weights, velocity, gradients) is one contiguous
float64 vector; the five tensors are row-major views into it in the order
embed, w_hid, b_hid, w_out, b_out, which is also the order of their bytes
in a saved model.  The momentum update therefore runs once over the whole
vector.  Training is bit-exact with a plain per-tensor implementation
because every float operation and its order are kept:

- the sigmoid is ``e = exp(-|x|)``, then ``where(x >= 0, 1, e) / (1+e)``:
  ``1/(1+e)`` where ``x >= 0`` and ``e/(1+e)`` elsewhere, elementwise the
  same values as ``1/(1+exp(-x))`` and ``exp(x)/(1+exp(x))`` evaluated on
  the two halves;
- the embedding gradient is one ``np.bincount`` over ``id*D + column``,
  which, like ``np.add.at``, adds each cell's contributions from 0.0 in
  row order;
- every matrix product keeps its operands (the same arrays, transposes
  and memory layouts), so BLAS picks the same kernels.

Scoring (``NnlmModel.log_probs`` and ``distribution``) runs the forward
pass in fixed blocks of ``_SCORE_ROWS`` rows, padding the last block, so a
position's log probability does not depend on what else is in its query.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .files import write_file
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
        # written so that NaN fails them too
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.init_scale < math.inf):
            raise ValueError("init_scale must be non-negative and finite")


TENSOR_NAMES = ("embed", "w_hid", "b_hid", "w_out", "b_out")


def tensor_shapes(config: NnlmConfig) -> tuple[tuple[int, ...], ...]:
    """Shapes of the tensors named in TENSOR_NAMES, in that order."""
    v, d, h = config.vocab_size, config.embed_dim, config.hidden_dim
    return ((v, d), ((config.order - 1) * d, h), (h,), (h, v), (v,))


class NnlmParams:
    """All weight and bias tensors as views into one float64 vector ``flat``;
    embeddings are shared across positions."""

    embed: np.ndarray   # (V, D)
    w_hid: np.ndarray   # ((order-1)*D, H)
    b_hid: np.ndarray   # (H,)
    w_out: np.ndarray   # (H, V)
    b_out: np.ndarray   # (V,)

    def __init__(self, flat: np.ndarray, shapes: Sequence[tuple[int, ...]]):
        self.flat = flat
        self.shapes = tuple(shapes)
        start = 0
        for name, shape in zip(TENSOR_NAMES, self.shapes):
            stop = start + math.prod(shape)
            setattr(self, name, flat[start:stop].reshape(shape))
            start = stop
        if start != flat.size:
            raise ValueError(f"{flat.size} values do not fit shapes {self.shapes}")

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in TENSOR_NAMES:
            yield name, getattr(self, name)

    def copy(self) -> "NnlmParams":
        return NnlmParams(self.flat.copy(), self.shapes)

    def zeros_like(self) -> "NnlmParams":
        return NnlmParams(np.zeros_like(self.flat), self.shapes)


def init_params(config: NnlmConfig) -> NnlmParams:
    """Weights uniform on (-init_scale, init_scale) from the seeded stream,
    drawn for embed, w_hid and w_out in turn; biases exactly zero."""
    rng = stream(config.init_seed)
    s = config.init_scale
    shapes = tensor_shapes(config)
    params = NnlmParams(np.zeros(sum(math.prod(shape) for shape in shapes)), shapes)
    for weights in (params.embed, params.w_hid, params.w_out):
        weights[...] = rng.uniform(-s, s, size=weights.shape)
    return params


@dataclass
class ForwardTrace:
    """Intermediate activations kept for the backward pass.

    ``log_probs`` is the numerically safe representation; ``output_probs``
    is its exponential and can underflow to zero for extreme logits.
    """

    embedded: np.ndarray      # (B, (order-1)*D)
    hidden: np.ndarray        # (B, H)
    log_probs: np.ndarray     # (B, V)
    loss: float

    @property
    def output_probs(self) -> np.ndarray:  # (B, V)
        return np.exp(self.log_probs)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument, so neither branch can overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _check_ids(contexts: np.ndarray, targets: np.ndarray, vocab_size: int) -> None:
    if contexts.size == 0:
        raise ValueError("batch is empty")
    lo = min(contexts.min(), targets.min())
    hi = max(contexts.max(), targets.max())
    if lo < 0 or hi >= vocab_size:
        raise ValueError(f"word id out of range: saw {lo}..{hi} for V={vocab_size}")


def _activations(params: NnlmParams, contexts: np.ndarray):
    b = contexts.shape[0]
    embedded = params.embed[contexts].reshape(b, -1)
    pre = embedded @ params.w_hid
    pre += params.b_hid
    hidden = _sigmoid(pre)
    logits = hidden @ params.w_out
    logits += params.b_out
    # log-softmax in place: subtract the row max, then the log-sum-exp
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return embedded, hidden, logits


# Rows per scoring block.  Scoring runs every matrix product on exactly
# this many rows, so a position gets the same bits whatever else shares its
# call: the value is a multiple of the OpenBLAS dgemm micro-tile height (4
# on Haswell, 16 on SkylakeX), so every row runs the main kernel, never an
# edge kernel or gemv.  At V = 53 a block's (rows, V) float64 temporaries
# are 53 KB, under glibc's 128 KB mmap threshold, so they are reused from
# the heap instead of being mapped and page-faulted in on every call.
_SCORE_ROWS = 128
_BLOCK_ROWS = np.arange(_SCORE_ROWS)


def _scored_blocks(params: NnlmParams, contexts: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, log-softmax rows) per block of ``_SCORE_ROWS`` contexts;
    the last block is padded with id-0 rows, whose scores are ignored."""
    n = len(contexts)
    padded = np.zeros((-(-n // _SCORE_ROWS) * _SCORE_ROWS, contexts.shape[1]), dtype=np.int64)
    padded[:n] = contexts
    for start in range(0, n, _SCORE_ROWS):
        _, _, log_probs = _activations(params, padded[start : start + _SCORE_ROWS])
        yield start, log_probs


def forward(params: NnlmParams, batch: Samples) -> ForwardTrace:
    """Forward pass over a batch; loss is the mean negative log probability
    assigned to the targets."""
    contexts, targets = batch
    _check_ids(contexts, targets, params.b_out.shape[0])
    embedded, hidden, log_probs = _activations(params, contexts)
    loss = cross_entropy(log_probs, targets)
    return ForwardTrace(embedded=embedded, hidden=hidden, log_probs=log_probs, loss=loss)


def cross_entropy(log_probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of -log p(target)."""
    picked = log_probs[np.arange(len(targets)), targets]
    # bit for bit the mean of -picked (negation commutes with rounding),
    # without np.mean's Python-level wrapper
    return float(-picked.sum() / len(targets))


def backward(params: NnlmParams, trace: ForwardTrace, batch: Samples) -> NnlmParams:
    """Analytic gradients of the batch-mean cross-entropy.

    Embedding gradients accumulate over the context positions, so a word
    repeated within one context contributes once per occurrence; each
    cell sums its contributions in batch-row order.
    """
    contexts, targets = batch
    b = contexts.shape[0]
    d = params.embed.shape[1]

    dlogits = np.exp(trace.log_probs)
    dlogits[np.arange(b), targets] -= 1.0
    dlogits /= b

    grads = NnlmParams(np.empty_like(params.flat), params.shapes)
    np.matmul(trace.hidden.T, dlogits, out=grads.w_out)
    np.add.reduce(dlogits, axis=0, out=grads.b_out)

    # d loss / d pre-activation = (dhidden * hidden) * (1 - hidden), in place
    dpre = dlogits @ params.w_out.T
    dpre *= trace.hidden
    dpre *= 1.0 - trace.hidden
    np.matmul(trace.embedded.T, dpre, out=grads.w_hid)
    np.add.reduce(dpre, axis=0, out=grads.b_hid)

    # dembedded[i, c*D + j] belongs to cell (contexts[i, c], j) of embed;
    # bincount adds each cell's terms in row order, as np.add.at does
    dembedded = dpre @ params.w_hid.T
    cells = (contexts * d)[..., None] + np.arange(d)
    grads.embed[...] = np.bincount(
        cells.ravel(), weights=dembedded.ravel(), minlength=grads.embed.size
    ).reshape(grads.embed.shape)
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
    v = velocity.flat
    v *= momentum
    v -= learning_rate * grads.flat
    params.flat += v


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
        n = len(targets)
        out = np.empty(n)
        for start, log_probs in _scored_blocks(self.params, contexts):
            stop = min(start + _SCORE_ROWS, n)
            out[start:stop] = log_probs[_BLOCK_ROWS[: stop - start], targets[start:stop]]
        return out

    def log_prob(self, context: Sequence[int], target: int) -> float:
        return float(self.log_probs(np.asarray([context]), np.asarray([target]))[0])

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Full next-word distribution for one context (probabilities)."""
        contexts = np.asarray([context], dtype=np.int64)
        _check_ids(contexts, np.zeros(1, dtype=np.int64), self.vocab_size)
        [(_, log_probs)] = _scored_blocks(self.params, contexts)
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
        contexts, targets = train_samples.contexts[perm], train_samples.targets[perm]
        running = 0.0
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            batch = Samples(contexts[start:stop], targets[start:stop])
            trace = forward(params, batch)
            if not math.isfinite(trace.loss):
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
    dtype, format version) followed by the raw row-major float64 bytes of
    each tensor in header order, i.e. the parameter vector as one block.
    Round-trips bit-exactly."""
    header = {
        "format": _MODEL_MAGIC,
        "version": _MODEL_VERSION,
        "config": asdict(model.config),
        "tensors": [[name, list(t.shape)] for name, t in model.params.tensors()],
        "dtype": "<f8",
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    write_file(path, header_line + model.params.flat.astype("<f8", copy=False).tobytes())


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
        shapes = tensor_shapes(config)
        layout = [[name, list(shape)] for name, shape in zip(TENSOR_NAMES, shapes)]
        if header.get("tensors") != layout:
            raise ValueError(f"{path}: tensors {header.get('tensors')!r} do not match the config")
        ends = np.cumsum([math.prod(shape) for shape in shapes]) * 8
        buf = bytearray(int(ends[-1]))
        got = f.readinto(buf)
        if got != len(buf):
            short = TENSOR_NAMES[int(np.searchsorted(ends, got, side="right"))]
            raise ValueError(f"{path}: truncated tensor {short!r}")
        if f.read(1):
            raise ValueError(f"{path}: unexpected bytes after tensor {TENSOR_NAMES[-1]!r}")
    flat = np.frombuffer(buf, dtype="<f8")
    if not np.isfinite(flat).all():  # it would turn scores into NaN or infinities
        raise ValueError(f"{path}: non-finite parameter value")
    return NnlmModel(config=config, params=NnlmParams(flat, shapes))
