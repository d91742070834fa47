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
That holds only if every row of a block runs the same OpenBLAS dgemm
kernel: the micro-tile is 4 rows high on Haswell, 16 on SkylakeX and 24
on some other cores, and the rows past the last whole tile of a block run
an edge kernel that can round differently (128 = 5 * 24 + 8, so rows
120-127 of every 128-row block did).  The block is therefore a multiple of
48, the least common multiple of those heights.  It holds on one BLAS
thread, which importing the package sets up; several threads split a
block's rows at other places.  Since a row's bits do not depend on its
place, ``log_probs`` scores each distinct context of a query once and
gathers every row's target from its context's scores; contexts are told
apart by one int64 key each (``textproc.row_keys``, which n-gram counting
shares).  Scoring normalizes only those targets: a block's logits are
shifted by their row max, each target's shifted logit is gathered, and
the row's log-sum-exp, taken with ``exp`` in place over the spent block,
is subtracted from it.  These are the two values the full log-softmax row
subtracts, so the bits are the same without a pass over the other V - 1
entries.  Training keeps the full log-softmax, which ``backward`` reads,
and ``distribution`` normalizes its one row.
Validation runs through the same routine and sums the gathered log
probabilities in groups of 4,096 values, in the order that one forward
pass per 4,096 rows summed them, so validation losses and early stopping
keep their bits.

Training allocates each batch's arrays afresh; only scoring reuses one
preallocated ``_Workspace`` of ``_SCORE_ROWS`` rows for all the blocks of a
call.  At V of about 2,000 a block's (rows, V) arrays are about 2 MB,
above glibc's mmap threshold, so a fresh block would be mapped and its
pages faulted in again each time: allocating per block made the ``english``
benchmark's ``experiment`` stage about 30% slower.  The CLI's training
workers keep freed memory in their heap (``cli._keep_freed_memory``), so
their batch arrays reuse warm pages; the workspace still serves the stage
processes, which keep glibc's defaults, and library callers.  Scoring
validation in blocks keeps a training item's memory from growing with its
validation set: at the paper's shapes (V = 6,000, D = 50, H = 200; 5,000
training and 5,000 validation samples, 2 epochs) one item's process peaked
at 501 MB with a 4,096-row validation pass and peaks at 111 MB with the
blocks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .files import Layout, read_arrays, write_arrays
from .prng import stream
from .textproc import Samples, row_keys

_MODEL_MAGIC = "authorlm-nnlm"
_MODEL_VERSION = 1
MIN_VOCAB_SIZE = 4  # the three reserved ids plus one word


class TrainingDiverged(RuntimeError):
    """Raised when a training or validation loss stops being finite."""

    def __init__(self, epoch: int, where: str):
        super().__init__(f"non-finite {where} loss at epoch {epoch}")
        self.epoch = epoch
        self.where = where

    def __reduce__(self):  # so that it crosses a process boundary
        return type(self), (self.epoch, self.where)


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


def _sigmoid(x: np.ndarray, out=None, e=None, mask=None) -> np.ndarray:
    """``where(x >= 0, 1, e) / (1+e)`` with ``e = exp(-|x|)``.  ``out`` (which
    may be ``x``), ``e`` and ``mask`` are arrays of x's shape to write into;
    any that is None is allocated."""
    # exp of a non-positive argument, so neither branch can overflow
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    mask = np.greater_equal(x, 0, out=mask)
    out = np.empty_like(x) if out is None else out
    np.copyto(out, e)
    np.copyto(out, 1.0, where=mask)
    e += 1.0
    out /= e
    return out


def _check_ids(contexts: np.ndarray, targets: np.ndarray, vocab_size: int) -> None:
    if contexts.size == 0:
        raise ValueError("batch is empty")
    lo = min(contexts.min(), targets.min())
    hi = max(contexts.max(), targets.max())
    if lo < 0 or hi >= vocab_size:
        raise ValueError(f"word id out of range: saw {lo}..{hi} for V={vocab_size}")


class _Workspace:
    """Arrays for forward passes of up to ``rows`` rows; a pass over b rows
    writes into their ``[:b]`` views."""

    def __init__(self, params: NnlmParams, rows: int):
        v, d = params.embed.shape
        context_dim, h = params.w_hid.shape
        self.embedded = np.empty((rows, context_dim // d, d))
        self.hidden = np.empty((rows, h))
        self.scratch = np.empty((rows, h))  # the sigmoid's exp(-|x|)
        self.mask = np.empty((rows, h), dtype=bool)
        self.logits = np.empty((rows, v))
        self.row_max = np.empty((rows, 1))


def _activations(params: NnlmParams, contexts: np.ndarray, work: _Workspace):
    b = contexts.shape[0]
    # every caller has checked the ids, so "clip" never clips; unlike the
    # default "raise" it lets take write into out without a buffer
    embedded = np.take(params.embed, contexts, axis=0, out=work.embedded[:b], mode="clip")
    embedded = embedded.reshape(b, -1)
    pre = np.matmul(embedded, params.w_hid, out=work.hidden[:b])
    pre += params.b_hid
    hidden = _sigmoid(pre, pre, work.scratch[:b], work.mask[:b])
    logits = np.matmul(hidden, params.w_out, out=work.logits[:b])
    logits += params.b_out
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True, out=work.row_max[:b])
    return embedded, hidden, logits


def _log_sum_exp(shifted: np.ndarray, out=None) -> np.ndarray:
    """Each row's log of the sum of exp over its max-shifted logits, as a
    (rows, 1) array; the exponentials go into ``out`` (which may be
    ``shifted`` itself, then spent) or a new array.  Subtracting it from a
    row's shifted logits gives the row's log-softmax."""
    lse = np.add.reduce(np.exp(shifted, out=out), axis=1, keepdims=True)
    return np.log(lse, out=lse)


# Rows per scoring block.  Scoring runs every matrix product on exactly
# this many rows, so a position gets the same bits whatever else shares its
# call, provided every row runs the main kernel, never an edge kernel or
# gemv.  So 48, the lcm of the OpenBLAS dgemm micro-tile heights 4
# (Haswell), 16 (SkylakeX) and 24, must divide it; 128 did not, and its
# rows 120-127 ran the 24-row tile's edge kernel.  A call writes all its
# blocks into one ``_Workspace`` of this many rows, so its memory does not
# grow with the number of rows it scores.
_SCORE_ROWS = 144


def _scored_blocks(params: NnlmParams, contexts: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, max-shifted logit rows) per block of ``_SCORE_ROWS``
    contexts; the last block is padded with id-0 rows, whose scores are
    ignored.  Every block is written into the same arrays, so a block's
    rows are valid until the next one is yielded."""
    n = len(contexts)
    padded = np.zeros((-(-n // _SCORE_ROWS) * _SCORE_ROWS, contexts.shape[1]), dtype=np.int64)
    padded[:n] = contexts
    work = _Workspace(params, _SCORE_ROWS)
    for start in range(0, n, _SCORE_ROWS):
        _, _, shifted = _activations(params, padded[start : start + _SCORE_ROWS], work)
        yield start, shifted


def _distinct_contexts(contexts: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct context, each row's distinct index),
    from one int64 key per context (``textproc.row_keys``)."""
    _, first, inverse = np.unique(row_keys(contexts, vocab_size), return_index=True, return_inverse=True)
    return first, inverse


def _target_log_probs(params: NnlmParams, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Log probability of each target, in row order.  Each distinct
    context is scored once, in ``_SCORE_ROWS`` blocks, and every row takes
    its target's shifted logit from its context's row, less that row's
    log-sum-exp: the two values the full log-softmax row subtracts, so the
    same bits, without normalizing the other V - 1 entries."""
    first, inverse = _distinct_contexts(contexts, params.b_out.shape[0])
    rows = np.argsort(inverse, kind="stable")  # grouped by distinct context
    owners = inverse[rows]
    cuts = np.searchsorted(owners, np.arange(0, len(first) + _SCORE_ROWS, _SCORE_ROWS))
    out = np.empty(len(targets))
    for (start, shifted), lo, hi in zip(_scored_blocks(params, contexts[first]), cuts, cuts[1:]):
        block, owner = rows[lo:hi], owners[lo:hi] - start
        picked = shifted[owner, targets[block]]
        out[block] = picked - _log_sum_exp(shifted, out=shifted)[owner, 0]
    return out


def forward(params: NnlmParams, batch: Samples) -> ForwardTrace:
    """Forward pass over a batch; loss is the mean negative log probability
    assigned to the targets."""
    contexts, targets = batch
    _check_ids(contexts, targets, params.b_out.shape[0])
    return _forward(params, batch)


def _forward(params: NnlmParams, batch: Samples) -> ForwardTrace:
    """``forward`` on a batch whose ids are known to be in range."""
    contexts, targets = batch
    work = _Workspace(params, len(contexts))
    embedded, hidden, log_probs = _activations(params, contexts, work)
    log_probs -= _log_sum_exp(log_probs)  # the full log-softmax, which backward needs
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
        return _target_log_probs(self.params, contexts, targets)

    def log_prob(self, context: Sequence[int], target: int) -> float:
        return float(self.log_probs(np.asarray([context]), np.asarray([target]))[0])

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Full next-word distribution for one context (probabilities)."""
        contexts = np.asarray([context], dtype=np.int64)
        _check_ids(contexts, np.zeros(1, dtype=np.int64), self.vocab_size)
        [(_, shifted)] = _scored_blocks(self.params, contexts)
        row = shifted[:1]
        return np.exp(row - _log_sum_exp(row))[0]


def _mean_loss(params: NnlmParams, samples: Samples, group: int = 4096) -> float:
    """Mean of -log p(target), scored in ``_SCORE_ROWS`` blocks.  The values
    are summed in groups of ``group``, as the earlier one forward pass per
    4,096 rows summed them, so the losses keep their bits."""
    picked = _target_log_probs(params, samples.contexts, samples.targets)
    total = 0.0
    for start in range(0, len(picked), group):
        total -= float(picked[start : start + group].sum())
    return total / len(picked)


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
            trace = _forward(params, batch)  # every sample's ids were checked above
            if not math.isfinite(trace.loss):
                raise TrainingDiverged(epoch, "training")
            grads = backward(params, trace, batch)
            momentum_step(params, velocity, grads, config.learning_rate, config.momentum)
            running += trace.loss * len(batch)
        train_loss = running / n

        val_loss = _mean_loss(params, validation_samples)
        if not math.isfinite(val_loss):
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
    """The model container (``files.write_arrays``): a header with the
    config, tensor shapes, dtype and format version, then the raw row-major
    float64 bytes of each tensor in header order, i.e. the parameter vector
    as one block.  Round-trips bit-exactly."""
    header = {
        "format": _MODEL_MAGIC,
        "version": _MODEL_VERSION,
        "config": asdict(model.config),
        "tensors": [[name, list(t.shape)] for name, t in model.params.tensors()],
        "dtype": "<f8",
    }
    write_arrays(path, header, [model.params.flat])


def _header_config(path, config) -> NnlmConfig:
    """The NnlmConfig a model header holds: exactly one value per field, an
    int (not a bool) for an int field and an int or float for a float one."""
    kinds = {f.name: f.type for f in fields(NnlmConfig)}  # "int" or "float"
    if not isinstance(config, dict) or config.keys() != kinds.keys():
        raise ValueError(f"{path}: the header config must have exactly the keys {sorted(kinds)}")
    for name, kind in kinds.items():
        if type(config[name]) not in ((int, float) if kind == "float" else (int,)):
            raise ValueError(f"{path}: the header config has a bad {name} {config[name]!r}")
    try:
        return NnlmConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{path}: the header config is invalid: {exc}") from None


def _layout(path, header: dict) -> Layout:
    """The float64 tensors a header's config implies; the header must list
    exactly those, with dtype ``<f8``."""
    if header.get("dtype") != "<f8":
        raise ValueError(f"{path}: dtype {header.get('dtype')!r}, expected '<f8'")
    shapes = tensor_shapes(_header_config(path, header.get("config")))
    if header.get("tensors") != [[name, list(shape)] for name, shape in zip(TENSOR_NAMES, shapes)]:
        raise ValueError(f"{path}: tensors {header.get('tensors')!r} do not match the config")
    return [(name, "<f8", shape) for name, shape in zip(TENSOR_NAMES, shapes)]


def load_model(path: str | Path) -> NnlmModel:
    header, tensors = read_arrays(path, _MODEL_MAGIC, _MODEL_VERSION, _layout)
    flat = np.concatenate([t.ravel() for t in tensors])
    if not np.isfinite(flat).all():  # it would turn scores into NaN or infinities
        raise ValueError(f"{path}: non-finite parameter value")
    config = NnlmConfig(**header["config"])
    return NnlmModel(config=config, params=NnlmParams(flat, tensor_shapes(config)))
