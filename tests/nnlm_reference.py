"""Reference NNLM training loop, kept as the earlier straightforward code.

Five separately allocated tensors, a masked-index sigmoid, an
``np.add.at`` embedding scatter, a per-tensor momentum update and a
fancy-index gather for every batch.  Used as the oracle that
``authorlm.nnlm.train`` must match bit for bit: parameters, per-epoch
losses and saved bytes.
"""

import json
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from authorlm.nnlm import EpochStats, NnlmConfig, TrainingDiverged
from authorlm.prng import stream
from authorlm.textproc import Samples


@dataclass
class RefParams:
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

    def copy(self) -> "RefParams":
        return RefParams(*(t.copy() for _, t in self.tensors()))

    def zeros_like(self) -> "RefParams":
        return RefParams(*(np.zeros_like(t) for _, t in self.tensors()))


def init_params(config: NnlmConfig) -> RefParams:
    rng = stream(config.init_seed)
    s = config.init_scale
    ctx = config.order - 1

    def draw(*shape):
        return rng.uniform(-s, s, size=shape)

    return RefParams(
        embed=draw(config.vocab_size, config.embed_dim),
        w_hid=draw(ctx * config.embed_dim, config.hidden_dim),
        b_hid=np.zeros(config.hidden_dim),
        w_out=draw(config.hidden_dim, config.vocab_size),
        b_out=np.zeros(config.vocab_size),
    )


@dataclass
class RefTrace:
    embedded: np.ndarray
    hidden: np.ndarray
    log_probs: np.ndarray
    output_probs: np.ndarray
    loss: float


def sigmoid(x: np.ndarray) -> np.ndarray:
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


def _activations(params: RefParams, contexts: np.ndarray):
    b = contexts.shape[0]
    embedded = params.embed[contexts].reshape(b, -1)
    hidden = sigmoid(embedded @ params.w_hid + params.b_hid)
    log_probs = _log_softmax(hidden @ params.w_out + params.b_out)
    return embedded, hidden, log_probs


def forward(params: RefParams, batch: Samples) -> RefTrace:
    contexts, targets = batch
    _check_ids(contexts, targets, params.b_out.shape[0])
    embedded, hidden, log_probs = _activations(params, contexts)
    loss = float(-log_probs[np.arange(len(targets)), targets].mean())
    return RefTrace(
        embedded=embedded,
        hidden=hidden,
        log_probs=log_probs,
        output_probs=np.exp(log_probs),
        loss=loss,
    )


def backward(params: RefParams, trace: RefTrace, batch: Samples) -> RefParams:
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


def momentum_step(params, velocity, grads, learning_rate, momentum) -> None:
    for (_, p), (_, v), (_, g) in zip(params.tensors(), velocity.tensors(), grads.tensors()):
        v *= momentum
        v -= learning_rate * g
        p += v


def _mean_loss(params: RefParams, samples: Samples, chunk: int = 4096) -> float:
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
) -> tuple[RefParams, list[EpochStats]]:
    """Returns the best-validation parameters and the per-epoch history."""
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

    return best_params, history


def saved_bytes(config: NnlmConfig, params: RefParams) -> bytes:
    """The bytes the earlier ``save_model`` wrote: header line, then each
    tensor's row-major ``<f8`` bytes in turn."""
    tensors = list(params.tensors())
    header = {
        "format": "authorlm-nnlm",
        "version": 1,
        "config": asdict(config),
        "tensors": [[name, list(t.shape)] for name, t in tensors],
        "dtype": "<f8",
    }
    out = [json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"]
    out += [np.ascontiguousarray(t, dtype="<f8").tobytes() for _, t in tensors]
    return b"".join(out)
