"""Neural LM: forward/backward correctness, training behavior, storage.

The backward pass is checked against central finite differences of the
loss; the forward pass against a deliberately naive loop reimplementation;
training, bit for bit, against the plain per-tensor loop in
nnlm_reference.
"""

import math
import pickle

import numpy as np
import pytest

import nnlm_reference as ref
from authorlm import nnlm
from authorlm.textproc import Samples


def tiny_config(**kw):
    defaults = dict(
        vocab_size=7, order=4, embed_dim=3, hidden_dim=5, batch_size=4,
        init_seed=13, init_scale=0.4,
    )
    defaults.update(kw)
    return nnlm.NnlmConfig(**defaults)


def random_batch(cfg, rng, size=None):
    b = size or cfg.batch_size
    return Samples(
        rng.integers(0, cfg.vocab_size, size=(b, cfg.order - 1)),
        rng.integers(0, cfg.vocab_size, size=b),
    )


def naive_forward(params, contexts, targets):
    """Loop-and-math.exp reimplementation used as an oracle."""
    losses, all_probs = [], []
    for ctx, tgt in zip(contexts, targets):
        x = []
        for w in ctx:
            x.extend(params.embed[w])
        h = []
        for j in range(params.b_hid.size):
            z = params.b_hid[j] + sum(x[i] * params.w_hid[i, j] for i in range(len(x)))
            h.append(1.0 / (1.0 + math.exp(-z)))
        logits = []
        for v in range(params.b_out.size):
            logits.append(params.b_out[v] + sum(h[j] * params.w_out[j, v] for j in range(len(h))))
        mx = max(logits)
        exps = [math.exp(z - mx) for z in logits]
        total = sum(exps)
        probs = [e / total for e in exps]
        all_probs.append(probs)
        losses.append(-math.log(probs[tgt]))
    return np.array(all_probs), sum(losses) / len(losses)


class TestInit:
    def test_biases_exactly_zero(self):
        params = nnlm.init_params(tiny_config())
        assert (params.b_hid == 0).all()
        assert (params.b_out == 0).all()

    def test_same_seed_bit_identical(self):
        a = nnlm.init_params(tiny_config())
        b = nnlm.init_params(tiny_config())
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert (ta == tb).all()

    def test_zero_scale_zero_weights(self):
        params = nnlm.init_params(tiny_config(init_scale=0.0))
        assert all((t == 0).all() for _, t in params.tensors())

    def test_weights_within_scale(self):
        params = nnlm.init_params(tiny_config(init_scale=0.05))
        for name in ("embed", "w_hid", "w_out"):
            t = getattr(params, name)
            assert (np.abs(t) < 0.05).all()


class TestForward:
    def test_zero_output_layer_uniform(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        params.w_out[:] = 0.0
        params.b_out[:] = 0.0
        batch = random_batch(cfg, np.random.default_rng(0))
        trace = nnlm.forward(params, batch)
        assert np.allclose(trace.output_probs, 1.0 / cfg.vocab_size, atol=1e-15)
        assert trace.loss == pytest.approx(math.log(cfg.vocab_size), abs=1e-12)

    def test_single_sample_loss_is_neg_log_target(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        batch = random_batch(cfg, np.random.default_rng(1), size=1)
        trace = nnlm.forward(params, batch)
        assert trace.loss == pytest.approx(
            -math.log(trace.output_probs[0, batch.targets[0]]), abs=1e-12
        )

    def test_matches_naive_reimplementation(self):
        cfg = tiny_config(vocab_size=4, embed_dim=2, hidden_dim=3)
        params = nnlm.init_params(cfg)
        rng = np.random.default_rng(2)
        batch = random_batch(cfg, rng, size=3)
        trace = nnlm.forward(params, batch)
        probs, loss = naive_forward(params, batch.contexts, batch.targets)
        assert np.abs(trace.output_probs - probs).max() < 1e-12
        assert abs(trace.loss - loss) < 1e-12

    def test_rejects_out_of_range_ids(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        bad = Samples(np.array([[0, 1, cfg.vocab_size]]), np.array([0]))
        with pytest.raises(ValueError, match="out of range"):
            nnlm.forward(params, bad)
        with pytest.raises(ValueError, match="out of range"):
            nnlm.forward(params, Samples(np.array([[0, 1, 2]]), np.array([-1])))

    def test_rejects_empty_batch(self):
        params = nnlm.init_params(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            nnlm.forward(params, Samples(np.empty((0, 3), dtype=int), np.empty(0, dtype=int)))

    def test_rows_sum_to_one(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        trace = nnlm.forward(params, random_batch(cfg, np.random.default_rng(3)))
        assert np.abs(trace.output_probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_stable_at_huge_preactivations(self):
        # scale weights so logits reach magnitude ~1e4: log-probs must stay
        # finite and exponentiate to rows summing to 1
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        params.w_out[:] *= 0.0
        params.b_out[:] = np.linspace(-1e4, 1e4, cfg.vocab_size)
        trace = nnlm.forward(params, random_batch(cfg, np.random.default_rng(4)))
        assert np.isfinite(trace.log_probs).all()
        assert np.abs(np.exp(trace.log_probs).sum(axis=1) - 1.0).max() < 1e-9


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        params.w_out[:] = 0.0
        params.b_out[:] = 0.0
        params.b_out[2] = 1e9  # saturates the softmax at id 2
        batch = Samples(np.array([[0, 1, 2]]), np.array([2]))
        trace = nnlm.forward(params, batch)
        assert trace.loss == 0.0
        assert trace.output_probs[0, 2] == 1.0

    def test_uniform_v100_analytic(self):
        cfg = nnlm.NnlmConfig(
            vocab_size=100, order=4, embed_dim=2, hidden_dim=2, init_scale=0.0
        )
        params = nnlm.init_params(cfg)
        batch = Samples(np.array([[5, 6, 7]]), np.array([42]))
        trace = nnlm.forward(params, batch)
        assert trace.loss == pytest.approx(math.log(100), abs=1e-12)

    def test_matches_onehot_expansion(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        batch = random_batch(cfg, np.random.default_rng(5))
        trace = nnlm.forward(params, batch)
        total = 0.0
        for probs, tgt in zip(trace.output_probs, batch.targets):
            onehot = np.zeros(cfg.vocab_size)
            onehot[tgt] = 1.0
            total += -(onehot * np.log(probs)).sum()
        assert trace.loss == pytest.approx(total / len(batch), abs=1e-12)

    def test_loss_non_negative(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        rng = np.random.default_rng(6)
        for _ in range(20):
            assert nnlm.forward(params, random_batch(cfg, rng)).loss >= 0.0


def finite_difference_check(cfg, rng, step=1e-4, rel_tol=1e-6):
    """Compare every analytic gradient entry with central differences.

    Entries where both sides are exactly zero (e.g. embedding rows of
    words absent from the batch) pass trivially; all others must agree to
    rel_tol in relative terms.
    """
    params = nnlm.init_params(cfg)
    batch = random_batch(cfg, rng)
    grads = nnlm.backward(params, nnlm.forward(params, batch), batch)
    worst = 0.0
    for (_, p), (_, g) in zip(params.tensors(), grads.tensors()):
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = nnlm.forward(params, batch).loss
            flat_p[i] = orig - step
            down = nnlm.forward(params, batch).loss
            flat_p[i] = orig
            fd = (up - down) / (2.0 * step)
            if fd == 0.0 and flat_g[i] == 0.0:
                continue
            rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]), abs(fd))
            worst = max(worst, rel)
            assert rel < rel_tol, f"entry {i}: analytic {flat_g[i]}, fd {fd}"
    return worst


class TestBackward:
    def test_output_preactivation_gradient_identity(self):
        # d loss / d logits must equal (probs - onehot) / B
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        batch = random_batch(cfg, np.random.default_rng(7))
        trace = nnlm.forward(params, batch)
        grads = nnlm.backward(params, trace, batch)
        dlogits = trace.output_probs.copy()
        dlogits[np.arange(len(batch)), batch.targets] -= 1.0
        dlogits /= len(batch)
        assert np.allclose(grads.b_out, dlogits.sum(axis=0), atol=1e-15)
        assert np.allclose(grads.w_out, trace.hidden.T @ dlogits, atol=1e-15)

    def test_repeated_context_word_accumulates(self):
        cfg = tiny_config(batch_size=1)
        params = nnlm.init_params(cfg)
        batch = Samples(np.array([[4, 4, 4]]), np.array([1]))
        grads = nnlm.backward(params, nnlm.forward(params, batch), batch)
        # finite differences on the repeated row
        step = 1e-4
        for j in range(cfg.embed_dim):
            orig = params.embed[4, j]
            params.embed[4, j] = orig + step
            up = nnlm.forward(params, batch).loss
            params.embed[4, j] = orig - step
            down = nnlm.forward(params, batch).loss
            params.embed[4, j] = orig
            fd = (up - down) / (2.0 * step)
            assert grads.embed[4, j] == pytest.approx(fd, rel=1e-6)
        # other rows untouched
        untouched = [r for r in range(cfg.vocab_size) if r != 4]
        assert (grads.embed[untouched] == 0.0).all()

    def test_finite_differences_small_configs(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            cfg = tiny_config(init_seed=trial)
            finite_difference_check(cfg, rng)

    def test_embedding_row_affects_output_iff_in_context(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        batch = Samples(np.array([[1, 2, 3], [2, 3, 1]]), np.array([0, 4]))
        base = nnlm.forward(params, batch).log_probs
        for row in range(cfg.vocab_size):
            bumped = params.copy()
            bumped.embed[row] += 0.37
            changed = not np.array_equal(nnlm.forward(bumped, batch).log_probs, base)
            assert changed == (row in {1, 2, 3})


class TestMomentum:
    def test_zero_momentum_is_plain_sgd(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        reference = params.copy()
        velocity = params.zeros_like()
        grads = params.copy()  # arbitrary tensors as gradients
        nnlm.momentum_step(params, velocity, grads, learning_rate=0.3, momentum=0.0)
        for (_, p), (_, r), (_, g) in zip(params.tensors(), reference.tensors(), grads.tensors()):
            assert np.array_equal(p, r - 0.3 * g)

    def test_zero_grads_drift_by_velocity(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        reference = params.copy()
        velocity = params.zeros_like()
        for _, v in velocity.tensors():
            v += 0.5
        nnlm.momentum_step(params, velocity, params.zeros_like(), 0.1, momentum=0.9)
        for (_, p), (_, r) in zip(params.tensors(), reference.tensors()):
            assert np.allclose(p, r + 0.45, atol=1e-15)
        assert all(np.allclose(v, 0.45, atol=1e-15) for _, v in velocity.tensors())

    def test_two_steps_closed_form(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        velocity = params.zeros_like()
        grads = params.zeros_like()
        for _, g in grads.tensors():
            g += 2.0
        eta, mu = 0.1, 0.9
        nnlm.momentum_step(params, velocity, grads, eta, mu)
        nnlm.momentum_step(params, velocity, grads, eta, mu)
        expected_velocity = -eta * 2.0 * (1.0 + mu)
        for _, v in velocity.tensors():
            assert np.allclose(v, expected_velocity, atol=1e-15)


def memorization_samples():
    """20 distinct contexts, each with a fixed target: learnable exactly."""
    rng = np.random.default_rng(123)
    contexts = rng.permutation(np.array([[i % 6, (i // 2) % 6, (i // 3) % 6] for i in range(20)]))
    targets = np.array([(3 * i + 1) % 6 for i in range(20)])
    return Samples(contexts, targets)


class TestTrain:
    def test_memorizes_deterministic_mapping(self):
        samples = memorization_samples()
        cfg = nnlm.NnlmConfig(
            vocab_size=6, order=4, embed_dim=8, hidden_dim=32, batch_size=20,
            learning_rate=0.5, momentum=0.9, max_epochs=300, patience=300,
            init_seed=0,
        )
        model, history = nnlm.train(cfg, samples, samples)
        final = math.exp(history[-1].validation_loss)
        assert final < 1.05

    def test_divergence_raises_with_epoch(self):
        # overflow-scale weights make the very first batch loss non-finite
        # (the max-subtracted softmax never overflows on its own, so the
        # non-finite state has to come in through the parameters)
        samples = memorization_samples()
        cfg = nnlm.NnlmConfig(
            vocab_size=6, order=4, embed_dim=8, hidden_dim=16, batch_size=4,
            init_scale=8e307, max_epochs=50, patience=50,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(nnlm.TrainingDiverged, match="epoch 1") as exc_info:
                nnlm.train(cfg, samples, samples)
        assert exc_info.value.epoch == 1

    def test_divergence_survives_pickling(self):
        # training items run in worker processes, which send it back pickled
        exc = pickle.loads(pickle.dumps(nnlm.TrainingDiverged(3, "validation")))
        assert type(exc) is nnlm.TrainingDiverged
        assert str(exc) == "non-finite validation loss at epoch 3"
        assert (exc.epoch, exc.where) == (3, "validation")

    def test_deterministic_training(self):
        samples = memorization_samples()
        cfg = nnlm.NnlmConfig(
            vocab_size=6, order=4, embed_dim=4, hidden_dim=8, batch_size=8,
            max_epochs=5, patience=5, init_seed=3,
        )
        m1, h1 = nnlm.train(cfg, samples, samples)
        m2, h2 = nnlm.train(cfg, samples, samples)
        assert h1 == h2
        for (_, a), (_, b) in zip(m1.params.tensors(), m2.params.tensors()):
            assert np.array_equal(a, b)

    def test_returns_best_validation_params(self):
        samples = memorization_samples()
        cfg = nnlm.NnlmConfig(
            vocab_size=6, order=4, embed_dim=4, hidden_dim=8, batch_size=8,
            max_epochs=12, patience=12, init_seed=4,
        )
        model, history = nnlm.train(cfg, samples, samples)
        best = min(h.validation_loss for h in history)
        from authorlm.nnlm import _mean_loss
        assert _mean_loss(model.params, samples) == pytest.approx(best, abs=1e-12)

    def test_rejects_empty_sets(self):
        samples = memorization_samples()
        empty = Samples(np.empty((0, 3), dtype=int), np.empty(0, dtype=int))
        cfg = nnlm.NnlmConfig(vocab_size=6, order=4)
        with pytest.raises(ValueError):
            nnlm.train(cfg, empty, samples)
        with pytest.raises(ValueError):
            nnlm.train(cfg, samples, empty)

    def test_beats_counting_unigram_baseline(self):
        # on Markov text the context carries information a unigram model
        # cannot use; the trained model must land below the add-one
        # unigram perplexity of the same validation tokens
        from authorlm import synthetic
        from authorlm import textproc as tp

        author = synthetic.random_markov_author(
            "a0", synthetic.default_lexicon(12), seed=31, concentration=0.15
        )
        [corpus] = synthetic.generate_synthetic_corpus([author], seed=6, sentence_count=250)
        tokens = tp.preprocess_sentences(corpus.sentences, stemming=False)
        vocab = tp.build_vocabulary(tokens)
        pc = tp.encode(tokens, vocab, order=3)
        assignment = tp.split(len(pc), 0)
        train_s = tp.extract_samples(pc, assignment.train)
        val_s = tp.extract_samples(pc, assignment.validation)

        cfg = nnlm.NnlmConfig(
            vocab_size=vocab.size, order=3, embed_dim=10, hidden_dim=24,
            batch_size=64, learning_rate=0.3, max_epochs=12, patience=12,
            init_seed=0,
        )
        model, history = nnlm.train(cfg, train_s, val_s)
        nnlm_pp = math.exp(min(h.validation_loss for h in history))

        counts = np.ones(vocab.size)  # add-one smoothing over the vocabulary
        for t in train_s.targets:
            counts[t] += 1
        log_unigram = np.log(counts / counts.sum())
        unigram_pp = math.exp(-log_unigram[val_s.targets].mean())
        assert nnlm_pp < unigram_pp


# at the english shape a 128-row block ran the edge kernel of a 24-row
# dgemm tile on its last 8 rows
SHAPES = pytest.mark.parametrize(
    "vocab_size, embed_dim, hidden_dim", [(12, 6, 10), (53, 16, 48), (1820, 16, 48)],
    ids=["edge-kernel", "readme", "english"],
)


class TestQuery:
    def make_model(self, **kw):
        cfg = tiny_config(**kw)
        return nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))

    def test_distribution_normalizes(self):
        model = self.make_model()
        rng = np.random.default_rng(11)
        for _ in range(10):
            ctx = rng.integers(0, model.vocab_size, size=3)
            total = sum(
                math.exp(model.log_prob(ctx, t)) for t in range(model.vocab_size)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_consistent_with_forward(self):
        model = self.make_model()
        batch = Samples(np.array([[1, 2, 3]]), np.array([5]))
        trace = nnlm.forward(model.params, batch)
        assert model.log_prob([1, 2, 3], 5) == pytest.approx(
            float(trace.log_probs[0, 5]), abs=1e-12
        )

    def test_zero_model_uniform(self):
        model = self.make_model(init_scale=0.0)
        assert model.log_prob([0, 1, 2], 3) == pytest.approx(
            math.log(1.0 / model.vocab_size), abs=1e-12
        )

    def test_rejects_bad_ids(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.log_prob([0, 1, 2], model.vocab_size)

    def test_checks_ids_once_per_call(self, monkeypatch):
        checked = []
        check = nnlm._check_ids
        monkeypatch.setattr(nnlm, "_check_ids", lambda *args: checked.append(check(*args)))
        model = self.make_model()
        model.log_probs(*random_batch(model.config, np.random.default_rng(2), size=300))
        model.distribution([0, 1, 2])
        assert len(checked) == 2

    @SHAPES
    def test_sub_batches_score_like_the_full_batch(self, vocab_size, embed_dim, hidden_dim):
        # a position's bits do not depend on what else shares its call
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab_size, order=4, embed_dim=embed_dim, hidden_dim=hidden_dim,
            init_seed=3, init_scale=0.5,
        )
        model = nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))
        batch = random_samples(vocab_size, 4, 3000, seed=8)
        full = model.log_probs(batch.contexts, batch.targets)
        rng = np.random.default_rng(9)
        sizes = [1, 2, 127, 128, 129, 143, 144, 145, 255, 257, 2999, *rng.integers(1, 3000, size=40)]
        for size in sizes:
            rows = rng.choice(3000, size=size, replace=False)
            got = model.log_probs(batch.contexts[rows], batch.targets[rows])
            assert got.tobytes() == full[rows].tobytes(), size
        assert model.log_prob(batch.contexts[5], batch.targets[5]) == full[5]

    @SHAPES
    def test_block_rows_do_not_depend_on_their_place(self, vocab_size, embed_dim, hidden_dim):
        # every row of a block runs the main dgemm kernel: a context's whole
        # log-softmax row is the same at each of the block's places
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab_size, order=4, embed_dim=embed_dim, hidden_dim=hidden_dim,
            init_seed=3, init_scale=0.5,
        )
        params = nnlm.init_params(cfg)
        log_softmax = lambda shifted: shifted - nnlm._log_sum_exp(shifted)
        contexts = random_samples(vocab_size, 4, nnlm._SCORE_ROWS, seed=23).contexts
        [(_, first)] = nnlm._scored_blocks(params, contexts)
        first = log_softmax(first)
        for shift in range(1, nnlm._SCORE_ROWS):
            [(_, rolled)] = nnlm._scored_blocks(params, np.roll(contexts, shift, axis=0))
            assert np.roll(log_softmax(rolled), -shift, axis=0).tobytes() == first.tobytes(), shift

    @SHAPES
    def test_scores_each_distinct_context_once(self, vocab_size, embed_dim, hidden_dim, monkeypatch):
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab_size, order=4, embed_dim=embed_dim, hidden_dim=hidden_dim,
            init_seed=4, init_scale=0.5,
        )
        model = nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))
        rng = np.random.default_rng(20)
        pool = random_samples(vocab_size, 4, 150, seed=21, repeat_words=True).contexts
        contexts = pool[rng.integers(0, len(pool), size=600)]
        targets = rng.integers(0, vocab_size, size=600)
        distinct = {tuple(row) for row in contexts.tolist()}
        seen = []
        activations = nnlm._activations
        def counting(params, block, work):
            seen.extend(map(tuple, block.tolist()))
            return activations(params, block, work)
        monkeypatch.setattr(nnlm, "_activations", counting)
        got = model.log_probs(contexts, targets)
        # the distinct contexts, each once, then the last block's padding
        assert len(seen) == -(-len(distinct) // nnlm._SCORE_ROWS) * nnlm._SCORE_ROWS
        assert sorted(seen[: len(distinct)]) == sorted(distinct)
        assert seen[len(distinct) :] == [(0, 0, 0)] * (len(seen) - len(distinct))
        for row, (context, target) in enumerate(zip(contexts, targets)):
            assert model.log_probs(context[None], target[None]).tobytes() == got[row].tobytes()

    @SHAPES
    def test_target_only_normalization_gathers_the_full_log_softmax(
        self, vocab_size, embed_dim, hidden_dim
    ):
        # each target's shifted logit less its row's log-sum-exp is bit for
        # bit the target's entry of the whole normalized row
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab_size, order=4, embed_dim=embed_dim, hidden_dim=hidden_dim,
            init_seed=5, init_scale=0.5,
        )
        model = nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))
        rng = np.random.default_rng(24)
        pool = random_samples(vocab_size, 4, 200, seed=25, repeat_words=True).contexts
        contexts = pool[rng.integers(0, len(pool), size=1000)]  # repeats; 1000 % 144 != 0
        targets = rng.integers(0, vocab_size, size=len(contexts))
        rows = nnlm._SCORE_ROWS
        padded = np.zeros((-(-len(contexts) // rows) * rows, 3), dtype=np.int64)
        padded[: len(contexts)] = contexts
        full = []
        for start in range(0, len(padded), rows):
            work = nnlm._Workspace(model.params, rows)
            _, _, logits = nnlm._activations(model.params, padded[start : start + rows], work)
            logits -= np.log(np.add.reduce(np.exp(logits), axis=1, keepdims=True))
            full.append(logits.copy())
        full = np.concatenate(full)[: len(contexts)]
        want = full[np.arange(len(contexts)), targets]
        assert model.log_probs(contexts, targets).tobytes() == want.tobytes()
        assert nnlm._mean_loss(model.params, Samples(contexts, targets)) == -want.sum() / len(want)
        assert model.distribution(contexts[7]).tobytes() == np.exp(full[7]).tobytes()

    def test_distinct_contexts_past_the_int64_range(self):
        # V**(order-1) = 10**24 does not fit one int64 key: ranks take over
        rng = np.random.default_rng(22)
        words = rng.integers(0, 10**6, size=(40, 4))
        words[:, 0] = [0, 10**6 - 1] * 20
        contexts = words[rng.integers(0, len(words), size=300)]
        first, inverse = nnlm._distinct_contexts(contexts, 10**6)
        assert np.array_equal(contexts[first][inverse], contexts)
        assert len(first) == len(np.unique(contexts, axis=0))


class TestSerialization:
    def test_bit_exact_roundtrip(self, tmp_path):
        cfg = tiny_config()
        model = nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))
        path = tmp_path / "m.nnlm"
        nnlm.save_model(model, path)
        loaded = nnlm.load_model(path)
        assert loaded.config == cfg
        for (_, a), (_, b) in zip(model.params.tensors(), loaded.params.tensors()):
            assert a.tobytes() == b.tobytes()
        rng = np.random.default_rng(12)
        for _ in range(50):
            ctx = rng.integers(0, cfg.vocab_size, size=3)
            t = int(rng.integers(0, cfg.vocab_size))
            assert model.log_prob(ctx, t) == loaded.log_prob(ctx, t)

    def test_truncated_file(self, tmp_path):
        cfg = tiny_config()
        model = nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))
        path = tmp_path / "m.nnlm"
        nnlm.save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ValueError, match="truncated"):
            nnlm.load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "m.nnlm"
        path.write_bytes(b"not a model\n")
        with pytest.raises(ValueError):
            nnlm.load_model(path)


def markov_samples(lexicon_size, order, sentences, seed):
    """Train and validation samples from one synthetic Markov author."""
    from authorlm import synthetic
    from authorlm import textproc as tp

    author = synthetic.random_markov_author(
        "a0", synthetic.default_lexicon(lexicon_size), seed=seed, concentration=0.15
    )
    [corpus] = synthetic.generate_synthetic_corpus([author], seed=seed, sentence_count=sentences)
    tokens = tp.preprocess_sentences(corpus.sentences, stemming=False)
    vocab = tp.build_vocabulary(tokens)
    pc = tp.encode(tokens, vocab, order=order)
    assignment = tp.split(len(pc), 0)
    return vocab.size, tp.extract_samples(pc, assignment.train), tp.extract_samples(
        pc, assignment.validation
    )


def random_samples(vocab_size, order, n, seed, repeat_words=False):
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, vocab_size, size=(n, order - 1))
    if repeat_words:
        contexts[::2, 1:] = contexts[::2, :1]  # every other row: one word throughout
        contexts[1::3, 0] = contexts[1::3, -1]
    return Samples(contexts, rng.integers(0, vocab_size, size=n))


def assert_trains_like_reference(cfg, train_s, val_s, tmp_path):
    model, history = nnlm.train(cfg, train_s, val_s)
    ref_params, ref_history = ref.train(cfg, train_s, val_s)
    assert history == ref_history
    for (name, got), (_, want) in zip(model.params.tensors(), ref_params.tensors()):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    path = tmp_path / "m.nnlm"
    nnlm.save_model(model, path)
    assert path.read_bytes() == ref.saved_bytes(cfg, ref_params)
    return history


class TestBitExactTraining:
    """nnlm.train against the per-tensor reference loop: same params, same
    history, same saved bytes."""

    def test_readme_shapes(self, tmp_path):
        vocab_size, train_s, val_s = markov_samples(50, 4, 400, seed=7)
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab_size, order=4, embed_dim=16, hidden_dim=48, batch_size=100,
            learning_rate=0.3, momentum=0.9, max_epochs=4, patience=4, init_seed=11,
        )
        assert len(train_s) % cfg.batch_size != 0
        assert len(assert_trains_like_reference(cfg, train_s, val_s, tmp_path)) == 4

    @pytest.mark.parametrize("n", [320, 321, 345], ids=["full", "one-row", "short"])
    def test_blas_edge_kernel_shapes(self, tmp_path, n):
        # D=6/H=10/V=12: row counts that are not a multiple of 4 go through
        # OpenBLAS edge kernels
        cfg = nnlm.NnlmConfig(
            vocab_size=12, order=4, embed_dim=6, hidden_dim=10, batch_size=32,
            learning_rate=0.2, max_epochs=3, patience=3, init_seed=5,
        )
        train_s = random_samples(12, 4, n, seed=n)
        val_s = random_samples(12, 4, 50, seed=n + 1)
        assert_trains_like_reference(cfg, train_s, val_s, tmp_path)

    def test_short_last_batch_and_odd_offsets(self, tmp_path):
        # V*D = 21 puts every later tensor at an odd offset in the vector
        cfg = tiny_config(batch_size=6, max_epochs=5, patience=5, learning_rate=0.5)
        train_s = random_samples(cfg.vocab_size, cfg.order, 61, seed=3)
        val_s = random_samples(cfg.vocab_size, cfg.order, 9, seed=4)
        assert len(train_s) % cfg.batch_size == 1
        assert_trains_like_reference(cfg, train_s, val_s, tmp_path)

    def test_repeated_context_words(self, tmp_path):
        cfg = tiny_config(order=5, batch_size=16, max_epochs=4, patience=4)
        train_s = random_samples(cfg.vocab_size, cfg.order, 100, seed=8, repeat_words=True)
        val_s = random_samples(cfg.vocab_size, cfg.order, 20, seed=9, repeat_words=True)
        assert (train_s.contexts[0] == train_s.contexts[0, 0]).all()
        assert_trains_like_reference(cfg, train_s, val_s, tmp_path)

    def test_early_stop_history(self, tmp_path):
        # a large step makes validation loss rise, so patience ends the run
        cfg = tiny_config(batch_size=8, learning_rate=3.0, max_epochs=30, patience=2)
        train_s = random_samples(cfg.vocab_size, cfg.order, 40, seed=10)
        val_s = random_samples(cfg.vocab_size, cfg.order, 20, seed=11)
        history = assert_trains_like_reference(cfg, train_s, val_s, tmp_path)
        assert len(history) < cfg.max_epochs

    @SHAPES
    def test_blocked_validation_over_4096_samples(self, tmp_path, vocab_size, embed_dim, hidden_dim):
        # validation runs in _SCORE_ROWS-row blocks where the reference takes
        # one pass per 4,096 rows; at the english shape the batches are
        # BLAS-bound and the short last batch gets arrays of its own
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab_size, order=4, embed_dim=embed_dim, hidden_dim=hidden_dim,
            batch_size=32, learning_rate=0.3, max_epochs=3, patience=3, init_seed=6,
        )
        train_s = random_samples(vocab_size, 4, 250, seed=16)
        val_s = random_samples(vocab_size, 4, 4321, seed=17)
        assert len(train_s) % cfg.batch_size != 0 and len(val_s) % 128 != 0
        assert_trains_like_reference(cfg, train_s, val_s, tmp_path)

    def test_sigmoid_matches_masked_form(self):
        special = [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300]
        rng = np.random.default_rng(14)
        x = np.concatenate([special, rng.normal(0, 30, size=5000), rng.normal(0, 1, size=5000)])
        got, want = nnlm._sigmoid(x), ref.sigmoid(x)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        keep = ~np.isnan(want)  # a NaN may come out with the other sign bit
        assert got[keep].tobytes() == want[keep].tobytes()
        block = x[len(special) : len(special) + 4800].reshape(100, 48)
        assert nnlm._sigmoid(block).tobytes() == ref.sigmoid(block).tobytes()


class TestFixedBuffers:
    """Validation and scoring write into one workspace of ``_SCORE_ROWS``
    rows; each training call allocates arrays of its own."""

    def test_validation_memory_is_one_block(self):
        import tracemalloc

        cfg = nnlm.NnlmConfig(vocab_size=2000, order=4, embed_dim=8, hidden_dim=16, init_seed=1)
        params = nnlm.init_params(cfg)
        samples = random_samples(cfg.vocab_size, cfg.order, 5000, seed=18)
        block = nnlm._SCORE_ROWS * cfg.vocab_size * 8  # one (rows, V) float64 array
        tracemalloc.start()
        try:
            loss = nnlm._mean_loss(params, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * block, peak
        ref_params = ref.RefParams(*(t.copy() for _, t in params.tensors()))
        assert loss == ref._mean_loss(ref_params, samples)

    def test_forward_and_backward_calls_do_not_share_arrays(self):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        rng = np.random.default_rng(19)
        batches = [random_batch(cfg, rng), random_batch(cfg, rng)]
        traces = [nnlm.forward(params, b) for b in batches]
        grads = [nnlm.backward(params, t, b) for t, b in zip(traces, batches)]
        first = [traces[0].embedded, traces[0].hidden, traces[0].log_probs, grads[0].flat]
        second = [traces[1].embedded, traces[1].hidden, traces[1].log_probs, grads[1].flat]
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)
        again = nnlm.forward(params, batches[0])
        assert again.log_probs.tobytes() == traces[0].log_probs.tobytes()
        assert nnlm.backward(params, again, batches[0]).flat.tobytes() == grads[0].flat.tobytes()


class TestFlatParameters:
    def assert_flat(self, params):
        assert params.flat.ndim == 1 and params.flat.flags.c_contiguous
        total = 0
        for _, t in params.tensors():
            assert np.shares_memory(t, params.flat) and t.flags.c_contiguous
            total += t.size
        assert total == params.flat.size
        # writing through the vector shows in the views
        params.flat[-1] = 7.5
        assert params.b_out[-1] == 7.5

    def test_every_set_is_one_vector(self, tmp_path):
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        batch = random_batch(cfg, np.random.default_rng(15))
        grads = nnlm.backward(params, nnlm.forward(params, batch), batch)
        model = nnlm.NnlmModel(config=cfg, params=params.copy())
        nnlm.save_model(model, tmp_path / "m.nnlm")
        loaded = nnlm.load_model(tmp_path / "m.nnlm")
        for p in (params, params.copy(), params.zeros_like(), grads, loaded.params):
            self.assert_flat(p)
        assert [t.shape for _, t in loaded.params.tensors()] == list(nnlm.tensor_shapes(cfg))

    def test_tensor_layout_must_match_config(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.nnlm"
        nnlm.save_model(nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg)), path)
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header.replace(b'"b_out", [7]', b'"b_out", [8]') + b"\n" + payload)
        with pytest.raises(ValueError, match="do not match the config"):
            nnlm.load_model(path)

    @pytest.mark.parametrize("keep, name", [(8, "embed"), (21 * 8, "w_hid")])
    def test_truncation_names_the_tensor(self, tmp_path, keep, name):
        cfg = tiny_config()
        path = tmp_path / "m.nnlm"
        nnlm.save_model(nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg)), path)
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n" + payload[:keep])
        with pytest.raises(ValueError, match=f"truncated tensor '{name}'"):
            nnlm.load_model(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.nnlm"
        nnlm.save_model(nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg)), path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ValueError, match="unexpected bytes after tensor 'b_out'"):
            nnlm.load_model(path)

    @pytest.mark.parametrize(
        "index, value",
        [(0, np.inf), (21, np.nan), (70, -np.inf), (-1, np.inf)],
        ids=["embed", "w_hid", "b_hid", "b_out"],
    )
    def test_rejects_non_finite_parameters(self, tmp_path, index, value):
        # tiny_config's tensors: embed 21 values, w_hid 45, b_hid 5, w_out 35, b_out 7
        cfg = tiny_config()
        params = nnlm.init_params(cfg)
        params.flat[index] = value
        path = tmp_path / "m.nnlm"
        nnlm.save_model(nnlm.NnlmModel(config=cfg, params=params), path)
        with pytest.raises(ValueError, match="non-finite parameter value"):
            nnlm.load_model(path)
