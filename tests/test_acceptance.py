"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The suite is self-contained: synthetic corpora stand in for
real author text, so every check is reproducible from a fresh checkout.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from kn_reference import ReferenceKn

from authorlm import cli
from authorlm import evaluation as ev
from authorlm import kn, nnlm, synthetic
from authorlm import textproc as tp
from authorlm.porter import stem
from authorlm.prng import derive_seed


def report(criterion: str, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS ({detail})")


# -----------------------------------------------------------------------
# 1. gradient oracle


def test_c1_gradient_oracle():
    """Analytic gradients match central finite differences (step 1e-4)
    with relative error < 1e-6 on >= 20 random small configs, in < 30 s.

    Entries where analytic and difference are both exactly zero (embedding
    rows of words outside the batch) count as agreeing.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250908)
    worst = 0.0
    for trial in range(20):
        cfg = nnlm.NnlmConfig(
            vocab_size=int(rng.integers(5, 11)),
            order=4,
            embed_dim=int(rng.integers(1, 5)),
            hidden_dim=int(rng.integers(1, 7)),
            batch_size=int(rng.integers(1, 6)),
            init_seed=trial,
            init_scale=0.5,
        )
        params = nnlm.init_params(cfg)
        batch = tp.Samples(
            rng.integers(0, cfg.vocab_size, size=(cfg.batch_size, 3)),
            rng.integers(0, cfg.vocab_size, size=cfg.batch_size),
        )
        grads = nnlm.backward(params, nnlm.forward(params, batch), batch)
        step = 1e-4
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
                assert rel < 1e-6, f"trial {trial}: rel err {rel:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    report("criterion 1 (gradient oracle)", f"20 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 2. loss / perplexity identities


def test_c2_loss_perplexity_identities():
    """ln V at a zeroed output layer (1e-12); uniform perplexity equals V
    (1e-9; exp(log(1/V)) alone costs a few ulps in float64); perplexity
    equals exp(mean cross-entropy) (1e-9)."""
    rng = np.random.default_rng(4)
    cfg = nnlm.NnlmConfig(vocab_size=9, order=4, embed_dim=3, hidden_dim=5, init_scale=0.4)
    params = nnlm.init_params(cfg)
    params.w_out[:] = 0.0
    params.b_out[:] = 0.0
    batch = tp.Samples(rng.integers(0, 9, size=(6, 3)), rng.integers(0, 9, size=6))
    loss = nnlm.forward(params, batch).loss
    assert abs(loss - math.log(9)) < 1e-12

    cfg100 = nnlm.NnlmConfig(vocab_size=100, order=4, embed_dim=2, hidden_dim=2, init_scale=0.0)
    uniform = nnlm.NnlmModel(config=cfg100, params=nnlm.init_params(cfg100))
    samples = tp.Samples(rng.integers(0, 100, size=(110, 3)), rng.integers(0, 100, size=110))
    pp_uniform = ev.perplexity_from_samples(uniform, samples).perplexity
    assert abs(pp_uniform - 100.0) < 1e-9

    cfg_r = nnlm.NnlmConfig(vocab_size=11, order=3, embed_dim=4, hidden_dim=6, init_seed=8)
    model = nnlm.NnlmModel(config=cfg_r, params=nnlm.init_params(cfg_r))
    shared = tp.Samples(rng.integers(0, 11, size=(64, 2)), rng.integers(0, 11, size=64))
    ce = nnlm.forward(model.params, shared).loss
    pp = ev.perplexity_from_samples(model, shared).perplexity
    assert abs(pp - math.exp(ce)) < 1e-9
    report(
        "criterion 2 (identities)",
        f"loss=ln V to 1e-12, uniform PP-100={pp_uniform - 100.0:.1e}, PP=exp(CE) to 1e-9",
    )


# -----------------------------------------------------------------------
# 3. Kneser-Ney oracle


def test_c3_kn_oracle():
    """Float recursion matches the exact-rational reference to 1e-10 on the
    4-token bigram corpus and two small trigram corpora; distributions over
    the vocabulary sum to 1 within 1e-8 for 100 random contexts each."""
    corpora = [
        ([["a", "b", "a", "b"]], 2),
        (
            [
                ["the", "cat", "sat", "on", "the", "mat"],
                ["the", "dog", "sat", "on", "the", "log"],
                ["a", "cat", "and", "a", "dog"],
            ],
            3,
        ),
        (
            [
                ["to", "be", "or", "not", "to", "be"],
                ["to", "see", "or", "not", "to", "see"],
                ["be", "not"],
                ["see", "not", "to", "be"],
            ],
            3,
        ),
    ]
    rng = np.random.default_rng(9)
    worst_p, worst_norm = 0.0, 0.0
    for token_sentences, order in corpora:
        vocab = tp.build_vocabulary(token_sentences)
        pc = tp.encode(token_sentences, vocab, order=order)
        model = kn.train_model(pc.sentences, order, vocab.size)
        ref = ReferenceKn(pc.sentences, order, vocab.size)
        contexts = {s[i : i + order - 1] for s in pc.sentences for i in range(len(s) - order + 1)}
        contexts |= {
            tuple(rng.integers(0, vocab.size, size=order - 1)) for _ in range(20)
        }
        for ctx in sorted(contexts):
            for w in range(vocab.size):
                got = math.exp(model.log_prob(ctx, w))
                want = float(ref.prob(ctx, w))
                worst_p = max(worst_p, abs(got - want))
                assert abs(got - want) < 1e-10, (ctx, w)
        for _ in range(100):
            ctx = tuple(rng.integers(0, vocab.size, size=order - 1))
            total = math.fsum(math.exp(model.log_prob(ctx, w)) for w in range(vocab.size))
            worst_norm = max(worst_norm, abs(total - 1.0))
            assert abs(total - 1.0) < 1e-8

    # the frozen hand value on the 4-token corpus
    vocab = tp.build_vocabulary([["a", "b", "a", "b"]])
    pc = tp.encode([["a", "b", "a", "b"]], vocab, order=2)
    model = kn.train_model(pc.sentences, 2, vocab.size)
    p = math.exp(model.log_prob([vocab.index_of("a")], vocab.index_of("b")))
    assert p == pytest.approx(0.76, abs=1e-12)
    report(
        "criterion 3 (KN oracle)",
        f"3 corpora, worst |dp|={worst_p:.1e}, worst |sum-1|={worst_norm:.1e}, P(b|a)=0.76",
    )


# -----------------------------------------------------------------------
# 4. memorization


def test_c4_memorization():
    """A 20-sample deterministic corpus trains below perplexity 1.05 within
    500 epochs at default hyperparameters, in under a minute."""
    contexts = np.array([[i % 6, (i // 2) % 6, (i // 3) % 6] for i in range(20)])
    targets = np.array([(3 * i + 1) % 6 for i in range(20)])
    assert len({tuple(c) for c in contexts}) == 20  # a true function to memorize
    samples = tp.Samples(contexts, targets)
    cfg = nnlm.NnlmConfig(vocab_size=6, order=4, max_epochs=500, patience=500, init_seed=0)
    assert (cfg.embed_dim, cfg.hidden_dim, cfg.batch_size) == (50, 200, 100)
    assert (cfg.learning_rate, cfg.momentum) == (0.1, 0.9)
    t0 = time.perf_counter()
    model, history = nnlm.train(cfg, samples, samples)
    elapsed = time.perf_counter() - t0
    best_pp = math.exp(min(h.validation_loss for h in history))
    assert best_pp < 1.05
    assert elapsed < 60.0
    report("criterion 4 (memorization)", f"PP={best_pp:.4f} after {len(history)} epochs, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 5. synthetic attribution


def test_c5_synthetic_attribution():
    """8 Markov authors on a shared 50-word lexicon, 2000 sentences each,
    trained over 10 split seeds: (a) 5-sentence attribution accuracy >= 0.90
    for both model families, (b) mean neural test perplexity within +5% of
    the n-gram baseline's, (c) accuracy at 20 sentences within 0.02 of the
    1-sentence accuracy from below.  All inside 15 minutes."""
    t_start = time.perf_counter()
    base = 7
    lexicon = synthetic.default_lexicon(50)
    specs = [
        synthetic.random_markov_author(
            f"author{i:02d}", lexicon, seed=derive_seed(base, i, 1), concentration=0.1
        )
        for i in range(8)
    ]
    corpora = synthetic.generate_synthetic_corpus(specs, base, 2000)

    prepped = {}
    for corpus in corpora:
        tokens = tp.preprocess_sentences(corpus.sentences, stemming=True)
        vocab = tp.build_vocabulary(tokens, 1e-5)
        pc = tp.encode(tokens, vocab, order=4, stemming=True, prune_threshold=1e-5)
        prepped[corpus.author_id] = (tokens, vocab, pc)

    seeds = list(range(10))
    nnlm_pp, kn_pp = [], []
    seed0_models = {}
    for ai, corpus in enumerate(corpora):
        tokens, vocab, pc = prepped[corpus.author_id]
        for seed in seeds:
            assignment = tp.split(len(pc), seed, (0.8, 0.1, 0.1))
            train_samples = tp.extract_samples(pc, assignment.train)
            val_samples = tp.extract_samples(pc, assignment.validation)
            test_sents = [pc.sentences[i] for i in assignment.test]
            cfg = nnlm.NnlmConfig(
                vocab_size=vocab.size, order=4, embed_dim=16, hidden_dim=48,
                batch_size=100, learning_rate=0.3, momentum=0.9,
                max_epochs=16, patience=4, init_seed=derive_seed(seed, ai, 1),
            )
            neural, _ = nnlm.train(cfg, train_samples, val_samples)
            ngram = kn.train_model(
                [pc.sentences[i] for i in assignment.train], 4, vocab.size
            )
            nnlm_pp.append(ev.perplexity(neural, test_sents).perplexity)
            kn_pp.append(ev.perplexity(ngram, test_sents).perplexity)
            if seed == 0:
                seed0_models[corpus.author_id] = {"nnlm": neural, "kn": ngram}

    mean_nnlm, mean_kn = float(np.mean(nnlm_pp)), float(np.mean(kn_pp))
    assert mean_nnlm <= mean_kn * 1.05, (mean_nnlm, mean_kn)

    pools = {}
    for corpus in corpora:
        tokens, vocab, pc = prepped[corpus.author_id]
        assignment = tp.split(len(pc), 0, (0.8, 0.1, 0.1))
        pools[corpus.author_id] = [tokens[i] for i in assignment.test]
    accs = {}
    for method in ("nnlm", "kn"):
        candidates = [
            ev.AuthorModel(c.author_id, seed0_models[c.author_id][method], prepped[c.author_id][1])
            for c in corpora
        ]
        sweep = ev.accuracy_sweep(candidates, pools, [1, 5, 20], trials=100, seed=0)
        accs[method] = sweep.accuracy_by_count()
        assert accs[method][5] >= 0.90, (method, accs[method])
        assert accs[method][20] >= accs[method][1] - 0.02, (method, accs[method])

    elapsed = time.perf_counter() - t_start
    assert elapsed < 15 * 60.0, f"took {elapsed:.0f}s"
    report(
        "criterion 5 (synthetic attribution)",
        f"acc@5 nnlm={accs['nnlm'][5]:.3f} kn={accs['kn'][5]:.3f}; "
        f"mean PP nnlm={mean_nnlm:.2f} kn={mean_kn:.2f} "
        f"({(mean_nnlm / mean_kn - 1) * 100:+.1f}%); {elapsed:.0f}s",
    )


# -----------------------------------------------------------------------
# 6. end-to-end determinism


def _run_pipeline(workdir: Path, config: Path, output_dir: str) -> dict:
    for command in ("synth", "preprocess", "train-nnlm", "train-ngram", "eval", "experiment", "report"):
        code = cli.main([command, "--config", str(config), "--output-dir", output_dir])
        assert code == cli.EXIT_OK, command
    outputs = {}
    for path in sorted((workdir / output_dir).rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(workdir / output_dir))] = path.read_bytes()
    return outputs


def _strip_timestamps(payload: bytes) -> bytes:
    return b"\n".join(
        line for line in payload.splitlines() if not line.startswith(b"# generated")
    )


def test_c6_pipeline_determinism(tmp_path, monkeypatch):
    """Two full pipeline runs with one config produce byte-identical files
    (timestamp comment lines aside)."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "corpus_dir": "corpus",
        "synth": {"authors": 3, "lexicon_size": 15, "sentences": 150, "seed": 5,
                   "length_range": [3, 8], "concentration": 0.1},
        "split": {"ratios": [0.8, 0.1, 0.1], "seeds": [0, 1]},
        "nnlm": {"embed_dim": 8, "hidden_dim": 12, "batch_size": 64,
                  "learning_rate": 0.3, "momentum": 0.9, "max_epochs": 3,
                  "patience": 3, "init_scale": 0.1},
        "experiment": {"sentence_counts": [1, 3], "trials": 8, "excluded_authors": []},
    }))
    first = _run_pipeline(tmp_path, config, "out_a")
    second = _run_pipeline(tmp_path, config, "out_b")
    assert set(first) == set(second)
    compared = 0
    for rel in first:
        a, b = first[rel], second[rel]
        if rel.endswith(".csv"):
            a, b = _strip_timestamps(a), _strip_timestamps(b)
        assert a == b, f"{rel} differs between runs"
        compared += 1
    report("criterion 6 (determinism)", f"{compared} files byte-identical across runs")


# -----------------------------------------------------------------------
# 7. stemmer reference vectors


def test_c7_porter_reference_vectors():
    """Zero mismatches against the full frozen reference list."""
    vectors = Path(__file__).parent / "data" / "porter_reference.tsv"
    pairs = [line.split("\t") for line in vectors.read_text().splitlines()]
    assert len(pairs) > 20000
    mismatches = sum(1 for word, want in pairs if stem(word) != want)
    assert mismatches == 0
    report("criterion 7 (stemmer vectors)", f"{len(pairs)} words, 0 mismatches")


# -----------------------------------------------------------------------
# 8. model serialization


def test_c8_serialization_roundtrip(tmp_path):
    """Both model families round-trip with bit-identical results on 1000
    random (context, target) probes."""
    rng = np.random.default_rng(77)
    sentences = [
        [f"w{i}" for i in rng.integers(0, 14, size=rng.integers(1, 9))]
        for _ in range(60)
    ]
    vocab = tp.build_vocabulary(sentences)
    pc = tp.encode(sentences, vocab, order=3)
    samples = tp.extract_samples(pc)

    cfg = nnlm.NnlmConfig(
        vocab_size=vocab.size, order=3, embed_dim=6, hidden_dim=10,
        batch_size=32, max_epochs=3, patience=3, init_seed=1,
    )
    neural, _ = nnlm.train(cfg, samples, samples)
    nnlm.save_model(neural, tmp_path / "m.nnlm")
    neural_back = nnlm.load_model(tmp_path / "m.nnlm")

    ngram = kn.train_model(pc.sentences, 3, vocab.size)
    kn.save_model(ngram, tmp_path / "m.arpa")
    ngram_back = kn.load_model(tmp_path / "m.arpa")

    for _ in range(1000):
        ctx = tuple(int(x) for x in rng.integers(0, vocab.size, size=2))
        target = int(rng.integers(0, vocab.size))
        assert neural.log_prob(ctx, target) == neural_back.log_prob(ctx, target)
        assert ngram.log_prob(ctx, target) == ngram_back.log_prob(ctx, target)
    report("criterion 8 (serialization)", "1000 probes bit-identical for both model files")
