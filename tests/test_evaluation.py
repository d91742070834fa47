"""Perplexity, classification, sweeps, aggregation, and report files."""

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from kn_reference import ReferenceKn
from textproc_reference import encode_sentence

from authorlm import cli, files
from authorlm import evaluation as ev
from authorlm import kn, nnlm, synthetic
from authorlm import textproc as tp
from authorlm.prng import stream


@dataclass(frozen=True)
class StubModel:
    """Fixed-distribution model: per-(context, target) log probs with a
    uniform default."""

    order: int
    vocab_size: int
    table: dict | None = None

    def log_prob(self, context, target):
        if self.table is not None:
            key = (tuple(int(c) for c in context), int(target))
            if key in self.table:
                return self.table[key]
        return math.log(1.0 / self.vocab_size)

    def log_probs(self, contexts, targets):
        return np.array([self.log_prob(c, t) for c, t in zip(contexts, targets)])


def encode_corpus(token_sentences, order=2):
    vocab = tp.build_vocabulary(token_sentences)
    return vocab, tp.encode(token_sentences, vocab, order=order)


class TestPerplexity:
    def test_uniform_model_is_vocab_size(self):
        vocab, pc = encode_corpus([["a", "b"], ["b", "a", "a"]])
        model = StubModel(order=2, vocab_size=100)
        report = ev.perplexity(model, pc.sentences)
        assert report.token_count == 7  # 5 words + 2 sentence ends
        assert report.perplexity == pytest.approx(100.0, abs=1e-9)

    def test_memorized_corpus_approaches_one(self):
        vocab, pc = encode_corpus([["a", "b"]])
        table = {}
        sent = pc.sentences[0]
        for pos in range(1, len(sent)):
            table[(tuple(sent[pos - 1 : pos]), sent[pos])] = 0.0  # log 1
        model = StubModel(order=2, vocab_size=vocab.size, table=table)
        assert ev.perplexity(model, pc.sentences).perplexity == pytest.approx(1.0)

    def test_matches_hand_product_for_kn(self):
        # product form evaluated with exact rationals, then the -1/n power
        vocab, pc = encode_corpus([["a", "b", "a", "b"]])
        model = kn.train_model(pc.sentences, 2, vocab.size)
        ref = ReferenceKn(pc.sentences, 2, vocab.size)
        product = Fraction(1)
        n = 0
        for sent in pc.sentences:
            for pos in range(1, len(sent)):
                product *= ref.prob(sent[pos - 1 : pos], sent[pos])
                n += 1
        expected = float(product) ** (-1.0 / n)
        got = ev.perplexity(model, pc.sentences).perplexity
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_tokens_is_error(self):
        model = StubModel(order=2, vocab_size=10)
        with pytest.raises(ValueError, match="no predictable"):
            ev.perplexity(model, [])

    def test_equals_exp_mean_cross_entropy(self):
        cfg = nnlm.NnlmConfig(vocab_size=9, order=3, embed_dim=4, hidden_dim=5, init_seed=2)
        model = nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg))
        rng = np.random.default_rng(3)
        batch = tp.Samples(
            rng.integers(0, 9, size=(40, 2)), rng.integers(0, 9, size=40)
        )
        loss = nnlm.forward(model.params, batch).loss
        report = ev.perplexity_from_samples(model, batch)
        assert report.perplexity == pytest.approx(math.exp(loss), rel=1e-9)


def disjoint_authors():
    """Two authors over disjoint lexicons, with real trained models."""
    lex_a = tuple(f"apple{i}" for i in range(6))
    lex_b = tuple(f"berry{i}" for i in range(6))
    authors = []
    corpora = []
    for name, lex in (("alice", lex_a), ("bob", lex_b)):
        author = synthetic.random_markov_author(name, lex, seed=hash(name) % 1000)
        [corpus] = synthetic.generate_synthetic_corpus([author], seed=13, sentence_count=60)
        tokens = tp.preprocess_sentences(corpus.sentences, stemming=False)
        vocab = tp.build_vocabulary(tokens)
        pc = tp.encode(tokens, vocab, order=2)
        model = kn.train_model(pc.sentences, 2, vocab.size)
        authors.append(ev.AuthorModel(name, model, vocab))
        corpora.append(tokens)
    return authors, corpora


def confusable_corpora():
    """Three authors over one lexicon; the first two are near twins."""
    lex = synthetic.default_lexicon(12)
    base = synthetic.random_markov_author("c0", lex, seed=41, concentration=0.4)
    mixed = 0.9 * base.transitions + 0.1 / len(lex)
    twin = synthetic.MarkovAuthor(
        "c1", lex, initial=base.initial, transitions=mixed / mixed.sum(axis=1, keepdims=True)
    )
    other = synthetic.random_markov_author("c2", lex, seed=99, concentration=0.4)
    corpora = synthetic.generate_synthetic_corpus([base, twin, other], seed=8, sentence_count=80)
    out = []
    for corpus in corpora:
        tokens = tp.preprocess_sentences(corpus.sentences, stemming=False)
        # the last ten sentences stay out of the vocabulary, so pools hold unknowns
        vocab = tp.build_vocabulary(tokens[:70])
        out.append((corpus.author_id, vocab, tp.encode(tokens[:60], vocab, order=3), tokens[60:]))
    return out


def kn_candidates():
    return [
        ev.AuthorModel(name, kn.train_model(pc.sentences, 3, vocab.size), vocab)
        for name, vocab, pc, _ in confusable_corpora()
    ]


def nnlm_candidates(embed_dim=4, hidden_dim=5):
    authors = []
    for i, (name, vocab, _, _) in enumerate(confusable_corpora()):
        cfg = nnlm.NnlmConfig(
            vocab_size=vocab.size, order=3, embed_dim=embed_dim, hidden_dim=hidden_dim,
            init_seed=i, init_scale=0.8,
        )
        authors.append(ev.AuthorModel(name, nnlm.NnlmModel(cfg, nnlm.init_params(cfg)), vocab))
    return authors


def confusable_pools():
    return {name: pool for name, _, _, pool in confusable_corpora()}


def reference_sweep(authors, pools, sentence_counts, trials, seed):
    """Per-trial path: draw, encode under each candidate, score, argmin."""
    records = []
    for i, author in enumerate(authors):
        pool = pools[author.author_id]
        for s in sentence_counts:
            for t in range(trials):
                chosen = stream(seed, i, s, t).choice(len(pool), size=s, replace=False)
                sentences = [pool[int(j)] for j in chosen]
                perps = []
                for candidate in authors:
                    order = candidate.model.order
                    encoded = [
                        encode_sentence(x, candidate.vocabulary, order) for x in sentences
                    ]
                    perps.append(ev.perplexity(candidate.model, encoded).perplexity)
                best = 0
                for k, value in enumerate(perps):
                    if value < perps[best]:
                        best = k
                records.append(ev.TrialRecord(author.author_id, s, t, authors[best].author_id))
    return tuple(records)


@dataclass(eq=False)
class CountingModel:
    """Uniform model that records every (context, target) it scores."""

    order: int
    vocab_size: int
    scored: Counter = field(default_factory=Counter)
    calls: int = 0
    queries: list = field(default_factory=list)  # (contexts, targets) of each call

    def log_prob(self, context, target):
        return math.log(1.0 / self.vocab_size)

    def log_probs(self, contexts, targets):
        self.calls += 1
        self.queries.append((contexts, targets))
        self.scored.update((tuple(int(c) for c in ctx), int(t)) for ctx, t in zip(contexts, targets))
        return np.full(len(targets), math.log(1.0 / self.vocab_size))


class TestClassify:
    def test_disjoint_vocabularies_separable(self):
        authors, corpora = disjoint_authors()
        for i, name in enumerate(["alice", "bob"]):
            result = ev.classify(authors, corpora[i][:5], true_author=name)
            assert result.predicted_author == name
            assert result.correct

    def test_tie_breaks_to_lowest_index(self):
        vocab, pc = encode_corpus([["x", "y"], ["y", "x"]])
        model = StubModel(order=2, vocab_size=vocab.size)
        authors = [
            ev.AuthorModel("second", model, vocab),
            ev.AuthorModel("first", model, vocab),
        ]
        result = ev.classify(authors, [["x", "y"]])
        assert result.predicted_author == "second"
        assert result.perplexities["second"] == result.perplexities["first"]

    def test_equals_max_total_log_prob_with_shared_vocab(self):
        # same vocabulary => same token count => argmin perplexity must
        # match argmax of total log probability
        tokens = [["u", "v", "w", "u"], ["w", "w", "v"], ["u", "w"]]
        vocab = tp.build_vocabulary(tokens)
        pc = tp.encode(tokens, vocab, order=2)
        rng = np.random.default_rng(7)
        models = []
        for seed in range(4):
            cfg = nnlm.NnlmConfig(
                vocab_size=vocab.size, order=2, embed_dim=3, hidden_dim=4,
                init_seed=seed, init_scale=0.8,
            )
            models.append(nnlm.NnlmModel(config=cfg, params=nnlm.init_params(cfg)))
        authors = [ev.AuthorModel(f"m{i}", m, vocab) for i, m in enumerate(models)]
        for _ in range(10):
            pick = rng.choice(len(tokens), size=2, replace=False)
            sentences = [tokens[int(i)] for i in pick]
            result = ev.classify(authors, sentences)
            samples = tp.samples_from_sentences(
                [encode_sentence(s, vocab, 2) for s in sentences], 2
            )
            totals = [float(m.log_probs(samples.contexts, samples.targets).sum()) for m in models]
            assert result.predicted_author == f"m{int(np.argmax(totals))}"

    def test_empty_inputs_rejected(self):
        authors, corpora = disjoint_authors()
        with pytest.raises(ValueError):
            ev.classify(authors, [])
        with pytest.raises(ValueError):
            ev.classify([], corpora[0][:2])

    def test_scale_invariance_of_argmin(self):
        # shifting every author's log probabilities by one shared constant
        # (equal token counts) cannot move the argmin
        @dataclass(frozen=True)
        class Shifted:
            inner: object
            shift: float

            @property
            def order(self):
                return self.inner.order

            @property
            def vocab_size(self):
                return self.inner.vocab_size

            def log_prob(self, context, target):
                return self.inner.log_prob(context, target) + self.shift

            def log_probs(self, contexts, targets):
                return self.inner.log_probs(contexts, targets) + self.shift

        authors, corpora = disjoint_authors()
        sentences = corpora[0][:4]
        baseline = ev.classify(authors, sentences)
        for shift in (-3.0, 2.5):
            shifted = [
                ev.AuthorModel(a.author_id, Shifted(a.model, shift), a.vocabulary)
                for a in authors
            ]
            assert ev.classify(shifted, sentences).predicted_author == baseline.predicted_author


class TestSweep:
    def make_setup(self):
        authors, corpora = disjoint_authors()
        pools = {"alice": corpora[0][:30], "bob": corpora[1][:30]}
        return authors, pools

    def test_deterministic(self):
        authors, pools = self.make_setup()
        r1 = ev.accuracy_sweep([authors], pools, [1, 3], trials=5, seed=11)
        r2 = ev.accuracy_sweep([authors], pools, [1, 3], trials=5, seed=11)
        assert r1 == r2

    def test_matches_per_trial_reference(self):
        pools = confusable_pools()
        counts = [1, 2, 5, 10]
        # D=6/H=10 runs OpenBLAS edge kernels on row counts that are not
        # a multiple of its micro-tile
        for authors in (kn_candidates(), nnlm_candidates(), nnlm_candidates(6, 10)):
            [report] = ev.accuracy_sweep([authors], pools, counts, trials=8, seed=4)
            assert report.records == reference_sweep(authors, pools, counts, 8, seed=4)
            predicted = {r.predicted_author for r in report.records}
            assert len(predicted) == 3  # every candidate wins some trials
        # an exact tie: a copy of c0 under another name never wins
        authors = kn_candidates()
        authors.insert(1, ev.AuthorModel("copy", authors[0].model, authors[0].vocabulary))
        pools["copy"] = pools["c0"]
        [report] = ev.accuracy_sweep([authors], pools, counts, trials=8, seed=4)
        assert report.records == reference_sweep(authors, pools, counts, 8, seed=4)
        assert "copy" not in {r.predicted_author for r in report.records}
        assert any(r.predicted_author == "c0" for r in report.records)

    def method_lists(self):
        """KN, NNLM and uniform-stub candidates of the same authors, each
        list with an exact tie (a copy of c0 under another name); one
        vocabulary object per author is shared by its three models."""
        corpora = confusable_corpora()
        lists = []
        for method in ("kn", "nnlm", "stub"):
            authors = []
            for i, (name, vocab, pc, _) in enumerate(corpora):
                if method == "kn":
                    model = kn.train_model(pc.sentences, 3, vocab.size)
                elif method == "nnlm":
                    cfg = nnlm.NnlmConfig(
                        vocab_size=vocab.size, order=3, embed_dim=4, hidden_dim=5,
                        init_seed=i, init_scale=0.8,
                    )
                    model = nnlm.NnlmModel(cfg, nnlm.init_params(cfg))
                else:
                    model = StubModel(order=2, vocab_size=vocab.size)
                authors.append(ev.AuthorModel(name, model, vocab))
            authors.insert(1, ev.AuthorModel("copy", authors[0].model, authors[0].vocabulary))
            lists.append(authors)
        pools = {name: pool for name, _, _, pool in corpora}
        pools["copy"] = pools["c0"]
        return lists, pools

    def test_one_pass_equals_one_sweep_per_list(self, monkeypatch):
        lists, pools = self.method_lists()
        counts, excluded = [1, 2, 5], ["c2"]
        lookups = []
        ids = tp.Vocabulary.ids
        def counting(self, words):
            lookups.append(id(self))
            return ids(self, words)
        monkeypatch.setattr(tp.Vocabulary, "ids", counting)
        together = ev.accuracy_sweep(lists, pools, counts, trials=6, seed=3, excluded_authors=excluded)
        # one lookup per (order, vocabulary): KN and NNLM share order 3
        assert sorted(lookups) == sorted(2 * [id(a.vocabulary) for a in lists[0] if a.author_id != "copy"])
        assert len(together) == len(lists)
        for authors, report in zip(lists, together):
            [alone] = ev.accuracy_sweep([authors], pools, counts, trials=6, seed=3, excluded_authors=excluded)
            assert report == alone
            assert report.records == reference_sweep(authors, pools, counts, 6, seed=3)
            assert report.excluded_authors == ("c2",)
            assert "copy" not in {r.predicted_author for r in report.records}
        # the uniform stubs tie whenever vocabulary sizes do
        assert {r.predicted_author for r in together[0].records} >= {"c0", "c1", "c2"}
        assert together[0].accuracy_by_count() != together[2].accuracy_by_count()

    @pytest.mark.parametrize("budget", [1, 200, 400])  # tokens per group; the pools hold about 180 each
    def test_bounded_table_gives_the_same_records(self, monkeypatch, budget):
        lists, pools = self.method_lists()
        counts = [1, 3]
        unbounded = ev.accuracy_sweep(lists, pools, counts, trials=5, seed=8)
        rows = sum(len(authors) for authors in lists)
        tables = []
        score_pool = ev._score_pool
        def recording(authors, sentences):
            table = score_pool(authors, sentences)
            tables.append((table.log_probs.size, len(sentences)))
            return table
        monkeypatch.setattr(ev, "_score_pool", recording)
        monkeypatch.setattr(ev, "_TABLE_VALUES", budget * rows)
        assert ev.accuracy_sweep(lists, pools, counts, trials=5, seed=8) == unbounded
        pool_sizes = [len(pools[a.author_id]) for a in lists[0]]
        assert 1 < len(tables) <= len(pool_sizes)
        assert sum(n for _, n in tables) == sum(pool_sizes)
        for size, n in tables:
            assert size <= budget * rows or n in pool_sizes  # one pool above the budget stands alone

    def test_lists_must_name_the_same_authors(self):
        lists, pools = self.method_lists()
        with pytest.raises(ValueError, match="same authors in the same order"):
            ev.accuracy_sweep([lists[0], lists[1][::-1]], pools, [1], trials=1, seed=0)
        with pytest.raises(ValueError, match="same authors in the same order"):
            ev.accuracy_sweep([lists[0], lists[1][:2]], pools, [1], trials=1, seed=0)
        assert ev.accuracy_sweep([], pools, [1], trials=1, seed=0) == []

    def test_scores_each_pool_sentence_once(self):
        corpora = confusable_corpora()
        pools = confusable_pools()
        authors = [
            ev.AuthorModel(name, CountingModel(order=3, vocab_size=vocab.size), vocab)
            for name, vocab, _, _ in corpora
        ]
        ev.accuracy_sweep([authors], pools, [1, 3, 10], trials=5, seed=1)
        for author in authors:
            expected = Counter()
            for pool in pools.values():
                encoded = [encode_sentence(x, author.vocabulary, 3) for x in pool]
                samples = tp.samples_from_sentences(encoded, 3)
                expected.update(
                    (tuple(int(c) for c in ctx), int(t))
                    for ctx, t in zip(samples.contexts, samples.targets)
                )
            assert author.model.scored == expected
            assert author.model.calls == 1  # one query per candidate per sweep

    def test_one_query_scores_like_one_query_per_pool(self):
        # a sweep's table, bit for bit the per-pool queries side by side
        pools = list(confusable_pools().values())
        for authors in (kn_candidates(), nnlm_candidates(), nnlm_candidates(6, 10)):
            table = ev._score_pool(authors, [sent for pool in pools for sent in pool])
            per_pool = [ev._score_pool(authors, pool).log_probs for pool in pools]
            assert table.log_probs.tobytes() == np.concatenate(per_pool, axis=1).tobytes()

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_pool_encoding_matches_encode_sentence(self, order):
        # preprocess's encode and the sweep's windows, from the one encoder,
        # equal the per-sentence reference: empty sentences, words outside
        # the vocabulary and the reserved token strings included
        vocab = tp.build_vocabulary([["a", "b", "c"], ["b", "c"]])
        pools = [
            [["a", "b"], ["zz", "a", "zz"], [], ["c", "c", "c", "b", "a"]],
            [[], []],
            [["q"], ["<unk>", "<s>", "b"], ["r", "q", "</s>", "a"]],
        ]
        for pool in pools:
            want = [encode_sentence(s, vocab, order) for s in pool]
            assert tp.encode(pool, vocab, order).sentences == tuple(want)
            model = CountingModel(order=order, vocab_size=vocab.size)
            ev._score_pool([ev.AuthorModel("a", model, vocab)], pool)
            [got] = model.queries
            for g, w in zip(got, tp.samples_from_sentences(want, order)):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)

    def test_pool_encoding_refuses_order_below_two(self):
        vocab = tp.build_vocabulary([["a"]])
        with pytest.raises(ValueError) as refused:
            encode_sentence(["a"], vocab, 1)
        message = re.escape(str(refused.value))
        with pytest.raises(ValueError, match=message):
            tp.encode([["a"]], vocab, 1)
        with pytest.raises(ValueError, match=message):
            ev._score_pool([ev.AuthorModel("a", StubModel(order=1, vocab_size=vocab.size), vocab)], [["a"]])

    def test_decide_sums_each_stream_as_report_does(self):
        # row sums of the gathered streams equal _report's, past _CHUNK too
        rng = np.random.default_rng(5)
        lengths = rng.integers(0, 40, size=400)
        lengths[7] = ev._CHUNK + 3
        ends = np.cumsum(lengths + 1)
        table = ev._PoolTable(
            log_probs=np.log(rng.random((4, int(ends[-1])))), starts=ends - lengths - 1, tokens=lengths + 1
        )
        for chosen in ([0], [3, 1, 2], rng.choice(400, size=20, replace=False), [7, 0], range(400)):
            stream_positions = np.concatenate([np.arange(ends[k] - lengths[k] - 1, ends[k]) for k in chosen])
            assert np.array_equal(tp.runs(table.starts[chosen], table.tokens[chosen]), stream_positions)
            want = [ev._report(row[stream_positions]).perplexity for row in table.log_probs]
            [best], perps = ev._decide(table, chosen)
            assert perps == want
            assert best == want.index(min(want))

    def test_insufficient_pool_names_author(self):
        authors, pools = self.make_setup()
        pools["bob"] = pools["bob"][:3]
        with pytest.raises(ValueError, match="bob"):
            ev.accuracy_sweep([authors], pools, [5], trials=2, seed=0)

    def test_zero_trials_empty_report(self):
        authors, pools = self.make_setup()
        [report] = ev.accuracy_sweep([authors], pools, [1, 2], trials=0, seed=0)
        assert report.records == ()

    def test_excluded_authors_left_out_of_average(self):
        authors, pools = self.make_setup()
        [report] = ev.accuracy_sweep(
            [authors], pools, [2], trials=4, seed=3, excluded_authors=["bob"]
        )
        acc = report.accuracy_by_count()
        only_alice = [r.correct for r in report.records if r.author_id == "alice"]
        assert acc[2] == pytest.approx(sum(only_alice) / len(only_alice))
        # excluded author still appears in the confusion matrix
        assert report.confusion().sum() == len(report.records)


@dataclass(frozen=True)
class ConstantModel:
    """Gives every token the same log probability."""

    order: int
    vocab_size: int
    value: float

    def log_prob(self, context, target):
        return self.value

    def log_probs(self, contexts, targets):
        return np.full(len(targets), self.value)


class TestNonFiniteScores:
    """A score that is not a finite number is an error, never a result."""

    SENTENCES = [[3, 4, 1], [4, 1]]

    @pytest.mark.parametrize(
        "value, what",
        [(-math.inf, "log probability"), (math.nan, "log probability"),
         (-1e300, "perplexity")],
        ids=["minus-inf", "nan", "overflowing"],
    )
    def test_perplexity(self, value, what):
        model = ConstantModel(order=2, vocab_size=5, value=value)
        with pytest.raises(ValueError, match=f"model gives a non-finite {what}"):
            ev.perplexity(model, [(0, *s) for s in self.SENTENCES]).perplexity

    @pytest.mark.parametrize(
        "value, what",
        [(-math.inf, "log probability"), (-1e300, "perplexity")],
        ids=["minus-inf", "overflowing"],
    )
    def test_classify_names_the_candidate(self, value, what):
        vocab, _ = encode_corpus([["x", "y"]])
        authors = [
            ev.AuthorModel(name, ConstantModel(order=2, vocab_size=vocab.size, value=v), vocab)
            for name, v in (("fine", -1.0), ("broken", value))
        ]
        with pytest.raises(ev.NonFiniteScore, match=f"^model gives a non-finite {what}$") as err:
            ev.classify(authors, [["x", "y"], ["y"]])
        assert err.value.candidate == 1

    @pytest.mark.parametrize(
        "value, what",
        [(-math.inf, "log probability"), (-1e300, "perplexity")],
        ids=["minus-inf", "overflowing"],
    )
    def test_sweep_names_the_row(self, value, what):
        # rows are the lists' candidates in turn: list 1, candidate 1 is row 3 + 1
        vocab, _ = encode_corpus([["x", "y"]])
        lists = [
            [ev.AuthorModel(name, ConstantModel(order=2, vocab_size=vocab.size, value=v), vocab)
             for name, v in zip(("a", "b", "c"), values)]
            for values in ((-1.0, -1.0, -1.0), (-1.0, value, -1.0))
        ]
        pools = dict.fromkeys(("a", "b", "c"), [["x", "y"], ["y"]])
        with pytest.raises(ev.NonFiniteScore, match=f"^model gives a non-finite {what}$") as err:
            ev.accuracy_sweep(lists, pools, [1], trials=1, seed=0)
        assert err.value.candidate == 4

    def test_finite_perplexities_near_the_float_limit_are_kept(self):
        vocab, _ = encode_corpus([["x", "y"]])
        authors = [
            ev.AuthorModel(name, ConstantModel(order=2, vocab_size=vocab.size, value=v), vocab)
            for name, v in (("a", -709.0), ("b", -709.5), ("c", -708.0))
        ]
        result = ev.classify(authors, [["x", "y"]])
        assert result.predicted_author == "c"
        assert math.isinf(sum(result.perplexities.values()))

    def test_one_query_past_the_summation_chunk(self):
        model = CountingModel(order=2, vocab_size=5)
        sentences = [(0, 3, 1)] * (ev._CHUNK + 10)
        report = ev.perplexity(model, sentences)
        assert model.calls == 1 and report.token_count == 2 * len(sentences)


class TestConfusion:
    def test_perfect_classifier_diagonal(self):
        authors, pools = TestSweep().make_setup()
        [report] = ev.accuracy_sweep([authors], pools, [4], trials=6, seed=5)
        matrix = report.confusion()
        assert matrix.sum() == 2 * 6
        assert np.array_equal(matrix, np.diag(np.diag(matrix)))

    def test_rows_sum_to_trial_counts(self):
        authors, pools = TestSweep().make_setup()
        counts = [1, 2, 3]
        [report] = ev.accuracy_sweep([authors], pools, counts, trials=4, seed=6)
        matrix = report.confusion()
        assert matrix.sum(axis=1).tolist() == [len(counts) * 4] * 2

    def test_identical_models_confuse_by_tie_rule(self):
        vocab, pc = encode_corpus([["x", "y"], ["y", "x"], ["x", "x"], ["y", "y"]])
        model = StubModel(order=2, vocab_size=vocab.size)
        authors = [
            ev.AuthorModel("a0", model, vocab),
            ev.AuthorModel("a1", model, vocab),
        ]
        pools = {
            "a0": [["x", "y"], ["y", "y"], ["x"]],
            "a1": [["y", "x"], ["x", "x"], ["y"]],
        }
        [report] = ev.accuracy_sweep([authors], pools, [2], trials=3, seed=7)
        matrix = report.confusion()
        # ties always resolve to author index 0
        assert matrix[:, 0].sum() == matrix.sum()

    def test_near_identical_pair_concentrates_confusion(self):
        lex = synthetic.default_lexicon(12)
        base = synthetic.random_markov_author("c0", lex, seed=41, concentration=0.4)
        # c1 is a small perturbation of c0; c2 is independent
        mixed = 0.9 * base.transitions + 0.1 / len(lex)
        twin = synthetic.MarkovAuthor(
            "c1", lex, initial=base.initial, transitions=mixed / mixed.sum(axis=1, keepdims=True)
        )
        other = synthetic.random_markov_author("c2", lex, seed=99, concentration=0.4)
        corpora = synthetic.generate_synthetic_corpus([base, twin, other], seed=8, sentence_count=150)
        authors, pools = [], {}
        for chain, corpus in zip((base, twin, other), corpora):
            tokens = tp.preprocess_sentences(corpus.sentences, stemming=False)
            vocab = tp.build_vocabulary(tokens)
            pc = tp.encode(tokens, vocab, order=2)
            model = kn.train_model(pc.sentences[:120], 2, vocab.size)
            authors.append(ev.AuthorModel(chain.author_id, model, vocab))
            pools[chain.author_id] = tokens[120:]
        [report] = ev.accuracy_sweep([authors], pools, [1], trials=60, seed=9)
        matrix = report.confusion()
        off_diagonal = matrix.sum() - np.trace(matrix)
        twin_block = matrix[0, 1] + matrix[1, 0]
        assert off_diagonal > 0
        assert twin_block / off_diagonal >= 0.8


class TestAggregation:
    def test_identical_values_zero_std(self):
        mean, std = ev.mean_std([3.5, 3.5, 3.5])
        assert (mean, std) == (3.5, 0.0)

    def test_two_value_example(self):
        mean, std = ev.mean_std([66.0, 68.0])
        assert mean == pytest.approx(67.0)
        assert std == pytest.approx(math.sqrt(2.0))

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            ev.mean_std([1.0])

    def test_single_value_stands_alone(self):
        assert ev.mean_std_or_single([2.5]) == (2.5, 0.0)
        assert ev.mean_std_or_single([66.0, 68.0]) == ev.mean_std([66.0, 68.0])
        with pytest.raises(ValueError):
            ev.mean_std_or_single([])

    def test_display_format(self):
        assert ev.format_mean_std(67.31, 2.44) == "67.3±2.4"


class TestReportFiles:
    """The trials and confusion layouts, byte for byte, through the one CSV
    writer: a timestamp line ending in LF, then csv.writer rows ending in
    CRLF."""

    STAMP = re.compile(rb"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d+\+00:00")

    def body(self, path):
        stamp, body = path.read_bytes().split(b"\n", 1)
        assert self.STAMP.fullmatch(stamp), stamp
        return body

    def test_trials_csv_layout(self, tmp_path):
        authors, pools = TestSweep().make_setup()
        [report] = ev.accuracy_sweep([authors], pools, [1], trials=2, seed=1)
        path = tmp_path / "trials.csv"
        files.write_csv(
            path,
            ["method", "seed", "author", "sentence_count", "trial", "predicted", "correct"],
            (["kn", 1, r.author_id, r.sentence_count, r.trial, r.predicted_author,
              int(r.correct)] for r in report.records),
        )
        expected = b"method,seed,author,sentence_count,trial,predicted,correct\r\n" + b"".join(
            f"kn,1,{r.author_id},1,{r.trial},{r.predicted_author},{int(r.correct)}\r\n".encode()
            for r in report.records
        )
        assert self.body(path) == expected
        assert len(report.records) == 2 * len(authors)

    def test_confusion_csv_grid(self, tmp_path):
        path = tmp_path / "confusion.csv"
        cli._write_confusion(path, np.array([[3, 1], [0, 4]]), ["a", "b"])
        assert self.body(path) == b"true\\predicted,a,b\r\na,3,1\r\nb,0,4\r\n"
