"""Markov corpus generator: validation, determinism, and distribution fit."""

import numpy as np
import pytest
import synthetic_reference

from authorlm import synthetic as syn
from authorlm.prng import stream


def single_state_author():
    return syn.MarkovAuthor(
        author_id="solo",
        lexicon=("a",),
        initial=np.array([1.0]),
        transitions=np.array([[1.0]]),
        length_range=(3, 6),
    )


class TestValidation:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row"):
            syn.MarkovAuthor(
                author_id="x",
                lexicon=("a", "b"),
                initial=np.array([0.5, 0.5]),
                transitions=np.array([[0.6, 0.6], [0.5, 0.5]]),
            )

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            syn.MarkovAuthor(
                author_id="x",
                lexicon=("a", "b"),
                initial=np.array([1.0, 0.0]),
                transitions=np.array([[1.0, 0.0]]),
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            syn.MarkovAuthor(
                author_id="x",
                lexicon=("a", "b"),
                initial=np.array([1.5, -0.5]),
                transitions=np.eye(2),
            )

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            syn.MarkovAuthor(
                author_id="x",
                lexicon=("a", "b"),
                initial=np.array([0.5, 0.5]),
                transitions=np.array([[np.nan, 1.0], [0.5, 0.5]]),
            )

    def test_tolerates_tiny_row_error(self):
        syn.MarkovAuthor(
            author_id="x",
            lexicon=("a", "b"),
            initial=np.array([0.5, 0.5 + 5e-10]),
            transitions=np.array([[0.3, 0.7], [1.0, 0.0]]),
        )


class TestGeneration:
    def test_degenerate_chain_emits_runs(self):
        [corpus] = syn.generate_synthetic_corpus([single_state_author()], seed=3, sentence_count=20)
        assert len(corpus.sentences) == 20
        for s in corpus.sentences:
            words = s.split()
            assert set(words) == {"a"}
            assert 3 <= len(words) <= 6

    def test_deterministic_given_seed(self):
        authors = [syn.random_markov_author("a0", syn.default_lexicon(12), seed=5)]
        first = syn.generate_synthetic_corpus(authors, seed=11, sentence_count=30)
        second = syn.generate_synthetic_corpus(authors, seed=11, sentence_count=30)
        assert first == second
        third = syn.generate_synthetic_corpus(authors, seed=12, sentence_count=30)
        assert first != third

    def test_author_streams_independent(self):
        lex = syn.default_lexicon(10)
        a0 = syn.random_markov_author("a0", lex, seed=1)
        a1 = syn.random_markov_author("a1", lex, seed=2)
        both = syn.generate_synthetic_corpus([a0, a1], seed=9, sentence_count=15)
        alone = syn.generate_synthetic_corpus([a0], seed=9, sentence_count=15)
        assert both[0] == alone[0]

    def test_bigram_frequencies_match_table(self):
        # empirical next-word frequencies over ~10k sampled tokens should
        # fit the true transition rows; Pearson chi-squared per well-visited
        # row against a generous quantile.
        author = syn.random_markov_author(
            "a0", syn.default_lexicon(8), seed=21, concentration=1.0,
            length_range=(20, 20),
        )
        [corpus] = syn.generate_synthetic_corpus([author], seed=4, sentence_count=500)
        k = len(author.lexicon)
        index = {w: i for i, w in enumerate(author.lexicon)}
        counts = np.zeros((k, k))
        for s in corpus.sentences:
            ids = [index[w] for w in s.split()]
            for a, b in zip(ids, ids[1:]):
                counts[a, b] += 1
        checked = 0
        for row in range(k):
            n = counts[row].sum()
            expected = author.transitions[row] * n
            mask = expected >= 5
            if n < 200 or mask.sum() < 2:
                continue
            chi2 = float(((counts[row][mask] - expected[mask]) ** 2 / expected[mask]).sum())
            dof = int(mask.sum()) - 1
            # crude upper quantile: mean + 5*sqrt(2 dof) sits far beyond the
            # 99.9th percentile of a chi-squared with this few dof
            assert chi2 < dof + 5.0 * np.sqrt(2.0 * dof), f"row {row}: chi2={chi2:.1f}"
            checked += 1
        assert checked >= 4


class TestSamplerReference:
    """``sample_sentences`` draws what the earlier one-``rng.choice``-per-word
    sampler (``synthetic_reference``) draws, and leaves the generator in the
    same state."""

    @pytest.mark.parametrize(
        "lexicon_size, concentration, length_range",
        [
            (50, 0.1, (4, 11)),
            (3, 0.5, (1, 1)),
            (12, 0.02, (1, 6)),
            (30, 1.0, (2, 20)),
            (200, 0.05, (5, 9)),
        ],
    )
    def test_same_sentences_and_state(self, lexicon_size, concentration, length_range):
        lexicon = syn.default_lexicon(lexicon_size)
        for i in range(8):
            author = syn.random_markov_author(
                f"a{i}", lexicon, seed=100 + i, concentration=concentration,
                length_range=length_range,
            )
            new, old = stream(7, i), stream(7, i)
            assert syn.sample_sentences(author, new, 150) == (
                synthetic_reference.sample_sentences(author, old, 150)
            )
            assert new.random() == old.random()

    def test_zero_probability_words_never_drawn(self):
        author = syn.MarkovAuthor(
            author_id="x",
            lexicon=("a", "b", "c"),
            initial=np.array([0.0, 1.0, 0.0]),
            transitions=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
            length_range=(3, 3),
        )
        rng = stream(1)
        assert syn.sample_sentences(author, rng, 5) == ["b c c"] * 5
