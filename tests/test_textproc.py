"""Text pipeline: tokenizing, vocabulary pruning, encoding, splitting."""

from fractions import Fraction

import numpy as np
import pytest
import textproc_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from authorlm import porter
from authorlm import textproc as tp


class TestTokenize:
    def test_sentence(self):
        assert tp.tokenize("The DFT is linear.") == ["the", "dft", "is", "linear"]

    def test_empty_line(self):
        assert tp.tokenize("") == []

    def test_whitespace_trimming(self):
        assert tp.tokenize("  X  ") == ["x"]

    def test_surrounding_punctuation_only(self):
        assert tp.tokenize("'quoted' (parens) !!x!! don't 3.14") == [
            "quoted", "parens", "x", "don't", "3.14"
        ]

    def test_digits_kept(self):
        assert tp.tokenize("in 1980 w007") == ["in", "1980", "w007"]


class TestStemming:
    AUTHORS = (
        ["The ponies were running, the ponies ran.", "Running happily: happy ponies!"],
        ["Ponies running relational w007 don't", "relational RUNNING at 1980 relational"],
    )

    @pytest.fixture
    def algorithm_runs(self, monkeypatch):
        """Count the runs of the Porter algorithm itself (its first step)
        from an empty stem cache; the cache is emptied again afterwards so
        no other test sees results computed here."""
        runs = []
        step1a = porter._step1a

        def counted(word):
            runs.append(word)
            return step1a(word)

        monkeypatch.setattr(porter, "_step1a", counted)
        porter.stem.cache_clear()
        yield runs
        porter.stem.cache_clear()

    def test_each_distinct_word_stemmed_once_per_process(self, algorithm_runs):
        stemmed = [tp.preprocess_sentences(lines) for lines in self.AUTHORS]
        tokens = [tp.preprocess_sentences(lines, stemming=False) for lines in self.AUTHORS]
        words = {t for author in tokens for s in author for t in s}
        stemmable = {w for w in words if len(w) >= 3 and all("a" <= c <= "z" for c in w)}
        assert sorted(algorithm_runs) == sorted(stemmable)
        assert stemmed == [
            [[porter.stem.__wrapped__(t) for t in s] for s in author] for author in tokens
        ]


class TestVocabulary:
    def test_single_surviving_type(self):
        vocab = tp.build_vocabulary([["a"] * 10], prune_threshold=0.5)
        assert vocab.size == 4
        assert vocab.words == (tp.SENTENCE_START, tp.SENTENCE_END, tp.UNKNOWN, "a")

    def test_threshold_zero_keeps_all(self):
        sentences = [["b", "a", "c"], ["a"]]
        vocab = tp.build_vocabulary(sentences, prune_threshold=0.0)
        assert vocab.size == 3 + 3
        # ordering: count desc, then lexicographic
        assert vocab.words[3:] == ("a", "b", "c")

    def test_prunes_hapax_at_realistic_scale(self):
        # 160k tokens with a 1e-5 threshold puts the cutoff at 1.6 counts,
        # so exactly the count-1 words fall out; checked by brute force.
        rng = np.random.default_rng(1)
        tokens = [f"w{i}" for i in rng.integers(0, 2000, size=159_000)]
        tokens += [f"hapax{i}" for i in range(1000)]  # exactly once each
        vocab = tp.build_vocabulary([tokens], prune_threshold=1e-5)
        counts = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        expected = {w for w, c in counts.items() if c / len(tokens) >= 1e-5}
        assert set(vocab.words[3:]) == expected
        assert all(counts[w] >= 2 for w in vocab.words[3:])
        assert not any(w.startswith("hapax") for w in vocab.words[3:])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            tp.build_vocabulary([["a"]], prune_threshold=1.5)
        with pytest.raises(ValueError):
            tp.build_vocabulary([["a"]], prune_threshold=-0.1)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            tp.build_vocabulary([[]], prune_threshold=0.0)

    def test_index_word_bijection(self):
        vocab = tp.build_vocabulary([["x", "y", "x", "z"]])
        for i, w in enumerate(vocab.words):
            assert vocab.index_of(w) == i

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=8),
            min_size=1,
            max_size=20,
        ).filter(lambda s: any(s)),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pruning_monotonic(self, sentences, t1, t2):
        lo, hi = sorted([t1, t2])
        v_lo = tp.build_vocabulary(sentences, lo)
        v_hi = tp.build_vocabulary(sentences, hi)
        assert v_hi.size <= v_lo.size
        assert set(v_hi.words) <= set(v_lo.words)


class TestEncode:
    def test_padding_rule(self):
        vocab = tp.build_vocabulary([["dft"]])
        pc = tp.encode([["dft"]], vocab, order=4)
        dft = vocab.index_of("dft")
        assert pc.sentences[0] == (0, 0, 0, dft, 1)

    def test_oov_becomes_unknown(self):
        vocab = tp.build_vocabulary([["a"]])
        pc = tp.encode([["novel"]], vocab, order=2)
        assert pc.sentences[0] == (tp.START_ID, tp.UNK_ID, tp.END_ID)

    def test_empty_corpus(self):
        vocab = tp.build_vocabulary([["a"]])
        pc = tp.encode([], vocab, order=3)
        assert len(pc) == 0

    @given(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "rare"]), max_size=12),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_unknowns(self, sentence, order):
        vocab = tp.build_vocabulary([["aa", "aa", "bb", "bb", "cc", "dd"]])
        pc = tp.encode([sentence], vocab, order=order)
        decoded = pc.content_tokens(0)
        expected = [w if w in vocab else tp.UNKNOWN for w in sentence]
        assert decoded == expected


class TestSplit:
    def test_exact_division(self):
        a = tp.split(10, seed=0)
        assert (len(a.train), len(a.validation), len(a.test)) == (8, 1, 1)

    def test_remainder_goes_to_train(self):
        a = tp.split(11, seed=0)
        assert (len(a.train), len(a.validation), len(a.test)) == (9, 1, 1)

    def test_same_seed_identical(self):
        assert tp.split(57, seed=9) == tp.split(57, seed=9)

    def test_different_seeds_differ(self):
        assert tp.split(57, seed=1) != tp.split(57, seed=2)

    def test_partition(self):
        a = tp.split(43, seed=3)
        combined = sorted(a.train + a.validation + a.test)
        assert combined == list(range(43))

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            tp.split(20, seed=0, ratios=(0.5, 0.2, 0.2))

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError):
            tp.split(9, seed=0)

    @pytest.mark.parametrize(
        "n, ratios, part",
        [
            (20, (0.9, 0, 0.1), "validation"),
            (20, (0.9, 0.1, 0), "test"),
            (60, (0.98, 0.01, 0.01), "validation"),
            (10, (0, 0.5, 0.5), "train"),
        ],
    )
    def test_empty_part_is_named(self, n, ratios, part):
        with pytest.raises(ValueError, match=f"^{n} sentences leave the {part} part empty"):
            tp.split(n, seed=0, ratios=ratios)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError, match="non-negative"):
            tp.split(20, seed=0, ratios=(1.2, -0.1, -0.1))

    def test_float_ratios_accepted(self):
        a = tp.split(20, seed=0, ratios=(0.8, 0.1, 0.1))
        assert a.ratios == (Fraction(4, 5), Fraction(1, 10), Fraction(1, 10))


class TestSamples:
    def test_window_enumeration(self):
        vocab = tp.build_vocabulary([["w1"]])
        pc = tp.encode([["w1"]], vocab, order=4)
        samples = tp.extract_samples(pc)
        w1 = vocab.index_of("w1")
        assert samples.contexts.tolist() == [[0, 0, 0], [0, 0, w1]]
        assert samples.targets.tolist() == [w1, tp.END_ID]

    def test_sample_count_rule(self):
        words = [f"w{i}" for i in range(20)]
        vocab = tp.build_vocabulary([words])
        pc = tp.encode([words], vocab, order=4)
        assert len(tp.extract_samples(pc)) == 21

    def test_empty_part(self):
        vocab = tp.build_vocabulary([["a"]])
        pc = tp.encode([["a"]], vocab, order=3)
        samples = tp.extract_samples(pc, indices=[])
        assert len(samples) == 0
        assert samples.contexts.shape == (0, 2)

    @given(
        st.lists(
            st.lists(st.sampled_from("abc"), min_size=0, max_size=6),
            min_size=1,
            max_size=10,
        ).filter(lambda s: any(s)),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_count_property(self, sentences, order):
        vocab = tp.build_vocabulary(sentences)
        pc = tp.encode(sentences, vocab, order=order)
        samples = tp.extract_samples(pc)
        assert len(samples) == sum(len(s) + 1 for s in sentences)
        # starts never predicted, ends always predictable
        assert not (samples.targets == tp.START_ID).any()
        assert (samples.targets == tp.END_ID).sum() == len(sentences)

    @given(
        st.lists(st.lists(st.integers(0, 30), max_size=9), max_size=6),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_position_loop(self, sentences, order):
        # sentences shorter than a window, empty ones and no input at all
        # included; a generator argument is read once
        contexts, targets = [], []
        for sent in sentences:
            for pos in range(order - 1, len(sent)):
                contexts.append(sent[pos - order + 1 : pos])
                targets.append(sent[pos])
        samples = tp.samples_from_sentences((tuple(s) for s in sentences), order)
        for got, want in zip(samples, (contexts, targets)):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.tolist() == want
        assert samples.contexts.shape == (len(targets), order - 1)


class TestCoverage:
    def test_full_vocabulary_covers_everything(self):
        sentences = [["a", "b", "c", "a"], ["b", "rare"]]
        vocab = tp.build_vocabulary(sentences)
        pc = tp.encode(sentences, vocab, order=2)
        coverage = tp.top_k_coverage(pc, (1, vocab.size, 500))
        assert coverage[vocab.size] == 1.0
        assert coverage[500] == 1.0  # k beyond V still covers everything
        assert 0.0 < coverage[1] < 1.0

    def test_unknown_competes_like_any_word(self):
        vocab = tp.build_vocabulary([["a", "a", "a"]])
        pc = tp.encode([["a", "x", "y", "z"]], vocab, order=2)
        coverage = tp.top_k_coverage(pc, (1,))
        # three unknowns vs one known: the top-1 entry is the unknown id
        assert coverage[1] == pytest.approx(0.75)


class TestSerialization:
    def test_vocabulary_roundtrip(self, tmp_path):
        vocab = tp.build_vocabulary([["alpha", "beta", "alpha", "x"]], 0.0)
        path = tmp_path / "v.tsv"
        tp.save_vocabulary(vocab, path)
        assert tp.load_vocabulary(path) == vocab

    def test_corpus_roundtrip(self, tmp_path):
        sentences = [["alpha", "beta"], ["beta"], []]
        vocab = tp.build_vocabulary(sentences[:2])
        pc = tp.encode(sentences, vocab, order=3, stemming=False, prune_threshold=1e-5)
        path = tmp_path / "c.txt"
        tp.save_processed(pc, path)
        loaded = tp.load_processed(path, vocab)
        assert loaded == pc
        assert loaded.prune_threshold == 1e-5
        assert loaded.stemming is False

    def test_corpus_missing_header(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 3 1\n")
        vocab = tp.build_vocabulary([["a"]])
        with pytest.raises(ValueError, match="header"):
            tp.load_processed(path, vocab)

    def test_vocab_bad_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("# authorlm-vocab 1\n# size 2\n<s>\t0\t0\nbroken line\n")
        with pytest.raises(ValueError, match="v.tsv:4: expected word<TAB>1<TAB>count"):
            tp.load_vocabulary(path)

    @pytest.mark.parametrize(
        "edit, lineno",
        [
            (lambda t: t.replace("\t3\t", "\t+3\t"), 6),
            (lambda t: t.replace("\t0\t0\n", "\t0\t-7\n"), 3),
            (lambda t: t.replace("\n<unk>", "\n# note\n<unk>"), 5),
            (lambda t: t.replace("\n<unk>", "\n\n<unk>"), 5),
            (lambda t: t.replace("\t2\t0\n", "\t2\t0\r\n"), 5),
            (lambda t: t.replace("\t2\t0\n", "\t2\t٣\n"), 5),
        ],
        ids=["plus-id", "negative-count", "comment-row", "blank-row", "cr-row", "non-ascii-count"],
    )
    def test_vocab_row_outside_layout(self, tmp_path, edit, lineno):
        vocab = tp.build_vocabulary([["alpha", "beta", "alpha", "x"]], 0.0)
        path = tmp_path / "v.tsv"
        tp.save_vocabulary(vocab, path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=rf"v\.tsv:{lineno}: expected word<TAB>\d+<TAB>count"):
            tp.load_vocabulary(path)

    def test_vocab_crlf_refused_on_line_1(self, tmp_path):
        vocab = tp.build_vocabulary([["a"]])
        path = tmp_path / "v.tsv"
        tp.save_vocabulary(vocab, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(ValueError, match="v.tsv: expected header 'authorlm-vocab 1' on line 1"):
            tp.load_vocabulary(path)

    @pytest.mark.parametrize(
        "edit", [lambda lines: lines[:-1], lambda lines: lines[:1] + lines[2:]],
        ids=["row-deleted", "header-missing"],
    )
    def test_vocab_rows_must_match_size_header(self, tmp_path, edit):
        vocab = tp.build_vocabulary([["alpha", "beta", "alpha", "x"]], 0.0)
        path = tmp_path / "v.tsv"
        tp.save_vocabulary(vocab, path)
        lines = edit(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        rows = sum(not line.startswith("#") for line in lines)
        with pytest.raises(ValueError, match=f"v.tsv:2: expected '# size {rows}' for {rows} rows"):
            tp.load_vocabulary(path)

    @pytest.mark.parametrize("first", ["", "# authorlm-vocab 2\n", "# size 4\n"])
    def test_vocab_wrong_or_missing_magic(self, tmp_path, first):
        vocab = tp.build_vocabulary([["a"]])
        path = tmp_path / "v.tsv"
        tp.save_vocabulary(vocab, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(first + "".join(lines[1:]))
        with pytest.raises(ValueError, match="v.tsv: expected header"):
            tp.load_vocabulary(path)

    @pytest.mark.parametrize("first", ["", "# authorlm-corpus 0\n", "# authorlm-vocab 1\n"])
    def test_corpus_wrong_or_missing_magic(self, tmp_path, first):
        vocab = tp.build_vocabulary([["a"]])
        path = tmp_path / "c.txt"
        tp.save_processed(tp.encode([["a"]], vocab, order=2), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(first + "".join(lines[1:]))
        with pytest.raises(ValueError, match="c.txt: expected header"):
            tp.load_processed(path, vocab)


CORPUS_HEADER = "# authorlm-corpus 1\n# order 3\n# stemming 1\n# prune_threshold 1e-05\n"


def load_both(path, vocab, loaders=(tp.load_processed, textproc_reference.load_processed)):
    """The outcome of the loader and of the earlier per-line one: what it
    loaded, or the message of the ValueError it raised."""
    outcomes = []
    for load in loaders:
        try:
            outcomes.append(load(path, *vocab))
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestCorpusLoader:
    """``load_processed`` against the earlier per-line parser."""

    vocab = tp.build_vocabulary([["a", "b", "c", "d", "e"]])  # V = 8

    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(["aa", "bb", "cc", "naïve", "dd", "ee"]), max_size=8),
            max_size=12,
        ).filter(lambda s: any(s)),
        order=st.integers(min_value=2, max_value=5),
        stemming=st.booleans(),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_saved_files_load_as_before(self, tmp_path_factory, sentences, order, stemming, threshold):
        directory = tmp_path_factory.mktemp("saved")
        vocab = tp.build_vocabulary(sentences, threshold)
        corpus = tp.encode(sentences, vocab, order, stemming, threshold)
        tp.save_vocabulary(vocab, directory / "v.tsv")
        tp.save_processed(corpus, directory / "c.txt")
        loaders = (tp.load_vocabulary, textproc_reference.load_vocabulary)
        assert load_both(directory / "v.tsv", (), loaders) == [vocab, vocab]
        assert load_both(directory / "c.txt", (vocab,)) == [corpus, corpus]

    @given(
        order=st.integers(min_value=2, max_value=4),
        lines=st.lists(st.lists(st.integers(min_value=0, max_value=7), max_size=8), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_line_parse(self, tmp_path_factory, order, lines):
        # files in the layout: the header on lines 1-4, one sentence per line
        path = tmp_path_factory.mktemp("corpus") / "c.txt"
        text = f"# authorlm-corpus 1\n# order {order}\n# stemming 0\n# prune_threshold 0.25\n"
        for content in lines:
            text += " ".join(map(str, [tp.START_ID] * (order - 1) + content + [tp.END_ID])) + "\n"
        path.write_text(text)
        new, old = load_both(path, (self.vocab,))
        assert new == old
        assert len(new.sentences) == len(lines)

    @pytest.mark.parametrize(
        "text, message",
        [
            # the variants the earlier parser read like files in the layout
            (CORPUS_HEADER.replace("# prune_threshold 1e-05\n", "") + "0 0 3 1\n# prune_threshold 0.25\n",
             ":4: bad header line '0 0 3 1'"),
            (CORPUS_HEADER + "0 0 3 1\n\n0 0 5 1\n", ":6: malformed sentence line"),
            (CORPUS_HEADER + "0 0 3 1\n0\t0 5 1\n", ":6: malformed sentence line"),
            (CORPUS_HEADER + "0 0 3 1\n0 0  5 1\n", ":6: malformed sentence line"),
            (CORPUS_HEADER + "0 0 3 1\n 0 0 5 1\n", ":6: malformed sentence line"),
            (CORPUS_HEADER + "0 0 3 1 \n", ":5: malformed sentence line"),
            # further leniencies of the earlier parser
            (CORPUS_HEADER + "0 0 3 1\n# order 3\n", ":6: malformed sentence line"),
            (CORPUS_HEADER.replace("# order 3\n", "# order 4\n# order 3\n") + "0 0 3 1\n",
             ":3: bad header line '# order 3'"),
            (CORPUS_HEADER.replace("# order 3", "# order 1") + "3 1\n",
             ":2: bad header line '# order 1'"),
            (CORPUS_HEADER.replace("# stemming 1", "# stemming 2") + "0 0 3 1\n",
             ":3: bad header line '# stemming 2'"),
            (CORPUS_HEADER.replace("1e-05", "nan") + "0 0 3 1\n",
             ":4: bad header line '# prune_threshold nan'"),
            (CORPUS_HEADER.replace("1e-05", "1.5") + "0 0 3 1\n",
             ":4: bad header line '# prune_threshold 1.5'"),
            (CORPUS_HEADER + "0 0 3 1\n# note\n0 0 5 1\n", ":6: malformed sentence line"),
            (CORPUS_HEADER + "0 0 3 1\r\n", ":5: malformed sentence line"),
            (CORPUS_HEADER.replace("\n", "\r\n") + "0 0 3 1\r\n",
             ": expected header 'authorlm-corpus 1' on line 1"),
            (CORPUS_HEADER + "0 0 +5 1\n", ":5: malformed sentence line"),
            (CORPUS_HEADER + "0 0 \u0663 1\n", ":5: malformed sentence line"),
            (CORPUS_HEADER + "0 0 1_0 1\n", ":5: malformed sentence line"),
            (CORPUS_HEADER + "0 0 3 1", ":5: last line does not end in a newline"),
            (CORPUS_HEADER + "0 3 1\n", ":5: sentence not padded for the stated order"),
        ],
        ids=[
            "late-header", "blank-line", "tab", "double-space", "leading-edge", "trailing-edge",
            "header-after-body", "duplicated-order", "order-1", "stemming-2", "threshold-nan",
            "threshold-above-1", "comment-in-body", "crlf-line", "crlf-file", "plus-id",
            "arabic-indic-digit", "underscore-id", "no-final-newline", "unpadded",
        ],
    )
    def test_refuses_file_outside_layout(self, tmp_path, text, message):
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as refused:
            tp.load_processed(path, self.vocab)
        assert str(refused.value) == f"{path}{message}"

    @pytest.mark.parametrize(
        "line, as_before",
        [("0 0 4 x 1", True), ("0 0 +3 1", False), ("0 0 - 1", True), ("   ", False)],
        ids=["letter", "plus-sign", "lone-minus", "only-spaces"],
    )
    def test_malformed_body_as_before(self, tmp_path, line, as_before):
        # the earlier parser read "+3" as 3 and "   " as an empty sentence
        path = tmp_path / "c.txt"
        path.write_text(CORPUS_HEADER + "0 0 3 1\n" + line + "\n0 0 5 4 1\n")
        new, old = load_both(path, (self.vocab,))
        assert new.endswith("c.txt:6: malformed sentence line")
        assert (new == old) is as_before

    @pytest.mark.parametrize("ids", ["0 0 -1 5 1", "0 0 8 1"], ids=["negative", "V"])
    def test_rejects_id_outside_vocabulary(self, tmp_path, ids):
        path = tmp_path / "c.txt"
        path.write_text(CORPUS_HEADER + "0 0 3 1\n" + ids + "\n")
        with pytest.raises(ValueError, match=r"c\.txt:6: id -?\d+ outside the vocabulary of 8"):
            tp.load_processed(path, self.vocab)

    def test_corpus_rejects_negative_id(self):
        with pytest.raises(ValueError, match="outside the vocabulary"):
            tp.ProcessedCorpus(self.vocab, ((0, 0, -1, 1),), 3, True, 0.0)

    @pytest.mark.parametrize(
        "key, lineno", [("order", 2), ("stemming", 3), ("prune_threshold", 4)],
        ids=["order", "stemming", "prune_threshold"],
    )
    @pytest.mark.parametrize("value", ["", " ", " x"], ids=["bare", "blank", "word"])
    def test_header_without_value(self, tmp_path, key, lineno, value):
        path = tmp_path / "c.txt"
        lines = CORPUS_HEADER.splitlines()
        lines[lineno - 1] = f"# {key}{value}"
        path.write_text("\n".join(lines) + "\n0 0 3 1\n")
        with pytest.raises(ValueError, match=rf"c\.txt:{lineno}: bad header line '# {key}{value}'"):
            tp.load_processed(path, self.vocab)


class TestRawCorpus:
    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "author.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            tp.read_corpus_file(path)

    def test_reads_author_id_from_stem(self, tmp_path):
        path = tmp_path / "alice.txt"
        path.write_text("hello there\nsecond line\n")
        raw = tp.read_corpus_file(path)
        assert raw.author_id == "alice"
        assert len(raw.sentences) == 2
