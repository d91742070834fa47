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

    def test_local_codes_and_vocabulary_ids(self):
        # codes 0 and 1 pad, then one code per distinct word in first-seen order
        local, words = tp.encode_local([["b", "zz", "b"], [], ["<s>", "a"]], order=3)
        assert words == ("b", "zz", "<s>", "a")
        assert local == ((0, 0, 2, 3, 2, 1), (0, 0, 1), (0, 0, 4, 5, 1))
        vocab = tp.build_vocabulary([["a", "b", "b"]])
        ids = vocab.ids(words)
        assert ids.dtype == np.int64
        b, a = vocab.index_of("b"), vocab.index_of("a")
        assert ids.tolist() == [tp.START_ID, tp.END_ID, b, tp.UNK_ID, tp.START_ID, a]

    @given(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "rare"]), max_size=12),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_unknowns(self, sentence, order):
        # the ids decode to the unknown word; the corpus keeps the tokens behind them
        vocab = tp.build_vocabulary([["aa", "aa", "bb", "bb", "cc", "dd"]])
        pc = tp.encode([sentence], vocab, order=order)
        decoded = vocab.decode(pc.sentences[0][order - 1 : -1])
        assert decoded == [w if w in vocab else tp.UNKNOWN for w in sentence]
        assert pc.unknown == tuple(w for w in sentence if w not in vocab)
        assert pc.tokens([0, 0]) == [sentence, sentence]


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
        # the readable copy, read by the reference loader
        vocab = tp.build_vocabulary([["alpha", "beta", "alpha", "x"]], 0.0)
        path = tmp_path / "v.tsv"
        tp.save_vocabulary(vocab, path)
        assert textproc_reference.load_vocabulary(path) == vocab

    def test_corpus_roundtrip(self, tmp_path):
        sentences = [["alpha", "beta"], ["beta", "gamma"], []]
        vocab = tp.build_vocabulary([["alpha", "beta"], ["beta"]])
        pc = tp.encode(sentences, vocab, order=3, stemming=False, prune_threshold=1e-5)
        path = tmp_path / "c.corpus"
        tp.save_processed(pc, path)
        loaded = tp.load_processed(path)
        assert loaded == pc
        assert loaded.vocabulary == vocab
        assert loaded.unknown == ("gamma",)
        assert loaded.tokens([2, 1, 0]) == sentences[::-1]
        assert loaded.prune_threshold == 1e-5
        assert loaded.stemming is False

    def test_corpus_missing_header(self, tmp_path):
        path = tmp_path / "c.corpus"
        path.write_text("0 3 1\n")
        with pytest.raises(ValueError, match="c.corpus: no authorlm-corpus header"):
            tp.load_processed(path)

    def saved(self, directory):
        """A corpus of two sentences, one unknown among them, saved."""
        vocab = tp.build_vocabulary([["alpha", "beta", "alpha", "x"]], 0.0)
        path = directory / "c.corpus"
        tp.save_processed(tp.encode([["alpha", "y"], ["beta", "x"]], vocab, order=2), path)
        return path

    def refused(self, path, edit) -> str:
        """The refusal of the file at ``path`` once ``edit`` has changed its header."""
        header, lengths, ids = textproc_reference.read_corpus(path)
        edit(header)
        textproc_reference.write_corpus(path, header, lengths, ids)
        with pytest.raises(ValueError) as refused:
            tp.load_processed(path)
        message = str(refused.value)
        assert message.startswith(f"{path}: ")
        return message.removeprefix(f"{path}: ")

    def test_vocab_bad_line(self, tmp_path):
        # a vocabulary entry that is not a word
        path = self.saved(tmp_path)
        assert self.refused(path, lambda h: h["words"].__setitem__(3, 7)) == "words is not a list of strings"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h["counts"].__setitem__(3, "+3"), "counts is not a list of integers >= 0"),
            (lambda h: h["counts"].__setitem__(0, -7), "counts is not a list of integers >= 0"),
            (lambda h: h["words"].insert(3, "# note"), "counts/words length mismatch"),
            (lambda h: h["words"].__setitem__(3, None), "words is not a list of strings"),
            (lambda h: h["words"].__setitem__(2, "<unk>\r"), "reserved tokens missing or out of order"),
            (lambda h: h["counts"].__setitem__(2, "٣"), "counts is not a list of integers >= 0"),
            (lambda h: h["counts"].__setitem__(2, True), "counts is not a list of integers >= 0"),
            (lambda h: h["words"].__setitem__(4, h["words"][3]), "duplicate words in vocabulary"),
        ],
        ids=["plus-id", "negative-count", "comment-row", "blank-row", "cr-row", "non-ascii-count",
             "bool-count", "duplicate-word"],
    )
    def test_vocab_row_outside_layout(self, tmp_path, edit, message):
        # the vocabulary section of the header: one word and one count >= 0 per id
        assert self.refused(self.saved(tmp_path), edit) == message

    def test_vocab_crlf_refused_on_line_1(self, tmp_path):
        # reserved words carrying the CR of CRLF line ends
        def edit(header):
            header["words"][:3] = [word + "\r" for word in header["words"][:3]]

        assert self.refused(self.saved(tmp_path), edit) == "reserved tokens missing or out of order"

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda h: h["words"].pop(), "counts/words length mismatch"),
         (lambda h: h.pop("words"), "words is not a list of strings")],
        ids=["row-deleted", "header-missing"],
    )
    def test_vocab_rows_must_match_size_header(self, tmp_path, edit, message):
        assert self.refused(self.saved(tmp_path), edit) == message

    @pytest.mark.parametrize("first", ["", "# authorlm-vocab 2\n", "# size 4\n"])
    def test_vocab_wrong_or_missing_magic(self, tmp_path, first):
        # the section opens with the reserved words, not a blank or a line of the readable copy
        edit = lambda header: header["words"].__setitem__(0, first)
        assert self.refused(self.saved(tmp_path), edit) == "reserved tokens missing or out of order"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.pop("unknown"), "unknown is not a list of strings"),
            (lambda h: h.update(unknown="y"), "unknown is not a list of strings"),
            (lambda h: h.update(unknown=[None]), "unknown is not a list of strings"),
            (lambda h: h.update(unknown=[]), "0 unknown tokens for 1 unknown ids"),
            (lambda h: h["unknown"].append("z"), "2 unknown tokens for 1 unknown ids"),
        ],
        ids=["missing", "string", "not-a-word", "too-few", "too-many"],
    )
    def test_unknown_section_outside_layout(self, tmp_path, edit, message):
        # one token per unknown id, in the order of the ids
        assert self.refused(self.saved(tmp_path), edit) == message

    @pytest.mark.parametrize("first", ["", "# authorlm-corpus 0\n", "# authorlm-vocab 1\n"])
    def test_corpus_wrong_or_missing_magic(self, tmp_path, first):
        # the header line dropped, or an earlier text header in its place
        vocab = tp.build_vocabulary([["a"]])
        path = tmp_path / "c.corpus"
        tp.save_processed(tp.encode([["a"]], vocab, order=2), path)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(first.encode() + body)
        with pytest.raises(ValueError, match="c.corpus: no authorlm-corpus header"):
            tp.load_processed(path)


def edit_corpus(edit):
    """A corruption that rewrites a saved corpus with ``edit`` applied to
    its (header, lengths, ids)."""
    def corrupt(path):
        header, lengths, ids = textproc_reference.read_corpus(path)
        edit(header, lengths, ids)
        textproc_reference.write_corpus(path, header, lengths, ids)
    return corrupt


def edit_bytes(edit):
    """A corruption that replaces a saved corpus's bytes with ``edit`` of them."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def set_header(**values):
    return edit_corpus(lambda header, lengths, ids: header.update(values))


class TestCorpusLoader:
    """``load_processed`` reads the one layout ``save_processed`` writes and
    refuses every other file with a ValueError naming it."""

    vocab = tp.build_vocabulary([["a", "b", "c", "d", "e"]])  # V = 8

    def saved(self, directory):
        """The file of three sentences at order 3, the second of them
        holding content id 3."""
        corpus = tp.encode([["a", "b"], ["a"], []], self.vocab, order=3)
        assert corpus.sentences[1] == (0, 0, 3, 1)
        path = directory / "c.corpus"
        tp.save_processed(corpus, path)
        return path

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
        tp.save_processed(corpus, directory / "c.corpus")
        assert textproc_reference.load_vocabulary(directory / "v.tsv") == vocab
        loaded = tp.load_processed(directory / "c.corpus")
        assert loaded == corpus and loaded.vocabulary == vocab
        # every sentence's tokens, the pruned ones included
        assert loaded.tokens(range(len(sentences))) == sentences
        # the same corpus writes the same bytes, loaded or not
        tp.save_processed(loaded, directory / "again.corpus")
        assert (directory / "again.corpus").read_bytes() == (directory / "c.corpus").read_bytes()

    @given(
        order=st.integers(min_value=2, max_value=4),
        lines=st.lists(st.lists(st.integers(min_value=0, max_value=7), max_size=8), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_loads_each_sentence_as_written(self, tmp_path_factory, order, lines):
        # files written without the library: each sentence's ids in order
        path = tmp_path_factory.mktemp("corpus") / "c.corpus"
        rows = [(tp.START_ID,) * (order - 1) + tuple(content) + (tp.END_ID,) for content in lines]
        unknown = [f"u{k}" for k in range(sum(content.count(tp.UNK_ID) for content in lines))]
        header = {
            "format": "authorlm-corpus", "version": 3, "order": order, "stemming": False,
            "prune_threshold": 0.25, "words": list(self.vocab.words), "counts": list(self.vocab.counts),
            "unknown": unknown, "arrays": [["lengths", [len(rows)]], ["ids", [sum(map(len, rows))]]],
        }
        textproc_reference.write_corpus(path, header, [len(r) for r in rows], [i for r in rows for i in r])
        loaded = tp.load_processed(path)
        assert tuple(loaded.sentences) == tuple(rows)
        assert loaded.vocabulary == self.vocab and list(loaded.unknown) == unknown
        assert (loaded.order, loaded.stemming, loaded.prune_threshold) == (order, False, 0.25)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (edit_bytes(lambda data: b"0 0 3 1\n" + data.split(b"\n", 1)[1]), "no authorlm-corpus header"),
            (set_header(format="authorlm-kn"), "unexpected format 'authorlm-kn'"),
            (set_header(version=1), "unsupported version 1"),
            (set_header(version=2), "unsupported version 2"),
            (set_header(arrays=[["ids", [12]], ["lengths", [3]]]),
             "arrays [['ids', [12]], ['lengths', [3]]] are not lengths and ids"),
            (edit_bytes(lambda data: data[:-1]), "truncated tensor 'ids'"),
            (edit_bytes(lambda data: data + b"\0"), "unexpected bytes after tensor 'ids'"),
            (edit_corpus(lambda header, lengths, ids: lengths.__setitem__(0, 6)),
             "sentence lengths are not counts summing to the 12 ids"),
            (edit_corpus(lambda header, lengths, ids: lengths.__setitem__(slice(None), [13, -5, 4])),
             "sentence lengths are not counts summing to the 12 ids"),
            (edit_corpus(lambda header, lengths, ids: ids.__setitem__(5, 3)), "sentence 1 not padded for order 3"),
            (set_header(order=1), "bad order 1"),
            (set_header(stemming=2), "bad stemming 2"),
            (set_header(prune_threshold=float("nan")), "bad prune_threshold nan"),
            (set_header(prune_threshold=1.5), "bad prune_threshold 1.5"),
            (edit_corpus(lambda header, lengths, ids: header["counts"].pop()), "counts/words length mismatch"),
            (edit_bytes(lambda data: data.replace(b'"order": 3', b'"order": 3, "order": 2')),
             "header key 'order' repeated"),
        ],
        ids=[
            "not-json", "format", "version-1", "version-2", "array-list", "truncated", "trailing-bytes", "lengths-sum",
            "negative-length", "unpadded", "order-1", "stemming-2", "threshold-nan", "threshold-above-1",
            "vocab", "duplicated-order",
        ],
    )
    def test_refuses_file_outside_layout(self, tmp_path, corrupt, message):
        path = self.saved(tmp_path)
        corrupt(path)
        with pytest.raises(ValueError) as refused:
            tp.load_processed(path)
        assert str(refused.value) == f"{path}: {message}"

    @pytest.mark.parametrize("bad", [-1, 8], ids=["negative", "V"])
    def test_rejects_id_outside_vocabulary(self, tmp_path, bad):
        path = self.saved(tmp_path)
        edit_corpus(lambda header, lengths, ids: ids.__setitem__(7, bad))(path)
        with pytest.raises(ValueError) as refused:
            tp.load_processed(path)
        assert str(refused.value) == f"{path}: sentence 1: id {bad} outside the vocabulary of 8"

    def test_corpus_rejects_negative_id(self):
        with pytest.raises(ValueError, match="outside the vocabulary"):
            tp.ProcessedCorpus(self.vocab, ((0, 0, -1, 1),), 3, True, 0.0)

    @pytest.mark.parametrize("key", ["order", "stemming", "prune_threshold"])
    @pytest.mark.parametrize(
        "edit, shown",
        [(lambda h, k: h.pop(k), "None"), (lambda h, k: h.update({k: None}), "None"),
         (lambda h, k: h.update({k: "x"}), "'x'")],
        ids=["bare", "blank", "word"],
    )
    def test_header_without_value(self, tmp_path, key, edit, shown):
        # the key missing, null, or a string
        path = self.saved(tmp_path)
        edit_corpus(lambda header, lengths, ids: edit(header, key))(path)
        with pytest.raises(ValueError) as refused:
            tp.load_processed(path)
        assert str(refused.value) == f"{path}: bad {key} {shown}"


class TestSentences:
    @given(
        contents=st.lists(st.lists(st.integers(min_value=3, max_value=7), max_size=6), min_size=1, max_size=10),
        order=st.integers(min_value=2, max_value=4),
        picks=st.lists(st.integers(min_value=0, max_value=1000), max_size=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_take_matches_tuple_selection(self, contents, order, picks):
        vocab = tp.build_vocabulary([["a", "b", "c", "d", "e"]])
        rows = tuple((tp.START_ID,) * (order - 1) + tuple(c) + (tp.END_ID,) for c in contents)
        pc = tp.ProcessedCorpus(vocab, rows, order, False, 0.0)
        indices = [i % len(rows) for i in picks]  # any order, repeats included
        taken = pc.sentences.take(indices)
        assert tuple(taken) == tuple(rows[i] for i in indices)
        got, want = tp.extract_samples(pc, indices), tp.samples_from_sentences([rows[i] for i in indices], order)
        assert np.array_equal(got.contexts, want.contexts) and np.array_equal(got.targets, want.targets)

    def test_sequence_of_tuples(self):
        rows = ((0, 3, 1), (0, 1), (0, 4, 5, 1))
        s = tp.Sentences.of(rows)
        assert len(s) == 3 and s[0] == rows[0] and s[-1] == rows[-1] and list(s) == list(rows)
        assert s == rows and s != rows[:2] and s[1:] == rows[1:] and isinstance(s[1:], tp.Sentences)
        with pytest.raises(ValueError):
            s.ids[0] = 7

    def test_of_passes_sentences_through(self):
        vocab = tp.build_vocabulary([["a"]])
        pc = tp.encode([["a"], ["a", "a"]], vocab, order=2)
        assert tp.Sentences.of(pc.sentences) is pc.sentences
        again = tp.ProcessedCorpus(vocab, pc.sentences, 2, True, 0.0)
        assert again.sentences is pc.sentences


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
