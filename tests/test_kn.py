"""N-gram model: counting, discounting, smoothing recursion, file format.

The probability oracle is ``kn_reference.ReferenceKn``: the same recursion
written naively over exact rationals.  On the 4-token corpus the key value
is also frozen by hand: with discounts 0.6 (bigrams, from count-of-counts
3/(3+2)) and 0.5 (continuation unigrams, 2/(2+2)),
P(b|a) = (2-0.6)/2 + 0.3 * [(1-0.5)/4 + 0.375/5] = 0.7 + 0.3*0.2 = 0.76.
"""

import dataclasses
import math
from fractions import Fraction

import kn_reference
import numpy as np
import pytest
from kn_reference import ReferenceKn, brute_continuation, brute_counts

from authorlm import kn
from authorlm import textproc as tp


def make_corpus(token_sentences, order):
    vocab = tp.build_vocabulary(token_sentences)
    processed = tp.encode(token_sentences, vocab, order=order)
    return vocab, processed


def abab(order=2):
    return make_corpus([["a", "b", "a", "b"]], order)


def random_id_sentences(order, V, seed, n=30):
    rng = np.random.default_rng(seed)
    pad = (tp.START_ID,) * (order - 1)
    return [
        pad + tuple(rng.integers(3, V, size=rng.integers(1, 9)).tolist()) + (tp.END_ID,)
        for _ in range(n)
    ]


class TestCount:
    def test_abab_bigrams(self):
        vocab, pc = abab()
        tables = kn.count(pc.sentences, 2)
        a, b = vocab.index_of("a"), vocab.index_of("b")
        assert tables.raw_counts(2)[(a, b)] == 2
        assert tables.raw_counts(2)[(b, a)] == 1

    def test_abab_continuation_of_b(self):
        vocab, pc = abab()
        tables = kn.count(pc.sentences, 2)
        b = vocab.index_of("b")
        assert tables.continuation_counts(1)[(b,)] == 1

    @pytest.mark.parametrize(
        "order, V",
        [(1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (5, 7000)],
        ids=["order1", "order2", "order3", "order4", "order5", "order5-V7000"],
    )
    def test_matches_bruteforce_recount(self, order, V):
        # V=7000 at order 5 needs object keys (7000**5 > 2**63)
        sentences = random_id_sentences(order, V, seed=17)
        tables = kn.count(sentences, order)
        raw = brute_counts(sentences, order)
        for k in range(1, order + 1):
            counts = tables.raw_counts(k)
            assert counts == dict(raw[k])
            assert list(counts) == sorted(raw[k])  # lexicographic rows
        for k in range(1, order):
            assert tables.continuation_counts(k) == brute_continuation(raw, k)
        model = kn.build_model(tables, V)
        for table in (*model.probs.values(), *model.bows.values()):
            assert (table.keys[1:] > table.keys[:-1]).all()
        if order > 1:
            assert model.probs[order].keys.dtype == (object if V == 7000 else np.int64)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_empty_input(self, order):
        tables = kn.count([], order)
        for k in range(1, order + 1):
            assert tables.raw[k - 1][0].shape == (0, k)
            assert tables.raw_counts(k) == {}
        for k in range(1, order):
            assert tables.continuation_counts(k) == {}
        assert kn.estimate_discounts(tables) == (0.5,) * order
        model = kn.build_model(tables, vocab_size=9)
        assert model.distribution([3] * (order - 1)).tolist() == pytest.approx([1 / 9] * 9)

    def test_count_consistency_boundary_adjusted(self):
        # a context's count equals its right-extensions plus the times it
        # closes a sentence
        rng = np.random.default_rng(23)
        sentences = [
            [f"w{i}" for i in rng.integers(0, 5, size=rng.integers(1, 7))]
            for _ in range(20)
        ]
        vocab, pc = make_corpus(sentences, 3)
        tables = kn.count(pc.sentences, 3)
        for k in (1, 2):
            finals = {}
            for s in pc.sentences:
                tail = s[len(s) - k :]
                finals[tail] = finals.get(tail, 0) + 1
            for ctx, c in tables.raw_counts(k).items():
                extensions = sum(
                    cnt
                    for gram, cnt in tables.raw_counts(k + 1).items()
                    if gram[:-1] == ctx
                )
                assert c == extensions + finals.get(ctx, 0)

    def test_rejects_unpadded(self):
        with pytest.raises(ValueError, match="padded"):
            kn.count([(3, 4, 1)], 3)  # needs two start ids


def unigram_tables(counts):
    """Order-1 count tables over ids 3, 4, ... with the given counts."""
    rows = np.arange(3, 3 + len(counts), dtype=np.int64).reshape(-1, 1)
    return kn.CountTables(order=1, raw=((rows, np.array(counts, dtype=np.int64)),), continuation=())


class TestDiscounts:
    def test_equal_n1_n2_gives_third(self):
        tables = unigram_tables([1, 2])
        assert kn.estimate_discounts(tables) == (pytest.approx(1 / 3),)

    def test_no_doubletons_clamps(self):
        tables = unigram_tables([1, 1])
        assert kn.estimate_discounts(tables) == (0.95,)

    def test_fallback_when_no_small_counts(self):
        tables = unigram_tables([5, 7])
        assert kn.estimate_discounts(tables) == (0.5,)

    def test_abab_hand_values(self):
        _, pc = abab()
        tables = kn.count(pc.sentences, 2)
        assert kn.estimate_discounts(tables) == (pytest.approx(0.5), pytest.approx(0.6))

    def test_abab_saved_header(self, tmp_path):
        # discounts are Python floats, so the header holds plain reprs
        vocab, pc = abab()
        kn.save_model(kn.train_model(pc.sentences, 2, vocab.size), tmp_path / "m.arpa")
        assert (tmp_path / "m.arpa").read_text().splitlines()[3] == "# discounts 0.5 0.6"


class TestProbabilities:
    def test_abab_hand_value(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        a, b = vocab.index_of("a"), vocab.index_of("b")
        assert math.exp(model.log_prob([a], b)) == pytest.approx(0.76, abs=1e-12)

    def test_abab_matches_reference_everywhere(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        ref = ReferenceKn(pc.sentences, 2, vocab.size)
        for c in range(vocab.size):
            for w in range(vocab.size):
                got = math.exp(model.log_prob([c], w))
                assert got == pytest.approx(float(ref.prob([c], w)), abs=1e-12)

    @pytest.mark.parametrize(
        "sentences",
        [
            # two small order-3 corpora, both well under 50 tokens
            [
                ["the", "cat", "sat", "on", "the", "mat"],
                ["the", "dog", "sat", "on", "the", "log"],
                ["a", "cat", "and", "a", "dog"],
            ],
            [
                ["to", "be", "or", "not", "to", "be"],
                ["to", "see", "or", "not", "to", "see"],
                ["be", "not"],
                ["see", "not", "to", "be"],
            ],
        ],
    )
    def test_small_corpora_match_reference(self, sentences):
        vocab, pc = make_corpus(sentences, 3)
        model = kn.train_model(pc.sentences, 3, vocab.size)
        ref = ReferenceKn(pc.sentences, 3, vocab.size)
        rng = np.random.default_rng(5)
        contexts = {tuple(s[i : i + 2]) for s in pc.sentences for i in range(len(s) - 2)}
        contexts |= {tuple(rng.integers(0, vocab.size, size=2)) for _ in range(40)}
        for ctx in sorted(contexts):
            for w in range(vocab.size):
                got = math.exp(model.log_prob(ctx, w))
                want = float(ref.prob(ctx, w))
                assert got == pytest.approx(want, abs=1e-10), (ctx, w)

    def test_reference_distributions_sum_to_exactly_one(self):
        # in exact arithmetic the interpolation telescopes to 1
        vocab, pc = abab()
        ref = ReferenceKn(pc.sentences, 2, vocab.size)
        for c in range(vocab.size):
            assert sum(ref.prob([c], w) for w in range(vocab.size)) == Fraction(1)

    def test_normalization_random_contexts(self):
        rng = np.random.default_rng(31)
        sentences = [
            [f"w{i}" for i in rng.integers(0, 12, size=rng.integers(1, 8))]
            for _ in range(40)
        ]
        vocab, pc = make_corpus(sentences, 3)
        model = kn.train_model(pc.sentences, 3, vocab.size)
        for _ in range(100):
            ctx = tuple(rng.integers(0, vocab.size, size=2))
            total = math.fsum(
                math.exp(model.log_prob(ctx, w)) for w in range(vocab.size)
            )
            assert abs(total - 1.0) < 1e-8

    def test_positivity(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        for c in range(vocab.size):
            for w in range(vocab.size):
                assert math.isfinite(model.log_prob([c], w))

    def test_empty_tables_uniform(self):
        tables = kn.count([], 2)
        model = kn.build_model(tables, vocab_size=9)
        for w in range(9):
            assert model.log_prob([3], w) == pytest.approx(math.log(1 / 9), abs=1e-12)

    def test_rejects_out_of_range(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        with pytest.raises(ValueError, match="out of range"):
            model.log_prob([0], vocab.size)
        with pytest.raises(ValueError, match="out of range"):
            model.log_prob([vocab.size], 0)

    def test_long_context_truncates(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        a, b = vocab.index_of("a"), vocab.index_of("b")
        assert model.log_prob([b, b, b, a], b) == model.log_prob([a], b)


class TestSerialization:
    def roundtrip(self, tmp_path, sentences, order):
        vocab, pc = make_corpus(sentences, order)
        model = kn.train_model(pc.sentences, order, vocab.size)
        path = tmp_path / "m.arpa"
        kn.save_model(model, path)
        return vocab, model, kn.load_model(path)

    def test_queries_bit_identical(self, tmp_path):
        rng = np.random.default_rng(41)
        sentences = [
            [f"w{i}" for i in rng.integers(0, 10, size=rng.integers(1, 9))]
            for _ in range(25)
        ]
        vocab, model, loaded = self.roundtrip(tmp_path, sentences, 3)
        assert loaded.order == model.order
        assert loaded.vocab_size == model.vocab_size
        assert loaded.discounts == model.discounts
        for _ in range(1000):
            ctx = tuple(rng.integers(0, vocab.size, size=rng.integers(0, 3)))
            w = int(rng.integers(0, vocab.size))
            assert model.log_prob(ctx, w) == loaded.log_prob(ctx, w)

    def test_start_only_contexts_survive_roundtrip(self, tmp_path):
        # order-3 sentence-initial contexts carry back-off weight but no
        # probability entry; they must round-trip through the na marker
        sentences = [["x", "y"], ["x", "z"]]
        vocab, model, loaded = self.roundtrip(tmp_path, sentences, 3)
        ctx = (tp.START_ID, tp.START_ID)
        assert ctx in model.bows[2]
        assert ctx not in model.probs[2]
        for w in range(vocab.size):
            assert model.log_prob(ctx, w) == loaded.log_prob(ctx, w)

    def test_truncated_file_names_line(self, tmp_path):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        path = tmp_path / "m.arpa"
        kn.save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(kn.KnParseError, match=r":\d+:"):
            kn.load_model(path)

    def test_bad_count_header(self, tmp_path):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        path = tmp_path / "m.arpa"
        kn.save_model(model, path)
        text = path.read_text().replace("ngram 2=", "ngram 2=9")
        path.write_text(text)
        with pytest.raises(kn.KnParseError, match="entries"):
            kn.load_model(path)

    def test_bad_probability_field(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text(
            "# authorlm-kn 1\n# order 1\n# vocab 2\n# discounts 0.5\n"
            "\\data\\\nngram 1=2\n\\1-grams:\nxx\t0\n-0.3\t1\n\\end\\\n"
        )
        with pytest.raises(kn.KnParseError, match="8"):
            kn.load_model(path)

    def test_handwritten_unigram_file(self, tmp_path):
        path = tmp_path / "hand.arpa"
        path.write_text(
            "# authorlm-kn 1\n"
            "# order 1\n"
            "# vocab 2\n"
            "# discounts 0.5\n"
            "\\data\\\n"
            "ngram 1=2\n"
            "\\1-grams:\n"
            f"{math.log10(0.25)!r}\t0\n"
            f"{math.log10(0.75)!r}\t1\n"
            "\\end\\\n"
        )
        model = kn.load_model(path)
        assert math.exp(model.log_prob([], 0)) == pytest.approx(0.25, abs=1e-12)
        assert math.exp(model.log_prob([], 1)) == pytest.approx(0.75, abs=1e-12)

    def test_missing_unigram_entry(self, tmp_path):
        path = tmp_path / "hand.arpa"
        path.write_text(
            "# authorlm-kn 1\n# order 1\n# vocab 3\n"
            "\\data\\\nngram 1=2\n\\1-grams:\n-0.5\t0\n-0.5\t2\n\\end\\\n"
        )
        with pytest.raises(kn.KnParseError, match="misses id 1"):
            kn.load_model(path)


class TestSaveModelBytes:
    """``save_model`` writes the bytes of the earlier per-entry writer,
    ``kn_reference.save_model``."""

    def assert_same_bytes(self, tmp_path, model):
        kn.save_model(model, tmp_path / "new.arpa")
        kn_reference.save_model(model, tmp_path / "ref.arpa")
        assert (tmp_path / "new.arpa").read_bytes() == (tmp_path / "ref.arpa").read_bytes()
        return (tmp_path / "new.arpa").read_text()

    @pytest.mark.parametrize(
        "order, V",
        [(1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (5, 7000)],
        ids=["order1", "order2", "order3", "order4", "order5", "order5-V7000"],
    )
    def test_random_models(self, tmp_path, order, V):
        model = kn.train_model(random_id_sentences(order, V, seed=order), order, V)
        if order > 1:
            assert model.probs[order].keys.dtype == (object if V == 7000 else np.int64)
        self.assert_same_bytes(tmp_path, model)

    def test_na_entries(self, tmp_path):
        vocab, pc = make_corpus([["x", "y"], ["x", "z"]], 3)
        model = kn.train_model(pc.sentences, 3, vocab.size)
        text = self.assert_same_bytes(tmp_path, model)
        assert f"\nna\t{tp.START_ID} {tp.START_ID}\t" in text

    def test_empty_tables(self, tmp_path):
        text = self.assert_same_bytes(tmp_path, kn.train_model([], 3, 5))
        assert "ngram 2=0\nngram 3=0\n\\1-grams:\n" in text
        assert text.endswith("\\2-grams:\n\\3-grams:\n\\end\\\n")

    def test_empty_bow_tables(self, tmp_path):
        model = kn.train_model(random_id_sentences(3, 9, seed=5), 3, 9)
        empty = {k: kn._Table(k, 9, table.keys[:0], table.values[:0]) for k, table in model.bows.items()}
        model = dataclasses.replace(model, bows=empty)
        text = self.assert_same_bytes(tmp_path, model)
        assert all(len(line.split("\t")) == 2 for line in text.splitlines() if "\t" in line)


def saved_lines(tmp_path, sentences, order):
    vocab, pc = make_corpus(sentences, order)
    model = kn.train_model(pc.sentences, order, vocab.size)
    path = tmp_path / "m.arpa"
    kn.save_model(model, path)
    return model, path, path.read_text().splitlines()


def middle_of_section(lines, k, fields=None):
    """0-based index of an entry line halfway through section k, optionally
    one with the given number of tab-separated fields."""
    start = lines.index(f"\\{k}-grams:") + 1
    end = start
    while end < len(lines) and not lines[end].startswith("\\"):
        end += 1
    rows = [
        i for i in range(start, end)
        if fields is None or len(lines[i].split("\t")) == fields
    ]
    return rows[len(rows) // 2]


TRIGRAM_CORPUS = [
    ["the", "cat", "sat", "on", "the", "mat"],
    ["the", "dog", "sat", "on", "the", "log"],
    ["a", "cat", "and", "a", "dog"],
    ["to", "be", "or", "not", "to", "be"],
]


def set_field(line, j, value):
    fields = line.split("\t")
    fields[j] = value
    return "\t".join(fields)


class TestMalformedEntries:
    """One bad entry in the middle of a section: the error names its line
    and the same message the line-by-line reader gives."""

    @pytest.mark.parametrize(
        "section, fields, edit, message",
        [
            (2, 3, lambda l: set_field(l, 1, "1 x"), "bad id list '1 x'"),
            (3, None, lambda l: set_field(l, 1, "1 2"), "id list length != section order 3"),
            (2, None, lambda l: set_field(l, 1, "1 999"), "word id out of range"),
            (3, None, lambda l: set_field(l, 0, "-0.5x"), "bad probability '-0.5x'"),
            (1, None, lambda l: set_field(l, 0, "na"), "unigram entries need a probability"),
            (3, None, lambda l: l + "\t-0.25", "top-order entries cannot carry a bow"),
            (2, 3, lambda l: set_field(l, 2, "bow"), "bad back-off weight 'bow'"),
        ],
        ids=["id-list", "id-count", "id-range", "probability", "na-unigram",
             "top-order-bow", "back-off"],
    )
    def test_error_names_line_and_message(self, tmp_path, section, fields, edit, message):
        _, path, lines = saved_lines(tmp_path, TRIGRAM_CORPUS, 3)
        i = middle_of_section(lines, section, fields)
        lines[i] = edit(lines[i])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(kn.KnParseError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}:{i + 1}: {message}"
        assert err.value.line == i + 1

    def test_long_and_short_id_lists_do_not_cancel(self, tmp_path):
        _, path, lines = saved_lines(tmp_path, TRIGRAM_CORPUS, 3)
        i = middle_of_section(lines, 3)
        lines[i] = set_field(lines[i], 1, lines[i].split("\t")[1] + " 1")
        lines[i + 1] = set_field(lines[i + 1], 1, "1 2")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(kn.KnParseError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}:{i + 1}: id list length != section order 3"

    def test_duplicate_entry_keeps_last_value(self, tmp_path):
        model, path, lines = saved_lines(tmp_path, TRIGRAM_CORPUS, 3)
        i = middle_of_section(lines, 3)
        lines.insert(i + 2, set_field(lines[i], 0, "-0.125"))
        count = f"ngram 3={len(model.probs[3])}"
        lines[lines.index(count)] = f"ngram 3={len(model.probs[3]) + 1}"
        path.write_text("\n".join(lines) + "\n")
        loaded = kn.load_model(path)
        *ctx, w = (int(t) for t in lines[i].split("\t")[1].split())
        assert loaded.log10_prob(ctx, w) == -0.125
        assert len(loaded.probs[3]) == len(model.probs[3])


class TestBulkFloats:
    """The block reader's float column takes and refuses exactly what
    ``float()`` does, with the same bits."""

    EDGE = [
        "nan", "-nan", "NaN", "inf", "-Infinity", "1_0", "1__0", "_1", " 1.5", "1.5\t",
        "0x10", "na", "1e", "1e5", "5e-324", "2e-324", "1e309", "-0.0", "+1", "1.",
        ".5", "", "\uff11", "1,5",
    ]

    @staticmethod
    def as_float(text):
        try:
            return float(text)
        except ValueError:
            return None

    @pytest.mark.parametrize("text", EDGE)
    def test_edge_strings_parse_like_float(self, text):
        got = kn._bulk_floats(np.array([text], dtype=object))
        want = self.as_float(text)
        if want is None:
            assert got is None
        else:
            assert got.dtype == np.float64 and got.tobytes() == np.float64(want).tobytes()

    def test_one_bad_field_refuses_the_block(self):
        assert kn._bulk_floats(np.array(["-0.5", "-0.5x", "-1"], dtype=object)) is None

    def test_reprs_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([
            -rng.exponential(3.0, size=2000),
            rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, size=2000),
        ])
        fields = np.array([repr(float(v)) for v in values], dtype=object)
        assert kn._bulk_floats(fields).tobytes() == values.tobytes()


def read_entries(path):
    """(probs, bows) dicts of a saved model, keyed by id tuple."""
    probs, bows = {}, {}
    for line in path.read_text().splitlines():
        fields = line.split("\t")
        if len(fields) < 2:
            continue
        gram = tuple(int(t) for t in fields[1].split())
        if fields[0] != "na":
            probs[gram] = float(fields[0])
        if len(fields) == 3:
            bows[gram] = float(fields[2])
    return probs, bows


def scalar_log10(entries, context, target):
    """Back-off walk over a saved model's entries, one token at a time."""
    probs, bows = entries
    acc = 0.0
    for k in range(len(context), 0, -1):
        sub = tuple(context[len(context) - k :])
        if sub + (target,) in probs:
            return acc + probs[sub + (target,)]
        acc += bows.get(sub, 0.0)
    return acc + probs[(target,)]


class TestBatchedQueries:
    def test_batch_matches_rows_and_scalar_walk(self, tmp_path):
        model, path, _ = saved_lines(tmp_path, TRIGRAM_CORPUS, 4)
        V = model.vocab_size
        _, pc = make_corpus(TRIGRAM_CORPUS, 4)
        rng = np.random.default_rng(3)
        windows = [s[i : i + 4] for s in pc.sentences for i in range(len(s) - 3)]
        rows = [(w[:3], w[3]) for w in windows]  # top-order hits
        start = (tp.START_ID,) * 3
        assert start in model.bows[3] and start not in model.probs[3]  # an "na" entry
        rows += [(start, w) for w in range(V)]
        rows += [(tuple(rng.integers(0, V, size=3)), int(rng.integers(0, V))) for _ in range(300)]
        contexts = np.array([c for c, _ in rows], dtype=np.int64)
        targets = np.array([t for _, t in rows], dtype=np.int64)
        batch = model.log_probs(contexts, targets)
        entries = read_entries(path)
        for width in (3, 2, 1, 0):  # full, short, and empty contexts
            ctx = contexts[:, 3 - width :]
            got = model.log_probs(ctx, targets) if width < 3 else batch
            for i in range(len(rows)):
                row = tuple(int(c) for c in ctx[i])
                assert got[i] == model.log_prob(row, int(targets[i]))
                assert got[i] == scalar_log10(entries, row, int(targets[i])) * math.log(10.0)

    def test_batch_rejects_out_of_range_ids(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        contexts = np.zeros((3, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            model.log_probs(contexts, np.array([0, vocab.size, 1]))
        contexts[1, 0] = -1
        with pytest.raises(ValueError, match="out of range"):
            model.log_probs(contexts, np.array([0, 1, 1]))


class TestWideKeys:
    """V**order beyond int64: keys fall back to exact Python ints."""

    def test_order5_large_vocab_matches_reference_and_roundtrips(self, tmp_path):
        sentences = [["to", "be", "or", "not", "to", "be"], ["be", "not", "to", "see"]]
        vocab, pc = make_corpus(sentences, 5)
        V = 7000  # 7000**5 > 2**63
        model = kn.train_model(pc.sentences, 5, V)
        assert model.probs[5].keys.dtype == object
        ref = ReferenceKn(pc.sentences, 5, V)
        rng = np.random.default_rng(11)
        contexts = [s[i : i + 4] for s in pc.sentences for i in range(len(s) - 4)]
        contexts += [tuple(int(x) for x in rng.integers(0, V, size=4)) for _ in range(5)]
        targets = list(range(vocab.size)) + [V - 1]
        for ctx in contexts:
            for w in targets:
                got = math.exp(model.log_prob(ctx, w))
                assert got == pytest.approx(float(ref.prob(ctx, w)), abs=1e-12)

        path = tmp_path / "m.arpa"
        kn.save_model(model, path)
        loaded = kn.load_model(path)
        kn.save_model(loaded, tmp_path / "again.arpa")
        assert (tmp_path / "again.arpa").read_bytes() == path.read_bytes()
        ctx = np.array([c for c in contexts for _ in targets], dtype=np.int64)
        tgt = np.array(targets * len(contexts), dtype=np.int64)
        assert loaded.log_probs(ctx, tgt).tobytes() == model.log_probs(ctx, tgt).tobytes()
