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

import numpy as np
import pytest
from kn_reference import ReferenceKn, brute_continuation, brute_counts, decode_keys, read_saved, write_saved

from authorlm import kn
from authorlm import textproc as tp


def make_corpus(token_sentences, order):
    vocab = tp.build_vocabulary(token_sentences)
    processed = tp.encode(token_sentences, vocab, order=order)
    return vocab, processed


def abab(order=2):
    return make_corpus([["a", "b", "a", "b"]], order)


def model_grams(model):
    """Every table's id tuples, in row order, decoded from its keys."""
    keys = {f"probs{k}": t.keys for k, t in model.probs.items()}
    keys.update({f"bows{k}": t.keys for k, t in model.bows.items()})
    return decode_keys(model.vocab_size, keys)


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
        # V=7000 at order 5: 7000**5 > 2**63, and rank keys are still int64
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
            assert table.keys.dtype == np.int64
            assert (table.keys[1:] > table.keys[:-1]).all()
        grams = model_grams(model)
        for k in range(2, order + 1):
            assert sorted(grams[f"probs{k}"]) == [tuple(g) for g in tables.discounted(k)[0].tolist()]
            assert sorted(grams[f"bows{k - 1}"]) == sorted({g[:-1] for g in grams[f"probs{k}"]})

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

    @pytest.mark.parametrize("sentence, V, bad", [((0, 0, 0, 5, -2, 1), 10, -2), ((0, 0, 0, 5, 4, 1), 4, 5)],
                             ids=["negative", "not-below-V"])
    def test_training_refuses_id_outside_vocabulary(self, sentence, V, bad):
        tables = kn.count([sentence] * 3, 4)
        for train in (lambda: kn.build_model(tables, V), lambda: kn.train_model([sentence] * 3, 4, V)):
            with pytest.raises(ValueError) as err:
                train()
            assert str(err.value) == f"id {bad} outside the vocabulary of {V}"


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
        kn.save_model(kn.train_model(pc.sentences, 2, vocab.size), tmp_path / "m.kn")
        header = (tmp_path / "m.kn").read_bytes().split(b"\n", 1)[0]
        assert b'"discounts": [0.5, 0.6]' in header


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

    def test_bows_are_math_log10_of_each_weight(self):
        # the weights repeat and are converted once per distinct value; the
        # bits are those of math.log10 called on every weight
        order, V = 4, 9
        tables = kn.count(random_id_sentences(order, V, seed=7, n=80), order)
        model = kn.build_model(tables, V)
        grams = model_grams(model)
        for k in range(2, order + 1):
            rows, counts = tables.discounted(k)
            _, starts = np.unique(rows[:, :-1], axis=0, return_index=True)  # one run per context
            distinct = np.diff(np.append(starts, len(rows)))
            lam = model.discounts[k - 1] * distinct / np.add.reduceat(counts, starts)
            assert len(np.unique(lam)) < len(lam)
            want = dict(zip(map(tuple, rows[starts, :-1].tolist()), (math.log10(x) for x in lam.tolist())))
            want = np.array([want[gram] for gram in grams[f"bows{k - 1}"]])
            assert model.bows[k - 1].values.tobytes() == want.tobytes()

    def test_long_context_truncates(self):
        vocab, pc = abab()
        model = kn.train_model(pc.sentences, 2, vocab.size)
        a, b = vocab.index_of("a"), vocab.index_of("b")
        assert model.log_prob([b, b, b, a], b) == model.log_prob([a], b)


class TestSerialization:
    def roundtrip(self, tmp_path, sentences, order):
        vocab, pc = make_corpus(sentences, order)
        model = kn.train_model(pc.sentences, order, vocab.size)
        path = tmp_path / "m.kn"
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
        # probability entry; the back-off table keeps them
        sentences = [["x", "y"], ["x", "z"]]
        vocab, model, loaded = self.roundtrip(tmp_path, sentences, 3)
        ctx = (tp.START_ID, tp.START_ID)
        for grams in (model_grams(model), model_grams(loaded)):
            assert ctx in grams["bows2"] and ctx not in grams["probs2"]
        for w in range(vocab.size):
            assert model.log_prob(ctx, w) == loaded.log_prob(ctx, w)

    def test_truncated_file_names_line(self, tmp_path):
        # a file cut inside any array names that array
        _, path, data = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        _, arrays = read_saved(path)
        end = len(data) - sum(a.nbytes for a in arrays.values())
        for name, a in arrays.items():
            end += a.nbytes
            if a.nbytes:
                path.write_bytes(data[: end - a.nbytes // 2])
                assert refusal(path) == f"{path}: truncated tensor {name!r}"

    def test_bad_count_header(self, tmp_path):
        # the header states one more bigram than the file holds, so the
        # file ends before the last array does
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        for entry in header["arrays"]:
            if entry[0].startswith("probs2"):
                entry[1][0] += 1
        write_saved(path, header, arrays)
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: truncated tensor 'bows2'"

    def test_bad_probability_field(self, tmp_path):
        path = tmp_path / "m.kn"
        write_saved(path, unigram_header(2), {"unigram": np.array([-0.3, 0.3])})
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: unigram: row 1: log10 probability 0.3 must be finite and <= 0"

    def test_handwritten_unigram_file(self, tmp_path):
        path = tmp_path / "hand.kn"
        unigram = np.array([math.log10(0.25), math.log10(0.75)])
        write_saved(path, unigram_header(2), {"unigram": unigram})
        model = kn.load_model(path)
        assert math.exp(model.log_prob([], 0)) == pytest.approx(0.25, abs=1e-12)
        assert math.exp(model.log_prob([], 1)) == pytest.approx(0.75, abs=1e-12)

    def test_missing_unigram_entry(self, tmp_path):
        path = tmp_path / "hand.kn"
        header = {**unigram_header(3), "arrays": [["unigram", [2]]]}
        write_saved(path, header, {"unigram": np.array([-0.5, -0.5])})
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: arrays do not match order 1 and vocabulary size 3"


def unigram_header(V):
    """The header of an order-1 model over V ids."""
    return {"format": "authorlm-kn", "version": 3, "order": 1, "vocab": V,
            "discounts": [0.5], "arrays": [["unigram", [V]]]}


class TestSaveModelBytes:
    """``save_model``'s bytes depend only on the model: saving the model it
    loads writes them again, and every value loads back bit for bit."""

    def assert_same_bytes(self, tmp_path, model):
        kn.save_model(model, tmp_path / "m.kn")
        loaded = kn.load_model(tmp_path / "m.kn")
        kn.save_model(loaded, tmp_path / "again.kn")
        assert (tmp_path / "again.kn").read_bytes() == (tmp_path / "m.kn").read_bytes()
        assert loaded.discounts == model.discounts
        assert loaded.unigram_log10.tobytes() == model.unigram_log10.tobytes()
        for tables, back in ((model.probs, loaded.probs), (model.bows, loaded.bows)):
            assert tables.keys() == back.keys()
            for k, table in tables.items():
                assert back[k].keys.dtype == table.keys.dtype
                assert back[k].keys.tolist() == table.keys.tolist()
                assert back[k].values.tobytes() == table.values.tobytes()
        return read_saved(tmp_path / "m.kn")

    @pytest.mark.parametrize(
        "order, V",
        [(1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (5, 7000)],
        ids=["order1", "order2", "order3", "order4", "order5", "order5-V7000"],
    )
    def test_random_models(self, tmp_path, order, V):
        model = kn.train_model(random_id_sentences(order, V, seed=order), order, V)
        if order > 1:
            assert model.probs[order].keys.dtype == np.int64
        header, arrays = self.assert_same_bytes(tmp_path, model)
        names = ["unigram"] + [f"probs{k}{part}" for k in range(2, order + 1) for part in (".keys", "")]
        names += [f"bows{k}{part}" for k in range(1, order) for part in (".keys", "")]
        assert [name for name, _ in header["arrays"]] == names
        assert {key: header[key] for key in ("format", "version", "order", "vocab")} == {
            "format": "authorlm-kn", "version": 3, "order": order, "vocab": V
        }

    def test_na_entries(self, tmp_path):
        # contexts that only carry a back-off weight are rows of the back-off
        # table and of no probability table
        vocab, pc = make_corpus([["x", "y"], ["x", "z"]], 3)
        model = kn.train_model(pc.sentences, 3, vocab.size)
        _, arrays = self.assert_same_bytes(tmp_path, model)
        start = (tp.START_ID, tp.START_ID)
        grams = decode_keys(vocab.size, {name: arrays[f"{name}.keys"] for name in ("probs2", "bows2")})
        assert start in grams["bows2"] and start not in grams["probs2"]

    def test_empty_tables(self, tmp_path):
        header, arrays = self.assert_same_bytes(tmp_path, kn.train_model([], 3, 5))
        assert header["arrays"] == [
            ["unigram", [5]],
            ["probs2.keys", [0]], ["probs2", [0]], ["probs3.keys", [0]], ["probs3", [0]],
            ["bows1.keys", [0]], ["bows1", [0]], ["bows2.keys", [0]], ["bows2", [0]],
        ]

    @pytest.mark.parametrize(
        "order, pool",
        [
            (4, [-0.5, -1.25, -2.0]),
            (3, [0.0, -0.0]),
            (3, [-0.75]),
            (1, [-0.75]),  # the unigrams are the only table
        ],
        ids=["repeated", "signed-zeros", "one-value", "one-value-order1"],
    )
    def test_repeated_values(self, tmp_path, order, pool):
        # each table's values are draws from a small pool; they load back
        # bit for bit, signed zeros included
        V = 9
        model = kn.train_model(random_id_sentences(order, V, seed=order), order, V)
        rng = np.random.default_rng(order)

        def draw(table):
            return kn._Table(table.keys, rng.choice(pool, size=len(table)))

        model = dataclasses.replace(
            model,
            unigram_log10=rng.choice(pool, size=V),
            probs={k: draw(t) for k, t in model.probs.items()},
            bows={k: draw(t) for k, t in model.bows.items()},
        )
        _, arrays = self.assert_same_bytes(tmp_path, model)
        values = np.concatenate([a for name, a in arrays.items() if not name.endswith(".keys")])
        assert set(values.view(np.int64).tolist()) == set(np.array(pool).view(np.int64).tolist())

    def test_empty_bow_tables(self, tmp_path):
        model = kn.train_model(random_id_sentences(3, 9, seed=5), 3, 9)
        empty = {k: kn._Table(table.keys[:0], table.values[:0]) for k, table in model.bows.items()}
        model = dataclasses.replace(model, bows=empty)
        header, _ = self.assert_same_bytes(tmp_path, model)
        assert [shape for name, shape in header["arrays"] if name.startswith("bows")] == [[0]] * 4


def saved_model(tmp_path, sentences, order):
    vocab, pc = make_corpus(sentences, order)
    model = kn.train_model(pc.sentences, order, vocab.size)
    path = tmp_path / "m.kn"
    kn.save_model(model, path)
    return model, path, path.read_bytes()


TRIGRAM_CORPUS = [
    ["the", "cat", "sat", "on", "the", "mat"],
    ["the", "dog", "sat", "on", "the", "log"],
    ["a", "cat", "and", "a", "dog"],
    ["to", "be", "or", "not", "to", "be"],
]


def edit_arrays(edit):
    """A corruption that rewrites the header and arrays with ``edit``; it
    returns what ``edit`` returns, the row the refusal names."""
    def corrupt(path):
        header, arrays = read_saved(path)
        row = edit(header, arrays)
        write_saved(path, header, arrays)
        return row
    return corrupt


def edit_bytes(edit):
    """A corruption that rewrites the file's bytes with ``edit``."""
    def corrupt(path):
        path.write_bytes(edit(path.read_bytes()))
    return corrupt


def set_value(name, value):
    def edit(header, arrays):
        row = len(arrays[name]) // 2
        arrays[name][row] = value
        return row
    return edit_arrays(edit)


def set_last_key(name, rank, first=0):
    """Make the last key of a table name the suffix rank ``rank``; it stays
    above the key before it when ``rank`` is not below the last rank."""
    def edit(header, arrays):
        keys = arrays[f"{name}.keys"]
        keys[-1] = rank * header["vocab"] + first
        return len(keys) - 1
    return edit_arrays(edit)


def set_header(**fields):
    return edit_arrays(lambda header, arrays: header.update(fields))


def relist(header, arrays):
    """Make the header list the arrays' own names and shapes."""
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]


@edit_arrays
def swap_rows(header, arrays):
    keys = arrays["probs3.keys"]
    i = len(keys) // 2
    keys[[i, i + 1]] = keys[[i + 1, i]]
    return i + 1


@edit_arrays
def keys_as_column(header, arrays):
    arrays["probs3.keys"] = arrays["probs3.keys"].reshape(-1, 1)
    relist(header, arrays)


@edit_arrays
def add_top_order_bows(header, arrays):
    arrays["bows3.keys"], arrays["bows3"] = arrays["probs3.keys"], arrays["probs3"]
    relist(header, arrays)


@edit_arrays
def drop_last_table(header, arrays):
    del arrays["bows2.keys"], arrays["bows2"]
    relist(header, arrays)


class TestCorruptFile:
    """A file that is not a whole model container is a ValueError naming
    the file."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (edit_bytes(lambda data: b"not a model\n" + data), "no authorlm-kn header"),
            (edit_bytes(lambda data: b"[1, 2]\n" + data.split(b"\n", 1)[1]), "no authorlm-kn header"),
            (set_header(format="authorlm-nnlm"), "unexpected format 'authorlm-nnlm'"),
            (set_header(version=1), "unsupported version 1"),
            (set_header(version=2), "unsupported version 2"),
            (set_header(vocab=True), "bad order 3 or vocabulary size True"),
            (drop_last_table, "arrays do not match order 3 and vocabulary size 16"),
            (edit_bytes(lambda data: data[:-4]), "truncated tensor 'bows2'"),
            (edit_bytes(lambda data: data + b"\0"), "unexpected bytes after tensor 'bows2'"),
        ],
        ids=["not-json", "not-an-object", "format", "version", "version-2", "vocab", "array-list",
             "truncated", "trailing-bytes"],
    )
    def test_refused_naming_the_file(self, tmp_path, corrupt, message):
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        assert read_saved(path)[0]["vocab"] == 16
        corrupt(path)
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: {message}"


def refusal(path):
    with pytest.raises(ValueError) as err:
        kn.load_model(path)
    return str(err.value)


class TestMalformedEntries:
    """One bad entry in the middle of a table: the error names the file,
    the table and the entry's row, and what is wrong with it.  Keys that
    are not one int64 per row change the array list instead, and the
    error says so."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (swap_rows, "probs3: row {row} does not rise above the row before it"),
            (keys_as_column, "arrays do not match order 3 and vocabulary size 16"),
            (set_last_key("probs2", 999), "probs2: row {row}: suffix rank 999 is not in [0, 16)"),
            (set_value("probs3", 5e-324),
             "probs3: row {row}: log10 probability 5e-324 must be finite and <= 0"),
            (set_value("unigram", np.nan),
             "unigram: row {row}: log10 probability nan must be finite and <= 0"),
            (add_top_order_bows, "arrays do not match order 3 and vocabulary size 16"),
            (set_value("bows2", -np.inf), "bows2: row {row}: back-off weight -inf must be finite"),
            # values no trained model holds
            (set_value("probs3", np.nan),
             "probs3: row {row}: log10 probability nan must be finite and <= 0"),
            (set_value("unigram", np.inf),
             "unigram: row {row}: log10 probability inf must be finite and <= 0"),
            (set_value("probs2", -np.inf),
             "probs2: row {row}: log10 probability -inf must be finite and <= 0"),
            (set_value("probs2", 5.0),
             "probs2: row {row}: log10 probability 5.0 must be finite and <= 0"),
            (set_value("bows2", np.inf), "bows2: row {row}: back-off weight inf must be finite"),
            (set_value("bows1", np.nan), "bows1: row {row}: back-off weight nan must be finite"),
        ],
        ids=["id-list", "id-count", "id-range", "probability", "na-unigram",
             "top-order-bow", "back-off", "nan-probability", "inf-probability",
             "minus-inf-probability", "positive-probability", "inf-back-off", "nan-back-off"],
    )
    def test_error_names_line_and_message(self, tmp_path, corrupt, message):
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        assert read_saved(path)[0]["vocab"] == 16
        row = corrupt(path)
        assert refusal(path) == f"{path}: " + message.format(row=row)

    @pytest.mark.parametrize("name", ["probs3", "probs2", "bows2", "bows1"])
    def test_suffix_rank_past_the_table_below(self, tmp_path, name):
        # the last key names the first row past the table one order down:
        # probs2 for a trigram, the V ids for a bigram, the one empty
        # suffix for a one-id context
        model, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        rows = {"probs3": len(model.probs[2]), "probs2": 16, "bows2": 16, "bows1": 1}[name]
        row = set_last_key(name, rows)(path)
        assert refusal(path) == f"{path}: {name}: row {row}: suffix rank {rows} is not in [0, {rows})"
        set_last_key(name, rows - 1, first=15)(path)  # the largest key that fits
        kn.load_model(path)

    def test_long_and_short_id_lists_do_not_cancel(self, tmp_path):
        # three more keys and three fewer values in the same table: the
        # file still holds as many bytes as its header lists
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        size = sum(a.nbytes for a in arrays.values())
        arrays["probs3.keys"] = np.append(arrays["probs3.keys"], [10**6, 10**6 + 1, 10**6 + 2])
        arrays["probs3"] = arrays["probs3"][:-3]
        assert sum(a.nbytes for a in arrays.values()) == size
        relist(header, arrays)
        write_saved(path, header, arrays)
        assert refusal(path) == f"{path}: arrays do not match order 3 and vocabulary size 16"

    def test_malformed_copy_of_a_repeated_bow_names_its_line(self, tmp_path):
        # back-off weights repeat: a bad copy of a weight that other rows
        # hold is refused, naming its own row
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        weights = arrays["bows1"].tolist()
        common = max(set(weights), key=weights.count)
        rows = [i for i, x in enumerate(weights) if x == common]
        assert len(rows) >= 3
        i = rows[len(rows) // 2]
        arrays["bows1"][i] = np.nan
        write_saved(path, header, arrays)
        assert refusal(path) == f"{path}: bows1: row {i}: back-off weight nan must be finite"

    def test_duplicate_entry_names_its_line(self, tmp_path):
        # a copy of one key inserted after it, with a value of its own
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        i = len(arrays["probs3"]) // 2
        arrays["probs3.keys"] = np.insert(arrays["probs3.keys"], i + 1, arrays["probs3.keys"][i])
        arrays["probs3"] = np.insert(arrays["probs3"], i + 1, -0.125)
        relist(header, arrays)
        write_saved(path, header, arrays)
        assert refusal(path) == f"{path}: probs3: row {i + 1} does not rise above the row before it"


class TestExactLayout:
    """A file that differs from the layout ``save_model`` writes is refused,
    naming the file."""

    def refused(self, path, header, arrays):
        write_saved(path, header, arrays)
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        return str(err.value)

    def test_swapped_entries(self, tmp_path):
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        keys = arrays["probs2.keys"]
        i = len(keys) // 2
        keys[[i, i + 1]] = keys[[i + 1, i]]
        assert self.refused(path, header, arrays) == (
            f"{path}: probs2: row {i + 1} does not rise above the row before it"
        )

    def test_too_few_discounts(self, tmp_path):
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        header["discounts"] = [0.5]
        assert self.refused(path, header, arrays) == f"{path}: expected 3 discounts, got [0.5]"

    def test_section_after_end(self, tmp_path):
        # a table's bytes once more after the last array
        _, path, data = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        _, arrays = read_saved(path)
        path.write_bytes(data + arrays["probs2"].tobytes())
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: unexpected bytes after tensor 'bows2'"

    def test_count_line_moved_to_its_section(self, tmp_path):
        # the array list in another order than the tables are written in
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        listed = header["arrays"]
        header["arrays"] = listed[:1] + listed[3:5] + listed[1:3] + listed[5:]
        assert self.refused(path, header, arrays) == (
            f"{path}: arrays do not match order 3 and vocabulary size 16"
        )

    def test_signed_id(self, tmp_path):
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        arrays["bows1.keys"][0] = -1
        assert self.refused(path, header, arrays) == f"{path}: bows1: row 0: suffix rank -1 is not in [0, 1)"

    def test_last_line_without_newline(self, tmp_path):
        # the header line alone, cut before its newline
        _, path, data = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        path.write_bytes(data.split(b"\n", 1)[0])
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: truncated tensor 'unigram'"

    def test_crlf(self, tmp_path):
        # every 0x0a byte of the arrays becomes two bytes
        _, path, data = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        assert b"\n" in data.split(b"\n", 1)[1]
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        with pytest.raises(ValueError) as err:
            kn.load_model(path)
        assert str(err.value) == f"{path}: unexpected bytes after tensor 'bows2'"


class TestBulkFloats:
    """Each table's values are stored and read as one block of raw float64
    bytes."""

    def test_reprs_round_trip_bit_for_bit(self, tmp_path):
        # random bit patterns, signed zeros, subnormals and the extremes
        # load back with the same bits
        V = 9
        model = kn.train_model(random_id_sentences(3, V, seed=3), 3, V)
        rng = np.random.default_rng(17)
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])

        def draw(n, probabilities):
            x = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64).view(np.float64)
            x = np.where(np.isfinite(x), x, -1.5)
            x[: len(edges)] = edges[:n]
            return np.where(x > 0, -x, x) if probabilities else x

        def redraw(tables, probabilities):
            return {k: kn._Table(t.keys, draw(len(t), probabilities)) for k, t in tables.items()}

        model = dataclasses.replace(
            model,
            unigram_log10=draw(V, True),
            probs=redraw(model.probs, True),
            bows=redraw(model.bows, False),
        )
        kn.save_model(model, tmp_path / "m.kn")
        loaded = kn.load_model(tmp_path / "m.kn")
        assert loaded.unigram_log10.view(np.int64).tolist() == model.unigram_log10.view(np.int64).tolist()
        for tables, back in ((model.probs, loaded.probs), (model.bows, loaded.bows)):
            for k, table in tables.items():
                assert back[k].values.view(np.int64).tolist() == table.values.view(np.int64).tolist()

    def test_one_bad_field_refuses_the_block(self, tmp_path):
        # one NaN as the last value of any table refuses the whole model
        _, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 3)
        header, arrays = read_saved(path)
        for name, values in arrays.items():
            if name.endswith(".keys"):
                continue
            write_saved(path, header, {**arrays, name: np.append(values[:-1], np.nan)})
            what = ("back-off weight nan must be finite" if name.startswith("bows")
                    else "log10 probability nan must be finite and <= 0")
            assert refusal(path) == f"{path}: {name}: row {len(values) - 1}: {what}"


def read_entries(path):
    """(probs, bows) dicts of a saved model, keyed by id tuple."""
    header, arrays = read_saved(path)
    probs = {(i,): x for i, x in enumerate(arrays["unigram"].tolist())}
    bows = {}
    grams = decode_keys(header["vocab"], {name[:-5]: a for name, a in arrays.items() if name.endswith(".keys")})
    for name, rows in grams.items():
        (bows if name.startswith("bows") else probs).update(zip(rows, arrays[name].tolist()))
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
        model, path, _ = saved_model(tmp_path, TRIGRAM_CORPUS, 4)
        V = model.vocab_size
        _, pc = make_corpus(TRIGRAM_CORPUS, 4)
        rng = np.random.default_rng(3)
        windows = [s[i : i + 4] for s in pc.sentences for i in range(len(s) - 3)]
        rows = [(w[:3], w[3]) for w in windows]  # top-order hits
        start = (tp.START_ID,) * 3
        grams = model_grams(model)
        assert start in grams["bows3"] and start not in grams["probs3"]  # a back-off-only context
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


def unsorted_find(table, query):
    """``_lookup`` as one binary search per query key, in query order."""
    hit = np.zeros(len(query), dtype=bool)
    rows = []
    for i, key in enumerate(query.tolist()):
        pos = int(np.searchsorted(table.keys, key))
        if pos < len(table.keys) and table.keys[pos] == key:
            hit[i] = True
            rows.append(pos)
    return hit, np.array(rows, dtype=np.int64)


class TestSortedFind:
    """Searching a query's sorted distinct keys gives each key's own result."""

    def test_matches_one_search_per_key(self):
        rng = np.random.default_rng(26)
        big = 2**40
        keys = np.unique(rng.integers(0, 10**6, size=500)) * (big // 10**6)
        tables = kn._Table(keys, rng.normal(size=len(keys))), kn._Table(keys[::3], rng.normal(size=len(keys[::3])))
        picks = keys[rng.integers(0, len(keys), size=300)]  # hits, many repeated
        misses = np.arange(200) * (big // 200) + 1
        edges = np.array([0, keys[0], keys[-1], keys[-1] + 1, big * 2])
        for query in (
            np.concatenate([picks, misses, edges])[rng.permutation(505)],
            np.concatenate([picks, picks[::-1]]),  # duplicates only
            misses,
            keys[:0],  # an empty query
        ):
            for table, (hit, rows) in zip(tables, kn._lookup(query, *tables)):
                want_hit, want_rows = unsorted_find(table, query)
                assert hit.dtype == bool and np.array_equal(hit, want_hit)
                assert rows.tolist() == want_rows.tolist()
        assert kn._lookup(keys, tables[0])[0][0].all()

    def test_empty_table_finds_nothing(self):
        table = kn._Table(np.array([], dtype=np.int64), np.array([]))
        [(hit, rows)] = kn._lookup(np.array([0, 5, 5, 80]), table)
        assert hit.tolist() == [False] * 4 and len(rows) == 0


class TestWideKeys:
    """V**order beyond int64: rank keys stay int64."""

    def test_order5_large_vocab_matches_reference_and_roundtrips(self, tmp_path):
        sentences = [["to", "be", "or", "not", "to", "be"], ["be", "not", "to", "see"]]
        vocab, pc = make_corpus(sentences, 5)
        V = 7000  # 7000**5 > 2**63
        model = kn.train_model(pc.sentences, 5, V)
        assert model.probs[5].keys.dtype == np.int64
        ref = ReferenceKn(pc.sentences, 5, V)
        rng = np.random.default_rng(11)
        contexts = [s[i : i + 4] for s in pc.sentences for i in range(len(s) - 4)]
        contexts += [tuple(int(x) for x in rng.integers(0, V, size=4)) for _ in range(5)]
        targets = list(range(vocab.size)) + [V - 1]
        for ctx in contexts:
            for w in targets:
                got = math.exp(model.log_prob(ctx, w))
                assert got == pytest.approx(float(ref.prob(ctx, w)), abs=1e-12)

        path = tmp_path / "m.kn"
        kn.save_model(model, path)
        loaded = kn.load_model(path)
        kn.save_model(loaded, tmp_path / "again.kn")
        assert (tmp_path / "again.kn").read_bytes() == path.read_bytes()
        ctx = np.array([c for c in contexts for _ in targets], dtype=np.int64)
        tgt = np.array(targets * len(contexts), dtype=np.int64)
        assert loaded.log_probs(ctx, tgt).tobytes() == model.log_probs(ctx, tgt).tobytes()
