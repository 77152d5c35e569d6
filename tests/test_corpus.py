import json
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from metric_grouper import corpus as corpus_module
from metric_grouper.corpus import (
    AnnotatedCorpus,
    WordVectorTable,
    load_corpus,
    load_word_vectors,
    save_corpus,
)
from metric_grouper.errors import DimensionMismatchError, EmptyError, EmptyPhraseError, FormatError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadWordVectors:
    def test_smallest_well_formed_file(self, tmp_path):
        path = write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.0 1.0\n")
        table = load_word_vectors(path)
        assert table.dimension == 2
        assert len(table) == 2
        assert np.array_equal(table.get("a"), [1.0, 0.0])

    def test_absent_token_zero_policy(self, tmp_path):
        path = write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.0 1.0\n")
        table = load_word_vectors(path)
        assert table.get("zzz") is None
        assert np.array_equal(table.phrase_lookup("zzz"), [0.0, 0.0])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "v.txt", "\n\n")
        with pytest.raises(EmptyError):
            load_word_vectors(path)

    def test_duplicate_token_first_wins(self, tmp_path):
        path = write(tmp_path, "v.txt", "a 1.0 2.0\nA 3.0 4.0\n")
        table = load_word_vectors(path)
        assert len(table) == 1
        assert table.duplicate_count == 1
        assert np.array_equal(table.get("a"), [1.0, 2.0])

    def test_n_distinct_lines_give_n_entries(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40
        lines = [f"tok{i} " + " ".join(str(x) for x in rng.normal(size=3)) for i in range(n)]
        path = write(tmp_path, "v.txt", "\n".join(lines) + "\n")
        table = load_word_vectors(path)
        assert len(table) == n

    def test_error_collection_mode(self, tmp_path):
        path = write(tmp_path, "v.txt", "a 1.0 0.0\nb 2.0\nc x y\nd 1 2\n")
        errors = []
        table = load_word_vectors(path, errors=errors)
        assert len(errors) == 2
        assert len(table) == 2

    def test_lookup_is_case_insensitive(self, tmp_path):
        path = write(tmp_path, "v.txt", "Apple 1.0 0.0\n")
        table = load_word_vectors(path)
        assert "APPLE" in table
        assert np.array_equal(table.get("apple"), [1.0, 0.0])

    @pytest.mark.parametrize("mode", ["raise", "errors"])
    @pytest.mark.parametrize("text, lineno, message, kept", [
        ("a\nb 1.0 2.0\n", 1, "entry has no vector components", ["b"]),
        ("a 1.0 0.0\nb\nc 0.0 1.0\n", 2, "inconsistent dimension: got 0, expected 2", ["a", "c"]),
        ("a 1.0 0.0\nb 2.0\nc 0.0 1.0\n", 2, "inconsistent dimension: got 1, expected 2", ["a", "c"]),
        ("a 1.0 0.0\n\nb 1.0 oops\n", 3, "non-numeric vector component", ["a"]),
        ("a 1.0 nan\nb 1 2\n", 1, "non-finite vector component", ["b"]),
        ("a 1 2\nb -inf 1e999\n", 2, "non-finite vector component", ["a"]),
    ], ids=["token-only-first", "token-only", "arity-change", "non-numeric", "nan", "inf"])
    def test_line_defect(self, tmp_path, mode, text, lineno, message, kept):
        path = write(tmp_path, "v.txt", text)
        if mode == "raise":
            with pytest.raises(FormatError) as info:
                load_word_vectors(path)
            assert str(info.value) == f"{path}: line {lineno}: {message}"
        else:
            errors = []
            table = load_word_vectors(path, errors=errors)
            assert errors == [f"line {lineno}: {message}"]
            assert list(table.vectors) == kept

    def test_finite_duplicate_after_non_finite_first_wins(self, tmp_path):
        path = write(tmp_path, "v.txt", "a nan 1\nb 0 1\nA 1 2\n")
        errors = []
        table = load_word_vectors(path, errors=errors)
        assert errors == ["line 1: non-finite vector component"]
        assert table.duplicate_count == 0
        assert list(table.vectors) == ["b", "a"]
        assert np.array_equal(table.get("a"), [1.0, 2.0])

    @pytest.mark.parametrize("mode", ["raise", "errors"])
    def test_python_float_syntax_outside_loadtxt(self, tmp_path, mode):
        # float() takes underscores and non-ASCII digits; np.loadtxt does not
        path = write(tmp_path, "v.txt", "a 1_000 \u0661\u0662\nb 0.5 2\n")
        errors = None if mode == "raise" else []
        table = load_word_vectors(path, errors=errors)
        assert errors in (None, [])
        assert table.get("a").tolist() == [1000.0, 12.0]
        assert table.get("b").tolist() == [0.5, 2.0]

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\r\n\n"])
    def test_empty_file_without_warning(self, tmp_path, text):
        path = write(tmp_path, "v.txt", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyError, match="no word vectors loaded"):
                load_word_vectors(path)
            errors = []
            assert load_word_vectors(path, errors=errors) is None
            assert errors == ["no word vectors loaded"]

    def test_table_is_one_read_only_matrix(self, tmp_path):
        path = write(tmp_path, "v.txt", "a 1 2\nB 3 4\nA 5 6\n")
        table = load_word_vectors(path)
        assert table.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not table.matrix.flags.writeable
        for vec in table.vectors.values():
            assert np.shares_memory(vec, table.matrix) and not vec.flags.writeable


class TestKeepMemory:
    def test_peak_is_a_fraction_of_the_whole_matrix(self, tmp_path):
        # tracemalloc sees numpy's buffers; a kept row that is a view of its chunk would
        # keep every chunk alive, and the peak would pass the whole matrix
        rows, dim = 20_000, 100
        row = " ".join(f"{x:.4f}" for x in np.random.default_rng(0).normal(size=dim))
        path = write(tmp_path, "v.txt", "".join(f"w{i} {row}\n" for i in range(rows)))
        keep = {f"w{i}" for i in range(0, rows, 64)}  # a few hundred, in every chunk
        tracemalloc.start()
        try:
            table = load_word_vectors(path, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(table), len(table.vectors)) == (rows, len(keep))
        assert peak < rows * dim * 8 / 3


def random_vector_text(rng):
    """A clean vector file mixing float syntaxes, separators, line endings and duplicates."""
    dim = int(rng.integers(1, 6))
    special = [5e-324, 2.5e-310, -0.0, 0.0, 1e300, -1e300, 1.7976931348623157e308]
    lines = []
    for _ in range(60):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", "   ", "\t", " \t "])))
        token = f"tok{int(rng.integers(25))}"
        if rng.random() < 0.4:
            token = token.upper() if rng.random() < 0.5 else token.capitalize()
        fields = [str(rng.choice(["", " ", "\t"])) + token]
        for _ in range(dim):
            if rng.random() < 0.2:
                x = special[int(rng.integers(len(special)))]
            else:
                x = float(rng.normal()) * 10.0 ** int(rng.integers(-40, 40))
            fields.append(repr(x) if rng.random() < 0.5 else "%.6f" % x)
        seps = rng.choice([" ", "  ", "\t", " \t  "], size=dim)
        line = fields[0] + "".join(str(sep) + field for sep, field in zip(seps, fields[1:]))
        lines.append(line + str(rng.choice(["", " ", "\t"])))
    return "".join(line + str(rng.choice(["\n", "\r\n"])) for line in lines)


class TestBulkParseReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_bulk_parse_equals_line_loop(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        text = random_vector_text(rng)
        path = write(tmp_path, "v.txt", text)
        want = corpus_module._load_line_by_line(path, None, None)
        # tok0..tok24 may occur, most more than once; tok25..tok29 never do
        keep = {str(rng.choice([f"tok{i}", f"TOK{i}"])) for i in rng.choice(30, 15, replace=False)}
        keep |= {"tok25"}
        rows = Counter(line.split()[0].lower() for line in text.splitlines() if line.split())
        assert any(rows[token.lower()] > 1 for token in keep)

        def no_fallback(*args):
            raise AssertionError("a clean file fell back to the line loop")

        monkeypatch.setattr(corpus_module, "_load_line_by_line", no_fallback)
        monkeypatch.setattr(corpus_module, "CHUNK_LINES", 1 + 7 * seed)  # chunks of 1 to 64 lines
        got = load_word_vectors(path)
        assert list(got.vectors) == list(want.vectors)
        assert got.duplicate_count == want.duplicate_count > 0
        assert got.dimension == want.dimension
        for token, vec in want.vectors.items():
            assert got.vectors[token].tobytes() == vec.tobytes()

        kept = load_word_vectors(path, keep=keep)
        wanted = {token.lower() for token in keep}
        assert list(kept.vectors) == [token for token in want.vectors if token in wanted]
        assert (len(kept), kept.duplicate_count, kept.dimension) == \
            (len(want), want.duplicate_count, want.dimension)
        for token, vec in kept.vectors.items():
            assert vec.tobytes() == want.vectors[token].tobytes()


class TestMappingConstructor:
    def test_ends_matrix_backed(self):
        a = np.array([1.0, 2.0])
        table = WordVectorTable(2, {"A": a, "b": [3, 4]})
        assert list(table.vectors) == ["a", "b"]
        assert table.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not table.matrix.flags.writeable
        for vec in table.vectors.values():
            assert np.shares_memory(vec, table.matrix) and not vec.flags.writeable
        assert a.flags.writeable  # the caller's array is copied, not frozen

    def test_empty_mapping(self):
        table = WordVectorTable(3, {})
        assert len(table) == 0 and table.matrix.shape == (0, 3)

    @pytest.mark.parametrize("vectors, error, message", [
        ({"a": [1, 2], "B": [1, 2, 3]}, DimensionMismatchError,
         "vector for 'B' has length (3,), expected 2"),
        ({"a": [1, 2], "b": [[1, 2]]}, DimensionMismatchError,
         "vector for 'b' has length (1, 2), expected 2"),
        ({"a": [1, 2], "b": [np.inf, 0]}, FormatError, "vector for 'b' has non-finite components"),
        ({"a": [1, 2], "A": [3, 4]}, ValueError, "duplicate token 'a'"),
        ({"a": [1, 2], "b": [1], "c": [np.nan, 0]}, DimensionMismatchError,
         "vector for 'b' has length (1,), expected 2"),
        ({"a": [np.nan, 0], "b": [1], "A": [0, 0]}, FormatError,
         "vector for 'a' has non-finite components"),
    ], ids=["length", "rank", "non-finite", "duplicate", "first-is-shape", "first-is-finite"])
    def test_first_defect_named(self, vectors, error, message):
        with pytest.raises(error) as info:
            WordVectorTable(2, vectors)
        assert type(info.value) is error and str(info.value) == message


class TestPhraseVector:
    def make_table(self):
        return WordVectorTable(
            2, {"picture": np.array([1.0, 0.0]), "quality": np.array([0.0, 1.0])})

    def test_single_token_is_identity(self):
        table = self.make_table()
        assert np.array_equal(table.phrase_lookup("picture"), [1.0, 0.0])

    def test_two_token_mean(self):
        table = self.make_table()
        assert np.array_equal(table.phrase_lookup("picture quality"), [0.5, 0.5])

    def test_all_unknown_zero_policy(self):
        table = self.make_table()
        assert np.array_equal(table.phrase_lookup("zzz qqq"), [0.0, 0.0])

    def test_empty_phrase(self):
        with pytest.raises(EmptyPhraseError):
            self.make_table().phrase_lookup("  ")

    def test_context_vectors_policies(self):
        cases = [  # tokens, rows: an unknown token gives a zero row, no tokens no rows
            (["Picture", "zzz", "quality"], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
            ([], np.zeros((0, 2))),
        ]
        table = self.make_table()
        for tokens, rows in cases:
            got_rows = table.lookup(tokens)
            assert got_rows.shape == np.shape(rows) and np.array_equal(got_rows, rows)


RECORD = {"tokens": ["the", "picture", "is", "clear"],
          "mentions": [{"phrase": "picture", "start": 1, "end": 2, "group": 0}]}


class TestLoadCorpus:
    def test_single_record(self, tmp_path):
        path = write(tmp_path, "c.jsonl", json.dumps(RECORD) + "\n")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.phrase_index == {"picture": [(0, (1, 2))]}

    def test_out_of_range_span(self, tmp_path):
        record = {"tokens": ["a", "b", "c", "d"],
                  "mentions": [{"phrase": "d", "start": 3, "end": 5}]}
        path = write(tmp_path, "c.jsonl", json.dumps(record) + "\n")
        with pytest.raises(FormatError, match="line 1.*span"):
            load_corpus(path)

    def test_index_aggregates_across_sentences(self, tmp_path):
        records = [
            {"tokens": ["good", "sound"], "mentions": [{"phrase": "sound", "start": 1, "end": 2}]},
            {"tokens": ["sound", "is", "rich"], "mentions": [{"phrase": "sound", "start": 0, "end": 1}]},
        ]
        path = write(tmp_path, "c.jsonl", "\n".join(json.dumps(r) for r in records))
        corpus = load_corpus(path)
        assert len(corpus.phrase_index["sound"]) == 2

    def test_phrase_must_match_span_tokens(self, tmp_path):
        record = {"tokens": ["the", "picture"],
                  "mentions": [{"phrase": "sound", "start": 1, "end": 2}]}
        path = write(tmp_path, "c.jsonl", json.dumps(record) + "\n")
        with pytest.raises(FormatError, match="does not match"):
            load_corpus(path)

    def test_duplicate_mention_rejected(self, tmp_path):
        record = {"tokens": ["picture"],
                  "mentions": [{"phrase": "picture", "start": 0, "end": 1},
                               {"phrase": "picture", "start": 0, "end": 1}]}
        path = write(tmp_path, "c.jsonl", json.dumps(record) + "\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_corpus(path)

    def test_tokens_lowercased(self, tmp_path):
        record = {"tokens": ["The", "Picture"],
                  "mentions": [{"phrase": "Picture", "start": 1, "end": 2}]}
        path = write(tmp_path, "c.jsonl", json.dumps(record) + "\n")
        corpus = load_corpus(path)
        assert corpus.sentences[0].tokens == ("the", "picture")
        assert "picture" in corpus.phrase_index

    def test_error_collection_mode(self, tmp_path):
        good = json.dumps(RECORD)
        bad = json.dumps({"tokens": ["a"], "mentions": [{"phrase": "a", "start": 0, "end": 2}]})
        path = write(tmp_path, "c.jsonl", good + "\n" + bad + "\nnot json\n")
        errors = []
        corpus = load_corpus(path, errors=errors)
        assert len(corpus) == 1
        assert len(errors) == 2

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_no_sentence_rejected(self, tmp_path, text):
        path = write(tmp_path, "c.jsonl", text)
        with pytest.raises(EmptyError, match="c.jsonl: no sentences loaded$"):
            load_corpus(path)
        errors = []
        assert len(load_corpus(path, errors=errors)) == 0
        assert errors == ["no sentences loaded"]

    def test_no_good_sentence_collects_both_problems(self, tmp_path):
        path = write(tmp_path, "c.jsonl", "not json\n")
        errors = []
        assert len(load_corpus(path, errors=errors)) == 0
        assert errors[1:] == ["no sentences loaded"] and errors[0].startswith("line 1: ")


def random_corpus(rng, n_sentences=20):
    vocab = [f"w{i}" for i in range(12)]
    sentences = []
    for _ in range(n_sentences):
        n = int(rng.integers(3, 8))
        tokens = [vocab[int(rng.integers(len(vocab)))] for _ in range(n)]
        start = int(rng.integers(n))
        width = int(rng.integers(1, min(3, n - start) + 1))
        phrase = " ".join(tokens[start:start + width])
        mention = {"phrase": phrase, "start": start, "end": start + width}
        if rng.random() < 0.5:
            mention["group"] = int(rng.integers(3))
        sentences.append({"tokens": tokens, "mentions": [mention]})
    return sentences


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_save_load_identical(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        records = random_corpus(rng)
        src = write(tmp_path, "src.jsonl", "\n".join(json.dumps(r) for r in records))
        corpus = load_corpus(src)
        out = tmp_path / "out.jsonl"
        save_corpus(corpus, str(out))
        reloaded = load_corpus(str(out))
        assert reloaded.sentences == corpus.sentences
        assert reloaded.phrase_index == corpus.phrase_index

    @pytest.mark.parametrize("seed", [5, 6])
    def test_phrase_index_is_inverse_of_mentions(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        records = random_corpus(rng)
        src = write(tmp_path, "src.jsonl", "\n".join(json.dumps(r) for r in records))
        corpus = load_corpus(src)
        rebuilt = AnnotatedCorpus(corpus.sentences)
        assert rebuilt.phrase_index == corpus.phrase_index
        total = sum(len(v) for v in corpus.phrase_index.values())
        assert total == corpus.mention_count()


class TestGoldGroups:
    def test_majority_with_tie_toward_smallest(self, tmp_path):
        records = [
            {"tokens": ["sound"], "mentions": [{"phrase": "sound", "start": 0, "end": 1, "group": 2}]},
            {"tokens": ["sound"], "mentions": [{"phrase": "sound", "start": 0, "end": 1, "group": 1}]},
            {"tokens": ["sound"], "mentions": [{"phrase": "sound", "start": 0, "end": 1, "group": 2}]},
            {"tokens": ["mic"], "mentions": [{"phrase": "mic", "start": 0, "end": 1, "group": 3}]},
            {"tokens": ["mic"], "mentions": [{"phrase": "mic", "start": 0, "end": 1, "group": 0}]},
            {"tokens": ["case"], "mentions": [{"phrase": "case", "start": 0, "end": 1}]},
        ]
        path = write(tmp_path, "c.jsonl", "\n".join(json.dumps(r) for r in records))
        corpus = load_corpus(path)
        gold = corpus.gold_groups()
        assert gold["sound"] == 2
        assert gold["mic"] == 0
        assert "case" not in gold
