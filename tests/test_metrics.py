import json
import random
from functools import lru_cache

import pytest

from gtr.embedding import EmbedderConfig
from gtr.errors import InvalidInput
from gtr.metrics import (
    GtrEvalItem,
    SUMMARY_COLUMNS,
    TextEvalReport,
    aggregate,
    lcs_length,
    load_items_jsonl,
    rouge_l,
    rouge_n,
    sas,
)

CONFIG = EmbedderConfig(dim=64)


def recursive_lcs(a, b):
    """Independent memoized-recursion oracle for LCS length."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


class TestRougeN:
    def test_identical_strings(self):
        score = rouge_n("the cat sat", "the cat sat", 1)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_unigram_precision_two_thirds(self):
        assert rouge_n("a b c", "a b d", 1).precision == pytest.approx(2 / 3)

    def test_no_bigram_overlap(self):
        score = rouge_n("a b c", "x y z", 2)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_clipping_counts_each_ngram_at_most_reference_times(self):
        # candidate repeats "a" three times; reference has it once
        assert rouge_n("a a a", "a b", 1).precision == pytest.approx(1 / 3)

    def test_empty_sides_score_zero(self):
        assert rouge_n("", "a", 1) == rouge_n("a", "", 1)
        assert rouge_n("", "a", 1).precision == 0.0

    def test_case_insensitive_tokens(self):
        assert rouge_n("The Cat", "the cat", 1).f1 == 1.0

    def test_invalid_n(self):
        with pytest.raises(InvalidInput):
            rouge_n("a", "a", 0)


class TestRougeL:
    def test_identical_strings(self):
        score = rouge_l("same text here", "same text here")
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_known_lcs(self):
        cand = "the cat sat on the mat"
        ref = "the cat lay on the mat"
        score = rouge_l(cand, ref)
        assert score.precision == pytest.approx(5 / 6)
        assert score.recall == pytest.approx(5 / 6)

    def test_empty_candidate(self):
        score = rouge_l("", "something")
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_duality_precision_recall(self):
        rng = random.Random(31)
        vocab = list("abcdefg")
        for _ in range(200):
            a = " ".join(rng.choices(vocab, k=rng.randint(0, 15)))
            b = " ".join(rng.choices(vocab, k=rng.randint(0, 15)))
            assert rouge_l(a, b).precision == rouge_l(b, a).recall

    def test_matches_recursive_oracle(self):
        rng = random.Random(37)
        vocab = list("abcd")
        for _ in range(200):
            a = rng.choices(vocab, k=rng.randint(0, 20))
            b = rng.choices(vocab, k=rng.randint(0, 20))
            assert lcs_length(a, b) == recursive_lcs(tuple(a), tuple(b))

    def test_bounds(self):
        rng = random.Random(43)
        vocab = list("xyz")
        for _ in range(100):
            a = " ".join(rng.choices(vocab, k=rng.randint(0, 10)))
            b = " ".join(rng.choices(vocab, k=rng.randint(0, 10)))
            score = rouge_l(a, b)
            for value in (score.precision, score.recall, score.f1):
                assert 0.0 <= value <= 1.0


class TestSas:
    def test_identical_strings(self):
        assert sas("hello world", "hello world", CONFIG) == 1.0

    def test_disjoint_bucket_strings(self):
        # "cat" and "dog" land in different hash buckets at dim 16
        assert sas("cat", "dog", EmbedderConfig(dim=16)) == 0.0

    def test_symmetry(self):
        rng = random.Random(51)
        words = ["red", "green", "blue", "cyan", "teal"]
        for _ in range(20):
            a = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            b = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            assert sas(a, b, CONFIG) == sas(b, a, CONFIG)


    @pytest.mark.parametrize("candidate, reference", [
        ("", "the answer"), ("the answer", ""), (" \n\t", "x"), ("", ""),
    ])
    def test_side_without_tokens_scores_zero(self, candidate, reference):
        assert sas(candidate, reference, CONFIG) == 0.0
        assert rouge_l(candidate, reference).f1 == 0.0

    @pytest.mark.parametrize("candidate, reference", [("a \ud800", "a"), ("a", "\udcff b")])
    def test_lone_surrogate_is_an_input_error(self, candidate, reference):
        with pytest.raises(InvalidInput, match="not valid Unicode"):
            sas(candidate, reference, CONFIG)


class TestAggregate:
    def _items(self, flags):
        return [
            GtrEvalItem(
                question=f"q{i}",
                reference="the answer",
                candidate="the answer",
                truthful=flag,
                response_time_ms=100.0 + i,
            )
            for i, flag in enumerate(flags)
        ]

    def test_all_truthful(self):
        report = aggregate(self._items([1] * 10), CONFIG)
        assert report.summary()["truthful_pct"] == 100.0

    def test_three_of_four_truthful(self):
        report = aggregate(self._items([1, 1, 1, 0]), CONFIG)
        assert report.summary()["truthful_pct"] == 75.0

    def test_summary_columns_exact(self):
        report = aggregate(self._items([1]), CONFIG)
        assert set(report.summary()) == set(SUMMARY_COLUMNS)

    def test_perfect_candidate_scores(self):
        report = aggregate(self._items([1]), CONFIG)
        summary = report.summary()
        assert summary["rouge1_p"] == 1.0
        assert summary["rougeL_p"] == 1.0
        assert summary["rougeL_f1"] == 1.0
        assert summary["sas"] == 1.0
        assert summary["tokens"] == 2.0  # "the answer"

    def test_empty_items_rejected(self):
        with pytest.raises(InvalidInput):
            aggregate([], CONFIG)

    @pytest.mark.parametrize("index, side", [(5, "candidate"), (290, "reference")])
    def test_lone_surrogate_is_named_by_item_and_side(self, index, side):
        """Item 290 is in the second slice of 256 items: the message counts
        from the start of the list, not of the slice's embedding batch."""
        items = self._items([1] * 300)
        setattr(items[index], side, "the \ud800 answer")
        with pytest.raises(InvalidInput, match=f"^item {index} {side}: not valid Unicode"):
            aggregate(items, CONFIG)

    def test_lone_surrogate_beside_a_side_without_tokens_scores_zero(self):
        items = self._items([1]) + [GtrEvalItem("q", "", "a \ud800", 1, 0.0)]
        assert [r.sas for r in aggregate(items, CONFIG).items] == [1.0, 0.0]

    def test_empty_report_refuses_to_summarize(self):
        report = TextEvalReport([])
        for summarize in (report.summary, report.format_summary):
            with pytest.raises(InvalidInput, match="empty TextEvalReport"):
                summarize()

    def test_truthful_must_be_binary(self):
        with pytest.raises(InvalidInput):
            GtrEvalItem("q", "r", "c", truthful=2, response_time_ms=1.0)

    def test_format_summary_has_header_and_row(self):
        text = aggregate(self._items([1, 0]), CONFIG).format_summary()
        lines = text.splitlines()
        assert len(lines) == 2
        for column in SUMMARY_COLUMNS:
            assert column in lines[0]

    def test_write_jsonl(self, tmp_path):
        report = aggregate(self._items([1, 0]), CONFIG)
        out = tmp_path / "report.jsonl"
        report.write_jsonl(out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["rougeL"]["f1"] == 1.0

    def test_write_jsonl_escapes_a_lone_surrogate_in_the_question(self, tmp_path):
        # The question is carried, not scored, so nothing refuses it; it is
        # written as its JSON escape, as the other JSON-lines outputs do.
        [item] = self._items([1])
        item.question = "why \ud800?"
        out = tmp_path / "report.jsonl"
        aggregate([item], CONFIG).write_jsonl(out)
        assert b"why \\ud800?" in out.read_bytes()
        [line] = out.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["question"] == "why \ud800?"


class TestLoadItems:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "items.jsonl"
        rows = [
            {"question": "q1", "reference": "a b", "candidate": "a b",
             "truthful": 1, "response_time_ms": 12.5},
            {"question": "q2", "reference": "c", "candidate": "d",
             "truthful": 0, "response_time_ms": 7.0},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        items = load_items_jsonl(path)
        assert len(items) == 2
        assert aggregate(items, CONFIG).items[0].candidate_tokens == 2

    def test_malformed_line_three(self, tmp_path):
        path = tmp_path / "items.jsonl"
        good = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                           "truthful": 1, "response_time_ms": 1.0})
        path.write_text(good + "\n" + good + "\n{oops\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="line 3"):
            load_items_jsonl(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text('{"question": "q"}\n', encoding="utf-8")
        with pytest.raises(InvalidInput, match="line 1"):
            load_items_jsonl(path)

    @pytest.mark.parametrize("field, raw", [
        ("truthful", "0.9"),
        ("truthful", "1.0"),
        ("truthful", "true"),
        ("truthful", '"1"'),
        ("truthful", "null"),
        ("truthful", "2"),
        ("response_time_ms", '"NaN"'),
        ("response_time_ms", '"12.5"'),
        ("response_time_ms", "NaN"),
        ("response_time_ms", "Infinity"),
        ("response_time_ms", "-Infinity"),
        ("response_time_ms", "1e999"),
        ("response_time_ms", "1" + "0" * 400),
        ("response_time_ms", "true"),
        ("response_time_ms", "null"),
    ], ids=lambda v: v if len(v) < 20 else f"{len(v)}-digit-int")
    def test_lossy_value_names_file_and_line(self, tmp_path, field, raw):
        path = tmp_path / "items.jsonl"
        fields = {"question": '"q"', "reference": '"r"', "candidate": '"c"',
                  "truthful": "1", "response_time_ms": "1.5", field: raw}
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        good = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                           "truthful": 0, "response_time_ms": 3})
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"{path}: bad item on line 2: .*{field}"):
            load_items_jsonl(path)

    def test_integer_too_long_to_parse_names_file_and_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        good = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                           "truthful": 0, "response_time_ms": 3})
        bad = good.replace('"response_time_ms": 3', '"response_time_ms": 1' + "0" * 4300)
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"{path}: malformed JSON on line 2"):
            load_items_jsonl(path)

    def test_deep_nesting_names_file_and_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text("\n" + '{"question": ' + "[" * 5000 + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"{path}: malformed JSON on line 2: "
                           "nested too deeply: line 1 column 5013"):
            load_items_jsonl(path)

    @pytest.mark.parametrize("field", ["question", "reference", "candidate"])
    @pytest.mark.parametrize("raw", ["null", "7", "true", '["a"]', '{"t": "a"}'])
    def test_text_must_be_a_json_string(self, tmp_path, field, raw):
        path = tmp_path / "items.jsonl"
        good = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                           "truthful": 0, "response_time_ms": 3})
        bad = good.replace(f'"{field}": "{field[0]}"', f'"{field}": {raw}')
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput,
                           match=f"{path}: bad item on line 2: {field} must be a JSON string"):
            load_items_jsonl(path)

    @pytest.mark.parametrize("field", ["question", "reference", "candidate"])
    def test_lone_surrogate_names_file_and_line(self, tmp_path, field):
        path = tmp_path / "items.jsonl"
        good = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                           "truthful": 0, "response_time_ms": 3})
        bad = good.replace(f'"{field}": "{field[0]}"', f'"{field}": "bad \\ud800 x"')
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput,
                           match=f"{path}: bad item on line 2: not valid Unicode"):
            load_items_jsonl(path)

    def test_empty_candidate_scores_zero_and_run_completes(self, tmp_path):
        path = tmp_path / "items.jsonl"
        rows = [{"question": "q1", "reference": "a b", "candidate": "a b",
                 "truthful": 1, "response_time_ms": 1.0},
                {"question": "q2", "reference": "a b", "candidate": "",
                 "truthful": 0, "response_time_ms": 1.0}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        report = aggregate(load_items_jsonl(path), CONFIG)
        empty = report.items[1]
        assert (empty.sas, empty.rouge1.f1, empty.rougeL.f1, empty.candidate_tokens) == (
            0.0, 0.0, 0.0, 0)
        assert report.summary()["sas"] == 0.5

    def test_integer_response_time_loads_as_float(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(json.dumps({"question": "q", "reference": "r", "candidate": "c",
                                    "truthful": 0, "response_time_ms": 3}) + "\n",
                        encoding="utf-8")
        [item] = load_items_jsonl(path)
        assert item.truthful == 0
        assert item.response_time_ms == 3.0 and type(item.response_time_ms) is float
