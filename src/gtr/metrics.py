"""Answer-quality metrics: ROUGE-N, ROUGE-L, semantic answer similarity,
and batch aggregation over labeled evaluation items.

All ROUGE variants run over lowercased tokens from the shared tokenizer,
without stemming or stopword removal. Small memos keep the last texts'
tokens and the last two items' n-gram counts, so ``aggregate`` tokenizes a
text once per item and n-best candidates share their reference's counts;
ROUGE-N sums the clipped overlap over the n-grams both sides hold. ROUGE-L's
longest common subsequence is bit-parallel (Allison and Dix, 1986, in
Hyyrö's form, 2004): O(n·⌈m/w⌉) word operations on Python ints for
sequences of n and m ≤ n tokens, where the plain dynamic program takes n·m
interpreter steps. Semantic answer similarity (SAS) is the cosine of the
two texts' embeddings through the configured embedder, so it runs offline
with the hashed bag-of-words backend and approximates a learned scorer
when an HTTP embedder is configured. ``aggregate`` scores items in slices
of ``SAS_SLICE_ITEMS``: ROUGE item by item, then one ``embed_batch`` call
over the slice's distinct texts, handed the memo's tokens, and one cosine
preparation of each text's vector, so the http backend sends
ceil(texts / batch_size) requests per slice rather than two per item.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .chunking import token_texts
from .embedding import EmbedderConfig, embed_batch
from .errors import InvalidInput, check_unicode, read_json_lines, write_json_lines
from .store import _cosine_pair, _cosine_side

SUMMARY_COLUMNS = (
    "truthful_pct",
    "rouge1_p",
    "rouge2_p",
    "rougeL_p",
    "rougeL_f1",
    "sas",
    "resp_ms",
    "tokens",
)

# Fixed: aggregate embeds the texts of this many items per embed_batch
# call, so its memory stays bounded however many items it scores.
SAS_SLICE_ITEMS = 256


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


# An item's candidate and reference, and room for a second caller's pair.
@lru_cache(maxsize=4)
def _tokens(text: str) -> tuple[str, ...]:
    return tuple(map(str.lower, token_texts(text)))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tokens if n == 1 else zip(*(tokens[i:] for i in range(n))))


# Two items' unigram and bigram counts, as n-best candidates share a reference.
@lru_cache(maxsize=8)
def _ngram_counts(text: str, n: int) -> Counter:
    return _ngrams(_tokens(text), n)


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; either side empty scores zero."""
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    cand_total = max(len(_tokens(candidate)) - n + 1, 0)
    ref_total = max(len(_tokens(reference)) - n + 1, 0)
    cand, ref = _ngram_counts(candidate, n), _ngram_counts(reference, n)
    # The key views intersect in C, walking the side with fewer n-grams.
    overlap = sum(min(cand[gram], ref[gram]) for gram in cand.keys() & ref.keys())
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel.

    Bit i of ``match[t]`` is set where the shorter sequence holds token t at
    position i. One pass over the longer sequence updates a single int
    ``row`` by Hyyrö's step, ``(row + (row & m)) | (row & ~m)``, and the
    length is the number of zero bits left in the low ``len(short)`` bits.
    Cost: O(len(long) · ⌈len(short)/w⌉) word operations, done in C, for
    machine word size w.
    """
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    if not short:
        return 0
    match: dict[str, int] = {}
    for i, token in enumerate(short):
        match[token] = match.get(token, 0) | 1 << i
    full = (1 << len(short)) - 1
    row = full
    for m in filter(None, map(match.get, long)):
        row = ((row + (row & m)) | (row & ~m)) & full
    return len(short) - row.bit_count()


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """LCS-based overlap: precision against the candidate length, recall
    against the reference length. rouge_l(a, b).precision equals
    rouge_l(b, a).recall exactly."""
    cand = _tokens(candidate)
    ref = _tokens(reference)
    lcs = lcs_length(cand, ref)
    precision = lcs / len(cand) if cand else 0.0
    recall = lcs / len(ref) if ref else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def sas(candidate: str, reference: str, config: EmbedderConfig | None = None) -> float:
    """Embedding cosine between candidate and reference, in [-1, 1];
    either side without tokens scores zero, as in ROUGE."""
    pair = ((candidate, _tokens(candidate)), (reference, _tokens(reference)))
    return _sas_scores([pair], config or EmbedderConfig())[0]


def _sas_scores(pairs, config: EmbedderConfig, first: int = 0) -> list[float]:
    """SAS of each ((candidate, tokens), (reference, tokens)) pair, the
    tokens being ``_tokens`` of the text. One ``embed_batch`` call embeds
    the distinct texts of the pairs whose sides both have tokens.

    Raises:
        InvalidInput: a text holds a lone surrogate; the message names its
            pair, counting from ``first``, and side.
    """
    first_use: dict[str, tuple[int, str]] = {}
    tokens = []
    for k, pair in enumerate(pairs, first):
        if pair[0][1] and pair[1][1]:
            for side, (text, text_tokens) in zip(("candidate", "reference"), pair):
                if text not in first_use:
                    first_use[text] = (k, side)
                    tokens.append(text_tokens)
    try:
        vectors = embed_batch(list(first_use), config, tokens)
    except InvalidInput:
        for text, (k, side) in first_use.items():
            try:
                check_unicode(text)
            except InvalidInput as e:
                raise InvalidInput(f"item {k} {side}: {e}") from None
        raise
    sides = dict(zip(first_use, map(_cosine_side, vectors)))
    return [_cosine_pair(sides[cand], sides[ref]) if cand_tokens and ref_tokens else 0.0
            for (cand, cand_tokens), (ref, ref_tokens) in pairs]


@dataclass
class GtrEvalItem:
    question: str
    reference: str
    candidate: str
    truthful: int
    response_time_ms: float

    def __post_init__(self):
        if problem := _truthful_problem(self.truthful):
            raise InvalidInput(problem)


def _truthful_problem(value) -> str:
    """Why ``value`` is not a truthful label, the integer 0 or 1 ("" if it is)."""
    ok = type(value) is int and value in (0, 1)
    return "" if ok else f"truthful must be the integer 0 or 1, got {value!r}"


@dataclass
class TextEvalItemResult:
    question: str
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    sas: float
    truthful: int
    response_time_ms: float
    candidate_tokens: int

    def to_dict(self) -> dict:
        def unpack(score: RougeScore) -> dict:
            return {"p": score.precision, "r": score.recall, "f1": score.f1}

        return {
            "question": self.question,
            "rouge1": unpack(self.rouge1),
            "rouge2": unpack(self.rouge2),
            "rougeL": unpack(self.rougeL),
            "sas": self.sas,
            "truthful": self.truthful,
            "response_time_ms": self.response_time_ms,
            "candidate_tokens": self.candidate_tokens,
        }


@dataclass
class TextEvalReport:
    items: list[TextEvalItemResult]

    def summary(self) -> dict:
        n = len(self.items)
        if not n:
            raise InvalidInput("cannot summarize an empty TextEvalReport")
        return {
            "truthful_pct": 100.0 * sum(i.truthful for i in self.items) / n,
            "rouge1_p": sum(i.rouge1.precision for i in self.items) / n,
            "rouge2_p": sum(i.rouge2.precision for i in self.items) / n,
            "rougeL_p": sum(i.rougeL.precision for i in self.items) / n,
            "rougeL_f1": sum(i.rougeL.f1 for i in self.items) / n,
            "sas": sum(i.sas for i in self.items) / n,
            "resp_ms": sum(i.response_time_ms for i in self.items) / n,
            "tokens": sum(i.candidate_tokens for i in self.items) / n,
        }

    def write_jsonl(self, path: str | Path) -> None:
        """One JSON line per item; see errors.write_json_lines."""
        write_json_lines(path, (item.to_dict() for item in self.items))

    def format_summary(self) -> str:
        stats = self.summary()
        header = "".join(f"{c:>14}" for c in SUMMARY_COLUMNS)
        row = "".join(f"{stats[c]:>14.4f}" for c in SUMMARY_COLUMNS)
        return header + "\n" + row


def aggregate(
    items: list[GtrEvalItem], config: EmbedderConfig | None = None
) -> TextEvalReport:
    """Score every item and average into the report columns. Each slice of
    ``SAS_SLICE_ITEMS`` items is scored by ROUGE item by item, then by SAS
    in one ``embed_batch`` call.

    Raises:
        InvalidInput: empty item list, or a text that reaches the embedder
            holds a lone surrogate (named by item index and side).
    """
    if not items:
        raise InvalidInput("need at least one item to aggregate")
    config = config or EmbedderConfig()
    results = []
    for first in range(0, len(items), SAS_SLICE_ITEMS):
        part = items[first : first + SAS_SLICE_ITEMS]
        rouge = []
        pairs = []
        for item in part:
            cand, ref = item.candidate, item.reference
            rouge.append((rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref)))
            # The memo still holds both sides' tokens from the ROUGE calls.
            pairs.append(((cand, _tokens(cand)), (ref, _tokens(ref))))
        sas_scores = _sas_scores(pairs, config, first)
        for item, scores, sas_score, ((_, cand_tokens), _) in zip(part, rouge, sas_scores, pairs):
            results.append(TextEvalItemResult(
                item.question, *scores, sas_score, item.truthful,
                item.response_time_ms, len(cand_tokens),
            ))
    return TextEvalReport(results)


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def load_items_jsonl(path: str | Path) -> list[GtrEvalItem]:
    """Read evaluation items from a UTF-8 file; a malformed line, and a byte
    that is not UTF-8, are named as "PATH: line N: ...".

    Each line: {"question", "reference", "candidate", "truthful",
    "response_time_ms"}, where the first three are JSON strings without
    lone surrogates (checked by errors.read_json_lines), truthful is the
    JSON integer 0 or 1 and response_time_ms a finite JSON number.
    """
    items = []
    for lineno, record in read_json_lines(path, "items", ("question", "reference", "candidate")):
        for key in ("truthful", "response_time_ms"):
            if key not in record:
                raise InvalidInput(f"{path}: line {lineno}: missing field {key!r}")
        truthful, ms = record["truthful"], record["response_time_ms"]
        if problem := _truthful_problem(truthful):
            raise InvalidInput(f"{path}: line {lineno}: {problem}")
        if not _finite_number(ms):
            raise InvalidInput(f"{path}: line {lineno}: response_time_ms must be a finite "
                               f"number, got {ms!r}")
        items.append(GtrEvalItem(record["question"], record["reference"], record["candidate"],
                                 truthful, float(ms)))
    return items
