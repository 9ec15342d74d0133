"""ROUGE, SAS and ``aggregate`` as ``gtr.metrics`` had them before the
bit-parallel LCS and the token memo, kept verbatim as a test oracle: the
O(n·m) dynamic-programming ``lcs_length``, and scoring functions that
tokenize each text on every call. ``sas`` is the per-item scorer
``aggregate`` called before SAS embedded a slice of items in one batch:
two ``embed`` calls, or zero when a side has no tokens. It calls the
``cosine`` kept in ``store_oracles``. The report classes are the
production ones, so ``tests/test_metrics_equivalence.py`` compares report
files byte for byte.
"""

from __future__ import annotations

from collections import Counter

from gtr.chunking import token_count, token_texts
from gtr.embedding import EmbedderConfig, embed
from gtr.errors import InvalidInput
from gtr.metrics import (
    GtrEvalItem,
    RougeScore,
    TextEvalItemResult,
    TextEvalReport,
    _f1,
)
from store_oracles import cosine


def _tokens(text: str) -> list[str]:
    return [t.lower() for t in token_texts(text)]


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; either side empty scores zero."""
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    cand = _ngrams(_tokens(candidate), n)
    ref = _ngrams(_tokens(reference), n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    overlap = sum((cand & ref).values())
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by iterative dynamic programming."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


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
    if not _tokens(candidate) or not _tokens(reference):
        return 0.0
    config = config or EmbedderConfig()
    return cosine(embed(candidate, config), embed(reference, config))


def aggregate(
    items: list[GtrEvalItem], config: EmbedderConfig | None = None
) -> TextEvalReport:
    """Score every item and average into the report columns.

    Raises:
        InvalidInput: empty item list.
    """
    if not items:
        raise InvalidInput("need at least one item to aggregate")
    config = config or EmbedderConfig()
    results = [
        TextEvalItemResult(
            question=item.question,
            rouge1=rouge_n(item.candidate, item.reference, 1),
            rouge2=rouge_n(item.candidate, item.reference, 2),
            rougeL=rouge_l(item.candidate, item.reference),
            sas=sas(item.candidate, item.reference, config),
            truthful=item.truthful,
            response_time_ms=item.response_time_ms,
            candidate_tokens=token_count(item.candidate),
        )
        for item in items
    ]
    return TextEvalReport(results)
