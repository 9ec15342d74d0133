#!/usr/bin/env python3
"""Score generated answers against references: ROUGE-1/2/L, semantic
answer similarity, and the aggregate report used for batch evaluation."""

from gtr import EmbedderConfig, GtrEvalItem, aggregate, rouge_l, rouge_n, sas

config = EmbedderConfig(dim=256)

candidate = "the red planet is mars"
reference = "mars is called the red planet"

# N-gram overlap (precision against the candidate, recall against the
# reference) and longest-common-subsequence overlap.
for name, score in [
    ("rouge-1", rouge_n(candidate, reference, 1)),
    ("rouge-2", rouge_n(candidate, reference, 2)),
    ("rouge-L", rouge_l(candidate, reference)),
]:
    print(f"{name}: P={score.precision:.3f} R={score.recall:.3f} F1={score.f1:.3f}")

# Embedding cosine: lexically different but token-overlapping answers
# still score high; disjoint ones score near zero.
print(f"sas(candidate, reference) = {sas(candidate, reference, config):.3f}")
print(f"sas('cats', 'finance')    = {sas('cats', 'finance', config):.3f}")

# Batch aggregation over labeled items produces the summary columns
# truthful_pct / rouge1_p / rouge2_p / rougeL_p / rougeL_f1 / sas / resp_ms /
# tokens.
items = [
    GtrEvalItem("q1", reference, candidate, truthful=1, response_time_ms=120.0),
    GtrEvalItem("q2", "titan orbits saturn", "titan orbits saturn",
                truthful=1, response_time_ms=80.0),
    GtrEvalItem("q3", "europa hides an ocean", "no idea",
                truthful=0, response_time_ms=45.0),
]
report = aggregate(items, config)
print()
print(report.format_summary())
