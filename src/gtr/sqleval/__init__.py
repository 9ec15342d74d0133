"""SQL evaluation: clause-set parsing, exact-set-match, execution accuracy,
and difficulty classification."""

from .exact_match import CLAUSE_NAMES, MatchResult, compare_clauses, exact_set_match
from .execution import execution_accuracy, has_top_level_order_by, results_match
from .hardness import HARDNESS_LEVELS, classify_hardness, component_counts
from .parser import (
    AGG_FUNCS,
    VALUE,
    ClauseSets,
    ColumnRef,
    ColumnTerm,
    Predicate,
    SelectTerm,
    ValExpr,
    parse_sql,
)
from .suite import (
    SqlEvalItem,
    SqlEvalReport,
    evaluate_suite,
    load_pairs,
    load_sql_lines,
    resolve_db_path,
)

__all__ = [
    "AGG_FUNCS",
    "CLAUSE_NAMES",
    "HARDNESS_LEVELS",
    "VALUE",
    "ClauseSets",
    "ColumnRef",
    "ColumnTerm",
    "MatchResult",
    "Predicate",
    "SelectTerm",
    "SqlEvalItem",
    "SqlEvalReport",
    "ValExpr",
    "classify_hardness",
    "compare_clauses",
    "component_counts",
    "evaluate_suite",
    "exact_set_match",
    "execution_accuracy",
    "has_top_level_order_by",
    "load_pairs",
    "load_sql_lines",
    "parse_sql",
    "resolve_db_path",
    "results_match",
]
