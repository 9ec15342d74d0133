"""gtr: an embeddable retrieval-augmented generation engine.

Documents are chunked into token windows, embedded, and stored for exact
cosine retrieval; questions are answered by prompting a completion backend
with the retrieved context. A table-aware variant profiles a relational
database, retrieves the relevant tables for a question, and generates and
executes SQL. Evaluation harnesses cover ROUGE, semantic answer similarity,
truthfulness aggregation, exact-set-match, execution accuracy, and query
difficulty.
"""

from . import errors, sqleval
from .chunking import (
    Chunk,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_OVERLAP,
    Document,
    Token,
    chunk_text,
    load_documents,
    token_count,
    token_texts,
    tokenize,
)
from .embedding import DEFAULT_DIM, EmbedderConfig, embed, embed_batch, fingerprint
from .llm import Completion, LlmConfig, complete
from .metrics import (
    GtrEvalItem,
    RougeScore,
    TextEvalReport,
    aggregate,
    load_items_jsonl,
    rouge_l,
    rouge_n,
    sas,
)
from .pipeline import AnswerTrace, Query, answer, append_trace, compose_prompt, ingest
from .store import VectorRecord, VectorStore, cosine
from .tables import (
    ResultSet,
    TableProfile,
    TabularAnswer,
    answer_tabular,
    compose_sql_prompt,
    execute_sql,
    extract_sql,
    index_tables,
    profile_tables,
    select_tables,
    serialize_table_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerTrace",
    "Chunk",
    "Completion",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_DIM",
    "DEFAULT_OVERLAP",
    "Document",
    "EmbedderConfig",
    "GtrEvalItem",
    "LlmConfig",
    "Query",
    "ResultSet",
    "RougeScore",
    "TableProfile",
    "TabularAnswer",
    "TextEvalReport",
    "Token",
    "VectorRecord",
    "VectorStore",
    "aggregate",
    "answer",
    "answer_tabular",
    "append_trace",
    "chunk_text",
    "compose_prompt",
    "compose_sql_prompt",
    "cosine",
    "complete",
    "embed",
    "embed_batch",
    "errors",
    "execute_sql",
    "extract_sql",
    "fingerprint",
    "index_tables",
    "ingest",
    "load_documents",
    "load_items_jsonl",
    "profile_tables",
    "rouge_l",
    "rouge_n",
    "sas",
    "select_tables",
    "serialize_table_csv",
    "sqleval",
    "token_count",
    "token_texts",
    "tokenize",
]
