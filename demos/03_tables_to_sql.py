#!/usr/bin/env python3
"""Table-aware answering: profile a database, embed its tables, pick the
relevant ones for a question, generate SQL, and execute it read-only.

Each table is profiled once, at ingest; answering reads the profile back
from the store and refuses a table whose schema has changed since.

The template mock maps known questions to SQL so the demo runs offline;
swap in LlmConfig(backend="http", ...) for real text-to-SQL generation.
"""

import sqlite3
import tempfile
from pathlib import Path

from gtr import EmbedderConfig, LlmConfig, Query
from gtr import answer_tabular, index_tables, profile_tables

workdir = Path(tempfile.mkdtemp(prefix="gtr-demo-"))
db_path = workdir / "shop.sqlite"

conn = sqlite3.connect(db_path)
conn.executescript("""
CREATE TABLE product (product_id INTEGER PRIMARY KEY, name TEXT, price REAL);
CREATE TABLE sale (sale_id INTEGER PRIMARY KEY, product_id INTEGER, quantity INTEGER);
INSERT INTO product VALUES (1, 'lamp', 40.0), (2, 'desk', 120.0), (3, 'chair', 60.0);
INSERT INTO sale VALUES (1, 1, 3), (2, 2, 1), (3, 1, 2), (4, 3, 5);
""")
conn.commit()
conn.close()

# 1. Profile every table: schema, CREATE statement, and a small CSV sample.
profiles = profile_tables(db_path, sample_limit=3)
for p in profiles:
    print(f"table {p.name}: columns {[c[0] for c in p.columns]}")

# 2. Embed one record per table into a store. Each record keeps the table's
#    block of the SQL prompt and its CREATE statement.
config = EmbedderConfig(dim=256)
store = index_tables(profiles, config, workdir / "tables.gtr")
print("\nprompt block of product:")
print(store.get("shop.product").metadata["prompt_block"], end="")

# 3. Full pipeline with a deterministic mock generator: the prompt shows
#    the model each selected table's block, then the question.
question = Query("how many lamp sales were there?")
llm = LlmConfig(
    backend="template_sql",
    sql_templates={
        question.text: (
            "SELECT count(*) FROM sale JOIN product "
            "ON sale.product_id = product.product_id WHERE product.name = 'lamp'"
        )
    },
)
result = answer_tabular(question, db_path, store, embedder_config=config, llm_config=llm)
print("selected tables:", result.trace.retrieved)
print("generated SQL:", result.trace.answer)
print("result rows:", result.result.rows)
