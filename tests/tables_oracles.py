"""The SQL prompt as it was made before table profiles moved to ingest.

``answer_tabular`` used to profile every table of the database again on
each question (row count included) and render the prompt from those fresh
profiles. It now reads the prompt blocks that ``index_tables`` stored. This
is that old per-question path, kept as an oracle for the prompt bytes: on
an unchanged database, indexed at the default sample limit, both must
agree.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path

from gtr.tables import DEFAULT_SAMPLE_LIMIT, serialize_table_csv


@dataclass
class OldTableProfile:
    db_id: str
    name: str
    columns: list[tuple[str, str]]
    row_count: int
    sample_rows: list[tuple]
    csv: str


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def profile_tables(db_path, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> list[OldTableProfile]:
    db_id = Path(db_path).stem
    conn = sqlite3.connect(f"file:{Path(db_path).as_posix()}?mode=ro", uri=True)
    try:
        names = [
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%'"
            )
        ]
        profiles = []
        for name in names:
            columns = [
                (str(row[1]), str(row[2]))
                for row in conn.execute(f"PRAGMA table_info({_quote_ident(name)})")
            ]
            row_count = conn.execute(
                f"SELECT COUNT(*) FROM {_quote_ident(name)}"
            ).fetchone()[0]
            sample_rows = [
                tuple(row)
                for row in conn.execute(
                    f"SELECT * FROM {_quote_ident(name)} LIMIT ?", (sample_limit,)
                )
            ]
            profiles.append(
                OldTableProfile(db_id, name, columns, row_count, sample_rows,
                                serialize_table_csv(columns, sample_rows))
            )
        return profiles
    finally:
        conn.close()


def compose_sql_prompt(selected, query) -> str:
    blocks = []
    for profile in selected:
        cols = ", ".join(
            f"{name} {ctype}" if ctype else name for name, ctype in profile.columns
        )
        body = profile.csv.removesuffix("\n")
        blocks.append(f"Table {profile.name}({cols})\n{body}\n\n")
    return "".join(blocks) + f"Question: {query.text}\nSQL:"


def ask_time_prompt(db_path, store, retrieved, query) -> str:
    """The prompt the old ``answer_tabular`` built for these selected tables."""
    profiles = {p.name: p for p in profile_tables(db_path)}
    selected = [profiles[store.get(table_id).metadata["name"]] for table_id, _ in retrieved]
    return compose_sql_prompt(selected, query)
