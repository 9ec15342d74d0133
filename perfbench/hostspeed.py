"""A gauge of host speed, read between the timed calls of a run.

The reference host's speed drifts by up to 1.8x, from one second to the
next and over minutes, and nothing inside the VM says why: steal time stays
near zero and CPU time drifts with wall time. Every timing the benchmark
reports is therefore scaled to a fixed host speed: a sample taken while the
gauge read ``g`` seconds (the median of the readings nearest to it) is
multiplied by ``REFERENCE_S / g`` (a time) or by ``g / REFERENCE_S`` (a
rate). The gauge is the benchmark's own fixed work, never gtr's, so a
change to gtr cannot move it; the raw samples are kept beside the scaled
ones in the run's output file.

The gauge's work is the kind gtr does: a pure-Python loop over tokens with
byte hashing and dict updates (chunking, embedding, metrics, SQL parsing),
JSON decoding (store load), a numpy matrix-vector product over a few
megabytes (top-k search) and a SQLite aggregate (tabular questions and
execution accuracy).
"""

from __future__ import annotations

import json
import sqlite3
import time

import numpy as np

# What one reading takes on the reference host between the calls of a run
# (seconds); the caches the gauge uses are cold there, so it reads slower
# than back to back.
REFERENCE_S = 0.0026

_TOKENS = [f"w{i % 977}x{i % 13}" for i in range(400)]
_BLOB = json.dumps([{"id": f"r{i}", "v": [i * 0.5, i * 0.25, -i], "t": "abc " * 4}
                    for i in range(120)])
_MATRIX = np.random.default_rng(0).standard_normal((4096, 128))
_VECTOR = _MATRIX[7].copy()


class Gauge:
    """Reads host speed as the time of a fixed mixed workload."""

    def __init__(self):
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)")
        self._db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                             [(i, i % 17, f"c{i % 101}") for i in range(2000)])
        self.readings: list[float] = []
        self.read()  # a warm-up, not kept
        self.readings.clear()

    def read(self) -> float:
        """Seconds for one pass of the fixed work."""
        started = time.perf_counter()
        counts: dict = {}
        h = 0
        for token in _TOKENS:
            for byte in token.encode():
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            counts[token] = counts.get(token, 0) + 1
        json.loads(_BLOB)
        int(np.argmax(_MATRIX @ _VECTOR))
        self._db.execute(
            "SELECT count(*) FROM (SELECT b, count(DISTINCT c) FROM t GROUP BY b)").fetchone()
        seconds = time.perf_counter() - started
        self.readings.append(seconds)
        return seconds

    def close(self) -> None:
        self._db.close()
