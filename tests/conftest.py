"""Shared fixtures: a deterministic toy database and local JSON servers."""

from __future__ import annotations

import json
import sqlite3
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from gtr import _http

TOY_SCHEMA = """
CREATE TABLE singer (
    singer_id INTEGER PRIMARY KEY,
    name TEXT,
    age INTEGER,
    country TEXT
);
CREATE TABLE stadium (
    stadium_id INTEGER PRIMARY KEY,
    name TEXT,
    capacity INTEGER,
    location TEXT
);
CREATE TABLE concert (
    concert_id INTEGER PRIMARY KEY,
    title TEXT,
    year INTEGER,
    singer_id INTEGER,
    stadium_id INTEGER
);

INSERT INTO singer VALUES (1, 'Joe Sharp', 52, 'Netherlands');
INSERT INTO singer VALUES (2, 'Timbaland', 32, 'United States');
INSERT INTO singer VALUES (3, 'Rose White', 41, 'France');
INSERT INTO singer VALUES (4, 'John Nizinik', 43, 'France');
INSERT INTO singer VALUES (5, 'Tribal King', 25, 'France');
INSERT INTO singer VALUES (6, 'Mika Snow', 25, 'United States');

INSERT INTO stadium VALUES (1, 'Stark Arena', 19200, 'Belgrade');
INSERT INTO stadium VALUES (2, 'Balaidos', 24870, 'Vigo');
INSERT INTO stadium VALUES (3, 'Ricoh Arena', 32609, 'Coventry');

INSERT INTO concert VALUES (1, 'Super bootcamp', 2014, 1, 1);
INSERT INTO concert VALUES (2, 'Home Visits', 2015, 2, 3);
INSERT INTO concert VALUES (3, 'Week 1', 2014, 3, 2);
INSERT INTO concert VALUES (4, 'Week 2', 2015, 5, 2);
INSERT INTO concert VALUES (5, 'Encore', 2017, 2, 1);
"""


def build_toy_db(path) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(TOY_SCHEMA)
        conn.commit()
    finally:
        conn.close()


@pytest.fixture
def toy_db(tmp_path):
    path = tmp_path / "concerts.sqlite"
    build_toy_db(path)
    return path


class _JsonHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append((self.path, body))
        status, payload = self.server.responder(self.path, body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def json_server():
    """Factory for local JSON-over-HTTP servers.

    start(responder) returns a server whose .url points at its root;
    responder(path, body) -> (status, payload), where a bytes payload is
    sent as it is and any other is sent as JSON. The server records every
    request in .requests.
    """
    servers = []

    def start(responder):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _JsonHandler)
        server.requests = []
        server.responder = responder
        server.url = f"http://127.0.0.1:{server.server_address[1]}/"
        # A short poll interval lets shutdown() return quickly.
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        thread.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def fast_retries(monkeypatch):
    """Shrink the HTTP retry waits so failing-backend tests run quickly."""
    monkeypatch.setattr(_http, "BACKOFF_S", 0.01)
