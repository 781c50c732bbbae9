"""Loopback chat-completions stub with a fixed injected latency.

Run as its own process:

    python3 bench/stub.py --table stub_table.json --latency-ms 20

It prints the port it listens on (127.0.0.1) as its first line of output and
serves until its standard input closes, so it cannot outlive the benchmark
that started it.

The reply is a pure function of the request body: the current query is read
from the rendered prompt, the attempt index from the temperature (0.0, 0.1,
...), and the table maps query -> replies by attempt, the last one repeating.
Output therefore does not depend on how concurrent requests interleave.  A
query missing from the table gets HTTP 404, which the client reports as a
failed query.

The server speaks HTTP/1.1, so a client may keep connections alive.
``GET /stats`` returns how many connections carried a chat request and how
many chat requests were served.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUERY_PREFIX = '"query": '
_TEMPERATURE_STEP = 0.1


def prompt_query(user_text: str) -> str:
    """The query the prompt was rendered for: its second line is ``"query": <json>,``."""
    line = user_text.split("\n", 2)[1]
    if not line.startswith(_QUERY_PREFIX):
        raise ValueError("prompt has no query line")
    return json.loads(line[len(_QUERY_PREFIX) :].rstrip(","))


def reply_text(table: dict[str, list[str]], body: dict) -> str | None:
    replies = table.get(prompt_query(body["messages"][-1]["content"]))
    if replies is None:
        return None
    attempt = round(body["temperature"] / _TEMPERATURE_STEP)
    return replies[min(attempt, len(replies) - 1)]


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict[str, list[str]], latency_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.table = table
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests += 1
            if not self.counted:
                self.server.connections += 1
                self.counted = True
        text = reply_text(self.server.table, body)
        time.sleep(self.server.latency_s)
        if text is None:
            self._send(404, {"error": "query not in stub table"})
            return
        self._send(
            200,
            {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"completion_tokens": len(text.split())},
            },
        )

    def do_GET(self) -> None:
        with self.server.lock:
            stats = {"connections": self.server.connections, "requests": self.server.requests}
        self._send(200, stats)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--table", required=True, help="JSON object: query -> replies by attempt")
    parser.add_argument("--latency-ms", type=float, required=True, help="injected latency per request")
    args = parser.parse_args()
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    server = StubServer(table, args.latency_ms / 1000.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_port, flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
