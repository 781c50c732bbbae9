from __future__ import annotations

import json
import ssl
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from smr.core import Document
from smr.retrieval import Bm25Retriever, build_index

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"
# A self-signed certificate for 127.0.0.1 and localhost, valid 2000-2100, for tests only.
TEST_ONLY_CERT = Path(__file__).resolve().parent / "certs" / "test-only-localhost.crt"
TEST_ONLY_KEY = TEST_ONLY_CERT.with_suffix(".key")


def refine_json(query: str, reason: str | None = None) -> str:
    obj = {"action": "refine query", "refined_query": query}
    if reason is not None:
        obj["reason"] = reason
    return json.dumps(obj)


def rerank_json(ids: list[str], reason: str | None = None) -> str:
    obj = {"action": "re-rank", "reranked": ids}
    if reason is not None:
        obj["reason"] = reason
    return json.dumps(obj)


def stop_json() -> str:
    return json.dumps({"action": "stop"})


@pytest.fixture(scope="session")
def toy_corpus() -> list[Document]:
    docs = []
    with open(DATA_DIR / "corpus.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                docs.append(Document(doc_id=record["doc_id"], text=record["text"]))
    return docs


@pytest.fixture(scope="session")
def toy_retriever(toy_corpus) -> Bm25Retriever:
    return Bm25Retriever(build_index(toy_corpus))


class LocalEndpoint:
    """Tiny chat-completions double running on a loopback port, over TLS with ``tls=True``.

    Responses are scripted with push(); each POST consumes one.  When the
    script is empty the server answers with a stop decision.  Received
    request payloads, and their headers, are recorded for assertions.
    A GET is recorded and answered the same way, so a test sees a request
    that should never have been sent.
    """

    def __init__(self, tls: bool = False):
        self.responses: list[tuple[int, bytes, dict[str, str]]] = []
        self.received: list[dict] = []
        self.received_headers: list = []  # one email.message.Message per request; lookups ignore case
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                with outer._lock:
                    outer.received_headers.append(self.headers)
                    try:
                        outer.received.append(json.loads(body))
                    except json.JSONDecodeError:
                        outer.received.append({"raw": body.decode("utf-8", "replace")})
                    if outer.responses:
                        status, payload, extra_headers = outer.responses.pop(0)
                    else:
                        extra_headers = {}
                        status, payload = 200, json.dumps(
                            {
                                "choices": [{"message": {"content": '{"action": "stop"}'}}],
                                "usage": {"completion_tokens": 3},
                            }
                        ).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in extra_headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TEST_ONLY_CERT, TEST_ONLY_KEY)
            # The handshake runs in accept(); a client that rejects the certificate never reaches the handler.
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
        # A short poll interval keeps shutdown() from waiting the default 0.5 s in every test.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()
        self.url = f"{'https' if tls else 'http'}://127.0.0.1:{self._server.server_port}/v1/chat/completions"

    def push(self, body: dict | bytes, status: int = 200, headers: dict[str, str] | None = None) -> None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        with self._lock:
            self.responses.append((status, payload, headers or {}))

    def push_chat(self, text: str, completion_tokens: int | None = None) -> None:
        message: dict = {"choices": [{"message": {"content": text}}]}
        if completion_tokens is not None:
            message["usage"] = {"completion_tokens": completion_tokens}
        self.push(message)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def endpoint():
    server = LocalEndpoint()
    yield server
    server.close()


@pytest.fixture
def tls_endpoint():
    server = LocalEndpoint(tls=True)
    yield server
    server.close()
