"""Blocking client for the job service (CLI, tests, scripts).

One HTTP connection per call (the server closes connections after each
response), so a :class:`ServiceClient` is cheap, stateless and safe to
share across threads; :class:`SocketClient` is the same client with the
connection made over the service's Unix socket instead of its TCP port.
Error responses are re-raised as the same typed
:class:`~repro.service.protocol.ServiceError` subclasses the server
threw — a quota rejection surfaces as :class:`QuotaExceeded` on the
client too, never as a bare status code.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import quote, urlencode

from .protocol import ProtocolError, decode_line, error_from_document


def _url(*segments: str, **query: Any) -> str:
    """A request target, every segment and parameter percent-encoded."""
    path = "/" + "/".join(quote(segment, safe="") for segment in segments)
    return f"{path}?{urlencode(query)}" if query else path


class ServiceClient:
    """Talk to a running service over HTTP."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8458,
                 timeout: float = 600.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        connection = self._connect()
        try:
            payload = None if body is None else \
                json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return self._decode(response.status, raw)
        finally:
            connection.close()

    @staticmethod
    def _decode(status: int, raw: bytes) -> Dict[str, Any]:
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"service returned non-JSON (HTTP {status}): {exc}") from exc
        # A failed job's result carries its error *string*: not an envelope.
        if status >= 400 or isinstance(document.get("error"), dict):
            raise error_from_document(document)
        return document

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def submit(self, submission: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job; returns its public view (``view["id"]``)."""
        return self._request("POST", "/jobs", body=submission)["job"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", _url("jobs", job_id))["job"]

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        query = {} if tenant is None else {"tenant": tenant}
        return self._request("GET", _url("jobs", **query))["jobs"]

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Ordered per-unit results; blocks until terminal by default."""
        query: Dict[str, Any] = {"wait": 1} if wait else {}
        if wait and timeout is not None:
            query["timeout"] = timeout
        return self._request("GET", _url("jobs", job_id, "result", **query))

    def events(self, job_id: str,
               since: int = 0) -> List[Dict[str, Any]]:
        """Snapshot of the job's event log after ``since``."""
        return self._request(
            "GET", _url("jobs", job_id, "events", since=since))["events"]

    def stream_events(self, job_id: str,
                      since: int = 0) -> Iterator[Dict[str, Any]]:
        """Live event stream; yields until the job reaches a terminal
        state (the server ends the chunked response there)."""
        connection = self._connect()
        try:
            connection.request("GET", _url("jobs", job_id, "events",
                                           since=since, follow=1))
            response = connection.getresponse()
            if response.status >= 400:
                self._decode(response.status, response.read())
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield decode_line(line)
        finally:
            connection.close()

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's merged Perfetto trace document."""
        return self._request("GET", _url("jobs", job_id, "trace"))

    def workers(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/workers")["workers"]

    def drain(self, worker: str) -> Dict[str, Any]:
        return self._request("POST",
                             _url("workers", worker, "drain"))["worker"]

    def undrain(self, worker: str) -> Dict[str, Any]:
        return self._request("POST",
                             _url("workers", worker, "undrain"))["worker"]


class _UnixConnection(http.client.HTTPConnection):
    """An HTTP connection whose transport is an ``AF_UNIX`` stream."""

    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self.path = path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect(self.path)


class SocketClient(ServiceClient):
    """Talk to a running service over its local Unix socket."""

    def __init__(self, path: str, timeout: float = 600.0) -> None:
        self.path = path
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return _UnixConnection(self.path, self.timeout)
