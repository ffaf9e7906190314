"""Asyncio front end: one HTTP protocol on a TCP port and a Unix socket.

The server is a thin, dependency-free layer: HTTP/1.1 is parsed by hand
on top of :func:`asyncio.start_server` (requests are small JSON bodies;
responses close the connection), and the optional Unix-socket listener
is bound to the same connection handler, so a transport differs only in
the socket it arrives on.  Every request feeds the one
:class:`~repro.service.jobqueue.JobQueue`; all routing errors map to the
typed error taxonomy, so clients can branch on ``error.kind`` instead of
scraping messages.

Endpoints (full wire protocol in ``docs/SERVICE.md``)::

    GET  /healthz                     liveness + protocol version
    GET  /workers                     fleet states
    POST /workers/<name>/drain        checkpoint + stop taking units
    POST /workers/<name>/undrain      rejoin the fleet
    GET  /jobs[?tenant=t]             job list
    POST /jobs                        submit (submission document body)
    GET  /jobs/<id>                   one job's view
    GET  /jobs/<id>/result[?wait=1]   ordered per-unit results
    GET  /jobs/<id>/events[?since=N&follow=1]   progress event stream
    GET  /jobs/<id>/trace             merged Perfetto trace (chunked)
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from ..sweep import SweepCache, _resolve_cache
from .jobqueue import DEFAULT_QUOTA_UNITS, JobQueue
from .protocol import (
    PROTOCOL_VERSION,
    NotReady,
    ProtocolError,
    ServiceError,
    encode_line,
    parse_submission,
)
from .scheduler import DEFAULT_SLICE_PS, Scheduler

#: Submission bodies above this are refused before parsing.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: A client that has not sent a whole request after this long is dropped
#: (seconds); the long-poll and the event stream start after the read.
READ_TIMEOUT_S = 30.0

#: Header lines accepted per request before it is refused.
MAX_HEADER_LINES = 100

#: What ends a connection without a response: ``stop()``, a client that
#: sent nothing in time, or one that went away mid-exchange.
_CLOSE_QUIETLY = (asyncio.CancelledError, asyncio.TimeoutError,
                  ConnectionError, asyncio.IncompleteReadError)

#: Long-poll ceiling for ``?wait=1`` result requests (seconds).
DEFAULT_WAIT_S = 300.0


def _number(raw: Any, name: str) -> float:
    """A finite numeric request parameter, or a typed 400."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ProtocolError(f"{name}: {raw!r} is not a finite number")
    return value


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, reported after start
    socket_path: Optional[str] = None
    fleet: int = 2
    quota_units: int = DEFAULT_QUOTA_UNITS
    slice_ps: int = DEFAULT_SLICE_PS
    use_processes: bool = False
    #: Shared result store: a SweepCache, a directory path, or False to
    #: disable dedupe entirely (None = the default on-disk cache).
    cache: Union[SweepCache, str, None, bool] = None


class ServiceServer:
    """One service instance: queue + scheduler + both listeners."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 **overrides: Any) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ServiceConfig or overrides")
        self.config = config
        self.queue = JobQueue(quota_units=config.quota_units)
        self.scheduler = Scheduler(
            self.queue, fleet=config.fleet,
            cache=_resolve_cache(config.cache),
            slice_ps=config.slice_ps,
            use_processes=config.use_processes)
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: Set[Any] = set()  # the open handlers' tasks
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.scheduler.start()
        self._servers = [await asyncio.start_server(
            self._handle_http, host=self.config.host, port=self.config.port)]
        self.port = self._servers[0].sockets[0].getsockname()[1]
        if self.config.socket_path:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_http, path=self.config.socket_path))

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
        # From Python 3.12 wait_closed() waits for open connections (idle,
        # long-polling, following): end them first.
        for task in self._connections:
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        for server in self._servers:
            await server.wait_closed()
        self._servers = []
        await self.scheduler.stop()

    async def run_forever(self) -> None:
        """Serve a started instance until cancelled, then :meth:`stop`."""
        if not self._servers:
            raise RuntimeError("run_forever() needs start() first")
        try:
            await self._servers[0].serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                request = await asyncio.wait_for(self._read_request(reader),
                                                 READ_TIMEOUT_S)
                await self._route(*request, writer)
            except ServiceError as exc:
                await self._respond_json(writer, exc.http_status,
                                         exc.to_document())
            except _CLOSE_QUIETLY:
                raise
            except Exception as exc:
                # Unexpected handler failures must still produce a typed
                # response instead of a dropped connection.
                error = ServiceError(f"{type(exc).__name__}: {exc}")
                await self._respond_json(writer, error.http_status,
                                         error.to_document())
        except _CLOSE_QUIETLY:
            # Not re-raised: this is the whole task body, and before Python
            # 3.12 the stream logs a cancelled handler as an unhandled error.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, List[str]], bytes]:
        try:
            request_line = await reader.readline()
        except (ValueError, OSError) as exc:
            raise ProtocolError(f"unreadable request line: {exc}") from exc
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ProtocolError("malformed HTTP request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):  # the headers + a blank line
            try:
                line = await reader.readline()
            except ValueError as exc:  # longer than the stream limit
                raise ProtocolError(f"unreadable header line: {exc}") from exc
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError(f"more than {MAX_HEADER_LINES} header lines")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise ProtocolError("invalid Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return method.upper(), split.path, parse_qs(split.query), body

    async def _respond_json(self, writer: asyncio.StreamWriter, status: int,
                            document: Dict[str, Any]) -> None:
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        writer.write(self._head(status, "application/json",
                                extra=f"Content-Length: {len(payload)}\r\n"))
        writer.write(payload)
        await writer.drain()

    @staticmethod
    def _head(status: int, content_type: str, extra: str = "") -> bytes:
        reasons = {200: "OK", 201: "Created", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   409: "Conflict", 429: "Too Many Requests",
                   500: "Internal Server Error"}
        return (f"HTTP/1.1 {status} {reasons.get(status, 'Status')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Connection: close\r\n{extra}\r\n").encode("latin-1")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     query: Dict[str, List[str]], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        segments = [unquote(part) for part in path.split("/") if part]
        if method == "GET" and segments == ["healthz"]:
            await self._respond_json(writer, 200, {
                "ok": True, "protocol": PROTOCOL_VERSION,
                "workers": len(self.scheduler.workers),
                "jobs": len(self.queue.jobs)})
            return
        if segments and segments[0] == "workers":
            await self._route_workers(method, segments, writer)
            return
        if method == "POST" and segments == ["jobs"]:
            job = self.queue.submit(
                parse_submission(self._parse_body(body)))
            await self._respond_json(writer, 201, {"job": job.view()})
            return
        if method == "GET" and segments == ["jobs"]:
            tenant = (query.get("tenant") or [None])[0]
            views = [job.view() for job in self.queue.list_jobs(tenant)]
            await self._respond_json(writer, 200, {"jobs": views})
            return
        if method == "GET" and len(segments) >= 2 and segments[0] == "jobs":
            job = self.queue.get(segments[1])
            if len(segments) == 2:
                await self._respond_json(writer, 200, {"job": job.view()})
                return
            if segments[2:] == ["result"]:
                await self._respond_result(job, query, writer)
                return
            if segments[2:] == ["events"]:
                await self._respond_events(job, query, writer)
                return
            if segments[2:] == ["trace"]:
                await self._respond_trace(job, writer)
                return
        raise ProtocolError(f"no route for {method} {path}")

    async def _route_workers(self, method: str, segments: List[str],
                             writer: asyncio.StreamWriter) -> None:
        if method == "GET" and segments == ["workers"]:
            await self._respond_json(writer, 200,
                                     {"workers": self.scheduler.views()})
            return
        if method == "POST" and len(segments) == 3 \
                and segments[2] in ("drain", "undrain"):
            action = getattr(self.scheduler, segments[2])
            worker = action(segments[1])
            await self._respond_json(writer, 200, {"worker": worker.view()})
            return
        raise ProtocolError(f"no route for {method} /{'/'.join(segments)}")

    def _parse_body(self, body: bytes) -> Dict[str, Any]:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ProtocolError("request body must be a JSON object")
        return document

    # ------------------------------------------------------------------
    # per-route responders
    # ------------------------------------------------------------------
    async def _respond_result(self, job, query: Dict[str, List[str]],
                              writer: asyncio.StreamWriter) -> None:
        if (query.get("wait") or ["0"])[0] in ("1", "true"):
            timeout = _number((query.get("timeout") or [DEFAULT_WAIT_S])[0],
                              "timeout")
            done = await self.queue.wait(
                lambda: job.state in ("done", "failed"), timeout=timeout)
            if not done:
                raise NotReady(f"job {job.id} still {job.state} after "
                               f"{timeout}s")
        view: Dict[str, Any] = {"id": job.id, "state": job.state,
                                "results": job.results()}
        if job.error is not None:
            view["error"] = job.error
        await self._respond_json(writer, 200, view)

    async def _respond_events(self, job, query: Dict[str, List[str]],
                              writer: asyncio.StreamWriter) -> None:
        since = int(_number((query.get("since") or ["0"])[0], "since"))
        follow = (query.get("follow") or ["0"])[0] in ("1", "true")
        if not follow:
            await self._respond_json(
                writer, 200, {"events": self.queue.events_since(job, since)})
            return
        # Chunked JSONL: one event per chunk, streamed as they happen,
        # ending once the job reaches a terminal state.
        writer.write(self._head(200, "application/jsonl",
                                extra="Transfer-Encoding: chunked\r\n"))
        await writer.drain()
        cursor = since
        while True:
            for event in self.queue.events_since(job, cursor):
                cursor = event["seq"]
                await self._write_chunk(writer, encode_line(event))
            if job.state in ("done", "failed"):
                break
            await self.queue.wait(
                lambda: job.events and job.events[-1]["seq"] > cursor,
                timeout=10.0)
        await self._write_chunk(writer, b"")  # terminating chunk
        await writer.drain()

    async def _respond_trace(self, job,
                             writer: asyncio.StreamWriter) -> None:
        if not job.trace_requested:
            raise NotReady(
                f"job {job.id} was not submitted with \"trace\": true")
        if job.state not in ("done", "failed"):
            raise NotReady(f"job {job.id} is still {job.state}; the trace "
                           f"is written when it finishes")
        merged = self.merged_trace(job)
        writer.write(self._head(200, "application/json",
                                extra="Transfer-Encoding: chunked\r\n"))
        # Stream the (potentially large) trace in bounded chunks.
        payload = json.dumps(merged).encode("utf-8")
        for offset in range(0, len(payload), 64 * 1024):
            await self._write_chunk(writer, payload[offset:offset + 64 * 1024])
        await self._write_chunk(writer, b"")
        await writer.drain()

    def merged_trace(self, job) -> Dict[str, Any]:
        """One Perfetto document for the whole job, units concatenated.

        Every unit ran on its own simulator, so their span/counter pids
        never collide (the exporter keys tracks by recorder); the merged
        stream is loadable in ui.perfetto.dev as-is.
        """
        merged: Dict[str, Any] = {"displayTimeUnit": "ns",
                                  "traceEvents": []}
        for unit in job.units:
            if unit.trace:
                merged["traceEvents"].extend(
                    unit.trace.get("traceEvents", []))
        return merged

    @staticmethod
    async def _write_chunk(writer: asyncio.StreamWriter,
                           chunk: bytes) -> None:
        writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk
                     + b"\r\n")
        await writer.drain()


# ----------------------------------------------------------------------
# background harness (tests, notebooks): loop in a daemon thread
# ----------------------------------------------------------------------
class BackgroundService:
    """A running service on its own event-loop thread.

    The test suite and interactive sessions drive the service through
    the blocking :class:`~repro.service.client.ServiceClient`; this
    harness hides the asyncio plumbing behind ``start()``/``stop()``.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 **overrides: Any) -> None:
        self.server = ServiceServer(config, **overrides)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "service not started"
        return self.server.port

    def start(self) -> "BackgroundService":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-loop")
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        if not self._started.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surfaced on the starting thread
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
