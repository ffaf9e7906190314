"""Benchmark-side tracing: spans around public calls, and a package profile.

Nothing under ``src/`` carries a hook for this.  The benchmark wraps each
call it makes into the program in a span (name, start, end, parent,
round and unit id), keeps the spans in memory and writes them at exit as
Chrome trace-event JSON, which Perfetto opens the same way it opens
``repro.obs`` traces.  The per-package split of *where the program
spends its time and calls* comes from one cProfile'd round, attributed
to packages by ``co_filename``.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class NullRecorder:
    """Recorder used by untraced rounds: every span is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        yield


class SpanRecorder:
    """In-memory span log; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Spans opened from now on carry this label; the driver sets it
        #: per block (``traced-0``, ``probes``).
        self.block = ""

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        record: Dict[str, Any] = {
            "name": name, "block": self.block, "args": args,
            "parent": stack[-1]["id"] if stack else None,
            "tid": threading.get_ident(), "start": time.perf_counter()}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> List[Dict[str, Any]]:
        return [span for span in self.spans
                if span["name"] == name and "end" in span]

    def to_chrome(self, factor: float) -> Dict[str, Any]:
        """Chrome trace-event document (complete ``X`` events, µs);
        ``factor`` turns a ``dur`` into calibrated time."""
        tids = {tid: index for index, tid in enumerate(
            sorted({span["tid"] for span in self.spans}))}
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = []
        for span in self.spans:
            if "end" not in span:
                continue
            args = dict(span["args"], id=span["id"], parent=span["parent"],
                        block=span["block"], cal_factor=factor)
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "pid": 1, "tid": tids[span["tid"]],
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6, "args": args})
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write(self, path: Path, factor: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome(factor)))


# ----------------------------------------------------------------------
# package profile
# ----------------------------------------------------------------------

#: ``src/repro`` sub-package -> reported layer.  ``obs`` is the whole
#: observation stack (it should cost nothing with capture off).
_LAYER_OF = {
    "core": "core", "interconnect": "interconnect", "bridge": "bridge",
    "memory": "memory", "traffic": "traffic", "platforms": "platforms",
    "service": "service", "snapshot": "snapshot", "dse": "dse",
    "sweep.py": "sweep", "obs": "obs", "analysis": "obs", "check": "obs",
}

LAYERS = ("core", "interconnect", "bridge", "memory", "traffic", "obs",
          "platforms", "sweep", "service", "snapshot", "dse", "stdlib",
          "other")

#: Standard-library sub-buckets reported beside the ``stdlib`` total.
_STDLIB_BUCKETS = {
    "pickle": ("pickle.py", "multiprocessing/reduction.py",
               "multiprocessing/connection.py", "multiprocessing/queues.py",
               "copyreg.py"),
    "json": ("json/",),
    "asyncio_http": ("asyncio/", "http/", "selectors.py", "socket.py",
                     "urllib/", "email/"),
}


def _classify(filename: str, repro_root: str, own_root: str):
    """``(layer, stdlib_bucket)`` of a code object's file."""
    if filename.startswith(repro_root):
        head = filename[len(repro_root):].lstrip(os.sep).split(os.sep)[0]
        return _LAYER_OF.get(head, "other"), None
    if filename.startswith(own_root):
        return "other", None
    normal = filename.replace(os.sep, "/")
    for bucket, needles in _STDLIB_BUCKETS.items():
        if any(needle in normal for needle in needles):
            return "stdlib", bucket
    return "stdlib", None


class PackageProfile:
    """cProfile every thread started inside the ``with`` block.

    ``cProfile`` only sees the thread that enabled it, and the service
    simulates on executor threads, so a ``threading.setprofile`` hook
    gives each new thread its own profiler on its first event.  Counts
    are exact (one per frame entry: a call for a plain function, a
    resume for a generator); times are wall time, or per-thread CPU time
    with ``cpu_time`` — needed when threads spend most of their life
    blocked, which would otherwise be billed to the stdlib call they
    block in.
    """

    def __init__(self, cpu_time: bool = False) -> None:
        self._repro_root = str(REPO / "src" / "repro")
        self._own_root = str(HERE)
        self._timer = time.thread_time if cpu_time else None
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new_profile(self) -> cProfile.Profile:
        profile = (cProfile.Profile(self._timer) if self._timer
                   else cProfile.Profile())
        with self._lock:
            self._profiles.append(profile)
        return profile

    def _thread_hook(self, frame, event, arg) -> None:
        # Replaces this hook as the thread's profile function.
        self._new_profile().enable()

    def __enter__(self) -> "PackageProfile":
        threading.setprofile(self._thread_hook)
        self._new_profile().enable()
        return self

    def __exit__(self, *_exc: Any) -> None:
        threading.setprofile(None)
        for profile in self._profiles:
            # Stops this thread's profiler (the first in the list) and
            # flushes the frames still open on the other, now idle ones.
            profile.disable()

    def attribute(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s`` / ``calls`` / ``resumes``, plus stdlib
        sub-buckets under ``stdlib.<bucket>`` (``self_s`` only).

        A builtin's own time is billed to the layer of the Python
        function that called it (``heappush`` from the kernel is kernel
        time), since builtins have no file of their own.
        """
        table: Dict[str, Dict[str, float]] = {
            layer: {"self_s": 0.0, "calls": 0, "resumes": 0}
            for layer in LAYERS}
        for bucket in _STDLIB_BUCKETS:
            table[f"stdlib.{bucket}"] = {"self_s": 0.0}
        # Everything under src/repro, whichever layer it was billed to.
        table["repro"] = {"self_s": 0.0, "calls": 0, "resumes": 0}
        for profile in self._profiles:
            for entry in profile.getstats():
                code = entry.code
                if isinstance(code, str):
                    continue  # billed through its callers below
                layer, bucket = _classify(code.co_filename,
                                          self._repro_root, self._own_root)
                own = entry.inlinetime
                for sub in entry.calls or ():
                    if isinstance(sub.code, str):
                        own += sub.inlinetime
                rows = [table[layer]]
                if code.co_filename.startswith(self._repro_root):
                    rows.append(table["repro"])
                kind = ("resumes" if code.co_flags & inspect.CO_GENERATOR
                        else "calls")
                for row in rows:
                    row["self_s"] += own
                    row[kind] += entry.callcount
                if bucket is not None:
                    table[f"stdlib.{bucket}"]["self_s"] += own
        return table


def shares(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Percent of total self time per layer (and stdlib sub-bucket)."""
    total = sum(table[layer]["self_s"] for layer in LAYERS) or 1.0
    return {name: 100.0 * row["self_s"] / total
            for name, row in table.items()}


def repro_calls(table: Dict[str, Dict[str, float]]) -> int:
    """Calls plus generator resumes into code under ``src/repro``."""
    return int(table["repro"]["calls"] + table["repro"]["resumes"])
