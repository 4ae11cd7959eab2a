"""Spans around the repo's public calls, for the traced benchmark run.

The traced run never edits the program: it replaces a few public
attributes with wrappers that record one span per call and otherwise call
straight through.  A span is ``(id, parent, name, start, end, rid, extra)``:

* ``parent`` is the span open on the same thread when this one began, so a
  layer's *self time* is its duration minus the durations of its direct
  children (children on one thread never overlap);
* ``rid`` is the request id shared by every span of one service request —
  the client wrapper adds it to the request as an extra ``rid`` field (the
  registry ignores fields an op does not read) and the server wrapper reads
  it back out of the request line;
* ``extra`` carries per-call details: the op of a ``handle_line`` and the
  tuner-phase seconds an ``ask`` spent, read from the public
  ``TuningSession.phase_timings`` before and after the call.

Spans stay in memory and are written once, when the process ends.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

_OP_RE = re.compile(r'"op":\s*"([A-Za-z_]+)"')
_RID_RE = re.compile(r'"rid":\s*(\d+)')


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._rids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable, args: tuple, kwargs: dict,
               rid: Any = None, extra: Callable[[], dict] | None = None,
               after: Callable[[dict], None] | None = None) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``extra`` runs before the call and returns the span's detail dict;
        ``after`` runs after it and may complete that dict.
        """
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        rid = parent_rid if rid is None else rid
        details = extra() if extra is not None else None
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if after is not None:
                after(details)
            self.spans.append((span_id, parent, name, start, end, rid, details))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def next_rid(self) -> int:
        return next(self._rids)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_spans(path: Path) -> list[tuple]:
    return [tuple(span) for span in json.loads(path.read_text())]


# ---------------------------------------------------------------------------
# wraps
# ---------------------------------------------------------------------------

def _phase_delta(session: Any, details: dict) -> None:
    timings = session.phase_timings
    before = details.pop("_before")
    details["phase_s"] = {
        name: seconds - before["seconds"].get(name, 0.0)
        for name, seconds in timings["seconds"].items()
    }
    details["phase_calls"] = {
        name: calls - before["calls"].get(name, 0)
        for name, calls in timings["calls"].items()
    }


def wrap_session(tracer: Tracer) -> None:
    """Spans around ``TuningSession.ask`` / ``tell`` / ``restore``."""
    from repro.core.session import TuningSession

    ask, tell = TuningSession.ask, TuningSession.tell
    restore = TuningSession.__dict__["restore"].__func__

    def traced_ask(self, *args, **kwargs):
        return tracer.record(
            "session.ask", ask, (self, *args), kwargs,
            extra=lambda: {"_before": self.phase_timings},
            after=lambda details: _phase_delta(self, details),
        )

    def traced_tell(self, *args, **kwargs):
        return tracer.record("session.tell", tell, (self, *args), kwargs)

    def traced_restore(cls, *args, **kwargs):
        return tracer.record("session.restore", restore, (cls, *args), kwargs)

    tracer.patch(TuningSession, "ask", traced_ask)
    tracer.patch(TuningSession, "tell", traced_tell)
    tracer.patch(TuningSession, "restore", classmethod(traced_restore))


def wrap_server(tracer: Tracer) -> None:
    """Spans for the server process: registry, session, and checkpoint I/O.

    The registry imports ``save_session`` / ``load_session`` from the
    runner module at call time, so patching the module attributes is seen.
    """
    from repro.experiments import runner
    from repro.service import SessionRegistry

    handle_line = SessionRegistry.handle_line

    def traced_handle_line(self, line):
        rid = _RID_RE.search(line)
        op = _OP_RE.search(line)
        return tracer.record(
            "service.handle_line", handle_line, (self, line), {},
            rid=int(rid.group(1)) if rid else -1,
            extra=lambda: {"op": op.group(1) if op else "?"},
        )

    tracer.patch(SessionRegistry, "handle_line", traced_handle_line)
    for attr, name in (("save_session", "runner.save"), ("load_session", "runner.load")):
        original = getattr(runner, attr)

        def traced(*args, _fn=original, _name=name, **kwargs):
            return tracer.record(_name, _fn, args, kwargs)

        tracer.patch(runner, attr, traced)
    wrap_session(tracer)


def wrap_client(tracer: Tracer) -> None:
    """Spans around ``TuningClient.call``, tagging each request with a rid."""
    from repro.client import TuningClient

    call = TuningClient.call

    def traced_call(self, op, **fields):
        rid = tracer.next_rid()
        fields["rid"] = rid
        return tracer.record("client.call", call, (self, op), fields, rid=rid)

    tracer.patch(TuningClient, "call", traced_call)


def wrap_evaluator(tracer: Tracer, benchmark: Any) -> None:
    """A span around one benchmark's black box (an instance attribute)."""
    evaluator = benchmark.evaluator

    def traced(configuration):
        return tracer.record("workloads.eval", evaluator, (configuration,), {})

    tracer.patch(benchmark, "evaluator", traced)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {span[0]: span[4] - span[3] - child_time[span[0]] for span in spans}


def layer_metrics(client_spans: list[tuple], server_spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals, means and ratios from one traced run.

    ``client_spans`` come from the benchmark process (client calls and the
    black box); ``server_spans`` from the server process.
    """
    spans = client_spans + server_spans
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name])

    def mean_ms(name: str) -> float:
        count = len(by_name[name])
        return 1e3 * total(name) / count if count else 0.0

    out: dict[str, float] = {}
    asks = by_name["session.ask"]
    ask_s = total("session.ask")
    phase_s: dict[str, float] = defaultdict(float)
    phase_calls: dict[str, int] = defaultdict(int)
    for span in asks:
        for phase, seconds in span[6]["phase_s"].items():
            phase_s[phase] += seconds
        for phase, calls in span[6]["phase_calls"].items():
            phase_calls[phase] += calls
    for phase, layer in (("fit", "models.fit"), ("predict", "models.predict"),
                         ("climb", "local_search.climb"), ("sample", "space.sample"),
                         ("ei", "acquisition.ei")):
        out[f"{layer}_s"] = phase_s[phase]
        out[f"{layer}_calls"] = phase_calls[phase]
    attributed = sum(phase_s.values())
    out["session.asks"] = len(asks)
    out["session.ask_s"] = ask_s
    out["models.fit_frac"] = phase_s["fit"] / ask_s if ask_s else 0.0
    out["session.ask_self_ms"] = 1e3 * (ask_s - attributed) / len(asks) if asks else 0.0
    out["ask.unattributed_frac"] = (ask_s - attributed) / ask_s if ask_s else 0.0
    out["session.tell_ms"] = mean_ms("session.tell")

    handles = by_name["service.handle_line"]
    per_op: dict[str, list[float]] = defaultdict(list)
    for span in handles:
        per_op[span[6]["op"]].append(span[4] - span[3])
    for op in ("start", "ask", "tell", "status", "snapshot", "close"):
        values = per_op.get(op, [])
        out[f"service.handle_ms.{op}"] = 1e3 * sum(values) / len(values) if values else 0.0
    server_self = self_times(server_spans)
    handle_self = [server_self[s[0]] for s in handles]
    out["service.overhead_ms"] = 1e3 * sum(handle_self) / len(handles) if handles else 0.0
    handle_by_rid = {s[5]: s[4] - s[3] for s in handles}
    gaps = [
        (s[4] - s[3]) - handle_by_rid[s[5]]
        for s in by_name["client.call"] if s[5] in handle_by_rid
    ]
    out["wire.rtt_overhead_ms"] = 1e3 * sum(gaps) / len(gaps) if gaps else 0.0

    out["runner.saves"] = len(by_name["runner.save"])
    out["runner.save_ms"] = mean_ms("runner.save")
    out["runner.loads"] = len(by_name["runner.load"])
    out["runner.load_ms"] = mean_ms("runner.load")
    out["session.restore_ms"] = mean_ms("session.restore")
    out["service.reloads_per_op"] = len(by_name["runner.load"]) / len(handles) if handles else 0.0
    out["workloads.eval_ms"] = mean_ms("workloads.eval")
    return out
