"""Span recorder for the traced run, and the per-layer metrics computed from
its spans.

The recorder wraps the public functions of each ``sgmarket`` module from
outside; nothing in ``src/`` changes. A span is ``{name, start, end, parent,
job_id}`` plus a few attributes. Parents come from a per-thread stack, so
they never cross the broker's quote pool threads or the RPC server threads;
spans of one job are tied together by ``job_id``, which every per-job call
carries. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import socket
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from metrics import percentile, self_time


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job_id: str | None
    attrs: dict[str, Any] | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        out = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job_id": self.job_id,
        }
        out.update(self.attrs or {})
        return out


Describe = Callable[..., "tuple[str | None, dict[str, Any] | None]"]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        describe: Describe | None = None,
        outcome: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call. ``describe`` maps the call's
        arguments to its job_id and attributes; a span without a job_id
        takes its parent's. ``outcome`` adds attributes from the result."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent, parent_job = stack[-1] if stack else (None, None)
            job_id, attrs = describe(*args, **kwargs) if describe else (None, None)
            if job_id is None:
                job_id = parent_job
            span_id = next(ids)
            stack.append((span_id, job_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    attrs = {**(attrs or {}), **outcome(result)}
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, job_id, attrs))

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")


def _params_job(params: Any) -> str | None:
    if not isinstance(params, Mapping):
        return None
    spec = params.get("spec")
    if isinstance(spec, Mapping):
        return spec.get("job_id")
    return params.get("job_id")


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced boundary. Call before ``MarketRuntime`` is built."""
    from sgmarket import bank, broker, client, domain, frontend, harness, wire

    wrap = recorder.wrap
    rpc_call = wire.rpc_call

    def describe_rpc(address, method, params=None, *args, **kwargs):
        return _params_job(params), {"address": address, "method": method}

    wire.rpc_call = wrap("wire.rpc_call", rpc_call, describe_rpc)
    wire.encode_message = wrap("wire.encode", wire.encode_message)
    wire.decode_message = wrap("wire.decode", wire.decode_message)
    # rpc_call opens one connection per call through this function; shutdown
    # wake-ups use it too, but those fall outside the measured run.
    socket.create_connection = wrap("wire.connect", socket.create_connection)

    serve = wire.serve

    def traced_serve(bind, handlers):
        bound: list[str] = []

        def handler_span(method, handler):
            def describe(params):
                return _params_job(params), {"method": method, "address": bound[0]}

            return wrap("wire.handler", handler, describe)

        server = serve(bind, {m: handler_span(m, h) for m, h in handlers.items()})
        bound.append(server.address)
        return server

    wire.serve = traced_serve

    client.ClientSession.submit_job = wrap(
        "client.submit_job",
        client.ClientSession.submit_job,
        lambda self, spec: (spec.job_id, None),
    )
    broker.BrokerCore.find_cluster = wrap(
        "broker.find_cluster",
        broker.BrokerCore.find_cluster,
        lambda self, spec: (spec.job_id, None),
    )

    def describe_quote(self, spec):
        held = len(self.scheduler.queue) + len(self.scheduler.running)
        return spec.job_id, {"held": held}

    frontend.FrontendCore.quote = wrap(
        "frontend.quote",
        frontend.FrontendCore.quote,
        describe_quote,
        lambda result: {"bid": isinstance(result, domain.Bid)},
    )
    frontend.FrontendCore.submit = wrap(
        "frontend.submit",
        frontend.FrontendCore.submit,
        lambda self, spec, *args, **kwargs: (spec.job_id, None),
    )
    frontend.FrontendCore.tick = wrap("frontend.tick", frontend.FrontendCore.tick)
    frontend.SchedulerCore.tick = wrap(
        "scheduler.tick",
        frontend.SchedulerCore.tick,
        lambda self, dt: (None, {"dt": dt}),
    )

    def describe_bank(self, *args, job_id=None, **kwargs):
        return job_id, None

    for method, name in (
        ("hold_escrow", "bank.hold"),
        ("settle_escrow", "bank.settle"),
        ("verify_escrow", "bank.verify"),
        ("audit", "bank.audit"),
    ):
        setattr(bank.BankCore, method, wrap(name, getattr(bank.BankCore, method), describe_bank))

    # validate_jobspec is imported by name, so each importing module holds
    # its own reference.
    validate = wrap(
        "domain.validate_jobspec",
        domain.validate_jobspec,
        lambda raw: (_params_job({"spec": raw}), None),
    )
    for module in (broker, frontend, client):
        module.validate_jobspec = validate

    harness.MarketRuntime.run = wrap("harness.run", harness.MarketRuntime.run)


US = 1e6

LAYER_UNITS = {
    "wire.rpc_calls_per_job": "count",
    "wire.connects_per_job": "count",
    "wire.rpc_call_p50_us": "us",
    "wire.rpc_overhead_p50_us": "us",
    "wire.encode_p50_us": "us",
    "wire.decode_p50_us": "us",
    "broker.find_cluster_p50_us": "us",
    "broker.find_cluster_p90_us": "us",
    "broker.quotes_per_find": "count",
    "broker.bid_ratio": "ratio",
    "broker.fanout_self_us": "us",
    "broker.threads_peak": "count",
    "frontend.quote_p50_us": "us",
    "frontend.jobs_held_mean": "count",
    "frontend.quotes_used_ratio": "ratio",
    "frontend.submit_self_p50_us": "us",
    "frontend.tick_p50_us": "us",
    "scheduler.tick_us_per_vsec": "us",
    "bank.hold_p50_us": "us",
    "bank.settle_p50_us": "us",
    "bank.verify_p50_us": "us",
    "bank.audit_p50_us": "us",
    "bank.escrows_at_audit": "count",
    "domain.validate_jobspec_p50_us": "us",
    "client.submit_self_us": "us",
    "client.rpcs_per_submit": "count",
    "harness.advance_share": "ratio",
}


def _p(values: list[float], q: float) -> float:
    return percentile(values, q) * US


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def _rpc_overheads(rpcs: list[Span], handlers: list[Span]) -> list[float]:
    """Each RPC's time minus the time of the handler that served it: the
    handler span for the same address and method that starts and ends
    inside the call. Callers never have two calls to one address and method
    in flight at once, so the match is unique."""
    by_target: dict[tuple[str, str], list[Span]] = defaultdict(list)
    for span in handlers:
        by_target[(span.attrs["address"], span.attrs["method"])].append(span)
    starts: dict[tuple[str, str], list[float]] = {}
    for key, group in by_target.items():
        group.sort(key=lambda s: s.start)
        starts[key] = [s.start for s in group]
    overheads = []
    for rpc in rpcs:
        key = (rpc.attrs["address"], rpc.attrs["method"])
        group = by_target.get(key)
        if not group:
            continue
        i = bisect.bisect_left(starts[key], rpc.start)
        if i < len(group) and group[i].end <= rpc.end:
            overheads.append(rpc.duration - group[i].duration)
    return overheads


def layer_metrics(spans: list[Span], accepted: int, threads_peak: int) -> dict[str, float]:
    """Per-layer numbers from one traced repetition. Only spans inside the
    ``harness.run`` span count, so set-up and shutdown are left out."""
    (run,) = [s for s in spans if s.name == "harness.run"]
    inside = [s for s in spans if s.start >= run.start and s.end <= run.end and s is not run]
    named: dict[str, list[Span]] = defaultdict(list)
    for span in inside:
        named[span.name].append(span)
    children = _children(inside)

    def durations(name: str) -> list[float]:
        return [s.duration for s in named[name]]

    def own_time(span: Span) -> float:
        return self_time(span.start, span.end, [(c.start, c.end) for c in children[span.id]])

    rpcs = named["wire.rpc_call"]
    quote_rpcs = [s for s in rpcs if s.attrs["method"] == "node.quote"]
    quotes_by_job: dict[str | None, list[Span]] = defaultdict(list)
    for span in quote_rpcs:
        quotes_by_job[span.job_id].append(span)
    finds = named["broker.find_cluster"]
    fanout_self = [
        self_time(f.start, f.end, [(q.start, q.end) for q in quotes_by_job[f.job_id]])
        for f in finds
    ]
    quotes = named["frontend.quote"]
    submits = named["client.submit_job"]
    ticks = named["scheduler.tick"]
    holds_done = sorted(s.end for s in spans if s.name == "bank.hold")
    audits = named["bank.audit"]
    return {
        "wire.rpc_calls_per_job": len(rpcs) / accepted,
        "wire.connects_per_job": len(named["wire.connect"]) / accepted,
        "wire.rpc_call_p50_us": _p(durations("wire.rpc_call"), 50),
        "wire.rpc_overhead_p50_us": _p(_rpc_overheads(rpcs, named["wire.handler"]), 50),
        "wire.encode_p50_us": _p(durations("wire.encode"), 50),
        "wire.decode_p50_us": _p(durations("wire.decode"), 50),
        "broker.find_cluster_p50_us": _p(durations("broker.find_cluster"), 50),
        "broker.find_cluster_p90_us": _p(durations("broker.find_cluster"), 90),
        "broker.quotes_per_find": len(quote_rpcs) / len(finds),
        "broker.bid_ratio": sum(1 for q in quotes if q.attrs["bid"]) / len(quotes),
        "broker.fanout_self_us": _p(fanout_self, 50),
        "broker.threads_peak": threads_peak,
        "frontend.quote_p50_us": _p(durations("frontend.quote"), 50),
        "frontend.jobs_held_mean": sum(q.attrs["held"] for q in quotes) / len(quotes),
        "frontend.quotes_used_ratio": len(named["frontend.submit"]) / len(quotes),
        "frontend.submit_self_p50_us": _p([own_time(s) for s in named["frontend.submit"]], 50),
        "frontend.tick_p50_us": _p(durations("frontend.tick"), 50),
        "scheduler.tick_us_per_vsec": sum(s.duration for s in ticks) * US
        / max(1, sum(s.attrs["dt"] for s in ticks)),
        "bank.hold_p50_us": _p(durations("bank.hold"), 50),
        "bank.settle_p50_us": _p(durations("bank.settle"), 50),
        "bank.verify_p50_us": _p(durations("bank.verify"), 50),
        "bank.audit_p50_us": _p(durations("bank.audit"), 50),
        "bank.escrows_at_audit": sum(bisect.bisect_right(holds_done, a.start) for a in audits)
        / len(audits),
        "domain.validate_jobspec_p50_us": _p(durations("domain.validate_jobspec"), 50),
        "client.submit_self_us": _p([own_time(s) for s in submits], 50),
        "client.rpcs_per_submit": sum(
            sum(1 for c in children[s.id] if c.name == "wire.rpc_call") for s in submits
        )
        / len(submits),
        "harness.advance_share": 1 - sum(s.duration for s in submits) / run.duration,
    }
