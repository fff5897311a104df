"""The per-cluster front-end: prices jobs, accepts escrow-backed submissions,
and runs them on a simulated batch scheduler.

Pricing is load-sensitive: the committed node-seconds of running and queued
work raise the offered price, so lightly loaded clusters underbid busy ones.
A job's price is its cost under the rate card the front-end registers with
the broker, times the load factor ``1 + load_coefficient * committed /
(capacity_nodes * HORIZON_S)``; the card is the one the broker bounds the
cluster's bids with. A coefficient of 0 prices flat, whatever the load.
The scheduler is strict FIFO with head-of-line blocking; if the queue head
does not fit in the free nodes, nothing behind it starts. So it fixes each
job's start when the job arrives, and reads a job's state from its times.

Pricing is exact: the rational price formula is carried as one integer
numerator and denominator and rounded up to whole millicredits once, at the
end. A quote costs the same however many jobs a front-end holds and leaves
nothing behind: like a SYN cookie, its bid token carries its terms under a
MAC only this front-end can make. A tick costs only the starts and
completions it pops.
``sg-node`` is :func:`start_service` under :func:`wire.run_service`.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import heapq
import logging
import secrets
import sys
import threading
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from . import wire
from .clock import VirtualClock, WallClock
from .domain import (
    Bid,
    ClusterDescriptor,
    JOB_COMPLETED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobSpec,
    NO_BID_PRICE_ABOVE_MAX,
    ServiceError,
    ValidationError,
    check_address,
    check_int,
    check_ratio,
    price_at,
    refusal_reason,
    reject_unknown,
    validate_jobspec,
)

log = logging.getLogger(__name__)

DEFAULT_LISTEN = "127.0.0.1:7710"
QUOTE_TTL_S = 60  # a quote's life, and how long it then answers QuoteExpired
ANNOUNCE_TTL_S = 60  # the lease each announcement asks of the broker; renewed at half
HORIZON_S = 3600  # seconds of work on every node that make a load ratio of 1
TICK_INTERVAL_S = 0.1  # how often ``sg-node``'s ticker catches up with its clock
BANK_TIMEOUT_MS = 5000  # how long a front-end waits on each call to its bank

# The descriptor fields a front-end's config gives as they are announced:
# its identity and its rate card.
_CARD = (
    "cluster_id",
    "capacity_nodes",
    "capabilities",
    "payee_account",
    "base_rate",
    "feature_multipliers",
)


class QuoteExpired(ServiceError):
    name = "QuoteExpired"


class UnknownQuote(ServiceError):
    name = "UnknownQuote"


class EscrowInvalid(ServiceError):
    name = "EscrowInvalid"


class UnknownJob(ServiceError):
    name = "UnknownJob"


class DuplicateJob(ServiceError):
    name = "DuplicateJob"


def load_factor(coefficient: Fraction, load_ratio: Fraction) -> tuple[int, int]:
    """``1 + coefficient * load_ratio`` as an exact ``(p, q)``: the factor a
    price applies to the rate-card cost at this load ratio."""
    q = coefficient.denominator * load_ratio.denominator
    return q + coefficient.numerator * load_ratio.numerator, q


def parse_load_coefficient(value: Any) -> Fraction:
    """A config's ``load_coefficient``: an integer or a ``[p, q]`` pair, at
    least 0."""
    if isinstance(value, (list, tuple)):
        return Fraction(*check_ratio("load_coefficient", value, 0))
    return Fraction(check_int("load_coefficient", value, minimum=0))


@dataclass
class _JobRecord:
    job_id: str
    nodes: int
    walltime_s: int
    submitted_at: int
    start: int | None  # None: never, behind a job wider than the cluster
    escrow_id: str | None = None

    def status(self, clock: int) -> dict[str, Any]:
        """The job's ``node.status`` object at ``clock``: it has started once
        the clock has passed its start, and finished once the clock has
        reached its end."""
        status: dict[str, Any] = {"state": JOB_QUEUED, "submitted_at": self.submitted_at}
        if self.start is None or clock <= self.start:
            return status
        end = self.start + self.walltime_s
        if clock < end:
            return status | {"state": JOB_RUNNING, "started_at": self.start}
        return status | {
            "state": JOB_COMPLETED, "started_at": self.start, "finished_at": end, "exit_code": 0
        }


class SchedulerCore:
    """Event-driven FIFO batch scheduler over a fixed node pool.

    Time is whole virtual seconds. Strict FIFO knows every start when the
    job arrives: ``enqueue`` fixes it at the earliest time, no earlier than
    now or the previous job's start, at which the earlier jobs still running
    then leave room. ``tick`` pops the starts and completions that fall
    due, completions first at each time point, and a job's state is read
    from its times. Jobs never execute anything; the command is recorded
    and the job occupies its nodes for exactly its walltime.

    Running totals of used nodes, nodes x end time over running jobs, and
    queued nodes and node-seconds make the load O(1); ``recount`` is the
    O(jobs) cross-check.
    """

    def __init__(self, capacity_nodes: int):
        self.capacity_nodes = check_int("capacity_nodes", capacity_nodes, minimum=1)
        self.clock = 0
        self.queue: deque[str] = deque()
        self.running: set[str] = set()
        self.jobs: dict[str, _JobRecord] = {}
        # heap of (time, 0 = end | 1 = start, enqueue order, job_id)
        self._due: list[tuple[int, int, int, str]] = []
        # Sorted (end, nodes) of reserved jobs that end after the last
        # start, and the sum of their nodes: all that can delay the next.
        self._ends: list[tuple[int, int]] = []
        self._ends_nodes = 0
        self._last_start: int | None = 0
        self._used = 0
        self._running_end_sum = 0
        self._queued_nodes = 0
        self._queued_node_seconds = 0

    def used_nodes(self) -> int:
        return self._used

    def held_nodes(self) -> int:
        """Nodes of every running and queued job."""
        return self._used + self._queued_nodes

    def committed_node_seconds(self) -> int:
        """Remaining node-seconds of running work plus all queued work.
        Exact because every running job ends after ``clock`` between ticks."""
        return self._running_end_sum - self._used * self.clock + self._queued_node_seconds

    def recount(self) -> tuple[int, int]:
        """``(used_nodes, committed_node_seconds)`` recounted from every held
        job, to cross-check the running totals."""
        used = committed = 0
        for job_id in self.running:
            record = self.jobs[job_id]
            used += record.nodes
            committed += record.nodes * (record.start + record.walltime_s - self.clock)
        for job_id in self.queue:
            record = self.jobs[job_id]
            committed += record.nodes * record.walltime_s
        return used, committed

    def enqueue(self, job_id: str, nodes: int, walltime_s: int) -> None:
        if job_id in self.jobs:
            raise DuplicateJob(f"job {job_id!r} already submitted here")
        if walltime_s < 1:
            raise ValidationError("walltime_s", "must be >= 1")
        start = self._reserve(nodes, walltime_s)
        if start is not None:
            order = len(self.jobs)
            heapq.heappush(self._due, (start, 1, order, job_id))
            heapq.heappush(self._due, (start + walltime_s, 0, order, job_id))
        self.jobs[job_id] = _JobRecord(job_id, nodes, walltime_s, self.clock, start)
        self.queue.append(job_id)
        self._queued_nodes += nodes
        self._queued_node_seconds += nodes * walltime_s

    def _reserve(self, nodes: int, walltime_s: int) -> int | None:
        """The next job's start, or None if it never starts: a job wider
        than the cluster never does, nor does any job behind it. Every
        earlier job starts by the last start, so past it their usage only
        falls: a job that fits at its start fits for its whole walltime.
        Each end is walked once, then dropped."""
        if nodes > self.capacity_nodes:
            self._last_start = None
        if self._last_start is None:
            return None
        start = max(self.clock, self._last_start)
        ends, free = self._ends, self.capacity_nodes - self._ends_nodes
        passed = 0
        while passed < len(ends) and (ends[passed][0] <= start or free < nodes):
            start = max(start, ends[passed][0])
            free += ends[passed][1]
            passed += 1
        del ends[:passed]
        bisect.insort(ends, (start + walltime_s, nodes))
        self._ends_nodes = self.capacity_nodes - free + nodes
        self._last_start = start
        return start

    def status(self, job_id: str) -> dict[str, Any]:
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"no job {job_id!r}")
        return record.status(self.clock)

    def tick(self, dt: int) -> list[dict[str, Any]]:
        """Advance ``dt`` virtual seconds, returning lifecycle events: the
        completions up to the new time and the starts before it."""
        if dt < 0:
            raise ValidationError("dt", "must be >= 0")
        events: list[dict[str, Any]] = []
        self.clock += dt
        due = self._due
        # (time, kind, ...) < (clock, 1): ends at or before clock, starts before it
        while due and due[0] < (self.clock, 1):
            time, is_start, _, job_id = heapq.heappop(due)
            record = self.jobs[job_id]
            if is_start:
                self.queue.popleft()
                self.running.add(job_id)
                self._used += record.nodes
                self._running_end_sum += record.nodes * (time + record.walltime_s)
                self._queued_nodes -= record.nodes
                self._queued_node_seconds -= record.nodes * record.walltime_s
            else:
                self.running.remove(job_id)
                self._used -= record.nodes
                self._running_end_sum -= record.nodes * time
            kind = "STARTED" if is_start else "COMPLETED"
            events.append({"type": kind, "job_id": job_id, "time": time})
        assert self._used <= self.capacity_nodes
        return events


class FrontendCore:
    """Quote, submission, and settlement logic for one cluster.

    ``card`` is the descriptor the cluster registers, less its address: its
    identity, capacity, capabilities and rate card. Every price is
    ``price_at(card.cost(spec), load_factor(load_coefficient, load_ratio))``,
    so the front-end charges by the card the broker bounds it with. ``bank``
    is the bank's address, which each escrow check and settlement calls with
    ``wire.rpc_call``.

    All state (scheduler, job records, quote counter) is guarded by one
    lock; calls out to the bank happen outside it. Payments of completed jobs
    and refunds of rejected submissions share one settlement queue, retried
    while the bank times out, so a slow bank neither freezes the scheduler
    nor strands an escrow.
    """

    def __init__(
        self,
        card: ClusterDescriptor,
        cluster_secret: str,
        bank: str,
        load_coefficient: Fraction = Fraction(1),
    ):
        if load_coefficient < 0:
            raise ValidationError("load_coefficient", "must be >= 0")
        if not isinstance(cluster_secret, str) or not cluster_secret:
            raise ValidationError("cluster_secret", "must be a non-empty string")
        self.card = card
        self.load_coefficient = load_coefficient
        self.cluster_secret = cluster_secret
        self.bank = bank
        self.scheduler = SchedulerCore(card.capacity_nodes)
        self._lock = threading.RLock()
        self._quote_key = secrets.token_bytes(32)
        self._quote_seq = 0  # tells apart two quotes for the same terms
        # (escrow_id, job_id, outcome)
        self._pending_settlements: list[tuple[str, str, str]] = []

    # -- pricing ------------------------------------------------------------

    def load_ratio(self) -> Fraction:
        return Fraction(
            self.scheduler.committed_node_seconds(),
            self.scheduler.capacity_nodes * HORIZON_S,
        )

    def drain_ratio(self) -> Fraction:
        """The most ``load_ratio`` can fall per virtual second while no new
        work arrives. Committed node-seconds fall by the running nodes each
        second, and no more than every held node, or every node, can run."""
        capacity = self.scheduler.capacity_nodes
        return Fraction(
            min(capacity, self.scheduler.held_nodes()), capacity * HORIZON_S
        )

    def quote(self, spec: JobSpec) -> Bid | str:
        """A bid, or the reason there is none. The bid reports the load
        factor its price applied and how fast that factor can drain, so the
        broker can bound this cluster's later prices without asking."""
        with self._lock:
            card = self.card
            refusal = refusal_reason(spec, card.capabilities, card.capacity_nodes)
            if refusal is not None:
                return refusal
            load = load_factor(self.load_coefficient, self.load_ratio())
            price = price_at(card.cost(spec), load)
            if spec.max_price is not None and price > spec.max_price:
                return NO_BID_PRICE_ABOVE_MAX
            self._quote_seq += 1
            expires_at = self.scheduler.clock + QUOTE_TTL_S
            signed = f"{self._quote_seq}.{expires_at}.{price}"
            drain_p, drain_q = load_factor(self.load_coefficient, self.drain_ratio())
            return Bid(
                price=price,
                bid_token=f"{signed}.{self._quote_mac(spec, signed)}",
                payee_account=card.payee_account,
                load=load,
                drain=(drain_p - drain_q, drain_q),
            )

    def _quote_mac(self, spec: JobSpec, signed: str) -> str:
        """Tag over a token's ``<seq>.<expires_at>.<price>`` prefix and the
        job's terms; no field holds ``|``, so no two messages join alike."""
        features = ",".join(sorted(spec.required_features))
        message = f"{signed}|{spec.job_id}|{spec.nodes}|{spec.walltime_s}|{features}"
        mac = hashlib.blake2s(message.encode(), key=self._quote_key, digest_size=16)
        return mac.hexdigest()

    # -- submission ---------------------------------------------------------

    def _check_quote(self, spec: JobSpec, bid_token: str) -> int:
        """The price ``bid_token`` signed for exactly ``spec``'s terms, if
        the quote is live; an expired one answers ``QuoteExpired`` for one
        more ttl. The MAC is compared in constant time before any number is
        parsed. Single use rests on ``scheduler.jobs`` holding every
        accepted job, so a job's record must outlive ``expires_at +
        QUOTE_TTL_S``. Errors never name the token: its MAC is random per
        process, and reports must replay byte for byte."""
        signed, _, mac = bid_token.rpartition(".")
        if not bid_token.isascii() or not secrets.compare_digest(
            mac, self._quote_mac(spec, signed)
        ):
            raise UnknownQuote(f"no live quote for job {spec.job_id!r}")
        _, expires_at, price = map(int, signed.split("."))
        clock = self.scheduler.clock
        if spec.job_id in self.scheduler.jobs or clock >= expires_at + QUOTE_TTL_S:
            raise UnknownQuote(f"no live quote for job {spec.job_id!r}")
        if clock >= expires_at:
            raise QuoteExpired(f"quote for job {spec.job_id!r} expired at {expires_at}")
        return price

    def submit(self, spec: JobSpec, bid_token: str, escrow_id: str) -> None:
        """Accept a job iff its quote is live and its escrow covers the
        quoted price. Rejections leave the scheduler untouched and queue a
        refund of the job's escrow, which is tried before the rejection is
        answered."""
        try:
            with self._lock:
                price = self._check_quote(spec, bid_token)
            # Bank round-trip happens unlocked; re-validate afterwards. Any
            # answer but an object with a bool ``ok`` is no check at all.
            try:
                reply = wire.rpc_call(self.bank, "bank.verify_escrow", {
                    "escrow_id": escrow_id, "payee": self.card.payee_account,
                    "job_id": spec.job_id, "min_amount": price,
                }, BANK_TIMEOUT_MS)
            except wire.RpcError as exc:
                reply = exc
            covered = reply.get("ok") if isinstance(reply, dict) else None
            if not isinstance(covered, bool):
                log.warning("check of escrow %s failed: %s", escrow_id, reply)
                raise EscrowInvalid(f"escrow {escrow_id!r} could not be checked")
            if not covered:
                raise EscrowInvalid(
                    f"escrow {escrow_id!r} does not cover job {spec.job_id!r}"
                )
            with self._lock:
                self._check_quote(spec, bid_token)
                self.scheduler.enqueue(spec.job_id, spec.nodes, spec.walltime_s)
                self.scheduler.jobs[spec.job_id].escrow_id = escrow_id
        except ServiceError:
            # Refund unless this escrow backs a job we actually hold (a
            # competing submission of the same job may have won).
            with self._lock:
                known = self.scheduler.jobs.get(spec.job_id)
                if escrow_id and (known is None or known.escrow_id != escrow_id):
                    self._pending_settlements.append((escrow_id, spec.job_id, "FAILED"))
            self._drain_settlements()
            raise

    # -- time ---------------------------------------------------------------

    def tick(self, to: int) -> list[dict[str, Any]]:
        """Bring the scheduler's clock up to ``to``, if it is behind, and
        queue the payment of each job that completes; its lifecycle events."""
        with self._lock:
            events = self.scheduler.tick(max(0, to - self.scheduler.clock))
            for event in events:
                if event["type"] != "COMPLETED":
                    continue
                job_id = event["job_id"]
                escrow_id = self.scheduler.jobs[job_id].escrow_id
                if escrow_id is not None:
                    self._pending_settlements.append((escrow_id, job_id, "COMPLETED"))
        self._drain_settlements()
        return events

    def _drain_settlements(self) -> None:
        """Report each queued outcome to the bank. Only a timeout keeps an entry
        for the next try; any other answer ends it, logged unless AlreadySettled."""
        with self._lock:
            pending, self._pending_settlements = self._pending_settlements, []
        retry: list[tuple[str, str, str]] = []
        for entry in pending:
            escrow_id, job_id, outcome = entry
            try:
                wire.rpc_call(self.bank, "bank.settle_escrow", {
                    "escrow_id": escrow_id, "job_id": job_id, "outcome": outcome,
                    "reporter_secret": self.cluster_secret,
                }, BANK_TIMEOUT_MS)
            except wire.RpcError as exc:
                if exc.code == wire.RpcErrorCode.TIMEOUT:
                    retry.append(entry)
                elif exc.app_error_name() != "AlreadySettled":
                    log.error("settlement of %s rejected: %s", escrow_id, exc)
        if retry:
            with self._lock:
                self._pending_settlements = retry + self._pending_settlements

    # -- observability -------------------------------------------------------

    def status(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            return self.scheduler.status(job_id)

    def descriptor(self, address: str) -> ClusterDescriptor:
        return dataclasses.replace(self.card, address=address)


class FrontendService:
    """RPC wrapper: one front-end service process for one cluster. Its time
    is the whole seconds of ``clock``, monotonic wall time unless one is
    given; ``catch_up`` brings the core to it, and no RPC moves it."""

    def __init__(
        self, config: Mapping[str, Any], clock: VirtualClock | WallClock | None = None
    ):
        settings = _CARD + ("listen", "broker", "bank", "cluster_secret", "load_coefficient")
        reject_unknown(config, frozenset(settings), "node config")
        self.config = dict(config)
        self.clock = clock if clock is not None else WallClock()
        self.boot_id = secrets.token_hex(8)  # tells the broker a renewal from a restart
        for name in ("broker", "bank"):
            check_address(name, self.config.get(name))
        # The broker's own parser checks the identity and rate card this
        # front-end announces; only the address waits for the bound server.
        card = ClusterDescriptor.from_dict(
            {key: self.config[key] for key in _CARD if key in self.config}
            | {"address": "127.0.0.1:1"}
        )
        self.core = FrontendCore(
            card=card,
            cluster_secret=self.config.get("cluster_secret"),
            bank=self.config["bank"],
            load_coefficient=parse_load_coefficient(
                self.config.get("load_coefficient", 1)
            ),
        )
        self.server = wire.serve(self.config.get("listen", DEFAULT_LISTEN), rpc_handlers(self.core))
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> str:
        return self.server.address

    def announce(self) -> None:
        """Register this cluster with the broker once."""
        wire.rpc_call(
            self.config["broker"],
            "broker.register_cluster",
            {
                "descriptor": self.core.descriptor(self.address).to_dict(),
                "ttl_s": ANNOUNCE_TTL_S,
                "boot_id": self.boot_id,
            },
            timeout_ms=2000,
        )

    def catch_up(self) -> list[dict[str, Any]]:
        """Tick the core to ``clock.now()``, read under the core's lock so it
        never ticks ahead or twice; the lifecycle events of that tick."""
        return self.core.tick(to=self.clock.now())

    def start_background(self) -> None:
        """Start the service's own machinery: periodic announcements with
        retry, and a ticker that keeps the core caught up with the clock."""
        for target, name in ((self._announce_loop, "announce"), (self._tick_loop, "ticker")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def _announce_loop(self) -> None:
        retry_wait = 0.5
        while not self._stop.is_set():
            try:
                self.announce()
            except (wire.RpcError, OSError) as exc:
                log.info("announce failed (%s); retrying", exc)
                self._stop.wait(retry_wait)
                continue
            self._stop.wait(ANNOUNCE_TTL_S / 2)

    def _tick_loop(self) -> None:
        while not self._stop.wait(TICK_INTERVAL_S):
            self.catch_up()

    def shutdown(self) -> None:
        self._stop.set()
        self.server.shutdown()
        for thread in self._threads:
            thread.join(timeout=2.0)


def _spec_param(params: Mapping[str, Any]) -> JobSpec:
    raw = params.get("spec")
    if not isinstance(raw, dict):
        raise wire.InvalidParams("spec must be a JSON object")
    return validate_jobspec(raw)


def rpc_handlers(core: FrontendCore) -> dict[str, wire.Handler]:
    """The front-end's RPC surface."""

    def quote(params: Mapping[str, Any]) -> dict[str, Any]:
        spec = _spec_param(params)
        outcome = core.quote(spec)
        if isinstance(outcome, str):
            return {"no_bid": {"reason": outcome}}
        return {"bid": outcome.to_dict()}

    def submit(params: Mapping[str, Any]) -> dict[str, Any]:
        spec = _spec_param(params)
        bid_token = params.get("bid_token")
        escrow_id = params.get("escrow_id")
        if not isinstance(bid_token, str) or not isinstance(escrow_id, str):
            raise wire.InvalidParams("bid_token and escrow_id must be strings")
        core.submit(spec, bid_token, escrow_id)
        return {}

    def status(params: Mapping[str, Any]) -> dict[str, Any]:
        job_id = params.get("job_id")
        if not isinstance(job_id, str):
            raise wire.InvalidParams("job_id must be a string")
        return {"status": core.status(job_id)}

    return {
        "node.quote": quote,
        "node.submit": submit,
        "node.status": status,
    }


def start_service(config: Mapping[str, Any], stack: ExitStack) -> str:
    """Start ``sg-node``, each step of its shutdown on ``stack``; its address."""
    service = FrontendService(config)
    stack.callback(service.shutdown)
    service.start_background()
    return service.address


def main(argv: list[str] | None = None) -> int:
    return wire.run_service("sg-node", start_service, argv)


if __name__ == "__main__":
    sys.exit(main())
