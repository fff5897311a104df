"""The per-cluster front-end: prices jobs, accepts escrow-backed submissions,
and runs them on a simulated batch scheduler.

Pricing is load-sensitive: the committed node-seconds of running and queued
work raise the offered price, so lightly loaded clusters underbid busy ones.
The scheduler is strict FIFO with head-of-line blocking; if the queue head
does not fit in the free nodes, nothing behind it starts.

Pricing is exact: the rational price formula is carried as one integer
numerator and denominator and rounded up to whole millicredits once, at the
end. A quote costs the same however many jobs a front-end holds and leaves
nothing behind: like a SYN cookie, its bid token carries its terms under a
MAC only this front-end can make. A tick costs only the completions it meets.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import logging
import secrets
import sys
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .bank import BankClient
from .domain import (
    Bid,
    ClusterDescriptor,
    JobSpec,
    JobState,
    JobStatus,
    Money,
    ServiceError,
    ValidationError,
    is_legal_transition,
    parse_money,
    refusal_reason,
    secret_matches,
    validate_jobspec,
)

log = logging.getLogger(__name__)

DEFAULT_QUOTE_TTL_S = 60
DEFAULT_HORIZON_S = 3600
DEFAULT_ANNOUNCE_TTL_S = 60

NO_BID_PRICE_ABOVE_MAX = "price_above_max"


class QuoteExpired(ServiceError):
    name = "QuoteExpired"


class UnknownQuote(ServiceError):
    name = "UnknownQuote"


class EscrowInvalid(ServiceError):
    name = "EscrowInvalid"


class AuthFailed(ServiceError):
    name = "AuthFailed"


class UnknownJob(ServiceError):
    name = "UnknownJob"


class DuplicateJob(ServiceError):
    name = "DuplicateJob"


class WrongClockMode(ServiceError):
    name = "WrongClockMode"


@dataclass(frozen=True)
class NoBid:
    """A refusal to price a job, with a machine-readable reason."""

    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {"reason": self.reason}


def _parse_ratio(field: str, value: Any) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        and value[1] > 0
    ):
        return Fraction(value[0], value[1])
    raise ValidationError(field, "must be an integer or a [p, q] pair")


@dataclass(frozen=True)
class PricingPolicy:
    """How a cluster turns a job spec and its current load into a price.

    ``load_proportional`` charges base cost times (1 + coefficient * load
    ratio); a flat policy ignores load entirely. Feature multipliers pass the
    cost of expensive scheduler features on to the jobs that request them.
    """

    policy_id: str
    base_rate: Money
    load_coefficient: Fraction = Fraction(1)
    feature_multipliers: Mapping[str, Fraction] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.policy_id not in ("load_proportional", "flat"):
            raise ValidationError("policy_id", f"unknown policy {self.policy_id!r}")
        if self.load_coefficient < 0:
            raise ValidationError("load_coefficient", "must be >= 0")
        multipliers = dict(self.feature_multipliers or {})
        for feature, mult in multipliers.items():
            if mult < 1:
                raise ValidationError(
                    "feature_multipliers", f"multiplier for {feature!r} must be >= 1"
                )
        object.__setattr__(self, "feature_multipliers", multipliers)

    def price(
        self,
        nodes: int,
        walltime_s: int,
        features: frozenset[str],
        load_ratio: Fraction,
    ) -> int:
        """Price in millicredits: the exact rational formula as one integer
        numerator and denominator, rounded up once."""
        num = self.base_rate.amount * nodes * walltime_s
        den = 1
        if self.policy_id == "load_proportional":
            coefficient = self.load_coefficient
            den = coefficient.denominator * load_ratio.denominator
            num *= den + coefficient.numerator * load_ratio.numerator
        for feature in features:
            multiplier = self.feature_multipliers.get(feature)
            if multiplier is not None:
                num *= multiplier.numerator
                den *= multiplier.denominator
        return -(-num // den)

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "PricingPolicy":
        multipliers = {
            feature: _parse_ratio(f"feature_multipliers[{feature}]", ratio)
            for feature, ratio in (config.get("feature_multipliers") or {}).items()
        }
        return cls(
            policy_id=config.get("policy", "load_proportional"),
            base_rate=parse_money("base_rate", config["base_rate"], minimum=1),
            load_coefficient=_parse_ratio(
                "load_coefficient", config.get("load_coefficient", 1)
            ),
            feature_multipliers=multipliers,
        )


@dataclass
class _JobRecord:
    job_id: str
    nodes: int
    walltime_s: int
    state: JobState
    submitted_at: int
    started_at: int | None = None
    finished_at: int | None = None
    end_time: int | None = None  # running jobs only
    escrow_id: str | None = None

    def status(self) -> JobStatus:
        return JobStatus(
            state=self.state,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            exit_code=0 if self.state is JobState.COMPLETED else None,
        )

    def _transition(self, target: JobState) -> None:
        assert is_legal_transition(self.state, target), (self.state, target)
        self.state = target


class SchedulerCore:
    """Event-driven FIFO batch scheduler over a fixed node pool.

    Time is whole virtual seconds. At each time point, jobs whose end time
    arrived complete first (ties in start order), then queued jobs start in
    strict FIFO order while the head fits. ``tick`` visits only the times
    where that can change anything: now, each completion time, and the end
    of the step. Jobs never execute anything; the command is recorded and
    the job occupies its nodes for exactly its walltime.

    Running totals of used nodes, nodes x end time over running jobs, and
    queued node-seconds make the load O(1); ``recount`` is the O(jobs)
    cross-check.
    """

    def __init__(self, capacity_nodes: int, start_clock: int = 0):
        if capacity_nodes < 1:
            raise ValidationError("capacity_nodes", "must be >= 1")
        self.capacity_nodes = capacity_nodes
        self.clock = start_clock
        self.queue: deque[str] = deque()
        self.running: set[str] = set()
        self.jobs: dict[str, _JobRecord] = {}
        self._ends: list[tuple[int, int, str]] = []  # heap of (end_time, start_seq, job_id)
        self._started = 0
        self._used = 0
        self._running_end_sum = 0
        self._queued_node_seconds = 0

    def used_nodes(self) -> int:
        return self._used

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
            committed += record.nodes * max(0, record.end_time - self.clock)
        for job_id in self.queue:
            record = self.jobs[job_id]
            committed += record.nodes * record.walltime_s
        return used, committed

    def enqueue(self, job_id: str, nodes: int, walltime_s: int) -> JobStatus:
        if job_id in self.jobs:
            raise DuplicateJob(f"job {job_id!r} already submitted here")
        if walltime_s < 1:
            raise ValidationError("walltime_s", "must be >= 1")
        record = _JobRecord(
            job_id=job_id,
            nodes=nodes,
            walltime_s=walltime_s,
            state=JobState.QUEUED,
            submitted_at=self.clock,
        )
        self.jobs[job_id] = record
        self.queue.append(job_id)
        self._queued_node_seconds += nodes * walltime_s
        return record.status()

    def status(self, job_id: str) -> JobStatus:
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"no job {job_id!r}")
        return record.status()

    def tick(self, dt: int) -> list[dict[str, Any]]:
        """Advance ``dt`` virtual seconds, returning lifecycle events."""
        if dt < 0:
            raise ValidationError("dt", "must be >= 0")
        events: list[dict[str, Any]] = []
        target = self.clock + dt
        while True:
            self._complete_due(events)
            if self.clock == target:
                return events
            self._start_fifo(events)
            # Started jobs end at least one second from now.
            self.clock = min(self._ends[0][0], target) if self._ends else target

    def _complete_due(self, events: list[dict[str, Any]]) -> None:
        ends = self._ends
        while ends and ends[0][0] <= self.clock:
            end_time, _, job_id = heapq.heappop(ends)
            record = self.jobs[job_id]
            self.running.remove(job_id)
            self._used -= record.nodes
            self._running_end_sum -= record.nodes * end_time
            record._transition(JobState.COMPLETED)
            record.finished_at = self.clock
            events.append({"type": "COMPLETED", "job_id": job_id, "time": self.clock})

    def _start_fifo(self, events: list[dict[str, Any]]) -> None:
        while self.queue:
            record = self.jobs[self.queue[0]]
            if record.nodes > self.capacity_nodes - self._used:
                break  # head of line blocks everything behind it
            self.queue.popleft()
            record._transition(JobState.RUNNING)
            record.started_at = self.clock
            record.end_time = self.clock + record.walltime_s
            self._started += 1
            heapq.heappush(self._ends, (record.end_time, self._started, record.job_id))
            self.running.add(record.job_id)
            self._used += record.nodes
            self._running_end_sum += record.nodes * record.end_time
            self._queued_node_seconds -= record.nodes * record.walltime_s
            events.append(
                {"type": "STARTED", "job_id": record.job_id, "time": self.clock}
            )
        assert self._used <= self.capacity_nodes


class FrontendCore:
    """Quote, submission, and settlement logic for one cluster.

    All state (scheduler, job records, quote counter) is guarded by one
    lock; calls out to the bank happen outside it. Payments of completed jobs
    and refunds of rejected submissions share one settlement queue, retried
    while the bank times out, so a slow bank neither freezes the scheduler
    nor strands an escrow.
    """

    def __init__(
        self,
        cluster_id: str,
        capacity_nodes: int,
        capabilities: frozenset[str],
        policy: PricingPolicy,
        payee_account: str,
        cluster_secret: str,
        users: Mapping[str, str],
        bank: BankClient | Any,
        quote_ttl_s: int = DEFAULT_QUOTE_TTL_S,
        horizon_s: int = DEFAULT_HORIZON_S,
    ):
        unknown = set(policy.feature_multipliers) - set(capabilities)
        if unknown:
            raise ValidationError(
                "feature_multipliers", f"not advertised capabilities: {sorted(unknown)}"
            )
        self.cluster_id = cluster_id
        self.capabilities = frozenset(capabilities)
        self.policy = policy
        self.payee_account = payee_account
        self.cluster_secret = cluster_secret
        self.users = dict(users)
        self.bank = bank
        self.quote_ttl_s = quote_ttl_s
        self.horizon_s = horizon_s
        self.scheduler = SchedulerCore(capacity_nodes)
        self._lock = threading.RLock()
        self._quote_key = secrets.token_bytes(32)
        self._quote_seq = 0  # tells apart two quotes for the same terms
        # (escrow_id, job_id, outcome)
        self._pending_settlements: list[tuple[str, str, str]] = []

    # -- pricing ------------------------------------------------------------

    def load_ratio(self) -> Fraction:
        return Fraction(
            self.scheduler.committed_node_seconds(),
            self.scheduler.capacity_nodes * self.horizon_s,
        )

    def quote(self, spec: JobSpec) -> Bid | NoBid:
        with self._lock:
            refusal = refusal_reason(
                spec, self.capabilities, self.scheduler.capacity_nodes
            )
            if refusal is not None:
                return NoBid(refusal)
            price = self.policy.price(
                spec.nodes, spec.walltime_s, spec.required_features, self.load_ratio()
            )
            if spec.max_price is not None and price > spec.max_price.amount:
                return NoBid(NO_BID_PRICE_ABOVE_MAX)
            self._quote_seq += 1
            expires_at = self.scheduler.clock + self.quote_ttl_s
            signed = f"{self._quote_seq}.{expires_at}.{price}"
            return Bid(
                cluster_id=self.cluster_id,
                price=Money(price),
                bid_token=f"{signed}.{self._quote_mac(spec, signed)}",
                expires_at=expires_at,
                payee_account=self.payee_account,
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
        quote_ttl_s``. Errors never name the token: its MAC is random per
        process, and reports must replay byte for byte."""
        signed, _, mac = bid_token.rpartition(".")
        if not bid_token.isascii() or not secrets.compare_digest(
            mac, self._quote_mac(spec, signed)
        ):
            raise UnknownQuote(f"no live quote for job {spec.job_id!r}")
        _, expires_at, price = map(int, signed.split("."))
        clock = self.scheduler.clock
        if spec.job_id in self.scheduler.jobs or clock >= expires_at + self.quote_ttl_s:
            raise UnknownQuote(f"no live quote for job {spec.job_id!r}")
        if clock >= expires_at:
            raise QuoteExpired(f"quote for job {spec.job_id!r} expired at {expires_at}")
        return price

    def submit(self, spec: JobSpec, bid_token: str, escrow_id: str) -> JobStatus:
        """Accept a job iff its quote is live, its escrow covers the quoted
        price, and the user's credentials check out. Rejections leave the
        scheduler untouched and queue a refund of the job's escrow, which
        is tried before the rejection is answered."""
        try:
            with self._lock:
                price = self._check_quote(spec, bid_token)
                if not secret_matches(self.users.get(spec.user), spec.secret):
                    raise AuthFailed(f"bad credentials for user {spec.user!r}")
            # Bank round-trip happens unlocked; re-validate afterwards.
            try:
                covered = self.bank.verify_escrow(
                    escrow_id, payee=self.payee_account, job_id=spec.job_id, min_amount=price
                )
            except wire.RpcError as exc:
                log.warning("check of escrow %s failed: %s", escrow_id, exc)
                raise EscrowInvalid(f"escrow {escrow_id!r} could not be checked") from None
            if not covered:
                raise EscrowInvalid(
                    f"escrow {escrow_id!r} does not cover job {spec.job_id!r}"
                )
            with self._lock:
                self._check_quote(spec, bid_token)
                status = self.scheduler.enqueue(spec.job_id, spec.nodes, spec.walltime_s)
                self.scheduler.jobs[spec.job_id].escrow_id = escrow_id
                return status
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

    def tick(self, dt: int) -> list[dict[str, Any]]:
        with self._lock:
            events = self.scheduler.tick(dt)
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
                self.bank.settle_escrow(escrow_id, job_id, outcome, self.cluster_secret)
            except wire.RpcError as exc:
                if exc.code == wire.RpcErrorCode.TIMEOUT:
                    retry.append(entry)
                elif exc.app_error_name() != "AlreadySettled":
                    log.error("settlement of %s rejected: %s", escrow_id, exc)
            except ServiceError as exc:  # an in-process bank raises directly
                if exc.name != "AlreadySettled":
                    log.error("settlement of %s rejected: %s", escrow_id, exc)
        if retry:
            with self._lock:
                self._pending_settlements = retry + self._pending_settlements

    # -- observability -------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            return self.scheduler.status(job_id)

    def clock(self) -> int:
        with self._lock:
            return self.scheduler.clock

    def descriptor(self, address: str) -> ClusterDescriptor:
        return ClusterDescriptor(
            cluster_id=self.cluster_id,
            address=address,
            capacity_nodes=self.scheduler.capacity_nodes,
            capabilities=self.capabilities,
            base_rate=self.policy.base_rate,
            payee_account=self.payee_account,
        )


class FrontendService:
    """RPC wrapper: one front-end service process for one cluster."""

    def __init__(self, config: Mapping[str, Any], bank: BankClient | Any = None):
        self.config = dict(config)
        self.clock_mode = self.config.get("clock_mode", "virtual")
        if self.clock_mode not in ("virtual", "wall"):
            raise ValidationError("clock_mode", "must be virtual or wall")
        bank = bank if bank is not None else BankClient(self.config["bank"])
        self.core = FrontendCore(
            cluster_id=self.config["cluster_id"],
            capacity_nodes=self.config["capacity_nodes"],
            capabilities=frozenset(self.config.get("capabilities", [])),
            policy=PricingPolicy.from_config(self.config),
            payee_account=self.config["payee_account"],
            cluster_secret=self.config["cluster_secret"],
            users=self.config.get("users", {}),
            bank=bank,
            quote_ttl_s=self.config.get("quote_ttl_s", DEFAULT_QUOTE_TTL_S),
            horizon_s=self.config.get("horizon_s", DEFAULT_HORIZON_S),
        )
        self.server = wire.serve(self.config["listen"], self._handlers())
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> str:
        return self.server.address

    def _handlers(self) -> dict[str, wire.Handler]:
        def quote(params: Mapping[str, Any]) -> dict[str, Any]:
            spec = _spec_param(params)
            outcome = self.core.quote(spec)
            if isinstance(outcome, NoBid):
                return {"no_bid": outcome.to_dict()}
            return {"bid": outcome.to_dict()}

        def submit(params: Mapping[str, Any]) -> dict[str, Any]:
            spec = _spec_param(params)
            bid_token = params.get("bid_token")
            escrow_id = params.get("escrow_id")
            if not isinstance(bid_token, str) or not isinstance(escrow_id, str):
                raise wire.InvalidParams("bid_token and escrow_id must be strings")
            status = self.core.submit(spec, bid_token, escrow_id)
            return {"job_id": spec.job_id, "status": status.to_dict()}

        def status(params: Mapping[str, Any]) -> dict[str, Any]:
            job_id = params.get("job_id")
            if not isinstance(job_id, str):
                raise wire.InvalidParams("job_id must be a string")
            return {"status": self.core.status(job_id).to_dict()}

        def tick(params: Mapping[str, Any]) -> dict[str, Any]:
            if self.clock_mode != "virtual":
                raise WrongClockMode("node.tick is only available in virtual mode")
            dt = params.get("dt")
            if not isinstance(dt, int) or isinstance(dt, bool) or dt < 0:
                raise wire.InvalidParams("dt must be a non-negative integer")
            events = self.core.tick(dt)
            return {"events": events, "clock": self.core.clock()}

        return {
            "node.quote": quote,
            "node.submit": submit,
            "node.status": status,
            "node.tick": tick,
        }

    def announce(self, broker_address: str | None = None, ttl_s: int | None = None) -> None:
        """Register this cluster with the broker once."""
        broker_address = broker_address or self.config["broker"]
        ttl_s = ttl_s if ttl_s is not None else self.config.get(
            "announce_ttl_s", DEFAULT_ANNOUNCE_TTL_S
        )
        wire.rpc_call(
            broker_address,
            "broker.register_cluster",
            {
                "descriptor": self.core.descriptor(self.address).to_dict(),
                "ttl_s": ttl_s,
            },
            timeout_ms=2000,
        )

    def start_background(self) -> None:
        """Wall-mode machinery: periodic announcements with retry, and a
        thread that maps wall time onto scheduler ticks."""
        announcer = threading.Thread(
            target=self._announce_loop, name="announce", daemon=True
        )
        announcer.start()
        self._threads.append(announcer)
        if self.clock_mode == "wall":
            ticker = threading.Thread(target=self._tick_loop, name="ticker", daemon=True)
            ticker.start()
            self._threads.append(ticker)

    def _announce_loop(self) -> None:
        ttl_s = self.config.get("announce_ttl_s", DEFAULT_ANNOUNCE_TTL_S)
        retry_wait = 0.5
        while not self._stop.is_set():
            try:
                self.announce(ttl_s=ttl_s)
            except (wire.RpcError, OSError) as exc:
                log.info("announce failed (%s); retrying", exc)
                self._stop.wait(retry_wait)
                continue
            self._stop.wait(ttl_s / 2)

    def _tick_loop(self) -> None:
        wall_ms = self.config.get("wall_ms_per_second", 1000)
        while not self._stop.wait(wall_ms / 1000.0):
            self.core.tick(1)

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


def load_config(path: str | Path) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    config.setdefault("listen", "127.0.0.1:7710")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sg-node", description="cluster front-end service")
    parser.add_argument("--config", required=True, help="path to node config JSON")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    service = FrontendService(load_config(args.config))
    service.start_background()
    log.info("front-end %s listening on %s", service.core.cluster_id, service.address)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
