"""The per-cluster front-end: prices jobs, accepts escrow-backed submissions,
and runs them on a simulated batch scheduler.

Pricing is load-sensitive: the committed node-seconds of running and queued
work raise the offered price, so lightly loaded clusters underbid busy ones.
The scheduler is strict FIFO with head-of-line blocking; if the queue head
does not fit in the free nodes, nothing behind it starts.

All arithmetic in the price formula is exact rational arithmetic, rounded up
to whole millicredits at the end.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
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
    secret_matches,
    validate_jobspec,
)

log = logging.getLogger(__name__)

DEFAULT_QUOTE_TTL_S = 60
DEFAULT_HORIZON_S = 3600
DEFAULT_ANNOUNCE_TTL_S = 60

NO_BID_UNSUPPORTED_FEATURE = "unsupported_feature"
NO_BID_INSUFFICIENT_CAPACITY = "insufficient_capacity"
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
        """Price in millicredits, rounded up from exact rationals."""
        amount = Fraction(self.base_rate.amount) * nodes * walltime_s
        if self.policy_id == "load_proportional":
            amount *= 1 + self.load_coefficient * load_ratio
        for feature in features:
            amount *= self.feature_multipliers.get(feature, Fraction(1))
        return math.ceil(amount)

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
    """Tick-driven FIFO batch scheduler over a fixed node pool.

    Time advances in whole virtual seconds. At each time point, jobs whose
    end time arrived complete first, then queued jobs start in strict FIFO
    order while the head fits. Jobs never execute anything; the command is
    recorded and the job occupies its nodes for exactly its walltime.
    """

    def __init__(self, capacity_nodes: int, start_clock: int = 0):
        if capacity_nodes < 1:
            raise ValidationError("capacity_nodes", "must be >= 1")
        self.capacity_nodes = capacity_nodes
        self.clock = start_clock
        self.queue: deque[str] = deque()
        self.running: list[str] = []
        self.jobs: dict[str, _JobRecord] = {}

    def used_nodes(self) -> int:
        return sum(self.jobs[j].nodes for j in self.running)

    def free_nodes(self) -> int:
        return self.capacity_nodes - self.used_nodes()

    def committed_node_seconds(self) -> int:
        """Remaining node-seconds of running work plus all queued work."""
        committed = 0
        for job_id in self.running:
            record = self.jobs[job_id]
            committed += record.nodes * max(0, record.end_time - self.clock)
        for job_id in self.queue:
            record = self.jobs[job_id]
            committed += record.nodes * record.walltime_s
        return committed

    def enqueue(self, job_id: str, nodes: int, walltime_s: int) -> JobStatus:
        if job_id in self.jobs:
            raise DuplicateJob(f"job {job_id!r} already submitted here")
        record = _JobRecord(
            job_id=job_id,
            nodes=nodes,
            walltime_s=walltime_s,
            state=JobState.QUEUED,
            submitted_at=self.clock,
        )
        self.jobs[job_id] = record
        self.queue.append(job_id)
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
        for _ in range(dt):
            self._complete_due(events)
            self._start_fifo(events)
            self.clock += 1
        self._complete_due(events)
        return events

    def _complete_due(self, events: list[dict[str, Any]]) -> None:
        for job_id in list(self.running):
            record = self.jobs[job_id]
            if record.end_time <= self.clock:
                self.running.remove(job_id)
                record._transition(JobState.COMPLETED)
                record.finished_at = self.clock
                events.append(
                    {"type": "COMPLETED", "job_id": job_id, "time": self.clock}
                )

    def _start_fifo(self, events: list[dict[str, Any]]) -> None:
        while self.queue:
            record = self.jobs[self.queue[0]]
            if record.nodes > self.free_nodes():
                break  # head of line blocks everything behind it
            self.queue.popleft()
            record._transition(JobState.RUNNING)
            record.started_at = self.clock
            record.end_time = self.clock + record.walltime_s
            self.running.append(record.job_id)
            events.append(
                {"type": "STARTED", "job_id": record.job_id, "time": self.clock}
            )
        assert self.used_nodes() <= self.capacity_nodes


@dataclass
class _QuoteRecord:
    bid_token: str
    job_id: str
    price: int
    expires_at: int
    consumed: bool = False


class FrontendCore:
    """Quote, submission, and settlement logic for one cluster.

    All state (scheduler, quotes, job records) is guarded by one lock; calls
    out to the bank happen outside it, with completed jobs parked on a
    settlement queue so a slow bank never freezes the scheduler.
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
        self._quotes: dict[str, _QuoteRecord] = {}
        self._quote_seq = 0
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
            missing = spec.required_features - self.capabilities
            if missing:
                return NoBid(NO_BID_UNSUPPORTED_FEATURE)
            if spec.nodes > self.scheduler.capacity_nodes:
                return NoBid(NO_BID_INSUFFICIENT_CAPACITY)
            price = self.policy.price(
                spec.nodes, spec.walltime_s, spec.required_features, self.load_ratio()
            )
            if spec.max_price is not None and price > spec.max_price.amount:
                return NoBid(NO_BID_PRICE_ABOVE_MAX)
            self._quote_seq += 1
            token = f"{self.cluster_id}-q{self._quote_seq:06d}"
            expires_at = self.scheduler.clock + self.quote_ttl_s
            self._quotes[token] = _QuoteRecord(
                bid_token=token,
                job_id=spec.job_id,
                price=price,
                expires_at=expires_at,
            )
            return Bid(
                cluster_id=self.cluster_id,
                price=Money(price),
                bid_token=token,
                expires_at=expires_at,
            )

    # -- submission ---------------------------------------------------------

    def _check_quote(self, spec: JobSpec, bid_token: str) -> _QuoteRecord:
        record = self._quotes.get(bid_token)
        if record is None or record.job_id != spec.job_id or record.consumed:
            raise UnknownQuote(f"no live quote {bid_token!r} for job {spec.job_id!r}")
        if self.scheduler.clock >= record.expires_at:
            raise QuoteExpired(f"quote {bid_token!r} expired at {record.expires_at}")
        return record

    def submit(self, spec: JobSpec, bid_token: str, escrow_id: str) -> JobStatus:
        """Accept a job iff its quote is live, its escrow covers the quoted
        price, and the user's credentials check out. Rejections leave the
        scheduler untouched and trigger a refund of the job's escrow."""
        try:
            with self._lock:
                record = self._check_quote(spec, bid_token)
                if not secret_matches(self.users.get(spec.user), spec.secret):
                    raise AuthFailed(f"bad credentials for user {spec.user!r}")
                if spec.job_id in self.scheduler.jobs:
                    raise DuplicateJob(f"job {spec.job_id!r} already submitted")
                price = record.price
            # Bank round-trip happens unlocked; re-validate afterwards.
            if not self.bank.verify_escrow(
                escrow_id,
                payee=self.payee_account,
                job_id=spec.job_id,
                min_amount=price,
            ):
                raise EscrowInvalid(
                    f"escrow {escrow_id!r} does not cover job {spec.job_id!r}"
                )
            with self._lock:
                record = self._check_quote(spec, bid_token)
                record.consumed = True
                status = self.scheduler.enqueue(spec.job_id, spec.nodes, spec.walltime_s)
                self.scheduler.jobs[spec.job_id].escrow_id = escrow_id
                return status
        except ServiceError:
            # Refund unless this escrow backs a job we actually hold (a
            # competing submission of the same job may have won).
            with self._lock:
                known = self.scheduler.jobs.get(spec.job_id)
                backs_live_job = known is not None and known.escrow_id == escrow_id
            if not backs_live_job:
                self._refund_escrow(escrow_id, spec.job_id)
            raise

    def _refund_escrow(self, escrow_id: str, job_id: str) -> None:
        """Best-effort refund of a rejected submission's escrow; the bank
        rejects the attempt unless the escrow is really ours, held for this
        job, and still held."""
        if not escrow_id:
            return
        try:
            self.bank.settle_escrow(escrow_id, job_id, "FAILED", self.cluster_secret)
        except wire.RpcError as exc:
            if exc.app_error_name() not in (
                "UnknownEscrow",
                "AlreadySettled",
                "BadReporter",
            ):
                log.warning("refund of escrow %s failed: %s", escrow_id, exc)
        except ServiceError:
            pass

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
            # Expired quotes linger one extra ttl so a late submission still
            # gets the honest QuoteExpired answer rather than UnknownQuote.
            clock = self.scheduler.clock
            self._quotes = {
                token: q
                for token, q in self._quotes.items()
                if not q.consumed and q.expires_at + self.quote_ttl_s > clock
            }
        self._drain_settlements()
        return events

    def _drain_settlements(self) -> None:
        with self._lock:
            pending, self._pending_settlements = self._pending_settlements, []
        retry: list[tuple[str, str, str]] = []
        for escrow_id, job_id, outcome in pending:
            try:
                self.bank.settle_escrow(escrow_id, job_id, outcome, self.cluster_secret)
            except wire.RpcError as exc:
                name = exc.app_error_name()
                if name == "AlreadySettled":
                    continue
                if name is None:  # transport trouble; try again next tick
                    retry.append((escrow_id, job_id, outcome))
                else:
                    log.error("settlement of %s rejected: %s", escrow_id, exc)
            except ServiceError as exc:
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

        def describe(params: Mapping[str, Any]) -> dict[str, Any]:
            return self.core.descriptor(self.address).to_dict()

        return {
            "node.quote": quote,
            "node.submit": submit,
            "node.status": status,
            "node.tick": tick,
            "node.describe": describe,
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
