"""Validated domain values shared by every service, plus canonical JSON encoding.

Every type here is an immutable value: once constructed it satisfies its
invariants and can be shared freely between concurrent request handlers.
Canonical encoding is compact JSON with bytewise-sorted keys, UTF-8, so equal
values always produce byte-identical output.
"""

from __future__ import annotations

import hmac
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping

FEATURE_RE = re.compile(r"^[a-z_]+$")
JOB_ID_RE = re.compile(r"^[0-9a-f]{32}$")

MILLICREDITS_PER_CREDIT = 1000


class ServiceError(Exception):
    """Base for every domain-level failure a service can report.

    ``name`` is the stable machine-readable identifier that crosses the RPC
    boundary (error messages are formatted ``"<name>: <detail>"``).
    """

    name = "ServiceError"

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class ValidationError(ServiceError):
    name = "ValidationError"

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def canonical_json_bytes(value: Any) -> bytes:
    """Serialize a JSON-able value deterministically: sorted keys, no
    insignificant whitespace, UTF-8."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def canonical_encode(value: Any) -> bytes:
    """Canonical byte encoding of a domain value (or any JSON-able value)."""
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        value = to_dict()
    return canonical_json_bytes(value)


def secret_matches(expected: str | None, given: str) -> bool:
    """Whether ``given`` equals the registered secret, in time independent
    of where they differ. ``None`` (nobody registered) matches nothing.
    Compares UTF-8 bytes: ``hmac.compare_digest`` rejects non-ASCII ``str``."""
    return expected is not None and hmac.compare_digest(
        expected.encode("utf-8"), given.encode("utf-8")
    )


def _require(data: Mapping[str, Any], field: str) -> Any:
    if field not in data:
        raise ValidationError(field, "missing required field")
    return data[field]


def _check_str(field: str, value: Any, *, nonempty: bool = True) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, "must be a string")
    if nonempty and not value:
        raise ValidationError(field, "must be non-empty")
    return value


def _check_int(field: str, value: Any, *, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(field, "must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}")
    return value


def _check_features(field: str, value: Any) -> frozenset[str]:
    if isinstance(value, (set, frozenset)):
        items = sorted(value)
    elif isinstance(value, (list, tuple)):
        items = list(value)
    else:
        raise ValidationError(field, "must be a list of feature strings")
    seen = set()
    for item in items:
        if not isinstance(item, str) or not FEATURE_RE.match(item):
            raise ValidationError(field, f"invalid feature token {item!r}")
        if item in seen:
            raise ValidationError(field, f"duplicate feature {item!r}")
        seen.add(item)
    return frozenset(items)


def _check_address(field: str, value: Any) -> str:
    value = _check_str(field, value)
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValidationError(field, "must look like host:port")
    if not port.isdigit() or not 1 <= int(port) <= 65535:
        raise ValidationError(field, f"bad port {port!r}")
    return value


def _reject_unknown(data: Mapping[str, Any], known: frozenset[str], where: str) -> None:
    for key in data:
        if key not in known:
            raise ValidationError(key, f"unknown field for {where}")


@dataclass(frozen=True)
class Money:
    """Exact integer millicredits; never negative where it denotes a price or
    balance (the only uses this type has)."""

    amount: int

    def __post_init__(self) -> None:
        _check_int("amount", self.amount, minimum=0)

    def to_dict(self) -> dict[str, Any]:
        return {"amount": self.amount}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Money":
        if not isinstance(data, Mapping):
            raise ValidationError("amount", "Money must be an object")
        _reject_unknown(data, frozenset({"amount"}), "Money")
        return cls(amount=_check_int("amount", _require(data, "amount"), minimum=0))


def parse_money(field: str, value: Any, *, minimum: int = 0) -> Money:
    """Accept integer millicredits or a ``{"amount": n}`` object."""
    if isinstance(value, Money):
        money = value
    elif isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise ValidationError(field, "must be >= 0")
        money = Money(value)
    elif isinstance(value, Mapping):
        try:
            money = Money.from_dict(value)
        except ValidationError as exc:
            raise ValidationError(field, exc.reason) from None
    else:
        raise ValidationError(field, "must be integer millicredits")
    if money.amount < minimum:
        raise ValidationError(field, f"must be >= {minimum}")
    return money


class JobState(str, Enum):
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    REJECTED = "REJECTED"


#: The only state changes a job may undergo. REJECTED is initial-terminal:
#: nothing leads to it and nothing leaves it.
LEGAL_TRANSITIONS = frozenset(
    {
        (JobState.QUEUED, JobState.RUNNING),
        (JobState.RUNNING, JobState.COMPLETED),
        (JobState.RUNNING, JobState.FAILED),
    }
)


def is_legal_transition(current: JobState, target: JobState) -> bool:
    return (current, target) in LEGAL_TRANSITIONS


@dataclass(frozen=True)
class JobStatus:
    state: JobState
    submitted_at: int | None = None
    started_at: int | None = None
    finished_at: int | None = None
    exit_code: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.state, JobState):
            raise ValidationError("state", f"unknown state {self.state!r}")
        for name in ("submitted_at", "started_at", "finished_at", "exit_code"):
            value = getattr(self, name)
            if value is not None:
                _check_int(name, value)
        if self.started_at is not None and self.submitted_at is not None:
            if self.started_at < self.submitted_at:
                raise ValidationError("started_at", "precedes submitted_at")
        if self.finished_at is not None and self.started_at is not None:
            if self.finished_at < self.started_at:
                raise ValidationError("finished_at", "precedes started_at")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"state": self.state.value}
        for name in ("submitted_at", "started_at", "finished_at", "exit_code"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        known = frozenset(
            {"state", "submitted_at", "started_at", "finished_at", "exit_code"}
        )
        _reject_unknown(data, known, "JobStatus")
        state_raw = _check_str("state", _require(data, "state"))
        try:
            state = JobState(state_raw)
        except ValueError:
            raise ValidationError("state", f"unknown state {state_raw!r}") from None
        return cls(
            state=state,
            submitted_at=data.get("submitted_at"),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            exit_code=data.get("exit_code"),
        )


_JOBSPEC_FIELDS = (
    "job_id",
    "user",
    "secret",
    "nodes",
    "walltime_s",
    "required_features",
    "max_price",
    "command",
    "workdir",
)


@dataclass(frozen=True)
class JobSpec:
    """Everything a cluster needs to price and run one job."""

    job_id: str
    user: str
    secret: str
    nodes: int
    walltime_s: int
    required_features: frozenset[str]
    max_price: Money | None
    command: str
    workdir: str

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "user": self.user,
            "secret": self.secret,
            "nodes": self.nodes,
            "walltime_s": self.walltime_s,
            "required_features": sorted(self.required_features),
            "command": self.command,
            "workdir": self.workdir,
        }
        if self.max_price is not None:
            out["max_price"] = self.max_price.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return validate_jobspec(data)


def validate_jobspec(raw: Mapping[str, Any]) -> JobSpec:
    """Validate a JobSpec-shaped record, reporting the first violated field."""
    if not isinstance(raw, Mapping):
        raise ValidationError("jobspec", "must be an object")
    _reject_unknown(raw, frozenset(_JOBSPEC_FIELDS), "JobSpec")
    job_id = _check_str("job_id", _require(raw, "job_id"))
    if not JOB_ID_RE.match(job_id):
        raise ValidationError("job_id", "must be 32 lowercase hex characters")
    user = _check_str("user", _require(raw, "user"))
    secret = _check_str("secret", _require(raw, "secret"))
    nodes = _check_int("nodes", _require(raw, "nodes"), minimum=1)
    walltime_s = _check_int("walltime_s", _require(raw, "walltime_s"), minimum=1)
    features = _check_features("required_features", raw.get("required_features", []))
    max_price_raw = raw.get("max_price")
    max_price = None if max_price_raw is None else parse_money("max_price", max_price_raw)
    command = _check_str("command", _require(raw, "command"))
    workdir = _check_str("workdir", _require(raw, "workdir"))
    return JobSpec(
        job_id=job_id,
        user=user,
        secret=secret,
        nodes=nodes,
        walltime_s=walltime_s,
        required_features=features,
        max_price=max_price,
        command=command,
        workdir=workdir,
    )


NO_BID_UNSUPPORTED_FEATURE = "unsupported_feature"
NO_BID_INSUFFICIENT_CAPACITY = "insufficient_capacity"


def refusal_reason(
    spec: JobSpec, capabilities: frozenset[str], capacity_nodes: int
) -> str | None:
    """Why a cluster with these capabilities and this capacity can never run
    ``spec``, or None if it can. The front-end refuses to quote on it, and
    the broker skips such clusters before asking for bids."""
    if not spec.required_features <= capabilities:
        return NO_BID_UNSUPPORTED_FEATURE
    if spec.nodes > capacity_nodes:
        return NO_BID_INSUFFICIENT_CAPACITY
    return None


@dataclass(frozen=True)
class ClusterDescriptor:
    """A front-end's advertised identity, address, capacity, and capabilities."""

    cluster_id: str
    address: str
    capacity_nodes: int
    capabilities: frozenset[str]
    base_rate: Money
    payee_account: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster_id": self.cluster_id,
            "address": self.address,
            "capacity_nodes": self.capacity_nodes,
            "capabilities": sorted(self.capabilities),
            "base_rate": self.base_rate.to_dict(),
            "payee_account": self.payee_account,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterDescriptor":
        if not isinstance(data, Mapping):
            raise ValidationError("descriptor", "must be an object")
        known = frozenset(
            {
                "cluster_id",
                "address",
                "capacity_nodes",
                "capabilities",
                "base_rate",
                "payee_account",
            }
        )
        _reject_unknown(data, known, "ClusterDescriptor")
        return cls(
            cluster_id=_check_str("cluster_id", _require(data, "cluster_id")),
            address=_check_address("address", _require(data, "address")),
            capacity_nodes=_check_int(
                "capacity_nodes", _require(data, "capacity_nodes"), minimum=1
            ),
            capabilities=_check_features("capabilities", data.get("capabilities", [])),
            base_rate=parse_money("base_rate", _require(data, "base_rate"), minimum=1),
            payee_account=_check_str("payee_account", _require(data, "payee_account")),
        )


@dataclass(frozen=True)
class Bid:
    """A cluster's priced offer for one job, honored until ``expires_at``."""

    cluster_id: str
    price: Money
    bid_token: str
    expires_at: int
    payee_account: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster_id": self.cluster_id,
            "price": self.price.to_dict(),
            "bid_token": self.bid_token,
            "expires_at": self.expires_at,
            "payee_account": self.payee_account,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Bid":
        if not isinstance(data, Mapping):
            raise ValidationError("bid", "must be an object")
        known = frozenset(
            {"cluster_id", "price", "bid_token", "expires_at", "payee_account"}
        )
        _reject_unknown(data, known, "Bid")
        return cls(
            cluster_id=_check_str("cluster_id", _require(data, "cluster_id")),
            price=parse_money("price", _require(data, "price")),
            bid_token=_check_str("bid_token", _require(data, "bid_token")),
            expires_at=_check_int("expires_at", _require(data, "expires_at")),
            payee_account=_check_str("payee_account", _require(data, "payee_account")),
        )
