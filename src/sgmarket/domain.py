"""Validated domain values shared by every service, plus canonical JSON encoding.

Every type here is an immutable value: once constructed it satisfies its
invariants and can be shared freely between concurrent request handlers.
An amount of money is a plain ``int`` of millicredits; on the wire it is
``{"amount": n}``, written by :func:`money` and read by :func:`parse_money`.
A job's status is its plain ``node.status`` object, which a front-end writes
and :func:`parse_status` reads.
Canonical encoding is compact JSON with bytewise-sorted keys, UTF-8, so equal
values always produce byte-identical output.
"""

from __future__ import annotations

import hmac
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

FEATURE_RE = re.compile(r"^[a-z_]+$")
JOB_ID_RE = re.compile(r"^[0-9a-f]{32}$")


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


# The C encoder ``json.dumps`` would build per call with ``sort_keys=True,
# separators=(",", ":"), ensure_ascii=False``, built once. Without markers
# it does not look for cycles.
_encode = json.encoder.c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,
    json.encoder.encode_basestring,
    None,  # indent
    ":",
    ",",
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def canonical_encode(value: Any) -> bytes:
    """Serialize a JSON-able value deterministically: sorted keys, no
    insignificant whitespace, UTF-8; the bytes ``json.dumps`` gives with
    those settings. A value that contains itself raises ``RecursionError``,
    where ``json.dumps`` raises ``ValueError``."""
    return "".join(_encode(value, 0)).encode("utf-8")


def secret_matches(expected: str | None, given: str) -> bool:
    """Whether ``given`` equals the registered secret, in time independent
    of where they differ. ``None`` (nobody registered) matches nothing.
    Compares UTF-8 bytes (``hmac.compare_digest`` rejects non-ASCII
    ``str``); ``surrogatepass`` keeps a lone surrogate comparable."""
    return expected is not None and hmac.compare_digest(
        expected.encode("utf-8", "surrogatepass"),
        given.encode("utf-8", "surrogatepass"),
    )


def check_secrets(field: str, table: Any) -> dict[str, str]:
    """A table of secrets by name, as a new dict: string names, each with
    a non-empty string secret."""
    if not isinstance(table, Mapping):
        raise ValidationError(field, "must be an object of name: secret")
    for name, secret in table.items():
        if not isinstance(name, str) or not isinstance(secret, str) or not secret:
            raise ValidationError(f"{field}[{name!r}]", "must be a non-empty string")
    return dict(table)


def load_config(path: str | Path) -> dict[str, Any]:
    """A service's settings: the JSON object in the file at ``path``. Each
    service applies its own defaults where it reads a setting."""
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValidationError("config", "must be a JSON object")
    return config


def _require(data: Mapping[str, Any], field: str) -> Any:
    if field not in data:
        raise ValidationError(field, "missing required field")
    return data[field]


def _check_str(field: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, "must be a string")
    if not value:
        raise ValidationError(field, "must be non-empty")
    return value


def check_int(
    field: str, value: Any, *, minimum: int | None = None, maximum: int | None = None
) -> int:
    """``value`` if it is an integer (not a bool) within the given bounds."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(field, "must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValidationError(field, f"must be <= {maximum}")
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


def parse_address(address: str) -> tuple[str, int]:
    """``(host, port)`` of a ``host:port`` string; port 0 is allowed, and
    means an ephemeral port to a server that binds it."""
    host, sep, port = address.rpartition(":") if isinstance(address, str) else ("", "", "")
    if not sep or not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"bad address {address!r}, expected host:port")
    return host, int(port)


def check_address(field: str, value: Any) -> str:
    """``value`` if it is the address of a peer to connect to: ``host:port``
    with a port of at least 1."""
    try:
        _, port = parse_address(value)
    except ValueError as exc:
        raise ValidationError(field, str(exc)) from None
    if port < 1:
        raise ValidationError(field, "a peer's port must be >= 1")
    return value


def reject_unknown(data: Mapping[str, Any], known: frozenset[str], where: str) -> None:
    for key in data:
        if key not in known:
            raise ValidationError(key, f"unknown field for {where}")


def money(amount: int) -> dict[str, int]:
    """The wire form of an amount of millicredits, which ``parse_money``
    reads back."""
    return {"amount": amount}


def parse_money(field: str, value: Any, *, minimum: int = 0) -> int:
    """Integer millicredits, given as such or as ``{"amount": n}``."""
    if isinstance(value, Mapping):
        try:
            reject_unknown(value, frozenset({"amount"}), "Money")
            value = check_int("amount", _require(value, "amount"))
        except ValidationError as exc:
            raise ValidationError(field, exc.reason) from None
    elif not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(field, "must be integer millicredits")
    if value < 0:
        raise ValidationError(field, "must be >= 0")
    if value < minimum:
        raise ValidationError(field, f"must be >= {minimum}")
    return value


JOB_QUEUED, JOB_RUNNING, JOB_COMPLETED = "QUEUED", "RUNNING", "COMPLETED"
_STATUS_INTS = ("submitted_at", "started_at", "finished_at", "exit_code")


def parse_status(raw: Any) -> dict[str, Any]:
    """A job's ``node.status`` object as a peer sent it: its ``state`` and
    whichever integer ``submitted_at``, ``started_at``, ``finished_at`` and
    ``exit_code`` it has, no time earlier than the one before it. A null
    field reads as absent."""
    if not isinstance(raw, Mapping):
        raise ValidationError("status", "must be an object")
    reject_unknown(raw, frozenset(("state",) + _STATUS_INTS), "job status")
    state = _check_str("state", _require(raw, "state"))
    if state not in (JOB_QUEUED, JOB_RUNNING, JOB_COMPLETED):
        raise ValidationError("state", f"unknown state {state!r}")
    status: dict[str, Any] = {"state": state}
    for name in _STATUS_INTS:
        if raw.get(name) is not None:
            status[name] = check_int(name, raw[name])
    started = status.get("started_at")
    if started is not None and started < status.get("submitted_at", started):
        raise ValidationError("started_at", "precedes submitted_at")
    finished = status.get("finished_at")
    if finished is not None and finished < status.get("started_at", finished):
        raise ValidationError("finished_at", "precedes started_at")
    return status


_JOBSPEC_FIELDS = frozenset(
    {
        "job_id",
        "nodes",
        "walltime_s",
        "required_features",
        "max_price",
        "command",
        "workdir",
    }
)


@dataclass(frozen=True)
class JobSpec:
    """Everything a cluster needs to price and run one job."""

    job_id: str
    nodes: int
    walltime_s: int
    required_features: frozenset[str]
    max_price: int | None
    command: str
    workdir: str

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "nodes": self.nodes,
            "walltime_s": self.walltime_s,
            "required_features": sorted(self.required_features),
            "command": self.command,
            "workdir": self.workdir,
        }
        if self.max_price is not None:
            out["max_price"] = money(self.max_price)
        return out


def validate_jobspec(raw: Mapping[str, Any]) -> JobSpec:
    """Validate a JobSpec-shaped record, reporting the first violated field."""
    if not isinstance(raw, Mapping):
        raise ValidationError("jobspec", "must be an object")
    reject_unknown(raw, _JOBSPEC_FIELDS, "JobSpec")
    job_id = _check_str("job_id", _require(raw, "job_id"))
    if not JOB_ID_RE.match(job_id):
        raise ValidationError("job_id", "must be 32 lowercase hex characters")
    nodes = check_int("nodes", _require(raw, "nodes"), minimum=1)
    walltime_s = check_int("walltime_s", _require(raw, "walltime_s"), minimum=1)
    features = _check_features("required_features", raw.get("required_features", []))
    max_price_raw = raw.get("max_price")
    max_price = None if max_price_raw is None else parse_money("max_price", max_price_raw)
    command = _check_str("command", _require(raw, "command"))
    workdir = _check_str("workdir", _require(raw, "workdir"))
    return JobSpec(
        job_id=job_id,
        nodes=nodes,
        walltime_s=walltime_s,
        required_features=features,
        max_price=max_price,
        command=command,
        workdir=workdir,
    )


NO_BID_UNSUPPORTED_FEATURE = "unsupported_feature"
NO_BID_INSUFFICIENT_CAPACITY = "insufficient_capacity"
NO_BID_PRICE_ABOVE_MAX = "price_above_max"


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


def check_ratio(field: str, value: Any, minimum: int) -> tuple[int, int]:
    """A ``[p, q]`` integer pair with ``q >= 1`` and ``p / q >= minimum``
    (0 or 1)."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ValidationError(field, "must be a [p, q] integer pair")
    p, q = value
    if q < 1 or p < minimum * q:
        bounds = "p >= q >= 1" if minimum else "p >= 0 and q >= 1"
        raise ValidationError(field, f"must have {bounds}")
    return p, q


def _check_multipliers(
    value: Any, capabilities: frozenset[str]
) -> dict[str, Fraction]:
    """``{feature: [p, q]}`` for advertised features, each ``p >= q >= 1``."""
    if not isinstance(value, Mapping):
        raise ValidationError("feature_multipliers", "must be an object")
    multipliers = {}
    for feature, ratio in value.items():
        where = f"feature_multipliers[{feature}]"
        if feature not in capabilities:
            raise ValidationError(where, "not an advertised capability")
        multipliers[feature] = Fraction(*check_ratio(where, ratio, 1))
    return multipliers


@dataclass(frozen=True)
class ClusterDescriptor:
    """A front-end's advertised identity, address, capacity, capabilities,
    and rate card: its base rate and the multiplier of each priced feature."""

    cluster_id: str
    address: str
    capacity_nodes: int
    capabilities: frozenset[str]
    base_rate: int
    payee_account: str
    feature_multipliers: Mapping[str, Fraction] = field(default_factory=dict, hash=False)

    def cost(self, spec: JobSpec) -> tuple[int, int]:
        """``spec``'s cost at zero load under this rate card, as an exact
        numerator and denominator: ``base_rate * nodes * walltime_s`` times
        the multiplier of each required feature the card prices. A
        front-end's price and the broker's floor both start from it."""
        num = self.base_rate * spec.nodes * spec.walltime_s
        den = 1
        for feature in spec.required_features:
            multiplier = self.feature_multipliers.get(feature)
            if multiplier is not None:
                num *= multiplier.numerator
                den *= multiplier.denominator
        return num, den

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "cluster_id": self.cluster_id,
            "address": self.address,
            "capacity_nodes": self.capacity_nodes,
            "capabilities": sorted(self.capabilities),
            "base_rate": money(self.base_rate),
            "payee_account": self.payee_account,
        }
        if self.feature_multipliers:
            out["feature_multipliers"] = {
                feature: [ratio.numerator, ratio.denominator]
                for feature, ratio in self.feature_multipliers.items()
            }
        return out

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
                "feature_multipliers",
            }
        )
        reject_unknown(data, known, "ClusterDescriptor")
        capabilities = _check_features("capabilities", data.get("capabilities", []))
        return cls(
            cluster_id=_check_str("cluster_id", _require(data, "cluster_id")),
            address=check_address("address", _require(data, "address")),
            capacity_nodes=check_int(
                "capacity_nodes", _require(data, "capacity_nodes"), minimum=1
            ),
            capabilities=capabilities,
            base_rate=parse_money("base_rate", _require(data, "base_rate"), minimum=1),
            payee_account=_check_str("payee_account", _require(data, "payee_account")),
            feature_multipliers=_check_multipliers(
                data.get("feature_multipliers", {}), capabilities
            ),
        )


def price_at(cost: tuple[int, int], factor: tuple[int, int] = (1, 1)) -> int:
    """How every price rounds: ``ceil(cost * p / q)`` in whole millicredits,
    for a rate-card ``cost`` and a load ``factor``, each as ``(num, den)``.
    A front-end's price, the broker's floor and its bound all call it."""
    num, den = cost
    p, q = factor
    return -(-num * p // (den * q))


_BID_FIELDS = frozenset({"price", "bid_token", "payee_account", "load", "drain"})


@dataclass(frozen=True)
class Bid:
    """A cluster's priced offer for one job, honored until the expiry its
    token carries.

    ``load`` is the exact factor, as ``(p, q)``, that the price applied to
    the job's rate-card cost: ``price == price_at(cost, load)``. ``drain``
    is the most that factor can fall per virtual second while no new work
    arrives. Both are left off the wire at their idle values, 1 and 0.
    """

    price: int
    bid_token: str
    payee_account: str
    load: tuple[int, int] = (1, 1)
    drain: tuple[int, int] = (0, 1)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "price": money(self.price),
            "bid_token": self.bid_token,
            "payee_account": self.payee_account,
        }
        if self.load[0] != self.load[1]:
            out["load"] = list(self.load)
        if self.drain[0]:
            out["drain"] = list(self.drain)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Bid":
        if not isinstance(data, Mapping):
            raise ValidationError("bid", "must be an object")
        reject_unknown(data, _BID_FIELDS, "Bid")
        return cls(
            price=parse_money("price", _require(data, "price")),
            bid_token=_check_str("bid_token", _require(data, "bid_token")),
            payee_account=_check_str("payee_account", _require(data, "payee_account")),
            load=check_ratio("load", data.get("load", (1, 1)), 1),
            drain=check_ratio("drain", data.get("drain", (0, 1)), 0),
        )
