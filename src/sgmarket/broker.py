"""The middleman: keeps a registry of cluster front-ends and, for each job,
fans the spec out for bids and picks the cheapest eligible cluster.

Only clusters whose registered descriptor can run the job are asked: one
lacking a required feature, or with fewer nodes than the job needs, is
refused with the reason its front-end would give, and never sees the spec.

Selection is a pure function of the received bids: lowest price wins, ties
break toward the bytewise-smallest cluster_id, so identical market states
always produce identical selections. All quotes of one request go out at
once from one thread and share one bid timeout, so a hanging front-end costs
at most that timeout and never blocks selection among responsive ones.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from . import wire
from .clock import VirtualClock, WallClock
from .domain import (
    Bid,
    ClusterDescriptor,
    JobSpec,
    Money,
    ServiceError,
    ValidationError,
    refusal_reason,
    validate_jobspec,
)

log = logging.getLogger(__name__)

DEFAULT_BID_TIMEOUT_MS = 2000
DEFAULT_TTL_S = 60
MIN_TTL_S = 5
MAX_TTL_S = 3600


class InvalidDescriptor(ServiceError):
    name = "InvalidDescriptor"


@dataclass(frozen=True)
class Registration:
    descriptor: ClusterDescriptor
    registered_at: int
    ttl_s: int

    def live(self, now: int) -> bool:
        return now <= self.registered_at + self.ttl_s


@dataclass(frozen=True)
class Selection:
    """The winning bid: where to submit, at what price, and whom to pay."""

    cluster_id: str
    address: str
    price: Money
    bid_token: str
    payee_account: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster_id": self.cluster_id,
            "address": self.address,
            "price": self.price.to_dict(),
            "bid_token": self.bid_token,
            "payee_account": self.payee_account,
        }


@dataclass(frozen=True)
class NoEligibleCluster:
    """No valid bid arrived; ``reasons`` maps cluster_id to why it was
    excluded (plus the empty-registry case, where it is empty)."""

    reasons: Mapping[str, str]

    def to_dict(self) -> dict[str, Any]:
        return {"reasons": dict(self.reasons)}


def select_lowest(bids: list[tuple[str, int]]) -> tuple[str, int] | None:
    """Argmin over (cluster_id, price) pairs; ties break to the bytewise
    smaller cluster_id. Order of the input never matters."""
    if not bids:
        return None
    best = min(bids, key=lambda item: (item[1], item[0]))
    return best


QuoteFn = Callable[[list[str], JobSpec, int], "list[Bid | dict[str, Any] | wire.RpcError]"]


def _parse_quote(result: Any) -> Bid | dict[str, Any]:
    """A front-end's node.quote result as a Bid or a no-bid marker."""
    if not isinstance(result, dict):
        return {"reason": "bad_bid"}
    if "no_bid" in result:
        reason = result["no_bid"].get("reason", "no_bid")
        return {"reason": str(reason)}
    try:
        return Bid.from_dict(result["bid"])
    except (KeyError, TypeError, ValidationError):
        return {"reason": "bad_bid"}


def _rpc_quotes(
    addresses: list[str], spec: JobSpec, timeout_ms: int
) -> list[Bid | dict[str, Any] | wire.RpcError]:
    """Ask every front-end for a bid at once; per address, a Bid, a no-bid
    marker, or the RpcError of a call that failed."""
    replies = wire.rpc_fanout(addresses, "node.quote", {"spec": spec.to_dict()}, timeout_ms)
    return [r if isinstance(r, wire.RpcError) else _parse_quote(r) for r in replies]


class BrokerCore:
    """Registry plus selection; the registry is one guarded map, and the
    quote fan-out never holds its lock while waiting on the network."""

    def __init__(
        self,
        bid_timeout_ms: int = DEFAULT_BID_TIMEOUT_MS,
        default_ttl_s: int = DEFAULT_TTL_S,
        clock: VirtualClock | WallClock | None = None,
        quote_fn: QuoteFn = _rpc_quotes,
    ):
        self.bid_timeout_ms = bid_timeout_ms
        self.default_ttl_s = default_ttl_s
        self.clock = clock if clock is not None else WallClock()
        self._quote_fn = quote_fn
        self._lock = threading.Lock()
        self._registry: dict[str, Registration] = {}

    def register_cluster(self, descriptor: ClusterDescriptor, ttl_s: int) -> None:
        if not MIN_TTL_S <= ttl_s <= MAX_TTL_S:
            raise wire.InvalidParams(
                f"ttl_s must be in [{MIN_TTL_S}, {MAX_TTL_S}], got {ttl_s}"
            )
        registration = Registration(
            descriptor=descriptor, registered_at=self.clock.now(), ttl_s=ttl_s
        )
        with self._lock:
            self._registry[descriptor.cluster_id] = registration

    def list_clusters(self) -> list[ClusterDescriptor]:
        now = self.clock.now()
        with self._lock:
            live = [r.descriptor for r in self._registry.values() if r.live(now)]
        return sorted(live, key=lambda d: d.cluster_id)

    def find_cluster(self, spec: JobSpec) -> Selection | NoEligibleCluster:
        addresses: dict[str, str] = {}
        reasons: dict[str, str] = {}
        for descriptor in self.list_clusters():
            refusal = refusal_reason(
                spec, descriptor.capabilities, descriptor.capacity_nodes
            )
            if refusal is None:
                addresses[descriptor.cluster_id] = descriptor.address
            else:
                reasons[descriptor.cluster_id] = refusal
        if not addresses:
            return NoEligibleCluster(reasons=reasons)
        answers = self._quote_fn(
            list(addresses.values()), spec, self.bid_timeout_ms
        )
        bids: dict[str, Bid] = {}
        for cluster_id, answer in zip(addresses, answers):
            if isinstance(answer, Bid):
                bids[cluster_id] = answer
            elif isinstance(answer, wire.RpcError):
                timed_out = answer.code == wire.RpcErrorCode.TIMEOUT
                reasons[cluster_id] = "timeout" if timed_out else "rpc_error"
            else:
                reasons[cluster_id] = answer["reason"]
        chosen = select_lowest([(cid, bid.price.amount) for cid, bid in bids.items()])
        if chosen is None:
            return NoEligibleCluster(reasons=reasons)
        cluster_id, _ = chosen
        winning = bids[cluster_id]
        return Selection(
            cluster_id=cluster_id,
            address=addresses[cluster_id],
            price=winning.price,
            bid_token=winning.bid_token,
            payee_account=winning.payee_account,
        )


def rpc_handlers(core: BrokerCore) -> dict[str, wire.Handler]:
    def register_cluster(params: Mapping[str, Any]) -> dict[str, Any]:
        raw = params.get("descriptor")
        if not isinstance(raw, dict):
            raise wire.InvalidParams("descriptor must be a JSON object")
        try:
            descriptor = ClusterDescriptor.from_dict(raw)
        except ValidationError as exc:
            raise InvalidDescriptor(exc.detail) from None
        ttl_s = params.get("ttl_s", core.default_ttl_s)
        if not isinstance(ttl_s, int) or isinstance(ttl_s, bool):
            raise wire.InvalidParams("ttl_s must be an integer")
        core.register_cluster(descriptor, ttl_s)
        return {"ok": True}

    def find_cluster(params: Mapping[str, Any]) -> dict[str, Any]:
        raw = params.get("spec")
        if not isinstance(raw, dict):
            raise wire.InvalidParams("spec must be a JSON object")
        outcome = core.find_cluster(validate_jobspec(raw))
        if isinstance(outcome, NoEligibleCluster):
            return {"no_eligible": outcome.to_dict()}
        return {"selection": outcome.to_dict()}

    def list_clusters(params: Mapping[str, Any]) -> dict[str, Any]:
        return {"clusters": [d.to_dict() for d in core.list_clusters()]}

    return {
        "broker.register_cluster": register_cluster,
        "broker.find_cluster": find_cluster,
        "broker.list_clusters": list_clusters,
    }


def load_config(path: str | Path) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    config.setdefault("listen", "127.0.0.1:7701")
    config.setdefault("bid_timeout_ms", DEFAULT_BID_TIMEOUT_MS)
    config.setdefault("default_ttl_s", DEFAULT_TTL_S)
    return config


def start_service(
    config: Mapping[str, Any], clock: VirtualClock | WallClock | None = None
) -> tuple[wire.Server, BrokerCore]:
    core = BrokerCore(
        bid_timeout_ms=config.get("bid_timeout_ms", DEFAULT_BID_TIMEOUT_MS),
        default_ttl_s=config.get("default_ttl_s", DEFAULT_TTL_S),
        clock=clock,
    )
    server = wire.serve(config["listen"], rpc_handlers(core))
    return server, core


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sg-broker", description="bid broker service")
    parser.add_argument("--config", required=True, help="path to broker config JSON")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    server, _ = start_service(load_config(args.config))
    log.info("broker listening on %s", server.address)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
