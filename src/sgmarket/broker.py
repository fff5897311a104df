"""The middleman: keeps a registry of cluster front-ends and, for each job,
asks for bids and picks the cheapest eligible cluster.

Only clusters whose registered descriptor can run the job are asked: one
lacking a required feature, or with fewer nodes than the job needs, is
refused with the reason its front-end would give, and never sees the spec.

The choice is a pure function of the received bids: lowest price wins, ties
break toward the bytewise-smallest cluster_id, so identical market states
always produce identical selections. No front-end prices a job below its
floor, the cost of the job at zero load under the rate card it registered
(``base_rate * nodes * walltime_s`` times the multiplier of each required
feature it prices). Each bid also reports its load: the factor its price
applied to that cost, and the most the factor can fall per second with no
new work. So a cluster's price is at least its bound,
``max(floor, ceil(cost * (load - drain * (now - at + 1))))`` from the last
report it sent at broker time ``at``, or its floor if it sent none. That
rests on three assumptions:

* load only falls by draining: new work never lowers a price;
* a front-end's clock runs no faster than the broker's, as both count the
  whole seconds of one ``VirtualClock`` in ``sg-sim`` or of monotonic clocks
  in a deployment (the placement record below assumes this too);
* the ``+ 1`` covers the offset between two clocks' origins.

Bids go out in at most two rounds. Round 1 asks the clusters tied at the
lowest bound, in (bound, cluster_id) order, and stops after the first one
its placement record shows idle (the broker placed work there and all of
it has run out) or its report shows busy (its bound is above its floor):
if nothing arrived there since, either bids about its bound. Round 2 asks
the rest whose (bound, cluster_id) still beats the best (price,
cluster_id) of round 1, or all the rest if round 1 drew no bid or a bid
below its own cluster's bound. Both hints live on the cluster's
registration, and a wrong one costs quotes or a round, never the winner:
that is the one a quote from every eligible cluster would pick, as long as
each front-end prices by the rate card it registered and the assumptions
hold. A front-end registers with a boot id drawn once per start. A renewal
under the live record's id keeps the cluster's report; under a new id, or
none, the front-end may have restarted empty, so the report goes. The
placement record stays either way, and a find that straddles a
registration loses what it learnt. A round's quotes go out at once from one
thread, as one ``wire.rpc_fanout``, and share one bid timeout, so a find
waits at most two, and a hanging front-end never blocks selection among
responsive ones.
``sg-broker`` is :func:`start_service` under :func:`wire.run_service`.
"""

from __future__ import annotations

import sys
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Mapping

from . import wire
from .clock import VirtualClock, WallClock
from .domain import (
    Bid,
    ClusterDescriptor,
    JobSpec,
    ServiceError,
    ValidationError,
    money,
    price_at,
    refusal_reason,
    reject_unknown,
    validate_jobspec,
)

DEFAULT_LISTEN = "127.0.0.1:7701"
BID_TIMEOUT_MS = 2000  # a quote round's wait; two rounds fit in ``client.TIMEOUT_MS``
MIN_TTL_S = 5
MAX_TTL_S = 3600


class InvalidDescriptor(ServiceError):
    name = "InvalidDescriptor"


@dataclass
class Registration:
    """The broker's one record of a cluster: its descriptor, lease and boot
    id, the ``(load, drain, at)`` of its last bid that showed load, and when
    the last work this broker placed there ends. The last two change under
    the broker lock."""

    descriptor: ClusterDescriptor
    registered_at: int
    ttl_s: int
    boot_id: str | None = None
    report: tuple[tuple[int, int], tuple[int, int], int] | None = None
    placed_until: int | None = None

    def live(self, now: int) -> bool:
        return now <= self.registered_at + self.ttl_s


def select_lowest(bids: list[tuple[str, int]]) -> tuple[str, int] | None:
    """Argmin over (cluster_id, price) pairs; ties break to the bytewise
    smaller cluster_id. Order of the input never matters."""
    if not bids:
        return None
    best = min(bids, key=lambda item: (item[1], item[0]))
    return best


def _parse_quote(result: Any) -> Bid | str:
    """A front-end's node.quote result, or the RpcError of a call that
    failed, as a Bid or the reason there is none."""
    if isinstance(result, wire.RpcError):
        return "timeout" if result.code == wire.RpcErrorCode.TIMEOUT else "rpc_error"
    if not isinstance(result, dict):
        return "bad_bid"
    if "no_bid" in result:
        no_bid = result["no_bid"]
        reason = no_bid.get("reason", "no_bid") if isinstance(no_bid, dict) else None
        return reason if isinstance(reason, str) else "bad_bid"
    try:
        return Bid.from_dict(result["bid"])
    except (KeyError, TypeError, ValidationError):
        return "bad_bid"


class BrokerCore:
    """Registry plus selection. The registry holds one ``Registration`` per
    cluster, and a find writes what it learns onto it: each bidder's load
    report, and the winner's placement. One lock guards the registry, and
    the quote rounds never hold it while waiting on the network.
    """

    def __init__(self, clock: VirtualClock | WallClock | None = None):
        self.clock = clock if clock is not None else WallClock()
        self._lock = threading.Lock()
        self._registry: dict[str, Registration] = {}

    def register_cluster(
        self, descriptor: ClusterDescriptor, ttl_s: int, boot_id: str | None = None
    ) -> None:
        if not MIN_TTL_S <= ttl_s <= MAX_TTL_S:
            raise wire.InvalidParams(
                f"ttl_s must be in [{MIN_TTL_S}, {MAX_TTL_S}], got {ttl_s}"
            )
        now = self.clock.now()
        with self._lock:
            old = self._registry.get(descriptor.cluster_id)
            renewal = old is not None and old.live(now) and old.boot_id == boot_id
            # Only a renewal from the same start keeps the report; the work
            # this broker placed there still runs after a restart.
            self._registry[descriptor.cluster_id] = Registration(
                descriptor,
                now,
                ttl_s,
                boot_id,
                report=old.report if renewal and boot_id is not None else None,
                placed_until=old.placed_until if old else None,
            )

    def list_clusters(self) -> list[ClusterDescriptor]:
        now = self.clock.now()
        with self._lock:
            live = [r.descriptor for r in self._registry.values() if r.live(now)]
        return sorted(live, key=lambda d: d.cluster_id)

    def find_cluster(self, spec: JobSpec) -> dict[str, Any]:
        """The ``broker.find_cluster`` reply for ``spec``: ``{"selection":
        {cluster_id, address, price, bid_token, payee_account}}`` for the
        winning bid, or ``{"no_eligible": {"reasons": {cluster_id: why}}}``
        if no bid arrived (empty with no live registration)."""
        now = self.clock.now()
        with self._lock:
            live = [
                (registration, registration.report, registration.placed_until)
                for _, registration in sorted(self._registry.items())
                if registration.live(now)
            ]
        eligible: dict[str, Registration] = {}
        bounds: dict[str, int] = {}
        stops: set[str] = set()  # known idle or busy: round 1 ends there
        reasons: dict[str, str] = {}
        for registration, report, placed_until in live:
            descriptor = registration.descriptor
            cid = descriptor.cluster_id
            refusal = refusal_reason(
                spec, descriptor.capabilities, descriptor.capacity_nodes
            )
            if refusal is not None:
                reasons[cid] = refusal
                continue
            eligible[cid] = registration
            cost = descriptor.cost(spec)
            floor = bounds[cid] = price_at(cost)
            if report is not None:
                (load_p, load_q), (drain_p, drain_q), at = report
                factor = load_p * drain_q - drain_p * (now - at + 1) * load_q
                bounds[cid] = max(floor, price_at(cost, (factor, load_q * drain_q)))
            if bounds[cid] > floor or (placed_until is not None and placed_until <= now):
                stops.add(cid)
        if not eligible:
            return {"no_eligible": {"reasons": reasons}}
        bids: dict[str, Bid] = {}

        def ask(cluster_ids: list[str]) -> tuple[str, int] | None:
            """One quote round; the best (cluster_id, price) bid so far."""
            replies = wire.rpc_fanout(
                [eligible[cid].descriptor.address for cid in cluster_ids],
                "node.quote",
                {"spec": spec.to_dict()},
                BID_TIMEOUT_MS,
            )
            for cluster_id, reply in zip(cluster_ids, replies):
                answer = _parse_quote(reply)
                if isinstance(answer, Bid):
                    bids[cluster_id] = answer
                else:
                    reasons[cluster_id] = answer
            return select_lowest([(cid, bid.price) for cid, bid in bids.items()])

        order = sorted((bound, cid) for cid, bound in bounds.items())
        # Round 1 is the lowest-bound group, cut after the first cluster the
        # placement record shows idle or its report shows busy: it bids
        # about its bound, which no cluster after it in (bound, cluster_id)
        # order can beat.
        first: list[str] = []
        for bound, cid in order:
            if bound != order[0][0]:
                break
            first.append(cid)
            if cid in stops:
                break
        chosen = ask(first)
        # A bound equal to the best price can still win the tie on a
        # smaller cluster_id. A bid below its own bound shows a front-end
        # off its rate card or its report, and then no bound holds round 2.
        off_bound = any(bid.price < bounds[cid] for cid, bid in bids.items())
        rest = [
            cid
            for bound, cid in order[len(first):]
            if chosen is None or off_bound or (bound, cid) < (chosen[1], chosen[0])
        ]
        if rest:
            chosen = ask(rest)
        # What this find learnt goes onto the records it read, so none of it
        # reaches a cluster that registered again meanwhile.
        with self._lock:
            for cid, bid in bids.items():
                busy = bid.load[0] > bid.load[1]  # a bid at load 1 ends the report
                eligible[cid].report = (bid.load, bid.drain, now) if busy else None
            if chosen is not None:
                winner = eligible[chosen[0]]
                ends = now + spec.walltime_s
                winner.placed_until = max(winner.placed_until or ends, ends)
        if chosen is None:
            return {"no_eligible": {"reasons": reasons}}
        cluster_id, _ = chosen
        winning = bids[cluster_id]
        return {
            "selection": {
                "cluster_id": cluster_id,
                "address": eligible[cluster_id].descriptor.address,
                "price": money(winning.price),
                "bid_token": winning.bid_token,
                "payee_account": winning.payee_account,
            }
        }


def rpc_handlers(core: BrokerCore) -> dict[str, wire.Handler]:
    def register_cluster(params: Mapping[str, Any]) -> dict[str, Any]:
        raw = params.get("descriptor")
        if not isinstance(raw, dict):
            raise wire.InvalidParams("descriptor must be a JSON object")
        try:
            descriptor = ClusterDescriptor.from_dict(raw)
        except ValidationError as exc:
            raise InvalidDescriptor(exc.detail) from None
        ttl_s = params.get("ttl_s")
        if not isinstance(ttl_s, int) or isinstance(ttl_s, bool):
            raise wire.InvalidParams("ttl_s must be an integer")
        boot_id = params.get("boot_id")
        if boot_id is not None and not isinstance(boot_id, str):
            raise wire.InvalidParams("boot_id must be a string")
        core.register_cluster(descriptor, ttl_s, boot_id)
        return {"ok": True}

    def find_cluster(params: Mapping[str, Any]) -> dict[str, Any]:
        raw = params.get("spec")
        if not isinstance(raw, dict):
            raise wire.InvalidParams("spec must be a JSON object")
        return core.find_cluster(validate_jobspec(raw))

    def list_clusters(params: Mapping[str, Any]) -> dict[str, Any]:
        return {"clusters": [d.to_dict() for d in core.list_clusters()]}

    return {
        "broker.register_cluster": register_cluster,
        "broker.find_cluster": find_cluster,
        "broker.list_clusters": list_clusters,
    }


def start_service(config: Mapping[str, Any], stack: ExitStack) -> str:
    """Start ``sg-broker``, each step of its shutdown on ``stack``; its address."""
    reject_unknown(config, frozenset({"listen"}), "broker config")
    server = wire.serve(config.get("listen", DEFAULT_LISTEN), rpc_handlers(BrokerCore()))
    stack.callback(server.shutdown)
    return server.address


def main(argv: list[str] | None = None) -> int:
    return wire.run_service("sg-broker", start_service, argv)


if __name__ == "__main__":
    sys.exit(main())
