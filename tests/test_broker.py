"""Registry TTLs, deterministic argmin selection, and fan-out isolation."""

import dataclasses
import itertools
import json
import socket
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sgmarket import wire
from sgmarket.broker import (
    BID_TIMEOUT_MS,
    BrokerCore,
    InvalidDescriptor,
    rpc_handlers,
    select_lowest,
)
from sgmarket.client import TIMEOUT_MS
from sgmarket.clock import VirtualClock
from sgmarket.domain import (
    Bid,
    ClusterDescriptor,
    refusal_reason,
    validate_jobspec,
)
from sgmarket.frontend import FrontendCore, HORIZON_S, rpc_handlers as frontend_handlers

from local_network import LocalNetwork


def _descriptor(cluster_id, address="127.0.0.1:9999", capacity=8, capabilities=(),
                base_rate=1, multipliers=None):
    return ClusterDescriptor(
        cluster_id=cluster_id,
        address=address,
        capacity_nodes=capacity,
        capabilities=frozenset(capabilities),
        base_rate=base_rate,
        payee_account=f"cluster:{cluster_id}",
        feature_multipliers=multipliers or {},
    )


def _won(outcome):
    """The winning cluster_id and price of a ``find_cluster`` reply."""
    selection = outcome["selection"]
    return selection["cluster_id"], selection["price"]


def _spec(job_id="c" * 32, **kw):
    record = {
        "job_id": job_id,
        "nodes": 4,
        "walltime_s": 100,
        "command": "run",
        "workdir": "/data",
    }
    record.update(kw)
    return validate_jobspec(record)


# -- pure selection -------------------------------------------------------------

def test_select_lowest_examples():
    assert select_lowest([("A", 300), ("B", 250), ("C", 400)]) == ("B", 250)
    assert select_lowest([("A", 300), ("B", 300)]) == ("A", 300)
    assert select_lowest([]) is None


def test_select_lowest_order_independent_with_ties():
    prices = [("A", 2), ("B", 1), ("C", 1), ("D", 3)]
    for perm in itertools.permutations(prices):
        assert select_lowest(list(perm)) == ("B", 1)


# -- registry -------------------------------------------------------------------

def _answer(address, entry):
    """A quote table entry as the Bid it stands for, or the reason there is
    none; a ``(price, load, drain)`` entry is a bid with that load report."""
    if isinstance(entry, int):
        entry = (entry, (1, 1), (0, 1))
    if isinstance(entry, tuple):
        price, load, drain = entry
        return Bid(price, f"tok-{address}", f"cluster:{address}", load, drain)
    return entry


def _serve_quotes(network, table):
    """Host at each address of ``table`` a front-end that quotes its entry as
    it is at each quote; one whose entry is ``"timeout"`` is not hosted."""

    def quote(address):
        answer = _answer(address, table[address])
        if isinstance(answer, Bid):
            return {"bid": answer.to_dict()}
        return {"no_bid": {"reason": answer}}

    for address, entry in table.items():
        if entry != "timeout":
            network.hosts[address] = {"node.quote": lambda params, address=address: quote(address)}
    return network


def _batches(network):
    """The cluster ids each quote round asked, in order."""
    rounds = [addresses for method, addresses in network.fanouts if method == "node.quote"]
    return [[address.split("#", 1)[1] for address in addresses] for addresses in rounds]


@pytest.fixture()
def network():
    with LocalNetwork() as network:
        yield network


def _register(core, cluster_id, ttl_s=60):
    # Addresses carry the cluster id, which ``_batches`` reads back.
    core.register_cluster(_descriptor(cluster_id, address=f"127.0.0.1:1#{cluster_id}"), ttl_s)


def test_registry_upsert_and_sorted_listing():
    core = BrokerCore(clock=VirtualClock())
    _register(core, "zeta")
    _register(core, "alpha")
    assert [d.cluster_id for d in core.list_clusters()] == ["alpha", "zeta"]
    core.register_cluster(_descriptor("zeta", address="127.0.0.1:2#zeta"), 60)
    listed = {d.cluster_id: d.address for d in core.list_clusters()}
    assert listed == {"alpha": "127.0.0.1:1#alpha", "zeta": "127.0.0.1:2#zeta"}


def test_expired_registrations_drop_out(network):
    clock = VirtualClock()
    core = BrokerCore(clock=clock)
    _register(core, "A", ttl_s=10)
    _register(core, "B", ttl_s=30)
    clock.advance(11)
    assert [d.cluster_id for d in core.list_clusters()] == ["B"]
    outcome = core.find_cluster(_spec())
    assert "no_eligible" in outcome or outcome["selection"]["cluster_id"] == "B"


def test_refresh_extends_ttl():
    clock = VirtualClock()
    core = BrokerCore(clock=clock)
    _register(core, "A", ttl_s=10)
    clock.advance(8)
    _register(core, "A", ttl_s=10)
    clock.advance(8)
    assert [d.cluster_id for d in core.list_clusters()] == ["A"]


def test_ttl_bounds_enforced():
    core = BrokerCore(clock=VirtualClock())
    with pytest.raises(wire.InvalidParams):
        core.register_cluster(_descriptor("A"), 4)
    with pytest.raises(wire.InvalidParams):
        core.register_cluster(_descriptor("A"), 3601)


def test_register_handler_rejects_bad_descriptor():
    handlers = rpc_handlers(BrokerCore(clock=VirtualClock()))
    bad = _descriptor("A").to_dict()
    bad["capacity_nodes"] = 0
    with pytest.raises(InvalidDescriptor):
        handlers["broker.register_cluster"]({"descriptor": bad, "ttl_s": 60})


@pytest.mark.parametrize(
    "multipliers", [{"ssd": [2, 1]}, {"gpu": [1, 2]}, {"gpu": [True, 1]}, {"gpu": 2}]
)
def test_register_handler_rejects_a_malformed_rate_card(multipliers):
    handlers = rpc_handlers(BrokerCore(clock=VirtualClock()))
    bad = _descriptor("A", capabilities=("gpu",)).to_dict()
    bad["feature_multipliers"] = multipliers
    with pytest.raises(InvalidDescriptor):
        handlers["broker.register_cluster"]({"descriptor": bad, "ttl_s": 60})


def test_lone_surrogate_registration_is_refused_at_the_wire():
    """No descriptor the broker could never list again gets registered."""
    broker = wire.serve("127.0.0.1:0", rpc_handlers(BrokerCore(clock=VirtualClock())))
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=2.0)
    try:
        params = {"descriptor": _descriptor("\ud800").to_dict(), "ttl_s": 60}
        request = {"id": "1", "method": "broker.register_cluster", "params": params}
        sock.sendall(json.dumps(request).encode("ascii") + b"\n")
        response = wire.decode_message(sock.makefile("rb").readline().rstrip(b"\n"))
        assert response["error"]["code"] == wire.RpcErrorCode.MALFORMED
        listed = wire.rpc_call(broker.address, "broker.list_clusters", {}, timeout_ms=2000)
        assert listed == {"clusters": []}
    finally:
        sock.close()
        broker.shutdown()


def test_registration_without_ttl_is_refused():
    """Every registrant sends its ttl; one that leaves it out is refused as
    one with a non-integer ttl is."""
    core = BrokerCore(clock=VirtualClock())
    handlers = rpc_handlers(core)
    with pytest.raises(wire.InvalidParams):
        handlers["broker.register_cluster"]({"descriptor": _descriptor("A").to_dict()})
    assert core.list_clusters() == []


def test_two_bid_rounds_fit_in_the_clients_timeout():
    """A find waits at most two bid timeouts; the client must outwait it."""
    assert 2 * BID_TIMEOUT_MS < TIMEOUT_MS


# -- selection over fakes --------------------------------------------------------

def _core_with(network, table):
    core = BrokerCore(clock=VirtualClock())
    _serve_quotes(network, table)
    for cluster_id in sorted(table):
        _register(core, cluster_id.split("#", 1)[1])
    return core


def test_find_cluster_picks_cheapest(network):
    core = _core_with(network, {"127.0.0.1:1#A": 300, "127.0.0.1:1#B": 250, "127.0.0.1:1#C": 400})
    outcome = core.find_cluster(_spec())
    assert _won(outcome) == ("B", {"amount": 250})
    # The payee is the winning bid's, never the unauthenticated descriptor's.
    assert outcome["selection"]["payee_account"] == "cluster:127.0.0.1:1#B"


def test_find_cluster_breaks_ties_lexicographically(network):
    core = _core_with(network, {"127.0.0.1:1#B": 300, "127.0.0.1:1#A": 300})
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "A"


def test_find_cluster_ignores_hangs_and_no_bids(network):
    core = _core_with(network, {"127.0.0.1:1#A": "timeout", "127.0.0.1:1#B": 500,
                                "127.0.0.1:1#C": "unsupported_feature"})
    outcome = core.find_cluster(_spec())
    assert outcome["selection"]["cluster_id"] == "B"


def test_find_cluster_reports_reasons_when_nothing_bids(network):
    core = _core_with(network, {"127.0.0.1:1#A": "timeout", "127.0.0.1:1#B": "unsupported_feature"})
    outcome = core.find_cluster(_spec())
    assert outcome["no_eligible"]["reasons"] == {"A": "timeout", "B": "unsupported_feature"}


def test_find_cluster_with_empty_registry(network):
    core = BrokerCore(clock=VirtualClock())
    outcome = core.find_cluster(_spec())
    assert outcome["no_eligible"]["reasons"] == {}


# -- bid rounds -------------------------------------------------------------------

# nodes=4, walltime_s=100: a cluster's floor is 400 times its base rate.
@pytest.mark.parametrize(
    "fleet, batches, winner",
    [
        # Round 2 asks only the floors below the best round-1 bid.
        ({"E": (1, 900), "B": (1, 1000), "C": (2, 800), "A": (2, 850), "D": (3, 1200)},
         [["B", "E"], ["A", "C"]], "C"),
        # A floor equal to the best price is asked only if it wins the tie.
        ({"X": (1, 800), "A": (2, 800), "Z": (2, 800)}, [["X"], ["A"]], "A"),
        # No bid in round 1: round 2 asks every remaining cluster.
        ({"A": (1, "timeout"), "B": (2, 900), "C": (3, 1300)}, [["A"], ["B", "C"]], "B"),
        # A no-bid beside a bid in round 1: the bid still bounds round 2.
        ({"A": (1, "price_above_max"), "B": (1, 900), "C": (2, 850), "D": (3, 1300)},
         [["A", "B"], ["C"]], "C"),
        # A round-1 bid at or below every other floor ends the find.
        ({"A": (1, 800), "B": (2, 900), "C": (2, 850)}, [["A"]], "A"),
        # One base rate across the fleet: one round of the whole fleet.
        ({"A": (2, 900), "B": (2, 800), "C": (2, 850)}, [["A", "B", "C"]], "B"),
    ],
)
def test_bid_rounds_ask_only_clusters_that_can_still_win(network, fleet, batches, winner):
    table = {f"127.0.0.1:1#{cid}": answer for cid, (_, answer) in fleet.items()}
    _serve_quotes(network, table)
    core = BrokerCore(clock=VirtualClock())
    for cid, (base_rate, _) in fleet.items():
        core.register_cluster(
            _descriptor(cid, address=f"127.0.0.1:1#{cid}", base_rate=base_rate), 60
        )
    outcome = core.find_cluster(_spec())
    assert _batches(network) == batches
    assert outcome["selection"]["cluster_id"] == winner


def _full_fanout(descriptors, spec, answers):
    """The oracle: the selection a quote from every eligible cluster gives,
    as the broker made it before its bid rounds were bounded."""
    addresses, bids, reasons = {}, {}, {}
    for descriptor in descriptors:
        cid = descriptor.cluster_id
        refusal = refusal_reason(spec, descriptor.capabilities, descriptor.capacity_nodes)
        if refusal is not None:
            reasons[cid] = refusal
            continue
        addresses[cid] = descriptor.address
        answer = answers[descriptor.address]
        if isinstance(answer, Bid):
            bids[cid] = answer
        else:
            reasons[cid] = answer
    chosen = select_lowest([(cid, bid.price) for cid, bid in bids.items()])
    if chosen is None:
        return {"no_eligible": {"reasons": reasons}}
    winning = bids[chosen[0]]
    return {
        "selection": {
            "cluster_id": chosen[0],
            "address": addresses[chosen[0]],
            "price": {"amount": winning.price},
            "bid_token": winning.bid_token,
            "payee_account": winning.payee_account,
        }
    }


@settings(max_examples=300)
@given(
    st.dictionaries(
        st.sampled_from("ABCDEFGH"),
        st.tuples(st.integers(1, 3), st.integers(0, 2) | st.sampled_from(["timeout", "x"])),
        min_size=1,
    )
)
def test_bid_rounds_keep_the_full_fanouts_winner(fleet):
    """Bids that land on other clusters' floors (400 per unit of base rate)
    tie across rounds, where only the cluster_id decides."""
    table = {
        f"127.0.0.1:1#{cid}": extra if isinstance(extra, str) else 400 * (base + extra)
        for cid, (base, extra) in fleet.items()
    }
    core = BrokerCore(clock=VirtualClock())
    for cid, (base_rate, _) in fleet.items():
        core.register_cluster(
            _descriptor(cid, address=f"127.0.0.1:1#{cid}", base_rate=base_rate), 60
        )
    answers = {address: _answer(address, entry) for address, entry in table.items()}
    with _serve_quotes(LocalNetwork(), table):
        outcome = core.find_cluster(_spec())
    assert outcome == _full_fanout(core.list_clusters(), _spec(), answers)


_FEATURES = st.sampled_from(["gpu", "deadline"])


@st.composite
def _frontend(draw, cluster_id):
    capacity = draw(st.integers(1, 16))
    capabilities = draw(st.frozensets(_FEATURES))
    multipliers = {
        feature: Fraction(draw(st.integers(2, 8)), 2)
        for feature in sorted(capabilities)
        if draw(st.booleans())
    }
    card = _descriptor(
        cluster_id, capacity=capacity, capabilities=capabilities,
        base_rate=draw(st.integers(1, 4)), multipliers=multipliers,
    )
    # The coefficient is drawn per ``horizon_s`` seconds of whole-cluster
    # work; half the front-ends price flat.
    coefficient = Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    horizon_s = draw(st.integers(50, 2000))
    frontend = FrontendCore(
        card=card,
        cluster_secret=f"cs-{cluster_id}",
        bank="127.0.0.1:1",
        load_coefficient=0 if draw(st.booleans()) else coefficient * HORIZON_S / horizon_s,
    )
    # A whole horizon of queued work (load ratio 1) makes prices land on
    # other clusters' floors, where only the cluster_id breaks the tie.
    queued = draw(
        st.lists(st.tuples(st.integers(1, capacity), st.integers(1, 400)), max_size=4)
        | st.just([(capacity, horizon_s)])
    )
    for index, (nodes, walltime_s) in enumerate(queued):
        frontend.scheduler.enqueue(f"{index:032x}", nodes, walltime_s)
    return frontend


@given(
    fleet=st.lists(st.sampled_from("ABCDEFGHJK"), min_size=1, max_size=8, unique=True)
    .flatmap(lambda ids: st.tuples(*[_frontend(cid) for cid in ids])),
    nodes=st.integers(1, 4),
    walltime_s=st.integers(1, 20),
    features=st.frozensets(_FEATURES),
    max_price=st.none() | st.integers(1, 10_000),
)
def test_bounded_find_selects_what_a_full_fanout_would(
    fleet, nodes, walltime_s, features, max_price
):
    spec = _spec(nodes=nodes, walltime_s=walltime_s, required_features=sorted(features),
                 **({} if max_price is None else {"max_price": max_price}))
    # Each front-end quotes once, so the oracle and the find see the same bids.
    answers = {}
    for frontend in fleet:
        answers[f"127.0.0.1:1#{frontend.card.cluster_id}"] = frontend.quote(spec)
    core = BrokerCore(clock=VirtualClock())
    for frontend in fleet:
        address = f"127.0.0.1:1#{frontend.card.cluster_id}"
        core.register_cluster(frontend.descriptor(address), 60)
    with _serve_quotes(LocalNetwork(), answers) as network:
        outcome = core.find_cluster(spec)
    assert outcome == _full_fanout(core.list_clusters(), spec, answers)
    batches = _batches(network)
    assert len(batches) <= 2
    asked = [address for batch in batches for address in batch]
    assert len(asked) == len(set(asked))


def _recording_core(network, table, rates, clock=None):
    """A broker whose clusters quote from ``table`` on ``network``, which
    records each batch of cluster ids it asks; ``rates`` maps a cluster id
    to its base rate, or to ``(base_rate, feature_multipliers)``."""
    _serve_quotes(network, table)
    core = BrokerCore(clock=clock or VirtualClock())
    for cid, rate in rates.items():
        base_rate, multipliers = rate if isinstance(rate, tuple) else (rate, {})
        descriptor = _descriptor(
            cid, address=f"127.0.0.1:1#{cid}", base_rate=base_rate,
            capabilities=multipliers,
        )
        core.register_cluster(
            dataclasses.replace(descriptor, feature_multipliers=multipliers), 3600,
            boot_id=f"boot-{cid}",
        )
    return core


def test_floor_counts_the_rate_cards_feature_multipliers(network):
    """A gpu job's floor on A is 400 * 3/2: A's bid at that floor ends the
    find, where a base-rate floor of 400 would still have asked B."""
    table = {"127.0.0.1:1#A": 600, "127.0.0.1:1#B": 700}
    core = _recording_core(
        network, table, {"A": (1, {"gpu": Fraction(3, 2)}), "B": (2, {"gpu": Fraction(1)})}
    )
    outcome = core.find_cluster(_spec(required_features=["gpu"]))
    assert _batches(network) == [["A"]]
    assert _won(outcome) == ("A", {"amount": 600})


def test_round_one_follows_the_placement_record(network):
    # nodes=4, walltime_s=100: floor 400 on A-D, 800 on E.
    clock = VirtualClock()
    table = {f"127.0.0.1:1#{cid}": 500 for cid in "ABCDE"}
    table["127.0.0.1:1#C"] = 400
    core = _recording_core(
        network, table, {"A": 1, "B": 1, "C": 1, "D": 1, "E": 2}, clock=clock
    )
    # A fresh broker knows no idle cluster: round 1 is the lowest-floor group.
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "C"
    assert _batches(network) == [["A", "B", "C", "D"]]
    # C's placement runs until t=100; nothing is known idle before then.
    clock.advance(99)
    table["127.0.0.1:1#C"], table["127.0.0.1:1#D"] = 450, 400
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "D"
    assert _batches(network)[-1] == ["A", "B", "C", "D"]
    # From t=100 the record shows C idle: round 1 stops there, and C's bid
    # at its floor leaves nobody after it who could win.
    clock.advance(1)
    table["127.0.0.1:1#C"] = 400
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "C"
    assert _batches(network)[-1] == ["A", "B", "C"]
    assert len(_batches(network)) == 3
    # The record is a hint. Here C is busy after all, so round 2 asks the
    # rest of the group, whose floor still beats C's bid, as before.
    clock.advance(100)
    table["127.0.0.1:1#C"] = 450
    table["127.0.0.1:1#D"] = 420
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "D"
    assert _batches(network)[-2:] == [["A", "B", "C"], ["D"]]


def test_bid_below_its_own_floor_sends_round_two_to_everyone(network):
    """A front-end bidding under its published rate card shows floors are
    not to be trusted: round 2 asks every remaining eligible cluster."""
    table = {"127.0.0.1:1#A": 100, "127.0.0.1:1#B": 50, "127.0.0.1:1#C": 2000}
    core = _recording_core(network, table, {"A": 1, "B": 2, "C": 3})
    outcome = core.find_cluster(_spec())
    assert _batches(network) == [["A"], ["B", "C"]]
    assert _won(outcome) == ("B", {"amount": 50})


def test_round_one_follows_the_load_reports(network):
    # nodes=4, walltime_s=100: floor 400 on every cluster.
    clock = VirtualClock()
    table = {
        "127.0.0.1:1#A": (800, (2, 1), (1, 100)),
        "127.0.0.1:1#B": (600, (3, 2), (1, 100)),
        "127.0.0.1:1#C": (1000, (5, 2), (1, 100)),
        "127.0.0.1:1#D": (700, (7, 4), (1, 100)),
    }
    core = _recording_core(network, table, dict.fromkeys("ABCD", 1), clock=clock)
    # No reports yet: round 1 is every floor-400 cluster.
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    assert _batches(network) == [["A", "B", "C", "D"]]
    # Ten seconds of drain at most: bounds A 760, B 560, C 960, D 660.
    # Round 1 is B alone, whose report shows it busy; at 600, nobody
    # else's bound can beat it.
    clock.advance(9)
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    assert _batches(network)[-1:] == [["B"]]
    # B bids 700 this time: round 2 asks only D, whose bound is below it.
    table["127.0.0.1:1#B"] = (700, (7, 4), (1, 100))
    table["127.0.0.1:1#D"] = (650, (13, 8), (1, 100))
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "D"
    assert _batches(network)[-2:] == [["B"], ["D"]]
    # C registers again, so its report goes: its bound is back at its floor.
    core.register_cluster(_descriptor("C", address="127.0.0.1:1#C"), 3600)
    table["127.0.0.1:1#C"] = 400
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "C"
    assert _batches(network)[-1:] == [["C"]]
    assert len(_batches(network)) == 5
    # A bid at load 1 ends a cluster's report.
    reported = {cid for cid, record in core._registry.items() if record.report is not None}
    assert reported == {"A", "B", "D"}


def test_registering_again_drops_the_report_but_keeps_the_placement_record(network):
    """A registration under a new boot id, or none, may come from a
    front-end restarted empty, so its report goes; but the work this broker
    placed there still runs, so its placement record stays."""
    # nodes=4, walltime_s=100: floor 400 on every cluster.
    clock = VirtualClock()
    table = {
        "127.0.0.1:1#A": (600, (3, 2), (0, 1)),
        "127.0.0.1:1#B": 400,
        "127.0.0.1:1#C": 500,
    }
    core = _recording_core(network, table, dict.fromkeys("ABC", 1), clock=clock)
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    assert _batches(network) == [["A", "B", "C"]]
    # Without the restarts, A's report would bound it at 600, and round 1
    # would be B alone, the first floor-400 cluster, which the record shows
    # idle from t=100.
    clock.advance(100)
    core.register_cluster(_descriptor("A", address="127.0.0.1:1#A"), 3600, boot_id="new")
    for cid in "BC":
        core.register_cluster(_descriptor(cid, address=f"127.0.0.1:1#{cid}"), 3600)
    # A is back at its floor and asked first; B still stops round 1.
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    assert _batches(network)[1:] == [["A", "B"]]


def test_a_renewal_under_the_same_boot_id_keeps_the_report(network):
    """``sg-node`` renews its registration every half ttl under the boot id
    it drew at start; such a renewal keeps a busy cluster's bound."""
    # nodes=4, walltime_s=100: floor 400 on both clusters.
    clock = VirtualClock()
    table = {"127.0.0.1:1#A": (600, (3, 2), (0, 1)), "127.0.0.1:1#B": 500}
    core = _recording_core(network, table, dict.fromkeys("AB", 1), clock=clock)
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    assert _batches(network) == [["A", "B"]]
    clock.advance(30)
    for cid in "AB":
        core.register_cluster(
            _descriptor(cid, address=f"127.0.0.1:1#{cid}"), 3600, boot_id=f"boot-{cid}"
        )
    # A's report still bounds it at 600, so round 1 is B alone, and its bid
    # of 500 ends the find. Had the report gone, both would share floor 400.
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    assert _batches(network)[1:] == [["B"]]


def test_boot_id_must_be_a_string():
    core = BrokerCore(clock=VirtualClock())
    handlers = rpc_handlers(core)
    with pytest.raises(wire.InvalidParams):
        handlers["broker.register_cluster"](
            {"descriptor": _descriptor("A").to_dict(), "ttl_s": 60, "boot_id": 7}
        )
    assert core.list_clusters() == []


def test_bid_below_its_own_bound_sends_round_two_to_everyone(network):
    """A front-end bidding under the bound its own report set shows the
    reports are not to be trusted: round 2 asks every remaining eligible
    cluster, whatever its bound."""
    clock = VirtualClock()
    table = {
        "127.0.0.1:1#A": (800, (2, 1), (0, 1)),
        "127.0.0.1:1#B": (600, (3, 2), (0, 1)),
        "127.0.0.1:1#C": (1200, (3, 1), (0, 1)),
    }
    core = _recording_core(network, table, dict.fromkeys("ABC", 1), clock=clock)
    assert core.find_cluster(_spec())["selection"]["cluster_id"] == "B"
    # Bounds now A 800, B 600, C 1200. B bids 500 < 600, and C, which
    # restarted without registering again, bids its floor.
    clock.advance(5)
    table["127.0.0.1:1#B"] = 500
    table["127.0.0.1:1#C"] = 400
    outcome = core.find_cluster(_spec())
    assert _batches(network)[-2:] == [["B"], ["A", "C"]]
    assert _won(outcome) == ("C", {"amount": 400})


def test_bound_allows_a_front_end_clock_one_second_ahead(network):
    """Two whole-second clocks can differ by a second: the ``+ 1`` in a
    bound covers a front-end whose clock ticked while the broker's did not."""
    coefficients = {"A": (10, 1800), "B": (17, 0)}
    frontends = {
        f"127.0.0.1:1#{cid}": FrontendCore(
            card=_descriptor(cid, capacity=1, base_rate=rate),
            cluster_secret=f"cs-{cid}", bank="127.0.0.1:1", load_coefficient=coefficient,
        )
        for cid, (rate, coefficient) in coefficients.items()
    }
    core = BrokerCore(clock=VirtualClock())
    for address, frontend in frontends.items():
        core.register_cluster(frontend.descriptor(address), 3600)
        network.hosts[address] = frontend_handlers(frontend)
    frontends["127.0.0.1:1#A"].scheduler.enqueue("f" * 32, 1, 2)
    spec = _spec(nodes=1, walltime_s=10)
    # A's load factor is 2 (price 200) and drains by 1/2 a second.
    assert core.find_cluster(spec)["selection"]["cluster_id"] == "B"
    assert _batches(network) == [["A"], ["B"]]
    frontends["127.0.0.1:1#A"].tick(1)
    # The broker's clock still reads 0, yet A's bound is 150, not 200.
    outcome = core.find_cluster(spec)
    assert _won(outcome) == ("A", {"amount": 150})
    assert _batches(network)[-1:] == [["A"]]


def test_placement_record_survives_concurrent_finds(network):
    """Each find records max(end) under the broker lock; a lost update
    would leave an end earlier than the longest placement."""
    core = _recording_core(network, {"127.0.0.1:1#A": 1}, {"A": 1})
    walltimes = list(range(1, 201))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda chunk=walltimes[i::8]: [
                    core.find_cluster(_spec(walltime_s=w)) for w in chunk
                ]
            )
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert core._registry["A"].placed_until == max(walltimes)


@settings(max_examples=60, deadline=None)
@given(
    fleet=st.lists(st.sampled_from("ABCDEFGHJK"), min_size=1, max_size=8, unique=True)
    .flatmap(lambda ids: st.tuples(*[_frontend(cid) for cid in ids])),
    steps=st.lists(
        st.tuples(
            st.integers(1, 4),  # nodes
            st.integers(1, 40),  # walltime_s
            st.frozensets(_FEATURES),
            st.booleans(),  # whether the winner is handed the job
            st.integers(0, 40),  # seconds ticked before the next find
            st.none() | st.integers(0, 7),  # a front-end that restarts empty
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_finds_over_time_select_what_a_full_fanout_would(fleet, steps):
    """One broker, real front-ends, placements, ticks and restarts between
    finds: whatever its placement record and the front-ends' load reports
    say, each find picks the full fan-out's winner in at most two rounds."""
    clock = VirtualClock()
    core = BrokerCore(clock=clock)
    frontends = {f"127.0.0.1:1#{frontend.card.cluster_id}": frontend for frontend in fleet}
    for address, frontend in frontends.items():
        core.register_cluster(frontend.descriptor(address), 3600)
    answers = dict.fromkeys(frontends)
    network = _serve_quotes(LocalNetwork(), answers)
    for index, (nodes, walltime_s, features, place, dt, restart) in enumerate(steps):
        if restart is not None and restart < len(fleet):
            # A restarted front-end has lost its jobs, and registers again.
            old = fleet[restart]
            address = f"127.0.0.1:1#{old.card.cluster_id}"
            frontends[address] = FrontendCore(
                card=old.card,
                cluster_secret=old.cluster_secret,
                bank="127.0.0.1:1",
                load_coefficient=old.load_coefficient,
            )
            core.register_cluster(frontends[address].descriptor(address), 3600)
        spec = _spec(job_id=f"{index + 100:032x}", nodes=nodes, walltime_s=walltime_s,
                     required_features=sorted(features))
        # Each front-end quotes once, so the oracle and the find see the same bids.
        for address, frontend in frontends.items():
            answers[address] = frontend.quote(spec)
        network.fanouts.clear()
        with network:
            outcome = core.find_cluster(spec)
        assert outcome == _full_fanout(core.list_clusters(), spec, answers)
        batches = _batches(network)
        assert len(batches) <= 2
        asked = [address for batch in batches for address in batch]
        assert len(asked) == len(set(asked))
        if place and "selection" in outcome:
            winner = frontends[outcome["selection"]["address"]]
            winner.scheduler.enqueue(spec.job_id, nodes, walltime_s)
        for frontend in frontends.values():
            frontend.tick(frontend.scheduler.clock + dt)
        clock.advance(dt)


# -- matchmaking ------------------------------------------------------------------

def _register_fleet(core, network, fleet):
    """Register ``fleet``, each cluster bidding 100 on ``network``."""
    for cluster_id, capacity, capabilities in fleet:
        address = f"127.0.0.1:1#{cluster_id}"
        core.register_cluster(
            _descriptor(cluster_id, address=address, capacity=capacity, capabilities=capabilities),
            60,
        )
        _serve_quotes(network, {address: 100})


def test_find_cluster_quotes_only_clusters_that_can_run_the_job(network):
    core = BrokerCore(clock=VirtualClock())
    _register_fleet(
        core,
        network,
        [
            ("A", 8, ("gpu",)),
            ("B", 8, ()),  # lacks the feature
            ("C", 2, ("gpu",)),  # too small
            ("D", 2, ()),  # both: the feature is checked first
            ("E", 4, ("gpu", "deadline")),
        ],
    )
    outcome = core.find_cluster(_spec(nodes=4, required_features=["gpu"]))
    assert _batches(network) == [["A", "E"]]
    assert outcome["selection"]["cluster_id"] == "A"


def test_find_cluster_with_no_capable_cluster_asks_nobody(network):
    core = BrokerCore(clock=VirtualClock())
    _register_fleet(core, network, [("B", 8, ()), ("C", 2, ("gpu",)), ("D", 2, ())])
    outcome = core.find_cluster(_spec(nodes=4, required_features=["gpu"]))
    assert network.requests == []
    assert outcome["no_eligible"]["reasons"] == {
        "B": "unsupported_feature",
        "C": "insufficient_capacity",
        "D": "unsupported_feature",
    }


@given(
    capacity=st.integers(1, 8),
    capabilities=st.frozensets(st.sampled_from(["gpu", "deadline", "ssd"])),
    nodes=st.integers(1, 10),
    features=st.frozensets(st.sampled_from(["gpu", "deadline", "ssd"])),
)
def test_broker_refusal_matches_the_frontends(capacity, capabilities, nodes, features):
    """The broker refuses exactly where the registered front-end would, with
    the same reason."""
    frontend = FrontendCore(
        card=_descriptor("A", capacity=capacity, capabilities=capabilities),
        cluster_secret="cs-A",
        load_coefficient=0,
        bank="127.0.0.1:1",
    )
    core = BrokerCore(clock=VirtualClock())
    core.register_cluster(frontend.descriptor("127.0.0.1:1#A"), 60)
    spec = _spec(nodes=nodes, required_features=sorted(features))
    with LocalNetwork({"127.0.0.1:1#A": frontend_handlers(frontend)}) as network:
        outcome = core.find_cluster(spec)
    answer = frontend.quote(spec)
    if isinstance(answer, str):
        assert network.requests == []
        assert outcome == {"no_eligible": {"reasons": {"A": answer}}}
    else:
        assert _batches(network) == [["A"]]
        assert "selection" in outcome


def test_find_cluster_replies_are_the_wire_objects():
    """``broker.find_cluster`` answers one ``selection`` or one
    ``no_eligible`` object, field for field. A bid token is compared by type
    only: its MAC is keyed per process."""
    fronts = {
        cid: FrontendCore(
            card=_descriptor(cid, base_rate=rate, capabilities=caps),
            cluster_secret=f"cs-{cid}",
            load_coefficient=0,
            bank="127.0.0.1:1",
        )
        for cid, rate, caps in (("A", 3, ()), ("B", 2, ("gpu",)))
    }
    core = BrokerCore(clock=VirtualClock())
    for cid, front in fronts.items():
        core.register_cluster(front.descriptor(f"127.0.0.1:1#{cid}"), 60)
    find = rpc_handlers(core)["broker.find_cluster"]
    with LocalNetwork({f"127.0.0.1:1#{cid}": frontend_handlers(f) for cid, f in fronts.items()}):
        found = find({"spec": _spec().to_dict()})
        refused = find({"spec": _spec(nodes=9, required_features=["gpu"]).to_dict()})
    token = found["selection"].pop("bid_token")
    assert isinstance(token, str)
    assert found == {
        "selection": {
            "cluster_id": "B",
            "address": "127.0.0.1:1#B",
            "price": {"amount": 800},
            "payee_account": "cluster:B",
        }
    }
    assert refused == {
        "no_eligible": {"reasons": {"A": "unsupported_feature", "B": "insufficient_capacity"}}
    }


# -- end-to-end over sockets -----------------------------------------------------

def test_selection_across_real_frontends(market_factory):
    runtime = market_factory(
        clusters=[
            {"cluster_id": "cheap", "capacity_nodes": 8, "base_rate": 1},
            {"cluster_id": "costly", "capacity_nodes": 8, "base_rate": 3},
        ],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    result = wire.rpc_call(
        runtime.broker_server.address,
        "broker.find_cluster",
        {"spec": _spec().to_dict()},
        timeout_ms=5000,
    )
    selection = result["selection"]
    assert selection["cluster_id"] == "cheap"
    assert selection["price"] == {"amount": 400}
    assert selection["payee_account"] == runtime.cluster_accounts["cheap"]


def test_selection_is_stateless(market_factory):
    runtime = market_factory(
        clusters=[{"cluster_id": "only", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    calls = [
        wire.rpc_call(
            runtime.broker_server.address,
            "broker.find_cluster",
            {"spec": _spec().to_dict()},
            timeout_ms=5000,
        )["selection"]
        for _ in range(2)
    ]
    assert calls[0]["cluster_id"] == calls[1]["cluster_id"]
    assert calls[0]["price"] == calls[1]["price"]
    assert calls[0]["bid_token"] != calls[1]["bid_token"]


def test_hanging_frontend_does_not_block_selection(market_factory, monkeypatch):
    runtime = market_factory(
        clusters=[{"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    monkeypatch.setattr("sgmarket.broker.BID_TIMEOUT_MS", 500)
    silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    silent.bind(("127.0.0.1", 0))
    silent.listen(8)
    host, port = silent.getsockname()
    try:
        runtime.broker_core.register_cluster(
            _descriptor("zombie", address=f"{host}:{port}"), ttl_s=600
        )
        started = time.monotonic()
        outcome = runtime.broker_core.find_cluster(_spec())
        elapsed = time.monotonic() - started
        assert outcome["selection"]["cluster_id"] == "alive"
        assert elapsed <= 0.5 * 1.1 + 0.2
    finally:
        silent.close()


@pytest.fixture()
def black_hole():
    """An address whose connects never complete: a full accept queue. With
    backlog 0 and one connection waiting, later attempts get no answer."""
    hole = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    hole.bind(("127.0.0.1", 0))
    hole.listen(0)
    host, port = hole.getsockname()
    filler = socket.create_connection((host, port), timeout=1.0)
    yield f"{host}:{port}"
    filler.close()
    hole.close()


def test_black_holed_frontend_does_not_block_selection(
    market_factory, black_hole, monkeypatch
):
    """A cluster whose connect never completes, listed before a live one,
    costs one bid timeout, not the live cluster's bid."""
    runtime = market_factory(
        clusters=[{"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    monkeypatch.setattr("sgmarket.broker.BID_TIMEOUT_MS", 500)
    runtime.broker_core.register_cluster(_descriptor("a-hole", address=black_hole), ttl_s=600)
    started = time.monotonic()
    outcome = runtime.broker_core.find_cluster(_spec())
    elapsed = time.monotonic() - started
    assert outcome["selection"]["cluster_id"] == "alive"
    assert elapsed <= 0.5 * 1.1 + 0.2


def test_black_holed_cheapest_cluster_loses_to_a_dearer_live_one(
    market_factory, black_hole, monkeypatch
):
    """A black hole alone at the lowest floor costs round 1 its bid
    timeout; round 2 still asks the dearer live cluster."""
    runtime = market_factory(
        clusters=[{"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 2}],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    monkeypatch.setattr("sgmarket.broker.BID_TIMEOUT_MS", 500)
    runtime.broker_core.register_cluster(
        _descriptor("zz-hole", address=black_hole, base_rate=1), ttl_s=600
    )
    started = time.monotonic()
    outcome = runtime.broker_core.find_cluster(_spec())
    elapsed = time.monotonic() - started
    assert _won(outcome) == ("alive", {"amount": 800})
    assert elapsed <= 2 * 0.5 * 1.1 + 0.2


@pytest.mark.parametrize("no_bid", ["x", {"reason": 7}, None])
def test_malformed_no_bid_reads_bad_bid(market_factory, no_bid):
    """One front-end answering a no-bid that is not an object, or whose
    reason is not a string, does not break the find."""
    runtime = market_factory(
        clusters=[{"cluster_id": "real", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    bad = wire.serve("127.0.0.1:0", {"node.quote": lambda params: {"no_bid": no_bid}})
    try:
        descriptor = _descriptor("bad", address=bad.address)
        runtime.broker_core.register_cluster(descriptor, ttl_s=600)
        result = wire.rpc_call(
            runtime.broker_server.address,
            "broker.find_cluster",
            {"spec": _spec().to_dict()},
            timeout_ms=5000,
        )
        assert result["selection"]["cluster_id"] == "real"
        alone = BrokerCore(clock=VirtualClock())
        alone.register_cluster(descriptor, ttl_s=600)
        assert alone.find_cluster(_spec()) == {"no_eligible": {"reasons": {"bad": "bad_bid"}}}
    finally:
        bad.shutdown()


@pytest.fixture()
def huge_number_peer():
    """The address of a peer that answers each request line with a bid of
    5,000 digits, past the 4,300 that CPython parses by default."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def answer() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            with conn, conn.makefile("rb") as lines:
                for line in lines:
                    rid = json.dumps(json.loads(line)["id"]).encode()
                    conn.sendall(b'{"id":%s,"result":{"bid":%s}}\n' % (rid, b"9" * 5000))

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


def test_unparsable_bid_loses_only_its_own(market_factory, huge_number_peer):
    """A front-end whose reply json.loads refuses with ValueError once
    broke the whole fan-out, and the find answered InternalError; now only
    its own bid is lost, as a malformed frame."""
    runtime = market_factory(
        clusters=[{"cluster_id": "real", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    descriptor = _descriptor("huge", address=huge_number_peer)
    runtime.broker_core.register_cluster(descriptor, ttl_s=600)
    result = wire.rpc_call(
        runtime.broker_server.address,
        "broker.find_cluster",
        {"spec": _spec().to_dict()},
        timeout_ms=5000,
    )
    assert result["selection"]["cluster_id"] == "real"
    alone = BrokerCore(clock=VirtualClock())
    alone.register_cluster(descriptor, ttl_s=600)
    assert alone.find_cluster(_spec()) == {"no_eligible": {"reasons": {"huge": "rpc_error"}}}


def test_black_holed_cluster_without_the_feature_costs_nothing(market_factory, black_hole):
    """A black-holed cluster whose descriptor lacks the job's feature is
    never asked, so it does not cost the bid timeout."""
    runtime = market_factory(
        clusters=[
            {"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1,
             "capabilities": ["gpu"]},
        ],
        users=[{"account": "alice", "initial_deposit": 0}],
    )
    runtime.broker_core.register_cluster(_descriptor("a-hole", address=black_hole), ttl_s=600)
    started = time.monotonic()
    outcome = runtime.broker_core.find_cluster(_spec(required_features=["gpu"]))
    elapsed = time.monotonic() - started
    assert outcome["selection"]["cluster_id"] == "alive"
    assert elapsed < 1.0


def test_find_cluster_over_64_clusters_starts_no_thread(monkeypatch):
    silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    silent.bind(("127.0.0.1", 0))
    silent.listen(128)
    host, port = silent.getsockname()
    monkeypatch.setattr("sgmarket.broker.BID_TIMEOUT_MS", 200)
    core = BrokerCore(clock=VirtualClock())
    for i in range(64):
        core.register_cluster(_descriptor(f"c{i:02d}", address=f"{host}:{port}"), 60)
    started = []
    thread_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    try:
        before = threading.active_count()
        outcome = core.find_cluster(_spec())
        assert threading.active_count() == before
    finally:
        silent.close()
    assert started == []
    assert outcome["no_eligible"]["reasons"] == {f"c{i:02d}": "timeout" for i in range(64)}
