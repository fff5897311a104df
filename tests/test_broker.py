"""Registry TTLs, deterministic argmin selection, and fan-out isolation."""

import itertools
import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from sgmarket import wire
from sgmarket.broker import (
    BrokerCore,
    InvalidDescriptor,
    NoEligibleCluster,
    Selection,
    rpc_handlers,
    select_lowest,
)
from sgmarket.clock import VirtualClock
from sgmarket.domain import Bid, ClusterDescriptor, Money, validate_jobspec
from sgmarket.frontend import FrontendCore, NoBid, PricingPolicy


def _descriptor(cluster_id, address="127.0.0.1:9999", capacity=8, capabilities=()):
    return ClusterDescriptor(
        cluster_id=cluster_id,
        address=address,
        capacity_nodes=capacity,
        capabilities=frozenset(capabilities),
        base_rate=Money(1),
        payee_account=f"cluster:{cluster_id}",
    )


def _spec(job_id="c" * 32, **kw):
    record = {
        "job_id": job_id,
        "user": "alice",
        "secret": "pw-alice",
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

def _quotes_from(table):
    """Fake batch quote fn answering from {cluster_id: price-or-marker}."""

    def quote(address):
        if address not in table:  # nothing listens there
            return wire.RpcError(wire.RpcErrorCode.APPLICATION_ERROR, "no such front-end")
        answer = table[address]
        if isinstance(answer, int):
            return Bid(
                cluster_id=address.split("#", 1)[1],
                price=Money(answer),
                bid_token=f"tok-{address}",
                expires_at=10**9,
            )
        if answer == "hang":
            return wire.RpcError(wire.RpcErrorCode.TIMEOUT, "no answer")
        return {"reason": answer}

    def fn(addresses, spec, timeout_ms):
        return [quote(address) for address in addresses]

    return fn


def _register(core, cluster_id, ttl_s=60):
    # Addresses carry the cluster id so the fake quote table can find them.
    core.register_cluster(_descriptor(cluster_id, address=f"127.0.0.1:1#{cluster_id}"), ttl_s)


def test_registry_upsert_and_sorted_listing():
    core = BrokerCore(clock=VirtualClock(), quote_fn=_quotes_from({}))
    _register(core, "zeta")
    _register(core, "alpha")
    assert [d.cluster_id for d in core.list_clusters()] == ["alpha", "zeta"]
    core.register_cluster(_descriptor("zeta", address="127.0.0.1:2#zeta"), 60)
    listed = {d.cluster_id: d.address for d in core.list_clusters()}
    assert listed == {"alpha": "127.0.0.1:1#alpha", "zeta": "127.0.0.1:2#zeta"}


def test_expired_registrations_drop_out():
    clock = VirtualClock()
    core = BrokerCore(clock=clock, quote_fn=_quotes_from({}))
    _register(core, "A", ttl_s=10)
    _register(core, "B", ttl_s=30)
    clock.advance(11)
    assert [d.cluster_id for d in core.list_clusters()] == ["B"]
    outcome = core.find_cluster(_spec())
    assert isinstance(outcome, NoEligibleCluster) or outcome.cluster_id == "B"


def test_refresh_extends_ttl():
    clock = VirtualClock()
    core = BrokerCore(clock=clock, quote_fn=_quotes_from({}))
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


# -- selection over fakes --------------------------------------------------------

def _core_with(table, **kw):
    core = BrokerCore(clock=VirtualClock(), quote_fn=_quotes_from(table), **kw)
    for cluster_id in sorted(table):
        _register(core, cluster_id.split("#", 1)[1])
    return core


def test_find_cluster_picks_cheapest():
    core = _core_with({"127.0.0.1:1#A": 300, "127.0.0.1:1#B": 250, "127.0.0.1:1#C": 400})
    outcome = core.find_cluster(_spec())
    assert isinstance(outcome, Selection)
    assert (outcome.cluster_id, outcome.price) == ("B", Money(250))


def test_find_cluster_breaks_ties_lexicographically():
    core = _core_with({"127.0.0.1:1#B": 300, "127.0.0.1:1#A": 300})
    assert core.find_cluster(_spec()).cluster_id == "A"


def test_find_cluster_ignores_hangs_and_no_bids():
    core = _core_with(
        {"127.0.0.1:1#A": "hang", "127.0.0.1:1#B": 500, "127.0.0.1:1#C": "unsupported_feature"}
    )
    outcome = core.find_cluster(_spec())
    assert outcome.cluster_id == "B"


def test_find_cluster_reports_reasons_when_nothing_bids():
    core = _core_with({"127.0.0.1:1#A": "hang", "127.0.0.1:1#B": "unsupported_feature"})
    outcome = core.find_cluster(_spec())
    assert isinstance(outcome, NoEligibleCluster)
    assert outcome.reasons == {"A": "timeout", "B": "unsupported_feature"}


def test_find_cluster_with_empty_registry():
    core = BrokerCore(clock=VirtualClock(), quote_fn=_quotes_from({}))
    outcome = core.find_cluster(_spec())
    assert isinstance(outcome, NoEligibleCluster)
    assert outcome.reasons == {}


# -- matchmaking ------------------------------------------------------------------

def _recording_quotes():
    """Fake batch quote fn that bids 100 everywhere and records every
    address it was asked."""
    asked = []

    def fn(addresses, spec, timeout_ms):
        asked.extend(addresses)
        return [
            Bid(
                cluster_id=address.split("#", 1)[1],
                price=Money(100),
                bid_token=f"tok-{address}",
                expires_at=10**9,
            )
            for address in addresses
        ]

    return fn, asked


def _register_fleet(core, fleet):
    for cluster_id, capacity, capabilities in fleet:
        core.register_cluster(
            _descriptor(
                cluster_id,
                address=f"127.0.0.1:1#{cluster_id}",
                capacity=capacity,
                capabilities=capabilities,
            ),
            60,
        )


def test_find_cluster_quotes_only_clusters_that_can_run_the_job():
    quote_fn, asked = _recording_quotes()
    core = BrokerCore(clock=VirtualClock(), quote_fn=quote_fn)
    _register_fleet(
        core,
        [
            ("A", 8, ("gpu",)),
            ("B", 8, ()),  # lacks the feature
            ("C", 2, ("gpu",)),  # too small
            ("D", 2, ()),  # both: the feature is checked first
            ("E", 4, ("gpu", "deadline")),
        ],
    )
    outcome = core.find_cluster(_spec(nodes=4, required_features=["gpu"]))
    assert asked == ["127.0.0.1:1#A", "127.0.0.1:1#E"]
    assert isinstance(outcome, Selection)
    assert outcome.cluster_id == "A"


def test_find_cluster_with_no_capable_cluster_asks_nobody():
    quote_fn, asked = _recording_quotes()
    core = BrokerCore(clock=VirtualClock(), quote_fn=quote_fn)
    _register_fleet(core, [("B", 8, ()), ("C", 2, ("gpu",)), ("D", 2, ())])
    outcome = core.find_cluster(_spec(nodes=4, required_features=["gpu"]))
    assert asked == []
    assert isinstance(outcome, NoEligibleCluster)
    assert outcome.reasons == {
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
        cluster_id="A",
        capacity_nodes=capacity,
        capabilities=capabilities,
        policy=PricingPolicy("flat", Money(1)),
        payee_account="cluster:A",
        cluster_secret="cs-A",
        users={"alice": "pw-alice"},
        bank=None,
    )
    quote_fn, asked = _recording_quotes()
    core = BrokerCore(clock=VirtualClock(), quote_fn=quote_fn)
    core.register_cluster(frontend.descriptor("127.0.0.1:1#A"), 60)
    spec = _spec(nodes=nodes, required_features=sorted(features))
    outcome = core.find_cluster(spec)
    answer = frontend.quote(spec)
    if isinstance(answer, NoBid):
        assert asked == []
        assert outcome == NoEligibleCluster(reasons={"A": answer.reason})
    else:
        assert asked == ["127.0.0.1:1#A"]
        assert isinstance(outcome, Selection)


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


def test_hanging_frontend_does_not_block_selection(market_factory):
    runtime = market_factory(
        clusters=[{"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
        bid_timeout_ms=500,
    )
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
        assert isinstance(outcome, Selection)
        assert outcome.cluster_id == "alive"
        assert elapsed <= 0.5 * 1.1 + 0.2
    finally:
        silent.close()


def test_black_holed_frontend_does_not_block_selection(market_factory):
    """A cluster whose connect never completes, listed before a live one,
    costs one bid timeout, not the live cluster's bid."""
    runtime = market_factory(
        clusters=[{"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1}],
        users=[{"account": "alice", "initial_deposit": 0}],
        bid_timeout_ms=500,
    )
    # A full accept queue: with backlog 0 and one connection waiting, later
    # connection attempts get no answer at all.
    hole = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    hole.bind(("127.0.0.1", 0))
    hole.listen(0)
    host, port = hole.getsockname()
    filler = socket.create_connection((host, port), timeout=1.0)
    try:
        runtime.broker_core.register_cluster(
            _descriptor("a-hole", address=f"{host}:{port}"), ttl_s=600
        )
        started = time.monotonic()
        outcome = runtime.broker_core.find_cluster(_spec())
        elapsed = time.monotonic() - started
        assert isinstance(outcome, Selection)
        assert outcome.cluster_id == "alive"
        assert elapsed <= 0.5 * 1.1 + 0.2
    finally:
        filler.close()
        hole.close()


def test_black_holed_cluster_without_the_feature_costs_nothing(market_factory):
    """A black-holed cluster whose descriptor lacks the job's feature is
    never asked, so it does not cost the bid timeout."""
    runtime = market_factory(
        clusters=[
            {"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1,
             "capabilities": ["gpu"]},
        ],
        users=[{"account": "alice", "initial_deposit": 0}],
        bid_timeout_ms=2000,
    )
    hole = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    hole.bind(("127.0.0.1", 0))
    hole.listen(0)
    host, port = hole.getsockname()
    filler = socket.create_connection((host, port), timeout=1.0)
    try:
        runtime.broker_core.register_cluster(
            _descriptor("a-hole", address=f"{host}:{port}"), ttl_s=600
        )
        started = time.monotonic()
        outcome = runtime.broker_core.find_cluster(_spec(required_features=["gpu"]))
        elapsed = time.monotonic() - started
        assert isinstance(outcome, Selection)
        assert outcome.cluster_id == "alive"
        assert elapsed < 1.0
    finally:
        filler.close()
        hole.close()


def test_find_cluster_over_64_clusters_starts_no_thread(monkeypatch):
    silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    silent.bind(("127.0.0.1", 0))
    silent.listen(128)
    host, port = silent.getsockname()
    core = BrokerCore(clock=VirtualClock(), bid_timeout_ms=200)
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
    assert isinstance(outcome, NoEligibleCluster)
    assert outcome.reasons == {f"c{i:02d}": "timeout" for i in range(64)}
