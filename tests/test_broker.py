"""Registry TTLs, deterministic argmin selection, and fan-out isolation."""

import itertools
import socket
import threading
import time

import pytest

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


def _descriptor(cluster_id, address="127.0.0.1:9999", capacity=8):
    return ClusterDescriptor(
        cluster_id=cluster_id,
        address=address,
        capacity_nodes=capacity,
        capabilities=frozenset(),
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
