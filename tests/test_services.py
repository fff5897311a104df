"""Service-level behavior: announcements, clock modes, and packaging."""

import json
import socket
import subprocess
import sys
import time

import pytest

from sgmarket import wire
from sgmarket.broker import BrokerCore, rpc_handlers as broker_handlers
from sgmarket.clock import VirtualClock
from sgmarket.domain import canonical_encode
from sgmarket.frontend import FrontendService


def _frontend_config(**overrides):
    config = {
        "cluster_id": "solo",
        "listen": "127.0.0.1:0",
        "broker": "127.0.0.1:1",
        "bank": "127.0.0.1:1",
        "capacity_nodes": 8,
        "capabilities": [],
        "base_rate": 1,
        "users": {"alice": "pw-alice"},
        "payee_account": "cluster:solo",
        "cluster_secret": "cs-solo",
    }
    config.update(overrides)
    return config


def _reserved_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_fresh_frontend_appears_in_broker_listing():
    broker = wire.serve("127.0.0.1:0", broker_handlers(BrokerCore(clock=VirtualClock())))
    service = FrontendService(_frontend_config(broker=broker.address))
    try:
        service.announce(ttl_s=60)
        listed = wire.rpc_call(broker.address, "broker.list_clusters", {}, timeout_ms=2000)
        assert [c["cluster_id"] for c in listed["clusters"]] == ["solo"]
        assert listed["clusters"][0]["address"] == service.address
    finally:
        service.shutdown()
        broker.shutdown()


def test_describe_surfaces_descriptor():
    """The announced descriptor reaches clients whole through the broker listing."""
    broker = wire.serve("127.0.0.1:0", broker_handlers(BrokerCore(clock=VirtualClock())))
    service = FrontendService(
        _frontend_config(broker=broker.address, capabilities=["deadline"])
    )
    try:
        service.announce(ttl_s=60)
        listed = wire.rpc_call(broker.address, "broker.list_clusters", {}, timeout_ms=2000)
        (described,) = listed["clusters"]
        assert described["cluster_id"] == "solo"
        assert described["capabilities"] == ["deadline"]
        assert described["payee_account"] == "cluster:solo"
        assert described["address"] == service.address
    finally:
        service.shutdown()
        broker.shutdown()


def test_frontend_announces_to_multiple_brokers():
    brokers = [
        wire.serve("127.0.0.1:0", broker_handlers(BrokerCore(clock=VirtualClock())))
        for _ in range(2)
    ]
    service = FrontendService(_frontend_config())
    try:
        for broker in brokers:
            service.announce(broker_address=broker.address, ttl_s=60)
        for broker in brokers:
            listed = wire.rpc_call(broker.address, "broker.list_clusters", {}, timeout_ms=2000)
            assert [c["cluster_id"] for c in listed["clusters"]] == ["solo"]
    finally:
        service.shutdown()
        for broker in brokers:
            broker.shutdown()


def test_announcer_retries_until_broker_appears():
    port = _reserved_port()
    service = FrontendService(
        _frontend_config(broker=f"127.0.0.1:{port}", announce_ttl_s=5)
    )
    broker = None
    try:
        service.start_background()
        time.sleep(0.3)  # a couple of failed announce attempts
        broker = wire.serve(
            f"127.0.0.1:{port}", broker_handlers(BrokerCore(clock=VirtualClock()))
        )
        deadline = time.monotonic() + 5.0
        listed = []
        while time.monotonic() < deadline:
            result = wire.rpc_call(broker.address, "broker.list_clusters", {}, timeout_ms=2000)
            listed = result["clusters"]
            if listed:
                break
            time.sleep(0.1)
        assert [c["cluster_id"] for c in listed] == ["solo"]
    finally:
        service.shutdown()
        if broker is not None:
            broker.shutdown()


def test_tick_rejected_in_wall_mode():
    service = FrontendService(
        _frontend_config(clock_mode="wall", wall_ms_per_second=20)
    )
    try:
        with pytest.raises(wire.RpcError) as err:
            wire.rpc_call(service.address, "node.tick", {"dt": 1}, timeout_ms=2000)
        assert err.value.app_error_name() == "WrongClockMode"
    finally:
        service.shutdown()


def test_tick_over_rpc_matches_core_tick_in_virtual_mode():
    service = FrontendService(_frontend_config())
    twin = FrontendService(_frontend_config())
    try:
        for frontend in (service, twin):
            frontend.core.scheduler.enqueue("a" * 32, 4, 3)
            frontend.core.scheduler.enqueue("b" * 32, 8, 2)
        result = wire.rpc_call(service.address, "node.tick", {"dt": 10}, timeout_ms=2000)
        events = twin.core.tick(10)
        assert len(events) == 4
        assert result == {"events": events, "clock": twin.core.clock()}
        for dt in (-1, True, "1"):
            with pytest.raises(wire.RpcError) as err:
                wire.rpc_call(service.address, "node.tick", {"dt": dt}, timeout_ms=2000)
            assert err.value.code == wire.RpcErrorCode.INVALID_PARAMS
        assert service.core.clock() == 10
    finally:
        service.shutdown()
        twin.shutdown()


def test_wall_mode_advances_the_clock_by_itself():
    service = FrontendService(
        _frontend_config(clock_mode="wall", wall_ms_per_second=20)
    )
    try:
        service.start_background()
        deadline = time.monotonic() + 5.0
        while service.core.clock() < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.core.clock() >= 3
    finally:
        service.shutdown()


def test_sim_console_script_end_to_end(tmp_path):
    scenario = {
        "clusters": [{"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1}],
        "users": [{"account": "alice", "initial_deposit": 10000}],
        "workload": [
            {
                "submit_at": 0,
                "user": "alice",
                "spec": {"nodes": 4, "walltime_s": 10, "command": "run", "workdir": "/d"},
            }
        ],
        "duration_s": 12,
        "seed": 5,
    }
    scenario_path = tmp_path / "scenario.json"
    report_path = tmp_path / "report.json"
    scenario_path.write_bytes(canonical_encode(scenario))
    proc = subprocess.run(
        [sys.executable, "-m", "sgmarket.harness",
         "--scenario", str(scenario_path), "--report", str(report_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["jobs_per_cluster"] == {"A": 1}
    assert report["final_balances"]["user:alice"] == {"amount": 10000 - 40}
