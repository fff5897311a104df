"""Service-level behavior: announcements, the service clock, settings, and
packaging."""

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from sgmarket import wire
from sgmarket.broker import BrokerCore, rpc_handlers as broker_handlers
from sgmarket.clock import VirtualClock
from sgmarket.domain import ValidationError, canonical_encode
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


def test_service_with_no_clock_setting_advances_its_own_clock():
    service = FrontendService(_frontend_config())
    try:
        service.start_background()
        deadline = time.monotonic() + 5.0
        while service.core.clock() < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert service.core.clock() >= 1
    finally:
        service.shutdown()


def test_wall_ms_per_second_sets_the_tick_rate():
    service = FrontendService(_frontend_config(wall_ms_per_second=20))
    try:
        service.start_background()
        deadline = time.monotonic() + 5.0
        while service.core.clock() < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.core.clock() >= 3
    finally:
        service.shutdown()


@pytest.mark.parametrize("value", [0, -1, True, 1.5, "1000", None])
def test_wall_ms_per_second_must_be_a_positive_integer(value):
    """At 0 the ticker would spin a CPU and expire every quote as it is made."""
    with pytest.raises(ValidationError) as err:
        FrontendService(_frontend_config(wall_ms_per_second=value))
    assert err.value.field == "wall_ms_per_second"


@pytest.mark.parametrize("value", [0, 4, 3601, -60, True, "60", 60.0, None])
def test_announce_ttl_s_must_be_a_ttl_the_broker_accepts(value):
    """Otherwise the announcer retries a refused registration forever."""
    with pytest.raises(ValidationError) as err:
        FrontendService(_frontend_config(announce_ttl_s=value))
    assert err.value.field == "announce_ttl_s"


@pytest.mark.parametrize(
    "field, value",
    [
        ("capabilities", "gpu"),  # once registered the features g, p and u
        ("capabilities", ["GPU!"]),
        ("capabilities", ["gpu", "gpu"]),
        ("cluster_id", ""),
        ("cluster_id", 5),
        ("feature_multipliers", {"gpu": [2, 1]}),  # prices no advertised feature
    ],
)
def test_identity_and_rate_card_are_checked_as_the_broker_would(field, value):
    """Otherwise the front-end starts, and the broker refuses every announce
    while the announcer retries forever. A refused config leaves nothing
    listening or running."""
    port = _reserved_port()
    threads = threading.active_count()
    with pytest.raises(ValidationError) as err:
        FrontendService(_frontend_config(listen=f"127.0.0.1:{port}", **{field: value}))
    assert err.value.field.startswith(field)
    assert threading.active_count() == threads
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


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
