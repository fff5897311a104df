"""Service-level behavior: announcements, the service clock, settings, and
packaging."""

import ast
import dataclasses
import gc
import importlib
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from contextlib import ExitStack
from pathlib import Path

import pytest

from sgmarket import bank, broker, frontend, wire
from sgmarket.broker import BrokerCore, rpc_handlers as broker_handlers
from sgmarket.client import ClientConfig, parse_spec
from sgmarket.clock import VirtualClock
from sgmarket.domain import (
    ValidationError,
    canonical_encode,
    load_config,
    validate_jobspec,
)
from sgmarket.frontend import TICK_INTERVAL_S, FrontendService
from sgmarket.harness import Scenario, replay_check

from local_network import LocalNetwork

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"
PACKAGE = README.parent / "src" / "sgmarket"


def _frontend_config(**overrides):
    config = {
        "cluster_id": "solo",
        "listen": "127.0.0.1:0",
        "broker": "127.0.0.1:1",
        "bank": "127.0.0.1:1",
        "capacity_nodes": 8,
        "capabilities": [],
        "base_rate": 1,
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
        service.announce()
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
        service.announce()
        listed = wire.rpc_call(broker.address, "broker.list_clusters", {}, timeout_ms=2000)
        (described,) = listed["clusters"]
        assert described["cluster_id"] == "solo"
        assert described["capabilities"] == ["deadline"]
        assert described["payee_account"] == "cluster:solo"
        assert described["address"] == service.address
    finally:
        service.shutdown()
        broker.shutdown()


def test_announcer_retries_until_broker_appears():
    port = _reserved_port()
    service = FrontendService(_frontend_config(broker=f"127.0.0.1:{port}"))
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


def _wait_until(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(TICK_INTERVAL_S / 5)
    return condition()


def test_service_with_no_clock_setting_advances_its_own_clock():
    """The one test that waits on wall time: a front-end's default clock
    counts monotonic seconds, as the broker's does."""
    service = FrontendService(_frontend_config())
    try:
        service.start_background()
        assert _wait_until(lambda: service.core.scheduler.clock >= 1)
    finally:
        service.shutdown()


def test_a_started_service_never_runs_ahead_of_its_clock():
    clock = VirtualClock()
    service = FrontendService(_frontend_config(), clock=clock)
    try:
        service.start_background()
        clock.advance(5)
        assert _wait_until(lambda: service.core.scheduler.clock == 5)
        time.sleep(5 * TICK_INTERVAL_S)  # several more catch-ups
        assert service.core.scheduler.clock == 5
    finally:
        service.shutdown()


def _recorded_steps(scheduler):
    """The list of every ``dt`` the scheduler is ticked by from now on."""
    steps = []
    tick = scheduler.tick
    scheduler.tick = lambda dt: steps.append(dt) or tick(dt)
    return steps


def test_concurrent_catch_ups_tick_each_second_once():
    """Many threads catching one core up while its clock advances: the core
    reads its time under its lock, so together they tick exactly the
    seconds the clock moved."""
    clock = VirtualClock()
    service = FrontendService(_frontend_config(), clock=clock)
    scheduler = service.core.scheduler
    steps = _recorded_steps(scheduler)

    def catch_up():
        for _ in range(300):
            service.catch_up()

    workers = [threading.Thread(target=catch_up) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for _ in range(200):
            clock.advance(1)
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        service.shutdown()
    service.catch_up()
    assert scheduler.clock == clock.now() == sum(steps) == 200


def test_a_stalled_ticker_ticks_the_whole_gap_at_once():
    """A payment that holds the ticker up for 30 seconds costs the core no
    time: its next catch-up ticks all 30 in one step."""
    entered, release = threading.Event(), threading.Event()

    def stalling_settle(params):  # holds the settlement up, as a slow bank would
        entered.set()
        release.wait(5.0)
        return {}

    clock = VirtualClock()
    service = FrontendService(_frontend_config(bank="127.0.0.1:2"), clock=clock)
    scheduler = service.core.scheduler
    scheduler.enqueue("j1", 1, 1)
    scheduler.jobs["j1"].escrow_id = "e1"
    steps = _recorded_steps(scheduler)
    with LocalNetwork({"127.0.0.1:2": {"bank.settle_escrow": stalling_settle}}) as network:
        try:
            service.start_background()
            clock.advance(1)  # j1 runs from 0 to 1, and paying for it stalls the ticker
            assert entered.wait(5.0)
            clock.advance(30)
            release.set()
            assert _wait_until(lambda: scheduler.clock == 31)
            assert [dt for dt in steps if dt] == [1, 30]
            settled = network.sent("bank.settle_escrow")
            assert [(p["escrow_id"], p["outcome"]) for p in settled] == [("e1", "COMPLETED")]
        finally:
            release.set()
            service.shutdown()


def _priced_fleet(clock, broker_address):
    """A: 10 nodes at base rate 10 and load coefficient 36, holding a
    10-node x 100 s job, so load factor 2; C: 10 idle nodes at base rate 17."""
    fleet = {
        cid: FrontendService(
            _frontend_config(
                cluster_id=cid, broker=broker_address, capacity_nodes=10,
                base_rate=rate, load_coefficient=36, payee_account=f"cluster:{cid}",
            ),
            clock=clock,
        )
        for cid, rate in (("A", 10), ("C", 17))
    }
    fleet["A"].core.scheduler.enqueue("held", 10, 100)
    for service in fleet.values():
        service.announce()
    return fleet


def _one_node_job(job_id):
    return validate_jobspec(
        {"job_id": job_id, "nodes": 1, "walltime_s": 100, "command": "run",
         "workdir": "/d"}
    )


def test_broker_picks_the_full_fan_out_winner_on_the_shared_clock():
    """The broker bounds A's later prices from its first bid, assuming A's
    clock runs no faster than its own. Had A's core run 45 s ahead, A
    would quote 1,500 while the bound skipped it for C at 1,700."""
    clock = VirtualClock()
    broker_core = BrokerCore(clock=clock)
    server = wire.serve("127.0.0.1:0", broker_handlers(broker_core))
    fleet = _priced_fleet(clock, server.address)
    try:
        first = broker_core.find_cluster(_one_node_job("1" * 32))
        assert first["selection"]["cluster_id"] == "C"
        clock.advance(5)
        for service in fleet.values():
            service.catch_up()
        job = _one_node_job("2" * 32)
        prices = {cid: s.core.quote(job).price for cid, s in fleet.items()}
        second = broker_core.find_cluster(job)
        assert second["selection"]["cluster_id"] == min(prices, key=prices.get)
        assert prices == {"A": 1950, "C": 1700}
    finally:
        for service in fleet.values():
            service.shutdown()
        server.shutdown()


def test_a_renewal_keeps_the_load_report_and_a_restart_drops_it():
    clock = VirtualClock()
    broker_core = BrokerCore(clock=clock)
    server = wire.serve("127.0.0.1:0", broker_handlers(broker_core))
    fleet = _priced_fleet(clock, server.address)
    restarted = FrontendService(fleet["A"].config, clock=clock)
    try:
        broker_core.find_cluster(_one_node_job("1" * 32))
        report = broker_core._registry["A"].report
        assert report is not None  # A bid at load factor 2
        fleet["A"].announce()
        assert broker_core._registry["A"].report == report
        restarted.announce()
        assert broker_core._registry["A"].report is None
    finally:
        for service in (*fleet.values(), restarted):
            service.shutdown()
        server.shutdown()


@pytest.mark.parametrize(
    "field, value",
    [
        ("capabilities", "gpu"),  # once registered the features g, p and u
        ("capabilities", ["GPU!"]),
        ("capabilities", ["gpu", "gpu"]),
        ("cluster_id", ""),
        ("cluster_id", 5),
        ("feature_multipliers", {"gpu": [2, 1]}),  # prices no advertised feature
        ("feature_multipliers", {"deadline": 2}),  # an integer, not [p, q]
    ],
)
def test_identity_and_rate_card_are_checked_as_the_broker_would(field, value):
    """Otherwise the front-end starts, and the broker refuses every announce
    while the announcer retries forever. A refused config leaves nothing
    listening or running. A registration carries each multiplier as
    ``[p, q]``, so the config takes that form only."""
    port = _reserved_port()
    threads = threading.active_count()
    config = {"listen": f"127.0.0.1:{port}", "capabilities": ["deadline"], field: value}
    with pytest.raises(ValidationError) as err:
        FrontendService(_frontend_config(**config))
    assert err.value.field.startswith(field)
    assert threading.active_count() == threads
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()


@pytest.mark.parametrize("field", ["broker", "bank"])
@pytest.mark.parametrize(
    "value", [None, 7701, "7701", "127.0.0.1:x", "127.0.0.1:0", "127.0.0.1:١٢٣"]
)
def test_peer_addresses_are_checked_at_start(field, value):
    """Without ``broker`` a front-end once started, and its announcer died
    with a KeyError on its own thread; with a broker at port 0, which no
    peer listens on, it retried its announce forever. A port in Arabic-Indic
    digits was once read as port 123."""
    config = _frontend_config(**{field: value})
    if value is None:
        del config[field]
    with pytest.raises(ValidationError) as err:
        FrontendService(config)
    assert err.value.field == field


_NODE = _frontend_config(listen="127.0.0.1:0")


@pytest.mark.parametrize(
    "service, config",
    [
        (bank, [1]),  # each of the three once raised AttributeError
        (broker, [1]),
        (frontend, [1]),
        (bank, None),  # no such file: FileNotFoundError
        (broker, None),
        (frontend, None),
        (bank, "{"),
        (frontend, {k: v for k, v in _NODE.items() if k != "cluster_secret"}),
        (frontend, {k: v for k, v in _NODE.items() if k != "bank"}),
        (frontend, {**_NODE, "horizon_s": 0}),
        (frontend, {**_NODE, "feature_multipliers": [1]}),
        (frontend, {**_NODE, "listen": "{busy}"}),
        (broker, {"listen": "127.0.0.1:0", "bid_timeout_ms": 2000}),  # a round's wait is fixed
        (broker, {"listen": 7701}),
        (broker, {"listen": "{busy}"}),
        (bank, {"listen": "127.0.0.1:0", "cluster_secrets": [1]}),
        (bank, {"listen": "127.0.0.1:0", "log_path": ["bank.log"]}),
        (bank, {"listen": "{busy}", "log_path": "{tmp}/bank.log"}),
        (bank, {"listen": "127.0.0.1:0", "cluster_secret": {"A": "cs-A"}}),
        (broker, {"listen": "127.0.0.1:0", "default_ttl_s": 60}),
        (frontend, {**_NODE, "horizon_s": 3600}),  # the load coefficient sets it
        (frontend, {**_NODE, "policy": "flat"}),  # load coefficient 0
        (frontend, {**_NODE, "quote_ttl_s": 60}),  # a quote's life is fixed
        (frontend, {**_NODE, "announce_ttl_s": 60}),  # so is its announced lease
    ],
)
def test_services_answer_a_bad_config_with_an_error_line(tmp_path, capsys, service, config):
    """``sg-bank``, ``sg-broker`` and ``sg-node`` once stopped with a
    traceback on each of these. A refused config leaves no socket or file
    open, even once the listener was made or the bank's log opened."""
    busy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    path = tmp_path / "config.json"
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        text = text.replace("{busy}", f"127.0.0.1:{busy.getsockname()[1]}")
        path.write_text(text.replace("{tmp}", str(tmp_path)))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # A service that accepts its config serves until SIGINT: send one
            # after a few seconds, so the test fails instead of hanging.
            interrupt = threading.Timer(
                5.0, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT)
            )
            interrupt.start()
            try:
                rc = service.main(["--config", str(path)])
            finally:
                interrupt.cancel()
            gc.collect()
    finally:
        busy.close()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ")
    assert "Traceback" not in err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _readme_configs() -> dict[str, str]:
    """The text of each config file the README writes, by file name."""
    heredoc = re.compile(r"cat > (\w+\.json) <<'EOF'\n(.*?)\nEOF", re.S)
    return dict(heredoc.findall(README.read_text()))


def test_readme_configs_start(tmp_path):
    """Each service starts from the config the README shows for it, so the
    documented settings pass the services' own start-up checks; the
    client's config loads with no key it does not read, its job parses,
    and its scenario replays."""
    examples = _readme_configs()
    for name in examples:
        (tmp_path / name).write_text(examples[name])
    client_config = ClientConfig.from_dict(load_config(tmp_path / "client.json"))
    fields = {field.name for field in dataclasses.fields(ClientConfig)}
    assert set(json.loads(examples["client.json"])) <= fields
    spec = parse_spec(tmp_path / "job.json", {}, "a" * 32)
    assert (client_config.account_id, spec.nodes) == ("user:alice", 4)
    assert replay_check(Scenario.from_file(tmp_path / "scenario.json"))
    configs = {
        name: {**load_config(tmp_path / f"{name}.json"), "listen": "127.0.0.1:0"}
        for name in ("bank", "broker", "node")
    }
    configs["bank"]["log_path"] = str(tmp_path / "bank.log")
    with ExitStack() as stack:
        bank.start_service(configs["bank"], stack)
        broker.start_service(configs["broker"], stack)
    FrontendService(configs["node"]).shutdown()


def test_a_node_config_with_a_misspelt_setting_is_refused():
    """A misspelt setting once started the node on its default, and
    nothing reported it."""
    with pytest.raises(ValidationError) as err:
        FrontendService(_frontend_config(quote_ttl=30))
    assert err.value.field == "quote_ttl"


def test_a_node_config_that_still_lists_users_is_refused():
    """A front-end reads no users table, so a config that still holds one
    is refused like one with any other unknown key."""
    with pytest.raises(ValidationError) as err:
        FrontendService(_frontend_config(users={"alice": 5}))
    assert err.value.field == "users"


def test_readme_front_end_prices_an_idle_job_at_its_registered_cost():
    """A front-end charges by the rate card it registers: idle, it quotes a
    job at exactly ``ceil(cost)`` under the descriptor the broker holds."""
    broker_core = BrokerCore(clock=VirtualClock())
    server = wire.serve("127.0.0.1:0", broker_handlers(broker_core))
    config = json.loads(_readme_configs()["node.json"])
    service = FrontendService({**config, "listen": "127.0.0.1:0", "broker": server.address})
    try:
        service.announce()
        (descriptor,) = broker_core.list_clusters()
        spec = validate_jobspec(
            {"job_id": "a" * 32, "nodes": 3, "walltime_s": 7,
             "required_features": ["deadline"], "command": "run", "workdir": "/d"}
        )
        reply = wire.rpc_call(
            service.address, "node.quote", {"spec": spec.to_dict()}, timeout_ms=2000
        )
        num, den = descriptor.cost(spec)
        assert (num, den) == (105, 4)  # 1 * 3 * 7 * 5/4 under the README's card
        assert reply["bid"]["price"] == {"amount": -(-num // den)} == {"amount": 27}
    finally:
        service.shutdown()
        server.shutdown()


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


# How each console script is pointed at an input file.
_FILE_ARGS = {
    "sg": ["balance", "--config", "{missing}"],
    "sg-bank": ["--config", "{missing}"],
    "sg-broker": ["--config", "{missing}"],
    "sg-node": ["--config", "{missing}"],
    "sg-sim": ["--scenario", "{missing}", "--report", "{tmp}/report.json"],
}


def test_every_console_script_answers_a_missing_file(tmp_path, capsys):
    """Each ``[project.scripts]`` entry point imports, and answers an input
    file that does not exist with exit 1 and an ``error:`` line."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert sorted(scripts) == sorted(_FILE_ARGS)
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        main = getattr(importlib.import_module(module), function)
        argv = [
            arg.format(missing=tmp_path / "missing.json", tmp=tmp_path)
            for arg in _FILE_ARGS[name]
        ]
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: "), (name, err)
        assert "Traceback" not in err


def test_the_package_imports_only_the_standard_library():
    """sgmarket declares no dependencies: each of its modules imports only
    the standard library and sgmarket itself."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    allowed = sys.stdlib_module_names | {"sgmarket"}
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert outside == []


def _unread_imports(path: Path) -> list[str]:
    """Each name ``path`` imports and never reads, as ``file:line name``.
    A name read only inside a string annotation counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_no_module_imports_a_name_it_never_reads():
    """The repository has no linter, so this is its check for dead imports
    in ``src`` and ``tests``."""
    files = sorted(PACKAGE.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 10
    assert [entry for path in files for entry in _unread_imports(path)] == []
