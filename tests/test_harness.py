"""Scenario runs: reports, determinism, terminality, and the sg-sim CLI."""

import hashlib
import json

import pytest

from sgmarket import harness, wire
from sgmarket.domain import canonical_encode
from sgmarket.harness import MarketReport, Scenario, ScenarioInvalid, replay_check, run_scenario


def _job(nodes=4, walltime_s=100):
    return {"nodes": nodes, "walltime_s": walltime_s, "command": "run", "workdir": "/data"}


def one_cluster_one_job(seed=7):
    return Scenario(
        clusters=({"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1},),
        users=({"account": "alice", "initial_deposit": 10000},),
        workload=({"submit_at": 0, "user": "alice", "spec": _job()},),
        duration_s=101,
        seed=seed,
    )


def four_clusters_eight_jobs(seed=13):
    return Scenario(
        clusters=tuple(
            {"cluster_id": cid, "capacity_nodes": 8, "base_rate": 1}
            for cid in ("A", "B", "C", "D")
        ),
        users=({"account": "alice", "initial_deposit": 100000},),
        workload=tuple(
            {"submit_at": t, "user": "alice", "spec": _job()} for t in range(8)
        ),
        duration_s=108,
        seed=seed,
    )


def test_single_job_lifecycle_report():
    report = run_scenario(one_cluster_one_job())
    assert report.jobs_per_cluster == {"A": 1}
    assert report.final_balances == {"user:alice": 9600, "cluster:A": 400}
    assert report.conservation_ok is True
    assert report.all_jobs_terminal is True
    assert report.errors == []
    assert report.price_series == [
        {"time": 0, "cluster_id": "A", "price": {"amount": 400}}
    ]


def test_empty_workload_report():
    scenario = Scenario(
        clusters=({"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1},),
        users=({"account": "alice", "initial_deposit": 500},),
        workload=(),
        duration_s=20,
        seed=1,
    )
    report = run_scenario(scenario)
    assert report.jobs_per_cluster == {"A": 0}
    assert report.price_series == []
    assert report.conservation_ok is True
    assert report.all_jobs_terminal is True


def test_even_distribution_across_identical_clusters():
    report = run_scenario(four_clusters_eight_jobs())
    assert report.jobs_per_cluster == {"A": 2, "B": 2, "C": 2, "D": 2}
    assert report.conservation_ok is True
    assert report.all_jobs_terminal is True


MARKET_METHODS = {
    "broker.find_cluster",
    "node.quote",
    "bank.hold_escrow",
    "node.submit",
    "bank.verify_escrow",
    "bank.settle_escrow",
}


@pytest.fixture()
def rpc_methods(monkeypatch):
    """The method of every RPC sent, a batch of quotes counting once:
    ``rpc_call`` and the broker's quote rounds both go through
    ``rpc_fanout``."""
    methods = []
    rpc_fanout = wire.rpc_fanout

    def recording(addresses, method, *args, **kwargs):
        methods.append(method)
        return rpc_fanout(addresses, method, *args, **kwargs)

    monkeypatch.setattr(wire, "rpc_fanout", recording)
    return methods


def test_run_sends_only_market_traffic_over_rpc(rpc_methods):
    """Accounts, deposits and registrations go to the cores in-process, as
    do ticks and audits: booting sends no RPC, and a run sends only the
    per-job market methods."""
    runtime = harness.MarketRuntime(four_clusters_eight_jobs())
    try:
        assert rpc_methods == []
        report = runtime.run()
    finally:
        runtime.shutdown()
    assert set(rpc_methods) == MARKET_METHODS
    # The canonical report bytes of this scenario, from before the harness
    # ticked front-ends in-process: driving time directly moves no money.
    digest = hashlib.sha256(canonical_encode(report.to_dict())).hexdigest()
    assert digest == "530f5145aa95ac60e347d5373416c4b498733a4e2e10aa61991f72a5fcfd8caf"


JOB_TERMS = {
    "job_id", "nodes", "walltime_s", "required_features", "max_price", "command", "workdir",
}


def test_job_requests_carry_only_the_job(monkeypatch):
    """Every spec that a find, a quote or a submission sends holds the
    job's terms and nothing of the user who sends it."""
    specs = []
    rpc_fanout = wire.rpc_fanout

    def recording(addresses, method, params, *args, **kwargs):
        if method in ("broker.find_cluster", "node.quote", "node.submit"):
            specs.append((method, params["spec"]))
        return rpc_fanout(addresses, method, params, *args, **kwargs)

    monkeypatch.setattr(wire, "rpc_fanout", recording)
    report = run_scenario(four_clusters_eight_jobs())
    assert report.errors == []
    assert {method for method, _ in specs} == {
        "broker.find_cluster", "node.quote", "node.submit",
    }
    for method, spec in specs:
        assert set(spec) <= JOB_TERMS, (method, sorted(spec))


def test_registrations_outlive_the_brokers_longest_ttl(rpc_methods):
    """A run longer than the broker's 3,600 s ttl cap still finds its
    clusters: the harness renews them in-process before they lapse."""
    scenario = Scenario(
        clusters=({"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1},),
        users=({"account": "alice", "initial_deposit": 10000},),
        workload=(
            {"submit_at": 10, "user": "alice", "spec": _job(walltime_s=10)},
            {"submit_at": 3700, "user": "alice", "spec": _job(walltime_s=10)},
        ),
        duration_s=3800,
        seed=1,
    )
    report = run_scenario(scenario)
    assert report.errors == []
    assert report.jobs_per_cluster == {"A": 2}
    assert report.all_jobs_terminal is True
    assert set(rpc_methods) == MARKET_METHODS


def test_in_process_registration_matches_an_announce(market_factory, monkeypatch):
    """The harness registers each front-end as ``sg-node``'s announcer
    would: the same descriptor, ttl and boot id, recorded the same way.
    A run of 500 s registers for 560 s, so the announcer asks that too."""
    monkeypatch.setattr("sgmarket.frontend.ANNOUNCE_TTL_S", 560)
    runtime = market_factory(
        clusters=[
            {"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1},
            {
                "cluster_id": "B",
                "capacity_nodes": 16,
                "base_rate": 2,
                "capabilities": ["gpu"],
                "feature_multipliers": {"gpu": [5, 2]},
            },
        ],
        users=[{"account": "alice", "initial_deposit": 100}],
        duration_s=500,
    )
    registry = runtime.broker_core._registry
    in_process = dict(registry)
    assert sorted(in_process) == ["A", "B"]
    assert {r.ttl_s for r in in_process.values()} == {560}
    for service in runtime.frontends:
        service.announce()
        cluster_id = service.core.card.cluster_id
        assert registry[cluster_id] is not in_process[cluster_id]
    assert registry == in_process


def test_replay_check_fixed_seed():
    assert replay_check(one_cluster_one_job()) is True


def test_seed_changes_nothing_visible_in_the_report():
    a = run_scenario(four_clusters_eight_jobs(seed=1))
    b = run_scenario(four_clusters_eight_jobs(seed=2))
    assert canonical_encode(a.to_dict()) == canonical_encode(b.to_dict())


def test_twenty_random_scenarios_replay_identically():
    import random

    rng = random.Random(2020)
    for _ in range(20):
        n_clusters = rng.randint(1, 3)
        n_jobs = rng.randint(1, 4)
        walltime = rng.randint(5, 12)
        scenario = Scenario(
            clusters=tuple(
                {
                    "cluster_id": f"c{i}",
                    "capacity_nodes": rng.randint(4, 8),
                    "base_rate": rng.randint(1, 500),
                }
                for i in range(n_clusters)
            ),
            users=({"account": "u", "initial_deposit": 10**9},),
            workload=tuple(
                {
                    "submit_at": t,
                    "user": "u",
                    "spec": _job(nodes=rng.randint(1, 4), walltime_s=walltime),
                }
                for t in range(n_jobs)
            ),
            duration_s=n_jobs + walltime + 1,
            seed=rng.randint(0, 2**31),
        )
        assert replay_check(scenario) is True


def test_too_short_duration_leaves_jobs_running():
    scenario = Scenario(
        clusters=({"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1},),
        users=({"account": "alice", "initial_deposit": 10000},),
        workload=({"submit_at": 0, "user": "alice", "spec": _job(walltime_s=50)},),
        duration_s=10,
        seed=3,
    )
    report = run_scenario(scenario)
    assert report.all_jobs_terminal is False
    assert report.conservation_ok is True  # money still conserved while held


def test_insufficient_funds_recorded_not_thrown():
    scenario = Scenario(
        clusters=({"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1},),
        users=(
            {"account": "rich", "initial_deposit": 10000},
            {"account": "broke", "initial_deposit": 0},
        ),
        workload=(
            {"submit_at": 0, "user": "broke", "spec": _job()},
            {"submit_at": 1, "user": "rich", "spec": _job()},
        ),
        duration_s=102,
        seed=4,
    )
    report = run_scenario(scenario)
    assert len(report.errors) == 1
    assert report.errors[0]["time"] == 0
    assert "InsufficientFunds" in report.errors[0]["error"]
    assert report.jobs_per_cluster == {"A": 1}
    assert report.final_balances["user:rich"] == 10000 - 400
    assert report.final_balances["user:broke"] == 0


@pytest.mark.parametrize(
    "mutation,message",
    [
        (lambda d: d.update(duration_s=0), "duration"),
        (lambda d: d["workload"].reverse(), "ascending"),
        (lambda d: d["workload"][0].update(user="ghost"), "not in users"),
        (lambda d: d.update(duration_s=5), "cover the last"),
        (lambda d: d["clusters"].append({"cluster_id": "A", "capacity_nodes": 1, "base_rate": 1}), "unique"),
    ],
)
def test_scenario_validation(mutation, message):
    data = {
        "clusters": [{"cluster_id": "A", "capacity_nodes": 8, "base_rate": 1}],
        "users": [{"account": "alice", "initial_deposit": 1000}],
        "workload": [
            {"submit_at": 0, "user": "alice", "spec": _job()},
            {"submit_at": 6, "user": "alice", "spec": _job()},
        ],
        "duration_s": 200,
        "seed": 0,
    }
    mutation(data)
    with pytest.raises(ScenarioInvalid) as err:
        Scenario.from_dict(data)
    assert message in str(err.value)


def test_scenario_file_round_trip(tmp_path):
    scenario = four_clusters_eight_jobs()
    path = tmp_path / "scenario.json"
    path.write_bytes(canonical_encode(scenario.to_dict()))
    assert Scenario.from_file(path) == scenario


def test_sim_cli_writes_canonical_report(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    report_path = tmp_path / "report.json"
    scenario_path.write_bytes(canonical_encode(one_cluster_one_job().to_dict()))
    rc = harness.main(
        ["--scenario", str(scenario_path), "--report", str(report_path)]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    assert payload["jobs_per_cluster"] == {"A": 1}
    assert payload["final_balances"]["cluster:A"] == {"amount": 400}
    assert payload["conservation_ok"] is True
    # canonical: re-encoding the parsed payload reproduces the file bytes
    assert canonical_encode(payload) + b"\n" == report_path.read_bytes()


def test_sim_cli_check_replay(tmp_path, monkeypatch):
    scenario_path = tmp_path / "scenario.json"
    report_path = tmp_path / "report.json"
    plain_path = tmp_path / "plain.json"
    scenario_path.write_bytes(canonical_encode(one_cluster_one_job().to_dict()))
    assert harness.main(["--scenario", str(scenario_path), "--report", str(plain_path)]) == 0
    runs = []
    run = harness.MarketRuntime.run

    def counted_run(runtime):
        runs.append(runtime)
        return run(runtime)

    monkeypatch.setattr(harness.MarketRuntime, "run", counted_run)
    rc = harness.main(
        ["--scenario", str(scenario_path), "--report", str(report_path), "--check-replay"]
    )
    assert rc == 0
    assert len(runs) == 2
    assert report_path.read_bytes() == plain_path.read_bytes()


def test_sim_cli_rejects_bad_scenario(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"clusters": [], "users": []}))
    rc = harness.main(["--scenario", str(scenario_path), "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert "bad scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation,message",
    [
        (lambda d: d.update(duration_s=200.5), "duration_s must be an integer"),
        (lambda d: d.update(duration_s=True), "duration_s must be an integer"),
        (lambda d: d["workload"][0].update(submit_at=True), "submit_at must be"),
        (lambda d: d["workload"][1].update(submit_at=6.0), "submit_at must be"),
    ],
)
def test_scenario_times_must_be_integers(mutation, message):
    data = one_cluster_one_job().to_dict()
    data["workload"].append({"submit_at": 6, "user": "alice", "spec": _job()})
    data["duration_s"] = 200
    mutation(data)
    with pytest.raises(ScenarioInvalid) as err:
        Scenario.from_dict(data)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.update(duration_s=101.5),
        lambda d: d["workload"][0].update(submit_at=True),
        lambda d: d["clusters"][0].update(capacity_nodes="8"),
        lambda d: d["clusters"][0].update(base_rate="1"),
        lambda d: d["clusters"][0].update(horizon_s=0),
        lambda d: d["clusters"][0].update(cluster_id=5),
        lambda d: d["users"][0].update(initial_deposit="100"),
        lambda d: d["users"][0].update(initial_deposit=-5),
        lambda d: d["workload"][0].update(user=["alice"]),
        lambda d: d.update(clusters=["A"]),
        lambda d: d.update(users={"alice": 1}),
        lambda d: d.update(workload=5),
        lambda d: d.update(seed=[1]),
        lambda d: [1],
        # A cluster the broker would refuse to register.
        lambda d: d["clusters"][0].update(capabilities="gpu"),
        lambda d: d["clusters"][0].update(capabilities=["GPU!"]),
        # Settings the load coefficient replaced.
        lambda d: d["clusters"][0].update(horizon_s=3600),
        lambda d: d["clusters"][0].update(policy="flat"),
        # A quote's life is fixed.
        lambda d: d["clusters"][0].update(quote_ttl_s=60),
        # So is the lease a front-end announces.
        lambda d: d["clusters"][0].update(announce_ttl_s=60),
    ],
)
def test_sim_cli_answers_a_malformed_scenario_without_a_traceback(
    tmp_path, capsys, mutation
):
    data = one_cluster_one_job().to_dict()
    data = mutation(data) or data  # a mutation may replace the whole scenario
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    rc = harness.main(["--scenario", str(scenario_path), "--report", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_report_equality_is_field_wise():
    report = MarketReport(
        jobs_per_cluster={"A": 1},
        price_series=[{"time": 0, "cluster_id": "A", "price": {"amount": 1}}],
        final_balances={"user:alice": 1},
        conservation_ok=True,
        all_jobs_terminal=True,
    )
    same = MarketReport(
        jobs_per_cluster={"A": 1},
        price_series=[{"time": 0, "cluster_id": "A", "price": {"amount": 1}}],
        final_balances={"user:alice": 1},
        conservation_ok=True,
        all_jobs_terminal=True,
    )
    assert report == same
    assert canonical_encode(report.to_dict()) == canonical_encode(same.to_dict())
