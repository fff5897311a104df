"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget."""

import itertools
import random
import socket
import time
from contextlib import contextmanager

from sgmarket import wire
from sgmarket.bank import BankCore, InsufficientFunds
from sgmarket.broker import select_lowest
from sgmarket.domain import ClusterDescriptor, validate_jobspec
from sgmarket.harness import MarketRuntime, Scenario, replay_check
from sgmarket.wire import decode_message, encode_message

import test_frontend
import test_harness


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.monotonic() - started:.2f}s)")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_end_to_end_lifecycle():
    with criterion(1, "end-to-end lifecycle", 5.0):
        runtime = MarketRuntime(test_harness.one_cluster_one_job())
        try:
            report = runtime.run()
            assert report.final_balances == {"user:alice": 9600, "cluster:A": 400}
            escrows = runtime.bank_core.escrow_records()
            assert len(escrows) == 1
            assert escrows[0].state.value == "RELEASED"
            job_id, address = None, runtime.frontends[0].address
            job_id = report.price_series[0]  # placement recorded
            statuses = [
                wire.rpc_call(address, "node.status", {"job_id": j}, timeout_ms=5000)
                for j in runtime.frontends[0].core.scheduler.jobs
            ]
            assert statuses and all(s["status"]["state"] == "COMPLETED" for s in statuses)
            assert report.conservation_ok and report.all_jobs_terminal
        finally:
            runtime.shutdown()


def test_criterion_2_money_conservation():
    with criterion(2, "money conservation", 10.0):
        rng = random.Random(2024)
        for _ in range(1000):
            core = BankCore(cluster_secrets={"c": "s"})
            users = [core.create_account(f"u{i}", "USER") for i in range(2)]
            cluster = core.create_account("c", "CLUSTER")
            deposited = 0
            open_escrows: list[tuple[str, str]] = []
            job_seq = 0
            for _ in range(rng.randint(5, 25)):
                op = rng.choice(("deposit", "hold", "settle"))
                if op == "deposit":
                    amount = rng.randint(1, 2000)
                    core.deposit(rng.choice(users), amount)
                    deposited += amount
                elif op == "hold":
                    job_seq += 1
                    job_id = f"{job_seq:032x}"
                    try:
                        escrow_id = core.hold_escrow(
                            rng.choice(users), cluster, rng.randint(1, 1500), job_id
                        )
                        open_escrows.append((escrow_id, job_id))
                    except InsufficientFunds:
                        pass
                elif open_escrows:
                    escrow_id, job_id = open_escrows.pop(rng.randrange(len(open_escrows)))
                    core.settle_escrow(
                        escrow_id, job_id, rng.choice(("COMPLETED", "FAILED")), "s"
                    )
                totals = core.audit()
                assert totals["total_balances"] + totals["total_held"] == deposited


def test_criterion_3_argmin_selection():
    with criterion(3, "argmin selection", 1.0):
        price_domain = (100, 200, 300)
        for size in range(1, 6):
            ids = [chr(ord("a") + i) for i in range(size)]
            for prices in itertools.product(price_domain, repeat=size):
                bids = list(zip(ids, prices))
                lowest = min(prices)
                expected = (min(i for i, p in bids if p == lowest), lowest)
                for perm in itertools.permutations(bids):
                    assert select_lowest(list(perm)) == expected


def _random_homogeneous_scenario(rng: random.Random) -> Scenario:
    n_clusters = rng.randint(2, 4)
    capacity = rng.randint(4, 12)
    base_rate = rng.randint(100, 2000)
    nodes = rng.randint(max(1, capacity // 2), capacity)
    walltime = rng.randint(25, 50)
    n_jobs = rng.randint(4, 8)
    clusters = tuple(
        {"cluster_id": f"c{i:02d}", "capacity_nodes": capacity, "base_rate": base_rate}
        for i in range(n_clusters)
    )
    workload = tuple(
        {
            "submit_at": t,
            "user": "buyer",
            "spec": {"nodes": nodes, "walltime_s": walltime, "command": "run", "workdir": "/d"},
        }
        for t in range(n_jobs)
    )
    ample = n_jobs * base_rate * nodes * walltime * 3
    return Scenario(
        clusters=clusters,
        users=({"account": "buyer", "initial_deposit": ample},),
        workload=workload,
        duration_s=n_jobs + walltime + 2,
        seed=rng.randint(0, 2**31),
    )


def test_criterion_4_even_distribution():
    with criterion(4, "even distribution", 30.0):
        report = test_harness.run_scenario(test_harness.four_clusters_eight_jobs())
        assert report.jobs_per_cluster == {"A": 2, "B": 2, "C": 2, "D": 2}

        rng = random.Random(404)
        for _ in range(50):
            scenario = _random_homogeneous_scenario(rng)
            result = test_harness.run_scenario(scenario)
            assert result.errors == []
            counts = result.jobs_per_cluster.values()
            assert sum(counts) == len(scenario.workload)
            assert max(counts) - min(counts) <= 1, (
                scenario.to_dict(),
                result.jobs_per_cluster,
            )


def test_criterion_5_broker_isolation():
    with criterion(5, "broker isolation", 5.0):
        runtime = MarketRuntime(
            Scenario(
                clusters=({"cluster_id": "alive", "capacity_nodes": 8, "base_rate": 1},),
                users=({"account": "alice", "initial_deposit": 0},),
                workload=(),
                duration_s=1,
                seed=0,
            ),
        )
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            silent.bind(("127.0.0.1", 0))
            silent.listen(8)
            host, port = silent.getsockname()
            runtime.broker_core.register_cluster(
                ClusterDescriptor(
                    cluster_id="hung",
                    address=f"{host}:{port}",
                    capacity_nodes=8,
                    capabilities=frozenset(),
                    base_rate=1,
                    payee_account="cluster:hung",
                ),
                ttl_s=600,
            )
            spec = validate_jobspec(
                {
                    "job_id": "e" * 32,
                    "nodes": 4,
                    "walltime_s": 100,
                    "command": "run",
                    "workdir": "/d",
                }
            )
            started = time.monotonic()
            outcome = runtime.broker_core.find_cluster(spec)
            elapsed = time.monotonic() - started
            assert outcome["selection"]["cluster_id"] == "alive"
            assert elapsed <= 2.0 * 1.1
        finally:
            silent.close()
            runtime.shutdown()


def test_criterion_6_scheduler_oracle_equivalence():
    with criterion(6, "scheduler oracle equivalence", 30.0):
        for seed in range(200):
            test_frontend._drive_and_compare(seed)


def _random_text(rng: random.Random) -> str:
    pool = "abcXYZ019 _-\t\n\"\\/{}[]:,é☃"
    return "".join(rng.choice(pool) for _ in range(rng.randrange(0, 10)))


def _random_json(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.55:
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return rng.random() < 0.5
        if kind == 2:
            return rng.randint(-(10**12), 10**12)
        if kind == 3:
            return rng.uniform(-1e6, 1e6)
        return _random_text(rng)
    if roll < 0.8:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    return {
        _random_text(rng): _random_json(rng, depth + 1)
        for _ in range(rng.randrange(0, 4))
    }


def _random_message(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        method = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz_.") for _ in range(rng.randint(1, 12))
        )
        params = {
            _random_text(rng): _random_json(rng) for _ in range(rng.randrange(0, 4))
        }
        return {"id": str(rng.randint(1, 10**9)), "method": method, "params": params}
    if roll < 0.8:
        return {"id": _random_text(rng), "result": _random_json(rng)}
    return {
        "id": _random_text(rng),
        "error": {"code": rng.randint(-(10**6), 10**6), "message": _random_text(rng)},
    }


def test_criterion_7_wire_round_trip_and_golden():
    with criterion(7, "wire round-trip and golden bytes", 10.0):
        golden = {"id": "1", "method": "ping", "params": {}}
        assert encode_message(golden) == b'{"id":"1","method":"ping","params":{}}\n'

        rng = random.Random(7777)
        for _ in range(10000):
            message = _random_message(rng)
            encoded = encode_message(message)
            assert encoded.endswith(b"\n") and encoded.count(b"\n") == 1
            assert decode_message(encoded[:-1]) == message

        for _ in range(10000):
            line = rng.randbytes(rng.randrange(0, 120))
            try:
                decode_message(line)
            except wire.FramingError:
                pass


def test_criterion_8_determinism():
    with criterion(8, "determinism via replay", 60.0):
        scenarios = [
            test_harness.one_cluster_one_job(),
            test_harness.four_clusters_eight_jobs(),
            _random_homogeneous_scenario(random.Random(88)),
        ]
        for scenario in scenarios:
            assert replay_check(scenario) is True


def test_criterion_9_feature_gating(market_factory):
    with criterion(9, "feature gating", 10.0):
        runtime = market_factory(
            clusters=[
                {"cluster_id": "plain", "capacity_nodes": 8, "base_rate": 1},
                {
                    "cluster_id": "featureful",
                    "capacity_nodes": 8,
                    "base_rate": 1,
                    "capabilities": ["deadline"],
                    "feature_multipliers": {"deadline": [5, 4]},
                },
            ],
            users=[{"account": "alice", "initial_deposit": 10000}],
        )
        spec = validate_jobspec(
            {
                "job_id": "f" * 32,
                "nodes": 2,
                "walltime_s": 100,
                "required_features": ["deadline"],
                "command": "run",
                "workdir": "/d",
            }
        )
        answers = {
            service.core.card.cluster_id: wire.rpc_call(
                service.address, "node.quote", {"spec": spec.to_dict()}, timeout_ms=5000
            )
            for service in runtime.frontends
        }
        assert answers["plain"] == {"no_bid": {"reason": "unsupported_feature"}}
        assert answers["featureful"]["bid"]["price"] == {"amount": 250}

        selection = runtime.broker_core.find_cluster(spec)["selection"]
        assert selection["cluster_id"] == "featureful"
        assert selection["price"] == {"amount": 250}
