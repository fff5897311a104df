"""Deterministic market simulation: bank, broker, and N cluster front-ends
run in-process over real loopback sockets while scripted clients submit a
workload in virtual time.

Only the per-job market methods cross loopback: ``broker.find_cluster``,
``node.quote``, ``bank.hold_escrow``, ``node.submit``, ``bank.verify_escrow``
and ``bank.settle_escrow``. Accounts, deposits and registrations go to the
cores, registrations as ``sg-node``'s announcer makes them. The broker and
every front-end share one ``VirtualClock`` that only the harness advances.
Each virtual second it delivers the submissions due (in workload order),
then advances the clock and catches each front-end up as ``sg-node``'s
ticker does; stretches with no submissions are ticked in one jump, pausing
every tenth second for a conservation audit, where a run longer than the
broker's longest ttl renews the registrations. The COMPLETED events of those
ticks count the finished jobs; with the bank's audit, that is all it reads.
Given a fixed seed, two runs of a scenario produce byte-identical reports.
Each service's shutdown goes on one ``ExitStack`` as it starts, so a failed
boot and ``shutdown`` both stop the services last started first.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .bank import BankCore, rpc_handlers as bank_handlers
from .broker import BrokerCore, MAX_TTL_S, rpc_handlers as broker_handlers
from .client import ClientConfig, ClientError, ClientSession
from .clock import VirtualClock
from .domain import ServiceError, ValidationError, canonical_encode, money
from .frontend import FrontendService

AUDIT_INTERVAL_S = 10


class ScenarioInvalid(ServiceError):
    name = "ScenarioInvalid"


def _unique_names(names: list[Any]) -> bool:
    return all(isinstance(n, str) and n for n in names) and len(set(names)) == len(names)


@dataclass(frozen=True)
class Scenario:
    """A scripted market: cluster fleet, funded users, timed submissions."""

    clusters: tuple[dict[str, Any], ...]
    users: tuple[dict[str, Any], ...]
    workload: tuple[dict[str, Any], ...]
    duration_s: int
    seed: int

    def __post_init__(self) -> None:
        if type(self.duration_s) is not int or self.duration_s < 1:
            raise ScenarioInvalid("duration_s must be an integer >= 1")
        if type(self.seed) is not int:
            raise ScenarioInvalid("seed must be an integer")
        for part in ("clusters", "users", "workload"):
            if not all(isinstance(entry, dict) for entry in getattr(self, part)):
                raise ScenarioInvalid(f"{part} entries must be objects")
        cluster_ids = [c.get("cluster_id") for c in self.clusters]
        if not _unique_names(cluster_ids):
            raise ScenarioInvalid("cluster_id values must be present, unique strings")
        for cluster in self.clusters:
            for key in ("capacity_nodes", "base_rate"):
                if key not in cluster:
                    raise ScenarioInvalid(f"cluster {cluster['cluster_id']!r} lacks {key}")
        logins = [u.get("account") for u in self.users]
        if not _unique_names(logins):
            raise ScenarioInvalid("user account names must be present, unique strings")
        for user in self.users:
            deposit = user.get("initial_deposit", 0)
            if type(deposit) is not int or deposit < 0:
                raise ScenarioInvalid("initial_deposit must be a non-negative integer")
        known = set(logins)
        last = -1
        for item in self.workload:
            submit_at = item.get("submit_at")
            if type(submit_at) is not int or submit_at < 0:
                raise ScenarioInvalid("submit_at must be a non-negative integer")
            if submit_at < last:
                raise ScenarioInvalid("workload submit times must be ascending")
            last = submit_at
            user = item.get("user")
            if not isinstance(user, str) or user not in known:
                raise ScenarioInvalid(f"workload user {user!r} not in users")
            if not isinstance(item.get("spec"), dict):
                raise ScenarioInvalid("workload items need a spec object")
        if self.workload and last >= self.duration_s:
            raise ScenarioInvalid("duration_s must cover the last submission")

    def to_dict(self) -> dict[str, Any]:
        return {
            "clusters": [dict(c) for c in self.clusters],
            "users": [dict(u) for u in self.users],
            "workload": [dict(w) for w in self.workload],
            "duration_s": self.duration_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ScenarioInvalid("a scenario must be an object")
        for key in ("clusters", "users", "duration_s", "seed"):
            if key not in data:
                raise ScenarioInvalid(f"scenario lacks field {key!r}")
        parts = {part: data.get(part, []) for part in ("clusters", "users", "workload")}
        for part, entries in parts.items():
            if not isinstance(entries, (list, tuple)):
                raise ScenarioInvalid(f"{part} must be a list")
        return cls(
            **{part: tuple(entries) for part, entries in parts.items()},
            duration_s=data["duration_s"],
            seed=data["seed"],
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class MarketReport:
    """What the market did: placement counts, winning prices over time,
    final balances, and the global health flags."""

    jobs_per_cluster: dict[str, int]
    price_series: list[dict[str, Any]]
    final_balances: dict[str, int]
    conservation_ok: bool
    all_jobs_terminal: bool
    errors: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "jobs_per_cluster": dict(self.jobs_per_cluster),
            "price_series": [dict(entry) for entry in self.price_series],
            "final_balances": {
                account: money(amount) for account, amount in self.final_balances.items()
            },
            "conservation_ok": self.conservation_ok,
            "all_jobs_terminal": self.all_jobs_terminal,
            "errors": [dict(e) for e in self.errors],
        }


def _cluster_secret(cluster_id: str) -> str:
    return f"cs-{cluster_id}"


class MarketRuntime:
    """Boots all services for a scenario and drives it to completion. Tests
    may inspect the cores directly; ``run_scenario`` is the fire-and-forget
    wrapper."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.virtual_clock = VirtualClock()
        with ExitStack() as stack:
            self._boot(stack)
            self._stack = stack.pop_all()

    def _boot(self, stack: ExitStack) -> None:
        """Start every service, each one's shutdown on ``stack``."""
        scenario = self.scenario
        secrets = {
            c["cluster_id"]: _cluster_secret(c["cluster_id"]) for c in scenario.clusters
        }
        self.bank_core = BankCore(cluster_secrets=secrets)
        self.bank_server = wire.serve("127.0.0.1:0", bank_handlers(self.bank_core))
        stack.callback(self.bank_server.shutdown)
        bank_address = self.bank_server.address

        self.broker_core = BrokerCore(clock=self.virtual_clock)
        self.broker_server = wire.serve("127.0.0.1:0", broker_handlers(self.broker_core))
        stack.callback(self.broker_server.shutdown)
        broker_address = self.broker_server.address

        self.user_accounts: dict[str, str] = {}
        self.deposited_total = 0
        for user in scenario.users:
            login = user["account"]
            account_id = self.bank_core.create_account(login, "USER")
            self.user_accounts[login] = account_id
            amount = user.get("initial_deposit", 0)
            if amount > 0:
                self.bank_core.deposit(account_id, amount)
                self.deposited_total += amount

        self.frontends: list[FrontendService] = []
        self.cluster_accounts: dict[str, str] = {}
        for fragment in scenario.clusters:
            cluster_id = fragment["cluster_id"]
            payee_account = self.bank_core.create_account(cluster_id, "CLUSTER")
            self.cluster_accounts[cluster_id] = payee_account
            config = dict(fragment)
            config.update(
                {
                    "listen": "127.0.0.1:0",
                    "broker": broker_address,
                    "bank": bank_address,
                    "payee_account": payee_account,
                    "cluster_secret": secrets[cluster_id],
                }
            )
            service = FrontendService(config, clock=self.virtual_clock)
            stack.callback(service.shutdown)
            self.frontends.append(service)

        self._register_all(0)

        self.sessions = {
            login: ClientSession(
                ClientConfig(
                    broker=broker_address,
                    bank=bank_address,
                    account_id=self.user_accounts[login],
                )
            )
            for login in self.user_accounts
        }

    def _register_all(self, now: int) -> None:
        ttl = min(MAX_TTL_S, self.scenario.duration_s - now + 60)
        for s in self.frontends:
            self.broker_core.register_cluster(s.core.descriptor(s.address), ttl, s.boot_id)
        # Unless this ttl outlasts the run, renew at an audit stop half of it on.
        self._renew_at = now + ttl // 2 if now + ttl < self.scenario.duration_s else None

    def _tick_all(self, dt: int) -> int:
        """Advance the clock ``dt`` seconds and catch every front-end up;
        the number of jobs that completed meanwhile."""
        self.virtual_clock.advance(dt)
        return sum(e["type"] == "COMPLETED" for s in self.frontends for e in s.catch_up())

    def _conservation_holds(self) -> bool:
        totals = self.bank_core.audit()
        return totals["total_balances"] + totals["total_held"] == self.deposited_total

    def run(self) -> MarketReport:
        scenario = self.scenario
        job_ids = [f"{self.rng.getrandbits(128):032x}" for _ in scenario.workload]
        jobs_per_cluster = {c["cluster_id"]: 0 for c in scenario.clusters}
        price_series: list[dict[str, Any]] = []
        errors: list[dict[str, Any]] = []
        completed = 0
        conservation_ok = self._conservation_holds()

        idx = 0
        vt = 0
        while vt < scenario.duration_s:
            while idx < len(scenario.workload) and scenario.workload[idx]["submit_at"] == vt:
                item = scenario.workload[idx]
                job_id = job_ids[idx]
                idx += 1
                session = self.sessions[item["user"]]
                try:
                    spec = session.build_spec(None, item["spec"], job_id=job_id)
                    receipt = session.submit_job(spec)
                except (ClientError, ValidationError, wire.RpcError) as exc:
                    errors.append(
                        {"time": vt, "job_id": job_id, "error": str(exc)}
                    )
                    continue
                cluster_id = receipt["cluster_id"]
                jobs_per_cluster[cluster_id] += 1
                price_series.append(
                    {
                        "time": vt,
                        "cluster_id": cluster_id,
                        "price": receipt["price"],
                    }
                )

            next_submit = (
                scenario.workload[idx]["submit_at"]
                if idx < len(scenario.workload)
                else scenario.duration_s
            )
            next_audit = (vt // AUDIT_INTERVAL_S + 1) * AUDIT_INTERVAL_S
            stop = min(next_submit, next_audit, scenario.duration_s)
            completed += self._tick_all(stop - vt)
            vt = stop
            if vt % AUDIT_INTERVAL_S == 0:
                conservation_ok = conservation_ok and self._conservation_holds()
                if self._renew_at is not None and vt >= self._renew_at:
                    self._register_all(vt)

        conservation_ok = conservation_ok and self._conservation_holds()

        accepted = sum(jobs_per_cluster.values())
        all_terminal = (
            completed == accepted and self.bank_core.audit()["total_held"] == 0
        )
        final_balances = self.bank_core.account_balances()
        return MarketReport(
            jobs_per_cluster=jobs_per_cluster,
            price_series=price_series,
            final_balances=final_balances,
            conservation_ok=conservation_ok,
            all_jobs_terminal=all_terminal,
            errors=errors,
        )

    def shutdown(self) -> None:
        """Stop every service, the last started first. A step that raises
        does not stop the later ones; its error surfaces once all have run."""
        self._stack.close()


def run_scenario(scenario: Scenario) -> MarketReport:
    """Execute a scenario start to finish and report what the market did."""
    runtime = MarketRuntime(scenario)
    try:
        return runtime.run()
    finally:
        runtime.shutdown()


def replay_check(scenario: Scenario) -> bool:
    """True iff two runs of the scenario produce identical reports."""
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    return canonical_encode(first.to_dict()) == canonical_encode(second.to_dict())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sg-sim", description="market simulator")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--report", required=True, help="where to write the report")
    parser.add_argument(
        "--check-replay",
        action="store_true",
        help="run twice and fail unless the reports are identical",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    try:
        scenario = Scenario.from_file(args.scenario)
    except (ScenarioInvalid, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_scenario(scenario)
    except ValidationError as exc:  # a cluster's settings, checked at boot
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return 1
    encoded = canonical_encode(report.to_dict())
    if args.check_replay and canonical_encode(run_scenario(scenario).to_dict()) != encoded:
        print("error: scenario did not replay identically", file=sys.stderr)
        return 1
    with open(args.report, "wb") as fh:
        fh.write(encoded + b"\n")
    summary = {
        "jobs_per_cluster": report.jobs_per_cluster,
        "conservation_ok": report.conservation_ok,
        "all_jobs_terminal": report.all_jobs_terminal,
        "errors": len(report.errors),
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
