"""Deterministic market simulation: bank, broker, and N cluster front-ends
run in-process over real loopback sockets while scripted clients submit a
workload in virtual time.

Only market traffic crosses loopback: find, quotes, escrow, submit and
settlement. The harness alone advances time, and does so in-process, the
way a wall-mode front-end's own ticker does. Each virtual second it delivers
the submissions due (sequentially, in workload order), then calls every
front-end core's ``tick`` in turn; stretches with no due submissions are
ticked in one jump, pausing at every tenth second for a conservation audit.
A run longer than the broker's longest ttl re-announces the front-ends at
such a stop. It audits the bank and reads final job states from the cores
directly as well. Given a fixed seed, two runs of the same scenario produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .bank import BankClient, BankCore, rpc_handlers as bank_handlers
from .broker import BrokerCore, MAX_TTL_S, rpc_handlers as broker_handlers
from .client import ClientConfig, ClientError, ClientSession
from .clock import VirtualClock
from .domain import JobState, ServiceError, ValidationError, canonical_encode
from .frontend import FrontendCore, FrontendService

log = logging.getLogger(__name__)

AUDIT_INTERVAL_S = 10


class ScenarioInvalid(ServiceError):
    name = "ScenarioInvalid"


@dataclass(frozen=True)
class Scenario:
    """A scripted market: cluster fleet, funded users, timed submissions."""

    clusters: tuple[dict[str, Any], ...]
    users: tuple[dict[str, Any], ...]
    workload: tuple[dict[str, Any], ...]
    duration_s: int
    seed: int

    def __post_init__(self) -> None:
        if self.duration_s < 1:
            raise ScenarioInvalid("duration_s must be >= 1")
        cluster_ids = [c.get("cluster_id") for c in self.clusters]
        if len(set(cluster_ids)) != len(cluster_ids) or None in cluster_ids:
            raise ScenarioInvalid("cluster_id values must be present and unique")
        for cluster in self.clusters:
            for key in ("capacity_nodes", "base_rate"):
                if key not in cluster:
                    raise ScenarioInvalid(f"cluster {cluster['cluster_id']!r} lacks {key}")
        logins = [u.get("account") for u in self.users]
        if len(set(logins)) != len(logins) or None in logins:
            raise ScenarioInvalid("user account names must be present and unique")
        known = set(logins)
        last = -1
        for item in self.workload:
            submit_at = item.get("submit_at")
            if not isinstance(submit_at, int) or submit_at < 0:
                raise ScenarioInvalid("submit_at must be a non-negative integer")
            if submit_at < last:
                raise ScenarioInvalid("workload submit times must be ascending")
            last = submit_at
            if item.get("user") not in known:
                raise ScenarioInvalid(f"workload user {item.get('user')!r} not in users")
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
        try:
            return cls(
                clusters=tuple(data["clusters"]),
                users=tuple(data["users"]),
                workload=tuple(data.get("workload", [])),
                duration_s=data["duration_s"],
                seed=data["seed"],
            )
        except KeyError as exc:
            raise ScenarioInvalid(f"scenario lacks field {exc.args[0]!r}") from None

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
                account: {"amount": amount}
                for account, amount in self.final_balances.items()
            },
            "conservation_ok": self.conservation_ok,
            "all_jobs_terminal": self.all_jobs_terminal,
            "errors": [dict(e) for e in self.errors],
        }


def _user_secret(login: str) -> str:
    return f"pw-{login}"


def _cluster_secret(cluster_id: str) -> str:
    return f"cs-{cluster_id}"


class MarketRuntime:
    """Boots all services for a scenario and drives it to completion. Tests
    may inspect the cores directly; ``run_scenario`` is the fire-and-forget
    wrapper."""

    def __init__(self, scenario: Scenario, bid_timeout_ms: int = 2000):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.virtual_clock = VirtualClock()
        self._started: list[Any] = []
        try:
            self._boot(bid_timeout_ms)
        except Exception:
            self.shutdown()
            raise

    def _boot(self, bid_timeout_ms: int) -> None:
        scenario = self.scenario
        secrets = {
            c["cluster_id"]: _cluster_secret(c["cluster_id"]) for c in scenario.clusters
        }
        self.bank_core = BankCore(cluster_secrets=secrets)
        self.bank_server = wire.serve("127.0.0.1:0", bank_handlers(self.bank_core))
        self._started.append(self.bank_server)
        bank_address = self.bank_server.address

        self.broker_core = BrokerCore(
            bid_timeout_ms=bid_timeout_ms, clock=self.virtual_clock
        )
        self.broker_server = wire.serve("127.0.0.1:0", broker_handlers(self.broker_core))
        self._started.append(self.broker_server)
        broker_address = self.broker_server.address

        bank_client = BankClient(bank_address)
        self.user_accounts: dict[str, str] = {}
        self.deposited_total = 0
        for user in scenario.users:
            login = user["account"]
            account_id = bank_client.create_account(login, "USER")
            self.user_accounts[login] = account_id
            amount = user.get("initial_deposit", 0)
            if amount > 0:
                bank_client.deposit(account_id, amount)
                self.deposited_total += amount

        users_table = {login: _user_secret(login) for login in self.user_accounts}
        self.frontends: list[FrontendService] = []
        self.cluster_accounts: dict[str, str] = {}
        for fragment in scenario.clusters:
            cluster_id = fragment["cluster_id"]
            payee_account = bank_client.create_account(cluster_id, "CLUSTER")
            self.cluster_accounts[cluster_id] = payee_account
            config = dict(fragment)
            config.update(
                {
                    "listen": "127.0.0.1:0",
                    "broker": broker_address,
                    "bank": bank_address,
                    "clock_mode": "virtual",
                    "users": users_table,
                    "payee_account": payee_account,
                    "cluster_secret": secrets[cluster_id],
                }
            )
            service = FrontendService(config)
            self._started.append(service)
            self.frontends.append(service)

        self._announce_all(0)

        self.sessions = {
            login: ClientSession(
                ClientConfig(
                    broker=broker_address,
                    bank=bank_address,
                    user=login,
                    secret=_user_secret(login),
                    account_id=self.user_accounts[login],
                )
            )
            for login in self.user_accounts
        }

    def _announce_all(self, now: int) -> None:
        ttl = min(MAX_TTL_S, self.scenario.duration_s - now + 60)
        for service in self.frontends:
            service.announce(ttl_s=ttl)
        # Unless this ttl outlasts the run, renew at an audit stop half of it on.
        self._renew_at = now + ttl // 2 if now + ttl < self.scenario.duration_s else None

    def _tick_all(self, dt: int) -> None:
        for service in self.frontends:
            service.core.tick(dt)
        self.virtual_clock.advance(dt)

    def _conservation_holds(self) -> bool:
        totals = self.bank_core.audit()
        return totals["total_balances"] + totals["total_held"] == self.deposited_total

    def run(self) -> MarketReport:
        scenario = self.scenario
        job_ids = [f"{self.rng.getrandbits(128):032x}" for _ in scenario.workload]
        jobs_per_cluster = {c["cluster_id"]: 0 for c in scenario.clusters}
        price_series: list[dict[str, Any]] = []
        errors: list[dict[str, Any]] = []
        accepted: list[tuple[str, FrontendCore]] = []
        cores = {service.core.cluster_id: service.core for service in self.frontends}
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
                accepted.append((receipt["job_id"], cores[cluster_id]))

            next_submit = (
                scenario.workload[idx]["submit_at"]
                if idx < len(scenario.workload)
                else scenario.duration_s
            )
            next_audit = (vt // AUDIT_INTERVAL_S + 1) * AUDIT_INTERVAL_S
            stop = min(next_submit, next_audit, scenario.duration_s)
            self._tick_all(stop - vt)
            vt = stop
            if vt % AUDIT_INTERVAL_S == 0:
                conservation_ok = conservation_ok and self._conservation_holds()
                if self._renew_at is not None and vt >= self._renew_at:
                    self._announce_all(vt)

        conservation_ok = conservation_ok and self._conservation_holds()

        all_terminal = self.bank_core.audit()["total_held"] == 0
        for job_id, core in accepted:
            if core.status(job_id).state not in (JobState.COMPLETED, JobState.FAILED):
                all_terminal = False

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
        for service in reversed(self._started):
            try:
                service.shutdown()
            except Exception:  # pragma: no cover - teardown best effort
                log.exception("shutdown trouble")
        self._started.clear()


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
    report = run_scenario(scenario)
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
