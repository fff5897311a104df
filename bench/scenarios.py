"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into a ``Scenario`` dict that ``sgmarket.harness``
accepts. The same seed always gives the same scenario. Before a scenario is
used, :func:`check_scenario` proves three things from the scenario alone, for
any placement the market might choose:

* every job has at least one cluster that can run it (capacity and
  features), so no submission can fail with "no eligible cluster";
* ``duration_s`` covers the drain, so every job ends before the run stops;
* every user's deposit covers the highest price any of their jobs can be
  quoted, so no hold can fail with insufficient funds.

Why each workload exists:

* ``steady-4``: four identical clusters, one short small job per virtual
  second. Queues stay near empty, so each job is about ten fresh-connection
  RPCs plus a 4-wide fan-out and the transport dominates. Control for the
  front-end and bank work.
* ``wide-64``: 64 heterogeneous clusters. A third of the jobs need a feature
  only half the fleet offers, so many quotes come back as refusals. Broker
  fan-out and the 64 per-stop ticks dominate, and set-up registers 64
  services.
* ``deep-4``: four large clusters fed bursts of one-node long jobs, so each
  front-end ends up holding about 150 running and queued jobs and the bank
  600 escrows. Quote pricing, scheduler ticks and bank audits, all
  linear in what is held, become visible. The RPCs per job match
  ``steady-4``; the two differ in queue depth.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Any

USERS = ("u0", "u1", "u2", "u3")
HORIZON_S = 3600  # the front-end's default pricing horizon

# Jobs per repetition: few, so that many repetitions fit in one run, except
# that deep-4 needs its size to build queue depth.
STEADY_JOBS = 100
WIDE_JOBS = 40
DEEP_JOBS = 600
DEEP_BURST = 40


class ScenarioCheckFailed(Exception):
    """A generated scenario could fail a submission or not drain in time."""


def _spec(rng: random.Random, nodes: int, walltime_s: int, features: list[str]) -> dict[str, Any]:
    spec: dict[str, Any] = {
        "nodes": nodes,
        "walltime_s": walltime_s,
        "command": f"sim-{rng.randrange(10**6)}",
        "workdir": "/scratch/bench",
    }
    if features:
        spec["required_features"] = features
    return spec


def steady_4(seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    clusters = [
        {"cluster_id": f"c{i}", "capacity_nodes": 64, "base_rate": 2}
        for i in range(4)
    ]
    workload = [
        {
            "submit_at": t,
            "user": USERS[t % len(USERS)],
            "spec": _spec(rng, rng.randint(1, 2), rng.randint(5, 20), []),
        }
        for t in range(STEADY_JOBS)
    ]
    return _finish(clusters, workload, seed)


def wide_64(seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    gpu_holders = set(rng.sample(range(64), 32))
    clusters = []
    for i in range(64):
        capabilities: list[str] = []
        multipliers: dict[str, Any] = {}
        if i in gpu_holders:
            capabilities.append("gpu")
            multipliers["gpu"] = [rng.randint(3, 6), 2]
        if rng.random() < 0.5:
            capabilities.append("deadline")
            multipliers["deadline"] = [5, 4]
        clusters.append(
            {
                "cluster_id": f"w{i:02d}",
                "capacity_nodes": rng.choice((16, 32, 64, 128, 256)),
                "base_rate": rng.randint(1, 5),
                "capabilities": sorted(capabilities),
                "feature_multipliers": multipliers,
            }
        )
    workload = []
    for t in range(WIDE_JOBS):
        features = ["gpu"] if t % 3 == 0 else []
        workload.append(
            {
                "submit_at": t,
                "user": USERS[t % len(USERS)],
                "spec": _spec(rng, rng.randint(1, 2), rng.randint(2, 8), features),
            }
        )
    return _finish(clusters, workload, seed)


def deep_4(seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    clusters = [
        {"cluster_id": f"d{i}", "capacity_nodes": 120, "base_rate": 1}
        for i in range(4)
    ]
    workload = [
        {
            "submit_at": n // DEEP_BURST,
            "user": USERS[n % len(USERS)],
            "spec": _spec(rng, 1, rng.randint(100, 200), []),
        }
        for n in range(DEEP_JOBS)
    ]
    return _finish(clusters, workload, seed)


GENERATORS = {"steady-4": steady_4, "wide-64": wide_64, "deep-4": deep_4}
WORKLOADS = tuple(GENERATORS)


def _finish(
    clusters: list[dict[str, Any]], workload: list[dict[str, Any]], seed: int
) -> dict[str, Any]:
    spend = max_spend(clusters, workload)
    scenario = {
        "clusters": clusters,
        "users": [
            {"account": login, "initial_deposit": spend.get(login, 0) + 1}
            for login in USERS
        ],
        "workload": workload,
        "duration_s": drain_end(clusters, workload),
        "seed": seed,
    }
    check_scenario(scenario)
    return scenario


def generate(workload: str, seed: int) -> dict[str, Any]:
    return GENERATORS[workload](seed)


def eligible(cluster: dict[str, Any], spec: dict[str, Any]) -> bool:
    features = set(spec.get("required_features", []))
    return spec["nodes"] <= cluster["capacity_nodes"] and features <= set(
        cluster.get("capabilities", [])
    )


def drain_end(clusters: list[dict[str, Any]], workload: list[dict[str, Any]]) -> int:
    """A virtual time by which every job has ended, whatever cluster each
    job is placed on. Front-ends run FIFO, and every job fits every cluster
    eligible for it, so a non-empty queue always has a job running.

    * If the node demand of jobs that overlap in time never exceeds the
      smallest cluster, no job ever waits: each ends at submit + walltime.
    * If every job takes one node, the queue is work-conserving: all work
      is done by the last submission plus total work over the smallest
      capacity, plus the longest walltime still running.
    * Otherwise jobs run at worst one at a time.
    """
    if not workload:
        return 1
    min_capacity = min(c["capacity_nodes"] for c in clusters)
    last_submit = workload[-1]["submit_at"]
    walltimes = [w["spec"]["walltime_s"] for w in workload]
    events: list[tuple[int, int]] = []
    for item in workload:
        spec = item["spec"]
        events.append((item["submit_at"], spec["nodes"]))
        events.append((item["submit_at"] + spec["walltime_s"], -spec["nodes"]))
    demand = peak = 0
    for _, delta in sorted(events):  # ends sort before starts at equal times
        demand += delta
        peak = max(peak, demand)
    if peak <= min_capacity:
        return max(w["submit_at"] + w["spec"]["walltime_s"] for w in workload)
    if all(w["spec"]["nodes"] == 1 for w in workload):
        return last_submit + math.ceil(sum(walltimes) / min_capacity) + max(walltimes)
    return last_submit + sum(walltimes)


def max_spend(clusters: list[dict[str, Any]], workload: list[dict[str, Any]]) -> dict[str, int]:
    """Per user, the most their jobs can cost at any eligible cluster under
    the load-proportional price, with the load ratio bounded by all the work
    in the scenario sitting on the smallest cluster."""
    min_capacity = min(c["capacity_nodes"] for c in clusters)
    total_work = sum(w["spec"]["nodes"] * w["spec"]["walltime_s"] for w in workload)
    load_factor = 1 + Fraction(total_work, min_capacity * HORIZON_S)
    spend: dict[str, int] = {}
    for item in workload:
        spec = item["spec"]
        worst = 0
        for cluster in clusters:
            if not eligible(cluster, spec):
                continue
            amount = Fraction(cluster["base_rate"]) * spec["nodes"] * spec["walltime_s"]
            amount *= load_factor
            for feature in spec.get("required_features", []):
                ratio = cluster.get("feature_multipliers", {}).get(feature, 1)
                amount *= Fraction(*ratio) if isinstance(ratio, list) else Fraction(ratio)
            worst = max(worst, math.ceil(amount))
        spend[item["user"]] = spend.get(item["user"], 0) + worst
    return spend


def check_scenario(scenario: dict[str, Any]) -> None:
    """Raise :class:`ScenarioCheckFailed` unless every submission is sure to
    succeed and every job is sure to end within ``duration_s``."""
    clusters, workload = scenario["clusters"], scenario["workload"]
    for item in workload:
        if not any(eligible(c, item["spec"]) for c in clusters):
            raise ScenarioCheckFailed(f"no eligible cluster for {item['spec']}")
    end = drain_end(clusters, workload)
    if scenario["duration_s"] < end:
        raise ScenarioCheckFailed(
            f"duration_s {scenario['duration_s']} ends before the drain at {end}"
        )
    deposits = {u["account"]: u["initial_deposit"] for u in scenario["users"]}
    for login, needed in max_spend(clusters, workload).items():
        if deposits.get(login, 0) < needed:
            raise ScenarioCheckFailed(f"user {login} cannot pay for its jobs")
