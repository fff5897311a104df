"""The traced benchmark run still works end to end on this transport, and
a benchmark scenario's report bytes stay pinned."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_worker_reports_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"),
         "--workload", "steady-4", "--seed", "1", "--mode", "traced"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert set(tracing.LAYER_UNITS) <= set(result["layers"])


def test_mixed_base_rate_report_is_pinned(monkeypatch):
    """``wide-64`` mixes base rates 1-5 (the scenario pinned in
    ``test_harness`` has one), so a selection other than the full fan-out's
    would change these bytes."""
    monkeypatch.syspath_prepend(str(BENCH))
    import scenarios
    from sgmarket.domain import canonical_encode
    from sgmarket.harness import Scenario, run_scenario

    report = run_scenario(Scenario.from_dict(scenarios.generate("wide-64", 1)))
    digest = hashlib.sha256(canonical_encode(report.to_dict())).hexdigest()
    assert digest == "008823d3d9fc96220d5016235575527da451499327681372ba49f5dd1ad34b94"


def test_benchmark_budgets_with_the_front_ends_pricing_horizon(monkeypatch):
    """``bench/scenarios.py`` keeps its own copy of the horizon for
    ``max_spend``'s worst-case load factor, so a drift fails here."""
    monkeypatch.syspath_prepend(str(BENCH))
    import scenarios
    from sgmarket.frontend import HORIZON_S

    assert scenarios.HORIZON_S == HORIZON_S


def _quote_batches_per_find(monkeypatch, workload, seed):
    """Run a benchmark scenario; the number of ``node.quote`` batches each
    find sent, and the number of quotes in all."""
    monkeypatch.syspath_prepend(str(BENCH))
    import scenarios
    from sgmarket import broker, wire
    from sgmarket.harness import Scenario, run_scenario

    batches_per_find = []
    quotes = 0
    fanout = wire.rpc_fanout
    find_cluster = broker.BrokerCore.find_cluster

    def counting_fanout(addresses, method, params, timeout_ms):
        nonlocal quotes
        if method == "node.quote":
            quotes += len(addresses)
            batches_per_find[-1] += 1
        return fanout(addresses, method, params, timeout_ms)

    def counting_find(self, spec):
        batches_per_find.append(0)
        return find_cluster(self, spec)

    monkeypatch.setattr(wire, "rpc_fanout", counting_fanout)
    monkeypatch.setattr(broker.BrokerCore, "find_cluster", counting_find)
    run_scenario(Scenario.from_dict(scenarios.generate(workload, seed)))
    return batches_per_find, quotes


# Seed-1 finds that took a second round: a hint change that keeps the quote
# totals but adds rounds shows here.
TWO_ROUND_FINDS = {"steady-4": 27, "wide-64": 0, "deep-4": 124}


def test_wide_64_find_asks_few_clusters_in_at_most_two_rounds(monkeypatch):
    """Rate-card floors and the broker's placement record cut the seed-1
    ``wide-64`` run from 356 quotes (floor-bounded rounds alone) to 123,
    and load reports to 105; no find takes a third round."""
    batches_per_find, quotes = _quote_batches_per_find(monkeypatch, "wide-64", 1)
    assert len(batches_per_find) == 40
    assert quotes == 105
    assert max(batches_per_find) <= 2
    assert batches_per_find.count(2) == TWO_ROUND_FINDS["wide-64"]


@pytest.mark.parametrize(
    "workload, finds, quotes",
    [
        # One base rate: floors alone ask all four clusters of a busy
        # fleet (382 and 2,400 quotes); load reports rank them.
        ("steady-4", 100, 179),
        ("deep-4", 600, 980),
    ],
)
def test_load_reports_cut_the_quotes_of_a_busy_fleet(monkeypatch, workload, finds, quotes):
    batches_per_find, asked = _quote_batches_per_find(monkeypatch, workload, 1)
    assert len(batches_per_find) == finds
    assert asked == quotes
    assert max(batches_per_find) <= 2
    assert batches_per_find.count(2) == TWO_ROUND_FINDS[workload]
