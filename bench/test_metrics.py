"""Checks of the benchmark's own arithmetic, not of any timing.

    python3 -m pytest bench -q
"""

import threading

import pytest

import scenarios
from metrics import (
    fail_ratio,
    percentile,
    min_samples,
    samples_beyond,
    self_time,
    union_length,
    windows,
)
from tracing import Span, SpanRecorder, layer_metrics


def test_union_merges_overlaps_and_skips_contained():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert union_length([]) == 0


def test_self_time_with_overlapping_parallel_children():
    # [1, 6] and [8, 10] are covered inside [0, 10]; the third child sticks
    # out of the parent and only its inside part counts.
    assert self_time(0, 10, [(1, 4), (2, 6), (8, 12)]) == 3
    assert self_time(0, 10, [(-2, 1), (1, 2)]) == 8
    assert self_time(0, 10, [(3, 4), (3, 4)]) == 9
    assert self_time(0, 10, [(11, 12)]) == 10
    assert self_time(0, 10, []) == 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(0, 90) == 0
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    for q in (50, 75, 90, 95, 99):
        n = min_samples(q)
        assert samples_beyond(n, q) >= 10 > samples_beyond(n - 1, q)


def test_windows_are_consecutive_and_never_short():
    assert windows(list(range(300)), 100) == [
        list(range(0, 100)),
        list(range(100, 200)),
        list(range(200, 300)),
    ]
    assert windows(list(range(250)), 100) == [list(range(100)), list(range(100, 250))]
    assert windows(list(range(100)), 100) == [list(range(100))]
    with pytest.raises(ValueError):
        windows(list(range(99)), 100)


def test_fail_ratio_counts_report_errors_and_escaped_submissions():
    assert fail_ratio(100, 0, 0) == 0
    assert fail_ratio(200, 3, 1) == 0.02
    assert fail_ratio(5, 0, 5) == 1
    with pytest.raises(ValueError):
        fail_ratio(0, 0, 0)
    with pytest.raises(ValueError):
        fail_ratio(3, 2, 2)


def test_recorder_links_parents_within_a_thread_and_job_ids_across():
    recorder = SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)
    inner = recorder.wrap("inner", lambda: leaf())

    def pooled():
        thread = threading.Thread(target=leaf)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    outer = recorder.wrap("outer", lambda job: (inner(), pooled()), lambda job: (job, None))
    outer("j1")
    spans = {s.name: s for s in recorder.spans if s.name != "leaf"}
    leaves = [s for s in recorder.spans if s.name == "leaf"]
    assert spans["outer"].parent is None and spans["outer"].job_id == "j1"
    assert spans["inner"].parent == spans["outer"].id and spans["inner"].job_id == "j1"
    in_thread = [s for s in leaves if s.parent == spans["inner"].id]
    assert len(in_thread) == 1 and in_thread[0].job_id == "j1"
    (other_thread,) = [s for s in leaves if s.parent is None]
    assert other_thread.job_id is None


def _span(i, name, start, end, parent=None, job=None, **attrs):
    return Span(i, name, start, end, parent, job, attrs or None)


def test_layer_metrics_on_a_hand_built_trace():
    addr = "127.0.0.1:1"
    spans = [
        _span(1, "harness.run", 0, 100),
        _span(2, "client.submit_job", 10, 50, job="j"),
        _span(3, "wire.rpc_call", 11, 31, 2, "j", address="b", method="broker.find_cluster"),
        _span(4, "wire.handler", 12, 30, None, "j", address="b", method="broker.find_cluster"),
        _span(5, "broker.find_cluster", 13, 29, 4, "j"),
        # two parallel quotes from pool threads: no parent, tied by job_id
        _span(6, "wire.rpc_call", 14, 20, None, "j", address=addr, method="node.quote"),
        _span(7, "wire.rpc_call", 15, 25, None, "j", address="x", method="node.quote"),
        _span(8, "frontend.quote", 16, 18, None, "j", held=4, bid=True),
        _span(9, "frontend.quote", 17, 19, None, "j", held=0, bid=False),
        _span(10, "wire.rpc_call", 35, 45, 2, "j", address="n", method="node.submit"),
        _span(11, "frontend.submit", 36, 44, None, "j"),
        _span(12, "wire.rpc_call", 37, 41, 11, "j", address="k", method="bank.verify_escrow"),
        _span(13, "scheduler.tick", 60, 64, dt=2),
        _span(14, "bank.hold", 32, 33, job="j"),
        _span(15, "bank.audit", 20, 21),
        _span(16, "bank.audit", 70, 72),
        _span(17, "wire.encode", 80, 81),
        _span(18, "wire.decode", 81, 82),
        _span(19, "frontend.tick", 60, 65),
        _span(20, "bank.settle", 66, 67),
        _span(21, "bank.verify", 38, 39),
        _span(22, "domain.validate_jobspec", 5, 6, job="j"),
    ]
    m = layer_metrics(spans, accepted=1, threads_peak=7)
    assert m["broker.quotes_per_find"] == 2
    assert m["broker.fanout_self_us"] == pytest.approx((16 - 11) * 1e6)
    assert m["wire.rpc_overhead_p50_us"] == pytest.approx(2 * 1e6)
    assert m["frontend.submit_self_p50_us"] == pytest.approx(4 * 1e6)
    assert m["client.submit_self_us"] == pytest.approx((40 - 30) * 1e6)
    assert m["client.rpcs_per_submit"] == 2
    assert m["frontend.jobs_held_mean"] == 2
    assert m["broker.bid_ratio"] == 0.5
    assert m["frontend.quotes_used_ratio"] == 0.5
    assert m["scheduler.tick_us_per_vsec"] == pytest.approx(2 * 1e6)
    assert m["bank.escrows_at_audit"] == 0.5
    assert m["harness.advance_share"] == pytest.approx(0.6)
    assert m["broker.threads_peak"] == 7


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generated_scenarios_are_seeded_and_pass_their_check(workload):
    first = scenarios.generate(workload, 5)
    assert first == scenarios.generate(workload, 5)
    assert first != scenarios.generate(workload, 6)
    assert len(first["workload"]) >= 40


def test_drain_bound_covers_queueing_and_check_rejects_short_runs():
    clusters = [{"cluster_id": "a", "capacity_nodes": 2, "base_rate": 1}]
    job = {"nodes": 1, "walltime_s": 10, "command": "c", "workdir": "/w"}
    fits = [{"submit_at": 0, "user": "u0", "spec": job}] * 2
    assert scenarios.drain_end(clusters, fits) == 10
    queued = [{"submit_at": 0, "user": "u0", "spec": job}] * 3
    assert scenarios.drain_end(clusters, queued) == 0 + 15 + 10
    wide = {**job, "nodes": 2}
    mixed = queued + [{"submit_at": 1, "user": "u0", "spec": wide}]
    assert scenarios.drain_end(clusters, mixed) == 1 + 40
    scenario = {
        "clusters": clusters,
        "users": [{"account": "u0", "initial_deposit": 10**9}],
        "workload": queued,
        "duration_s": 24,
        "seed": 0,
    }
    with pytest.raises(scenarios.ScenarioCheckFailed, match="drain"):
        scenarios.check_scenario(scenario)
    needs_gpu = {**job, "required_features": ["gpu"]}
    scenario.update(duration_s=100, workload=[{"submit_at": 0, "user": "u0", "spec": needs_gpu}])
    with pytest.raises(scenarios.ScenarioCheckFailed, match="eligible"):
        scenarios.check_scenario(scenario)
