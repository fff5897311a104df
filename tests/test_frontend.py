"""Pricing, the simulated FIFO scheduler, and the quote/submit/settle flow."""

import math
import random
import threading
import time
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sgmarket import wire
from sgmarket.bank import BankCore, EscrowState
from sgmarket.domain import Bid, JobState, Money, ValidationError, validate_jobspec
from sgmarket.frontend import (
    AuthFailed,
    DuplicateJob,
    EscrowInvalid,
    FrontendCore,
    NoBid,
    PricingPolicy,
    QuoteExpired,
    SchedulerCore,
    UnknownJob,
    UnknownQuote,
)

from scheduler_oracle import simulate


def _spec(job_id="a" * 32, nodes=4, walltime_s=100, features=(), max_price=None,
          user="alice", secret="pw"):
    record = {
        "job_id": job_id,
        "user": user,
        "secret": secret,
        "nodes": nodes,
        "walltime_s": walltime_s,
        "required_features": list(features),
        "command": "run",
        "workdir": "/data",
    }
    if max_price is not None:
        record["max_price"] = max_price
    return validate_jobspec(record)


class FakeBank:
    """Stands in for the bank over RPC; records settlements."""

    def __init__(self, verify_ok=True):
        self.verify_ok = verify_ok
        self.verifications = []
        self.settlements = []

    def verify_escrow(self, escrow_id, payee, job_id, min_amount):
        self.verifications.append((escrow_id, payee, job_id, min_amount))
        return self.verify_ok

    def settle_escrow(self, escrow_id, job_id, outcome, reporter_secret):
        self.settlements.append((escrow_id, job_id, outcome, reporter_secret))
        return {"state": "RELEASED" if outcome == "COMPLETED" else "REFUNDED"}


class FlakyBank(FakeBank):
    """A FakeBank that answers each listed method's next calls with the
    given RpcErrors, in order, before it answers normally again."""

    def __init__(self, **failures):
        super().__init__()
        self.failures = {method: list(errors) for method, errors in failures.items()}
        self.settle_attempts = 0

    def _maybe_fail(self, method):
        errors = self.failures.get(method)
        if errors:
            raise errors.pop(0)

    def verify_escrow(self, *args, **kwargs):
        self._maybe_fail("verify_escrow")
        return super().verify_escrow(*args, **kwargs)

    def settle_escrow(self, *args, **kwargs):
        self.settle_attempts += 1
        self._maybe_fail("settle_escrow")
        return super().settle_escrow(*args, **kwargs)


def _timeout():
    return wire.RpcError(wire.RpcErrorCode.TIMEOUT, "timed out waiting for response")


def _core(bank=None, capacity=8, capabilities=("deadline",), multipliers=None,
          quote_ttl_s=60, horizon_s=3600, base_rate=1, users=None):
    policy = PricingPolicy(
        policy_id="load_proportional",
        base_rate=Money(base_rate),
        load_coefficient=Fraction(1),
        feature_multipliers=multipliers or {},
    )
    return FrontendCore(
        cluster_id="clusterA",
        capacity_nodes=capacity,
        capabilities=frozenset(capabilities),
        policy=policy,
        payee_account="cluster:clusterA",
        cluster_secret="cs-A",
        users=users or {"alice": "pw"},
        bank=bank if bank is not None else FakeBank(),
        quote_ttl_s=quote_ttl_s,
        horizon_s=horizon_s,
    )


# -- pricing -------------------------------------------------------------------

def test_idle_cluster_prices_base_cost():
    policy = PricingPolicy("load_proportional", Money(1))
    assert policy.price(4, 100, frozenset(), Fraction(0)) == 400


def test_half_loaded_cluster_prices_150_percent():
    policy = PricingPolicy("load_proportional", Money(1))
    assert policy.price(4, 100, frozenset(), Fraction(1, 2)) == 600


def test_feature_multiplier_applies():
    policy = PricingPolicy(
        "load_proportional", Money(1), feature_multipliers={"deadline": Fraction(5, 4)}
    )
    assert policy.price(2, 100, frozenset({"deadline"}), Fraction(0)) == 250


def test_flat_policy_ignores_load():
    policy = PricingPolicy("flat", Money(3))
    assert policy.price(2, 10, frozenset(), Fraction(9, 1)) == 60


def test_price_rounds_up_to_whole_millicredits():
    policy = PricingPolicy("load_proportional", Money(1))
    # 1 * 1 * (1 + 1/3) = 4/3 -> 2
    assert policy.price(1, 1, frozenset(), Fraction(1, 3)) == 2


def test_unsupported_feature_yields_no_bid():
    core = _core(capabilities=())
    outcome = core.quote(_spec(features=("deadline",)))
    assert outcome == NoBid("unsupported_feature")


def test_oversized_job_yields_no_bid():
    core = _core(capacity=4)
    assert core.quote(_spec(nodes=8)) == NoBid("insufficient_capacity")


def test_price_cap_yields_no_bid():
    core = _core()
    assert core.quote(_spec(max_price=399)) == NoBid("price_above_max")
    assert isinstance(core.quote(_spec(max_price=400)), Bid)


def test_quote_reflects_committed_load():
    bank = FakeBank()
    core = _core(bank=bank, capacity=8, horizon_s=3600)
    first = core.quote(_spec(job_id="a" * 32))
    assert first.price == Money(400)
    core.submit(_spec(job_id="a" * 32), first.bid_token, "esc-1")
    second = core.quote(_spec(job_id="b" * 32))
    # committed 4*100 node-seconds over 8*3600 -> ceil(400 * (1 + 400/28800))
    assert second.price == Money(406)


@given(
    base=st.integers(1, 1000),
    nodes=st.integers(1, 64),
    walltime=st.integers(1, 1000),
    bump=st.integers(1, 500),
    r1=st.fractions(min_value=0, max_value=20),
    r2=st.fractions(min_value=0, max_value=20),
)
def test_price_monotonicity(base, nodes, walltime, bump, r1, r2):
    lo, hi = sorted((r1, r2))
    policy = PricingPolicy("load_proportional", Money(base))
    features = frozenset()
    assert policy.price(nodes, walltime, features, lo) <= policy.price(
        nodes, walltime, features, hi
    )
    # strictly increasing in nodes*walltime at fixed load
    grown = policy.price(nodes, walltime + bump, features, lo)
    assert grown > policy.price(nodes, walltime, features, lo)


def _fraction_price(policy, nodes, walltime_s, features, load_ratio):
    """The price formula in Fraction arithmetic: the oracle for the integer
    implementation."""
    amount = Fraction(policy.base_rate.amount) * nodes * walltime_s
    if policy.policy_id == "load_proportional":
        amount *= 1 + policy.load_coefficient * load_ratio
    for feature in features:
        amount *= policy.feature_multipliers.get(feature, Fraction(1))
    return math.ceil(amount)


_ratios = st.tuples(st.integers(0, 20), st.integers(1, 20)).map(list)
_multipliers = st.integers(1, 9).flatmap(
    lambda q: st.tuples(st.integers(q, 5 * q), st.just(q)).map(list)
)


@given(
    policy_id=st.sampled_from(["flat", "load_proportional"]),
    base=st.integers(1, 10**6),
    coefficient=st.one_of(st.integers(0, 5), _ratios),
    multipliers=st.dictionaries(st.sampled_from(["gpu", "deadline"]), _multipliers),
    nodes=st.integers(1, 128),
    walltime=st.integers(1, 10**5),
    features=st.frozensets(st.sampled_from(["gpu", "deadline", "ssd"])),
    load=st.one_of(
        st.fractions(min_value=0, max_value=50),
        st.tuples(st.integers(0, 10**7), st.integers(1, 10**6)).map(
            lambda t: Fraction(*t)
        ),
    ),
)
def test_integer_price_equals_fraction_formula(
    policy_id, base, coefficient, multipliers, nodes, walltime, features, load
):
    policy = PricingPolicy.from_config(
        {
            "policy": policy_id,
            "base_rate": base,
            "load_coefficient": coefficient,
            "feature_multipliers": multipliers,
        }
    )
    assert policy.price(nodes, walltime, features, load) == _fraction_price(
        policy, nodes, walltime, features, load
    )


# -- scheduler ------------------------------------------------------------------

class _SteppingScheduler:
    """The per-second stepper that ``SchedulerCore.tick`` replaced: every
    virtual second, complete what is due in start order, then start the FIFO
    head while it fits. Kept as the reference for the event-driven tick."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.clock = 0
        self.queue = deque()
        self.running = []  # in start order
        self.jobs = {}  # job_id -> [nodes, walltime, end_time]

    def enqueue(self, job_id, nodes, walltime):
        self.jobs[job_id] = [nodes, walltime, None]
        self.queue.append(job_id)

    def tick(self, dt):
        events = []
        for _ in range(dt):
            self._complete_due(events)
            self._start_fifo(events)
            self.clock += 1
        self._complete_due(events)
        return events

    def _complete_due(self, events):
        for job_id in list(self.running):
            if self.jobs[job_id][2] <= self.clock:
                self.running.remove(job_id)
                events.append({"type": "COMPLETED", "job_id": job_id, "time": self.clock})

    def _start_fifo(self, events):
        used = sum(self.jobs[j][0] for j in self.running)
        while self.queue:
            nodes, walltime, _ = self.jobs[self.queue[0]]
            if nodes > self.capacity - used:
                break
            job_id = self.queue.popleft()
            self.jobs[job_id][2] = self.clock + walltime
            self.running.append(job_id)
            used += nodes
            events.append({"type": "STARTED", "job_id": job_id, "time": self.clock})


@st.composite
def _scheduler_script(draw):
    capacity = draw(st.integers(1, 8))
    step = st.one_of(
        # nodes up to capacity + 1: an oversized head blocks the queue forever
        st.tuples(st.just("enqueue"), st.integers(1, capacity + 1), st.integers(1, 8)),
        st.tuples(st.just("tick"), st.integers(0, 50)),
    )
    return capacity, draw(st.lists(step, max_size=40))


@given(_scheduler_script())
def test_event_driven_tick_matches_per_second_stepper(script):
    capacity, steps = script
    core = SchedulerCore(capacity)
    reference = _SteppingScheduler(capacity)
    for i, step in enumerate(steps):
        if step[0] == "enqueue":
            _, nodes, walltime = step
            core.enqueue(f"job{i}", nodes, walltime)
            reference.enqueue(f"job{i}", nodes, walltime)
        else:
            assert core.tick(step[1]) == reference.tick(step[1])
            assert core.clock == reference.clock
        assert len(core.running) == len(reference.running)
        assert len(core.queue) == len(reference.queue)
        assert core.recount() == (core.used_nodes(), core.committed_node_seconds())


def test_idle_tick_over_a_million_seconds_is_cheap():
    core = SchedulerCore(8)
    started = time.perf_counter()
    assert core.tick(10**6) == []
    elapsed = time.perf_counter() - started
    assert core.clock == 10**6
    assert elapsed < 0.05


def test_zero_walltime_rejected():
    with pytest.raises(ValidationError):
        SchedulerCore(2).enqueue("j", 1, 0)


def test_scheduler_worked_example():
    core = SchedulerCore(8)
    core.enqueue("j1", 4, 10)
    core.enqueue("j2", 4, 20)
    core.enqueue("j3", 8, 5)
    events = core.tick(25)
    assert events == [
        {"type": "STARTED", "job_id": "j1", "time": 0},
        {"type": "STARTED", "job_id": "j2", "time": 0},
        {"type": "COMPLETED", "job_id": "j1", "time": 10},
        {"type": "COMPLETED", "job_id": "j2", "time": 20},
        {"type": "STARTED", "job_id": "j3", "time": 20},
        {"type": "COMPLETED", "job_id": "j3", "time": 25},
    ]
    status = core.status("j3")
    assert status.state is JobState.COMPLETED
    assert (status.started_at, status.finished_at) == (20, 25)


def test_empty_queue_ticks_quietly():
    core = SchedulerCore(8)
    assert core.tick(100) == []
    assert core.clock == 100


def test_job_filling_capacity_starts_immediately():
    core = SchedulerCore(8)
    core.enqueue("big", 8, 7)
    events = core.tick(8)
    assert events[0] == {"type": "STARTED", "job_id": "big", "time": 0}
    assert events[-1] == {"type": "COMPLETED", "job_id": "big", "time": 7}


def test_head_of_line_blocks_smaller_followers():
    core = SchedulerCore(8)
    core.enqueue("wide", 8, 10)
    core.enqueue("blockhead", 6, 5)
    core.enqueue("tiny", 1, 1)
    core.tick(3)
    # wide runs; blockhead does not fit; tiny must not jump the queue
    assert core.status("tiny").state is JobState.QUEUED
    assert core.status("blockhead").state is JobState.QUEUED


def test_unknown_job_status():
    core = SchedulerCore(2)
    with pytest.raises(UnknownJob):
        core.status("nope")


def test_duplicate_enqueue_rejected():
    core = SchedulerCore(2)
    core.enqueue("dup", 1, 1)
    with pytest.raises(DuplicateJob):
        core.enqueue("dup", 1, 1)


def _drive_and_compare(seed: int) -> None:
    rng = random.Random(seed)
    capacity = rng.randint(1, 16)
    jobs = []
    t = 0
    for i in range(rng.randint(1, 30)):
        t += rng.randint(0, 5)
        jobs.append((f"job{i}", rng.randint(1, capacity), rng.randint(1, 50), t))

    expected = simulate(capacity, jobs)

    core = SchedulerCore(capacity)
    horizon = max(s for *_, s in jobs) + sum(w for _, _, w, _ in jobs) + 1
    pending = list(jobs)
    for now in range(horizon):
        while pending and pending[0][3] == now:
            job_id, nodes, walltime, _ = pending.pop(0)
            core.enqueue(job_id, nodes, walltime)
        core.tick(1)

    assert not pending
    actual = {
        job_id: (record.started_at, record.finished_at)
        for job_id, record in core.jobs.items()
    }
    assert actual == expected


@pytest.mark.parametrize("seed", range(25))
def test_scheduler_matches_event_list_oracle(seed):
    _drive_and_compare(seed)


# -- submission gating ------------------------------------------------------------

def test_submit_happy_path_consumes_token():
    bank = FakeBank()
    core = _core(bank=bank)
    bid = core.quote(_spec())
    status = core.submit(_spec(), bid.bid_token, "esc-7")
    assert status.state is JobState.QUEUED
    assert bank.verifications == [("esc-7", "cluster:clusterA", "a" * 32, 400)]
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), bid.bid_token, "esc-7")


def test_submit_expired_quote_rejected_and_refunded():
    bank = FakeBank()
    core = _core(bank=bank, quote_ttl_s=5)
    bid = core.quote(_spec())
    core.tick(5)
    with pytest.raises(QuoteExpired):
        core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_submit_in_the_linger_window_gets_quote_expired():
    core = _core(quote_ttl_s=5)
    bid = core.quote(_spec())
    core.tick(9)  # expired at 5; lingers until 10
    with pytest.raises(QuoteExpired):
        core.submit(_spec(), bid.bid_token, "esc-7")
    core.tick(1)
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), bid.bid_token, "esc-7")


def test_consumed_quote_leaves_the_book():
    core = _core(quote_ttl_s=5)
    bid = core.quote(_spec(walltime_s=3))
    core.submit(_spec(walltime_s=3), bid.bid_token, "esc-7")
    # The job finishes while its quote is still unexpired; the job record
    # alone keeps the token from being spent twice.
    core.tick(4)
    assert core.status("a" * 32).state is JobState.COMPLETED
    with pytest.raises(UnknownQuote):
        core.submit(_spec(walltime_s=3), bid.bid_token, "esc-8")


def test_quote_book_is_empty_two_ttls_later():
    bank = FakeBank()
    core = _core(bank=bank, quote_ttl_s=60)
    specs = [_spec(job_id=f"{i:032x}", nodes=1, walltime_s=1) for i in range(1000)]
    tokens = [core.quote(spec).bid_token for spec in specs]
    core.tick(119)
    for spec, token in zip(specs, tokens):
        with pytest.raises(QuoteExpired):
            core.submit(spec, token, "")
    core.tick(1)
    for spec, token in zip(specs, tokens):
        with pytest.raises(UnknownQuote):
            core.submit(spec, token, "")
    assert core.scheduler.jobs == {}


def test_ten_thousand_quotes_leave_no_state_behind():
    core = _core()
    specs = [_spec(job_id=f"{i:032x}", nodes=1, walltime_s=1) for i in range(10_000)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for spec in specs:
            core.quote(spec)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def _retoken(token, index, field):
    parts = token.split(".")
    parts[index] = field(parts[index])
    return ".".join(parts)


@pytest.mark.parametrize(
    "forge",
    [
        lambda token: "clusterA-q999999",
        lambda token: _retoken(token, 2, lambda price: str(int(price) + 1)),
        lambda token: _retoken(token, 1, lambda expires: str(int(expires) + 1)),
        lambda token: _retoken(token, 0, lambda seq: str(int(seq) + 1)),
        lambda token: token[:-1],
        lambda token: _retoken(token, 0, lambda seq: "0" + seq),
        lambda token: _retoken(token, 1, lambda expires: "9" * 5000),
        lambda token: _core().quote(_spec()).bid_token,
        lambda token: token[:-1] + "é",
    ],
    ids=[
        "made-up",
        "price",
        "expires_at",
        "seq",
        "mac-truncated",
        "leading-zero",
        "5000-digits",
        "other-frontend",
        "non-ascii",
    ],
)
def test_submit_with_unknown_token_rejected(forge):
    bank = FakeBank()
    core = _core(bank=bank)
    bid = core.quote(_spec())
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), forge(bid.bid_token), "esc-7")
    assert core.scheduler.jobs == {}
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_submit_token_for_other_job_rejected():
    core = _core()
    bid = core.quote(_spec(job_id="a" * 32))
    with pytest.raises(UnknownQuote):
        core.submit(_spec(job_id="b" * 32), bid.bid_token, "esc-7")


def test_submit_bad_escrow_rejected():
    bank = FakeBank(verify_ok=False)
    core = _core(bank=bank)
    bid = core.quote(_spec())
    with pytest.raises(EscrowInvalid):
        core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_submit_bad_credentials_rejected():
    bank = FakeBank()
    core = _core(bank=bank)
    bid = core.quote(_spec(secret="wrong"))
    with pytest.raises(AuthFailed):
        core.submit(_spec(secret="wrong"), bid.bid_token, "esc-7")
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_non_ascii_secret_authenticates():
    core = _core(users={"zoë": "pässwörd-密"})
    for job_id, user, secret in (
        ("b" * 32, "zoë", "passwörd-密"),
        ("c" * 32, "nobody", "pässwörd-密"),
    ):
        spec = _spec(job_id=job_id, user=user, secret=secret)
        with pytest.raises(AuthFailed):
            core.submit(spec, core.quote(spec).bid_token, "esc-8")
    spec = _spec(user="zoë", secret="pässwörd-密")
    assert core.submit(spec, core.quote(spec).bid_token, "esc-7").state is JobState.QUEUED


def test_stranger_cannot_void_a_running_jobs_escrow():
    bank = BankCore(cluster_secrets={"clusterA": "cs-A"})
    alice = bank.create_account("alice", "USER")
    cluster = bank.create_account("clusterA", "CLUSTER")
    bank.deposit(alice, 10000)
    core = _core(bank=bank)
    spec = _spec(walltime_s=3)
    bid = core.quote(spec)
    escrow_id = bank.hold_escrow(alice, cluster, bid.price.amount, spec.job_id)
    core.submit(spec, bid.bid_token, escrow_id)
    core.tick(1)
    assert core.status(spec.job_id).state is JobState.RUNNING
    # Escrow ids are sequential, so a stranger can guess this one.
    stranger = _spec(job_id="b" * 32, user="mallory", secret="bogus")
    with pytest.raises(UnknownQuote):
        core.submit(stranger, "clusterA-q999999", escrow_id)
    assert bank.get_escrow(escrow_id).state is EscrowState.HELD
    core.tick(10)
    assert core.status(spec.job_id).state is JobState.COMPLETED
    assert bank.balance(cluster) == bid.price.amount == 12
    assert bank.balance(alice) == 10000 - 12


def test_quote_binds_the_jobs_terms():
    """A cheap quote cannot be stretched over a bigger job: the submitted
    spec must ask for the nodes, walltime and features that were priced."""
    bank = BankCore(cluster_secrets={"clusterA": "cs-A"})
    alice = bank.create_account("alice", "USER")
    cluster = bank.create_account("clusterA", "CLUSTER")
    bank.deposit(alice, 10000)
    core = _core(bank=bank, capacity=8)
    bid = core.quote(_spec(nodes=1, walltime_s=1))
    escrow_id = bank.hold_escrow(alice, cluster, bid.price.amount, "a" * 32)
    with pytest.raises(UnknownQuote):
        core.submit(_spec(nodes=64, walltime_s=3600), bid.bid_token, escrow_id)
    assert core.scheduler.jobs == {}
    assert bank.get_escrow(escrow_id).state is EscrowState.REFUNDED
    assert bank.balance(alice) == 10000
    # Nothing blocks the FIFO head, so a later small job runs.
    later = _spec(job_id="b" * 32, nodes=1, walltime_s=1)
    later_bid = core.quote(later)
    later_escrow = bank.hold_escrow(alice, cluster, later_bid.price.amount, later.job_id)
    core.submit(later, later_bid.bid_token, later_escrow)
    core.tick(100)
    assert core.status(later.job_id).state is JobState.COMPLETED


@pytest.mark.parametrize(
    "changed",
    [{"nodes": 8}, {"walltime_s": 101}, {"features": ("deadline",)}],
    ids=["nodes", "walltime", "features"],
)
def test_submit_with_other_terms_than_quoted_rejected(changed):
    bank = FakeBank()
    core = _core(bank=bank)
    bid = core.quote(_spec())
    with pytest.raises(UnknownQuote):
        core.submit(_spec(**changed), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert bank.verifications == []
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]
    # The quote is still good for the terms it priced.
    assert core.submit(_spec(), bid.bid_token, "esc-8").state is JobState.QUEUED


def test_token_single_use_under_race():
    bank = FakeBank()
    core = _core(bank=bank)
    bid = core.quote(_spec())
    barrier = threading.Barrier(2)
    outcomes = []

    def attempt():
        barrier.wait()
        try:
            core.submit(_spec(), bid.bid_token, "esc-7")
            outcomes.append("ok")
        except (UnknownQuote, DuplicateJob):
            outcomes.append("rejected")

    threads = [threading.Thread(target=attempt) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(outcomes) == ["ok", "rejected"]
    # The accepted job's escrow must not have been refunded by the loser.
    assert bank.settlements == []


def test_completion_settles_exactly_once():
    bank = FakeBank()
    core = _core(bank=bank)
    bid = core.quote(_spec(walltime_s=3))
    core.submit(_spec(walltime_s=3), bid.bid_token, "esc-9")
    core.tick(10)
    assert bank.settlements == [("esc-9", "a" * 32, "COMPLETED", "cs-A")]
    core.tick(10)
    assert bank.settlements == [("esc-9", "a" * 32, "COMPLETED", "cs-A")]
    assert core.status("a" * 32).state is JobState.COMPLETED


def test_refund_that_times_out_is_retried_on_the_next_tick():
    bank = FlakyBank(settle_escrow=[_timeout()])
    core = _core(bank=bank)
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), "1.60.400.forged", "esc-7")
    assert bank.settle_attempts == 1 and bank.settlements == []
    core.tick(1)
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]
    core.tick(1)
    assert bank.settle_attempts == 2


def test_escrow_check_timeout_is_a_named_rejection_and_refunded():
    bank = FlakyBank(verify_escrow=[_timeout()], settle_escrow=[_timeout()])
    core = _core(bank=bank)
    bid = core.quote(_spec())
    with pytest.raises(EscrowInvalid):
        core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert bank.settlements == []  # the bank is still down
    core.tick(1)
    assert bank.settlements == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_settlement_the_bank_refuses_is_sent_once():
    refusal = wire.RpcError(
        wire.RpcErrorCode.INVALID_PARAMS, "InvalidParams: reporter_secret must be a string"
    )
    bank = FlakyBank(settle_escrow=[refusal])
    core = _core(bank=bank)
    spec = _spec(walltime_s=3)
    core.submit(spec, core.quote(spec).bid_token, "esc-9")
    core.tick(10)
    assert bank.settle_attempts == 1
    core.tick(10)
    core.tick(10)
    assert bank.settle_attempts == 1
    assert core._pending_settlements == []


def test_capacity_never_exceeded_randomized():
    rng = random.Random(42)
    bank = FakeBank()
    core = _core(bank=bank, capacity=8)
    for i in range(40):
        job_id = f"{i:032x}"
        spec = _spec(job_id=job_id, nodes=rng.randint(1, 8), walltime_s=rng.randint(1, 9))
        bid = core.quote(spec)
        core.submit(spec, bid.bid_token, f"esc-{i}")
        core.tick(rng.randint(0, 3))  # asserts capacity inside every step
    core.tick(400)
    assert all(
        record.state is JobState.COMPLETED for record in core.scheduler.jobs.values()
    )
