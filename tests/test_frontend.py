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
from sgmarket.bank import BankCore, EscrowState, rpc_handlers as bank_handlers
from sgmarket.domain import (
    Bid,
    ClusterDescriptor,
    ValidationError,
    price_at,
    validate_jobspec,
)
from sgmarket.frontend import (
    DuplicateJob,
    EscrowInvalid,
    FrontendCore,
    HORIZON_S,
    QUOTE_TTL_S,
    QuoteExpired,
    SchedulerCore,
    UnknownJob,
    UnknownQuote,
    load_factor,
    parse_load_coefficient,
    rpc_handlers,
)

from local_network import LocalNetwork
from scheduler_oracle import simulate

BANK = "127.0.0.1:1"  # the bank's address on the test network


def _spec(job_id="a" * 32, nodes=4, walltime_s=100, features=(), max_price=None):
    record = {
        "job_id": job_id,
        "nodes": nodes,
        "walltime_s": walltime_s,
        "required_features": list(features),
        "command": "run",
        "workdir": "/data",
    }
    if max_price is not None:
        record["max_price"] = max_price
    return validate_jobspec(record)


def _bank(verify_ok=True):
    """Handlers of a bank that finds every escrow ``verify_ok`` and takes every settlement."""
    return {"bank.verify_escrow": lambda p: {"ok": verify_ok}, "bank.settle_escrow": lambda p: {}}


@pytest.fixture()
def network():
    with LocalNetwork({BANK: _bank()}) as network:
        yield network


def _settlements(network):
    """Every settlement sent to the bank, answered or not, in order."""
    fields = ("escrow_id", "job_id", "outcome", "reporter_secret")
    return [tuple(p[f] for f in fields) for p in network.sent("bank.settle_escrow")]


def _timeout():
    return wire.RpcError(wire.RpcErrorCode.TIMEOUT, "timed out waiting for response")


def _card(capacity=8, capabilities=("deadline",), base_rate=1, multipliers=None,
          cluster_id="clusterA"):
    """A front-end's descriptor, less its address: its identity and rate card."""
    return ClusterDescriptor(
        cluster_id=cluster_id,
        address="127.0.0.1:1",
        capacity_nodes=capacity,
        capabilities=frozenset(capabilities),
        base_rate=base_rate,
        payee_account=f"cluster:{cluster_id}",
        feature_multipliers=multipliers or {},
    )


def _config_card(base, multipliers):
    """A rate card as a front-end's config gives it, parsed as the broker
    parses a registration."""
    return ClusterDescriptor.from_dict(
        {
            "cluster_id": "clusterA",
            "address": "127.0.0.1:1",
            "capacity_nodes": 128,
            "capabilities": ["deadline", "gpu"],
            "base_rate": base,
            "payee_account": "cluster:clusterA",
            "feature_multipliers": multipliers,
        }
    )


def _core(capacity=8, capabilities=("deadline",), multipliers=None,
          base_rate=1, cluster_secret="cs-A"):
    return FrontendCore(
        card=_card(capacity, capabilities, base_rate, multipliers),
        cluster_secret=cluster_secret,
        bank=BANK,
    )


# -- pricing -------------------------------------------------------------------

def _price(card, coefficient, nodes, walltime_s, features, load_ratio):
    """What a front-end with this load coefficient charges under ``card``
    for a job of these terms."""
    spec = _spec(nodes=nodes, walltime_s=walltime_s, features=sorted(features))
    return price_at(card.cost(spec), load_factor(coefficient, load_ratio))


def test_idle_cluster_prices_base_cost():
    assert _price(_card(), Fraction(1), 4, 100, (), Fraction(0)) == 400


def test_half_loaded_cluster_prices_150_percent():
    assert _price(_card(), Fraction(1), 4, 100, (), Fraction(1, 2)) == 600


def test_feature_multiplier_applies():
    card = _card(multipliers={"deadline": Fraction(5, 4)})
    assert _price(card, Fraction(1), 2, 100, {"deadline"}, Fraction(0)) == 250


def test_flat_policy_ignores_load():
    """A load coefficient of 0 prices flat."""
    card = _card(base_rate=3)
    assert _price(card, Fraction(0), 2, 10, (), Fraction(9, 1)) == 60


def test_price_rounds_up_to_whole_millicredits():
    # 1 * 1 * (1 + 1/3) = 4/3 -> 2
    assert _price(_card(), Fraction(1), 1, 1, (), Fraction(1, 3)) == 2


def test_unsupported_feature_yields_no_bid():
    core = _core(capabilities=())
    outcome = core.quote(_spec(features=("deadline",)))
    assert outcome == "unsupported_feature"


def test_oversized_job_yields_no_bid():
    core = _core(capacity=4)
    assert core.quote(_spec(nodes=8)) == "insufficient_capacity"


def test_price_cap_yields_no_bid():
    core = _core()
    assert core.quote(_spec(max_price=399)) == "price_above_max"
    assert isinstance(core.quote(_spec(max_price=400)), Bid)


def test_quote_reflects_committed_load(network):
    core = _core(capacity=8)
    first = core.quote(_spec(job_id="a" * 32))
    assert first.price == 400
    core.submit(_spec(job_id="a" * 32), first.bid_token, "esc-1")
    second = core.quote(_spec(job_id="b" * 32))
    # committed 4*100 node-seconds over 8*3600 -> ceil(400 * (1 + 400/28800))
    assert second.price == 406


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
    card, coefficient = _card(base_rate=base), Fraction(1)
    features = frozenset()
    assert _price(card, coefficient, nodes, walltime, features, lo) <= _price(
        card, coefficient, nodes, walltime, features, hi
    )
    # strictly increasing in nodes*walltime at fixed load
    grown = _price(card, coefficient, nodes, walltime + bump, features, lo)
    assert grown > _price(card, coefficient, nodes, walltime, features, lo)


def _fraction_price(card, coefficient, nodes, walltime_s, features, load_ratio):
    """The price formula in Fraction arithmetic: the oracle for the integer
    implementation."""
    amount = Fraction(card.base_rate) * nodes * walltime_s
    amount *= 1 + coefficient * load_ratio
    for feature in features:
        amount *= card.feature_multipliers.get(feature, Fraction(1))
    return math.ceil(amount)


_ratios = st.tuples(st.integers(0, 20), st.integers(1, 20)).map(list)
_multipliers = st.integers(1, 9).flatmap(
    lambda q: st.tuples(st.integers(q, 5 * q), st.just(q)).map(list)
)


@given(
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
    base, coefficient, multipliers, nodes, walltime, features, load
):
    card = _config_card(base, multipliers)
    coefficient = parse_load_coefficient(coefficient)
    assert _price(card, coefficient, nodes, walltime, features, load) == _fraction_price(
        card, coefficient, nodes, walltime, features, load
    )


@given(
    base=st.integers(1, 10**6),
    coefficient=st.one_of(st.integers(0, 5), _ratios),
    multipliers=st.dictionaries(st.sampled_from(["gpu", "deadline"]), _multipliers),
    nodes=st.integers(1, 128),
    walltime=st.integers(1, 10**5),
    features=st.frozensets(st.sampled_from(["gpu", "deadline", "ssd"])),
    load=st.fractions(min_value=0, max_value=50),
)
def test_price_never_falls_below_the_base_rate_floor(
    base, coefficient, multipliers, nodes, walltime, features, load
):
    """The broker skips clusters whose floor cannot beat the best bid."""
    card = _config_card(base, multipliers)
    coefficient = parse_load_coefficient(coefficient)
    assert _price(card, coefficient, nodes, walltime, features, load) >= base * nodes * walltime


@given(
    base=st.integers(1, 10**6),
    coefficient=st.one_of(st.integers(0, 5), _ratios),
    multipliers=st.dictionaries(st.sampled_from(["gpu", "deadline"]), _multipliers),
    nodes=st.integers(1, 128),
    walltime=st.integers(1, 10**5),
    features=st.frozensets(st.sampled_from(["gpu", "deadline"])),
    load=st.fractions(min_value=0, max_value=50),
)
def test_price_never_falls_below_the_published_rate_card_floor(
    base, coefficient, multipliers, nodes, walltime, features, load
):
    """The floor the broker computes from a front-end's descriptor bounds
    every price it quotes, and is the price at zero load."""
    card = _config_card(base, multipliers)
    coefficient = parse_load_coefficient(coefficient)
    core = FrontendCore(
        card=card, cluster_secret="cs-A", bank=BANK, load_coefficient=coefficient
    )
    num, den = core.descriptor("127.0.0.1:7710").cost(
        _spec(nodes=nodes, walltime_s=walltime, features=features)
    )
    floor = -(-num // den)
    assert _price(card, coefficient, nodes, walltime, features, load) >= floor
    assert _price(card, coefficient, nodes, walltime, features, Fraction(0)) == floor


def test_descriptor_publishes_the_cards_multipliers():
    core = _core(capabilities=("deadline", "gpu"), multipliers={"gpu": Fraction(3, 2)})
    assert core.descriptor("127.0.0.1:7710").to_dict()["feature_multipliers"] == {
        "gpu": [3, 2]
    }
    assert "feature_multipliers" not in _core().descriptor("127.0.0.1:7710").to_dict()


@pytest.mark.parametrize("value", [True, 1.5, [1, 0], [-1, 2], -1, "1"])
def test_load_coefficient_must_be_a_non_negative_integer_or_ratio(value):
    with pytest.raises(ValidationError) as err:
        parse_load_coefficient(value)
    assert err.value.field == "load_coefficient"


def test_a_negative_load_coefficient_is_refused():
    """It would price below the floor the broker bounds the cluster by."""
    with pytest.raises(ValidationError) as err:
        FrontendCore(card=_card(), cluster_secret="cs-A", bank=BANK,
                     load_coefficient=Fraction(-1, 2))
    assert err.value.field == "load_coefficient"


@pytest.mark.parametrize(
    "field, value",
    [
        ("cluster_secret", ""),
        ("cluster_secret", None),
        ("cluster_secret", 5),
    ],
)
def test_secrets_must_be_non_empty_strings(field, value):
    """A bad cluster secret makes the bank refuse every settlement."""
    with pytest.raises(ValidationError) as err:
        _core(**{field: value})
    assert err.value.field.startswith(field)


def test_capacity_must_be_a_positive_integer():
    for value in ("8", 8.0, True, 0):
        with pytest.raises(ValidationError) as err:
            _core(capacity=value)
        assert err.value.field == "capacity_nodes"


_jobs = st.tuples(st.integers(1, 8), st.integers(1, 100), st.frozensets(st.sampled_from(["gpu"])))


@given(
    coefficient=st.just(Fraction(0))
    | st.fractions(min_value=0, max_value=6, max_denominator=4),
    capacity=st.integers(1, 8),
    horizon_s=st.integers(1, 300),
    steps=st.lists(
        st.tuples(st.just("enqueue"), st.integers(1, 9), st.integers(1, 60))
        | st.tuples(st.just("tick"), st.integers(0, 30)),
        max_size=20,
    ),
    quoted=_jobs,
    later=st.lists(st.tuples(st.integers(0, 30), _jobs), min_size=1, max_size=6),
)
def test_a_bids_load_report_bounds_its_later_prices(
    coefficient, capacity, horizon_s, steps, quoted, later
):
    """A bid's ``load`` reproduces its price from the rate card, and with
    its ``drain`` bounds every later price, for any job, while no new work
    arrives: ``price >= ceil(cost * (load - drain * elapsed))``. Load is
    drawn as ``coefficient`` over a ``horizon_s`` of whole-cluster work."""
    card = _card(capacity, {"gpu"}, 3, {"gpu": Fraction(5, 2)}, cluster_id="A")
    core = FrontendCore(
        card=card, cluster_secret="cs-A", bank=BANK,
        load_coefficient=coefficient * HORIZON_S / horizon_s,
    )
    for index, step in enumerate(steps):
        if step[0] == "enqueue":
            # nodes up to capacity + 1: a head that never fits stays held
            core.scheduler.enqueue(f"{index:032x}", min(step[1], capacity + 1), step[2])
        else:
            core.tick(step[1])
    descriptor = core.descriptor("127.0.0.1:7710")

    def cost_and_bid(job, job_id):
        nodes, walltime_s, features = job
        spec = _spec(job_id=job_id, nodes=min(nodes, capacity), walltime_s=walltime_s,
                     features=sorted(features))
        bid = core.quote(spec)
        assert isinstance(bid, Bid)
        return descriptor.cost(spec), bid

    (num, den), bid = cost_and_bid(quoted, "e" * 32)
    (load_p, load_q), (drain_p, drain_q) = bid.load, bid.drain
    assert bid.price == -(-num * load_p // (den * load_q))
    if coefficient == 0:
        assert "load" not in bid.to_dict() and "drain" not in bid.to_dict()
    elapsed = 0
    for index, (dt, job) in enumerate(later):
        core.tick(dt)
        elapsed += dt
        (num, den), later_bid = cost_and_bid(job, f"{index:032x}")
        factor = load_p * drain_q - drain_p * elapsed * load_q
        assert later_bid.price >= -(-num * factor // (den * load_q * drain_q))


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
            assert core.status(f"job{i}")["state"] == "QUEUED"
            reference.enqueue(f"job{i}", nodes, walltime)
        else:
            assert core.tick(step[1]) == reference.tick(step[1])
            assert core.clock == reference.clock
        assert len(core.running) == len(reference.running)
        assert len(core.queue) == len(reference.queue)
        assert core.recount() == (core.used_nodes(), core.committed_node_seconds())
        for job_id in reference.jobs:
            expected = (
                "QUEUED" if job_id in reference.queue
                else "RUNNING" if job_id in reference.running
                else "COMPLETED"
            )
            assert core.status(job_id)["state"] == expected


def test_idle_tick_over_a_million_seconds_is_cheap():
    core = SchedulerCore(8)
    started = time.perf_counter()
    assert core.tick(10**6) == []
    elapsed = time.perf_counter() - started
    assert core.clock == 10**6
    assert elapsed < 0.05


def test_enqueuing_twenty_thousand_jobs_at_once_is_cheap():
    """Each end is walked once in all, so a burst of arrivals costs no more
    than a list insert each, however many reservations are outstanding."""
    core = SchedulerCore(20_000)
    started = time.perf_counter()
    for index in range(20_000):
        core.enqueue(f"job{index}", 1, 10)
    assert time.perf_counter() - started < 2.0
    assert core.status("job19999")["state"] == "QUEUED"


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
    assert status["state"] == "COMPLETED"
    assert (status["started_at"], status["finished_at"]) == (20, 25)


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
    assert core.status("tiny")["state"] == "QUEUED"
    assert core.status("blockhead")["state"] == "QUEUED"


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
        job_id: (core.status(job_id).get("started_at"), core.status(job_id).get("finished_at"))
        for job_id in core.jobs
    }
    assert actual == expected


@pytest.mark.parametrize("seed", range(25))
def test_scheduler_matches_event_list_oracle(seed):
    _drive_and_compare(seed)


# -- submission gating ------------------------------------------------------------

def test_submit_happy_path_consumes_token(network):
    core = _core()
    bid = core.quote(_spec())
    core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.status("a" * 32)["state"] == "QUEUED"
    assert network.sent("bank.verify_escrow") == [
        {"escrow_id": "esc-7", "payee": "cluster:clusterA", "job_id": "a" * 32, "min_amount": 400}
    ]
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), bid.bid_token, "esc-7")


def test_submit_answers_an_empty_object(network):
    """An accepted job is always queued when it is answered, and the client
    reads nothing back, so ``node.submit`` answers ``{}``; ``node.status``
    tells the job's state, in bytes pinned here for each state."""
    core = _core()
    node = "127.0.0.1:7710"
    network.hosts[node] = rpc_handlers(core)
    spec = _spec()
    params = {"spec": spec.to_dict(), "bid_token": core.quote(spec).bid_token,
              "escrow_id": "esc-7"}
    assert wire.rpc_call(node, "node.submit", params, timeout_ms=2000) == {}
    status = wire.rpc_call(node, "node.status", {"job_id": spec.job_id}, timeout_ms=2000)
    assert status == {"status": {"state": "QUEUED", "submitted_at": 0}}

    request = wire.encode_message(
        {"id": "1", "method": "node.status", "params": {"job_id": spec.job_id}}
    )

    def status_bytes():
        return wire.encode_message(wire.handle_line(rpc_handlers(core), request))

    core.tick(1)
    assert status_bytes() == (
        b'{"id":"1","result":{"status":'
        b'{"started_at":0,"state":"RUNNING","submitted_at":0}}}\n'
    )
    core.tick(100)
    assert status_bytes() == (
        b'{"id":"1","result":{"status":{"exit_code":0,"finished_at":100,'
        b'"started_at":0,"state":"COMPLETED","submitted_at":0}}}\n'
    )


def test_submit_expired_quote_rejected_and_refunded(network):
    core = _core()
    bid = core.quote(_spec())
    core.tick(QUOTE_TTL_S)
    with pytest.raises(QuoteExpired):
        core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert _settlements(network) == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_submit_in_the_linger_window_gets_quote_expired(network):
    core = _core()
    bid = core.quote(_spec())
    core.tick(2 * QUOTE_TTL_S - 1)  # expired at QUOTE_TTL_S; lingers one ttl more
    with pytest.raises(QuoteExpired):
        core.submit(_spec(), bid.bid_token, "esc-7")
    core.tick(2 * QUOTE_TTL_S)
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), bid.bid_token, "esc-7")


def test_consumed_quote_leaves_the_book(network):
    core = _core()
    bid = core.quote(_spec(walltime_s=3))
    core.submit(_spec(walltime_s=3), bid.bid_token, "esc-7")
    # The job finishes while its quote is still unexpired; the job record
    # alone keeps the token from being spent twice.
    core.tick(4)
    assert core.status("a" * 32)["state"] == "COMPLETED"
    with pytest.raises(UnknownQuote):
        core.submit(_spec(walltime_s=3), bid.bid_token, "esc-8")


def test_quote_book_is_empty_two_ttls_later(network):
    core = _core()
    specs = [_spec(job_id=f"{i:032x}", nodes=1, walltime_s=1) for i in range(1000)]
    tokens = [core.quote(spec).bid_token for spec in specs]
    core.tick(2 * QUOTE_TTL_S - 1)
    for spec, token in zip(specs, tokens):
        with pytest.raises(QuoteExpired):
            core.submit(spec, token, "")
    core.tick(2 * QUOTE_TTL_S)
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
def test_submit_with_unknown_token_rejected(network, forge):
    core = _core()
    bid = core.quote(_spec())
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), forge(bid.bid_token), "esc-7")
    assert core.scheduler.jobs == {}
    assert _settlements(network) == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_submit_token_for_other_job_rejected(network):
    core = _core()
    bid = core.quote(_spec(job_id="a" * 32))
    with pytest.raises(UnknownQuote):
        core.submit(_spec(job_id="b" * 32), bid.bid_token, "esc-7")


def test_submit_bad_escrow_rejected(network):
    network.hosts[BANK] = _bank(verify_ok=False)
    core = _core()
    bid = core.quote(_spec())
    with pytest.raises(EscrowInvalid):
        core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert _settlements(network) == [("esc-7", "a" * 32, "FAILED", "cs-A")]


def test_stranger_cannot_void_a_running_jobs_escrow(network):
    bank = BankCore(cluster_secrets={"clusterA": "cs-A"})
    network.hosts[BANK] = bank_handlers(bank)
    alice = bank.create_account("alice", "USER")
    cluster = bank.create_account("clusterA", "CLUSTER")
    bank.deposit(alice, 10000)
    core = _core()
    spec = _spec(walltime_s=3)
    bid = core.quote(spec)
    escrow_id = bank.hold_escrow(alice, cluster, bid.price, spec.job_id)
    core.submit(spec, bid.bid_token, escrow_id)
    core.tick(1)
    assert core.status(spec.job_id)["state"] == "RUNNING"
    # Escrow ids are sequential, so a stranger can guess this one.
    stranger = _spec(job_id="b" * 32)
    with pytest.raises(UnknownQuote):
        core.submit(stranger, "clusterA-q999999", escrow_id)
    assert bank.get_escrow(escrow_id).state is EscrowState.HELD
    core.tick(11)
    assert core.status(spec.job_id)["state"] == "COMPLETED"
    assert bank.balance(cluster) == bid.price == 12
    assert bank.balance(alice) == 10000 - 12


def test_quote_binds_the_jobs_terms(network):
    """A cheap quote cannot be stretched over a bigger job: the submitted
    spec must ask for the nodes, walltime and features that were priced."""
    bank = BankCore(cluster_secrets={"clusterA": "cs-A"})
    network.hosts[BANK] = bank_handlers(bank)
    alice = bank.create_account("alice", "USER")
    cluster = bank.create_account("clusterA", "CLUSTER")
    bank.deposit(alice, 10000)
    core = _core(capacity=8)
    bid = core.quote(_spec(nodes=1, walltime_s=1))
    escrow_id = bank.hold_escrow(alice, cluster, bid.price, "a" * 32)
    with pytest.raises(UnknownQuote):
        core.submit(_spec(nodes=64, walltime_s=3600), bid.bid_token, escrow_id)
    assert core.scheduler.jobs == {}
    assert bank.get_escrow(escrow_id).state is EscrowState.REFUNDED
    assert bank.balance(alice) == 10000
    # Nothing blocks the FIFO head, so a later small job runs.
    later = _spec(job_id="b" * 32, nodes=1, walltime_s=1)
    later_bid = core.quote(later)
    later_escrow = bank.hold_escrow(alice, cluster, later_bid.price, later.job_id)
    core.submit(later, later_bid.bid_token, later_escrow)
    core.tick(100)
    assert core.status(later.job_id)["state"] == "COMPLETED"


@pytest.mark.parametrize(
    "changed",
    [{"nodes": 8}, {"walltime_s": 101}, {"features": ("deadline",)}],
    ids=["nodes", "walltime", "features"],
)
def test_submit_with_other_terms_than_quoted_rejected(network, changed):
    core = _core()
    bid = core.quote(_spec())
    with pytest.raises(UnknownQuote):
        core.submit(_spec(**changed), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert network.sent("bank.verify_escrow") == []
    assert _settlements(network) == [("esc-7", "a" * 32, "FAILED", "cs-A")]
    # The quote is still good for the terms it priced.
    core.submit(_spec(), bid.bid_token, "esc-8")
    assert core.status("a" * 32)["state"] == "QUEUED"


def test_token_single_use_under_race(network):
    core = _core()
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
    assert _settlements(network) == []


def test_completion_settles_exactly_once(network):
    core = _core()
    bid = core.quote(_spec(walltime_s=3))
    core.submit(_spec(walltime_s=3), bid.bid_token, "esc-9")
    core.tick(10)
    assert _settlements(network) == [("esc-9", "a" * 32, "COMPLETED", "cs-A")]
    core.tick(20)
    assert _settlements(network) == [("esc-9", "a" * 32, "COMPLETED", "cs-A")]
    assert core.status("a" * 32)["state"] == "COMPLETED"


def test_refund_that_times_out_is_retried_on_the_next_tick(network):
    network.fail(BANK, "bank.settle_escrow", _timeout())
    core = _core()
    refund = ("esc-7", "a" * 32, "FAILED", "cs-A")
    with pytest.raises(UnknownQuote):
        core.submit(_spec(), "1.60.400.forged", "esc-7")
    assert _settlements(network) == [refund]  # timed out
    core.tick(1)
    assert _settlements(network) == [refund, refund]  # answered
    core.tick(2)
    assert _settlements(network) == [refund, refund]


def test_escrow_check_timeout_is_a_named_rejection_and_refunded(network):
    network.fail(BANK, "bank.verify_escrow", _timeout())
    network.fail(BANK, "bank.settle_escrow", _timeout())
    core = _core()
    refund = ("esc-7", "a" * 32, "FAILED", "cs-A")
    bid = core.quote(_spec())
    with pytest.raises(EscrowInvalid):
        core.submit(_spec(), bid.bid_token, "esc-7")
    assert core.scheduler.jobs == {}
    assert _settlements(network) == [refund]  # timed out: the bank is still down
    core.tick(1)
    assert _settlements(network) == [refund, refund]  # answered


@pytest.mark.parametrize("reply", [{}, {"ok": "yes"}, []], ids=["empty", "ok-not-bool", "list"])
def test_malformed_escrow_check_is_a_named_rejection_and_refunded(network, reply):
    """A ``bank.verify_escrow`` reply that is not an object with a bool
    ``ok`` once escaped ``node.submit`` as ``InternalError: KeyError('ok')``,
    sent no refund and left the escrow held."""
    bank = BankCore(cluster_secrets={"clusterA": "cs-A"})
    network.hosts[BANK] = bank_handlers(bank) | {"bank.verify_escrow": lambda p: reply}
    alice = bank.create_account("alice", "USER")
    cluster = bank.create_account("clusterA", "CLUSTER")
    bank.deposit(alice, 10000)
    core = _core()
    node = "127.0.0.1:7710"
    network.hosts[node] = rpc_handlers(core)
    spec = _spec()
    bid = core.quote(spec)
    escrow_id = bank.hold_escrow(alice, cluster, bid.price, spec.job_id)
    params = {"spec": spec.to_dict(), "bid_token": bid.bid_token, "escrow_id": escrow_id}
    with pytest.raises(wire.RpcError) as err:
        wire.rpc_call(node, "node.submit", params, timeout_ms=2000)
    assert err.value.app_error_name() == "EscrowInvalid"
    assert core.scheduler.jobs == {}
    assert _settlements(network) == [(escrow_id, spec.job_id, "FAILED", "cs-A")]
    assert bank.get_escrow(escrow_id).state is EscrowState.REFUNDED
    assert bank.balance(alice) == 10000


def test_settlement_the_bank_refuses_is_sent_once(network):
    refusal = wire.RpcError(
        wire.RpcErrorCode.INVALID_PARAMS, "InvalidParams: reporter_secret must be a string"
    )
    network.fail(BANK, "bank.settle_escrow", refusal)
    core = _core()
    spec = _spec(walltime_s=3)
    core.submit(spec, core.quote(spec).bid_token, "esc-9")
    core.tick(10)
    assert len(_settlements(network)) == 1
    core.tick(20)
    core.tick(30)
    assert len(_settlements(network)) == 1
    assert core._pending_settlements == []


def test_capacity_never_exceeded_randomized(network):
    rng = random.Random(42)
    core = _core(capacity=8)
    for i in range(40):
        job_id = f"{i:032x}"
        spec = _spec(job_id=job_id, nodes=rng.randint(1, 8), walltime_s=rng.randint(1, 9))
        bid = core.quote(spec)
        core.submit(spec, bid.bid_token, f"esc-{i}")
        core.tick(core.scheduler.clock + rng.randint(0, 3))  # asserts capacity every step
    core.tick(core.scheduler.clock + 400)
    assert all(
        core.status(job_id)["state"] == "COMPLETED" for job_id in core.scheduler.jobs
    )
