"""Ledger semantics: accounts, escrow lifecycle, conservation, log replay."""

import dataclasses
import random
import threading

import pytest

from sgmarket import wire
from sgmarket.domain import ValidationError
from sgmarket.bank import (
    AlreadySettled,
    BadReporter,
    BankCore,
    DuplicateAccount,
    DuplicateEscrow,
    EscrowState,
    InsufficientFunds,
    KindMismatch,
    NonPositiveAmount,
    UnknownAccount,
    UnknownEscrow,
    rpc_handlers,
)

SECRETS = {"clusterA": "sekrit"}


@pytest.fixture()
def core():
    return BankCore(cluster_secrets=SECRETS)


def _funded(core, deposit=10000):
    alice = core.create_account("alice", "USER")
    cluster = core.create_account("clusterA", "CLUSTER")
    core.deposit(alice, deposit)
    return alice, cluster


def _ledger(core):
    """Every balance by account id (``kind:owner``) and a copy of every
    escrow record, so a later change to the ledger does not reach it."""
    return core.account_balances(), [dataclasses.asdict(e) for e in core.escrow_records()]


def test_create_account_starts_at_zero(core):
    alice = core.create_account("alice", "USER")
    assert core.balance(alice) == 0


def test_duplicate_account_rejected(core):
    core.create_account("alice", "USER")
    with pytest.raises(DuplicateAccount):
        core.create_account("alice", "USER")


def test_same_owner_different_kinds_allowed(core):
    a = core.create_account("omni", "CLUSTER")
    b = core.create_account("omni", "USER")
    assert a != b


def test_deposit_arithmetic(core):
    alice = core.create_account("alice", "USER")
    assert core.deposit(alice, 10000) == 10000
    assert core.deposit(alice, 500) == 10500


def test_deposit_zero_rejected(core):
    alice = core.create_account("alice", "USER")
    with pytest.raises(NonPositiveAmount):
        core.deposit(alice, 0)


def test_deposit_unknown_account(core):
    with pytest.raises(UnknownAccount):
        core.deposit("user:nobody", 100)


def test_hold_escrow_moves_funds_out_of_balance(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 4000, "j" * 32)
    assert core.balance(alice) == 6000
    record = core.get_escrow(escrow_id)
    assert record.state is EscrowState.HELD
    assert record.amount == 4000


def test_hold_escrow_insufficient_funds_changes_nothing(core):
    alice, cluster = _funded(core, deposit=3999)
    with pytest.raises(InsufficientFunds):
        core.hold_escrow(alice, cluster, 4000, "j" * 32)
    assert core.balance(alice) == 3999
    assert core.escrow_records() == []


def test_hold_escrow_duplicate_job_rejected(core):
    alice, cluster = _funded(core)
    core.hold_escrow(alice, cluster, 1000, "j" * 32)
    with pytest.raises(DuplicateEscrow):
        core.hold_escrow(alice, cluster, 1000, "j" * 32)


def _squatted(core):
    """Alice's funded account, a cluster's, and mallory's 1 millicredit held
    for job ``c…c`` before alice holds anything for it."""
    alice, cluster = _funded(core)
    mallory = core.create_account("mallory", "USER")
    core.deposit(mallory, 1)
    return alice, cluster, core.hold_escrow(mallory, cluster, 1, "c" * 32)


def test_another_payers_hold_does_not_squat_a_job_id(core):
    """A hold is unique per payer and job: a stranger who holds first for
    a job id leaves its payer free to hold for it, and each escrow settles
    on its own."""
    alice, cluster, squat = _squatted(core)
    mine = core.hold_escrow(alice, cluster, 1000, "c" * 32)
    assert core.audit() == {"total_balances": 9000, "total_held": 1001}
    with pytest.raises(DuplicateEscrow):
        core.hold_escrow(alice, cluster, 1000, "c" * 32)
    core.settle_escrow(mine, "c" * 32, "COMPLETED", "sekrit")
    core.settle_escrow(squat, "c" * 32, "FAILED", "sekrit")
    assert core.account_balances() == {
        "user:alice": 9000, "cluster:clusterA": 1000, "user:mallory": 1,
    }
    assert core.audit() == {"total_balances": 10001, "total_held": 0}


def test_another_payers_hold_does_not_squat_a_job_id_over_rpc(core):
    alice, cluster, _ = _squatted(core)
    server = wire.serve("127.0.0.1:0", rpc_handlers(core))
    try:
        reply = wire.rpc_call(server.address, "bank.hold_escrow", {
            "payer": alice, "payee": cluster, "amount": 1000, "job_id": "c" * 32,
        }, timeout_ms=5000)
    finally:
        server.shutdown()
    assert core.get_escrow(reply["escrow_id"]).payer == alice
    assert core.audit() == {"total_balances": 9000, "total_held": 1001}


def test_hold_escrow_kind_checks(core):
    alice, cluster = _funded(core)
    with pytest.raises(KindMismatch):
        core.hold_escrow(cluster, cluster, 100, "a" * 32)
    with pytest.raises(KindMismatch):
        core.hold_escrow(alice, alice, 100, "b" * 32)


def test_hold_for_a_payee_with_no_cluster_secret_is_refused():
    """Every settlement needs the payee owner's secret, so an escrow for a
    cluster the bank holds none for could never be released or refunded."""
    core = BankCore(cluster_secrets={"alpha": "sekrit"})
    alice = core.create_account("alice", "USER")
    ghost = core.create_account("ghost", "CLUSTER")
    core.deposit(alice, 1000)
    with pytest.raises(UnknownAccount):
        core.hold_escrow(alice, ghost, 400, "j" * 32)
    server = wire.serve("127.0.0.1:0", rpc_handlers(core))
    try:
        with pytest.raises(wire.RpcError) as err:
            wire.rpc_call(server.address, "bank.hold_escrow", {
                "payer": alice, "payee": ghost, "amount": 400, "job_id": "j" * 32,
            }, timeout_ms=5000)
    finally:
        server.shutdown()
    assert err.value.app_error_name() == "UnknownAccount"
    assert core.balance(alice) == 1000
    assert core.audit() == {"total_balances": 1000, "total_held": 0}


def test_settle_completed_pays_the_cluster(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 2000, "j" * 32)
    record = core.settle_escrow(escrow_id, "j" * 32, "COMPLETED", "sekrit")
    assert record.state is EscrowState.RELEASED
    assert core.balance(cluster) == 2000
    assert core.balance(alice) == 8000


def test_settle_failed_refunds_the_user(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 2000, "j" * 32)
    record = core.settle_escrow(escrow_id, "j" * 32, "FAILED", "sekrit")
    assert record.state is EscrowState.REFUNDED
    assert core.balance(alice) == 10000
    assert core.balance(cluster) == 0


def test_settle_twice_reports_already_settled(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 2000, "j" * 32)
    core.settle_escrow(escrow_id, "j" * 32, "COMPLETED", "sekrit")
    with pytest.raises(AlreadySettled):
        core.settle_escrow(escrow_id, "j" * 32, "FAILED", "sekrit")
    assert core.balance(alice) == 8000
    assert core.balance(cluster) == 2000


def test_settle_requires_cluster_secret(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 2000, "j" * 32)
    with pytest.raises(BadReporter):
        core.settle_escrow(escrow_id, "j" * 32, "COMPLETED", "wrong")
    assert core.get_escrow(escrow_id).state is EscrowState.HELD


def test_settle_for_another_job_is_refused(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 2000, "j" * 32)
    with pytest.raises(BadReporter):
        core.settle_escrow(escrow_id, "k" * 32, "FAILED", "sekrit")
    assert core.get_escrow(escrow_id).state is EscrowState.HELD
    assert core.balance(alice) == 8000


def test_settle_accepts_non_ascii_cluster_secret():
    core = BankCore(cluster_secrets={"clusterA": "sëkrit-密"})
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 2000, "j" * 32)
    # A lone surrogate has no UTF-8 form; it is refused like any other.
    for wrong in ("sekrit-密", "\ud800"):
        with pytest.raises(BadReporter):
            core.settle_escrow(escrow_id, "j" * 32, "COMPLETED", wrong)
    record = core.settle_escrow(escrow_id, "j" * 32, "COMPLETED", "sëkrit-密")
    assert record.state is EscrowState.RELEASED


@pytest.mark.parametrize(
    "table", [{"clusterA": 5}, {"clusterA": ""}, {5: "sekrit"}, [1], "clusterA"]
)
def test_cluster_secrets_must_map_names_to_non_empty_strings(table):
    """A non-string secret once made every settlement for that cluster
    raise AttributeError, which its front-end logged and dropped, leaving
    the escrow held for good."""
    with pytest.raises(ValidationError) as err:
        BankCore(cluster_secrets=table)
    assert err.value.field.startswith("cluster_secrets")


def test_settle_unknown_escrow(core):
    with pytest.raises(UnknownEscrow):
        core.settle_escrow("esc-999999", "j" * 32, "COMPLETED", "sekrit")


def test_verify_escrow_matches(core):
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 400, "j" * 32)
    assert core.verify_escrow(escrow_id, cluster, "j" * 32, 400) is True
    assert core.verify_escrow(escrow_id, cluster, "j" * 32, 401) is False
    assert core.verify_escrow(escrow_id, "cluster:other", "j" * 32, 400) is False
    assert core.verify_escrow(escrow_id, cluster, "k" * 32, 400) is False
    assert core.verify_escrow("esc-000099", cluster, "j" * 32, 400) is False
    core.settle_escrow(escrow_id, "j" * 32, "COMPLETED", "sekrit")
    assert core.verify_escrow(escrow_id, cluster, "j" * 32, 400) is False


def test_audit_conservation_through_holds(core):
    alice, cluster = _funded(core, deposit=5000)
    totals = core.audit()
    assert totals["total_balances"] + totals["total_held"] == 5000
    core.hold_escrow(alice, cluster, 1200, "j" * 32)
    totals = core.audit()
    assert totals["total_balances"] + totals["total_held"] == 5000
    assert totals["total_held"] == 1200


# -- randomized operation sequences against a mirror model ---------------------

class _Mirror:
    """Naive independent reimplementation used as the replaying oracle."""

    def __init__(self):
        self.balances = {}
        self.kinds = {}
        self.escrows = {}  # escrow_id -> [payer, payee, amount, job_id, state]
        self.held_jobs = set()
        self.deposited = 0

    def create(self, account_id, kind):
        self.balances[account_id] = 0
        self.kinds[account_id] = kind

    def deposit(self, account_id, amount):
        self.balances[account_id] += amount
        self.deposited += amount

    def hold(self, escrow_id, payer, payee, amount, job_id):
        self.balances[payer] -= amount
        self.escrows[escrow_id] = [payer, payee, amount, job_id, "HELD"]
        self.held_jobs.add(job_id)

    def settle(self, escrow_id, outcome):
        payer, payee, amount, job_id, _ = self.escrows[escrow_id]
        target = payee if outcome == "COMPLETED" else payer
        self.balances[target] += amount
        self.escrows[escrow_id][4] = "RELEASED" if outcome == "COMPLETED" else "REFUNDED"
        self.held_jobs.discard(job_id)

    def total(self):
        held = sum(e[2] for e in self.escrows.values() if e[4] == "HELD")
        return sum(self.balances.values()) + held


def run_random_ops(seed: int, steps: int = 60) -> None:
    rng = random.Random(seed)
    core = BankCore(cluster_secrets={"c0": "s0", "c1": "s1"})
    mirror = _Mirror()
    users = [core.create_account(f"u{i}", "USER") for i in range(3)]
    clusters = [core.create_account(f"c{i}", "CLUSTER") for i in range(2)]
    for account_id in users + clusters:
        mirror.create(account_id, "USER" if account_id.startswith("user") else "CLUSTER")
    job_counter = 0
    open_escrows: list[tuple[str, str, str]] = []  # (escrow_id, job_id, cluster owner)

    for _ in range(steps):
        op = rng.choice(["deposit", "hold", "settle", "audit", "audit"])
        if op == "deposit":
            target = rng.choice(users)
            amount = rng.randint(1, 5000)
            core.deposit(target, amount)
            mirror.deposit(target, amount)
        elif op == "hold":
            payer = rng.choice(users)
            payee = rng.choice(clusters)
            amount = rng.randint(1, 3000)
            job_counter += 1
            job_id = f"{job_counter:032x}"
            try:
                escrow_id = core.hold_escrow(payer, payee, amount, job_id)
            except InsufficientFunds:
                assert mirror.balances[payer] < amount
                continue
            mirror.hold(escrow_id, payer, payee, amount, job_id)
            open_escrows.append((escrow_id, job_id, payee.split(":", 1)[1]))
        elif op == "settle" and open_escrows:
            escrow_id, job_id, owner = open_escrows.pop(rng.randrange(len(open_escrows)))
            outcome = rng.choice(["COMPLETED", "FAILED"])
            secret = {"c0": "s0", "c1": "s1"}[owner]
            core.settle_escrow(escrow_id, job_id, outcome, secret)
            mirror.settle(escrow_id, outcome)
        totals = core.audit()
        assert totals["total_balances"] + totals["total_held"] == mirror.deposited
        assert mirror.total() == mirror.deposited
    assert core.account_balances() == mirror.balances


@pytest.mark.parametrize("seed", range(5))
def test_randomized_operations_match_mirror(seed):
    run_random_ops(seed)


# -- concurrency over real RPC --------------------------------------------------

def test_concurrent_deposits_serialize():
    core = BankCore()
    alice = core.create_account("alice", "USER")
    server = wire.serve("127.0.0.1:0", rpc_handlers(core))
    try:
        deposit = (server.address, "bank.deposit", {"account_id": alice, "amount": 500})
        threads = [threading.Thread(target=wire.rpc_call, args=deposit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert core.balance(alice) == 1000
    finally:
        server.shutdown()


def test_rpc_surface_round_trip():
    core = BankCore(cluster_secrets=SECRETS)
    server = wire.serve("127.0.0.1:0", rpc_handlers(core))

    def call(method, **params):
        return wire.rpc_call(server.address, method, params, timeout_ms=5000)

    try:
        alice = call("bank.create_account", owner="alice", kind="USER")["account_id"]
        cluster = call("bank.create_account", owner="clusterA", kind="CLUSTER")["account_id"]
        call("bank.deposit", account_id=alice, amount=9000)
        job = {"job_id": "j" * 32}
        escrow = call("bank.hold_escrow", payer=alice, payee=cluster, amount=700, **job)
        escrow |= job
        assert call("bank.verify_escrow", payee=cluster, min_amount=700, **escrow) == {"ok": True}
        call("bank.settle_escrow", outcome="COMPLETED", reporter_secret="sekrit", **escrow)
        assert core.get_escrow(escrow["escrow_id"]).state is EscrowState.RELEASED
        totals = call("bank.audit")
        assert totals == {"total_balances": {"amount": 9000}, "total_held": {"amount": 0}}
        with pytest.raises(wire.RpcError) as err:
            call("bank.deposit", account_id="user:ghost", amount=5)
        assert err.value.app_error_name() == "UnknownAccount"
    finally:
        server.shutdown()


def test_settle_reply_is_empty():
    """The reporting front-end reads nothing from a settlement's reply, so
    the bank sends it nothing: not the escrow, nor the payer behind it."""
    core = BankCore(cluster_secrets=SECRETS)
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 700, "j" * 32)
    server = wire.serve("127.0.0.1:0", rpc_handlers(core))
    try:
        reply = wire.rpc_call(server.address, "bank.settle_escrow", {
            "escrow_id": escrow_id, "job_id": "j" * 32, "outcome": "COMPLETED",
            "reporter_secret": "sekrit",
        }, timeout_ms=5000)
    finally:
        server.shutdown()
    assert reply == {}
    assert core.get_escrow(escrow_id).state is EscrowState.RELEASED


# -- operation log -------------------------------------------------------------

def test_log_replay_reproduces_state(tmp_path):
    log_path = tmp_path / "bank.log"
    core = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    alice, cluster = _funded(core)
    e1 = core.hold_escrow(alice, cluster, 1500, "a" * 32)
    e2 = core.hold_escrow(alice, cluster, 500, "b" * 32)
    core.settle_escrow(e1, "a" * 32, "COMPLETED", "sekrit")
    core.settle_escrow(e2, "b" * 32, "FAILED", "sekrit")
    core.close()

    replayed = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    assert _ledger(replayed) == _ledger(core)
    replayed.close()


def test_a_log_from_before_holds_were_keyed_by_payer_replays(tmp_path):
    """The log format did not change when holds became unique per payer
    and job, so a log written before still replays to its ledger."""
    a, b = "a" * 32, "b" * 32
    log_path = tmp_path / "bank.log"
    log_path.write_text(
        '{"kind":"USER","op":"create_account","owner":"alice"}\n'
        '{"kind":"CLUSTER","op":"create_account","owner":"clusterA"}\n'
        '{"account_id":"user:alice","amount":10000,"op":"deposit"}\n'
        f'{{"amount":1500,"escrow_id":"esc-000001","job_id":"{a}","op":"hold_escrow",'
        '"payee":"cluster:clusterA","payer":"user:alice"}\n'
        f'{{"amount":500,"escrow_id":"esc-000002","job_id":"{b}","op":"hold_escrow",'
        '"payee":"cluster:clusterA","payer":"user:alice"}\n'
        '{"escrow_id":"esc-000001","op":"settle_escrow","outcome":"COMPLETED"}\n'
    )
    core = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    try:
        assert core.account_balances() == {"user:alice": 8000, "cluster:clusterA": 1500}
        assert core.audit() == {"total_balances": 9500, "total_held": 500}
        with pytest.raises(DuplicateEscrow):
            core.hold_escrow("user:alice", "cluster:clusterA", 100, b)
        assert core.hold_escrow("user:alice", "cluster:clusterA", 100, a) == "esc-000003"
    finally:
        core.close()


def test_restarted_bank_keeps_its_ledger(tmp_path):
    log_path = tmp_path / "bank.log"
    core = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    alice = core.create_account("alice", "USER")
    cluster = core.create_account("clusterA", "CLUSTER")
    core.deposit(alice, 500)
    first = core.hold_escrow(alice, cluster, 200, "a" * 32)
    core.close()

    restarted = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    assert _ledger(restarted) == _ledger(core)
    assert restarted.balance("user:alice") == 300
    with pytest.raises(DuplicateAccount):
        restarted.create_account("alice", "USER")
    second = restarted.hold_escrow(alice, cluster, 100, "b" * 32)
    assert second != first
    restarted.settle_escrow(first, "a" * 32, "COMPLETED", "sekrit")
    restarted.close()

    replayed = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    assert _ledger(replayed) == _ledger(restarted)
    assert replayed.audit() == {"total_balances": 400, "total_held": 100}
    replayed.close()


def test_torn_last_log_line_is_dropped_on_restart(tmp_path):
    log_path = tmp_path / "bank.log"
    core = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    alice, cluster = _funded(core)
    core.hold_escrow(alice, cluster, 1500, "a" * 32)
    prefix = _ledger(core)
    core.close()
    with open(log_path, "ab") as fh:  # a crash before the write finished
        fh.write(b'{"account_id":"user:alice","amount":7')

    restarted = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    assert _ledger(restarted) == prefix
    restarted.deposit(alice, 700)
    after = _ledger(restarted)
    restarted.close()

    again = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    assert _ledger(again) == after
    assert again.balance(alice) == 10000 - 1500 + 700
    again.close()
    assert log_path.read_bytes().endswith(b"\n")


def test_complete_log_line_that_fails_to_parse_still_raises(tmp_path):
    log_path = tmp_path / "bank.log"
    core = BankCore(cluster_secrets=SECRETS, log_path=log_path)
    _funded(core)
    core.close()
    with open(log_path, "ab") as fh:
        fh.write(b'{"account_id":"user:alice","amount":7\n')
    before = log_path.read_bytes()
    with pytest.raises(ValueError):
        BankCore(cluster_secrets=SECRETS, log_path=log_path)
    assert log_path.read_bytes() == before


class _FailingLog:
    def write(self, data):
        raise OSError("disk full")


def test_failed_log_write_leaves_the_ledger_unchanged(tmp_path):
    core = BankCore(cluster_secrets=SECRETS, log_path=tmp_path / "bank.log")
    alice, cluster = _funded(core)
    escrow_id = core.hold_escrow(alice, cluster, 1000, "a" * 32)
    before = _ledger(core)
    log_file, core._log_file = core._log_file, _FailingLog()
    try:
        with pytest.raises(OSError):
            core.create_account("bob", "USER")
        with pytest.raises(OSError):
            core.deposit(alice, 5)
        with pytest.raises(OSError):
            core.hold_escrow(alice, cluster, 10, "b" * 32)
        with pytest.raises(OSError):
            core.settle_escrow(escrow_id, "a" * 32, "COMPLETED", "sekrit")
    finally:
        log_file.close()
    assert _ledger(core) == before


def test_audit_counts_exactly_the_held_escrows():
    rng = random.Random(5)
    core = BankCore(cluster_secrets=SECRETS)
    alice, cluster = _funded(core, deposit=10**9)
    held: list[tuple[str, str]] = []
    for n in range(500):
        job_id = f"{n:032x}"
        held.append((core.hold_escrow(alice, cluster, rng.randint(1, 1000), job_id), job_id))
        if rng.random() < 0.6:
            escrow_id, job_id = held.pop(rng.randrange(len(held)))
            outcome = rng.choice(["COMPLETED", "FAILED"])
            core.settle_escrow(escrow_id, job_id, outcome, "sekrit")
        # The old formula, kept as the oracle: every escrow ever held,
        # filtered by state.
        oracle = sum(
            e.amount for e in core.escrow_records() if e.state is EscrowState.HELD
        )
        assert core.audit()["total_held"] == oracle
    assert core.audit()["total_balances"] + core.audit()["total_held"] == 10**9
