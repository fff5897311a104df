"""Accounts, balances, and escrow settlement.

One registry serves both user and cluster accounts. Funds held in escrow
belong to neither party until settlement, and every state-mutating operation
is serialized behind a single lock, so the conservation invariant
(total balances + total held changes only by deposits) holds at every
observable instant.

Settlement outcomes are reported by the executing cluster front-end,
authenticated with a per-cluster shared secret registered at startup.
``sg-bank`` is :func:`start_service` under :func:`wire.run_service`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .domain import (
    ServiceError,
    ValidationError,
    canonical_encode,
    check_secrets,
    money,
    parse_money,
    reject_unknown,
    secret_matches,
)

DEFAULT_LISTEN = "127.0.0.1:7702"


class AccountKind(str, Enum):
    USER = "USER"
    CLUSTER = "CLUSTER"


class EscrowState(str, Enum):
    HELD = "HELD"
    RELEASED = "RELEASED"
    REFUNDED = "REFUNDED"


class UnknownAccount(ServiceError):
    name = "UnknownAccount"


class DuplicateAccount(ServiceError):
    name = "DuplicateAccount"


class NonPositiveAmount(ServiceError):
    name = "NonPositiveAmount"


class InsufficientFunds(ServiceError):
    name = "InsufficientFunds"


class KindMismatch(ServiceError):
    name = "KindMismatch"


class DuplicateEscrow(ServiceError):
    name = "DuplicateEscrow"


class UnknownEscrow(ServiceError):
    name = "UnknownEscrow"


class AlreadySettled(ServiceError):
    name = "AlreadySettled"


class BadReporter(ServiceError):
    name = "BadReporter"


@dataclass
class Account:
    account_id: str
    owner: str
    kind: AccountKind
    balance: int  # millicredits, never negative


@dataclass
class EscrowRecord:
    escrow_id: str
    payer: str
    payee: str
    amount: int  # millicredits, > 0
    job_id: str
    state: EscrowState


def _account_id(owner: str, kind: AccountKind) -> str:
    return f"{kind.value.lower()}:{owner}"


class BankCore:
    """In-memory ledger with an optional append-only operation log.

    With ``log_path``, the log already there is replayed on construction, so
    a restarted bank keeps its ledger. Each later operation is written
    ahead: once all its checks have passed, its entry is appended, flushed
    and fsynced, and only then applied, so an operation that returned
    survives a crash of the process or the machine, and one whose write
    failed changed nothing. A last line with no LF was torn by a crash
    mid-write, so its operation never returned: the restart truncates it and
    replays the prefix. A complete line that fails to parse still raises.
    """

    def __init__(
        self,
        cluster_secrets: Mapping[str, str] | None = None,
        log_path: str | Path | None = None,
    ):
        self._lock = threading.RLock()
        self._accounts: dict[str, Account] = {}
        self._escrows: dict[str, EscrowRecord] = {}
        # (payer, job_id) -> escrow_id of each held escrow: a stranger's
        # hold for a job id cannot block its payer's own.
        self._held: dict[tuple[str, str], str] = {}
        self._escrow_seq = 0
        self.cluster_secrets = check_secrets(
            "cluster_secrets", {} if cluster_secrets is None else cluster_secrets
        )
        self._log_file = None
        if log_path is not None:
            if not isinstance(log_path, (str, os.PathLike)):
                raise ValidationError("log_path", "must be a file path")
            self._log_file = open(log_path, "a+b")  # appends whatever the position
            try:
                self._log_file.seek(0)
                logged = self._log_file.read()
                complete = logged[: logged.rfind(b"\n") + 1]
                for line in complete.splitlines():  # checked when first applied
                    if line.strip():
                        self._apply(json.loads(line))
                self._log_file.truncate(len(complete))  # made durable by the next fsync
            except BaseException:
                self.close()
                raise

    def close(self) -> None:
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    def _commit(self, op: str, **args: Any) -> None:
        """Write one checked operation ahead to the log, then apply it."""
        entry = {"op": op, **args}
        if self._log_file is not None:
            self._log_file.write(canonical_encode(entry) + b"\n")
            self._log_file.flush()
            os.fsync(self._log_file.fileno())
        self._apply(entry)

    def _apply(self, entry: Mapping[str, Any]) -> None:
        op = entry["op"]
        if op == "create_account":
            self._apply_create_account(entry["owner"], AccountKind(entry["kind"]))
        elif op == "deposit":
            self._apply_deposit(entry["account_id"], entry["amount"])
        elif op == "hold_escrow":
            self._apply_hold_escrow(
                entry["payer"],
                entry["payee"],
                entry["amount"],
                entry["job_id"],
                entry["escrow_id"],
            )
        elif op == "settle_escrow":
            self._apply_settle_escrow(entry["escrow_id"], entry["outcome"])
        else:
            raise ValueError(f"unknown log op {op!r}")

    def _get_account(self, account_id: str) -> Account:
        account = self._accounts.get(account_id)
        if account is None:
            raise UnknownAccount(f"no account {account_id!r}")
        return account

    # -- operations -------------------------------------------------------

    def create_account(self, owner: str, kind: AccountKind | str) -> str:
        kind = AccountKind(kind)
        if not owner:
            raise ServiceError("owner must be non-empty")
        with self._lock:
            account_id = _account_id(owner, kind)
            if account_id in self._accounts:
                raise DuplicateAccount(f"account for ({owner!r}, {kind.value}) exists")
            self._commit("create_account", owner=owner, kind=kind.value)
            return account_id

    def _apply_create_account(self, owner: str, kind: AccountKind) -> None:
        account_id = _account_id(owner, kind)
        self._accounts[account_id] = Account(
            account_id=account_id, owner=owner, kind=kind, balance=0
        )

    def deposit(self, account_id: str, amount: int) -> int:
        if amount <= 0:
            raise NonPositiveAmount(f"deposit amount must be > 0, got {amount}")
        with self._lock:
            account = self._get_account(account_id)
            self._commit("deposit", account_id=account_id, amount=amount)
            return account.balance

    def _apply_deposit(self, account_id: str, amount: int) -> None:
        self._get_account(account_id).balance += amount

    def balance(self, account_id: str) -> int:
        with self._lock:
            return self._get_account(account_id).balance

    def hold_escrow(self, payer: str, payee: str, amount: int, job_id: str) -> str:
        if amount <= 0:
            raise NonPositiveAmount(f"escrow amount must be > 0, got {amount}")
        with self._lock:
            payer_account = self._get_account(payer)
            payee_account = self._get_account(payee)
            if payer_account.kind is not AccountKind.USER:
                raise KindMismatch(f"payer {payer!r} is not a USER account")
            if payee_account.kind is not AccountKind.CLUSTER:
                raise KindMismatch(f"payee {payee!r} is not a CLUSTER account")
            if payee_account.owner not in self.cluster_secrets:
                # Settling needs the payee's secret, so the escrow would stay held.
                raise UnknownAccount(f"payee {payee!r} has no cluster secret")
            if (payer, job_id) in self._held:
                raise DuplicateEscrow(f"{payer!r} already holds an escrow for job {job_id!r}")
            if payer_account.balance < amount:
                raise InsufficientFunds(
                    f"balance {payer_account.balance} < amount {amount}"
                )
            escrow_id = f"esc-{self._escrow_seq + 1:06d}"
            self._commit(
                "hold_escrow",
                payer=payer,
                payee=payee,
                amount=amount,
                job_id=job_id,
                escrow_id=escrow_id,
            )
            return escrow_id

    def _apply_hold_escrow(
        self, payer: str, payee: str, amount: int, job_id: str, escrow_id: str
    ) -> None:
        self._escrow_seq += 1
        self._accounts[payer].balance -= amount
        self._escrows[escrow_id] = EscrowRecord(
            escrow_id=escrow_id,
            payer=payer,
            payee=payee,
            amount=amount,
            job_id=job_id,
            state=EscrowState.HELD,
        )
        self._held[payer, job_id] = escrow_id

    def settle_escrow(
        self, escrow_id: str, job_id: str, outcome: str, reporter_secret: str
    ) -> EscrowRecord:
        """Release or refund an escrow. Only the payee cluster may report,
        and only for the job the escrow was held for, so a submission that
        names someone else's escrow cannot void it."""
        if outcome not in ("COMPLETED", "FAILED"):
            raise wire.InvalidParams(f"outcome must be COMPLETED or FAILED, got {outcome!r}")
        with self._lock:
            escrow = self._escrows.get(escrow_id)
            if escrow is None:
                raise UnknownEscrow(f"no escrow {escrow_id!r}")
            if escrow.job_id != job_id:
                raise BadReporter(f"escrow {escrow_id!r} is not for job {job_id!r}")
            if escrow.state is not EscrowState.HELD:
                raise AlreadySettled(f"escrow {escrow_id!r} is {escrow.state.value}")
            payee_owner = self._accounts[escrow.payee].owner
            if not secret_matches(self.cluster_secrets.get(payee_owner), reporter_secret):
                raise BadReporter(f"secret does not match payee cluster {payee_owner!r}")
            self._commit("settle_escrow", escrow_id=escrow_id, outcome=outcome)
            return escrow

    def _apply_settle_escrow(self, escrow_id: str, outcome: str) -> None:
        escrow = self._escrows[escrow_id]
        if outcome == "COMPLETED":
            self._accounts[escrow.payee].balance += escrow.amount
            escrow.state = EscrowState.RELEASED
        else:
            self._accounts[escrow.payer].balance += escrow.amount
            escrow.state = EscrowState.REFUNDED
        self._held.pop((escrow.payer, escrow.job_id), None)

    def verify_escrow(
        self, escrow_id: str, payee: str, job_id: str, min_amount: int
    ) -> bool:
        with self._lock:
            escrow = self._escrows.get(escrow_id)
            return (
                escrow is not None
                and escrow.state is EscrowState.HELD
                and escrow.payee == payee
                and escrow.job_id == job_id
                and escrow.amount >= min_amount
            )

    def audit(self) -> dict[str, int]:
        with self._lock:
            total_balances = sum(a.balance for a in self._accounts.values())
            total_held = sum(
                self._escrows[escrow_id].amount for escrow_id in self._held.values()
            )
            return {"total_balances": total_balances, "total_held": total_held}

    # -- inspection (used by tests and the in-process harness) -------------

    def get_escrow(self, escrow_id: str) -> EscrowRecord:
        with self._lock:
            escrow = self._escrows.get(escrow_id)
            if escrow is None:
                raise UnknownEscrow(f"no escrow {escrow_id!r}")
            return escrow

    def escrow_records(self) -> list[EscrowRecord]:
        with self._lock:
            return list(self._escrows.values())

    def account_balances(self) -> dict[str, int]:
        with self._lock:
            return {a.account_id: a.balance for a in self._accounts.values()}


def rpc_handlers(core: BankCore) -> dict[str, wire.Handler]:
    """The bank's RPC surface."""

    def _str_param(params: Mapping[str, Any], key: str) -> str:
        value = params.get(key)
        if not isinstance(value, str) or not value:
            raise wire.InvalidParams(f"{key} must be a non-empty string")
        return value

    def _amount_param(params: Mapping[str, Any], key: str) -> int:
        return parse_money(key, params.get(key))

    def create_account(params: Mapping[str, Any]) -> dict[str, Any]:
        kind = _str_param(params, "kind")
        if kind not in (k.value for k in AccountKind):
            raise wire.InvalidParams(f"kind must be USER or CLUSTER, got {kind!r}")
        account_id = core.create_account(_str_param(params, "owner"), kind)
        return {"account_id": account_id}

    def deposit(params: Mapping[str, Any]) -> dict[str, Any]:
        balance = core.deposit(
            _str_param(params, "account_id"), _amount_param(params, "amount")
        )
        return {"balance": money(balance)}

    def balance(params: Mapping[str, Any]) -> dict[str, Any]:
        return {"balance": money(core.balance(_str_param(params, "account_id")))}

    def hold_escrow(params: Mapping[str, Any]) -> dict[str, Any]:
        escrow_id = core.hold_escrow(
            payer=_str_param(params, "payer"),
            payee=_str_param(params, "payee"),
            amount=_amount_param(params, "amount"),
            job_id=_str_param(params, "job_id"),
        )
        return {"escrow_id": escrow_id}

    def settle_escrow(params: Mapping[str, Any]) -> dict[str, Any]:
        # The reporting front-end reads nothing back, and the record names the payer.
        core.settle_escrow(
            escrow_id=_str_param(params, "escrow_id"),
            job_id=_str_param(params, "job_id"),
            outcome=_str_param(params, "outcome"),
            reporter_secret=_str_param(params, "reporter_secret"),
        )
        return {}

    def verify_escrow(params: Mapping[str, Any]) -> dict[str, Any]:
        ok = core.verify_escrow(
            escrow_id=_str_param(params, "escrow_id"),
            payee=_str_param(params, "payee"),
            job_id=_str_param(params, "job_id"),
            min_amount=_amount_param(params, "min_amount"),
        )
        return {"ok": ok}

    def audit(params: Mapping[str, Any]) -> dict[str, Any]:
        totals = core.audit()
        return {
            "total_balances": money(totals["total_balances"]),
            "total_held": money(totals["total_held"]),
        }

    return {
        "bank.create_account": create_account,
        "bank.deposit": deposit,
        "bank.balance": balance,
        "bank.hold_escrow": hold_escrow,
        "bank.settle_escrow": settle_escrow,
        "bank.verify_escrow": verify_escrow,
        "bank.audit": audit,
    }


def start_service(config: Mapping[str, Any], stack: ExitStack) -> str:
    """Start ``sg-bank``, each step of its shutdown on ``stack``; its address."""
    known = frozenset({"listen", "cluster_secrets", "log_path"})
    reject_unknown(config, known, "bank config")
    core = BankCore(
        cluster_secrets=config.get("cluster_secrets"), log_path=config.get("log_path")
    )
    stack.callback(core.close)
    server = wire.serve(config.get("listen", DEFAULT_LISTEN), rpc_handlers(core))
    stack.callback(server.shutdown)
    return server.address


def main(argv: list[str] | None = None) -> int:
    return wire.run_service("sg-bank", start_service, argv)


if __name__ == "__main__":
    sys.exit(main())
