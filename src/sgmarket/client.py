"""User-facing CLI driving the full job lifecycle: validate the spec, ask the
broker for the cheapest cluster, escrow the price, submit, observe.

The escrow is created between selection and submission, so a front-end can
never charge without a prior quote; if the front-end then rejects the
submission, the money comes straight back.

Every field of a peer's reply is read through one check, so a reply that
is not an object or lacks a field is a :class:`ClientError`. A job's status
is printed as the front-end's ``node.status`` object, once
:func:`domain.parse_status` has checked it.

Exit codes: 0 success, 2 no eligible cluster, 3 insufficient funds,
4 unknown job or account, 5 submission rejected (after refund), 1 anything
else, a malformed reply too.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .domain import (
    JobSpec,
    ValidationError,
    canonical_encode,
    check_address,
    load_config,
    money,
    parse_money,
    parse_status,
    reject_unknown,
    validate_jobspec,
)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_NO_ELIGIBLE = 2
EXIT_INSUFFICIENT_FUNDS = 3
EXIT_UNKNOWN_ENTITY = 4
EXIT_REJECTED = 5

# How long each call waits for its reply. A find of two bid rounds waits at
# most ``2 * broker.BID_TIMEOUT_MS``, so one hanging cluster costs a find no
# more than this.
TIMEOUT_MS = 5000


class ClientError(Exception):
    exit_code = EXIT_OTHER


class NoEligibleClusterError(ClientError):
    exit_code = EXIT_NO_ELIGIBLE

    def __init__(self, reasons: Mapping[str, str]):
        super().__init__(f"no eligible cluster (reasons: {dict(reasons)})")
        self.reasons = dict(reasons)


class InsufficientFundsError(ClientError):
    exit_code = EXIT_INSUFFICIENT_FUNDS


class UnknownEntityError(ClientError):
    exit_code = EXIT_UNKNOWN_ENTITY


class SubmissionRejected(ClientError):
    exit_code = EXIT_REJECTED


class MissingRequiredField(ClientError):
    def __init__(self, field: str):
        super().__init__(f"missing required field {field!r}")
        self.field = field


@dataclass(frozen=True)
class ClientConfig:
    broker: str
    bank: str
    account_id: str

    def __post_init__(self) -> None:
        for name in ("broker", "bank"):
            check_address(name, getattr(self, name))
        if not isinstance(self.account_id, str) or not self.account_id:
            raise ValidationError("account_id", "must be a non-empty string")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClientConfig":
        if not isinstance(data, Mapping):
            raise ValidationError("config", "must be a JSON object")
        fields = dataclasses.fields(cls)
        reject_unknown(data, frozenset(f.name for f in fields), "client config")
        for f in fields:
            if f.name not in data:
                raise ValidationError(f.name, "missing required field")
        return cls(**data)


def parse_spec(
    spec_path: str | Path | None,
    overrides: Mapping[str, Any],
    job_id: str,
) -> JobSpec:
    """Merge spec file fields, flag overrides (stronger), and the
    ``job_id`` (strongest), then validate."""
    record: dict[str, Any] = {}
    if spec_path is not None:
        with open(spec_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValidationError("spec", "spec file must hold a JSON object")
        record.update(loaded)
    record.update({k: v for k, v in overrides.items() if v is not None})
    record["job_id"] = job_id
    try:
        return validate_jobspec(record)
    except ValidationError as exc:
        if exc.reason == "missing required field":
            raise MissingRequiredField(exc.field) from None
        raise


def _field(reply: Any, name: str) -> Any:
    """Field ``name`` of a peer's reply, or a ``ClientError`` if the reply
    is not an object or lacks it."""
    if not isinstance(reply, Mapping) or name not in reply:
        raise ClientError(f"malformed reply: no field {name!r}")
    return reply[name]


def _text(reply: Any, name: str) -> str:
    """Field ``name`` of a peer's reply, or a ``ClientError`` if it is not a
    non-empty string."""
    value = _field(reply, name)
    if not isinstance(value, str) or not value:
        raise ClientError(f"malformed reply: {name} must be a non-empty string")
    return value


def _map_rpc_error(exc: wire.RpcError) -> ClientError:
    name = exc.app_error_name()
    if name == "InsufficientFunds":
        return InsufficientFundsError(exc.message)
    if name in ("UnknownJob", "UnknownAccount"):
        return UnknownEntityError(exc.message)
    return ClientError(exc.message)


class ClientSession:
    """One configured user's view of the market. Each call to the broker,
    the bank or a front-end is one ``wire.rpc_call``."""

    def __init__(self, config: ClientConfig):
        self.config = config

    def _call(self, address: str, method: str, params: Mapping[str, Any]) -> Any:
        try:
            return wire.rpc_call(address, method, params, timeout_ms=TIMEOUT_MS)
        except wire.RpcError as exc:
            raise _map_rpc_error(exc) from None

    def build_spec(
        self,
        spec_path: str | Path | None,
        overrides: Mapping[str, Any] | None = None,
        job_id: str | None = None,
    ) -> JobSpec:
        """The job, under ``job_id`` or else a fresh random id."""
        return parse_spec(spec_path, overrides or {}, job_id or secrets.token_hex(16))

    def submit_job(self, spec: JobSpec) -> dict[str, Any]:
        """Select, escrow, submit; returns the receipt
        {job_id, cluster_id, price, escrow_id}."""
        found = self._call(
            self.config.broker, "broker.find_cluster", {"spec": spec.to_dict()}
        )
        if isinstance(found, Mapping) and "no_eligible" in found:
            raise NoEligibleClusterError(_field(found["no_eligible"], "reasons"))
        # Every field is checked before any money is held for it.
        selection = _field(found, "selection")
        price = parse_money("price", _field(selection, "price"))
        payee_account = _text(selection, "payee_account")
        address = _field(selection, "address")
        try:
            check_address("address", address)
        except ValidationError as exc:
            raise ClientError(f"malformed reply: {exc}") from None
        bid_token = _text(selection, "bid_token")
        cluster_id = _text(selection, "cluster_id")

        escrow_id = _field(self._call(self.config.bank, "bank.hold_escrow", {
            "payer": self.config.account_id, "payee": payee_account, "amount": price,
            "job_id": spec.job_id,
        }), "escrow_id")

        try:
            wire.rpc_call(
                address,
                "node.submit",
                {"spec": spec.to_dict(), "bid_token": bid_token, "escrow_id": escrow_id},
                timeout_ms=TIMEOUT_MS,
            )
        except wire.RpcError as exc:
            if exc.app_error_name() is not None:
                # The front-end definitively rejected (and refunds on its
                # side); confirm the refund and report.
                self._confirm_refund(escrow_id, payee_account, spec.job_id, price)
                raise SubmissionRejected(f"submission rejected: {exc.message}") from None
            # Transport trouble: the node may or may not have accepted.
            try:
                self.job_status(spec.job_id, address)
            except UnknownEntityError:
                self._confirm_refund(escrow_id, payee_account, spec.job_id, price)
                raise SubmissionRejected(f"submission failed: {exc.message}") from None
            except ClientError:
                raise ClientError(
                    f"submission outcome unknown, escrow {escrow_id} may still "
                    f"be held: {exc.message}"
                ) from None
        return {
            "job_id": spec.job_id,
            "cluster_id": cluster_id,
            "price": money(price),
            "escrow_id": escrow_id,
        }

    def _confirm_refund(
        self, escrow_id: str, payee_account: str, job_id: str, price: int
    ) -> None:
        """The rejecting front-end refunds on its own; this asks the bank,
        read-only, whether the escrow is still held, and warns if it is or
        if the bank cannot say. Only the payee cluster may settle, so the
        client sends the bank no secret."""
        params = {
            "escrow_id": escrow_id, "payee": payee_account, "job_id": job_id, "min_amount": price
        }
        try:
            if not _field(self._call(self.config.bank, "bank.verify_escrow", params), "ok"):
                return
            problem = "is still held"
        except ClientError as exc:
            problem = f"refund unconfirmed: {exc}"
        print(f"warning: escrow {escrow_id} {problem}", file=sys.stderr)

    def job_status(self, job_id: str, node_address: str) -> dict[str, Any]:
        """The job's ``node.status`` object, checked by ``parse_status``."""
        reply = self._call(node_address, "node.status", {"job_id": job_id})
        return parse_status(_field(reply, "status"))

    def balance(self) -> int:
        params = {"account_id": self.config.account_id}
        reply = self._call(self.config.bank, "bank.balance", params)
        return parse_money("balance", _field(reply, "balance"))

    def deposit(self, amount: int) -> int:
        params = {"account_id": self.config.account_id, "amount": amount}
        reply = self._call(self.config.bank, "bank.deposit", params)
        return parse_money("balance", _field(reply, "balance"))


def _print_json(payload: Any) -> None:
    sys.stdout.write(canonical_encode(payload).decode("utf-8") + "\n")
    sys.stdout.flush()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sg", description="job market client")
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="submit a job to the cheapest cluster")
    submit.add_argument("--config", required=True)
    submit.add_argument("--spec", help="JSON file of job fields")
    submit.add_argument("--nodes", type=int)
    submit.add_argument("--walltime", type=int, dest="walltime_s")
    submit.add_argument(
        "--feature", action="append", dest="features", metavar="FEATURE"
    )
    submit.add_argument("--max-price", type=int, dest="max_price")
    submit.add_argument("--command", dest="job_command")
    submit.add_argument("--workdir")

    status = sub.add_parser("status", help="query a submitted job")
    status.add_argument("--config", required=True)
    status.add_argument("--job", required=True)
    status.add_argument("--node", required=True, metavar="HOST:PORT")

    balance = sub.add_parser("balance", help="show account balance")
    balance.add_argument("--config", required=True)

    deposit = sub.add_parser("deposit", help="deposit funds (test faucet)")
    deposit.add_argument("--config", required=True)
    deposit.add_argument("--amount", required=True, type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        session = ClientSession(ClientConfig.from_dict(load_config(args.config)))
        if args.command == "submit":
            overrides = {
                "nodes": args.nodes,
                "walltime_s": args.walltime_s,
                "required_features": args.features,
                "max_price": args.max_price,
                "command": args.job_command,
                "workdir": args.workdir,
            }
            spec = session.build_spec(args.spec, overrides)
            receipt = session.submit_job(spec)
            _print_json(receipt)
        elif args.command == "status":
            _print_json(session.job_status(args.job, args.node))
        elif args.command == "balance":
            _print_json({"balance": money(session.balance())})
        elif args.command == "deposit":
            _print_json({"balance": money(session.deposit(args.amount))})
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValidationError, wire.RpcError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
