"""User-facing CLI driving the full job lifecycle: validate the spec, ask the
broker for the cheapest cluster, escrow the price, submit, observe.

The escrow is created between selection and submission, so a front-end can
never charge without a prior quote; if the front-end then rejects the
submission, the money comes straight back.

Exit codes: 0 success, 2 no eligible cluster, 3 insufficient funds,
4 unknown job or account, 5 submission rejected (after refund), 1 anything
else.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .bank import BankClient
from .domain import (
    JobSpec,
    JobStatus,
    ValidationError,
    canonical_encode,
    parse_money,
    validate_jobspec,
)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_NO_ELIGIBLE = 2
EXIT_INSUFFICIENT_FUNDS = 3
EXIT_UNKNOWN_ENTITY = 4
EXIT_REJECTED = 5


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
    user: str
    secret: str
    account_id: str
    rng_seed: int | None = None
    timeout_ms: int = 5000

    def __post_init__(self) -> None:
        for name in ("broker", "bank"):
            try:
                wire.parse_address(getattr(self, name))
            except ValueError as exc:
                raise ValidationError(name, str(exc)) from None
        if not self.secret:
            raise ValidationError("secret", "must be non-empty")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClientConfig":
        return cls(
            broker=data["broker"],
            bank=data["bank"],
            user=data["user"],
            secret=data["secret"],
            account_id=data["account_id"],
            rng_seed=data.get("rng_seed"),
            timeout_ms=data.get("timeout_ms", 5000),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ClientConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def parse_spec(
    spec_path: str | Path | None,
    overrides: Mapping[str, Any],
    identity: Mapping[str, str],
) -> JobSpec:
    """Merge spec file fields, flag overrides (stronger), and the client's
    identity (job_id/user/secret, strongest), then validate."""
    record: dict[str, Any] = {}
    if spec_path is not None:
        with open(spec_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValidationError("spec", "spec file must hold a JSON object")
        record.update(loaded)
    record.update({k: v for k, v in overrides.items() if v is not None})
    record.update(identity)
    try:
        return validate_jobspec(record)
    except ValidationError as exc:
        if exc.reason == "missing required field":
            raise MissingRequiredField(exc.field) from None
        raise


def _map_rpc_error(exc: wire.RpcError) -> ClientError:
    name = exc.app_error_name()
    if name == "InsufficientFunds":
        return InsufficientFundsError(exc.message)
    if name in ("UnknownJob", "UnknownAccount"):
        return UnknownEntityError(exc.message)
    return ClientError(exc.message)


class ClientSession:
    """One configured user's view of the market."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self._rng = random.Random(config.rng_seed)
        self._bank = BankClient(config.bank, timeout_ms=config.timeout_ms)

    def mint_job_id(self) -> str:
        return f"{self._rng.getrandbits(128):032x}"

    def _call(self, address: str, method: str, params: Mapping[str, Any]) -> Any:
        try:
            return wire.rpc_call(
                address, method, params, timeout_ms=self.config.timeout_ms
            )
        except wire.RpcError as exc:
            raise _map_rpc_error(exc) from None

    def build_spec(
        self,
        spec_path: str | Path | None,
        overrides: Mapping[str, Any] | None = None,
        job_id: str | None = None,
    ) -> JobSpec:
        identity = {
            "job_id": job_id or self.mint_job_id(),
            "user": self.config.user,
            "secret": self.config.secret,
        }
        return parse_spec(spec_path, overrides or {}, identity)

    def submit_job(self, spec: JobSpec) -> dict[str, Any]:
        """Select, escrow, submit; returns the receipt
        {job_id, cluster_id, price, escrow_id}."""
        found = self._call(
            self.config.broker, "broker.find_cluster", {"spec": spec.to_dict()}
        )
        if "no_eligible" in found:
            raise NoEligibleClusterError(found["no_eligible"].get("reasons", {}))
        selection = found["selection"]
        price = parse_money("price", selection["price"]).amount
        payee_account = selection["payee_account"]

        try:
            escrow_id = self._bank.hold_escrow(
                payer=self.config.account_id,
                payee=payee_account,
                amount=price,
                job_id=spec.job_id,
            )
        except wire.RpcError as exc:
            raise _map_rpc_error(exc) from None

        try:
            wire.rpc_call(
                selection["address"],
                "node.submit",
                {
                    "spec": spec.to_dict(),
                    "bid_token": selection["bid_token"],
                    "escrow_id": escrow_id,
                },
                timeout_ms=self.config.timeout_ms,
            )
        except wire.RpcError as exc:
            if exc.app_error_name() is not None:
                # The front-end definitively rejected (and refunds on its
                # side); confirm the refund and report.
                self._confirm_refund(escrow_id, payee_account, spec.job_id, price)
                raise SubmissionRejected(f"submission rejected: {exc.message}") from None
            # Transport trouble: the node may or may not have accepted.
            try:
                self.job_status(spec.job_id, selection["address"])
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
            "cluster_id": selection["cluster_id"],
            "price": {"amount": price},
            "escrow_id": escrow_id,
        }

    def _confirm_refund(
        self, escrow_id: str, payee_account: str, job_id: str, price: int
    ) -> None:
        """The rejecting front-end refunds on its own; this asks the bank,
        read-only, whether the escrow is still held, and warns if it is or
        if the bank cannot say. Only the payee cluster may settle, so the
        user's secret never goes to the bank."""
        try:
            if not self._bank.verify_escrow(escrow_id, payee_account, job_id, price):
                return
            problem = "is still held"
        except wire.RpcError as exc:
            problem = f"refund unconfirmed: {exc.message}"
        print(f"warning: escrow {escrow_id} {problem}", file=sys.stderr)

    def job_status(self, job_id: str, node_address: str) -> JobStatus:
        result = self._call(node_address, "node.status", {"job_id": job_id})
        return JobStatus.from_dict(result["status"])

    def balance(self) -> int:
        try:
            return self._bank.balance(self.config.account_id)
        except wire.RpcError as exc:
            raise _map_rpc_error(exc) from None

    def deposit(self, amount: int) -> int:
        try:
            return self._bank.deposit(self.config.account_id, amount)
        except wire.RpcError as exc:
            raise _map_rpc_error(exc) from None


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
        session = ClientSession(ClientConfig.from_file(args.config))
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
            status = session.job_status(args.job, args.node)
            _print_json(status.to_dict())
        elif args.command == "balance":
            _print_json({"balance": {"amount": session.balance()}})
        elif args.command == "deposit":
            _print_json({"balance": {"amount": session.deposit(args.amount)}})
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValidationError, wire.RpcError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
