"""The deployed market: ``sg-bank``, ``sg-broker`` and two ``sg-node``
processes on loopback, driven by ``sg`` as a user would drive them."""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from sgmarket import wire
from sgmarket.domain import parse_address

SRC = Path(__file__).resolve().parent.parent / "src"
PATHS = [str(SRC), os.environ.get("PYTHONPATH", "")]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in PATHS if p)}


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)


class _Fleet:
    """The service processes a test started, so it can stop every one."""

    def __init__(self, tmp_path: Path):
        self.tmp_path = tmp_path
        self.procs: list[subprocess.Popen] = []
        self.addresses: set[str] = set()  # called from this process

    def start(self, module: str, name: str, config: dict) -> tuple[subprocess.Popen, str]:
        """Start ``python -m sgmarket.<module>`` on ``config``; the process
        and the address it prints once it serves."""
        path = self.tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        with open(self.tmp_path / f"{name}.err", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", f"sgmarket.{module}", "--config", str(path)],
                stdout=subprocess.PIPE, stderr=err, env=ENV, text=True,
            )
        self.procs.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        line = proc.stdout.readline() if ready else ""
        assert line, (self.tmp_path / f"{name}.err").read_text()  # why it did not start
        return proc, line.strip()

    def call(self, address: str, method: str, **params):
        self.addresses.add(address)
        return wire.rpc_call(address, method, params, timeout_ms=2000)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        for address in self.addresses:  # this process's idle pooled connections
            wire._pool.drop(*parse_address(address))


def test_a_job_is_paid_for_across_a_bank_crash(tmp_path):
    """The bank dies by SIGKILL while a job runs; restarted from its log, it
    takes the front-end's retried settlement, and money is conserved. Each
    service stops on SIGINT with exit code 0."""
    fleet = _Fleet(tmp_path)
    secrets = {cid: f"cs-{cid}" for cid in ("A", "B")}
    bank_config = {
        "listen": f"127.0.0.1:{_free_port()}",  # fixed, so a restart keeps it
        "cluster_secrets": secrets,
        "log_path": str(tmp_path / "bank.log"),
    }
    try:
        bank, bank_address = fleet.start("bank", "bank", bank_config)
        _, broker_address = fleet.start("broker", "broker", {"listen": "127.0.0.1:0"})
        for owner, kind in (("alice", "USER"), ("A", "CLUSTER"), ("B", "CLUSTER")):
            fleet.call(bank_address, "bank.create_account", owner=owner, kind=kind)
        fleet.call(bank_address, "bank.deposit", account_id="user:alice", amount=10000)
        nodes = {}
        for cid, secret in secrets.items():
            node_config = {
                "cluster_id": cid, "listen": "127.0.0.1:0",
                "broker": broker_address, "bank": bank_address,
                "capacity_nodes": 4, "capabilities": [], "base_rate": 1,
                "payee_account": f"cluster:{cid}", "cluster_secret": secret,
            }
            nodes[cid] = fleet.start("frontend", f"node-{cid}", node_config)
        def listed() -> list:
            return fleet.call(broker_address, "broker.list_clusters")["clusters"]

        _until(lambda: len(listed()) == 2)  # both nodes announced

        client = {"broker": broker_address, "bank": bank_address,
                  "account_id": "user:alice"}
        (tmp_path / "client.json").write_text(json.dumps(client))
        (tmp_path / "job.json").write_text(
            json.dumps({"nodes": 2, "walltime_s": 2, "command": "run", "workdir": "/d"})
        )
        submitted = subprocess.run(
            [sys.executable, "-m", "sgmarket.client", "submit", "--config",
             str(tmp_path / "client.json"), "--spec", str(tmp_path / "job.json")],
            capture_output=True, env=ENV, text=True, timeout=30,
        )
        assert submitted.returncode == 0, submitted.stderr
        receipt = json.loads(submitted.stdout)
        price = receipt["price"]["amount"]
        _, node_address = nodes[receipt["cluster_id"]]

        bank.kill()
        bank.wait()

        def state() -> str:
            reply = fleet.call(node_address, "node.status", job_id=receipt["job_id"])
            return reply["status"]["state"]

        _until(lambda: state() == "COMPLETED")  # its settlement found no bank
        fleet.start("bank", "bank", bank_config)
        payee = f"cluster:{receipt['cluster_id']}"

        def balance(account_id: str) -> int:
            reply = fleet.call(bank_address, "bank.balance", account_id=account_id)
            return reply["balance"]["amount"]

        _until(lambda: balance(payee) == price)
        assert balance("user:alice") == 10000 - price
        audit = fleet.call(bank_address, "bank.audit")
        assert audit == {"total_balances": {"amount": 10000}, "total_held": {"amount": 0}}

        for proc in reversed(fleet.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=10) == 0
    finally:
        fleet.stop()


def test_a_service_started_with_sigint_ignored_stops_on_it(tmp_path):
    """A shell starts a background job (``cmd &``) with SIGINT ignored; the
    service still stops on SIGINT with exit code 0."""
    path = tmp_path / "broker.json"
    path.write_text(json.dumps({"listen": "127.0.0.1:0"}))
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)  # the child inherits it
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sgmarket.broker", "--config", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV, text=True,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready and proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
