"""An in-process network for tests. It replaces ``wire.rpc_fanout``, the one
seam between services, and hands each request to a handler table in this
process. Requests and replies still pass through ``encode_message``,
``decode_message`` and ``wire.handle_line``, the dispatch every ``Server``
answers with, so a caller gets what it would get over TCP. Open it as a
context manager, also inside a Hypothesis ``@given`` body, where a
function-scoped fixture is not set up again for each example.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence
from unittest import mock

from sgmarket import wire


class LocalNetwork:
    """Addresses mapped to handler tables: ``bank.rpc_handlers(core)``,
    ``broker.rpc_handlers(core)``, ``frontend.rpc_handlers(core)`` or a dict
    of functions. An address it does not host answers TIMEOUT, as a refused
    connect does. ``requests`` logs each ``(address, method, params)`` in
    the order sent, and ``fanouts`` each call's ``(method, addresses)``; a
    fan-out delivers to its addresses one after another."""

    def __init__(self, hosts: Mapping[str, Mapping[str, wire.Handler]] | None = None):
        self.hosts = dict(hosts or {})
        self.requests: list[tuple[str, str, dict[str, Any]]] = []
        self.fanouts: list[tuple[str, list[str]]] = []
        self._faults: dict[tuple[str, str], list[wire.RpcError]] = {}
        self._lock = threading.Lock()
        self._patch = mock.patch.object(wire, "rpc_fanout", self.rpc_fanout)

    def __enter__(self) -> "LocalNetwork":
        self._patch.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._patch.stop()

    def fail(self, address: str, method: str, *errors: wire.RpcError) -> None:
        """Answer the next calls of ``method`` at ``address`` with
        ``errors``, one each in order, before answering normally again."""
        with self._lock:
            self._faults.setdefault((address, method), []).extend(errors)

    def sent(self, method: str) -> list[dict[str, Any]]:
        """The params of every ``method`` request, in the order sent."""
        with self._lock:
            return [params for _, name, params in self.requests if name == method]

    def rpc_fanout(
        self, addresses: Sequence[str], method: str, params: Mapping[str, Any] | None,
        timeout_ms: int,
    ) -> list[Any]:
        if timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        line = wire.encode_message({"id": "1", "method": method, "params": dict(params or {})})
        with self._lock:
            self.fanouts.append((method, list(addresses)))
        return [self._deliver(address, line) for address in addresses]

    def _deliver(self, address: str, line: bytes) -> Any:
        request = wire.decode_message(line)
        with self._lock:
            self.requests.append((address, request["method"], request["params"]))
            faults = self._faults.get((address, request["method"]))
            if faults:
                return faults.pop(0)
        handlers = self.hosts.get(address)
        if handlers is None:
            return wire.RpcError(wire.RpcErrorCode.TIMEOUT, f"nothing listens at {address}")
        reply = wire.decode_message(wire.encode_message(wire.handle_line(handlers, line)))
        error = reply.get("error")
        return reply["result"] if error is None else wire.RpcError(error["code"], error["message"])
