"""Line-delimited JSON RPC: framing, one pooled non-blocking client
exchange, a threaded server, and the service runner :func:`run_service`.

Transport contract: raw TCP, one message per line, each line the canonical
JSON of a request or response followed by a single LF. A message is that
JSON object, a plain dict: :func:`encode_message` writes one, and
:func:`decode_message` returns one once it has checked its shape. JSON
string escaping guarantees no raw LF/CR ever appears inside a payload, so
LF is an unambiguous frame boundary. One request is in flight per
connection at a time, and a connection carries any number of requests in
sequence. Both sides read lines with one reader, which gives up on a line
longer than ``_MAX_LINE_BYTES``: the client answers MALFORMED, the server
closes that connection.

Client side, every call goes through :func:`rpc_fanout`, which sends one
request to many addresses from the calling thread and collects the replies
under one shared deadline; :func:`rpc_call` is the fan-out to one address.
Both draw on one process-wide pool of idle connections keyed by address. A
call takes an idle connection whose peer has not closed it, or opens a new
non-blocking one, and hands it back only after a clean reply; any error or
timeout closes it. A request is never sent twice. Services call each
other only through ``wire.rpc_fanout``, the one seam a test replaces.

Server side, one process-wide acceptor thread accepts for every
:class:`Server` and gives each connection a thread of its own, which serves
that connection's requests in order, each through :func:`handle_line`.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import logging
import os
import re
import select
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Mapping, Sequence

from .domain import (
    ServiceError,
    ValidationError,
    canonical_encode,
    load_config,
    parse_address,
)

log = logging.getLogger(__name__)

_METHOD_RE = re.compile(r"^[a-z_.]+$")

# Far above any line the market sends. A serving thread spends most of its
# life parked in recv on an idle pooled connection, and CPython allocates the
# whole recv buffer before it blocks.
_RECV_CHUNK = 4096
_MAX_LINE_BYTES = 4 * 1024 * 1024
_MAX_IDLE_PER_ADDRESS = 4


class RpcErrorCode(IntEnum):
    MALFORMED = 1
    UNKNOWN_METHOD = 2
    INVALID_PARAMS = 3
    APPLICATION_ERROR = 4
    TIMEOUT = 5


class FramingError(Exception):
    """A byte line that is not a well-formed request or response."""

    code = RpcErrorCode.MALFORMED


class RpcError(Exception):
    """An RPC failure: remote error response, timeout, or framing trouble."""

    def __init__(self, code: int, message: str):
        super().__init__(f"rpc error {code}: {message}")
        self.code = code
        self.message = message

    def app_error_name(self) -> str | None:
        """The domain error name for APPLICATION_ERROR responses, if any."""
        if self.code != RpcErrorCode.APPLICATION_ERROR:
            return None
        name, sep, _ = self.message.partition(":")
        return name if sep and name.isidentifier() else None


class InvalidParams(ServiceError):
    """Raised by handlers when request params are structurally wrong."""

    name = "InvalidParams"


def encode_message(message: dict[str, Any]) -> bytes:
    """One canonical-JSON line terminated by a single LF."""
    return canonical_encode(message) + b"\n"


def decode_message(line: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_message`: the request or response object on
    ``line``, once it has been checked to be exactly one of
    ``{"id", "method", "params"}``, ``{"id", "result"}`` or
    ``{"id", "error": {"code", "message"}}``; raises :class:`FramingError`
    on anything else. A null result is still a result."""
    try:
        text = line.decode("utf-8")
        data = json.loads(text)
        # Only a \uD800-\uDFFF escape decodes to a lone surrogate, which UTF-8
        # cannot encode; encode_message escapes nothing but control characters.
        if "\\u" in text:
            canonical_encode(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers UnicodeError, JSONDecodeError and an integer
        # past CPython's digit limit; RecursionError, nesting too deep.
        raise FramingError(f"not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FramingError("message must be a JSON object")
    if "method" in data:
        if set(data) != {"id", "method", "params"}:
            raise FramingError("request must have exactly id, method, params")
        rid, method, params = data["id"], data["method"], data["params"]
        if not isinstance(rid, str) or not rid:
            raise FramingError("request id must be a non-empty string")
        if not isinstance(method, str) or not _METHOD_RE.match(method):
            raise FramingError(f"bad method name {method!r}")
        if not isinstance(params, dict):
            raise FramingError("params must be a JSON object")
        return data
    if "result" in data or "error" in data:
        if "result" in data and "error" in data:
            raise FramingError("response has both result and error")
        if set(data) - {"id", "result", "error"}:
            raise FramingError("response has unknown fields")
        if not isinstance(data.get("id"), str):
            raise FramingError("response id must be a string")
        if "error" in data:
            err = data["error"]
            if (
                not isinstance(err, dict)
                or set(err) != {"code", "message"}
                or not isinstance(err["code"], int)
                or isinstance(err["code"], bool)
                or not isinstance(err["message"], str)
            ):
                raise FramingError("error must be {code: int, message: str}")
        return data
    raise FramingError("neither request nor response")


_request_ids = itertools.count(1)


def _take_line(buf: bytearray) -> bytes | None:
    """Remove the first LF-terminated line from ``buf`` and return it,
    terminator stripped; None while the line is incomplete. A partial line
    longer than ``_MAX_LINE_BYTES`` raises MALFORMED."""
    newline = buf.find(b"\n")
    if newline < 0:
        if len(buf) > _MAX_LINE_BYTES:
            raise RpcError(RpcErrorCode.MALFORMED, "line too long")
        return None
    line = bytes(buf[:newline])
    del buf[: newline + 1]
    return line


def _decode_reply(line: bytes, request_id: str) -> dict[str, Any]:
    try:
        response = decode_message(line)
    except FramingError as exc:
        raise RpcError(RpcErrorCode.MALFORMED, f"bad response frame: {exc}") from None
    if "method" in response or response["id"] != request_id:
        raise RpcError(RpcErrorCode.MALFORMED, "response does not match request")
    return response


def _peer_closed(sock: socket.socket) -> bool:
    """On an idle connection, readable means the peer closed or reset it,
    or sent bytes nobody asked for; either way it is unusable."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _ConnectionPool:
    """Idle client connections keyed by address. A connection is either
    idle here or in use by exactly one call."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[str, list[socket.socket]] = {}

    def take(self, address: str) -> socket.socket | None:
        """An idle connection to ``address`` that is still open, if any."""
        while True:
            with self._lock:
                idle = self._idle.get(address)
                if not idle:
                    return None
                sock = idle.pop()
            if not _peer_closed(sock):
                return sock
            sock.close()

    def put(self, address: str, sock: socket.socket) -> None:
        with self._lock:
            idle = self._idle.setdefault(address, [])
            if len(idle) < _MAX_IDLE_PER_ADDRESS:
                idle.append(sock)
                return
        sock.close()

    def drop(self, host: str, port: int) -> None:
        """Close every idle connection to ``(host, port)``, whatever address
        string opened it (host ``0.0.0.0`` matches any), and any that has
        lost its peer."""
        with self._lock:
            for idle in self._idle.values():
                for sock in [s for s in idle if _peer_is(s, host, port)]:
                    idle.remove(sock)
                    sock.close()


def _peer_is(sock: socket.socket, host: str, port: int) -> bool:
    try:
        peer_host, peer_port = sock.getpeername()
    except OSError:
        return True
    return peer_port == port and host in (peer_host, "0.0.0.0")


_pool = _ConnectionPool()


def _connect_nonblocking(address: str) -> socket.socket:
    host_port = parse_address(address)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = sock.connect_ex(host_port)  # resolving a host name may raise
        if err not in (0, errno.EINPROGRESS):
            raise OSError(err, os.strerror(err))
    except OSError:
        sock.close()
        raise
    return sock


@dataclass(slots=True)
class _Exchange:
    """One request in flight on a non-blocking connection: what is left to
    send, then what has arrived of the reply."""

    index: int
    address: str
    sock: socket.socket
    unsent: memoryview
    received: bytearray = field(default_factory=bytearray)

    def send(self) -> None:
        """Send as much of the rest of the request as the socket takes now."""
        try:
            self.unsent = self.unsent[self.sock.send(self.unsent):]
        except BlockingIOError:  # still connecting, or the send buffer is full
            pass
        except OSError as exc:
            raise RpcError(RpcErrorCode.TIMEOUT, f"send to {self.address} failed: {exc}") from None

    def receive(self) -> bytes | None:
        """Read what has arrived; the reply line once it is complete."""
        try:
            chunk = self.sock.recv(_RECV_CHUNK)
        except BlockingIOError:  # a spurious wake-up
            return None
        except OSError as exc:
            raise RpcError(RpcErrorCode.TIMEOUT, f"connection to {self.address} lost: {exc}") from None
        if not chunk:
            raise RpcError(RpcErrorCode.TIMEOUT, "connection closed before response")
        self.received.extend(chunk)
        return _take_line(self.received)


def rpc_fanout(
    addresses: Sequence[str],
    method: str,
    params: Mapping[str, Any] | None,
    timeout_ms: int,
) -> list[Any]:
    """Send the same request to every address at once from the calling
    thread, and wait for the replies until one shared deadline.

    Returns one entry per address, in order: the call's result, or an
    :class:`RpcError`. Connection failures, send failures and silence past
    the deadline all map to TIMEOUT semantics. Each request goes out as soon
    as its connection is open; addresses without an idle pooled connection
    get a non-blocking connect, so one whose connect hangs costs no more
    than the deadline. A connection goes back to the pool only when its
    reply ended what it had received; any error or timeout closes it.
    """
    if timeout_ms <= 0:
        raise ValueError("timeout_ms must be > 0")
    deadline = time.monotonic() + timeout_ms / 1000.0
    request_id = str(next(_request_ids))
    payload = encode_message({"id": request_id, "method": method, "params": dict(params or {})})
    results: list[Any] = [None] * len(addresses)
    poller = select.poll()
    in_flight: dict[int, _Exchange] = {}
    try:
        for index, address in enumerate(addresses):
            try:
                sock = _pool.take(address) or _connect_nonblocking(address)
            except (OSError, ValueError) as exc:
                results[index] = RpcError(
                    RpcErrorCode.TIMEOUT, f"cannot connect to {address}: {exc}"
                )
                continue
            exchange = _Exchange(index, address, sock, memoryview(payload))
            try:
                exchange.send()
            except RpcError as exc:
                results[index] = exc
                sock.close()
                continue
            in_flight[sock.fileno()] = exchange
            poller.register(sock, select.POLLOUT if exchange.unsent else select.POLLIN)
        while in_flight:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for fd, _ in poller.poll(remaining * 1000.0):
                exchange = in_flight[fd]
                try:
                    if exchange.unsent:
                        exchange.send()
                        if not exchange.unsent:
                            poller.modify(fd, select.POLLIN)
                        continue
                    line = exchange.receive()
                    if line is None:
                        continue
                    response = _decode_reply(line, request_id)
                except RpcError as exc:
                    results[exchange.index] = exc
                    poller.unregister(fd)
                    del in_flight[fd]
                    exchange.sock.close()
                    continue
                poller.unregister(fd)
                del in_flight[fd]
                if exchange.received:
                    exchange.sock.close()
                else:
                    _pool.put(exchange.address, exchange.sock)
                error = response.get("error")
                results[exchange.index] = (
                    response["result"]
                    if error is None
                    else RpcError(error["code"], error["message"])
                )
    finally:
        for exchange in in_flight.values():
            results[exchange.index] = RpcError(
                RpcErrorCode.TIMEOUT, "timed out waiting for response"
            )
            exchange.sock.close()
    return results


def rpc_call(
    address: str,
    method: str,
    params: Mapping[str, Any] | None = None,
    timeout_ms: int = 2000,
) -> Any:
    """Send one request, wait for the matching response, return its result.

    This is :func:`rpc_fanout` to one address. Remote errors and transport
    trouble surface as :class:`RpcError`; a malformed address or a
    ``timeout_ms`` not above 0 raises :class:`ValueError`.
    """
    (outcome,) = rpc_fanout([address], method, params, timeout_ms)
    if isinstance(outcome, RpcError):
        # A malformed address never connects, so only a failed call checks it.
        parse_address(address)
        raise outcome
    return outcome


Handler = Callable[[dict[str, Any]], Any]


class _Acceptor:
    """The one thread that accepts connections for every :class:`Server` in
    the process. Listeners join and leave its selector from other threads
    while it waits; with epoll and kqueue, the default selectors on Linux
    and the BSDs, such changes take effect at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._selector: selectors.BaseSelector | None = None

    def add(self, listener: socket.socket, server: "Server") -> None:
        with self._lock:
            if self._selector is None:
                self._selector = selectors.DefaultSelector()
                threading.Thread(target=self._run, name="rpc-acceptor", daemon=True).start()
            self._selector.register(listener, selectors.EVENT_READ, server)

    def remove(self, listener: socket.socket) -> None:
        """Stop accepting on ``listener``; call before closing it."""
        with self._lock:
            self._selector.unregister(listener)

    def _run(self) -> None:
        while True:
            for key, _ in self._selector.select():
                try:
                    conn, peer = key.fileobj.accept()
                    conn.setblocking(True)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:  # the listener closed, or the client gave up
                    continue
                key.data._start_connection(conn, peer)


_acceptor = _Acceptor()


def _error_reply(request_id: str, code: RpcErrorCode, message: str) -> dict[str, Any]:
    return {"id": request_id, "error": {"code": int(code), "message": message}}


def handle_line(handlers: Mapping[str, Handler], line: bytes) -> dict[str, Any]:
    """The reply to one request line, through ``handlers``: the one
    dispatch every server answers with."""
    try:
        message = decode_message(line)
    except FramingError as exc:
        return _error_reply("", RpcErrorCode.MALFORMED, str(exc))
    rid, method = message["id"], message.get("method")
    if method is None:
        return _error_reply(rid, RpcErrorCode.MALFORMED, "expected a request")
    handler = handlers.get(method)
    if handler is None:
        return _error_reply(rid, RpcErrorCode.UNKNOWN_METHOD, f"unknown method {method!r}")
    try:
        result = handler(message["params"])
    except InvalidParams as exc:
        return _error_reply(rid, RpcErrorCode.INVALID_PARAMS, f"{exc.name}: {exc.detail}")
    except ServiceError as exc:
        return _error_reply(rid, RpcErrorCode.APPLICATION_ERROR, f"{exc.name}: {exc.detail}")
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("handler %s crashed", method)
        return _error_reply(rid, RpcErrorCode.APPLICATION_ERROR, f"InternalError: {exc!r}")
    return {"id": rid, "result": result}


class Server:
    """Threaded RPC server: one thread per connection, sequential requests
    per connection, orderly shutdown that completes in-flight requests."""

    def __init__(self, bind: str, handlers: Mapping[str, Handler]):
        host, port = parse_address(bind)
        self._handlers = dict(handlers)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(128)
        except OSError:
            self._listener.close()  # a port in use leaves no socket behind
            raise
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._shutdown = threading.Event()
        self._conn_threads: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        _acceptor.add(self._listener, self)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _start_connection(self, conn: socket.socket, peer: tuple) -> None:
        """Serve a newly accepted connection on a thread of its own."""
        thread = threading.Thread(
            target=self._serve_connection,
            args=(conn,),
            name=f"rpc-conn-{peer[1]}",
            daemon=True,
        )
        with self._conn_lock:
            if self._shutdown.is_set():
                conn.close()
                return
            self._conns.add(conn)
            self._conn_threads.add(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        buf = bytearray()
        try:
            while not self._shutdown.is_set():
                line = _take_line(buf)
                if line is not None:
                    conn.sendall(encode_message(handle_line(self._handlers, line)))
                    continue
                chunk = conn.recv(_RECV_CHUNK)
                if not chunk:
                    break
                buf.extend(chunk)
        except (OSError, RpcError):  # the peer left, or sent a line past the bound
            pass
        finally:
            conn.close()
            with self._conn_lock:
                self._conns.discard(conn)
                self._conn_threads.discard(threading.current_thread())

    def shutdown(self) -> None:
        """Stop accepting, finish in-flight requests, close all connections."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        _acceptor.remove(self._listener)
        self._listener.close()
        with self._conn_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RD)  # wakes idle recv; writes still ok
                except OSError:
                    pass
            threads = list(self._conn_threads)
        for thread in threads:
            thread.join(timeout=5.0)
        # This process's idle connections to the server are dead now.
        _pool.drop(self.host, self.port)


def serve(bind: str, handlers: Mapping[str, Handler]) -> Server:
    """Start a server on ``bind`` (``host:port``, port 0 for ephemeral)."""
    return Server(bind, handlers)


def run_service(
    prog: str,
    start: Callable[[dict[str, Any], contextlib.ExitStack], str],
    argv: list[str] | None = None,
) -> int:
    """Run one service from ``--config``: ``start(config, stack)`` builds it,
    pushing each step of its shutdown onto ``stack``, and returns the address
    it serves. That address goes to stdout as one line, so a service told to
    listen on port 0 can be found. The service runs until SIGINT, even if
    it was started with SIGINT ignored, then the stack unwinds. A refused
    config unwinds what was already built and exits 1 with one error line
    on stderr."""
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--config", required=True, help="path to the config JSON")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    with contextlib.ExitStack() as stack:
        try:
            address = start(load_config(args.config), stack)
        except (ValidationError, OSError, ValueError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return 1
        # A shell starts a background job with SIGINT ignored, and Python
        # keeps it so. Set before the address is out, so a caller that has
        # read it may signal at once; importing this module loads no signal.
        import signal

        signal.signal(signal.SIGINT, signal.default_int_handler)
        with contextlib.suppress(KeyboardInterrupt):
            print(address, flush=True)
            threading.Event().wait()
    return 0
