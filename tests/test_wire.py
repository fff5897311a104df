"""Framing golden bytes, round-trips, fuzz totality, and server behavior."""

import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, strategies as st

from sgmarket import wire
from sgmarket.domain import ServiceError
from sgmarket.wire import (
    FramingError,
    RpcError,
    RpcErrorCode,
    decode_message,
    encode_message,
    rpc_call,
)

from local_network import LocalNetwork


class _Boom(ServiceError):
    name = "Boom"


HANDLERS = {
    "ping": lambda params: True,
    "echo": lambda params: params,
    "boom": lambda params: (_ for _ in ()).throw(_Boom("it broke")),
    "bad": lambda params: (_ for _ in ()).throw(wire.InvalidParams("nope")),
    "slow": lambda params: time.sleep(params.get("s", 0.2)) or "done",
}


@pytest.fixture()
def server():
    srv = wire.serve("127.0.0.1:0", HANDLERS)
    yield srv
    srv.shutdown()


# -- framing -------------------------------------------------------------------

def test_request_golden_bytes():
    msg = {"id": "1", "method": "ping", "params": {}}
    assert encode_message(msg) == b'{"id":"1","method":"ping","params":{}}\n'


def test_response_golden_bytes():
    assert encode_message({"id": "1", "result": True}) == b'{"id":"1","result":true}\n'


def test_embedded_newline_is_escaped():
    payload = encode_message({"id": "1", "method": "echo", "params": {"s": "a\nb"}})
    assert payload.count(b"\n") == 1 and payload.endswith(b"\n")
    assert b"\\n" in payload
    assert b"\r" not in payload


def test_round_trip_of_golden_request():
    msg = {"id": "1", "method": "ping", "params": {}}
    assert decode_message(encode_message(msg)[:-1]) == msg


@pytest.mark.parametrize(
    "line",
    [
        b'{"id":"1"}',
        b"not json",
        b"[1,2,3]",
        b'{"id":"1","result":1,"error":{"code":1,"message":"x"}}',
        b'{"id":"","method":"ping","params":{}}',
        b'{"id":"1","method":"Ping!","params":{}}',
        b'{"id":"1","method":"ping","params":[]}',
        b'{"id":"1","method":"ping","params":{},"extra":1}',
        b'{"id":"1","result":1,"extra":true}',
        b'{"id":"1","error":{"code":"1","message":"x"}}',
        b'{"id":1,"method":"ping","params":{}}',
        b"\xff\xfe",
        # Past CPython's default limit of 4,300 digits, and nested past its
        # recursion limit: json.loads raises ValueError and RecursionError.
        pytest.param(
            b'{"id":"1","method":"ping","params":{"n":' + b"9" * 5000 + b"}}",
            id="huge-int-request",
        ),
        pytest.param(b'{"id":"1","result":' + b"9" * 5000 + b"}", id="huge-int-response"),
        pytest.param(
            b'{"id":"1","method":"ping","params":{"n":' + b"[" * 100_000 + b"}}",
            id="deep-request",
        ),
        pytest.param(b'{"id":"1","result":' + b"[" * 100_000 + b"}", id="deep-response"),
    ],
)
def test_decode_rejects_malformed(line):
    with pytest.raises(FramingError):
        decode_message(line)


@pytest.mark.parametrize(
    "line",
    [
        rb'{"id":"1","method":"ping","params":{"s":"\ud800"}}',
        rb'{"id":"1","method":"ping","params":{"\uDFFF":1}}',
        rb'{"id":"1","result":["ok \udc00"]}',
        rb'{"id":"1","result":"\ude00\ud83d"}',  # a pair in the wrong order
    ],
)
def test_decode_rejects_lone_surrogates(line):
    with pytest.raises(FramingError):
        decode_message(line)


@pytest.mark.parametrize(
    ("line", "text"),
    [
        (rb'{"id":"1","result":"\ud83d\ude00"}', "\U0001f600"),
        (rb'{"id":"1","result":"\ud7ff"}', "\ud7ff"),
        (rb'{"id":"1","result":"\\ud800"}', "\\ud800"),
    ],
)
def test_decode_keeps_what_only_looks_like_a_surrogate(line, text):
    assert decode_message(line) == {"id": "1", "result": text}


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

_requests = st.fixed_dictionaries(
    {
        "id": st.text(min_size=1, max_size=12),
        "method": st.text(alphabet="abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=16),
        "params": st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
    }
)

_responses = st.one_of(
    st.fixed_dictionaries({"id": st.text(max_size=12), "result": _json_values}),
    st.fixed_dictionaries(
        {
            "id": st.text(max_size=12),
            "error": st.fixed_dictionaries(
                {"code": st.integers(-(10**6), 10**6), "message": st.text(max_size=30)}
            ),
        }
    ),
)


@given(_requests | _responses)
def test_messages_round_trip(msg):
    encoded = encode_message(msg)
    assert encoded.count(b"\n") == 1 and encoded.endswith(b"\n")
    assert decode_message(encoded[:-1]) == msg


@given(st.binary(max_size=200))
def test_decode_is_total(line):
    try:
        decode_message(line)
    except FramingError:
        pass


# The decoder that built a frozen request or response object from each line,
# kept as the reference: the dict decoder must accept exactly the lines it
# accepted, return that object's to_dict(), and refuse the rest with the
# same FramingError text.


@dataclass(frozen=True)
class _Request:
    id: str
    method: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "method": self.method, "params": self.params}


@dataclass(frozen=True)
class _Response:
    id: str
    result: Any = None
    error: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        if self.error is not None:
            return {"id": self.id, "error": self.error}
        return {"id": self.id, "result": self.result}


def _reference_decode(line: bytes) -> _Request | _Response:
    try:
        text = line.decode("utf-8")
        data = json.loads(text)
        if "\\u" in text:
            wire.canonical_encode(data)
    except (ValueError, RecursionError) as exc:
        raise FramingError(f"not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FramingError("message must be a JSON object")
    if "method" in data:
        if set(data) != {"id", "method", "params"}:
            raise FramingError("request must have exactly id, method, params")
        rid, method, params = data["id"], data["method"], data["params"]
        if not isinstance(rid, str) or not rid:
            raise FramingError("request id must be a non-empty string")
        if not isinstance(method, str) or not wire._METHOD_RE.match(method):
            raise FramingError(f"bad method name {method!r}")
        if not isinstance(params, dict):
            raise FramingError("params must be a JSON object")
        return _Request(id=rid, method=method, params=params)
    if "result" in data or "error" in data:
        if "result" in data and "error" in data:
            raise FramingError("response has both result and error")
        if set(data) - {"id", "result", "error"}:
            raise FramingError("response has unknown fields")
        rid = data.get("id")
        if not isinstance(rid, str):
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
            error = {"code": int(err["code"]), "message": err["message"]}
            return _Response(id=rid, result=None, error=error)
        return _Response(id=rid, result=data["result"], error=None)
    raise FramingError("neither request nor response")


# Strings that pass or fail each check, lone surrogates among them.
_texts = (
    st.sampled_from(["", "1", "ping", "node.quote", "Ping!", "a b"])
    | st.text(max_size=6)
    | st.text(
        st.characters(min_codepoint=0xD7FF, max_codepoint=0xE000, categories=None), max_size=3
    )
)
_anything = _texts | _json_values
_codes = st.integers(-5, 5) | st.booleans() | st.floats(-5, 5) | _texts | st.none()
_params = st.dictionaries(_texts, _json_values, max_size=3) | _anything
_errors = (
    st.fixed_dictionaries({}, optional={"code": _codes, "message": _anything, "extra": _anything})
    | _anything
)
# Request and response shapes with values of the right type or not, and any
# subset of their keys plus a stray one: missing and extra keys, wrong types,
# result together with error, ids that are not strings.
_objects = st.one_of(
    st.fixed_dictionaries({"id": _anything, "method": _anything, "params": _params}),
    st.fixed_dictionaries({"id": _anything}, optional={"result": _anything, "error": _errors}),
    st.fixed_dictionaries(
        {},
        optional={
            "id": _anything,
            "method": _anything,
            "params": _params,
            "result": _anything,
            "error": _errors,
            "extra": _anything,
        },
    ),
)


def _assert_decodes_as_the_reference(line: bytes) -> None:
    def outcome(decode) -> Any:
        try:
            return decode(line)
        except FramingError as exc:
            return f"FramingError: {exc}"

    expected = outcome(lambda line: _reference_decode(line).to_dict())
    assert outcome(decode_message) == expected, line


@given(_requests | _responses | _objects | _anything, st.booleans())
def test_decode_matches_the_reference_decoder(obj, ensure_ascii):
    line = json.dumps(obj, ensure_ascii=ensure_ascii).encode("utf-8", "surrogatepass")
    _assert_decodes_as_the_reference(line)


# For each key, values that pass and fail its checks; every combination of
# them, each key possibly missing, is one object.
_FIELD_VALUES = {
    "id": ["1", "", 1, None, ["1"]],
    "method": ["ping", "node.quote", "Ping!", "", 1],
    "params": [{}, {"a": [1]}, [], None],
    "result": [None, True, "x", {"id": "1"}],
    "error": [
        {"code": 4, "message": "x"},
        {"code": -1, "message": ""},
        {"code": True, "message": "x"},
        {"code": 1.0, "message": "x"},
        {"code": "1", "message": "x"},
        {"code": 1},
        {"message": "x"},
        {"code": 1, "message": 1},
        {"code": 1, "message": "x", "extra": 1},
        None,
        "x",
    ],
    "extra": [0],
}
_MISSING = object()


def test_decode_matches_the_reference_decoder_on_every_combination():
    keys = list(_FIELD_VALUES)
    choices = [[_MISSING, *values] for values in _FIELD_VALUES.values()]
    for values in itertools.product(*choices):
        obj = {key: value for key, value in zip(keys, values) if value is not _MISSING}
        _assert_decodes_as_the_reference(json.dumps(obj).encode("ascii"))


# -- client/server behavior ----------------------------------------------------

def test_rpc_call_ping(server):
    assert rpc_call(server.address, "ping", {}, timeout_ms=2000) is True


def _reply(server, method, params):
    """``server``'s reply to ``method`` over TCP, a result or ``(code, message)``,
    once checked to be the reply ``tests/local_network.py`` gives too."""

    def reply():
        (outcome,) = wire.rpc_fanout([server.address], method, params, 2000)
        return (outcome.code, outcome.message) if isinstance(outcome, RpcError) else outcome

    over_tcp = reply()
    with LocalNetwork({server.address: HANDLERS}):
        assert reply() == over_tcp
    return over_tcp


def test_rpc_call_echoes_params(server):
    params = {"x": [1, 2, {"y": None}]}
    assert rpc_call(server.address, "echo", params, timeout_ms=2000) == params
    assert _reply(server, "echo", params) == params


def test_unknown_method_is_code_2(server):
    assert _reply(server, "no_such_method", {}) == (
        RpcErrorCode.UNKNOWN_METHOD, "unknown method 'no_such_method'"
    )


def test_service_error_maps_to_code_4_with_name(server):
    with pytest.raises(RpcError) as err:
        rpc_call(server.address, "boom", {}, timeout_ms=2000)
    assert err.value.code == RpcErrorCode.APPLICATION_ERROR
    assert err.value.app_error_name() == "Boom"
    assert "it broke" in err.value.message
    assert _reply(server, "boom", {}) == (RpcErrorCode.APPLICATION_ERROR, "Boom: it broke")


def test_invalid_params_maps_to_code_3(server):
    assert _reply(server, "bad", {}) == (RpcErrorCode.INVALID_PARAMS, "InvalidParams: nope")


def test_timeout_on_silent_socket():
    silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    silent.bind(("127.0.0.1", 0))
    silent.listen(8)
    host, port = silent.getsockname()
    started = time.monotonic()
    with pytest.raises(RpcError) as err:
        rpc_call(f"{host}:{port}", "ping", {}, timeout_ms=100)
    elapsed = time.monotonic() - started
    assert err.value.code == RpcErrorCode.TIMEOUT
    assert 0.05 <= elapsed < 1.0
    silent.close()


def test_connection_refused_maps_to_timeout_semantics():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    _, free_port = probe.getsockname()
    probe.close()
    with pytest.raises(RpcError) as err:
        rpc_call(f"127.0.0.1:{free_port}", "ping", {}, timeout_ms=2000)
    assert err.value.code == RpcErrorCode.TIMEOUT


def test_rpc_call_accepts_a_host_name(server):
    address = f"localhost:{server.port}"
    assert rpc_call(address, "ping", {}, timeout_ms=2000) is True


@pytest.mark.parametrize("bind", ["127.0.0.1", "0.0.0.0"])
def test_shutdown_closes_idle_connections_opened_by_host_name(bind):
    srv = wire.serve(f"{bind}:0", {"ping": lambda params: True})
    address = f"localhost:{srv.port}"
    try:
        assert rpc_call(address, "ping", {}, timeout_ms=2000) is True
        pooled = list(wire._pool._idle[address])
        assert pooled
    finally:
        srv.shutdown()
    assert not wire._pool._idle.get(address)
    assert all(sock.fileno() == -1 for sock in pooled)


@pytest.mark.parametrize(
    "address",
    [
        "127.0.0.1",
        ":80",
        "127.0.0.1:",
        "127.0.0.1:http",
        "127.0.0.1:65536",
        "127.0.0.1:١٢٣",  # Arabic-Indic digits, once read as port 123
    ],
)
def test_rpc_call_rejects_a_malformed_address(address):
    with pytest.raises(ValueError):
        rpc_call(address, "ping", {}, timeout_ms=2000)


def test_rpc_call_rejects_a_non_positive_timeout(server):
    with pytest.raises(ValueError):
        rpc_call(server.address, "ping", {}, timeout_ms=0)


def test_overlong_request_line_closes_only_that_connection(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    try:
        try:
            sock.sendall(b"x" * (wire._MAX_LINE_BYTES + 1))
        except OSError:  # the server may close before it has read everything
            pass
        try:
            closed = sock.recv(1) == b""
        except ConnectionResetError:
            closed = True
        assert closed
    finally:
        sock.close()
    assert rpc_call(server.address, "ping", {}, timeout_ms=2000) is True


def test_fifty_concurrent_pings(server):
    results: list = [None] * 50

    def call(i: int) -> None:
        results[i] = rpc_call(server.address, "echo", {"i": i}, timeout_ms=5000)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(50)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [{"i": i} for i in range(50)]
    assert len(wire._pool._idle[server.address]) <= wire._MAX_IDLE_PER_ADDRESS


def test_sequential_requests_share_a_connection(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
    try:
        reader = sock.makefile("rb")
        for rid in ("a", "b"):
            sock.sendall(encode_message({"id": rid, "method": "ping", "params": {}}))
            response = decode_message(reader.readline().rstrip(b"\n"))
            assert response == {"id": rid, "result": True}
    finally:
        sock.close()


def test_malformed_line_gets_error_response(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
    try:
        sock.sendall(b"this is not json\n")
        reader = sock.makefile("rb")
        response = decode_message(reader.readline().rstrip(b"\n"))
        assert "method" not in response
        assert response.get("error") is not None
        assert response["error"]["code"] == RpcErrorCode.MALFORMED
    finally:
        sock.close()


def test_shutdown_completes_in_flight_request():
    srv = wire.serve("127.0.0.1:0", {"slow": lambda p: time.sleep(0.4) or "done"})
    result = {}

    def call() -> None:
        result["value"] = rpc_call(srv.address, "slow", {}, timeout_ms=5000)

    thread = threading.Thread(target=call)
    thread.start()
    time.sleep(0.15)  # let the request reach the handler
    srv.shutdown()
    thread.join(timeout=5.0)
    assert result.get("value") == "done"


# -- send failures and fan-out -------------------------------------------------

@pytest.fixture()
def resetting_peer():
    """Address of a peer that reads a little of a request, then resets."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    host, port = listener.getsockname()

    def reset_after_first_bytes() -> None:
        conn, _ = listener.accept()
        conn.recv(1024)
        conn.close()  # unread data pending, so the kernel answers with RST

    peer = threading.Thread(target=reset_after_first_bytes)
    peer.start()
    yield f"{host}:{port}"
    peer.join(timeout=5.0)
    listener.close()
    assert not peer.is_alive()


_BIG_PARAMS = {"blob": "x" * (8 * 1024 * 1024)}


def test_send_failure_maps_to_timeout(resetting_peer):
    with pytest.raises(RpcError) as err:
        rpc_call(resetting_peer, "echo", _BIG_PARAMS, timeout_ms=5000)
    assert err.value.code == RpcErrorCode.TIMEOUT


def test_fanout_send_failure_maps_to_timeout(resetting_peer):
    (outcome,) = wire.rpc_fanout([resetting_peer], "echo", _BIG_PARAMS, timeout_ms=5000)
    assert isinstance(outcome, RpcError)
    assert outcome.code == RpcErrorCode.TIMEOUT


def test_fanout_answers_every_address_in_order(server):
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    _, free_port = probe.getsockname()
    probe.close()
    addresses = [server.address, f"127.0.0.1:{free_port}", server.address]
    echoed, refused, again = wire.rpc_fanout(addresses, "echo", {"x": 1}, timeout_ms=2000)
    assert echoed == again == {"x": 1}
    assert isinstance(refused, RpcError) and refused.code == RpcErrorCode.TIMEOUT
    (malformed,) = wire.rpc_fanout(["127.0.0.1:65536"], "echo", {}, timeout_ms=2000)
    assert isinstance(malformed, RpcError) and malformed.code == RpcErrorCode.TIMEOUT
    (unknown,) = wire.rpc_fanout([server.address], "nope", {}, timeout_ms=2000)
    assert isinstance(unknown, RpcError) and unknown.code == RpcErrorCode.UNKNOWN_METHOD


# -- connection pool -----------------------------------------------------------

@pytest.fixture()
def connects(monkeypatch):
    """Every address ``wire._connect_nonblocking`` is asked for."""
    opened: list = []
    connect = wire._connect_nonblocking

    def counting(address):
        opened.append(address)
        return connect(address)

    monkeypatch.setattr(wire, "_connect_nonblocking", counting)
    return opened


def test_sequential_calls_share_one_connection(server, connects):
    for i in range(10):
        assert rpc_call(server.address, "echo", {"i": i}, timeout_ms=2000) == {"i": i}
    assert len(connects) == 1


def test_timed_out_call_does_not_pool_its_connection(server):
    with pytest.raises(RpcError) as err:
        rpc_call(server.address, "slow", {"s": 0.3}, timeout_ms=100)
    assert err.value.code == RpcErrorCode.TIMEOUT
    # Had the connection gone back to the pool, this call would read the
    # slow call's late reply.
    assert rpc_call(server.address, "echo", {"n": 1}, timeout_ms=2000) == {"n": 1}


def test_restarted_server_is_reached_on_a_fresh_connection(connects):
    first = wire.serve("127.0.0.1:0", {"who": lambda params: "first"})
    address = first.address
    assert rpc_call(address, "who", {}, timeout_ms=2000) == "first"
    first.shutdown()
    second = wire.serve(address, {"who": lambda params: "second"})
    try:
        assert rpc_call(address, "who", {}, timeout_ms=2000) == "second"
    finally:
        second.shutdown()
    assert len(connects) == 2


def test_connection_its_peer_closed_is_not_reused(connects):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    listener.settimeout(5.0)
    host, port = listener.getsockname()
    closed = threading.Event()

    def answer_once_per_connection() -> None:
        for _ in range(2):
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                request = decode_message(reader.readline().rstrip(b"\n"))
                conn.sendall(encode_message({"id": request["id"], "result": True}))
            closed.set()

    peer = threading.Thread(target=answer_once_per_connection)
    peer.start()
    try:
        assert rpc_call(f"{host}:{port}", "ping", {}, timeout_ms=2000) is True
        assert closed.wait(timeout=5.0)
        assert rpc_call(f"{host}:{port}", "ping", {}, timeout_ms=2000) is True
    finally:
        peer.join(timeout=5.0)
        listener.close()
        wire._pool.drop(host, port)
    assert not peer.is_alive()
    assert len(connects) == 2
