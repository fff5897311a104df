"""Framing golden bytes, round-trips, fuzz totality, and server behavior."""

import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from sgmarket import wire
from sgmarket.domain import ServiceError
from sgmarket.wire import (
    FramingError,
    RpcError,
    RpcErrorCode,
    RpcRequest,
    RpcResponse,
    decode_message,
    encode_message,
    rpc_call,
)


class _Boom(ServiceError):
    name = "Boom"


@pytest.fixture()
def server():
    handlers = {
        "ping": lambda params: True,
        "echo": lambda params: params,
        "boom": lambda params: (_ for _ in ()).throw(_Boom("it broke")),
        "bad": lambda params: (_ for _ in ()).throw(wire.InvalidParams("nope")),
        "slow": lambda params: time.sleep(params.get("s", 0.2)) or "done",
    }
    srv = wire.serve("127.0.0.1:0", handlers)
    yield srv
    srv.shutdown()


# -- framing -------------------------------------------------------------------

def test_request_golden_bytes():
    msg = RpcRequest(id="1", method="ping", params={})
    assert encode_message(msg) == b'{"id":"1","method":"ping","params":{}}\n'


def test_response_golden_bytes():
    assert encode_message(RpcResponse(id="1", result=True)) == b'{"id":"1","result":true}\n'


def test_embedded_newline_is_escaped():
    payload = encode_message(RpcRequest(id="1", method="echo", params={"s": "a\nb"}))
    assert payload.count(b"\n") == 1 and payload.endswith(b"\n")
    assert b"\\n" in payload
    assert b"\r" not in payload


def test_round_trip_of_golden_request():
    msg = RpcRequest(id="1", method="ping", params={})
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
    assert decode_message(line) == wire.ok_response("1", text)


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

_requests = st.builds(
    RpcRequest,
    id=st.text(min_size=1, max_size=12),
    method=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=16),
    params=st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
)

_responses = st.one_of(
    st.builds(wire.ok_response, st.text(max_size=12), _json_values),
    st.builds(
        wire.error_response,
        st.text(max_size=12),
        st.integers(-(10**6), 10**6),
        st.text(max_size=30),
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


# -- client/server behavior ----------------------------------------------------

def test_rpc_call_ping(server):
    assert rpc_call(server.address, "ping", {}, timeout_ms=2000) is True


def test_rpc_call_echoes_params(server):
    params = {"x": [1, 2, {"y": None}]}
    assert rpc_call(server.address, "echo", params, timeout_ms=2000) == params


def test_unknown_method_is_code_2(server):
    with pytest.raises(RpcError) as err:
        rpc_call(server.address, "no_such_method", {}, timeout_ms=2000)
    assert err.value.code == RpcErrorCode.UNKNOWN_METHOD


def test_service_error_maps_to_code_4_with_name(server):
    with pytest.raises(RpcError) as err:
        rpc_call(server.address, "boom", {}, timeout_ms=2000)
    assert err.value.code == RpcErrorCode.APPLICATION_ERROR
    assert err.value.app_error_name() == "Boom"
    assert "it broke" in err.value.message


def test_invalid_params_maps_to_code_3(server):
    with pytest.raises(RpcError) as err:
        rpc_call(server.address, "bad", {}, timeout_ms=2000)
    assert err.value.code == RpcErrorCode.INVALID_PARAMS


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
            sock.sendall(encode_message(RpcRequest(id=rid, method="ping", params={})))
            response = decode_message(reader.readline().rstrip(b"\n"))
            assert response == wire.ok_response(rid, True)
    finally:
        sock.close()


def test_malformed_line_gets_error_response(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=2.0)
    try:
        sock.sendall(b"this is not json\n")
        reader = sock.makefile("rb")
        response = decode_message(reader.readline().rstrip(b"\n"))
        assert isinstance(response, RpcResponse)
        assert response.error is not None
        assert response.error["code"] == RpcErrorCode.MALFORMED
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
                conn.sendall(encode_message(wire.ok_response(request.id, True)))
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
