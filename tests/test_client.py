"""Spec parsing precedence, the submit flow, exit codes, and the CLI."""

import json

import pytest

from sgmarket import bank, broker, client, frontend, wire
from sgmarket.client import (
    ClientConfig,
    ClientSession,
    MissingRequiredField,
    parse_spec,
)
from sgmarket.domain import (
    JOB_ID_RE,
    ClusterDescriptor,
    ValidationError,
    canonical_encode,
    validate_jobspec,
)

from local_network import LocalNetwork

JOB_ID = "d" * 32


def _spec_file(tmp_path, **fields):
    record = {"nodes": 4, "walltime_s": 100, "command": "run", "workdir": "/data"}
    record.update(fields)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(record))
    return path


def _client_config_file(tmp_path, runtime, login="alice", account_id=None):
    config = {
        "broker": runtime.broker_server.address,
        "bank": runtime.bank_server.address,
        "account_id": account_id or runtime.user_accounts[login],
    }
    path = tmp_path / "client.json"
    path.write_text(json.dumps(config))
    return path


ONE_CLUSTER = [{"cluster_id": "solo", "capacity_nodes": 8, "base_rate": 1}]
FUNDED = [{"account": "alice", "initial_deposit": 10000}]


# -- parse_spec -------------------------------------------------------------------

def test_flag_overrides_beat_file_fields(tmp_path):
    path = _spec_file(tmp_path)
    spec = parse_spec(path, {"nodes": 8}, JOB_ID)
    assert spec.nodes == 8
    assert spec.walltime_s == 100


def test_missing_command_is_named(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"nodes": 1, "walltime_s": 1, "workdir": "/d"}))
    with pytest.raises(MissingRequiredField) as err:
        parse_spec(path, {}, JOB_ID)
    assert err.value.field == "command"


def test_flags_only_spec_is_enough():
    overrides = {"nodes": 2, "walltime_s": 5, "command": "x", "workdir": "/d"}
    spec = parse_spec(None, overrides, JOB_ID)
    assert (spec.nodes, spec.walltime_s) == (2, 5)


def test_bad_field_still_validation_error(tmp_path):
    path = _spec_file(tmp_path, nodes=0)
    with pytest.raises(ValidationError):
        parse_spec(path, {}, JOB_ID)


def test_none_overrides_do_not_mask_file(tmp_path):
    path = _spec_file(tmp_path, nodes=6)
    spec = parse_spec(path, {"nodes": None, "walltime_s": None}, JOB_ID)
    assert spec.nodes == 6


# -- job ids ------------------------------------------------------------------------

def test_sessions_from_one_config_mint_different_job_ids():
    """Two ``sg submit`` runs from one config are two sessions: a seeded
    client once minted the same id in both, and the second was refused."""
    config = ClientConfig(broker="127.0.0.1:1", bank="127.0.0.1:2", account_id="user:alice")
    terms = {"nodes": 1, "walltime_s": 1, "command": "run", "workdir": "/d"}
    ids = [ClientSession(config).build_spec(None, terms).job_id for _ in range(2)]
    assert ids[0] != ids[1]
    assert all(JOB_ID_RE.match(job_id) for job_id in ids)


# -- one job's exchanges ---------------------------------------------------------------

def test_one_job_sends_find_quotes_hold_submit_verify_settle(market_factory):
    """One job's submission and the tick that ends it send exactly these
    requests; a quote carries only the spec, never a credential."""
    runtime = market_factory(
        clusters=[{"cluster_id": cid, "capacity_nodes": 8, "base_rate": 1} for cid in "AB"],
        users=FUNDED,
    )
    broker_at, bank_at = runtime.broker_server.address, runtime.bank_server.address
    a, b = runtime.frontends
    hosts = {s.address: frontend.rpc_handlers(s.core) for s in runtime.frontends}
    hosts[broker_at] = broker.rpc_handlers(runtime.broker_core)
    hosts[bank_at] = bank.rpc_handlers(runtime.bank_core)
    with LocalNetwork(hosts) as network:
        session = runtime.sessions["alice"]
        terms = {"nodes": 4, "walltime_s": 100, "command": "run", "workdir": "/data"}
        assert session.submit_job(session.build_spec(None, terms))["cluster_id"] == "A"
        a.core.tick(100)
    assert [(address, method) for address, method, _ in network.requests] == [
        (broker_at, "broker.find_cluster"),
        (a.address, "node.quote"),
        (b.address, "node.quote"),
        (bank_at, "bank.hold_escrow"),
        (a.address, "node.submit"),
        (bank_at, "bank.verify_escrow"),
        (bank_at, "bank.settle_escrow"),
    ]
    assert [set(params) for params in network.sent("node.quote")] == [{"spec"}, {"spec"}]
    assert runtime.bank_core.account_balances()["cluster:A"] == 400


# -- full lifecycle over the CLI ------------------------------------------------------

def test_submit_status_balance_lifecycle(tmp_path, capsys, market_factory):
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)

    assert client.main(["submit", "--config", str(config), "--spec", str(spec)]) == 0
    receipt = json.loads(capsys.readouterr().out.strip())
    assert receipt["cluster_id"] == "solo"
    assert receipt["price"] == {"amount": 400}

    node_address = runtime.frontends[0].address
    rc = client.main(
        ["status", "--config", str(config), "--job", receipt["job_id"], "--node", node_address]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip())["state"] == "QUEUED"

    runtime.frontends[0].core.tick(101)

    client.main(
        ["status", "--config", str(config), "--job", receipt["job_id"], "--node", node_address]
    )
    status = json.loads(capsys.readouterr().out.strip())
    assert status["state"] == "COMPLETED"

    assert client.main(["balance", "--config", str(config)]) == 0
    balance = json.loads(capsys.readouterr().out.strip())
    assert balance == {"balance": {"amount": 9600}}

    escrow = runtime.bank_core.get_escrow(receipt["escrow_id"])
    assert escrow.state.value == "RELEASED"


def test_no_clusters_exits_2_without_escrow(tmp_path, capsys, market_factory):
    runtime = market_factory(clusters=[], users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)
    rc = client.main(["submit", "--config", str(config), "--spec", str(spec)])
    assert rc == client.EXIT_NO_ELIGIBLE
    assert runtime.bank_core.audit() == {"total_balances": 10000, "total_held": 0}
    assert runtime.bank_core.escrow_records() == []


def test_empty_balance_exits_3_and_nothing_enqueued(tmp_path, market_factory):
    runtime = market_factory(
        clusters=ONE_CLUSTER, users=[{"account": "alice", "initial_deposit": 0}]
    )
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)
    rc = client.main(["submit", "--config", str(config), "--spec", str(spec)])
    assert rc == client.EXIT_INSUFFICIENT_FUNDS
    assert runtime.frontends[0].core.scheduler.jobs == {}
    assert runtime.bank_core.escrow_records() == []


def test_unknown_job_exits_4(tmp_path, market_factory):
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    rc = client.main(
        [
            "status",
            "--config",
            str(config),
            "--job",
            "f" * 32,
            "--node",
            runtime.frontends[0].address,
        ]
    )
    assert rc == client.EXIT_UNKNOWN_ENTITY


def test_unknown_account_exits_4(tmp_path, market_factory):
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime, account_id="user:ghost")
    rc = client.main(["balance", "--config", str(config)])
    assert rc == client.EXIT_UNKNOWN_ENTITY


def test_rejected_submission_exits_5_after_refund(
    tmp_path, capsys, market_factory, monkeypatch
):
    """A bid token altered in transit is no live quote: the front-end
    answers ``UnknownQuote`` and refunds, and the client confirms the
    refund without a warning."""
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)
    rpc_call = wire.rpc_call

    def tampering(address, method, params=None, *args, **kwargs):
        if method == "node.submit":
            token = params["bid_token"]
            params = {**params, "bid_token": token[:-1] + ("1" if token[-1] == "0" else "0")}
        return rpc_call(address, method, params, *args, **kwargs)

    monkeypatch.setattr(wire, "rpc_call", tampering)
    rc = client.main(["submit", "--config", str(config), "--spec", str(spec)])
    assert rc == client.EXIT_REJECTED
    err = capsys.readouterr().err
    assert "UnknownQuote" in err
    assert "warning" not in err
    # the front-end refunded; no money stranded
    assert runtime.bank_core.audit() == {"total_balances": 10000, "total_held": 0}
    assert runtime.bank_core.balance(runtime.user_accounts["alice"]) == 10000
    assert runtime.frontends[0].core.scheduler.jobs == {}


def test_rejected_submission_sends_no_user_secret_to_the_bank(
    tmp_path, capsys, market_factory, monkeypatch
):
    """A config that still holds an old user name and password is refused
    before any service is called, and the refund path of a rejected
    submission sends no secret either."""
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    clean = config.read_text()
    secret = "not-the-password"
    config.write_text(json.dumps({**json.loads(clean), "user": "alice", "secret": secret}))
    spec = _spec_file(tmp_path)
    sent: dict[str, list[str]] = {}
    rpc_call = wire.rpc_call

    def recording(address, method, params=None, *args, **kwargs):
        if method == "node.submit":
            token = params["bid_token"]
            params = {**params, "bid_token": token[:-1] + ("1" if token[-1] == "0" else "0")}
        sent.setdefault(address, []).append(json.dumps(params))
        return rpc_call(address, method, params, *args, **kwargs)

    monkeypatch.setattr(wire, "rpc_call", recording)
    assert client.main(["submit", "--config", str(config), "--spec", str(spec)]) == 1
    assert sent == {}
    assert "user: unknown field" in capsys.readouterr().err
    config.write_text(clean)
    rc = client.main(["submit", "--config", str(config), "--spec", str(spec)])
    assert rc == client.EXIT_REJECTED
    assert sent.get(runtime.bank_server.address)
    assert not any(secret in params for calls in sent.values() for params in calls)
    assert "warning" not in capsys.readouterr().err
    assert runtime.bank_core.audit() == {"total_balances": 10000, "total_held": 0}


def test_deposit_faucet_roundtrip(tmp_path, capsys, market_factory):
    runtime = market_factory(
        clusters=[], users=[{"account": "alice", "initial_deposit": 0}]
    )
    config = _client_config_file(tmp_path, runtime)
    assert client.main(["deposit", "--config", str(config), "--amount", "5000"]) == 0
    assert json.loads(capsys.readouterr().out.strip()) == {"balance": {"amount": 5000}}
    assert client.main(["balance", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out.strip()) == {"balance": {"amount": 5000}}


def test_receipt_is_single_canonical_line(tmp_path, capsys, market_factory):
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)
    client.main(["submit", "--config", str(config), "--spec", str(spec)])
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    parsed = json.loads(out)
    assert list(parsed) == sorted(parsed)


def test_max_price_flag_blocks_expensive_clusters(tmp_path, market_factory):
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)
    rc = client.main(
        ["submit", "--config", str(config), "--spec", str(spec), "--max-price", "399"]
    )
    assert rc == client.EXIT_NO_ELIGIBLE
    assert runtime.bank_core.escrow_records() == []


def test_feature_flags_are_repeatable_and_gate_clusters(tmp_path, market_factory):
    runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED)  # no capabilities
    config = _client_config_file(tmp_path, runtime)
    spec = _spec_file(tmp_path)
    rc = client.main(
        [
            "submit", "--config", str(config), "--spec", str(spec),
            "--feature", "deadline", "--feature", "reservation",
        ]
    )
    assert rc == client.EXIT_NO_ELIGIBLE


def test_identical_markets_produce_byte_identical_receipts(tmp_path, market_factory):
    receipts = []
    for _ in range(2):
        runtime = market_factory(clusters=ONE_CLUSTER, users=FUNDED, seed=5)
        session = ClientSession(
            ClientConfig(
                broker=runtime.broker_server.address,
                bank=runtime.bank_server.address,
                account_id=runtime.user_accounts["alice"],
            )
        )
        spec = session.build_spec(_spec_file(tmp_path), job_id="e" * 32)
        receipts.append(canonical_encode(session.submit_job(spec)))
    assert receipts[0] == receipts[1]


_CONFIG = {"broker": "127.0.0.1:1", "bank": "127.0.0.1:2", "account_id": "alice"}


@pytest.mark.parametrize("field", sorted(_CONFIG))
def test_config_names_a_missing_field(field):
    data = {name: value for name, value in _CONFIG.items() if name != field}
    with pytest.raises(ValidationError) as err:
        ClientConfig.from_dict(data)
    assert err.value.field == field


@pytest.mark.parametrize(
    "field, value",
    [("account_id", value) for value in ("", 5, None, ["alice"])]
    + [("broker", 5), ("bank", None)],
)
def test_config_identity_and_addresses_must_be_strings(field, value):
    with pytest.raises(ValidationError) as err:
        ClientConfig.from_dict({**_CONFIG, field: value})
    assert err.value.field == field


@pytest.mark.parametrize("field", ["user", "secret"])
def test_config_refuses_the_removed_credentials(field):
    """The client sends no name or password, so a config that still holds
    one is refused as any config with an unknown key is."""
    for value in ("pw", 5, None):
        with pytest.raises(ValidationError) as err:
            ClientConfig.from_dict({**_CONFIG, field: value})
        assert err.value.field == field


def test_config_refuses_a_misspelt_setting():
    """``timeout`` for the old ``timeout_ms`` once loaded on the default
    timeout."""
    with pytest.raises(ValidationError) as err:
        ClientConfig.from_dict({**_CONFIG, "timeout": 100})
    assert err.value.field == "timeout"


@pytest.mark.parametrize("field", ["broker", "bank"])
def test_config_peer_ports_must_be_at_least_1(field):
    """Port 0 tells a server to bind any free port; no peer listens on it."""
    with pytest.raises(ValidationError) as err:
        ClientConfig.from_dict({**_CONFIG, field: "127.0.0.1:0"})
    assert err.value.field == field


def test_config_refuses_an_rng_seed():
    """Job ids are random, so a config that still seeds them is refused
    as any config with an unknown key is."""
    with pytest.raises(ValidationError) as err:
        ClientConfig.from_dict({**_CONFIG, "rng_seed": 7})
    assert err.value.field == "rng_seed"


_BROKER, _NODE = _CONFIG["broker"], "127.0.0.1:3"
_SUBMIT = ["submit", "--nodes", "1", "--walltime", "1", "--command", "run", "--workdir", "/d"]
_STATUS = ["status", "--job", JOB_ID, "--node", _NODE]


@pytest.mark.parametrize(
    "argv, address, method, reply",
    [
        (_SUBMIT, _BROKER, "broker.find_cluster", {"selection": {"price": {"amount": 5}}}),
        (_SUBMIT, _BROKER, "broker.find_cluster", {}),
        (_SUBMIT, _BROKER, "broker.find_cluster", {"no_eligible": 5}),
        (_SUBMIT, _BROKER, "broker.find_cluster", ["selection"]),
        (_STATUS, _NODE, "node.status", {"status": 5}),
        (_STATUS, _NODE, "node.status", {}),
        (_STATUS, _NODE, "node.status", 5),
        (["balance"], _CONFIG["bank"], "bank.balance", {}),
        (["balance"], _CONFIG["bank"], "bank.balance", None),
    ],
)
def test_malformed_reply_exits_1_without_a_traceback(
    tmp_path, capsys, argv, address, method, reply
):
    """A reply that is not an object, or lacks a field the client reads,
    once escaped ``main`` as a raw KeyError, TypeError or AttributeError."""
    path = tmp_path / "client.json"
    path.write_text(json.dumps(_CONFIG))
    with LocalNetwork({address: {method: lambda params: reply}}):
        rc = client.main([argv[0], "--config", str(path), *argv[1:]])
    assert rc == client.EXIT_OTHER
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("address", value) for value in (5, "", "nohost", "127.0.0.1:0", None)]
    + [(name, value) for name in ("cluster_id", "bid_token", "payee_account")
       for value in (5, ["x"], "", None)],
)
def test_unusable_selection_exits_1_before_any_hold(tmp_path, capsys, field, value):
    """A selection field of the wrong type was once held for: ``address: 5``
    then escaped ``main`` as a ValueError, and ``bid_token: 5`` was refused
    by ``node.submit`` before its refund path; both left the escrow held."""
    bank_core = bank.BankCore(cluster_secrets={"solo": "cs-solo"})
    alice = bank_core.create_account("alice", "USER")
    payee = bank_core.create_account("solo", "CLUSTER")
    bank_core.deposit(alice, 1000)
    node = frontend.FrontendCore(
        card=ClusterDescriptor(
            cluster_id="solo", address=_NODE, capacity_nodes=8, capabilities=frozenset(),
            base_rate=1, payee_account=payee, feature_multipliers={},
        ),
        cluster_secret="cs-solo",
        bank=_CONFIG["bank"],
    )

    def find_cluster(params):
        bid = node.quote(validate_jobspec(params["spec"]))
        selection = {"cluster_id": "solo", "address": _NODE, "price": {"amount": bid.price},
                     "bid_token": bid.bid_token, "payee_account": payee}
        return {"selection": selection | {field: value}}

    path = tmp_path / "client.json"
    path.write_text(json.dumps({**_CONFIG, "account_id": alice}))
    hosts = {
        _BROKER: {"broker.find_cluster": find_cluster},
        _CONFIG["bank"]: bank.rpc_handlers(bank_core),
        _NODE: frontend.rpc_handlers(node),
    }
    with LocalNetwork(hosts) as network:
        rc = client.main(["submit", "--config", str(path), *_SUBMIT[1:]])
    err = capsys.readouterr().err
    assert rc == client.EXIT_OTHER
    assert err.startswith("error: malformed reply") and err.count("\n") == 1
    assert network.sent("bank.hold_escrow") == []
    assert bank_core.balance(alice) == 1000


def test_malformed_reply_lands_in_the_report_errors(market_factory):
    """The simulator reports a submission whose broker reply lacks a field
    as an error of that job, and runs on."""
    runtime = market_factory(
        clusters=ONE_CLUSTER,
        users=FUNDED,
        workload=[{"submit_at": 0, "user": "alice",
                   "spec": {"nodes": 1, "walltime_s": 1, "command": "run", "workdir": "/d"}}],
        duration_s=5,
    )
    broker_at = runtime.broker_server.address
    with LocalNetwork({broker_at: {"broker.find_cluster": lambda params: {}}}):
        report = runtime.run()
    assert [error["time"] for error in report.errors] == [0]
    assert report.conservation_ok and report.all_jobs_terminal


@pytest.mark.parametrize(
    "config",
    [
        {name: value for name, value in _CONFIG.items() if name != "account_id"},
        [_CONFIG],
        "alice",
        {**_CONFIG, "rng_seed": [1]},
        {**_CONFIG, "timeout_ms": 5000},  # each call's wait is fixed
    ],
)
def test_malformed_config_exits_1_without_a_traceback(tmp_path, capsys, config):
    """A config without a required field once died with a KeyError, and
    one that is a JSON list, or whose ``rng_seed`` is a list, with a
    TypeError."""
    path = tmp_path / "client.json"
    path.write_text(json.dumps(config))
    assert client.main(["balance", "--config", str(path)]) == client.EXIT_OTHER
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
