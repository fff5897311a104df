"""Domain validation, canonical encoding, and job statuses."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sgmarket.domain import (
    Bid,
    ClusterDescriptor,
    JOB_COMPLETED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobSpec,
    ValidationError,
    canonical_encode,
    money,
    parse_money,
    parse_status,
    validate_jobspec,
)


def _base_record(**overrides):
    record = {
        "job_id": "0" * 32,
        "nodes": 4,
        "walltime_s": 100,
        "required_features": [],
        "command": "run",
        "workdir": "/data",
    }
    record.update(overrides)
    return record


def test_validate_jobspec_accepts_valid_record():
    spec = validate_jobspec(_base_record())
    assert spec.nodes == 4
    assert spec.walltime_s == 100
    assert spec.required_features == frozenset()
    assert spec.max_price is None


def test_validate_jobspec_rejects_zero_nodes():
    with pytest.raises(ValidationError) as err:
        validate_jobspec(_base_record(nodes=0))
    assert err.value.field == "nodes"


def test_validate_jobspec_rejects_duplicate_features():
    with pytest.raises(ValidationError) as err:
        validate_jobspec(_base_record(required_features=["deadline", "deadline"]))
    assert err.value.field == "required_features"


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"job_id": "short"}, "job_id"),
        ({"job_id": "G" * 32}, "job_id"),
        ({"walltime_s": 0}, "walltime_s"),
        ({"nodes": True}, "nodes"),
        ({"required_features": ["UPPER"]}, "required_features"),
        ({"max_price": -5}, "max_price"),
        ({"user": ""}, "user"),
        ({"bogus": 1}, "bogus"),
        # Unknown fields, as `user` is: a spec holds only the job.
        ({"secret": "pw"}, "secret"),
        ({"qos_class": "gold"}, "qos_class"),
    ],
)
def test_validate_jobspec_names_first_bad_field(overrides, field):
    with pytest.raises(ValidationError) as err:
        validate_jobspec(_base_record(**overrides))
    assert err.value.field == field


def test_validate_jobspec_missing_field_named():
    record = _base_record()
    del record["command"]
    with pytest.raises(ValidationError) as err:
        validate_jobspec(record)
    assert err.value.field == "command"
    assert err.value.reason == "missing required field"


def test_money_golden_encoding():
    assert canonical_encode(money(0)) == b'{"amount":0}'


def test_money_rejects_negative():
    with pytest.raises(ValidationError):
        parse_money("amount", -1)
    with pytest.raises(ValidationError):
        parse_money("amount", {"amount": -1})


_PRICE_NEGATIVE = ("price", "must be >= 0")
_PRICE_NOT_MILLICREDITS = ("price", "must be integer millicredits")
_PRICE_NOT_INTEGER = ("price", "must be an integer")


def _parsed(raw, minimum):
    """What ``parse_money`` makes of ``raw``: the amount, read through an
    ``amount`` attribute if the value boxes it, or the ``(field, reason)``
    it raises."""
    try:
        value = parse_money("price", raw, minimum=minimum)
    except ValidationError as exc:
        return exc.field, exc.reason
    return getattr(value, "amount", value)


@pytest.mark.parametrize(
    "raw, at_minimum_0, at_minimum_1",
    [
        (5, 5, 5),
        (0, 0, ("price", "must be >= 1")),
        (-1, _PRICE_NEGATIVE, _PRICE_NEGATIVE),
        (True, _PRICE_NOT_MILLICREDITS, _PRICE_NOT_MILLICREDITS),
        (1.5, _PRICE_NOT_MILLICREDITS, _PRICE_NOT_MILLICREDITS),
        ("5", _PRICE_NOT_MILLICREDITS, _PRICE_NOT_MILLICREDITS),
        (None, _PRICE_NOT_MILLICREDITS, _PRICE_NOT_MILLICREDITS),
        ([5], _PRICE_NOT_MILLICREDITS, _PRICE_NOT_MILLICREDITS),
        ({"amount": 5}, 5, 5),
        ({"amount": -1}, _PRICE_NEGATIVE, _PRICE_NEGATIVE),
        ({"amount": True}, _PRICE_NOT_INTEGER, _PRICE_NOT_INTEGER),
        ({"amount": 1.5}, _PRICE_NOT_INTEGER, _PRICE_NOT_INTEGER),
        ({}, ("price", "missing required field"), ("price", "missing required field")),
        (
            {"amount": 5, "x": 1},
            ("price", "unknown field for Money"),
            ("price", "unknown field for Money"),
        ),
    ],
)
def test_parse_money_answers_each_form(raw, at_minimum_0, at_minimum_1):
    """Every form a peer may send reads as its amount or as one exact error;
    a negative amount reads "must be >= 0" whatever the minimum."""
    assert _parsed(raw, 0) == at_minimum_0
    assert _parsed(raw, 1) == at_minimum_1


def test_priced_values_keep_their_bytes():
    spec = validate_jobspec(_base_record(required_features=["gpu"], max_price={"amount": 900}))
    assert canonical_encode(spec.to_dict()) == (
        b'{"command":"run","job_id":"00000000000000000000000000000000",'
        b'"max_price":{"amount":900},"nodes":4,"required_features":["gpu"],'
        b'"walltime_s":100,"workdir":"/data"}'
    )
    descriptor = ClusterDescriptor.from_dict(
        _card_descriptor(feature_multipliers={"gpu": [3, 2]})
    )
    assert canonical_encode(descriptor.to_dict()) == (
        b'{"address":"127.0.0.1:7710","base_rate":{"amount":2},'
        b'"capabilities":["deadline","gpu"],"capacity_nodes":8,"cluster_id":"A",'
        b'"feature_multipliers":{"gpu":[3,2]},"payee_account":"cluster:A"}'
    )
    bid = Bid.from_dict(_bid_record(load=[2, 1], drain=[1, 360]))
    assert canonical_encode(bid.to_dict()) == (
        b'{"bid_token":"t","drain":[1,360],"load":[2,1],'
        b'"payee_account":"cluster:A","price":{"amount":800}}'
    )


def test_canonical_encode_is_deterministic():
    spec = validate_jobspec(_base_record(required_features=["deadline"]))
    assert canonical_encode(spec.to_dict()) == canonical_encode(spec.to_dict())


def _oracle_serialize(value) -> str:
    """Independent sort-then-serialize: recursion plus sorted() only."""
    if isinstance(value, dict):
        parts = [
            f"{json.dumps(key, ensure_ascii=False)}:{_oracle_serialize(val)}"
            for key, val in sorted(value.items())
        ]
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_oracle_serialize(v) for v in value) + "]"
    return json.dumps(value, ensure_ascii=False)


_json_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_text, children, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_canonical_bytes_equal_json_dumps(value):
    """The encoder built once gives the bytes the per-call ``json.dumps``
    gave, kept here as the oracle."""
    expected = json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    assert canonical_encode(value) == expected


def test_canonical_bytes_of_a_value_that_contains_itself():
    value = []
    value.append(value)
    with pytest.raises(RecursionError):
        canonical_encode(value)
    with pytest.raises(TypeError):
        canonical_encode({"a": object()})


def test_key_order_never_matters():
    record = _base_record(max_price=5000, required_features=["deadline"])
    shuffled = dict(reversed(list(record.items())))
    spec_a = validate_jobspec(record)
    spec_b = validate_jobspec(shuffled)
    encoded = canonical_encode(spec_a.to_dict())
    assert encoded == canonical_encode(spec_b.to_dict())
    assert encoded == _oracle_serialize(spec_a.to_dict()).encode("utf-8")


# -- round-trip properties ----------------------------------------------------

_feature = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_features = st.frozensets(_feature, max_size=4)
_job_id = st.integers(min_value=0, max_value=2**128 - 1).map(lambda n: f"{n:032x}")
_name = st.text(min_size=1, max_size=12)
_money = st.integers(min_value=0, max_value=10**9)

_jobspecs = st.builds(
    JobSpec,
    job_id=_job_id,
    nodes=st.integers(1, 64),
    walltime_s=st.integers(1, 10**6),
    required_features=_features,
    max_price=st.none() | _money,
    command=_name,
    workdir=_name,
)

_descriptors = st.builds(
    ClusterDescriptor,
    cluster_id=_name,
    address=st.tuples(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=12),
        st.integers(1, 65535),
    ).map(lambda hp: f"{hp[0]}:{hp[1]}"),
    capacity_nodes=st.integers(1, 4096),
    capabilities=_features,
    base_rate=st.integers(1, 10**6),
    payee_account=_name,
)

_bids = st.builds(
    Bid,
    price=_money,
    bid_token=_name,
    payee_account=_name,
    load=st.just((1, 1))
    | st.integers(1, 10**6).flatmap(lambda q: st.tuples(st.integers(q + 1, 9 * q), st.just(q))),
    drain=st.just((0, 1)) | st.tuples(st.integers(1, 10**6), st.integers(1, 10**9)),
)


@st.composite
def _job_statuses(draw):
    state = draw(st.sampled_from([JOB_QUEUED, JOB_RUNNING, JOB_COMPLETED]))
    submitted = draw(st.none() | st.integers(0, 10**6))
    start_floor = submitted if submitted is not None else 0
    started = draw(st.none() | st.integers(start_floor, start_floor + 10**6))
    finish_floor = started if started is not None else 0
    finished = draw(st.none() | st.integers(finish_floor, finish_floor + 10**6))
    exit_code = draw(st.none() | st.integers(-255, 255))
    status = {
        "state": state,
        "submitted_at": submitted,
        "started_at": started,
        "finished_at": finished,
        "exit_code": exit_code,
    }
    return {name: value for name, value in status.items() if value is not None}


@given(_money)
def test_money_round_trip(value):
    assert parse_money("amount", json.loads(canonical_encode(money(value)))) == value


@given(_jobspecs)
def test_jobspec_round_trip(spec):
    assert validate_jobspec(json.loads(canonical_encode(spec.to_dict()))) == spec


@given(_descriptors)
def test_descriptor_round_trip(descriptor):
    decoded = ClusterDescriptor.from_dict(json.loads(canonical_encode(descriptor.to_dict())))
    assert decoded == descriptor


@given(_bids)
def test_bid_round_trip(bid):
    assert Bid.from_dict(json.loads(canonical_encode(bid.to_dict()))) == bid


@given(_job_statuses())
def test_job_status_round_trip(status):
    assert parse_status(json.loads(canonical_encode(status))) == status


@given(_jobspecs, _jobspecs)
def test_encoding_pure_function(a, b):
    same_bytes = canonical_encode(a.to_dict()) == canonical_encode(b.to_dict())
    assert same_bytes == (a == b)


@st.composite
def _priced_descriptors(draw):
    """Descriptors whose rate card prices some of their capabilities."""
    descriptor = draw(_descriptors)
    multipliers = {}
    for feature in sorted(descriptor.capabilities):
        if draw(st.booleans()):
            q = draw(st.integers(1, 9))
            multipliers[feature] = Fraction(draw(st.integers(q, 5 * q)), q)
    return dataclasses.replace(descriptor, feature_multipliers=multipliers)


@given(_priced_descriptors())
def test_descriptor_round_trip_with_a_rate_card(descriptor):
    decoded = ClusterDescriptor.from_dict(json.loads(canonical_encode(descriptor.to_dict())))
    assert decoded == descriptor


def _card_descriptor(**overrides):
    record = {
        "cluster_id": "A",
        "address": "127.0.0.1:7710",
        "capacity_nodes": 8,
        "capabilities": ["deadline", "gpu"],
        "base_rate": {"amount": 2},
        "payee_account": "cluster:A",
    }
    record.update(overrides)
    return record


def test_descriptor_without_multipliers_omits_the_field():
    """A cluster that prices no feature registers the same bytes as before
    descriptors carried rate cards."""
    descriptor = ClusterDescriptor.from_dict(_card_descriptor(feature_multipliers={}))
    assert descriptor.feature_multipliers == {}
    assert canonical_encode(descriptor.to_dict()) == canonical_encode(_card_descriptor())
    assert b"feature_multipliers" not in canonical_encode(descriptor.to_dict())


def test_descriptor_carries_its_rate_card():
    descriptor = ClusterDescriptor.from_dict(
        _card_descriptor(feature_multipliers={"gpu": [3, 2], "deadline": [4, 4]})
    )
    assert descriptor.feature_multipliers == {"gpu": Fraction(3, 2), "deadline": 1}
    assert descriptor.to_dict()["feature_multipliers"] == {"gpu": [3, 2], "deadline": [1, 1]}


@pytest.mark.parametrize(
    "multipliers",
    [
        [],
        {"ssd": [2, 1]},  # not an advertised capability
        {"gpu": 2},
        {"gpu": [2]},
        {"gpu": [2, 1, 1]},
        {"gpu": [True, 1]},
        {"gpu": [2, True]},
        {"gpu": [2.0, 1]},
        {"gpu": ["2", 1]},
        {"gpu": [2, 0]},
        {"gpu": [-2, -1]},
        {"gpu": [1, 2]},  # a discount
    ],
)
def test_malformed_rate_card_is_rejected(multipliers):
    with pytest.raises(ValidationError) as err:
        ClusterDescriptor.from_dict(_card_descriptor(feature_multipliers=multipliers))
    assert err.value.field.startswith("feature_multipliers")


def _bid_record(**overrides):
    record = {
        "price": {"amount": 800},
        "bid_token": "t",
        "payee_account": "cluster:A",
    }
    record.update(overrides)
    return record


def test_bid_at_idle_load_keeps_its_bytes():
    """A bid at load 1 with nothing to drain, as every cluster at load
    coefficient 0 sends, encodes as bids did before they reported load."""
    bid = Bid.from_dict(_bid_record(load=[1, 1], drain=[0, 1]))
    assert (bid.load, bid.drain) == ((1, 1), (0, 1))
    assert canonical_encode(bid.to_dict()) == canonical_encode(_bid_record())
    busy = Bid.from_dict(_bid_record(load=[2, 1], drain=[1, 360]))
    assert (busy.load, busy.drain) == ((2, 1), (1, 360))


@pytest.mark.parametrize("field, value", [("cluster_id", "A"), ("expires_at", 60)])
def test_a_bid_carries_only_what_the_broker_reads(field, value):
    """The broker knows which cluster it asked, and the expiry sits in the
    signed token, so a bid that still names either is refused."""
    with pytest.raises(ValidationError) as err:
        Bid.from_dict(_bid_record(**{field: value}))
    assert err.value.field == field


@pytest.mark.parametrize(
    "field, value",
    [
        ("load", [1, 2]),  # below 1
        ("load", [2, 0]),
        ("load", 2),
        ("load", [True, 1]),
        ("load", [2.0, 1]),
        ("drain", [-1, 1]),
        ("drain", [1, 0]),
        ("drain", [1, 2, 3]),
    ],
)
def test_malformed_load_report_is_rejected(field, value):
    with pytest.raises(ValidationError) as err:
        Bid.from_dict(_bid_record(**{field: value}))
    assert err.value.field == field


# -- job status ---------------------------------------------------------------

def test_job_status_timestamp_ordering_enforced():
    with pytest.raises(ValidationError):
        parse_status({"state": JOB_RUNNING, "submitted_at": 10, "started_at": 5})
    with pytest.raises(ValidationError):
        parse_status({"state": JOB_COMPLETED, "started_at": 10, "finished_at": 9})


def test_parse_status_reads_a_null_field_as_absent():
    """A null time reads as absent, as the status's wire form leaves it."""
    raw = {"state": JOB_RUNNING, "submitted_at": 3, "started_at": None, "finished_at": None}
    assert parse_status(raw) == {"state": JOB_RUNNING, "submitted_at": 3}


@pytest.mark.parametrize("raw", [5, "QUEUED", ["state"], None])
def test_parse_status_refuses_a_non_object(raw):
    with pytest.raises(ValidationError) as err:
        parse_status(raw)
    assert (err.value.field, err.value.reason) == ("status", "must be an object")


_NOT_INTEGER = "must be an integer"


@pytest.mark.parametrize(
    "raw, field, reason",
    [
        ({"state": "QUEUED", "bogus": 1}, "bogus", "unknown field for job status"),
        ({"bogus": 1}, "bogus", "unknown field for job status"),
        ({}, "state", "missing required field"),
        ({"submitted_at": 0}, "state", "missing required field"),
        ({"state": 5}, "state", "must be a string"),
        ({"state": None}, "state", "must be a string"),
        ({"state": ""}, "state", "must be non-empty"),
        ({"state": "DONE"}, "state", "unknown state 'DONE'"),
        ({"state": "queued"}, "state", "unknown state 'queued'"),
        ({"state": "DONE", "submitted_at": "0"}, "state", "unknown state 'DONE'"),
        ({"state": "QUEUED", "submitted_at": "0"}, "submitted_at", _NOT_INTEGER),
        ({"state": "QUEUED", "submitted_at": True}, "submitted_at", _NOT_INTEGER),
        ({"state": "RUNNING", "started_at": 1.5}, "started_at", _NOT_INTEGER),
        ({"state": "COMPLETED", "finished_at": [1]}, "finished_at", _NOT_INTEGER),
        ({"state": "COMPLETED", "exit_code": "0"}, "exit_code", _NOT_INTEGER),
        (
            {"state": "QUEUED", "submitted_at": "a", "started_at": "b"},
            "submitted_at",
            _NOT_INTEGER,
        ),
        (
            {"state": "RUNNING", "submitted_at": 10, "started_at": 5, "exit_code": "x"},
            "exit_code",
            _NOT_INTEGER,
        ),
        (
            {"state": "RUNNING", "submitted_at": 10, "started_at": 5},
            "started_at",
            "precedes submitted_at",
        ),
        (
            {"state": "COMPLETED", "started_at": 10, "finished_at": 9},
            "finished_at",
            "precedes started_at",
        ),
        (
            {"state": "COMPLETED", "submitted_at": 10, "started_at": 5, "finished_at": 1},
            "started_at",
            "precedes submitted_at",
        ),
    ],
)
def test_parse_status_refuses_each_malformed_status(raw, field, reason):
    """Each status a peer may send wrongly is refused with one exact field
    and reason: unknown fields first, then the state, then each time in
    order, then the order of the times."""
    with pytest.raises(ValidationError) as err:
        parse_status(raw)
    assert (err.value.field, err.value.reason) == (field, reason)
