"""Domain validation, canonical encoding, and the job state machine."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from sgmarket.domain import (
    Bid,
    ClusterDescriptor,
    JobSpec,
    JobState,
    JobStatus,
    Money,
    ValidationError,
    canonical_encode,
    is_legal_transition,
    validate_jobspec,
)


def _base_record(**overrides):
    record = {
        "job_id": "0" * 32,
        "user": "alice",
        "secret": "pw",
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
    assert canonical_encode(Money(0)) == b'{"amount":0}'


def test_money_rejects_negative():
    with pytest.raises(ValidationError):
        Money(-1)


def test_canonical_encode_is_deterministic():
    spec = validate_jobspec(_base_record(required_features=["deadline"]))
    assert canonical_encode(spec) == canonical_encode(spec)


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


def test_key_order_never_matters():
    record = _base_record(max_price=5000, required_features=["deadline"])
    shuffled = dict(reversed(list(record.items())))
    spec_a = validate_jobspec(record)
    spec_b = validate_jobspec(shuffled)
    assert canonical_encode(spec_a) == canonical_encode(spec_b)
    assert canonical_encode(spec_a) == _oracle_serialize(spec_a.to_dict()).encode("utf-8")


# -- round-trip properties ----------------------------------------------------

_feature = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_features = st.frozensets(_feature, max_size=4)
_job_id = st.integers(min_value=0, max_value=2**128 - 1).map(lambda n: f"{n:032x}")
_name = st.text(min_size=1, max_size=12)
_money = st.integers(min_value=0, max_value=10**9).map(Money)

_jobspecs = st.builds(
    JobSpec,
    job_id=_job_id,
    user=_name,
    secret=_name,
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
    base_rate=st.integers(1, 10**6).map(Money),
    payee_account=_name,
)

_bids = st.builds(
    Bid,
    cluster_id=_name,
    price=_money,
    bid_token=_name,
    expires_at=st.integers(0, 10**9),
    payee_account=_name,
)


@st.composite
def _job_statuses(draw):
    state = draw(st.sampled_from(list(JobState)))
    submitted = draw(st.none() | st.integers(0, 10**6))
    start_floor = submitted if submitted is not None else 0
    started = draw(st.none() | st.integers(start_floor, start_floor + 10**6))
    finish_floor = started if started is not None else 0
    finished = draw(st.none() | st.integers(finish_floor, finish_floor + 10**6))
    exit_code = draw(st.none() | st.integers(-255, 255))
    return JobStatus(
        state=state,
        submitted_at=submitted,
        started_at=started,
        finished_at=finished,
        exit_code=exit_code,
    )


@given(_money)
def test_money_round_trip(value):
    assert Money.from_dict(json.loads(canonical_encode(value))) == value


@given(_jobspecs)
def test_jobspec_round_trip(spec):
    assert JobSpec.from_dict(json.loads(canonical_encode(spec))) == spec


@given(_descriptors)
def test_descriptor_round_trip(descriptor):
    decoded = ClusterDescriptor.from_dict(json.loads(canonical_encode(descriptor)))
    assert decoded == descriptor


@given(_bids)
def test_bid_round_trip(bid):
    assert Bid.from_dict(json.loads(canonical_encode(bid))) == bid


@given(_job_statuses())
def test_job_status_round_trip(status):
    assert JobStatus.from_dict(json.loads(canonical_encode(status))) == status


@given(_jobspecs, _jobspecs)
def test_encoding_pure_function(a, b):
    same_bytes = canonical_encode(a) == canonical_encode(b)
    assert same_bytes == (a == b)


# -- state machine ------------------------------------------------------------

def test_transition_table_exhaustive():
    legal = {
        (JobState.QUEUED, JobState.RUNNING),
        (JobState.RUNNING, JobState.COMPLETED),
        (JobState.RUNNING, JobState.FAILED),
    }
    for pair in itertools.product(JobState, repeat=2):
        assert is_legal_transition(*pair) == (pair in legal), pair


def test_job_status_timestamp_ordering_enforced():
    with pytest.raises(ValidationError):
        JobStatus(state=JobState.RUNNING, submitted_at=10, started_at=5)
    with pytest.raises(ValidationError):
        JobStatus(state=JobState.COMPLETED, started_at=10, finished_at=9)
