"""Tests for the shared field checks, through every constructor that uses them."""

import math

import numpy as np
import pytest

from qkdsim.adversary import AttackKind, AttackSpec, BasisPolicy
from qkdsim.channel import ChannelSpec, LinkBudget
from qkdsim.checks import check_range
from qkdsim.harness.scenario import Scenario
from qkdsim.postproc import HashSpec
from qkdsim.protocol import ProtocolKind, SessionConfig


def _session(**kw):
    return SessionConfig(**{"protocol": ProtocolKind.LM05, "seed": 1, **kw})


def _scenario(**kw):
    return Scenario("table1", **{"seed": 1, **kw})


def _hash_spec(**kw):
    fields = {"input_len": 8, "output_len": 4, **kw}
    return HashSpec(**fields, seed_bits=np.zeros(11, np.uint8))


# Every numeric field as (constructor, field, good): good is None for an int
# field, and for a real field a value it takes, an int where its range holds one.
_FIELDS = [
    (_session, "n_rounds", None),
    (_session, "seed", None),
    (_session, "cm_fraction", 0),
    (_session, "d_pd_cm", 0.25),
    (_scenario, "seed", None),
    (_scenario, "n_points", None),
    (_scenario, "d_pd_cm", 0.25),
    (_scenario, "n_rounds", None),
    (AttackSpec, "presence", 1),
    (AttackSpec, "f0", 1),
    (AttackSpec, "f_plus", 1),
    (ChannelSpec, "transmittance_per_leg", 1),
    (ChannelSpec, "flip_prob", 0),
    (LinkBudget, "alpha_db_per_km", 1),
    (LinkBudget, "distance_km", 10),
    (_hash_spec, "input_len", None),
    (_hash_spec, "output_len", None),
]


def _id(build, field):
    return f"{build.__name__.strip('_')}.{field}"


@pytest.mark.parametrize("build, field, value", [
    pytest.param(build, field, value, id=f"{_id(build, field)}-{value!r}")
    for build, field, _ in _FIELDS for value in (True, False, None, "0.5", math.nan)
    # None is a scenario's default threshold.
    if not (build is _scenario and field == "d_pd_cm" and value is None)])
def test_numeric_field_takes_only_numbers(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        build(**{field: value})


_REAL = [(build, field, good) for build, field, good in _FIELDS if good is not None]


@pytest.mark.parametrize("build, field, good", _REAL, ids=[_id(b, f) for b, f, _ in _REAL])
def test_real_field_takes_numpy_floats_and_ints(build, field, good):
    assert getattr(build(**{field: np.float64(good)}), field) == good
    if type(good) is int:
        assert getattr(build(**{field: good}), field) == good


@pytest.mark.parametrize("build, field, value", [
    (AttackSpec, "kind", "mitm_lm05"),
    (AttackSpec, "kind", None),
    (AttackSpec, "basis_policy", "fixed_z"),
    (AttackSpec, "basis_policy", AttackKind.NO_ATTACK),
    (_session, "enforce_cm_threshold", "no"),
    (_session, "enforce_cm_threshold", 1),
    (_session, "enforce_cm_threshold", np.True_),
])
def test_enum_and_bool_fields_take_only_their_type(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be of type "):
        build(**{field: value})


def _session_scenario(**kw):
    return Scenario("session", **{"seed": 1, **kw})


@pytest.mark.parametrize("build, field, value", [
    (_session, "channel", None),
    (_session, "channel", LinkBudget()),
    (_session, "attack", "mitm"),
    (_session, "attack", None),
    (_scenario, "link", None),
    (_scenario, "link", ChannelSpec()),
    (_scenario, "out_dir", 5),
    (_scenario, "out_dir", None),
    (_session_scenario, "session", "x"),
    (_scenario, "session", AttackSpec()),
], ids=lambda v: v.__name__.strip("_") if callable(v) else None)
def test_nested_fields_take_only_their_type(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be of type "):
        build(**{field: value})


@pytest.mark.parametrize("value", ["lm05", None, AttackKind.MITM_LM05])
def test_protocol_takes_only_a_protocol_kind(value):
    with pytest.raises(ValueError, match="^protocol must be of type ProtocolKind"):
        SessionConfig(protocol=value, seed=1)


def test_members_and_bools_are_accepted():
    spec = AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0, BasisPolicy.FIXED_Z)
    cfg = SessionConfig(protocol=ProtocolKind.BB84, seed=1, attack=spec,
                        enforce_cm_threshold=True)
    assert cfg.attack.basis_policy is BasisPolicy.FIXED_Z and cfg.enforce_cm_threshold


@pytest.mark.parametrize("ends, inside, outside", [
    ("[]", [0, 0.5, 1], [-0.1, 1.1]),
    ("[)", [0, 0.5], [1, 1.5]),
    ("(]", [0.5, 1], [0, -1]),
    ("()", [0.5], [0, 1]),
])
def test_interval_ends(ends, inside, outside):
    for value in inside:
        check_range("x", value, 0, 1, ends)
    for value in outside + [math.nan]:
        with pytest.raises(ValueError) as info:
            check_range("x", value, 0, 1, ends)
        assert str(info.value) == f"x out of {ends[0]}0, 1{ends[1]}: {value!r}"


@pytest.mark.parametrize("value", [2.0, np.int64(2), True, "2"])
def test_integer_range_takes_only_a_python_int(value):
    check_range("n", 2, 1, 3, integer=True)
    with pytest.raises(ValueError) as info:
        check_range("n", value, 1, 3, integer=True)
    assert str(info.value) == f"n out of [1, 3]: {value!r}"
