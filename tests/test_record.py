"""The frozen records: construction, validation, immutability, equality."""

import pytest

from uavrelay import AllocationResult, OutageEstimate, PowerSplit, RicianEndpoints, SimSpec, equal_power
from uavrelay.cli import load_scenario


def _records():
    """One valid instance of each of the 10 records, by class name."""
    scenario = load_scenario(None, convention="paper")
    budget = scenario.budget()
    records = [
        scenario,
        scenario.geometry,
        scenario.env_su,
        scenario.rician_su,
        scenario.radio,
        scenario.sim,
        budget,
        PowerSplit(0.1, 0.2),
        OutageEstimate(p_hat=0.25, std_err=0.01, trials=1000),
        equal_power(scenario.radio, budget),
    ]
    return {type(record).__name__: record for record in records}


RECORDS = _records()


def test_every_record_is_covered():
    assert sorted(RECORDS) == sorted([
        "Scenario", "LinkGeometry", "HopEnvironment", "RicianEndpoints", "RadioConfig",
        "SimSpec", "LinkBudget", "PowerSplit", "OutageEstimate", "AllocationResult",
    ])


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestEveryRecord:
    def test_fields_cannot_be_set_or_deleted(self, name):
        record = RECORDS[name]
        first = next(iter(record.fields))
        for attr in (first, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, attr, getattr(record, first))
        with pytest.raises(AttributeError):
            delattr(record, first)
        assert getattr(record, first) == getattr(RECORDS[name], first)

    def test_positional_and_keyword_construction_agree(self, name):
        record = RECORDS[name]
        values = {field: getattr(record, field) for field in record.fields}
        cls = type(record)
        assert cls(**values) == cls(*values.values()) == record
        assert record.replace() == record and record.replace() is not record

    def test_bad_arguments_are_a_type_error(self, name):
        record = RECORDS[name]
        values = {field: getattr(record, field) for field in record.fields}
        cls, [first, *rest] = type(record), list(values)
        cases = {
            "missing": lambda: cls(**{field: values[field] for field in rest}),
            "unknown": lambda: cls(**values, not_a_field=1),
            "unknown in place of a field": lambda: cls(**{field: values[field] for field in rest}, not_a_field=1),
            "repeated": lambda: cls(values[first], **values),
            "extra position": lambda: cls(*values.values(), 1),
            "replace unknown": lambda: record.replace(not_a_field=1),
        }
        for case, build in cases.items():
            with pytest.raises(TypeError, match=f"^{name}\\(\\) takes its fields"):
                build()
                pytest.fail(case)


def test_replace_validates_as_construction_does():
    radio, spec = RECORDS["RadioConfig"], RECORDS["SimSpec"]
    with pytest.raises(ValueError, match="total power budget must be positive"):
        radio.replace(total_power_w=-1.0)
    with pytest.raises(ValueError, match="chunk_size must lie in"):
        spec.replace(chunk_size=0)
    assert radio.replace(total_power_w=1.0).total_power_w == 1.0 and radio.total_power_w == 0.25


def test_positional_split_equals_the_keyword_split():
    assert PowerSplit(0.1, 0.2) == PowerSplit(p_s=0.1, p_u=0.2) == PowerSplit(0.1, p_u=0.2)
    assert PowerSplit(0.1, 0.2) != PowerSplit(0.2, 0.1)
    assert PowerSplit(0.1, 0.2) != (0.1, 0.2)
    assert PowerSplit(0.1, 0.2) != RicianEndpoints(0.1, 0.2)  # same values, another record


def test_default_applies_where_the_field_is_left_out():
    assert SimSpec(trials=10, seed=1) == SimSpec(10, 1, 100_000)
    assert SimSpec(10, 1).chunk_size == 100_000
    assert SimSpec(10, 1, chunk_size=7).chunk_size == 7


def test_private_fields_stay_out_of_equality_hash_and_repr():
    result = RECORDS["AllocationResult"]
    assert result._hops is not None
    bare = result.replace(_hops=None)
    assert bare == result and hash(bare) == hash(result)
    assert repr(bare) == repr(result)
    assert "_hops" not in repr(result) and repr(result).startswith("AllocationResult(alpha_star=0.5, ")
    assert bare != result.replace(iterations=1)
    assert AllocationResult(0.5, 1.0, 1.0, 0.5, "equal", 0, 0.0)._hops is None
