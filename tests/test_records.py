"""The one record rule every report class serializes by."""

import dataclasses
import json

import numpy as np
import pytest

import kcprobe as kp
from kcprobe.serialize import Record


@dataclasses.dataclass(frozen=True)
class _Toy(Record):
    OMIT_IF_NONE = ("maybe",)

    b: int
    a: tuple[int, ...]
    maybe: float | None
    kept: float | None


class TestRecordRule:
    def test_fields_in_order_with_tuples_as_lists(self):
        out = _Toy(1, (2, 3), 0.5, None).to_dict()
        assert list(out) == ["b", "a", "maybe", "kept"]
        assert out == {"b": 1, "a": [2, 3], "maybe": 0.5, "kept": None}
        assert type(out["a"]) is list

    def test_only_a_named_field_is_omitted_while_none(self):
        assert _Toy(1, (), None, None).to_dict() == {"b": 1, "a": [], "kept": None}


@pytest.fixture(scope="module")
def records():
    """One instance of every report and finding class."""
    model = kp.degenerate_qubit_instance()
    protocol = kp.qubit_xy_protocol(model, "XXX")
    rho = np.eye(2) / 2
    kc = kp.check_kc_all(protocol, 2, rho)
    (finding,) = kp.counterexample_search(0, 1, include=((model, "X"),))
    return {
        kp.KCEntry: kc.entries[0],
        kp.KCReport: kc,
        kp.WitnessReport: kp.witness_report("delta_2_1", kp.delta_2_1(protocol, rho), protocol),
        kp.LGResult: kp.lg_check(protocol, rho),
        kp.LGFinding: kp.lg_violation_search(0, 5)[0],
        kp.CounterexampleFinding: finding,
        kp.AlgebraReport: kp.algebra_report(model, protocol),
        kp.OracleReport: kp.oracle_compare(protocol, rho, 2),
    }


@pytest.mark.parametrize(
    "cls",
    [
        kp.KCEntry,
        kp.KCReport,
        kp.WitnessReport,
        kp.LGResult,
        kp.LGFinding,
        kp.CounterexampleFinding,
        kp.AlgebraReport,
        kp.OracleReport,
    ],
    ids=lambda cls: cls.__name__,
)
def test_keys_are_the_dataclass_fields(records, cls):
    record = records[cls]
    assert isinstance(record, Record)
    extra = {"agrees"} if cls is kp.OracleReport else set()
    out = record.to_dict()
    assert set(out) == {f.name for f in dataclasses.fields(cls)} | extra
    json.dumps(out)


def test_report_entries_are_entry_dicts(records):
    report = records[kp.KCReport]
    assert report.to_dict()["entries"] == [e.to_dict() for e in report.entries]
    protocol = kp.qubit_xy_protocol(kp.degenerate_qubit_instance(), "XYX")
    report = kp.check_kc_all(protocol, 3)
    assert report.to_dict()["entries"] == [e.to_dict() for e in report.entries]


def test_oracle_dict_carries_the_gate(records):
    report = records[kp.OracleReport]
    assert report.to_dict()["agrees"] is report.agrees is True


def test_entry_without_a_state_has_no_state_defects_key():
    protocol = kp.qubit_xy_protocol(kp.degenerate_qubit_instance(), "XX")
    report = kp.check_kc_all(protocol, 2)
    assert "state_defects" not in report.entries[0].to_dict()
    assert report.max_state_defect is None
    assert report.to_dict()["max_state_defect"] is None


def test_entry_with_a_state_lists_its_defects(records):
    out = records[kp.KCEntry].to_dict()
    assert type(out["state_defects"]) is list and type(out["fixed"]) is list


def test_algebra_report_without_a_protocol_has_no_nondegeneracy_key():
    out = kp.algebra_report(kp.degenerate_qubit_instance()).to_dict()
    assert "effect_nondegeneracy" not in out
    assert out["dimension"] == 4


def test_algebra_report_with_a_protocol_lists_its_effect_rows(records):
    rows = records[kp.AlgebraReport].to_dict()["effect_nondegeneracy"]
    assert type(rows) is list and len(rows) == 6


def test_counterexample_finding_keeps_a_none_seed(records):
    out = records[kp.CounterexampleFinding].to_dict()
    assert "seed" in out and out["seed"] is None


def test_lg_finding_step_times_is_a_list(records):
    out = records[kp.LGFinding].to_dict()
    assert type(out["step_times"]) is list and len(out["step_times"]) == 2
