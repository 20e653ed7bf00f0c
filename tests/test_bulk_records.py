"""The bulk Figure 2 background and the hand-written record constructors.

``background_population`` builds its 20k records from numpy arrays instead
of a per-record loop; each bulk step is checked here against the scalar
expression it replaces, including the ties where the two could differ.
``CveRecord`` and ``ExploitEvent`` store into ``__dict__`` instead of
using the generated frozen ``__init__``; they are checked against
generated-init twins for signature, validation messages and every
dataclass behaviour.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.nvd import _round_tenths, _shifted
from repro.datasets.records import CveRecord
from repro.lifecycle.exploit_events import ExploitEvent

START = datetime(2021, 3, 1, 0, 0, 0, 250)
#: Two years of seconds: the span the study window's offsets are drawn from.
SPAN = 2 * 365 * 86400.0


def _as_timedeltas(values):
    return [START + timedelta(seconds=value) for value in values]


# -- publication times ------------------------------------------------------

offsets = st.floats(min_value=0.0, max_value=SPAN, allow_nan=False)
#: ``w + (2t + 1) / 128`` seconds is exact in binary, and its fractional
#: part times 1e6 is exactly ``n + 0.5`` microseconds: a rounding tie.
half_micro_ties = st.builds(
    lambda whole, odd: whole + (2 * odd + 1) / 128.0,
    st.integers(min_value=0, max_value=int(SPAN)),
    st.integers(min_value=0, max_value=63),
)


@given(st.lists(st.one_of(offsets, half_micro_ties), min_size=1, max_size=50))
@settings(max_examples=200)
def test_shifted_equals_timedelta_addition(values):
    bulk = _shifted(START, np.array(values, dtype=np.float64)).tolist()
    assert bulk == _as_timedeltas(values)


def test_half_microsecond_ties_round_to_even():
    values = [0.0078125, 1.0078125, 3.0234375, 17.9921875]
    for value in values:
        fraction, _ = math.modf(value)
        assert math.modf(fraction * 1e6)[0] == 0.5  # a genuine tie
    bulk = _shifted(START, np.array(values)).tolist()
    assert bulk == _as_timedeltas(values)
    assert [when.microsecond for when in bulk] == [
        (250 + micros) % 1_000_000 for micros in (7812, 7812, 23438, 992188)
    ]


# -- CVSS rounding ----------------------------------------------------------

def _scalar_round(values):
    return [min(round(value, 1), 10.0) for value in values]


def _around(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


scores = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
#: Values within two ulps of ``k + 0.05`` (k a tenth), where ``rint(10x)``
#: could land on the other side of the decimal tie.
near_ties = st.builds(
    lambda tenth, ulps: _around(tenth / 10.0 + 0.05, ulps),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=-2, max_value=2),
)
#: Dyadic values whose product by ten is exactly a ``.5`` tie.
exact_ties = st.builds(
    lambda whole, quarter: whole + quarter / 4.0,
    st.integers(min_value=0, max_value=9),
    st.sampled_from([1, 3]),
)


@given(st.lists(st.one_of(scores, near_ties, exact_ties), min_size=1, max_size=50))
@settings(max_examples=200)
def test_round_tenths_equals_builtin_round(values):
    assert _round_tenths(np.array(values)).tolist() == _scalar_round(values)


def test_round_tenths_near_every_tie():
    values = [
        _around(tenth / 10.0 + 0.05, ulps)
        for tenth in range(100)
        for ulps in (-1, 0, 1)
    ]
    assert _round_tenths(np.array(values)).tolist() == _scalar_round(values)


# -- constructors -------------------------------------------------------------

@dataclass(frozen=True)
class GeneratedCveRecord:
    """``CveRecord`` with the generated frozen ``__init__``."""

    cve_id: str
    published: datetime
    cvss: float
    description: str = ""
    vendor: str = ""
    cwe: str = ""
    assigner: str = ""

    def __post_init__(self) -> None:
        if not self.cve_id.startswith("CVE-"):
            raise ValueError(f"malformed CVE id: {self.cve_id!r}")
        if not 0.0 <= self.cvss <= 10.0:
            raise ValueError(f"CVSS out of range: {self.cvss}")


@dataclass(frozen=True)
class GeneratedExploitEvent:
    """``ExploitEvent`` with the generated frozen ``__init__``."""

    cve_id: str
    timestamp: datetime
    sid: int
    session_id: int
    src_ip: int
    dst_ip: int
    dst_port: int
    mitigated: bool


WHEN = datetime(2021, 12, 10, 9, 30)
CASES = [
    (CveRecord, GeneratedCveRecord, ("CVE-2021-44228", WHEN, 10.0, "log4shell")),
    (
        ExploitEvent,
        GeneratedExploitEvent,
        ("CVE-2021-44228", WHEN, 58722, 17, 167772161, 167772162, 8080, True),
    ),
]


def _parameters(function):
    return [
        (parameter.name, parameter.default, parameter.annotation, parameter.kind)
        for parameter in inspect.signature(function).parameters.values()
    ]


@pytest.mark.parametrize("cls, twin, args", CASES)
def test_signature_matches_fields(cls, twin, args):
    parameters = inspect.signature(cls).parameters
    fields = dataclasses.fields(cls)
    assert list(parameters) == [field.name for field in fields]
    for field in fields:
        default = parameters[field.name].default
        expected = (
            inspect.Parameter.empty
            if field.default is dataclasses.MISSING
            else field.default
        )
        assert default == expected, field.name
        assert parameters[field.name].annotation == field.type
    assert _parameters(cls.__init__) == _parameters(twin.__init__)


@pytest.mark.parametrize("cls, twin, args", CASES)
def test_behaves_like_generated_init(cls, twin, args):
    record = cls(*args)
    reference = twin(*args)
    names = [field.name for field in dataclasses.fields(cls)]
    assert names == [field.name for field in dataclasses.fields(twin)]
    assert dataclasses.asdict(record) == dataclasses.asdict(reference)
    assert vars(record) == vars(reference)
    assert repr(record) == repr(reference).replace(twin.__name__, cls.__name__)
    assert record == cls(*args)
    assert hash(record) == hash(cls(*args))
    assert record != cls(*(("CVE-2022-0001",) + args[1:]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.cve_id = "CVE-2000-0001"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.cve_id
    changed = dataclasses.replace(record, cve_id="CVE-2022-0001")
    assert type(changed) is cls
    assert changed.cve_id == "CVE-2022-0001"
    assert dataclasses.astuple(changed)[1:] == dataclasses.astuple(record)[1:]
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert clone == record and hash(clone) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.cve_id = "CVE-2000-0001"


def test_cve_record_keyword_defaults():
    record = CveRecord(cve_id="CVE-2021-1", published=WHEN, cvss=5.0)
    assert (record.description, record.vendor, record.cwe, record.assigner) == (
        "", "", "", ""
    )
    assert record.year == 2021


@pytest.mark.parametrize(
    "cve_id, cvss",
    [
        ("NOT-A-CVE", 5.0),
        ("cve-2021-1", 5.0),
        ("", 5.0),
        ("CVE-2021-1", 10.5),
        ("CVE-2021-1", -0.1),
        ("CVE-2021-1", math.nan),
        ("CVE-2021-1", math.inf),
        ("NOT-A-CVE", math.nan),
    ],
)
def test_cve_record_validation_messages(cve_id, cvss):
    with pytest.raises(ValueError) as expected:
        GeneratedCveRecord(cve_id, WHEN, cvss)
    with pytest.raises(ValueError) as actual:
        CveRecord(cve_id, WHEN, cvss)
    assert str(actual.value) == str(expected.value)
