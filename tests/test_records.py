"""The result types as immutable value records: one contract for all eight."""

import copy
import inspect
import pickle
from pathlib import Path

import pytest

from continued_roots import (
    AmplitudeResult,
    BenchmarkProblem,
    ContinuedRootApproximant,
    ConvergenceDiagnostics,
    ExponentTarget,
    ExtrapolationReport,
    ReportRow,
    TruncatedSeries,
    cli,
    herschfeld_terms,
    problem,
    string_coefficients,
)

FILE_PROBLEM = Path(__file__).resolve().parent / "golden" / "problems" / "valid.json"


def _instances():
    approx = ContinuedRootApproximant(0.5, (1.0, 2.0, 0.5))
    target = ExponentTarget(1.0, 1.5)
    row = ReportRow(2, 1.25, 0.75, 1.25, -16.0)
    return [
        TruncatedSeries((1.0, 0.5, -0.125)),
        target,
        AmplitudeResult(1.25, 0.75, 2),
        approx,
        BenchmarkProblem(
            "string", 2.0, 1.0, 1.0, None, 0.0625, None, string_coefficients
        ),
        herschfeld_terms(approx, 100.0),
        row,
        ExtrapolationReport(
            (row, ReportRow(3, None, 0.875, None, None, "failed")), target, 1.0, 1.0
        ),
    ]


INSTANCES = _instances()
# problems with finitely many coefficients: the three such built-ins and
# one read from a problem file
FIXED = [
    problem("nls_coherent_modes"),
    problem("froehlich_polaron"),
    problem("fluid_membrane"),
    cli.load_problem_file(str(FILE_PROBLEM)),
]


def _fields(record):
    return [getattr(record, name) for name in type(record).__slots__]


@pytest.fixture(
    params=INSTANCES + FIXED,
    ids=[type(r).__name__ for r in INSTANCES] + [f"problem-{p.name}" for p in FIXED],
)
def record(request):
    return request.param


def test_every_result_type_is_covered():
    assert {type(r) for r in INSTANCES} == {
        AmplitudeResult,
        BenchmarkProblem,
        ContinuedRootApproximant,
        ConvergenceDiagnostics,
        ExponentTarget,
        ExtrapolationReport,
        ReportRow,
        TruncatedSeries,
    }


def test_fields_cannot_be_assigned_or_deleted(record):
    for name, value in zip(type(record).__slots__, _fields(record)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert not hasattr(record, "__dict__")


def test_equal_fields_give_equal_records_and_hashes(record):
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != tuple(_fields(record))
    for other in INSTANCES:
        if type(other) is not type(record):
            assert record != other


def test_copies_and_pickles_compare_equal(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_fixed_problems_compare_and_print_by_their_coefficients():
    again = cli.load_problem_file(str(FILE_PROBLEM))
    assert again == FIXED[-1] and hash(again) == hash(FIXED[-1])
    for fixed in FIXED:
        text = repr(fixed)
        assert repr(tuple(fixed.coefficients(fixed.max_order))) in text
        assert " at 0x" not in text


def test_repr_names_every_field(record):
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(")
    for name, value in zip(type(record).__slots__, _fields(record)):
        assert f"{name}={value!r}" in text


def test_constructor_lives_in_the_class_itself(record):
    assert "__init__" in vars(type(record))


def test_keyword_construction_equals_positional(record):
    cls = type(record)
    by_name = cls(**dict(zip(cls.__slots__, _fields(record))))
    assert by_name == cls(*_fields(record)) == record


def test_signature_names_the_fields_in_slot_order(record):
    cls = type(record)
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)


def test_only_error_and_known_amplitude_have_defaults(record):
    cls = type(record)
    defaults = {
        name: param.default
        for name, param in inspect.signature(cls).parameters.items()
        if param.default is not inspect.Parameter.empty
    }
    expected = {ReportRow: {"error": None}, ExponentTarget: {"amplitude": None}}
    assert defaults == expected.get(cls, {})


def test_constructor_is_named_after_its_class(record):
    # TypeError text differs between Python versions; it is built from these
    cls = type(record)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_missing_field_raises_type_error(record):
    cls = type(record)
    params = inspect.signature(cls).parameters
    for name in cls.__slots__:
        if params[name].default is not inspect.Parameter.empty:
            continue
        fields = dict(zip(cls.__slots__, _fields(record)))
        del fields[name]
        with pytest.raises(TypeError, match=repr(name)):
            cls(**fields)


@pytest.mark.parametrize(
    "cls, names",
    [
        (TruncatedSeries, ["__init__"]),
        (ContinuedRootApproximant, ["expand", "evaluate", "amplitude"]),
        (BenchmarkProblem, ["coefficients"]),
    ],
)
def test_traced_methods_live_in_the_class_dict(cls, names):
    # perfbench/tracing.py reads these with vars(cls)[name] and wraps them
    for name in names:
        assert callable(vars(cls)[name])
