"""The typed errors with fields: messages, copies and pickles."""

import copy
import pickle

import pytest

from continued_roots import (
    ComplexBreakdownError,
    ContinuedRootError,
    UnknownProblemError,
    VanishingSensitivityError,
)

# (error, its fields by name, its message)
CASES = [
    (
        ComplexBreakdownError(3, 1.0),
        {"depth": 3, "x": 1.0},
        "bracket at depth 3 has a non-positive base at x = 1; the value is not real",
    ),
    (
        VanishingSensitivityError(14, 3.8e-15),
        {"order": 14, "slope": 3.8e-15},
        "coefficient of x^14 is insensitive to parameter 14 "
        "(affine slope 3.800e-15); cannot solve for it",
    ),
    (
        UnknownProblemError("nope", ("a", "b")),
        {"name": "nope", "valid": ("a", "b")},
        "unknown problem 'nope'; valid names: a, b",
    ),
]
IDS = [type(err).__name__ for err, _, _ in CASES]


@pytest.mark.parametrize("err, fields, message", CASES, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda err: pickle.loads(pickle.dumps(err))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_keep_type_kind_fields_and_message(
    err, fields, message, clone
):
    got = clone(err)
    assert type(got) is type(err)
    assert isinstance(got, ContinuedRootError)
    assert got.kind == err.kind
    assert {name: getattr(got, name) for name in fields} == fields
    assert str(got) == message
    # the repr names the fields in order, as the constructor takes them
    args = ", ".join(repr(value) for value in fields.values())
    assert repr(got) == repr(err) == f"{type(err).__name__}({args})"


@pytest.mark.parametrize("err, fields, message", CASES, ids=IDS)
def test_fields_are_read_only_views_of_args(err, fields, message):
    # Exception builds each error from its positional args; no __init__
    assert "__init__" not in vars(type(err))
    assert tuple(getattr(err, name) for name in fields) == err.args
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(err, name, None)
    assert tuple(getattr(err, name) for name in fields) == err.args
