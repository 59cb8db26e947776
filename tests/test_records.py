"""The record classes: what a cold import loads, and dataclass parity.

The evidence objects are plain classes on ``circlelab.records``. Each test
here holds them to what the ``dataclasses`` versions did: the constructor
signature and defaults, a fresh list or dict per instance, equality, repr,
validation, and for the frozen two ``hash`` and read-only fields. The
dataclass built by ``_reference`` is the oracle for repr and hash.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from circlelab.classify import ClassVerdict
from circlelab.density import DensityEstimate
from circlelab.errors import PreconditionError
from circlelab.membership import MemberVerdict, ScanResult
from circlelab.witness import BlockRows, WitnessReport


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses():
    # dataclasses loads inspect, ast, dis, tokenize and more, and each
    # decorator execs generated source: a fifth of a cold process's set-up;
    # argparse (with gettext) is imported only when main builds its parser
    added = _modules_after("import circlelab.cli") - _modules_after("pass")
    assert "circlelab.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                        "argparse", "gettext"}


_MISSING = object()


def _no_rows() -> BlockRows:
    """The rows of a certification with no rows; each call a new object."""
    return BlockRows(None, (1, 4, 7, 8), [],
                     {"certified": 0, "violation": 0, "undecided": 0})


# class, its fields in order, frozen, the arguments it needs, its defaults
# (_MISSING for a fresh empty list or dict), and a second full set of
# arguments that differs from the first in every field
RECORDS = [
    (DensityEstimate, ("N", "in_count", "out_count", "undecided_count"), True,
     (10, 3, 5, 2), {},
     (12, 2, 4, 6)),
    (MemberVerdict, ("status", "reason", "citation_dependent", "cutoff"), True,
     ("member", "finite support"), {"citation_dependent": False, "cutoff": None},
     ("non-member", "declared infinite", True, 7)),
    (ScanResult, ("eps", "depth", "cap", "horizons", "estimates",
                  "undecided_rows", "spec", "point"), False,
     (F(1, 8), 8, 64, (100, 1000)),
     {"estimates": _MISSING, "undecided_rows": _MISSING, "spec": "", "point": ""},
     (F(1, 3), 2, 16, (50,), [DensityEstimate(50, 1, 49, 0)], [4], "pow:2", "rat:1/3")),
    (WitnessReport, ("name", "params", "point", "rows", "extras"), False,
     ("escape-band", {"m0": 10}, "ones-on:all", _no_rows()),
     {"extras": _MISSING},
     ("aligned", {"rows": 3}, "floor-div", _no_rows(), {"spec": "linear:1"})),
    (ClassVerdict, ("prop", "horizon", "verdict", "witness", "notes", "trace"),
     False,
     ("b-bounded", 30, "holds-at-horizon"),
     {"witness": None, "notes": _MISSING, "trace": _MISSING},
     ("snd", 12, "fails-at-witness", {"n": 3}, ["note"], [(1, 2)])),
]

_IDS = [entry[0].__name__ for entry in RECORDS]
_FROZEN = [entry for entry in RECORDS if entry[2]]
_MUTABLE = [entry for entry in RECORDS if not entry[2]]


def _empty(fields, defaults):
    """The default values, with a fresh empty list or dict for _MISSING."""
    empty = {"estimates": [], "undecided_rows": [], "rows": [], "notes": [],
             "trace": [], "extras": {}}
    return {name: empty[name] if value is _MISSING else value
            for name, value in defaults.items()}


def _reference(cls, fields, frozen, defaults):
    """The dataclass the record replaces, with the same fields and defaults."""
    spec = []
    for name in fields:
        if name not in defaults:
            spec.append(name)
        elif defaults[name] is _MISSING:
            factory = dict if name == "extras" else list
            spec.append((name, object, dataclasses.field(default_factory=factory)))
        else:
            spec.append((name, object, dataclasses.field(default=defaults[name])))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen)


@pytest.mark.parametrize("cls, fields, frozen, args, defaults, other", RECORDS, ids=_IDS)
def test_positional_and_keyword_construction(cls, fields, frozen, args, defaults, other):
    by_pos = cls(*args)
    by_kw = cls(**dict(zip(fields, args)))
    assert by_pos == by_kw
    for name, value in zip(fields, args):
        assert getattr(by_pos, name) is value
    assert {name: getattr(by_pos, name) for name in defaults} == _empty(fields, defaults)
    # every field, passed positionally or by name, is stored as given
    for record in (cls(*other), cls(**dict(zip(fields, other)))):
        assert tuple(getattr(record, name) for name in fields) == other
    assert len(other) == len(fields) == len(args) + len(defaults)
    with pytest.raises(TypeError):
        cls(*other, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])


@pytest.mark.parametrize("cls, fields, frozen, args, defaults, other", RECORDS, ids=_IDS)
def test_default_lists_and_dicts_are_not_shared(cls, fields, frozen, args, defaults, other):
    fresh = [name for name, value in defaults.items() if value is _MISSING]
    a, b = cls(*args), cls(*args)
    for name in fresh:
        container = getattr(a, name)
        assert container is not getattr(b, name)
        if isinstance(container, list):
            container.append(1)
        else:
            container["key"] = 1
        assert getattr(b, name) == getattr(cls(*args), name) == type(container)()


@pytest.mark.parametrize("cls, fields, frozen, args, defaults, other", RECORDS, ids=_IDS)
def test_equality_and_repr(cls, fields, frozen, args, defaults, other):
    record = cls(*other)
    assert record == cls(*other)
    assert record != cls(*args)
    # one differing field makes records unequal, where the arguments allow it
    base = args + tuple(_empty(fields, defaults).values())
    for i, name in enumerate(fields):
        try:
            changed = cls(*other[:i], base[i], *other[i + 1:])
        except PreconditionError:  # counts that no longer partition N
            continue
        assert changed != record, name
    values = tuple(getattr(record, name) for name in fields)
    assert record != values and record.__eq__(values) is NotImplemented
    ref = _reference(cls, fields, frozen, defaults)
    assert repr(record) == repr(ref(*other))
    assert repr(cls(*args)) == repr(ref(*args))


@pytest.mark.parametrize("cls, fields, frozen, args, defaults, other", _FROZEN,
                         ids=[entry[0].__name__ for entry in _FROZEN])
def test_frozen_records_hash_and_refuse_assignment(cls, fields, frozen, args,
                                                   defaults, other):
    record = cls(*other)
    ref = _reference(cls, fields, frozen, defaults)
    assert hash(record) == hash(cls(*other)) == hash(ref(*other))
    assert len({record, cls(*other), cls(*args)}) == 2
    for name in fields + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == other
    assert not hasattr(record, "no_such_field")


@pytest.mark.parametrize("cls, fields, frozen, args, defaults, other", _MUTABLE,
                         ids=[entry[0].__name__ for entry in _MUTABLE])
def test_mutable_records_assign_and_do_not_hash(cls, fields, frozen, args,
                                                defaults, other):
    record = cls(*args)
    for name, value in zip(fields, other):
        setattr(record, name, value)
    assert record == cls(*other)
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("make, message", [
    (lambda: DensityEstimate(0, 0, 0, 0), "density window must have N >= 1"),
    (lambda: DensityEstimate(3, -1, 2, 2), "counts must be non-negative"),
    (lambda: DensityEstimate(3, 1, 1, 0), "counts must partition the window"),
    (lambda: DensityEstimate(N=3, in_count=1, out_count=1, undecided_count=2),
     "counts must partition the window"),
])
def test_validation_errors_are_unchanged(make, message):
    with pytest.raises(PreconditionError) as err:
        make()
    assert str(err.value) == message
