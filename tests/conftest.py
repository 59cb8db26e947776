"""Test-session setup and reference code shared by the test modules."""

import os
from fractions import Fraction
from pathlib import Path

import pytest

import circlelab
from circlelab.circle import CirclePoint, DigitRule
from circlelab.density import IntervalNatSet
from circlelab.errors import PreconditionError

# the source tree of the package under test, for the CLI subprocesses
_SRC = str(Path(circlelab.__file__).resolve().parents[1])


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """Let ``python -m circlelab.cli`` children import the same package."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
        yield


# ----- reference code the tests compare the library with --------------------

def window_from_scratch(x: CirclePoint, n: int, t: int) -> tuple[int, int]:
    """Unreduced (num, den) with S = num/den, den = b_n * ... * b_{n+t}."""
    num = 0
    den = 1
    for j in range(n, n + t + 1):
        b = x.seq.ratio(j)
        num = num * b + x.digit(j)
        den *= b
    return num, den


def as_fraction(x: CirclePoint) -> Fraction:
    """Exact value sum c_n / a_n; defined only for declared finite support."""
    m = x.rule.finite_support_max()
    if m is None:
        raise PreconditionError("as_fraction needs declared finite support")
    total = Fraction(0)
    for n in range(1, m + 1):
        c = x.digit(n)
        if c:
            total += Fraction(c, x.seq.term(n))
    return total


class FuncDigits(DigitRule):
    """An arbitrary digit rule (n, b_n) -> c_n with a declared support kind."""

    def __init__(self, fn, support_kind: str = "unknown"):
        self._fn = fn
        self._support_kind = support_kind

    def digit(self, n, seq):
        return self._fn(n, seq.ratio(n))

    def support_kind(self):
        return self._support_kind

    def describe(self):
        return "func"


def elem_set(elems) -> IntervalNatSet:
    """The bounded set with the given elements, as ``fin:{...}`` parses it."""
    return IntervalNatSet((v, v) for v in elems)
