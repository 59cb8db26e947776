"""Test-session setup and reference code shared by the test modules."""

import os
from bisect import bisect_right
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

import circlelab
from circlelab.circle import CirclePoint, DigitRule, IndicatorDigits, RationalDigits
from circlelab.density import IntervalNatSet, NatSet
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


class Enclosure(NamedTuple):
    """The closed interval [lo, hi] of an integer window, as Fractions."""

    lo: Fraction
    hi: Fraction


def as_enclosure(window: tuple[int, int, int] | None) -> Enclosure | None:
    """The window (lo, hi, den) as [lo/den, hi/den], checked on the ints to
    lie inside [0, 1] as the ``recursion`` suite checks it; None, the
    undecided [0, 1], stays None."""
    if window is None:
        return None
    lo, hi, den = window
    if den < 1 or not 0 <= lo <= hi <= den:
        raise PreconditionError(f"invalid enclosure [{lo}/{den}, {hi}/{den}]")
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


def as_fraction(x: CirclePoint) -> Fraction:
    """Exact value of an exact point: p/q for a non-terminating rat: point,
    else sum c_n / a_n, defined only for declared finite support."""
    if isinstance(x.rule, RationalDigits):
        return Fraction(x.rule.p, x.rule.q)
    m = x.rule.finite_support_max()
    if m is None:
        raise PreconditionError("as_fraction needs an exact point")
    total = Fraction(0)
    for n in range(1, m + 1):
        c = x.digit(n)
        if c:
            total += Fraction(c, x.seq.term(n))
    return total


def eager_expansion(value: Fraction, seq, horizon: int) -> tuple[list[int], bool]:
    """The greedy expansion of value = p/q with every digit computed up
    front: c_n = floor(b_n s_{n-1} / q), s_n = b_n s_{n-1} mod q, s_0 = p,
    up to the horizon or to the first zero remainder. Returns the digits
    and whether the remainder reached 0; the reference for
    ``digits_from_rational``, which tests termination by a product mod q
    and computes digits only as they are read."""
    digits = []
    rem, q = value.numerator, value.denominator
    for n in range(1, horizon + 1):
        if rem == 0:
            return digits, True
        c, rem = divmod(rem * seq.ratio(n), q)
        digits.append(c)
    return digits, rem == 0


class FuncDigits(DigitRule):
    """An arbitrary digit rule (n, b_n) -> c_n with a declared support set,
    or none."""

    def __init__(self, fn, support=None):
        self._fn = fn
        self.support = support

    def digit(self, n, seq):
        return self._fn(n, seq.ratio(n))

    def describe(self):
        return "func"


class WalkedSet(NatSet):
    """A set that forwards only ``next_member`` to another (membership
    follows from it), so a scan over it walks every gap the other's count
    would multiply."""

    def __init__(self, inner: NatSet):
        self._inner = inner
        self.is_finite, self.is_cofinite = inner.is_finite, inner.is_cofinite

    def next_member(self, n):
        return self._inner.next_member(n)


class OpaqueSet(NatSet):
    """An infinite set known only through a membership predicate: its
    ``next_member`` and ``next_gap`` test indices one by one, as for a set
    with no closed form for either. A cofinite set states its last gap (0
    when it has none), since a search one index at a time past it would not
    end; a set given no last gap is not cofinite."""

    is_finite = False

    def __init__(self, pred, name: str = "opaque", last_gap: int | None = None):
        self._pred = pred
        self._last_gap = last_gap
        self.is_cofinite = last_gap is not None
        self.name = name

    def next_member(self, n):
        return next(j for j in count(n) if self._pred(j))

    def next_gap(self, n):
        if self.is_cofinite and n > self._last_gap:
            return None
        return next(j for j in count(n) if not self._pred(j))


class AlternatingGaps(NatSet):
    """The members h, 2h + 1, 3h + 1, 4h + 2, ...: the gaps from 0 alternate
    h and h + 1, so two gaps span p = 2h + 1. It answers ``count_upto`` and
    ``spread_from`` (h when h >= g), so a scan over it counts its gaps."""

    is_finite = is_cofinite = False

    def __init__(self, h: int):
        self.h, self.p = h, 2 * h + 1
        self.name = f"alternating-gaps:{h}"

    def __contains__(self, n):
        return n >= 1 and n % self.p in (0, self.h)

    def next_member(self, n):
        base = n - n % self.p
        return next(m for m in (base, base + self.h, base + self.p)
                     if m >= max(n, 1) and m in self)

    def count_upto(self, n):
        return n // self.p + (n - self.h) // self.p + 1

    def spread_from(self, g):
        return self.h if self.h >= g else None


def elem_set(elems) -> IntervalNatSet:
    """The bounded set with the given elements, as ``fin:{...}`` parses it."""
    return IntervalNatSet((v, v) for v in elems)


class MemoDerived:
    """Block boundaries memoized by the recurrence n_{k+1} = n_k + b_{k+1} - 1,
    and decompose by bisection over them: the reference for closed forms."""

    def __init__(self, seq):
        self.seq = seq
        self.bounds = [1]

    def _grow_to(self, k: int) -> None:
        bounds = self.bounds
        while len(bounds) <= k:
            bounds.append(bounds[-1] + self.seq.ratio(len(bounds)) - 1)

    def boundary(self, k: int) -> int:
        self._grow_to(k)
        return self.bounds[k]

    def decompose(self, i: int) -> tuple[int, int]:
        while self.bounds[-1] <= i:
            self._grow_to(len(self.bounds))
        k = bisect_right(self.bounds, i) - 1
        return k, i - self.bounds[k] + 1


def tail_bound_out(x: CirclePoint, k: int, band_lo: Fraction) -> bool:
    """Whether the tail bound puts every row of block k below band_lo = p/q:
    (b_{k+1} - 1) * q <= p * P with P = b_{k+1} ... b_{J-1} and J the least
    support index past k. The digits k+1, k+2, ... are tested one by one,
    and the product stops growing once it is large enough; with no support
    index past k the answer is False, as nothing is skipped there."""
    if not isinstance(x.rule, IndicatorDigits) or band_lo == 0:
        return False
    p, q = band_lo.numerator, band_lo.denominator
    need = (x.seq.ratio(k + 1) - 1) * q
    last = x.rule.finite_support_max()
    P, j = 1, k + 1  # P = b_{k+1} ... b_{j-1}, over digits that are 0
    while j not in x.rule.support:
        if last is not None and j > last:
            return False
        if need <= p * P:
            return True
        P *= x.seq.ratio(j)
        j += 1
    return need <= p * P


def certified_below(x: CirclePoint, k: int, r: int, bound: Fraction) -> bool:
    """Whether {r * a_k * x} < bound, certified by the Fraction upper bound
    r * (S + 1/den) of a window S = num/den over the digits k+1 .. k+1+t,
    for t = 8, 64, 512 or 2048 (a run of digits c_n = b_n - 1 after the
    next supported digit can need the deep ones)."""
    for t in (8, 64, 512, 2048):
        num, den = window_from_scratch(x, k + 1, t)
        if Fraction(r * (num + 1), den) < bound:
            return True
    return False


def sparse_supports():
    """Support expressions with gaps between members: finite sets and
    interval unions, the stock sets, and their lifts and shifts. Lifted
    finite sets stay small, so that their points stay cheap to evaluate
    exactly under pow:2."""
    fin = st.frozensets(st.integers(1, 60), min_size=1, max_size=4).map(
        lambda e: "fin:{" + ",".join(map(str, sorted(e))) + "}")
    ivl = st.tuples(st.integers(1, 40), st.integers(0, 3), st.integers(2, 30),
                    st.integers(0, 3)).map(
        lambda t: f"ivl:[{t[0]},{t[0] + t[1]}]+[{t[0] + t[1] + t[2]},"
                  f"{t[0] + t[1] + t[2] + t[3]}]")
    stock = st.sampled_from(("squares", "evens", "blocks:cube-gap"))
    small = st.frozensets(st.integers(1, 7), min_size=1, max_size=3).map(
        lambda e: "fin:{" + ",".join(map(str, sorted(e))) + "}")
    return st.one_of(fin, ivl, stock, (small | stock).map(lambda e: f"lift({e})"),
                     st.tuples(fin | ivl | stock, st.integers(1, 5)).map(
                         lambda t: f"shift({t[0]},{t[1]})"))
