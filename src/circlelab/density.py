"""Subsets of the positive integers, prefix densities, and block lifting.

Three set representations are supported: bounded unions of closed intervals
(a finite element list is a union of one-point intervals), rule-generated
interval families, and next-member rules; only the first is finite, and the
other two state whether they are cofinite. Every set answers membership from
``next_member`` alone, and no n < 1 is a member. Prefix counting follows the
convention that the naturals start at 1, so the density estimate at N uses
the window [1, N].

The lifting map sends a set A of block indices to
L(A) = union over k in A of [n_{k-1}, n_k - 1] in derived-index space.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator

from .errors import PreconditionError, SpecParseError
from .parse import enclosed, integer, integers
from .records import FrozenRecord
from .sequences import ArithSeq, DerivedSeq, cube_block_edges

__all__ = [
    "NatSet",
    "IntervalNatSet",
    "LazyIntervalNatSet",
    "PredicateNatSet",
    "DensityEstimate",
    "lift",
    "translate",
    "set_algebra",
    "cube_gap_blocks",
    "evens",
    "squares",
    "full_set",
    "parse_set_expr",
]


class NatSet:
    """Abstract subset of {1, 2, 3, ...}.

    ``is_finite`` and ``is_cofinite`` are exact: a finite set is an
    ``IntervalNatSet``, and every unbounded set states whether its
    complement is finite.
    """

    is_finite: bool
    is_cofinite: bool

    def __contains__(self, n: int) -> bool:
        """Whether n is a member; False for every n < 1."""
        return n >= 1 and self.next_member(n) == n

    def next_member(self, n: int) -> int | None:
        """The least member >= n (n >= 1), or None when there is none."""
        raise NotImplementedError

    def spread_from(self, g: int) -> int | None:
        """The least member that lies at least g past the member before it
        (or 0), as every later member does; None when the set cannot say.
        A set that answers also answers ``count_upto``."""
        return None

    def iter_upto(self, N: int) -> Iterator[int]:
        n = self.next_member(1)
        while n is not None and n <= N:
            yield n
            n = self.next_member(n + 1)

    def _check(self, N: int) -> None:
        if N < 1:
            raise PreconditionError(f"prefix bound must be >= 1, got {N}")


def _next_in(intervals, n: int) -> int | None:
    """The least member >= n of sorted disjoint closed intervals, by bisection."""
    i = bisect_right(intervals, (n, math.inf)) - 1
    if i >= 0 and n <= intervals[i][1]:
        return n
    return intervals[i + 1][0] if i + 1 < len(intervals) else None


def _merge_intervals(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The disjoint, non-adjacent closed intervals covering the pairs (lo, hi);
    a pair with lo > hi is empty."""
    merged = []
    start = top = None  # the interval being grown
    for lo, hi in sorted(pairs):
        if lo > hi:
            continue
        if top is None:
            start, top = lo, hi
        elif lo > top + 1:
            merged.append((start, top))
            start, top = lo, hi
        elif hi > top:
            top = hi
    if top is not None:
        merged.append((start, top))
    return tuple(merged)


class IntervalNatSet(NatSet):
    """A bounded union of closed intervals, kept sorted, disjoint and
    non-adjacent; the prefix counts are built on the first ``count_upto``."""

    is_finite = True
    is_cofinite = False

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        ivals = _merge_intervals(intervals)
        if ivals and ivals[0][0] < 1:
            raise PreconditionError("intervals must lie inside the positive integers")
        self.intervals = ivals
        self._cum: list[int] | None = None

    @classmethod
    def of_canonical(cls, intervals: tuple[tuple[int, int], ...]) -> "IntervalNatSet":
        """The set of intervals that are already sorted, disjoint,
        non-adjacent and inside the positive integers, taken as they are."""
        self = cls.__new__(cls)
        self.intervals = intervals
        self._cum = None
        return self

    def next_member(self, n):
        return _next_in(self.intervals, n)

    def count_upto(self, N):
        self._check(N)
        i = bisect_right(self.intervals, (N, math.inf))  # intervals starting <= N
        if i == 0:
            return 0
        if self._cum is None:
            self._cum = list(accumulate((hi - lo + 1 for lo, hi in self.intervals),
                                        initial=0))
        lo, hi = self.intervals[i - 1]
        return self._cum[i - 1] + min(hi, N) - lo + 1

    def iter_upto(self, N):
        for lo, hi in self.intervals:
            if lo > N:
                break
            yield from range(lo, min(hi, N) + 1)

    def __eq__(self, other):
        if isinstance(other, IntervalNatSet):
            return self.intervals == other.intervals
        return NotImplemented

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalNatSet({list(self.intervals)})"


class LazyIntervalNatSet(NatSet):
    """An interval union produced by a rule, materialized on demand.

    The factory returns an iterator of (lo, hi) pairs with strictly increasing
    lo and disjoint ranges; adjacent ranges are merged during materialization.
    The family is infinite; ``is_cofinite`` says whether it ends in an
    endless run.
    """

    is_finite = False

    def __init__(self, factory: Callable[[], Iterator[tuple[int, int]]],
                 is_cofinite: bool, name: str = "rule-intervals"):
        self._factory = factory
        self._iter: Iterator[tuple[int, int]] | None = None
        self._ivals: list[tuple[int, int]] = []
        self._exhausted = False
        self.is_cofinite = is_cofinite
        self.name = name

    def _extend_to(self, N: int) -> None:
        # Membership on [1, N] is decided once an interval reaches past N,
        # an interval starts past N, or the family is exhausted.
        if self._iter is None:
            self._iter = self._factory()
        while not self._exhausted and (not self._ivals or self._ivals[-1][1] < N):
            nxt = next(self._iter, None)
            if nxt is None:
                self._exhausted = True
                break
            lo, hi = nxt
            if lo > hi or (self._ivals and lo <= self._ivals[-1][1]):
                raise PreconditionError(
                    f"rule for {self.name} produced a non-increasing interval {nxt}"
                )
            if self._ivals and lo == self._ivals[-1][1] + 1:
                self._ivals[-1] = (self._ivals[-1][0], hi)
            else:
                self._ivals.append((lo, hi))
            if lo > N:
                break

    def next_member(self, n):
        # once the rule has reached n, the intervals up to the least member
        # >= n are materialized (or the family has ended)
        self._extend_to(n)
        return _next_in(self._ivals, n)

    def iter_upto(self, N):
        self._check(N)
        self._extend_to(N)
        for lo, hi in self._ivals:
            if lo > N:
                break
            yield from range(lo, min(hi, N) + 1)

    def walk(self) -> Iterator[tuple[int, int]]:
        """Yield the set's intervals in increasing order, pulling more from
        the rule as the walk goes.

        The trailing interval can still grow by adjacency merging, so each
        growth comes as a new adjacent piece (consumers merge them again);
        an unbounded run is thus walked piece by piece instead of waited for.
        """
        i = done = 0  # self._ivals[:i] and every member <= done are yielded
        while True:
            while i < len(self._ivals):
                lo, hi = self._ivals[i]
                if hi > done:
                    yield max(lo, done + 1), hi
                    done = hi
                i += 1
            if self._exhausted:
                return
            i = max(i - 1, 0)  # the trailing interval can still grow
            self._extend_to(done + 1)

    def __repr__(self):
        return f"LazyIntervalNatSet({self.name})"


class PredicateNatSet(NatSet):
    """An infinite set given by its next-member rule ``after``: n -> the
    least member >= n, for n >= 1; ``is_cofinite`` says whether the set
    misses only finitely many n."""

    is_finite = False

    def __init__(self, after: Callable[[int], int], is_cofinite: bool,
                 name: str = "rule"):
        self._after = after
        self.is_cofinite = is_cofinite
        self.name = name

    def next_member(self, n):
        return self._after(n)

    def __repr__(self):
        return f"PredicateNatSet({self.name})"


# ===== Density ==============================================================


class DensityEstimate(FrozenRecord):
    """Exact prefix-count bookkeeping over the window [1, N].

    lo and hi bound the fraction of decided-in elements: lo counts only the
    certified members, hi additionally grants every undecided row.
    """

    __match_args__ = ("N", "in_count", "out_count", "undecided_count")

    def __init__(self, N: int, in_count: int, out_count: int, undecided_count: int):
        if N < 1:
            raise PreconditionError("density window must have N >= 1")
        if min(in_count, out_count, undecided_count) < 0:
            raise PreconditionError("counts must be non-negative")
        if in_count + out_count + undecided_count != N:
            raise PreconditionError("counts must partition the window")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "in_count", in_count)
        object.__setattr__(self, "out_count", out_count)
        object.__setattr__(self, "undecided_count", undecided_count)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.in_count, self.N)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.in_count + self.undecided_count, self.N)


# ===== Algebra ==============================================================


def _interval_op(op: str, a: tuple[tuple[int, int], ...],
                 b: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The canonical intervals of a op b, for canonical a and b. A union is
    merged; the pieces of an intersection or a difference end where a
    maximal interval ends, so they are canonical as they are built."""
    if op == "union":
        return _merge_intervals(a + b)
    out = []
    na, nb = len(a), len(b)
    if op == "intersect":
        i = j = 0
        while i < na and j < nb:
            (alo, ahi), (blo, bhi) = a[i], b[j]
            lo = alo if alo > blo else blo
            hi = ahi if ahi < bhi else bhi
            if lo <= hi:
                out.append((lo, hi))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        return tuple(out)
    # difference a \ b
    j = 0
    for lo, hi in a:
        cur = lo
        while j < nb and b[j][1] < cur:
            j += 1
        k = j
        while k < nb:
            blo, bhi = b[k]
            if blo > hi:
                break
            if blo > cur:
                out.append((cur, blo - 1))
            if bhi >= cur:
                cur = bhi + 1
            if cur > hi:
                break
            k += 1
        if cur <= hi:
            out.append((cur, hi))
    return tuple(out)


def set_algebra(op: str, a: IntervalNatSet, b: IntervalNatSet) -> IntervalNatSet:
    """union / intersect / difference of two bounded interval unions."""
    if op not in ("union", "intersect", "difference"):
        raise PreconditionError(f"unknown set operation {op!r}")
    if not (isinstance(a, IntervalNatSet) and isinstance(b, IntervalNatSet)):
        raise PreconditionError("set algebra takes bounded interval unions only")
    return IntervalNatSet.of_canonical(_interval_op(op, a.intervals, b.intervals))


def translate(s: NatSet, m: int) -> NatSet:
    """{a - m : a in S, a - m >= 1} for m >= 0."""
    if m < 0:
        raise PreconditionError(f"translation amount must be >= 0, got {m}")
    if m == 0:
        return s
    if isinstance(s, IntervalNatSet):
        return IntervalNatSet(
            (max(lo - m, 1), hi - m) for lo, hi in s.intervals if hi > m
        )
    if isinstance(s, LazyIntervalNatSet):
        src = s

        def factory():
            for lo, hi in src.walk():
                if hi > m:
                    yield max(lo - m, 1), hi - m

        return LazyIntervalNatSet(factory, src.is_cofinite,
                                  name=f"shift({src.name},{m})")

    return PredicateNatSet(lambda n: s.next_member(n + m) - m, s.is_cofinite,
                           name=f"shift({s.name},{m})")


def lift(s: NatSet, derived: DerivedSeq) -> NatSet:
    """L(S) = union over k in S of the derived-index block [n_{k-1}, n_k - 1].

    Injective on block-index sets and commuting with union, intersection and
    difference, so it keeps a set finite, cofinite or neither. Interval
    unions lift to interval unions, every other set to a rule set. A gap
    between two intervals lifts to at least one block, so the lifted
    intervals stay canonical.
    """
    if isinstance(s, IntervalNatSet):
        return IntervalNatSet.of_canonical(tuple(
            (derived.boundary(lo - 1), derived.boundary(hi) - 1)
            for lo, hi in s.intervals
        ))
    if isinstance(s, LazyIntervalNatSet):
        src = s

        def factory():
            for lo, hi in src.walk():
                yield derived.boundary(lo - 1), derived.boundary(hi) - 1

        return LazyIntervalNatSet(factory, src.is_cofinite, name=f"lift({src.name})")
    src = s

    def factory():
        # one block per member; LazyIntervalNatSet merges adjacent blocks, and
        # a set with an unbounded run (such as all) still answers every query
        k = 1
        while True:
            nxt = src.next_member(k)
            yield derived.boundary(nxt - 1), derived.boundary(nxt) - 1
            k = nxt + 1

    return LazyIntervalNatSet(factory, src.is_cofinite, name=f"lift({src.name})")


# ===== Stock sets and the set-expression language ===========================


def cube_gap_blocks() -> LazyIntervalNatSet:
    """The block set with g_1 = 1, h_j - g_j = j^3, g_{j+1} - h_j = j; density 1."""
    return LazyIntervalNatSet(cube_block_edges, False, name="blocks:cube-gap")


def evens() -> PredicateNatSet:
    return PredicateNatSet(lambda n: n + n % 2, False, name="evens")


class _Squares(PredicateNatSet):
    """The squares, counted by ``math.isqrt``; the gap before m^2 is 2m - 1."""

    def __init__(self):
        super().__init__(lambda n: (math.isqrt(n - 1) + 1) ** 2, False, name="squares")

    def count_upto(self, n):
        return math.isqrt(n)

    def spread_from(self, g):
        m = (g + 2) // 2  # the least m with 2m - 1 >= g
        return m * m


def squares() -> PredicateNatSet:
    return _Squares()


def full_set() -> PredicateNatSet:
    return PredicateNatSet(lambda n: n, True, name="all")


def parse_set_expr(text: str, seq: ArithSeq | None = None) -> NatSet:
    """Parse a set expression.

    Grammar: ``fin:{1,3,5}``, ``ivl:[4,6]+[9,12]``, ``evens``, ``squares``,
    ``all``, ``blocks:cube-gap``, ``lift(<expr>)``, ``shift(<expr>,M)``.
    ``lift`` needs a ratio spec for the block boundaries, supplied by the
    caller as ``seq``.
    """
    text = text.strip()
    if text == "evens":
        return evens()
    if text == "squares":
        return squares()
    if text == "all":
        return full_set()
    if text == "blocks:cube-gap":
        return cube_gap_blocks()
    if text.startswith("fin:"):
        elems = integers(enclosed(text[4:], "{}", "a finite set"), "a finite set")
        try:
            return IntervalNatSet((v, v) for v in elems)
        except PreconditionError as exc:
            raise SpecParseError(str(exc)) from exc
    if text.startswith("ivl:"):
        ivals = []
        for part in text[4:].split("+"):
            bounds = integers(enclosed(part, "[]", "an interval"), "an interval")
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise SpecParseError(f"interval {part.strip()!r} must be [lo,hi], lo <= hi")
            ivals.append(tuple(bounds))
        try:
            return IntervalNatSet(ivals)
        except PreconditionError as exc:
            raise SpecParseError(str(exc)) from exc
    if text.startswith("lift(") and text.endswith(")"):
        if seq is None:
            raise SpecParseError("lift(...) needs a ratio spec context")
        return lift(parse_set_expr(text[5:-1], seq), seq.derived)
    if text.startswith("shift(") and text.endswith(")"):
        body = text[6:-1]
        inner, sep, amount = body.rpartition(",")
        if not sep:
            raise SpecParseError("shift needs the form shift(<expr>,M)")
        m = integer(amount, "a shift amount")
        if m < 0:
            raise SpecParseError("shift amount must be >= 0")
        return translate(parse_set_expr(inner, seq), m)
    raise SpecParseError(f"unrecognized set expression {text!r}")
