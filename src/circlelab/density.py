"""Subsets of the positive integers, prefix densities, and block lifting.

Every set answers two queries: ``next_member`` and ``next_gap``, the least
member and the least non-member >= n. Two representations answer them:
bounded unions of closed intervals (a finite element list is a union of
one-point intervals), by bisection over the intervals, and rule sets, each
query by a rule of its own in closed form or through the rules of the set
it is built from. Only the first is finite; a rule set states whether it is
cofinite. Membership comes from ``next_member`` alone, and no n < 1 is a
member; the maximal runs up to N, and so the members, come from the two
queries in turn. Prefix counting follows the convention that the naturals
start at 1, so the density estimate at N uses the window [1, N].

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
from .sequences import ArithSeq, DerivedSeq, cube_block_of

__all__ = [
    "NatSet",
    "IntervalNatSet",
    "RuleNatSet",
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

    def next_gap(self, n: int) -> int | None:
        """The least non-member >= n (n >= 1), or None when there is none."""
        raise NotImplementedError

    def spread_from(self, g: int) -> int | None:
        """The least member that lies at least g past the member before it
        (or 0), as every later member does; None when the set cannot say.
        A set that answers also answers ``count_upto``."""
        return None

    def runs_upto(self, N: int) -> Iterator[tuple[int, int]]:
        """The maximal runs [lo, hi] of members, clipped to [1, N], in
        increasing order: each from ``next_member``, ended by ``next_gap``."""
        lo = self.next_member(1)
        while lo is not None and lo <= N:
            gap = self.next_gap(lo)
            if gap is None or gap > N:
                yield lo, N
                return
            yield lo, gap - 1
            lo = self.next_member(gap)

    def iter_upto(self, N: int) -> Iterator[int]:
        for lo, hi in self.runs_upto(N):
            yield from range(lo, hi + 1)


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
        ivals = self.intervals
        i = bisect_right(ivals, (n, math.inf))  # intervals starting <= n
        if i and n <= ivals[i - 1][1]:
            return n
        return ivals[i][0] if i < len(ivals) else None

    def next_gap(self, n):
        ivals = self.intervals
        i = bisect_right(ivals, (n, math.inf))
        return ivals[i - 1][1] + 1 if i and n <= ivals[i - 1][1] else n

    def count_upto(self, N):
        if N < 1:
            raise PreconditionError(f"prefix bound must be >= 1, got {N}")
        i = bisect_right(self.intervals, (N, math.inf))  # intervals starting <= N
        if i == 0:
            return 0
        if self._cum is None:
            self._cum = list(accumulate((hi - lo + 1 for lo, hi in self.intervals),
                                        initial=0))
        lo, hi = self.intervals[i - 1]
        return self._cum[i - 1] + min(hi, N) - lo + 1

    def __eq__(self, other):
        if isinstance(other, IntervalNatSet):
            return self.intervals == other.intervals
        return NotImplemented

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalNatSet({list(self.intervals)})"


class RuleNatSet(NatSet):
    """An infinite set given by two rules, each taking n >= 1: ``next_member``,
    the least member >= n, and ``next_gap``, the least non-member >= n or
    None. Both are bound as instance attributes, so a query calls its rule
    directly. ``is_cofinite`` says whether the set misses only finitely
    many n."""

    is_finite = False

    def __init__(self, next_member: Callable[[int], int],
                 next_gap: Callable[[int], int | None], is_cofinite: bool,
                 name: str = "rule"):
        self.next_member = next_member
        self.next_gap = next_gap
        self.is_cofinite = is_cofinite
        self.name = name

    def __repr__(self):
        return f"RuleNatSet({self.name})"


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

    def gap(n):
        g = s.next_gap(n + m)
        return None if g is None else g - m

    return RuleNatSet(lambda n: s.next_member(n + m) - m, gap, s.is_cofinite,
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

    def at(rule):
        # index i lies in block k; the rule's answer j >= k from there starts
        # block j, unless it is k itself
        def answer(i):
            k = derived.block(i) + 1
            j = rule(k)
            if j == k:
                return i
            return None if j is None else derived.boundary(j - 1)
        return answer

    return RuleNatSet(at(s.next_member), at(s.next_gap), s.is_cofinite,
                      name=f"lift({s.name})")


# ===== Stock sets and the set-expression language ===========================


def cube_gap_blocks() -> RuleNatSet:
    """The block set with g_1 = 1, h_j - g_j = j^3, g_{j+1} - h_j = j; density 1.
    Block 1 ends next to block 2, so the first gap is 12."""

    def member(n):
        j, h = cube_block_of(n)
        return n if n <= h else h + j

    def gap(n):
        j, h = cube_block_of(n)
        if n > h:
            return n
        return h + 1 if j > 1 else 12

    return RuleNatSet(member, gap, False, name="blocks:cube-gap")


def evens() -> RuleNatSet:
    return RuleNatSet(lambda n: n + n % 2, lambda n: n + 1 - n % 2, False,
                      name="evens")


class _Squares(RuleNatSet):
    """The squares, counted by ``math.isqrt``; the gap before m^2 is 2m - 1."""

    def __init__(self):
        super().__init__(lambda n: (math.isqrt(n - 1) + 1) ** 2,
                         lambda n: n + (math.isqrt(n) ** 2 == n), False, name="squares")

    def count_upto(self, n):
        return math.isqrt(n)

    def spread_from(self, g):
        m = (g + 2) // 2  # the least m with 2m - 1 >= g
        return m * m


def squares() -> RuleNatSet:
    return _Squares()


def full_set() -> RuleNatSet:
    return RuleNatSet(lambda n: n, lambda n: None, True, name="all")


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
