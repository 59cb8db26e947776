"""Index-set representations, algebra, lifting, and prefix densities."""

import math
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from circlelab.density import (
    DensityEstimate,
    IntervalNatSet,
    cube_gap_blocks,
    evens,
    full_set,
    lift,
    parse_set_expr,
    set_algebra,
    squares,
    translate,
)
from circlelab.errors import PreconditionError, SpecParseError
from circlelab.sequences import ArithSeq, RatioSpec, cube_block_edges
from conftest import MemoDerived, OpaqueSet, elem_set

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))

finite_sets = st.frozensets(st.integers(min_value=1, max_value=50), max_size=10)


# ----- representations -------------------------------------------------------

def test_finite_set_basics():
    s = elem_set([5, 2, 9, 2])
    assert list(s.iter_upto(10)) == [2, 5, 9]
    assert s.count_upto(6) == 2
    assert 5 in s and 4 not in s and 0 not in s
    assert s.intervals == ((2, 2), (5, 5), (9, 9))
    assert s.is_finite is True


def _members(intervals) -> set[int]:
    return {n for lo, hi in intervals for n in range(lo, hi + 1)}


# a pair (lo, hi) with hi in lo - 2 .. lo + 12: empty (lo > hi) now and then
_pairs = st.integers(1, 60).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo - 2, lo + 12)))


@given(pairs=st.lists(_pairs, max_size=12))
@example(pairs=[(4, 6), (9, 12), (7, 8)])
@settings(max_examples=300, deadline=None)
def test_interval_set_merges_and_counts(pairs):
    # unsorted, overlapping and adjacent pairs against the brute-force members
    members = _members(pairs)
    s = IntervalNatSet(pairs)
    for ivals in (s.intervals, elem_set(members).intervals):
        assert _members(ivals) == members
        # canonical: increasing, non-empty, neither overlapping nor adjacent
        assert all(lo <= hi for lo, hi in ivals)
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(ivals, ivals[1:]))
        assert all(type(iv) is tuple for iv in ivals)
    assert s == elem_set(members)
    for N in (1, 5, 10, 80):
        assert s.count_upto(N) == sum(1 for n in members if n <= N)
        assert list(s.iter_upto(N)) == sorted(n for n in members if n <= N)


def test_finite_equals_interval_form():
    assert elem_set([1, 2, 3]) == IntervalNatSet([(1, 3)])
    # equal sets hash alike, so a set of NatSets keeps one of them
    assert len({elem_set([1, 2, 3]), IntervalNatSet([(1, 3)])}) == 1
    assert len({elem_set([1, 3]), IntervalNatSet([(1, 3)])}) == 2
    rule = cube_gap_blocks()
    assert len({rule, rule, IntervalNatSet([(1, 3)])}) == 2
    assert elem_set([1, 3]) != IntervalNatSet([(1, 3)])


def test_set_validation():
    with pytest.raises(PreconditionError):
        elem_set([0, 3])
    with pytest.raises(PreconditionError):
        IntervalNatSet([(0, 4)])
    with pytest.raises(PreconditionError):
        elem_set([2]).count_upto(0)


def _count(s, N: int) -> int:
    return sum(1 for _ in s.iter_upto(N))


def test_stock_sets():
    assert _count(evens(), 100) == 50
    assert _count(squares(), 100) == 10
    assert _count(full_set(), 17) == 17
    assert 49 in squares() and 50 not in squares()


# ----- algebra ---------------------------------------------------------------

@given(a=finite_sets, b=finite_sets)
@settings(max_examples=150, deadline=None)
def test_algebra_matches_python_sets(a, b):
    sa, sb = elem_set(a), elem_set(b)
    assert set(set_algebra("union", sa, sb).iter_upto(60)) == a | b
    assert set(set_algebra("intersect", sa, sb).iter_upto(60)) == a & b
    assert set(set_algebra("difference", sa, sb).iter_upto(60)) == a - b


def test_interval_algebra():
    a = IntervalNatSet([(1, 10), (20, 30)])
    b = IntervalNatSet([(5, 25)])
    assert set_algebra("union", a, b).intervals == ((1, 30),)
    assert set_algebra("intersect", a, b).intervals == ((5, 10), (20, 25))
    assert set_algebra("difference", a, b).intervals == ((1, 4), (26, 30))


# interval unions drawn from raw pairs, so operands have runs, gaps and
# adjacent blocks
_interval_sets = st.lists(_pairs, max_size=8).map(IntervalNatSet)


def _built_sets(a, b, d):
    """The sets that ``lift`` and ``set_algebra`` build from a and b, lifted
    and not."""
    la, lb = lift(a, d), lift(b, d)
    return [la, lb] + [set_algebra(op, u, v) for op in ("union", "intersect", "difference")
                       for u, v in ((a, b), (b, a), (la, lb))]


@given(a=_interval_sets, b=_interval_sets,
       seq=st.sampled_from((LINEAR1, POW2, ArithSeq(RatioSpec.parse("const:3")))),
       queries=st.lists(st.integers(1, 400), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_built_interval_sets_are_canonical_and_count(a, b, seq, queries):
    d = seq.derived
    for u in (a, b):  # the pairs lift hands on, merged
        assert lift(u, d) == IntervalNatSet(
            [(d.boundary(lo - 1), d.boundary(hi) - 1) for lo, hi in u.intervals])
    for s in _built_sets(a, b, d):
        ivals = s.intervals
        assert type(ivals) is tuple and all(type(iv) is tuple for iv in ivals)
        assert all(1 <= lo <= hi for lo, hi in ivals)
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(ivals, ivals[1:]))
        assert s == IntervalNatSet(list(ivals))  # the merging constructor
    # count_upto against a brute-force count, as each set's first query and
    # after the queries before it
    for N in queries:
        for s in _built_sets(a, b, d):
            assert s.count_upto(N) == sum(n in s for n in range(1, N + 1))
    built = _built_sets(a, b, d)
    for N in queries:
        for s in built:
            assert s.count_upto(N) == sum(n in s for n in range(1, N + 1))


def test_algebra_refuses_unbounded_operands():
    a = IntervalNatSet([(1, 10)])
    unbounded = (evens(), full_set(), cube_gap_blocks(), lift(full_set(), LINEAR1.derived))
    for other in unbounded:
        for op in ("union", "intersect", "difference"):
            with pytest.raises(PreconditionError):
                set_algebra(op, a, other)
            with pytest.raises(PreconditionError):
                set_algebra(op, other, a)
    with pytest.raises(PreconditionError):
        set_algebra("xor", a, a)


# ----- translation -----------------------------------------------------------

def test_translate_forms():
    assert set(translate(elem_set([3, 4, 9]), 3).iter_upto(10)) == {1, 6}
    assert translate(IntervalNatSet([(4, 6)]), 5).intervals == ((1, 1),)
    odd = translate(evens(), 1)
    assert list(odd.iter_upto(7)) == [1, 3, 5, 7]
    with pytest.raises(PreconditionError):
        translate(evens(), -1)


def test_translate_zero_is_identity():
    s = elem_set([2, 5])
    assert translate(s, 0) is s


@given(elems=finite_sets, m=st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_translate_matches_brute_force(elems, m):
    assert translate(elem_set(elems), m) == elem_set(v - m for v in elems if v > m)


@given(elems=finite_sets, m=st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_count_upto_at_interval_ends(elems, m):
    # either side of every interval end, where the bisection changes interval
    s = translate(elem_set(elems), m)
    ends = {e + d for iv in s.intervals for e in iv for d in (-1, 0, 1)}
    for N in sorted({n for n in ends if n >= 1} | {1, 61}):
        assert s.count_upto(N) == sum(1 for v in elems if m < v <= N + m)


def test_translate_lazy_interval_set():
    s = translate(cube_gap_blocks(), 5)
    # pointwise: n lands in the shifted set iff n + 5 was in the original
    base = cube_gap_blocks()
    for n in range(1, 120):
        assert (n in s) == ((n + 5) in base)


# ----- lifting ---------------------------------------------------------------

def test_lift_single_block():
    lifted = lift(elem_set([3]), LINEAR1.derived)
    assert lifted.intervals == ((4, 6),)


def test_lift_block_sizes():
    # |L({k})| = b_k - 1
    for seq in (LINEAR1, POW2):
        for k in range(1, 10):
            lifted = lift(elem_set([k]), seq.derived)
            (lo, hi), = lifted.intervals
            assert hi - lo + 1 == seq.ratio(k) - 1


@given(elems=finite_sets, m=st.integers(0, 60),
       seq=st.sampled_from((LINEAR1, ArithSeq(RatioSpec.parse("const:3")))))
@settings(max_examples=200, deadline=None)
def test_lift_matches_brute_force(elems, m, seq):
    d = seq.derived
    shifted = {v - m for v in elems if v > m}
    want = {n for k in shifted for n in range(d.boundary(k - 1), d.boundary(k))}
    assert lift(translate(elem_set(elems), m), d) == elem_set(want)


@given(a=finite_sets, b=finite_sets)
@settings(max_examples=100, deadline=None)
def test_lift_commutes_with_algebra(a, b):
    d = LINEAR1.derived
    sa, sb = elem_set(a), elem_set(b)
    for op, pyop in (("union", a | b), ("intersect", a & b), ("difference", a - b)):
        assert lift(elem_set(pyop), d) == set_algebra(op, lift(sa, d), lift(sb, d))


@given(a=finite_sets, b=finite_sets)
@settings(max_examples=100, deadline=None)
def test_lift_injective(a, b):
    d = POW2.derived
    if a != b:
        assert lift(elem_set(a), d) != lift(elem_set(b), d)


def test_lift_adjacent_blocks_merge():
    lifted = lift(elem_set([2, 3]), LINEAR1.derived)
    assert lifted.intervals == ((2, 6),)


def test_lift_lazy_set():
    lifted = lift(cube_gap_blocks(), LINEAR1.derived)
    d = LINEAR1.derived
    want = set()
    for k in cube_gap_blocks().iter_upto(12):
        want.update(range(d.boundary(k - 1), d.boundary(k)))
    upper = d.boundary(12) - 1
    assert set(lifted.iter_upto(upper)) == {n for n in want if n <= upper}


def test_lift_predicate_set():
    d = LINEAR1.derived
    lifted = lift(evens(), d)
    cap = d.boundary(6) - 1
    want = set()
    for k in (2, 4, 6):
        want.update(range(d.boundary(k - 1), d.boundary(k)))
    assert set(lifted.iter_upto(cap)) == want
    assert (lifted.is_finite, lifted.is_cofinite) == (False, False)


def test_lift_and_shift_of_unbounded_runs():
    """A set with an endless run answers queries instead of walking the run."""
    d = LINEAR1.derived

    def block_of(n):
        return d.decompose(n)[0] + 1

    tail = OpaqueSet(lambda n: n >= 4, name="from-4", last_gap=3)
    cases = [
        (lift(full_set(), d), lambda n: True),
        (lift(tail, d), lambda n: block_of(n) >= 4),
        (lift(lift(tail, d), d), lambda n: block_of(block_of(n)) >= 4),
        (translate(lift(tail, d), 3), lambda n: block_of(n + 3) >= 4),
    ]
    for s, member in cases:
        assert [n in s for n in range(1, 200)] == [member(n) for n in range(1, 200)]
        assert _count(s, 150) == sum(member(n) for n in range(1, 151))
        assert (s.is_finite, s.is_cofinite) == (False, True)
    assert list(parse_set_expr("lift(all)", LINEAR1).iter_upto(5)) == [1, 2, 3, 4, 5]


# Set expressions of depth <= 2 whose finite members all lie below W1: with
# elements up to 6, lift(lift(ivl:[1,6])) ends at 231 under linear:1. W2 is
# past a non-member of lift(lift(blocks:cube-gap)) (3082) and members of
# lift(lift(squares)) (667..1035) under linear:1, the sparsest of the others.
_W1, _W2 = 300, 4000
_atoms = st.one_of(
    st.frozensets(st.integers(1, 6), max_size=4).map(
        lambda e: "fin:{" + ",".join(map(str, sorted(e))) + "}"),
    st.tuples(st.integers(1, 6), st.integers(0, 5)).map(
        lambda t: f"ivl:[{t[0]},{min(t[0] + t[1], 6)}]"),
    st.sampled_from(("evens", "squares", "all", "blocks:cube-gap")),
)


def _wrap(inner):
    return st.one_of(inner.map(lambda e: f"lift({e})"),
                     st.tuples(inner, st.integers(0, 3)).map(
                         lambda t: f"shift({t[0]},{t[1]})"))


_exprs = st.one_of(_atoms, _wrap(_atoms), _wrap(_wrap(_atoms)))


@given(expr=_exprs, seq=st.sampled_from((LINEAR1, ArithSeq(RatioSpec.parse("const:3")))))
@settings(max_examples=150, deadline=None)
def test_traits_match_brute_force(expr, seq):
    s = parse_set_expr(expr, seq)
    assert type(s.is_finite) is bool and type(s.is_cofinite) is bool
    assert s.is_finite is isinstance(s, IntervalNatSet)
    members = set(s.iter_upto(_W2))
    late = {n for n in members if n > _W1}
    late_gaps = set(range(_W1 + 1, _W2 + 1)) - late
    if s.is_finite:
        assert not late  # no member past W1
    elif s.is_cofinite:
        assert not late_gaps  # no non-member past W1
    else:
        assert late and late_gaps


def _thirds():
    # an opaque set: no closed form for its next member
    return OpaqueSet(lambda n: n % 3 == 1, name="thirds")


# the thirds forms by name, built as the library builds them
_THIRDS = {"thirds": lambda seq: _thirds(),
           "shift(thirds,2)": lambda seq: translate(_thirds(), 2),
           "lift(thirds)": lambda seq: lift(_thirds(), seq.derived)}

_BLOCKS = {}  # spec -> MemoDerived, the block of a derived index by bisection


def _member(expr: str, seq, n: int) -> bool:
    """Whether n is in the set expression, decided from its definition with
    no NatSet: lift(E) holds n when E holds its block, shift(E,m) when E
    holds n + m, and each atom by its own formula."""
    if expr.startswith("lift("):
        blocks = _BLOCKS.setdefault(seq.describe(), MemoDerived(seq))
        return _member(expr[5:-1], seq, blocks.decompose(n)[0] + 1)
    if expr.startswith("shift("):
        inner, _, m = expr[6:-1].rpartition(",")
        return _member(inner, seq, n + int(m))
    if expr.startswith(("fin:", "ivl:")):
        vals = [int(v) for v in re.findall(r"\d+", expr)]
        if expr.startswith("fin:"):
            return n in vals
        return any(lo <= n <= hi for lo, hi in zip(vals[::2], vals[1::2]))
    if expr == "blocks:cube-gap":
        g, j = 1, 1  # block j is [g, g + j^3], the next starts j past its end
        while g + j ** 3 < n:
            g, j = g + j ** 3 + j, j + 1
        return g <= n
    return {"evens": n % 2 == 0, "squares": math.isqrt(n) ** 2 == n,
            "all": True, "thirds": n % 3 == 1}[expr]


def _runs(members, N: int) -> list[tuple[int, int]]:
    """The maximal runs of the sorted members <= N."""
    runs = []
    for n in members:
        if n > N:
            break
        if runs and runs[-1][1] == n - 1:
            runs[-1] = (runs[-1][0], n)
        else:
            runs.append((n, n))
    return runs


@given(expr=_exprs | st.sampled_from(sorted(_THIRDS)),
       seq=st.sampled_from((LINEAR1, ArithSeq(RatioSpec.parse("const:3")))),
       starts=st.lists(st.integers(1, _W1), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_next_member_matches_brute_force(expr, seq, starts):
    # next_member, next_gap, membership, runs_upto and iter_upto against the
    # definition of the expression, tested index by index
    s = _THIRDS[expr](seq) if expr in _THIRDS else parse_set_expr(expr, seq)
    members = [n for n in range(1, _W2 + 1) if _member(expr, seq, n)]
    gaps = sorted(set(range(1, _W2 + 1)) - set(members))
    assert [n in s for n in range(-2, 200)] == [n >= 1 and _member(expr, seq, n)
                                                for n in range(-2, 200)]
    for n in sorted(starts) + sorted(starts, reverse=True):
        want = next((m for m in members if m >= n), None)
        got = s.next_member(n)
        if want is not None or s.is_finite:
            assert got == want
        else:  # the next member lies past W2
            assert got > _W2 and _member(expr, seq, got)
        want = next((m for m in gaps if m >= n), None)
        got = s.next_gap(n)
        if want is not None or s.is_cofinite:  # a cofinite set has no gap past W1
            assert got == want
        else:  # the next gap lies past W2
            assert got > _W2 and not _member(expr, seq, got)
    # the runs read both rules in turn; one item past the expected ones is
    # read, so that a rule that does not advance fails instead of looping
    for N in [_W2] + starts:
        want = _runs(members, N)
        assert list(islice(s.runs_upto(N), len(want) + 1)) == want
        want = [n for n in members if n <= N]
        assert list(islice(s.iter_upto(N), len(want) + 1)) == want


def test_next_member_of_opaque_sets():
    # an opaque set answers its least member and gap by testing indices one
    # by one, its shift through it, and its lift through the block of the index
    thirds = OpaqueSet(lambda n: n % 3 == 0)
    assert thirds.next_member(4) == 6 and thirds.next_member(6) == 6
    assert thirds.next_gap(6) == 7 and thirds.next_gap(7) == 7
    assert translate(thirds, 2).next_member(1) == 1
    assert translate(thirds, 2).next_member(2) == 4
    assert translate(thirds, 2).next_gap(1) == 2
    lifted = lift(thirds, LINEAR1.derived)  # blocks 3, 6, ...: [4, 6], [16, 21], ...
    assert [lifted.next_member(n) for n in (1, 5, 7, 16, 22)] == [4, 5, 16, 16, 37]
    assert [lifted.next_gap(n) for n in (1, 5, 7, 16, 22)] == [1, 7, 7, 22, 22]
    # a cofinite one past its last gap has none
    tail = OpaqueSet(lambda n: n >= 4, last_gap=3)
    assert [tail.next_gap(n) for n in (2, 3, 4)] == [2, 3, None]
    lifted = lift(tail, LINEAR1.derived)  # blocks 4, 5, ...: [7, ...)
    assert [lifted.next_gap(n) for n in (3, 6, 7)] == [3, 6, None]
    assert translate(tail, 2).next_gap(2) is None
    # a finite set has no member past its end
    assert elem_set([3, 9]).next_member(10) is None
    assert IntervalNatSet().next_member(1) is None


def test_no_index_below_one_is_a_member():
    # every set form, rule sets included, answers False below 1
    sets = [elem_set([1, 2]), full_set(), evens(), squares(), cube_gap_blocks(),
            lift(full_set(), LINEAR1.derived), translate(cube_gap_blocks(), 2),
            translate(full_set(), 3), OpaqueSet(lambda n: True, last_gap=0)]
    for s in sets:
        assert [n in s for n in (-5, -1, 0)] == [False, False, False]


def test_runs_upto_yields_maximal_runs():
    # increasing, non-adjacent runs that hold exactly the members up to N
    s = translate(lift(cube_gap_blocks(), LINEAR1.derived), 3)
    runs = list(s.runs_upto(5000))
    assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))
    assert ({n for lo, hi in runs for n in range(lo, hi + 1)}
            == {n for n in range(1, 5001) if n in s})
    # an endless run is one run [1, N], however far N lies
    for N in (1, 7, 10 ** 12):
        assert list(lift(full_set(), LINEAR1.derived).runs_upto(N)) == [(1, N)]
        assert list(translate(full_set(), 3).runs_upto(N)) == [(1, N)]


# ----- densities -------------------------------------------------------------

def test_prefix_density_values():
    for N in (10, 37, 100):
        assert _count(evens(), N) == N // 2
        assert _count(squares(), N) == math.isqrt(N)


def test_density_estimate_bookkeeping():
    e = DensityEstimate(10, 3, 5, 2)
    assert e.lo == Fraction(3, 10) and e.hi == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        DensityEstimate(10, 3, 5, 1)
    with pytest.raises(PreconditionError):
        DensityEstimate(0, 0, 0, 0)


def test_cube_gap_density_climbs_to_one():
    s = cube_gap_blocks()
    # count at the end of block j: sum over i <= j of (i^3 + 1)
    assert _count(s, 107) == 104
    # density dips to a local minimum just before each block starts; those
    # minima still climb to 1
    minima = []
    cnt = 0
    for j, (g, h) in zip(range(1, 18), cube_block_edges()):
        if j >= 3:  # the gap before block 2 has width 0
            minima.append(Fraction(_count(s, g - 1), g - 1))
            assert _count(s, g - 1) == cnt
        cnt += h - g + 1
        assert _count(s, h) == cnt
    assert all(a < b for a, b in zip(minima, minima[1:]))
    assert minima[-1] > Fraction(99, 100)


def test_cube_gap_runs_are_the_blocks():
    # the closed-form rules give the blocks of cube_block_edges as runs,
    # blocks 1 and 2 joined into one, over the first 60 blocks
    edges = list(islice(cube_block_edges(), 60))
    top = edges[-1][1]
    assert list(cube_gap_blocks().runs_upto(top)) == [(1, 11)] + edges[2:]
    assert cube_gap_blocks().next_gap(1) == 12


# ----- expression language ---------------------------------------------------

def test_parse_set_expr_forms():
    assert parse_set_expr("fin:{1,3,5}") == elem_set([1, 3, 5])
    assert parse_set_expr("ivl:[4,6]+[9,12]") == IntervalNatSet([(4, 6), (9, 12)])
    assert parse_set_expr("fin:{}") == elem_set([])
    assert list(parse_set_expr("shift(evens,1)").iter_upto(5)) == [1, 3, 5]
    assert parse_set_expr("lift(fin:{3})", LINEAR1).intervals == ((4, 6),)
    assert 12 not in parse_set_expr("blocks:cube-gap")
    assert _count(parse_set_expr("all"), 9) == 9


def test_parse_set_expr_nested():
    s = parse_set_expr("shift(lift(fin:{3}),2)", LINEAR1)
    assert set(s.iter_upto(10)) == {2, 3, 4}


def test_parse_set_expr_errors():
    for bad in ("fin:1,2", "fin:{1,x}", "ivl:[4]", "ivl:[6,4]", "mystery",
                "shift(evens)", "shift(evens,x)", "fin:{0}", "fin:{3,}",
                "ivl:[1,2,3]", "fin:{1_0}", "shift(evens,²)"):
        with pytest.raises(SpecParseError):
            parse_set_expr(bad)
    with pytest.raises(SpecParseError):
        parse_set_expr("lift(fin:{3})")  # no sequence supplied
