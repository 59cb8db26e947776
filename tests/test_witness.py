"""Constructive witnesses: family points, escape bands, aligned digits."""

import cProfile
import pstats
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circlelab.circle import (
    DEPTH_CAP,
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    RationalDigits,
    int_band,
    parse_point,
)
from circlelab.classify import weakly_dli_witness_set
from circlelab.density import (
    IntervalNatSet,
    cube_gap_blocks,
    evens,
    full_set,
    lift,
)
from circlelab.errors import PreconditionError
from circlelab.sequences import ArithSeq, RatioSpec
from circlelab.witness import (
    BlockRows,
    _Segment,
    arbault_witness,
    bad_interval_family,
    certify_nonmembership,
    continuum_family_point,
    factor_u,
    nonmembership_partition,
)
from conftest import (
    FuncDigits,
    OpaqueSet,
    as_fraction,
    elem_set,
    tail_bound_out,
    window_from_scratch,
)

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))

WITNESS_A = weakly_dli_witness_set(LINEAR1, 8)  # {2,5,9,17,32,55,90,139}


def mod1(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


# ----- the continuum family --------------------------------------------------

def support(x, horizon):
    return [n for n in range(1, horizon + 1) if x.digit(n) != 0]


def test_family_point_support_selection():
    x = continuum_family_point(WITNESS_A, (0, 1, 0), LINEAR1)
    assert support(x, 200) == [5, 32, 55]
    assert x.rule.finite_support_max() == 55
    # selector bit k picks element 2k or 2k+1 of the listed set
    y = continuum_family_point(WITNESS_A, (1, 0, 1), LINEAR1)
    assert support(y, 200) == [9, 17, 90]


def test_family_points_distinct_by_selector():
    seen = set()
    for bits in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                 (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)):
        x = continuum_family_point(WITNESS_A, bits, LINEAR1)
        seen.add(as_fraction(x))
    assert len(seen) == 8


def test_family_point_validation():
    with pytest.raises(PreconditionError):
        continuum_family_point(WITNESS_A, (0, 1, 2), LINEAR1)
    with pytest.raises(PreconditionError):
        continuum_family_point(WITNESS_A, (0, 1, 0, 1), LINEAR1)  # needs 10 elements
    with pytest.raises(PreconditionError):
        continuum_family_point(evens(), (0, 1), LINEAR1)


# ----- the digit-size partition ----------------------------------------------

def _working_set(p):
    """The working set the partition splits: a1 | a2 | a3."""
    return IntervalNatSet(p.a1.intervals + p.a2.intervals + p.a3.intervals)


def test_partition_all_ones_pow2():
    x = parse_point("ones-on:all", POW2)
    p = nonmembership_partition(x, 10, 13, 14)
    assert p.branch == "cofinite"
    # n = 1 has c = b - 1 and is discarded; c/b = 2^-n crosses 1/10 at n = 4
    assert _working_set(p) == elem_set(range(2, 15))
    assert p.a1 == elem_set(range(4, 15))
    assert p.a2 == elem_set([])
    assert p.a3 == elem_set([2, 3])


def test_partition_infinite_branch():
    odds = OpaqueSet(lambda n: n % 2 == 1)
    rule = FuncDigits(lambda n, b: 1 if n % 2 else 0, odds)
    p = nonmembership_partition(CirclePoint(POW2, rule), 10, 13, 14)
    assert p.branch == "infinite"
    assert _working_set(p) == elem_set([1, 3, 5, 7, 9, 11, 13])
    assert p.a1 == elem_set([5, 7, 9, 11, 13])
    assert p.a3 == elem_set([1, 3])


@given(spec=st.sampled_from(("pow:2", "const:64", "linear:30")), m0=st.integers(10, 40),
       n0=st.integers(13, 40), data=st.data())
@settings(max_examples=100, deadline=None)
def test_partition_cuts_match_fraction_comparisons(spec, m0, n0, data):
    # the cuts 1/m0 and 1 - 1/n0, compared by integer cross-multiplication,
    # against Fraction comparisons; digits are drawn at and around each cut
    seq = ArithSeq(RatioSpec.parse(spec))
    digits = {}
    for n in range(1, 13):
        b = seq.ratio(n)
        near = [b // m0 + d for d in (-1, 0, 1)] + [b - b // n0 + d for d in (-1, 0, 1)]
        c = data.draw(st.integers(0, b - 1) | st.sampled_from(near))
        digits[n] = min(max(c, 0), b - 1)
    x = CirclePoint(seq, FuncDigits(lambda n, b: digits.get(n, 1), full_set()))
    p = nonmembership_partition(x, m0, n0, 12)
    want = {"a1": [], "a2": [], "a3": []}
    for n, c in digits.items():
        if c in (0, seq.ratio(n) - 1):  # no digit, or the quasi-support
            continue
        ratio = Fraction(c, seq.ratio(n))
        if ratio < Fraction(1, m0):
            want["a1"].append(n)
        else:
            want["a2" if ratio > 1 - Fraction(1, n0) else "a3"].append(n)
    assert (p.a1, p.a2, p.a3) == tuple(elem_set(want[key]) for key in ("a1", "a2", "a3"))


def test_partition_cuts_are_strict():
    # under const:64 with m0 = n0 = 16: 4/64 = 1/16 and 60/64 = 1 - 1/16 sit
    # on the cuts and stay in the middle band; 63 = b - 1 is quasi-support
    digits = {1: 3, 2: 4, 3: 60, 4: 61, 5: 63}
    x = CirclePoint(ArithSeq(RatioSpec.constant(64)),
                    FuncDigits(lambda n, b: digits.get(n, 32), full_set()))
    p = nonmembership_partition(x, 16, 16, 6)
    assert (p.a1, p.a2, p.a3) == (elem_set([1]), elem_set([4]), elem_set([2, 3, 6]))


def test_partition_validation():
    x = parse_point("ones-on:all", POW2)
    with pytest.raises(PreconditionError):
        nonmembership_partition(x, 9, 13, 14)
    with pytest.raises(PreconditionError):
        nonmembership_partition(x, 10, 12, 14)
    with pytest.raises(PreconditionError):
        nonmembership_partition(parse_point("finite:[0,1]", POW2), 10, 13, 14)


# ----- escape intervals ------------------------------------------------------

def test_bad_intervals_small_case():
    x = parse_point("ones-on:all", POW2)
    bad = bad_interval_family(x, elem_set([4, 5]), "small", 10, 13, 10**4)
    # block k starts at n_{k-1}; with c = 1 the offsets are b//10 and 4b//10 - 1
    assert bad.intervals == ((13, 17), (30, 38))


def test_bad_intervals_large_case():
    # c_5 = b_5 - 2 leaves gap 2; one escape interval inside block 5
    digits = [0, 0, 0, 0, 30]
    x = CirclePoint(POW2, FiniteDigits(digits))
    bad = bad_interval_family(x, elem_set([5]), "large", 10, 13, 10**4)
    assert bad.intervals == ((36, 40),)


def test_bad_intervals_validation():
    x = parse_point("ones-on:all", POW2)
    with pytest.raises(PreconditionError):
        bad_interval_family(x, elem_set([4]), "medium", 10, 13, 100)
    with pytest.raises(PreconditionError):
        bad_interval_family(x, elem_set([4]), "small", 9, 13, 100)
    # zero digit on the small branch is a caller error
    y = CirclePoint(POW2, FiniteDigits([0, 1]))
    with pytest.raises(PreconditionError, match="branch index 1 has zero digit"):
        bad_interval_family(y, elem_set([1]), "small", 10, 13, 100)
    # so is c_k >= b_k on the large branch; a built point never holds one,
    # so this point swaps its rule in afterwards and reads c_2 = 4 = b_2
    # unchecked
    z = CirclePoint(POW2, FiniteDigits([0, 1]))
    z.rule = FiniteDigits([0, 4])
    z.digit = lambda n: z.rule.digit(n, z.seq)
    with pytest.raises(PreconditionError, match="branch index 2 has a maximal digit"):
        bad_interval_family(z, elem_set([2]), "large", 10, 13, 100)


def test_certify_small_case_rows():
    x = parse_point("ones-on:all", POW2)
    bad = bad_interval_family(x, elem_set([4, 5]), "small", 10, 13, 10**4)
    report = certify_nonmembership(x, bad, "small", 10, 13, t=8, horizon=10**4)
    assert report.violations == 0 and report.undecided == 0
    assert report.certified == len(report.rows) == 14
    for _, lo, hi, _ in as_tuples(report.rows):
        assert Fraction(1, 10) <= lo and hi <= Fraction(9, 10)


def test_certify_large_case_exact():
    x = CirclePoint(POW2, FiniteDigits([0, 0, 0, 0, 30]))
    bad = bad_interval_family(x, elem_set([5]), "large", 10, 13, 10**4)
    report = certify_nonmembership(x, bad, "large", 10, 13, t=8, horizon=10**4)
    assert report.certified == 5 and report.violations == 0
    # exact values {15 r / 16} for r = 10..14, against the band [1/13, 12/13]
    values = [lo for _, lo, _, _ in as_tuples(report.rows)]
    assert values == [Fraction(3, 8), Fraction(5, 16), Fraction(1, 4),
                      Fraction(3, 16), Fraction(1, 8)]


def test_certify_flags_genuine_violations():
    # feeding the certifier a whole block instead of the escape family makes
    # the rows near the block edges leave the band: with c_5 = 1 the values
    # r/32 fall below 1/10 for r <= 3 and above 9/10 for r >= 29
    x = CirclePoint(POW2, FiniteDigits([0, 0, 0, 0, 1]))
    block = IntervalNatSet([(27, 57)])
    report = certify_nonmembership(x, block, "small", 10, 13, t=8, horizon=100)
    assert report.violations == 6
    assert report.certified == 25


def test_certify_refuses_unbounded_bad_sets():
    # an unbounded bad set is refused, not gathered element by element
    x = parse_point("ones-on:all", POW2)
    for bad in (evens(), cube_gap_blocks(), lift(full_set(), POW2.derived)):
        with pytest.raises(PreconditionError):
            certify_nonmembership(x, bad, "small", 10, 13, t=8, horizon=10**6)


@pytest.mark.parametrize("case, m0, n0, message", [
    ("small", 8, 13, "m0 must exceed 9"),
    ("small", 9, 13, "m0 must exceed 9"),
    ("large", 10, 5, "n0 must exceed 12"),
    ("large", 10, 12, "n0 must exceed 12"),
])
def test_certify_refuses_cuts_the_partition_refuses(case, m0, n0, message):
    # with m0 <= 9 the band [1/m0, 9/m0] reaches 1, with n0 <= 12 the large
    # band [min(3/(2 n0), 1 - 12/n0), ...] reaches 0 (it is [-7/5, 12/5] at
    # n0 = 5); m0 = 8 once reported 2 certified rows for the bad set {1, 2}
    # while row 2 replayed as undecided
    x = parse_point("ones-on:all", ArithSeq(RatioSpec.constant(3)))
    with pytest.raises(PreconditionError, match=message):
        certify_nonmembership(x, elem_set([1, 2]), case, m0, n0, t=1, horizon=2)


# ----- block-counted certification against the row-by-row pass ----------------

_LABELS = {"in": "certified", "out": "violation", "undecided": "undecided"}


def row_by_row_certify(x, bad, t, horizon, band_lo, band_hi):
    """The row-by-row reference: one judge per bad row, one shared cache."""
    cache = EnclosureCache(x, depth=t)
    rows = []
    for i in bad.iter_upto(horizon):
        k, r = x.seq.derived.decompose(i)
        window, side = cache.judge(k, r, int_band(band_lo, band_hi))
        lo, hi, den = (0, 1, 1) if window is None else window
        rows.append((i, Fraction(lo, den), Fraction(hi, den), _LABELS[side]))
    return rows


def as_tuples(rows):
    """The reports of ``rows`` as (index, lo, hi, verdict), ends read back
    as Fractions."""
    return [(row["index"], Fraction(row["lo"]), Fraction(row["hi"]), row["verdict"])
            for row in rows.reports()]


def as_report(row):
    """The report of a row-by-row reference row, written by ``str(Fraction)``."""
    index, lo, hi, verdict = row
    return {"index": index, "lo": str(lo), "hi": str(hi), "verdict": verdict}


@st.composite
def certify_cases(draw):
    """A point, a bad set and a horizon: bad-interval families, whole blocks
    (which merge across block boundaries) or arbitrary intervals."""
    seq = ArithSeq(RatioSpec.parse(
        draw(st.sampled_from(("const:2", "const:3", "linear:1", "pow:2")))))
    form = draw(st.sampled_from(("ones-on:all", "ones-on:squares", "rat",
                                 "finite", "floor-div", "ones-on:blocks:cube-gap")))
    if form == "rat":  # exact, whatever its expansion horizon
        q = draw(st.integers(3, 300))
        x = parse_point(f"rat:{draw(st.integers(1, q - 1))}/{q}", seq,
                        draw(st.integers(1, 14)))
    elif form == "finite":
        x = CirclePoint(seq, FiniteDigits(
            [draw(st.integers(0, seq.ratio(n) - 1)) for n in range(1, 10)]))
    elif form == "floor-div":
        x = parse_point("floor-div:m={3:2,5:2,7:2}", seq)
    else:
        try:
            x = parse_point(form, seq)
        except PreconditionError:  # ones-on:all is non-canonical under const:2
            assume(False)
    case = draw(st.sampled_from(("small", "large")))
    derived = seq.derived
    kind = draw(st.sampled_from(("family", "blocks", "intervals")))
    ks = draw(st.sets(st.integers(1, 11), min_size=1, max_size=5))
    if kind == "family":
        branch = [k for k in ks if case == "large" or x.digit(k) != 0]
        bad = bad_interval_family(x, elem_set(branch), case, 10, 13, 1600)
    elif kind == "blocks":
        bad = IntervalNatSet((derived.boundary(k - 1), derived.boundary(k) - 1)
                             for k in ks)
    else:
        bad = IntervalNatSet(draw(st.lists(
            st.tuples(st.integers(1, 1500), st.integers(0, 400)).map(
                lambda p: (p[0], p[0] + p[1])), min_size=1, max_size=6)))
    horizon = draw(st.one_of(st.just(1600), st.integers(1, 1600)))
    # shallow start depths leave more edge rows that deepen the window
    return x, bad, case, draw(st.integers(0, 8) | st.just(0)), horizon


@given(args=certify_cases())
@settings(max_examples=150, deadline=None)
def test_block_counted_certify_matches_row_by_row(args):
    x, bad, case, t, horizon = args
    report = certify_nonmembership(x, bad, case, 10, 13, t=t, horizon=horizon)
    want = row_by_row_certify(x, bad, t, horizon, report.params["band_lo"],
                              report.params["band_hi"])
    assert as_tuples(report.rows) == want
    assert len(report.rows) == len(want)
    assert (report.certified, report.violations, report.undecided) == tuple(
        sum(1 for row in want if row[3] == v)
        for v in ("certified", "violation", "undecided"))
    assert report.rows.failures() == [
        as_report(row) for row in want if row[3] != "certified"]
    assert report.to_report(rows=20)["rows"] == [as_report(row) for row in want[:20]]


@pytest.mark.parametrize("m0,open_rows", [(16, 5), (32, 4), (64, 3)])
def test_certify_counts_agree_with_rows_the_tail_bound_decides(m0, open_rows):
    # under const:2 the blocks just before a run of 65 ones of
    # blocks:cube-gap keep a depth-64 window that ends at 1/m0; the tail
    # bound puts their rows below it, in the counts and the rows alike
    x = parse_point("ones-on:blocks:cube-gap", ArithSeq(RatioSpec.constant(2)))
    bad = IntervalNatSet([(1, 3000)])
    report = certify_nonmembership(x, bad, "small", m0, 13, t=8, horizon=3000)
    want = row_by_row_certify(x, bad, 8, 3000, report.params["band_lo"],
                              report.params["band_hi"])
    assert as_tuples(report.rows) == want
    assert (report.certified, report.violations, report.undecided) == tuple(
        sum(1 for row in want if row[3] == v)
        for v in ("certified", "violation", "undecided"))
    assert report.undecided == 0
    # those rows' windows end at band_lo, which the value stays below
    assert sum(1 for row in want if row[2] == report.params["band_lo"]) == open_rows


def merged_blocks_report(t):
    """The block of a_6 cut in two, its second piece merged with all of a_7's
    block; at start depth 0 the first piece's edge rows deepen the window of
    a_6, which the second piece's rows then share. Also returns the point
    and the bad set."""
    x = parse_point("ones-on:all", POW2)
    b6, b8 = POW2.derived.boundary(6), POW2.derived.boundary(8)
    bad = IntervalNatSet([(b6, b6 + 40), (b6 + 50, b8 - 1)])
    return certify_nonmembership(x, bad, "small", 10, 13, t=t, horizon=10**4), x, bad


def test_certify_replays_split_and_merged_intervals():
    report, x, bad = merged_blocks_report(0)
    want = row_by_row_certify(x, bad, 0, 10**4, Fraction(1, 10), Fraction(9, 10))
    assert as_tuples(report.rows) == want
    assert report.violations > 0 and report.certified > 0


@pytest.mark.parametrize("spec,point,k", [("const:3", "rat:33/155", 2),
                                          ("const:3", "rat:31/99", 5),
                                          ("const:5", "rat:67/265", 5)])
@pytest.mark.parametrize("case", ["small", "large"])
def test_row_read_alone_replays_the_first_edge_row(spec, point, k, case):
    # in these blocks the first row deepens the window further than the
    # rows after it, so the replay must judge it first, as it was counted
    seq = ArithSeq(RatioSpec.parse(spec))
    x = parse_point(point, seq, 40)
    bad = IntervalNatSet([(seq.derived.boundary(k), seq.derived.boundary(k + 1) - 1)])
    report = certify_nonmembership(x, bad, case, 10, 13, t=0, horizon=10**6)
    want = row_by_row_certify(x, bad, 0, 10**6, report.params["band_lo"],
                              report.params["band_hi"])
    assert as_tuples(report.rows) == want
    assert report.rows.failures() == [
        as_report(row) for row in want if row[3] != "certified"]


# ----- report rows formatted from integer windows ----------------------------


def oracle_report_rows(x, bad, t, horizon, band_lo, band_hi):
    """Each bad row as a report row, judged with ``Fraction``s on windows
    built digit by digit by ``window_from_scratch``, without the kernel.

    An exact point is judged on its exact value: p/q for a rat: point, the
    window over its support otherwise. Else the window deepens from t,
    doubling up to the cap, until
    r * S mod 1, widened by r / den, fits one unit interval and lies inside
    or clear of the band; a row no window decides is out when the tail
    bound puts its block below band_lo. Each end is written by
    ``str(Fraction)``, and the enclosure of a row no window fits is [0, 1].
    """
    last = x.rule.finite_support_max()
    rational = isinstance(x.rule, RationalDigits)
    rows = []
    for i in bad.iter_upto(horizon):
        k, r = x.seq.derived.decompose(i)
        if rational:
            lo = hi = r * x.seq.term(k) * Fraction(x.rule.p, x.rule.q) % 1
            side = "in" if band_lo <= lo <= band_hi else "out"
        elif last is not None:
            num, den = window_from_scratch(x, k + 1, last - k - 1) if k < last else (0, 1)
            lo = hi = r * Fraction(num, den) % 1
            side = "in" if band_lo <= lo <= band_hi else "out"
        else:
            lo, hi, side, depth = Fraction(0), Fraction(1), "undecided", min(t, DEPTH_CAP)
            while True:
                num, den = window_from_scratch(x, k + 1, depth)
                lo = r * Fraction(num, den) % 1
                hi = lo + Fraction(r, den)
                if hi > 1:
                    lo, hi = Fraction(0), Fraction(1)
                elif band_lo <= lo and hi <= band_hi:
                    side = "in"
                    break
                elif hi < band_lo or lo > band_hi:
                    side = "out"
                    break
                if depth >= DEPTH_CAP:
                    if tail_bound_out(x, k, band_lo):
                        side = "out"
                    break
                depth = min(max(2 * depth, 1), DEPTH_CAP)
        rows.append({"index": i, "lo": str(lo), "hi": str(hi), "verdict": _LABELS[side]})
    return rows


POW2_ONES = parse_point("ones-on:all", POW2)


@given(args=certify_cases(), m0=st.sampled_from((10, 16)),
       shown=st.none() | st.integers(0, 300))
@settings(max_examples=150, deadline=None)
# exact rows of rat:1/3, which does not terminate within 3 digits; six
# violations of an exact point (see test_certify_flags_genuine_violations);
# five rows whose windows
# end at 1/16, which the tail bound puts out
@example(args=(parse_point("rat:1/3", POW2, 3), IntervalNatSet([(1, 40)]), "small",
               2, 40), m0=10, shown=None)
@example(args=(CirclePoint(POW2, FiniteDigits([0, 0, 0, 0, 1])),
               IntervalNatSet([(27, 57)]), "small", 8, 100), m0=10, shown=None)
@example(args=(parse_point("ones-on:blocks:cube-gap", ArithSeq(RatioSpec.constant(2))),
               IntervalNatSet([(1, 3000)]), "small", 8, 3000), m0=16, shown=None)
def test_report_rows_match_fraction_text(args, m0, shown):
    x, bad, case, t, horizon = args
    report = certify_nonmembership(x, bad, case, m0, 13, t=t, horizon=horizon)
    want = oracle_report_rows(x, bad, t, horizon, report.params["band_lo"],
                              report.params["band_hi"])
    assert report.to_report(rows=shown)["rows"] == want[:shown]
    failing = [row for row in want if row["verdict"] != "certified"]
    assert report.rows.failures() == failing


@st.composite
def run_cases(draw):
    """A point, a cache with depth 0-8 and cap 0-8, a band and up to three
    runs (k, r, size) that may cross block ends; a run may also be one
    aligned-digit row r >= b_{k+1}."""
    seq = ArithSeq(RatioSpec.parse(draw(st.sampled_from(
        ("const:2", "const:3", "linear:1", "pow:2", "dlictrex:3")))))
    form = draw(st.sampled_from(("ones-on:all", "ones-on:squares", "ones-on:evens",
                                 "floor-div", "finite", "rat")))
    if form == "rat":  # finite digits or exact, by its expansion horizon
        q = draw(st.integers(3, 300))
        x = parse_point(f"rat:{draw(st.integers(1, q - 1))}/{q}", seq,
                        draw(st.integers(1, 14)))
    elif form == "finite":
        x = CirclePoint(seq, FiniteDigits(
            [draw(st.integers(0, seq.ratio(n) - 1)) for n in range(1, 10)]))
    elif form == "floor-div":
        x = parse_point("floor-div:m={3:2,5:2,7:2}", seq)
    else:
        try:
            x = parse_point(form, seq)
        except PreconditionError:  # ones-on:all is non-canonical under const:2
            assume(False)
    cache = (draw(st.integers(0, 8)), draw(st.integers(0, 8)))  # depth, cap
    q = draw(st.integers(2, 40))
    lo = draw(st.integers(0, q))
    band = int_band(Fraction(lo, q), Fraction(draw(st.integers(lo, q)), q))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 10))
        b = seq.ratio(k + 1)
        if draw(st.integers(0, 5)) == 0:  # an aligned-digit row
            runs.append((k, draw(st.integers(b, 3 * b)), 1))
        else:  # often near the block end, so the run crosses it
            r = draw(st.integers(max(1, b - 4), b - 1) | st.integers(1, b - 1))
            runs.append((k, r, draw(st.integers(1, 60))))
    return x, cache, band, runs


def judge_row_by_row(cache, k, r, size, band):
    """(k, r, window, side) of the run's rows, one ``judge`` per row: the
    per-row replay the run judge stands in for."""
    ratio = cache.x.seq.ratio
    rows = []
    b = ratio(k + 1)
    for _ in range(size):
        rows.append((k, r, *cache.judge(k, r, band)))
        r += 1
        if r == b:  # the run goes on from row 1 of block k + 1
            k, r = k + 1, 1
            b = ratio(k + 1)
    return rows


@given(case=run_cases())
@settings(max_examples=200, deadline=None)
def test_run_judge_matches_judge_row_by_row(case):
    x, (depth, cap), band, runs = case
    cache = EnclosureCache(x, depth=depth, cap=cap)
    for k, r, size in runs:
        want = judge_row_by_row(EnclosureCache(x, depth=depth, cap=cap), k, r, size, band)
        got = []
        for block, (num, den, judged) in enumerate(cache.judge_run(k, r, size, band), k):
            # the base window, read once per block: the exact value of an exact
            # point, else the digit window at min(depth, cap)
            if cache.exact_mode:
                assert (num, den) == cache.frac_exact(block + 1)
            else:
                assert (num, den) == window_from_scratch(x, block + 1, min(depth, cap))
            got += [(block, *row) for row in judged]
        assert got == want


def per_row_reports(cache, band, segments):
    """The rows of ``segments`` judged one by one, each end written by
    ``str(Fraction)``: the replay ``BlockRows`` had before runs were
    replayed a block at a time."""
    out = []
    for seg in segments:
        for index, (_, _, window, side) in enumerate(
                judge_row_by_row(cache, seg.k, seg.r, seg.size, band), seg.index):
            lo, hi, den = window or (0, 1, 1)
            out.append({"index": index, "lo": str(Fraction(lo, den)),
                        "hi": str(Fraction(hi, den)), "verdict": _LABELS[side]})
    return out


@given(case=run_cases(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_reports_match_the_per_row_replay(case, data):
    x, (depth, cap), band, runs = case
    segments, index = [], 1
    for k, r, size in runs:
        segments.append(_Segment(index, k, r, size, 0))
        index += size + data.draw(st.integers(0, 5))
    want = per_row_reports(EnclosureCache(x, depth=depth, cap=cap), band, segments)
    # each run's certified count, which ``failures`` reads to skip a run
    segments = [seg._replace(n_in=sum(1 for row in want if row["verdict"] == "certified"
                                      and seg.index <= row["index"] < seg.index + seg.size))
                for seg in segments]
    counts = {v: sum(1 for row in want if row["verdict"] == v) for v in _LABELS.values()}
    rows = BlockRows(EnclosureCache(x, depth=depth, cap=cap), band, segments, counts)
    for shown in (None, 0, data.draw(st.integers(1, len(want)))):
        assert rows.reports(shown) == want[:shown]
    assert rows.failures() == [row for row in want if row["verdict"] != "certified"]


def test_escape_report_builds_no_fraction_per_row():
    # the seed-0 benchmark witness: 78,638 rows counted, 200 shown, and not
    # one Fraction built for a shown row
    bad = bad_interval_family(POW2_ONES, nonmembership_partition(POW2_ONES, 10, 13, 17).a1,
                              "small", 10, 13, POW2.derived.boundary(17) - 1)
    report = certify_nonmembership(POW2_ONES, bad, "small", 10, 13, t=8,
                                   horizon=POW2.derived.boundary(17) - 1)
    assert len(report.rows) == 78638

    def built(rows):
        profiler = cProfile.Profile()
        doc = profiler.runcall(report.to_report, rows=rows)
        assert len(doc["rows"]) == rows
        return sum(calls for (path, _, name), (_, calls, *_) in
                   pstats.Stats(profiler).stats.items()
                   if name == "__new__" and path.endswith("fractions.py"))

    assert built(200) == built(1) <= 2


# ----- the bad-interval family stays in its blocks ---------------------------


@given(spec=st.sampled_from(("pow:2", "linear:1")),
       case=st.sampled_from(("small", "large")), m0=st.integers(10, 40),
       n0=st.integers(13, 40), horizon=st.integers(1, 3000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_bad_intervals_stay_in_branch_blocks(spec, case, m0, n0, horizon, data):
    seq = ArithSeq(RatioSpec.parse(spec))
    low = 1 if case == "small" else 0  # the small case needs nonzero digits
    x = CirclePoint(seq, FiniteDigits(
        [data.draw(st.integers(low, seq.ratio(n) - 1)) for n in range(1, 12)]))
    branch = elem_set(data.draw(st.sets(st.integers(1, 11))))
    bad = bad_interval_family(x, branch, case, m0, n0, horizon)
    for lo, hi in bad.intervals:
        assert 1 <= lo <= hi <= horizon
        for i in range(lo, hi + 1):
            k, _ = seq.derived.decompose(i)
            assert k + 1 in branch  # branch index k + 1 owns the block of a_k


def test_witness_report_counts_and_shape():
    x = parse_point("ones-on:all", POW2)
    bad = bad_interval_family(x, elem_set([4]), "small", 10, 13, 10**4)
    report = certify_nonmembership(x, bad, "small", 10, 13, t=8, horizon=10**4)
    doc = report.to_report()
    assert doc["counts"]["rows"] == len(doc["rows"])
    assert doc["counts"]["certified"] == report.certified
    assert doc["params"]["band_lo"] == "1/10"
    assert doc["point"] == x.describe()


# ----- factorization and aligned digits --------------------------------------

def test_factor_u_examples():
    assert factor_u(48, LINEAR1) == (3, 2)
    assert factor_u(1, LINEAR1) == (0, 1)
    assert factor_u(7, LINEAR1) == (0, 7)
    for n in range(1, 9):
        u = LINEAR1.term(n) + LINEAR1.term(n - 1)
        k, v = factor_u(u, LINEAR1)
        assert (k, v) == (n - 1, LINEAR1.ratio(n) + 1)
        assert u == v * LINEAR1.term(k)
        assert v % LINEAR1.ratio(k + 1) != 0


def test_factor_u_validation():
    with pytest.raises(PreconditionError):
        factor_u(0, LINEAR1)


def test_arbault_witness_linear1():
    u_list = [LINEAR1.term(n) + LINEAR1.term(n - 1) for n in range(1, 61)]
    report = arbault_witness(LINEAR1, u_list, rows=20, depth=8)
    assert len(report.rows) == 20
    assert report.certified == 20
    assert report.extras["existence_failures"] == 0
    # greedy selection skips u_1, u_5, u_9 (their alignment divisor m divides b)
    assert report.extras["selection"] == \
        "2,6,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38,40,42,44"
    assert report.extras["skipped"] == 3
    for _, lo, hi, _ in as_tuples(report.rows):
        assert Fraction(1, 4) <= lo and hi <= Fraction(7, 8)


def test_arbault_certifies_true_values():
    """The certified enclosures are points and match direct arithmetic."""
    u_list = [LINEAR1.term(n) + LINEAR1.term(n - 1) for n in range(1, 61)]
    report = arbault_witness(LINEAR1, u_list, rows=6, depth=8)
    x = parse_point(report.point, LINEAR1)
    value = as_fraction(x)
    for index, lo, hi, _ in as_tuples(report.rows):
        assert lo == hi == mod1(u_list[index - 1] * value)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_one_row_run_replays_its_own_row(r):
    # an aligned row's multiplier part r may reach b_{k+1} and beyond; the
    # replay judges row (k, r) as given and moves on a block only after it
    x = parse_point("ones-on:all", ArithSeq(RatioSpec.constant(3)))
    cache, band = EnclosureCache(x, depth=8), int_band(Fraction(1, 4), Fraction(7, 8))
    k = 4  # b_5 = 3; x = 1/2 and r is odd, so the row is 1/2, in the band
    rows = BlockRows(cache, band, [_Segment(7, k, r, 1, 0)], {})
    window, side = EnclosureCache(x, depth=8).judge(k, r, band)
    lo, hi, den = window
    assert as_tuples(rows) == [(7, Fraction(lo, den), Fraction(hi, den), "certified")]
    assert side == "in"


def test_arbault_separation_is_respected():
    u_list = [LINEAR1.term(n) + LINEAR1.term(n - 1) for n in range(1, 61)]
    report = arbault_witness(LINEAR1, u_list, rows=10, depth=8)
    picks = [int(s) for s in report.extras["selection"].split(",")]
    for prev, cur in zip(picks, picks[1:]):
        k, _ = factor_u(u_list[cur - 1], LINEAR1)
        assert LINEAR1.term(k) >= 8 * u_list[prev - 1]


def test_arbault_validation():
    with pytest.raises(PreconditionError):
        arbault_witness(LINEAR1, [], rows=5)
    with pytest.raises(PreconditionError):
        arbault_witness(LINEAR1, [5, 3], rows=5)
    with pytest.raises(PreconditionError):
        arbault_witness(LINEAR1, [2, 4], rows=0)
    # all alignments unusable: u = a_1 * v with v odd makes m = 2 divide b_2?
    # under const 2 every b = 2 and every m = 2 divides it
    const2 = ArithSeq(RatioSpec.constant(2))
    with pytest.raises(PreconditionError):
        arbault_witness(const2, [1, 3, 5], rows=3)
