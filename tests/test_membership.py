"""Membership verdicts and the statistical escape-set scan."""

import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from circlelab import circle
from circlelab.circle import (
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    IndicatorDigits,
    _floor_sum,
    _sort_few,
    _sort_many,
    int_band,
    parse_point,
)
from circlelab.classify import weakly_dli_witness_set
from circlelab.density import DensityEstimate, squares
from circlelab.errors import HorizonError, PreconditionError
from circlelab.membership import (
    SHOWN_UNDECIDED,
    ScanResult,
    convergence_verdict,
    finite_support_member,
    statistical_scan,
)
from circlelab.sequences import ArithSeq, DerivedSeq, RatioSpec
from circlelab.witness import continuum_family_point
from conftest import (
    AlternatingGaps,
    WalkedSet,
    as_fraction,
    certified_below,
    sparse_supports,
    tail_bound_out,
    window_from_scratch,
)

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))


def mod1(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


# ----- support-based verdicts -------------------------------------------------

def test_member_by_finite_support():
    v = finite_support_member(parse_point("rat:1/6", LINEAR1))
    assert v.status == "member"
    assert not v.citation_dependent
    assert v.cutoff == 4  # boundary of the last supported block


def test_member_zero_point():
    v = finite_support_member(parse_point("finite:[]", LINEAR1))
    assert v.status == "member" and v.cutoff == 1


def test_non_member_is_citation_dependent():
    v = finite_support_member(parse_point("ones-on:all", POW2))
    assert v.status == "non-member"
    assert v.citation_dependent
    doc = v.to_report()
    assert doc["citation_dependent"] is True and "cutoff" not in doc


def test_undeclared_support_is_inconclusive():
    v = finite_support_member(parse_point("rat:1/3", POW2))
    assert v.status == "inconclusive"


@pytest.mark.parametrize("limit", [4300, 0, None])
def test_member_cutoff_respects_the_int_text_limit(monkeypatch, limit):
    # under pow:2 the cutoff n_14283 has exactly 4300 decimal digits and
    # n_14284 more; a limit of 0, or a Python without the limit, lets both
    # through
    if limit is None:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    below = finite_support_member(parse_point("floor-div:m={14283:3}", POW2))
    assert below.status == "member"
    assert below.cutoff == POW2.derived.boundary(14283)
    assert 10 ** 4299 <= below.cutoff < 10 ** 4300
    x = parse_point("floor-div:m={14284:3}", POW2)
    if limit:
        with pytest.raises(HorizonError, match="n_14284 has more than 4300 decimal"):
            finite_support_member(x)
    else:
        assert finite_support_member(x).cutoff == POW2.derived.boundary(14284)


# ----- scans ------------------------------------------------------------------

def test_exact_scan_reads_every_digit_of_its_prefix():
    # a finite rule declares only its nonzero digit {20}, so a scan skips
    # blocks 0..16 and spans the zeros by one ratio product; the point
    # checks c_20, which is out of range, when it is built
    with pytest.raises(PreconditionError, match="c_20"):
        CirclePoint(ArithSeq(RatioSpec.constant(2)), FiniteDigits([0] * 19 + [5]))


def test_scan_sixth_at_hundred():
    scan = statistical_scan(parse_point("rat:1/6", LINEAR1), Fraction(1, 10), [100])
    assert [(e.lo, e.hi) for e in scan.estimates] == [(Fraction(3, 100), Fraction(3, 100))]
    assert scan.undecided_rows == []


def test_scan_counts_match_exact_oracle():
    x = continuum_family_point(weakly_dli_witness_set(LINEAR1, 8), (0, 1, 0), LINEAR1)
    value = as_fraction(x)
    eps = Fraction(1, 10)
    scan = statistical_scan(x, eps, [100, 1000])
    for est in scan.estimates:
        want = sum(
            1 for i in range(1, est.N + 1)
            if eps <= mod1(LINEAR1.derived.term(i) * value) <= 1 - eps
        )
        assert est.in_count == want and est.undecided_count == 0


def test_scan_unit_fraction_pattern():
    # x = 1/a_m: every row before n_m is in band for eps = 1/a_m, all later
    # rows are exactly 0
    for seq in (LINEAR1, POW2):
        for m in (2, 3, 4):
            a_m = seq.term(m)
            n_m = seq.derived.boundary(m)
            scan = statistical_scan(parse_point(f"rat:1/{a_m}", seq),
                                    Fraction(1, a_m), [2000])
            c = n_m - 1
            assert [(e.lo, e.hi) for e in scan.estimates] == \
                [(Fraction(c, 2000), Fraction(c, 2000))]


def test_scan_horizons_are_cumulative():
    x = parse_point("ones-on:all", POW2)
    scan = statistical_scan(x, Fraction(1, 8), [50, 200, 1000], depth=16)
    assert scan.horizons == (50, 200, 1000)
    ins = [e.in_count for e in scan.estimates]
    assert ins[0] <= ins[1] <= ins[2]
    for e in scan.estimates:
        assert e.in_count + e.out_count + e.undecided_count == e.N


def test_scan_rational_point_decides_every_row():
    # rat:1/3 does not terminate within 12 digits under pow:2, and is exact
    # all the same: {a_k x} is 1/3 or 2/3, so row r is out exactly when 3 | r
    x = parse_point("rat:1/3", POW2, horizon=12)
    scan = statistical_scan(x, Fraction(1, 10), [120, 10 ** 6])
    assert counts(scan) == [(120, 81, 39, 0), (10 ** 6, 666670, 333330, 0)]
    assert scan.undecided_rows == []
    want, _ = per_row_scan(x, Fraction(1, 10), [120])
    assert counts(scan)[:1] == want == [
        (120, sum(1 for i in range(1, 121) if POW2.derived.decompose(i)[1] % 3), 39, 0)]


def fraction_in_counts(seq, value, eps, horizons):
    """[(N, in)]: the rows i <= N with eps <= {d_i * value} <= 1 - eps,
    counted one by one on Fractions with d_i = r * a_k built whole."""
    out, n_in, i = [], 0, 1
    for N in sorted(set(horizons)):
        for i in range(i, N + 1):
            n_in += eps <= mod1(seq.derived.term(i) * value) <= 1 - eps
        i = N + 1
        out.append((N, n_in))
    return out


@given(spec=st.sampled_from(("const:2", "const:3", "const:5", "linear:1", "linear:2",
                             "pow:2", "pow:3", "dlictrex", "dlictrex:3")),
       q=st.integers(2, 80), p_seed=st.integers(0, 10 ** 6), eps_q=st.integers(3, 24),
       expand=st.integers(1, 40),
       horizons=st.lists(st.integers(1, 3000), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_rational_scan_matches_a_fraction_count(spec, q, p_seed, eps_q, expand, horizons):
    # a rat: point is exact whether or not it terminates within its
    # expansion horizon: every row is decided, and the counts are the
    # per-row Fraction counts of {r * a_k * p / q}
    seq = ArithSeq(RatioSpec.parse(spec))
    value = Fraction(1 + p_seed % (q - 1), q)
    x = parse_point(f"rat:{value}", seq, expand)
    eps = Fraction(1, eps_q)
    scan = statistical_scan(x, eps, horizons)
    assert [(e.N, e.in_count) for e in scan.estimates] == fraction_in_counts(
        seq, value, eps, horizons)
    assert all(e.undecided_count == 0 for e in scan.estimates)
    assert scan.undecided_rows == []


@pytest.mark.parametrize("spec,value,eps,want", [
    ("pow:2", "1/3", "1/8", 2002),
    ("const:3", "1/7", "1/8", 3000),
    ("const:3", "2/5", "1/8", 3000),
    ("linear:2", "3/13", "1/8", 64),
    ("pow:3", "5/7", "1/8", 2574),
    # {r * 2^k / 3} is 0, 1/3 or 2/3: every row off 0 sits on the closed
    # band edge
    ("const:2", "1/3", "1/3", 3000),
])
@pytest.mark.parametrize("expand", [4, 256])
def test_rational_pairs_match_a_fraction_count(spec, value, eps, want, expand):
    # at expand 4 none of them terminates; at 256, 3/13 terminates under
    # linear:2 (13 | a_11) and is scanned as its finite: digits
    seq = ArithSeq(RatioSpec.parse(spec))
    x = parse_point(f"rat:{value}", seq, expand)
    scan = statistical_scan(x, Fraction(eps), [3000])
    assert counts(scan) == [(3000, want, 3000 - want, 0)]
    assert fraction_in_counts(seq, Fraction(value), Fraction(eps), [3000]) == [(3000, want)]


def test_scan_validation():
    x = parse_point("rat:1/6", LINEAR1)
    with pytest.raises(PreconditionError):
        statistical_scan(x, Fraction(1, 2), [100])
    with pytest.raises(PreconditionError):
        statistical_scan(x, Fraction(0), [100])
    with pytest.raises(PreconditionError):
        statistical_scan(x, Fraction(1, 10), [])
    with pytest.raises(PreconditionError):
        statistical_scan(x, Fraction(1, 10), [0, 10])


def test_scan_report_shape():
    scan = statistical_scan(parse_point("rat:1/6", LINEAR1), Fraction(1, 10), [100])
    doc = scan.to_report()
    assert doc["eps"] == "1/10"
    assert doc["bounds"][0]["lo"] == "3/100"
    assert doc["spec"] == "linear:1"


# ----- batched scan against the row-by-row scan ---------------------------------

def per_row_scan(x, eps, horizons, depth=8, cap=None, tail=True):
    """The row-by-row scan: one band_verdict per derived index, shared cache.
    With tail=False the cache never asks the tail bound, so it sees only
    digit windows."""
    cache = EnclosureCache(x, depth=depth, cap=cap)
    if not tail:
        cache._skips = False
    derived = x.seq.derived
    band = int_band(eps, 1 - eps)
    tally = {"in": 0, "out": 0, "undecided": 0}
    estimates, undecided = [], []
    i = 1
    for N in sorted(set(horizons)):
        while i <= N:
            k, r = derived.decompose(i)
            verdict = cache.band_verdict(k, r, band)
            tally[verdict] += 1
            if verdict == "undecided":
                undecided.append(i)
            i += 1
        estimates.append((N, tally["in"], tally["out"], tally["undecided"]))
    return estimates, undecided


def counts(scan):
    return [(e.N, e.in_count, e.out_count, e.undecided_count)
            for e in scan.estimates]


def assert_matches_per_row(x, eps, scan, horizons, depth=8, cap=None):
    """The batched scan equals the row-by-row scan in its counts and in the
    first 100 undecided rows, the ones it keeps. A row that digit windows
    alone leave open, and the tail bound decides, is out by the Fraction
    oracle too. Returns those rows."""
    want, undecided = per_row_scan(x, eps, horizons, depth, cap)
    assert counts(scan) == want
    assert scan.undecided_rows == undecided[:100]
    _, windowed = per_row_scan(x, eps, horizons, depth, cap, tail=False)
    kept = set(undecided)
    by_tail = [i for i in windowed if i not in kept]
    top = {}  # block -> its largest such row; smaller rows lie lower
    for i in by_tail:
        k, r = x.seq.derived.decompose(i)
        top[k] = r
    for k, r in top.items():
        assert tail_bound_out(x, k, eps) and certified_below(x, k, r, eps)
    return by_tail


# stretches of few-row blocks broken by long ones, blocks of exactly 16 and 17
# rows (the most ``_sort_few`` sorts, and one more), and all-long blocks
_SCAN_SPECS = ("const:2", "const:3", "linear:1", "pow:2", "pow:3", "const:17",
               "const:18", "explicit:[2,2,40,3,2,17];tail=const:3",
               "explicit:[30,2,2,2];tail=const:2")


@st.composite
def scan_points(draw):
    """A spec and a point on it: infinite, rational, exact or finite digits,
    divisor keys, or a sparse support (``sparse_supports``: finite sets,
    which end, and shifted, lifted and stock sets with gaps both shorter and
    longer than the base depth). rat: points, finite digits, divisor keys
    and finite supports make the point exact, so they check the exact scan; the
    infinite supports check the held slide."""
    seq = ArithSeq(RatioSpec.parse(draw(st.sampled_from(_SCAN_SPECS))))
    form = draw(st.sampled_from(("ones-on:all", "ones-on:squares", "rat",
                                 "exact", "finite", "floor-div", "sparse")))
    if form == "rat":  # exact, and non-terminating unless q | a_n early
        q = draw(st.integers(2, 400))
        p = draw(st.integers(1, q - 1))
        return parse_point(f"rat:{p}/{q}", seq, draw(st.integers(1, 24)))
    if form == "exact":
        q = seq.term(draw(st.integers(1, 4)))
        return parse_point(f"exact:{draw(st.integers(0, q - 1))}/{q}", seq)
    if form == "finite":  # often with inner zeros
        digits = [draw(st.integers(0, seq.ratio(n) - 1) | st.just(0))
                  for n in range(1, draw(st.integers(0, 12)) + 1)]
        return parse_point("finite:[" + ",".join(map(str, digits)) + "]", seq)
    if form == "floor-div":
        keys = draw(st.sets(st.integers(1, 40), max_size=5))
        return parse_point("floor-div:m={" + ",".join(f"{n}:2" for n in keys) + "}",
                           seq)
    if form == "sparse":
        x = parse_point("ones-on:" + draw(sparse_supports()), seq)
        # an exact window spans the whole support: keep it short under pow:3
        assume((x.rule.finite_support_max() or 0) <= 400)
        return x
    try:
        return parse_point(form, seq)
    except PreconditionError:  # ones-on:all is non-canonical under const:2
        assume(False)


@st.composite
def scan_horizons(draw, seq):
    """Horizons anywhere, or next to a block boundary, so that some cut a
    block after its first row or before its last."""
    near = st.builds(lambda k, d: min(max(seq.derived.boundary(k) + d, 1), 1500),
                     st.integers(0, 60), st.integers(-1, 1))
    return draw(st.lists(st.integers(1, 1500) | near, min_size=1, max_size=4))


@given(x=scan_points(), q=st.integers(3, 40), depth=st.integers(0, 8),
       cap=st.integers(0, 12), data=st.data())
@settings(max_examples=300, deadline=None)
def test_batched_scan_matches_per_row_scan(x, q, depth, cap, data):
    eps = Fraction(1, q)
    horizons = data.draw(scan_horizons(x.seq))
    scan = statistical_scan(x, eps, horizons, depth, cap)
    assert_matches_per_row(x, eps, scan, horizons, depth, cap)


@given(x=scan_points(), q=st.integers(11, 40), small=st.booleans(),
       depth=st.integers(0, 8), cap=st.integers(0, 12), data=st.data())
@settings(max_examples=300, deadline=None)
def test_count_rows_matches_row_by_row(x, q, small, depth, cap, data):
    # a scan band [1/q, 1 - 1/q] or an escape band [1/q, 9/q]; the count
    # starts anywhere, mid-block too, and ends anywhere, even before it starts
    band = int_band(Fraction(1, q), Fraction(9, q) if small else 1 - Fraction(1, q))
    derived = x.seq.derived
    i = data.draw(st.integers(1, 60) | st.integers(1, 1200))
    N = data.draw(st.integers(i - 1, 1500) | st.integers(i - 1, i + 40))
    k, r = derived.decompose(i)
    fast = EnclosureCache(x, depth, cap)
    slow = EnclosureCache(x, depth, cap)
    # an earlier verdict, often on the same block, leaves both caches on a
    # window that may be deeper than the base depth
    warm = data.draw(st.none() | st.just(i) | st.integers(i - r + 1, i)
                     | st.integers(1, i))
    if warm is not None:
        for cache in (fast, slow):
            cache.band_verdict(*derived.decompose(warm), band)
    # the count appends its first undecided rows to a list that may hold some
    kept = data.draw(st.lists(st.just(0), max_size=3))
    keep = data.draw(st.integers(0, 5) | st.just(N + 3))
    held = len(kept)
    k, r, n_in, n_und = fast.count_rows(k, r, i, N, band, kept, keep)
    sides = {j: slow.band_verdict(*derived.decompose(j), band)
             for j in range(i, N + 1)}
    undecided = [j for j, side in sides.items() if side == "undecided"]
    assert n_in == list(sides.values()).count("in")
    assert n_und == len(undecided)
    assert kept[held:] == undecided[:max(keep - held, 0)]
    assert (k, r) == derived.decompose(N + 1)


@st.composite
def skipped_horizons(draw, x, eps):
    """Horizons up to 1500, most of them inside a block the tail bound puts
    out (so inside a skipped stretch), some anywhere."""
    derived = x.seq.derived
    out = []
    for k in draw(st.lists(st.integers(0, 200), min_size=1, max_size=6)):
        start = derived.boundary(k)
        if start > 1500:
            continue
        if tail_bound_out(x, k, eps):
            rows = x.seq.ratio(k + 1) - 1
            out.append(min(start + draw(st.integers(0, rows - 1)), 1500))
    return out + draw(st.lists(st.integers(1, 1500), min_size=1, max_size=2))


# small ratios that vary, so that the walk back over a gap takes several
# steps and each reads a different ratio
_VARIED = ("explicit:[2,3,2,2,5,2,3,3,2,2,2,7,2,2,3,2,5,2,2,2,3,2,2,2,2,3,2,2,5,2,2,3,2,2,2,2,3,2,2,2]"
           ";tail=const:3")


@given(spec=st.sampled_from(("const:2", "const:3", "linear:1", "pow:2",
                             "explicit:[2,2,40,3,2,17];tail=const:3", _VARIED)),
       support=sparse_supports(), q=st.integers(3, 40), depth=st.integers(0, 8),
       cap=st.none() | st.integers(0, 12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_skipping_scan_matches_per_row_scan_on_sparse_supports(spec, support, q,
                                                               depth, cap, data):
    x = parse_point(f"ones-on:{support}", ArithSeq(RatioSpec.parse(spec)))
    eps = Fraction(1, q)
    horizons = data.draw(skipped_horizons(x, eps))
    scan = statistical_scan(x, eps, horizons, depth, cap)
    assert_matches_per_row(x, eps, scan, horizons, depth, cap)


@pytest.mark.parametrize("spec,point", [
    ("const:3", "ones-on:evens"),  # gaps shorter than the base depth
    ("const:3", "ones-on:squares"),  # gaps that outgrow it
    ("linear:1", "ones-on:shift(squares,4)"),
    ("const:2", "ones-on:shift(squares,1)"),
    ("const:3", "ones-on:lift(squares)"),
    ("dlictrex", "ones-on:squares"),
    ("explicit:[2,3,2,2,5,2,3];tail=const:3", "ones-on:blocks:cube-gap"),
    ("const:3", "rat:1/4"),  # exact, no support: s_k moves once per block
])
@pytest.mark.parametrize("depth", [0, 3, 8])
def test_sliding_scan_matches_per_row_scan_on_every_rule_form(spec, point, depth):
    # a held window adds one digit per block and skips the reads of the
    # zeros its rule promises; the counts and kept rows stay the per-row ones.
    # Only an infinite support holds a window: a finite one (fin:, finite:,
    # floor-div:, a lifted fin:) makes the point exact, so its support never
    # ends inside a held slide; scan_points draws those for the exact scan
    x = parse_point(point, ArithSeq(RatioSpec.parse(spec)), 30)
    eps, horizons = Fraction(1, 9), [40, 700, 1500]
    scan = statistical_scan(x, eps, horizons, depth)
    assert_matches_per_row(x, eps, scan, horizons, depth)


def test_tail_bound_decides_rows_the_default_cap_leaves_open():
    # under const:2, blocks:cube-gap holds runs of j^3 + 1 ones; the blocks
    # just before the run of 65 keep a depth-64 window short of the run's
    # end, so the window leaves six rows open, which the tail bound puts out
    x = parse_point("ones-on:blocks:cube-gap", ArithSeq(RatioSpec.constant(2)))
    eps = Fraction(1, 8)
    scan = statistical_scan(x, eps, [1000, 3000])
    assert counts(scan) == [(1000, 23, 977, 0), (3000, 31, 2969, 0)]
    assert len(assert_matches_per_row(x, eps, scan, [1000, 3000])) == 6


def test_sparse_scan_reaches_ten_to_the_ten():
    # const:3 with ones-on:squares: only the three blocks before each square
    # need a window, so 5 * 10^9 blocks cost about 3 * 10^5 block visits;
    # the memos stop growing once the skips jump past the windows' reach
    memos = []
    for N in (10 ** 6, 10 ** 10):
        seq = ArithSeq(RatioSpec.constant(3))
        scan = statistical_scan(parse_point("ones-on:squares", seq),
                                Fraction(1, 8), [10 ** 6, N])
        memos.append((len(seq._ratios), len(seq.derived._bounds)))
    assert counts(scan) == [(10 ** 6, 2120, 10 ** 6 - 2120, 0),
                            (10 ** 10, 212129, 10 ** 10 - 212129, 0)]
    assert memos[0] == memos[1] and memos[1][0] < 100 and memos[1][1] == 1


# ----- counted gaps under const:b against the walk -------------------------------

def count_scan(support, b, q, depth, cap, horizons, keep=SHOWN_UNDECIDED, band=None):
    """``count_rows`` over ones-on:<support> under const:b and eps = 1/q
    (or the band (lo, hi) given), one call per horizon from row 1 as
    ``statistical_scan`` makes them. Returns ([(N, in, undecided)], the kept
    undecided rows, the rows the kernel walked)."""
    x = CirclePoint(ArithSeq(RatioSpec.constant(b)), IndicatorDigits(support))
    cache = EnclosureCache(x, depth, cap)
    walked, walk = [0], cache._walk

    def counted_walk(k, r, i, N, *rest):
        walked[0] += max(N - i + 1, 0)
        return walk(k, r, i, N, *rest)

    cache._walk = counted_walk
    band = int_band(*(band or (Fraction(1, q), 1 - Fraction(1, q))))
    rows, kept = [], []
    k, r, i, n_in, n_und = 0, 1, 1, 0, 0
    for N in sorted(set(horizons)):
        k, r, a, u = cache.count_rows(k, r, i, N, band, kept, keep)
        n_in, n_und, i = n_in + a, n_und + u, N + 1
        rows.append((N, n_in, n_und))
    return rows, kept, walked[0]


@st.composite
def gap_horizons(draw, b):
    """Horizons up to 10^6 under const:b: anywhere, or on a row of one of
    the blocks just before a square, which split that square's gap."""
    near = st.builds(lambda m, t, e: 1 + max(m * m - t, 0) * (b - 1) + e,
                     st.integers(2, 500), st.integers(0, 8), st.integers(0, b - 2))
    return draw(st.lists(st.integers(1, 10 ** 6) | near, min_size=1, max_size=4))


@given(b=st.integers(2, 5), q=st.integers(3, 40), depth=st.integers(0, 8),
       cap=st.integers(0, 4) | st.integers(5, 70), data=st.data())
@settings(max_examples=40, deadline=None)
def test_counted_gaps_match_the_walk(b, q, depth, cap, data):
    # the same point over a set that names no spread-out member is walked
    # gap by gap; counts and kept rows agree at every horizon
    horizons = data.draw(gap_horizons(b))
    counted = count_scan(squares(), b, q, depth, cap, horizons)
    walked = count_scan(WalkedSet(squares()), b, q, depth, cap, horizons)
    assert counted[:2] == walked[:2]
    assert walked[2] == max(horizons)


def test_counted_gaps_multiply_only_once_the_kept_list_is_full():
    # const:2, eps 1/3: at cap 0 each gap holds an undecided row, 107 by
    # N = 3000, so the count multiplies once 100 are kept; at cap 2 there
    # are 53, so the list stays open and every gap is walked
    for cap, want, walks_all in ((0, [(3000, 0, 107)], False),
                                 (2, [(3000, 54, 53)], True)):
        counted = count_scan(squares(), 2, 3, 0, cap, [3000])
        walked = count_scan(WalkedSet(squares()), 2, 3, 0, cap, [3000])
        assert counted[:2] == walked[:2] and counted[0] == want
        assert (counted[2] == 3000) == walks_all


@pytest.mark.parametrize("b", [2, 3, 4, 5])
@pytest.mark.parametrize("cap", [3, 4, 5, 6, 7, 8])
def test_counted_gap_width_is_cap_plus_one(b, cap):
    # gaps that alternate h and h + 1 blocks, at eps 1/max(b, 3), where D = 3.
    # Under const:3, 4 and 5, row b - 1 of the block before a member sits on
    # the band's upper edge 1 - 1/b, so no gap width makes it stable and
    # g = max(D, cap + 1): a gap of cap blocks is too narrow, the set names
    # no member to count from, and the scan walks, as over WalkedSet;
    # counting from gaps of cap blocks would differ from the walk there.
    # Under const:2 every row is stable from gaps of 4 on once cap >= 4, so
    # gaps of cap blocks count too. With gaps of cap + 1 and cap + 2 the
    # count multiplies (at once when no undecided row is kept); every count
    # agrees with the walk
    q = max(b, 3)
    for h in (cap, cap + 1):
        for keep in (0, SHOWN_UNDECIDED):
            counted = count_scan(AlternatingGaps(h), b, q, 0, cap, [2000], keep)
            walked = count_scan(WalkedSet(AlternatingGaps(h)), b, q, 0, cap, [2000], keep)
            assert counted[:2] == walked[:2] and walked[2] == 2000
            if keep == 0:
                assert (counted[2] < 2000) == (h > cap or (b == 2 and cap >= 4))


@given(b=st.integers(2, 5), q=st.integers(3, 40), cap=st.integers(3, 8),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_counted_gaps_of_alternating_width_match_the_walk(b, q, cap, data):
    # gaps of h and h + 1 blocks, from h = cap (too narrow to count) up, to
    # N <= 3000: a walk over short gaps visits every block, so the horizons
    # stay below those of the squares test above
    h = data.draw(st.integers(cap, cap + 6))
    depth = data.draw(st.integers(0, cap))
    horizons = data.draw(st.lists(st.integers(1, 3000), min_size=1, max_size=3))
    counted = count_scan(AlternatingGaps(h), b, q, depth, cap, horizons)
    walked = count_scan(WalkedSet(AlternatingGaps(h)), b, q, depth, cap, horizons)
    assert counted[:2] == walked[:2]


def least_out_block(b, lo):
    """D: the least d >= 3 with (b - 1) * lo <= b^(d-1) under const:b, from
    which on the tail bound puts block J - d out."""
    d = 3
    while (b - 1) > lo * b ** (d - 1):
        d += 1
    return d


def stable_gap_oracle(b, D, cap, lo, hi):
    """G* from its definition on Fractions, over every row r of the blocks
    d = 1 .. D - 1: the least G in 2 .. cap + 1 at which each interval
    [u, U], u = r b^-d, U = u (1 + 1/E) + r b^-(cap+1), E = b^(G-1) (b - 1),
    lies inside [lo, hi], below lo, or above hi and within 1; else cap + 2."""
    for G in range(2, cap + 2):
        E = b ** (G - 1) * (b - 1)
        stable = []
        for d in range(1, D):
            for r in range(1, b):
                u = Fraction(r, b ** d)
                U = u * (1 + Fraction(1, E)) + Fraction(r, b ** (cap + 1))
                stable.append(lo <= u and U <= hi or U < lo or hi < u and U <= 1)
        if all(stable):
            return G
    return cap + 2


@st.composite
def count_bands(draw, b):
    """Bands [lo, hi] with 0 < lo < 1/2 and lo < hi < 1: the scan band of
    eps = 1/q, edges a/q for q in 3 .. 40, and edges on the grid r b^-d on
    which the rows' leading values u sit."""
    q = draw(st.integers(3, 40))
    grid = st.builds(lambda r, d: Fraction(r, b ** d), st.integers(1, b - 1),
                     st.integers(1, 4))
    lo = draw(st.just(Fraction(1, q))
              | st.integers(1, (q - 1) // 2).map(lambda a: Fraction(a, q)) | grid)
    assume(2 * lo < 1)
    hi = draw(st.just(1 - lo) | st.integers(1, q - 1).map(lambda p: Fraction(p, q))
              | grid)
    assume(lo < hi < 1)
    return lo, hi


@given(b=st.integers(2, 7), data=st.data())
@settings(max_examples=200, deadline=None)
def test_stable_gap_matches_a_fraction_oracle(b, data):
    # the kernel checks two rows per block in integers; the oracle checks
    # every row on Fractions
    lo, hi = data.draw(count_bands(b))
    D = least_out_block(b, lo)
    cap = data.draw(st.integers(D, 70))
    x = CirclePoint(ArithSeq(RatioSpec.constant(b)), IndicatorDigits(squares()))
    got = EnclosureCache(x, 0, cap)._stable_gap(b, D, int_band(lo, hi))
    assert got == stable_gap_oracle(b, D, cap, lo, hi)


@given(b=st.integers(2, 12), depth=st.integers(0, 70), cap=st.integers(0, 70),
       keep=st.sampled_from((0, 3, SHOWN_UNDECIDED)), h=st.integers(2, 12),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_counted_stable_gaps_match_the_walk(b, depth, cap, keep, h, data):
    # any band, the certified width or cap + 1, counted over squares (to
    # 10^6) and over gaps of h and h + 1 (to 3000); counts and kept rows
    # agree with the walk at every horizon
    band = data.draw(count_bands(b))
    for support, horizons in (
            (squares(), data.draw(gap_horizons(b))),
            (AlternatingGaps(h), data.draw(st.lists(st.integers(1, 3000), min_size=1,
                                                    max_size=3)))):
        counted = count_scan(support, b, None, depth, cap, horizons, keep, band)
        walked = count_scan(WalkedSet(support), b, None, depth, cap, horizons, keep, band)
        assert counted[:2] == walked[:2]


@given(h=st.integers(2, 6), cap=st.integers(0, 70), depth=st.integers(0, 8),
       keep=st.sampled_from((0, 3, SHOWN_UNDECIDED)), data=st.data())
@settings(max_examples=30, deadline=None)
def test_counted_stable_gaps_match_the_walk_under_a_large_ratio(h, cap, depth,
                                                                keep, data):
    # const:1000: 999 rows per block, of which the certificate checks two;
    # the walk sorts them all
    band = data.draw(count_bands(1000))
    horizons = data.draw(st.lists(st.integers(1, 30000), min_size=1, max_size=3))
    for support in (squares(), AlternatingGaps(h)):
        counted = count_scan(support, 1000, None, depth, cap, horizons, keep, band)
        walked = count_scan(WalkedSet(support), 1000, None, depth, cap, horizons,
                            keep, band)
        assert counted[:2] == walked[:2]


def test_counted_gaps_start_at_the_certified_width():
    # const:3, band [3/8, 11/16], cap 10: D = 3 and every row is stable from
    # gaps of G* = 4 on, so gaps of 4 and 5 count at once. Over gaps of 3
    # and 4 the blocks before each member alternate 0 and 1 rows in, so a
    # count from gaps one narrower than certified would differ from the walk
    lo, hi, cap = Fraction(3, 8), Fraction(11, 16), 10
    x = CirclePoint(ArithSeq(RatioSpec.constant(3)), IndicatorDigits(squares()))
    assert EnclosureCache(x, 0, cap)._stable_gap(3, 3, int_band(lo, hi)) == 4
    for h, rows, stretch in ((3, 2000, {0, 1}), (4, 20, {1})):
        members = [m for m in range(1, 100) if m in AlternatingGaps(h)]
        # the rows before member m end at derived index 2m under const:3
        ends = count_scan(WalkedSet(AlternatingGaps(h)), 3, None, 0, cap,
                          [2 * m for m in members], 0, (lo, hi))[0]
        assert {n[1] - p[1] for p, n in zip(ends[1:], ends[2:])} == stretch
        counted = count_scan(AlternatingGaps(h), 3, None, 0, cap, [2000], 0, (lo, hi))
        walked = count_scan(WalkedSet(AlternatingGaps(h)), 3, None, 0, cap, [2000], 0,
                            (lo, hi))
        assert counted[:2] == walked[:2] and counted[2] == rows


def fraction_verdict(x, k, r, eps, depth, cap):
    """Row r of block k judged on Fractions: windows from scratch at the
    depths ``judge`` tries (the base depth, doubling up to the cap), and at
    the cap an open row is out when the tail bound puts its block below eps."""
    t = min(depth, cap)
    while True:
        num, den = window_from_scratch(x, k + 1, t)
        lo = r * Fraction(num, den) % 1
        hi = lo + Fraction(r, den)
        if hi <= 1:
            if eps <= lo and hi <= 1 - eps:
                return "in"
            if hi < eps or lo > 1 - eps:
                return "out"
        if t >= cap:
            return "out" if tail_bound_out(x, k, eps) else "undecided"
        t = min(max(2 * t, 1), cap)


@given(b=st.integers(2, 5), q=st.integers(3, 40), depth=st.integers(0, 4),
       cap=st.integers(0, 4), N=st.integers(200, 3000),
       keep=st.sampled_from((0, SHOWN_UNDECIDED)))
@settings(max_examples=20, deadline=None)
def test_counted_gaps_match_a_fraction_oracle(b, q, depth, cap, N, keep):
    eps = Fraction(1, q)
    x = CirclePoint(ArithSeq(RatioSpec.constant(b)), IndicatorDigits(squares()))
    verdicts = [fraction_verdict(x, (i - 1) // (b - 1), (i - 1) % (b - 1) + 1,
                                 eps, depth, cap) for i in range(1, N + 1)]
    rows, kept, walked = count_scan(squares(), b, q, depth, cap, [N], keep)
    assert rows == [(N, verdicts.count("in"), verdicts.count("undecided"))]
    assert kept == [i for i, v in enumerate(verdicts, 1) if v == "undecided"][:keep]
    if not keep:  # nothing to keep, so the count multiplies inside [1, N]
        assert walked < N


@pytest.mark.parametrize("b,q,depth,c,d", [
    (3, 8, 64, 3, -1), (3, 8, 8, 3, -1), (5, 10, 8, 6, -2), (2, 8, 8, 3, -2)])
def test_counted_gaps_give_the_closed_form(b, q, depth, c, d, monkeypatch):
    # in(N) = c * S(K) + d with K the block of N and S(K) = isqrt(K + 1) the
    # squares <= K + 1; the walk agrees up to 10^8, and 10^100 is reached by
    # walking a few gaps and multiplying the rest
    def closed(N):
        return c * math.isqrt((N - 1) // (b - 1) + 1) + d

    small = [10 ** 4, 10 ** 6, 10 ** 8]
    walked = count_scan(WalkedSet(squares()), b, q, depth, None, small)
    reads, digit = [], CirclePoint.digit
    monkeypatch.setattr(CirclePoint, "digit", lambda self, n: (
        reads.append(n) or digit(self, n)))
    counted = count_scan(squares(), b, q, depth, None, small + [10 ** 100])
    assert counted[0][:3] == walked[0]
    assert all(n_in == closed(N) and not n_und for N, n_in, n_und in counted[0])
    assert len(reads) < 200  # a walk to 10^8 alone reads one square per gap
    if (b, q, depth) == (3, 8, 64):
        assert counted[0][-1][1] == 212132034355964257320253308631454711785450781306540


def test_exact_scan_skips_blocks_before_a_far_support():
    # lift(fin:{10}) under pow:2 puts the support on digits 1014 .. 2036, far
    # past every block below derived index 5000: the count builds no exact
    # value (a window over about 1000 digits of b_n = 2^n) and no window
    seq = ArithSeq(RatioSpec.power(2))
    x = parse_point("ones-on:lift(fin:{10})", seq)
    assert x.rule.finite_support_max() == 2036
    cache = EnclosureCache(x, depth=16)
    k, r = seq.derived.decompose(5001)
    assert cache.count_rows(0, 1, 1, 5000, (1, 8, 7, 8)) == (k, r, 0, 0)
    assert cache._win == (-1, 0, 0, 1)
    scan = statistical_scan(x, Fraction(1, 8), [300, 2000, 5000], 16)
    assert counts(scan) == [(N, 0, N, 0) for N in (300, 2000, 5000)]


def test_rational_scan_moves_one_ratio_step_per_block():
    # the scan walks every block forward and moves s_k by one ratio product
    # per block, never restarting from s_0; the edge rows of a block reuse
    # its s_k. Under const:3, {a_k / 2} = 1/2: odd rows are in and even rows
    # out. dlictrex:3 has no closed forms: each product reads one memo entry
    for spec, point, want in (
            ("const:3", "rat:1/2", [(100, 50, 50, 0), (10 ** 5, 50000, 50000, 0)]),
            ("dlictrex:3", "rat:1/5", [(100, 100, 0, 0), (10 ** 5, 10 ** 5, 0, 0)])):
        seq = ArithSeq(RatioSpec.parse(spec))
        x = parse_point(point, seq, 20)
        products = []
        real = seq.ratio_product
        seq.ratio_product = lambda lo, hi, q=None, real=real: (
            products.append((lo, hi)) or real(lo, hi, q))
        scan = statistical_scan(x, Fraction(1, 8), [100, 10 ** 5])
        assert counts(scan) == want and scan.undecided_rows == []
        last = seq.derived.decompose(10 ** 5)[0]
        assert products == [(k, k) for k in range(1, last + 1)]


# rat: points at several expansion horizons, each one exact
@pytest.mark.parametrize("spec,point,expand", [
    ("const:2", "rat:1/3", 1),
    ("const:2", "rat:1/3", 9),
    ("const:3", "rat:5/7", 12),
    ("explicit:[2,2,40,3,2,17];tail=const:3", "rat:2/9", 20),
])
@pytest.mark.parametrize("depth,cap", [(0, 12), (3, 2), (8, 12), (8, 64)])
def test_run_leaves_capped_blocks_to_the_general_path(spec, point, expand, depth, cap):
    x = parse_point(point, ArithSeq(RatioSpec.parse(spec)), expand)
    horizons = [1, 7, 60, 400]
    scan = statistical_scan(x, Fraction(1, 7), horizons, depth, cap)
    want, undecided = per_row_scan(x, Fraction(1, 7), horizons, depth, cap)
    assert counts(scan) == want and scan.undecided_rows == undecided[:100]


def test_batched_scan_refines_edge_rows():
    # start depth 0 leaves many rows near a band edge at the first window;
    # ones-on:evens under const:3 is 1/8, so a quarter of the rows sit on
    # the edge of the band at eps 1/8 and stay undecided at every depth
    x = parse_point("ones-on:evens", ArithSeq(RatioSpec.constant(3)))
    scan = statistical_scan(x, Fraction(1, 8), [40, 3000], depth=0, cap=6)
    want, undecided = per_row_scan(x, Fraction(1, 8), [40, 3000], depth=0, cap=6)
    assert counts(scan) == want and scan.undecided_rows == undecided[:100]
    assert 100 < len(undecided) < 3000


def test_scan_keeps_only_the_undecided_rows_it_shows():
    # ones-on:evens under const:3 is 1/8: at depth 0 and cap 0, three rows
    # in four are undecided at eps 1/8; the scan counts them all but holds
    # only the first 100, which its report prints
    x = parse_point("ones-on:evens", ArithSeq(RatioSpec.constant(3)))
    eps, horizons = Fraction(1, 8), [1000, 5 * 10 ** 4]
    tracemalloc.start()
    try:
        scan = statistical_scan(x, eps, horizons, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    want, undecided = per_row_scan(x, eps, horizons, 0, 0)
    assert counts(scan) == want and want[-1][3] == len(undecided) == 37500
    assert scan.undecided_rows == undecided[:100]


def test_pow2_scan_reaches_huge_horizon():
    x = parse_point("ones-on:all", POW2)
    eps = Fraction(1, 8)
    horizons = [100, 5000, 10 ** 12]
    scan = statistical_scan(x, eps, horizons)
    for e in scan.estimates:
        assert e.in_count + e.out_count + e.undecided_count == e.N
    want, _ = per_row_scan(x, eps, horizons[:2])
    assert counts(scan)[:2] == want


def test_scan_slides_its_digit_window(monkeypatch):
    # 10^4 two-row blocks: the sliding window reads O(1) new digits per block
    seq = ArithSeq(RatioSpec.constant(3))
    x = parse_point("ones-on:squares", seq)
    reads = []
    digit = CirclePoint.digit
    monkeypatch.setattr(CirclePoint, "digit",
                        lambda self, n: reads.append(n) or digit(self, n))
    N, depth = 2 * 10 ** 4, 64
    scan = statistical_scan(x, Fraction(1, 8), [N], depth)
    assert scan.estimates[-1].undecided_count == 0
    blocks = seq.derived.decompose(N)[0] + 1
    assert len(reads) <= 3 * blocks + depth + 1


def test_scan_counts_a_run_in_one_pass(monkeypatch):
    # 10^4 two-row blocks in one count_rows call: no index is decomposed,
    # and each block reads b_{k+1} and at most one new digit with its ratio;
    # edge rows find the slid window in place and read no digit again
    seq = ArithSeq(RatioSpec.constant(3))
    x = parse_point("ones-on:squares", seq)
    calls = {"decompose": 0, "ratio": 0, "digit": 0}
    for owner, name in ((DerivedSeq, "decompose"), (ArithSeq, "ratio"),
                        (CirclePoint, "digit")):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    N, depth = 2 * 10 ** 4, 64
    horizons = [N]
    scan = statistical_scan(x, Fraction(1, 8), horizons, depth)
    assert scan.estimates[-1].undecided_count == 0
    blocks = N // 2
    assert calls["decompose"] == 0
    # the first window and its ratios are read once, up front
    assert calls["ratio"] <= 2 * blocks + 3 * (depth + 2)
    assert calls["digit"] <= blocks + 2 * (depth + 1)
    # {2 a_k x} = 0 for x = 1/2 = ones-on:all, so row 2 of every block is an
    # edge row; each finds the slid window on its own block, so judging it
    # slides nothing
    monkeypatch.undo()
    on_block = []
    verdict = EnclosureCache.band_verdict
    monkeypatch.setattr(EnclosureCache, "band_verdict", lambda self, k, *args: (
        on_block.append(self._win[0] == k) or verdict(self, k, *args)))
    scan = statistical_scan(parse_point("ones-on:all", seq), Fraction(1, 8),
                            [2000], 4, 16)
    assert scan.estimates[-1].undecided_count == 1000
    assert len(on_block) == 1000 and all(on_block)


def test_scan_restarts_read_only_supported_digits(monkeypatch):
    # the scan-manyblocks benchmark config: after each skipped gap the window
    # restarts from the support's members and ratio products, so a restart
    # reads no zero digit. A slid block reads its one new digit only where
    # the rule may put a nonzero one: after a zero read, the slide asks the
    # rule for the next square and reads nothing before it, in this walk or
    # a later one, as the cache keeps the zero run. So the slides read at
    # most one zero per restart and per gap, and no digit is read twice.
    # Walking every gap, restarts that read every digit made 9,727 reads
    # here, and slides that read every new digit 472 slid reads. Every row
    # is stable from gaps of 3 on and D = 4, so the count runs from the
    # square 3^2 on (g = 4, not cap + 1 = 65): it walks the gaps up to 3^2
    # and, per horizon, one gap it measures and the gaps around N.
    seq = ArithSeq(RatioSpec.constant(3))
    reads, restart = [], []
    digit, slide = CirclePoint.digit, circle._slide
    monkeypatch.setattr(CirclePoint, "digit", lambda self, n: (
        reads.append((n, bool(restart))) or digit(self, n)))

    def counted_slide(x, start, end, num, den, n, target):
        # a window that does not overlap the latest one is built from scratch
        restart.append(not start <= n <= end)
        try:
            return slide(x, start, end, num, den, n, target)
        finally:
            restart.pop()

    monkeypatch.setattr(circle, "_slide", counted_slide)
    horizons = [10 ** 4, 5 * 10 ** 4]
    for support, pins in ((WalkedSet(squares()), ((157, 152), (6, 151))),
                          (squares(), ((3, 10), (0, 3)))):
        reads.clear()
        x = CirclePoint(seq, IndicatorDigits(support))
        scan = statistical_scan(x, Fraction(1, 8), horizons, 64)
        assert counts(scan) == [(10 ** 4, 209, 9791, 0), (5 * 10 ** 4, 473, 49527, 0)]
        restarts = [n for n, fresh in reads if fresh]
        slid = [n for n, fresh in reads if not fresh]
        assert all(math.isqrt(n) ** 2 == n for n in restarts)
        assert len({n for n, _ in reads}) == len(reads)
        zeros = [n for n in slid if math.isqrt(n) ** 2 != n]
        assert all(math.isqrt(z2 - 1) > math.isqrt(z1) for z1, z2 in zip(zeros, zeros[1:]))
        assert ((len(slid), len(restarts)), (len(slid) - len(zeros), len(zeros))) == pins
        assert len(zeros) <= len(restarts)


def test_exact_scan_slides_its_window(monkeypatch):
    # a finite point of m digits: each block's exact value comes from the
    # sliding window, so the scan reads each digit about once, not m(m+1)/2 times
    seq = ArithSeq(RatioSpec.constant(3))
    m = 300
    x = parse_point("finite:[" + ",".join(str(n % 3) for n in range(2, m + 2)) + "]",
                    seq)
    assert x.rule.finite_support_max() == m
    reads = []
    digit = CirclePoint.digit
    monkeypatch.setattr(CirclePoint, "digit",
                        lambda self, n: reads.append(n) or digit(self, n))
    N = seq.derived.boundary(m) + 10
    scan = statistical_scan(x, Fraction(1, 8), [N])
    assert scan.estimates[-1].undecided_count == 0
    blocks = m  # the blocks of a_0 .. a_{m-1}; the rest is bulk out
    assert len(reads) <= m + blocks + 2
    monkeypatch.setattr(CirclePoint, "digit", digit)
    # the value at every block, visited ascending and then out of order
    cache = EnclosureCache(x)
    value = as_fraction(x)
    for k in list(range(m + 3)) + [7, 250, 3, 301, 0]:
        num, den = cache._exact_value(k)
        assert Fraction(num, den) == mod1(seq.term(k) * value)


@given(n=st.integers(0, 40), m=st.integers(1, 60), a=st.integers(-200, 200),
       b=st.integers(-200, 200))
@settings(max_examples=300, deadline=None)
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@st.composite
def wrap_segments(draw):
    """(num, den, r0, r1, A, B, w, wraps): a segment whose values lo_r = r *
    num mod den wrap the circle ``wraps`` times, 1 to 10, with windows of up
    to 1,500 bits. Its ends may sit exactly on a wrap boundary; num may be 0
    and w 0 or at least num; the band [A, B] may be [1, den - 1] or empty
    (B = A - 1), and at w = 0 also B < A - 1."""
    den = draw(st.integers(1, 2 ** draw(st.sampled_from((4, 64, 1500)))))
    wraps = draw(st.integers(1, 10))
    r0 = draw(st.integers(0, 300))
    if den == 1 or draw(st.integers(0, 9)) == 0:
        num, r1 = 0, r0 + draw(st.integers(0, 60))
    else:
        # at most 64 rows per wrap, so _sort_few stays a cheap oracle
        num = draw(st.integers(max(1, den // 64), den - 1))
        if draw(st.booleans()):  # r0 is the first row of its wrap
            r0 = max(-(-(r0 * num // den) * den // num), 1)
        W = r0 * num // den + wraps - 1
        first, last = -(-W * den // num), ((W + 1) * den - 1) // num
        first = max(first, r0)
        r1 = draw(st.sampled_from((first, last)) | st.integers(first, last))
    A = draw(st.integers(0, den))
    B = draw(st.integers(A, den - 1)) if A < den else den - 1
    w = draw(st.sampled_from((0, r1)) | st.integers(num, den + 5) | st.integers(0, 40))
    form = draw(st.sampled_from(("band", "wide", "empty")))
    if form == "wide" and den > 1:
        A, B = 1, den - 1
    elif form == "empty" and A > 0:
        B = A - 1 - (draw(st.integers(0, A)) if w == 0 else 0)
    return num, den, r0, r1, A, B, w, wraps


def covered(runs, r0, r1):
    """The rows of increasing, disjoint runs (p, q) inside r0..r1."""
    rows, last = [], r0 - 1
    for p, q in runs:
        assert last < p <= q <= r1
        rows += range(p, q + 1)
        last = q
    return rows


@given(seg=wrap_segments())
@settings(max_examples=800, deadline=None)
def test_sort_by_wrap_ranges_matches_the_row_by_row_sort(seg):
    # _sort_many (floor sums at w = 0, wrap ranges at any wrap count
    # otherwise) gives the count and the edge rows of _sort_few, as
    # increasing runs, and none at w = 0
    num, den, r0, r1, A, B, w, wraps = seg
    if num:
        assert r1 * num // den - r0 * num // den + 1 == wraps
    n_in, runs = _sort_many(num, den, r0, r1, A, B, w)
    want_in, want_runs = _sort_few(num, den, r0, r1, A, B, w)
    assert n_in == want_in
    assert covered(runs, r0, r1) == covered(want_runs, r0, r1)
    if not w:
        assert runs == []


def test_long_edge_segments_are_sorted_again_at_deeper_windows(monkeypatch):
    # at depth 0 nearly every row of a long pow:2 block is an edge row of the
    # base window; the bulk pass sorts them again at judge's deeper windows,
    # so few reach band_verdict, and the counts are unchanged
    calls = []
    verdict = EnclosureCache.band_verdict
    monkeypatch.setattr(EnclosureCache, "band_verdict",
                        lambda self, k, r, band: calls.append(r) or verdict(self, k, r, band))
    x = parse_point("ones-on:all", POW2)
    scan = statistical_scan(x, Fraction(1, 3), [1000, 100000], depth=0)
    assert [(e.in_count, e.undecided_count) for e in scan.estimates] == [(341, 0),
                                                                         (34481, 0)]
    assert len(calls) < 100
    del calls[:]
    x = parse_point("ones-on:squares", LINEAR1)
    scan = statistical_scan(x, Fraction(1, 10), [1000, 100000], depth=0)
    assert [(e.in_count, e.undecided_count) for e in scan.estimates] == [(80, 0),
                                                                         (2665, 0)]
    assert len(calls) < 200


def test_long_edge_segments_keep_memory_flat():
    # the edge rows of a long block travel as runs (p, q), never row by row,
    # so a depth-0 scan over blocks of up to 2^19 rows stays small
    x = parse_point("ones-on:all", POW2)
    tracemalloc.start()
    try:
        scan = statistical_scan(x, Fraction(1, 3), [10 ** 6], depth=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.estimates[-1].lo == scan.estimates[-1].hi == Fraction(13981, 40000)
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("spec, point, q, depth, cap", [
    ("pow:2", "ones-on:all", 3, 0, 64), ("pow:2", "ones-on:all", 5, 1, 3),
    ("pow:3", "ones-on:squares", 7, 0, 64), ("linear:1", "ones-on:squares", 10, 0, 64),
    ("pow:2", "ones-on:evens", 4, 2, 64), ("const:18", "ones-on:all", 3, 0, 1),
    ("const:40", "ones-on:squares", 5, 0, 2), ("pow:2", "ones-on:all", 3, 0, 2)])
def test_bulk_edge_pass_matches_per_row_scan(spec, point, q, depth, cap):
    # the rows the base window leaves at the band edges are sorted again in
    # runs as wide as their last row; each equals the row-by-row verdict, also
    # under a small cap, where the deepest window is still wide
    x = parse_point(point, ArithSeq(RatioSpec.parse(spec)))
    eps, horizons = Fraction(1, q), [300, 3000]
    scan = statistical_scan(x, eps, horizons, depth, cap)
    assert_matches_per_row(x, eps, scan, horizons, depth, cap)


# ----- convergence heuristics --------------------------------------------------

def synthetic_scan(rows):
    return ScanResult(
        eps=Fraction(1, 10), depth=8, cap=64,
        horizons=tuple(N for N, _, _, _ in rows),
        estimates=[DensityEstimate(*row) for row in rows],
    )


def test_verdict_indecision_dominates():
    scan = synthetic_scan([(10, 1, 3, 6)])
    assert convergence_verdict(scan)["verdict"] == "inconclusive"


def test_verdict_zero_upper_bound():
    scan = statistical_scan(parse_point("finite:[]", LINEAR1), Fraction(1, 10), [100])
    out = convergence_verdict(scan)
    assert out["verdict"] == "evidence-for"
    assert "exactly 0" in out["rule"]


def test_verdict_halving_upper_bounds():
    scan = synthetic_scan([(100, 40, 60, 0), (1000, 150, 850, 0)])
    assert convergence_verdict(scan)["verdict"] == "evidence-for"


def test_verdict_positive_lower_bound():
    scan = synthetic_scan([(100, 80, 20, 0), (1000, 820, 180, 0)])
    assert convergence_verdict(scan)["verdict"] == "evidence-against"


def test_verdict_no_rule():
    # upper bounds decrease but do not halve, lower bounds stay at zero
    scan = synthetic_scan([(100, 0, 60, 40), (1000, 0, 650, 350)])
    assert convergence_verdict(scan)["verdict"] == "inconclusive"
    with pytest.raises(PreconditionError):
        convergence_verdict(synthetic_scan([]))


def test_real_scan_reaches_evidence_for():
    x = continuum_family_point(weakly_dli_witness_set(LINEAR1, 8), (0, 1, 0), LINEAR1)
    scan = statistical_scan(x, Fraction(1, 10), [1000, 10000])
    assert convergence_verdict(scan)["verdict"] == "evidence-for"
