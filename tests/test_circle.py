"""Digit expansions and certified enclosures of fractional parts."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from circlelab.circle import (
    DEPTH_CAP,
    EXPAND_CAP,
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    FloorDivDigits,
    IndicatorDigits,
    RationalDigits,
    _slide,
    digits_from_rational,
    int_band,
    parse_point,
)
from circlelab.density import (
    IntervalNatSet,
    cube_gap_blocks,
    evens,
    full_set,
    lift,
)
from circlelab.errors import HorizonError, PreconditionError, SpecParseError
from circlelab.sequences import ArithSeq, RatioSpec
from conftest import (
    FuncDigits,
    OpaqueSet,
    as_enclosure,
    as_fraction,
    certified_below,
    eager_expansion,
    elem_set,
    sparse_supports,
    tail_bound_out,
    window_from_scratch,
)

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))
CONST2 = ArithSeq(RatioSpec.constant(2))


def mod1(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


def enclosure(cache: EnclosureCache, n: int, t: int):
    """``cache.frac_bound(n, t)`` range-checked and read as Fractions."""
    return as_enclosure(cache.frac_bound(n, t))


# denominators dividing a_6 = 6! guarantee the greedy expansion terminates
_DIV720 = [d for d in range(1, 721) if 720 % d == 0]


@st.composite
def rationals(draw):
    q = draw(st.sampled_from(_DIV720))
    p = draw(st.integers(0, q - 1))
    return Fraction(p, q)


# ----- expansions ------------------------------------------------------------

def test_greedy_expansion_example():
    x = digits_from_rational(Fraction(5, 24), LINEAR1)
    assert isinstance(x.rule, FiniteDigits)
    assert [x.digit(n) for n in (1, 2, 3, 4)] == [0, 1, 1, 0]
    assert as_fraction(x) == Fraction(5, 24)


@given(value=rationals())
@settings(max_examples=150, deadline=None)
def test_greedy_expansion_reconstructs_value(value):
    # every drawn denominator divides a_6 = 6!, so the expansion terminates
    x = digits_from_rational(value, LINEAR1)
    assert x.rule.support.is_finite
    assert as_fraction(x) == value


def test_greedy_digits_are_canonical_range():
    x = digits_from_rational(Fraction(719, 720), LINEAR1)
    for n in range(1, 8):
        assert 0 <= x.digit(n) <= LINEAR1.ratio(n) - 1


def greedy_digits(value: Fraction, seq: ArithSeq, top: int) -> list[int]:
    """c_1 .. c_top of the greedy expansion, on Fractions: c_n = floor(b_n v)
    and v <- b_n v - c_n, from v = value."""
    digits = []
    for n in range(1, top + 1):
        value *= seq.ratio(n)
        digits.append(value.numerator // value.denominator)
        value -= digits[-1]
    return digits


def test_nonterminating_expansion_has_no_horizon():
    # 1/3 does not terminate under pow:2, so the rule is exact: every digit
    # is defined, past the 12-digit horizon too, and {a_n x} = s_n / 3
    x = digits_from_rational(Fraction(1, 3), POW2, horizon=12)
    assert x.rule.finite_support_max() is None
    assert type(x.rule) is RationalDigits and x.describe() == "rat:1/3"
    assert [x.digit(n) for n in range(1, 41)] == greedy_digits(Fraction(1, 3), POW2, 40)
    assert [x.rule.remainder(n, POW2) for n in (0, 1, 2, 3, 100)] == [1, 2, 2, 1, 1]


# every kind of spec: closed forms (const, linear, pow) and memo reads only
# (dlictrex, explicit)
_SPEC_TEXTS = st.one_of(
    st.integers(2, 6).map("const:{}".format),
    st.integers(1, 3).map("linear:{}".format),
    st.integers(2, 3).map("pow:{}".format),
    st.integers(2, 4).map("dlictrex:{}".format),
    st.tuples(st.lists(st.integers(2, 9), min_size=1, max_size=4),
              st.sampled_from(("const:2", "const:3", "linear:1", "pow:2"))).map(
        lambda t: f"explicit:[{','.join(map(str, t[0]))}];tail={t[1]}"))


@st.composite
def _rational_cases(draw):
    """(spec, horizon, value): values that terminate (0 with q = 1, q | a_H
    first at n = H, q dividing an earlier term) and values drawn at random,
    which mostly do not."""
    spec = draw(_SPEC_TEXTS)
    H = draw(st.integers(1, 300))
    seq = ArithSeq(RatioSpec.parse(spec))
    kind = draw(st.sampled_from(("zero", "first-at-H", "divisor", "random")))
    if kind == "zero":
        return spec, H, Fraction(0)
    if kind == "first-at-H":  # a_{H-1} < a_H, so q = a_H divides no earlier term
        a = seq.term(H)
        return spec, H, Fraction(draw(st.sampled_from((1, a - 1))), a)
    if kind == "divisor":
        q = math.gcd(seq.term(draw(st.integers(1, H))), draw(st.integers(1, 10 ** 6)))
    else:
        q = draw(st.integers(1, 10 ** 6))
    return spec, H, Fraction(draw(st.integers(0, q - 1)), q)


@given(case=_rational_cases(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_digits_on_demand_match_eager_expansion(case, data):
    spec, H, value = case
    digits, terminates = eager_expansion(value, ArithSeq(RatioSpec.parse(spec)), H)
    seq = ArithSeq(RatioSpec.parse(spec))
    q = value.denominator
    # the termination test: q | a_H, as a ratio product mod q
    assert (ArithSeq(RatioSpec.parse(spec)).ratio_product(1, H, q) == 0) is terminates
    x = digits_from_rational(value, seq, H)
    if terminates:
        assert type(x.rule) is FiniteDigits
        assert x.rule.digits == tuple(digits)
        return
    assert type(x.rule) is RationalDigits
    assert x.describe() == f"rat:{value.numerator}/{q}"
    # reads in random order, past the horizon and behind the held (n, s_n)
    # too, equal the greedy Fraction expansion; a read of c_n holds s_{n-1}
    greedy = greedy_digits(value, seq, H + 40)
    assert greedy[:H] == digits
    for n in data.draw(st.lists(st.integers(1, H + 40), max_size=20)):
        assert x.digit(n) == greedy[n - 1]
        assert (x.rule._n, x.rule._s) == (n - 1, value.numerator * seq.term(n - 1) % q)
    assert [x.digit(n) for n in range(1, H + 41)] == greedy


def test_tail_bounds_compute_only_the_digits_they_read():
    # a rational window at j <= 30 is floor(den * s_(j-1) / q) / den, with den
    # and s_(j-1) in closed form under pow:2: the only ratio reads are those
    # of the terms a_(j-1), and s_n moves forward to s_29 at most
    seq = ArithSeq(RatioSpec.power(2))
    x = digits_from_rational(Fraction(1, 3), seq)
    cache = EnclosureCache(x, 0)
    reads = []
    ratio = seq.ratio
    seq.ratio = lambda n: reads.append(n) or ratio(n)
    for j in range(1, 31):
        cache.tail_upper_bound(j)
    assert reads == list(range(1, 30)) and x.rule._n == 29


def test_expansion_horizon_budget():
    # explicit: has no closed forms, so its termination test reads ratios
    seq = ArithSeq(RatioSpec.parse("explicit:[5,7];tail=const:2"))
    reads = []
    ratio = seq.ratio
    seq.ratio = lambda n: reads.append(n) or ratio(n)
    with pytest.raises(HorizonError, match=f"exceeds the budget of {EXPAND_CAP}"):
        digits_from_rational(Fraction(1, 3), seq, horizon=EXPAND_CAP + 1)
    assert reads == []  # refused before any ratio read
    x = digits_from_rational(Fraction(1, 3), seq, horizon=EXPAND_CAP)
    assert reads == list(range(1, EXPAND_CAP + 1))  # 3 divides no a_n
    assert type(x.rule) is RationalDigits and x.describe() == "rat:1/3"


def test_expansion_domain():
    with pytest.raises(PreconditionError):
        digits_from_rational(Fraction(3, 2), LINEAR1)
    with pytest.raises(PreconditionError):
        digits_from_rational(Fraction(1, 2), LINEAR1, horizon=0)


def test_digit_validation_on_access():
    # a typed digit is checked when the point is built, and a rule swapped
    # in afterwards is still checked on access
    with pytest.raises(PreconditionError, match="c_1 = 3"):
        CirclePoint(CONST2, FiniteDigits([3]))
    x = CirclePoint(CONST2, FiniteDigits([1]))
    x.rule = FiniteDigits([3])
    with pytest.raises(PreconditionError):
        x.digit(1)
    with pytest.raises(PreconditionError):
        x.digit(0)


def test_noncanonical_indicator_rejected():
    # all-ones digits with ratio tail 2 collapse onto 0
    with pytest.raises(PreconditionError):
        CirclePoint(CONST2, IndicatorDigits(full_set()))
    CirclePoint(POW2, IndicatorDigits(full_set()))  # b_n grows, fine


def test_support_and_quasi_support():
    x = CirclePoint(LINEAR1, FiniteDigits([1, 0, 3, 2]))
    assert [n for n in range(1, 11) if x.digit(n) != 0] == [1, 3, 4]
    # c_n = b_n - 1 at n = 1 (b=2) and n = 3 (b=4)
    assert [n for n in range(1, 11) if x.digit(n) == LINEAR1.ratio(n) - 1] == [1, 3]
    # the support ends at the last nonzero digit
    assert x.rule.finite_support_max() == 4
    assert [FiniteDigits(c).finite_support_max()
            for c in ([], [0, 0], [0, 2, 0, 0])] == [0, 0, 2]


# ----- window enclosures -----------------------------------------------------

@given(value=rationals(), n=st.integers(1, 10), t=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_window_contains_true_fractional_part(value, n, t):
    x = digits_from_rational(value, LINEAR1)
    J = enclosure(EnclosureCache(x, 0), n, t)
    truth = mod1(LINEAR1.term(n - 1) * value)
    assert J.lo <= truth < J.hi


@given(value=rationals(), n=st.integers(1, 8), t=st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_window_width_and_nesting(value, n, t):
    x = digits_from_rational(value, LINEAR1)
    cache = EnclosureCache(x, 0)
    J = enclosure(cache, n, t)
    assert J.hi - J.lo == Fraction(1, math.prod(LINEAR1.ratio(j) for j in range(n, n + t + 1)))
    K = enclosure(cache, n, t + 1)
    assert J.lo <= K.lo and K.hi <= J.hi


def test_window_reads_past_the_expansion_horizon():
    # depth 7 from n = 3 reads the digits up to the horizon 10; the deeper
    # windows read past it, where a rat: point's digits are still defined
    x = digits_from_rational(Fraction(1, 3), POW2, horizon=10)
    cache = EnclosureCache(x, 0)
    truth = mod1(POW2.term(2) * Fraction(1, 3))
    for t in (7, 8, 40):
        lo, hi, den = cache.frac_bound(3, t)
        assert (lo, den) == window_from_scratch(x, 3, t)
        assert Fraction(lo, den) <= truth < Fraction(hi, den)


def test_frac_exact_matches_direct_computation():
    cache = EnclosureCache(digits_from_rational(Fraction(7, 24), LINEAR1), 0)
    for n in range(1, 8):
        num, den = cache.frac_exact(n)
        assert Fraction(num, den) == mod1(LINEAR1.term(n - 1) * Fraction(7, 24))
    assert cache.frac_exact(5) == (0, 1)  # past the support everything vanishes


def test_frac_exact_needs_finite_support():
    # or a rational point, whose {a_{n-1} x} is s_{n-1} / q
    cache = EnclosureCache(parse_point("ones-on:all", POW2), 0)
    with pytest.raises(PreconditionError, match="finite support or a rational point"):
        cache.frac_exact(2)
    cache = EnclosureCache(digits_from_rational(Fraction(1, 3), POW2, horizon=10), 0)
    assert [cache.frac_exact(n) for n in (1, 2, 3, 40)] == [(1, 3), (2, 3), (2, 3), (1, 3)]


@given(value=rationals(), j=st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_tail_bound_brackets_true_tail(value, j):
    x = digits_from_rational(value, LINEAR1)
    a = LINEAR1.term(j - 1)
    ub = Fraction(*EnclosureCache(x, 0).tail_upper_bound(j))
    true_tail = mod1(a * value) / a
    assert true_tail <= ub <= Fraction(1, a)


def test_tail_bound_capped_rule():
    cache = EnclosureCache(digits_from_rational(Fraction(1, 3), POW2, horizon=12), 0)
    for j in (1, 2, 4):
        ub = Fraction(*cache.tail_upper_bound(j, t=4))
        a = POW2.term(j - 1)
        assert mod1(a * Fraction(1, 3)) / a <= ub <= Fraction(1, a)


# ----- intervals -------------------------------------------------------------

def test_cache_refuses_a_negative_depth():
    # a clamped depth would put in a report a depth the scan did not use
    x = parse_point("ones-on:all", POW2)
    with pytest.raises(PreconditionError, match="depth must be >= 0, got -1"):
        EnclosureCache(x, depth=-1)
    assert EnclosureCache(x, depth=0).depth == 0


def test_cache_refuses_a_negative_cap():
    # the cap is defaulted and checked in one place, which the scan reads
    x = parse_point("ones-on:all", POW2)
    with pytest.raises(PreconditionError, match="depth cap must be >= 0, got -5"):
        EnclosureCache(x, 8, -5)
    assert EnclosureCache(x, 8, 0).cap == 0
    assert EnclosureCache(x).cap == DEPTH_CAP


@pytest.mark.parametrize("point", ["ones-on:all", "rat:1/3", "finite:[1,0,0,3]"])
def test_band_verdict_with_the_band_as_integers(point):
    # the kernel compares the band's ends by cross-multiplication, so the
    # integer band of int_band and the same band in higher terms agree, on a
    # cache held across rows and on a fresh one
    x = parse_point(point, POW2)
    for lo, hi in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 8), Fraction(7, 8)),
                   (Fraction(1, 2), Fraction(1, 2))):
        band = int_band(lo, hi)
        scaled = (3 * band[0], 3 * band[1], 5 * band[2], 5 * band[3])
        held = EnclosureCache(x, depth=0, cap=8)
        for k in range(6):
            for r in range(1, POW2.ratio(k + 1)):
                assert (held.band_verdict(k, r, band)
                        == EnclosureCache(x, depth=0, cap=8).band_verdict(k, r, scaled))


# ----- multiplied enclosures -------------------------------------------------

@given(value=rationals(), i=st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_derived_bound_exact_for_finite_support(value, i):
    x = digits_from_rational(value, LINEAR1)
    J = as_enclosure(EnclosureCache(x).interval(*LINEAR1.derived.decompose(i)))
    truth = mod1(LINEAR1.derived.term(i) * value)
    assert J.lo == J.hi == truth


def test_mult_bound_decided_contains_truth():
    value = Fraction(1, 3)
    x = digits_from_rational(value, POW2, horizon=40)
    for k in range(5):
        for r in range(1, POW2.ratio(k + 1)):
            J = as_enclosure(EnclosureCache(x, depth=4).interval(k, r))
            if J is not None:
                truth = mod1(r * POW2.term(k) * value)
                assert J.lo <= truth <= J.hi


def test_mult_bound_gives_up_at_cap():
    # ones-on:evens under const 2 is 1/3, with digits 0,1,0,1,...; r = 3
    # times its windows straddles an integer forever, so no finite window
    # can decide the unit interval. rat:1/3 is exact, and 3 * 1/3 is 0
    x = parse_point("ones-on:evens", CONST2)
    assert EnclosureCache(x, depth=2, cap=32).interval(0, 3) is None
    x = digits_from_rational(Fraction(1, 3), CONST2, horizon=64)
    assert EnclosureCache(x, depth=2, cap=32).interval(0, 3) == (0, 0, 3)


# ----- shared evaluation cache ----------------------------------------------

def test_cache_exact_mode():
    x = digits_from_rational(Fraction(5, 24), LINEAR1)
    cache = EnclosureCache(x)
    assert cache.exact_mode
    J = as_enclosure(cache.interval(2, 3))
    assert J.lo == J.hi == mod1(3 * 6 * Fraction(5, 24))


def test_cache_verdicts_are_order_independent():
    x = digits_from_rational(Fraction(1, 3), POW2, horizon=60)
    band = int_band(Fraction(1, 10), Fraction(9, 10))
    rows = [(k, r) for k in range(6) for r in range(1, POW2.ratio(k + 1))]

    forward = EnclosureCache(x, depth=2)
    verdicts_fwd = [forward.band_verdict(k, r, band) for k, r in rows]
    backward = EnclosureCache(x, depth=2)
    verdicts_bwd = [backward.band_verdict(k, r, band) for k, r in reversed(rows)]
    assert verdicts_fwd == list(reversed(verdicts_bwd))


# small ratios that vary, so that the walk back over a gap takes several
# steps and each reads a different ratio
_VARIED = ("explicit:[2,3,2,2,5,2,3,3,2,2,2,7,2,2,3,2,5,2,2,2,3,2,2,2,2,3,2,2,5,2,2,3,2,2,2,2,3,2,2,2]"
           ";tail=const:3")


@given(spec=st.sampled_from(("const:2", "const:3", "linear:1", "pow:2", "pow:3",
                             "explicit:[2,2,40,3,2,17];tail=const:3", _VARIED)),
       support=sparse_supports(), q=st.integers(3, 40), p=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_out_to_matches_the_tail_bound(spec, support, q, p):
    # the stretch k .. last is exactly the blocks from k on that the tail
    # bound puts out, and it stops before the first block it cannot put out
    assume(2 * p < q)
    seq = ArithSeq(RatioSpec.parse(spec))
    x = parse_point(f"ones-on:{support}", seq)
    band_lo = Fraction(p, q)
    cache = EnclosureCache(x)
    oracle_checks = 3
    for k in range(60):
        last = cache._out_to(k, band_lo.numerator, band_lo.denominator)
        assert last >= k - 1
        # the tail-bound verdict is monotone inside a gap, so its ends suffice
        assert (last >= k) == tail_bound_out(x, k, band_lo)
        assert last < k or tail_bound_out(x, last, band_lo)
        assert not tail_bound_out(x, last + 1, band_lo)
        if last >= k and oracle_checks:  # the largest row of block k is out
            oracle_checks -= 1
            assert certified_below(x, k, seq.ratio(k + 1) - 1, band_lo)


_SPECS = {text: ArithSeq(RatioSpec.parse(text))
          for text in ("const:2", "const:3", "linear:1", "pow:2")}


@st.composite
def bands(draw):
    q = draw(st.integers(1, 32))
    ends = sorted(Fraction(draw(st.integers(0, q)), q) for _ in range(2))
    return ends[0], ends[1]


@given(spec=st.sampled_from(sorted(_SPECS)), q=st.integers(2, 500),
       p_seed=st.integers(0, 10 ** 6), horizon=st.integers(4, 48),
       rows=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4096)),
                     min_size=1, max_size=8),
       depth=st.integers(0, 8), cap=st.integers(0, 24), band=bands(),
       pin_edge=st.booleans())
@settings(max_examples=200, deadline=None)
def test_cache_band_verdict_agrees_with_truth(spec, q, p_seed, horizon, rows,
                                              depth, cap, band, pin_edge):
    # differential check of the shared refinement kernel: a scan-style shared
    # cache against fresh per-call caches and the exact Fraction value
    seq = _SPECS[spec]
    value = Fraction(p_seed % q, q)
    x = parse_point(f"rat:{value.numerator}/{value.denominator}", seq, horizon)
    lo, hi = band
    if pin_edge:
        # a band edge on the first row's exact value probes the closed edges
        k, r = rows[0]
        lo, hi = sorted((mod1(r * seq.term(k) * value), hi))
    shared = EnclosureCache(x, depth=depth, cap=cap)

    def new_cache():
        return EnclosureCache(x, depth=depth, cap=cap)

    for k, r in rows:
        truth = mod1(r * seq.term(k) * value)
        v = shared.band_verdict(k, r, int_band(lo, hi))
        # the rows judged before leave no trace: the shared cache gives the
        # enclosures of a fresh one, and judge gives band_verdict's verdict
        judged = shared.judge(k, r, int_band(lo, hi))
        assert judged == new_cache().judge(k, r, int_band(lo, hi)) and judged[1] == v
        window = new_cache().interval(k, r)
        assert shared.interval(k, r) == window
        fresh = as_enclosure(window)
        if v == "in":
            assert lo <= truth <= hi
        elif v == "out":
            assert truth < lo or truth > hi
        else:
            assert v == "undecided" and not shared.exact_mode
        if fresh is None:
            continue
        assert fresh.lo <= truth <= fresh.hi
        if lo <= fresh.lo and fresh.hi <= hi:
            assert v != "out"
        elif fresh.hi < lo or fresh.lo > hi:
            assert v != "in"


@st.composite
def order_points(draw, seq):
    """A non-terminating rat: or an exact: point, or an indicator point, on ``seq``."""
    form = draw(st.sampled_from(("rat", "exact", "ones-on")))
    if form == "rat":
        q = draw(st.integers(2, 400))
        return parse_point(f"rat:{draw(st.integers(1, q - 1))}/{q}", seq,
                           draw(st.integers(1, 48)))
    if form == "exact":
        q = seq.term(draw(st.integers(1, 5)))
        return parse_point(f"exact:{draw(st.integers(0, q - 1))}/{q}", seq)
    return parse_point("ones-on:" + draw(st.sampled_from(("all", "squares", "evens"))
                                         | sparse_supports()), seq)


@given(spec=st.sampled_from(("pow:2", "linear:1")), data=st.data(),
       depth=st.integers(0, 8), cap=st.integers(0, 24), band=bands(),
       blocks=st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True))
@settings(max_examples=200, deadline=None)
def test_enclosures_do_not_depend_on_the_order_of_rows(spec, data, depth, cap,
                                                       band, blocks):
    # rows of several blocks, shuffled inside each block and across blocks,
    # on one cache: every judge and interval equals that of a fresh cache,
    # whatever windows the rows before it deepened
    seq = _SPECS[spec]
    x = data.draw(order_points(seq))
    rows = [(k, r) for k in blocks
            for r in data.draw(st.lists(st.integers(1, seq.ratio(k + 1) - 1),
                                        min_size=1, max_size=6))]
    rows = data.draw(st.permutations(rows))
    shared = EnclosureCache(x, depth=depth, cap=cap)
    for k, r in rows:
        assert (shared.judge(k, r, int_band(*band))
                == EnclosureCache(x, depth=depth, cap=cap).judge(k, r, int_band(*band)))
        assert (shared.interval(k, r)
                == EnclosureCache(x, depth=depth, cap=cap).interval(k, r))


def test_cache_refinement_only_deepens():
    x = digits_from_rational(Fraction(1, 3), POW2, horizon=60)
    cache = EnclosureCache(x, depth=1)
    first = as_enclosure(cache.interval(2, 1))
    # a harder row forces a deeper shared window; re-asking can only tighten
    cache.interval(2, 7)
    second = as_enclosure(cache.interval(2, 1))
    assert second.hi - second.lo <= first.hi - first.lo
    assert first.lo <= second.lo and second.hi <= first.hi


# dlictrex:3 has no closed forms, so its zero runs multiply memo reads
_WINDOW_SPECS = {text: ArithSeq(RatioSpec.parse(text))
                 for text in ("const:2", "const:3", "linear:1", "pow:2",
                              "explicit:[5,2,7,3,4];tail=const:3", "dlictrex:3")}


@st.composite
def window_points(draw, seq):
    """A finite floor-div, a rat: or an indicator point on ``seq``.

    The indicator supports are the sparse ones of ``sparse_supports``, ``all``
    (not under a spec whose ratios end in 2's, where it is not canonical) and
    an opaque predicate set, with no closed form for ``next_member``, which
    finds the next member by testing indices one by one.
    """
    form = draw(st.sampled_from(("ones-on", "opaque", "floor-div", "rat")))
    if form == "floor-div":
        keys = draw(st.sets(st.integers(1, 60), max_size=12))
        return CirclePoint(seq, FloorDivDigits({n: 2 for n in keys}))
    if form == "rat":
        # 97 divides no a_n, so the point is a non-terminating RationalDigits
        p, horizon = draw(st.integers(1, 96)), draw(st.integers(1, 48))
        return parse_point(f"rat:{p}/97", seq, horizon)
    if form == "opaque":
        return CirclePoint(seq, IndicatorDigits(
            OpaqueSet(lambda n: n % 3 == 1, name="thirds")))
    sets = sparse_supports()
    if not seq.spec.eventually_two():
        sets |= st.just("all")
    return parse_point("ones-on:" + draw(sets), seq)


@given(spec=st.sampled_from(sorted(_WINDOW_SPECS)), data=st.data(),
       depth=st.integers(0, 10), cap=st.integers(0, 24),
       moves=st.lists(st.tuples(st.integers(0, 3) | st.integers(4, 40),
                                st.integers(0, 3), st.integers(1, 40)),
                      min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_sliding_window_matches_rebuild(spec, data, depth, cap, moves):
    # one cache walks ascending blocks with skips and deepenings; its one
    # window must always equal the window read from scratch
    seq = _WINDOW_SPECS[spec]
    x = data.draw(window_points(seq))
    cache = EnclosureCache(x, depth=depth, cap=cap)
    band = (Fraction(1, 3), Fraction(2, 3))

    def check(k):
        wk, wdepth, num, den = cache._win
        assert wk == k and (num, den) == window_from_scratch(x, k + 1, wdepth)
        return wdepth

    k = 0
    for step, (skip, deepen, r) in enumerate(moves):
        k += skip
        max_depth = cache.cap
        base = min(depth, max_depth)
        cache._window_at(k, base)
        got = check(k)
        # a first visit starts at the base depth, a revisit keeps its depth
        assert got == base if skip or step == 0 else got >= base
        d = got
        for _ in range(deepen):
            d = min(max(2 * d, 1), max_depth)
            cache._window_at(k, d)
            assert check(k) >= d
        if not cache.exact_mode:
            fresh = EnclosureCache(x, depth=depth, cap=cap)
            assert (cache.band_verdict(k, r, int_band(*band))
                    == fresh.band_verdict(k, r, int_band(*band)))
            assert check(k) <= max_depth


class _EdgeRecorder(EnclosureCache):
    """A cache that records the (k, r, side) of each ``band_verdict`` call,
    the edge rows its counts leave to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.edges = []

    def band_verdict(self, k, r, band):
        side = super().band_verdict(k, r, band)
        self.edges.append((k, r, side))
        return side


@given(spec=st.sampled_from(sorted(_WINDOW_SPECS)), data=st.data(),
       depth=st.integers(0, 3), cap=st.integers(0, 24),
       ends=st.integers(3, 40).flatmap(lambda q: st.tuples(
           st.integers(1, q - 2), st.integers(1, q - 2), st.just(q))),
       N=st.integers(1, 3000))
@settings(max_examples=200, deadline=None)
def test_edge_rows_get_the_side_judge_gives_from_the_base_depth(spec, data, depth,
                                                                cap, ends, N):
    # band_verdict starts at the latest window's depth when that window lies
    # on the row's block; on every edge row of a count it must give the side
    # judge gives from the base depth on a fresh cache
    seq = _WINDOW_SPECS[spec]
    supports = ["evens", "squares", "blocks:cube-gap", "shift(squares,3)",
                "lift(squares)", "thirds"]
    if not seq.spec.eventually_two():
        supports.append("all")
    support = data.draw(st.sampled_from(supports))
    x = (CirclePoint(seq, IndicatorDigits(OpaqueSet(lambda n: n % 3 == 1)))
         if support == "thirds" else parse_point("ones-on:" + support, seq))
    p1, p2, q = ends
    band = int_band(Fraction(min(p1, p2), q), Fraction(max(p1, p2) + 1, q))
    cache = _EdgeRecorder(x, depth=depth, cap=cap)
    cache.count_rows(0, 1, 1, N, band)
    for k, r, side in cache.edges:
        assert EnclosureCache(x, depth=depth, cap=cap).judge(k, r, band)[1] == side


def test_slide_validates_each_new_digit():
    # c_30 = b_30 first enters when the window slides onto block 21
    rule = FuncDigits(lambda n, b: b if n == 30 else n % 2)
    cache = EnclosureCache(CirclePoint(CONST2, rule), depth=8)
    for k in range(21):
        cache._window_at(k, 8)
    with pytest.raises(PreconditionError, match="c_30"):
        cache._window_at(21, 8)
    # the readers of a fresh cache reach c_30 first on the slide to j = 22
    x = CirclePoint(CONST2, rule)
    cache = EnclosureCache(x, 0)
    for j in range(1, 22):
        cache.tail_upper_bound(j)
    with pytest.raises(PreconditionError, match="c_30"):
        cache.tail_upper_bound(22)
    with pytest.raises(PreconditionError, match="c_30"):
        cache.frac_bound(21, 9)
    lo, hi, den = cache.frac_bound(21, 8)
    assert (lo, den) == window_from_scratch(x, 21, 8) and hi == lo + 1


@st.composite
def slide_points(draw, seq):
    """A ``window_points`` point or a finite: point on ``seq``."""
    if draw(st.booleans()):
        return draw(window_points(seq))
    digits = draw(st.lists(st.integers(0, 10 ** 6), max_size=14))
    return CirclePoint(seq, FiniteDigits(c % seq.ratio(n)
                                         for n, c in enumerate(digits, 1)))


@given(spec=st.sampled_from(sorted(_WINDOW_SPECS)), data=st.data(),
       start=st.integers(1, 30), span=st.integers(0, 16), drop=st.integers(0, 16),
       reach=st.integers(-16, 8))
@settings(max_examples=300, deadline=None)
def test_slide_drops_and_cuts_many_digits_by_one_product(spec, data, start, span,
                                                         drop, reach):
    # the window over start .. end moves to n .. target: the leading digits
    # start .. n - 1 drop by one ratio product, the digits past target are
    # cut by another (closed forms under const, linear and pow, memo reads
    # under explicit and dlictrex), and the digits past end are added
    seq = _WINDOW_SPECS[spec]
    x = data.draw(slide_points(seq))
    end = start + span
    n = start + min(drop, span)
    target = max(end + reach, n)
    num, den = window_from_scratch(x, start, span)
    assert _slide(x, start, end, num, den, n, target) == window_from_scratch(
        x, n, target - n)


@given(spec=st.sampled_from(sorted(_WINDOW_SPECS)), data=st.data(),
       depth=st.integers(0, 10), cap=st.integers(0, 24),
       moves=st.lists(st.tuples(st.integers(-8, 0) | st.integers(0, 3),
                                st.integers(0, 12),
                                st.sampled_from(("bound", "exact", "tail", "cache"))),
                      min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_point_window_matches_rebuild(spec, data, depth, cap, moves):
    # one cache walks forward slides, backward jumps, deepenings, trims and
    # t = 0 through its point-level readers, with band verdicts in between;
    # every answer must equal its from-scratch Fraction formula, and the
    # cache's latest window must stay exact
    seq = _WINDOW_SPECS[spec]
    x = data.draw(slide_points(seq))
    cache = EnclosureCache(x, depth=depth, cap=cap)
    value = as_fraction(x) if cache.exact_mode else None
    n = 1
    for step, t, reader in moves:
        n = min(max(n + step, 1), 60)
        num, den = window_from_scratch(x, n, t)
        a = seq.term(n - 1)
        if reader == "bound":
            J = enclosure(cache, n, t)
            assert (J.lo, J.hi) == (Fraction(num, den), Fraction(num + 1, den))
        elif reader == "exact" and value is not None:
            assert Fraction(*cache.frac_exact(n)) == mod1(a * value)
        elif reader == "tail":
            ub = Fraction(*cache.tail_upper_bound(n, t))
            assert ub == Fraction(num + 1, den) / a
            assert value is None or mod1(a * value) / a <= ub
        elif reader == "cache":
            cache.band_verdict(n - 1, t + 1, (1, 3, 2, 3))
        wk, wdepth, wnum, wden = cache._win
        # an exact cache that has read only past the support holds no window
        assert wk < 0 or (wnum, wden) == window_from_scratch(x, wk + 1, wdepth)
        assert cache.frac_bound(n, t) == (num, num + 1, den)


def _reader_answer(cache, reader, n, t):
    if reader == "bound":
        return cache.frac_bound(n, t)
    if reader == "exact":
        return cache.frac_exact(n)
    return cache.tail_upper_bound(n, t)


@given(spec=st.sampled_from(("const:2", "const:3", "linear:1", "pow:2", "dlictrex:3")),
       data=st.data(),
       requests=st.lists(st.tuples(st.integers(1, 60), st.integers(0, 12),
                                   st.sampled_from(("bound", "exact", "tail"))),
                         min_size=1, max_size=20, unique=True))
@settings(max_examples=200, deadline=None)
def test_cache_readers_are_exact_and_history_free(spec, data, requests):
    # one cache answers a shuffled list of reader requests: each answer is
    # the from-scratch window and brackets the Fraction value mod 1 (a
    # deeper window where the point has no Fraction value); an exact answer
    # is the window over the support, or s_{n-1} / q for a rat: point
    seq = _WINDOW_SPECS[spec]
    x = data.draw(slide_points(seq))
    m = x.rule.finite_support_max()
    cache = EnclosureCache(x, 0)
    value = as_fraction(x) if cache.exact_mode else None
    for n, t, reader in data.draw(st.permutations(requests)):
        a = seq.term(n - 1)
        if reader == "exact" and value is None:
            with pytest.raises(PreconditionError):
                cache.frac_exact(n)
            continue
        num, den = window_from_scratch(x, n, t)
        got = _reader_answer(cache, reader, n, t)
        truth = None if value is None else mod1(a * value)
        if m is not None:
            exact = window_from_scratch(x, n, m - n) if n <= m else (0, 1)
        elif value is not None:
            exact = (value.numerator * a % value.denominator, value.denominator)
        if truth is not None:
            assert Fraction(*exact) == truth
        if reader == "bound":
            assert got == (num, num + 1, den)
            if truth is None:  # nests a deeper window instead
                deep_num, deep_den = window_from_scratch(x, n, t + 8)
                assert num * deep_den <= deep_num * den
                assert (deep_num + 1) * den <= (num + 1) * deep_den
            else:
                assert Fraction(num, den) <= truth < Fraction(num + 1, den)
        elif reader == "exact":
            assert got == exact
        else:
            assert got == (num + 1, den * a)
            if truth is not None:
                assert truth / a <= Fraction(*got) <= Fraction(1, a)


def _count_digit_reads(monkeypatch) -> list[int]:
    reads = []
    digit = CirclePoint.digit
    monkeypatch.setattr(CirclePoint, "digit",
                        lambda self, n: reads.append(n) or digit(self, n))
    return reads


def test_tail_bound_slides_its_window(monkeypatch):
    # j = 1..30 at depth 8: the first window reads 9 digits and each later
    # one slides in one new digit; rebuilding every window reads 9 per j
    cache = EnclosureCache(parse_point("rat:5/97", POW2, 64), 0)
    reads = _count_digit_reads(monkeypatch)
    for j in range(1, 31):
        a = POW2.term(j - 1)
        assert mod1(a * Fraction(5, 97)) / a <= Fraction(*cache.tail_upper_bound(j))
    assert len(reads) <= 30 + 9


def test_indicator_support_end_is_computed_once():
    # the support end of a finite set is the end of its last interval, read
    # with no rebuild; a cache reads it once, and its tail bound is the
    # window bound, which brackets the exact tail, for every j
    x = parse_point("ones-on:fin:{2,5,9,40}", POW2)
    assert x.rule.finite_support_max() == 40
    assert IndicatorDigits(IntervalNatSet()).finite_support_max() == 0
    for s in (evens(), cube_gap_blocks(), lift(full_set(), POW2.derived)):
        assert IndicatorDigits(s).finite_support_max() is None
    value = sum(Fraction(1, POW2.term(n)) for n in (2, 5, 9, 40))
    cache = EnclosureCache(x, 0)
    for j in range(1, 31):
        a = POW2.term(j - 1)
        num, den = window_from_scratch(x, j, 8)
        assert Fraction(*cache.tail_upper_bound(j)) == Fraction(num + 1, den * a)
        assert mod1(a * value) / a <= Fraction(num + 1, den * a) <= Fraction(1, a)


CONST3 = ArithSeq(RatioSpec.constant(3))


@st.composite
def declared_points(draw):
    """A point of each digit-rule form, its typed digits and divisors in
    range: finite:, floor-div:, rat: (terminating or not) and ones-on:."""
    seq = draw(st.sampled_from((LINEAR1, POW2, CONST3)))
    form = draw(st.sampled_from(("finite", "floor-div", "rat", "ones-on")))
    if form == "finite":
        raw = draw(st.lists(st.integers(0, 50), max_size=30))
        digits = [c % seq.ratio(n) for n, c in enumerate(raw, 1)]
        return parse_point("finite:[" + ",".join(map(str, digits)) + "]", seq)
    if form == "floor-div":
        raw = draw(st.dictionaries(st.integers(1, 60), st.integers(0, 50), max_size=4))
        inner = ",".join(f"{n}:{2 + v % (seq.ratio(n) - 1)}" for n, v in raw.items())
        return parse_point("floor-div:m={" + inner + "}", seq)
    if form == "rat":
        q = draw(st.sampled_from((2, 3, 4, 6, 7, 8, 9, 10, 27, 30, 37)))
        p = draw(st.integers(0, q - 1))
        return parse_point(f"rat:{p}/{q}", seq, draw(st.integers(1, 40)))
    return parse_point("ones-on:" + draw(sparse_supports() | st.just("all")), seq)


@given(x=declared_points())
@settings(max_examples=200, deadline=None)
def test_support_holds_every_nonzero_digit(x):
    rule, support = x.rule, x.rule.support
    if support is None:  # only a non-terminating rational expansion declares none
        assert isinstance(rule, RationalDigits)
        assert rule.finite_support_max() is None
        assert all(rule.next_nonzero(n) == n for n in range(1, 201))
        return
    for n in range(1, 201):
        if x.digit(n):
            assert n in support
        assert rule.next_nonzero(n) == support.next_member(n)
    m = rule.finite_support_max()
    if not support.is_finite:
        assert m is None
    elif m == 0:
        assert support.next_member(1) is None
    else:
        assert m in support and support.next_member(m + 1) is None


def test_window_walk_reads_each_step_once(monkeypatch):
    # the recursion suite's walk on a 10-digit finite point: frac_exact at
    # each start n, then frac_bound at depths 0..8, all from one cache;
    # trimming reads nothing
    # and each deepening reads one digit, so a start costs at most 9 reads
    # besides the support digits (a rebuild per window reads 45 per start)
    x = parse_point("finite:[1,0,2,1,0,1,0,0,1,1]", LINEAR1)
    m = x.rule.finite_support_max()
    value = as_fraction(x)
    cache = EnclosureCache(x, 0)
    reads = _count_digit_reads(monkeypatch)
    for n in range(1, m + 3):
        exact = Fraction(*cache.frac_exact(n))
        assert exact == mod1(LINEAR1.term(n - 1) * value)
        for t in range(9):
            J = enclosure(cache, n, t)
            assert J.lo <= exact < J.hi
    assert len(reads) <= 9 * (m + 2) + m


# ----- digit-rule parsing ----------------------------------------------------

def test_parse_point_forms():
    assert as_fraction(parse_point("rat:5/24", LINEAR1)) == Fraction(5, 24)
    assert as_fraction(parse_point("exact:5/24", LINEAR1)) == Fraction(5, 24)
    assert as_fraction(parse_point("finite:[0,1,1]", LINEAR1)) == Fraction(5, 24)
    x = parse_point("ones-on:fin:{2,4}", LINEAR1)
    assert [x.digit(n) for n in range(1, 6)] == [0, 1, 0, 1, 0]
    y = parse_point("floor-div:m={3:2}", LINEAR1)
    assert y.digit(3) == 2 and y.digit(2) == 0
    assert as_fraction(parse_point("rat:0", LINEAR1)) == 0


def test_parse_point_exact_requires_termination():
    with pytest.raises(HorizonError):
        parse_point("exact:1/3", POW2)
    with pytest.raises(HorizonError, match="use rat: for an exact non-terminating point"):
        parse_point("exact:1/7", POW2, 40)
    x = parse_point("rat:1/3", POW2)
    assert type(x.rule) is RationalDigits and x.describe() == "rat:1/3"
    # a rat: point that terminates within the horizon is expanded as exact: is
    assert parse_point("rat:3/8", POW2, 2).describe() == parse_point("exact:3/8", POW2, 2).describe()


def test_parse_point_errors():
    for bad in ("rat:1/0", "rat:x", "finite:0,1", "finite:[a]",
                "floor-div:m=3", "floor-div:m={3-2}", "mystery:1", "rat:1/-2",
                "rat:1 / 6", "rat:0.5", "finite:[0,]", "floor-div:m={3:2,}",
                "floor-div:m={٣:2}"):
        with pytest.raises(SpecParseError):
            parse_point(bad, LINEAR1)


def test_floor_div_validation_on_access():
    y = CirclePoint(LINEAR1, FloorDivDigits({2: 5}))  # b_2 = 3 < 5
    with pytest.raises(PreconditionError):
        y.digit(2)
    with pytest.raises(PreconditionError):
        FloorDivDigits({0: 2})


def test_indicator_point_digits():
    x = CirclePoint(POW2, IndicatorDigits(elem_set([1, 4])))
    assert x.rule.finite_support_max() == 4
    assert as_fraction(x) == Fraction(1, 2) + Fraction(1, 1024)
