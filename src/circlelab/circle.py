"""Circle-group points as mixed-radix digit expansions, with certified enclosures.

A point x in [0, 1) is stored through its digits relative to an arithmetic
sequence: x = sum c_n / a_n with 0 <= c_n <= b_n - 1 and, canonically,
c_n < b_n - 1 for infinitely many n. The key evaluation tool is the window
identity

    {a_{n-1} x} = S + {a_{n+t} x} / (b_n ... b_{n+t}),
    S = sum_{j=0..t} c_{n+j} / (b_n ... b_{n+j}),

which yields the enclosure [S, S + 1/(b_n ... b_{n+t})] from ratio products
alone; the full terms a_k never appear in an evaluation. No floating point is
used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .density import IntervalNatSet, NatSet, parse_set_expr
from .errors import HorizonError, PreconditionError, SpecParseError
from .parse import enclosed, fraction, integer, integers
from .sequences import ArithSeq

__all__ = [
    "DigitRule",
    "FiniteDigits",
    "RationalDigits",
    "IndicatorDigits",
    "floor_div_digits",
    "CirclePoint",
    "digits_from_rational",
    "EnclosureCache",
    "int_band",
    "DEPTH_CAP",
    "EXPAND_CAP",
    "POSITION_CAP",
    "parse_point",
]

# the refinement depth cap of an undecided multiplication
DEPTH_CAP = 64

# the largest horizon within which a rational point's expansion may
# terminate into finite: digits; under pow:2 those digits then hold about
# 1 MB
EXPAND_CAP = 4096

# the largest floor-div position read under a spec without small ratios:
# under pow:2 its b_n has 65,536 bits, and a memo keeps as many ratios
POSITION_CAP = 2 ** 16

# a segment of at most this many rows is sorted row by row (``_sort_few``); on
# 100- to 1,200-bit windows that wrap once, that beats the wrap ranges of
# ``_sort_many`` up to about 20 rows (CPython 3.11)
_FEW_ROWS = 16


# ===== Digit rules ===========================================================


class DigitRule:
    """Rule n -> c_n, defined for every n >= 1. Subclasses declare where
    its nonzero digits may lie.

    ``support`` is a set holding every index whose digit may be nonzero, or
    None when the rule declares none (a non-terminating rational
    expansion); its ``is_finite`` and ``is_cofinite`` are exact, and the
    membership and witness code rely on them. ``FiniteDigits`` (``finite:``
    or ``floor-div:``) declares its nonzero digits: every other digit is 0.
    ``parse_point`` checks each typed ``finite:`` digit against its b_n,
    and ``CirclePoint.digit`` checks every digit it reads.
    """

    support: NatSet | None = None

    def digit(self, n: int, seq: ArithSeq) -> int:
        raise NotImplementedError

    def finite_support_max(self) -> int | None:
        """The last index of a finite support (0 when it is empty), or None
        when the support is unbounded or undeclared."""
        support = self.support
        if support is None or not support.is_finite:
            return None
        return support.intervals[-1][1] if support.intervals else 0

    def next_nonzero(self, n: int) -> int | None:
        """The least index >= n whose digit may be nonzero, or None when
        there is none; n itself when the rule declares no support."""
        support = self.support
        return n if support is None else support.next_member(n)

    def describe(self) -> str:
        raise NotImplementedError


class FiniteDigits(DigitRule):
    """Finitely many nonzero digits, kept as ``digits`` = {n: c_n}, and the
    ``text`` that ``describe`` returns: given with a map n -> c_n, or
    ``finite:[...]`` of a list c_1, c_2, ..., its zeros included."""

    def __init__(self, digits: Iterable[int] | Mapping[int, int], text: str | None = None):
        if text is None:
            digits = tuple(digits)
            text = "finite:[" + ",".join(str(c) for c in digits) + "]"
            digits = dict(enumerate(digits, 1))
        if any(c < 0 for c in digits.values()):
            raise PreconditionError("digits must be non-negative")
        self.digits = {n: c for n, c in digits.items() if c}
        self.text = text
        self.support = IntervalNatSet((n, n) for n in self.digits)

    def digit(self, n, seq):
        return self.digits.get(n, 0)

    def describe(self):
        return self.text


def floor_div_digits(divisors: Mapping[int, int], seq: ArithSeq) -> FiniteDigits:
    """c_n = floor(b_n / m_n) on the keys of a divisor map, 0 elsewhere, as
    ``floor-div:m={...}`` with sorted keys. Each b_n is read once; a divisor
    outside 1 < m_n <= b_n is reported in the map's order, not clamped, and
    first a key above ``POSITION_CAP`` under a spec without small ratios."""
    if any(n < 1 for n in divisors):
        raise PreconditionError("divisor positions must be >= 1")
    if max(divisors, default=0) > POSITION_CAP and not seq.spec.small_ratios:
        raise HorizonError(f"floor-div position {max(divisors)} exceeds the budget "
                           f"of {POSITION_CAP} under {seq.describe()}")
    digits = {}
    for n, m in divisors.items():
        b = seq.ratio(n)
        if not 1 < m <= b:
            raise PreconditionError(f"divisor m_{n} = {m} violates 1 < m <= b_{n} = {b}")
        digits[n] = b // m
    inner = ",".join(f"{n}:{divisors[n]}" for n in sorted(divisors))
    return FiniteDigits(digits, "floor-div:m={" + inner + "}")


class RationalDigits(DigitRule):
    """Greedy expansion of a rational p/q in lowest terms that does not
    terminate within its expansion horizon.

    The value is exact: {a_n x} = s_n / q with s_n = p * a_n mod q, and
    c_n = floor(b_n * s_{n-1} / q) for every n. Only the latest (n, s_n) is
    kept. A read moves it forward by one ratio product mod q, and a read
    behind it restarts from s_0 = p.
    """

    def __init__(self, value: Fraction):
        self.p, self.q = value.numerator, value.denominator
        self._n, self._s = 0, self.p

    def remainder(self, n: int, seq: ArithSeq) -> int:
        """s_n = p * a_n mod q, so {a_n x} = s_n / q."""
        m, s = self._n, self._s
        if n < m:
            m, s = 0, self.p
        if n > m:
            s = s * seq.ratio_product(m + 1, n, self.q) % self.q
        self._n, self._s = n, s
        return s

    def digit(self, n, seq):
        return seq.ratio(n) * self.remainder(n - 1, seq) // self.q

    def describe(self):
        return f"rat:{self.p}/{self.q}"


class IndicatorDigits(DigitRule):
    """c_n = 1 exactly when n lies in a given set."""

    def __init__(self, support: NatSet):
        self.support = support

    def digit(self, n, seq):
        return 1 if n in self.support else 0

    def describe(self):
        return f"ones-on:{getattr(self.support, 'name', repr(self.support))}"


# ===== Points ================================================================


class CirclePoint:
    """A digit expansion bound to its arithmetic sequence.

    Construction rejects rules that are detectably non-canonical (a digit
    tail that is eventually always b_n - 1 collapses the point onto 0).
    Digits are checked against their b_n when they are read, and typed
    ``finite:`` digits when ``parse_point`` parses them.
    """

    def __init__(self, seq: ArithSeq, rule: DigitRule):
        self.seq = seq
        self.rule = rule
        if (isinstance(rule, IndicatorDigits)
                and rule.support.is_cofinite
                and seq.spec.eventually_two()):
            raise PreconditionError(
                "non-canonical rule: c_n = 1 = b_n - 1 for all large n under "
                f"{seq.describe()}"
            )

    def digit(self, n: int) -> int:
        """c_n, validated against 0 <= c_n <= b_n - 1 on access (0 and 1
        are digits under every b_n >= 2, so they need no ratio read)."""
        if n < 1:
            raise PreconditionError(f"digit index must be >= 1, got {n}")
        c = self.rule.digit(n, self.seq)
        if not 0 <= c <= 1:
            b = self.seq.ratio(n)
            if not 0 <= c <= b - 1:
                raise PreconditionError(f"digit c_{n} = {c} outside [0, {b - 1}]")
        return c

    def describe(self) -> str:
        return self.rule.describe()

    def __repr__(self):
        return f"CirclePoint({self.describe()} under {self.seq.describe()})"


def digits_from_rational(value: Fraction, seq: ArithSeq, horizon: int = 256) -> CirclePoint:
    """Greedy digit expansion of a rational p/q in [0, 1), in lowest terms.

    The scaled remainder {a_n x} = s_n / q is the integer s_n = a_n p mod q:
    s_0 = p, c_n = floor(b_n s_{n-1} / q) and s_n = b_n s_{n-1} mod q. So the
    expansion terminates within the horizon exactly when q | a_horizon,
    which is tested first by a ratio product mod q; it is then expanded at
    once into exact ``FiniteDigits``. Otherwise ``RationalDigits`` reads
    every digit and {a_n x} from s_n, with no horizon. A horizon above
    ``EXPAND_CAP`` is refused before any ratio is read.
    """
    value = Fraction(value)
    if not 0 <= value < 1:
        raise PreconditionError(f"rational point must lie in [0, 1), got {value}")
    if horizon < 1:
        raise PreconditionError("expansion horizon must be >= 1")
    if horizon > EXPAND_CAP:
        raise HorizonError(
            f"expansion horizon {horizon} exceeds the budget of {EXPAND_CAP} digits"
        )
    if seq.ratio_product(1, horizon, value.denominator):
        return CirclePoint(seq, RationalDigits(value))
    digits: list[int] = []
    rem, q = value.numerator, value.denominator
    while rem:
        # greedy keeps {a_n x} strictly below 1, so c_n <= b_n - 1 always
        c, rem = divmod(rem * seq.ratio(len(digits) + 1), q)
        digits.append(c)
    return CirclePoint(seq, FiniteDigits(digits))


# ===== Evaluation ============================================================


def _slide(x: CirclePoint, start: int, end: int, num: int, den: int,
           n: int, target: int) -> tuple[int, int]:
    """The window over the digits n .. target (``window_from_scratch`` in
    ``tests/conftest.py``) from the window num/den over the digits start .. end.

    When n lies in start .. end, the leading digits drop out by dividing den
    by their ratio product b_start ... b_{n-1} (each c_j <= b_j - 1 keeps
    the rest below den), digits past target are cut off by dividing num and
    den by b_{target+1} ... b_end, and only the digits past end are added.
    Floor divisions nest, so one product gives the integers of dividing by
    one ratio at a time. Otherwise the window is built from scratch. A digit
    j is added as num * b_j + c_j over den * b_j, read through
    ``CirclePoint.digit`` when ``DigitRule.next_nonzero(j)`` is j.
    Otherwise the digits j .. m - 1 are 0, with m the next index that may
    be nonzero (target + 1 when that lies past target or there is none),
    and enter at once through their ratio product b_j ... b_{m-1}. The sum
    is the same integer either way.
    """
    seq = x.seq
    ratio = seq.ratio
    if start <= n <= end:
        if n > start:
            den //= seq.ratio_product(start, n - 1)
        num %= den
    else:
        num, den, end = 0, 1, n - 1
    if end > target:
        P = seq.ratio_product(target + 1, end)
        num //= P
        den //= P
        end = target
    j = end + 1
    while j <= target:
        m = x.rule.next_nonzero(j)
        if m == j:
            b = ratio(j)
            num = num * b + x.digit(j)
            den *= b
            j += 1
        else:  # the digits j .. m - 1 are 0
            m = target + 1 if m is None or m > target else m
            P = seq.ratio_product(j, m - 1)
            num *= P
            den *= P
            j = m
    return num, den


class EnclosureCache:
    """Shared per-block evaluation state for scans over derived indices, and
    the one object that slides a point's windows.

    All rows of block k share its windows of {a_k x}. A window is a
    function of its block and depth alone, and a row's enclosure is refined
    from the base depth, so every enclosure and verdict depends on the row,
    the band, the base depth and the cap only, never on the rows judged
    before it. Only the latest window is kept; the next window slides from
    it. The point-level readers ``frac_bound``, ``frac_exact`` and
    ``tail_upper_bound`` read the same windows as unreduced integers, so
    their answers do not depend on the requests before them either.

    A point is exact when its support is finite or its rule is a
    ``RationalDigits``: its {a_k x} is then known exactly, and each row is
    judged on that value instead of a window.
    """

    def __init__(self, x: CirclePoint, depth: int = 8, cap: int | None = None):
        if depth < 0:
            raise PreconditionError(f"window depth must be >= 0, got {depth}")
        if cap is None:
            cap = DEPTH_CAP
        elif cap < 0:
            raise PreconditionError(f"depth cap must be >= 0, got {cap}")
        self.x = x
        self.depth = depth
        self.cap = cap
        self._fs_max = x.rule.finite_support_max()
        # the rule that gives {a_k x} = s_k / q, or None
        self._rat = x.rule if isinstance(x.rule, RationalDigits) else None
        self.exact_mode = self._fs_max is not None or self._rat is not None
        # (k, depth, num, den): the latest window, S = num/den over the digits
        # k+1 .. k+1+depth; the start holds no digit
        self._win: tuple[int, int, int, int] = (-1, 0, 0, 1)
        # blocks are skipped only for a rule that declares its support
        self._skips = x.rule.support is not None
        # (z, nz): the digits z .. nz - 1 are 0 by the rule; the last zero
        # read z of a slide and the next index that may be nonzero
        self._zeros = (0, 0)
        # (band, g): the gap width from which ``count_rows`` counts, per band
        self._gap: tuple = (None, 0)

    def _exact_value(self, k: int) -> tuple[int, int]:
        """Unreduced (num, den) of the exact {a_k x}: (s_k, q) for a rational
        rule, else block k's window over the digits up to the end of the
        support, slid like any other window."""
        if self._rat is not None:
            return self._rat.remainder(k, self.x.seq), self._rat.q
        if k >= self._fs_max:
            return 0, 1
        return self._window_at(k, self._fs_max - k - 1)

    def _window_at(self, k: int, depth: int) -> tuple[int, int]:
        """(num, den) of block k's window over the digits k+1 .. k+1+depth
        (``window_from_scratch(x, k + 1, depth)`` in ``tests/conftest.py``).

        The latest window is returned when it is that window. Otherwise it
        moves there by ``_slide``: for a block behind it, or one past its
        end, the window is built from scratch, reading only the digits the
        rule names as maybe nonzero. A failed digit read leaves the latest
        window as it was. A rational point's window is read in closed form
        instead: greedy digits make it floor(den * s_k / q) / den, with
        den = b_{k+1} ... b_{k+1+depth}.
        """
        win = self._win
        if win[0] == k and win[1] == depth:
            return win[2], win[3]
        if self._rat is not None:
            den = self.x.seq.ratio_product(k + 1, k + 1 + depth)
            window = den * self._rat.remainder(k, self.x.seq) // self._rat.q, den
        else:
            wk, wdepth, num, den = win
            window = _slide(self.x, wk + 1, wk + 1 + wdepth, num, den,
                            k + 1, k + 1 + depth)
        self._win = (k, depth, *window)
        return window

    def frac_bound(self, n: int, t: int) -> tuple[int, int, int]:
        """(lo, lo + 1, den): {a_{n-1} x} lies in [lo, lo + 1] / den, with
        den = b_n * ... * b_{n+t} unreduced; block n - 1's window."""
        if n < 1:
            raise PreconditionError(f"window start must be >= 1, got {n}")
        if t < 0:
            raise PreconditionError(f"window depth must be >= 0, got {t}")
        lo, den = self._window_at(n - 1, t)
        return lo, lo + 1, den

    def frac_exact(self, n: int) -> tuple[int, int]:
        """Unreduced (num, den) of the exact {a_{n-1} x} for an exact point."""
        if n < 1:
            raise PreconditionError(f"window start must be >= 1, got {n}")
        if not self.exact_mode:
            raise PreconditionError(
                "exact evaluation needs declared finite support or a rational point")
        return self._exact_value(n - 1)

    def tail_upper_bound(self, j: int, t: int = 8) -> tuple[int, int]:
        """Unreduced (num, den) with num/den an exact upper bound for the
        digit tail sum_{i >= j} c_i / a_i.

        The tail equals {a_{j-1} x} / a_{j-1}, so the upper end of block
        j - 1's window at depth t, divided by a_{j-1}, bounds it, and never
        exceeds 1 / a_{j-1}. Every point, exact or not, gets the window
        bound.
        """
        if j < 1:
            raise PreconditionError(f"tail start must be >= 1, got {j}")
        num, den = self._window_at(j - 1, t)
        return num + 1, den * self.x.seq.term(j - 1)

    def _out_to(self, k: int, ln: int, ld: int) -> int:
        """The last block j such that the tail bound puts every row of blocks
        k .. j below ln/ld, 0 < ln/ld < 1/2; k - 1 when block k is not so.

        With J the least support index past k and P = b_{j+1} ... b_{J-1},
        {a_j x} < 1/P: the digits j+1 .. J-1 are 0, and a canonical tail
        from J on stays below 1. So every row of block j is below ln/ld when
        (b_{j+1} - 1) * ld <= ln * P. That holds for j - 1 whenever it holds
        for j, and P at least doubles per step, so one walk back finds the
        last such block in O(log(ld/ln)) ratio reads. The walk starts at
        J - 3: for j = J - 1 and J - 2, P <= b_{j+1} and ld > 2 ln rule it out.
        With no support index past k (a finite support past its end), the
        answer is k - 1.
        """
        J = self.x.rule.next_nonzero(k + 1)
        if J is None:
            return k - 1
        last = J - 3
        if last >= k:
            ratio = self.x.seq.ratio
            b = ratio(J - 2)
            P = b * ratio(J - 1)
            while (b - 1) * ld > ln * P:
                last -= 1
                if last < k:
                    break
                b = ratio(last + 1)
                P *= b
        return last if k <= last else k - 1

    def _stable_gap(self, b: int, D: int, band: tuple[int, int, int, int]) -> int:
        """G*: the least G in 2 .. cap + 1 at which every row of the blocks
        J - d, d = 1 .. D - 1, before a support member J of an indicator
        point under ``const:b`` is stable, or cap + 2 when there is none;
        needs cap >= D.

        With the next member at least G past J, {a_{J-d} x} = b^-d (1 + rho),
        0 <= rho <= 1/E, E = b^(G-1) (b - 1), so row r has the value
        u (1 + rho), u = r b^-d, with no wrap, and every window up to the cap
        lies in [u, U], U = u (1 + 1/E) + w, w = r b^-(cap+1). The row is
        stable when that interval decides it: in, when ln/ld <= u and
        U <= hn/hd; out, when U < ln/ld, or hn/hd < u and U <= 1. Then the
        cap's window decides it on that side in every such block. Each row
        faces one edge: ln/ld below the band, hn/hd inside it, 1 above it.
        U - u < 2 b^-(d+1) <= b^-d, as u rho <= b^-(d+G-1) and w < b^-cap
        with d < D <= cap, so a row at least b^-d below its edge is stable.
        Every row lies that far below 1, so only two rows of a block can
        fail: the nearest row at or below each band edge (r = 0 is no row,
        and passes). Over T E with T = b^(cap+1), U is
        V = r (e (E + 1) + E), e = b^(cap+1-d); V / E falls as G grows, so
        each row moves G up until it is stable.
        """
        ln, ld, hn, hd = band
        cap = self.cap
        T = b ** (cap + 1)
        G, E = 2, b * (b - 1)
        for d in range(1, D):
            bd = b ** d
            e = T // bd
            for r in (min(ln * bd // ld, b - 1), min(hn * bd // hd, b - 1)):
                # below the band it must stay strictly below ln/ld
                n, m, strict = (ln, ld, 1) if r * e * ld < ln * T else (hn, hd, 0)
                while r * (e * (E + 1) + E) * m + strict > n * T * E:
                    if G > cap:
                        return cap + 2
                    G, E = G + 1, E * b
        return G

    def judge(self, k: int, r: int, band: tuple[int, int, int, int],
              start: int = 0) -> tuple[tuple[int, int, int] | None, str]:
        """Pin {r * a_k * x}; the one refinement loop behind every enclosure.

        Returns (window, side). ``window`` is (lo, hi, den) with the value in
        [lo, hi] / den: hi = lo for an exact point, hi = lo + r for a digit
        window. The digit windows deepen from the base depth (or from
        ``start``, if deeper), doubling up to the cap, until one fits one
        unit interval and lies inside the closed band [ln/ld, hn/hd] of
        ``band`` = (ln, ld, hn, hd) (side "in") or is clear of it ("out");
        ``window`` is None (the undecided [0, 1]) when none fits. A row the
        cap leaves open is still "out" when ``_out_to`` puts its block below
        ln/ld by the tail bound, as ``count_rows`` counts it, although its
        window reaches ln/ld (at the default cap it ends there). Otherwise
        side is "undecided". Against the unit band (0, 1, 1, 1) the first
        window that fits is "in". Enclosures nest under refinement, so the
        side is the same from any start depth; from the base depth, the
        window does not depend on the rows judged before. ``judge_run``
        replays rows a block at a time, and hands here only the rows its
        base window leaves open.
        """
        if self.exact_mode:
            num, den = self._exact_value(k)
            width = depth = cap = 0
        else:
            cap = self.cap
            depth = start if start > self.depth else self.depth
            if depth > cap:
                depth = cap
            width = r
        while True:
            if width:  # an exact value is its own final window
                num, den = self._window_at(k, depth)
            lo = r * num % den
            hi = lo + width
            # the value sits in [lo, lo + r) / den half-open, so hi == den
            # still fits below the next integer
            window = (lo, hi, den) if hi <= den else None
            if window is not None:
                ln, ld, hn, hd = band
                if lo * ld >= ln * den and hi * hd <= hn * den:
                    return window, "in"
                if hi * ld < ln * den or lo * hd > hn * den:
                    return window, "out"
            if depth >= cap:
                if (self._skips and 0 < 2 * band[0] < band[1]
                        and r < self.x.seq.ratio(k + 1)
                        and self._out_to(k, band[0], band[1]) >= k):
                    return window, "out"
                return window, "undecided"
            depth = min(max(2 * depth, 1), cap)

    def judge_run(self, k: int, r: int, size: int,
                  band: tuple[int, int, int, int]):
        """``judge(k, r, band)`` for ``size`` rows from row r of block k on
        (row b_{k+1} is row 1 of block k + 1; an aligned row r >= b_{k+1} is
        a run of one), as (num, den, [(r, window, side), ...]) per block:
        num/den is its base window (an exact point's value), read once, and
        a row the first test of ``judge`` leaves open goes to ``judge``."""
        exact, base = self.exact_mode, min(self.depth, self.cap)
        while size > 0:
            r1 = min(r + size, max(self.x.seq.ratio(k + 1), r + 1)) - 1  # rows r..r1
            num, den = self._exact_value(k) if exact else self._window_at(k, base)
            A, B = -(-band[0] * den // band[1]), band[2] * den // band[3]
            judged = []
            for e in range(r, r1 + 1):
                lo = e * num % den
                hi = lo if exact else lo + e
                if hi <= den and A <= lo and hi <= B:
                    judged.append((e, (lo, hi, den), "in"))
                elif hi <= den and (hi < A or lo > B):
                    judged.append((e, (lo, hi, den), "out"))
                else:
                    judged.append((e, *self.judge(k, e, band)))
            yield num, den, judged
            size -= r1 - r + 1
            k, r = k + 1, 1

    def interval(self, k: int, r: int) -> tuple[int, int, int] | None:
        """Enclosure (lo, hi, den) of {r * a_k * x}: ``judge`` against the
        unit band, so the first window from the base depth on that fits one
        unit interval, or None (the undecided [0, 1]) when none does."""
        return self.judge(k, r, (0, 1, 1, 1))[0]

    def band_verdict(self, k: int, r: int, band: tuple[int, int, int, int]) -> str:
        """Classify {r * a_k * x} against the closed band [ln/ld, hn/hd],
        given as the integers band = (ln, ld, hn, hd) of ``int_band``.

        Returns "in" when the certified enclosure lies inside the band, "out"
        when it is disjoint from the band, else "undecided". Conservative at
        exact band edges for infinite-support points; exact otherwise. The
        refinement starts at the latest window's depth when that window lies
        on block k.
        """
        win = self._win
        return self.judge(k, r, band, win[1] if win[0] == k else 0)[1]

    def count_rows(self, k: int, r: int, i: int, N: int,
                   band: tuple[int, int, int, int],
                   undecided: list[int] | None = None,
                   keep: int = 0) -> tuple[int, int, int, int]:
        """Count the derived indices i..N, from row r of block k (i = n_k + r
        - 1), against the closed band [ln/ld, hn/hd] inside [0, 1), given as
        the integers band = (ln, ld, hn, hd) of ``int_band``.

        Returns (k', r', n_in, n_und): (k', r') is where index N + 1 sits,
        and the other N - i + 1 - n_in - n_und rows are out, exactly as
        ``band_verdict`` row by row gives them. The undecided indices are
        appended to ``undecided`` in increasing order while it holds fewer
        than ``keep``, so a count keeps only as many as its caller shows.

        Each block's segment of rows r0..r1 is sorted at one window num/den
        with every row taken as wide as w = r1 (0 for an exact point): with
        lo_r = r * num mod den and [A, B] the integers of den * [ln/ld,
        hn/hd], a row is in when lo_r lies in [A, B - w] and out when it
        lies in [0, A - 1 - w] or [B + 1, den - w]; enclosures nest under
        refinement, so these verdicts are final. ``_sort_few`` sorts a
        segment of at most ``_FEW_ROWS`` rows one by one; ``_sort_many``
        counts a longer exact one by two floor sums and sorts any other by
        its wrap ranges. Both hand back the edge rows as increasing runs
        p..q. When more than ``_FEW_ROWS`` edge rows are left at a window
        below the cap, they are sorted again at judge's next depth, each
        run as wide as w = q: a wider w only defers a row, so the verdicts
        are unchanged. Only the edge rows left over go to ``band_verdict``.

        For a point whose rule declares its support and 0 < ln/ld < 1/2
        (an indicator, floor-div or finite point, whose support holds only
        the digits that may be nonzero), the blocks that ``_out_to`` puts below
        ln/ld by the tail bound are counted out whole, by a difference of
        block boundaries, up to N itself; the window restarts after them
        through ``_window_at``, which reads only the supported digits and
        spans each zero run with one ratio product. A slid window whose
        lower end is at or above ln/ld / (b_{k+1} - 1) rules block k's
        skip out without the call; a block with no slid window asks before
        its window is built, so a skipped stretch reads no digit past its
        first block. ``band_verdict`` gives every row of a skipped block
        "out" too, through the same tail bound.

        The base window is held in locals and slides to the next block with
        one division and one new digit, read through ``CirclePoint.digit``
        unless the rule says it is 0: for a rule that declares its support
        (infinite here, as a finite one makes the point exact), a zero read
        at j tells the cache that the digits j .. nz - 1 are 0, with nz =
        ``next_nonzero(j + 1)``, and those enter by their ratio alone, in
        this walk and the later ones. Each slid window is handed to the cache
        as its latest window, so edge rows and the next restart slide from
        it. ``_window_at`` serves the first block and a block the base window
        cannot slide to (blocks were skipped). An exact point is judged on
        its exact value block by block, so a rational one moves s_k forward
        one ratio step per block.

        Under ``const:b`` block k's windows read the digits k+1 .. k+1+cap,
        and ``_out_to`` counts block J - d out for all d >= D, the least
        d >= 3 with (b - 1) * ld <= ln * b^(d-1). So the blocks J' .. J - 1
        of a support member J that lies at least g past the member J' before
        it, with the next member at least g past J, hold the same in and
        undecided rows for every such J when g = max(D, cap + 1), as their
        windows read the same digits. For an indicator point, once cap >= D,
        ``_stable_gap`` certifies that from gaps of G* on every row of the
        blocks J - d, d < D, is decided on a side that does not depend on
        the gaps: such stretches hold the same in rows and no undecided row,
        so the width is g = max(D, min(G*, cap + 1)), computed once per
        band. When the support answers ``repeats(g)`` with (count, end), the
        kernel walks to its first repeat point past k, end(c) for c =
        count(k) + 1, and through the gap up to end(c + 1); the count(K) - c
        - 1 later gaps that end before N's block K add its counts each, and
        the walk resumes at end(count(K)). It multiplies when the gap held no
        undecided row, or when ``undecided`` holds ``keep`` rows and g > cap,
        so that the windows repeat the undecided rows too; otherwise it walks
        the next gap and tries again.
        """
        if undecided is None:
            undecided = []
        b = self.x.seq.spec.constant_ratio
        ln, ld = band[0], band[1]
        repeats = None
        if b is not None and self._skips and 0 < 2 * ln < ld:
            if self._gap[0] != band:
                D, P = 3, b * b  # P = b^(D-1)
                while (b - 1) * ld > ln * P:
                    D, P = D + 1, P * b
                cap = self.cap
                g = D if cap < D else max(D, min(self._stable_gap(b, D, band), cap + 1))
                self._gap = (band, g)
            g = self._gap[1]
            repeats = self.x.rule.support.repeats(g)
        if repeats is None or i > N:
            return self._walk(k, r, i, N, band, undecided, keep)
        count, end = repeats
        boundary = self.x.seq.derived.boundary
        K = (N - 1) // (b - 1)  # N's block
        n_in = n_und = 0
        c = first = count(k)  # the repeat points end(1) .. end(c) lie <= k
        while (J := end(c + 1)) <= K:
            last = boundary(J) - 1  # walk up to block J
            k, r, gap_in, gap_und = self._walk(k, r, i, last, band, undecided, keep)
            n_in, n_und, i, c = n_in + gap_in, n_und + gap_und, last + 1, c + 1
            # a walk after the first went through the gap end(c - 1) .. J - 1
            if c > first + 1 and (gap_und == 0 or (len(undecided) >= keep and g > self.cap)):
                gaps = count(K) - c
                n_in += gaps * gap_in
                n_und += gaps * gap_und
                k, r = end(c + gaps), 1
                i = boundary(k)
                break
        k, r, gap_in, gap_und = self._walk(k, r, i, N, band, undecided, keep)
        return k, r, n_in + gap_in, n_und + gap_und

    def _walk(self, k: int, r: int, i: int, N: int,
              band: tuple[int, int, int, int], undecided: list[int],
              keep: int) -> tuple[int, int, int, int]:
        """``count_rows`` block by block: the kernel every count runs."""
        if i > N:
            return k, r, 0, 0
        ratio, digit = self.x.seq.ratio, self.x.digit
        derived = self.x.seq.derived
        exact = self.exact_mode
        base = min(self.depth, self.cap)
        ln, ld, hn, hd = band
        skips = self._skips and 0 < 2 * ln < ld
        n_in = n_und = 0
        at = i - r  # row e of block k is derived index at + e
        held = False  # the locals hold block k - 1's base window, to slide
        z, nz = self._zeros
        band_den = None
        while True:
            if held:  # slide block k - 1's window to block k
                j = k + 1 + base  # the digit block k's window adds
                den //= b
                num %= den
                bj = ratio(j)
                if z <= j < nz:  # a 0 the rule promises
                    num *= bj
                else:
                    c = digit(j)
                    num = num * bj + c
                    if not c and self._skips:
                        z, nz = self._zeros = j, self.x.rule.next_nonzero(j + 1)
                den *= bj
                b = ratio(k + 1)
                self._win = (k, base, num, den)
            # a slid window at or above ln/ld / (b_{k+1} - 1) rules the skip out
            if (skips and (not held or num * ld * (b - 1) < ln * den)
                    and (last := self._out_to(k, ln, ld)) >= k):
                end = derived.boundary(last + 1) - 1
                if end >= N:
                    k, r = derived.decompose(N + 1)
                    return k, r, n_in, n_und
                held = False
                at, k, r = end, last + 1, 1
            if not held:
                b = ratio(k + 1)
                if exact:
                    num, den = self._exact_value(k)
                else:
                    num, den = self._window_at(k, base)
                    held = at + b <= N  # the count goes past block k
            r1 = b - 1
            if r1 > N - at:  # the block runs past N
                r1 = N - at
            if den != band_den:
                band_den = den
                A = -(-ln * den // ld)
                B = hn * den // hd
            sort = _sort_few if r1 - r < _FEW_ROWS else _sort_many
            seg_in, runs = sort(num, den, r, r1, A, B, 0 if exact else r1)
            n_in += seg_in
            depth = base
            while (runs and depth < self.cap
                   and sum(q - p + 1 for p, q in runs) > _FEW_ROWS):
                # sort the edge rows again at judge's next depth, each run
                # as wide as its last row
                depth = min(max(2 * depth, 1), self.cap)
                dnum, dden = self._window_at(k, depth)
                dA, dB = -(-ln * dden // ld), hn * dden // hd
                rest = []
                for p, q in runs:
                    sort = _sort_few if q - p < _FEW_ROWS else _sort_many
                    seg_in, seg_runs = sort(dnum, dden, p, q, dA, dB, q)
                    n_in += seg_in
                    rest += seg_runs
                runs = rest
            for p, q in runs:
                for e in range(p, q + 1):
                    side = self.band_verdict(k, e, band)
                    if side == "in":
                        n_in += 1
                    elif side == "undecided":
                        n_und += 1
                        if len(undecided) < keep:
                            undecided.append(at + e)
            at += r1
            if at >= N:
                break
            k += 1
            r = 1
        if r1 < b - 1:
            return k, r1 + 1, n_in, n_und
        return k + 1, 1, n_in, n_und


def int_band(band_lo: Fraction, band_hi: Fraction) -> tuple[int, int, int, int]:
    """The closed band [band_lo, band_hi] as the integers (ln, ld, hn, hd)
    that ``judge``, ``band_verdict`` and ``count_rows`` take."""
    return (band_lo.numerator, band_lo.denominator,
            band_hi.numerator, band_hi.denominator)


def _sort_few(num: int, den: int, r0: int, r1: int, A: int, B: int,
              w: int) -> tuple[int, list[tuple[int, int]]]:
    """(n_in, edge runs) of rows r0..r1 sorted one by one by lo_r = r * num
    mod den: in when lo_r lies in [A, B - w], out when it lies in
    [0, A - 1 - w] or [B + 1, den - w], an edge row otherwise. The edge rows
    come as increasing runs (p, q) of the rows p..q."""
    n_in, runs = 0, []
    top_in, top_out = B - w, den - w
    for r in range(r0, r1 + 1):
        lo = r * num % den
        if A <= lo <= top_in:
            n_in += 1
        elif lo + w >= A and not B < lo <= top_out:
            if runs and runs[-1][1] == r - 1:
                runs[-1] = (runs[-1][0], r)
            else:
                runs.append((r, r))
    return n_in, runs


def _sort_many(num: int, den: int, r0: int, r1: int, A: int, B: int,
               w: int) -> tuple[int, list[tuple[int, int]]]:
    """``_sort_few`` by floor sums or by wrap ranges.

    For w = 0 (an exact value) no row is an edge row, and two floor sums
    count the rows with lo_r in [A, B]. Otherwise the rows r with
    W = floor(r * num / den) form one run ra..rb, on which
    lo_r = r * num - W * den rises by num per row: so the first row of the
    run at or above a cut c is ceil((c + W * den) / num), clipped to
    ra..rb + 1, and each class is a range of rows, found with six
    divisions per wrap. For num = 0 every row sits at lo = 0, as row r0
    does."""
    if not w:
        # _floor_sum(..., base - c) sums floor((r * num - c) / den) over the
        # rows, so a difference of two counts the rows with A <= lo_r <= B
        n, base = r1 - r0 + 1, num * r0
        return (_floor_sum(n, den, num, base - A)
                - _floor_sum(n, den, num, base - max(B + 1, A))), []
    if not num:
        n_in, runs = _sort_few(0, den, r0, r0, A, B, w)
        return n_in * (r1 - r0 + 1), [(r0, r1)] if runs else []
    # cuts of [0, den]: out | edge | in | edge | out | edge
    cuts = (max(A - w, 0), A, max(B - w + 1, A), B + 1,
            min(max(den - w + 1, B + 1), den))
    n_in, runs, ra = 0, [], r0
    W, top = r0 * num // den, r1 * num // den
    while W <= top:
        Wd = W * den
        end = (Wd + den - 1) // num + 1  # past the run's last row
        if end > r1:
            end = r1 + 1
        f = []  # the first row at or above each cut, in ra..end
        for c in cuts:
            t = -(-(c + Wd) // num)
            f.append(ra if t < ra else t if t < end else end)
        n_in += f[2] - f[1]
        for p, q in ((f[0], f[1]), (f[2], f[3]), (f[4], end)):
            if p < q:
                runs.append((p, q - 1))
        ra, W = end, W + 1
    return n_in, runs


# ===== Lattice points of r * a mod m ==========================================
# The batched scan counts the rows r with a * r mod m in an interval by the
# Euclid-style floor sum of the AtCoder Library (atcoder/math.hpp,
# floor_sum_unsigned), in O(log m) steps.


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1, any a and b."""
    total = 0
    while True:
        if not 0 <= a < m:
            q, a = divmod(a, m)
            total += q * (n * (n - 1) // 2)
        if not 0 <= b < m:
            q, b = divmod(b, m)
            total += q * n
        y_max = a * n + b
        if y_max < m:
            return total
        # count the lattice points under the line with the axes swapped
        n, b = divmod(y_max, m)
        m, a = a, m


# ===== Digit-rule parsing ====================================================


def parse_point(text: str, seq: ArithSeq, horizon: int = 256) -> CirclePoint:
    """Parse a digit-rule string into a point under ``seq``.

    Forms: ``rat:P/Q`` (greedy expansion: ``finite:`` digits when it
    terminates within ``horizon``, an exact ``RationalDigits`` otherwise),
    ``finite:[c1,c2,...]``, ``ones-on:<set-expr>``, and
    ``floor-div:m={n1:m1,n2:m2,...}``, whose digits are computed here. A
    typed ``finite:`` digit or ``floor-div:`` divisor outside its range
    under ``seq`` fails here, and an index listed twice is a
    ``SpecParseError``.
    """
    text = text.strip()
    if text.startswith("rat:"):
        value = fraction(text[4:], "a rational point")
        return digits_from_rational(value, seq, horizon)
    if text.startswith("finite:"):
        digits = integers(enclosed(text[7:], "[]", "finite digits"), "finite digits")
        x = CirclePoint(seq, FiniteDigits(digits))
        for n, c in x.rule.digits.items():
            if c > 1:  # 0 and 1 are digits under every b_n >= 2
                x.digit(n)
        return x
    if text.startswith("ones-on:"):
        support = parse_set_expr(text[8:], seq)
        return CirclePoint(seq, IndicatorDigits(support))
    if text.startswith("floor-div:m="):
        inner = enclosed(text[12:], "{}", "floor-div divisors")
        divisors = {}
        if inner.strip():
            for pair in inner.split(","):
                key, sep, val = pair.partition(":")
                if not sep:
                    raise SpecParseError(f"divisor entry {pair!r} must be n:m")
                n = integer(key, "a divisor index")
                if n in divisors:
                    raise SpecParseError(f"divisor index {n} is repeated")
                divisors[n] = integer(val, "a divisor")
        return CirclePoint(seq, floor_div_digits(divisors, seq))
    raise SpecParseError(f"unrecognized digit rule {text!r}")
