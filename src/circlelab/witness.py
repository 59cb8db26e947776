"""Constructive witnesses: continuum-family points, certified escape bands,
and the aligned-digit construction for multiplier sequences u_n = a_{k_n} v_n.

Everything here produces evidence objects. A certification row carries the
exact enclosure it was judged on; a row that cannot be certified is reported
as undecided or as a violation (a violation falsifies the implementation, and
the suites treat it that way).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .circle import (
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    floor_div_digits,
    int_band,
)
from .density import IntervalNatSet, NatSet
from .errors import PreconditionError
from .records import Record
from .sequences import ArithSeq

__all__ = [
    "BlockRows",
    "WitnessReport",
    "continuum_family_point",
    "Partition",
    "nonmembership_partition",
    "bad_interval_family",
    "certify_nonmembership",
    "factor_u",
    "arbault_witness",
]


_LABELS = {"in": "certified", "out": "violation", "undecided": "undecided"}


def _ratio_text(num: int, den: int) -> str:
    """num/den as ``str(Fraction(num, den))`` writes it: "p/q", or "p"."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class WitnessReport(Record):
    """A named evidence bundle: parameters, per-row certifications, summary."""

    __match_args__ = ("name", "params", "point", "rows", "extras")

    def __init__(self, name: str, params: dict, point: str, rows: BlockRows,
                 extras: dict | None = None):
        self.name = name
        self.params = params
        self.point = point
        self.rows = rows
        self.extras = {} if extras is None else extras

    @property
    def certified(self) -> int:
        return self.rows.counts["certified"]

    @property
    def violations(self) -> int:
        return self.rows.counts["violation"]

    @property
    def undecided(self) -> int:
        return self.rows.counts["undecided"]

    def to_report(self, rows: int | None = None) -> dict:
        """The report with its first ``rows`` rows, or all of them."""
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "point": self.point,
            "counts": {"certified": self.certified, "violations": self.violations,
                       "undecided": self.undecided, "rows": len(self.rows)},
            "rows": self.rows.reports(rows),
            "extras": {k: str(v) for k, v in sorted(self.extras.items())},
        }


# ===== Continuum family ======================================================


def continuum_family_point(a_set: IntervalNatSet, zeta: Sequence[int],
                           seq: ArithSeq) -> CirclePoint:
    """The point with c_n = 1 on {A_{2k + zeta_k} : 1 <= k <= len(zeta)}.

    A is listed increasingly as A_1 < A_2 < ...; distinct selector strings
    give points with distinct supports, which is what makes the family large.
    Requires at least 2*len(zeta) + 2 listed elements.
    """
    if not isinstance(a_set, IntervalNatSet):
        raise PreconditionError("the index set must be finite and listable")
    elems = [n for lo, hi in a_set.intervals for n in range(lo, hi + 1)]
    if any(bit not in (0, 1) for bit in zeta):
        raise PreconditionError("selector entries must be 0 or 1")
    need = 2 * len(zeta) + 2
    if len(elems) < need:
        raise PreconditionError(
            f"index set has {len(elems)} elements, selector of length "
            f"{len(zeta)} needs at least {need}"
        )
    chosen = {elems[2 * k + bit - 1] for k, bit in enumerate(zeta, start=1)}
    top = max(chosen, default=0)
    digits = [1 if n in chosen else 0 for n in range(1, top + 1)]
    return CirclePoint(seq, FiniteDigits(digits))


# ===== Escape-band certification ============================================


class _Segment(NamedTuple):
    """A run of ``size`` rows from row r of block k (index.., n_in of them
    in the band); an aligned-digit row is a run of one, whose r may exceed
    b_{k+1}."""

    index: int
    k: int
    r: int
    size: int
    n_in: int


class BlockRows:
    """The rows of a certification, rebuilt on demand.

    Each bad run of an escape band was counted by one ``count_rows`` call;
    an aligned-digit row is a run of its own. ``EnclosureCache.judge_run``
    replays a run a block at a time; a row's enclosure and verdict depend on
    the row alone, so the rebuilt rows are the ones a row-by-row pass builds,
    in any order of reading. ``reports`` and ``failures`` write them from the
    integer windows, reduced by two gcds per block.
    """

    def __init__(self, cache: EnclosureCache, band: tuple[int, int, int, int],
                 segments: list[_Segment], counts: dict[str, int]):
        self._cache = cache
        self._band = band  # (ln, ld, hn, hd), the closed band [ln/ld, hn/hd]
        self._segments = segments
        self.counts = counts

    def __len__(self) -> int:
        return sum(self.counts.values())

    def reports(self, rows: int | None = None, failing: bool = False) -> list[dict]:
        """The reports of the first ``rows`` rows (all when None), or of the
        ``failing`` ones. On a block's base window num/den, lo = r * num mod
        den has gcd(lo, den) = g * gcd(r, q), g = gcd(num, den), q = den / g;
        g1 = gcd(num + 1, den) reduces hi = lo + r alike (not a refined window)."""
        out = []
        for seg in self._segments:
            if failing and seg.n_in == seg.size:
                continue
            size = seg.size if rows is None else min(seg.size, rows - len(out))
            if size <= 0:
                break
            index = seg.index
            for num, den, judged in self._cache.judge_run(seg.k, seg.r, size, self._band):
                g, g1 = gcd(num, den), gcd(num + 1, den)
                q, q1, tails, tails1 = den // g, den // g1, {}, {}
                for i, (r, window, side) in enumerate(judged, index):
                    if failing and side == "in":
                        continue
                    lo, hi, wden = window or (0, 1, 1)  # undecided: [0, 1]
                    if wden == den:
                        d = gcd(r, q)
                        if (tail := tails.get(d)) is None:
                            tail = tails[d] = "" if d == q else f"/{q // d}"
                        lo_text = f"{lo // (g * d)}{tail}"
                        d = gcd(r, q1)
                        if (tail := tails1.get(d)) is None:
                            tail = tails1[d] = "" if d == q1 else f"/{q1 // d}"
                        hi_text = lo_text if hi == lo else f"{hi // (g1 * d)}{tail}"
                    else:
                        lo_text, hi_text = _ratio_text(lo, wden), _ratio_text(hi, wden)
                    out.append({"index": i, "lo": lo_text, "hi": hi_text,
                                "verdict": _LABELS[side]})
                index += len(judged)
        return out

    def failures(self) -> list[dict]:
        """The reports of the rows not certified, from the runs holding one."""
        return self.reports(failing=True)


class Partition(NamedTuple):
    """The digit-size partition of the working index set."""

    a1: IntervalNatSet  # 0 < c_n/b_n < 1/m0
    a2: IntervalNatSet  # 1 - 1/n0 < c_n/b_n < 1
    a3: IntervalNatSet  # the middle band
    branch: str         # "cofinite" or "infinite"


def _check_cuts(m0: int, n0: int) -> None:
    """Refuse m0 <= 9 and n0 <= 12, where the escape band of
    ``certify_nonmembership`` does not lie inside (0, 1)."""
    if m0 <= 9:
        raise PreconditionError("m0 must exceed 9")
    if n0 <= 12:
        raise PreconditionError("n0 must exceed 12")


def nonmembership_partition(x: CirclePoint, m0: int, n0: int,
                            horizon: int) -> Partition:
    """Split the working set A by the relative digit size c_n / b_n.

    For a point with declared co-finite support, A = supp(x) minus the
    quasi-support {n : c_n = b_n - 1}; for declared infinite (non-co-finite)
    support, A = {n : c_n != 0, c_{n+1} = 0}. Cut points are 1/m0 and
    1 - 1/n0, compared exactly; m0 > 9 and n0 > 12 are required.
    """
    _check_cuts(m0, n0)
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    support = x.rule.support
    if support is None:
        raise PreconditionError(
            "support form is undeclared (a non-terminating rat: point); "
            "use a digit rule that declares its support"
        )
    if support.is_finite:
        raise PreconditionError(
            "the escape construction needs infinite support; finite-support "
            "points are genuine members"
        )
    branch = "cofinite" if support.is_cofinite else "infinite"
    a1, a2, a3 = [], [], []
    for n in range(1, horizon + 1):
        c = x.digit(n)
        if c == 0:
            continue
        b = x.seq.ratio(n)
        if branch == "cofinite":
            if c == b - 1:
                continue
        else:
            if x.digit(n + 1) != 0:
                continue
        if c * m0 < b:  # c/b < 1/m0
            a1.append(n)
        elif (b - c) * n0 < b:  # c/b > 1 - 1/n0
            a2.append(n)
        else:
            a3.append(n)
    a1, a2, a3 = (IntervalNatSet((n, n) for n in elems) for elems in (a1, a2, a3))
    return Partition(a1, a2, a3, branch)


def bad_interval_family(x: CirclePoint, branch_set: NatSet, case: str,
                        m0: int, n0: int, horizon: int) -> IntervalNatSet:
    """Derived-index intervals inside the lifted branch where values escape.

    Case "small" (the A1 branch, digits with c/b < 1/m0) places, for each
    block k and 0 <= m <= c_k // m0, the interval

        [n_{k-1} + floor((m + 1/m0) b_k / c_k),
         n_{k-1} + floor((m + 4/m0) b_k / c_k) - 1];

    case "large" (the A2 branch) uses cut points (m + 8/n0) and (m + 12/n0)
    scaled by b_k / (b_k - c_k) with 0 <= m <= (b_k - c_k) // (2 n0).
    All interval arithmetic is exact; the family is clipped to the block and
    to [1, horizon].
    """
    if case not in ("small", "large"):
        raise PreconditionError(f"case must be 'small' or 'large', got {case!r}")
    _check_cuts(m0, n0)
    derived = x.seq.derived
    parts = []
    for k in branch_set.iter_upto(horizon):
        c = x.digit(k)
        b = x.seq.ratio(k)
        base = derived.boundary(k - 1)
        block_hi = derived.boundary(k) - 1
        if base > horizon:
            break
        # (scale, digit gap, low cut, high cut, count) of the case
        if case == "small":
            scale, gap, low, high, count = m0, c, 1, 4, c // m0
            fault = "has zero digit"
        else:
            scale, gap, low, high, count = n0, b - c, 8, 12, (b - c) // (2 * n0)
            fault = "has a maximal digit"
        if gap <= 0:
            raise PreconditionError(f"branch index {k} {fault}")
        for m in range(count + 1):
            lo = base + ((m * scale + low) * b) // (scale * gap)
            hi = min(base + ((m * scale + high) * b) // (scale * gap) - 1,
                     block_hi, horizon)
            if lo <= hi:
                parts.append((lo, hi))
    return IntervalNatSet(parts)


def certify_nonmembership(x: CirclePoint, bad: IntervalNatSet, case: str, m0: int,
                          n0: int, t: int, horizon: int) -> WitnessReport:
    """Certify the escape band over the bad intervals up to the horizon.

    Case "small" certifies {d_i x} in [1/m0, 9/m0]; case "large" certifies
    ||d_i x|| >= min(3/(2 n0), 1 - 12/n0), i.e. {d_i x} inside the symmetric
    band around 1/2 at that distance from the edges. As for the partition,
    m0 > 9 and n0 > 12 are required, so that the band lies inside (0, 1).
    Undecided rows are flagged and excluded from the certified count.

    Each bad run (adjacent intervals merge, across block boundaries too)
    is counted by one ``EnclosureCache.count_rows`` call from one
    ``decompose`` of its first index; the report's rows are a ``BlockRows``
    collection that builds its rows only when they are read.
    """
    _check_cuts(m0, n0)
    if case == "small":
        band_lo, band_hi = Fraction(1, m0), Fraction(9, m0)
    elif case == "large":
        floor = min(Fraction(3, 2 * n0), 1 - Fraction(12, n0))
        band_lo, band_hi = floor, 1 - floor
    else:
        raise PreconditionError(f"case must be 'small' or 'large', got {case!r}")
    if horizon < 1:
        raise PreconditionError(f"horizon must be >= 1, got {horizon}")
    if not isinstance(bad, IntervalNatSet):
        raise PreconditionError("the bad set must be a bounded interval union")
    band = int_band(band_lo, band_hi)
    cache = EnclosureCache(x, depth=t)
    segments = []
    total = n_in = n_und = 0
    for lo, hi in bad.intervals:
        if lo > horizon:
            break
        hi = min(hi, horizon)
        k, r = x.seq.derived.decompose(lo)
        _, _, run_in, run_und = cache.count_rows(k, r, lo, hi, band)
        segments.append(_Segment(lo, k, r, hi - lo + 1, run_in))
        n_in += run_in
        n_und += run_und
        total += hi - lo + 1
    rows = BlockRows(cache, band, segments,
                     {"certified": n_in, "violation": total - n_in - n_und,
                      "undecided": n_und})
    report = WitnessReport(
        name="escape-band",
        params={"case": case, "m0": m0, "n0": n0, "depth": t, "horizon": horizon,
                "band_lo": band_lo, "band_hi": band_hi},
        point=x.describe(),
        rows=rows,
    )
    report.extras["spec"] = x.seq.describe()
    return report


# ===== Aligned-digit witnesses ==============================================


def factor_u(u: int, seq: ArithSeq) -> tuple[int, int]:
    """Write u = a_k * v with k maximal; then b_{k+1} does not divide v.

    The divisor set {j : a_j | u} is an initial segment because each a_j
    divides the next, so the maximal k is found by walking upward.
    """
    if u < 1:
        raise PreconditionError(f"u must be >= 1, got {u}")
    k = 0
    while u % seq.term(k + 1) == 0:
        k += 1
    return k, u // seq.term(k)


def _aligned_choice(seq: ArithSeq, k: int, v: int):
    """Digit alignment at position k + 1 for the factor u = a_k * v.

    With b = b_{k+1} and l = v mod b (never 0 since b does not divide v), the
    divisor is m = 2l when l <= b/2, else m = 2(b - l). The choice is usable
    when some e in {1, ..., m-1} gives floor(b/m) = (b - e)/m, i.e. exactly
    when m does not divide b; that existence is verified here, per index.
    """
    b = seq.ratio(k + 1)
    l = v % b
    if l == 0:
        raise PreconditionError(f"b_{k + 1} divides v = {v}; factorization broken")
    m = 2 * l if 2 * l <= b else 2 * (b - l)
    e = b % m
    ok = 1 < m <= b and e != 0
    return b, l, m, e, ok


def arbault_witness(seq: ArithSeq, u_list: Sequence[int], rows: int = 20,
                    depth: int = 8) -> WitnessReport:
    """Build a point whose values along a subsequence of u stay in [1/4, 7/8].

    Greedy selection: s_1 is the first index whose digit alignment is usable,
    and each next pick is the first later index with a_{k_s} >= 8 * u_{prev}
    and a usable alignment; indices rejected for an unusable alignment are
    recorded in the report. The point has c_{k_s + 1} = floor(b / m) on the
    selected positions and 0 elsewhere, so it is rational and every row is
    certified exactly.
    """
    if not u_list:
        raise PreconditionError("the multiplier list must be non-empty")
    if any(b >= c for b, c in zip(u_list, u_list[1:])):
        raise PreconditionError("the multiplier list must be strictly increasing")
    if rows < 1:
        raise PreconditionError("must certify at least one row")
    factored = [factor_u(u, seq) for u in u_list]
    picks: list[int] = []
    alignments = []
    skipped = []
    prev_u = None
    for idx, (u, (k, v)) in enumerate(zip(u_list, factored)):
        if len(picks) >= rows:
            break
        if prev_u is not None and seq.term(k) < 8 * prev_u:
            continue
        b, l, m, e, ok = _aligned_choice(seq, k, v)
        if not ok:  # m divides b, no usable e
            skipped.append(f"u_{idx + 1}={u} (b={b}, m={m})")
            continue
        picks.append(idx)
        alignments.append((k, v, b, l, m, e))
        prev_u = u
    if not picks:
        raise PreconditionError("no multiplier admitted a usable digit alignment")
    divisors = {k + 1: m for (k, v, b, l, m, e) in alignments}
    x = CirclePoint(seq, floor_div_digits(divisors, seq))
    band_lo, band_hi = Fraction(1, 4), Fraction(7, 8)
    band = int_band(band_lo, band_hi)
    cache = EnclosureCache(x, depth=depth)
    segments, counts = [], dict.fromkeys(_LABELS.values(), 0)
    existence_failures = 0
    for pick, (k, v, b, l, m, e) in zip(picks, alignments):
        c = x.digit(k + 1)
        # re-derive e from the placed digit: usable iff 1 <= b - m*c <= m - 1
        e_check = b - m * c
        if not 1 <= e_check <= m - 1:
            existence_failures += 1
        side = cache.judge(k, v, band)[1]
        counts[_LABELS[side]] += 1
        segments.append(_Segment(pick + 1, k, v, 1, int(side == "in")))
    report = WitnessReport(
        name="aligned-digit-witness",
        params={"rows": rows, "depth": depth, "band_lo": band_lo,
                "band_hi": band_hi},
        point=x.describe(),
        rows=BlockRows(cache, band, segments, counts),
    )
    report.extras.update({
        "spec": seq.describe(),
        "selection": ",".join(str(p + 1) for p in picks),
        "existence_failures": existence_failures,
        "skipped": len(skipped),
        "skipped_detail": "; ".join(skipped),
    })
    return report
