"""Membership verdicts and the statistical scan.

A point with finite support is a member outright: all values d_i x vanish
from the support's end onward. Infinite support forces non-membership, but
that implication is a cited result, not something the scan proves; the
verdict object keeps the two kinds of evidence apart. The scan itself only
reports certified density bounds for {i <= N : ||d_i x|| >= eps}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .circle import CirclePoint, EnclosureCache, int_band
from .density import DensityEstimate
from .errors import PreconditionError
from .parse import printable
from .records import FrozenRecord, Record

__all__ = [
    "MemberVerdict",
    "finite_support_member",
    "ScanResult",
    "statistical_scan",
    "convergence_verdict",
]

# the undecided rows a scan keeps and its report shows, the earliest first
SHOWN_UNDECIDED = 100


class MemberVerdict(FrozenRecord):
    """Outcome of the support-based membership test."""

    __match_args__ = ("status", "reason", "citation_dependent", "cutoff")

    def __init__(self, status: str, reason: str, citation_dependent: bool = False,
                 cutoff: Optional[int] = None):
        # status is "member", "non-member" or "inconclusive"
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "citation_dependent", citation_dependent)
        object.__setattr__(self, "cutoff", cutoff)

    def to_report(self) -> dict:
        out = {"status": self.status, "reason": self.reason,
               "citation_dependent": self.citation_dependent}
        if self.cutoff is not None:
            out["cutoff"] = self.cutoff
        return out


def finite_support_member(x: CirclePoint) -> MemberVerdict:
    """Classify x by its support form.

    Finite support gives membership constructively: past the last supported
    block every d_i x is an integer multiple of x's denominator scaled away,
    so ||d_i x|| -> 0; the cutoff is the first derived index where the norm
    is already 0. Declared infinite support gives non-membership, but that
    rests on the known characterization of members as finite-support points
    rather than on anything computed here, so the verdict flags itself as
    citation-dependent. A cutoff with more decimal digits than Python
    converts to text could not be reported: ``printable`` raises
    HorizonError instead.
    """
    support = x.rule.support
    if support is None:
        return MemberVerdict(
            status="inconclusive",
            reason="support form undeclared; scan statistically instead",
        )
    if support.is_finite:
        m = x.rule.finite_support_max()
        cutoff = x.seq.derived.boundary(m) if m > 0 else 1
        printable(cutoff, f"membership cutoff n_{m}")
        return MemberVerdict(
            status="member",
            reason="finite support; values vanish from the cutoff onward",
            cutoff=cutoff,
        )
    kind = "cofinite" if support.is_cofinite else "infinite"
    return MemberVerdict(
        status="non-member",
        reason=f"support declared {kind}; excluded by the "
               "characterization of members as finite-support points",
        citation_dependent=True,
    )


class ScanResult(Record):
    """Certified density bounds for the eps-escape set at each horizon."""

    __match_args__ = ("eps", "depth", "cap", "horizons", "estimates",
                      "undecided_rows", "spec", "point")

    def __init__(self, eps: Fraction, depth: int, cap: int, horizons: tuple[int, ...],
                 estimates: list[DensityEstimate] | None = None,
                 undecided_rows: list[int] | None = None, spec: str = "",
                 point: str = ""):
        self.eps = eps
        self.depth = depth
        self.cap = cap
        self.horizons = horizons
        self.estimates = [] if estimates is None else estimates
        self.undecided_rows = [] if undecided_rows is None else undecided_rows
        self.spec = spec
        self.point = point

    def to_report(self) -> dict:
        return {
            "eps": str(self.eps),
            "depth": self.depth,
            "cap": self.cap,
            "spec": self.spec,
            "point": self.point,
            "horizons": list(self.horizons),
            "bounds": [{"N": e.N, "lo": str(e.lo), "hi": str(e.hi),
                        "in": e.in_count, "out": e.out_count,
                        "undecided": e.undecided_count}
                       for e in self.estimates],
            "undecided_rows": self.undecided_rows[:SHOWN_UNDECIDED],
        }


def statistical_scan(x: CirclePoint, eps: Fraction,
                     horizons: Sequence[int], depth: int = 8,
                     cap: Optional[int] = None) -> ScanResult:
    """Count i <= N with ||d_i x|| >= eps, three-way, at each horizon.

    One pass over derived indices: each horizon resumes where the last one
    stopped with one ``EnclosureCache.count_rows`` call, which walks the
    blocks (under ``const:b`` it counts the wide gaps of a ``squares``
    support by multiplication) and refines only the rows near a band edge,
    up to the cap (the cache's default unless given). For a point whose
    finite support ends at digit m, every row from n_m on (block m and
    later) is exactly 0, so out, and is counted without a call; n_0 = 1
    covers an empty support. Rows
    neither in nor undecided are out. Counts are monotone under refinement,
    so bounds at successive horizons come from the same pass. Of the
    undecided rows, only the first ``SHOWN_UNDECIDED``, which the report
    shows, are kept.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise PreconditionError("eps must lie in (0, 1/2)")
    horizons = tuple(sorted(set(int(h) for h in horizons)))
    if not horizons or horizons[0] < 1:
        raise PreconditionError("horizons must be positive")
    band = int_band(eps, 1 - eps)
    cache = EnclosureCache(x, depth=depth, cap=cap)
    result = ScanResult(eps=eps, depth=depth, cap=cache.cap, horizons=horizons,
                        spec=x.seq.describe(), point=x.describe())
    m = x.rule.finite_support_max()
    last = None if m is None else x.seq.derived.boundary(m) - 1
    n_in = n_und = 0
    i, k, r = 1, 0, 1  # derived index i is row r of block k
    for N in horizons:
        end = N if last is None else min(N, last)
        if i <= end:
            k, r, seg_in, seg_und = cache.count_rows(k, r, i, end, band,
                                                     result.undecided_rows, SHOWN_UNDECIDED)
            n_in += seg_in
            n_und += seg_und
            i = end + 1
        result.estimates.append(DensityEstimate(N, n_in, N - n_in - n_und, n_und))
    return result


def convergence_verdict(scan: ScanResult) -> dict:
    """Judge whether the scan supports density -> 0 for the escape set.

    Purely heuristic reading of certified bounds; the return spells out
    which rule fired. Heavy indecision defeats any reading.
    """
    if not scan.estimates:
        raise PreconditionError("scan produced no estimates")
    los = [e.lo for e in scan.estimates]
    his = [e.hi for e in scan.estimates]
    und_frac = [Fraction(e.undecided_count, e.N) for e in scan.estimates]
    if any(u > Fraction(1, 2) for u in und_frac):
        return {"verdict": "inconclusive",
                "rule": "undecided fraction exceeds 1/2 at some horizon"}
    if his[-1] == 0:
        return {"verdict": "evidence-for",
                "rule": "upper bound is exactly 0 at the last horizon"}
    strictly_down = all(a > b for a, b in zip(his, his[1:]))
    if strictly_down and len(his) >= 2 and his[-1] <= his[0] / 2:
        return {"verdict": "evidence-for",
                "rule": "upper bounds strictly decrease and at least halve"}
    if los[-1] > 0 and min(los) > 0:
        return {"verdict": "evidence-against",
                "rule": "lower bound stays positive at every horizon"}
    return {"verdict": "inconclusive", "rule": "no decision rule fired"}
