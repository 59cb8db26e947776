"""Finite-horizon checks for density-lifting behaviour of a ratio rule.

Three regimes are probed. Bounded ratios force every density-zero block set
to lift to density zero. Ratios that dominate their own partial sums
(b_{n+1} >= alpha * (b_1 + ... + b_n)) force every infinite block set to lift
to positive upper density, with the floor alpha/(alpha+1). Ratios that are
vanishing relative to the boundary growth (b_n / sum(b_i - 1) -> 0) admit an
infinite block set all of whose translates lift to density zero; the witness
recursion constructing that set lives here too.

Every verdict is finite-horizon evidence, never a limit claim.
"""

from __future__ import annotations

from fractions import Fraction

from .density import IntervalNatSet, NatSet
from .errors import HorizonError, PreconditionError
from .parse import printable
from .records import Record
from .sequences import ArithSeq

__all__ = [
    "ClassVerdict",
    "check_b_bounded",
    "check_strongly_non_dli",
    "check_weakly_dli_condition",
    "witness_recursion",
    "weakly_dli_witness_set",
]

HOLDS = "holds-at-horizon"
FAILS = "fails-at-witness"
INCONCLUSIVE = "inconclusive"


class ClassVerdict(Record):
    """Outcome of a finite-horizon classification check."""

    __match_args__ = ("prop", "horizon", "verdict", "witness", "notes", "trace")

    def __init__(self, prop: str, horizon: int, verdict: str,
                 witness: dict | None = None, notes: list[str] | None = None,
                 trace: list | None = None):
        self.prop = prop
        self.horizon = horizon
        self.verdict = verdict
        self.witness = witness
        self.notes = [] if notes is None else notes
        self.trace = [] if trace is None else trace

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_report(self) -> dict:
        out = {
            "prop": self.prop,
            "horizon": self.horizon,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }
        if self.witness is not None:
            out["witness"] = {k: str(printable(v, f"witness {k}"))
                              for k, v in self.witness.items()}
        if self.trace:
            out["trace"] = [[str(printable(v, f"trace row {row[0]}")) for v in row]
                            for row in self.trace]
        return out


def check_b_bounded(seq: ArithSeq, s: NatSet, bound: int, horizon: int) -> ClassVerdict:
    """Is b_n <= bound for every n in S up to the horizon?

    Under a spec with closed forms the ratios never decrease, so each run
    lo..hi of S is decided by a few ratio reads: the first failing member
    of a run is found by doubling steps from lo, then by bisection. Under
    every other spec each member is read, one run per member.
    """
    if bound < 2:
        raise PreconditionError("ratio bound must be >= 2")
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    ratio = seq.ratio
    if seq.spec.forms:
        runs = s.runs_upto(horizon)
    else:
        runs = ((n, n) for n in s.iter_upto(horizon))
    checked = 0
    for lo, hi in runs:
        # ok: the last member read within the bound, n: the next one read.
        # The steps double, so under pow: no ratio far past the first
        # failing member is built; then bisection finds that member
        ok, n, step = lo - 1, lo, 1
        while n < hi and ratio(n) <= bound:
            ok, n, step = n, min(n + step, hi), 2 * step
        if ratio(n) <= bound:  # n = hi
            checked += hi - lo + 1
            continue
        while n - ok > 1:
            mid = (ok + n) // 2
            if ratio(mid) > bound:
                n = mid
            else:
                ok = mid
        checked += n - lo + 1
        return ClassVerdict(
            "b-bounded", horizon, FAILS,
            witness={"n": n, "b_n": ratio(n), "bound": bound},
            notes=[f"checked {checked} indices before the witness"],
        )
    return ClassVerdict("b-bounded", horizon, HOLDS,
                        notes=[f"checked {checked} indices"])


def check_strongly_non_dli(seq: ArithSeq, alpha: Fraction, horizon: int) -> ClassVerdict:
    """Does b_{n+1} >= alpha * (b_1 + ... + b_n) hold for every n < horizon?

    On success the verdict records the implied lower bound alpha/(alpha+1)
    for the upper density of every lifted infinite block set.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    if horizon < 2:
        raise PreconditionError("horizon must be >= 2")
    partial = 0
    trace = []
    for n in range(1, horizon):
        partial += seq.ratio(n)
        nxt = seq.ratio(n + 1)
        trace.append((n, nxt, alpha * partial))
        if nxt < alpha * partial:
            return ClassVerdict(
                "strongly-non-dli", horizon, FAILS,
                witness={"n": n, "b_next": nxt, "alpha_partial_sum": alpha * partial},
                trace=trace,
            )
    v = ClassVerdict("strongly-non-dli", horizon, HOLDS, trace=trace)
    v.witness = {"density_floor": alpha / (alpha + 1)}
    v.notes.append(
        "every infinite block set lifts with upper density >= alpha/(alpha+1)"
    )
    return v


def check_weakly_dli_condition(seq: ArithSeq, horizon: int,
                               threshold: Fraction = Fraction(1, 100)) -> ClassVerdict:
    """Trace r_n = b_n / sum_{i<=n} (b_i - 1) and judge whether it is vanishing.

    Holds when r at the horizon is <= threshold and r is non-increasing over
    the last decade [horizon//10, horizon]; fails when r stays at or above the
    threshold over that whole decade; inconclusive otherwise. Threshold and
    the decade window are configuration, not truth, and the raw trace is kept.
    """
    if horizon < 10:
        raise PreconditionError("horizon must be >= 10 for the last-decade check")
    trace = []
    partial = 0
    for n in range(1, horizon + 1):
        b = seq.ratio(n)
        partial += b - 1
        trace.append((n, Fraction(b, partial)))
    decade = [row for row in trace if row[0] >= horizon // 10]
    values = [r for _, r in decade]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    r_end = trace[-1][1]
    if r_end <= threshold and monotone:
        return ClassVerdict("weakly-dli-condition", horizon, HOLDS, trace=trace,
                            notes=[f"r at horizon = {r_end} <= {threshold}"])
    if min(values) >= threshold:
        n_min = min(decade, key=lambda row: row[1])[0]
        return ClassVerdict(
            "weakly-dli-condition", horizon, FAILS, trace=trace,
            witness={"n": n_min, "r_n": dict(decade)[n_min], "threshold": threshold},
            notes=["trace bounded away from 0 over the last decade"],
        )
    return ClassVerdict("weakly-dli-condition", horizon, INCONCLUSIVE, trace=trace)


def witness_recursion(seq: ArithSeq, jmax: int, scan_limit: int = 10**6):
    """The index recursion u_1 = 1, u_{j+1} = min{r : r > u_j + j + 1 and
    n_r > j * sum_{i<=j} sum_{t=0..i} (b_{u_i+1-t} - 1)}.

    Returns (u, trace) where trace rows are (j, u_j, bound used to pick u_j).
    Ratio references at non-positive indices contribute 0 and are flagged in
    the trace notes. The search for each u_{j+1} is capped at scan_limit.
    """
    if jmax < 1:
        raise PreconditionError("jmax must be >= 1")
    derived = seq.derived
    u = [1]
    trace = [(1, 1, None, "")]
    inner_sums: list[int] = []  # inner_sums[i-1] = sum_{t=0..i} (b_{u_i+1-t} - 1)
    for j in range(1, jmax):
        flags = []
        s = 0
        for t in range(0, j + 1):
            idx = u[j - 1] + 1 - t
            if idx < 1:
                flags.append(f"b index {idx} <= 0 treated as contributing 0")
                continue
            s += seq.ratio(idx) - 1
        inner_sums.append(s)
        bound = j * sum(inner_sums)
        r = u[-1] + j + 2
        while derived.boundary(r) <= bound:
            r += 1
            if r > scan_limit:
                raise HorizonError(
                    f"witness search for u_{j + 1} exceeded scan limit {scan_limit}"
                )
        u.append(r)
        trace.append((j + 1, r, bound, ";".join(flags)))
    return u, trace


def weakly_dli_witness_set(seq: ArithSeq, jmax: int,
                           scan_limit: int = 10**6) -> IntervalNatSet:
    """The block-index set A = {u_j + 1 : j <= jmax} from the witness recursion.

    Every translate A - m lifts with vanishing prefix density along the
    boundary horizons; the shrink suites quantify this.
    """
    u, _ = witness_recursion(seq, jmax, scan_limit)
    return IntervalNatSet((v + 1, v + 1) for v in u)
