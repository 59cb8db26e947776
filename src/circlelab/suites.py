"""Verification suites behind the ``verify`` subcommand.

Each suite runs a finite seeded battery and reports pass/fail together with
the first counterexample, if any. Reports are plain data (ints, strings,
lists, dicts) with every fraction rendered as "p/q", so serializing them is
exact and replay-stable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .circle import (
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    IndicatorDigits,
    digits_from_rational,
)
from .classify import check_strongly_non_dli, weakly_dli_witness_set
from .density import IntervalNatSet, full_set, lift, set_algebra
from .errors import HorizonError, PreconditionError
from .parse import frac_param, int_param, ints_param, merge_params
from .membership import convergence_verdict, statistical_scan
from .sequences import ArithSeq, RatioSpec
from .witness import arbault_witness, continuum_family_point

__all__ = ["SUITES", "plainify", "run_suite", "lift_algebra", "tail_bound",
           "recursion", "snd_density", "wdli_shrink", "coincidence", "arbault"]


def plainify(value):
    """Reduce to JSON-safe exact data: fractions become 'p/q', no floats."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        raise PreconditionError("floats are not allowed in reports")
    if isinstance(value, dict):
        return {str(k): plainify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plainify(v) for v in value]
    return value


def _seq(spec_text: str) -> ArithSeq:
    return ArithSeq(RatioSpec.parse(spec_text))


def _spec_list(value) -> list[str]:
    """The ratio specs ``value`` names; PreconditionError when it names none."""
    if isinstance(value, str):
        specs = [s.strip() for s in value.split(",") if s.strip()]
    else:
        specs = [str(s) for s in value]
    if not specs:
        raise PreconditionError("specs must name at least one ratio spec")
    return specs


# size limits: under pow:2 a window or term reaching digit n has ~n^2/2 bits
_SIZE_LIMITS = {"tmax": 128, "max_len": 128, "jmax": 512}


def _least(p: dict, key: str, low: int) -> int:
    """int_param(p, key); PreconditionError below low, so that a suite never
    passes on an empty check, and HorizonError past its size limit."""
    value = int_param(p, key)
    if value < low:
        raise PreconditionError(f"{key} must be >= {low}, got {value}")
    if value > _SIZE_LIMITS.get(key, value):
        raise HorizonError(f"{key} must be <= {_SIZE_LIMITS[key]}, got {value}")
    return value


def _sample(rng: random.Random, population: range, k: int) -> list[int]:
    """rng.sample; PreconditionError when k values cannot be drawn."""
    if k > len(population):
        raise PreconditionError(f"cannot draw {k} of {len(population)} values")
    return rng.sample(population, k)


def lift_algebra(params: dict | None = None) -> dict:
    """Exact commutation of lifting with union/intersection/difference."""
    p = merge_params({"specs": "linear:1,pow:2,const:2", "pairs": 200,
                      "lo": 1, "hi": 50, "max_size": 10, "seed": 1789},
                     params, "suite lift-algebra")
    rng = random.Random(int_param(p, "seed"))
    lo, hi = int_param(p, "lo"), int_param(p, "hi")
    max_size = _least(p, "max_size", 0)
    identities = 0
    counterexample = None
    for spec_text in _spec_list(p["specs"]):
        seq = _seq(spec_text)
        for k in range(1, 26):
            block = lift(IntervalNatSet([(k, k)]), seq.derived).intervals
            want = ((seq.derived.boundary(k - 1), seq.derived.boundary(k) - 1),)
            if block != want or block[0][1] - block[0][0] + 1 != seq.ratio(k) - 1:
                counterexample = {"spec": spec_text, "kind": "block-size", "k": k}
                break
            identities += 1
        if counterexample:
            break
        for _ in range(int_param(p, "pairs")):
            a = sorted(_sample(rng, range(lo, hi + 1), rng.randint(0, max_size)))
            b = sorted(_sample(rng, range(lo, hi + 1), rng.randint(0, max_size)))
            sa, sb = (IntervalNatSet((v, v) for v in e) for e in (a, b))
            la, lb = lift(sa, seq.derived), lift(sb, seq.derived)
            for op in ("union", "intersect", "difference"):
                left = lift(set_algebra(op, sa, sb), seq.derived).intervals
                right = set_algebra(op, la, lb).intervals
                if left != right:
                    counterexample = {"spec": spec_text, "kind": op,
                                      "a": a, "b": b,
                                      "lift_of_op": str(left), "op_of_lifts": str(right)}
                    break
                identities += 1
            if counterexample:
                break
            if a != b and la.intervals == lb.intervals:
                counterexample = {"spec": spec_text, "kind": "injectivity",
                                  "a": a, "b": b}
                break
            identities += 1
        if counterexample:
            break
    return {"suite": "lift-algebra", "params": plainify(p), "identities": identities,
            "pass": counterexample is None, "counterexample": counterexample}


def tail_bound(params: dict | None = None) -> dict:
    """Window tail bound never exceeds 1/a_{j-1} and dominates the true tail.

    With ub = un/ud read from the point's cache, x = p/q and a = a_{j-1}, a
    row fails when un * a > ud or (a p mod q) * ud > un * a * q; Fractions
    are built only for the maximal ratio and a counterexample.
    """
    p = merge_params({"specs": "linear:1,pow:2", "trials": 100, "jmax": 30,
                      "qmax": 10 ** 6, "seed": 421}, params, "suite tail-bound")
    trials, jmax = _least(p, "trials", 1), _least(p, "jmax", 1)
    qmax = _least(p, "qmax", 2)
    rng = random.Random(int_param(p, "seed"))
    mu, md = 0, 1  # max_ratio = mu/md
    rows = 0
    counterexample = None
    for spec_text in _spec_list(p["specs"]):
        seq = _seq(spec_text)
        for _ in range(trials):
            q = rng.randint(2, qmax)
            value = Fraction(rng.randint(1, q - 1), q)
            vp, vq = value.numerator, value.denominator
            cache = EnclosureCache(digits_from_rational(value, seq), 0)
            for j in range(1, jmax + 1):
                a = seq.term(j - 1)
                un, ud = cache.tail_upper_bound(j)
                ua = un * a
                if ua * md > mu * ud:
                    mu, md = ua, ud
                rem = a * vp % vq
                if ua > ud or rem * ud > ua * vq:
                    counterexample = {"spec": spec_text, "x": str(value), "j": j,
                                      "upper_bound": str(Fraction(un, ud)),
                                      "true_tail": str(Fraction(rem, vq * a))}
                    break
                rows += 1
            if counterexample:
                break
        if counterexample:
            break
    return {"suite": "tail-bound", "params": plainify(p), "rows": rows,
            "max_ratio": str(Fraction(mu, md)), "pass": counterexample is None,
            "counterexample": counterexample}


def recursion(params: dict | None = None) -> dict:
    """Window identity: exact value inside every enclosure, exact widths, nesting.

    Each row reads the unreduced integers (lo, hi, den) of the enclosure and
    (en, ed) of the exact value from the point's cache and is checked on
    their cross-products; Fractions are built only for a counterexample.
    """
    p = merge_params({"specs": "linear:1,pow:2", "trials": 40, "tmax": 8,
                      "max_len": 10, "seed": 97}, params, "suite recursion")
    trials, tmax = _least(p, "trials", 1), _least(p, "tmax", 0)
    max_len = _least(p, "max_len", 1)
    rng = random.Random(int_param(p, "seed"))
    checks = 0
    counterexample = None
    for spec_text in _spec_list(p["specs"]):
        seq = _seq(spec_text)
        for _ in range(trials):
            length = rng.randint(1, max_len)
            digits = [rng.randint(0, seq.ratio(n) - 1) for n in range(1, length + 1)]
            cache = EnclosureCache(CirclePoint(seq, FiniteDigits(digits)), 0)
            for n in range(1, length + 3):
                en, ed = cache.frac_exact(n)
                prev, w = None, 1  # w = b_n * ... * b_{n+t}
                for t in range(tmax + 1):
                    lo, hi, den = cache.frac_bound(n, t)
                    if den < 1 or not 0 <= lo <= hi <= den:
                        raise PreconditionError(
                            f"invalid enclosure [{lo}/{den}, {hi}/{den}]")
                    w *= seq.ratio(n + t)
                    inside = lo * ed <= en * den and en * den < hi * ed
                    nested = prev is None or (prev[0] * den <= lo * prev[2]
                                              and hi * prev[2] <= prev[1] * den)
                    if (hi - lo) * w != den or not inside or not nested:
                        counterexample = {"spec": spec_text, "digits": digits,
                                          "n": n, "t": t,
                                          "exact": str(Fraction(en, ed)),
                                          "lo": str(Fraction(lo, den)),
                                          "hi": str(Fraction(hi, den))}
                        break
                    prev = lo, hi, den
                    checks += 1
                if counterexample:
                    break
            if counterexample:
                break
        if counterexample:
            break
    return {"suite": "recursion", "params": plainify(p), "checks": checks,
            "pass": counterexample is None, "counterexample": counterexample}


def snd_density(params: dict | None = None) -> dict:
    """Density floor for lifted finite sets under the growth condition."""
    p = merge_params({"spec": "pow:2", "alpha": 1, "horizon": 30, "trials": 20,
                      "kmax": 12, "floor": "45/100", "seed": 3571},
                     params, "suite snd-density")
    trials = _least(p, "trials", 1)
    seq = _seq(str(p["spec"]))
    alpha = frac_param(p, "alpha")
    verdict = check_strongly_non_dli(seq, alpha, int_param(p, "horizon"))
    if not verdict.holds:
        return {"suite": "snd-density", "params": plainify(p), "pass": False,
                "counterexample": {"kind": "growth-condition",
                                   "verdict": verdict.verdict,
                                   "witness": plainify(verdict.witness)}}
    rng = random.Random(int_param(p, "seed"))
    floor = frac_param(p, "floor")
    min_density = None
    counterexample = None
    densities = []
    for _ in range(trials):
        size = rng.randint(1, 6)
        elems = sorted(_sample(rng, range(1, int_param(p, "kmax") + 1), size))
        horizon = seq.derived.boundary(max(elems)) - 1
        lifted = lift(IntervalNatSet((v, v) for v in elems), seq.derived)
        dens = Fraction(lifted.count_upto(horizon), horizon)
        densities.append(str(dens))
        if min_density is None or dens < min_density:
            min_density = dens
        if dens < floor:
            counterexample = {"kind": "density", "a": elems, "N": horizon,
                              "density": str(dens), "floor": str(floor)}
            break
    return {"suite": "snd-density", "params": plainify(p),
            "density_floor": str(alpha / (alpha + 1)),
            "densities": densities,
            "min_density": str(min_density) if min_density is not None else None,
            "pass": counterexample is None, "counterexample": counterexample}


def wdli_shrink(params: dict | None = None) -> dict:
    """Escape-set upper bounds shrink along horizons for a family point."""
    p = merge_params({"spec": "linear:1", "jmax": 8, "zeta": "0,1,0", "eps": "1/10",
                      "horizons": "1000,10000,100000", "depth": 8,
                      "last_bound": "1/20", "scan_limit": 10 ** 6},
                     params, "suite wdli-shrink")
    seq = _seq(str(p["spec"]))
    a_set = weakly_dli_witness_set(seq, int_param(p, "jmax"), int_param(p, "scan_limit"))
    zeta = tuple(ints_param(p, "zeta"))
    x = continuum_family_point(a_set, zeta, seq)
    scan = statistical_scan(x, frac_param(p, "eps"), ints_param(p, "horizons"),
                            int_param(p, "depth"))
    his = [e.hi for e in scan.estimates]
    strict = all(u > v for u, v in zip(his, his[1:]))
    last_ok = his[-1] <= frac_param(p, "last_bound")
    counterexample = None
    if not strict:
        counterexample = {"kind": "not-strictly-decreasing",
                          "bounds": [str(h) for h in his]}
    elif not last_ok:
        counterexample = {"kind": "last-bound", "hi": str(his[-1]),
                          "bound": str(p["last_bound"])}
    return {"suite": "wdli-shrink", "params": plainify(p),
            "witness_set": list(a_set.iter_upto(a_set.intervals[-1][1])),
            "support": x.rule.describe(),
            "bounds": [{"N": e.N, "lo": str(e.lo), "hi": str(e.hi),
                        "undecided": e.undecided_count} for e in scan.estimates],
            "verdict": convergence_verdict(scan),
            "pass": counterexample is None, "counterexample": counterexample}


def coincidence(params: dict | None = None) -> dict:
    """Scan of the all-ones point: positive escape floor that persists."""
    p = merge_params({"spec": "pow:2", "eps": "1/8", "horizons": "1000,10000,100000",
                      "depth": 32, "floor": None, "max_undecided": "1/20"},
                     params, "suite coincidence")
    seq = _seq(str(p["spec"]))
    x = CirclePoint(seq, IndicatorDigits(full_set()))
    scan = statistical_scan(x, frac_param(p, "eps"), ints_param(p, "horizons"),
                            int_param(p, "depth"))
    los = [e.lo for e in scan.estimates]
    und = [Fraction(e.undecided_count, e.N) for e in scan.estimates]
    max_und = frac_param(p, "max_undecided")
    counterexample = None
    if los[0] == 0:
        counterexample = {"kind": "zero-floor"}
    elif any(u > max_und for u in und):
        counterexample = {"kind": "undecided", "fractions": [str(u) for u in und]}
    elif p["floor"] is not None:
        floor = frac_param(p, "floor")
        if los[0] != floor:
            counterexample = {"kind": "floor-drift", "measured": str(los[0]),
                              "frozen": str(floor)}
        elif any(v < floor / 2 for v in los[1:]):
            counterexample = {"kind": "floor-decay",
                              "bounds": [str(v) for v in los]}
    return {"suite": "coincidence", "params": plainify(p),
            "floor": str(los[0]),
            "bounds": [{"N": e.N, "lo": str(e.lo), "hi": str(e.hi),
                        "undecided": e.undecided_count} for e in scan.estimates],
            "verdict": convergence_verdict(scan),
            "pass": counterexample is None, "counterexample": counterexample}


def arbault(params: dict | None = None) -> dict:
    """Aligned-digit witness rows certified inside [1/4, 7/8], no failures."""
    p = merge_params({"spec": "linear:1", "count": 60, "rows": 20, "depth": 8},
                     params, "suite arbault")
    seq = _seq(str(p["spec"]))
    u_list = [seq.term(n) + seq.term(n - 1) for n in range(1, int_param(p, "count") + 1)]
    rep = arbault_witness(seq, u_list, rows=int_param(p, "rows"), depth=int_param(p, "depth"))
    counterexample = None
    bad = rep.rows.failures()
    if len(rep.rows) < int_param(p, "rows"):
        counterexample = {"kind": "too-few-rows", "got": len(rep.rows)}
    elif bad:
        counterexample = {"kind": bad[0]["verdict"], "row": bad[0]}
    elif rep.extras.get("existence_failures"):
        counterexample = {"kind": "existence-failure",
                          "count": rep.extras["existence_failures"]}
    return {"suite": "arbault", "params": plainify(p), "report": rep.to_report(),
            "pass": counterexample is None, "counterexample": counterexample}


SUITES = {
    "lift-algebra": lift_algebra,
    "tail-bound": tail_bound,
    "recursion": recursion,
    "snd-density": snd_density,
    "wdli-shrink": wdli_shrink,
    "coincidence": coincidence,
    "arbault": arbault,
}


def run_suite(tag: str, params: dict | None = None) -> dict:
    if tag not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise PreconditionError(f"unknown suite {tag!r}; known: {known}")
    return SUITES[tag](params)
