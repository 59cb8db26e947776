"""The integer verdicts of the tail-bound and recursion suites.

The suites build one ``EnclosureCache`` per point and decide each row by
cross-multiplying the unreduced integers its readers ``frac_bound``,
``frac_exact`` and ``tail_upper_bound`` return. The reference loops below
are the same batteries written with ``Fraction`` comparisons on the same
readers, so a fault patched into a reader reaches both formulations.
"""

import cProfile
import hashlib
import math
import pstats
import random
from fractions import Fraction

import pytest

from circlelab import suites
from circlelab.circle import CirclePoint, EnclosureCache, FiniteDigits
from circlelab.cli import envelope_bytes
from circlelab.errors import PreconditionError
from circlelab.parse import int_param, merge_params
from circlelab.suites import plainify, run_suite
from conftest import as_enclosure, as_fraction


def _mod1(y: Fraction) -> Fraction:
    return y - (y.numerator // y.denominator)


def reference_tail_bound(params=None) -> dict:
    p = merge_params({"specs": "linear:1,pow:2", "trials": 100, "jmax": 30,
                      "qmax": 10 ** 6, "seed": 421}, params, "suite tail-bound")
    trials, jmax = suites._least(p, "trials", 1), suites._least(p, "jmax", 1)
    qmax = suites._least(p, "qmax", 2)
    rng = random.Random(int_param(p, "seed"))
    max_ratio = Fraction(0)
    rows = 0
    counterexample = None
    for spec_text in suites._spec_list(p["specs"]):
        seq = suites._seq(spec_text)
        for _ in range(trials):
            q = rng.randint(2, qmax)
            value = Fraction(rng.randint(1, q - 1), q)
            cache = suites.EnclosureCache(suites.digits_from_rational(value, seq), 0)
            for j in range(1, jmax + 1):
                a = seq.term(j - 1)
                ub = Fraction(*cache.tail_upper_bound(j))
                true_tail = _mod1(a * value) / a
                ratio = ub * a
                if ratio > max_ratio:
                    max_ratio = ratio
                if ratio > 1 or true_tail > ub:
                    counterexample = {"spec": spec_text, "x": str(value), "j": j,
                                      "upper_bound": str(ub),
                                      "true_tail": str(true_tail)}
                    break
                rows += 1
            if counterexample:
                break
        if counterexample:
            break
    return {"suite": "tail-bound", "params": plainify(p), "rows": rows,
            "max_ratio": str(max_ratio), "pass": counterexample is None,
            "counterexample": counterexample}


def reference_recursion(params=None) -> dict:
    p = merge_params({"specs": "linear:1,pow:2", "trials": 40, "tmax": 8,
                      "max_len": 10, "seed": 97}, params, "suite recursion")
    trials, tmax = suites._least(p, "trials", 1), suites._least(p, "tmax", 0)
    max_len = suites._least(p, "max_len", 1)
    rng = random.Random(int_param(p, "seed"))
    checks = 0
    counterexample = None
    for spec_text in suites._spec_list(p["specs"]):
        seq = suites._seq(spec_text)
        for _ in range(trials):
            length = rng.randint(1, max_len)
            digits = [rng.randint(0, seq.ratio(n) - 1) for n in range(1, length + 1)]
            cache = suites.EnclosureCache(CirclePoint(seq, FiniteDigits(digits)), 0)
            for n in range(1, length + 3):
                exact = Fraction(*cache.frac_exact(n))
                prev = None
                for t in range(tmax + 1):
                    bi = as_enclosure(cache.frac_bound(n, t))
                    width = Fraction(1, math.prod(
                        seq.ratio(j) for j in range(n, n + t + 1)))
                    inside = bi.lo <= exact < bi.hi
                    nested = prev is None or (prev.lo <= bi.lo and bi.hi <= prev.hi)
                    if bi.hi - bi.lo != width or not inside or not nested:
                        counterexample = {"spec": spec_text, "digits": digits,
                                          "n": n, "t": t, "exact": str(exact),
                                          "lo": str(bi.lo), "hi": str(bi.hi)}
                        break
                    prev = bi
                    checks += 1
                if counterexample:
                    break
            if counterexample:
                break
        if counterexample:
            break
    return {"suite": "recursion", "params": plainify(p), "checks": checks,
            "pass": counterexample is None, "counterexample": counterexample}


REFERENCE = {"tail-bound": reference_tail_bound, "recursion": reference_recursion}


def _outcome(suite, *args):
    """The suite's report, or the message of the PreconditionError it raises."""
    try:
        return suite(*args)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


@pytest.mark.parametrize("params", [
    None,
    {"seed": 3},
    {"seed": 7, "trials": 30, "jmax": 45},
    {"specs": "const:3,linear:2,pow:3", "trials": 25, "jmax": 20,
     "qmax": 1000, "seed": 11},
    {"specs": "const:2", "trials": 40, "jmax": 12, "qmax": 64, "seed": 5},
    {"trials": 0},
    {"jmax": 1, "qmax": 2, "trials": 5},
])
def test_tail_bound_matches_fraction_reference(params):
    # {"trials": 0} would check nothing, so both formulations refuse it
    assert (_outcome(run_suite, "tail-bound", params)
            == _outcome(reference_tail_bound, params))


@pytest.mark.parametrize("params", [
    None,
    {"seed": 3},
    {"seed": 8, "trials": 15, "tmax": 12, "max_len": 20},
    {"specs": "const:3,linear:2", "trials": 20, "tmax": 5, "seed": 5},
    {"specs": "const:2", "tmax": 0, "max_len": 1, "seed": 2},
    {"trials": 0},
])
def test_recursion_matches_fraction_reference(params):
    assert (_outcome(run_suite, "recursion", params)
            == _outcome(reference_recursion, params))


# the readers as the library defines them, for the faults to wrap
_BOUND = EnclosureCache.frac_bound
_EXACT = EnclosureCache.frac_exact
_TAIL = EnclosureCache.tail_upper_bound


def _both_fail(monkeypatch, tag, name, fake, params=None) -> dict:
    """Patch ``EnclosureCache.<name>`` with ``fake``; both formulations must
    fail alike."""
    monkeypatch.setattr(EnclosureCache, name, fake)
    report = run_suite(tag, params)
    assert report == REFERENCE[tag](params)
    assert report["pass"] is False
    return report["counterexample"]


# ----- tail-bound faults ------------------------------------------------------


def test_tail_bound_catches_a_bound_below_the_true_tail(monkeypatch):
    def quartered(self, j, t=8):
        num, den = _TAIL(self, j, t)
        return num, 4 * den

    cx = _both_fail(monkeypatch, "tail-bound", "tail_upper_bound", quartered)
    # only the domination check fires: the bound stays below 1/a_{j-1}
    assert Fraction(cx["true_tail"]) > Fraction(cx["upper_bound"])


def test_tail_bound_catches_a_bound_above_one_over_a(monkeypatch):
    def fake(self, j, t=8):
        return (2, self.x.seq.term(j - 1)) if j == 7 else _TAIL(self, j, t)

    cx = _both_fail(monkeypatch, "tail-bound", "tail_upper_bound", fake)
    assert cx["j"] == 7
    assert Fraction(cx["true_tail"]) <= Fraction(cx["upper_bound"])


@pytest.mark.parametrize("edge", ["true-tail", "one-over-a"])
def test_tail_bound_accepts_its_edge_cases(monkeypatch, edge):
    # a bound equal to the true tail, or to 1/a_{j-1}, is not a violation
    def fake(self, j, t=8):
        a = self.x.seq.term(j - 1)
        if edge == "one-over-a":
            return 1, a
        value = as_fraction(self.x)
        p, q = value.numerator, value.denominator
        return a * p % q, q * a  # {a_{j-1} x} / a_{j-1}, unreduced

    monkeypatch.setattr(EnclosureCache, "tail_upper_bound", fake)
    params = {"trials": 20, "seed": 9}
    report = run_suite("tail-bound", params)
    assert report == reference_tail_bound(params)
    assert report["pass"] is True
    if edge == "one-over-a":
        assert report["max_ratio"] == "1"
    else:
        assert Fraction(report["max_ratio"]) < 1


# ----- recursion faults -------------------------------------------------------


def _shifted(self, n, t):
    # a full width off, onto a neighbour inside its parent (b_{n+3} >= 2
    # gives it one): the right width and nested, but the exact value falls
    # outside
    lo, hi, den = _BOUND(self, n, t)
    w = hi - lo
    if t == 3:
        _, phi, pden = _BOUND(self, n, t - 1)
        up = (hi + w) * pden <= phi * den
        return (lo + w, hi + w, den) if up else (lo - w, hi - w, den)
    return lo, hi, den


def _ends_at_exact(self, n, t):
    # moved down, inside its parent, until its upper end is the exact value,
    # which the half-open enclosure [lo, hi) then leaves out; over den * ed
    # the shift is hi * ed - en * den
    lo, hi, den = _BOUND(self, n, t)
    if t == 0:
        return lo, hi, den
    en, ed = _EXACT(self, n)
    low = lo * ed - hi * ed + en * den
    plo, _, pden = _BOUND(self, n, t - 1)
    if low * pden >= plo * den * ed:
        return low, en * den, den * ed
    return lo, hi, den


def _widened(self, n, t):
    lo, hi, den = _BOUND(self, n, t)
    w = hi - lo
    if t == 2:
        return (lo - w, hi, den) if lo >= w else (lo, hi + w, den)
    return lo, hi, den


def _non_nested(self, n, t):
    # moves an enclosure that starts or ends where its parent does across
    # that end by less than the distance to the exact value, so it keeps its
    # width and still holds the exact value; the half shift is taken over
    # 2 * den * ed
    lo, hi, den = _BOUND(self, n, t)
    if t == 0:
        return lo, hi, den
    plo, phi, pden = _BOUND(self, n, t - 1)
    en, ed = _EXACT(self, n)
    if lo * pden == plo * den and lo > 0:
        shift = -min(hi * ed - en * den, lo * ed)
    elif hi * pden == phi * den and hi < den and en * den > lo * ed:
        shift = min(en * den - lo * ed, (den - hi) * ed)
    else:
        return lo, hi, den
    return 2 * lo * ed + shift, 2 * hi * ed + shift, 2 * den * ed


def _check_counterexample(cx, check):
    lo, hi, exact = Fraction(cx["lo"]), Fraction(cx["hi"]), Fraction(cx["exact"])
    seq = suites._seq(cx["spec"])
    n, t = cx["n"], cx["t"]
    width = Fraction(1, math.prod(seq.ratio(j) for j in range(n, n + t + 1)))
    # each fault breaks exactly the check it is named after
    assert (hi - lo == width) is (check != "width")
    assert (lo <= exact < hi) is (check != "inside")
    if check == "nested":
        assert t >= 1


@pytest.mark.parametrize("fake, check", [
    (_shifted, "inside"), (_ends_at_exact, "inside"), (_widened, "width"),
    (_non_nested, "nested"),
])
def test_recursion_catches_a_bad_enclosure(monkeypatch, fake, check):
    _check_counterexample(_both_fail(monkeypatch, "recursion", "frac_bound", fake),
                          check)


def test_recursion_catches_a_moved_exact_value(monkeypatch):
    # the exact value one unit of its denominator too high leaves the
    # enclosures that pin it
    def moved(self, n):
        en, ed = _EXACT(self, n)
        return en + 1, ed

    _check_counterexample(_both_fail(monkeypatch, "recursion", "frac_exact", moved),
                          "inside")


def test_recursion_refuses_an_enclosure_outside_the_unit_interval(monkeypatch):
    # the range check 0 <= lo <= hi <= den comes before any verdict, and both
    # formulations raise the same PreconditionError for it
    def above(self, n, t):
        lo, hi, den = _BOUND(self, n, t)
        return (lo + den, hi + den, den) if t == 1 else (lo, hi, den)

    monkeypatch.setattr(EnclosureCache, "frac_bound", above)
    outcome = _outcome(run_suite, "recursion")
    assert outcome == _outcome(reference_recursion)
    assert outcome.startswith("PreconditionError: invalid enclosure [")


def _fractions_built(tag, params=None) -> int:
    """How many times ``Fraction.__new__`` runs in one run of the suite."""
    profiler = cProfile.Profile()
    profiler.runcall(run_suite, tag, params)
    return sum(calls for (path, _, name), (_, calls, *_) in
               pstats.Stats(profiler).stats.items()
               if name == "__new__" and path.endswith("fractions.py"))


@pytest.mark.parametrize("tag, points, rows_key", [
    ("tail-bound", 200, "jmax"),  # 2 specs x 100 trials, 30 rows each
    ("recursion", 80, "tmax"),  # 2 specs x 40 trials, 9 depths per start
])
def test_suites_build_no_fraction_per_row(tag, points, rows_key):
    # a few Fractions per point (the rational point itself) and the report's
    # max_ratio; a run with one row per start builds exactly as many
    built = _fractions_built(tag)
    assert built <= 2 * points + 4
    assert _fractions_built(tag, {rows_key: 1 if rows_key == "jmax" else 0}) == built


@pytest.mark.parametrize("tag", list(suites.SUITES))
def test_every_suite_shares_the_report_skeleton(tag):
    # each suite refuses a param it does not read before it runs, and
    # reports suite and params first, then pass and the first counterexample;
    # the reported params are every param it read, so they replay the report
    with pytest.raises(PreconditionError, match=f"^suite {tag} does not read 'nope'$"):
        run_suite(tag, {"nope": 1})
    report = run_suite(tag)
    assert list(report)[:2] == ["suite", "params"]
    assert list(report)[-2:] == ["pass", "counterexample"]
    assert report["suite"] == tag
    assert report["pass"] == (report["counterexample"] is None)
    assert run_suite(tag, report["params"]) == report


# ----- golden envelopes -------------------------------------------------------

# SHA-256 of the canonical envelope bytes (``envelope_bytes``) of every verify
# tag at its defaults, and of the seeded tags at seed=3
GOLDEN = {
    ("lift-algebra", None): "e496f0f56e0a68320ed29eeb1390d6084629378941dac09517db01d909a5da55",
    ("tail-bound", None): "c9841a6fc96711ef362b9233e857a6fa7b901095e0945c044078da4c9e1db07e",
    ("recursion", None): "64473817814536450d1e27d4c7598a9087f62bc98f51139b31a1fb79dfe9e14a",
    ("snd-density", None): "7652dd29096b9db421a9a75b880a583790fdbef578614a7767989e44bbc9dfae",
    ("wdli-shrink", None): "8c89d11578462766bc73c22fb917f0bc44859fd1935779462d704c56d1dde187",
    ("coincidence", None): "f08b5686504c74328d040233e9eb9648f5c365a62fc115b2726758af40935619",
    ("arbault", None): "a4ea91b71a688241d2d382d50c51e9de408af12185c4d4da321975c4610ab3ec",
    ("lift-algebra", 3): "6e80b6ebf3d173d90b9c824393af78f6fe3823fb54c890b1c8ebf743d7d1c0d8",
    ("tail-bound", 3): "c4b5cd157f6baf4c9e60f51129e4dc5aef44ebbab9a89b4a5130d77d73b4638b",
    ("recursion", 3): "9e64e0a16d0c2fdd716714ae44f974d7545f0b7cde2dd8b81f8fbedc14c61322",
    ("snd-density", 3): "9bf23e7be4e9f73708b07004759d5d6f21a34dc33cebf86bab80e68fde1f17d3",
}


@pytest.mark.parametrize("tag, seed", list(GOLDEN))
def test_verify_envelope_is_pinned(tag, seed):
    params = {"tag": tag}
    if seed is not None:
        params["param"] = [f"seed={seed}"]
    body = envelope_bytes({"subcommand": "verify", "params": params})
    assert hashlib.sha256(body).hexdigest() == GOLDEN[tag, seed]


# SHA-256 of the canonical envelope bytes of scan and witness configs: the
# seed-0 benchmark scans and escape witness, indicator points of lifted,
# shifted and finite sets, and rational points, non-terminating and
# terminating
def _scan(spec, x, horizons, depth, **extra):
    return {"subcommand": "scan", "params": {"spec": spec, "x": x, "eps": "1/8",
                                             "horizons": horizons, "depth": depth,
                                             **extra}}


def _witness(op, x, **extra):
    return {"subcommand": "witness", "params": {"spec": "pow:2", "x": x, "op": op,
                                                **extra}}


GOLDEN_RUNS = [
    (_scan("pow:2", "ones-on:all", "10000,100000,1000000", "32"),
     "67f28b8de6161b04baa9d81351a8ed4b6cd87952c6e4bbbca1d7c69cff8a6118"),
    (_scan("const:3", "ones-on:squares", "10000,50000", "64"),
     "815319f5de0c33f797d06230e5337d387e48c963523d3a856a9d0f62a8fc52be"),
    (_witness("escape", "ones-on:all", case="small", m0="10", n0="13", blocks="17"),
     "b0914bded48322ff01ab293b7564ed6e084758567cad0947b6055ccbd8fae3a7"),
    (_scan("const:3", "ones-on:lift(squares)", "1000,5000", "32"),
     "7a70f9c762829e27fa94c3982fec06d6a968b729cf4abbaaa311cd42e1d32308"),
    (_scan("const:3", "ones-on:shift(blocks:cube-gap,2)", "1000,5000", "32"),
     "ac5ab4bddf1faaa5c2b90255b3a4d49a599f559857ccf99b786ca0ad6016de2e"),
    (_scan("const:3", "ones-on:fin:{3,5}", "1000,5000", "32"),
     "35a0858e174c2a9cc9129f9831e9c94cfc0ae80f7d8238acd02efb783a1e14c3"),
    (_witness("partition", "ones-on:lift(squares)"),
     "668d9164ccf2e79b5a962a9a5947023b3f4b5006195b738a0d35ef292b2d6174"),
    (_witness("escape", "ones-on:lift(squares)"),
     "719d45b147047aee3c05c148e5ea303801b8207df55226a39e6ad96ee53b52ad"),
    (_witness("partition", "ones-on:shift(blocks:cube-gap,2)"),
     "6dc97857ab2cacfcb8a4ab864c47c64e5b220f9589751671007f4cbd461347f6"),
    (_witness("escape", "ones-on:shift(blocks:cube-gap,2)"),
     "489a0f6a7dbf8b8ca3dabedcb328bbddff94dd9b828b57cf62dcbd3a997bc654"),
    # the README example: 1/6 terminates under linear:1
    ({"subcommand": "scan", "params": {"spec": "linear:1", "x": "rat:1/6",
                                       "eps": "1/10", "horizons": "100"}},
     "17c02f4a9618d581eff7806f92c3328e685681fb64490eed1a8ca7666fe13547"),
    (_scan("pow:2", "rat:1/3", "1000,100000", "16", expand="12"),
     "886d8db71a30563e5c7a2ddfd0728739afe454cda1473bfffa513eddcde59421"),
    (_scan("const:3", "rat:2/7", "1000,20000", "16", expand="40"),
     "81954fd2fb28dd27765c4ff3441b9f33d0ce23b10aec5c4be5f511d205560e09"),
    (_scan("dlictrex:3", "rat:1/3", "1000,10000", "16"),
     "9ae163e0b14a2d7a0b4677cf936e79b0c6662d9cfab3ef90aa3c661b456c8166"),
    (_scan("pow:2", "rat:5/8", "1000,100000", "16"),
     "93655881355081ad6016c1d13cac3bcc19fe29792c6a0551d9112f1df309af54"),
    # 1/263 does not terminate within the default horizon 256, and is exact;
    # 1/257 terminates there, as 257 first divides a_256 = 257!
    (_scan("linear:1", "rat:1/263", "1000,10000", "8"),
     "33588448560f7e0a204aa8ae6fc0b596ea0b085d70df93174a4feb2ab1a44dee"),
    (_scan("linear:1", "rat:1/257", "1000,10000", "8"),
     "c933e5dbc1617b0c26952e47b9c580966bf25f0d798cea0347beea5924e4da63"),
    # aligned-digit rows, whose exact enclosures are written from integer
    # windows: 5 rows under const:3 and 10 under pow:3, of --count 20
    ({"subcommand": "witness", "params": {"spec": "const:3", "op": "aligned",
                                          "count": "20"}},
     "b9d2cebde3735ffae10527a6cb328ca94c18cdbe2e462e02caf7bf187f9da8ec"),
    ({"subcommand": "witness", "params": {"spec": "pow:3", "op": "aligned",
                                          "count": "20"}},
     "3971dd566e83d5b4c6cb2c7f7c9239b7605693703c07023139c771367528e60c"),
]


def _run_id(config):
    p = config["params"]
    return f"{config['subcommand']}-{p.get('op', p['spec'])}-{p.get('x', p['spec'])}"


@pytest.mark.parametrize("config, digest", GOLDEN_RUNS,
                         ids=[_run_id(c) for c, _ in GOLDEN_RUNS])
def test_run_envelope_is_pinned(config, digest):
    assert hashlib.sha256(envelope_bytes(config)).hexdigest() == digest
