"""Acceptance battery.

Twelve criteria, one test and one printed PASS/FAIL line each. Expected
values marked "frozen" were measured once with an independent computation
and pinned; everything else is checked against a fresh oracle inside the
test. Each criterion carries a wall-clock budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from circlelab.circle import (
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    parse_point,
)
from circlelab.classify import check_strongly_non_dli, weakly_dli_witness_set
from circlelab.cli import envelope_bytes
from circlelab.density import lift, set_algebra
from circlelab.membership import statistical_scan
from circlelab.sequences import ArithSeq, RatioSpec
from circlelab.witness import (
    arbault_witness,
    bad_interval_family,
    certify_nonmembership,
    continuum_family_point,
    factor_u,
    nonmembership_partition,
)
from conftest import as_enclosure, as_fraction, elem_set

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))
CONST2 = ArithSeq(RatioSpec.constant(2))

CLI = [sys.executable, "-m", "circlelab.cli"]


def mod1(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


def conclude(num: int, title: str, t0: float, budget: float, failures: list):
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        failures.append(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    status = "FAIL" if failures else "PASS"
    print(f"C{num} {status} {title} [{elapsed:.2f}s]"
          + (f" :: {'; '.join(failures[:4])}" if failures else ""))
    assert not failures, f"C{num} {title}: {failures[:4]}"


def test_c01_derived_sequence_reproduction():
    t0 = time.monotonic()
    failures = []
    proc = subprocess.run(
        CLI + ["seq", "--spec", "linear:1", "--kind", "d", "--count", "7"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        failures.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
    if proc.stdout != "1,2,4,6,12,18,24\n":
        failures.append(f"stdout {proc.stdout!r}")
    conclude(1, "derived-sequence listing via CLI", t0, 1.0, failures)


def test_c02_lifting_algebra():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(20260814)
    checked = 0
    for seq in (LINEAR1, POW2, CONST2):
        d = seq.derived
        for _ in range(200):
            a = frozenset(rng.randint(1, 50) for _ in range(rng.randint(0, 10)))
            b = frozenset(rng.randint(1, 50) for _ in range(rng.randint(0, 10)))
            sa, sb = elem_set(a), elem_set(b)
            la, lb = lift(sa, d), lift(sb, d)
            pairs = (
                ("union", lift(elem_set(a | b), d)),
                ("intersect", lift(elem_set(a & b), d)),
                ("difference", lift(elem_set(a - b), d)),
            )
            for name, left in pairs:
                right = set_algebra(name, la, lb)
                if left.intervals != right.intervals:
                    failures.append(f"{name} broke on {sorted(a)}, {sorted(b)} "
                                    f"under {seq.describe()}")
            if a != b and la.intervals == lb.intervals:
                failures.append(f"injectivity broke on {sorted(a)}, {sorted(b)}")
            checked += 1
    if checked != 600:
        failures.append(f"ran {checked} pairs, wanted 600")
    conclude(2, "lifting commutes with set algebra, 200 pairs x 3 specs",
             t0, 5.0, failures)


def test_c03_tail_bound():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(1031)
    for seq in (LINEAR1, POW2):
        for _ in range(100):
            q = rng.randint(2, 10 ** 6)
            value = Fraction(rng.randint(0, q - 1), q)
            x = parse_point(f"rat:{value.numerator}/{value.denominator}", seq)
            cache = EnclosureCache(x, 0)
            for j in range(1, 31):
                a = seq.term(j - 1)
                ub = Fraction(*cache.tail_upper_bound(j))
                if ub > Fraction(1, a):
                    failures.append(f"bound {ub} > 1/a_{j - 1} for {value}")
                if mod1(a * value) / a > ub:
                    failures.append(f"bound misses the true tail for {value} at j={j}")
            if failures:
                break
        if failures:
            break
    conclude(3, "digit-tail bound <= 1/a_(j-1), 100 rationals x j <= 30",
             t0, 5.0, failures)


def test_c04_window_identity():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(733)
    for seq in (LINEAR1, POW2):
        for _ in range(40):
            digits = [rng.randint(0, seq.ratio(n) - 1) for n in range(1, 13)]
            x = CirclePoint(seq, FiniteDigits(digits))
            value = as_fraction(x)
            cache = EnclosureCache(x, 0)
            for n in range(1, 11):
                truth = mod1(seq.term(n - 1) * value)
                for t in range(0, 9):
                    J = as_enclosure(cache.frac_bound(n, t))
                    den = 1
                    for j in range(n, n + t + 1):
                        den *= seq.ratio(j)
                    if J.hi - J.lo != Fraction(1, den):
                        failures.append(f"width {J.hi - J.lo} != 1/{den} at n={n}, t={t}")
                    if not (J.lo <= truth < J.hi):
                        failures.append(f"{truth} escapes {J} at n={n}, t={t}")
            if failures:
                break
        if failures:
            break
    conclude(4, "window enclosure of {a_(n-1) x} with exact width", t0, 5.0, failures)


def test_c05_finite_support_membership():
    t0 = time.monotonic()
    failures = []
    N = 10 ** 4
    for seq in (LINEAR1, POW2):
        derived = seq.derived
        for m in range(2, 11):
            a_m = seq.term(m)
            n_m = derived.boundary(m)
            value = Fraction(1, a_m)
            # oracle sweep: exact fractional parts of every d_i / a_m
            zeros_early = 0
            for i in range(1, n_m):
                if mod1(derived.term(i) * value) == 0:
                    zeros_early += 1
            for i in range(n_m, N + 1):
                if mod1(derived.term(i) * value) != 0:
                    failures.append(
                        f"{seq.describe()}, m={m}: d_{i} x is not 0")
                    break
            scan = statistical_scan(parse_point(f"rat:1/{a_m}", seq),
                                    Fraction(1, a_m), [N])
            c = n_m - 1 - zeros_early
            want = (Fraction(c, N), Fraction(c, N))
            got = [(e.lo, e.hi) for e in scan.estimates]
            if got != [want]:
                failures.append(
                    f"{seq.describe()}, m={m}: bounds {got} != {want}")
            if failures:
                break
        if failures:
            break
    conclude(5, "1/a_m vanishes along every derived index from n_m on",
             t0, 30.0, failures)


def test_c06_strongly_non_dli_density_floor():
    t0 = time.monotonic()
    failures = []
    v = check_strongly_non_dli(POW2, Fraction(1), 30)
    if not v.holds:
        failures.append(f"growth check failed: {v.verdict}")
    if v.witness.get("density_floor") != Fraction(1, 2):
        failures.append("density floor is not alpha/(alpha+1) = 1/2")
    rng = random.Random(3571)
    floor = Fraction(45, 100)
    for _ in range(20):
        a = sorted(frozenset(rng.randint(1, 12) for _ in range(rng.randint(1, 6))))
        lifted = lift(elem_set(a), POW2.derived)
        N = POW2.derived.boundary(max(a)) - 1
        got = Fraction(lifted.count_upto(N), N)
        if got < floor:
            failures.append(f"lifted density {got} < 0.45 for A={a}")
    conclude(6, "pow-2 growth floor and lifted densities >= 0.45", t0, 30.0, failures)


def test_c07_coincidence_regime_scan():
    t0 = time.monotonic()
    failures = []
    x = parse_point("ones-on:all", POW2)
    eps = Fraction(1, 8)
    scan = statistical_scan(x, eps, [10 ** 3, 10 ** 4, 10 ** 5], depth=32)
    frozen_floor = Fraction(383, 500)  # frozen: lower bound measured at N = 10^3
    lows = [e.lo for e in scan.estimates]
    if lows[0] != frozen_floor:
        failures.append(f"floor moved: {lows[0]} != {frozen_floor}")
    for e in scan.estimates[1:]:
        if e.lo < frozen_floor / 2:
            failures.append(f"lower bound {e.lo} fell under F/2 at N={e.N}")
    # frozen regression pins for the deeper horizons
    if lows[1] != Fraction(6941, 10000) or lows[2] != Fraction(943, 1250):
        failures.append(f"deep lower bounds moved: {lows[1]}, {lows[2]}")
    for e in scan.estimates:
        if Fraction(e.undecided_count, e.N) > Fraction(1, 20):
            failures.append(f"undecided fraction above 5% at N={e.N}")

    # independent oracle: truncate x = sum 1/a_n after 60 digits and compare
    y = sum(Fraction(1, POW2.term(n)) for n in range(1, 61))
    tail = Fraction(2, POW2.term(61))
    cache = EnclosureCache(x, depth=32)
    derived = POW2.derived
    oracle_in = 0
    for i in range(1, 1001):
        k, r = derived.decompose(i)
        d_i = r * POW2.term(k)
        v = mod1(d_i * y)
        err = d_i * tail
        if min(abs(v - eps), abs(v - (1 - eps))) <= err and v not in (eps, 1 - eps):
            failures.append(f"oracle too close to the band edge at i={i}")
            break
        if eps <= v <= 1 - eps:
            oracle_in += 1
        if i <= 600:
            J = as_enclosure(cache.interval(k, r))
            if J is None or not ((J.lo - err <= v <= J.hi + err)
                                 or (J.lo - err <= v - 1 <= J.hi + err)):
                failures.append(f"enclosure at i={i} misses the oracle value")
                break
    if oracle_in != scan.estimates[0].in_count:
        failures.append(f"oracle in-count {oracle_in} != scan "
                        f"{scan.estimates[0].in_count} at N=1000")
    conclude(7, "all-ones pow-2 escape density stays above the frozen floor",
             t0, 300.0, failures)


def test_c08_weakly_dli_shrinkage():
    t0 = time.monotonic()
    failures = []
    a_set = weakly_dli_witness_set(LINEAR1, 8)
    x = continuum_family_point(a_set, (0, 1, 0), LINEAR1)
    scan = statistical_scan(x, Fraction(1, 10), [10 ** 3, 10 ** 4, 10 ** 5])
    his = [e.hi for e in scan.estimates]
    if not all(a > b for a, b in zip(his, his[1:])):
        failures.append(f"upper bounds not strictly decreasing: {his}")
    if his[-1] > Fraction(1, 20):
        failures.append(f"upper bound {his[-1]} above 0.05 at N=10^5")
    # frozen values from the first measured run
    if his != [Fraction(33, 1000), Fraction(39, 5000), Fraction(39, 50000)]:
        failures.append(f"bounds moved: {his}")
    if any(e.undecided_count for e in scan.estimates):
        failures.append("exact-mode scan reported undecided rows")
    conclude(8, "family-point escape density shrinks along the horizons",
             t0, 300.0, failures)


def test_c09_nonmembership_certification():
    t0 = time.monotonic()
    failures = []
    x = parse_point("ones-on:all", POW2)
    m0, n0, blocks = 10, 13, 14
    N = POW2.derived.boundary(blocks) - 1  # 32752
    part = nonmembership_partition(x, m0, n0, blocks)
    bad = bad_interval_family(x, part.a1, "small", m0, n0, N)
    report = certify_nonmembership(x, bad, "small", m0, n0, t=8, horizon=N)
    band_lo, band_hi = Fraction(1, m0), Fraction(9, m0)
    for row in report.rows.reports():
        if row["verdict"] == "certified" and not (
                band_lo <= Fraction(row["lo"]) and Fraction(row["hi"]) <= band_hi):
            failures.append(f"certified row {row['index']} leaves the band")
            break
    if report.violations or report.undecided:
        failures.append(f"{report.violations} violations, "
                        f"{report.undecided} undecided")
    if report.certified != 9825:  # frozen count over the 14-block horizon
        failures.append(f"certified count moved: {report.certified}")
    lifted_density = Fraction(lift(part.a1, POW2.derived).count_upto(N), N)
    threshold = Fraction(1, m0 ** 2) * lifted_density * Fraction(9, 10)
    certified_fraction = Fraction(report.certified, N)
    if certified_fraction < threshold:
        failures.append(f"certified fraction {certified_fraction} < {threshold}")
    conclude(9, "escape-band rows certified inside [1/10, 9/10]", t0, 120.0, failures)


def test_c10_aligned_digit_certification():
    t0 = time.monotonic()
    failures = []
    u_list = [LINEAR1.term(n) + LINEAR1.term(n - 1) for n in range(1, 61)]
    report = arbault_witness(LINEAR1, u_list, rows=20, depth=8)
    if len(report.rows) != 20 or report.certified != 20:
        failures.append(f"{report.certified}/{len(report.rows)} certified")
    lo, hi = Fraction(1, 4), Fraction(7, 8)
    for row in report.rows.reports():
        if not (lo <= Fraction(row["lo"]) and Fraction(row["hi"]) <= hi):
            failures.append(f"row {row['index']} enclosure outside [1/4, 7/8]")
            break
    if report.extras["existence_failures"] != 0:
        failures.append("runtime existence check failed on a selected row")
    conclude(10, "20 aligned-digit rows certified inside [1/4, 7/8]",
             t0, 60.0, failures)


def test_c11_factorization():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(907)
    for seq in (LINEAR1, POW2):
        for _ in range(500):
            u = rng.randint(1, 10 ** 9)
            k, v = factor_u(u, seq)
            if u != seq.term(k) * v or v % seq.ratio(k + 1) == 0:
                failures.append(f"bad factorization of {u} under {seq.describe()}")
                break
        if failures:
            break
    conclude(11, "u = a_k v with b_(k+1) not dividing v, 500 draws x 2 specs",
             t0, 10.0, failures)


# one serialized config per criterion; C12 replays them all
REPLAY_CONFIGS = {
    "c1": {"subcommand": "seq",
           "params": {"spec": "linear:1", "kind": "d", "count": "7"}},
    "c2": {"subcommand": "verify", "params": {"tag": "lift-algebra"}},
    "c3": {"subcommand": "verify", "params": {"tag": "tail-bound"}},
    "c4": {"subcommand": "verify", "params": {"tag": "recursion"}},
    "c5": {"subcommand": "scan",
           "params": {"spec": "linear:1", "x": "rat:1/24", "eps": "1/24",
                      "horizons": "10000"}},
    "c6": {"subcommand": "verify", "params": {"tag": "snd-density"}},
    "c7": {"subcommand": "verify", "params": {"tag": "coincidence"}},
    "c8": {"subcommand": "verify", "params": {"tag": "wdli-shrink"}},
    "c9": {"subcommand": "witness",
           "params": {"spec": "pow:2", "x": "ones-on:all", "op": "escape",
                      "case": "small", "m0": "10", "n0": "13", "blocks": "14"}},
    "c10": {"subcommand": "witness",
            "params": {"spec": "linear:1", "op": "aligned", "count": "60",
                       "rows": "20"}},
    "c11": {"subcommand": "witness",
            "params": {"spec": "linear:1", "op": "factor-batch",
                       "trials": "500", "umax": "1000000000"}},
}


def test_c12_replay_determinism(tmp_path):
    t0 = time.monotonic()
    failures = []
    for name, config in REPLAY_CONFIGS.items():
        config = json.loads(json.dumps(config))  # a genuinely re-serialized copy
        first = envelope_bytes(config)
        second = envelope_bytes(config)
        if first != second:
            failures.append(f"{name} report bytes differ between runs")
    # the seq criterion again, through a separate process
    cfg_path = tmp_path / "c1.json"
    cfg_path.write_text(json.dumps(REPLAY_CONFIGS["c1"]))
    proc = subprocess.run(CLI + ["run", "--config", str(cfg_path),
                                 "--format", "json"],
                          capture_output=True)
    if proc.stdout != envelope_bytes(REPLAY_CONFIGS["c1"]):
        failures.append("subprocess envelope differs from in-process bytes")
    conclude(12, "byte-identical reports from every serialized config",
             t0, 300.0, failures)
