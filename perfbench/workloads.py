"""Workload inputs, expected outputs and output checks.

Each workload is a list of circlelab configs, one per cold process in a
round, made from the workload seed. Seed 0 gives exactly the command lines
the benchmark was defined with; other seeds perturb the inputs (the band
``eps = 1/q`` of the scans, ``m0`` of the escape witness, the ``seed``
parameter of the suites) while keeping the number of rows the same.

Checks that hold for every seed:
  * scans: in + out + undecided = N at each horizon, and the first 1000
    rows agree row by row with a direct ``Fraction`` oracle built from the
    truncated digit expansion;
  * witness: violations = 0 and certified + violations + undecided equals
    the number of bad-interval rows counted independently here;
  * verify: every suite passes.
Counts are also compared with the outputs recorded when the benchmark was
defined (``EXPECTED``), for every band the seeds can draw.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SUITE_TAGS = ("lift-algebra", "tail-bound", "recursion", "snd-density",
              "wdli-shrink", "coincidence", "arbault")
# suites that draw their inputs from a "seed" parameter
SEEDED_SUITES = ("lift-algebra", "tail-bound", "recursion", "snd-density")

ORACLE_ROWS = 1000


@dataclass(frozen=True)
class Scan:
    spec: str
    point: str
    depth: int
    horizons: tuple[int, ...]
    tiny_horizons: tuple[int, ...]
    scaling: tuple[int, ...]
    tiny_scaling: tuple[int, ...]
    ratio: Callable[[int], int]   # b_n, for the oracle
    digit: Callable[[int], int]   # c_n, for the oracle


SCANS = {
    # ~20 huge blocks: per-row band work dominates
    "scan-fewblocks": Scan("pow:2", "ones-on:all", 32,
                           (10 ** 4, 10 ** 5, 10 ** 6), (1000,),
                           (10 ** 4, 10 ** 5, 10 ** 6), (500, 1000),
                           lambda n: 2 ** n, lambda n: 1),
    # 25,000 two-row blocks: rebuilding the digit window per block dominates
    "scan-manyblocks": Scan("const:3", "ones-on:squares", 64,
                            (10 ** 4, 5 * 10 ** 4), (1000,),
                            (10 ** 4, 2 * 10 ** 4, 5 * 10 ** 4, 10 ** 5),
                            (500, 1000),
                            lambda n: 3, lambda n: int(math.isqrt(n) ** 2 == n)),
}
WORKLOADS = ("scan-fewblocks", "scan-manyblocks", "witness-escape", "verify-all")

# Outputs recorded when the benchmark was defined. Scans: (in, out, undecided)
# by band denominator q and horizon N. Witness: (certified, violations,
# undecided) by the seed-0 block count; every seed certifies the same rows.
EXPECTED = {
    "scan-fewblocks": {
        6: {1000: (677, 323, 0), 10 ** 4: (5911, 4089, 0),
            10 ** 5: (67241, 32759, 0), 10 ** 6: (699040, 300960, 0)},
        7: {1000: (727, 273, 0), 10 ** 4: (6498, 3502, 0),
            10 ** 5: (71924, 28076, 0), 10 ** 6: (748975, 251025, 0)},
        8: {1000: (766, 234, 0), 10 ** 4: (6941, 3059, 0),
            10 ** 5: (75440, 24560, 0), 10 ** 6: (786430, 213570, 0)},
        9: {1000: (792, 208, 0), 10 ** 4: (7278, 2722, 0),
            10 ** 5: (78166, 21834, 0), 10 ** 6: (815551, 184449, 0)},
        10: {1000: (813, 187, 0), 10 ** 4: (7549, 2451, 0),
             10 ** 5: (80348, 19652, 0), 10 ** 6: (838850, 161150, 0)},
        11: {1000: (833, 167, 0), 10 ** 4: (7774, 2226, 0),
             10 ** 5: (82137, 17863, 0), 10 ** 6: (857024, 142976, 0)},
        12: {1000: (847, 153, 0), 10 ** 4: (7959, 2041, 0),
             10 ** 5: (83624, 16376, 0), 10 ** 6: (868938, 131062, 0)},
    },
    "scan-manyblocks": {
        **{q: {1000: (65, 935, 0), 10 ** 4: (209, 9791, 0),
               5 * 10 ** 4: (473, 49527, 0)} for q in (6, 7, 8)},
        **{q: {1000: (86, 914, 0), 10 ** 4: (278, 9722, 0),
               5 * 10 ** 4: (630, 49370, 0)} for q in (9, 10, 11, 12)},
    },
    "witness-escape": {17: (78638, 0, 0), 12: (2453, 0, 0)},
}

ESCAPE_BLOCKS, ESCAPE_TINY_BLOCKS = 17, 12


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def scan_eps(seed: int) -> Fraction:
    """Band edge 1/q; q = 8 at seed 0. Rows and blocks do not depend on q."""
    if seed == 0:
        return Fraction(1, 8)
    return Fraction(1, _rng(seed, "eps").choice((6, 7, 9, 10, 11, 12)))


def scan_config(name: str, eps: Fraction, horizons) -> dict:
    s = SCANS[name]
    return {"subcommand": "scan",
            "params": {"spec": s.spec, "x": s.point, "eps": str(eps),
                       "horizons": ",".join(str(h) for h in horizons),
                       "depth": str(s.depth)}}


# ----- escape witness: pow:2, ones-on:all, case small --------------------------
# b_k = 2^k and c_k = 1, so the bad rows of block k are counted in closed form.


def _boundary(k: int) -> int:
    """n_k = 1 + sum_{j<=k} (2^j - 1), the derived index of a_k under pow:2."""
    return 1 + sum(2 ** j - 1 for j in range(1, k + 1))


def escape_rows(m0: int, blocks: int, horizon: int | None = None) -> int:
    """Rows of the small-case bad-interval family, counted independently.

    The working set is {2, 3, ...} (c_1 = 1 = b_1 - 1 is quasi-support); its
    small branch is {k : 1/2^k < 1/m0}. Block k contributes the derived
    indices n_{k-1} + [2^k // m0, 4 * 2^k // m0 - 1], clipped to the horizon.
    """
    if horizon is None:
        horizon = _boundary(blocks) - 1
    total = 0
    for k in range(2, blocks + 1):
        if 2 ** k <= m0:
            continue
        base = _boundary(k - 1)
        lo = base + 2 ** k // m0
        hi = min(base + 4 * 2 ** k // m0 - 1, _boundary(k) - 1, horizon)
        total += max(0, hi - lo + 1)
    return total


def escape_params(seed: int, tiny: bool) -> dict:
    """Seed 0: m0 = 10 over 17 blocks. Other seeds: m0 in [11, 15] over 18
    blocks, with the horizon cut so the row count equals seed 0's."""
    blocks = ESCAPE_TINY_BLOCKS if tiny else ESCAPE_BLOCKS
    params = {"spec": "pow:2", "x": "ones-on:all", "op": "escape",
              "case": "small", "m0": "10", "n0": "13", "blocks": str(blocks)}
    if seed == 0:
        return params
    m0 = _rng(seed, "m0").randint(11, 15)
    target = escape_rows(10, blocks)
    extra = target - escape_rows(m0, blocks)
    # first bad row of block blocks + 1
    start = _boundary(blocks) + 2 ** (blocks + 1) // m0
    params.update({"m0": str(m0), "blocks": str(blocks + 1),
                   "horizon": str(start + extra - 1)})
    return params


def configs(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The configs of one round of workload ``name``."""
    if name in SCANS:
        s = SCANS[name]
        return [scan_config(name, scan_eps(seed),
                            s.tiny_horizons if tiny else s.horizons)]
    if name == "witness-escape":
        return [{"subcommand": "witness", "params": escape_params(seed, tiny)}]
    if name == "verify-all":
        out = []
        for tag in SUITE_TAGS:
            params = {"tag": tag}
            if seed and tag in SEEDED_SUITES:
                params["param"] = [f"seed={seed}"]
            out.append({"subcommand": "verify", "params": params})
        return out
    raise ValueError(f"unknown workload {name!r}")


# ----- checks -----------------------------------------------------------------


def scan_counts(report: dict) -> dict[int, tuple[int, int, int]]:
    return {b["N"]: (b["in"], b["out"], b["undecided"]) for b in report["bounds"]}


def check(name: str, config: dict, report: dict,
          expected: dict | None = None) -> tuple[list[str], int, int]:
    """Errors in one process's report, plus its (decided, attempted) rows."""
    expected = EXPECTED if expected is None else expected
    errors: list[str] = []
    if name in SCANS:
        counts = scan_counts(report)
        want_h = [int(h) for h in config["params"]["horizons"].split(",")]
        if sorted(counts) != want_h:
            errors.append(f"horizons {sorted(counts)} != {want_h}")
        q = Fraction(config["params"]["eps"]).denominator
        for N, got in counts.items():
            if sum(got) != N:
                errors.append(f"in+out+undecided != N at N={N}")
            ref = expected.get(name, {}).get(q, {}).get(N)
            if ref is not None and ref != got:
                errors.append(f"eps=1/{q} N={N}: {got} != recorded {ref}")
        last = counts.get(max(want_h), (0, 0, 0))
        return errors, last[0] + last[1], max(want_h)
    if name == "witness-escape":
        p = config["params"]
        c = report["counts"]
        got = (c["certified"], c["violations"], c["undecided"])
        horizon = int(p["horizon"]) if "horizon" in p else None
        rows = escape_rows(int(p["m0"]), int(p["blocks"]), horizon)
        if c["violations"]:
            errors.append(f"{c['violations']} violation rows")
        if sum(got) != rows or c["rows"] != rows:
            errors.append(f"{sum(got)} rows reported, {rows} bad rows expected")
        seed0_blocks = int(p["blocks"]) - (horizon is not None)
        ref = expected.get(name, {}).get(seed0_blocks)
        if ref is not None and ref != got:
            errors.append(f"counts {got} != recorded {ref}")
        return errors, got[0] + got[1], rows
    if name == "verify-all":
        if report.get("pass") is not True:
            errors.append(f"suite {report.get('suite')} failed: "
                          f"{report.get('counterexample')}")
        return errors, int(report.get("pass") is True), 1
    raise ValueError(f"unknown workload {name!r}")


def oracle_verdicts(name: str, eps: Fraction, rows: int = ORACLE_ROWS) -> list[str]:
    """Row verdicts "in"/"out" for i <= rows from the truncated expansion.

    y = sum_{n <= T} c_n / a_n differs from x by a tail in [0, 1/a_T), so
    {d_i x} lies in [v, v + d_i / a_T) with v = {d_i y}. T doubles until no
    band edge falls inside that interval for any row.
    """
    s = SCANS[name]
    a = [1]                      # a_k
    bounds = [1]                 # n_k
    while bounds[-1] <= rows:
        k = len(bounds)
        bounds.append(bounds[-1] + s.ratio(k) - 1)
    decomposition = []
    for i in range(1, rows + 1):
        k = bisect_right(bounds, i) - 1
        decomposition.append((k, i - bounds[k] + 1))
    T = len(bounds) + 64
    lo, hi = eps, 1 - eps
    while True:
        while len(a) <= T:
            a.append(a[-1] * s.ratio(len(a)))
        y = sum((Fraction(s.digit(n), a[n]) for n in range(1, T + 1)), Fraction(0))
        verdicts = []
        for k, r in decomposition:
            d = r * a[k]
            v = d * y
            v -= v.numerator // v.denominator
            err = Fraction(d, a[T])
            if lo <= v and v + err <= hi:
                verdicts.append("in")
            elif v + err <= lo or (hi < v and v + err <= 1 + lo):
                verdicts.append("out")
            else:
                break
        else:
            return verdicts
        T *= 2


def oracle_config(name: str, seed: int) -> dict:
    """A scan whose horizons 1..ORACLE_ROWS give the verdict of every row."""
    return scan_config(name, scan_eps(seed), range(1, ORACLE_ROWS + 1))


def check_oracle(name: str, seed: int, report: dict) -> list[str]:
    counts = scan_counts(report)
    want = oracle_verdicts(name, scan_eps(seed))
    prev = (0, 0, 0)
    for i, verdict in enumerate(want, start=1):
        cur = counts.get(i)
        if cur is None:
            return [f"oracle scan is missing horizon {i}"]
        got = ("in" if cur[0] > prev[0] else "out" if cur[1] > prev[1]
               else "undecided")
        if got != verdict:
            return [f"row {i}: scan says {got}, oracle says {verdict}"]
        prev = cur
    return []
