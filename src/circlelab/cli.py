"""Command line front end.

One executable, subcommand per operation, two output styles: a terse line
for interactive use and a canonical JSON envelope for artifacts. The
envelope embeds the config and the library version; identical configs
produce byte-identical envelopes, which is what the replay checks assert.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .circle import CirclePoint, parse_point
from .classify import (
    check_b_bounded,
    check_strongly_non_dli,
    check_weakly_dli_condition,
    weakly_dli_witness_set,
    witness_recursion,
)
from .density import lift, parse_set_expr
from .errors import CircleLabError, PreconditionError, SpecParseError
from .membership import convergence_verdict, finite_support_member, statistical_scan
from .parse import fraction, integer, integers
from .sequences import ArithSeq, RatioSpec
from .suites import plainify, run_suite
from .witness import (
    arbault_witness,
    bad_interval_family,
    certify_nonmembership,
    continuum_family_point,
    factor_u,
    nonmembership_partition,
)
from . import __version__


def canonical_json(obj) -> bytes:
    return (json.dumps(plainify(obj), sort_keys=True,
                       separators=(",", ":")) + "\n").encode("ascii")


def _seq_of(params: dict) -> ArithSeq:
    spec = params.get("spec")
    if not spec:
        raise SpecParseError("--spec is required")
    return ArithSeq(RatioSpec.parse(str(spec)))


def _point_of(params: dict, seq: ArithSeq) -> CirclePoint:
    rule = params.get("x")
    if not rule:
        raise SpecParseError("--x is required")
    return parse_point(str(rule), seq, _int(params, "expand", 256))


def _int(params: dict, key: str, default) -> int:
    """params[key] (or the default) as an int; SpecParseError when it is not one."""
    return integer(str(params.get(key, default)), key)


def _frac(params: dict, key: str, default) -> Fraction:
    """params[key] (or the default) as a Fraction; SpecParseError when it is not one."""
    return fraction(str(params.get(key, default)), key)


def _ints(params: dict, key: str, default) -> list[int]:
    """params[key] (or the default) as a comma-separated list of ints."""
    return integers(str(params.get(key, default)), key)


def _runs(values) -> str:
    """Render an increasing integer stream as [a,b]+[c,d]."""
    runs = []
    for v in values:
        if runs and v == runs[-1][1] + 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    if not runs:
        return "[]"
    return "+".join(f"[{a},{b}]" if a != b else f"[{a},{a}]" for a, b in runs)


# ===== Subcommand handlers ===================================================
# Each takes the params dict and returns (terse, report, fail_message).


def _cmd_seq(params: dict):
    seq = _seq_of(params)
    kind = str(params.get("kind", "d"))
    count = _int(params, "count", 10)
    if count < 1:
        raise PreconditionError("--count must be >= 1")
    if kind == "d":
        values = [seq.derived.term(i) for i in range(1, count + 1)]
    elif kind == "a":
        values = [seq.term(k) for k in range(count)]
    elif kind == "b":
        values = [seq.ratio(n) for n in range(1, count + 1)]
    elif kind == "n":
        values = [seq.derived.boundary(k) for k in range(count)]
    else:
        raise SpecParseError(f"--kind must be one of a,b,d,n, got {kind!r}")
    terse = ",".join(str(v) for v in values)
    return terse, {"kind": kind, "count": count, "values": values}, None


def _cmd_lift(params: dict):
    seq = _seq_of(params)
    expr = params.get("set")
    if not expr:
        raise SpecParseError("--set is required")
    s = parse_set_expr(str(expr), seq)
    lifted = lift(s, seq.derived)
    horizon = _int(params, "horizon", 1000)
    try:
        intervals = lifted.to_intervals()
        clipped = False
    except PreconditionError:
        intervals = None
        clipped = True
    if intervals is None:
        terse = _runs(lifted.iter_upto(horizon))
        report = {"set": str(expr), "prefix": terse, "horizon": horizon,
                  "clipped": True}
    else:
        terse = "+".join(f"[{a},{b}]" for a, b in intervals) or "[]"
        report = {"set": str(expr), "intervals": [list(iv) for iv in intervals],
                  "clipped": False}
    return terse, report, None


def _cmd_scan(params: dict):
    seq = _seq_of(params)
    x = _point_of(params, seq)
    eps = _frac(params, "eps", "1/10")
    horizons = _ints(params, "horizons", "1000")
    cap = _int(params, "cap", None) if params.get("cap") is not None else None
    scan = statistical_scan(x, eps, horizons, _int(params, "depth", 8), cap)
    verdict = convergence_verdict(scan)
    terse = "\n".join(f"{e.lo},{e.hi}" for e in scan.estimates)
    report = scan.to_report()
    report["verdict"] = verdict
    return terse, report, None


def _cmd_classify(params: dict):
    seq = _seq_of(params)
    check = str(params.get("check", ""))
    if check == "b-bounded":
        s = parse_set_expr(str(params.get("set", "all")), seq)
        v = check_b_bounded(seq, s, _int(params, "bound", 2),
                            _int(params, "horizon", 100))
    elif check == "snd":
        v = check_strongly_non_dli(seq, _frac(params, "alpha", 1),
                                   _int(params, "horizon", 30))
    elif check == "wdli":
        v = check_weakly_dli_condition(
            seq, _int(params, "horizon", 1000),
            _frac(params, "threshold", "1/100"))
    elif check == "witness-set":
        u, trace = witness_recursion(seq, _int(params, "jmax", 8),
                                     _int(params, "scan_limit", 10 ** 6))
        # the witness set is {u_j + 1}; u is strictly increasing
        elems = [v + 1 for v in u]
        report = {"check": check, "elements": elems, "recursion": u,
                  "trace": plainify(trace)}
        return ",".join(str(e) for e in elems), report, None
    elif check == "member":
        x = _point_of(params, seq)
        mv = finite_support_member(x)
        return mv.status, {"check": check, **mv.to_report()}, None
    else:
        raise SpecParseError(
            "--check must be one of b-bounded, snd, wdli, witness-set, member")
    return v.verdict, {"check": check, **plainify(v.to_report())}, None


def _cmd_witness(params: dict):
    seq = _seq_of(params)
    op = str(params.get("op", ""))
    if op == "factor":
        u = _int(params, "u", 0)
        k, v = factor_u(u, seq)
        return f"{k},{v}", {"op": op, "u": u, "k": k, "v": v}, None
    if op == "factor-batch":
        rng = random.Random(_int(params, "seed", 907))
        trials = _int(params, "trials", 500)
        umax = _int(params, "umax", 10 ** 9)
        rows = []
        bad = None
        for _ in range(trials):
            u = rng.randint(1, umax)
            k, v = factor_u(u, seq)
            ok = (u == seq.term(k) * v) and (v % seq.ratio(k + 1) != 0)
            rows.append({"u": u, "k": k, "v": v, "ok": ok})
            if not ok and bad is None:
                bad = rows[-1]
        report = {"op": op, "trials": trials, "umax": umax,
                  "all_ok": bad is None, "rows": rows[:50], "bad": bad}
        terse = f"ok={sum(1 for r in rows if r['ok'])}/{trials}"
        return terse, report, None if bad is None else f"factorization failed: {bad}"
    if op == "family":
        a_set = weakly_dli_witness_set(seq, _int(params, "jmax", 8),
                                       _int(params, "scan_limit", 10 ** 6))
        zeta = tuple(_ints(params, "zeta", "0,1,0"))
        x = continuum_family_point(a_set, zeta, seq)
        support = [n for n in range(1, (x.finite_support_max() or 0) + 1)
                   if x.digit(n)]
        report = {"op": op, "zeta": list(zeta), "support": support,
                  "point": x.describe()}
        return ",".join(str(n) for n in support), report, None
    if op == "partition":
        x = _point_of(params, seq)
        part = nonmembership_partition(x, _int(params, "m0", 10),
                                       _int(params, "n0", 13),
                                       _int(params, "blocks", 14))
        h = _int(params, "blocks", 14)
        report = {"op": op, "branch": part.branch,
                  "a1": list(part.a1.iter_upto(h)),
                  "a2": list(part.a2.iter_upto(h)),
                  "a3": list(part.a3.iter_upto(h))}
        terse = (f"branch={part.branch},a1={part.a1.count_upto(h)},"
                 f"a2={part.a2.count_upto(h)},a3={part.a3.count_upto(h)}")
        return terse, report, None
    if op == "escape":
        x = _point_of(params, seq)
        m0 = _int(params, "m0", 10)
        n0 = _int(params, "n0", 13)
        blocks = _int(params, "blocks", 14)
        case = str(params.get("case", "small"))
        part = nonmembership_partition(x, m0, n0, blocks)
        branch = part.a1 if case == "small" else part.a2
        horizon = params.get("horizon")
        n_limit = (_int(params, "horizon", None) if horizon is not None
                   else seq.derived.boundary(blocks) - 1)
        bad = bad_interval_family(x, branch, case, m0, n0, n_limit)
        rep = certify_nonmembership(x, bad, case, m0, n0,
                                    _int(params, "depth", 8), n_limit)
        certified_fraction = Fraction(rep.certified, n_limit)
        branch_density = Fraction(
            lift(branch, seq.derived).count_upto(n_limit), n_limit)
        doc = rep.to_report()
        failures = [r for r in doc["rows"] if r["verdict"] != "certified"]
        doc["rows"] = doc["rows"][:200]
        doc["failures"] = failures
        doc.update({"op": op, "horizon": n_limit,
                    "certified_fraction": str(certified_fraction),
                    "branch_density": str(branch_density)})
        terse = (f"certified={rep.certified},violations={rep.violations},"
                 f"undecided={rep.undecided}")
        fail = None
        if rep.violations:
            fail = f"certification produced {rep.violations} violation rows"
        return terse, doc, fail
    if op == "aligned":
        count = _int(params, "count", 60)
        if params.get("u_list") is not None:
            u_list = _ints(params, "u_list", None)
        else:
            u_list = [seq.term(n) + seq.term(n - 1) for n in range(1, count + 1)]
        rep = arbault_witness(seq, u_list, rows=_int(params, "rows", 20),
                              depth=_int(params, "depth", 8))
        doc = rep.to_report()
        doc["op"] = op
        terse = (f"certified={rep.certified},violations={rep.violations},"
                 f"undecided={rep.undecided},"
                 f"skipped={rep.extras.get('skipped', 0)}")
        fail = None
        if rep.violations or rep.undecided:
            fail = "aligned-digit rows failed certification"
        return terse, doc, fail
    raise SpecParseError(
        "--op must be one of factor, factor-batch, family, partition, "
        "escape, aligned")


def _cmd_verify(params: dict):
    tag = str(params.get("tag", ""))
    overrides = {}
    for entry in params.get("param") or []:
        key, sep, val = str(entry).partition("=")
        if not sep:
            raise SpecParseError(f"--param needs key=value, got {entry!r}")
        overrides[key] = val
    report = run_suite(tag, overrides)
    if report["pass"]:
        terse = f"pass: {tag}"
        fail = None
    else:
        terse = f"FAIL: {tag}: {report['counterexample']}"
        fail = f"suite {tag} failed: {report['counterexample']}"
    return terse, report, fail


_HANDLERS = {
    "seq": _cmd_seq,
    "lift": _cmd_lift,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def _params_of(config) -> dict:
    """A copy of the params of a config, both checked to be JSON objects."""
    if not isinstance(config, dict):
        raise SpecParseError("a config must be a JSON object")
    params = config.get("params") or {}
    if not isinstance(params, dict):
        raise SpecParseError("config params must be a JSON object")
    return dict(params)


def run_config(config: dict):
    """Dispatch a config dict; returns (terse, report, fail_message)."""
    params = _params_of(config)
    sub = config.get("subcommand")
    if sub not in _HANDLERS:
        raise SpecParseError(f"unknown subcommand {sub!r}")
    return _HANDLERS[sub](params)


def envelope_bytes(config: dict) -> bytes:
    """Canonical report bytes for a config; the replay unit."""
    _, report, _ = run_config(config)
    return canonical_json({"version": __version__, "config": config,
                           "report": report})


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--format", choices=("terse", "json"), default="terse")
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", help="also write the JSON envelope to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlelab",
        description="exact laboratory for subgroups of the circle "
                    "characterized by vanishing multiples")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("seq", help="list sequence values")
    p.add_argument("--spec")
    p.add_argument("--kind", choices=("a", "b", "d", "n"))
    p.add_argument("--count")
    _add_common(p)

    p = subs.add_parser("lift", help="lift an index set to derived indices")
    p.add_argument("--spec")
    p.add_argument("--set")
    p.add_argument("--horizon")
    _add_common(p)

    p = subs.add_parser("scan", help="certified escape-density scan")
    p.add_argument("--spec")
    p.add_argument("--x")
    p.add_argument("--eps")
    p.add_argument("--horizons")
    p.add_argument("--depth")
    p.add_argument("--cap")
    p.add_argument("--expand")
    _add_common(p)

    p = subs.add_parser("classify", help="ratio growth classification checks")
    p.add_argument("--spec")
    p.add_argument("--check")
    p.add_argument("--set")
    p.add_argument("--bound")
    p.add_argument("--alpha")
    p.add_argument("--threshold")
    p.add_argument("--horizon")
    p.add_argument("--jmax")
    p.add_argument("--scan-limit", dest="scan_limit")
    p.add_argument("--x")
    p.add_argument("--expand")
    _add_common(p)

    p = subs.add_parser("witness", help="constructive witness operations")
    p.add_argument("--spec")
    p.add_argument("--op")
    p.add_argument("--u")
    p.add_argument("--u-list", dest="u_list")
    p.add_argument("--trials")
    p.add_argument("--umax")
    p.add_argument("--seed")
    p.add_argument("--jmax")
    p.add_argument("--scan-limit", dest="scan_limit")
    p.add_argument("--zeta")
    p.add_argument("--x")
    p.add_argument("--expand")
    p.add_argument("--m0")
    p.add_argument("--n0")
    p.add_argument("--blocks")
    p.add_argument("--case")
    p.add_argument("--depth")
    p.add_argument("--horizon")
    p.add_argument("--count")
    p.add_argument("--rows")
    _add_common(p)

    p = subs.add_parser("verify", help="run a named verification suite")
    p.add_argument("tag")
    p.add_argument("--param", action="append",
                   help="suite parameter override key=value, repeatable")
    _add_common(p)

    p = subs.add_parser("run", help="execute a serialized config")
    _add_common(p)

    return parser


_META = {"subcommand", "format", "config", "out"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="ascii") as fh:
                    file_cfg = json.load(fh)
            except (OSError, ValueError) as exc:
                raise SpecParseError(f"cannot read config {args.config}: {exc}") from exc
        if args.subcommand == "run":
            if not file_cfg:
                raise SpecParseError("run needs --config")
            config = file_cfg
        else:
            params = _params_of(file_cfg)
            for key, val in vars(args).items():
                if key in _META or val is None:
                    continue
                params[key] = val
            config = {"subcommand": args.subcommand, "params": params}
        terse, report, fail = run_config(config)
        if args.format == "json":
            sys.stdout.buffer.write(canonical_json(
                {"version": __version__, "config": config, "report": report}))
        else:
            print(terse)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(canonical_json(
                    {"version": __version__, "config": config, "report": report}))
        if fail:
            print(f"error: {fail}", file=sys.stderr)
            return 5
        return 0
    except CircleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
