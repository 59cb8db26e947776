"""Command line front end.

One executable, subcommand per operation, two output styles: a terse line
for interactive use and a canonical JSON envelope for artifacts. The
envelope embeds the config and the library version; identical configs
produce byte-identical envelopes, which is what the replay checks assert.
"""

from __future__ import annotations

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
from .density import IntervalNatSet, lift, parse_set_expr
from .errors import CircleLabError, HorizonError, PreconditionError, SpecParseError
from .membership import convergence_verdict, finite_support_member, statistical_scan
from .parse import frac_param, int_param, ints_param, merge_params, printable
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


def _seq_of(p: dict) -> ArithSeq:
    if not p["spec"]:
        raise SpecParseError("--spec is required")
    return ArithSeq(RatioSpec.parse(str(p["spec"])))


def _point_of(p: dict, seq: ArithSeq) -> CirclePoint:
    if not p["x"]:
        raise SpecParseError("--x is required")
    return parse_point(str(p["x"]), seq, int_param(p, "expand"))


def _render(intervals) -> str:
    """Render closed intervals (a, b) as [a,b]+[c,d], or [] when none."""
    return "+".join(f"[{a},{printable(b, 'a lifted interval end')}]"
                    for a, b in intervals) or "[]"


# ===== Operation handlers ====================================================
# Each takes its operation's params, merged over the defaults declared in
# OPS, and returns (terse, report, fail_message).

# the most values seq lists; they are all held in memory at once
_SEQ_COUNT_LIMIT = 10 ** 5


def _cmd_seq(p: dict):
    seq = _seq_of(p)
    kind = str(p["kind"])
    count = int_param(p, "count")
    if count < 1:
        raise PreconditionError("--count must be >= 1")
    if count > _SEQ_COUNT_LIMIT:
        raise HorizonError(f"--count must be <= {_SEQ_COUNT_LIMIT}, got {count}")
    # each kind's term and its first index
    terms = {"d": (seq.derived.term, 1), "a": (seq.term, 0), "b": (seq.ratio, 1),
             "n": (seq.derived.boundary, 0)}
    if kind not in terms:
        raise SpecParseError(f"--kind must be one of a,b,d,n, got {kind!r}")
    term, first = terms[kind]
    # checked as computed: growing terms stop at the first too long to print
    values = [printable(term(j), f"value {j - first + 1} of --kind {kind}")
              for j in range(first, first + count)]
    terse = ",".join(map(str, values))
    return terse, {"kind": kind, "count": count, "values": values}, None


def _cmd_lift(p: dict):
    seq = _seq_of(p)
    expr = p["set"]
    if not expr:
        raise SpecParseError("--set is required")
    s = parse_set_expr(str(expr), seq)
    lifted = lift(s, seq.derived)
    horizon = int_param(p, "horizon")
    if horizon < 1:
        raise PreconditionError(f"prefix bound must be >= 1, got {horizon}")
    if not isinstance(lifted, IntervalNatSet):  # print the runs up to the horizon
        terse = _render(lifted.runs_upto(horizon))
        return terse, {"set": str(expr), "prefix": terse, "horizon": horizon,
                       "clipped": True}, None
    report = {"set": str(expr), "intervals": [list(iv) for iv in lifted.intervals],
              "clipped": False}
    return _render(lifted.intervals), report, None


def _cmd_scan(p: dict):
    seq = _seq_of(p)
    x = _point_of(p, seq)
    eps = frac_param(p, "eps")
    horizons = ints_param(p, "horizons")
    cap = int_param(p, "cap") if p["cap"] is not None else None
    scan = statistical_scan(x, eps, horizons, int_param(p, "depth"), cap)
    verdict = convergence_verdict(scan)
    terse = "\n".join(f"{e.lo},{e.hi}" for e in scan.estimates)
    report = scan.to_report()
    report["verdict"] = verdict
    return terse, report, None


def _verdict(p: dict, v):
    return v.verdict, {"check": p["check"], **plainify(v.to_report())}, None


def _check_b_bounded(p: dict):
    seq = _seq_of(p)
    s = parse_set_expr(str(p["set"]), seq)
    return _verdict(p, check_b_bounded(seq, s, int_param(p, "bound"),
                                       int_param(p, "horizon")))


def _check_snd(p: dict):
    seq = _seq_of(p)
    return _verdict(p, check_strongly_non_dli(seq, frac_param(p, "alpha"),
                                              int_param(p, "horizon")))


def _check_wdli(p: dict):
    seq = _seq_of(p)
    return _verdict(p, check_weakly_dli_condition(
        seq, int_param(p, "horizon"), frac_param(p, "threshold")))


def _check_witness_set(p: dict):
    seq = _seq_of(p)
    u, trace = witness_recursion(seq, int_param(p, "jmax"),
                                 int_param(p, "scan_limit"))
    # the witness set is {u_j + 1}; u is strictly increasing
    elems = [v + 1 for v in u]
    for j, _, bound, _ in trace[1:]:  # row 1 has no bound
        printable(bound, f"the bound of trace row {j}")
    report = {"check": p["check"], "elements": elems, "recursion": u,
              "trace": plainify(trace)}
    return ",".join(str(e) for e in elems), report, None


def _check_member(p: dict):
    seq = _seq_of(p)
    mv = finite_support_member(_point_of(p, seq))
    return mv.status, {"check": p["check"], **mv.to_report()}, None


def _witness_factor(p: dict):
    seq = _seq_of(p)
    if p["u"] is None:
        raise SpecParseError("--u is required")
    u = int_param(p, "u")
    k, v = factor_u(u, seq)
    return f"{k},{v}", {"op": p["op"], "u": u, "k": k, "v": v}, None


def _witness_factor_batch(p: dict):
    seq = _seq_of(p)
    rng = random.Random(int_param(p, "seed"))
    trials = int_param(p, "trials")
    umax = int_param(p, "umax")
    if trials < 1:
        raise PreconditionError("--trials must be >= 1")
    if umax < 1:
        raise PreconditionError("--umax must be >= 1")
    rows = []
    bad = None
    for _ in range(trials):
        u = rng.randint(1, umax)
        k, v = factor_u(u, seq)
        ok = (u == seq.term(k) * v) and (v % seq.ratio(k + 1) != 0)
        rows.append({"u": u, "k": k, "v": v, "ok": ok})
        if not ok and bad is None:
            bad = rows[-1]
    report = {"op": p["op"], "trials": trials, "umax": umax,
              "all_ok": bad is None, "rows": rows[:50], "bad": bad}
    terse = f"ok={sum(1 for r in rows if r['ok'])}/{trials}"
    return terse, report, None if bad is None else f"factorization failed: {bad}"


def _witness_family(p: dict):
    seq = _seq_of(p)
    a_set = weakly_dli_witness_set(seq, int_param(p, "jmax"),
                                   int_param(p, "scan_limit"))
    zeta = tuple(ints_param(p, "zeta"))
    x = continuum_family_point(a_set, zeta, seq)
    support = [n for n in range(1, (x.rule.finite_support_max() or 0) + 1)
               if x.digit(n)]
    report = {"op": p["op"], "zeta": list(zeta), "support": support,
              "point": x.describe()}
    return ",".join(str(n) for n in support), report, None


def _witness_partition(p: dict):
    seq = _seq_of(p)
    x = _point_of(p, seq)
    h = int_param(p, "blocks")
    part = nonmembership_partition(x, int_param(p, "m0"), int_param(p, "n0"), h)
    report = {"op": p["op"], "branch": part.branch,
              "a1": list(part.a1.iter_upto(h)),
              "a2": list(part.a2.iter_upto(h)),
              "a3": list(part.a3.iter_upto(h))}
    terse = (f"branch={part.branch},a1={part.a1.count_upto(h)},"
             f"a2={part.a2.count_upto(h)},a3={part.a3.count_upto(h)}")
    return terse, report, None


def _witness_escape(p: dict):
    seq = _seq_of(p)
    x = _point_of(p, seq)
    m0 = int_param(p, "m0")
    n0 = int_param(p, "n0")
    blocks = int_param(p, "blocks")
    case = str(p["case"])
    part = nonmembership_partition(x, m0, n0, blocks)
    branch = part.a1 if case == "small" else part.a2
    n_limit = (int_param(p, "horizon") if p["horizon"] is not None
               else seq.derived.boundary(blocks) - 1)
    bad = bad_interval_family(x, branch, case, m0, n0, n_limit)
    rep = certify_nonmembership(x, bad, case, m0, n0, int_param(p, "depth"),
                                n_limit)
    certified_fraction = Fraction(rep.certified, n_limit)
    branch_density = Fraction(
        lift(branch, seq.derived).count_upto(n_limit), n_limit)
    doc = rep.to_report(rows=200)
    doc["failures"] = rep.rows.failures()
    doc.update({"op": p["op"], "horizon": n_limit,
                "certified_fraction": str(certified_fraction),
                "branch_density": str(branch_density)})
    terse = (f"certified={rep.certified},violations={rep.violations},"
             f"undecided={rep.undecided}")
    fail = None
    if rep.violations:
        fail = f"certification produced {rep.violations} violation rows"
    return terse, doc, fail


def _witness_aligned(p: dict):
    seq = _seq_of(p)
    count = int_param(p, "count")
    if p["u_list"] is not None:
        u_list = ints_param(p, "u_list")
    else:
        u_list = [seq.term(n) + seq.term(n - 1) for n in range(1, count + 1)]
    rep = arbault_witness(seq, u_list, rows=int_param(p, "rows"),
                          depth=int_param(p, "depth"))
    doc = rep.to_report()
    doc["op"] = p["op"]
    terse = (f"certified={rep.certified},violations={rep.violations},"
             f"undecided={rep.undecided},"
             f"skipped={rep.extras.get('skipped', 0)}")
    fail = None
    if rep.violations or rep.undecided:
        fail = "aligned-digit rows failed certification"
    return terse, doc, fail


def _cmd_verify(p: dict):
    tag = str(p["tag"])
    entries = p["param"] or []
    if not isinstance(entries, list):  # a config may give one entry bare
        entries = [entries]
    overrides = {}
    for entry in entries:
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


# ===== The operation table ===================================================
# (subcommand, operation) -> (handler, params with their defaults; None =
# unset). Every param is read from its flag or config key; a key that the
# chosen operation does not declare is refused (exit 3).

_POINT = {"spec": None, "x": None, "expand": 256}
_PARTITION = {**_POINT, "m0": 10, "n0": 13, "blocks": 14}

OPS = {
    ("seq", None): (_cmd_seq, {"spec": None, "kind": "d", "count": 10}),
    ("lift", None): (_cmd_lift, {"spec": None, "set": None, "horizon": 1000}),
    ("scan", None): (_cmd_scan, {**_POINT, "eps": "1/10", "horizons": "1000",
                                 "depth": 8, "cap": None}),
    ("classify", "b-bounded"): (_check_b_bounded, {"spec": None, "set": "all",
                                                   "bound": 2, "horizon": 100}),
    ("classify", "snd"): (_check_snd, {"spec": None, "alpha": 1, "horizon": 30}),
    ("classify", "wdli"): (_check_wdli, {"spec": None, "horizon": 1000,
                                         "threshold": "1/100"}),
    ("classify", "witness-set"): (_check_witness_set, {
        "spec": None, "jmax": 8, "scan_limit": 10 ** 6}),
    ("classify", "member"): (_check_member, _POINT),
    ("witness", "factor"): (_witness_factor, {"spec": None, "u": None}),
    ("witness", "factor-batch"): (_witness_factor_batch, {
        "spec": None, "seed": 907, "trials": 500, "umax": 10 ** 9}),
    ("witness", "family"): (_witness_family, {
        "spec": None, "jmax": 8, "scan_limit": 10 ** 6, "zeta": "0,1,0"}),
    ("witness", "partition"): (_witness_partition, _PARTITION),
    ("witness", "escape"): (_witness_escape, {
        **_PARTITION, "case": "small", "depth": 8, "horizon": None}),
    ("witness", "aligned"): (_witness_aligned, {
        "spec": None, "u_list": None, "count": 60, "rows": 20, "depth": 8}),
    ("verify", None): (_cmd_verify, {"tag": None, "param": None}),
}

# subcommand -> (help, the param that names its operation, if it has several)
SUBCOMMANDS = {
    "seq": ("list sequence values", None),
    "lift": ("lift an index set to derived indices", None),
    "scan": ("certified escape-density scan", None),
    "classify": ("ratio growth classification checks", "check"),
    "witness": ("constructive witness operations", "op"),
    "verify": ("run a named verification suite", None),
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
    if not isinstance(sub, str) or sub not in SUBCOMMANDS:
        raise SpecParseError(f"unknown subcommand {sub!r}")
    pick = SUBCOMMANDS[sub][1]
    name = pick and str(params.get(pick, ""))
    if (sub, name) not in OPS:
        names = ", ".join(op for s, op in OPS if s == sub)
        raise SpecParseError(f"--{pick} must be one of {names}")
    handler, defaults = OPS[sub, name]
    what = sub
    if pick:
        defaults = {pick: name, **defaults}
        what = f"{sub} --{pick} {name}"
    return handler(merge_params(defaults, params, what))


def _envelope(config: dict, report) -> bytes:
    return canonical_json({"version": __version__, "config": config,
                           "report": report})


def envelope_bytes(config: dict) -> bytes:
    """Canonical report bytes for a config; the replay unit."""
    return _envelope(config, run_config(config)[1])


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--format", choices=("terse", "json"), default="terse")
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", help="also write the JSON envelope to this path")


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only main parses a command line; run_config needs no parser
    parser = argparse.ArgumentParser(
        prog="circlelab",
        description="exact laboratory for subgroups of the circle "
                    "characterized by vanishing multiples")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, (help_text, pick) in SUBCOMMANDS.items():
        p = subs.add_parser(sub, help=help_text)
        keys = [pick] if pick else []
        for (s, _), (_, defaults) in OPS.items():
            keys += [key for key in defaults if s == sub and key not in keys]
        for key in keys:
            if key == "tag":
                p.add_argument("tag")
            elif key == "param":
                p.add_argument("--param", action="append",
                               help="suite parameter override key=value, repeatable")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key)
        _add_common(p)
    _add_common(subs.add_parser("run", help="execute a serialized config"))
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
        envelope = _envelope(config, report)
        if args.format == "json":
            sys.stdout.buffer.write(envelope)
        else:
            print(terse)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(envelope)
        if fail:
            print(f"error: {fail}", file=sys.stderr)
            return 5
        return 0
    except CircleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
