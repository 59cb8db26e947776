"""Command-line surface: terse outputs, exit codes, envelopes, replay."""

import hashlib
import json
import subprocess
import sys

import pytest

from circlelab import suites
from circlelab.circle import EXPAND_CAP
from circlelab.cli import (OPS, SUBCOMMANDS, canonical_json, envelope_bytes, main,
                           run_config)
from circlelab.errors import HorizonError
from circlelab.sequences import ArithSeq

CLI = [sys.executable, "-m", "circlelab.cli"]


def run_cli(*argv, expect=0):
    proc = subprocess.run(CLI + list(argv), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc


def capture(capsys, *argv, expect=0):
    code = main(list(argv))
    assert code == expect
    return capsys.readouterr()


# ----- terse outputs ----------------------------------------------------------

def test_seq_derived_example(capsys):
    out = capture(capsys, "seq", "--spec", "linear:1", "--kind", "d", "--count", "7")
    assert out.out == "1,2,4,6,12,18,24\n"


def test_lift_example(capsys):
    out = capture(capsys, "lift", "--spec", "linear:1", "--set", "fin:{3}")
    assert out.out == "[4,6]\n"


def test_lift_clipped(capsys):
    # an unbounded lift prints its runs up to the horizon, one-row runs too
    out = capture(capsys, "lift", "--spec", "linear:1", "--set", "evens",
                  "--horizon", "20")
    assert out.out == "[2,3]+[7,10]+[16,20]\n"
    _, report, _ = run_config({"subcommand": "lift", "params": {
        "spec": "const:2", "set": "evens", "horizon": 9}})
    assert report == {"set": "evens", "prefix": "[2,2]+[4,4]+[6,6]+[8,8]",
                      "horizon": 9, "clipped": True}
    # a run of 10^6 members, and a run whose later pieces need the boundary
    # of an index above 2^40: the prefix walks neither
    for spec, expr, horizon in (("linear:1", "all", 10**6),
                                ("pow:2", "lift(blocks:cube-gap)", 100)):
        terse, _, _ = run_config({"subcommand": "lift", "params": {
            "spec": spec, "set": expr, "horizon": horizon}})
        assert terse == f"[1,{horizon}]"
    # a horizon below 1 is refused for bounded and unbounded sets alike
    for expr in ("evens", "fin:{3}", "lift(fin:{3})", "fin:{}"):
        err = capture(capsys, "lift", "--spec", "linear:1", "--set", expr,
                      "--horizon", "0", expect=3).err
        assert "prefix bound must be >= 1" in err


def test_scan_example(capsys):
    out = capture(capsys, "scan", "--spec", "linear:1", "--x", "rat:1/6",
                  "--eps", "1/10", "--horizons", "100")
    assert out.out == "3/100,3/100\n"


def test_scan_points_describe_their_sets():
    # each point names its whole set, so distinct points get distinct names
    for x, point, n_in in (
            ("ones-on:shift(squares,3)", "ones-on:shift(squares,3)", 8),
            ("ones-on:shift(all,3)", "ones-on:shift(all,3)", 42),
            ("ones-on:shift(evens,3)", "ones-on:shift(evens,3)", 28),
            ("ones-on:fin:{3,5}", "ones-on:IntervalNatSet([(3, 3), (5, 5)])", 11)):
        _, report, _ = run_config({"subcommand": "scan", "params": {
            "spec": "linear:1", "x": x, "horizons": "50"}})
        assert report["point"] == point
        assert report["bounds"][0]["in"] == n_in


def test_seq_other_kinds(capsys):
    assert capture(capsys, "seq", "--spec", "linear:1", "--kind", "a",
                   "--count", "5").out == "1,2,6,24,120\n"
    assert capture(capsys, "seq", "--spec", "pow:2", "--kind", "b",
                   "--count", "4").out == "2,4,8,16\n"
    assert capture(capsys, "seq", "--spec", "linear:1", "--kind", "n",
                   "--count", "5").out == "1,2,4,7,11\n"


def test_classify_terse(capsys):
    out = capture(capsys, "classify", "--spec", "pow:2", "--check", "snd",
                  "--alpha", "1", "--horizon", "30")
    assert out.out == "holds-at-horizon\n"
    out = capture(capsys, "classify", "--spec", "linear:1", "--check",
                  "witness-set", "--jmax", "8")
    assert out.out == "2,5,9,17,32,55,90,139\n"


def test_witness_set_runs_recursion_once(capsys, monkeypatch):
    import circlelab.classify
    import circlelab.cli

    real = circlelab.classify.witness_recursion
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(circlelab.classify, "witness_recursion", counted)
    monkeypatch.setattr(circlelab.cli, "witness_recursion", counted)
    out = capture(capsys, "classify", "--spec", "linear:1", "--check",
                  "witness-set", "--jmax", "8")
    assert out.out == "2,5,9,17,32,55,90,139\n"
    assert len(calls) == 1


def test_classify_failing_check_still_exits_zero(capsys):
    # a verdict is an answer, not an error
    out = capture(capsys, "classify", "--spec", "const:2", "--check", "snd")
    assert out.out == "fails-at-witness\n"


def test_witness_factor_terse(capsys):
    out = capture(capsys, "witness", "--spec", "linear:1", "--op", "factor",
                  "--u", "48")
    assert out.out == "3,2\n"


def test_witness_factor_needs_u(capsys):
    err = capture(capsys, "witness", "--spec", "linear:1", "--op", "factor",
                  expect=2).err
    assert "--u is required" in err


def test_witness_escape_builds_only_emitted_rows(monkeypatch):
    # 2,453 rows are counted, but only the 200 rendered rows (and any failure
    # rows) are built as enclosures, each the window of one judge call; edge
    # rows reach the kernel one by one
    import circlelab.circle as circle

    calls = {"judge": 0, "band_verdict": 0}
    for name in calls:
        real = getattr(circle.EnclosureCache, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(circle.EnclosureCache, name, counted)
    config = {"subcommand": "witness",
              "params": {"spec": "pow:2", "x": "ones-on:all", "op": "escape",
                         "case": "small", "m0": "10", "n0": "13", "blocks": "12"}}
    _, doc, fail = run_config(config)
    assert fail is None and doc["counts"]["rows"] == 2453
    assert len(doc["rows"]) == 200
    built = 200 + len(doc["failures"])
    assert calls["judge"] <= built
    assert calls["band_verdict"] <= 2453 // 10


def test_witness_family_terse(capsys):
    out = capture(capsys, "witness", "--spec", "linear:1", "--op", "family",
                  "--zeta", "0,1,0")
    assert out.out == "5,32,55\n"


def test_witness_partition_terse(capsys):
    out = capture(capsys, "witness", "--spec", "pow:2", "--op", "partition",
                  "--x", "ones-on:all")
    assert out.out == "branch=cofinite,a1=11,a2=0,a3=2\n"


def test_lift_keeps_a_cofinite_support(capsys):
    # lift(all) is every derived index, so its indicator point is the
    # all-ones point: the same partition, escape witness and membership call
    def run(op, x):
        terse, doc, _ = run_config({"subcommand": "witness", "params": {
            "spec": "pow:2", "x": x, "op": op}})
        doc.pop("point", None)
        return terse, doc

    for op, terse in (("partition", "branch=cofinite,a1=11,a2=0,a3=2"),
                      ("escape", "certified=9825,violations=0,undecided=0")):
        lifted = run(op, "ones-on:lift(all)")
        assert lifted == run(op, "ones-on:all")
        assert lifted[0] == terse
    # under const:2 both are the non-canonical expansion 1 = 0
    for x in ("ones-on:all", "ones-on:lift(all)"):
        err = capture(capsys, "classify", "--check", "member", "--spec", "const:2",
                      "--x", x, expect=3).err
        assert "non-canonical" in err


def test_verify_pass(capsys):
    out = capture(capsys, "verify", "recursion")
    assert out.out.startswith("pass: recursion")


# ----- exit codes -------------------------------------------------------------

def test_exit_parse_error():
    proc = run_cli("seq", "--spec", "nope:3", expect=2)
    assert "error:" in proc.stderr


def test_exit_precondition_error():
    proc = run_cli("scan", "--spec", "linear:1", "--x", "rat:1/6",
                   "--eps", "3/5", "--horizons", "100", expect=3)
    assert "eps" in proc.stderr


def test_exit_horizon_error():
    proc = run_cli("scan", "--spec", "pow:2", "--x", "exact:1/3",
                   "--horizons", "100", expect=4)
    assert "did not terminate" in proc.stderr


@pytest.mark.parametrize("x, message", [
    ("finite:[5]", "digit c_1 = 5 outside [0, 1]"),
    ("floor-div:m={3:5}", "divisor m_3 = 5 violates 1 < m <= b_3 = 2"),
])
@pytest.mark.parametrize("command", [
    ("scan",),
    ("classify", "--check", "member"),
    ("witness", "--op", "partition"),
    ("witness", "--op", "escape"),
])
def test_typed_digit_out_of_range_exits_3(capsys, command, x, message):
    # the parser reads each typed digit and divisor, so membership and the
    # witnesses refuse an out-of-range one as the scan does
    out = capture(capsys, *command, "--spec", "const:2", "--x", x, expect=3)
    assert message in out.err


def test_repeated_floor_div_index_exits_2(capsys):
    # an index listed twice is refused, not settled by its last divisor
    out = capture(capsys, "scan", "--spec", "const:7", "--x", "floor-div:m={2:3,2:5}",
                  "--horizons", "100", expect=2)
    assert "divisor index 2 is repeated" in out.err


def test_expand_over_budget_exits_4(capsys):
    out = capture(capsys, "scan", "--spec", "pow:2", "--x", "rat:1/3", "--expand",
                  str(EXPAND_CAP + 1), "--horizons", "100", expect=4)
    assert f"exceeds the budget of {EXPAND_CAP} digits" in out.err


@pytest.mark.parametrize("command", [
    ("classify", "--check", "witness-set"),
    ("witness", "--op", "family"),
])
def test_witness_search_past_its_scan_limit_exits_4(capsys, command):
    out = capture(capsys, *command, "--spec", "linear:1", "--jmax", "5",
                  "--scan-limit", "10", expect=4)
    assert "exceeded scan limit 10" in out.err


# SHA-256 of the member envelope whose cutoff n_14283 has exactly 4300 digits
_MEMBER_AT_LIMIT = "f99ea8e2964856f743517fa2f58548185dfb45205c077866b438e6899ba4c7b8"


def test_member_cutoff_past_the_int_text_limit_exits_4():
    # a child process has Python's default limit of 4300 digits for int
    # text; the first divisor key whose cutoff exceeds it exits 4, not 1
    argv = ("classify", "--check", "member", "--spec", "pow:2", "--format", "json")
    proc = run_cli(*argv, "--x", "floor-div:m={14283:3}")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == _MEMBER_AT_LIMIT
    proc = run_cli(*argv, "--x", "floor-div:m={14284:3}", expect=4)
    assert "cutoff n_14284 has more than 4300 decimal digits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, under, over, what", [
    # the 169th value a_168 = 2^14196 has 4274 digits, a_169 = 2^14365 has 4325
    (("seq", "--spec", "pow:2", "--kind", "a", "--count"), "169", "170",
     "value 170 of --kind a"),
    # b_1433 = 1000^1433 has 4300 digits, b_1434 has 4303
    (("classify", "--check", "snd", "--spec", "pow:1000", "--horizon"),
     "1433", "1434", "trace row 1433"),
    (("classify", "--check", "wdli", "--spec", "pow:1000", "--horizon"),
     "1433", "1434", "witness r_n"),
    (("classify", "--check", "witness-set", "--spec", "pow:1000", "--jmax"),
     "53", "54", "the bound of trace row 54"),
    # fin:{m} lifts to [n_(m-1), n_m - 1]: n_14283 - 1 has 4300 digits
    (("lift", "--spec", "pow:2", "--set"), "fin:{14283}", "fin:{14284}",
     "a lifted interval end"),
])
def test_printed_values_past_the_int_text_limit_exit_4(capsys, argv, under, over,
                                                       what):
    # Python writes an int of at most 4300 decimal digits as text by default;
    # a value past that ends in a HorizonError, terse or json, not a traceback
    capture(capsys, *argv, under)
    for fmt in ("terse", "json"):
        out = capture(capsys, *argv, over, "--format", fmt, expect=4)
        assert out.out == ""
        assert f"error: {what} has more than 4300 decimal digits" in out.err


def test_seq_stops_at_the_first_value_too_long_to_print(monkeypatch):
    # under const:2, a_14285 = 2^14285 is the first term with more than 4300
    # digits; the values are checked as they are computed, so a larger count
    # computes no term past it
    calls = []
    term = ArithSeq.term
    monkeypatch.setattr(ArithSeq, "term",
                        lambda self, k: calls.append(k) or term(self, k))
    with pytest.raises(HorizonError, match="value 14286 of --kind a"):
        run_config({"subcommand": "seq",
                    "params": {"spec": "const:2", "kind": "a", "count": 20000}})
    assert max(calls) == 14285


def test_seq_count_past_its_budget_exits_4(capsys, monkeypatch):
    # seq lists at most 100,000 values; one more is refused before any term
    # is read
    doc = run_config({"subcommand": "seq",
                      "params": {"spec": "const:2", "kind": "b", "count": 100000}})[1]
    assert doc["values"] == [2] * 100000
    calls = []
    ratio = ArithSeq.ratio
    monkeypatch.setattr(ArithSeq, "ratio",
                        lambda self, n: calls.append(n) or ratio(self, n))
    for kind in "abdn":
        out = capture(capsys, "seq", "--spec", "const:2", "--kind", kind,
                      "--count", "100001", expect=4)
        assert out.out == ""
        assert "error: --count must be <= 100000, got 100001" in out.err
    assert calls == []


def test_scan_past_the_int_text_limit_reads_the_support_end():
    # the scan reads where the support ends from the rule and never prints
    # the cutoff, so a point whose cutoff has too many digits still scans
    proc = run_cli("scan", "--spec", "pow:2", "--x", "floor-div:m={14284:3}",
                   "--horizons", "1000", "--eps", "1/8")
    assert proc.stdout == "0,0\n"


def test_exit_suite_failure():
    # an impossible override makes the suite fail loudly
    proc = run_cli("verify", "coincidence", "--param", "floor=99/100", expect=5)
    assert proc.stdout.startswith("FAIL: coincidence")


def test_exit_violation_failure():
    # all-ones under const 3 keeps every value at distance >= 1/3 from 0,
    # so certifying the small-case band [1/10, 9/10] on a raw block works,
    # but a fabricated u-list with a violating row must exit 5
    proc = run_cli("verify", "arbault", "--param", "count=2", expect=5)
    assert "FAIL" in proc.stdout


def test_unknown_verify_tag():
    # "tag known" is a precondition of the verify operation
    run_cli("verify", "no-such-suite", expect=3)


@pytest.mark.parametrize("argv", [
    ("scan", "--spec", "linear:1", "--x", "rat:1/6", "--eps", "abc"),
    ("scan", "--spec", "linear:1", "--x", "rat:1/6", "--eps", "1/0"),
    ("scan", "--spec", "linear:1", "--x", "rat:1/6", "--horizons", "10,x"),
    ("scan", "--spec", "linear:1", "--x", "rat:1/6", "--cap", "deep"),
    ("seq", "--spec", "linear:1", "--count", "abc"),
    ("witness", "--spec", "linear:1", "--op", "aligned", "--u-list", "3,a"),
    # tokens that only some of the number parsers used to accept
    ("seq", "--spec", "linear:1", "--count", "1_0"),
    ("seq", "--spec", "linear:1", "--count", "٣"),
    ("seq", "--spec", "const:+3"),
    ("scan", "--spec", "linear:1", "--x", "rat:1/6", "--eps", "0.1"),
    ("scan", "--spec", "linear:1", "--x", "rat:1/6", "--horizons", "1000,"),
    ("scan", "--spec", "linear:1", "--x", "rat:1/-2"),
    ("lift", "--spec", "linear:1", "--set", "fin:{+3}"),
    ("verify", "coincidence", "--param", "eps=0.1"),
])
def test_bad_numbers_exit_2(capsys, argv):
    assert "must be" in capture(capsys, *argv, expect=2).err


def test_former_tracebacks_exit_2(capsys, tmp_path):
    own = tmp_path / "own.txt"
    own.write_text(f"3\ntail:file:{own}\n")
    for argv in (("seq", "--spec", "const:²"),
                 ("seq", "--spec", f"file:{tmp_path}"),
                 ("seq", "--spec", f"file:{own}"),
                 ("verify", "recursion", "--param", "trials=abc")):
        assert capture(capsys, *argv, expect=2).err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("scan", "--spec", "const:3", "--x", "ones-on:squares", "--cap", "-1",
     "--horizons", "50"),
    ("scan", "--spec", "pow:2", "--x", "ones-on:all", "--cap", "-1",
     "--horizons", "50"),
    ("witness", "--op", "escape", "--spec", "pow:2", "--x", "ones-on:all",
     "--horizon", "0"),
])
def test_former_tracebacks_exit_3(capsys, argv):
    # a negative depth cap and an empty escape horizon are preconditions
    err = capture(capsys, *argv, expect=3).err
    assert err.startswith("error:")
    if "--cap" in argv:
        assert err == "error: depth cap must be >= 0, got -1\n"


@pytest.mark.parametrize("text", ["[1]", '{"subcommand": ', '"scan"',
                                  '{"subcommand": "scan", "params": [1]}',
                                  '{"subcommand": ["scan"]}'])
def test_bad_config_files_exit_2(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    capture(capsys, "run", "--config", str(cfg), expect=2)
    capture(capsys, "scan", "--config", str(cfg), expect=2)
    capture(capsys, "run", "--config", str(tmp_path / "missing.json"), expect=2)


@pytest.mark.parametrize("argv", [
    ("verify", "recursion", "--param", "max_len=0"),
    ("verify", "lift-algebra", "--param", "max_size=-1"),
    # max_size is read once, before the pairs, so no pair is needed to refuse it
    ("verify", "lift-algebra", "--param", "pairs=0", "--param", "max_size=-1"),
    ("verify", "lift-algebra", "--param", "lo=5", "--param", "hi=1"),
    ("verify", "tail-bound", "--param", "qmax=1"),
    ("verify", "snd-density", "--param", "kmax=3"),
    ("witness", "--spec", "linear:1", "--op", "factor-batch", "--umax", "0"),
])
def test_empty_random_ranges_exit_3(capsys, argv):
    # each of these asks the random module for a draw from an empty range
    assert capture(capsys, *argv, expect=3).err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("verify", "tail-bound", "--param", "jmax=0"),
    ("verify", "tail-bound", "--param", "trials=0"),
    ("verify", "tail-bound", "--param", "specs="),
    ("verify", "recursion", "--param", "tmax=-1"),
    ("verify", "recursion", "--param", "trials=0"),
    ("verify", "recursion", "--param", "specs="),
    ("verify", "lift-algebra", "--param", "specs="),
    ("verify", "snd-density", "--param", "trials=0"),
    ("witness", "--spec", "linear:1", "--op", "factor-batch", "--trials", "0"),
    ("witness", "--spec", "linear:1", "--op", "factor-batch", "--trials", "-1"),
])
def test_suites_that_would_check_nothing_exit_3(capsys, argv):
    err = capture(capsys, *argv, expect=3).err
    assert err.startswith("error:") and "must" in err


@pytest.mark.parametrize("tag,key,limit", [("recursion", "tmax", 128),
                                           ("recursion", "max_len", 128),
                                           ("tail-bound", "jmax", 512)])
def test_suite_sizes_past_their_limit_exit_4(capsys, monkeypatch, tag, key, limit):
    # the limit itself runs; one past it exits 4 before any window is built
    argv = ("verify", tag, "--param", "trials=1", "--param", "specs=const:2")
    assert capture(capsys, *argv, "--param", f"{key}={limit}").out == f"pass: {tag}\n"
    monkeypatch.setattr(suites, "EnclosureCache", None)  # building a window fails
    err = capture(capsys, *argv, "--param", f"{key}={limit + 1}", expect=4).err
    assert err == f"error: {key} must be <= {limit}, got {limit + 1}\n"


def test_lift_algebra_without_pairs_still_checks_block_sizes():
    _, report, fail = run_config({"subcommand": "verify", "params": {
        "tag": "lift-algebra", "param": "pairs=0"}})
    assert fail is None and report["pass"] and report["identities"] == 3 * 25


@pytest.mark.parametrize("argv", [
    ("scan", "--spec", "pow:2", "--x", "ones-on:all", "--depth", "-3"),
    ("witness", "--op", "escape", "--spec", "pow:2", "--x", "ones-on:all",
     "--depth", "-1"),
    ("witness", "--op", "aligned", "--spec", "linear:1", "--depth", "-1"),
    ("verify", "wdli-shrink", "--param", "depth=-1"),
    ("verify", "coincidence", "--param", "depth=-1"),
    ("verify", "arbault", "--param", "depth=-1"),
])
def test_negative_depth_exits_3(capsys, argv):
    # a clamped depth would put in the report a depth the scan did not use
    assert "depth must be >= 0" in capture(capsys, *argv, expect=3).err


@pytest.mark.parametrize("argv", [
    ("seq", "--spec", "linear:1", "--kind", "z"),
    ("classify", "--spec", "linear:1", "--check", "nope"),
    ("witness", "--spec", "linear:1", "--op", "nope"),
])
def test_unknown_operation_names_exit_2(capsys, argv):
    assert "must be one of" in capture(capsys, *argv, expect=2).err


# one valid config per operation of the table
RUNS = {
    ("seq", None): {"spec": "linear:1"},
    ("lift", None): {"spec": "linear:1", "set": "fin:{3}"},
    ("scan", None): {"spec": "linear:1", "x": "rat:1/6", "horizons": "100"},
    ("classify", "b-bounded"): {"spec": "linear:1"},
    ("classify", "snd"): {"spec": "pow:2"},
    ("classify", "wdli"): {"spec": "linear:1"},
    ("classify", "witness-set"): {"spec": "linear:1"},
    ("classify", "member"): {"spec": "pow:2", "x": "finite:[1,0,1]"},
    ("witness", "factor"): {"spec": "linear:1", "u": "48"},
    ("witness", "factor-batch"): {"spec": "linear:1", "trials": "5"},
    ("witness", "family"): {"spec": "linear:1"},
    ("witness", "partition"): {"spec": "pow:2", "x": "ones-on:all"},
    ("witness", "escape"): {"spec": "pow:2", "x": "ones-on:all", "blocks": "9"},
    ("witness", "aligned"): {"spec": "linear:1", "count": "10"},
    ("verify", None): {"tag": "recursion", "param": ["trials=2"]},
}


def _op_config(sub, name, **extra):
    pick = SUBCOMMANDS[sub][1]
    params = {**RUNS[sub, name], **({pick: name} if pick else {}), **extra}
    return {"subcommand": sub, "params": params}


def test_every_operation_has_a_run():
    assert set(RUNS) == set(OPS)


@pytest.mark.parametrize("sub,name", list(RUNS), ids=[f"{s}-{n}" for s, n in RUNS])
def test_unread_params_exit_3(capsys, tmp_path, sub, name):
    assert run_config(_op_config(sub, name))[2] is None
    declared = OPS[sub, name][1]
    extra = next(key for key in ("set", "x", "u", "tag") if key not in declared)
    cfg = tmp_path / "cfg.json"
    # for classify --check snd this is --set evens
    cfg.write_text(json.dumps(_op_config(sub, name, **{extra: "evens"})))
    assert repr(extra) in capture(capsys, "run", "--config", str(cfg), expect=3).err


def test_unread_flag_exits_3(capsys):
    # snd never reads --set, so an envelope must not record it
    out = capture(capsys, "classify", "--spec", "pow:2", "--check", "snd",
                  "--set", "evens", expect=3)
    assert out.err == "error: classify --check snd does not read 'set'\n"


def test_verify_param_string_is_one_entry():
    one = {"subcommand": "verify", "params": {"tag": "recursion", "param": "seed=3"}}
    listed = {"subcommand": "verify", "params": {"tag": "recursion", "param": ["seed=3"]}}
    assert run_config(one)[1] == run_config(listed)[1]
    assert run_config(one)[1]["params"]["seed"] == "3"


def test_unknown_subcommand_usage_error():
    proc = subprocess.run(CLI + ["frobnicate"], capture_output=True, text=True)
    assert proc.returncode == 2  # argparse usage failure


# ----- envelopes and replay ---------------------------------------------------

SCAN_CONFIG = {
    "subcommand": "scan",
    "params": {"spec": "linear:1", "x": "rat:1/6", "eps": "1/10",
               "horizons": "100"},
}


def test_run_config_matches_cli():
    terse, report, fail = run_config(SCAN_CONFIG)
    assert terse == "3/100,3/100"
    assert fail is None
    # a single horizon cannot show decay; the positive lower bound reads
    # against convergence until more horizons are sampled
    assert report["verdict"]["verdict"] == "evidence-against"


def test_envelope_replay_is_byte_identical():
    assert envelope_bytes(SCAN_CONFIG) == envelope_bytes(SCAN_CONFIG)


def test_envelope_is_canonical_ascii_json():
    blob = envelope_bytes(SCAN_CONFIG)
    doc = json.loads(blob)
    assert blob == canonical_json(doc)
    assert set(doc) == {"version", "config", "report"}
    assert blob.decode("ascii").endswith("\n")


def test_envelope_has_no_floats():
    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(envelope_bytes(SCAN_CONFIG)))


def test_json_format_and_out_file(tmp_path):
    out_path = tmp_path / "report.json"
    proc = run_cli("scan", "--spec", "linear:1", "--x", "rat:1/6", "--eps",
                   "1/10", "--horizons", "100", "--format", "json",
                   "--out", str(out_path))
    assert proc.stdout.encode("ascii") == out_path.read_bytes()
    assert proc.stdout.encode("ascii") == envelope_bytes(SCAN_CONFIG)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(SCAN_CONFIG))
    direct = run_cli("run", "--config", str(cfg), "--format", "json")
    flags = run_cli("scan", "--config", str(cfg), "--format", "json")
    assert direct.stdout == flags.stdout


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(SCAN_CONFIG))
    proc = run_cli("scan", "--config", str(cfg), "--eps", "1/5")
    # {1/6} drops out of the wider band, leaving rows 2 and 3
    assert proc.stdout == "1/50,1/50\n"
    doc = json.loads(run_cli("scan", "--config", str(cfg), "--eps", "1/5",
                             "--format", "json").stdout)
    assert doc["config"]["params"]["eps"] == "1/5"


def test_run_needs_config():
    run_cli("run", expect=2)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip()
