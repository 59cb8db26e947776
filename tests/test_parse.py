"""The token layer, and a fuzz test of every parser that reads user text."""

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlelab.circle import parse_point
from circlelab.cli import OPS, SUBCOMMANDS, main, run_config
from circlelab.density import parse_set_expr
from circlelab.errors import CircleLabError, HorizonError, SpecParseError
from circlelab.parse import enclosed, fraction, integer, integers, printable
from circlelab.sequences import ArithSeq, RatioSpec

LINEAR1 = ArithSeq(RatioSpec.linear(1))

# accepted by some of the parsers this layer replaced, by none now
MIXED_TOKENS = ("1_0", "٣", "²", "+3", "0.1", "1e3", "")


def test_integer_tokens():
    assert integer("17", "n") == 17
    assert integer(" -4\n", "n") == -4
    assert integer("007", "n") == 7
    for bad in MIXED_TOKENS + ("- 4", "4-", "x", "1/2", "9" * 5000):
        with pytest.raises(SpecParseError, match="n must be an integer"):
            integer(bad, "n")


def test_fraction_tokens():
    assert fraction("1/10", "eps") == Fraction(1, 10)
    assert fraction(" -6/4 ", "eps") == Fraction(-3, 2)
    assert fraction("5", "eps") == 5
    for bad in MIXED_TOKENS + ("1/0", "1/-2", "1 / 2", "1/", "/2", "1/2/3"):
        with pytest.raises(SpecParseError, match="eps must be a fraction"):
            fraction(bad, "eps")


def test_integer_lists():
    assert integers("1, 2 ,3", "h") == [1, 2, 3]
    assert integers("  ", "h") == []
    for bad in ("1000,", ",1", "1,,2", "1;2", "1,٣"):
        with pytest.raises(SpecParseError, match="h must be comma-separated"):
            integers(bad, "h")


@pytest.mark.parametrize("limit", [4300, 0, None])
def test_printable_numbers(monkeypatch, limit):
    # 10^4300 - 1 has 4300 decimal digits, 10^4300 one more; a limit of 0,
    # or a Python without the limit, lets every number through
    if limit is None:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    top = 10 ** 4300
    for fine in (0, -5, top - 1, 1 - top, Fraction(top - 1, 3), Fraction(1, top - 1)):
        assert printable(fine, "v") == fine
    for long in (top, -top, Fraction(top, 7), Fraction(-7, top)):
        if limit:
            with pytest.raises(HorizonError,
                               match="v has more than 4300 decimal digits"):
                printable(long, "v")
        else:
            assert printable(long, "v") == long


def test_enclosed():
    assert enclosed(" [1,2] ", "[]", "v") == "1,2"
    assert enclosed("{}", "{}", "v") == ""
    for bad in ("[1,2", "1,2]", "{1}", "[", "]", ""):
        with pytest.raises(SpecParseError, match=r"v must be wrapped in \[\]"):
            enclosed(bad, "[]", "v")


# ----- fuzz: only CircleLabError crosses the input boundary -------------------
# Integers stay below 1000 and lift( is never nested, so that no input asks for
# unbounded work (lifting fin:{10^9}, or lifting twice, walks too many block
# boundaries). "file:" is never built, because it could name a device.

def _one_lift(text):
    return text.count("lift(") <= 1


PIECES = ("const:", "linear:", "pow:", "dlictrex", "dlictrex:", "explicit:",
          ";tail=", "fin:", "ivl:", "evens", "squares", "all", "blocks:cube-gap",
          "lift(", "shift(", "rat:", "exact:", "finite:", "ones-on:",
          "floor-div:m=", "[", "]", "{", "}", "(", ")", ",", ":", "/", "+",
          "-", " ", "²", "٣", "_")
NUM = st.one_of(st.integers(0, 999).map(str),
                st.sampled_from(("", " ", "-1", "²", "٣", "1_0", "+3", "0.5", "x")))
NUMS = st.lists(NUM, max_size=4).map(",".join)
PAIRS = st.lists(st.tuples(NUM, NUM), min_size=1, max_size=3)

SPECS = st.recursive(
    st.one_of(st.just("dlictrex"),
              st.tuples(st.sampled_from(("const", "linear", "pow", "dlictrex")),
                        NUM).map(":".join)),
    lambda tail: st.tuples(NUMS, tail).map("explicit:[{0[0]}];tail={0[1]}".format),
    max_leaves=3)
SETS = st.recursive(
    st.one_of(st.sampled_from(("evens", "squares", "all", "blocks:cube-gap")),
              NUMS.map("fin:{{{}}}".format),
              PAIRS.map(lambda ps: "ivl:" + "+".join(f"[{a},{b}]" for a, b in ps))),
    lambda inner: st.one_of(inner.map("lift({})".format),
                            st.tuples(inner, NUM).map("shift({0[0]},{0[1]})".format)),
    max_leaves=3).filter(_one_lift)
POINTS = st.one_of(
    st.tuples(st.sampled_from(("rat", "exact")), NUM, NUM).map("{0[0]}:{0[1]}/{0[2]}".format),
    NUMS.map("finite:[{}]".format),
    SETS.map("ones-on:{}".format),
    PAIRS.map(lambda ps: "floor-div:m={" + ",".join(f"{a}:{b}" for a, b in ps) + "}"))
SHAPED = st.one_of(SPECS, SETS, POINTS, NUMS)
NOISE = st.lists(st.one_of(st.sampled_from(PIECES), NUM), max_size=10).map("".join)
SPLICED = st.tuples(SHAPED, st.integers(0, 30), st.sampled_from(PIECES)).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])
TEXT = st.one_of(SHAPED, NOISE, SPLICED).filter(
    lambda s: re.search(r"[0-9]{4}", s) is None and _one_lift(s))


def _value(*valid):
    return st.one_of(st.sampled_from(valid), TEXT)


def _config(sub, **params):
    if sub != "verify":  # the suites bring their own specs
        params = {"spec": st.just("linear:1"), **params}
    return st.fixed_dictionaries(
        {"subcommand": st.just(sub), "params": st.fixed_dictionaries(params)})


CONFIGS = st.one_of(
    _config("seq", kind=st.sampled_from("abdn"), count=_value("7")),
    _config("lift", set=st.one_of(SETS, TEXT), horizon=_value("50")),
    _config("scan", x=st.one_of(POINTS, TEXT), eps=_value("1/10", "1/3"),
            horizons=_value("100", "50,200"), depth=_value("8"),
            cap=_value("12"), expand=_value("32")),
    _config("classify", check=st.just("snd"), alpha=_value("1", "1/2"),
            horizon=_value("30")),
    _config("witness", op=st.just("factor"), u=_value("48")),
    _config("verify", tag=st.just("recursion"),
            param=st.tuples(_value("1"), _value("97")).map(
                lambda t: [f"trials={t[0]}", f"seed={t[1]}"])),
)


def _only_library_errors(call, *args):
    try:
        call(*args)
    except CircleLabError:
        pass


@settings(max_examples=300, deadline=None)
@given(TEXT, st.integers(1, 32), CONFIGS)
def test_parsers_raise_only_library_errors(text, horizon, config):
    _only_library_errors(RatioSpec.parse, text)
    _only_library_errors(parse_set_expr, text)
    _only_library_errors(parse_set_expr, text, LINEAR1)
    _only_library_errors(parse_point, text, LINEAR1, horizon)
    _only_library_errors(run_config, config)


# ----- fuzz: argv through cli.main ends in a documented exit code --------------
# Flags come from the operation table; every number in a value is cut below 64
# and the spec is linear:1 or const:2, so that no count, horizon, blocks, jmax
# or depth asks for runaway work.

def _small(text, bound=64):
    return re.sub(r"[0-9]+", lambda m: str(int(m[0]) % bound), text)


SMALL = TEXT.map(_small)


def _flag(key):
    return "--" + key.replace("_", "-")


# a valid value of every param: its default in some operation, else a sample
VALID = {"x": "ones-on:evens", "set": "evens", "cap": "12", "u_list": "3,8,30",
         "u": "48",
         **{key: value for _, defaults in OPS.values()
            for key, value in defaults.items() if value is not None}}


def _arg(valid):
    """Mostly ``valid``, else a small integer or any small text."""
    return st.integers(0, 9).flatmap(
        lambda i: (SMALL, st.integers(-1, 63).map(str))[i] if i < 2 else st.just(valid))


@st.composite
def ARGV(draw):
    sub, name = draw(st.sampled_from(list(OPS)))
    pick = SUBCOMMANDS[sub][1]
    defaults = OPS[sub, name][1]
    every = sorted({key for (s, _), (_, d) in OPS.items() if s == sub for key in d}
                   - {"spec", "tag", "param"})
    argv = [sub]
    if pick:
        argv += [_flag(pick), draw(_arg(name))]
    if sub == "verify":
        # suites run whole batteries: keep their counts tiny
        argv.append(draw(_arg("recursion")))
        for entry in draw(st.lists(st.one_of(
                st.tuples(st.sampled_from(("trials", "seed", "tmax", "max_len")),
                          TEXT.map(lambda t: _small(t, 4))).map("=".join),
                SMALL), max_size=3)):
            argv += ["--param", entry]
    else:
        argv += ["--spec", draw(st.sampled_from(("linear:1", "const:2")))]
    required = [key for key in ("x", "set", "u")
                if key in defaults and defaults[key] is None]
    optional = [key for key in defaults if key in every and key not in required]
    keys = required + (draw(st.lists(st.sampled_from(optional), unique=True))
                       if optional else [])
    if every and draw(st.integers(0, 9)) == 0:  # a flag the operation does not read
        keys.append(draw(st.sampled_from(every)))
    for key in keys:
        valid = VALID[key] if defaults.get(key) is None else defaults[key]
        argv += [_flag(key), draw(_arg(_small(str(valid))))]
    return argv


@settings(max_examples=200, deadline=None)
@given(ARGV())
def test_cli_argv_ends_in_an_exit_code(argv):
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse refused the command line
        assert exc.code == 2
    else:
        assert code in (0, 2, 3, 4, 5)
