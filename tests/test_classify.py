"""Finite-horizon classification checks and the shrinkage witness recursion."""

from fractions import Fraction

import pytest

from circlelab.classify import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    check_b_bounded,
    check_strongly_non_dli,
    check_weakly_dli_condition,
    weakly_dli_witness_set,
    witness_recursion,
)
from circlelab.density import evens, parse_set_expr
from circlelab.errors import HorizonError, PreconditionError
from circlelab.sequences import _INT_KINDS, ArithSeq, RatioSpec
from conftest import cube_block_edges, elem_set

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))
CONST2 = ArithSeq(RatioSpec.constant(2))


# ----- b-bounded -------------------------------------------------------------

def test_b_bounded_verdicts():
    v = check_b_bounded(LINEAR1, evens(), 200, 100)
    assert v.holds and v.verdict == HOLDS
    w = check_b_bounded(LINEAR1, evens(), 10, 100)
    assert w.verdict == FAILS
    assert w.witness == {"n": 10, "b_n": 11, "bound": 10}


def b_bounded_by_members(seq, s, bound, horizon):
    """The b-bounded verdict from one ratio read per member, as a report."""
    checked = 0
    for n in s.iter_upto(horizon):
        checked += 1
        if seq.ratio(n) > bound:
            return {"prop": "b-bounded", "horizon": horizon, "verdict": FAILS,
                    "notes": [f"checked {checked} indices before the witness"],
                    "witness": {"n": str(n), "b_n": str(seq.ratio(n)),
                                "bound": str(bound)}}
    return {"prop": "b-bounded", "horizon": horizon, "verdict": HOLDS,
            "notes": [f"checked {checked} indices"]}


_B_BOUNDED_SETS = ["evens", "squares", "all", "lift(all)", "lift(squares)",
                   "shift(squares,2)", "blocks:cube-gap", "fin:{3,9,10}",
                   "ivl:[4,6]+[20,25]", "fin:{}"]


@pytest.mark.parametrize("spec", ["const:2", "const:3", "const:5"])
@pytest.mark.parametrize("expr", _B_BOUNDED_SETS)
def test_b_bounded_under_a_constant_ratio_matches_the_member_loop(spec, expr):
    # under const:b a bound >= b holds from one ratio read per run, and a
    # smaller one fails at the first member; the verdict, witness and notes
    # are those of the loop over every member
    seq = ArithSeq(RatioSpec.parse(spec))
    s = parse_set_expr(expr, seq)
    for bound in (2, 3, 4, 6):
        for horizon in (1, 9, 100, 2000):
            want = b_bounded_by_members(seq, s, bound, horizon)
            assert check_b_bounded(seq, s, bound, horizon).to_report() == want


@pytest.mark.parametrize("spec", ["linear:1", "linear:4", "pow:2", "pow:3", "dlictrex:3"])
@pytest.mark.parametrize("expr", _B_BOUNDED_SETS)
def test_b_bounded_by_runs_matches_the_member_loop(spec, expr):
    # under linear: and pow: each run of the set is decided by a few ratio
    # reads, also when the bound fails inside a run (linear:1 at bound 6
    # fails at n = 6 of all, pow:2 at bound 10 at n = 4); dlictrex:3 has no
    # closed forms and reads every member. The verdict, witness and notes
    # are those of the loop over every member
    seq = ArithSeq(RatioSpec.parse(spec))
    s = parse_set_expr(expr, seq)
    for bound in (2, 3, 4, 6, 10, 23, 100, 1000):
        for horizon in (1, 9, 100, 2000):
            want = b_bounded_by_members(seq, s, bound, horizon)
            assert check_b_bounded(seq, s, bound, horizon).to_report() == want


@pytest.mark.parametrize("kind", sorted(_INT_KINDS))
@pytest.mark.parametrize("param", [1, 2, 3, 7])
def test_ratios_with_closed_forms_never_decrease(kind, param):
    # check_b_bounded reads a run's ratios as non-decreasing under every
    # kind with closed forms, so every such kind must keep b_n <= b_(n+1)
    try:
        spec = _INT_KINDS[kind](param)
    except PreconditionError:
        return
    if spec.forms:
        ratios = [spec.term(n) for n in range(1, 400)]
        assert ratios == sorted(ratios)


def test_b_bounded_reads_a_few_ratios_per_run():
    # lift(all) is one run to 10^12: b_n = n + 1 under linear:1 first passes
    # 10^8 at n = 10^8, found by doubling steps and bisection
    seq = ArithSeq(RatioSpec.linear(1))
    reads = []
    ratio = seq.ratio
    seq.ratio = lambda n: reads.append(n) or ratio(n)
    v = check_b_bounded(seq, parse_set_expr("lift(all)", seq), 10 ** 8, 10 ** 12)
    assert v.verdict == FAILS and v.witness == {"n": 10 ** 8, "b_n": 10 ** 8 + 1,
                                                "bound": 10 ** 8}
    assert v.notes == [f"checked {10 ** 8} indices before the witness"]
    assert len(reads) < 64


def test_b_bounded_validation():
    with pytest.raises(PreconditionError):
        check_b_bounded(LINEAR1, evens(), 1, 100)
    with pytest.raises(PreconditionError):
        check_b_bounded(LINEAR1, evens(), 2, 0)


# ----- strongly non-dli ------------------------------------------------------

def test_strongly_non_dli_pow2_holds():
    v = check_strongly_non_dli(POW2, Fraction(1), 30)
    assert v.holds
    assert v.witness["density_floor"] == Fraction(1, 2)
    # trace carries the raw comparison rows
    assert v.trace[0] == (1, 4, Fraction(2))


def test_strongly_non_dli_failures():
    # constant ratios: b_3 = 2 < b_1 + b_2 = 4
    v = check_strongly_non_dli(CONST2, Fraction(1), 30)
    assert v.verdict == FAILS and v.witness["n"] == 2
    # factorial ratios grow too slowly as well: b_3 = 4 < 2 + 3
    w = check_strongly_non_dli(LINEAR1, Fraction(1), 30)
    assert w.verdict == FAILS and w.witness["n"] == 2


def test_strongly_non_dli_alpha_scaling():
    # pow 2 sums to 2^(n+1) - 2, so any alpha <= 1 passes and alpha = 2 fails
    assert check_strongly_non_dli(POW2, Fraction(1, 2), 25).holds
    assert check_strongly_non_dli(POW2, Fraction(2), 25).verdict == FAILS
    with pytest.raises(PreconditionError):
        check_strongly_non_dli(POW2, Fraction(0), 25)
    with pytest.raises(PreconditionError):
        check_strongly_non_dli(POW2, Fraction(1), 1)


# ----- weakly-dli trace ------------------------------------------------------

def test_weakly_dli_condition_linear1_holds():
    v = check_weakly_dli_condition(LINEAR1, 1000)
    assert v.holds
    # r_n = (n+1) / (sum of 1..n) = 2/n exactly
    for n, r in v.trace[10:20]:
        assert r == Fraction(2, n)


def test_weakly_dli_condition_pow2_fails():
    # r_n -> 1/2, bounded away from the threshold
    v = check_weakly_dli_condition(POW2, 200)
    assert v.verdict == FAILS


def test_weakly_dli_condition_inconclusive():
    # a late ratio spike breaks monotonicity while r still ends small
    values = [2] * 94 + [300] + [2] * 5
    spec = RatioSpec.explicit(values, RatioSpec.constant(2))
    v = check_weakly_dli_condition(ArithSeq(spec), 100)
    assert v.verdict == INCONCLUSIVE


def test_weakly_dli_condition_needs_decade():
    with pytest.raises(PreconditionError):
        check_weakly_dli_condition(LINEAR1, 9)


def test_dli_counterexample_spec():
    spec = RatioSpec.blocks(6)
    assert spec.eventually_two()
    # boundary(k) = e_k: the block boundaries enumerate the cube-gap set
    elems = []
    for _, (g, h) in zip(range(6), cube_block_edges()):
        elems.extend(range(g, h + 1))
    derived = ArithSeq(spec).derived
    assert [derived.boundary(k) for k in range(len(elems))] == elems


# ----- witness recursion -----------------------------------------------------

def test_witness_recursion_linear1_frozen():
    u, trace = witness_recursion(LINEAR1, 8)
    assert u == [1, 4, 8, 16, 31, 54, 89, 138]
    # first bounds, recomputed by hand from the inner digit sums
    assert trace[0] == (1, 1, None, "")
    assert trace[1][:3] == (2, 4, 3)
    assert trace[2][:3] == (3, 8, 30)
    assert trace[3][:3] == (4, 16, 135)
    assert all(row[3] == "" for row in trace)


@pytest.mark.parametrize("seq", [LINEAR1, POW2], ids=["linear1", "pow2"])
def test_witness_recursion_minimality(seq):
    """Each u_{j+1} is the least admissible index; checked against a fresh
    computation of the bound."""
    jmax = 7
    u, _ = witness_recursion(seq, jmax)
    boundary = seq.derived.boundary
    for j in range(1, jmax):
        bound = j * sum(
            sum(seq.ratio(u[i - 1] + 1 - t) - 1
                for t in range(0, i + 1) if u[i - 1] + 1 - t >= 1)
            for i in range(1, j + 1)
        )
        nxt = u[j]
        assert nxt > u[j - 1] + j + 1
        assert boundary(nxt) > bound
        for r in range(u[j - 1] + j + 2, nxt):
            assert boundary(r) <= bound


def test_witness_recursion_scan_limit():
    # a search past its budget is an exceeded horizon (exit 4); a jmax below
    # 1 is a bad input (exit 3)
    with pytest.raises(HorizonError):
        witness_recursion(LINEAR1, 5, scan_limit=10)
    with pytest.raises(PreconditionError):
        witness_recursion(LINEAR1, 0)


def test_witness_set_linear1():
    assert weakly_dli_witness_set(LINEAR1, 8) == \
        elem_set([2, 5, 9, 17, 32, 55, 90, 139])


def test_verdict_report_shape():
    v = check_strongly_non_dli(POW2, Fraction(1), 10)
    doc = v.to_report()
    assert doc["prop"] == "strongly-non-dli"
    assert doc["verdict"] == HOLDS
    assert doc["witness"] == {"density_floor": "1/2"}
    assert all(isinstance(cell, str) for row in doc["trace"] for cell in row)
