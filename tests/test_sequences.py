"""Ratio specs, the arithmetic sequence, and its derived enumeration."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlelab.circle import parse_point
from circlelab.density import parse_set_expr
from circlelab.errors import PreconditionError, SpecParseError
from circlelab.membership import statistical_scan
from circlelab.sequences import (
    ArithSeq,
    DerivedSeq,
    RatioSpec,
    cube_block_of,
)
from conftest import MemoDerived, cube_block_edges

LINEAR1 = ArithSeq(RatioSpec.linear(1))
POW2 = ArithSeq(RatioSpec.power(2))
CONST2 = ArithSeq(RatioSpec.constant(2))


def brute_derived(seq: ArithSeq, limit: int) -> list[int]:
    """Independent enumeration of {r * a_k : 1 <= r < b_{k+1}} up to limit."""
    values = []
    k = 0
    while seq.term(k) <= limit:
        a = seq.term(k)
        for r in range(1, seq.ratio(k + 1)):
            if r * a <= limit:
                values.append(r * a)
        k += 1
    return sorted(values)


# ----- frozen listings -------------------------------------------------------

def test_factorial_terms():
    assert [LINEAR1.term(k) for k in range(6)] == [1, 2, 6, 24, 120, 720]


def test_pow2_terms():
    # a_k = 2^(1+2+...+k)
    assert POW2.term(4) == 1024
    for k in range(10):
        assert POW2.term(k) == 2 ** (k * (k + 1) // 2)


def test_derived_prefix_linear1():
    assert [LINEAR1.derived.term(i) for i in range(1, 8)] == [1, 2, 4, 6, 12, 18, 24]


def test_derived_prefix_pow2():
    assert [POW2.derived.term(i) for i in range(1, 12)] == \
        [1, 2, 4, 6, 8, 16, 24, 32, 40, 48, 56]


def test_derived_const2_is_powers_of_two():
    # each block holds the single multiple 1 * a_k
    for i in range(1, 20):
        assert CONST2.derived.term(i) == 2 ** (i - 1)


def test_boundary_closed_forms():
    for k in range(30):
        assert LINEAR1.derived.boundary(k) == 1 + k * (k + 1) // 2
        assert POW2.derived.boundary(k) == 2 ** (k + 1) - k - 1
        assert CONST2.derived.boundary(k) == k + 1


def test_boundary_recurrence():
    for seq in (LINEAR1, POW2):
        d = seq.derived
        assert d.boundary(0) == 1
        for k in range(12):
            assert d.boundary(k + 1) == d.boundary(k) + seq.ratio(k + 1) - 1


# ----- closed forms against the memoized path ---------------------------------

_CLOSED = ("const:2", "const:3", "const:17", "linear:1", "linear:2", "linear:9",
           "pow:2", "pow:3", "pow:10")


@pytest.mark.parametrize("text", _CLOSED)
def test_closed_boundaries_match_memo(text):
    seq = ArithSeq(RatioSpec.parse(text))
    memo = MemoDerived(ArithSeq(RatioSpec.parse(text)))
    top = 40 if text.startswith("pow") else 400
    for k in range(top):
        assert seq.derived.boundary(k) == memo.boundary(k)
    # every index of the first blocks, and each side of later boundaries
    edges = [memo.boundary(k) + d for k in range(top) for d in (-1, 0, 1)]
    for i in sorted(set(range(1, 300)) | {i for i in edges if i >= 1}):
        assert seq.derived.decompose(i) == memo.decompose(i)
    # reads past the memo's end + 1 come from the closed forms and store nothing
    ahead = ArithSeq(RatioSpec.parse(text))
    assert ahead.ratio(5) == memo.seq.ratio(5)
    assert ahead.derived.boundary(top + 50) == memo.boundary(top + 50)
    assert ahead.derived.decompose(memo.boundary(top)) == (top, 1)
    assert ahead._ratios == [] and ahead.derived._bounds == [1]


@pytest.mark.parametrize("text", _CLOSED)
def test_closed_boundaries_read_no_ratio(text):
    # every boundary, from 0 on in order or far ahead, comes from the closed
    # form: no ratio is read and nothing is kept
    seq, reads = ArithSeq(RatioSpec.parse(text)), []
    ratio = seq.ratio
    seq.ratio = lambda n: reads.append(n) or ratio(n)
    want = MemoDerived(ArithSeq(RatioSpec.parse(text)))
    for k in list(range(30)) + [10 ** 3, 5, 10 ** 3 + 1]:
        assert seq.derived.boundary(k) == want.boundary(k)
    assert reads == [] and seq.derived._bounds == [1]


_MEMOS = {text: MemoDerived(ArithSeq(RatioSpec.parse(text))) for text in _CLOSED}


@given(text=st.sampled_from(_CLOSED), i=st.integers(1, 2 * 10 ** 5))
@settings(max_examples=200, deadline=None)
def test_closed_decompose_matches_memo(text, i):
    seq = ArithSeq(RatioSpec.parse(text))
    assert seq.derived.decompose(i) == _MEMOS[text].decompose(i)


def test_closed_decompose_at_huge_indices():
    # far past any memo: n_k <= i < n_{k+1} checked on the closed boundaries
    for text in _CLOSED:
        d = ArithSeq(RatioSpec.parse(text)).derived
        for i in (10 ** 12, 10 ** 30 + 7, 3 ** 90):
            k, r = d.decompose(i)
            assert d.boundary(k) <= i < d.boundary(k + 1) and r == i - d.boundary(k) + 1


@given(text=st.sampled_from(_CLOSED), lo=st.integers(1, 300) | st.integers(10 ** 3, 10 ** 9),
       span=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_closed_ratio_product_matches_reads(text, lo, span):
    # b_lo ... b_hi in closed form equals the product of the ratios read one
    # by one, for a single ratio (span 0) and far past the memo; the closed
    # form reads and stores no ratio. Under pow, b_n = B^n has at least n
    # bits, so its far reads stop at n = 3000
    seq = ArithSeq(RatioSpec.parse(text))
    if text.startswith("pow"):
        lo = min(lo, 3000)
    hi = lo + span
    want = math.prod(ArithSeq(RatioSpec.parse(text)).ratio(j) for j in range(lo, hi + 1))
    assert seq.ratio_product(lo, hi) == want
    assert seq._ratios == []


def test_constant_ratio_keeps_no_memo():
    # a rat:2/7 scan under const:3 walks all 50,000 blocks to 10^5 and reads
    # each b_n one past the last; the constant answers them, none is kept
    seq = ArithSeq(RatioSpec.constant(3))
    scan = statistical_scan(parse_point("rat:2/7", seq), Fraction(1, 8), [10 ** 5])
    assert scan.estimates[-1].in_count == 10 ** 5
    assert seq._ratios == []
    assert [seq.ratio(n) for n in (1, 2, 3, 10 ** 9)] == [3] * 4 and seq._ratios == []
    assert seq.term(5) == 3 ** 5 and seq._ratios == []
    with pytest.raises(PreconditionError):
        seq.ratio(0)


@given(text=st.sampled_from(_CLOSED),
       jumps=st.lists(st.integers(1, 300) | st.integers(10 ** 3, 10 ** 12),
                      min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_closed_ratio_reads_the_rule(text, jumps):
    # reads in any order, far ahead and back again, equal the spec's rule
    # and keep no memo; under pow, b_n = B^n has at least n bits, so its
    # reads stop at n = 3000
    seq, spec = ArithSeq(RatioSpec.parse(text)), RatioSpec.parse(text)
    for n in jumps:
        if text.startswith("pow"):
            n = min(n, 3000)
        assert seq.ratio(n) == spec.term(n)
    assert seq._ratios == []
    with pytest.raises(PreconditionError):
        seq.ratio(0)


@pytest.mark.parametrize("text, point, N", [
    # 14,150 blocks: a memo filled by the scan would hold 14,150 ratios
    ("linear:1", "ones-on:all", 10 ** 8),
    ("pow:2", "ones-on:squares", 10 ** 6),
    ("pow:3", "ones-on:evens", 10 ** 6),
    ("linear:2", "rat:2/7", 10 ** 5),
    ("const:2", "ones-on:blocks:cube-gap", 10 ** 4),
])
def test_closed_specs_keep_no_ratio_memo_through_a_scan(text, point, N):
    seq = ArithSeq(RatioSpec.parse(text))
    scan = statistical_scan(parse_point(point, seq), Fraction(1, 8), [N])
    assert scan.estimates[-1].N == N
    assert seq._ratios == []


def test_memo_ratio_product_reads_the_memo():
    seq = ArithSeq(RatioSpec.parse("dlictrex:3"))
    assert seq.ratio_product(4, 9) == math.prod(seq.ratio(j) for j in range(4, 10))
    assert len(seq._ratios) == 9


def test_memo_specs_keep_their_memo():
    seq = ArithSeq(RatioSpec.parse("explicit:[2,5,3];tail=linear:1"))
    memo = MemoDerived(ArithSeq(RatioSpec.parse("explicit:[2,5,3];tail=linear:1")))
    want = [memo.boundary(k) for k in range(30)]
    assert [seq.derived.boundary(k) for k in range(30)] == want
    assert len(seq._ratios) == 29 and len(seq.derived._bounds) == 30
    # a memo-backed spec fills its memo even for a read far ahead
    assert seq.derived.decompose(500) == memo.decompose(500)
    assert len(seq.derived._bounds) == len(memo.bounds)


def test_nested_lift_reads_no_memo():
    # lift(lift(fin:{999})) under linear:1 ends near derived index 1.2 * 10^11;
    # the closed boundaries reach it without growing the memo
    seq = ArithSeq(RatioSpec.linear(1))
    memo = MemoDerived(seq)
    inner = (memo.boundary(998), memo.boundary(999) - 1)
    want = ((memo.boundary(inner[0] - 1), memo.boundary(inner[1]) - 1),)
    fresh = ArithSeq(RatioSpec.linear(1))
    assert parse_set_expr("lift(lift(fin:{999}))", fresh).intervals == want
    assert fresh._ratios == [] and fresh.derived._bounds == [1]


# ----- enumeration against a brute-force oracle ------------------------------

@pytest.mark.parametrize("seq,limit", [(LINEAR1, 5000), (POW2, 5000), (CONST2, 4096)])
def test_derived_matches_brute_force(seq, limit):
    oracle = brute_derived(seq, limit)
    got = []
    i = 1
    while True:
        v = seq.derived.term(i)
        if v > limit:
            break
        got.append(v)
        i += 1
    assert got == oracle


def test_block_start_is_term():
    # d at a block boundary is the plain sequence term: d_{n_k} = a_k
    for seq in (LINEAR1, POW2):
        for k in range(10):
            assert seq.derived.term(seq.derived.boundary(k)) == seq.term(k)


@given(i=st.integers(min_value=1, max_value=10**4))
@settings(max_examples=200, deadline=None)
def test_decompose_round_trip(i):
    for seq in (LINEAR1, POW2):
        k, r = seq.derived.decompose(i)
        assert 1 <= r < seq.ratio(k + 1)
        assert seq.derived.boundary(k) + r - 1 == i
        assert seq.derived.term(i) == r * seq.term(k)


def test_derived_strictly_increasing():
    for seq in (LINEAR1, POW2, CONST2):
        vals = [seq.derived.term(i) for i in range(1, 400)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_block_extent():
    d = LINEAR1.derived
    for k in range(8):
        lo, hi = d.boundary(k), d.boundary(k + 1) - 1
        assert hi - lo + 1 == LINEAR1.ratio(k + 1) - 1
        assert d.decompose(lo) == (k, 1) and d.decompose(hi) == (k, hi - lo + 1)


def test_index_validation():
    with pytest.raises(PreconditionError):
        LINEAR1.derived.term(0)
    with pytest.raises(PreconditionError):
        LINEAR1.term(-1)
    with pytest.raises(PreconditionError):
        LINEAR1.ratio(0)
    with pytest.raises(PreconditionError):
        LINEAR1.derived.boundary(-1)


# ----- ratio specs ----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(PreconditionError):
        RatioSpec.constant(1)
    with pytest.raises(PreconditionError):
        RatioSpec.linear(0)
    with pytest.raises(PreconditionError):
        RatioSpec.power(1)
    with pytest.raises(PreconditionError):
        RatioSpec.explicit([3, 1], RatioSpec.constant(2))
    with pytest.raises(PreconditionError):
        RatioSpec.blocks(1)


def test_explicit_tail_indexing():
    # the tail rule sees the absolute index, not one relative to the prefix
    spec = RatioSpec.explicit([5, 5], RatioSpec.linear(1))
    assert [spec.term(n) for n in range(1, 6)] == [5, 5, 4, 5, 6]


def test_eventually_two():
    assert RatioSpec.constant(2).eventually_two()
    assert RatioSpec.blocks(4).eventually_two()
    assert RatioSpec.explicit([7], RatioSpec.constant(2)).eventually_two()
    assert not RatioSpec.constant(3).eventually_two()
    assert not RatioSpec.linear(1).eventually_two()
    assert not RatioSpec.power(2).eventually_two()


@pytest.mark.parametrize("text", [
    "const:2", "linear:1", "pow:2", "dlictrex:4",
    "explicit:[3,4];tail=const:2",
    "explicit:[2];tail=explicit:[5];tail=linear:2",
])
def test_parse_describe_round_trip(text):
    spec = RatioSpec.parse(text)
    assert RatioSpec.parse(spec.describe()) == spec


def test_parse_defaults_and_errors():
    assert RatioSpec.parse("dlictrex") == RatioSpec.blocks(20)
    for bad in ("nope:3", "const:", "const:x", "linear:0", "explicit:[2]",
                "explicit:2;tail=const:2", "file:/no/such/ratios", "const:²",
                "const:٣", "const:1_0", "const:+3", "explicit:[2,];tail=const:2"):
        with pytest.raises(SpecParseError):
            RatioSpec.parse(bad)


def test_parse_ratio_file(tmp_path):
    path = tmp_path / "ratios.txt"
    path.write_text("# header\n3\n4\n\ntail:const:2\n")
    spec = RatioSpec.parse(f"file:{path}")
    assert spec == RatioSpec.explicit([3, 4], RatioSpec.constant(2))


def test_ratio_file_read_errors(tmp_path):
    undecodable = tmp_path / "latin.txt"
    undecodable.write_bytes(b"3\n\xff\xfe\ntail:const:2\n")
    for path in (tmp_path, undecodable, tmp_path / "missing.txt"):
        with pytest.raises(SpecParseError):
            RatioSpec.parse(f"file:{path}")


def test_ratio_file_cycles(tmp_path):
    own = tmp_path / "own.txt"
    own.write_text(f"3\ntail:file:{own}\n")
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(f"3\ntail:explicit:[4];tail=file:{second}\n")
    second.write_text(f"5\ntail:file:{first}\n")
    for path in (own, first, second):
        with pytest.raises(SpecParseError, match="leads back to itself"):
            RatioSpec.parse(f"file:{path}")
    # a chain of files that ends is not a cycle
    leaf = tmp_path / "leaf.txt"
    leaf.write_text("9\n4\ntail:const:2\n")  # read from index 2 on
    own.write_text(f"3\ntail:file:{leaf}\n")
    spec = RatioSpec.parse(f"file:{own}")
    assert [spec.term(n) for n in range(1, 5)] == [3, 4, 2, 2]


def test_block_spec_boundaries_enumerate_cube_gap_set():
    """Boundary(k) walks exactly the elements of the first jmax cube-gap blocks."""
    jmax = 4
    elems = []
    for g, h in itertools.islice(cube_block_edges(), jmax):
        elems.extend(range(g, h + 1))
    d = ArithSeq(RatioSpec.blocks(jmax)).derived
    for k, e in enumerate(elems):
        assert d.boundary(k) == e
    # past the enumerated blocks the tail ratio 2 steps the boundary by 1
    assert d.boundary(len(elems)) == elems[-1] + 1


@pytest.mark.parametrize("text", [f"dlictrex:{j}" for j in range(2, 41)] + ["dlictrex"])
def test_block_spec_closed_form_matches_the_enumerated_blocks(text):
    """Every b_m and n_k up to 50 past the last join S_(J-1) = T^2 + J - 1,
    T = J(J - 1)/2, against the elements e_0 < e_1 < ... of the first J
    blocks of ``cube_block_edges``, after which each step is 1 (ratio 2)."""
    spec = RatioSpec.parse(text)
    jmax = int(text.partition(":")[2] or 20)
    t = jmax * (jmax - 1) // 2
    last = t * t + jmax - 1
    elems = [e for g, h in itertools.islice(cube_block_edges(), jmax)
             for e in range(g, h + 1)][:last + 51]
    elems += range(elems[-1] + 1, elems[-1] + 1 + last + 51 - len(elems))
    ratios = [e - p + 1 for p, e in zip(elems, elems[1:])]
    assert list(map(spec.term, range(1, last + 51))) == ratios
    assert list(map(ArithSeq(spec).derived.boundary, range(last + 51))) == elems
    # the last join reads J = b_(S_(J-1)), and both its neighbours read 2
    assert [spec.term(m) for m in (last - 1, last, last + 1)] == [2, jmax, 2]


def test_cube_block_closed_form_matches_the_edges():
    # every index from 1 to the end of block 60 lies at or past the start of
    # the block cube_block_of names and before the next start, block 1 and
    # its join to block 2 included
    edges = list(itertools.islice(cube_block_edges(), 61))
    for j, ((g, h), (g_next, _)) in enumerate(zip(edges, edges[1:]), 1):
        assert cube_block_of(g) == cube_block_of(g_next - 1) == (j, h)
        assert cube_block_of(h) == (j, h)
    assert [cube_block_of(n) for n in (1, 2, 3, 11, 12, 13)] == [
        (1, 2), (1, 2), (2, 11), (2, 11), (2, 11), (3, 40)]


def test_derived_seq_caches_per_base():
    assert isinstance(LINEAR1.derived, DerivedSeq)
    assert LINEAR1.derived is LINEAR1.derived
