"""Ratio rules, the arithmetic sequence (a_k), and its derived multiples sequence.

All arithmetic is exact: terms are unbounded Python ints, memoized per object.
The derived sequence enumerates every multiple r*a_k with 1 <= r < b_{k+1} in
increasing order; block k occupies the derived-index range [n_k, n_{k+1} - 1]
where n_0 = 1 and n_{k+1} = n_k + b_{k+1} - 1.

Index conventions: ratios b_n and derived terms d_i are indexed from 1,
arithmetic terms a_k and block boundaries n_k from 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from math import isqrt
from pathlib import Path

from .errors import PreconditionError, SpecParseError
from .parse import enclosed, integer, integers

__all__ = ["RatioSpec", "ArithSeq", "DerivedSeq", "cube_block_edges", "cube_block_of"]


def cube_block_edges():
    """Yield the closed blocks [g_j, h_j] with g_1 = 1, h_j - g_j = j^3, g_{j+1} - h_j = j."""
    g, j = 1, 1
    while True:
        h = g + j**3
        yield g, h
        g = h + j
        j += 1


def cube_block_of(n: int) -> tuple[int, int]:
    """(j, h_j) for the block of ``cube_block_edges`` with the last start
    g_j <= n (n >= 1), in closed form: g_j = 1 + t^2 + t with
    t = j(j - 1)/2, the sum of i^3 + i over i < j, and h_j = g_j + j^3."""
    T = (isqrt(4 * n - 3) - 1) >> 1  # the largest T with T(T + 1) <= n - 1
    j = (isqrt(8 * T + 1) + 1) >> 1  # the largest j with j(j - 1)/2 <= T
    t = j * (j - 1) >> 1
    return j, 1 + t * (t + 1) + j * j * j


def _cube_block_elements(jmax):
    edges = cube_block_edges()
    for _ in range(jmax):
        g, h = next(edges)
        yield from range(g, h + 1)


class _BlockRatios:
    """Ratios read off consecutive elements of the cube-gap block set, tail 2.

    With the first jmax blocks enumerated as 1 = e_0 < e_1 < ..., the ratio at
    position m is e_m - e_{m-1} + 1 (2 inside a block, gap + 1 at a join);
    past the enumerated elements every ratio is 2.
    """

    def __init__(self, jmax: int):
        self.jmax = jmax
        self._vals: list[int] = []
        self._elems = _cube_block_elements(jmax)
        self._prev = next(self._elems)
        self._done = False

    def term(self, n: int) -> int:
        while not self._done and n > len(self._vals):
            e = next(self._elems, None)
            if e is None:
                self._done = True
                break
            self._vals.append(e - self._prev + 1)
            self._prev = e
        if n <= len(self._vals):
            return self._vals[n - 1]
        return 2


def _prod_mod(values, q: int | None) -> int:
    """The product of ``values``, reduced mod q as it runs when q is given."""
    if q is None:
        return math.prod(values)
    acc = 1 % q
    for v in values:
        acc = acc * v % q
        if not acc:
            break
    return acc


def _const_forms(b: int):
    """n_k = 1 + k(b - 1) under b_n = b, its inverse, and b_lo ... b_hi."""
    return ((lambda k: 1 + k * (b - 1)), (lambda i: (i - 1) // (b - 1)),
            lambda lo, hi, q=None: pow(b, hi - lo + 1, q))


def _linear_forms(c: int):
    """n_k = 1 + k(k + d)/2 with d = 2c - 1 under b_n = n + c, its inverse,
    and b_lo ... b_hi: k(k + d) <= 2(i - 1) holds exactly up to
    k = (isqrt(d^2 + 8(i - 1)) - d) // 2."""
    d = 2 * c - 1
    return (lambda k: 1 + k * (k + d) // 2,
            lambda i: (math.isqrt(d * d + 8 * (i - 1)) - d) // 2,
            lambda lo, hi, q=None: _prod_mod(range(lo + c, hi + c + 1), q))


def _pow_forms(b: int):
    """n_k = 1 + (b^(k+1) - b)/(b - 1) - k under b_n = b^n, its inverse, and
    b_lo ... b_hi = b^(lo + ... + hi).

    b^k <= n_k < 2 b^k, so the k with n_k <= i < n_{k+1} is the integer
    logarithm e of i (b^e <= i < b^(e+1)) or e - 1.
    """
    def boundary(k):
        return 1 + (b ** (k + 1) - b) // (b - 1) - k

    def block(i):
        e, t = 0, b
        while t <= i:
            e, t = e + 1, t * b
        return e if boundary(e) <= i else e - 1

    return (boundary, block,
            lambda lo, hi, q=None: pow(b, (lo + hi) * (hi - lo + 1) // 2, q))


class RatioSpec:
    """A deterministic rule n -> b_n (n >= 1) with b_n >= 2 for every n.

    Construct through the classmethods (constant, linear, power, explicit,
    blocks) or by parsing a spec string such as ``linear:1`` or ``pow:2``.
    ``constant_ratio`` is b for a ``const:b`` spec and None for every other.
    Under a spec with closed forms (``forms``: ``const``, ``linear`` and
    ``pow``) the ratios never decrease, b_n <= b_(n+1) for every n;
    ``check_b_bounded`` relies on it.
    """

    constant_ratio: int | None = None

    def __init__(self, text: str, rule, eventually_two: bool, forms=None):
        """The spec string ``describe`` returns, the rule n -> b_n, whether
        b_n = 2 for all large n, and ``forms``: the closed-form block
        boundary k -> n_k, its inverse i -> k (n_k <= i < n_{k+1}) and the
        ratio product (lo, hi, q=None) -> b_lo ... b_hi, reduced mod q when
        q is given without building the product, or None for a kind without
        them, whose ratios and boundaries are read from memos only. Each
        classmethod checks its input."""
        self._text = text
        self._rule = rule
        self._two = eventually_two
        self.forms = forms

    @classmethod
    def constant(cls, value: int) -> "RatioSpec":
        if value < 2:
            raise PreconditionError("constant ratio must be >= 2")
        spec = cls(f"const:{value}", lambda n: value, value == 2, _const_forms(value))
        spec.constant_ratio = value
        return spec

    @classmethod
    def linear(cls, offset: int) -> "RatioSpec":
        """b_n = n + offset."""
        if offset < 1:
            raise PreconditionError("linear offset must be >= 1 so that b_1 >= 2")
        return cls(f"linear:{offset}", lambda n: n + offset, False,
                   _linear_forms(offset))

    @classmethod
    def power(cls, base: int) -> "RatioSpec":
        """b_n = base ** n."""
        if base < 2:
            raise PreconditionError("power base must be >= 2")
        return cls(f"pow:{base}", lambda n: base ** n, False, _pow_forms(base))

    @classmethod
    def explicit(cls, values, tail: "RatioSpec") -> "RatioSpec":
        """A finite ratio list followed by a declared tail rule (evaluated at the absolute index)."""
        values = tuple(values)
        if any(v < 2 for v in values):
            raise PreconditionError("every explicit ratio must be >= 2")
        if not isinstance(tail, RatioSpec):
            raise PreconditionError("explicit spec needs a tail rule")
        head = ",".join(str(v) for v in values)
        return cls(f"explicit:[{head}];tail={tail.describe()}",
                   lambda n: values[n - 1] if n <= len(values) else tail.term(n),
                   tail.eventually_two())

    @classmethod
    def blocks(cls, jmax: int) -> "RatioSpec":
        """Ratios whose block boundaries enumerate the cube-gap set of density 1.

        With the set enumerated as 1 = e_0 < e_1 < ..., choosing b_{k+1} =
        e_{k+1} - e_k + 1 makes boundary(k) = e_k, so lifting any block-index
        set lands exactly on the chosen target set. The spec covers jmax
        blocks and then continues with ratio 2.
        """
        if jmax < 2:
            raise PreconditionError("block construction needs jmax >= 2")
        return cls(f"dlictrex:{jmax}", _BlockRatios(jmax).term, True)

    def term(self, n: int) -> int:
        if n < 1:
            raise PreconditionError(f"ratio index must be >= 1, got {n}")
        return self._rule(n)

    def eventually_two(self) -> bool:
        """True when b_n = 2 for all large n (decidable for every kind)."""
        return self._two

    def describe(self) -> str:
        return self._text

    def __eq__(self, other):
        if not isinstance(other, RatioSpec):
            return NotImplemented
        return self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def __repr__(self):
        return f"RatioSpec({self.describe()})"

    @classmethod
    def parse(cls, text: str) -> "RatioSpec":
        """Parse a ratio spec string.

        Accepted forms: ``const:C``, ``linear:OFFSET``, ``pow:BASE``,
        ``file:PATH`` (one integer per line plus a ``tail:<spec>`` line),
        ``dlictrex`` or ``dlictrex:JMAX``, and the round-trip form
        ``explicit:[v1,v2,...];tail=<spec>``.
        """
        return _parse_spec(text, frozenset())


# spec prefix -> constructor of the kinds with one integer parameter
_INT_KINDS = {"const": RatioSpec.constant, "linear": RatioSpec.linear,
              "pow": RatioSpec.power, "dlictrex": RatioSpec.blocks}


def _parse_spec(text: str, reading: frozenset) -> RatioSpec:
    """RatioSpec.parse, knowing the ratio files already being read."""
    text = text.strip()
    kind, sep, body = text.partition(":")
    try:
        if sep and kind in _INT_KINDS:
            return _INT_KINDS[kind](integer(body, f"the {kind}: parameter"))
        if text == "dlictrex":
            return RatioSpec.blocks(20)
        if kind == "file" and sep:
            return _parse_ratio_file(Path(body), reading)
        if kind == "explicit" and sep:
            head, sep, tail = body.partition(";tail=")
            if not sep:
                raise SpecParseError("explicit spec needs ';tail=<spec>'")
            values = integers(enclosed(head, "[]", "explicit values"), "explicit values")
            return RatioSpec.explicit(values, _parse_spec(tail, reading))
    except PreconditionError as exc:
        raise SpecParseError(f"invalid ratio spec {text!r}: {exc}") from exc
    raise SpecParseError(f"unrecognized ratio spec {text!r}")


def _parse_ratio_file(path: Path, reading: frozenset) -> RatioSpec:
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"cannot read ratio file {path}: {exc}") from exc
    key = path.resolve()
    if key in reading:
        raise SpecParseError(f"ratio file {path} leads back to itself through 'tail:'")
    values: list[int] = []
    tail = None
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("tail:"):
            tail = _parse_spec(line[5:], reading | {key})
            continue
        values.append(integer(line, f"line {number} of ratio file {path}"))
    if tail is None:
        raise SpecParseError(f"ratio file {path} must declare a 'tail:<spec>' line")
    return RatioSpec.explicit(values, tail)


class ArithSeq:
    """Memoized exact terms of a_0 = 1, a_k = b_k * a_{k-1}.

    Terms are computed on first access and kept for the life of the object.
    A spec with closed forms answers every ratio from its rule and keeps no
    ratio memo; the others (``explicit:``, ``file:`` and ``dlictrex``) keep
    every ratio up to the highest index read.
    """

    def __init__(self, spec: RatioSpec):
        self.spec = spec
        self._terms = [1]
        self._ratios: list[int] = []
        # the rule n -> b_n of a spec with closed forms, read with no memo
        self._rule = spec._rule if spec.forms else None
        self._derived: DerivedSeq | None = None

    def ratio(self, n: int) -> int:
        """b_n for n >= 1."""
        if self._rule is not None and n > 0:
            return self._rule(n)
        if n < 1:
            raise PreconditionError(f"ratio index must be >= 1, got {n}")
        ratios = self._ratios
        while n > len(ratios):
            ratios.append(self.spec.term(len(ratios) + 1))
        return ratios[n - 1]

    def ratio_product(self, lo: int, hi: int, q: int | None = None) -> int:
        """b_lo * ... * b_hi for 1 <= lo <= hi, reduced mod q when q is
        given, in closed form when the spec has one and from ``ratio`` reads
        otherwise. Mod q the product is never built whole, and the term memo
        is not touched: ``ratio_product(1, n, q)`` is a_n mod q."""
        if self.spec.forms:
            return self.spec.forms[2](lo, hi, q)
        return _prod_mod(map(self.ratio, range(lo, hi + 1)), q)

    def term(self, k: int) -> int:
        """a_k for k >= 0."""
        if k < 0:
            raise PreconditionError(f"term index must be >= 0, got {k}")
        while k >= len(self._terms):
            self._terms.append(self._terms[-1] * self.ratio(len(self._terms)))
        return self._terms[k]

    @property
    def derived(self) -> "DerivedSeq":
        if self._derived is None:
            self._derived = DerivedSeq(self)
        return self._derived

    def describe(self) -> str:
        return self.spec.describe()

    def __repr__(self):
        return f"ArithSeq({self.describe()})"


class DerivedSeq:
    """The increasing enumeration d_1 < d_2 < ... of {r*a_k : k >= 0, 1 <= r < b_{k+1}}.

    Block boundaries are memoized as n_0 .. n_j, and a derived index is
    placed by bisection over them. Under a spec with closed forms, a
    boundary read more than one index past the memo, and the block of any
    index, come from the closed forms instead and are not kept.
    """

    def __init__(self, base: ArithSeq):
        self.base = base
        self._forms = base.spec.forms
        self._bounds = [1]

    def _grow(self) -> None:
        """Append the next boundary n_j = n_{j-1} + b_j - 1."""
        bounds = self._bounds
        bounds.append(bounds[-1] + self.base.ratio(len(bounds)) - 1)

    def boundary(self, k: int) -> int:
        """n_k, the derived index of a_k itself (n_0 = 1)."""
        if k < 0:
            raise PreconditionError(f"boundary index must be >= 0, got {k}")
        bounds = self._bounds
        if k < len(bounds):
            return bounds[k]
        if k > len(bounds) and self._forms:
            return self._forms[0](k)
        while k >= len(bounds):
            self._grow()
        return bounds[k]

    def block(self, i: int) -> int:
        """The block k of derived index i >= 1: n_k <= i < n_{k+1}."""
        if i < 1:
            raise PreconditionError(f"derived index must be >= 1, got {i}")
        if self._forms:
            return self._forms[1](i)
        while self._bounds[-1] <= i:
            self._grow()
        return bisect_right(self._bounds, i) - 1

    def decompose(self, i: int) -> tuple[int, int]:
        """The unique (k, r) with d_i = r * a_k, 1 <= r < b_{k+1}; i = n_k + r - 1."""
        k = self.block(i)
        return k, i - self.boundary(k) + 1

    def term(self, i: int) -> int:
        """d_i for i >= 1."""
        k, r = self.decompose(i)
        return r * self.base.term(k)

    def __repr__(self):
        return f"DerivedSeq({self.base.describe()})"
