"""Tokens shared by the mini-languages and the numeric parameters.

Every number read from a ratio spec, a ratio file, a set expression, a
digit rule, a command-line or suite parameter or the environment goes
through these helpers, and every malformed token raises SpecParseError
here. An integer is an optional ``-`` followed by ASCII digits; a fraction
is an integer ``P`` or ``P/Q`` with ``Q`` ASCII digits, not 0. Whitespace
around a token is ignored.

A parameter dict (the params of a command-line operation or of a suite) is
built by ``merge_params`` from the declared defaults and read by
``int_param``, ``frac_param`` and ``ints_param``. ``printable`` checks
that a number going out can be written as text.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import HorizonError, PreconditionError, SpecParseError

_INTEGER = re.compile(r"\s*(-?[0-9]+)\s*")
_FRACTION = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*")


def integer(text: str, what: str) -> int:
    """The integer spelled by ``text``; ``what`` names it in the error."""
    m = _INTEGER.fullmatch(text)
    if m:
        try:
            return int(m[1])
        except ValueError:  # more digits than Python converts from a str
            pass
    raise SpecParseError(f"{what} must be an integer, got {text!r}")


def printable(value, what: str):
    """``value``, an int or a Fraction, if no part has more decimal digits
    than Python converts to text (``sys.get_int_max_str_digits``; 0, or a
    Python before 3.10.7 without it, sets no limit); else HorizonError
    naming ``what``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^(3 * limit) < 10^limit, so a shorter part needs no power of ten
    if limit and any(part.bit_length() > 3 * limit and abs(part) >= 10 ** limit
                     for part in (value.numerator, value.denominator)):
        raise HorizonError(
            f"{what} has more than {limit} decimal digits, Python's limit for "
            "converting an int to text"
        )
    return value


def fraction(text: str, what: str) -> Fraction:
    """The fraction spelled ``P`` or ``P/Q`` by ``text``."""
    m = _FRACTION.fullmatch(text)
    if m:
        try:
            return Fraction(int(m[1]), int(m[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecParseError(f"{what} must be a fraction p/q, got {text!r}")


def integers(text: str, what: str) -> list[int]:
    """A comma-separated list of integers; blank text is the empty list."""
    if not text.strip():
        return []
    try:
        return [integer(item, what) for item in text.split(",")]
    except SpecParseError:
        raise SpecParseError(
            f"{what} must be comma-separated integers, got {text!r}") from None


def enclosed(text: str, brackets: str, what: str) -> str:
    """The inside of ``text`` wrapped in ``brackets`` ("[]" or "{}")."""
    text = text.strip()
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise SpecParseError(f"{what} must be wrapped in {brackets}, got {text!r}")
    return text[1:-1]


def merge_params(defaults: dict, params: dict | None, what: str) -> dict:
    """``params`` over ``defaults``; a key ``defaults`` lacks is a PreconditionError."""
    out = dict(defaults)
    for key, val in (params or {}).items():
        if key not in defaults:
            raise PreconditionError(f"{what} does not read {key!r}")
        out[key] = val
    return out


def int_param(p: dict, key: str) -> int:
    return integer(str(p[key]), key)


def frac_param(p: dict, key: str) -> Fraction:
    return fraction(str(p[key]), key)


def ints_param(p: dict, key: str) -> list[int]:
    return integers(str(p[key]), key)
