"""Exception types shared across the package.

Each class carries the process exit code the command-line tool reports when
the error escapes to the top level.
"""


class CircleLabError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class SpecParseError(CircleLabError, ValueError):
    """A mini-language string (ratio spec, set expression, digit rule) failed to parse."""

    exit_code = 2


class PreconditionError(CircleLabError, ValueError):
    """An operation was called outside its stated domain."""

    exit_code = 3


class HorizonError(CircleLabError, LookupError):
    """A query needed values beyond a declared evaluation horizon."""

    exit_code = 4

