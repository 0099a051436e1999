"""Parsing and serialization of exact rationals.

Every number the tool emits is either an exact rational rendered as
``a/b`` (or a bare integer) or an explicitly ``~``-prefixed floating
diagnostic.  Parsing accepts exactly those exact forms plus ``inf`` for
points at infinity on an exceptional line.  :func:`exact` reads every
number handed to the library, and :func:`integer` every count and index.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InexactNumberError

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

#: Marker for the point at infinity on an exceptional line (direction u = 0).
INFINITY = float("inf")


def parse_integer(text: str) -> int:
    """Parse ``a`` or ``-a`` in ASCII digits; unlike ``int``, reject ``+``, ``_`` and blanks."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse ``a``, ``-a`` or ``a/b`` (ASCII digits) into an exact Fraction.

    Decimal and exponent notation are rejected on purpose: exact input only.
    So are a ``+`` sign and ``_`` digit separators, which ``Fraction`` accepts.
    """
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal literals are not exact, write a/b: {text!r}")
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(
            f"malformed rational {text!r}: Invalid literal for Fraction: {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None


def parse_param(text: str):
    """Parse a free-point parameter: a rational or ``inf``."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    return parse_rational(text)


def exact(value, what: str):
    """An ``int`` or ``Fraction`` as it is, or a ``str`` read by :func:`parse_rational`.

    Anything else, a float above all, raises :class:`InexactNumberError`
    naming ``what`` the value was meant to be.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise InexactNumberError(
        f"unsupported {what} {value!r}: not exact; write an int, a Fraction or an a/b rational"
    )


def integer(value, what: str) -> int:
    """An ``int`` as it is; anything else, a float, a ``Fraction`` or a ``str``,
    raises :class:`InexactNumberError` naming ``what`` the value was meant to be."""
    if isinstance(value, int):
        return value
    raise InexactNumberError(f"unsupported {what} {value!r}: not an integer")


def format_rational(value) -> str:
    """Render an exact value as ``a/b`` or a bare integer."""
    return str(exact(value, "value"))


def format_param(value) -> str:
    if value == INFINITY:
        return "inf"
    return format_rational(value)


def format_float(value: float) -> str:
    """Render a floating diagnostic with the mandatory ``~`` prefix."""
    return "~" + format(value, ".6g")
