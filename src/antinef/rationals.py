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

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # numerator, denominator
_INTEGER = re.compile(r"-?[0-9]+")

#: Marker for the point at infinity on an exceptional line (direction u = 0).
#: A point record holds this very object, so a position is tested with ``is``.
INFINITY = float("inf")

#: Most digits an integer literal may have: ``int`` refuses to read longer
#: ones by default (``sys.get_int_max_str_digits()``), with a message that
#: names neither the literal nor the input.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS  # the least integer above the digit cap


def _check_digits(digits: str, what: str) -> None:
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"{what} of {len(digits)} digits exceeds the digit cap {MAX_DIGITS}")


def check_digits(value: int, what: str) -> None:
    """Refuse an integer of more than ``MAX_DIGITS`` digits, as :func:`parse_integer`
    refuses such a literal; the digits are counted without ``str``, which
    refuses to write them."""
    value = abs(value)
    if value >= _TOO_LONG:
        digits = value.bit_length() * 1233 >> 12  # 1233/4096 < log10(2): a lower bound
        while 10**digits <= value:
            digits += 1
        raise ValueError(f"{what} of {digits} digits exceeds the digit cap {MAX_DIGITS}")


def parse_integer(text: str, what: str = "integer") -> int:
    """Parse ``a`` or ``-a`` in ASCII digits; unlike ``int``, reject ``+``, ``_`` and blanks.

    A literal above the digit cap raises ``ValueError`` naming ``what`` it is.
    """
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"malformed integer {text!r}")
    _check_digits(text.lstrip("-"), what)
    return int(text)


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """Parse ``a``, ``-a`` or ``a/b`` (ASCII digits) into an exact Fraction.

    Decimal and exponent notation are rejected on purpose: exact input only.
    So are a ``+`` sign and ``_`` digit separators, which ``Fraction`` accepts.
    A numerator or denominator above the digit cap raises ``ValueError``
    naming ``what`` the literal is.
    """
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal literals are not exact, write a/b: {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(
            f"malformed rational {text!r}: Invalid literal for Fraction: {text!r}"
        )
    num, den = match.groups()
    _check_digits(num.lstrip("-"), what)
    if den is None:
        return Fraction(int(num))
    _check_digits(den, what)
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None


def parse_param(text: str):
    """Parse a free-point parameter: a rational or ``inf``."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    return parse_rational(text, "param")


def exact(value, what: str):
    """An ``int`` or ``Fraction`` as it is, or a ``str`` read by :func:`parse_rational`.

    Anything else, a float above all, raises :class:`InexactNumberError`
    naming ``what`` the value was meant to be.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return parse_rational(value, what)
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
    if value is INFINITY:
        return "inf"
    return format_rational(value)


def format_float(value: float) -> str:
    """Render a floating diagnostic with the mandatory ``~`` prefix."""
    return "~" + format(value, ".6g")
