"""Exact rational scalars and their text representations.

`fractions.Fraction` already provides arbitrary-precision rationals stored
in lowest terms with a positive denominator, which is exactly the scalar
contract of this package, so it is used directly as the Scalar type.
"""

from __future__ import annotations

import re
from fractions import Fraction

Scalar = Fraction

_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_RATIO_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")


def parse_scalar(text) -> Fraction:
    """Parse ``"p/q"``, a decimal string, or an int into a Fraction.

    Binary floats are rejected on purpose: rational mode never goes
    through float rounding.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational literal: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    m = _RATIO_RE.match(s)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    if _DECIMAL_RE.match(s):
        return Fraction(s)
    raise ValueError(f"not a rational literal: {text!r}")


def format_scalar(x: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (lowest terms)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

