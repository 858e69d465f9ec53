"""Scalar-field coercion for the real-line path.

A computation is exact iff every input scalar is exact, so sequences are
coerced jointly: all-int/Fraction inputs become Fractions (plain Python
``1 / int`` would silently produce a float), and anything touching a float
pulls the whole computation into binary64.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


def is_exact_scalar(v) -> bool:
    return not isinstance(v, (float, complex))


def coerce_real_field(*seqs):
    """Coerce sequences jointly into one scalar field; returns tuples."""
    flat = [v for s in seqs for v in s]
    if all(is_exact_scalar(v) for v in flat):
        return tuple(tuple(Fraction(v) for v in s) for s in seqs)
    return tuple(tuple(float(v) for v in s) for s in seqs)


def integer_grid(values) -> tuple:
    """``(D, [D v_j])``, D the least common denominator; ``(1.0, values)`` in
    binary64, so that a division by a power of D is a binary64 one."""
    if not all(map(is_exact_scalar, values)):
        return 1.0, list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def off_grid(num, den):
    """num / den: a Fraction for two integers, else the binary64 quotient."""
    return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) else num / den


def _left_to_right(values):
    total = 0
    for v in values:
        total += v
    return total


# 0 + v_0 + v_1 + ..., added left to right, so that floats sum to the same
# bits on every interpreter.  sum() does exactly that up to Python 3.11, and
# about four times faster than the loop; 3.12 made it compensate the
# rounding of floats.
plain_sum = sum if sys.version_info < (3, 12) else _left_to_right
