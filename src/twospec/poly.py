"""Dense polynomial arithmetic over generic scalars.

A polynomial is a plain tuple (or list) of its coefficients, ascending
(``c[0] + c[1]*x + ...``); a monic one ends in the 1 of its field.  Every
helper works unchanged for ``Fraction``, ``float`` and ``complex`` entries,
which is what lets the real pipeline run exactly and the circle pipeline run
in binary64.  Lists are dense and each helper costs at most quadratic time in
the degree, the order of the recurrence itself: the pipeline builds n+1
polynomials of degree at most n and up to 2n power sums over n nodes, with
n in the hundreds.  It writes and compares expanded coefficients but never
evaluates them, since Horner's scheme cancels near the roots in binary64.
The helpers iterate in C, each entry the same operation on the same operands
as in a plain loop; ``poly_from_roots``, one linear step per root, may differ
from a generic product by (x - r) only in the sign of a zero coefficient.
"""

from __future__ import annotations

from itertools import repeat, starmap, zip_longest
from operator import mul, sub

from .errors import LengthMismatchError
from .scalars import plain_sum

__all__ = [
    "poly_sub",
    "poly_scale",
    "poly_shift",
    "poly_from_roots",
    "power_sums",
]


def poly_sub(a, b):
    return list(starmap(sub, zip_longest(a, b, fillvalue=0)))


def poly_scale(a, c):
    return list(map(mul, repeat(c), a))


def poly_shift(a):
    """Multiply by x (prepend a type-matching zero)."""
    return [a[0] * 0, *a] if a else []


def poly_from_roots(roots):
    """Monic expansion of prod_j (x - r_j), per root p'[k] = p[k-1] - r p[k]."""
    p = [1]
    for r in roots:
        p = list(map(sub, [0, *p], [*map(mul, p, repeat(r)), 0]))
    return p


def power_sums(nodes, weights, count) -> list:
    """[sum_j w_j z_j^k for k = 0..count-1], the powers as one running
    product per node."""
    if len(weights) != len(nodes):
        raise LengthMismatchError(f"{len(weights)} weights for {len(nodes)} nodes")
    mu, pw = [], list(weights)
    for k in range(count):
        mu.append(plain_sum(pw))
        if k + 1 < count:
            pw = list(map(mul, pw, nodes))
    return mu
