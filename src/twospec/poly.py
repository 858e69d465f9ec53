"""Dense polynomial arithmetic over generic scalars.

Coefficients are stored ascending (``c[0] + c[1]*x + ...``).  Every helper
works unchanged for ``Fraction``, ``float`` and ``complex`` entries, which is
what lets the real pipeline run exactly and the circle pipeline run in
binary64.  Lists are dense and each helper costs at most quadratic time in
the degree, the order of the recurrence itself: the pipeline builds n+1
polynomials of degree at most n and up to 2n power sums over n nodes, with
n in the hundreds.  It writes and compares expanded coefficients but never
evaluates them near their roots, where Horner's scheme cancels in binary64.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatchError
from .scalars import plain_sum

__all__ = [
    "MonicPolynomial",
    "poly_eval",
    "poly_sub",
    "poly_scale",
    "poly_shift",
    "poly_mul",
    "poly_from_roots",
    "power_sums",
]


def poly_eval(coeffs, x):
    """Evaluate at ``x`` by Horner's scheme; an empty sequence is 0."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return 0 if acc is None else acc


def poly_sub(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
    ]


def poly_scale(a, c):
    return [c * ai for ai in a]


def poly_shift(a):
    """Multiply by x (prepend a type-matching zero)."""
    if not a:
        return []
    return [a[0] * 0] + list(a)


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [a[0] * 0 * b[0]] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_from_roots(roots):
    """Monic expansion of prod_j (x - r_j)."""
    p = [1]
    for r in roots:
        p = poly_mul(p, [-r, 1])
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
            pw = [p * z for p, z in zip(pw, nodes)]
    return mu


@dataclass(frozen=True)
class MonicPolynomial:
    """A monic polynomial, stored as an ascending coefficient tuple."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient sequence")
        if self.coeffs[-1] != 1:
            raise ValueError(f"leading coefficient must be 1, got {self.coeffs[-1]!r}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return poly_eval(self.coeffs, x)
