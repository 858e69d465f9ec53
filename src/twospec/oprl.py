"""Quadrature moments, the monic three-term recurrence, and Jacobi matrices.

Given strictly positive weights on the real nodes, the recurrence
coefficients beta_k, gamma_k of the discrete measure are rebuilt node by
node by the square-root-free RKPW update, which solves this inverse
eigenvalue problem for the Jacobi matrix with Givens rotations.  They fix
the rest: the monic family P_0..P_n follows by the three-term recurrence,
and the n-by-n Jacobi matrix carries beta on the diagonal, ones above it
and gamma below it; its order-k leading block has characteristic
polynomial P_k.

The coefficients come from the nodes and weights directly, never from a
moment-matrix factorization: the update is exact in rational arithmetic and
avoids ill-conditioned Hankel matrices in binary64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import LengthMismatchError, ZeroNormError
from .poly import MonicPolynomial, poly_scale, poly_shift, poly_sub, power_sums
from .scalars import coerce_real_field, is_exact_scalar

@dataclass(frozen=True)
class RealMomentSequence:
    """Power moments mu_k = sum_j w_j x_j^k of a positive discrete measure."""

    mu: tuple

    def __post_init__(self):
        if not self.mu or not self.mu[0] > 0:
            raise ValueError("mu_0 must be positive")

    def __getitem__(self, k):
        return self.mu[k]

    def __len__(self):
        return len(self.mu)


@dataclass(frozen=True)
class JacobiData:
    """Three-term recurrence coefficients beta_0..beta_{n-1} and
    gamma_1..gamma_{n-1} (all positive).  The monic family P_0..P_n and the
    Jacobi matrix are derived from them on first use."""

    beta: tuple
    gamma: tuple

    @property
    def n(self) -> int:
        return len(self.beta)

    @cached_property
    def polys(self) -> tuple:
        """P_0..P_n from P_{k+1} = (x - beta_k) P_k - gamma_k P_{k-1}, with
        coefficients in the scalar field of beta."""
        exact = not self.beta or is_exact_scalar(self.beta[0])
        p_prev, p = [], [Fraction(1) if exact else 1.0]  # typed: no "1" in binary64
        out = [p]
        for bk, gk in zip(self.beta, (0, *self.gamma)):  # P_{-1} = 0 absorbs gamma_0
            nxt = poly_sub(poly_shift(p), poly_scale(p, bk))
            p_prev, p = p, poly_sub(nxt, poly_scale(p_prev, gk))
            out.append(p)
        return tuple(MonicPolynomial(tuple(q)) for q in out)

    @cached_property
    def matrix(self) -> tuple:
        return jacobi_matrix(self)


def moments_real(xs, omega, count=None) -> RealMomentSequence:
    """mu_k for k = 0..count-1 (default 2n) by direct summation."""
    xs, omega = coerce_real_field(xs, omega)
    mu = power_sums(xs, omega, 2 * len(xs) if count is None else count)
    return RealMomentSequence(mu=tuple(mu))


def stieltjes(xs, omega) -> JacobiData:
    """beta/gamma of sum_j w_j delta_{x_j}, rebuilt one node at a time.

    RKPW (Gragg & Harrod, Numer. Math. 44 (1984); Gautschi, Orthogonal
    Polynomials (2004), section 2.2.3): each added node borders the Jacobi
    matrix of the measure so far, and Givens rotations in squared form
    (gsq/sigsq: cosine/sine, pisq: bulge, gamma_k: off-diagonal, all squared)
    chase the bulge down in O(k) with + - * / only: exact over ``Fraction``
    (the discrete Stieltjes coefficients), accurate over binary64 with no
    reorthogonalization.  ZeroNormError when the total mass or a weight is
    not positive (for distinct nodes the Gram matrix of 1..x^{n-1} is
    congruent to diag(omega), so exactly when some h_k = <P_k, P_k> is not),
    or when a gamma_k is not (coincident nodes; NaN too).  No threshold.
    """
    if len(omega) != len(xs):
        raise LengthMismatchError(f"{len(omega)} weights for {len(xs)} nodes")
    xs, omega = coerce_real_field(xs, omega)
    if not sum(omega) > 0:
        raise ZeroNormError("total mass is not positive")
    for j, w in enumerate(omega):
        if not w > 0:
            raise ZeroNormError(f"omega[{j}] is not positive")

    zero = omega[0] * 0
    beta, gamma = [xs[0]], [omega[0]]  # gamma[0]: the mass added so far
    for m in range(1, len(xs)):
        lam, pisq = xs[m], omega[m]
        gsq, sigsq, t = zero + 1, zero, zero
        beta.append(lam)
        gamma.append(zero)
        for k in range(m + 1):
            rhosq = gamma[k] + pisq
            old_gamma, old_sigsq = gamma[k], sigsq
            gamma[k] = gsq * rhosq
            if rhosq > 0:
                gsq, sigsq = old_gamma / rhosq, pisq / rhosq
            else:
                gsq, sigsq = zero + 1, zero
            tk = sigsq * (beta[k] - lam) - gsq * t
            beta[k] -= tk - t
            # sigsq = 0 after an exact t_k = 0 (symmetric measures): Gautschi's rule
            pisq = tk * tk / sigsq if sigsq > 0 else old_sigsq * old_gamma
            t = tk
    if not all(g > 0 for g in gamma[1:]):
        raise ZeroNormError("a gamma_k is not positive: coincident nodes")
    return JacobiData(beta=tuple(beta), gamma=tuple(gamma[1:]))


def jacobi_matrix(data: JacobiData) -> tuple:
    """Dense n-by-n monic-recurrence layout: beta diagonal, 1 superdiagonal,
    gamma subdiagonal."""
    n = data.n
    # From the scalar field: beta[0] * 0 is -0.0 in binary64 when beta[0] < 0.
    exact = is_exact_scalar(data.beta[0])
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = data.beta[i]
        if i + 1 < n:
            row[i + 1] = one
        if i > 0:
            row[i - 1] = data.gamma[i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def eval_charpoly(data: JacobiData, k: int, x):
    """P_k(x) by running the recurrence at the point (never by determinant
    expansion); P_k is the characteristic polynomial of the order-k leading
    block of the Jacobi matrix."""
    if not 0 <= k <= data.n:
        raise ValueError(f"order {k} outside 0..{data.n}")
    p_prev, p = 0, 1
    for j in range(k):
        nxt = (x - data.beta[j]) * p
        if j > 0:
            nxt -= data.gamma[j - 1] * p_prev
        p_prev, p = p, nxt
    return p

