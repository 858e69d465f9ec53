"""Quadrature moments, the monic three-term recurrence, and its Jacobi band.

Given strictly positive weights on the real nodes, the recurrence
coefficients beta_k, gamma_k of the discrete measure are rebuilt from the
nodes and weights directly, never from a moment-matrix factorization, which
would be ill-conditioned in binary64.  Exact inputs run on the integer grids
x_j = X_j / D, w_j = W_j / E (``scalars.integer_grid``): moments are integer
power sums S_k = sum_j W_j X_j^k, each leaving as the Fraction
S_k / (E D^k), and the discrete Stieltjes procedure runs on primitive
integer vectors, one Fraction per coefficient.  Binary64 inputs (D = E = 1)
run the square-root-free RKPW update, which solves this inverse eigenvalue
problem for the Jacobi matrix with Givens rotations.  The coefficients fix
the rest: the monic family P_0..P_n follows by the three-term recurrence,
and they are the band of the n-by-n Jacobi matrix (beta on the diagonal,
ones above it, gamma below it; the writer alone makes it dense), whose
order-k leading block has characteristic polynomial P_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import LengthMismatchError, ZeroNormError
from .kernel import check_weights
from .poly import poly_scale, poly_shift, poly_sub, power_sums
from .scalars import coerce_real_field, integer_grid, is_exact_scalar, off_grid


@dataclass(frozen=True)
class JacobiData:
    """Three-term recurrence coefficients beta_0..beta_{n-1} and
    gamma_1..gamma_{n-1} (all positive), the band of the Jacobi matrix.  The
    monic family P_0..P_n is derived from them on first use."""

    beta: tuple
    gamma: tuple

    @property
    def n(self) -> int:
        return len(self.beta)

    @cached_property
    def polys(self) -> tuple:
        """P_0..P_n as ascending coefficient tuples, from P_{k+1} =
        (x - beta_k) P_k - gamma_k P_{k-1}, in the scalar field of beta:
        exact coefficients as primitive integer vectors (times x is a shift),
        binary64 ones by the recurrence itself."""
        if self.beta and not is_exact_scalar(self.beta[0]):
            return _recurrence_polys(self.beta, self.gamma, 1.0)  # typed: no "1" in binary64
        u_prev, u, ratio = [], [1], Fraction(0)
        out = [(Fraction(1),)]
        for k, bk in enumerate(self.beta):
            if k:  # gamma_k P_{k-1} in units of P_k: P_k = u / lead(u)
                ratio = Fraction(self.gamma[k - 1]) * u[-1] / u_prev[-1]
            u_prev, (u, _) = u, _next_primitive(
                [0, *u], 1, [*u, 0], [*u_prev, 0, 0], Fraction(bk), ratio
            )
            out.append(tuple(Fraction(c, u[-1]) for c in u))
        return tuple(out)


def moments_real(xs, omega) -> tuple:
    """mu_k = sum_j w_j x_j^k = S_k / (E D^k) for k = 0..2n-1 (see above)."""
    (x_den, nodes), (w_den, weights) = map(integer_grid, coerce_real_field(xs, omega))
    sums = power_sums(nodes, weights, 2 * len(xs))
    return tuple(off_grid(s, w_den * x_den**k) for k, s in enumerate(sums))


def stieltjes(xs, omega) -> JacobiData:
    """beta/gamma of sum_j w_j delta_{x_j}.

    Over ``Fraction`` by the discrete Stieltjes procedure (Gautschi,
    Orthogonal Polynomials (2004), section 2.2.3): beta_k and gamma_k are
    inner products of the values P_k(x_j), each vector held as a rational
    scale times a primitive integer vector, so a step costs O(n) integer
    products and one content gcd.  Over binary64 by RKPW (``_rkpw``), which
    stays accurate with no reorthogonalization.  Both give the exact
    coefficients over ``Fraction``.  NonpositiveWeightError unless every
    weight is positive and finite (``kernel.check_weights``); ZeroNormError
    for no nodes, or when nodes coincide (a zero P_k vector exactly; a
    gamma_k that is not positive, NaN too, in binary64), or when a binary64
    gamma_k underflows to 0 at distinct nodes.  No threshold.
    """
    if len(omega) != len(xs):
        raise LengthMismatchError(f"{len(omega)} weights for {len(xs)} nodes")
    xs, omega = coerce_real_field(xs, omega)
    check_weights(omega)
    if not omega:
        raise ZeroNormError("total mass is not positive")
    beta, gamma = (_stieltjes_exact if is_exact_scalar(xs[0]) else _rkpw)(xs, omega)
    bad = next((k for k, g in enumerate(gamma, 1) if not g > 0), 0)  # binary64 only
    if bad and len(set(xs)) < len(xs):
        raise ZeroNormError("a gamma_k is not positive: coincident nodes")
    if bad:  # at distinct nodes
        raise ZeroNormError(f"gamma_{bad} underflows binary64: the weights span too wide a range")
    return JacobiData(beta=tuple(beta), gamma=tuple(gamma))


def _next_primitive(xu, scale, u, u_prev, beta, ratio):
    """The vector xu / scale - beta u - ratio u_prev, for integer vectors
    xu, u, u_prev and rationals beta, ratio, as (g, f): g a primitive
    integer vector (zero if the vector is) and f a rational with
    vector = f g."""
    den = math.lcm(scale, beta.denominator, ratio.denominator)
    c1, c0, cp = den // scale, den // beta.denominator, den // ratio.denominator
    c0, cp = c0 * beta.numerator, cp * ratio.numerator
    g = [c1 * a - c0 * b - cp * c for a, b, c in zip(xu, u, u_prev)]
    content = math.gcd(*g)
    if content > 1:
        g = [v // content for v in g]
    return g, Fraction(content, den)


def _stieltjes_exact(xs, omega):
    """beta, gamma over Fraction from P_{k+1} = (x - beta_k) P_k
    - gamma_k P_{k-1} on the values at the nodes, with
    beta_k = <x P_k, P_k> / h_k and gamma_k = h_k / h_{k-1}.  The nodes and
    weights are scaled to integers x_j = X_j / D, w_j ~ W_j once; P_k(x_j)
    = s_k u_kj with u_k primitive, and only t_k = s_k / s_{k-1} is kept,
    since h_k ~ s_k^2 sum_j W_j u_kj^2."""
    (scale, nodes), (_, weights) = integer_grid(xs), integer_grid(omega)
    n = len(xs)
    u, u_prev, ratio = [1] * n, [0] * n, Fraction(0)
    t, norm_prev = Fraction(1), 1
    beta, gamma = [], []
    for k in range(n):
        wuu = [w * a * a for w, a in zip(weights, u)]
        norm = sum(wuu)
        beta.append(Fraction(sum([x * q for x, q in zip(nodes, wuu)]), scale * norm))
        if k:
            ratio = t * norm / norm_prev  # gamma_k s_{k-1} / s_k
            gamma.append(ratio * t)
        if k + 1 == n:
            break
        xu = [x * a for x, a in zip(nodes, u)]
        u_prev, (u, t) = u, _next_primitive(xu, scale, u, u_prev, beta[k], ratio)
        if not t:
            raise ZeroNormError(f"P_{k + 1} vanishes at every node: coincident nodes")
        norm_prev = norm
    return beta, gamma


def _rkpw(xs, omega):
    """beta, gamma by RKPW (Gragg & Harrod, Numer. Math. 44 (1984); Gautschi
    (2004), section 2.2.3), over any ordered field: each added node
    borders the Jacobi matrix of the measure so far, and Givens rotations in
    squared form (gsq/sigsq: cosine/sine, pisq: bulge, gamma_k:
    off-diagonal, all squared) chase the bulge down in O(k) with + - * /
    only."""
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
    return beta, gamma[1:]


def _recurrence_polys(beta, gamma, one):
    """P_0..P_n by the recurrence on coefficient lists, in the field of one."""
    p_prev, p = [], [one]
    out = [p]
    for bk, gk in zip(beta, (0, *gamma)):  # P_{-1} = 0 absorbs gamma_0
        nxt = poly_sub(poly_shift(p), poly_scale(p, bk))
        p_prev, p = p, poly_sub(nxt, poly_scale(p_prev, gk))
        out.append(p)
    return tuple(map(tuple, out))

