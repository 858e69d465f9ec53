"""Quadrature moments, the monic three-term recurrence, and its Jacobi band.

Given strictly positive weights on the real nodes, the recurrence
coefficients beta_k, gamma_k of the discrete measure are rebuilt from the
nodes and weights directly, never from a moment-matrix factorization, which
would be ill-conditioned in binary64.  Exact inputs run on the integer grids
x_j = X_j / D, w_j = W_j / E (``scalars.integer_grid``): moments are integer
power sums S_k = sum_j W_j X_j^k, each leaving as the Fraction
S_k / (E D^k), and the moment form of the Stieltjes procedure reads
beta_k and gamma_k off them and the coefficients of P_k, in the one pass of
the recurrence on primitive integer vectors that builds P_0..P_n.  Binary64
inputs (D = E = 1) run the square-root-free RKPW update, which solves this
inverse eigenvalue problem for the Jacobi matrix with Givens rotations.
The coefficients fix the rest: the monic family P_0..P_n follows by the
three-term recurrence, and they are the band of the n-by-n Jacobi matrix
(beta on the diagonal, ones above it, gamma below it; the writer alone
makes it dense), whose order-k leading block has characteristic
polynomial P_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

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
        (x - beta_k) P_k - gamma_k P_{k-1} in the field of beta (``Fraction``
        if empty); ``stieltjes`` hands exact data the family its pass built."""
        exact = not self.beta or is_exact_scalar(self.beta[0])
        return _recurrence_polys(self.beta, self.gamma, Fraction(1) if exact else 1.0)


def moments_real(xs, omega) -> tuple:
    """mu_k = sum_j w_j x_j^k = S_k / (E D^k) for k = 0..2n-1 (see above)."""
    (x_den, nodes), (w_den, weights) = map(integer_grid, coerce_real_field(xs, omega))
    sums = power_sums(nodes, weights, 2 * len(xs))
    return tuple(off_grid(s, w_den * x_den**k) for k, s in enumerate(sums))


def stieltjes(xs, omega) -> JacobiData:
    """beta/gamma of sum_j w_j delta_{x_j}.

    Over ``Fraction`` by the moment form of the Stieltjes procedure
    (Gautschi, Orthogonal Polynomials (2004), sections 2.1 and 2.2.3):
    beta_k and gamma_k are power sums paired with the coefficients of P_k,
    and the same pass builds P_0..P_n, which the returned data holds (other
    data runs the plain recurrence); a step costs O(k) integer products and
    one content gcd.  Over binary64 by RKPW (``_rkpw``), which needs no
    reorthogonalization.  Both give the exact coefficients over ``Fraction``.
    NonpositiveWeightError unless every weight is positive and finite
    (``kernel.check_weights``); ZeroNormError for no nodes, or when nodes
    coincide (a P_k of norm zero exactly; a gamma_k that is not positive,
    NaN too, in binary64), or when a binary64 gamma_k underflows to 0 at
    distinct nodes.  No threshold.
    """
    if len(omega) != len(xs):
        raise LengthMismatchError(f"{len(omega)} weights for {len(xs)} nodes")
    xs, omega = coerce_real_field(xs, omega)
    check_weights(omega)
    if not omega:
        raise ZeroNormError("total mass is not positive")
    if is_exact_scalar(xs[0]):
        beta, gamma, polys = _moment_stieltjes(xs, omega)
        data = JacobiData(beta=tuple(beta), gamma=tuple(gamma))
        data.__dict__["polys"] = polys  # no field: dataclasses.replace rebuilds it
        return data
    beta, gamma = _rkpw(xs, omega)
    bad = next((k for k, g in enumerate(gamma, 1) if not g > 0), 0)
    if bad and len(set(xs)) < len(xs):
        raise ZeroNormError("a gamma_k is not positive: coincident nodes")
    if bad:  # at distinct nodes
        raise ZeroNormError(f"gamma_{bad} underflows binary64: the weights span too wide a range")
    return JacobiData(beta=tuple(beta), gamma=tuple(gamma))


def _next_primitive(xu, u, u_prev, beta, ratio):
    """The primitive integer vector, a positive multiple, of
    xu - beta u - ratio u_prev (integer vectors, rational beta and ratio)."""
    den = math.lcm(beta.denominator, ratio.denominator)
    c0 = den // beta.denominator * beta.numerator
    cp = den // ratio.denominator * ratio.numerator
    g = [den * a - c0 * b - cp * c for a, b, c in zip(xu, u, u_prev)]
    content = math.gcd(*g)
    return [v // content for v in g] if content > 1 else g


def _moment_stieltjes(xs, omega):
    """beta, gamma and P_0..P_n over Fraction, in one pass of the recurrence
    on primitive integer vectors u_k, P_k = u_k / L_k with L_k = u_k[-1] > 0.
    With R_i = D^(2n-1-i) S_i (the power sums over one denominator),
    H_k = sum_i u_k[i] R_{i+k} and A_k = sum_i u_k[i] R_{i+k+1} are
    h_k = <P_k, P_k> = <P_k, x^k> and <P_k, x^(k+1)> times L_k E D^(2n-1), so
    beta_k = <x P_k, P_k> / h_k = A_k / H_k + u_k[k-1] / L_k (0 at k = 0) and
    gamma_k = h_k / h_{k-1} = H_k L_{k-1} / (H_{k-1} L_k).  Times L_k, x P_k
    is u_k shifted and gamma_k P_{k-1} is ratio u_{k-1}, ratio = H_k / H_{k-1}
    (0 at k = 0).  H_k = 0: P_k vanishes at every node."""
    (scale, nodes), (_, weights) = integer_grid(xs), integer_grid(omega)
    n = len(xs)
    sums = [s * scale ** (2 * n - 1 - i) for i, s in enumerate(power_sums(nodes, weights, 2 * n))]
    beta, gamma, polys = [], [], [(Fraction(1),)]
    u_prev, u, norm_prev = [], [1], 0
    for k in range(n):
        norm = sum(map(mul, u, sums[k : 2 * k + 1]))
        if not norm:
            raise ZeroNormError(f"P_{k} vanishes at every node: coincident nodes")
        first, lead = sum(map(mul, u, sums[k + 1 : 2 * k + 2])), u[-1]
        beta.append(Fraction(first * lead + (u[-2] * norm if k else 0), norm * lead))
        if k:
            gamma.append(Fraction(norm * u_prev[-1], norm_prev * lead))
        ratio = Fraction(norm, norm_prev) if k else Fraction(0)
        u_prev, u = u, _next_primitive([0, *u], [*u, 0], [*u_prev, 0, 0], beta[k], ratio)
        norm_prev = norm
        polys.append(tuple(Fraction(c, u[-1]) for c in u))
    return beta, gamma, tuple(polys)


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

