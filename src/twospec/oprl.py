"""Quadrature moments, the monic three-term recurrence, and Jacobi matrices.

Given strictly positive weights on the real nodes, the discrete
Gram-Schmidt (Stieltjes) recursion produces the recurrence coefficients
beta_k, gamma_k.  They fix the rest: the monic family P_0..P_n follows by
the three-term recurrence, and the n-by-n Jacobi matrix carries beta on the
diagonal, ones above it and gamma below it; its order-k leading block has
characteristic polynomial P_k.

The inner product is the discrete sum  <p, q> = sum_j w_j p(x_j) q(x_j),
never a moment-matrix factorization: it matches the construction exactly in
rational arithmetic and avoids ill-conditioned Hankel matrices in binary64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import LengthMismatchError, ZeroNormError
from .poly import MonicPolynomial, poly_scale, poly_shift, poly_sub
from .scalars import coerce_real_field, is_exact_scalar

# Float-mode abort threshold: h_k at or below this multiple of h_0 signals
# duplicated nodes or nonpositive weights.
ZERO_NORM_REL = 1e-13


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
    if len(omega) != len(xs):
        raise LengthMismatchError(f"{len(omega)} weights for {len(xs)} nodes")
    xs, omega = coerce_real_field(xs, omega)
    n = len(xs)
    if count is None:
        count = 2 * n
    mu = []
    pw = list(omega)
    for k in range(count):
        mu.append(sum(pw))
        if k + 1 < count:
            pw = [pw[j] * xs[j] for j in range(n)]
    return RealMomentSequence(mu=tuple(mu))


def stieltjes(xs, omega) -> JacobiData:
    """Discrete Gram-Schmidt on 1, x, x^2, ... against sum_j w_j delta_{x_j}.

    Per step: h_k = <P_k, P_k>, beta_k = <x P_k, P_k> / h_k,
    gamma_k = h_k / h_{k-1}, P_{k+1} = (x - beta_k) P_k - gamma_k P_{k-1}.
    Exact when the inputs are rational.  Only the node values P_k(x_j) are
    carried, by the value recurrence; the polynomials P_k themselves are
    derived from beta/gamma by ``JacobiData.polys``.

    In binary64 each new value vector is reorthogonalized against all
    previous ones.  The corrections are identically zero in exact
    arithmetic; without them, measures whose weights span many orders of
    magnitude lose all orthogonality after a few dozen steps, and
    beta/gamma with it.
    """
    if len(omega) != len(xs):
        raise LengthMismatchError(f"{len(omega)} weights for {len(xs)} nodes")
    xs, omega = coerce_real_field(xs, omega)
    n = len(xs)
    exact = is_exact_scalar(xs[0]) if n else True

    beta, gamma = [], []
    values = [[1] * n]  # values[k][j] = P_k(x_j)
    norms = [sum(omega)]  # norms[k] = h_k
    if not norms[0] > 0:
        raise ZeroNormError("total mass is not positive")
    h0 = norms[0]
    v_prev, v_cur = [0] * n, values[0]

    for k in range(n):
        h_cur = norms[k]
        if exact:
            if h_cur <= 0:
                raise ZeroNormError(f"h_{k} is not positive")
        elif not h_cur > ZERO_NORM_REL * h0:
            raise ZeroNormError(f"h_{k} fell below {ZERO_NORM_REL} * h_0")

        bk = sum(omega[j] * xs[j] * v_cur[j] * v_cur[j] for j in range(n)) / h_cur
        beta.append(bk)
        if k == 0:
            v_next = [(xs[j] - bk) * v_cur[j] for j in range(n)]
        else:
            gk = h_cur / norms[k - 1]
            gamma.append(gk)
            v_next = [(xs[j] - bk) * v_cur[j] - gk * v_prev[j] for j in range(n)]
        if not exact and k + 1 < n:
            for _ in range(2):  # "twice is enough" classical Gram-Schmidt
                for l in range(k + 1):
                    c = (
                        sum(omega[j] * v_next[j] * values[l][j] for j in range(n))
                        / norms[l]
                    )
                    if c == 0.0:
                        continue
                    v_next = [v_next[j] - c * values[l][j] for j in range(n)]
        values.append(v_next)
        v_prev, v_cur = v_cur, v_next
        if k + 1 < n:
            norms.append(sum(omega[j] * v_cur[j] * v_cur[j] for j in range(n)))

    return JacobiData(beta=tuple(beta), gamma=tuple(gamma))


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


def charpoly_scale(data: JacobiData, k: int, x) -> float:
    """Magnitude of the recurrence at ``x`` with all cancellation removed;
    the natural scale against which a float-mode P_k(x) residual is
    relative."""
    ax = abs(float(x))
    s_prev, s = 0.0, 1.0
    for j in range(k):
        nxt = (ax + abs(float(data.beta[j]))) * s
        if j > 0:
            nxt += abs(float(data.gamma[j - 1])) * s_prev
        s_prev, s = s, nxt
    return max(s, 1.0)
