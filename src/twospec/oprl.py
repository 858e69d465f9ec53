"""Quadrature moments, the monic three-term recurrence, and Jacobi matrices.

Given strictly positive weights on the real nodes, the discrete
Gram-Schmidt (Stieltjes) recursion produces the recurrence coefficients
beta_k, gamma_k and the monic family P_0..P_n; the n-by-n Jacobi matrix
carries beta on the diagonal, ones on the superdiagonal and gamma on the
subdiagonal, and its order-k leading block has characteristic polynomial
P_k.

The inner product is the discrete sum  <p, q> = sum_j w_j p(x_j) q(x_j),
never a moment-matrix factorization: it matches the construction exactly in
rational arithmetic and avoids ill-conditioned Hankel matrices in binary64.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Three-term recurrence output: beta_0..beta_{n-1}, gamma_1..gamma_{n-1}
    (all positive), and the monic family P_0..P_n."""

    beta: tuple
    gamma: tuple
    polys: tuple

    @property
    def n(self) -> int:
        return len(self.beta)

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
    P_n always comes out as prod_j (x - x_j).  Exact when the inputs are
    rational.  Node values of each P_k are carried along with the value
    recurrence, so no Horner re-evaluation is needed.

    In binary64 each new value vector is reorthogonalized against all
    previous ones (coefficients corrected to match).  The corrections are
    identically zero in exact arithmetic; without them, measures whose
    weights span many orders of magnitude lose all orthogonality after a
    few dozen steps.
    """
    if len(omega) != len(xs):
        raise LengthMismatchError(f"{len(omega)} weights for {len(xs)} nodes")
    xs, omega = coerce_real_field(xs, omega)
    n = len(xs)
    exact = is_exact_scalar(xs[0]) if n else True

    beta, gamma = [], []
    one = 1 if exact else 1.0  # typed, so binary64 output holds no "1"
    values = [[one] * n]  # values[k][j] = P_k(x_j)
    polys = [[one]]
    norms = [sum(omega)]  # norms[k] = h_k
    if not norms[0] > 0:
        raise ZeroNormError("total mass is not positive")
    h0 = norms[0]
    v_prev, v_cur = [0] * n, values[0]
    p_prev, p_cur = None, polys[0]

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
            p_next = poly_sub(poly_shift(p_cur), poly_scale(p_cur, bk))
            v_next = [(xs[j] - bk) * v_cur[j] for j in range(n)]
        else:
            gk = h_cur / norms[k - 1]
            gamma.append(gk)
            p_next = poly_sub(
                poly_sub(poly_shift(p_cur), poly_scale(p_cur, bk)),
                poly_scale(p_prev, gk),
            )
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
                    p_next = poly_sub(p_next, poly_scale(polys[l], c))
        values.append(v_next)
        polys.append(p_next)
        p_prev, p_cur = p_cur, p_next
        v_prev, v_cur = v_cur, v_next
        if k + 1 < n:
            norms.append(sum(omega[j] * v_cur[j] * v_cur[j] for j in range(n)))

    return JacobiData(
        beta=tuple(beta),
        gamma=tuple(gamma),
        polys=tuple(MonicPolynomial(tuple(p)) for p in polys),
    )


def jacobi_matrix(data: JacobiData) -> tuple:
    """Dense n-by-n monic-recurrence layout: beta diagonal, 1 superdiagonal,
    gamma subdiagonal."""
    n = data.n
    zero = data.beta[0] * 0
    one = zero + 1
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
