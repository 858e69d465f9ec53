"""Trigonometric moments, Verblunsky recovery, the Szego recurrence, and
unitary pentadiagonal matrices.

From strictly positive weights on distinct unit-circle nodes, the truncated
trigonometric moments determine the Verblunsky coefficients alpha_k (all in
the open unit disk).  A boundary parameter b on the unit circle closes the
finite model: the degree-l paraorthogonal polynomial is
``Psi_l(z) = z Phi_{l-1}(z) - conj(b) Phi*_{l-1}(z)`` and the matching
unitary pentadiagonal matrix has characteristic polynomial Psi_l up to a
unimodular constant.

All circle-path arithmetic is complex binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import AlphaOutOfDiskError, LengthMismatchError, ZeroDenominatorError
from .poly import poly_scale, poly_shift, poly_sub, power_sums
from .scalars import plain_sum

# |alpha| at or above 1 - this margin is an error, never a clamp.
DISK_MARGIN = 1e-12
# Relative threshold on the moment-functional denominator <Phi_k, Phi_k>.
DENOM_REL = 1e-13


@dataclass(frozen=True)
class VerblunskyData:
    """Szego recurrence coefficients: alpha_0..alpha_{n-2} in the open disk
    and the boundary parameter b (unimodular, possibly unset while only the
    alpha part is known).  rho_k = sqrt(1 - |alpha_k|^2) is derived from
    alpha on first use."""

    alpha: tuple
    b: complex | None

    @cached_property
    def rho(self) -> tuple:
        return tuple(math.sqrt(1.0 - abs(a) ** 2) for a in self.alpha)


def trig_moments(zetas, omega) -> tuple:
    """Trigonometric moments mu_k = sum_j w_j zeta_j^k for k = 0..n-1."""
    return tuple(power_sums(zetas, [complex(w) for w in omega], len(zetas)))


def _advance(phi, phi_star, alpha_k):
    """One Szego step: Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k and
    Phi*_{k+1} = Phi*_k - alpha_k z Phi_k."""
    z_phi = poly_shift(phi)
    nxt = poly_sub(z_phi, poly_scale(phi_star, alpha_k.conjugate()))
    nxt_star = poly_sub(phi_star, poly_scale(z_phi, alpha_k))
    return nxt, nxt_star


def verblunsky_from_moments(mu) -> VerblunskyData:
    """Recover alpha_0..alpha_{len(mu)-2} from the trigonometric moments
    ``mu`` (mu_0 first) through the moment-functional recursion.

    With L(z^i) = mu_i, each step solves conj(alpha_k) = L(z Phi_k) /
    L(Phi*_k); the denominator equals <Phi_k, Phi_k> and stays positive for
    a measure with enough support points.  ZeroDenominatorError when it
    does not, mu_0 = <Phi_0, Phi_0> <= 0 included.  Returns the alpha part
    only (``b`` unset).
    """

    def functional(coeffs):
        return plain_sum(map(mul, coeffs, mu))

    mu0 = mu[0].real
    if not mu0 > 0:
        raise ZeroDenominatorError("norm of Phi_0 (mu_0) is not positive")
    phi, phi_star = [1.0 + 0.0j], [1.0 + 0.0j]
    alpha = []
    for k in range(len(mu) - 1):
        den = functional(phi_star)
        if abs(den) <= DENOM_REL * mu0:
            raise ZeroDenominatorError(f"norm of Phi_{k} vanished")
        a = (functional(poly_shift(phi)) / den).conjugate()
        if abs(a) >= 1.0 - DISK_MARGIN:
            raise AlphaOutOfDiskError(
                f"|alpha_{k}| = {abs(a)!r}: weights invalid or too few "
                "support points"
            )
        alpha.append(a)
        phi, phi_star = _advance(phi, phi_star, a)
    return VerblunskyData(alpha=tuple(alpha), b=None)


def boundary_param(zs) -> complex:
    """Unimodular parameter fixed by a prescribed zero set:
    b = -conj(prod_j (-zeta_j)) = (-1)^(|Z|+1) prod_j conj(zeta_j)."""
    if not len(zs):
        raise ValueError("empty zero set")
    prod = 1.0 + 0.0j
    for z in zs:
        prod *= complex(z)
    b = -((-1) ** len(zs)) * prod.conjugate()
    return b / abs(b)


def _check_alpha(alpha):
    for k, a in enumerate(alpha):
        if abs(a) >= 1.0 - DISK_MARGIN:
            raise AlphaOutOfDiskError(f"|alpha_{k}| = {abs(a)!r}")


def szego_popuc(alpha, b: complex, ell: int) -> tuple:
    """Ascending coefficients of the degree-``ell`` paraorthogonal polynomial
    Psi_l(z) = z Phi_{l-1}(z) - conj(b) Phi*_{l-1}(z); uses alpha_0..alpha_{l-2}."""
    if ell < 1:
        raise ValueError("degree must be at least 1")
    if len(alpha) < ell - 1:
        raise LengthMismatchError(f"need {ell - 1} alphas, got {len(alpha)}")
    _check_alpha(alpha[: ell - 1])
    phi, phi_star = [1.0 + 0.0j], [1.0 + 0.0j]
    for a in alpha[: ell - 1]:
        phi, phi_star = _advance(phi, phi_star, complex(a))
    return tuple(poly_sub(poly_shift(phi), poly_scale(phi_star, complex(b).conjugate())))


def cmv_matrix(alpha, b: complex) -> tuple:
    """Unitary pentadiagonal matrix C(alpha_0, .., alpha_{n-2}, b), n =
    len(alpha) + 1, as n band rows of 5 cells: entry (i, j) at [i][j - i + 2],
    and a cell whose column falls outside 0..n-1 holds 0j.

    Assembled as the banded product L * M over the extended parameter list
    (alpha_0, ..., alpha_{n-2}, b) with rho_{n-1} = 0: Theta_k is the 2x2 block
    [[conj(a_k), rho_k], [rho_k, -a_k]] at rows (k, k+1), L holds the even-k
    blocks, M = [1] + odd-k blocks, and the leftover 1x1 slot (in L or M by
    parity) is [conj(b)].  Both are kept as band rows, (i, t) at [i][t - i + 1].
    """
    _check_alpha(alpha)
    params = [complex(a) for a in alpha] + [complex(b)]
    n = len(params)
    rhos = [math.sqrt(1.0 - abs(a) ** 2) for a in params[:-1]] + [0.0]

    def factor(start):
        rows = [[0.0 + 0.0j] * 3 for _ in range(n)]
        for d in range(start):
            rows[d][1] = 1.0 + 0.0j
        for k in range(start, n, 2):
            if k + 1 < n:
                a, r = params[k], complex(rhos[k])
                rows[k][1:] = a.conjugate(), r
                rows[k + 1][:2] = r, -a
            else:
                rows[k][1] = params[-1].conjugate()
        return rows

    lf, mf = factor(0), factor(1)
    # Entry (i, j) sums lf(i, t) * mf(t, j) from 0j over t within one of i,
    # in increasing t, zero terms included: mf row t adds into cells t - i + 1
    # .. t - i + 3.  A cell outside the matrix adds only 0j factor cells.
    prod = []
    for i in range(n):
        row = [0j] * 5
        for t in range(max(i - 1, 0), min(i + 2, n)):
            lt, (m0, m1, m2), c = lf[i][t - i + 1], mf[t], t - i + 1
            row[c] += lt * m0
            row[c + 1] += lt * m1
            row[c + 2] += lt * m2
        prod.append(tuple(row))
    return tuple(prod)
