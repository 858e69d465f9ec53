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

from .errors import AlphaOutOfDiskError, LengthMismatchError, ZeroDenominatorError
from .linalg import unitarity_defect
from .poly import MonicPolynomial, poly_scale, poly_shift, poly_sub

# |alpha| at or above 1 - this margin is an error, never a clamp.
DISK_MARGIN = 1e-12
# Relative threshold on the moment-functional denominator <Phi_k, Phi_k>.
DENOM_REL = 1e-13


@dataclass(frozen=True)
class TrigMomentSequence:
    """Truncated trigonometric moments mu_0..mu_{n-1}; negative indices by
    Hermitian symmetry mu_{-k} = conj(mu_k)."""

    mu: tuple

    def __post_init__(self):
        if not self.mu:
            raise ValueError("need at least mu_0")
        mu0 = complex(self.mu[0])
        if not mu0.real > 0 or abs(mu0.imag) > 1e-12 * mu0.real:
            raise ValueError("mu_0 must be positive real")

    def __getitem__(self, k: int) -> complex:
        if k >= 0:
            return self.mu[k]
        return self.mu[-k].conjugate()

    @property
    def order(self) -> int:
        return len(self.mu) - 1


@dataclass(frozen=True)
class VerblunskyData:
    """Szego recurrence data: alpha_0..alpha_{n-2} in the open disk,
    rho_k = sqrt(1 - |alpha_k|^2), and the boundary parameter b (unimodular,
    possibly unset while only the alpha part is known).  The monic
    polynomials Phi_k and their reversals Phi*_k are derived from alpha on
    first use, as coefficient tuples."""

    alpha: tuple
    rho: tuple
    b: complex | None

    @cached_property
    def phi(self) -> tuple:
        return tuple(tuple(phi) for phi, _ in _szego(self.alpha))

    @cached_property
    def phi_star(self) -> tuple:
        return tuple(tuple(phi_star) for _, phi_star in _szego(self.alpha))


@dataclass(frozen=True)
class PentadiagonalUnitary:
    """Dense unitary matrix with bandwidth at most 2 on each side."""

    entries: tuple

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def defect(self) -> float:
        return unitarity_defect(self.entries)


def trig_moments(zetas, omega, count=None) -> TrigMomentSequence:
    """mu_k = sum_j w_j zeta_j^k for k = 0..count-1 (default n)."""
    n = len(zetas)
    if len(omega) != n:
        raise LengthMismatchError(f"{len(omega)} weights for {n} nodes")
    if count is None:
        count = n
    mu = []
    pw = [complex(w) for w in omega]
    for k in range(count):
        mu.append(sum(pw))
        if k + 1 < count:
            pw = [pw[j] * zetas[j] for j in range(n)]
    return TrigMomentSequence(mu=tuple(mu))


def _advance(phi, phi_star, alpha_k):
    """One Szego step: Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k and
    Phi*_{k+1} = Phi*_k - alpha_k z Phi_k."""
    z_phi = poly_shift(phi)
    nxt = poly_sub(z_phi, poly_scale(phi_star, alpha_k.conjugate()))
    nxt_star = poly_sub(phi_star, poly_scale(z_phi, alpha_k))
    return nxt, nxt_star


def _szego(alpha) -> list:
    """[(Phi_0, Phi*_0), .., (Phi_k, Phi*_k)] for k = len(alpha), as
    coefficient lists."""
    steps = [([1.0 + 0.0j], [1.0 + 0.0j])]
    for a in alpha:
        steps.append(_advance(*steps[-1], complex(a)))
    return steps


def verblunsky_from_moments(mu: TrigMomentSequence, count=None) -> VerblunskyData:
    """Recover alpha_0..alpha_{count-1} (default: order of ``mu``) through
    the moment-functional recursion.

    With L(z^i) = mu_i, each step solves conj(alpha_k) = L(z Phi_k) /
    L(Phi*_k); the denominator equals <Phi_k, Phi_k> and stays positive for
    a measure with enough support points.  Returns the alpha part only
    (``b`` unset).
    """
    if count is None:
        count = mu.order
    if count > mu.order:
        raise LengthMismatchError(
            f"recovering alpha_0..alpha_{count - 1} needs moments up to "
            f"mu_{count}, got order {mu.order}"
        )

    def functional(coeffs):
        return sum(c * mu[i] for i, c in enumerate(coeffs))

    mu0 = mu[0].real
    phi, phi_star = [1.0 + 0.0j], [1.0 + 0.0j]
    alpha, rho = [], []
    for k in range(count):
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
        rho.append(math.sqrt(1.0 - abs(a) ** 2))
        phi, phi_star = _advance(phi, phi_star, a)
    return VerblunskyData(alpha=tuple(alpha), rho=tuple(rho), b=None)


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


def szego_popuc(alpha, b: complex, ell: int) -> MonicPolynomial:
    """Degree-``ell`` paraorthogonal polynomial
    Psi_l(z) = z Phi_{l-1}(z) - conj(b) Phi*_{l-1}(z); uses alpha_0..alpha_{l-2}."""
    if ell < 1:
        raise ValueError("degree must be at least 1")
    if len(alpha) < ell - 1:
        raise LengthMismatchError(f"need {ell - 1} alphas, got {len(alpha)}")
    _check_alpha(alpha[: ell - 1])
    phi, phi_star = _szego(alpha[: ell - 1])[-1]
    psi = poly_sub(poly_shift(phi), poly_scale(phi_star, complex(b).conjugate()))
    return MonicPolynomial(tuple(psi))


def cmv_matrix(alpha, b: complex) -> PentadiagonalUnitary:
    """Unitary pentadiagonal matrix C(alpha_0, .., alpha_{n-2}, b), n =
    len(alpha) + 1.

    Assembled as L * M over the extended parameter list (alpha_0, ...,
    alpha_{n-2}, b) with rho_{n-1} = 0: Theta_k is the 2x2 block
    [[conj(a_k), rho_k], [rho_k, -a_k]] at rows (k, k+1), L holds the even-k
    blocks, M = [1] + odd-k blocks, and the leftover 1x1 slot (in L or M by
    parity) is [conj(b)].
    """
    _check_alpha(alpha)
    params = [complex(a) for a in alpha] + [complex(b)]
    n = len(params)
    rhos = [math.sqrt(1.0 - abs(a) ** 2) for a in params[:-1]] + [0.0]

    def factor(start):
        rows = [[0.0 + 0.0j] * n for _ in range(n)]
        for d in range(start):
            rows[d][d] = 1.0 + 0.0j
        k = start
        while k < n:
            if k + 1 < n:
                a, r = params[k], rhos[k]
                rows[k][k] = a.conjugate()
                rows[k][k + 1] = complex(r)
                rows[k + 1][k] = complex(r)
                rows[k + 1][k + 1] = -a
            else:
                rows[k][k] = params[-1].conjugate()
            k += 2
        return rows

    lf = factor(0)
    mf = factor(1)
    prod = tuple(
        tuple(sum(lf[i][t] * mf[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )
    return PentadiagonalUnitary(entries=prod)
