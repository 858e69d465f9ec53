"""Trigonometric moments, Verblunsky recovery, the Szego recurrence, and
unitary pentadiagonal matrices.

From strictly positive weights on distinct unit-circle nodes, the truncated
trigonometric moments determine the Verblunsky coefficients alpha_k (all in
the open unit disk).  A boundary parameter b on the unit circle closes the
finite model: the degree-l paraorthogonal polynomial is
``Psi_l(z) = z Phi_{l-1}(z) - conj(b) Phi*_{l-1}(z)`` and the matching
unitary pentadiagonal matrix has characteristic polynomial Psi_l up to a
unimodular constant.  ``circle_parts`` closes a recovered record by b_n,
builds both matrices, and reads both Psi off the record's Szego family.

All circle-path arithmetic is complex binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul

from .errors import AlphaOutOfDiskError, LengthMismatchError, ZeroDenominatorError
from .poly import poly_scale, poly_shift, poly_sub, power_sums
from .scalars import plain_sum

# |alpha| at or above 1 - this margin is an error, never a clamp.
DISK_MARGIN = 1e-12
# Relative threshold on the moment-functional denominator <Phi_k, Phi_k>.
DENOM_REL = 1e-13
_ONE = ((1.0 + 0.0j,), (1.0 + 0.0j,))  # (Phi_0, Phi*_0): every Szego pass starts here


@dataclass(frozen=True)
class VerblunskyData:
    """Szego recurrence coefficients: alpha_0..alpha_{n-2} in the open disk
    and the boundary parameter b (unimodular, possibly unset while only the
    alpha part is known).  rho_k = sqrt(1 - |alpha_k|^2) and the Szego
    family are derived from alpha on first use."""

    alpha: tuple
    b: complex | None

    @cached_property
    def rho(self) -> tuple:
        return tuple(math.sqrt(1.0 - abs(a) ** 2) for a in self.alpha)

    @cached_property
    def szego(self) -> tuple:
        """(Phi_k, Phi*_k) for k = 0..len(alpha) in one Szego pass, or the
        recovery's own pairs; no field, so dataclasses.replace rebuilds it."""
        return tuple(accumulate(self.alpha, _advance, initial=_ONE))


def trig_moments(zetas, omega) -> tuple:
    """Trigonometric moments mu_k = sum_j w_j zeta_j^k for k = 0..n-1."""
    return tuple(power_sums(zetas, [complex(w) for w in omega], len(zetas)))


def _advance(pair, alpha_k):
    """One Szego step from (Phi_k, Phi*_k): Phi_{k+1} = z Phi_k -
    conj(alpha_k) Phi*_k and Phi*_{k+1} = Phi*_k - alpha_k z Phi_k."""
    (phi, phi_star), alpha_k = pair, complex(alpha_k)
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
    does not, mu_0 = <Phi_0, Phi_0> <= 0 included, or when ``mu`` is empty.
    Returns the alpha part (``b`` unset) and the pairs it built as ``szego``.
    """

    def functional(coeffs):
        return plain_sum(map(mul, coeffs, mu))

    mu0 = mu[0].real if mu else 0.0
    if not mu0 > 0:
        raise ZeroDenominatorError("norm of Phi_0 (mu_0) is not positive")
    pairs, alpha = [_ONE], []
    for k in range(len(mu) - 1):
        phi, phi_star = pairs[-1]
        den = functional(phi_star)
        if abs(den) <= DENOM_REL * mu0:
            raise ZeroDenominatorError(f"norm of Phi_{k} vanished")
        a = (functional(poly_shift(phi)) / den).conjugate()
        if not abs(a) < 1.0 - DISK_MARGIN:  # refuses a NaN too
            raise AlphaOutOfDiskError(
                f"|alpha_{k}| = {abs(a)!r}: weights invalid or too few "
                "support points"
            )
        alpha.append(a)
        pairs.append(_advance(pairs[-1], a))
    data = VerblunskyData(alpha=tuple(alpha), b=None)
    data.__dict__["szego"] = tuple(pairs)
    return data


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
        if not abs(a) < 1.0 - DISK_MARGIN:  # refuses a NaN too
            raise AlphaOutOfDiskError(f"|alpha_{k}| = {abs(a)!r}")


def circle_parts(pair, recovered: VerblunskyData) -> dict:
    """The CircleSolution fields that the pair and the ``recovered`` alphas
    fix: the record closed by b_n, b_m, C_n, C_m, Psi_n and Psi_m.  The
    closed record takes ``recovered``'s Szego family, the recovery's or one
    built once, and the Psi are read off it; C_n refuses an alpha outside
    the disk before any Szego step."""
    alpha, b_n, b_m = recovered.alpha, boundary_param(pair.zetas), boundary_param(pair.xis)
    c_n = cmv_matrix(alpha, b_n)
    data = VerblunskyData(alpha=alpha, b=b_n)
    data.__dict__["szego"] = family = recovered.szego
    return dict(
        verblunsky=data, b_m=b_m, c_n=c_n, c_m=cmv_matrix(alpha[: pair.m - 1], b_m),
        psi_n=szego_popuc(alpha, b_n, pair.n, family),
        psi_m=szego_popuc(alpha, b_m, pair.m, family),
    )


def szego_popuc(alpha, b: complex, ell: int, family=None) -> tuple:
    """Ascending coefficients of the degree-``ell`` paraorthogonal polynomial
    Psi_l(z) = z Phi_{l-1}(z) - conj(b) Phi*_{l-1}(z); uses alpha_0..alpha_{l-2},
    or reads Phi_{l-1} off ``family``, the ``szego`` of these alphas, if given."""
    if type(ell) is not int or ell < 1:  # bool excluded
        raise ValueError("degree must be an int of at least 1")
    if len(alpha) < ell - 1:
        raise LengthMismatchError(f"need {ell - 1} alphas, got {len(alpha)}")
    _check_alpha(alpha[: ell - 1])
    phi, phi_star = family[ell - 1] if family else reduce(_advance, alpha[: ell - 1], _ONE)
    return tuple(poly_sub(poly_shift(phi), poly_scale(phi_star, complex(b).conjugate())))


def cmv_matrix(alpha, b: complex) -> tuple:
    """Unitary pentadiagonal matrix C(alpha_0, .., alpha_{n-2}, b), n =
    len(alpha) + 1, as n band rows of 5 cells: entry (i, j) at [i][j - i + 2],
    and a cell whose column falls outside 0..n-1 holds 0j.

    The CMV entries of Cantero, Moral and Velazquez, with a_{-1} = -1, a_k =
    alpha_k, a_{n-1} = b, a_n = 0j and rho_{-1} = rho_{n-1} = 0: C = L M, L
    holding the even-k and M the odd-k blocks [[conj(a_k), rho_k], [rho_k,
    -a_k]] at rows (k, k+1).  For k even, row k has L entries (lo, hi) =
    (conj(a_k), rho_k) and row k+1 has (rho_k, -a_k), and both meet the same
    M entries at columns k-1..k+2: each cell is 0j plus one product, L entry
    first, lo rho_{k-1}, lo (-a_{k-1}), hi conj(a_{k+1}) and hi rho_{k+1}.
    The dense sum 0j + sum_t L(i, t) M(t, j) has the same bits, as its other
    terms have a zero factor: +-0 keeps a nonzero part, and all-zero parts
    sum to +0 (the -0.0 of M(0, 0) = -a_{-1} = 1-0j too).  Past the edge a
    zero rho or a_n makes the cell 0j.
    """
    _check_alpha(alpha)
    n = len(alpha) + 1
    # a_k at a[k] and rho_k at r[k] for k = -1..n: index -1 reads the last entry
    a = [complex(x) for x in alpha] + [complex(b), 0j, -1 + 0j]
    r = [complex(math.sqrt(1.0 - abs(x) ** 2)) for x in a[: n - 1]] + [0j, 0j]

    def row(i):
        k = i - i % 2  # L's block Theta_k covers rows k and k + 1
        lo, hi = (r[k], -a[k]) if i % 2 else (a[k].conjugate(), r[k])
        cells = (0j + lo * r[k - 1], 0j + lo * -a[k - 1],
                 0j + hi * a[k + 1].conjugate(), 0j + hi * r[k + 1])
        return cells + (0j,) if i % 2 else (0j,) + cells

    return tuple(map(row, range(n)))
