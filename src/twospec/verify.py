"""Independent verification of reconstructions, plus small brute-force
oracles.

Spectrum membership is certified by characteristic-polynomial residuals at
the prescribed points, never by running an eigensolver: for an order-k
matrix, sigma(M) = Z with |Z| = k iff the characteristic polynomial
vanishes on Z, and the residual route avoids any eigenvalue matching
ambiguity.

In rational mode every check is exact (a report passes only with residuals
identically zero); in float mode residuals are relative and compared
against a tolerance profile:

* kernel_residual  -- max |(A w)_k| / (||A||_inf ||w||_inf)
* poly_match_*     -- max coefficient deviation / max(1, largest target
                      coefficient magnitude)
* spectrum_residual (line)   -- |P_k(x)| / cancellation-free recurrence scale
* spectrum_residual (circle) -- raw max |det(z I - C)| (compared against
                      tolerance * order; the matrix is unitary, so the
                      determinant is already well scaled)
* unitarity_defect -- Frobenius norm of C C* - I
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernel as _kernel
from .errors import DimensionTooLargeError, RankDeficientError
from .interlacing import CircleSpectrumPair, RealSpectrumPair
from .linalg import det_bareiss, det_lu, mat_vec, rref_nullspace, unitarity_defect
from .oprl import JacobiData, charpoly_scale, eval_charpoly
from .poly import MonicPolynomial, poly_add, poly_from_roots, poly_mul, poly_scale
from .popuc import DISK_MARGIN, VerblunskyData, boundary_param, szego_popuc
from .scalars import is_exact_scalar

RATIONAL_MODE = "rational"
FLOAT_MODE = "float64"

# Pivots below this during determinant evaluation attach a condition warning.
SMALL_PIVOT = 1e-12
# Cofactor-expansion oracles refuse orders above this.
EXPANSION_LIMIT = 8


@dataclass(frozen=True)
class Profile:
    """Named residual tolerance applied uniformly by the verdict rule."""

    name: str
    tolerance: float

    @classmethod
    def custom(cls, tolerance: float) -> "Profile":
        return cls("custom", float(tolerance))


STRICT = Profile("strict", 1e-10)
STANDARD = Profile("standard", 1e-8)


@dataclass(frozen=True)
class VerificationReport:
    """Residuals certifying one reconstruction; ``verdict`` is True iff
    every residual clears the profile (exactly zero in rational mode)."""

    mode: str
    profile: Profile
    kernel_residual: float
    poly_match_n: float
    poly_match_m: float
    spectrum_residual_n: float
    spectrum_residual_m: float
    unitarity_defect: float | None
    coefficients_ok: bool
    verdict: bool
    warnings: tuple = ()


def _is_exact(values) -> bool:
    return all(is_exact_scalar(v) for v in values)


def _as_float(x) -> float:
    try:
        return float(abs(x))
    except OverflowError:
        return math.inf


def _kernel_residual(system, omega, exact):
    if system.rows == 0:
        return 0 if exact else 0.0
    res = max(abs(r) for r in mat_vec(system.entries, omega))
    if exact:
        return res
    norm_a = max(sum(abs(e) for e in row) for row in system.entries)
    norm_w = max(abs(w) for w in omega)
    return res / max(norm_a * norm_w, 1e-300)


def _poly_residual(coeffs, target, exact):
    width = max(len(coeffs), len(target))
    diffs = [
        (coeffs[i] if i < len(coeffs) else 0) - (target[i] if i < len(target) else 0)
        for i in range(width)
    ]
    res = max(abs(d) for d in diffs)
    if exact:
        return res
    scale = max(1.0, max(abs(t) for t in target))
    return res / scale


def verify_oprl(pair: RealSpectrumPair, omega, data: JacobiData, profile=STANDARD):
    """Check a real-line reconstruction end to end.

    (a) the weight vector is annihilated by the Vandermonde-type system;
    (b) P_n and P_m equal the prescribed zero products coefficientwise;
    (c) the recurrence evaluation of P_n (resp. P_m) vanishes at every
        prescribed point; (d) every gamma_k is positive.
    """
    n, m = pair.n, pair.m
    exact = _is_exact(list(pair.xs) + list(pair.ys) + list(omega))
    system = _kernel.assemble_system(pair)
    kernel_res = _kernel_residual(system, omega, exact)

    target_n = poly_from_roots(pair.xs)
    target_m = poly_from_roots(pair.ys)
    poly_n = _poly_residual(data.polys[n].coeffs, target_n, exact)
    poly_m = _poly_residual(data.polys[m].coeffs, target_m, exact)

    def spectrum(order, points):
        worst = 0
        for x in points:
            r = abs(eval_charpoly(data, order, x))
            if not exact:
                r = r / charpoly_scale(data, order, x)
            worst = max(worst, r)
        return worst

    spec_n = spectrum(n, pair.xs)
    spec_m = spectrum(m, pair.ys)
    coeff_ok = all(g > 0 for g in data.gamma)

    residuals = (kernel_res, poly_n, poly_m, spec_n, spec_m)
    if exact:
        verdict = coeff_ok and all(r == 0 for r in residuals)
    else:
        verdict = coeff_ok and all(r <= profile.tolerance for r in residuals)
    return VerificationReport(
        mode=RATIONAL_MODE if exact else FLOAT_MODE,
        profile=profile,
        kernel_residual=_as_float(kernel_res),
        poly_match_n=_as_float(poly_n),
        poly_match_m=_as_float(poly_m),
        spectrum_residual_n=_as_float(spec_n),
        spectrum_residual_m=_as_float(spec_m),
        unitarity_defect=None,
        coefficients_ok=coeff_ok,
        verdict=verdict,
    )


def verify_popuc(
    pair: CircleSpectrumPair,
    omega,
    data: VerblunskyData,
    matrices,
    profile=STANDARD,
):
    """Check a circle reconstruction end to end.

    (a) the real weight vector is annihilated by the complex system;
    (b) Psi_n and Psi_m match the prescribed zero products coefficientwise
        (boundary parameters recomputed from the zero sets);
    (c) |det(z I - C)| is small at every prescribed point of the matching
        matrix; (d) both matrices are unitary; (e) every |alpha_k| < 1 and
        |b| = 1.
    """
    n, m = pair.n, pair.m
    c_n, c_m = matrices
    rows_n = c_n.entries if hasattr(c_n, "entries") else tuple(c_n)
    rows_m = c_m.entries if hasattr(c_m, "entries") else tuple(c_m)

    system = _kernel.assemble_system(pair)
    kernel_res = _kernel_residual(system, omega, exact=False)

    b_n = boundary_param(pair.zetas)
    b_m = boundary_param(pair.xis)
    psi_n = szego_popuc(data.alpha, b_n, n)
    psi_m = szego_popuc(data.alpha, b_m, m)
    poly_n = _poly_residual(psi_n.coeffs, poly_from_roots(pair.zetas), exact=False)
    poly_m = _poly_residual(psi_m.coeffs, poly_from_roots(pair.xis), exact=False)

    warnings = []

    def spectrum(rows, points, label):
        # One tiny pivot is the expected signature of z in the spectrum (it
        # is the residual itself); two or more signal an untrustworthy
        # elimination and earn a condition warning.
        worst = 0.0
        for z in points:
            det, pivots = det_lu(_shifted(rows, z))
            small = [p for p in pivots if p < SMALL_PIVOT]
            if len(small) > 1:
                warnings.append(
                    f"{len(small)} pivots below {SMALL_PIVOT} while "
                    f"evaluating det(z I - {label})"
                )
            worst = max(worst, abs(det))
        return worst

    spec_n = spectrum(rows_n, pair.zetas, "C_n")
    spec_m = spectrum(rows_m, pair.xis, "C_m")
    unit = max(unitarity_defect(rows_n), unitarity_defect(rows_m))

    coeff_ok = all(abs(a) < 1.0 - DISK_MARGIN for a in data.alpha) and (
        data.b is None or abs(abs(complex(data.b)) - 1.0) <= 1e-12
    )
    tol = profile.tolerance
    verdict = (
        coeff_ok
        and kernel_res <= tol
        and poly_n <= tol
        and poly_m <= tol
        and spec_n <= tol * n
        and spec_m <= tol * max(m, 1)
        and unit <= tol
    )
    return VerificationReport(
        mode=FLOAT_MODE,
        profile=profile,
        kernel_residual=_as_float(kernel_res),
        poly_match_n=_as_float(poly_n),
        poly_match_m=_as_float(poly_m),
        spectrum_residual_n=spec_n,
        spectrum_residual_m=spec_m,
        unitarity_defect=unit,
        coefficients_ok=coeff_ok,
        verdict=verdict,
        warnings=tuple(warnings),
    )


def _shifted(rows, z):
    """z I - M."""
    n = len(rows)
    return [
        [(z if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
    ]


def brute_nullspace(system):
    """Nullspace basis of a SystemMatrix by generic row reduction: exact
    pivots for exact entries, a 1e-12 relative pivot threshold for floating
    ones.

    The dimension must come out as cols - rows (n - m on the line,
    n - m + 1 on the circle); a larger kernel means duplicated nodes or
    shared points upstream and raises RankDeficientError.
    """
    rows, cols = system.shape
    exact = _is_exact(e for row in system.entries for e in row)
    basis = rref_nullspace(system.entries, cols, tol=0.0 if exact else 1e-12)
    if len(basis) != cols - rows:
        raise RankDeficientError(f"rank {cols - len(basis)} below row count {rows}")
    return basis


def brute_charpoly(matrix, k: int) -> MonicPolynomial:
    """Characteristic polynomial of the order-k leading block by direct
    cofactor expansion (k <= EXPANSION_LIMIT)."""
    if k > EXPANSION_LIMIT:
        raise DimensionTooLargeError(
            f"expansion oracle limited to order {EXPANSION_LIMIT}"
        )
    rows = matrix.entries if hasattr(matrix, "entries") else matrix
    block = [
        [[-rows[i][j], 1] if i == j else [-rows[i][j]] for j in range(k)]
        for i in range(k)
    ]
    return MonicPolynomial(tuple(_poly_det(block)))


def _poly_det(cells):
    n = len(cells)
    if n == 0:
        return [1]
    if n == 1:
        return list(cells[0][0])
    acc = None
    for i in range(n):
        minor = [row[1:] for r, row in enumerate(cells) if r != i]
        term = poly_mul(cells[i][0], _poly_det(minor))
        if i % 2:
            term = poly_scale(term, -1)
        acc = term if acc is None else poly_add(acc, term)
    return acc


def brute_det(matrix, point):
    """det(point * I - M); LU with partial pivoting in float, fraction-free
    elimination in rational arithmetic."""
    rows = matrix.entries if hasattr(matrix, "entries") else matrix
    shifted = _shifted(rows, point)
    if _is_exact([e for r in shifted for e in r]):
        return det_bareiss(shifted)
    det, _ = det_lu(shifted)
    return det
