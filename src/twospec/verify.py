"""Independent verification of reconstructions.

The prescribed points are the spectrum of the order-k matrix iff its monic
characteristic polynomial P_k is prod_j (x - z_j) over them.  Each check is
one formula for both arithmetic modes, which choose only the tolerance:
zero in rational mode, the profile's in binary64.  Line values run on their
integer grid (``scalars.integer_grid``; D = 1 in binary64).  The residuals:

* kernel_residual   -- max_k |(A w)_k| / sum_j |A_kj w_j|, componentwise, so
  the smallest weights count as much as the largest; on the line over grid
  rows and weights, whose scales cancel (a nonzero ratio stays a Fraction)
* poly_match_*      -- max coefficient deviation from the expanded zero
  product / max(1, largest target coefficient); on the line prod_j (t - X_j)
  is expanded in grid integers q_k, and c_k = q_k / D^(n-k)
* spectrum_residual -- rational: poly_match of the same order, exactly.
  Binary64: max_j |P_k(z_j)| / prod_{i != j} |z_j - z_i| / g_j, with P_k(z_j)
  run by its recurrence (three-term beta/gamma on the line, Szego on alpha
  closed by b on the circle), never by an eigensolver.  It is the
  first-order distance from z_j to the nearest zero of P_k in units of g_j,
  the distance from z_j to its nearest other prescribed point of either set
  (angular on the circle): at most tol means an eigenvalue within
  tol * g_j of each point.  The recurrence is rescaled by powers of two
  outside [2^-400, 2^400], the product summed as logarithms: no overflow.
* unitarity_defect  -- circle: the larger of ||C C* - I||_F and the largest
  entry deviation of C from the CMV product of (alpha, b), both band rows

The verdict rule of both settings: coefficients_ok, and every gating
residual (kernel, spectrum n and m, unitarity on the circle) at most the
tolerance; a NaN or infinite one reads None and fails.  poly_match only
reports in binary64: a monic degree-k polynomial vanishing at k distinct
points is their product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import mul, ne, sub

from . import kernel as _kernel
from .errors import AlphaOutOfDiskError, LengthMismatchError
from .interlacing import TWO_PI, CircleSpectrumPair, RealSpectrumPair
from .oprl import JacobiData
from .poly import poly_from_roots
from .popuc import DISK_MARGIN, VerblunskyData, boundary_param, cmv_matrix, szego_popuc
from .scalars import coerce_real_field, integer_grid, is_exact_scalar, off_grid, plain_sum

# The arithmetic modes, as reports and documents name them.
RATIONAL = "rational"
FLOAT64 = "float64"


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
    """Residuals certifying one reconstruction (None where not finite);
    ``verdict`` is True iff ``failures`` is empty.  ``failures`` names each
    failed check with its value, as in ``spectrum_residual_n=2.6e-08``; it
    is not written to solution files.  ``warnings`` stays empty."""

    mode: str
    profile: Profile
    kernel_residual: float | None
    poly_match_n: float | None
    poly_match_m: float | None
    spectrum_residual_n: float | None
    spectrum_residual_m: float | None
    unitarity_defect: float | None
    coefficients_ok: bool
    verdict: bool
    warnings: tuple = ()
    failures: tuple = field(default=(), compare=False)


# The numeric fields of a VerificationReport, as solution files name them.
RESIDUALS = (
    "kernel_residual",
    "poly_match_n",
    "poly_match_m",
    "spectrum_residual_n",
    "spectrum_residual_m",
    "unitarity_defect",
)


def _as_float(x) -> float:
    try:
        return float(abs(x))
    except OverflowError:
        return math.inf


def _finite(x):
    v = math.nan if x is None else _as_float(x)
    return v if math.isfinite(v) else None


def _report(exact, profile, coefficients_ok, gating, poly_n, poly_m):
    """The one verdict rule: ``coefficients_ok`` and every gating residual
    at most the tolerance (zero in rational mode; NaN never is)."""
    tol = 0 if exact else profile.tolerance
    failures = tuple(
        f"{name}={_as_float(r):.2g}" for name, r in gating.items() if not r <= tol
    )
    if not coefficients_ok:
        failures = ("coefficients_ok=False",) + failures
    values = dict(unitarity_defect=None, poly_match_n=poly_n, poly_match_m=poly_m)
    return VerificationReport(
        mode=RATIONAL if exact else FLOAT64,
        profile=profile,
        coefficients_ok=coefficients_ok,
        verdict=not failures,
        failures=failures,
        **{name: _finite(r) for name, r in {**values, **gating}.items()},
    )


def _kernel_residual(rows, omega):
    """max over rows of |sum_j a_j w_j| / sum_j |a_j w_j|; the scale is
    taken only for a nonzero row sum, so an exact zero row costs one sum."""
    ratios = []
    for row in rows:
        terms = list(map(mul, row, omega))
        total = plain_sum(terms)  # nonzero only if some term, so the scale, is
        ratios.append(off_grid(abs(total), plain_sum(map(abs, terms))) if total else abs(total))
    return _worst(ratios)


def _zero_product(points):
    """Coefficients of prod_j (t - z_j), expanded on the integer grid."""
    scale, grid = integer_grid(points)
    return [off_grid(q, scale ** (len(grid) - k)) for k, q in enumerate(poly_from_roots(grid))]


def _poly_residual(coeffs, target):
    res = max(abs(c - t) for c, t in zip(coeffs, target))
    return res / max(1, max(abs(t) for t in target))  # 1.0 would round a Fraction


def _gaps(values, period=None):
    """Distance from each value to its nearest other one, cyclic over
    ``period`` when given."""
    order = sorted(range(len(values)), key=values.__getitem__)
    s = [values[i] for i in order]
    edge = s[0] + period - s[-1] if period else math.inf
    d = [edge] + [b - a for a, b in zip(s, s[1:])] + [edge]
    return [g for _, g in sorted(zip(order, map(min, d, d[1:])))]


def _worst(values):
    """max (0 for none), but NaN as soon as one value is NaN."""
    values = list(values)
    return math.nan if any(map(ne, values, values)) else max(values, default=0)


def unitarity_defect(rows):
    """Frobenius norm of C C* - I for C as ``cmv_matrix`` band rows.  Rows i
    and j share a column only when |i - j| <= 4: row i meets those rows in
    ascending order, over their shared nonzero cells, and any other pair
    adds zero.  So the sum is the dense one over all row pairs, bit for bit."""
    nonzero = [{k: v for k, v in enumerate(r, i - 2) if v} for i, r in enumerate(rows)]
    acc = 0.0
    for i, ri in enumerate(nonzero):
        for j in range(max(i - 4, 0), min(i + 5, len(rows))):
            rj = nonzero[j]
            s = plain_sum([v * rj[k].conjugate() for k, v in ri.items() if k in rj])
            if i == j:
                s = s - 1
            acc += abs(s) ** 2
    return math.sqrt(acc)


def _rescaled(u, v, e):
    """u, v times the 2**-s that puts |v| in [1/2, 1), and e + s: exact."""
    f = math.ldexp(1.0, -(s := math.frexp(abs(v))[1]))
    return u * f, v * f, e + s


def _spectrum_residual(value, points, gaps):
    """max_j |P(z_j)| / prod_{i != j} |z_j - z_i| / gaps[j], where
    ``value(z)`` returns P(z) as (mantissa, power-of-two exponent); the
    product is taken as a sum of logarithms."""

    def term(j, z):
        try:
            p, e = value(z)
            others = points[:j] + points[j + 1 :]
            log_q = math.fsum(map(math.log2, map(abs, map(sub, repeat(z), others))))
            return abs(p) * 2.0 ** (e - log_q) / gaps[j]
        except (OverflowError, ValueError, ZeroDivisionError):  # log2(0): a coincidence
            return math.inf

    return _worst(term(j, z) for j, z in enumerate(points))


def verify_oprl(pair: RealSpectrumPair, omega, data: JacobiData, profile=STANDARD):
    """Check a real-line reconstruction end to end.

    (a) the weight vector is annihilated by the Vandermonde-type system;
    (b) P_n (resp. P_m) has the prescribed points as zeros: its
        coefficients equal those of the zero product in rational mode, and
        its recurrence evaluation passes the spectrum residual in binary64;
    (c) every gamma_k is positive.  In binary64 the coefficient match of
    P_n and P_m against the zero products is reported only.
    LengthMismatchError unless there are n weights, n betas and n - 1 gammas.
    """
    n, m = pair.n, pair.m
    if (len(omega), len(data.beta), len(data.gamma)) != (n, n, n - 1):
        raise LengthMismatchError(
            f"{len(omega)} weights, {len(data.beta)} betas and {len(data.gamma)} gammas, n = {n}"
        )
    xs, ys, omega = coerce_real_field(pair.xs, pair.ys, omega)
    exact, grid_omega = is_exact_scalar(omega[0]), integer_grid(omega)[1]
    gamma = (0, *data.gamma)
    poly_n = _poly_residual(data.polys[n], _zero_product(pair.xs))
    poly_m = _poly_residual(data.polys[m], _zero_product(pair.ys))

    def spectrum(k, points, gaps):
        def value(x):
            u, v, e = 0.0, 1.0, 0  # 2**-e (P_{j-1}, P_j)
            for b, g in zip(data.beta[:k], gamma):
                u, v = v, (x - b) * v - g * u
                if not 2.0**-400 <= abs(v) <= 2.0**400:
                    u, v, e = _rescaled(u, v, e)
            w, s = math.frexp(v or u)  # an exact zero keeps P_{k-1}'s exponent
            return (w if v else v), e + s

        return _spectrum_residual(value, points, gaps)

    if exact:
        spectrum_n, spectrum_m = poly_n, poly_m
    else:
        gaps = _gaps(pair.xs + pair.ys)
        spectrum_n = spectrum(n, pair.xs, gaps[:n])
        spectrum_m = spectrum(m, pair.ys, gaps[n:])
    gating = {
        "kernel_residual": _kernel_residual(_kernel.grid_system(xs, ys)[0], grid_omega),
        "spectrum_residual_n": spectrum_n,
        "spectrum_residual_m": spectrum_m,
    }
    coeff_ok = all(g > 0 for g in data.gamma)
    return _report(exact, profile, coeff_ok, gating, poly_n, poly_m)


def verify_popuc(
    pair: CircleSpectrumPair,
    omega,
    data: VerblunskyData,
    matrices,
    profile=STANDARD,
):
    """Check a circle reconstruction end to end.

    (a) the real weight vector is annihilated by the complex system;
    (b) Psi_n and Psi_m, run by the Szego recurrence on alpha with b_n =
        data.b (recomputed from the n-set when unset) and b_m recomputed
        from the m-set, vanish at every prescribed point of their order, to
        the spectrum residual;
    (c) both matrices, ``cmv_matrix`` band rows, are unitary and equal the
        CMV products of (alpha, b) (the unitarity defect; another shape is
        infinite); (d) every |alpha_k| < 1 and |b| = 1.  The coefficient
    match of Psi_n and Psi_m (read off ``data.szego``) against the zero
    products is reported only.  An alpha outside the disk fails (d); the
    coefficient match and the CMV product it leaves undefined read None.
    LengthMismatchError unless there are n weights and n - 1 alphas.
    """
    n, m = pair.n, pair.m
    if (len(omega), len(data.alpha)) != (n, n - 1):
        raise LengthMismatchError(f"{len(omega)} weights and {len(data.alpha)} alphas, n = {n}")
    alpha = [complex(a) for a in data.alpha]
    b_n = boundary_param(pair.zetas) if data.b is None else complex(data.b)
    b_m = boundary_param(pair.xis)

    def poly_match(k, b, points):
        try:
            psi = szego_popuc(alpha, b, k, data.szego)
        except AlphaOutOfDiskError:
            return None
        return _poly_residual(psi, poly_from_roots(points))

    def spectrum(k, b, points, gaps):
        steps = [(a, a.conjugate()) for a in alpha[: k - 1]]

        def value(z):
            u, v, e = 1.0, 1.0, 0  # 2**-e (Phi_j, Phi*_j)
            for a, a_bar in steps:
                u, v = z * u - a_bar * v, v - a * z * u
                if not 2.0**-400 <= abs(v) <= 2.0**400:
                    u, v, e = _rescaled(u, v, e)
            u, v, e = _rescaled(u, v, e)  # Phi*_j has no zero on the circle
            return z * u - b.conjugate() * v, e

        return _spectrum_residual(value, points, gaps)

    def defect(rows, k, b):
        if [len(r) for r in rows] != [5] * k:
            return math.inf
        try:
            want = cmv_matrix(alpha[: k - 1], b)
        except AlphaOutOfDiskError:
            return math.nan
        deviation = _worst(map(abs, map(sub, chain(*rows), chain(*want))))
        return _worst([unitarity_defect(rows), deviation])

    gaps = _gaps(list(pair.thetas) + list(pair.phis), TWO_PI)
    c_n, c_m = matrices
    gating = {
        "kernel_residual": _kernel_residual(_kernel.assemble_system(pair), omega),
        "spectrum_residual_n": spectrum(n, b_n, pair.zetas, gaps[:n]),
        "spectrum_residual_m": spectrum(m, b_m, pair.xis, gaps[n:]),
        "unitarity_defect": _worst([defect(c_n, n, b_n), defect(c_m, m, b_m)]),
    }
    coeff_ok = all(abs(a) < 1.0 - DISK_MARGIN for a in data.alpha) and (
        data.b is None or abs(abs(complex(data.b)) - 1.0) <= 1e-12
    )
    poly_n, poly_m = poly_match(n, b_n, pair.zetas), poly_match(m, b_m, pair.xis)
    return _report(False, profile, coeff_ok, gating, poly_n, poly_m)

