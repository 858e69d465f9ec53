"""Vandermonde-type systems, their sparse kernel circuits, and the cone of
strictly positive weights.

The real-line system has entries ``A[k][j] = x_j^k * P_m(x_j)`` for
``k = 0..m-1`` (full row rank m); the circle system has entries
``A[k][j] = zeta_j^k * P_m(zeta_j) / zeta_j^(m-1)`` for ``k = 0..m-2``
(full row rank m-1).  Minimal-support kernel elements (circuits) come from
barycentric-weight formulas; a circuit supported on one index per band is
entrywise nonnegative after the global sign choice, and conical
combinations of those circuits that cover every index are exactly the
strictly positive solutions.  The sum of the whole one-per-band family
factors over the bands, so the default weight is computed in closed form in
O(n^2) whatever the family size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as _cartesian
from typing import Callable

from .errors import (
    DegenerateAngleError,
    NegativeCoefficientError,
    NonpositiveWeightError,
    NotCoveredError,
    ProblemFormatError,
    SharedPointError,
)
from .interlacing import (
    POINT_TOL,
    BandDecomposition,
    CircleSpectrumPair,
    RealSpectrumPair,
    bands_circle,
    bands_real,
    check_interlace_circle,
    check_interlace_real,
)
from .scalars import is_exact_scalar

REAL = "real"
CIRCLE = "circle"

SUM_ALL = "sum_all"
COEFFICIENTS = "coefficients"
COVER = "cover"
STRATEGIES = (SUM_ALL, COEFFICIENTS, COVER)

# Families at most this large are listed, and recorded circuit-by-circuit in
# results; larger ones are only counted or indexed, never enumerated.
LIST_LIMIT = 1000

_SIN_TOL = POINT_TOL / 2  # |sin(d/2)| matching the chord tolerance


@dataclass(frozen=True)
class SystemMatrix:
    """Dense coefficient matrix of the kernel system."""

    entries: tuple
    shape: tuple

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]


@dataclass(frozen=True)
class CircuitVector:
    """Sparse kernel generator: zero off ``support`` (1-based indices)."""

    support: tuple
    weights: tuple


@dataclass(frozen=True)
class WeightSelection:
    """How to combine admissible circuits into one strictly positive weight.

    ``coefficients`` maps the 1-based parameter index j to the scalar s_j
    multiplying the (j+1)-th admissible circuit in enumeration order; the
    first circuit always carries coefficient 1.  Unspecified parameters
    default to 0, so sparse maps are fine for huge families.
    """

    strategy: str = SUM_ALL
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class WeightResult:
    """A strictly positive kernel solution and the circuits that built it.

    ``circuits`` is ``None`` for a sum_all weight whose family has more than
    LIST_LIMIT members: its closed form needs no circuit, so none is built.
    """

    omega: tuple
    strategy: str
    family_size: int
    circuits: tuple | None


def _sign(x):
    return (x > 0) - (x < 0)


def _product_at(roots, x):
    """prod_r (x - root_r), evaluated factor by factor.

    Never via expanded coefficients: Horner on the expansion cancels
    catastrophically between well-separated roots in binary64, flipping
    signs of small circuit entries.
    """
    acc = 1
    for r in roots:
        acc = acc * (x - r)
    return acc


def assemble_system(pair) -> SystemMatrix:
    """Build the Vandermonde-type system annihilated by admissible weights."""
    return setting_of(pair).system(pair)


def _assemble_real(pair: RealSpectrumPair) -> SystemMatrix:
    n, m = pair.n, pair.m
    pmx = [_product_at(pair.ys, x) for x in pair.xs]
    for j, v in enumerate(pmx):
        if v == 0:
            raise SharedPointError(f"xs[{j}] is a zero of the m-set polynomial")
    rows = []
    pw = [1] * n
    for k in range(m):
        rows.append(tuple(pw[j] * pmx[j] for j in range(n)))
        if k + 1 < m:
            pw = [pw[j] * pair.xs[j] for j in range(n)]
    return SystemMatrix(entries=tuple(rows), shape=(m, n))


def _assemble_circle(pair: CircleSpectrumPair) -> SystemMatrix:
    n, m = pair.n, pair.m
    diag = []
    for j, z in enumerate(pair.zetas):
        if min(abs(z - w) for w in pair.xis) <= POINT_TOL:
            raise SharedPointError(f"zn[{j}] coincides with a zm point")
        diag.append(_product_at(pair.xis, z) / z ** (m - 1))
    rows = []
    pw = [1.0 + 0.0j] * n
    for k in range(m - 1):
        rows.append(tuple(pw[j] * diag[j] for j in range(n)))
        if k + 1 < m - 1:
            pw = [pw[j] * pair.zetas[j] for j in range(n)]
    return SystemMatrix(entries=tuple(rows), shape=(m - 1, n))


def admissible_size(bands: BandDecomposition) -> int:
    return math.prod(len(b) for b in bands.bands)


def iter_admissible(bands: BandDecomposition):
    """Admissible supports in lexicographic order (by band, then index)."""
    return _cartesian(*bands.bands)


def admissible_at(bands: BandDecomposition, k: int) -> tuple:
    """The k-th (0-based) admissible support without enumerating the rest."""
    if not 0 <= k < admissible_size(bands):
        raise IndexError(k)
    digits = []
    for b in reversed(bands.bands):
        k, d = divmod(k, len(b))
        digits.append(b[d])
    return tuple(reversed(digits))


def admissible_family(bands: BandDecomposition) -> tuple:
    """The full family of one-index-per-band supports.

    Each tuple is ascending (bands are consecutive runs); families above
    LIST_LIMIT are refused: iterate with iter_admissible or index with
    admissible_at instead.
    """
    size, family = family_listing(bands)
    if family is None:
        raise ValueError(
            f"admissible family has {size} members; iterate with "
            "iter_admissible instead"
        )
    return family


def family_listing(bands: BandDecomposition) -> tuple:
    """``(size, family)``; the family is listed only when it has at most
    LIST_LIMIT members, and is ``None`` above that."""
    size = admissible_size(bands)
    return size, tuple(iter_admissible(bands)) if size <= LIST_LIMIT else None


def circuit_real(pair: RealSpectrumPair, support) -> CircuitVector:
    """Sparse kernel element on a size-(m+1) support.

    Entries are ``1 / (P_m(x_j) * Q'(x_j))`` with Q the monic polynomial
    with roots at the supported nodes, then the global sign is flipped when
    the support entries' signs sum negative.  On a one-per-band support the
    result is entrywise nonnegative.
    """
    support = tuple(sorted(support))
    if len(set(support)) != pair.m + 1:
        raise ValueError("support must hold m+1 distinct indices")
    if not (1 <= support[0] and support[-1] <= pair.n):
        raise ValueError("support indices must lie in 1..n")
    # Off-support zeros in the pair's scalar field: "0" in rational output,
    # 0.0 in binary64; the sign flip below leaves them untouched.
    weights = [0 if is_exact_scalar(pair.xs[0]) else 0.0] * pair.n
    for j in support:
        x = pair.xs[j - 1]
        pmx = _product_at(pair.ys, x)
        if pmx == 0:
            raise SharedPointError(f"xs[{j - 1}] is a zero of the m-set polynomial")
        qprime = 1
        for i in support:
            if i != j:
                qprime *= x - pair.xs[i - 1]
        if qprime == 0:
            raise ValueError("duplicate nodes in support")
        weights[j - 1] = 1 / (pmx * qprime)
    if sum(_sign(weights[j - 1]) for j in support) < 0:
        for j in support:
            weights[j - 1] = -weights[j - 1]
    return CircuitVector(support=support, weights=tuple(weights))


def circuit_circle(pair: CircleSpectrumPair, support) -> CircuitVector:
    """Sparse real kernel element on a size-m support, via half-angle sines.

    Entries are ``1 / (prod_k sin((theta_j - phi_k)/2) * prod_{i != j}
    sin((theta_j - theta_i)/2))`` over the support, which keeps the kernel
    vector exactly real; the same global sign rule as on the line applies.
    """
    support = tuple(sorted(support))
    if len(set(support)) != pair.m:
        raise ValueError("support must hold m distinct indices")
    if not (1 <= support[0] and support[-1] <= pair.n):
        raise ValueError("support indices must lie in 1..n")
    weights = [0.0] * pair.n
    for j in support:
        th = pair.thetas[j - 1]
        denom = 1.0
        for ph in pair.phis:
            s = math.sin((th - ph) / 2.0)
            if abs(s) <= _SIN_TOL:
                raise SharedPointError(f"zn[{j - 1}] coincides with a zm point")
            denom *= s
        for i in support:
            if i == j:
                continue
            s = math.sin((th - pair.thetas[i - 1]) / 2.0)
            if abs(s) <= _SIN_TOL:
                raise DegenerateAngleError(f"zn[{j - 1}] and zn[{i - 1}] coincide")
            denom *= s
        weights[j - 1] = 1.0 / denom
    if sum(_sign(weights[j - 1]) for j in support) < 0:
        weights = [-w for w in weights]
    return CircuitVector(support=support, weights=tuple(weights))


def _sum_all_omega(pair, setting, bands: BandDecomposition, band_of: dict) -> list:
    """The sum of every admissible circuit, in O(n^2) without building one.

    The entries of a one-per-band circuit share one sign, so the entry at j
    is 1 / (|P_m(x_j)| prod_{i in S, i != j} d(x_j, x_i)) and the sum
    factors over the bands: omega_j = (1 / |P_m(x_j)|) prod_{r != band(j)}
    sum_{i in I_r} 1 / d(x_j, x_i), with d the setting's distance.
    """
    nodes, points = setting.coords(pair)
    dist, tol = setting.dist, setting.dist_tol
    omega = []
    for j, x in enumerate(nodes):
        factors = [dist(x, y) for y in points]
        pm = math.prod(factors)
        if pm == 0 or min(factors) <= tol:
            raise SharedPointError(f"node {j} coincides with an m-set point")
        acc = 1
        for r, band in enumerate(bands.bands):
            if r == band_of[j + 1]:
                continue
            ds = [dist(x, nodes[i - 1]) for i in band]
            if min(ds) <= tol:
                raise DegenerateAngleError(f"node {j} coincides with a node of band {r}")
            acc *= sum([1 / d for d in ds])
        omega.append(acc / pm)
    return omega


def positive_weight(
    pair, bands: BandDecomposition, selection: WeightSelection
) -> WeightResult:
    """Combine admissible circuits into one strictly positive kernel vector.

    sum_all is the sum of every admissible circuit with coefficient 1, taken
    in closed form (the circuits themselves are built only to be recorded,
    for families of at most LIST_LIMIT members); coefficients takes the first
    circuit plus the user-weighted ones and validates that every index is
    covered by a positively weighted circuit; cover adds, for each index j,
    one circuit through j (the first index of every other band).  Raises
    NonpositiveWeightError when an entry is not positive and finite, as when
    circuit entries under- or overflow binary64.
    """
    n = pair.n
    setting = setting_of(pair)
    circuit = setting.circuit
    size = admissible_size(bands)
    band_of = {j: r for r, b in enumerate(bands.bands) for j in b}
    omega = [0] * n

    def combine(chosen):
        vecs = []
        for coeff, support in chosen:
            vec = circuit(pair, support)
            for j in vec.support:
                omega[j - 1] = omega[j - 1] + coeff * vec.weights[j - 1]
            vecs.append(vec)
        return tuple(vecs)

    if selection.strategy == SUM_ALL:
        omega = _sum_all_omega(pair, setting, bands, band_of)
        family = family_listing(bands)[1]
        circuits = None if family is None else tuple(circuit(pair, s) for s in family)
    elif selection.strategy == COEFFICIENTS:
        coeffs = dict(selection.coefficients or {})
        for jdx, value in coeffs.items():
            if not (isinstance(jdx, int) and 1 <= jdx <= size - 1):
                raise ProblemFormatError(f"no parameter s{jdx} for a family of size {size}")
            if value < 0:
                raise NegativeCoefficientError(f"s{jdx} is negative")
        chosen = [(1, admissible_at(bands, 0))] + [
            (c, admissible_at(bands, k)) for k, c in sorted(coeffs.items()) if c > 0
        ]
        covered = {j for _, support in chosen for j in support}
        missing = sorted(set(range(1, n + 1)) - covered)
        if missing:
            raise NotCoveredError(
                f"index {missing[0]} is not covered by a positively "
                "weighted circuit"
            )
        circuits = combine(chosen)
    else:  # COVER
        firsts = [b[0] for b in bands.bands]
        circuits = combine(
            (1, tuple(j if r == band_of[j] else f for r, f in enumerate(firsts)))
            for j in range(1, n + 1)
        )

    # A Fraction compared with inf is never converted to float (no overflow).
    for j, w in enumerate(omega):
        if not 0 < w < math.inf:
            raise NonpositiveWeightError(f"omega[{j}] is not positive and finite")
    return WeightResult(tuple(omega), selection.strategy, size, circuits)


@dataclass(frozen=True)
class Setting:
    """The per-setting steps of the construction: the interlacing check,
    the band decomposition of an accepted pair, the kernel system, the
    circuit on one support, and the pieces of the closed-form sum_all
    weight: the node and m-set coordinates, their distance, and the
    distance at or below which two points coincide."""

    name: str
    check: Callable
    bands: Callable
    system: Callable
    circuit: Callable
    coords: Callable
    dist: Callable
    dist_tol: float


_REAL = Setting(
    REAL, check_interlace_real, bands_real, _assemble_real, circuit_real,
    lambda pair: (pair.xs, pair.ys), lambda x, y: abs(x - y), 0,
)  # fmt: skip
_CIRCLE = Setting(
    CIRCLE, check_interlace_circle, lambda pair, verdict: bands_circle(pair),
    _assemble_circle, circuit_circle, lambda pair: (pair.thetas, pair.phis),
    lambda x, y: abs(math.sin((x - y) / 2.0)), _SIN_TOL,
)  # fmt: skip


def setting_of(pair) -> Setting:
    """The setting of a spectrum pair, chosen by its type."""
    if isinstance(pair, RealSpectrumPair):
        return _REAL
    if isinstance(pair, CircleSpectrumPair):
        return _CIRCLE
    raise TypeError("expected a RealSpectrumPair or CircleSpectrumPair")
