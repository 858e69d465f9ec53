"""Vandermonde-type systems, their sparse kernel circuits, and the cone of
strictly positive weights.

The real-line system has entries ``A[k][j] = x_j^k * P_m(x_j)`` for
``k = 0..m-1`` (full row rank m); the circle system has entries
``A[k][j] = zeta_j^k * P_m(zeta_j) / zeta_j^(m-1)`` for ``k = 0..m-2``
(full row rank m-1).  Minimal-support kernel elements (circuits) come from
barycentric-weight formulas; a circuit supported on one index per band is
entrywise nonnegative after the global sign choice, and conical
combinations of those circuits that cover every index are exactly the
strictly positive solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as _cartesian
from typing import Callable

from .errors import (
    DegenerateAngleError,
    NegativeCoefficientError,
    NotCoveredError,
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

# Above this family size the admissible family is never materialized:
# sum_all streams circuits and coefficients must be sparse.
STREAM_LIMIT = 10**6
# Families at most this large are recorded circuit-by-circuit in results.
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

    ``circuits`` is ``None`` when the family was streamed instead of
    materialized (size above LIST_LIMIT).
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
    size = 1
    for b in bands.bands:
        size *= len(b)
    return size


def iter_admissible(bands: BandDecomposition):
    """Admissible supports in lexicographic order (by band, then index)."""
    for combo in _cartesian(*bands.bands):
        yield tuple(combo)


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

    Each tuple is ascending (bands are consecutive runs); refuse to
    materialize families above STREAM_LIMIT.
    """
    size = admissible_size(bands)
    if size > STREAM_LIMIT:
        raise ValueError(
            f"admissible family has {size} members; iterate with "
            "iter_admissible instead"
        )
    return tuple(iter_admissible(bands))


def family_listing(bands: BandDecomposition) -> tuple:
    """``(size, family)``; the family is listed only when it has at most
    LIST_LIMIT members, and is ``None`` above that."""
    size = admissible_size(bands)
    return size, admissible_family(bands) if size <= LIST_LIMIT else None


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


def positive_weight(
    pair, bands: BandDecomposition, selection: WeightSelection
) -> WeightResult:
    """Combine admissible circuits into one strictly positive kernel vector.

    sum_all adds every admissible circuit with coefficient 1 (streamed when
    the family is large); coefficients takes the first circuit plus the
    user-weighted ones and validates that every index is covered by a
    positively weighted circuit; cover adds, for each index j, one circuit
    through j (the first index of every other band).
    """
    n = pair.n
    circuit = setting_of(pair).circuit
    size = admissible_size(bands)
    omega = [0] * n
    recorded = []

    def add(vec: CircuitVector, coeff=1):
        for j in vec.support:
            omega[j - 1] = omega[j - 1] + coeff * vec.weights[j - 1]

    if selection.strategy == SUM_ALL:
        family = family_listing(bands)[1]
        for support in iter_admissible(bands) if family is None else family:
            vec = circuit(pair, support)
            add(vec)
            if family is not None:
                recorded.append(vec)
        circuits = None if family is None else tuple(recorded)
    elif selection.strategy == COEFFICIENTS:
        coeffs = dict(selection.coefficients or {})
        for jdx, value in coeffs.items():
            if not (isinstance(jdx, int) and 1 <= jdx <= size - 1):
                raise ValueError(f"no parameter s{jdx} for a family of size {size}")
            if value < 0:
                raise NegativeCoefficientError(f"s{jdx} is negative")
        chosen = [(1, admissible_at(bands, 0))]
        for jdx in sorted(coeffs):
            if coeffs[jdx] > 0:
                chosen.append((coeffs[jdx], admissible_at(bands, jdx)))
        covered = set()
        for _, support in chosen:
            covered.update(support)
        missing = sorted(set(range(1, n + 1)) - covered)
        if missing:
            raise NotCoveredError(
                f"index {missing[0]} is not covered by a positively "
                "weighted circuit"
            )
        for coeff, support in chosen:
            vec = circuit(pair, support)
            add(vec, coeff)
            recorded.append(vec)
        circuits = tuple(recorded)
    else:  # COVER
        firsts = [b[0] for b in bands.bands]
        band_of = {}
        for r, b in enumerate(bands.bands):
            for j in b:
                band_of[j] = r
        for j in range(1, n + 1):
            support = list(firsts)
            support[band_of[j]] = j
            vec = circuit(pair, tuple(support))
            add(vec)
            recorded.append(vec)
        circuits = tuple(recorded)

    assert all(w > 0 for w in omega), "positive cone combination failed"
    return WeightResult(
        omega=tuple(omega),
        strategy=selection.strategy,
        family_size=size,
        circuits=circuits,
    )


@dataclass(frozen=True)
class Setting:
    """The per-setting steps of the construction: the interlacing check,
    the band decomposition of an accepted pair, the kernel system and the
    circuit on one support."""

    name: str
    check: Callable
    bands: Callable
    system: Callable
    circuit: Callable


_REAL = Setting(REAL, check_interlace_real, bands_real, _assemble_real, circuit_real)
_CIRCLE = Setting(
    CIRCLE,
    check_interlace_circle,
    lambda pair, verdict: bands_circle(pair),
    _assemble_circle,
    circuit_circle,
)


def setting_of(pair) -> Setting:
    """The setting of a spectrum pair, chosen by its type."""
    if isinstance(pair, RealSpectrumPair):
        return _REAL
    if isinstance(pair, CircleSpectrumPair):
        return _CIRCLE
    raise TypeError("expected a RealSpectrumPair or CircleSpectrumPair")
