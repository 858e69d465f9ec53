"""Vandermonde-type systems, their sparse kernel circuits, and the cone of
strictly positive weights.

The real-line system has entries ``A[k][j] = x_j^k * P_m(x_j)`` for
``k = 0..m-1`` (full row rank m); the circle system has entries
``A[k][j] = zeta_j^k * P_m(zeta_j) / zeta_j^(m-1)`` for ``k = 0..m-2``
(full row rank m-1).  Minimal-support kernel elements (circuits) follow one
barycentric formula in both settings: on a support S the entry at j is
1 / (P_m(x_j) prod_{i in S, i != j} d(x_j, x_i)), with P_m(x_j) the product
of d(x_j, y) over the m-set and d the setting's signed difference, x - y on
the line and sin((x - y)/2) on the circle.  A circuit supported on one index
per band is entrywise nonnegative after the sign choice, and conical
combinations of those circuits that cover every index are exactly the
strictly positive solutions.  The sum of the whole one-per-band family
factors over the bands, so the default weight is computed in closed form in
O(n^2) whatever the family size.  Rational line coordinates run on their
integer grid X = D x, Y = D y, where a circuit entry is the Fraction
D^(2m) / (integer product); binary64 and circle ones are their own, D = 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _cartesian
from itertools import repeat
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
from .scalars import integer_grid, is_exact_scalar, off_grid, plain_sum

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


@dataclass(frozen=True)
class CircuitVector:
    """Sparse kernel generator on ``n`` nodes: ``entries`` are its values on
    ``support`` (ascending 1-based indices), in support order, and it is zero
    off the support."""

    support: tuple
    entries: tuple
    n: int

    @property
    def weights(self) -> tuple:
        """The dense length-n vector, with zeros of the entries' field."""
        dense = [Fraction(0) if is_exact_scalar(self.entries[0]) else 0.0] * self.n
        for j, e in zip(self.support, self.entries):
            dense[j - 1] = e
        return tuple(dense)


@dataclass(frozen=True)
class WeightSelection:
    """How to combine admissible circuits into one strictly positive weight.

    ``coefficients`` maps the 1-based parameter index j to the scalar s_j
    multiplying the (j+1)-th admissible circuit in enumeration order; the
    first circuit always carries coefficient 1.  Unspecified parameters
    default to 0, so sparse maps are fine for huge families.  Only the
    coefficients strategy takes coefficients.
    """

    strategy: str = SUM_ALL
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.coefficients and self.strategy != COEFFICIENTS:
            raise ValueError(f"strategy {self.strategy!r} takes no coefficients")


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


def assemble_system(pair) -> SystemMatrix:
    """Build the Vandermonde-type system annihilated by admissible weights."""
    return setting_of(pair).system(pair)


def _system(nodes, diag, count, one) -> SystemMatrix:
    """Rows k = 0..count-1 with entries nodes_j^k * diag_j."""
    rows, pw = [], [one] * len(nodes)
    for k in range(count):
        rows.append(tuple(map(operator.mul, pw, diag)))
        if k + 1 < count:
            pw = list(map(operator.mul, pw, nodes))
    return SystemMatrix(entries=tuple(rows), shape=(count, len(nodes)))


def grid_system(xs, ys) -> tuple:
    """``(rows, dens)``: rows[k][j] = X_j^k P_m(X_j) on the grid, A[k] = rows[k] / dens[k]."""
    nodes, points, scale = _line_grid(xs, ys)
    pmx = [_pm_at(_REAL, j, x, points) for j, x in enumerate(nodes)]
    return _system(nodes, pmx, len(ys), 1).entries, [scale**k for k in range(len(ys), 2 * len(ys))]


def _assemble_real(pair: RealSpectrumPair) -> SystemMatrix:
    rows, dens = grid_system(pair.xs, pair.ys)
    entries = tuple(tuple(off_grid(a, d) for a in row) for row, d in zip(rows, dens))
    return SystemMatrix(entries=entries, shape=(pair.m, pair.n))


def _assemble_circle(pair: CircleSpectrumPair) -> SystemMatrix:
    diag = []
    for j, z in enumerate(pair.zetas):
        diffs = list(map(operator.sub, repeat(z), pair.xis))
        if min(map(abs, diffs)) <= POINT_TOL:
            raise SharedPointError(f"zn[{j}] coincides with a zm point")
        diag.append(math.prod(diffs) / z ** (pair.m - 1))
    return _system(pair.zetas, diag, pair.m - 1, 1.0 + 0.0j)


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


def _pm_at(setting, j, x, points):
    """P_m at node j (coordinate x) as the product of its signed differences
    to the m-set; never via expanded coefficients, whose Horner evaluation
    cancels catastrophically in binary64.  SharedPointError when a factor is
    within the setting's tolerance; NonpositiveWeightError when the product
    of larger factors underflows binary64 to 0."""
    factors = [setting.diff(x, y) for y in points]
    if min(map(abs, factors)) <= setting.tol:
        raise SharedPointError(f"node {j} coincides with an m-set point")
    pm = math.prod(factors)
    if pm == 0:
        raise NonpositiveWeightError(f"P_m at node {j} underflows binary64")
    return pm


def _check_distinct(setting, nodes):
    """DegenerateAngleError unless all nodes are more than the tolerance
    apart: neighbours in sorted order, the wrap pair included."""
    s = sorted(nodes)
    if min(abs(setting.diff(a, b)) for a, b in zip(s, s[1:] + s[:1])) <= setting.tol:
        raise DegenerateAngleError("two nodes coincide")


def circuits(pair, supports) -> tuple:
    """The circuits on ``supports`` (each of ``pair.circuit_size`` 1-based
    node indices) by the formula of the module docstring, each entry one
    running product, P_m first; the support entries are negated when more of
    them are negative than positive.  P_m is computed once per node, and each
    distinct support once: a repeated support returns the same vector.

    The running product of the entry at j starts with the factors it shares
    with the first support S_0 (the members of the longest common prefix of
    its support and S_0, j left out), kept once per node and extended one
    factor at a time.  Products fold left, so sharing them changes no bit.
    """
    setting = setting_of(pair)
    nodes, points, scale = setting.coords(pair)
    diff, size = setting.diff, pair.circuit_size
    # one D per difference; a Fraction on the exact grid, so unit / den is exact
    unit = off_grid(scale ** (len(points) + size - 1), 1)
    supports = [tuple(sorted(s)) for s in supports]
    for s in supports:
        if len(set(s)) != size or not (1 <= s[0] and s[-1] <= pair.n):
            raise ValueError(f"support must hold {size} distinct indices in 1..n")
    _check_distinct(setting, nodes)
    used = sorted(set().union(*supports))
    pm = {j: _pm_at(setting, j - 1, nodes[j - 1], points) for j in used}
    first = supports[0] if supports else ()
    heads = {}  # j -> P_m(x_j), then times d(x_j, x_f) for f in first, f != j

    def head(j, k):
        """P_m(x_j) times its first k factors over ``first``, j left out."""
        run = heads.setdefault(j, [pm[j]])
        if len(run) <= k:
            x = nodes[j - 1]
            for f in [f for f in first if f != j][len(run) - 1 : k]:
                run.append(run[-1] * diff(x, nodes[f - 1]))
        return run[k]

    built = {}
    for s in supports:
        if s in built:
            continue
        shared = next((k for k, (a, b) in enumerate(zip(s, first)) if a != b), size)
        xs = [nodes[i - 1] for i in s]
        entries = []
        for p, j in enumerate(s):
            if p < shared:  # j is one of the shared members
                start, rest = head(j, shared - 1), xs[shared:]
            else:
                start, rest = head(j, shared), xs[shared:p] + xs[p + 1 :]
            try:
                entries.append(unit / math.prod(map(diff, repeat(xs[p]), rest), start=start))
            except ZeroDivisionError:  # the running product underflows binary64
                raise NonpositiveWeightError(f"circuit entry {j} overflows") from None
        if sum((e > 0) - (e < 0) for e in entries) < 0:
            entries = [-e for e in entries]
        built[s] = CircuitVector(support=s, entries=tuple(entries), n=pair.n)
    return tuple(built[s] for s in supports)


def circuit(pair, support) -> CircuitVector:
    """The circuit on one support (see :func:`circuits`)."""
    return circuits(pair, (support,))[0]


def _sum_all_omega(pair, setting, bands: BandDecomposition, band_of: dict) -> list:
    """The sum of every admissible circuit, in O(n^2) without building one.

    The entries of a one-per-band circuit share one sign, so the entry at j
    is 1 / (|P_m(x_j)| prod_{i in S, i != j} |d(x_j, x_i)|) and the sum
    factors over the bands: omega_j = (1 / |P_m(x_j)|) prod_{r != band(j)}
    |sum_{i in I_r} 1 / d(x_j, x_i)|, with d the setting's signed
    difference, of one sign over a band that does not hold j.
    """
    nodes, points, scale = setting.coords(pair)
    diff, unit = setting.diff, off_grid(scale, 1)  # unit / d exact on the exact grid
    _check_distinct(setting, nodes)
    omega = []
    for j, x in enumerate(nodes):
        acc = 1
        for r, band in enumerate(bands.bands):
            if r != band_of[j + 1]:
                acc *= abs(plain_sum([unit / diff(x, nodes[i - 1]) for i in band]))
        omega.append(acc / off_grid(abs(_pm_at(setting, j, x, points)), scale ** len(points)))
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
    size = admissible_size(bands)
    band_of = {j: r for r, b in enumerate(bands.bands) for j in b}
    omega = [0] * n

    def combine(chosen):
        vecs = circuits(pair, [support for _, support in chosen])
        for (coeff, _), vec in zip(chosen, vecs):
            one = coeff == 1 and isinstance(coeff, int)  # then coeff * e is e, of e's type
            for j, e in zip(vec.support, vec.entries):
                omega[j - 1] = omega[j - 1] + (e if one else coeff * e)
        return vecs

    if selection.strategy == SUM_ALL:
        omega = _sum_all_omega(pair, setting_of(pair), bands, band_of)
        family = family_listing(bands)[1]
        vecs = None if family is None else circuits(pair, family)
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
        vecs = combine(chosen)
    else:  # COVER
        firsts = [b[0] for b in bands.bands]
        vecs = combine([
            (1, tuple(j if r == band_of[j] else f for r, f in enumerate(firsts)))
            for j in range(1, n + 1)
        ])

    check_weights(omega)
    return WeightResult(tuple(omega), selection.strategy, size, vecs)


def check_weights(omega):
    """NonpositiveWeightError unless every omega_j is positive and finite."""
    # A Fraction compared with inf is never converted to float (no overflow).
    for j, w in enumerate(omega):
        if not 0 < w < math.inf:
            raise NonpositiveWeightError(f"omega[{j}] is not positive and finite")


@dataclass(frozen=True)
class Setting:
    """The per-setting steps of the construction: the interlacing check,
    the band decomposition of an accepted pair, the kernel system, and what
    the circuit formula and the closed-form sum_all weight read: the node
    and m-set coordinates and their grid scale D, their signed difference,
    and the magnitude at or below which a difference means two points coincide."""

    name: str
    check: Callable
    bands: Callable
    system: Callable
    coords: Callable
    diff: Callable
    tol: float


def _line_grid(xs, ys):
    """(nodes, points, D): xs and ys on their common integer grid."""
    scale, grid = integer_grid(xs + ys)
    return grid[: len(xs)], grid[len(xs) :], scale


_REAL = Setting(
    REAL, check_interlace_real, bands_real, _assemble_real,
    lambda pair: _line_grid(pair.xs, pair.ys), operator.sub, 0,
)  # fmt: skip
_CIRCLE = Setting(
    CIRCLE, check_interlace_circle, lambda pair, verdict: bands_circle(pair),
    _assemble_circle, lambda pair: (pair.thetas, pair.phis, 1.0),
    lambda x, y: math.sin((x - y) / 2.0), _SIN_TOL,
)  # fmt: skip


def setting_of(pair) -> Setting:
    """The setting of a spectrum pair, chosen by its type."""
    if isinstance(pair, RealSpectrumPair):
        return _REAL
    if isinstance(pair, CircleSpectrumPair):
        return _CIRCLE
    raise TypeError("expected a RealSpectrumPair or CircleSpectrumPair")
