"""Vandermonde-type systems, their sparse kernel circuits, and the cone of
strictly positive weights.

A system is the tuple of its rows: on the line A[k][j] = x_j^k * P_m(x_j)
for k = 0..m-1 (full row rank m), on the circle A[k][j] = zeta_j^k *
P_m(zeta_j) / zeta_j^(m-1) for k = 0..m-2 (full row rank m-1).  A circuit,
a minimal-support kernel element, is a ``(support, entries)`` pair, given by
one barycentric formula in both settings: on a support S the entry at j is
1 / (P_m(x_j) prod_{i in S, i != j} d(x_j, x_i)), with P_m(x_j) the product
of d(x_j, y) over the m-set and d the setting's signed difference, x - y on
the line and sin((x - y)/2) on the circle.  A circuit supported on one index
per band is entrywise nonnegative after the sign choice, and conical
combinations of those circuits that cover every index are exactly the
strictly positive solutions.  The sum of the whole one-per-band family
factors over the bands, so the default weight is computed in closed form in
O(n^2) whatever the family size, and the line's ``cover`` weight in O(n*m);
both settings read one table of differences to each band's first index per
``cover`` solve, and build its circuits by one fold of shared factors.
Rational line coordinates run on their integer grid X = D x, Y = D y, where
a circuit entry is the Fraction D^(2m) / (integer product); binary64 and
circle ones are their own, D = 1.
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
    CircleSpectrumPair,
    RealSpectrumPair,
    check_interlace_circle,
    check_interlace_real,
)
from .scalars import integer_grid, off_grid, plain_sum

REAL = "real"
CIRCLE = "circle"

SUM_ALL = "sum_all"
COEFFICIENTS = "coefficients"
COVER = "cover"
STRATEGIES = (SUM_ALL, COEFFICIENTS, COVER)

# Families at most this large are listed, larger ones only counted or indexed,
# never enumerated; a weight records its circuits while they hold at most this
# many entries in all.
LIST_LIMIT = 1000

_SIN_TOL = POINT_TOL / 2  # |sin(d/2)| matching the chord tolerance


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

    ``circuits`` holds the ``(support, entries)`` pairs of :func:`circuits`,
    or is ``None`` when they hold more than LIST_LIMIT entries (count times
    ``pair.circuit_size``); ``circuits(pair, supports)`` rebuilds them from
    the strategy's supports.
    """

    omega: tuple
    circuits: tuple | None


def assemble_system(pair) -> tuple:
    """The rows of the Vandermonde-type system annihilated by admissible
    weights: m rows on the line, m - 1 on the circle (none when m = 1)."""
    return setting_of(pair).system(pair)


def _system(nodes, diag, count, one) -> tuple:
    """Rows k = 0..count-1 with entries nodes_j^k * diag_j."""
    rows, pw = [], [one] * len(nodes)
    for k in range(count):
        rows.append(tuple(map(operator.mul, pw, diag)))
        if k + 1 < count:
            pw = list(map(operator.mul, pw, nodes))
    return tuple(rows)


def grid_system(xs, ys) -> tuple:
    """``(rows, dens)``: rows[k][j] = X_j^k P_m(X_j) on the grid, A[k] = rows[k] / dens[k]."""
    nodes, points, scale = _line_grid(xs, ys)
    pmx = [_pm_at(_REAL, j, x, points) for j, x in enumerate(nodes)]
    return _system(nodes, pmx, len(ys), 1), [scale**k for k in range(len(ys), 2 * len(ys))]


def _assemble_real(pair: RealSpectrumPair) -> tuple:
    rows, dens = grid_system(pair.xs, pair.ys)
    return tuple(tuple(off_grid(a, d) for a in row) for row, d in zip(rows, dens))


def _assemble_circle(pair: CircleSpectrumPair) -> tuple:
    diag = []
    for j, z in enumerate(pair.zetas):
        diffs = list(map(operator.sub, repeat(z), pair.xis))
        if min(map(abs, diffs)) <= POINT_TOL:
            raise SharedPointError(f"zn[{j}] coincides with a zm point")
        diag.append(math.prod(diffs) / z ** (pair.m - 1))
    return _system(pair.zetas, diag, pair.m - 1, 1.0 + 0.0j)


def admissible_size(bands: tuple) -> int:
    return math.prod(len(b) for b in bands)


def iter_admissible(bands: tuple):
    """Admissible supports in lexicographic order (by band, then index)."""
    return _cartesian(*bands)


def admissible_at(bands: tuple, k: int) -> tuple:
    """The k-th (0-based) admissible support without enumerating the rest."""
    if type(k) is not int or not 0 <= k < admissible_size(bands):  # bool excluded
        raise IndexError(k)
    digits = []
    for b in reversed(bands):
        k, d = divmod(k, len(b))
        digits.append(b[d])
    return tuple(reversed(digits))


def admissible_family(bands: tuple) -> tuple:
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


def family_listing(bands: tuple) -> tuple:
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


def _support(s, size, n):
    """``s`` ascending if it holds ``size`` distinct ints in 1..n, bool
    excluded (the types are checked before sorting), else None."""
    s = tuple(s)
    s = tuple(sorted(s)) if len(s) == size and all(type(j) is int for j in s) else ()
    return s if s and 1 <= s[0] and s[-1] <= n and all(map(operator.lt, s, s[1:])) else None


def circuits(pair, supports) -> tuple:
    """The circuits on ``supports`` (each as :func:`_support` accepts it)
    as ``(support, entries)`` pairs: the support ascending, the entries its
    values in support order (zero off it), each by the formula of the module
    docstring as one running product, P_m first, then the differences in
    support order; the entries are negated when more of them are negative
    than positive.  P_m is computed once per node and call, and each
    distinct support once: a repeated support returns the same pair."""
    nodes, points, scale = (setting := setting_of(pair)).coords(pair)
    diff, size = setting.diff, pair.circuit_size
    unit = off_grid(scale ** (len(points) + size - 1), 1)  # one D per difference
    supports = [_support(s, size, pair.n) for s in supports]
    if None in supports:
        raise ValueError(f"support must hold {size} distinct indices in 1..n")
    _check_distinct(setting, nodes)
    pm = {j: _pm_at(setting, j - 1, nodes[j - 1], points) for j in sorted(set().union(*supports))}
    built = dict.fromkeys(supports)
    for s in built:
        xs = [nodes[i - 1] for i in s]
        dens = [math.prod(map(diff, repeat(x), xs[:p] + xs[p + 1 :]), start=pm[j])
                for p, (j, x) in enumerate(zip(s, xs))]  # fmt: skip
        built[s] = (s, _signed_entries(s, dens, unit))
    return tuple(map(built.__getitem__, supports))


def _signed_entries(support, dens, unit) -> tuple:
    """unit / den for each den, negated when most are negative; an entry that
    binary64 cannot hold is a NonpositiveWeightError naming its node: a zero
    den (an underflowed running product) first, then an entry of 0 or inf."""
    if not all(dens):
        raise NonpositiveWeightError(f"circuit entry {support[dens.index(0)]} overflows")
    entries = [unit / d for d in dens]
    for j, e in zip(support, entries):
        if not 0 < abs(e) < math.inf:
            raise NonpositiveWeightError(f"circuit entry {j} {'over' if e else 'under'}flows")
    if sum(map(operator.lt, entries, repeat(0))) > sum(map(operator.gt, entries, repeat(0))):
        entries = [-e for e in entries]
    return tuple(entries)


def circuit(pair, support) -> tuple:
    """The circuit on one support (see :func:`circuits`)."""
    return circuits(pair, (support,))[0]


def _sum_all_omega(pair, setting, bands: tuple) -> list:
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
    band_of = {j: r for r, b in enumerate(bands) for j in b}
    omega = []
    for j, x in enumerate(nodes):
        acc = 1
        for r, band in enumerate(bands):
            if r != band_of[j + 1]:
                acc *= abs(plain_sum([unit / diff(x, nodes[i - 1]) for i in band]))
        omega.append(acc / off_grid(abs(_pm_at(setting, j, x, points)), scale ** len(points)))
    return omega


def _cover_omega(pair, bands: tuple) -> tuple:
    """``(omega, circuits)`` of the line's ``cover``, omega in O(n*m): a non-first j of
    band b is on one circuit, entry omega_j at j and c0_s d(x_{f_s}, x_{f_b}) /
    d(x_{f_s}, x_j) at the first index f_s of band s; c0, the base, counts B times."""
    nodes, points, scale = (setting := setting_of(pair)).coords(pair)
    div = operator.truediv if isinstance(scale, float) else Fraction
    unit = off_grid(scale ** (len(points) + len(bands) - 1), 1)
    _check_distinct(setting, nodes)
    pm = [_pm_at(setting, j, x, points) for j, x in enumerate(nodes)]
    table = [list(map(setting.diff, repeat(nodes[b[0] - 1]), nodes)) for b in bands]
    firsts = [b[0] - 1 for b in bands]  # 0-based, as are the non-first ``rest``
    rest = [j - 1 for b in bands for j in b[1:]]
    br = [r for r, b in enumerate(bands) for _ in b[1:]]
    order = firsts + rest  # the entry at j of j's circuit: c0 at a first index
    dens = [math.prod([-t[j] for q, t in enumerate(table) if q != b], start=pm[j])
            for j, b in zip(order, [*range(len(bands)), *br])]  # fmt: skip
    entries = _signed_entries([j + 1 for j in order], dens, unit)
    omega = [abs(e) for _, e in sorted(zip(order, entries))]
    for f, t in zip(firsts, table):
        ratios = map(div, [t[firsts[b]] for b in br], map(t.__getitem__, rest))
        omega[f] *= plain_sum([len(bands), *map(abs, ratios)])
    listed = pair.n * pair.circuit_size <= LIST_LIMIT
    return omega, _cover_circuits(bands, pm, table, unit) if listed else None


def _cover_circuits(bands: tuple, pm: list, table: list, unit) -> tuple:
    """The n ``cover`` circuits S_j, j with the first index f_q of every other band, in
    node order, as :func:`circuits` builds them from P_m at the nodes, checked distinct,
    and table[q][k] = d(x_{f_q}, x_k); d is odd exactly, so the entry at j reads its
    d(x_j, x_{f_q}) as -table[q][j].  The base circuit is one object.  The entry at f_p of
    S_j, j in band b, folds P_m(x_{f_p}), d(x_{f_p}, x_{f_q}) for q < b (kept per (p, b)),
    d(x_{f_p}, x_j), q > b."""
    firsts = [b[0] for b in bands]
    rest = [[t[f - 1] for q, f in enumerate(firsts) if q != p] for p, t in enumerate(table)]
    head, vecs = [pm[f - 1] for f in firsts], []  # head[p]: the fold before band b
    for b, band in enumerate(bands):
        others = [p for p in range(len(bands)) if p != b]
        tails = [(p, rest[p][b + (p > b) :]) for p in others]
        for j in band:
            if j == band[0] and vecs:  # the base circuit again
                vecs.append(vecs[0])
                continue
            s = (*firsts[:b], j, *firsts[b + 1 :])
            dens = [math.prod(t, start=head[p] * table[p][j - 1]) for p, t in tails]
            dens.insert(b, math.prod([-table[p][j - 1] for p in others], start=pm[j - 1]))
            vecs.append((s, _signed_entries(s, dens, unit)))
        head = [h * rest[p][b - (p < b)] if p != b else h for p, h in enumerate(head)]
    return tuple(vecs)


def _cover_sum(pair, bands: tuple) -> tuple:
    """``(omega, circuits)`` of the circle's ``cover``: its n circuits added in node order."""
    nodes, points, scale = (setting := setting_of(pair)).coords(pair)
    _check_distinct(setting, nodes)
    pm = [_pm_at(setting, j, x, points) for j, x in enumerate(nodes)]
    table = [list(map(setting.diff, repeat(nodes[b[0] - 1]), nodes)) for b in bands]
    vecs = _cover_circuits(bands, pm, table, off_grid(scale ** (len(points) + len(bands) - 1), 1))
    omega = [0] * pair.n
    for s, entries in vecs:
        for i, e in zip(s, entries):
            omega[i - 1] = omega[i - 1] + e
    return omega, vecs if pair.n * pair.circuit_size <= LIST_LIMIT else None


def positive_weight(pair, bands: tuple, selection: WeightSelection) -> WeightResult:
    """Combine admissible circuits into one strictly positive kernel vector.

    sum_all is the sum of every admissible circuit with coefficient 1, taken
    in closed form (its circuits are built only to be recorded); coefficients
    takes the first circuit plus the user-weighted ones and validates that
    every index is covered by a positively weighted circuit; cover adds, for
    each index j, one circuit through j and the first index of every other
    band, in closed form on the line.  Circuits are kept up to LIST_LIMIT
    entries in all, else ``None``; sum_all and line cover then build none.
    Raises NonpositiveWeightError when an entry is not positive and finite,
    as when circuit entries under- or overflow binary64.
    """
    most = LIST_LIMIT // pair.circuit_size  # the circuits that fit in LIST_LIMIT entries
    if selection.strategy == SUM_ALL:
        omega = _sum_all_omega(pair, setting_of(pair), bands)
        vecs = circuits(pair, iter_admissible(bands)) if admissible_size(bands) <= most else None
    elif selection.strategy == COEFFICIENTS:
        coeffs = dict(selection.coefficients or {})
        size = admissible_size(bands)
        for jdx, value in coeffs.items():
            if not (type(jdx) is int and 1 <= jdx <= size - 1):  # bool excluded
                raise ProblemFormatError(f"no parameter s{jdx} for a family of size {size}")
            if not value >= 0:  # a NaN is refused here, not dropped below
                raise NegativeCoefficientError(f"s{jdx} is {'negative' if value < 0 else 'NaN'}")
        chosen = [(1, admissible_at(bands, 0))] + [
            (c, admissible_at(bands, k)) for k, c in sorted(coeffs.items()) if c > 0
        ]
        covered = {j for _, support in chosen for j in support}
        missing = sorted(set(range(1, pair.n + 1)) - covered)
        if missing:
            raise NotCoveredError(
                f"index {missing[0]} is not covered by a positively "
                "weighted circuit"
            )
        omega = [0] * pair.n
        vecs = circuits(pair, [support for _, support in chosen])
        for (coeff, _), (support, entries) in zip(chosen, vecs):
            for j, e in zip(support, entries):
                omega[j - 1] = omega[j - 1] + coeff * e
        vecs = vecs if len(vecs) <= most else None
    else:  # COVER
        omega, vecs = setting_of(pair).cover(pair, bands)

    check_weights(omega)
    return WeightResult(tuple(omega), vecs)


def check_weights(omega):
    """NonpositiveWeightError unless every omega_j is positive and finite."""
    # A Fraction compared with inf is never converted to float (no overflow).
    for j, w in enumerate(omega):
        if not 0 < w < math.inf:
            raise NonpositiveWeightError(f"omega[{j}] is not positive and finite")


@dataclass(frozen=True)
class Setting:
    """The per-setting steps of the construction: the interlacing check,
    whose verdict carries the bands of an accepted pair, the kernel system,
    and what the circuit formula and the closed-form sum_all weight read:
    the node and m-set coordinates and their grid scale D, their signed
    difference, the magnitude at or below which a difference means two
    points coincide, and the ``cover`` weight as ``(omega, circuits)``."""

    check: Callable
    system: Callable
    coords: Callable
    diff: Callable
    tol: float
    cover: Callable


def _line_grid(xs, ys):
    """(nodes, points, D): xs and ys on their common integer grid."""
    scale, grid = integer_grid(xs + ys)
    return grid[: len(xs)], grid[len(xs) :], scale


_REAL = Setting(
    check_interlace_real, _assemble_real,
    lambda pair: _line_grid(pair.xs, pair.ys), operator.sub, 0, _cover_omega,
)  # fmt: skip
_CIRCLE = Setting(
    check_interlace_circle, _assemble_circle, lambda pair: (pair.thetas, pair.phis, 1.0),
    lambda x, y: math.sin((x - y) / 2.0), _SIN_TOL, _cover_sum,
)  # fmt: skip


def setting_of(pair) -> Setting:
    """The setting of a spectrum pair, chosen by its type."""
    if isinstance(pair, RealSpectrumPair):
        return _REAL
    if isinstance(pair, CircleSpectrumPair):
        return _CIRCLE
    raise TypeError("expected a RealSpectrumPair or CircleSpectrumPair")
