"""Strict interlacing checks and band decompositions, on ℝ and on 𝕊¹.

Two zero sets interlace strictly when every open gap between consecutive
points of the larger set (interval on the line, counterclockwise arc on the
circle) holds at most one point of the smaller set and the sets are
disjoint.  The scan that decides it also cuts the nodes into the bands an
accepted verdict carries, with the interlacing indices (real case): a tuple
whose r-th entry holds the ascending 1-based node indices of band r, which
downstream modules use to enumerate the admissible kernel circuits; a
rejected verdict carries none.  Circle points within POINT_TOL of each other
are refused by one check, _collision_checks, which the problem readers
(_normalize) and the solution reader share.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter, sub

from .errors import DegenerateAngleError, NotUnitModulusError, SharedPointError
from .scalars import coerce_real_field

TWO_PI = 2.0 * math.pi

# Chord distance below which two circle points are treated as equal; a
# collision is an error, never a merge.
POINT_TOL = 1e-12
# Acceptance slack for |z| = 1 on raw circle inputs; points inside it are
# projected onto the circle exactly.
UNIT_TOL = 1e-8

NOT_SORTED = "NOT_SORTED"
SHARED_POINT = SharedPointError.code
OUT_OF_RANGE = "OUT_OF_RANGE"
GAP_OVERFULL = "GAP_OVERFULL"
EMPTY_BAND = "EMPTY_BAND"


@dataclass(frozen=True)
class RealSpectrumPair:
    """Prescribed zero sets on the real line: the n-set ``xs`` and the
    m-set ``ys`` with 1 <= m < n."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        if not (1 <= len(self.ys) < len(self.xs)):
            raise ValueError("need 1 <= m < n")
        xs, ys = coerce_real_field(self.xs, self.ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def m(self) -> int:
        return len(self.ys)

    @property
    def circuit_size(self) -> int:
        """Support size of a kernel circuit: one node in each of m+1 bands."""
        return self.m + 1


@dataclass(frozen=True)
class CircleSpectrumPair:
    """Prescribed zero sets on the unit circle, already normalized.

    Arguments satisfy ``phis[0] < thetas[0] < ... < thetas[n-1] <
    phis[0] + 2*pi`` and ``phis`` is increasing in the same window; both
    point tuples are sorted accordingly.  Build instances through
    :func:`normalize_circle` or :func:`circle_pair_from_angles`.
    """

    zetas: tuple
    xis: tuple
    thetas: tuple
    phis: tuple

    def __post_init__(self):
        if not (1 <= len(self.xis) < len(self.zetas)):
            raise ValueError("need 1 <= m < n")

    @property
    def n(self) -> int:
        return len(self.zetas)

    @property
    def m(self) -> int:
        return len(self.xis)

    @property
    def circuit_size(self) -> int:
        """Support size of a kernel circuit: one node in each of m bands."""
        return self.m


@dataclass(frozen=True)
class InterlacingVerdict:
    accepted: bool
    indices: tuple | None = None
    code: str | None = None
    detail: str = ""
    bands: tuple | None = None  # on acceptance only


def _cut(cuts) -> tuple:
    """The bands {a + 1, ..., b} (1-based) between consecutive cuts of 0..n."""
    return tuple(tuple(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:]))


def check_interlace_real(pair: RealSpectrumPair) -> InterlacingVerdict:
    """Decide strict interlacing of ``pair.ys`` among ``pair.xs``.

    Accepts iff there are indices i_0 = 0 < i_1 < ... < i_m < n = i_{m+1}
    with y_k strictly inside (x_{i_k}, x_{i_k + 1}); equivalently, every
    open gap between consecutive x's holds at most one y and no y escapes
    (x_1, x_n).  Rejections name the first offending point.
    """
    xs, ys, n = pair.xs, pair.ys, pair.n

    for tag, points in (("xs", xs), ("ys", ys)):
        for i in range(1, len(points)):
            if not points[i - 1] < points[i]:
                detail = f"{tag}[{i}] is not above {tag}[{i - 1}]"
                return InterlacingVerdict(False, code=NOT_SORTED, detail=detail)

    indices = [0]
    for k, y in enumerate(ys):
        pos = bisect_left(xs, y)
        if pos < n and xs[pos] == y:
            return InterlacingVerdict(
                False,
                code=SHARED_POINT,
                detail=f"ys[{k}] equals xs[{pos}]",
            )
        if pos == 0 or pos == n:
            return InterlacingVerdict(
                False,
                code=OUT_OF_RANGE,
                detail=f"ys[{k}] lies outside (xs[0], xs[{n - 1}])",
            )
        if pos == indices[-1]:
            return InterlacingVerdict(
                False,
                code=GAP_OVERFULL,
                detail=f"ys[{k - 1}] and ys[{k}] share the gap "
                f"(xs[{pos - 1}], xs[{pos}])",
            )
        indices.append(pos)
    indices.append(n)
    return InterlacingVerdict(True, indices=tuple(indices), bands=_cut(indices))


def bands_real(pair: RealSpectrumPair, verdict: InterlacingVerdict) -> tuple:
    """The verdict's bands I_r = {i_r + 1, ..., i_{r+1}} (1-based), r = 0..m."""
    if verdict.bands is None:
        raise ValueError("bands_real requires an accepted verdict")
    return verdict.bands


def _collision_checks(zn, zm):
    """Refuse (point, angle) readings within POINT_TOL, first pair in index
    order: DegenerateAngleError in zn, then zm, SharedPointError across.  With
    each point within UNIT_TOL of its angle's, such a pair makes two angle-order
    neighbours (wrap included) within 4 (POINT_TOL + UNIT_TOL): only then scan."""
    ring = [p for p, _ in sorted(zn + zm, key=itemgetter(1))]
    if min(map(abs, map(sub, ring, ring[1:] + ring[:1])), default=0.0) > 4 * (POINT_TOL + UNIT_TOL):
        return
    for tag, readings in (("zn", zn), ("zm", zm)):
        for (i, (z, _)), (j, (w, _)) in combinations(enumerate(readings), 2):
            if abs(z - w) <= POINT_TOL:
                raise DegenerateAngleError(f"{tag}[{i}] and {tag}[{j}] coincide")
    for (i, (z, _)), (j, (w, _)) in product(enumerate(zn), enumerate(zm)):
        if abs(z - w) <= POINT_TOL:
            raise SharedPointError(f"zn[{i}] equals zm[{j}]")


def point_reading(z, tag, i):
    """The reading (z / |z|, its angle in [0, 2*pi)) of a raw point;
    NotUnitModulusError naming tag[i] when | |z| - 1 | > UNIT_TOL."""
    z = complex(z)
    r = abs(z)
    if not abs(r - 1.0) <= UNIT_TOL:  # NaN fails too
        raise NotUnitModulusError(f"{tag}[{i}] has modulus {r!r}")
    z /= r
    return z, cmath.phase(z) % TWO_PI


def angle_reading(a, tag, i):
    """The reading (e^(i a), a mod 2*pi) of an angle in radians; a NaN or
    infinite angle names no point (NotUnitModulusError naming tag[i])."""
    a = float(a)
    if not math.isfinite(a):
        raise NotUnitModulusError(f"{tag}[{i}] has angle {a!r}")
    a %= TWO_PI
    return cmath.rect(1.0, a), a


def _normalize(read, zn_raw, zm_raw) -> CircleSpectrumPair:
    """The pair of the readings read(value, tag, i) of each raw value; a
    value's name tag[i] is built only to raise."""
    zn = [read(v, "zn", i) for i, v in enumerate(zn_raw)]
    zm = [read(v, "zm", i) for i, v in enumerate(zm_raw)]
    _collision_checks(zn, zm)
    base = min((a for _, a in zm), default=0.0)  # CircleSpectrumPair refuses m = 0
    zn, zm = (sorted(r, key=lambda t: (t[1] - base) % TWO_PI) for r in (zn, zm))
    return CircleSpectrumPair(
        zetas=tuple(p for p, _ in zn),
        xis=tuple(p for p, _ in zm),
        thetas=tuple(base + ((a - base) % TWO_PI) for _, a in zn),
        phis=tuple(base + ((a - base) % TWO_PI) for _, a in zm),
    )


def normalize_circle(zetas_raw, xis_raw) -> CircleSpectrumPair:
    """Canonicalize raw circle points.

    The base point is the smaller-set point of smallest principal argument
    in [0, 2*pi); every argument is shifted into [base, base + 2*pi) and
    both sets are relabelled in increasing argument, so any permutation of
    the raw inputs yields the same pair.
    """
    return _normalize(point_reading, zetas_raw, xis_raw)


def circle_pair_from_angles(thetas_raw, phis_raw) -> CircleSpectrumPair:
    """Like :func:`normalize_circle` but from angles in radians; a NaN or
    infinite angle names no point of the circle (NotUnitModulusError)."""
    return _normalize(angle_reading, thetas_raw, phis_raw)


def check_interlace_circle(pair: CircleSpectrumPair) -> InterlacingVerdict:
    """Decide strict interlacing on the circle.

    With the normalized arguments, the bands I_r = {j : phi_r < theta_j <
    phi_{r+1}}, r < m, phi_m = phi_0 + 2*pi, must all be nonempty: an empty
    band is an arc between consecutive n-set points holding two m-set points.
    """
    bands = _cut((0, *(bisect_left(pair.thetas, phi) for phi in pair.phis[1:]), pair.n))
    for r, band in enumerate(bands):
        if not band:
            detail = f"no zn point on the arc between zm[{r}] and zm[{(r + 1) % pair.m}]"
            return InterlacingVerdict(False, code=EMPTY_BAND, detail=detail)
    return InterlacingVerdict(True, bands=bands)


def bands_circle(pair: CircleSpectrumPair) -> tuple:
    """The bands I_r, r = 0..m-1, of :func:`check_interlace_circle`'s verdict."""
    bands = check_interlace_circle(pair).bands
    if bands is None:
        raise ValueError("bands_circle requires an interlacing pair")
    return bands
