"""Seeded, constructive problem generators for the four workloads.

Every workload is a fixed grid of instance shapes (n, m, strategy, jitter,
and on line_sumall the band sizes) that does not depend on the seed; the
seed only draws the point positions, the gaps holding the m-set, the band
order and the coefficients.  So two seeds time the same mix of sizes, and
the same seed always gives byte-identical problem documents.

Points are built from cumulative random gaps, never by rejection, so n in
the hundreds returns at once.  The program only ever sees the documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Families at most this large are listed in solution files (the value of
# twospec.kernel.LIST_LIMIT at the time the workloads were defined; kept
# here so input properties do not depend on the code under test).
LIST_LIMIT = 1000

TWO_PI = 2.0 * math.pi

# Instances per workload (line_sumall has one per entry of SUMALL_BANDS).
EXACT_COUNT = 36
FLOAT_COUNT = 36
CIRCLE_COUNT = 144

# line_exact orders; the larger ones of the ROADMAP baseline would leave
# no time in a run to sample the median and the tail again.
EXACT_N_MIN, EXACT_N_MAX = 16, 32

# Float line nodes lie in (LINE_LO, LINE_HI) with gaps >= LINE_MIN_GAP.
LINE_LO, LINE_HI, LINE_MIN_GAP = -10.0, 10.0, 0.1


@dataclass(frozen=True)
class Instance:
    """One generated problem: its document text plus the exact points the
    oracle checks against and the input properties the output records."""

    index: int
    text: str
    setting: str
    arithmetic: str
    strategy: str
    n: int
    m: int
    family: int
    points_n: tuple  # xs (Fraction or float) on the line, thetas on the circle
    points_m: tuple  # ys on the line, phis on the circle


def _rng(workload, seed, index) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{index}")


def _spread(lo, hi, count, k) -> int:
    """k-th of ``count`` integers spread evenly over [lo, hi]."""
    return lo + round(k * (hi - lo) / (count - 1))


def _cumulative(rng, n, lo, hi, min_gap):
    """n increasing floats in (lo, hi) with gaps >= min_gap: uniform
    spacings of the slack (Dirichlet(1, .., 1) gaps) plus the minimum gap,
    which is the law of sorted uniforms conditioned on the minimum gap."""
    slack = (hi - lo) - (n + 1) * min_gap
    gaps = [rng.expovariate(1.0) for _ in range(n + 1)]
    total = sum(gaps)
    xs, acc = [], lo
    for g in gaps[:n]:
        acc += min_gap + slack * g / total
        xs.append(acc)
    return xs


def _family(band_sizes) -> int:
    size = 1
    for b in band_sizes:
        size *= b
    return size


def _bands_from_gaps(n, gaps):
    """Band sizes when the m-set sits in the given 0-based gaps of n nodes."""
    cuts = [0] + [g + 1 for g in gaps] + [n]
    return [cuts[r + 1] - cuts[r] for r in range(len(cuts) - 1)]


def _gaps_from_bands(band_sizes):
    """0-based node gaps (x_g, x_{g+1}) holding the m-set for given bands."""
    gaps, acc = [], 0
    for b in band_sizes[:-1]:
        acc += b
        gaps.append(acc - 1)
    return gaps


def _real_doc(xs, ys, arithmetic, weights, encode):
    return {
        "schema": "v1",
        "setting": "real",
        "arithmetic": arithmetic,
        "zn": [encode(x) for x in xs],
        "zm": [encode(y) for y in ys],
        "weights": weights,
        "profile": "standard",
    }


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _covering_coefficients(rng, band_sizes):
    """Coefficients s_k for admissible circuits t = 1..L-1 (L = largest
    band) whose support takes the (t mod |b_r|)-th index of band r, so the
    first circuit plus these cover every index.  Index k follows
    twospec.kernel.admissible_at: mixed radix, last band least significant."""
    coeffs = {}
    for t in range(1, max(band_sizes)):
        k = 0
        for b in band_sizes:
            k = k * b + t % b
        coeffs[f"s{k}"] = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    return coeffs


# --------------------------------------------------------------------------
# workloads


def line_exact(seed):
    """Rational arithmetic: integer nodes with random gaps 1..3, rational
    m-set points with denominators 2..7; n spread over 16..32, m from n/4
    to 3n/4; strategies alternate cover and coefficients."""
    out, count = [], EXACT_COUNT
    for k in range(count):
        rng = _rng("line_exact", seed, k)
        n = _spread(EXACT_N_MIN, EXACT_N_MAX, count, k)
        m = max(1, min(n - 1, round(n * (0.25 + 0.5 * ((k * 7) % count) / count))))
        x = rng.randint(-5, 5)
        xs = []
        for _ in range(n):
            xs.append(x)
            x += rng.randint(1, 3)
        gaps = sorted(rng.sample(range(n - 1), m))
        ys = []
        for g in gaps:
            q = rng.randint(2, 7)
            ys.append(xs[g] + Fraction(rng.randint(1, q - 1), q) * (xs[g + 1] - xs[g]))
        bands = _bands_from_gaps(n, gaps)
        if k % 2:
            strategy = "coefficients"
            weights = {
                "strategy": strategy,
                "coefficients": _covering_coefficients(rng, bands),
            }
        else:
            strategy = "cover"
            weights = {"strategy": strategy}
        xs_f = tuple(Fraction(v) for v in xs)
        text = _dump(_real_doc(xs_f, ys, "rational", weights, str))
        out.append(
            Instance(k, text, "real", "rational", strategy, n, m, _family(bands), xs_f, tuple(ys))
        )
    return out


def _float_line_points(rng, n, gaps):
    xs = _cumulative(rng, n, LINE_LO, LINE_HI, LINE_MIN_GAP)
    ys = [xs[g] + (xs[g + 1] - xs[g]) * rng.uniform(0.3, 0.7) for g in gaps]
    return xs, ys


def line_float(seed):
    """binary64: n log-spread over 60..200 in [-10, 10] with gaps >= 0.1 (the
    fuzz distribution, built constructively); m = n/3; cover."""
    out, count = [], FLOAT_COUNT
    for k in range(count):
        rng = _rng("line_float", seed, k)
        n = round(60 * (200 / 60) ** (k / (count - 1)))
        m = n // 3
        gaps = sorted(rng.sample(range(n - 1), m))
        xs, ys = _float_line_points(rng, n, gaps)
        weights = {"strategy": "cover"}
        text = _dump(_real_doc(xs, ys, "float64", weights, float))
        bands = _bands_from_gaps(n, gaps)
        out.append(
            Instance(k, text, "real", "float64", "cover", n, m, _family(bands), tuple(xs), tuple(ys))
        )
    return out


# Non-singleton band sizes of the sum_all grid: family sizes (their
# products) log-spread over 10^2..10^5 with as few bands as that allows, so
# the costly end of the grid stays within a run.
SUMALL_BANDS = (
    (5, 5, 4), (5, 3, 3, 3), (6, 6, 5), (4, 4, 4, 4), (5, 4, 4, 4),
    (6, 5, 5, 3), (5, 5, 5, 5), (5, 5, 4, 4, 2), (6, 6, 6, 5), (5, 5, 5, 4, 3),
    (5, 5, 5, 4, 4), (6, 6, 5, 5, 3), (6, 5, 5, 5, 5), (6, 6, 6, 6, 4),
    (6, 6, 6, 6, 5), (5, 5, 5, 5, 5, 3), (5, 5, 5, 5, 5, 4), (6, 6, 6, 5, 4, 4),
    (6, 6, 5, 5, 5, 5), (6, 6, 6, 6, 6, 4), (6, 6, 6, 6, 6, 5),
    (6, 5, 5, 5, 5, 5, 3), (6, 5, 5, 5, 5, 5, 4), (5, 5, 4, 4, 4, 4, 4, 4),
)


def line_sumall(seed):
    """binary64 sum_all: family sizes log-spread over 10^2..10^5 (a third at
    most LIST_LIMIT, so listed in the output); n between 16 and 39."""
    out = []
    for k, sizes in enumerate(SUMALL_BANDS):
        rng = _rng("line_sumall", seed, k)
        big = list(sizes)
        bands = big + [1] * (max(2, 16 - sum(big)) + k % 3)
        rng.shuffle(bands)
        n = sum(bands)
        gaps = _gaps_from_bands(bands)
        xs, ys = _float_line_points(rng, n, gaps)
        weights = {"strategy": "sum_all"}
        text = _dump(_real_doc(xs, ys, "float64", weights, float))
        out.append(
            Instance(k, text, "real", "float64", "sum_all", n, len(gaps), _family(bands), tuple(xs), tuple(ys))
        )
    return out


def circle(seed):
    """Jittered-equispaced angles: n spread over 16..64, jitter 0.05..0.45
    of the spacing (so gaps stay >= 0.1 spacing), m from n/4 to n/2, one
    m-set point inside each of m distinct arcs; cover."""
    out, count = [], CIRCLE_COUNT
    for k in range(count):
        rng = _rng("circle", seed, k)
        n = _spread(16, 64, count, k)
        m = max(2, round(n * (0.25 + 0.25 * ((k * 5) % count) / count)))
        jitter = 0.05 + 0.4 * ((k * 7) % count) / count
        spacing = TWO_PI / n
        shift = rng.uniform(0.0, TWO_PI)
        thetas = [shift + (i + rng.uniform(-jitter, jitter)) * spacing for i in range(n)]
        arcs = sorted(rng.sample(range(n), m))
        phis = []
        for a in arcs:
            nxt = thetas[a + 1] if a + 1 < n else thetas[0] + TWO_PI
            phis.append(thetas[a] + (nxt - thetas[a]) * rng.uniform(0.3, 0.7))
        thetas = [t % TWO_PI for t in thetas]
        phis = [p % TWO_PI for p in phis]
        doc = {
            "schema": "v1",
            "setting": "circle",
            "arithmetic": "float64",
            "zn": thetas,
            "zm": phis,
            "weights": {"strategy": "cover"},
            "profile": "standard",
        }
        # Band sizes: nodes strictly between consecutive m-set points.
        cuts = [a + 1 for a in arcs]
        bands = [cuts[r + 1] - cuts[r] for r in range(m - 1)] + [n - cuts[-1] + cuts[0]]
        out.append(
            Instance(k, _dump(doc), "circle", "float64", "cover", n, m, _family(bands), tuple(thetas), tuple(phis))
        )
    return out


WORKLOADS = {
    "line_exact": line_exact,
    "line_float": line_float,
    "line_sumall": line_sumall,
    "circle": circle,
}


def input_properties(instances) -> dict:
    """Input properties of a workload's instance set, for the report."""
    ns = [i.n for i in instances]
    ms = [i.m for i in instances]
    fams = [i.family for i in instances]
    strategies = sorted({i.strategy for i in instances})
    return {
        "instances": len(instances),
        "n": {"min": min(ns), "median": sorted(ns)[len(ns) // 2], "max": max(ns)},
        "m": {"min": min(ms), "median": sorted(ms)[len(ms) // 2], "max": max(ms)},
        "family": {"min": min(fams), "max": max(fams)},
        "strategy": strategies,
        "arithmetic": sorted({i.arithmetic for i in instances}),
        "family_over_list_limit_frac": sum(f > LIST_LIMIT for f in fams) / len(fams),
    }
