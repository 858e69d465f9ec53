"""Seeded random instances and the reconstruct+verify fuzz driver.

Instances are generated deterministically from (seed, index) so any failure
is reproducible from the reported per-instance seed string.  Strictly
interlacing instances place the smaller set by sampling distinct gaps of
the larger set.
"""

from __future__ import annotations

import random

from .errors import ProblemFormatError, TwospecError
from .interlacing import TWO_PI, CircleSpectrumPair, RealSpectrumPair, circle_pair_from_angles
from .kernel import CIRCLE, REAL, WeightSelection
from .pipeline import reconstruct
from .verify import STANDARD, Profile


def _rng(seed, index) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_real_instance(
    rng: random.Random, n: int, m: int, lo=-10.0, hi=10.0, min_gap=0.1
) -> RealSpectrumPair:
    """n nodes in [lo, hi] with gaps >= min_gap, and one y strictly inside
    each of m distinct interior gaps (kept away from the gap ends).

    The nodes are sorted uniforms conditioned on the gaps, drawn without
    rejection: sorted uniforms on the slack, the i-th raised by i*min_gap.
    """
    slack = hi - lo - (n - 1) * min_gap
    if slack < 0:
        raise ValueError(f"{n} nodes {min_gap} apart do not fit in [{lo}, {hi}]")
    offsets = sorted(rng.uniform(0.0, slack) for _ in range(n))
    xs = [lo + i * min_gap + u for i, u in enumerate(offsets)]
    gaps = sorted(rng.sample(range(n - 1), m))
    ys = []
    for g in gaps:
        width = xs[g + 1] - xs[g]
        ys.append(xs[g] + width * rng.uniform(0.3, 0.7))
    return RealSpectrumPair(xs=tuple(xs), ys=tuple(ys))


def random_circle_instance(
    rng: random.Random, n: int, m: int, min_gap=1e-2
) -> CircleSpectrumPair:
    """n jittered-equispaced angles (cyclic gaps >= min_gap) and one phi
    strictly inside each of m distinct arcs between consecutive thetas.

    Jittered-equispaced rather than uniform iid: heavy node clustering
    drives the Verblunsky coefficients toward the unit circle, and then the
    truncated moments no longer determine them to full precision in
    binary64 whatever the recovery algorithm.
    """
    spacing = TWO_PI / n
    if not spacing > min_gap:  # equispaced gaps below min_gap: no draw fits
        raise ValueError(f"{n} angles {min_gap} apart do not fit on the circle")
    jitter = min(0.3, max(0.0, 0.5 - min_gap / spacing))
    # Neighbours differ by at least spacing * (1 - 2 * jitter) >= 2 * min_gap,
    # or by spacing > min_gap when jitter is 0: no draw needs rejecting.
    shift = rng.uniform(0.0, TWO_PI)
    thetas = sorted(
        (shift + (i + rng.uniform(-jitter, jitter)) * spacing) % TWO_PI
        for i in range(n)
    )
    gaps = [thetas[i + 1] - thetas[i] for i in range(n - 1)]
    gaps.append(TWO_PI - thetas[-1] + thetas[0])
    arcs = sorted(rng.sample(range(n), m))
    phis = [(thetas[a] + gaps[a] * rng.uniform(0.3, 0.7)) % TWO_PI for a in arcs]
    return circle_pair_from_angles(thetas, phis)


def run_fuzz(
    setting: str,
    n: int,
    m: int,
    count: int,
    seed: int,
    profile: Profile = STANDARD,
    selection: WeightSelection | None = None,
) -> dict:
    """Generate `count` strictly interlacing instances, reconstruct and
    verify each, and return the body of the fuzz document: the run's
    parameters (the profile by name and tolerance), the passed and failed
    counts, and the failures, each {index, seed, code, detail} with its
    reproduction seed.  ProblemFormatError for a size that cannot be drawn:
    a negative count, m outside 1..n-1, or n nodes the generator cannot
    place (it refuses before drawing)."""
    generators = {REAL: random_real_instance, CIRCLE: random_circle_instance}
    if setting not in generators:
        raise ValueError(f"unknown setting {setting!r}")
    if count < 0:
        raise ProblemFormatError(f"count {count} is negative")
    if not 1 <= m < n:
        raise ProblemFormatError(f"need 1 <= m < n, got n={n}, m={m}")
    failures = []
    for i in range(count):
        try:
            pair = generators[setting](_rng(seed, i), n, m)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc
        try:
            report = reconstruct(pair, selection, profile).report
            if report.verdict:
                continue
            code, detail = "VERIFICATION_FAILED", ", ".join(report.failures)
        except TwospecError as exc:
            code, detail = exc.code, str(exc)
        failures.append({"index": i, "seed": f"{seed}:{i}", "code": code, "detail": detail})
    return {
        "setting": setting, "n": n, "m": m, "count": count, "seed": seed,
        "profile": profile.name, "tolerance": profile.tolerance,
        "passed": count - len(failures), "failed": len(failures), "failures": failures,
    }
