"""Seeded random instances and the reconstruct+verify fuzz driver.

Instances are generated deterministically from (seed, index) so any failure
is reproducible from the reported per-instance seed string.  Strictly
interlacing instances place the smaller set by sampling distinct gaps of
the larger set; non-interlacing instances realize one named violation each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import TwospecError
from .interlacing import TWO_PI, CircleSpectrumPair, RealSpectrumPair, circle_pair_from_angles
from .kernel import WeightSelection
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
    jitter = min(0.3, max(0.0, 0.5 - min_gap / spacing))
    shift = rng.uniform(0.0, TWO_PI)
    while True:
        thetas = sorted(
            (shift + (i + rng.uniform(-jitter, jitter)) * spacing) % TWO_PI
            for i in range(n)
        )
        gaps = [thetas[i + 1] - thetas[i] for i in range(n - 1)]
        gaps.append(TWO_PI - thetas[-1] + thetas[0])
        if all(g >= min_gap for g in gaps):
            break
    arcs = sorted(rng.sample(range(n), m))
    phis = []
    for a in arcs:
        start = thetas[a]
        width = gaps[a]
        phis.append((start + width * rng.uniform(0.3, 0.7)) % TWO_PI)
    return circle_pair_from_angles(thetas, phis)


def random_rejected_problem(rng: random.Random, kind: str) -> dict:
    """A ProblemFile document violating interlacing in one named way."""
    if kind == "gap_overfull":
        n = rng.randint(4, 9)
        pair = random_real_instance(rng, n, 1)
        g = rng.randrange(n - 1)
        x0, x1 = pair.xs[g], pair.xs[g + 1]
        ys = sorted([x0 + (x1 - x0) * 0.3, x0 + (x1 - x0) * 0.7])
        return {
            "schema": "v1",
            "setting": "real",
            "arithmetic": "float64",
            "zn": list(pair.xs),
            "zm": ys,
        }
    if kind == "out_of_range":
        n = rng.randint(3, 9)
        pair = random_real_instance(rng, n, 1)
        side = rng.choice([-1.0, 1.0])
        stray = pair.xs[0] - 1.0 if side < 0 else pair.xs[-1] + 1.0
        return {
            "schema": "v1",
            "setting": "real",
            "arithmetic": "float64",
            "zn": list(pair.xs),
            "zm": [stray],
        }
    if kind == "empty_band":
        n = rng.randint(4, 9)
        m = rng.randint(2, min(3, n - 1))
        pair = random_circle_instance(rng, n, m)
        # Drop both phis into one theta-arc: the band between them is empty.
        a = rng.randrange(n)
        start = pair.thetas[a]
        width = (pair.thetas[(a + 1) % n] - start) % TWO_PI or TWO_PI
        phis = [
            (start + width * 0.3) % TWO_PI,
            (start + width * 0.7) % TWO_PI,
        ] + [
            (start + width * 0.5 + TWO_PI * (k + 1) / (m + 1)) % TWO_PI
            for k in range(m - 2)
        ]
        return {
            "schema": "v1",
            "setting": "circle",
            "arithmetic": "float64",
            "zn": list(pair.thetas),
            "zm": phis,
        }
    raise ValueError(f"unknown violation kind {kind!r}")


@dataclass(frozen=True)
class FuzzFailure:
    index: int
    seed: str
    code: str
    detail: str


@dataclass(frozen=True)
class FuzzReport:
    setting: str
    n: int
    m: int
    count: int
    seed: int
    profile: Profile
    passed: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    setting: str,
    n: int,
    m: int,
    count: int,
    seed: int,
    profile: Profile = STANDARD,
    selection: WeightSelection | None = None,
) -> FuzzReport:
    """Generate `count` strictly interlacing instances, reconstruct and
    verify each; failures carry reproduction seeds."""
    generators = {"real": random_real_instance, "circle": random_circle_instance}
    if setting not in generators:
        raise ValueError(f"unknown setting {setting!r}")
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    failures = []
    passed = 0
    for i in range(count):
        tag = f"{seed}:{i}"
        rng = _rng(seed, i)
        try:
            pair = generators[setting](rng, n, m)
            solution = reconstruct(pair, selection, profile)
            if solution.report.verdict:
                passed += 1
            else:
                failures.append(
                    FuzzFailure(
                        index=i,
                        seed=tag,
                        code="VERIFICATION_FAILED",
                        detail=f"report residuals exceed {profile.tolerance}",
                    )
                )
        except TwospecError as exc:
            failures.append(
                FuzzFailure(index=i, seed=tag, code=exc.code, detail=str(exc))
            )
    return FuzzReport(
        setting=setting,
        n=n,
        m=m,
        count=count,
        seed=seed,
        profile=profile,
        passed=passed,
        failures=tuple(failures),
    )
