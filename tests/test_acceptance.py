"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured-output section of a failure).
"""

import functools
import json
import math
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

import twospec
from twospec import cli
from twospec.fuzz import _rng, random_circle_instance, random_real_instance
from twospec.kernel import COEFFICIENTS, WeightSelection

from . import oracles
from .oracles import dense, mat_vec, random_rejected_problem, rref_nullspace

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return wrapper

    return deco


@criterion("1 four-node default reconstruction, exact")
def test_criterion_1_default_golden():
    pair = twospec.RealSpectrumPair(xs=(1, 2, 3, 4), ys=(F(3, 2), F(7, 2)))
    start = time.perf_counter()
    sol = twospec.reconstruct_real(pair)
    elapsed = time.perf_counter() - start

    assert sol.bands == ((1,), (2, 3), (4,))
    assert sol.family == ((1, 2, 4), (1, 3, 4))
    assert sol.weight.omega == (F(2, 5), F(2, 3), F(2, 3), F(2, 5))
    assert sol.jacobi.polys[1] == (F(-5, 2), 1)
    assert sol.jacobi.polys[2] == (F(21, 4), -5, 1)
    assert sol.jacobi.polys[3] == (F(-345, 32), F(269, 16), F(-15, 2), 1)
    assert sol.jacobi.polys[4] == (24, -50, 35, -10, 1)
    assert sol.report.verdict and sol.report.mode == "rational"
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


@criterion("2 one-parameter family, exact closed forms")
def test_criterion_2_parametric_golden():
    pair = twospec.RealSpectrumPair(xs=(1, 2, 3, 4), ys=(F(3, 2), F(7, 2)))

    sol3 = twospec.reconstruct_real(
        pair, WeightSelection(strategy=COEFFICIENTS, coefficients={1: 3})
    )
    assert sol3.weight.omega == (F(2, 3), F(2, 3), 2, F(14, 15))
    assert sol3.jacobi.polys[1] == (F(-11, 4), 1)
    assert sol3.jacobi.polys[3] == (F(-187, 16), 18, F(-31, 4), 1)

    for s in (1, 2, 3):
        sol = twospec.reconstruct_real(
            pair, WeightSelection(strategy=COEFFICIENTS, coefficients={1: s})
        )
        beta, gamma = sol.jacobi.beta, sol.jacobi.gamma
        assert beta[0] == F(3 * s + 2, s + 1)
        assert beta[1] == F(2 * s + 3, s + 1)
        assert gamma[0] == F(3 * s * s + 10 * s + 3, 4 * (s + 1) ** 2)
        assert gamma[1] == F(15 * (s + 1) ** 2, 4 * (3 * s * s + 10 * s + 3))


@criterion("3 seven-node bands and sign pattern, exact")
def test_criterion_3_band_decomposition():
    pair = twospec.RealSpectrumPair(
        xs=tuple(range(7)), ys=(F(1, 2), F(5, 2), F(9, 2))
    )
    verdict = twospec.check_interlace_real(pair)
    assert verdict.accepted and verdict.indices == (0, 1, 3, 5, 7)
    bands = twospec.bands_real(pair, verdict)
    assert bands == ((1,), (2, 3), (4, 5), (6, 7))

    def sign_on(band):
        signs = set()
        for j in band:
            value = 1
            for y in pair.ys:
                value *= pair.xs[j - 1] - y
            signs.add(1 if value > 0 else -1)
        assert len(signs) == 1
        return signs.pop()

    assert [sign_on(b) for b in bands] == [-1, +1, -1, +1]


@criterion("4 three-point circle reconstruction, 1e-10")
def test_criterion_4_circle_golden():
    pair = twospec.circle_pair_from_angles(
        (math.pi / 2, 4 * math.pi / 3, 5 * math.pi / 3), (0.0, math.pi)
    )
    start = time.perf_counter()
    sol = twospec.reconstruct_circle(pair, profile=twospec.STRICT)
    elapsed = time.perf_counter() - start

    w1 = 2 * (SQRT6 - SQRT2)
    w2 = (4 / 3) * (3 * SQRT2 - SQRT6)
    c1 = twospec.circuit(pair, (1, 2))
    c2 = twospec.circuit(pair, (1, 3))
    assert dense(c1, pair.n) == pytest.approx((w1, w2, 0.0), abs=1e-10)
    assert dense(c2, pair.n) == pytest.approx((w1, 0.0, w2), abs=1e-10)

    mu = sol.moments
    assert abs(mu[0] - (4 * SQRT2 + 4 * SQRT6 / 3)) <= 1e-10
    assert abs(mu[1]) <= 1e-10
    assert abs(mu[2] - (-8 * SQRT6 / 3)) <= 1e-10

    rho1 = math.sqrt(2 * SQRT3 - 3)
    assert abs(sol.verblunsky.alpha[0]) <= 1e-10
    assert abs(sol.verblunsky.alpha[1] - (1 - SQRT3)) <= 1e-10
    assert abs(sol.verblunsky.rho[1] - rho1) <= 1e-10
    assert abs(sol.verblunsky.b - 1j) <= 1e-10
    assert abs(sol.b_m - 1.0) <= 1e-10

    expected_c2 = ((0.0, 1.0), (1.0, 0.0))
    for row, erow in zip(oracles.dense_rows(sol.c_m), expected_c2):
        for a, e in zip(row, erow):
            assert abs(a - e) <= 1e-10
    expected_c3 = (
        (0.0, 1 - SQRT3, rho1),
        (1.0, 0.0, 0.0),
        (0.0, -1j * rho1, 1j * (1 - SQRT3)),
    )
    for row, erow in zip(oracles.dense_rows(sol.c_n), expected_c3):
        for a, e in zip(row, erow):
            assert abs(a - e) <= 1e-10

    for z in pair.zetas:
        assert abs(oracles.brute_det(oracles.dense_rows(sol.c_n), z)) <= 1e-9
    assert sol.report.spectrum_residual_n <= 1e-9
    assert sol.report.verdict
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


@criterion("5 sixty-node instance, exact and float64")
def test_criterion_5_large_instance():
    xs = tuple(range(1, 120, 2))
    ys = tuple(range(2, 71, 2))

    pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
    start = time.perf_counter()
    sol = twospec.reconstruct_real(pair)
    exact_elapsed = time.perf_counter() - start
    assert sol.family_size == 25
    assert tuple(map(len, sol.bands)) == (1,) * 35 + (25,)
    r = sol.report
    assert r.mode == "rational" and r.verdict
    assert (
        r.kernel_residual
        == r.poly_match_n
        == r.poly_match_m
        == r.spectrum_residual_n
        == r.spectrum_residual_m
        == 0.0
    )
    assert exact_elapsed < 120.0, f"rational took {exact_elapsed:.1f}s"

    fpair = twospec.RealSpectrumPair(
        xs=tuple(float(x) for x in xs), ys=tuple(float(y) for y in ys)
    )
    start = time.perf_counter()
    fsol = twospec.reconstruct_real(fpair, profile=twospec.Profile.custom(1e-6))
    float_elapsed = time.perf_counter() - start
    fr = fsol.report
    assert fr.mode == "float64" and fr.verdict
    for value in (
        fr.kernel_residual,
        fr.poly_match_n,
        fr.poly_match_m,
        fr.spectrum_residual_n,
        fr.spectrum_residual_m,
    ):
        assert value <= 1e-6
    assert float_elapsed < 10.0, f"float took {float_elapsed:.1f}s"


@criterion("6 two hundred seeded real instances at 1e-9")
def test_criterion_6_real_property_suite():
    seed = 2026
    profile = twospec.Profile.custom(1e-9)
    consecutive_seen = 0
    for i in range(200):
        rng = _rng(seed, i)
        n = rng.randint(2, 12)
        m = n - 1 if i % 4 == 0 else rng.randint(1, n - 1)
        pair = random_real_instance(rng, n, m, lo=-10.0, hi=10.0, min_gap=0.1)
        sol = twospec.reconstruct_real(pair, profile=profile)
        r = sol.report
        assert r.verdict, f"instance {i} failed: {r}"
        for value in (
            r.kernel_residual,
            r.poly_match_n,
            r.poly_match_m,
            r.spectrum_residual_n,
            r.spectrum_residual_m,
        ):
            assert value <= 1e-9, f"instance {i}: residual {value}"
        if m == n - 1:
            consecutive_seen += 1
            assert sol.family_size == 1
    assert consecutive_seen >= 50


@criterion("7 one hundred seeded circle instances")
def test_criterion_7_circle_property_suite():
    seed = 799
    for i in range(100):
        rng = _rng(seed, i)
        n = rng.randint(2, 10)
        m = rng.randint(1, n - 1)
        pair = random_circle_instance(rng, n, m, min_gap=1e-2)
        sol = twospec.reconstruct_circle(pair)
        assert sol.report.unitarity_defect <= 1e-10, f"instance {i}"
        assert sol.report.spectrum_residual_n <= 1e-8, f"instance {i}"
        assert sol.report.spectrum_residual_m <= 1e-8, f"instance {i}"
        assert all(abs(a) < 1 for a in sol.verblunsky.alpha), f"instance {i}"


def _rank(rows, ncols):
    return ncols - len(rref_nullspace([list(r) for r in rows], ncols))


def _random_rational_pair(rng, n, m):
    den = rng.choice([1, 2, 3, 4])
    ints = sorted(rng.sample(range(-40, 41), n))
    xs = tuple(F(v, den) for v in ints)
    gaps = sorted(rng.sample(range(n - 1), m))
    ys = tuple(
        xs[g] + (xs[g + 1] - xs[g]) * F(rng.choice([1, 2, 3]), 4) for g in gaps
    )
    return twospec.RealSpectrumPair(xs=xs, ys=ys)


def _mixed_sign_supports(pair, bands, size):
    wide = [b for b in bands if len(b) >= 2]
    supports = []
    for band in wide:
        for skip in bands:
            if skip is band:
                continue
            support = [b[0] for b in bands if b is not band and b is not skip]
            support += list(band[:2])
            if len(support) == size:
                supports.append(tuple(sorted(support)))
    return supports


@criterion("8 oracle equivalence on fifty instances")
def test_criterion_8_oracle_equivalence():
    seed = 88
    mixed_sampled = 0

    # 25 exact real instances
    for i in range(25):
        rng = _rng(seed, i)
        n = rng.randint(3, 9)
        m = rng.randint(1, n - 1)
        pair = _random_rational_pair(rng, n, m)
        system = twospec.assemble_system(pair)
        basis = oracles.brute_nullspace(system, n)
        assert len(basis) == n - m
        circuits = [
            dense(twospec.circuit(pair, s), n)
            for s in combinations(range(1, n + 1), m + 1)
        ]
        rank_c = _rank(circuits, n)
        assert rank_c == n - m
        # mutual containment, exactly: stacking either family onto the other
        # does not raise the rank
        assert _rank(circuits + [list(b) for b in basis], n) == n - m

        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        sol = twospec.reconstruct_real(pair)
        for k in range(min(n, 5) + 1):
            assert (
                oracles.brute_charpoly(oracles.dense_jacobi(sol.jacobi), k)
                == sol.jacobi.polys[k]
            )
        for support in _mixed_sign_supports(pair, bands, m + 1):
            vec = twospec.circuit(pair, support)
            signs = {w > 0 for w in dense(vec, n) if w != 0}
            assert signs == {True, False}
            mixed_sampled += 1

    # 25 circle instances in binary64
    for i in range(25):
        rng = _rng(seed, 1000 + i)
        n = rng.randint(3, 9)
        m = rng.randint(1, n - 1)
        pair = random_circle_instance(rng, n, m, min_gap=5e-2)
        system = twospec.assemble_system(pair)
        basis = oracles.brute_nullspace(system, n)
        assert len(basis) == n - m + 1
        circuits = [
            [complex(w) for w in dense(twospec.circuit(pair, s), n)]
            for s in combinations(range(1, n + 1), m)
        ]

        # orthonormalize the circuit span, then check containment both ways
        ortho = []
        for vec in circuits:
            v = list(vec)
            for q in ortho:
                coef = sum(a * b.conjugate() for a, b in zip(v, q))
                v = [a - coef * b for a, b in zip(v, q)]
            norm = math.sqrt(sum(abs(a) ** 2 for a in v))
            if norm > 1e-9 * max(abs(a) for a in vec):
                ortho.append([a / norm for a in v])
        assert len(ortho) == n - m + 1

        def residual(vec):
            v = [complex(a) for a in vec]
            scale = math.sqrt(sum(abs(a) ** 2 for a in v))
            for q in ortho:
                coef = sum(a * b.conjugate() for a, b in zip(v, q))
                v = [a - coef * b for a, b in zip(v, q)]
            return math.sqrt(sum(abs(a) ** 2 for a in v)) / scale

        for b in basis:
            assert residual(b) <= 1e-9
        norm_a = max(
            (sum(abs(e) for e in row) for row in system), default=0.0
        )
        for vec in circuits:
            if len(system):
                r = max(abs(x) for x in mat_vec(system, vec))
                assert r <= 1e-9 * norm_a * max(abs(a) for a in vec)

        bands = twospec.bands_circle(pair)
        for support in _mixed_sign_supports(pair, bands, m):
            vec = twospec.circuit(pair, support)
            signs = {w > 0 for w in dense(vec, n) if w != 0}
            assert signs == {True, False}
            mixed_sampled += 1

    assert mixed_sampled > 0


@criterion("9 fifty seeded rejections with exact codes")
def test_criterion_9_necessity(tmp_path):
    seed = 909
    kinds = ["gap_overfull", "out_of_range", "empty_band"]
    expected = {
        "gap_overfull": "GAP_OVERFULL",
        "out_of_range": "OUT_OF_RANGE",
        "empty_band": "EMPTY_BAND",
    }
    for i in range(50):
        kind = kinds[i % 3]
        doc = random_rejected_problem(_rng(seed, i), kind)
        path = tmp_path / f"problem_{i}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out_{i}.json"
        code = cli.main(["check", "-i", str(path), "-o", str(out)])
        result = json.loads(out.read_text())
        assert code == 2, f"instance {i} ({kind}) exited {code}"
        assert result["accepted"] is False
        assert result["code"] == expected[kind], f"instance {i}: {result}"
