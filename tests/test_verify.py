import cmath
import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import twospec
from twospec import files, verify
from twospec.fuzz import random_circle_instance, random_real_instance, _rng
from twospec.interlacing import TWO_PI
from twospec.kernel import WeightSelection, grid_system
from twospec.popuc import cmv_matrix
from twospec.scalars import integer_grid
from twospec.verify import STANDARD, STRICT

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

from . import oracles


class TestVerifyReal:
    def test_exact_reconstruction_has_zero_residuals(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        r = sol.report
        assert r.mode == "rational"
        assert r.verdict
        assert (
            r.kernel_residual
            == r.poly_match_n
            == r.poly_match_m
            == r.spectrum_residual_n
            == r.spectrum_residual_m
            == 0.0
        )
        assert r.unitarity_defect is None

    def test_corrupted_gamma_fails_with_positivity_flag(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        bad_gamma = (sol.jacobi.gamma[0], -sol.jacobi.gamma[1], sol.jacobi.gamma[2])
        bad = dataclasses.replace(sol.jacobi, gamma=bad_gamma)
        report = twospec.verify_oprl(pair_4_2, sol.weight.omega, bad, STRICT)
        assert not report.verdict
        assert not report.coefficients_ok

    def test_corrupted_weight_fails(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        omega = list(sol.weight.omega)
        omega[1] += F(1, 5)
        report = twospec.verify_oprl(pair_4_2, tuple(omega), sol.jacobi, STRICT)
        assert not report.verdict
        assert report.kernel_residual > 0

    def test_random_float_instance_under_1e9(self):
        pair = random_real_instance(_rng(7, 0), 8, 3)
        sol = twospec.reconstruct_real(pair)
        r = sol.report
        assert r.mode == "float64"
        for value in (
            r.kernel_residual,
            r.poly_match_n,
            r.poly_match_m,
            r.spectrum_residual_n,
            r.spectrum_residual_m,
        ):
            assert value <= 1e-9


class TestRationalSpectrum:
    """Rational mode proves P_k = prod (x - z_j) by its coefficients: the
    spectrum residual is the exact coefficient match."""

    @pytest.mark.parametrize("field", ["beta", "gamma"])
    def test_change_of_1e_minus_400_fails(self, field):
        # no zero-product coefficient exceeds 1, so a float 1.0 in the
        # normalisation would round the change to 0.0
        pair = twospec.RealSpectrumPair(
            xs=(F(-1, 2), F(-1, 4), F(1, 4), F(1, 2)), ys=(F(-3, 8), F(3, 8))
        )
        sol = twospec.reconstruct_real(pair)
        values = list(getattr(sol.jacobi, field))
        values[0] += F(1, 10**400)
        data = dataclasses.replace(sol.jacobi, **{field: tuple(values)})
        report = twospec.verify_oprl(pair, sol.weight.omega, data, STRICT)
        assert report.coefficients_ok
        assert not report.verdict
        assert {f.split("=")[0] for f in report.failures} == {
            "spectrum_residual_n",
            "spectrum_residual_m",
        }

    def test_spectrum_residual_is_the_coefficient_match(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        beta = (sol.jacobi.beta[0] + F(1, 3),) + sol.jacobi.beta[1:]
        data = dataclasses.replace(sol.jacobi, beta=beta)
        report = twospec.verify_oprl(pair_4_2, sol.weight.omega, data, STRICT)
        assert report.spectrum_residual_n == report.poly_match_n > 0
        assert report.spectrum_residual_m == report.poly_match_m > 0

    def test_omega_change_of_1e_minus_400_fails(self):
        # the residual runs on grid integers; int / int true division would
        # round this ratio to 0.0 (or overflow past 1e308), so the ratio
        # stays a Fraction, and the verdict reads it exactly
        problem = files.load_problem(json.loads((PROBLEMS / "real_small.json").read_text()))
        pair = problem.pair
        sol = twospec.reconstruct_real(pair, problem.selection, problem.profile)
        omega = list(sol.weight.omega)
        omega[1] *= 1 + F(1, 10**400)
        report = twospec.verify_oprl(pair, tuple(omega), sol.jacobi, STRICT)
        assert not report.verdict
        assert [f.split("=")[0] for f in report.failures] == ["kernel_residual"]
        exact = verify._kernel_residual(grid_system(pair.xs, pair.ys)[0], integer_grid(omega)[1])
        assert isinstance(exact, F) and 0 < exact < F(1, 10**399)
        assert report.kernel_residual == 0.0  # below the least binary64

    def test_kernel_residual_is_componentwise(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        omega = list(sol.weight.omega)
        omega[1] += 100
        report = twospec.verify_oprl(pair_4_2, tuple(omega), sol.jacobi, STRICT)
        assert 0 < report.kernel_residual <= 1  # the absolute row residual is 100


class TestRandomRealInstance:
    def test_many_nodes_returns_with_gaps_inside_range(self):
        # 200 nodes 0.1 apart leave a slack of only 0.1 in [-10, 10]
        pair = random_real_instance(_rng(0, 0), 200, 50, lo=-10.0, hi=10.0, min_gap=0.1)
        xs = pair.xs
        assert len(xs) == 200
        assert -10.0 <= xs[0] and xs[-1] <= 10.0
        assert all(b - a >= 0.1 for a, b in zip(xs, xs[1:]))
        assert twospec.check_interlace_real(pair).accepted

    def test_nodes_that_cannot_fit_are_refused(self):
        with pytest.raises(ValueError):
            random_real_instance(_rng(0, 0), 12, 3, lo=0.0, hi=1.0, min_gap=0.1)

    def test_angles_that_cannot_fit_are_refused(self):
        # 2*pi/628 > 1e-2 > 2*pi/629: no draw of 629 angles keeps the gaps
        assert random_circle_instance(_rng(0, 0), 628, 3).n == 628
        with pytest.raises(ValueError):
            random_circle_instance(_rng(0, 0), 629, 3)


class TestVerifyCircle:
    def test_golden_reconstruction(self, circle_3_2):
        sol = twospec.reconstruct_circle(circle_3_2, profile=STRICT)
        r = sol.report
        assert r.verdict
        assert r.kernel_residual <= 1e-10
        assert r.poly_match_n <= 1e-10
        assert r.poly_match_m <= 1e-10
        assert r.spectrum_residual_n <= 1e-9
        assert r.spectrum_residual_m <= 1e-9
        assert r.unitarity_defect <= 1e-10

    def test_random_instance_passes_standard(self):
        pair = random_circle_instance(_rng(7, 1), 6, 2)
        sol = twospec.reconstruct_circle(pair, profile=STANDARD)
        assert sol.report.verdict

    def test_single_base_point(self):
        pair = twospec.circle_pair_from_angles((0.4, 1.9, 3.3, 5.0), (0.1,))
        sol = twospec.reconstruct_circle(pair)
        assert sol.report.verdict
        assert oracles.dense_rows(sol.c_m) == ((twospec.boundary_param(pair.xis).conjugate(),),)

    def test_corrupted_alpha_fails(self, circle_3_2):
        sol = twospec.reconstruct_circle(circle_3_2)
        bad_alpha = (sol.verblunsky.alpha[0], sol.verblunsky.alpha[1] + 0.05)
        bad = dataclasses.replace(sol.verblunsky, alpha=bad_alpha)
        bad_cn = twospec.cmv_matrix(bad_alpha, sol.verblunsky.b)
        report = twospec.verify_popuc(
            circle_3_2, sol.weight.omega, bad, (bad_cn, sol.c_m), STRICT
        )
        assert not report.verdict

    def test_alpha_outside_the_disk_is_reported(self):
        pair = twospec.circle_pair_from_angles((0.4, 1.9, 3.3, 5.0), (0.1, 2.5))
        sol = twospec.reconstruct_circle(pair)
        bad = dataclasses.replace(
            sol.verblunsky, alpha=(1.5,) + sol.verblunsky.alpha[1:]
        )
        report = twospec.verify_popuc(pair, sol.weight.omega, bad, (sol.c_n, sol.c_m))
        assert not report.coefficients_ok
        assert not report.verdict
        assert report.failures[0] == "coefficients_ok=False"
        # no CMV product or Szego polynomial exists for |alpha_0| > 1
        assert report.unitarity_defect is None
        assert report.poly_match_n is None and report.poly_match_m is None
        assert report.kernel_residual is not None

    def test_nan_alpha_is_reported(self):
        # a NaN alpha fails (d), and what it leaves undefined reads None
        pair = twospec.circle_pair_from_angles((0.4, 1.9, 3.3, 5.0), (0.1, 2.5))
        sol = twospec.reconstruct_circle(pair)
        alpha = sol.verblunsky.alpha[:2] + (complex(math.nan, 0.0),)
        bad = dataclasses.replace(sol.verblunsky, alpha=alpha)
        report = twospec.verify_popuc(pair, sol.weight.omega, bad, (sol.c_n, sol.c_m))
        assert report.failures == (
            "coefficients_ok=False", "spectrum_residual_n=nan", "unitarity_defect=nan"
        )
        assert not report.coefficients_ok and not report.verdict
        assert report.poly_match_n is None and report.spectrum_residual_n is None
        assert report.unitarity_defect is None and report.warnings == ()
        # alpha_2 is not used for the m = 2 polynomial, which still matches
        assert report.poly_match_m <= 1e-15 and report.spectrum_residual_m <= 1e-15
        assert report.kernel_residual == sol.report.kernel_residual


class TestBruteOracles:
    def test_nullspace_dimension(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        assert len(oracles.brute_nullspace(system, pair_4_2.n)) == 2

    def test_charpoly_matches_node_product(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        char = oracles.brute_charpoly(oracles.dense_jacobi(sol.jacobi), 4)
        assert list(char) == [24, -50, 35, -10, 1]

    def test_charpoly_matches_recurrence_evaluation(self, pair_7_3):
        sol = twospec.reconstruct_real(pair_7_3)
        for k in range(6):
            char = oracles.brute_charpoly(oracles.dense_jacobi(sol.jacobi), k)
            for x in (0, F(1, 3), -2, F(7, 2)):
                assert oracles.poly_eval(char, x) == oracles.eval_charpoly(sol.jacobi, k, x)

    def test_charpoly_dimension_guard(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        with pytest.raises(oracles.DimensionTooLargeError):
            oracles.brute_charpoly(oracles.dense_jacobi(sol.jacobi), 9)

    def test_det_at_prescribed_point_vanishes(self, circle_3_2):
        sol = twospec.reconstruct_circle(circle_3_2)
        assert abs(oracles.brute_det(oracles.dense_rows(sol.c_m), 1.0)) <= 1e-12

    def test_det_exact_mode(self):
        mat = ((F(1, 2), 1), (0, F(3, 2)))
        assert oracles.brute_det(mat, 2) == (2 - F(1, 2)) * (2 - F(3, 2))

    def test_det_exact_zero_leading_pivot(self):
        # at the point 2 the shifted matrix starts with a zero pivot
        mat = ((F(2), F(1), F(0)), (F(1), F(3), F(1)), (F(0), F(1), F(5)))
        det = oracles.brute_det(mat, 2)
        assert det == oracles.poly_eval(oracles.brute_charpoly(mat, 3), 2) == 3
        assert isinstance(det, F)

    def test_condition_warning_on_degenerate_elimination(self):
        # near-identity matrix evaluated at the prescribed point z = 1:
        # every pivot collapses
        pair = twospec.circle_pair_from_angles((0.0, 2.0, 4.0), (1.2, 3.0))
        sol = twospec.reconstruct_circle(pair)
        near_eye = ((0j, 0j, (1.0 - 1e-13) + 0j, 0j, 0j),) * 3  # as band rows
        report = twospec.verify_popuc(
            pair,
            sol.weight.omega,
            sol.verblunsky,
            (near_eye, sol.c_m),
            STANDARD,
        )
        assert not report.verdict


class TestProfiles:
    def test_named_profiles(self):
        assert STRICT.tolerance == 1e-10
        assert STANDARD.tolerance == 1e-8

    def test_custom(self):
        prof = twospec.Profile.custom(1e-9)
        assert prof.tolerance == 1e-9

    def test_profile_gates_verdict(self, circle_3_2):
        sol = twospec.reconstruct_circle(
            circle_3_2, profile=twospec.Profile.custom(1e-30)
        )
        assert not sol.report.verdict


def _gap(point, union, period=None):
    """Distance from ``point`` to its nearest other point of ``union``."""
    dists = [abs(point - p) for p in union]
    if period:
        dists = [min(d % period, period - d % period) for d in dists]
    return min(d for d in dists if d > 0)


class TestSpectrumCalibration:
    """A solution verified against its own pair with one prescribed point
    moved by 2 tol g_j (g_j its local gap) fails that order's spectrum
    residual, and moved by 0.5 tol g_j passes it."""

    @pytest.mark.parametrize("order", ["n", "m"])
    @pytest.mark.parametrize("n, m", [(8, 3), (200, 60)])
    def test_line(self, n, m, order):
        pair = random_real_instance(_rng(11, n), n, m)
        sol = twospec.reconstruct_real(pair)
        assert sol.report.verdict
        tol = STANDARD.tolerance
        field = "xs" if order == "n" else "ys"
        points = list(getattr(pair, field))
        j = len(points) // 2
        g = _gap(points[j], pair.xs + pair.ys)
        for factor, exceeds in ((2.0, True), (0.5, False)):
            moved = points[:]
            moved[j] += factor * tol * g
            moved_pair = dataclasses.replace(pair, **{field: tuple(moved)})
            report = twospec.verify_oprl(moved_pair, sol.weight.omega, sol.jacobi, STANDARD)
            assert (getattr(report, f"spectrum_residual_{order}") > tol) == exceeds

    @pytest.mark.parametrize("order", ["n", "m"])
    def test_circle(self, order):
        pair = random_circle_instance(_rng(11, 12), 12, 5)
        sol = twospec.reconstruct_circle(pair)
        assert sol.report.verdict
        tol = STANDARD.tolerance
        points, angles = ("zetas", "thetas") if order == "n" else ("xis", "phis")
        theta = list(getattr(pair, angles))
        j = len(theta) // 2
        g = _gap(theta[j], pair.thetas + pair.phis, TWO_PI)
        for factor, exceeds in ((2.0, True), (0.5, False)):
            moved = theta[:]
            moved[j] += factor * tol * g
            moved_pair = dataclasses.replace(
                pair,
                **{points: tuple(cmath.rect(1.0, t) for t in moved), angles: tuple(moved)},
            )
            report = twospec.verify_popuc(
                moved_pair, sol.weight.omega, sol.verblunsky, (sol.c_n, sol.c_m), STANDARD
            )
            assert (getattr(report, f"spectrum_residual_{order}") > tol) == exceeds


# Instance 49 of the seed-1 circle benchmark workload (n=32, m=14): the
# cover weight reconstructs a CMV matrix with no eigenvalue within 1e-8 of
# its local gap of the theta at 4.0137 (point 25 in this order).
THETAS_49 = (
    5.379727786398462, 5.561814364622185, 5.738166844878621, 5.923103281425568,
    6.156234844116889, 0.008806599094608458, 0.24273365916454281, 0.44287018263976385,
    0.6344032049450501, 0.8126133615778652, 1.054186360947968, 1.2527737444273725,
    1.433321083447713, 1.6050071086555882, 1.8354830138919027, 2.03680331381932,
    2.2396897097321435, 2.4301656557409004, 2.6288728108256016, 2.800515461199492,
    3.0270656161631493, 3.229849132165274, 3.4255165949319633, 3.5980612536534284,
    3.749802440237799, 4.013678028787606, 4.138556021005055, 4.376690972198176,
    4.573583057664365, 4.74271605663901, 4.933318522260432, 5.11754865230051,
)
PHIS_49 = (
    5.487908128933473, 0.12253530453467221, 0.34920876040014104, 0.5765954322638276,
    0.7122573520401403, 0.9438739494257495, 1.1225362236739613, 1.7527671715930584,
    2.1643878131798306, 2.7187744591274896, 3.5103012462351018, 3.6770086158417765,
    4.441218876141683, 5.261674906940176,
)


class TestDeclinedAnswers:
    def test_circle_point_without_eigenvalue_in_its_window(self):
        pair = twospec.circle_pair_from_angles(THETAS_49, PHIS_49)
        sol = twospec.reconstruct_circle(pair, WeightSelection(strategy="cover"))
        r = sol.report
        assert not r.verdict
        assert r.spectrum_residual_n > STANDARD.tolerance
        assert any(f.startswith("spectrum_residual_n=") for f in r.failures)

    def test_non_finite_residual_is_none_and_fails(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        floats = twospec.RealSpectrumPair(
            xs=tuple(float(x) for x in pair_4_2.xs), ys=tuple(float(y) for y in pair_4_2.ys)
        )
        omega = (math.nan,) + tuple(float(w) for w in sol.weight.omega[1:])
        report = twospec.verify_oprl(floats, omega, sol.jacobi, STANDARD)
        assert report.kernel_residual is None
        assert not report.verdict
        assert "kernel_residual=nan" in report.failures


def _exact_psi(z, alpha, b):
    """Psi(z) = z Phi(z) - conj(b) Phi*(z) by the Szego recurrence run in the
    exact rationals of the binary64 inputs, real and imaginary parts apart."""

    def exact(c):
        return F(c.real), F(c.imag)

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def sub(p, q):
        return p[0] - q[0], p[1] - q[1]

    z, u = exact(complex(z)), (F(1), F(0))
    v = u
    for a in map(exact, map(complex, alpha)):
        zu = mul(z, u)
        u, v = sub(zu, mul((a[0], -a[1]), v)), sub(v, mul(a, zu))
    return sub(mul(z, u), mul(exact(complex(b).conjugate()), v))


class TestResidualEdges:
    def test_circle_recurrence_rescales_past_2_to_the_400(self):
        # alpha_k = -(1 - 2^-20): at z = 1, Phi*_k = (2 - 2^-20)^k leaves
        # [2^-400, 2^400] at k = 401, and z = 1 holds the largest term
        n = 402
        thetas = tuple(TWO_PI * j / n for j in range(n))
        phis = (TWO_PI - math.pi / n,)
        zetas = tuple(cmath.rect(1.0, t) for t in thetas)
        pair = twospec.CircleSpectrumPair(zetas, (cmath.rect(1.0, phis[0]),), thetas, phis)
        alpha, b = (-(1 - 2.0**-20),) * (n - 1), -1.0
        data = twospec.VerblunskyData(alpha, b)
        report = twospec.verify_popuc(pair, (1.0,) * n, data, ((), ()))
        psi = _exact_psi(1.0, alpha, b)
        assert psi[1] == 0 and psi[0] > 2**401  # Psi(1) = 2 Phi*(1)
        gap = TWO_PI - phis[0]  # to the zm point, the nearest one
        want = float(psi[0]) / math.prod(abs(1 - z) for z in zetas[1:]) / gap
        assert report.spectrum_residual_n == pytest.approx(want, rel=1e-12)

    def test_coincident_points_make_the_spectrum_infinite(self):
        # log2 |z_j - z_i| of a coincidence: the term is infinite, not an error
        pair = twospec.CircleSpectrumPair(
            (1 + 0j, 1 + 0j, -1 + 0j), (1j,), (0.0, 0.0, math.pi), (math.pi / 2,)
        )
        data = twospec.VerblunskyData((0.1 + 0j, 0.2 + 0j), 1 + 0j)
        matrices = (cmv_matrix(data.alpha, data.b), cmv_matrix((), twospec.boundary_param(pair.xis)))
        report = twospec.verify_popuc(pair, (1.0,) * 3, data, matrices)
        assert report.spectrum_residual_n is None
        assert report.failures == ("spectrum_residual_n=inf",)

    def test_matrix_of_another_band_shape_is_infinitely_defective(self, circle_3_2):
        sol = twospec.reconstruct_circle(circle_3_2)
        assert sol.report.verdict
        for c_n in (sol.c_n[:-1], tuple(r[:4] for r in sol.c_n)):
            report = twospec.verify_popuc(
                circle_3_2, sol.weight.omega, sol.verblunsky, (c_n, sol.c_m)
            )
            assert report.unitarity_defect is None
            assert report.failures == ("unitarity_defect=inf",)
            kept = dict(unitarity_defect=sol.report.unitarity_defect, verdict=True)
            assert dataclasses.replace(report, **kept) == sol.report  # nothing else moves

    def test_residual_past_the_float_range_is_infinite(self, pair_4_2):
        # an exact residual of about 10^400 has no float: it reads inf
        sol = twospec.reconstruct_real(pair_4_2)
        data = dataclasses.replace(sol.jacobi, beta=(F(10**400),) + sol.jacobi.beta[1:])
        report = twospec.verify_oprl(pair_4_2, sol.weight.omega, data)
        assert report.poly_match_n is None and report.spectrum_residual_n is None
        assert report.failures == ("spectrum_residual_n=inf", "spectrum_residual_m=inf")
        assert report.kernel_residual == 0


COVER = WeightSelection(strategy="cover")


class TestMutations:
    """One recurrence coefficient perturbed in a verified solution: a change
    of 1e-6 (relative on the line, absolute on the circle) fails the
    verdict, a change of 1e-15 passes it."""

    @pytest.mark.parametrize("n, m", [(8, 3), (200, 60)])
    @pytest.mark.parametrize("field", ["beta", "gamma"])
    def test_line(self, n, m, field):
        pair = random_real_instance(random.Random(1), n, m)
        sol = twospec.reconstruct_real(pair, COVER)
        assert sol.report.verdict
        for k in (0, n // 2, n - 2):
            for factor, passes in ((1 + 1e-6, False), (1 + 1e-15, True)):
                values = list(getattr(sol.jacobi, field))
                values[k] *= factor
                data = dataclasses.replace(sol.jacobi, **{field: tuple(values)})
                report = twospec.verify_oprl(pair, sol.weight.omega, data, STANDARD)
                assert report.verdict == passes, (k, factor, report.failures)

    @pytest.mark.parametrize("k", [0, 6, 9])
    def test_circle(self, k):
        pair = random_circle_instance(random.Random(2), 12, 4)
        sol = twospec.reconstruct_circle(pair, COVER)
        assert sol.report.verdict
        data = sol.verblunsky
        for delta, passes in ((1e-6, False), (1e-15, True)):
            alpha = list(data.alpha)
            alpha[k] += delta
            matrices = (cmv_matrix(alpha, data.b), cmv_matrix(alpha[: pair.m - 1], sol.b_m))
            report = twospec.verify_popuc(
                pair, sol.weight.omega, dataclasses.replace(data, alpha=tuple(alpha)),
                matrices, STANDARD,
            )  # fmt: skip
            assert report.verdict == passes, (delta, report.failures)


class TestKernelResidual:
    def test_small_weight_change_fails_at_n_200(self):
        # omega spans 1e-108 .. 1e-64 here; a 1% change of omega[150] was
        # invisible next to ||A|| ||omega|| (a residual of 8e-50)
        pair = random_real_instance(random.Random(1), 200, 60)
        sol = twospec.reconstruct_real(pair, COVER)
        assert sol.report.kernel_residual < 1e-14
        omega = list(sol.weight.omega)
        omega[150] *= 1.01
        report = twospec.verify_oprl(pair, tuple(omega), sol.jacobi, STANDARD)
        assert report.kernel_residual > 1e-7
        assert not report.verdict
        assert any(f.startswith("kernel_residual=") for f in report.failures)


class TestSameBitsOnEveryInterpreter:
    def test_float_line_values_are_pinned(self):
        # omega, beta/gamma, the moments and the kernel residual take only
        # IEEE + - * / and abs, added left to right: no libm and no
        # compensated sum(), so these bits are the same on every interpreter
        # and platform
        pair = random_real_instance(random.Random(1), 40, 12)
        sol = twospec.reconstruct_real(pair)
        assert sol.report.verdict
        values = (
            *sol.weight.omega, *sol.jacobi.beta, *sol.jacobi.gamma, *sol.moments,
            sol.report.kernel_residual,
        )  # fmt: skip
        text = " ".join(v.hex() for v in values)
        assert hashlib.sha1(text.encode()).hexdigest() == (
            "aeada0515bc6552d644bb92ad7bf11e0cfd988ff"
        )

    def test_float_line_cover_weight_is_pinned(self):
        # the closed-form cover weight adds its ratios left to right; a
        # compensated sum (math.fsum, or sum() from 3.12) gives other bits
        pair = random_real_instance(random.Random(1), 40, 12)
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        omega = twospec.positive_weight(pair, bands, WeightSelection("cover")).omega
        text = " ".join(v.hex() for v in omega)
        assert hashlib.sha1(text.encode()).hexdigest() == (
            "459540831eaeff8e957a4a71c092e9a3066e66d4"
        )

    def test_exact_line_values_are_pinned(self):
        # the rational twin: non-integer nodes and points, the sum_all and
        # cover weights, and every value's str
        rng = random.Random(1)
        xs = sorted({F(rng.randint(-900, 900), rng.randint(2, 30)) for _ in range(24)})
        gaps = sorted(rng.sample(range(len(xs) - 1), 9))
        ys = [xs[g] + (xs[g + 1] - xs[g]) * F(rng.randint(1, 9), 10) for g in gaps]
        pair = twospec.RealSpectrumPair(xs=tuple(xs), ys=tuple(ys))
        values = []
        for strategy in ("sum_all", "cover"):
            sol = twospec.reconstruct_real(pair, WeightSelection(strategy))
            assert sol.report.verdict
            values += [*sol.weight.omega, *sol.jacobi.beta, *sol.jacobi.gamma, *sol.moments]
        text = " ".join(map(str, values))
        assert hashlib.sha1(text.encode()).hexdigest() == (
            "78d552357a8646b5a8f8abd2959d52d694c46d8f"
        )
