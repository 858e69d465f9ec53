import dataclasses
from fractions import Fraction as F

import pytest

import twospec
from twospec.fuzz import random_circle_instance, random_real_instance, _rng
from twospec.verify import STANDARD, STRICT


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
        assert sol.c_m.entries == ((twospec.boundary_param(pair.xis).conjugate(),),)

    def test_corrupted_alpha_fails(self, circle_3_2):
        sol = twospec.reconstruct_circle(circle_3_2)
        bad_alpha = (sol.verblunsky.alpha[0], sol.verblunsky.alpha[1] + 0.05)
        bad = dataclasses.replace(sol.verblunsky, alpha=bad_alpha)
        bad_cn = twospec.cmv_matrix(bad_alpha, sol.verblunsky.b)
        report = twospec.verify_popuc(
            circle_3_2, sol.weight.omega, bad, (bad_cn, sol.c_m), STRICT
        )
        assert not report.verdict


class TestBruteOracles:
    def test_nullspace_dimension(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        assert len(twospec.brute_nullspace(system)) == 2

    def test_charpoly_matches_node_product(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        char = twospec.brute_charpoly(sol.jacobi.matrix, 4)
        assert list(char.coeffs) == [24, -50, 35, -10, 1]

    def test_charpoly_matches_recurrence_evaluation(self, pair_7_3):
        sol = twospec.reconstruct_real(pair_7_3)
        for k in range(6):
            char = twospec.brute_charpoly(sol.jacobi.matrix, k)
            for x in (0, F(1, 3), -2, F(7, 2)):
                assert char(x) == twospec.eval_charpoly(sol.jacobi, k, x)

    def test_charpoly_dimension_guard(self, pair_4_2):
        sol = twospec.reconstruct_real(pair_4_2)
        with pytest.raises(twospec.DimensionTooLargeError):
            twospec.brute_charpoly(sol.jacobi.matrix, 9)

    def test_det_at_prescribed_point_vanishes(self, circle_3_2):
        sol = twospec.reconstruct_circle(circle_3_2)
        assert abs(twospec.brute_det(sol.c_m.entries, 1.0)) <= 1e-12

    def test_det_exact_mode(self):
        mat = ((F(1, 2), 1), (0, F(3, 2)))
        assert twospec.brute_det(mat, 2) == (2 - F(1, 2)) * (2 - F(3, 2))

    def test_condition_warning_on_degenerate_elimination(self):
        # near-identity matrix evaluated at the prescribed point z = 1:
        # every pivot collapses
        pair = twospec.circle_pair_from_angles((0.0, 2.0, 4.0), (1.2, 3.0))
        sol = twospec.reconstruct_circle(pair)
        near_eye = tuple(
            tuple((1.0 - 1e-13) + 0j if i == j else 0j for j in range(3))
            for i in range(3)
        )
        report = twospec.verify_popuc(
            pair,
            sol.weight.omega,
            sol.verblunsky,
            (near_eye, sol.c_m.entries),
            STANDARD,
        )
        assert not report.verdict
        assert any("pivots below" in w for w in report.warnings)


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
