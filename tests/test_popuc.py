import cmath
import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import twospec
from twospec import files, fuzz, popuc
from twospec.kernel import CIRCLE, WeightSelection
from twospec.poly import poly_from_roots, poly_sub, power_sums
from twospec.verify import FLOAT64, RESIDUALS, STANDARD, unitarity_defect

from . import oracles

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# strictly positive weights summing both circuits of the 3-against-2 pair
W_3_2 = (
    4 * (SQRT6 - SQRT2),
    (4 / 3) * (3 * SQRT2 - SQRT6),
    (4 / 3) * (3 * SQRT2 - SQRT6),
)


# Verblunsky coefficients with exact signed-zero parts, ordinary ones, and
# ones within 1e-12 of the unit circle.
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.7, 0.7))
_ANGLE = st.floats(0.0, 2 * math.pi)
_ALPHA = st.one_of(
    st.builds(complex, _PART, _PART),
    st.builds(cmath.rect, st.floats(0.0, 1.0 - 2e-12), _ANGLE),
)
_UNIT_AXES = [1 + 0j, complex(-1.0, -0.0), 1j, complex(-0.0, -1.0), complex(1.0, -0.0)]


def approx_c(actual, expected, tol=1e-10):
    assert abs(actual - expected) <= tol, f"{actual} != {expected}"


class TestTrigMoments:
    def test_golden_values(self, circle_3_2):
        mu = twospec.trig_moments(circle_3_2.zetas, W_3_2)
        approx_c(mu[0], 4 * SQRT2 + 4 * SQRT6 / 3)
        approx_c(mu[1], 0.0)
        approx_c(mu[2], -8 * SQRT6 / 3)

    def test_plain_tuple_of_n_power_sums(self, circle_3_2):
        mu = twospec.trig_moments(circle_3_2.zetas, W_3_2)
        assert type(mu) is tuple
        assert mu == tuple(power_sums(circle_3_2.zetas, W_3_2, 3))

    def test_point_mass_at_one(self):
        mu = twospec.trig_moments((1 + 0j,) * 4, (0.25,) * 4)
        assert mu == (1, 1, 1, 1)

    def test_conjugate_symmetric_measure_has_real_moments(self):
        z = cmath.rect(1.0, 0.8)
        mu = twospec.trig_moments((z, z.conjugate()), (0.7, 0.7))
        assert abs(mu[1].imag) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(twospec.LengthMismatchError):
            twospec.trig_moments((1j, -1j), (1.0,))


class TestVerblunsky:
    def test_golden_alphas(self, circle_3_2):
        mu = twospec.trig_moments(circle_3_2.zetas, W_3_2)
        data = twospec.verblunsky_from_moments(mu)
        approx_c(data.alpha[0], 0.0)
        approx_c(data.alpha[1], 1 - SQRT3)
        assert data.rho[1] == pytest.approx(math.sqrt(2 * SQRT3 - 3), abs=1e-10)
        assert data.b is None

    def test_rho_is_derived_from_alpha(self):
        data = twospec.VerblunskyData(alpha=(0j, complex(1 - SQRT3)), b=1j)
        assert data.rho == pytest.approx((1.0, math.sqrt(2 * SQRT3 - 3)), abs=1e-12)
        assert data.rho[1] == math.sqrt(1.0 - abs(1 - SQRT3) ** 2)

    def test_symmetric_two_point_measure(self):
        mu = twospec.trig_moments((1 + 0j, -1 + 0j), (1.0, 1.0))
        data = twospec.verblunsky_from_moments(mu)
        approx_c(data.alpha[0], 0.0, tol=1e-15)

    def test_alpha_matches_negated_reflected_constant(self, circle_3_2):
        # alpha_k = -conj(Phi_{k+1}(0)) along the whole recurrence
        mu = twospec.trig_moments(circle_3_2.zetas, W_3_2)
        data = twospec.verblunsky_from_moments(mu)
        phis = oracles.szego_phis(data.alpha)
        for k, a in enumerate(data.alpha):
            assert a == pytest.approx(-phis[k + 1][0].conjugate(), abs=1e-14)

    def test_scaling_invariance(self, circle_3_2):
        mu1 = twospec.trig_moments(circle_3_2.zetas, W_3_2)
        mu2 = twospec.trig_moments(circle_3_2.zetas, tuple(5.0 * w for w in W_3_2))
        d1 = twospec.verblunsky_from_moments(mu1)
        d2 = twospec.verblunsky_from_moments(mu2)
        assert d1.alpha == pytest.approx(d2.alpha, abs=1e-14)

    def test_too_few_support_points_detected(self):
        # three moments of a two-point measure: alpha_1 lands on the circle
        mu = twospec.trig_moments((1j, -1j, 1j), (1.0, 2.0, 0.5))
        with pytest.raises(twospec.AlphaOutOfDiskError, match="alpha_1"):
            twospec.verblunsky_from_moments(mu)

    def test_nan_alpha_is_out_of_the_disk(self):
        # abs(nan) >= 1 - DISK_MARGIN is false: the check must refuse it anyway
        with pytest.raises(twospec.AlphaOutOfDiskError, match=r"\|alpha_0\| = nan"):
            twospec.verblunsky_from_moments((1 + 0j, complex(math.nan, 0.0)))

    def test_nonpositive_mass_is_a_zero_denominator(self):
        with pytest.raises(twospec.ZeroDenominatorError):
            twospec.verblunsky_from_moments((-1 + 0j, 0j))

    def test_no_moments_is_a_zero_denominator(self):
        with pytest.raises(twospec.ZeroDenominatorError):
            twospec.verblunsky_from_moments(())

    def test_vanishing_norm_is_a_zero_denominator(self):
        # alpha_0 = alpha_1 = r inside the disk: <Phi_2, Phi_2> = (1 - r^2)^2,
        # about 1e-14, is below DENOM_REL * mu_0
        r = 1 - 5e-8
        mu = (1 + 0j, complex(r), complex(r * r + r * (1 - r * r)), 0j)
        with pytest.raises(twospec.ZeroDenominatorError, match="norm of Phi_2 vanished") as info:
            twospec.verblunsky_from_moments(mu)
        assert info.value.code == "ZERO_DENOMINATOR"


class TestBoundaryParam:
    def test_three_point_set(self, circle_3_2):
        approx_c(twospec.boundary_param(circle_3_2.zetas), 1j)

    def test_two_point_set(self, circle_3_2):
        approx_c(twospec.boundary_param(circle_3_2.xis), 1.0)

    def test_singleton(self):
        z = cmath.rect(1.0, 2.3)
        approx_c(twospec.boundary_param((z,)), z.conjugate(), tol=1e-15)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            twospec.boundary_param(())


class TestSzegoPopuc:
    def test_degree_one(self):
        b = cmath.rect(1.0, 1.1)
        psi = twospec.szego_popuc((), b, 1)
        assert psi == (-b.conjugate(), 1)

    def test_degree_two_against_product(self, circle_3_2):
        psi = twospec.szego_popuc((0.0,), 1.0, 2)
        assert psi == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)

    def test_degree_three_against_product(self, circle_3_2):
        psi = twospec.szego_popuc((0.0, 1 - SQRT3), 1j, 3)
        target = poly_from_roots(circle_3_2.zetas)
        assert psi == pytest.approx(tuple(target), abs=1e-10)

    def test_monic(self):
        psi = twospec.szego_popuc((0.3 + 0.1j,), -1j, 2)
        assert psi[-1] == 1
        assert len(psi) == 3

    def test_constant_term_is_unimodular(self):
        rng = random.Random(9)
        for _ in range(10):
            alpha = tuple(
                cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
                for _ in range(rng.randint(0, 5))
            )
            b = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
            psi = twospec.szego_popuc(alpha, b, len(alpha) + 1)
            assert abs(abs(oracles.poly_eval(psi, 0.0)) - 1.0) <= 1e-10

    def test_alpha_out_of_disk(self):
        with pytest.raises(twospec.AlphaOutOfDiskError):
            twospec.szego_popuc((1.0 + 0j,), 1.0, 2)

    def test_nan_alpha_is_out_of_the_disk(self):
        with pytest.raises(twospec.AlphaOutOfDiskError, match=r"\|alpha_0\| = nan"):
            twospec.szego_popuc((math.nan,), 1.0, 2)

    def test_needs_enough_alphas(self):
        with pytest.raises(twospec.LengthMismatchError):
            twospec.szego_popuc((), 1.0, 2)

    def test_degree_below_one_is_refused(self):
        with pytest.raises(ValueError) as info:
            twospec.szego_popuc((), 1.0, 0)
        assert (type(info.value), str(info.value)) == (
            ValueError, "degree must be an int of at least 1"
        )

    @pytest.mark.parametrize("ell", [True, 2.0, 1.5], ids=["bool", "integral_float", "float"])
    def test_degree_that_is_not_an_int_is_refused(self, ell):
        # True once returned Psi_1, and 2.0 failed in slicing with a bare TypeError
        with pytest.raises(ValueError) as info:
            twospec.szego_popuc((0.5,), 1, ell)
        assert (type(info.value), str(info.value)) == (
            ValueError, "degree must be an int of at least 1"
        )


def _counting_advance(monkeypatch):
    """Count the Szego steps taken from here on: ``popuc._advance`` calls."""
    calls, advance = [], popuc._advance
    monkeypatch.setattr(popuc, "_advance", lambda *args: calls.append(1) or advance(*args))
    return calls


# (seed, n, m) of seeded circle pairs, m = 1 and m = n - 1 included
_CIRCLE_CASES = [
    (1, 6, 1), (2, 6, 5), (3, 12, 4), (4, 12, 11), (5, 20, 1), (6, 20, 19), (1, 40, 13)
]


class TestSzegoFamily:
    """The recovery's one Szego pass gives Psi_n and Psi_m, to the bit."""

    def test_one_pass_per_solve(self, monkeypatch):
        calls = _counting_advance(monkeypatch)
        pair = fuzz.random_circle_instance(random.Random(1), 40, 13)
        solution = twospec.reconstruct(pair)
        assert len(calls) == pair.n - 1
        problem = files.Problem(CIRCLE, FLOAT64, pair, WeightSelection(), STANDARD)
        del calls[:]
        text = files.dumps_canonical(files.encode_solution(solution, problem))
        back = files.decode_solution(files.loads_document(text))
        assert len(calls) <= pair.n - 1
        assert back == solution and repr(back.psi_m) == repr(solution.psi_m)

    @pytest.mark.parametrize("seed, n, m", _CIRCLE_CASES)
    def test_closed_record_takes_the_recovered_family(self, seed, n, m):
        pair = fuzz.random_circle_instance(random.Random(seed), n, m)
        recovered = twospec.verblunsky_from_moments(twospec.reconstruct(pair).moments)
        built = twospec.VerblunskyData(recovered.alpha, None)
        for data in (recovered, built):
            closed = popuc.circle_parts(pair, data)["verblunsky"]
            assert closed.szego is data.szego
            assert closed.b == twospec.boundary_param(pair.zetas) and data.b is None

    def test_alpha_outside_the_disk_is_refused_before_any_szego_step(self, monkeypatch):
        calls = _counting_advance(monkeypatch)
        pair = fuzz.random_circle_instance(random.Random(2), 6, 5)
        data = twospec.VerblunskyData((0.1,) * 4 + (1.0 + 0j,), None)
        with pytest.raises(twospec.AlphaOutOfDiskError, match="alpha_4"):
            popuc.circle_parts(pair, data)
        assert calls == [] and "szego" not in vars(data)

    @pytest.mark.parametrize("seed, n, m", _CIRCLE_CASES)
    def test_psi_equals_its_own_recurrence(self, seed, n, m):
        pair = fuzz.random_circle_instance(random.Random(seed), n, m)
        solution = twospec.reconstruct(pair)
        data = solution.verblunsky
        assert repr(solution.psi_n) == repr(twospec.szego_popuc(data.alpha, data.b, n))
        assert repr(solution.psi_m) == repr(twospec.szego_popuc(data.alpha, solution.b_m, m))
        assert repr(data.szego) == repr(twospec.VerblunskyData(data.alpha, None).szego)

    @pytest.mark.parametrize("seed, n, m", _CIRCLE_CASES)
    def test_report_does_not_depend_on_where_the_family_came_from(self, seed, n, m):
        pair = fuzz.random_circle_instance(random.Random(seed), n, m)
        solution = twospec.reconstruct(pair)
        data, omega = solution.verblunsky, solution.weight.omega
        matrices = (solution.c_n, solution.c_m)

        def residuals(d):
            report = twospec.verify_popuc(pair, omega, d, matrices)
            return [repr(getattr(report, name)) for name in RESIDUALS]

        fresh = twospec.VerblunskyData(data.alpha, data.b)
        assert "szego" in vars(data) and "szego" not in vars(fresh)
        want = residuals(data)
        assert residuals(fresh) == residuals(dataclasses.replace(data, b=data.b)) == want
        assert [repr(getattr(solution.report, name)) for name in RESIDUALS] == want

    @pytest.mark.parametrize("seed, n, m", _CIRCLE_CASES)
    def test_new_alphas_never_read_the_old_family(self, seed, n, m):
        pair = fuzz.random_circle_instance(random.Random(seed), n, m)
        solution = twospec.reconstruct(pair)
        data, omega = solution.verblunsky, solution.weight.omega
        alpha = tuple(a / 2 for a in data.alpha)
        moved = dataclasses.replace(data, alpha=alpha)
        assert "szego" not in vars(moved)
        fresh = twospec.VerblunskyData(alpha, data.b)
        assert repr(moved.szego) == repr(fresh.szego) != repr(data.szego)
        reports = [
            twospec.verify_popuc(pair, omega, d, (solution.c_n, solution.c_m))
            for d in (moved, fresh)
        ]
        assert reports[0] == reports[1] and reports[0].poly_match_n != solution.report.poly_match_n


class TestCmvMatrix:
    def test_two_by_two(self):
        mat = oracles.dense_rows(twospec.cmv_matrix((0.0,), 1.0))
        assert mat == ((0j, 1 + 0j), (1 + 0j, 0j))

    def test_order_one(self):
        b = cmath.rect(1.0, 0.7)
        mat = oracles.dense_rows(twospec.cmv_matrix((), b))
        assert mat == ((b.conjugate(),),)
        psi = twospec.szego_popuc((), b, 1)
        approx_c(oracles.poly_eval(psi, b.conjugate()), 0.0, tol=1e-15)

    def test_three_by_three_golden(self):
        rho1 = math.sqrt(2 * SQRT3 - 3)
        mat = oracles.dense_rows(twospec.cmv_matrix((0.0, 1 - SQRT3), 1j))
        expected = (
            (0.0, 1 - SQRT3, rho1),
            (1.0, 0.0, 0.0),
            (0.0, -1j * rho1, 1j * (1 - SQRT3)),
        )
        for row, erow in zip(mat, expected):
            for a, e in zip(row, erow):
                approx_c(a, e)

    def test_unitary(self):
        rng = random.Random(11)
        alpha = tuple(
            cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            for _ in range(5)
        )
        b = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        mat = twospec.cmv_matrix(alpha, b)
        assert unitarity_defect(mat) <= 1e-14

    def test_nan_alpha_is_out_of_the_disk(self):
        with pytest.raises(twospec.AlphaOutOfDiskError, match=r"\|alpha_0\| = nan"):
            twospec.cmv_matrix((complex(math.nan, 0.0),), 1.0)

    def test_pentadiagonal_band(self):
        rng = random.Random(5)
        alpha = tuple(
            cmath.rect(rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi))
            for _ in range(7)
        )
        b = cmath.rect(1.0, 0.4)
        mat = oracles.dense_rows(twospec.cmv_matrix(alpha, b))
        n = len(mat)
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 2:
                    assert mat[i][j] == 0

    def test_characteristic_polynomial_matches_popuc(self):
        # det(zI - C) equals Psi up to a unimodular factor; check the zeros
        rng = random.Random(3)
        alpha = tuple(
            cmath.rect(rng.uniform(0, 0.85), rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        )
        b = cmath.rect(1.0, 1.9)
        n = len(alpha) + 1
        mat = oracles.dense_rows(twospec.cmv_matrix(alpha, b))
        char = oracles.brute_charpoly(mat, n)
        psi = twospec.szego_popuc(alpha, b, n)
        assert char == pytest.approx(psi, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_band_sum_matches_dense_product(self, n):
        # L * M as in the docstring, summed over every t: the band sum must
        # give the same bits, signed zeros included
        rng = random.Random(n)
        alpha = tuple(
            complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(n - 1)
        )
        b = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        rhos = [complex(math.sqrt(1.0 - abs(a) ** 2)) for a in alpha]

        def factor(start):
            rows = [[0j] * n for _ in range(n)]
            if start:
                rows[0][0] = 1 + 0j
            for k in range(start, n, 2):
                if k + 1 < n:
                    a, r = alpha[k], rhos[k]
                    rows[k][k], rows[k][k + 1] = a.conjugate(), r
                    rows[k + 1][k], rows[k + 1][k + 1] = r, -a
                else:
                    rows[k][k] = b.conjugate()
            return rows

        lf, mf = factor(0), factor(1)
        dense = [
            [sum(lf[i][t] * mf[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

        def bits(rows):
            return [[(repr(z.real), repr(z.imag)) for z in row] for row in rows]

        assert bits(oracles.dense_rows(twospec.cmv_matrix(alpha, b))) == bits(dense)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.lists(_ALPHA, max_size=11),
        b=st.one_of(st.sampled_from(_UNIT_AXES), st.builds(cmath.rect, st.just(1.0), _ANGLE)),
    )
    def test_cells_keep_their_bits(self, alpha, b):
        # the band-row product against the dense factors, n = 1..12: repr
        # tells -0.0 from 0.0, so every signed zero must agree as well
        def bits(rows):
            return [list(map(repr, row)) for row in rows]

        rows = twospec.cmv_matrix(alpha, b)
        assert bits(oracles.dense_rows(rows)) == bits(oracles.dense_cmv(alpha, b))
        # and each band cell whose column falls outside the matrix holds 0j
        n = len(rows)
        outside = [c for i, r in enumerate(rows) for j, c in enumerate(r, i - 2) if not 0 <= j < n]
        assert set(map(repr, outside)) <= {"0j"}

    def test_defect_matches_dense_sum(self):
        rng = random.Random(2)
        alpha = tuple(complex(rng.uniform(-0.6, 0.6), 0.1) for _ in range(6))
        # and random band rows of order 9, every cell inside the matrix nonzero
        full = [
            [
                complex(rng.gauss(0, 1), rng.gauss(0, 1)) if 0 <= j < 9 else 0j
                for j in range(i - 2, i + 3)
            ]
            for i in range(9)
        ]
        for rows in (twospec.cmv_matrix(alpha, 1j), full):
            dense = oracles.dense_rows(rows)
            n, acc = len(dense), 0.0
            for i in range(n):
                for j in range(n):
                    s = sum(dense[i][k] * dense[j][k].conjugate() for k in range(n))
                    acc += abs(s - 1 if i == j else s) ** 2
            assert unitarity_defect(rows) == math.sqrt(acc)


class TestPolyHelpers:
    """The C-level helpers against plain loops, entry for entry."""

    @pytest.mark.parametrize(
        "a, b",
        [
            ([F(1, 3), F(-2, 5), 7], [F(1, 2)]),
            ([F(1, 2)], [F(1, 3), 0, F(-5, 7)]),
            ([1 + 2j, -0.0j, complex(-0.0, 3.5)], [0.5j, complex(0.0, -0.0)]),
            ([0.25j], [1 - 1j, -0.0, 2.5]),
            ([], [F(3)]),
        ],
    )
    def test_poly_sub_on_unequal_lengths(self, a, b):
        n = max(len(a), len(b))
        want = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
        assert repr(poly_sub(a, b)) == repr(want)

    @pytest.mark.parametrize(
        "roots",
        [
            [],
            [3, -1, 4, 1, -5],
            [F(1, 3), F(-2, 7), F(5, 2), F(1, 3)],
            [0.5, -1.25, 3.0, 1e-3, -7.5],
            [cmath.rect(1.0, 0.3 * k) for k in range(7)],
        ],
    )
    def test_poly_from_roots_equals_the_product_expansion(self, roots):
        want = [1]
        for r in roots:
            want = oracles.poly_mul(want, [-r, 1])
        assert poly_from_roots(roots) == want

    def test_power_sums_equal_the_running_products(self):
        rng = random.Random(4)
        nodes = [cmath.rect(1.0, rng.uniform(0, 2 * math.pi)) for _ in range(9)]
        for weights in ([rng.uniform(0.1, 2.0) for _ in nodes], [F(k, 3) for k in range(9)]):
            want, pw = [], list(weights)
            for _ in range(12):
                total = 0
                for p in pw:
                    total = total + p
                want.append(total)
                pw = [p * z for p, z in zip(pw, nodes)]
            assert repr(power_sums(nodes, weights, 12)) == repr(want)


class TestRoundTrip:
    def test_five_point_measure_reproduces_its_nodes(self):
        rng = random.Random(42)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(5))
        zetas = tuple(cmath.rect(1.0, a) for a in angles)
        omega = tuple(rng.uniform(0.2, 2.0) for _ in range(5))
        mu = twospec.trig_moments(zetas, omega)
        data = twospec.verblunsky_from_moments(mu)
        b = twospec.boundary_param(zetas)
        psi = twospec.szego_popuc(data.alpha, b, 5)
        target = poly_from_roots(zetas)
        assert psi == pytest.approx(tuple(target), abs=1e-10)
        mat = twospec.cmv_matrix(data.alpha, b)
        assert unitarity_defect(mat) <= 1e-10
        for z in zetas:
            assert abs(oracles.brute_det(oracles.dense_rows(mat), z)) <= 1e-10
