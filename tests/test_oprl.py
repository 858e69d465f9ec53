import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import twospec
from twospec import files, oprl
from twospec.fuzz import random_real_instance
from twospec.oprl import JacobiData, _moment_stieltjes, _recurrence_polys, _rkpw
from twospec.poly import poly_from_roots, power_sums

from . import oracles

W_DEFAULT = (F(2, 5), F(2, 3), F(2, 3), F(2, 5))
W_S3 = (F(2, 3), F(2, 3), 2, F(14, 15))
NODES = (1, 2, 3, 4)

# closed forms for the one-parameter family on NODES with zeros (3/2, 7/2)
def beta_closed(s):
    return (F(3 * s + 2, s + 1), F(2 * s + 3, s + 1), F(3 * s + 2, s + 1), F(2 * s + 3, s + 1))


def gamma_closed(s):
    g1 = F(3 * s * s + 10 * s + 3, 4 * (s + 1) ** 2)
    g2 = F(15 * (s + 1) ** 2, 4 * (3 * s * s + 10 * s + 3))
    g3 = F(
        4 * s * (2 * s * s + 5 * s + 2),
        (s + 1) * (3 * s**3 + 13 * s**2 + 13 * s + 3),
    )
    return (g1, g2, g3)


class TestMoments:
    def test_direct_summation(self):
        mu = twospec.moments_real(NODES, W_DEFAULT)
        assert len(mu) == 8
        assert mu[0] == F(32, 15)
        assert mu[1] == F(16, 3)

    def test_single_node_powers(self):
        # a unit point mass at a, split over two equal nodes
        a = F(7, 3)
        mu = twospec.moments_real((a, a), (F(1, 2), F(1, 2)))
        assert mu == (1, a, a**2, a**3)

    def test_plain_tuple_of_2n_power_sums(self):
        mu = twospec.moments_real(NODES, W_DEFAULT)
        assert type(mu) is tuple
        assert mu == tuple(power_sums(NODES, W_DEFAULT, 2 * len(NODES)))

    def test_scaling_linearity(self):
        mu = twospec.moments_real(NODES, W_DEFAULT)
        scaled = twospec.moments_real(NODES, tuple(3 * w for w in W_DEFAULT))
        assert all(scaled[k] == 3 * mu[k] for k in range(len(mu)))

    def test_length_mismatch(self):
        with pytest.raises(twospec.LengthMismatchError):
            twospec.moments_real(NODES, (1, 2))

    def test_stieltjes_length_mismatch(self):
        with pytest.raises(twospec.LengthMismatchError, match="2 weights for 4 nodes") as info:
            twospec.stieltjes(NODES, (1, 2))
        assert info.value.code == "LENGTH_MISMATCH"


class TestStieltjes:
    def test_default_weights_polynomials(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        assert data.polys[1] == (F(-5, 2), 1)
        assert data.polys[2] == (F(21, 4), -5, 1)
        assert data.polys[3] == (F(-345, 32), F(269, 16), F(-15, 2), 1)
        assert data.polys[4] == (24, -50, 35, -10, 1)

    def test_shifted_weights_polynomials(self):
        data = twospec.stieltjes(NODES, W_S3)
        assert data.polys[1] == (F(-11, 4), 1)
        assert data.polys[3] == (F(-187, 16), 18, F(-31, 4), 1)
        # top and bottom of the family are pinned by the prescribed zeros
        assert data.polys[2] == (F(21, 4), -5, 1)
        assert data.polys[4] == (24, -50, 35, -10, 1)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_closed_forms(self, s):
        omega = tuple(
            a + s * b
            for a, b in zip(
                (F(4, 15), F(2, 3), 0, F(2, 15)), (F(2, 15), 0, F(2, 3), F(4, 15))
            )
        )
        data = twospec.stieltjes(NODES, omega)
        assert data.beta == beta_closed(s)
        assert data.gamma == gamma_closed(s)

    def test_closed_form_spot_values(self):
        # s = 2: beta_0 = 8/3 and gamma_1 = 35/36
        assert beta_closed(2)[0] == F(8, 3)
        assert gamma_closed(2)[0] == F(35, 36)

    def test_single_node(self):
        a = F(5, 7)
        assert twospec.stieltjes((a,), (F(10**30, 7),)).beta == (a,)
        data = twospec.stieltjes((a,), (1,))
        assert data.beta == (a,)
        assert data.gamma == ()
        assert data.polys[1] == (-a, 1)

    def test_top_polynomial_is_node_product_for_any_positive_weights(self):
        omega = (F(1, 7), F(2, 9), 3, F(5, 11))
        data = twospec.stieltjes(NODES, omega)
        assert list(data.polys[4]) == poly_from_roots(
            [F(x) for x in NODES]
        )

    def test_gamma_positive(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        assert all(g > 0 for g in data.gamma)

    def test_scaling_invariance(self):
        a = twospec.stieltjes(NODES, W_DEFAULT)
        b = twospec.stieltjes(NODES, tuple(F(7, 3) * w for w in W_DEFAULT))
        assert a.beta == b.beta and a.gamma == b.gamma
        assert all(p == q for p, q in zip(a.polys, b.polys))

    def test_node_order_does_not_matter(self):
        # a symmetric measure: some orders bring the bulge to exactly zero
        xs, omega = (-2, -1, 0, 1, 2), (F(1, 3), 1, F(1, 2), 1, F(1, 3))
        ref = twospec.stieltjes(xs, omega)
        for order in itertools.permutations(range(5)):
            data = twospec.stieltjes(
                [xs[i] for i in order], [omega[i] for i in order]
            )
            assert data.beta == ref.beta and data.gamma == ref.gamma

    def test_zero_norm_on_duplicate_nodes(self):
        with pytest.raises(twospec.ZeroNormError):
            twospec.stieltjes((1, 1, 2), (F(1, 3), F(1, 3), F(1, 3)))
        # a P_k that vanishes at every node, early or at the last step
        for xs in ((0, 0), (F(1, 3), 2, F(2, 6), 5), (1, 2, 3, 3)):
            with pytest.raises(twospec.ZeroNormError, match="coincident nodes"):
                twospec.stieltjes(xs, (F(10**30, 7),) * len(xs))
        with pytest.raises(twospec.ZeroNormError):
            twospec.stieltjes((1.0, 1.0, 2.0), (0.3, 0.3, 0.3))

    def test_zero_norm_message_names_the_cause(self):
        # equal binary64 nodes are coincident; at distinct nodes a gamma_k
        # that underflows is named, with the range of the weights as cause
        with pytest.raises(twospec.ZeroNormError, match="coincident nodes"):
            twospec.stieltjes((1.0, 1.0, 2.0), (0.3, 0.3, 0.3))
        with pytest.raises(twospec.ZeroNormError) as info:
            twospec.stieltjes((0.0, 1.0, 2.0, 3.0), (1.0, 1e-300, 1e-300, 1.0))
        assert info.value.code == "ZERO_NORM"
        assert str(info.value) == (
            "gamma_2 underflows binary64: the weights span too wide a range"
        )

    def test_zero_norm_on_a_wide_float_line_is_not_coincident_nodes(self):
        # nodes at least 0.2/300 apart whose weights span about 1e196
        pair = random_real_instance(
            random.Random(3), 300, 299, lo=-1.0, hi=1.0, min_gap=0.2 / 300
        )
        for strategy in ("cover", "sum_all"):
            with pytest.raises(twospec.ZeroNormError) as info:
                twospec.reconstruct(pair, twospec.WeightSelection(strategy))
            assert "underflows binary64" in str(info.value)
            assert "coincident" not in str(info.value)

    def test_nonpositive_mass_rejected(self):
        # the one weight rule of kernel.check_weights; ZERO_NORM stays for
        # coincident nodes
        with pytest.raises(twospec.NonpositiveWeightError):
            twospec.stieltjes((0, 1), (F(1, 2), F(-1, 2)))
        # one negative weight under a positive total mass
        with pytest.raises(twospec.NonpositiveWeightError):
            twospec.stieltjes((0, 1, 2), (1, F(-1, 10), 1))
        for w in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(twospec.NonpositiveWeightError):
                twospec.stieltjes((1.0, 2.0, 3.0, 4.0), (1.0, w, 1.0, 1.0))
        with pytest.raises(twospec.ZeroNormError):  # the empty measure
            twospec.stieltjes((), ())


@st.composite
def rational_measures(draw, max_n=9):
    """Distinct rational nodes in any order, of either sign, with
    denominators up to 10^6, and positive weights with numerators and
    denominators up to 10^40."""
    nodes = draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
            min_size=1,
            max_size=max_n,
            unique=True,
        )
    )
    size = st.integers(1, 10**40)
    weights = draw(
        st.lists(st.builds(F, size, size), min_size=len(nodes), max_size=len(nodes))
    )
    return tuple(nodes), tuple(weights)


class TestExactStieltjes:
    """The moment form of the Stieltjes procedure that rational mode runs
    (beta/gamma from power sums on the coefficient vectors of P_k, one pass
    of the recurrence on primitive integer vectors), against RKPW and the
    generic recurrence over Fraction."""

    @given(rational_measures())
    @settings(max_examples=150, deadline=None)
    def test_matches_rkpw(self, measure):
        xs, omega = measure
        beta, gamma, _ = _moment_stieltjes(xs, omega)
        assert (beta, gamma) == _rkpw(xs, omega)
        assert all(type(v) is F for v in (*beta, *gamma))

    @given(rational_measures(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_family_is_orthogonal_and_matches_the_recurrence(self, measure):
        xs, omega = measure
        data = twospec.stieltjes(xs, omega)
        assert data.polys == _recurrence_polys(data.beta, data.gamma, F(1))
        values = [[oracles.poly_eval(p, x) for x in xs] for p in data.polys[:-1]]
        for k, l in itertools.combinations(range(len(values)), 2):
            assert sum(w * a * b for w, a, b in zip(omega, values[k], values[l])) == 0
        assert all(oracles.poly_eval(data.polys[-1], x) == 0 for x in xs)

    def test_symmetric_measure_has_zero_beta(self):
        xs = (F(-5, 2), -1, F(-1, 3), 0, F(1, 3), 1, F(5, 2))
        omega = (F(1, 9), 2, F(3, 7), 5, F(3, 7), 2, F(1, 9))
        beta, gamma, _ = _moment_stieltjes(xs, omega)
        assert beta == [0] * 7
        assert (beta, gamma) == _rkpw(xs, omega)

    def test_exact_polys_match_the_recurrence_on_a_verified_instance(self):
        pair = random_real_instance(random.Random(3), 14, 5)
        pair = twospec.RealSpectrumPair(
            xs=tuple(F(x) for x in pair.xs), ys=tuple(F(y) for y in pair.ys)
        )
        sol = twospec.reconstruct_real(pair)
        assert sol.report.verdict
        data = sol.jacobi
        assert data.polys == _recurrence_polys(data.beta, data.gamma, F(1))
        assert (list(data.beta), list(data.gamma)) == _rkpw(pair.xs, sol.weight.omega)

    def test_one_pass_builds_the_family(self, monkeypatch):
        # reconstruct, verify and the writer share the P_k of one recurrence:
        # one primitive step per degree, not a second pass for polys
        pair = random_real_instance(random.Random(3), 14, 5)
        pair = twospec.RealSpectrumPair(
            xs=tuple(F(x) for x in pair.xs), ys=tuple(F(y) for y in pair.ys)
        )
        problem = files.Problem(
            setting=files.REAL,
            arithmetic=files.RATIONAL,
            pair=pair,
            selection=twospec.WeightSelection(),
            profile=twospec.STANDARD,
        )
        calls = []
        step = oprl._next_primitive
        monkeypatch.setattr(oprl, "_next_primitive", lambda *a: calls.append(1) or step(*a))
        sol = twospec.reconstruct(pair)
        doc = files.encode_solution(sol, problem)
        assert sol.report.verdict
        assert len(doc["polynomials"]) == pair.n + 1
        assert len(calls) == pair.n
        # data rebuilt from beta/gamma alone runs the recurrence of its own
        assert JacobiData(sol.jacobi.beta, sol.jacobi.gamma).polys == sol.jacobi.polys
        assert len(calls) == 2 * pair.n

    def test_replaced_data_rebuilds_its_family(self):
        # the family stieltjes hands over is no field: replace runs the
        # recurrence on the new coefficients
        data = twospec.stieltjes(NODES, W_DEFAULT)
        moved = dataclasses.replace(data, beta=(0, *data.beta[1:]))
        assert moved.polys == _recurrence_polys(moved.beta, moved.gamma, F(1))
        assert moved.polys[1:] != data.polys[1:]


class TestBinary64Recurrence:
    """The binary64 update against the exact one on the same inputs."""

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_exact_recurrence(self, n, seed):
        pair = random_real_instance(random.Random(seed), n, n // 3)
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        selection = twospec.WeightSelection(strategy="cover")
        omega = twospec.positive_weight(pair, bands, selection).omega
        approx = twospec.stieltjes(pair.xs, omega)
        exact = twospec.stieltjes([F(x) for x in pair.xs], [F(w) for w in omega])
        scale = max(abs(F(x)) for x in pair.xs)
        for a, b in zip(approx.beta, exact.beta):
            assert abs(F(a) - b) / scale <= 1e-12
        for a, b in zip(approx.gamma, exact.gamma):
            assert abs(F(a) - b) / b <= 1e-12

    def test_clustered_nodes_reconstruct(self):
        # 30 nodes in [-1, 1]: the norms h_k legitimately fall below 1e-13 h_0
        pair = random_real_instance(
            random.Random(1), 30, 10, lo=-1.0, hi=1.0, min_gap=0.01
        )
        assert twospec.reconstruct(pair).report.verdict


class TestDerivedPolys:
    """P_0..P_n are a view of beta/gamma, not state carried by Stieltjes."""

    def test_golden_family_from_coefficients_alone(self):
        data = JacobiData(beta=(F(5, 2),) * 4, gamma=(F(1), F(15, 16), F(9, 16)))
        assert data.polys == (
            (1,),
            (F(-5, 2), 1),
            (F(21, 4), -5, 1),
            (F(-345, 32), F(269, 16), F(-15, 2), 1),
            (24, -50, 35, -10, 1),
        )

    @pytest.fixture(scope="class")
    def float_jacobi(self):
        pair = random_real_instance(random.Random(5), 40, 12)
        return twospec.reconstruct_real(pair).jacobi

    def test_float_family_depends_on_coefficients_only(self, float_jacobi):
        rebuilt = JacobiData(beta=float_jacobi.beta, gamma=float_jacobi.gamma)

        def bits(polys):
            return [[c.hex() for c in p] for p in polys]

        assert bits(rebuilt.polys) == bits(float_jacobi.polys)
        assert all(type(c) is float for p in rebuilt.polys for c in p)

    def test_float_family_matches_leading_block_charpolys(self, float_jacobi):
        for k in range(9):
            char = oracles.brute_charpoly(oracles.dense_jacobi(float_jacobi), k)
            got = float_jacobi.polys[k]
            assert len(got) == len(char) == k + 1
            scale = max(abs(c) for c in char)
            assert max(abs(a - b) for a, b in zip(got, char)) <= 1e-12 * scale


class TestJacobiMatrix:
    def test_order_one(self):
        a = F(9, 4)
        data = twospec.stieltjes((a,), (1,))
        assert oracles.dense_jacobi(data) == ((a,),)

    def test_layout_at_unit_parameter(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        mat = oracles.dense_jacobi(data)
        assert [mat[i][i] for i in range(4)] == [F(5, 2)] * 4
        assert [mat[i][i + 1] for i in range(3)] == [1, 1, 1]
        # closed forms at s = 1: gamma = (1, 15/16, 9/16)
        assert [mat[i + 1][i] for i in range(3)] == [1, F(15, 16), F(9, 16)]
        assert mat[0][2] == 0 and mat[3][0] == 0

    def test_leading_block_charpoly_matches_family(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        for k in range(5):
            block = oracles.brute_charpoly(oracles.dense_jacobi(data), k)
            assert block == data.polys[k]


class TestEvalCharpoly:
    def test_vanishes_on_prescribed_sets(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        assert oracles.eval_charpoly(data, 4, 3) == 0
        assert oracles.eval_charpoly(data, 2, F(3, 2)) == 0

    def test_two_by_two_determinant_oracle(self):
        data = twospec.stieltjes(NODES, W_S3)
        x = F(13, 7)
        det = (x - data.beta[0]) * (x - data.beta[1]) - data.gamma[0]
        assert oracles.eval_charpoly(data, 2, x) == det

    def test_order_bounds(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        assert oracles.eval_charpoly(data, 0, 10) == 1
        with pytest.raises(ValueError):
            oracles.eval_charpoly(data, 5, 0)


class TestJacobiMatrixZeros:
    def test_float_off_band_zeros_are_positive(self):
        pair = twospec.RealSpectrumPair(xs=(-4.0, -3.0, -1.0, 0.5), ys=(-3.5, -0.2))
        data = twospec.reconstruct_real(pair).jacobi
        assert data.beta[0] < 0
        mat = oracles.dense_jacobi(data)
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                if abs(i - j) > 1:
                    assert entry == 0.0 and math.copysign(1.0, entry) > 0

    def test_exact_zeros_stay_rational(self):
        data = twospec.stieltjes(NODES, W_DEFAULT)
        mat = oracles.dense_jacobi(data)
        assert type(mat[0][2]) is F and type(mat[0][1]) is F
