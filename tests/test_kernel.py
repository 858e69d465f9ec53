import math
from fractions import Fraction as F

import pytest

import twospec
from twospec.kernel import COEFFICIENTS, COVER, SUM_ALL
from twospec.linalg import mat_vec


def _bands(pair):
    if isinstance(pair, twospec.RealSpectrumPair):
        return twospec.bands_real(pair, twospec.check_interlace_real(pair))
    return twospec.bands_circle(pair)


class TestAssemble:
    def test_one_row_by_hand(self):
        # P_1(x) = x - 1 at nodes 0 and 2
        pair = twospec.RealSpectrumPair(xs=(0, 2), ys=(1,))
        system = twospec.assemble_system(pair)
        assert system.shape == (1, 2)
        assert system.entries == ((-1, 1),)

    def test_rows_by_direct_evaluation(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        assert system.shape == (2, 4)
        # row 1: (x - 3/2)(x - 7/2) at each node, row 2: x times that
        expected = tuple((x - F(3, 2)) * (x - F(7, 2)) for x in (1, 2, 3, 4))
        assert system.entries[0] == expected
        assert system.entries[1] == tuple(
            x * e for x, e in zip((1, 2, 3, 4), expected)
        )

    def test_rank_by_row_reduction(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        basis = twospec.brute_nullspace(system)
        assert system.shape[1] - len(basis) == 2

    def test_shared_point_raises(self):
        pair = twospec.RealSpectrumPair(xs=(0, 1, 2), ys=(1,))
        with pytest.raises(twospec.SharedPointError):
            twospec.assemble_system(pair)

    def test_single_base_point_circle_has_no_rows(self):
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0), (0.5,))
        system = twospec.assemble_system(pair)
        assert system.shape == (0, 3)
        assert system.entries == ()

    def test_circle_entries(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        assert system.shape == (1, 3)
        for j, z in enumerate(circle_3_2.zetas):
            expected = (z - 1) * (z + 1) / z
            assert system.entries[0][j] == pytest.approx(expected, abs=1e-12)


class TestAdmissibleFamily:
    def test_two_member_family(self, pair_4_2):
        bands = _bands(pair_4_2)
        assert twospec.admissible_family(bands) == ((1, 2, 4), (1, 3, 4))

    def test_all_singletons_single_member(self):
        xs = tuple(range(4))
        ys = tuple(F(2 * k + 1, 2) for k in range(3))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        bands = _bands(pair)
        assert twospec.admissible_family(bands) == ((1, 2, 3, 4),)

    def test_cartesian_count(self, circle_7_3):
        bands = _bands(circle_7_3)
        assert bands.sizes == (3, 2, 2)
        family = twospec.admissible_family(bands)
        assert len(family) == 12
        assert twospec.admissible_size(bands) == 12

    def test_lexicographic_order_and_indexing(self, circle_7_3):
        bands = _bands(circle_7_3)
        family = twospec.admissible_family(bands)
        assert family == tuple(sorted(family))
        for k, support in enumerate(family):
            assert twospec.admissible_at(bands, k) == support
        with pytest.raises(IndexError):
            twospec.admissible_at(bands, len(family))


class TestRealCircuits:
    def test_first_support(self, pair_4_2):
        vec = twospec.circuit_real(pair_4_2, (1, 2, 4))
        assert vec.weights == (F(4, 15), F(2, 3), 0, F(2, 15))

    def test_second_support(self, pair_4_2):
        vec = twospec.circuit_real(pair_4_2, (1, 3, 4))
        assert vec.weights == (F(2, 15), 0, F(2, 3), F(4, 15))

    def test_two_node_by_hand(self):
        pair = twospec.RealSpectrumPair(xs=(0, 2), ys=(1,))
        vec = twospec.circuit_real(pair, (1, 2))
        assert vec.weights == (F(1, 2), F(1, 2))
        system = twospec.assemble_system(pair)
        assert all(r == 0 for r in mat_vec(system.entries, vec.weights))

    def test_kernel_membership_all_supports(self, pair_4_2):
        from itertools import combinations

        system = twospec.assemble_system(pair_4_2)
        for support in combinations(range(1, 5), 3):
            vec = twospec.circuit_real(pair_4_2, support)
            assert all(r == 0 for r in mat_vec(system.entries, vec.weights))

    def test_admissible_support_nonnegative(self, pair_7_3):
        bands = _bands(pair_7_3)
        for support in twospec.admissible_family(bands):
            vec = twospec.circuit_real(pair_7_3, support)
            assert all(w >= 0 for w in vec.weights)
            assert sum(1 for w in vec.weights if w > 0) == pair_7_3.m + 1

    def test_non_admissible_support_has_mixed_signs(self, pair_4_2):
        # indices 2 and 3 share a band
        vec = twospec.circuit_real(pair_4_2, (1, 2, 3))
        signs = {w > 0 for w in vec.weights if w != 0}
        assert signs == {True, False}

    def test_bad_support_size(self, pair_4_2):
        with pytest.raises(ValueError):
            twospec.circuit_real(pair_4_2, (1, 2))


class TestCircleCircuits:
    W1 = 2 * (math.sqrt(6) - math.sqrt(2))
    W2 = (4 / 3) * (3 * math.sqrt(2) - math.sqrt(6))

    def test_first_support(self, circle_3_2):
        vec = twospec.circuit_circle(circle_3_2, (1, 2))
        assert vec.weights == pytest.approx((self.W1, self.W2, 0.0), abs=1e-10)

    def test_second_support(self, circle_3_2):
        vec = twospec.circuit_circle(circle_3_2, (1, 3))
        assert vec.weights == pytest.approx((self.W1, 0.0, self.W2), abs=1e-10)

    def test_kernel_membership(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        for support in ((1, 2), (1, 3), (2, 3)):
            vec = twospec.circuit_circle(circle_3_2, support)
            residual = max(abs(r) for r in mat_vec(system.entries, vec.weights))
            assert residual <= 1e-10 * max(abs(w) for w in vec.weights)

    def test_single_base_point_single_entry(self):
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0), (0.5,))
        vec = twospec.circuit_circle(pair, (2,))
        expected = 1.0 / math.sin((2.0 - 0.5) / 2.0)
        assert vec.weights == pytest.approx((0.0, expected, 0.0))
        assert vec.weights[1] > 0

    def test_non_admissible_mixed_signs(self, circle_3_2):
        # indices 2 and 3 share the second band
        vec = twospec.circuit_circle(circle_3_2, (2, 3))
        signs = {w > 0 for w in vec.weights if w != 0.0}
        assert signs == {True, False}


class TestPositiveWeight:
    def test_sum_all(self, pair_4_2):
        bands = _bands(pair_4_2)
        result = twospec.positive_weight(
            pair_4_2, bands, twospec.WeightSelection(strategy=SUM_ALL)
        )
        assert result.omega == (F(2, 5), F(2, 3), F(2, 3), F(2, 5))
        assert result.family_size == 2
        assert len(result.circuits) == 2

    def test_coefficients_s1_equals_3(self, pair_4_2):
        bands = _bands(pair_4_2)
        result = twospec.positive_weight(
            pair_4_2,
            bands,
            twospec.WeightSelection(strategy=COEFFICIENTS, coefficients={1: 3}),
        )
        assert result.omega == (F(2, 3), F(2, 3), 2, F(14, 15))

    def test_coefficients_not_covered(self, pair_4_2):
        bands = _bands(pair_4_2)
        with pytest.raises(twospec.NotCoveredError):
            twospec.positive_weight(
                pair_4_2,
                bands,
                twospec.WeightSelection(strategy=COEFFICIENTS, coefficients={}),
            )

    def test_coefficients_negative(self, pair_4_2):
        bands = _bands(pair_4_2)
        with pytest.raises(twospec.NegativeCoefficientError):
            twospec.positive_weight(
                pair_4_2,
                bands,
                twospec.WeightSelection(
                    strategy=COEFFICIENTS, coefficients={1: F(-1, 2)}
                ),
            )

    def test_cover(self, pair_7_3):
        bands = _bands(pair_7_3)
        result = twospec.positive_weight(
            pair_7_3, bands, twospec.WeightSelection(strategy=COVER)
        )
        assert all(w > 0 for w in result.omega)
        assert len(result.circuits) == pair_7_3.n

    def test_single_circuit_cone_is_a_ray(self):
        xs = tuple(range(4))
        ys = tuple(F(2 * k + 1, 2) for k in range(3))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        bands = _bands(pair)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        vec = twospec.circuit_real(pair, (1, 2, 3, 4))
        assert result.family_size == 1
        assert result.omega == vec.weights

    def test_streaming_matches_materialized(self, pair_7_3, monkeypatch):
        bands = _bands(pair_7_3)
        kept = twospec.positive_weight(pair_7_3, bands, twospec.WeightSelection())
        monkeypatch.setattr(twospec.kernel, "LIST_LIMIT", 0)
        streamed = twospec.positive_weight(pair_7_3, bands, twospec.WeightSelection())
        assert streamed.omega == kept.omega
        assert streamed.circuits is None
        assert kept.circuits is not None

    def test_circle_sum_all_positive(self, circle_7_3):
        bands = _bands(circle_7_3)
        result = twospec.positive_weight(circle_7_3, bands, twospec.WeightSelection())
        assert all(w > 0 for w in result.omega)
        assert result.family_size == 12

    def test_consecutive_degrees_strategy_independent(self):
        # one-ray cone: every strategy lands on the same recurrence data
        xs = tuple(range(5))
        ys = tuple(F(2 * k + 1, 2) for k in range(4))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        bands = _bands(pair)
        results = [
            twospec.positive_weight(pair, bands, twospec.WeightSelection(strategy=s))
            for s in (SUM_ALL, COVER)
        ]
        jacobis = [twospec.stieltjes(pair.xs, r.omega) for r in results]
        assert jacobis[0].beta == jacobis[1].beta
        assert jacobis[0].gamma == jacobis[1].gamma

    def test_family_too_large_to_materialize(self):
        bands = twospec.BandDecomposition(
            bands=tuple((2 * i + 1, 2 * i + 2) for i in range(21))
        )
        assert twospec.admissible_size(bands) == 2**21
        with pytest.raises(ValueError):
            twospec.admissible_family(bands)
        assert twospec.admissible_at(bands, 2**21 - 1) == tuple(
            2 * i + 2 for i in range(21)
        )


class TestKernelOracle:
    def test_two_gap_dimension(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        assert len(twospec.brute_nullspace(system)) == 2

    def test_circle_dimension(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        assert len(twospec.brute_nullspace(system)) == 2

    def test_consecutive_degrees_dimension(self):
        xs = tuple(range(4))
        ys = tuple(F(2 * k + 1, 2) for k in range(3))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        system = twospec.assemble_system(pair)
        assert len(twospec.brute_nullspace(system)) == 1

    def test_rank_deficient_detected(self):
        pair = twospec.RealSpectrumPair(xs=(2, 2, 2), ys=(F(1, 2), F(3, 2)))
        system = twospec.assemble_system(pair)
        with pytest.raises(twospec.RankDeficientError):
            twospec.brute_nullspace(system)

    def test_circuits_lie_in_oracle_span(self, pair_4_2):
        from itertools import combinations

        system = twospec.assemble_system(pair_4_2)
        basis = twospec.brute_nullspace(system)
        # exact containment: row-reduce the basis and express each circuit
        from twospec.linalg import rref_nullspace

        for support in combinations(range(1, 5), 3):
            vec = twospec.circuit_real(pair_4_2, support)
            stacked = [list(b) for b in basis] + [list(vec.weights)]
            # circuit is dependent on the basis iff stacking does not raise
            # the rank
            rank_basis = len(basis[0]) - len(
                rref_nullspace([list(b) for b in basis], len(basis[0]))
            )
            rank_stacked = len(basis[0]) - len(
                rref_nullspace(stacked, len(basis[0]))
            )
            assert rank_stacked == rank_basis
