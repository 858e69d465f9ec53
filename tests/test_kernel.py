import cmath
import dataclasses
import math
import random
from fractions import Fraction as F
from itertools import accumulate, repeat

import pytest

import twospec
from twospec import fuzz
from twospec.kernel import COEFFICIENTS, COVER, SUM_ALL

from . import oracles
from .oracles import dense, mat_vec, rref_nullspace


def _bands(pair):
    if isinstance(pair, twospec.RealSpectrumPair):
        return twospec.bands_real(pair, twospec.check_interlace_real(pair))
    return twospec.bands_circle(pair)


class TestAssemble:
    def test_one_row_by_hand(self):
        # P_1(x) = x - 1 at nodes 0 and 2
        pair = twospec.RealSpectrumPair(xs=(0, 2), ys=(1,))
        system = twospec.assemble_system(pair)
        assert (len(system), len(system[0])) == (1, 2)
        assert system == ((-1, 1),)

    def test_rows_by_direct_evaluation(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        assert (len(system), len(system[0])) == (2, 4)
        # row 1: (x - 3/2)(x - 7/2) at each node, row 2: x times that
        expected = tuple((x - F(3, 2)) * (x - F(7, 2)) for x in (1, 2, 3, 4))
        assert system[0] == expected
        assert system[1] == tuple(
            x * e for x, e in zip((1, 2, 3, 4), expected)
        )

    def test_rank_by_row_reduction(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        basis = oracles.brute_nullspace(system, pair_4_2.n)
        assert len(system[0]) - len(basis) == 2

    def test_shared_point_raises(self):
        pair = twospec.RealSpectrumPair(xs=(0, 1, 2), ys=(1,))
        with pytest.raises(twospec.SharedPointError):
            twospec.assemble_system(pair)

    def test_circle_shared_point_raises(self):
        # a raw pair skips the readers' collision check: the assembly codes it
        pair = _raw_circle((1.0, 2.0, 3.0), (2.0, 0.5))
        with pytest.raises(twospec.SharedPointError, match=r"zn\[1\] coincides with a zm point"):
            twospec.assemble_system(pair)

    def test_single_base_point_circle_has_no_rows(self):
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0), (0.5,))
        system = twospec.assemble_system(pair)
        assert system == ()

    def test_circle_entries(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        assert (len(system), len(system[0])) == (1, 3)
        for j, z in enumerate(circle_3_2.zetas):
            expected = (z - 1) * (z + 1) / z
            assert system[0][j] == pytest.approx(expected, abs=1e-12)


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
        assert tuple(map(len, bands)) == (3, 2, 2)
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

    @pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
    def test_indexing_refuses_a_k_that_is_not_an_int(self, circle_7_3, k):
        with pytest.raises(IndexError):
            twospec.admissible_at(_bands(circle_7_3), k)


class TestRealCircuits:
    def test_first_support(self, pair_4_2):
        vec = twospec.circuit(pair_4_2, (1, 2, 4))
        assert dense(vec, pair_4_2.n) == (F(4, 15), F(2, 3), 0, F(2, 15))

    def test_second_support(self, pair_4_2):
        vec = twospec.circuit(pair_4_2, (1, 3, 4))
        assert dense(vec, pair_4_2.n) == (F(2, 15), 0, F(2, 3), F(4, 15))

    def test_two_node_by_hand(self):
        pair = twospec.RealSpectrumPair(xs=(0, 2), ys=(1,))
        vec = twospec.circuit(pair, (1, 2))
        assert dense(vec, pair.n) == (F(1, 2), F(1, 2))
        system = twospec.assemble_system(pair)
        assert all(r == 0 for r in mat_vec(system, dense(vec, pair.n)))

    def test_kernel_membership_all_supports(self, pair_4_2):
        from itertools import combinations

        system = twospec.assemble_system(pair_4_2)
        for support in combinations(range(1, 5), 3):
            vec = twospec.circuit(pair_4_2, support)
            assert all(r == 0 for r in mat_vec(system, dense(vec, pair_4_2.n)))

    def test_admissible_support_nonnegative(self, pair_7_3):
        bands = _bands(pair_7_3)
        for support in twospec.admissible_family(bands):
            vec = twospec.circuit(pair_7_3, support)
            assert all(w >= 0 for w in dense(vec, pair_7_3.n))
            assert sum(1 for w in dense(vec, pair_7_3.n) if w > 0) == pair_7_3.m + 1

    def test_non_admissible_support_has_mixed_signs(self, pair_4_2):
        # indices 2 and 3 share a band
        vec = twospec.circuit(pair_4_2, (1, 2, 3))
        signs = {w > 0 for w in dense(vec, pair_4_2.n) if w != 0}
        assert signs == {True, False}

    def test_bad_support_size(self, pair_4_2):
        with pytest.raises(ValueError):
            twospec.circuit(pair_4_2, (1, 2))

    @pytest.mark.parametrize(
        "support", [(True, 2, 4), (1.0, 2, 4), ("1", 2, 4)], ids=["bool", "float", "text"]
    )
    def test_support_of_indices_that_are_not_ints(self, pair_4_2, support):
        # the rule decode_solution reads supports by: ints only, bool excluded
        with pytest.raises(ValueError):
            twospec.circuit(pair_4_2, support)


class TestCircleCircuits:
    W1 = 2 * (math.sqrt(6) - math.sqrt(2))
    W2 = (4 / 3) * (3 * math.sqrt(2) - math.sqrt(6))

    def test_first_support(self, circle_3_2):
        vec = twospec.circuit(circle_3_2, (1, 2))
        assert dense(vec, circle_3_2.n) == pytest.approx((self.W1, self.W2, 0.0), abs=1e-10)

    def test_second_support(self, circle_3_2):
        vec = twospec.circuit(circle_3_2, (1, 3))
        assert dense(vec, circle_3_2.n) == pytest.approx((self.W1, 0.0, self.W2), abs=1e-10)

    def test_kernel_membership(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        for support in ((1, 2), (1, 3), (2, 3)):
            vec = twospec.circuit(circle_3_2, support)
            residual = max(abs(r) for r in mat_vec(system, dense(vec, circle_3_2.n)))
            assert residual <= 1e-10 * max(abs(w) for w in dense(vec, circle_3_2.n))

    def test_single_base_point_single_entry(self):
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0), (0.5,))
        vec = twospec.circuit(pair, (2,))
        expected = 1.0 / math.sin((2.0 - 0.5) / 2.0)
        assert dense(vec, pair.n) == pytest.approx((0.0, expected, 0.0))
        assert dense(vec, pair.n)[1] > 0

    def test_non_admissible_mixed_signs(self, circle_3_2):
        # indices 2 and 3 share the second band
        vec = twospec.circuit(circle_3_2, (2, 3))
        signs = {w > 0 for w in dense(vec, circle_3_2.n) if w != 0.0}
        assert signs == {True, False}


class TestPositiveWeight:
    def test_sum_all(self, pair_4_2):
        bands = _bands(pair_4_2)
        result = twospec.positive_weight(
            pair_4_2, bands, twospec.WeightSelection(strategy=SUM_ALL)
        )
        assert result.omega == (F(2, 5), F(2, 3), F(2, 3), F(2, 5))
        assert twospec.admissible_size(bands) == 2
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

    def test_coefficients_nan_refused(self):
        # a NaN fails every comparison: it was dropped, and index 5 then reported uncovered
        pair = twospec.RealSpectrumPair(xs=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), ys=(1.5, 3.5))
        selection = twospec.WeightSelection(COEFFICIENTS, {1: math.nan, 5: 1.0})
        with pytest.raises(twospec.NegativeCoefficientError, match="s1 is NaN"):
            twospec.positive_weight(pair, _bands(pair), selection)

    def test_coefficients_bool_index_refused(self):
        # True == 1, but a bool names no parameter, as in a solution's supports
        pair = twospec.RealSpectrumPair(xs=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), ys=(1.5, 3.5))
        selection = twospec.WeightSelection(COEFFICIENTS, {True: 2})
        with pytest.raises(twospec.ProblemFormatError, match="no parameter sTrue") as info:
            twospec.positive_weight(pair, _bands(pair), selection)
        assert info.value.code == "BAD_PROBLEM"

    @pytest.mark.parametrize("strategy", [SUM_ALL, COVER])
    def test_coefficients_refused_by_other_strategies(self, strategy):
        with pytest.raises(ValueError):
            twospec.WeightSelection(strategy=strategy, coefficients={1: 3})

    def test_unknown_strategy_is_refused(self):
        with pytest.raises(ValueError) as info:
            twospec.WeightSelection(strategy="all")
        assert (type(info.value), str(info.value)) == (ValueError, "unknown strategy 'all'")

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
        vec = twospec.circuit(pair, (1, 2, 3, 4))
        assert twospec.admissible_size(bands) == 1
        assert result.omega == dense(vec, pair.n)

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
        assert twospec.admissible_size(bands) == 12

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
        bands = tuple((2 * i + 1, 2 * i + 2) for i in range(21))
        assert twospec.admissible_size(bands) == 2**21
        with pytest.raises(ValueError):
            twospec.admissible_family(bands)
        assert twospec.admissible_at(bands, 2**21 - 1) == tuple(
            2 * i + 2 for i in range(21)
        )


class TestKernelOracle:
    def test_two_gap_dimension(self, pair_4_2):
        system = twospec.assemble_system(pair_4_2)
        assert len(oracles.brute_nullspace(system, pair_4_2.n)) == 2

    def test_circle_dimension(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        assert len(oracles.brute_nullspace(system, circle_3_2.n)) == 2

    def test_consecutive_degrees_dimension(self):
        xs = tuple(range(4))
        ys = tuple(F(2 * k + 1, 2) for k in range(3))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        system = twospec.assemble_system(pair)
        assert len(oracles.brute_nullspace(system, pair.n)) == 1

    def test_rank_deficient_detected(self):
        pair = twospec.RealSpectrumPair(xs=(2, 2, 2), ys=(F(1, 2), F(3, 2)))
        system = twospec.assemble_system(pair)
        with pytest.raises(oracles.RankDeficientError):
            oracles.brute_nullspace(system, pair.n)

    def test_circuits_lie_in_oracle_span(self, pair_4_2):
        from itertools import combinations

        system = twospec.assemble_system(pair_4_2)
        basis = oracles.brute_nullspace(system, pair_4_2.n)
        # exact containment: row-reduce the basis and express each circuit
        for support in combinations(range(1, 5), 3):
            vec = twospec.circuit(pair_4_2, support)
            stacked = [list(b) for b in basis] + [list(dense(vec, pair_4_2.n))]
            # circuit is dependent on the basis iff stacking does not raise
            # the rank
            rank_basis = len(basis[0]) - len(
                rref_nullspace([list(b) for b in basis], len(basis[0]))
            )
            rank_stacked = len(basis[0]) - len(
                rref_nullspace(stacked, len(basis[0]))
            )
            assert rank_stacked == rank_basis


def _exact_line_instance(rng):
    """Integer nodes with rational zeros in distinct gaps."""
    n = rng.randint(3, 9)
    m = rng.randint(1, n - 1)
    xs = sorted(rng.sample(range(-40, 40), n))
    gaps = sorted(rng.sample(range(n - 1), m))
    ys = [xs[g] + F(rng.randint(1, 9), 10) * (xs[g + 1] - xs[g]) for g in gaps]
    return twospec.RealSpectrumPair(xs=tuple(F(x) for x in xs), ys=tuple(ys))


def _enumerated_sum(pair, bands, circuit):
    omega = [0] * pair.n
    for support in twospec.iter_admissible(bands):
        vec = circuit(pair, support)
        for j in support:
            omega[j - 1] += dense(vec, pair.n)[j - 1]
    return omega


def _normalized(omega):
    total = sum(omega)
    return [w / total for w in omega]


class TestSumAllClosedForm:
    @pytest.mark.parametrize("seed", range(30))
    def test_exact_line_equals_enumerated_sum(self, seed):
        pair = _exact_line_instance(random.Random(seed))
        bands = _bands(pair)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        assert all(isinstance(w, F) for w in result.omega)
        assert list(result.omega) == _enumerated_sum(pair, bands, twospec.circuit)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("setting", ["real", "circle"])
    def test_float_matches_enumerated_sum(self, setting, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        m = rng.randint(1, min(6, n - 1))
        generate = {"real": fuzz.random_real_instance, "circle": fuzz.random_circle_instance}
        pair = generate[setting](rng, n, m)
        bands = _bands(pair)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        want = _normalized(_enumerated_sum(pair, bands, twospec.kernel.circuit))
        assert _normalized(result.omega) == pytest.approx(want, rel=1e-12, abs=0)

    def test_huge_family_builds_no_circuit(self, monkeypatch):
        # 80 nodes against 39 zeros: 40 bands of two nodes, 2**40 circuits
        pair = twospec.RealSpectrumPair(
            xs=tuple(float(i) for i in range(80)),
            ys=tuple(2 * k + 1.5 for k in range(39)),
        )
        bands = _bands(pair)
        assert tuple(map(len, bands)) == (2,) * 40

        def no_circuit(pair, supports):
            raise AssertionError("a circuit was built")

        monkeypatch.setattr(twospec.kernel, "circuits", no_circuit)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        assert result.circuits is None
        assert twospec.admissible_size(bands) == 2**40
        assert all(w > 0 for w in result.omega)


    @pytest.mark.parametrize(
        "sizes, builds", [((5, 5, 5, 1, 1, 1, 1, 1), 1), ((2, 3, 3, 7, 1, 1, 1, 1), 0)]
    )
    def test_sum_all_builds_circuits_up_to_list_limit_entries(self, sizes, builds, monkeypatch):
        # 125 circuits of 8 entries fill LIST_LIMIT; 126 of them hold 1,008
        ends = list(accumulate(sizes))
        pair = twospec.RealSpectrumPair(
            xs=tuple(range(1, ends[-1] + 1)), ys=tuple(F(2 * e + 1, 2) for e in ends[:-1])
        )
        bands = _bands(pair)
        assert tuple(map(len, bands)) == sizes
        calls, build = [], twospec.kernel.circuits
        monkeypatch.setattr(
            twospec.kernel, "circuits", lambda *args: calls.append(args) or build(*args)
        )
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        assert len(calls) == builds
        if builds:
            assert len(result.circuits) == twospec.admissible_size(bands) == 125
        else:
            assert result.circuits is None


class TestCoverClosedForm:
    """The line's ``cover`` weight from the base circuit and one ratio per
    node, against the sum of its n circuits."""

    @staticmethod
    def _circuit_sum(pair, bands):
        omega = [0] * pair.n
        for support, entries in twospec.circuits(pair, _cover_supports(bands, pair.n)):
            for j, e in zip(support, entries):
                omega[j - 1] += e
        return omega

    @pytest.mark.parametrize("seed", range(30))
    def test_exact_equals_the_sum_of_its_circuits(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 14)
        m = rng.randint(1, n - 1)
        xs = sorted({F(rng.randint(-400, 400), rng.randint(1, 12)) for _ in range(n)})
        gaps = sorted(rng.sample(range(len(xs) - 1), min(m, len(xs) - 1)))
        ys = [xs[g] + F(rng.randint(1, 9), 10) * (xs[g + 1] - xs[g]) for g in gaps]
        pair = twospec.RealSpectrumPair(xs=tuple(xs), ys=tuple(ys))
        bands = _bands(pair)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert all(isinstance(w, F) for w in result.omega)
        assert list(result.omega) == self._circuit_sum(pair, bands)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_consecutive_degrees_are_the_base_circuit_n_times(self, n):
        # Wendroff's case m = n - 1: every band is one node, the n cover
        # circuits are all the base circuit, and omega = B c0 with B = n
        rng = random.Random(n)
        xs = sorted({F(rng.randint(-300, 300), rng.randint(1, 9)) for _ in range(3 * n)})[:n]
        ys = [a + F(rng.randint(1, 9), 10) * (b - a) for a, b in zip(xs, xs[1:])]
        pair = twospec.RealSpectrumPair(xs=tuple(xs), ys=tuple(ys))
        bands = _bands(pair)
        assert tuple(map(len, bands)) == (1,) * n
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        base = twospec.circuit(pair, tuple(range(1, n + 1)))
        assert list(result.omega) == [n * e for e in base[1]]
        assert list(result.omega) == self._circuit_sum(pair, bands)

    def test_above_the_cap_builds_no_circuit_in_o_n_m(self, monkeypatch):
        # n=200, m=66: 13,400 circuit entries, over LIST_LIMIT.  Building the
        # n circuits by running products takes 331,063 differences here; the
        # closed form takes P_m at each node and O(1) more per node and band
        n, m = 200, 66
        pair = fuzz.random_real_instance(random.Random(1), n, m)
        bands = _bands(pair)

        def no_circuit(pair, supports):
            raise AssertionError("a circuit was built")

        calls, real = [], twospec.kernel._REAL
        counted = dataclasses.replace(real, diff=lambda x, y: calls.append(1) or real.diff(x, y))
        want = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER)).omega
        monkeypatch.setattr(twospec.kernel, "circuits", no_circuit)
        monkeypatch.setattr(twospec.kernel, "_REAL", counted)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert result.circuits is None
        assert repr(result.omega) == repr(want)
        assert 0 < len(calls) <= 3 * n * (m + 1)


class TestCircuitWork:
    def test_circle_cover_weight_within_the_same_bound(self, monkeypatch):
        # positive_weight sums the same circuits without ``circuits``: P_m,
        # the distinctness check and each first index's row to every node,
        # which every circuit entry reads, 2,112 differences here
        n, m = 64, 16
        pair = fuzz.random_circle_instance(random.Random(64), n, m)
        bands = _bands(pair)
        want = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        calls, circle = [], twospec.kernel._CIRCLE
        counted = dataclasses.replace(circle, diff=lambda x, y: calls.append(1) or circle.diff(x, y))
        monkeypatch.setattr(twospec.kernel, "_CIRCLE", counted)
        got = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert repr(got) == repr(want)
        assert len(calls) == n * (m + 1 + len(bands))

    def test_line_cover_recording_within_twice_the_bound(self, monkeypatch):
        # a listed line cover: the closed-form omega takes P_m, the
        # distinctness check and each first index's row to every node, and
        # the recorded circuits reuse its P_m and rows, 1,260 differences
        # here; recording through ``circuits``, B (B - 1) differences per
        # circuit, takes 6,090
        n, m = 30, 20
        pair = fuzz.random_real_instance(random.Random(30), n, m)
        bands = _bands(pair)
        want = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert want.circuits is not None
        calls, real = [], twospec.kernel._REAL
        counted = dataclasses.replace(real, diff=lambda x, y: calls.append(1) or real.diff(x, y))
        monkeypatch.setattr(twospec.kernel, "_REAL", counted)
        got = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert repr(got) == repr(want)
        assert len(calls) == n * (m + 1 + len(bands))

    def test_listed_line_cover_takes_pm_once_per_node(self, monkeypatch):
        # the closed form hands its P_m values to the recorded circuits
        n, m = 30, 20
        pair = fuzz.random_real_instance(random.Random(30), n, m)
        bands = _bands(pair)
        calls, pm_at = [], twospec.kernel._pm_at
        monkeypatch.setattr(twospec.kernel, "_pm_at", lambda *a: calls.append(a[1]) or pm_at(*a))
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert result.circuits is not None
        assert sorted(calls) == list(range(n))


class TestNonpositiveWeight:
    @pytest.mark.parametrize("strategy", [SUM_ALL, COVER])
    def test_underflowing_entries_raise_a_coded_error(self, strategy):
        # n=120 nodes spread over [-1000, 1000]: circuit entries underflow to 0
        pair = fuzz.random_real_instance(
            random.Random(1), 120, 60, lo=-1000.0, hi=1000.0
        )
        bands = _bands(pair)
        selection = twospec.WeightSelection(strategy=strategy)
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.positive_weight(pair, bands, selection)
        assert info.value.code == "NONPOSITIVE_WEIGHT"

    def test_underflowing_circuit_product_is_coded(self):
        # 120 nodes within 0.01: a running product of differences underflows
        # to 0.0, so 1 / product would divide by zero
        pair = fuzz.random_real_instance(
            random.Random(1), 120, 60, lo=0.0, hi=0.01, min_gap=1e-6
        )
        selection = twospec.WeightSelection(strategy=COVER)
        with pytest.raises(twospec.NonpositiveWeightError):
            twospec.positive_weight(pair, _bands(pair), selection)

    def test_circuits_name_the_overflowing_entry(self):
        # the instance above through ``circuits`` itself, since the line's
        # cover weight builds no circuit: the entry positive_weight names
        pair = fuzz.random_real_instance(
            random.Random(1), 120, 60, lo=0.0, hi=0.01, min_gap=1e-6
        )
        bands = _bands(pair)
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.positive_weight(pair, bands, twospec.WeightSelection(strategy=COVER))
        assert str(info.value) == "circuit entry 23 overflows"
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.circuits(pair, _cover_supports(bands, pair.n))
        assert info.value.code == "NONPOSITIVE_WEIGHT"
        assert str(info.value) == "circuit entry 23 overflows"

    def test_circle_cover_names_the_overflowing_entry(self):
        # 100 nodes within 0.1 radians, an m-set point halfway across 80 of
        # their gaps: the running product of a later circuit's entry at node
        # 27 underflows, and positive_weight names it as ``circuits`` does
        rng = random.Random(0)
        thetas = sorted(rng.uniform(0.0, 0.1) for _ in range(100))
        phis = [(thetas[g] + thetas[g + 1]) / 2 for g in sorted(rng.sample(range(99), 80))]
        pair = twospec.circle_pair_from_angles(thetas, phis)
        bands = _bands(pair)
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.positive_weight(pair, bands, twospec.WeightSelection(strategy=COVER))
        assert str(info.value) == "circuit entry 27 overflows"
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.circuits(pair, _cover_supports(bands, pair.n))
        assert str(info.value) == "circuit entry 27 overflows"

    @pytest.mark.parametrize(
        "xs, ys, message",
        [
            ((1e300, 2e300, 3e300), (1.5e300,), "circuit entry 1 underflows"),
            ((0.0, 1e-155, 2e-155), (1.5e-155,), "circuit entry 1 overflows"),
        ],
        ids=["underflow", "overflow"],
    )
    def test_entries_binary64_cannot_hold_are_refused(self, xs, ys, message):
        # no zero denominator: each entry itself rounds to 0.0 or to inf
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        bands = _bands(pair)
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.circuits(pair, twospec.iter_admissible(bands))
        assert (info.value.code, str(info.value)) == ("NONPOSITIVE_WEIGHT", message)
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.positive_weight(pair, bands, twospec.WeightSelection(COVER))
        assert str(info.value) == message

    @pytest.mark.parametrize("strategy", [SUM_ALL, COVER])
    def test_underflowing_pm_is_not_a_shared_point(self, strategy):
        # 200 nodes within 0.01, 150 of their gaps holding a y: every factor
        # of P_m(x_0) is at least 3e-8, yet the product underflows to 0.0
        pair = fuzz.random_real_instance(
            random.Random(1), 200, 150, lo=0.0, hi=0.01, min_gap=1e-7
        )
        selection = twospec.WeightSelection(strategy=strategy)
        with pytest.raises(twospec.NonpositiveWeightError) as info:
            twospec.positive_weight(pair, _bands(pair), selection)
        assert info.value.code == "NONPOSITIVE_WEIGHT"
        assert "underflows" in str(info.value)


def _instance(kind, seed):
    rng = random.Random(seed)
    if kind == "exact":
        return _exact_line_instance(rng)
    n = rng.randint(4, 12)
    m = rng.randint(1, min(6, n - 1))
    generate = {"float": fuzz.random_real_instance, "circle": fuzz.random_circle_instance}
    return generate[kind](rng, n, m)


def _cover_supports(bands, n):
    """The supports of the n cover circuits: j and the other bands' first indices."""
    firsts = [b[0] for b in bands]
    band_of = {j: r for r, b in enumerate(bands) for j in b}
    return [
        tuple(j if r == band_of[j] else f for r, f in enumerate(firsts)) for j in range(1, n + 1)
    ]


def _assert_line_cover_omega(pair, bands, got, summed):
    """A binary64 line ``cover`` omega against ``summed``, the running-product
    circuits added in order: the same bits at every non-first index of a
    band, where one circuit passes.  At a first index both are within 1e-14
    relative of the exact sum of the circuits on the same float inputs.
    Neither is always the nearer: the closed form carries the rounding of
    one base-circuit product into every term, where the sum averages the
    roundings of many products, so the two differ by a few ulps either way."""
    exact_pair = twospec.RealSpectrumPair(xs=tuple(map(F, pair.xs)), ys=tuple(map(F, pair.ys)))
    exact = [0] * pair.n
    for support, entries in twospec.circuits(exact_pair, _cover_supports(bands, pair.n)):
        for j, e in zip(support, entries):
            exact[j - 1] += e
    firsts = {b[0] for b in bands}
    assert len(got) == len(summed) == pair.n
    for j, (g, s, e) in enumerate(zip(got, summed, exact), 1):
        if j in firsts:
            assert abs(F(g) - e) <= F(1e-14) * e, j
            assert abs(F(s) - e) <= F(1e-14) * e, j
        else:
            assert g.hex() == s.hex(), j


class TestBatchedCircuits:
    """positive_weight builds its circuits in one ``circuits`` call; the
    batch equals one-at-a-time ``circuit`` calls summed in the same order,
    bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", ["exact", "float", "circle"])
    @pytest.mark.parametrize("strategy", [COVER, COEFFICIENTS])
    def test_batch_equals_single_calls(self, strategy, kind, seed):
        pair = _instance(kind, seed)
        bands = _bands(pair)
        size = twospec.admissible_size(bands)
        if strategy == COVER:
            firsts = [b[0] for b in bands]
            band_of = {j: r for r, b in enumerate(bands) for j in b}
            chosen = [
                (1, tuple(j if r == band_of[j] else f for r, f in enumerate(firsts)))
                for j in range(1, pair.n + 1)
            ]
            selection = twospec.WeightSelection(strategy=COVER)
        else:
            coeffs = {k: F(k, 7) if kind == "exact" else k / 7 for k in range(1, size)}
            chosen = [(1, twospec.admissible_at(bands, 0))] + [
                (c, twospec.admissible_at(bands, k)) for k, c in sorted(coeffs.items())
            ]
            selection = twospec.WeightSelection(COEFFICIENTS, coeffs)
        omega = [0] * pair.n
        want = []
        for coeff, support in chosen:
            vec = twospec.circuit(pair, support)
            for j in vec[0]:
                omega[j - 1] = omega[j - 1] + coeff * dense(vec, pair.n)[j - 1]
            want.append(vec)
        result = twospec.positive_weight(pair, bands, selection)
        # repr round-trips floats, so equal reprs are equal bits
        if strategy == COVER and kind == "float":
            _assert_line_cover_omega(pair, bands, result.omega, omega)
        else:
            assert repr(result.omega) == repr(tuple(omega))
        assert repr(result.circuits) == repr(tuple(want))

    def test_one_function_serves_both_settings(self, pair_4_2, circle_3_2):
        assert not hasattr(twospec, "circuit_real")
        assert not hasattr(twospec, "circuit_circle")
        assert twospec.circuits(pair_4_2, [(1, 2, 4), (1, 3, 4)]) == (
            twospec.circuit(pair_4_2, (1, 2, 4)),
            twospec.circuit(pair_4_2, (1, 3, 4)),
        )
        assert twospec.circuits(circle_3_2, [(1, 2), (1, 3)]) == (
            twospec.circuit(circle_3_2, (1, 2)),
            twospec.circuit(circle_3_2, (1, 3)),
        )
        assert pair_4_2.circuit_size == pair_4_2.m + 1
        assert circle_3_2.circuit_size == circle_3_2.m


def _reference_entries(pair, support):
    """The circuit on ``support`` by the product formula: per node one
    left-to-right product, P_m(x_j) first, then the other support members in
    support order; negated when more entries are negative than positive."""
    if isinstance(pair, twospec.RealSpectrumPair):
        nodes, points, diff = pair.xs, pair.ys, lambda x, y: x - y
    else:
        nodes, points, diff = pair.thetas, pair.phis, lambda x, y: math.sin((x - y) / 2.0)
    entries = []
    for j in support:
        x = nodes[j - 1]
        others = [nodes[i - 1] for i in support if i != j]
        pm = math.prod(map(diff, repeat(x), points))
        entries.append(1 / math.prod(map(diff, repeat(x), others), start=pm))
    if sum((e > 0) - (e < 0) for e in entries) < 0:
        entries = [-e for e in entries]
    return tuple(entries)


class TestCircuitBits:
    """One build per distinct support and the ``cover`` fold of shared
    circuit factors leave every bit of the per-support formula, in the
    circuits and in omega."""

    def _check(self, pair, selection):
        bands = _bands(pair)
        result = twospec.positive_weight(pair, bands, selection)
        if selection.strategy == COVER:
            firsts = [b[0] for b in bands]
            band_of = {j: r for r, b in enumerate(bands) for j in b}
            chosen = [
                (1, tuple(j if r == band_of[j] else f for r, f in enumerate(firsts)))
                for j in range(1, pair.n + 1)
            ]
        elif selection.strategy == COEFFICIENTS:
            chosen = [(1, twospec.admissible_at(bands, 0))] + [
                (c, twospec.admissible_at(bands, k))
                for k, c in sorted(selection.coefficients.items())
            ]
        else:
            chosen = [(1, s) for s in twospec.admissible_family(bands)]
        vecs = result.circuits
        if len(chosen) * pair.circuit_size > twospec.kernel.LIST_LIMIT:
            # not recorded: the same bits are checked on the rebuilt circuits
            assert vecs is None
            vecs = twospec.circuits(pair, [support for _, support in chosen])
        assert len(vecs) == len(chosen)
        omega = [0] * pair.n
        by_support = {}
        for (coeff, support), vec in zip(chosen, vecs):
            want = _reference_entries(pair, support)
            assert vec[0] == support
            # repr round-trips floats, so equal reprs are equal bits
            assert repr(vec[1]) == repr(want)
            assert by_support.setdefault(support, vec) is vec
            for j, e in zip(support, want):
                omega[j - 1] = omega[j - 1] + coeff * e
        float_line = isinstance(pair, twospec.RealSpectrumPair) and isinstance(pair.xs[0], float)
        if selection.strategy == COVER and float_line:
            _assert_line_cover_omega(pair, bands, result.omega, omega)
        elif selection.strategy != SUM_ALL:  # sum_all's omega is its closed form
            assert repr(result.omega) == repr(tuple(omega))
        return by_support

    @pytest.mark.parametrize(
        "kind, n", [("float", 60), ("float", 200), ("circle", 16), ("circle", 64)]
    )
    def test_cover(self, kind, n):
        generate = {"float": fuzz.random_real_instance, "circle": fuzz.random_circle_instance}
        pair = generate[kind](random.Random(n), n, n // 4)
        by_support = self._check(pair, twospec.WeightSelection(COVER))
        # the base support serves every first index of a band
        assert len(by_support) == pair.n - pair.circuit_size + 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, m", [(12, 5), (40, 25), (41, 25), (90, 30)])
    def test_circle_cover_around_the_listing_cap(self, n, m, seed):
        # n * m circuit entries: 60 and 1000 are listed, 1025 and 2700 are
        # not, and their circuits are checked as ``circuits`` rebuilds them
        pair = fuzz.random_circle_instance(random.Random(seed), n, m)
        by_support = self._check(pair, twospec.WeightSelection(COVER))
        assert len(by_support) == n - m + 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["exact", "float", "circle"])
    @pytest.mark.parametrize("strategy", [COEFFICIENTS, SUM_ALL])
    def test_listed_families(self, strategy, kind, seed):
        pair = _instance(kind, seed)
        size = twospec.admissible_size(_bands(pair))
        coeffs = {}
        if strategy == COEFFICIENTS:
            coeffs = {k: F(k, 7) if kind == "exact" else k / 7 for k in range(1, size)}
        self._check(pair, twospec.WeightSelection(strategy, coeffs))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_cover_and_unit_coefficients(self, seed):
        # an int or Fraction coefficient 1 adds the entry itself; a float 1.0
        # still multiplies, so it turns an exact pair's weights into floats
        pair = _instance("exact", seed)
        self._check(pair, twospec.WeightSelection(COVER))
        size = twospec.admissible_size(_bands(pair))
        for one in (1, F(1), 1.0):
            coeffs = dict.fromkeys(range(1, size), one)
            self._check(pair, twospec.WeightSelection(COEFFICIENTS, coeffs))


def _raw_circle(thetas, phis):
    """A circle pair built without normalization or collision checks."""
    return twospec.CircleSpectrumPair(
        zetas=tuple(cmath.rect(1.0, t) for t in thetas),
        xis=tuple(cmath.rect(1.0, p) for p in phis),
        thetas=tuple(thetas),
        phis=tuple(phis),
    )


# Raw pairs that never went through interlacing, each with hand-made bands
# and a support through the coincidence.
_COINCIDENT = {
    "duplicate_exact_nodes": (
        twospec.RealSpectrumPair(xs=(0, 1, 1, 3), ys=(F(1, 2), 2)),
        ((1,), (2,), (3, 4)),
        (1, 2, 3),
    ),
    "duplicate_float_nodes": (
        twospec.RealSpectrumPair(xs=(0.0, 1.0, 1.0, 3.0), ys=(0.5, 2.0)),
        ((1,), (2,), (3, 4)),
        (1, 2, 3),
    ),
    "node_equals_a_zero": (
        twospec.RealSpectrumPair(xs=(0, 1, 2, 3), ys=(1, F(5, 2))),
        ((1,), (2, 3), (4,)),
        (1, 2, 4),
    ),
    "equal_circle_thetas": (
        _raw_circle((1.0, 2.0, 2.0), (0.5, 2.5)),
        ((1, 2), (3,)),
        (2, 3),
    ),
    "circle_thetas_equal_across_the_wrap": (
        _raw_circle((0.5, 2.0, 0.5 + 2 * math.pi), (0.25, 1.0)),
        ((1, 2), (3,)),
        (1, 3),
    ),
}
_CODED = (twospec.DegenerateAngleError, twospec.SharedPointError)


class TestCoincidentPointsAreCoded:
    @pytest.mark.parametrize("case", sorted(_COINCIDENT))
    def test_circuit(self, case):
        pair, _, support = _COINCIDENT[case]
        with pytest.raises(_CODED):
            twospec.circuit(pair, support)

    @pytest.mark.parametrize("strategy", [SUM_ALL, COEFFICIENTS, COVER])
    @pytest.mark.parametrize("case", sorted(_COINCIDENT))
    def test_positive_weight(self, case, strategy):
        pair, bands, _ = _COINCIDENT[case]
        coefficients = {1: 1} if strategy == COEFFICIENTS else {}
        selection = twospec.WeightSelection(strategy, coefficients)
        with pytest.raises(_CODED):
            twospec.positive_weight(pair, bands, selection)
