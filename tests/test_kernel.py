import cmath
import math
import random
from fractions import Fraction as F
from itertools import repeat

import pytest

import twospec
from twospec import fuzz
from twospec.kernel import COEFFICIENTS, COVER, SUM_ALL

from . import oracles
from .oracles import mat_vec, rref_nullspace


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
        basis = oracles.brute_nullspace(system)
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
        vec = twospec.circuit(pair_4_2, (1, 2, 4))
        assert vec.weights == (F(4, 15), F(2, 3), 0, F(2, 15))

    def test_second_support(self, pair_4_2):
        vec = twospec.circuit(pair_4_2, (1, 3, 4))
        assert vec.weights == (F(2, 15), 0, F(2, 3), F(4, 15))

    def test_two_node_by_hand(self):
        pair = twospec.RealSpectrumPair(xs=(0, 2), ys=(1,))
        vec = twospec.circuit(pair, (1, 2))
        assert vec.weights == (F(1, 2), F(1, 2))
        system = twospec.assemble_system(pair)
        assert all(r == 0 for r in mat_vec(system.entries, vec.weights))

    def test_kernel_membership_all_supports(self, pair_4_2):
        from itertools import combinations

        system = twospec.assemble_system(pair_4_2)
        for support in combinations(range(1, 5), 3):
            vec = twospec.circuit(pair_4_2, support)
            assert all(r == 0 for r in mat_vec(system.entries, vec.weights))

    def test_admissible_support_nonnegative(self, pair_7_3):
        bands = _bands(pair_7_3)
        for support in twospec.admissible_family(bands):
            vec = twospec.circuit(pair_7_3, support)
            assert all(w >= 0 for w in vec.weights)
            assert sum(1 for w in vec.weights if w > 0) == pair_7_3.m + 1

    def test_non_admissible_support_has_mixed_signs(self, pair_4_2):
        # indices 2 and 3 share a band
        vec = twospec.circuit(pair_4_2, (1, 2, 3))
        signs = {w > 0 for w in vec.weights if w != 0}
        assert signs == {True, False}

    def test_bad_support_size(self, pair_4_2):
        with pytest.raises(ValueError):
            twospec.circuit(pair_4_2, (1, 2))


class TestCircleCircuits:
    W1 = 2 * (math.sqrt(6) - math.sqrt(2))
    W2 = (4 / 3) * (3 * math.sqrt(2) - math.sqrt(6))

    def test_first_support(self, circle_3_2):
        vec = twospec.circuit(circle_3_2, (1, 2))
        assert vec.weights == pytest.approx((self.W1, self.W2, 0.0), abs=1e-10)

    def test_second_support(self, circle_3_2):
        vec = twospec.circuit(circle_3_2, (1, 3))
        assert vec.weights == pytest.approx((self.W1, 0.0, self.W2), abs=1e-10)

    def test_kernel_membership(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        for support in ((1, 2), (1, 3), (2, 3)):
            vec = twospec.circuit(circle_3_2, support)
            residual = max(abs(r) for r in mat_vec(system.entries, vec.weights))
            assert residual <= 1e-10 * max(abs(w) for w in vec.weights)

    def test_single_base_point_single_entry(self):
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0), (0.5,))
        vec = twospec.circuit(pair, (2,))
        expected = 1.0 / math.sin((2.0 - 0.5) / 2.0)
        assert vec.weights == pytest.approx((0.0, expected, 0.0))
        assert vec.weights[1] > 0

    def test_non_admissible_mixed_signs(self, circle_3_2):
        # indices 2 and 3 share the second band
        vec = twospec.circuit(circle_3_2, (2, 3))
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

    @pytest.mark.parametrize("strategy", [SUM_ALL, COVER])
    def test_coefficients_refused_by_other_strategies(self, strategy):
        with pytest.raises(ValueError):
            twospec.WeightSelection(strategy=strategy, coefficients={1: 3})

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
        assert len(oracles.brute_nullspace(system)) == 2

    def test_circle_dimension(self, circle_3_2):
        system = twospec.assemble_system(circle_3_2)
        assert len(oracles.brute_nullspace(system)) == 2

    def test_consecutive_degrees_dimension(self):
        xs = tuple(range(4))
        ys = tuple(F(2 * k + 1, 2) for k in range(3))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        system = twospec.assemble_system(pair)
        assert len(oracles.brute_nullspace(system)) == 1

    def test_rank_deficient_detected(self):
        pair = twospec.RealSpectrumPair(xs=(2, 2, 2), ys=(F(1, 2), F(3, 2)))
        system = twospec.assemble_system(pair)
        with pytest.raises(oracles.RankDeficientError):
            oracles.brute_nullspace(system)

    def test_circuits_lie_in_oracle_span(self, pair_4_2):
        from itertools import combinations

        system = twospec.assemble_system(pair_4_2)
        basis = oracles.brute_nullspace(system)
        # exact containment: row-reduce the basis and express each circuit
        for support in combinations(range(1, 5), 3):
            vec = twospec.circuit(pair_4_2, support)
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
            omega[j - 1] += vec.weights[j - 1]
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
        assert bands.sizes == (2,) * 40

        def no_circuit(pair, supports):
            raise AssertionError("a circuit was built")

        monkeypatch.setattr(twospec.kernel, "circuits", no_circuit)
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        assert result.circuits is None
        assert result.family_size == 2**40
        assert all(w > 0 for w in result.omega)


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
            firsts = [b[0] for b in bands.bands]
            band_of = {j: r for r, b in enumerate(bands.bands) for j in b}
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
            for j in vec.support:
                omega[j - 1] = omega[j - 1] + coeff * vec.weights[j - 1]
            want.append(vec)
        result = twospec.positive_weight(pair, bands, selection)
        # repr round-trips floats, so equal reprs are equal bits
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
    """One build per distinct support and shared product heads leave every
    bit of the per-support formula, in the circuits and in omega."""

    def _check(self, pair, selection):
        bands = _bands(pair)
        result = twospec.positive_weight(pair, bands, selection)
        if selection.strategy == COVER:
            firsts = [b[0] for b in bands.bands]
            band_of = {j: r for r, b in enumerate(bands.bands) for j in b}
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
        assert len(result.circuits) == len(chosen)
        omega = [0] * pair.n
        by_support = {}
        for (coeff, support), vec in zip(chosen, result.circuits):
            want = _reference_entries(pair, support)
            assert vec.support == support
            # repr round-trips floats, so equal reprs are equal bits
            assert repr(vec.entries) == repr(want)
            assert by_support.setdefault(support, vec) is vec
            for j, e in zip(support, want):
                omega[j - 1] = omega[j - 1] + coeff * e
        if selection.strategy != SUM_ALL:  # sum_all's omega is its closed form
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
            twospec.positive_weight(pair, twospec.BandDecomposition(bands), selection)
