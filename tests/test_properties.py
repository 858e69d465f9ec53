"""Property-based tests for the structural invariants."""

import math
from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

import twospec
from twospec.kernel import COEFFICIENTS, STRATEGIES
from twospec.poly import poly_from_roots, power_sums
from twospec.verify import RESIDUALS, unitarity_defect

from . import oracles
from .oracles import dense, mat_vec

TWO_PI = 2 * math.pi


def monic(poly, one) -> bool:
    """Whether the leading coefficient is exactly ``one``, of its type: no
    type checks that a polynomial tuple is monic."""
    return type(poly[-1]) is type(one) and poly[-1] == one


@st.composite
def interlacing_real_pairs(draw, max_n=7):
    """Strictly interlacing rational instances built by construction."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    ints = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
    den = draw(st.integers(1, 4))
    xs = sorted(F(v, den) for v in ints)
    gap_idx = draw(
        st.lists(st.integers(0, n - 2), min_size=m, max_size=m, unique=True)
    )
    ys = []
    for g in sorted(gap_idx):
        t = draw(st.integers(1, 3))
        ys.append(xs[g] + (xs[g + 1] - xs[g]) * F(t, 4))
    return twospec.RealSpectrumPair(xs=tuple(xs), ys=tuple(ys))


@st.composite
def rational_grid_pairs(draw, max_n=7):
    """Strictly interlacing pairs of non-integer rationals of either sign
    with denominators up to 10^6, so that the common denominator of the
    integer grid is large."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    value = st.fractions(-50, 50, max_denominator=10**6).filter(lambda v: v.denominator > 1)
    xs = sorted(draw(st.lists(value, min_size=n, max_size=n, unique=True)))
    gaps = draw(st.lists(st.integers(0, n - 2), min_size=m, max_size=m, unique=True))
    share = st.fractions(0, 1, max_denominator=10**6).filter(lambda t: 0 < t < 1)
    ys = [xs[g] + (xs[g + 1] - xs[g]) * draw(share) for g in sorted(gaps)]
    assume(all(y.denominator > 1 for y in ys))
    return twospec.RealSpectrumPair(xs=tuple(xs), ys=tuple(ys))


@st.composite
def arbitrary_real_pairs(draw, max_n=6):
    """Sorted rational pairs with no interlacing guarantee."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    xs = draw(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=6),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    ys = draw(
        st.lists(
            st.fractions(min_value=-12, max_value=12, max_denominator=6),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    return twospec.RealSpectrumPair(xs=tuple(sorted(xs)), ys=tuple(sorted(ys)))


@st.composite
def circle_instances(draw, max_n=7):
    """Strictly interlacing circle instances from the fuzz generator (the
    moments of badly clustered nodes stop determining the recurrence data
    in binary64, so the fuzz distribution is the honest test surface)."""
    from twospec.fuzz import random_circle_instance

    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    rng = draw(st.randoms(use_true_random=False))
    return random_circle_instance(rng, n, m)


@st.composite
def circle_raw_angles(draw, max_n=6, grid=400):
    """Raw (thetas, phis) angle lists, disjoint on a coarse grid."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    slots = draw(
        st.lists(st.integers(0, grid - 1), min_size=n + m, max_size=n + m, unique=True)
    )
    step = TWO_PI / grid
    return (
        tuple(s * step for s in slots[:n]),
        tuple(s * step for s in slots[n:]),
    )


def interlaces_by_scan(xs, ys):
    """Definition restated: disjoint sets, every y inside the node range,
    at most one y per open gap."""
    if set(xs) & set(ys):
        return False
    if any(y <= xs[0] or y >= xs[-1] for y in ys):
        return False
    for lo, hi in zip(xs, xs[1:]):
        if sum(1 for y in ys if lo < y < hi) > 1:
            return False
    return True


def real_bands_by_definition(pair):
    """Band r = {j : y_r < x_j < y_{r+1}}, r = 0..m, with y_0 = -inf and
    y_{m+1} = +inf."""
    ys = (-math.inf, *pair.ys, math.inf)
    return tuple(
        tuple(j for j, x in enumerate(pair.xs, start=1) if lo < x < hi)
        for lo, hi in zip(ys, ys[1:])
    )


def circle_bands_by_definition(pair):
    """Band r = {j : phi_r < theta_j < phi_{r+1}}, r = 0..m-1, with
    phi_m = phi_0 + 2 pi, on the normalized arguments."""
    phis = (*pair.phis, pair.phis[0] + TWO_PI)
    return tuple(
        tuple(j for j, t in enumerate(pair.thetas, start=1) if lo < t < hi)
        for lo, hi in zip(phis, phis[1:])
    )


class TestInterlacingProperties:
    @given(arbitrary_real_pairs())
    @settings(max_examples=120, deadline=None)
    def test_check_equals_exhaustive_scan(self, pair):
        verdict = twospec.check_interlace_real(pair)
        assert verdict.accepted == interlaces_by_scan(pair.xs, pair.ys)

    @given(arbitrary_real_pairs())
    @settings(max_examples=120, deadline=None)
    def test_verdict_carries_the_defined_bands_on_acceptance_only(self, pair):
        verdict = twospec.check_interlace_real(pair)
        want = real_bands_by_definition(pair) if verdict.accepted else None
        assert verdict.bands == want

    @given(circle_raw_angles())
    @settings(max_examples=120, deadline=None)
    def test_circle_check_equals_nonempty_defined_bands(self, angles):
        pair = twospec.circle_pair_from_angles(*angles)
        verdict = twospec.check_interlace_circle(pair)
        bands = circle_bands_by_definition(pair)
        assert verdict.accepted == all(bands)
        assert verdict.bands == (bands if verdict.accepted else None)

    @given(interlacing_real_pairs())
    @settings(max_examples=80, deadline=None)
    def test_constructed_instances_accepted_with_valid_indices(self, pair):
        verdict = twospec.check_interlace_real(pair)
        assert verdict.accepted
        idx = verdict.indices
        assert idx[0] == 0 and idx[-1] == pair.n
        assert all(a < b for a, b in zip(idx, idx[1:]))
        for k, y in enumerate(pair.ys, start=1):
            assert pair.xs[idx[k] - 1] < y < pair.xs[idx[k]]

    @given(interlacing_real_pairs())
    @settings(max_examples=80, deadline=None)
    def test_bands_partition(self, pair):
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        flat = [j for band in bands for j in band]
        assert sorted(flat) == list(range(1, pair.n + 1))
        assert all(band for band in bands)
        assert bands == real_bands_by_definition(pair)

    @given(circle_instances())
    @settings(max_examples=60, deadline=None)
    def test_circle_bands_partition(self, pair):
        assert twospec.check_interlace_circle(pair).accepted
        bands = twospec.bands_circle(pair)
        flat = [j for band in bands for j in band]
        assert sorted(flat) == list(range(1, pair.n + 1))
        assert bands == circle_bands_by_definition(pair)


class TestKernelProperties:
    @given(interlacing_real_pairs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_circuit_is_annihilated_exactly(self, pair, data):
        support = data.draw(
            st.lists(
                st.integers(1, pair.n),
                min_size=pair.m + 1,
                max_size=pair.m + 1,
                unique=True,
            )
        )
        system = twospec.assemble_system(pair)
        vec = twospec.circuit(pair, tuple(support))
        assert all(r == 0 for r in mat_vec(system, dense(vec, pair.n)))

    @given(interlacing_real_pairs())
    @settings(max_examples=60, deadline=None)
    def test_admissible_circuits_nonnegative(self, pair):
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        for support in twospec.iter_admissible(bands):
            vec = twospec.circuit(pair, support)
            assert all(w >= 0 for w in dense(vec, pair.n))
            assert sum(1 for w in dense(vec, pair.n) if w > 0) == pair.m + 1

    @given(interlacing_real_pairs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_doubled_band_index_gives_mixed_signs(self, pair, data):
        # two support indices in one band force one band to be skipped, and
        # the sign alternations can no longer cancel
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        wide = [b for b in bands if len(b) >= 2]
        assume(wide and len(bands) >= 2)
        band = data.draw(st.sampled_from(wide))
        others = [b for b in bands if b is not band]
        skip = data.draw(st.sampled_from(others))
        support = [b[0] for b in others if b is not skip] + list(band[:2])
        vec = twospec.circuit(pair, tuple(sorted(support)))
        signs = {w > 0 for w in dense(vec, pair.n) if w != 0}
        assert signs == {True, False}

    @given(interlacing_real_pairs())
    @settings(max_examples=40, deadline=None)
    def test_positive_weight_is_annihilated_and_positive(self, pair):
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        result = twospec.positive_weight(pair, bands, twospec.WeightSelection())
        assert all(w > 0 for w in result.omega)
        system = twospec.assemble_system(pair)
        assert all(r == 0 for r in mat_vec(system, result.omega))

    @given(interlacing_real_pairs())
    @settings(max_examples=40, deadline=None)
    def test_oracle_nullspace_dimension(self, pair):
        system = twospec.assemble_system(pair)
        assert len(oracles.brute_nullspace(system, pair.n)) == pair.n - pair.m


class TestExactGridProperties:
    """Exact line stages run on the integer grid; what leaves them equals
    the same formula taken in Fractions."""

    @given(rational_grid_pairs(), st.sampled_from(STRATEGIES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_grid_values_equal_fraction_formulas(self, pair, strategy, data):
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        coefficients = {}
        if strategy == COEFFICIENTS:
            for k in range(1, twospec.admissible_size(bands)):
                coefficients[k] = F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
        sol = twospec.reconstruct_real(pair, twospec.WeightSelection(strategy, coefficients))
        omega = sol.weight.omega
        assert sol.moments == tuple(power_sums(pair.xs, omega, 2 * pair.n))

        support = data.draw(
            st.lists(st.integers(1, pair.n), min_size=pair.m + 1, max_size=pair.m + 1, unique=True)
        )
        vecs = (*(sol.weight.circuits or ()), twospec.circuit(pair, tuple(support)))
        for support, entries in vecs:
            nodes = [pair.xs[j - 1] for j in support]
            want = [
                1 / (math.prod(x - y for y in pair.ys) * math.prod(x - z for z in nodes if z != x))
                for x in nodes
            ]
            assert list(entries) in (want, [-w for w in want])

        system = twospec.assemble_system(pair)
        for row in system:
            assert all(isinstance(a, F) for a in row)
            assert sum(a * w for a, w in zip(row, omega)) == 0
        assert sol.report.mode == "rational" and sol.report.verdict
        assert all(getattr(sol.report, name) in (0, None) for name in RESIDUALS)
        assert sol.report.kernel_residual == sol.report.spectrum_residual_n == 0


class TestStieltjesProperties:
    @given(interlacing_real_pairs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_top_polynomial_for_arbitrary_positive_weights(self, pair, data):
        omega = tuple(
            data.draw(
                st.fractions(min_value=F(1, 4), max_value=4, max_denominator=5)
            )
            for _ in range(pair.n)
        )
        jac = twospec.stieltjes(pair.xs, omega)
        assert list(jac.polys[pair.n]) == poly_from_roots(pair.xs)
        assert all(g > 0 for g in jac.gamma)
        binary64 = twospec.stieltjes(tuple(map(float, pair.xs)), tuple(map(float, omega)))
        assert all(monic(p, F(1)) for p in jac.polys)
        assert all(monic(p, 1.0) for p in binary64.polys)

    @given(interlacing_real_pairs())
    @settings(max_examples=40, deadline=None)
    def test_cone_weights_pin_the_lower_polynomial(self, pair):
        sol = twospec.reconstruct_real(pair)
        assert list(sol.jacobi.polys[pair.m]) == poly_from_roots(pair.ys)
        assert sol.report.verdict

    @given(interlacing_real_pairs(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance(self, pair, c):
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        omega = twospec.positive_weight(pair, bands, twospec.WeightSelection()).omega
        a = twospec.stieltjes(pair.xs, omega)
        b = twospec.stieltjes(pair.xs, tuple(c * w for w in omega))
        assert a.beta == b.beta and a.gamma == b.gamma

    @given(interlacing_real_pairs())
    @settings(max_examples=30, deadline=None)
    def test_charpoly_recurrence_matches_expansion_oracle(self, pair):
        jac = twospec.stieltjes(
            pair.xs, tuple(F(1, 1) for _ in range(pair.n))
        )
        for k in range(min(pair.n, 5) + 1):
            char = oracles.brute_charpoly(oracles.dense_jacobi(jac), k)
            assert char == jac.polys[k]


class TestCircleProperties:
    @given(circle_instances())
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_invariants(self, pair):
        sol = twospec.reconstruct_circle(pair)
        assert unitarity_defect(sol.c_n) <= 1e-10
        assert unitarity_defect(sol.c_m) <= 1e-10
        assert all(abs(a) < 1 for a in sol.verblunsky.alpha)
        assert abs(abs(sol.verblunsky.b) - 1) <= 1e-12
        assert sol.report.verdict
        assert sol.report.poly_match_n <= 1e-8
        assert sol.report.poly_match_m <= 1e-8
        assert monic(sol.psi_n, 1 + 0j) and monic(sol.psi_m, 1 + 0j)

    @given(circle_instances())
    @settings(max_examples=40, deadline=None)
    def test_moment_symmetry_and_positivity(self, pair):
        sol = twospec.reconstruct_circle(pair)
        mu = sol.moments
        assert mu[0].real > 0

    @given(circle_instances(), st.floats(0.5, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_alpha_scaling_invariance(self, pair, c):
        bands = twospec.bands_circle(pair)
        omega = twospec.positive_weight(pair, bands, twospec.WeightSelection()).omega
        d1 = twospec.verblunsky_from_moments(twospec.trig_moments(pair.zetas, omega))
        d2 = twospec.verblunsky_from_moments(
            twospec.trig_moments(pair.zetas, tuple(c * w for w in omega))
        )
        for a1, a2 in zip(d1.alpha, d2.alpha):
            assert abs(a1 - a2) <= 1e-10 * max(1.0, abs(a1))

    @given(circle_raw_angles(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_normalization_is_permutation_invariant(self, raw, rng):
        thetas, phis = list(raw[0]), list(raw[1])
        pair = twospec.circle_pair_from_angles(thetas, phis)
        rng.shuffle(thetas)
        rng.shuffle(phis)
        assert twospec.circle_pair_from_angles(thetas, phis) == pair
