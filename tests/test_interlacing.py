import cmath
import math
import random
from fractions import Fraction as F

import pytest

import twospec
from twospec import files, interlacing
from twospec.interlacing import (
    EMPTY_BAND,
    GAP_OVERFULL,
    NOT_SORTED,
    OUT_OF_RANGE,
    SHARED_POINT,
)

from . import oracles


class TestRealCheck:
    def test_two_gap_acceptance(self, pair_4_2):
        verdict = twospec.check_interlace_real(pair_4_2)
        assert verdict.accepted
        assert verdict.indices == (0, 1, 3, 4)

    def test_single_gap(self):
        pair = twospec.RealSpectrumPair(xs=(0, 1), ys=(F(1, 2),))
        verdict = twospec.check_interlace_real(pair)
        assert verdict.accepted
        assert verdict.indices == (0, 1, 2)

    def test_seven_nodes(self, pair_7_3):
        verdict = twospec.check_interlace_real(pair_7_3)
        assert verdict.accepted
        assert verdict.indices == (0, 1, 3, 5, 7)

    def test_below_range_rejected(self):
        pair = twospec.RealSpectrumPair(xs=(1, 2, 3), ys=(F(1, 4),))
        verdict = twospec.check_interlace_real(pair)
        assert not verdict.accepted
        assert verdict.code == OUT_OF_RANGE

    def test_above_range_rejected(self):
        pair = twospec.RealSpectrumPair(xs=(1, 2, 3), ys=(5,))
        assert twospec.check_interlace_real(pair).code == OUT_OF_RANGE

    def test_shared_point_rejected(self):
        pair = twospec.RealSpectrumPair(xs=(1, 2, 3), ys=(2,))
        assert twospec.check_interlace_real(pair).code == SHARED_POINT

    def test_overfull_gap_rejected(self):
        pair = twospec.RealSpectrumPair(xs=(0, 1, 5), ys=(2, 3))
        assert twospec.check_interlace_real(pair).code == GAP_OVERFULL

    def test_unsorted_rejected(self):
        pair = twospec.RealSpectrumPair(xs=(2, 1, 3), ys=(F(3, 2),))
        assert twospec.check_interlace_real(pair).code == NOT_SORTED
        pair = twospec.RealSpectrumPair(xs=(1, 2, 3), ys=(F(5, 2), F(3, 2)))
        assert twospec.check_interlace_real(pair).code == NOT_SORTED

    def test_duplicate_node_rejected(self):
        pair = twospec.RealSpectrumPair(xs=(1, 1, 3), ys=(2,))
        assert twospec.check_interlace_real(pair).code == NOT_SORTED

    def test_size_constraint(self):
        with pytest.raises(ValueError):
            twospec.RealSpectrumPair(xs=(1, 2), ys=(F(1, 2), F(3, 2)))


class TestRealBands:
    def test_two_gap_bands(self, pair_4_2):
        verdict = twospec.check_interlace_real(pair_4_2)
        bands = twospec.bands_real(pair_4_2, verdict)
        assert bands == ((1,), (2, 3), (4,))

    def test_seven_node_bands(self, pair_7_3):
        verdict = twospec.check_interlace_real(pair_7_3)
        bands = twospec.bands_real(pair_7_3, verdict)
        assert bands == ((1,), (2, 3), (4, 5), (6, 7))

    def test_consecutive_degrees_all_singletons(self):
        xs = tuple(range(6))
        ys = tuple(F(2 * k + 1, 2) for k in range(5))
        pair = twospec.RealSpectrumPair(xs=xs, ys=ys)
        bands = twospec.bands_real(pair, twospec.check_interlace_real(pair))
        assert tuple(map(len, bands)) == (1,) * 6

    def test_partition(self, pair_7_3):
        bands = twospec.bands_real(
            pair_7_3, twospec.check_interlace_real(pair_7_3)
        )
        flat = [j for band in bands for j in band]
        assert sorted(flat) == list(range(1, pair_7_3.n + 1))
        assert all(band for band in bands)

    def test_requires_accepted_verdict(self, pair_4_2):
        bad = twospec.InterlacingVerdict(accepted=False, code=OUT_OF_RANGE)
        with pytest.raises(ValueError):
            twospec.bands_real(pair_4_2, bad)


class TestCircleNormalize:
    def test_point_inputs(self):
        import cmath

        pair = twospec.normalize_circle(
            [1j, cmath.rect(1, 4 * math.pi / 3), cmath.rect(1, 5 * math.pi / 3)],
            [1, -1],
        )
        assert pair.phis[0] == 0.0
        assert pair.phis[1] == pytest.approx(math.pi, abs=1e-15)
        assert pair.thetas == pytest.approx(
            (math.pi / 2, 4 * math.pi / 3, 5 * math.pi / 3), abs=1e-12
        )

    def test_angle_inputs_sorted(self):
        pair = twospec.circle_pair_from_angles(
            (math.pi / 4, 3 * math.pi / 4), (0.0,)
        )
        assert pair.phis == (0.0,)
        assert pair.thetas == (math.pi / 4, 3 * math.pi / 4)

    def test_permutation_invariance(self):
        thetas = (5.1, 0.4, 2.2, 3.3)
        phis = (1.1, 2.9)
        a = twospec.circle_pair_from_angles(thetas, phis)
        b = twospec.circle_pair_from_angles(thetas[::-1], phis[::-1])
        assert a == b

    def test_base_point_is_smallest_argument(self):
        pair = twospec.circle_pair_from_angles((0.5, 2.0, 4.0), (3.0, 1.0))
        assert pair.phis[0] == 1.0
        # 0.5 wraps past the base point
        assert pair.thetas[-1] == pytest.approx(1.0 + ((0.5 - 1.0) % (2 * math.pi)))

    def test_shared_point_raises(self):
        with pytest.raises(twospec.SharedPointError):
            twospec.circle_pair_from_angles((1.0, 2.0), (1.0,))

    def test_duplicate_within_set_raises(self):
        with pytest.raises(twospec.DegenerateAngleError):
            twospec.circle_pair_from_angles((1.0, 1.0, 2.0), (0.5,))

    def test_not_unit_modulus_raises(self):
        with pytest.raises(twospec.NotUnitModulusError):
            twospec.normalize_circle([2 + 0j, 1j], [1 + 0j])

    def test_empty_m_set_is_the_size_error(self):
        with pytest.raises(ValueError, match="need 1 <= m < n"):
            twospec.normalize_circle([1j, -1j], [])
        with pytest.raises(ValueError, match="need 1 <= m < n"):
            twospec.circle_pair_from_angles((1.0, 2.0), ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, bad):
        with pytest.raises(twospec.NotUnitModulusError):
            twospec.circle_pair_from_angles((bad, 1.0, 2.0), (0.5,))
        with pytest.raises(twospec.NotUnitModulusError):
            twospec.circle_pair_from_angles((0.0, 1.0, 2.0), (bad,))


class TestCircleCheck:
    def test_two_band_acceptance(self, circle_3_2):
        verdict = twospec.check_interlace_circle(circle_3_2)
        assert verdict.accepted
        bands = twospec.bands_circle(circle_3_2)
        assert bands == ((1,), (2, 3))

    def test_seven_node_bands(self, circle_7_3):
        assert twospec.check_interlace_circle(circle_7_3).accepted
        assert twospec.bands_circle(circle_7_3) == (
            (1, 2, 3),
            (4, 5),
            (6, 7),
        )

    def test_seven_node_bands_late_third_base_point(self):
        # third base point past 7pi/6 pulls node 6 into the middle band
        from .conftest import CIRCLE_7_THETAS

        pair = twospec.circle_pair_from_angles(
            CIRCLE_7_THETAS, (math.pi / 12, 7 * math.pi / 12, 5 * math.pi / 4)
        )
        assert twospec.bands_circle(pair) == ((1, 2, 3), (4, 5, 6), (7,))

    def test_single_base_point_always_accepted(self):
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0, 4.0), (0.5,))
        assert twospec.check_interlace_circle(pair).accepted
        assert twospec.bands_circle(pair) == ((1, 2, 3, 4),)

    def test_empty_band_rejected(self):
        # both base points inside the same node arc
        pair = twospec.circle_pair_from_angles((1.0, 2.0, 3.0), (1.2, 1.4))
        verdict = twospec.check_interlace_circle(pair)
        assert not verdict.accepted
        assert verdict.code == EMPTY_BAND
        with pytest.raises(ValueError):
            twospec.bands_circle(pair)

    def test_partition(self, circle_7_3):
        bands = twospec.bands_circle(circle_7_3)
        flat = [j for band in bands for j in band]
        assert sorted(flat) == list(range(1, circle_7_3.n + 1))


_TOL, _TWO_PI = interlacing.POINT_TOL, interlacing.TWO_PI


def _near_sets(g):
    """(zn, zm) angle sets, m < n, whose closest pair is about g * POINT_TOL apart."""
    d = g * _TOL
    return {
        "zn_pair_across_the_wrap": ([d / 2, 2.0, _TWO_PI - d / 2], [1.0]),
        "zm_pair_across_the_wrap": ([1.0, 3.0, 4.0, 5.0], [_TWO_PI - d / 2, 2.0, d / 2]),
        "zn_zm_across_the_wrap": ([_TWO_PI - d, 2.0, 3.0], [1.0, 0.0]),
        "zn_zm_shared": ([1.0, 3.0, 4.0], [2.0, 1.0 + d]),
        "zn_cluster_of_three": ([4.0, 1.0 + 2 * d, 2.5, 1.0 + d, 1.0], [3.0]),
        "cluster_across_the_sets": ([1.0 + 2 * d, 1.0, 4.0], [1.0 + d, 5.0]),
        "cluster_of_three_across_the_wrap": ([d, 3.0, _TWO_PI - d, 0.0], [2.0]),
        # the mirror point's real part lies between the pair's
        "zn_pair_and_its_mirror_point": ([1.0, 1.0 + d, _TWO_PI - 1.0 - d / 2], [3.0]),
    }


def _points(angles):
    """The points at the angles, scaled off the circle by up to 1e-9 (well
    within UNIT_TOL)."""
    return [cmath.rect(1.0 + 1e-9 * (i % 3 - 1), a) for i, a in enumerate(angles)]


def _outcome(build, zn, zm):
    try:
        build(zn, zm)
    except (twospec.DegenerateAngleError, twospec.SharedPointError) as exc:
        return type(exc), str(exc)
    return None


def _assert_same_outcome(zn, zm, as_points=False):
    """The pair built from the angles (or their points) fails as the
    all-pairs scan of their readings' points does."""
    if as_points:
        zn, zm = _points(zn), _points(zm)
    build = twospec.normalize_circle if as_points else twospec.circle_pair_from_angles
    read = interlacing.point_reading if as_points else interlacing.angle_reading
    points = [[read(v, tag, i)[0] for i, v in enumerate(vs)] for vs, tag in ((zn, "zn"), (zm, "zm"))]
    want = _outcome(oracles.collision_scan, *points)
    assert _outcome(build, zn, zm) == want
    return want


_UNIT = interlacing.UNIT_TOL


def _written(rng):
    """(zn, zm, thetas, phis) as a solution holds them: the angles ascending
    from phis[0], and clusters, some across the wrap, of two points within a
    few POINT_TOL of one place, up to 0.999 UNIT_TOL (tangentially) off angles
    anywhere within that of the place, and up to two more points half to 0.999
    UNIT_TOL off their angles there, each angle between the pair's or not."""
    readings = [(rng.uniform(0.0, _TWO_PI), 0.0) for _ in range(rng.randint(2, 5))]
    for _ in range(rng.randint(1, 3)):
        place, spread = rng.choice([0.0, rng.uniform(0.0, _TWO_PI)]), rng.choice([1.0, 4.0])
        for k in range(rng.randint(2, 4)):
            angle = rng.uniform(-0.999, 0.999) * _UNIT
            if k < 2:  # the pair, near the place
                point = rng.uniform(-spread, spread) * _TOL
            else:
                point = angle + rng.choice([-1, 1]) * rng.uniform(0.5, 0.999) * _UNIT
            readings.append(((place + angle) % _TWO_PI, point - angle))  # the point off its angle
    rng.shuffle(readings)
    k = rng.randint(1, (len(readings) - 1) // 2)
    base = min(a for a, _ in readings[:k])
    (thetas, zn), (phis, zm) = (
        zip(*sorted((base + (a - base) % _TWO_PI, cmath.rect(1.0, a + t)) for a, t in part))
        for part in (readings[k:], readings[:k])
    )
    return zn, zm, thetas, phis


class TestCollisionCheck:
    """Sorting by angle first, the circle pair raises what the all-pairs
    scan raises: the same exception type, naming the same pair."""

    @pytest.mark.parametrize("as_points", [False, True], ids=["angles", "points"])
    @pytest.mark.parametrize("g", [0.99, 1.01, 4.0])
    @pytest.mark.parametrize("case", sorted(_near_sets(1.0)))
    def test_near_coincident_sets(self, case, g, as_points):
        want = _assert_same_outcome(*_near_sets(g)[case], as_points)
        assert (want is None) == (g > 1)

    def test_named_pairs(self):
        named = {
            case: _outcome(twospec.circle_pair_from_angles, *sets)
            for case, sets in _near_sets(0.99).items()
        }
        degenerate, shared = twospec.DegenerateAngleError, twospec.SharedPointError
        assert named == {
            "zn_pair_across_the_wrap": (degenerate, "zn[0] and zn[2] coincide"),
            "zm_pair_across_the_wrap": (degenerate, "zm[0] and zm[2] coincide"),
            "zn_zm_across_the_wrap": (shared, "zn[0] equals zm[1]"),
            "zn_zm_shared": (shared, "zn[0] equals zm[1]"),
            "zn_cluster_of_three": (degenerate, "zn[1] and zn[3] coincide"),
            "cluster_across_the_sets": (shared, "zn[0] equals zm[0]"),
            "cluster_of_three_across_the_wrap": (degenerate, "zn[0] and zn[3] coincide"),
            "zn_pair_and_its_mirror_point": (degenerate, "zn[0] and zn[1] coincide"),
        }

    @pytest.mark.parametrize("seed", range(40))
    def test_random_clusters(self, seed):
        # a few well-separated anchors, each with points at random multiples
        # of POINT_TOL around it, some of them across the wrap
        rng = random.Random(seed)
        anchors = [0.0, *(rng.uniform(0.0, _TWO_PI) for _ in range(3))]
        zn, zm = [], []
        for _ in range(rng.randint(2, 12)):
            a = rng.choice(anchors) + rng.choice([-1, 1]) * rng.uniform(0.0, 6.0) * _TOL
            rng.choice((zn, zm)).append(a % _TWO_PI)
        zm = zm or [rng.uniform(0.0, _TWO_PI)]  # and n > m, for the pair's size check
        zn += [rng.uniform(0.0, _TWO_PI) for _ in range(len(zm) + 1 - len(zn))]
        _assert_same_outcome(zn, zm, as_points=seed % 2 == 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_written_points_off_their_angles(self, seed):
        # a solution's points may lie up to UNIT_TOL off their angles: the
        # solution reader raises what the scan of its points raises
        zn, zm, thetas, phis = _written(random.Random(seed))
        want = _outcome(oracles.collision_scan, zn, zm)
        assert _outcome(lambda *sets: files._circle_pair(*sets, thetas, phis), zn, zm) == want

    def test_written_points_off_their_angles_cover_both_outcomes(self):
        # the seeds above hold pairs that coincide and pairs that do not
        written = [_written(random.Random(seed))[:2] for seed in range(40)]
        assert {_outcome(oracles.collision_scan, *sets) is None for sets in written} == {False, True}

    @pytest.mark.parametrize("factor, scanned", [(0.999, True), (1.001, False)])
    def test_written_points_at_the_gate(self, monkeypatch, factor, scanned):
        # points moved 0.999 UNIT_TOL toward each other off angles further
        # apart, to 4 (POINT_TOL + UNIT_TOL) times factor: the scan runs
        # within that distance only, and finds nothing
        calls = []
        monkeypatch.setattr(interlacing, "combinations", lambda *a: calls.append(a) or ())
        shift = 0.999 * _UNIT
        phis = (1.0,)
        thetas = (1.0 + 4 * (_TOL + _UNIT) * factor + 2 * shift, 3.0, 5.0)
        zm = (cmath.rect(1.0, phis[0] + shift),)
        zn = (cmath.rect(1.0, thetas[0] - shift), *(cmath.rect(1.0, t) for t in thetas[1:]))
        files._circle_pair(zn, zm, thetas, phis)
        assert bool(calls) == scanned

    def test_far_apart_points_skip_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the all-pairs scan ran")

        monkeypatch.setattr(interlacing, "combinations", no_scan)  # the scan's first step
        twospec.circle_pair_from_angles([0.5, 2.0, 4.0], [1.0, 3.0])
        with pytest.raises(AssertionError):  # neighbours within 4 POINT_TOL run it
            twospec.circle_pair_from_angles([0.5, 2.0, 4.0], [1.0, 0.5 + 3.9 * _TOL])
