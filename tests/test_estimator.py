"""Discrepancy estimator and confidence radii: frozen values, exhaustive
unbiasedness on tiny instances, and formula identities."""

import itertools
import math
import random
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpkit.estimator import (
    RADIUS_MODES,
    ConfidenceRadii,
    NodeStats,
    confidence_radius,
    estimate_discrepancy,
)
from awpkit.tree import HierTree, InvariantError, WeightTable, node_discrepancy

from helpers import random_tree, random_weight_table, reference_confidence_radius, reference_estimate


def stats_with(samples, w_star=0.5, n_leaves=4, node_id=0):
    st_ = NodeStats(node_id, w_star, n_leaves)
    for z in samples:
        st_.push(z)
    return st_


class TestNodeStats:
    def test_push_and_counters(self):
        st_ = stats_with([])
        assert st_.m == 0
        assert st_.mean_weight == 0.125
        st_.push(0.3)
        st_.push(0.05)
        assert st_.m == 2
        assert st_._sum_z == 0.3 + 0.05

    def test_sample_range_enforced(self):
        st_ = stats_with([])
        with pytest.raises(InvariantError):
            st_.push(-0.01)
        with pytest.raises(InvariantError):
            st_.push(0.51)
        st_.push(0.5)
        st_.push(0.5 + 5e-13)

    def test_invalid_node_state(self):
        with pytest.raises(InvariantError):
            NodeStats(0, -0.1, 4)
        with pytest.raises(InvariantError):
            NodeStats(0, 0.5, 0)


class TestEstimate:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            estimate_discrepancy(stats_with([]))

    def test_hand_computed(self):
        # w*=0.5 over 4 leaves, draws 0.3 and 0.05: mean leaf weight 0.125,
        # estimate = 0.5 + (4/2) * ((0.175 + 0.075) - 0.35) = 0.3.
        est = estimate_discrepancy(stats_with([0.3, 0.05]))
        assert abs(est - 0.3) < 1e-15

    def test_extreme_draws_hit_the_intrinsic_range_bounds(self):
        # Draws at the node mass floor the estimate at 0; zero draws push it
        # to the ceiling 2 w*. No clamping is involved in either case.
        assert estimate_discrepancy(stats_with([0.5, 0.5])) == 0.0
        assert estimate_discrepancy(stats_with([0.0, 0.0, 0.0])) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 0.5, allow_nan=False), min_size=1, max_size=30))
    def test_estimate_stays_within_twice_the_node_mass(self, draws):
        est = estimate_discrepancy(stats_with(draws))
        assert -1e-12 <= est <= 1.0 + 1e-12

    def test_exhaustively_unbiased_on_a_tiny_vector(self):
        values = [0.6, 0.3, 0.1]
        n = len(values)
        tree = HierTree.from_nested(("a", ("b", "c")))
        exact = node_discrepancy(tree, tree.root_id, WeightTable(dict(zip("abc", values))))
        for m in (1, 2, 3):
            ests = []
            for tup in itertools.product(range(n), repeat=m):
                ests.append(
                    estimate_discrepancy(
                        stats_with([values[i] for i in tup], w_star=1.0, n_leaves=n)
                    )
                )
            assert abs(fsum(ests) / len(ests) - exact) <= 1e-12


class TestHoeffdingRadius:
    def test_no_samples_is_infinite(self):
        assert confidence_radius(stats_with([]), 4, 0.05, "hoeffding") == math.inf

    def test_frozen_example(self):
        st_ = stats_with([0.1] * 8, w_star=0.5, n_leaves=4)
        want = 0.5 * math.sqrt(2.0 * math.log(8.0 * math.pi**2 * 64.0 / 0.15) / 8.0)
        got = confidence_radius(st_, 4, 0.05, "hoeffding")
        assert got == want
        assert abs(got - 0.807190512736313) <= 1e-12

    def test_zero_mass_node_has_zero_radius(self):
        st_ = stats_with([0.0, 0.0], w_star=0.0)
        assert confidence_radius(st_, 4, 0.05, "hoeffding") == 0.0

    @pytest.mark.parametrize("k,delta", [(2, 0.05), (4, 0.05), (8, 0.2), (40, 0.01)])
    def test_non_increasing_in_m_from_three(self, k, delta):
        prev = None
        for m in range(3, 200):
            st_ = stats_with([0.2] * m, w_star=1.0, n_leaves=5)
            r = confidence_radius(st_, k, delta, "hoeffding")
            if prev is not None:
                assert r <= prev
            prev = r

    def test_argument_validation(self):
        st_ = stats_with([0.1])
        for mode in RADIUS_MODES:
            with pytest.raises(ValueError):
                confidence_radius(st_, 0, 0.05, mode)
            with pytest.raises(ValueError):
                confidence_radius(st_, 4, 0.0, mode)
            with pytest.raises(ValueError):
                confidence_radius(st_, 4, 1.0, mode)


class TestBernsteinRadius:
    def test_fewer_than_two_samples_is_infinite(self):
        assert confidence_radius(stats_with([]), 4, 0.05, "bernstein") == math.inf
        assert confidence_radius(stats_with([0.2]), 4, 0.05, "bernstein") == math.inf

    def test_constant_draws_leave_only_the_bias_term(self):
        # Identical draws have zero sample variance, so the radius is
        # exactly 28 w* L / (3 (m-1)).
        m = 6
        st_ = stats_with([0.1] * m, w_star=0.5, n_leaves=4)
        log_term = math.log(2.0 * 4 * math.pi**2 * m * m / (3.0 * 0.05))
        assert confidence_radius(st_, 4, 0.05, "bernstein") == 28.0 * 0.5 * log_term / (3.0 * (m - 1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 0.5, allow_nan=False), min_size=2, max_size=40),
    )
    def test_running_variance_matches_pairwise_form(self, draws):
        stats = stats_with(draws, w_star=0.5, n_leaves=4)
        m = len(draws)
        a = [abs(z - stats.mean_weight) - z for z in draws]
        pairwise = fsum(
            (a[i] - a[j]) ** 2 for i in range(m) for j in range(i + 1, m)
        ) / (m * (m - 1))
        var = (m * stats._sum_zp2 - stats._sum_zp**2) / (m * (m - 1))
        if var < 0.0:
            var = 0.0
        assert abs(var - pairwise) <= 1e-12

    def test_strict_mode_uses_smaller_log_term(self):
        st_ = stats_with([0.0, 0.3, 0.1, 0.4], w_star=0.5, n_leaves=4)
        loose = confidence_radius(st_, 4, 0.05, "bernstein")
        strict = confidence_radius(st_, 4, 0.05, "bernstein", strict_paper=True)
        assert strict < loose


class TestConfidenceRadius:
    def test_modes_dispatch(self):
        st_ = stats_with([0.0, 0.3, 0.1], w_star=0.5, n_leaves=4)
        h = confidence_radius(st_, 4, 0.05, "hoeffding")
        b = confidence_radius(st_, 4, 0.05, "bernstein")
        assert h == reference_confidence_radius(st_, 4, 0.05, "hoeffding")
        assert b == reference_confidence_radius(st_, 4, 0.05, "bernstein")
        assert h != b
        assert confidence_radius(st_, 4, 0.05, "min") == min(h, b)
        assert confidence_radius(st_, 4, 0.05) == min(h, b)
        with pytest.raises(ValueError):
            confidence_radius(st_, 4, 0.05, "other")

    def test_min_mode_with_one_sample_falls_back_to_hoeffding(self):
        st_ = stats_with([0.2])
        assert confidence_radius(st_, 4, 0.05, "min") == confidence_radius(st_, 4, 0.05, "hoeffding")


class TestRadiusAgainstReference:
    # One log term per call must not move a single float: every radius
    # equals the formulas evaluated independently.
    @pytest.mark.parametrize("mode", ["hoeffding", "bernstein", "min"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_exactly_equal(self, mode, strict):
        rng = random.Random(f"{mode}-{strict}")
        for w_star, n_leaves in ((0.0, 4), (0.5, 1), (0.5, 4), (1.0, 64), (0.013, 3)):
            for m in (0, 1, 2, 3, 7, 50):
                draws = [rng.choice((0.0, w_star, rng.uniform(0.0, w_star))) for _ in range(m)]
                st_ = stats_with(draws, w_star=w_star, n_leaves=n_leaves)
                for k, delta in ((1, 0.5), (2, 0.05), (40, 0.05), (160, 1e-6)):
                    want = reference_confidence_radius(st_, k, delta, mode, strict_paper=strict)
                    got = confidence_radius(st_, k, delta, mode, strict_paper=strict)
                    assert got == want, (w_star, n_leaves, m, k, delta)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=30),
        st.integers(1, 200),
        st.sampled_from(["hoeffding", "bernstein", "min"]),
        st.booleans(),
    )
    def test_random_draws(self, fractions, n_leaves, mode, strict):
        st_ = stats_with([0.3 * f for f in fractions], w_star=0.3, n_leaves=n_leaves)
        want = reference_confidence_radius(st_, 40, 0.05, mode, strict_paper=strict)
        assert confidence_radius(st_, 40, 0.05, mode, strict_paper=strict) == want


def crossover(k, delta, strict):
    """The first m >= 2 at which Bernstein's constant-term coefficient
    28 L / (3 (m - 1)) falls below the Hoeffding factor, from the
    formulas; below it mode "min" always returns Hoeffding."""
    m = 2
    while True:
        log_term = math.log(2.0 * k * math.pi**2 * m * m / (3.0 * delta))
        bernstein_log = math.log(2.0 / delta) if strict else log_term
        if 28.0 * bernstein_log / (3.0 * (m - 1)) < math.sqrt(2.0 * log_term / m):
            return m
        m += 1


class TestBernsteinShortcut:
    # Mode "min" skips the Bernstein radius where its constant term alone
    # beats Hoeffding; every radius must still equal the formulas, bit for
    # bit, on both sides of the crossover and at masses where the
    # shortcut's roundings would turn subnormal.
    W_STARS = (0.0, 5e-324, math.nextafter(2.0**-900, 0.0), 2.0**-900, 1e-250, 1e-5, 1.0)

    @pytest.mark.parametrize("k", [1, 40, 10**6])
    @pytest.mark.parametrize("delta", [1e-12, 0.05, 0.999])
    @pytest.mark.parametrize("strict", [False, True])
    def test_every_m_to_three_times_the_crossover(self, k, delta, strict):
        last = 3 * crossover(k, delta, strict)
        radii = [ConfidenceRadii(k, delta, mode, strict_paper=strict) for mode in RADIUS_MODES]
        nodes = [NodeStats(0, w_star, 7) for w_star in self.W_STARS]
        for m in range(1, last + 1):
            for st_ in nodes:
                # Running sums that a spread of draws could give; odd m
                # has zero variance, so only the constant term is left.
                w_star = st_.w_star
                st_.m = m
                st_._sum_zp = -0.25 * w_star * m
                st_._sum_zp2 = (0.0625 if m % 2 else 0.5) * w_star * w_star * m
                for r in radii:
                    want = reference_confidence_radius(st_, k, delta, r.mode, strict_paper=strict)
                    assert r.radius(st_).hex() == want.hex(), (st_.w_star, m, r.mode)
        minimum = radii[RADIUS_MODES.index("min")]
        # The shortcut is taken below the crossover and not from it on.
        assert [minimum._terms[m][2] for m in range(1, last + 1)] == [m < last // 3 for m in range(1, last + 1)]


class TestHugeMasses:
    # A hand-built node of mass 1e300 or inf has running sums whose square
    # is past the float range.  The radius must come back as the float the
    # reference gives (nan where both give nan), in every mode, on both
    # sides of the crossover, and never raise.
    SUMS = ((None, None), (1e200, 1e300), (-1e300, math.inf), (1e300, 5.0), (math.inf, math.inf))

    @staticmethod
    def same(got, want):
        return isinstance(got, float) and (got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)))

    @pytest.mark.parametrize("w_star", [1e300, math.inf])
    @pytest.mark.parametrize("strict", [False, True])
    def test_every_mode_equals_the_reference(self, w_star, strict):
        k, delta = 40, 0.05
        last = 3 * crossover(k, delta, strict)
        radii = [ConfidenceRadii(k, delta, mode, strict_paper=strict) for mode in RADIUS_MODES]
        drawn = stats_with([0.0, w_star, 0.5 * w_star], w_star=w_star, n_leaves=4)
        for m in (1, 2, 3, 7, last // 3 - 1, last // 3, last // 3 + 1, last):
            for sum_zp, sum_zp2 in self.SUMS:
                st_ = NodeStats(0, w_star, 4)
                st_.m = m
                st_._sum_zp = drawn._sum_zp if sum_zp is None else sum_zp
                st_._sum_zp2 = drawn._sum_zp2 if sum_zp2 is None else sum_zp2
                for r in radii:
                    want = reference_confidence_radius(st_, k, delta, r.mode, strict_paper=strict)
                    assert self.same(r.radius(st_), want), (m, sum_zp, r.mode)
                    got = confidence_radius(st_, k, delta, r.mode, strict_paper=strict)
                    assert self.same(got, want), (m, sum_zp, r.mode)


class TestPerRunRadii:
    # One ConfidenceRadii per run keeps its log terms and Hoeffding factors
    # by m.  Shared by several nodes, its every radius must equal the
    # formulas evaluated afresh, and each running estimate the estimate
    # summed from the draw list, bit for bit.
    NODES = ((0.0, 2), (0.0, 9), (0.5, 2), (0.3, 7), (1.0, 4096))
    CHECKED = {*range(1, 301), 1000, 4096, 20000}

    def test_exactly_equal_to_the_references(self):
        configs = [
            (k, delta, mode, strict)
            for k, delta in ((2, 0.05), (96, 1e-3))
            for mode in ("hoeffding", "bernstein", "min")
            for strict in (False, True)
        ]
        radii = [ConfidenceRadii(k, delta, mode, strict_paper=strict) for k, delta, mode, strict in configs]
        rng = random.Random(23)
        for w_star, n_leaves in self.NODES:
            leaves = [rng.uniform(0.0, w_star) for _ in range(n_leaves - 1)]
            leaves.append(w_star - fsum(leaves) if n_leaves == 2 else 0.0)
            st_ = NodeStats(0, w_star, n_leaves)
            draws = []
            while st_.m < max(self.CHECKED):
                z = rng.choice(leaves)
                draws.append(z)
                st_.push(z)
                if st_.m not in self.CHECKED:
                    continue
                want = reference_estimate(w_star, n_leaves, draws)
                assert st_.estimate.hex() == estimate_discrepancy(st_).hex() == want.hex()
                for (k, delta, mode, strict), r in zip(configs, radii):
                    want = reference_confidence_radius(st_, k, delta, mode, strict_paper=strict)
                    assert r.radius(st_) == want, (w_star, n_leaves, st_.m, k, delta, mode, strict)
                    assert confidence_radius(st_, k, delta, mode, strict_paper=strict) == want

    def test_no_draw_means_no_estimate_and_an_infinite_radius(self):
        st_ = NodeStats(0, 0.5, 4)
        assert math.isnan(st_.estimate)
        with pytest.raises(ValueError, match="no samples"):
            estimate_discrepancy(st_)
        for mode in RADIUS_MODES:
            assert ConfidenceRadii(4, 0.05, mode).radius(st_) == math.inf

    @pytest.mark.parametrize("build", [
        lambda k, delta, mode: confidence_radius(stats_with([0.1, 0.2]), k, delta, mode),
        lambda k, delta, mode: ConfidenceRadii(k, delta, mode),
    ])
    def test_argument_errors(self, build):
        # The checks run in this order, with these messages, as before the
        # radii were kept per run.
        cases = [
            ((4, 0.05, "other"), "unknown radius mode 'other'"),
            ((0, 2.0, "other"), "unknown radius mode 'other'"),
            ((0, 0.05, "min"), "k must be at least 1, got 0"),
            ((-3, 0.0, "hoeffding"), "k must be at least 1, got -3"),
            ((2.5, 0.05, "min"), "k must be at least 1, got 2.5"),
            ((4.0, 0.05, "bernstein"), "k must be at least 1, got 4.0"),
            (("4", 0.0, "hoeffding"), "k must be at least 1, got '4'"),
            ((None, 0.05, "min"), "k must be at least 1, got None"),
            ((4, 0.0, "bernstein"), "delta must lie in \\(0, 1\\), got 0.0"),
            ((4, 1.0, "min"), "delta must lie in \\(0, 1\\), got 1.0"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(*args)
