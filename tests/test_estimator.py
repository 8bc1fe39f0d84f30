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
    NodeStats,
    confidence_radius,
    estimate_discrepancy,
    exact_discrepancy,
)
from awpkit.tree import InvariantError, node_discrepancy

from helpers import random_tree, random_weight_table, reference_confidence_radius


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
        exact = exact_discrepancy(values)
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


class TestExactDiscrepancy:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_discrepancy([])

    def test_matches_node_discrepancy_on_full_vector(self):
        rng = random.Random(11)
        tree = random_tree(rng, 17)
        w = random_weight_table(rng, tree.leaf_order)
        vals = [w[lab] for lab in tree.leaf_order]
        assert exact_discrepancy(vals) == node_discrepancy(tree, tree.root_id, w)

    def test_uniform_vector_is_zero(self):
        assert exact_discrepancy([0.25] * 4) == 0.0
