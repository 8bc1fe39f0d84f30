"""Adaptive engine: selection, splitting, bookkeeping, and the
concentration event, all audited through recorded traces."""

import random
from collections import Counter
from dataclasses import replace
from heapq import heappush
from math import fsum, inf, isinf, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import awpkit.engine as engine_mod
import awpkit.tree as tree_mod
from awpkit.engine import (
    MASS_TOL,
    AwpRun,
    EngineConfig,
    PruningResult,
    PruningSearch,
    refine_with_queries,
    normalized_distance,
    run_awp,
)
from awpkit.baselines import BaselineCell, run_empirical, run_uniform, run_weight
from awpkit.cli import (
    ExperimentConfig,
    ExperimentOutput,
    format_traces,
    make_target_source,
    make_tree_source,
    run_experiment,
)
from awpkit.estimator import NodeStats, confidence_radius, estimate_discrepancy
from awpkit.oracle import (
    Oracle,
    QueryLedger,
    TargetSpec,
    build_median_split_tree,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
    random_features,
)
from awpkit.tree import (
    WEIGHT_SUM_TOL,
    HierTree,
    InvariantError,
    WeightTable,
    induced_weighting,
    is_pruning,
    node_discrepancies,
    tv_distance,
)

from helpers import (
    argmax_ucb,
    caterpillar,
    first_qualifying_split,
    leaf_ids,
    own_draws,
    random_tree,
    random_pruning,
    random_weight_table,
    reference_node_discrepancies,
    reference_normalized_distance,
    reference_refine_with_queries,
    replay_trace,
    sc_satisfied,
    spiked_quality_tree,
)


def quad_instance():
    tree = HierTree.from_nested((("a", "b"), ("c", "d")))
    truth = WeightTable({"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2})
    return tree, truth


class TestConfig:
    def test_validation(self):
        EngineConfig(k=2)
        with pytest.raises(ValueError):
            EngineConfig(k=1)
        with pytest.raises(ValueError):
            EngineConfig(k=2, delta=0.0)
        with pytest.raises(ValueError):
            EngineConfig(k=2, delta=1.0)
        with pytest.raises(ValueError):
            EngineConfig(k=2, beta=1.0)
        with pytest.raises(ValueError):
            EngineConfig(k=2, beta=inf)
        with pytest.raises(ValueError):
            EngineConfig(k=2, radius_mode="other")
        with pytest.raises(ValueError):
            EngineConfig(k=2, max_basic_queries=-1)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, inf])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match=r"^k must be at least 2, got "):
            EngineConfig(k=k)

    @pytest.mark.parametrize("cap", [2.5, 3.0, "3", -1])
    def test_cap_must_be_a_non_negative_integer(self, cap):
        with pytest.raises(ValueError, match=r"^max_basic_queries must be at least 0, got "):
            EngineConfig(k=2, max_basic_queries=cap)

    def test_bool_cap_counts_as_an_integer(self):
        tree, truth = quad_instance()
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=4, max_basic_queries=True))
        assert res.ledger.basic_queries == 1 and res.early_stop == "max-queries"

    def test_run_refuses_a_k_past_the_leaf_count_or_not_an_integer(self):
        tree, truth = quad_instance()
        with pytest.raises(ValueError, match=r"^k must be in 2\.\.4, got 5$"):
            AwpRun(tree, Oracle(tree, truth), EngineConfig(k=5))
        # A config is checked when built; a k forced in afterwards is
        # checked again by the run, before any query.
        config = EngineConfig(k=3)
        object.__setattr__(config, "k", 2.5)
        oracle = Oracle(tree, truth)
        with pytest.raises(ValueError, match=r"^k must be in 2\.\.4, got 2\.5$"):
            AwpRun(tree, oracle, config)
        assert oracle.ledger.basic_queries == oracle.ledger.node_queries == 0

    def test_run_rejects_mismatched_oracle_and_oversized_k(self):
        tree, truth = quad_instance()
        other, other_truth = quad_instance()
        with pytest.raises(ValueError):
            run_awp(tree, Oracle(other, other_truth), EngineConfig(k=2))
        with pytest.raises(ValueError):
            run_awp(tree, Oracle(tree, truth), EngineConfig(k=5))


class TestSplitCriterion:
    def test_direction_and_vacuous_rival(self):
        assert sc_satisfied(4.0, 0.5, 0.1, 1.0)
        assert not sc_satisfied(4.0, 0.5, 0.4, 1.0)
        assert sc_satisfied(4.0, 0.0, inf, -inf)


class TestSplitStep:
    # quad_instance: root 0 over 1 = (a, b) and 4 = (c, d), node 4 of mass 0.4.
    def test_left_mass_within_tolerance_clamps_to_zero(self):
        tree, truth = quad_instance()
        search = PruningSearch(tree, Oracle(tree, truth))
        w_r = Oracle(tree, truth).query_node(4)
        search.mass[0] = w_r - MASS_TOL / 2
        assert search.split(0) == (1, 4)
        assert search.mass[1] == 0.0 and search.mass[4] == w_r
        assert search.pruning == [1, 4]
        assert search.trace == [("SPLIT", 0, w_r)]

    def test_left_mass_below_tolerance_raises(self):
        tree, truth = quad_instance()
        search = PruningSearch(tree, Oracle(tree, truth))
        search.mass[0] = Oracle(tree, truth).query_node(4) - 10 * MASS_TOL
        with pytest.raises(InvariantError, match="below zero"):
            search.split(0)

    def test_splitting_a_leaf_raises(self):
        tree, truth = quad_instance()
        search = PruningSearch(tree, Oracle(tree, truth))
        search.split(0)
        search.split(1)
        with pytest.raises(ValueError, match="leaf"):
            search.split(2)
        assert search.pruning == [2, 3, 4]
        assert search.oracle.ledger.node_queries == 2

    def test_broken_pruning_raises(self):
        tree, truth = quad_instance()
        search = PruningSearch(tree, Oracle(tree, truth))
        search.pruning.append(4)
        # A split keeps the pruning valid by construction, so the one check
        # runs in finish, before any result is built.
        search.split(0)
        with pytest.raises(InvariantError, match="pruning broken"):
            search.finish()


class TestSplitCheckBoundary:
    # Scores set by hand on the pruning {1, 4} of quad_instance: node 1
    # holds the top ucb, and its rival is node 4's ucb, top2 = 0.5.

    @staticmethod
    def scored_run(lcb_1):
        tree, truth = quad_instance()
        run = AwpRun(tree, Oracle(tree, truth), EngineConfig(k=3, beta=4.0))
        assert run.sample_step() == 0
        assert run.split_check() == [0]
        beta = run.config.beta
        run._lcb = {1: lcb_1, 4: 0.0}
        run._ucb_heap[:] = [(-1.0, 1), (-0.5, 4)]
        run._lcb_heap[:] = sorted((-(beta * lcb), v) for v, lcb in run._lcb.items())
        return run

    def test_top_node_meeting_top2_exactly_splits(self):
        run = self.scored_run(0.125)  # beta * lcb == 0.5 == top2
        assert run.split_check() == [1]
        assert run.pruning == [2, 3, 4]

    def test_top_node_just_below_top2_does_not_split(self):
        run = self.scored_run(nextafter(0.125, 0.0))
        assert run.split_check() == []
        assert run.pruning == [1, 4]

    def test_an_earlier_larger_lcb_is_dead(self):
        # Node 1's lcb has fallen since an earlier draw, whose entry stays
        # in the lcb heap: only the current lcb counts.
        run = self.scored_run(nextafter(0.125, 0.0))
        heappush(run._lcb_heap, (-(run.config.beta * 0.5), 1))
        assert run.split_check() == []
        assert run.pruning == [1, 4]


class TestPrivateSampler:
    # The engine draws lo + _randbelow(hi - lo), which is what randrange
    # returns after its argument checks; the baselines take the same
    # stream in batches (see TestDrawAll in test_baselines.py).  A Python
    # release that changes _randbelow fails this test before it changes
    # any output digest.  Powers of two take the rejection path of
    # _randbelow_with_getrandbits.
    @pytest.mark.parametrize("seed", [0, 1, 2021])
    def test_randbelow_draws_what_randrange_draws(self, seed):
        widths = [*range(1, 301), 4096, 65536]
        for lo in (0, 5, 4097):
            fast, slow = random.Random(seed), random.Random(seed)
            got = [lo + fast._randbelow(w) for w in widths for _ in range(3)]
            want = [slow.randrange(lo, lo + w) for w in widths for _ in range(3)]
            assert got == want
            assert fast.getstate() == slow.getstate()
        fast, slow = random.Random(seed), random.Random(seed)
        assert [fast._randbelow(w) for w in widths] == [slow.randrange(w) for w in widths]


class TestDrawStream:
    # Each SAMPLE event's leaf is randrange(lo, hi) over the drawn node's
    # span, drawn event by event from random.Random(seed): the engine's
    # draws are the public sampler's, whatever shortcut it takes.
    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("shape", ["random", "caterpillar", "median-split"])
    def test_trace_positions_are_randrange_draws(self, seed, shape):
        rng = random.Random(f"{shape}-{seed}")
        if shape == "random":
            tree = random_tree(rng, 61)
        elif shape == "caterpillar":
            tree = caterpillar(40)
        else:
            tree = build_median_split_tree(random_features([f"m{i}" for i in range(128)], 3, seed), seed)
        truth = random_weight_table(rng, tree.leaf_order, kind="dense")
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=12, seed=seed, max_basic_queries=3000))
        pos = {lab: i for i, lab in enumerate(tree.leaf_order)}
        events = [ev for ev in res.trace if ev[0] == "SAMPLE"]
        assert len(events) > 50
        public = random.Random(seed)
        for ev in events:
            lo, hi = tree.span(ev[1])
            assert pos[ev[2]] == public.randrange(lo, hi)


class TestMinimalRun:
    def test_root_splits_after_one_draw(self):
        tree, truth = quad_instance()
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=2, seed=0))
        assert res.pruning == (1, 4)
        assert res.ledger.basic_queries == 1
        assert res.ledger.node_queries == 1
        assert res.early_stop is None
        assert [ev[0] for ev in res.trace] == ["SAMPLE", "SPLIT"]
        assert res.trace[0][1] == 0 and res.trace[1][1] == 0
        assert res.node_weights == {1: 0.6, 4: 0.4}
        assert abs(fsum(induced_weighting(tree, res.pruning, res.node_weights)) - 1.0) <= 1e-12
        assert abs(fsum(res.w_p_refined) - 1.0) <= 1e-12

    def test_same_seed_reproduces_and_seeds_differ(self):
        tree, truth = spiked_quality_tree((16, 4, 2, 1))
        cfg = EngineConfig(k=4, seed=5)
        a = run_awp(tree, Oracle(tree, truth), cfg)
        b = run_awp(tree, Oracle(tree, truth), cfg)
        assert a.trace_lines() == b.trace_lines()
        assert a.pruning == b.pruning
        assert normalized_distance(a, truth) == normalized_distance(b, truth)
        c = run_awp(tree, Oracle(tree, truth), EngineConfig(k=4, seed=6))
        assert a.trace_lines() != c.trace_lines()


class TestReplayAudit:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(4, 24))
        truth = random_weight_table(rng, tree.leaf_order)
        k = rng.randint(2, min(6, tree.leaf_count_total))
        cfg = EngineConfig(k=k, seed=seed, max_basic_queries=4000)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        assert is_pruning(tree, res.pruning)
        replay_trace(tree, truth, res, cfg)

    @pytest.mark.parametrize("mode", ["hoeffding", "bernstein", "min"])
    def test_radius_modes(self, mode):
        tree, truth = spiked_quality_tree((16, 4, 2, 1))
        cfg = EngineConfig(k=4, seed=1, radius_mode=mode, max_basic_queries=20000)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        replay_trace(tree, truth, res, cfg)

    def test_strict_paper_mode(self):
        tree, truth = spiked_quality_tree((16, 4, 2, 1))
        cfg = EngineConfig(k=4, seed=2, strict_paper=True, max_basic_queries=20000)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        replay_trace(tree, truth, res, cfg)

    def test_full_expansion(self):
        tree = HierTree.from_nested((("a", "b"), ("c", "d")))
        truth = WeightTable({"a": 0.5, "b": 0.1, "c": 0.3, "d": 0.1})
        cfg = EngineConfig(k=4, seed=3)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        assert res.early_stop is None
        assert res.pruning == tuple(leaf_ids(tree))
        replay_trace(tree, truth, res, cfg)


def tie_heavy_instance(kind: str):
    """Small instances whose scores tie exactly and often."""
    if kind == "zero-mass":
        # The left half of the root is a zero-mass subtree: once drawn from,
        # its nodes score ucb = lcb = 0, level with the pruning leaves.
        tree = build_random_balanced_tree([f"z{i:02d}" for i in range(16)], seed=0)
        raw = [0.0] * 8 + [float(i % 3) for i in range(8)]
    elif kind == "contiguous":
        # Uniform bins on whole subtrees: zero discrepancy below them.
        tree = build_random_balanced_tree([f"b{i:02d}" for i in range(32)], seed=1)
        spec = TargetSpec("geometric-bins", ratio=4.0, bins=leaf_order_bins(tree, 4))
        return tree, make_geometric_target(tree, spec, 0)
    elif kind == "caterpillar":
        tree = caterpillar(12)
        raw = [float(1 + i % 4) for i in range(12)]
    else:
        # A caterpillar whose mass sits on three leaves.
        tree = caterpillar(14)
        raw = [1.0 if i in (2, 9, 13) else 0.0 for i in range(14)]
    total = fsum(raw)
    return tree, WeightTable({lab: x / total for lab, x in zip(tree.leaf_order, raw)})


class TestHandDrivenSelection:
    # Drive AwpRun by hand on an irregular schedule and check every pick
    # against the helpers' reference statements before it is made.
    @pytest.mark.parametrize("kind", ["zero-mass", "contiguous", "caterpillar", "sparse-caterpillar"])
    @pytest.mark.parametrize("beta", [1.5, 4.0, 50.0])
    @pytest.mark.parametrize("mode", ["hoeffding", "bernstein", "min"])
    def test_every_pick_matches_reference(self, kind, beta, mode):
        tree, truth = tie_heavy_instance(kind)
        cap = 400
        cfg = EngineConfig(k=tree.leaf_count_total // 2 + 1, beta=beta, radius_mode=mode, seed=3)
        run = AwpRun(tree, Oracle(tree, truth), cfg)
        split = run._split
        splits = []

        def checked_split(v):
            want, _ = first_qualifying_split(tree, run.stats, own_draws(tree, run.trace), run.pruning, cfg)
            assert v == want, f"split {v}, expected first qualifying {want}"
            split(v)
            splits.append(v)

        run._split = checked_split

        def busy():
            return len(run.pruning) < cfg.k and run.oracle.ledger.basic_queries < cap

        rng = random.Random(f"{kind}-{beta}-{mode}")
        checks = 2
        while busy():
            for _ in range(checks):
                done = len(splits)
                performed = run.split_check()
                assert performed == splits[done:]
                if len(run.pruning) < cfg.k:
                    assert first_qualifying_split(tree, run.stats, own_draws(tree, run.trace), run.pruning, cfg)[0] is None
            for _ in range(rng.choice((1, 2, 3, 5))):
                if not busy():
                    break
                want = argmax_ucb(tree, run.stats, own_draws(tree, run.trace), run.pruning, cfg)
                assert run.sample_step() == want
            checks = rng.choice((0, 1, 2))
        assert_open_nodes(run)
        assert splits and len(run.pruning) == len(splits) + 1


def assert_open_nodes(run):
    """The open nodes, the keys of ``drawn``, are the internal pruning
    nodes, and the ucb heap holds one entry for each of them."""
    want = [v for v in run.pruning if not run.tree.is_leaf(v)]
    assert sorted(run.drawn) == want
    assert sorted(v for _, v in run._ucb_heap) == want


class TestSplitNodeLeavesTheUcbHeap:
    # Instances found by search on which, just before a split check, a
    # node split earlier last scored a ucb above every open node's but the
    # top's.  Were its entry left in the ucb heap, it would sit at heap[1]
    # or heap[2] and be read as top2, hiding the split of the top node,
    # which qualifies against the true top2.
    @pytest.mark.parametrize("seed,beta,draws", [(1488, 2.0, 36), (3621, 1.5, 52)])
    def test_split_check_splits_the_top_node(self, seed, beta, draws):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(6, 20))
        truth = random_weight_table(rng, tree.leaf_order)
        cfg = EngineConfig(k=6, beta=beta, seed=seed)
        run = AwpRun(tree, Oracle(tree, truth), cfg)
        for _ in range(draws - 1):
            run.sample_step()
            run.split_check()
        run.sample_step()
        assert_open_nodes(run)
        want, _ = first_qualifying_split(tree, run.stats, own_draws(tree, run.trace), run.pruning, cfg)
        assert want == run._ucb_heap[0][1]
        assert run.split_check()[:1] == [want]


def live_ucb(run, v):
    """The ucb of open node v in the engine's heap."""
    return next(-key for key, u in run._ucb_heap if u == v)


class TestEveryRunEnds:
    KINDS = ["zero-mass", "contiguous", "caterpillar", "sparse-caterpillar"]

    @staticmethod
    def draw_until_covered(run):
        """Draw, without split checks, until the node drawn from is fully
        drawn; return that node."""
        for _ in range(10_000):
            v = run.sample_step()
            if len(run.drawn[v]) == run.tree.leaf_count(v):
                return v
        raise AssertionError("no node was fully drawn")

    @pytest.mark.parametrize("kind", KINDS)
    def test_fully_drawn_node_scores_its_exact_discrepancy(self, kind):
        # Once a node's own draws cover its leaves, ucb == lcb == its exact
        # discrepancy, bit for bit: first the root, drawn from alone, then
        # the first of its descendants to be covered.
        tree, truth = tie_heavy_instance(kind)
        disc = node_discrepancies(tree, truth)
        run = AwpRun(tree, Oracle(tree, truth), EngineConfig(k=tree.leaf_count_total, seed=1))
        v = self.draw_until_covered(run)
        assert v == tree.root_id
        assert run._lcb[v].hex() == live_ucb(run, v).hex() == disc[v].hex()
        assert run.split_check()[0] == v
        v = self.draw_until_covered(run)
        assert run._lcb[v].hex() == live_ucb(run, v).hex() == disc[v].hex()
        lo, hi = tree.span(v)
        assert run.drawn[v] == set(range(lo, hi))

    @pytest.mark.parametrize("kind", KINDS)
    def test_uncapped_full_expansion_ends(self, kind):
        # Under any finite radius a zero-discrepancy node keeps lcb < 0 and
        # never beats a rival at 0: only full coverage lets it split.
        tree, truth = tie_heavy_instance(kind)
        cfg = EngineConfig(k=tree.leaf_count_total, seed=0)
        run = AwpRun(tree, Oracle(tree, truth), cfg)
        for _ in range(100_000):
            if len(run.pruning) == cfg.k:
                break
            run.sample_step()
            run.split_check()
        res = run.result()
        assert res.early_stop is None and res.pruning == tuple(leaf_ids(tree))
        replay_trace(tree, truth, res, cfg)


class TestBookkeeping:
    @pytest.mark.parametrize("seed", range(5))
    def test_node_queries_track_pruning_size(self, seed):
        # Splitting is the only source of node queries, so any run ends with
        # exactly |P| - 1 of them, capped or not.
        rng = random.Random(100 + seed)
        tree = random_tree(rng, rng.randint(4, 20))
        truth = random_weight_table(rng, tree.leaf_order)
        # Capped or not, every run ends; the caps here make some stop early.
        cfg = EngineConfig(
            k=rng.randint(2, min(5, tree.leaf_count_total)),
            seed=seed,
            max_basic_queries=rng.choice([3, 50, 500]),
        )
        res = run_awp(tree, Oracle(tree, truth), cfg)
        assert res.ledger.node_queries == len(res.pruning) - 1

    @pytest.mark.parametrize("seed", range(8))
    def test_open_is_the_internal_pruning(self, seed):
        # Caterpillars put a leaf in the pruning at every split.
        rng = random.Random(200 + seed)
        n = rng.randint(4, 30)
        tree = caterpillar(n) if seed % 2 else random_tree(rng, n)
        truth = random_weight_table(rng, tree.leaf_order)
        cfg = EngineConfig(k=rng.randint(2, n), seed=seed, max_basic_queries=3000)
        run = AwpRun(tree, Oracle(tree, truth), cfg)
        assert_open_nodes(run)
        while len(run.pruning) < cfg.k:
            if run.oracle.ledger.basic_queries >= cfg.max_basic_queries:
                run.early_stop = "max-queries"
                break
            run.sample_step()
            assert_open_nodes(run)
            run.split_check()
            assert_open_nodes(run)
        assert len(run.pruning) > 1
        replay_trace(tree, truth, run.result(), cfg)

    def test_per_node_draw_counts_match_stats(self):
        # The trace is the only per-draw record: its SAMPLE events give each
        # node's draw count and, for an open node, its distinct positions.
        tree, truth = spiked_quality_tree((32, 6, 3, 2, 1))
        cfg = EngineConfig(k=5, seed=7)
        run = AwpRun(tree, Oracle(tree, truth), cfg)
        while len(run.pruning) < cfg.k:
            run.sample_step()
            run.split_check()
        res = run.result()
        counts = Counter(ev[1] for ev in res.trace if ev[0] == "SAMPLE")
        assert counts == {v: st.m for v, st in run.stats.items() if st.m}
        assert counts.total() == res.ledger.basic_queries
        own = own_draws(tree, res.trace)
        assert run.drawn == {v: set(own.get(v, ())) for v in run.pruning if not tree.is_leaf(v)}

    def test_node_masses_are_exact(self):
        tree, truth = spiked_quality_tree((16, 4, 2, 1))
        cfg = EngineConfig(k=4, seed=9)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        for v, mass in res.node_weights.items():
            lo, hi = tree.span(v)
            assert abs(mass - fsum(truth[lab] for lab in tree.leaf_order[lo:hi])) <= 1e-12
        assert abs(fsum(res.node_weights.values()) - 1.0) <= 1e-12


class TestQueryCap:
    def test_cap_stops_before_next_draw(self):
        tree, truth = spiked_quality_tree((16, 4, 2, 1))
        cfg = EngineConfig(k=4, seed=0, max_basic_queries=5)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        assert res.early_stop == "max-queries"
        assert res.ledger.basic_queries == 5
        assert len(res.pruning) < 4
        replay_trace(tree, truth, res, cfg)

    def test_zero_cap_returns_the_root(self):
        tree, truth = quad_instance()
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=2, max_basic_queries=0))
        assert res.early_stop == "max-queries"
        assert res.pruning == (0,)
        assert res.ledger.basic_queries == 0
        assert res.ledger.node_queries == 0
        assert induced_weighting(tree, res.pruning, res.node_weights)[tree.leaf_order.index("a")] == 0.25

    def test_large_cap_does_not_bind(self):
        tree, truth = quad_instance()
        capped = run_awp(tree, Oracle(tree, truth), EngineConfig(k=2, max_basic_queries=10**6))
        free = run_awp(tree, Oracle(tree, truth), EngineConfig(k=2))
        assert capped.early_stop is None
        assert capped.trace_lines() == free.trace_lines()


class TestOwnSpend:
    """A search reports and caps only the queries it made itself, however
    many the oracle served before or serves after."""

    CONFIG = EngineConfig(k=8, seed=1, max_basic_queries=300)

    @staticmethod
    def instance():
        labels = [f"x{i:06d}" for i in range(512)]
        tree = build_median_split_tree(random_features(labels, 8, seed=0), seed=0)
        truth = make_geometric_target(tree, TargetSpec("geometric-bins", n_bins=4, ratio=2.0), seed=0)
        return tree, truth

    def test_reused_oracle_repeats_capped_runs(self):
        tree, truth = self.instance()
        fresh = run_awp(tree, Oracle(tree, truth), self.CONFIG)
        assert fresh.early_stop == "max-queries"
        oracle = Oracle(tree, truth)
        for _ in range(2):
            res = run_awp(tree, oracle, self.CONFIG)
            assert res.pruning == fresh.pruning
            assert res.trace == fresh.trace
            assert res.ledger == fresh.ledger == QueryLedger(300, len(fresh.pruning) - 1)
            assert res.early_stop == "max-queries"

    def test_baseline_after_reused_runs_counts_its_own_draws(self):
        tree, truth = self.instance()
        oracle = Oracle(tree, truth)
        awp = [run_awp(tree, oracle, self.CONFIG) for _ in range(2)][-1]
        k = len(awp.pruning)
        for fn in (run_weight, run_uniform, run_empirical):
            res = fn(BaselineCell(tree, oracle, awp.ledger.basic_queries, 1), k)
            assert res.ledger == QueryLedger(300, k - 1)
            assert res.trace == fn(BaselineCell(tree, Oracle(tree, truth), 300, 1), k).trace

    def test_finished_ledger_is_detached(self):
        tree, truth = quad_instance()
        oracle = Oracle(tree, truth)
        oracle.query_leaf(0)
        oracle.query_node(1)
        res = run_awp(tree, oracle, EngineConfig(k=3, seed=2))
        spent = QueryLedger(
            sum(ev[0] == "SAMPLE" for ev in res.trace), sum(ev[0] == "SPLIT" for ev in res.trace)
        )
        assert res.ledger == spent
        oracle.query_leaf(0)
        oracle.query_node(1)
        assert res.ledger == spent
        assert oracle.ledger == QueryLedger(spent.basic_queries + 2, spent.node_queries + 2)


class TestRefinedWeighting:
    def test_pins_queried_and_spreads_residual(self):
        tree, _ = quad_instance()
        a, b, c, d = (tree.leaf_order.index(lab) for lab in "abcd")
        out = refine_with_queries(tree, (1, 4), {1: 0.6, 4: 0.4}, {a: 0.5})
        assert out[a] == 0.5
        assert abs(out[b] - 0.1) <= 1e-15
        assert out[c] == 0.2 and out[d] == 0.2

    def test_fully_queried_node_leaves_no_residual(self):
        tree, _ = quad_instance()
        a, b = tree.leaf_order.index("a"), tree.leaf_order.index("b")
        out = refine_with_queries(
            tree, (1, 4), {1: 0.6, 4: 0.4}, {a: 0.5, b: 0.1}
        )
        assert out[a] == 0.5 and out[b] == 0.1

    def test_runs_pin_every_queried_leaf(self):
        tree, truth = spiked_quality_tree((32, 6, 3, 2, 1))
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=5, seed=4))
        queried = {ev[2] for ev in res.trace if ev[0] == "SAMPLE"}
        assert queried
        for lab in queried:
            assert res.w_p_refined[tree.leaf_order.index(lab)] == truth[lab]
        truth_vals = [truth[lab] for lab in tree.leaf_order]
        assert normalized_distance(res, truth) == tv_distance(res.w_p_refined, truth_vals)


def few_valued_table(rng, labels) -> WeightTable:
    """Weights drawn from one to five levels, which may include 0.0 and
    -0.0, so that a node of ten leaves or more per level sums by value."""
    levels = [rng.choice((0.0, -0.0, rng.random(), rng.random())) for _ in range(rng.randint(1, 5))]
    raw = [rng.choice(levels) for _ in labels]
    if fsum(raw) <= 0.0:
        raw[rng.randrange(len(raw))] = 1.0
    total = fsum(raw)
    return WeightTable({lab: x / total for lab, x in zip(labels, raw)})


def scored_result(rng, tree, table) -> PruningResult:
    """A result over a random pruning with the table's node masses and
    random pins, built directly, so that it may hold what no search makes:
    zero and -0.0 masses, nodes with every leaf pinned, and pins that
    overshoot their node's mass, whose residual is clamped at zero."""
    pruning = random_pruning(rng, tree, rng.randint(0, tree.leaf_count_total - 1))
    oracle = Oracle(tree, table)
    vals = [table[lab] for lab in tree.leaf_order]
    share = rng.choice((0.0, 0.1, 0.5, 1.0))
    queried = {pos: vals[pos] for pos in range(tree.leaf_count_total) if rng.random() < share}
    node_weights = {}
    for v in pruning:
        lo, hi = tree.span(v)
        mass = oracle.query_node(v)
        case = rng.randrange(6)
        if case == 0:
            queried.update((pos, vals[pos]) for pos in range(lo, hi))
        elif case == 1:
            mass = rng.choice((0.0, -0.0))
        elif case == 2:
            mass *= 0.5  # pins may now overshoot it
        node_weights[v] = mass
    return PruningResult(
        pruning=pruning, node_weights=node_weights, ledger=QueryLedger(), trace=(), tree=tree, queried=queried
    )


class TestNormalizedDistance:
    """``normalized_distance`` builds no refined list, yet equals the
    label-keyed reference and ``tv_distance`` over ``w_p_refined`` bit for
    bit, on either path: by value when a node's span is few-valued, or
    leaf by leaf, whether the target is a table or a plain dict."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(("random", "caterpillar")),
        target=st.sampled_from(("few", "distinct")),
        truth_kind=st.sampled_from(("table", "dict", "other-table", "other-dict")),
    )
    def test_matches_the_reference(self, seed, shape, target, truth_kind):
        rng = random.Random(seed)
        n = rng.randint(1, 600)
        tree = random_tree(rng, n) if shape == "random" else caterpillar(n)
        make = few_valued_table if target == "few" else (lambda r, labels: random_weight_table(r, labels))
        table = make(rng, tree.leaf_order)
        results = [scored_result(rng, tree, table) for _ in range(3)]
        # Another table, so that pins are not the truth's.
        truth = make(rng, tree.leaf_order) if truth_kind.startswith("other") else table
        if truth_kind.endswith("dict"):
            truth = dict(truth)
        # Interleaved with the results' own table, so that no truth is
        # scored with the value counts of another.
        for res in results + results:
            for target in (truth, table):
                vals = [target[lab] for lab in tree.leaf_order]
                got = normalized_distance(res, target)
                assert got.hex() == reference_normalized_distance(res, target).hex()
                assert got.hex() == tv_distance(res.w_p_refined, vals).hex()

    def test_few_valued_nodes_are_counted_once_per_instance(self, monkeypatch):
        tree = build_median_split_tree(random_features([f"x{i}" for i in range(4096)], 8, 0), 0)
        table = make_geometric_target(tree, TargetSpec("geometric-bins", n_bins=10, ratio=4.0), 0)
        oracle = Oracle(tree, table)
        results = [run_awp(tree, oracle, EngineConfig(k=20, seed=s, max_basic_queries=1500)) for s in range(3)]
        calls = []
        original = tree_mod._indexed_counts
        monkeypatch.setattr(tree_mod, "_indexed_counts", lambda *args: calls.append(1) or original(*args))
        first = [normalized_distance(res, table) for res in results]
        counted = len(calls)
        assert [normalized_distance(res, table) for res in results] == first
        assert len(calls) == counted  # the second pass counts nothing
        assert table._stats.tree is tree
        memo = table._stats.counts
        # The long spans were counted from the instance's value index.
        assert counted == sum(counts is not None for counts in memo.values()) > 0
        assert table._stats.index is not None and len(table._stats.index) == 10
        for res, got in zip(results, first):
            assert got.hex() == reference_normalized_distance(res, table).hex()

    def test_the_readme_sweep_counts_exactly_the_long_spans_from_the_index(self):
        # After a scored sweep on the README instance (4,096 leaves, 10
        # distinct values), each memo entry holds its span's counts exactly
        # when the span has at least 10 leaves per distinct value, and None
        # otherwise.
        tree, _ = make_tree_source("median-split:n=4096,dim=8", 0)
        table = make_target_source("geometric:bins=10,ratio=4", tree, 0)
        oracle = Oracle(tree, table)
        for k in (5, 10, 20, 40):
            for seed in range(2):
                awp = run_awp(tree, oracle, EngineConfig(k=k, seed=seed, max_basic_queries=2000))
                cell = BaselineCell(tree, oracle, awp.ledger.basic_queries, seed)
                for res in (awp, *(run(cell, len(awp.pruning)) for run in (run_weight, run_uniform, run_empirical))):
                    normalized_distance(res, table)
        stats = table._stats
        g = len(stats.index)
        assert g == 10
        long_spans = 0
        for v, counts in stats.counts.items():
            lo, hi = tree.span(v)
            if hi - lo >= 10 * g:
                assert counts == Counter(stats.vals[lo:hi]), v
                long_spans += 1
            else:
                assert counts is None, v
        assert 0 < long_spans < len(stats.counts)

    def test_the_index_counts_spans_from_exactly_ten_leaves_per_value(self):
        # A caterpillar's prunings put spans of every size in the memo: with
        # two distinct values, spans of 20 leaves or more are counted from
        # the index and shorter ones are walked, both scoring exactly.
        rng = random.Random(3)
        tree = caterpillar(40)
        table = WeightTable({lab: (1.0 if i % 3 else 0.0) / 26 for i, lab in enumerate(tree.leaf_order)})
        for _ in range(150):
            res = scored_result(rng, tree, table)
            assert normalized_distance(res, table).hex() == reference_normalized_distance(res, table).hex()
        stats = table._stats
        assert len(stats.index) == 2
        sizes = {}
        for v, counts in stats.counts.items():
            lo, hi = tree.span(v)
            sizes[hi - lo] = counts is not None
            assert counts == (Counter(stats.vals[lo:hi]) if hi - lo >= 20 else None), v
        assert sizes[19] is False and sizes[20] is True

    @pytest.mark.parametrize("kind", ("zeros-and-subnormals", "single-valued"))
    def test_spans_counted_from_the_index_score_like_the_reference(self, kind):
        # A 1,024-leaf instance with at most four distinct values: every
        # pruning node of 40 leaves or more is counted from its index.
        # The first table holds 0.0, -0.0 and two subnormals beside 256
        # leaves of 2**-8; the second is uniform.
        rng = random.Random(kind)
        tree = build_median_split_tree(random_features([f"x{i}" for i in range(1024)], 4, 0), 0)
        if kind == "single-valued":
            table = WeightTable({lab: 2.0**-10 for lab in tree.leaf_order})
        else:
            heavy = set(rng.sample(range(1024), 256))
            table = WeightTable(
                {
                    lab: 2.0**-8 if i in heavy else rng.choice((0.0, -0.0, 5e-324, 2.0**-1070))
                    for i, lab in enumerate(tree.leaf_order)
                }
            )
        vals = [table[lab] for lab in tree.leaf_order]
        for _ in range(8):
            res = scored_result(rng, tree, table)
            got = normalized_distance(res, table)
            assert got.hex() == reference_normalized_distance(res, table).hex()
            assert got.hex() == tv_distance(res.w_p_refined, vals).hex()
        index = table._stats.index
        # 0.0 and -0.0 compare equal, so they share one entry.
        assert index is not None and len(index) == (1 if kind == "single-valued" else 4)
        assert any(hi - lo >= 10 * len(index) for lo, hi in map(tree.span, table._stats.counts))

    def test_a_table_used_with_two_trees_rebinds_its_entry(self):
        labels = [f"x{i}" for i in range(600)]
        trees = (build_median_split_tree(random_features(labels, 4, 0), 0), build_random_balanced_tree(labels, 1))
        table = make_geometric_target(trees[0], TargetSpec("geometric-bins", n_bins=4, ratio=4.0), 0)
        results = {}
        for tree in trees:
            oracle = Oracle(tree, table)
            results[tree] = [run_awp(tree, oracle, EngineConfig(k=8, seed=s, max_basic_queries=300)) for s in range(2)]
        for _ in range(2):
            for tree in trees:
                vals = [table[lab] for lab in tree.leaf_order]
                for res in results[tree]:
                    got = normalized_distance(res, table)
                    assert table._stats.tree is tree
                    assert got.hex() == reference_normalized_distance(res, table).hex()
                    assert got.hex() == tv_distance(res.w_p_refined, vals).hex()
                assert any(table._stats.counts.values())  # counted by value
                want = reference_node_discrepancies(tree, table)
                assert [x.hex() for x in node_discrepancies(tree, table)] == [x.hex() for x in want]

    def test_the_table_and_its_leaf_values_score_alike(self):
        tree = build_median_split_tree(random_features([f"x{i}" for i in range(1024)], 4, 0), 0)
        table = make_geometric_target(tree, TargetSpec("geometric-bins", n_bins=10, ratio=4.0), 0)
        oracle = Oracle(tree, table)
        for seed in range(2):
            awp = run_awp(tree, oracle, EngineConfig(k=12, seed=seed, max_basic_queries=600))
            k, basic = len(awp.pruning), awp.ledger.basic_queries
            runners = (run_weight, run_uniform, run_empirical)
            baselines = (run(BaselineCell(tree, oracle, basic, seed), k) for run in runners)
            for res in (awp, *baselines):
                # A plain dict of the same values gets a fresh entry each call.
                assert normalized_distance(res, table).hex() == normalized_distance(res, dict(table)).hex()
        assert any(table._stats.counts.values())  # the table took the grouped path

    @pytest.mark.parametrize(
        "other, message",
        [
            ({"a": 0.5, "b": 0.3, "c": 0.2}, "missing 1, extra 0"),
            ({"a": 0.5, "b": 0.1, "c": 0.2, "e": 0.2}, "missing 1, extra 1"),
            ({"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2, "e": 0.0}, "missing 0, extra 1"),
        ],
    )
    def test_a_table_over_another_leaf_set_raises(self, other, message):
        tree, truth = quad_instance()
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=2, seed=0))
        with pytest.raises(ValueError, match=rf"does not match the tree's leaf set \({message}\)"):
            normalized_distance(res, WeightTable(other))

    def test_lengths_must_match(self):
        tree, truth = quad_instance()
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=2, seed=0))
        with pytest.raises(ValueError, match=r"does not match the tree's leaf set \(missing 1, extra 0\)"):
            normalized_distance(res, {"a": 0.25, "b": 0.25, "c": 0.25})

    @pytest.mark.parametrize("bad", (inf, float("nan"), 1e308))
    def test_a_non_finite_node_mass_scores_as_tv_distance(self, bad):
        tree = build_median_split_tree(random_features([f"x{i}" for i in range(512)], 4, 0), 0)
        table = make_geometric_target(tree, TargetSpec("geometric-bins", n_bins=4, ratio=4.0), 0)
        oracle = Oracle(tree, table)
        res = run_awp(tree, oracle, EngineConfig(k=3, seed=0, max_basic_queries=40))
        big = max(res.pruning, key=tree.leaf_count)
        res = replace(res, node_weights={**res.node_weights, big: bad})
        want = tv_distance(res.w_p_refined, [table[lab] for lab in tree.leaf_order])
        got = normalized_distance(res, table)
        assert got.hex() == want.hex()
        assert table._stats.counts[big] is not None  # the node was counted by value


class TestExactSumCheck:
    """``finish`` checks the refined weighting's sum without the list: it
    raises exactly when ``fsum`` over the list is off by more than
    ``MASS_TOL``, with that sum in the message."""

    # Mass shifts on both sides of the tolerance, a few ulps of 1 apart,
    # and far from it.
    SHIFTS = tuple(
        sign * (MASS_TOL + j * 2.0**-52) for sign in (1.0, -1.0) for j in (-3, -1, 0, 1, 3)
    ) + (0.0, 1e-12, -1e-12, 3e-9, -0.5)

    @pytest.mark.parametrize("seed", range(12))
    def test_raises_exactly_when_fsum_is_off(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(2, 300))
        table = (few_valued_table if seed % 2 else random_weight_table)(rng, tree.leaf_order)
        oracle = Oracle(tree, table)
        raised = kept = 0
        for shift in self.SHIFTS * 3:
            search = PruningSearch(tree, oracle)
            for _ in range(rng.randint(0, 12)):
                internal = [v for v in search.pruning if not tree.is_leaf(v)]
                if internal:
                    search.split(rng.choice(internal))
            for _ in range(rng.randint(0, 40)):
                pos = rng.randrange(tree.leaf_count_total)
                search.queried[pos] = oracle.query_leaf(pos)
            v = rng.choice(search.pruning)
            search.mass[v] += shift
            if rng.random() < 0.3 and search.queried:
                search.queried[rng.choice(list(search.queried))] += shift
            pruning = tuple(search.pruning)
            refined = refine_with_queries(tree, pruning, {u: search.mass[u] for u in pruning}, search.queried)
            total = fsum(refined)
            if abs(total - 1.0) <= MASS_TOL:
                res = search.finish()
                assert res.w_p_refined == refined
                kept += 1
            else:
                with pytest.raises(InvariantError) as exc:
                    search.finish()
                assert str(exc.value) == f"refined weights sum to {total!r}, expected 1 within {MASS_TOL}"
                raised += 1
        assert raised and kept


def edge_table(rng, labels, sign: float) -> WeightTable:
    """A random table moved as far from a total of 1, on the side of
    ``sign``, as ``WeightTable`` admits: one leaf gains or loses about
    ``WEIGHT_SUM_TOL``."""
    table = random_weight_table(rng, labels)
    raw = dict(table)
    # A gain may go to any leaf, one of weight 0.0 included; a loss is
    # taken from the heaviest.
    lab = rng.choice(labels) if sign > 0 else max(raw, key=raw.get)
    base = raw[lab]
    shift = WEIGHT_SUM_TOL - sign * (fsum(raw.values()) - 1.0)
    while True:
        raw[lab] = base + sign * shift
        try:
            return WeightTable(raw)
        except ValueError:
            shift -= 2.0**-52  # one ulp of 1


class TestEdgeTables:
    """Every table that ``WeightTable`` admits runs with every algorithm
    and is scored, although its total may be off 1, the root's mass, by
    up to ``WEIGHT_SUM_TOL``: a leaf may then weigh more than its node's
    mass, a left mass come out below zero and a refined sum miss 1 by
    more than ``WEIGHT_SUM_TOL``, all within ``MASS_TOL``."""

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_every_algorithm_runs_and_scores(self, sign):
        rng = random.Random(29)
        for i in range(80):
            tree = random_tree(rng, rng.randint(2, 80))
            table = edge_table(rng, tree.leaf_order, sign)
            oracle = Oracle(tree, table)
            k = rng.randint(2, tree.leaf_count_total)
            awp = run_awp(tree, oracle, EngineConfig(k=k, seed=i, max_basic_queries=300))
            k, basic = len(awp.pruning), awp.ledger.basic_queries
            vals = [table[lab] for lab in tree.leaf_order]
            baselines = (run(BaselineCell(tree, oracle, basic, i), k) for run in (run_weight, run_uniform, run_empirical))
            for res in (awp, *baselines):
                assert normalized_distance(res, table).hex() == tv_distance(res.w_p_refined, vals).hex()


class TestLazyRefinedList:
    def test_built_on_first_access_and_equal_to_the_reference(self):
        rng = random.Random(5)
        tree = random_tree(rng, 200)
        table = random_weight_table(rng, tree.leaf_order)
        oracle = Oracle(tree, table)
        awp = run_awp(tree, oracle, EngineConfig(k=6, seed=1, max_basic_queries=300))
        k, basic = len(awp.pruning), awp.ledger.basic_queries
        baselines = (run(BaselineCell(tree, oracle, basic, 1), k) for run in (run_weight, run_uniform, run_empirical))
        for res in (awp, *baselines):
            # finish built the node shares, and nothing built the list.
            assert "_node_shares" in vars(res) and "w_p_refined" not in vars(res)
            refined = res.w_p_refined
            assert res.w_p_refined is refined
            labels = {tree.leaf_order[pos]: x for pos, x in res.queried.items()}
            ref = reference_refine_with_queries(tree, res.pruning, res.node_weights, labels)
            assert [x.hex() for x in refined] == [ref[lab].hex() for lab in tree.leaf_order]

    def test_the_shares_are_derived_once_per_result(self, monkeypatch):
        calls = []
        original = tree_mod._refined_shares

        def counted(*args):
            calls.append(1)
            return original(*args)

        # Both bindings: the engine's, and tree.py's, which refine_with_queries reads.
        monkeypatch.setattr(engine_mod, "_refined_shares", counted)
        monkeypatch.setattr(tree_mod, "_refined_shares", counted)
        rng = random.Random(6)
        tree = random_tree(rng, 200)
        table = random_weight_table(rng, tree.leaf_order)
        oracle = Oracle(tree, table)
        awp = run_awp(tree, oracle, EngineConfig(k=6, seed=2, max_basic_queries=300))
        cell = BaselineCell(tree, oracle, awp.ledger.basic_queries, 2)
        results = [awp] + [run(cell, len(awp.pruning)) for run in (run_weight, run_uniform, run_empirical)]
        # finish derived each result's shares for its weight sum check.
        assert len(calls) == len(results)
        for res in results:
            for _ in range(2):
                score = normalized_distance(res, table)
                refined = res.w_p_refined
            assert score == tv_distance(refined, [table[lab] for lab in tree.leaf_order])
        assert len(calls) == len(results)

    def test_a_sweep_never_builds_it(self, monkeypatch):
        calls = []
        original = engine_mod._spread_shares
        monkeypatch.setattr(engine_mod, "_spread_shares", lambda *args: calls.append(1) or original(*args))
        config = ExperimentConfig(
            tree_source="median-split:n=512,dim=4", target_source="geometric:bins=10,ratio=4",
            k_values=(4, 8), runs=2, max_basic_queries=300,
        )
        out = run_experiment(config)
        assert out.details and not calls

    def test_a_result_keeps_its_pins_when_the_run_goes_on(self):
        tree = random_tree(random.Random(6), 64)
        run = AwpRun(tree, Oracle(tree, random_weight_table(random.Random(7), tree.leaf_order)), EngineConfig(k=6))
        for _ in range(20):
            run.sample_step()
        res = run.result()
        pins = dict(res.queried)
        for _ in range(20):
            run.sample_step()
        assert res.queried == pins and len(run.queried) > len(pins)


class TestTraceOutput:
    def test_lines_and_file_round_trip(self, tmp_path):
        tree, truth = quad_instance()
        res = run_awp(tree, Oracle(tree, truth), EngineConfig(k=3, seed=1))
        lines = res.trace_lines()
        for line, ev in zip(lines, res.trace):
            parts = line.split()
            assert parts[0] == ev[0]
            assert int(parts[1]) == ev[1]
            assert float(parts[-1]) == ev[-1]
        path = tmp_path / "trace.txt"
        path.write_text(format_traces(ExperimentOutput(traces=[("awp", 3, 0, "\n".join(lines))])))
        assert path.read_text().splitlines() == ["# awp k=3 run=0"] + lines


class TestConcentrationEvent:
    def test_violation_frequency_stays_near_delta(self):
        # Every (node, draw-count) pair in a run carries a radius meant to
        # cover the true discrepancy simultaneously with probability 1−delta.
        rng = random.Random(0)
        tree = random_tree(rng, 256)
        truth = random_weight_table(rng, tree.leaf_order, kind="dense")
        disc = node_discrepancies(tree, truth)
        delta = 0.05
        runs = 200
        violations = 0
        for seed in range(runs):
            cfg = EngineConfig(k=8, seed=seed, delta=delta, max_basic_queries=600)
            res = run_awp(tree, Oracle(tree, truth), cfg)
            stats = {0: NodeStats(0, 1.0, tree.leaf_count_total)}
            bad = False
            for ev in res.trace:
                if ev[0] == "SPLIT":
                    v = ev[1]
                    left, right = tree.children(v)
                    w_l = max(stats[v].w_star - ev[2], 0.0)
                    stats[left] = NodeStats(left, w_l, tree.leaf_count(left))
                    stats[right] = NodeStats(right, ev[2], tree.leaf_count(right))
                    continue
                v = ev[1]
                stats[v].push(ev[3])
                est = estimate_discrepancy(stats[v])
                rad = confidence_radius(stats[v], cfg.k, delta, cfg.radius_mode)
                if not isinf(rad) and abs(est - disc[v]) > rad:
                    bad = True
            violations += bad
        assert violations / runs <= delta + 0.03
