"""Adaptive engine: selection, splitting, bookkeeping, and the
concentration event, all audited through recorded traces."""

import random
from math import fsum, inf, isinf

import pytest

from awpkit.engine import (
    AwpRun,
    EngineConfig,
    refine_with_queries,
    normalized_distance,
    run_awp,
)
from awpkit.cli import ExperimentOutput, format_traces
from awpkit.estimator import NodeStats, confidence_radius, estimate_discrepancy
from awpkit.oracle import (
    Oracle,
    TargetSpec,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
)
from awpkit.tree import (
    HierTree,
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
    random_tree,
    random_weight_table,
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
            EngineConfig(k=2, radius_mode="other")
        with pytest.raises(ValueError):
            EngineConfig(k=2, max_basic_queries=-1)

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
        truth_vals = [truth[lab] for lab in tree.leaf_order]
        assert normalized_distance(a, truth_vals) == normalized_distance(b, truth_vals)
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
        # Every internal node needs positive discrepancy here: once a node's
        # rivals are all leaves the criterion compares against 0, which a
        # zero-discrepancy node can never beat.
        tree = HierTree.from_nested((("a", "b"), ("c", "d")))
        truth = WeightTable({"a": 0.5, "b": 0.1, "c": 0.3, "d": 0.1})
        cfg = EngineConfig(k=4, seed=3, max_basic_queries=50000)
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
            want, _ = first_qualifying_split(tree, run.stats, run.pruning, cfg)
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
                    assert first_qualifying_split(tree, run.stats, run.pruning, cfg)[0] is None
            for _ in range(rng.choice((1, 2, 3, 5))):
                if not busy():
                    break
                want = argmax_ucb(tree, run.stats, run.pruning, cfg)
                assert run.sample_step() == want
            checks = rng.choice((0, 1, 2))
        assert run.open == [v for v in run.pruning if not tree.is_leaf(v)]
        assert splits and len(run.pruning) == len(splits) + 1


class TestBookkeeping:
    @pytest.mark.parametrize("seed", range(5))
    def test_node_queries_track_pruning_size(self, seed):
        # Splitting is the only source of node queries, so any run ends with
        # exactly |P| - 1 of them, capped or not.
        rng = random.Random(100 + seed)
        tree = random_tree(rng, rng.randint(4, 20))
        truth = random_weight_table(rng, tree.leaf_order)
        # Random targets can have zero-discrepancy regions where no split
        # ever qualifies, so a finite cap keeps every run bounded.
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

        def check():
            assert run.open == [v for v in run.pruning if not tree.is_leaf(v)]

        check()
        while len(run.pruning) < cfg.k:
            if run.oracle.ledger.basic_queries >= cfg.max_basic_queries:
                run.early_stop = "max-queries"
                break
            run.sample_step()
            check()
            run.split_check()
            check()
        assert len(run.pruning) > 1
        replay_trace(tree, truth, run.result(), cfg)

    def test_per_node_draw_counts_match_stats(self):
        tree, truth = spiked_quality_tree((32, 6, 3, 2, 1))
        cfg = EngineConfig(k=5, seed=7)
        res = run_awp(tree, Oracle(tree, truth), cfg)
        for v, count in res.ledger.per_node_basic.items():
            assert res.stats[v].m == count
        assert sum(res.ledger.per_node_basic.values()) == res.ledger.basic_queries

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
        assert normalized_distance(res, truth_vals) == tv_distance(res.w_p_refined, truth_vals)


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
        path.write_text(format_traces(ExperimentOutput(traces=[("awp", 3, 0, lines)])))
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
