"""Non-adaptive baselines: budget parity, split selection, scoring, and
trace replay audits.

The scored baselines are replayed step by step from their traces with an
independent numpy position sort and span lookup, scoring each node with the
package's score functions, so every split choice, weight, and retained
subsample is checked exactly.  The stdlib scores and leaf spreading are
checked against kept numpy and induced-weighting references.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import insort
from math import fsum, isclose

import numpy as np
import pytest

from awpkit.baselines import (
    Budget,
    empirical_score,
    match_budget,
    run_empirical,
    run_uniform,
    run_weight,
    uniform_score,
)
from awpkit.engine import EngineConfig, run_awp
from awpkit.estimator import NodeStats, estimate_discrepancy
from awpkit.oracle import Oracle
from awpkit.tree import (
    HierTree,
    WeightTable,
    induced_weighting,
    refine_with_queries,
    tv_distance,
)

from helpers import (
    caterpillar,
    leaf_ids,
    leaves_under,
    random_pruning,
    random_tree,
    random_weight_table,
    replay_trace,
)

# Preorder ids for the quad tree: 0 root, 1=(a,b), 2=a, 3=b, 4=(c,d), 5=c, 6=d.
QUAD = HierTree.from_nested((("a", "b"), ("c", "d")))


def quad_instance(a, b, c, d):
    table = WeightTable({"a": a, "b": b, "c": c, "d": d})
    return QUAD, table


class TestBudget:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1, 0)
        with pytest.raises(ValueError):
            Budget(0, -2)

    def test_frozen(self):
        budget = Budget(3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.basic = 5

    def test_match_budget_reads_ledger(self):
        tree, table = quad_instance(0.4, 0.2, 0.3, 0.1)
        result = run_weight(tree, Oracle(tree, table), 3, Budget(5, 2), seed=7)
        assert match_budget(result) == Budget(5, 2)


class TestScores:
    def test_empty_subsample_rejected(self):
        with pytest.raises(ValueError):
            uniform_score(0.5, 4, [])
        with pytest.raises(ValueError):
            empirical_score(0.5, 4, [])

    def test_hand_values(self):
        # avg = 0.125; deviations 0.175 and 0.075; draw sum 0.35.
        assert isclose(uniform_score(0.5, 4, [0.3, 0.05]), 0.3, abs_tol=1e-12)
        assert isclose(empirical_score(0.5, 4, [0.3, 0.05]), 0.5, abs_tol=1e-12)

    def test_uniform_score_matches_streaming_estimator(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 40)
            w_star = rng.random() + 0.01
            draws = [rng.random() * w_star for _ in range(rng.randint(1, 30))]
            stats = NodeStats(0, w_star, n)
            for z in draws:
                stats.push(z)
            assert isclose(
                uniform_score(w_star, n, draws),
                estimate_discrepancy(stats),
                rel_tol=1e-9,
                abs_tol=1e-12,
            )

    def test_permutation_invariant(self):
        rng = random.Random(5)
        draws = [rng.random() * 0.3 for _ in range(17)]
        shuffled = list(draws)
        rng.shuffle(shuffled)
        assert isclose(uniform_score(0.3, 9, draws), uniform_score(0.3, 9, shuffled), abs_tol=1e-12)
        assert isclose(empirical_score(0.3, 9, draws), empirical_score(0.3, 9, shuffled), abs_tol=1e-12)

    def test_missed_heavy_leaf_scores(self):
        # A unit-mass leaf among 100 with a 50-draw sample that missed it:
        # every draw is 0, the node average is 0.01.  The plug-in score sees
        # only the small deviations and lands at exactly 1.0, while the
        # unbiased score pays for the missing draw mass and lands at 2.0.
        zeros = np.zeros(50)
        assert isclose(empirical_score(1.0, 100, zeros), 1.0, abs_tol=1e-12)
        assert isclose(uniform_score(1.0, 100, zeros), 2.0, abs_tol=1e-12)

    def test_uniform_score_range(self):
        # The unbiased estimate is intrinsically within [0, 2 * w_star].
        rng = random.Random(99)
        for _ in range(200):
            w_star = rng.random() + 0.01
            n = rng.randint(1, 50)
            draws = [rng.choice((0.0, w_star, rng.random() * w_star)) for _ in range(rng.randint(1, 20))]
            s = uniform_score(w_star, n, draws)
            assert -1e-12 <= s <= 2.0 * w_star + 1e-12


def np_uniform_score(w_star, n_leaves, values):
    """Reference unbiased score, summed with numpy reductions."""
    arr = np.asarray(values, dtype=float)
    avg = w_star / n_leaves
    return w_star + (n_leaves / arr.size) * (float(np.abs(arr - avg).sum()) - float(arr.sum()))


def np_empirical_score(w_star, n_leaves, values):
    """Reference plug-in score, summed with numpy reductions."""
    arr = np.asarray(values, dtype=float)
    avg = w_star / n_leaves
    return (n_leaves / arr.size) * float(np.abs(avg - arr).sum())


def random_subsample(rng, w_star):
    m = rng.randint(1, 300)
    kind = rng.choice(("uniform", "zeros", "spiked"))
    if kind == "zeros":
        return [0.0] * m
    if kind == "spiked":
        return [w_star if rng.random() < 0.05 else rng.random() * w_star * 1e-3 for _ in range(m)]
    return [rng.random() * w_star for _ in range(m)]


class TestStdlibPaths:
    def test_scores_match_numpy_reference(self):
        rng = random.Random(53)
        for _ in range(400):
            w_star = rng.choice((1.0, rng.random() + 1e-6))
            n = rng.randint(1, 1000)
            vals = random_subsample(rng, w_star)
            m = len(vals)
            assert isclose(empirical_score(w_star, n, vals), np_empirical_score(w_star, n, vals), rel_tol=1e-12)
            # The unbiased score subtracts two sums of similar size, so the
            # tolerance is relative to the size of its terms.
            avg = w_star / n
            scale = w_star + (n / m) * fsum(abs(x - avg) + x for x in vals)
            got = uniform_score(w_star, n, vals)
            assert isclose(got, np_uniform_score(w_star, n, vals), rel_tol=1e-12, abs_tol=1e-12 * scale)

    def test_induced_weighting_is_refinement_without_queries(self):
        rng = random.Random(59)
        trees = [caterpillar(n) for n in (2, 3, 17, 120)]
        trees += [random_tree(rng, rng.randint(2, 60)) for _ in range(12)]
        for tree in trees:
            for _ in range(5):
                pruning = random_pruning(rng, tree)
                raw = [rng.choice((0.0, rng.random())) for _ in pruning]
                raw[0] += 1e-3
                total = fsum(raw)
                masses = {v: x / total for v, x in zip(pruning, raw)}
                induced = induced_weighting(tree, pruning, masses)
                refined = refine_with_queries(tree, pruning, masses, {})
                assert induced == refined


class TestRunArgs:
    def test_foreign_oracle_rejected(self):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        other = HierTree.from_nested((("a", "b"), ("c", "d")))
        oracle = Oracle(other, table)
        for fn in (run_weight, run_uniform, run_empirical):
            with pytest.raises(ValueError, match="different tree"):
                fn(tree, oracle, 2, Budget(0, 1), seed=0)

    def test_k_out_of_range(self):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        for bad_k in (0, 5):
            with pytest.raises(ValueError, match="k must be"):
                run_weight(tree, Oracle(tree, table), bad_k, Budget(0, 10), seed=0)

    def test_node_budget_must_cover_splits(self):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError, match="node budget"):
            run_uniform(tree, Oracle(tree, table), 3, Budget(4, 1), seed=0)


class TestRunWeight:
    def test_quad_split_order_and_outputs(self):
        tree, table = quad_instance(0.4, 0.2, 0.3, 0.1)
        budget = Budget(5, 2)
        result = run_weight(tree, Oracle(tree, table), 3, budget, seed=11)

        # Root first, then the heavier child (mass 0.6 on the left).
        assert result.pruning == (2, 3, 4)
        w_right = fsum([0.3, 0.1])
        w_b = 0.2
        assert result.node_weights == {2: (1.0 - w_right) - w_b, 3: w_b, 4: w_right}

        splits = [t for t in result.trace if t[0] == "SPLIT"]
        samples = [t for t in result.trace if t[0] == "SAMPLE"]
        # All splits precede the draws, which exist only to refine the output.
        assert list(result.trace) == splits + samples
        assert [(t[1], t[2]) for t in splits] == [(0, w_right), (1, w_b)]
        assert len(samples) == 5
        assert all(t[1] == tree.root_id for t in samples)
        for _, _, label, value in samples:
            assert value == table[label]

        assert result.ledger.basic_queries == 5
        assert result.ledger.node_queries == 2
        assert result.early_stop is None

    def test_mass_tie_prefers_smaller_id(self):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        result = run_weight(tree, Oracle(tree, table), 3, Budget(0, 2), seed=0)
        # Children tie at 0.5 after the root split; node 1 wins the tie.
        assert result.pruning == (2, 3, 4)

    def test_choices_ignore_draws(self):
        tree, table = quad_instance(0.1, 0.2, 0.3, 0.4)
        prunings = set()
        for seed in range(5):
            result = run_weight(tree, Oracle(tree, table), 3, Budget(20, 2), seed=seed)
            prunings.add(result.pruning)
        assert len(prunings) == 1

    def test_queried_leaves_pinned_in_refinement(self):
        rng = random.Random(3)
        tree = random_tree(rng, 12)
        table = random_weight_table(rng, tree.leaf_order, kind="dense")
        result = run_weight(tree, Oracle(tree, table), 4, Budget(15, 3), seed=8)
        queried = {t[2] for t in result.trace if t[0] == "SAMPLE"}
        assert queried
        for label in queried:
            assert result.w_p_refined[tree.leaf_order.index(label)] == table[label]

    def test_k1_spends_basic_budget_only(self):
        tree, table = quad_instance(0.4, 0.2, 0.3, 0.1)
        result = run_weight(tree, Oracle(tree, table), 1, Budget(6, 0), seed=2)
        assert result.pruning == (tree.root_id,)
        assert result.ledger.basic_queries == 6
        assert result.ledger.node_queries == 0
        assert [t[:2] for t in result.trace] == [("SAMPLE", tree.root_id)] * 6

    def test_replay_split_sequence(self):
        # The k-1 splits must each hit the heaviest internal pruning node,
        # with child masses derived by exact subtraction from node queries.
        for seed in range(8):
            rng = random.Random(1000 + seed)
            tree = random_tree(rng, rng.randint(6, 28))
            table = random_weight_table(rng, tree.leaf_order)
            k = rng.randint(2, min(6, tree.leaf_count_total))
            budget = Budget(rng.randint(0, 25), k - 1)
            result = run_weight(tree, Oracle(tree, table), k, budget, seed=seed)

            splits = [t for t in result.trace if t[0] == "SPLIT"]
            assert len(splits) == k - 1
            pruning = [tree.root_id]
            weights = {tree.root_id: 1.0}
            for _, v, w_r in splits:
                target = -1
                best = -1.0
                for u in pruning:
                    if tree.is_leaf(u):
                        continue
                    if weights[u] > best:
                        best = weights[u]
                        target = u
                assert v == target
                assert w_r == fsum(table[lab] for lab in leaves_under(tree, tree.right(v)))
                w_l = weights[v] - w_r
                if w_l < 0.0:
                    assert w_l >= -1e-12
                    w_l = 0.0
                pruning.remove(v)
                insort(pruning, tree.left(v))
                insort(pruning, tree.right(v))
                weights[tree.left(v)] = w_l
                weights[tree.right(v)] = w_r
            assert result.pruning == tuple(pruning)
            assert result.node_weights == {u: weights[u] for u in pruning}


def replay_scored(tree, table, result, k, budget, score_fn):
    """Re-derive every selection a scored baseline made from its trace.

    Draws are position-sorted with a stable numpy argsort and node
    subsamples are span slices, which select the same values in the same
    order as the implementation; scores come from the package's own score
    functions, so all comparisons are exact.
    """
    samples = [t for t in result.trace if t[0] == "SAMPLE"]
    splits = [t for t in result.trace if t[0] == "SPLIT"]
    assert list(result.trace) == samples + splits
    assert len(samples) == budget.basic
    assert len(splits) == k - 1

    positions = np.empty(len(samples), dtype=np.int64)
    values = np.empty(len(samples), dtype=float)
    for i, (_, attributed, label, value) in enumerate(samples):
        assert attributed == tree.root_id
        assert value == table[label]
        positions[i] = tree.leaf_order.index(label)
        values[i] = value
    sort_idx = np.argsort(positions, kind="stable")
    pos_sorted = positions[sort_idx]
    val_sorted = values[sort_idx]

    def subsample(v):
        lo, hi = tree.span(v)
        i0 = int(np.searchsorted(pos_sorted, lo, side="left"))
        i1 = int(np.searchsorted(pos_sorted, hi, side="left"))
        return val_sorted[i0:i1]

    pruning = [tree.root_id]
    weights = {tree.root_id: 1.0}
    scores: dict[int, float | None] = {}
    for _, v, w_r in splits:
        target = -1
        best = None
        heaviest = -1
        heaviest_w = -1.0
        for u in pruning:
            if tree.is_leaf(u):
                continue
            if weights[u] > heaviest_w:
                heaviest_w = weights[u]
                heaviest = u
            if u not in scores:
                sub = subsample(u)
                scores[u] = score_fn(weights[u], tree.leaf_count(u), sub) if sub.size else None
            s = scores[u]
            if s is None:
                continue
            if best is None or s > best:
                best = s
                target = u
        if target < 0:
            target = heaviest
        assert v == target
        assert w_r == fsum(table[lab] for lab in leaves_under(tree, tree.right(v)))
        w_l = weights[v] - w_r
        if w_l < 0.0:
            assert w_l >= -1e-12
            w_l = 0.0
        pruning.remove(v)
        insort(pruning, tree.left(v))
        insort(pruning, tree.right(v))
        weights[tree.left(v)] = w_l
        weights[tree.right(v)] = w_r

    assert result.pruning == tuple(pruning)
    assert result.node_weights == {u: weights[u] for u in pruning}
    assert result.ledger.basic_queries == budget.basic
    assert result.ledger.node_queries == k - 1


class TestScoredBaselines:
    @pytest.mark.parametrize("runner,score_fn", [(run_uniform, uniform_score), (run_empirical, empirical_score)])
    def test_replay_random_instances(self, runner, score_fn):
        for seed in range(10):
            rng = random.Random(7000 + seed)
            tree = random_tree(rng, rng.randint(6, 30))
            table = random_weight_table(rng, tree.leaf_order)
            k = rng.randint(2, min(6, tree.leaf_count_total))
            basic = rng.choice((0, 1, 7, 40))
            budget = Budget(basic, k - 1)
            result = runner(tree, Oracle(tree, table), k, budget, seed=seed)
            replay_scored(tree, table, result, k, budget, score_fn)

    @pytest.mark.parametrize("runner", [run_uniform, run_empirical])
    def test_no_draws_falls_back_to_heaviest(self, runner):
        rng = random.Random(17)
        tree = random_tree(rng, 16)
        table = random_weight_table(rng, tree.leaf_order, kind="exponential")
        k = 5
        scored = runner(tree, Oracle(tree, table), k, Budget(0, k - 1), seed=3)
        weighted = run_weight(tree, Oracle(tree, table), k, Budget(0, k - 1), seed=3)
        assert scored.pruning == weighted.pruning
        assert scored.trace == weighted.trace

    @pytest.mark.parametrize("runner", [run_uniform, run_empirical])
    def test_same_seed_reproduces(self, runner):
        rng = random.Random(23)
        tree = random_tree(rng, 20)
        table = random_weight_table(rng, tree.leaf_order)
        first = runner(tree, Oracle(tree, table), 4, Budget(30, 3), seed=9)
        second = runner(tree, Oracle(tree, table), 4, Budget(30, 3), seed=9)
        assert first.trace == second.trace
        assert first.pruning == second.pruning
        assert first.w_p_refined == second.w_p_refined

    def test_scored_variants_share_draws(self):
        # Both scored baselines consume the rng identically before scoring,
        # so with equal seeds they see the same sample.
        rng = random.Random(29)
        tree = random_tree(rng, 18)
        table = random_weight_table(rng, tree.leaf_order)
        uni = run_uniform(tree, Oracle(tree, table), 3, Budget(12, 2), seed=4)
        emp = run_empirical(tree, Oracle(tree, table), 3, Budget(12, 2), seed=4)
        uni_samples = [t for t in uni.trace if t[0] == "SAMPLE"]
        emp_samples = [t for t in emp.trace if t[0] == "SAMPLE"]
        assert uni_samples == emp_samples


class TestBudgetParity:
    def test_all_baselines_match_adaptive_spend(self):
        # Baselines fed a matched budget must spend exactly what the
        # adaptive reference run spent, down to both ledger counters.
        rng = random.Random(31)
        tree = random_tree(rng, 24)
        table = random_weight_table(rng, tree.leaf_order, kind="dense")
        config = EngineConfig(k=5, delta=0.05, beta=4.0, seed=0, max_basic_queries=120)
        reference = run_awp(tree, Oracle(tree, table), config)
        budget = match_budget(reference)
        k_reached = len(reference.pruning)
        assert budget.node == k_reached - 1

        for fn in (run_weight, run_uniform, run_empirical):
            result = fn(tree, Oracle(tree, table), k_reached, budget, seed=1)
            assert result.ledger.basic_queries == budget.basic
            assert result.ledger.node_queries == budget.node
            assert len(result.pruning) == k_reached
            # Comparable outputs: normalized weightings over the leaf set.
            w_p = induced_weighting(tree, result.pruning, result.node_weights)
            assert isclose(fsum(w_p), 1.0, abs_tol=1e-9)
            assert tv_distance(result.w_p_refined, [table[lab] for lab in tree.leaf_order]) >= 0.0


class TestFullSize:
    @pytest.mark.parametrize("seed", range(8))
    def test_k_equal_to_leaf_count_reaches_every_leaf(self, seed):
        # A pruning smaller than the leaf count always has an internal
        # node, so a run at k = leaf count ends on the leaves or at the cap.
        rng = random.Random(seed)
        n = rng.randint(2, 24)
        tree = caterpillar(n) if seed % 2 else random_tree(rng, n)
        table = random_weight_table(rng, tree.leaf_order)
        k = tree.leaf_count_total
        leaves = tuple(leaf_ids(tree))
        for fn in (run_weight, run_uniform, run_empirical):
            result = fn(tree, Oracle(tree, table), k, Budget(rng.randint(0, 30), k - 1), seed=seed)
            assert result.pruning == leaves
            assert result.early_stop is None
        config = EngineConfig(k=k, seed=seed, max_basic_queries=400)
        result = run_awp(tree, Oracle(tree, table), config)
        assert result.early_stop in (None, "max-queries")
        if result.early_stop is None:
            assert result.pruning == leaves
        replay_trace(tree, table, result, config)
