"""Non-adaptive baselines: spend parity, split selection, scoring, and
trace replay audits.

The scored baselines are replayed step by step from their traces with an
independent position sort and span lookup, scoring each node with the
package's score functions, so every split choice, weight, and retained
subsample is checked exactly.  The scores are checked bit for bit against
exact rational sums of the same rounded terms, and leaf spreading against
the induced weighting.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from fractions import Fraction
from itertools import permutations
from math import fsum, isclose

import pytest

from awpkit.baselines import (
    BaselineCell,
    _draw_budget,
    _draw_positions,
    empirical_score,
    run_empirical,
    run_uniform,
    run_weight,
    uniform_score,
)
from awpkit.engine import EngineConfig, PruningSearch, run_awp
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
    reference_draw_all,
    reference_trace_lines,
    replay_trace,
)

# Preorder ids for the quad tree: 0 root, 1=(a,b), 2=a, 3=b, 4=(c,d), 5=c, 6=d.
QUAD = HierTree.from_nested((("a", "b"), ("c", "d")))


def quad_instance(a, b, c, d):
    table = WeightTable({"a": a, "b": b, "c": c, "d": d})
    return QUAD, table


class TestScores:
    def test_empty_subsample_rejected(self):
        with pytest.raises(ValueError):
            uniform_score(0.5, 4, [])
        with pytest.raises(ValueError):
            empirical_score(0.5, 4, [])

    @pytest.mark.parametrize("w_star, n_leaves", [(0.5, 0), (0.5, -2), (-1.0, 3), (-5e-324, 3), (float("nan"), 3)])
    def test_bad_node_rejected(self, w_star, n_leaves):
        # A node has at least one leaf and a mass of at least zero; a
        # leafless node once divided by zero, and a negative mass was
        # scored.
        for score in (uniform_score, empirical_score):
            with pytest.raises(ValueError, match="node"):
                score(w_star, n_leaves, [0.1])

    def test_zero_mass_accepted(self):
        for w_star in (0.0, -0.0):
            assert uniform_score(w_star, 3, [0.0]) == 0.0
            assert empirical_score(w_star, 3, [0.0]) == 0.0

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
        zeros = [0.0] * 50
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


def exact_sum(terms) -> float:
    """The exact sum of the floats ``terms``, rounded once to the nearest
    float, as ``fsum`` rounds it."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def exact_uniform_score(w_star, n_leaves, values):
    """Reference unbiased score: the two sums taken exactly."""
    avg = w_star / n_leaves
    return w_star + (n_leaves / len(values)) * (exact_sum(abs(z - avg) for z in values) - exact_sum(values))


def exact_empirical_score(w_star, n_leaves, values):
    """Reference plug-in score: the deviation sum taken exactly, over
    avg - z where the package takes z - avg."""
    avg = w_star / n_leaves
    return (n_leaves / len(values)) * exact_sum(abs(avg - z) for z in values)


def random_subsample(rng, w_star):
    m = rng.randint(1, 300)
    kind = rng.choice(("uniform", "zeros", "spiked"))
    if kind == "zeros":
        return [0.0] * m
    if kind == "spiked":
        return [w_star if rng.random() < 0.05 else rng.random() * w_star * 1e-3 for _ in range(m)]
    return [rng.random() * w_star for _ in range(m)]


class TestStdlibPaths:
    def test_scores_match_exact_reference(self):
        # fsum rounds the exact sum once, so the scores equal the exact
        # references bit for bit.
        rng = random.Random(53)
        for _ in range(400):
            w_star = rng.choice((1.0, rng.random() + 1e-6))
            n = rng.randint(1, 1000)
            vals = random_subsample(rng, w_star)
            assert empirical_score(w_star, n, vals).hex() == exact_empirical_score(w_star, n, vals).hex()
            assert uniform_score(w_star, n, vals).hex() == exact_uniform_score(w_star, n, vals).hex()

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
        # The cell refuses an oracle bound to another tree.
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        other = HierTree.from_nested((("a", "b"), ("c", "d")))
        with pytest.raises(ValueError, match="different tree"):
            BaselineCell(tree, Oracle(other, table), 0, 0)

    def test_k_out_of_range(self):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        oracle = Oracle(tree, table)
        cell = BaselineCell(tree, oracle, 3, 0)
        for fn in (run_weight, run_uniform, run_empirical):
            for bad_k in (0, 5):
                with pytest.raises(ValueError, match="k must be"):
                    fn(cell, bad_k)
        assert (oracle.ledger.basic_queries, oracle.ledger.node_queries) == (0, 0)

    def test_negative_basic_count_rejected(self):
        # The cell refuses a negative count.
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError, match="^basic query count must be at least 0, got -1$"):
            BaselineCell(tree, Oracle(tree, table), -1, 0)

    @pytest.mark.parametrize("count", [float("nan"), 2.5, 3.0, "3", None])
    def test_non_integer_basic_count_rejected(self, count):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError, match="^basic query count must be at least 0, got "):
            BaselineCell(tree, Oracle(tree, table), count, 0)

    def test_bool_basic_count_accepted(self):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        assert len(BaselineCell(tree, Oracle(tree, table), True, 0).positions) == 1
        assert BaselineCell(tree, Oracle(tree, table), False, 0).positions == []

    @pytest.mark.parametrize("bad_k", [2.5, 2.0, "3", None, float("nan")])
    def test_non_integer_k_rejected(self, bad_k):
        tree, table = quad_instance(0.25, 0.25, 0.25, 0.25)
        oracle = Oracle(tree, table)
        cell = BaselineCell(tree, oracle, 3, 0)
        for fn in (run_weight, run_uniform, run_empirical):
            with pytest.raises(ValueError, match=r"k must be in 1\.\.4"):
                fn(cell, bad_k)
        assert (oracle.ledger.basic_queries, oracle.ledger.node_queries) == (0, 0)
        # A bool is an integer, so True is k = 1.
        assert run_weight(cell, True).pruning == (QUAD.root_id,)


class TestRunWeight:
    def test_quad_split_order_and_outputs(self):
        tree, table = quad_instance(0.4, 0.2, 0.3, 0.1)
        result = run_weight(BaselineCell(tree, Oracle(tree, table), 5, 11), 3)

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
        result = run_weight(BaselineCell(tree, Oracle(tree, table), 0, 0), 3)
        # Children tie at 0.5 after the root split; node 1 wins the tie.
        assert result.pruning == (2, 3, 4)

    def test_choices_ignore_draws(self):
        tree, table = quad_instance(0.1, 0.2, 0.3, 0.4)
        prunings = set()
        for seed in range(5):
            result = run_weight(BaselineCell(tree, Oracle(tree, table), 20, seed), 3)
            prunings.add(result.pruning)
        assert len(prunings) == 1

    def test_queried_leaves_pinned_in_refinement(self):
        rng = random.Random(3)
        tree = random_tree(rng, 12)
        table = random_weight_table(rng, tree.leaf_order, kind="dense")
        result = run_weight(BaselineCell(tree, Oracle(tree, table), 15, 8), 4)
        queried = {t[2] for t in result.trace if t[0] == "SAMPLE"}
        assert queried
        for label in queried:
            assert result.w_p_refined[tree.leaf_order.index(label)] == table[label]

    def test_k1_spends_basic_budget_only(self):
        tree, table = quad_instance(0.4, 0.2, 0.3, 0.1)
        result = run_weight(BaselineCell(tree, Oracle(tree, table), 6, 2), 1)
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
            result = run_weight(BaselineCell(tree, Oracle(tree, table), rng.randint(0, 25), seed), k)

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


def replay_scored(tree, table, result, k, basic, score_fn):
    """Re-derive every selection a scored baseline made from its trace.

    Draws are position-sorted with a stable sort and node subsamples are
    span slices, which select the same values in the same order as the
    implementation; scores come from the package's own score functions,
    so all comparisons are exact.
    """
    samples = [t for t in result.trace if t[0] == "SAMPLE"]
    splits = [t for t in result.trace if t[0] == "SPLIT"]
    assert list(result.trace) == samples + splits
    assert len(samples) == basic
    assert len(splits) == k - 1

    draws = []
    for _, attributed, label, value in samples:
        assert attributed == tree.root_id
        assert value == table[label]
        draws.append((tree.leaf_order.index(label), value))
    draws.sort(key=lambda d: d[0])
    pos_sorted = [pos for pos, _ in draws]
    val_sorted = [value for _, value in draws]

    def subsample(v):
        lo, hi = tree.span(v)
        return val_sorted[bisect_left(pos_sorted, lo) : bisect_left(pos_sorted, hi)]

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
                scores[u] = score_fn(weights[u], tree.leaf_count(u), sub) if sub else None
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
    assert result.ledger.basic_queries == basic
    assert result.ledger.node_queries == k - 1


class TestScoredBaselines:
    @pytest.mark.parametrize("runner,score_fn", [(run_uniform, uniform_score), (run_empirical, empirical_score)])
    def test_replay_random_instances(self, runner, score_fn):
        for seed in range(10):
            rng = random.Random(7000 + seed)
            tree = random_tree(rng, rng.randint(6, 30))
            table = random_weight_table(rng, tree.leaf_order)
            k = rng.randint(2, tree.leaf_count_total)
            basic = rng.choice((0, 1, 7, 40))
            result = runner(BaselineCell(tree, Oracle(tree, table), basic, seed), k)
            replay_scored(tree, table, result, k, basic, score_fn)

    @pytest.mark.parametrize("runner", [run_uniform, run_empirical])
    def test_no_draws_falls_back_to_heaviest(self, runner):
        rng = random.Random(17)
        tree = random_tree(rng, 16)
        table = random_weight_table(rng, tree.leaf_order, kind="exponential")
        k = 5
        scored = runner(BaselineCell(tree, Oracle(tree, table), 0, 3), k)
        weighted = run_weight(BaselineCell(tree, Oracle(tree, table), 0, 3), k)
        assert scored.pruning == weighted.pruning
        assert scored.trace == weighted.trace

    @pytest.mark.parametrize("runner", [run_uniform, run_empirical])
    def test_same_seed_reproduces(self, runner):
        rng = random.Random(23)
        tree = random_tree(rng, 20)
        table = random_weight_table(rng, tree.leaf_order)
        first = runner(BaselineCell(tree, Oracle(tree, table), 30, 9), 4)
        second = runner(BaselineCell(tree, Oracle(tree, table), 30, 9), 4)
        assert first.trace == second.trace
        assert first.pruning == second.pruning
        assert first.w_p_refined == second.w_p_refined

    def test_scored_variants_share_draws(self):
        # Both scored baselines consume the rng identically before scoring,
        # so with equal seeds they see the same sample.
        rng = random.Random(29)
        tree = random_tree(rng, 18)
        table = random_weight_table(rng, tree.leaf_order)
        uni = run_uniform(BaselineCell(tree, Oracle(tree, table), 12, 4), 3)
        emp = run_empirical(BaselineCell(tree, Oracle(tree, table), 12, 4), 3)
        uni_samples = [t for t in uni.trace if t[0] == "SAMPLE"]
        emp_samples = [t for t in emp.trace if t[0] == "SAMPLE"]
        assert uni_samples == emp_samples


class TestDrawAll:
    @pytest.mark.parametrize("shape", ["random", "caterpillar", "power-of-two"])
    @pytest.mark.parametrize("basic", [0, 1, 7, 2000])
    def test_matches_reference(self, shape, basic):
        # The batch records the same draws, in the same order, as one query
        # at a time, on an oracle that has served queries before, whether
        # the cell is new or was answered before; the position draw leaves
        # the generator where randrange per draw leaves it.  The queried
        # map is built in position order, so it is compared as a dict.
        # With 32 leaves half of the raw draws are rejected.
        rng = random.Random(41)
        tree = {"random": lambda: random_tree(rng, 37), "caterpillar": lambda: caterpillar(23),
                "power-of-two": lambda: random_tree(rng, 32)}[shape]()
        table = random_weight_table(rng, tree.leaf_order)
        oracle = Oracle(tree, table)
        oracle.query_leaf(0)
        cell = BaselineCell(tree, oracle, basic, basic)
        sides = []
        for side in ("fresh", "answered", "reference"):
            start = (oracle.ledger.basic_queries, oracle.ledger.node_queries)
            search = PruningSearch(tree, oracle)
            draw_rng = random.Random(basic)
            if side == "reference":
                draws = reference_draw_all(search, draw_rng, basic)
            else:
                draws = list(zip(cell.positions, _draw_budget(search, cell)))
                _draw_positions(draw_rng, tree.leaf_count_total, basic)
            result = search.finish()
            sides.append((draws, result.trace, search.queried, result.ledger, draw_rng.getstate()))
            assert (oracle.ledger.basic_queries, oracle.ledger.node_queries) == (start[0] + basic, start[1])
        assert sides[0] == sides[1] == sides[2]
        assert sides[0][3].basic_queries == basic
        assert list(sides[0][2]) == sorted(sides[0][2])


class TestBudgetMemo:
    """The per-cell memo of a budget is a ``BaselineCell``: the baselines
    of one (k, run) cell share its draw, sort order, SAMPLE events,
    queried map and deviation sums."""

    RUNNERS = {"weight": run_weight, "uniform": run_uniform, "empirical": run_empirical}

    @staticmethod
    def outcome(fn, cell, k):
        result = fn(cell, k)
        return result.pruning, result.node_weights, result.ledger, result.trace, result.queried

    @pytest.mark.parametrize("order", list(permutations(RUNNERS)))
    def test_baselines_agree_with_and_without_the_memo(self, order):
        # Each baseline gives the same result on a cell shared with the
        # others, in every call order, as on a fresh cell and oracle of its
        # own; its ledger, trace and queried map stay its own, and the
        # shared oracle is charged what the three lone oracles are.
        rng = random.Random(67)
        for tree in (random_tree(rng, 150), caterpillar(90)):
            table = random_weight_table(rng, tree.leaf_order)
            for basic in (0, 1, 400):
                k, seed = 9, 12 + basic
                alone, spent = {}, [0, 0]
                for name, fn in self.RUNNERS.items():
                    oracle = Oracle(tree, table)
                    alone[name] = self.outcome(fn, BaselineCell(tree, oracle, basic, seed), k)
                    spent = [spent[0] + oracle.ledger.basic_queries, spent[1] + oracle.ledger.node_queries]
                oracle = Oracle(tree, table)
                cell = BaselineCell(tree, oracle, basic, seed)
                for name in order:
                    got = self.outcome(self.RUNNERS[name], cell, k)
                    assert got == alone[name], (name, basic)
                assert [oracle.ledger.basic_queries, oracle.ledger.node_queries] == spent
                assert spent == [3 * basic, 3 * (k - 1)]

    def test_memo_holds_only_ints(self):
        # The draw and its stable sort order are plain ints.
        tree = random_tree(random.Random(3), 64)
        cell = BaselineCell(tree, Oracle(tree, random_weight_table(random.Random(4), tree.leaf_order)), 50, 3)
        positions = cell.positions
        assert positions == _draw_positions(random.Random(3), 64, 50)
        assert all(type(x) is int for x in (*positions, *cell.pos_sorted, *cell.order))
        assert cell.pos_sorted == sorted(positions)
        # Stable: equal positions keep their draw order.
        assert cell.order == sorted(range(50), key=lambda i: (positions[i], i))

    def test_non_int_seeds_are_not_memoised(self):
        # Each cell draws once, when it is built, so cells seeded with
        # None draw anew each time, and another seed type reproduces.
        rng = random.Random(5)
        tree = random_tree(rng, 300)
        table = random_weight_table(rng, tree.leaf_order)

        def trace(fn, seed):
            return self.outcome(fn, BaselineCell(tree, Oracle(tree, table), 60, seed), 4)[3]

        assert len({trace(run_uniform, None) for _ in range(3)}) == 3
        assert trace(run_weight, "cell") == trace(run_weight, "cell")


class TestTraceText:
    """``BaselineCell.trace_text`` renders the cell's SAMPLE block once and
    splices each baseline's SPLIT lines before or after it; the text
    equals the result's ``trace_lines`` joined, byte for byte."""

    RUNNERS = ((run_weight, None), (run_uniform, uniform_score), (run_empirical, empirical_score))

    @pytest.mark.parametrize("shape", ["random", "caterpillar"])
    def test_spliced_text_equals_trace_lines(self, shape):
        # One leaf_texts map serves every cell of an instance, as in a
        # sweep, where the adaptive run fills it first; the cells cover
        # basic 0 (no block), k = 1 (no SPLIT line) and k = n.
        rng = random.Random(shape)
        for _ in range(6):
            n = rng.randint(2, 40)
            tree = random_tree(rng, n) if shape == "random" else caterpillar(n)
            table = random_weight_table(rng, tree.leaf_order)
            oracle = Oracle(tree, table)
            leaf_texts: dict[str, str] = {}
            if n > 2:
                awp = run_awp(tree, oracle, EngineConfig(k=2, seed=rng.randrange(99), max_basic_queries=30))
                awp.trace_lines(leaf_texts)
            for basic in (0, 1, rng.randint(2, 60)):
                for k in sorted({1, rng.randint(1, n), n}):
                    cell = BaselineCell(tree, oracle, basic, rng.randrange(99))
                    for runner, score_fn in self.RUNNERS:
                        res = runner(cell, k)
                        want = "\n".join(reference_trace_lines(res))
                        assert "\n".join(res.trace_lines()) == want
                        assert cell.trace_text(res, leaf_texts) == want, (runner.__name__, basic, k)
                        assert cell.trace_text(res, leaf_texts) == want
                        if score_fn is not None:
                            replay_scored(tree, table, res, k, basic, score_fn)

    def test_a_result_of_another_cell_is_refused(self):
        rng = random.Random(8)
        tree = random_tree(rng, 20)
        oracle = Oracle(tree, random_weight_table(rng, tree.leaf_order))
        cell, other = BaselineCell(tree, oracle, 10, 1), BaselineCell(tree, oracle, 10, 1)
        res = run_uniform(other, 4)
        with pytest.raises(ValueError, match="answered"):
            cell.trace_text(res, {})
        run_weight(cell, 4)
        for foreign in (res, run_weight(other, 4), run_weight(BaselineCell(tree, oracle, 3, 1), 4)):
            with pytest.raises(ValueError, match="does not hold"):
                cell.trace_text(foreign, {})

    def test_each_result_keeps_its_own_queried_map(self):
        # The cell builds the queried map once, but each result gets its
        # own copy: changing one changes no sibling's, nor a later run's.
        rng = random.Random(9)
        tree = random_tree(rng, 30)
        table = random_weight_table(rng, tree.leaf_order)
        cell = BaselineCell(tree, Oracle(tree, table), 25, 2)
        results = [runner(cell, 5) for runner, _ in self.RUNNERS]
        want = {p: table[tree.leaf_order[p]] for p in cell.positions}
        results[0].queried.clear()
        results[1].queried[-1] = 0.5
        assert results[2].queried == want
        assert run_uniform(cell, 5).queried == want


class TestBudgetParity:
    def test_all_baselines_match_adaptive_spend(self):
        # Baselines given the adaptive run's basic-query count and reached
        # size must spend exactly what it spent, down to both ledger
        # counters.
        rng = random.Random(31)
        tree = random_tree(rng, 24)
        table = random_weight_table(rng, tree.leaf_order, kind="dense")
        config = EngineConfig(k=5, delta=0.05, beta=4.0, seed=0, max_basic_queries=120)
        reference = run_awp(tree, Oracle(tree, table), config)
        spent = reference.ledger
        k_reached = len(reference.pruning)
        assert spent.node_queries == k_reached - 1

        for fn in (run_weight, run_uniform, run_empirical):
            result = fn(BaselineCell(tree, Oracle(tree, table), spent.basic_queries, 1), k_reached)
            assert result.ledger.basic_queries == spent.basic_queries
            assert result.ledger.node_queries == spent.node_queries
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
            result = fn(BaselineCell(tree, Oracle(tree, table), rng.randint(0, 30), seed), k)
            assert result.pruning == leaves
            assert result.early_stop is None
        config = EngineConfig(k=k, seed=seed, max_basic_queries=400)
        result = run_awp(tree, Oracle(tree, table), config)
        assert result.early_stop in (None, "max-queries")
        if result.early_stop is None:
            assert result.pruning == leaves
        replay_trace(tree, table, result, config)
