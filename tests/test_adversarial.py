"""Hard-instance builders: closed-form discrepancies, greedy failure
factors, and the informed greedy strategies (in ``helpers``) they are
built against."""

from __future__ import annotations

from math import fsum, isclose

import pytest

from awpkit.adversarial import (
    assemble,
    build_greedy_trap_a,
    build_greedy_trap_b,
    build_heavy_leaf,
    build_lookahead_trap,
    build_tightness,
)
from awpkit.fileio import dumps_tree, dumps_weights
from awpkit.tree import (
    HierTree,
    WeightTable,
    node_discrepancies,
    node_discrepancy,
    optimal_pruning,
    pruning_discrepancy,
    split_quality,
)

from helpers import greedy_lookahead, greedy_max_discrepancy


class TestAssemble:
    def test_small_spec(self):
        tree, table = assemble(((0.25, 0.25), 0.5))
        assert tree.leaf_count_total == 3
        # Labels are generated in walk order.
        assert tree.leaf_order == ("e0000000", "e0000001", "e0000002")
        assert table["e0000002"] == 0.5
        assert fsum(table[lab] for lab in tree.leaf_order) == 1.0

    def test_table_is_validated(self):
        with pytest.raises(ValueError):
            assemble((0.25, 0.25))


class TestTightness:
    def test_closed_form_values(self):
        tree, table, pruning = build_tightness(8)
        root = tree.root_id
        assert tree.leaf_count_total == 10
        assert pruning == (tree.left(root), tree.right(root))

        d_root = node_discrepancy(tree, root, table)
        d_p = pruning_discrepancy(tree, pruning, table)
        # w = 1/10: root discrepancy 2w, children 0.16 each.
        assert isclose(d_root, 0.2, rel_tol=1e-12)
        assert isclose(d_p, 0.32, rel_tol=1e-12)
        assert isclose(d_p / d_root, 1.6, rel_tol=1e-12)
        assert isclose(split_quality(tree, node_discrepancies(tree, table)), 0.8, rel_tol=1e-12)

    def test_ratio_approaches_two(self):
        prev = 0.0
        for n in (2, 8, 32, 128):
            tree, table, pruning = build_tightness(n)
            ratio = pruning_discrepancy(tree, pruning, table) / node_discrepancy(tree, tree.root_id, table)
            assert isclose(ratio, 2.0 / (1.0 + 2.0 / n), rel_tol=1e-12)
            assert prev < ratio < 2.0
            prev = ratio

    def test_validation(self):
        for bad in (0, 1, 3, -2):
            with pytest.raises(ValueError):
                build_tightness(bad)


class TestGreedyTrapA:
    def test_factor_at_twice_k(self):
        k = 4
        tree, table = build_greedy_trap_a(k)
        w = 2.0 / (3 * k + 2)
        assert tree.leaf_count_total == 3 * k + 2

        greedy = greedy_max_discrepancy(tree, table, 2 * k)
        assert len(greedy) == 2 * k
        greedy_d = pruning_discrepancy(tree, greedy, table)
        _, optimal_d = optimal_pruning(tree, 2 * k, table)
        assert greedy_d == (k + 1) * w
        assert optimal_d == 2 * w
        assert isclose(greedy_d / optimal_d, (k + 1) / 2.0, rel_tol=1e-12)

    def test_factor_grows_with_k(self):
        prev = 0.0
        for k in (2, 4, 8):
            tree, table = build_greedy_trap_a(k)
            greedy_d = pruning_discrepancy(tree, greedy_max_discrepancy(tree, table, 2 * k), table)
            _, optimal_d = optimal_pruning(tree, 2 * k, table)
            factor = greedy_d / optimal_d
            assert factor > prev
            assert factor >= 2 * k / 4.0
            prev = factor

    def test_validation(self):
        with pytest.raises(ValueError):
            build_greedy_trap_a(0)


class TestGreedyTrapB:
    def test_factor_at_twice_k(self):
        k = 4
        tree, table = build_greedy_trap_b(k)
        w = 2.0 / (4 * k - 1)
        assert tree.leaf_count_total == 4 * k - 1

        greedy_d = pruning_discrepancy(tree, greedy_max_discrepancy(tree, table, 2 * k), table)
        _, optimal_d = optimal_pruning(tree, 2 * k, table)
        assert greedy_d == k * w
        assert optimal_d == w
        assert isclose(greedy_d / optimal_d, float(k), rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_greedy_trap_b(1)


class TestLookaheadTrap:
    def test_heavy_node_starved(self):
        tree, table = build_lookahead_trap(3, 6)
        w = 0.25
        assert tree.leaf_count_total == 1462

        root = tree.root_id
        heavy = tree.left(root)
        disc = node_discrepancies(tree, table)
        assert disc[heavy] == 3 * w
        # Splitting the heavy node gains exactly nothing.
        gain = disc[heavy] - disc[tree.left(heavy)] - disc[tree.right(heavy)]
        assert abs(gain) < 1e-15

        pruning = greedy_lookahead(tree, table, 5)
        assert heavy in pruning
        final_d = pruning_discrepancy(tree, pruning, table)
        _, optimal_d = optimal_pruning(tree, 5, table)
        assert final_d >= 3 * w
        assert optimal_d <= w + 1e-15
        assert isclose(final_d, 43 * w / 14, rel_tol=1e-12)
        assert final_d / optimal_d > 3.0

    def test_chain_discrepancies_closed_form(self):
        # Descending the right spine, level i has discrepancy
        # 2w / (1 + 3**(depth - i)): small but strictly positive gains
        # that keep lookahead greedy walking the chain.
        depth = 6
        tree, table = build_lookahead_trap(3, depth)
        w = 0.25
        disc = node_discrepancies(tree, table)
        v = tree.right(tree.root_id)
        for i in range(depth, 0, -1):
            alpha = 2 * w / (1 + 3.0 ** (depth - i))
            assert isclose(disc[v], alpha, rel_tol=1e-12)
            v = tree.right(v)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_lookahead_trap(0, 3)
        with pytest.raises(ValueError):
            build_lookahead_trap(3, 0)
        with pytest.raises(ValueError):
            build_lookahead_trap(3, 26)


class TestHeavyLeafVectors:
    # The zero_one vector of build_heavy_leaf: all mass on the last leaf.
    def test_shapes_and_totals(self):
        n = 100
        tree, table = build_heavy_leaf(n)
        assert [table[lab] for lab in tree.leaf_order] == [0.0] * (n - 1) + [1.0]

    def test_root_discrepancies(self):
        n = 100
        tree, table = build_heavy_leaf(n)
        assert node_discrepancy(tree, tree.root_id, table) == 2.0 - 2.0 / n


class TestBuildHeavyLeaf:
    # Dumps of the instance the CLI built inline before build_heavy_leaf
    # existed: a balanced tree over e0000000.. with all mass on the last leaf.
    PINNED = {
        2: (
            "HWT 1\nI 0 1 2\nL 1 e0000000\nL 2 e0000001\n",
            "e0000000 0.0\ne0000001 1.0\n",
        ),
        3: (
            "HWT 1\nI 0 1 4\nI 1 2 3\nL 2 e0000000\nL 3 e0000001\nL 4 e0000002\n",
            "e0000000 0.0\ne0000001 0.0\ne0000002 1.0\n",
        ),
        5: (
            "HWT 1\nI 0 1 6\nI 1 2 5\nI 2 3 4\nL 3 e0000000\nL 4 e0000001\nL 5 e0000002\n"
            "I 6 7 8\nL 7 e0000003\nL 8 e0000004\n",
            "e0000000 0.0\ne0000001 0.0\ne0000002 0.0\ne0000003 0.0\ne0000004 1.0\n",
        ),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_dumps_match_pinned_text(self, n):
        tree, table = build_heavy_leaf(n)
        assert (dumps_tree(tree), dumps_weights(table)) == self.PINNED[n]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_heavy_leaf(1)


class TestInformedGreedies:
    # Quad tree ids: 0 root, 1=(a,b), 2=a, 3=b, 4=(c,d), 5=c, 6=d.
    def quad(self):
        tree = HierTree.from_nested((("a", "b"), ("c", "d")))
        table = WeightTable({"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2})
        return tree, table

    def test_max_discrepancy_sequence(self):
        tree, table = self.quad()
        assert greedy_max_discrepancy(tree, table, 1) == (0,)
        assert greedy_max_discrepancy(tree, table, 2) == (1, 4)
        # D=0.4 at node 1 beats D=0 at node 4.
        assert greedy_max_discrepancy(tree, table, 3) == (2, 3, 4)
        assert greedy_max_discrepancy(tree, table, 4) == (2, 3, 5, 6)

    def test_lookahead_sequence(self):
        tree, table = self.quad()
        assert greedy_lookahead(tree, table, 2) == (1, 4)
        assert greedy_lookahead(tree, table, 3) == (2, 3, 4)

    def test_tie_prefers_smaller_id(self):
        tree = HierTree.from_nested((("a", "b"), ("c", "d")))
        table = WeightTable({"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
        # All discrepancies are zero, so both internal candidates tie.
        assert greedy_max_discrepancy(tree, table, 3) == (2, 3, 4)
        assert greedy_lookahead(tree, table, 3) == (2, 3, 4)

    def test_k_validation(self):
        tree, table = self.quad()
        for bad in (0, 5):
            with pytest.raises(ValueError):
                greedy_max_discrepancy(tree, table, bad)
            with pytest.raises(ValueError):
                greedy_lookahead(tree, table, bad)
