"""Hard instances for greedy pruning strategies, and the greedies they defeat.

The builders return (tree, weight table) pairs whose node discrepancies are
known in closed form, so tests can pin exact values.  Component vocabulary,
with w the basic mass unit of each construction:

* pair block: two leaves (0, w); discrepancy w, average w/2.
* pair chain of length i: pair block joined with a chain of i-1 further
  pair blocks; discrepancy i*w.
* decoy chain: repeatedly hangs a single leaf of weight w/2 over a pair
  chain.  Splitting its root only sheds a zero-discrepancy leaf and
  reproduces the same discrepancy one level down, which is what greedy
  strategies get stuck on.

All component trees keep an average leaf weight of exactly w/2, so parent
discrepancies decompose additively over these children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from awpkit.tree import HierTree, WeightTable, node_discrepancies

# Nested weighted spec: a leaf weight, or a (left, right) pair of specs.
WSpec = Union[float, tuple]


def _pair_block(w: float) -> WSpec:
    return (0.0, w)


def _pair_chain(i: int, w: float) -> WSpec:
    if i == 1:
        return _pair_block(w)
    return (_pair_block(w), _pair_chain(i - 1, w))


def _decoy_chain(j: int, i: int, w: float) -> WSpec:
    # i levels of w/2 leaves over a pair chain of length j.
    if i == 1:
        return _pair_chain(j, w)
    return (w / 2.0, _decoy_chain(j, i - 1, w))


def _balanced(leaf_weights: list[float]) -> WSpec:
    if len(leaf_weights) == 1:
        return leaf_weights[0]
    mid = (len(leaf_weights) + 1) // 2
    return (_balanced(leaf_weights[:mid]), _balanced(leaf_weights[mid:]))


def assemble(spec: WSpec) -> tuple[HierTree, WeightTable]:
    """Materialize a nested weighted spec with generated leaf labels."""
    weights: dict[str, float] = {}

    def walk(s: WSpec):
        if isinstance(s, tuple):
            return (walk(s[0]), walk(s[1]))
        label = f"e{len(weights):07d}"
        weights[label] = float(s)
        return label

    label_spec = walk(spec)
    return HierTree.from_nested(label_spec), WeightTable(weights)


def build_greedy_trap_a(k: int) -> tuple[HierTree, WeightTable]:
    """Trap for the exact greedy that splits the max-discrepancy node.

    A chain of k-1 pair blocks ends in a decoy chain over a double pair
    block.  With w = 2/(3k+2) over 3k+2 leaves, greedy spends its 2k-1
    splits walking the chain and then the decoy, finishing at discrepancy
    (k+1)*w, while a size-2k pruning of discrepancy 2*w exists.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = 2.0 / (3 * k + 2)

    def stack(i: int) -> WSpec:
        if i == 1:
            return _decoy_chain(2, k + 1, w)
        return (_pair_block(w), stack(i - 1))

    return assemble(stack(k))


def build_greedy_trap_b(k: int) -> tuple[HierTree, WeightTable]:
    """Trap exploiting smallest-id tie-breaking in the exact greedy.

    The root joins a long decoy chain (left, so its ids come first) with a
    pair chain of length k-1.  With w = 2/(4k-1) over 4k-1 leaves, once the
    pair chain is fully decomposed every candidate ties at discrepancy w
    and greedy burns the rest of its 2k-1 splits inside the decoy chain,
    finishing at k*w where discrepancy w was reachable.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    w = 2.0 / (4 * k - 1)
    return assemble((_decoy_chain(1, 2 * k, w), _pair_chain(k - 1, w)))


def build_lookahead_trap(heavy_multiple: int, chain_depth: int) -> tuple[HierTree, WeightTable]:
    """Trap for one-step lookahead greedy (split maximizing the immediate
    discrepancy drop).

    The root's left subtree holds all the real mass: a node over two
    two-leaf blocks (0, heavy_multiple*w/2) whose split gain is exactly
    zero.  The right subtree is a chain of tiny-leaf blocks arranged so
    every chain split has a small but positive gain.  With w =
    1/(heavy_multiple+1), lookahead greedy therefore never splits the heavy
    node and ends at discrepancy >= heavy_multiple*w although a same-size
    pruning of discrepancy <= w exists.

    chain_depth is capped at 25: beyond that the tiny leaf weight
    w/3**chain_depth underflows double precision relative to w (and the
    tree, with about 2*3**chain_depth leaves, would be enormous anyway).
    """
    if heavy_multiple < 1:
        raise ValueError(f"heavy_multiple must be at least 1, got {heavy_multiple}")
    if not (1 <= chain_depth <= 25):
        raise ValueError(f"chain_depth must be in 1..25, got {chain_depth}")
    w = 1.0 / (heavy_multiple + 1)
    tiny = w / 3.0**chain_depth
    half_block = (0.0, heavy_multiple * w / 2.0)
    heavy = (half_block, half_block)
    chain: WSpec = (tiny, _balanced([0.0] * 3**chain_depth))
    for i in range(1, chain_depth + 1):
        chain = (_balanced([tiny] * (2 * 3 ** (i - 1))), chain)
    return assemble((heavy, chain))


def build_tightness(n: int) -> tuple[HierTree, WeightTable, tuple[int, int]]:
    """Instance on which pruning discrepancy approaches twice the root's.

    n (even) filler leaves of weight w = 1/(n+2) split into two uniform
    blocks; the root's children each join one block with a single odd leaf
    (weights 0 and 2w).  The returned pruning (the two children) has
    discrepancy 4n*w**2 = 2/(1+2/n) times the root's 2w.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    w = 1.0 / (n + 2)
    block = _balanced([w] * (n // 2))
    tree, table = assemble(((0.0, block), (2.0 * w, block)))
    root = tree.root_id
    return tree, table, (tree.left(root), tree.right(root))


@dataclass(frozen=True)
class HeavyLeafVectors:
    """Weight vectors around a single dominant leaf.

    zero_one: n leaves, all mass on the last one; discrepancy 2 - 2/n.
    spiked / flat: n+1 leaves of weight 1/(n+n^2) where the last leaf
    carries either n^2 times that (discrepancy 2 - 4/(n+1)) or exactly that
    (discrepancy 0).  A uniform subsample that misses the last leaf is
    identical under all three, which is what defeats plug-in estimates.
    """

    zero_one: tuple[float, ...]
    spiked: tuple[float, ...]
    flat: tuple[float, ...]


def heavy_leaf_vectors(n: int) -> HeavyLeafVectors:
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    small = 1.0 / (n + n * n)
    return HeavyLeafVectors(
        zero_one=(0.0,) * (n - 1) + (1.0,),
        spiked=(small,) * n + (n * n * small,),
        flat=(small,) * (n + 1),
    )


@dataclass
class Construction:
    """Named hard instance; ``build`` returns its (tree, weights) pair."""

    kind: str
    params: dict[str, int] = field(default_factory=dict)

    _KINDS = ("greedy-trap-a", "greedy-trap-b", "lookahead-trap", "tightness", "heavy-leaf")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown construction {self.kind!r}, expected one of {self._KINDS}")

    def build(self) -> tuple[HierTree, WeightTable]:
        p = self.params
        if self.kind == "greedy-trap-a":
            return build_greedy_trap_a(p["k"])
        if self.kind == "greedy-trap-b":
            return build_greedy_trap_b(p["k"])
        if self.kind == "lookahead-trap":
            return build_lookahead_trap(p["heavy"], p["depth"])
        if self.kind == "tightness":
            tree, table, _ = build_tightness(p["n"])
            return tree, table
        n = p["n"]
        vec = heavy_leaf_vectors(n).zero_one
        labels = [f"e{i:07d}" for i in range(n)]
        tree = HierTree.from_nested(_balanced(labels))  # type: ignore[arg-type]
        return tree, WeightTable(dict(zip(tree.leaf_order, vec)))


def _greedy(tree: HierTree, truth, k: int, score) -> tuple[int, ...]:
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    disc = node_discrepancies(tree, truth)
    pruning = [tree.root_id]
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so each of the k-1 splits finds an internal node.
    for _ in range(k - 1):
        target = -1
        best = None
        for v in sorted(pruning):
            if tree.is_leaf(v):
                continue
            s = score(v, disc)
            if best is None or s > best:
                best = s
                target = v
        pruning.remove(target)
        pruning.extend(tree.children(target))
    return tuple(sorted(pruning))


def greedy_max_discrepancy(tree: HierTree, truth, k: int) -> tuple[int, ...]:
    """Fully informed greedy: split the pruning node with the largest true
    discrepancy (smallest id on ties), k-1 times."""
    return _greedy(tree, truth, k, lambda v, disc: disc[v])


def greedy_lookahead(tree: HierTree, truth, k: int) -> tuple[int, ...]:
    """Fully informed one-step lookahead: split the node whose children
    drop the total discrepancy the most (smallest id on ties)."""

    def gain(v, disc):
        l, r = tree.children(v)
        return disc[v] - disc[l] - disc[r]

    return _greedy(tree, truth, k, gain)
