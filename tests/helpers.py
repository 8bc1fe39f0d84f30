"""Shared test fixtures: random instances, brute-force oracles, and a
trace replay validator for adaptive runs."""

from __future__ import annotations

from bisect import insort
from math import fsum, inf

from awpkit.engine import EngineConfig, PruningResult, sc_satisfied
from awpkit.estimator import NodeStats, confidence_radius, estimate_discrepancy
from awpkit.tree import HierTree, WeightTable, leaves_under


def random_tree(rng, n: int, prefix: str = "t") -> HierTree:
    """Random binary tree shape over n labelled leaves.

    Group sizes are cut uniformly at random, so shapes range from chains
    to near-balanced trees.
    """
    labels = [f"{prefix}{i:04d}" for i in range(n)]

    def build(group):
        if len(group) == 1:
            return group[0]
        cut = rng.randint(1, len(group) - 1)
        return (build(group[:cut]), build(group[cut:]))

    return HierTree.from_nested(build(labels))


def caterpillar(n):
    """Chain of n leaves in which every internal node has a leaf child."""
    spec = "c0000"
    for i in range(1, n):
        spec = (spec, f"c{i:04d}") if i % 2 else (f"c{i:04d}", spec)
    return HierTree.from_nested(spec)


def random_weight_table(rng, labels, kind: str | None = None) -> WeightTable:
    """Random normalized weights; kind picks the shape of the vector."""
    if kind is None:
        kind = rng.choice(("dense", "exponential", "sparse", "spiked"))
    raw = {}
    for lab in labels:
        if kind == "dense":
            raw[lab] = rng.random()
        elif kind == "exponential":
            raw[lab] = rng.expovariate(1.0)
        elif kind == "sparse":
            raw[lab] = rng.random() if rng.random() < 0.3 else 0.0
        elif kind == "spiked":
            raw[lab] = rng.random() * 0.01
        else:
            raise ValueError(f"unknown kind {kind!r}")
    if kind == "spiked":
        raw[rng.choice(list(labels))] = 1.0
    if fsum(raw.values()) <= 0.0:
        raw[next(iter(labels))] = 1.0
    total = fsum(raw.values())
    return WeightTable({lab: value / total for lab, value in raw.items()})


def reference_refine_with_queries(tree, pruning, node_weights, queried):
    """Label-keyed refinement kept as the slow reference for the leaf-order
    ``refine_with_queries``: ``queried`` maps leaf labels to weights, and
    the result is a dict keyed by label.  It runs no sum-to-one check, so
    that pins overshooting a node's mass can be compared too."""
    out = {}
    for v in pruning:
        lo, hi = tree.span(v)
        labels = tree.leaf_order[lo:hi]
        known = [(lab, queried[lab]) for lab in labels if lab in queried]
        residual = node_weights[v] - fsum(val for _, val in known)
        if residual < 0.0:
            residual = 0.0
        rest = len(labels) - len(known)
        share = residual / rest if rest else 0.0
        for lab in labels:
            out[lab] = share
        for lab, val in known:
            out[lab] = val
    return {lab: out[lab] for lab in tree.leaf_order}


def reference_tv_distance(w1, w2):
    """Label-keyed total variation distance, kept as the slow reference for
    the leaf-order ``tv_distance``."""
    if set(w1.keys()) != set(w2.keys()):
        raise ValueError("weightings are over different leaf sets")
    return 0.5 * fsum(abs(w1[lab] - w2[lab]) for lab in w1)


def random_pruning(rng, tree: HierTree, splits: int | None = None) -> tuple[int, ...]:
    """Random antichain covering the leaves, grown by random splits."""
    if splits is None:
        splits = rng.randint(0, tree.leaf_count_total - 1)
    frontier = [tree.root_id]
    for _ in range(splits):
        internal = [v for v in frontier if not tree.is_leaf(v)]
        if not internal:
            break
        v = rng.choice(internal)
        frontier.remove(v)
        frontier.extend(tree.children(v))
    return tuple(sorted(frontier))


def enumerate_prunings(tree: HierTree, v: int, cap: int) -> list[tuple[int, ...]]:
    """All prunings of the subtree at v using at most cap nodes."""
    if cap < 1:
        return []
    out = [(v,)]
    if tree.is_leaf(v):
        return out
    left, right = tree.children(v)
    for lp in enumerate_prunings(tree, left, cap - 1):
        for rp in enumerate_prunings(tree, right, cap - len(lp)):
            out.append(tuple(sorted(lp + rp)))
    return out


def spiked_quality_tree(sizes, spike_mass: float = 0.5):
    """Tree whose child-to-parent discrepancy ratios are set by leaf counts.

    One spike leaf carries extra mass over a uniform background, nested in
    subtrees of the given strictly decreasing leaf counts (ending at 1).
    A node holding the spike with N leaves has discrepancy
    2 * spike_mass * (N-1)/N and every other node has discrepancy zero, so
    the measured quality is the largest ((N_c-1)/N_c) / ((N_p-1)/N_p) along
    the nesting. Off-path siblings are balanced uniform blobs.
    """
    n = sizes[0]
    labels = [f"s{i:04d}" for i in range(n)]

    def balanced(group):
        if len(group) == 1:
            return group[0]
        mid = (len(group) + 1) // 2
        return (balanced(group[:mid]), balanced(group[mid:]))

    cursor = 1

    def path(i):
        nonlocal cursor
        if sizes[i] == 1:
            return labels[0]
        blob_n = sizes[i] - sizes[i + 1]
        blob = labels[cursor : cursor + blob_n]
        cursor += blob_n
        return (path(i + 1), balanced(blob))

    tree = HierTree.from_nested(path(0))
    u = (1.0 - spike_mass) / n
    w = {lab: u for lab in labels}
    w[labels[0]] = u + spike_mass
    return tree, WeightTable(w)


def _scores(tree, stats, config, v):
    if tree.is_leaf(v):
        return 0.0, 0.0
    st = stats[v]
    if st.m == 0:
        return inf, -inf
    d = estimate_discrepancy(st)
    r = confidence_radius(
        st, config.k, config.delta, config.radius_mode, strict_paper=config.strict_paper
    )
    return d + r, d - r


def _first_qualifying_split(tree, stats, pruning, config):
    """Mirror of the engine's split scan: smallest-id node whose pessimistic
    estimate, scaled by beta, beats the best rival's optimistic estimate."""
    ucb = {v: _scores(tree, stats, config, v)[0] for v in pruning}
    top1_node = -1
    top1 = -inf
    top2 = -inf
    for v in pruning:
        u = ucb[v]
        if u > top1:
            top2 = top1
            top1 = u
            top1_node = v
        elif u > top2:
            top2 = u
    for v in pruning:
        if tree.is_leaf(v) or stats[v].m == 0:
            continue
        rival = top2 if v == top1_node else top1
        if config.beta * _scores(tree, stats, config, v)[1] >= rival:
            return v, rival
    return None, None


def replay_trace(tree: HierTree, truth, result: PruningResult, config: EngineConfig):
    """Reconstruct an adaptive run from its trace and audit every action.

    Checks, independently of the engine's internal state:
      - each draw comes from the internal pruning node with the largest
        optimistic estimate (first in id order on ties), and no split
        qualified at that moment;
      - each split is the first qualifying node of the scan and satisfies
        the margin criterion against its best rival;
      - drawn values and split masses agree exactly with the target;
      - the final pruning, node masses, ledger, and per-node draw counts
        all match the result.

    Returns the per-node draw counts.
    """
    root = tree.root_id
    stats = {root: NodeStats(root, 1.0, tree.leaf_count(root))}
    pruning = [root]
    node_w = {root: 1.0}
    counts: dict[int, int] = {}
    n_basic = 0
    cap = config.max_basic_queries

    for ev in result.trace:
        if ev[0] == "SAMPLE":
            _, v, label, value = ev
            assert len(pruning) < config.k, "drew after reaching the target size"
            if cap is not None:
                assert n_basic < cap, "drew past the basic-query cap"
            found, _ = _first_qualifying_split(tree, stats, pruning, config)
            assert found is None, f"skipped a qualifying split of node {found}"
            assert v in pruning and not tree.is_leaf(v)
            best = max(
                _scores(tree, stats, config, u)[0]
                for u in pruning
                if not tree.is_leaf(u)
            )
            firsts = [
                u
                for u in pruning
                if not tree.is_leaf(u) and _scores(tree, stats, config, u)[0] == best
            ]
            assert v == firsts[0], f"drew from {v}, expected argmax {firsts[0]}"
            lo, hi = tree.span(v)
            assert label in tree.leaf_order[lo:hi]
            assert value == truth[label]
            stats[v].push(value)
            counts[v] = counts.get(v, 0) + 1
            n_basic += 1
        else:
            _, v, w_r = ev
            assert len(pruning) < config.k, "split past the target size"
            found, rival = _first_qualifying_split(tree, stats, pruning, config)
            assert found == v, f"split {v}, expected first qualifying {found}"
            st = stats[v]
            d = estimate_discrepancy(st)
            r = confidence_radius(
                st,
                config.k,
                config.delta,
                config.radius_mode,
                strict_paper=config.strict_paper,
            )
            assert sc_satisfied(config.beta, d, r, rival)
            left, right = tree.left(v), tree.right(v)
            true_wr = fsum(truth[lab] for lab in leaves_under(tree, right))
            assert w_r == true_wr, f"split mass {w_r!r} differs from true {true_wr!r}"
            w_l = node_w[v] - w_r
            assert w_l >= -1e-12
            if w_l < 0.0:
                w_l = 0.0
            pruning.remove(v)
            insort(pruning, left)
            insort(pruning, right)
            node_w[left] = w_l
            node_w[right] = w_r
            stats[left] = NodeStats(left, w_l, tree.leaf_count(left))
            stats[right] = NodeStats(right, w_r, tree.leaf_count(right))

    assert tuple(pruning) == result.pruning
    for v in pruning:
        assert node_w[v] == result.node_weights[v]
    if result.early_stop is None:
        assert len(pruning) == config.k
    elif result.early_stop == "max-queries":
        assert len(pruning) < config.k
        assert cap is not None and n_basic == cap
    else:
        raise AssertionError(f"unknown early stop {result.early_stop!r}")
    found, _ = _first_qualifying_split(tree, stats, pruning, config)
    if len(pruning) < config.k:
        assert found is None

    assert result.ledger.basic_queries == n_basic
    assert result.ledger.node_queries == sum(1 for ev in result.trace if ev[0] == "SPLIT")
    assert result.ledger.per_node_basic == counts
    for v, st in stats.items():
        assert result.stats[v].samples == st.samples
    return counts
