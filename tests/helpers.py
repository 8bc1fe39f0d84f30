"""Shared test fixtures: random instances, brute-force oracles, slow
references for the optimized paths, the informed greedies that the hard
instances defeat, and a trace replay validator for adaptive runs."""

from __future__ import annotations

import math
import random
from bisect import insort
from itertools import accumulate, repeat
from math import fsum, inf
from operator import floordiv, itemgetter, mul, sub

from awpkit.engine import MASS_TOL, EngineConfig, PruningResult, PruningSearch
from awpkit.estimator import NodeStats, estimate_discrepancy
from awpkit.fileio import HWT_MAGIC
from awpkit.oracle import TargetSpec, _near_equal_runs
from awpkit.tree import FileFormatError, HierTree, TreeStructureError, WeightTable, node_discrepancies


def leaves_under(tree: HierTree, v: int) -> list[str]:
    """Labels of the leaves below v, in left-to-right order."""
    lo, hi = tree.span(v)
    return list(tree.leaf_order[lo:hi])


def leaf_ids(tree: HierTree) -> list[int]:
    """Ids of the tree's leaves, ascending."""
    return [v for v in range(tree.node_count) if tree.is_leaf(v)]


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


def dyadic_weight_table(rng, labels) -> WeightTable:
    """Weights that are small integers over a power-of-two total, so every
    sum is exact and equal costs tie exactly."""
    parts = [rng.randint(0, 3) for _ in labels]
    total = 1 << max(sum(parts), 1).bit_length()
    parts[rng.randrange(len(parts))] += total - sum(parts)
    return WeightTable({lab: p / total for lab, p in zip(labels, parts)})


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


def reference_normalized_distance(result: PruningResult, truth) -> float:
    """``reference_tv_distance(reference_refine_with_queries(...))``: the
    total variation distance between a result's refined weighting and a
    label-keyed ``truth``, kept as the slow reference for
    ``normalized_distance``, which builds no refined list."""
    order = result.tree.leaf_order
    queried = {order[pos]: value for pos, value in result.queried.items()}
    refined = reference_refine_with_queries(result.tree, result.pruning, result.node_weights, queried)
    return reference_tv_distance(refined, truth)


def reference_node_discrepancies(tree: HierTree, w) -> list[float]:
    """Each node's discrepancy from its own slice, mean and deviations both
    summed with ``fsum``: the slow reference for ``node_discrepancies``,
    whose means come from exact prefix sums."""
    vals = [w[lab] for lab in tree.leaf_order]
    out = []
    for v in range(tree.node_count):
        lo, hi = tree.span(v)
        span = vals[lo:hi]
        avg = fsum(span) / len(span)
        out.append(fsum(abs(avg - x) for x in span))
    return out


def reference_grouped_deviation(avg: float, counts) -> float:
    """The m-fold terms m * |avg - x| of a value -> count map summed
    exactly as integers over one power-of-two denominator, then one
    correctly rounded ``int / int`` division: the slow reference for
    ``tree._exact_sum`` over one group ``(avg, counts)``, as the
    discrepancy pass calls it for a few-valued node, which sums split
    products with ``fsum``."""
    ratios = list(map(float.as_integer_ratio, map(float, map(abs, map(sub, repeat(avg), counts)))))
    d = max(map(itemgetter(1), ratios))
    scaled = map(mul, map(itemgetter(0), ratios), map(floordiv, repeat(d), map(itemgetter(1), ratios)))
    return sum(map(mul, counts.values(), scaled)) / d


def reference_optimal_pruning(tree: HierTree, k: int, w) -> tuple[tuple[int, ...], float]:
    """The O(n·k²) dynamic program, kept as the slow reference for
    ``optimal_pruning``: every left budget in 1..b-1 is scanned and
    clamped.  Ties prefer not splitting and then the smaller left budget."""
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    disc = node_discrepancies(tree, w)

    cost: dict[int, list[float]] = {}
    choice: dict[int, list[int | None]] = {}

    by_depth = sorted(range(tree.node_count), key=tree.depth, reverse=True)
    for v in by_depth:
        cap = min(k, tree.leaf_count(v))
        if tree.is_leaf(v):
            cost[v] = [0.0] * cap
            choice[v] = [None] * cap
            continue
        l, r = tree.children(v)
        ncl = tree.leaf_count(l)
        ncr = tree.leaf_count(r)
        cv: list[float] = []
        ch: list[int | None] = []
        for b in range(1, cap + 1):
            best = disc[v]
            pick: int | None = None
            for bl in range(1, b):
                br = b - bl
                c = cost[l][min(bl, ncl) - 1] + cost[r][min(br, ncr) - 1]
                if c < best:
                    best = c
                    pick = bl
            cv.append(best)
            ch.append(pick)
        cost[v] = cv
        choice[v] = ch

    result: list[int] = []

    def collect(v: int, b: int) -> None:
        b = min(b, tree.leaf_count(v))
        pick = choice[v][b - 1]
        if pick is None:
            result.append(v)
            return
        l, r = tree.children(v)
        collect(l, pick)
        collect(r, b - pick)

    root = tree.root_id
    collect(root, k)
    result.sort()
    return tuple(result), cost[root][min(k, tree.leaf_count_total) - 1]


def reference_span_sums(vals) -> tuple[list[int], int]:
    """Every value scaled to the common denominator on its own: the slow
    reference for ``span_sums``, which scales each distinct value once
    when there are few of them."""
    ratios = list(map(float.as_integer_ratio, map(float, vals)))
    den = max(map(itemgetter(1), ratios), default=1)
    return list(accumulate((num * (den // d) for num, d in ratios), initial=0)), den


def _reference_content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def reference_loads_tree(text: str) -> HierTree:
    """One line at a time, each record checked and placed as it is read:
    the slow reference for ``loads_tree``, which parses in one pass and
    names a malformed line only after it has failed."""
    lines = list(_reference_content_lines(text))
    if not lines:
        raise FileFormatError("empty tree file")
    first_no, first = lines[0]
    if first != HWT_MAGIC:
        raise FileFormatError(f"line {first_no}: expected {HWT_MAGIC!r} header, got {first!r}")
    n = len(lines) - 1
    children: list[tuple[int, ...] | None] = [None] * n
    labels: list[str | None] = [None] * n
    for lineno, line in lines[1:]:
        parts = line.split()
        tag = parts[0]
        if tag == "I":
            if len(parts) != 4:
                raise FileFormatError(f"line {lineno}: internal record needs 'I <id> <left> <right>'")
            label = None
        elif tag == "L":
            if len(parts) != 3:
                raise FileFormatError(f"line {lineno}: leaf record needs 'L <id> <label>'")
            label = parts[2]
        else:
            raise FileFormatError(f"line {lineno}: unknown record tag {tag!r}")
        try:
            node_id = int(parts[1])
            kids = () if label is not None else (int(parts[2]), int(parts[3]))
        except ValueError:
            raise FileFormatError(f"line {lineno}: non-integer id in {line!r}") from None
        if not 0 <= node_id < n:
            raise TreeStructureError("bad-node-ids", None, f"ids must be dense 0..{n - 1}, got {node_id!r}")
        if children[node_id] is not None:
            raise TreeStructureError("duplicate-node-id", node_id)
        children[node_id] = kids
        labels[node_id] = label
    return HierTree(children, labels)


def reference_loads_weights(text: str) -> WeightTable:
    """One ``(lineno, line)`` pair at a time, each checked as it is read:
    the slow reference for ``loads_weights``, which reads in one pass and
    walks the lines only after a failure."""
    weights: dict[str, str] = {}
    for lineno, line in _reference_content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected '<label> <weight>', got {line!r}")
        label, raw = parts
        if label in weights:
            raise FileFormatError(f"line {lineno}: duplicate label {label!r}")
        weights[label] = raw
    if not weights:
        raise FileFormatError("empty weight file")
    try:
        return WeightTable(weights)
    except ValueError as exc:
        for lineno, line in _reference_content_lines(text):
            raw = line.split()[1]
            try:
                float(raw)
            except ValueError:
                raise FileFormatError(f"line {lineno}: bad weight {raw!r}") from None
        raise FileFormatError(str(exc)) from None


def reference_tree_index(children, labels) -> tuple:
    """Check the child links node by node, then index the tree in a second
    walk: the slow reference for ``HierTree``'s one-walk index.  Returns
    ``(root, spans, depths, leaf order, preorder)`` or raises the
    TreeStructureError that names the first fault."""
    children = tuple(map(tuple, children))
    labels = tuple(labels)
    n = len(children)
    if n == 0:
        raise TreeStructureError("empty-tree")
    parent = [-1] * n
    for v, kids, lab in zip(range(n), children, labels):
        if lab is None and len(kids) != 2:
            raise TreeStructureError("non-binary-internal", v, f"{len(kids)} children")
        if lab is not None and kids:
            raise TreeStructureError("leaf-with-children", v)
        for c in kids:
            if not (0 <= c < n):
                raise TreeStructureError("dangling-child", v, f"child id {c}")
            if parent[c] != -1 or c == v:
                raise TreeStructureError("multiple-parents" if c != v else "cycle", c)
            parent[c] = v
    if -1 not in parent:
        raise TreeStructureError("no-root")
    root = parent.index(-1)
    if parent.count(-1) > 1:
        raise TreeStructureError("multiple-roots", parent.index(-1, root + 1))
    span: list[tuple[int, int]] = [(0, 0)] * n
    depth = [0] * n
    order: list[str] = []
    pre: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        pre.append(v)
        kids = children[v]
        if kids:
            l, r = kids
            depth[l] = depth[r] = depth[v] + 1
            stack.append(r)
            stack.append(l)
        else:
            span[v] = (len(order), len(order) + 1)
            order.append(labels[v])
    if len(pre) != n:
        reached = set(pre)
        bad = next(v for v in range(n) if v not in reached)
        raise TreeStructureError("cycle", bad, "unreachable from root")
    if len(set(order)) != len(order):
        seen_labels: set[str] = set()
        for v, lab in enumerate(labels):
            if lab in seen_labels:
                raise TreeStructureError("duplicate-leaf-label", v, lab)
            if lab is not None:
                seen_labels.add(lab)
    for v in reversed(pre):
        kids = children[v]
        if kids:
            span[v] = (span[kids[0]][0], span[kids[1]][1])
    return root, span, depth, tuple(order), pre


def reference_median_split_tree(features, seed: int) -> HierTree:
    """The recursive median-split build, kept as the slow reference for
    ``build_median_split_tree``: every group is sorted by a
    ``(coordinate value, label)`` tuple key at every level, and the nested
    pairs go through ``from_nested``.  It runs no finiteness check."""
    labels = sorted(features.keys())
    dim = len(features[labels[0]])
    start = random.Random(seed).randrange(dim)

    def split(group, depth):
        if len(group) == 1:
            return group[0]
        coord = (start + depth) % dim
        ordered = sorted(group, key=lambda lab: (features[lab][coord], lab))
        mid = len(ordered) // 2
        return (split(ordered[:mid], depth + 1), split(ordered[mid:], depth + 1))

    return HierTree.from_nested(split(labels, 0))


def reference_geometric_target(tree: HierTree, spec: TargetSpec, seed: int) -> WeightTable:
    """The geometric-bins target built one label at a time, and copied by
    ``WeightTable``: the slow reference for ``make_geometric_target``."""
    labels = tree.leaf_order
    if spec.bins is not None:
        bins = spec.bins
        flat = [lab for b in bins for lab in b]
        if sorted(flat) != sorted(labels) or len(flat) != len(set(flat)):
            raise ValueError("explicit bins are not a partition of the leaf set")
    else:
        if spec.n_bins > len(labels):
            raise ValueError(f"cannot fill {spec.n_bins} bins from {len(labels)} leaves")
        shuffled = list(labels)
        random.Random(seed).shuffle(shuffled)
        bins = _near_equal_runs(shuffled, spec.n_bins)
    if any(not b for b in bins):
        raise ValueError("empty bin in target partition")
    n_bins = len(bins)
    raw: dict[str, float] = {}
    try:
        for i, b in enumerate(bins):
            level = float(spec.ratio) ** (n_bins - 1 - i)
            for lab in b:
                raw[lab] = level
        total = fsum(raw[lab] for lab in labels)
    except OverflowError:
        raise ValueError(f"ratio {spec.ratio!r} over {n_bins} bins gives weights beyond float range") from None
    return WeightTable({lab: raw[lab] / total for lab in labels})


def reference_labels(n: int) -> list[str]:
    """One format call per label: the slow reference for ``cli._labels``."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return [f"x{i:06d}" for i in range(n)]


def reference_random_features(labels, dim: int, seed: int) -> dict[str, tuple[float, ...]]:
    """Per-label draws, kept as the slow reference for ``random_features``."""
    rng = random.Random(seed)
    out = {}
    for lab in sorted(str(x) for x in labels):
        out[lab] = tuple(rng.random() for _ in range(dim))
    return out


def _reference_refusal(label: str, what: str) -> str:
    """The writers' message for a label that their reader cannot read back."""
    if not label:
        return f"{what} is empty"
    if label.split() != [label]:
        return f"{what} {label!r} contains whitespace"
    return f"{what} {label!r} starts with '#', which marks a comment line"


def reference_dumps_tree(tree: HierTree) -> str:
    """One record and one label check per node, in id order: the slow
    reference for ``dumps_tree``."""
    out = [HWT_MAGIC]
    for v in range(tree.node_count):
        if tree.is_leaf(v):
            label = tree.label(v)
            if label.split() != [label]:
                raise FileFormatError(_reference_refusal(label, "leaf label"))
            out.append(f"L {v} {label}")
        else:
            left, right = tree.children(v)
            out.append(f"I {v} {left} {right}")
    return "\n".join(out) + "\n"


def reference_dumps_weights(table: WeightTable) -> str:
    """One line and one label check per label, in sorted order: the slow
    reference for ``dumps_weights``."""
    out = []
    for label in sorted(table):
        if label.split() != [label] or label.startswith("#"):
            raise FileFormatError(_reference_refusal(label, "label"))
        out.append(f"{label} {table[label]!r}")
    return "\n".join(out) + "\n"


def reference_trace_lines(result: PruningResult) -> list[str]:
    """One f-string per event, each weight by its own repr: the slow
    reference for ``PruningResult.trace_lines``."""
    out = []
    for ev in result.trace:
        if ev[0] == "SAMPLE":
            out.append(f"SAMPLE {ev[1]} {ev[2]} {ev[3]!r}")
        else:
            out.append(f"SPLIT {ev[1]} {ev[2]!r}")
    return out


def reference_draw_all(search: PruningSearch, rng: random.Random, count: int) -> list[tuple[int, float]]:
    """One ``randrange`` and one recorded oracle query per draw: the slow
    reference for a ``baselines.BaselineCell``'s draw as
    ``baselines._draw_budget`` answers and records it.  Its queried map is
    filled in draw order, a cell's in position order."""
    root = search.tree.root_id
    n = search.tree.leaf_count_total
    draws = []
    for _ in range(count):
        pos = rng.randrange(n)
        value = search.oracle.query_leaf(pos)
        search.queried[pos] = value
        search.trace.append(("SAMPLE", root, search.tree.leaf_order[pos], value))
        draws.append((pos, value))
    return draws


def _greedy(tree: HierTree, truth, k: int, score) -> tuple[int, ...]:
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    disc = node_discrepancies(tree, truth)
    pruning = [tree.root_id]
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so each of the k-1 splits finds an internal node.
    for _ in range(k - 1):
        target = max((v for v in pruning if not tree.is_leaf(v)), key=lambda v: score(v, disc))
        pruning.remove(target)
        for c in tree.children(target):
            insort(pruning, c)
    return tuple(pruning)


def greedy_max_discrepancy(tree: HierTree, truth, k: int) -> tuple[int, ...]:
    """Fully informed greedy: split the pruning node with the largest true
    discrepancy (smallest id on ties), k-1 times.  The greedy traps of
    ``awpkit.adversarial`` are built to defeat it."""
    return _greedy(tree, truth, k, lambda v, disc: disc[v])


def greedy_lookahead(tree: HierTree, truth, k: int) -> tuple[int, ...]:
    """Fully informed one-step lookahead: split the node whose children
    drop the total discrepancy the most (smallest id on ties).  The
    lookahead trap of ``awpkit.adversarial`` is built to defeat it."""

    def gain(v, disc):
        l, r = tree.children(v)
        return disc[v] - disc[l] - disc[r]

    return _greedy(tree, truth, k, gain)


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


def reference_confidence_radius(stats: NodeStats, k: int, delta: float, mode: str, *, strict_paper: bool = False):
    """The radius written out from its three formulas, kept as the slow
    reference for ``confidence_radius``: the Hoeffding and Bernstein radii
    are evaluated independently, each computing its own log term
    ln(2 / delta(m)) with delta(m) = 3 delta / (k pi^2 m^2)."""
    m = stats.m

    def hoeffding():
        if m == 0:
            return inf
        log_term = math.log(2.0 * k * math.pi**2 * m * m / (3.0 * delta))
        return stats.w_star * math.sqrt(2.0 * log_term / m)

    def bernstein():
        if m <= 1:
            return inf
        try:
            square = stats._sum_zp**2
        except OverflowError:
            square = inf
        var = (m * stats._sum_zp2 - square) / (m * (m - 1))
        if var < 0.0:
            var = 0.0
        if strict_paper:
            log_term = math.log(2.0 / delta)
        else:
            log_term = math.log(2.0 * k * math.pi**2 * m * m / (3.0 * delta))
        return stats.n_leaves * math.sqrt(8.0 * var * log_term / m) + (
            28.0 * stats.w_star * log_term / (3.0 * (m - 1))
        )

    if mode == "hoeffding":
        return hoeffding()
    if mode == "bernstein":
        return bernstein()
    if mode == "min":
        return min(hoeffding(), bernstein())
    raise ValueError(f"unknown radius mode {mode!r}")


def reference_estimate(w_star: float, n_leaves: int, draws) -> float:
    """The unbiased estimate written out from the draw list, summed left to
    right as the running sums are: the slow reference for
    ``NodeStats.estimate``."""
    avg = w_star / n_leaves
    sum_dev = sum_z = 0.0
    for z in draws:
        sum_dev += abs(z - avg)
        sum_z += z
    return w_star + (n_leaves / len(draws)) * (sum_dev - sum_z)


def _radius(stats: NodeStats, config: EngineConfig) -> float:
    return reference_confidence_radius(
        stats, config.k, config.delta, config.radius_mode, strict_paper=config.strict_paper
    )


def own_draws(tree: HierTree, trace) -> dict[int, dict[int, float]]:
    """Each node's own draws from a trace: node -> {leaf position: weight}."""
    pos = {lab: i for i, lab in enumerate(tree.leaf_order)}
    out: dict[int, dict[int, float]] = {}
    for ev in trace:
        if ev[0] == "SAMPLE":
            out.setdefault(ev[1], {})[pos[ev[2]]] = ev[3]
    return out


def _scores(tree, stats, drawn, config, v):
    """(ucb, lcb) of pruning node v.  Once v's own draws cover its leaves
    both are its exact discrepancy, summed as in
    ``reference_node_discrepancies``."""
    if tree.is_leaf(v):
        return 0.0, 0.0
    st = stats[v]
    if st.m == 0:
        return inf, -inf
    lo, hi = tree.span(v)
    own = drawn.get(v, {})
    if len(own) == hi - lo:
        vals = [own[i] for i in range(lo, hi)]
        avg = fsum(vals) / len(vals)
        exact = fsum(abs(avg - x) for x in vals)
        return exact, exact
    d = estimate_discrepancy(st)
    r = _radius(st, config)
    return d + r, d - r


def sc_satisfied(beta: float, estimate: float, radius: float, rival_ucb: float) -> bool:
    """Reference statement of the split criterion: beta * (estimate -
    radius) >= max rival optimistic value.  rival_ucb is -inf when the node
    has no rivals, which makes the criterion vacuously true."""
    return beta * (estimate - radius) >= rival_ucb


def first_qualifying_split(tree, stats, drawn, pruning, config):
    """Reference for the engine's split pick: the smallest-id node whose
    pessimistic estimate, scaled by beta, beats the best rival's optimistic
    estimate, with that rival; (None, None) when no node qualifies.
    ``drawn`` holds each node's own draws, as ``own_draws`` gives them."""
    ucb = {v: _scores(tree, stats, drawn, config, v)[0] for v in pruning}
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
        if config.beta * _scores(tree, stats, drawn, config, v)[1] >= rival:
            return v, rival
    return None, None


def argmax_ucb(tree, stats, drawn, pruning, config):
    """First internal pruning node, in id order, with the largest
    optimistic estimate: the node the engine must draw from next."""
    internal = [u for u in pruning if not tree.is_leaf(u)]
    ucb = {u: _scores(tree, stats, drawn, config, u)[0] for u in internal}
    best = max(ucb.values())
    return [u for u in internal if ucb[u] == best][0]


def replay_trace(tree: HierTree, truth, result: PruningResult, config: EngineConfig):
    """Reconstruct an adaptive run from its trace and audit every action.

    Checks, independently of the engine's internal state:
      - each draw comes from the internal pruning node with the largest
        optimistic estimate (first in id order on ties), and no split
        qualified at that moment;
      - each split is the first qualifying node of the scan and satisfies
        the margin criterion against its best rival;
      - drawn values and split masses agree exactly with the target;
      - the final pruning, node masses and ledger all match the result.

    Returns the per-node draw counts.
    """
    root = tree.root_id
    stats = {root: NodeStats(root, 1.0, tree.leaf_count(root))}
    drawn: dict[int, dict[int, float]] = {}
    leaf_pos = {lab: i for i, lab in enumerate(tree.leaf_order)}
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
            found, _ = first_qualifying_split(tree, stats, drawn, pruning, config)
            assert found is None, f"skipped a qualifying split of node {found}"
            assert v in pruning and not tree.is_leaf(v)
            want = argmax_ucb(tree, stats, drawn, pruning, config)
            assert v == want, f"drew from {v}, expected argmax {want}"
            lo, hi = tree.span(v)
            assert lo <= leaf_pos[label] < hi
            assert value == truth[label]
            stats[v].push(value)
            drawn.setdefault(v, {})[leaf_pos[label]] = value
            counts[v] = counts.get(v, 0) + 1
            n_basic += 1
        else:
            _, v, w_r = ev
            assert len(pruning) < config.k, "split past the target size"
            found, rival = first_qualifying_split(tree, stats, drawn, pruning, config)
            assert found == v, f"split {v}, expected first qualifying {found}"
            assert config.beta * _scores(tree, stats, drawn, config, v)[1] >= rival
            left, right = tree.left(v), tree.right(v)
            true_wr = fsum(truth[lab] for lab in leaves_under(tree, right))
            assert w_r == true_wr, f"split mass {w_r!r} differs from true {true_wr!r}"
            w_l = node_w[v] - w_r
            assert w_l >= -MASS_TOL
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
    found, _ = first_qualifying_split(tree, stats, drawn, pruning, config)
    if len(pruning) < config.k:
        assert found is None

    assert result.ledger.basic_queries == n_basic
    assert result.ledger.node_queries == sum(1 for ev in result.trace if ev[0] == "SPLIT")
    return counts
