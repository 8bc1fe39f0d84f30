"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion, prints a single
``[acceptance NN] <name>: PASS|FAIL`` line, and then asserts it.  Stated
runtime limits are enforced with monotonic-clock guards.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from math import fsum, log
from time import monotonic

import numpy as np
import pytest

from awpkit.adversarial import (
    build_greedy_trap_a,
    build_heavy_leaf,
    build_lookahead_trap,
    build_tightness,
    greedy_lookahead,
    greedy_max_discrepancy,
)
from awpkit.baselines import empirical_score
from awpkit.cli import ExperimentConfig, run_experiment
from awpkit.engine import EngineConfig, run_awp
from awpkit.estimator import NodeStats, confidence_radius, estimate_discrepancy
from awpkit.oracle import Oracle
from awpkit.tree import (
    induced_weighting,
    node_discrepancies,
    node_discrepancy,
    optimal_pruning,
    pruning_discrepancy,
    split_quality,
)

from helpers import leaves_under, random_pruning, random_tree, random_weight_table, spiked_quality_tree


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok


def _random_triple(rng):
    tree = random_tree(rng, rng.randint(2, 256))
    table = random_weight_table(rng, tree.leaf_order)
    pruning = random_pruning(rng, tree)
    return tree, table, pruning


def test_01_pruning_discrepancy_equals_l1_error():
    t0 = monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        tree, table, pruning = _random_triple(rng)
        masses = {v: fsum(table[lab] for lab in leaves_under(tree, v)) for v in pruning}
        w_p = induced_weighting(tree, pruning, masses)
        d_p = pruning_discrepancy(tree, pruning, table)
        l1 = fsum(abs(w_p[pos] - table[lab]) for pos, lab in enumerate(tree.leaf_order))
        ok = ok and abs(d_p - l1) <= 1e-9
    elapsed = monotonic() - t0
    _report(1, "pruning discrepancy equals l1 distance of induced weighting", ok and elapsed < 5.0)


def test_02_pruning_discrepancy_at_most_twice_root():
    t0 = monotonic()
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        tree, table, pruning = _random_triple(rng)
        d_p = pruning_discrepancy(tree, pruning, table)
        d_root = node_discrepancy(tree, tree.root_id, table)
        ok = ok and d_p <= 2.0 * d_root + 1e-9

    tree, table, pruning = build_tightness(8)
    ratio = pruning_discrepancy(tree, pruning, table) / node_discrepancy(tree, tree.root_id, table)
    ok = ok and abs(ratio - 1.6) <= 1e-12
    elapsed = monotonic() - t0
    _report(2, "pruning discrepancy at most twice the root's, bound tight at 1.6", ok and elapsed < 5.0)


def _node_stats(n, draws):
    """Statistics of a unit-mass node of n leaves after the given draws."""
    stats = NodeStats(0, 1.0, n)
    for z in draws:
        stats.push(z)
    return stats


def test_03_estimator_concentration():
    t0 = monotonic()
    n, m, delta = 1000, 50, 0.05
    n_vectors, trials_per = 20, 500
    rng = np.random.default_rng(303)

    vectors = []
    for i in range(n_vectors):
        kind = i % 5
        if kind == 0:
            raw = rng.random(n)
        elif kind == 1:
            raw = rng.exponential(1.0, n)
        elif kind == 2:
            raw = rng.random(n) * (rng.random(n) < 0.3)
        elif kind == 3:
            raw = rng.random(n) * 0.01
            raw[int(rng.integers(n))] = 1.0
        else:
            raw = np.zeros(n)
            raw[int(rng.integers(n))] = 1.0
        if raw.sum() <= 0.0:
            raw[0] = 1.0
        vectors.append(raw / raw.sum())

    radius = confidence_radius(_node_stats(n, [0.0] * m), 1, delta, "hoeffding")
    avg = 1.0 / n
    violations = 0
    for w in vectors:
        d_true = float(np.abs(avg - w).sum())
        idx = rng.integers(0, n, size=(trials_per, m))
        z = w[idx]
        est = 1.0 + (n / m) * (np.abs(z - avg).sum(axis=1) - z.sum(axis=1))
        violations += int(np.count_nonzero(np.abs(est - d_true) > radius))

    freq = violations / (n_vectors * trials_per)
    elapsed = monotonic() - t0
    _report(3, f"estimator concentration (violation frequency {freq:.4f})", freq <= 0.06 and elapsed < 30.0)


def test_04_estimator_unbiased_exhaustive():
    t0 = monotonic()
    ok = True
    for n in range(1, 6):
        raw = [float(i + 1) for i in range(n)]
        total = fsum(raw)
        w = [x / total for x in raw]
        d_true = fsum(abs(1.0 / n - x) for x in w)
        for m in range(1, 4):
            estimates = []
            for tup in itertools.product(range(n), repeat=m):
                estimates.append(estimate_discrepancy(_node_stats(n, [w[i] for i in tup])))
            mean = fsum(estimates) / len(estimates)
            ok = ok and abs(mean - d_true) <= 1e-12
    elapsed = monotonic() - t0
    _report(4, "estimator unbiased under exhaustive enumeration", ok and elapsed < 1.0)


# Five fixtures with measured quality between 0.5 and 0.9; the two deepest
# have a positive optimal discrepancy, the rest can be pruned exactly.
QUALITY_CASES = (
    ((16, 2, 1), 3),
    ((5, 2, 1), 3),
    ((16, 3, 1), 3),
    ((32, 6, 3, 2, 1), 4),
    ((64, 8, 4, 3, 2, 1), 5),
)


@pytest.fixture(scope="module")
def quality_runs():
    runs = []
    for sizes, big_k in QUALITY_CASES:
        tree, table = spiked_quality_tree(sizes)
        q = split_quality(tree, node_discrepancies(tree, table))
        _, d_q = optimal_pruning(tree, big_k, table)
        for seed in range(20):
            config = EngineConfig(k=big_k, delta=0.05, beta=4.0, seed=seed, max_basic_queries=20000)
            result = run_awp(tree, Oracle(tree, table), config)
            runs.append((tree, table, big_k, q, d_q, result))
    return runs


def test_05_node_query_count(quality_runs):
    checked = 0
    ok = True
    for tree, table, big_k, q, d_q, result in quality_runs:
        if len(result.pruning) == big_k:
            checked += 1
            ok = ok and result.ledger.node_queries == big_k - 1

    rng = random.Random(505)
    for _ in range(12):
        tree = random_tree(rng, rng.randint(8, 40))
        table = random_weight_table(rng, tree.leaf_order, kind="dense")
        big_k = rng.randint(2, 6)
        config = EngineConfig(
            k=big_k,
            delta=0.05,
            beta=4.0,
            seed=rng.randint(0, 10**6),
            max_basic_queries=rng.choice((5, 60, 400)),
        )
        result = run_awp(tree, Oracle(tree, table), config)
        if len(result.pruning) == big_k:
            checked += 1
            ok = ok and result.ledger.node_queries == big_k - 1

    _report(5, f"runs reaching size K spent exactly K-1 node queries ({checked} runs)", ok and checked > 0)


def test_06_adaptive_runs_meet_quality_bound(quality_runs):
    t0 = monotonic()
    hits = 0
    for tree, table, big_k, q, d_q, result in quality_runs:
        assert 0.5 <= q <= 0.9
        bound = 2.0 * 4.0 * (log(big_k) / log(1.0 / q) + 1.0) * d_q
        d_po = pruning_discrepancy(tree, result.pruning, table)
        if d_po <= bound + 1e-9:
            hits += 1
    frac = hits / len(quality_runs)
    elapsed = monotonic() - t0
    _report(6, f"quality-dependent discrepancy bound held in {frac:.0%} of runs", frac >= 0.9 and elapsed < 60.0)


def test_07_greedy_misses_optimal_by_growing_factor():
    k = 4
    tree, table = build_greedy_trap_a(k)
    w = 2.0 / (3 * k + 2)
    greedy_d = pruning_discrepancy(tree, greedy_max_discrepancy(tree, table, 2 * k), table)
    _, optimal_d = optimal_pruning(tree, 2 * k, table)
    ok = (
        abs(greedy_d - 5 * w) <= 1e-12
        and abs(optimal_d - 2 * w) <= 1e-12
        and abs(greedy_d / optimal_d - 2.5) <= 1e-12
        and greedy_d / optimal_d >= 2 * k / 4.0
    )
    _report(7, "informed greedy lands factor 2.5 above optimal", ok)


def test_08_lookahead_starves_heavy_node():
    tree, table = build_lookahead_trap(3, 6)
    w = 0.25
    heavy = tree.left(tree.root_id)
    pruning = greedy_lookahead(tree, table, 5)
    final_d = pruning_discrepancy(tree, pruning, table)
    _, optimal_d = optimal_pruning(tree, 5, table)
    ok = (
        heavy in pruning
        and final_d >= 3 * w - 1e-12
        and optimal_d <= w + 1e-12
        and final_d / optimal_d > 3.0
    )
    _report(8, "lookahead greedy never splits the heavy node", ok)


def test_09_plugin_score_blind_to_missed_heavy_leaf():
    tree, table = build_heavy_leaf(100)
    # The heavy leaf is last in leaf order; a sample drawn from the others
    # sees only zeros.
    draws = [table[lab] for lab in tree.leaf_order[:50]]
    assert all(v == 0.0 for v in draws)
    naive = empirical_score(1.0, 100, draws)
    d_true = node_discrepancy(tree, tree.root_id, table)
    ok = abs(naive - 1.0) <= 1e-12 and abs(d_true - 1.98) <= 1e-12
    _report(9, "plug-in score reports 1.0 where true discrepancy is 1.98", ok)


def test_10_adaptive_beats_baselines_on_sweep():
    t0 = monotonic()
    ks = (5, 10, 20, 40)
    means: dict[tuple[str, int], float] = {}
    for k in ks:
        config = ExperimentConfig(
            tree_source="median-split:n=4096,dim=8",
            target_source="geometric:bins=10,ratio=4,layout=contiguous",
            k_values=(k,),
            runs=10,
            seed=0,
            max_basic_queries=50 * k,
        )
        for alg, kk, mean, mn, mx in run_experiment(config).aggregates:
            means[(alg, kk)] = mean

    awp_final = means[("awp", 40)]
    beats = all(awp_final <= means[(alg, 40)] + 1e-12 for alg in ("weight", "uniform", "empirical"))
    seq = [means[("awp", k)] for k in ks]
    rises = [seq[i + 1] - seq[i] for i in range(len(seq) - 1) if seq[i + 1] > seq[i]]
    monotone = len(rises) == 0 or (len(rises) == 1 and rises[0] <= 0.01)
    elapsed = monotonic() - t0
    _report(10, "adaptive sweep beats baselines and improves with K", beats and monotone and elapsed < 300.0)


def test_11_cli_byte_determinism(tmp_path):
    base = [
        sys.executable,
        "-m",
        "awpkit.cli",
        "run",
        "--tree", "random-balanced:n=64",
        "--weights", "geometric:bins=4,ratio=3",
        "--k", "3,5",
        "--runs", "3",
        "--max-queries", "120",
    ]
    outputs = []
    rcs = []
    for tag in ("1", "2"):
        csv = tmp_path / f"results{tag}.csv"
        trace = tmp_path / f"trace{tag}.txt"
        proc = subprocess.run(
            base + ["--out", str(csv), "--trace-out", str(trace)],
            capture_output=True,
            cwd=tmp_path,
        )
        rcs.append(proc.returncode)
        outputs.append((csv.read_bytes(), trace.read_bytes()))
    ok = rcs == [0, 0] and outputs[0] == outputs[1] and outputs[0][0] and outputs[0][1]
    _report(11, "repeated identical invocations are byte-identical", bool(ok))
