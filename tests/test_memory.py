"""Memory guards for the column tree layer, the sliced loaders, the
median-split build and the chunked tree and weight writers, on a
2**14-leaf median-split instance.

Each bound is about 1.3 times the larger of the tracemalloc figures
measured on Python 3.10 and 3.11 (given beside it, in MiB).  The design
before the columns, with a child tuple per node, a feature tuple per label
and every line of a file alive at once, measured 7.9 MiB for
``loads_tree``, 4.6 (3.11) and 5.0 (3.10) MiB for ``loads_weights``, 13.4
MiB for the build and 328 bytes per leaf, so the three peak bounds refuse
it on both.  A writer that rendered every record before writing measured
3.39 MiB for ``dump_tree`` on both, and one that rendered every line
before writing measured 1.96 MiB for ``dump_weights`` on both.  Writers
that checked every label at once, in one joined string, measured 1.27 and
1.26 MiB on both; checking one chunk of labels at a time brings both
peaks under their bounds, which refuse all of these.

Scoring a result keeps one value -> count map per few-valued pruning
node on the instance's statistics entry, and no map at all on a target
with all-distinct values; the maps die with the entry.

The ``run --trace-out`` guard runs the README sweep on its 4,096-leaf
instance.  A sweep that kept every trace line until the end, then joined
and wrote the whole file at once, measured 24.4 (3.11) and 23.4 (3.10)
MiB; one that kept a joined block per result but still joined the file
measured 16.0 (3.11).
"""

import gc
import random
import sys
import tracemalloc

import pytest

from awpkit.baselines import BaselineCell, run_empirical, run_uniform, run_weight
from awpkit.cli import main, make_target_source, make_tree_source
from awpkit.engine import EngineConfig, normalized_distance, run_awp
from awpkit.oracle import Oracle
from awpkit.tree import WeightTable
from awpkit.fileio import dump_tree, dump_weights, dumps_tree, dumps_weights, loads_tree, loads_weights

N = 2**14
SPEC = f"median-split:n={N},dim=8"
MIB = 2**20


def _traced(fn):
    """fn's result, and the peak and the current size of what it allocated,
    in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / MIB, current / MIB


@pytest.fixture(scope="module")
def instance_texts():
    tree, _ = make_tree_source(SPEC, seed=0)
    weights = make_target_source("geometric:bins=10,ratio=4", tree, seed=0)
    return dumps_tree(tree), dumps_weights(weights)


def test_loads_tree_peak_and_bytes_per_leaf(instance_texts):
    tree, peak, kept = _traced(lambda: loads_tree(instance_texts[0]))
    assert tree.leaf_count_total == N
    assert peak < 6.7  # measured 5.15 on both
    assert kept * MIB / N < 340  # measured 260 bytes per leaf on both


def test_loads_weights_peak(instance_texts):
    table, peak, _ = _traced(lambda: loads_weights(instance_texts[1]))
    assert len(table) == N
    assert peak < 2.95  # measured 2.07 on 3.11, 2.27 on 3.10


def test_median_split_build_peak():
    (tree, _), peak, _ = _traced(lambda: make_tree_source(SPEC, seed=0))
    assert tree.leaf_count_total == N
    assert peak < 8.8  # measured 6.75 on 3.11, 6.57 on 3.10


def test_dump_tree_peak(instance_texts, tmp_path):
    tree = loads_tree(instance_texts[0])
    path = tmp_path / "t.hwt"
    _, peak, _ = _traced(lambda: dump_tree(tree, path))
    assert path.read_text(encoding="utf-8") == instance_texts[0]
    assert peak < 0.6  # measured 0.45 on both


def test_dump_weights_peak(instance_texts, tmp_path):
    table = loads_weights(instance_texts[1])
    path = tmp_path / "w.txt"
    _, peak, _ = _traced(lambda: dump_weights(table, path))
    assert path.read_text(encoding="utf-8") == instance_texts[1]
    assert peak < 0.78  # measured 0.59 on both


def test_run_trace_out_peak(tmp_path):
    tree, weights, csv, traces = (str(tmp_path / name) for name in ("t.hwt", "w.txt", "r.csv", "tr.txt"))
    assert main([
        "synth", "median-split:n=4096,dim=8", "--seed", "0", "--out-tree", tree,
        "--weights", "geometric:bins=10,ratio=4", "--out-weights", weights,
    ]) == 0
    argv = [
        "run", "--tree", tree, "--weights", weights, "--k", "5,10,20,40", "--runs", "10",
        "--max-queries", "2000", "--out", csv, "--trace-out", traces,
    ]
    rc, peak, _ = _traced(lambda: main(argv))
    assert rc == 0
    assert peak < 10.7  # measured 8.11 on 3.11, 8.23 on 3.10


def _score_a_sweep(tree, table):
    """Score an adaptive run and its three baselines on the instance with
    its table; the table's statistics entry's count memo."""
    oracle = Oracle(tree, table)
    for seed in range(2):
        awp = run_awp(tree, oracle, EngineConfig(k=10, seed=seed, max_basic_queries=500))
        k, basic = len(awp.pruning), awp.ledger.basic_queries
        baselines = (run(BaselineCell(tree, oracle, basic, seed), k) for run in (run_weight, run_uniform, run_empirical))
        for res in (awp, *baselines):
            normalized_distance(res, table)
    assert table._stats.tree is tree and table._stats.vals is oracle._vals
    return table._stats.counts


def test_scoring_an_all_distinct_target_keeps_no_count_maps():
    tree, _ = make_tree_source("median-split:n=4096,dim=8", seed=0)
    rng = random.Random(0)
    raw = [rng.random() for _ in tree.leaf_order]
    total = sum(raw)
    table = WeightTable({lab: x / total for lab, x in zip(tree.leaf_order, raw)})
    memo = _score_a_sweep(tree, table)
    assert memo and all(counts is None for counts in memo.values())


def test_count_maps_die_with_their_statistics_entry():
    tree, _ = make_tree_source("median-split:n=4096,dim=8", seed=0)
    table = make_target_source("geometric:bins=10,ratio=4", tree, seed=0)
    memo = _score_a_sweep(tree, table)
    assert any(memo.values())
    assert not hasattr(tree, "_stats")
    del table
    gc.collect()
    # Only this frame's name and getrefcount's argument still hold it.
    assert sys.getrefcount(memo) == 2
