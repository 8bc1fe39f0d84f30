"""Command-line interface: source specs, experiment sweeps, CSV and trace
formats, file round trips, and exit codes."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from itertools import combinations
from math import fsum, isclose
from pathlib import Path
from time import monotonic

import pytest

import awpkit.adversarial as adversarial_mod
import awpkit.cli as cli_mod
import awpkit.oracle as oracle_mod
import awpkit.tree as tree_mod
from awpkit.cli import (
    ALGORITHMS,
    AGGREGATE_HEADER,
    DETAIL_HEADER,
    ExperimentConfig,
    UsageError,
    build_parser,
    format_csv,
    format_traces,
    main,
    make_target_source,
    make_tree_source,
    parse_results,
    run_experiment,
)
from awpkit.baselines import BaselineCell
from awpkit.engine import PruningResult
from awpkit.fileio import dump_tree, dump_weights, dumps_tree, load_tree, load_weights
from awpkit.tree import FileFormatError, HierTree, WeightTable

from helpers import reference_labels, reference_trace_lines


def write_quad(tmp_path, weights=None):
    tree = HierTree.from_nested((("a", "b"), ("c", "d")))
    table = WeightTable(weights or {"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2})
    tree_path = tmp_path / "tree.hwt"
    w_path = tmp_path / "weights.txt"
    dump_tree(tree, tree_path)
    dump_weights(table, w_path)
    return str(tree_path), str(w_path)


class TestTreeSources:
    def test_median_split_spec(self):
        tree, weights = make_tree_source("median-split:n=64,dim=4", seed=1)
        assert weights is None
        assert tree.leaf_count_total == 64
        again, _ = make_tree_source("median-split:n=64,dim=4", seed=1)
        assert dumps_tree(tree) == dumps_tree(again)
        other, _ = make_tree_source("median-split:n=64,dim=4", seed=2)
        assert dumps_tree(tree) != dumps_tree(other)

    def test_random_balanced_spec(self):
        tree, weights = make_tree_source("random-balanced:n=33", seed=0)
        assert weights is None
        assert tree.leaf_count_total == 33
        assert tree.max_depth == 6

    def test_default_dim(self):
        tree, _ = make_tree_source("median-split:n=16", seed=0)
        assert tree.leaf_count_total == 16

    def test_construction_specs_carry_weights(self):
        tree, weights = make_tree_source("tightness:n=8", seed=0)
        assert weights is not None
        assert tree.leaf_count_total == 10
        tree, weights = make_tree_source("greedy-trap-a:k=4", seed=0)
        assert weights is not None
        assert tree.leaf_count_total == 14

    def test_path_source(self, tmp_path):
        tree_path, _ = write_quad(tmp_path)
        tree, weights = make_tree_source(tree_path, seed=0)
        assert weights is None
        assert tree.leaf_order == ("a", "b", "c", "d")

    def test_errors(self):
        with pytest.raises(UsageError, match="weights source"):
            make_tree_source("geometric:bins=3,ratio=2", seed=0)
        with pytest.raises(UsageError, match="name=value"):
            make_tree_source("median-split:n", seed=0)
        with pytest.raises(UsageError, match="must be an integer"):
            make_tree_source("median-split:n=abc", seed=0)
        with pytest.raises(UsageError, match="missing required parameter"):
            make_tree_source("median-split:dim=4", seed=0)
        with pytest.raises(UsageError, match="missing required parameter"):
            make_tree_source("tightness:", seed=0)
        with pytest.raises(UsageError):
            make_tree_source("tightness:n=3", seed=0)
        with pytest.raises(UsageError, match="unknown parameter 'dimm'"):
            make_tree_source("median-split:n=64,dimm=3", seed=0)
        with pytest.raises(UsageError, match="more than once"):
            make_tree_source("median-split:n=64,n=32", seed=0)
        # The role is checked before the parameters.
        with pytest.raises(UsageError, match="weights source"):
            make_tree_source("geometric:bins", seed=0)
        # A name that is no generator kind is a file path.
        with pytest.raises(FileNotFoundError):
            make_tree_source("pathological:n=3", seed=0)

    @pytest.mark.parametrize(
        "spec,leaves",
        [
            ("greedy-trap-a:k=4", 14),
            ("greedy-trap-b:k=4", 15),
            ("lookahead-trap:heavy=3,depth=2", 22),
            ("tightness:n=4", 6),
            ("heavy-leaf:n=9", 9),
        ],
    )
    def test_construction_round_trip(self, spec, leaves):
        tree, table = make_tree_source(spec, seed=0)
        assert tree.leaf_count_total == leaves
        assert isclose(fsum(table[lab] for lab in tree.leaf_order), 1.0, abs_tol=1e-9)


class TestTargetSources:
    def test_geometric_layouts(self):
        tree, _ = make_tree_source("random-balanced:n=12", seed=0)
        contiguous = make_target_source("geometric:bins=3,ratio=2,layout=contiguous", tree, seed=0)
        values = [contiguous[lab] for lab in tree.leaf_order]
        # Bins of four in leaf order at levels 4:2:1, normalized by 28.
        assert all(isclose(v, 4.0 / 28.0, rel_tol=1e-12) for v in values[:4])
        assert all(isclose(v, 1.0 / 28.0, rel_tol=1e-12) for v in values[8:])
        assert isclose(values[0] / values[-1], 4.0, rel_tol=1e-12)

        shuffled = make_target_source("geometric:bins=3,ratio=2", tree, seed=0)
        assert sorted(shuffled[lab] for lab in tree.leaf_order) == sorted(values)
        again = make_target_source("geometric:bins=3,ratio=2", tree, seed=0)
        assert {lab: shuffled[lab] for lab in tree.leaf_order} == {lab: again[lab] for lab in tree.leaf_order}

    def test_path_source(self, tmp_path):
        tree_path, w_path = write_quad(tmp_path)
        tree, _ = make_tree_source(tree_path, seed=0)
        table = make_target_source(w_path, tree, seed=0)
        assert table["a"] == 0.5

    def test_errors(self):
        tree, _ = make_tree_source("random-balanced:n=8", seed=0)
        with pytest.raises(UsageError, match="tree source"):
            make_target_source("median-split:n=8", tree, seed=0)
        with pytest.raises(UsageError, match="tree source"):
            make_target_source("median-split:n", tree, seed=0)
        with pytest.raises(UsageError, match="missing required parameter 'ratio'"):
            make_target_source("geometric:bins=3", tree, seed=0)
        with pytest.raises(UsageError, match="parameter 'ratio' must be a number"):
            make_target_source("geometric:bins=3,ratio=x", tree, seed=0)
        with pytest.raises(UsageError, match="unknown parameter 'layot'"):
            make_target_source("geometric:bins=4,ratio=2,layot=contiguous", tree, seed=0)
        with pytest.raises(UsageError, match="more than once"):
            make_target_source("geometric:bins=4,ratio=2,ratio=3", tree, seed=0)
        with pytest.raises(UsageError, match="layout"):
            make_target_source("geometric:bins=3,ratio=2,layout=zigzag", tree, seed=0)


class TestExperimentConfig:
    def test_validation(self):
        base = dict(tree_source="random-balanced:n=8", target_source="geometric:bins=2,ratio=2")
        with pytest.raises(ValueError, match="at least one k"):
            ExperimentConfig(**base, k_values=())
        with pytest.raises(ValueError, match="at least 2"):
            ExperimentConfig(**base, k_values=(1,))
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig(**base, k_values=(3, 4, 3))
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig(**base, k_values=(3,), runs=0)
        with pytest.raises(ValueError, match="unknown algorithms"):
            ExperimentConfig(**base, k_values=(3,), algorithms=("awp", "psychic"))
        with pytest.raises(ValueError, match="at least one algorithm"):
            ExperimentConfig(**base, k_values=(3,), algorithms=())


class TestRunExperiment:
    def small_config(self, **overrides):
        params = dict(
            tree_source="random-balanced:n=16",
            target_source="geometric:bins=4,ratio=3",
            k_values=(3,),
            runs=2,
            seed=0,
            max_basic_queries=60,
        )
        params.update(overrides)
        return ExperimentConfig(**params)

    def test_shape_and_ordering(self):
        out = run_experiment(self.small_config())
        assert len(out.details) == 4 * 2
        assert len(out.aggregates) == 4
        assert len(out.traces) == 4 * 2
        keys = [(ALGORITHMS.index(row[0]), row[1], row[2]) for row in out.details]
        assert keys == sorted(keys)

    def test_budget_parity_across_algorithms(self):
        out = run_experiment(self.small_config())
        spend: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for alg, k, r, nd, bq, nq in out.details:
            assert 0.0 <= nd <= 1.0 + 1e-9
            spend.setdefault((k, r), set()).add((bq, nq))
        # Every algorithm spent exactly the adaptive run's budget.
        assert all(len(s) == 1 for s in spend.values())

    def test_each_row_counts_only_its_own_queries(self):
        # The sweep shares one oracle, so every cell must start its count
        # afresh: a row's counts equal the events of its own trace section.
        out = run_experiment(self.small_config(k_values=(2, 3)))
        assert len(out.details) == 4 * 2 * 2
        for row, (alg, k, r, text) in zip(out.details, out.traces):
            lines = text.splitlines()
            assert row[:3] == (alg, k, r)
            assert row[4] == sum(1 for ln in lines if ln.startswith("SAMPLE "))
            assert row[5] == sum(1 for ln in lines if ln.startswith("SPLIT "))

    def test_converts_the_truth_once(self, monkeypatch):
        # The sweep scores every row against the table's statistics entry,
        # which the oracle shares, instead of converting the label-keyed
        # target again, and the prefix sums are built once, not once per
        # (k, run) cell.  Both are called only from that entry.
        calls = {"_leaf_values": 0, "span_sums": 0}
        for name in calls:
            original = getattr(tree_mod, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(tree_mod, name, counted)
            assert not hasattr(oracle_mod, name)
            assert not hasattr(cli_mod, name)
        run_experiment(self.small_config(k_values=(2, 3)))
        assert calls == {"_leaf_values": 1, "span_sums": 1}

    def test_aggregates_match_details(self):
        out = run_experiment(self.small_config())
        for alg, k, mean, mn, mx in out.aggregates:
            nds = [row[3] for row in out.details if row[0] == alg and row[1] == k]
            assert mean == fsum(nds) / len(nds)
            assert mn == min(nds)
            assert mx == max(nds)
            assert mn <= mean <= mx

    def test_construction_supplies_weights(self):
        out = run_experiment(
            ExperimentConfig(
                tree_source="tightness:n=8",
                target_source=None,
                k_values=(2,),
                runs=1,
                max_basic_queries=40,
            )
        )
        assert len(out.details) == 4

    def test_missing_weights_rejected(self):
        with pytest.raises(UsageError, match="no weights"):
            run_experiment(
                ExperimentConfig(
                    tree_source="random-balanced:n=8",
                    target_source=None,
                    k_values=(2,),
                    runs=1,
                    max_basic_queries=10,
                )
            )

    def test_algorithm_subset(self):
        # Every subset, in any order, gives exactly its algorithms' detail
        # rows, aggregates and trace sections of the full sweep: a baseline
        # gets the same result whichever others share its cell's draw.
        full = run_experiment(self.small_config(k_values=(2, 3)))
        for size in range(1, len(ALGORITHMS) + 1):
            for algs in combinations(ALGORITHMS, size):
                out = run_experiment(self.small_config(k_values=(2, 3), algorithms=algs[::-1]))
                assert out.details == [row for row in full.details if row[0] in algs]
                assert out.aggregates == [row for row in full.aggregates if row[0] in algs]
                assert out.traces == [row for row in full.traces if row[0] in algs]
                assert len(out.details) == len(algs) * 2 * 2


class TestFormats:
    def test_csv_round_trip(self):
        out = run_experiment(
            ExperimentConfig(
                tree_source="random-balanced:n=16",
                target_source="geometric:bins=4,ratio=3",
                k_values=(3, 5),
                runs=2,
                max_basic_queries=50,
            )
        )
        text = format_csv(out)
        lines = text.splitlines()
        assert lines[0] == DETAIL_HEADER
        assert AGGREGATE_HEADER in lines
        details, aggregates = parse_results(text)
        # repr round trips floats exactly.
        assert details == out.details
        assert aggregates == out.aggregates

    def test_parse_errors(self):
        with pytest.raises(FileFormatError, match="detail header"):
            parse_results("nope\n")
        with pytest.raises(FileFormatError, match="bad detail row"):
            parse_results(DETAIL_HEADER + "\nawp,3,0,0.5\n")
        with pytest.raises(FileFormatError, match="bad aggregate row"):
            parse_results(DETAIL_HEADER + "\n" + AGGREGATE_HEADER + "\nawp,3\n")

    def test_trace_sections(self):
        out = run_experiment(
            ExperimentConfig(
                tree_source="random-balanced:n=8",
                target_source="geometric:bins=2,ratio=2",
                k_values=(2,),
                runs=2,
                algorithms=("awp", "weight"),
                max_basic_queries=20,
            )
        )
        text = format_traces(out)
        headers = [ln for ln in text.splitlines() if ln.startswith("# ")]
        assert headers == ["# awp k=2 run=0", "# awp k=2 run=1", "# weight k=2 run=0", "# weight k=2 run=1"]

    @pytest.mark.parametrize("max_queries", [0, 1, 90])
    def test_trace_file_joins_the_per_result_blocks(self, tmp_path, max_queries):
        # The sweep keeps one text block per result and the file is
        # written piece by piece; it must read as the header and event
        # lines of every result joined by newlines, with no line for an
        # empty trace (at --max-queries 0 every trace is empty).
        spec = ("random-balanced:n=16", "geometric:bins=4,ratio=3")
        out = run_experiment(ExperimentConfig(*spec, k_values=(2, 5), runs=2, max_basic_queries=max_queries))
        lines = []
        for alg, k, r, text in out.traces:
            lines.append(f"# {alg} k={k} run={r}")
            lines.extend(text.splitlines())
        want = "\n".join(lines) + "\n"
        assert format_traces(out) == want
        trace = tmp_path / "tr.txt"
        rc = main([
            "run", "--tree", spec[0], "--weights", spec[1], "--k", "2,5", "--runs", "2",
            "--max-queries", str(max_queries), "--out", str(tmp_path / "r.csv"), "--trace-out", str(trace),
        ])
        assert rc == 0
        assert trace.read_text(encoding="utf-8") == want
        if max_queries == 0:
            assert all(ln.startswith("# ") for ln in lines) and len(lines) == 4 * 2 * 2

    def test_trace_file_matches_reference_renderer(self, tmp_path, monkeypatch):
        # A sweep renders each leaf's text once; its trace file must equal
        # the event-by-event rendering byte for byte.  The weights hold
        # 0.0 and -0.0 leaves (equal as keys, with different reprs) and
        # 17-digit reprs, and two weight files put different values on the
        # same labels, so each sweep must render its own.
        labels = [f"q{i:02d}" for i in range(16)]
        tree_path = str(tmp_path / "t.hwt")
        dump_tree(oracle_mod.build_random_balanced_tree(labels, 5), tree_path)
        rng = random.Random(7)
        raw = [rng.random() for _ in range(10)]
        values = [0.0, -0.0] * 3 + [x / fsum(raw) for x in raw]

        def sweep(w_path, tag):
            trace = tmp_path / f"{tag}.txt"
            rc = main([
                "run", "--tree", tree_path, "--weights", w_path,
                "--k", "2,5", "--runs", "2", "--max-queries", "80",
                "--out", str(tmp_path / f"{tag}.csv"), "--trace-out", str(trace),
            ])
            assert rc == 0
            return trace.read_text(encoding="utf-8")

        rendered = []
        for name, vals in (("fwd", values), ("rev", values[::-1])):
            w_path = str(tmp_path / f"{name}.w")
            dump_weights(WeightTable(dict(zip(labels, vals))), w_path)
            got = sweep(w_path, f"{name}-got")
            with monkeypatch.context() as m:
                m.setattr(PruningResult, "trace_lines", lambda self, leaf_texts=None: reference_trace_lines(self))
                assert got == sweep(w_path, f"{name}-want")
            samples = {tuple(ln.split()[2:]) for ln in got.splitlines() if ln.startswith("SAMPLE ")}
            shown = {text for _, text in samples}
            assert {"0.0", "-0.0"} <= shown
            assert any(len(text.replace(".", "").lstrip("0")) == 17 for text in shown)
            rendered.append(dict(samples))
        fwd, rev = rendered
        assert any(fwd[label] != rev[label] for label in fwd.keys() & rev.keys())


BAD_GENERATOR_CASES = [
    ("random-balanced:n=64", "geometric:bins=100,ratio=4", "2"),
    ("random-balanced:n=64", "geometric:bins=100,ratio=4,layout=contiguous", "2"),
    ("random-balanced:n=64", "geometric:bins=4,ratio=1", "2"),
    ("random-balanced:n=0", "geometric:bins=2,ratio=2", "2"),
    ("median-split:n=64,dim=0", "geometric:bins=2,ratio=2", "2"),
    ("random-balanced:n=16", "geometric:bins=2,ratio=inf", "2"),
    ("random-balanced:n=16", "geometric:bins=2,ratio=1e308", "2"),
    ("random-balanced:n=16", "geometric:bins=3,ratio=1e308", "2"),
    ("median-split:n=64,dimm=3", "geometric:bins=2,ratio=2", "2"),
    ("median-split:n=64,n=32", "geometric:bins=2,ratio=2", "2"),
    ("tightness:n=8,k=3", "geometric:bins=2,ratio=2", "2"),
    ("random-balanced:n=64", "geometric:bins=4,ratio=2,layot=contiguous", "2"),
    ("random-balanced:n=64", "geometric:bins=4,ratio=2,ratio=3", "2"),
    ("random-balanced:n=8", "geometric:bins=100,ratio=2", "2"),
    # k above the leaf count: no source is wrong, so this is a usage error too.
    ("random-balanced:n=8", "geometric:bins=2,ratio=2", "9"),
]


def no_work(*args):
    raise AssertionError("work started")


def other_name(path, spelling):
    """Another name for the file at path: the same string, a path through
    its directory's ``.``, or a symlink beside it."""
    if spelling == "dotted":
        return f"{path.parent}/./{path.name}"
    if spelling == "symlink":
        link = path.parent / "link.txt"
        link.symlink_to(path.name)
        return str(link)
    return str(path)


class TestMain:
    def run_args(self, tmp_path, tag, extra=()):
        csv = tmp_path / f"out{tag}.csv"
        trace = tmp_path / f"trace{tag}.txt"
        args = [
            "run",
            "--tree", "random-balanced:n=12",
            "--weights", "geometric:bins=3,ratio=2",
            "--k", "3",
            "--runs", "2",
            "--max-queries", "40",
            "--out", str(csv),
            "--trace-out", str(trace),
            *extra,
        ]
        return args, csv, trace

    def test_run_writes_files(self, tmp_path):
        args, csv, trace = self.run_args(tmp_path, "1")
        assert main(args) == 0
        details, aggregates = parse_results(csv.read_text(encoding="utf-8"))
        assert details and aggregates
        assert trace.read_text(encoding="utf-8").startswith("# awp k=3 run=0")

    def test_repeat_invocations_byte_identical(self, tmp_path):
        args1, csv1, trace1 = self.run_args(tmp_path, "1")
        args2, csv2, trace2 = self.run_args(tmp_path, "2")
        assert main(args1) == 0
        assert main(args2) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert trace1.read_bytes() == trace2.read_bytes()

    def test_run_without_trace_out_renders_no_trace(self, tmp_path, monkeypatch):
        # An adaptive result renders its trace with trace_lines, a
        # baseline's through its cell's trace_text.
        calls = []

        def counted(render):
            def wrapped(self, *args):
                calls.append(self)
                return render(self, *args)

            return wrapped

        monkeypatch.setattr(PruningResult, "trace_lines", counted(PruningResult.trace_lines))
        monkeypatch.setattr(BaselineCell, "trace_text", counted(BaselineCell.trace_text))
        args, csv, trace = self.run_args(tmp_path, "t")
        assert main(args) == 0
        # One trace per (algorithm, run) at the one k.
        assert len(calls) == 2 * len(ALGORITHMS)
        untraced = tmp_path / "untraced.csv"
        plain = args[: args.index("--trace-out")]
        plain[plain.index("--out") + 1] = str(untraced)
        calls.clear()
        assert main(plain) == 0
        assert calls == []
        assert untraced.read_bytes() == csv.read_bytes()

    def test_synth_round_trip(self, tmp_path):
        tree_path = tmp_path / "t.hwt"
        w_path = tmp_path / "w.txt"
        rc = main([
            "synth", "random-balanced:n=12",
            "--seed", "3",
            "--weights", "geometric:bins=3,ratio=2",
            "--out-tree", str(tree_path),
            "--out-weights", str(w_path),
        ])
        assert rc == 0
        tree = load_tree(str(tree_path))
        table = load_weights(str(w_path))
        assert set(table.keys()) == set(tree.leaf_order)

    def test_synth_construction_weights(self, tmp_path):
        tree_path = tmp_path / "t.hwt"
        w_path = tmp_path / "w.txt"
        rc = main(["synth", "tightness:n=4", "--out-tree", str(tree_path), "--out-weights", str(w_path)])
        assert rc == 0
        assert load_tree(str(tree_path)).leaf_count_total == 6

    def test_synth_usage_errors(self, tmp_path, capsys):
        rc = main(["synth", str(tmp_path / "t.hwt"), "--out-tree", str(tmp_path / "o.hwt")])
        assert rc == 1
        assert "generator spec" in capsys.readouterr().err
        rc = main([
            "synth", "random-balanced:n=8",
            "--out-tree", str(tmp_path / "o.hwt"),
            "--out-weights", str(tmp_path / "w.txt"),
        ])
        assert rc == 1
        assert "no weights" in capsys.readouterr().err
        assert not (tmp_path / "o.hwt").exists()

    @pytest.mark.parametrize("weights_src", ["geometric:bins=100,ratio=2", "nosuchfile.txt"])
    def test_synth_weights_need_out_weights(self, tmp_path, capsys, weights_src):
        rc = main(["synth", "random-balanced:n=8", "--weights", weights_src, "--out-tree", str(tmp_path / "t.hwt")])
        assert rc == 1
        assert "--weights needs --out-weights" in capsys.readouterr().err
        assert not (tmp_path / "t.hwt").exists()

    def test_inspect_output(self, tmp_path, capsys):
        tree_path, w_path = write_quad(tmp_path)
        assert main(["inspect", "--tree", tree_path, "--weights", w_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "leaves: 4",
            "depth: 2",
            "total_weight: 1.0",
            "split_quality: 0.8",
            "average_split_quality: 0.4",
            "root_discrepancy: 0.5",
        ]

    def test_inspect_degenerate_quality(self, tmp_path, capsys):
        tree_path, w_path = write_quad(tmp_path, weights={"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
        assert main(["inspect", "--tree", tree_path, "--weights", w_path]) == 0
        out = capsys.readouterr().out
        assert "split_quality: n/a" in out
        assert "average_split_quality: n/a" in out
        assert "root_discrepancy: 0.0" in out

    @pytest.mark.parametrize("weights", ["a 1.0000000005\nb 0.0\n", "a 0.0\nb 1.0000000005\n"])
    def test_a_table_that_loads_also_runs(self, tmp_path, capsys, weights):
        # The table's total is 1 within 1e-9, but the root's mass is 1: a
        # leaf may weigh more than the root and a left mass fall below 0.
        tree_path = tmp_path / "t.hwt"
        w_path = tmp_path / "w.txt"
        csv = tmp_path / "r.csv"
        dump_tree(HierTree.from_nested(("a", "b")), tree_path)
        w_path.write_text(weights, encoding="utf-8")
        assert main(["inspect", "--tree", str(tree_path), "--weights", str(w_path)]) == 0
        assert "total_weight: 1.0000000005" in capsys.readouterr().out.splitlines()
        rc = main(["run", "--tree", str(tree_path), "--weights", str(w_path), "--k", "2", "--out", str(csv)])
        assert rc == 0, capsys.readouterr().err
        details, _ = parse_results(csv.read_text(encoding="utf-8"))
        assert {row[0] for row in details} == set(ALGORITHMS)

    def test_inspect_makes_one_discrepancy_pass(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = tree_mod.node_discrepancies

        def counted(tree, w):
            calls.append(tree)
            return original(tree, w)

        monkeypatch.setattr(tree_mod, "node_discrepancies", counted)
        monkeypatch.setattr(cli_mod, "node_discrepancies", counted)
        tree_path, w_path = write_quad(tmp_path)
        assert main(["inspect", "--tree", tree_path, "--weights", w_path]) == 0
        assert len(calls) == 1

    def test_inspect_makes_one_split_share_pass(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = tree_mod._split_shares

        def counted(tree, disc):
            calls.append(tree)
            return original(tree, disc)

        monkeypatch.setattr(tree_mod, "_split_shares", counted)
        tree_path, w_path = write_quad(tmp_path)
        assert main(["inspect", "--tree", tree_path, "--weights", w_path]) == 0
        assert len(calls) == 1
        assert "average_split_quality: 0.4" in capsys.readouterr().out

    def test_exit_code_1_usage(self, tmp_path, capsys):
        args, _, _ = self.run_args(tmp_path, "u")
        args[args.index("--k") + 1] = "a,b"
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err

        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        args, _, _ = self.run_args(tmp_path, "v", extra=("--algorithms", "awp,psychic"))
        assert main(args) == 1
        args, csv, _ = self.run_args(tmp_path, "w", extra=("--algorithms", "awp,awp"))
        assert main(args) == 1
        assert "algorithms must be distinct" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_exit_code_1_run_outputs_under_one_name(self, tmp_path, capsys, monkeypatch, spelling):
        # Checked before any run; the existing file stays as it was.
        monkeypatch.setattr(cli_mod, "run_experiment", no_work)
        out = tmp_path / "o.txt"
        out.write_text("keep\n", encoding="utf-8")
        args, _, _ = self.run_args(tmp_path, "s")
        args[args.index("--out") + 1] = str(out)
        args[args.index("--trace-out") + 1] = other_name(out, spelling)
        before = sorted(tmp_path.iterdir())
        assert main(args) == 1
        assert "--out and --trace-out name the same file" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "keep\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_exit_code_1_synth_outputs_under_one_name(self, tmp_path, capsys, monkeypatch, spelling):
        monkeypatch.setattr(cli_mod, "make_tree_source", no_work)
        out = tmp_path / "o.txt"
        out.write_text("keep\n", encoding="utf-8")
        args = [
            "synth", "random-balanced:n=8",
            "--weights", "geometric:bins=2,ratio=2",
            "--out-tree", str(out),
            "--out-weights", other_name(out, spelling),
        ]
        before = sorted(tmp_path.iterdir())
        assert main(args) == 1
        assert "--out-tree and --out-weights name the same file" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "keep\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_exit_code_1_run_output_is_a_directory(self, tmp_path, capsys, monkeypatch):
        # Checked before any run; the other output keeps its contents.
        monkeypatch.setattr(cli_mod, "run_experiment", no_work)
        args, csv, _ = self.run_args(tmp_path, "d")
        csv.write_text("OLD\n", encoding="utf-8")
        tracedir = tmp_path / "tracedir"
        tracedir.mkdir()
        args[args.index("--trace-out") + 1] = str(tracedir)
        before = sorted(tmp_path.iterdir())
        assert main(args) == 1
        assert f"--trace-out names a directory {str(tracedir)!r}" in capsys.readouterr().err
        assert csv.read_text(encoding="utf-8") == "OLD\n"
        assert sorted(tmp_path.iterdir()) == before
        assert list(tracedir.iterdir()) == []

    def test_exit_code_1_synth_output_is_a_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "make_tree_source", no_work)
        w_path = tmp_path / "w.txt"
        w_path.write_text("OLD\n", encoding="utf-8")
        tdir = tmp_path / "tdir"
        tdir.mkdir()
        args = [
            "synth", "tightness:n=8",
            "--out-tree", str(tdir),
            "--out-weights", str(w_path),
        ]
        before = sorted(tmp_path.iterdir())
        assert main(args) == 1
        assert f"--out-tree names a directory {str(tdir)!r}" in capsys.readouterr().err
        assert w_path.read_text(encoding="utf-8") == "OLD\n"
        assert sorted(tmp_path.iterdir()) == before
        assert list(tdir.iterdir()) == []

    def test_exit_code_2_bad_input(self, tmp_path, capsys):
        rc = main([
            "run",
            "--tree", str(tmp_path / "missing.hwt"),
            "--weights", "geometric:bins=2,ratio=2",
            "--k", "2",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "bad input" in capsys.readouterr().err

        tree_path, _ = write_quad(tmp_path)
        bad_w = tmp_path / "bad.txt"
        bad_w.write_text("a 0.5\nb not-a-number\n", encoding="utf-8")
        assert main(["inspect", "--tree", tree_path, "--weights", str(bad_w)]) == 2

        short_w = tmp_path / "short.txt"
        short_w.write_text("a 0.6\nb 0.4\n", encoding="utf-8")
        assert main(["inspect", "--tree", tree_path, "--weights", str(short_w)]) == 2

    def test_exit_code_1_repeated_k_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main([
            "run",
            "--tree", "median-split:n=64",
            "--weights", "geometric:bins=4,ratio=2",
            "--k", "4,4",
            "--runs", "2",
            "--max-queries", "300",
            "--out", str(out),
        ])
        assert rc == 1
        assert "distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--delta", "2"), ("--beta", "1"), ("--beta", "inf"), ("--max-queries", "-1")])
    def test_exit_code_1_bad_engine_flag_before_reading_the_tree(self, tmp_path, capsys, flag, value):
        # The tree path does not exist: exit 1, not 2, shows the flag was
        # rejected before any input was read.
        rc = main([
            "run",
            "--tree", str(tmp_path / "missing.hwt"),
            "--weights", "geometric:bins=2,ratio=2",
            "--k", "2",
            flag, value,
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tree_src,weights_src,k",
        BAD_GENERATOR_CASES,
        ids=[f"{t}-{w}" if k == "2" else f"{t}-{w}-k={k}" for t, w, k in BAD_GENERATOR_CASES],
    )
    def test_exit_code_1_bad_generator_parameters(self, tmp_path, capsys, tree_src, weights_src, k):
        rc = main([
            "run",
            "--tree", tree_src,
            "--weights", weights_src,
            "--k", k,
            "--runs", "1",
            "--max-queries", "10",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        if k != "2":
            return  # synth takes no --k
        rc = main([
            "synth", tree_src,
            "--weights", weights_src,
            "--out-tree", str(tmp_path / "t.hwt"),
            "--out-weights", str(tmp_path / "w.txt"),
        ])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "t.hwt").exists()

    @pytest.mark.parametrize("tree_src", ["median-split:n=0", "median-split:n=-3", "random-balanced:n=-2"])
    def test_exit_code_1_leaf_count_below_one_is_named(self, tmp_path, capsys, tree_src):
        n = tree_src.partition("=")[2]
        want = f"usage error: n must be at least 1, got {n}\n"
        rc = main([
            "synth", tree_src,
            "--weights", "geometric:bins=2,ratio=2",
            "--out-tree", str(tmp_path / "t.hwt"),
            "--out-weights", str(tmp_path / "w.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "t.hwt").exists()
        rc = main([
            "run",
            "--tree", tree_src,
            "--weights", "geometric:bins=2,ratio=2",
            "--k", "2",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_exit_code_2_non_finite_weight(self, tmp_path, bad):
        tree_path, _ = write_quad(tmp_path)
        w_path = tmp_path / "bad.txt"
        w_path.write_text(f"a {bad}\nb 0.1\nc 0.2\nd 0.2\n", encoding="utf-8")
        assert main(["inspect", "--tree", tree_path, "--weights", str(w_path)]) == 2
        rc = main([
            "run",
            "--tree", tree_path,
            "--weights", str(w_path),
            "--k", "2",
            "--runs", "1",
            "--max-queries", "10",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2

    def test_exit_code_2_weights_summing_past_the_float_range(self, tmp_path, capsys):
        tree_path, _ = write_quad(tmp_path)
        w_path = tmp_path / "big.txt"
        w_path.write_text("a 1e308\nb 1e308\nc 0\nd 0\n", encoding="utf-8")
        assert main(["inspect", "--tree", tree_path, "--weights", str(w_path)]) == 2
        assert "bad input: weights sum to inf" in capsys.readouterr().err

    def test_exit_code_1_k_above_the_leaf_count(self, tmp_path, capsys, monkeypatch):
        # The files are fine; k does not fit the tree.  The check comes
        # once, before any run.
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli_mod, "run_awp", no_run)
        tree_path, w_path = write_quad(tmp_path)
        rc = main([
            "run",
            "--tree", tree_path,
            "--weights", w_path,
            "--k", "3,50",
            "--max-queries", "10",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "usage error: k must be in 2..4 for this tree, got 50" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        # No k fits a tree of one leaf.
        rc = main([
            "run",
            "--tree", "median-split:n=1",
            "--weights", "geometric:bins=1,ratio=2",
            "--k", "2",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "usage error: the tree has 1 leaf; a search needs at least 2" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_failed_synth_writes_nothing(self, tmp_path, capsys):
        # The weights come first, the tree file cannot be written: neither
        # file is left, and an older weight file keeps its contents.
        w_path = tmp_path / "w.txt"
        for old in (None, "old\n"):
            if old is not None:
                w_path.write_text(old, encoding="utf-8")
            rc = main([
                "synth", "random-balanced:n=16",
                "--weights", "geometric:bins=2,ratio=2",
                "--out-weights", str(w_path),
                "--out-tree", str(tmp_path / "nodir" / "t.hwt"),
            ])
            assert rc == 2
            err = capsys.readouterr().err
            assert f"No such file or directory: {str(tmp_path / 'nodir' / 't.hwt')!r}" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["w.txt"])
            if old is not None:
                assert w_path.read_text(encoding="utf-8") == old

    def test_run_writes_both_files_or_neither(self, tmp_path, capsys):
        args, _, _ = self.run_args(tmp_path, "1")
        bad = tmp_path / "nodir" / "t.txt"
        args[args.index("--trace-out") + 1] = str(bad)
        assert main(args) == 2
        assert f"No such file or directory: {str(bad)!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        args, csv, trace = self.run_args(tmp_path, "2")
        assert main(args) == 0
        assert sorted(tmp_path.iterdir()) == sorted([csv, trace])

    def test_exit_code_3_internal_error(self, tmp_path, capsys, monkeypatch):
        # A RecursionError while building the instance is an internal
        # error: exit 3 with one line on stderr, never a traceback.
        def deep(spec):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(adversarial_mod, "assemble", deep)
        rc = main([
            "run",
            "--tree", "greedy-trap-b:k=600",
            "--k", "4",
            "--runs", "1",
            "--algorithms", "awp",
            "--max-queries", "100",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["greedy-trap-a:k=2000", "greedy-trap-b:k=2000"])
    def test_deep_construction_runs(self, tmp_path, kind):
        # Thousands of levels deep: nothing on the build or run path recurses.
        t0 = monotonic()
        rc = main([
            "run",
            "--tree", kind,
            "--k", "4",
            "--runs", "1",
            "--max-queries", "100",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 0
        assert monotonic() - t0 < 30.0

    def test_strict_paper_environment_variable(self, tmp_path, monkeypatch):
        # AWPKIT_STRICT_PAPER=1 switches the Bernstein log term, which
        # changes how long the adaptive runs sample.
        flags = dict(
            tree_source="random-balanced:n=64",
            target_source="geometric:bins=4,ratio=4",
            k_values=(4, 8),
            runs=2,
            radius_mode="bernstein",
            max_basic_queries=3000,
        )
        argv = [
            "run",
            "--tree", flags["tree_source"],
            "--weights", flags["target_source"],
            "--k", "4,8",
            "--runs", "2",
            "--radius", "bernstein",
            "--max-queries", "3000",
        ]
        monkeypatch.delenv("AWPKIT_STRICT_PAPER", raising=False)
        assert main([*argv, "--out", str(tmp_path / "default.csv")]) == 0
        monkeypatch.setenv("AWPKIT_STRICT_PAPER", "1")
        assert main([*argv, "--out", str(tmp_path / "strict.csv")]) == 0
        default = (tmp_path / "default.csv").read_text(encoding="utf-8")
        strict = (tmp_path / "strict.csv").read_text(encoding="utf-8")
        assert default == format_csv(run_experiment(ExperimentConfig(**flags)))
        assert strict == format_csv(run_experiment(ExperimentConfig(**flags, strict_paper=True)))
        assert parse_results(default)[0][0][:5] == ("awp", 4, 0, 0.0, 331)
        assert parse_results(strict)[0][0][:5] == ("awp", 4, 0, 0.0, 305)

    def test_exit_code_3_any_unexpected_exception(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        args, _, _ = self.run_args(tmp_path, "z")
        assert main(args) == 3
        assert capsys.readouterr().err == "internal error: ZeroDivisionError: boom\n"


@pytest.mark.parametrize(
    "spec",
    [
        "median-split:n=4,dim=100000000000",
        f"median-split:n={2**22 + 1},dim=1",
        f"median-split:n={2**22},dim=9",
        "random-balanced:n=10000000000",
        f"tightness:n={2**22}",
        "greedy-trap-a:k=1398102",
        "greedy-trap-b:k=1048577",
        "lookahead-trap:heavy=1,depth=14",
        f"heavy-leaf:n={2**22 + 1}",
    ],
)
def test_oversized_spec_is_refused_before_it_is_built(spec, tmp_path, capsys):
    # Each spec here is past a cap, so it is refused before any allocation.
    out = tmp_path / "t.hwt"
    assert main(["synth", spec, "--out-tree", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "above the cap" in err
    assert not out.exists()
    assert main(["run", "--tree", spec, "--k", "2", "--out", str(tmp_path / "r.csv")]) == 1


def test_caps_admit_the_largest_sizes():
    # Parsing builds nothing, so the largest admitted specs can be checked.
    for spec in (f"median-split:n={2**22}", f"median-split:n={2**22},dim=8", "lookahead-trap:heavy=1,depth=13"):
        assert cli_mod._parse_spec(spec, "tree") is not None


@pytest.mark.parametrize(
    "spec",
    [
        "median-split:n=5,dim=2",
        "random-balanced:n=7",
        "tightness:n=6",
        "greedy-trap-a:k=3",
        "greedy-trap-b:k=4",
        "lookahead-trap:heavy=2,depth=1",
        "lookahead-trap:heavy=1,depth=3",
        "heavy-leaf:n=9",
    ],
)
def test_spec_size_is_the_leaf_count(spec):
    kind, _, text = spec.partition(":")
    params = {name: int(value) for name, value in (chunk.split("=") for chunk in text.split(","))}
    defaults, _, size = cli_mod._SPECS[kind]
    leaves, _ = size(**{**{k: d for k, d in defaults.items() if not isinstance(d, type)}, **params})
    assert leaves == make_tree_source(spec, seed=0)[0].leaf_count_total


@pytest.mark.parametrize("n", [1, 999, 1000, 1001, 999_999, 1_000_000, 1_000_001])
def test_labels_match_reference(n):
    assert cli_mod._labels(n) == reference_labels(n)


@pytest.mark.parametrize("n", [0, -1])
def test_labels_refuse_n_below_one(n):
    with pytest.raises(ValueError) as want:
        reference_labels(n)
    with pytest.raises(ValueError, match=f"^{want.value}$"):
        cli_mod._labels(n)


@pytest.mark.parametrize(
    "argv, tree_sha, weights_sha",
    [
        (
            ["median-split:n=4096", "--weights", "geometric:bins=10,ratio=4"],
            "73f090419d2dcd65d6a737eefcfb2ae1fd9f91f2a1f71936df27d4c308eb1af1",
            "ca5379684c17d55f6d3d5d5a4d0b6e0025c5d298f2750151ba87be973592e50a",
        ),
        (
            ["median-split:n=4096", "--weights", "geometric:bins=10,ratio=4,layout=contiguous"],
            "73f090419d2dcd65d6a737eefcfb2ae1fd9f91f2a1f71936df27d4c308eb1af1",
            "9302a8388cf3c64d1788fb4952d51a1544ba360ce879609ef86c9eb2a1adc766",
        ),
        (
            ["random-balanced:n=1000", "--weights", "geometric:bins=10,ratio=4"],
            "fe44eb98beb7cae8a449ddb8003b6d4885ee8dfcea20f918149c75e37f83b9c6",
            "2786f4c8df3504a986936165c252ce71f23a5650bfaf2386ceba8d9882dcdb64",
        ),
        # The constructions below write 0.0 weights.
        (
            ["lookahead-trap:heavy=2,depth=3"],
            "dbf79c4c6be5ec6b1ff04af5c5e0268dd51355de0e08f356db57d2910b1e5f2d",
            "4dd63c18ad796a5b7943d4bab38a1c8d3889d69a8eb099ba6a8d1ad5965a7973",
        ),
        (
            ["heavy-leaf:n=50"],
            "cf6fd6757e42420378a586139a22ab90719b13938c3fbcfaaaf78afa1e757ade",
            "92582a07452b35132baf306179792f3abeeb316217fc93062a5795acee167df2",
        ),
        # The bulk benchmark instance, and two other coordinate cycles.
        (
            ["median-split:n=65536,dim=8", "--weights", "geometric:bins=10,ratio=4"],
            "9e160300f0a1b5d803256a1abe0d51481d86226be2e4b24cdf4f6a809999dc9a",
            "7800161d7d01dabf9046dcf47e641e3db76939d84f77aec2d14be2b5e110d7d0",
        ),
        (
            ["median-split:n=4096,dim=1", "--weights", "geometric:bins=10,ratio=4"],
            "65ba66e72d142aa3171e6615a89f108a4dfb1a933dce7ddf2b8169cb29db2034",
            "cf5bd57949e88a3562d7001d3a07f3bc40c99e9f42e94d3fb3e8f699cde4cfcb",
        ),
        (
            ["median-split:n=4096,dim=3", "--weights", "geometric:bins=10,ratio=4"],
            "b03a122c67ab4f183fbf0a4a1d5478ca025de69afc91aa5598869ffbfbb53e8e",
            "e434438ae4f33bdd0a15556144367d2d4211e959fd34fe32ee8ce2f707885e20",
        ),
    ],
)
def test_synth_files_keep_their_digests(tmp_path, argv, tree_sha, weights_sha):
    # The sha256 of both files, as synth wrote them before it built its
    # labels, shares and weight lines from shared pieces; the bulk and
    # dim 1 and 3 cases, as it wrote them before the median-split build
    # settled ties only at the cut.
    tree, weights = tmp_path / "t.hwt", tmp_path / "w.txt"
    assert main(["synth", *argv, "--seed", "0", "--out-tree", str(tree), "--out-weights", str(weights)]) == 0
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == tree_sha
    assert hashlib.sha256(weights.read_bytes()).hexdigest() == weights_sha


RUN_SMALL = [
    "--tree", "random-balanced:n=256", "--weights", "geometric:bins=6,ratio=4", "--seed", "3",
    "--k", "4,8,16", "--runs", "3", "--max-queries", "3000",
]
# Near-uniform weights keep the adaptive runs sampling past the sample size
# from which the Hoeffding radius no longer wins mode "min" outright.
RUN_CROSSOVER = [
    "--tree", "random-balanced:n=256", "--weights", "geometric:bins=2,ratio=1.5", "--seed", "3",
    "--k", "4,8", "--runs", "2", "--max-queries", "20000",
]


@pytest.mark.parametrize(
    "argv, strict, csv_sha, trace_sha",
    [
        pytest.param(
            ["--tree", "median-split:n=4096,dim=8", "--weights", "geometric:bins=10,ratio=4", "--seed", "0",
             "--k", "5,10,20,40", "--runs", "10", "--max-queries", "2000"],
            False,
            "94754c84666c100d9c6997c8274607af8d89b3d246e8b6b8e188d5698a14e3da",
            "3387e29d7c2a6a639db5d7f1e82fab9cfe3e6279c1c0a1da0fdc9dd40f178158",
            id="readme",
        ),
        pytest.param(
            [*RUN_SMALL, "--radius", "hoeffding"],
            False,
            "caf15c3e7e8ac4e767fd849b429a6bd7b9ff4e4d8094d205a98bb5611acc5012",
            "76dcc965e462eaa9ef990b2a3afa06bad1bf5216dd8660bfb83bd3d9ca398f9e",
            id="hoeffding",
        ),
        pytest.param(
            [*RUN_SMALL, "--radius", "bernstein"],
            False,
            "d2e455620ef47de03166f8b844970e2277a9280a2089cb1783e65314324ac9af",
            "7c862ffa2e140ce839b92f2b7bc76f35fab9893a6174009c49265519e0eda85b",
            id="bernstein",
        ),
        pytest.param(
            RUN_CROSSOVER,
            False,
            "5fa75482bec258115da93787f6eca822450c3d52f4ee01553415b66e68c9d848",
            "f1bed59744bf10987b90a8343e55d9c3df2d460ecda076b22521d2d4a5fc268d",
            id="crossover",
        ),
        pytest.param(
            RUN_CROSSOVER,
            True,
            "c99a6def314aa6de2a37a6ab47e6d129f355ea5a076fd947e8e872a8c7b74288",
            "9347d03a52ba2e167008f055a18e51733744db0189dfc1eeb56cfb3a39e06ae3",
            id="strict-crossover",
        ),
        pytest.param(
            [*RUN_SMALL, "--radius", "bernstein"],
            True,
            "af6ce031dd517ffd18ed50e4429926482ca5a7afe8ebb3518169bca8f7020642",
            "009ef365c2b3d0c04777c2aff47862d8bb3e1ff8d7c63426236a1023ed9b7a9f",
            id="strict-bernstein",
        ),
    ],
)
def test_run_files_keep_their_digests(tmp_path, monkeypatch, argv, strict, csv_sha, trace_sha):
    # The sha256 of the CSV and trace files of fixed-seed sweeps, as run
    # wrote them before the Bernstein shortcut and the shared baseline
    # draw: the README sweep, and small sweeps in each radius mode, with
    # and without AWPKIT_STRICT_PAPER.
    if strict:
        monkeypatch.setenv("AWPKIT_STRICT_PAPER", "1")
    else:
        monkeypatch.delenv("AWPKIT_STRICT_PAPER", raising=False)
    csv, trace = tmp_path / "r.csv", tmp_path / "t.txt"
    assert main(["run", *argv, "--out", str(csv), "--trace-out", str(trace)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha


@pytest.mark.parametrize("n,code", [(64, 0), (1, 1)])
def test_scale_script(n, code):
    # With one leaf the weights spec fails, so synth exits 1 and the
    # other commands find no files; the script then exits 1.
    script = Path(__file__).resolve().parents[1] / "scripts" / "scale.py"
    proc = subprocess.run([sys.executable, str(script), "--n", str(n)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    line = json.loads(proc.stdout)
    assert line["n"] == n and list(line["commands"]) == ["synth", "inspect", "run"]
    exits = [c["exit"] for c in line["commands"].values()]
    assert exits == ([0, 0, 0] if code == 0 else [1, 2, 2])
    assert all(c["wall_s"] > 0 and c["peak_rss_mb"] > 0 for c in line["commands"].values())
    assert list(line["sha256"]) == ["tree", "weights", "csv"]
    if code == 0:
        assert all(len(digest) == 64 and set(digest) <= set("0123456789abcdef") for digest in line["sha256"].values())
    else:
        assert line["sha256"] == {"tree": None, "weights": None, "csv": None}


def load_pairs_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
    spec = importlib.util.spec_from_file_location("pairs", script)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def pairs_run(side, seed, wall, ops):
    metrics = {"wall_s": wall, "ops": ops, "awp_queries": 7, "awp_tv": 0.5}
    result = {"correct": True, "failed": 0, "metrics": {m: {"value": v} for m, v in metrics.items()}}
    return {"side": side, "workload": "w", "seed": seed, "failed": 0, "result": result}


PAIRS_METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.2},
    {"name": "ops", "better": "higher", "bound": 0.01},
]


def test_pairs_summary():
    # Two pairs and a failed run: medians, inclusive quartiles and PR wins
    # come from complete pairs only, with "better" taken from the metric.
    pairs = load_pairs_script()
    run = pairs_run
    runs = [run("parent", 1, 2.0, 5), run("pr", 1, 1.0, 5), run("pr", 2, 3.0, 5), run("parent", 2, 4.0, 5)]
    runs.append({"side": "pr", "workload": "w", "seed": 3, "failed": None, "result": None})
    summary = pairs.summarise(runs, PAIRS_METRICS)
    assert summary["wall_s"] == {
        "parent_median": 3.0,
        "pr_median": 2.0,
        "change": -0.3333,
        "pr_better_pairs": 2,
        "pairs": 2,
        "parent_q1_q3": [2.5, 3.5],
        "parent_iqr": 1.0,
        "pr_q1_q3": [1.5, 2.5],
        "pr_iqr": 1.0,
        # Two wins are short of the nine a gain needs.
        "gain_shown": False,
        "within_bound": True,
        # Both IQRs (1.0) pass 20% of the parent median (0.6), and the PR
        # side's 3.0 is worse than the parent side's 2.0.
        "unresolved": True,
    }
    assert summary["ops"]["pr_better_pairs"] == 0
    assert summary["ops_awp_queries_awp_tv_identical_per_seed"] is True
    assert summary["failed_total"] == 0 and summary["all_correct"] is False


@pytest.mark.parametrize(
    "pr_wall, pr_ops, wall_rules, ops_rules",
    [
        # Better in all ten pairs, by far more than the parent's spread;
        # equal ops in every pair count for neither side.
        pytest.param(lambda a: a - 0.5, lambda a: a, (10, True, True), (0, False, True), id="winning"),
        # Nine wins and one tie: a tie is not a win, so 9 and 1 pass but
        # 8 and 2 do not.
        pytest.param(
            lambda a: a if a == 1.0 else a - 0.5, lambda a: a + 10, (9, True, True), (10, True, True), id="nine-and-a-tie"
        ),
        pytest.param(
            lambda a: a if a <= 1.01 else a - 0.5, lambda a: a, (8, False, True), (0, False, True), id="eight-and-two-ties"
        ),
        # Better in every pair but by less than the parent's IQR.
        pytest.param(lambda a: a - 0.001, lambda a: a, (10, False, True), (0, False, True), id="inside-the-spread"),
        # 30% slower against a 20% bound, and 2% fewer ops against 1%.
        pytest.param(lambda a: a * 1.3, lambda a: a * 0.98, (0, False, False), (0, False, False), id="over-bound"),
        # 10% slower and 0.5% fewer ops stay within both bounds.
        pytest.param(lambda a: a * 1.1, lambda a: a * 0.995, (0, False, True), (0, False, True), id="within-bound"),
    ],
)
def test_pairs_acceptance_rules(pr_wall, pr_ops, wall_rules, ops_rules):
    # gain_shown needs 9 of 10 pairs won (ties count for neither side) and
    # a median gap above the parent's IQR; within_bound compares the PR
    # median with the parent's, by the metric's bound.
    pairs = load_pairs_script()
    runs = []
    for j in range(10):
        wall, ops = 1.0 + j / 100, 1000.0 + j
        runs += [pairs_run("parent", j, wall, ops), pairs_run("pr", j, pr_wall(wall), pr_ops(ops))]
    summary = pairs.summarise(runs, PAIRS_METRICS)
    for name, (wins, gain, bound) in (("wall_s", wall_rules), ("ops", ops_rules)):
        got = summary[name]
        assert (got["pr_better_pairs"], got["gain_shown"], got["within_bound"]) == (wins, gain, bound), name


@pytest.mark.parametrize("ties, gain", [(2, True), (3, False)])
def test_pairs_gain_share_over_twenty_pairs(ties, gain):
    # Over 20 pairs a gain needs 18 wins, 9 of every 10.
    pairs = load_pairs_script()
    runs = []
    for j in range(20):
        wall = 1.0 + j / 100
        runs += [pairs_run("parent", j, wall, 5), pairs_run("pr", j, wall if j < ties else wall - 0.5, 5)]
    got = pairs.summarise(runs, PAIRS_METRICS)["wall_s"]
    assert (got["pairs"], got["pr_better_pairs"], got["gain_shown"]) == (20, 20 - ties, gain)


SPREAD_SMALL = [1.0 + j / 100 for j in range(10)]
SPREAD_WIDE = [0.5 + j / 5 for j in range(10)]


@pytest.mark.parametrize(
    "parent_walls, pr_walls, lower_is_better, higher_is_better",
    [
        # Both IQRs within 20% of the parent median: resolved either way.
        pytest.param(SPREAD_SMALL, [x + 0.1 for x in SPREAD_SMALL], False, False, id="tight"),
        # The parent's IQR (0.9) passes 20% of its median (1.4).
        pytest.param(SPREAD_WIDE, [1.0] * 10, True, True, id="wide-parent"),
        # The PR's IQR passes the bound while the parent's stays tight.
        pytest.param([1.0] * 10, SPREAD_WIDE, True, True, id="wide-pr"),
        # Wide, and every PR run is below every parent run: resolved only
        # where lower is better.
        pytest.param([x + 2.0 for x in SPREAD_WIDE], SPREAD_WIDE, False, True, id="pr-below"),
        pytest.param(SPREAD_WIDE, [x + 2.0 for x in SPREAD_WIDE], True, False, id="pr-above"),
        # The PR side's highest run equals the parent side's lowest.
        pytest.param([x + 1.8 for x in SPREAD_WIDE], SPREAD_WIDE, True, True, id="touching"),
    ],
)
def test_pairs_unresolved_flag(parent_walls, pr_walls, lower_is_better, higher_is_better):
    # A metric is unresolved when either side's IQR passes its bound times
    # the parent median, unless every PR run is better than every parent
    # run, in the metric's direction.
    pairs = load_pairs_script()
    runs = []
    for j, (a, b) in enumerate(zip(parent_walls, pr_walls)):
        runs += [pairs_run("parent", j, a, 5), pairs_run("pr", j, b, 5)]
    for better, want in (("lower", lower_is_better), ("higher", higher_is_better)):
        summary = pairs.summarise(runs, [{"name": "wall_s", "better": better, "bound": 0.2}, PAIRS_METRICS[1]])
        assert summary["wall_s"]["unresolved"] is want, better
        # A metric that repeats exactly has no spread.
        assert summary["ops"]["unresolved"] is False


def test_pairs_checkout_state(tmp_path):
    # The PR side is recorded as its HEAD commit and whether its files
    # differ from it: an ignored file does not count, an untracked or a
    # changed tracked file does.
    pairs = load_pairs_script()

    def git(*args):
        cmd = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
        return subprocess.run(cmd, cwd=tmp_path, check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("out/\n")
    (tmp_path / "a.txt").write_text("a\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "HEAD")
    assert pairs.checkout_state(str(tmp_path)) == (head, False)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run.json").write_text("{}\n")
    assert pairs.checkout_state(str(tmp_path)) == (head, False)
    (tmp_path / "b.txt").write_text("b\n")
    assert pairs.checkout_state(str(tmp_path)) == (head, True)
    (tmp_path / "b.txt").unlink()
    (tmp_path / "a.txt").write_text("changed\n")
    assert pairs.checkout_state(str(tmp_path)) == (head, True)


def test_every_spec_kind_is_documented():
    # The README table lists each kind with the parameters and defaults of
    # the spec table, and the module docstring and --help name every kind.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Source specs"):readme.index("### Flags")]
    rows = {line.split("|")[1].strip(): line for line in section.splitlines() if line.startswith("| `")}
    usage = build_parser().format_help()
    for kind, (defaults, *_) in cli_mod._SPECS.items():
        names = [name if isinstance(d, type) else f"{name}={d}" for name, d in defaults.items()]
        cells = [cell.strip() for cell in rows.pop(f"`{kind}`").split("|")]
        assert ", ".join(f"`{name}`" for name in names) in cells
        assert kind in cli_mod.__doc__
        assert f"  {kind}:{','.join(names)}\n" in usage
    assert not rows


@pytest.mark.parametrize(
    "argv",
    [
        ["--tree", "tightness:n=8", "--k", "8", "--runs", "1", "--algorithms", "awp"],
        [
            "--tree", "random-balanced:n=200",
            "--weights", "geometric:bins=4,ratio=2,layout=contiguous",
            "--k", "4,8", "--runs", "3", "--seed", "5",
        ],
    ],
    ids=["tightness", "contiguous-bins"],
)
def test_uncapped_run_ends(tmp_path, argv):
    # Both targets have zero-discrepancy nodes, which split only once their
    # own draws cover them; the subprocess timeout keeps a run that does
    # not end from hanging the suite.
    code = "import sys, awpkit.cli; sys.exit(awpkit.cli.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", *argv, "--out", "out.csv"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    details, _ = parse_results((tmp_path / "out.csv").read_text(encoding="utf-8"))
    awp = [row for row in details if row[0] == "awp"]
    assert awp and all(row[5] == row[1] - 1 for row in awp), "a run stopped short of size k"


def test_runtime_imports_no_numpy(tmp_path):
    # numpy is a test-only dependency: the package must import and run a
    # sweep with numpy made unimportable.
    code = """
import sys
sys.modules["numpy"] = None
import awpkit
import awpkit.cli
sys.exit(awpkit.cli.main([
    "run", "--tree", "random-balanced:n=64", "--weights", "geometric:bins=4,ratio=3",
    "--k", "3,5", "--runs", "2", "--max-queries", "120", "--out", "out.csv",
]))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    details, _ = parse_results((tmp_path / "out.csv").read_text(encoding="utf-8"))
    assert len(details) == 2 * 2 * len(ALGORITHMS)
