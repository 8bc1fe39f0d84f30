"""Command-line interface: source specs, experiment sweeps, CSV and trace
formats, file round trips, and exit codes."""

from __future__ import annotations

import subprocess
import sys
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
from awpkit.fileio import dump_tree, dump_weights, dumps_tree, load_tree, load_weights
from awpkit.tree import FileFormatError, HierTree, WeightTable


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
        for row, (alg, k, r, lines) in zip(out.details, out.traces):
            assert row[:3] == (alg, k, r)
            assert row[4] == sum(1 for ln in lines if ln.startswith("SAMPLE "))
            assert row[5] == sum(1 for ln in lines if ln.startswith("SPLIT "))

    def test_converts_the_truth_once(self, monkeypatch):
        # The sweep scores every row against the oracle's own leaf-order
        # list instead of converting the label-keyed target again, and the
        # oracle's prefix sums are built once, not once per (k, run) cell.
        calls = {"_leaf_values": 0, "span_sums": 0}
        for name in calls:
            original = getattr(tree_mod, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(tree_mod, name, counted)
            monkeypatch.setattr(oracle_mod, name, counted)
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
        out = run_experiment(self.small_config(algorithms=("awp", "uniform")))
        assert {row[0] for row in out.details} == {"awp", "uniform"}
        assert len(out.details) == 2 * 2


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

    @pytest.mark.parametrize("flag,value", [("--delta", "2"), ("--beta", "1"), ("--max-queries", "-1")])
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
        "tree_src,weights_src",
        [
            ("random-balanced:n=64", "geometric:bins=100,ratio=4"),
            ("random-balanced:n=64", "geometric:bins=100,ratio=4,layout=contiguous"),
            ("random-balanced:n=64", "geometric:bins=4,ratio=1"),
            ("random-balanced:n=0", "geometric:bins=2,ratio=2"),
            ("median-split:n=64,dim=0", "geometric:bins=2,ratio=2"),
            ("random-balanced:n=16", "geometric:bins=2,ratio=inf"),
            ("random-balanced:n=16", "geometric:bins=2,ratio=1e308"),
            ("random-balanced:n=16", "geometric:bins=3,ratio=1e308"),
            ("median-split:n=64,dimm=3", "geometric:bins=2,ratio=2"),
            ("median-split:n=64,n=32", "geometric:bins=2,ratio=2"),
            ("tightness:n=8,k=3", "geometric:bins=2,ratio=2"),
            ("random-balanced:n=64", "geometric:bins=4,ratio=2,layot=contiguous"),
            ("random-balanced:n=64", "geometric:bins=4,ratio=2,ratio=3"),
            ("random-balanced:n=8", "geometric:bins=100,ratio=2"),
        ],
    )
    def test_exit_code_1_bad_generator_parameters(self, tmp_path, capsys, tree_src, weights_src):
        rc = main([
            "run",
            "--tree", tree_src,
            "--weights", weights_src,
            "--k", "2",
            "--runs", "1",
            "--max-queries", "10",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        rc = main([
            "synth", tree_src,
            "--weights", weights_src,
            "--out-tree", str(tmp_path / "t.hwt"),
            "--out-weights", str(tmp_path / "w.txt"),
        ])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "t.hwt").exists()

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

    def test_exit_code_2_infeasible_k(self, tmp_path):
        # k exceeding the leaf count surfaces as invalid input, not a crash.
        tree_path, w_path = write_quad(tmp_path)
        rc = main([
            "run",
            "--tree", tree_path,
            "--weights", w_path,
            "--k", "50",
            "--max-queries", "10",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2

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


def test_every_spec_kind_is_documented():
    # The README table lists each kind with the parameters and defaults of
    # the spec table, and the module docstring and --help name every kind.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Source specs"):readme.index("### Flags")]
    rows = {line.split("|")[1].strip(): line for line in section.splitlines() if line.startswith("| `")}
    usage = build_parser().format_help()
    for kind, (defaults, _) in cli_mod._SPECS.items():
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
