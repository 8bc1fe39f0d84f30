"""Command-line interface: run experiments, synthesize instances, inspect.

Subcommands::

    awpkit run --tree SRC [--weights SRC] --k 5,10 --runs 10 --out results.csv
    awpkit synth SPEC --out-tree tree.hwt [--weights SRC --out-weights w.txt]
    awpkit inspect --tree tree.hwt --weights w.txt

A tree SRC is either a path to an HWT file or a generator spec such as
``median-split:n=4096,dim=8``, ``random-balanced:n=64``, ``tightness:n=8``,
``greedy-trap-a:k=4``, ``greedy-trap-b:k=4``, ``lookahead-trap:heavy=3,depth=6``
or ``heavy-leaf:n=100``.  A weights SRC is a path to a weight file or
``geometric:bins=10,ratio=4[,layout=shuffled|contiguous]``.  Constructions
carry their own weights, so --weights may be omitted for them.

Exit codes: 0 success, 1 usage error, 2 unreadable or invalid input file,
3 internal invariant breach or any other internal error.  Repeated
invocations with identical flags produce byte-identical CSV and trace
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from math import fsum

from awpkit.adversarial import Construction
from awpkit.baselines import match_budget, run_empirical, run_uniform, run_weight
from awpkit.engine import EngineConfig, normalized_distance, run_awp
from awpkit.fileio import dump_tree, dump_weights, load_tree, load_weights
from awpkit.oracle import (
    Oracle,
    TargetSpec,
    build_median_split_tree,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
    random_features,
)
from awpkit.tree import (
    FileFormatError,
    HierTree,
    InvariantError,
    TreeStructureError,
    WeightTable,
    _leaf_values,
    average_split_quality,
    node_discrepancies,
    split_quality,
)

ALGORITHMS = ("awp", "weight", "uniform", "empirical")
_BASELINE_RUNNERS = {"weight": run_weight, "uniform": run_uniform, "empirical": run_empirical}
_TREE_KINDS = ("median-split", "random-balanced") + Construction._KINDS

DETAIL_HEADER = "algorithm,k,run,normalized_distance,basic_queries,node_queries"
AGGREGATE_HEADER = "algorithm,k,mean,min,max"


class UsageError(Exception):
    pass


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not text:
        return params
    for chunk in text.split(","):
        if "=" not in chunk:
            raise UsageError(f"bad parameter {chunk!r}, expected name=value")
        name, value = chunk.split("=", 1)
        params[name.strip()] = value.strip()
    return params


def _int_param(params: dict[str, str], name: str, default: int | None = None) -> int:
    if name not in params:
        if default is None:
            raise UsageError(f"missing required parameter {name!r}")
        return default
    try:
        return int(params[name])
    except ValueError:
        raise UsageError(f"parameter {name!r} must be an integer, got {params[name]!r}") from None


def _split_spec(src: str) -> tuple[str, dict[str, str]] | None:
    head, _, rest = src.partition(":")
    if head in _TREE_KINDS or head == "geometric":
        return head, _parse_params(rest)
    return None


def make_tree_source(src: str, seed: int) -> tuple[HierTree, WeightTable | None]:
    """Resolve a tree source to a tree, plus weights when the source is a
    construction that defines them."""
    spec = _split_spec(src)
    if spec is None:
        return load_tree(src), None
    kind, params = spec
    if kind == "median-split":
        n = _int_param(params, "n")
        dim = _int_param(params, "dim", 8)
        labels = [f"x{i:06d}" for i in range(n)]
        try:
            return build_median_split_tree(random_features(labels, dim, seed), seed), None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "random-balanced":
        n = _int_param(params, "n")
        labels = [f"x{i:06d}" for i in range(n)]
        try:
            return build_random_balanced_tree(labels, seed), None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "geometric":
        raise UsageError("geometric is a weights source, not a tree source")
    cparams: dict[str, int] = {}
    for name in ("k", "n", "heavy", "depth"):
        if name in params:
            cparams[name] = _int_param(params, name)
    try:
        tree, weights = Construction(kind, cparams).build()
    except KeyError as exc:
        raise UsageError(f"construction {kind!r} is missing parameter {exc.args[0]!r}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return tree, weights


def make_target_source(src: str, tree: HierTree, seed: int) -> WeightTable:
    spec = _split_spec(src)
    if spec is None:
        return load_weights(src)
    kind, params = spec
    if kind != "geometric":
        raise UsageError(f"{kind!r} is a tree source, not a weights source")
    n_bins = _int_param(params, "bins")
    try:
        ratio = float(params.get("ratio", ""))
    except ValueError:
        raise UsageError(f"parameter 'ratio' must be a number, got {params.get('ratio')!r}") from None
    layout = params.get("layout", "shuffled")
    try:
        if layout == "contiguous":
            tspec = TargetSpec("geometric-bins", ratio=ratio, bins=leaf_order_bins(tree, n_bins))
        elif layout == "shuffled":
            tspec = TargetSpec("geometric-bins", n_bins=n_bins, ratio=ratio)
        else:
            raise UsageError(f"layout must be shuffled or contiguous, got {layout!r}")
        return make_geometric_target(tree, tspec, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@dataclass
class ExperimentConfig:
    """One experiment: a tree, a target, and a sweep over pruning sizes."""

    tree_source: str
    target_source: str | None
    k_values: tuple[int, ...]
    runs: int = 10
    delta: float = 0.05
    beta: float = 4.0
    radius_mode: str = "min"
    seed: int = 0
    algorithms: tuple[str, ...] = ALGORITHMS
    max_basic_queries: int | None = None
    strict_paper: bool = False

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("need at least one k value")
        for k in self.k_values:
            self.engine_config(k, self.seed)
        if self.runs < 1:
            raise ValueError("runs must be positive")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms {bad}, expected subset of {ALGORITHMS}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")

    def engine_config(self, k: int, seed: int) -> EngineConfig:
        """Engine parameters of one (k, run) cell."""
        return EngineConfig(
            k=k,
            delta=self.delta,
            beta=self.beta,
            seed=seed,
            radius_mode=self.radius_mode,
            max_basic_queries=self.max_basic_queries,
            strict_paper=self.strict_paper,
        )


@dataclass
class ExperimentOutput:
    details: list[tuple] = field(default_factory=list)
    aggregates: list[tuple] = field(default_factory=list)
    traces: list[tuple] = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Run the sweep.  Every run r uses seed config.seed + r; baselines are
    given exactly the budget the adaptive run spent for the same (k, run)."""
    tree, built_weights = make_tree_source(config.tree_source, config.seed)
    if config.target_source is not None:
        truth = make_target_source(config.target_source, tree, config.seed)
    elif built_weights is not None:
        truth = built_weights
    else:
        raise UsageError("this tree source defines no weights; pass --weights")

    truth_vals = _leaf_values(tree, truth)
    algs = tuple(a for a in ALGORITHMS if a in config.algorithms)
    out = ExperimentOutput()
    per_alg_k: dict[tuple[str, int], list[float]] = {}
    for k in config.k_values:
        for r in range(config.runs):
            run_seed = config.seed + r
            awp_res = run_awp(tree, Oracle(tree, truth), config.engine_config(k, run_seed))
            budget = match_budget(awp_res)
            # A capped adaptive run may stop short of k; baselines then
            # target the size it actually reached so budgets stay equal.
            k_reached = len(awp_res.pruning)
            for alg in algs:
                if alg == "awp":
                    res = awp_res
                else:
                    res = _BASELINE_RUNNERS[alg](tree, Oracle(tree, truth), k_reached, budget, run_seed)
                nd = normalized_distance(res, truth_vals)
                out.details.append((alg, k, r, nd, res.ledger.basic_queries, res.ledger.node_queries))
                out.traces.append((alg, k, r, res.trace_lines()))
                per_alg_k.setdefault((alg, k), []).append(nd)
    order = {alg: i for i, alg in enumerate(ALGORITHMS)}
    out.details.sort(key=lambda row: (order[row[0]], row[1], row[2]))
    out.traces.sort(key=lambda row: (order[row[0]], row[1], row[2]))
    for alg in algs:
        for k in config.k_values:
            nds = per_alg_k[(alg, k)]
            out.aggregates.append((alg, k, fsum(nds) / len(nds), min(nds), max(nds)))
    out.aggregates.sort(key=lambda row: (order[row[0]], row[1]))
    return out


def format_csv(output: ExperimentOutput) -> str:
    lines = [DETAIL_HEADER]
    for alg, k, r, nd, bq, nq in output.details:
        lines.append(f"{alg},{k},{r},{nd!r},{bq},{nq}")
    lines.append(AGGREGATE_HEADER)
    for alg, k, mean, mn, mx in output.aggregates:
        lines.append(f"{alg},{k},{mean!r},{mn!r},{mx!r}")
    return "\n".join(lines) + "\n"


def parse_results(text: str) -> tuple[list[tuple], list[tuple]]:
    """Inverse of format_csv, for programmatic consumption of result files."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != DETAIL_HEADER:
        raise FileFormatError("missing detail header")
    details: list[tuple] = []
    aggregates: list[tuple] = []
    section = details
    for ln in lines[1:]:
        if ln == AGGREGATE_HEADER:
            section = aggregates
            continue
        parts = ln.split(",")
        if section is details:
            if len(parts) != 6:
                raise FileFormatError(f"bad detail row {ln!r}")
            details.append(
                (parts[0], int(parts[1]), int(parts[2]), float(parts[3]), int(parts[4]), int(parts[5]))
            )
        else:
            if len(parts) != 5:
                raise FileFormatError(f"bad aggregate row {ln!r}")
            aggregates.append((parts[0], int(parts[1]), float(parts[2]), float(parts[3]), float(parts[4])))
    return details, aggregates


def format_traces(output: ExperimentOutput) -> str:
    lines = []
    for alg, k, r, trace in output.traces:
        lines.append(f"# {alg} k={k} run={r}")
        lines.extend(trace)
    return "\n".join(lines) + "\n"


def _env_strict_paper() -> bool:
    return os.environ.get("AWPKIT_STRICT_PAPER", "") == "1"


def cmd_run(args: argparse.Namespace) -> int:
    try:
        k_values = tuple(int(x) for x in args.k.split(","))
        algorithms = tuple(args.algorithms.split(","))
    except ValueError:
        raise UsageError(f"--k must be a comma list of integers, got {args.k!r}") from None
    try:
        config = ExperimentConfig(
            tree_source=args.tree,
            target_source=args.weights,
            k_values=k_values,
            runs=args.runs,
            delta=args.delta,
            beta=args.beta,
            radius_mode=args.radius,
            seed=args.seed,
            algorithms=algorithms,
            max_basic_queries=args.max_queries,
            strict_paper=_env_strict_paper(),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    output = run_experiment(config)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_csv(output))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(format_traces(output))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if _split_spec(args.spec) is None:
        raise UsageError(f"synth needs a generator spec, got {args.spec!r}")
    tree, built_weights = make_tree_source(args.spec, args.seed)
    dump_tree(tree, args.out_tree)
    if args.out_weights:
        if args.weights:
            weights = make_target_source(args.weights, tree, args.seed)
        elif built_weights is not None:
            weights = built_weights
        else:
            raise UsageError("this spec defines no weights; pass --weights to synthesize some")
        dump_weights(weights, args.out_weights)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    weights = load_weights(args.weights)
    disc = node_discrepancies(tree, weights)
    sq = split_quality(tree, disc)
    asq = average_split_quality(tree, disc)
    print(f"leaves: {tree.leaf_count_total}")
    print(f"depth: {tree.max_depth}")
    print(f"total_weight: {weights.total()!r}")
    print(f"split_quality: {'n/a' if sq is None else repr(sq)}")
    print(f"average_split_quality: {'n/a' if asq is None else repr(asq)}")
    print(f"root_discrepancy: {disc[tree.root_id]!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="awpkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep and write a CSV")
    p_run.add_argument("--tree", required=True, help="HWT file or tree generator spec")
    p_run.add_argument("--weights", default=None, help="weight file or geometric spec")
    p_run.add_argument("--k", required=True, help="comma list of pruning sizes")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--delta", type=float, default=0.05)
    p_run.add_argument("--beta", type=float, default=4.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--radius", choices=("hoeffding", "bernstein", "min"), default="min")
    p_run.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p_run.add_argument("--max-queries", type=int, default=None, help="cap on basic queries per run")
    p_run.add_argument("--out", required=True, help="CSV output path")
    p_run.add_argument("--trace-out", default=None, help="optional trace output path")
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="generate a tree (and weights) to files")
    p_synth.add_argument("spec", help="tree generator spec")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--weights", default=None, help="weights spec for the generated tree")
    p_synth.add_argument("--out-tree", required=True)
    p_synth.add_argument("--out-weights", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_ins = sub.add_parser("inspect", help="print summary statistics of an instance")
    p_ins.add_argument("--tree", required=True)
    p_ins.add_argument("--weights", required=True)
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (FileFormatError, TreeStructureError, OSError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
