"""Command-line interface: run experiments, synthesize instances, inspect.

Subcommands::

    awpkit run --tree SRC [--weights SRC] --k 5,10 --runs 10 --out results.csv
    awpkit synth SPEC --out-tree tree.hwt [--weights SRC --out-weights w.txt]
    awpkit inspect --tree tree.hwt --weights w.txt

A tree SRC is either a path to an HWT file or a generator spec
``kind:name=value,...`` of kind median-split, random-balanced, tightness,
greedy-trap-a, greedy-trap-b, lookahead-trap or heavy-leaf.  A weights SRC
is a path to a weight file or a geometric spec, whose layout is shuffled
(the default) or contiguous.  The constructions (every tree kind but
median-split and random-balanced) carry their own weights, so --weights
may be omitted for them.  The end of ``awpkit --help`` lists each kind's
parameters with their defaults; a parameter without one is required, and
an unknown or repeated parameter is a usage error.

Exit codes: 0 success, 1 usage error, 2 unreadable or invalid input file,
3 internal invariant breach or any other internal error.  Repeated
invocations with identical flags produce byte-identical CSV and trace
output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from math import fsum

from awpkit.adversarial import (
    build_greedy_trap_a,
    build_greedy_trap_b,
    build_heavy_leaf,
    build_lookahead_trap,
    build_tightness,
)
from awpkit.baselines import BaselineCell, run_empirical, run_uniform, run_weight
from awpkit.engine import EngineConfig, PruningResult, normalized_distance, run_awp
from awpkit.estimator import RADIUS_MODES
from awpkit.fileio import dump_tree, dump_weights, load_tree, load_weights
from awpkit.oracle import (
    FeatureColumns,
    Oracle,
    TargetSpec,
    build_median_split_tree,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
)
from awpkit.tree import (
    FileFormatError,
    HierTree,
    InvariantError,
    TreeStructureError,
    WeightTable,
    _split_qualities,
    node_discrepancies,
)

ALGORITHMS = ("awp", "weight", "uniform", "empirical")
_BASELINE_RUNNERS = {"weight": run_weight, "uniform": run_uniform, "empirical": run_empirical}


def _render_trace(res: PruningResult, leaf_texts: dict[str, str]) -> str:
    """An adaptive result's trace text; a baseline's is its cell's
    ``trace_text``, which renders the cell's SAMPLE block once."""
    return "\n".join(res.trace_lines(leaf_texts))

DETAIL_HEADER = "algorithm,k,run,normalized_distance,basic_queries,node_queries"
AGGREGATE_HEADER = "algorithm,k,mean,min,max"


class UsageError(Exception):
    pass


# Caps on a generated instance, checked before anything is allocated: its
# leaf count, and for median-split its n * dim feature draws.  They admit
# 2**22 leaves at dim=8.
MAX_LEAVES = 1 << 22
MAX_DRAWS = 1 << 25


# The last three digits of the labels, shared by every thousand of them.
_TAILS = [f"{t:03d}" for t in range(1000)]


def _labels(n: int) -> list[str]:
    """The labels ``f"x{i:06d}"`` of a median-split or random-balanced
    instance of n leaves, for i in 0..n-1.  Label i is the head
    ``f"x{i // 1000:03d}"`` followed by the tail ``f"{i % 1000:03d}"``, so
    each thousand of labels joins one head to the shared tails in a
    C-level ``map``, with no format call per label; the list is cut at
    n."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    labels: list[str] = []
    for j in range((n + 999) // 1000):
        labels += map(f"x{j:03d}".__add__, _TAILS)
    del labels[n:]
    return labels


def _geometric(tree: HierTree, seed: int, bins: int, ratio: float, layout: str) -> WeightTable:
    if layout == "contiguous":
        spec = TargetSpec("geometric-bins", ratio=ratio, bins=leaf_order_bins(tree, bins))
    elif layout == "shuffled":
        spec = TargetSpec("geometric-bins", n_bins=bins, ratio=ratio)
    else:
        raise ValueError(f"layout must be shuffled or contiguous, got {layout!r}")
    return make_geometric_target(tree, spec, seed)


# The spec language: each generator kind's parameters, builder and size.  A
# parameter maps to its default or, when it is required, to its type.  A
# tree kind's builder takes (seed, **params) and returns the tree and its
# weights (None unless the kind is a construction); the weights kind
# geometric takes (tree, seed, **params) and returns weights.  Builders
# look generators up as module globals on every call.  A tree kind's size
# takes its params and gives (leaves, feature draws) for the caps; a value
# that its builder refuses may give any size within them.
_SPECS = {
    "median-split": (
        {"n": int, "dim": 8},
        lambda seed, n, dim: (build_median_split_tree(FeatureColumns(_labels(n), dim, seed), seed), None),
        lambda n, dim: (n, n * dim),
    ),
    "random-balanced": (
        {"n": int},
        lambda seed, n: (build_random_balanced_tree(_labels(n), seed), None),
        lambda n: (n, 0),
    ),
    "tightness": ({"n": int}, lambda seed, n: build_tightness(n)[:2], lambda n: (n + 2, 0)),
    "greedy-trap-a": ({"k": int}, lambda seed, k: build_greedy_trap_a(k), lambda k: (3 * k + 2, 0)),
    "greedy-trap-b": ({"k": int}, lambda seed, k: build_greedy_trap_b(k), lambda k: (4 * k - 1, 0)),
    "lookahead-trap": (
        {"heavy": int, "depth": int},
        lambda seed, heavy, depth: build_lookahead_trap(heavy, depth),
        # The builder refuses a depth outside 1..25 itself.
        lambda heavy, depth: (2 * 3**depth + 4 if 1 <= depth <= 25 else 0, 0),
    ),
    "heavy-leaf": ({"n": int}, lambda seed, n: build_heavy_leaf(n), lambda n: (n, 0)),
    "geometric": ({"bins": int, "ratio": float, "layout": "shuffled"}, _geometric, None),
}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def _parse_spec(src: str, role: str) -> tuple[Callable, dict[str, object]] | None:
    """The builder and parameters of a generator spec ``kind:name=value,...``
    in role "tree" or "weights", or None when src names no generator kind."""
    kind, _, text = src.partition(":")
    if kind not in _SPECS:
        return None
    kind_role = "weights" if kind == "geometric" else "tree"
    if kind_role != role:
        raise UsageError(f"{kind!r} is a {kind_role} source, not a {role} source")
    defaults, builder, size = _SPECS[kind]
    given: dict[str, str] = {}
    for chunk in text.split(",") if text else ():
        name, eq, value = chunk.partition("=")
        name = name.strip()
        if not eq:
            raise UsageError(f"bad parameter {chunk!r}, expected name=value")
        if name not in defaults:
            raise UsageError(f"unknown parameter {name!r} for {kind}, expected one of {', '.join(defaults)}")
        if name in given:
            raise UsageError(f"parameter {name!r} is given more than once")
        given[name] = value.strip()
    params = {}
    for name, default in defaults.items():
        convert = default if isinstance(default, type) else type(default)
        if name in given:
            try:
                params[name] = convert(given[name])
            except ValueError:
                raise UsageError(f"parameter {name!r} must be {_TYPE_NAMES[convert]}, got {given[name]!r}") from None
        elif convert is default:
            raise UsageError(f"missing required parameter {name!r} for {kind}")
        else:
            params[name] = default
    if size is not None:
        leaves, draws = size(**params)
        if leaves > MAX_LEAVES:
            raise UsageError(f"{kind} would have {leaves} leaves, above the cap of {MAX_LEAVES}")
        if draws > MAX_DRAWS:
            raise UsageError(f"{kind} would draw n*dim = {draws} features, above the cap of {MAX_DRAWS}")
    return builder, params


def make_tree_source(src: str, seed: int) -> tuple[HierTree, WeightTable | None]:
    """Resolve a tree source to a tree, plus weights when the source is a
    construction that defines them."""
    spec = _parse_spec(src, "tree")
    if spec is None:
        return load_tree(src), None
    builder, params = spec
    try:
        return builder(seed, **params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def make_target_source(src: str, tree: HierTree, seed: int) -> WeightTable:
    spec = _parse_spec(src, "weights")
    if spec is None:
        return load_weights(src)
    builder, params = spec
    try:
        return builder(tree, seed, **params)
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
    # False leaves ExperimentOutput.traces empty: no trace text is
    # rendered, as when `run` writes no trace file.
    traces: bool = True

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("need at least one k value")
        if len(set(self.k_values)) != len(self.k_values):
            raise ValueError(f"k values must be distinct, got {','.join(map(str, self.k_values))}")
        for k in self.k_values:
            self.engine_config(k, self.seed)
        if self.runs < 1:
            raise ValueError("runs must be positive")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms {bad}, expected subset of {ALGORITHMS}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"algorithms must be distinct, got {','.join(self.algorithms)}")

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
    """A sweep's CSV rows and traces.  Each trace is (alg, k, run, text),
    where text is the result's trace lines joined by newlines, so a sweep
    keeps one string per result rather than one per event.  ``traces`` is
    empty when the config's ``traces`` is False."""

    details: list[tuple] = field(default_factory=list)
    aggregates: list[tuple] = field(default_factory=list)
    traces: list[tuple] = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Run the sweep.  Every run r uses seed config.seed + r; baselines are
    given exactly the basic queries the adaptive run spent for the same
    (k, run), and split to the size it reached."""
    tree, built_weights = make_tree_source(config.tree_source, config.seed)
    n = tree.leaf_count_total
    if n < 2:
        raise UsageError("the tree has 1 leaf; a search needs at least 2")
    if max(config.k_values) > n:
        raise UsageError(f"k must be in 2..{n} for this tree, got {max(config.k_values)}")
    if config.target_source is not None:
        truth = make_target_source(config.target_source, tree, config.seed)
    elif built_weights is not None:
        truth = built_weights
    else:
        raise UsageError("this tree source defines no weights; pass --weights")

    oracle = Oracle(tree, truth)
    algs = tuple(a for a in ALGORITHMS if a in config.algorithms)
    out = ExperimentOutput()
    # One oracle answers every query of the sweep, so each leaf's
    # "label weight" text is rendered once and shared by all traces.
    leaf_texts: dict[str, str] = {}
    per_alg_k: dict[tuple[str, int], list[float]] = {}
    for k in config.k_values:
        for r in range(config.runs):
            run_seed = config.seed + r
            awp_res = run_awp(tree, oracle, config.engine_config(k, run_seed))
            # A capped adaptive run may stop short of k; baselines then
            # target the size it actually reached, with the basic queries it
            # spent, so spends stay equal.
            k_reached = len(awp_res.pruning)
            basic = awp_res.ledger.basic_queries
            # The baselines of the cell share one draw (see awpkit.baselines).
            cell = BaselineCell(tree, oracle, basic, run_seed) if algs != ("awp",) else None
            for alg in algs:
                if alg == "awp":
                    res = awp_res
                    render = _render_trace
                else:
                    res = _BASELINE_RUNNERS[alg](cell, k_reached)
                    render = cell.trace_text
                nd = normalized_distance(res, truth)
                out.details.append((alg, k, r, nd, res.ledger.basic_queries, res.ledger.node_queries))
                if config.traces:
                    out.traces.append((alg, k, r, render(res, leaf_texts)))
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


def _trace_chunks(output: ExperimentOutput) -> Iterator[str]:
    """The trace file in pieces: each result's ``# alg k=K run=R`` header
    line, then its trace text, if it has any, each ending in a newline."""
    for alg, k, r, text in output.traces:
        yield f"# {alg} k={k} run={r}\n"
        if text:
            yield text + "\n"


def format_traces(output: ExperimentOutput) -> str:
    """The trace file's text; ``run --trace-out`` writes the same pieces
    one by one, so the file's text is never held whole."""
    return "".join(_trace_chunks(output))


def _env_strict_paper() -> bool:
    return os.environ.get("AWPKIT_STRICT_PAPER", "") == "1"


@contextlib.contextmanager
def _all_or_none():
    """Yield ``stage``, which maps an output path to a temporary file
    beside it to write instead.  When the block succeeds, each temporary
    file replaces its output, in staging order; when it raises, they are
    all removed, so a failed command leaves no output file, new or
    overwritten.  An error on a temporary file names its output path."""
    staged: dict[str, str] = {}

    def stage(path: str) -> str:
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}-{len(staged)}.tmp")
        staged[tmp] = path
        return tmp

    try:
        yield stage
        for tmp, path in staged.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in staged:
            exc.filename = staged[exc.filename]
        raise


def _check_outputs(flag_a: str, path_a: str, flag_b: str, path_b: str | None) -> None:
    """Refuse an output flag that names an existing directory, which no
    output file can replace, and two output flags that name one file,
    where the later write would replace the earlier one."""
    for flag, path in ((flag_a, path_a), (flag_b, path_b)):
        if path and os.path.isdir(path):
            raise UsageError(f"{flag} names a directory {path!r}")
    if path_b and os.path.realpath(path_a) == os.path.realpath(path_b):
        raise UsageError(f"{flag_a} and {flag_b} name the same file {path_b!r}")


def cmd_run(args: argparse.Namespace) -> int:
    _check_outputs("--out", args.out, "--trace-out", args.trace_out)
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
            traces=bool(args.trace_out),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    output = run_experiment(config)
    with _all_or_none() as stage:
        with open(stage(args.out), "w", encoding="utf-8") as fh:
            fh.write(format_csv(output))
        if args.trace_out:
            with open(stage(args.trace_out), "w", encoding="utf-8") as fh:
                fh.writelines(_trace_chunks(output))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    _check_outputs("--out-tree", args.out_tree, "--out-weights", args.out_weights)
    if _parse_spec(args.spec, "tree") is None:
        raise UsageError(f"synth needs a generator spec, got {args.spec!r}")
    if args.weights is not None and not args.out_weights:
        raise UsageError("--weights needs --out-weights")
    # Resolve everything before writing, so a failed synth writes no file.
    tree, weights = make_tree_source(args.spec, args.seed)
    if args.weights is not None:
        weights = make_target_source(args.weights, tree, args.seed)
    if args.out_weights and weights is None:
        raise UsageError("this spec defines no weights; pass --weights to synthesize some")
    with _all_or_none() as stage:
        if args.out_weights:
            dump_weights(weights, stage(args.out_weights))
            # Free the weights before the tree's text is built, so that
            # synth never holds both at once.
            del weights
        dump_tree(tree, stage(args.out_tree))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    weights = load_weights(args.weights)
    disc = node_discrepancies(tree, weights)
    sq, asq = _split_qualities(tree, disc)
    print(f"leaves: {tree.leaf_count_total}")
    print(f"depth: {tree.max_depth}")
    print(f"total_weight: {weights.total()!r}")
    print(f"split_quality: {'n/a' if sq is None else repr(sq)}")
    print(f"average_split_quality: {'n/a' if asq is None else repr(asq)}")
    print(f"root_discrepancy: {disc[tree.root_id]!r}")
    return 0


def _spec_help() -> str:
    lines = ["generator specs (a parameter without =default is required):"]
    for kind, (defaults, *_) in _SPECS.items():
        names = (name if isinstance(d, type) else f"{name}={d}" for name, d in defaults.items())
        lines.append(f"  {kind}:{','.join(names)}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="awpkit", description=__doc__, epilog=_spec_help(), formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep and write a CSV")
    p_run.add_argument("--tree", required=True, help="HWT file or tree generator spec")
    p_run.add_argument("--weights", default=None, help="weight file or geometric spec")
    p_run.add_argument("--k", required=True, help="comma list of pruning sizes")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--delta", type=float, default=0.05)
    p_run.add_argument("--beta", type=float, default=4.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--radius", choices=RADIUS_MODES, default="min")
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
