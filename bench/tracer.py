"""Outside-in layer tracing for the benchmark.

The package is not edited.  Instead, each traced public function is
replaced by a wrapper at every place it can be looked up: a module-level
function is rebound in every loaded ``awpkit`` module that holds it (a
function imported with ``from awpkit.tree import induced_weighting`` is a
separate global in ``awpkit.engine`` and ``awpkit.baselines``), and a
method is replaced once on its class.  ``uninstall`` puts the originals
back.

A spanned call records (name, start, end, parent span, op id) in flat
in-memory arrays; the spans are written out once, at the end of a run.
A counted call only increments a counter: ``HierTree.is_leaf`` runs
millions of times per adaptive sweep, and a span each would swamp the
engine's own time.  The wrappers draw no random numbers and pass
arguments and results through untouched, so traced outputs are
byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (metric name, module, attribute).  The attribute is a function name, or
# "Class.method" for a method.
SPANNED = (
    ("cli.main", "awpkit.cli", "main"),
    ("cli.run_experiment", "awpkit.cli", "run_experiment"),
    ("cli.format_csv", "awpkit.cli", "format_csv"),
    ("cli.format_traces", "awpkit.cli", "format_traces"),
    ("engine.run_awp", "awpkit.engine", "run_awp"),
    ("engine.sample_step", "awpkit.engine", "AwpRun.sample_step"),
    ("engine.split_check", "awpkit.engine", "AwpRun.split_check"),
    ("engine.result", "awpkit.engine", "AwpRun.result"),
    ("engine.refine_with_queries", "awpkit.engine", "refine_with_queries"),
    ("estimator.confidence_radius", "awpkit.estimator", "confidence_radius"),
    ("baselines.run_weight", "awpkit.baselines", "run_weight"),
    ("baselines.run_uniform", "awpkit.baselines", "run_uniform"),
    ("baselines.run_empirical", "awpkit.baselines", "run_empirical"),
    ("oracle.init", "awpkit.oracle", "Oracle.__init__"),
    ("oracle.query_leaf", "awpkit.oracle", "Oracle.query_leaf"),
    ("oracle.query_node", "awpkit.oracle", "Oracle.query_node"),
    ("oracle.build_median_split_tree", "awpkit.oracle", "build_median_split_tree"),
    ("tree.build", "awpkit.tree", "HierTree.__init__"),
    ("tree.WeightTable", "awpkit.tree", "WeightTable.__init__"),
    ("tree.is_pruning", "awpkit.tree", "is_pruning"),
    ("tree.induced_weighting", "awpkit.tree", "induced_weighting"),
    ("tree.tv_distance", "awpkit.tree", "tv_distance"),
    ("tree.node_discrepancies", "awpkit.tree", "node_discrepancies"),
    ("tree.optimal_pruning", "awpkit.tree", "optimal_pruning"),
    ("fileio.load_tree", "awpkit.fileio", "load_tree"),
    ("fileio.load_weights", "awpkit.fileio", "load_weights"),
    ("fileio.dump_tree", "awpkit.fileio", "dump_tree"),
)
COUNTED = (("tree.is_leaf", "awpkit.tree", "HierTree.is_leaf"),)


class Tracer:
    """In-memory span store.  Span ids are assigned on entry, so a parent's
    id is always smaller than its children's."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self._stack = [-1]
        self._op = -1
        self._installed: list[tuple] = []

    def begin_op(self) -> int:
        """Start a new top-level operation; later spans carry its id."""
        self._op += 1
        return self._op

    def record(self, name: str, start: float, end: float, parent: int = -1, op: int = 0) -> int:
        """Append a finished span (used by tests to build span trees)."""
        sid = len(self.names)
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return sid

    # -- wrapping ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        names, start, end, parent, op, stack = self.names, self.start, self.end, self.parent, self.op, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(stack[-1])
            op.append(tracer._op)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _split_check(self, name: str, fn):
        # split_check returns the nodes it split; a call that split none
        # was wasted work, so count the useful ones.
        inner = self._spanned(name, fn)
        hits = self.hits
        hits[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            performed = inner(*args, **kwargs)
            if performed:
                hits[name] += 1
            return performed

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every place it is looked up."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        plan = [(n, m, a, self._spanned) for n, m, a in SPANNED]
        plan += [(n, m, a, self._counted) for n, m, a in COUNTED]
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "awpkit"]
        for name, module, attr, make in plan:
            if name == "engine.split_check":
                make = self._split_check
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                self._rebind(cls, meth, make(name, vars(cls)[meth]))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(vars(mod), key, wrapper)
                    elif isinstance(value, dict):
                        # A module-level table of functions, such as the
                        # CLI's baseline runners, is an import site too.
                        for k, v in value.items():
                            if v is original:
                                self._rebind(value, k, wrapper)

    def _rebind(self, owner, key, value) -> None:
        """Set owner[key] for a namespace dict, or the attribute for a class
        (whose __dict__ is read-only), remembering the original."""
        if isinstance(owner, dict):
            self._installed.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._installed.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed = []

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: call count, total self time and total wall time."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[sid]
            row["wall_s"] += self.end[sid] - self.start[sid]
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})["calls"] += n
        return out

    def under(self, ancestor: str) -> list[bool]:
        """Per span: whether it is, or runs inside, a span named ``ancestor``."""
        flag = [False] * len(self.names)
        for sid, name in enumerate(self.names):
            p = self.parent[sid]
            flag[sid] = name == ancestor or (p >= 0 and flag[p])
        return flag


def write_spans(path, tracers: dict[str, Tracer]) -> None:
    """Write every span as a tab-separated line: phase, span id, name,
    start, end, parent id and op id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# phase\tid\tname\tstart_s\tend_s\tparent\top\n")
        for phase, t in tracers.items():
            for sid, name in enumerate(t.names):
                fh.write(f"{phase}\t{sid}\t{name}\t{t.start[sid]!r}\t{t.end[sid]!r}\t{t.parent[sid]}\t{t.op[sid]}\n")
