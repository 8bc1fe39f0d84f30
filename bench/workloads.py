"""The benchmark's workloads: set-up, timed steps and output checks.

Every workload is a list of steps.  A step is one call into the package's
public entry points (``awpkit.cli.main`` or ``awpkit.tree.optimal_pruning``)
on files that set-up wrote from the benchmark seed, so the program sees
only generated specs and files.  Functions are looked up on their module
at call time, so the tracer's wrappers take effect.

An op is one checked result: a CSV detail row, an ``inspect`` call or an
``optimal_pruning`` call.  A step that raises, exits non-zero or runs past
the deadline fails all of its ops; a check that fails fails the ops it
covers.  On the default seed every output must also match the digests in
``expected.json``; on other seeds only the invariants are checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import signal
from dataclasses import dataclass
from time import monotonic, perf_counter

import awpkit.cli as cli
import awpkit.fileio as fileio
import awpkit.oracle as oracle
import awpkit.tree as tree_mod

DEFAULT_SEED = 0
# Tolerance for a DP cost against the fsum-based pruning_discrepancy.
COST_TOL = 1e-12


class StepTimeout(Exception):
    """A step ran past the run's deadline."""


class StepFailed(Exception):
    """A step exited non-zero or produced no result."""


@contextlib.contextmanager
def deadline(at: float):
    """Raise StepTimeout inside the block once monotonic() passes ``at``."""
    remaining = at - monotonic()
    if remaining <= 0:
        raise StepTimeout("deadline passed before the step started")

    def fire(signum, frame):
        raise StepTimeout("step ran past the deadline")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Verdict:
    """Checked outcome of one step."""

    ops: int
    failed: int
    awp_rows: tuple = ()  # (basic_queries, normalized_distance) per awp detail row


# -- steps ---------------------------------------------------------------


@dataclass(frozen=True)
class Synth:
    """Set-up step: ``awpkit synth`` of a median-split tree and geometric weights."""

    label: str
    n: int

    def execute(self, workdir: str, seed: int) -> None:
        code = cli.main(
            [
                "synth", f"median-split:n={self.n},dim=8", "--seed", str(seed),
                "--weights", "geometric:bins=10,ratio=4",
                "--out-tree", os.path.join(workdir, f"{self.label}.hwt"),
                "--out-weights", os.path.join(workdir, f"{self.label}.w"),
            ]
        )
        if code != 0:
            raise StepFailed(f"synth exited {code}")


@dataclass(frozen=True)
class Caterpillar:
    """Set-up step: a caterpillar tree (every internal node has a leaf as its
    left child) written as an HWT file, with shuffled geometric weights.
    It is built from records, never from nested pairs, because its depth
    is n-1."""

    label: str
    n: int

    def execute(self, workdir: str, seed: int) -> None:
        records = []
        for i in range(self.n - 1):
            records.append(("I", 2 * i, (2 * i + 1, 2 * i + 2)))
            records.append(("L", 2 * i + 1, f"c{i:06d}"))
        records.append(("L", 2 * (self.n - 1), f"c{self.n - 1:06d}"))
        t = tree_mod.HierTree.from_records(records)
        spec = oracle.TargetSpec("geometric-bins", n_bins=10, ratio=4.0)
        weights = oracle.make_geometric_target(t, spec, seed)
        fileio.dump_tree(t, os.path.join(workdir, f"{self.label}.hwt"))
        fileio.dump_weights(weights, os.path.join(workdir, f"{self.label}.w"))


@dataclass(frozen=True)
class Run:
    """``awpkit run`` on an instance from set-up, writing CSV and traces.
    Every run passes --max-queries, because a run without a cap can loop
    forever on zero-discrepancy regions."""

    label: str
    instance: str
    k: tuple[int, ...]
    runs: int
    max_queries: int
    algorithms: tuple[str, ...] = cli.ALGORITHMS

    @property
    def ops(self) -> int:
        return len(self.k) * self.runs * len(self.algorithms)

    def execute(self, workdir: str, seed: int) -> None:
        code = cli.main(
            [
                "run",
                "--tree", os.path.join(workdir, f"{self.instance}.hwt"),
                "--weights", os.path.join(workdir, f"{self.instance}.w"),
                "--k", ",".join(map(str, self.k)), "--runs", str(self.runs),
                "--seed", str(seed), "--algorithms", ",".join(self.algorithms),
                "--max-queries", str(self.max_queries),
                "--out", os.path.join(workdir, f"{self.label}.csv"),
                "--trace-out", os.path.join(workdir, f"{self.label}.traces"),
            ]
        )
        if code != 0:
            raise StepFailed(f"run exited {code}")

    def artifacts(self, workdir: str, value) -> dict[str, str]:
        out = {}
        for ext in ("csv", "traces"):
            with open(os.path.join(workdir, f"{self.label}.{ext}"), encoding="utf-8") as fh:
                out[f"{self.label}.{ext}"] = fh.read()
        return out

    def check(self, value, artifacts: dict[str, str]) -> Verdict:
        return check_run(self, artifacts[f"{self.label}.csv"], artifacts[f"{self.label}.traces"])


@dataclass(frozen=True)
class Inspect:
    """``awpkit inspect`` on an instance; its stdout is the result."""

    instance: str
    leaves: int
    depth: int
    ops = 1

    def execute(self, workdir: str, seed: int) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(
                [
                    "inspect",
                    "--tree", os.path.join(workdir, f"{self.instance}.hwt"),
                    "--weights", os.path.join(workdir, f"{self.instance}.w"),
                ]
            )
        if code != 0:
            raise StepFailed(f"inspect exited {code}")
        return buf.getvalue()

    def artifacts(self, workdir: str, value: str) -> dict[str, str]:
        return {f"inspect-{self.instance}": value}

    def check(self, value: str, artifacts) -> Verdict:
        fields = {name: v for name, _, v in (line.partition(": ") for line in value.splitlines())}
        ok = fields.get("leaves") == str(self.leaves) and fields.get("depth") == str(self.depth)
        return Verdict(1, 0 if ok else 1)


@dataclass(frozen=True)
class Optimal:
    """Load an instance and call ``optimal_pruning`` once per k."""

    instance: str
    k: tuple[int, ...]

    @property
    def ops(self) -> int:
        return len(self.k)

    def execute(self, workdir: str, seed: int):
        t = fileio.load_tree(os.path.join(workdir, f"{self.instance}.hwt"))
        w = fileio.load_weights(os.path.join(workdir, f"{self.instance}.w"))
        return t, w, [tree_mod.optimal_pruning(t, k, w) for k in self.k]

    def artifacts(self, workdir: str, value) -> dict[str, str]:
        return {f"optimal-{self.instance}-k{k}": repr(res) for k, res in zip(self.k, value[2])}

    def check(self, value, artifacts) -> Verdict:
        t, w, results = value
        failed = 0
        for k, (nodes, cost) in zip(self.k, results):
            ok = (
                len(nodes) <= k
                and tree_mod.is_pruning(t, nodes)
                and abs(tree_mod.pruning_discrepancy(t, nodes, w) - cost) <= COST_TOL
            )
            failed += not ok
        return Verdict(len(self.k), failed)


# -- run output checks ----------------------------------------------------


def trace_sections(text: str) -> dict[tuple[str, int, int], tuple[int, int]]:
    """(algorithm, k, run) -> (SAMPLE lines, SPLIT lines) of a trace file."""
    out: dict[tuple[str, int, int], tuple[int, int]] = {}
    key = None
    samples = splits = 0
    for line in text.splitlines():
        if line.startswith("# "):
            if key is not None:
                out[key] = (samples, splits)
            alg, k, r = line[2:].split()
            key = (alg, int(k[2:]), int(r[4:]))
            samples = splits = 0
        elif line.startswith("SAMPLE "):
            samples += 1
        elif line.startswith("SPLIT "):
            splits += 1
    if key is not None:
        out[key] = (samples, splits)
    return out


def check_run(step: Run, csv_text: str, trace_text: str) -> Verdict:
    """Invariants of one `run` output, one op per expected detail row:

    - the CSV parses and ``format_csv`` reproduces it byte for byte;
    - within each (k, run) every algorithm spent the awp run's basic and
      node queries;
    - awp's node queries equal the SPLIT events of its trace, which is the
      pruning size reached minus 1, and stay below k;
    - each row's trace section holds as many SAMPLE events as basic queries;
    - ``normalized_distance`` lies in [0, 1].
    """
    try:
        details, aggregates = cli.parse_results(csv_text)
        sections = trace_sections(trace_text)
    except ValueError:  # FileFormatError is a ValueError too
        return Verdict(step.ops, step.ops)
    if cli.format_csv(cli.ExperimentOutput(details, aggregates)) != csv_text:
        return Verdict(step.ops, step.ops)
    awp = {(k, r): (bq, nq) for alg, k, r, _, bq, nq in details if alg == "awp"}
    good = 0
    awp_rows = []
    seen = set()
    for alg, k, r, nd, bq, nq in details:
        key = (alg, k, r)
        if key in seen or alg not in step.algorithms or k not in step.k or not 0 <= r < step.runs:
            continue
        seen.add(key)
        samples, splits = sections.get(key, (-1, -1))
        ok = 0.0 <= nd <= 1.0 and awp.get((k, r)) == (bq, nq) and samples == bq
        if alg == "awp":
            ok = ok and nq == splits and nq <= k - 1 and bq <= step.max_queries
            awp_rows.append((bq, nd))
        good += ok
    return Verdict(step.ops, step.ops - good, tuple(awp_rows))


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Set-up steps write the instance files; the steps are the timed
    section.  Why each workload exists is recorded in BENCHMARK.json and
    README.md."""

    name: str
    setup: tuple
    steps: tuple

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.steps)


MEDIAN = Synth("median4096", 4096)

# Two workloads, each a fixed sequence of sections.  Each optimisation on
# the roadmap moves one of them and should leave the other (nearly) alone;
# see README.md for the predictions.  They are long rather than many:
# the host's speed drifts for tens of seconds at a time, and only a long
# run reliably contains a quiet stretch.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "balanced",
            (MEDIAN,),
            (
                # sweep: the README path, inspect then run; every layer
                # does a share.  The optimal pruning at the largest k is
                # the reference for the sweep's quality.
                Inspect("median4096", 4096, 12),
                Run("sweep", "median4096", (5, 10, 20, 40), 10, 2000),
                Optimal("median4096", (40,)),
                # adaptive: awp alone to k=96; the engine does ~95%.
                Run("adaptive", "median4096", (96,), 6, 20000, ("awp",)),
            ),
        ),
        Workload(
            "bulk",
            (Synth("median65536", 65536), Caterpillar("caterpillar", 3000), MEDIAN),
            (
                # wide: O(n) loading and result assembly dominate.
                Run("wide", "median65536", (5, 10), 1, 500),
                # exact: the tree DP and node_discrepancies, on the skewed
                # shape and at large k on the balanced one.
                Inspect("caterpillar", 3000, 2999),
                Optimal("caterpillar", (10, 40)),
                Optimal("median4096", (160,)),
                Run("exact", "caterpillar", (10,), 20, 2000, ("awp",)),
            ),
        ),
    )
}


def run_setup(workload: Workload, workdir: str, seed: int, tracer=None) -> None:
    for step in workload.setup:
        if tracer is not None:
            tracer.begin_op()
        step.execute(workdir, seed)


@dataclass
class Pass:
    """One timed pass over a workload's steps, before checking."""

    step_seconds: list  # per step
    results: list  # per step: (value, error message or None)

    @property
    def seconds(self) -> float:
        return sum(self.step_seconds)


def timed_pass(workload: Workload, workdir: str, seed: int, until: float, tracer=None) -> Pass:
    """Run every step once under the deadline ``until``; errors are kept,
    not raised, so one failing step does not stop the others.  Each step is
    one op of the tracer, when given."""
    p = Pass([], [])
    for step in workload.steps:
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            with deadline(until):
                p.results.append((step.execute(workdir, seed), None))
        except (StepTimeout, StepFailed) as exc:
            p.results.append((None, str(exc)))
        except Exception as exc:  # any other failure of the program is a failed op
            p.results.append((None, f"{type(exc).__name__}: {exc}"))
        p.step_seconds.append(perf_counter() - t0)
    return p


def check_pass(workload: Workload, workdir: str, p: Pass, references=()) -> tuple[list[Verdict], dict[str, str]]:
    """Check each step's output and return verdicts and output digests.

    Each reference maps output names to the digests they must have.  An
    output that differs fails the ops it carries: one per k for
    ``Optimal``, all of the step's ops otherwise."""
    verdicts = []
    digests: dict[str, str] = {}
    for step, (value, error) in zip(workload.steps, p.results):
        if error is not None:
            verdicts.append(Verdict(step.ops, step.ops))
            continue
        try:
            texts = step.artifacts(workdir, value)
        except OSError:  # an output file that was never written
            verdicts.append(Verdict(step.ops, step.ops))
            continue
        mine = {name: sha256(text) for name, text in texts.items()}
        digests.update(mine)
        verdict = step.check(value, texts)
        bad = {n for ref in references for n, d in mine.items() if ref.get(n) != d}
        if bad:
            verdict.failed = max(verdict.failed, len(bad) if isinstance(step, Optimal) else step.ops)
        verdicts.append(verdict)
    return verdicts, digests
