"""Benchmark of awpkit: one workload per invocation.

    python3 bench/run.py --workload balanced --seed 0 --seconds 50 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's ``src`` directory and nowhere else, and the command fails
(exit 1, no result line) when that directory is missing.

Set-up writes the workload's instance files from ``--seed``; the timed
section runs the workload's steps on them.  Set-up and timed pass repeat
until ``--seconds`` have passed.  ``setup_s`` is the median set-up and
``wall_s`` the median timed pass, each timed under a host-speed sampler
and rescaled to the reference host's speed (see hostspeed.py).  Every
pass is checked (see workloads.py).  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced
ones.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import monotonic, perf_counter

import numpy

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

# Every step of a run must finish within this many seconds of its start,
# so a hanging call fails its ops instead of the whole run.
RUN_LIMIT_S = 150.0

# Per-layer metrics: (traced name, what is reported).  "s" is self time,
# "calls" the call count, "wall_s" the time including callees; all per
# workload pass (one set-up plus one timed section).
LAYER_METRICS = (
    ("engine.run_awp", "s"),
    ("engine.sample_step", "s"),
    ("engine.sample_step", "calls"),
    ("engine.split_check", "s"),
    ("engine.split_check", "calls"),
    ("estimator.confidence_radius", "s"),
    ("estimator.confidence_radius", "calls"),
    ("tree.is_leaf", "calls"),
    ("tree.is_pruning", "s"),
    ("tree.is_pruning", "calls"),
    ("oracle.init", "s"),
    ("oracle.init", "calls"),
    ("tree.WeightTable", "s"),
    ("tree.WeightTable", "calls"),
    ("tree.induced_weighting", "s"),
    ("engine.refine_with_queries", "s"),
    ("tree.tv_distance", "s"),
    ("oracle.query_node", "s"),
    ("oracle.query_node", "calls"),
    ("oracle.query_leaf", "s"),
    ("oracle.query_leaf", "calls"),
    ("baselines.run_weight", "s"),
    ("baselines.run_uniform", "s"),
    ("baselines.run_empirical", "s"),
    ("fileio.load_tree", "s"),
    ("fileio.load_weights", "s"),
    ("tree.build", "s"),
    ("fileio.dump_tree", "s"),
    ("oracle.build_median_split_tree", "s"),
    ("cli.main", "s"),
    ("cli.run_experiment", "s"),
    ("cli.run_experiment", "wall_s"),
    ("cli.format_csv", "s"),
    ("cli.format_traces", "s"),
    ("tree.optimal_pruning", "s"),
    ("tree.node_discrepancies", "s"),
)
UNITS = {"s": "s", "calls": "count", "wall_s": "s"}
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops": "count",
    "awp_queries": "count",
    "awp_tv": "fraction",
}


def import_package():
    """Import awpkit from this checkout's src directory, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "awpkit", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import awpkit

    if os.path.dirname(os.path.dirname(os.path.abspath(awpkit.__file__))) != SRC:
        sys.exit(f"bench: imported awpkit from {awpkit.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help="with the default seed, write this run's output digests to expected.json",
    )
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Ops attempted and failed over all checked passes, plus the awp rows
    of the first pass (every pass of a seed repeats them exactly)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.awp_rows = None

    def add(self, verdicts) -> None:
        for v in verdicts:
            self.attempted += v.ops
            self.failed += v.failed
        if self.awp_rows is None:
            self.awp_rows = [row for v in verdicts for row in v.awp_rows]


def median_pass(step_seconds) -> float:
    """Median over passes of the timed section."""
    return statistics.median(sum(times) for times in step_seconds)


def set_up(wl, workload, workdir, seed, until, speed=None) -> float:
    """Write the instance files, under the host-speed sampler ``speed`` when
    given; return the seconds it took.  The heap is collected before and
    after, so every timed pass starts alike."""
    gc.collect()
    with speed or contextlib.nullcontext():
        t0 = perf_counter()
        with wl.deadline(until):
            wl.run_setup(workload, workdir, seed)
        seconds = perf_counter() - t0
    gc.collect()
    return seconds


def untraced_run(wl, workload, workdir, seed, seconds, until, references):
    # Set-up runs again before every pass, so that its samples, like the
    # passes, spread over the whole run.  Both are timed under a
    # hostspeed.Sampler and rescaled to the reference host's speed.
    speed = hostspeed.Sampler()
    setup_times = []
    tally = Tally()
    scaled, raw = [], []
    first = None
    start = perf_counter()
    while True:
        setup_times.append(speed.scaled(set_up(wl, workload, workdir, seed, until, speed)))
        with speed:
            t0 = perf_counter()
            p = wl.timed_pass(workload, workdir, seed, until)
            pass_s = perf_counter() - t0
        raw.append(pass_s - sum(speed.block))
        scaled.append(speed.scaled(pass_s))
        verdicts, digests = wl.check_pass(workload, workdir, p, references + ([first] if first else []))
        first = first or digests
        tally.add(verdicts)
        if perf_counter() - start >= seconds or monotonic() >= until:
            break
    rows = tally.awp_rows or [(0, 0.0)]
    wall_s = statistics.median(scaled)
    print(
        f"{workload.name}: {len(raw)} timed passes; raw median {statistics.median(raw)!r} s, "
        f"fastest {min(raw)!r} s, slowest {max(raw)!r} s; {len(speed.all)} probes, "
        f"mean {statistics.fmean(speed.all)!r} s against {hostspeed.PROBE_REF_S!r} s; "
        f"rescaled median {wall_s!r} s"
    )
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ops": workload.ops,
        "awp_queries": statistics.fmean(bq for bq, _ in rows),
        "awp_tv": statistics.fmean(nd for _, nd in rows),
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return tally, metrics, first


def traced_run(wl, tr, workload, workdir, seed, seconds, until, references):
    setup_tracer = tr.Tracer()
    setup_tracer.install()
    try:
        with wl.deadline(until):
            wl.run_setup(workload, workdir, seed, setup_tracer)
    finally:
        setup_tracer.uninstall()
    tally = Tally()
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        # As in an untraced run, every pass follows a set-up, so the two
        # kinds of pass start from the same state.
        set_up(wl, workload, workdir, seed, until)
        p = wl.timed_pass(workload, workdir, seed, until)
        verdicts, digests = wl.check_pass(workload, workdir, p, references)
        tally.add(verdicts)
        plain.append(p.step_seconds)
        set_up(wl, workload, workdir, seed, until)
        tracer = tr.Tracer()
        tracer.install()
        try:
            p = wl.timed_pass(workload, workdir, seed, until, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        # Traced outputs must equal the untraced ones byte for byte.
        verdicts, _ = wl.check_pass(workload, workdir, p, references + [digests])
        tally.add(verdicts)
        traced.append(p.step_seconds)
        if perf_counter() - start >= seconds or monotonic() >= until:
            break
    # One traced pass holds a few hundred thousand spans; the file keeps the
    # set-up and the last pass.
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write_spans(
        os.path.join(OUT_DIR, f"spans-{workload.name}.tsv"),
        {"setup": setup_tracer, "timed": tracers[-1]},
    )
    return tally, layer_metrics(setup_tracer, tracers, median_pass(traced) - median_pass(plain))


def layer_metrics(setup_tracer, tracers, overhead_s: float) -> dict:
    """Per-layer metrics per workload pass: the set-up once plus the mean
    over the traced timed passes, one tracer each."""
    zero = {"calls": 0, "self_s": 0.0, "wall_s": 0.0}
    setup = setup_tracer.summary()
    summaries = [t.summary() for t in tracers]
    metrics = {}
    for name, kind in LAYER_METRICS:
        key = "self_s" if kind == "s" else kind
        timed = sum(s.get(name, zero)[key] for s in summaries) / len(tracers)
        metrics[f"{name}.{kind}"] = metric(setup.get(name, zero)[key] + timed, UNITS[kind])
    # The awp loop is run_awp minus assembling its result; its basic
    # queries are the query_leaf spans inside run_awp.
    loop_s = query_calls = checks = hits = 0
    for t, s in zip(tracers, summaries):
        in_awp = t.under("engine.run_awp")
        for sid, name in enumerate(t.names):
            if name == "engine.run_awp":
                loop_s += t.end[sid] - t.start[sid]
            elif name == "engine.result" and in_awp[sid]:
                loop_s -= t.end[sid] - t.start[sid]
            elif name == "oracle.query_leaf" and in_awp[sid]:
                query_calls += 1
        checks += s.get("engine.split_check", zero)["calls"]
        hits += t.hits.get("engine.split_check", 0)
    metrics["engine.us_per_query"] = metric(1e6 * loop_s / max(query_calls, 1), "us")
    metrics["engine.split_check.hit_ratio"] = metric(hits / max(checks, 1), "ratio")
    metrics["trace.overhead_s"] = metric(overhead_s, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; expected one of {sorted(wl.WORKLOADS)}")
    if args.record_digests and (args.seed != wl.DEFAULT_SEED or args.trace):
        sys.exit(f"bench: --record-digests needs --seed {wl.DEFAULT_SEED} --trace 0")
    workload = wl.WORKLOADS[args.workload]
    until = monotonic() + RUN_LIMIT_S
    references = []
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
    if args.seed == wl.DEFAULT_SEED and not args.record_digests:
        references.append(expected.get(workload.name, {}))

    workdir = os.path.join(OUT_DIR, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            tally, metrics = traced_run(wl, tr, workload, workdir, args.seed, args.seconds, until, references)
        else:
            tally, metrics, digests = untraced_run(wl, workload, workdir, args.seed, args.seconds, until, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_digests:
        if tally.failed:
            sys.exit(f"bench: not recording digests, {tally.failed} ops failed")
        expected[workload.name] = dict(sorted(digests.items()))
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(expected.items())), fh, indent=2)
            fh.write("\n")
    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, cpu_count {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
