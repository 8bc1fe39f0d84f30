"""Alternating parent/PR pairs of the benchmark, summarised per metric.

    python scripts/pairs.py --parent 4752681 --pr 22 [--pairs 10]

The parent side is commit REV, exported with ``git archive`` into a
temporary directory; the PR side is this checkout as it stands, recorded
as its HEAD commit and whether it had uncommitted changes.  Nothing in
the repository changes.  For each workload of ``BENCHMARK.json``, in
its order, the script runs P pairs (``--pairs``, 10 by default) of

    python3 bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

one run on each side with the same seed, the parent first on the 1st,
3rd, ... pair.  The seeds are 100*N+1 to 100*N+2P, one per pair and
workload.  It writes ``BENCH_<N>.json`` at the root of the checkout:
every run's JSON result line, untouched, and per workload and end-to-end
metric each side's median and quartiles, the number of pairs in which
the PR side is better, and the two acceptance rules:

  - ``gain_shown``: the PR side is better in at least 9 of every 10
    pairs (9 of 10, 18 of 20; a tie counts for neither side), and its median beats the parent's
    by more than the parent's interquartile range;
  - ``within_bound``: the PR median is not worse than the parent's by
    more than the metric's ``bound`` in ``BENCHMARK.json``, as a fraction
    of the parent median;
  - ``unresolved``: either side's interquartile range is wider than that
    bound times the parent median, so the runs spread too widely to tell
    a change within the bound from none, unless every PR run is better
    than every parent run.

The exit code is 1 when a run fails or reports failed ops, 0 otherwise.
Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
# The PR side must win GAIN_WINS of every PAIRS pairs for a claimed gain
# to be shown.
GAIN_WINS = 9
# Metrics that depend only on the seed, so both sides must report the
# same value for it.
DETERMINISTIC = ("ops", "awp_queries", "awp_tv")


def export(rev: str, dest: str) -> str:
    """Extract commit ``rev`` of this repository into ``dest``; its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def checkout_state(root: str) -> tuple[str, bool]:
    """The HEAD commit of the checkout at ``root``, and whether its files
    differ from it: a tracked file changed, or a file git does not
    ignore is untracked."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout

    return git("rev-parse", "HEAD").strip(), bool(git("status", "--porcelain").strip())


def run_bench(command: list[str], cwd: str, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run's JSON result line, or None when it printed none."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and PR wins over the pairs of one
    workload; ``runs`` alternate between the two sides of each pair."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [(p["parent"], p["pr"]) for p in by_seed.values() if p.get("parent") and p.get("pr")]
    out: dict = {}
    for metric in metrics:
        name = metric["name"]
        values = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pairs]
        if len(values) < 2:
            continue
        parent = [a for a, _ in values]
        pr = [b for _, b in values]
        sign = 1 if metric["better"] == "lower" else -1
        pq1, pmed, pq3 = statistics.quantiles(parent, n=4, method="inclusive")
        rq1, rmed, rq3 = statistics.quantiles(pr, n=4, method="inclusive")
        wins = sum(sign * (b - a) < 0 for a, b in values)
        spread = metric["bound"] * abs(pmed)
        # Signed so that lower is better: the PR side's worst run beats the
        # parent side's best.
        separated = max(sign * x for x in pr) < min(sign * x for x in parent)
        out[name] = {
            "parent_median": round(pmed, 4),
            "pr_median": round(rmed, 4),
            "change": round(rmed / pmed - 1, 4) if pmed else None,
            "pr_better_pairs": wins,
            "pairs": len(values),
            "parent_q1_q3": [round(pq1, 4), round(pq3, 4)],
            "parent_iqr": round(pq3 - pq1, 4),
            "pr_q1_q3": [round(rq1, 4), round(rq3, 4)],
            "pr_iqr": round(rq3 - rq1, 4),
            "gain_shown": PAIRS * wins >= GAIN_WINS * len(values) and sign * (pmed - rmed) > pq3 - pq1,
            "within_bound": sign * (rmed - pmed) <= spread,
            "unresolved": max(pq3 - pq1, rq3 - rq1) > spread and not separated,
        }
    out["ops_awp_queries_awp_tv_identical_per_seed"] = all(
        a["metrics"][m]["value"] == b["metrics"][m]["value"] for a, b in pairs for m in DETERMINISTIC
    )
    out["failed_total"] = sum(run["failed"] for run in runs if run["failed"] is not None)
    out["all_correct"] = all(run["result"] is not None and run["result"]["correct"] for run in runs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pr", type=int, required=True, help="PR number N: names BENCH_<N>.json and picks the seeds")
    parser.add_argument("--pairs", type=int, default=PAIRS, help=f"pairs per workload, 1..49 (default {PAIRS})")
    args = parser.parse_args(argv)
    if not 1 <= args.pairs <= 49:
        parser.error("--pairs must be in 1..49, so that the seeds of two PRs do not meet")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = {w: [100 * args.pr + 1 + i * args.pairs + j for j in range(args.pairs)] for i, w in enumerate(workloads)}
    runs: list[dict] = []
    head, dirty = checkout_state(ROOT)
    with tempfile.TemporaryDirectory() as parent_dir:
        sha = export(args.parent, parent_dir)
        for workload in workloads:
            for j, seed in enumerate(seeds[workload]):
                sides = ("parent", "pr") if j % 2 == 0 else ("pr", "parent")
                for side in sides:
                    result = run_bench(command, parent_dir if side == "parent" else ROOT, workload, seed, seconds)
                    failed = None if result is None else result["failed"]
                    print(f"{workload} seed {seed} {side}: failed {failed}", file=sys.stderr, flush=True)
                    runs.append({"side": side, "workload": workload, "seed": seed, "failed": failed, "result": result})
    report = {
        "about": (
            f"Alternating parent/PR pairs of the benchmark. 'parent' is commit {sha[:7]}, exported with git archive; "
            f"'pr' is the checkout that ran scripts/pairs.py, at commit {head[:7]}"
            f"{' with uncommitted changes' if dirty else ''}. Each line of 'runs' is one invocation's JSON result "
            "line, untouched."
        ),
        "parent": sha,
        "pr": {"head": head, "uncommitted_changes": dirty},
        "host": f"{os.cpu_count()}-core host, Python {platform.python_version()}",
        "command": " ".join([*command, "--workload <workload> --seed <seed>", f"--seconds {seconds} --trace 0"]),
        "order": (
            "pairs alternate which side runs first: parent first on the 1st, 3rd, ... pair; workloads run in "
            "BENCHMARK.json order, all pairs of one before the next; quartiles are "
            "statistics.quantiles(method='inclusive'), and parent_iqr is q3 - q1 of the parent's runs"
        ),
        "seeds": seeds,
        "summary": {w: summarise([r for r in runs if r["workload"] == w], bench["end_to_end"]) for w in workloads},
        "runs": runs,
    }
    with open(os.path.join(ROOT, f"BENCH_{args.pr}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 1 if any(run["failed"] != 0 for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
