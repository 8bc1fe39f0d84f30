"""Tests of the benchmark itself: span arithmetic, host-speed rescaling,
seeded inputs, output checks and the traced run.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import awpkit.cli as cli  # noqa: E402
import awpkit.engine as engine  # noqa: E402
import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = wl.Workload(
    "small",
    (wl.Synth("m", 64), wl.Caterpillar("cat", 40)),
    (
        wl.Inspect("cat", 40, 39),
        wl.Optimal("cat", (3, 5)),
        wl.Run("r", "m", (3, 5), 2, 300),
    ),
)


def far():
    return time.monotonic() + 60


def run_pass(workdir, seed=1, tracer=None):
    return wl.timed_pass(SMALL, str(workdir), seed, far(), tracer)


def test_self_time_subtracts_direct_children_only():
    t = tr.Tracer()
    root = t.record("a", 0.0, 10.0)
    b = t.record("b", 1.0, 4.0, root)
    t.record("c", 2.0, 3.5, b)
    t.record("b", 5.0, 9.0, root)
    assert t.self_times() == [3.0, 1.5, 1.5, 4.0]
    s = t.summary()
    assert s["a"] == {"calls": 1, "self_s": 3.0, "wall_s": 10.0}
    assert s["b"] == {"calls": 2, "self_s": 5.5, "wall_s": 7.0}
    assert t.under("b") == [False, True, True, True]


def test_wall_s_is_the_median_pass():
    passes = [[1.0, 2.0], [1.0, 9.0], [2.0, 2.5], [0.5, 2.0], [1.5, 2.0]]
    assert bench_run.median_pass(passes) == 3.5


def test_sampler_rescales_by_the_mean_probe():
    s = hostspeed.Sampler()
    s.block = [0.002, 0.004]
    assert s.scaled(1.006) == pytest.approx(hostspeed.PROBE_REF_S / 0.003)
    # A block too short for a probe uses every probe so far.
    s.block, s.all = [], [2 * hostspeed.PROBE_REF_S]
    assert s.scaled(1.0) == pytest.approx(0.5)


def test_sampler_probes_a_busy_block_and_restores_the_timer(tmp_path):
    wl.run_setup(SMALL, str(tmp_path), 1)
    _, want = wl.check_pass(SMALL, str(tmp_path), run_pass(tmp_path))
    previous = signal.getsignal(signal.SIGVTALRM)
    with hostspeed.Sampler() as s:
        p = run_pass(tmp_path)
        t0 = time.process_time()
        while time.process_time() - t0 < 0.2:
            pass
    assert len(s.block) >= 3 and s.all == s.block
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGVTALRM) is previous
    # The probes touch nothing of the package's.
    verdicts, got = wl.check_pass(SMALL, str(tmp_path), p, [want])
    assert got == want and sum(v.failed for v in verdicts) == 0


def read_all(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_setup_files_depend_only_on_seed(tmp_path):
    dirs = [tmp_path / str(i) for i in range(3)]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        wl.run_setup(SMALL, str(d), seed)
    a, b, c = (read_all(d) for d in dirs)
    assert a == b
    assert set(a) == set(c) == {"m.hwt", "m.w", "cat.hwt", "cat.w"}
    assert a["m.hwt"] != c["m.hwt"] and a["m.w"] != c["m.w"] and a["cat.w"] != c["cat.w"]


def test_small_workload_passes_its_checks(tmp_path):
    wl.run_setup(SMALL, str(tmp_path), 1)
    p = run_pass(tmp_path)
    assert [err for _, err in p.results] == [None, None, None]
    verdicts, digests = wl.check_pass(SMALL, str(tmp_path), p)
    assert sum(v.ops for v in verdicts) == SMALL.ops == 1 + 2 + 16
    assert sum(v.failed for v in verdicts) == 0
    assert len(verdicts[2].awp_rows) == 4


def test_perturbed_csv_fails_digest_and_invariants(tmp_path):
    wl.run_setup(SMALL, str(tmp_path), 1)
    p = run_pass(tmp_path)
    _, digests = wl.check_pass(SMALL, str(tmp_path), p)
    csv_path = tmp_path / "r.csv"
    text = csv_path.read_text()
    row = text.splitlines()[1]
    alg, k, r, nd, bq, nq = row.split(",")
    # A distance that still parses and lies in [0, 1]: only the digest sees it.
    csv_path.write_text(text.replace(row, f"{alg},{k},{r},{nd},{bq},{nq}".replace(nd, repr(float(nd) / 2)), 1))
    verdicts, _ = wl.check_pass(SMALL, str(tmp_path), p, [digests])
    assert [v.failed for v in verdicts] == [0, 0, 16]
    verdicts, _ = wl.check_pass(SMALL, str(tmp_path), p)
    assert sum(v.failed for v in verdicts) == 0
    # Out-of-range distance and unequal budgets are invariant failures.
    csv_path.write_text(text.replace(row, f"{alg},{k},{r},1.5,{bq},{nq}", 1))
    verdicts, _ = wl.check_pass(SMALL, str(tmp_path), p)
    assert verdicts[2].failed == 1
    weight_row = next(ln for ln in text.splitlines() if ln.startswith("weight,"))
    parts = weight_row.split(",")
    parts[4] = str(int(parts[4]) + 1)
    csv_path.write_text(text.replace(weight_row, ",".join(parts), 1))
    verdicts, _ = wl.check_pass(SMALL, str(tmp_path), p)
    assert verdicts[2].failed == 1


def test_optimal_digest_fails_only_its_own_k(tmp_path):
    wl.run_setup(SMALL, str(tmp_path), 1)
    p = run_pass(tmp_path)
    _, digests = wl.check_pass(SMALL, str(tmp_path), p)
    digests["optimal-cat-k5"] = "0" * 64
    verdicts, _ = wl.check_pass(SMALL, str(tmp_path), p, [digests])
    assert [v.failed for v in verdicts] == [0, 1, 0]


def test_traced_outputs_equal_untraced(tmp_path):
    wl.run_setup(SMALL, str(tmp_path), 1)
    plain = run_pass(tmp_path)
    _, want = wl.check_pass(SMALL, str(tmp_path), plain)
    originals = (cli.main, engine.AwpRun.sample_step, cli._BASELINE_RUNNERS["uniform"])
    t = tr.Tracer()
    t.install()
    try:
        traced = run_pass(tmp_path, tracer=t)
    finally:
        t.uninstall()
    assert (cli.main, engine.AwpRun.sample_step, cli._BASELINE_RUNNERS["uniform"]) == originals
    verdicts, got = wl.check_pass(SMALL, str(tmp_path), traced, [want])
    assert got == want
    assert sum(v.failed for v in verdicts) == 0
    summary = t.summary()
    for name in ("cli.main", "engine.sample_step", "baselines.run_uniform", "tree.optimal_pruning", "tree.is_leaf"):
        assert summary[name]["calls"] > 0, name
    # Each step is one op, and every span belongs to one.
    assert set(t.op) == {0, 1, 2}
    metrics = bench_run.layer_metrics(tr.Tracer(), [t], 0.0)
    assert metrics["engine.us_per_query"]["value"] > 0
    assert 0 < metrics["engine.split_check.hit_ratio"]["value"] <= 1


class Sleeper:
    ops = 3

    def execute(self, workdir, seed):
        time.sleep(5)


def test_deadline_fails_the_step_instead_of_hanging(tmp_path):
    w = wl.Workload("slow", (), (Sleeper(),))
    t0 = time.monotonic()
    p = wl.timed_pass(w, str(tmp_path), 0, time.monotonic() + 0.2)
    assert time.monotonic() - t0 < 2
    assert "deadline" in p.results[0][1]
    verdicts, _ = wl.check_pass(w, str(tmp_path), p)
    assert (verdicts[0].ops, verdicts[0].failed) == (3, 3)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench_run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = bench_run.layer_metrics(tr.Tracer(), [tr.Tracer()], 0.0)
    assert layer == {name: m["unit"] for name, m in reported.items()}


def test_expected_digests_cover_every_output():
    with open(bench_run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert set(expected) == set(wl.WORKLOADS)
    assert set(expected["balanced"]) == {
        "inspect-median4096",
        "sweep.csv",
        "sweep.traces",
        "optimal-median4096-k40",
        "adaptive.csv",
        "adaptive.traces",
    }
    assert set(expected["bulk"]) == {
        "wide.csv",
        "wide.traces",
        "inspect-caterpillar",
        "optimal-caterpillar-k10",
        "optimal-caterpillar-k40",
        "optimal-median4096-k160",
        "exact.csv",
        "exact.traces",
    }


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seconds", "1"], ["--workload", "balanced", "--seconds", "1", "--seed", "3", "--record-digests"]])
def test_bad_arguments_exit_without_result(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_run.main(argv)
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
