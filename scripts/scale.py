"""Wall time and peak RSS of ``synth``, ``inspect`` and ``run`` on one
generated median-split instance of N leaves.

    python scripts/scale.py --n 1048576

The three commands run one after another, each in its own child process
under an address-space limit (``RLIMIT_AS``) of ``LIMIT_BYTES``, 3 GiB:

    awpkit synth "median-split:n=N,dim=8" --weights geometric:bins=10,ratio=4
    awpkit inspect --tree T --weights W
    awpkit run --tree T --weights W --k 10 --runs 1 --max-queries 2000

The script prints one JSON line with each command's wall time, peak RSS
and exit code, and the sha256 of the tree file, the weight file and the
``run`` CSV (null for a file that was not written), so two checkouts can
be shown to write the same bytes.  The peak RSS is the child's
``ru_maxrss``, as ``wait4`` reports it for that child alone (its part of
``RUSAGE_CHILDREN``).  The exit code is 1 when any command exits
non-zero, 0 otherwise.  Stdlib only; the package is imported from the
``src`` directory beside this script, and the instance files go to a
temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LIMIT_BYTES = 3 << 30
MAIN = "import sys; from awpkit.cli import main; sys.exit(main(sys.argv[1:]))"


def run_child(argv: list[str]) -> dict:
    """Run ``awpkit argv`` in a child under the address-space limit, with
    its stdout discarded; its wall time, peak RSS and exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execve(sys.executable, [sys.executable, "-c", MAIN, *argv], env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return {
        "wall_s": round(perf_counter() - start, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # KiB on Linux
        "exit": os.waitstatus_to_exitcode(status),
    }


def sha256(path: str) -> str | None:
    """The hex sha256 of the file at ``path``, or None when there is none."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--n", type=int, required=True, help="leaf count of the median-split instance")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tree, weights, csv = os.path.join(tmp, "t.hwt"), os.path.join(tmp, "t.w"), os.path.join(tmp, "r.csv")
        files = ["--tree", tree, "--weights", weights]
        commands = {
            "synth": [
                "synth", f"median-split:n={args.n},dim=8", "--weights", "geometric:bins=10,ratio=4",
                "--out-tree", tree, "--out-weights", weights,
            ],
            "inspect": ["inspect", *files],
            "run": ["run", *files, "--k", "10", "--runs", "1", "--max-queries", "2000", "--out", csv],
        }
        results = {name: run_child(cmd) for name, cmd in commands.items()}
        digests = {name: sha256(path) for name, path in (("tree", tree), ("weights", weights), ("csv", csv))}
    print(json.dumps({"n": args.n, "python": platform.python_version(), "commands": results, "sha256": digests}))
    return 1 if any(r["exit"] != 0 for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
