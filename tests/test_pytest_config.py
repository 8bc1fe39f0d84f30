"""The suite's own pytest settings: a failing property test is reported
as a failure, not as an internal error that ends the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    # When a hypothesis test fails, hypothesis imports libcst, whose import
    # raises a DeprecationWarning; unless pyproject.toml ignores it,
    # filterwarnings = ["error"] aborts the session with INTERNALERROR
    # (exit 3).
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_failing.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
