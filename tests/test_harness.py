"""The repository's pytest settings: a failing hypothesis test is a failure, not a crash."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_given_test_is_reported_as_a_failure(tmp_path):
    # with filterwarnings = ["error"] alone, hypothesis' report hook turned a
    # mypy_extensions DeprecationWarning into an INTERNALERROR that ended the pytest run
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert done.stdout.rstrip().splitlines()[-1].startswith("1 failed, 1 passed")
