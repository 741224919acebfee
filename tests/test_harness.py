"""The repository's pytest settings and packaging.

A failing hypothesis test is a failure, not a crash, and a build of the
package carries the log k! table that ``gmeslab.states`` loads at import.
"""

import os
import shutil
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


def test_build_carries_the_log_factorial_table(tmp_path):
    # a non-editable install copies only what build_py collects; without the
    # package-data entry the .npy is left out and the import fails
    repo = PYPROJECT.parent
    shutil.copy(PYPROJECT, tmp_path)
    shutil.copytree(repo / "src", tmp_path / "src", ignore=shutil.ignore_patterns("*.egg-info", "__pycache__"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run(
        [sys.executable, "-c", "import sys; from setuptools import setup; "
         "sys.argv[1:] = ['-q', 'build_py', '--build-lib', 'out']; setup()"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    table = tmp_path / "out" / "gmeslab" / "_log_factorial.npy"
    assert table.read_bytes() == (repo / "src" / "gmeslab" / "_log_factorial.npy").read_bytes()
