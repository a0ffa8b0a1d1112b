"""The test run's own settings in pyproject.toml."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

THREE_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.just(0))
def test_fails(x):
    assert x < 0


def test_warns():
    warnings.warn("any other warning", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Reporting a Hypothesis failure imports libcst, which warns on import;
    # as an error under filterwarnings that warning ends the session with an
    # INTERNALERROR before the next test runs.  Every other warning stays an
    # error.  Only the Hypothesis plugin is loaded, to keep the run short.
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-c", str(ROOT / "pyproject.toml"),
         str(tmp_path / "test_three.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "2 failed, 1 passed" in result.stdout, result.stdout
