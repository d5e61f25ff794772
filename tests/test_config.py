"""The repository's pytest configuration, checked by running pytest on a
throwaway test file under it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # Reporting a failing example makes hypothesis import a module that
    # warns; under filterwarnings = error that warning must not end the
    # session, so the passing test after it still runs.
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
