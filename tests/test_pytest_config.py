"""The suite's pytest settings report a failing test instead of aborting."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # With warnings as errors, a failing @given test used to end the run in
    # INTERNALERROR, and the tests after it never ran.
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert done.returncode == 1
