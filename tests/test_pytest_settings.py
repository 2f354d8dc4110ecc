"""The pytest settings in pyproject.toml, checked on a throwaway test module
run in a fresh pytest process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

MODULE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 10


def test_deprecation_is_an_error():
    warnings.warn("old", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # A failing @given test must fail alone (exit 1), not stop pytest with an
    # internal error (exit 3) before the other tests run; a DeprecationWarning
    # still fails its test.
    (tmp_path / "test_module.py").write_text(MODULE)
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, *args, "test_module.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "2 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
