"""The suite's pytest settings report a failing property test as a failure.

`pyproject.toml` turns every warning into an error.  Hypothesis builds its
failure report with libcst, which touches the deprecated
`mypy_extensions.TypedDict`; unless that one warning is ignored, a failing
`@given` test aborts the whole run with `INTERNALERROR` (exit 3) instead.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_a_failing_given_test_fails_the_run_without_an_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
