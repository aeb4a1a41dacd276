"""The test settings must let a failing test report itself."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    """Under the project's warning filters, a failing @given test ends the
    run with its falsifying example and exit code 1, not an INTERNALERROR
    raised by a warning in the hypothesis plugin's report hook."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
