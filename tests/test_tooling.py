"""The test settings must let a failing test report itself, and the
project's tools count what they say they count."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
PYPROJECT = ROOT / "pyproject.toml"

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


COUNTED = '''"""A module docstring
over two lines."""

import math  # a code line with a comment

# a comment line


class Box:
    """A class docstring."""

    size = (1,
            2)

    def area(self):
        """A function docstring."""
        text = """a string
        that is code"""
        return math.prod(self.size), text
'''


def test_code_lines_leaves_out_blank_comment_and_docstring_lines():
    """tools/code_lines.py counts every line a token other than a comment is
    on, a multi-line string's included, but no docstring line: 8 here."""
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.code_lines(COUNTED) == 8
