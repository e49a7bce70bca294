"""The project's pytest settings let a failing test report itself."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert False
'''


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # where libcst is installed, hypothesis's failure report imports a module
    # that warns on import; filterwarnings = ["error"] alone turned that into
    # an INTERNALERROR that ended the session without the example
    pytest.importorskip("libcst")
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
