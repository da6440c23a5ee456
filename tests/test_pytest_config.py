"""The repository's pytest settings let a whole run finish and report."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_end_the_run(tmp_path):
    # Hypothesis imports libcst to report a failing example; libcst's import
    # warns, and filterwarnings = ["error"] alone turned that warning into an
    # internal error that ended the session before the next test ran
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
