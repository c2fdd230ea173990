"""The suite's pytest configuration rejects an unregistered marker and a leaked file.

Without it a misspelt ``slow`` only warns, and the test runs in the fast tier;
an unclosed file handle only warns, and the handle leaks in the library.  Its
warning filters still let a failing hypothesis property print its example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run(tmp_path, test):
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test)],
                          capture_output=True, text=True, cwd=tmp_path)


def test_misspelt_marker_fails_collection(tmp_path):
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    run = _run(tmp_path, test)
    assert run.returncode != 0
    assert "'slwo' not found in `markers`" in run.stdout


def test_unclosed_file_fails_the_test(tmp_path):
    test = tmp_path / "test_leak.py"
    test.write_text("import gc\n\n\ndef test_x():\n    fh = open(__file__)\n"
                    "    del fh\n    gc.collect()\n")
    run = _run(tmp_path, test)
    assert run.returncode != 0
    assert "ResourceWarning: unclosed file" in run.stdout


def test_failing_property_prints_example(tmp_path):
    test = tmp_path / "test_prop.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n")
    run = _run(tmp_path, test)
    assert run.returncode == 1
    assert "Falsifying example: test_fails(" in run.stdout
    assert "INTERNALERROR" not in run.stdout
