"""The suite's pytest configuration rejects an unregistered marker.

Without it a misspelt ``slow`` only warns, and the test runs in the fast tier.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_misspelt_marker_fails_collection(tmp_path):
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test)],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode != 0
    assert "'slwo' not found in `markers`" in run.stdout
