import os
import subprocess
import sys
from pathlib import Path

import pytest

import quatforms

SRC = str(Path(quatforms.__file__).resolve().parents[1])


@pytest.fixture
def run_optimized():
    """Run a snippet under `python -O` (asserts stripped); returns its stdout.

    The snippet prints what it found, so the check happens here, in a
    process whose asserts are still live.
    """

    def run(code):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
