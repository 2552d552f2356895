import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import quatforms

# CI runs the "ci" profile (HYPOTHESIS_PROFILE=ci): derandomized, so a
# failing example there is the one a local run of that profile draws;
# local runs keep the default, random profile
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

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
