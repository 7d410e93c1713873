"""A fresh interpreter that imports the ``repro`` under test.

What an import loads, and what a process writes before it exits, can only
be seen from a new process: this one has imported half the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: the directory holding the ``repro`` under test, first on the child's path
SRC = str(Path(repro.__file__).resolve().parent.parent)

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
))


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout; a
    non-zero exit fails the calling test with the child's stderr."""
    done = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
