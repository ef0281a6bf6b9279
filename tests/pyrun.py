"""Run a code snippet in a fresh interpreter that imports this checkout's supertkk."""

import os
import subprocess
import sys
from pathlib import Path

import supertkk

SRC = Path(supertkk.__file__).resolve().parents[1]


def run_python(flags, code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
