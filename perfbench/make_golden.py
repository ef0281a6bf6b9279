#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the sources in ./src.

    python3 perfbench/make_golden.py

The stored goldens were made at the commit that added the benchmark.  Only
regenerate them when a change is meant to alter the program's outputs.

  jordan-verify     sha256 of each section's machine report
  lie-fingerprint   the fingerprint of each algebra
  tkk-export-dense  graded dims of each construction of the undeformed algebra
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name in ("jordan-verify", "lie-fingerprint", "tkk-export-dense"):
        ops = workloads.prepare(name, seed=0)
        golden[name] = {op.key: workloads.expected(name, op) for op in ops}
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    workloads.GOLDEN_PATH.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
