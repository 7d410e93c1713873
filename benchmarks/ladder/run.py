"""Entry point named in ``BENCHMARK.json``: ``python3 benchmarks/ladder/run.py``.

Puts the checkout root (for ``benchmarks.ladder``) and ``src`` (for
``repro``) on ``sys.path`` and hands over to :mod:`benchmarks.ladder.cli`.
In a directory that holds only the benchmark there is no ``src/repro`` to
measure, and this exits non-zero before printing any result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"ladder: nothing to measure, {SRC}/repro is missing")
    sys.path[:0] = [ROOT, SRC]
    from benchmarks.ladder.cli import main

    sys.exit(main())
