"""``PYTHONPATH=src python -m benchmarks.ladder`` — see :mod:`.cli`."""

import sys

from benchmarks.ladder.cli import main

sys.exit(main())
