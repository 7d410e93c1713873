"""Entry point for ``python -m repro``."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # the reader left early (``repro tables | head -1``): point stdout
        # at devnull so the flush at exit cannot raise again, and exit 1
        # the way the Python docs' note on SIGPIPE does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
