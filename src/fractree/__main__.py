"""``python -m fractree``: the same command line as ``python -m fractree.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
