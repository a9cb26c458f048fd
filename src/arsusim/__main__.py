"""``python -m arsusim``: the command-line interface of :mod:`arsusim.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
