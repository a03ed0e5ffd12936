"""`python -m cayleykit`: the command-line interface."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
