"""python -m ordsym: the command line, through cli.run.

cli.run runs cli.main and then freezes the heap (gc.freeze), so that the
interpreter's shutdown does not traverse it; see the cli docstring.
"""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
