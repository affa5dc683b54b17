"""The program entry of `python -m bcc` and of the `bcc` console script.

run() imports the command-line interface, which loads numpy with one
OpenBLAS thread unless the caller set a count (see bcc.cli), then calls
gc.freeze() before cli.main: the objects the imports created (about
21 500, most of them numpy's) move to the collector's permanent
generation, so neither the run's collections nor the collection at
interpreter exit traverse them again.  cli.main itself, which tests and
library callers run in process, leaves the collector alone.
"""

import gc
import sys

from .cli import main


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
