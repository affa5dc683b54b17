"""The program entry of `python -m bcc` and of the `bcc` console script.

run() imports the command-line interface, which loads numpy with one
OpenBLAS thread unless the caller set a count (see bcc.cli), then calls
gc.freeze() before cli.main: the objects the imports created (about
21 500, most of them numpy's) move to the collector's permanent
generation, so the run's collections do not traverse them again.

run_and_exit() is what both entries call.  Once run() has returned, it
flushes stdout and stderr as the interpreter's exit does and ends the
process with os._exit, which skips the rest of that exit: freeing every
module and object, and the atexit callbacks, of which bcc's commands
register none.  Every file a command writes is closed before main returns.
A failed flush, such as stdout's on a closed pipe, is reported and sets the
exit status as the interpreter would.  SystemExit from the parser (--help,
usage errors) and any exception out of main propagate as they would from
run().  cli.main itself, which tests and library callers run in process,
leaves the collector and the exit alone; callers that need the
interpreter's own exit, such as a coverage tool that writes its data at
exit, should call cli.main.
"""

import gc
import os
import sys

from .cli import main

FLUSH_FAILED = 120
"""CPython's exit status when flushing stdout or stderr at exit fails."""


def run() -> int:
    gc.freeze()
    return main()


def _flush_std_files() -> bool:
    """Flush stdout, then stderr, as CPython's exit does; False if either failed.

    A failed stdout flush goes to stderr as the interpreter reports it.  It
    cannot be left for the interpreter's own flush: bytes that did not fit
    the stream's buffer (4096 on a pipe) are dropped when their write
    fails, and a second flush would then succeed.
    """
    ok = True
    for stream in (sys.stdout, sys.stderr):
        if stream is None:   # its descriptor was closed when the process started
            continue
        try:
            stream.flush()
        except Exception as exc:
            ok = False
            if stream is sys.stdout:
                import traceback   # only here: a bcc process does not load it otherwise
                sys.stderr.write(f"Exception ignored in: {stream!r}\n"
                                 + "".join(traceback.format_exception_only(type(exc), exc)))
    return ok


def run_and_exit():
    code = run()
    os._exit(code if _flush_std_files() else FLUSH_FAILED)


if __name__ == "__main__":
    run_and_exit()
