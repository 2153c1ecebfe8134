"""`python -m nilcoh` and the installed `nilcoh` script: run one command,
deliver its report, then end the process without interpreter finalization.

Finalization would tear down every loaded module and memoised matrix, 11-17
ms a process on a 2-core x86_64 machine with CPython 3.11, for nothing:
nilcoh registers no atexit handler, starts no thread and writes nothing but
stdout and stderr.  So once both streams are flushed, os._exit ends the
process.  argparse's SystemExit (--help, usage errors) leaves through the
normal exit.  In-process callers use cli.main.
"""

import os
import sys

from . import cli


def main():
    code = cli.main()
    try:
        sys.stdout.flush()
    except (AttributeError, OSError, ValueError) as e:
        # cli._emit flushes and reports its own failures; anything else left
        # unwritten must not exit 0
        if code == 0:
            print(f"nilcoh: cannot write the report: {e}", file=sys.stderr)
            code = 1
    try:
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        pass  # nowhere left to say so; the exit code stands
    os._exit(code)


if __name__ == "__main__":
    main()
