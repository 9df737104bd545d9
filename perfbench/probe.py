"""Set-up time of one fresh process: import linesys and parse a command.

    probe.py ARGV...

Prints the seconds taken, then the CPU seconds of one run of the
calibration kernel in the same process.  Nothing but the interpreter's
own start-up modules is loaded before timing starts, so every module
linesys pulls in is paid for here, as it is by a user's process.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import linesys.cli  # noqa: E402

linesys.cli.build_parser().parse_args(sys.argv[1:])
elapsed = time.perf_counter() - start

from calibrate import kernel_seconds  # noqa: E402

print(repr(elapsed), repr(kernel_seconds()))
