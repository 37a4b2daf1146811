"""Run ``python -m ehresmann.cli`` under the tracer.

Usage: ``python perfbench/traced_cli.py TRACE_OUT CLI_ARGS...``.  The
package is found on ``PYTHONPATH``; the trace is written to TRACE_OUT when
the process exits, whatever its exit code.
"""

import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layertrace import Tracer  # noqa: E402  (the benchmark's own module)

out = sys.argv[1]
tracer = Tracer()
tracer.install()
atexit.register(tracer.dump, out)

from ehresmann.cli import main  # noqa: E402

main(args=sys.argv[2:], prog_name="ehresmann")
