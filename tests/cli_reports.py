"""Print the label, exit code, stdout and ``-o`` report of every
``conftest.CLI_CASES`` invocation, run in-process with click's CliRunner.

Running it against two versions of the package and diffing the outputs
shows every change of CLI output between them:

    PYTHONPATH=src python tests/cli_reports.py > head.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_reports.py > base.txt
    diff -u base.txt head.txt

The model files and the cases come from this checkout in both runs; only the
package under ``PYTHONPATH`` differs.  The name keeps pytest from collecting
it.
"""

import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from ehresmann import cli

from conftest import CLI_CASES


def main():
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as scratch:
        for label, args in CLI_CASES:
            out = Path(scratch) / f"{label}.json"
            result = runner.invoke(cli.main, args + ["-o", str(out)])
            sys.stdout.write(f"== {label}: exit {result.exit_code}\n")
            sys.stdout.write("-- stdout\n" + result.stdout)
            report = out.read_text() if out.exists() else "(no report)\n"
            sys.stdout.write("-- report\n" + report)
            if not report.endswith("\n"):
                sys.stdout.write("\n")


if __name__ == "__main__":
    main()
