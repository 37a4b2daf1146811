"""Print the label, exit code, stdout and ``-o`` report of every
``conftest.CLI_CASES`` invocation, the exit code and stderr of ``expr`` on
every ``conftest.BAD_MODELS`` model (with the model's temporary path shown
as ``<path>``), the ``--help`` of the group and of every
subcommand, and the exit code and stderr of every ``conftest.UNKNOWN_ENTRY``
invocation, all run in-process with click's CliRunner.

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

from conftest import BAD_MODELS, CLI_CASES, UNKNOWN_ENTRY


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
        for name, text in BAD_MODELS.items():
            path = Path(scratch) / f"{name}.yaml"
            path.write_text(text)
            result = runner.invoke(cli.main, ["expr", "--model", str(path), "--text", "0"])
            sys.stdout.write(f"== bad model {name}: exit {result.exit_code}\n")
            sys.stdout.write("-- stderr\n" + result.stderr.replace(str(path), "<path>"))
    for name in [None, *sorted(cli.main.commands)]:
        args = ["--help"] if name is None else [name, "--help"]
        result = runner.invoke(cli.main, args, prog_name="ehresmann")
        sys.stdout.write(f"== {' '.join(args)}: exit {result.exit_code}\n{result.stdout}")
    for name, args in UNKNOWN_ENTRY.items():
        result = runner.invoke(cli.main, [name] + args)
        sys.stdout.write(f"== {name} unknown entry: exit {result.exit_code}\n")
        sys.stdout.write("-- stderr\n" + result.stderr)


if __name__ == "__main__":
    main()
