"""Print the ``repr`` of the result, or the error, of every operation of one
seeded pass of the ``transport-loop`` and ``symbolic-verdicts`` benchmark
workloads, in order.

The operations and their model files come from ``perfbench/gen.py`` and
``perfbench/workloads.py`` of this checkout, which are only imported; the
model files are written to a temporary directory.  Running it against two
versions of the package and diffing the outputs shows every operation whose
result changed between them, bit for bit:

    PYTHONPATH=src python tests/op_results.py 13 31 > head.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/op_results.py 13 31 > base.txt
    diff -u base.txt head.txt

The optional arguments are the seed of ``transport-loop`` (default 13)
and that of ``symbolic-verdicts`` (default the first).  The name keeps
pytest from collecting it.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402

from ehresmann import model  # noqa: E402

ROUNDS = {
    "transport-loop": workloads.transport_rounds,
    "symbolic-verdicts": workloads.symbolic_rounds,
}


def main(transport_seed="13", symbolic_seed=None):
    seeds = [int(transport_seed), int(symbolic_seed or transport_seed)]
    for workload, seed in zip(ROUNDS, seeds):
        files, specs = gen.workload_files(workload, seed)
        with tempfile.TemporaryDirectory() as scratch:
            models = {}
            for name, text in files.items():
                path = Path(scratch) / name
                path.write_text(text)
                models[name] = model.load(path)
        sys.stdout.write(f"== {workload} seed {seed}\n")
        for r, ops in enumerate(ROUNDS[workload](seed, models, specs)):
            for k, op in enumerate(ops):
                try:
                    outcome = repr(op.run())
                except Exception as err:  # the error is the result
                    outcome = f"{type(err).__name__}: {err}"
                sys.stdout.write(f"{r}.{k} {op.name}: {outcome}\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
