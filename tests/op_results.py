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
and that of ``symbolic-verdicts`` (default the first).  With ``--warm``
every operation is first run once, unprinted, on the same loaded models,
and the second pass is printed; its output must equal the cold one, since
no per-process memo (normal forms, derivatives, compiled kernels and RK4
loops) may change a result:

    PYTHONPATH=src python tests/op_results.py 13 31 > cold.txt
    PYTHONPATH=src python tests/op_results.py --warm 13 31 > warm.txt
    diff -u cold.txt warm.txt

The name keeps pytest from collecting it.
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


def _outcome(op):
    try:
        return repr(op.run())
    except Exception as err:  # the error is the result
        return f"{type(err).__name__}: {err}"


def main(transport_seed="13", symbolic_seed=None, warm=False):
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
        rounds = ROUNDS[workload](seed, models, specs)
        if warm:
            for ops in rounds:
                for op in ops:
                    _outcome(op)
        for r, ops in enumerate(rounds):
            for k, op in enumerate(ops):
                sys.stdout.write(f"{r}.{k} {op.name}: {_outcome(op)}\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(*(arg for arg in args if arg != "--warm"), warm="--warm" in args)
