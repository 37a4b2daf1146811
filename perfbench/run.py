"""Seeded benchmark of the ehresmann engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` (it need not be installed).  Workloads:

  transport-loop     holonomy at 10^4 RK4 steps around seeded latitude
                     circles of the sphere, meridian transports and integral
                     sections of generated flat connections (in process)
  symbolic-verdicts  curvature, integrability, SOPDE, linearity and class
                     verdicts on generated bundle models (in process)
  cli-cold           every CLI subcommand as its own ``python -m
                     ehresmann.cli`` process, one at a time

One client runs one operation at a time (closed loop).  Every operation is
checked against an oracle that does not call the package (see
``oracles.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give provenance, the latency tail's percentile and sample
count, failures, and the status of known defects; a copy of everything goes
to ``.perfbench/results/``.  Exit code 2 means the benchmark could not run
(for example, no ``src/ehresmann`` in the current directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from layertrace import LAYERS, MODULES, Tracer, merge  # noqa: E402

WORKLOADS = ("transport-loop", "symbolic-verdicts", "cli-cold")
# latency tail percentile per workload: fixed, so that runs compare, and
# low enough to leave at least ten samples beyond it in a 30 s run on a
# slow machine (about 100, 900 and 66 operations; BENCHMARK.json runs for
# 55 s)
TAIL_PERCENTILE = {"transport-loop": 85, "symbolic-verdicts": 98, "cli-cold": 75}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SETUP_CODE = (
    "import sys, ehresmann.cli\n"
    "from ehresmann import model\n"
    "for path in sys.argv[1:]:\n"
    "    model.load(path)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run(workload, seed, seconds, traced, root):
    root = os.path.abspath(root)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ehresmann", "__init__.py")):
        raise BenchError(f"no package source at {src}/ehresmann")
    if not os.path.isdir(os.path.join(root, "models")):
        raise BenchError(f"no shipped models at {root}/models")
    work = os.path.join(root, ".perfbench", "models", f"{workload}-{seed}")
    results_dir = os.path.join(root, ".perfbench", "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    files, specs = gen.workload_files(workload, seed)
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(work, name)
        with open(paths[name], "w") as handle:
            handle.write(text)

    sys.path.insert(0, src)
    import ehresmann

    if os.path.dirname(os.path.abspath(ehresmann.__file__)) != os.path.join(src, "ehresmann"):
        raise BenchError(f"imported ehresmann from {ehresmann.__file__}, not from {src}")

    tracer = Tracer() if traced else None
    if workload == "cli-cold":
        passes, trace_data, load_wall = run_cli(root, work, paths, specs, seed, seconds, tracer)
    else:
        passes, trace_data, load_wall = run_inprocess(workload, paths, specs, seed, seconds, tracer)
    # peak memory of the operations: read before any set-up or reference
    # process adds to the children's maximum
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [(name, reason) for name, reason in outcomes if reason]
    attempted, failed = len(outcomes), len(failures)
    lines = []
    provenance = collect_provenance(root, seed, traced, workload, seconds)
    lines.append("# provenance " + json.dumps(provenance, sort_keys=True))
    defects = known_defects()
    lines.append("# known defects (not counted in failed): " + json.dumps(defects, sort_keys=True))
    for name, reason in failures[:20]:
        lines.append(f"# FAILED {name}: {reason}")

    record = {"provenance": provenance, "known_defects": defects, "failures": failures[:200]}
    if traced:
        metrics, table = layer_metrics(trace_data, passes, load_wall, root)
        lines.extend(table)
        record["per_layer"] = metrics
        record["spans_dropped"] = trace_data.get("dropped", 0)
    else:
        setup = measure_setup(root, list(paths.values()))
        refs = reference_errors(root) if workload != "cli-cold" else reference_errors_cli(root, work)
        metrics, info = end_to_end(workload, passes[0], setup, refs, rss_mb, attempted, failed)
        lines.append("# " + json.dumps(info, sort_keys=True))
        record["detail"] = info
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    out = os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if traced and workload != "cli-cold":
        tracer.dump(os.path.join(results_dir, f"{workload}-seed{seed}-spans.json"))
    return result, lines


# ---------------------------------------------------------------------------
# set-up


def measure_setup(root, model_paths):
    """Median wall time of a fresh interpreter that imports the package and
    loads the workload's model files; one unmeasured run first fills the
    bytecode cache."""
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *model_paths], cwd=root,
                              env=wl.cli_env(root), capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        if attempt:
            samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# running rounds


def timed(op, tracer=None):
    """(latency, check outcome) of one operation.  The answer is checked as
    soon as the operation returns, outside its timing, and then dropped, so
    the heap does not grow with the run."""
    if tracer is not None:
        tracer.op += 1
    t0 = perf_counter()
    try:
        value, exc = op.run(), None
    except Exception as err:  # the op's check decides whether this is expected
        value, exc = None, err
    latency = perf_counter() - t0
    return latency, (op.name, op.check(value, exc))


def run_rounds(rounds, seconds):
    """Whole rounds until `seconds` have passed."""
    latencies, outcomes = [], []
    start = perf_counter()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            latency, outcome = timed(op)
            latencies.append(latency)
            outcomes.append(outcome)
        done += 1
        wall = perf_counter() - start
        if wall >= seconds:
            break
    return {"latencies": latencies, "outcomes": outcomes, "rounds": done, "wall": wall}


def run_paired(plain_rounds, traced_rounds, seconds, tracer, install=None, uninstall=None):
    """Trace mode: each operation runs untraced, then traced, so that both
    passes see the same machine; whole rounds until `seconds` have passed."""
    plain = {"latencies": [], "outcomes": []}
    traced = {"latencies": [], "outcomes": []}
    start = perf_counter()
    done = 0
    while True:
        index = done % len(plain_rounds)
        for plain_op, traced_op in zip(plain_rounds[index], traced_rounds[index]):
            for side, op, on in ((plain, plain_op, False), (traced, traced_op, True)):
                if on and install:
                    install()
                try:
                    latency, outcome = timed(op, tracer if on else None)
                finally:
                    if on and uninstall:
                        uninstall()
                side["latencies"].append(latency)
                side["outcomes"].append(outcome)
        done += 1
        if perf_counter() - start >= seconds:
            break
    for side in (plain, traced):
        side["rounds"] = done
        side["wall"] = sum(side["latencies"])
    return plain, traced


def run_inprocess(workload, paths, specs, seed, seconds, tracer):
    from ehresmann import model

    if tracer is not None:
        tracer.install()
    start = perf_counter()
    models = {name: model.load(path) for name, path in paths.items()}
    load_wall = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    build = wl.transport_rounds if workload == "transport-loop" else wl.symbolic_rounds
    rounds = build(seed, models, specs)
    if tracer is None:
        return [run_rounds(rounds, seconds)], None, load_wall
    plain, traced = run_paired(rounds, rounds, seconds, tracer, tracer.install, tracer.uninstall)
    return [plain, traced], tracer.snapshot() | {"dropped": tracer.dropped}, load_wall


def run_cli(root, work, paths, specs, seed, seconds, tracer):
    ops = wl.cli_ops(seed, root, paths, specs)
    out_path = os.path.join(work, "report.json")
    # one round runs every subcommand once
    plain_round = [cli_op(i, op, root, out_path) for i, op in enumerate(ops)]
    if tracer is None:
        return [run_rounds([plain_round], seconds)], None, 0.0
    trace_dir = os.path.join(work, "traces")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced_round = [cli_op(i, op, root, out_path, trace_dir) for i, op in enumerate(ops)]
    plain, traced = run_paired([plain_round], [traced_round], seconds, tracer)
    snaps = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as handle:
            snaps.append(json.load(handle))
    return [plain, traced], merge(snaps), 0.0


def cli_op(index, op, root, out_path, trace_dir=None):
    """The CLI process as an op, timed from start to exit plus reading its
    JSON report."""
    counter = [0]

    def run_process():
        trace_path = None
        if trace_dir is not None:
            counter[0] += 1
            trace_path = os.path.join(trace_dir, f"{index:02d}-{counter[0]}.json")
        return wl.run_cli(op, root, out_path, trace_path)

    def check(outcome, exc):
        if exc is not None:
            return f"{type(exc).__name__}: {exc}"
        return wl.check_cli(op, outcome)

    return wl.Op(f"cli {index:02d} {op.args[0]}", run_process, check)


# ---------------------------------------------------------------------------
# metrics


def percentile(samples, pct):
    """Linear interpolation between closest ranks."""
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, measured, setup, refs, rss_mb, attempted, failed):
    lat = measured["latencies"]
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(lat, pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "max_rel_err": (max(refs.values()), "ratio"),
    }
    info = {
        "ops": len(lat),
        "rounds": measured["rounds"],
        "wall_s": measured["wall"],
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for v in lat if v > tail),
        "setup_samples_s": setup,
        "reference_rel_err": refs,
        "peak_rss_of": "children" if workload == "cli-cold" else "self",
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


# fixed, seed-independent reference cases on the shipped models, at step
# counts coarse enough that RK4 truncation, not rounding, sets the error
REF_HOLONOMY_STEPS, REF_TRANSPORT_STEPS, REF_SECTION_STEPS = 64, 16, 8


def reference_want():
    import math

    return {
        "holonomy_lat60": orc.holonomy_matrix(math.pi / 3),
        "transport_meridian_arc": orc.meridian_transport(1.0, 0.5, [1.0, 1.0]),
        "integral_section_plane_flat": [[math.exp(2.0)]],
    }


def reference_errors(root):
    from ehresmann import connection as cn, model, transport as tp

    sphere = model.load(os.path.join(root, "models", "sphere.yaml"))
    plane = model.load(os.path.join(root, "models", "plane.yaml"))
    lc = sphere.manifold_connections["levi_civita"]
    got = {
        "holonomy_lat60": tp.holonomy(lc, sphere.curves["lat60"], REF_HOLONOMY_STEPS),
        "transport_meridian_arc": tp.parallel_transport(
            lc, sphere.curves["meridian_arc"], [1.0, 1.0], REF_TRANSPORT_STEPS).final,
        "integral_section_plane_flat": cn.integral_section(
            plane.connections["flat"], [0.0, 0.0], [1.0], [[1.0, 1.0]], steps=REF_SECTION_STEPS),
    }
    want = reference_want()
    return {k: orc.rel_err(got[k], want[k]) for k in want}


def reference_errors_cli(root, work):
    sphere = os.path.join(root, "models", "sphere.yaml")
    plane = os.path.join(root, "models", "plane.yaml")
    cases = {
        "holonomy_lat60": (["holonomy", "--model", sphere, "--manifold-connection", "levi_civita",
                            "--curve", "lat60", "--steps", str(REF_HOLONOMY_STEPS)],
                           lambda rep: rep["matrix"]),
        "transport_meridian_arc": (["transport", "--model", sphere, "--manifold-connection",
                                    "levi_civita", "--curve", "meridian_arc", "--vector", "1,1",
                                    "--steps", str(REF_TRANSPORT_STEPS)], lambda rep: rep["final"]),
        "integral_section_plane_flat": (["integral-section", "--model", plane, "--connection", "flat",
                                         "--start", "0,0", "--fiber", "1", "--target", "1,1",
                                         "--steps", str(REF_SECTION_STEPS)],
                                        lambda rep: [rep["samples"][0]["values"]]),
    }
    want = reference_want()
    out_path = os.path.join(work, "reference.json")
    errors = {}
    for key, (args, pick) in cases.items():
        op = wl.CliOp(args, 0, lambda rep: None)
        code, stderr, report = wl.run_cli(op, root, out_path)
        if code != 0 or report is None:
            raise BenchError(f"reference case {key} failed: {stderr.strip()[-300:]}")
        errors[key] = orc.rel_err(pick(report), want[key])
    return errors


def layer_metrics(data, passes, load_wall, root):
    plain, traced = passes
    traced_wall = sum(traced["latencies"]) + load_wall
    metrics, rows = {}, []
    for layer in LAYERS:
        calls, self_s = data["layers"][layer]
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        rows.append((self_s, layer, calls))
    zero_calls = data["layers"]["expr.is_zero"][0]
    metrics["expr.is_zero.structural_ratio"] = (
        data["counts"]["is_zero_structural"] / zero_calls if zero_calls else 0.0, "ratio")
    metrics["transport.rk4_steps"] = (data["counts"]["rk4_steps"], "count-computed")
    metrics["transport.rhs_evals"] = (data["counts"]["rhs_evals"], "count-computed")
    for module in MODULES:
        metrics[f"{module}.errors"] = (data["errors"][module], "count")
    metrics.update(cli_start_metrics(root))
    overhead = sum(traced["latencies"]) / sum(plain["latencies"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    table = [f"# per-layer self time over {plain['rounds']} rounds (each operation also run"
             f" untraced, alternately), traced wall {traced_wall:.3f} s (CLI: summed over"
             f" processes), trace overhead x{overhead:.3f}"]
    for self_s, layer, calls in sorted(rows, reverse=True):
        table.append(f"#   {layer:40s} {calls:>10d} calls {self_s:10.4f} s "
                     f"{100 * self_s / traced_wall:6.1f}% of wall")
    table.append("#   transport.rk4_steps and transport.rhs_evals are computed from the call "
                 "arguments, not observed")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, table


def cli_start_metrics(root):
    """Interpreter start (``python -c pass``) and, from ``-X importtime``,
    the import of ``ehresmann.cli`` and of numpy inside it; medians."""
    env = wl.cli_env(root)
    starts, imports, numpys = [], [], []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
        starts.append(perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ehresmann.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True,
                              timeout=60)
        total = numpy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            if not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2]
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            if depth <= 1 and (name == "ehresmann" or name.startswith("ehresmann.")):
                total += cumulative
            if name == "numpy":
                numpy = cumulative
        imports.append(total / 1e6)
        numpys.append(numpy / 1e6)
    return {
        "cli.interp_start_s": (statistics.median(starts), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.import_numpy_s": (statistics.median(numpys), "s"),
    }


# ---------------------------------------------------------------------------
# provenance and known defects


def collect_provenance(root, seed, traced, workload, seconds):
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ehresmann")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "generator": {"symbolic_shapes": gen.SYMBOLIC_SHAPES, "symbolic_cases": gen.SYMBOLIC_CASES,
                      "transport_shapes": gen.TRANSPORT_SHAPES,
                      "transport_cases": gen.TRANSPORT_CASES, "sphere_curves": gen.SPHERE_CURVES},
    }


def known_defects():
    """Inputs of the defects listed in ROADMAP item 3: 'reproduces' while the
    package still gets them wrong."""
    from ehresmann import bundle, connection as cn, expr as ex, multivector as mvec

    def vacuous_transverse():
        chart = bundle.BundleChart.standard(1, 1)
        field = cn.VectorField(chart, (ex.parse("log(-1 - x1^2)"),), (ex.ZERO,))
        return mvec.is_transverse(mvec.Multivector(chart, (field,)))

    cases = {
        "normalize_pow_merge: is_zero((x^2)^0.5 - x)":
            (lambda: ex.is_zero(ex.parse("(x^2)^0.5 - x")), True),
        "nonfinite_zero: is_zero(x^400 * 10^300)":
            (lambda: ex.is_zero(ex.parse("x^400 * 10^300")), True),
        "vacuous_transverse: no valid probe point": (vacuous_transverse, True),
        "overflow_escape: evaluate(x1^1.5, x1=1e300)":
            (lambda: ex.evaluate(ex.parse("x1^1.5"), {"x1": 1e300}), OverflowError),
    }
    status = {}
    for name, (probe, wrong) in cases.items():
        try:
            value = probe()
            status[name] = "reproduces" if value is wrong else "fixed"
        except Exception as err:  # an escaping exception is one of the defects
            status[name] = "reproduces" if type(err) is wrong else f"fixed ({type(err).__name__})"
    return status


if __name__ == "__main__":
    sys.exit(main())
