"""The benchmark's own tests: generator determinism, oracles that reject a
perturbed answer, and a fast smoke run of every workload.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from ehresmann import expr as ex, model  # noqa: E402

WORKLOADS = run.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    first, _ = gen.workload_files(workload, 7)
    again, _ = gen.workload_files(workload, 7)
    other, _ = gen.workload_files(workload, 8)
    assert first == again
    assert first != other


def test_generated_grammar_keeps_fractional_powers_and_log():
    files, _ = gen.workload_files("symbolic-verdicts", 3)
    text = "".join(files.values())
    assert "log(" in text
    assert any(f"^{p}" in text for p in ("0.5", "1.5", "(-0.5)"))


def perturb(value):
    """A wrong answer of the same shape: verdicts flipped, numbers moved by
    about 1e-4, expression trees and texts shifted by a constant."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * (1 + 1e-4) + 1e-4
    if isinstance(value, str):
        return value + " + 0.001"
    if isinstance(value, ex.Expr):
        return ex.Sum((value, ex.Const(1e-3)))
    if isinstance(value, dict):
        return {k: perturb(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(perturb(v) for v in value)
    raise TypeError(f"cannot perturb {value!r}")


def load_models(tmp_path, workload, seed):
    files, specs = gen.workload_files(workload, seed)
    models = {}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        models[name] = model.load(str(path))
    return models, specs, {name: str(tmp_path / name) for name in files}


def assert_oracles_reject_perturbation(ops):
    for op in ops:
        try:
            value, exc = op.run(), None
        except Exception as err:  # expected-error ops
            value, exc = None, err
        assert op.check(value, exc) is None, op.name
        if exc is not None:
            assert op.check(None, None) is not None, op.name
            continue
        assert op.check(perturb(value), None) is not None, op.name
        if isinstance(value, tuple):  # (trees, verdict): wrong trees alone
            assert op.check((perturb(value[0]), value[1]), None) is not None, op.name


def test_symbolic_oracles_reject_perturbed_answers(tmp_path):
    models, specs, _ = load_models(tmp_path, "symbolic-verdicts", 5)
    name = "bundle_m3_n2.yaml"
    assert_oracles_reject_perturbation(wl.case_ops(models[name], specs[name][0], 5))


def test_transport_oracles_reject_perturbed_answers(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "HOLONOMY_STEPS", 1000)
    monkeypatch.setattr(wl, "MERIDIAN_STEPS", (100, 200))
    monkeypatch.setattr(wl, "MERIDIANS_PER_ROUND", 2)
    monkeypatch.setattr(wl, "SECTION_STEPS", 100)
    models, specs, _ = load_models(tmp_path, "transport-loop", 5)
    assert_oracles_reject_perturbation(wl.transport_rounds(5, models, specs)[0])


def test_closed_forms_reject_perturbation():
    import math

    theta = 1.1
    good = orc.holonomy_matrix(theta)
    assert orc.check_close(good, orc.holonomy_matrix(theta), 1e-7, "h") is None
    assert orc.check_close(perturb(good), good, 1e-7, "h") is not None
    u0 = [0.3, -0.7]
    final = orc.meridian_transport(0.8, 0.6, u0)
    assert orc.check_meridian(0.8, 0.6, u0, final, 1e-7) is None
    assert orc.check_meridian(0.8, 0.6, u0, perturb(final), 1e-7) is not None
    assert orc.metric_norm(0.8, u0) == pytest.approx(orc.metric_norm(1.4, final), rel=1e-12)
    # on the equator the loop transports every vector back to itself
    assert orc.rel_err(orc.holonomy_matrix(math.pi / 2), [[1.0, 0.0], [0.0, 1.0]]) < 1e-12


def test_cli_oracles_reject_perturbed_reports(tmp_path):
    _, specs, paths = load_models(tmp_path, "cli-cold", 5)
    out = str(tmp_path / "report.json")
    for op in wl.cli_ops(5, ROOT, paths, specs):
        outcome = wl.run_cli(op, ROOT, out)
        assert wl.check_cli(op, outcome) is None, op.args
        code, stderr, report = outcome
        assert wl.check_cli(op, (code, stderr, perturb(report))) is not None, op.args
        assert wl.check_cli(op, (1 - code, stderr, report)) is not None, op.args


def benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, monkeypatch):
    """One round of each workload at reduced sizes; every end-to-end metric
    of BENCHMARK.json is reported and every operation passes its oracle."""
    monkeypatch.setattr(wl, "HOLONOMY_STEPS", 1000)
    monkeypatch.setattr(wl, "MERIDIAN_STEPS", (100, 200))
    monkeypatch.setattr(wl, "MERIDIANS_PER_ROUND", 2)
    monkeypatch.setattr(wl, "SECTION_STEPS", 100)
    monkeypatch.setattr(gen, "SYMBOLIC_SHAPES", ((2, 1), (3, 1)))
    monkeypatch.setattr(gen, "SYMBOLIC_CASES", 1)
    result, lines = run.run(workload, 9, 0.0, False, ROOT)
    assert result["correct"] and result["failed"] == 0, lines
    assert set(result["metrics"]) == benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced(monkeypatch):
    monkeypatch.setattr(gen, "SYMBOLIC_SHAPES", ((2, 1),))
    monkeypatch.setattr(gen, "SYMBOLIC_CASES", 1)
    result, lines = run.run("symbolic-verdicts", 9, 0.0, True, ROOT)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert set(metrics) == benchmark_names("per_layer")
    assert metrics["expr.normalize.calls"]["value"] > 0
    assert metrics["jetfield.errors"]["value"] > 0  # NotSOPDEError is expected once per case
    assert 0.0 < metrics["expr.is_zero.structural_ratio"]["value"] < 1.0


def test_refuses_to_run_without_source(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "cli-cold", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(cwd)
    assert code == 2
    assert capsys.readouterr().out == ""
