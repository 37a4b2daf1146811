"""Model-file loading and the command line interface."""

import json
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import ehresmann
from ehresmann import cli
from ehresmann import expr as ex
from ehresmann.errors import ModelError
from ehresmann.model import load

from conftest import BAD_MODELS, CLI_CASES, LINE, MODELS, PLANE, SPHERE, UNKNOWN_ENTRY

# the error of each conftest.BAD_MODELS entry, with the model file's path
# as <path>: for a shape defect, the entry, then the constructor's table
# name, the offending index and the defect
BAD_MODEL_ERRORS = {
    "connections-short-row": "connections.broken: Gamma[1]: expected 2 entries, found 1",
    "connections-extra-row": "connections.broken: Gamma: expected 1 entry, found 2",
    "jetfields-G-extra-row": "jetfields.broken: G[1]: expected 2 entries, found 3",
    "christoffels-string-row":
        "christoffels.broken: Christoffel[1][1]: expected 2 entries, found an expression",
    "manifold_connections-scalar":
        "manifold_connections.broken: connection: expected 2 entries, found an expression",
    "sections-too-deep":
        "sections.broken: section component[1]: expected an expression, found tuple",
    "curves-short": "curves.broken: curve component: expected 2 entries, found 1",
    "connections-list": "connections: must be a mapping",
    "connections-integer-name": "connections: entry name 1 is not a string",
    "connections-bool": "connections.broken.gamma[1][1]: expected a number, got True",
    "connections-inf": "connections.broken.gamma[1][1]: number inf is out of range",
    "connections-huge-integer":
        f"connections.broken.gamma[1][1]: number 1{'0' * 400} is out of range",
    "bad-date": "<path>: not valid YAML: month must be in 1..12",
    "unknown-key": "<path>: unknown keys ['conections'] (known: probe, bundle, manifold, "
                   "connections, jetfields, christoffels, manifold_connections, sections, curves)",
    "curves-unknown-key": "curves.c: unknown keys ['domian'] (known: components, domain, periods)",
    "connections-unknown-key": "connections.c: unknown keys ['gama'] (known: gamma)",
    "bundle-unknown-key": "bundle: unknown keys ['bxo'] (known: base, fiber, box)",
    "manifold-unknown-key": "manifold: unknown keys ['boxx'] (known: coords, box)",
    "bundle-m-n": "bundle: unknown keys ['m', 'n'] (known: base, fiber, box)",
    "bundle-box-list": "bundle.box: must be a mapping",
    "probe-list": "probe: must be a mapping",
    "probe-zero": "probe: must be a mapping",
    "periods-list": "curves.c.periods: must be a mapping",
}


# --------------------------------------------------------------------------
# model loading


class TestModelLoading:
    def test_plane_model(self):
        model = load(PLANE)
        assert model.chart.m == 2 and model.chart.n == 1
        assert set(model.connections) == {"curved", "flat", "zero", "linear", "quadratic"}
        assert set(model.jetfields) == {"sopde_flat", "sopde_asym", "not_sopde"}
        assert set(model.sections) == {"exp_sum", "product", "affine"}
        assert "constant" in model.christoffels
        assert model.probe.seed == 20240815
        assert model.chart.bounds("x1") == (-4.0, 4.0)

    def test_probe_max_retries(self, tmp_path):
        path = tmp_path / "retries.yaml"
        path.write_text(Path(PLANE).read_text().split("probe:")[0] + "probe: {max_retries: 5}\n")
        assert load(str(path)).probe.max_retries == 5
        # an integral float is read as an integer
        path.write_text(Path(PLANE).read_text().split("probe:")[0] + "probe: {max_retries: 5.0}\n")
        assert type(load(str(path)).probe.max_retries) is int

    def test_sphere_model(self):
        model = load(SPHERE)
        assert model.manifold.base_names == ("th", "ph")
        assert set(model.manifold_connections) == {"levi_civita", "twisted"}
        assert set(model.curves) == {"equator", "lat60", "meridian_arc"}
        assert model.curves["equator"].is_closed()
        assert not model.curves["meridian_arc"].is_closed()

    def test_manifold_box_defaults_like_bundle(self):
        # ph has no box entry, so it reads the default box of a bundle chart
        model = load(SPHERE)
        assert model.manifold.bounds("th") == (0.01, 3.13)
        assert model.manifold.bounds("ph") == (-10.0, 10.0)
        assert model.manifold_connections["levi_civita"].chart == model.manifold

    def test_line_model(self):
        model = load(LINE)
        assert model.chart.m == 1
        assert "free_fall" in model.jetfields

    def test_same_model_without_libyaml(self, monkeypatch):
        shipped = sorted(MODELS.glob("*.yaml"))
        assert len(shipped) == 3
        default = [load(str(path)) for path in shipped]
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert [load(str(path)) for path in shipped] == default

    def test_require_unknown_name(self):
        model = load(PLANE)
        with pytest.raises(ModelError) as info:
            model.require("connections", "missing")
        assert "known:" in str(info.value)

    def test_missing_file(self):
        with pytest.raises(ModelError):
            load(str(MODELS / "does-not-exist.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("bundle: [unbalanced\n")
        with pytest.raises(ModelError):
            load(str(path))

    def test_non_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ModelError):
            load(str(path))

    @pytest.mark.parametrize("case", sorted(BAD_MODELS))
    def test_wrong_gamma_shape(self, tmp_path, case):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_MODELS[case])
        with pytest.raises(ModelError) as info:
            load(str(path))
        assert str(info.value).replace(str(path), "<path>") == BAD_MODEL_ERRORS[case]

    def test_bad_expression_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "bundle:\n  base: 1\n  fiber: 1\n"
            "connections:\n  broken:\n    gamma:\n      - [\"y1 +\"]\n"
        )
        with pytest.raises(ModelError) as info:
            load(str(path))
        assert "connections.broken.gamma" in str(info.value)

    def test_connection_without_bundle(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("connections:\n  c:\n    gamma:\n      - [\"0\"]\n")
        with pytest.raises(ModelError) as info:
            load(str(path))
        assert "requires a bundle block" in str(info.value)

    def test_curve_without_manifold(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("curves:\n  c:\n    components: [\"t\"]\n")
        with pytest.raises(ModelError):
            load(str(path))

    def test_dimension_shorthand(self, tmp_path):
        path = tmp_path / "dims.yaml"
        path.write_text("bundle:\n  base: 3\n  fiber: 2\n")
        model = load(str(path))
        assert model.chart.base_names == ("x1", "x2", "x3")
        assert model.chart.fiber_names == ("y1", "y2")


# --------------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def run_case(runner, args, tmp_path, tag):
    out = tmp_path / f"{tag}.json"
    result = runner.invoke(cli.main, args + ["-o", str(out)])
    return result, out


class TestCliCommands:
    @pytest.mark.parametrize("label,args", CLI_CASES, ids=[c[0] for c in CLI_CASES])
    def test_runs_and_reports(self, runner, tmp_path, label, args):
        result, out = run_case(runner, args, tmp_path, label)
        assert result.exit_code in (0, 1), result.output
        report = json.loads(out.read_text())
        assert report["command"] == args[0]
        assert result.output.startswith(f"# {args[0]}")

    def test_curvature_output(self, runner, tmp_path):
        result, out = run_case(
            runner,
            ["curvature", "--model", PLANE, "--connection", "curved"],
            tmp_path, "curv",
        )
        report = json.loads(out.read_text())
        assert report["integrable"] is False
        assert ex.is_zero(ex.parse(report["components"]["R[1][1][2]"]) - ex.parse("y1"))

    @pytest.mark.parametrize("module,table,args", [
        ("connection", "_curvature_components",
         ["curvature", "--model", PLANE, "--connection", "curved"]),
        ("linear", "torsion",
         ["torsion", "--model", SPHERE, "--manifold-connection", "levi_civita"]),
    ])
    def test_verdict_from_the_printed_table(self, runner, tmp_path, monkeypatch, module, table,
                                            args):
        # the verdict is decided over the table the report prints, not a second one
        calls = []
        build = getattr(getattr(ehresmann, module), table)

        def counting(*a):
            calls.append(1)
            return build(*a)

        monkeypatch.setattr(getattr(ehresmann, module), table, counting)
        result, _ = run_case(runner, args, tmp_path, table)
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_integrable_exit_codes(self, runner, tmp_path):
        ok, _ = run_case(
            runner, ["integrable", "--model", PLANE, "--connection", "flat"],
            tmp_path, "flat",
        )
        assert ok.exit_code == 0
        bad, out = run_case(
            runner, ["integrable", "--model", PLANE, "--connection", "curved"],
            tmp_path, "curved",
        )
        assert bad.exit_code == 1
        assert json.loads(out.read_text())["integrable"] is False

    def test_sopde_failure_exit_code(self, runner, tmp_path):
        result, out = run_case(
            runner, ["sopde-check", "--model", PLANE, "--jetfield", "not_sopde"],
            tmp_path, "notsopde",
        )
        assert result.exit_code == 1
        assert json.loads(out.read_text())["sopde"] is False

    def test_sopde_not_integrable(self, runner, tmp_path):
        # a SOPDE whose integrability residuals do not all vanish still exits 0
        result, out = run_case(
            runner, ["sopde-check", "--model", PLANE, "--jetfield", "sopde_asym"],
            tmp_path, "asym",
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["sopde"] is True
        assert report["integrable"] is False

    def test_residual_failure_exit_code(self, runner, tmp_path):
        result, out = run_case(
            runner,
            ["residual", "--model", PLANE, "--connection", "flat", "--section", "product"],
            tmp_path, "resfail",
        )
        assert result.exit_code == 1
        assert json.loads(out.read_text())["vanishes"] is False

    def test_linear_failure_exit_code(self, runner, tmp_path):
        result, out = run_case(
            runner,
            ["linear-check", "--model", PLANE, "--connection", "quadratic"],
            tmp_path, "nonlin",
        )
        assert result.exit_code == 1
        report = json.loads(out.read_text())
        assert report["linear"] is False
        assert report["leibniz_vanishes"] is False

    def test_integral_section_value(self, runner, tmp_path):
        import math

        result, out = run_case(
            runner,
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "1", "--target", "1,1"],
            tmp_path, "intsec",
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        value = report["samples"][0]["values"][0]
        assert abs(value - math.e**2) <= 1e-5 * math.e**2

    def test_usage_errors_exit_2(self, runner, tmp_path):
        cases = [
            # unknown model entry
            ["curvature", "--model", PLANE, "--connection", "nope"],
            # conflicting residual modes
            ["residual", "--model", PLANE, "--connection", "flat",
             "--jetfield", "sopde_flat", "--section", "exp_sum"],
            # malformed vector length
            ["split", "--model", PLANE, "--connection", "flat", "--vector", "1,2"],
            # a lifted field that is not a base field
            ["lift", "--model", SPHERE, "--manifold-connection", "levi_civita", "--point", "1,0",
             "--fiber", "1,0", "--vector", "0,1", "--field", "v1,th"],
            ["lift", "--model", SPHERE, "--manifold-connection", "levi_civita", "--point", "1,0",
             "--fiber", "1,0", "--vector", "0,1", "--field", "q,th"],
            # christoffels on a nonlinear connection
            ["christoffels", "--model", PLANE, "--connection", "quadratic"],
            # malformed bindings and sweep order
            ["expr", "--model", PLANE, "--text", "x1", "--at", "x1"],
            ["expr", "--model", PLANE, "--text", "x1", "--at", "x1=abc"],
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "1", "--target", "1,1", "--order", "a,b"],
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "1", "--target", "1,1", "--steps", "0"],
            # non-finite numbers
            ["expr", "--model", PLANE, "--text", "1e400"],
            ["expr", "--model", PLANE, "--text", "x1^1e400", "--at", "x1=2"],
            ["expr", "--model", PLANE, "--text", "1e300 * 1e300 * x1"],
            ["expr", "--model", PLANE, "--text", "cos(x1*x1)", "--at", "x1=1e200"],
            ["expr", "--model", PLANE, "--text", "x1*x1", "--at", "x1=1e200"],
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "1", "--target", "nan,1"],
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "1", "--target", "inf,1"],
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "inf", "--target", "1,1"],
            # a target too far for a finite step count, and an expression
            # nested deeper than the recursion limit
            ["integral-section", "--model", PLANE, "--connection", "flat",
             "--start", "0,0", "--fiber", "1", "--target", "1e308,1"],
            ["expr", "--model", PLANE, "--text", "sin(" * 300 + "x1" + ")" * 300],
            # a report or CSV path that cannot be written, and a non-finite
            # transport that must leave no CSV file behind
            ["integrable", "--model", PLANE, "--connection", "flat",
             "-o", str(tmp_path / "missing" / "r.json")],
            ["integrable", "--model", PLANE, "--connection", "flat", "-o", str(tmp_path)],
            ["transport", "--model", SPHERE, "--manifold-connection", "levi_civita",
             "--curve", "meridian_arc", "--vector", "1,0", "--steps", "10",
             "--csv", str(tmp_path / "missing" / "x.csv")],
            ["transport", "--model", SPHERE, "--manifold-connection", "levi_civita",
             "--curve", "meridian_arc", "--vector", "nan,0", "--steps", "10",
             "--csv", str(tmp_path / "nan.csv")],
        ]
        # model files with a vacuous or non-finite probe policy, or a
        # number that is not one; each command succeeds or exits 1 on the
        # shipped model
        plane = Path(PLANE).read_text().split("probe:")[0]
        sphere = Path(SPHERE).read_text().split("probe:")[0]
        integrable = ["integrable", "--connection", "curved"]
        holonomy = ["holonomy", "--manifold-connection", "levi_civita", "--curve", "lat60"]
        torsion = ["torsion", "--manifold-connection", "levi_civita"]
        arc_holonomy = ["holonomy", "--manifold-connection", "levi_civita", "--curve", "meridian_arc"]
        tiny = "bundle: {{base: {base}, fiber: {fiber}}}\nconnections: {{c: {{gamma: [[y1]]}}}}\n"
        tiny_integrable = ["integrable", "--connection", "c"]
        bad_models = {
            "points-0": (plane + "probe: {points: 0}\n", integrable),
            "tol-nan": (plane + "probe: {tol: .nan}\n", integrable),
            "tol-negative": (plane + "probe: {tol: -1.0e-9}\n", integrable),
            "empty-box": (plane + "probe: {low: 1.0, high: 1.0}\n", integrable),
            "low-inf": (plane + "probe: {low: -.inf}\n", integrable),
            "points-abc": (plane + "probe: {points: abc}\n", integrable),
            "points-inf": (plane + "probe: {points: .inf}\n", integrable),
            "seed-abc": (plane + "probe: {seed: abc}\n", integrable),
            "bundle-box": (plane.replace("x1: [-4.0, 4.0]", "x1: [a, 4.0]"), integrable),
            # an empty or non-finite chart box, for the bundle and the manifold
            "bundle-box-empty": (plane.replace("x1: [-4.0, 4.0]", "x1: [4.0, -4.0]"), integrable),
            "bundle-box-nan": (plane.replace("x1: [-4.0, 4.0]", "x1: [.nan, 4.0]"), integrable),
            "manifold-box-empty": (sphere.replace("th: [0.01, 3.13]", "th: [3.13, 0.01]"), torsion),
            "manifold-box-nan": (sphere.replace("th: [0.01, 3.13]", "th: [0.01, .nan]"), torsion),
            "manifold-box-unknown": (sphere.replace("th: [0.01, 3.13]", "thh: [0.01, 3.13]"), torsion),
            # a probe key that is not one, and max_retries read from the file
            "probe-unknown-key": (plane + "probe: {point: 0}\n", integrable),
            "max-retries-0": (plane + "probe: {max_retries: 0}\n", integrable),
            "domain": (sphere.replace("domain: [0.0, 1.0]", "domain: [a, 1.0]"), holonomy),
            "periods": (sphere.replace("ph: 6.283185307179586", "ph: abc", 1), holonomy),
            # a period that is not finite and positive, or for no coordinate,
            # and a non-finite domain
            "periods-nan": (sphere.replace("ph: 6.283185307179586", "ph: .nan"), holonomy),
            "periods-inf-open": (
                sphere.replace("domain: [0.0, 1.0]", "domain: [0.0, 1.0]\n    periods: {th: .inf}"),
                arc_holonomy,
            ),
            "periods-zero": (sphere.replace("ph: 6.283185307179586", "ph: 0"), holonomy),
            "periods-unknown": (sphere.replace("ph: 6.283185307179586", "phi: 6.283185307179586"), holonomy),
            "domain-inf": (sphere.replace("domain: [0.0, 1.0]", "domain: [0.0, .inf]"), arc_holonomy),
            # a bool or a fraction where an integer is meant, and a bool bound
            "base-true": (tiny.format(base="true", fiber="1"), tiny_integrable),
            "fiber-true": (tiny.format(base="1", fiber="true"), tiny_integrable),
            "points-fraction": (plane + "probe: {points: 2.7}\n", integrable),
            "seed-fraction": (plane + "probe: {seed: 1.5}\n", integrable),
            "max-retries-true": (plane + "probe: {max_retries: true}\n", integrable),
            "bundle-box-true": (plane.replace("x1: [-4.0, 4.0]", "x1: [true, 4.0]"), integrable),
        }
        bad_models.update(
            {f"bad-{name}": (text, ["expr", "--text", "0"]) for name, text in BAD_MODELS.items()}
        )
        for label, (text, args) in bad_models.items():
            path = tmp_path / f"{label}.yaml"
            path.write_text(text)
            cases.append(args + ["--model", str(path)])
        for args in cases:
            result = runner.invoke(cli.main, args)
            assert result.exit_code == 2, (args, result.output)
            assert isinstance(result.exception, SystemExit), args
            assert result.stderr.startswith("error: "), args
        assert not (tmp_path / "nan.csv").exists()

    @pytest.mark.parametrize("th", ["3.2", "nan"])
    def test_covariant_outside_box_exit_2(self, runner, th):
        # lift refuses the same points; th in [0.01, 3.13] on the sphere
        result = runner.invoke(cli.main, [
            "covariant", "--model", SPHERE, "--manifold-connection", "levi_civita",
            "--field", "1,0", "--other-field", "0,1", "--point", f"{th},0.5",
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: point outside the chart box: th={float(th)}\n"

    def test_coordinate_named_like_a_velocity(self, runner, tmp_path):
        # the tangent chart appends _ to the clashing velocity v1
        path = tmp_path / "clash.yaml"
        path.write_text(
            "manifold: {coords: [v1, x]}\n"
            "manifold_connections: {c: {gamma: [[[x, 0], [0, 0]], [[0, 0], [0, 0]]]}}\n"
        )
        assert load(str(path)).manifold.fiber_names == ("v1_", "v2")
        split = ["split", "--model", str(path), "--manifold-connection", "c", "--vector", "1,0,0,0"]
        result, out = run_case(runner, split, tmp_path, "split")
        assert result.exit_code == 0, result.output
        vertical = json.loads(out.read_text())["tangent"]["vertical"]
        assert ex.is_zero(ex.parse(vertical[2]) - ex.parse("x * v1_"))
        covariant = ["covariant", "--model", str(path), "--manifold-connection", "c",
                     "--field", "1,0", "--other-field", "1,0", "--point", "0.5,0.25"]
        result, out = run_case(runner, covariant, tmp_path, "covariant")
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["derivative"] == [0.25, 0.0]

    def test_power_overflow_exit_2(self, runner):
        result = runner.invoke(
            cli.main, ["expr", "--model", PLANE, "--text", "x1^1.5", "--at", "x1=1e300"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "power overflow" in result.output
        assert "Traceback" not in result.output

    def test_transport_csv(self, runner, tmp_path):
        csv_path = tmp_path / "samples.csv"
        result = runner.invoke(
            cli.main,
            ["transport", "--model", SPHERE, "--manifold-connection", "levi_civita",
             "--curve", "meridian_arc", "--vector", "1,0", "--steps", "50",
             "--csv", str(csv_path)],
        )
        assert result.exit_code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,X1,X2"
        assert len(lines) == 52

    def test_holonomy_angle(self, runner, tmp_path):
        import math

        result, out = run_case(
            runner,
            ["holonomy", "--model", SPHERE, "--manifold-connection", "levi_civita",
             "--curve", "lat60", "--steps", "2000"],
            tmp_path, "hol",
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert abs(abs(report["angle"]) - math.pi) <= 1e-6

    def test_seed_changes_probe(self, runner, tmp_path):
        # the --seed flag must reach the probe configuration; both runs
        # succeed and report the same verdict for a robust zero
        for seed in ("1", "2"):
            result, out = run_case(
                runner,
                ["expr", "--model", PLANE, "--seed", seed,
                 "--text", "sin(x1)^2 + cos(x1)^2 - 1"],
                tmp_path, f"seed{seed}",
            )
            assert json.loads(out.read_text())["zero"] is True

    def test_long_sum(self, runner, tmp_path):
        result, out = run_case(
            runner, ["expr", "--model", PLANE, "--text", " + ".join(["x1"] * 250)], tmp_path, "sum"
        )
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["normalized"] == "250 * x1"

    @pytest.mark.parametrize("kind,args", [
        ("connection", ["split", "--model", PLANE, "--connection", "nope", "--vector", "1,0,0"]),
        ("manifold_connection", ["split", "--model", SPHERE, "--manifold-connection", "nope",
                                 "--vector", "1,0,0,0"]),
        ("connection", ["residual", "--model", PLANE, "--section", "exp_sum",
                        "--connection", "nope"]),
        ("jetfield", ["residual", "--model", LINE, "--section", "square_half",
                      "--jetfield", "nope"]),
        # every given entry is looked up before the body checks its modes
        ("jetfield", ["residual", "--model", PLANE, "--section", "exp_sum",
                      "--connection", "flat", "--jetfield", "nope"]),
        ("christoffel", ["covariant", "--model", PLANE, "--christoffel", "nope",
                         "--section", "affine"]),
        ("connection", ["covariant", "--model", PLANE, "--connection", "nope",
                        "--section", "affine", "--field", "1,0"]),
        ("manifold_connection", ["covariant", "--model", SPHERE, "--manifold-connection", "nope",
                                 "--field", "1,0", "--other-field", "0,1", "--point", "1,0"]),
        ("section", ["covariant", "--model", PLANE, "--christoffel", "constant",
                     "--section", "nope"]),
        ("section", ["covariant", "--model", SPHERE, "--manifold-connection", "levi_civita",
                     "--section", "nope", "--field", "1,0", "--other-field", "0,1",
                     "--point", "1,0"]),
        ("section", ["linear-check", "--model", PLANE, "--connection", "linear",
                     "--section", "nope"]),
    ])
    def test_unknown_optional_entry(self, runner, kind, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: unknown {kind} 'nope'"), result.stderr

    def test_optional_entries_reported_when_given(self, runner, tmp_path):
        args = ["linear-check", "--model", PLANE, "--connection", "linear"]
        result, out = run_case(runner, args + ["--section", "affine"], tmp_path, "given")
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["section"] == "affine"
        result, out = run_case(runner, args, tmp_path, "default")
        assert result.exit_code == 0, result.output
        assert "section" not in json.loads(out.read_text())

    def test_entry_options_keep_help_and_order(self, runner):
        result = runner.invoke(cli.main, ["covariant", "--help"])
        assert result.exit_code == 0
        assert "General (possibly nonlinear) connection" in result.output
        flags = ["--christoffel", "--connection", "--manifold-connection", "--section", "--field"]
        positions = [result.output.index(f"{flag} ") for flag in flags]
        assert positions == sorted(positions)
        assert result.output.count("--connection ") == 1
        result = runner.invoke(cli.main, ["linear-check", "--help"])
        assert "Section for the Leibniz probe" in result.output

    @pytest.mark.parametrize("name", list(cli.main.commands))
    def test_shared_error_path(self, runner, name):
        result = runner.invoke(cli.main, [name] + UNKNOWN_ENTRY[name])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output


# --------------------------------------------------------------------------
# dispatch coverage


class TestDispatchCoverage:
    def test_public_operations_reachable(self, runner, tmp_path):
        # every public operation of the computational modules is called by
        # at least one conftest.CLI_CASES invocation, except linear.is_symmetric:
        # the torsion command decides symmetry over the table it prints
        surface = {
            "connection": [
                "horizontal_frame", "split_vector_field", "split_one_form",
                "curvature", "is_integrable", "integral_section",
                "integral_section_residual", "add_vertical",
            ],
            "bundle": ["prolong_section", "prolong_jet_section", "holonomic_check"],
            "multivector": [
                "representative", "contract", "is_transverse", "same_class",
            ],
            "jetfield": [
                "as_connection_on_jet", "project_j1pi1", "is_sopde",
                "sopde_integrability_residuals", "second_order_residual",
            ],
            "linear": [
                "is_linear", "christoffels", "linear_to_ehresmann",
                "covariant_derivative", "covariant_differential",
                "general_covariant_derivative", "leibniz_residual",
                "torsion", "liouville_field",
            ],
            "transport": [
                "parallel_transport", "holonomy", "horizontal_lift_vector",
                "hv_project_tm", "complete_lift", "covariant_via_complete_lift",
            ],
        }
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            results = [
                runner.invoke(cli.main, args + ["-o", str(tmp_path / f"{label}.json")])
                for label, args in CLI_CASES
            ]
        finally:
            sys.setprofile(previous)
        assert all(result.exit_code in (0, 1) for result in results)
        for module, functions in surface.items():
            for func in functions:
                code = getattr(getattr(ehresmann, module), func).__code__
                assert code in called, f"{module}.{func} unreachable"
