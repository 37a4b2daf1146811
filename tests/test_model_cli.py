"""Model-file loading and the command line interface."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import ehresmann
from ehresmann import cli
from ehresmann import expr as ex
from ehresmann.errors import ModelError
from ehresmann.model import load

from conftest import CLI_CASES, LINE, MODELS, PLANE, SPHERE


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

    def test_sphere_model(self):
        model = load(SPHERE)
        assert model.manifold_names == ("th", "ph")
        assert set(model.manifold_connections) == {"levi_civita", "twisted"}
        assert set(model.curves) == {"equator", "lat60", "meridian_arc"}
        assert model.curves["equator"].is_closed()
        assert not model.curves["meridian_arc"].is_closed()

    def test_line_model(self):
        model = load(LINE)
        assert model.chart.m == 1
        assert "free_fall" in model.jetfields

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

    def test_wrong_gamma_shape(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "bundle:\n  base: 2\n  fiber: 1\n"
            "connections:\n  broken:\n    gamma:\n      - [\"y1\"]\n"
        )
        with pytest.raises(ModelError) as info:
            load(str(path))
        assert "expected 2" in str(info.value)

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
        assert json.loads(out.read_text())["linear"] is False

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
        }
        for label, (text, args) in bad_models.items():
            path = tmp_path / f"{label}.yaml"
            path.write_text(text)
            cases.append(args + ["--model", str(path)])
        for args in cases:
            result = runner.invoke(cli.main, args)
            assert result.exit_code == 2, (args, result.output)
            assert isinstance(result.exception, SystemExit), args
            assert result.stderr.startswith("error: "), args

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

    # per subcommand, an invocation naming an unknown model entry (for expr,
    # malformed text); every one must take the shared error path
    UNKNOWN_ENTRY = {
        "expr": ["--text", "x1 +"],
        "prolong": ["--section", "nope"],
        "curvature": ["--connection", "nope"],
        "integrable": ["--connection", "nope"],
        "split": ["--connection", "nope", "--vector", "1,0,0"],
        "integral-section": ["--connection", "nope", "--start", "0,0",
                             "--fiber", "1", "--target", "1,1"],
        "residual": ["--connection", "flat", "--section", "nope"],
        "shift": ["--connection", "nope", "--by", "1,1"],
        "multivector": ["--connection", "nope"],
        "sopde-check": ["--jetfield", "nope"],
        "linear-check": ["--connection", "nope"],
        "christoffels": ["--connection", "nope"],
        "covariant": ["--christoffel", "nope", "--section", "affine"],
        "torsion": ["--manifold-connection", "nope"],
        "transport": ["--manifold-connection", "nope", "--curve", "lat60",
                      "--vector", "1,0"],
        "holonomy": ["--manifold-connection", "nope", "--curve", "lat60"],
        "lift": ["--manifold-connection", "nope", "--point", "1,0",
                 "--fiber", "1,0", "--vector", "0,1"],
    }

    @pytest.mark.parametrize("name", list(cli.DISPATCH))
    def test_shared_error_path(self, runner, name):
        model = SPHERE if name in ("torsion", "transport", "holonomy", "lift") else PLANE
        result = runner.invoke(cli.main, [name, "--model", model] + self.UNKNOWN_ENTRY[name])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output


# --------------------------------------------------------------------------
# dispatch coverage


class TestDispatchCoverage:
    def test_every_subcommand_listed(self):
        assert set(cli.DISPATCH) == set(cli.main.commands)

    def test_listed_operations_exist(self):
        modules = {
            "expr": ehresmann.expr,
            "bundle": ehresmann.bundle,
            "connection": ehresmann.connection,
            "multivector": ehresmann.multivector,
            "jetfield": ehresmann.jetfield,
            "linear": ehresmann.linear,
            "transport": ehresmann.transport,
        }
        for command, operations in cli.DISPATCH.items():
            for op in operations:
                module_name, _, func = op.partition(".")
                assert callable(getattr(modules[module_name], func)), (command, op)

    def test_public_operations_reachable(self):
        # every public operation of the computational modules is reached by
        # at least one subcommand
        reached = {op for ops in cli.DISPATCH.values() for op in ops}
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
                "torsion", "is_symmetric", "liouville_field",
            ],
            "transport": [
                "parallel_transport", "holonomy", "horizontal_lift_vector",
                "hv_project_tm", "complete_lift", "covariant_via_complete_lift",
            ],
        }
        for module, functions in surface.items():
            for func in functions:
                assert f"{module}.{func}" in reached, f"{module}.{func} unreachable"
