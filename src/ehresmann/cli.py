"""Command line interface: every library capability behind a subcommand.

Each command loads a model file, runs one computation, prints a short
human-readable summary and optionally writes a machine-readable JSON report
(deterministic for a fixed model, flags and seed).  Exit codes: 0 success,
1 a requested check failed, 2 usage error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys

import click

from . import bundle as bd
from . import connection as cn
from . import expr as ex
from . import jetfield as jf
from . import linear as ln
from . import multivector as mv
from . import transport as tp
from .errors import EhresmannError
from .model import load as load_model

# subcommand -> module operations it reaches, filled in by ``command``; the
# test suite checks this table covers the whole public surface
DISPATCH = {}


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _summary_lines(report, prefix="", out=None):
    if out is None:
        out = [f"# {report.get('command', '?')}"]
    for key in sorted(report):
        if key == "command":
            continue
        value = report[key]
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            _summary_lines(value, label + ".", out)
        else:
            out.append(f"{label} = {value}")
    return out


def _texts(exprs):
    return [ex.to_text(ex.normalize(e)) for e in exprs]


def _parse_exprs(text, count=None, what="expression list"):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if count is not None and len(parts) != count:
        _fail(f"{what}: expected {count} comma-separated entries, got {len(parts)}")
    try:
        return [ex.parse(p) for p in parts]
    except EhresmannError as err:
        _fail(f"{what}: {err}")


def _parse_numbers(text, count=None, what="number list", kind=float):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if count is not None and len(parts) != count:
        _fail(f"{what}: expected {count} comma-separated numbers, got {len(parts)}")
    try:
        return [kind(p) for p in parts]
    except ValueError as err:
        _fail(f"{what}: {err}")


model_option = click.option(
    "--model", "model_path", required=True, type=click.Path(exists=True),
    help="Model file (YAML).",
)
output_option = click.option(
    "-o", "--output", type=click.Path(), default=None,
    help="Write the JSON report here.",
)
seed_option = click.option(
    "--seed", type=int, default=None, help="Override the probe seed."
)


@click.group()
def main():
    """Symbolic and numeric computations with connections on trivial
    bundles, jet bundles and manifolds."""


def command(name, ops, fail_unless=None):
    """Declare subcommand ``name`` from a body ``(model, **options) ->
    report``.  Adds ``--model``, ``-o/--output`` and ``--seed``, records
    ``ops`` as ``DISPATCH[name]``, turns an :class:`EhresmannError` into exit
    2, prints the summary, writes the JSON report, and exits 1 when the
    report entry ``fail_unless`` is false."""
    DISPATCH[name] = ops

    def register(body):
        @functools.wraps(body)
        def run(model_path, output, seed, **options):
            try:
                model = load_model(model_path)
                if seed is not None:
                    model.probe = dataclasses.replace(model.probe, seed=seed)
                report = body(model, **options)
            except EhresmannError as err:
                _fail(str(err))
            report["command"] = name
            for line in _summary_lines(report):
                click.echo(line)
            if output:
                with open(output, "w") as handle:
                    handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
            if fail_unless is not None and not report[fail_unless]:
                sys.exit(1)

        return main.command(name)(model_option(output_option(seed_option(run))))

    return register


@command("expr", ("expr.parse", "expr.differentiate", "expr.evaluate", "expr.is_zero"))
@click.option("--text", required=True, help="Expression to analyze.")
@click.option("--diff", "diff_var", default=None, help="Differentiate by this variable.")
@click.option("--at", "at_point", default=None,
              help="Evaluate at comma-separated name=value bindings.")
def expr_command(model, text, diff_var, at_point):
    """Parse, differentiate, evaluate and zero-test an expression."""
    e = ex.parse(text)
    report = {
        "input": ex.to_text(e),
        "normalized": ex.to_text(ex.normalize(e)),
        "zero": ex.is_zero(e, model.probe),
    }
    if diff_var:
        report["derivative"] = ex.to_text(ex.differentiate(e, diff_var))
    if at_point:
        bindings = {}
        for piece in at_point.split(","):
            name, _, value = piece.partition("=")
            try:
                bindings[name.strip()] = float(value)
            except ValueError:
                _fail(f"--at: expected name=value, got {piece.strip()!r}")
        report["value"] = ex.evaluate(e, bindings)
    return report


@command(
    "prolong",
    (
        "bundle.prolong_section",
        "bundle.prolong_jet_section",
        "bundle.holonomic_check",
        "jetfield.project_j1pi1",
    ),
    fail_unless="holonomic",
)
@click.option("--section", "section_name", required=True)
@click.option("--second/--first", default=False,
              help="Also build the second prolongation of the first jet.")
def prolong_command(model, section_name, second):
    """Jet prolongation of a section, with the holonomy identity checked."""
    phi = model.require("sections", section_name)
    psi = bd.prolong_section(phi)
    report = {
        "section": section_name,
        "components": _texts(psi.components),
        "jet_components": [_texts(row) for row in psi.jet_components],
        "holonomic": bd.holonomic_check(psi, model.probe),
    }
    if second:
        f, g, df, dg = bd.prolong_jet_section(psi)
        report["second"] = {
            "f": _texts(f),
            "g": [_texts(row) for row in g],
            "df": [_texts(row) for row in df],
            "dg": [[_texts(row) for row in plane] for plane in dg],
        }
        chart = psi.chart
        flat = (
            list(chart.base_names)
            + _texts(f)
            + [t for row in g for t in _texts(row)]
            + [t for row in df for t in _texts(row)]
            + [t for plane in dg for row in plane for t in _texts(row)]
        )
        report["second"]["projected"] = list(
            jf.project_j1pi1(flat, chart.m, chart.n)
        )
    return report


@command("curvature", ("connection.curvature", "connection.is_integrable"))
@click.option("--connection", "connection_name", required=True)
def curvature_command(model, connection_name):
    """Curvature components and the induced integrability verdict."""
    connection = model.require("connections", connection_name)
    return {
        "connection": connection_name,
        "components": {
            f"R[{j + 1}][{mu + 1}][{nu + 1}]": ex.to_text(value)
            for j, mu, nu, value in cn.curvature(connection).entries()
        },
        "integrable": cn.is_integrable(connection, model.probe),
    }


@command("integrable", ("connection.is_integrable",), fail_unless="integrable")
@click.option("--connection", "connection_name", required=True)
def integrable_command(model, connection_name):
    """Zero-curvature check; exits 1 when the connection is curved."""
    connection = model.require("connections", connection_name)
    return {
        "connection": connection_name,
        "integrable": cn.is_integrable(connection, model.probe),
    }


@command(
    "split",
    (
        "connection.split_vector_field",
        "connection.split_one_form",
        "transport.hv_project_tm",
    ),
)
@click.option("--connection", "connection_name", default=None)
@click.option("--manifold-connection", "mc_name", default=None)
@click.option("--vector", "vector_text", default=None,
              help="m+n comma-separated components of a vector field.")
@click.option("--form", "form_text", default=None,
              help="m+n comma-separated components of a 1-form.")
def split_command(model, connection_name, mc_name, vector_text, form_text):
    """Horizontal/vertical splitting of vector fields and 1-forms."""
    if connection_name is None and mc_name is None:
        _fail("need --connection or --manifold-connection")
    report = {}
    if connection_name is not None:
        connection = model.require("connections", connection_name)
        chart = connection.chart
        report["connection"] = connection_name
        if vector_text is None and form_text is None:
            _fail("need --vector and/or --form with --connection")
        if vector_text is not None:
            comps = _parse_exprs(vector_text, chart.m + chart.n, "--vector")
            X = cn.VectorField(chart, tuple(comps[:chart.m]), tuple(comps[chart.m:]))
            h, v = cn.split_vector_field(connection, X)
            report["vector"] = {
                "horizontal": _texts(h.components),
                "vertical": _texts(v.components),
            }
        if form_text is not None:
            comps = _parse_exprs(form_text, chart.m + chart.n, "--form")
            alpha = cn.OneForm(chart, tuple(comps[:chart.m]), tuple(comps[chart.m:]))
            h, v = cn.split_one_form(connection, alpha)
            report["form"] = {
                "horizontal": _texts(h.components),
                "vertical": _texts(v.components),
            }
    if mc_name is not None:
        mc = model.require("manifold_connections", mc_name)
        if vector_text is None:
            _fail("need --vector (2m components) with --manifold-connection")
        comps = _parse_exprs(vector_text, 2 * mc.m, "--vector")
        h, v = tp.hv_project_tm(mc, tuple(comps[:mc.m]), tuple(comps[mc.m:]))
        report["manifold_connection"] = mc_name
        report["tangent"] = {
            "horizontal": _texts(h[0] + h[1]),
            "vertical": _texts(v[0] + v[1]),
        }
    return report


@command("integral-section", ("connection.integral_section",))
@click.option("--connection", "connection_name", required=True)
@click.option("--start", required=True, help="Base start point, m numbers.")
@click.option("--fiber", required=True, help="Fiber start values, n numbers.")
@click.option("--target", "targets", multiple=True, required=True,
              help="Target base point, m numbers; repeatable.")
@click.option("--steps", default=1000, show_default=True,
              help="RK4 steps per unit coordinate length.")
@click.option("--order", default=None,
              help="Sweep order as comma-separated zero-based axes.")
def integral_section_command(model, connection_name, start, fiber, targets, steps, order):
    """Numeric integral section of a flat connection."""
    connection = model.require("connections", connection_name)
    chart = connection.chart
    x0 = _parse_numbers(start, chart.m, "--start")
    y0 = _parse_numbers(fiber, chart.n, "--fiber")
    points = [_parse_numbers(t, chart.m, "--target") for t in targets]
    axes = None if order is None else _parse_numbers(order, what="--order", kind=int)
    values = cn.integral_section(
        connection, x0, y0, points, steps=steps, order=axes, probe=model.probe
    )
    return {
        "connection": connection_name,
        "start": x0,
        "fiber": y0,
        "samples": [
            {"target": point, "values": value}
            for point, value in zip(points, values)
        ],
    }


@command(
    "residual",
    ("connection.integral_section_residual", "jetfield.second_order_residual"),
    fail_unless="vanishes",
)
@click.option("--connection", "connection_name", default=None)
@click.option("--jetfield", "jetfield_name", default=None)
@click.option("--section", "section_name", required=True)
def residual_command(model, connection_name, jetfield_name, section_name):
    """First-order (connection) or second-order (jet field) residuals of a
    candidate section; exits 1 when the residuals do not vanish."""
    if (connection_name is None) == (jetfield_name is None):
        _fail("need exactly one of --connection / --jetfield")
    phi = model.require("sections", section_name)
    report = {"section": section_name}
    if connection_name is not None:
        connection = model.require("connections", connection_name)
        table = cn.integral_section_residual(connection, phi)
        report["connection"] = connection_name
        report["residuals"] = {
            f"[{i + 1}][{mu + 1}]": ex.to_text(value)
            for i, row in enumerate(table)
            for mu, value in enumerate(row)
        }
        residuals = [value for row in table for value in row]
    else:
        field = model.require("jetfields", jetfield_name)
        table = jf.second_order_residual(field, phi, model.probe)
        report["jetfield"] = jetfield_name
        report["residuals"] = {
            f"[{i + 1}][{nu + 1}][{mu + 1}]": ex.to_text(value)
            for i, plane in enumerate(table)
            for nu, row in enumerate(plane)
            for mu, value in enumerate(row)
        }
        residuals = [value for plane in table for row in plane for value in row]
    report["vanishes"] = all(ex.is_zero(r, model.probe) for r in residuals)
    return report


@command("shift", ("connection.add_vertical",))
@click.option("--connection", "connection_name", required=True)
@click.option("--by", "shift_text", required=True,
              help="Semicolon-separated rows of comma-separated entries (n x m).")
def shift_command(model, connection_name, shift_text):
    """Add a vertical-valued semibasic table to a connection."""
    connection = model.require("connections", connection_name)
    chart = connection.chart
    rows = [r for r in shift_text.split(";") if r.strip()]
    if len(rows) != chart.n:
        _fail(f"--by: expected {chart.n} rows")
    table = tuple(
        tuple(_parse_exprs(row, chart.m, "--by row")) for row in rows
    )
    shifted = cn.add_vertical(connection, table)
    return {
        "connection": connection_name,
        "gamma": [_texts(row) for row in shifted.gamma],
    }


@command(
    "multivector",
    (
        "connection.horizontal_frame",
        "multivector.representative",
        "multivector.contract",
        "multivector.is_transverse",
        "multivector.same_class",
    ),
)
@click.option("--connection", "connection_name", required=True)
@click.option("--other", "other_name", default=None,
              help="Second connection for a class comparison.")
def multivector_command(model, connection_name, other_name):
    """Decomposable representative, volume pairing, transversality, and
    optional class comparison."""
    connection = model.require("connections", connection_name)
    frame = cn.horizontal_frame(connection)
    rep = mv.representative(connection)
    pairing = mv.contract(rep, mv.base_volume_form(connection.chart))
    report = {
        "connection": connection_name,
        "frame": [_texts(field.components) for field in frame],
        "volume_pairing": ex.to_text(ex.normalize(pairing)),
        "transverse": mv.is_transverse(rep, model.probe),
    }
    if other_name is not None:
        other = model.require("connections", other_name)
        report["other"] = other_name
        report["same_class"] = mv.same_class(
            rep, mv.representative(other), model.probe
        )
    return report


@command(
    "sopde-check",
    (
        "jetfield.is_sopde",
        "jetfield.sopde_integrability_residuals",
        "jetfield.as_connection_on_jet",
    ),
    fail_unless="sopde",
)
@click.option("--jetfield", "jetfield_name", required=True)
def sopde_command(model, jetfield_name):
    """Second-order condition and integrability residuals of a jet field;
    exits 1 when the condition fails."""
    field = model.require("jetfields", jetfield_name)
    stacked = jf.as_connection_on_jet(field)
    report = {
        "jetfield": jetfield_name,
        "sopde": jf.is_sopde(field, model.probe),
        "stacked_gamma": [_texts(row) for row in stacked.gamma],
    }
    if report["sopde"]:
        residuals = jf.sopde_integrability_residuals(field, model.probe)
        report["residuals"] = {label: ex.to_text(value) for label, value in residuals}
        report["residual_count"] = len(residuals)
        report["integrable"] = all(
            ex.is_zero(value, model.probe) for _, value in residuals
        )
    return report


@command(
    "linear-check",
    ("linear.is_linear", "linear.liouville_field", "linear.leibniz_residual"),
    fail_unless="linear",
)
@click.option("--connection", "connection_name", required=True)
@click.option("--function", "f_text", default="x1",
              help="Scaling function for the Leibniz probe.")
@click.option("--section", "section_name", default=None,
              help="Section for the Leibniz probe (default: constant 1's).")
def linear_check_command(model, connection_name, f_text, section_name):
    """Fiberwise-linearity check plus a Leibniz-rule residual sample; exits
    1 when the connection is not linear."""
    connection = model.require("connections", connection_name)
    chart = connection.chart
    delta = ln.liouville_field(chart)
    if section_name is not None:
        phi = model.require("sections", section_name)
    else:
        phi = bd.Section(chart, tuple(ex.ONE for _ in range(chart.n)))
    f = _parse_exprs(f_text, 1, "--function")[0]
    Z = tuple(
        ex.ONE if mu == 0 else ex.ZERO for mu in range(chart.m)
    )
    residual = ln.leibniz_residual(connection, f, phi, Z)
    return {
        "connection": connection_name,
        "linear": ln.is_linear(connection, model.probe),
        "liouville": _texts(delta.components),
        "leibniz_residual": _texts(residual),
        "leibniz_vanishes": all(ex.is_zero(r, model.probe) for r in residual),
    }


@command("christoffels", ("linear.christoffels", "linear.linear_to_ehresmann"))
@click.option("--connection", "connection_name", required=True)
def christoffels_command(model, connection_name):
    """Christoffel symbols of a linear connection and the round-trip check."""
    connection = model.require("connections", connection_name)
    symbols = ln.christoffels(connection, model.probe)
    rebuilt = ln.linear_to_ehresmann(symbols)
    roundtrip = all(
        ex.is_zero(a - b, model.probe)
        for row_a, row_b in zip(connection.gamma, rebuilt.gamma)
        for a, b in zip(row_a, row_b)
    )
    return {
        "connection": connection_name,
        "symbols": [
            [_texts(row) for row in plane] for plane in symbols.gamma
        ],
        "roundtrip": roundtrip,
    }


@command(
    "covariant",
    (
        "linear.covariant_derivative",
        "linear.covariant_differential",
        "linear.general_covariant_derivative",
        "transport.covariant_via_complete_lift",
    ),
)
@click.option("--christoffel", "christoffel_name", default=None)
@click.option("--connection", "connection_name", default=None,
              help="General (possibly nonlinear) connection instead of symbols.")
@click.option("--manifold-connection", "mc_name", default=None)
@click.option("--section", "section_name", default=None)
@click.option("--field", "field_text", default=None,
              help="Base vector field components (m expressions).")
@click.option("--other-field", "other_text", default=None,
              help="Second base field Y for the manifold covariant derivative.")
@click.option("--point", "point_text", default=None,
              help="Base point for the complete-lift evaluation.")
def covariant_command(model, christoffel_name, connection_name, mc_name,
                      section_name, field_text, other_text, point_text):
    """Covariant derivative / differential, in any of its three guises."""
    modes = sum(x is not None for x in (christoffel_name, connection_name, mc_name))
    if modes != 1:
        _fail("need exactly one of --christoffel / --connection / --manifold-connection")
    report = {}
    if christoffel_name is not None:
        symbols = model.require("christoffels", christoffel_name)
        chart = symbols.chart
        if section_name is None:
            _fail("--christoffel mode needs --section")
        phi = model.require("sections", section_name)
        table = ln.covariant_differential(symbols, phi)
        report["christoffel"] = christoffel_name
        report["section"] = section_name
        report["differential"] = [_texts(row) for row in table]
        if field_text is not None:
            Z = tuple(_parse_exprs(field_text, chart.m, "--field"))
            derivative = ln.covariant_derivative(symbols, Z, phi)
            report["derivative"] = _texts(derivative.components)
    elif connection_name is not None:
        connection = model.require("connections", connection_name)
        chart = connection.chart
        if section_name is None or field_text is None:
            _fail("--connection mode needs --section and --field")
        phi = model.require("sections", section_name)
        Z = tuple(_parse_exprs(field_text, chart.m, "--field"))
        derivative = ln.general_covariant_derivative(connection, Z, phi)
        report["connection"] = connection_name
        report["section"] = section_name
        report["derivative"] = _texts(derivative)
    else:
        mc = model.require("manifold_connections", mc_name)
        if field_text is None or other_text is None or point_text is None:
            _fail("--manifold-connection mode needs --field, --other-field and --point")
        X = tuple(_parse_exprs(field_text, mc.m, "--field"))
        Y = tuple(_parse_exprs(other_text, mc.m, "--other-field"))
        p = _parse_numbers(point_text, mc.m, "--point")
        value = tp.covariant_via_complete_lift(mc, X, Y, p)
        report["manifold_connection"] = mc_name
        report["point"] = p
        report["derivative"] = value
    return report


@command("torsion", ("linear.torsion", "linear.is_symmetric"))
@click.option("--manifold-connection", "mc_name", required=True)
def torsion_command(model, mc_name):
    """Torsion components and the symmetry verdict."""
    mc = model.require("manifold_connections", mc_name)
    tensor = ln.torsion(mc)
    return {
        "manifold_connection": mc_name,
        "components": {
            f"T[{mu + 1}][{rho + 1}][{eta + 1}]": ex.to_text(value)
            for mu, rho, eta, value in tensor.entries()
        },
        "symmetric": ln.is_symmetric(mc, model.probe),
    }


@command("transport", ("transport.parallel_transport",))
@click.option("--manifold-connection", "mc_name", required=True)
@click.option("--curve", "curve_name", required=True)
@click.option("--vector", "vector_text", required=True)
@click.option("--steps", default=10_000, show_default=True)
@click.option("--csv", "csv_path", default=None, help="Write samples as CSV.")
def transport_command(model, mc_name, curve_name, vector_text, steps, csv_path):
    """Parallel transport of a vector along a curve."""
    mc = model.require("manifold_connections", mc_name)
    curve = model.require("curves", curve_name)
    u0 = _parse_numbers(vector_text, mc.m, "--vector")
    result = tp.parallel_transport(mc, curve, u0, steps)
    if csv_path:
        result.write_csv(csv_path)
    return {
        "manifold_connection": mc_name,
        "curve": curve_name,
        "steps": steps,
        "initial": list(u0),
        "final": list(result.final),
    }


@command("holonomy", ("transport.holonomy",))
@click.option("--manifold-connection", "mc_name", required=True)
@click.option("--curve", "curve_name", required=True)
@click.option("--steps", default=10_000, show_default=True)
def holonomy_command(model, mc_name, curve_name, steps):
    """Holonomy matrix of a closed loop (plus the angle when m = 2)."""
    mc = model.require("manifold_connections", mc_name)
    curve = model.require("curves", curve_name)
    matrix = tp.holonomy(mc, curve, steps)
    report = {
        "manifold_connection": mc_name,
        "curve": curve_name,
        "steps": steps,
        "matrix": matrix,
    }
    if mc.m == 2:
        report["angle"] = tp.rotation_angle(matrix)
    return report


@command("lift", ("transport.horizontal_lift_vector", "transport.complete_lift"))
@click.option("--manifold-connection", "mc_name", required=True)
@click.option("--point", "point_text", required=True, help="Base point, m numbers.")
@click.option("--fiber", "fiber_text", required=True, help="Fiber vector u, m numbers.")
@click.option("--vector", "vector_text", required=True, help="Tangent vector v, m numbers.")
@click.option("--field", "field_text", default=None,
              help="Base field to lift completely (m expressions).")
def lift_command(model, mc_name, point_text, fiber_text, vector_text, field_text):
    """Horizontal lift of a tangent vector (and optional complete lift)."""
    mc = model.require("manifold_connections", mc_name)
    p = _parse_numbers(point_text, mc.m, "--point")
    u = _parse_numbers(fiber_text, mc.m, "--fiber")
    v = _parse_numbers(vector_text, mc.m, "--vector")
    report = {
        "manifold_connection": mc_name,
        "point": p,
        "horizontal_lift": tp.horizontal_lift_vector(mc, p, u, v),
    }
    if field_text is not None:
        Y = tuple(_parse_exprs(field_text, mc.m, "--field"))
        base, fiber = tp.complete_lift(mc, Y)
        report["complete_lift"] = _texts(base + fiber)
    return report


if __name__ == "__main__":
    main()
