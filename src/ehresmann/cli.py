"""Command line interface: every library capability behind a subcommand.

Each command loads a model file, runs one computation, prints a short
human-readable summary and optionally writes a machine-readable JSON report
(deterministic for a fixed model, flags and seed).  Exit codes: 0 success,
1 a requested check failed, 2 usage error.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
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
from .model import TABLES
from .model import load as load_model


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


def _texts(table):
    """Normalized text of an expression, or of each one in a nested table."""
    if isinstance(table, ex.Expr):
        return ex.to_text(ex.normalize(table))
    return [_texts(item) for item in table]


def _parse_list(text, count, what, convert=ex.parse):
    """The comma-separated entries of ``text`` through ``convert``
    (expressions by default, or ``float``/``int``), ``count`` of them unless
    it is None."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    unit = "entries" if convert is ex.parse else "numbers"
    if count is not None and len(parts) != count:
        raise EhresmannError(f"{what}: expected {count} comma-separated {unit}, got {len(parts)}")
    try:
        return [convert(p) for p in parts]
    except (EhresmannError, ValueError) as err:
        raise EhresmannError(f"{what}: {err}") from err


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


def command(name, fail_unless=None):
    """Declare subcommand ``name`` from a body ``(model, **options) ->
    report``.  Adds ``--model``, ``-o/--output`` and ``--seed``.  A body
    parameter named after an entry table of :data:`model.TABLES` in the
    singular (``connection`` for ``connections``, likewise ``christoffel``,
    ``manifold_connection``, ``jetfield``, ``section``, ``curve``) is a model
    entry: a required option, or an optional one when the parameter
    defaults to None.  The option is added unless the body declares it (to
    give it help text).  Each given entry is looked up; the body gets the
    entry, or None for an optional one not given, and the report its name.
    Options are listed in the order of the body's parameters.  Turns an
    :class:`EhresmannError`, a failed write or too deep a recursion into
    exit 2, prints the summary, writes the JSON report, and exits 1 when the
    report entry ``fail_unless`` is false."""

    def register(body):
        params = inspect.signature(body).parameters
        entries = [entry for entry in params if entry + "s" in TABLES]

        @functools.wraps(body)
        def run(model_path, output, seed, **options):
            try:
                model = load_model(model_path)
                if seed is not None:
                    model.probe = dataclasses.replace(model.probe, seed=seed)
                names = {entry: options[entry] for entry in entries if options[entry] is not None}
                for entry, given in names.items():
                    options[entry] = model.require(entry + "s", given)
                report = {**body(model, **options), **names, "command": name}
                try:
                    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
                except ValueError:
                    raise EhresmannError("the result holds a non-finite number") from None
                if output:
                    with open(output, "w") as handle:
                        handle.write(text + "\n")
            except (EhresmannError, OSError, RecursionError) as err:
                _fail(str(err))
            for line in _summary_lines(report):
                click.echo(line)
            if fail_unless is not None and not report[fail_unless]:
                sys.exit(1)

        declared = {option.name for option in getattr(body, "__click_params__", ())}
        for entry in entries:
            if entry not in declared:
                required = params[entry].default is not None
                run = click.option(f"--{entry.replace('_', '-')}", entry, required=required)(run)
        # click shows the last-applied option first
        order = list(params)
        run.__click_params__.sort(key=lambda option: order.index(option.name), reverse=True)
        return main.command(name)(model_option(output_option(seed_option(run))))

    return register


@command("expr")
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
                raise EhresmannError(f"--at: expected name=value, got {piece.strip()!r}") from None
        report["value"] = ex.evaluate(e, bindings)
    return report


@command("prolong", fail_unless="holonomic")
@click.option("--second/--first", default=False,
              help="Also build the second prolongation of the first jet.")
def prolong_command(model, section, second):
    """Jet prolongation of a section, with the holonomy identity checked."""
    psi = bd.prolong_section(section)
    report = {
        "components": _texts(psi.components),
        "jet_components": _texts(psi.jet_components),
        "holonomic": bd.holonomic_check(psi, model.probe),
    }
    if second:
        f, g, df, dg = map(_texts, bd.prolong_jet_section(psi))
        chart = psi.chart
        # the second-jet point in chart order, as project_j1pi1 reads it
        flat = [*chart.base_names, *f, *sum(g, []), *sum(df, []), *sum(sum(dg, []), [])]
        report["second"] = {
            "f": f, "g": g, "df": df, "dg": dg,
            "projected": list(jf.project_j1pi1(flat, chart.m, chart.n)),
        }
    return report


@command("curvature")
def curvature_command(model, connection):
    """Curvature components and the induced integrability verdict."""
    entries = list(cn.curvature(connection).entries())
    return {
        "components": {
            f"R[{j + 1}][{mu + 1}][{nu + 1}]": ex.to_text(value)
            for j, mu, nu, value in entries
        },
        "integrable": ex.all_zero((value for *_, value in entries), model.probe),
    }


@command("integrable", fail_unless="integrable")
def integrable_command(model, connection):
    """Zero-curvature check; exits 1 when the connection is curved."""
    return {"integrable": cn.is_integrable(connection, model.probe)}


@command("split")
@click.option("--vector", "vector_text", default=None,
              help="m+n comma-separated components of a vector field.")
@click.option("--form", "form_text", default=None,
              help="m+n comma-separated components of a 1-form.")
def split_command(model, connection=None, manifold_connection=None, vector_text=None,
                  form_text=None):
    """Horizontal/vertical splitting of vector fields and 1-forms."""
    if connection is None and manifold_connection is None:
        raise EhresmannError("need --connection or --manifold-connection")
    report = {}
    if connection is not None:
        chart = connection.chart
        if vector_text is None and form_text is None:
            raise EhresmannError("need --vector and/or --form with --connection")
        kinds = (
            ("vector", vector_text, cn.VectorField, cn.split_vector_field),
            ("form", form_text, cn.OneForm, cn.split_one_form),
        )
        for key, text, kind, split in kinds:
            if text is not None:
                comps = _parse_list(text, chart.m + chart.n, f"--{key}")
                field = kind(chart, tuple(comps[:chart.m]), tuple(comps[chart.m:]))
                h, v = split(connection, field)
                report[key] = {
                    "horizontal": _texts(h.components),
                    "vertical": _texts(v.components),
                }
    if manifold_connection is not None:
        m = manifold_connection.chart.m
        if vector_text is None:
            raise EhresmannError("need --vector (2m components) with --manifold-connection")
        comps = _parse_list(vector_text, 2 * m, "--vector")
        h, v = tp.hv_project_tm(manifold_connection, tuple(comps[:m]), tuple(comps[m:]))
        report["tangent"] = {
            "horizontal": _texts(h[0] + h[1]),
            "vertical": _texts(v[0] + v[1]),
        }
    return report


@command("integral-section")
@click.option("--start", required=True, help="Base start point, m numbers.")
@click.option("--fiber", required=True, help="Fiber start values, n numbers.")
@click.option("--target", "targets", multiple=True, required=True,
              help="Target base point, m numbers; repeatable.")
@click.option("--steps", default=1000, show_default=True,
              help="RK4 steps per unit coordinate length.")
@click.option("--order", default=None,
              help="Sweep order as comma-separated zero-based axes.")
def integral_section_command(model, connection, start, fiber, targets, steps, order):
    """Numeric integral section of a flat connection."""
    chart = connection.chart
    x0 = _parse_list(start, chart.m, "--start", float)
    y0 = _parse_list(fiber, chart.n, "--fiber", float)
    points = [_parse_list(t, chart.m, "--target", float) for t in targets]
    axes = None if order is None else _parse_list(order, None, "--order", int)
    values = cn.integral_section(
        connection, x0, y0, points, steps=steps, order=axes, probe=model.probe
    )
    return {
        "start": x0,
        "fiber": y0,
        "samples": [
            {"target": point, "values": value}
            for point, value in zip(points, values)
        ],
    }


@command("residual", fail_unless="vanishes")
def residual_command(model, section, connection=None, jetfield=None):
    """First-order (connection) or second-order (jet field) residuals of a
    candidate section; exits 1 when the residuals do not vanish."""
    if (connection is None) == (jetfield is None):
        raise EhresmannError("need exactly one of --connection / --jetfield")
    if connection is not None:
        table = cn.integral_section_residual(connection, section)
        residuals = {
            f"[{i + 1}][{mu + 1}]": value
            for i, row in enumerate(table)
            for mu, value in enumerate(row)
        }
    else:
        table = jf.second_order_residual(jetfield, section, model.probe)
        residuals = {
            f"[{i + 1}][{nu + 1}][{mu + 1}]": value
            for i, plane in enumerate(table)
            for nu, row in enumerate(plane)
            for mu, value in enumerate(row)
        }
    return {
        "residuals": {label: ex.to_text(value) for label, value in residuals.items()},
        "vanishes": ex.all_zero(residuals.values(), model.probe),
    }


@command("shift")
@click.option("--by", "shift_text", required=True,
              help="Semicolon-separated rows of comma-separated entries (n x m).")
def shift_command(model, connection, shift_text):
    """Add a vertical-valued semibasic table to a connection."""
    chart = connection.chart
    rows = [r for r in shift_text.split(";") if r.strip()]
    if len(rows) != chart.n:
        raise EhresmannError(f"--by: expected {chart.n} rows")
    table = tuple(tuple(_parse_list(row, chart.m, "--by row")) for row in rows)
    return {"gamma": _texts(cn.add_vertical(connection, table).gamma)}


@command("multivector")
@click.option("--other", "other_name", default=None,
              help="Second connection for a class comparison.")
def multivector_command(model, connection, other_name):
    """Decomposable representative, volume pairing, transversality, and
    optional class comparison."""
    rep = mv.representative(connection)
    pairing = mv.contract(rep, mv.base_volume_form(connection.chart))
    report = {
        "frame": [_texts(field.components) for field in cn.horizontal_frame(connection)],
        "volume_pairing": _texts(pairing),
        "transverse": mv.is_transverse(rep, model.probe),
    }
    if other_name is not None:
        other = model.require("connections", other_name)
        report["other"] = other_name
        report["same_class"] = mv.same_class(
            rep, mv.representative(other), model.probe
        )
    return report


@command("sopde-check", fail_unless="sopde")
def sopde_command(model, jetfield):
    """Second-order condition and integrability residuals of a jet field;
    exits 1 when the condition fails."""
    report = {
        "sopde": jf.is_sopde(jetfield, model.probe),
        "stacked_gamma": _texts(jf.as_connection_on_jet(jetfield).gamma),
    }
    if report["sopde"]:
        residuals = jf.sopde_integrability_residuals(jetfield, model.probe)
        report["residuals"] = {label: ex.to_text(value) for label, value in residuals}
        report["residual_count"] = len(residuals)
        report["integrable"] = ex.all_zero((value for _, value in residuals), model.probe)
    return report


@command("linear-check", fail_unless="linear")
@click.option("--function", "f_text", default="x1",
              help="Scaling function for the Leibniz probe.")
@click.option("--section", default=None,
              help="Section for the Leibniz probe (default: constant 1's).")
def linear_check_command(model, connection, f_text, section=None):
    """Fiberwise-linearity check plus a Leibniz-rule residual sample; exits
    1 when the connection is not linear."""
    chart = connection.chart
    delta = ln.liouville_field(chart)
    if section is None:
        section = bd.Section(chart, tuple(ex.ONE for _ in range(chart.n)))
    f = _parse_list(f_text, 1, "--function")[0]
    Z = tuple(
        ex.ONE if mu == 0 else ex.ZERO for mu in range(chart.m)
    )
    residual = ln.leibniz_residual(connection, f, section, Z)
    return {
        "linear": ln.is_linear(connection, model.probe),
        "liouville": _texts(delta.components),
        "leibniz_residual": _texts(residual),
        "leibniz_vanishes": ex.all_zero(residual, model.probe),
    }


@command("christoffels")
def christoffels_command(model, connection):
    """Christoffel symbols of a linear connection and the round-trip check."""
    symbols = ln.christoffels(connection, model.probe)
    rebuilt = ln.linear_to_ehresmann(symbols)
    differences = (
        a - b
        for row_a, row_b in zip(connection.gamma, rebuilt.gamma)
        for a, b in zip(row_a, row_b)
    )
    return {"symbols": _texts(symbols.gamma), "roundtrip": ex.all_zero(differences, model.probe)}


@command("covariant")
@click.option("--connection", default=None,
              help="General (possibly nonlinear) connection instead of symbols.")
@click.option("--field", "field_text", default=None,
              help="Base vector field components (m expressions).")
@click.option("--other-field", "other_text", default=None,
              help="Second base field Y for the manifold covariant derivative.")
@click.option("--point", "point_text", default=None,
              help="Base point for the complete-lift evaluation.")
def covariant_command(model, christoffel=None, connection=None, manifold_connection=None,
                      section=None, field_text=None, other_text=None, point_text=None):
    """Covariant derivative / differential, in any of its three guises."""
    if sum(x is not None for x in (christoffel, connection, manifold_connection)) != 1:
        raise EhresmannError(
            "need exactly one of --christoffel / --connection / --manifold-connection"
        )
    if christoffel is not None:
        if section is None:
            raise EhresmannError("--christoffel mode needs --section")
        report = {"differential": _texts(ln.covariant_differential(christoffel, section))}
        if field_text is not None:
            Z = tuple(_parse_list(field_text, christoffel.chart.m, "--field"))
            derivative = ln.covariant_derivative(christoffel, Z, section)
            report["derivative"] = _texts(derivative.components)
        return report
    if connection is not None:
        if section is None or field_text is None:
            raise EhresmannError("--connection mode needs --section and --field")
        Z = tuple(_parse_list(field_text, connection.chart.m, "--field"))
        return {"derivative": _texts(ln.general_covariant_derivative(connection, Z, section))}
    m = manifold_connection.chart.m
    if field_text is None or other_text is None or point_text is None:
        raise EhresmannError(
            "--manifold-connection mode needs --field, --other-field and --point"
        )
    X = tuple(_parse_list(field_text, m, "--field"))
    Y = tuple(_parse_list(other_text, m, "--other-field"))
    p = _parse_list(point_text, m, "--point", float)
    return {"point": p, "derivative": tp.covariant_via_complete_lift(manifold_connection, X, Y, p)}


@command("torsion")
def torsion_command(model, manifold_connection):
    """Torsion components and the symmetry verdict."""
    entries = list(ln.torsion(manifold_connection).entries())
    return {
        "components": {
            f"T[{mu + 1}][{rho + 1}][{eta + 1}]": ex.to_text(value)
            for mu, rho, eta, value in entries
        },
        "symmetric": ex.all_zero((value for *_, value in entries), model.probe),
    }


@command("transport")
@click.option("--vector", "vector_text", required=True)
@click.option("--steps", default=10_000, show_default=True)
@click.option("--csv", "csv_path", default=None, help="Write samples as CSV.")
def transport_command(model, manifold_connection, curve, vector_text, steps, csv_path):
    """Parallel transport of a vector along a curve."""
    u0 = _parse_list(vector_text, manifold_connection.chart.m, "--vector", float)
    result = tp.parallel_transport(manifold_connection, curve, u0, steps)
    if csv_path:
        result.write_csv(csv_path)
    return {"steps": steps, "initial": list(u0), "final": list(result.final)}


@command("holonomy")
@click.option("--steps", default=10_000, show_default=True)
def holonomy_command(model, manifold_connection, curve, steps):
    """Holonomy matrix of a closed loop (plus the angle when m = 2)."""
    matrix = tp.holonomy(manifold_connection, curve, steps)
    report = {"steps": steps, "matrix": matrix}
    if manifold_connection.chart.m == 2:
        report["angle"] = tp.rotation_angle(matrix)
    return report


@command("lift")
@click.option("--point", "point_text", required=True, help="Base point, m numbers.")
@click.option("--fiber", "fiber_text", required=True, help="Fiber vector u, m numbers.")
@click.option("--vector", "vector_text", required=True, help="Tangent vector v, m numbers.")
@click.option("--field", "field_text", default=None,
              help="Base field to lift completely (m expressions).")
def lift_command(model, manifold_connection, point_text, fiber_text, vector_text, field_text):
    """Horizontal lift of a tangent vector (and optional complete lift)."""
    mc, m = manifold_connection, manifold_connection.chart.m
    p = _parse_list(point_text, m, "--point", float)
    u = _parse_list(fiber_text, m, "--fiber", float)
    v = _parse_list(vector_text, m, "--vector", float)
    report = {"point": p, "horizontal_lift": tp.horizontal_lift_vector(mc, p, u, v)}
    if field_text is not None:
        Y = tuple(_parse_list(field_text, m, "--field"))
        base, fiber = tp.complete_lift(mc, Y)
        report["complete_lift"] = _texts(base + fiber)
    return report


if __name__ == "__main__":
    main()
