"""Linear connections on vector bundles and connections on manifolds.

Linearity of a connection means degree-1 homogeneity of its coefficients in
the fiber coordinates; for such connections the coefficients are generated
by base-only Christoffel symbols, Gamma^i_mu = -Gamma^i_{j mu} y^j.  On a
manifold the relevant bundle is the tangent bundle, with coefficients
Gamma^rho_{mu nu}(x) (direction first, transported index second).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as ex
from .bundle import BundleChart, Section, check_box, check_table, default_names
from .connection import (
    EhresmannConnection,
    VectorField,
    _Antisymmetric,
    integral_section_residual,
)
from .errors import ChartError, NotLinearError

__all__ = [
    "Christoffel",
    "ManifoldConnection",
    "TorsionTensor",
    "liouville_field",
    "is_linear",
    "christoffels",
    "linear_to_ehresmann",
    "covariant_derivative",
    "covariant_differential",
    "general_covariant_derivative",
    "leibniz_residual",
    "torsion",
    "is_symmetric",
]


@dataclass(frozen=True)
class Christoffel:
    """Christoffel symbols Gamma^i_{j mu}(x) of a linear connection;
    gamma[i][j][mu] with i the output index, j the section index and mu the
    derivative direction.  Entries depend on the base coordinates only."""

    chart: BundleChart
    gamma: tuple  # n x n x m

    def __post_init__(self):
        chart = self.chart
        check_table(self.gamma, (chart.n, chart.n, chart.m), chart.base_names, "Christoffel")


@dataclass(frozen=True)
class ManifoldConnection:
    """Connection on an m-dimensional manifold chart: coefficients
    gamma[rho][mu][nu] = Gamma^rho_{mu nu}(x) with mu the direction index
    and nu the transported index."""

    coordinate_names: tuple
    gamma: tuple  # m x m x m
    box: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.m
        if len(set(self.coordinate_names)) != m:
            raise ChartError("manifold coordinate names must be distinct")
        check_table(self.gamma, (m, m, m), self.coordinate_names, "connection")
        check_box(self.box, self.coordinate_names)

    @property
    def m(self):
        return len(self.coordinate_names)

    def bounds(self, name):
        return self.box.get(name, (-1e18, 1e18))

    def tangent_chart(self) -> BundleChart:
        """Chart of the tangent bundle: base x^mu, fiber velocities v^mu."""
        velocities = default_names("v", self.m)
        return BundleChart(tuple(self.coordinate_names), velocities, dict(self.box))

    def to_christoffel(self) -> Christoffel:
        """Reindex as Christoffel symbols of the tangent bundle:
        Gamma^i_{j mu} = Gamma^i_{mu j} (direction moves to the last slot)."""
        m = self.m
        table = tuple(
            tuple(
                tuple(self.gamma[i][mu][j] for mu in range(m))
                for j in range(m)
            )
            for i in range(m)
        )
        return Christoffel(self.tangent_chart(), table)

    def to_ehresmann(self) -> EhresmannConnection:
        """Induced connection on the tangent bundle,
        Gamma^rho_mu = -Gamma^rho_{mu nu} v^nu."""
        return linear_to_ehresmann(self.to_christoffel())


@dataclass(frozen=True)
class TorsionTensor(_Antisymmetric):
    """Components T^mu_{rho eta} = Gamma^mu_{eta rho} - Gamma^mu_{rho eta},
    antisymmetric in the lower pair; stored for rho < eta."""

    coordinate_names: tuple
    components: dict  # (mu, rho, eta) with rho < eta -> Expr


def liouville_field(chart: BundleChart) -> VectorField:
    """Fiber-dilation generator y^i d/dy^i of a vector-bundle chart."""
    return VectorField(
        chart,
        tuple(ex.ZERO for _ in range(chart.m)),
        tuple(ex.Var(name) for name in chart.fiber_names),
    )


def _scale_name(chart):
    name = "tscale"
    while name in chart.coordinate_names:
        name += "_"
    return name


def is_linear(connection: EhresmannConnection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """Degree-1 homogeneity in the fiber coordinates, tested symbolically
    with an auxiliary scale variable: Gamma(x, t y) - t Gamma(x, y) must
    vanish identically."""
    chart = connection.chart
    t = ex.Var(_scale_name(chart))
    scaling = {name: t * ex.Var(name) for name in chart.fiber_names}
    for row in connection.gamma:
        for entry in row:
            if not ex.is_zero(ex.substitute(entry, scaling) - t * entry, probe):
                return False
    return True


def christoffels(
    connection: EhresmannConnection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE
) -> Christoffel:
    """Extract Gamma^i_{j mu} = -d Gamma^i_mu / dy^j from a linear
    connection; refuses nonlinear input."""
    chart = connection.chart
    if not is_linear(connection, probe):
        raise NotLinearError("connection coefficients are not linear on the fibers")
    table = []
    for i in range(chart.n):
        plane = []
        for j, y in enumerate(chart.fiber_names):
            row = []
            for mu in range(chart.m):
                symbol = ex.normalize(ex.Neg(ex.differentiate(connection.gamma[i][mu], y)))
                for other in chart.fiber_names:
                    if not ex.is_zero(ex.differentiate(symbol, other), probe):
                        raise NotLinearError(
                            f"extracted symbol [{i + 1}][{j + 1}][{mu + 1}] still depends on the fiber"
                        )
                row.append(symbol)
            plane.append(tuple(row))
        table.append(tuple(plane))
    return Christoffel(chart, tuple(table))


def linear_to_ehresmann(symbols: Christoffel) -> EhresmannConnection:
    """Gamma^i_mu = -Gamma^i_{j mu} y^j; inverse of :func:`christoffels`."""
    chart = symbols.chart
    gamma = tuple(
        tuple(
            ex.normalize(
                ex.Sum(
                    tuple(
                        ex.Neg(symbols.gamma[i][j][mu] * ex.Var(chart.fiber_names[j]))
                        for j in range(chart.n)
                    )
                )
            )
            for mu in range(chart.m)
        )
        for i in range(chart.n)
    )
    return EhresmannConnection(chart, gamma)


def _check_base_field(chart, Z):
    if len(Z) != chart.m:
        raise ChartError(f"base vector field needs {chart.m} components")
    for comp in Z:
        chart.check_expression(comp, chart.base_names, "base vector field component")


def covariant_derivative(symbols: Christoffel, Z, phi: Section) -> Section:
    """nabla_Z phi with components g^mu (d phi^i/dx^mu + Gamma^i_{j mu} phi^j)."""
    chart = symbols.chart
    if phi.chart != chart:
        raise ChartError("section lives on a different chart")
    _check_base_field(chart, Z)
    differential = covariant_differential(symbols, phi)
    components = tuple(
        ex.normalize(
            ex.Sum(tuple(Z[mu] * differential[mu][i] for mu in range(chart.m)))
        )
        for i in range(chart.n)
    )
    return Section(chart, components)


def covariant_differential(symbols: Christoffel, phi: Section):
    """The m x n table (d phi^i/dx^mu + Gamma^i_{j mu} phi^j); contracting
    with a base vector field reproduces the covariant derivative."""
    chart = symbols.chart
    if phi.chart != chart:
        raise ChartError("section lives on a different chart")
    table = []
    for mu, x in enumerate(chart.base_names):
        row = []
        for i in range(chart.n):
            terms = [ex.differentiate(phi.components[i], x)]
            for j in range(chart.n):
                terms.append(symbols.gamma[i][j][mu] * phi.components[j])
            row.append(ex.normalize(ex.Sum(tuple(terms))))
        table.append(tuple(row))
    return tuple(table)


def general_covariant_derivative(connection: EhresmannConnection, Z, phi: Section):
    """Vertical-projection covariant derivative for a possibly nonlinear
    connection: components g^mu (d phi^i/dx^mu - Gamma^i_mu(x, phi(x))), the
    integral-section residual contracted with the base field."""
    chart = connection.chart
    if phi.chart != chart:
        raise ChartError("section lives on a different chart")
    _check_base_field(chart, Z)
    residual = integral_section_residual(connection, phi)
    return tuple(
        ex.normalize(ex.Sum(tuple(Z[mu] * residual[i][mu] for mu in range(chart.m))))
        for i in range(chart.n)
    )


def leibniz_residual(connection: EhresmannConnection, f, phi: Section, Z):
    """Defect of the Leibniz rule nabla_Z(f phi) - Z(f) phi - f nabla_Z phi
    for the vertical-projection covariant derivative; vanishes identically
    exactly when the connection is fiberwise homogeneous along sections."""
    chart = connection.chart
    chart.check_expression(f, chart.base_names, "scaling function")
    scaled = Section(chart, tuple(ex.normalize(f * comp) for comp in phi.components))
    left = general_covariant_derivative(connection, Z, scaled)
    plain = general_covariant_derivative(connection, Z, phi)
    zf = ex.Sum(
        tuple(Z[mu] * ex.differentiate(f, x) for mu, x in enumerate(chart.base_names))
    )
    return tuple(
        ex.normalize(left[i] - zf * phi.components[i] - f * plain[i])
        for i in range(chart.n)
    )


def torsion(mc: ManifoldConnection) -> TorsionTensor:
    """T^mu_{rho eta} = Gamma^mu_{eta rho} - Gamma^mu_{rho eta}."""
    m = mc.m
    components = {}
    for mu in range(m):
        for rho in range(m):
            for eta in range(rho + 1, m):
                components[(mu, rho, eta)] = ex.normalize(
                    mc.gamma[mu][eta][rho] - mc.gamma[mu][rho][eta]
                )
    return TorsionTensor(tuple(mc.coordinate_names), components)


def is_symmetric(mc: ManifoldConnection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """Torsion-free test: Gamma symmetric in its lower index pair."""
    return all(ex.is_zero(value, probe) for _, _, _, value in torsion(mc).entries())
