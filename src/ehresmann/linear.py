"""Linear connections on vector bundles and connections on manifolds.

Linearity of a connection means that its coefficients are linear in the
fiber coordinates, generated by base-only Christoffel symbols,
Gamma^i_mu = -Gamma^i_{j mu}(x) y^j.  On a
manifold the relevant bundle is the tangent bundle, with coefficients
Gamma^rho_{mu nu}(x) (direction first, transported index second).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

from . import expr as ex
from .bundle import BundleChart, Section, check_box, check_table, default_names
from .connection import (
    EhresmannConnection,
    VectorField,
    _Antisymmetric,
    integral_section_residual,
)
from .errors import ChartError, NotLinearError, UnprobeableError

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


def _entire_in(e, fibers):
    """Whether every subtree of ``e`` that holds a name in ``fibers`` is a
    sum, product, negation, variable, power with a natural exponent, or
    sin/cos/exp of such subtrees.  Such an ``e`` is smooth in the fibers on
    all of R^n wherever its fiber-free subtrees are defined."""
    if isinstance(e, ex.Sum):
        return all(_entire_in(term, fibers) for term in e.terms)
    if isinstance(e, ex.Prod):
        return all(_entire_in(factor, fibers) for factor in e.factors)
    if isinstance(e, ex.Neg):
        return _entire_in(e.arg, fibers)
    if isinstance(e, ex.Pow) and e.exponent >= 0.0 and float(e.exponent).is_integer():
        return _entire_in(e.base, fibers)
    if isinstance(e, ex.Call) and e.func in ("sin", "cos", "exp"):
        return _entire_in(e.arg, fibers)
    # a log or another power is entire only where it is fiber-free
    return isinstance(e, (ex.Const, ex.Var)) or ex.free_variables(e).isdisjoint(fibers)


def _symbols(connection, probe):
    """The table -d Gamma^i_mu / dy^j as [i][j][mu], or None when the
    connection is not linear on the fibers.

    An entry that :func:`_entire_in` accepts is linear iff Gamma(x, 0) = 0
    and every first fiber partial is fiber-free; a partial that still names
    a fiber coordinate is probed through its own fiber partials, and is
    then replaced by its value at y = 0.  Any other entry, such as
    (y1^2)^0.5 = |y1|, keeps the scaling test Gamma(x, t y) = t Gamma(x, y)
    with an auxiliary scale variable t; its partials are probed the same
    way, and replaced by their value at y = 0 where the two probe equal."""
    chart = connection.chart
    fibers = chart.fiber_names
    origin = {name: ex.ZERO for name in fibers}
    t = ex.Var(_scale_name(chart))
    scaling = {name: t * ex.Var(name) for name in fibers}
    table = [[[None] * chart.m for _ in fibers] for _ in fibers]
    for i, row in enumerate(connection.gamma):
        for mu, entry in enumerate(row):
            entire = _entire_in(entry, fibers)
            if entire:
                vanishes = ex.is_zero(ex.substitute(entry, origin), probe)
            else:
                vanishes = ex.is_zero(ex.substitute(entry, scaling) - t * entry, probe)
            if not vanishes:
                return None
            for j, y in enumerate(fibers):
                symbol = ex.normalize(ex.Neg(ex.differentiate(entry, y)))
                free = ex.free_variables(symbol)
                left = [name for name in fibers if name in free]
                if not all(ex.is_zero(ex.differentiate(symbol, name), probe) for name in left):
                    return None
                if left:
                    at_origin = ex.normalize(ex.substitute(symbol, origin))
                    with suppress(UnprobeableError):  # keeps fibers, which Christoffel refuses
                        if entire or ex.is_zero(symbol - at_origin, probe):
                            symbol = at_origin
                table[i][j][mu] = symbol
    return tuple(tuple(map(tuple, plane)) for plane in table)


def is_linear(connection: EhresmannConnection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """Whether the coefficients are linear on the fibers,
    Gamma^i_mu = -Gamma^i_{j mu}(x) y^j: Gamma(x, 0) = 0 and every
    d Gamma / dy^j fiber-free, decided structurally where it can be and by
    probing otherwise.  An entry with a negative or fractional power or a
    log of a fiber-dependent subtree, which need not be smooth at y = 0,
    takes the scaling test Gamma(x, t y) = t Gamma(x, y) in place of
    Gamma(x, 0) = 0."""
    return _symbols(connection, probe) is not None


def christoffels(
    connection: EhresmannConnection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE
) -> Christoffel:
    """Extract Gamma^i_{j mu} = -d Gamma^i_mu / dy^j from a linear
    connection, in the same pass over the fiber partials that decides
    :func:`is_linear`; refuses nonlinear input."""
    table = _symbols(connection, probe)
    if table is None:
        raise NotLinearError("connection coefficients are not linear on the fibers")
    return Christoffel(connection.chart, table)


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


def covariant_derivative(symbols: Christoffel, Z, phi: Section) -> Section:
    """nabla_Z phi with components g^mu (d phi^i/dx^mu + Gamma^i_{j mu} phi^j)."""
    chart = symbols.chart
    if phi.chart != chart:
        raise ChartError("section lives on a different chart")
    check_table(Z, (chart.m,), chart.base_names, "base vector field component")
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
    check_table(Z, (chart.m,), chart.base_names, "base vector field component")
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
