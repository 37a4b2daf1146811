"""Connections on a trivial bundle given by their coefficient table.

A connection is stored as the n x m table Gamma^i_mu(x, y); the horizontal
distribution, the splitting of vector fields and 1-forms, the curvature and
the integral-section machinery are all derived from that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import expr as ex
from . import kernel
from .bundle import BundleChart, Section, check_number, check_table
from .errors import ChartError, NotIntegrableError, OutsideChartError

__all__ = [
    "EhresmannConnection",
    "VectorField",
    "OneForm",
    "CurvatureTensor",
    "horizontal_frame",
    "split_vector_field",
    "split_one_form",
    "curvature",
    "is_integrable",
    "integral_section",
    "integral_section_residual",
    "add_vertical",
]


@dataclass(frozen=True)
class EhresmannConnection:
    """Coefficient table Gamma^i_mu over the chart coordinates (x, y)."""

    chart: BundleChart
    gamma: tuple  # n x m table of Expr

    def __post_init__(self):
        chart = self.chart
        check_table(self.gamma, (chart.n, chart.m), chart.coordinate_names, "Gamma")

    @classmethod
    def flat(cls, chart):
        return cls(chart, tuple(tuple(ex.ZERO for _ in range(chart.m)) for _ in range(chart.n)))


@dataclass(frozen=True)
class _FieldComponents:
    """Base components (length m) and fiber components (length n), Expr over
    (x, y); ``noun`` names the object in error messages."""

    chart: BundleChart
    base_components: tuple  # length m
    fiber_components: tuple  # length n

    def __post_init__(self):
        chart, names = self.chart, self.chart.coordinate_names
        check_table(self.base_components, (chart.m,), names, f"{self.noun} base component")
        check_table(self.fiber_components, (chart.n,), names, f"{self.noun} fiber component")

    @property
    def components(self):
        return (*self.base_components, *self.fiber_components)

    def __add__(self, other):
        _same_chart(self, other)
        return type(self)(
            self.chart,
            tuple(a + b for a, b in zip(self.base_components, other.base_components)),
            tuple(a + b for a, b in zip(self.fiber_components, other.fiber_components)),
        )


@dataclass(frozen=True)
class VectorField(_FieldComponents):
    """X = f^mu d/dx^mu + g^i d/dy^i with Expr components over (x, y)."""

    noun = "vector field"

    def scale(self, factor):
        factor = factor if isinstance(factor, ex.Expr) else ex.Const(float(factor))
        return VectorField(
            self.chart,
            tuple(factor * c for c in self.base_components),
            tuple(factor * c for c in self.fiber_components),
        )


@dataclass(frozen=True)
class OneForm(_FieldComponents):
    """alpha = F_mu dx^mu + G_i dy^i with Expr components over (x, y)."""

    noun = "one-form"


class _Antisymmetric:
    """Coefficients antisymmetric in their last two indices, stored in
    ``components`` as (k, a, b) -> Expr for a < b (zero-based)."""

    def coefficient(self, k, a, b):
        """The coefficient for any index order (antisymmetric by construction)."""
        if a == b:
            return ex.ZERO
        if a < b:
            return self.components[(k, a, b)]
        return ex.Neg(self.components[(k, b, a)])

    def entries(self):
        """Stored (k, a, b, expr) tuples with a < b."""
        for (k, a, b), value in sorted(self.components.items()):
            yield k, a, b, value


@dataclass(frozen=True)
class CurvatureTensor(_Antisymmetric):
    """Antisymmetric coefficients R^j_{mu nu}, stored for mu < nu.

    The stored coefficient is the bracketed factor of the local curvature
    expression; the 1/2 prefactor belongs to the wedge-basis convention and
    is folded into the (dx^mu ^ dx^nu) basis.
    """

    chart: BundleChart
    components: dict  # (j, mu, nu) with mu < nu -> Expr (zero-based)


def _same_chart(a, b):
    if a.chart != b.chart:
        raise ChartError("objects live on different charts")


def horizontal_frame(connection: EhresmannConnection):
    """The m vector fields d/dx^mu + Gamma^i_mu d/dy^i spanning the
    horizontal subbundle."""
    chart = connection.chart
    frame = []
    for mu in range(chart.m):
        base = tuple(ex.ONE if nu == mu else ex.ZERO for nu in range(chart.m))
        fiber = tuple(connection.gamma[i][mu] for i in range(chart.n))
        frame.append(VectorField(chart, base, fiber))
    return frame


def split_vector_field(connection: EhresmannConnection, X: VectorField):
    """Horizontal/vertical decomposition X = X^H + X^V."""
    _same_chart(connection, X)
    chart = connection.chart
    f = X.base_components
    horizontal_fiber = tuple(
        ex.normalize(
            ex.Sum(tuple(f[mu] * connection.gamma[i][mu] for mu in range(chart.m)))
        )
        for i in range(chart.n)
    )
    horizontal = VectorField(chart, f, horizontal_fiber)
    vertical_fiber = tuple(
        ex.normalize(X.fiber_components[i] - horizontal_fiber[i]) for i in range(chart.n)
    )
    vertical = VectorField(
        chart, tuple(ex.ZERO for _ in range(chart.m)), vertical_fiber
    )
    return horizontal, vertical


def split_one_form(connection: EhresmannConnection, alpha: OneForm):
    """Decomposition alpha = alpha^H + alpha^B; the horizontal part is
    semibasic and semibasic forms are left unchanged."""
    _same_chart(connection, alpha)
    chart = connection.chart
    F, G = alpha.base_components, alpha.fiber_components
    horizontal_base = tuple(
        ex.normalize(
            F[mu] + ex.Sum(tuple(G[i] * connection.gamma[i][mu] for i in range(chart.n)))
        )
        for mu in range(chart.m)
    )
    horizontal = OneForm(chart, horizontal_base, tuple(ex.ZERO for _ in range(chart.n)))
    vertical_base = tuple(
        ex.normalize(F[mu] - horizontal_base[mu]) for mu in range(chart.m)
    )
    vertical = OneForm(chart, vertical_base, G)
    return horizontal, vertical


def _curvature_components(connection: EhresmannConnection):
    """((j, mu, nu), R^j_{mu nu}) for mu < nu in ``entries()`` order; a
    partial is taken when a component first needs it, and remembered on its
    Gamma entry for every later component and call."""
    chart = connection.chart
    gamma = connection.gamma
    x, y = chart.base_names, chart.fiber_names
    d = ex.differentiate
    for j in range(chart.n):
        row = gamma[j]
        for mu in range(chart.m):
            for nu in range(mu + 1, chart.m):
                terms = [d(row[nu], x[mu]), ex.Neg(d(row[mu], x[nu]))]
                for i in range(chart.n):
                    terms.append(gamma[i][mu] * d(row[nu], y[i]))
                    terms.append(ex.Neg(gamma[i][nu] * d(row[mu], y[i])))
                yield (j, mu, nu), ex.normalize(ex.Sum(tuple(terms)))


def curvature(connection: EhresmannConnection) -> CurvatureTensor:
    """R^j_{mu nu} = d Gamma^j_nu/dx^mu - d Gamma^j_mu/dx^nu
    + Gamma^i_mu d Gamma^j_nu/dy^i - Gamma^i_nu d Gamma^j_mu/dy^i."""
    return CurvatureTensor(connection.chart, dict(_curvature_components(connection)))


def is_integrable(connection: EhresmannConnection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """Zero curvature, decided componentwise by the probabilistic zero test;
    stops at the first component that does not vanish."""
    return ex.all_zero((value for _, value in _curvature_components(connection)), probe)


def integral_section_residual(connection: EhresmannConnection, phi: Section):
    """Residual table d phi^i/dx^mu - Gamma^i_mu(x, phi(x)); all zero iff
    phi is an integral section."""
    _same_chart(connection, phi)
    chart = connection.chart
    pullback = dict(zip(chart.fiber_names, phi.components))
    return tuple(
        tuple(
            ex.normalize(
                ex.differentiate(phi.components[i], x)
                - ex.substitute(connection.gamma[i][mu], pullback)
            )
            for mu, x in enumerate(chart.base_names)
        )
        for i in range(chart.n)
    )


def add_vertical(connection: EhresmannConnection, gamma_shift):
    """Shift the connection by a vertical-valued semibasic table; this is
    the affine structure of the space of connections."""
    chart = connection.chart
    check_table(gamma_shift, (chart.n, chart.m), chart.coordinate_names, "shift")
    shifted = tuple(
        tuple(
            ex.normalize(connection.gamma[i][mu] + gamma_shift[i][mu])
            for mu in range(chart.m)
        )
        for i in range(chart.n)
    )
    return EhresmannConnection(chart, shifted)


# --------------------------------------------------------------------------
# numeric integral sections


@lru_cache(maxsize=kernel.CACHED)
def _sweep(names, bounds, column, axis, exact):
    """Compiled RK4 sweep ``run(s0, h, steps, fiber, *x)`` of the fiber
    values along the coordinate line of x[axis] from s0, holding the other
    base coordinates ``x`` fixed, with slope the column Gamma^i_axis generated
    into every stage.  The box ``bounds`` is checked for the fixed coordinates
    before the first step, and for s and the fiber at every stage before its
    Gamma.  ``exact`` (the column's repr) tells Const(-0.0) from Const(0.0)."""
    base = [f"b{mu}" for mu in range(len(names) - len(column))]
    on_line = base[:axis] + ["s"] + base[axis + 1:]  # the base operands of a stage point

    def outside(*point):
        bindings = dict(zip(names, point))
        return OutsideChartError(f"integration left the chart box at {bindings}")

    def stage(fiber, k):
        point = on_line + fiber
        lines, values, _, _ = ex._generate(column, dict(zip(names, point)), "g", env)
        check = kernel.box_check(point, bounds, ["s", *fiber], ", ".join(point))
        return [*check, *lines, *(f"{a} = {b}" for a, b in zip(k, values))]

    env, start = {"_outside": outside}, on_line + [f"y{i}" for i in range(len(column))]
    fixed = kernel.box_check(start, bounds, base, ", ".join(start))
    return kernel.compile_rk4(len(column), stage, env, fixed, params=base)


def integral_section(
    connection: EhresmannConnection,
    x0,
    y0,
    targets,
    steps=1000,
    order=None,
    probe: ex.ProbeConfig = ex.DEFAULT_PROBE,
    check_integrable=True,
):
    """Numeric integral section through (x0, y0), sampled at the given base
    points.

    The section solves d f^i/dx^mu = Gamma^i_mu(x, f) and is built by RK4
    sweeps along coordinate lines, axis ``order[0]`` first (default
    ascending).  ``steps`` is the RK4 step density per unit coordinate
    length.  Zero curvature makes the result path-independent; by default
    the connection is checked and a curved one is refused.

    Returns a list of fiber-value lists, one per target.
    """
    chart = connection.chart
    if len(x0) != chart.m or len(y0) != chart.n:
        raise ChartError("start point has wrong dimensions")
    if not all(map(math.isfinite, [*x0, *y0])):
        raise ChartError("start point must be finite")
    steps = check_number(steps, "steps", float)
    if not 1.0 <= steps < math.inf:
        raise ChartError("steps must be at least 1 and finite")
    if check_integrable and not is_integrable(connection, probe):
        raise NotIntegrableError(
            "connection has nonzero curvature; integral sections do not exist"
        )
    axes = list(order) if order is not None else list(range(chart.m))
    if sorted(axes) != list(range(chart.m)):
        raise ChartError(f"order must be a permutation of 0..{chart.m - 1}")
    names = chart.coordinate_names
    bounds = tuple(tuple(map(float, chart.bounds(name))) for name in names)
    results = []
    for target in targets:
        if len(target) != chart.m:
            raise ChartError("target point has wrong dimension")
        if not all(map(math.isfinite, target)):
            raise ChartError("target point must be finite")
        x = list(map(float, x0))
        y = list(map(float, y0))
        for axis in axes:
            length = float(target[axis]) - x[axis]
            if length != 0.0:
                span = abs(length) * steps
                if not math.isfinite(span):
                    raise ChartError(f"target {list(target)} is too far for {steps} steps per unit")
                count = max(1, round(span))
                column = tuple(row[axis] for row in connection.gamma)
                sweep = _sweep(names, bounds, column, axis, repr(column))
                y = sweep(x[axis], length / count, count, y, *x)
                x[axis] = float(target[axis])
        results.append(y)
    return results
