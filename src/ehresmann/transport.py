"""Parallel transport, holonomy, horizontal lifts and the complete-lift
characterization of the covariant derivative on a manifold chart.

Transport integrates the linear ODE
    dX^rho/dt + Gamma^rho_{nu mu}(sigma(t)) X^mu dsigma^nu/dt = 0
with classical fixed-step RK4; curves are symbolic in the parameter so the
velocity is exact.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import expr as ex
from . import kernel
from .bundle import Section, check_number, check_table
from .connection import VectorField, split_vector_field
from .errors import ChartError, EhresmannError, OutsideChartError
from .linear import ManifoldConnection, covariant_derivative

__all__ = [
    "Curve",
    "TransportResult",
    "parallel_transport",
    "holonomy",
    "horizontal_lift_vector",
    "hv_project_tm",
    "complete_lift",
    "covariant_via_complete_lift",
]

PARAMETER_NAME = "t"
CLOSURE_TOL = 1e-12  # largest gap per component of a closed curve's ends
LIFT_TOL = 1e-9  # relative disagreement allowed between the two covariant derivatives


@dataclass(frozen=True)
class Curve:
    """Parametrized curve sigma^mu(t) on a manifold chart, t in [0, T].

    periods maps a coordinate name to its period (finite, positive) for
    angular coordinates; loop closure is then checked modulo the period.
    """

    coordinate_names: tuple
    components: tuple  # m expressions in the parameter t
    domain: tuple = (0.0, 1.0)
    periods: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (len(self.coordinate_names),)
        check_table(self.components, shape, (PARAMETER_NAME,), "curve component")
        if not self.domain[1] > self.domain[0]:
            raise ChartError("curve domain must be a nondegenerate interval")
        if not all(map(math.isfinite, self.domain)):
            raise ChartError(f"curve domain must be finite, got {list(self.domain)}")
        for name, period in self.periods.items():
            if name not in self.coordinate_names:
                raise ChartError(f"period for unknown coordinate {name!r}")
            if not (math.isfinite(period) and period > 0):
                raise ChartError(f"period for {name!r} must be finite and positive, got {period}")

    def point(self, t):
        return self._point(float(t))

    @cached_property
    def _point(self):  # the compiled point function
        return ex.compile_exprs(self.components, (PARAMETER_NAME,))

    def is_closed(self):
        """Whether the ends meet to CLOSURE_TOL per component, modulo periods."""
        start, end = map(self.point, self.domain)
        if not all(map(math.isfinite, [*start, *end])):
            raise ChartError(f"curve end points must be finite, got {start} and {end}")
        for name, a, b in zip(self.coordinate_names, start, end):
            gap = a - b  # inf when the difference of two finite ends overflows
            period = self.periods.get(name)
            if period and math.isfinite(gap):
                gap = math.remainder(gap, period)
            if abs(gap) > CLOSURE_TOL:
                return False
        return True


@dataclass(frozen=True)
class TransportResult:
    """Sampled solution of the transport ODE along a curve.  ``record``
    holds every sample flat, as t, X^1, ..., X^m; ``times`` and ``vectors``
    are built from it when first read."""

    record: list
    final: tuple
    step_size: float

    @cached_property
    def times(self):
        return tuple(self.record[::len(self.final) + 1])

    @cached_property
    def vectors(self):  # one m-tuple per sample time
        width = len(self.final) + 1
        return tuple(zip(*(self.record[k::width] for k in range(1, width))))

    def write_csv(self, path):
        """Rows (t, X^1, ..., X^m); a non-finite sample writes no file."""
        if not all(map(math.isfinite, self.record)):
            raise EhresmannError("the result holds a non-finite number")
        width = len(self.final) + 1
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t"] + [f"X{k}" for k in range(1, width)])
            for start in range(0, len(self.record), width):
                writer.writerow(map(repr, self.record[start:start + width]))


def _transport(mc, curve, y0, steps, record=None):
    """RK4 solution of the transport ODE for the vectors stacked in y0, m
    values each, with step (T - t0)/steps; returns (step size, final state).
    The loop is compiled once per geometry by :func:`_loop`; the steps, the
    step size, t0 and y0 are its arguments."""
    if tuple(curve.coordinate_names) != tuple(mc.chart.base_names):
        raise ChartError("curve and connection use different coordinates")
    steps = check_number(steps, "steps", int)
    if steps < 1:
        raise ChartError("steps must be at least 1")
    names, gamma = _key(mc)
    bounds = tuple(tuple(map(float, mc.chart.bounds(name))) for name in names)
    components = tuple(curve.components)
    run = _loop(names, bounds, gamma, components, len(y0), repr((gamma, components)))
    t0, t1 = map(float, curve.domain)
    h = (t1 - t0) / steps
    return h, run(t0, h, steps, y0, record=record)


def _key(mc):
    """The coordinate names and the Gamma table of ``mc`` as tuples, to key
    a cache of compiled functions."""
    return tuple(mc.chart.base_names), tuple(tuple(map(tuple, plane)) for plane in mc.gamma)


@lru_cache(maxsize=kernel.CACHED)
def _loop(names, bounds, gamma, components, width, exact):
    """The RK4 loop for ``width`` values along the curve ``components``.  The
    geometry (point, velocity, box check, nonzero Gamma entries) depends on
    the time alone: it is generated into the loop, in full for the start and
    then as the lines that move with the time, with the box check cut down
    to the coordinates that move.  A literal zero velocity component leaves
    its terms out of the contraction, as :func:`_gamma` leaves zero entries
    out, and a literal one leaves out its factor (x * 1.0 is x); a Gamma
    line that no kept term needs, and that cannot raise, is left out too
    (:func:`_needed`).  ``exact``
    (the trees' repr) tells Const(-0.0) from Const(0.0) in the key."""
    m = len(names)

    def outside(t):
        return OutsideChartError(f"curve leaves the chart box at t={t}")

    env, moving = {"_outside": outside}, {"s"}
    velocity = [ex.differentiate(comp, PARAMETER_NAME) for comp in components]
    along, geometry, _, moving_along = ex._generate(
        [*components, *velocity], {PARAMETER_NAME: "s"}, "w", env, moving
    )
    point = geometry[:m]
    factors = [  # the velocity factor of each term; None leaves the term out
        None if v == ex.ZERO else "" if v == ex.Const(1.0) else f" * {operand}"
        for v, operand in zip(velocity, geometry[m:])
    ]
    entries, values = _gamma(gamma)
    coefficients, g, _, moving_coefficients = ex._generate(
        values, dict(zip(names, point)), "g", env, moving
    )
    rows = [  # the terms of each component, without those of a zero velocity
        [(j, nu, mu) for j, (r, nu, mu) in enumerate(entries)
         if r == rho and factors[nu] is not None]
        for rho in range(m)
    ]
    needed = _needed(coefficients, {g[j] for row in rows for j, _, _ in row})

    at = [*along, *kernel.box_check(point, bounds, point, "s"),
          *(line for line in coefficients if line in needed)]
    each = [*moving_along, *kernel.box_check(point, bounds, moving, "s"),
            *(line for line in moving_coefficients if line in needed)]

    def stage(X, k):
        # -(0.0 + g X v + ...) per component, summed in the order of ``entries``
        sums = (
            "".join(f" + {g[j]} * {X[base + mu]}{factors[nu]}" for j, nu, mu in row)
            for base in range(0, width, m)
            for row in rows
        )
        return [f"{out} = -(0.0{terms})" for out, terms in zip(k, sums)]

    return kernel.compile_rk4(width, stage, env, at, each)


_NAME = re.compile(r"[A-Za-z_]\w*")
_CALL = re.compile(r"\w\(")


def _needed(lines, read):
    """The set of the generated assignments among ``lines`` that the names in
    ``read`` need: a line is needed when a later needed line, or ``read``,
    reads its target, or when it may raise, because it carries a
    :data:`kernel.TAG` or calls a function (``_power`` of a non-finite
    exponent raises untagged).  A needed line's message reads its fields."""
    read, needed = set(read), set()
    for line in reversed(lines):
        if line.partition(" = ")[0] in read or kernel.TAG in line or _CALL.search(line):
            needed.add(line)
            read.update(_NAME.findall(line))
    return needed


def _gamma(gamma):
    """The indices (rho, nu, mu) of the Gamma entries that are not a literal
    zero, ascending, and those entries.  The zeros are left out of every
    contraction Gamma u v: they would only add signed zeros to a finite
    sum."""
    m = len(gamma)
    entries = [
        (rho, nu, mu)
        for rho in range(m)
        for nu in range(m)
        for mu in range(m)
        if gamma[rho][nu][mu] != ex.ZERO
    ]
    return entries, [gamma[rho][nu][mu] for rho, nu, mu in entries]


def parallel_transport(
    mc: ManifoldConnection, curve: Curve, u0, steps=10_000
) -> TransportResult:
    """Transport the vector u0 along the curve; fixed-step RK4 with
    (T - t0)/steps."""
    if len(u0) != mc.chart.m:
        raise ChartError(f"initial vector needs {mc.chart.m} components")
    u0 = [float(v) for v in u0]
    if not all(map(math.isfinite, u0)):
        raise ChartError("initial vector must be finite")
    record = []
    h, final = _transport(mc, curve, u0, steps, record)
    return TransportResult(record, tuple(final), h)


def holonomy(mc: ManifoldConnection, curve: Curve, steps=10_000):
    """Matrix of the loop's parallel transport in the coordinate basis;
    column k is the transport of the k-th basis vector.  The curve must be
    closed to CLOSURE_TOL per component.  The m basis vectors are transported
    together as one ODE of m * m values."""
    if not curve.is_closed():
        raise ChartError("holonomy requires a closed curve")
    m = mc.chart.m
    identity = [1.0 if r == c else 0.0 for c in range(m) for r in range(m)]
    _, columns = _transport(mc, curve, identity, steps)
    return [[columns[c * m + r] for c in range(m)] for r in range(m)]


def horizontal_lift_vector(mc: ManifoldConnection, p, u, v):
    """Horizontal lift of the tangent vector v to the point (p, u) of the
    tangent bundle: the 2m components (v^rho, -Gamma^rho_{nu mu}(p) u^mu v^nu)."""
    m = mc.chart.m
    if len(p) != m or len(u) != m or len(v) != m:
        raise ChartError("point and vectors need m components each")
    if not all(map(math.isfinite, [*u, *v])):
        raise ChartError("vectors must be finite")
    _check_point(mc, p)
    names, gamma = _key(mc)
    entries, values_at = _lift(names, gamma, repr(gamma))
    totals = [0.0] * m
    for (rho, nu, mu), value in zip(entries, values_at(*map(float, p))):
        totals[rho] += value * u[mu] * v[nu]
    return list(v) + [-total for total in totals]


def _check_point(mc: ManifoldConnection, p):
    for name, value in zip(mc.chart.base_names, p):
        low, high = mc.chart.bounds(name)
        if not (low <= value <= high):  # a nan is outside too
            raise OutsideChartError(f"point outside the chart box: {name}={value}")


@lru_cache(maxsize=kernel.CACHED)
def _lift(names, gamma, exact):
    """The indices of the nonzero Gamma entries, as :func:`_gamma` gives
    them, and one compiled function of their values at a point.  ``exact``
    (the table's repr) tells Const(-0.0) from Const(0.0) in the key."""
    entries, values = _gamma(gamma)
    return entries, ex.compile_exprs(values, names)


def hv_project_tm(mc: ManifoldConnection, base_components, fiber_components):
    """Horizontal/vertical splitting of W = a^nu d/dx^nu + b^rho d/dv^rho on
    the tangent bundle; components are expressions over (x, v).  This is the
    splitting of the induced connection ``mc.to_ehresmann()``.

    Returns ((a, horizontal fiber part), (0, vertical fiber part)) with
    H(W) = a^nu (d/dx^nu - Gamma^rho_{nu mu} v^mu d/dv^rho) and
    V(W) = (b^rho + a^nu Gamma^rho_{nu mu} v^mu) d/dv^rho.
    """
    W = VectorField(mc.chart, tuple(base_components), tuple(fiber_components))
    horizontal, vertical = split_vector_field(mc.to_ehresmann(), W)
    return (
        (horizontal.base_components, horizontal.fiber_components),
        (vertical.base_components, vertical.fiber_components),
    )


def complete_lift(mc: ManifoldConnection, Y):
    """Complete lift of the base field Y to the tangent bundle:
    Y^nu d/dx^nu + (dY^rho/dx^mu) v^mu d/dv^rho."""
    chart = mc.chart
    check_table(Y, (chart.m,), chart.base_names, "base vector field component")
    fiber = []
    for rho in range(chart.m):
        terms = [
            ex.differentiate(Y[rho], x) * ex.Var(v)
            for x, v in zip(chart.base_names, chart.fiber_names)
        ]
        fiber.append(ex.normalize(ex.Sum(tuple(terms))))
    return tuple(Y), tuple(fiber)


def covariant_via_complete_lift(mc: ManifoldConnection, X, Y, p):
    """Covariant derivative nabla_X Y at the point p of the chart box,
    computed as the vertical part of the complete lift of Y evaluated at
    the tangent-bundle point (p, X(p)), read back as a fiber vector.

    The result is cross-checked against the direct component formula,
    :func:`ehresmann.linear.covariant_derivative` of the Christoffel symbols;
    a relative disagreement beyond LIFT_TOL raises.  The two routes coincide
    exactly for torsion-free connections (they differ by the torsion
    contraction), so a symmetric connection is expected here.
    """
    m = mc.chart.m
    if len(X) != m or len(Y) != m or len(p) != m:
        raise ChartError("fields and point need m components each")
    names, p = mc.chart.base_names, [float(value) for value in p]
    _check_point(mc, p)
    base, fiber = complete_lift(mc, Y)
    _, vertical_part = hv_project_tm(mc, base, fiber)
    x_at_p = ex.compile_exprs(X, names)(*p)
    lifted = ex.compile_exprs(vertical_part[1], mc.chart.coordinate_names)(*p, *x_at_p)
    symbols = mc.to_christoffel()
    section = covariant_derivative(symbols, X, Section(symbols.chart, tuple(Y)))
    direct = ex.compile_exprs(section.components, names)(*p)
    for a, b in zip(lifted, direct):
        if abs(a - b) > LIFT_TOL * (1.0 + abs(a) + abs(b)):
            raise EhresmannError(
                "complete-lift and direct covariant derivatives disagree "
                f"({lifted} vs {direct}); the connection is probably not symmetric"
            )
    return lifted


def rotation_angle(matrix):
    """Angle of a 2x2 rotation-like holonomy matrix, from its first column."""
    if len(matrix) != 2:
        raise ChartError("rotation angle is defined for 2x2 matrices")
    return math.atan2(matrix[1][0], matrix[0][0])
