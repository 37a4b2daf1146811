"""Trivial bundle charts, sections, and first/second jet prolongation.

Everything lives in a single adapted chart of a product bundle: base
coordinates x1..xm, fiber coordinates y1..yn, induced jet coordinates
y<i>_<mu>.  The chart carries an explicit coordinate box; numeric routines
refuse to leave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as ex
from .errors import ChartError

DEFAULT_BOX_HALF_WIDTH = 10.0


def default_names(prefix, count):
    return tuple(f"{prefix}{k}" for k in range(1, count + 1))


def free_name(name, taken):
    """``name`` with ``_`` appended until it is not among ``taken``."""
    while name in taken:
        name += "_"
    return name


def jet_names(base_names, fiber_names):
    """Jet coordinate names y<i>_<mu> in (i outer, mu inner) order."""
    return tuple(
        f"{fiber}_{mu}"
        for fiber in fiber_names
        for mu in range(1, len(base_names) + 1)
    )


def check_table(table, shape, allowed, what):
    """Check that ``table`` nests as ``shape`` (rows first, e.g. ``(n, m)``)
    in tuples or lists of expressions that use only the names in
    ``allowed``; otherwise raise :class:`ChartError` naming ``what`` and the
    offending index, e.g. ``Gamma[1]: expected 2 entries, found 1``."""
    if not shape:
        if not isinstance(table, ex.Expr):
            raise ChartError(f"{what}: expected an expression, found {type(table).__name__}")
        BundleChart.check_expression(table, allowed, what)
        return
    size, sequence = shape[0], isinstance(table, (tuple, list))
    if not (sequence and len(table) == size):
        if sequence:
            found = len(table)
        else:
            found = "an expression" if isinstance(table, ex.Expr) else type(table).__name__
        entries = "entry" if size == 1 else "entries"
        raise ChartError(f"{what}: expected {size} {entries}, found {found}")
    for k, row in enumerate(table):
        check_table(row, shape[1:], allowed, f"{what}[{k + 1}]")


def check_number(value, what, kind=float):
    """``value`` as a ``kind``, or :class:`ChartError` naming ``what``; a
    bool is not a number, and an ``int`` refuses a fraction (``2.0`` is
    accepted)."""
    try:
        if isinstance(value, bool):
            raise TypeError("a bool is not a number")
        number = kind(value)
    except (TypeError, ValueError) as err:
        raise ChartError(f"{what}: expected a number, got {value!r}") from err
    except OverflowError as err:  # an int too large for a float, or inf as an int
        raise ChartError(f"{what}: number {value!r} is out of range") from err
    if kind is int and isinstance(value, float) and number != value:
        raise ChartError(f"{what}: expected an integer, got {value!r}")
    return number


def check_box(box, names):
    """Refuse a box entry for a coordinate outside ``names`` or not low < high, finite."""
    for name, (low, high) in box.items():
        if name not in names:
            raise ChartError(f"box bound for unknown coordinate {name!r}")
        if not (math.isfinite(low) and math.isfinite(high) and low < high):
            raise ChartError(f"box for {name!r} needs finite low < high, got [{low}, {high}]")


@dataclass(frozen=True)
class BundleChart:
    """Adapted chart of a trivial bundle E = M x F.

    box maps coordinate name -> (low, high); coordinates without an entry
    default to a symmetric box of half-width 10.
    """

    base_names: tuple
    fiber_names: tuple
    box: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.base_names or not self.fiber_names:
            raise ChartError("chart needs at least one base and one fiber coordinate")
        names = tuple(self.base_names) + tuple(self.fiber_names)
        if len(set(names)) != len(names):
            raise ChartError("coordinate names must be distinct")
        check_box(self.box, names)

    @classmethod
    def standard(cls, m, n, box=None):
        return cls(default_names("x", m), default_names("y", n), box or {})

    @classmethod
    def tangent(cls, names, box=None):
        """Chart of the tangent bundle over the manifold coordinates ``names``:
        fiber velocities v1..vm, each made free of ``names`` by :func:`free_name`."""
        names = tuple(names)
        velocities = tuple(free_name(v, names) for v in default_names("v", len(names)))
        return cls(names, velocities, box or {})

    @property
    def m(self):
        return len(self.base_names)

    @property
    def n(self):
        return len(self.fiber_names)

    @property
    def coordinate_names(self):
        return tuple(self.base_names) + tuple(self.fiber_names)

    def bounds(self, name):
        return self.box.get(name, (-DEFAULT_BOX_HALF_WIDTH, DEFAULT_BOX_HALF_WIDTH))

    @staticmethod
    def check_expression(e, allowed, what):
        extra = ex.free_variables(e) - set(allowed)
        if extra:
            raise ChartError(
                f"{what} uses coordinates {sorted(extra)} outside {sorted(allowed)}"
            )


@dataclass(frozen=True)
class JetChart:
    """First-jet chart over a BundleChart; coordinates (x, y, y_mu)."""

    bundle: BundleChart

    @property
    def jet_coordinate_names(self):
        return jet_names(self.bundle.base_names, self.bundle.fiber_names)

    @property
    def coordinate_names(self):
        return self.bundle.coordinate_names + self.jet_coordinate_names


@dataclass(frozen=True)
class Section:
    """Section of the bundle: y^i = phi^i(x)."""

    chart: BundleChart
    components: tuple  # n expressions in the base coordinates

    def __post_init__(self):
        chart = self.chart
        check_table(self.components, (chart.n,), chart.base_names, "section component")


@dataclass(frozen=True)
class JetSection:
    """Section of J1(pi) -> M: components (phi^i, gamma^i_mu), all functions
    of the base coordinates.  gamma is stored as an n x m table."""

    chart: BundleChart
    components: tuple  # n expressions phi^i
    jet_components: tuple  # n x m table gamma^i_mu

    def __post_init__(self):
        chart = self.chart
        check_table(self.components, (chart.n,), chart.base_names, "component")
        check_table(self.jet_components, (chart.n, chart.m), chart.base_names, "jet component")

    def base_section(self):
        """The underlying section of the bundle (forget the jet part)."""
        return Section(self.chart, self.components)


def prolong_section(phi: Section) -> JetSection:
    """Canonical first prolongation: append all partial derivatives of the
    section components."""
    chart = phi.chart
    jet = tuple(
        tuple(ex.differentiate(comp, x) for x in chart.base_names)
        for comp in phi.components
    )
    return JetSection(chart, phi.components, jet)


def prolong_jet_section(psi: JetSection):
    """Second prolongation of a jet section: the tuple of component tables
    (f^i, g^i_nu, df^i/dx^nu, dg^i_mu/dx^nu) ordered as the second-jet
    chart (i outer, indices inner, row-major)."""
    chart = psi.chart
    df = prolong_section(psi.base_section()).jet_components
    dg = tuple(
        tuple(
            tuple(ex.differentiate(psi.jet_components[i][mu], x) for x in chart.base_names)
            for mu in range(chart.m)
        )
        for i in range(chart.n)
    )
    return psi.components, psi.jet_components, df, dg


def holonomic_check(psi: JetSection, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """True iff the jet part equals the derivative of the fiber part, i.e.
    psi is the prolongation of its own projection."""
    residuals = (
        psi.jet_components[i][mu] - ex.differentiate(psi.components[i], x)
        for i in range(psi.chart.n)
        for mu, x in enumerate(psi.chart.base_names)
    )
    return ex.all_zero(residuals, probe)
