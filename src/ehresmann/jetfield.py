"""Jet fields on the first jet bundle and the second-order condition.

A jet field here is the coefficient data (F^i_nu, G^i_{nu mu}) of a
connection on J1(pi) -> M.  The module converts it into an ordinary
connection on the enlarged chart, decides the second-order (SOPDE)
condition F^i_nu = y^i_nu, and produces the residual systems that govern
integrability and second-order sections.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .bundle import (
    BundleChart, JetChart, Section, check_table, prolong_jet_section, prolong_section,
)
from .connection import EhresmannConnection
from .errors import ChartError, NotSOPDEError

__all__ = [
    "JetField2",
    "as_connection_on_jet",
    "project_j1pi1",
    "is_sopde",
    "sopde_integrability_residuals",
    "second_order_residual",
]


@dataclass(frozen=True)
class JetField2:
    """Coefficient tables of a jet field J1(pi) -> J1(J1(pi)):
    F is n x m, G is n x m x m (G[i][nu][mu]); entries may involve the base,
    fiber and jet coordinates."""

    chart: JetChart
    F: tuple
    G: tuple

    def __post_init__(self):
        bundle = self.chart.bundle
        n, m = bundle.n, bundle.m
        allowed = self.chart.coordinate_names
        check_table(self.F, (n, m), allowed, "F")
        check_table(self.G, (n, m, m), allowed, "G")


def as_connection_on_jet(Y: JetField2) -> EhresmannConnection:
    """The jet field as a connection on the bundle J1(pi) -> M: fiber
    coordinates are (y^i, y^i_nu) and the coefficient table stacks F on top
    of G (i outer, nu inner).  Curvature, splitting and integral sections
    are then inherited from the plain connection machinery."""
    bundle = Y.chart.bundle
    fiber = tuple(bundle.fiber_names) + Y.chart.jet_coordinate_names
    box = dict(bundle.box)
    big_chart = BundleChart(bundle.base_names, fiber, box)
    gamma = [list(row) for row in Y.F]
    for i in range(bundle.n):
        for nu in range(bundle.m):
            gamma.append(list(Y.G[i][nu]))
    return EhresmannConnection(big_chart, tuple(tuple(row) for row in gamma))


def project_j1pi1(point, m, n):
    """The exchange projection J1(J1(pi)) -> J1(pi): a point ordered as
    (x^mu, y^i, y^i_mu, z^i_nu, z^i_{nu mu}) maps to (x^mu, y^i, z^i_nu);
    the first-order jet coordinates are replaced by the z block."""
    expected = m + n + n * m + n * m + n * m * m
    if len(point) != expected:
        raise ChartError(
            f"second-jet point needs {expected} coordinates, got {len(point)}"
        )
    x = tuple(point[:m])
    y = tuple(point[m:m + n])
    z1 = tuple(point[m + n + n * m:m + n + 2 * n * m])
    return x + y + z1


def is_sopde(Y: JetField2, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """Second-order condition: F^i_nu coincides with the jet coordinate
    y^i_nu."""
    bundle = Y.chart.bundle
    jets = Y.chart.jet_coordinate_names
    residuals = (
        Y.F[i][nu] - ex.Var(jets[i * bundle.m + nu])
        for i in range(bundle.n)
        for nu in range(bundle.m)
    )
    return ex.all_zero(residuals, probe)


def _total_derivative(Y: JetField2, e, mu):
    """d/dx^mu along the horizontal frame of a second-order jet field:
    d/dx^mu + y^i_mu d/dy^i + G^i_{mu gamma} d/dy^i_gamma, applied to ``e``,
    whose partials ``expr.differentiate`` remembers."""
    bundle = Y.chart.bundle
    jets = Y.chart.jet_coordinate_names
    terms = [ex.differentiate(e, bundle.base_names[mu])]
    for i in range(bundle.n):
        jet_var = ex.Var(jets[i * bundle.m + mu])
        terms.append(jet_var * ex.differentiate(e, bundle.fiber_names[i]))
        for gamma in range(bundle.m):
            terms.append(Y.G[i][mu][gamma] * ex.differentiate(e, jets[i * bundle.m + gamma]))
    return ex.normalize(ex.Sum(tuple(terms)))


def sopde_integrability_residuals(Y: JetField2, probe: ex.ProbeConfig = ex.DEFAULT_PROBE):
    """Residual system whose vanishing makes a second-order jet field
    integrable: the symmetry defects G^j_{nu mu} - G^j_{mu nu} and the
    antisymmetrized total derivatives of G.  Returns (label, Expr) pairs."""
    if not is_sopde(Y, probe):
        raise NotSOPDEError("integrability residuals require the second-order condition")
    bundle = Y.chart.bundle
    n, m = bundle.n, bundle.m
    residuals = []
    for j in range(n):
        for mu in range(m):
            for nu in range(mu + 1, m):
                residuals.append(
                    (
                        f"sym[{j + 1}][{nu + 1}][{mu + 1}]",
                        ex.normalize(Y.G[j][nu][mu] - Y.G[j][mu][nu]),
                    )
                )
    for j in range(n):
        for rho in range(m):
            for mu in range(m):
                for nu in range(mu + 1, m):
                    value = ex.normalize(
                        _total_derivative(Y, Y.G[j][nu][rho], mu)
                        - _total_derivative(Y, Y.G[j][mu][rho], nu)
                    )
                    residuals.append((f"dG[{j + 1}][{nu + 1}][{rho + 1}]d{mu + 1}", value))
    return residuals


def second_order_residual(Y: JetField2, phi: Section, probe: ex.ProbeConfig = ex.DEFAULT_PROBE):
    """Residuals G^i_{nu mu}(x, phi, d phi) - d^2 phi^i / dx^nu dx^mu; the
    prolongation of phi is an integral section iff all vanish."""
    if not is_sopde(Y, probe):
        raise NotSOPDEError("second-order residuals require the second-order condition")
    bundle = Y.chart.bundle
    if phi.chart.base_names != bundle.base_names or phi.chart.fiber_names != bundle.fiber_names:
        raise ChartError("section lives on a different chart than the jet field")
    f, g, _, dg = prolong_jet_section(prolong_section(phi))
    pullback = dict(zip(bundle.fiber_names, f))
    pullback.update(zip(Y.chart.jet_coordinate_names, (d for row in g for d in row)))
    return tuple(
        tuple(
            tuple(ex.normalize(ex.substitute(G, pullback) - d2) for G, d2 in zip(G_row, d2_row))
            for G_row, d2_row in zip(G_plane, dg_plane)
        )
        for G_plane, dg_plane in zip(Y.G, dg)
    )
