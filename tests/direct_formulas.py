"""The explicit component formulas that ``ehresmann.transport`` once built
for itself, kept as independent references now that the package derives
them from the bundle-connection code: the tangent-bundle splitting from
``split_vector_field`` of ``ManifoldConnection.to_ehresmann()``, and the
covariant derivative on a manifold from ``linear.covariant_derivative`` of
``ManifoldConnection.to_christoffel()``.
"""

from ehresmann import expr as ex
from ehresmann.errors import ChartError
from ehresmann.linear import ManifoldConnection


def hv_project_tm(mc: ManifoldConnection, base_components, fiber_components):
    """Horizontal/vertical splitting of W = a^nu d/dx^nu + b^rho d/dv^rho on
    the tangent bundle; components are expressions over (x, v).

    Returns ((a, horizontal fiber part), (0, vertical fiber part)) with
    H(W) = a^nu (d/dx^nu - Gamma^rho_{nu mu} v^mu d/dv^rho) and
    V(W) = (b^rho + a^nu Gamma^rho_{nu mu} v^mu) d/dv^rho.
    """
    m = mc.m
    if len(base_components) != m or len(fiber_components) != m:
        raise ChartError("need m base and m fiber components")
    chart = mc.tangent_chart()
    for comp in tuple(base_components) + tuple(fiber_components):
        chart.check_expression(comp, chart.coordinate_names, "TM field component")
    velocities = chart.fiber_names
    correction = []
    for rho in range(m):
        terms = []
        for nu in range(m):
            for mu in range(m):
                terms.append(
                    base_components[nu] * mc.gamma[rho][nu][mu] * ex.Var(velocities[mu])
                )
        correction.append(ex.normalize(ex.Sum(tuple(terms))))
    horizontal = (
        tuple(base_components),
        tuple(ex.normalize(ex.Neg(c)) for c in correction),
    )
    vertical = (
        tuple(ex.ZERO for _ in range(m)),
        tuple(
            ex.normalize(fiber_components[rho] + correction[rho]) for rho in range(m)
        ),
    )
    return horizontal, vertical


def covariant_derivative_direct(mc: ManifoldConnection, X, Y):
    """Components of nabla_X Y: (dY^rho/dx^nu + Gamma^rho_{nu mu} Y^mu) X^nu."""
    m = mc.m
    out = []
    for rho in range(m):
        terms = []
        for nu in range(m):
            inner = [ex.differentiate(Y[rho], mc.coordinate_names[nu])]
            for mu in range(m):
                inner.append(mc.gamma[rho][nu][mu] * Y[mu])
            terms.append(X[nu] * ex.Sum(tuple(inner)))
        out.append(ex.normalize(ex.Sum(tuple(terms))))
    return tuple(out)
