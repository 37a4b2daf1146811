"""Curvature against holonomy: the symbolic and the numeric path must agree.

Transport around a small loop fails to close by the curvature times the
enclosed area (the infinitesimal Ambrose-Singer relation):

- on a manifold, the holonomy H of the circle of radius eps about p gives
  (H - I) / (pi eps^2) -> K(p), where R^rho_{12} = K^rho_sigma v^sigma is
  the curvature of the connection induced on the tangent bundle;
- on a bundle, the integral section taken to the far corner of an eps-square
  along axis 1 then 2, minus the one along axis 2 then 1, divided by eps^2,
  tends to R^i_{12} at the start point.

The error of both quotients is O(eps): halving eps at least halves it.
"""

import math
import random

import pytest

from ehresmann import expr as ex
from ehresmann.connection import curvature, integral_section
from ehresmann.linear import ManifoldConnection
from ehresmann.model import load
from ehresmann.transport import Curve, holonomy

from conftest import PLANE, SPHERE, TAU, random_connection

EPSILONS = (0.02, 0.01, 0.005)


def _evaluate(e, names, point):
    return ex.evaluate(e, dict(zip(names, point)))


def holonomy_quotient(mc, center, eps, steps=200):
    """(H - I) / (pi eps^2) for the circle of radius eps about center."""
    components = tuple(
        ex.Sum((ex.Const(c), ex.Prod((ex.Const(eps), ex.Call(f, ex.Var("t"))))))
        for c, f in zip(center, ("cos", "sin"))
    )
    H = holonomy(mc, Curve(mc.coordinate_names, components, (0.0, TAU)), steps)
    return [[(H[r][s] - (r == s)) / (math.pi * eps**2) for s in range(2)] for r in range(2)]


def curvature_matrix(mc, center):
    """K^rho_sigma(center) with R^rho_{12} = K^rho_sigma v^sigma."""
    chart = mc.tangent_chart()
    R = curvature(mc.to_ehresmann())
    point = (*center, 0.0, 0.0)
    return [
        [
            _evaluate(ex.differentiate(R.coefficient(rho, 0, 1), v), chart.coordinate_names, point)
            for v in chart.fiber_names
        ]
        for rho in range(2)
    ]


def commutator_quotient(conn, x0, y0, eps):
    """(section along x1 then x2 - along x2 then x1) / eps^2 at the far
    corner of the eps-square at x0."""
    corner = [[x0[0] + eps, x0[1] + eps]]
    a, b = (
        integral_section(conn, x0, y0, corner, 2000, order, check_integrable=False)[0]
        for order in ((0, 1), (1, 0))
    )
    return [(p - q) / eps**2 for p, q in zip(a, b)]


def assert_first_order(errors):
    """Each halving of eps at least about halves the error (a leading
    coefficient that vanishes at the point makes it fall faster)."""
    for big, small in zip(errors, errors[1:]):
        assert big / small >= 1.6, errors


def _worst(got, expected):
    return max(abs(g - e) for g_row, e_row in zip(got, expected) for g, e in zip(g_row, e_row))


def polar_plane():
    """Levi-Civita connection of the flat plane in polar coordinates (r, a)."""
    g = ex.parse
    return ManifoldConnection(
        ("r", "a"),
        (((g("0"), g("0")), (g("0"), g("-r"))), ((g("0"), g("1 / r")), (g("1 / r"), g("0")))),
        box={"r": (0.1, 10.0)},
    )


class TestHolonomy:
    @pytest.mark.parametrize("center", [(1.0, 0.3), (0.6, -2.0), (2.2, 1.1)])
    def test_sphere(self, center):
        mc = load(SPHERE).manifold_connections["levi_civita"]
        K = curvature_matrix(mc, center)
        assert max(map(abs, K[0] + K[1])) > 0.1  # the sphere is curved here
        assert_first_order([_worst(holonomy_quotient(mc, center, eps), K) for eps in EPSILONS])

    def test_seeded_points(self):
        rng = random.Random(4201)
        mc = load(SPHERE).manifold_connections["levi_civita"]
        for _ in range(3):
            center = (rng.uniform(0.5, 2.6), rng.uniform(-3.0, 3.0))
            K = curvature_matrix(mc, center)
            errors = [_worst(holonomy_quotient(mc, center, eps), K) for eps in EPSILONS]
            assert_first_order(errors)

    def test_flat_polar_plane(self):
        mc = polar_plane()
        assert curvature_matrix(mc, (1.5, 0.4)) == [[0.0, 0.0], [0.0, 0.0]]
        for eps in EPSILONS:
            assert _worst(holonomy_quotient(mc, (1.5, 0.4), eps), [[0.0] * 2] * 2) < 1e-6


class TestSectionCommutator:
    @pytest.mark.parametrize("x0, y0", [([0.3, 0.5], [1.0]), ([-1.0, 0.8], [-0.4])])
    def test_plane_curved(self, x0, y0):
        conn = load(PLANE).connections["curved"]
        names = conn.chart.coordinate_names
        exact = _evaluate(curvature(conn).coefficient(0, 0, 1), names, x0 + y0)
        assert abs(exact) > 0.1
        errors = [abs(commutator_quotient(conn, x0, y0, eps)[0] - exact) for eps in EPSILONS]
        assert_first_order(errors)

    @pytest.mark.parametrize("seed", [4301, 4302, 4303])
    def test_generated_connections(self, seed):
        rng = random.Random(seed)
        conn = random_connection(rng, 2, 2, degree=1)
        names = conn.chart.coordinate_names
        x0 = [rng.uniform(-0.5, 0.5) for _ in range(2)]
        y0 = [rng.uniform(-0.5, 0.5) for _ in range(2)]
        R = curvature(conn)
        exact = [_evaluate(R.coefficient(j, 0, 1), names, x0 + y0) for j in range(2)]
        errors = [
            max(abs(g - e) for g, e in zip(commutator_quotient(conn, x0, y0, eps), exact))
            for eps in EPSILONS
        ]
        assert_first_order(errors)

    def test_flat(self):
        conn = load(PLANE).connections["flat"]
        for eps in EPSILONS:
            assert abs(commutator_quotient(conn, [0.3, 0.5], [1.0], eps)[0]) < 1e-6
