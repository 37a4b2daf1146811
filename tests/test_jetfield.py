"""Jet fields on the first jet bundle: the second-order condition, its
integrability residuals, and second-order sections via the stacked
connection."""

import math
import random

import pytest

from ehresmann import expr as ex
from ehresmann.bundle import BundleChart, JetChart, Section
from ehresmann.connection import integral_section
from ehresmann.errors import ChartError, NotSOPDEError
from ehresmann.jetfield import (
    JetField2,
    as_connection_on_jet,
    is_sopde,
    project_j1pi1,
    second_order_residual,
    sopde_integrability_residuals,
)

from conftest import random_polynomial


def _field(m, n, F_rows, G_planes):
    chart = JetChart(BundleChart.standard(m, n))
    F = tuple(tuple(ex.parse(s) for s in row) for row in F_rows)
    G = tuple(tuple(tuple(ex.parse(s) for s in row) for row in plane) for plane in G_planes)
    return JetField2(chart, F, G)


def sopde(m, n, G_planes):
    F_rows = [[f"y{i}_{mu}" for mu in range(1, m + 1)] for i in range(1, n + 1)]
    return _field(m, n, F_rows, G_planes)


class TestConstruction:
    def test_shapes_checked(self):
        chart = JetChart(BundleChart.standard(2, 1))
        with pytest.raises(ChartError):
            JetField2(chart, ((ex.ZERO,),), (((ex.ZERO, ex.ZERO),) * 2,))
        with pytest.raises(ChartError):
            JetField2(chart, ((ex.ZERO, ex.ZERO),), (((ex.ZERO,),) * 2,))

    def test_jet_coordinates_allowed(self):
        field = sopde(2, 1, [[["y1_2", "0"], ["0", "y1"]]])
        assert field.F[0][0] == ex.Var("y1_1")


class TestSOPDE:
    def test_identity_F_is_sopde(self):
        assert is_sopde(sopde(2, 1, [[["0", "0"], ["0", "0"]]]))

    def test_zero_F_is_not(self):
        assert not is_sopde(_field(2, 1, [["0", "0"]], [[["0", "0"], ["0", "0"]]]))

    def test_two_fibers(self):
        field = sopde(1, 2, [[["0"]], [["x1"]]])
        assert is_sopde(field)


class TestStackedConnection:
    def test_shape_and_entries(self):
        field = sopde(2, 1, [[["1", "2"], ["3", "4"]]])
        conn = as_connection_on_jet(field)
        assert conn.chart.fiber_names == ("y1", "y1_1", "y1_2")
        assert conn.chart.m == 2 and conn.chart.n == 3
        # first row is F, following rows are the G planes
        assert conn.gamma[0] == field.F[0]
        assert conn.gamma[1] == field.G[0][0]
        assert conn.gamma[2] == field.G[0][1]

    def test_flat_sopde_is_integrable(self):
        from ehresmann.connection import is_integrable

        field = sopde(2, 1, [[["0", "0"], ["0", "0"]]])
        assert is_integrable(as_connection_on_jet(field))

    def test_second_order_ode_oracle(self):
        # y'' = y' with y(0) = 0, y'(0) = 1 -> y = e^x - 1
        field = sopde(1, 1, [[["y1_1"]]])
        conn = as_connection_on_jet(field)
        [[y, yp]] = integral_section(conn, [0.0], [0.0, 1.0], [[1.0]], steps=1000)
        assert abs(y - (math.e - 1.0)) <= 1e-8
        assert abs(yp - math.e) <= 1e-8


class TestProjection:
    def test_reorders_point(self):
        # m = 1, n = 1: (x, y, y_1, z_1, z_11) -> (x, y, z_1)
        assert project_j1pi1([1, 2, 3, 4, 5], 1, 1) == (1, 2, 4)

    def test_larger_instance(self):
        m, n = 2, 1
        point = list(range(m + n + 2 * n * m + n * m * m))
        projected = project_j1pi1(point, m, n)
        assert projected == (0, 1, 2, 5, 6)

    def test_wrong_length(self):
        with pytest.raises(ChartError):
            project_j1pi1([1, 2, 3], 1, 1)


class TestIntegrabilityResiduals:
    def test_requires_sopde(self):
        field = _field(2, 1, [["0", "0"]], [[["0", "0"], ["0", "0"]]])
        with pytest.raises(NotSOPDEError):
            sopde_integrability_residuals(field)

    def test_symmetry_defect_detected(self):
        field = sopde(2, 1, [[["0", "1"], ["0", "0"]]])
        residuals = dict(sopde_integrability_residuals(field))
        defect = residuals["sym[1][2][1]"]
        assert not ex.is_zero(defect)
        assert ex.is_zero(defect + ex.ONE) or ex.is_zero(defect - ex.ONE)

    def test_constant_symmetric_G_integrable(self):
        field = sopde(2, 1, [[["2", "5"], ["5", "3"]]])
        residuals = sopde_integrability_residuals(field)
        assert all(ex.is_zero(v) for _, v in residuals)

    def test_prolongation_induced_G_integrable(self):
        # G = second derivatives of a fixed function of x: integrable by
        # construction (its holonomic solutions are phi + affine offsets)
        w = ex.parse("x1^2 * x2 + x2^3")
        G = [
            [
                [
                    ex.to_text(
                        ex.differentiate(ex.differentiate(w, f"x{nu}"), f"x{mu}")
                    )
                    for mu in (1, 2)
                ]
                for nu in (1, 2)
            ]
        ]
        field = sopde(2, 1, G)
        residuals = sopde_integrability_residuals(field)
        assert all(ex.is_zero(v) for _, v in residuals)

    def test_velocity_dependent_defect(self):
        # G depends on the jet coordinate asymmetrically in the derivative
        field = sopde(2, 1, [[["y1_1 * x2", "0"], ["0", "0"]]])
        residuals = dict(sopde_integrability_residuals(field))
        assert any(not ex.is_zero(v) for v in residuals.values())

    def test_larger_chart_against_fresh_partials(self):
        # m = 3, n = 2: every residual equals the formula written out here,
        # so no remembered partial is read for the wrong entry or coordinate
        rng = random.Random(5)
        chart = JetChart(BundleChart.standard(3, 2))
        names = list(chart.coordinate_names)
        F = tuple(tuple(ex.Var(f"y{i}_{mu}") for mu in (1, 2, 3)) for i in (1, 2))
        G = tuple(
            tuple(tuple(random_polynomial(rng, names, 2, 2) for _ in range(3)) for _ in range(3))
            for _ in range(2)
        )
        field = JetField2(chart, F, G)

        def total(e, mu):
            terms = [ex.differentiate(e, f"x{mu + 1}")]
            for i in range(2):
                terms.append(ex.Var(f"y{i + 1}_{mu + 1}") * ex.differentiate(e, f"y{i + 1}"))
                for g in range(3):
                    terms.append(G[i][mu][g] * ex.differentiate(e, f"y{i + 1}_{g + 1}"))
            return ex.normalize(ex.Sum(tuple(terms)))

        residuals = dict(sopde_integrability_residuals(field))
        assert len(residuals) == 2 * 3 + 2 * 3 * 3
        for j in range(2):
            for rho in range(3):
                for mu in range(3):
                    for nu in range(mu + 1, 3):
                        want = ex.normalize(total(G[j][nu][rho], mu) - total(G[j][mu][rho], nu))
                        got = residuals[f"dG[{j + 1}][{nu + 1}][{rho + 1}]d{mu + 1}"]
                        assert repr(got) == repr(want)

    def test_m1_has_no_residuals(self):
        field = sopde(1, 1, [[["y1"]]])
        assert sopde_integrability_residuals(field) == []


class TestSecondOrderResidual:
    def test_requires_sopde(self):
        field = _field(1, 1, [["0"]], [[["0"]]])
        with pytest.raises(NotSOPDEError):
            second_order_residual(field, Section(BundleChart.standard(1, 1), (ex.parse("x1"),)))

    def test_affine_solutions_of_zero_G(self):
        field = sopde(2, 1, [[["0", "0"], ["0", "0"]]])
        phi = Section(BundleChart.standard(2, 1), (ex.parse("1 + 2 * x1 - x2"),))
        table = second_order_residual(field, phi)
        assert all(ex.is_zero(v) for plane in table for row in plane for v in row)

    def test_free_fall_oracle(self):
        # y'' = 1 has solution x^2/2
        field = sopde(1, 1, [[["1"]]])
        phi = Section(BundleChart.standard(1, 1), (ex.parse("x1^2 / 2"),))
        table = second_order_residual(field, phi)
        assert all(ex.is_zero(v) for plane in table for row in plane for v in row)

    def test_non_solution_detected(self):
        field = sopde(1, 1, [[["1"]]])
        phi = Section(BundleChart.standard(1, 1), (ex.parse("x1"),))
        table = second_order_residual(field, phi)
        assert not ex.is_zero(table[0][0][0])

    def test_jet_dependent_G(self):
        # y'' = y' with solution e^x: residual e^x - e^x = 0
        field = sopde(1, 1, [[["y1_1"]]])
        phi = Section(BundleChart.standard(1, 1), (ex.parse("exp(x1)"),))
        table = second_order_residual(field, phi)
        assert ex.is_zero(table[0][0][0])

    def test_chart_mismatch(self):
        field = sopde(1, 1, [[["0"]]])
        phi = Section(BundleChart.standard(2, 1), (ex.parse("x1"),))
        with pytest.raises(ChartError):
            second_order_residual(field, phi)
