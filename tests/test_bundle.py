"""Charts, sections and jet prolongation."""

import math

import pytest

from ehresmann import expr as ex
from ehresmann.bundle import (
    BundleChart,
    JetChart,
    JetSection,
    Section,
    default_names,
    holonomic_check,
    jet_names,
    prolong_jet_section,
    prolong_section,
)
from ehresmann.errors import ChartError


class TestNames:
    def test_default_names(self):
        assert default_names("x", 3) == ("x1", "x2", "x3")

    def test_jet_names_order(self):
        # fiber index outer, base index inner
        assert jet_names(("x1", "x2"), ("y1", "y2")) == (
            "y1_1",
            "y1_2",
            "y2_1",
            "y2_2",
        )


class TestBundleChart:
    def test_standard(self):
        chart = BundleChart.standard(2, 1)
        assert chart.m == 2 and chart.n == 1
        assert chart.coordinate_names == ("x1", "x2", "y1")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ChartError):
            BundleChart(("x", "x"), ("y",))
        with pytest.raises(ChartError):
            BundleChart(("x",), ("x",))

    def test_empty_rejected(self):
        with pytest.raises(ChartError):
            BundleChart((), ("y",))

    def test_box(self):
        chart = BundleChart(("x",), ("y",), {"x": (0.0, 1.0)})
        assert chart.bounds("x") == (0.0, 1.0)
        assert chart.bounds("y") == (-10.0, 10.0)

    def test_box_unknown_coordinate(self):
        with pytest.raises(ChartError):
            BundleChart(("x",), ("y",), {"z": (0.0, 1.0)})

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (1.0, 1.0), (math.nan, 1.0), (0.0, math.inf)])
    def test_box_must_be_finite_interval(self, bounds):
        with pytest.raises(ChartError, match="finite low < high"):
            BundleChart(("x",), ("y",), {"y": bounds})

    def test_check_expression(self):
        chart = BundleChart.standard(1, 1)
        chart.check_expression(ex.parse("x1 * y1"), chart.coordinate_names, "ok")
        with pytest.raises(ChartError):
            chart.check_expression(ex.parse("x1 + q"), chart.coordinate_names, "bad")


class TestJetChart:
    def test_coordinates(self):
        jc = JetChart(BundleChart.standard(2, 2))
        assert jc.coordinate_names == (
            "x1", "x2", "y1", "y2", "y1_1", "y1_2", "y2_1", "y2_2",
        )


class TestSection:
    def test_fiber_variable_rejected(self):
        chart = BundleChart.standard(1, 1)
        with pytest.raises(ChartError):
            Section(chart, (ex.parse("y1"),))

    def test_wrong_arity(self):
        chart = BundleChart.standard(1, 2)
        with pytest.raises(ChartError):
            Section(chart, (ex.parse("x1"),))


class TestProlongation:
    def test_prolong_exponential(self):
        chart = BundleChart.standard(2, 1)
        phi = Section(chart, (ex.parse("exp(x1 + x2)"),))
        psi = prolong_section(phi)
        # both partials reproduce the section itself
        for mu in range(2):
            assert ex.is_zero(psi.jet_components[0][mu] - phi.components[0])
        assert holonomic_check(psi)

    def test_prolong_product(self):
        chart = BundleChart.standard(2, 1)
        psi = prolong_section(Section(chart, (ex.parse("x1 * x2"),)))
        assert ex.is_zero(psi.jet_components[0][0] - ex.Var("x2"))
        assert ex.is_zero(psi.jet_components[0][1] - ex.Var("x1"))

    def test_non_holonomic_detected(self):
        chart = BundleChart.standard(2, 1)
        psi = JetSection(
            chart,
            (ex.parse("x1 * x2"),),
            ((ex.parse("x2"), ex.parse("x2")),),  # second slot should be x1
        )
        assert not holonomic_check(psi)

    def test_base_section_round_trip(self):
        chart = BundleChart.standard(2, 1)
        phi = Section(chart, (ex.parse("x1^2 - x2"),))
        assert prolong_section(phi).base_section() == phi

    def test_jet_table_shape_checked(self):
        chart = BundleChart.standard(2, 1)
        with pytest.raises(ChartError):
            JetSection(chart, (ex.parse("x1"),), ((ex.ONE,),))

    def test_second_prolongation(self):
        chart = BundleChart.standard(2, 1)
        psi = prolong_section(Section(chart, (ex.parse("x1^2 * x2"),)))
        f, g, df, dg = prolong_jet_section(psi)
        assert f == psi.components and g == psi.jet_components
        # df repeats the first derivatives; dg carries the second derivatives
        assert ex.is_zero(df[0][0] - ex.parse("2 * x1 * x2"))
        assert ex.is_zero(dg[0][0][0] - ex.parse("2 * x2"))  # d2/dx1 dx1
        assert ex.is_zero(dg[0][0][1] - ex.parse("2 * x1"))  # d2/dx1 dx2
        assert ex.is_zero(dg[0][1][0] - ex.parse("2 * x1"))  # d2/dx2 dx1
        assert ex.is_zero(dg[0][1][1])

    def test_second_prolongation_symmetric(self):
        chart = BundleChart.standard(2, 1)
        psi = prolong_section(Section(chart, (ex.parse("sin(x1 * x2)"),)))
        _, _, df, dg = prolong_jet_section(psi)
        # mixed partials commute, and df equals g differentiated trivially
        assert ex.is_zero(dg[0][0][1] - dg[0][1][0])
        assert ex.is_zero(df[0][1] - psi.jet_components[0][1])
