"""Connections: splitting, curvature, integrability, integral sections.

The curvature formula is cross-checked against an independent finite
difference oracle built from the commutator of the horizontal frame fields;
integral sections are checked against closed-form solutions.
"""

import math
import random

import pytest

from ehresmann import connection as cn
from ehresmann import expr as ex
from ehresmann import model
from ehresmann.bundle import BundleChart, Section
from ehresmann.connection import (
    EhresmannConnection,
    OneForm,
    VectorField,
    add_vertical,
    curvature,
    horizontal_frame,
    integral_section,
    integral_section_residual,
    is_integrable,
    split_one_form,
    split_vector_field,
)
from ehresmann.errors import ChartError, NotIntegrableError, OutsideChartError, UnprobeableError

import tree_walker
from conftest import PLANE, random_connection, random_polynomial

pytestmark = pytest.mark.usefixtures("cold_kernels")  # compile counts are per test


def _connection(m, n, rows):
    chart = BundleChart.standard(m, n)
    return EhresmannConnection(chart, tuple(tuple(ex.parse(s) for s in row) for row in rows))


class TestConstruction:
    def test_table_shape(self):
        with pytest.raises(ChartError, match=r"^Gamma\[1\]: expected 2 entries, found 1$"):
            _connection(2, 1, [["y1"]])
        # an entry that is not an expression is refused the same way
        with pytest.raises(ChartError, match=r"^Gamma\[1\]\[1\]: expected an expression"):
            EhresmannConnection(BundleChart.standard(2, 1), (("y1", "0"),))
        # a list is a table level as a tuple is
        field = VectorField(BundleChart.standard(1, 1), [ex.ONE], (ex.ZERO,))
        assert field.components == (ex.ONE, ex.ZERO)

    def test_unknown_coordinate(self):
        with pytest.raises(ChartError):
            _connection(1, 1, [["q"]])

    def test_flat(self):
        conn = EhresmannConnection.flat(BundleChart.standard(2, 2))
        assert all(entry == ex.ZERO for row in conn.gamma for entry in row)


class TestHorizontalFrame:
    def test_frame_components(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        frame = horizontal_frame(conn)
        assert len(frame) == 2
        assert frame[0].base_components == (ex.ONE, ex.ZERO)
        assert ex.is_zero(frame[0].fiber_components[0] - ex.parse("y1"))
        assert ex.is_zero(frame[1].fiber_components[0] - ex.parse("x1 * y1"))


class TestSplitting:
    def test_vector_split_example(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        X = VectorField(
            conn.chart, (ex.ONE, ex.parse("x2")), (ex.parse("y1^2"),)
        )
        h, v = split_vector_field(conn, X)
        # horizontal fiber part is f^mu Gamma_mu = y1 + x2 * x1 * y1
        assert ex.is_zero(h.fiber_components[0] - ex.parse("y1 + x2 * x1 * y1"))
        assert v.base_components == (ex.ZERO, ex.ZERO)
        # the parts re-sum to X
        total = h + v
        for a, b in zip(total.components, X.components):
            assert ex.is_zero(a - b)

    def test_form_split_example(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        alpha = OneForm(conn.chart, (ex.ZERO, ex.ZERO), (ex.ONE,))
        h, v = split_one_form(conn, alpha)
        # dy1 -> horizontal part Gamma_mu dx^mu
        assert ex.is_zero(h.base_components[0] - ex.parse("y1"))
        assert ex.is_zero(h.base_components[1] - ex.parse("x1 * y1"))
        assert h.fiber_components == (ex.ZERO,)
        assert v.fiber_components == (ex.ONE,)

    def test_semibasic_form_fixed(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        alpha = OneForm(conn.chart, (ex.parse("x1"), ex.parse("y1")), (ex.ZERO,))
        h, v = split_one_form(conn, alpha)
        for a, b in zip(h.components, alpha.components):
            assert ex.is_zero(a - b)
        assert all(ex.is_zero(c) for c in v.components)

    def test_projector_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(10):
            conn = random_connection(rng, rng.randint(1, 3), rng.randint(1, 2))
            chart = conn.chart
            names = list(chart.coordinate_names)
            X = VectorField(
                chart,
                tuple(random_polynomial(rng, names, 2, 2) for _ in range(chart.m)),
                tuple(random_polynomial(rng, names, 2, 2) for _ in range(chart.n)),
            )
            h, v = split_vector_field(conn, X)
            hh, hv = split_vector_field(conn, h)
            for a, b in zip(hh.components, h.components):
                assert ex.is_zero(a - b)
            assert all(ex.is_zero(c) for c in hv.components)
            vh, vv = split_vector_field(conn, v)
            assert all(ex.is_zero(c) for c in vh.components)
            for a, b in zip(vv.components, v.components):
                assert ex.is_zero(a - b)

    def test_chart_mismatch(self):
        conn = _connection(1, 1, [["y1"]])
        other = BundleChart.standard(2, 1)
        X = VectorField(other, (ex.ONE, ex.ZERO), (ex.ZERO,))
        with pytest.raises(ChartError):
            split_vector_field(conn, X)


class TestCurvature:
    def test_curved_example(self):
        # Gamma = (y, x1*y): R^1_12 = y
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        R = curvature(conn)
        assert ex.is_zero(R.coefficient(0, 0, 1) - ex.parse("y1"))
        assert not is_integrable(conn)

    def test_flat_example(self):
        conn = _connection(2, 1, [["y1", "y1"]])
        R = curvature(conn)
        assert ex.is_zero(R.coefficient(0, 0, 1))
        assert is_integrable(conn)

    def test_antisymmetry(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        R = curvature(conn)
        assert ex.is_zero(R.coefficient(0, 0, 1) + R.coefficient(0, 1, 0))
        assert R.coefficient(0, 1, 1) == ex.ZERO

    @pytest.mark.parametrize("row", [
        ["1e300*1e300*x1", "0"],
        ["1e300*1e300*y1", "x1"],
        ["x2*1e300*1e300", "0"],
        ["x1*1e300*1e300", "x2*1e300*1e300"],
    ])
    def test_overflowing_constant_has_no_verdict(self, row):
        # 1e300*1e300 folds to inf, and a curvature term inf * 0 to nan,
        # which no probe point evaluates: no verdict, and never True
        chart = model.load(PLANE).connections["flat"].chart
        conn = EhresmannConnection(chart, (tuple(ex.parse(s) for s in row),))
        with pytest.raises(UnprobeableError):
            is_integrable(conn)

    def test_base_only_coefficients(self):
        # Gamma independent of y: R = dGamma_nu/dx_mu - dGamma_mu/dx_nu
        conn = _connection(2, 1, [["x2", "x1"]])
        assert is_integrable(conn)
        conn = _connection(2, 1, [["x2", "0"]])
        R = curvature(conn)
        assert ex.is_zero(R.coefficient(0, 0, 1) + ex.ONE)

    def test_integrable_stops_at_first_curved_component(self, monkeypatch):
        # R^1_12 = y1 is the first component and does not vanish: the
        # verdict probes nothing after it and differentiates no later row
        conn = _connection(2, 2, [["y1", "x1 * y1"], ["y2", "x1 * y2"]])
        probed, differentiated = [], []
        is_zero, differentiate = ex.is_zero, ex.differentiate
        monkeypatch.setattr(ex, "is_zero", lambda e, *a: probed.append(e) or is_zero(e, *a))
        monkeypatch.setattr(
            ex, "differentiate", lambda e, name: differentiated.append(e) or differentiate(e, name)
        )
        assert not is_integrable(conn)
        assert len(probed) == 1
        assert not set(differentiated) & set(conn.gamma[1])
        monkeypatch.undo()
        R = curvature(conn)
        assert list(R.components) == [(0, 0, 1), (1, 0, 1)]
        assert ex.is_zero(R.coefficient(1, 0, 1) - ex.parse("y2"))

    def test_finite_difference_oracle(self):
        """Curvature as the vertical defect of the frame commutator,
        measured numerically: [H_mu, H_nu]^j = H_mu(Gamma^j_nu) - H_nu(Gamma^j_mu)."""
        rng = random.Random(23)
        h = 1e-5
        for m, n in ((2, 2),) * 5 + ((3, 2),) * 2:
            conn = random_connection(rng, m, n, degree=2)
            chart = conn.chart
            names = chart.coordinate_names
            R = curvature(conn)
            point = {name: rng.uniform(-1.0, 1.0) for name in names}

            def directional(e, field_components, at):
                # finite-difference directional derivative of e along a field
                total = 0.0
                for name, comp in zip(names, field_components):
                    speed = tree_walker.evaluate(comp, at)
                    if speed == 0.0:
                        continue
                    up = dict(at)
                    down = dict(at)
                    up[name] += h
                    down[name] -= h
                    total += speed * (tree_walker.evaluate(e, up) - tree_walker.evaluate(e, down)) / (2 * h)
                return total

            frame = horizontal_frame(conn)
            for j in range(chart.n):
                for mu in range(chart.m):
                    for nu in range(mu + 1, chart.m):
                        numeric = directional(
                            conn.gamma[j][nu], frame[mu].components, point
                        ) - directional(conn.gamma[j][mu], frame[nu].components, point)
                        symbolic = tree_walker.evaluate(R.coefficient(j, mu, nu), point)
                        assert abs(numeric - symbolic) <= 1e-5 * (1.0 + abs(symbolic))


class TestResidual:
    def test_solution_has_zero_residual(self):
        conn = _connection(2, 1, [["y1", "y1"]])
        phi = Section(conn.chart, (ex.parse("exp(x1 + x2)"),))
        table = integral_section_residual(conn, phi)
        assert all(ex.is_zero(r) for row in table for r in row)

    def test_non_solution_detected(self):
        conn = _connection(2, 1, [["y1", "y1"]])
        phi = Section(conn.chart, (ex.parse("x1 * x2"),))
        table = integral_section_residual(conn, phi)
        assert not all(ex.is_zero(r) for row in table for r in row)


class TestShift:
    def test_add_and_subtract(self):
        conn = _connection(2, 1, [["y1", "0"]])
        shift = ((ex.parse("x1"), ex.parse("y1^2")),)
        shifted = add_vertical(conn, shift)
        assert ex.is_zero(shifted.gamma[0][0] - ex.parse("y1 + x1"))
        back = add_vertical(shifted, ((ex.parse("-x1"), ex.parse("-y1^2")),))
        for a, b in zip(back.gamma[0], conn.gamma[0]):
            assert ex.is_zero(a - b)

    def test_shape_checked(self):
        conn = _connection(2, 1, [["y1", "0"]])
        with pytest.raises(ChartError):
            add_vertical(conn, ((ex.ONE,),))


class TestIntegralSection:
    def test_exponential_oracle(self):
        # df/dx = f, f(0) = 1 -> f(1) = e
        conn = _connection(1, 1, [["y1"]])
        [[value]] = integral_section(conn, [0.0], [1.0], [[1.0]], steps=1000)
        assert abs(value - math.e) <= 1e-6 * math.e

    def test_two_dimensional_oracle(self):
        # df/dx1 = df/dx2 = f -> f(1,1) = e^2
        conn = _connection(2, 1, [["y1", "y1"]])
        [[value]] = integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]], steps=1000)
        assert abs(value - math.e**2) <= 1e-5 * math.e**2

    def test_path_independence(self):
        # integrable with genuinely coupled coefficients: f = y0 * exp(x1*x2)
        conn = _connection(2, 1, [["x2 * y1", "x1 * y1"]])
        assert is_integrable(conn)
        [[a]] = integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]], order=[0, 1])
        [[b]] = integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]], order=[1, 0])
        assert abs(a - b) <= 1e-8
        assert abs(a - math.e) <= 1e-6 * math.e

    def test_multiple_targets(self):
        conn = _connection(1, 1, [["y1"]])
        values = integral_section(conn, [0.0], [1.0], [[0.5], [1.0]], steps=400)
        assert values[0][0] == pytest.approx(math.exp(0.5), rel=1e-8)
        assert values[1][0] == pytest.approx(math.e, rel=1e-8)

    def test_curved_refused(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        with pytest.raises(NotIntegrableError):
            integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]])

    def test_chart_box_enforced(self):
        chart = BundleChart.standard(1, 1, {"y1": (-2.0, 2.0)})
        conn = EhresmannConnection(chart, ((ex.parse("y1"),),))
        with pytest.raises(OutsideChartError):
            integral_section(conn, [0.0], [1.0], [[3.0]])

    def test_bad_order_rejected(self):
        conn = _connection(2, 1, [["y1", "y1"]])
        with pytest.raises(ChartError):
            integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]], order=[0, 0])

    @pytest.mark.parametrize("steps", [0, -5])
    def test_nonpositive_steps_rejected(self, steps):
        conn = _connection(1, 1, [["y1"]])
        with pytest.raises(ChartError, match="steps must be at least 1"):
            integral_section(conn, [0.0], [1.0], [[1.0]], steps=steps)

    @pytest.mark.parametrize(
        "steps, message",
        [
            (True, "steps: expected a number, got True"),
            (None, "steps: expected a number, got None"),
            (math.nan, "steps must be at least 1 and finite"),
            (math.inf, "steps must be at least 1 and finite"),
        ],
    )
    @pytest.mark.parametrize("target", [[0.0], [1.0]])
    def test_steps_must_be_a_finite_number(self, steps, message, target):
        # refused up front, also where the target is the start and no step runs
        conn = _connection(1, 1, [["y1"]])
        with pytest.raises(ChartError) as caught:
            integral_section(conn, [0.0], [1.0], [target], steps=steps)
        assert str(caught.value) == message

    def test_float_steps_are_a_density(self):
        # 2.5 steps per unit over 2 units: five RK4 steps of 0.4 on f' = f
        conn = _connection(1, 1, [["y1"]])
        [[value]] = integral_section(conn, [0.0], [1.0], [[2.0]], steps=2.5)
        h = 0.4
        assert value == pytest.approx((1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24) ** 5, rel=1e-12)
        [[value]] = integral_section(conn, [0.0], [1.0], [[0.5]], steps=1000.0)
        assert value == pytest.approx(math.exp(0.5), rel=1e-10)

    def test_far_target_rejected(self):
        # 1e308 units at 1000 steps per unit is no finite step count
        conn = _connection(2, 1, [["0", "0"]])
        with pytest.raises(ChartError, match="too far"):
            integral_section(conn, [0.0, 0.0], [1.0], [[1e308, 1.0]])

    def test_backwards_integration(self):
        conn = _connection(1, 1, [["y1"]])
        [[value]] = integral_section(conn, [0.0], [1.0], [[-1.0]], steps=1000)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_sweeps_built_for_moved_axes_only(self, monkeypatch):
        built = []

        def counting(names, bounds, column, axis, exact):
            built.append(axis)
            return sweep(names, bounds, column, axis, exact)

        sweep = cn._sweep
        monkeypatch.setattr(cn, "_sweep", counting)
        conn = _connection(3, 1, [["y1", "y1", "y1"]])
        targets = [[0.0, 0.5, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.0]]
        values = integral_section(conn, [0.0, 0.0, 0.0], [1.0], targets, steps=100)
        assert built == [1, 1]  # only the axis a target moves along, once per target
        assert sweep.cache_info().misses == 1  # compiled once
        assert values[0][0] == pytest.approx(math.exp(0.5), rel=1e-8)
        assert values[2] == [1.0]

    def test_signed_zero_columns_compile_apart(self):
        # Const(0.0) == Const(-0.0), but the two are different literals in a
        # sweep: a cache keyed by == alone would give [[0.0]] the second time
        got = []
        for z in (0.0, -0.0):
            conn = EhresmannConnection(BundleChart.standard(1, 1), ((ex.Const(z),),))
            got.append(integral_section(conn, [0.0], [-0.0], [[1.0]], steps=4, check_integrable=False))
        assert repr(got) == "[[[0.0]], [[-0.0]]]"
        assert cn._sweep.cache_info().misses == 2
