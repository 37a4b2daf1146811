"""Parallel transport, holonomy, and lifts on a manifold chart.

The round sphere supplies closed-form oracles: transport around the
latitude circle at colatitude theta rotates the frame by 2*pi*cos(theta),
and the Levi-Civita connection preserves the metric norm.
"""

import csv
import math
import random

import pytest

from ehresmann import expr as ex
from ehresmann.bundle import BundleChart
from ehresmann.connection import integral_section
from ehresmann.errors import ChartError, EhresmannError, OutsideChartError
from ehresmann.linear import ManifoldConnection, is_symmetric
from ehresmann.transport import (
    Curve,
    complete_lift,
    covariant_via_complete_lift,
    holonomy,
    horizontal_lift_vector,
    hv_project_tm,
    parallel_transport,
    rotation_angle,
)

import direct_formulas
from conftest import (
    TAU,
    latitude_loop,
    random_polynomial,
    random_symmetric_manifold_connection,
    sphere_connection,
)


def flat_connection(m=2):
    names = tuple(f"x{k}" for k in range(1, m + 1))
    zero = ex.ZERO
    gamma = tuple(tuple(tuple(zero for _ in range(m)) for _ in range(m)) for _ in range(m))
    return ManifoldConnection(BundleChart.tangent(names), gamma)


class TestCurve:
    def test_point_and_velocity(self):
        curve = Curve(("x1", "x2"), (ex.parse("t^2"), ex.parse("sin(t)")), (0.0, 2.0))
        assert curve.point(1.0) == [1.0, math.sin(1.0)]
        velocity = [ex.evaluate(ex.differentiate(c, "t"), {"t": 1.0}) for c in curve.components]
        assert velocity == pytest.approx([2.0, math.cos(1.0)])

    def test_closure_plain(self):
        curve = Curve(("x1", "x2"), (ex.parse("cos(t)"), ex.parse("sin(t)")), (0.0, TAU))
        assert curve.is_closed()

    def test_closure_modulo_period(self):
        loop = latitude_loop(math.pi / 3)
        assert loop.is_closed()
        # without the declared period the same curve is open
        bare = Curve(loop.coordinate_names, loop.components, loop.domain)
        assert not bare.is_closed()

    def test_open_curve(self):
        curve = Curve(("x1",), (ex.parse("t"),), (0.0, 1.0))
        assert not curve.is_closed()

    @pytest.mark.parametrize("component", ["1e300 * 1e300 * t", "1e300 * 1e300 * (t + 1)"])
    @pytest.mark.parametrize("periods", [{}, {"x1": TAU}])
    def test_closure_refuses_nonfinite_end(self, component, periods):
        # a NaN end (inf * 0 at t = 0) made round() raise ValueError with a
        # period, and counted as closed without one; an infinite end likewise
        curve = Curve(("x1",), (ex.parse(component),), (0.0, 1.0), periods)
        with pytest.raises(ChartError):
            curve.is_closed()

    @pytest.mark.parametrize("component,period", [
        ("1e300 * t", 1e-10),  # gap / period overflowed round() with OverflowError
        ("1e308 * (2 * t - 1)", TAU),  # the difference of the finite ends overflows
    ])
    def test_closure_of_huge_gap_is_a_verdict(self, component, period):
        curve = Curve(("x1",), (ex.parse(component),), (0.0, 1.0), {"x1": period})
        assert curve.is_closed() in (True, False)

    def test_validation(self):
        with pytest.raises(ChartError):
            Curve(("x1", "x2"), (ex.parse("t"),))
        with pytest.raises(ChartError):
            Curve(("x1",), (ex.parse("s"),))
        with pytest.raises(ChartError):
            Curve(("x1",), (ex.parse("t"),), (1.0, 1.0))

    @pytest.mark.parametrize(
        "domain,periods",
        [
            ((0.0, math.inf), {}),
            ((-math.inf, 1.0), {}),
            ((0.0, TAU), {"x2": math.nan}),
            ((0.0, TAU), {"x2": math.inf}),
            ((0.0, TAU), {"x2": 0.0}),
            ((0.0, TAU), {"x2": -TAU}),
            ((0.0, TAU), {"phi": TAU}),
        ],
    )
    def test_refuses_bad_domain_and_periods(self, domain, periods):
        # a NaN period made is_closed raise ValueError from round(), and an
        # infinite one made an open curve count as closed
        with pytest.raises(ChartError):
            Curve(("x1", "x2"), (ex.parse("1"), ex.parse("t")), domain, periods)


class TestParallelTransport:
    def test_flat_transport_is_exact(self):
        curve = Curve(("x1", "x2"), (ex.parse("cos(t)"), ex.parse("sin(t)")), (0.0, TAU))
        result = parallel_transport(flat_connection(), curve, [0.3, -1.2], steps=50)
        assert abs(result.final[0] - 0.3) <= 1e-12
        assert abs(result.final[1] + 1.2) <= 1e-12

    def test_sphere_norm_preserved(self):
        # Levi-Civita transport preserves g = diag(1, sin(th)^2)
        theta = math.pi / 3
        curve = latitude_loop(theta)
        result = parallel_transport(sphere_connection(), curve, [1.0, 0.5], steps=4000)
        s2 = math.sin(theta) ** 2

        def norm(v):
            return v[0] ** 2 + s2 * v[1] ** 2

        assert norm(result.final) == pytest.approx(norm([1.0, 0.5]), rel=1e-6)

    def test_samples_and_csv(self, tmp_path):
        curve = Curve(("x1", "x2"), (ex.parse("t"), ex.parse("t")), (0.0, 1.0))
        result = parallel_transport(flat_connection(), curve, [1.0, 0.0], steps=10)
        assert len(result.times) == 11 == len(result.vectors)
        assert result.step_size == pytest.approx(0.1)
        path = tmp_path / "transport.csv"
        result.write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "X1", "X2"]
        assert len(rows) == 12
        assert float(rows[-1][1]) == pytest.approx(result.final[0])

    def test_box_enforced(self):
        mc = ManifoldConnection(BundleChart.tangent(("x1",), {"x1": (0.0, 0.5)}), (((ex.ZERO,),),))
        curve = Curve(("x1",), (ex.parse("t"),), (0.0, 1.0))
        with pytest.raises(OutsideChartError):
            parallel_transport(mc, curve, [1.0], steps=10)

    def test_input_validation(self):
        curve = Curve(("a", "b"), (ex.parse("t"), ex.ZERO))
        with pytest.raises(ChartError):
            parallel_transport(flat_connection(), curve, [1.0, 0.0])
        good = Curve(("x1", "x2"), (ex.parse("t"), ex.ZERO))
        with pytest.raises(ChartError):
            parallel_transport(flat_connection(), good, [1.0])
        with pytest.raises(ChartError):
            parallel_transport(flat_connection(), good, [1.0, 0.0], steps=0)

    @pytest.mark.parametrize(
        "steps, message",
        [
            (10.5, "steps: expected an integer, got 10.5"),
            (True, "steps: expected a number, got True"),
            (math.inf, "steps: number inf is out of range"),
            (None, "steps: expected a number, got None"),
        ],
    )
    def test_steps_must_be_an_integer(self, steps, message):
        good = Curve(("x1", "x2"), (ex.parse("t"), ex.ZERO))
        loop = Curve(("x1", "x2"), (ex.parse("cos(t)"), ex.parse("sin(t)")), (0.0, TAU))
        for call in (lambda: parallel_transport(flat_connection(), good, [1.0, 0.0], steps),
                     lambda: holonomy(flat_connection(), loop, steps)):
            with pytest.raises(ChartError) as caught:
                call()
            assert str(caught.value) == message

    def test_integral_float_steps(self):
        # as in model files, 2.0 is the integer 2
        good = Curve(("x1", "x2"), (ex.parse("t"), ex.ZERO))
        result = parallel_transport(flat_connection(), good, [1.0, 0.0], 2.0)
        assert result.times == (0.0, 0.5, 1.0)
        assert result.vectors == parallel_transport(flat_connection(), good, [1.0, 0.0], 2).vectors

    @pytest.mark.parametrize("u0", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0]])
    def test_refuses_non_finite_vector(self, u0):
        good = Curve(("x1", "x2"), (ex.parse("t"), ex.ZERO))
        with pytest.raises(ChartError, match="^initial vector must be finite$"):
            parallel_transport(flat_connection(), good, u0, 10)


class TestHolonomy:
    def test_requires_closed_curve(self):
        arc = Curve(("th", "ph"), (ex.parse("1 + t"), ex.ZERO), (0.0, 1.0))
        with pytest.raises(ChartError):
            holonomy(sphere_connection(), arc)

    def test_equator_is_identity(self):
        matrix = holonomy(sphere_connection(), latitude_loop(math.pi / 2), steps=2000)
        for r in range(2):
            for c in range(2):
                expected = 1.0 if r == c else 0.0
                assert abs(matrix[r][c] - expected) <= 1e-6

    def test_latitude_rotation_angle(self):
        # rotation by 2*pi*cos(theta); at theta = pi/3 that is pi
        matrix = holonomy(sphere_connection(), latitude_loop(math.pi / 3), steps=2000)
        angle = rotation_angle(matrix)
        assert abs(abs(angle) - math.pi) <= 1e-6

    def test_flat_holonomy_trivial(self):
        curve = Curve(("x1", "x2"), (ex.parse("cos(t)"), ex.parse("sin(t)")), (0.0, TAU))
        matrix = holonomy(flat_connection(), curve, steps=100)
        assert matrix == [[1.0, 0.0], [0.0, 1.0]]


class TestRotationAngle:
    def test_known_matrix(self):
        a = math.pi / 5
        matrix = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
        assert rotation_angle(matrix) == pytest.approx(a)

    def test_wrong_size(self):
        with pytest.raises(ChartError):
            rotation_angle([[1.0]])


class TestLifts:
    def test_horizontal_lift_projects_back(self):
        mc = random_symmetric_manifold_connection(random.Random(6), 3)
        p, u, v = [0.3, -0.2, 0.7], [1.0, 0.0, 2.0], [0.5, 1.0, -1.0]
        lifted = horizontal_lift_vector(mc, p, u, v)
        assert lifted[:3] == v

    def test_lift_is_horizontal(self):
        # the lifted vector has vanishing vertical part in the splitting
        mc = random_symmetric_manifold_connection(random.Random(7), 2)
        p, u, v = [0.4, -0.9], [1.0, 2.0], [3.0, -1.0]
        lifted = horizontal_lift_vector(mc, p, u, v)
        consts = [ex.Const(c) for c in lifted]
        _, (zeros, vertical) = hv_project_tm(mc, consts[:2], consts[2:])
        bindings = dict(zip(mc.chart.base_names, p))
        bindings.update(zip(mc.chart.fiber_names, u))
        assert zeros == (ex.ZERO, ex.ZERO)
        for comp in vertical:
            assert abs(ex.evaluate(comp, bindings)) <= 1e-12

    def test_flat_lift_is_trivial(self):
        lifted = horizontal_lift_vector(flat_connection(), [0.0, 0.0], [1.0, 1.0], [2.0, 3.0])
        assert lifted == [2.0, 3.0, 0.0, 0.0]

    def test_box_enforced(self):
        with pytest.raises(OutsideChartError):
            horizontal_lift_vector(sphere_connection(), [5.0, 0.0], [1.0, 0.0], [1.0, 0.0])

    def test_lift_and_induced_connection_share_the_box(self):
        # a box-less chart reads the default box of +-10 on both routes
        mc = flat_connection()
        induced = mc.to_ehresmann()
        assert induced.chart == mc.chart
        with pytest.raises(OutsideChartError):
            horizontal_lift_vector(mc, [20.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(OutsideChartError):
            integral_section(induced, [20.0, 0.0], [1.0, 0.0], [[20.0, 1.0]])
        assert horizontal_lift_vector(mc, [5.0, 0.0], [1.0, 0.0], [1.0, 0.0]) == [1.0, 0.0, 0.0, 0.0]
        assert integral_section(induced, [5.0, 0.0], [1.0, 0.0], [[5.0, 1.0]]) == [[1.0, 0.0]]

    @pytest.mark.parametrize(
        "u, v",
        [([math.nan, 0.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, math.inf]), ([-math.inf, 0.0], [math.nan, 1.0])],
    )
    def test_refuses_non_finite_vectors(self, u, v):
        with pytest.raises(ChartError, match="^vectors must be finite$"):
            horizontal_lift_vector(sphere_connection(), [1.0, 0.0], u, v)

    def test_splitting_reassembles(self):
        mc = random_symmetric_manifold_connection(random.Random(8), 2)
        chart = mc.chart
        names = list(chart.coordinate_names)
        rng = random.Random(9)
        base = tuple(random_polynomial(rng, names, 2, 1) for _ in range(2))
        fiber = tuple(random_polynomial(rng, names, 2, 1) for _ in range(2))
        (hb, hf), (vb, vf) = hv_project_tm(mc, base, fiber)
        for a, b in zip(hb, base):
            assert ex.is_zero(a - b)
        assert vb == (ex.ZERO, ex.ZERO)
        for h, v, w in zip(hf, vf, fiber):
            assert ex.is_zero(h + v - w)

    def test_horizontal_part_idempotent(self):
        mc = random_symmetric_manifold_connection(random.Random(10), 2)
        base = (ex.parse("x1"), ex.ONE)
        fiber = (ex.parse("v1 * x2"), ex.ZERO)
        (hb, hf), _ = hv_project_tm(mc, base, fiber)
        (hb2, hf2), (_, vf2) = hv_project_tm(mc, hb, hf)
        for a, b in zip(hf2, hf):
            assert ex.is_zero(a - b)
        assert all(ex.is_zero(c) for c in vf2)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_splitting_matches_explicit_correction(self, m, twisted):
        # the splitting of to_ehresmann() against the explicit correction
        # sum a^nu Gamma^rho_{nu mu} v^mu, with and without torsion
        rng = random.Random(40 + 2 * m + twisted)
        mc = random_symmetric_manifold_connection(rng, m)
        names = list(mc.chart.base_names)
        if twisted:
            gamma = [[list(row) for row in plane] for plane in mc.gamma]
            for rho in range(m):
                gamma[rho][0][1] = gamma[rho][0][1] + random_polynomial(rng, names, 2, 1)
            mc = ManifoldConnection(mc.chart, tuple(
                tuple(tuple(row) for row in plane) for plane in gamma
            ))
        assert is_symmetric(mc) is not twisted
        tangent = list(mc.chart.coordinate_names)
        base = tuple(random_polynomial(rng, tangent, 2, 1) for _ in range(m))
        fiber = tuple(random_polynomial(rng, tangent, 2, 1) for _ in range(m))
        got = hv_project_tm(mc, base, fiber)
        want = direct_formulas.hv_project_tm(mc, base, fiber)
        assert got[0][0] == base and got[1][0] == tuple(ex.ZERO for _ in range(m))
        for got_part, want_part in zip(got, want):
            for a, b in zip(got_part[1], want_part[1]):
                assert ex.is_zero(a - b)

    def test_complete_lift_components(self):
        mc = flat_connection()
        base, fiber = complete_lift(mc, (ex.parse("x2"), ex.parse("-x1")))
        assert base == (ex.parse("x2"), ex.parse("-x1"))
        assert ex.is_zero(fiber[0] - ex.parse("v2"))
        assert ex.is_zero(fiber[1] + ex.parse("v1"))


class TestCovariantViaCompleteLift:
    def test_matches_direct_formula(self):
        rng = random.Random(12)
        mc = random_symmetric_manifold_connection(rng, 2)
        names = list(mc.chart.base_names)
        X = tuple(random_polynomial(rng, names, 2, 2) for _ in range(2))
        Y = tuple(random_polynomial(rng, names, 2, 2) for _ in range(2))
        direct = direct_formulas.covariant_derivative_direct(mc, X, Y)
        for _ in range(5):
            p = [rng.uniform(-1.5, 1.5) for _ in range(2)]
            lifted = covariant_via_complete_lift(mc, X, Y, p)
            bindings = dict(zip(names, p))
            for a, comp in zip(lifted, direct):
                assert a == pytest.approx(ex.evaluate(comp, bindings), abs=1e-9)

    def test_torsion_breaks_the_identity(self):
        # with nonzero torsion the two routes differ by the torsion
        # contraction T(X, Y); the cross-check must refuse
        zero = ex.ZERO
        one = ex.ONE
        mc = ManifoldConnection(
            BundleChart.tangent(("x1", "x2")),
            (((zero, one), (zero, zero)), ((zero, zero), (zero, zero))),
        )
        X = (ex.ONE, ex.ZERO)
        Y = (ex.ZERO, ex.ONE)
        with pytest.raises(EhresmannError):
            covariant_via_complete_lift(mc, X, Y, [0.2, 0.4])

    @pytest.mark.parametrize("th", [3.2, math.nan, 0.0])
    def test_box_enforced(self, th):
        # th in [0.01, 3.13] on the sphere; at th = 0 the coefficients have a pole
        with pytest.raises(OutsideChartError, match=rf"^point outside the chart box: th={th}$"):
            covariant_via_complete_lift(
                sphere_connection(), (ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE), [th, 0.5]
            )

    def test_input_validation(self):
        mc = flat_connection()
        with pytest.raises(ChartError):
            covariant_via_complete_lift(mc, (ex.ONE,), (ex.ONE, ex.ZERO), [0.0, 0.0])
        # the lifted field is a base field: no velocity, no unknown name
        for text in ("v1", "q"):
            with pytest.raises(ChartError, match=r"base vector field component\[1\] uses"):
                complete_lift(mc, (ex.parse(text), ex.ZERO))
