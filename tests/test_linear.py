"""Linear connections: homogeneity, Christoffel symbols, covariant
derivatives, the Leibniz rule and torsion."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ehresmann import expr as ex
from ehresmann.bundle import BundleChart, Section
from ehresmann.connection import EhresmannConnection
from ehresmann.errors import ChartError, NotLinearError
from ehresmann.linear import (
    Christoffel,
    ManifoldConnection,
    christoffels,
    covariant_derivative,
    covariant_differential,
    general_covariant_derivative,
    is_linear,
    is_symmetric,
    leibniz_residual,
    linear_to_ehresmann,
    liouville_field,
    torsion,
)
from ehresmann.linear import _entire_in
from ehresmann.model import load

from conftest import PLANE, random_polynomial, random_symmetric_manifold_connection


def _connection(m, n, rows):
    chart = BundleChart.standard(m, n)
    return EhresmannConnection(chart, tuple(tuple(ex.parse(s) for s in row) for row in rows))


def random_christoffel(rng, m, n):
    chart = BundleChart.standard(m, n)
    base = list(chart.base_names)
    gamma = tuple(
        tuple(
            tuple(random_polynomial(rng, base, 2, 2) for _ in range(m))
            for _ in range(n)
        )
        for _ in range(n)
    )
    return Christoffel(chart, gamma)


class TestLiouville:
    def test_components(self):
        delta = liouville_field(BundleChart.standard(2, 2))
        assert delta.base_components == (ex.ZERO, ex.ZERO)
        assert delta.fiber_components == (ex.Var("y1"), ex.Var("y2"))


class TestIsLinear:
    def test_linear_example(self):
        assert is_linear(_connection(2, 1, [["-2 * y1", "x1 * y1"]]))

    def test_coupled_fibers(self):
        assert is_linear(
            _connection(1, 2, [["y2"], ["x1 * y1 - y2"]])
        )

    def test_quadratic_rejected(self):
        assert not is_linear(_connection(2, 1, [["y1^2", "0"]]))

    def test_affine_rejected(self):
        # constant offset breaks homogeneity
        assert not is_linear(_connection(1, 1, [["y1 + 1"]]))

    def test_zero_is_linear(self):
        assert is_linear(EhresmannConnection.flat(BundleChart.standard(2, 2)))

    @pytest.mark.parametrize(
        "source, linear, entire",
        [
            ("(y1^2)^0.5", False, False),  # |y1|: only t < 0 in the scaling test rejects it
            ("(y1^2 + 1)^0.5 * y1", False, False),
            ("y1^2 * (y1 + 0 * x1)^-1", True, False),
            ("sin(y1)", False, True),
            ("y1 * log(y1^2 + 1)", False, False),
            ("log(x1^2 + 1) * y1", True, True),  # a log of the base alone is entire
        ],
    )
    def test_verdicts(self, source, linear, entire):
        # entire: decided by Gamma(x, 0) = 0 and fiber-free partials; else
        # the scaling test is kept
        conn = _connection(1, 1, [[source]])
        assert _entire_in(conn.gamma[0][0], conn.chart.fiber_names) is entire
        assert is_linear(conn) is linear
        if not linear:
            with pytest.raises(NotLinearError):
                christoffels(conn)

    def test_homogeneous_but_not_linear(self):
        # degree-1 homogeneous for every t, but not of the form -C(x) y
        conn = _connection(1, 2, [["y1^3 / (y1^2 + y2^2)"], ["0"]])
        assert not is_linear(conn)
        with pytest.raises(NotLinearError):
            christoffels(conn)


def _scales(conn):
    """The scaling test: Gamma(x, t y) - t Gamma(x, y) vanishes."""
    t = ex.Var("t")
    scaling = {y: t * ex.Var(y) for y in conn.chart.fiber_names}
    return all(ex.is_zero(ex.substitute(e, scaling) - t * e) for row in conn.gamma for e in row)


_COEFFICIENTS = ("0", "-2", "x1", "sin(x2)", "(x1^2 + 1)^0.5", "log(x2^2 + 2)",
                 "exp(0.3 * x1) - x2", "x1 * x2^-1")


@st.composite
def _fiber_polynomials(draw):
    """Connections on a 2 x n chart with entries sum_j c_j(x) y^j, one of
    them perhaps perturbed by c(x) y_k^2."""
    n = draw(st.integers(1, 2))
    coefficient = st.sampled_from(_COEFFICIENTS)
    rows = [
        [" + ".join(f"({draw(coefficient)}) * y{j}" for j in range(1, n + 1)) for _ in range(2)]
        for _ in range(n)
    ]
    if draw(st.booleans()):
        i, mu, k = draw(st.integers(0, n - 1)), draw(st.integers(0, 1)), draw(st.integers(1, n))
        rows[i][mu] += f" + ({draw(coefficient)}) * y{k}^2"
    return _connection(2, n, rows)


@settings(max_examples=40, deadline=None)
@given(conn=_fiber_polynomials())
def test_agrees_with_the_scaling_test(conn):
    linear = is_linear(conn)
    assert linear == _scales(conn)
    if linear:
        rebuilt = linear_to_ehresmann(christoffels(conn))
        for a, b in zip(conn.gamma, rebuilt.gamma):
            assert all(ex.is_zero(p - q) for p, q in zip(a, b))


class TestChristoffels:
    def test_example_extraction(self):
        conn = _connection(2, 1, [["-2 * y1", "x1 * y1"]])
        symbols = christoffels(conn)
        # Gamma^1_{1 mu} = -dGamma^1_mu/dy1
        assert ex.is_zero(symbols.gamma[0][0][0] - ex.Const(2.0))
        assert ex.is_zero(symbols.gamma[0][0][1] + ex.parse("x1"))

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(5):
            symbols = random_christoffel(rng, rng.randint(1, 3), rng.randint(1, 2))
            conn = linear_to_ehresmann(symbols)
            assert is_linear(conn)
            back = christoffels(conn)
            for p1, p2 in zip(symbols.gamma, back.gamma):
                for r1, r2 in zip(p1, p2):
                    for a, b in zip(r1, r2):
                        assert ex.is_zero(a - b)

    def test_nonlinear_refused(self):
        with pytest.raises(NotLinearError):
            christoffels(_connection(2, 1, [["y1^2", "0"]]))

    def test_symbol_that_only_looks_fiber_dependent(self):
        # -d/dy1 is -(sin(y1)^2 + cos(y1)^2): its fiber partial probes to
        # zero, and its value at y1 = 0 folds to -1
        conn = _connection(2, 1, [["y1 * (sin(y1)^2 + cos(y1)^2)", "0"]])
        assert is_linear(conn)
        assert christoffels(conn).gamma == (((ex.Const(-1.0), ex.ZERO),),)

    @pytest.mark.parametrize(
        "source", ["y1 * log(exp(y1^2 + 1)) * (y1^2 + 1)^-1", "y1 * (y1^2)^0.5 * (y1^2)^-0.5"]
    )
    def test_scaled_symbol_that_only_looks_fiber_dependent(self, source):
        # y1 on the scaling-test path: -d/dy1 is -1 wherever it is defined
        conn = _connection(1, 1, [[source]])
        assert not _entire_in(conn.gamma[0][0], conn.chart.fiber_names)
        assert is_linear(conn)
        assert christoffels(conn).gamma == (((ex.Const(-1.0),),),)

    @pytest.mark.parametrize(
        "source", ["y1 * (y1^4)^0.25 * (y1^2)^-0.5", "y1 * log(y1^4) * log(y1^2)^-1"]
    )
    def test_scaled_symbol_undefined_at_zero(self, source):
        # linear, but -d/dy1 has no value at y1 = 0, so it keeps y1
        conn = _connection(1, 1, [[source]])
        assert is_linear(conn)
        with pytest.raises(ChartError, match=r"uses coordinates \['y1'\] outside"):
            christoffels(conn)

    def test_base_only_enforced(self):
        chart = BundleChart.standard(1, 1)
        with pytest.raises(ChartError):
            Christoffel(chart, (((ex.parse("y1"),),),))


class TestCovariantDerivative:
    def test_flat_reduces_to_directional_derivative(self):
        chart = BundleChart.standard(2, 1)
        symbols = Christoffel(chart, (((ex.ZERO, ex.ZERO),),))
        phi = Section(chart, (ex.parse("x1^2 * x2"),))
        result = covariant_derivative(symbols, (ex.ONE, ex.ZERO), phi)
        assert ex.is_zero(result.components[0] - ex.parse("2 * x1 * x2"))

    def test_differential_contracts_to_derivative(self):
        rng = random.Random(9)
        symbols = random_christoffel(rng, 2, 2)
        chart = symbols.chart
        phi = Section(
            chart,
            tuple(random_polynomial(rng, list(chart.base_names), 2, 2) for _ in range(2)),
        )
        Z = tuple(random_polynomial(rng, list(chart.base_names), 2, 1) for _ in range(2))
        table = covariant_differential(symbols, phi)
        direct = covariant_derivative(symbols, Z, phi)
        for i in range(chart.n):
            contracted = ex.Sum(tuple(Z[mu] * table[mu][i] for mu in range(chart.m)))
            assert ex.is_zero(contracted - direct.components[i])

    def test_general_matches_christoffel_form_when_linear(self):
        rng = random.Random(13)
        symbols = random_christoffel(rng, 2, 2)
        chart = symbols.chart
        conn = linear_to_ehresmann(symbols)
        phi = Section(
            chart,
            tuple(random_polynomial(rng, list(chart.base_names), 2, 2) for _ in range(2)),
        )
        Z = tuple(random_polynomial(rng, list(chart.base_names), 2, 1) for _ in range(2))
        general = general_covariant_derivative(conn, Z, phi)
        classical = covariant_derivative(symbols, Z, phi)
        for a, b in zip(general, classical.components):
            assert ex.is_zero(a - b)

    def test_general_on_nonlinear_connection(self):
        # plane.yaml's quadratic connection: Gamma^1_1 = y1^2, Gamma^1_2 = 0,
        # so nabla_Z phi = Z^1 (d phi/dx1 - phi^2) + Z^2 d phi/dx2
        conn = load(PLANE).connections["quadratic"]
        chart = conn.chart
        base = list(chart.base_names)
        rng = random.Random(21)
        for _ in range(5):
            f = random_polynomial(rng, base, 3, 2)
            Z = tuple(random_polynomial(rng, base, 2, 1) for _ in range(2))
            (got,) = general_covariant_derivative(conn, Z, Section(chart, (f,)))
            want = (
                Z[0] * (ex.differentiate(f, "x1") - f * f)
                + Z[1] * (ex.differentiate(f, "x2") - ex.ZERO)
            )
            assert ex.is_zero(got - want)


class TestLeibniz:
    def test_linear_has_zero_residual(self):
        conn = _connection(2, 1, [["-2 * y1", "x1 * y1"]])
        phi = Section(conn.chart, (ex.parse("x1 + x2^2"),))
        residual = leibniz_residual(
            conn, ex.parse("x1 * x2"), phi, (ex.ONE, ex.parse("x1"))
        )
        assert all(ex.is_zero(r) for r in residual)

    def test_quadratic_has_nonzero_residual(self):
        conn = _connection(2, 1, [["y1^2", "0"]])
        phi = Section(conn.chart, (ex.ONE,))
        residual = leibniz_residual(conn, ex.parse("x1"), phi, (ex.ONE, ex.ZERO))
        # residual component is f - f^2 = x1 - x1^2
        assert not ex.is_zero(residual[0])
        assert ex.is_zero(residual[0] - ex.parse("x1 - x1^2"))

    def test_fiber_dependent_scaling_rejected(self):
        conn = _connection(1, 1, [["y1"]])
        phi = Section(conn.chart, (ex.ONE,))
        with pytest.raises(ChartError):
            leibniz_residual(conn, ex.parse("y1"), phi, (ex.ONE,))


class TestManifoldConnection:
    def test_tangent_chart(self):
        mc = random_symmetric_manifold_connection(random.Random(1), 2)
        chart = mc.tangent_chart()
        assert chart.base_names == ("x1", "x2")
        assert chart.fiber_names == ("v1", "v2")

    def test_to_ehresmann_entry(self):
        # Gamma^1_{1 2} = x1: Ehresmann coefficient Gamma^1_1 = -x1 * v2
        zero = ex.ZERO
        g = ex.parse("x1")
        mc = ManifoldConnection(
            ("x1", "x2"),
            (((zero, g), (zero, zero)), ((zero, zero), (zero, zero))),
        )
        conn = mc.to_ehresmann()
        assert ex.is_zero(conn.gamma[0][0] + ex.parse("x1 * v2"))
        assert is_linear(conn)

    def test_round_trip_through_christoffel(self):
        mc = random_symmetric_manifold_connection(random.Random(2), 3)
        symbols = mc.to_christoffel()
        # direction moves to the last slot: symbols[i][j][mu] = gamma[i][mu][j]
        for i in range(3):
            for j in range(3):
                for mu in range(3):
                    assert symbols.gamma[i][j][mu] == mc.gamma[i][mu][j]

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ChartError):
            ManifoldConnection(("x1",), (((ex.parse("q"),),),))

    def test_box_unknown_coordinate(self):
        with pytest.raises(ChartError, match="unknown coordinate 'x2'"):
            ManifoldConnection(("x1",), (((ex.ZERO,),),), {"x2": (0.0, 1.0)})

    @pytest.mark.parametrize("bounds", [(1.0, -1.0), (0.0, math.nan), (-math.inf, 1.0)])
    def test_box_must_be_finite_interval(self, bounds):
        with pytest.raises(ChartError, match="finite low < high"):
            ManifoldConnection(("x1",), (((ex.ZERO,),),), {"x1": bounds})


class TestTorsion:
    def test_constant_instance(self):
        # Gamma^1_{12} = a, Gamma^1_{21} = b -> T^1_{12} = b - a
        a, b = ex.Const(2.0), ex.Const(5.0)
        zero = ex.ZERO
        mc = ManifoldConnection(
            ("x1", "x2"),
            (((zero, a), (b, zero)), ((zero, zero), (zero, zero))),
        )
        T = torsion(mc)
        assert ex.is_zero(T.coefficient(0, 0, 1) - ex.Const(3.0))
        assert not is_symmetric(mc)

    def test_antisymmetry(self):
        mc = random_symmetric_manifold_connection(random.Random(3), 2)
        shifted = ManifoldConnection(
            mc.coordinate_names,
            tuple(
                tuple(
                    tuple(
                        entry + (ex.parse("x1") if (mu, nu) == (0, 1) else ex.ZERO)
                        for nu, entry in enumerate(row)
                    )
                    for mu, row in enumerate(plane)
                )
                for plane in mc.gamma
            ),
        )
        T = torsion(shifted)
        for mu in range(2):
            for rho in range(2):
                for eta in range(2):
                    assert ex.is_zero(
                        T.coefficient(mu, rho, eta) + T.coefficient(mu, eta, rho)
                    )

    def test_symmetric_is_torsion_free(self):
        rng = random.Random(4)
        for m in (2, 3):
            mc = random_symmetric_manifold_connection(rng, m)
            assert is_symmetric(mc)
            assert all(ex.is_zero(v) for _, _, _, v in torsion(mc).entries())
