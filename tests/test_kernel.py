"""The compiled evaluator against the tree walker it replaced.

``compile_exprs`` must return exactly what the walker (``tree_walker``)
returns, or raise the same error, at every point, and the probing scale of
``expr._evaluate_scaled`` must equal the walker's.  Transport, holonomy and
integral sections must equal, bit for bit, the RK4 loops over the walker that
they replaced, whether their loop is compiled by the call or reused from an
earlier one; those loops are kept below as the reference.
"""

import dataclasses
import gc
import math
import random
import weakref

import pytest

from ehresmann import expr as ex
from ehresmann import kernel
from ehresmann.bundle import BundleChart
from ehresmann.connection import EhresmannConnection, integral_section
from ehresmann.errors import DomainError, EvaluationError, OutsideChartError
from ehresmann.expr import compile_exprs
from ehresmann.linear import ManifoldConnection, christoffels, is_linear
from ehresmann.model import load
from ehresmann.multivector import representative, same_class
from ehresmann.transport import Curve, holonomy, horizontal_lift_vector, parallel_transport

import tree_walker

from conftest import (
    LINE,
    PLANE,
    SPHERE,
    TAU,
    random_smooth,
    random_symmetric_manifold_connection,
    sphere_connection,
)

pytestmark = pytest.mark.usefixtures("cold_kernels")  # compile counts are per test


def _outcome(fn):
    """Values as reprs (so -0.0 and nan compare), or the error raised."""
    try:
        return [repr(v) for v in fn()]
    except DomainError as err:
        return (DomainError, str(err))


def _probed(fn):
    """(value, scale) as reprs, or None where probing rejects the point."""
    try:
        return [repr(v) for v in fn()]
    except DomainError:
        return None


def _tree(source):
    """``ex.parse(source)``, except that each 1e400, a literal that parse
    rejects, becomes an infinite constant or exponent; normalize can still
    fold constants into such nodes."""
    big = 1.25e308  # stands in for 1e400 while parsing

    def walk(e):
        if isinstance(e, ex.Const):
            return ex.Const(math.inf) if e.value == big else e
        if isinstance(e, ex.Pow):
            return ex.Pow(walk(e.base), math.inf if e.exponent == big else e.exponent)
        if isinstance(e, ex.Sum):
            return ex.Sum(tuple(map(walk, e.terms)))
        if isinstance(e, ex.Prod):
            return ex.Prod(tuple(map(walk, e.factors)))
        if isinstance(e, (ex.Neg, ex.Call)):
            return dataclasses.replace(e, arg=walk(e.arg))
        return e

    return walk(ex.parse(source.replace("1e400", repr(big))))


def _agree(e, names, points):
    compiled = compile_exprs([e], names)
    scaled = ex._evaluate_scaled(e, names)
    for point in points:
        bindings = dict(zip(names, point))
        tree = _outcome(lambda: [tree_walker.evaluate(e, bindings)])
        assert _outcome(lambda: compiled(*point)) == tree, (ex.to_text(e), point)
        assert _probed(lambda: scaled(bindings)) == _probed(
            lambda: tree_walker.probe_value(e, bindings)
        ), (ex.to_text(e), point)


# --------------------------------------------------------------------------
# compile_exprs


class TestCompileExprs:
    def test_random_smooth_trees(self):
        rng = random.Random(515)
        names = ["x", "y"]
        for _ in range(200):
            e = random_smooth(rng, names)
            points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
            _agree(e, names, points + [(0.0, -0.0), (-0.0, 0.0), (1e300, -1e300)])

    @pytest.mark.parametrize(
        "source",
        [
            "x^0.5", "x^-0.5", "x^1.5", "(x - y)^2.5", "x^-1", "x^-2", "x^0",
            "0^0 + x", "x^400", "x^-400", "log(x)", "log(x * y) + x^0.25",
            "exp(1000 * x)", "sin(x)^2 * cos(y)^-1", "-x * 0", "x * 0 + y * -0",
            "1e400 * x", "1e400 - 1e400 + y", "(x^2 + 1)^0.5 - log(y^2 + 1)",
            "x^1e400", "sin(x * y)", "cos(x * y) - sin(1e400 * x)",
        ],
    )
    def test_domain_edges(self, source):
        values = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 1e300, -1e300]
        points = [(x, y) for x in values for y in values]
        _agree(_tree(source), ["x", "y"], points)

    def test_fractional_overflow_is_domain_error(self):
        e = ex.parse("x^1.5")
        with pytest.raises(DomainError, match="power overflow"):
            tree_walker.evaluate(e, {"x": 1e300})
        with pytest.raises(DomainError, match="power overflow"):
            compile_exprs([e], ["x"])(1e300)
        with pytest.raises(DomainError, match="power overflow"):
            ex.evaluate(e, {"x": 1e300})

    def test_shared_subtrees_and_several_outputs(self):
        exprs = [ex.parse(s) for s in ("cos(th) / sin(th)", "-sin(th) * cos(th)", "th", "2")]
        values = compile_exprs(exprs, ["th"])(0.7)
        assert values == [tree_walker.evaluate(e, {"th": 0.7}) for e in exprs]

    def test_long_sum(self):
        e = ex.Sum(tuple(ex.Prod((ex.Const(k / 7.0), ex.Var("x"))) for k in range(3000)))
        assert compile_exprs([e], ["x"])(0.3) == [tree_walker.evaluate(e, {"x": 0.3})]
        assert ex._evaluate_scaled(e, ["x"])({"x": 0.3}) == tree_walker.probe_value(e, {"x": 0.3})

    def test_scale_line_calls_abs_once(self, monkeypatch):
        # max(map(abs, (top, a0, v0, ...))): one abs call per probe kernel
        bodies = []
        define = kernel.define

        def recording(head, lines, env):
            bodies.append(lines)
            return define(head, lines, env)

        monkeypatch.setattr(kernel, "define", recording)
        e = ex.parse("sin(x) * y - x^2 + 3")
        at = ex._evaluate_scaled(e, ["x", "y"])
        (lines,) = bodies
        # the largest constant first, then every variable and operation but
        # the negation v3, which has its operand's size
        assert lines[-1] == "return v4, max(map(abs, (3.0, a0, v0, a1, v1, v2, v4,)))"
        assert sum(line.count("abs") for line in lines) == 1
        assert at({"x": 0.3, "y": -1.5}) == tree_walker.probe_value(e, {"x": 0.3, "y": -1.5})

    def test_unbound_variable_at_compile_time(self):
        with pytest.raises(EvaluationError):
            compile_exprs([ex.parse("x + y")], ["x"])

    def test_evaluate_takes_any_number_type(self):
        e = ex.parse("x^2 + y")
        assert repr(ex.evaluate(e, {"y": 1, "x": 3})) == repr(tree_walker.evaluate(e, {"y": 1, "x": 3}))

    def test_generate_leaves_no_cycle(self):
        # the source lines and env go when the call returns, not when the
        # cycle collector runs
        tree = ex.parse("sin(x) * x + x^2 - log(x)")
        gc.collect()
        gc.disable()
        try:
            ex._generate([tree], {"x": "a0"}, "v", {})
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("make", [
        lambda: kernel.define("f(a)", ["return a + 1.0"], {}),
        lambda: compile_exprs([ex.parse("sin(x) + log(x)")], ["x"]),
    ], ids=["define", "compile_exprs"])
    def test_defined_function_leaves_no_cycle(self, make):
        # a generated function goes with its last reference, not when the
        # cycle collector runs: its globals do not hold it
        gc.collect()
        gc.disable()
        try:
            f = make()
            ref = weakref.ref(f)
            del f
            assert ref() is None
        finally:
            gc.enable()

    def test_non_float_constants(self):
        # a constant holding another number type is emitted as a float
        # literal, not as that type's repr
        numpy = pytest.importorskip("numpy")
        e = ex.Sum((ex.Prod((ex.Const(numpy.float64(0.1)), ex.Var("x"))), ex.Const(numpy.int64(2))))
        assert compile_exprs([e], ["x"])(0.5) == [tree_walker.evaluate(e, {"x": 0.5})]
        assert ex.is_zero(ex.Sum((e, ex.Neg(e))))

    def test_non_float_constants_in_transport(self):
        numpy = pytest.importorskip("numpy")
        c = ex.Const(numpy.float64(0.1))
        mc = ManifoldConnection(("x1",), (((c,),),))
        curve = Curve(("x1",), (ex.Var("t"),))
        result = parallel_transport(mc, curve, [1.0], 20)
        assert result.vectors == reference_transport(mc, curve, [1.0], 20)[1]


# --------------------------------------------------------------------------
# one try per generated function


class TestOneTry:
    """Each generated function has one ``try``; its handler gives the
    DomainError of the line that raised, with the operand value it had."""

    @pytest.mark.parametrize(
        "e, message",
        [
            (ex.Call("exp", ex.Const(1000.0)), "exp overflow at 1000.0"),
            (ex.Call("sin", ex.Const(math.inf)), "sin of non-finite value inf"),
            (ex.Call("cos", ex.Const(-math.inf)), "cos of non-finite value -inf"),
            (ex.Call("log", ex.Const(-0.0)), "log of non-positive value -0.0"),
            (ex.Call("log", ex.Const(-math.inf)), "log of non-positive value -inf"),
            (ex.Pow(ex.Const(1e300), 2.0), "power overflow"),
        ],
    )
    def test_constant_operands(self, e, message):
        # literal and bound constants, as unnormalized trees hold them
        for fn in (lambda: compile_exprs([e], [])(), lambda: tree_walker.evaluate(e, {})):
            with pytest.raises(DomainError) as caught:
                fn()
            assert str(caught.value) == message

    def test_log_of_nan_is_nan(self):
        assert math.isnan(compile_exprs([ex.parse("log(x)")], ["x"])(math.nan)[0])

    @pytest.mark.parametrize(
        "point, message",
        [
            ((1.0, 1.0), "sin of non-finite value inf"),
            ((1.0, 0.0), "sin of non-finite value inf"),
            ((0.0, 1.0), "exp overflow at 1000.0"),  # sin(inf * 0) is sin(nan): nan
        ],
    )
    def test_first_failing_operation_decides(self, point, message):
        e = _tree("sin(1e400 * x) + exp(1000 * y)")
        got = _outcome(lambda: compile_exprs([e], ["x", "y"])(*point))
        assert got == (DomainError, message)
        assert got == _outcome(lambda: [tree_walker.evaluate(e, dict(zip("xy", point)))])

    def test_untagged_errors_pass_through(self):
        env = {"_sin": math.sin, "_exp": math.exp}
        f = kernel.define("f(a)", [f"b = _sin(a){kernel.TAG}sin at {{a}}", "return _exp(a)"], env)
        with pytest.raises(DomainError, match="^sin at inf$"):
            f(math.inf)
        with pytest.raises(OverflowError) as caught:
            f(1000.0)  # exp overflows on the untagged line
        assert str(caught.value) == "math range error"

    @pytest.mark.parametrize(
        "gamma, component",
        [
            ("log(x1)", "1 - t"),
            ("exp(x1)", "800 * t"),
            ("x1^200", "100 * t"),
            ("sin(1e400 * x1)", "t"),
            ("x1", "log(1 - t)"),
            ("x1", "sin(1e300 * t * 1e300)"),
        ],
    )
    def test_transport_loop(self, gamma, component):
        mc = ManifoldConnection(("x1",), (((_tree(gamma),),),))
        curve = Curve(("x1",), (_tree(component),), (0.0, 2.0))
        text = _domain_error_text(lambda: parallel_transport(mc, curve, [1.0], 10))
        assert text == _first_domain_error(mc, curve, 10)
        assert text == _domain_error_text(lambda: reference_transport(mc, curve, [1.0], 10))

    @pytest.mark.parametrize(
        "gamma, component",
        [
            ("log(x1)", "1 + 2 * sin(t)"),
            ("exp(400 * x1)", "1 + 2 * sin(t)"),
            ("x1^800", "1 + 2 * sin(t)"),
            ("sin(1e400 * (x1 - 1))", "1 + 2 * sin(t)"),
            ("x1", "log(1 + 2 * sin(t))"),
        ],
    )
    def test_holonomy_loop(self, gamma, component):
        mc = ManifoldConnection(("x1",), (((_tree(gamma),),),))
        curve = Curve(("x1",), (_tree(component),), (0.0, TAU))
        text = _domain_error_text(lambda: holonomy(mc, curve, 12))
        assert text == _first_domain_error(mc, curve, 12)
        assert text == _domain_error_text(lambda: reference_holonomy(mc, curve, 12))


def _domain_error_text(fn):
    with pytest.raises(DomainError) as caught:
        fn()
    return str(caught.value)


def _first_domain_error(mc, curve, steps):
    """The message of ``ex.evaluate`` of the first curve component, velocity
    or Gamma entry that raises, at the first of the times at which an RK4
    loop takes the geometry (t0, then t + h/2 and t + h each step)."""
    t0, t1 = curve.domain
    h = (t1 - t0) / steps
    t, times = t0, [t0]
    for _ in range(steps):
        times += [t + h / 2.0, t + h]
        t += h
    entries = [e for plane in mc.gamma for row in plane for e in row]
    for s in times:
        try:
            point = [ex.evaluate(c, {"t": s}) for c in curve.components]
            for c in curve.components:
                ex.evaluate(ex.differentiate(c, "t"), {"t": s})
            for e in entries:
                ex.evaluate(e, dict(zip(mc.coordinate_names, point)))
        except DomainError as err:
            return str(err)
    raise AssertionError("no domain error along the curve")


# --------------------------------------------------------------------------
# reference RK4 loops over the tree walker


def reference_transport(mc, curve, u0, steps):
    names, m = mc.coordinate_names, mc.m
    velocity = [ex.differentiate(c, "t") for c in curve.components]

    def rhs(t, X):
        point = [tree_walker.evaluate(c, {"t": t}) for c in curve.components]
        for name, value in zip(names, point):
            low, high = mc.box.get(name, (-1e18, 1e18))
            if not (low <= value <= high):
                raise OutsideChartError(f"curve leaves the chart box at t={t}")
        sigma_dot = [tree_walker.evaluate(c, {"t": t}) for c in velocity]
        bindings = dict(zip(names, point))
        out = []
        for rho in range(m):
            total = 0.0
            for nu in range(m):
                for mu in range(m):
                    total += (
                        tree_walker.evaluate(mc.gamma[rho][nu][mu], bindings)
                        * X[mu]
                        * sigma_dot[nu]
                    )
            out.append(-total)
        return out

    t0, t1 = curve.domain
    h = (t1 - t0) / steps
    t, X = t0, [float(v) for v in u0]
    times, vectors = [t], [tuple(X)]
    for _ in range(steps):
        k1 = rhs(t, X)
        k2 = rhs(t + h / 2.0, [X[i] + h / 2.0 * k1[i] for i in range(m)])
        k3 = rhs(t + h / 2.0, [X[i] + h / 2.0 * k2[i] for i in range(m)])
        k4 = rhs(t + h, [X[i] + h * k3[i] for i in range(m)])
        X = [X[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(m)]
        t += h
        times.append(t)
        vectors.append(tuple(X))
    return tuple(times), tuple(vectors)


def reference_section(connection, x0, y0, targets, steps):
    chart = connection.chart
    n = chart.n
    results = []
    for target in targets:
        x, fiber = list(map(float, x0)), list(map(float, y0))
        for axis in range(chart.m):
            length = float(target[axis]) - x[axis]
            if length == 0.0:
                continue
            count = max(1, round(abs(length) * steps))
            h = length / count

            def slope(s, f):
                bindings = dict(zip(chart.base_names, x))
                bindings[chart.base_names[axis]] = s
                bindings.update(zip(chart.fiber_names, f))
                for name, value in bindings.items():
                    low, high = chart.bounds(name)
                    if not (low <= value <= high):
                        raise OutsideChartError(f"integration left the chart box at {bindings}")
                gamma = connection.gamma
                return [tree_walker.evaluate(gamma[i][axis], bindings) for i in range(n)]

            s = x[axis]
            for _ in range(count):
                k1 = slope(s, fiber)
                k2 = slope(s + h / 2.0, [fiber[i] + h / 2.0 * k1[i] for i in range(n)])
                k3 = slope(s + h / 2.0, [fiber[i] + h / 2.0 * k2[i] for i in range(n)])
                k4 = slope(s + h, [fiber[i] + h * k3[i] for i in range(n)])
                fiber = [
                    fiber[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                    for i in range(n)
                ]
                s += h
            x[axis] = float(target[axis])
        results.append(fiber)
    return results


def reference_holonomy(mc, curve, steps):
    m = mc.m
    basis = [[1.0 if r == c else 0.0 for r in range(m)] for c in range(m)]
    columns = [reference_transport(mc, curve, e, steps)[1][-1] for e in basis]
    return [[columns[c][r] for c in range(m)] for r in range(m)]


@pytest.fixture(scope="module")
def sphere():
    return load(SPHERE)


LOOPS = {  # closed curves through the random connections' coordinates
    2: ("0.5 * cos(t)", "0.3 * sin(t) - 0.1"),
    3: ("0.5 * cos(t)", "0.5 * sin(t)", "0.2 * sin(2 * t)"),
}


def _same_bits(got, expected):
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got) == repr(expected)


def _error_text(fn):
    with pytest.raises(OutsideChartError) as caught:
        fn()
    return str(caught.value)


class TestAgainstReference:
    def test_holonomy_lat60(self, sphere):
        mc, curve = sphere.manifold_connections["levi_civita"], sphere.curves["lat60"]
        for steps in (500, 499):  # the second call reuses the loop
            columns = [reference_transport(mc, curve, e, steps)[1][-1] for e in ([1, 0], [0, 1])]
            _same_bits(holonomy(mc, curve, steps), [[columns[c][r] for c in range(2)] for r in range(2)])

    @pytest.mark.parametrize("name", ["levi_civita", "twisted"])
    def test_transport_meridian_arc(self, sphere, name):
        mc, curve = sphere.manifold_connections[name], sphere.curves["meridian_arc"]
        for u0, steps in (([0.3, -1.1], 300), ([-2.0, 0.5], 301)):  # cold, then warm
            result = parallel_transport(mc, curve, u0, steps)
            _same_bits((result.times, result.vectors), reference_transport(mc, curve, u0, steps))

    def test_section_plane_flat(self):
        conn = load(PLANE).connections["flat"]
        targets = [[1.0, 1.0], [-0.5, 0.7], [0.0, 0.0]]
        for _ in range(2):  # cold, then warm
            got = integral_section(conn, [0.1, -0.2], [1.0], targets, steps=100)
            _same_bits(got, reference_section(conn, [0.1, -0.2], [1.0], targets, 100))

    def test_section_mixed_coefficients(self):
        chart = BundleChart.standard(2, 2)
        gamma = tuple(
            tuple(ex.parse(s) for s in row)
            for row in (["cos(x1) * y2", "(x2^2 + 1)^0.5"], ["y1 * y2 - x1", "log(y1^2 + 1)"])
        )
        conn = EhresmannConnection(chart, gamma)
        targets = [[0.8, -0.6], [-0.3, 0.4]]
        for steps in (60, 61):  # cold, then warm
            got = integral_section(conn, [0.0, 0.0], [0.5, -0.5], targets, steps, check_integrable=False)
            _same_bits(got, reference_section(conn, [0.0, 0.0], [0.5, -0.5], targets, steps))

    @pytest.mark.parametrize("steps", [1, 2, 37])
    @pytest.mark.parametrize("dim, seed", [(2, 601), (2, 602), (3, 603), (3, 604)])
    def test_random_connection(self, dim, seed, steps):
        mc = random_symmetric_manifold_connection(random.Random(seed), dim)
        curve = Curve(mc.coordinate_names, tuple(map(ex.parse, LOOPS[dim])), (0.0, TAU))
        for u0 in ([0.3, -1.1, 0.7][:dim], [-0.0, 2.0, -0.5][:dim]):  # cold, then warm
            result = parallel_transport(mc, curve, u0, steps)
            _same_bits((result.times, result.vectors), reference_transport(mc, curve, u0, steps))
            _same_bits(holonomy(mc, curve, steps), reference_holonomy(mc, curve, steps))

    @pytest.mark.parametrize("steps", [1, 2, 37])
    def test_zero_coefficients(self, steps):
        zero = ((ex.ZERO, ex.ZERO), (ex.ZERO, ex.ZERO))
        mc = ManifoldConnection(("x1", "x2"), (zero, zero))
        curve = Curve(mc.coordinate_names, tuple(map(ex.parse, LOOPS[2])), (0.0, TAU))
        for u0 in ([0.0, -0.0], [-0.0, 0.0]):  # cold, then warm
            result = parallel_transport(mc, curve, u0, steps)
            _same_bits((result.times, result.vectors), reference_transport(mc, curve, u0, steps))
            _same_bits(holonomy(mc, curve, steps), reference_holonomy(mc, curve, steps))

    def test_transport_leaves_box_at_midpoint(self):
        # th = 3 + 0.3 t is inside th <= 3.13 at t = 0.4 and outside at 0.45
        mc = sphere_connection()
        curve = Curve(("th", "ph"), (ex.parse("3.0 + 0.3 * t"), ex.Var("t")))
        for steps in (10, 20):  # the warm loop reports its own call's t
            text = _error_text(lambda: parallel_transport(mc, curve, [1.0, 0.0], steps))
            assert text == _error_text(lambda: reference_transport(mc, curve, [1.0, 0.0], steps))
            assert 0.4 < float(text.split("t=")[1]) < 0.5

    def test_holonomy_leaves_box_at_midpoint(self):
        # with h = pi/3, th = 3 + 0.14 sin(t) first passes 3.13 at t = pi/2
        mc = sphere_connection()
        curve = Curve(("th", "ph"), (ex.parse("3.0 + 0.14 * sin(t)"), ex.Var("t")),
                      (0.0, TAU), {"ph": TAU})
        text = _error_text(lambda: holonomy(mc, curve, 6))
        assert text == _error_text(lambda: reference_holonomy(mc, curve, 6))
        assert text == f"curve leaves the chart box at t={math.pi / 3 + math.pi / 6}"

    def test_section_permuted_order(self):
        order = (2, 0, 1)
        rng = random.Random(605)
        chart = BundleChart.standard(3, 2)
        gamma = tuple(
            tuple(random_smooth(rng, list(chart.coordinate_names), 3) for _ in range(3))
            for _ in range(2)
        )
        x0, y0 = [0.1, 0.0, -0.1], [0.2, -0.4]
        targets = [[0.4, -0.3, 0.2], [-0.2, 0.1, 0.5], [0.1, 0.6, -0.1]]
        conn = EhresmannConnection(chart, gamma)
        got = integral_section(conn, x0, y0, targets, 40, order, check_integrable=False)
        _same_bits(integral_section(conn, x0, y0, targets, 40, order, check_integrable=False), got)
        # the reference sweeps its axes in ascending order, so relabel the
        # base coordinates: its axis k is this sweep's axis order[k]
        def permute(p):
            return [p[axis] for axis in order]

        relabelled = EhresmannConnection(
            BundleChart(tuple(permute(chart.base_names)), chart.fiber_names),
            tuple(tuple(permute(row)) for row in gamma),
        )
        expected = reference_section(relabelled, permute(x0), y0, list(map(permute, targets)), 40)
        _same_bits(got, expected)
        ascending = integral_section(conn, x0, y0, targets, 40, check_integrable=False)
        assert ascending != got  # curved: the order matters


class TestMovingGeometry:
    """The loop evaluates, at each new time, only the geometry that moves
    with the time: the rest runs once at the start, and the box test keeps
    the moving coordinates.  Terms with a zero velocity component are left
    out, as zero Gamma entries are, and a unit velocity factor is dropped."""

    @pytest.fixture
    def sources(self, monkeypatch):  # the loop source of each compiled RK4 loop
        loops = []
        define = kernel.define

        def recording(head, lines, env):
            if head.startswith("_rk4("):
                loops.append("\n".join(lines).partition("for _ in range(steps):\n")[2])
            return define(head, lines, env)

        monkeypatch.setattr(kernel, "define", recording)
        return loops

    def test_latitude_loop_is_free_of_geometry(self, sphere, sources):
        mc, curve = sphere.manifold_connections["levi_civita"], sphere.curves["lat60"]
        holonomy(mc, curve, 10)
        parallel_transport(mc, curve, [1.0, 0.0], 10)
        assert len(sources) == 2
        for loop in sources:
            assert loop and "_sin(" not in loop and "_cos(" not in loop
            assert "(1.0471975511965976)" not in loop  # the fixed th has no box test
            assert "* (1.0)" not in loop

    def test_meridian_loop_has_no_zero_velocity(self, sphere, sources):
        mc, curve = sphere.manifold_connections["levi_civita"], sphere.curves["meridian_arc"]
        parallel_transport(mc, curve, [1.0, 0.0], 10)
        (loop,) = sources
        assert "* (0.0)" not in loop and "* (0.5)" in loop
        assert "_sin(" in loop  # th moves
        assert "(0.25)" not in loop  # the fixed ph has no box test

    def test_section_loop_has_its_column_and_no_fixed_bound(self, sources):
        # y = exp(x1 * x2), swept along x1 with x2 held fixed as b1
        chart = BundleChart.standard(2, 1, {"x2": (-1.5, 1.5)})
        conn = EhresmannConnection(chart, ((ex.parse("x2 * y1"), ex.parse("x1 * y1")),))
        got = integral_section(conn, [0.0, 0.5], [1.0], [[1.0, 0.5]], steps=10)
        _same_bits(got, reference_section(conn, [0.0, 0.5], [1.0], [[1.0, 0.5]], 10))
        (loop,) = sources
        assert "_column" not in loop and loop.count("* b1 *") == 4  # Gamma in every stage
        assert loop.count("raise _outside(") == 4 and "<= b1 <=" not in loop

    @pytest.mark.parametrize("steps", [1, 2, 37])
    @pytest.mark.parametrize(
        "dim, seed, components",
        [
            (2, 621, ("0.4", "0.5 * sin(t)")),
            (2, 622, ("t", "-0.3")),
            (2, 623, ("0.0", "-0.0")),  # nothing moves: no box test in the loop
            (3, 624, ("0.5 * cos(t)", "-0.2", "0.3 * sin(2 * t)")),
            (3, 625, ("-0.1", "t - 0.5", "0.25")),
        ],
    )
    def test_constant_components(self, dim, seed, components, steps):
        mc = random_symmetric_manifold_connection(random.Random(seed), dim)
        curve = Curve(mc.coordinate_names, tuple(map(ex.parse, components)), (0.0, TAU))
        for u0 in ([0.3, -1.1, 0.7][:dim], [-0.0, 2.0, -0.5][:dim]):  # cold, then warm
            result = parallel_transport(mc, curve, u0, steps)
            _same_bits((result.times, result.vectors), reference_transport(mc, curve, u0, steps))
        closed = dataclasses.replace(curve, periods={mc.coordinate_names[0]: TAU})
        if closed.is_closed():
            _same_bits(holonomy(mc, closed, steps), reference_holonomy(mc, closed, steps))

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (0.5, 1.5)])
    @pytest.mark.parametrize("th", ["3.2", "0.005", "-1.0"])
    def test_constant_component_outside_box(self, th, domain):
        mc = sphere_connection()
        for ph in ("t", "0.3"):
            curve = Curve(("th", "ph"), (ex.parse(th), ex.parse(ph)), domain)
            text = _error_text(lambda: parallel_transport(mc, curve, [1.0, 0.0], 10))
            assert text == _error_text(lambda: reference_transport(mc, curve, [1.0, 0.0], 10))
            assert text == f"curve leaves the chart box at t={domain[0]}"

    @pytest.mark.parametrize("ph", ["0.7", "t"])
    def test_moving_coordinate_leaves_box(self, ph):
        # th = 3 + 0.3 t is inside th <= 3.13 at t = 0.4 and outside at 0.45
        mc = sphere_connection()
        curve = Curve(("th", "ph"), (ex.parse("3.0 + 0.3 * t"), ex.parse(ph)))
        for steps in (10, 20):  # the warm loop reports its own call's t
            text = _error_text(lambda: parallel_transport(mc, curve, [1.0, 0.0], steps))
            assert text == _error_text(lambda: reference_transport(mc, curve, [1.0, 0.0], steps))
            assert 0.4 < float(text.split("t=")[1]) < 0.5

    @pytest.mark.parametrize(
        "gamma, components",
        [
            ("log(x2)", ("t", "-1.0")),  # a fixed entry, out of domain from the start
            ("x1 * log(x2)", ("t", "0.0")),
            ("exp(800 * x2) + x1", ("0.5 * t", "1.0")),
            ("log(x1) + log(x2)", ("t + 1", "-2.0")),  # the fixed x2 fails first
            ("log(x1) + x2", ("1 - 2 * t", "3.0")),  # the moving x1 fails mid-run
            ("x1 * x2", ("t", "log(0.5 - 1.0)")),  # a fixed curve component
        ],
    )
    def test_fixed_domain_errors(self, gamma, components):
        zero = ex.ZERO
        entry = _tree(gamma)
        table = (((entry, zero), (zero, entry)), ((zero, zero), (entry, zero)))
        mc = ManifoldConnection(("x1", "x2"), table)
        curve = Curve(("x1", "x2"), tuple(map(_tree, components)), (0.0, 1.0))
        for steps in (10, 11):  # cold, then warm
            text = _domain_error_text(lambda: parallel_transport(mc, curve, [1.0, 0.5], steps))
            assert text == _first_domain_error(mc, curve, steps)
            assert text == _domain_error_text(lambda: reference_transport(mc, curve, [1.0, 0.5], steps))


def reference_lift(mc, p, u, v):
    bindings = dict(zip(mc.coordinate_names, p))
    vertical = []
    for rho in range(mc.m):
        total = 0.0
        for nu in range(mc.m):
            for mu in range(mc.m):
                total += tree_walker.evaluate(mc.gamma[rho][nu][mu], bindings) * u[mu] * v[nu]
        vertical.append(-total)
    return list(v) + vertical


class TestHorizontalLift:
    @pytest.mark.parametrize("dim, seed", [(2, 611), (3, 612)])
    def test_random_connection(self, dim, seed):
        rng = random.Random(seed)
        mc = random_symmetric_manifold_connection(rng, dim)
        for _ in range(5):
            p, u, v = ([rng.uniform(-1, 1) for _ in range(dim)] for _ in range(3))
            _same_bits(horizontal_lift_vector(mc, p, u, v), reference_lift(mc, p, u, v))

    def test_sphere_with_zero_entries(self):
        mc = sphere_connection()
        for p, u, v in [([1.0, 0.2], [1.0, 0.0], [0.0, 1.0]), ([0.5, 0.0], [-0.0, 2.0], [0.3, -0.0])]:
            _same_bits(horizontal_lift_vector(mc, p, u, v), reference_lift(mc, p, u, v))

    @pytest.fixture
    def kernels(self, monkeypatch):
        count = []
        define = kernel.define

        def counting(*args):
            count.append(1)
            return define(*args)

        monkeypatch.setattr(kernel, "define", counting)
        return count

    def test_one_compile_per_geometry(self, sphere, kernels):
        mc = sphere.manifold_connections["levi_civita"]
        horizontal_lift_vector(mc, [1.0, 0.2], [1.0, 0.0], [0.0, 1.0])
        assert len(kernels) == 1
        for p, u, v in [([0.5, 0.0], [-0.0, 2.0], [0.3, -0.0]), ([2.0, 1.0], [1.0, 1.0], [1.0, 1.0])]:
            _same_bits(horizontal_lift_vector(mc, p, u, v), reference_lift(mc, p, u, v))
        assert len(kernels) == 1
        horizontal_lift_vector(sphere.manifold_connections["twisted"], [1.0, 0.2], [1.0, 0.0], [0.0, 1.0])
        assert len(kernels) == 2

    def test_signed_zero_tables_compile_apart(self, kernels):
        # Const(0.0) == Const(-0.0), but their products differ in sign
        for z in (0.0, -0.0, 0.0, -0.0):
            entry = ex.Prod((ex.Const(z), ex.Var("x1")))
            mc = ManifoldConnection(("x1",), (((entry,),),))
            _same_bits(horizontal_lift_vector(mc, [0.5], [1.0], [1.0]), reference_lift(mc, [0.5], [1.0], [1.0]))
        assert len(kernels) == 2


class TestCompileCounts:
    """Each RK4 loop compiles once per geometry, each probe kernel once per
    tree and names, each other numeric entry point once per call; loading a
    model compiles nothing."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        count = []
        define = ex._define

        def counting(*args):
            count.append(1)
            return define(*args)

        monkeypatch.setattr(ex, "_define", counting)
        return count

    @pytest.fixture
    def kernels(self, monkeypatch):  # every generated function, loops too
        count = []
        define = kernel.define

        def counting(*args):
            count.append(1)
            return define(*args)

        monkeypatch.setattr(kernel, "define", counting)
        return count

    def test_model_load_compiles_nothing(self, compiles):
        for path in (PLANE, SPHERE, LINE):
            load(path)
        assert ex.parse("x^(-0.5) * y^(1/3) * z^(2^-1)") == ex.parse("x^-0.5 * y^0.3333333333333333 * z^0.5")
        assert compiles == []

    def test_one_compile_per_verdict(self, compiles):
        assert ex.is_zero(ex.parse("sin(x)^2 + cos(x)^2 - 1 + x * y - y * x^1.0001"),
                          ex.ProbeConfig(points=5)) is False
        assert len(compiles) == 1
        assert ex.is_zero(ex.parse("sin(x) * cos(y) - cos(y) * sin(x) * (1 + 0 * z)"))
        assert len(compiles) == 1  # structural: nothing to compile
        assert ex.is_zero(ex.parse("log(x^2 + 1) - 2 * log((x^2 + 1)^0.5)"))
        assert len(compiles) == 2

    def test_one_compile_per_class_comparison(self, compiles):
        connections = load(PLANE).connections
        flat, curved = (representative(connections[k]) for k in ("flat", "curved"))
        assert same_class(flat, flat) and not same_class(flat, curved)
        assert len(compiles) == 2


    def test_polynomial_fibers_decide_linearity_structurally(self, kernels):
        # Gamma(x, 0) folds to 0 and every fiber partial is fiber-free
        rows = [["-(sin(x1)*y1 + x2*y2)", "-x1*y2"], ["-y1", "-(x1*x2*y1 + cos(x2)*y2)"]]
        chart = BundleChart.standard(2, 2)
        conn = EhresmannConnection(chart, tuple(tuple(map(ex.parse, row)) for row in rows))
        assert is_linear(conn)
        assert christoffels(conn).gamma[0][0] == (ex.parse("sin(x1)"), ex.ZERO)
        assert kernels == []

    def test_one_compile_per_closure_check(self, compiles):
        assert load(SPHERE).curves["lat60"].is_closed()
        assert len(compiles) == 1

    def test_one_compile_per_geometry(self, kernels):
        sphere = load(SPHERE)  # fresh curves: each keeps its compiled point function
        mc = sphere.manifold_connections["levi_civita"]
        arc, lat60 = sphere.curves["meridian_arc"], sphere.curves["lat60"]
        parallel_transport(mc, arc, [1.0, 1.0], 10)
        assert len(kernels) == 1  # the geometry is in the loop
        parallel_transport(mc, arc, [0.5, -2.0], 20)
        assert len(kernels) == 1  # the vector and the steps are arguments
        holonomy(mc, lat60, 10)
        assert len(kernels) == 3  # the closure check's kernel, then the loop
        holonomy(mc, lat60, 30)
        assert len(kernels) == 3

    def test_new_geometry_compiles_again(self, kernels):
        sphere = load(SPHERE)
        mc = sphere.manifold_connections["levi_civita"]
        arc, lat60 = sphere.curves["meridian_arc"], sphere.curves["lat60"]
        holonomy(mc, lat60, 10)
        assert len(kernels) == 2
        for other, curve in [
            (mc, lat60),  # m values, not the m * m of the holonomy
            (mc, arc),  # another curve
            (dataclasses.replace(mc, box={"th": (0.01, 3.0)}), arc),  # another box
            (sphere.manifold_connections["twisted"], arc),  # another Gamma
        ]:
            parallel_transport(other, curve, [1.0, 0.0], 10)
            parallel_transport(other, curve, [0.0, 1.0], 20)
        assert len(kernels) == 6

    def test_list_tables_and_boxes(self, kernels):
        # lists are accepted wherever tuples are, and key the caches as tuples
        mc = ManifoldConnection(["x1"], [[[ex.parse("0.1 * x1")]]], box={"x1": [-2.0, 2.0]})
        curve = Curve(["x1"], [ex.Var("t")])
        chart = BundleChart(["x1"], ["y1"], {"x1": [-2.0, 2.0]})
        conn = EhresmannConnection(chart, [[ex.parse("y1")]])
        for steps in (10, 11):
            result = parallel_transport(mc, curve, [1.0], steps)
            _same_bits(result.vectors, reference_transport(mc, curve, [1.0], steps)[1])
            got = integral_section(conn, [0.0], [1.0], [[1.0]], steps=steps)
            _same_bits(got, reference_section(conn, [0.0], [1.0], [[1.0]], steps))
        assert len(kernels) == 2  # the loop, then the sweep's loop with its column

    def test_signed_zero_curves_compile_apart(self, kernels):
        # Const(0.0) == Const(-0.0), but the two are different literals in a loop
        mc = random_symmetric_manifold_connection(random.Random(601), 2)
        for z in (0.0, -0.0, 0.0, -0.0):
            curve = Curve(mc.coordinate_names, (ex.Const(z), ex.Var("t")))
            result = parallel_transport(mc, curve, [0.3, -1.1], 5)
            _same_bits((result.times, result.vectors), reference_transport(mc, curve, [0.3, -1.1], 5))
        assert len(kernels) == 2

    # the probe kernel cache: keyed by equality of the tree and the names

    def test_equal_trees_compile_once(self, kernels):
        text = "sin(x) * y - x^2 + 3 * log(y^2 + 1)"
        first, second = ex.parse(text), ex.parse(text)
        assert first is not second and first == second
        ex._evaluate_scaled(first, ["x", "y"])
        ex._evaluate_scaled(second, ["x", "y"])
        assert len(kernels) == 1
        assert ex.is_zero(ex.parse(f"{text} - y"), ex.ProbeConfig(points=3)) is False
        assert ex.is_zero(ex.parse(f"{text} - y"), ex.ProbeConfig(points=5, seed=7)) is False
        assert len(kernels) == 2  # the probe settings are not part of the key

    def test_name_order_keys_apart(self, kernels):
        e = ex.parse("x - 2 * y")
        xy, yx = ex._evaluate_scaled(e, ["x", "y"]), ex._evaluate_scaled(e, ["y", "x"])
        assert len(kernels) == 2
        assert xy({"x": 1.0, "y": 0.25}) == (0.5, 2.0)
        assert yx({"y": 1.0, "x": 0.25}) == (-1.75, 2.0)

    def test_list_and_tuple_names_share_a_kernel(self, kernels):
        e = ex.parse("x * y + 1")
        ex._evaluate_scaled(e, ["x", "y"])
        ex._evaluate_scaled(e, ("x", "y"))
        assert len(kernels) == 1

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zeros_share_a_kernel(self, kernels, first):
        # Const(0.0) == Const(-0.0): one kernel, whose value may differ from
        # a tree's own in the sign of a zero, never in |value|, in the scale
        # or in whether the point is out of domain
        def tree(z):
            zero, x = ex.Const(z), ex.Var("x")
            return ex.Prod((zero, ex.Pow(ex.Sum((zero, x)), 0.5), ex.Call("log", x)))

        trees = [tree(first), tree(-first)]
        for x in (-1.5, 0.25, 2.0):
            for e in trees:
                at = ex._evaluate_scaled(e, ["x"])
                try:
                    expected = tree_walker.probe_value(e, {"x": x})
                except DomainError:
                    with pytest.raises(DomainError):
                        at({"x": x})
                    continue
                value, scale = at({"x": x})
                assert (abs(value), scale) == (abs(expected[0]), expected[1])
        assert len(kernels) == 1
        drawn = [[(abs(v), s) for v, s in ex.probe_values(ex._evaluate_scaled(e, ["x"]), ["x"])]
                 for e in trees]
        assert drawn[0] == drawn[1] and len(kernels) == 1

    def test_probe_cache_bound_is_the_constant(self):
        assert ex._scaled.cache_info().maxsize == kernel.PROBED


class TestHolonomyColumns:
    def test_sphere_columns_are_transports(self, sphere):
        mc, curve = sphere.manifold_connections["levi_civita"], sphere.curves["lat60"]
        matrix = holonomy(mc, curve, 700)
        for k, e in enumerate(([1.0, 0.0], [0.0, 1.0])):
            assert [row[k] for row in matrix] == list(parallel_transport(mc, curve, e, 700).final)

    def test_three_dimensional_columns(self):
        mc = random_symmetric_manifold_connection(random.Random(31), 3)
        curve = Curve(mc.coordinate_names, tuple(
            ex.parse(s) for s in ("0.5 * cos(t)", "0.5 * sin(t)", "0.2 * sin(2 * t)")
        ), (0.0, TAU))
        matrix = holonomy(mc, curve, 200)
        for k in range(3):
            e = [1.0 if i == k else 0.0 for i in range(3)]
            assert [row[k] for row in matrix] == list(parallel_transport(mc, curve, e, 200).final)


class TestChartBoxMidIntegration:
    def test_transport_leaves_box(self):
        # th = 0.5 + 3t starts inside th <= 3.13 and leaves near t = 0.88
        curve = Curve(("th", "ph"), (ex.parse("0.5 + 3 * t"), ex.ZERO))
        with pytest.raises(OutsideChartError, match="t=0.8"):
            parallel_transport(sphere_connection(), curve, [1.0, 0.0], steps=100)

    def test_holonomy_leaves_box(self):
        curve = Curve(("th", "ph"), (ex.parse("1.5 + 2 * sin(t)"), ex.Var("t")),
                      (0.0, TAU), {"ph": TAU})
        with pytest.raises(OutsideChartError):
            holonomy(sphere_connection(), curve, steps=100)

    @pytest.mark.parametrize(
        "box, x0, target",
        [({"y1": (-2.0, 2.0)}, [0.0], [1.0]),  # fiber y = e^x passes 2 near x = 0.69
         ({"x1": (-1.0, 1.0)}, [0.0], [1.5]),  # the sweep itself leaves the base box
         # a fixed base coordinate outside the box, after or before the axis
         ({"x2": (-1.0, 1.0)}, [0.0, 1.5], [1.0, 1.5]),
         ({"x1": (-1.0, 1.0)}, [-1.5, 0.0], [-1.5, 1.0])],
        ids=["box0-target0", "box1-target1", "fixed-after-axis", "fixed-before-axis"],
    )
    def test_section_leaves_box(self, box, x0, target):
        chart = BundleChart.standard(len(x0), 1, box)
        conn = EhresmannConnection(chart, ((ex.parse("y1"),) * len(x0),))
        with pytest.raises(OutsideChartError) as caught:
            integral_section(conn, x0, [1.0], [target], steps=100)
        with pytest.raises(OutsideChartError) as expected:
            reference_section(conn, x0, [1.0], [target], 100)
        assert str(caught.value) == str(expected.value)
