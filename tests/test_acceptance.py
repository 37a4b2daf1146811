"""Acceptance suite: twelve end-to-end criteria, one test each.

Every test prints a single ``[PASS]``/``[FAIL]`` line naming the criterion
and its pinned tolerance before asserting, so the verdicts can be read off
the run log; ``pytest -v`` additionally shows one line per criterion via
the test names.
"""

import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner

from ehresmann import expr as ex
from ehresmann.bundle import BundleChart, JetChart, Section
from ehresmann.cli import main as cli_main
from ehresmann.connection import (
    EhresmannConnection,
    OneForm,
    VectorField,
    curvature,
    horizontal_frame,
    integral_section,
    is_integrable,
    split_one_form,
    split_vector_field,
)
from ehresmann.errors import NotLinearError
from ehresmann.jetfield import (
    JetField2,
    as_connection_on_jet,
    is_sopde,
    second_order_residual,
    sopde_integrability_residuals,
)
from ehresmann.linear import (
    Christoffel,
    ManifoldConnection,
    christoffels,
    is_linear,
    is_symmetric,
    leibniz_residual,
    linear_to_ehresmann,
    torsion,
)
from ehresmann.transport import (
    covariant_via_complete_lift,
    holonomy,
    rotation_angle,
)

import direct_formulas
import tree_walker
from conftest import (
    CLI_CASES,
    central_difference,
    latitude_loop,
    random_connection,
    random_polynomial,
    random_smooth,
    random_symmetric_manifold_connection,
    sphere_connection,
)


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def _parse_connection(m, n, rows):
    chart = BundleChart.standard(m, n)
    return EhresmannConnection(
        chart, tuple(tuple(ex.parse(s) for s in row) for row in rows)
    )


def test_criterion_01_representation_round_trip():
    """20 random polynomial connections (m <= 3, n <= 2): horizontal frame
    -> scrambled spanning fields -> reconstructed coefficient table matches
    the original under is_zero."""
    rng = random.Random(101)
    ok = True
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        conn = random_connection(rng, m, n)
        frame = horizontal_frame(conn)
        # scramble the frame by a random invertible constant matrix A:
        # X_mu = A[nu][mu] H_nu spans the same distribution
        while True:
            A = np.array(
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)], float
            )
            if abs(np.linalg.det(A)) >= 1.0:
                break
        spanning = []
        for mu in range(m):
            field = frame[0].scale(A[0][mu])
            for nu in range(1, m):
                field = field + frame[nu].scale(A[nu][mu])
            spanning.append(field)
        # recover Gamma from the span: the base block of the spanning fields
        # is A, so Gamma = (fiber block) A^{-1}
        inv = np.linalg.inv(A)
        for i in range(n):
            for nu in range(m):
                rebuilt = ex.Sum(
                    tuple(
                        spanning[mu].fiber_components[i] * ex.Const(inv[mu][nu])
                        for mu in range(m)
                    )
                )
                if not ex.is_zero(rebuilt - conn.gamma[i][nu]):
                    ok = False
    report(1, "representation round-trip on 20 random connections", ok,
           "probabilistic zero test, tol 1e-9 relative")


def test_criterion_02_projector_laws():
    """50 random instances: splitting is idempotent, semibasic 1-forms are
    fixed, and the two parts re-sum to the input (all under is_zero)."""
    rng = random.Random(202)
    ok = True
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        conn = random_connection(rng, m, n, degree=1)
        chart = conn.chart
        names = list(chart.coordinate_names)
        X = VectorField(
            chart,
            tuple(random_polynomial(rng, names, 2, 1) for _ in range(m)),
            tuple(random_polynomial(rng, names, 2, 1) for _ in range(n)),
        )
        h, v = split_vector_field(conn, X)
        total = h + v
        if not all(ex.is_zero(a - b) for a, b in zip(total.components, X.components)):
            ok = False
        hh, hv = split_vector_field(conn, h)
        if not all(ex.is_zero(a - b) for a, b in zip(hh.components, h.components)):
            ok = False
        if not all(ex.is_zero(c) for c in hv.components):
            ok = False
        alpha = OneForm(
            chart,
            tuple(random_polynomial(rng, names, 2, 1) for _ in range(m)),
            tuple(ex.ZERO for _ in range(n)),
        )
        fixed, rest = split_one_form(conn, alpha)
        if not all(ex.is_zero(a - b) for a, b in zip(fixed.components, alpha.components)):
            ok = False
        if not all(ex.is_zero(c) for c in rest.components):
            ok = False
    report(2, "projector laws on 50 random instances", ok,
           "idempotence, semibasic invariance, resummation")


def test_criterion_03_curvature_iff_integrability():
    """Gamma = (y, x1*y): R^1_12 = y, not integrable.  Gamma = (y, y):
    R = 0 and the integral section from (0,0), y0 = 1 reaches
    f(1,1) = e^2 within 1e-5 relative at 10^3 RK4 steps per unit."""
    curved = _parse_connection(2, 1, [["y1", "x1 * y1"]])
    R = curvature(curved)
    ok = ex.is_zero(R.coefficient(0, 0, 1) - ex.parse("y1"))
    ok = ok and not is_integrable(curved)
    flat = _parse_connection(2, 1, [["y1", "y1"]])
    ok = ok and ex.is_zero(curvature(flat).coefficient(0, 0, 1))
    ok = ok and is_integrable(flat)
    [[value]] = integral_section(flat, [0.0, 0.0], [1.0], [[1.0, 1.0]], steps=1000)
    error = abs(value - math.e**2) / math.e**2
    ok = ok and error <= 1e-5
    report(3, "curvature <-> integrability with e^2 oracle", ok,
           f"relative error {error:.2e}, tol 1e-5")


def test_criterion_04_exponential_oracle():
    """m = n = 1, Gamma = y: f(1) = e within 1e-6 relative at 10^3 steps."""
    conn = _parse_connection(1, 1, [["y1"]])
    [[value]] = integral_section(conn, [0.0], [1.0], [[1.0]], steps=1000)
    error = abs(value - math.e) / math.e
    report(4, "exponential integral-section oracle f(1) = e", error <= 1e-6,
           f"relative error {error:.2e}, tol 1e-6")


def test_criterion_05_path_independence():
    """Integrable 2-base-dimension examples: both coordinate-sweep orderings
    agree at the corner within 1e-8 absolute."""
    ok = True
    worst = 0.0
    for rows in ([["y1", "y1"]], [["x2 * y1", "x1 * y1"]]):
        conn = _parse_connection(2, 1, rows)
        [[a]] = integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]], order=[0, 1])
        [[b]] = integral_section(conn, [0.0, 0.0], [1.0], [[1.0, 1.0]], order=[1, 0])
        worst = max(worst, abs(a - b))
        ok = ok and abs(a - b) <= 1e-8
    report(5, "path independence of integral sections", ok,
           f"worst gap {worst:.2e}, tol 1e-8")


def test_criterion_06_sopde_suite():
    """Second-order condition, symmetry-defect detection, affine solutions
    of G = 0, and a numerically holonomic m = 1 integral section (5-point
    stencil derivative check within 1e-8)."""
    jets = lambda m, n: [[f"y{i}_{mu}" for mu in range(1, m + 1)] for i in range(1, n + 1)]

    def sopde(m, n, G_rows):
        chart = JetChart(BundleChart.standard(m, n))
        F = tuple(tuple(ex.parse(s) for s in row) for row in jets(m, n))
        G = tuple(tuple(tuple(ex.parse(s) for s in row) for row in plane) for plane in G_rows)
        return JetField2(chart, F, G)

    ok = is_sopde(sopde(2, 1, [[["0", "0"], ["0", "0"]]]))
    # G12 = 1, G21 = 0: the symmetry residual must flag it
    asym = sopde(2, 1, [[["0", "1"], ["0", "0"]]])
    residuals = dict(sopde_integrability_residuals(asym))
    ok = ok and not ex.is_zero(residuals["sym[1][2][1]"])
    # G = 0 with an affine section: zero second-order residual
    zero_field = sopde(2, 1, [[["0", "0"], ["0", "0"]]])
    affine = Section(BundleChart.standard(2, 1), (ex.parse("1 + 2 * x1 - x2"),))
    table = second_order_residual(zero_field, affine)
    ok = ok and all(ex.is_zero(v) for plane in table for row in plane for v in row)
    # m = 1 SOPDE (y'' = y'): sampled integral section is holonomic, i.e.
    # the jet component equals the stencil derivative of the fiber component
    field = sopde(1, 1, [[["y1_1"]]])
    conn = as_connection_on_jet(field)
    h = 0.0125
    grid = [k * h for k in range(81)]
    samples = integral_section(
        conn, [0.0], [0.0, 1.0], [[x] for x in grid], steps=2000
    )
    f = [s[0] for s in samples]
    g = [s[1] for s in samples]
    worst = 0.0
    for k in range(2, 79):
        stencil = (-f[k + 2] + 8 * f[k + 1] - 8 * f[k - 1] + f[k - 2]) / (12 * h)
        worst = max(worst, abs(stencil - g[k]))
    ok = ok and worst <= 1e-8
    report(6, "SOPDE suite with holonomic integral section", ok,
           f"stencil defect {worst:.2e}, tol 1e-8")


def test_criterion_07_linearity_equivalences():
    """is_linear, vanishing Leibniz residual, and Christoffel extraction
    agree (all-true or all-false) on 10 random linear and 10 random
    nonlinear connections."""
    rng = random.Random(707)
    ok = True
    for k in range(20):
        linear_case = k < 10
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        chart = BundleChart.standard(m, n)
        base = list(chart.base_names)
        symbols = Christoffel(
            chart,
            tuple(
                tuple(
                    tuple(random_polynomial(rng, base, 2, 1) for _ in range(m))
                    for _ in range(n)
                )
                for _ in range(n)
            ),
        )
        conn = linear_to_ehresmann(symbols)
        mu_bad = rng.randrange(m)
        if not linear_case:
            # break homogeneity with a fiber-quadratic term in one slot
            gamma = [list(row) for row in conn.gamma]
            gamma[0][mu_bad] = gamma[0][mu_bad] + ex.parse("y1^2")
            conn = EhresmannConnection(chart, tuple(tuple(row) for row in gamma))
        verdicts = [is_linear(conn)]
        # Leibniz residual for the family f = x1, phi = ones, Z = e_mu
        phi = Section(chart, tuple(ex.ONE for _ in range(n)))
        Z = tuple(ex.ONE if mu == mu_bad else ex.ZERO for mu in range(m))
        residual = leibniz_residual(conn, ex.parse("x1"), phi, Z)
        verdicts.append(all(ex.is_zero(r) for r in residual))
        try:
            rebuilt = linear_to_ehresmann(christoffels(conn))
            verdicts.append(
                all(
                    ex.is_zero(a - b)
                    for ra, rb in zip(conn.gamma, rebuilt.gamma)
                    for a, b in zip(ra, rb)
                )
            )
        except NotLinearError:
            verdicts.append(False)
        if linear_case:
            ok = ok and all(verdicts)
        else:
            ok = ok and not any(verdicts)
    report(7, "linearity equivalences on 10 linear + 10 nonlinear instances", ok,
           "three characterizations agree")


def test_criterion_08_torsion():
    """Torsion is antisymmetric symbolically; symmetric tables are
    torsion-free; the constant instance with Gamma^1_{12} = a,
    Gamma^1_{21} = b reports T^1_{12} = b - a."""
    rng = random.Random(808)
    ok = True
    # antisymmetry on a random non-symmetric instance
    names = ("x1", "x2")
    gamma = tuple(
        tuple(
            tuple(random_polynomial(rng, list(names), 2, 1) for _ in range(2))
            for _ in range(2)
        )
        for _ in range(2)
    )
    mc = ManifoldConnection(names, gamma)
    T = torsion(mc)
    for mu in range(2):
        for rho in range(2):
            for eta in range(2):
                if not ex.is_zero(T.coefficient(mu, rho, eta) + T.coefficient(mu, eta, rho)):
                    ok = False
    # symmetric instances are torsion-free
    for m in (2, 3):
        sym = random_symmetric_manifold_connection(rng, m)
        ok = ok and is_symmetric(sym)
        ok = ok and all(ex.is_zero(v) for _, _, _, v in torsion(sym).entries())
    # constant (a, b) instance
    a, b = 2.0, 5.0
    zero = ex.ZERO
    mc = ManifoldConnection(
        names,
        (((zero, ex.Const(a)), (ex.Const(b), zero)),
         ((zero, zero), (zero, zero))),
    )
    ok = ok and ex.is_zero(torsion(mc).coefficient(0, 0, 1) - ex.Const(b - a))
    report(8, "torsion antisymmetry, symmetric instances, constant oracle", ok)


def test_criterion_09_sphere_holonomy():
    """Latitude loop theta = pi/3 at 10^4 steps: rotation angle pi within
    1e-3.  Equator loop: identity within 1e-6.  Observed RK4 convergence
    order >= 3.5, measured as the least-squares slope of log2(angle error)
    against log2(steps) over steps in {10^3, 2*10^3, 4*10^3, 8*10^3}."""
    mc = sphere_connection()
    matrix = holonomy(mc, latitude_loop(math.pi / 3), steps=10_000)
    angle_error = abs(abs(rotation_angle(matrix)) - math.pi)
    ok = angle_error <= 1e-3
    eq = holonomy(mc, latitude_loop(math.pi / 2), steps=10_000)
    identity_error = max(
        abs(eq[r][c] - (1.0 if r == c else 0.0)) for r in range(2) for c in range(2)
    )
    ok = ok and identity_error <= 1e-6
    ladder = [1000, 2000, 4000, 8000]
    errors = []
    for steps in ladder:
        m = holonomy(mc, latitude_loop(math.pi / 3), steps=steps)
        errors.append(abs(abs(rotation_angle(m)) - math.pi))
    slope = np.polyfit(np.log2(ladder), np.log2(errors), 1)[0]
    order = -slope
    ok = ok and order >= 3.5
    report(
        9, "sphere holonomy with RK4 convergence", ok,
        f"angle error {angle_error:.2e} (tol 1e-3), identity error "
        f"{identity_error:.2e} (tol 1e-6), observed order {order:.2f} (>= 3.5)",
    )


def test_criterion_10_complete_lift_identity():
    """covariant_via_complete_lift matches the direct covariant-derivative
    formula at 20 random points within 1e-9 on 5 random (torsion-free)
    manifold connections with m <= 3."""
    rng = random.Random(1010)
    ok = True
    worst = 0.0
    for _ in range(5):
        m = rng.randint(2, 3)
        mc = random_symmetric_manifold_connection(rng, m)
        names = list(mc.coordinate_names)
        X = tuple(random_polynomial(rng, names, 2, 2) for _ in range(m))
        Y = tuple(random_polynomial(rng, names, 2, 2) for _ in range(m))
        direct = direct_formulas.covariant_derivative_direct(mc, X, Y)
        for _ in range(20):
            p = [rng.uniform(-1.5, 1.5) for _ in range(m)]
            lifted = covariant_via_complete_lift(mc, X, Y, p)
            bindings = dict(zip(names, p))
            for a, comp in zip(lifted, direct):
                b = tree_walker.evaluate(comp, bindings)
                gap = abs(a - b) / (1.0 + abs(b))
                worst = max(worst, gap)
                ok = ok and gap <= 1e-9
    report(10, "complete-lift covariant derivative identity", ok,
           f"worst relative gap {worst:.2e}, tol 1e-9")


def test_criterion_11_symbolic_derivative_oracle():
    """100 random expressions: symbolic derivative vs central finite
    difference (h = 1e-5) within 1e-6 relative at 10 points each."""
    rng = random.Random(1111)
    names = ["x", "y", "z"]
    ok = True
    worst = 0.0
    produced = 0
    while produced < 100:
        e = random_smooth(rng, names)
        variables = sorted(ex.free_variables(e))
        if not variables:
            continue
        produced += 1
        var = rng.choice(variables)
        derivative = ex.differentiate(e, var)
        for _ in range(10):
            bindings = {n: rng.uniform(-1.0, 1.0) for n in names}
            try:
                symbolic = tree_walker.evaluate(derivative, bindings)
                numeric = central_difference(e, var, bindings)
            except Exception:
                continue
            gap = abs(symbolic - numeric) / (1.0 + abs(symbolic))
            worst = max(worst, gap)
            ok = ok and gap <= 1e-6
    report(11, "symbolic derivative vs finite differences (100 expressions)", ok,
           f"worst relative gap {worst:.2e}, tol 1e-6")


def test_criterion_12_cli_determinism(tmp_path):
    """Fixed seed: two runs of every subcommand on the bundled models write
    byte-identical JSON reports."""
    runner = CliRunner()
    ok = True
    for label, args in CLI_CASES:
        blobs = []
        for attempt in (1, 2):
            out = tmp_path / f"{label}-{attempt}.json"
            result = runner.invoke(cli_main, args + ["-o", str(out)])
            assert result.exit_code in (0, 1), (label, result.output)
            blobs.append(out.read_bytes())
            json.loads(blobs[-1])  # must be valid JSON
        if blobs[0] != blobs[1]:
            ok = False
    report(12, "CLI determinism across every subcommand", ok,
           f"{len(CLI_CASES)} invocations, byte-identical reports")
