import math
import random
from pathlib import Path

import pytest

from ehresmann import connection, transport
from ehresmann import expr as ex
from ehresmann.bundle import BundleChart
from ehresmann.connection import EhresmannConnection
from ehresmann.linear import ManifoldConnection

import tree_walker

MODELS = Path(__file__).resolve().parent.parent / "models"

TAU = 2.0 * math.pi


@pytest.fixture
def probe():
    return ex.ProbeConfig(seed=99)


@pytest.fixture
def cold_kernels():
    """Empty the caches of compiled RK4 loops and probe kernels, so that what
    a test compiles does not depend on the tests that ran before it."""
    ex._scaled.cache_clear()
    transport._loop.cache_clear()
    transport._lift.cache_clear()
    connection._sweep.cache_clear()


def central_difference(e, name, bindings, h=1e-5):
    up = dict(bindings)
    down = dict(bindings)
    up[name] = bindings[name] + h
    down[name] = bindings[name] - h
    return (tree_walker.evaluate(e, up) - tree_walker.evaluate(e, down)) / (2.0 * h)


def random_polynomial(rng, names, max_terms=4, max_degree=3, coeff_range=3):
    """Random polynomial with small integer coefficients; never singular."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.randint(-coeff_range, coeff_range)
        if coeff == 0:
            coeff = 1
        factors = [ex.Const(float(coeff))]
        for name in names:
            degree = rng.randint(0, max_degree)
            if degree == 1:
                factors.append(ex.Var(name))
            elif degree > 1:
                factors.append(ex.Pow(ex.Var(name), float(degree)))
        terms.append(ex.Prod(tuple(factors)))
    return ex.normalize(ex.Sum(tuple(terms)))


def random_smooth(rng, names, depth=4):
    """Random everywhere-defined expression (no log, tamed exp)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5 and names:
            return ex.Var(rng.choice(names))
        return ex.Const(float(rng.randint(-3, 3)))
    kind = rng.choice(["sum", "prod", "pow", "neg", "sin", "cos", "exp"])
    if kind == "sum":
        return ex.Sum(
            (random_smooth(rng, names, depth - 1), random_smooth(rng, names, depth - 1))
        )
    if kind == "prod":
        return ex.Prod(
            (random_smooth(rng, names, depth - 1), random_smooth(rng, names, depth - 1))
        )
    if kind == "pow":
        return ex.Pow(random_smooth(rng, names, depth - 1), float(rng.randint(2, 3)))
    if kind == "neg":
        return ex.Neg(random_smooth(rng, names, depth - 1))
    if kind == "exp":
        # damp the argument so finite differences stay well conditioned
        return ex.Call("exp", ex.Prod((ex.Const(0.2), random_smooth(rng, names, depth - 1))))
    return ex.Call(kind, random_smooth(rng, names, depth - 1))


def random_connection(rng, m, n, degree=2):
    """Random polynomial-coefficient connection on a standard chart."""
    chart = BundleChart.standard(m, n)
    names = list(chart.coordinate_names)
    gamma = tuple(
        tuple(
            random_polynomial(rng, names, max_terms=3, max_degree=degree)
            for _ in range(m)
        )
        for _ in range(n)
    )
    return EhresmannConnection(chart, gamma)


def random_symmetric_manifold_connection(rng, m, degree=2):
    names = tuple(f"x{k}" for k in range(1, m + 1))
    sym = {}
    for rho in range(m):
        for mu in range(m):
            for nu in range(mu, m):
                sym[(rho, mu, nu)] = random_polynomial(
                    rng, list(names), max_terms=2, max_degree=degree
                )
    gamma = tuple(
        tuple(
            tuple(sym[(rho, min(mu, nu), max(mu, nu))] for nu in range(m))
            for mu in range(m)
        )
        for rho in range(m)
    )
    return ManifoldConnection(names, gamma)


def sphere_connection():
    """Levi-Civita coefficients of the round sphere in (th, ph)."""
    g = ex.parse
    return ManifoldConnection(
        ("th", "ph"),
        (
            ((g("0"), g("0")), (g("0"), g("-sin(th) * cos(th)"))),
            ((g("0"), g("cos(th) / sin(th)")), (g("cos(th) / sin(th)"), g("0"))),
        ),
        box={"th": (0.01, 3.13)},
    )


PLANE = str(MODELS / "plane.yaml")
SPHERE = str(MODELS / "sphere.yaml")
LINE = str(MODELS / "line.yaml")

# one invocation per subcommand (plus extra modes); shared by the CLI tests
# and the determinism acceptance criterion.  (label, argv) pairs; argv gets
# "-o <report path>" appended by the caller.
CLI_CASES = (
    (
        "expr",
        ["expr", "--model", PLANE, "--text", "sin(x1)^2 + cos(x1)^2 - 1",
         "--diff", "x1", "--at", "x1=0.5"],
    ),
    ("prolong", ["prolong", "--model", PLANE, "--section", "exp_sum", "--second"]),
    ("curvature", ["curvature", "--model", PLANE, "--connection", "curved"]),
    ("integrable", ["integrable", "--model", PLANE, "--connection", "flat"]),
    (
        "split-bundle",
        ["split", "--model", PLANE, "--connection", "curved",
         "--vector", "1,x2,y1^2", "--form", "x1,0,1"],
    ),
    (
        "split-tangent",
        ["split", "--model", SPHERE, "--manifold-connection", "levi_civita",
         "--vector", "1,0,v1,v2"],
    ),
    (
        "integral-section",
        ["integral-section", "--model", PLANE, "--connection", "flat",
         "--start", "0,0", "--fiber", "1", "--target", "1,1", "--steps", "200"],
    ),
    (
        "residual-connection",
        ["residual", "--model", PLANE, "--connection", "flat", "--section", "exp_sum"],
    ),
    (
        "residual-jetfield",
        ["residual", "--model", LINE, "--jetfield", "free_fall",
         "--section", "square_half"],
    ),
    ("shift", ["shift", "--model", PLANE, "--connection", "zero", "--by", "y1,x1*y1"]),
    (
        "multivector",
        ["multivector", "--model", PLANE, "--connection", "curved", "--other", "flat"],
    ),
    ("sopde-check", ["sopde-check", "--model", PLANE, "--jetfield", "sopde_flat"]),
    (
        "linear-check",
        ["linear-check", "--model", PLANE, "--connection", "linear",
         "--function", "x1*x2", "--section", "affine"],
    ),
    ("christoffels", ["christoffels", "--model", PLANE, "--connection", "linear"]),
    (
        "covariant-christoffel",
        ["covariant", "--model", PLANE, "--christoffel", "constant",
         "--section", "product", "--field", "1,0"],
    ),
    (
        "covariant-connection",
        ["covariant", "--model", PLANE, "--connection", "quadratic",
         "--section", "affine", "--field", "x2,1"],
    ),
    (
        "covariant-manifold",
        ["covariant", "--model", SPHERE, "--manifold-connection", "levi_civita",
         "--field", "1,0", "--other-field", "0,1", "--point", "1.0,0.5"],
    ),
    ("torsion", ["torsion", "--model", SPHERE, "--manifold-connection", "twisted"]),
    (
        "transport",
        ["transport", "--model", SPHERE, "--manifold-connection", "levi_civita",
         "--curve", "meridian_arc", "--vector", "1,0", "--steps", "500"],
    ),
    (
        "holonomy",
        ["holonomy", "--model", SPHERE, "--manifold-connection", "levi_civita",
         "--curve", "equator", "--steps", "1000"],
    ),
    (
        "lift",
        ["lift", "--model", SPHERE, "--manifold-connection", "levi_civita",
         "--point", "1.0,0.2", "--fiber", "1,0", "--vector", "0,1",
         "--field", "sin(th),0"],
    ),
    (
        "expr-seeded",
        ["expr", "--model", PLANE, "--seed", "7", "--text", "x1 * x2 - 0.25"],
    ),
)

# per subcommand, an invocation naming an unknown model entry (for expr,
# malformed text); every one must take the shared error path
UNKNOWN_ENTRY = {
    "expr": ["--model", PLANE, "--text", "x1 +"],
    "prolong": ["--model", PLANE, "--section", "nope"],
    "curvature": ["--model", PLANE, "--connection", "nope"],
    "integrable": ["--model", PLANE, "--connection", "nope"],
    "split": ["--model", PLANE, "--connection", "nope", "--vector", "1,0,0"],
    "integral-section": ["--model", PLANE, "--connection", "nope", "--start", "0,0",
                         "--fiber", "1", "--target", "1,1"],
    "residual": ["--model", PLANE, "--connection", "flat", "--section", "nope"],
    "shift": ["--model", PLANE, "--connection", "nope", "--by", "1,1"],
    "multivector": ["--model", PLANE, "--connection", "nope"],
    "sopde-check": ["--model", PLANE, "--jetfield", "nope"],
    "linear-check": ["--model", PLANE, "--connection", "nope"],
    "christoffels": ["--model", PLANE, "--connection", "nope"],
    "covariant": ["--model", PLANE, "--christoffel", "nope", "--section", "affine"],
    "torsion": ["--model", SPHERE, "--manifold-connection", "nope"],
    "transport": ["--model", SPHERE, "--manifold-connection", "nope", "--curve", "lat60",
                  "--vector", "1,0"],
    "holonomy": ["--model", SPHERE, "--manifold-connection", "nope", "--curve", "lat60"],
    "lift": ["--model", SPHERE, "--manifold-connection", "nope", "--point", "1,0",
             "--fiber", "1,0", "--vector", "0,1"],
}

# malformed models, each with one defect: mostly a shape defect in the entry
# named "broken", then a table or entry name of the wrong type, a YAML number
# the expression grammar refuses, a YAML value that PyYAML cannot construct,
# an unknown key at the top level, in an entry or in a chart block (the
# dimension aliases m and n among them), and a block that is not a mapping:
# name -> model text; shared by the model tests and the CLI report
_PLANE = "bundle: {base: 2, fiber: 1}\n"
_SURFACE = "manifold: {coords: [a, b]}\n"
BAD_MODELS = {
    "connections-short-row": _PLANE + "connections:\n  broken:\n    gamma:\n      - [\"y1\"]\n",
    "connections-extra-row": _PLANE + "connections: {broken: {gamma: [[y1, x1], [x1, y1]]}}\n",
    "jetfields-G-extra-row": _PLANE + (
        "jetfields: {broken: {F: [[y1_1, y1_2]], G: [[[0, 0], [0, 0], [0, 0]]]}}\n"
    ),
    "christoffels-string-row": _PLANE + "christoffels: {broken: {gamma: [[x1]]}}\n",
    "manifold_connections-scalar": _SURFACE + "manifold_connections: {broken: {gamma: a}}\n",
    "sections-too-deep": _PLANE + "sections: {broken: {components: [[x1]]}}\n",
    "curves-short": _SURFACE + "curves: {broken: {components: [t]}}\n",
    "connections-list": _PLANE + "connections: [1, 2]\n",
    "connections-integer-name": _PLANE + "connections: {1: {gamma: [[y1, x1]]}}\n",
    "connections-bool": _PLANE + "connections: {broken: {gamma: [[true, x1]]}}\n",
    "connections-inf": _PLANE + "connections: {broken: {gamma: [[.inf, x1]]}}\n",
    "connections-huge-integer":
        _PLANE + "connections: {broken: {gamma: [[1%s, x1]]}}\n" % ("0" * 400),
    "bad-date": "bundle: {base: 2024-13-45, fiber: 1}\n",
    "unknown-key": _PLANE + "conections: {c: {gamma: [[y1, x1]]}}\n",
    "curves-unknown-key": _SURFACE + "curves: {c: {components: [t, t], domian: [0, 5]}}\n",
    "connections-unknown-key": _PLANE + "connections: {c: {gamma: [[y1, x1]], gama: 0}}\n",
    "bundle-unknown-key": "bundle: {base: 2, fiber: 1, bxo: {x1: [0, 1]}}\n",
    "manifold-unknown-key": "manifold: {coords: [a, b], boxx: {a: [0, 1]}}\n",
    "bundle-m-n": "bundle: {m: 2, n: 1}\n",
    "bundle-box-list": "bundle: {base: 2, fiber: 1, box: [[0, 1]]}\n",
    "probe-list": _PLANE + "probe: []\n",
    "probe-zero": _PLANE + "probe: 0\n",
    "periods-list": _SURFACE + "curves: {c: {components: [t, t], periods: []}}\n",
}


def latitude_loop(theta):
    from ehresmann.transport import Curve

    return Curve(
        ("th", "ph"),
        (ex.Const(theta), ex.Var("t")),
        (0.0, TAU),
        {"ph": TAU},
    )
