"""Oracles that do not call the code under test.

Numeric results are compared with closed forms computed here with ``math``.
Symbolic results (expression trees returned by the library, or expression
text printed by the CLI) are evaluated by this module's own evaluators and
compared with the construction record from :mod:`gen`.  Every check returns
``None`` when the answer is accepted and a short reason when it is not.
"""

from __future__ import annotations

import math
import random

FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}


def tree_eval(node, env):
    """(value, scale) of a library expression tree, walked by node class
    name; scale is the largest magnitude of any sub-value."""
    kind = type(node).__name__
    if kind == "Const":
        return node.value, abs(node.value)
    if kind == "Var":
        value = float(env[node.name])
        return value, abs(value)
    if kind in ("Sum", "Prod"):
        total, scale = (0.0, 0.0) if kind == "Sum" else (1.0, 0.0)
        for child in (node.terms if kind == "Sum" else node.factors):
            value, s = tree_eval(child, env)
            total = total + value if kind == "Sum" else total * value
            scale = max(scale, s, abs(value))
        return total, max(scale, abs(total))
    if kind == "Pow":
        base, scale = tree_eval(node.base, env)
        value = base ** node.exponent
        return value, max(scale, abs(value))
    if kind == "Neg":
        value, scale = tree_eval(node.arg, env)
        return -value, scale
    if kind == "Call":
        arg, scale = tree_eval(node.arg, env)
        value = FUNCS[node.func](arg)
        return value, max(scale, abs(value))
    raise TypeError(f"unknown node {kind}")


def text_eval(source, env):
    """Value of expression text printed by the CLI, read by Python's own
    parser (``^`` binds like ``**`` in the package grammar)."""
    code = compile(source.replace("^", "**"), "<cli>", "eval")
    return float(eval(code, {"__builtins__": {}, **FUNCS}, dict(env)))


def points(names, count, rng, low=-1.5, high=1.5):
    return [{n: rng.uniform(low, high) for n in names} for _ in range(count)]


def rel_err(got, want):
    """Max-norm relative error of two equally shaped nested sequences."""
    g, w = _flat(got), _flat(want)
    if len(g) != len(w):
        return math.inf
    if not all(math.isfinite(v) for v in g):
        return math.inf
    return max(abs(a - b) for a, b in zip(g, w)) / max(1e-300, max(abs(b) for b in w))


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    return [float(x)]


def check_close(got, want, tol, what):
    err = rel_err(got, want)
    return None if err <= tol else f"{what}: relative error {err:.3g} > {tol:g}"


# ---------------------------------------------------------------------------
# sphere closed forms (Levi-Civita connection of the round metric)


def holonomy_matrix(theta):
    """Transport once around the latitude circle th = theta, in the
    coordinate basis (d/dth, d/dph).  The orthonormal components
    (u_th, sin(theta) u_ph) rotate by the angle a = 2 pi cos(theta)."""
    a = 2.0 * math.pi * math.cos(theta)
    s = math.sin(theta)
    return [[math.cos(a), math.sin(a) * s], [-math.sin(a) / s, math.cos(a)]]


def meridian_transport(a, b, u0):
    """Transport along th = a + b t, t in [0, 1], at fixed ph: u_th is
    constant and u_ph scales by sin(a) / sin(a + b)."""
    return [u0[0], u0[1] * math.sin(a) / math.sin(a + b)]


def metric_norm(theta, u):
    return u[0] ** 2 + math.sin(theta) ** 2 * u[1] ** 2


def check_meridian(a, b, u0, got, tol):
    """Closed form, plus preservation of the metric norm."""
    bad = check_close(got, meridian_transport(a, b, u0), tol, "meridian transport")
    if bad:
        return bad
    before, after = metric_norm(a, u0), metric_norm(a + b, got)
    if abs(after - before) > tol * before:
        return f"metric norm {before!r} -> {after!r}"
    return None


def horizontal_lift(theta, u, v):
    """(v, -Gamma(p) u v) for the sphere Levi-Civita coefficients."""
    s, c = math.sin(theta), math.cos(theta)
    return list(v) + [s * c * u[1] * v[1], -(c / s) * (u[1] * v[0] + u[0] * v[1])]


# ---------------------------------------------------------------------------
# bundle closed forms


def flat_section(phi, kappa, x0, y0, x):
    """Integral section of Gamma = d phi + (y - phi) d kappa through (x0, y0):
    y = phi + (y0 - phi(x0)) exp(kappa - kappa(x0)), per fiber coordinate."""
    return [
        p(*x) + (y0[i] - p(*x0)) * math.exp(k(*x) - k(*x0))
        for i, (p, k) in enumerate(zip(phi, kappa))
    ]


def check_trees(trees, want, names, seed, tol=1e-7, what="expression"):
    """Each library tree matches its closed form (a callable of `names`, or
    None for identically zero; `want` None: all zero) at a few seeded
    points."""
    want = [None] * len(trees) if want is None else want
    if len(want) != len(trees):
        return f"{what}: {len(trees)} entries, expected {len(want)}"
    rng = random.Random(seed)
    for env in points(names, 3, rng):
        args = [env[n] for n in names]
        for index, (tree, fn) in enumerate(zip(trees, want)):
            value, scale = tree_eval(tree, env)
            target = 0.0 if fn is None else fn(*args)
            if not abs(value - target) <= tol * (1.0 + scale + abs(target)):
                return f"{what}[{index}] = {value!r}, expected {target!r} at {env}"
    return None


def check_texts(texts, want, names, seed, tol=1e-7, what="expression"):
    """As check_trees, for expression text printed by the CLI."""
    if len(want) != len(texts):
        return f"{what}: {len(texts)} entries, expected {len(want)}"
    rng = random.Random(seed)
    for env in points(names, 3, rng):
        args = [env[n] for n in names]
        for index, (source, fn) in enumerate(zip(texts, want)):
            value = text_eval(source, env)
            target = 0.0 if fn is None else fn(*args)
            if not abs(value - target) <= tol * (1.0 + abs(value) + abs(target)):
                return f"{what}[{index}] = {value!r}, expected {target!r} at {env}"
    return None
