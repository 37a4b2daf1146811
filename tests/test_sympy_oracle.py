"""``differentiate`` and ``normalize`` against sympy, an independent computer
algebra system, compared numerically at points where the package's own
evaluation is defined.  Trees carry fractional exponents and ``log``, whose
domains the package's rules must respect.
"""

import math
import random

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from ehresmann import expr as ex
from ehresmann.errors import DomainError

import tree_walker

sympy = pytest.importorskip("sympy")

_SYMBOLS = {name: sympy.Symbol(name, real=True) for name in ("x", "y")}
_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "log": sympy.log}


def _to_sympy(e):
    if isinstance(e, ex.Const):
        return sympy.Float(e.value)
    if isinstance(e, ex.Var):
        return _SYMBOLS[e.name]
    if isinstance(e, ex.Sum):
        return sympy.Add(*map(_to_sympy, e.terms))
    if isinstance(e, ex.Prod):
        return sympy.Mul(*map(_to_sympy, e.factors))
    if isinstance(e, ex.Pow):
        exponent = e.exponent
        power = sympy.Integer(int(exponent)) if exponent == int(exponent) else sympy.Float(exponent)
        return sympy.Pow(_to_sympy(e.base), power)
    if isinstance(e, ex.Neg):
        return -_to_sympy(e.arg)
    return _FUNCTIONS[e.func](_to_sympy(e.arg))


def _trees():
    return st.recursive(
        st.one_of(
            st.sampled_from([ex.Var("x"), ex.Var("y")]),
            st.sampled_from([1.0, -1.0, 2.0, 0.5, -1.5, 3.0]).map(ex.Const),
        ),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: ex.Sum(p)),
            st.tuples(inner, inner).map(lambda p: ex.Prod(p)),
            inner.map(ex.Neg),
            st.tuples(
                inner, st.sampled_from([0.5, 1.5, -0.5, 1.0 / 3.0, 2.5, 2.0, 3.0, -1.0, 0.0, 1.0])
            ).map(lambda p: ex.Pow(*p)),
            st.tuples(st.sampled_from(["log", "sin", "cos", "exp"]), inner).map(
                lambda p: ex.Call(*p)
            ),
        ),
        max_leaves=8,
    )


def _agrees(value, expected, scale):
    """``expected`` is sympy's real value; ``scale`` bounds the rounding of
    the package's evaluation (max |v| over the nodes it evaluated)."""
    if isinstance(expected, complex):
        return False
    return abs(value - expected) <= 1e-9 * (1.0 + scale + abs(expected))


_X, _Y = ex.Var("x"), ex.Var("y")


@settings(max_examples=100, deadline=None)
@given(e=_trees(), name=st.sampled_from(["x", "y"]), seed=st.integers(0, 2**16))
# both factors of a product depend on x, through a fractional power and log
@example(e=ex.Prod((ex.Pow(_X, 1.5), ex.Call("log", _X + _Y))), name="x", seed=0)
def test_derivative_and_normal_form_match_sympy(e, name, seed):
    normal = ex.normalize(e)
    derivative = ex.differentiate(e, name)
    symbols = list(_SYMBOLS.values())
    source = _to_sympy(e)
    reference = sympy.lambdify(symbols, source, modules="math")
    reference_derivative = sympy.lambdify(
        symbols, sympy.diff(source, _SYMBOLS[name]), modules="math"
    )
    rng = random.Random(seed)
    compared = 0
    for _ in range(20):
        point = {n: rng.uniform(0.1, 2.0) * rng.choice((1.0, -1.0)) for n in _SYMBOLS}
        try:
            tree_walker.evaluate(e, point)
            value, scale = tree_walker.evaluate_scaled(normal, point)
            slope, slope_scale = tree_walker.evaluate_scaled(derivative, point)
        except DomainError:
            continue  # outside the tree's domain: nothing to compare
        args = list(point.values())
        try:
            expected, expected_slope = reference(*args), reference_derivative(*args)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            pytest.fail(f"sympy cannot evaluate {ex.to_text(e)} at {point}: {err}")
        if not (math.isfinite(value) and math.isfinite(slope)):
            continue
        assert _agrees(value, expected, scale), (ex.to_text(normal), point)
        assert _agrees(slope, expected_slope, slope_scale), (ex.to_text(derivative), point)
        compared += 1
    if not compared:
        reject()  # defined nowhere on the sampled points
