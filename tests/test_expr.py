"""Expression core: parsing, printing, evaluation, differentiation,
normalization and the probabilistic zero test.

Derivatives are checked against central finite differences (an independent
numeric oracle); algebraic laws are checked with hypothesis-generated trees.
"""

import copy
import dataclasses
import functools
import math
import operator
import pickle
import random

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from ehresmann import expr as ex
from ehresmann.errors import (
    DomainError,
    EhresmannError,
    EvaluationError,
    ParseError,
    UnprobeableError,
)

import dense_diff
from conftest import central_difference, random_smooth


# --------------------------------------------------------------------------
# parsing


class TestParse:
    def test_numbers(self):
        assert ex.parse("3") == ex.Const(3.0)
        assert ex.parse("2.5") == ex.Const(2.5)
        assert ex.parse("1e3") == ex.Const(1000.0)
        assert ex.parse("1.5e-2") == ex.Const(0.015)

    def test_leaves_shared_within_a_parse(self):
        e = ex.parse("x*x + 2*x + 2")
        leaves = [node for node in _subtrees(e) if isinstance(node, (ex.Const, ex.Var))]
        assert len(leaves) == 5 and len(set(map(id, leaves))) == 2
        squared, doubled = ex.Prod((ex.Var("x"), ex.Var("x"))), ex.Prod((ex.Const(2.0), ex.Var("x")))
        apart = ex.Sum((squared, doubled, ex.Const(2.0)))
        assert repr(e) == repr(apart)
        assert ex.to_text(e) == "x * x + 2 * x + 2"

    def test_variables_and_functions(self):
        assert ex.parse("x1") == ex.Var("x1")
        assert ex.parse("sin(x)") == ex.Call("sin", ex.Var("x"))
        assert ex.parse("y1_2") == ex.Var("y1_2")

    def test_precedence(self):
        # 1 + 2 * 3 = 7, not 9
        assert ex.evaluate(ex.parse("1 + 2 * 3"), {}) == 7.0
        # -2^2 = -(2^2) = -4: unary minus binds looser than power
        assert ex.evaluate(ex.parse("-2^2"), {}) == -4.0
        # 2 * 3 ^ 2 = 18
        assert ex.evaluate(ex.parse("2 * 3^2"), {}) == 18.0
        # left-assoc division: 8 / 4 / 2 = 1
        assert ex.evaluate(ex.parse("8 / 4 / 2"), {}) == 1.0
        # subtraction is left-assoc: 5 - 2 - 1 = 2
        assert ex.evaluate(ex.parse("5 - 2 - 1"), {}) == 2.0

    def test_parens_and_unary(self):
        assert ex.evaluate(ex.parse("(1 + 2) * 3"), {}) == 9.0
        assert ex.evaluate(ex.parse("--3"), {}) == 3.0
        assert ex.evaluate(ex.parse("+5"), {}) == 5.0

    def test_chains_parse_flat(self):
        # one n-ary node per +/- chain and per * / chain, so a long chain
        # nests no deeper than one of its terms
        a, b, c = ex.Var("a"), ex.Var("b"), ex.Var("c")
        assert ex.parse("a + b - c") == ex.Sum((a, b, ex.Neg(c)))
        assert ex.parse("a * b / c") == ex.Prod((a, b, ex.Pow(c, -1.0)))
        assert ex.parse("a - b * c") == ex.Sum((a, ex.Neg(ex.Prod((b, c)))))
        assert ex.to_text(ex.parse("a + b - c")) == "a + b - c"
        long_sum = ex.parse(" + ".join(["x1"] * 5000))
        assert ex.normalize(long_sum) == ex.normalize(ex.parse("5000 * x1"))
        long_product = ex.parse(" * ".join(["x1"] * 5000))
        assert ex.normalize(long_product) == ex.Pow(ex.Var("x1"), 5000.0)

    def test_numeric_exponent_expression(self):
        # exponents may be numeric expressions, folded at parse time
        assert ex.parse("x^(1+1)") == ex.Pow(ex.Var("x"), 2.0)
        assert ex.parse("x^(-(1/3))") == ex.Pow(ex.Var("x"), -(1.0 / 3.0))
        with pytest.raises(DomainError, match="zero raised to a negative power"):
            ex.parse("x^(1/0)")
        with pytest.raises(DomainError, match="log of non-positive value"):
            ex.parse("x^log(-1)")

    def test_error_offsets(self):
        with pytest.raises(ParseError) as info:
            ex.parse("1 + @")
        assert info.value.offset == 4
        with pytest.raises(ParseError) as info:
            ex.parse("sin(x")
        assert "expected )" in str(info.value)
        with pytest.raises(ParseError):
            ex.parse("")
        with pytest.raises(ParseError) as info:
            ex.parse("foo(x)")
        assert "unknown function" in str(info.value)
        with pytest.raises(ParseError) as info:
            ex.parse("x^y")
        assert "exponent must be numeric" in str(info.value)
        with pytest.raises(ParseError) as info:
            ex.parse("1 2")
        assert info.value.offset == 2
        with pytest.raises(ParseError) as info:
            ex.parse("x + 1e400")
        assert info.value.offset == 4 and "out of range" in str(info.value)
        with pytest.raises(ParseError) as info:
            ex.parse("x^(1e300 * 1e300)")
        assert "exponent must be finite" in str(info.value)
        # constant folding can still overflow; printing it is a DomainError
        with pytest.raises(DomainError, match="non-finite"):
            ex.to_text(ex.normalize(ex.parse("1e300 * 1e300 * x")))


class TestPrint:
    @pytest.mark.parametrize(
        "source",
        [
            "x1 + x2 * y1",
            "(x1 + x2) * y1",
            "-x1^2",
            "(-x1)^2",
            "sin(x1 + cos(x2))",
            "x1 / x2",
            "2 * x1 - 3 * (x2 - y1)",
            "exp(-x1) * log(x2 + 4)",
            "x1^-2",
        ],
    )
    def test_round_trip_value(self, source):
        e = ex.parse(source)
        reparsed = ex.parse(ex.to_text(e))
        bindings = {"x1": 0.7, "x2": 1.3, "y1": -0.4}
        assert ex.evaluate(reparsed, bindings) == pytest.approx(
            ex.evaluate(e, bindings), abs=0.0
        )

    def test_deterministic(self):
        e = ex.parse("x1 * x2 + sin(x1)")
        assert ex.to_text(e) == ex.to_text(ex.parse(ex.to_text(e)))


# --------------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_elementary(self):
        assert ex.evaluate(ex.parse("sin(0)"), {}) == 0.0
        assert ex.evaluate(ex.parse("exp(1)"), {}) == pytest.approx(math.e)
        assert ex.evaluate(ex.parse("log(exp(2))"), {}) == pytest.approx(2.0)

    def test_integer_zero_power(self):
        assert ex.evaluate(ex.Pow(ex.Var("x"), 0.0), {"x": 0.0}) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("log(x)"), {"x": -1.0})
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("1 / x"), {"x": 0.0})
        with pytest.raises(DomainError):
            ex.evaluate(ex.Pow(ex.Var("x"), 0.5), {"x": -1.0})

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            ex.evaluate(ex.parse("x + y"), {"x": 1.0})

    def test_free_variables(self):
        assert ex.free_variables(ex.parse("x1 * sin(y2) + 3")) == frozenset(
            {"x1", "y2"}
        )
        assert ex.free_variables(ex.parse("4 + 5")) == frozenset()


# --------------------------------------------------------------------------
# differentiation


class TestDifferentiate:
    @pytest.mark.parametrize(
        "source,var,expected",
        [
            ("x^3", "x", "3 * x^2"),
            ("sin(x^2)", "x", "2 * x * cos(x^2)"),
            ("exp(2 * x)", "x", "2 * exp(2 * x)"),
            ("log(x)", "x", "x^-1"),
            ("x * y", "y", "x"),
            ("cos(x)", "x", "-sin(x)"),
            ("x / y", "x", "1 / y"),
            ("5", "x", "0"),
        ],
    )
    def test_closed_forms(self, source, var, expected):
        derivative = ex.differentiate(ex.parse(source), var)
        assert ex.is_zero(derivative - ex.parse(expected))

    def test_finite_difference_oracle(self):
        rng = random.Random(4242)
        names = ["x", "y", "z"]
        checked = 0
        for _ in range(100):
            e = random_smooth(rng, names)
            variables = sorted(ex.free_variables(e))
            if not variables:
                continue
            var = rng.choice(variables)
            derivative = ex.differentiate(e, var)
            for _ in range(10):
                bindings = {n: rng.uniform(-1.0, 1.0) for n in names}
                try:
                    symbolic = ex.evaluate(derivative, bindings)
                    numeric = central_difference(e, var, bindings)
                except DomainError:
                    continue
                assert abs(symbolic - numeric) <= 1e-6 * (1.0 + abs(symbolic)), (
                    f"{ex.to_text(e)} d/d{var} at {bindings}"
                )
                checked += 1
        assert checked > 300  # the oracle must actually have run

    def test_overflowing_constant_differentiates_to_zero(self):
        # the product rule builds no term for a constant factor, so no
        # inf * 0 = nan is folded: the derivative is 0 whatever the order
        for source in ("1e300 * 1e300 * x2", "x2 * 1e300 * 1e300"):
            e = ex.parse(source)
            assert ex.differentiate(e, "x1") is ex.ZERO
            assert ex.differentiate(ex.normalize(e), "x1") is ex.ZERO


# --------------------------------------------------------------------------
# substitution and normalization


class TestSubstituteNormalize:
    def test_substitute(self):
        e = ex.parse("x^2 + y")
        result = ex.substitute(e, {"x": ex.parse("u + 1"), "y": 3})
        assert ex.evaluate(result, {"u": 2.0}) == 12.0

    def test_substitute_leaves_others(self):
        e = ex.parse("sin(x) * z")
        result = ex.substitute(e, {"x": ex.ZERO})
        assert ex.free_variables(result) == frozenset({"z"})

    def test_substitute_keeps_untouched_subtrees(self):
        # with the normal forms remembered on them
        e = ex.parse("sin(x) * z + y^2")
        result = ex.substitute(e, {"y": ex.ZERO})
        assert result.terms[0] is e.terms[0]
        assert result.terms[1] == ex.Pow(ex.ZERO, 2.0)
        assert ex.substitute(e, {"w": ex.ONE}) is e

    @pytest.mark.parametrize(
        "source",
        ["x - x", "0 * sin(x)", "x * y - y * x", "(x + y) - x - y", "2 * x - x - x"],
    )
    def test_obvious_zeros_become_literal(self, source):
        assert ex.normalize(ex.parse(source)) == ex.ZERO

    def test_repeated_factors_merge(self):
        assert ex.normalize(ex.parse("x * x")) == ex.Pow(ex.Var("x"), 2.0)
        assert ex.normalize(ex.parse("x^2 * x^-2")) == ex.ONE

    def test_constant_folding(self):
        assert ex.normalize(ex.parse("2 + 3 * 4")) == ex.Const(14.0)
        assert ex.normalize(ex.parse("cos(0)")) == ex.ONE

    @pytest.mark.parametrize(
        "source", ["(x^2)^0.5", "(x^2)^1.5", "(x^-2)^0.5", "((x^2)^0.5)^3", "(x^3)^(1/3)"]
    )
    def test_power_of_power_keeps_value(self, source):
        e = ex.parse(source)
        n = ex.normalize(e)
        for x in (-1.5, -0.5, 0.5, 1.5):
            try:
                expected = ex.evaluate(e, {"x": x})
            except DomainError:
                continue
            assert ex.evaluate(n, {"x": x}) == pytest.approx(expected, rel=1e-12)

    def test_normal_form_is_remembered_but_invisible(self):
        # and so is the hash that a compound node keeps
        e = ex.parse("x * y + sin(x)^2 - 3")
        before = repr(e), hash(e)
        n = ex.normalize(e)
        assert ex.normalize(e) is n and ex.normalize(n) is n
        assert (repr(e), hash(e)) == before
        assert [f.name for f in dataclasses.fields(e)] == ["terms"]
        for copied in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert copied == e
            assert not hasattr(copied, "_normal") and not hasattr(copied, "_hash")
        # the dataclass hash of the fields, whichever node was hashed first
        x, y = ex.Var("x"), ex.Var("y")
        apart = ex.Sum((ex.Prod((x, y)), ex.Pow(ex.Call("sin", x), 2.0), ex.Neg(ex.Const(3.0))))
        assert hash(apart.terms[1]) == hash((apart.terms[1].base, 2.0))
        assert hash(apart) == hash(e) == hash((e.terms,))
        assert hash(ex.Neg(ex.Const(-0.0))) == hash(ex.Neg(ex.ZERO))
        for leaf in (x, ex.Const(-0.0)):
            hash(leaf)
            with pytest.raises(AttributeError):
                object.__setattr__(leaf, "_hash", 0)

    def test_derivative_is_remembered_but_invisible(self):
        e = ex.parse("x * y + sin(x)^2 - 3")
        before = repr(e), hash(e)
        d = ex.differentiate(e, "x")
        assert ex.differentiate(e, "x") is d and ex.differentiate(e, "y") is not d
        assert ex.differentiate(e, "z") is ex.ZERO
        assert (repr(e), hash(e)) == before and e == ex.parse("x * y + sin(x)^2 - 3")
        assert [f.name for f in dataclasses.fields(e)] == ["terms"]
        for copied in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert copied == e and not hasattr(copied, "_derivs")
            assert ex.differentiate(copied, "x") is not d and repr(ex.differentiate(copied, "x")) == repr(d)
        for leaf in (ex.Var("x"), ex.Const(-0.0)):
            assert ex.differentiate(leaf, "x") is (ex.ONE if leaf == ex.Var("x") else ex.ZERO)
            with pytest.raises(AttributeError):
                object.__setattr__(leaf, "_derivs", {})

    def test_derivative_is_keyed_by_the_node(self):
        # equal trees built apart, one holding -0.0: log(-0.0) is kept
        # symbolic, so the sign of the zero survives into the derivative
        plus, minus = (ex.Prod((ex.Var("x"), ex.Call("log", ex.Const(z)))) for z in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        for pair in ((plus, minus), (minus, plus)):
            trees = [_copy(e) for e in pair]
            for e in trees + trees:
                assert math.copysign(1.0, ex.differentiate(e, "x").arg.value) == math.copysign(
                    1.0, e.factors[1].arg.value
                )

    def test_remembered_derivative_equals_dense(self):
        rng = random.Random(2323)
        for _ in range(60):
            e = random_smooth(rng, ["x", "y"])
            dense = {name: repr(ex.normalize(dense_diff.diff(_copy(e), name))) for name in "xy"}
            for order in ("xyxy", "yxyx"):
                tree = _copy(e)
                got = {}
                for name in order:
                    d = ex.differentiate(tree, name)
                    assert repr(d) == dense[name]
                    assert got.setdefault(name, d) is d

    def test_normalize_preserves_value(self):
        rng = random.Random(7)
        for _ in range(50):
            e = random_smooth(rng, ["x", "y"])
            n = ex.normalize(e)
            bindings = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
            try:
                a = ex.evaluate(e, bindings)
            except DomainError:
                continue
            assert ex.evaluate(n, bindings) == pytest.approx(a, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# zero testing


class TestIsZero:
    def test_pythagorean_identity(self):
        assert ex.is_zero(ex.parse("sin(x)^2 + cos(x)^2 - 1"))

    def test_log_exp_identity(self):
        assert ex.is_zero(ex.parse("log(exp(x)) - x"))

    def test_nonzero_detected(self):
        assert not ex.is_zero(ex.parse("x^2 - y"))
        assert not ex.is_zero(ex.parse("0.001 * x"))

    def test_even_power_root_is_not_identity(self):
        # (x^2)^0.5 is |x|; it used to be merged into x
        assert not ex.is_zero(ex.parse("(x^2)^0.5 - x"))
        assert ex.is_zero(ex.parse("(x^2)^0.5 - (x^4)^0.25"))

    def test_nonfinite_is_not_zero(self):
        # overflows to inf wherever |x| > ~0.18; finite elsewhere
        assert not ex.is_zero(ex.parse("x^400 * 10^300"))
        with pytest.raises(UnprobeableError):
            ex.is_zero(ex.parse("10^300 * (x^2 + 2)^200"))

    def test_constant_tolerance(self):
        probe = ex.ProbeConfig(tol=1e-9)
        assert ex.is_zero(ex.Const(1e-12), probe)
        assert not ex.is_zero(ex.Const(1e-6), probe)

    def test_deterministic_given_seed(self):
        e = ex.parse("x * y - 0.5")
        assert ex.is_zero(e, ex.ProbeConfig(seed=1)) == ex.is_zero(
            e, ex.ProbeConfig(seed=1)
        )

    def test_unprobeable(self):
        # domain is empty: log of a strictly negative quantity
        with pytest.raises(UnprobeableError):
            ex.is_zero(ex.parse("log(-1 - x^2)"))


class TestAllZero:
    def test_stops_at_first_nonzero(self):
        table = [ex.parse("x - x"), ex.parse("x^2 - y"), ex.parse("log(-1 - x^2)")]
        consumed = []

        def entries():
            for e in table:
                consumed.append(e)
                yield e

        # the unprobeable last entry is never reached
        assert not ex.all_zero(entries())
        assert consumed == table[:2]

    def test_empty_table_vanishes(self):
        assert ex.all_zero([])
        assert ex.all_zero(iter(()))

    def test_matches_is_zero_per_entry(self):
        rng = random.Random(5)
        identity = ex.parse("sin(x)^2 + cos(x)^2 - 1")
        verdicts = set()
        for _ in range(40):
            table = [random_smooth(rng, ["x", "y"]) for _ in range(rng.randint(0, 3))]
            table = [e if rng.random() < 0.3 else identity * e for e in table]
            for seed in (0, 1, 7):
                probe = ex.ProbeConfig(seed=seed)
                verdict = ex.all_zero(table, probe)
                assert verdict == all(ex.is_zero(e, probe) for e in table)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_one_is_zero_call_per_entry_decided(self, monkeypatch):
        seen = []
        is_zero = ex.is_zero
        monkeypatch.setattr(ex, "is_zero", lambda e, probe: seen.append(e) or is_zero(e, probe))
        table = [ex.parse("x - x"), ex.parse("sin(x)^2 + cos(x)^2 - 1"), ex.parse("y"),
                 ex.parse("x")]
        assert not ex.all_zero(table)
        assert seen == table[:3]


class TestProbeValues:
    def test_seeded_lazy_draws(self):
        probe = ex.ProbeConfig(points=4, seed=3)
        rng = probe.rng()
        expected = [
            {name: rng.uniform(probe.low, probe.high) for name in ("y", "x")}
            for _ in range(4)
        ]
        values = ex.probe_values(dict, ("y", "x"), probe)
        assert next(values) == expected[0]
        assert list(values) == expected[1:]

    def test_out_of_domain_point_is_redrawn(self):
        calls = []

        def at(bindings):
            calls.append(bindings)
            if len(calls) == 2:
                raise DomainError("out of domain")
            return bindings

        values = list(ex.probe_values(at, ["x"], ex.ProbeConfig(points=3)))
        assert len(calls) == 4
        assert values == [calls[0], calls[2], calls[3]]

    def test_unprobeable_after_max_retries(self):
        calls = []

        def at(bindings):
            calls.append(bindings)
            raise DomainError("defined nowhere")

        with pytest.raises(UnprobeableError):
            list(ex.probe_values(at, ["x"], ex.ProbeConfig(max_retries=7)))
        assert len(calls) == 7

    @pytest.mark.parametrize("policy", [
        {"points": 0}, {"max_retries": 0}, {"tol": -1e-9}, {"tol": math.nan},
        {"tol": math.inf}, {"low": math.nan}, {"high": math.inf},
        {"low": 1.0, "high": 1.0}, {"low": 2.0, "high": 1.0},
    ], ids=lambda policy: ",".join(f"{k}={v}" for k, v in policy.items()))
    def test_vacuous_policy_rejected(self, policy):
        with pytest.raises(EhresmannError):
            ex.ProbeConfig(**policy)


# --------------------------------------------------------------------------
# algebraic laws (hypothesis)


def _leaves():
    return st.one_of(
        st.sampled_from([ex.Var("x"), ex.Var("y")]),
        st.integers(min_value=-3, max_value=3).map(lambda k: ex.Const(float(k))),
    )


def _trees():
    return st.recursive(
        _leaves(),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: ex.Sum(p)),
            st.tuples(inner, inner).map(lambda p: ex.Prod(p)),
            inner.map(ex.Neg),
            st.tuples(inner, st.sampled_from([2.0, 3.0, 0.5, 1.5, -1.0, 1.0 / 3.0])).map(
                lambda p: ex.Pow(*p)
            ),
            inner.map(lambda a: ex.Call("sin", a)),
            inner.map(lambda a: ex.Call("cos", a)),
        ),
        max_leaves=12,
    )


def _vanishes(e):
    """``is_zero(e)``.  A tree such as ``(-1)^0.5 + x`` is defined nowhere;
    no law can be probed on it, so the example is discarded."""
    try:
        return ex.is_zero(e)
    except UnprobeableError:
        reject()


@settings(max_examples=40, deadline=None)
@given(a=_trees(), b=_trees())
def test_derivative_is_additive(a, b):
    lhs = ex.differentiate(ex.Sum((a, b)), "x")
    rhs = ex.differentiate(a, "x") + ex.differentiate(b, "x")
    assert _vanishes(lhs - rhs)


@settings(max_examples=40, deadline=None)
@given(a=_trees(), b=_trees())
def test_product_rule(a, b):
    lhs = ex.differentiate(ex.Prod((a, b)), "x")
    rhs = ex.differentiate(a, "x") * b + a * ex.differentiate(b, "x")
    assert _vanishes(lhs - rhs)


def _copy(e):
    """A fresh copy of every node, so no normal form is remembered on it."""
    if isinstance(e, ex.Sum):
        return ex.Sum(tuple(map(_copy, e.terms)))
    if isinstance(e, ex.Prod):
        return ex.Prod(tuple(map(_copy, e.factors)))
    if isinstance(e, ex.Pow):
        return ex.Pow(_copy(e.base), e.exponent)
    if isinstance(e, (ex.Neg, ex.Call)):
        return dataclasses.replace(e, arg=_copy(e.arg))
    return e  # a constant or a variable remembers no normal form


def _diff_trees():
    """Trees over x, y and z with the constants 0.0 and -0.0, fractional
    exponents, ^0, ^1 and log.  ``st.recursive`` nests at most four levels
    for 12 leaves, so with constants of at most 4 and exponents of at most 3
    in magnitude no folded constant exceeds 4^81 and no product of them
    overflows."""
    return st.recursive(
        st.one_of(
            st.sampled_from([ex.Var("x"), ex.Var("y"), ex.Var("z")]),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 2.0, -3.0, 4.0]).map(ex.Const),
        ),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(lambda t: ex.Sum(tuple(t))),
            st.lists(inner, min_size=1, max_size=3).map(lambda f: ex.Prod(tuple(f))),
            inner.map(ex.Neg),
            st.tuples(
                inner, st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, 1.5, -0.5, 1.0 / 3.0])
            ).map(lambda p: ex.Pow(*p)),
            st.tuples(st.sampled_from(["sin", "cos", "log"]), inner).map(lambda p: ex.Call(*p)),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(e=_diff_trees(), name=st.sampled_from(["x", "y", "z"]))
@example(e=ex.Prod((ex.Var("y"), ex.Pow(ex.Var("x"), 0.5), ex.Call("log", ex.Var("y")))), name="x")
@example(e=ex.Prod((ex.Const(-0.0), ex.Pow(ex.Var("x"), 1.0))), name="x")
def test_sparse_derivative_equals_dense(e, name):
    """``differentiate`` builds no product-rule term for a factor free of
    the variable; its result is the dense rule's, normalized."""
    dense = ex.normalize(dense_diff.diff(_copy(e), name))
    assert repr(ex.differentiate(e, name)) == repr(dense)
    assert ex.differentiate(e, "w") is ex.ZERO


@settings(max_examples=60, deadline=None)
@given(e=_trees())
def test_print_parse_round_trip(e):
    assert _vanishes(ex.parse(ex.to_text(e)) - e)


_X, _Y = ex.Var("x"), ex.Var("y")


@settings(max_examples=40, deadline=None)
@given(e=_trees())
# a merged power that leaves exponent 1, and a sum and a product left
# nested after a coefficient or an exponent collapses to 1
@example(e=ex.Pow(ex.Pow(_X, -1.0), -1.0))
@example(e=ex.Sum((ex.Prod((ex.Const(2.0), _X + _Y)), ex.Neg(_X + _Y), _Y)))
@example(e=ex.Prod((ex.Pow(_X * _Y, 2.0), ex.Pow(_X * _Y, -1.0), _Y)))
def test_normalize_idempotent(e):
    once = ex.normalize(e)
    # a fresh copy, so the normal form remembered on ``once`` cannot answer
    assert repr(ex.normalize(_copy(once))) == repr(once)


def _subtrees(e):
    yield e
    for child in (getattr(e, "terms", None) or getattr(e, "factors", None) or ()):
        yield from _subtrees(child)
    for attr in ("base", "arg"):
        if hasattr(e, attr):
            yield from _subtrees(getattr(e, attr))


@settings(max_examples=40, deadline=None)
@given(e=_trees(), seed=st.integers(0, 2**16))
def test_normalize_cold_equals_warm(e, seed):
    cold = ex.normalize(_copy(e))
    warm = _copy(e)
    nodes = list(_subtrees(warm))
    random.Random(seed).shuffle(nodes)
    for node in nodes:
        ex.normalize(node)
    assert repr(ex.normalize(warm)) == repr(cold)


def _sort_key(e):
    """The nested tuple key by which terms and factors were once sorted: the
    oracle of the order that ``expr._cmp`` gives lazily."""
    if isinstance(e, ex.Const):
        return (0, e.value)
    if isinstance(e, ex.Var):
        return (1, e.name)
    if isinstance(e, ex.Pow):
        return (2, _sort_key(e.base), e.exponent)
    if isinstance(e, ex.Call):
        return (3, e.func, _sort_key(e.arg))
    if isinstance(e, ex.Prod):
        return (4, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, ex.Sum):
        return (5, tuple(_sort_key(t) for t in e.terms))
    if isinstance(e, ex.Neg):
        return (6, _sort_key(e.arg))
    raise TypeError(f"not an expression: {e!r}")


_NAN = math.nan


def _order_trees():
    """Trees over x and y with signed zeros, infinities and NaNs, one NaN
    object shared and others fresh (a NaN ties with itself only), and
    few enough shapes that trees share long prefixes."""
    nan = st.just("nan").map(float)  # a fresh object each draw
    return st.recursive(
        st.one_of(
            st.sampled_from([ex.Var("x"), ex.Var("y")]),
            st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, _NAN]).map(ex.Const),
            nan.map(ex.Const),
        ),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(lambda t: ex.Sum(tuple(t))),
            st.lists(inner, min_size=1, max_size=3).map(lambda f: ex.Prod(tuple(f))),
            inner.map(ex.Neg),
            st.tuples(inner, st.one_of(st.sampled_from([2.0, -1.0, 0.5, _NAN]), nan)).map(
                lambda p: ex.Pow(*p)
            ),
            st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda p: ex.Call(*p)),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(trees=st.lists(_order_trees(), min_size=2, max_size=8), seed=st.integers(0, 2**16))
# a prefix sorts first, and -0.0 ties with 0.0
@example(trees=[ex.Prod((_X, _Y, ex.Call("sin", _X))), ex.Sum((_X, _Y)), ex.Prod((_X, _Y)),
                ex.Const(-0.0), ex.Const(0.0)], seed=0)
# one NaN object ties with itself, so the second terms decide
@example(trees=[ex.Sum((ex.Pow(_X, _NAN), ex.Call(f, _X))) for f in ("sin", "cos")], seed=0)
def test_order_is_the_tuple_key_order(trees, seed):
    """Sorting normalized trees, and equal trees built apart (a pickled
    copy, whose floats are fresh objects), by ``expr._cmp`` gives the same
    sequence of objects as sorting them by the old tuple keys."""
    items = [ex.normalize(t) for t in trees]
    items += pickle.loads(pickle.dumps(items))
    random.Random(seed).shuffle(items)
    by_cmp = sorted(items, key=functools.cmp_to_key(ex._cmp))
    assert all(map(operator.is_, by_cmp, sorted(items, key=_sort_key)))
