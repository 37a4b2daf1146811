"""Immutable symbolic expressions in named real variables.

The node set is deliberately small: constants, variables, n-ary sums and
products, powers with a numeric exponent, negation, and the elementary
functions sin/cos/exp/log.  Expressions are hashable values; every operation
returns a new tree.

Zero-testing is probabilistic: after a shallow structural normalization
(flatten, constant-fold, collect syntactically identical terms) an expression
that did not collapse to the literal 0 is evaluated at pseudo-random probe
points drawn from a configurable box.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DomainError, EvaluationError, ParseError, UnprobeableError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Sum",
    "Prod",
    "Pow",
    "Neg",
    "Call",
    "ProbeConfig",
    "ZERO",
    "ONE",
    "parse",
    "to_text",
    "free_variables",
    "evaluate",
    "differentiate",
    "substitute",
    "normalize",
    "is_zero",
]

_FUNCTIONS = ("sin", "cos", "exp", "log")


class Expr:
    """Base class; concrete nodes are the dataclasses below."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, Neg(_coerce(other))))

    def __rsub__(self, other):
        return Sum((_coerce(other), Neg(self)))

    def __mul__(self, other):
        return Prod((self, _coerce(other)))

    def __rmul__(self, other):
        return Prod((_coerce(other), self))

    def __truediv__(self, other):
        return Prod((self, Pow(_coerce(other), -1.0)))

    def __rtruediv__(self, other):
        return Prod((_coerce(other), Pow(self, -1.0)))

    def __pow__(self, exponent):
        return Pow(self, float(exponent))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_text(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True, slots=True)
class Prod(Expr):
    factors: tuple


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


# --------------------------------------------------------------------------
# parsing


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k + 1
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is out of range", i)
            tokens.append(("number", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent with the usual precedence tower:
    ``+ -``  <  ``* /``  <  unary ``-``  <  ``^`` (right assoc.).
    """

    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind, text=None):
        token = self.peek()
        if token[0] != kind or (text is not None and token[1] != text):
            raise ParseError(f"expected {text or kind}, found {token[1]!r}", token[2])
        return self.advance()

    def parse(self):
        expr = self.additive()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected {token[1]!r}", token[2])
        return expr

    def additive(self):
        expr = self.multiplicative()
        while True:
            token = self.peek()
            if token[0] == "op" and token[1] in "+-":
                self.advance()
                rhs = self.multiplicative()
                expr = expr + rhs if token[1] == "+" else expr - rhs
            else:
                return expr

    def multiplicative(self):
        expr = self.unary()
        while True:
            token = self.peek()
            if token[0] == "op" and token[1] in "*/":
                self.advance()
                rhs = self.unary()
                expr = expr * rhs if token[1] == "*" else expr / rhs
            else:
                return expr

    def unary(self):
        token = self.peek()
        if token[0] == "op" and token[1] == "-":
            self.advance()
            return Neg(self.unary())
        if token[0] == "op" and token[1] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        token = self.peek()
        if token[0] == "op" and token[1] == "^":
            self.advance()
            exponent = self.unary()
            return Pow(base, self._numeric(exponent, token[2]))
        return base

    def _numeric(self, expr, offset):
        if free_variables(expr):
            raise ParseError("exponent must be numeric", offset)
        value = evaluate(expr, {})
        if not math.isfinite(value):
            raise ParseError("exponent must be finite", offset)
        return value

    def atom(self):
        token = self.peek()
        if token[0] == "number":
            self.advance()
            return Const(token[1])
        if token[0] == "lparen":
            self.advance()
            expr = self.additive()
            self.expect("rparen", ")")
            return expr
        if token[0] == "name":
            self.advance()
            if self.peek()[0] == "lparen":
                if token[1] not in _FUNCTIONS:
                    raise ParseError(f"unknown function {token[1]!r}", token[2])
                self.advance()
                arg = self.additive()
                self.expect("rparen", ")")
                return Call(token[1], arg)
            return Var(token[1])
        raise ParseError(f"unexpected {token[1]!r}" if token[1] else "unexpected end of input", token[2])


def parse(source: str) -> Expr:
    """Parse expression text into a tree.  Raises :class:`ParseError` with
    the character offset of the problem."""
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# printing


def _level(e):
    # higher binds tighter
    if isinstance(e, Sum):
        return 1
    if isinstance(e, Neg):
        return 2
    if isinstance(e, Prod):
        return 3
    if isinstance(e, Pow):
        return 4
    return 5


def to_text(e: Expr) -> str:
    """Deterministic, re-parseable textual form."""
    if isinstance(e, Const):
        value = e.value
        if _is_whole(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        parts = []
        for term in e.terms:
            text = _wrap(term, 2)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(" - " + text[1:])
            else:
                parts.append(" + " + text)
        return "".join(parts)
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, 3)
    if isinstance(e, Prod):
        return " * ".join(_wrap(f, 3) for f in e.factors)
    if isinstance(e, Pow):
        base = _wrap(e.base, 5)
        exponent = e.exponent
        if _is_whole(exponent):
            exp_text = str(int(exponent))
        else:
            exp_text = repr(exponent)
        return f"{base}^{exp_text}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


def _is_whole(value):
    try:
        return value == int(value)
    except (OverflowError, ValueError):
        raise DomainError(f"non-finite number {value} has no text form")


def _wrap(e, minimum_level):
    text = to_text(e)
    if _level(e) < minimum_level or (minimum_level >= 5 and text.startswith("-")):
        return "(" + text + ")"
    return text


# --------------------------------------------------------------------------
# structural queries


def free_variables(e: Expr) -> frozenset:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Sum):
        out = frozenset()
        for t in e.terms:
            out |= free_variables(t)
        return out
    if isinstance(e, Prod):
        out = frozenset()
        for f in e.factors:
            out |= free_variables(f)
        return out
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, Call):
        return free_variables(e.arg)
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, bindings) -> float:
    """IEEE double evaluation.  Unbound variables raise
    :class:`EvaluationError`; out-of-domain points raise :class:`DomainError`
    rather than returning NaN."""
    value, _ = _evaluate_scaled(e, bindings)
    return value


def _evaluate_scaled(e, bindings):
    """Returns (value, scale) with scale = max |v| over all sub-values;
    the scale feeds the relative tolerance in probing."""
    if isinstance(e, Const):
        return e.value, abs(e.value)
    if isinstance(e, Var):
        try:
            value = float(bindings[e.name])
        except KeyError:
            raise EvaluationError(f"unbound variable {e.name!r}")
        return value, abs(value)
    if isinstance(e, Sum):
        total, scale = 0.0, 0.0
        for term in e.terms:
            value, s = _evaluate_scaled(term, bindings)
            total += value
            scale = max(scale, s, abs(value))
        return total, max(scale, abs(total))
    if isinstance(e, Prod):
        total, scale = 1.0, 0.0
        for factor in e.factors:
            value, s = _evaluate_scaled(factor, bindings)
            total *= value
            scale = max(scale, s, abs(value))
        return total, max(scale, abs(total))
    if isinstance(e, Pow):
        base, scale = _evaluate_scaled(e.base, bindings)
        value = _power(base, e.exponent)
        return value, max(scale, abs(value))
    if isinstance(e, Neg):
        value, scale = _evaluate_scaled(e.arg, bindings)
        return -value, scale
    if isinstance(e, Call):
        argument, scale = _evaluate_scaled(e.arg, bindings)
        try:
            if e.func == "sin":
                value = math.sin(argument)
            elif e.func == "cos":
                value = math.cos(argument)
            elif e.func == "exp":
                try:
                    value = math.exp(argument)
                except OverflowError:
                    raise DomainError(f"exp overflow at {argument}")
            elif e.func == "log":
                if argument <= 0.0:
                    raise DomainError(f"log of non-positive value {argument}")
                value = math.log(argument)
            else:
                raise EvaluationError(f"unknown function {e.func!r}")
        except ValueError:  # sin or cos of an infinity
            raise DomainError(f"{e.func} of non-finite value {argument}")
        return value, max(scale, abs(value))
    raise TypeError(f"not an expression: {e!r}")


def _power(base, exponent):
    try:
        k = int(exponent)
    except (OverflowError, ValueError):
        raise DomainError(f"non-finite exponent {exponent}")
    if exponent == k:
        if base == 0.0:
            if k == 0:
                return 1.0  # convention for integer exponents
            if k < 0:
                raise DomainError("zero raised to a negative power")
            return 0.0
        exponent = k
    elif base < 0.0:
        raise DomainError(f"negative base {base} with fractional exponent")
    elif base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError("power overflow")


# --------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative; the result is normalized."""
    return normalize(_diff(e, name))


def _diff(e, name):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, name) for t in e.terms))
    if isinstance(e, Prod):
        terms = []
        factors = e.factors
        for k in range(len(factors)):
            dk = _diff(factors[k], name)
            terms.append(Prod(factors[:k] + (dk,) + factors[k + 1:]))
        return Sum(tuple(terms))
    if isinstance(e, Pow):
        db = _diff(e.base, name)
        return Prod((Const(e.exponent), Pow(e.base, e.exponent - 1.0), db))
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, name))
    if isinstance(e, Call):
        inner = _diff(e.arg, name)
        if e.func == "sin":
            outer = Call("cos", e.arg)
        elif e.func == "cos":
            outer = Neg(Call("sin", e.arg))
        elif e.func == "exp":
            outer = Call("exp", e.arg)
        elif e.func == "log":
            outer = Pow(e.arg, -1.0)
        else:
            raise EvaluationError(f"unknown function {e.func!r}")
        return Prod((outer, inner))
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# substitution


def substitute(e: Expr, mapping) -> Expr:
    """Replace variables by expressions; ``mapping`` is name -> Expr/number."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.name in mapping:
            return _coerce(mapping[e.name])
        return e
    if isinstance(e, Sum):
        return Sum(tuple(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Prod):
        return Prod(tuple(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# shallow normalization


def _sort_key(e):
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.name)
    if isinstance(e, Pow):
        return (2, _sort_key(e.base), e.exponent)
    if isinstance(e, Call):
        return (3, e.func, _sort_key(e.arg))
    if isinstance(e, Prod):
        return (4, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (5, tuple(_sort_key(t) for t in e.terms))
    if isinstance(e, Neg):
        return (6, _sort_key(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def normalize(e: Expr) -> Expr:
    """Shallow canonicalization: flatten nested sums/products, fold
    constants, merge repeated factors into powers, and collect
    syntactically identical summands.  Not a full canonical form; its job
    is to make obvious zeros literal."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        return normalize(Prod((Const(-1.0), e.arg)))
    if isinstance(e, Call):
        arg = normalize(e.arg)
        if isinstance(arg, Const):
            try:
                return Const(evaluate(Call(e.func, arg), {}))
            except DomainError:
                pass
        return Call(e.func, arg)
    if isinstance(e, Pow):
        base = normalize(e.base)
        exponent = e.exponent
        if exponent == 0.0:
            return ONE
        if exponent == 1.0:
            return base
        if isinstance(base, Const):
            try:
                return Const(_power(base.value, exponent))
            except DomainError:
                pass
        if isinstance(base, Pow):
            return Pow(base.base, base.exponent * exponent)
        return Pow(base, exponent)
    if isinstance(e, Prod):
        return _normalize_product(e.factors)
    if isinstance(e, Sum):
        return _normalize_sum(e.terms)
    raise TypeError(f"not an expression: {e!r}")


def _flatten(nodes, cls, attr):
    out = []
    for node in nodes:
        normalized = normalize(node)
        if isinstance(normalized, cls):
            out.extend(getattr(normalized, attr))
        else:
            out.append(normalized)
    return out


def _normalize_product(factors):
    flat = _flatten(factors, Prod, "factors")
    coefficient = 1.0
    powers = {}  # base -> exponent
    order = []
    for factor in flat:
        if isinstance(factor, Const):
            coefficient *= factor.value
            continue
        if isinstance(factor, Pow) and not isinstance(factor.base, Const):
            base, exponent = factor.base, factor.exponent
        else:
            base, exponent = factor, 1.0
        if base in powers:
            powers[base] += exponent
        else:
            powers[base] = exponent
            order.append(base)
    if coefficient == 0.0:
        return ZERO
    kept = []
    for base in order:
        exponent = powers[base]
        if exponent == 0.0:
            continue
        kept.append(base if exponent == 1.0 else Pow(base, exponent))
    kept.sort(key=_sort_key)
    if not kept:
        return Const(coefficient)
    if coefficient != 1.0:
        kept.insert(0, Const(coefficient))
    if len(kept) == 1:
        return kept[0]
    return Prod(tuple(kept))


def _split_coefficient(term):
    """term -> (coefficient, key-part) with key-part a normalized product
    carrying no leading constant."""
    if isinstance(term, Const):
        return term.value, None
    if isinstance(term, Prod):
        factors = term.factors
        if factors and isinstance(factors[0], Const):
            rest = factors[1:]
            if not rest:
                return factors[0].value, None
            if len(rest) == 1:
                return factors[0].value, rest[0]
            return factors[0].value, Prod(rest)
        return 1.0, term
    return 1.0, term


def _normalize_sum(terms):
    flat = _flatten(terms, Sum, "terms")
    constant = 0.0
    coefficients = {}  # key-part -> coefficient
    order = []
    for term in flat:
        coefficient, key = _split_coefficient(term)
        if key is None:
            constant += coefficient
            continue
        if key in coefficients:
            coefficients[key] += coefficient
        else:
            coefficients[key] = coefficient
            order.append(key)
    kept = []
    for key in order:
        coefficient = coefficients[key]
        if coefficient == 0.0:
            continue
        if coefficient == 1.0:
            kept.append(key)
        else:
            kept.append(_normalize_product((Const(coefficient), key)))
    kept.sort(key=_sort_key)
    if constant != 0.0:
        kept.append(Const(constant))
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return Sum(tuple(kept))


# --------------------------------------------------------------------------
# probabilistic zero test


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Sampling policy for the probabilistic zero test and other
    point-probing decisions."""

    points: int = 32
    low: float = -2.0
    high: float = 2.0
    tol: float = 1e-9
    seed: int = 20240815
    max_retries: int = 64

    def rng(self):
        return random.Random(self.seed)


DEFAULT_PROBE = ProbeConfig()


def is_zero(e: Expr, probe: ProbeConfig = DEFAULT_PROBE) -> bool:
    """True iff the expression vanishes identically, decided by structural
    normalization plus random probing with relative tolerance."""
    normalized = normalize(e)
    if isinstance(normalized, Const):
        return abs(normalized.value) <= probe.tol
    names = sorted(free_variables(normalized))
    rng = probe.rng()
    for _ in range(probe.points):
        for attempt in range(probe.max_retries):
            bindings = {name: rng.uniform(probe.low, probe.high) for name in names}
            try:
                value, scale = _evaluate_scaled(normalized, bindings)
            except DomainError:
                continue
            break
        else:
            raise UnprobeableError(
                f"no valid probe point found in {probe.max_retries} attempts"
            )
        if abs(value) > probe.tol * (1.0 + scale):
            return False
    return True


def all_zero(exprs, probe: ProbeConfig = DEFAULT_PROBE) -> bool:
    """Vector version of :func:`is_zero`."""
    return all(is_zero(e, probe) for e in exprs)
