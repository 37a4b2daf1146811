"""Immutable symbolic expressions in named real variables.

The node set is deliberately small: constants, variables, n-ary sums and
products, powers with a numeric exponent, negation, and the elementary
functions sin/cos/exp/log.  Expressions are hashable values; every operation
returns a new tree.

Numbers come from one evaluator: :func:`compile_exprs` turns expressions into
one straight-line Python function over ``math``, in which every distinct
subtree is evaluated once per point and every way out of the reals raises
:class:`DomainError`.  :func:`evaluate`, probing and the integrators all run
through it.

Zero-testing is probabilistic: after a shallow structural normalization
(flatten, constant-fold, collect syntactically identical terms) an expression
that did not collapse to the literal 0 is compiled once per process and
evaluated at pseudo-random probe points drawn from a configurable box.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

from . import kernel
from .errors import DomainError, EhresmannError, EvaluationError, ParseError, UnprobeableError

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
    "probe_values",
    "ZERO",
    "ONE",
    "parse",
    "to_text",
    "free_variables",
    "evaluate",
    "compile_exprs",
    "differentiate",
    "substitute",
    "normalize",
    "is_zero",
    "all_zero",
]

_FUNCTIONS = ("sin", "cos", "exp", "log")


class Expr:
    """Base class; concrete nodes are the dataclasses below.  The one slot
    holds the node's normal form once :func:`normalize` has computed it; it
    is not a dataclass field, so equality, hashing, printing and pickling
    ignore it."""

    __slots__ = ("_normal",)

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


class _Compound(Expr):
    """Base of the nodes with children.  ``_hash`` holds the node's
    structural hash once :func:`hash` has computed it, so hashing a tree
    walks each of its nodes once; ``_derivs`` maps a variable name to the
    node's derivative once :func:`differentiate` has taken it.  Like
    ``_normal`` they are not dataclass fields, so equality, printing,
    copying and pickling ignore them."""

    __slots__ = ("_hash", "_derivs")


def _hash_once(cls):
    """Make the dataclass ``cls`` keep its generated hash in ``_hash``: the
    same value, computed on the first :func:`hash` only."""
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True, slots=True)
class Sum(_Compound):
    terms: tuple


@_hash_once
@dataclass(frozen=True, slots=True)
class Prod(_Compound):
    factors: tuple


@_hash_once
@dataclass(frozen=True, slots=True)
class Pow(_Compound):
    base: Expr
    exponent: float


@_hash_once
@dataclass(frozen=True, slots=True)
class Neg(_Compound):
    arg: Expr


@_hash_once
@dataclass(frozen=True, slots=True)
class Call(_Compound):
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
        self.leaves = {}  # (class, value or name) -> its one node in this parse

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

    def leaf(self, cls, value):
        node = self.leaves.get((cls, value))
        if node is None:
            node = self.leaves[cls, value] = cls(value)
        return node

    def parse(self):
        expr = self.additive()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected {token[1]!r}", token[2])
        return expr

    def additive(self):
        # one n-ary Sum per chain, so a long chain nests no deeper than a term
        terms = [self.multiplicative()]
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            sign = self.advance()[1]
            term = self.multiplicative()
            terms.append(term if sign == "+" else Neg(term))
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def multiplicative(self):
        factors = [self.unary()]
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            factor = self.unary()
            factors.append(factor if op == "*" else Pow(factor, -1.0))
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

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
        folded = normalize(expr)
        if not isinstance(folded, Const):
            evaluate(expr, {})  # raises the DomainError that kept it symbolic
        value = folded.value
        if not math.isfinite(value):
            raise ParseError("exponent must be finite", offset)
        return value

    def atom(self):
        token = self.peek()
        if token[0] == "number":
            self.advance()
            return self.leaf(Const, token[1])
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
            return self.leaf(Var, token[1])
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
    """IEEE double value of ``e`` at ``bindings`` (name -> number).  Compiles
    ``e`` once per call; to evaluate at many points, compile once with
    :func:`compile_exprs` and call the result.  Unbound variables raise
    :class:`EvaluationError`; out-of-domain points raise :class:`DomainError`
    rather than returning NaN."""
    return compile_exprs([e], list(bindings))(*map(float, bindings.values()))[0]


def _evaluate_scaled(e, names):
    """``at(bindings)`` for ``e`` over ``names``, for bindings of ``names``
    in that order as :func:`probe_values` draws them.  ``at`` gives (value,
    scale) with scale = max |v| over the values of all nodes, the base of
    the relative tolerance in probing, and raises :class:`DomainError` where
    either is not finite.  The kernel is compiled once per process for each
    tree and names, up to :data:`kernel.PROBED` kernels; a list of names
    keys as a tuple."""
    scaled = _scaled(e, tuple(names))

    def at(bindings):
        value, scale = scaled(*bindings.values())
        if not (math.isfinite(value) and math.isfinite(scale)):
            raise DomainError(f"non-finite value {value} (scale {scale})")
        return value, scale

    return at


@lru_cache(maxsize=kernel.PROBED)
def _scaled(e, names):
    """The kernel of :func:`_evaluate_scaled`, keyed by equality, so trees
    that differ only in the sign of a zero constant share it.  That is safe
    for probing alone (not for :func:`compile_exprs`, whose values reach
    users): a zero's sign changes at most the sign of a value, never its
    magnitude or finiteness, which are all that probing reads; it never
    decides whether a line raises (the power lines test ``!= 0.0`` and
    ``> 0.0``, ``_power`` tests ``== 0.0`` and ``< 0.0``, and log(-0.0)
    fails as log(0.0) does); and :func:`probe_values` drops the
    :class:`DomainError` messages, which may show the other zero."""
    env, operands = {}, {name: f"a{k}" for k, name in enumerate(names)}
    lines, (result,), sizes, _ = _generate([e], operands, "v", env)
    largest = f"max(map(abs, ({', '.join(sizes)},)))"
    return _define(env, operands.values(), lines, f"{result}, {largest}")


def compile_exprs(exprs, names):
    """One function ``f(*values)`` returning the list of the expressions'
    values at the point ``dict(zip(names, values))``; the values must be
    floats.  A variable outside ``names`` raises :class:`EvaluationError`
    here, not at call time."""
    env, operands = {}, {name: f"a{k}" for k, name in enumerate(names)}
    lines, results, _, _ = _generate(exprs, operands, "v", env)
    return _define(env, operands.values(), lines, f"[{', '.join(results)}]")


def _generate(exprs, operands, prefix, env, moving=frozenset()):
    """Straight-line source lines for ``exprs``, in which a variable is the
    operand that ``operands`` maps its name to, each operation's result is a
    local named ``prefix`` and a number, and the evaluation functions and
    non-finite constants are globals added to ``env``; several calls may
    share one ``env`` with distinct prefixes.  Returns (lines, the operand
    holding each expression's value, the operands whose maximum |v| is the
    largest |v| over all nodes, the moving lines).  Every distinct operation
    is one line, so a subtree that occurs twice is evaluated once, and a
    node object met again is not walked again; a line that can leave the
    reals carries its message as a :data:`kernel.TAG`.
    An operation with an operand in the set ``moving`` is moving: its
    variable is added to the set (so nothing moves by default), and its
    lines are also in the moving lines, in order."""
    env.update(_sin=math.sin, _cos=math.cos, _exp=math.exp, _log=math.log, _power=_power)
    lines, moved = [], []
    atoms = {}  # operation on operands -> variable holding its value
    seen = {}  # id of a compound node walked before -> variable holding its value
    sizes = {}  # each variable and operation whose |v| enters the scale
    constants = [0.0]  # |c| of each constant, inf for a non-finite one

    def bind(value):
        name = f"c{len(env)}"
        env[name] = value
        return name

    def emit(e):
        if isinstance(e, Const):
            value = float(e.value)
            if math.isfinite(value):
                constants.append(abs(value))
                return f"({value!r})"  # -0.0 keeps its sign as a literal
            constants.append(math.inf)
            return bind(value)  # repr of inf/nan is not source
        if isinstance(e, Var):
            if e.name not in operands:
                raise EvaluationError(f"unbound variable {e.name!r}")
            sizes[operands[e.name]] = True
            return operands[e.name]
        if id(e) in seen:  # a shared subtree is walked once
            return seen[id(e)]
        if isinstance(e, Sum):
            key = ("+",) + tuple(emit(t) for t in e.terms)
        elif isinstance(e, Prod):
            key = ("*",) + tuple(emit(f) for f in e.factors)
        elif isinstance(e, Neg):
            key = ("-", emit(e.arg))
        elif isinstance(e, Pow):
            key = ("^", emit(e.base), e.exponent)
        elif isinstance(e, Call):
            if e.func not in _FUNCTIONS:
                raise EvaluationError(f"unknown function {e.func!r}")
            key = (e.func, emit(e.arg))
        else:
            raise TypeError(f"not an expression: {e!r}")
        if key not in atoms:
            atoms[key] = v = f"{prefix}{len(atoms)}"
            statements = _statements(v, key, bind)
            lines.extend(statements)
            if not moving.isdisjoint(key[1:]):
                moving.add(v)
                moved.extend(statements)
            if key[0] != "-":  # a negation has its operand's size
                sizes[v] = True
        seen[id(e)] = atoms[key]
        return atoms[key]

    results = [emit(e) for e in exprs]
    del emit  # it holds itself through its cell, and with it lines and env
    top = max(constants)  # first, so that an infinite one decides the max
    return lines, results, [repr(top) if top < math.inf else bind(top), *sizes], moved


def _define(env, args, lines, returned):
    return kernel.define(f"_kernel({', '.join(args)})", [*lines, f"return {returned}"], env)


_CHAIN = 256  # operands per statement of a long sum or product


def _statements(v, key, bind):
    """Source lines assigning to ``v`` the value of one operation on
    operands.  These are the package's evaluation rules: IEEE arithmetic,
    with each way out of the reals raised as :class:`DomainError`."""
    op, operands = key[0], key[1:]
    if op == "+" or op == "*":
        # left to right from 0.0 or 1.0; long chains are cut into statements
        # to stay within the compiler's depth
        total, lines = "0.0" if op == "+" else "1.0", []
        for start in range(0, max(len(operands), 1), _CHAIN):
            chain = (total,) + operands[start:start + _CHAIN]
            lines.append(f"{v} = {f' {op} '.join(chain)}")
            total = v
        return lines
    if op == "-":
        return [f"{v} = -{operands[0]}"]
    a = operands[0]
    if op in _FUNCTIONS:  # math raises ValueError or OverflowError; log(nan) is nan
        out = {"exp": "overflow at", "log": "of non-positive value"}.get(op, "of non-finite value")
        shown = a[1:-1] if a.startswith("(") else f"{{{a}}}"  # a literal, or a field
        return [f"{v} = _{op}({a}){kernel.TAG}{op} {out} {shown}"]
    exponent = operands[1]
    if not math.isfinite(exponent):
        return [f"{v} = _power({a}, {bind(exponent)})"]
    # the common base is computed inline; zero and negative bases take
    # _power's branches
    if exponent == int(exponent):
        power, fast = repr(int(exponent)), f"{a} != 0.0"
    else:
        power, fast = repr(float(exponent)), f"{a} > 0.0"
    return [f"{v} = {a} ** {power} if {fast} else _power({a}, {power}){kernel.TAG}power overflow"]


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
    """Exact partial derivative; the result is normalized.  A tree free of
    ``name`` gives :data:`ZERO` itself.  The result is remembered on a
    compound ``e``, keyed by the node object and not by equality, so a
    repeated call returns the same tree and a tree holding ``Const(-0.0)``
    never gets the derivative of one holding ``Const(0.0)``."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if not isinstance(e, _Compound):
        raise TypeError(f"not an expression: {e!r}")
    try:
        derivs = e._derivs
    except AttributeError:
        derivs = {}
        object.__setattr__(e, "_derivs", derivs)
    out = derivs.get(name)
    if out is None:
        d = _diff(e, name)
        out = derivs[name] = ZERO if d is None else normalize(d)
    return out


def _diff(e, name):
    """The unnormalized derivative, or None for a subtree free of ``name``:
    the product rule builds no term for a factor whose derivative is None."""
    if isinstance(e, Const):
        return None
    if isinstance(e, Var):
        return ONE if e.name == name else None
    if isinstance(e, Sum):
        return _sum_of([d for d in (_diff(t, name) for t in e.terms) if d is not None])
    if isinstance(e, Prod):
        terms = []
        factors = e.factors
        for k in range(len(factors)):
            dk = _diff(factors[k], name)
            if dk is not None:
                terms.append(Prod(factors[:k] + (dk,) + factors[k + 1:]))
        return _sum_of(terms)
    if isinstance(e, Pow):
        db = _diff(e.base, name)
        return None if db is None else Prod((Const(e.exponent), Pow(e.base, e.exponent - 1.0), db))
    if isinstance(e, Neg):
        d = _diff(e.arg, name)
        return None if d is None else Neg(d)
    if isinstance(e, Call):
        inner = _diff(e.arg, name)
        if inner is None:
            return None
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


def _sum_of(terms):
    """None for no derivative term, the term itself for one, else their
    Sum; normalizing a one-term Sum gives the term's normal form."""
    if len(terms) > 1:
        return Sum(tuple(terms))
    return terms[0] if terms else None


# --------------------------------------------------------------------------
# substitution


def substitute(e: Expr, mapping) -> Expr:
    """Replace variables by expressions; ``mapping`` is name -> Expr/number.
    A subtree that holds no replaced variable is returned as it is, so the
    normal form :func:`normalize` remembered on it is kept."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.name in mapping:
            return _coerce(mapping[e.name])
        return e
    if isinstance(e, Sum):
        return _rebuild(Sum, [substitute(t, mapping) for t in e.terms], e, e.terms)
    if isinstance(e, Prod):
        return _rebuild(Prod, [substitute(f, mapping) for f in e.factors], e, e.factors)
    if isinstance(e, Pow):
        base = substitute(e.base, mapping)
        return e if base is e.base else Pow(base, e.exponent)
    if isinstance(e, Neg):
        arg = substitute(e.arg, mapping)
        return e if arg is e.arg else Neg(arg)
    if isinstance(e, Call):
        arg = substitute(e.arg, mapping)
        return e if arg is e.arg else Call(e.func, arg)
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# shallow normalization


_RANK = {Const: 0, Var: 1, Pow: 2, Call: 3, Prod: 4, Sum: 5, Neg: 6}


def _cmp(a, b):
    """Three-way structural order of two nodes for :func:`functools.cmp_to_key`:
    negative iff ``a`` sorts first, zero iff they tie.  It is the order of
    the tuple keys (rank, then the children and fields in turn, a shorter
    sum or product first), walked only down to the first difference.  Leaves
    compare as tuple items do (``is``, then ``==``, then ``<``), so a NaN
    ties only with the same float object and sorts neither before nor
    after a number.  Never by ``hash``: a ``str`` hash is salted per
    process, and the printed order must not be."""
    if a is b:
        return 0
    kind, other = type(a), type(b)
    if kind is not other:
        return -1 if _RANK[kind] < _RANK[other] else 1
    if kind is Const:
        return _cmp_leaf(a.value, b.value)
    if kind is Var:
        return _cmp_leaf(a.name, b.name)
    if kind is Pow:
        return _cmp(a.base, b.base) or _cmp_leaf(a.exponent, b.exponent)
    if kind is Call:
        return _cmp_leaf(a.func, b.func) or _cmp(a.arg, b.arg)
    if kind is Neg:
        return _cmp(a.arg, b.arg)
    xs, ys = (a.factors, b.factors) if kind is Prod else (a.terms, b.terms)
    for x, y in zip(xs, ys):
        order = _cmp(x, y)
        if order:
            return order
    return _cmp_leaf(len(xs), len(ys))


def _cmp_leaf(x, y):
    if x is y or x == y:
        return 0
    return -1 if x < y else 1


_ORDER = cmp_to_key(_cmp)


def normalize(e: Expr) -> Expr:
    """Shallow canonicalization: flatten nested sums/products, fold
    constants, merge repeated factors into powers, and collect
    syntactically identical summands.  Not a full canonical form; its job
    is to make obvious zeros literal.

    Idempotent: ``normalize(normalize(e)) == normalize(e)``.  The result is
    remembered on ``e`` and marked as its own normal form, so no subtree is
    normalized twice; a node that normalization leaves unchanged is
    returned as it is rather than copied."""
    if isinstance(e, (Const, Var)):
        return e
    try:
        return e._normal
    except AttributeError:
        pass
    out = _normalize_node(e)
    object.__setattr__(e, "_normal", out)
    object.__setattr__(out, "_normal", out)
    return out


def _normalize_node(e):
    if isinstance(e, Neg):
        return _normalize_product((Const(-1.0), e.arg))
    if isinstance(e, Call):
        arg = normalize(e.arg)
        if isinstance(arg, Const) and e.func in _FUNCTIONS:
            try:
                return Const(getattr(math, e.func)(arg.value))
            except (ValueError, OverflowError):  # out of domain: kept symbolic
                pass
        return e if arg is e.arg else Call(e.func, arg)
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
        # (b^a)^c = b^(a*c) wherever the left side is defined, unless a is
        # even and c fractional: (x^2)^0.5 is |x|, not x
        if isinstance(base, Pow) and (exponent % 1.0 == 0.0 or base.exponent % 2.0 != 0.0):
            return normalize(Pow(base.base, base.exponent * exponent))
        return e if base is e.base else Pow(base, exponent)
    if isinstance(e, Prod):
        return _normalize_product(e.factors, e)
    if isinstance(e, Sum):
        return _normalize_sum(e.terms, e)
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


def _rebuild(cls, children, node, old):
    """``cls(children)``, or ``node`` itself when its children ``old`` are
    the same objects in the same order."""
    if node is not None and len(children) == len(old) and all(map(operator.is_, children, old)):
        return node
    return cls(tuple(children))


def _base_exponent(factor):
    if isinstance(factor, Pow) and not isinstance(factor.base, Const):
        return factor.base, factor.exponent
    return factor, 1.0


def _normalize_product(factors, node=None):
    flat = _flatten(factors, Prod, "factors")
    coefficient, constant = 1.0, None
    powers = {}  # base -> [exponent, its factor while the base occurred once]
    for factor in flat:
        if isinstance(factor, Const):
            coefficient *= factor.value
            constant = factor
            continue
        base, exponent = _base_exponent(factor)
        entry = powers.get(base)
        if entry is None:
            powers[base] = [exponent, factor]
        else:
            entry[0] += exponent
            entry[1] = None
    if coefficient == 0.0:
        return ZERO
    kept = []
    again = False
    for base, (exponent, factor) in powers.items():
        if factor is None:
            if exponent == 0.0:
                continue
            factor = normalize(Pow(base, exponent))
            # a merged power can collapse to a product, a constant or
            # another power; those must be flattened and merged again
            again = again or isinstance(factor, Prod) or _base_exponent(factor) != (base, exponent)
        kept.append(factor)
    if not kept:
        return Const(coefficient)
    kept.sort(key=_ORDER)
    if coefficient != 1.0:
        kept.insert(0, constant if constant.value == coefficient else Const(coefficient))
    if again:
        return normalize(Prod(tuple(kept)))
    if len(kept) == 1:
        return kept[0]
    return _rebuild(Prod, kept, node, factors)


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


def _normalize_sum(terms, node=None):
    flat = _flatten(terms, Sum, "terms")
    constant, constant_term = 0.0, None
    coefficients = {}  # key-part -> [coefficient, its term while the key occurred once]
    for term in flat:
        coefficient, key = _split_coefficient(term)
        if key is None:
            constant += coefficient
            constant_term = term
            continue
        entry = coefficients.get(key)
        if entry is None:
            coefficients[key] = [coefficient, term]
        else:
            entry[0] += coefficient
            entry[1] = None
    kept = []
    again = False
    for key, (coefficient, term) in coefficients.items():
        if term is None:
            if coefficient == 0.0:
                continue
            term = normalize(Prod((Const(coefficient), key)))
            # a coefficient that collapsed to 1 can expose a nested sum
            again = again or isinstance(term, Sum)
        kept.append(term)
    kept.sort(key=_ORDER)
    if constant != 0.0:
        kept.append(constant_term if constant_term.value == constant else Const(constant))
    if again:
        return normalize(Sum(tuple(kept)))
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return _rebuild(Sum, kept, node, terms)


# --------------------------------------------------------------------------
# probabilistic zero test


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Sampling policy for the probabilistic zero test and other
    point-probing decisions.  A policy that could decide nothing (no
    point, no attempt, an empty or non-finite box, a negative or
    non-finite tolerance) is refused at construction."""

    points: int = 32
    low: float = -2.0
    high: float = 2.0
    tol: float = 1e-9
    seed: int = 20240815
    max_retries: int = 64

    def __post_init__(self):
        if self.points < 1 or self.max_retries < 1:
            raise EhresmannError("points and max_retries must be at least 1")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise EhresmannError(f"tol must be finite and non-negative, got {self.tol}")
        if not (math.isfinite(self.low) and math.isfinite(self.high) and self.low < self.high):
            raise EhresmannError(f"need finite low < high, got [{self.low}, {self.high}]")

    def rng(self):
        return random.Random(self.seed)


DEFAULT_PROBE = ProbeConfig()


def probe_values(at, names, probe: ProbeConfig = DEFAULT_PROBE):
    """Yield ``at(bindings)`` at ``probe.points`` seeded points drawn
    uniformly over ``names``, lazily, so a caller can stop at the first
    deciding point.  A point where ``at`` raises :class:`DomainError` is
    redrawn; after ``probe.max_retries`` draws for one point the loop
    raises :class:`UnprobeableError`.  Every probed verdict draws its
    points here."""
    rng = probe.rng()
    for _ in range(probe.points):
        for _ in range(probe.max_retries):
            bindings = {name: rng.uniform(probe.low, probe.high) for name in names}
            try:
                value = at(bindings)
            except DomainError:
                continue
            break
        else:
            raise UnprobeableError(
                f"no valid probe point found in {probe.max_retries} attempts"
            )
        yield value


def is_zero(e: Expr, probe: ProbeConfig = DEFAULT_PROBE) -> bool:
    """True iff the expression vanishes identically, decided by structural
    normalization plus random probing with relative tolerance.  The
    normalized tree is compiled once per process and probed at every
    point.  A probe point where the value or the scale is not finite counts
    as out of domain: a non-finite number is never zero."""
    normalized = normalize(e)
    if isinstance(normalized, Const):
        return abs(normalized.value) <= probe.tol
    names = sorted(free_variables(normalized))
    values = probe_values(_evaluate_scaled(normalized, names), names, probe)
    return all(abs(value) <= probe.tol * (1.0 + scale) for value, scale in values)


def all_zero(exprs, probe: ProbeConfig = DEFAULT_PROBE) -> bool:
    """True iff every expression of ``exprs`` vanishes by :func:`is_zero`,
    decided in order and stopping at the first that does not; an empty
    table vanishes.  Each entry is probed on its own, with its own draws."""
    return all(is_zero(e, probe) for e in exprs)
