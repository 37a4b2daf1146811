"""Compiled numeric kernels and the package's fixed-step RK4 integrator.

``compile_exprs`` turns a list of expressions into one straight-line Python
function, built with ``compile`` over ``math``.  Every distinct subtree is
evaluated once per call, and the values are bit-identical to
:func:`expr.evaluate`, including which points raise :class:`DomainError`:
sums and products accumulate from 0.0 and 1.0 in the tree walker's order, and
the rare branches of a power go through :func:`expr._power` itself.
"""

from __future__ import annotations

import math

from . import expr as ex
from .errors import DomainError, EvaluationError

__all__ = ["compile_exprs", "rk4"]

_CHAIN = 256  # operands per statement of a long sum or product


def compile_exprs(exprs, names):
    """One function ``f(*values)`` returning the list of the expressions'
    values at the point ``dict(zip(names, values))``; the values must be
    floats.  A variable outside ``names`` raises :class:`EvaluationError`
    here, not at call time."""
    args = {name: f"a{k}" for k, name in enumerate(names)}
    env = {
        "_sin": math.sin,
        "_cos": math.cos,
        "_exp": math.exp,
        "_log": math.log,
        "_power": ex._power,
        "_DomainError": DomainError,
    }
    lines = []
    atoms = {}  # operation on atoms -> variable holding its value

    def bind(value):
        name = f"c{len(env)}"
        env[name] = value
        return name

    def emit(e):
        if isinstance(e, ex.Const):
            # repr of inf/nan is not source; -0.0 keeps its sign as a literal
            return f"({e.value!r})" if math.isfinite(e.value) else bind(e.value)
        if isinstance(e, ex.Var):
            if e.name not in args:
                raise EvaluationError(f"unbound variable {e.name!r}")
            return args[e.name]
        if isinstance(e, ex.Sum):
            key = ("+",) + tuple(emit(t) for t in e.terms)
        elif isinstance(e, ex.Prod):
            key = ("*",) + tuple(emit(f) for f in e.factors)
        elif isinstance(e, ex.Neg):
            key = ("-", emit(e.arg))
        elif isinstance(e, ex.Pow):
            key = ("^", emit(e.base), e.exponent)
        elif isinstance(e, ex.Call):
            if e.func not in ex._FUNCTIONS:
                raise EvaluationError(f"unknown function {e.func!r}")
            key = (e.func, emit(e.arg))
        else:
            raise TypeError(f"not an expression: {e!r}")
        if key not in atoms:
            atoms[key] = f"v{len(atoms)}"
            lines.extend(_statements(atoms[key], key, bind))
        return atoms[key]

    results = [emit(e) for e in exprs]
    source = "\n".join(
        [f"def _kernel({', '.join(args.values())}):"]
        + lines
        + [f"    return [{', '.join(results)}]"]
    )
    exec(compile(source, "<ehresmann.kernel>", "exec"), env)
    return env["_kernel"]


def _statements(v, key, bind):
    """Source lines assigning to ``v`` the value of one operation on atoms."""
    op, operands = key[0], key[1:]
    if op == "+" or op == "*":
        # left to right from 0.0 or 1.0, as the tree walker accumulates; long
        # chains are cut into statements to stay within the compiler's depth
        total, lines = "0.0" if op == "+" else "1.0", []
        for start in range(0, max(len(operands), 1), _CHAIN):
            chain = (total,) + operands[start:start + _CHAIN]
            lines.append(f"    {v} = {f' {op} '.join(chain)}")
            total = v
        return lines
    if op == "-":
        return [f"    {v} = -{operands[0]}"]
    a = operands[0]
    if op == "sin" or op == "cos":
        return [
            "    try:",
            f"        {v} = _{op}({a})",
            "    except ValueError:",
            f'        raise _DomainError(f"{op} of non-finite value {{{a}}}")',
        ]
    if op == "exp":
        return [
            "    try:",
            f"        {v} = _exp({a})",
            "    except OverflowError:",
            f'        raise _DomainError(f"exp overflow at {{{a}}}")',
        ]
    if op == "log":
        return [
            f"    if {a} <= 0.0:",
            f'        raise _DomainError(f"log of non-positive value {{{a}}}")',
            f"    {v} = _log({a})",
        ]
    exponent = operands[1]
    if not math.isfinite(exponent):
        return [f"    {v} = _power({a}, {bind(exponent)})"]
    # the common base is computed inline; zero and negative bases take
    # _power's branches, which raise the same DomainError as the tree walker
    if exponent == int(exponent):
        power, fast = repr(int(exponent)), f"{a} != 0.0"
    else:
        power, fast = repr(exponent), f"{a} > 0.0"
    return [
        "    try:",
        f"        {v} = {a} ** {power} if {fast} else _power({a}, {power})",
        "    except OverflowError:",
        '        raise _DomainError("power overflow")',
    ]


def rk4(rhs, y0, t0, h, steps, record=None):
    """Classical fixed-step RK4 for y' = rhs(t, y): ``steps`` steps of size
    ``h`` from ``t0``.  Returns the final state as a list; when ``record`` is
    a list, ``(t, y)`` is appended to it at the start and after every step."""
    half, sixth = h / 2.0, h / 6.0
    t, y = t0, list(y0)
    if record is not None:
        record.append((t, y))
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        t += h
        if record is not None:
            record.append((t, y))
    return y
