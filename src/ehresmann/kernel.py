"""Compiled numeric kernels: coefficient functions and RK4 loops.

``compile_exprs`` turns a list of expressions into one straight-line Python
function, built with ``compile`` over ``math``.  Every distinct subtree is
evaluated once per call, and the values are bit-identical to
:func:`expr.evaluate`, including which points raise :class:`DomainError`:
sums and products accumulate from 0.0 and 1.0 in the tree walker's order, and
the rare branches of a power go through :func:`expr._power` itself.

``compile_rk4`` is the package's only RK4: once per integration it generates
one function that runs every step in a single frame, with the state, stages
and per-time values (such as the transport geometry) in local variables.
"""

from __future__ import annotations

import math

from . import expr as ex
from .errors import DomainError, EvaluationError

__all__ = ["box_test", "compile_exprs", "compile_rk4"]

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


def box_test(names, bounds):
    """Source of a test that each local in ``names`` lies in its bounds."""
    return " and ".join(
        f"{float(low)!r} <= {name} <= {float(high)!r}"
        for name, (low, high) in zip(names, bounds)
    )


def compile_rk4(size, stage, env, at=(), params=()):
    """One function ``run(t, h, steps, y, *params, record=None)`` that takes
    ``steps`` RK4 steps of size ``h`` from time ``t`` for the ``size`` values
    of ``y`` and returns the final state as a list, appending ``(t, state
    tuple)`` to a ``record`` list at the start and after every step.
    ``stage(ys, ks)`` gives the lines that set the slopes ``ks`` from the
    states ``ys``, the time ``s`` and the ``params``; the lines ``at`` set
    locals that depend on ``s`` alone, once per distinct time: t + h/2 for
    stages 2 and 3, t + h for stage 4 and the next step's stage 1 (``t += h``
    is the same float as ``t + h``).  Other names resolve in ``env``; the
    lines must not assign t, h, s, half, sixth, yI, xI or kJ_I."""
    y, x = [f"y{i}" for i in range(size)], [f"x{i}" for i in range(size)]
    k1, k2, k3, k4 = ([f"k{j}_{i}" for i in range(size)] for j in range(1, 5))
    state = ", ".join(y) + ","

    def towards(c, k):  # the state at which the next stage is taken
        return [f"{a} = {b} + {c} * {d}" for a, b, d in zip(x, y, k)]

    step = [
        *stage(y, k1), "s = t + half", *at,
        *towards("half", k1), *stage(x, k2),
        *towards("half", k2), *stage(x, k3), "s = t + h", *at,
        *towards("h", k3), *stage(x, k4),
        *(f"{a} = {a} + sixth * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})"
          for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)),
        "t += h",
        "if record is not None:",
        f"    record.append((t, ({state})))",
    ]
    source = "\n".join([
        f"def _rk4(t, h, steps, y, {''.join(p + ', ' for p in params)}record=None):",
        "    half, sixth = h / 2.0, h / 6.0",
        f"    {state} = y",
        "    if record is not None:",
        f"        record.append((t, ({state})))",
        "    s = t",
        *("    " + line for line in at),
        "    for _ in range(steps):",
        *("        " + line for line in step),
        f"    return [{state}]",
    ])
    exec(compile(source, "<ehresmann.kernel>", "exec"), env)
    return env["_rk4"]
