"""Generated functions and RK4 loops.

:func:`define` compiles every generated function, with its body in one
``try``: a line that can leave the reals is tagged with its
:class:`DomainError` message, which the one handler looks up by line number.
``compile_rk4`` is the package's only RK4: it generates one function that
runs every step in a single frame, with the state, the stages and the
geometry (a transport's curve and Gamma, a sweep's Gamma column) in local
variables, and chart-box tests from :func:`box_check`; its callers keep up
to :data:`CACHED` such loops per cache, each compiled once per geometry.
Probing keeps up to :data:`PROBED` kernels, one per distinct tree and names.
"""

from __future__ import annotations

import sys

from .errors import DomainError

__all__ = ["CACHED", "PROBED", "TAG", "box_check", "compile_rk4", "define"]

TAG = "  #! "  # separates a line from the message of the error it can raise
CACHED = 64  # compiled RK4 loops kept per cache, the least recently used dropped
PROBED = 1024  # compiled probe kernels kept, enough for a pass's distinct trees


def define(head, lines, env):
    """Compile ``def head:`` with body ``lines`` into the globals ``env``
    (one function per ``env``) and return the function, which ``env`` does
    not keep, so that it goes with its last reference.  A line
    ``statement + TAG + message`` whose statement raises ValueError or
    OverflowError raises :class:`DomainError` with ``message`` instead, its
    ``{name}`` fields filled from the function's names at that moment;
    other errors pass through."""
    source, messages = [f"def {head}:", "    try:"], {}
    for line in lines:
        statement, _, message = line.partition(TAG)
        if message:
            messages[len(source) + 1] = sys.intern(message)  # the line number it gets
        source.append("        " + statement)
    source += [
        "    except (ValueError, OverflowError) as _err:",
        "        _fail(_err)",
        "        raise",
    ]
    env.update(_fail=_fail, _messages=messages)
    exec(compile("\n".join(source), "<ehresmann.kernel>", "exec"), env)
    return env.pop(head.partition("(")[0])


def _fail(err):
    """Raise the :class:`DomainError` of the generated line at which ``err``
    was raised, if the line carries a message."""
    trace = err.__traceback__
    frame = trace.tb_frame
    message = frame.f_globals["_messages"].get(trace.tb_lineno)
    if message is not None:
        raise DomainError(message.format_map({**frame.f_globals, **frame.f_locals}))


def box_check(point, bounds, kept, args):
    """Lines raising ``_outside(args)`` unless each operand of ``point`` in
    ``kept`` lies in its ``bounds``, pairs of floats; none when none is kept."""
    tests = " and ".join(
        f"{low!r} <= {p} <= {high!r}" for p, (low, high) in zip(point, bounds) if p in kept
    )
    return [f"if not ({tests}):", f"    raise _outside({args})"] if tests else []


def compile_rk4(size, stage, env, at=(), moving=(), params=()):
    """One function ``run(t, h, steps, y, *params, record=None)`` that takes
    ``steps`` RK4 steps of size ``h`` from time ``t`` for the ``size`` values
    of ``y`` and returns the final state as a list, extending a ``record``
    list by the time and the state values at the start and after every
    step.  ``stage(ys, ks)`` gives the lines that set the slopes ``ks`` from
    the states ``ys``, the time ``s`` and the ``params``.  The lines ``at``
    set or test values of ``s`` and the ``params``, all once, at s = t, before
    the first step.  At each later time (t + h/2 for stages 2 and 3,
    t + h for stage 4 and the next step's stage 1; ``t += h`` is the same
    float as ``t + h``) only the lines ``moving`` run: the lines of ``at``
    whose values change with ``s``, and its checks cut down to what changes.
    A line of ``at`` left out of ``moving`` must keep its value, and raise
    nothing, at every time once it has run at s = t.  Lines may carry a
    :data:`TAG`.  Other names resolve in ``env``; the lines must not assign
    t, h, s, half, sixth, yI, xI, kJ_I or names starting with ``_``."""
    y, x = [f"y{i}" for i in range(size)], [f"x{i}" for i in range(size)]
    k1, k2, k3, k4 = ([f"k{j}_{i}" for i in range(size)] for j in range(1, 5))
    state = ", ".join(y) + ","

    def towards(c, k):  # the state at which the next stage is taken
        return [f"{a} = {b} + {c} * {d}" for a, b, d in zip(x, y, k)]

    step = [
        *stage(y, k1), "s = t + half", *moving,
        *towards("half", k1), *stage(x, k2),
        *towards("half", k2), *stage(x, k3), "s = t + h", *moving,
        *towards("h", k3), *stage(x, k4),
        *(f"{a} = {a} + sixth * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})"
          for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)),
        "t += h",
        "if record is not None:",
        f"    record.extend((t, {state}))",
    ]
    return define(
        f"_rk4(t, h, steps, y, {''.join(p + ', ' for p in params)}record=None)",
        [
            "half, sixth = h / 2.0, h / 6.0",
            f"{state} = y",
            "if record is not None:",
            f"    record.extend((t, {state}))",
            "s = t",
            *at,
            "for _ in range(steps):",
            *("    " + line for line in step),
            f"return [{state}]",
        ],
        env,
    )
