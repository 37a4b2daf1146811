"""Generated RK4 loops.

``compile_rk4`` is the package's only RK4: once per integration it generates
one function that runs every step in a single frame, with the state, stages
and per-time values (such as the transport geometry) in local variables.  The
coefficients it steps come from :func:`expr.compile_exprs`.
"""

from __future__ import annotations

__all__ = ["box_test", "compile_rk4"]


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
