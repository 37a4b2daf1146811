"""The recursive tree walker that ``expr`` once evaluated with, kept as an
independent reference for the compiled evaluator and as a cheap evaluator for
finite-difference oracles, which evaluate many small trees once each.

``evaluate_scaled`` returns (value, scale) with scale = max |v| over the
values of all nodes; ``probe_value`` rejects a point as probing does.
"""

import math

from ehresmann.errors import DomainError, EvaluationError
from ehresmann.expr import Call, Const, Neg, Pow, Prod, Sum, Var, _power


def evaluate(e, bindings):
    value, _ = evaluate_scaled(e, bindings)
    return value


def evaluate_scaled(e, bindings):
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
            value, s = evaluate_scaled(term, bindings)
            total += value
            scale = max(scale, s, abs(value))
        return total, max(scale, abs(total))
    if isinstance(e, Prod):
        total, scale = 1.0, 0.0
        for factor in e.factors:
            value, s = evaluate_scaled(factor, bindings)
            total *= value
            scale = max(scale, s, abs(value))
        return total, max(scale, abs(total))
    if isinstance(e, Pow):
        base, scale = evaluate_scaled(e.base, bindings)
        value = _power(base, e.exponent)
        return value, max(scale, abs(value))
    if isinstance(e, Neg):
        value, scale = evaluate_scaled(e.arg, bindings)
        return -value, scale
    if isinstance(e, Call):
        argument, scale = evaluate_scaled(e.arg, bindings)
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


def probe_value(e, bindings):
    """(value, scale) as probing takes it: a point where either is not
    finite raises :class:`DomainError`."""
    value, scale = evaluate_scaled(e, bindings)
    if not (math.isfinite(value) and math.isfinite(scale)):
        raise DomainError(f"non-finite value {value} (scale {scale})")
    return value, scale
