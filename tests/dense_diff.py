"""The derivative rule that ``expr`` once built every derivative with, kept
as the reference for the sparse rule in ``expr._diff``.  It differentiates
every node, so a subtree free of the variable still yields a product-rule
term with a literal 0 factor, which ``normalize`` then folds away.
``normalize(diff(e, name))`` is what ``differentiate`` returned before
the sparse rule.
"""

from ehresmann.errors import EvaluationError
from ehresmann.expr import ONE, ZERO, Call, Const, Neg, Pow, Prod, Sum, Var


def diff(e, name):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(diff(t, name) for t in e.terms))
    if isinstance(e, Prod):
        terms = []
        factors = e.factors
        for k in range(len(factors)):
            dk = diff(factors[k], name)
            terms.append(Prod(factors[:k] + (dk,) + factors[k + 1:]))
        return Sum(tuple(terms))
    if isinstance(e, Pow):
        db = diff(e.base, name)
        return Prod((Const(e.exponent), Pow(e.base, e.exponent - 1.0), db))
    if isinstance(e, Neg):
        return Neg(diff(e.arg, name))
    if isinstance(e, Call):
        inner = diff(e.arg, name)
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
