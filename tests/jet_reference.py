"""The recursive jet evaluator, one expression at a time, as envlines ran it
before expressions were compiled into shared jet programs.  Every node is
evaluated where it occurs, and each sin, cos and tan runs its own
recurrence.  The programs must give the same jets bit for bit, and the same
domain errors."""

import numpy as np

from envlines import jets
from envlines.expr import (
    CONSTANTS,
    Apply,
    BinOp,
    Const,
    ExpressionAst,
    ExpressionDomainError,
    Neg,
    Num,
    Pow,
    Var,
    unparse,
)
from envlines.jets import MAX_ORDER, Jet, JetDomainError


def evaluate_jet(expr: ExpressionAst, t, order: int) -> Jet:
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
    if not isinstance(t, np.ndarray):
        return _eval(expr, float(t), order)
    t = t.astype(float, copy=False)
    try:
        with np.errstate(all="ignore"):
            return _eval(expr, t, order)
    except ExpressionDomainError:
        for u in t.tolist():
            _eval(expr, u, order)  # raises the error of the first failing parameter
        raise


def _eval(node: ExpressionAst, t, order: int) -> Jet:
    if isinstance(node, Num):
        return Jet.constant(node.value, t, order)
    if isinstance(node, Const):
        return Jet.constant(CONSTANTS[node.name], t, order)
    if isinstance(node, Var):
        return Jet.variable(t, order)
    if isinstance(node, Neg):
        return -_eval(node.operand, t, order)
    try:
        if isinstance(node, BinOp):
            left = _eval(node.left, t, order)
            right = _eval(node.right, t, order)
            if node.op == "+":
                result = left + right
            elif node.op == "-":
                result = left - right
            elif node.op == "*":
                result = left * right
            else:
                result = left / right
        elif isinstance(node, Pow):
            base = _eval(node.base, t, order)
            r = _eval(node.exponent, t if isinstance(t, float) else 0.0, 0).value
            n = round(r)
            if abs(r - n) <= 1e-12 * max(1.0, abs(r)):
                result = jets.powi(base, int(n))
            else:
                result = jets.powr(base, r)
        else:
            func = getattr(jets, node.func if node.func != "abs" else "absolute")
            argument = _eval(node.argument, t, order)
            if node.func in ("sin", "cos", "tan"):  # a recurrence of its own
                result = func(argument, jets.sincos_series(argument))
            else:
                result = func(argument)
        return jets.require_finite(result)
    except JetDomainError as err:
        raise ExpressionDomainError(unparse(node), t, str(err)) from err
