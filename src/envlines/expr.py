"""Parser and jet evaluator for the one-variable expression mini-language.

Grammar (whitespace-insensitive, ASCII):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 'pi' | 'e' | 't' | func arg | '(' expr ')'
    arg    := '-' arg | atom
    func   := sin | cos | tan | atan | exp | log | sqrt | abs

'^' is right-associative and binds tighter than unary minus, so "-t^2"
parses as -(t^2).  A function may take its argument by juxtaposition
("sin t"), which binds tightly: "cos t^2" is (cos t)^2.  A power whose
exponent mentions t is rewritten at parse time as exp(exponent*log(base));
constant exponents keep a dedicated power node so that integer powers stay
valid for non-positive bases.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import MAX_ORDER, Jet, JetDomainError

# Parentheses, unary minus, function calls, powers and chains of binary
# operators each add a level; the cap keeps the parser and every recursive
# walk of the tree (evaluation, unparsing) far inside Python's stack.
MAX_NESTING = 100
FUNCTIONS = ("abs", "atan", "cos", "exp", "log", "sin", "sqrt", "tan")
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLE = "t"


class ParseError(ValueError):
    """Syntax error with the byte offset and the tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected one of: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """An identifier that is not t, pi, e, or a known function name."""

    def __init__(self, name: str, offset: int):
        self.name = name
        ParseError.__init__(self, f"unknown identifier '{name}'", offset)


class ExpressionDomainError(ValueError):
    """Evaluation left the domain of a sub-expression at some t."""

    def __init__(self, subexpr: str, t: float, reason: str):
        self.subexpr = subexpr
        self.t = t
        super().__init__(f"domain error in '{subexpr}' at t = {t!r}: {reason}")


# -- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "ExpressionAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExpressionAst"
    right: "ExpressionAst"


@dataclass(frozen=True)
class Pow:
    base: "ExpressionAst"
    exponent: "ExpressionAst"  # contains no Var node


@dataclass(frozen=True)
class Apply:
    func: str
    argument: "ExpressionAst"


ExpressionAst = Num | Const | Var | Neg | BinOp | Pow | Apply


def _children(node: ExpressionAst) -> tuple[ExpressionAst, ...]:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    if isinstance(node, Apply):
        return (node.argument,)
    return ()


def contains_variable(node: ExpressionAst) -> bool:
    return isinstance(node, Var) or any(map(contains_variable, _children(node)))


# -- tokenizer -------------------------------------------------------------

# digits with an optional fraction, or a bare fraction; then an optional exponent
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_ATOM_EXPECTED = ("'('", "'-'", "'e'", "'pi'", "'t'", "function", "number")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    if not source.isascii():
        for i, ch in enumerate(source):
            if not ch.isascii():
                raise ParseError(f"non-ASCII character {ch!r}", len(source[:i].encode()))
    out: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            out.append(_Token("op", ch, i))
            i += 1
            continue
        number = _NUMBER.match(source, i)
        if number:
            out.append(_Token("number", number.group(), i))
            i = number.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            out.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


# -- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def match_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expr(self) -> ExpressionAst:
        node = self.term()
        while (tok := self.match_op("+", "-")) is not None:
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self) -> ExpressionAst:
        node = self.factor()
        while (tok := self.match_op("*", "/")) is not None:
            node = BinOp(tok.text, node, self.factor())
        return node

    @contextmanager
    def nested(self):
        # factor and arg are where the parser recurses
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(self.peek().offset)
        yield
        self.depth -= 1

    def factor(self) -> ExpressionAst:
        with self.nested():
            if self.match_op("-"):
                return Neg(self.factor())
            node = self.atom()
            if self.match_op("^"):
                exponent = self.factor()
                return _make_power(node, exponent)
            return node

    def arg(self) -> ExpressionAst:
        with self.nested():
            if self.match_op("-"):
                return Neg(self.arg())
            return self.atom()

    def atom(self) -> ExpressionAst:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {tok.text!r} overflows", tok.offset)
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if tok.text == VARIABLE:
                return Var()
            if tok.text in CONSTANTS:
                return Const(tok.text)
            if tok.text in FUNCTIONS:
                return Apply(tok.text, self.arg())
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            if not self.match_op(")"):
                bad = self.peek()
                raise ParseError(f"unclosed parenthesis near {bad.text!r}", bad.offset, ("')'",))
            return node
        label = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"unexpected {label}", tok.offset, _ATOM_EXPECTED)


def _make_power(base: ExpressionAst, exponent: ExpressionAst) -> ExpressionAst:
    if contains_variable(exponent):
        return Apply("exp", BinOp("*", exponent, Apply("log", base)))
    return Pow(base, exponent)


def parse_expression(source: str) -> ExpressionAst:
    """Parse ``source`` into an immutable AST."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0, _ATOM_EXPECTED)
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(
            f"trailing input {tail.text!r}", tail.offset,
            ("'*'", "'+'", "'-'", "'/'", "'^'", "end of input"),
        )
    if _height(node) > MAX_NESTING:  # a long chain of binary operators
        raise _too_deep(0)
    return node


def _too_deep(offset: int) -> ParseError:
    return ParseError(f"expression nested more than {MAX_NESTING} levels deep", offset)


def _height(node: ExpressionAst) -> int:
    """Height of the tree, walked without recursion."""
    height, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in _children(node))
    return height


# -- unparser ----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def unparse(node: ExpressionAst) -> str:
    """Render an AST back to source text; reparsing gives an identical tree."""
    return _render(node, 0)


def _render(node: ExpressionAst, parent: int) -> str:
    if isinstance(node, Num):
        text, prec = repr(node.value), _PREC_ATOM
    elif isinstance(node, Const):
        text, prec = node.name, _PREC_ATOM
    elif isinstance(node, Var):
        text, prec = VARIABLE, _PREC_ATOM
    elif isinstance(node, Apply):
        text, prec = f"{node.func}({_render(node.argument, 0)})", _PREC_ATOM
    elif isinstance(node, Neg):
        text, prec = f"-{_render(node.operand, _PREC_NEG)}", _PREC_NEG
    elif isinstance(node, Pow):
        # right-associative: parenthesize an exponent only below pow level
        text = f"{_render(node.base, _PREC_POW + 1)}^{_render(node.exponent, _PREC_POW)}"
        prec = _PREC_POW
    else:
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        # left-associative: the right operand needs one level more
        text = f"{_render(node.left, prec)}{node.op}{_render(node.right, prec + 1)}"
    if prec < parent:
        return f"({text})"
    return text


# -- evaluation --------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class JetProgram:
    """Straight-line jet program of one or more expressions, compiled once.

    Each distinct subexpression is one instruction, in the postorder of the
    expressions taken in turn, so a subexpression that occurs again, in the
    same expression or a later one, is evaluated once per pass; sin, cos and
    tan of one argument share one sine-cosine recurrence.  A pass releases
    each value after its last use and keeps only the jets of the expressions.
    """

    def __init__(self, exprs: tuple[ExpressionAst, ...]):
        self._code: list = []  # (step, node whose domain it checks or None, argument slots)
        self._slots: dict = {}  # structural key -> slot
        self._roots, self._ends = [], []  # per expression: its slot, the code length after it
        for expr in exprs:
            self._roots.append(self._visit(expr))
            self._ends.append(len(self._code))
        last = {slot: i for i, (_, _, args) in enumerate(self._code) for slot in args}
        self._code = [(step, node, {x for x in args if last[x] == i and x not in self._roots})
                      for i, (step, node, args) in enumerate(self._code)]  # slots dead after i

    def _emit(self, key, step, node, args: tuple[int, ...]) -> int:
        if key not in self._slots:
            self._slots[key] = len(self._code)
            self._code.append((step, node, args))
        return self._slots[key]

    def _visit(self, node: ExpressionAst) -> int:
        if isinstance(node, (Num, Const)):
            value = float(node.value) if isinstance(node, Num) else CONSTANTS[node.name]
            return self._emit(value.hex(), lambda regs, t, k: Jet.constant(value, t, k), None, ())
        if isinstance(node, Var):
            return self._emit(node, lambda regs, t, k: Jet.variable(t, k), None, ())
        if isinstance(node, Neg):
            x = self._visit(node.operand)
            return self._emit(("neg", x), lambda regs, t, k: -regs[x], None, (x,))
        if isinstance(node, BinOp):
            x, y, f = self._visit(node.left), self._visit(node.right), _BINARY[node.op]
            return self._emit((node.op, x, y), lambda regs, t, k: f(regs[x], regs[y]), node, (x, y))
        x = self._visit(node.base if isinstance(node, Pow) else node.argument)
        if isinstance(node, Pow):
            # the exponent has no t, so one point gives its value everywhere;
            # one that fails is evaluated, and fails, on every pass
            exponent = JetProgram((node.exponent,))
            try:
                folded = exponent.run(0.0, 0)[0].value
            except ExpressionDomainError:
                folded = None

            def power(regs, t, k):
                r = folded if folded is not None else exponent.run(
                    t if isinstance(t, float) else 0.0, 0)[0].value
                n = round(r)
                if abs(r - n) <= 1e-12 * max(1.0, abs(r)):
                    return jets.powi(regs[x], int(n))
                return jets.powr(regs[x], r)
            return self._emit(("^", x, node.exponent), power, node, (x,))
        f = getattr(jets, node.func if node.func != "abs" else "absolute")
        if node.func not in ("sin", "cos", "tan"):
            return self._emit((node.func, x), lambda regs, t, k: f(regs[x]), node, (x,))
        sc = self._emit(("sincos", x), lambda regs, t, k: jets.sincos_series(regs[x]), None, (x,))
        return self._emit((node.func, x), lambda regs, t, k: f(regs[x], regs[sc]), node, (x, sc))

    def run(self, t, order: int, stop: int | None = None) -> tuple[Jet, ...]:
        """One pass at ``t``: the jets of the expressions, or of the first
        expressions up to code length ``stop``, which only checks them."""
        regs: list = [None] * len(self._code)
        for i, (step, node, dead) in enumerate(self._code[:stop]):
            if node is None:
                regs[i] = step(regs, t, order)
            else:
                try:
                    regs[i] = jets.require_finite(step(regs, t, order))
                except JetDomainError as err:
                    raise ExpressionDomainError(unparse(node), t, str(err)) from err
            for slot in dead:
                regs[slot] = None
        return tuple(regs[slot] for slot in self._roots)


def evaluate_jet(expr: ExpressionAst | JetProgram, t, order: int) -> Jet | tuple[Jet, ...]:
    """Value and derivatives of ``expr`` at ``t`` up to ``order`` (0..6).

    ``t`` is a float, or a 1-d array of parameters for one jet over the whole
    grid.  Either way a domain error names the first failing parameter.  For
    a ``JetProgram`` of several expressions, one pass gives the tuple of their
    jets, and an error is the one that evaluating them in turn would raise.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
    program = expr if isinstance(expr, JetProgram) else JetProgram((expr,))
    if not isinstance(t, np.ndarray):
        result = program.run(float(t), order)
    else:
        t = t.astype(float, copy=False)
        try:
            with np.errstate(all="ignore"):  # overflow is an error, raised by require_finite
                result = program.run(t, order)
        except ExpressionDomainError:
            for end in program._ends:  # the first failing expression at its first failing t
                for u in t.tolist():
                    program.run(u, order, end)
            raise
    return result if program is expr else result[0]


def evaluate(expr: ExpressionAst, t):
    return evaluate_jet(expr, t, 0).value


# -- finite-difference oracle -------------------------------------------------

def fd_derivative(expr: ExpressionAst, t: float, order: int, h: float) -> float:
    """Central finite-difference estimate of the order-th derivative at t.

    Independent of the jet recurrences on purpose: it only evaluates values.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    f_plus = evaluate(expr, t + h)
    f_minus = evaluate(expr, t - h)
    if order == 1:
        return (f_plus - f_minus) / (2.0 * h)
    return (f_plus - 2.0 * evaluate(expr, t) + f_minus) / (h * h)
