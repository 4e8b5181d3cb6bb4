"""Scalar coefficient expressions over configuration-spacetime coordinates.

A tiny closed language for the complex-valued coefficient fields that
multiply spinor-matrix structures in a potential:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-"? atom ("^" INT)?
    atom   := NUMBER | "i" | IDENT | FUNC "(" expr ")" | "(" expr ")"

FUNC is one of exp, sin, cos, sinh, cosh, sqrt.  IDENT is either a
coordinate ``xK_MU`` (particle K, component MU in 0..3) or a declared
parameter name.  Expressions evaluate to complex scalars (or numpy
arrays when coordinates are supplied as arrays, broadcasting as usual)
and differentiate symbolically with respect to any coordinate; a subtree
repeated as one node object is evaluated and derived once per call.
Each function is one row of ``_FUNCTIONS`` and each binary operator one
row of ``_OPERATORS``: its evaluation, derivative rule and rendering.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

#: The language's functions: name -> (evaluation, chain rule), the rule
#: taking (argument, derivative of the argument) to the call's derivative.
_FUNCTIONS = {
    "exp": (np.exp, lambda arg, d: _mul(Call("exp", arg), d)),
    "sin": (np.sin, lambda arg, d: _mul(Call("cos", arg), d)),
    "cos": (np.cos, lambda arg, d: _neg(_mul(Call("sin", arg), d))),
    "sinh": (np.sinh, lambda arg, d: _mul(Call("cosh", arg), d)),
    "cosh": (np.cosh, lambda arg, d: _mul(Call("sinh", arg), d)),
    # + 0j turns the -0.0 imaginary part that negation or division leaves
    # on a negative real into +0.0, so it takes the documented i*sqrt(|x|)
    "sqrt": (lambda value: np.sqrt(value + 0j),
             lambda arg, d: _div(d, _mul(Const(2 + 0j), Call("sqrt", arg)))),
}
FUNCTIONS = tuple(_FUNCTIONS)

_PREC_EXPR, _PREC_TERM, _PREC_FACTOR, _PREC_ATOM = 1, 2, 3, 4


def _divide(numerator, denominator):
    if np.any(denominator == 0):
        raise DslEvaluationError("division by zero")
    return numerator / denominator


#: The binary operators: symbol -> (evaluation, derivative rule, rendered
#: symbol, precedence, precedence the right operand needs), the rule taking
#: (left, right, d left, d right) to the derivative.  Every operator
#: associates to the left, so its left operand needs its own precedence.
_OPERATORS = {
    "+": (operator.add, lambda a, b, da, db: _add(da, db),
          " + ", _PREC_EXPR, _PREC_TERM),
    "-": (operator.sub, lambda a, b, da, db: _sub(da, db),
          " - ", _PREC_EXPR, _PREC_TERM),
    "*": (operator.mul, lambda a, b, da, db: _add(_mul(da, b), _mul(a, db)),
          "*", _PREC_TERM, _PREC_FACTOR),
    "/": (_divide, lambda a, b, da, db: _div(_sub(_mul(da, b), _mul(a, db)),
                                             _mul(b, b)),
          "/", _PREC_TERM, _PREC_ATOM),
}

_COORD_RE = re.compile(r"^x([0-9]+)_([0-9])$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class DslError(Exception):
    pass


class DslParseError(DslError):
    """Syntax or name error; carries the offending source position."""

    def __init__(self, message: str, position: int, source: str = ""):
        self.position = position
        self.source = source
        super().__init__(f"{message} (at position {position})")


class DslEvaluationError(DslError):
    """Raised for runtime failures such as division by zero."""


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Coord:
    k: int
    mu: int


@dataclass(frozen=True)
class Param:
    name: str
    value: complex


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Coord, Param, Neg, BinOp, Pow, Call]

ZERO = Const(0j)
ONE = Const(1 + 0j)


def is_zero(expr: Expr) -> bool:
    return isinstance(expr, Const) and expr.value == 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise DslParseError(f"unexpected character {source[bad]!r}", bad, source)
        pos = match.end()
        kind = match.lastgroup  # the one alternative that matched
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
    tokens.append(_Token("end", "", len(source)))
    return tokens


#: Deepest expression tree, and deepest nesting of parentheses, that the
#: parser accepts.  Evaluation, differentiation and rendering recurse once
#: or twice per level, and a derivative can be several times deeper than
#: its expression, so this keeps later passes within Python's recursion
#: limit.
MAX_DEPTH = 150


class _Parser:
    def __init__(self, source: str, n_particles: int,
                 params: Mapping[str, complex]):
        self.source = source
        self.n_particles = n_particles
        self.params = params
        self.tokens = _tokenize(source)
        self.index = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise DslParseError(
                f"expected {op!r}, found {token.text or 'end of input'!r}",
                token.position, self.source)
        self.advance()

    def limit(self, depth: int, token: _Token) -> int:
        if depth > MAX_DEPTH:
            raise DslParseError(
                f"expression nested more than {MAX_DEPTH} levels deep",
                token.position, self.source)
        return depth

    def parse(self) -> Expr:
        expr, _ = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise DslParseError(
                f"unexpected trailing input {token.text!r}", token.position,
                self.source)
        return expr

    def expr(self) -> tuple[Expr, int]:
        self.limit(self.nesting, self.peek())  # parentheses open here
        self.nesting += 1
        node, depth = self.operators(_PREC_EXPR)
        self.nesting -= 1
        return node, depth

    def operators(self, prec: int) -> tuple[Expr, int]:
        """A left-associative run of the operators of precedence prec."""
        if prec == _PREC_FACTOR:
            return self.factor()
        node, depth = self.operators(prec + 1)
        while (op := self.peek()).text in _OPERATORS \
                and _OPERATORS[op.text][3] == prec:
            self.advance()
            right, right_depth = self.operators(prec + 1)
            node = BinOp(op.text, node, right)
            depth = self.limit(1 + max(depth, right_depth), op)
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        start = self.peek()
        negate = start.kind == "op" and start.text == "-"
        if negate:
            self.advance()
        node, depth = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "number" or not token.text.isdigit():
                raise DslParseError(
                    "exponent must be a nonnegative integer", token.position,
                    self.source)
            self.advance()
            node, depth = Pow(node, int(token.text)), depth + 1
        if negate:
            node, depth = Neg(node), depth + 1
        return node, self.limit(depth, start)

    def atom(self) -> tuple[Expr, int]:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Const(complex(float(token.text))), 1
        if token.kind == "ident":
            self.advance()
            name = token.text
            if name == "i":
                return Const(1j), 1
            if name in FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expr()
                self.expect_op(")")
                return Call(name, arg), self.limit(depth + 1, token)
            coord = _COORD_RE.match(name)
            if coord:
                k, mu = int(coord.group(1)), int(coord.group(2))
                if not 1 <= k <= self.n_particles:
                    raise DslParseError(
                        f"coordinate {name!r} outside particles 1..{self.n_particles}",
                        token.position, self.source)
                if not 0 <= mu <= 3:
                    raise DslParseError(
                        f"coordinate component in {name!r} outside 0..3",
                        token.position, self.source)
                return Coord(k, mu), 1
            if name in self.params:
                return Param(name, complex(self.params[name])), 1
            raise DslParseError(f"unknown identifier {name!r}", token.position,
                                self.source)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node, depth = self.expr()
            self.expect_op(")")
            return node, depth
        raise DslParseError(
            f"expected a value, found {token.text or 'end of input'!r}",
            token.position, self.source)


def parse(source: str, n_particles: int = 2,
          params: Mapping[str, complex] | None = None) -> Expr:
    """Parse a coefficient expression; raises DslParseError with position."""
    reserved = set(FUNCTIONS) | {"i"}
    params = dict(params or {})
    for name in params:
        if name in reserved or _COORD_RE.match(name):
            raise DslParseError(f"parameter name {name!r} is reserved", 0, source)
    return _Parser(source, n_particles, params).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _as_complex(value):
    if isinstance(value, np.ndarray):
        return value if value.dtype == complex else value.astype(complex)
    return complex(value)


def _eval(expr: Expr, coords, memo: dict) -> complex | np.ndarray:
    if (value := memo.get(id(expr))) is not None:  # interior nodes only
        return value
    match expr:
        case Const(value) | Param(_, value):
            return value
        case Coord(k, mu):
            return _as_complex(coords[k - 1][mu])
        case Neg(arg):
            value = -_eval(arg, coords, memo)
        case BinOp(op, left, right) if op in _OPERATORS:
            value = _OPERATORS[op][0](_eval(left, coords, memo),
                                      _eval(right, coords, memo))
        case Pow(base, exponent):
            # np.power overflows to inf where complex ** int would raise
            value = np.power(_eval(base, coords, memo), exponent)
        case Call(func, arg) if func in _FUNCTIONS:
            value = _FUNCTIONS[func][0](_eval(arg, coords, memo))
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = value
    return value


def evaluate(expr: Expr, coords) -> complex | np.ndarray:
    """Evaluate at a configuration, indexed as coords[k-1][mu].

    Coordinate entries may be scalars or numpy arrays (broadcast
    together); the result is a python complex in the scalar case.
    sqrt follows the principal branch, so sqrt(x) = i*sqrt(|x|) for
    negative real arguments.
    """
    value = _eval(expr, coords, {})
    if isinstance(value, np.ndarray):
        return value
    return complex(value)


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return ZERO
    if isinstance(a, Const) and a.value == 1:
        return b
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return ZERO
    if isinstance(b, Const) and b.value == 1:
        return a
    return BinOp("/", a, b)


def differentiate(expr: Expr, k: int, mu: int) -> Expr:
    """Partial derivative with respect to coordinate (k, mu)."""
    return _derive(expr, k, mu, {})


def _derive(expr: Expr, k: int, mu: int, memo: dict) -> Expr:
    if (done := memo.get(id(expr))) is not None:
        return done
    match expr:
        case Const(_) | Param(_, _):
            return ZERO
        case Coord(ck, cmu):
            return ONE if (ck, cmu) == (k, mu) else ZERO
        case Neg(arg):
            done = _neg(_derive(arg, k, mu, memo))
        case BinOp(op, left, right) if op in _OPERATORS:
            done = _OPERATORS[op][1](left, right, _derive(left, k, mu, memo),
                                     _derive(right, k, mu, memo))
        case Pow(base, exponent):
            if exponent == 0:
                return ZERO
            done = _derive(base, k, mu, memo)
            if exponent != 1:
                outer = _mul(Const(complex(exponent)),
                             Pow(base, exponent - 1) if exponent > 2 else
                             (base if exponent == 2 else ONE))
                done = _mul(outer, done)
        case Call(func, arg) if func in _FUNCTIONS:
            done = _FUNCTIONS[func][1](arg, _derive(arg, k, mu, memo))
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = done
    return done


def leaves(expr: Expr) -> frozenset[Coord | Param]:
    """Every coordinate and parameter leaf the expression uses."""
    match expr:
        case Const(_):
            return frozenset()
        case Coord(_, _) | Param(_, _):
            return frozenset({expr})
        case Neg(arg) | Call(_, arg) | Pow(arg, _):
            return leaves(arg)
        case BinOp(_, left, right):
            return leaves(left) | leaves(right)
    raise TypeError(f"not an expression node: {expr!r}")


def coordinates(expr: Expr) -> frozenset[tuple[int, int]]:
    """The (k, mu) of every coordinate x_{k,mu} the expression uses."""
    return frozenset((leaf.k, leaf.mu) for leaf in leaves(expr)
                     if isinstance(leaf, Coord))


def is_constant(expr: Expr) -> bool:
    """True when the expression contains no coordinate dependence."""
    return not coordinates(expr)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _format_const(value: complex) -> tuple[str, int]:
    re_, im = value.real, value.imag
    if im == 0:
        if math.copysign(1.0, re_) > 0:  # -0.0 renders with its sign
            return repr(re_), _PREC_ATOM
        return repr(re_), _PREC_EXPR
    if re_ == 0:
        if im == 1:
            return "i", _PREC_ATOM
        if im >= 0:
            return f"{im!r}*i", _PREC_TERM
        return f"-{-im!r}*i", _PREC_EXPR
    sign = "+" if im >= 0 else "-"
    return f"({re_!r} {sign} {abs(im)!r}*i)", _PREC_ATOM


def _render(expr: Expr, required: int) -> str:
    match expr:
        case Const(value):
            text, prec = _format_const(value)
        case Coord(k, mu):
            text, prec = f"x{k}_{mu}", _PREC_ATOM
        case Param(name, _):
            text, prec = name, _PREC_ATOM
        case Neg(arg):
            text, prec = f"-{_render(arg, _PREC_FACTOR)}", _PREC_EXPR
        case BinOp(op, left, right) if op in _OPERATORS:
            _, _, symbol, prec, right_prec = _OPERATORS[op]
            text = f"{_render(left, prec)}{symbol}{_render(right, right_prec)}"
        case Pow(base, exponent):
            text, prec = f"{_render(base, _PREC_ATOM)}^{exponent}", _PREC_FACTOR
        case Call(func, arg) if func in _FUNCTIONS:
            text, prec = f"{func}({_render(arg, _PREC_EXPR)})", _PREC_ATOM
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    if prec < required:
        return f"({text})"
    return text


def to_source(expr: Expr) -> str:
    """Render an expression to parseable source (evaluation-equivalent)."""
    return _render(expr, _PREC_EXPR)
