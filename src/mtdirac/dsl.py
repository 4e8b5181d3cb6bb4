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
and differentiate symbolically with respect to any coordinate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

FUNCTIONS = ("exp", "sin", "cos", "sinh", "cosh", "sqrt")

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
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
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


Expr = Union[Const, Coord, Param, Neg, Add, Sub, Mul, Div, Pow, Call]

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
        for kind in ("number", "ident", "op"):
            text = match.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, match.start(kind)))
                break
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, n_particles: int,
                 params: Mapping[str, complex]):
        self.source = source
        self.n_particles = n_particles
        self.params = params
        self.tokens = _tokenize(source)
        self.index = 0

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

    def parse(self) -> Expr:
        expr = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise DslParseError(
                f"unexpected trailing input {token.text!r}", token.position,
                self.source)
        return expr

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            right = self.factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def factor(self) -> Expr:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negate = True
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "number" or not token.text.isdigit():
                raise DslParseError(
                    "exponent must be a nonnegative integer", token.position,
                    self.source)
            self.advance()
            node = Pow(node, int(token.text))
        return Neg(node) if negate else node

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Const(complex(float(token.text)))
        if token.kind == "ident":
            self.advance()
            name = token.text
            if name == "i":
                return Const(1j)
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
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
                return Coord(k, mu)
            if name in self.params:
                return Param(name, complex(self.params[name]))
            raise DslParseError(f"unknown identifier {name!r}", token.position,
                                self.source)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
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


_UFUNC = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos,
    "sinh": np.sinh, "cosh": np.cosh,
    # + 0j turns the -0.0 imaginary part that negation or division leaves
    # on a negative real into +0.0, so it takes the documented i*sqrt(|x|)
    "sqrt": lambda value: np.sqrt(value + 0j),
}


def _eval(expr: Expr, coords) -> complex | np.ndarray:
    match expr:
        case Const(value):
            return value
        case Coord(k, mu):
            return _as_complex(coords[k - 1][mu])
        case Param(_, value):
            return value
        case Neg(arg):
            return -_eval(arg, coords)
        case Add(left, right):
            return _eval(left, coords) + _eval(right, coords)
        case Sub(left, right):
            return _eval(left, coords) - _eval(right, coords)
        case Mul(left, right):
            return _eval(left, coords) * _eval(right, coords)
        case Div(left, right):
            denominator = _eval(right, coords)
            if isinstance(denominator, np.ndarray):
                if np.any(denominator == 0):
                    raise DslEvaluationError("division by zero")
            elif denominator == 0:
                raise DslEvaluationError("division by zero")
            return _eval(left, coords) / denominator
        case Pow(base, exponent):
            # np.power overflows to inf where complex ** int would raise
            return np.power(_eval(base, coords), exponent)
        case Call(func, arg):
            return _UFUNC[func](_eval(arg, coords))
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate(expr: Expr, coords) -> complex | np.ndarray:
    """Evaluate at a configuration, indexed as coords[k-1][mu].

    Coordinate entries may be scalars or numpy arrays (broadcast
    together); the result is a python complex in the scalar case.
    sqrt follows the principal branch, so sqrt(x) = i*sqrt(|x|) for
    negative real arguments.
    """
    value = _eval(expr, coords)
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
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return ZERO
    if isinstance(a, Const) and a.value == 1:
        return b
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return ZERO
    if isinstance(b, Const) and b.value == 1:
        return a
    return Div(a, b)


def differentiate(expr: Expr, k: int, mu: int) -> Expr:
    """Partial derivative with respect to coordinate (k, mu)."""
    d = lambda e: differentiate(e, k, mu)
    match expr:
        case Const(_) | Param(_, _):
            return ZERO
        case Coord(ck, cmu):
            return ONE if (ck, cmu) == (k, mu) else ZERO
        case Neg(arg):
            return _neg(d(arg))
        case Add(left, right):
            return _add(d(left), d(right))
        case Sub(left, right):
            return _sub(d(left), d(right))
        case Mul(left, right):
            return _add(_mul(d(left), right), _mul(left, d(right)))
        case Div(left, right):
            numerator = _sub(_mul(d(left), right), _mul(left, d(right)))
            return _div(numerator, _mul(right, right))
        case Pow(base, exponent):
            if exponent == 0:
                return ZERO
            if exponent == 1:
                return d(base)
            outer = _mul(Const(complex(exponent)),
                         Pow(base, exponent - 1) if exponent > 2 else
                         (base if exponent == 2 else ONE))
            return _mul(outer, d(base))
        case Call(func, arg):
            inner = d(arg)
            if func == "exp":
                return _mul(Call("exp", arg), inner)
            if func == "sin":
                return _mul(Call("cos", arg), inner)
            if func == "cos":
                return _neg(_mul(Call("sin", arg), inner))
            if func == "sinh":
                return _mul(Call("cosh", arg), inner)
            if func == "cosh":
                return _mul(Call("sinh", arg), inner)
            if func == "sqrt":
                return _div(inner, _mul(Const(2 + 0j), Call("sqrt", arg)))
    raise TypeError(f"not an expression node: {expr!r}")


def is_constant(expr: Expr) -> bool:
    """True when the expression contains no coordinate dependence."""
    match expr:
        case Const(_) | Param(_, _):
            return True
        case Coord(_, _):
            return False
        case Neg(arg) | Call(_, arg) | Pow(arg, _):
            return is_constant(arg)
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b):
            return is_constant(a) and is_constant(b)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_EXPR, _PREC_TERM, _PREC_FACTOR, _PREC_ATOM = 1, 2, 3, 4


def _format_const(value: complex) -> tuple[str, int]:
    re_, im = value.real, value.imag
    if im == 0:
        if re_ >= 0:
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
        case Add(left, right):
            text = f"{_render(left, _PREC_EXPR)} + {_render(right, _PREC_TERM)}"
            prec = _PREC_EXPR
        case Sub(left, right):
            text = f"{_render(left, _PREC_EXPR)} - {_render(right, _PREC_TERM)}"
            prec = _PREC_EXPR
        case Mul(left, right):
            text = f"{_render(left, _PREC_TERM)}*{_render(right, _PREC_FACTOR)}"
            prec = _PREC_TERM
        case Div(left, right):
            text = f"{_render(left, _PREC_TERM)}/{_render(right, _PREC_ATOM)}"
            prec = _PREC_TERM
        case Pow(base, exponent):
            text, prec = f"{_render(base, _PREC_ATOM)}^{exponent}", _PREC_FACTOR
        case Call(func, arg):
            text, prec = f"{func}({_render(arg, _PREC_EXPR)})", _PREC_ATOM
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    if prec < required:
        return f"({text})"
    return text


def to_source(expr: Expr) -> str:
    """Render an expression to parseable source (evaluation-equivalent)."""
    return _render(expr, _PREC_EXPR)
