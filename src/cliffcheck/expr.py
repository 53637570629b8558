"""Closed-form expression language with exact second-order forward-mode jets.

Grammar (EBNF, also reproduced in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;

``^`` binds tighter than unary minus, so ``-t^2`` parses as ``-(t^2)``.
Evaluation is over plain floats (:func:`evaluate`) or second-order jets
(:func:`evaluate_jet2`): value, gradient and Hessian with respect to the four
chart coordinates, exact to machine precision.  Parameters are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DomainEvalError, ParseError, UnboundIdentifierError

# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


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
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

FUNCTIONS = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1,
    "sinh": 1, "cosh": 1, "tanh": 1, "pow": 2,
}

ZERO = Num(0.0)
ONE = Num(1.0)


def const(v: float) -> Num:
    return Num(float(v))


def var(name: str) -> Var:
    return Var(name)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


# -- tokenizer / parser --------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    column: int  # 1-based


def _tokenize(src: str) -> list:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        col = i + 1
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", col)
            tokens.append(_Token("num", text, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], col))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, col))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, col))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, col))
            i += 1
            continue
        if c == ",":
            tokens.append(_Token("comma", c, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.column)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Pow(base, self.parse_unary())  # right associative
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{tok.text}'", tok.column)
                self.advance()
                args = [self.parse_expr()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect("rparen", "')'")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ParseError(
                        f"function '{tok.text}' takes {FUNCTIONS[tok.text]} argument(s)",
                        tok.column,
                    )
                return Call(tok.text, tuple(args))
            return Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        raise ParseError("expected a value", tok.column)


def parse(src: str) -> Expr:
    if not src or not src.strip():
        raise ParseError("empty expression", 1)
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.column)
    return node


# -- serialization ---------------------------------------------------------------

_PREC = {"add": 1, "mul": 2, "unary": 3, "pow": 4, "atom": 5}


def _fmt_num(v: float) -> str:
    return repr(v)


def _serialize(e: Expr) -> tuple:
    # returns (text, precedence level)
    if isinstance(e, Num):
        if e.value < 0.0:
            return f"-{_fmt_num(-e.value)}", _PREC["unary"]
        return _fmt_num(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Neg):
        t, p = _serialize(e.arg)
        if p < _PREC["unary"]:
            t = f"({t})"
        return f"-{t}", _PREC["unary"]
    if isinstance(e, (Add, Sub)):
        lt, lp = _serialize(e.left)
        rt, rp = _serialize(e.right)
        if lp < _PREC["add"]:
            lt = f"({lt})"
        if rp <= _PREC["add"]:
            rt = f"({rt})"
        op = "+" if isinstance(e, Add) else "-"
        return f"{lt} {op} {rt}", _PREC["add"]
    if isinstance(e, (Mul, Div)):
        lt, lp = _serialize(e.left)
        rt, rp = _serialize(e.right)
        if lp < _PREC["mul"]:
            lt = f"({lt})"
        if rp <= _PREC["mul"]:
            rt = f"({rt})"
        op = "*" if isinstance(e, Mul) else "/"
        return f"{lt}{op}{rt}", _PREC["mul"]
    if isinstance(e, Pow):
        lt, lp = _serialize(e.left)
        rt, rp = _serialize(e.right)
        if lp <= _PREC["pow"]:
            lt = f"({lt})"
        if rp < _PREC["pow"]:
            rt = f"({rt})"
        return f"{lt}^{rt}", _PREC["pow"]
    if isinstance(e, Call):
        args = ", ".join(_serialize(a)[0] for a in e.args)
        return f"{e.func}({args})", _PREC["atom"]
    raise TypeError(f"not an Expr node: {e!r}")


def serialize(e: Expr) -> str:
    return _serialize(e)[0]


def free_names(e: Expr) -> frozenset:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_names(e.arg)
    if isinstance(e, Call):
        out = frozenset()
        for a in e.args:
            out |= free_names(a)
        return out
    return free_names(e.left) | free_names(e.right)


# -- second-order jets ------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian w.r.t. the four coordinates."""

    val: float
    grad: np.ndarray  # (4,)
    hess: np.ndarray  # (4,4)

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.val + other.val, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.val - other.val, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.val, -self.grad, -self.hess)

    def __mul__(self, other: "Jet2") -> "Jet2":
        cross = np.outer(self.grad, other.grad)
        return Jet2(
            self.val * other.val,
            self.val * other.grad + other.val * self.grad,
            self.val * other.hess + other.val * self.hess + cross + cross.T,
        )


def _jet_const(v: float) -> Jet2:
    return Jet2(float(v), np.zeros(4), np.zeros((4, 4)))


def _jet_coord(v: float, axis: int) -> Jet2:
    g = np.zeros(4)
    g[axis] = 1.0
    return Jet2(float(v), g, np.zeros((4, 4)))


def _jet_div(a: Jet2, b: Jet2, where: str) -> Jet2:
    if b.val == 0.0:
        raise DomainEvalError("division by zero", where)
    val = a.val / b.val
    grad = (a.grad - val * b.grad) / b.val
    cross = np.outer(grad, b.grad)
    hess = (a.hess - val * b.hess - cross - cross.T) / b.val
    return Jet2(val, grad, hess)


def _jet_chain(a: Jet2, f: float, d1: float, d2: float) -> Jet2:
    outer = np.outer(a.grad, a.grad)
    return Jet2(f, d1 * a.grad, d1 * a.hess + d2 * outer)


def _jet_int_pow(a: Jet2, n: int, where: str) -> Jet2:
    if n == 0:
        return _jet_const(1.0)
    if n < 0:
        return _jet_div(_jet_const(1.0), _jet_int_pow(a, -n, where), where)
    out = a
    for _ in range(n - 1):
        out = out * a
    return out


def _jet_pow(base: Jet2, expo: Jet2, const_expo: bool, where: str) -> Jet2:
    if const_expo and float(expo.val).is_integer() and abs(expo.val) <= 64:
        return _jet_int_pow(base, int(expo.val), where)
    if base.val <= 0.0:
        raise DomainEvalError("power with non-integer exponent requires positive base", where)
    # x^y = exp(y log x)
    try:
        logx = _jet_chain(base, math.log(base.val), 1.0 / base.val, -1.0 / base.val**2)
        z = expo * logx
        ez = math.exp(z.val)
    except OverflowError:
        raise DomainEvalError("overflow", where) from None
    return _jet_chain(z, ez, ez, ez)


_UNARY_JET = {
    "sin": lambda v: (math.sin(v), math.cos(v), -math.sin(v)),
    "cos": lambda v: (math.cos(v), -math.sin(v), -math.cos(v)),
    "tan": lambda v: (math.tan(v), 1.0 + math.tan(v) ** 2, 2.0 * math.tan(v) * (1.0 + math.tan(v) ** 2)),
    "exp": lambda v: (math.exp(v), math.exp(v), math.exp(v)),
    "sinh": lambda v: (math.sinh(v), math.cosh(v), math.sinh(v)),
    "cosh": lambda v: (math.cosh(v), math.sinh(v), math.cosh(v)),
    "tanh": lambda v: (math.tanh(v), 1.0 - math.tanh(v) ** 2, -2.0 * math.tanh(v) * (1.0 - math.tanh(v) ** 2)),
}


def _eval_jet(e: Expr, names: Mapping[str, Jet2], coord_names: frozenset) -> Jet2:
    if isinstance(e, Num):
        return _jet_const(e.value)
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise UnboundIdentifierError(
                f"identifier '{e.name}' is neither a coordinate nor a parameter"
            ) from None
    if isinstance(e, Neg):
        return -_eval_jet(e.arg, names, coord_names)
    if isinstance(e, Add):
        return _eval_jet(e.left, names, coord_names) + _eval_jet(e.right, names, coord_names)
    if isinstance(e, Sub):
        return _eval_jet(e.left, names, coord_names) - _eval_jet(e.right, names, coord_names)
    if isinstance(e, Mul):
        return _eval_jet(e.left, names, coord_names) * _eval_jet(e.right, names, coord_names)
    if isinstance(e, Div):
        return _jet_div(_eval_jet(e.left, names, coord_names), _eval_jet(e.right, names, coord_names), serialize(e))
    if isinstance(e, Pow):
        return _jet_pow(_eval_jet(e.left, names, coord_names), _eval_jet(e.right, names, coord_names),
                        not (free_names(e.right) & coord_names), serialize(e))
    if isinstance(e, Call):
        if e.func == "pow":
            return _jet_pow(_eval_jet(e.args[0], names, coord_names), _eval_jet(e.args[1], names, coord_names),
                            not (free_names(e.args[1]) & coord_names), serialize(e))
        a = _eval_jet(e.args[0], names, coord_names)
        if e.func == "log" and a.val <= 0.0:
            raise DomainEvalError("log of non-positive value", serialize(e))
        if e.func == "sqrt":
            if a.val < 0.0:
                raise DomainEvalError("sqrt of negative value", serialize(e))
            if a.val == 0.0:
                raise DomainEvalError("sqrt not differentiable at zero", serialize(e))
            s = math.sqrt(a.val)
            return _jet_chain(a, s, 0.5 / s, -0.25 / (s * a.val))
        try:
            if e.func == "log":
                f, d1, d2 = math.log(a.val), 1.0 / a.val, -1.0 / a.val**2
            else:
                f, d1, d2 = _UNARY_JET[e.func](a.val)
        except OverflowError:
            raise DomainEvalError("overflow", serialize(e)) from None
        return _jet_chain(a, f, d1, d2)
    raise TypeError(f"not an Expr node: {e!r}")


def evaluate_jet2(
    e: Expr,
    coords: Sequence[str],
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> Jet2:
    """Evaluate value, gradient and Hessian at ``point`` (coordinate order)."""
    names: dict = {}
    for axis, name in enumerate(coords):
        names[name] = _jet_coord(point[axis], axis)
    for name, value in (params or {}).items():
        names[name] = _jet_const(value)
    return _eval_jet(e, names, frozenset(coords))


def evaluate(
    e: Expr,
    coords: Sequence[str],
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> float:
    """Value-only fast path; bit-identical to ``evaluate_jet2(...).val``."""
    names: dict = {}
    for axis, name in enumerate(coords):
        names[name] = float(point[axis])
    for name, value in (params or {}).items():
        names[name] = float(value)
    return _eval_value(e, names, frozenset(coords))


def _eval_value(e: Expr, names: Mapping[str, float], coord_names: frozenset) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise UnboundIdentifierError(
                f"identifier '{e.name}' is neither a coordinate nor a parameter"
            ) from None
    if isinstance(e, Neg):
        return -_eval_value(e.arg, names, coord_names)
    if isinstance(e, Add):
        return _eval_value(e.left, names, coord_names) + _eval_value(e.right, names, coord_names)
    if isinstance(e, Sub):
        return _eval_value(e.left, names, coord_names) - _eval_value(e.right, names, coord_names)
    if isinstance(e, Mul):
        return _eval_value(e.left, names, coord_names) * _eval_value(e.right, names, coord_names)
    if isinstance(e, Div):
        denom = _eval_value(e.right, names, coord_names)
        if denom == 0.0:
            raise DomainEvalError("division by zero", serialize(e))
        return _eval_value(e.left, names, coord_names) / denom
    if isinstance(e, Pow):
        return _value_pow(_eval_value(e.left, names, coord_names), _eval_value(e.right, names, coord_names),
                          not (free_names(e.right) & coord_names), serialize(e))
    if isinstance(e, Call):
        if e.func == "pow":
            return _value_pow(_eval_value(e.args[0], names, coord_names), _eval_value(e.args[1], names, coord_names),
                              not (free_names(e.args[1]) & coord_names), serialize(e))
        v = _eval_value(e.args[0], names, coord_names)
        if e.func == "log":
            if v <= 0.0:
                raise DomainEvalError("log of non-positive value", serialize(e))
            return math.log(v)
        if e.func == "sqrt":
            if v < 0.0:
                raise DomainEvalError("sqrt of negative value", serialize(e))
            return math.sqrt(v)
        try:
            return getattr(math, e.func)(v)
        except OverflowError:
            raise DomainEvalError("overflow", serialize(e)) from None
    raise TypeError(f"not an Expr node: {e!r}")


def _value_pow(base: float, expo: float, const_expo: bool, where: str) -> float:
    if const_expo and float(expo).is_integer() and abs(expo) <= 64:
        n = int(expo)
        if n == 0:
            return 1.0
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        if n < 0:
            if out == 0.0:
                raise DomainEvalError("division by zero", where)
            return 1.0 / out
        return out
    if base <= 0.0:
        raise DomainEvalError("power with non-integer exponent requires positive base", where)
    try:
        return math.exp(expo * math.log(base))
    except OverflowError:
        raise DomainEvalError("overflow", where) from None
