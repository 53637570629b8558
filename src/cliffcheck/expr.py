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

Jets are evaluated at one point or at N points in one tree walk.  A point of
shape (4,) gives a :class:`Jet2` with ``val`` a float, ``grad`` (4,) and
``hess`` (4, 4); points of shape (N, 4) give ``val`` (N,), ``grad`` (N, 4)
and ``hess`` (N, 4, 4).  Lane i is bitwise equal to evaluating point i alone.
:class:`ChunkJets` holds the jets of several expressions over a chunk of
points and hands each point its own lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainEvalError, ExprError, ParseError, UnboundIdentifierError

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
    """Value, gradient and (symmetric) Hessian w.r.t. the four coordinates.

    At one point ``val`` is a float, ``grad`` is (4,) and ``hess`` is (4, 4);
    over N points they are (N,), (N, 4) and (N, 4, 4), one lane per point.
    """

    val: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray


# The evaluator works on (val, grad, hess) tuples with the point axis last: at
# one point a float, (4,) and (4, 4); over N points (N,), (4, N) and (4, 4, N).
# The same arithmetic serves both.  Sums, products and quotients are
# elementwise, in the same order, so every lane is bitwise what that point
# alone gives.  numpy transcendentals and ``**`` are not (they may differ in
# the last ulp), so function values and derivative scalars are computed lane
# by lane with ``math`` and Python floats (:func:`_per_lane`).


def _any(mask) -> bool:
    """Whether a condition holds at any point: ``mask`` is a bool or a bool array."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def _const(v: float, lanes: tuple) -> tuple:
    val = np.full(lanes, float(v)) if lanes else float(v)
    return val, np.zeros((4,) + lanes), np.zeros((4, 4) + lanes)


def _mul(a: tuple, b: tuple) -> tuple:
    av, ag, ah = a
    bv, bg, bh = b
    cross = ag[:, None] * bg[None, :]
    return av * bv, av * bg + bv * ag, av * bh + bv * ah + cross + cross.swapaxes(0, 1)


def _div(a: tuple, b: tuple, site: Expr) -> tuple:
    av, ag, ah = a
    bv, bg, bh = b
    if _any(bv == 0.0):
        raise DomainEvalError("division by zero", serialize(site))
    val = av / bv
    grad = (ag - val * bg) / bv
    cross = grad[:, None] * bg[None, :]
    hess = (ah - val * bh - cross - cross.swapaxes(0, 1)) / bv
    return val, grad, hess


def _chain(a: tuple, f, d1, d2) -> tuple:
    _, ag, ah = a
    outer = ag[:, None] * ag[None, :]
    return f, d1 * ag, d1 * ah + d2 * outer


# what ``math`` and Python float arithmetic raise at the limits of floating point
_MATH_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _range_error(err: ArithmeticError | ValueError, site: Expr) -> DomainEvalError:
    """An error in ``_MATH_ERRORS``, as a domain error at ``site``."""
    if isinstance(err, ValueError):  # the explicit checks leave only sin/cos/tan of +-inf
        return DomainEvalError("infinite argument", serialize(site))
    kind = "underflow" if isinstance(err, ZeroDivisionError) else "overflow"
    return DomainEvalError(kind, serialize(site))


def _per_lane(fn, v, site: Expr) -> tuple:
    """``fn(v) -> (f, d1, d2)`` with Python floats, on each lane of ``v``."""
    try:
        if isinstance(v, float):
            return fn(v)
        rows = [fn(x) for x in v.tolist()]
    except _MATH_ERRORS as err:
        raise _range_error(err, site) from None
    return tuple(np.array(rows).T)


def _sqrt_jet(v: float) -> tuple:
    s = math.sqrt(v)
    return s, 0.5 / s, -0.25 / (s * v)


_UNARY_JET = {
    "sin": lambda v: (math.sin(v), math.cos(v), -math.sin(v)),
    "cos": lambda v: (math.cos(v), -math.sin(v), -math.cos(v)),
    "tan": lambda v: (math.tan(v), 1.0 + math.tan(v) ** 2, 2.0 * math.tan(v) * (1.0 + math.tan(v) ** 2)),
    "exp": lambda v: (math.exp(v), math.exp(v), math.exp(v)),
    "log": lambda v: (math.log(v), 1.0 / v, -1.0 / v**2),
    "sqrt": _sqrt_jet,
    "sinh": lambda v: (math.sinh(v), math.cosh(v), math.sinh(v)),
    "cosh": lambda v: (math.cosh(v), math.sinh(v), math.cosh(v)),
    "tanh": lambda v: (math.tanh(v), 1.0 - math.tanh(v) ** 2, -2.0 * math.tanh(v) * (1.0 - math.tanh(v) ** 2)),
}


def _small_int_exponent(expo: float, expo_node: Expr, coord_names: frozenset) -> int | None:
    """``expo`` as an int when the exponent is a coordinate-free integer of at most 64."""
    if float(expo).is_integer() and abs(expo) <= 64 and not (free_names(expo_node) & coord_names):
        return int(expo)
    return None


def _int_pow(a: tuple, n: int, site: Expr) -> tuple:
    if n == 0:
        return _const(1.0, np.shape(a[0]))
    if n < 0:
        return _div(_const(1.0, np.shape(a[0])), _int_pow(a, -n, site), site)
    out = a
    for _ in range(n - 1):
        out = _mul(out, a)
    return out


def _pow(base: tuple, expo: tuple, expo_node: Expr, coord_names: frozenset, site: Expr) -> tuple:
    # a coordinate-free exponent has the same value at every point
    n = _small_int_exponent(expo[0] if isinstance(expo[0], float) else expo[0][0], expo_node, coord_names)
    if n is not None:
        return _int_pow(base, n, site)
    if _any(base[0] <= 0.0):
        raise DomainEvalError("power with non-integer exponent requires positive base", serialize(site))
    # x^y = exp(y log x)
    z = _mul(expo, _chain(base, *_per_lane(_UNARY_JET["log"], base[0], site)))
    return _chain(z, *_per_lane(_UNARY_JET["exp"], z[0], site))


def _eval_jet(e: Expr, names: Mapping[str, tuple], coord_names: frozenset, lanes: tuple) -> tuple:
    if isinstance(e, Num):
        return _const(e.value, lanes)
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise UnboundIdentifierError(
                f"identifier '{e.name}' is neither a coordinate nor a parameter"
            ) from None
    if isinstance(e, Neg):
        v, g, h = _eval_jet(e.arg, names, coord_names, lanes)
        return -v, -g, -h
    if isinstance(e, (Add, Sub)):
        a = _eval_jet(e.left, names, coord_names, lanes)
        b = _eval_jet(e.right, names, coord_names, lanes)
        if isinstance(e, Add):
            return a[0] + b[0], a[1] + b[1], a[2] + b[2]
        return a[0] - b[0], a[1] - b[1], a[2] - b[2]
    if isinstance(e, Mul):
        return _mul(_eval_jet(e.left, names, coord_names, lanes), _eval_jet(e.right, names, coord_names, lanes))
    if isinstance(e, Div):
        return _div(_eval_jet(e.left, names, coord_names, lanes), _eval_jet(e.right, names, coord_names, lanes), e)
    if isinstance(e, Pow):
        return _pow(_eval_jet(e.left, names, coord_names, lanes), _eval_jet(e.right, names, coord_names, lanes),
                    e.right, coord_names, e)
    if isinstance(e, Call):
        if e.func == "pow":
            return _pow(_eval_jet(e.args[0], names, coord_names, lanes),
                        _eval_jet(e.args[1], names, coord_names, lanes), e.args[1], coord_names, e)
        a = _eval_jet(e.args[0], names, coord_names, lanes)
        if e.func == "log" and _any(a[0] <= 0.0):
            raise DomainEvalError("log of non-positive value", serialize(e))
        if e.func == "sqrt":
            if _any(a[0] < 0.0):
                raise DomainEvalError("sqrt of negative value", serialize(e))
            if _any(a[0] == 0.0):
                raise DomainEvalError("sqrt not differentiable at zero", serialize(e))
        return _chain(a, *_per_lane(_UNARY_JET[e.func], a[0], e))
    raise TypeError(f"not an Expr node: {e!r}")


def evaluate_jet2(
    e: Expr,
    coords: Sequence[str],
    point: Sequence[float] | np.ndarray,
    params: Mapping[str, float] | None = None,
) -> Jet2:
    """Evaluate value, gradient and Hessian at ``point`` (coordinate order).

    ``point`` is one point, shape (4,), or N points, shape (N, 4); the jet
    has the matching shapes (see :class:`Jet2`).  Lane i of a batch is
    bitwise equal to evaluating point i alone.  A batch raises when any of
    its points would: the error is that of the first failing operation in
    tree order, which need not be the one a given point raises alone.
    """
    pts = np.asarray(point, dtype=float)
    lanes = pts.shape[:-1]
    vals = pts.T.copy() if lanes else pts.tolist()  # vals[axis]: that coordinate's values
    units = np.zeros((4, 4) + lanes)
    units[range(4), range(4)] = 1.0
    hess = np.zeros((4, 4) + lanes)  # shared: no operation writes into its operands
    names = {name: (vals[axis], units[axis], hess) for axis, name in enumerate(coords)}
    for name, value in (params or {}).items():
        names[name] = _const(value, lanes)
    with np.errstate(all="ignore"):  # non-finite lanes are judged downstream
        val, grad, hess = _eval_jet(e, names, frozenset(coords), lanes)
    if lanes:
        return Jet2(val, grad.T, hess.transpose(2, 0, 1))
    return Jet2(val, grad, hess)


def point_jets(coords: Sequence[str], point, params: Mapping[str, float] | None = None
               ) -> Callable[[Expr], Jet2]:
    """The jet source of one point: each expression is evaluated there alone."""
    return lambda e: evaluate_jet2(e, coords, point, params)


class ChunkJets:
    """Jets of several expressions over a chunk of points, read one point at a time.

    Each expression is evaluated once for the whole chunk.  ``at(i)`` is the
    jet source of the chunk's point i: a function from an expression to its
    jet there; ``block(start, stop)`` is that of points ``start:stop``, with
    the jets of the block (see :func:`evaluate_jet2`).  An expression whose
    chunk evaluation raised, or that was not listed, is evaluated at point i
    alone (or on the block) when asked for, so every point gets exactly the
    jet or the error it would get without the chunk.
    """

    def __init__(self, exprs: Iterable[Expr], coords: Sequence[str], points,
                 params: Mapping[str, float] | None = None):
        self.coords = tuple(coords)
        self.points = np.asarray(points, dtype=float)
        self.params = params
        self._jets: dict = {}  # id(expr) -> (expr, chunk jet or None)
        for e in exprs:
            if id(e) in self._jets:
                continue
            try:
                jet = evaluate_jet2(e, self.coords, self.points, params)
            except (ExprError, *_MATH_ERRORS):
                jet = None
            self._jets[id(e)] = (e, jet)

    def at(self, i: int) -> Callable[[Expr], Jet2]:
        return partial(self._jet, i)

    def block(self, start: int, stop: int) -> Callable[[Expr], Jet2]:
        return partial(self._jet, slice(start, stop))

    def _jet(self, index: int | slice, e: Expr) -> Jet2:
        known, jet = self._jets.get(id(e), (None, None))
        if known is not e or jet is None:
            return evaluate_jet2(e, self.coords, self.points[index], self.params)
        val = jet.val[index]
        return Jet2(val if isinstance(index, slice) else float(val), jet.grad[index], jet.hess[index])


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
                          e.right, coord_names, e)
    if isinstance(e, Call):
        if e.func == "pow":
            return _value_pow(_eval_value(e.args[0], names, coord_names), _eval_value(e.args[1], names, coord_names),
                              e.args[1], coord_names, e)
        v = _eval_value(e.args[0], names, coord_names)
        if e.func == "log" and v <= 0.0:
            raise DomainEvalError("log of non-positive value", serialize(e))
        if e.func == "sqrt" and v < 0.0:
            raise DomainEvalError("sqrt of negative value", serialize(e))
        try:
            return getattr(math, e.func)(v)
        except _MATH_ERRORS as err:
            raise _range_error(err, e) from None
    raise TypeError(f"not an Expr node: {e!r}")


def _value_pow(base: float, expo: float, expo_node: Expr, coord_names: frozenset, site: Expr) -> float:
    n = _small_int_exponent(expo, expo_node, coord_names)
    if n is not None:
        if n == 0:
            return 1.0
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        if n < 0:
            if out == 0.0:
                raise DomainEvalError("division by zero", serialize(site))
            return 1.0 / out
        return out
    if base <= 0.0:
        raise DomainEvalError("power with non-integer exponent requires positive base", serialize(site))
    try:
        return math.exp(expo * math.log(base))
    except (OverflowError, ZeroDivisionError) as err:
        raise _range_error(err, site) from None
