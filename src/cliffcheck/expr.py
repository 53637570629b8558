"""Closed-form expression language with exact second-order forward-mode jets.

Grammar (EBNF, also reproduced in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;

``^`` binds tighter than unary minus, so ``-t^2`` parses as ``-(t^2)``.
Evaluation gives second-order jets (:func:`evaluate_jet2`): value,
gradient and Hessian with respect to the four chart coordinates, exact to
machine precision.  Parameters are constants.

Jets are evaluated at one point or at N points in one tree walk.  A point of
shape (4,) gives a :class:`Jet2` with ``val`` a float, ``grad`` (4,) and
``hess`` (4, 4); points of shape (N, 4) give ``val`` (N,), ``grad`` (N, 4)
and ``hess`` (N, 4, 4).  Lane i is bitwise equal to evaluating point i alone.
The walk keeps, per point, the first operation in tree order that fails
there: one point raises its error, and N points keep it in ``Jet2.errors``
with a zero jet for that point.  :class:`ChunkJets` evaluates each
expression asked for once over a chunk of points and hands its jets out a
block of points at a time.

This module is the one place where a source becomes a tree: :func:`tree`
parses a string or makes a constant of a number, and :func:`parse` keeps
the tree of each source text it has parsed.  So equal sources, wherever a
scenario holds them (metric entries, field components), are one tree, and
a :class:`ChunkJets`, keyed by tree, evaluates their jets once per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence, Union

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


PARSE_CACHE_SIZE = 4096  # distinct source texts whose trees :func:`parse` keeps
# Levels a parsed tree may have.  The walks over a tree (jets, free_names,
# serialize) recurse once per level; this leaves them room under Python's
# default recursion limit of 1000 frames.
MAX_DEPTH = 900


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(src: str) -> Expr:
    """The tree of ``src``; the same tree for the same text (a ParseError is raised anew).

    A tree deeper than :data:`MAX_DEPTH` levels is a ParseError too: a sum
    of 901 terms is 901 levels deep.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 1)
    parser = _Parser(_tokenize(src))
    try:
        node = parser.parse_expr()
    except RecursionError:  # parentheses or signs nested past the interpreter's limit
        raise ParseError("expression nested too deeply", 1) from None
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input '{tok.text}'", tok.column)
    if _deeper_than(node, MAX_DEPTH):
        raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", 1)
    return node


def _deeper_than(e: Expr, levels: int) -> bool:
    """Whether the tree ``e`` has more than ``levels`` levels, walked level by level without recursion."""
    nodes = [e]
    for _ in range(levels):
        nodes = [child for node in nodes for child in _children(node)]
        if not nodes:
            return False
    return True


def _children(e: Expr) -> tuple:
    if isinstance(e, (Num, Var)):
        return ()
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Call):
        return e.args
    return e.left, e.right


def tree(src: str | float | Expr) -> Expr:
    """A source as a tree: a string parsed by :func:`parse`, a number as a constant, a tree itself."""
    if isinstance(src, str):
        return parse(src)
    return const(src) if isinstance(src, (int, float)) else src


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
    ``errors`` maps each of the N points whose evaluation fails to the
    :class:`ExprError` that point raises alone; its jet is zero.
    """

    val: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    errors: dict = field(default_factory=dict)


# The evaluator works on (val, grad, hess) tuples with the point axis last: at
# one point a float, (4,) and (4, 4); over N points (N,), (4, N) and (4, 4, N).
# The same arithmetic serves both.  Sums, products and quotients are
# elementwise, in the same order, so every lane is bitwise what that point
# alone gives.  numpy transcendentals and ``**`` are not (they may differ in
# the last ulp), so function values and derivative scalars are computed lane
# by lane with ``math`` and Python floats (:func:`_per_lane`).


class _Walk:
    """One evaluation of an expression tree at one point or at N points.

    ``errors`` keeps, per point, the error of the first operation in tree
    order that fails there, and ``failed`` marks those points.  A failed
    lane computes on with whatever values it holds and is zeroed at the
    end (:func:`evaluate_jet2`); one point raises its error at once.
    """

    def __init__(self, names: Mapping[str, tuple], coords: Sequence[str], lanes: tuple):
        self.names = names
        self.coord_names = frozenset(coords)
        self.lanes = lanes
        self.failed = np.zeros(lanes, dtype=bool)
        self.errors: dict = {}

    def reject(self, mask, error: Callable[[], ExprError]) -> None:
        """Fail, with ``error()``, the points where ``mask`` holds and no earlier error did."""
        new = mask & ~self.failed
        if new.any():
            if not self.lanes:
                raise error()
            self.errors.update(dict.fromkeys(np.flatnonzero(new).tolist(), error()))
            self.failed = self.failed | new

    def domain(self, mask, message: str, site: Expr) -> None:
        self.reject(mask, lambda: DomainEvalError(message, serialize(site)))

    def jet(self, e: Expr) -> tuple:
        lanes = self.lanes
        if isinstance(e, Num):
            return _const(e.value, lanes)
        if isinstance(e, Var):
            if e.name in self.names:
                return self.names[e.name]
            self.reject(True, lambda: UnboundIdentifierError(
                f"identifier '{e.name}' is neither a coordinate nor a parameter"))
            return _const(0.0, lanes)
        if isinstance(e, Neg):
            v, g, h = self.jet(e.arg)
            return -v, -g, -h
        if isinstance(e, (Add, Sub)):
            a = self.jet(e.left)
            b = self.jet(e.right)
            if isinstance(e, Add):
                return a[0] + b[0], a[1] + b[1], a[2] + b[2]
            return a[0] - b[0], a[1] - b[1], a[2] - b[2]
        if isinstance(e, Mul):
            return _mul(self.jet(e.left), self.jet(e.right))
        if isinstance(e, Div):
            return _div(self.jet(e.left), self.jet(e.right), e, self)
        if isinstance(e, Pow):
            return _pow(self.jet(e.left), self.jet(e.right), e.right, e, self)
        if isinstance(e, Call):
            if e.func == "pow":
                return _pow(self.jet(e.args[0]), self.jet(e.args[1]), e.args[1], e, self)
            a = self.jet(e.args[0])
            if e.func == "log":
                self.domain(a[0] <= 0.0, "log of non-positive value", e)
            if e.func == "sqrt":
                self.domain(a[0] < 0.0, "sqrt of negative value", e)
                self.domain(a[0] == 0.0, "sqrt not differentiable at zero", e)
            return _chain(a, *_per_lane(_UNARY_JET[e.func], a[0], e, self))
        raise TypeError(f"not an Expr node: {e!r}")


def _const(v: float, lanes: tuple) -> tuple:
    val = np.full(lanes, float(v)) if lanes else float(v)
    return val, np.zeros((4,) + lanes), np.zeros((4, 4) + lanes)


def _mul(a: tuple, b: tuple) -> tuple:
    av, ag, ah = a
    bv, bg, bh = b
    cross = ag[:, None] * bg[None, :]
    return av * bv, av * bg + bv * ag, av * bh + bv * ah + cross + cross.swapaxes(0, 1)


def _div(a: tuple, b: tuple, site: Expr, walk: _Walk) -> tuple:
    av, ag, ah = a
    bv, bg, bh = b
    walk.domain(bv == 0.0, "division by zero", site)
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


def _per_lane(fn, v, site: Expr, walk: _Walk) -> tuple:
    """``fn(v) -> (f, d1, d2)`` with Python floats, on each lane of ``v``.

    A lane where ``fn`` raises fails with its :func:`_range_error` (if it
    has not failed before) and is evaluated at 1.0 instead.
    """
    xs = np.reshape(v, -1).tolist()
    rows = []
    for k, x in enumerate(xs):
        try:
            rows.append(fn(x))
        except _MATH_ERRORS as err:
            walk.reject(np.arange(len(xs)).reshape(walk.lanes) == k, partial(_range_error, err, site))
            rows.append(fn(1.0))
    return rows[0] if isinstance(v, float) else tuple(np.array(rows).T)


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


def _int_pow(a: tuple, n: int, site: Expr, walk: _Walk) -> tuple:
    if n == 0:
        return _const(1.0, np.shape(a[0]))
    if n < 0:
        return _div(_const(1.0, np.shape(a[0])), _int_pow(a, -n, site, walk), site, walk)
    out = a
    for _ in range(n - 1):
        out = _mul(out, a)
    return out


def _pow(base: tuple, expo: tuple, expo_node: Expr, site: Expr, walk: _Walk) -> tuple:
    # a coordinate-free exponent has the same value at every point
    n = _small_int_exponent(expo[0] if isinstance(expo[0], float) else expo[0][0], expo_node,
                            walk.coord_names)
    if n is not None:
        return _int_pow(base, n, site, walk)
    walk.domain(base[0] <= 0.0, "power with non-integer exponent requires positive base", site)
    # x^y = exp(y log x)
    z = _mul(expo, _chain(base, *_per_lane(_UNARY_JET["log"], base[0], site, walk)))
    return _chain(z, *_per_lane(_UNARY_JET["exp"], z[0], site, walk))


def evaluate_jet2(
    e: Expr,
    coords: Sequence[str],
    point: Sequence[float] | np.ndarray,
    params: Mapping[str, float] | None = None,
) -> Jet2:
    """Evaluate value, gradient and Hessian at ``point`` (coordinate order).

    ``point`` is one point, shape (4,), or N points, shape (N, 4); the jet
    has the matching shapes (see :class:`Jet2`).  Lane i of a batch is
    bitwise equal to evaluating point i alone.  One point raises the error
    of its first failing operation in tree order; a batch raises nothing and
    gives each failing point that error in ``errors``.
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
    walk = _Walk(names, coords, lanes)
    with np.errstate(all="ignore"):  # non-finite lanes are judged downstream
        val, grad, hess = walk.jet(e)
    if not lanes:
        return Jet2(val, grad, hess)
    if walk.errors:
        failed = walk.failed
        val, grad, hess = np.where(failed, 0.0, val), np.where(failed, 0.0, grad), np.where(failed, 0.0, hess)
    return Jet2(val, grad.T, hess.transpose(2, 0, 1), walk.errors)


def point_jets(coords: Sequence[str], point, params: Mapping[str, float] | None = None
               ) -> Callable[[Expr], Jet2]:
    """The jet source of one point: each expression is evaluated there alone."""
    return lambda e: evaluate_jet2(e, coords, point, params)


class ChunkJets:
    """Jets of expressions over a chunk of points, handed out a block at a time.

    ``block(start, stop)`` is the jet source of points ``start:stop``: a
    function from an expression to its jets there, with the errors of those
    points (see :func:`evaluate_jet2`).  Each expression is evaluated for the
    whole chunk the first time a block asks for it, and never if none does.
    """

    def __init__(self, coords: Sequence[str], points, params: Mapping[str, float] | None = None):
        self.coords = tuple(coords)
        self.points = np.asarray(points, dtype=float)
        self.params = params
        self._jets: dict = {}  # id(expr) -> (expr, chunk jet)

    def block(self, start: int, stop: int) -> Callable[[Expr], Jet2]:
        return partial(self._jet, start, stop)

    def _jet(self, start: int, stop: int, e: Expr) -> Jet2:
        if id(e) not in self._jets:  # kept with its expression, so the id is not reused
            self._jets[id(e)] = (e, evaluate_jet2(e, self.coords, self.points, self.params))
        _, jet = self._jets[id(e)]
        errors = {k - start: err for k, err in jet.errors.items() if start <= k < stop}
        return Jet2(jet.val[start:stop], jet.grad[start:stop], jet.hess[start:stop], errors)
