"""Closed-form expression language with exact second-order forward-mode jets.

Grammar (EBNF, also reproduced in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;

``^`` binds tighter than unary minus, so ``-t^2`` parses as ``-(t^2)``.
The parser (:func:`_climb`) reads each binary operator's precedence and
associativity from :data:`_BINARY`, the table :func:`serialize` prints
from, and the functions a source may call (:data:`FUNCTIONS`) from the
evaluator's table.  A number literal past the float range is a parse error.
Evaluation gives second-order jets (:func:`evaluate_jet2`): value,
gradient and Hessian with respect to the four chart coordinates, exact to
machine precision.  Parameters are constants.

Jets are evaluated at one point or at N points, children before parents,
each distinct subtree of a tree once (:class:`_Tape`,
:meth:`_Walk.evaluate`): subtrees are equal by structure (node types,
labels, a number by its bits), not by object, and a subtree's jet is held
only until its last reader is evaluated.  A point of shape (4,) gives a
:class:`Jet2` with ``val`` a float, ``grad`` (4,) and ``hess`` (4, 4);
points of shape (N, 4) give ``val`` (N,), ``grad`` (N, 4) and ``hess``
(N, 4, 4).  Lane i is bitwise equal to evaluating point i alone.  One
point raises the error of the first operation in tree order that fails
there.  Over N points each subtree keeps ``first``, per point the index
of the first operation in its own tree order that fails there in one
list of errors, or -1, never written into: a shared subtree gives each
tree holding it that tree's first error, in ``Jet2.errors``, with a zero
jet for that point.  Over N points ``sin``, ``cos`` and ``sqrt`` are
numpy's functions, which give ``math``'s bits, and the lanes where
``math`` raises are masked with its error; the other functions, and all
of them at one point, are ``math``'s, one lane at a time.
:class:`ChunkJets` evaluates each expression asked for, and each distinct
subtree of the expressions it is given, once over a chunk of points and
hands the jets out a block of points at a time.  No points, shape (0, 4),
give empty jets and no errors.

An array of components, the metric's or a field's, has its jets as one
:class:`Jet2` stack (:func:`stack_jets`): the component axes follow the
point axis, and each point keeps the first error in component order.

A forest (:func:`evaluate_forest`) is a list of trees, each at a point of
its own: tree t at point t is lane t.  Its nodes are evaluated level by
level (:class:`_Forest`): the nodes of one height, node type and variable
name or function are one group, and each group is one step of the same
node arithmetic over its lanes.  A group of numbers holds a value per
lane, and a group of powers splits by each node's integer exponent.  Lane
t is bitwise tree t at its point alone.  Each node keeps the index of the
error of its leftmost failing child, else its own, so lane t's error is
the first failing operation in post-order, the one that point raises
alone.  A forest holds every node's jet until it ends: it suits many
small trees, as the operator selftest's random fields, and not one long
sum, whose partial sums a :class:`ChunkJets` frees one by one.

Tree nodes and :class:`Jet2` values are read-only: assigning to a field
raises ``AttributeError``.  A node's repr names its fields, as in
``Call(func='sin', args=(Var(name='r'),))``.

This module is the one place where a source becomes a tree: :func:`tree`
parses a string or makes a constant of a number, and :func:`parse` keeps
the tree of each source text it has parsed.  So equal sources, wherever a
scenario holds them (metric entries, field components), are one tree, and
a :class:`ChunkJets`, keyed by tree, evaluates their jets once per chunk.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainEvalError, ExprError, ParseError, UnboundIdentifierError, block_errors

# -- AST ---------------------------------------------------------------------


class _Node:
    """A read-only tree node whose fields are its ``__slots__``.

    Two trees are equal when their nodes in post-order have the same types,
    numbers of children and labels; equality and hash are loops over those
    lists (:func:`_postorder`), so a tree may be of any depth.  The repr
    names each field, as in ``Add(left=Num(value=1.0), right=Var(name='t'))``.
    """

    __slots__ = ()
    label = None  # what a node holds besides its children: a number, a name or a function

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        names = next(c.__slots__ for c in type(self).__mro__ if c.__slots__)  # Add's are _Binary's
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def _shape(self) -> tuple:
        nodes, counts = _postorder(self)
        return tuple(map(type, nodes)), tuple(counts), tuple(n.label for n in nodes)

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self):
        return hash(self._shape())


class Num(_Node):
    __slots__ = ("value",)
    label = property(lambda self: self.value)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(_Node):
    __slots__ = ("name",)
    label = property(lambda self: self.name)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg: "Expr"):
        object.__setattr__(self, "arg", arg)


class _Binary(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    __slots__ = ()


class Call(_Node):
    __slots__ = ("func", "args")
    label = property(lambda self: self.func)

    def __init__(self, func: str, args: tuple):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", args)


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

ZERO = Num(0.0)
ONE = Num(1.0)


def const(v: float) -> Num:
    return Num(float(v))


def is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


# -- operators, read by the parser and the printer -------------------------------

# binary node -> (operator text, precedence, right associative); only ``^`` groups right
_BINARY = {Add: (" + ", 1, False), Sub: (" - ", 1, False), Mul: ("*", 2, False), Div: ("/", 2, False),
           Pow: ("^", 4, True)}
_UNARY, _ATOM = 3, 5  # precedences of a negation and of a number, name or call
_INFIX = {text.strip(): (node, prec, right) for node, (text, prec, right) in _BINARY.items()}


# -- tokenizer / parser --------------------------------------------------------


def _tokenize(src: str) -> list:
    """The tokens of ``src``, each ``(kind, text, column)`` with a 1-based column, and an end token.

    ``kind`` is "num", "name", "end" or the character of an operator,
    parenthesis or comma.
    """
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        j = i + 1
        if c.isspace():
            i = j
            continue
        if c.isdigit() or (c == "." and j < n and src[j].isdigit()):
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
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i + 1) from None
            if math.isinf(value):  # refused, as an infinity in a scenario file is
                raise ParseError(f"number '{text}' overflows a float", i + 1)
            kind = "num"
        elif c.isalpha() or c == "_":
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            kind = "name"
        elif c in "+-*/^(),":
            kind = c
        else:
            raise ParseError(f"unexpected character {c!r}", i + 1)
        tokens.append((kind, src[i:j], i + 1))
        i = j
    tokens.append(("end", "", n + 1))
    return tokens


def is_name(text) -> bool:
    """Whether ``text`` is a string that reads as one name token, such as a variable."""
    try:
        return type(text) is str and [t[:2] for t in _tokenize(text)] == [("name", text), ("end", "")]
    except ParseError:
        return False


def _climb(tokens: list, floor: int) -> Expr:
    """The expression whose tokens end ``tokens``, a reversed token list, popping them.

    Binary operators of precedence below ``floor`` are left to the caller;
    a right operand takes those above its operator's precedence, or, for a
    right-associative operator, of that precedence too (:data:`_BINARY`).
    """
    kind, text, column = tokens.pop()
    if kind == "-":
        node = Neg(_climb(tokens, _UNARY))
    elif kind == "num":
        node = Num(float(text))
    elif kind == "(":
        node = _climb(tokens, 1)
        _close(tokens)
    elif kind == "name" and tokens[-1][0] == "(":
        node = _call(tokens, text, column)
    elif kind == "name":
        node = Var(text)
    else:
        raise ParseError("expected a value", column)
    while True:
        op = _INFIX.get(tokens[-1][0])
        if op is None or op[1] < floor:
            return node
        tokens.pop()
        binary, prec, right = op
        node = binary(node, _climb(tokens, prec + (not right)))


def _call(tokens: list, name: str, column: int) -> Call:
    """The call of function ``name``, whose "(" ends ``tokens``, popping its tokens."""
    if name not in FUNCTIONS:
        raise ParseError(f"unknown function '{name}'", column)
    tokens.pop()
    args = [_climb(tokens, 1)]
    while tokens[-1][0] == ",":
        tokens.pop()
        args.append(_climb(tokens, 1))
    _close(tokens)
    if len(args) != FUNCTIONS[name]:
        raise ParseError(f"function '{name}' takes {FUNCTIONS[name]} argument(s)", column)
    return Call(name, tuple(args))


def _close(tokens: list) -> None:
    """Pop the ")" that ends ``tokens``."""
    kind, _, column = tokens.pop()
    if kind != ")":
        raise ParseError("expected ')'", column)


PARSE_CACHE_SIZE = 4096  # distinct source texts whose trees :func:`parse` keeps


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(src: str) -> Expr:
    """The tree of ``src``; the same tree for the same text (a ParseError is raised anew)."""
    if not src.strip():
        raise ParseError("empty expression", 1)
    tokens = _tokenize(src)[::-1]  # all of them first: a bad character comes before a syntax error
    try:
        node = _climb(tokens, 1)
    except RecursionError:  # parentheses or signs nested past the interpreter's limit
        raise ParseError("expression nested too deeply", 1) from None
    kind, text, column = tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected trailing input '{text}'", column)
    return node


def _children(e: Expr) -> tuple:
    if isinstance(e, _Binary):
        return e.left, e.right
    if isinstance(e, Call):
        return e.args
    return (e.arg,) if isinstance(e, Neg) else ()


def _postorder(e: Expr) -> tuple:
    """The nodes of ``e``, children first and left to right, and the number of children of each.

    Made with a stack, not by recursion, so a tree may be of any depth: the
    nodes are listed root first, right subtree before left, and reversed.
    """
    nodes, counts, stack = [], [], [e]
    while stack:
        node = stack.pop()
        kids = _children(node)
        nodes.append(node)
        counts.append(len(kids))
        stack.extend(kids)
    nodes.reverse()
    counts.reverse()
    return nodes, counts


def _fold(e: Expr, step: Callable) -> object:
    """``step(node, *values of its children)`` over ``e`` in post-order; the root's value.

    Post-order is the order in which a recursive evaluation finishes its
    nodes, so the first node whose step fails is the same.
    """
    values = []
    for node, k in zip(*_postorder(e)):
        if k:
            args = values[-k:]
            del values[-k:]
            values.append(step(node, *args))
        else:
            values.append(step(node))
    return values[0]


def tree(src: str | float | Expr) -> Expr:
    """A source as a tree: a string parsed by :func:`parse`, a number as a constant, a tree itself."""
    if isinstance(src, str):
        return parse(src)
    return const(src) if isinstance(src, (int, float)) else src


# -- serialization ---------------------------------------------------------------

def _format(e: Expr, *args) -> tuple:
    """``e`` as (pieces, precedence), given its children's; pieces are a string or a tuple of pieces."""
    if isinstance(e, Num):
        return (f"-{-e.value!r}", _UNARY) if e.value < 0.0 else (repr(e.value), _ATOM)
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, Neg):
        ((text, prec),) = args
        return (("-(", text, ")") if prec < _UNARY else ("-", text)), _UNARY
    if isinstance(e, Call):
        return (e.func, "(", args[0][0], *((", ", text) for text, _ in args[1:]), ")"), _ATOM
    # an operand of the operator's own precedence takes parentheses on the side it does not group to
    op, prec, right = _BINARY[type(e)]
    (lt, lp), (rt, rp) = args
    lt = ("(", lt, ")") if lp < prec + right else lt
    rt = ("(", rt, ")") if rp < prec + (not right) else rt
    return (lt, op, rt), prec


def serialize(e: Expr) -> str:
    """The text of ``e``: its pieces (:func:`_format`) joined once, left to right, with a stack."""
    out, stack = [], [_fold(e, _format)[0]]
    while stack:
        pieces = stack.pop()
        if isinstance(pieces, str):
            out.append(pieces)
        else:
            stack.extend(reversed(pieces))
    return "".join(out)


def free_names(e: Expr) -> frozenset:
    return frozenset(node.name for node in _postorder(e)[0] if isinstance(node, Var))


# -- second-order jets ------------------------------------------------------------


class Jet2:
    """Value, gradient and (symmetric) Hessian w.r.t. the four coordinates; read-only.

    At one point ``val`` is a float, ``grad`` is (4,) and ``hess`` is (4, 4);
    over N points they are (N,), (N, 4) and (N, 4, 4), one lane per point.
    A stack of components (:func:`stack_jets`) puts its component axes after
    the point axis: ``val`` is (..., *shape), ``grad`` (..., *shape, 4) and
    ``hess`` (..., *shape, 4, 4).  ``errors`` maps each of the N points whose
    evaluation fails to the :class:`ExprError` that point raises alone; its
    jet is zero.
    """

    __slots__ = ("val", "grad", "hess", "errors")

    def __init__(self, val: float | np.ndarray, grad: np.ndarray, hess: np.ndarray, errors: dict | None = None):
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)
        object.__setattr__(self, "errors", {} if errors is None else errors)

    def __setattr__(self, name, value):
        raise AttributeError("Jet2 is immutable")


# The evaluator works on (val, grad, hess) tuples with the point axis last: at
# one point a float, (4,) and (4, 4); over N points (N,), (4, N) and (4, 4, N).
# The same arithmetic serves both.  Sums, products and quotients are
# elementwise, in the same order, so every lane is bitwise what that point
# alone gives.  Most numpy transcendentals and ``**`` are not (they may differ
# in the last ulp, by SIMD dispatch level), so function values and derivative
# scalars are computed lane by lane with ``math`` and Python floats
# (:func:`_per_lane`); ``sin``, ``cos`` and ``sqrt`` over N lanes are the
# exceptions (:data:`_LANES_JET`).


class _Tape:
    """The distinct subtrees of some expression trees, each once, and the jets still to be read.

    A subtree is keyed by its node's type and label (a number by its bits)
    and its children's serial numbers, so structurally equal subtrees have
    one serial; a child's serial is below its parent's.  ``left[s]`` counts
    the reads of subtree ``s`` still to come, one by each distinct parent
    and one per tree added with it as root.  At one set of points
    (:meth:`_Walk.evaluate`) a subtree's entry is kept in ``kept`` while
    reads of it are left, and dropped at its last, so a subtree read once
    is held only until its parent is evaluated.  A tree not added before it
    is evaluated is added then.
    """

    def __init__(self, trees: Sequence[Expr] = ()):
        self._serials: dict = {}  # (node type, label, *children's serials) -> serial
        self._roots: dict = {}  # id(tree) -> (tree, serial), kept with the tree so its id is not reused
        self.steps: list = []  # serial -> (node, children's serials)
        self.left: list = []
        self.kept: dict = {}  # serial -> (jet, first) of a subtree that will be read again
        self.errors: list = []  # the errors every entry's ``first`` indexes
        for e in trees:
            self.root(e)

    def root(self, e: Expr) -> int:
        """The serial of tree ``e``, whose subtrees are added when ``e`` is new here."""
        if id(e) not in self._roots:
            serials, steps = [], self.steps  # serials: those of the subtrees whose parent comes later
            for node, k in zip(*_postorder(e)):
                kind = type(node)
                key = (kind, float(node.value).hex() if kind is Num else node.label, *serials[len(serials) - k:])
                del serials[len(serials) - k:]
                serial = self._serials.setdefault(key, len(steps))
                if serial == len(steps):
                    steps.append((node, key[2:]))
                    self.left.append(0)
                    for kid in key[2:]:
                        self.left[kid] += 1
                serials.append(serial)
            self.left[serials[0]] += 1
            self._roots[id(e)] = (e, serials[0])
        return self._roots[id(e)][1]


class _Walk:
    """One evaluation of expression trees at one point or at N points.

    Each subtree's entry is its jet and ``first``: per point, the index in
    ``errors`` of the first operation in that subtree's tree order that
    fails there, or -1, and None where no point fails.  A node's ``first``
    starts as its leftmost failing child's (:func:`_leftmost`), and each of
    its own failures appends an error for the points not failed before.  A
    failed lane computes on with whatever values it holds and is zeroed at
    the end (:func:`_lanes_jet`); one point raises its error at once.
    """

    def __init__(self, coords: Sequence[str], points: np.ndarray, params: Mapping[str, float] | None):
        self.lanes = lanes = points.shape[:-1]
        self.coord_names = frozenset(coords)
        self.first, self.errors = None, []
        # the derivatives of every constant: shared, as no operation writes into its operands
        self.zero_grad, self.zero_hess = np.zeros((4,) + lanes), np.zeros((4, 4) + lanes)
        vals = points.T.copy() if lanes else points.tolist()  # vals[axis]: that coordinate's values
        units = np.zeros((4, 4) + lanes)
        units[range(4), range(4)] = 1.0
        self.names = {name: (vals[axis], units[axis], self.zero_hess) for axis, name in enumerate(coords)}
        for name, value in (params or {}).items():
            self.names[name] = self.const(value)

    def const(self, v: float) -> tuple:
        """The jet of the constant ``v``."""
        return (np.full(self.lanes, float(v)) if self.lanes else float(v)), self.zero_grad, self.zero_hess

    def evaluate(self, tape: _Tape, root: int) -> tuple:
        """The entry ``(jet, first)`` of subtree ``root`` of ``tape``; ``first`` indexes ``tape.errors``.

        Depth first with a stack, children left to right before their
        parent, skipping a subtree whose entry the tape keeps.  A serial
        ``s`` on the stack asks for the subtree, ``~s`` for its node once
        its children's entries end ``done``.
        """
        steps, left, kept = tape.steps, tape.left, tape.kept
        self.errors = tape.errors
        done, todo = [], [root]
        while todo:
            s = todo.pop()
            if s < 0:
                s = ~s
                node, kids = steps[s]
                entry = self.node(node, done[len(done) - len(kids):])
                del done[len(done) - len(kids):]
            elif s in kept:
                entry = kept[s]
            elif steps[s][1]:
                todo.append(~s)
                todo.extend(reversed(steps[s][1]))
                continue
            else:  # a leaf
                entry = self.node(steps[s][0], [])
            left[s] -= 1
            if left[s] > 0:
                kept[s] = entry
            else:
                kept.pop(s, None)
            done.append(entry)
        return done[0]

    def node(self, e: Expr, kids: list) -> tuple:
        """The entry of node ``e`` from its children's entries ``(jet, first)``."""
        self.first = _leftmost([first for _, first in kids])
        return self.step(e, *[jet for jet, _ in kids]), self.first

    def reject(self, mask, error: Callable[[Expr], ExprError], site: Expr) -> None:
        """Fail, with ``error(site)``, the points where ``mask`` holds and no earlier error did."""
        first = self.first
        new = mask if first is None else mask & (first < 0)
        if np.any(new):
            if not self.lanes:
                raise error(site)
            before = np.full(self.lanes, -1) if first is None else first
            self.first = np.where(new, self.fail(new, error, site), before)

    def fail(self, new: np.ndarray, error: Callable[[Expr], ExprError], site: Expr) -> int:
        """The index in ``errors`` of the points ``new`` fails: all share one error, ``error(site)``."""
        self.errors.append(error(site))
        return len(self.errors) - 1

    def domain(self, mask, message: str, site: Expr) -> None:
        self.reject(mask, lambda at: DomainEvalError(message, serialize(at)), site)

    def exponent(self, e: Expr, expo: tuple) -> int | None:
        """The :func:`_small_int_exponent` of the power ``e``, whose exponent's jet is ``expo``.

        A coordinate-free exponent has the same value at every point, so the
        first is read; with no points there is none, and the power is general.
        """
        first = expo[0] if isinstance(expo[0], float) else next(iter(expo[0].flat), math.nan)
        return _small_int_exponent(first, _exponent(e), self.coord_names)

    def step(self, e: Expr, *args) -> tuple:
        """The jet of node ``e`` from its children's jets (see :meth:`evaluate`)."""
        lanes = self.lanes
        if isinstance(e, Num):
            return self.const(e.value)
        if isinstance(e, Var):
            if e.name in self.names:
                return self.names[e.name]
            self.reject(True, lambda _: UnboundIdentifierError(
                f"identifier '{e.name}' is neither a coordinate nor a parameter"), e)
            return self.const(0.0)
        if isinstance(e, Neg):
            v, g, h = args[0]
            return -v, -g, -h
        if isinstance(e, (Add, Sub)):
            (av, ag, ah), (bv, bg, bh) = args
            return (av + bv, ag + bg, ah + bh) if isinstance(e, Add) else (av - bv, ag - bg, ah - bh)
        if isinstance(e, Mul):
            return _mul(*args)
        if isinstance(e, Div):
            return _div(*args, e, self)
        if isinstance(e, Pow) or e.func == "pow":  # else a Call of a function of one argument
            return _pow(*args, self.exponent(e, args[1]), e, self)
        a = args[0]
        if e.func == "log":
            self.domain(a[0] <= 0.0, "log of non-positive value", e)
        if e.func == "sqrt":
            self.domain(a[0] < 0.0, "sqrt of negative value", e)
            self.domain(a[0] == 0.0, "sqrt not differentiable at zero", e)
        if lanes and e.func in _LANES_JET:
            return _chain(a, *_LANES_JET[e.func](a[0], e, self))
        return _chain(a, *_per_lane(_UNARY_JET[e.func], a[0], e, self))


def _leftmost(firsts: Sequence) -> np.ndarray | None:
    """Per point, the first of ``firsts`` that is not -1 there, or -1; None when all are None."""
    out = None
    for first in reversed(firsts):  # the leftmost last, so it wins
        if first is not None:
            out = first if out is None else np.where(first >= 0, first, out)
    return out


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
            walk.reject(np.arange(len(xs)).reshape(walk.lanes) == k, partial(_range_error, err), site)
            rows.append(fn(1.0))
    return rows[0] if isinstance(v, float) else tuple(np.reshape(rows, (-1, 3)).T)


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


def _sin_lanes(v: np.ndarray, site: Expr, walk: _Walk) -> tuple:
    walk.domain(np.isinf(v), "infinite argument", site)  # where math.sin raises
    s = np.sin(v)
    return s, np.cos(v), -s


def _cos_lanes(v: np.ndarray, site: Expr, walk: _Walk) -> tuple:
    walk.domain(np.isinf(v), "infinite argument", site)
    c = np.cos(v)
    return c, -np.sin(v), -c


def _sqrt_lanes(v: np.ndarray, site: Expr, walk: _Walk) -> tuple:
    s = np.sqrt(v)  # the negative and zero lanes are rejected before
    product = s * v
    walk.domain(product == 0.0, "underflow", site)  # where the Python float division raises
    return s, 0.5 / s, -0.25 / product


# ``_UNARY_JET`` over N lanes with numpy's functions, which give math's bits
# (held by tests at the host's and numpy's baseline SIMD dispatch), and the
# lanes where math raises rejected with the error :func:`_per_lane` gives
_LANES_JET = {"sin": _sin_lanes, "cos": _cos_lanes, "sqrt": _sqrt_lanes}

FUNCTIONS = {**dict.fromkeys(_UNARY_JET, 1), "pow": 2}  # the functions a source may call: name -> arity


def _small_int_exponent(expo: float, expo_node: Expr, coord_names: frozenset) -> int | None:
    """``expo`` as an int when the exponent is a coordinate-free integer of at most 64."""
    if float(expo).is_integer() and abs(expo) <= 64 and (
            isinstance(expo_node, Num) or not free_names(expo_node) & coord_names):
        return int(expo)
    return None


def _int_pow(a: tuple, n: int, site: Expr, walk: _Walk) -> tuple:
    if n == 0:
        return walk.const(1.0)
    if n < 0:
        return _div(walk.const(1.0), _int_pow(a, -n, site, walk), site, walk)
    out = a
    for _ in range(n - 1):
        out = _mul(out, a)
    return out


def _exponent(e: Expr) -> Expr:
    """The exponent of a power, ``x^y`` or ``pow(x, y)``."""
    return e.right if isinstance(e, Pow) else e.args[1]


def _pow(base: tuple, expo: tuple, n: int | None, site: Expr, walk: _Walk) -> tuple:
    """``base`` to the power ``expo``, whose :func:`_small_int_exponent` is ``n``."""
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
    tape: _Tape | None = None,
) -> Jet2:
    """Evaluate value, gradient and Hessian at ``point`` (coordinate order).

    ``point`` is one point, shape (4,), or N points, shape (N, 4); the jet
    has the matching shapes (see :class:`Jet2`).  Lane i of a batch is
    bitwise equal to evaluating point i alone.  One point raises the error
    of its first failing operation in tree order; a batch raises nothing and
    gives each failing point that error in ``errors``, in point order.

    Each distinct subtree of ``e`` is evaluated once.  ``tape`` keeps the
    jets of subtrees shared with trees evaluated later at the same
    coordinates, points and parameters (:class:`ChunkJets`); by default
    nothing is kept past the call.
    """
    walk = _Walk(coords, np.asarray(point, dtype=float), params)
    tape = _Tape() if tape is None else tape
    with np.errstate(all="ignore"):  # non-finite lanes are judged downstream
        jet, first = walk.evaluate(tape, tape.root(e))
    return _lanes_jet(jet, first, tape.errors) if walk.lanes else Jet2(*jet)


def _lanes_jet(jet: tuple, first: np.ndarray | None, errors: list) -> Jet2:
    """The :class:`Jet2` of N points from ``jet``, point axis last; point i fails with ``errors[first[i]]``."""
    val, grad, hess = jet
    lost = {} if first is None else {lane: errors[k] for lane, k in enumerate(first.tolist()) if k >= 0}
    if lost:  # and those points' jets are zero
        val, grad, hess = (np.where(first >= 0, 0.0, x) for x in jet)
    return Jet2(val, grad.T, hess.transpose(2, 0, 1), lost)


def point_jets(coords: Sequence[str], point, params: Mapping[str, float] | None = None
               ) -> Callable[[Expr], Jet2]:
    """The jet source of one point: each expression is evaluated there alone."""
    return lambda e: evaluate_jet2(e, coords, point, params)


def stack_jets(jet: Callable[[Expr], Jet2], components: Mapping[tuple, Expr], lanes: tuple, shape: tuple) -> Jet2:
    """The jets of an array of components of ``shape``, from the jet source ``jet``: a :class:`Jet2` stack.

    ``components`` maps the index of each non-zero component to its
    expression; every other component is zero.  ``lanes`` is the shape of
    the points, () for one point, and the component axes follow it.  Each
    component's jet is ``jet(e)``, written at its index in the order of
    ``components``, and each point gets the first error in that order.  One
    point raises the error of its first component that cannot be evaluated.
    """
    val, grad, hess = (np.zeros(lanes + shape + tail) for tail in ((), (4,), (4, 4)))
    errors: dict = {}
    points = (slice(None),) * len(lanes)
    for index, e in components.items():
        part = jet(e)
        for k, err in part.errors.items():
            errors.setdefault(k, err)
        val[points + index], grad[points + index], hess[points + index] = part.val, part.grad, part.hess
    return Jet2(val, grad, hess, errors)


class _Group(_Walk):
    """One step of a forest (:class:`_Forest`): lane k is node ``sites[k]`` at its tree's point.

    ``first`` starts as the children's, and ``errors`` is the forest's.
    ``names`` holds the jet of a group of variables, and ``power`` the
    exponent of a group of powers, which a forest splits by it.  A lane
    failing here gets an error of its own, named by its own node, not by
    the site the arithmetic passes, which is the group's first node.
    """

    def __init__(self, coord_names: frozenset, names: dict, power: int | None, sites: list,
                 first: np.ndarray | None, errors: list):
        self.lanes = lanes = (len(sites),)
        self.coord_names, self.names, self.power = coord_names, names, power
        self.zero_grad, self.zero_hess = np.zeros((4,) + lanes), np.zeros((4, 4) + lanes)
        self.sites, self.first, self.errors = sites, first, errors

    def exponent(self, e: Expr, expo: tuple) -> int | None:
        return self.power

    def fail(self, new: np.ndarray, error: Callable[[Expr], ExprError], site: Expr) -> np.ndarray:
        new = np.broadcast_to(new, self.lanes)  # each point's error is named by its own node
        at = len(self.errors) - 1 + np.cumsum(new)
        self.errors.extend(error(self.sites[k]) for k in np.flatnonzero(new).tolist())
        return at


class _Forest:
    """The nodes of some trees, tree t at point t, evaluated a group of nodes at a time.

    Nodes are numbered in post-order, tree after tree, and grouped by
    (height, node type, label): a variable's name or a call's function, a
    number of any value.  A group's children are of lower height, so the
    groups are evaluated by height, each group in one step over its lanes.
    ``jets[:, i]`` is node i's value, gradient and Hessian, flat (1 + 4 +
    16 rows), and ``first[i]`` the index in ``errors`` of its error, that
    of its leftmost failing child or else its own, or -1 if it did not fail.
    """

    def __init__(self, trees: Sequence[Expr], coords: Sequence[str], points: np.ndarray,
                 params: Mapping[str, float] | None):
        self.walk = _Walk(coords, points, params)  # the names' jets at every tree's point
        self.groups: dict = {}  # (height, type, label) -> [(id, node, tree, *children's ids)]
        self.roots, heights = [], []
        for t, e in enumerate(trees):
            stack = []  # ids of the nodes whose parent comes later
            for node, k in zip(*_postorder(e)):
                i = len(heights)
                if k:
                    kids = stack[-k:]
                    del stack[-k:]
                    height = 1 + max([heights[kid] for kid in kids])
                else:
                    kids, height = [], 0
                kind = type(node)
                key, entry = (height, kind, None if kind is Num else node.label), (i, node, t, *kids)
                group = self.groups.get(key)
                if group is None:
                    self.groups[key] = [entry]
                else:
                    group.append(entry)
                heights.append(height)
                stack.append(i)
            self.roots.append(stack[0])
        self.jets = np.zeros((21, len(heights)))
        self.first, self.errors = np.full(len(heights), -1), []

    def evaluate(self) -> None:
        for key in sorted(self.groups, key=lambda key: key[0]):
            ids, nodes, lanes, *kids = zip(*self.groups[key])
            ids, lanes, kids = np.array(ids), np.array(lanes), np.array(kids, dtype=np.intp)
            if key[1] is Num:  # a value per lane, and zero derivatives
                self.jets[0, ids] = [node.value for node in nodes]
            elif key[1:] in ((Pow, None), (Call, "pow")):  # split by each node's exponent
                powers = [_small_int_exponent(x, _exponent(node), self.walk.coord_names)
                          for x, node in zip(self.jets[0, kids[1]].tolist(), nodes)]
                for power in dict.fromkeys(powers):
                    pick = [k for k, p in enumerate(powers) if p == power]
                    self.step(ids[pick], [nodes[k] for k in pick], lanes[pick], kids[:, pick], power)
            else:
                self.step(ids, nodes, lanes, kids)

    def step(self, ids: np.ndarray, nodes: list, lanes: np.ndarray, kids: np.ndarray,
             power: int | None = None) -> None:
        """Evaluate nodes ``ids``, of one group, from their children ``kids`` (one row per child)."""
        firsts = self.first[kids]
        first = _leftmost(firsts) if firsts.max(initial=-1) >= 0 else None
        names = {}
        if type(nodes[0]) is Var and nodes[0].name in self.walk.names:  # a coordinate or a parameter
            names[nodes[0].name] = tuple(x[..., lanes] for x in self.walk.names[nodes[0].name])
        walk = _Group(self.walk.coord_names, names, power, nodes, first, self.errors)
        args = [(jet[0], jet[1:5], jet[5:].reshape(4, 4, -1)) for jet in (self.jets[:, kid] for kid in kids)]
        val, grad, hess = walk.step(nodes[0], *args)
        self.jets[0, ids], self.jets[1:5, ids], self.jets[5:, ids] = val, grad, np.reshape(hess, (16, -1))
        if walk.first is not None:
            self.first[ids] = walk.first


def evaluate_forest(trees: Sequence[Expr], coords: Sequence[str], points,
                    params: Mapping[str, float] | None = None) -> Jet2:
    """The jet of each tree at its own point: lane t is ``trees[t]`` at ``points[t]``.

    ``points`` has shape (T, 4) for T trees, and the jet is as N points give
    (see :class:`Jet2`).  Lane t is bitwise ``evaluate_jet2(trees[t], coords,
    points[t], params)``, and ``errors[t]`` is the error that raises.  The
    nodes of all the trees are evaluated in groups of one height, node type
    and variable name or function, each group one step over its lanes
    (:class:`_Forest`).
    """
    forest = _Forest(trees, coords, np.asarray(points, dtype=float).reshape(-1, 4), params)
    with np.errstate(all="ignore"):  # non-finite lanes are judged downstream
        forest.evaluate()
    jets, first = forest.jets[:, forest.roots], forest.first[forest.roots]
    return _lanes_jet((jets[0], jets[1:5], jets[5:].reshape(4, 4, -1)), first, forest.errors)


class ChunkJets:
    """Jets of expressions over a chunk of points, handed out a block at a time.

    ``block(start, stop)`` is the jet source of points ``start:stop``: a
    function from an expression to its jets there, with the errors of those
    points (see :func:`evaluate_jet2`).  Each expression is evaluated for the
    whole chunk the first time a block asks for it, and never if none does.
    The subtrees of ``sources``, the expressions blocks may ask for, are one
    :class:`_Tape`: each distinct subtree of those asked for is evaluated
    once for the chunk, and its jet is kept only while a source not yet
    evaluated holds it.
    """

    def __init__(self, coords: Sequence[str], points, params: Mapping[str, float] | None = None,
                 sources: Sequence[Expr] = ()):
        self.coords = tuple(coords)
        self.points = np.asarray(points, dtype=float)
        self.params = params
        self._jets: dict = {}  # id(expr) -> (expr, chunk jet)
        self._tape = _Tape(sources)

    def block(self, start: int, stop: int) -> Callable[[Expr], Jet2]:
        return partial(self._jet, start, stop)

    def _jet(self, start: int, stop: int, e: Expr) -> Jet2:
        if id(e) not in self._jets:  # kept with its expression, so the id is not reused
            self._jets[id(e)] = (e, evaluate_jet2(e, self.coords, self.points, self.params, self._tape))
        _, jet = self._jets[id(e)]
        return Jet2(jet.val[start:stop], jet.grad[start:stop], jet.hess[start:stop],
                    block_errors(jet.errors, start, stop))
