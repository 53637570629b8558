import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcheck import expr as ex
from cliffcheck import selftest
from cliffcheck.errors import DomainEvalError, ExprError, ParseError, UnboundIdentifierError
from cliffcheck.fieldcheck import CHUNK
from cliffcheck.geometry import CATALOG, build_metric, killing_forms

import oracles

COORDS = ("t", "x", "y", "z")


def test_precedence_tree_shape():
    tree = ex.parse("1-2*M/r")
    assert tree == ex.Sub(ex.Num(1.0), ex.Div(ex.Mul(ex.Num(2.0), ex.Var("M")), ex.Var("r")))


def test_unary_minus_binds_looser_than_power():
    assert ex.parse("-t^2") == ex.Neg(ex.Pow(ex.Var("t"), ex.Num(2.0)))


def test_power_right_associative():
    assert ex.parse("2^3^2") == ex.Pow(ex.Num(2.0), ex.Pow(ex.Num(3.0), ex.Num(2.0)))
    assert oracles.evaluate(ex.parse("2^3^2"), COORDS, (0, 0, 0, 0)) == 512.0


def test_parse_error_column():
    with pytest.raises(ParseError) as err:
        ex.parse("sin(")
    assert err.value.column == 5
    with pytest.raises(ParseError):
        ex.parse("")
    with pytest.raises(ParseError) as err:
        ex.parse("2*")
    assert err.value.column == 3


def test_equal_sources_are_one_tree():
    assert ex.parse("1-2*M/r") is ex.parse("1-2*M/r") is ex.tree("1-2*M/r")
    assert ex.tree(2) == ex.Num(2.0) and ex.tree(-1.5) == ex.Num(-1.5)
    assert ex.tree(ex.ONE) is ex.ONE


@pytest.mark.parametrize("src", ["(" * 2000 + "x" + ")" * 2000, "-" * 2000 + "x", "x" + "^x" * 2000])
def test_nesting_past_the_recursion_limit_is_a_parse_error(src):
    for _ in range(2):  # a ParseError is not kept: the second parse raises it again
        with pytest.raises(ParseError, match=r"^expression nested too deeply \(column 1\)$"):
            ex.parse(src)


PARSE_EDGE_CASES = [
    "", " ", "\t\n", "1", "1.", ".5", "5.e3", "1e308", "1e-999", "1e", "1e+", "1E5", "2E-2", "1.2.3",
    "..5", "1..2", "1e5.5", "1e3e3", "0x10", "2^-3", "-t^2", "2^3^2", "2^-x^2", "1-2-3", "1/2/3",
    "2*-x", "--x", "-(-x)", "-2^2", "(-2)^2", "1-2*M/r", " 1 - 2 * M / r ", "sin(x)^2", "-sin(x)",
    "sin (x)", "sin(", "sin()", "sin(1, 2)", "pow(1)", "pow(1,2)", "pow(1,2,3)", "pow(x,)", "foo(1)",
    "foo", "foo ()", "(x", "x)", "()", "(", ")", "x,y", ",", "a b", "1 2", "x(1)", "_x1", "x_",
    "x1y", "1x", "*", "^", "x^", "x^^2", "1 +", "+1", "2*", "@", "#", "x;", "θ", "θ+1", "sin(θ)",
    "²", "x²", "1²", "٣", "٣+1", "x٣", "½", "1½", "x +1", "é", "_", "__", "e", "E1", "e1",
    "(" * 50 + "x" + ")" * 50, "-" * 50 + "x", "x" + "^x" * 50, "2^" * 50 + "2", "sin(" * 30 + "x" + ")" * 30,
]

_NOISE = [*"0123456789.eE+-*/^(),", " ", "sin", "pow", "foo", "x", "θ", "²", "٣", "½"]
_LEAVES = ["1", "2.5", ".5", "3.", "1e3", "2E-2", "0", "x", "t", "M", "θ", "x٣", "_a"]
_OPS = ["+", "-", "*", "/", "^"]


def _random_source(rng, depth):
    """A source drawn from the grammar, with random spaces; nested at most ``depth`` levels."""
    kind = rng.randrange(6) if depth else 0
    pad = rng.choice(["", "", " "])
    if kind == 0:
        return rng.choice(_LEAVES)
    if kind == 1:
        return _random_source(rng, depth - 1) + pad + rng.choice(_OPS) + pad + _random_source(rng, depth - 1)
    if kind == 2:
        return "-" + pad + _random_source(rng, depth - 1)
    if kind == 3:
        return "(" + pad + _random_source(rng, depth - 1) + ")"
    if kind == 4:
        return rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh"]) + (
            "(" + _random_source(rng, depth - 1) + ")")
    return f"pow({_random_source(rng, depth - 1)},{pad}{_random_source(rng, depth - 1)})"


def parse_corpus() -> list:
    """Fixed sources: the bundled scenarios' and the catalog's, edge cases and seeded random ones."""
    sources = []
    for path in sorted(Path(__file__).resolve().parents[1].glob("scenarios/**/*.json")):
        raw = json.loads(path.read_text())
        metric = raw["metric"]
        sources += [v for v in metric.get("params", {}).values() if isinstance(v, str)]
        sources += [v for row in metric.get("components", ()) for v in row if isinstance(v, str)]
        sources += [v for f in raw.get("fields", {}).values() for v in f.values() if isinstance(v, str)]
    for key, entry in sorted(CATALOG.items()):
        fill = entry.rule({})[1]
        sources += [src.format(**fill) for src in entry.diagonal]
        sources += [src for kf in killing_forms(key) for src in kf.components.values()]
    sources += PARSE_EDGE_CASES
    rng = random.Random(20261019)
    sources += ["".join(rng.choice(_NOISE) for _ in range(rng.randrange(1, 40))) for _ in range(3000)]
    sources += [_random_source(rng, 8) for _ in range(1500)]
    # a literal that overflows a float is a parse error of its own (test_overflowing_literal_*)
    return [src for src in sources if not any(map(_overflows, re.findall(r"[\d.]+(?:[eE][+-]?\d+)?", src)))]


def _overflows(text):
    try:
        return math.isinf(float(text))
    except ValueError:
        return False


def _parse_record(src):
    try:
        nodes, counts = ex._postorder(ex.parse.__wrapped__(src))
    except ParseError as err:
        return str(err), err.column
    return tuple(type(n).__name__ for n in nodes), tuple(counts), tuple(repr(n.label) for n in nodes)


PARSE_CORPUS_SHA256 = "4ce2dc2fde26fcb179a7d20c757597e1aa51a4266af3edb9205887534d7f2e54"


def test_parse_corpus_is_pinned():
    # each source's tree (node types, child counts, labels) or its error text and column
    corpus = parse_corpus()
    assert len(corpus) > 4000
    records = repr([_parse_record(src) for src in corpus])
    assert hashlib.sha256(records.encode()).hexdigest() == PARSE_CORPUS_SHA256


@pytest.mark.parametrize("terms", [901, 2000, 100_000])
def test_a_sum_of_any_length_is_parsed_compared_and_evaluated(terms):
    # a sum of n terms is a tree n levels deep; no operation on it recurses
    # once per level, so it runs from deep in the caller's own recursion
    def run():
        parse = ex.parse.__wrapped__  # parsed here, not kept from an earlier call
        tree = parse("+".join(["1"] * terms))
        spaced = parse(" + ".join(["1"] * terms))
        assert ex.serialize(tree) == " + ".join(["1.0"] * terms)
        assert ex.free_names(tree) == frozenset() and ex.free_names(ex.Add(tree, ex.Var("x"))) == {"x"}
        assert spaced is not tree and spaced == tree and hash(spaced) == hash(tree)
        assert tree != ex.Add(tree.left, ex.Num(2.0)) and tree != ex.Add(tree, ex.ONE)
        jet = ex.evaluate_jet2(tree, COORDS, (0.5, 1.0, -1.0, 2.0))
        assert (jet.val, jet.grad.tolist(), jet.hess.tolist()) == (terms, [0.0] * 4, [[0.0] * 4] * 4)
        block = ex.evaluate_jet2(tree, COORDS, np.zeros((3, 4)))
        assert block.val.tolist() == [terms] * 3 and not block.grad.any() and not block.hess.any()
        assert block.errors == {}
        # a failing first leaf: each lane's error goes up every level of the sum to the root
        failing = parse("+".join(["sqrt(x)"] + ["1"] * terms))
        with pytest.raises(DomainEvalError) as alone:
            ex.evaluate_jet2(failing, COORDS, (0.5, -1.0, -1.0, 2.0))
        block = ex.evaluate_jet2(failing, COORDS, np.full((3, 4), -1.0))
        assert {k: str(err) for k, err in block.errors.items()} == dict.fromkeys(range(3), str(alone.value))
        assert not block.val.any() and not block.grad.any() and not block.hess.any()

    oracles.nested(800, run)


@pytest.mark.parametrize("src, column", [("1e999", 1), ("x/1e999", 3), ("-1.8e308*t", 2), ("2^" + "9" * 400, 3)])
def test_overflowing_literal_is_a_parse_error(src, column):
    # a literal past the float range would be an infinity, and x/1e999 a silent zero
    with pytest.raises(ParseError, match=r"^number '[\d.e]+' overflows a float") as err:
        ex.parse(src)
    assert err.value.column == column


def test_largest_literals_parse():
    assert ex.parse("1e308") == ex.Num(1e308) and ex.parse("1.7976931348623157e308") == ex.Num(1.7976931348623157e308)
    assert ex.parse("1e-999") == ex.ZERO  # an underflow is a number; only an overflow is refused


def test_unknown_function_rejected():
    with pytest.raises(ParseError) as err:
        ex.parse("foo(1)")
    assert "unknown function" in str(err.value)


def test_wrong_arity_rejected():
    with pytest.raises(ParseError):
        ex.parse("pow(2)")
    with pytest.raises(ParseError):
        ex.parse("sin(1, 2)")


def test_whitespace_insensitive():
    assert ex.parse(" 1 - 2 * M / r ") == ex.parse("1-2*M/r")


def test_eval_examples():
    assert oracles.evaluate(ex.parse("2^3"), COORDS, (0, 0, 0, 0)) == 8.0
    assert oracles.evaluate(ex.parse("exp(0)"), COORDS, (0, 0, 0, 0)) == 1.0
    assert oracles.evaluate(ex.parse("1/(1-2/r)"), ("t", "r", "a", "b"), (0, 4.0, 0, 0)) == 2.0


def test_jet_polynomial():
    j = ex.evaluate_jet2(ex.parse("t*t"), COORDS, (3.0, 0, 0, 0))
    assert j.val == 9.0
    assert j.grad[0] == 6.0
    assert j.hess[0, 0] == 2.0


def test_jet_schwarzschild_factor():
    j = ex.evaluate_jet2(ex.parse("1-2*M/r"), ("t", "r", "u", "v"), (0, 4.0, 0, 0), {"M": 1.0})
    assert j.val == 0.5
    assert abs(j.grad[1] - 0.125) < 1e-15
    assert abs(j.hess[1, 1] + 0.0625) < 1e-15


def test_jet_sine_at_origin():
    j = ex.evaluate_jet2(ex.parse("sin(x)"), COORDS, (0, 0.0, 0, 0))
    assert j.val == 0.0
    assert j.grad[1] == 1.0
    assert j.hess[1, 1] == 0.0


def test_unbound_identifier():
    with pytest.raises(UnboundIdentifierError):
        oracles.evaluate(ex.parse("q+1"), COORDS, (0, 0, 0, 0))
    with pytest.raises(UnboundIdentifierError):
        ex.evaluate_jet2(ex.parse("q+1"), COORDS, (0, 0, 0, 0))


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainEvalError) as err:
        ex.evaluate_jet2(ex.parse("sqrt(x-2)"), COORDS, (0, 1.0, 0, 0))
    assert "sqrt" in str(err.value)
    with pytest.raises(DomainEvalError):
        ex.evaluate_jet2(ex.parse("log(-x)"), COORDS, (0, 1.0, 0, 0))
    with pytest.raises(DomainEvalError):
        ex.evaluate_jet2(ex.parse("1/(x-1)"), COORDS, (0, 1.0, 0, 0))
    with pytest.raises(DomainEvalError):
        ex.evaluate_jet2(ex.parse("(-2)^0.5"), COORDS, (0, 0, 0, 0))


@pytest.mark.parametrize("src", ["exp(2000*t)", "cosh(x+1000)", "x^1000.5", "pow(x, 1000.5)"])
def test_overflow_is_a_domain_error(src):
    e = ex.parse(src)
    point = (1.0, 10.0, 0, 0)
    with pytest.raises(DomainEvalError, match="overflow"):
        oracles.evaluate(e, COORDS, point)
    with pytest.raises(DomainEvalError, match="overflow"):
        ex.evaluate_jet2(e, COORDS, point)


@pytest.mark.parametrize("func", ["sin", "cos", "tan"])
def test_infinite_trig_argument_is_a_domain_error(func):
    e = ex.parse(f"{func}(exp(700)*exp(700)*x)")
    point = (1.0, 10.0, 0, 0)
    for evaluate in (oracles.evaluate, ex.evaluate_jet2):
        with pytest.raises(DomainEvalError, match="infinite argument"):
            evaluate(e, COORDS, point)


def test_integer_power_of_negative_base_ok():
    assert oracles.evaluate(ex.parse("(-2)^3"), COORDS, (0, 0, 0, 0)) == -8.0
    j = ex.evaluate_jet2(ex.parse("x^3"), COORDS, (0, -2.0, 0, 0))
    assert j.val == -8.0
    assert j.grad[1] == 12.0
    assert j.hess[1, 1] == -12.0


def test_negative_integer_exponent():
    assert oracles.evaluate(ex.parse("x^-2"), COORDS, (0, 2.0, 0, 0)) == 0.25
    j = ex.evaluate_jet2(ex.parse("x^-2"), COORDS, (0, 2.0, 0, 0))
    assert j.val == 0.25
    assert abs(j.grad[1] + 0.25) < 1e-15          # -2 x^-3
    assert abs(j.hess[1, 1] - 0.375) < 1e-15      # 6 x^-4


def test_tan_jet_derivatives():
    import math

    x0 = 0.3
    j = ex.evaluate_jet2(ex.parse("tan(x)"), COORDS, (0, x0, 0, 0))
    t = math.tan(x0)
    assert j.val == t
    assert abs(j.grad[1] - (1.0 + t * t)) < 1e-15
    assert abs(j.hess[1, 1] - 2.0 * t * (1.0 + t * t)) < 1e-15


def test_pow_function_matches_operator():
    a = oracles.evaluate(ex.parse("pow(x, 3)"), COORDS, (0, 1.7, 0, 0))
    b = oracles.evaluate(ex.parse("x^3"), COORDS, (0, 1.7, 0, 0))
    assert a == b


# -- round trips -----------------------------------------------------------------


def _leaf():
    return st.one_of(
        st.floats(0.1, 5.0).map(lambda v: ex.Num(v)),
        st.sampled_from([ex.Var(n) for n in ("t", "x", "y", "z", "M", "k")]),
    )


def _tree(children):
    unary = st.sampled_from(["sin", "cos", "exp", "tanh", "sqrt", "log"])
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ex.Add(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Sub(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Mul(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Div(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Pow(*ab)),
        children.map(ex.Neg),
        st.tuples(unary, children).map(lambda fa: ex.Call(fa[0], (fa[1],))),
        st.tuples(children, children).map(lambda ab: ex.Call("pow", ab)),
    )


expr_trees = st.recursive(_leaf(), _tree, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(expr_trees)
def test_serialize_parse_identity_on_trees(tree):
    assert ex.parse(ex.serialize(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(expr_trees)
def test_serialize_is_canonical_after_one_round_trip(tree):
    once = ex.serialize(ex.parse(ex.serialize(tree)))
    twice = ex.serialize(ex.parse(once))
    assert once == twice


# -- derivative correctness against finite differences ------------------------------


def _random_safe_expr(rng: np.random.Generator, depth: int):
    """Random expression tree with every operation kept in-domain near x0."""
    if depth == 0:
        if rng.random() < 0.45:
            return ex.Num(float(rng.uniform(0.3, 2.0)))
        return ex.Var(COORDS[rng.integers(0, 4)])
    pick = rng.integers(0, 8)
    sub = _random_safe_expr(rng, depth - 1)
    sub2 = _random_safe_expr(rng, depth - 1)
    if pick == 0:
        return ex.Add(sub, sub2)
    if pick == 1:
        return ex.Sub(sub, sub2)
    if pick == 2:
        return ex.Mul(sub, sub2)
    if pick == 3:
        # keep the denominator positive: v^2 + 1
        return ex.Div(sub, ex.Add(ex.Mul(sub2, sub2), ex.Num(1.0)))
    if pick == 4:
        return ex.Neg(sub)
    if pick == 5:
        fn = ("sin", "cos", "tanh", "sinh")[rng.integers(0, 4)]
        return ex.Call(fn, (sub,))
    if pick == 6:
        # sqrt / log of a strictly positive combination
        fn = ("sqrt", "log", "exp")[rng.integers(0, 3)]
        if fn == "exp":
            return ex.Call("exp", (ex.Call("tanh", (sub,)),))
        return ex.Call(fn, (ex.Add(ex.Mul(sub, sub), ex.Num(1.0)),))
    return ex.Pow(sub, ex.Num(float(rng.integers(1, 4))))


@pytest.mark.slow
def test_jets_match_richardson_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        tree = _random_safe_expr(rng, int(rng.integers(1, 6)))
        point = rng.uniform(-1.5, 1.5, size=4)
        try:
            jet = ex.evaluate_jet2(tree, COORDS, point)
        except DomainEvalError:
            continue
        if abs(jet.val) > 1e6 or np.max(np.abs(jet.hess)) > 1e6:
            continue

        def f(p, tree=tree):
            return oracles.evaluate(tree, COORDS, p)

        scale = max(1.0, abs(jet.val), float(np.max(np.abs(jet.grad))))
        for i in range(4):
            fd = oracles.richardson_diff(f, point, i)
            assert abs(jet.grad[i] - fd) < 1e-6 * max(scale, abs(fd)), ex.serialize(tree)
        hscale = max(1.0, float(np.max(np.abs(jet.hess))))
        for i in range(4):
            for j in range(4):
                fd2 = oracles.richardson_hessian_entry(f, point, i, j, h=1e-3)
                assert abs(jet.hess[i, j] - fd2) < 1e-5 * max(hscale, abs(fd2)), ex.serialize(tree)
        checked += 1


def test_hessian_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(40):
        tree = _random_safe_expr(rng, 4)
        point = rng.uniform(-1.0, 1.0, size=4)
        try:
            jet = ex.evaluate_jet2(tree, COORDS, point)
        except DomainEvalError:
            continue
        assert np.max(np.abs(jet.hess - jet.hess.T)) <= 1e-13 * max(1.0, np.max(np.abs(jet.hess)))


def test_eval_matches_jet_value_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(120):
        tree = _random_safe_expr(rng, 4)
        point = rng.uniform(-1.2, 1.2, size=4)
        try:
            v = oracles.evaluate(tree, COORDS, point)
        except DomainEvalError:
            continue
        assert v == ex.evaluate_jet2(tree, COORDS, point).val


def test_jet_evaluation_deterministic():
    tree = ex.parse("sin(x)*exp(t)/(1+y^2) - sqrt(z^2+1)^3")
    point = (0.3, -0.7, 1.1, 0.9)
    a = ex.evaluate_jet2(tree, COORDS, point)
    b = ex.evaluate_jet2(tree, COORDS, point)
    assert a.val == b.val
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


# -- batched jets ---------------------------------------------------------------------


def _bits(jet, i=None):
    """The bytes of a jet, or of lane ``i`` of a batched jet."""
    if i is None:
        return (np.float64(jet.val).tobytes(), jet.grad.tobytes(), jet.hess.tobytes())
    return (jet.val[i].tobytes(), jet.grad[i].tobytes(), jet.hess[i].tobytes())


_ZERO_JET = _bits(ex.Jet2(0.0, np.zeros(4), np.zeros((4, 4))))


def _single(tree, points, params=None):
    """Per point: its jet bytes, or the error it raises alone as "<class>: <message>"."""
    out = []
    for p in points:
        try:
            out.append(_bits(ex.evaluate_jet2(tree, COORDS, p, params)))
        except DomainEvalError as err:
            out.append(f"{type(err).__name__}: {err}")
    return out


def _batch_leaf():
    return st.one_of(
        st.floats(-3.0, 3.0).map(lambda v: ex.Num(v)),
        st.sampled_from([ex.Var(n) for n in ("t", "x", "y", "z", "k")]),
    )


# integer, negative and non-integer constant exponents, and coordinate exponents
_EXPONENTS = st.one_of(
    st.integers(-4, 4).map(lambda n: ex.Num(float(n))),
    st.sampled_from([ex.Num(0.5), ex.Num(-1.5), ex.Num(2.25), ex.Var("k"), ex.Var("x")]),
)


def _batch_tree(children):
    unary = st.sampled_from([f for f, arity in ex.FUNCTIONS.items() if arity == 1])
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ex.Add(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Sub(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Mul(*ab)),
        st.tuples(children, children).map(lambda ab: ex.Div(*ab)),
        children.map(ex.Neg),
        st.tuples(children, _EXPONENTS).map(lambda ab: ex.Pow(*ab)),
        st.tuples(children, _EXPONENTS).map(lambda ab: ex.Call("pow", ab)),
        st.tuples(unary, children).map(lambda fa: ex.Call(fa[0], (fa[1],))),
    )


batch_trees = st.recursive(_batch_leaf(), _batch_tree, max_leaves=10)
batch_points = st.lists(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4), min_size=1, max_size=6
).map(lambda pts: np.array(pts))


@settings(max_examples=300, deadline=None)
@given(batch_trees, batch_points)
def test_batched_jets_equal_single_point_jets_bitwise(tree, points):
    params = {"k": 1.5}
    # a point that fails alone gets its own error in the batch, and a zero jet
    alone = _single(tree, points, params)
    batch = ex.evaluate_jet2(tree, COORDS, points, params)
    assert batch.val.shape == (len(points),)
    assert batch.grad.shape == (len(points), 4)
    assert batch.hess.shape == (len(points), 4, 4)
    assert sorted(batch.errors) == [i for i, a in enumerate(alone) if isinstance(a, str)]
    for i, a in enumerate(alone):
        if i in batch.errors:
            assert f"{type(batch.errors[i]).__name__}: {batch.errors[i]}" == a, (ex.serialize(tree), i)
            assert _bits(batch, i) == _ZERO_JET
        else:
            assert _bits(batch, i) == a, (ex.serialize(tree), i)


# Boyer-Lindquist Kerr g_{mu nu} (M=1, a=0.6), the longest metric expressions in use
_SIGMA = "(r^2+a^2*cos(theta)^2)"
_DELTA = "(r^2-2*M*r+a^2)"
KERR_COMPONENTS = (
    f"1-2*M*r/{_SIGMA}",
    f"2*M*a*r*sin(theta)^2/{_SIGMA}",
    f"-(r^2+a^2+2*M*a^2*r*sin(theta)^2/{_SIGMA})*sin(theta)^2",
    f"-{_SIGMA}/{_DELTA}",
    f"-{_SIGMA}",
)


def test_batched_kerr_metric_jets_equal_single_point_jets_bitwise():
    coords = ("t", "r", "theta", "phi")
    params = {"M": 1.0, "a": 0.6}
    rng = np.random.default_rng(2)
    lo, hi = np.array([-3.0, 2.5, 0.35, 0.0]), np.array([3.0, 20.0, 2.8, 6.2])
    points = rng.uniform(lo, hi, size=(300, 4))
    for src in KERR_COMPONENTS:
        tree = ex.parse(src)
        batch = ex.evaluate_jet2(tree, coords, points, params)
        for i, p in enumerate(points):
            assert _bits(batch, i) == _bits(ex.evaluate_jet2(tree, coords, p, params)), (src, i)


# one bad lane per error kind: (expression, x of the bad point, message prefix)
LANE_ERRORS = [
    ("1/(x-1)", 1.0, "division by zero"),
    ("x^-2", 0.0, "division by zero"),
    ("log(x)", -1.0, "log of non-positive value"),
    ("log(x)", 0.0, "log of non-positive value"),
    ("sqrt(x)", -1.0, "sqrt of negative value"),
    ("sqrt(x)", 0.0, "sqrt not differentiable at zero"),
    ("x^0.5", -1.0, "power with non-integer exponent requires positive base"),
    ("pow(x, 1.5)", -1.0, "power with non-integer exponent requires positive base"),
    ("exp(500*x)", 2.0, "overflow"),
    ("cosh(500*x)", 2.0, "overflow"),
    ("x^1000.5", 10.0, "overflow"),
    ("log(x)", 1e-200, "underflow"),
    ("sqrt(x)", 1e-300, "underflow"),
    ("x^0.5", 1e-200, "underflow"),
    ("sin(1e300*x^2)", 1e10, "infinite argument"),
    ("tan(x)", np.inf, "infinite argument"),
]


@pytest.mark.parametrize("src, bad_x, message", LANE_ERRORS)
def test_chunk_lane_error_matches_the_point_alone(src, bad_x, message):
    tree = ex.parse(src)
    xs = [0.5, 0.75, bad_x, 1.25, 0.25]
    points = np.array([[0.1, x, 0.3, -0.2] for x in xs])
    assert list(ex.evaluate_jet2(tree, COORDS, points).errors) == [2]
    alone = _single(tree, points)
    assert [isinstance(a, str) for a in alone] == [False, False, True, False, False]
    assert alone[2] == f"DomainEvalError: {message} in '{ex.serialize(tree)}'"
    jets = ex.ChunkJets(COORDS, points)
    for start, stop in ((0, 5), (1, 3), (3, 5), (2, 3)):
        block = jets.block(start, stop)(tree)
        assert list(block.errors) == ([2 - start] if start <= 2 < stop else [])
        for i in range(start, stop):
            if i == 2:
                assert f"DomainEvalError: {block.errors[i - start]}" == alone[i]
                assert _bits(block, i - start) == _ZERO_JET
            else:
                assert _bits(block, i - start) == alone[i]



def test_a_node_failing_on_every_lane_of_a_chunk_gives_them_one_error():
    # the lanes a node rejects share the one error it makes, so a chunk whose
    # every lane fails builds (and a report serializes) one error, not CHUNK
    points = np.zeros((CHUNK, 4))
    points[:, 1] = -1.0
    jet = ex.ChunkJets(COORDS, points).block(0, CHUNK)(ex.parse("sqrt(x)"))
    assert CHUNK == 256 and list(jet.errors) == list(range(CHUNK))
    assert len({id(err) for err in jet.errors.values()}) == 1
    assert str(jet.errors[0]) == "sqrt of negative value in 'sqrt(x)'"


def test_chunk_evaluates_each_expression_once_and_only_when_asked(monkeypatch):
    read = ex.parse("t*x + y^2")
    points = np.random.default_rng(3).uniform(0.5, 1.5, size=(10, 4))
    evaluated = []

    def counting(e, *args):
        evaluated.append(e)
        return evaluate(e, *args)

    evaluate = ex.evaluate_jet2
    monkeypatch.setattr(ex, "evaluate_jet2", counting)
    jets = ex.ChunkJets(COORDS, points)
    assert evaluated == []
    for start, stop in ((0, 4), (4, 8), (8, 10), (0, 10)):
        for _ in range(2):
            block = jets.block(start, stop)(read)
            assert _bits(block) == _bits(evaluate(read, COORDS, points[start:stop]))
    assert evaluated == [read]


# -- transcendentals over N lanes --------------------------------------------------------


def lane_samples() -> np.ndarray:
    """Hard arguments for sin, cos and sqrt, of both signs: zeros, subnormals, neighbours of
    multiples of pi/2, 1e-300 to 1e300, NaN, infinities and seeded random values."""
    tiny = 2.2250738585072014e-308  # the smallest normal float
    subnormal = np.array([5e-324, 1e-320, tiny / 3, np.nextafter(tiny, 0.0), tiny])
    multiples = np.pi / 2 * np.concatenate([np.arange(1.0, 2001.0), 2.0 ** np.arange(20.0, 1000.0, 7.0)])
    near = np.concatenate([np.nextafter(multiples, np.inf), multiples, np.nextafter(multiples, -np.inf)])
    values = np.concatenate([[0.0, np.nan, np.inf], subnormal, near, np.logspace(-300, 300, 4001),
                             np.random.default_rng(25).uniform(-20.0, 20.0, 4000)])
    return np.concatenate([values, -values])


def _raises(func: str, v: float) -> bool:
    try:
        ex._UNARY_JET[func](v)
    except ex._MATH_ERRORS:
        return True
    return False


@pytest.mark.parametrize("func", sorted(ex._LANES_JET))
def test_lane_transcendentals_equal_math_bitwise(func):
    # numpy's function and the two derivative scalars of the jet, lane by lane,
    # against math's on one float; the lanes where math raises are rejected
    # with its error, but sqrt's negative lanes, which its node rejects before
    # as it does the zeros (test_lane_transcendental_jets_equal_the_point_alone)
    values = lane_samples()
    raises = np.array([_raises(func, v) for v in values.tolist()])
    walk = ex._Walk(COORDS, np.zeros((len(values), 4)), None)
    site = ex.parse(f"{func}(x)")
    with np.errstate(all="ignore"):
        got = ex._LANES_JET[func](values, site, walk)
    masked = raises & ~(values < 0.0) if func == "sqrt" else raises
    errors = {} if walk.first is None else {k: walk.errors[i] for k, i in enumerate(walk.first.tolist()) if i >= 0}
    assert sorted(errors) == np.flatnonzero(masked).tolist()
    message = "underflow" if func == "sqrt" else "infinite argument"
    assert {str(err) for err in errors.values()} == {f"{message} in '{func}(x)'"}
    want = np.array([ex._UNARY_JET[func](v) for v in values[~raises].tolist()]).T
    for g, w in zip(got, want):
        assert g[~raises].view(np.uint64).tolist() == w.view(np.uint64).tolist()


@pytest.mark.parametrize("func", sorted(ex._LANES_JET))
def test_lane_transcendental_jets_equal_the_point_alone(func):
    # one lane per sample, in a batch of the lanes where math computes and in
    # one of those where it raises and some others: each lane is its point
    # alone, errors and their texts included
    values = lane_samples()
    raises = np.array([_raises(func, v) for v in values.tolist()])
    tree = ex.parse(f"{func}(x)")
    texts = set()
    for lanes in (values[~raises], np.concatenate([values[raises], values[~raises][::40]])):
        points = np.zeros((len(lanes), 4))
        points[:, 1] = lanes
        batch = ex.evaluate_jet2(tree, COORDS, points)
        alone = _single(tree, points)
        assert sorted(batch.errors) == [i for i, a in enumerate(alone) if isinstance(a, str)]
        for i, a in enumerate(alone):
            if i in batch.errors:
                assert f"{type(batch.errors[i]).__name__}: {batch.errors[i]}" == a
                texts.add(a)
            else:
                assert _bits(batch, i) == a
    site = f"in '{func}(x)'"
    expected = ({f"DomainEvalError: infinite argument {site}"} if func != "sqrt" else
                {f"DomainEvalError: {m} {site}" for m in
                 ("sqrt of negative value", "sqrt not differentiable at zero", "underflow")})
    assert texts == expected


def test_lane_transcendentals_hold_at_numpy_baseline_dispatch():
    # numpy picks SIMD kernels per host at import; the two tests above are
    # run again in a child with every dispatched feature this host has disabled
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches no CPU feature beyond its baseline on this host")
    tests = [f"tests/test_expr.py::{test.__name__}" for test in
             (test_lane_transcendentals_equal_math_bitwise, test_lane_transcendental_jets_equal_the_point_alone)]
    probe = ("import sys, pytest; from numpy._core import _multiarray_umath as m; "
             f"assert not any(m.__cpu_features__[f] for f in {features!r}); "
             f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{tests!r}]))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=repo, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{2 * len(ex._LANES_JET)} passed" in proc.stdout, proc.stdout


# -- subtrees shared within a chunk ------------------------------------------------------


def _jet_record(jet) -> tuple:
    """A batched jet's bytes and its errors, in order, as (point, class, text)."""
    errors = [(k, type(err).__name__, str(err)) for k, err in jet.errors.items()]
    return jet.val.tobytes(), jet.grad.tobytes(), jet.hess.tobytes(), errors


def assert_chunk_is_each_source_alone(sources, coords, points, params):
    # with the sources given, shared subtrees are evaluated once, and every
    # kept jet is dropped at its last read; without, each source's subtrees
    # are added as it is asked for
    alone = [_jet_record(ex.evaluate_jet2(tree, coords, points, params)) for tree in sources]
    for given in (sources, ()):
        chunk = ex.ChunkJets(coords, points, params, given)
        jets = chunk.block(0, len(points))
        got = [_jet_record(jets(tree)) for tree in sources]  # every source asked before any is compared
        for tree, record, want in zip(sources, got, alone):
            assert record == want, ex.serialize(tree)
        assert chunk._tape.kept == {}


def test_chunk_jets_of_the_parse_corpus_are_each_source_alone():
    # the corpus's trees share many subtrees; some names are unbound and some
    # lanes leave a function's domain, so most kinds of error occur
    trees = []
    for src in parse_corpus():
        try:
            trees.append(ex.parse(src))
        except ParseError:
            pass
    assert len(trees) > 1500
    trees += [ex.const(0.0), ex.const(-0.0), ex.Mul(ex.Var("x"), ex.const(-0.0))]  # equal only by value
    coords = ("t", "x", "r", "θ")
    points = np.random.default_rng(4).uniform(-2.0, 2.0, size=(7, 4))
    points[3] = (0.0, 0.0, 1.0, -1.0)
    assert_chunk_is_each_source_alone(trees, coords, points, {"M": 1.0, "_a": 0.5, "x٣": -0.3})


# sources sharing log(x-p), which fails where x <= p; sqrt(y) fails where y <= 0 and
# comes first in its source's tree order in two of them
SHARED_FAILING = ("log(x-p)", "log(x-p)*t", "sqrt(y)+log(x-p)", "log(x-p)+sqrt(y)", "1/t+log(x-p)^2",
                  "exp(log(x-p))*sqrt(y)", "sqrt(y)*log(x-p)")


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_a_shared_failing_subtree_keeps_each_source_s_first_error(order):
    xs = [2.0, 0.5, 0.25, 2.0, 0.1, 3.0, 0.5]  # x <= p = 0.5 on lanes 1, 2, 4, 6
    ys = [1.0, 1.0, -1.0, -2.0, 0.0, 0.5, -1.0]  # y <= 0 on lanes 2, 3, 4, 6
    ts = [1.0, 0.5, 1.5, 0.0, 2.0, 1.0, 0.0]  # t = 0 on lanes 3, 6
    points = np.array([[t, x, y, 0.2] for t, x, y in zip(ts, xs, ys)])
    params = {"p": 0.5}
    sources = [ex.parse(src) for src in SHARED_FAILING[::order]]
    assert_chunk_is_each_source_alone(sources, COORDS, points, params)
    jets = ex.ChunkJets(COORDS, points, params, sources).block(0, len(points))
    for tree in sources:
        alone = _single(tree, points, params)
        errors = jets(tree).errors
        assert {k: f"DomainEvalError: {err}" for k, err in errors.items()} == {
            k: a for k, a in enumerate(alone) if isinstance(a, str)}
    first = {src: {k: str(err).split(" in ")[0] for k, err in jets(ex.parse(src)).errors.items()}
             for src in ("sqrt(y)+log(x-p)", "log(x-p)+sqrt(y)")}
    log, negative, zero = "log of non-positive value", "sqrt of negative value", "sqrt not differentiable at zero"
    assert first == {"sqrt(y)+log(x-p)": {1: log, 2: negative, 3: negative, 4: zero, 6: negative},
                     "log(x-p)+sqrt(y)": {1: log, 2: log, 3: negative, 4: log, 6: log}}


def test_a_long_sum_holds_a_few_jets_at_a_time():
    # each partial sum of a left-associated sum is a distinct subtree read
    # once, so its jet is dropped when the next one is made: over a chunk the
    # sum takes a few jets' memory a point, not one jet per term (which at
    # this length would be 430 MB; test_a_sum_of_any_length_is_parsed_compared_and_evaluated
    # evaluates 100 000 terms)
    terms = 10_000
    tree = ex.parse.__wrapped__("+".join(["1"] * terms))
    peaks = {}
    for n in (2, CHUNK):
        jets = ex.ChunkJets(COORDS, np.zeros((n, 4)), None, [tree])  # its tape is made here, untraced
        tracemalloc.start()
        jet = jets.block(0, n)(tree)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert jet.val.tolist() == [terms] * n and jet.errors == {}
    jet_bytes = (1 + 4 + 16) * 8  # one point's value, gradient and Hessian
    assert peaks[CHUNK] - peaks[2] < 6 * jet_bytes * (CHUNK - 2)


# -- forests: each tree at a point of its own ---------------------------------------------


def _alone(tree, coords, point, params):
    """The jet bytes of ``tree`` at ``point`` alone, or the error it raises as "<class>: <message>"."""
    try:
        return _bits(ex.evaluate_jet2(tree, coords, point, params))
    except ExprError as err:
        return f"{type(err).__name__}: {err}"


def assert_forest_is_each_tree_alone(trees, coords, points, params=None) -> dict:
    """Lane t of the forest is ``trees[t]`` at ``points[t]`` alone, bitwise; returns its errors."""
    jet = ex.evaluate_forest(trees, coords, points, params)
    assert jet.val.shape == (len(trees),) and jet.grad.shape == (len(trees), 4)
    assert jet.hess.shape == (len(trees), 4, 4) and list(jet.errors) == sorted(jet.errors)
    for t, (tree, point) in enumerate(zip(trees, points)):
        want = _alone(tree, coords, point, params)
        if t in jet.errors:
            assert f"{type(jet.errors[t]).__name__}: {jet.errors[t]}" == want, ex.serialize(tree)
            assert _bits(jet, t) == _ZERO_JET
        else:
            assert _bits(jet, t) == want, ex.serialize(tree)
    return jet.errors


def test_forest_of_the_parse_corpus_is_each_tree_at_its_point_alone():
    # the trees in a random order, each at one of a few points, some of them
    # zeros where divisions, logs and square roots fail, so most kinds of
    # error occur, and lanes of one group hold different values
    trees = []
    for src in parse_corpus():
        try:
            trees.append(ex.parse(src))
        except ParseError:
            pass
    rng = np.random.default_rng(8)
    trees = [trees[k] for k in rng.permutation(len(trees))]
    pool = rng.uniform(-2.0, 2.0, size=(9, 4))
    pool[:2] = ((0.0, 0.0, 1.0, -1.0), (1.0, 0.0, 0.0, 0.0))
    points = pool[rng.integers(0, len(pool), size=len(trees))]
    errors = assert_forest_is_each_tree_alone(trees, ("t", "x", "r", "θ"), points,
                                              {"M": 1.0, "_a": 0.5, "x٣": -0.3})
    assert 0 < len(errors) < len(trees)
    assert {type(err) for err in errors.values()} == {DomainEvalError, UnboundIdentifierError}
    assert {str(err).split(" in ")[0] for err in errors.values()} >= {
        "division by zero", "log of non-positive value", "sqrt of negative value",
        "power with non-integer exponent requires positive base", "overflow"}


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_forest_of_random_fields_is_each_tree_at_its_point_alone(key):
    # the operator selftest's fields, each component at its field's point
    spec = build_metric(key)
    rng = np.random.default_rng(23)
    trees, points = [], []
    for _ in range(48):
        field = selftest.random_field(rng, spec.coords, selftest.random_mixed_masks(rng))
        point = selftest.catalog_sample_point(rng, spec)
        comps = [e for e in field.comps if not ex.is_zero(e)]
        trees += comps
        points += [point] * len(comps)
    assert any(isinstance(node, ex.Call) for e in trees for node in ex._postorder(e)[0])  # sin over lanes
    assert assert_forest_is_each_tree_alone(trees, spec.coords, np.array(points), spec.params) == {}


def test_an_empty_forest_is_an_empty_jet():
    jet = ex.evaluate_forest([], COORDS, np.zeros((0, 4)))
    assert (jet.val.shape, jet.grad.shape, jet.hess.shape, jet.errors) == ((0,), (0, 4), (0, 4, 4), {})
