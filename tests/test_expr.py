
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcheck import expr as ex
from cliffcheck.errors import DomainEvalError, ParseError, UnboundIdentifierError

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


def test_a_tree_deeper_than_max_depth_is_a_parse_error():
    assert ex.MAX_DEPTH == 900
    assert ex.parse("+".join(["1"] * 900)) is ex.parse("+".join(["1"] * 900))  # 900 levels
    for src in ("+".join(["1"] * 901), "+".join(["1"] * 2000), "x" + "*x" * 900, "x" + "/x-1" * 900):
        for _ in range(2):
            with pytest.raises(ParseError, match=r"^expression tree deeper than 900 levels \(column 1\)$"):
                ex.parse(src)


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
