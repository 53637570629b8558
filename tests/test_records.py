"""The package's record types: the reprs that pinned digests hash, read-only
fields, and default dicts that belong to one instance."""

from pathlib import Path

import pytest

from cliffcheck import expr as ex
from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck import runner

REPO = Path(__file__).resolve().parents[1]

T, R = ex.Var("t"), ex.Var("r")
NODE_REPRS = [
    (ex.Num(2.0), "Num(value=2.0)"),
    (ex.Var("theta"), "Var(name='theta')"),
    (ex.Neg(T), "Neg(arg=Var(name='t'))"),
    (ex.Add(ex.ONE, T), "Add(left=Num(value=1.0), right=Var(name='t'))"),
    (ex.Sub(T, R), "Sub(left=Var(name='t'), right=Var(name='r'))"),
    (ex.Mul(ex.Num(-0.5), R), "Mul(left=Num(value=-0.5), right=Var(name='r'))"),
    (ex.Div(ex.ONE, R), "Div(left=Num(value=1.0), right=Var(name='r'))"),
    (ex.Pow(R, ex.Num(2.0)), "Pow(left=Var(name='r'), right=Num(value=2.0))"),
    (ex.Call("sin", (R,)), "Call(func='sin', args=(Var(name='r'),))"),
    (ex.Call("atan2", (T, ex.Neg(R))), "Call(func='atan2', args=(Var(name='t'), Neg(arg=Var(name='r'))))"),
]


@pytest.mark.parametrize("node, text", NODE_REPRS, ids=[text.split("(")[0] for _, text in NODE_REPRS])
def test_expr_node_reprs_are_pinned(node, text):
    assert repr(node) == text


def test_a_parsed_tree_repr_is_pinned():
    assert repr(ex.parse("1-2*M/r")) == (
        "Sub(left=Num(value=1.0), right=Div(left=Mul(left=Num(value=2.0), right=Var(name='M')), "
        "right=Var(name='r')))"
    )


def test_killing_form_repr_is_pinned():
    assert [repr(kf) for kf in geo.killing_forms("flrw", {"a": "t^2+1"})] == [
        "KillingForm(name='dx-dual', components={'x': '-(t^2+1)^2'})",
        "KillingForm(name='dy-dual', components={'y': '-(t^2+1)^2'})",
        "KillingForm(name='dz-dual', components={'z': '-(t^2+1)^2'})",
    ]


def _frozen_records():
    scenario = runner.load_scenario(REPO / "scenarios" / "minkowski_boost.json")
    yield from ((node, type(node).__name__, _node_fields(node)) for node, _ in NODE_REPRS)
    yield geo.build_metric("schwarzschild"), "MetricSpec", ("coords", "g_lower", "params", "name", "domain")
    yield scenario, "Scenario", ("description", "spec", "fields", "checks", "points", "tolerances",
                                 "seed", "digest")
    yield fch.CHECKS["killing"], "Check", ("name", "needs", "notes", "fn")
    yield fch.Constants(), "Constants", ("e", "m", "coupling")
    yield geo.CATALOG["flrw"], "CatalogEntry", ("key", "description", "param_doc", "coords", "domain",
                                                "diagonal", "killing_sources", "rule")
    yield geo.killing_forms("minkowski")[0], "KillingForm", ("name", "components")


def _node_fields(node) -> tuple:
    return {ex.Num: ("value",), ex.Var: ("name",), ex.Neg: ("arg",), ex.Call: ("func", "args")}.get(
        type(node), ("left", "right"))


FROZEN = list(_frozen_records())


@pytest.mark.parametrize("record, kind, fields", FROZEN, ids=[kind for _, kind, _ in FROZEN])
def test_read_only_records_refuse_assignment_to_their_fields(record, kind, fields):
    assert type(record).__name__ == kind
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


def test_metric_specs_do_not_share_their_default_dicts():
    rows = tuple(tuple(ex.Num(float(i == j)) for j in range(4)) for i in range(4))
    a, b = geo.MetricSpec(("t", "x", "y", "z"), rows), geo.MetricSpec(("t", "x", "y", "z"), rows)
    assert a.params == b.params == {} and a.domain == b.domain == {}
    assert a.params is not b.params and a.domain is not b.domain
    a.params["M"] = 1.0
    a.domain["t"] = (0.0, 1.0)
    assert b.params == {} and b.domain == {}
