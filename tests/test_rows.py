"""The operators compute only the blade rows their field's grades reach.

Gop keeps the grade, so D_a F and D_a D_b F of a field of grades P are zero
outside P's rows, and a grade-2 blade moves a grade by -2, 0 or +2, so the
Ricci operator reaches only P - 2, P and P + 2.  A :class:`FieldCalculus`
computes those rows alone and gives the others +0.0, which is what every
row's dense dot gives them from finite jets.  The oracle is the all-rows
route: a calculator of every grade given the same jets.  Each operator must
give its bits, on every host and at numpy's baseline dispatch
(``test_pinned_digests_hold_at_numpy_baseline_dispatch``).
"""

import copy
from functools import cached_property

import numpy as np
import pytest

from cliffcheck import blades
from cliffcheck import expr as ex
from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck.diffops import FieldCalculus, MultivectorField

from oracles import check_dict
from test_diffops import MINK, SCHW, lane_outputs, random_entries, random_poly_field
from test_fieldcheck import GENERIC, field
from test_geometry import BLOCK_CASES

GRADE_SETS = [frozenset({p}) for p in range(5)] + [frozenset({1, 3}), frozenset({0, 2, 4}), blades.ALL_GRADES]
GRADE_IDS = ["".join(map(str, sorted(grades))) for grades in GRADE_SETS]
# the catalog's diagonal metrics, Kerr's g_t phi and a metric with every component off the diagonal
ROW_METRICS = {key: (spec, box) for key, (spec, box) in BLOCK_CASES.items()}
ROW_METRICS["generic"] = (GENERIC, ([-1.0] * 4, [1.0] * 4))
COUNTS = [None, 16]


def every_row(fc: FieldCalculus) -> FieldCalculus:
    """A calculator of ``fc``'s jets at ``fc``'s geometry that computes every blade row."""
    full = FieldCalculus(MultivectorField((ex.ONE,) * 16), fc.gd)
    full.jets = fc.jets
    return full


def row_outputs(fc: FieldCalculus) -> list:
    """Every operator and covariant derivative, and the parts of d_s (D_a F).

    ``codifferential_hodge_route`` is left out: it sums over the field's
    grades, not over rows, as it did before rows were restricted.
    """
    outputs = lane_outputs(fc)
    del outputs[7]  # codifferential_hodge_route
    return outputs + [fc._dgop_vals(), fc._gop_grads(), fc._pd_cov1]


def assert_rows_equal_every_row(fc: FieldCalculus) -> None:
    for k, (got, want) in enumerate(zip(row_outputs(fc), row_outputs(every_row(fc)))):
        assert got.shape == want.shape, k
        assert got.tobytes() == want.tobytes(), k


def grades_rows(grades) -> set:
    return {m for m in range(16) if blades.GRADE[m] in grades}


def test_the_row_sets_of_each_grade_set():
    for grades in GRADE_SETS:
        rs = blades.row_set(grades)
        assert rs.rows.tolist() == [m for m in range(16) if blades.GRADE[m] in grades]
        positions = [p for p in blades.SUB_POSITIONS.tolist() if p // 16 in grades_rows(grades)]
        assert sorted(rs.rows[rs.at // 16] * 16 + rs.at % 16) == positions
        assert rs.take.shape[1] == len(positions)
    assert len(blades.row_set(frozenset({1})).at) == 16 and blades.row_set(frozenset({1})).take.shape == (1, 16)
    assert len(blades.row_set(frozenset({0})).at) == 0
    everything = blades.row_set(blades.ALL_GRADES)
    assert everything.at.tolist() == blades.SUB_POSITIONS.tolist()
    assert everything.take.tobytes() == blades.SUB_TAKE.tobytes()


def test_the_correction_rows_are_the_all_rows_gather_at_those_rows():
    spec, (lo, hi) = ROW_METRICS["generic"]
    gd = geo.curvature(spec, np.random.default_rng(3).uniform(lo, hi, size=(16, 4)))
    for grades in GRADE_SETS:
        rs = blades.row_set(grades)
        assert gd.gop_rows(grades).tobytes() == np.ascontiguousarray(gd.gop[..., rs.rows, :]).tobytes()
        positions = np.searchsorted(blades.SUB_POSITIONS, rs.rows[rs.at // 16] * 16 + rs.at % 16)
        assert gd.dgop_rows(grades).tobytes() == np.ascontiguousarray(gd.dgop[..., positions]).tobytes()
        assert gd.gop_rows(grades) is gd.gop_rows(grades)  # once per grade set


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("key", sorted(ROW_METRICS))
@pytest.mark.parametrize("grades", GRADE_SETS, ids=GRADE_IDS)
def test_operators_on_the_rows_of_a_grade_set_equal_every_row_bitwise(grades, key, count):
    spec, (lo, hi) = ROW_METRICS[key]
    rng = np.random.default_rng(53)
    points = rng.uniform(lo, hi, size=(count or 1, 4))
    gd = geo.curvature(spec, points if count else points[0])
    assert gd.errors == {}
    masks = [m for m in range(16) if blades.GRADE[m] in grades]
    fc = FieldCalculus(random_poly_field(rng, spec.coords, masks), gd)
    assert fc.grades == grades
    assert_rows_equal_every_row(fc)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("grades", GRADE_SETS, ids=GRADE_IDS)
def test_operators_on_the_rows_of_a_grade_set_equal_every_row_on_random_entries(grades, count):
    # 0.0, -0.0 and magnitudes 1e-8 to 1e8 in the connection and in the jets,
    # the jets zero outside the grades
    rng = np.random.default_rng(59)
    lanes = (count,) if count else ()
    base = geo.curvature(MINK, np.zeros(lanes + (4,)))
    outside = ~np.isin(blades.GRADE, list(grades))
    for _ in range(10):
        gd = copy.copy(base)
        gd.gamma, gd.dgamma = random_entries(rng, lanes + (4, 4, 4)), random_entries(rng, lanes + (4, 4, 4, 4))
        fc = FieldCalculus(MultivectorField((ex.ONE,) * 16), gd)
        fc.grades = grades
        jets = [random_entries(rng, lanes + (16,) + tail) for tail in ((), (4,), (4, 4))]
        for part in jets:
            part[(Ellipsis, outside) + (slice(None),) * (part.ndim - len(lanes) - 1)] = 0.0
        fc.jets = ex.Jet2(*jets)
        assert_rows_equal_every_row(fc)


def test_a_field_of_no_grade_computes_no_row():
    gd = geo.curvature(SCHW, np.array([[0.3, 3.5, 1.1, 0.7], [-1.2, 7.0, 2.2, 4.0]]))
    fc = FieldCalculus(MultivectorField.zero(), gd)
    assert fc.grades == frozenset()
    for got in (fc.cov1, fc.cov2, fc.ricci_operator()):
        assert got.tobytes() == np.zeros_like(got).tobytes()
    assert_rows_equal_every_row(fc)


# -- a lane whose field jets are not finite --------------------------------------------


def every_grade(monkeypatch) -> None:
    """Make each FieldCalculus made from now on compute every row."""
    init = FieldCalculus.__init__

    def init_every_row(self, f, gd):
        init(self, f, gd)
        self.grades = blades.ALL_GRADES

    monkeypatch.setattr(FieldCalculus, "__init__", init_every_row)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("part", ["val", "grad", "hess"])
def test_a_lane_with_a_non_finite_field_jet_keeps_the_reports_of_every_row(monkeypatch, part, bad):
    # every row's dense dot gives 0 * inf = NaN in the rows outside the field's
    # grades, where the restricted rows are +0.0; each point's error text, and
    # every other byte of the reports, must stay those of the all-rows route
    K = field({"t": "1-2*M/r"}, SCHW)
    fields = fch.ScenarioFields(K=K, S=field({"1": "t"}, SCHW), V=field({"t": "sqrt(1-2*M/r)"}, SCHW))
    points = [(0.2 * k, 3.0 + k, 0.5 + 0.2 * k, 0.3 * k) for k in range(5)]
    names = list(fch.CHECKS)
    tols = [1e-8] * len(names)
    jets = FieldCalculus.jets.func

    def poisoned(fc):
        out = jets(fc)
        if fc.field is K:
            getattr(out, part)[2, 1] = bad  # lane 2, blade t
        return out

    kept = cached_property(poisoned)
    kept.__set_name__(FieldCalculus, "jets")
    monkeypatch.setattr(FieldCalculus, "jets", kept)
    rows = [check_dict(r) for r in fch.run_checks(SCHW, fields, names, points, tols)]
    every_grade(monkeypatch)
    dense = [check_dict(r) for r in fch.run_checks(SCHW, fields, names, points, tols)]
    errors = [[p["error"] for p in r["points"]] for r in dense]
    assert any(e[2] and e[2].startswith("non-finite") for e in errors)
    assert not any(e[k] for e in errors for k in (0, 1, 3, 4))
    for got, want in zip(rows, dense):
        assert [p["error"] for p in got["points"]] == [p["error"] for p in want["points"]], got["check"]
        assert got == want, got["check"]
