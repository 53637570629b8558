import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcheck import blades
from cliffcheck.algebra import (STORED_TABLES, TABLE_NAMES, Multivector, PointMetric, TableStore, grade_project,
                                linear_combination, wedge)
from cliffcheck.errors import DegenerateMetricError, SignatureError

import oracles

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@pytest.fixture
def eta():
    return PointMetric(ETA)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_mv(rng, scale=1.0):
    return Multivector(scale * rng.uniform(-1.0, 1.0, size=16))


def random_metric(rng):
    return PointMetric(oracles.random_lorentzian_cotangent(rng))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return diff / scale


# -- wedge -------------------------------------------------------------------


def test_wedge_same_covector_vanishes():
    g0 = Multivector.covector(0)
    assert wedge(g0, g0).sup() == 0.0


def test_wedge_disjoint_masks():
    g0, g1 = Multivector.covector(0), Multivector.covector(1)
    out = wedge(g0, g1)
    assert out.coeffs[0b0011] == 1.0
    assert np.count_nonzero(out.coeffs) == 1


def test_wedge_top_grade_sign_via_oracle():
    b01 = Multivector.blade((0, 1))
    b23 = Multivector.blade((2, 3))
    out = wedge(b01, b23)
    expected = oracles.wedge_oracle(b01.coeffs, b23.coeffs)
    assert np.array_equal(out.coeffs, expected)
    assert out.coeffs[0b1111] == 1.0


def test_wedge_matches_oracle_random(rng):
    for _ in range(200):
        a, b = random_mv(rng), random_mv(rng)
        assert rel_err(wedge(a, b).coeffs, oracles.wedge_oracle(a.coeffs, b.coeffs)) < 1e-14


def test_wedge_graded_anticommutativity(rng):
    for r in range(5):
        for s in range(5):
            a = grade_project(random_mv(rng), r)
            b = grade_project(random_mv(rng), s)
            lhs = wedge(a, b).coeffs
            rhs = (-1.0) ** (r * s) * wedge(b, a).coeffs
            assert rel_err(lhs, rhs) < 1e-14


# -- scalar product ------------------------------------------------------------


def test_scalar_product_minkowski_basics(eta):
    g0 = Multivector.covector(0)
    assert eta.scalar_product(g0, g0) == 1.0
    b01 = Multivector.blade((0, 1))
    assert eta.scalar_product(b01, b01) == -1.0
    # grade mismatch
    assert eta.scalar_product(g0, b01) == 0.0


def test_scalar_product_matches_gram_oracle(rng):
    for _ in range(50):
        m = random_metric(rng)
        a, b = random_mv(rng), random_mv(rng)
        got = m.scalar_product(a, b)
        want = oracles.gram_scalar_oracle(a.coeffs, b.coeffs, m.g)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_scalar_product_symmetric_bilinear(rng):
    m = random_metric(rng)
    a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
    assert abs(m.scalar_product(a, b) - m.scalar_product(b, a)) < 1e-12
    lhs = m.scalar_product(a, b + 2.0 * c)
    rhs = m.scalar_product(a, b) + 2.0 * m.scalar_product(a, c)
    assert abs(lhs - rhs) < 1e-11


# -- contractions --------------------------------------------------------------


def test_left_contract_spec_cases(eta):
    g0, g1 = Multivector.covector(0), Multivector.covector(1)
    b01 = Multivector.blade((0, 1))
    # gamma^1 _| (gamma^0 ^ gamma^1) = gamma^0 under eta
    out = eta.left_contract(g1, b01)
    assert np.array_equal(out.coeffs, g0.coeffs)
    # scalars contract as ordinary product
    assert eta.left_contract(Multivector.scalar(2.0), Multivector.scalar(3.0)).scalar_part == 6.0
    # higher grade into lower vanishes
    assert eta.left_contract(b01, g0).sup() == 0.0


def test_left_contract_matches_oracle(rng):
    for _ in range(60):
        m = random_metric(rng)
        a, b = random_mv(rng), random_mv(rng)
        got = m.left_contract(a, b).coeffs
        want = oracles.left_contract_oracle(a.coeffs, b.coeffs, m.g)
        assert rel_err(got, want) < 1e-12


def test_right_contract_spec_cases(eta):
    g0, g1 = Multivector.covector(0), Multivector.covector(1)
    b01 = Multivector.blade((0, 1))
    # (gamma^0 ^ gamma^1) |_ gamma^1 = -(gamma^1 _| (gamma^0^gamma^1)) = -gamma^0
    out = eta.right_contract(b01, g1)
    assert np.array_equal(out.coeffs, (-g0).coeffs)
    assert eta.right_contract(g0, b01).sup() == 0.0
    assert eta.right_contract(Multivector.scalar(2.0), Multivector.scalar(3.0)).scalar_part == 6.0


def test_left_right_contraction_relation(rng):
    m = random_metric(rng)
    for r in range(5):
        for s in range(r, 5):
            a = grade_project(random_mv(rng), r)
            b = grade_project(random_mv(rng), s)
            lhs = m.left_contract(a, b).coeffs
            rhs = (-1.0) ** (r * (s - r)) * m.right_contract(b, a).coeffs
            assert rel_err(lhs, rhs) < 1e-13


# -- clifford product ----------------------------------------------------------


def test_clifford_minkowski_squares(eta):
    g0 = Multivector.covector(0)
    assert eta.clifford(g0, g0).coeffs[0] == 1.0
    b01 = Multivector.blade((0, 1))
    out = eta.clifford(b01, b01)
    assert out.coeffs[0] == 1.0
    assert np.count_nonzero(out.coeffs) == 1


def test_clifford_matches_monomial_oracle(rng):
    for _ in range(60):
        m = random_metric(rng)
        a, b = random_mv(rng), random_mv(rng)
        got = m.clifford(a, b).coeffs
        want = oracles.clifford_oracle(a.coeffs, b.coeffs, m.g)
        assert rel_err(got, want) < 1e-12


def test_anticommutator_exact(rng):
    for _ in range(10):
        m = random_metric(rng)
        for i in range(4):
            for j in range(4):
                gi, gj = Multivector.covector(i), Multivector.covector(j)
                anti = m.clifford(gi, gj) + m.clifford(gj, gi)
                expect = np.zeros(16)
                expect[0] = 2.0 * m.g[i, j]
                assert np.array_equal(anti.coeffs, expect)


def test_associativity(rng):
    for _ in range(50):
        m = random_metric(rng)
        a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
        lhs = m.clifford(m.clifford(a, b), c).coeffs
        rhs = m.clifford(a, m.clifford(b, c)).coeffs
        assert rel_err(lhs, rhs) < 1e-12


def test_one_form_product_splits_into_contraction_and_wedge(rng):
    m = random_metric(rng)
    for _ in range(20):
        a = grade_project(random_mv(rng), 1)
        b = random_mv(rng)
        lhs = m.clifford(a, b).coeffs
        rhs = (m.left_contract(a, b) + wedge(a, b)).coeffs
        assert rel_err(lhs, rhs) < 1e-13


def test_product_grade_spectrum(rng):
    # <A_r B_s>_k is nonzero only for k = |r-s|, |r-s|+2, ..., r+s
    m = random_metric(rng)
    for r in range(5):
        for s in range(5):
            a = grade_project(random_mv(rng), r)
            b = grade_project(random_mv(rng), s)
            prod = m.clifford(a, b)
            allowed = set(range(abs(r - s), min(r + s, 8 - r - s) + 1, 2))
            for k in range(5):
                part = grade_project(prod, k).sup()
                if k not in allowed:
                    assert part < 1e-13


def test_half_commutator_identities(rng):
    # a _| B_s = (aB_s - (-1)^s B_s a)/2 and a ^ B_s = (aB_s + (-1)^s B_s a)/2
    m = random_metric(rng)
    for s in range(5):
        a = grade_project(random_mv(rng), 1)
        b = grade_project(random_mv(rng), s)
        ab = m.clifford(a, b)
        ba = m.clifford(b, a)
        contract = 0.5 * (ab.coeffs - (-1.0) ** s * ba.coeffs)
        wedge_part = 0.5 * (ab.coeffs + (-1.0) ** s * ba.coeffs)
        assert rel_err(m.left_contract(a, b).coeffs, contract) < 1e-13
        assert rel_err(wedge(a, b).coeffs, wedge_part) < 1e-13


def test_scalar_product_as_scalar_part_of_reversed_product(rng):
    m = random_metric(rng)
    for r in range(5):
        a = grade_project(random_mv(rng), r)
        b = grade_project(random_mv(rng), r)
        sp = m.scalar_product(a, b)
        via_rev = m.clifford(a.reverse(), b).scalar_part
        via_rev2 = m.clifford(a, b.reverse()).scalar_part
        assert abs(sp - via_rev) < 1e-12
        assert abs(sp - via_rev2) < 1e-12


def test_reverse_antiautomorphism(rng):
    m = random_metric(rng)
    a, b = random_mv(rng), random_mv(rng)
    lhs = m.clifford(a, b).reverse().coeffs
    rhs = m.clifford(b.reverse(), a.reverse()).coeffs
    assert rel_err(lhs, rhs) < 1e-13


def test_reverse_signs_per_grade():
    b01 = Multivector.blade((0, 1))
    assert np.array_equal(b01.reverse().coeffs, -b01.coeffs)
    assert Multivector.scalar(5.0).reverse().scalar_part == 5.0
    tau = Multivector.from_mask(15, 1.0)
    assert np.array_equal(tau.reverse().coeffs, tau.coeffs)
    twice = Multivector(np.arange(16.0)).reverse().reverse()
    assert np.array_equal(twice.coeffs, np.arange(16.0))


# -- grade projection ----------------------------------------------------------


def test_grade_projection_basics():
    x = Multivector.scalar(1.0) + Multivector.covector(0) + Multivector.blade((0, 1))
    assert np.array_equal(grade_project(x, 1).coeffs, Multivector.covector(0).coeffs)
    with pytest.raises(ValueError):
        grade_project(x, 5)


def test_grade_projection_partition(rng):
    x = random_mv(rng)
    total = Multivector.zero()
    for k in range(5):
        part = grade_project(x, k)
        again = grade_project(part, k)
        assert np.array_equal(part.coeffs, again.coeffs)
        total = total + part
    assert np.array_equal(total.coeffs, x.coeffs)


# -- linear combinations ---------------------------------------------------------


def _sequential_sum(weights, terms) -> Multivector:
    # the reference: one addition per term, from zero, in order of k
    out = Multivector.zero()
    for k in range(len(terms)):
        out = out + weights[..., k] * terms[k]
    return out


def _special_draw(rng, shape):
    """Values over 24 decades of both signs, with a share of ±0.0, NaN and ±inf."""
    x = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    pick = rng.random(shape) < 0.15
    x[pick] = specials[rng.integers(0, len(specials), size=int(pick.sum()))]
    return x


@pytest.mark.parametrize("lead", [(), (16,)], ids=["one-point", "block-16"])
@pytest.mark.parametrize("count", [1, 4, 7])
def test_linear_combination_is_the_sequential_sum_bitwise(lead, count):
    rng = np.random.default_rng(8100 + count + len(lead))
    for _ in range(25):
        weights = _special_draw(rng, lead + (count,))
        coeffs = _special_draw(rng, (count,) + lead + (16,))
        coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
        terms = [Multivector(c) for c in coeffs]
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and inf - inf give NaN
            got = linear_combination(weights, terms).coeffs
            want = _sequential_sum(weights, terms).coeffs
            again = linear_combination(weights, (t for t in terms)).coeffs
        assert got.shape == lead + (16,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(again.view(np.uint64), want.view(np.uint64))


def test_linear_combination_order_shows_in_the_bits():
    # the reference is sensitive to order: the same products summed last to
    # first, or in pairs as an unrolled or blocked sum adds them, give other
    # bits, so a rewrite that sums in such an order fails the test above
    rng = np.random.default_rng(8200)
    weights = rng.uniform(-1.0, 1.0, size=(16, 4)) * 10.0 ** rng.integers(-8, 9, size=(16, 4))
    coeffs = rng.uniform(-1.0, 1.0, size=(4, 16, 16)) * 10.0 ** rng.integers(-8, 9, size=(4, 16, 16))
    terms = [Multivector(c) for c in coeffs]
    want = _sequential_sum(weights, terms).coeffs.view(np.uint64)
    products = [w[:, np.newaxis] * c for w, c in zip(weights.T, coeffs)]
    reversed_order = _sequential_sum(weights[..., ::-1], terms[::-1]).coeffs
    pairwise = (products[0] + products[1]) + (products[2] + products[3])
    assert not np.array_equal(reversed_order.view(np.uint64), want)
    assert not np.array_equal(pairwise.view(np.uint64), want)


# -- contraction identities ------------------------------------------------------


def test_contraction_antiderivation(rng):
    # a _| (X ^ Y) = (a _| X) ^ Y + hat(X) ^ (a _| Y)
    m = random_metric(rng)
    for _ in range(30):
        a = grade_project(random_mv(rng), 1)
        x, y = random_mv(rng), random_mv(rng)
        lhs = m.left_contract(a, wedge(x, y)).coeffs
        rhs = (wedge(m.left_contract(a, x), y) + wedge(x.involute(), m.left_contract(a, y))).coeffs
        assert rel_err(lhs, rhs) < 1e-12


def test_contraction_composition(rng):
    # A _| (B _| C) = (A ^ B) _| C
    m = random_metric(rng)
    for _ in range(30):
        a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
        lhs = m.left_contract(a, m.left_contract(b, c)).coeffs
        rhs = m.left_contract(wedge(a, b), c).coeffs
        assert rel_err(lhs, rhs) < 1e-12


# -- hodge ---------------------------------------------------------------------


def test_hodge_of_unit_scalar_and_volume(eta):
    one = Multivector.scalar(1.0)
    tau = eta.volume_form()
    assert np.array_equal(eta.hodge(one).coeffs, tau.coeffs)
    # star tau = sign(det) = -1 in Lorentzian signature
    assert eta.hodge(tau).scalar_part == -1.0
    assert np.count_nonzero(eta.hodge(tau).coeffs) == 1


def test_hodge_of_timelike_covector(eta):
    out = eta.hodge(Multivector.covector(0))
    want = Multivector.blade((1, 2, 3))
    assert np.array_equal(out.coeffs, want.coeffs)


def test_hodge_matches_oracle_random_metric(rng):
    for _ in range(40):
        m = random_metric(rng)
        a = random_mv(rng)
        got = m.hodge(a).coeffs
        want = oracles.hodge_oracle(a.coeffs, m.g, m.sqrt_abs_det)
        assert rel_err(got, want) < 1e-12


def test_hodge_defining_relation_on_blades(rng):
    # [B_k . A_k] tau = B_k ^ star(A_k) for every basis blade pair and random B
    m = random_metric(rng)
    tau = m.volume_form()
    for mask_a in range(16):
        a = Multivector.from_mask(mask_a)
        k = int(blades.GRADE[mask_a])
        b = grade_project(random_mv(rng), k)
        lhs = (m.scalar_product(b, a) * tau).coeffs
        rhs = wedge(b, m.hodge(a)).coeffs
        assert rel_err(lhs, rhs) < 1e-12


def test_hodge_inverse(rng):
    for _ in range(20):
        m = random_metric(rng)
        x = random_mv(rng)
        assert rel_err(m.hodge_inv(m.hodge(x)).coeffs, x.coeffs) < 1e-12
        assert rel_err(m.hodge(m.hodge_inv(x)).coeffs, x.coeffs) < 1e-12
    assert abs(PointMetric(ETA).hodge_inv(PointMetric(ETA).volume_form()).scalar_part - 1.0) == 0.0


def test_hodge_inverse_grade2_sign(eta):
    # on 2-forms the inverse is -star in Lorentzian signature
    for mask in blades.MASKS_BY_GRADE[2]:
        x = Multivector.from_mask(mask)
        lhs = eta.hodge_inv(x).coeffs
        rhs = -eta.hodge(x).coeffs
        assert np.array_equal(lhs, rhs)


def test_hodge_star_conversion_identities(rng):
    # the four exterior/contraction conversion rules for the star operator
    m = random_metric(rng)
    tau = m.volume_form()
    for _ in range(15):
        for r in range(5):
            for s in range(5):
                a = grade_project(random_mv(rng), r)
                b = grade_project(random_mv(rng), s)
                if r == s:
                    lhs = wedge(a, m.hodge(b)).coeffs
                    rhs = wedge(b, m.hodge(a)).coeffs
                    assert rel_err(lhs, rhs) < 1e-12
                if r + s == 4:
                    # scalar-pairing symmetry; the plain Gram product picks up
                    # an extra (-1)^{rs} reversal sign, so the robust statement
                    # is the contraction form A _| star(B) = B _| star(A)
                    lhs = m.left_contract(a, m.hodge(b)).scalar_part
                    rhs = m.left_contract(b, m.hodge(a)).scalar_part
                    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
                if r <= s:
                    lhs = wedge(a, m.hodge(b)).coeffs
                    rhs = ((-1.0) ** (r * (s - 1)) * m.hodge(m.left_contract(a.reverse(), b)).coeffs)
                    assert rel_err(lhs, rhs) < 1e-12
                if r + s <= 4:
                    lhs = m.left_contract(a, m.hodge(b)).coeffs
                    rhs = (-1.0) ** (r * s) * m.hodge(wedge(a.reverse(), b)).coeffs
                    assert rel_err(lhs, rhs) < 1e-12


def test_sandwich_trivector_closure(rng):
    # <F a F>_3 = 0 for 2-form F and 1-form a
    m = random_metric(rng)
    for _ in range(40):
        f = grade_project(random_mv(rng), 2)
        a = grade_project(random_mv(rng), 1)
        sandwich = m.clifford(f, m.clifford(a, f))
        assert grade_project(sandwich, 3).sup() < 1e-12


# -- metric validation -----------------------------------------------------------


def test_point_metric_rejects_degenerate():
    with pytest.raises(DegenerateMetricError):
        PointMetric(np.zeros((4, 4)))


def test_point_metric_rejects_riemannian_by_default():
    with pytest.raises(SignatureError):
        PointMetric(np.eye(4))
    m = PointMetric(np.eye(4), require_lorentzian=False)
    assert not m.lorentzian


def test_point_metric_inverse_consistency(rng):
    m = random_metric(rng)
    assert np.max(np.abs(m.g @ m.ginv - np.eye(4))) < 1e-10
    assert np.linalg.det(m.ginv) < 0.0
    assert m.sqrt_abs_det > 0.0


def _block_of_awkward_metrics(rng):
    """Metrics of every kind the one-metric checks tell apart, with and without an inverse."""
    metrics = [oracles.random_lorentzian_cotangent(rng) for _ in range(12)]
    skew = oracles.random_lorentzian_cotangent(rng)
    skew[0, 1] += 1e-6  # not symmetric
    tiny = 1e-4 * oracles.random_lorentzian_cotangent(rng)  # det ~ 1e-16, but well conditioned: accepted
    rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    ill = rot @ np.diag([1e8, -1e-7, -1.0, -1.0]) @ rot.T
    ill = 0.5 * (ill + ill.T)  # cond 1e15: |det| ~ 10 is below 1e-14 of the rows' norms' product
    nan = ETA.copy()
    nan[2, 2] = np.nan
    metrics += [skew, tiny, np.eye(4), np.zeros((4, 4)), ill, nan, -ETA, np.diag([1.0, 1, -1, -1])]
    order = rng.permutation(len(metrics))
    return np.array(metrics)[order]


def _alone(g, require_lorentzian):
    """The metric built alone, or the error it raises as "<class>: <message>"."""
    try:
        return PointMetric(g, require_lorentzian=require_lorentzian)
    except (ValueError, DegenerateMetricError, SignatureError) as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")  # the NaN metric
@pytest.mark.parametrize("require_lorentzian", [True, False])
def test_point_metric_block_lanes_equal_each_metric_alone(rng, require_lorentzian):
    # a block raises nothing: errors holds the error each rejected metric
    # raises alone, and every other metric is bitwise the metric alone,
    # tables included
    gs = _block_of_awkward_metrics(rng)
    block = PointMetric(gs, require_lorentzian=require_lorentzian)
    assert block.g.shape == gs.shape
    alone = [_alone(g, require_lorentzian) for g in gs]
    assert {i: f"{type(err).__name__}: {err}" for i, err in block.errors.items()} == {
        i: m for i, m in enumerate(alone) if isinstance(m, str)}
    assert len(gs) - len(block.errors) == 14 + (not require_lorentzian) * 2
    for i, m in enumerate(alone):
        if isinstance(m, str):
            continue
        for name in ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian"):
            assert np.asarray(getattr(block, name))[i].tobytes() == np.asarray(getattr(m, name)).tobytes()
        for key in TABLE_NAMES:
            assert block.tables[key][i].tobytes() == m.tables[key].tobytes(), key


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")  # the NaN metric
@pytest.mark.parametrize("size", [1, 8, 16])
def test_tables_built_into_a_used_store_equal_a_fresh_build(rng, size):
    # a block builds M and K into the memory of a store that held NaN, then
    # another block's tables: every table, rejected lanes included, must be
    # bytewise the block's tables built into new arrays
    gs = _block_of_awkward_metrics(rng)
    rejected = sorted(PointMetric(gs).errors)
    accepted = [i for i in range(len(gs)) if i not in rejected]
    order = [i for pair in zip(accepted, rejected) for i in pair] + accepted[len(rejected):]
    gs = gs[order][:size]  # accepted and rejected lanes in turn, an accepted one first
    fresh = PointMetric(gs)
    want = {key: fresh.tables[key].tobytes() for key in TABLE_NAMES}
    assert len(fresh.errors) == {1: 0, 8: 4, 16: 6}[size]
    store = TableStore()
    others = np.array([oracles.random_lorentzian_cotangent(rng) for _ in range(16)])
    filler = PointMetric(others, _store=store)
    for key in STORED_TABLES:
        filler.tables[key][...] = np.nan
    for held in ("NaN", "another block's tables"):
        if held != "NaN":
            other = PointMetric(others, _store=store)
            for key in TABLE_NAMES:
                other.tables[key]
        block = PointMetric(gs, _store=store)
        for key in TABLE_NAMES:
            assert block.tables[key].tobytes() == want[key], (held, key)


def _with_entry(g, i, j, value):
    g = g.copy()
    g[i, j] = g[j, i] = value
    return g


_INFINITE_DET = "DegenerateMetricError: cotangent metric is singular (det=-inf)"
_NOT_SYMMETRIC = "ValueError: metric must be symmetric"
# metrics with an infinite, NaN or huge entry, and the error each gets with
# and without the Lorentzian check ("<class>: <message>", None when accepted)
EXTREME_METRICS = [
    (_with_entry(ETA, 0, 0, np.inf), *[_INFINITE_DET] * 2),
    (_with_entry(ETA, 1, 1, -np.inf), *[_INFINITE_DET] * 2),
    (_with_entry(ETA, 0, 1, np.inf), *[_INFINITE_DET] * 2),
    (_with_entry(ETA, 2, 2, np.nan), _NOT_SYMMETRIC, _NOT_SYMMETRIC),
    (_with_entry(ETA, 1, 3, np.nan), _NOT_SYMMETRIC, _NOT_SYMMETRIC),
    (_with_entry(ETA, 0, 0, 1e200), None, None),
    (_with_entry(ETA, 3, 3, -1e200), None, None),
    (_with_entry(ETA, 0, 2, 1e200), *[_INFINITE_DET] * 2),  # the determinant overflows
    (1e100 * ETA, *[_INFINITE_DET] * 2),
    (1e200 * ETA, *[_INFINITE_DET] * 2),
    (1e-200 * ETA, *["DegenerateMetricError: cotangent metric is singular (det=-0.000e+00)"] * 2),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the checks judge inf and NaN without a warning
@pytest.mark.parametrize("require_lorentzian", [True, False])
def test_point_metric_errors_of_infinite_nan_and_huge_entries(require_lorentzian):
    gs = np.array([g for g, _, _ in EXTREME_METRICS])
    expected = {k: err for k, (_, strict, relaxed) in enumerate(EXTREME_METRICS)
                if (err := strict if require_lorentzian else relaxed) is not None}
    alone = [_alone(g, require_lorentzian) for g in gs]
    assert {k: m for k, m in enumerate(alone) if isinstance(m, str)} == expected
    block = PointMetric(gs, require_lorentzian=require_lorentzian)
    assert {k: f"{type(err).__name__}: {err}" for k, err in block.errors.items()} == expected


def test_volume_form_squares_to_signature_sign(rng):
    m = random_metric(rng)
    tau = m.volume_form()
    assert abs(m.scalar_product(tau, tau) + 1.0) < 1e-10


def test_multivector_immutable():
    x = Multivector.scalar(1.0)
    with pytest.raises(AttributeError):
        x.coeffs = np.zeros(16)
    with pytest.raises(ValueError):
        x.coeffs[0] = 2.0


# -- hypothesis property checks ---------------------------------------------------

coeff_lists = st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 2**31 - 1))
def test_product_split_property(acoef, bcoef, seed):
    m = PointMetric(oracles.random_lorentzian_cotangent(np.random.default_rng(seed)))
    a = grade_project(Multivector(acoef), 1)
    b = Multivector(bcoef)
    lhs = m.clifford(a, b).coeffs
    rhs = (m.left_contract(a, b) + wedge(a, b)).coeffs
    assert rel_err(lhs, rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists, st.integers(0, 2**31 - 1))
def test_associativity_property(acoef, bcoef, ccoef, seed):
    m = PointMetric(oracles.random_lorentzian_cotangent(np.random.default_rng(seed)))
    a, b, c = Multivector(acoef), Multivector(bcoef), Multivector(ccoef)
    lhs = m.clifford(m.clifford(a, b), c).coeffs
    rhs = m.clifford(a, m.clifford(b, c)).coeffs
    assert rel_err(lhs, rhs) < 1e-11
