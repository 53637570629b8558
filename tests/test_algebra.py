import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcheck import blades
from cliffcheck.algebra import (TABLE_NAMES, PointMetric, grade_project, linear_combination, reverse, scalars, sup,
                                wedge)
from cliffcheck.errors import DegenerateMetricError, SignatureError

import oracles
from test_diffops import random_entries

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@pytest.fixture
def eta():
    return PointMetric(ETA)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_mv(rng, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=16)


def blade(mask: int) -> np.ndarray:
    """The row of the basis blade ``mask``."""
    return np.eye(16)[mask]


def random_metric(rng):
    return PointMetric(oracles.random_lorentzian_cotangent(rng))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return diff / scale


# -- wedge -------------------------------------------------------------------


def test_wedge_same_covector_vanishes():
    g0 = blade(1 << 0)
    assert sup(wedge(g0, g0)) == 0.0


def test_wedge_disjoint_masks():
    g0, g1 = blade(1 << 0), blade(1 << 1)
    out = wedge(g0, g1)
    assert out[0b0011] == 1.0
    assert np.count_nonzero(out) == 1


def test_wedge_top_grade_sign_via_oracle():
    b01 = blade(0b0011)
    b23 = blade(0b1100)
    out = wedge(b01, b23)
    expected = oracles.wedge_oracle(b01, b23)
    assert np.array_equal(out, expected)
    assert out[0b1111] == 1.0


def test_wedge_matches_oracle_random(rng):
    for _ in range(200):
        a, b = random_mv(rng), random_mv(rng)
        assert rel_err(wedge(a, b), oracles.wedge_oracle(a, b)) < 1e-14


def test_wedge_graded_anticommutativity(rng):
    for r in range(5):
        for s in range(5):
            a = grade_project(random_mv(rng), r)
            b = grade_project(random_mv(rng), s)
            lhs = wedge(a, b)
            rhs = (-1.0) ** (r * s) * wedge(b, a)
            assert rel_err(lhs, rhs) < 1e-14


# -- scalar product ------------------------------------------------------------


def test_scalar_product_minkowski_basics(eta):
    g0 = blade(1 << 0)
    assert eta.scalar_product(g0, g0) == 1.0
    b01 = blade(0b0011)
    assert eta.scalar_product(b01, b01) == -1.0
    # grade mismatch
    assert eta.scalar_product(g0, b01) == 0.0


def test_scalar_product_matches_gram_oracle(rng):
    for _ in range(50):
        m = random_metric(rng)
        a, b = random_mv(rng), random_mv(rng)
        got = m.scalar_product(a, b)
        want = oracles.gram_scalar_oracle(a, b, m.g)
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
    g0, g1 = blade(1 << 0), blade(1 << 1)
    b01 = blade(0b0011)
    # gamma^1 _| (gamma^0 ^ gamma^1) = gamma^0 under eta
    out = eta.left_contract(g1, b01)
    assert np.array_equal(out, g0)
    # scalars contract as ordinary product
    assert eta.left_contract(scalars(2.0), scalars(3.0))[0] == 6.0
    # higher grade into lower vanishes
    assert sup(eta.left_contract(b01, g0)) == 0.0


def test_left_contract_matches_oracle(rng):
    for _ in range(60):
        m = random_metric(rng)
        a, b = random_mv(rng), random_mv(rng)
        got = m.left_contract(a, b)
        want = oracles.left_contract_oracle(a, b, m.g)
        assert rel_err(got, want) < 1e-12


def test_right_contract_spec_cases(eta):
    g0, g1 = blade(1 << 0), blade(1 << 1)
    b01 = blade(0b0011)
    # (gamma^0 ^ gamma^1) |_ gamma^1 = -(gamma^1 _| (gamma^0^gamma^1)) = -gamma^0
    out = eta.right_contract(b01, g1)
    assert np.array_equal(out, (-g0))
    assert sup(eta.right_contract(g0, b01)) == 0.0
    assert eta.right_contract(scalars(2.0), scalars(3.0))[0] == 6.0


def test_left_right_contraction_relation(rng):
    m = random_metric(rng)
    for r in range(5):
        for s in range(r, 5):
            a = grade_project(random_mv(rng), r)
            b = grade_project(random_mv(rng), s)
            lhs = m.left_contract(a, b)
            rhs = (-1.0) ** (r * (s - r)) * m.right_contract(b, a)
            assert rel_err(lhs, rhs) < 1e-13


# -- clifford product ----------------------------------------------------------


def test_clifford_minkowski_squares(eta):
    g0 = blade(1 << 0)
    assert eta.clifford(g0, g0)[0] == 1.0
    b01 = blade(0b0011)
    out = eta.clifford(b01, b01)
    assert out[0] == 1.0
    assert np.count_nonzero(out) == 1


def test_clifford_matches_monomial_oracle(rng):
    for _ in range(60):
        m = random_metric(rng)
        a, b = random_mv(rng), random_mv(rng)
        got = m.clifford(a, b)
        want = oracles.clifford_oracle(a, b, m.g)
        assert rel_err(got, want) < 1e-12


def test_anticommutator_exact(rng):
    for _ in range(10):
        m = random_metric(rng)
        for i in range(4):
            for j in range(4):
                gi, gj = blade(1 << i), blade(1 << j)
                anti = m.clifford(gi, gj) + m.clifford(gj, gi)
                expect = np.zeros(16)
                expect[0] = 2.0 * m.g[i, j]
                assert np.array_equal(anti, expect)


def test_associativity(rng):
    for _ in range(50):
        m = random_metric(rng)
        a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
        lhs = m.clifford(m.clifford(a, b), c)
        rhs = m.clifford(a, m.clifford(b, c))
        assert rel_err(lhs, rhs) < 1e-12


def test_one_form_product_splits_into_contraction_and_wedge(rng):
    m = random_metric(rng)
    for _ in range(20):
        a = grade_project(random_mv(rng), 1)
        b = random_mv(rng)
        lhs = m.clifford(a, b)
        rhs = (m.left_contract(a, b) + wedge(a, b))
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
                part = sup(grade_project(prod, k))
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
        contract = 0.5 * (ab - (-1.0) ** s * ba)
        wedge_part = 0.5 * (ab + (-1.0) ** s * ba)
        assert rel_err(m.left_contract(a, b), contract) < 1e-13
        assert rel_err(wedge(a, b), wedge_part) < 1e-13


def test_scalar_product_as_scalar_part_of_reversed_product(rng):
    m = random_metric(rng)
    for r in range(5):
        a = grade_project(random_mv(rng), r)
        b = grade_project(random_mv(rng), r)
        sp = m.scalar_product(a, b)
        via_rev = m.clifford(reverse(a), b)[0]
        via_rev2 = m.clifford(a, reverse(b))[0]
        assert abs(sp - via_rev) < 1e-12
        assert abs(sp - via_rev2) < 1e-12


def test_reverse_antiautomorphism(rng):
    m = random_metric(rng)
    a, b = random_mv(rng), random_mv(rng)
    lhs = reverse(m.clifford(a, b))
    rhs = m.clifford(reverse(b), reverse(a))
    assert rel_err(lhs, rhs) < 1e-13


def test_reverse_signs_per_grade():
    b01 = blade(0b0011)
    assert np.array_equal(reverse(b01), -b01)
    assert reverse(scalars(5.0))[0] == 5.0
    tau = blade(15)
    assert np.array_equal(reverse(tau), tau)
    twice = reverse(reverse(np.arange(16.0)))
    assert np.array_equal(twice, np.arange(16.0))


# -- a stack of right operands: one left operator for all of them ----------------

# each product, and the argument that may carry leading axes before the rows':
# the one its left factor's operator is applied to (right_contract forms its
# operator from b, so a stack of a shares it)
STACKED_OPERANDS = {"clifford": 1, "left_contract": 1, "right_contract": 0}
STACK_COUNTS = [None, 1, 3, 32]


@pytest.mark.parametrize("count", STACK_COUNTS, ids=["one", "1", "3", "32"])
@pytest.mark.parametrize("product", sorted(STACKED_OPERANDS))
def test_a_stack_of_right_operands_equals_each_operand_alone_bitwise(product, count):
    # entries 0.0, -0.0 and of magnitudes 1e-8 to 1e8, a NaN and an inf in two
    # lanes of the stack, and left factors of every grade, which read the
    # complete tables: each operand of the stack gives its product's bits
    rng = np.random.default_rng(61)
    lanes = (count,) if count else ()
    gs = np.array([oracles.random_lorentzian_cotangent(rng) for _ in range(count or 1)])
    pm = PointMetric(gs if count else gs[0])
    apply = getattr(pm, product)
    for _ in range(5):
        factor = random_entries(rng, lanes + (16,))
        stack = random_entries(rng, (4,) + lanes + (16,))
        stack[(1,) + (0,) * len(lanes) + (5,)] = np.nan
        stack[(2,) + (-1,) * len(lanes) + (9,)] = np.inf
        with np.errstate(invalid="ignore"):  # 0 * inf in the inf lane
            if STACKED_OPERANDS[product]:
                got, alone = apply(factor, stack), [apply(factor, operand) for operand in stack]
            else:
                got, alone = apply(stack, factor), [apply(operand, factor) for operand in stack]
        assert got.shape == stack.shape
        assert np.isnan(got[1]).any() and not np.isfinite(got[2]).all()
        for q, want in enumerate(alone):
            assert got[q].tobytes() == want.tobytes(), q


# -- grade projection ----------------------------------------------------------


def test_grade_projection_basics():
    x = scalars(1.0) + blade(1 << 0) + blade(0b0011)
    assert np.array_equal(grade_project(x, 1), blade(1 << 0))
    with pytest.raises(ValueError):
        grade_project(x, 5)


def test_grade_projection_partition(rng):
    x = random_mv(rng)
    total = np.zeros(16)
    for k in range(5):
        part = grade_project(x, k)
        again = grade_project(part, k)
        assert np.array_equal(part, again)
        total = total + part
    assert np.array_equal(total, x)


# -- linear combinations ---------------------------------------------------------


def _sequential_sum(weights, terms) -> np.ndarray:
    # the reference: one addition per term, from zero, in order of k
    out = np.zeros(16)
    for k in range(len(terms)):
        out = out + weights[..., k, np.newaxis] * terms[k]
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
        terms = list(coeffs)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and inf - inf give NaN
            got = linear_combination(weights, terms)
            want = _sequential_sum(weights, terms)
            again = linear_combination(weights, (t for t in terms))
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
    terms = list(coeffs)
    want = _sequential_sum(weights, terms).view(np.uint64)
    products = [w[:, np.newaxis] * c for w, c in zip(weights.T, coeffs)]
    reversed_order = _sequential_sum(weights[..., ::-1], terms[::-1])
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
        lhs = m.left_contract(a, wedge(x, y))
        rhs = (wedge(m.left_contract(a, x), y) + wedge(x * blades.INVOLUTE_SIGN, m.left_contract(a, y)))
        assert rel_err(lhs, rhs) < 1e-12


def test_contraction_composition(rng):
    # A _| (B _| C) = (A ^ B) _| C
    m = random_metric(rng)
    for _ in range(30):
        a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
        lhs = m.left_contract(a, m.left_contract(b, c))
        rhs = m.left_contract(wedge(a, b), c)
        assert rel_err(lhs, rhs) < 1e-12


# -- hodge ---------------------------------------------------------------------


def test_hodge_of_unit_scalar_and_volume(eta):
    one = scalars(1.0)
    tau = eta.volume_form()
    assert np.array_equal(eta.hodge(one), tau)
    # star tau = sign(det) = -1 in Lorentzian signature
    assert eta.hodge(tau)[0] == -1.0
    assert np.count_nonzero(eta.hodge(tau)) == 1


def test_hodge_of_timelike_covector(eta):
    out = eta.hodge(blade(1 << 0))
    want = blade(0b1110)
    assert np.array_equal(out, want)


def test_hodge_matches_oracle_random_metric(rng):
    for _ in range(40):
        m = random_metric(rng)
        a = random_mv(rng)
        got = m.hodge(a)
        want = oracles.hodge_oracle(a, m.g, m.sqrt_abs_det)
        assert rel_err(got, want) < 1e-12


def test_hodge_defining_relation_on_blades(rng):
    # [B_k . A_k] tau = B_k ^ star(A_k) for every basis blade pair and random B
    m = random_metric(rng)
    tau = m.volume_form()
    for mask_a in range(16):
        a = blade(mask_a)
        k = int(blades.GRADE[mask_a])
        b = grade_project(random_mv(rng), k)
        lhs = (m.scalar_product(b, a) * tau)
        rhs = wedge(b, m.hodge(a))
        assert rel_err(lhs, rhs) < 1e-12


def test_hodge_inverse(rng):
    for _ in range(20):
        m = random_metric(rng)
        x = random_mv(rng)
        assert rel_err(m.hodge_inv(m.hodge(x)), x) < 1e-12
        assert rel_err(m.hodge(m.hodge_inv(x)), x) < 1e-12
    assert abs(PointMetric(ETA).hodge_inv(PointMetric(ETA).volume_form())[0] - 1.0) == 0.0


def test_hodge_inverse_grade2_sign(eta):
    # on 2-forms the inverse is -star in Lorentzian signature
    for mask in blades.MASKS_BY_GRADE[2]:
        x = blade(mask)
        lhs = eta.hodge_inv(x)
        rhs = -eta.hodge(x)
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
                    lhs = wedge(a, m.hodge(b))
                    rhs = wedge(b, m.hodge(a))
                    assert rel_err(lhs, rhs) < 1e-12
                if r + s == 4:
                    # scalar-pairing symmetry; the plain Gram product picks up
                    # an extra (-1)^{rs} reversal sign, so the robust statement
                    # is the contraction form A _| star(B) = B _| star(A)
                    lhs = m.left_contract(a, m.hodge(b))[0]
                    rhs = m.left_contract(b, m.hodge(a))[0]
                    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
                if r <= s:
                    lhs = wedge(a, m.hodge(b))
                    rhs = ((-1.0) ** (r * (s - 1)) * m.hodge(m.left_contract(reverse(a), b)))
                    assert rel_err(lhs, rhs) < 1e-12
                if r + s <= 4:
                    lhs = m.left_contract(a, m.hodge(b))
                    rhs = (-1.0) ** (r * s) * m.hodge(wedge(reverse(a), b))
                    assert rel_err(lhs, rhs) < 1e-12


def test_sandwich_trivector_closure(rng):
    # <F a F>_3 = 0 for 2-form F and 1-form a
    m = random_metric(rng)
    for _ in range(40):
        f = grade_project(random_mv(rng), 2)
        a = grade_project(random_mv(rng), 1)
        sandwich = m.clifford(f, m.clifford(a, f))
        assert sup(grade_project(sandwich, 3)) < 1e-12


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
            assert block.table(key)[i].tobytes() == m.table(key).tobytes(), key


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")  # the NaN metric
@pytest.mark.parametrize("size", [1, 8, 16])
def test_tables_built_in_nan_filled_memory_equal_a_normal_build(rng, monkeypatch, size):
    # M, K and G2 start from np.empty: with every new array NaN-filled, no
    # value already in that memory may reach a table, rejected lanes
    # included, nor a product read from a table filled only to its low grade
    gs = _block_of_awkward_metrics(rng)
    rejected = sorted(PointMetric(gs).errors)
    accepted = [i for i in range(len(gs)) if i not in rejected]
    order = [i for pair in zip(accepted, rejected) for i in pair] + accepted[len(rejected):]
    gs = gs[order][:size]  # accepted and rejected lanes in turn, an accepted one first
    a, b = rng.uniform(-1.0, 1.0, size=(2, size, blades.N_BLADES))
    # left factors that read M to grade 2 and K to grade 1 alone
    products = {"M": lambda pm: pm.clifford(np.where(blades.GRADE <= 2, a, 0.0), b),
                "K": lambda pm: pm.left_contract(np.where(blades.GRADE <= 1, a, 0.0), b)}
    normal = PointMetric(gs)
    want_products = {key: product(normal).tobytes() for key, product in products.items()}
    want = {key: normal.table(key).tobytes() for key in TABLE_NAMES}
    assert len(normal.errors) == {1: 0, 8: 4, 16: 6}[size]
    empty = np.empty

    def nan_filled(shape, *args, **kwargs):
        out = empty(shape, *args, **kwargs)
        out[...] = np.nan
        return out

    monkeypatch.setattr(np, "empty", nan_filled)
    for first in ("low-grade products", "complete tables"):
        block = PointMetric(gs)
        if first == "low-grade products":
            for key, product in products.items():
                assert product(block).tobytes() == want_products[key], key
                assert key in block._tables.low  # read at its low grade; table() then fills it
        for key in TABLE_NAMES:
            assert block.table(key).tobytes() == want[key], (first, key)


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


# -- hypothesis property checks ---------------------------------------------------

coeff_lists = st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 2**31 - 1))
def test_product_split_property(acoef, bcoef, seed):
    m = PointMetric(oracles.random_lorentzian_cotangent(np.random.default_rng(seed)))
    a = grade_project(np.array(acoef), 1)
    b = np.array(bcoef)
    lhs = m.clifford(a, b)
    rhs = (m.left_contract(a, b) + wedge(a, b))
    assert rel_err(lhs, rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists, st.integers(0, 2**31 - 1))
def test_associativity_property(acoef, bcoef, ccoef, seed):
    m = PointMetric(oracles.random_lorentzian_cotangent(np.random.default_rng(seed)))
    a, b, c = np.array(acoef), np.array(bcoef), np.array(ccoef)
    lhs = m.clifford(m.clifford(a, b), c)
    rhs = m.clifford(a, m.clifford(b, c))
    assert rel_err(lhs, rhs) < 1e-11
