"""The product tables are built one at a time, when first read, filled above their low grades only
when read whole, and equal the eager build."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from cliffcheck import algebra, blades, selftest
from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck.algebra import TABLE_NAMES, PointMetric
from cliffcheck.diffops import MultivectorField

from test_fieldcheck import GENERIC  # every component of its metric depends on the point

SCHW = geo.build_metric("schwarzschild", {"M": 1.0})


def eager_tables(g, sqrt_abs_det, sign_det) -> dict:
    """Every table of a stack of metrics at once: the reference the lazy tables must equal.

    This is the eager build the lazy one replaced, kept operation for
    operation, so equal bytes mean the same arithmetic.
    """
    g = np.asarray(g, dtype=float)
    count = g.shape[0]
    n = blades.N_BLADES
    eye = np.eye(n)
    C = np.einsum("nij,jkl->nikl", g, blades.CONTRACT_STRUCT)
    L = C + blades.WEDGE_OP
    M = np.zeros((count, n, n, n))
    K = np.zeros((count, n, n, n))
    M[:, 0] = K[:, 0] = eye
    M[:, list(blades.MASKS_BY_GRADE[1])] = L
    K[:, list(blades.MASKS_BY_GRADE[1])] = C
    flat = M.reshape(count, 1, n, n * n)
    for masks, lowest, rest in blades.PEEL_STEPS:
        corr = C[:, lowest, :, rest].transpose(1, 0, 2)[:, :, np.newaxis, :]
        M[:, masks] = L[:, lowest] @ M[:, rest] - (corr @ flat).reshape(count, len(masks), n, n)
        K[:, masks] = C[:, lowest] @ K[:, rest]
    SP = np.zeros((count, n, n))
    SP[:, 0, 0] = 1.0
    for k in range(1, 5):
        amasks, bmasks, rows, cols = blades.GRAM_PAIRS[k]
        SP[:, amasks, bmasks] = np.linalg.det(g[:, rows, cols])
    tau = np.zeros((count, n))
    tau[:, blades.FULL_MASK] = sqrt_abs_det
    H = np.einsum("nikj,nj->nki", K, tau) * blades.REVERSE_SIGN
    inv_scale = np.multiply.outer(sign_det, (-1.0) ** (blades.GRADE * (4 - blades.GRADE)))
    G2 = M[:, blades.PEEL_STEPS[0][0]]
    return {"C": C, "L": L, "G2": G2, "M": M, "K": K, "SP": SP, "tau": tau, "H": H,
            "Hinv_scale": inv_scale}


def _metrics(lorentzian: bool) -> np.ndarray:
    """16 cotangent metrics: random Lorentzian ones, or random symmetric ones of any
    signature with exact zeros, negative zeros and a diagonal metric among them."""
    rng = np.random.default_rng(41 + lorentzian)
    if lorentzian:
        return np.array([selftest.random_lorentzian_metric(rng) for _ in range(16)])
    a = rng.normal(size=(16, 4, 4))
    a[rng.random((16, 4, 4)) < 0.25] = 0.0
    a[rng.random((16, 4, 4)) < 0.1] = -0.0
    gs = np.where(np.triu(np.ones((4, 4), dtype=bool)), a, np.swapaxes(a, 1, 2))
    gs[0] = np.diag([-2.0, 1.0, 0.5, 3.0])
    return gs


def test_wedge_operators_equal_their_definition_bitwise():
    # the definition entry by entry: gamma^i ^ blade m = WEDGE_SIGN[gamma^i, m] blade (m | gamma^i)
    ref = np.zeros((blades.DIM, blades.N_BLADES, blades.N_BLADES))
    for i in range(blades.DIM):
        for m in range(blades.N_BLADES):
            if not m >> i & 1:
                ref[i, m | 1 << i, m] = blades.WEDGE_SIGN[1 << i, m]
    assert np.array_equal(blades.WEDGE_OP.view(np.uint64), ref.view(np.uint64))
    assert blades.WEDGE_OP.flags.c_contiguous and blades.WEDGE_OP.strides == ref.strides


# (dtype, shape, sha256 of the bytes) of each of blades' tables: tobytes shows
# a -0.0 that == would pass
BLADE_TABLES = {
    "WEDGE_SIGN": ("int64", (16, 16), "c787945f7d7421f95b89928541bee173cfb3669acdd4ffc1955a85ea17e4a07a"),
    "WEDGE_TENSOR": ("float64", (16, 16, 16),
                     "91b5f556f3ec6851f8770064d58f0fd8a0107893782a48521deaf785d8a92d16"),
    "WEDGE_OP": ("float64", (4, 16, 16), "c1e107464560df3522f6444af61f9c84efbfd81f3d3121fa45568dc89d99df87"),
    "CONTRACT_STRUCT": ("float64", (4, 16, 16),
                        "55238dd95b00c9413d20dc345b04440f60255fbb5df695cb90cca93943de9395"),
    "INDEX_SUB": ("float64", (4, 4, 16, 16), "8cc00c6f8e34f85be6ece8db7fa2b108916562484e41bf823dcffa0744f26fc5"),
    "SUB_POSITIONS": ("int64", (63,), "fb9a41f1b9181dab68fb573fed084b9b13e6d53455a04a48a77f79eaae7c5da6"),
    "SUB_TAKE": ("int64", (4, 63), "a20197f5e2937303a1016e21858c56d7bd047ee943e33066877483579097ea15"),
    "SUB_ROW_N": ("int64", (16, 5), "a41efe159c300879d96697c437cd0f961ec8d47de6c6bf971ec69b07d46d0567"),
}


@pytest.mark.parametrize("name", sorted(BLADE_TABLES))
def test_blade_tables_are_pinned_bytewise(name):
    table = getattr(blades, name)
    dtype, shape, digest = BLADE_TABLES[name]
    assert (str(table.dtype), table.shape) == (dtype, shape)
    assert table.flags.c_contiguous
    assert hashlib.sha256(table.tobytes()).hexdigest() == digest


def _index_arrays():
    """blades' per-blade signs and the index arrays of GRAM_PAIRS and PEEL_STEPS, by name."""
    for name in ("GRADE", "REVERSE_SIGN", "INVOLUTE_SIGN"):
        yield name, getattr(blades, name)
    for k, parts in sorted(blades.GRAM_PAIRS.items()):
        for j, part in enumerate(parts):
            yield f"GRAM_PAIRS[{k}][{j}]", part
    for step, parts in enumerate(blades.PEEL_STEPS):
        for j, part in enumerate(parts):
            yield f"PEEL_STEPS[{step}][{j}]", part


# sha256 over every _index_arrays() entry's name, dtype, shape and bytes
INDEX_ARRAYS_SHA256 = "a11d4fe86e32e53f5fc56a2e68a7bd0523217b67fbb05e21d3296e8472f583c8"


def test_blade_index_arrays_are_pinned_bytewise():
    digest = hashlib.sha256()
    for name, array in _index_arrays():
        assert array.flags.c_contiguous, name
        digest.update(f"{name} {array.dtype.str} {array.shape}".encode() + array.tobytes())
    assert blades.MASKS_BY_GRADE == ((0,), (1, 2, 4, 8), (3, 5, 6, 9, 10, 12), (7, 11, 13, 14), (15,))
    assert digest.hexdigest() == INDEX_ARRAYS_SHA256


ORDERS = {"as-listed": TABLE_NAMES, "reversed": TABLE_NAMES[::-1]}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("lorentzian", [True, False], ids=["lorentzian", "any-signature"])
@pytest.mark.parametrize("block", [True, False], ids=["block", "one"])
def test_lazy_tables_equal_the_eager_build_bitwise(block, lorentzian, order):
    gs = _metrics(lorentzian)
    metric = PointMetric(gs if block else gs[0], require_lorentzian=lorentzian)
    assert not metric.errors
    stack = (metric.g, metric.sqrt_abs_det, metric.sign_det)
    if not block:
        stack = (metric.g[np.newaxis], np.array([metric.sqrt_abs_det]), np.array([metric.sign_det]))
    want = eager_tables(*stack)
    assert set(want) == set(TABLE_NAMES)
    for key in ORDERS[order]:
        got = metric.table(key)
        assert got.tobytes() == (want[key] if block else want[key][0]).tobytes(), key


def _spy_on_misses(monkeypatch) -> list:
    """Record each ``(metric, key, low)`` that PointMetric._build_tables is called with."""
    calls = []
    original = PointMetric._build_tables

    def build(self, key, low=False):
        calls.append((self, key, low))
        return original(self, key, low)

    monkeypatch.setattr(PointMetric, "_build_tables", build)
    return calls


def _run_one_block(names, fields) -> None:
    points = [tuple(p) for p in np.random.default_rng(42).uniform([-3, 2.5, 0.35, 0], [3, 20, 2.8, 6.2],
                                                                  size=(fch.BLOCK, 4))]
    fch.run_checks(SCHW, fields, names, points, [1e-8] * len(names))


def _killing_form() -> fch.ScenarioFields:
    return fch.ScenarioFields(K=MultivectorField.from_components({"t": "1-2*M/r"}, SCHW.coords))


def test_killing_identities_builds_only_what_it_reads(monkeypatch):
    # delta K reads C and the Ricci operator reads the grade-2 peel step G2,
    # which reads L, so M, K, SP, tau and H are never built
    calls = _spy_on_misses(monkeypatch)
    _run_one_block(["killing_identities"], _killing_form())
    assert sorted((key, low) for _, key, low in calls) == [("C", False), ("G2", False)]
    (metric,) = {id(m): m for m, _, _ in calls}.values()
    assert set(metric._tables) == {"C", "L", "G2"}


def test_killing_builds_no_table(monkeypatch):
    calls = _spy_on_misses(monkeypatch)
    _run_one_block(["killing"], _killing_form())
    assert calls == []


def _ten_check_fields() -> fch.ScenarioFields:
    """The fields of ``schw-10check``: K, and S and V for the fluid checks."""
    s = SCHW.coords
    return fch.ScenarioFields(K=_killing_form().K,
                              S=MultivectorField.from_components({"1": f"{s[0]}*{s[1]}"}, s),
                              V=MultivectorField.from_components({"t": "sqrt(1-2*M/r)"}, s))


def _count_steps(monkeypatch) -> Counter:
    """Count each run of a build step (:data:`algebra._BUILDERS`) and a fill step
    (:data:`algebra._FILLS`) by ``(id of its table stack, "build" or "fill", key)``."""
    steps = Counter()
    kept = []  # every stack stays alive, so no id is reused

    def counting(kind, key, step):
        def counted(tables, *table):
            kept.append(tables)
            steps[id(tables), kind, key] += 1
            return step(tables, *table)
        return counted

    for kind, hooks in (("build", algebra._BUILDERS), ("fill", algebra._FILLS)):
        for key, step in list(hooks.items()):
            monkeypatch.setitem(hooks, key, counting(kind, key, step))
    return steps


def _rows(rng, count: int, grades) -> np.ndarray:
    """``count`` random rows with components of ``grades`` only, some of them 0.0 and some -0.0,
    and -0.0 among the exact zeros of the other grades."""
    x = np.where(np.isin(blades.GRADE, grades), rng.normal(size=(count, blades.N_BLADES)), 0.0)
    x[rng.random(x.shape) < 0.15] = 0.0
    x[rng.random(x.shape) < 0.15] = -0.0
    return x


# each product that reads a table of LOW_GRADES: (its table, the product with
# left factor ``a``); right_contract's left factor is its reversed right operand
PRODUCTS = {
    "clifford": ("M", lambda pm, a, b: pm.clifford(a, b)),
    "left_contract": ("K", lambda pm, a, b: pm.left_contract(a, b)),
    "right_contract": ("K", lambda pm, a, b: pm.right_contract(b, a)),
    "scalar_product": ("SP", lambda pm, a, b: pm.scalar_product(a, b)),
}


def test_no_table_is_built_twice(monkeypatch):
    steps = _count_steps(monkeypatch)
    calls = _spy_on_misses(monkeypatch)
    _run_one_block(list(fch.CHECKS), _ten_check_fields())
    assert len({id(m) for m, _, _ in calls}) == 1
    # then every table, on fresh metrics, M or G2 first
    for order in (*ORDERS.values(), ("G2", "M"), ("M", "G2")):
        metric = PointMetric(_metrics(True))
        for key in order + order:
            metric.table(key)
    # and each product's table read at its low grade, then filled by a general left factor, then read whole
    rng = np.random.default_rng(7)
    for key, product in PRODUCTS.values():
        metric = PointMetric(_metrics(True))
        for grades in ([0, 1], [0, 1], range(5), range(5)):
            product(metric, _rows(rng, 16, grades), _rows(rng, 16, range(5)))
        metric.table(key)
    assert steps and set(steps.values()) == {1}
    # the grade-2 peel step is the table G2: once per stack, whether M reads it or it is read first
    assert {key for _, kind, key in steps if kind == "build"} == set(TABLE_NAMES)
    assert {key for _, kind, key in steps if kind == "fill"} == set(algebra.LOW_GRADES)
    assert len(calls) == len(set(calls))  # a miss is never repeated for one metric


def test_verify_fills_no_table_above_its_low_grade(monkeypatch):
    # the ten checks of one block read M, K and SP only at their low grades;
    # the Hodge star, table(key) and the algebra selftest fill them
    steps = _count_steps(monkeypatch)
    calls = _spy_on_misses(monkeypatch)
    _run_one_block(list(fch.CHECKS), _ten_check_fields())
    (metric,) = {id(m): m for m, _, _ in calls}.values()
    tables = metric._tables
    assert not [step for step in steps if step[1] == "fill"]
    assert set(tables.low) == set(algebra.LOW_GRADES) and not set(tables) & set(algebra.LOW_GRADES)
    for key, grade in algebra.LOW_GRADES.items():
        above = tables.low[key][:, blades.GRADE > grade]
        assert not above.any() and not np.signbit(above).any(), key  # exact +0.0
    metric.hodge(_rows(np.random.default_rng(3), fch.BLOCK, range(5)))
    assert {key for _, kind, key in steps if kind == "fill"} == {"K"} and set(tables.low) == {"M", "SP"}
    for key in ("M", "SP"):
        assert metric.table(key).tobytes() == eager_tables(metric.g, metric.sqrt_abs_det,
                                                           metric.sign_det)[key].tobytes()
    assert not tables.low and sum(kind == "fill" for _, kind, _ in steps) == 3
    steps.clear()
    selftest.run_algebra_suite(iterations=selftest.TRIALS_PER_BLOCK, seed=5)
    assert {key for _, kind, key in steps if kind == "fill"} == set(algebra.LOW_GRADES)
    assert len({stack for stack, _, _ in steps}) == 1


def test_products_from_partly_filled_tables_equal_the_full_tables_bitwise():
    # On metrics that are not diagonal a contraction over the low-grade
    # slices alone changes last bits; one over all 16 slices of a table whose
    # higher slices are still exact zeros must not.  Left factors of grade 0,
    # 1 and 2 alone and of mixed grades, with 0.0 and -0.0 among their
    # components, read the partly filled table; a NaN above the low grade
    # fills it and gives NaN, as the full table does.
    rng = np.random.default_rng(11)
    blocks = {"generic": geo.metric_at(GENERIC, rng.uniform(-1.0, 1.0, size=(fch.BLOCK, 4)))[0].g,
              "random": _metrics(True)}
    for name, g in blocks.items():
        full = PointMetric(g)
        assert not full.errors and (g[:, ~np.eye(4, dtype=bool)] != 0.0).all(), name
        want = eager_tables(full.g, full.sqrt_abs_det, full.sign_det)
        for key in algebra.LOW_GRADES:
            assert full.table(key).tobytes() == want[key].tobytes(), (name, key)
        for product, (key, apply) in PRODUCTS.items():
            for grades in ([0], [1], [2], [0, 1], [1, 2], [0, 1, 2]):
                lazy = PointMetric(g)
                for trial in range(3):
                    a, b = _rows(rng, len(g), grades), _rows(rng, len(g), range(5))
                    got = apply(lazy, a, b)
                    assert got.tobytes() == apply(full, a, b).tobytes(), (name, product, grades, trial)
                assert (key in lazy._tables) == (max(grades) > algebra.LOW_GRADES[key]), (name, product, grades)
            lazy = PointMetric(g)
            a, b = _rows(rng, len(g), [0, 1]), _rows(rng, len(g), range(5))
            apply(lazy, a, b)
            a[5, 7] = np.nan  # blade 7 has grade 3
            got = apply(lazy, a, b)
            assert key in lazy._tables and np.isnan(got[5]).all(), (name, product)
            assert got.tobytes() == apply(full, a, b).tobytes(), (name, product)


def test_each_algebra_selftest_block_builds_k_once(monkeypatch):
    # the first left contraction of a block has a 1-form left factor and later
    # ones reach grade 4: each block reads K whole before its first law, so it
    # builds K once, never low first
    calls = _spy_on_misses(monkeypatch)
    selftest.run_algebra_suite(iterations=2 * selftest.TRIALS_PER_BLOCK, seed=5)
    builds = [(id(metric), low) for metric, key, low in calls if key == "K"]
    assert len({metric for metric, _ in builds}) == 2
    assert builds == [(metric, False) for metric, _ in builds]
    assert len(calls) == len(set(calls))
