"""The chunked algebra selftest against the single-metric algebra it checks."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cliffcheck import algebra, blades, selftest
from cliffcheck.algebra import STORED_TABLES, Multivector, PointMetric, TableStore, grade_project, wedge
from cliffcheck.diffops import FieldCalculus
from cliffcheck.errors import DegenerateMetricError, SignatureError
from cliffcheck.geometry import CATALOG, build_metric, curvature


def _metrics(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    metrics = [PointMetric(selftest.random_lorentzian_metric(rng)) for _ in range(count)]
    # a Riemannian one too: sign_det +1 flips the Hodge inverse signs
    spd = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1
    return metrics + [PointMetric(spd, require_lorentzian=False)]


def _maxima(result) -> dict:
    return {law.name: law.max_residual for law in result.laws}


def _block(metrics) -> PointMetric:
    """The block PointMetric of ``metrics``, as the suite checks a chunk's metrics."""
    block = PointMetric(np.array([m.g for m in metrics]), require_lorentzian=False)
    assert not block.errors
    return block


def test_block_tables_lanes_equal_point_metric_tables_bitwise():
    metrics = _metrics(11, 60)
    stack = _block(metrics).tables
    for n, m in enumerate(metrics):
        for key in algebra.TABLE_NAMES:
            assert stack[key].shape[0] == len(metrics)
            assert stack[key][n].tobytes() == m.tables[key].tobytes(), (n, key)


def test_batched_products_equal_point_metric_products_bitwise():
    # the suite runs the row products on a stack of metrics; verify runs them
    # through PointMetric one metric at a time: lane n must be metric n alone
    metrics = _metrics(12, 40)
    tables = _block(metrics).tables
    rng = np.random.default_rng(13)
    a, b = rng.uniform(-1.0, 1.0, size=(2, len(metrics), 16))
    binary = {
        "clifford": algebra.clifford_rows(tables, a, b),
        "left_contract": algebra.left_contract_rows(tables, a, b),
        "right_contract": algebra.right_contract_rows(tables, a, b),
        "scalar_product": algebra.scalar_product_rows(tables, a, b),
    }
    unary = {"hodge": algebra.hodge_rows(tables, a), "hodge_inv": algebra.hodge_inv_rows(tables, a)}
    wedged = algebra.wedge_rows(a, b)
    for n, m in enumerate(metrics):
        an, bn = Multivector(a[n]), Multivector(b[n])
        for name, got in binary.items():
            want = getattr(m, name)(an, bn)
            want = want.coeffs if isinstance(want, Multivector) else np.float64(want)
            assert got[n].tobytes() == want.tobytes(), (n, name)
        for name, got in unary.items():
            assert got[n].tobytes() == getattr(m, name)(an).coeffs.tobytes(), (n, name)
        assert wedged[n].tobytes() == wedge(an, bn).coeffs.tobytes(), n


# sha256 of the law lines of run_algebra_suite(iterations=200, seed=5), joined by
# newlines, as the suite gave them when it built its tables without PointMetric
ALGEBRA_LINES_SHA256 = "8fd5a4175ba351139b411106de6db9c9b6deae5bf571cbf7fbb9315d81dae7eb"


def test_law_lines_are_pinned():
    lines = selftest.run_algebra_suite(iterations=200, seed=5).lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ALGEBRA_LINES_SHA256


# the same for the benchmark's algebra-selftest op at its seed 1: 62 full blocks
# and a short last block of 8
BENCH_LINES_SHA256 = "ad53aac57e7d06a51decc8103b575980ca8225ebb93b6bebcd9eccfe0d8fcdd2"


def test_benchmark_law_lines_are_pinned():
    lines = selftest.run_algebra_suite(iterations=1000, seed=20240812).lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BENCH_LINES_SHA256


@pytest.mark.parametrize("chunk", [selftest.TRIALS_PER_BLOCK, 7])
def test_suite_checks_one_block_metric_per_chunk(monkeypatch, chunk):
    inits = []
    original = PointMetric.__init__

    def init(self, g, *args, **kwargs):
        inits.append(np.shape(g))
        original(self, g, *args, **kwargs)

    monkeypatch.setattr(PointMetric, "__init__", init)
    monkeypatch.setattr(selftest, "TRIALS_PER_BLOCK", chunk)
    selftest.run_algebra_suite(iterations=50, seed=5)
    assert len(inits) == math.ceil(50 / chunk)
    assert inits == [(chunk, 4, 4)] * (50 // chunk) + [(50 % chunk, 4, 4)]


def _address(table: np.ndarray) -> int:
    return table.__array_interface__["data"][0]


def test_the_suite_builds_every_block_into_one_store(monkeypatch):
    # three full blocks and a short one: each table of the store is at one
    # address in every block, the short block in its leading rows
    seen = []
    laws = selftest._block_laws

    def spy(pm, *draws):
        out = laws(pm, *draws)
        seen.append((len(pm.g), {key: _address(pm.tables[key]) for key in STORED_TABLES}))
        return out

    monkeypatch.setattr(selftest, "_block_laws", spy)
    selftest.run_algebra_suite(iterations=3 * selftest.TRIALS_PER_BLOCK + 5, seed=5)
    assert [size for size, _ in seen] == [selftest.TRIALS_PER_BLOCK] * 3 + [5]
    addresses = seen[0][1]
    assert len(set(addresses.values())) == len(STORED_TABLES)
    assert all(block == addresses for _, block in seen)


def _random_block(rng, count: int) -> np.ndarray:
    return np.array([selftest.random_lorentzian_metric(rng) for _ in range(count)])


def test_a_metric_whose_store_is_taken_rebuilds_its_own_tables():
    rng = np.random.default_rng(19)
    first_g, second_g = _random_block(rng, 16), _random_block(rng, 16)
    want = {key: PointMetric(first_g).tables[key].tobytes() for key in algebra.TABLE_NAMES}
    store = TableStore()
    first = PointMetric(first_g, _store=store)
    for key in algebra.TABLE_NAMES:
        assert first.tables[key].tobytes() == want[key]
    second = PointMetric(second_g, _store=store)
    assert not set(first.tables)  # taking the store dropped every table of the first block
    taken = {key: second.tables[key] for key in algebra.TABLE_NAMES}
    for key in algebra.TABLE_NAMES:
        rebuilt = first.tables[key]
        assert rebuilt.tobytes() == want[key], key
        assert not any(np.shares_memory(rebuilt, table) for table in taken.values()), key
    for key in algebra.TABLE_NAMES:  # and the second block's tables are still its own
        assert second.tables[key].tobytes() == PointMetric(second_g).tables[key].tobytes(), key
    view = second.block(0, 4)  # a view of a block builds into no store
    assert not any(np.shares_memory(view.tables[key], taken[key]) for key in STORED_TABLES)


def test_a_failing_metric_raises_its_error_alone(monkeypatch):
    # trial 1 is Riemannian and trial 2 singular: the chunk raises trial 1's
    # error, the one its metric raises alone
    drawn = iter([np.diag([1.0, -1.0, -1.0, -1.0]), np.eye(4), np.zeros((4, 4))])
    monkeypatch.setattr(selftest, "random_lorentzian_metric", lambda rng: next(drawn))
    with pytest.raises(SignatureError) as err:
        selftest._draw_trials(np.random.default_rng(0), 3)
    with pytest.raises(SignatureError) as alone:
        PointMetric(np.eye(4))
    assert str(err.value) == str(alone.value)
    with pytest.raises(DegenerateMetricError):
        PointMetric(np.zeros((4, 4)))


def test_law_maxima_do_not_depend_on_the_chunk(monkeypatch):
    default = selftest.run_algebra_suite(iterations=100, seed=5)
    for chunk in (3, 7):  # 7 leaves a short last block of 2
        monkeypatch.setattr(selftest, "TRIALS_PER_BLOCK", chunk)
        small = selftest.run_algebra_suite(iterations=100, seed=5)
        assert _maxima(small) == _maxima(default), chunk
        assert [law.trials for law in small.laws] == [100] * len(selftest.ALGEBRA_LAWS)


# (table, blade whose operator gets a wrong scalar row, laws that must fail,
#  a law that reads no entry of that table and must still pass)
CORRUPTIONS = [
    ("M", 3, {"associativity", "product_split", "product_grade_spectrum"}, "hodge_inverse"),
    ("K", 3, {"contraction_composition", "left_right_contraction", "star_pairing_symmetry"},
     "associativity"),
    ("H", 15, {"hodge_inverse", "star_of_volume_and_unit", "hodge_defining_pairing"}, "associativity"),
]


@pytest.mark.parametrize("key, blade, failing, untouched", CORRUPTIONS)
def test_suite_fails_on_a_corrupted_table(monkeypatch, key, blade, failing, untouched):
    build = algebra._BUILDERS[key]

    def corrupted(tables):
        table = build(tables)
        table[:, blade, 0] += 1e-6
        return table

    monkeypatch.setitem(algebra._BUILDERS, key, corrupted)
    result = selftest.run_algebra_suite(iterations=50, seed=3)
    assert not result.passed
    failed = {law.name for law in result.laws if not law.passed}
    assert failing <= failed, result.lines()
    assert untouched not in failed, result.lines()


def test_nan_residual_is_a_failure(monkeypatch):
    build = algebra._BUILDERS["H"]

    def poisoned(tables):
        table = build(tables)
        table[-1] = np.nan
        return table

    monkeypatch.setitem(algebra._BUILDERS, "H", poisoned)
    result = selftest.run_algebra_suite(iterations=40, seed=3)
    law = {law.name: law for law in result.laws}["hodge_inverse"]
    assert np.isnan(law.max_residual) and not law.passed


def test_nan_operator_result_fails_its_diffops_law(monkeypatch):
    monkeypatch.setattr(FieldCalculus, "exterior_d_squared",
                        lambda self: Multivector(np.full(16, np.nan)))
    result = selftest.run_diffops_suite(fields_per_metric=2, seed=5)
    law = {law.name: law for law in result.laws}
    assert np.isnan(law["exterior_d_squared"].max_residual)
    assert not law["exterior_d_squared"].passed and not result.passed
    assert all(stat.passed for name, stat in law.items() if name != "exterior_d_squared")
    line = next(line for line in result.lines() if "exterior_d_squared" in line)
    assert line.startswith("[FAIL]") and "max_residual=nan" in line


# float.hex of each law's maximum, as the operator suite gave them one trial at a time
DIFFOPS_MAXIMA = {
    (25, 20240812): {
        "dirac_grade_split": "0x1.b3bc4cb3647f0p-53",
        "exterior_d_squared": "0x0.0p+0",
        "codifferential_squared": "0x1.0000000000000p-51",
        "codifferential_hodge_route": "0x1.60ab7052a45f6p-51",
        "operator_square_routes": "0x1.05cee61c8e1e8p-49",
        "ricci_extensoriality": "0x1.77f1f5f333565p-51",
        "lorenz_trace_identity": "0x0.0p+0",
    },
    (2, 5): {
        "dirac_grade_split": "0x1.1ece07c1117ebp-57",
        "exterior_d_squared": "0x0.0p+0",
        "codifferential_squared": "0x1.79fc891eb7119p-52",
        "codifferential_hodge_route": "0x1.0be3c1ddead68p-53",
        "operator_square_routes": "0x1.0000000000000p-51",
        "ricci_extensoriality": "0x1.8a365629d7216p-52",
        "lorenz_trace_identity": "0x0.0p+0",
    },
}


@pytest.mark.parametrize("fields_per_metric, seed", sorted(DIFFOPS_MAXIMA))
def test_diffops_law_maxima_are_pinned(fields_per_metric, seed):
    result = selftest.run_diffops_suite(fields_per_metric=fields_per_metric, seed=seed)
    assert {law.name: float.hex(law.max_residual) for law in result.laws} == \
        DIFFOPS_MAXIMA[fields_per_metric, seed]
    assert [law.trials for law in result.laws] == [3 * fields_per_metric] * len(result.laws)
    assert result.passed


def test_diffops_law_maxima_do_not_depend_on_the_chunk(monkeypatch):
    default = selftest.run_diffops_suite(fields_per_metric=7, seed=5)
    monkeypatch.setattr(selftest, "TRIALS_PER_BLOCK", 3)
    small = selftest.run_diffops_suite(fields_per_metric=7, seed=5)
    assert _maxima(small) == _maxima(default)
    assert [law.trials for law in small.laws] == [21] * len(small.laws)



def _one_trial_laws(rng, spec) -> dict:
    """One operator trial, drawn and checked alone: the reference for a block's lanes."""
    rel = selftest._rel
    gd = curvature(spec, selftest.catalog_sample_point(rng, spec))
    fc = FieldCalculus(selftest.random_field(rng, spec.coords, selftest.random_mixed_masks(rng)), gd)
    scale = max(1.0, fc.value().sup())
    out = {}
    split = [(fc.dirac() - fc.exterior_d() + fc.codifferential()).sup()]
    p = int(rng.integers(0, 5))
    fh = FieldCalculus(selftest.random_field(rng, spec.coords, list(blades.MASKS_BY_GRADE[p])), gd)
    full = fh.dirac()
    if p < 4:
        split.append((grade_project(full, p + 1) - fh.exterior_d()).sup())
    if p > 0:
        split.append((grade_project(full, p - 1) + fh.codifferential()).sup())
    out["dirac_grade_split"] = rel(np.max(split), scale)
    out["exterior_d_squared"] = rel(fc.exterior_d_squared().sup(), scale)
    out["codifferential_squared"] = rel(fc.codifferential_squared().sup(), scale)
    out["codifferential_hodge_route"] = rel((fc.codifferential() - fc.codifferential_hodge_route()).sup(),
                                            scale)
    second = fc.covariant_dalembertian() + fc.ricci_operator()
    out["operator_square_routes"] = rel((fc.hodge_dalembertian() - second).sup(), second.sup(), scale)
    fa = FieldCalculus(selftest.random_field(rng, spec.coords, [1, 2, 4, 8]), gd)
    rhs = Multivector.zero()
    for mu in range(4):
        rhs = rhs + fa.jets.vals[1 << mu] * gd.ricci_oneforms[mu]
    out["ricci_extensoriality"] = rel((fa.ricci_operator() - rhs).sup(), rhs.sup(), fa.value().sup())
    delta = fa.codifferential().scalar_part
    trace = -sum(gd.g_upper[k, m] * fa.cov1[k][1 << m] for k in range(4) for m in range(4))
    out["lorenz_trace_identity"] = rel(abs(delta - trace), abs(trace))
    return out


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_operator_block_residuals_equal_each_trial_alone_bitwise(key):
    spec = build_metric(key)
    trials = selftest._draw_operator_trials(np.random.default_rng(17), spec, selftest.TRIALS_PER_BLOCK)
    assert set(trials[2]) == set(range(5))  # every grade p, with and without its neighbours
    block = selftest._operator_laws(*trials)
    rng = np.random.default_rng(17)
    for i in range(selftest.TRIALS_PER_BLOCK):
        alone = _one_trial_laws(rng, spec)
        for name in selftest.DIFFOPS_LAWS:
            assert block[name].shape == (selftest.TRIALS_PER_BLOCK,)
            assert np.float64(block[name][i]).tobytes() == np.float64(alone[name]).tobytes(), (i, name)

def _peak_bytes(iterations: int) -> int:
    tracemalloc.reset_peak()
    selftest.run_algebra_suite(iterations=iterations, seed=9)
    return tracemalloc.get_traced_memory()[1]


def test_suite_memory_does_not_grow_with_iterations():
    # the trials of one chunk are drawn, checked and freed before the next;
    # holding every trial's draws or tables would add megabytes at 2000
    margin = 64 * 1024
    tracemalloc.start()
    try:
        _peak_bytes(selftest.TRIALS_PER_BLOCK)  # warm caches the first run fills
        small, large = _peak_bytes(200), _peak_bytes(2000)
    finally:
        tracemalloc.stop()
    assert large <= small + margin, (small, large)

