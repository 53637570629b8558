"""The chunked algebra selftest against the single-metric algebra it checks."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cliffcheck import algebra, blades, expr, selftest
from cliffcheck.algebra import PointMetric, grade_project, sup, wedge
from cliffcheck.diffops import FieldCalculus
from cliffcheck.errors import DegenerateMetricError
from cliffcheck.expr import evaluate_forest
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
    block = _block(metrics)
    for n, m in enumerate(metrics):
        for key in algebra.TABLE_NAMES:
            assert block.table(key).shape[0] == len(metrics)
            assert block.table(key)[n].tobytes() == m.table(key).tobytes(), (n, key)


def test_batched_products_equal_point_metric_products_bitwise():
    # the suite runs the products on a block of metrics; verify runs them on
    # blocks and tests on one metric at a time: lane n must be metric n alone
    metrics = _metrics(12, 40)
    block = _block(metrics)
    rng = np.random.default_rng(13)
    a, b = rng.uniform(-1.0, 1.0, size=(2, len(metrics), 16))
    binary = {name: getattr(block, name)(a, b)
              for name in ("clifford", "left_contract", "right_contract", "scalar_product")}
    unary = {name: getattr(block, name)(a) for name in ("hodge", "hodge_inv")}
    wedged = wedge(a, b)
    for n, m in enumerate(metrics):
        for name, got in binary.items():
            assert got[n].tobytes() == getattr(m, name)(a[n], b[n]).tobytes(), (n, name)
        for name, got in unary.items():
            assert got[n].tobytes() == getattr(m, name)(a[n]).tobytes(), (n, name)
        assert wedged[n].tobytes() == wedge(a[n], b[n]).tobytes(), n


# sha256 of the law lines of run_algebra_suite(iterations=200, seed=5), joined by
# newlines, as the suite gave them when it built its tables without PointMetric
ALGEBRA_LINES_SHA256 = "8fd5a4175ba351139b411106de6db9c9b6deae5bf571cbf7fbb9315d81dae7eb"


def test_law_lines_are_pinned():
    lines = selftest.run_algebra_suite(iterations=200, seed=5).lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ALGEBRA_LINES_SHA256


# the same for the benchmark's algebra-selftest op at its seed 1: 31 full blocks
# and a short last block of 8
BENCH_LINES_SHA256 = "ad53aac57e7d06a51decc8103b575980ca8225ebb93b6bebcd9eccfe0d8fcdd2"


def test_benchmark_law_lines_are_pinned():
    lines = selftest.run_algebra_suite(iterations=1000, seed=20240812).lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BENCH_LINES_SHA256


@pytest.mark.parametrize("chunk", [16, selftest.TRIALS_PER_BLOCK, 7])  # 16, the block size before 32
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


def test_stacked_block_metrics_equal_each_drawn_alone_bitwise():
    # _draw_trials forms a block's metrics as one stacked product L eta L^T;
    # each must be the metric random_lorentzian_metric gives, from the same
    # stream with the trial's other draws in between
    for seed in range(20):
        for count in (1, 5, selftest.TRIALS_PER_BLOCK):
            rng = np.random.default_rng(seed)
            alone = []
            for _ in range(count):
                alone.append(selftest.random_lorentzian_metric(rng))
                rng.uniform(-1.0, 1.0, size=(3, blades.N_BLADES))
                for high in (5, 5, 4, 4, 5):  # r, s, i, j, k
                    rng.integers(0, high)
            pm = selftest._draw_trials(np.random.default_rng(seed), count)[0]
            assert pm.g.tobytes() == PointMetric(np.array(alone)).g.tobytes(), (seed, count)


def test_a_failing_metric_raises_its_error_alone(monkeypatch):
    # trial 0 passes, trials 1 and 2 fail in different ways, in both orders:
    # the chunk raises trial 1's error, the one its metric raises alone.  A
    # congruence of the flat metric keeps its signature, so the failures a
    # draw can give are a singular metric and a non-finite (unsymmetric) one
    singular, nan = np.zeros((4, 4)), np.full((4, 4), np.nan)
    for second, third, error in [(singular, nan, DegenerateMetricError), (nan, singular, ValueError)]:
        drawn = iter([np.eye(4), second, third])
        monkeypatch.setattr(selftest, "_random_congruence", lambda rng: next(drawn))
        with pytest.raises(error) as err:
            selftest._draw_trials(np.random.default_rng(0), 3)
        with pytest.raises(error) as alone:
            PointMetric(second @ selftest.ETA @ second.T)
        assert type(err.value) is type(alone.value) and str(err.value) == str(alone.value)


def test_law_maxima_do_not_depend_on_the_chunk(monkeypatch):
    default = selftest.run_algebra_suite(iterations=100, seed=5)
    # 7 leaves a short last block of 2; 16 was the block size before 32,
    # and 128 holds all 100 trials in one block
    for chunk in (3, 7, 16, 128):
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
    # the step that completes the table: the fill of a table first built to its low grade
    hooks = algebra._FILLS if key in algebra._FILLS else algebra._BUILDERS
    step = hooks[key]

    def corrupted(tables, *table):
        table = step(tables, *table)
        table[:, blade, 0] += 1e-6
        return table

    monkeypatch.setitem(hooks, key, corrupted)
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


# sha256 of the serialized components of 200 fields of every blade, drawn by
# random_field from seed 7 over each catalog chart's coordinates, joined by
# newlines, as random_field drew them with one integers(..., size=n) call per
# factor's axes: a change of its draws fails here, not only in the law maxima
RANDOM_FIELD_SHA256 = {
    "flrw": "0d3fa7a78c964164cbdcdc419e3ded0d565bc96aa1d609e7dde72e7b24b4fbac",
    "minkowski": "0d3fa7a78c964164cbdcdc419e3ded0d565bc96aa1d609e7dde72e7b24b4fbac",
    "schwarzschild": "ce4d154d910951dc3f219acd20ffb9d446e56a196e5803259c4923b079cedcaf",
}


def test_random_field_draws_are_pinned():
    assert set(RANDOM_FIELD_SHA256) == set(CATALOG)
    for key, digest in RANDOM_FIELD_SHA256.items():
        rng = np.random.default_rng(7)
        coords = CATALOG[key].coords
        text = "\n".join(expr.serialize(e) for _ in range(200)
                         for e in selftest.random_field(rng, coords, range(16)).comps)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key


def test_nan_operator_result_fails_its_diffops_law(monkeypatch):
    monkeypatch.setattr(FieldCalculus, "exterior_d_squared",
                        lambda self: np.full(16, np.nan))
    result = selftest.run_diffops_suite(fields_per_metric=2, seed=5)
    law = {law.name: law for law in result.laws}
    assert np.isnan(law["exterior_d_squared"].max_residual)
    assert not law["exterior_d_squared"].passed and not result.passed
    assert all(stat.passed for name, stat in law.items() if name != "exterior_d_squared")
    line = next(line for line in result.lines() if "exterior_d_squared" in line)
    assert line.startswith("[FAIL]") and "max_residual=nan" in line


# float.hex of each law's maximum, as the operator suite gave them one trial at a time.
# dirac_grade_split was re-pinned when exterior_d() came to read the partials
# alone: the law now compares two routes, the covariant dirac() against the
# partial d, where before both read the covariant derivatives.
DIFFOPS_MAXIMA = {
    (25, 20240812): {
        "dirac_grade_split": "0x1.0000000000000p-51",
        "exterior_d_squared": "0x0.0p+0",
        "codifferential_squared": "0x1.0000000000000p-51",
        "codifferential_hodge_route": "0x1.60ab7052a45f6p-51",
        "operator_square_routes": "0x1.05cee61c8e1e8p-49",
        "ricci_extensoriality": "0x1.77f1f5f333565p-51",
        "lorenz_trace_identity": "0x0.0p+0",
    },
    (2, 5): {
        "dirac_grade_split": "0x1.1e30548b2c98ep-56",
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
    default_25 = selftest.run_diffops_suite()  # one block of 25 per metric
    monkeypatch.setattr(selftest, "TRIALS_PER_BLOCK", 3)
    small = selftest.run_diffops_suite(fields_per_metric=7, seed=5)
    assert _maxima(small) == _maxima(default)
    assert [law.trials for law in small.laws] == [21] * len(small.laws)
    monkeypatch.setattr(selftest, "TRIALS_PER_BLOCK", 16)  # blocks of 16 and 9 per metric
    split = selftest.run_diffops_suite()
    assert _maxima(split) == _maxima(default_25)
    assert [law.trials for law in split.laws] == [25 * len(CATALOG)] * len(split.laws)


def test_the_default_operator_suite_runs_one_block_per_catalog_metric(monkeypatch):
    # 25 fields fit one block: one curvature call per metric, and one forest
    # each for the mixed, homogeneous and 1-form fields
    calls = {"curvature": [], "forest": 0}

    def counted_curvature(spec, points):
        calls["curvature"].append((spec.name, len(points)))
        return curvature(spec, points)

    def counted_forest(*args, **kwargs):
        calls["forest"] += 1
        return evaluate_forest(*args, **kwargs)

    monkeypatch.setattr(selftest, "curvature", counted_curvature)
    monkeypatch.setattr(expr, "evaluate_forest", counted_forest)
    selftest.run_diffops_suite()
    assert sorted(calls["curvature"]) == sorted((build_metric(key).name, 25) for key in CATALOG)
    assert calls["forest"] == 3 * len(CATALOG)



def _one_trial_laws(rng, spec) -> dict:
    """One operator trial, drawn and checked alone: the reference for a block's lanes."""
    rel = selftest._rel
    gd = curvature(spec, selftest.catalog_sample_point(rng, spec))
    fc = FieldCalculus(selftest.random_field(rng, spec.coords, selftest.random_mixed_masks(rng)), gd)
    scale = max(1.0, sup(fc.value()))
    out = {}
    split = [sup(fc.dirac() - fc.exterior_d() + fc.codifferential())]
    p = int(rng.integers(0, 5))
    fh = FieldCalculus(selftest.random_field(rng, spec.coords, list(blades.MASKS_BY_GRADE[p])), gd)
    full = fh.dirac()
    if p < 4:
        split.append(sup(grade_project(full, p + 1) - fh.exterior_d()))
    if p > 0:
        split.append(sup(grade_project(full, p - 1) + fh.codifferential()))
    out["dirac_grade_split"] = rel(np.max(split), scale)
    out["exterior_d_squared"] = rel(sup(fc.exterior_d_squared()), scale)
    out["codifferential_squared"] = rel(sup(fc.codifferential_squared()), scale)
    out["codifferential_hodge_route"] = rel(sup(fc.codifferential() - fc.codifferential_hodge_route()),
                                            scale)
    second = fc.covariant_dalembertian() + fc.ricci_operator()
    out["operator_square_routes"] = rel(sup(fc.hodge_dalembertian() - second), sup(second), scale)
    fa = FieldCalculus(selftest.random_field(rng, spec.coords, [1, 2, 4, 8]), gd)
    rhs = np.zeros(16)
    for mu in range(4):
        rhs = rhs + fa.jets.val[1 << mu] * gd.ricci_oneforms[mu]
    out["ricci_extensoriality"] = rel(sup(fa.ricci_operator() - rhs), sup(rhs), sup(fa.value()))
    delta = fa.codifferential()[..., 0]
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


def _peak_above_start(run) -> int:
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    run()
    return tracemalloc.get_traced_memory()[1] - start


# tracemalloc peaks of the default-sized suites at 32 trials a block were
# about 3.5 MB (algebra, 1000 iterations) and 3.9 MB (operators, 25 fields
# per metric, one block each); at 16 they were about 1.8 and 2.5 MB.  The
# tables of a trial take about 96 kB, so an algebra block of 64 passes this
SUITE_PEAK_CEILING = 4.5e6


def test_suite_memory_stays_under_its_ceiling_at_the_default_block():
    suites = {"algebra": lambda: selftest.run_algebra_suite(iterations=1000, seed=20240812),
              "operators": selftest.run_diffops_suite}
    tracemalloc.start()
    try:
        for run in suites.values():  # warm caches the first run fills
            run()
        peaks = {name: _peak_above_start(run) for name, run in suites.items()}
    finally:
        tracemalloc.stop()
    assert all(peak <= SUITE_PEAK_CEILING for peak in peaks.values()), peaks


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

