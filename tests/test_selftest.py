"""The chunked algebra selftest against the single-metric algebra it checks."""

import tracemalloc

import numpy as np
import pytest

from cliffcheck import algebra, selftest
from cliffcheck.algebra import Multivector, PointMetric, wedge
from cliffcheck.diffops import FieldCalculus


def _metrics(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    metrics = [selftest.random_lorentzian_metric(rng) for _ in range(count)]
    # a Riemannian one too: sign_det +1 flips the Hodge inverse signs
    spd = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1
    return metrics + [PointMetric(spd, require_lorentzian=False)]


def _maxima(result) -> dict:
    return {law.name: law.max_residual for law in result.laws}


def test_build_tables_lanes_equal_point_metric_tables_bitwise():
    metrics = _metrics(11, 60)
    stack = algebra.build_tables(
        np.array([m.g for m in metrics]),
        np.array([m.sqrt_abs_det for m in metrics]),
        np.array([m.sign_det for m in metrics]),
    )
    for n, m in enumerate(metrics):
        for key in algebra.TABLE_NAMES:
            assert stack[key].shape[0] == len(metrics)
            assert stack[key][n].tobytes() == m.tables[key].tobytes(), (n, key)


def test_batched_products_equal_point_metric_products_bitwise():
    # the suite runs the row products on a stack of metrics; verify runs them
    # through PointMetric one metric at a time: lane n must be metric n alone
    metrics = _metrics(12, 40)
    tables = algebra.build_tables(
        np.array([m.g for m in metrics]),
        np.array([m.sqrt_abs_det for m in metrics]),
        np.array([m.sign_det for m in metrics]),
    )
    rng = np.random.default_rng(13)
    a, b = rng.uniform(-1.0, 1.0, size=(2, len(metrics), 16))
    binary = {
        "clifford": algebra.clifford_rows(tables, a, b),
        "left_contract": algebra.left_contract_rows(tables, a, b),
        "right_contract": algebra.right_contract_rows(tables, a, b),
        "scalar_product": algebra.scalar_product_rows(tables, a, b),
    }
    unary = {"hodge": algebra.hodge_rows(tables, a), "hodge_inv": algebra.hodge_inv_rows(tables, a)}
    wedged = selftest._wedge(a, b)
    for n, m in enumerate(metrics):
        an, bn = Multivector(a[n]), Multivector(b[n])
        for name, got in binary.items():
            want = getattr(m, name)(an, bn)
            want = want.coeffs if isinstance(want, Multivector) else np.float64(want)
            assert got[n].tobytes() == want.tobytes(), (n, name)
        for name, got in unary.items():
            assert got[n].tobytes() == getattr(m, name)(an).coeffs.tobytes(), (n, name)
        assert wedged[n].tobytes() == wedge(an, bn).coeffs.tobytes(), n


def test_law_maxima_do_not_depend_on_the_chunk(monkeypatch):
    default = selftest.run_algebra_suite(iterations=100, seed=5)
    monkeypatch.setattr(selftest, "CHUNK", 3)
    small = selftest.run_algebra_suite(iterations=100, seed=5)
    assert _maxima(small) == _maxima(default)
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
    def corrupted(g, sqrt_abs_det, sign_det):
        tables = algebra.build_tables(g, sqrt_abs_det, sign_det)
        tables[key][:, blade, 0] += 1e-6
        return tables

    monkeypatch.setattr(selftest, "build_tables", corrupted)
    result = selftest.run_algebra_suite(iterations=50, seed=3)
    assert not result.passed
    failed = {law.name for law in result.laws if not law.passed}
    assert failing <= failed, result.lines()
    assert untouched not in failed, result.lines()


def test_nan_residual_is_a_failure(monkeypatch):
    def poisoned(g, sqrt_abs_det, sign_det):
        tables = algebra.build_tables(g, sqrt_abs_det, sign_det)
        tables["H"][-1] = np.nan
        return tables

    monkeypatch.setattr(selftest, "build_tables", poisoned)
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
        _peak_bytes(selftest.CHUNK)  # warm caches the first run fills
        small, large = _peak_bytes(200), _peak_bytes(2000)
    finally:
        tracemalloc.stop()
    assert large <= small + margin, (small, large)
