"""Randomized property suites over the algebra and the differential operators.

The algebra suite draws a fresh Lorentzian point metric and fresh random
multivectors every trial and evaluates the full list of product, contraction
and duality laws, tracking the worst relative residual per law.  It works on
``CHUNK`` trials at a time: it draws each trial's inputs in turn, in the
order metric (the rejection loop of :func:`random_lorentzian_metric`), a, b,
c, r, s, i, j, k; builds the chunk's product tables at once with
:func:`cliffcheck.algebra.build_tables`; evaluates every law on (chunk, 16)
coefficient rows, a conditional law only on the trials it covers; and drops
the chunk before drawing the next, so memory does not grow with the number
of trials.  The products are :mod:`cliffcheck.algebra`'s row products, the
ones :class:`~cliffcheck.algebra.PointMetric` runs for a single metric, so
the suite checks the implementation that ``verify`` uses.  A seed gives the
same trials, and the same maxima, whatever the chunk size.  The operator
suite exercises the differential-operator consistency statements on random
polynomial fields over the builtin metric catalog.  Both back the
``algebra-selftest`` CLI command and the acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from functools import partial

from . import algebra, blades
from . import expr as ex
from .algebra import (_EYE16, Multivector, PointMetric, build_tables, grade_project, grade_rows,
                      scalar_rows)
from .diffops import FieldCalculus, MultivectorField
from .geometry import CATALOG, build_metric, curvature

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass
class LawStat:
    name: str
    trials: int
    max_residual: float
    passed: bool


@dataclass
class SuiteResult:
    name: str
    threshold: float
    laws: list
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    @property
    def max_residual(self) -> float:
        return max((law.max_residual for law in self.laws), default=0.0)

    def lines(self) -> list:
        out = []
        for law in self.laws:
            status = "PASS" if law.passed else "FAIL"
            out.append(
                f"[{status}] {law.name:<34} max_residual={law.max_residual:.3e} "
                f"(threshold {self.threshold:.0e}, {law.trials} trials)"
            )
        return out


def random_lorentzian_metric(rng: np.random.Generator, spread: float = 0.4) -> PointMetric:
    """Congruent image of the flat metric; always signature (1,3)."""
    while True:
        L = np.eye(4) + spread * rng.standard_normal((4, 4))
        if abs(np.linalg.det(L)) > 0.2:
            return PointMetric(L @ ETA @ L.T)


def _rel(diff, *scales):
    """``diff`` over the largest of 1 and ``scales``; floats or arrays of trials."""
    scale = 1.0
    for value in scales:
        scale = np.maximum(scale, value)
    return diff / scale


# -- the algebra suite, over a chunk of trials at once ------------------------------

CHUNK = 16  # trials per chunk; the tables of one trial take about 85 kB

ALGEBRA_LAWS = (
    "associativity",
    "anticommutator",
    "product_split",
    "contraction_half_commutator",
    "left_right_contraction",
    "wedge_half_commutator",
    "product_grade_spectrum",
    "scalar_product_reversal_routes",
    "contraction_antiderivation",
    "contraction_composition",
    "hodge_defining_pairing",
    "star_wedge_symmetry",
    "star_pairing_symmetry",
    "star_wedge_to_contraction",
    "star_contraction_to_wedge",
    "star_of_volume_and_unit",
    "hodge_inverse",
    "sandwich_trivector_closure",
)


def _sup(x: np.ndarray) -> np.ndarray:
    """Sup norm of each row of (N, 16) coefficients."""
    return np.max(np.abs(x), axis=-1)


def _sign(exponent: np.ndarray) -> np.ndarray:
    """(-1)**exponent per row, as a column to scale (N, 16) rows."""
    return np.where(exponent % 2, -1.0, 1.0)[:, np.newaxis]


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    pairs = (a[:, :, np.newaxis] * b[:, np.newaxis, :]).reshape(len(a), -1)
    return pairs @ blades.WEDGE_TENSOR.reshape(-1, blades.N_BLADES)


def _draw_trials(rng: np.random.Generator, count: int) -> tuple:
    """Inputs of ``count`` trials, each drawn in turn in the order one trial uses.

    Returns the metrics' g, sqrt_abs_det and sign_det, coefficient rows a, b,
    c and the integer draws r, s (grades), i, j (covector indices) and k
    (grade), one per trial.
    """
    metrics, vectors, ints = [], [], []
    for _ in range(count):
        metrics.append(random_lorentzian_metric(rng))
        vectors.append([rng.uniform(-1.0, 1.0, size=blades.N_BLADES) for _ in range(3)])
        r, s = rng.integers(0, 5), rng.integers(0, 5)
        i, j = rng.integers(0, 4), rng.integers(0, 4)
        ints.append((r, s, i, j, rng.integers(0, 5)))
    g = np.array([m.g for m in metrics])
    sqrt_abs_det = np.array([m.sqrt_abs_det for m in metrics])
    sign_det = np.array([m.sign_det for m in metrics])
    a, b, c = np.array(vectors).transpose(1, 0, 2)
    return (g, sqrt_abs_det, sign_det, a, b, c, *np.array(ints).T)


def _chunk_laws(g, sqrt_abs_det, sign_det, a, b, c, r, s, i, j, k) -> dict:
    """Relative residual of each law per trial; a conditional law only where it applies.

    The chunk's tables are built here and freed on return.
    """
    tables = build_tables(g, sqrt_abs_det, sign_det)
    clifford = partial(algebra.clifford_rows, tables)
    left_contract = partial(algebra.left_contract_rows, tables)
    right_contract = partial(algebra.right_contract_rows, tables)
    scalar_product = partial(algebra.scalar_product_rows, tables)
    hodge = partial(algebra.hodge_rows, tables)
    tau = tables["tau"]

    out = {}
    one_form = grade_rows(a, 1)
    ar, bs = grade_rows(a, r), grade_rows(b, s)
    sup_ar, sup_bs = _sup(ar), _sup(bs)

    # associativity of the geometric product
    lhs = clifford(clifford(a, b), c)
    rhs = clifford(a, clifford(b, c))
    out["associativity"] = _rel(_sup(lhs - rhs), _sup(lhs), _sup(rhs))

    # anticommutator of covectors reproduces the metric
    gi, gj = _EYE16[1 << i], _EYE16[1 << j]
    anti = clifford(gi, gj) + clifford(gj, gi)
    target = scalar_rows(2.0 * g[np.arange(len(a)), i, j])
    out["anticommutator"] = _rel(_sup(anti - target), _sup(target))

    # a B = a _| B + a ^ B and B a = B |_ a + B ^ a
    split = _sup(clifford(one_form, b) - left_contract(one_form, b) - _wedge(one_form, b))
    split2 = _sup(clifford(b, one_form) - right_contract(b, one_form) - _wedge(b, one_form))
    out["product_split"] = _rel(np.maximum(split, split2), _sup(b))

    # a _| B_s = (a B_s - (-1)^s B_s a)/2
    ab, ba = clifford(one_form, bs), clifford(bs, one_form)
    half_contract = 0.5 * (ab - _sign(s) * ba)
    out["contraction_half_commutator"] = _rel(_sup(left_contract(one_form, bs) - half_contract), sup_bs)

    # A_r _| B_s = (-1)^{r(s-r)} B_s |_ A_r
    lr = left_contract(ar, bs) - _sign(r * (s - r)) * right_contract(bs, ar)
    out["left_right_contraction"] = _rel(_sup(lr), sup_ar, sup_bs)

    # a ^ B_s = (a B_s + (-1)^s B_s a)/2
    half_wedge = 0.5 * (ab + _sign(s) * ba)
    out["wedge_half_commutator"] = _rel(_sup(_wedge(one_form, bs) - half_wedge), sup_bs)

    # grade spectrum of A_r B_s: grades |r-s|, |r-s|+2, ..., min(r+s, 8-r-s)
    prod = clifford(ar, bs)
    lowest, highest = np.abs(r - s)[:, np.newaxis], np.minimum(r + s, 8 - r - s)[:, np.newaxis]
    grades = np.arange(blades.DIM + 1)
    allowed = (grades >= lowest) & (grades <= highest) & ((grades - lowest) % 2 == 0)
    per_grade = np.stack([_sup(grade_rows(prod, gr)) for gr in grades], axis=1)
    out["product_grade_spectrum"] = _rel(np.where(allowed, 0.0, per_grade).sum(axis=1), _sup(prod))

    # A_r . B_r = <rev(A) B>_0 = <A rev(B)>_0 = rev(A) _| B
    br = grade_rows(b, r)
    rev_ar = algebra.reverse_rows(ar)
    sp = scalar_product(ar, br)
    rev_routes = np.maximum.reduce([
        np.abs(sp - clifford(rev_ar, br)[:, 0]),
        np.abs(sp - clifford(ar, algebra.reverse_rows(br))[:, 0]),
        np.abs(sp - left_contract(rev_ar, br)[:, 0]),
    ])
    out["scalar_product_reversal_routes"] = _rel(rev_routes, np.abs(sp), sup_ar, _sup(br))

    # a _| (X ^ Y) = (a _| X) ^ Y + hat(X) ^ (a _| Y)
    t54 = (
        left_contract(one_form, _wedge(b, c))
        - _wedge(left_contract(one_form, b), c)
        - _wedge(b * blades.INVOLUTE_SIGN, left_contract(one_form, c))
    )
    out["contraction_antiderivation"] = _rel(_sup(t54), _sup(b), _sup(c))

    # A _| (B _| C) = (A ^ B) _| C
    t55 = left_contract(a, left_contract(b, c)) - left_contract(_wedge(a, b), c)
    out["contraction_composition"] = _rel(_sup(t55), _sup(a), _sup(b), _sup(c))

    # [B_k . A_k] tau = B_k ^ star(A_k) against the contraction route
    ak, bk = grade_rows(a, k), grade_rows(b, k)
    pairing = _sup(scalar_product(bk, ak)[:, np.newaxis] * tau - _wedge(bk, hodge(ak)))
    out["hodge_defining_pairing"] = _rel(pairing, _sup(ak), _sup(bk))

    # star conversion identities, each on the trials whose grades it covers
    star_ar, star_bs = hodge(ar), hodge(bs)
    ar_wedge_star_bs = _wedge(ar, star_bs)
    ar_contract_star_bs = left_contract(ar, star_bs)
    sym = _sup(ar_wedge_star_bs - _wedge(bs, star_ar))
    out["star_wedge_symmetry"] = _rel(sym, sup_ar, sup_bs)[r == s]
    pair = np.abs(ar_contract_star_bs[:, 0] - left_contract(bs, star_ar)[:, 0])
    out["star_pairing_symmetry"] = _rel(pair, sup_ar, sup_bs)[r + s == 4]
    conv = _sup(ar_wedge_star_bs - _sign(r * (s - 1)) * hodge(left_contract(rev_ar, bs)))
    out["star_wedge_to_contraction"] = _rel(conv, sup_ar, sup_bs)[r <= s]
    conv = _sup(ar_contract_star_bs - _sign(r * s) * hodge(_wedge(rev_ar, bs)))
    out["star_contraction_to_wedge"] = _rel(conv, sup_ar, sup_bs)[r + s <= 4]

    vol = _sup(hodge(tau) - scalar_rows(sign_det))
    unit = _sup(hodge(scalar_rows(np.ones(len(a)))) - tau)
    out["star_of_volume_and_unit"] = _rel(np.maximum(vol, unit), _sup(tau))

    out["hodge_inverse"] = _rel(_sup(algebra.hodge_inv_rows(tables, hodge(a)) - a), _sup(a))

    f2 = grade_rows(b, 2)
    sandwich = clifford(f2, clifford(one_form, f2))
    out["sandwich_trivector_closure"] = _rel(_sup(grade_rows(sandwich, 3)), _sup(sandwich))
    return out


def run_algebra_suite(iterations: int = 10_000, seed: int = 20240811,
                      threshold: float = 1e-10) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(ALGEBRA_LAWS, 0.0)
    start = time.perf_counter()
    for first in range(0, iterations, CHUNK):
        trials = _draw_trials(rng, min(CHUNK, iterations - first))
        for name, values in _chunk_laws(*trials).items():
            worst[name] = float(np.max(values, initial=worst[name]))  # a NaN stays NaN
    elapsed = time.perf_counter() - start
    laws = [LawStat(n, iterations, worst[n], worst[n] < threshold) for n in ALGEBRA_LAWS]
    return SuiteResult("algebra", threshold, laws, elapsed)


# -- random expression-defined fields ------------------------------------------------


def random_field(rng: np.random.Generator, coords, masks) -> MultivectorField:
    """Random low-degree polynomial/trigonometric field, smooth everywhere."""
    comps = {}
    for mask in masks:
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            factor = ex.const(round(float(rng.uniform(-1.5, 1.5)), 6))
            for name in rng.choice(coords, size=int(rng.integers(0, 3)), replace=True):
                if rng.random() < 0.25:
                    factor = ex.Mul(factor, ex.Call("sin", (ex.Var(str(name)),)))
                else:
                    factor = ex.Mul(factor, ex.Var(str(name)))
            terms.append(factor)
        e = terms[0]
        for t in terms[1:]:
            e = ex.Add(e, t)
        comps[int(mask)] = e
    return MultivectorField.from_components(comps, tuple(coords))


def random_mixed_masks(rng: np.random.Generator) -> list:
    count = int(rng.integers(2, 5))
    return sorted(int(v) for v in rng.choice(16, size=count, replace=False))


def catalog_sample_point(rng: np.random.Generator, spec) -> np.ndarray:
    box = spec.domain_box()
    return np.array([rng.uniform(lo, hi) for lo, hi in (box[c] for c in spec.coords)])


def run_diffops_suite(fields_per_metric: int = 25, seed: int = 20240812,
                      threshold: float = 1e-8) -> SuiteResult:
    rng = np.random.default_rng(seed)
    names = [
        "dirac_grade_split",
        "exterior_d_squared",
        "codifferential_squared",
        "codifferential_hodge_route",
        "operator_square_routes",
        "ricci_extensoriality",
        "lorenz_trace_identity",
    ]
    residuals = {name: [] for name in names}  # per law, one relative residual per trial
    start = time.perf_counter()
    params = {"minkowski": None, "schwarzschild": {"M": 1.0}, "flrw": {"a": "t"}}

    for key in sorted(CATALOG):
        spec = build_metric(key, params[key])
        for _ in range(fields_per_metric):
            gd = curvature(spec, catalog_sample_point(rng, spec))
            F = random_field(rng, spec.coords, random_mixed_masks(rng))
            fc = FieldCalculus(F, gd)
            scale = max(1.0, fc.value().sup())

            # mixed grades: dirac F = dF - delta F
            split = [(fc.dirac() - fc.exterior_d() + fc.codifferential()).sup()]
            # homogeneous piece: the split is exactly the grade shift by +-1
            p = int(rng.integers(0, 5))
            hom = random_field(rng, spec.coords, list(blades.MASKS_BY_GRADE[p]))
            fh = FieldCalculus(hom, gd)
            full = fh.dirac()
            if p < 4:
                split.append((grade_project(full, p + 1) - fh.exterior_d()).sup())
            if p > 0:
                split.append((grade_project(full, p - 1) + fh.codifferential()).sup())
            residuals["dirac_grade_split"].append(_rel(np.max(split), scale))

            residuals["exterior_d_squared"].append(_rel(fc.exterior_d_squared().sup(), scale))
            residuals["codifferential_squared"].append(
                _rel(fc.codifferential_squared().sup(), scale)
            )
            residuals["codifferential_hodge_route"].append(
                _rel((fc.codifferential() - fc.codifferential_hodge_route()).sup(), scale)
            )
            hs = fc.hodge_dalembertian()
            residuals["operator_square_routes"].append(
                _rel(hs.disagreement, hs.value.sup(), scale)
            )

            A = random_field(rng, spec.coords, [1, 2, 4, 8])
            fa = FieldCalculus(A, gd)
            rhs = Multivector.zero()
            for mu in range(4):
                rhs = rhs + fa.jets.vals[1 << mu] * gd.ricci_oneforms[mu]
            residuals["ricci_extensoriality"].append(
                _rel((fa.ricci_operator() - rhs).sup(), rhs.sup(), fa.value().sup())
            )
            delta = fa.codifferential().scalar_part
            trace = -sum(
                gd.g_upper[k, mcomp] * fa.cov1[k][1 << mcomp]
                for k in range(4)
                for mcomp in range(4)
            )
            residuals["lorenz_trace_identity"].append(_rel(abs(delta - trace), abs(trace)))

    # np.max keeps a NaN, so a non-finite operator result fails its law
    worst = {name: float(np.max(values, initial=0.0)) for name, values in residuals.items()}
    elapsed = time.perf_counter() - start
    trials = fields_per_metric * len(CATALOG)
    laws = [LawStat(n, trials, worst[n], worst[n] < threshold) for n in names]
    return SuiteResult("diffops", threshold, laws, elapsed)
