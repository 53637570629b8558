"""Randomized property suites over the algebra and the differential operators.

The algebra suite draws a fresh Lorentzian point metric and fresh random
multivectors every trial and evaluates the full list of product, contraction
and duality laws, tracking the worst relative residual per law.  It works on
a block of :data:`TRIALS_PER_BLOCK` trials at a time: it draws each trial's
inputs in turn, in the order metric (the congruence L of the rejection loop
of :func:`random_lorentzian_metric`), a, b, c, r, s, i, j, k; forms the
block's metrics L eta L^T as one stacked product, bitwise those of
:func:`random_lorentzian_metric`, and checks them as one
:class:`~cliffcheck.algebra.PointMetric`; evaluates
every law on (block, 16) coefficient rows through that metric's product
methods and :func:`~cliffcheck.algebra.wedge`, a conditional law only on the
trials it covers; and drops the block before drawing the next, so memory
does not grow with the number of trials.  A block forms each shared quantity
once: the products that share a left factor and a table are one call on the
stack of their right factors, which forms that factor's operator once, and
the Hodge stars are one call, as are the sup norms of a, b and c.  Each
block's metric builds its own tables, as ``verify``'s do; under the CLI's
allocator thresholds (:func:`cliffcheck.cli._retain_freed_memory`) a block
reuses the memory the last one freed.  ``verify`` calls the same
methods, one row per point of its blocks, so the suite checks the metric
checks, tables and products that ``verify`` uses.
A seed gives the same trials, and the same maxima, whatever the block size.
The operator suite exercises the differential-operator consistency
statements on random polynomial fields over the builtin metric catalog,
each metric at the catalog's default parameters (``build_metric(key)``).
Its index sum A_mu R^mu is :func:`~cliffcheck.algebra.linear_combination`.
It too works on a block of :data:`TRIALS_PER_BLOCK` trials of one metric at
a time, so at the default 25 fields per metric each catalog metric is one
block: it draws each trial's inputs in turn, in the order point, mixed
field F, grade p, its homogeneous field, 1-form A; evaluates the block's
points as one :func:`~cliffcheck.geometry.curvature` block; and runs each
operator once on a :meth:`FieldCalculus.of_lanes` block that holds trial
i's field at point i, whose field components are evaluated as one forest
of trees, level by level (:func:`~cliffcheck.expr.evaluate_forest`).
Each trial's residuals are bitwise those of the trial alone, so a seed
gives the same maxima, whatever the block size.
Both suites back the ``algebra-selftest`` CLI command and the acceptance
suite.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import blades
from . import expr as ex
from .algebra import GRADE_MASKS, PointMetric, grade_project, linear_combination, reverse, scalars, sup, wedge
from .diffops import FieldCalculus, MultivectorField
from .geometry import CATALOG, build_metric, curvature

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
IDENTITY = np.eye(4)


class LawStat(NamedTuple):
    name: str
    trials: int
    max_residual: float
    passed: bool


class SuiteResult:
    __slots__ = ("name", "threshold", "laws", "elapsed_s")

    def __init__(self, name: str, threshold: float, laws: list, elapsed_s: float):
        self.name = name
        self.threshold = threshold
        self.laws = laws  # LawStat per law
        self.elapsed_s = elapsed_s

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


def _random_congruence(rng: np.random.Generator) -> np.ndarray:
    """A 4x4 matrix L near the identity with |det L| > 0.2, drawn until one is."""
    while True:
        L = IDENTITY + 0.4 * rng.standard_normal((4, 4))
        if abs(np.linalg.det(L)) > 0.2:
            return L


def random_lorentzian_metric(rng: np.random.Generator) -> np.ndarray:
    """4x4 cotangent metric, a congruent image of the flat one; always signature (1,3)."""
    L = _random_congruence(rng)
    return L @ ETA @ L.T


def _rel(diff, *scales):
    """``diff`` over the largest of 1 and ``scales``; floats or arrays of trials."""
    scale = 1.0
    for value in scales:
        scale = np.maximum(scale, value)
    return diff / scale


# -- the algebra suite, over a block of trials at once ------------------------------

TRIALS_PER_BLOCK = 32  # the tables of one trial take about 96 kB

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


def _sign(exponent: np.ndarray) -> np.ndarray:
    """(-1)**exponent per row, as a column to scale (N, 16) rows."""
    return np.where(exponent % 2, -1.0, 1.0)[:, np.newaxis]


def _draw_trials(rng: np.random.Generator, count: int) -> tuple:
    """Inputs of ``count`` trials, each drawn in turn in the order one trial uses.

    Returns the block :class:`PointMetric` of the trials' metrics, coefficient
    rows a, b, c and the integer draws r, s (grades), i, j (covector indices)
    and k (grade), one per trial.  A metric that fails its checks raises the
    error it raises alone (the first such trial's).
    """
    congruences, vectors, ints = [], [], []
    for _ in range(count):
        congruences.append(_random_congruence(rng))
        vectors.append(rng.uniform(-1.0, 1.0, size=(3, blades.N_BLADES)))  # a, b, c in turn
        r, s = rng.integers(0, 5), rng.integers(0, 5)
        i, j = rng.integers(0, 4), rng.integers(0, 4)
        ints.append((r, s, i, j, rng.integers(0, 5)))
    L = np.array(congruences)
    pm = PointMetric(L @ ETA @ L.transpose(0, 2, 1), )  # L eta L^T, bitwise as drawn alone
    if pm.errors:
        raise pm.errors[min(pm.errors)]
    a, b, c = np.array(vectors).transpose(1, 0, 2)
    return (pm, a, b, c, *np.array(ints).T)


def _block_laws(pm: PointMetric, a, b, c, r, s, i, j, k) -> dict:
    """Relative residual of each law per trial; a conditional law only where it applies.

    The products are the block ``pm``'s methods and :func:`~cliffcheck.algebra.wedge`,
    which ``verify`` calls; the block's tables are built here, as they read them.
    The products that share a left factor and a table come first, one call on
    the stack of their right factors each, bitwise each product alone; so do
    the Hodge stars, in one call.
    """
    clifford, left_contract, right_contract = pm.clifford, pm.left_contract, pm.right_contract
    scalar_product, hodge = pm.scalar_product, pm.hodge
    tau = pm.volume_form()

    out = {}
    one_form = grade_project(a, 1)
    ar, bs, br, f2 = grade_project(a, r), grade_project(b, s), grade_project(b, r), grade_project(b, 2)
    ak, bk = grade_project(a, k), grade_project(b, k)
    rev_ar = reverse(ar)
    sup_a, sup_b, sup_c = sup(np.stack((a, b, c)))
    sup_ar, sup_bs = sup(ar), sup(bs)

    # the Clifford products, one operator per left factor
    bc, b_one = clifford(b, np.stack((c, one_form)))
    a_b, a_bc = clifford(a, np.stack((b, bc)))
    one_b, ab, one_f2 = clifford(one_form, np.stack((b, bs, f2)))  # ab is a B_s, as the half commutators name it
    prod, ar_rev_br = clifford(ar, np.stack((bs, reverse(br))))

    # the left contractions, one operator per left factor
    pm.table("K")  # complete now, built once: this left contraction's factor is a 1-form, later ones reach grade 4
    b_and_c = wedge(b, c)
    contract_one_b, contract_one_bs, contract_one_bc, contract_one_c = left_contract(
        one_form, np.stack((b, bs, b_and_c, c)))
    contract_rev_br, contract_rev_bs = left_contract(rev_ar, np.stack((br, bs)))

    # the Hodge stars, one matrix product
    stars = hodge(np.stack((ak, ar, bs, contract_rev_bs, wedge(rev_ar, bs), tau, scalars(np.ones(len(a))), a)))
    star_ak, star_ar, star_bs, star_contract, star_wedge, star_tau, star_unit, star_a = stars
    contract_ar_bs, ar_contract_star_bs = left_contract(ar, np.stack((bs, star_bs)))

    # associativity of the geometric product
    lhs, rhs = clifford(a_b, c), a_bc
    out["associativity"] = _rel(sup(lhs - rhs), sup(lhs), sup(rhs))

    # anticommutator of covectors reproduces the metric
    gi, gj = np.eye(blades.N_BLADES)[[1 << i, 1 << j]]
    anti = clifford(gi, gj) + clifford(gj, gi)
    target = scalars(2.0 * pm.g[np.arange(len(a)), i, j])
    out["anticommutator"] = _rel(sup(anti - target), sup(target))

    # a B = a _| B + a ^ B and B a = B |_ a + B ^ a
    split = sup(one_b - contract_one_b - wedge(one_form, b))
    split2 = sup(b_one - right_contract(b, one_form) - wedge(b, one_form))
    out["product_split"] = _rel(np.maximum(split, split2), sup_b)

    # a _| B_s = (a B_s - (-1)^s B_s a)/2
    ba = clifford(bs, one_form)
    half_contract = 0.5 * (ab - _sign(s) * ba)
    out["contraction_half_commutator"] = _rel(sup(contract_one_bs - half_contract), sup_bs)

    # A_r _| B_s = (-1)^{r(s-r)} B_s |_ A_r
    lr = contract_ar_bs - _sign(r * (s - r)) * right_contract(bs, ar)
    out["left_right_contraction"] = _rel(sup(lr), sup_ar, sup_bs)

    # a ^ B_s = (a B_s + (-1)^s B_s a)/2
    half_wedge = 0.5 * (ab + _sign(s) * ba)
    out["wedge_half_commutator"] = _rel(sup(wedge(one_form, bs) - half_wedge), sup_bs)

    # grade spectrum of A_r B_s: grades |r-s|, |r-s|+2, ..., min(r+s, 8-r-s)
    lowest, highest = np.abs(r - s)[:, np.newaxis], np.minimum(r + s, 8 - r - s)[:, np.newaxis]
    grades = np.arange(blades.DIM + 1)
    allowed = (grades >= lowest) & (grades <= highest) & ((grades - lowest) % 2 == 0)
    per_grade = np.where(GRADE_MASKS, np.abs(prod)[:, np.newaxis, :], 0.0).max(axis=-1)  # sup of each grade
    out["product_grade_spectrum"] = _rel(np.where(allowed, 0.0, per_grade).sum(axis=1), sup(prod))

    # A_r . B_r = <rev(A) B>_0 = <A rev(B)>_0 = rev(A) _| B
    sp = scalar_product(ar, br)
    rev_routes = np.maximum.reduce([
        np.abs(sp - clifford(rev_ar, br)[:, 0]),
        np.abs(sp - ar_rev_br[:, 0]),
        np.abs(sp - contract_rev_br[:, 0]),
    ])
    out["scalar_product_reversal_routes"] = _rel(rev_routes, np.abs(sp), sup_ar, sup(br))

    # a _| (X ^ Y) = (a _| X) ^ Y + hat(X) ^ (a _| Y)
    t54 = (
        contract_one_bc
        - wedge(contract_one_b, c)
        - wedge(b * blades.INVOLUTE_SIGN, contract_one_c)
    )
    out["contraction_antiderivation"] = _rel(sup(t54), sup_b, sup_c)

    # A _| (B _| C) = (A ^ B) _| C
    t55 = left_contract(a, left_contract(b, c)) - left_contract(wedge(a, b), c)
    out["contraction_composition"] = _rel(sup(t55), sup_a, sup_b, sup_c)

    # [B_k . A_k] tau = B_k ^ star(A_k) against the contraction route
    pairing = sup(scalar_product(bk, ak)[:, np.newaxis] * tau - wedge(bk, star_ak))
    out["hodge_defining_pairing"] = _rel(pairing, sup(ak), sup(bk))

    # star conversion identities, each on the trials whose grades it covers
    ar_wedge_star_bs = wedge(ar, star_bs)
    sym = sup(ar_wedge_star_bs - wedge(bs, star_ar))
    out["star_wedge_symmetry"] = _rel(sym, sup_ar, sup_bs)[r == s]
    pair = np.abs(ar_contract_star_bs[:, 0] - left_contract(bs, star_ar)[:, 0])
    out["star_pairing_symmetry"] = _rel(pair, sup_ar, sup_bs)[r + s == 4]
    conv = sup(ar_wedge_star_bs - _sign(r * (s - 1)) * star_contract)
    out["star_wedge_to_contraction"] = _rel(conv, sup_ar, sup_bs)[r <= s]
    conv = sup(ar_contract_star_bs - _sign(r * s) * star_wedge)
    out["star_contraction_to_wedge"] = _rel(conv, sup_ar, sup_bs)[r + s <= 4]

    vol = sup(star_tau - scalars(pm.sign_det))
    unit = sup(star_unit - tau)
    out["star_of_volume_and_unit"] = _rel(np.maximum(vol, unit), sup(tau))

    out["hodge_inverse"] = _rel(sup(pm.hodge_inv(star_a) - a), sup_a)

    sandwich = clifford(f2, one_f2)
    out["sandwich_trivector_closure"] = _rel(sup(grade_project(sandwich, 3)), sup(sandwich))
    return out


def _suite(name: str, laws: tuple, threshold: float, trials: int, blocks) -> SuiteResult:
    """The worst residual of each law over ``blocks``, an iterable of per-block law dicts
    that draws and runs the trials as it is iterated, which is the time measured."""
    worst = dict.fromkeys(laws, 0.0)
    start = time.perf_counter()
    for block in blocks:
        for law, values in block.items():
            worst[law] = float(np.max(values, initial=worst[law]))  # a NaN stays NaN
    elapsed = time.perf_counter() - start
    stats = [LawStat(n, trials, worst[n], worst[n] < threshold) for n in laws]
    return SuiteResult(name, threshold, stats, elapsed)


def run_algebra_suite(iterations: int = 10_000, seed: int = 20240811) -> SuiteResult:
    rng = np.random.default_rng(seed)
    blocks = (_block_laws(*_draw_trials(rng, min(TRIALS_PER_BLOCK, iterations - first)))
              for first in range(0, iterations, TRIALS_PER_BLOCK))
    return _suite("algebra", ALGEBRA_LAWS, 1e-10, iterations, blocks)


# -- random expression-defined fields ------------------------------------------------


def random_field(rng: np.random.Generator, coords, masks) -> MultivectorField:
    """Random low-degree polynomial/trigonometric field, smooth everywhere."""
    comps = {}
    for mask in masks:
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            factor = ex.const(round(float(rng.uniform(-1.5, 1.5)), 6))
            # one scalar draw per axis: the stream of integers(..., size=n), at less cost per call
            for axis in [rng.integers(0, len(coords)) for _ in range(int(rng.integers(0, 3)))]:
                name = coords[axis]
                if rng.random() < 0.25:
                    factor = ex.Mul(factor, ex.Call("sin", (ex.Var(name),)))
                else:
                    factor = ex.Mul(factor, ex.Var(name))
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


DIFFOPS_LAWS = (
    "dirac_grade_split",
    "exterior_d_squared",
    "codifferential_squared",
    "codifferential_hodge_route",
    "operator_square_routes",
    "ricci_extensoriality",
    "lorenz_trace_identity",
)

def _draw_operator_trials(rng: np.random.Generator, spec, count: int) -> tuple:
    """Inputs of ``count`` operator trials on ``spec``, each drawn in turn in the order one trial uses.

    The order is point, mixed field F (masks, then components), grade p, its
    homogeneous field, 1-form A.  Returns the block geometry of the points,
    the fields F, the grades p, the homogeneous fields and the fields A.  A
    point that fails ``curvature`` raises the error it raises alone (the
    first such trial's).
    """
    points, mixed, grades, homogeneous, potentials = [], [], [], [], []
    for _ in range(count):
        points.append(catalog_sample_point(rng, spec))
        mixed.append(random_field(rng, spec.coords, random_mixed_masks(rng)))
        p = int(rng.integers(0, 5))
        grades.append(p)
        homogeneous.append(random_field(rng, spec.coords, list(blades.MASKS_BY_GRADE[p])))
        potentials.append(random_field(rng, spec.coords, [1, 2, 4, 8]))
    gd = curvature(spec, np.array(points))
    if gd.errors:
        raise gd.errors[min(gd.errors)]
    return gd, mixed, np.array(grades), homogeneous, potentials


def _operator_laws(gd, mixed, p, homogeneous, potentials) -> dict:
    """Relative residual of each operator law per trial of a block, as one trial gives it."""
    out = {}
    fc = FieldCalculus.of_lanes(mixed, gd)
    value = sup(fc.value())
    scale = np.where(value > 1.0, value, 1.0)  # max(1.0, value): a NaN value gives 1.0

    # mixed grades: dirac F = dF - delta F
    split = sup(fc.dirac() - fc.exterior_d() + fc.codifferential())
    # homogeneous piece: the split is exactly the grade shift by +-1; a grade
    # without that neighbour has no such term, which -inf leaves out of the max
    # (its grade is clipped to 0..4, and that row's value is dropped)
    fh = FieldCalculus.of_lanes(homogeneous, gd)
    full = fh.dirac()
    up = np.where(p < 4, sup(grade_project(full, np.minimum(p + 1, 4)) - fh.exterior_d()), -np.inf)
    down = np.where(p > 0, sup(grade_project(full, np.maximum(p - 1, 0)) + fh.codifferential()), -np.inf)
    out["dirac_grade_split"] = _rel(np.max([split, up, down], axis=0), scale)

    out["exterior_d_squared"] = _rel(sup(fc.exterior_d_squared()), scale)
    out["codifferential_squared"] = _rel(sup(fc.codifferential_squared()), scale)
    out["codifferential_hodge_route"] = _rel(sup(fc.codifferential() - fc.codifferential_hodge_route()), scale)
    second = fc.covariant_dalembertian() + fc.ricci_operator()
    out["operator_square_routes"] = _rel(sup(fc.hodge_dalembertian() - second), sup(second), scale)

    fa = FieldCalculus.of_lanes(potentials, gd)
    rhs = linear_combination(fa.jets.val[:, blades.COVECTOR_MASKS], gd.ricci_oneforms)  # A_mu R^mu
    out["ricci_extensoriality"] = _rel(sup(fa.ricci_operator() - rhs), sup(rhs), sup(fa.value()))
    delta = fa.codifferential()[:, 0]
    trace = -sum(
        gd.g_upper[:, k, mcomp] * fa.cov1[:, k, 1 << mcomp]
        for k in range(4)
        for mcomp in range(4)
    )
    out["lorenz_trace_identity"] = _rel(np.abs(delta - trace), np.abs(trace))
    return out


def run_diffops_suite(fields_per_metric: int = 25, seed: int = 20240812) -> SuiteResult:
    rng = np.random.default_rng(seed)
    blocks = (_operator_laws(*_draw_operator_trials(rng, spec, min(TRIALS_PER_BLOCK, fields_per_metric - first)))
              for spec in (build_metric(key) for key in sorted(CATALOG))
              for first in range(0, fields_per_metric, TRIALS_PER_BLOCK))
    return _suite("diffops", DIFFOPS_LAWS, 1e-8, fields_per_metric * len(CATALOG), blocks)
