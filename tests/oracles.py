"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately written from first principles (index lists,
explicit permutation sorting, the anticommutation rewrite rule) and shares no
sign tables or recursion with the package under test.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from cliffcheck import __version__
from cliffcheck.errors import DomainEvalError, UnboundIdentifierError
from cliffcheck.expr import (
    _MATH_ERRORS, Add, Call, Div, Expr, Mul, Neg, Num, Pow, Sub, Var, _range_error,
    _small_int_exponent, serialize,
)


def sort_sign(seq) -> int:
    """Parity of the permutation sorting ``seq`` ascending (bubble count)."""
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


def mask_of(idxs) -> int:
    m = 0
    for i in idxs:
        m |= 1 << i
    return m


def indices_of(mask: int):
    return tuple(i for i in range(4) if mask >> i & 1)


def mv_to_dict(coeffs) -> dict:
    return {m: float(c) for m, c in enumerate(np.asarray(coeffs)) if c != 0.0}


def dict_to_coeffs(d: dict) -> np.ndarray:
    out = np.zeros(16)
    for m, c in d.items():
        out[m] += c
    return out


def _accumulate(target: dict, mask: int, coeff: float):
    if coeff != 0.0:
        target[mask] = target.get(mask, 0.0) + coeff


def reduce_monomial(idxs: tuple, g: np.ndarray, coeff: float, out: dict):
    """Reduce gamma^{i1} gamma^{i2} ... to canonical blades.

    Rewrite rules: gamma^a gamma^a = g[a,a]; for a > b,
    gamma^a gamma^b = 2 g[a,b] - gamma^b gamma^a.
    """
    for p in range(len(idxs) - 1):
        a, b = idxs[p], idxs[p + 1]
        if a == b:
            reduce_monomial(idxs[:p] + idxs[p + 2:], g, coeff * g[a, a], out)
            return
        if a > b:
            reduce_monomial(idxs[:p] + idxs[p + 2:], g, coeff * 2.0 * g[a, b], out)
            reduce_monomial(idxs[:p] + (b, a) + idxs[p + 2:], g, -coeff, out)
            return
    _accumulate(out, mask_of(idxs), coeff)


def wedge_to_monomial_matrix(g: np.ndarray) -> np.ndarray:
    """Column m holds the canonical-monomial coordinates of the wedge blade m.

    A wedge blade is the full antisymmetrization of its covector factors,
    gamma^{i1} ^ ... ^ gamma^{ik} = (1/k!) sum_perm sign(perm) gamma^{perm},
    which only coincides with the single monomial gamma^{i1}...gamma^{ik}
    when the metric is diagonal.
    """
    from itertools import permutations
    from math import factorial

    T = np.zeros((16, 16))
    for m in range(16):
        idxs = indices_of(m)
        acc: dict = {}
        if not idxs:
            acc[0] = 1.0
        else:
            w = 1.0 / factorial(len(idxs))
            for perm in permutations(idxs):
                reduce_monomial(tuple(perm), g, sort_sign(perm) * w, acc)
        T[:, m] = dict_to_coeffs(acc)
    return T


def clifford_oracle(a_coeffs, b_coeffs, g: np.ndarray) -> np.ndarray:
    """Clifford product by monomial reordering (wedge basis in and out)."""
    T = wedge_to_monomial_matrix(g)
    am = T @ np.asarray(a_coeffs, dtype=float)
    bm = T @ np.asarray(b_coeffs, dtype=float)
    out: dict = {}
    for ma, ca in mv_to_dict(am).items():
        for mb, cb in mv_to_dict(bm).items():
            reduce_monomial(indices_of(ma) + indices_of(mb), g, ca * cb, out)
    return np.linalg.solve(T, dict_to_coeffs(out))


def wedge_oracle(a_coeffs, b_coeffs) -> np.ndarray:
    """Exterior product via permutation parity on concatenated index lists."""
    out: dict = {}
    for ma, ca in mv_to_dict(a_coeffs).items():
        for mb, cb in mv_to_dict(b_coeffs).items():
            idxs = indices_of(ma) + indices_of(mb)
            if len(set(idxs)) != len(idxs):
                continue
            _accumulate(out, mask_of(idxs), ca * cb * sort_sign(idxs))
    return dict_to_coeffs(out)


def grade_select(coeffs, k: int) -> np.ndarray:
    out = np.zeros(16)
    for m in range(16):
        if bin(m).count("1") == k:
            out[m] = coeffs[m]
    return out


def left_contract_oracle(a_coeffs, b_coeffs, g: np.ndarray) -> np.ndarray:
    """A _| B as the lowest-grade slice <A_r B_s>_{s-r} of the Clifford product."""
    out = np.zeros(16)
    for r in range(5):
        ar = grade_select(a_coeffs, r)
        if not ar.any():
            continue
        for s in range(r, 5):
            bs = grade_select(b_coeffs, s)
            if not bs.any():
                continue
            out += grade_select(clifford_oracle(ar, bs, g), s - r)
    return out


def gram_scalar_oracle(a_coeffs, b_coeffs, g: np.ndarray) -> float:
    """Scalar product via the Gram determinant on blade pairs of equal grade."""
    total = 0.0
    for ma, ca in mv_to_dict(a_coeffs).items():
        for mb, cb in mv_to_dict(b_coeffs).items():
            ia, ib = indices_of(ma), indices_of(mb)
            if len(ia) != len(ib):
                continue
            if len(ia) == 0:
                total += ca * cb
                continue
            gram = np.array([[g[x, y] for y in ib] for x in ia])
            from itertools import permutations

            det = 0.0
            for perm in permutations(range(len(ia))):
                det += sort_sign(perm) * np.prod([gram[i, perm[i]] for i in range(len(ia))])
            total += ca * cb * det
    return total


def hodge_oracle(a_coeffs, g: np.ndarray, sqrt_abs_det: float) -> np.ndarray:
    """star(A) = reverse(A) _| tau with tau = sqrt|g| gamma^{0123}."""
    rev = np.array(a_coeffs, dtype=float)
    for m in range(16):
        k = bin(m).count("1")
        rev[m] *= (-1.0) ** (k * (k - 1) // 2)
    tau = np.zeros(16)
    tau[15] = sqrt_abs_det
    return left_contract_oracle(rev, tau, g)


# -- finite differences ----------------------------------------------------


def central_diff(f, x: np.ndarray, i: int, h: float = 1e-4):
    e = np.zeros_like(x)
    e[i] = h
    return (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)


def richardson_diff(f, x: np.ndarray, i: int, h: float = 1e-4):
    """Central difference with one Richardson extrapolation step (O(h^4))."""
    d1 = central_diff(f, x, i, h)
    d2 = central_diff(f, x, i, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def richardson_hessian_entry(f, x: np.ndarray, i: int, j: int, h: float = 1e-4):
    return richardson_diff(lambda y: richardson_diff(f, y, j, h), x, i, h)


def random_lorentzian_cotangent(rng: np.random.Generator, spread: float = 0.4) -> np.ndarray:
    """Random metric congruent to diag(1,-1,-1,-1); always signature (1,3)."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    while True:
        L = np.eye(4) + spread * rng.standard_normal((4, 4))
        if abs(np.linalg.det(L)) > 0.2:
            return L @ eta @ L.T


# -- expression values -----------------------------------------------------------


def evaluate(
    e: Expr,
    coords: Sequence[str],
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> float:
    """Expression value at one point over plain floats; bit-identical to ``evaluate_jet2(...).val``."""
    names: dict = {}
    for axis, name in enumerate(coords):
        names[name] = float(point[axis])
    for name, value in (params or {}).items():
        names[name] = float(value)
    return _eval_value(e, names, frozenset(coords))


def _eval_value(e: Expr, names: Mapping[str, float], coord_names: frozenset) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise UnboundIdentifierError(
                f"identifier '{e.name}' is neither a coordinate nor a parameter"
            ) from None
    if isinstance(e, Neg):
        return -_eval_value(e.arg, names, coord_names)
    if isinstance(e, Add):
        return _eval_value(e.left, names, coord_names) + _eval_value(e.right, names, coord_names)
    if isinstance(e, Sub):
        return _eval_value(e.left, names, coord_names) - _eval_value(e.right, names, coord_names)
    if isinstance(e, Mul):
        return _eval_value(e.left, names, coord_names) * _eval_value(e.right, names, coord_names)
    if isinstance(e, Div):
        denom = _eval_value(e.right, names, coord_names)
        if denom == 0.0:
            raise DomainEvalError("division by zero", serialize(e))
        return _eval_value(e.left, names, coord_names) / denom
    if isinstance(e, Pow):
        return _value_pow(_eval_value(e.left, names, coord_names), _eval_value(e.right, names, coord_names),
                          e.right, coord_names, e)
    if isinstance(e, Call):
        if e.func == "pow":
            return _value_pow(_eval_value(e.args[0], names, coord_names), _eval_value(e.args[1], names, coord_names),
                              e.args[1], coord_names, e)
        v = _eval_value(e.args[0], names, coord_names)
        if e.func == "log" and v <= 0.0:
            raise DomainEvalError("log of non-positive value", serialize(e))
        if e.func == "sqrt" and v < 0.0:
            raise DomainEvalError("sqrt of negative value", serialize(e))
        try:
            return getattr(math, e.func)(v)
        except _MATH_ERRORS as err:
            raise _range_error(err, e) from None
    raise TypeError(f"not an Expr node: {e!r}")


def _value_pow(base: float, expo: float, expo_node: Expr, coord_names: frozenset, site: Expr) -> float:
    n = _small_int_exponent(expo, expo_node, coord_names)
    if n is not None:
        if n == 0:
            return 1.0
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        if n < 0:
            if out == 0.0:
                raise DomainEvalError("division by zero", serialize(site))
            return 1.0 / out
        return out
    if base <= 0.0:
        raise DomainEvalError("power with non-integer exponent requires positive base", serialize(site))
    try:
        return math.exp(expo * math.log(base))
    except (OverflowError, ZeroDivisionError) as err:
        raise _range_error(err, site) from None


def nested(frames: int, fn, *args):
    """``fn(*args)`` called from ``frames`` nested frames of the caller's own recursion."""
    return fn(*args) if frames == 0 else nested(frames - 1, fn, *args)


def records(report) -> list:
    """Each point of a ResidualReport as a dict of the report file, read from the columns."""
    out = [{"point": point, "residuals": {}, "info": {}, "error": report.errors.get(i), "passed": False}
           for i, point in enumerate(report.points.tolist())]
    for lay in report.layouts:
        rows = [out[i] for i in lay.index.tolist()]
        for part, columns in (("residuals", lay.residuals), ("info", lay.info)):
            for key, column in columns.items():
                for row, value in zip(rows, column.tolist()):
                    row[part][key] = value
        for row in rows:
            row["passed"] = all(value <= report.tolerance for value in row["residuals"].values())
    return out


def check_dict(report) -> dict:
    """A ResidualReport as the dict of the report file; ``max_residual`` (NaN-aware) is the report's."""
    points = records(report)
    passed = bool(points) and all(p["passed"] for p in points)
    return {"check": report.check, "tolerance": report.tolerance, "passed": passed,
            "max_residual": report.max_residual, "notes": list(report.notes), "points": points}


def report_dict(report) -> dict:
    """A runner Report as the dict of its report file."""
    return {"schema": "cliffcheck-report/v1", "tool": {"name": "cliffcheck", "version": __version__},
            "scenario_digest": report.scenario_digest, "description": report.description,
            "passed": report.passed, "checks": [check_dict(c) for c in report.checks]}
