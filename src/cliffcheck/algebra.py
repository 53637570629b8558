"""Pointwise Clifford algebra of the cotangent space.

The coefficient layout follows :mod:`cliffcheck.blades`: 16 reals indexed by
blade mask.  All metric-dependent products are driven by per-metric tables,
built by :func:`build_tables` for a stack of metrics at once and once per
:class:`PointMetric` as the stack of one:

* left multiplication by a single covector is the operator
  ``L[i] = C[i] + W[i]`` (interior + exterior part),
* left multiplication by a blade is obtained by peeling its lowest covector
  through ``gamma^M X = gamma^i (gamma^rest X) - (gamma^i _| gamma^rest) X``,
* left contraction by a blade composes single-covector interior products.

The products themselves (:func:`clifford_rows` and its siblings) act on
(..., 16) coefficient rows against tables with the same leading axes, one
metric per row: :class:`PointMetric`'s product methods are the case of one
row and no leading axis, and the algebra selftest runs them on a chunk of
metrics at once, so both run one implementation.

The metric handed to :class:`PointMetric` is the *cotangent* scalar product
(the matrix of products of the coordinate covectors); its inverse is the
tangent metric whose determinant fixes signature and volume normalization.
"""

from __future__ import annotations

import numpy as np

from . import blades
from .errors import DegenerateMetricError, SignatureError

_EYE16 = np.eye(blades.N_BLADES)


class Multivector:
    """Immutable element of the 16-dimensional algebra at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=float)
        if arr.shape != (blades.N_BLADES,):
            raise ValueError(f"expected 16 blade coefficients, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Multivector":
        return cls(np.zeros(blades.N_BLADES))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls(scalar_rows(value))

    @classmethod
    def covector(cls, i: int, coeff: float = 1.0) -> "Multivector":
        c = np.zeros(blades.N_BLADES)
        c[1 << i] = coeff
        return cls(c)

    @classmethod
    def blade(cls, idxs, coeff: float = 1.0) -> "Multivector":
        """Wedge of the listed covectors, e.g. ``blade((0, 1))`` = g0^g1."""
        idxs = tuple(idxs)
        if len(set(idxs)) != len(idxs):
            return cls.zero()
        c = np.zeros(blades.N_BLADES)
        c[blades.mask_of(idxs)] = coeff * blades.sort_parity(idxs)
        return cls(c)

    @classmethod
    def from_mask(cls, mask: int, coeff: float = 1.0) -> "Multivector":
        c = np.zeros(blades.N_BLADES)
        c[mask] = coeff
        return cls(c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(-self.coeffs)

    def __mul__(self, scale) -> "Multivector":
        return Multivector(self.coeffs * float(scale))

    __rmul__ = __mul__

    def __truediv__(self, scale) -> "Multivector":
        return Multivector(self.coeffs / float(scale))

    def __eq__(self, other) -> bool:
        return isinstance(other, Multivector) and bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    # -- structure ---------------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        return grade_project(self, k)

    def grades(self, tol: float = 0.0) -> frozenset:
        return frozenset(int(blades.GRADE[m]) for m in range(blades.N_BLADES)
                         if abs(self.coeffs[m]) > tol)

    def reverse(self) -> "Multivector":
        return Multivector(reverse_rows(self.coeffs))

    def involute(self) -> "Multivector":
        return Multivector(self.coeffs * blades.INVOLUTE_SIGN)

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def sup(self) -> float:
        """Sup norm over blade coefficients."""
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        terms = [
            f"{self.coeffs[m]:+.6g}*{blades.blade_name(m)}"
            for m in range(blades.N_BLADES)
            if self.coeffs[m] != 0.0
        ]
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; metric independent."""
    return Multivector(np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, blades.WEDGE_TENSOR))


def reverse(a: Multivector) -> Multivector:
    return a.reverse()


def grade_involution(a: Multivector) -> Multivector:
    return a.involute()


def grade_project(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= blades.DIM:
        raise ValueError(f"grade {k} out of range 0..4")
    return Multivector(grade_rows(a.coeffs, k))


def grade_rows(x: np.ndarray, k) -> np.ndarray:
    """Grade-``k`` part of each (..., 16) coefficient row; ``k`` one grade or one per row."""
    return np.where(blades.GRADE == np.expand_dims(k, -1), x, 0.0)


def reverse_rows(x: np.ndarray) -> np.ndarray:
    return x * blades.REVERSE_SIGN


def scalar_rows(values) -> np.ndarray:
    """Coefficient rows of the scalars ``values`` (one float gives one (16,) row)."""
    out = np.zeros(np.shape(values) + (blades.N_BLADES,))
    out[..., 0] = values
    return out


class PointMetric:
    """Nondegenerate symmetric cotangent metric at one point, with product tables.

    Parameters
    ----------
    g:
        4x4 symmetric matrix of covector scalar products (the inverse of the
        tangent metric), or a block of N of them, shape (N, 4, 4).
    require_lorentzian:
        When true (the default), reject metrics whose tangent determinant is
        not negative; property tests may relax this for random signatures.

    One metric raises at the first check it fails.  A block raises nothing:
    ``ok`` marks the metrics that pass every check, the others hold
    placeholder values, and every attribute has N first.  :meth:`lane` hands
    out one metric of a block, bitwise equal to that metric built alone, and
    the block's tables are built once, for all of its metrics.
    """

    __slots__ = ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian", "ok", "_tables", "_block")

    def __init__(self, g, require_lorentzian: bool = True, _ginv=None):
        g = np.array(g, dtype=float)
        if g.shape[-2:] != (4, 4) or g.ndim > 3:
            raise ValueError("metric must be 4x4")
        if g.ndim == 3:
            ok, g, ginv, det_tan = _check_block(g, _ginv, require_lorentzian)
            sqrt_abs_det = np.sqrt(np.abs(det_tan))
            sign_det = np.where(det_tan < 0.0, -1.0, 1.0)
        else:
            ok = True
            if not np.allclose(g, g.T, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(g)))):
                raise ValueError("metric must be symmetric")
            g = 0.5 * (g + g.T)
            det_cot = np.linalg.det(g)
            if abs(det_cot) < 1e-14:
                raise DegenerateMetricError(f"cotangent metric is singular (det={det_cot:.3e})")
            ginv = np.linalg.inv(g) if _ginv is None else np.array(_ginv, dtype=float)
            if np.max(np.abs(g @ ginv - np.eye(4))) > 1e-10:
                raise DegenerateMetricError("metric inverse failed the identity check")
            det_tan = np.linalg.det(ginv)
            if require_lorentzian and not det_tan < 0.0:
                raise SignatureError(f"tangent metric determinant {det_tan:.3e} is not negative")
            sqrt_abs_det = float(np.sqrt(abs(det_tan)))
            sign_det = -1.0 if det_tan < 0 else 1.0
        _set_slots(self, g=_readonly(g), ginv=_readonly(ginv), sqrt_abs_det=sqrt_abs_det,
                   sign_det=sign_det, lorentzian=det_tan < 0.0, ok=ok, _tables=None, _block=None)

    def __setattr__(self, name, value):
        raise AttributeError("PointMetric is immutable")

    @classmethod
    def from_tangent_metric(cls, g_lower, require_lorentzian: bool = True) -> "PointMetric":
        g_lower = np.array(g_lower, dtype=float)
        det = np.linalg.det(g_lower)
        if abs(det) < 1e-14:
            raise DegenerateMetricError(f"tangent metric is singular (det={det:.3e})")
        return cls(np.linalg.inv(g_lower), require_lorentzian=require_lorentzian, _ginv=g_lower)

    def lane(self, i: int) -> "PointMetric":
        """Metric ``i`` of a block, as one metric; its tables are lane ``i`` of the block's."""
        pm = object.__new__(PointMetric)
        _set_slots(pm, g=self.g[i], ginv=self.ginv[i], sqrt_abs_det=float(self.sqrt_abs_det[i]),
                   sign_det=float(self.sign_det[i]), lorentzian=self.lorentzian[i], ok=True,
                   _tables=None, _block=(self, i))
        return pm

    # -- tables ------------------------------------------------------------

    def _build_tables(self) -> dict:
        """The tables of this metric, or of every metric of a block (N first)."""
        one = self.g.ndim == 2
        if one:  # the stack of one
            stack = build_tables(self.g[np.newaxis], np.array([self.sqrt_abs_det]),
                                 np.array([self.sign_det]))
        else:
            stack = build_tables(self.g, self.sqrt_abs_det, self.sign_det)
        # left multiplication by the coordinate bivectors gamma^a ^ gamma^b
        stack["B2"] = stack["M"][:, blades.BIVECTOR_MASK] * blades.BIVECTOR_SIGN[:, :, np.newaxis, np.newaxis]
        return {key: value[0] for key, value in stack.items()} if one else stack

    @property
    def tables(self) -> dict:
        if self._tables is None:
            if self._block is None:
                tables = self._build_tables()
            else:
                block, i = self._block
                tables = {key: value[i] for key, value in block.tables.items()}
            object.__setattr__(self, "_tables", tables)
        return self._tables

    def contraction_ops(self) -> np.ndarray:
        """Stack of the four single-covector interior-product operators."""
        return self.tables["C"]

    def covector_left_ops(self) -> np.ndarray:
        """Stack of the four 'left multiply by gamma^i' operators."""
        return self.tables["L"]

    def bivector_left_ops(self) -> np.ndarray:
        """(4,4,16,16) stack: left Clifford multiplication by gamma^a ^ gamma^b."""
        return self.tables["B2"]

    # -- products ----------------------------------------------------------

    def clifford(self, a: Multivector, b: Multivector) -> Multivector:
        return Multivector(clifford_rows(self.tables, a.coeffs, b.coeffs))

    def left_contract(self, a: Multivector, b: Multivector) -> Multivector:
        return Multivector(left_contract_rows(self.tables, a.coeffs, b.coeffs))

    def right_contract(self, a: Multivector, b: Multivector) -> Multivector:
        return Multivector(right_contract_rows(self.tables, a.coeffs, b.coeffs))

    def scalar_product(self, a: Multivector, b: Multivector) -> float:
        return float(scalar_product_rows(self.tables, a.coeffs, b.coeffs))

    def hodge(self, a: Multivector) -> Multivector:
        return Multivector(hodge_rows(self.tables, a.coeffs))

    def hodge_inv(self, a: Multivector) -> Multivector:
        return Multivector(hodge_inv_rows(self.tables, a.coeffs))

    def volume_form(self) -> Multivector:
        """Unit volume 4-form in coordinate-ascending orientation."""
        return Multivector.from_mask(blades.FULL_MASK, self.sqrt_abs_det)


def build_tables(g, sqrt_abs_det, sign_det) -> dict:
    """Product tables of a stack of N cotangent metrics, N first on every table.

    ``g`` is (N, 4, 4); ``sqrt_abs_det`` and ``sign_det`` are (N,) and fix
    each metric's volume form as in :class:`PointMetric`.  The tables:

    * ``C``, ``L`` (N, 4, 16, 16): interior product by, and left Clifford
      multiplication by, the covector gamma^i;
    * ``M`` (N, 16, 16, 16): left Clifford multiplication by each blade;
    * ``K`` (N, 16, 16, 16): left contraction by each blade;
    * ``SP`` (N, 16, 16): scalar products between blades;
    * ``tau`` (N, 16): the unit volume form;
    * ``H`` (N, 16, 16): the Hodge star, ``star(A) = H @ A``, and
      ``Hinv_scale`` (N, 16): the per-blade signs of its inverse.

    Every operation acts on each metric separately (a stacked matmul is one
    product per metric), so table n is bitwise the table of metric n built
    alone; :meth:`PointMetric._build_tables` is the stack of one.
    """
    g = np.asarray(g, dtype=float)
    count = g.shape[0]
    n = blades.N_BLADES
    # single-covector interior products and left multiplications
    C = np.einsum("nij,jkl->nikl", g, blades.CONTRACT_STRUCT)
    L = C + blades.WEDGE_OP

    # blade left-multiplication operators by peeling the lowest covector,
    #   gamma^M X = gamma^i (gamma^rest X) - (gamma^i _| gamma^rest) X,
    # and left-contraction operators by composing interior products; one
    # grade at a time, since each grade reads only lower ones
    M = np.zeros((count, n, n, n))  # blades not yet built enter with weight 0
    K = np.zeros((count, n, n, n))
    M[:, 0] = K[:, 0] = _EYE16
    M[:, list(blades.MASKS_BY_GRADE[1])] = L
    K[:, list(blades.MASKS_BY_GRADE[1])] = C
    flat = M.reshape(count, 1, n, n * n)
    for masks, lowest, rest in blades.PEEL_STEPS:
        # coefficients of gamma^i _| gamma^rest, shape (N, blades of the grade, 1, 16)
        corr = C[:, lowest, :, rest].transpose(1, 0, 2)[:, :, np.newaxis, :]
        M[:, masks] = L[:, lowest] @ M[:, rest] - (corr @ flat).reshape(count, len(masks), n, n)
        K[:, masks] = C[:, lowest] @ K[:, rest]

    # Gram-determinant scalar products between equal-grade blades,
    # batched per grade for speed
    SP = np.zeros((count, n, n))
    SP[:, 0, 0] = 1.0
    for k in range(1, 5):
        amasks, bmasks, rows, cols = blades.GRAM_PAIRS[k]
        SP[:, amasks, bmasks] = np.linalg.det(g[:, rows, cols])

    tau = np.zeros((count, n))
    tau[:, blades.FULL_MASK] = sqrt_abs_det
    # Hodge matrix: star(A) = H @ A with H[:, m] = rev_sign(m) * (gamma^m _| tau)
    H = np.einsum("nikj,nj->nki", K, tau) * blades.REVERSE_SIGN
    inv_scale = np.multiply.outer(sign_det, (-1.0) ** (blades.GRADE * (4 - blades.GRADE)))
    return {"C": C, "L": L, "M": M, "K": K, "SP": SP, "tau": tau, "H": H, "Hinv_scale": inv_scale}


# -- products on coefficient rows, one metric's tables per row -----------------


def _bilinear(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the operator ``sum_m a[m] table[m]`` applied to ``b``."""
    n = blades.N_BLADES
    flat = table.reshape(table.shape[:-3] + (n, n * n))
    ops = (a[..., np.newaxis, :] @ flat).reshape(a.shape[:-1] + (n, n))
    return (ops @ b[..., np.newaxis])[..., 0]


def clifford_rows(tables: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _bilinear(tables["M"], a, b)


def left_contract_rows(tables: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _bilinear(tables["K"], a, b)


def right_contract_rows(tables: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # reversion swaps the contractions: (A |_ B)~ = B~ _| A~
    return reverse_rows(left_contract_rows(tables, reverse_rows(b), reverse_rows(a)))


def scalar_product_rows(tables: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a[..., np.newaxis, :] @ tables["SP"]) @ b[..., np.newaxis])[..., 0, 0]


def hodge_rows(tables: dict, a: np.ndarray) -> np.ndarray:
    return (tables["H"] @ a[..., np.newaxis])[..., 0]


def hodge_inv_rows(tables: dict, a: np.ndarray) -> np.ndarray:
    return hodge_rows(tables, a * tables["Hinv_scale"])


def _check_block(g: np.ndarray, ginv, require_lorentzian: bool) -> tuple:
    """:class:`PointMetric`'s checks on a block of N metrics, as one mask.

    Returns ``(ok, g, ginv, det_tan)``: the metrics that pass every check the
    one-metric constructor makes, with the same arithmetic (a metric with a
    non-finite entry counts as failing), and the block's symmetrized
    metrics, inverses and tangent determinants.  A metric that fails is
    replaced by the identity before inversion, so it cannot stop the others.
    """
    eye = np.eye(4)
    gt = g.transpose(0, 2, 1)
    atol = 1e-12 * np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    ok = np.isfinite(g).all(axis=(1, 2))
    ok &= np.all(np.abs(g - gt) <= atol[:, np.newaxis, np.newaxis], axis=(1, 2))
    g = 0.5 * (g + gt)
    ok &= np.abs(np.linalg.det(g)) >= 1e-14
    if ginv is None:
        ginv = np.linalg.inv(np.where(ok[:, np.newaxis, np.newaxis], g, eye))
    else:
        ginv = np.array(ginv, dtype=float)
    ok &= np.max(np.abs(g @ ginv - eye), axis=(1, 2)) <= 1e-10
    det_tan = np.linalg.det(ginv)
    if require_lorentzian:
        ok &= det_tan < 0.0
    return ok, g, ginv, det_tan


def _set_slots(obj, **values) -> None:
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr
