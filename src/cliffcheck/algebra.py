"""Pointwise Clifford algebra of the cotangent space.

The coefficient layout follows :mod:`cliffcheck.blades`: 16 reals indexed by
blade mask.  All metric-dependent products are driven by per-metric tables,
which a :class:`PointMetric` builds for its metric, or for its block of
metrics at once, each the first time it is read (:class:`_Tables` lists
them):

* left multiplication by a single covector is the operator
  ``L[i] = C[i] + W[i]`` (interior + exterior part),
* left multiplication by a blade is obtained by peeling its lowest covector
  through ``gamma^M X = gamma^i (gamma^rest X) - (gamma^i _| gamma^rest) X``,
* left contraction by a blade composes single-covector interior products.

A product reads its table at full shape, but the blade tables ``M``, ``K``
and ``SP`` are first filled only up to their low grades
(:data:`LOW_GRADES`: ``M`` to grade 2, ``K`` and ``SP`` to grade 1), the
blades above left exact zeros.  Every product ``verify`` makes has a left
factor of grade 2 at most, so it reads no more.  The rest is filled in
place, grade by grade, the first time a product's left factor has a
component above the low grade that is not exactly zero, when ``H`` is
built, or when :meth:`PointMetric.table` is called, which always returns
the complete table.  Each table is a new array, written only by the
:class:`PointMetric` that built it.

A multivector is a plain (..., 16) float row indexed by blade mask, one row
per point of a block; one point is the case without a leading axis.  The
products are :class:`PointMetric`'s methods and :func:`wedge`: each acts on
rows against tables with the same leading axes, one metric per row, so row i
is bitwise metric i alone.  A product's right operand may carry more leading
axes in front of those (for :meth:`PointMetric.right_contract` ``(a, b)``,
``a``, since its operator is formed from ``b``): the left factor's operator
is then formed once and applied to each operand of the stack, bitwise as to
that operand alone.  ``verify`` and the algebra selftest both call
them, so there is one implementation.  The module functions around them are
small helpers on rows: :func:`oneform`, :func:`scalars`, :func:`grades`,
:func:`sup`, :func:`reverse`, :func:`grade_project` and
:func:`linear_combination`.

The metric handed to :class:`PointMetric` is the *cotangent* scalar product
(the matrix of products of the coordinate covectors); its inverse is the
tangent metric whose determinant fixes signature and volume normalization.
"""

from __future__ import annotations

import numpy as np

from . import blades
from .errors import DegenerateMetricError, SignatureError, block_errors, point_errors

_EYE16 = np.eye(blades.N_BLADES)


class ReadOnly:
    """Base of a read-only object: assigning to an attribute raises ``AttributeError``.

    A subclass names its fields in ``__slots__`` and sets them once, in
    ``__init__``, with :meth:`_set`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)


def readonly(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place."""
    arr.flags.writeable = False
    return arr


def check_index(name: str, value, stop: int = blades.DIM) -> int:
    """``value`` when it is an integer in 0..stop-1, else a ValueError that names ``name`` and ``value``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value < stop:
        return value
    raise ValueError(f"{name} must be an integer in 0..{stop - 1}, got {value!r}")


def oneform(components) -> np.ndarray:
    """The row of the 1-form ``sum components[nu] gamma^nu``; (N, 4) components give (N, 16) rows."""
    components = np.asarray(components, dtype=float)
    out = np.zeros(components.shape[:-1] + (blades.N_BLADES,))
    out[..., blades.COVECTOR_MASKS] = components
    return out


def scalars(values) -> np.ndarray:
    """The rows of the scalars ``values`` (one float gives one (16,) row)."""
    out = np.zeros(np.shape(values) + (blades.N_BLADES,))
    out[..., 0] = values
    return out


def grades(x: np.ndarray) -> frozenset:
    """Grades with a non-zero coefficient in any of the (..., 16) rows ``x``; a NaN one adds none."""
    present = (np.abs(x) > 0.0).reshape(-1, blades.N_BLADES).any(axis=0)
    return frozenset(int(blades.GRADE[m]) for m in range(blades.N_BLADES) if present[m])


def sup(x: np.ndarray):
    """Sup norm over the blade coefficients of each (..., 16) row."""
    return np.abs(x).max(axis=-1)


def reverse(x: np.ndarray) -> np.ndarray:
    return x * blades.REVERSE_SIGN


def linear_combination(weights, terms) -> np.ndarray:
    """``sum_k weights[..., k] * terms[k]`` of (..., 16) rows, added from zero in order of k, which fixes its bits."""
    weights = np.asarray(weights)
    out = np.zeros(blades.N_BLADES)
    for k, term in enumerate(terms):
        out = out + weights[..., k, np.newaxis] * term
    return out


_WEDGE_ROWS = blades.WEDGE_TENSOR.reshape(-1, blades.N_BLADES)  # row a * 16 + b: blade a ^ blade b


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exterior product of each pair of (..., 16) rows; metric independent, it reads no table."""
    pairs = a[..., :, np.newaxis] * b[..., np.newaxis, :]
    return pairs.reshape(pairs.shape[:-2] + (-1,)) @ _WEDGE_ROWS


GRADE_MASKS = readonly(blades.GRADE == np.arange(blades.DIM + 1)[:, np.newaxis])  # row k: the blades of grade k


def grade_project(x: np.ndarray, k) -> np.ndarray:
    """Grade-``k`` part of each (..., 16) row; ``k`` one grade, or one per row."""
    grade = np.asarray(k)
    if not grade.ndim:
        grade = check_index("grade k", k, blades.DIM + 1)
    elif grade.dtype.kind not in "iu" or ((grade < 0) | (grade > blades.DIM)).any():
        raise ValueError(f"grade k must be an integer in 0..{blades.DIM}, got {k!r}")
    return np.where(GRADE_MASKS[grade], x, 0.0)


def _unit_volume(sqrt_abs_det) -> np.ndarray:
    """The unit volume form sqrt|det| gamma^0123 of each metric: a row per value of ``sqrt_abs_det``."""
    tau = np.zeros(np.shape(sqrt_abs_det) + (blades.N_BLADES,))
    tau[..., blades.FULL_MASK] = sqrt_abs_det
    return tau


class PointMetric(ReadOnly):
    """Nondegenerate symmetric cotangent metric at one point, with product tables.

    Parameters
    ----------
    g:
        4x4 symmetric matrix of covector scalar products (the inverse of the
        tangent metric), or a block of N of them, shape (N, 4, 4).
    require_lorentzian:
        When true (the default), reject metrics whose tangent determinant is
        not negative; property tests may relax this for random signatures.

    The checks, in order: symmetry, a nonsingular cotangent metric with a
    finite determinant and (optionally) Lorentzian signature.  One metric
    raises the error of the first check it fails.  A block, the same
    code with N first on every attribute, raises nothing: ``errors`` maps
    each metric that fails to that error, and every other metric is bitwise
    that metric alone.  Each table is built the first time it is read,
    once for all the block's metrics: :meth:`table` always gives the
    complete table, and a product the table filled as far as its left
    factor reaches (see :data:`LOW_GRADES`).  The product methods take
    (..., 16) rows, one per metric of a block, and give one result per
    metric, each bitwise that metric's alone.
    """

    __slots__ = ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian", "errors", "_tables")

    def __init__(self, g, require_lorentzian: bool = True, _ginv=None):
        g = np.array(g, dtype=float)
        if g.shape[-2:] != (4, 4) or g.ndim > 3:
            raise ValueError("metric must be 4x4")
        eye = np.eye(4)
        gt = np.swapaxes(g, -1, -2)
        atol = 1e-12 * np.fmax(1.0, np.max(np.abs(g), axis=(-2, -1)))[..., np.newaxis, np.newaxis]
        # np.isclose with rtol 0: an infinite entry is close only to itself
        with np.errstate(invalid="ignore", over="ignore"):  # the checks judge non-finite values
            symmetric = ((np.abs(g - gt) <= atol) & np.isfinite(gt) | (g == gt)).all(axis=(-2, -1))
            g = 0.5 * (g + gt)
            det_cot = np.linalg.det(g)
        fails = [~symmetric, near_singular(g, det_cot)]
        if _ginv is None:  # a metric already rejected is not inverted
            ginv = np.linalg.inv(np.where((fails[0] | fails[1])[..., np.newaxis, np.newaxis], eye, g))
        else:
            ginv = np.array(_ginv, dtype=float)
        det_tan = np.linalg.det(ginv)
        if require_lorentzian:
            fails.append(~(det_tan < 0.0))
        errors = point_errors(fails, lambda k, check: _metric_error(check, det_cot.flat[k], det_tan.flat[k]))
        sqrt_abs_det = np.sqrt(np.abs(det_tan))
        sign_det = np.where(det_tan < 0.0, -1.0, 1.0)
        if g.ndim == 2:
            sqrt_abs_det, sign_det = float(sqrt_abs_det), float(sign_det)
        # one metric's tables are the stack of one
        self._set(g=readonly(g), ginv=readonly(ginv), sqrt_abs_det=sqrt_abs_det, sign_det=sign_det,
                  lorentzian=det_tan < 0.0, errors=errors,
                  _tables=_Tables(g.reshape(-1, 4, 4), np.reshape(sqrt_abs_det, -1), np.reshape(sign_det, -1)))

    def block(self, start: int, stop: int) -> "PointMetric":
        """Metrics ``start:stop`` of this block, not checked again.

        Its attributes are read-only views of this block's, ``errors`` are
        those metrics' numbered from 0, and its tables are built for them
        alone when read, as for those metrics' own block.
        """
        out = object.__new__(PointMetric)
        views = {name: readonly(getattr(self, name)[start:stop])
                 for name in ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian")}
        out._set(**views, errors=block_errors(self.errors, start, stop),
                 _tables=_Tables(views["g"], views["sqrt_abs_det"], views["sign_det"]))
        return out

    # -- tables ------------------------------------------------------------

    def _build_tables(self, key: str, low: bool = False) -> np.ndarray:
        """Build table ``key``, and the tables it needs, for this metric or its block.

        :meth:`_read` calls it when ``key`` is read and not built yet, or
        built only to its low grade and read whole.  With ``low`` it
        fills a table of :data:`LOW_GRADES` only up to its low grade.  It
        returns the table with N first, the stack of one for one metric.
        """
        return self._tables.build_low(key) if low else self._tables[key]

    def _read(self, key: str, factor: np.ndarray | None = None) -> np.ndarray:
        """Table ``key``, N first for a block: complete, or for a product with left factor ``factor``
        filled only as far as it needs.

        A table of :data:`LOW_GRADES` that is not complete yet is read at
        its low grade unless a component of ``factor`` above that grade is
        not exactly zero (a NaN one counts), which fills the rest.
        """
        tables = self._tables
        if key in tables:
            table = tables[key]
        elif factor is not None and not np.count_nonzero(factor[..., _ABOVE_LOW[key]]):  # counts each != 0.0
            table = tables.low[key] if key in tables.low else self._build_tables(key, low=True)
        else:
            table = self._build_tables(key)
        return table[0] if self.g.ndim == 2 else table

    def table(self, key: str) -> np.ndarray:
        """The complete product table ``key`` of :class:`_Tables`, built if it is not yet; N first for a block."""
        return self._read(key)

    # -- products ----------------------------------------------------------

    def clifford(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _bilinear(self._read("M", a), a, b)

    def left_contract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _bilinear(self._read("K", a), a, b)

    def right_contract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # reversion swaps the contractions: (A |_ B)~ = B~ _| A~
        left = reverse(b)
        return reverse(_bilinear(self._read("K", left), left, reverse(a)))

    def scalar_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One value per pair of rows: a 0-d array for one metric."""
        return ((a[..., np.newaxis, :] @ self._read("SP", a)) @ b[..., np.newaxis])[..., 0, 0]

    def hodge(self, a: np.ndarray) -> np.ndarray:
        return _apply(self.table("H"), a)

    def hodge_inv(self, a: np.ndarray) -> np.ndarray:
        scaled = a * self.table("Hinv_scale")
        return _apply(self.table("H"), scaled)

    def volume_form(self) -> np.ndarray:
        """Unit volume 4-form in coordinate-ascending orientation: a row per metric."""
        return _unit_volume(self.sqrt_abs_det)


class _Tables(dict):
    """Product tables of a stack of N cotangent metrics, N first on every table.

    ``g`` is (N, 4, 4); ``sqrt_abs_det`` and ``sign_det`` are (N,) and fix
    each metric's volume form as in :class:`PointMetric`.  Each table is a
    new array that only this object writes.  The tables, by name
    (:data:`TABLE_NAMES`):

    * ``C``, ``L`` (N, 4, 16, 16): interior product by, and left Clifford
      multiplication by, the covector gamma^i;
    * ``G2`` (N, 6, 16, 16): left Clifford multiplication by the grade-2
      blades, in mask order, which ``M`` and the Ricci operator of
      :class:`~cliffcheck.diffops.FieldCalculus` read;
    * ``M`` (N, 16, 16, 16): left Clifford multiplication by each blade;
    * ``K`` (N, 16, 16, 16): left contraction by each blade;
    * ``SP`` (N, 16, 16): scalar products between blades;
    * ``tau`` (N, 16): the unit volume form;
    * ``H`` (N, 16, 16): the Hodge star, ``star(A) = H @ A``, and
      ``Hinv_scale`` (N, 16): the per-blade signs of its inverse.

    The dict starts empty and builds a table the first time it is read,
    together with the tables it needs, so its keys are the complete tables
    built so far; nothing is built twice.  ``M``, ``K`` and ``SP`` may
    first be built only up to their grade in :data:`LOW_GRADES` (``M`` to
    2, ``K`` and ``SP`` to 1; :meth:`build_low`), which is all ``verify``
    reads.  ``low`` holds them so until a read of the complete table fills
    the rest in place (:data:`_FILLS`) and moves them into the dict: a
    product whose left factor reaches above the low grade, the build of
    ``H``, which reads the complete ``K``, or :meth:`PointMetric.table`,
    which always returns the complete table.  Every operation acts on
    each metric separately (a stacked matmul is one product per metric),
    so table n is bitwise the table of metric n built alone.
    """

    __slots__ = ("g", "sqrt_abs_det", "sign_det", "low")

    def __init__(self, g, sqrt_abs_det, sign_det):
        super().__init__()
        self.g = np.asarray(g, dtype=float)
        self.sqrt_abs_det, self.sign_det = sqrt_abs_det, sign_det
        self.low = {}

    def __missing__(self, key):
        table = self.low.pop(key) if key in self.low else _BUILDERS[key](self)  # an unknown key raises KeyError
        if key in _FILLS:
            table = _FILLS[key](self, table)
        self[key] = table
        return table

    def build_low(self, key: str) -> np.ndarray:
        """Table ``key`` of :data:`LOW_GRADES` filled up to its low grade, the blades above exact zeros."""
        table = self.low[key] = _BUILDERS[key](self)
        return table


# Blade left-multiplication operators come from peeling the lowest covector,
#   gamma^M X = gamma^i (gamma^rest X) - (gamma^i _| gamma^rest) X,
# and left-contraction operators from composing interior products; one grade
# at a time, since each grade reads only lower ones.  The grade-2 step (G2) is
# all that the Ricci operator needs, and M continues from it.  M, K and SP are
# built up to their grade in LOW_GRADES, and their fill step (_FILLS) adds the
# grades above in place, with the operations a build of every grade at once
# would make.

# the grade-2 blades, in mask order, are gamma^i ^ gamma^j for (i, j) in zip(G2_LOWEST, G2_COVECTOR)
_G2_MASKS, G2_LOWEST, _G2_REST = blades.PEEL_STEPS[0]
G2_COVECTOR = np.searchsorted(blades.COVECTOR_MASKS, _G2_REST)  # the j of rest = gamma^j
_DIAG = np.arange(blades.N_BLADES)
_COVECTORS = list(blades.MASKS_BY_GRADE[1])
# per grade >= 2, its peel step and its blades as (mask, lowest covector, mask of the rest)
_PEEL_BLADES = [(step, list(zip(*(column.tolist() for column in step)))) for step in blades.PEEL_STEPS]

# the grade each blade table is built up to until a read needs the rest: every
# left factor of verify's products has grade 2 at most, and every left factor of
# its contractions and scalar products grade 1
LOW_GRADES = {"M": 2, "K": 1, "SP": 1}
_ABOVE_LOW = {key: np.flatnonzero(blades.GRADE > grade) for key, grade in LOW_GRADES.items()}  # blade masks


def _grade2(t: _Tables) -> np.ndarray:
    """G2: left multiplication by the grade-2 blades, in mask order."""
    C, L = t["C"], t["L"]
    grade2 = np.empty((C.shape[0], len(G2_LOWEST), blades.N_BLADES, blades.N_BLADES))
    # gamma^i ^ gamma^j = gamma^i gamma^j - gamma^i _| gamma^j, a multiple of the unit;
    # one product per blade, so no gathered copy of L is made
    for k, (i, j) in enumerate(zip(G2_LOWEST, G2_COVECTOR)):
        np.matmul(L[:, i], L[:, j], out=grade2[:, k])
    grade2[..., _DIAG, _DIAG] -= C[:, G2_LOWEST, 0, _G2_REST][..., np.newaxis]
    return grade2


def _blade_left(t: _Tables) -> np.ndarray:
    """M up to grade 2: the unit, L and G2, with no peel."""
    M = np.empty((len(t.g),) + (blades.N_BLADES,) * 3)
    M[:, _ABOVE_LOW["M"]] = 0.0  # blades not yet built enter the peel, and a product, with weight 0
    M[:, 0] = _EYE16
    M[:, _COVECTORS] = t["L"]
    M[:, _G2_MASKS] = t["G2"]
    return M


def _fill_blade_left(t: _Tables, M: np.ndarray) -> np.ndarray:
    """M's grades 3 and 4, peeled in place."""
    C, L = t["C"], t["L"]
    count, n = C.shape[0], blades.N_BLADES
    flat = M.reshape(count, 1, n, n * n)
    for (masks, lowest, rest), grade in _PEEL_BLADES[1:]:
        # coefficients of gamma^i _| gamma^rest, shape (N, blades of the grade, 1, 16)
        corr = C[:, lowest, :, rest].transpose(1, 0, 2)[:, :, np.newaxis, :]
        fix = (corr @ flat).reshape(count, len(masks), n, n)  # before any blade of the grade is set
        for b, (m, i, r) in enumerate(grade):  # one product per blade, written in place
            np.matmul(L[:, i], M[:, r], out=M[:, m])
            M[:, m] -= fix[:, b]
    return M


def _blade_contract(t: _Tables) -> np.ndarray:
    """K up to grade 1: the unit and C."""
    K = np.empty((len(t.g),) + (blades.N_BLADES,) * 3)
    K[:, 0] = _EYE16
    K[:, _COVECTORS] = t["C"]
    K[:, _ABOVE_LOW["K"]] = 0.0
    return K


def _fill_blade_contract(t: _Tables, K: np.ndarray) -> np.ndarray:
    """K's grades 2 to 4, composed in place."""
    C = t["C"]
    for _, grade in _PEEL_BLADES:
        for m, i, r in grade:  # one product per blade, written in place
            np.matmul(C[:, i], K[:, r], out=K[:, m])
    return K


def _gram_blocks(t: _Tables, SP: np.ndarray, grades) -> np.ndarray:
    # Gram-determinant scalar products between equal-grade blades,
    # batched per grade for speed
    for k in grades:
        amasks, bmasks, rows, cols = blades.GRAM_PAIRS[k]
        SP[:, amasks, bmasks] = np.linalg.det(t.g[:, rows, cols])
    return SP


def _scalar_products(t: _Tables) -> np.ndarray:
    """SP up to grade 1."""
    SP = np.zeros((t.g.shape[0], blades.N_BLADES, blades.N_BLADES))
    SP[:, 0, 0] = 1.0
    return _gram_blocks(t, SP, [1])


def _hodge(t: _Tables) -> np.ndarray:
    # star(A) = H @ A with H[:, m] = rev_sign(m) * (gamma^m _| tau).  tau's one
    # non-zero component is sqrt|det| on the pseudoscalar, so each sum of
    # gamma^m _| tau = sum_j K[:, m, :, j] tau[j] has one term that is not an
    # exact zero: K's pseudoscalar column times sqrt|det|, gathered.  A sum from
    # +0.0 turns a -0.0 term into +0.0, and so does adding it to 0.0 first.  H
    # keeps the einsum's memory layout, (N, m, k) in memory read as (N, k, m),
    # since a product with H sums in an order that depends on the layout
    column = 0.0 + t["K"][..., blades.FULL_MASK] * t.sqrt_abs_det[:, np.newaxis, np.newaxis]
    return column.transpose(0, 2, 1) * blades.REVERSE_SIGN


def _hodge_inv_scale(t: _Tables) -> np.ndarray:
    return np.multiply.outer(t.sign_det, (-1.0) ** (blades.GRADE * (4 - blades.GRADE)))


# each table's build, up to its low grade for a table of LOW_GRADES
_BUILDERS = {
    "C": lambda t: np.einsum("nij,jkl->nikl", t.g, blades.CONTRACT_STRUCT),
    "L": lambda t: t["C"] + blades.WEDGE_OP,
    "G2": _grade2,
    "M": _blade_left,
    "K": _blade_contract,
    "SP": _scalar_products,
    "tau": lambda t: _unit_volume(t.sqrt_abs_det),
    "H": _hodge,
    "Hinv_scale": _hodge_inv_scale,
}
TABLE_NAMES = tuple(_BUILDERS)  # every key PointMetric.table takes
# the fill step of each table of LOW_GRADES: its grades above the low one, in place
_FILLS = {
    "M": _fill_blade_left,
    "K": _fill_blade_contract,
    "SP": lambda t, SP: _gram_blocks(t, SP, [2, 3, 4]),
}


# -- the products on (..., 16) rows, against tables with the same leading axes ------


def _bilinear(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the operator ``sum_m a[m] table[m]`` applied to ``b``; ``b`` may carry
    leading axes in front of ``a``'s, and the operators are formed once for all of them."""
    n = blades.N_BLADES
    flat = table.reshape(table.shape[:-3] + (n, n * n))
    ops = (a[..., np.newaxis, :] @ flat).reshape(a.shape[:-1] + (n, n))
    return (ops @ b[..., np.newaxis])[..., 0]


def _apply(table: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per row, the (16, 16) operator ``table`` applied to ``a``."""
    return (table @ a[..., np.newaxis])[..., 0]


def near_singular(m: np.ndarray, det) -> np.ndarray:
    """Whether ``det``, the determinant of the 4x4 matrix ``m`` (or of each of a block), is
    not finite or is at most 1e-14 times Hadamard's bound on it, the product of the rows' 2-norms.

    The floor scales with ``m``: a metric and any multiple of it are singular alike.
    """
    with np.errstate(over="ignore"):
        bound = np.hypot.reduce(m, axis=-1).prod(axis=-1)  # hypot: a row of 1e200 has a finite norm
    return ~np.isfinite(det) | (np.abs(det) <= 1e-14 * bound)


def _metric_error(check: int, det_cot: float, det_tan: float) -> Exception:
    """The error of a metric that fails :class:`PointMetric`'s ``check``.

    The checks, in order: 0 symmetry, 1 a nonsingular cotangent metric
    with a finite determinant (``det_cot``; an infinite or NaN one is called
    singular, as ``geometry.metric_at`` does), 2 Lorentzian signature
    (``det_tan``).
    """
    if check == 0:
        return ValueError("metric must be symmetric")
    if check == 1:
        return DegenerateMetricError(f"cotangent metric is singular (det={det_cot:.3e})")
    return SignatureError(f"tangent metric determinant {det_tan:.3e} is not negative")

