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

A :class:`TableStore` lends the memory of the largest tables to one block
metric after another, as the algebra selftest's blocks use it.

The products themselves (:func:`clifford_rows` and its siblings) act on
(..., 16) coefficient rows against tables with the same leading axes, one
metric per row: :class:`PointMetric`'s product methods are the case of one
row and no leading axis, and the algebra selftest runs them on the tables of
a block :class:`PointMetric`, so both run one implementation.

The metric handed to :class:`PointMetric` is the *cotangent* scalar product
(the matrix of products of the coordinate covectors); its inverse is the
tangent metric whose determinant fixes signature and volume normalization.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping

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


class Multivector(ReadOnly):
    """Immutable element of the 16-dimensional algebra at a point, or at a block of points.

    ``coeffs`` is (16,) at one point.  Over a block of N points it is (N, 16),
    one row per point, as the block's :class:`PointMetric` and the operators
    of :class:`~cliffcheck.diffops.FieldCalculus` give it: the arithmetic,
    the products and the projections act on each row alone, so row i is
    bitwise the point alone.  Scalars such as :meth:`sup`, :attr:`scalar_part`
    or a scale factor are then one value per point, shape (N,).  One point
    is the case without N, whose code and results do not depend on blocks.
    """

    __slots__ = ("coeffs",)
    __array_ufunc__ = None  # ``lanes * mv`` is mv.__rmul__, not an object array

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=float)
        if arr.shape[-1:] != (blades.N_BLADES,):
            raise ValueError(f"expected 16 blade coefficients, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Multivector":
        return cls(np.zeros(blades.N_BLADES))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls(scalar_rows(value))

    @classmethod
    def covector(cls, i: int) -> "Multivector":
        return cls.from_mask(1 << i)

    @classmethod
    def oneform(cls, components) -> "Multivector":
        """The 1-form ``sum components[nu] gamma^nu``; (N, 4) components give a block."""
        components = np.asarray(components, dtype=float)
        c = np.zeros(components.shape[:-1] + (blades.N_BLADES,))
        c[..., blades.COVECTOR_MASKS] = components
        return cls(c)

    @classmethod
    def blade(cls, idxs) -> "Multivector":
        """Wedge of the listed covectors, e.g. ``blade((0, 1))`` = g0^g1."""
        idxs = tuple(idxs)
        if len(set(idxs)) != len(idxs):
            return cls.zero()
        c = np.zeros(blades.N_BLADES)
        c[blades.mask_of(idxs)] = blades.sort_parity(idxs)
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
        return Multivector(self.coeffs * _per_row(scale))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Multivector) and bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    # -- structure ---------------------------------------------------------

    def grades(self) -> frozenset:
        """Grades with a non-zero coefficient, at any point of a block; a NaN one adds none."""
        present = (np.abs(self.coeffs) > 0.0).reshape(-1, blades.N_BLADES).any(axis=0)
        return frozenset(int(blades.GRADE[m]) for m in range(blades.N_BLADES) if present[m])

    def reverse(self) -> "Multivector":
        return Multivector(reverse_rows(self.coeffs))

    def involute(self) -> "Multivector":
        return Multivector(self.coeffs * blades.INVOLUTE_SIGN)

    def oneform_components(self) -> np.ndarray:
        """The covector coefficients, in coordinate order: (4,), or (N, 4) for a block."""
        return self.coeffs[..., blades.COVECTOR_MASKS]

    @property
    def scalar_part(self):
        """The scalar coefficient: a float, or one per point of a block."""
        return float(self.coeffs[0]) if self.coeffs.ndim == 1 else self.coeffs[..., 0]

    def sup(self):
        """Sup norm over blade coefficients: a float, or one per point of a block."""
        if self.coeffs.ndim == 1:
            return float(np.max(np.abs(self.coeffs)))
        return np.max(np.abs(self.coeffs), axis=-1)

    def __repr__(self):
        if self.coeffs.ndim > 1:
            return f"Multivector(block of shape {self.coeffs.shape[:-1]})"
        terms = [
            f"{self.coeffs[m]:+.6g}*{blades.blade_name(m)}"
            for m in range(blades.N_BLADES)
            if self.coeffs[m] != 0.0
        ]
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def _per_row(scale):
    """A scale factor: one float, or an array of one value per row of a block."""
    if isinstance(scale, np.ndarray) and scale.ndim:
        return scale[..., np.newaxis]
    return float(scale)


def linear_combination(weights, terms) -> Multivector:
    """``sum_k weights[..., k] * terms[k]``, added from zero in order of k, which fixes its bits."""
    out = Multivector.zero()
    for k, term in enumerate(terms):
        out = out + weights[..., k] * term
    return out


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; metric independent."""
    return Multivector(wedge_rows(a.coeffs, b.coeffs))


def grade_project(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= blades.DIM:
        raise ValueError(f"grade {k} out of range 0..4")
    return Multivector(grade_rows(a.coeffs, k))


def grade_rows(x: np.ndarray, k) -> np.ndarray:
    """Grade-``k`` part of each (..., 16) coefficient row; ``k`` one grade or one per row."""
    return np.where(blades.GRADE == np.asarray(k)[..., np.newaxis], x, 0.0)


def reverse_rows(x: np.ndarray) -> np.ndarray:
    return x * blades.REVERSE_SIGN


def scalar_rows(values) -> np.ndarray:
    """Coefficient rows of the scalars ``values`` (one float gives one (16,) row)."""
    out = np.zeros(np.shape(values) + (blades.N_BLADES,))
    out[..., 0] = values
    return out


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
    that metric alone.  Each table (:attr:`tables`) is built the first time
    it is read, once for all the block's metrics.  The product methods of a
    block take block :class:`Multivector` operands, one row per metric, and
    give one result per metric, each bitwise that metric's alone.

    ``_store``, a :class:`TableStore`, lends this metric the memory its
    largest tables are built in, until a later metric takes the store.
    """

    __slots__ = ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian", "errors", "_tables", "_store",
                 "__weakref__")

    def __init__(self, g, require_lorentzian: bool = True, _ginv=None, _store=None):
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
        self._set(g=_readonly(g), ginv=_readonly(ginv), sqrt_abs_det=sqrt_abs_det, sign_det=sign_det,
                  lorentzian=det_tan < 0.0, errors=errors, _tables={}, _store=_store)
        if _store is not None:
            _store._lend(self)

    def block(self, start: int, stop: int) -> "PointMetric":
        """Metrics ``start:stop`` of this block, not checked again.

        Its attributes are read-only views of this block's, ``errors`` are
        those metrics' numbered from 0, and its tables are built for them
        alone when read, as for those metrics' own block.
        """
        out = object.__new__(PointMetric)
        out._set(**{name: readonly_rows(getattr(self, name), start, stop)
                    for name in ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian")},
                 errors=block_errors(self.errors, start, stop), _tables={}, _store=None)
        return out

    # -- tables ------------------------------------------------------------

    def _build_tables(self, key: str) -> np.ndarray:
        """Build table ``key``, and the tables it needs, for this metric or its block.

        :attr:`tables` calls it when ``key`` is read and not built yet; it
        returns the table with N first, the stack of one for one metric.
        """
        if not self._tables:  # the first table read: one metric's are the stack of one
            object.__setattr__(self, "_tables", _Tables(
                self.g.reshape(-1, 4, 4), np.reshape(self.sqrt_abs_det, -1), np.reshape(self.sign_det, -1),
                self._store))
        return self._tables[key]

    def _drop_tables(self) -> None:
        """Forget the tables, and the store they were built in: a later read builds fresh ones."""
        self._set(_tables={}, _store=None)

    @property
    def tables(self) -> Mapping:
        """The product tables of :class:`_Tables` by name, N first for a block.

        Each table is built the first time it is read; iterating gives the
        tables built so far.
        """
        return _MetricTables(self)

    # -- products ----------------------------------------------------------

    def clifford(self, a: Multivector, b: Multivector) -> Multivector:
        return Multivector(clifford_rows(self.tables, a.coeffs, b.coeffs))

    def left_contract(self, a: Multivector, b: Multivector) -> Multivector:
        return Multivector(left_contract_rows(self.tables, a.coeffs, b.coeffs))

    def right_contract(self, a: Multivector, b: Multivector) -> Multivector:
        return Multivector(right_contract_rows(self.tables, a.coeffs, b.coeffs))

    def scalar_product(self, a: Multivector, b: Multivector):
        """A float for one metric; one per metric of a block."""
        out = scalar_product_rows(self.tables, a.coeffs, b.coeffs)
        return float(out) if out.ndim == 0 else out

    def hodge(self, a: Multivector) -> Multivector:
        return Multivector(hodge_rows(self.tables, a.coeffs))

    def hodge_inv(self, a: Multivector) -> Multivector:
        return Multivector(hodge_inv_rows(self.tables, a.coeffs))

    def volume_form(self) -> Multivector:
        """Unit volume 4-form in coordinate-ascending orientation."""
        return Multivector.from_mask(blades.FULL_MASK, self.sqrt_abs_det)


class _MetricTables(Mapping):
    """:attr:`PointMetric.tables`: a miss goes to ``PointMetric._build_tables``.

    A new view per read of the attribute: it holds the metric and the metric
    holds only the tables, so no reference cycle keeps a block's tables alive.
    """

    __slots__ = ("_metric",)

    def __init__(self, metric: PointMetric):
        self._metric = metric

    def __getitem__(self, key: str) -> np.ndarray:
        metric = self._metric
        table = metric._tables[key] if key in metric._tables else metric._build_tables(key)
        return table[0] if metric.g.ndim == 2 else table

    def __contains__(self, key) -> bool:
        return key in self._metric._tables

    def __iter__(self):
        return iter(self._metric._tables)

    def __len__(self) -> int:
        return len(self._metric._tables)


class TableStore:
    """Memory for the largest product tables, which one block :class:`PointMetric` at a time borrows.

    A suite that checks block after block of metrics passes its store to
    each block's metric (``PointMetric(g, _store=store)``), and each builds
    its ``M`` and ``K`` (see :data:`STORED_TABLES`) into the store's arrays,
    a block of n metrics into their leading n rows, instead of into new
    ones.  Taking the store makes the metric that held it drop its tables,
    so that metric never reads another block's numbers: a later read of
    its tables builds them again, into new arrays.  An array read from a
    metric's tables holds its values only while that metric holds the store.
    """

    __slots__ = ("_arrays", "_owner")

    def __init__(self):
        self._arrays = {}
        self._owner = None  # a weak reference to the metric that holds the store: it does not keep it alive

    def _lend(self, metric: PointMetric) -> None:
        owner = self._owner and self._owner()
        if owner is not None:
            owner._drop_tables()
        self._owner = weakref.ref(metric)

    def _rows(self, key: str, shape: tuple) -> np.ndarray:
        """The leading ``shape[0]`` rows of table ``key``'s array, grown to hold them if need be."""
        arr = self._arrays.get(key)
        if arr is None or len(arr) < shape[0]:
            arr = self._arrays[key] = np.empty(shape)
        return arr[:shape[0]]


class _Tables(dict):
    """Product tables of a stack of N cotangent metrics, N first on every table.

    ``g`` is (N, 4, 4); ``sqrt_abs_det`` and ``sign_det`` are (N,) and fix
    each metric's volume form as in :class:`PointMetric`.  ``store``, a
    :class:`TableStore` or None, holds the memory of the tables in
    :data:`STORED_TABLES`; without one they are new arrays.  The tables, by
    name (:data:`TABLE_NAMES`):

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
    together with the tables it needs, so its keys are the tables built so
    far; nothing is built twice.  Every operation acts on each metric
    separately (a stacked matmul is one product per metric), so table n is
    bitwise the table of metric n built alone.
    """

    __slots__ = ("g", "sqrt_abs_det", "sign_det", "store")

    def __init__(self, g, sqrt_abs_det, sign_det, store=None):
        super().__init__()
        self.g = np.asarray(g, dtype=float)
        self.sqrt_abs_det, self.sign_det, self.store = sqrt_abs_det, sign_det, store

    def __missing__(self, key):
        table = self[key] = _BUILDERS[key](self)  # an unknown key raises KeyError here
        return table

    def empty(self, key: str) -> np.ndarray:
        """Memory for table ``key`` of :data:`STORED_TABLES`, its values not set."""
        shape = (len(self.g),) + STORED_TABLES[key]
        return np.empty(shape) if self.store is None else self.store._rows(key, shape)


# Blade left-multiplication operators come from peeling the lowest covector,
#   gamma^M X = gamma^i (gamma^rest X) - (gamma^i _| gamma^rest) X,
# and left-contraction operators from composing interior products; one grade
# at a time, since each grade reads only lower ones.  The grade-2 step (G2) is
# all that the Ricci operator needs, and M continues from it.

_G2_MASKS, _G2_LOWEST, _G2_REST = blades.PEEL_STEPS[0]
_G2_COVECTOR = np.searchsorted(blades.COVECTOR_MASKS, _G2_REST)  # the j of rest = gamma^j
_DIAG = np.arange(blades.N_BLADES)
_COVECTORS = list(blades.MASKS_BY_GRADE[1])
_ABOVE_GRADE2 = [m for k in (3, 4) for m in blades.MASKS_BY_GRADE[k]]
# per grade >= 2, its peel step and its blades as (mask, lowest covector, mask of the rest)
_PEEL_BLADES = [(step, list(zip(*(column.tolist() for column in step)))) for step in blades.PEEL_STEPS]

# the (N-less) shape of each table a TableStore holds
STORED_TABLES = {"M": (blades.N_BLADES,) * 3, "K": (blades.N_BLADES,) * 3}


def _grade2(t: _Tables) -> np.ndarray:
    """G2: left multiplication by the grade-2 blades, in mask order."""
    C, L = t["C"], t["L"]
    grade2 = np.empty((C.shape[0], len(_G2_LOWEST), blades.N_BLADES, blades.N_BLADES))
    # gamma^i ^ gamma^j = gamma^i gamma^j - gamma^i _| gamma^j, a multiple of the unit;
    # one product per blade, so no gathered copy of L is made
    for k, (i, j) in enumerate(zip(_G2_LOWEST, _G2_COVECTOR)):
        np.matmul(L[:, i], L[:, j], out=grade2[:, k])
    grade2[..., _DIAG, _DIAG] -= C[:, _G2_LOWEST, 0, _G2_REST][..., np.newaxis]
    return grade2


def _blade_left(t: _Tables) -> np.ndarray:
    C, L = t["C"], t["L"]
    count, n = C.shape[0], blades.N_BLADES
    M = t.empty("M")
    M[:, _ABOVE_GRADE2] = 0.0  # blades not yet built enter the peel with weight 0
    M[:, 0] = _EYE16
    M[:, _COVECTORS] = L
    M[:, _G2_MASKS] = t["G2"]
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
    C = t["C"]
    K = t.empty("K")  # every blade's slice is set below
    K[:, 0] = _EYE16
    K[:, _COVECTORS] = C
    for _, grade in _PEEL_BLADES:
        for m, i, r in grade:  # one product per blade, written in place
            np.matmul(C[:, i], K[:, r], out=K[:, m])
    return K


def _scalar_products(t: _Tables) -> np.ndarray:
    # Gram-determinant scalar products between equal-grade blades,
    # batched per grade for speed
    g, n = t.g, blades.N_BLADES
    SP = np.zeros((g.shape[0], n, n))
    SP[:, 0, 0] = 1.0
    for k in range(1, 5):
        amasks, bmasks, rows, cols = blades.GRAM_PAIRS[k]
        SP[:, amasks, bmasks] = np.linalg.det(g[:, rows, cols])
    return SP


def _volume_form(t: _Tables) -> np.ndarray:
    tau = np.zeros((t.g.shape[0], blades.N_BLADES))
    tau[:, blades.FULL_MASK] = t.sqrt_abs_det
    return tau


def _hodge(t: _Tables) -> np.ndarray:
    # star(A) = H @ A with H[:, m] = rev_sign(m) * (gamma^m _| tau)
    return np.einsum("nikj,nj->nki", t["K"], t["tau"]) * blades.REVERSE_SIGN


def _hodge_inv_scale(t: _Tables) -> np.ndarray:
    return np.multiply.outer(t.sign_det, (-1.0) ** (blades.GRADE * (4 - blades.GRADE)))


_BUILDERS = {
    "C": lambda t: np.einsum("nij,jkl->nikl", t.g, blades.CONTRACT_STRUCT),
    "L": lambda t: t["C"] + blades.WEDGE_OP,
    "G2": _grade2,
    "M": _blade_left,
    "K": _blade_contract,
    "SP": _scalar_products,
    "tau": _volume_form,
    "H": _hodge,
    "Hinv_scale": _hodge_inv_scale,
}
TABLE_NAMES = tuple(_BUILDERS)  # every table PointMetric.tables gives


# -- products on coefficient rows, one metric's tables per row -----------------

_WEDGE_ROWS = blades.WEDGE_TENSOR.reshape(-1, blades.N_BLADES)  # row a * 16 + b: blade a ^ blade b


def _bilinear(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the operator ``sum_m a[m] table[m]`` applied to ``b``."""
    n = blades.N_BLADES
    flat = table.reshape(table.shape[:-3] + (n, n * n))
    ops = (a[..., np.newaxis, :] @ flat).reshape(a.shape[:-1] + (n, n))
    return (ops @ b[..., np.newaxis])[..., 0]


def wedge_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exterior product of each pair of (..., 16) rows; it reads no table."""
    pairs = a[..., :, np.newaxis] * b[..., np.newaxis, :]
    return pairs.reshape(pairs.shape[:-2] + (-1,)) @ _WEDGE_ROWS


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


def readonly_rows(arr: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``arr[start:stop]``, a view that cannot be written through."""
    rows = arr[start:stop]
    rows.flags.writeable = False
    return rows


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr
