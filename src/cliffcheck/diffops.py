"""Differential operators on multivector fields.

Fields are 16 closed-form component expressions in the chart coordinates.
Every operator is evaluated pointwise from exact jets: d from the partials
alone (the connection is torsion free), delta and the Dirac operator from
first covariant derivatives, the second-order ones from analytic second
covariant derivatives (never differences of operator outputs).  The composed
operators d(delta F) and delta(d F) carry exact first-order jets of d F and
delta F: their values are ``exterior_d()`` and ``codifferential()``, and the
second-order field jets and the metric jets give their partials in closed
form.  So the squared Dirac operator has two routes:
:meth:`FieldCalculus.hodge_dalembertian` gives -(d delta + delta d) F, and a
caller adds ``covariant_dalembertian()`` and ``ricci_operator()``.

Index conventions:  ``cov1[a]`` are the blade components of D_a F,
``cov2[a, b]`` those of D_a D_b F, and the covariant correction enters
through ``Gop[a] = sum Gamma^r_{a i} INDEX_SUB[i, r]`` (``GeometryData.gop``,
shared by every field at the same geometry).  The operators read the field's
jets, a :class:`~cliffcheck.expr.Jet2` stack of its 16 components
(:func:`field_jets`), from ``GeometryData.jet``, and the metric's product
tables ``C``, ``L`` and ``G2`` through ``GeometryData.metric.table``; the
Ricci operator acts by the grade-2 blades of ``G2``, one block per pair
a < b of covectors.

The correction is sparse: ``INDEX_SUB`` has 63 non-zero (m, n) positions of
256, at most 5 in a row.  ``GeometryData`` gathers ``Gop`` from them and
scatters it into a dense (4, 16, 16) per point, and keeps its derivative
``dGop`` as its non-zeros only, (4, 4, 63) per point.  Each contraction
gives the bits of the dense einsum it replaced, which the tests check on
each host.  ``Gop . grad`` (in ``_pd_cov1``) is a gather that sums each
row's non-zero n in order from 0.0, as that einsum, which reads ``grad``
strided, does.  The contractions whose n axis is contiguous stay dense
einsums: ``Gop . val`` (``cov1``), ``Gop . cov1`` (``cov2``) and
``dGop . val``, which scatters ``dGop`` into a dense slab of one s at a
time (256 kB on a block of 32 points).  numpy sums a contiguous axis of 16
in SIMD lanes, and a sequential sum of the non-zero terms differs from it
in the last bits.

Every operator returns a (..., 16) row of blade coefficients, the one
representation of a multivector (:mod:`cliffcheck.algebra`).  A
:class:`FieldCalculus` computes each operator without an argument on its
first call and keeps it: every later call returns the same read-only row,
so the checks on a block share one value of each operator per field.  The
operators stay plain methods.

A :class:`FieldCalculus` works at one point, or at a block of N points when
its :class:`~cliffcheck.geometry.GeometryData` is a block: every array then
has N first (``jets.val`` (N, 16), ``cov1`` (N, 4, 16), ...), the operators
return (N, 16) rows, and point i of the block is bitwise the point alone.
One point is the case without N.  One point raises when a field
expression is outside its domain there; a block raises nothing, keeps
each such point's error in the jets' ``errors`` (``FieldCalculus.jets``)
and computes on with zero jets there, and :mod:`cliffcheck.fieldcheck`
gives the point that error.  :meth:`FieldCalculus.of_lanes` holds a field
of its own at each point of a block: the non-zero components of all its
fields are one forest of expression trees
(:func:`~cliffcheck.expr.evaluate_forest`), scattered into one
:class:`~cliffcheck.expr.Jet2` stack, each at its field's point.  Lane i
is bitwise field i at point i alone, and the block raises as the first of
its points that fails alone does.
"""

from __future__ import annotations

from functools import cached_property, wraps
from typing import Callable, Mapping

import numpy as np

from . import blades
from . import expr as ex
from .algebra import G2_COVECTOR, G2_LOWEST, ReadOnly, check_index, grade_project, oneform, readonly
from .errors import FieldError
from .geometry import GeometryData

_ZERO = ex.ZERO
_NOT_GRADE1 = blades.GRADE != 1
_ROW_FLAT = np.arange(0, 256, 16) + blades.SUB_ROW_N.T  # [k, m]: flat (m, n) of row m's k-th n
# the grade-2 block of gamma^a ^ gamma^b for each ordered pair a != b, in (a, b) order
_RICCI_BLOCKS = [list(zip(G2_LOWEST, G2_COVECTOR)).index((min(a, b), max(a, b)))
                 for a in range(4) for b in range(4) if a != b]


class MultivectorField(ReadOnly):
    """A multivector-valued field: one expression per blade; read-only.

    ``comps`` holds the 16 Expr, indexed by blade mask.
    """

    def __init__(self, comps: tuple):
        self._set(comps=comps)
        if len(self.comps) != 16:
            raise FieldError("a multivector field needs 16 blade components")

    @cached_property
    def grades(self) -> frozenset:
        """The grades of the non-zero components."""
        return frozenset(int(blades.GRADE[m]) for m in range(16) if not ex.is_zero(self.comps[m]))

    @classmethod
    def from_components(cls, components: Mapping, coords=None) -> "MultivectorField":
        """Build from a mapping of blade keys to expression sources (:func:`~cliffcheck.expr.tree`).

        Keys are either integer masks, ``"1"`` for the scalar part, or
        coordinate names joined by ``^`` (e.g. ``"t^r"``); out-of-order names
        pick up the permutation sign.  The field's grades are those of its
        non-zero components.
        """
        comps = [_ZERO] * 16
        for key, value in components.items():
            sign = 1
            if isinstance(key, (int, np.integer)):
                mask = int(key)
                if not 0 <= mask < 16:
                    raise FieldError(f"blade mask {mask} out of range")
            else:
                mask, sign = _parse_blade_key(str(key), coords)
            e = ex.tree(value)
            if sign < 0:
                e = ex.Neg(e)
            if not ex.is_zero(comps[mask]):
                raise FieldError(f"duplicate component for blade {blades.blade_name(mask)}")
            comps[mask] = e
        return cls(tuple(comps))

    @classmethod
    def zero(cls) -> "MultivectorField":
        return cls((_ZERO,) * 16)

    @classmethod
    def basis_covector(cls, i: int) -> "MultivectorField":
        comps = [_ZERO] * 16
        comps[1 << check_index("i", i)] = ex.ONE
        return cls(tuple(comps))

    def scaled(self, factor: float) -> "MultivectorField":
        if factor == 1.0:
            return self
        comps = tuple(
            e if ex.is_zero(e) else ex.Mul(ex.const(factor), e) for e in self.comps
        )
        return MultivectorField(comps)


def _parse_blade_key(key: str, coords) -> tuple:
    key = key.strip()
    if key == "1":
        return 0, 1
    if coords is None:
        raise FieldError(f"blade key '{key}' needs coordinate names")
    idxs = []
    for part in key.split("^"):
        part = part.strip()
        if part not in coords:
            raise FieldError(f"blade key '{key}' uses unknown coordinate '{part}'")
        idxs.append(coords.index(part))
    if len(set(idxs)) != len(idxs):
        raise FieldError(f"blade key '{key}' repeats a coordinate")
    mask = blades.mask_of(idxs)
    return mask, blades.sort_parity(idxs)


def field_jets(field: MultivectorField, point: np.ndarray, jet: Callable) -> ex.Jet2:
    """The field's component jets at ``point``, from the jet source ``jet`` there.

    They are the stack of its 16 components (:func:`~cliffcheck.expr.stack_jets`):
    ``val`` (16,), ``grad`` (16, 4) and ``hess`` (16, 4, 4), with N first
    when ``point`` is a block of N points.  One point raises the error of
    its first component that cannot be evaluated; a block keeps it in
    ``errors`` for each such point, whose jets are zero.
    """
    components = {(mask,): e for mask, e in enumerate(field.comps) if not ex.is_zero(e)}
    return ex.stack_jets(jet, components, np.shape(point)[:-1], (blades.N_BLADES,))


def _once(operator: Callable) -> Callable:
    """``operator`` run on its first call only: every call returns that first row, made read-only.

    It stays a plain method under its own name, so a caller that wraps the
    class's methods wraps it as before.
    """
    kept = "_" + operator.__name__

    @wraps(operator)
    def once(self) -> np.ndarray:
        if kept not in self.__dict__:
            self.__dict__[kept] = readonly(operator(self))
        return self.__dict__[kept]

    return once


class FieldCalculus:
    """All operator evaluations for one field at one geometry point, or at a block of them.

    Each operator returns a (..., 16) row.  One without an argument is
    computed on its first call and kept: later calls return the same
    read-only row.
    :meth:`of_lanes` gives a block whose points each hold a field of their own.
    """

    def __init__(self, field: MultivectorField, gd: GeometryData):
        self.field = field
        self.gd = gd
        self.grades = field.grades

    @classmethod
    def of_lanes(cls, fields, gd: GeometryData) -> "FieldCalculus":
        """The operators of ``fields[i]`` at point i of the block ``gd``, for each i.

        Lane i's jets are bitwise the one-point :func:`field_jets` of
        ``fields[i]`` at point i, and each operator's lane i is bitwise that of
        ``FieldCalculus(fields[i], curvature(gd.spec, gd.point[i]))``.  The
        non-zero components of all the lanes are one forest
        (:func:`~cliffcheck.expr.evaluate_forest`), each at its lane's point.
        When one cannot be evaluated, the error of the lowest such lane's
        lowest such component is raised, as the lanes one by one would.  Its
        grades are the union of the fields' grades: a grade that a lane's
        field lacks adds exact zeros there.
        """
        spec = gd.spec
        at = [(i, mask) for i, f in enumerate(fields) for mask in range(16) if not ex.is_zero(f.comps[mask])]
        lanes, masks = np.array(at, dtype=np.intp).reshape(-1, 2).T
        jet = ex.evaluate_forest([fields[i].comps[mask] for i, mask in at], spec.coords, gd.point[lanes],
                                 spec.params)
        if jet.errors:
            raise jet.errors[min(jet.errors)]
        shape = (len(fields), 16)
        vals, grads, hess = np.zeros(shape), np.zeros(shape + (4,)), np.zeros(shape + (4, 4))
        vals[lanes, masks], grads[lanes, masks], hess[lanes, masks] = jet.val, jet.grad, jet.hess
        calc = cls.__new__(cls)
        calc.field, calc.gd = None, gd  # no one field: the operators read only its jets and grades
        calc.grades = frozenset().union(*(f.grades for f in fields))
        calc.jets = ex.Jet2(vals, grads, hess)
        return calc

    @cached_property
    def jets(self) -> ex.Jet2:
        return field_jets(self.field, self.gd.point, self.gd.jet)

    def _cov(self, val: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The components of D_a G, from the values and partials of G's components."""
        return _swap(grad) - np.einsum("...amn,...n->...am", self.gd.gop, val)

    def _contract(self, cov: np.ndarray) -> np.ndarray:
        """sum_a gamma^a _| cov[a]: minus the codifferential of G when cov[a] is D_a G."""
        return np.einsum("...amn,...an->...m", self.gd.metric.table("C"), cov)

    @cached_property
    def cov1(self) -> np.ndarray:
        """cov1[a] = components of D_a F."""
        return self._cov(self.jets.val, self.jets.grad)

    @cached_property
    def _pd_cov1(self) -> np.ndarray:
        """pd[s, a] = plain partial d_s of (D_a F) components."""
        return np.einsum("...mas->...sam", self.jets.hess) - self._dgop_vals() - self._gop_grads()

    def _dgop_vals(self) -> np.ndarray:
        """[s, a, m] = sum_n dGop[s, a][m, n] val[n], by the dense einsum on one slab of s at a time.

        A slab scatters dGop for one s, so on a block of 32 points
        (``fieldcheck.BLOCK``) it holds 32 (4, 16, 16) operators, 256 kB.
        """
        dgop = self.gd.dgop
        slab = np.zeros(dgop.shape[:-3] + (1, 4, 256))
        flat = slab.reshape(-1)
        at = (np.arange(flat.size, step=256)[:, np.newaxis] + blades.SUB_POSITIONS).ravel()
        dense = slab.reshape(slab.shape[:-1] + (16, 16))
        parts = []
        for s in range(4):
            flat[at] = dgop[..., s, :, :].ravel()
            parts.append(np.einsum("...samn,...n->...sam", dense, self.jets.val))
        return np.concatenate(parts, axis=-3)

    def _gop_grads(self) -> np.ndarray:
        """[s, a, m] = sum_n Gop[a][m, n] grad[n, s], over each row's non-zero n in order from 0.0.

        Each row's up to 5 non-zero n are gathered onto an axis k, which the
        einsum reads strided and so sums in order, as the dense einsum over
        all 16 n does.  A row with fewer is padded with n = 0, where Gop[a][m]
        is zero; such a term adds +-0.0, which leaves the sum as it is.
        """
        gop = self.gd.gop
        rows = gop.reshape(gop.shape[:-2] + (256,))[..., _ROW_FLAT]  # [a, k, m] = Gop[a][m, SUB_ROW_N[m, k]]
        grad = _swap(self.jets.grad)[..., blades.SUB_ROW_N.T]  # [s, k, m] = grad[SUB_ROW_N[m, k], s]
        return np.einsum("...akm,...skm->...sam", rows, grad)

    @cached_property
    def cov2(self) -> np.ndarray:
        """cov2[a, b] = components of D_a D_b F."""
        return self._pd_cov1 - np.einsum("...amn,...bn->...abm", self.gd.gop, self.cov1)

    @cached_property
    def _contract_grad(self) -> np.ndarray:
        return np.einsum("...sij,jkl->...sikl", self.gd.dg_upper, blades.CONTRACT_STRUCT)

    # -- first-order operators ---------------------------------------------------

    @_once
    def value(self) -> np.ndarray:
        return self.jets.val.view()  # read-only, while the jets' values stay as they are

    def covariant_derivative(self, alpha: int) -> np.ndarray:
        """A read-only view of D_alpha F."""
        return readonly(self.cov1[..., check_index("alpha", alpha), :])

    @_once
    def dirac(self) -> np.ndarray:
        L = self.gd.metric.table("L")
        return np.einsum("...amn,...an->...m", L, self.cov1)

    @_once
    def exterior_d(self) -> np.ndarray:
        """sum_a gamma^a ^ d_a F: the connection is torsion free, so its terms in D_a F cancel."""
        return np.einsum("amn,...na->...m", blades.WEDGE_OP, self.jets.grad)

    @_once
    def codifferential(self) -> np.ndarray:
        return -self._contract(self.cov1)

    @_once
    def codifferential_hodge_route(self) -> np.ndarray:
        """delta via (-1)^p star^{-1} d star, using D_a(star F) = star(D_a F)."""
        pm = self.gd.metric
        out = np.zeros(16)
        for p in sorted(self.grades):
            dstar = np.zeros(self.cov1.shape[:-2] + (16,))
            for a in range(4):
                part = grade_project(self.cov1[..., a, :], p)
                dstar += (blades.WEDGE_OP[a] @ pm.hodge(part)[..., np.newaxis])[..., 0]
            out = out + (-1.0) ** p * pm.hodge_inv(dstar)
        return out

    # -- jets of dF and deltaF (exact, from second field jets) --------------------

    @cached_property
    def _d_jet(self) -> tuple:
        return self.exterior_d(), np.einsum("amn,...nas->...ms", blades.WEDGE_OP, self.jets.hess)

    @cached_property
    def _delta_jet(self) -> tuple:
        grad = -(
            np.einsum("...samn,...an->...ms", self._contract_grad, self.cov1)
            + np.einsum("...amn,...san->...ms", self.gd.metric.table("C"), self._pd_cov1)
        )
        return self.codifferential(), grad

    @_once
    def exterior_d_squared(self) -> np.ndarray:
        _, grad = self._d_jet
        return np.einsum("amn,...na->...m", blades.WEDGE_OP, grad)

    @_once
    def maxwell_current(self) -> np.ndarray:
        """J = -delta(dF): the source current when this field is a potential."""
        return self._contract(self._cov(*self._d_jet))

    @_once
    def codifferential_squared(self) -> np.ndarray:
        return -self._contract(self._cov(*self._delta_jet))

    # -- second-order operators -----------------------------------------------------

    @_once
    def covariant_dalembertian(self) -> np.ndarray:
        gu = self.gd.g_upper
        trace = np.einsum("...ab,...abm->...m", gu, self.cov2)
        corr = np.einsum("...ab,...rab,...rm->...m", gu, self.gd.gamma, self.cov1)
        return trace - corr

    @_once
    def ricci_operator(self) -> np.ndarray:
        # 1/2 (gamma^a ^ gamma^b) [D_a, D_b] F, the bivector acting by the
        # Clifford product (its grade-raising part dies by the first Bianchi
        # identity; the grade-preserving part is the curvature action)
        comm = self.cov2 - np.einsum("...abm->...bam", self.cov2)
        # The sum over a, b, n of (gamma^a ^ gamma^b)[m, n] comm[a, b, n], in the
        # order of its dense einsum, so that its bytes stay those of a (4, 4)
        # table of bivector operators: one n-sum (einsum, n last) per grade-2
        # block, a < b, which is bitwise also the (b, a) term, as both of its
        # factors change sign; then the 12 pairs a != b in (a, b) order.
        # Another order or grouping of the sums may round differently.
        blocks = np.einsum("...kmn,...kn->...km", self.gd.metric.table("G2"),
                           comm[..., G2_LOWEST, G2_COVECTOR, :])
        total = 0.0
        for k in _RICCI_BLOCKS:
            total = total + blocks[..., k, :]
        return 0.5 * total

    @_once
    def hodge_dalembertian(self) -> np.ndarray:
        """The squared Dirac operator by its first-order route, -(d delta + delta d) F."""
        d_delta = np.einsum("amn,...na->...m", blades.WEDGE_OP, self._delta_jet[1])
        return -(d_delta - self.maxwell_current())  # delta d F = -J


def grad_scalar_product(ja: ex.Jet2, jb: ex.Jet2, gd: GeometryData) -> np.ndarray:
    """Gradient 1-form of the scalar field a . b, from the jets of grade-1 fields a and b.

    The jets and ``gd`` may be those of a block of points (N first).
    """
    for j in (ja, jb):
        if j.val[..., _NOT_GRADE1].any() or j.grad[..., _NOT_GRADE1, :].any():
            raise FieldError("grad_scalar_product expects grade-1 fields")
    masks = blades.COVECTOR_MASKS
    va, vb = ja.val[..., masks], jb.val[..., masks]
    da, db = ja.grad[..., masks, :], jb.grad[..., masks, :]
    gu = gd.g_upper
    grad = (
        np.einsum("...is,...ij,...j->...s", da, gu, vb)
        + np.einsum("...i,...sij,...j->...s", va, gd.dg_upper, vb)
        + np.einsum("...i,...ij,...js->...s", va, gu, db)
    )
    return oneform(grad)


def _swap(x: np.ndarray) -> np.ndarray:
    """``x`` with its last two axes swapped: the transpose of each point's matrix."""
    return np.swapaxes(x, -1, -2)
