"""Differential operators on multivector fields.

Fields are 16 closed-form component expressions in the chart coordinates.
Every operator is evaluated pointwise from exact jets: first covariant
derivatives for the first-order operators, analytic second covariant
derivatives (never differences of operator outputs) for the second-order
ones.  The composed operators d(delta F) and delta(d F) are obtained by
carrying exact first-order jets of delta F and d F, which the second-order
field jets and the metric jets provide in closed form.  So the squared Dirac
operator has two routes: :meth:`FieldCalculus.hodge_dalembertian` gives
-(d delta + delta d) F, and a caller adds ``covariant_dalembertian()`` and
``ricci_operator()`` for the second-order route.

Index conventions:  ``cov1[a]`` are the blade components of D_a F,
``cov2[a, b]`` those of D_a D_b F, and the covariant correction enters
through ``Gop[a] = sum Gamma^r_{a i} INDEX_SUB[i, r]`` (``GeometryData.gop``,
shared by every field at the same geometry).  The operators read the field's
jets from ``GeometryData.jet`` and the metric's product tables ``C``, ``L``
and ``G2`` from ``GeometryData.metric.tables``; the Ricci operator acts by
the grade-2 blades of ``G2``, one block per pair a < b of covectors.

The correction is sparse: ``INDEX_SUB`` has 63 non-zero (m, n) positions of
256, at most 5 in a row.  ``GeometryData`` gathers ``Gop`` from them and
scatters it into a dense (4, 16, 16) per point, and keeps its derivative
``dGop`` as its non-zeros only, (4, 4, 63) per point.  Each contraction
gives the bits of the dense einsum it replaced, which the tests check on
each host.  ``Gop . grads`` (in ``_pd_cov1``) is a gather that sums each
row's non-zero n in order from 0.0, as that einsum, which reads ``grads``
strided, does.  The contractions whose n axis is contiguous stay dense
einsums: ``Gop . vals`` (``cov1``), ``Gop . cov1`` (``cov2``) and
``dGop . vals``, which scatters ``dGop`` into a dense slab of one s at a
time (128 kB on a block of 16 points).  numpy sums a contiguous axis of 16
in SIMD lanes, and a sequential sum of the non-zero terms differs from it
in the last bits.

A :class:`FieldCalculus` works at one point, or at a block of N points when
its :class:`~cliffcheck.geometry.GeometryData` is a block: every array then
has N first (``vals`` (N, 16), ``cov1`` (N, 4, 16), ...), the operators
return block :class:`~cliffcheck.algebra.Multivector` values, and point i
of the block is bitwise the point alone.  One point is the case without N.
One point raises when a field expression is outside its domain there; a
block raises nothing, keeps each such point's error in ``FieldJets.errors``
and computes on with zero jets there, and :mod:`cliffcheck.fieldcheck`
gives the point that error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import blades
from . import expr as ex
from .algebra import _G2_COVECTOR, _G2_LOWEST, Multivector, grade_project
from .errors import FieldError
from .geometry import GeometryData

_ZERO = ex.ZERO
_NOT_GRADE1 = blades.GRADE != 1
_ROW_FLAT = np.arange(0, 256, 16) + blades.SUB_ROW_N.T  # [k, m]: flat (m, n) of row m's k-th n
# the grade-2 block of gamma^a ^ gamma^b for each ordered pair a != b, in (a, b) order
_RICCI_BLOCKS = [list(zip(_G2_LOWEST, _G2_COVECTOR)).index((min(a, b), max(a, b)))
                 for a in range(4) for b in range(4) if a != b]


@dataclass(frozen=True)
class MultivectorField:
    """Multivector-valued field: one expression per blade, plus declared grades."""

    comps: tuple  # 16 Expr, indexed by blade mask
    grades: frozenset

    def __post_init__(self):
        if len(self.comps) != 16:
            raise FieldError("a multivector field needs 16 blade components")
        for mask in range(16):
            if int(blades.GRADE[mask]) not in self.grades and not ex.is_zero(self.comps[mask]):
                raise FieldError(
                    f"component {blades.blade_name(mask)} is outside the declared grades "
                    f"{sorted(self.grades)}"
                )

    @classmethod
    def from_components(cls, components: Mapping, coords=None, grades=None) -> "MultivectorField":
        """Build from a mapping of blade keys to expression sources (:func:`~cliffcheck.expr.tree`).

        Keys are either integer masks, ``"1"`` for the scalar part, or
        coordinate names joined by ``^`` (e.g. ``"t^r"``); out-of-order names
        pick up the permutation sign.
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
        inferred = frozenset(
            int(blades.GRADE[m]) for m in range(16) if not ex.is_zero(comps[m])
        )
        return cls(tuple(comps), frozenset(grades) if grades is not None else inferred)

    @classmethod
    def zero(cls) -> "MultivectorField":
        return cls((_ZERO,) * 16, frozenset())

    @classmethod
    def basis_covector(cls, i: int) -> "MultivectorField":
        comps = [_ZERO] * 16
        comps[1 << i] = ex.ONE
        return cls(tuple(comps), frozenset((1,)))

    def scaled(self, factor: float) -> "MultivectorField":
        if factor == 1.0:
            return self
        comps = tuple(
            e if ex.is_zero(e) else ex.Mul(ex.const(factor), e) for e in self.comps
        )
        return MultivectorField(comps, self.grades)


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


@dataclass
class FieldJets:
    """Component values and first/second partials of a field at one point (or N first)."""

    vals: np.ndarray  # (16,)
    grads: np.ndarray  # (16, 4)
    hess: np.ndarray  # (16, 4, 4)
    errors: dict  # of a block: each point whose jets fail -> its first component's error there


def field_jets(field: MultivectorField, gd: GeometryData) -> FieldJets:
    """The field's component jets at ``gd.point``, from the jet source ``gd.jet``.

    ``gd.point`` may be a block of N points, and every array then has N
    first.  One point raises the error of its first component that cannot
    be evaluated; a block keeps it in ``errors`` for each such point, whose
    jets are zero.
    """
    lanes = np.shape(gd.point)[:-1]
    vals = np.zeros(lanes + (16,))
    grads = np.zeros(lanes + (16, 4))
    hess = np.zeros(lanes + (16, 4, 4))
    errors: dict = {}
    for mask in range(16):
        e = field.comps[mask]
        if ex.is_zero(e):
            continue
        jm = gd.jet(e)
        for k, err in jm.errors.items():
            errors.setdefault(k, err)
        vals[..., mask] = jm.val
        grads[..., mask, :] = jm.grad
        hess[..., mask, :, :] = jm.hess
    return FieldJets(vals, grads, hess, errors)


class FieldCalculus:
    """All operator evaluations for one field at one geometry point, or at a block of them."""

    def __init__(self, field: MultivectorField, gd: GeometryData):
        self.field = field
        self.gd = gd

    @cached_property
    def jets(self) -> FieldJets:
        return field_jets(self.field, self.gd)

    def _cov(self, val: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The components of D_a G, from the values and partials of G's components."""
        return _swap(grad) - np.einsum("...amn,...n->...am", self.gd.gop, val)

    def _contract(self, cov: np.ndarray) -> np.ndarray:
        """sum_a gamma^a _| cov[a]: minus the codifferential of G when cov[a] is D_a G."""
        return np.einsum("...amn,...an->...m", self.gd.metric.tables["C"], cov)

    @cached_property
    def cov1(self) -> np.ndarray:
        """cov1[a] = components of D_a F."""
        return self._cov(self.jets.vals, self.jets.grads)

    @cached_property
    def _pd_cov1(self) -> np.ndarray:
        """pd[s, a] = plain partial d_s of (D_a F) components."""
        return np.einsum("...mas->...sam", self.jets.hess) - self._dgop_vals() - self._gop_grads()

    def _dgop_vals(self) -> np.ndarray:
        """[s, a, m] = sum_n dGop[s, a][m, n] vals[n], by the dense einsum on one slab of s at a time.

        A slab scatters dGop for one s, or for 2 or 4 of them when there are
        at most 8 or 4 points, so on a block of up to 16 points
        (``fieldcheck.BLOCK``) it holds at most 16 (4, 16, 16) operators, 128 kB.
        """
        dgop = self.gd.dgop
        points = dgop[..., 0, 0, 0].size
        step = 4 if points <= 4 else 2 if points <= 8 else 1  # s per slab
        slab = np.zeros(dgop.shape[:-3] + (step, 4, 256))
        flat = slab.reshape(-1)
        at = (np.arange(flat.size, step=256)[:, np.newaxis] + blades.SUB_POSITIONS).ravel()
        dense = slab.reshape(slab.shape[:-1] + (16, 16))
        parts = []
        for s in range(0, 4, step):
            flat[at] = dgop[..., s:s + step, :, :].ravel()
            parts.append(np.einsum("...samn,...n->...sam", dense, self.jets.vals))
        return np.concatenate(parts, axis=-3)

    def _gop_grads(self) -> np.ndarray:
        """[s, a, m] = sum_n Gop[a][m, n] grads[n, s], over each row's non-zero n in order from 0.0.

        Each row's up to 5 non-zero n are gathered onto an axis k, which the
        einsum reads strided and so sums in order, as the dense einsum over
        all 16 n does.  A row with fewer is padded with n = 0, where Gop[a][m]
        is zero; such a term adds +-0.0, which leaves the sum as it is.
        """
        gop = self.gd.gop
        rows = gop.reshape(gop.shape[:-2] + (256,))[..., _ROW_FLAT]  # [a, k, m] = Gop[a][m, SUB_ROW_N[m, k]]
        grads = _swap(self.jets.grads)[..., blades.SUB_ROW_N.T]  # [s, k, m] = grads[SUB_ROW_N[m, k], s]
        return np.einsum("...akm,...skm->...sam", rows, grads)

    @cached_property
    def cov2(self) -> np.ndarray:
        """cov2[a, b] = components of D_a D_b F."""
        return self._pd_cov1 - np.einsum("...amn,...bn->...abm", self.gd.gop, self.cov1)

    @cached_property
    def _contract_grad(self) -> np.ndarray:
        return np.einsum("...sij,jkl->...sikl", self.gd.dg_upper, blades.CONTRACT_STRUCT)

    # -- first-order operators ---------------------------------------------------

    def value(self) -> Multivector:
        return Multivector(self.jets.vals)

    def covariant_derivative(self, alpha: int) -> Multivector:
        return Multivector(self.cov1[..., alpha, :])

    def dirac(self) -> Multivector:
        L = self.gd.metric.tables["L"]
        return Multivector(np.einsum("...amn,...an->...m", L, self.cov1))

    def exterior_d(self) -> Multivector:
        return Multivector(np.einsum("amn,...an->...m", blades.WEDGE_OP, self.cov1))

    def codifferential(self) -> Multivector:
        return Multivector(-self._contract(self.cov1))

    def codifferential_hodge_route(self) -> Multivector:
        """delta via (-1)^p star^{-1} d star, using D_a(star F) = star(D_a F)."""
        pm = self.gd.metric
        out = Multivector.zero()
        for p in sorted(self.field.grades):
            dstar = np.zeros(self.cov1.shape[:-2] + (16,))
            for a in range(4):
                part = grade_project(Multivector(self.cov1[..., a, :]), p)
                dstar += (blades.WEDGE_OP[a] @ pm.hodge(part).coeffs[..., np.newaxis])[..., 0]
            out = out + (-1.0) ** p * pm.hodge_inv(Multivector(dstar))
        return out

    # -- jets of dF and deltaF (exact, from second field jets) --------------------

    @cached_property
    def _d_jet(self) -> tuple:
        val = np.einsum("amn,...na->...m", blades.WEDGE_OP, self.jets.grads)
        grad = np.einsum("amn,...nas->...ms", blades.WEDGE_OP, self.jets.hess)
        return val, grad

    @cached_property
    def _delta_jet(self) -> tuple:
        val = -self._contract(self.cov1)
        grad = -(
            np.einsum("...samn,...an->...ms", self._contract_grad, self.cov1)
            + np.einsum("...amn,...san->...ms", self.gd.metric.tables["C"], self._pd_cov1)
        )
        return val, grad

    def exterior_d_squared(self) -> Multivector:
        _, grad = self._d_jet
        return Multivector(np.einsum("amn,...na->...m", blades.WEDGE_OP, grad))

    def maxwell_current(self) -> Multivector:
        """J = -delta(dF): the source current when this field is a potential."""
        return Multivector(self._contract(self._cov(*self._d_jet)))

    def codifferential_squared(self) -> Multivector:
        return Multivector(-self._contract(self._cov(*self._delta_jet)))

    # -- second-order operators -----------------------------------------------------

    def covariant_dalembertian(self) -> Multivector:
        gu = self.gd.g_upper
        trace = np.einsum("...ab,...abm->...m", gu, self.cov2)
        corr = np.einsum("...ab,...rab,...rm->...m", gu, self.gd.gamma, self.cov1)
        return Multivector(trace - corr)

    def ricci_operator(self) -> Multivector:
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
        blocks = np.einsum("...kmn,...kn->...km", self.gd.metric.tables["G2"],
                           comm[..., _G2_LOWEST, _G2_COVECTOR, :])
        total = 0.0
        for k in _RICCI_BLOCKS:
            total = total + blocks[..., k, :]
        return Multivector(0.5 * total)

    def hodge_dalembertian(self) -> Multivector:
        """The squared Dirac operator by its first-order route, -(d delta + delta d) F."""
        d_delta = np.einsum("amn,...na->...m", blades.WEDGE_OP, self._delta_jet[1])
        return Multivector(-(d_delta - self.maxwell_current().coeffs))  # delta d F = -J


def grad_scalar_product(ja: FieldJets, jb: FieldJets, gd: GeometryData) -> Multivector:
    """Gradient 1-form of the scalar field a . b, from the jets of grade-1 fields a and b.

    The jets and ``gd`` may be those of a block of points (N first).
    """
    for j in (ja, jb):
        if j.vals[..., _NOT_GRADE1].any() or j.grads[..., _NOT_GRADE1, :].any():
            raise FieldError("grad_scalar_product expects grade-1 fields")
    masks = blades.COVECTOR_MASKS
    va, vb = ja.vals[..., masks], jb.vals[..., masks]
    da, db = ja.grads[..., masks, :], jb.grads[..., masks, :]
    gu = gd.g_upper
    grad = (
        np.einsum("...is,...ij,...j->...s", da, gu, vb)
        + np.einsum("...i,...sij,...j->...s", va, gd.dg_upper, vb)
        + np.einsum("...i,...ij,...js->...s", va, gu, db)
    )
    return Multivector.oneform(grad)


def _swap(x: np.ndarray) -> np.ndarray:
    """``x`` with its last two axes swapped: the transpose of each point's matrix."""
    return np.swapaxes(x, -1, -2)
