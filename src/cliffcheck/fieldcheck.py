"""Physics-level residual checks on user-supplied fields.

Every check is one entry of :data:`CHECKS`, a read-only :class:`Check`: its
name, the fields it needs, its notes and ``fn(ctx) -> (residuals, info)``,
evaluated once on a block of sample points' :class:`BlockContext`, with one
value per point (N first).
One point is the same code without N, and the reference.  A point that
fails is not computed again: the block's geometry and field jets keep its
error, and the point gets the error it gets alone (:func:`run_pointwise`).
:func:`run_checks` computes the expression jets and the geometry once per
chunk of :data:`CHUNK` points, then visits each block of :data:`BLOCK`
points of the chunk once and runs every requested check against one
:class:`BlockContext`.  It holds the block's slice of the chunk's geometry
(:meth:`GeometryData.block`) and computes what several checks read once
per block, when a check first reads them: the product tables, each
field's jets and operators, the curvature coupling of a field and the
potential's :class:`MaxwellTerms` (the sandwiches F gamma_beta F and
J gamma_beta J, J.J and A.J).  These stay per block, as they take far
more memory a point than the geometry.  The operators' results and these products
are read-only and made by the same operations wherever they are read, so
no report depends on which other checks ran, and
:func:`sandwich_link_identities`, :func:`energy_momentum_em` and
:func:`energy_momentum_fluid` give the same bits called on their own.
Every multivector is a (..., 16) row of blade coefficients, and every
product is one of :class:`~cliffcheck.algebra.PointMetric`'s methods or
:func:`~cliffcheck.algebra.wedge`, the ones the algebra selftest checks.
Each index sum over a block, sum_k w_k X_k (V^mu D_mu V, and A^beta with
the sandwiches and the Einstein rows), is one
:func:`~cliffcheck.algebra.linear_combination`, added in order of k.
:func:`run_checks` gathers one :class:`ResidualReport` per check, which
keeps the results as columns: one array per key, one row per point.
Residuals under ``residuals`` gate the
pass flag; quantities under ``info`` (sampled currents, quadratic roots,
solution-matching distances) are diagnostics that depend on the supplied
fields actually solving the coupled system, which hand-built scenarios
generally do not.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import blades
from . import expr as ex
from .algebra import (ReadOnly, check_index, grade_project, grades, linear_combination, oneform, readonly, reverse,
                      sup, wedge)
from .diffops import FieldCalculus, MultivectorField, grad_scalar_product
from .errors import FieldError
from .geometry import GeometryData, MetricSpec, curvature


class Constants(ReadOnly):
    """Physical constants: charge, mass, and the potential-to-Killing factor; read-only."""

    __slots__ = ("e", "m", "coupling")

    def __init__(self, e: float = 1.0, m: float = 1.0, coupling: float = 1.0):
        self._set(e=e, m=m, coupling=coupling)


class ScenarioFields(ReadOnly):
    """A scenario's fields, each absent or of the grade its checks need, and its constants; read-only."""

    __slots__ = ("K", "A", "S", "V", "constants")

    def __init__(self, K: MultivectorField | None = None, A: MultivectorField | None = None,
                 S: MultivectorField | None = None, V: MultivectorField | None = None,
                 constants: Constants = Constants()):
        self._set(K=K, A=A, S=S, V=V, constants=constants)
        for name, grade in (("K", 1), ("A", 1), ("V", 1)):
            f = getattr(self, name)
            if f is not None and f.grades - {grade}:
                raise FieldError(f"field {name} must be a 1-form, has grades {sorted(f.grades)}")
        if self.S is not None and self.S.grades - {0}:
            raise FieldError(f"field S must be a 0-form, has grades {sorted(self.S.grades)}")

    def potential(self) -> MultivectorField | None:
        """The electromagnetic potential: A if given, else coupling * K."""
        if self.A is not None:
            return self.A
        if self.K is not None:
            return self.K.scaled(self.constants.coupling)
        return None


class Layout(NamedTuple):
    """The points of a check that share one key layout, and their columns.

    ``index`` holds the points' indices, ascending.  Every column has one
    row per point of ``index``: one (M,) array per residual key and one
    (M, ...) array per info key, each in the order the report writes them.
    """

    index: np.ndarray
    residuals: dict
    info: dict


class ResidualReport:
    """One check at P points, as columns.

    Each point has an error (``errors``: point index -> message) or belongs
    to one :class:`Layout`.  A point passes when each of its residuals is at
    most ``tolerance``, and the check passes when it has points and each of
    them passes.  The report file is written from the columns.
    """

    def __init__(self, check: str, tolerance: float, points: np.ndarray, layouts: list, errors: dict,
                 notes: tuple = ()):
        self.check = check
        self.tolerance = tolerance
        self.points = points  # (P, 4)
        self.layouts = layouts
        self.errors = errors
        self.notes = notes

    @cached_property
    def verdicts(self) -> list:
        """Per layout, whether each of its points passes: ``residual <= tolerance`` on every column."""
        return [np.ones(len(lay.index), dtype=bool)
                & np.all([c <= self.tolerance for c in lay.residuals.values()], axis=0) for lay in self.layouts]

    @cached_property
    def max_residual(self) -> float:
        """The largest residual of the points without an error, or 0.0 when none is larger."""
        return max([0.0, *(float(np.max(c)) for lay in self.layouts
                           for c in lay.residuals.values() if len(c))])

    @cached_property
    def passed(self) -> bool:
        return len(self.points) > 0 and not self.errors and all(ok.all() for ok in self.verdicts)

    def worst(self) -> tuple | None:
        """``(point, key, value)`` of the largest residual, the first in point and key order, or None."""
        best = []  # per layout: (-value, point index, key) of its argmax
        for lay in self.layouts:
            if lay.residuals:
                table = np.stack(list(lay.residuals.values()), axis=1)
                row, col = divmod(int(np.argmax(table)), table.shape[1])
                best.append((-float(table[row, col]), int(lay.index[row]), list(lay.residuals)[col]))
        if not best:
            return None
        value, i, key = min(best)
        return tuple(self.points[i].tolist()), key, -value

    def failures(self) -> list:
        """``(point, error, failing residuals)`` of each point that fails, in point order."""
        rows = {i: (error, {}) for i, error in self.errors.items()}
        for lay, ok in zip(self.layouts, self.verdicts):
            bad = np.flatnonzero(~ok)
            columns = {key: c[bad].tolist() for key, c in lay.residuals.items()}
            for j, i in enumerate(lay.index[bad].tolist()):
                rows[i] = (None, {key: v[j] for key, v in columns.items() if v[j] > self.tolerance})
        return [(tuple(self.points[i].tolist()), *rows[i]) for i in sorted(rows)]


# -- the block context and the shape of a check ----------------------------------------


class BlockContext:
    """A block of N sample points, or one point, and what every check on it shares.

    Over a block ``gd`` is the block's :class:`GeometryData` (in the point
    loop a slice of its chunk's) and every array has N first; one point is
    the case without N.  Shared by every check, each computed once: the
    geometry, and the first time a check reads them its product tables, one
    :class:`FieldCalculus` per field with each of its operators, the
    curvature coupling of a field (:meth:`coupling`) and the potential's
    :class:`MaxwellTerms` (:meth:`maxwell`).  The operators' results and
    these products are read-only, so no check can change them under another.
    """

    def __init__(self, gd: GeometryData, fields: dict, constants: Constants, draw):
        self.gd = gd
        self.fields = fields  # "K" | "S" | "V" | "potential" -> MultivectorField | None
        self.constants = constants
        self.draw = draw  # (N, 3, 16) or (3, 16) random inputs of sandwich_identities, or None
        self.asked: list = []  # the calculators handed out, in order, since it was last cleared
        self._calcs: dict = {}
        self._couplings: dict = {}  # FieldCalculus -> its curvature coupling
        self._maxwell = None

    def calc(self, name: str) -> FieldCalculus:
        """The calculator of field ``name``, shared by every check on this block.

        Keyed by the field object, so K and a potential that is K itself
        (coupling 1) share one set of jets.  A check asks for its fields in
        the order it reads their jets.
        """
        f = self.fields[name]
        fc = self._calcs.get(id(f))
        if fc is None:
            fc = self._calcs[id(f)] = FieldCalculus(f, self.gd)
        self.asked.append(fc)
        return fc

    def coupling(self, name: str) -> np.ndarray:
        """The curvature coupling A^beta R_beta of the 1-form field ``name``: one matmul per calculator."""
        fc = self.calc(name)
        if fc not in self._couplings:
            self._couplings[fc] = readonly(_ricci_coupling(self.gd, fc.value()))
        return self._couplings[fc]

    def maxwell(self) -> "MaxwellTerms":
        """The potential's value, dA and current, with the products of them that checks share."""
        fc = self.calc("potential")
        if self._maxwell is None:
            self._maxwell = MaxwellTerms(self.gd, fc.value(), fc.exterior_d(), fc.maxwell_current())
        return self._maxwell


class Check(ReadOnly):
    """One check; read-only.  ``fn(ctx)`` runs once on a :class:`BlockContext` and returns
    ``(residuals, info)``: dicts whose values have one entry per point, N
    first (none for one point).  A check whose keys differ from point to
    point returns a list of :class:`Layout` instead, one per key layout,
    with ``index`` the points that have it and every value rows first, one
    point included (:func:`check_columns`).  ``needs`` names the
    fields it reads: "K", "S", "V", "potential" (A, else coupling * K).
    """

    __slots__ = ("name", "needs", "notes", "fn")

    def __init__(self, name: str, needs: tuple, notes: tuple, fn: Callable):
        self._set(name=name, needs=needs, notes=notes, fn=fn)


# -- helpers ---------------------------------------------------------------------


def _lowered_basis(gd: GeometryData, beta: int) -> np.ndarray:
    return oneform(gd.g_lower[..., beta, :])


def _raise_index(gd: GeometryData, comps: np.ndarray) -> np.ndarray:
    """g^{ab} comps_b at each point."""
    return (gd.g_upper @ comps[..., np.newaxis])[..., 0]


def _ricci_coupling(gd: GeometryData, a: np.ndarray) -> np.ndarray:
    """A_alpha R^alpha = A^beta R_beta: the curvature coupling 1-form."""
    up = _raise_index(gd, a[..., blades.COVECTOR_MASKS])
    return oneform((up[..., np.newaxis, :] @ gd.ricci)[..., 0, :])  # A^b R_{b nu}


def _sandwich(gd: GeometryData, x: np.ndarray, beta: int) -> np.ndarray:
    """The sandwich x gamma_beta x."""
    pm = gd.metric
    return pm.clifford(x, pm.clifford(_lowered_basis(gd, beta), x))


class MaxwellTerms:
    """A potential A, its field F = dA and its current J at a block, or at one point.

    The products of them that several checks read are computed the first
    time one is read and kept, read-only: the sandwiches F gamma_beta F and
    J gamma_beta J for beta = 0..3 (``einstein`` and ``sandwich_identities``),
    J.J and A.J.  A product is the same operations on the same operands
    wherever it is read, so sharing it changes no bit.
    """

    def __init__(self, gd: GeometryData, a: np.ndarray, f2: np.ndarray, j: np.ndarray):
        self.gd, self.a, self.f2, self.j = gd, a, f2, j

    @cached_property
    def em_sandwiches(self) -> tuple:
        return tuple(readonly(_sandwich(self.gd, self.f2, beta)) for beta in range(4))

    @cached_property
    def fluid_sandwiches(self) -> tuple:
        return tuple(readonly(_sandwich(self.gd, self.j, beta)) for beta in range(4))

    @cached_property
    def j_sq(self) -> np.ndarray:
        return readonly(self.gd.metric.scalar_product(self.j, self.j))

    @cached_property
    def a_dot_j(self) -> np.ndarray:
        return readonly(self.gd.metric.scalar_product(self.a, self.j))


# -- killing / proposition 1 ---------------------------------------------------------


def _killing(ctx: BlockContext) -> tuple:
    fc = ctx.calc("K")
    # max over (mu, nu) of D_mu K_nu + D_nu K_mu
    kd = fc.cov1[..., blades.COVECTOR_MASKS]
    return {"killing_eq": np.max(np.abs(kd + np.swapaxes(kd, -1, -2)), axis=(-2, -1))}, {}


def _killing_identities(ctx: BlockContext) -> tuple:
    fc = ctx.calc("K")
    rhs = ctx.coupling("K")
    residuals = {
        "lorenz": abs(fc.codifferential()[..., 0]),
        "ricci_identity": sup(fc.ricci_operator() - rhs),
        "wave_identity": sup(fc.covariant_dalembertian() - rhs),
    }
    return residuals, {"curvature_coupling": rhs[..., blades.COVECTOR_MASKS]}


def _lorenz_gauge(ctx: BlockContext) -> tuple:
    return {"lorenz_gauge": abs(ctx.calc("potential").codifferential()[..., 0])}, {}


def _current(ctx: BlockContext, superconducting: bool) -> tuple:
    """Maxwell extraction J = -delta dA, with the proportional-current check."""
    fc = ctx.calc("potential")
    current = fc.maxwell_current()
    residuals = {"closed_field": sup(fc.exterior_d_squared())}
    rhs = 2.0 * ctx.coupling("potential")
    if superconducting:
        residuals["superconducting"] = sup(current - rhs)
    info = {
        "current": current[..., blades.COVECTOR_MASKS],
        "current_sup": sup(current),
        "proportional_rhs": rhs[..., blades.COVECTOR_MASKS],
        "proportional_rhs_sup": sup(rhs),
    }
    return residuals, info


# -- charged fluid ------------------------------------------------------------------


def _lorentz_force(ctx: BlockContext) -> tuple:
    gd, e, m = ctx.gd, ctx.constants.e, ctx.constants.m
    pm = gd.metric
    fv = ctx.calc("V")
    fa = ctx.calc("potential")
    vval, dv = fv.value(), fv.exterior_d()
    force_form = m * dv - e * fa.exterior_d()  # d(mV - eA)
    residuals = {
        "lorentz_force": sup(pm.left_contract(vval, force_form)),
        "unit_velocity": abs(pm.scalar_product(vval, vval) - 1.0),
    }
    # transport identity: (V . dirac)V = V _| dV + 1/2 dirac(V.V)
    v_up = _raise_index(gd, vval[..., blades.COVECTOR_MASKS])
    directional = linear_combination(v_up, (fv.cov1[..., mu, :] for mu in range(4)))
    correction = 0.5 * grad_scalar_product(fv.jets, fv.jets, gd)
    transport = directional - pm.left_contract(vval, dv) - correction
    residuals["transport_identity"] = sup(transport)
    return residuals, {}


def _hamilton_jacobi(ctx: BlockContext) -> tuple:
    e, m = ctx.constants.e, ctx.constants.m
    pm = ctx.gd.metric
    fs = ctx.calc("S")
    fa = ctx.calc("potential")
    fv = ctx.calc("V")
    momentum = fs.exterior_d() + e * fa.value()  # dS + eA
    mass_shell = pm.scalar_product(momentum, momentum) - m * m
    wave = fs.covariant_dalembertian() + fs.ricci_operator()  # the squared Dirac operator on S
    delta_a = fa.codifferential()[..., 0]
    residuals = {
        "momentum_match": sup(momentum - m * fv.value()),
        "mass_shell": abs(mass_shell),
        "action_wave": abs(wave[..., 0] - e * delta_a),
        "incompressible": abs(fv.codifferential()[..., 0]),
    }
    return residuals, {"delta_potential": delta_a}


# -- energy momentum ------------------------------------------------------------------


class EnergyMomentum(NamedTuple):
    oneform: np.ndarray  # T_beta (or fluid t_alpha)
    threeform: np.ndarray  # its Hodge dual
    closure_residual: float  # grade-3 mass of the sandwich (must vanish)
    form_mismatch: float = 0.0  # fluid only: the two printed expressions compared


def energy_momentum_em(gd: GeometryData, F: np.ndarray, beta: int) -> EnergyMomentum:
    """Electromagnetic stress 1-form T_beta = -1/2 <F gamma_beta F>_1 and its dual."""
    check_index("beta", beta)
    if grades(F) - {2}:
        raise FieldError("energy_momentum_em expects a 2-form field strength")
    sandwich = _sandwich(gd, F, beta)
    t_form = -0.5 * grade_project(sandwich, 1)
    return EnergyMomentum(t_form, gd.metric.hodge(t_form), sup(grade_project(sandwich, 3)))


def energy_momentum_fluid(gd: GeometryData, J: np.ndarray, alpha: int) -> EnergyMomentum:
    """Fluid stress 1-form t_alpha = 1/2 <J gamma_alpha J>_1, both printed forms."""
    check_index("alpha", alpha)
    if grades(J) - {1}:
        raise FieldError("energy_momentum_fluid expects a 1-form current")
    pm = gd.metric
    sandwich = _sandwich(gd, J, alpha)
    t_form = 0.5 * grade_project(sandwich, 1)
    closure = sup(grade_project(sandwich, 3))
    basis = _lowered_basis(gd, alpha)
    star_t = pm.hodge(t_form)
    star_j = pm.hodge(J)
    alt = 0.5 * (
        pm.scalar_product(basis, J)[..., np.newaxis] * star_j + wedge(J, pm.left_contract(basis, star_j))
    )
    return EnergyMomentum(t_form, star_t, closure, sup(star_t - alt))


def _einstein(ctx: BlockContext) -> tuple:
    """Residuals of the gravitational structure equations; a solution detector.

    Hand-built field configurations generally fail this check unless they
    actually solve the coupled system (flat/empty and vacuum cases do).
    """
    gd, terms = ctx.gd, ctx.maxwell()
    worst = 0.0
    for alpha in range(4):
        g_form = oneform(gd.einstein_lower[..., alpha, :])
        em = -0.5 * grade_project(terms.em_sandwiches[alpha], 1)  # energy_momentum_em(...).oneform
        fluid = 0.5 * grade_project(terms.fluid_sandwiches[alpha], 1)  # energy_momentum_fluid(...).oneform
        worst = np.maximum(worst, sup(g_form + em + fluid))  # keeps a NaN
    residuals = {
        "einstein_eq": worst,
        "trace_equation": abs(gd.scalar - terms.j_sq),
    }
    return residuals, {"current": terms.j[..., blades.COVECTOR_MASKS], "scalar_curvature": gd.scalar}


# -- structure current, quadratic ------------------------------------------------------


class StructureRoots(NamedTuple):
    outcome: str  # "linear" | "two-roots" | "double-root" | "no-real-f"
    roots: tuple
    discriminant: float


_OUTCOMES = np.array(["linear", "two-roots", "double-root", "no-real-f"])


def _structure_roots(c: np.ndarray) -> tuple:
    """Real solutions of 2 c f^2 + f + 1 = 0 at each of the N values ``c``.

    Returns the outcome (an index into :data:`_OUTCOMES`), the discriminant
    1 - 8c, the roots, ascending in the first ``count`` of two slots, and
    ``count``.  At c = 0 the equation is linear, f = -1.
    """
    with np.errstate(all="ignore"):  # each point computes every case and keeps its own
        disc = 1.0 - 8.0 * c
        twice, four = (2.0 * c)[:, np.newaxis], (4.0 * c)[:, np.newaxis]
        q = -0.5 * (1.0 + np.sqrt(disc))
        f = np.stack([q / (2.0 * c), 1.0 / q], axis=-1)
        finite = np.isfinite(f)  # a root beyond float range (|c| subnormal) is dropped
        for _ in range(2):  # Newton polish; derivative nonzero off the double root
            deriv = four * f + 1.0
            f = np.where(deriv != 0.0, f - (twice * f * f + f + 1.0) / deriv, f)
        double_root = -1.0 / (4.0 * c)
    roots = np.where((~finite[:, 0] | finite[:, 1] & (f[:, 1] < f[:, 0]))[:, np.newaxis], f[:, ::-1], f)
    linear, none, double = c == 0.0, disc < 0.0, disc == 0.0
    roots[:, 0] = np.where(linear, -1.0, np.where(double, double_root, roots[:, 0]))
    count = np.where(linear | double, 1, np.where(none, 0, finite.sum(axis=1)))
    return np.where(linear, 0, np.where(none, 3, np.where(double, 2, 1))), disc, roots, count


def solve_structure_quadratic(c: float) -> StructureRoots:
    """Real solutions of 2 c f^2 + f + 1 = 0; degenerates to f = -1 at c = 0; raises ValueError at a c not finite."""
    if not np.isfinite(float(c)):
        raise ValueError(f"solve_structure_quadratic needs a finite c, got c={float(c)}")
    outcome, disc, roots, count = _structure_roots(np.array([float(c)]))
    roots = tuple(roots[0, :count[0]].tolist())
    return StructureRoots(str(_OUTCOMES[outcome[0]]), roots, float(disc[0]))


def _structure_current(ctx: BlockContext) -> list:
    """Sandwich current B = F A rev(F), the root(s) f, and current matching.

    Gating residuals are the algebraic identities (grade closure of B and the
    quadratic equation satisfied by each root); the distances between the
    Maxwell current and -f B are informational, as is the printed form of the
    consistency equation, since both hold only on exact solutions.  The
    number of roots sets the keys: the points with 0, 1 and 2 roots are one
    key layout each.
    """
    pm = ctx.gd.metric
    terms = ctx.maxwell()
    aval, F, J = terms.a, terms.f2, terms.j
    B = pm.clifford(F, pm.clifford(aval, reverse(F)))
    B1 = grade_project(B, 1)
    closure = np.reshape(sup(B - B1), -1)
    c = np.reshape(pm.scalar_product(aval, B1), -1)
    consistency = np.reshape(sup(J + B1 - (2.0 * terms.a_dot_j)[..., np.newaxis] * J), -1)
    outcome, disc, roots, count = _structure_roots(c)
    quadratic = np.abs(2.0 * c[:, np.newaxis] * roots * roots + roots + 1.0)
    j, b, f = J.reshape(-1, 1, 16), B1.reshape(-1, 1, 16), roots[..., np.newaxis]
    minus, plus = np.max(np.abs(j - b * -f), axis=-1), np.max(np.abs(j - b * f), axis=-1)
    current, b_comps = J[..., blades.COVECTOR_MASKS].reshape(-1, 4), B1[..., blades.COVECTOR_MASKS].reshape(-1, 4)
    layouts = []
    for n in range(3):
        rows = np.flatnonzero(count == n)
        if not len(rows):
            continue
        residuals = {"sandwich_grade": closure[rows]}
        info = {
            "c": c[rows],
            "discriminant": disc[rows],
            "outcome": _OUTCOMES[outcome[rows]],
            "roots": roots[rows, :n],
            "current": current[rows],
            "B": b_comps[rows],
            "self_consistency_residual": consistency[rows],
        }
        for k in range(n):
            residuals[f"quadratic_root_{k}"] = quadratic[rows, k]
            info[f"current_match_minus_fB_{k}"] = minus[rows, k]
            info[f"current_match_plus_fB_{k}"] = plus[rows, k]
        layouts.append(Layout(rows, residuals, info))
    return layouts


def sandwich_link_identities(gd: GeometryData, a: np.ndarray, f2: np.ndarray, j: np.ndarray) -> dict:
    """The four algebraic links used by the structure-equation rewrite."""
    return _sandwich_links(MaxwellTerms(gd, a, f2, j), _ricci_coupling(gd, a))


def _sandwich_links(terms: MaxwellTerms, coupling: np.ndarray) -> dict:  # coupling: A^beta R_beta of terms.a
    gd, a, f2, j = terms.gd, terms.a, terms.f2, terms.j
    pm = gd.metric
    a_up = _raise_index(gd, a[..., blades.COVECTOR_MASKS])
    faf = pm.clifford(f2, pm.clifford(a, f2))
    jaj = pm.clifford(j, pm.clifford(a, j))
    expansion = jaj - (2.0 * terms.a_dot_j)[..., np.newaxis] * j + terms.j_sq[..., np.newaxis] * a
    einstein = linear_combination(a_up, (oneform(gd.einstein_lower[..., b, :]) for b in range(4)))
    # A^beta (2 G_beta - 2 R_beta + R g_beta)
    trace_link = 2.0 * einstein - (2.0 * coupling - np.asarray(gd.scalar)[..., np.newaxis] * a)

    return {
        "em_sandwich_linearity": sup(linear_combination(a_up, terms.em_sandwiches) - faf),
        "fluid_sandwich_linearity": sup(linear_combination(a_up, terms.fluid_sandwiches) - jaj),
        "sandwich_expansion": sup(expansion),
        "einstein_trace_link": sup(trace_link),
    }


def _sandwich_identities(ctx: BlockContext) -> tuple:
    """Point-level algebra suite; uses the potential when present, else random inputs."""
    if ctx.fields["potential"] is not None:
        return _sandwich_links(ctx.maxwell(), ctx.coupling("potential")), {}
    raw = ctx.draw
    a = grade_project(raw[..., 0, :], 1)
    f2 = grade_project(raw[..., 1, :], 2)
    j = grade_project(raw[..., 2, :], 1)
    return sandwich_link_identities(ctx.gd, a, f2, j), {}


# -- the registry: name, required fields, notes, fn; README order ----------------------

_STRUCTURE_NOTES = (
    "root condition implemented as discriminant 1 - 8(A.B) >= 0; the stated "
    "(A.B)^2 <= 1/8 is not the algebraic condition and is recorded here only",
    "current-matching distances are informational: they vanish only on exact "
    "solutions of the coupled system",
)

CHECKS = {
    c.name: c
    for c in (
        Check("killing", ("K",), (), _killing),
        Check("killing_identities", ("K",), (), _killing_identities),
        Check("lorenz_gauge", ("potential",), (), _lorenz_gauge),
        Check("superconducting_current", ("potential",), (), partial(_current, superconducting=True)),
        Check("maxwell_current", ("potential",), (), partial(_current, superconducting=False)),
        Check("lorentz_force", ("potential", "V"), (), _lorentz_force),
        Check("hamilton_jacobi", ("potential", "S", "V"), (), _hamilton_jacobi),
        Check("einstein", ("potential",), (), _einstein),
        Check("structure_current", ("potential",), _STRUCTURE_NOTES, _structure_current),
        Check("sandwich_identities", (), (), _sandwich_identities),
    )
}


# -- the point loop ------------------------------------------------------------------


def requirement_problems(name: str, fields: ScenarioFields, unparsed=frozenset()) -> list:
    """One message per field that check ``name`` needs and ``fields`` lacks.

    A field named in ``unparsed`` was given but not built, and its own
    problems are reported, so a check that needs it adds none.
    """
    problems = []
    for need in CHECKS[name].needs:
        if need == "potential":
            if fields.potential() is None and not unparsed & {"A", "K"}:
                problems.append(f"check {name} requires field A (or K with coupling)")
        elif getattr(fields, need) is None and need not in unparsed:
            problems.append(f"check {name} requires field {need}")
    return problems


CHUNK = 256  # sample points whose expression jets and geometry are computed together
# points of a chunk whose tables, operators and checks are computed together.  With the
# CLI's allocator thresholds (cli._retain_freed_memory), 32 ran both verify benchmarks
# 15-20% faster than 16; 64 gained 3-5% more, but took 11% more peak RSS than 16
BLOCK = 32


PointError = namedtuple("PointError", "error")  # a point of a check as PointResult.records counts it
_NO_ERROR = PointError(None)


class PointResult:
    __slots__ = ("points", "checks")

    def __init__(self, points: np.ndarray, checks: list):
        self.points = points  # the block's (N, 4) points
        self.checks = checks  # per requested check: (check, tolerance, its check_columns layouts, errors)

    @property
    def records(self) -> list:
        """A ``PointError`` per requested check and point: its error in the check's report (or None)."""
        out = []
        for check, tol, layouts, errors in self.checks:
            entries = [_NO_ERROR] * len(self.points)
            for i, error in _report(check, tol, self.points, layouts, errors).errors.items():
                entries[i] = PointError(error)
            out += entries
        return out


def check_columns(ctx: BlockContext, check: Check) -> list:
    """``check`` on ``ctx`` as a list of :class:`Layout`, rows first on every value.

    A check that returns one ``(residuals, info)`` has one layout of all
    points; one point is a block of one here.
    """
    out = check.fn(ctx)
    if isinstance(out, list):
        return out
    lead = (np.newaxis,) if np.ndim(ctx.gd.point) == 1 else ()
    residuals, info = ({key: np.asarray(v)[lead] for key, v in values.items()} for values in out)
    return [Layout(np.arange(len(np.reshape(ctx.gd.point, (-1, 4)))), residuals, info)]


def _report(check: Check, tol: float, points: np.ndarray, layouts: list, errors: dict) -> ResidualReport:
    """The report of ``check`` at ``points`` from its :func:`check_columns` layouts.

    ``errors`` maps each point that fails before the check (its geometry or
    a field the check reads) to its error.  Any other point with a value
    that is not finite gets the error of the first, residuals before info
    and each in key order, and leaves its layout.
    """
    errors = dict(errors)
    kept = []
    for rows, residuals, info in layouts:
        fresh = np.isin(rows, list(errors), invert=True)
        for kind, values in (("residual", residuals), ("info", info)):
            for key, value in values.items():
                if value.dtype.kind == "f":
                    bad = fresh & ~np.isfinite(value).all(axis=tuple(range(1, value.ndim)))
                    errors.update((i, f"non-finite {kind} '{key}'") for i in rows[bad].tolist())
                    fresh &= ~bad
        if fresh.any():
            kept.append(Layout(rows[fresh], *({key: v[fresh] for key, v in values.items()}
                                              for values in (residuals, info))))
    return ResidualReport(check.name, tol, points, kept, errors, check.notes)


def _joined(parts: list) -> list:
    """The layouts of blocks ``(first point, layouts)`` joined: one per key layout, all points' rows."""
    groups: dict = {}
    for first, layouts in parts:
        for rows, residuals, info in layouts:
            keys = (tuple(residuals), tuple((key, v.shape[1:]) for key, v in info.items()))
            groups.setdefault(keys, []).append(Layout(first + rows, residuals, info))
    joined = []
    for group in groups.values():
        rows, *columns = zip(*group)
        joined.append(Layout(np.concatenate(rows), *({key: np.concatenate([c[key] for c in blocks])
                                                      for key in blocks[0]} for blocks in columns)))
    return joined


def run_pointwise(
    gd: GeometryData,
    checks: Sequence[Check],
    tols: Sequence[float],
    fields: dict,
    constants: Constants,
    draws,
) -> PointResult:
    """Run ``checks`` on one block of points against one shared :class:`BlockContext`.

    ``gd`` is the block's geometry, a :meth:`GeometryData.block` of its
    chunk's, and ``draws`` are the block's (N, 3, 16) random inputs of
    ``sandwich_identities``, or None.  Each check runs once on the whole
    block.  Every point gets what it gets alone: a point the geometry
    rejects gets its geometry error, and otherwise a check's point gets the
    error of the first field whose jets that check reads there, if any.
    Returns each check's layouts and errors.
    """
    with np.errstate(all="ignore"):  # non-finite values become point errors in _report
        ctx = BlockContext(gd, fields, constants, draws)
        failed = {i: str(err) for i, err in gd.errors.items()}
        results = []
        for check, tol in zip(checks, tols):
            ctx.asked.clear()
            layouts = check_columns(ctx, check)
            errors = dict(failed)
            for fc in ctx.asked:
                for k, err in fc.jets.errors.items():
                    errors.setdefault(k, str(err))
            results.append((check, tol, layouts, errors))
    return PointResult(gd.point, results)


def _chunk_results(spec: MetricSpec, points: np.ndarray, checks: Sequence[Check], tols: Sequence[float],
                   fields: dict, constants: Constants, draws):
    """``(first point, PointResult)`` of each block of one chunk of ``points``, in order.

    The chunk's expression jets (:class:`expr.ChunkJets`, given every
    metric component and every non-zero component of ``fields``, so that
    their shared subtrees are evaluated once) and geometry are computed
    once, here; each block runs on its slice of them
    (:func:`run_pointwise`).  Both are dropped when the last block is done.
    The Riemann tensor is dropped at once: :func:`curvature` has validated
    it, no check reads it, and the blocks carry none.
    """
    sources = [e for row in spec.g_lower for e in row]
    sources += [e for f in fields.values() if f is not None for e in f.comps if not ex.is_zero(e)]
    jets = ex.ChunkJets(spec.coords, points, spec.params, sources)
    with np.errstate(all="ignore"):  # non-finite values become point errors
        chunk = curvature(spec, points, jet=jets.block(0, len(points)))
    chunk.riemann = None
    for first in range(0, len(points), BLOCK):
        stop = min(first + BLOCK, len(points))
        gd = chunk.block(first, stop, jets.block(first, stop))
        block_draws = None if draws is None else draws[first:stop]
        yield first, run_pointwise(gd, checks, tols, fields, constants, block_draws)


def _sandwich_draws(points: np.ndarray, seed: int) -> np.ndarray:
    """The (n, 3, 16) random inputs of ``sandwich_identities`` at the (n, 4) ``points``.

    One ``uniform(-1, 1)`` draw of (3, 16) per point from ``default_rng(seed)``,
    in point order, made as one draw of the whole array.  Equal points
    (``-0.0`` equal to ``0.0``) get one input, the draw of their last
    occurrence.
    """
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(points), 3, 16))
    keys = points + 0.0  # -0.0 + 0.0 is 0.0
    order = np.lexsort(keys.T)  # stable: equal points keep their order
    ordered = keys[order]
    last = np.ones(len(points), dtype=bool)  # whether a point in sorted order ends its run
    last[:-1] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ends = np.flatnonzero(last)
    source = np.empty(len(points), dtype=np.intp)  # the index of each point's last occurrence
    source[order] = order[ends[np.searchsorted(ends, np.arange(len(points)))]]
    moved = np.flatnonzero(source != np.arange(len(points)))
    draws[moved] = draws[source[moved]]
    return draws


def run_checks(
    spec: MetricSpec,
    fields: ScenarioFields,
    names: Sequence[str],
    points,
    tols: Sequence[float],
    seed: int = 0,
) -> list:
    """Run checks ``names`` with tolerances ``tols`` over ``points``, block by block.

    ``points`` is an (n, 4) float array, or anything ``np.asarray`` makes
    one of; every report holds that one array.  The jets of every metric
    component and of every component of the fields the checks read are
    evaluated for :data:`CHUNK` points at a time, when the first block of
    the chunk asks for them (:class:`expr.ChunkJets`), and so is the
    geometry (:func:`_chunk_results`).  The product tables and every check
    then run on :data:`BLOCK` points of a chunk at a time
    (:func:`run_pointwise`), and each block is dropped before the next,
    each chunk before the next; every point gets exactly the results it
    gets alone.

    Returns one :class:`ResidualReport` per name, in order.  ``seed`` draws
    the random inputs of ``sandwich_identities`` when no potential is given.
    """
    problems = [p for n in names for p in requirement_problems(n, fields)]
    if problems:
        raise FieldError("; ".join(problems))
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    checks = [CHECKS[n] for n in names]
    by_name = {"K": fields.K, "S": fields.S, "V": fields.V, "potential": fields.potential()}
    draws = _sandwich_draws(points, seed) if by_name["potential"] is None else None
    parts = [([], {}) for _ in checks]  # per check: (first point, layouts) of each block, errors
    for start in range(0, len(points), CHUNK):
        chunk_draws = None if draws is None else draws[start:start + CHUNK]
        for first, result in _chunk_results(spec, points[start:start + CHUNK], checks, tols, by_name,
                                            fields.constants, chunk_draws):
            for (blocks, errors), (_, _, layouts, failed) in zip(parts, result.checks):
                blocks.append((start + first, layouts))
                errors.update((start + first + k, err) for k, err in failed.items())
    return [_report(check, tol, points, _joined(blocks), errors)
            for check, tol, (blocks, errors) in zip(checks, tols, parts)]
