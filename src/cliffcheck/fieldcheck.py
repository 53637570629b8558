"""Physics-level residual checks on user-supplied fields.

Every check is one entry of :data:`CHECKS`: its name, the fields it needs,
its notes and ``fn(ctx) -> (residuals, info)``, evaluated once on a block of
sample points' :class:`BlockContext`, with one value per point (N first).
One point is the same code without N, and the reference.  A point that
fails is not computed again: the block's geometry and field jets keep its
error, and the point gets the error it gets alone (:func:`run_pointwise`).
:func:`run_checks` visits each block once, computes its geometry and field
jets once, runs every requested check against them and gathers one
:class:`ResidualReport` per check, which keeps the results as columns: one
array per key, one row per point.  Residuals under ``residuals`` gate the
pass flag; quantities under ``info`` (sampled currents, quadratic roots,
solution-matching distances) are diagnostics that depend on the supplied
fields actually solving the coupled system, which hand-built scenarios
generally do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from . import blades
from . import expr as ex
from .algebra import Multivector, grade_project, wedge
from .diffops import FieldCalculus, MultivectorField, grad_scalar_product
from .errors import FieldError
from .geometry import GeometryData, MetricSpec, curvature


@dataclass(frozen=True)
class Constants:
    """Physical constants: charge, mass, and the potential-to-Killing factor."""

    e: float = 1.0
    m: float = 1.0
    coupling: float = 1.0


@dataclass(frozen=True)
class ScenarioFields:
    K: MultivectorField | None = None
    A: MultivectorField | None = None
    S: MultivectorField | None = None
    V: MultivectorField | None = None
    constants: Constants = Constants()

    def __post_init__(self):
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


@dataclass
class PointRecord:
    """One point of a check as the report holds it, built from the columns on demand."""

    point: tuple
    residuals: dict
    info: dict = field(default_factory=dict)
    error: str | None = None
    passed: bool = True


@dataclass(eq=False)  # these hold arrays, so == is identity, not a field compare
class Layout:
    """The points of a check that share one key layout, and their columns.

    ``index`` holds the points' indices, ascending.  Every column has one
    row per point of ``index``: one (M,) array per residual key and one
    (M, ...) array per info key, each in the order the report writes them.
    """

    index: np.ndarray
    residuals: dict
    info: dict


@dataclass(eq=False)
class ResidualReport:
    """One check at P points, as columns.

    Each point has an error (``errors``: point index -> message) or belongs
    to one :class:`Layout`.  A point passes when each of its residuals is at
    most ``tolerance``, and the check passes when it has points and each of
    them passes.  :attr:`records` and :meth:`to_dict` are the per-point view.
    """

    check: str
    tolerance: float
    points: np.ndarray  # (P, 4)
    layouts: list
    errors: dict
    notes: tuple = ()

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

    @property
    def records(self) -> list:
        """One :class:`PointRecord` per point, in point order, built from the columns."""
        points = list(map(tuple, self.points.tolist()))
        out = [None] * len(points)
        for i, error in self.errors.items():
            out[i] = PointRecord(points[i], {}, {}, error, False)
        for lay, ok in zip(self.layouts, self.verdicts):
            rows = zip(lay.index.tolist(), _rows(lay.residuals, len(ok)), _rows(lay.info, len(ok)), ok.tolist())
            for i, residuals, info, passed in rows:
                out[i] = PointRecord(points[i], residuals, info, None, passed)
        return out

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "notes": list(self.notes),
            "points": [
                {
                    "point": list(r.point),
                    "residuals": r.residuals,
                    "info": r.info,
                    "error": r.error,
                    "passed": r.passed,
                }
                for r in self.records
            ],
        }


def _rows(columns: dict, count: int) -> list:
    """The ``count`` rows of ``columns`` as dicts of Python values."""
    if not columns:
        return [{} for _ in range(count)]
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


# -- the block context and the shape of a check ----------------------------------------


class BlockContext:
    """A block of N sample points, or one point: geometry and one memoized calculator per field.

    Over a block ``gd`` is the block's :class:`GeometryData` and every array
    has N first; one point is the case without N.
    """

    def __init__(self, gd: GeometryData, fields: dict, constants: Constants, draw):
        self.gd = gd
        self.fields = fields  # "K" | "S" | "V" | "potential" -> MultivectorField | None
        self.constants = constants
        self.draw = draw  # (N, 3, 16) or (3, 16) random inputs of sandwich_identities, or None
        self.asked: list = []  # the calculators handed out, in order, since it was last cleared
        self._calcs: dict = {}

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


@dataclass(frozen=True)
class Check:
    """One check.  ``fn(ctx)`` runs once on a :class:`BlockContext` and returns
    ``(residuals, info)``: dicts whose values have one entry per point, N
    first (none for one point).  A check whose keys differ from point to
    point returns a list of ``(rows, residuals, info)`` instead, one per key
    layout, with ``rows`` the points that have it and every value rows
    first, one point included (:func:`check_columns`).
    """

    name: str
    needs: tuple  # fields read: "K", "S", "V", "potential" (A, else coupling * K)
    notes: tuple
    fn: Callable  # BlockContext -> (residuals, info)


# -- helpers ---------------------------------------------------------------------


def _lowered_basis(gd: GeometryData, beta: int) -> Multivector:
    return Multivector.oneform(gd.g_lower[..., beta, :])


def _raise_index(gd: GeometryData, comps: np.ndarray) -> np.ndarray:
    """g^{ab} comps_b at each point."""
    return (gd.g_upper @ comps[..., np.newaxis])[..., 0]


def _ricci_coupling(gd: GeometryData, a: Multivector) -> Multivector:
    """A_alpha R^alpha = A^beta R_beta: the curvature coupling 1-form."""
    up = _raise_index(gd, a.oneform_components())
    return Multivector.oneform((up[..., np.newaxis, :] @ gd.ricci)[..., 0, :])  # A^b R_{b nu}


def _einstein_lower(gd: GeometryData) -> np.ndarray:
    """G_{ab} = R_{ab} - R g_{ab} / 2 at each point."""
    half_scalar = np.asarray(0.5 * gd.scalar)[..., np.newaxis, np.newaxis]
    return gd.ricci - half_scalar * gd.g_lower


# -- killing / proposition 1 ---------------------------------------------------------


def _killing(ctx: BlockContext) -> tuple:
    fc = ctx.calc("K")
    # max over (mu, nu) of D_mu K_nu + D_nu K_mu
    kd = fc.cov1[..., blades.COVECTOR_MASKS]
    return {"killing_eq": np.max(np.abs(kd + np.swapaxes(kd, -1, -2)), axis=(-2, -1))}, {}


def _killing_identities(ctx: BlockContext) -> tuple:
    gd, fc = ctx.gd, ctx.calc("K")
    rhs = _ricci_coupling(gd, fc.value())
    residuals = {
        "lorenz": abs(fc.codifferential().scalar_part),
        "ricci_identity": (fc.ricci_operator() - rhs).sup(),
        "wave_identity": (fc.covariant_dalembertian() - rhs).sup(),
    }
    return residuals, {"curvature_coupling": rhs.oneform_components()}


def _lorenz_gauge(ctx: BlockContext) -> tuple:
    return {"lorenz_gauge": abs(ctx.calc("potential").codifferential().scalar_part)}, {}


def _current(ctx: BlockContext, superconducting: bool) -> tuple:
    """Maxwell extraction J = -delta dA, with the proportional-current check."""
    fc = ctx.calc("potential")
    current = fc.maxwell_current()
    residuals = {"closed_field": fc.exterior_d_squared().sup()}
    rhs = 2.0 * _ricci_coupling(ctx.gd, fc.value())
    if superconducting:
        residuals["superconducting"] = (current - rhs).sup()
    info = {
        "current": current.oneform_components(),
        "current_sup": current.sup(),
        "proportional_rhs": rhs.oneform_components(),
        "proportional_rhs_sup": rhs.sup(),
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
        "lorentz_force": pm.left_contract(vval, force_form).sup(),
        "unit_velocity": abs(pm.scalar_product(vval, vval) - 1.0),
    }
    # transport identity: (V . dirac)V = V _| dV + 1/2 dirac(V.V)
    v_up = _raise_index(gd, vval.oneform_components())
    directional = Multivector.zero()
    for mu in range(4):
        directional = directional + v_up[..., mu] * Multivector(fv.cov1[..., mu, :])
    correction = 0.5 * grad_scalar_product(fv.jets, fv.jets, gd)
    transport = directional - pm.left_contract(vval, dv) - correction
    residuals["transport_identity"] = transport.sup()
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
    delta_a = fa.codifferential().scalar_part
    residuals = {
        "momentum_match": (momentum - m * fv.value()).sup(),
        "mass_shell": abs(mass_shell),
        "action_wave": abs(wave.scalar_part - e * delta_a),
        "incompressible": abs(fv.codifferential().scalar_part),
    }
    return residuals, {"delta_potential": delta_a}


# -- energy momentum ------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyMomentum:
    oneform: Multivector  # T_beta (or fluid t_alpha)
    threeform: Multivector  # its Hodge dual
    closure_residual: float  # grade-3 mass of the sandwich (must vanish)
    form_mismatch: float = 0.0  # fluid only: the two printed expressions compared


def _sandwich_oneform(gd: GeometryData, x: Multivector, beta: int, half: float) -> tuple:
    """The sandwich x gamma_beta x and ``half`` times its grade-1 part, a stress 1-form."""
    pm = gd.metric
    sandwich = pm.clifford(x, pm.clifford(_lowered_basis(gd, beta), x))
    return sandwich, half * grade_project(sandwich, 1)


def energy_momentum_em(gd: GeometryData, F: Multivector, beta: int) -> EnergyMomentum:
    """Electromagnetic stress 1-form T_beta = -1/2 <F gamma_beta F>_1 and its dual."""
    if F.grades(tol=0.0) - {2}:
        raise FieldError("energy_momentum_em expects a 2-form field strength")
    sandwich, t_form = _sandwich_oneform(gd, F, beta, -0.5)
    return EnergyMomentum(t_form, gd.metric.hodge(t_form), grade_project(sandwich, 3).sup())


def energy_momentum_fluid(gd: GeometryData, J: Multivector, alpha: int) -> EnergyMomentum:
    """Fluid stress 1-form t_alpha = 1/2 <J gamma_alpha J>_1, both printed forms."""
    if J.grades(tol=0.0) - {1}:
        raise FieldError("energy_momentum_fluid expects a 1-form current")
    pm = gd.metric
    sandwich, t_form = _sandwich_oneform(gd, J, alpha, 0.5)
    closure = grade_project(sandwich, 3).sup()
    basis = _lowered_basis(gd, alpha)
    star_t = pm.hodge(t_form)
    star_j = pm.hodge(J)
    alt = 0.5 * (
        pm.scalar_product(basis, J) * star_j + wedge(J, pm.left_contract(basis, star_j))
    )
    return EnergyMomentum(t_form, star_t, closure, (star_t - alt).sup())


def _einstein(ctx: BlockContext) -> tuple:
    """Residuals of the gravitational structure equations; a solution detector.

    Hand-built field configurations generally fail this check unless they
    actually solve the coupled system (flat/empty and vacuum cases do).
    """
    gd = ctx.gd
    pm = gd.metric
    fa = ctx.calc("potential")
    F = fa.exterior_d()
    J = fa.maxwell_current()
    einstein_lower = _einstein_lower(gd)
    worst = 0.0
    for alpha in range(4):
        g_form = Multivector.oneform(einstein_lower[..., alpha, :])
        em = _sandwich_oneform(gd, F, alpha, -0.5)[1]  # energy_momentum_em(...).oneform
        fluid = _sandwich_oneform(gd, J, alpha, 0.5)[1]  # energy_momentum_fluid(...).oneform
        worst = np.maximum(worst, (g_form + em + fluid).sup())  # keeps a NaN
    j_sq = pm.scalar_product(J, J)
    residuals = {
        "einstein_eq": worst,
        "trace_equation": abs(gd.scalar - j_sq),
    }
    return residuals, {"current": J.oneform_components(), "scalar_curvature": gd.scalar}


# -- structure current, quadratic ------------------------------------------------------


@dataclass(frozen=True)
class StructureRoots:
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
    """Real solutions of 2 c f^2 + f + 1 = 0; degenerates to f = -1 at c = 0."""
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
    fa = ctx.calc("potential")
    aval = fa.value()
    F = fa.exterior_d()
    J = fa.maxwell_current()
    B = pm.clifford(F, pm.clifford(aval, F.reverse()))
    B1 = grade_project(B, 1)
    closure = np.reshape((B - B1).sup(), -1)
    c = np.reshape(pm.scalar_product(aval, B1), -1)
    consistency = np.reshape((J + B1 - 2.0 * pm.scalar_product(aval, J) * J).sup(), -1)
    outcome, disc, roots, count = _structure_roots(c)
    quadratic = np.abs(2.0 * c[:, np.newaxis] * roots * roots + roots + 1.0)
    j, b, f = J.coeffs.reshape(-1, 1, 16), B1.coeffs.reshape(-1, 1, 16), roots[..., np.newaxis]
    minus, plus = np.max(np.abs(j - b * -f), axis=-1), np.max(np.abs(j - b * f), axis=-1)
    current, b_comps = J.oneform_components().reshape(-1, 4), B1.oneform_components().reshape(-1, 4)
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
        layouts.append((rows, residuals, info))
    return layouts


def sandwich_link_identities(gd: GeometryData, a: Multivector, f2: Multivector, j: Multivector) -> dict:
    """The four algebraic links used by the structure-equation rewrite."""
    pm = gd.metric
    a_up = _raise_index(gd, a.oneform_components())

    def contracted_sandwich(x: Multivector) -> Multivector:
        out = Multivector.zero()
        for beta in range(4):
            out = out + a_up[..., beta] * pm.clifford(x, pm.clifford(_lowered_basis(gd, beta), x))
        return out

    faf = pm.clifford(f2, pm.clifford(a, f2))
    jaj = pm.clifford(j, pm.clifford(a, j))
    j_sq = pm.scalar_product(j, j)
    expansion = jaj - 2.0 * pm.scalar_product(a, j) * j + j_sq * a

    ricci_sum = Multivector.zero()
    einstein_sum = Multivector.zero()
    einstein_lower = _einstein_lower(gd)
    for beta in range(4):
        ricci_row = Multivector.oneform(gd.ricci[..., beta, :])
        einstein_row = Multivector.oneform(einstein_lower[..., beta, :])
        ricci_sum = ricci_sum + a_up[..., beta] * ricci_row
        einstein_sum = einstein_sum + a_up[..., beta] * einstein_row
    trace_link = 2.0 * einstein_sum - (2.0 * ricci_sum - gd.scalar * a)

    return {
        "em_sandwich_linearity": (contracted_sandwich(f2) - faf).sup(),
        "fluid_sandwich_linearity": (contracted_sandwich(j) - jaj).sup(),
        "sandwich_expansion": expansion.sup(),
        "einstein_trace_link": trace_link.sup(),
    }


def _sandwich_identities(ctx: BlockContext) -> tuple:
    """Point-level algebra suite; uses the potential when present, else random inputs."""
    if ctx.fields["potential"] is not None:
        fa = ctx.calc("potential")
        a = fa.value()
        f2 = fa.exterior_d()
        j = fa.maxwell_current()
    else:
        raw = ctx.draw
        a = grade_project(Multivector(raw[..., 0, :]), 1)
        f2 = grade_project(Multivector(raw[..., 1, :]), 2)
        j = grade_project(Multivector(raw[..., 2, :]), 1)
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


CHUNK = 256  # sample points whose expression jets are evaluated together
BLOCK = 16  # points of a chunk whose geometry, tables and checks are computed together


@dataclass(eq=False)
class PointResult:
    points: np.ndarray  # the block's (N, 4) points
    checks: list  # per requested check: (check, tolerance, its check_columns layouts, errors)

    @property
    def records(self) -> list:
        """Every requested check's :class:`PointRecord` at every point, built on demand."""
        return [record for check, tol, layouts, errors in self.checks
                for record in _report(check, tol, self.points, layouts, errors).records]


def _point_key(pt) -> tuple:
    return tuple(float(v) for v in pt)


def check_columns(ctx: BlockContext, check: Check) -> list:
    """``check`` on ``ctx`` as key layouts ``(rows, residuals, info)``, rows first on every value.

    A check that returns one ``(residuals, info)`` has one layout of all
    points; one point is a block of one here.
    """
    out = check.fn(ctx)
    if isinstance(out, list):
        return out
    lead = (np.newaxis,) if np.ndim(ctx.gd.point) == 1 else ()
    residuals, info = ({key: np.asarray(v)[lead] for key, v in values.items()} for values in out)
    return [(np.arange(len(np.reshape(ctx.gd.point, (-1, 4)))), residuals, info)]


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
        fresh = np.array([i not in errors for i in rows.tolist()], dtype=bool)
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
            groups.setdefault(keys, []).append((first + rows, residuals, info))
    joined = []
    for group in groups.values():
        rows, *columns = zip(*group)
        joined.append((np.concatenate(rows), *({key: np.concatenate([c[key] for c in blocks])
                                                for key in blocks[0]} for blocks in columns)))
    return joined


def run_pointwise(
    spec: MetricSpec,
    pts: Sequence,
    checks: Sequence[Check],
    tols: Sequence[float],
    fields: dict,
    constants: Constants,
    draws,
    jets: ex.ChunkJets,
    first: int,
) -> PointResult:
    """Run ``checks`` on one block of points against one shared :class:`BlockContext`.

    ``pts`` are the block's N points, points ``first:first + N`` of the chunk
    whose jets are ``jets``; ``draws`` are their (N, 3, 16) random inputs of
    ``sandwich_identities``, or None.  The block's geometry is computed here
    and each check runs once on the whole block.  Every point gets what it
    gets alone: a point the geometry rejects gets its geometry error, and
    otherwise a check's point gets the error of the first field whose jets
    that check reads there, if any.  Returns each check's layouts and errors.
    """
    stop = first + len(pts)
    with np.errstate(all="ignore"):  # non-finite values become point errors in _report
        gd = curvature(spec, jets.points[first:stop], jet=jets.block(first, stop))
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


def run_checks(
    spec: MetricSpec,
    fields: ScenarioFields,
    names: Sequence[str],
    points: Sequence,
    tols: Sequence[float],
    seed: int = 0,
) -> list:
    """Run checks ``names`` with tolerances ``tols`` over ``points``, block by block.

    The jets of every metric component and of every component of the fields
    the checks read are evaluated for :data:`CHUNK` points at a time, when
    the first block of the chunk asks for them (:class:`expr.ChunkJets`).
    The geometry, the product tables and every check then run on
    :data:`BLOCK` points of a chunk at a time (:func:`run_pointwise`), and
    each block is dropped before the next; every point gets exactly the
    results it gets alone.

    Returns one :class:`ResidualReport` per name, in order.  ``seed`` draws
    the random inputs of ``sandwich_identities`` when no potential is given.
    """
    problems = [p for n in names for p in requirement_problems(n, fields)]
    if problems:
        raise FieldError("; ".join(problems))
    checks = [CHECKS[n] for n in names]
    by_name = {"K": fields.K, "S": fields.S, "V": fields.V, "potential": fields.potential()}
    draws = {}
    if by_name["potential"] is None:
        # keyed by point, so a repeated point gets the same draw
        rng = np.random.default_rng(seed)
        draws = {_point_key(pt): rng.uniform(-1.0, 1.0, size=(3, 16)) for pt in points}
    parts = [([], {}) for _ in checks]  # per check: (first point, layouts) of each block, errors
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        jets = ex.ChunkJets(spec.coords, chunk, spec.params)
        for first in range(0, len(chunk), BLOCK):
            pts = chunk[first:first + BLOCK]
            block_draws = np.stack([draws[_point_key(pt)] for pt in pts]) if draws else None
            result = run_pointwise(spec, pts, checks, tols, by_name, fields.constants,
                                   block_draws, jets, first)
            for (blocks, errors), (_, _, layouts, failed) in zip(parts, result.checks):
                blocks.append((start + first, layouts))
                errors.update((start + first + k, err) for k, err in failed.items())
    at = np.asarray(points, dtype=float).reshape(-1, 4)
    return [_report(check, tol, at, _joined(blocks), errors)
            for check, tol, (blocks, errors) in zip(checks, tols, parts)]
