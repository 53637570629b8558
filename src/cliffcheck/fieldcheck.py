"""Physics-level residual checks on user-supplied fields.

Every check is one entry of :data:`CHECKS`: its name, the fields it needs,
its notes and ``fn(ctx) -> (residuals, info)``, evaluated on one sample
point's :class:`PointContext`.  :func:`run_checks` visits each point once,
computes its geometry and field jets once, runs every requested check
against them and gathers one :class:`ResidualReport` per check.  Residuals
under ``residuals`` gate the pass flag; quantities under ``info`` (sampled
currents, quadratic roots, solution-matching distances) are diagnostics that
depend on the supplied fields actually solving the coupled system, which
hand-built scenarios generally do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .algebra import Multivector, grade_project, wedge
from .diffops import FieldCalculus, MultivectorField, grad_scalar_product
from .errors import CliffcheckError, FieldError
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
    point: tuple
    residuals: dict
    info: dict = field(default_factory=dict)
    error: str | None = None
    passed: bool = True


@dataclass
class ResidualReport:
    check: str
    tolerance: float
    records: list
    max_residual: float
    passed: bool
    notes: tuple = ()

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
                    "residuals": dict(r.residuals),
                    "info": r.info,
                    "error": r.error,
                    "passed": r.passed,
                }
                for r in self.records
            ],
        }


# -- the per-point context and the shape of a check --------------------------------


class PointContext:
    """One sample point: its geometry and one memoized calculator per field."""

    def __init__(self, gd: GeometryData, fields: dict, constants: Constants, draw, jet):
        self.gd = gd
        self.fields = fields  # "K" | "S" | "V" | "potential" -> MultivectorField | None
        self.constants = constants
        self.draw = draw  # (3, 16) random inputs of sandwich_identities, or None
        self.jet = jet  # jet source of this point, see geometry.metric_at
        self._calcs: dict = {}

    def calc(self, name: str) -> FieldCalculus:
        """The calculator of field ``name``, shared by every check at this point.

        Keyed by the field object, so K and a potential that is K itself
        (coupling 1) share one set of jets.
        """
        f = self.fields[name]
        fc = self._calcs.get(id(f))
        if fc is None:
            fc = self._calcs[id(f)] = FieldCalculus(f, self.gd, self.jet)
        return fc


@dataclass(frozen=True)
class Check:
    name: str
    needs: tuple  # fields read: "K", "S", "V", "potential" (A, else coupling * K)
    notes: tuple
    fn: Callable  # PointContext -> (residuals, info)
    optional: tuple = ()  # fields read when present


# -- helpers ---------------------------------------------------------------------


def _lowered_basis(gd: GeometryData, beta: int) -> Multivector:
    c = np.zeros(16)
    for nu in range(4):
        c[1 << nu] = gd.g_lower[beta, nu]
    return Multivector(c)


def _oneform_components(x: Multivector) -> np.ndarray:
    return np.array([x.coeffs[1 << i] for i in range(4)])


def _ricci_coupling(gd: GeometryData, a: Multivector) -> Multivector:
    """A_alpha R^alpha = A^beta R_beta: the curvature coupling 1-form."""
    comps = _oneform_components(a)
    coupled = (gd.g_upper @ comps) @ gd.ricci  # A^b R_{b nu}
    out = np.zeros(16)
    for nu in range(4):
        out[1 << nu] = coupled[nu]
    return Multivector(out)


def _oneform_list(x: Multivector) -> list:
    return [float(x.coeffs[1 << i]) for i in range(4)]


# -- killing / proposition 1 ---------------------------------------------------------


def _killing(ctx: PointContext) -> tuple:
    fc = ctx.calc("K")
    # max over (mu, nu) of D_mu K_nu + D_nu K_mu
    kd = np.array([[fc.cov1[mu][1 << nu] for nu in range(4)] for mu in range(4)])
    return {"killing_eq": float(np.max(np.abs(kd + kd.T)))}, {}


def _killing_identities(ctx: PointContext) -> tuple:
    gd, fc = ctx.gd, ctx.calc("K")
    rhs = _ricci_coupling(gd, fc.value())
    residuals = {
        "lorenz": abs(fc.codifferential().scalar_part),
        "ricci_identity": (fc.ricci_operator() - rhs).sup(),
        "wave_identity": (fc.covariant_dalembertian() - rhs).sup(),
    }
    return residuals, {"curvature_coupling": _oneform_list(rhs)}


def _lorenz_gauge(ctx: PointContext) -> tuple:
    return {"lorenz_gauge": abs(ctx.calc("potential").codifferential().scalar_part)}, {}


def _current(ctx: PointContext, superconducting: bool) -> tuple:
    """Maxwell extraction J = -delta dA, with the proportional-current check."""
    fc = ctx.calc("potential")
    current = fc.maxwell_current()
    residuals = {"closed_field": fc.exterior_d_squared().sup()}
    rhs = 2.0 * _ricci_coupling(ctx.gd, fc.value())
    if superconducting:
        residuals["superconducting"] = (current - rhs).sup()
    info = {
        "current": _oneform_list(current),
        "current_sup": current.sup(),
        "proportional_rhs": _oneform_list(rhs),
        "proportional_rhs_sup": rhs.sup(),
    }
    return residuals, info


# -- charged fluid ------------------------------------------------------------------


def _lorentz_force(ctx: PointContext) -> tuple:
    gd, e, m = ctx.gd, ctx.constants.e, ctx.constants.m
    pm = gd.metric
    fv = ctx.calc("V")
    fa = ctx.calc("potential")
    vval = fv.value()
    force_form = m * fv.exterior_d() - e * fa.exterior_d()  # d(mV - eA)
    residuals = {
        "lorentz_force": pm.left_contract(vval, force_form).sup(),
        "unit_velocity": abs(pm.scalar_product(vval, vval) - 1.0),
    }
    # transport identity: (V . dirac)V = V _| dV + 1/2 dirac(V.V)
    v_up = gd.g_upper @ _oneform_components(vval)
    directional = Multivector.zero()
    for mu in range(4):
        directional = directional + v_up[mu] * Multivector(fv.cov1[mu])
    correction = 0.5 * grad_scalar_product(fv.jets, fv.jets, gd)
    transport = directional - pm.left_contract(vval, fv.exterior_d()) - correction
    residuals["transport_identity"] = transport.sup()
    return residuals, {}


def _hamilton_jacobi(ctx: PointContext) -> tuple:
    e, m = ctx.constants.e, ctx.constants.m
    pm = ctx.gd.metric
    fs = ctx.calc("S")
    fv = ctx.calc("V")
    fa = ctx.calc("potential")
    momentum = fs.exterior_d() + e * fa.value()  # dS + eA
    mass_shell = pm.scalar_product(momentum, momentum) - m * m
    wave = fs.hodge_dalembertian().value
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


def energy_momentum_em(gd: GeometryData, F: Multivector, beta: int) -> EnergyMomentum:
    """Electromagnetic stress 1-form T_beta = -1/2 <F gamma_beta F>_1 and its dual."""
    if F.grades(tol=0.0) - {2}:
        raise FieldError("energy_momentum_em expects a 2-form field strength")
    pm = gd.metric
    sandwich = pm.clifford(F, pm.clifford(_lowered_basis(gd, beta), F))
    closure = grade_project(sandwich, 3).sup()
    t_form = -0.5 * grade_project(sandwich, 1)
    return EnergyMomentum(t_form, pm.hodge(t_form), closure)


def energy_momentum_fluid(gd: GeometryData, J: Multivector, alpha: int) -> EnergyMomentum:
    """Fluid stress 1-form t_alpha = 1/2 <J gamma_alpha J>_1, both printed forms."""
    if J.grades(tol=0.0) - {1}:
        raise FieldError("energy_momentum_fluid expects a 1-form current")
    pm = gd.metric
    basis = _lowered_basis(gd, alpha)
    sandwich = pm.clifford(J, pm.clifford(basis, J))
    closure = grade_project(sandwich, 3).sup()
    t_form = 0.5 * grade_project(sandwich, 1)
    star_t = pm.hodge(t_form)
    star_j = pm.hodge(J)
    alt = 0.5 * (
        pm.scalar_product(basis, J) * star_j + wedge(J, pm.left_contract(basis, star_j))
    )
    return EnergyMomentum(t_form, star_t, closure, (star_t - alt).sup())


def _einstein(ctx: PointContext) -> tuple:
    """Residuals of the gravitational structure equations; a solution detector.

    Hand-built field configurations generally fail this check unless they
    actually solve the coupled system (flat/empty and vacuum cases do).
    """
    gd = ctx.gd
    pm = gd.metric
    fa = ctx.calc("potential")
    F = fa.exterior_d()
    J = fa.maxwell_current()
    einstein_lower = gd.ricci - 0.5 * gd.scalar * gd.g_lower
    worst = 0.0
    for alpha in range(4):
        coeffs = np.zeros(16)
        for nu in range(4):
            coeffs[1 << nu] = einstein_lower[alpha, nu]
        g_form = Multivector(coeffs)
        em = energy_momentum_em(gd, F, alpha)
        fluid = energy_momentum_fluid(gd, J, alpha)
        worst = max(worst, (g_form + em.oneform + fluid.oneform).sup())
    j_sq = pm.scalar_product(J, J)
    residuals = {
        "einstein_eq": worst,
        "trace_equation": abs(gd.scalar - j_sq),
    }
    return residuals, {"current": _oneform_list(J), "scalar_curvature": gd.scalar}


# -- structure current, quadratic ------------------------------------------------------


@dataclass(frozen=True)
class StructureRoots:
    outcome: str  # "linear" | "two-roots" | "double-root" | "no-real-f"
    roots: tuple
    discriminant: float


def solve_structure_quadratic(c: float) -> StructureRoots:
    """Real solutions of 2 c f^2 + f + 1 = 0; degenerates to f = -1 at c = 0."""
    if c == 0.0:
        return StructureRoots("linear", (-1.0,), 1.0)
    disc = 1.0 - 8.0 * c
    if disc < 0.0:
        return StructureRoots("no-real-f", (), disc)
    if disc == 0.0:
        return StructureRoots("double-root", (-1.0 / (4.0 * c),), disc)
    sq = math.sqrt(disc)
    q = -0.5 * (1.0 + sq)
    roots = [q / (2.0 * c), 1.0 / q]
    polished = []
    for f in roots:
        if not math.isfinite(f):
            continue  # root magnitude beyond float range (|c| subnormal)
        for _ in range(2):  # Newton polish; derivative nonzero off the double root
            deriv = 4.0 * c * f + 1.0
            if deriv != 0.0:
                f = f - (2.0 * c * f * f + f + 1.0) / deriv
        polished.append(f)
    return StructureRoots("two-roots", tuple(sorted(polished)), disc)


def _structure_current(ctx: PointContext) -> tuple:
    """Sandwich current B = F A rev(F), the root(s) f, and current matching.

    Gating residuals are the algebraic identities (grade closure of B and the
    quadratic equation satisfied by each root); the distances between the
    Maxwell current and -f B are informational, as is the printed form of the
    consistency equation, since both hold only on exact solutions.
    """
    pm = ctx.gd.metric
    fa = ctx.calc("potential")
    aval = fa.value()
    F = fa.exterior_d()
    J = fa.maxwell_current()
    B = pm.clifford(F, pm.clifford(aval, F.reverse()))
    closure = (B - grade_project(B, 1)).sup()
    B1 = grade_project(B, 1)
    c = pm.scalar_product(aval, B1)
    sol = solve_structure_quadratic(c)
    residuals = {"sandwich_grade": closure}
    info = {
        "c": c,
        "discriminant": sol.discriminant,
        "outcome": sol.outcome,
        "roots": list(sol.roots),
        "current": _oneform_list(J),
        "B": _oneform_list(B1),
        "self_consistency_residual": (J + B1 - 2.0 * pm.scalar_product(aval, J) * J).sup(),
    }
    for k, f in enumerate(sol.roots):
        residuals[f"quadratic_root_{k}"] = abs(2.0 * c * f * f + f + 1.0)
        info[f"current_match_minus_fB_{k}"] = (J - (-f) * B1).sup()
        info[f"current_match_plus_fB_{k}"] = (J - f * B1).sup()
    return residuals, info


def sandwich_link_identities(gd: GeometryData, a: Multivector, f2: Multivector, j: Multivector) -> dict:
    """The four algebraic links used by the structure-equation rewrite."""
    pm = gd.metric
    a_up = gd.g_upper @ _oneform_components(a)

    def contracted_sandwich(x: Multivector) -> Multivector:
        out = Multivector.zero()
        for beta in range(4):
            out = out + a_up[beta] * pm.clifford(x, pm.clifford(_lowered_basis(gd, beta), x))
        return out

    faf = pm.clifford(f2, pm.clifford(a, f2))
    jaj = pm.clifford(j, pm.clifford(a, j))
    j_sq = pm.scalar_product(j, j)
    expansion = jaj - 2.0 * pm.scalar_product(a, j) * j + j_sq * a

    ricci_sum = Multivector.zero()
    einstein_sum = Multivector.zero()
    einstein_lower = gd.ricci - 0.5 * gd.scalar * gd.g_lower
    for beta in range(4):
        coeffs = np.zeros(16)
        gcoeffs = np.zeros(16)
        for nu in range(4):
            coeffs[1 << nu] = gd.ricci[beta, nu]
            gcoeffs[1 << nu] = einstein_lower[beta, nu]
        ricci_sum = ricci_sum + a_up[beta] * Multivector(coeffs)
        einstein_sum = einstein_sum + a_up[beta] * Multivector(gcoeffs)
    trace_link = 2.0 * einstein_sum - (2.0 * ricci_sum - gd.scalar * a)

    return {
        "em_sandwich_linearity": (contracted_sandwich(f2) - faf).sup(),
        "fluid_sandwich_linearity": (contracted_sandwich(j) - jaj).sup(),
        "sandwich_expansion": expansion.sup(),
        "einstein_trace_link": trace_link.sup(),
    }


def _sandwich_identities(ctx: PointContext) -> tuple:
    """Point-level algebra suite; uses the potential when present, else random inputs."""
    if ctx.fields["potential"] is not None:
        fa = ctx.calc("potential")
        a = fa.value()
        f2 = fa.exterior_d()
        j = fa.maxwell_current()
    else:
        raw = ctx.draw
        a = grade_project(Multivector(raw[0]), 1)
        f2 = grade_project(Multivector(raw[1]), 2)
        j = grade_project(Multivector(raw[2]), 1)
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
        Check("sandwich_identities", (), (), _sandwich_identities, ("potential",)),
    )
}


# -- the point loop ------------------------------------------------------------------


def requirement_problems(name: str, fields: ScenarioFields) -> list:
    """One message per field that check ``name`` needs and ``fields`` lacks."""
    problems = []
    for need in CHECKS[name].needs:
        if need == "potential":
            if fields.potential() is None:
                problems.append(f"check {name} requires field A (or K with coupling)")
        elif getattr(fields, need) is None:
            problems.append(f"check {name} requires field {need}")
    return problems


CHUNK = 256  # sample points whose expression jets are evaluated together


@dataclass
class PointResult:
    records: list  # one PointRecord per requested check, in request order


def _point_key(pt) -> tuple:
    return tuple(float(v) for v in pt)


def _nonfinite(value) -> bool:
    items = value if isinstance(value, list) else (value,)
    return any(isinstance(x, float) and not math.isfinite(x) for x in items)


def _record(point: tuple, tol: float, residuals: dict, info: dict) -> PointRecord:
    """A point's record; a non-finite residual or info value is a point error."""
    for kind, values in (("residual", residuals), ("info", info)):
        for key, value in values.items():
            if _nonfinite(value):
                return PointRecord(point, {}, {}, f"non-finite {kind} '{key}'", False)
    return PointRecord(point, residuals, info, None, all(v <= tol for v in residuals.values()))


def run_pointwise(
    spec: MetricSpec,
    pt: Sequence[float],
    checks: Sequence[Check],
    tols: Sequence[float],
    fields: dict,
    constants: Constants,
    draw,
    jet: Callable,
) -> PointResult:
    """Run ``checks`` at one point against one shared :class:`PointContext`.

    ``jet`` is the point's jet source (see :func:`geometry.metric_at`).
    """
    point = tuple(pt)
    try:
        ctx = PointContext(curvature(spec, pt, jet=jet), fields, constants, draw, jet)
    except CliffcheckError as err:
        return PointResult([PointRecord(point, {}, {}, str(err), False) for _ in checks])
    records = []
    for check, tol in zip(checks, tols):
        try:
            residuals, info = check.fn(ctx)
        except CliffcheckError as err:
            records.append(PointRecord(point, {}, {}, str(err), False))
        else:
            records.append(_record(point, tol, residuals, info))
    return PointResult(records)


def run_checks(
    spec: MetricSpec,
    fields: ScenarioFields,
    names: Sequence[str],
    points: Sequence,
    tols: Sequence[float],
    seed: int = 0,
) -> list:
    """Run checks ``names`` with tolerances ``tols`` over ``points``, point by point.

    The jets of every metric component and of every component of the fields
    the checks read are evaluated for :data:`CHUNK` points at a time; each
    point then reads its own lane (:class:`expr.ChunkJets`).

    Returns one :class:`ResidualReport` per name, in order, with records in
    point order.  ``seed`` draws the random inputs of ``sandwich_identities``
    when no potential is given.
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
    exprs = [spec.g_lower[i][j] for i in range(4) for j in range(i, 4)]
    for name in sorted({n for c in checks for n in c.needs + c.optional}):
        if by_name[name] is not None:
            exprs += [e for e in by_name[name].comps if not ex.is_zero(e)]
    rows = [[] for _ in checks]
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        jets = ex.ChunkJets(exprs, spec.coords, chunk, spec.params)
        for i, pt in enumerate(chunk):
            draw = draws.get(_point_key(pt))
            result = run_pointwise(spec, pt, checks, tols, by_name, fields.constants, draw, jets.at(i))
            for row, rec in zip(rows, result.records):
                row.append(rec)
    reports = []
    for check, tol, records in zip(checks, tols, rows):
        max_res = max([0.0, *(v for r in records for v in r.residuals.values())])
        passed = bool(records) and all(r.passed for r in records)
        reports.append(ResidualReport(check.name, tol, records, max_res, passed, check.notes))
    return reports
