"""Pointwise pseudo-Riemannian geometry from closed-form metric components.

All derivatives come from second-order jets of the metric expressions, so
Christoffel symbols, their first derivatives and the curvature tensors are
exact to rounding; finite differences appear only in test oracles.

Conventions (validated by the commutator unit tests):

    Gamma^r_{ab} = 1/2 g^{rl} (d_a g_{lb} + d_b g_{la} - d_l g_{ab})
    R^r_{s mu nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s}
                    + Gamma^r_{mu l} Gamma^l_{nu s} - Gamma^r_{nu l} Gamma^l_{mu s}
    Ricci_{n s}  = R^m_{n s m}          (so that [D_s, D_m] K_n = -R^r_{n s m} K_r
                                         and box K = K_a Ricci^a for Killing K;
                                         note this is minus the textbook
                                         first-third slot contraction)
    R            = g^{ns} Ricci_{n s}

:func:`metric_at` and :func:`curvature` take one point, shape (4,), or a
block of N points, shape (N, 4), as :func:`cliffcheck.expr.evaluate_jet2`
does, and a block puts N first on every array, the point metrics and their
product tables included.  One code serves both: each check records, per
point, whether it fails and the numbers its message needs, and one
function formats the message.  One point raises the error of the first
check it fails; a block raises nothing and keeps that error for each
rejected point in ``errors``, and every other point is bitwise equal to
the point alone.

The builtin spacetimes are the rows of :data:`CATALOG`, one
:class:`CatalogEntry` each: chart, domain, diagonal metric and Killing
1-forms as expression sources, and the rule that checks its parameters.
:func:`build_metric` and :func:`killing_forms` fill and read those sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import blades
from . import expr as ex
from .algebra import Multivector, PointMetric
from .errors import ExprError, GeometryError, SingularMetricError, point_errors


@dataclass(frozen=True)
class MetricSpec:
    """Spacetime chart: coordinate names, covariant metric components, parameters."""

    coords: tuple
    g_lower: tuple  # 4x4 nested tuple of Expr for g_{mu nu}(x)
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = "custom"
    domain: Mapping[str, tuple] = field(default_factory=dict)  # coord -> (lo, hi)

    def __post_init__(self):
        if len(self.coords) != 4 or len(set(self.coords)) != 4:
            raise GeometryError("metric needs 4 distinct coordinate names")
        if len(self.g_lower) != 4 or any(len(row) != 4 for row in self.g_lower):
            raise GeometryError("metric components must form a 4x4 array")
        for i in range(4):
            for j in range(i + 1, 4):
                if self.g_lower[i][j] != self.g_lower[j][i]:
                    raise GeometryError(
                        f"metric component array is not symmetric at ({i},{j})"
                    )
        known = set(self.coords) | set(self.params)
        for i in range(4):
            for j in range(4):
                missing = ex.free_names(self.g_lower[i][j]) - known
                if missing:
                    raise GeometryError(
                        f"metric component ({i},{j}) uses undeclared names {sorted(missing)}"
                    )

    @classmethod
    def from_strings(cls, coords, rows, params=None, name="custom", domain=None):
        """A spec from component sources, expression strings or numbers (:func:`~cliffcheck.expr.tree`).

        Equal strings are one tree (:func:`~cliffcheck.expr.parse` keeps each
        source's tree), here and in any field of the same process, so their
        jets are evaluated once per chunk (:class:`~cliffcheck.expr.ChunkJets`).
        """
        parsed = tuple(tuple(map(ex.tree, row)) for row in rows)
        return cls(tuple(coords), parsed, dict(params or {}), name, dict(domain or {}))

    def domain_box(self) -> dict:
        """Effective sampling box; defaults to [-2, 2] per missing coordinate."""
        return {c: tuple(self.domain.get(c, (-2.0, 2.0))) for c in self.coords}


@dataclass
class MetricJets:
    """Metric values and first/second partials at one point, or N first on every array."""

    values: np.ndarray  # (4,4)
    dg: np.ndarray  # (4,4,4): dg[s, m, n] = d_s g_{mn}
    ddg: np.ndarray  # (4,4,4,4): ddg[s, r, m, n] = d_s d_r g_{mn}
    errors: dict  # of a block: each point metric_at rejects -> the error it raises alone


@dataclass
class GeometryData:
    """Full curvature bundle at one point, or at a block of N points (N first)."""

    spec: MetricSpec
    point: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    sqrt_abs_det: float
    dg: np.ndarray
    dg_upper: np.ndarray  # d_s g^{mn} = -g^{ma} (d_s g_{ab}) g^{bn} -> dg_upper[s, m, n]
    gamma: np.ndarray  # Gamma^r_{ab} -> gamma[r, a, b]
    dgamma: np.ndarray  # d_s Gamma^r_{ab} -> dgamma[s, r, a, b]
    riemann: np.ndarray  # R^r_{s mu nu} -> riemann[r, s, mu, nu]
    ricci: np.ndarray
    scalar: float
    metric: PointMetric
    jet: Callable  # expression -> its jets at ``point``, as in :func:`metric_at`
    errors: dict = field(default_factory=dict)  # of a block: each point curvature rejects -> its error

    @cached_property
    def _mixed_ricci(self) -> np.ndarray:
        return self.g_upper @ self.ricci  # R^m_n

    @cached_property
    def ricci_oneforms(self) -> tuple:
        """The 4 Multivectors R^mu_nu gamma^nu."""
        return tuple(Multivector.oneform(self._mixed_ricci[..., mu, :]) for mu in range(4))

    @cached_property
    def einstein_oneforms(self) -> tuple:
        """The 4 Multivectors G^mu_nu gamma^nu."""
        half_scalar = np.asarray(0.5 * self.scalar)[..., np.newaxis, np.newaxis]
        einstein_mixed = self._mixed_ricci - half_scalar * np.eye(4)
        return tuple(Multivector.oneform(einstein_mixed[..., mu, :]) for mu in range(4))

    # -- operators of the connection, shared by every field's FieldCalculus --------

    @cached_property
    def gop(self) -> np.ndarray:
        """Gop[a][m, n] = sum Gamma^r_{a i} INDEX_SUB[i, r, m, n]: the covariant correction.

        Dense, (4, 16, 16) per point: its 63 non-zeros are gathered
        (:func:`_index_sub_gather`) and scattered into zeros, as the
        contractions that read it sum over all 16 n.
        """
        nonzeros = _index_sub_gather(np.einsum("...rai->...air", self.gamma))
        gop = np.zeros(nonzeros.shape[:-1] + (blades.N_BLADES ** 2,))
        gop[..., blades.SUB_POSITIONS] = nonzeros
        return gop.reshape(gop.shape[:-1] + (blades.N_BLADES, blades.N_BLADES))

    @cached_property
    def dgop(self) -> np.ndarray:
        """dGop[s, a] = d_s Gop[a], kept as its non-zeros: (4, 4, 63) per point.

        ``dgop[s, a, p]`` is d_s Gop[a] at the flat position
        ``blades.SUB_POSITIONS[p]``; every other entry of d_s Gop[a] is zero.
        """
        return _index_sub_gather(np.einsum("...srai->...sair", self.dgamma))


def _index_sub_gather(table: np.ndarray) -> np.ndarray:
    """The 63 non-zeros of sum_{i, r} table[i, r] INDEX_SUB[i, r], shape (..., 63).

    Position p is ``blades.SUB_POSITIONS[p]``.  Each position adds its 4
    signed terms (:data:`blades.SUB_TAKE`, padded with zeros) to 0.0 in
    (i, r) order, as the einsum over the dense table does, so the result is
    bitwise that einsum's at those positions, -0.0 included.
    """
    flat = table.reshape(table.shape[:-2] + (blades.DIM ** 2,))
    signed = np.concatenate([flat, -flat, np.zeros(flat.shape[:-1] + (1,))], axis=-1)
    first, *more = blades.SUB_TAKE
    out = 0.0 + signed[..., first]  # 0.0 first turns a lone -0.0 into 0.0, as the einsum does
    for take in more:
        out += signed[..., take]
    return out


_FLAT = np.diag([1.0, -1.0, -1.0, -1.0])  # stands in for a block point metric_at rejects


def metric_at(spec: MetricSpec, x: Sequence[float], jet: Callable | None = None) -> tuple:
    """Evaluate the metric and its jets; returns ``(PointMetric, MetricJets)``.

    ``x`` is one point, shape (4,), or a block of N points, shape (N, 4), as
    in :func:`cliffcheck.expr.evaluate_jet2`.  ``jet(e)`` is the jet of
    component ``e`` at ``x`` (for example a block of an
    :class:`~cliffcheck.expr.ChunkJets`); by default it is evaluated here.

    One point raises :class:`SingularMetricError` when its metric cannot be
    evaluated or is singular or not Lorentzian, and :class:`PointMetric`'s
    errors.  A block raises nothing: ``jets.errors`` maps each point that
    fails to the error it raises alone, and a point rejected here holds the
    flat metric with zero derivatives.  Each other point is bitwise the
    point alone.
    """
    x = np.asarray(x, dtype=float)
    lanes = x.shape[:-1]
    if jet is None:
        jet = ex.point_jets(spec.coords, x, spec.params)
    values = np.zeros(lanes + (4, 4))
    dg = np.zeros(lanes + (4, 4, 4))
    ddg = np.zeros(lanes + (4, 4, 4, 4))
    causes: dict = {}  # point -> the error of its first component that cannot be evaluated
    for i in range(4):
        for j in range(i, 4):
            try:
                jij = jet(spec.g_lower[i][j])
            except ExprError as err:  # one point raises it at once
                raise _metric_error(spec, x, 0, None, err) from err
            for k, err in jij.errors.items():
                causes.setdefault(k, err)
            values[..., i, j] = values[..., j, i] = jij.val
            dg[..., :, i, j] = dg[..., :, j, i] = jij.grad
            ddg[..., :, :, i, j] = ddg[..., :, :, j, i] = jij.hess
    points = x.reshape(-1, 4)
    det = np.linalg.det(values)
    fails = [np.array([k in causes for k in range(len(points))]).reshape(lanes),
             ~np.isfinite(det) | (np.abs(det) < 1e-14), det >= 0.0]
    errors = point_errors(
        fails, lambda k, check: _metric_error(spec, points[k], check, det.flat[k], causes.get(k)))
    rejected = fails[0] | fails[1] | fails[2]
    values[rejected], dg[rejected], ddg[rejected] = _FLAT, 0.0, 0.0
    pm = PointMetric(np.linalg.inv(values), _ginv=values)
    return pm, MetricJets(values, dg, ddg, {**pm.errors, **errors})


def _metric_error(spec: MetricSpec, x: np.ndarray, check: int, det: float, cause) -> SingularMetricError:
    """The error of a point that fails :func:`metric_at`'s ``check``.

    The checks, in order: 0 the components evaluate (``cause`` is the first
    error), 1 a nonsingular metric, 2 Lorentzian signature (``det``).
    """
    at = _point_text(x)
    if check == 0:
        return SingularMetricError(f"metric of '{spec.name}' not evaluable at {at}: {cause}")
    if check == 1:
        return SingularMetricError(f"metric of '{spec.name}' is singular at {at} (det={det:.3e})")
    return SingularMetricError(f"metric of '{spec.name}' is not Lorentzian at {at} (det={det:.3e})")


def _point_text(x: np.ndarray) -> str:
    """A point as error messages print it: float reprs, whatever the numpy version."""
    return "(" + ", ".join(repr(float(v)) for v in x) + ")"


def christoffels(spec: MetricSpec, x: Sequence[float]) -> tuple:
    """Levi-Civita coefficients and their first derivatives at ``x``."""
    pm, jets = metric_at(spec, x)
    return _christoffels_from_jets(pm.g, jets)[:2]


def _christoffels_from_jets(g_upper: np.ndarray, jets: MetricJets) -> tuple:
    """``(gamma, dgamma, dgu)``: the Christoffel symbols, their partials and d_s g^{rl}."""
    dg, ddg = jets.dg, jets.ddg
    # bracket[l, a, b] = d_a g_{lb} + d_b g_{la} - d_l g_{ab}
    bracket = np.einsum("...alb->...lab", dg) + np.einsum("...bla->...lab", dg) - dg
    gamma = 0.5 * np.einsum("...rl,...lab->...rab", g_upper, bracket)
    # d_s g^{rl} = -g^{ra} (d_s g_{ab}) g^{bl}
    dgu = -np.einsum("...ra,...sab,...bl->...srl", g_upper, dg, g_upper)
    # dbracket[s, l, a, b] = d_s bracket[l, a, b]
    dbracket = np.einsum("...salb->...slab", ddg) + np.einsum("...sbla->...slab", ddg) - ddg
    dgamma = 0.5 * (
        np.einsum("...srl,...lab->...srab", dgu, bracket)
        + np.einsum("...rl,...slab->...srab", g_upper, dbracket)
    )
    return gamma, dgamma, dgu


def curvature(spec: MetricSpec, x: Sequence[float], jet: Callable | None = None) -> GeometryData:
    """Evaluate the full geometry bundle at ``x``; ``x`` and ``jet`` as in :func:`metric_at`.

    The bundle keeps ``jet`` as the jet source of the fields at ``x``
    (:func:`cliffcheck.diffops.field_jets`).

    One point raises the first error it meets.  A block of N points gives a
    bundle with N first on every array and raises nothing: ``errors`` maps
    each point it rejects to the error that point raises alone, and every
    other point is bitwise equal to the point alone.
    """
    x = np.asarray(x, dtype=float)
    if jet is None:
        jet = ex.point_jets(spec.coords, x, spec.params)
    pm, jets = metric_at(spec, x, jet)
    gamma, dgamma, dg_upper = _christoffels_from_jets(pm.g, jets)

    # R^r_{s mu nu} = d_mu G^r_{nu s} - d_nu G^r_{mu s} + G^r_{mu l} G^l_{nu s}
    #                 - G^r_{nu l} G^l_{mu s}, with dgamma[s,r,a,b] = d_s G^r_{ab}
    riemann = (
        np.einsum("...mrns->...rsmn", dgamma)
        - np.einsum("...nrms->...rsmn", dgamma)
        + np.einsum("...rml,...lns->...rsmn", gamma, gamma)
        - np.einsum("...rnl,...lms->...rsmn", gamma, gamma)
    )
    ricci = np.einsum("...mnsm->...ns", riemann)
    scalar = np.einsum("...ns,...ns->...", pm.g, ricci)

    gd = GeometryData(
        spec=spec,
        point=x,
        g_lower=jets.values,
        g_upper=pm.g,
        sqrt_abs_det=pm.sqrt_abs_det,
        dg=jets.dg,
        dg_upper=dg_upper,
        gamma=gamma,
        dgamma=dgamma,
        riemann=riemann,
        ricci=ricci,
        scalar=float(scalar) if scalar.ndim == 0 else scalar,
        metric=pm,
        jet=jet,
        errors=jets.errors,
    )
    gd.errors = {**_validate(gd), **gd.errors}  # a metric error comes first
    return gd


def _validate(gd: GeometryData) -> dict:
    """Five identities of the bundle, each within its bound.

    A value that is not within its bound fails, NaN included: a connection
    or curvature that is not finite shows as NaN in these values.  One
    point raises :class:`GeometryError` at the first identity it fails; a
    block returns that error for each point that fails one.
    """
    lanes = gd.riemann.shape[:-4]

    def sup(x):
        return np.max(np.abs(x), axis=tuple(range(len(lanes), x.ndim)))

    def swap(x, *axes):  # permute the last len(axes) axes, leading lanes kept
        first = len(lanes)
        return x.transpose(*range(first), *(first + a for a in axes))

    riemann, ricci, gamma = gd.riemann, gd.ricci, gd.gamma
    scale = np.maximum(1.0, sup(riemann))
    bianchi = riemann + swap(riemann, 0, 2, 3, 1) + swap(riemann, 0, 3, 1, 2)
    # metric compatibility: d_s g_{mn} - Gamma^r_{sm} g_{rn} - Gamma^r_{sn} g_{mr} = 0, bounded
    # by the size of its terms, sum_r |Gamma^r_{sm}| |g_{rn}| at most, as rounding leaves it
    compat = (
        gd.dg
        - np.einsum("...rsm,...rn->...smn", gamma, gd.g_lower)
        - np.einsum("...rsn,...mr->...smn", gamma, gd.g_lower)
    )
    terms = np.maximum(sup(gd.dg), sup(np.einsum("...rsm,...rn->...smn", np.abs(gamma),
                                                 np.abs(gd.g_lower))))
    bounds = (
        ("Riemann antisymmetry", sup(riemann + swap(riemann, 0, 1, 3, 2)), 1e-10 * scale),
        ("first Bianchi identity", sup(bianchi), 1e-10 * scale),
        ("Ricci symmetry", sup(ricci - swap(ricci, 1, 0)), 1e-10 * np.maximum(1.0, sup(ricci))),
        ("connection symmetry", sup(gamma - swap(gamma, 0, 2, 1)),
         1e-11 * np.maximum(1.0, sup(gamma))),
        ("metric compatibility", sup(compat), 1e-11 * np.maximum(1.0, terms)),
    )
    return point_errors(
        [~(value <= bound) for _, value, bound in bounds],  # a NaN value fails too
        lambda k, check: GeometryError(f"{bounds[check][0]} violated ({np.ravel(bounds[check][1])[k]:.3e})"),
    )


# -- builtin catalog -----------------------------------------------------------


@dataclass(frozen=True)
class KillingForm:
    """Named Killing 1-form, stored as blade-component expressions."""

    name: str
    components: Mapping[str, str]  # coordinate name -> expression source


@dataclass(frozen=True)
class CatalogEntry:
    """One builtin spacetime, described once: its chart, metric and Killing 1-forms as sources.

    Every builtin is diagonal in its chart.  A source may hold a field such
    as ``{a}``, filled by ``str.format``: ``rule(params)`` checks the
    parameters and returns the :class:`MetricSpec` params and the fill values.
    """

    key: str
    description: str
    param_doc: Mapping[str, str]
    coords: tuple
    domain: Mapping[str, tuple]
    diagonal: tuple  # sources of g_{mu mu}
    killing_sources: tuple  # KillingForms whose components are sources
    rule: Callable  # params -> (MetricSpec params, fill values); raises on bad params

    def build(self, params: Mapping | None = None) -> MetricSpec:
        spec_params, fill = self.rule(dict(params or {}))
        rows = [[src.format(**fill) if i == j else "0" for j in range(4)]
                for i, src in enumerate(self.diagonal)]
        return MetricSpec.from_strings(self.coords, rows, spec_params, self.key, self.domain)

    @property
    def killing(self) -> tuple:
        """The Killing 1-forms at the default parameters."""
        return killing_forms(self.key)


def _no_params(params: dict) -> tuple:
    if params:
        raise GeometryError(f"minkowski takes no parameters, got {sorted(params)}")
    return {}, {}


def _mass_param(params: dict) -> tuple:
    mass = float(params.pop("M", 1.0))
    if params:
        raise GeometryError(f"schwarzschild takes only parameter M, got {sorted(params)}")
    if mass <= 0.0:
        raise GeometryError("schwarzschild mass M must be positive")
    return {"M": mass}, {}


def _scale_factor_param(params: dict) -> tuple:
    # ``a`` is parsed alone first: its errors keep their columns, and a source
    # that parses alone parses to the same tree inside the template's ``({a})``
    a_src = str(params.pop("a", "t"))
    if params:
        raise GeometryError(f"flrw takes only the scale-factor expression a, got {sorted(params)}")
    extra = ex.free_names(ex.parse(a_src)) - {"t"}
    if extra:
        raise GeometryError(f"flrw scale factor may only depend on t, uses {sorted(extra)}")
    return {}, {"a": a_src}


_BOX = {c: (-3.0, 3.0) for c in ("t", "x", "y", "z")}

CATALOG = {
    e.key: e
    for e in (
        CatalogEntry(
            key="minkowski",
            description="flat spacetime, diag(1,-1,-1,-1)",
            param_doc={},
            coords=("t", "x", "y", "z"),
            domain=_BOX,
            diagonal=("1", "-1", "-1", "-1"),
            killing_sources=(
                KillingForm("dt-dual", {"t": "1"}), KillingForm("dx-dual", {"x": "-1"}),
                KillingForm("dy-dual", {"y": "-1"}), KillingForm("dz-dual", {"z": "-1"}),
                KillingForm("rot-xy", {"x": "y", "y": "-x"}),
                KillingForm("rot-yz", {"y": "z", "z": "-y"}),
                KillingForm("rot-zx", {"z": "x", "x": "-z"}),
                KillingForm("boost-tx", {"t": "x", "x": "-t"}),
                KillingForm("boost-ty", {"t": "y", "y": "-t"}),
                KillingForm("boost-tz", {"t": "z", "z": "-t"}),
            ),
            rule=_no_params,
        ),
        CatalogEntry(
            key="schwarzschild",
            description="static spherically symmetric vacuum, areal radius chart",
            param_doc={"M": "mass (default 1)"},
            coords=("t", "r", "theta", "phi"),
            domain={"t": (-3.0, 3.0), "r": (2.5, 20.0), "theta": (0.35, 2.8), "phi": (0.0, 6.2)},
            diagonal=("1-2*M/r", "-1/(1-2*M/r)", "-r^2", "-r^2*sin(theta)^2"),
            killing_sources=(
                KillingForm("dt-dual", {"t": "1-2*M/r"}),
                KillingForm("dphi-dual", {"phi": "-r^2*sin(theta)^2"}),
            ),
            rule=_mass_param,
        ),
        CatalogEntry(
            key="flrw",
            description="spatially flat cosmology dt^2 - a(t)^2 (dx^2+dy^2+dz^2)",
            param_doc={"a": "scale-factor expression in t (default 't')"},
            coords=("t", "x", "y", "z"),
            domain={**_BOX, "t": (0.4, 3.0)},
            diagonal=("1", "-({a})^2", "-({a})^2", "-({a})^2"),
            killing_sources=(
                KillingForm("dx-dual", {"x": "-({a})^2"}),
                KillingForm("dy-dual", {"y": "-({a})^2"}),
                KillingForm("dz-dual", {"z": "-({a})^2"}),
            ),
            rule=_scale_factor_param,
        ),
    )
}


def _entry(key: str) -> CatalogEntry:
    try:
        return CATALOG[key]
    except KeyError:
        raise GeometryError(
            f"unknown builtin metric '{key}' (known: {', '.join(sorted(CATALOG))})"
        ) from None


def build_metric(key: str, params: Mapping | None = None) -> MetricSpec:
    return _entry(key).build(params)


def killing_forms(key: str, params: Mapping | None = None) -> tuple:
    """Killing 1-forms of a builtin metric at ``params``, checked as in :func:`build_metric`."""
    entry = _entry(key)
    fill = entry.rule(dict(params or {}))[1]
    return tuple(KillingForm(kf.name, {c: src.format(**fill) for c, src in kf.components.items()})
                 for kf in entry.killing_sources)
