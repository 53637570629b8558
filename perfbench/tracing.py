"""Outside-in tracing of cliffcheck's layers, from the benchmark's own files.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` wraps the
public entry points listed in ``TARGETS`` and ``Tracer.uninstall`` puts the
originals back, so untraced operations run the unmodified program.

A module-level function is replaced in every ``cliffcheck`` module that binds
it, not only where it is defined: ``cli`` reaches ``load_scenario`` through its
own ``from .runner import ...`` and ``fieldcheck`` binds ``curvature`` by
name, so patching only the defining module would record nothing.  A method is
replaced on its class.  A target that no longer exists is reported as absent,
and the metrics derived from it are left out rather than reported as 0.

Each call to a wrapped target records one span ``(name, start, end, parent,
op)``; spans of one operation share ``op``.  Spans are kept in memory and
written out once, when the run ends.  Self time is a span's duration minus
the time covered by its direct children.  The tracer assumes one thread,
which the benchmark guarantees by clearing ``CLIFFCHECK_THREADS``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path); several targets may share a span name.
TARGETS = (
    ("cli.main", "cliffcheck.cli", "main"),
    ("runner.load_scenario", "cliffcheck.runner", "load_scenario"),
    ("runner.run", "cliffcheck.runner", "run"),
    ("runner.to_json", "cliffcheck.runner", "Report.to_json"),
    ("selftest.suite", "cliffcheck.selftest", "run_algebra_suite"),
    ("selftest.suite", "cliffcheck.selftest", "run_diffops_suite"),
    ("expr.parse", "cliffcheck.expr", "parse"),
    ("expr.jet", "cliffcheck.expr", "evaluate_jet2"),
    ("geometry.curvature", "cliffcheck.geometry", "curvature"),
    ("geometry.metric_at", "cliffcheck.geometry", "metric_at"),
    ("algebra.metric_build", "cliffcheck.algebra", "PointMetric.__init__"),
    ("algebra.table_build", "cliffcheck.algebra", "PointMetric._build_tables"),
    ("algebra.product", "cliffcheck.algebra", "PointMetric.clifford"),
    ("algebra.product", "cliffcheck.algebra", "PointMetric.left_contract"),
    ("algebra.product", "cliffcheck.algebra", "PointMetric.right_contract"),
    ("algebra.product", "cliffcheck.algebra", "PointMetric.scalar_product"),
    ("algebra.product", "cliffcheck.algebra", "PointMetric.hodge"),
    ("algebra.product", "cliffcheck.algebra", "PointMetric.hodge_inv"),
    ("algebra.product", "cliffcheck.algebra", "wedge"),
    ("diffops.field_jets", "cliffcheck.diffops", "field_jets"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.value"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.covariant_derivative"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.dirac"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.exterior_d"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.codifferential"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.codifferential_hodge_route"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.exterior_d_squared"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.maxwell_current"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.codifferential_squared"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.covariant_dalembertian"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.ricci_operator"),
    ("diffops.operator", "cliffcheck.diffops", "FieldCalculus.hodge_dalembertian"),
    ("diffops.operator", "cliffcheck.diffops", "grad_scalar_product"),
    ("fieldcheck.pointwise", "cliffcheck.fieldcheck", "run_pointwise"),
)


def _pointwise_counts(args, kwargs, result) -> dict:
    return {
        "fieldcheck.point_evals": len(result.records),
        "fieldcheck.point_errors": sum(1 for r in result.records if r.error is not None),
    }


def _report_bytes(args, kwargs, result) -> dict:
    return {"runner.report_bytes": len(result.encode())}


# Counters read from a traced call: span name -> fn(args, kwargs, result) -> {counter: n}.
EXTRA_COUNTERS = {
    "fieldcheck.pointwise": _pointwise_counts,
    "runner.to_json": _report_bytes,
}

# Per-layer metric -> (unit, kind, span); kind is one of
#   count: calls per round; total: summed duration per round; self: summed self time
#   per round; counter: an EXTRA_COUNTERS value per round; per_point: calls per sample point.
LAYER_METRICS = {
    "expr.jet_calls": ("count", "count", "expr.jet"),
    "expr.jet_s": ("s", "total", "expr.jet"),
    "expr.parse_calls": ("count", "count", "expr.parse"),
    "expr.parse_s": ("s", "total", "expr.parse"),
    "geometry.curvature_calls": ("count", "count", "geometry.curvature"),
    "geometry.curvature_per_point": ("calls/point", "per_point", "geometry.curvature"),
    "geometry.curvature_self_s": ("s", "self", "geometry.curvature"),
    "geometry.metric_at_self_s": ("s", "self", "geometry.metric_at"),
    "algebra.metric_builds": ("count", "count", "algebra.metric_build"),
    "algebra.table_builds": ("count", "count", "algebra.table_build"),
    "algebra.table_build_s": ("s", "total", "algebra.table_build"),
    "algebra.product_calls": ("count", "count", "algebra.product"),
    "algebra.product_s": ("s", "self", "algebra.product"),
    "diffops.field_jets_calls": ("count", "count", "diffops.field_jets"),
    "diffops.field_jets_self_s": ("s", "self", "diffops.field_jets"),
    "diffops.operator_calls": ("count", "count", "diffops.operator"),
    "diffops.operator_self_s": ("s", "self", "diffops.operator"),
    "fieldcheck.point_evals": ("count", "counter", "fieldcheck.pointwise"),
    "fieldcheck.point_errors": ("count", "counter", "fieldcheck.pointwise"),
    "fieldcheck.self_s": ("s", "self", "fieldcheck.pointwise"),
    "runner.load_s": ("s", "total", "runner.load_scenario"),
    "runner.serialize_s": ("s", "total", "runner.to_json"),
    "runner.report_bytes": ("B", "counter", "runner.to_json"),
    "cli.self_s": ("s", "self", "cli.main"),
    "selftest.self_s": ("s", "self", "selftest.suite"),
}


class TraceError(RuntimeError):
    """The trace cannot be trusted, e.g. a target that must run recorded no calls."""


def _resolve(module_name: str, path: str):
    """Return ``(owner, attr, original)`` or ``None`` when the target is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Span recorder that wraps cliffcheck's entry points while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counters: list = []  # (op id, counter name, value)
        self.present: set = set()  # span names with at least one target found
        self._stack: list = []
        self._patches: list = []  # (owner, attr, original)
        self.op = -1

    def install(self, op: int) -> None:
        """Wrap every target for operation ``op``; cliffcheck must be imported."""
        self.op = op
        self.present = set()
        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            self.present.add(name)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # rebind the name wherever a cliffcheck module looks it up
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "cliffcheck" or mod_name.startswith("cliffcheck."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = EXTRA_COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters.append((tracer.op, key, value))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def merge(self, other: dict, op: int) -> None:
        """Append spans and counters exported by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent in other["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        for key, value in other["counters"]:
            self.counters.append((op, key, value))
        self.present |= set(other["present"])

    def export_op(self) -> dict:
        """Spans and counters of a single-operation trace, for a parent process."""
        return {
            "spans": [s[:4] for s in self.spans],
            "counters": [c[1:] for c in self.counters],
            "present": sorted(self.present),
        }

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
                    "counters": self.counters,
                },
                fh,
            )

    # -- aggregation -----------------------------------------------------------

    def per_op(self) -> dict:
        """op id -> {"count": Counter, "total": dict, "self": dict, "counter": Counter}."""
        covered = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        ops: dict = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            agg = ops.setdefault(op, _empty_agg())
            agg["count"][name] += 1
            agg["total"][name] += end - start
            agg["self"][name] += end - start - covered[idx]
        for op, key, value in self.counters:
            ops.setdefault(op, _empty_agg())["counter"][key] += value
        return ops


def _empty_agg() -> dict:
    return {"count": Counter(), "total": defaultdict(float), "self": defaultdict(float),
            "counter": Counter()}


def layer_metrics(tracer: Tracer, rounds: list, points_per_round: int) -> dict:
    """Per-layer metrics per round, where ``rounds`` lists the op ids of each round.

    Counts are summed over the traced rounds and divided by their number, so
    they repeat exactly; times are the median over rounds.
    """
    ops = tracer.per_op()
    per_round = []
    for round_ops in rounds:
        agg = _empty_agg()
        for op in round_ops:
            for kind in ("count", "total", "self", "counter"):
                for key, value in ops.get(op, _empty_agg())[kind].items():
                    agg[kind][key] += value
        per_round.append(agg)
    metrics = {}
    for metric, (unit, kind, span) in LAYER_METRICS.items():
        if span not in tracer.present:
            continue  # the target is gone: absent, never 0
        if kind in ("count", "per_point"):
            value = sum(r["count"][span] for r in per_round) / len(per_round)
            if kind == "per_point":
                value = value / points_per_round if points_per_round else 0.0
        elif kind == "counter":
            value = sum(r["counter"][metric] for r in per_round) / len(per_round)
        else:
            value = statistics.median(r[kind][span] for r in per_round)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def check_required(tracer: Tracer, required: tuple) -> None:
    """Raise ``TraceError`` when a present target that must run recorded no calls."""
    seen = {s[0] for s in tracer.spans}
    missing = [name for name in required if name in tracer.present and name not in seen]
    if missing:
        raise TraceError(f"traced targets recorded no calls: {', '.join(missing)}")
