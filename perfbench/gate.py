"""Correctness gate: every operation's output is checked, and any miss is a failure.

A verify operation must exit with the expected code, write a report that is
strict JSON (no ``NaN``/``Infinity``), validates against the program's report
schema, reaches the expected verdict on every check and has no point errors.
All reports of one operation label within a run must be byte-identical.  The
selftest must exit 0, print ``overall: PASS`` and print the same law lines on
every operation.

Reports are hashed as they are written, but parsed and validated once per
distinct digest after the timed loop, so the gate's own memory does not show
in the program's peak RSS.  Identical bytes give identical verdicts, so this
checks every report.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import jsonschema


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


class Gate:
    def __init__(self, schema_path: Path):
        self.validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
        self.failures: list = []  # (label, message), one per failed operation
        self.digests: dict = {}  # label -> sha256 of the first output
        self.work: dict = {}  # label -> (points, point checks), filled by finish()
        self._pending: dict = {}  # (label, sha256) -> (op, report bytes)
        self._counts: Counter = Counter()  # (label, sha256) -> operations with these bytes

    def _digest(self, label: str, data: bytes) -> tuple:
        sha = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(label, sha)
        return sha, first

    def record_verify(self, op, exit_code: int) -> bool:
        """Check one verify operation now; defer its report's validation.  False on a miss."""
        if exit_code != op.expected_exit:
            self.failures.append((op.label, f"exit code {exit_code}, expected {op.expected_exit}"))
            return False
        try:
            data = Path(op.report).read_bytes()
        except OSError as err:
            self.failures.append((op.label, f"no report: {err}"))
            return False
        sha, first = self._digest(op.label, data)
        if sha != first:
            self.failures.append((op.label, f"report bytes differ within the run ({sha[:12]})"))
            return False
        key = (op.label, sha)
        self._counts[key] += 1
        self._pending.setdefault(key, (op, data))
        return True

    def record_selftest(self, op, exit_code: int, stdout: str) -> bool:
        """Check one selftest operation.  False on a miss."""
        laws = [line for line in stdout.splitlines() if line.startswith("[")]
        if exit_code != op.expected_exit or "overall: PASS" not in stdout or not laws:
            self.failures.append((op.label, f"selftest failed (exit {exit_code})"))
            return False
        if any(not line.startswith("[PASS]") for line in laws):
            self.failures.append((op.label, "a selftest law failed"))
            return False
        sha, first = self._digest(op.label, "\n".join(laws).encode())
        if sha != first:
            self.failures.append((op.label, "selftest law lines differ within the run"))
            return False
        return True

    def finish(self) -> int:
        """Validate the deferred reports; return how many operations they fail.

        Also fills ``work``: label -> (points, point checks) of its report.
        """
        failed = 0
        for key, (op, data) in self._pending.items():
            problem = self._report_problem(op, data)
            if problem:
                failed += self._counts[key]
                self.failures.extend([(op.label, problem)] * self._counts[key])
        self._pending.clear()
        return failed

    def _report_problem(self, op, data: bytes) -> str | None:
        try:
            doc = json.loads(data, parse_constant=_reject_constant)
        except ValueError as err:
            return f"report is not strict JSON: {err}"
        errors = sorted(self.validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        if errors:
            return f"report fails its schema: {errors[0].message}"
        checks = doc["checks"]
        self.work[op.label] = (len(checks[0]["points"]) if checks else 0,
                               sum(len(c["points"]) for c in checks))
        verdicts = {c["check"]: c["passed"] for c in checks}
        if verdicts != op.expected_checks:
            return f"verdicts {verdicts}, expected {op.expected_checks}"
        point_errors = sum(1 for c in checks for p in c["points"] if p.get("error"))
        if point_errors:
            return f"{point_errors} point error(s)"
        return None
