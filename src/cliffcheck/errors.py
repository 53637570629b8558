"""Exception hierarchy shared across the package, and the errors of the points that fail a check."""

import numpy as np


class CliffcheckError(Exception):
    """Base class for all errors raised by cliffcheck."""


class AlgebraError(CliffcheckError):
    pass


class DegenerateMetricError(AlgebraError):
    """Point metric is numerically singular."""


class SignatureError(AlgebraError):
    """Point metric does not have Lorentzian signature (1,3)."""


class ExprError(CliffcheckError):
    pass


class ParseError(ExprError):
    """Syntax error in an expression string; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class DomainEvalError(ExprError):
    """Expression evaluated outside its mathematical domain."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


class UnboundIdentifierError(ExprError):
    """Identifier resolves to neither a coordinate nor a declared parameter."""


class GeometryError(CliffcheckError):
    pass


class SingularMetricError(GeometryError):
    """Metric could not be evaluated or inverted at the requested point."""


class FieldError(CliffcheckError):
    """A multivector field violates a declared grade or shape constraint."""


class ScenarioValidationError(CliffcheckError):
    """Scenario file failed validation; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("scenario validation failed:\n" + "\n".join(f"  - {p}" for p in self.problems))


def point_errors(fails, error) -> dict:
    """The errors of the points that fail a check, for a block; one point raises its error.

    ``fails`` holds, in the order the checks are made, one mask per check:
    the points of a block that fail it, or a 0-d mask for one point.
    Returns ``{k: error(k, c)}`` for each point ``k`` that fails a check,
    ``c`` being the index of the first check it fails.
    """
    fails = np.array(fails)
    if not fails.any():
        return {}
    one = fails.ndim == 1
    fails = fails.reshape(len(fails), -1)  # (check, point)
    errors = {k: error(k, int(fails[:, k].argmax())) for k in np.flatnonzero(fails.any(axis=0)).tolist()}
    if one:
        raise errors[0]
    return errors


def block_errors(errors: dict, start: int, stop: int) -> dict:
    """The errors of points ``start:stop`` of ``errors``, numbered from 0, in the same order."""
    return {k - start: err for k, err in errors.items() if start <= k < stop}
