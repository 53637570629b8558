"""A JSON Schema walk for the keywords the scenario schema uses.

:func:`problems` gives the problems of a document under a schema, each
``"<path>: <message>"``, as ``jsonschema.Draft202012Validator(schema)
.iter_errors(document)`` sorted by ``absolute_path`` gives them: the same
paths, the same message texts and the same order.  It knows only the
keywords ``scenario.schema.json`` uses (JSON Schema 2020-12): ``type``,
``required``, ``properties``, ``additionalProperties``, ``items``,
``oneOf``, ``$ref`` to a ``#/...`` pointer in the same schema,
``minItems``, ``maxItems``, ``minProperties``, ``minimum`` and
``exclusiveMinimum``, and skips the annotations ``$schema``, ``$id``,
``$defs``, ``title`` and ``description``.  Any other keyword raises
ValueError, so a schema that grows past the walk fails loudly.
"""

from __future__ import annotations

import numbers

_ANNOTATIONS = frozenset(("$schema", "$id", "$defs", "title", "description"))


def problems(document, schema: dict) -> list:
    """The problems of ``document`` under ``schema``, sorted by path (a stable sort)."""
    found = []
    _Walk(schema).walk(document, schema, (), found)
    found.sort(key=lambda problem: problem[0])
    return [f"{where(path)}: {message}" for path, message in found]


def where(path) -> str:
    """A JSON path as the problem lists write it: keys and indices joined by dots."""
    return ".".join(str(p) for p in path) or "<root>"


def _is_type(value, kind: str) -> bool:
    """Whether ``value`` is of the JSON type ``kind``; bool is no number, and 2.0 is an integer."""
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    if kind == "string":
        return isinstance(value, str)
    if kind == "number":
        return isinstance(value, numbers.Number) and not isinstance(value, bool)
    if kind == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    raise ValueError(f"unknown JSON type {kind!r}")


class _Walk:
    """One walk under a root schema; each keyword method appends ``(path, message)`` pairs."""

    def __init__(self, root: dict):
        self.root = root

    def walk(self, value, schema, path: tuple, out: list) -> None:
        """The problems of ``value`` under ``schema``, in jsonschema's order of keywords."""
        for keyword, arg in schema.items():
            check = _KEYWORDS.get(keyword)
            if check is not None:
                check(self, value, arg, schema, path, out)
            elif keyword not in _ANNOTATIONS:
                raise ValueError(f"schema keyword {keyword!r} is not supported")

    def valid(self, value, schema) -> bool:
        out = []
        self.walk(value, schema, (), out)
        return not out

    def type(self, value, arg, schema, path, out):
        kinds = [arg] if isinstance(arg, str) else arg
        if not any(_is_type(value, kind) for kind in kinds):
            out.append((path, f"{value!r} is not of type {', '.join(map(repr, kinds))}"))

    def required(self, value, arg, schema, path, out):
        if isinstance(value, dict):
            out.extend((path, f"{key!r} is a required property") for key in arg if key not in value)

    def properties(self, value, arg, schema, path, out):
        if isinstance(value, dict):
            for key, sub in arg.items():
                if key in value:
                    self.walk(value[key], sub, (*path, key), out)

    def additional_properties(self, value, arg, schema, path, out):
        if not isinstance(value, dict):
            return
        named = schema.get("properties", {})
        extras = [key for key in value if key not in named]
        if isinstance(arg, dict):
            for key in extras:
                self.walk(value[key], arg, (*path, key), out)
        elif not arg and extras:
            listed = ", ".join(map(repr, sorted(extras, key=str)))
            verb = "was" if len(extras) == 1 else "were"
            out.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))

    def items(self, value, arg, schema, path, out):
        if isinstance(value, list):
            for index, item in enumerate(value):
                self.walk(item, arg, (*path, index), out)

    def one_of(self, value, arg, schema, path, out):
        rest = iter(arg)
        for sub in rest:
            if self.valid(value, sub):
                others = [other for other in rest if self.valid(value, other)]
                if others:
                    listed = ", ".join(map(repr, [*others, sub]))
                    out.append((path, f"{value!r} is valid under each of {listed}"))
                return
        out.append((path, f"{value!r} is not valid under any of the given schemas"))

    def ref(self, value, arg, schema, path, out):
        if not arg.startswith("#/"):
            raise ValueError(f"schema reference {arg!r} is not a pointer into the same schema")
        target = self.root
        for part in arg[2:].split("/"):
            target = target[part.replace("~1", "/").replace("~0", "~")]
        self.walk(value, target, path, out)

    def min_items(self, value, arg, schema, path, out):
        if isinstance(value, list) and len(value) < arg:
            out.append((path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"))

    def max_items(self, value, arg, schema, path, out):
        if isinstance(value, list) and len(value) > arg:
            out.append((path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"))

    def min_properties(self, value, arg, schema, path, out):
        if isinstance(value, dict) and len(value) < arg:
            message = "should be non-empty" if arg == 1 else "does not have enough properties"
            out.append((path, f"{value!r} {message}"))

    def minimum(self, value, arg, schema, path, out):
        if _is_type(value, "number") and value < arg:
            out.append((path, f"{value!r} is less than the minimum of {arg!r}"))

    def exclusive_minimum(self, value, arg, schema, path, out):
        if _is_type(value, "number") and value <= arg:
            out.append((path, f"{value!r} is less than or equal to the minimum of {arg!r}"))


_KEYWORDS = {
    "type": _Walk.type,
    "required": _Walk.required,
    "properties": _Walk.properties,
    "additionalProperties": _Walk.additional_properties,
    "items": _Walk.items,
    "oneOf": _Walk.one_of,
    "$ref": _Walk.ref,
    "minItems": _Walk.min_items,
    "maxItems": _Walk.max_items,
    "minProperties": _Walk.min_properties,
    "minimum": _Walk.minimum,
    "exclusiveMinimum": _Walk.exclusive_minimum,
}
