"""File reads and atomic writes, shared by every reader and writer in the
package, the checks readers make on the JSON values they read, and
`Config`, the base of the config dataclasses, whose JSON form and files
come from their fields.

A file is written in full to a new temporary file in its directory and then
renamed over the target with `os.replace`, so an interrupted run or a
failing write leaves either the old file or the new one, never a partial
file. The rename is not followed by an fsync: this guards against a crash
of the process, not of the machine.
"""

from __future__ import annotations

import json
import numbers
import os
import re
import uuid
from dataclasses import MISSING, asdict, fields, replace


def read_json(path):
    """The JSON value in the file at `path`; a file that does not parse
    (cut off, say) raises a ValueError that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def is_integer(value):
    """Whether `value` is an integer as JSON has it: a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value):
    """Whether `value` is a number as JSON has it: a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def json_text(payload):
    """The text of an `indent=2, sort_keys=True` JSON file."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_atomic(path, text):
    """Replace the file at `path` with `text` (UTF-8, "\\n" line ends)."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# annotation -> (the JSON values a field of it takes, their name); fields
# annotated otherwise take any value and leave the check to the class
_JSON_TYPES = {"int": ((int,), "integer"), "float": ((int, float), "number"),
               "str": ((str,), "string"), "tuple": ((list, tuple), "array"),
               "dict": ((dict,), "object")}


def _words(name):
    """A class name in words: `ExperimentConfig` -> "experiment config"."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()


class Config:
    """Base of the frozen config dataclasses. Their JSON form, files and
    overrides all come from the fields: a field whose default is built by
    a Config class is a nested section."""

    def to_json(self):
        """The fields as JSON reads them back: dicts, tuples as lists."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_json(cls, payload, section=None):
        """Build from parsed JSON. A ValueError names a section that is not
        an object, unknown or missing keys and a field of the wrong JSON
        type; `section` defaults to the class name in words."""
        if not isinstance(payload, dict):
            section = section or _words(cls.__name__)
            raise ValueError(f"{section} must be a JSON object, not "
                             f"{type(payload).__name__}")
        payload = dict(payload)
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(known))
        missing = [name for name, f in known.items() if name not in payload
                   and f.default is MISSING and f.default_factory is MISSING]
        for problem, names in (("unknown", unknown), ("missing", missing)):
            if names:
                raise ValueError(f"{problem} {cls.__name__} keys: "
                                 f"{', '.join(names)}")
        for name, value in list(payload.items()):
            nested = known[name].default_factory
            if isinstance(nested, type) and issubclass(nested, Config):
                payload[name] = nested.from_json(value, name)
                continue
            annotation = known[name].type   # a string, or a type if evaluated
            types, kind = _JSON_TYPES.get(
                getattr(annotation, "__name__", annotation), ((), None))
            if kind and (isinstance(value, bool)
                         or not isinstance(value, types)):
                raise ValueError(f"{cls.__name__}.{name} must be a JSON "
                                 f"{kind}, not {type(value).__name__}")
        return cls(**payload)

    def save(self, path):
        write_atomic(path, json_text(self.to_json()))

    @classmethod
    def load(cls, path):
        # a file that holds no JSON object is named in the error
        return cls.from_json(read_json(path),
                             f"{path}: {_words(cls.__name__)}")

    def with_(self, **kw):
        return replace(self, **kw)
