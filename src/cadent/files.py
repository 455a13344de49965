"""File reads and atomic writes, shared by every reader and writer in the
package.

A file is written in full to a new temporary file in its directory and then
renamed over the target with `os.replace`, so an interrupted run or a
failing write leaves either the old file or the new one, never a partial
file. The rename is not followed by an fsync: this guards against a crash
of the process, not of the machine.
"""

from __future__ import annotations

import json
import os
import uuid


def read_json(path):
    """The JSON value in the file at `path`; a file that does not parse
    (cut off, say) raises a ValueError that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


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
