"""On-disk artifact format: every file gawm writes goes through here.

Each write goes to a temp file next to the target and is moved into
place with ``os.replace``, so a reader sees either the old file or the
complete new one. A write that fails removes its temp file and leaves
the target as it was. A file read back is parsed by ``read_json`` and
its fields are typed by ``json_fields``, with the one rule
(``json_value``) that ``config.from_json`` applies to its scalars too.
Each failure raises a ValueError in one of three forms:
``<path> is not JSON: ...``, ``<path> lacks a, b`` and
``<path>: field 'a' is not int: 8.9``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import reprlib
from pathlib import Path

import numpy as np


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text``, written verbatim (no newline translation)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload, indent: int | None = 2) -> None:
    """Sorted keys and a trailing newline; ``indent=None`` gives the compact one-line form."""
    write_text(path, json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def read_json(path):
    """The file's JSON value; a ValueError names the file if it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path} is not JSON: {err}") from None


def json_fields(path, record, fields: dict) -> list:
    """``record``'s values of the ``fields``, each typed as its kind by
    ``json_value``. A ValueError names the file if one is missing, or
    ``record`` is not an object (``<path> lacks a, b``), or if a value is
    not of its kind (``<path>: field 'a' is not int: 8.9``)."""
    missing = [name for name in fields if not isinstance(record, dict) or name not in record]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(missing)}")
    values = []
    for name, kind in fields.items():
        try:
            values.append(json_value(record[name], kind))
        except ValueError as err:
            what = {dict: "object", list: "array", np.ndarray: "array"}.get(kind, kind.__name__)
            raise ValueError(f"{path}: field {name!r} is not {what}: {err}") from None
    return values


def json_value(value, kind):
    """``value``, as JSON reads it, typed as ``kind``: an int takes only an
    integer, a float any number (stored as float), neither a bool; a
    str, dict or list takes only its own type; an ``np.ndarray`` is a
    ``number_array``. Otherwise a ValueError's message is the repr of
    the value, for the caller to name the field."""
    if kind is np.ndarray:
        return number_array(value)
    if isinstance(value, (int, float) if kind is float else kind) and type(value) is not bool:
        try:
            return float(value) if kind is float else value
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(reprlib.repr(value))


def number_array(value) -> np.ndarray:
    """A JSON array as a float64 array. It must be nested lists of one
    shape whose leaves are numbers as ``json_value`` reads a float.
    Otherwise a ValueError's message is the repr of the first leaf that
    is not a number, or of ``value`` if it is not such nested lists."""
    try:
        array = np.array(value, dtype=object) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        array = None
    leaves = set() if array is None else set(map(type, array.flat))
    if array is None or list in leaves:  # a list leaf: rows of unequal lengths
        raise ValueError(reprlib.repr(value))
    if not leaves <= {int, float}:
        raise ValueError(reprlib.repr(next(leaf for leaf in array.flat
                                           if type(leaf) not in (int, float))))
    try:
        return array.astype(np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(reprlib.repr(value)) from None


def write_csv(path, header, rows) -> None:
    """The default ``csv`` dialect, ``\\r\\n`` line endings; floats come out as their repr."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write_text(path, buf.getvalue())
