"""On-disk artifact format: every file gawm writes goes through here.

Each write goes to a temp file next to the target and is moved into
place with ``os.replace``, so a reader sees either the old file or the
complete new one. A write that fails removes its temp file and leaves
the target as it was. A JSON file read back that is malformed raises a
ValueError naming it; so does an array in it that is not all numbers
(``number_array``).
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


def json_fields(path, record, names: tuple[str, ...]) -> list:
    """``record``'s values of ``names``; a ValueError names the file if one is missing."""
    missing = [name for name in names if not isinstance(record, dict) or name not in record]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(missing)}")
    return [record[name] for name in names]


def number_array(value) -> np.ndarray:
    """A JSON array as a float64 array. It must be nested lists of one
    shape whose leaves are numbers as JSON reads them: an int or a float,
    not a bool and not a str. Otherwise a ValueError says what is wrong,
    for the caller to name its file."""
    try:
        array = np.array(value, dtype=object) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        array = None
    leaves = set() if array is None else set(map(type, array.flat))
    if array is None or list in leaves:  # a list leaf: rows of unequal lengths
        raise ValueError(f"not nested lists of one shape: {reprlib.repr(value)}")
    if not leaves <= {int, float}:
        leaf = next(leaf for leaf in array.flat if type(leaf) not in (int, float))
        raise ValueError(f"{reprlib.repr(leaf)} is not a number")
    try:
        return array.astype(np.float64)
    except OverflowError as err:  # an integer beyond the float range
        raise ValueError(str(err)) from None


def write_csv(path, header, rows) -> None:
    """The default ``csv`` dialect, ``\\r\\n`` line endings; floats come out as their repr."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write_text(path, buf.getvalue())
