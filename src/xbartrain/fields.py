"""Strict reading of the JSON inputs: configs, model files and checkpoints.

Each format is a table of JSON key -> (dataclass field, conversion) read by
:func:`section`.  The accepted values are the same in every format:

* an integer is a JSON integer or an integral number such as ``5.0``;
* a real is any JSON number, ``NaN`` and ``Infinity`` (which Python's parser
  accepts) included: ranges and finiteness are checked by the dataclass the
  value fills, whether it comes from a file or from code;
* a boolean is ``true`` or ``false``, a string a JSON string, and a list a
  JSON array whose every entry converts;
* an object holds only its table's keys.  A key it leaves out keeps its
  dataclass default, or is an error in a format without defaults.

Nothing is coerced: ``true`` is no number, ``"1.5"`` neither number nor
boolean.  Errors are ValueErrors naming the key path (``sources: tuning:
expected true or false, got 'false'``); each format's reader prefixes the
file and raises its own error type.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["read_json", "integer", "real", "boolean", "string", "list_of", "section"]


def read_json(path, error: type[Exception], what: str):
    """The JSON document in the file ``path``; malformed JSON raises
    ``error`` naming ``what``, the file, the line and the column."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise error(
            f"{what} {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def integer(value) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def list_of(convert):
    """The conversion of a JSON array into a tuple of converted entries."""

    def convert_list(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(map(convert, value))

    return convert_list


def section(doc, *tables, required: bool = False) -> list[dict]:
    """Per table, the dataclass keyword arguments of the keys ``doc`` sets.

    A table maps a key to ``(field, conversion)``: the field is set to the
    converted value.  ``doc`` may hold only the tables' keys, and with
    ``required`` must hold them all.  Errors are prefixed with the key, so
    nested ``section`` reads name the whole path.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {doc!r}")
    unknown = set(doc).difference(*tables)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    keywords = []
    for table in tables:
        kwargs = {}
        for key, (name, convert) in table.items():
            if key not in doc:
                if required:
                    raise ValueError(f"missing key {key!r}")
                continue
            try:
                kwargs[name] = convert(doc[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{key}: {exc}") from exc
        keywords.append(kwargs)
    return keywords
