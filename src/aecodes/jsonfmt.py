"""JSON text as every report and code file is written, and required and strict integer fields."""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii


def to_json(v, indent: str = "\n") -> str:
    """``json.dumps(v, indent=2, sort_keys=True)``, whose indented encoder is pure Python."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    if not isinstance(v, (dict, list, tuple)) or not v:
        return json.dumps(v)
    inner = indent + "  "
    if isinstance(v, dict):
        items = (
            f"{encode_basestring_ascii(k)}: {to_json(x, inner)}" for k, x in sorted(v.items())
        )
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join(to_json(x, inner) for x in v) + indent + "]"


def write_json(d: dict, write, indent: str = "\n") -> None:
    """Write ``to_json(d, indent)`` a key at a time: a dict value likewise, an iterator as the array
    of its item texts (laid out for ``indent + "    "``, a ``write`` each), else ``to_json``."""
    inner, sep = indent + "  ", "{"
    for key in sorted(d):
        write(f"{sep}{inner}{to_json(key)}: ")
        if isinstance(value := d[key], dict):
            write_json(value, write, inner)
        elif isinstance(value, Iterator):
            item, rest = "[" + inner + "  ", "," + inner + "  "
            for text in value:
                write(item)
                write(text)
                del text  # not held while the next item is built
                item = rest
            write(inner + "]" if item is rest else "[]")
        else:
            write(to_json(value, inner))
        sep = ","
    write(indent + "}" if d else "{}")


def field(d: dict, key: str):
    """``d[key]``, or an error that names the missing key."""
    if key not in d:
        raise ValueError(f"missing field {key!r}")
    return d[key]


def int_field(d: dict, key: str) -> int:
    """``d[key]`` as a JSON int or a decimal-integer string, an optional ``-`` then ASCII digits;
    anything else is an error that names the key, and a string past Python's int-string digit
    limit is not echoed."""
    value = field(d, key)
    must = f"{key} must be an integer or a decimal-integer string"
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{must}, got {value!r}")
    try:
        if isinstance(value, str) and not (value.isascii() and value.removeprefix("-").isdigit()):
            raise ValueError
        return int(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not limit or len(value) <= limit:
            raise ValueError(f"{must}, got {value!r}") from None
        raise ValueError(f"{must} of at most {limit} digits, got {len(value)} characters") from None
