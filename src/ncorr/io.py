"""State file and report serialization.

State files are JSON with explicit real/imaginary pairs; all floating-point
numbers in files, reports and CSV output are rendered with 17 significant
digits so a parsed value is bit-identical to the emitted one. The one
exception is -0.0: it is written "-0", which JSON reads as the integer 0.

A state file is written one matrix row at a time, so a large state never
holds a Python float for every entry at once. A text in the writer's exact
layout (header, row separators and trailer as written, dims of at most nine
digits) whose matrix holds more than _BLOCK [re, im] pairs is read back one
row at a time, each row decoded by json itself, so it never becomes one JSON
tree either. Every other text goes through one json.loads of the whole text,
which also words every error message.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NoReturn

import numpy as np

from .errors import MalformedInputError
from .linalg import BipartiteDims, DensityMatrix

# A matrix of more [re, im] pairs than this is read row by row; json.loads is faster on smaller files.
_BLOCK = 1 << 12


def format_float(x: float) -> str:
    """Decimal rendering that round-trips the double exactly."""
    x = float(x)
    if not math.isfinite(x):
        raise MalformedInputError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def _type_name(obj) -> str:
    return f"{type(obj).__module__}.{type(obj).__name__}".removeprefix("builtins.")  # numpy.bool, not bool


def _write(obj, pad: str, out: list) -> None:
    """Append obj's JSON text to out; nested lines are indented by pad plus two spaces."""
    if obj.__class__ is float and math.isfinite(obj):
        out.append("%.17g" % obj)  # format_float's text
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))  # json.dumps's text
    elif isinstance(obj, dict) and obj:
        inner, sep = pad + "  ", "{\n"
        for k, v in obj.items():
            if not isinstance(k, str):
                raise MalformedInputError(f"cannot serialize a dict key of type {_type_name(k)}")
            out.append(f"{sep}{inner}{encode_basestring_ascii(k)}: ")
            _write(v, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        nested = any(isinstance(v, (dict, list, tuple)) for v in obj)
        head, sep, tail = ("[\n" + inner, ",\n" + inner, f"\n{pad}]") if nested else ("[", ", ", "]")
        out.append(head)
        for v in obj:
            _write(v, inner, out)
            out.append(sep)
        out[-1] = tail
    elif isinstance(obj, (dict, list, tuple)):
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    else:
        raise MalformedInputError(f"cannot serialize {_type_name(obj)}")


def dumps(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats and string keys."""
    out: list = []
    _write(obj, "", out)
    return "".join(out) + "\n"


def state_file_text(state: DensityMatrix) -> str:
    """Serialize a state to the on-disk JSON schema."""
    return _state_text(state.mat, state.dims)


# The state file layout up to the first row (which _read_blocks matches),
# between two rows, and after the last row.
_HEAD = re.compile(r'\{\n  "dims": \[([1-9][0-9]{0,8}), ([1-9][0-9]{0,8})\],\n  "matrix": \[\n    ')
_ROW_SEP = ",\n    "
_TAIL = "\n  ]\n}\n"


def _state_text(mat: np.ndarray, dims: BipartiteDims) -> str:
    """The text dumps gives for {"dims": ..., "matrix": [re, im] pairs of mat},
    filled one row at a time, with one % operation per row. %.17g renders a
    double as format_float does; mat must be finite, as a validated state is,
    since nothing here checks."""
    d = dims.total
    pairs = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).reshape(d, 2 * d)
    row = "[\n" + ",\n".join(["      [%.17g, %.17g]"] * d) + "\n    ]"
    body = _ROW_SEP.join([row % tuple(r.tolist()) for r in pairs])
    return f'{{\n  "dims": [{dims.dA}, {dims.dB}],\n  "matrix": [\n    {body}{_TAIL}'


def write_state_file(path: str, state: DensityMatrix) -> None:
    with open(path, "w", newline="\n") as fp:
        fp.write(state_file_text(state))


def parse_state_text(text: str) -> DensityMatrix:
    """Parse and validate the state file schema, then the physics."""
    # A matrix of more than _BLOCK pairs takes more than 6 * _BLOCK characters.
    by_rows = _read_blocks(text) if len(text) > 6 * _BLOCK else None
    if by_rows is not None:
        return DensityMatrix(*by_rows)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInputError(f"invalid state file: {e.msg} at line {e.lineno} column {e.colno}") from e
    except (ValueError, RecursionError) as e:
        # An integer literal past Python's int string-conversion limit, or
        # arrays nested deeper than the recursion limit.
        raise MalformedInputError(f"invalid state file: {e}") from e
    if not isinstance(doc, dict):
        raise MalformedInputError("state file must be a JSON object")
    for key in ("dims", "matrix"):
        if key not in doc:
            raise MalformedInputError(f"state file is missing the {key!r} field")
    dims_field = doc["dims"]
    if (
        not isinstance(dims_field, list)
        or len(dims_field) != 2
        or not all(type(d) is int and d >= 1 for d in dims_field)
    ):
        raise MalformedInputError(f"'dims' must be a pair of positive integers, got {dims_field!r}")
    dims = BipartiteDims(dims_field[0], dims_field[1])
    d = dims.total
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != d:
        raise MalformedInputError(f"'matrix' must have {d} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    return DensityMatrix(_matrix_from_rows(rows, d), dims)


def _read_blocks(text: str) -> tuple[np.ndarray, BipartiteDims] | None:
    """The matrix and dims of a text in _state_text's layout whose matrix holds
    more than _BLOCK pairs, read one row at a time: json decodes each row, and
    each row passes _pairs' check into one preallocated array. None sends the
    text down the whole-text path. A valid text has at least 6 characters per
    pair, so a shorter one gets no array."""
    head = _HEAD.match(text)
    if head is None:
        return None
    dims = BipartiteDims(int(head[1]), int(head[2]))
    d = dims.total
    if not _BLOCK < d * d <= len(text) // 6:
        return None
    pos = head.end()
    decode = json.JSONDecoder().raw_decode
    out = np.empty((d, d, 2))
    for i in range(d):
        try:
            row, pos = decode(text, pos)
        except (ValueError, RecursionError):
            return None
        pairs = _pairs(row, (d, 2))
        after = _ROW_SEP if i + 1 < d else _TAIL
        if pairs is None or not text.startswith(after, pos):
            return None
        out[i] = pairs
        pos += len(after)
    if pos != len(text):
        return None
    return out.view(np.complex128)[..., 0], dims


def _pairs(rows: list, shape: tuple) -> np.ndarray | None:
    """rows as a float64 array of the given shape, converted in one pass, or
    None. JSON numbers arrive as int or float; bool, None, strings, lists
    nested too deep or too shallow and integers too large for a double fail."""
    try:
        arr = np.array(rows, dtype=object)
        if arr.shape == shape and set(map(type, arr.flat)) <= {int, float}:
            return arr.astype(np.float64)
    except (ValueError, OverflowError):
        pass
    return None


def _matrix_from_rows(rows: list, d: int) -> np.ndarray:
    """The d x d complex matrix of d rows of [re, im] pairs, converted in one
    pass; a malformed row or entry is named by _reject_rows."""
    pairs = _pairs(rows, (d, d, 2))
    if pairs is None:
        _reject_rows(rows, d)
    return pairs.view(np.complex128)[..., 0]


def _reject_rows(rows: list, d: int) -> NoReturn:
    """Name the first malformed row or entry, in reading order."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise MalformedInputError(f"matrix row {i} must have {d} entries, got {len(row) if isinstance(row, list) else type(row).__name__}")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise MalformedInputError(f"matrix entry ({i}, {j}) must be a [re, im] pair of numbers")
            try:
                complex(*entry)
            except OverflowError:
                raise MalformedInputError(f"matrix entry ({i}, {j}) is an integer too large for a double") from None
    raise MalformedInputError(f"'matrix' must be {d} rows of {d} [re, im] pairs")


def read_state_file(path: str) -> DensityMatrix:
    """Read a state file as UTF-8, JSON's encoding, and parse it."""
    try:
        with open(path, encoding="utf-8") as fp:
            text = fp.read()
    except OSError as e:
        raise MalformedInputError(f"cannot read state file {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise MalformedInputError(f"state file {path} is not UTF-8 text: {e.reason} at byte {e.start}") from e
    return parse_state_text(text)


@dataclass(frozen=True)
class Report:
    """Machine-readable result document; sections are plain JSON-shaped dicts."""

    version: str
    kind: str  # "measure" | "detect"
    dims: list
    tolerances: dict
    measure: dict | None = None
    detection: dict | None = None

    def to_json(self) -> str:
        """The fields in declaration order, without the section that is None."""
        return dumps({k: v for k, v in vars(self).items() if v is not None})


def matrix_as_pairs(mat: np.ndarray) -> list:
    """Complex matrix to nested [re, im] lists for report embedding."""
    mat = np.asarray(mat)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()
