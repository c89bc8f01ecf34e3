"""State file and report serialization.

State files are JSON with explicit real/imaginary pairs; all floating-point
numbers in files, reports and CSV output are rendered with 17 significant
digits so a parsed value is bit-identical to the emitted one. The one
exception is -0.0: it is written "-0", which JSON reads as the integer 0.

A state file is written one matrix row at a time, straight to its stream,
so neither a Python float per entry nor the whole text is held at once. A
text in the writer's exact layout (dims of at most nine digits) whose matrix
holds more than _BLOCK [re, im] pairs is read back in blocks of about
_BLOCK // 4 pairs, each checked against the writer's layout and its numbers
read by one json.loads as a flat list (_read_blocks), so it never becomes
one JSON tree. Every other text, and every text a block declines, goes
through one json.loads of the whole text, which reads JSON's number grammar
and words every error message.
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

# A matrix of more [re, im] pairs than this is read in blocks of about a quarter as many, which take a
# quarter of the memory of blocks this large and read no slower; json.loads of the whole text is faster
# on smaller files.
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
    return "".join(_state_chunks(state.mat, state.dims))


# The state file layout up to the first row (which _read_blocks matches),
# between two rows, at the end of each row, and after the last row.
_HEAD = re.compile(r'\{\n  "dims": \[([1-9][0-9]{0,8}), ([1-9][0-9]{0,8})\],\n  "matrix": \[\n    ')
_ROW_SEP = ",\n    "
_ROW_END = "\n    ]"
_TAIL = "\n  ]\n}\n"


def _state_chunks(mat: np.ndarray, dims: BipartiteDims):
    """The text dumps gives for {"dims": ..., "matrix": [re, im] pairs of mat},
    yielded as its head, each row, the separator after each row and its tail;
    each row is filled with one % operation. %.17g renders a double as
    format_float does; mat must be finite, as a validated state is, since
    nothing here checks."""
    d = dims.total
    pairs = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).reshape(d, 2 * d)
    row = "[\n" + ",\n".join(["      [%.17g, %.17g]"] * d) + _ROW_END
    yield f'{{\n  "dims": [{dims.dA}, {dims.dB}],\n  "matrix": [\n    '
    for i, r in enumerate(pairs):
        yield row % tuple(r.tolist())
        yield _ROW_SEP if i + 1 < d else _TAIL


def write_state_file(path: str, state: DensityMatrix) -> None:
    with open(path, "w", newline="\n") as fp:
        fp.writelines(_state_chunks(state.mat, state.dims))


def parse_state_text(text: str) -> DensityMatrix:
    """Parse and validate the state file schema, then the physics."""
    # A matrix of more than _BLOCK pairs takes more than 6 * _BLOCK characters.
    by_blocks = _read_blocks(text) if len(text) > 6 * _BLOCK else None
    if by_blocks is not None:
        return DensityMatrix(*by_blocks)
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


# The characters of JSON numbers, whose deletion leaves a block's layout; brackets to blanks, which leaves
# its numbers as one flat list; and the byte values of "[", "," and "]".
_NUMBER_CHARS = b"0123456789+-.eE"
_BLANK_BRACKETS = str.maketrans("[]", "  ")
_OPEN, _COMMA, _CLOSE = b"[,]"


def _read_blocks(text: str) -> tuple[np.ndarray, BipartiteDims] | None:
    """The matrix and dims of a text in _state_chunks' layout whose matrix
    holds more than _BLOCK pairs, read in blocks of whole rows of about
    _BLOCK // 4 pairs into one array, or None for the whole-text path. A valid
    text has at least 6 characters per pair, so a shorter one gets no array.

    A block passes when deleting its number characters leaves the writer's
    brackets, commas and whitespace, and no pair slot is empty ("[," or
    ", ]"). Then each comma-separated slot of the block, brackets blanked,
    holds one run of number characters, the pair's, or two that json rejects,
    so one json.loads reads the block's numbers as a flat list. An integer
    too large for a double fails their assignment to the array."""
    head = _HEAD.match(text)
    if head is None or not text.endswith(_TAIL):
        return None
    dims = BipartiteDims(int(head[1]), int(head[2]))
    d = dims.total
    if not _BLOCK < d * d <= len(text) // 6:
        return None
    row = ("[\n" + ",\n".join(["      [, ]"] * d) + _ROW_END).encode()  # a row without its numbers
    sep = _ROW_SEP.encode()
    span = len(text) // d * (_BLOCK // 4) // d  # the characters of about _BLOCK // 4 pairs
    stop = len(text) - len(_TAIL)  # where the last row ends
    out = np.empty(2 * d * d)
    pos = head.end()
    done = 0  # numbers read
    while done < len(out):
        end = text.find(_ROW_END, pos + span, stop)
        end = stop if end < 0 else end + len(_ROW_END)
        block = text[pos:end]
        raw = block.encode("ascii", "replace")
        skeleton = raw.translate(None, _NUMBER_CHARS)
        rows = (len(skeleton) + len(sep)) // (len(row) + len(sep))
        if skeleton != sep.join([row] * rows):
            return None
        # "[," or, the layout being the writer's, a comma two places before "]": numpy's compares
        # find these common characters several times faster than str.find.
        a = np.frombuffer(raw, np.uint8)
        if ((a[:-1] == _OPEN) & (a[1:] == _COMMA)).any() or ((a[:-2] == _COMMA) & (a[2:] == _CLOSE)).any():
            return None
        try:
            out[done : done + 2 * d * rows] = json.loads("[" + block.translate(_BLANK_BRACKETS) + "]")
        except (ValueError, OverflowError):
            return None
        done += 2 * d * rows
        pos = end + len(_ROW_SEP)
        if done < len(out) and not text.startswith(_ROW_SEP, end):
            return None
    if end != stop:
        return None
    return out.view(np.complex128).reshape(d, d), dims


def _matrix_from_rows(rows: list, d: int) -> np.ndarray:
    """The d x d complex matrix of d rows of [re, im] pairs, converted in one
    pass; a malformed row or entry is named by _reject_rows. JSON numbers
    arrive as int or float; bool, None, strings, lists nested too deep or too
    shallow and integers too large for a double fail the pass."""
    try:
        arr = np.array(rows, dtype=object)
        if arr.shape == (d, d, 2) and set(map(type, arr.flat)) <= {int, float}:
            return arr.astype(np.float64).view(np.complex128)[..., 0]
    except (ValueError, OverflowError):
        pass
    _reject_rows(rows, d)


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
