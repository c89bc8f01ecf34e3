"""State file and report serialization.

State files are JSON with explicit real/imaginary pairs; all floating-point
numbers in files, reports and CSV output are rendered with 17 significant
digits so a parsed value is bit-identical to the emitted one. The one
exception is -0.0: it is written "-0", which JSON reads as the integer 0.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import MalformedInputError
from .linalg import BipartiteDims, DensityMatrix


def format_float(x: float) -> str:
    """Decimal rendering that round-trips the double exactly."""
    x = float(x)
    if not math.isfinite(x):
        raise MalformedInputError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def _dump(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(k)}: {_dump(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_dump(v, indent) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {_dump(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise MalformedInputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _dump(obj, 0) + "\n"


def state_file_text(state: DensityMatrix) -> str:
    """Serialize a state to the on-disk JSON schema."""
    return _state_text(state.mat, state.dims)


def _state_text(mat: np.ndarray, dims: BipartiteDims) -> str:
    """The text dumps gives for {"dims": ..., "matrix": [re, im] pairs of mat},
    filled in one % operation. %.17g renders a double as format_float does;
    mat must be finite, as a validated state is, since nothing here checks."""
    d = dims.total
    entries = ",\n".join(["      [%.17g, %.17g]"] * d)
    rows = ",\n".join(["    [\n" + entries + "\n    ]"] * d)
    template = f'{{\n  "dims": [{dims.dA}, {dims.dB}],\n  "matrix": [\n{rows}\n  ]\n}}\n'
    return template % tuple(np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).ravel().tolist())


def write_state_file(path: str, state: DensityMatrix) -> None:
    with open(path, "w", newline="\n") as fp:
        fp.write(state_file_text(state))


def parse_state_text(text: str) -> DensityMatrix:
    """Parse and validate the state file schema, then the physics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInputError(f"invalid state file: {e.msg} at line {e.lineno} column {e.colno}") from e
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


def _matrix_from_rows(rows: list, d: int) -> np.ndarray:
    """The d x d complex matrix of d rows of [re, im] pairs, converted in one
    pass. JSON numbers arrive as int or float; bool, None, strings and lists
    nested too deep or too shallow fail the shape or type check."""
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
    try:
        with open(path) as fp:
            text = fp.read()
    except OSError as e:
        raise MalformedInputError(f"cannot read state file {path}: {e.strerror}") from e
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
