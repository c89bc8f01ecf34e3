"""State-file serialization, the JSON and text reports, and the command line.

CLI commands are exercised in-process through main(argv) so that exit codes
and stdout/stderr can be asserted cheaply; one subprocess smoke test checks
the installed entry point end to end.
"""

import argparse
import functools
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ncorr
from ncorr import (
    BipartiteDims,
    DensityMatrix,
    MalformedInputError,
    bell,
    partition_discrepancy,
    partition_measure,
    phi_p,
    random_classical,
    random_density,
    sigma,
    sigma_dprime,
    sigma_prime,
    tau,
    truncation_measure,
    varsigma,
    xi,
    xi_prime,
    zeta,
    zeta_prime,
)
from ncorr.cli import _build_parser, main, run_bench, run_sweep
from ncorr.io import (
    _BLOCK,
    _matrix_from_rows,
    _read_blocks,
    _state_text,
    dumps,
    format_float,
    matrix_as_pairs,
    parse_state_text,
    read_state_file,
    state_file_text,
    write_state_file,
)

from oracles import (
    G_SIGMA,
    M_VARSIGMA,
    m_pure,
    per_entry_parse_state_text,
    per_entry_state_file_text,
    per_node_dumps,
)

DATA_DIR = Path(__file__).parent / "data"


def _normalize_version(text: str) -> str:
    return re.sub(r'"version": "[^"]*"', '"version": "0"', text)


class TestFormatFloat:
    def test_short_values_stay_short(self):
        assert format_float(0.5) == "0.5"
        assert format_float(0.0) == "0"
        assert format_float(1.0) == "1"
        assert format_float(-0.25) == "-0.25"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_is_exact(self, x):
        assert float(format_float(x)) == x

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(MalformedInputError, match="non-finite"):
            format_float(bad)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_state_text_renders_each_double_as_format_float(self, dA, dB, data):
        """The one-template state text equals the per-entry dumps of any finite
        complex matrix, valid state or not, and parses back bit for bit as the
        per-entry complex() did. The one exception is the sign of a zero:
        -0.0 is written "-0", which JSON reads as the integer 0."""
        d = dA * dB
        doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_DOUBLES)
        parts = data.draw(st.lists(doubles, min_size=2 * d * d, max_size=2 * d * d))
        mat = np.array(parts).view(np.complex128).reshape(d, d)
        dims = BipartiteDims(dA, dB)
        text = _state_text(mat, dims)
        assert text == per_entry_state_file_text(mat, dims)
        rows = json.loads(text)["matrix"]
        per_entry = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert _bits(_matrix_from_rows(rows, d)) == _bits(per_entry) == _bits(mat + 0.0)


_EDGE_DOUBLES = (
    -0.0,
    5e-324,
    -2.2250738585072009e-308,
    2.2250738585072014e-308,
    1e308,
    -1e308,
    1.7976931348623157e308,
    2.0**53 + 2,
    -(2.0**60),
    2.0**64 + 2.0**12,
    0.1,
    1 / 3,
)


def _bits(a: np.ndarray) -> list:
    """The raw bit patterns of a complex array, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64).tolist()


_LEAVES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | st.text(st.characters(codec="ascii", categories=["Cc"]))
)
_UNWRITABLE = [math.nan, math.inf, -math.inf, np.float32("nan"), np.float32("inf"), np.float32("-inf"), {1.0}, 1j, np.bool_(True)]


def _json_docs(leaves):
    """JSON-shaped documents: dicts with string keys, lists and tuples, empty ones included."""
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(st.text(), kids, max_size=4),
        max_leaves=20,
    )


def _written(writer, doc):
    """writer's text for doc, or the message of the MalformedInputError it raises."""
    try:
        return writer(doc)
    except MalformedInputError as e:
        return f"MalformedInputError: {e}"


class TestDumps:
    def test_flat_lists_stay_inline(self):
        text = state_file_text(varsigma())
        assert '"dims": [2, 2]' in text
        assert "[0.5, 0]" in text

    def test_deterministic(self):
        doc = {"b": [1.0, 2.0], "a": {"nested": [[1.0, 0.0], [0.0, 1.0]]}}
        assert dumps(doc) == dumps(doc)
        assert json.loads(dumps(doc)) == {"b": [1, 2], "a": {"nested": [[1, 0], [0, 1]]}}

    @pytest.mark.parametrize(
        "key, kind",
        [(1, "int"), (0.5, "float"), (None, "NoneType"), ((1, 2), "tuple"), (np.bool_(True), r"numpy\.bool_?")],
    )
    def test_non_string_key_rejected(self, key, kind):
        """JSON keys are strings; the per-node writer wrote {1: 2} as 1: 2."""
        with pytest.raises(MalformedInputError, match=f"cannot serialize a dict key of type {kind}$"):
            dumps({"ok": [1.0], "nested": {key: 2}})

    def test_numpy_types_are_named_with_their_module(self):
        """numpy 2 names np.bool_ bool; the message must not read as if a Python bool were refused."""
        with pytest.raises(MalformedInputError, match=r"cannot serialize numpy\.bool_?$"):
            dumps([1.0, np.bool_(True)])

    @given(_json_docs(_LEAVES))
    @example({"empty": {}, "none": [], "pair": (), "deep": [[[]], {"k": {}}]})
    @example([-0.0, 5e-324, 1.7976931348623157e308, np.float32(0.1), np.int64(-(2**63)), True, None])
    @example({"\x00\x1f\"\\/": "\u00e9\u2028\ud800\U0001f600\x7f"})
    def test_equals_per_node_writer(self, doc):
        assert dumps(doc) == per_node_dumps(doc)

    @pytest.mark.parametrize("bad", _UNWRITABLE, ids=repr)
    def test_refuses_what_the_per_node_writer_refuses(self, bad):
        """NaN and +-inf of either width, a set, a complex and np.bool_, alone
        or inside a flat list, a nested list, a tuple or a dict."""
        for doc in (bad, [1.0, bad], [[bad]], (bad,), {"k": [{"j": (0.5, bad)}]}):
            assert _written(dumps, doc) == _written(per_node_dumps, doc)
            assert _written(dumps, doc).startswith("MalformedInputError: cannot serialize")

    @given(_json_docs(_LEAVES | st.sampled_from(_UNWRITABLE)))
    def test_refuses_the_first_value_the_per_node_writer_refuses(self, doc):
        assert _written(dumps, doc) == _written(per_node_dumps, doc)


# JSON true parses as a Python bool, which is an int subclass: dims checks must exclude it.
_BOOL_DIMS = (
    '{"dims": [true, true], "matrix": [[[1, 0]]]}',
    '{"dims": [true, 2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
)


# Above 40 pairs, the 81 pairs of a 3x3 file are read row by row, as the
# 8281 pairs of a 7x13 file are above 4096.
_SMALL_BLOCK = 40
_MUTATIONS = ("none", "number", "drop_pair", "trailing_key", "trailing_text", "matrix_first", "reindent")
_LITERALS = ("true", "null", '"1"', "NaN", "-0", "9" * 400)

# Texts json cannot turn into Python objects: an integer literal past
# Python's int string-conversion limit (4300 digits), in the matrix or in
# dims, and arrays nested deeper than the recursion limit.
_HUGE_INT = "1" + "0" * 5000
_DEEP = "[" * 100_000
_UNDECODABLE = [
    pytest.param('{"dims": [1, 1], "matrix": [[[%s, 0]]]}' % _HUGE_INT, id="long-integer-in-matrix"),
    pytest.param('{"dims": [%s, 1], "matrix": [[[1, 0]]]}' % _HUGE_INT, id="long-integer-in-dims"),
    pytest.param('{"dims": [1, 1], "matrix": ' + _DEEP, id="deep-nesting"),
]
_UNDECODABLE_ROWS = [pytest.param(_HUGE_INT, id="long-integer"), pytest.param(_DEEP, id="deep-nesting")]


class TestStateFiles:
    def test_round_trip_varsigma_bit_exact(self, tmp_path):
        state = varsigma()
        path = tmp_path / "varsigma.json"
        write_state_file(str(path), state)
        back = read_state_file(str(path))
        assert back.dims == state.dims
        assert np.array_equal(back.mat, state.mat)

    def test_round_trip_random_rectangular(self):
        state = random_density((2, 3), seed=11)
        back = parse_state_text(state_file_text(state))
        assert back.dims == state.dims
        assert np.array_equal(back.mat, state.mat)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("{not json", "invalid state file"),
            ("[1, 2]", "must be a JSON object"),
            ('{"matrix": []}', "missing the 'dims' field"),
            ('{"dims": [2, 2]}', "missing the 'matrix' field"),
            ('{"dims": [2], "matrix": []}', "'dims' must be a pair of positive integers"),
            ('{"dims": [0, 2], "matrix": []}', "'dims' must be a pair of positive integers"),
            ('{"dims": [2.5, 2], "matrix": []}', "'dims' must be a pair of positive integers"),
            ('{"dims": "xy", "matrix": []}', "'dims' must be a pair of positive integers"),
            (_BOOL_DIMS[0], "'dims' must be a pair of positive integers"),
            (_BOOL_DIMS[1], "'dims' must be a pair of positive integers"),
            ('{"dims": [1, 2], "matrix": [[[1, 0], [0, 0]]]}', "'matrix' must have 2 rows"),
        ],
    )
    def test_structural_errors(self, text, fragment):
        with pytest.raises(MalformedInputError, match=re.escape(fragment)):
            parse_state_text(text)

    def test_invalid_json_reports_position(self):
        with pytest.raises(MalformedInputError, match="line 1 column"):
            parse_state_text("{,}")

    def test_short_row_rejected(self):
        doc = {"dims": [1, 2], "matrix": [[[1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(MalformedInputError, match="matrix row 0 must have 2 entries"):
            parse_state_text(json.dumps(doc))

    @pytest.mark.parametrize("entry", [5, [1], [1, 0, 0], ["1", 0], [True, 0], None])
    def test_bad_entry_rejected(self, entry):
        doc = {"dims": [1, 2], "matrix": [[[1, 0], entry], [[0, 0], [0, 0]]]}
        # dims [1, 2] needs a 2x2 matrix; only the entry itself is malformed
        with pytest.raises(MalformedInputError, match=r"matrix entry \(0, 1\) must be a \[re, im\] pair"):
            parse_state_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "rows",
        [
            # lengths 3 and 1: still 2 d^2 numbers in all
            [[[1, 0, 0], [0]], [[0, 0], [0, 0]]],
            [[[1, 0], [0, 0]], [[0], [0, 0, 0]]],
            # one entry, then every entry, nested a level deeper
            [[[1, 0], [0, 0]], [[0, 0], [[0, 0], [0, 0]]]],
            [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
            # a row that is a dict or a string of the right length
            [{"re": 1, "im": 0}, [[0, 0], [0, 0]]],
            [[[1, 0], [0, 0]], "ab"],
            [[[1, 0], [0, 0]], 7],
            # bool, None and string entries, and one bad number in a pair
            [[[1, 0], [0, 0]], [[0, 0], [False, 0]]],
            [[[1, 0], None], [[0, 0], [0, 0]]],
            [[[1, 0], [0, 0]], [[0, "0"], [0, 0]]],
            [[[1, 0], [0, None]], [[0, 0], [0, 0]]],
            [[[1, 0], [0, [0]]], [[0, 0], [0, 0]]],
        ],
    )
    def test_malformed_matrix_named_as_per_entry_parser_names_it(self, rows):
        """A matrix that fails the one-pass shape and type check falls back to
        the per-entry walk, which names the first bad row or entry exactly as
        the per-entry parser in tests/oracles.py does."""
        text = json.dumps({"dims": [1, 2], "matrix": rows})
        with pytest.raises(MalformedInputError) as want:
            per_entry_parse_state_text(text)
        with pytest.raises(MalformedInputError) as got:
            parse_state_text(text)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("matrix ")

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-" + "9" * 400])
    @pytest.mark.parametrize("part", [0, 1])
    def test_integer_too_large_for_a_double_rejected(self, literal, part):
        rows = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        rows[1][0][part] = "BIG"
        text = json.dumps({"dims": [1, 2], "matrix": rows}).replace('"BIG"', literal)
        with pytest.raises(MalformedInputError, match=r"matrix entry \(1, 0\) is an integer too large for a double"):
            parse_state_text(text)

    def test_one_pass_io_equals_per_entry_reference(self):
        """state_file_text and parse_state_text give the text and the bits of
        the per-entry serializer and parser in tests/oracles.py, on files read
        by one json.loads and on files read row by row."""
        checked = multi_block = 0
        for rho in _cross_check_states():
            text = state_file_text(rho)
            assert text == per_entry_state_file_text(rho.mat, rho.dims)
            back = parse_state_text(text)
            assert back.dims == rho.dims
            assert _bits(back.mat) == _bits(per_entry_parse_state_text(text).mat) == _bits(rho.mat)
            if rho.dims.total**2 > 2 * _BLOCK:
                assert _bits(_read_blocks(text)[0]) == _bits(rho.mat)
                multi_block += 1
            checked += 1
        assert checked >= 250
        assert multi_block >= 2

    @given(st.sampled_from(_MUTATIONS), st.integers(0, 8), st.integers(0, 8), st.sampled_from(_LITERALS))
    @example("number", 8, 0, _LITERALS[0])
    @example("number", 8, 8, _LITERALS[1])
    @example("number", 8, 3, _LITERALS[2])
    @example("number", 8, 5, _LITERALS[3])
    @example("number", 8, 2, _LITERALS[4])
    @example("number", 8, 7, _LITERALS[5])
    def test_mutated_multi_block_file_parses_as_per_entry_reference(self, kind, i, j, literal):
        """A file read row by row, changed in one place, gives the bits or the
        message of the per-entry parser, whichever path it takes. A threshold
        of 40 pairs keeps each example small."""
        text = _mutate(_multi_block_text(), kind, 9 * i + j, literal)
        try:
            want = _bits(per_entry_parse_state_text(text).mat)
        except MalformedInputError as e:
            want = str(e)
        except OverflowError:
            want = f"matrix entry ({i}, {j}) is an integer too large for a double"
        with mock.patch.object(ncorr.io, "_BLOCK", _SMALL_BLOCK):
            assert kind != "none" or _read_blocks(text) is not None
            try:
                got = _bits(parse_state_text(text).mat)
            except MalformedInputError as e:
                got = str(e)
        assert got == want

    def test_integer_literals_parse_as_the_per_entry_parser_reads_them(self):
        """JSON integers, exact or rounded to a double, convert as complex() did."""
        big = 2**53 + 1
        text = json.dumps({"dims": [1, 2], "matrix": [[[1, 0], [big, -big]], [[big, big], [0, 0]]]})
        rows = json.loads(text)["matrix"]
        want = np.array([[1, complex(big, -big)], [complex(big, big), 0]])
        assert _bits(_matrix_from_rows(rows, 2)) == _bits(want)

    def test_physics_validation_applies(self):
        doc = {
            "dims": [1, 2],
            "matrix": [[[0.5, 0], [1, 0]], [[0, 0], [0.5, 0]]],
        }
        with pytest.raises(MalformedInputError, match="Hermitian"):
            parse_state_text(json.dumps(doc))
        doc["matrix"] = [[[0.9, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        with pytest.raises(MalformedInputError, match="trace"):
            parse_state_text(json.dumps(doc))
        doc["matrix"] = [[[1.2, 0], [0, 0]], [[0, 0], [-0.2, 0]]]
        with pytest.raises(MalformedInputError, match="positive semidefinite"):
            parse_state_text(json.dumps(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedInputError, match="cannot read state file"):
            read_state_file(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("text", _UNDECODABLE)
    def test_undecodable_text_rejected(self, text):
        with pytest.raises(MalformedInputError, match="invalid state file"):
            parse_state_text(text)

    @pytest.mark.parametrize("literal", _UNDECODABLE_ROWS)
    def test_undecodable_row_of_a_multi_block_file_rejected(self, literal):
        """The row reader hands a row json cannot decode to the whole-text path."""
        text = _mutate(_multi_block_text(), "number", 45, literal)
        with mock.patch.object(ncorr.io, "_BLOCK", _SMALL_BLOCK):
            assert _read_blocks(text) is None
            with pytest.raises(MalformedInputError, match="invalid state file"):
                parse_state_text(text)

    def test_file_not_in_utf8_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(state_file_text(varsigma()).encode("utf-16"))  # begins with the bytes ff fe
        with pytest.raises(MalformedInputError, match="is not UTF-8 text"):
            read_state_file(str(path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "dims,offdiagonal", [((1, 1), False), ((1, 2), False), ((1, 2), True), ((2, 2), False), ((2, 2), True)]
    )
    def test_non_finite_entries_rejected(self, literal, dims, offdiagonal):
        with pytest.raises(MalformedInputError, match="non-finite"):
            parse_state_text(_non_finite_text(literal, dims, offdiagonal))


def test_matrix_as_pairs_matches_per_entry_pairs():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    mat[0, 0] = complex(-0.0, 5e-324)
    for m in (mat, mat.real, np.eye(2)):
        want = [[[z.real, z.imag] for z in row] for row in m]
        assert dumps(matrix_as_pairs(m)) == dumps(want)


def _shapes(max_total):
    return [(dA, dB) for dA in range(1, max_total + 1) for dB in range(1, max_total // dA + 1)]


def _cross_check_states():
    yield from (varsigma(), sigma(), sigma_prime(), sigma_dprime(), tau(), zeta(), zeta_prime(), xi(), xi_prime())
    yield from (phi_p(p) for p in np.linspace(0, 1, 21))
    yield from (bell(n) for n in range(2, 13))
    for dA, dB in _shapes(12):
        d = dA * dB
        for seed in range(2):
            yield random_density((dA, dB), seed=seed)
            yield random_classical((dA, dB), seed=seed).state
            if d > 1:
                yield random_density((dA, dB), rank=1 + seed % (d - 1), seed=seed)
    yield random_density((12, 12), seed=5)
    # 91 rows of a rectangular shape, read row by row
    yield random_classical((7, 13), seed=2).state


@functools.cache
def _multi_block_text() -> str:
    return state_file_text(random_density((3, 3), seed=4))


@functools.cache
def _pair_lines() -> list:
    return list(re.finditer(r"^      \[(.*), (.*)\]", _multi_block_text(), re.M))


def _mutate(text: str, kind: str, k: int, literal: str) -> str:
    """text changed in one way: the k-th pair's real part replaced by literal,
    the k-th pair dropped, a key added after the matrix, literal added after
    the text, dims moved after the matrix, or the text re-indented by a width
    that k picks."""
    line = _pair_lines()[k]
    start, end = line.span()
    if kind == "number":
        return text[: line.start(1)] + literal + text[line.end(1) :]
    if kind == "drop_pair":
        return text[:start] + text[end + 2 :] if text[end] == "," else text[: start - 2] + text[end:]
    if kind == "trailing_key":
        return text[:-3] + ',\n  "note": 1\n}\n'
    if kind == "trailing_text":
        return text + literal
    if kind == "matrix_first":
        return text.replace('  "dims": [3, 3],\n', "", 1)[:-3] + ',\n  "dims": [3, 3]\n}\n'
    if kind == "reindent":
        return re.sub(r"\n( +)", lambda m: "\n" + " " * (len(m[1]) // 2 * (k % 4)), text)
    return text


def _non_finite_text(literal: str, dims, offdiagonal: bool) -> str:
    """State file text of the maximally mixed state with one entry (and its
    mirror) replaced by a bare JSON literal such as NaN, which json.loads accepts."""
    d = dims[0] * dims[1]
    rows = [[[1 / d if i == j else 0, 0] for j in range(d)] for i in range(d)]
    i, j = (0, 1) if offdiagonal else (0, 0)
    rows[i][j][0] = rows[j][i][0] = "BAD"
    return json.dumps({"dims": list(dims), "matrix": rows}).replace('"BAD"', literal)


def _write_state(tmp_path, name, builder) -> str:
    path = tmp_path / f"{name}.json"
    write_state_file(str(path), builder)
    return str(path)


class TestCliState:
    def test_stdout_matches_library_serialization(self, capsys):
        assert main(["state", "--name", "varsigma"]) == 0
        out = capsys.readouterr().out
        assert out == state_file_text(varsigma())
        doc = json.loads(out)
        assert doc["matrix"][0][0] == [0.5, 0]

    def test_out_file_and_params(self, tmp_path, capsys):
        path = tmp_path / "bell3.json"
        assert main(["state", "--name", "bell", "--param", "N=3", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        state = read_state_file(str(path))
        assert state.dims.dA == 3
        assert np.isclose(state.mat[0, 0].real, 1 / 3)

    def test_seed_flag_reaches_random_builders(self, tmp_path):
        args = ["state", "--name", "random", "--param", "dA=2", "--param", "dB=3", "--seed", "5"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert np.array_equal(read_state_file(str(a)).mat, random_density((2, 3), seed=5).mat)

    def test_unknown_name_exits_2(self, capsys):
        assert main(["state", "--name", "nonesuch"]) == 2
        assert "unknown state name" in capsys.readouterr().err

    def test_bad_parameter_value_exits_2(self, capsys):
        assert main(["state", "--name", "phi_p", "--param", "p=2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,param", [("random", "dA=nan"), ("random", "seed=nan"), ("bell", "N=inf"), ("random", "dA=2.7")]
    )
    def test_non_integral_integer_param_exits_2(self, capsys, name, param):
        assert main(["state", "--name", name, "--param", param]) == 2
        key = param.split("=")[0]
        assert f"parameter '{key}' must be an integer" in capsys.readouterr().err

    def test_integral_float_param_accepted(self, capsys):
        assert main(["state", "--name", "random", "--param", "dA=3.0", "--seed", "2"]) == 0
        assert capsys.readouterr().out == state_file_text(random_density((3, 2), seed=2))

    def test_non_numeric_param_exits_2(self, capsys):
        assert main(["state", "--name", "bell", "--param", "N=abc"]) == 2
        assert capsys.readouterr().err == "error: --param N: 'abc' is not a number\n"

    def test_malformed_param_exits_2(self, capsys):
        assert main(["state", "--name", "phi_p", "--param", "p"]) == 2
        assert "--param expects KEY=VALUE" in capsys.readouterr().err

    def test_argparse_failure_exits_2(self, capsys):
        assert main(["state"]) == 2  # --name is required
        capsys.readouterr()


_SWEEP = ["sweep", "--family", "kappa", "--start", "0", "--stop", "0.9", "--steps", "3"]


class TestCliRejections:
    """Input that no code would read exits 2 instead of passing silently."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["state", "--name", "kappa", "--param", "c_w=0.5"], "state 'kappa' takes no parameter 'c_w'"),
            (["state", "--name", "bell", "--param", "n=5"], "state 'bell' takes no parameter 'n'"),
            (_SWEEP + ["--sweep-param", "c_w"], "state 'kappa' takes no parameter 'c_w'"),
            (_SWEEP + ["--param", "c_w=0.1"], "state 'kappa' takes no parameter 'c_w'"),
            (_SWEEP + ["--param", "c_x=0.1"], "--param c_x is the swept parameter"),
            (["state", "--name", "sigma", "--seed", "3"], "state 'sigma' takes no parameter 'seed'"),
            (["state", "--name", "random", "--seed", "3", "--param", "seed=4"], "give the seed once"),
            (["state", "--name", "random", "--param", "seed=-1"], "seed must be a nonnegative integer"),
            (["state", "--name", "random", "--seed", "-1"], "seed must be a nonnegative integer"),
            (["state", "--name", "random_classical", "--seed", "-1"], "seed must be a nonnegative integer"),
            (["state", "--name", "zeta_prime", "--param", "seed_a=-3"], "seed must be a nonnegative integer"),
            (["bench", "--seed", "-1", "--max-dim", "2", "--trials", "1"], "seed must be a nonnegative integer"),
            (["state", "--name", "sigma", "--json"], "unrecognized arguments: --json"),
            (_SWEEP + ["--json"], "unrecognized arguments: --json"),
            (["bench", "--trials", "0", "--json"], "unrecognized arguments: --json"),
            (["state", "--name", "sigma", "--eps-deg", "1e-5"], "unrecognized arguments: --eps-deg"),
            (_SWEEP + ["--seed", "1"], "unrecognized arguments: --seed"),
            (["state", "--name", "random", "--param", "dA=2", "--param", "dA=3", "--seed", "1"], "--param dA is given twice"),
            (_SWEEP + ["--param", "c_y=0.1", "--param", "c_y=0.2"], "--param c_y is given twice"),
            (["state", "--name", "kappa", "--param", "c_x=nan"], "(c_x, c_y, c_z) = (nan, 0.0, 0.0)"),
        ],
    )
    def test_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "detect"])
    @pytest.mark.parametrize("text", _BOOL_DIMS)
    def test_bool_dims_file_exits_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "bool.json"
        path.write_text(text)
        assert main([command, "--in", str(path)]) == 2
        assert "'dims' must be a pair of positive integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "detect"])
    def test_seed_on_a_file_command_exits_2(self, tmp_path, capsys, command):
        assert main([command, "--in", _write_state(tmp_path, "sigma", sigma()), "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestCliOptionsAreRead:
    """Each subcommand reads every option it parses."""

    @staticmethod
    def _unread(argv) -> set:
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = _build_parser().parse_args(argv, namespace=Recorder())
        func = args.func
        reads.clear()
        assert func(args) == 0
        return set(vars(args)) - {"command", "func"} - reads

    def test_every_parsed_option_is_read(self, tmp_path, capsys):
        path = _write_state(tmp_path, "sigma", sigma())
        runs = [
            ["state", "--name", "random", "--seed", "2"],
            ["compute", "--in", path, "--which", "all"],
            ["compute", "--in", path, "--which", "all", "--json"],
            ["detect", "--in", path],
            ["sweep", "--family", "phi_p", "--start", "0", "--stop", "1", "--steps", "2"],
            ["bench", "--max-dim", "2", "--trials", "1", "--out", str(tmp_path / "bench.csv")],
        ]
        for argv in runs:
            assert self._unread(argv) == set(), argv
        capsys.readouterr()


class TestCliCompute:
    def test_human_output_round_trips_measure(self, tmp_path, capsys):
        path = _write_state(tmp_path, "varsigma", varsigma())
        assert main(["compute", "--in", path]) == 0
        out = capsys.readouterr().out
        assert f"state: {path} (dims 2x2)" in out
        m_line = next(line for line in out.splitlines() if line.startswith("M   = "))
        value = float(m_line.split("=")[1])
        assert abs(value - truncation_measure(varsigma()).value) < 1e-12
        assert abs(value - M_VARSIGMA) < 1e-9
        assert "per-eigenspace contributions:" in out
        assert "tolerances: " in out

    def test_json_measure_section(self, tmp_path, capsys):
        path = _write_state(tmp_path, "varsigma", varsigma())
        assert main(["compute", "--in", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "measure"
        assert doc["dims"] == [2, 2]
        section = doc["measure"]
        assert abs(section["M"] - M_VARSIGMA) < 1e-9
        assert section["M_A"] < 1e-9
        assert abs(section["M_B"] - 2 * M_VARSIGMA) < 1e-9
        assert [c["multiplicity"] for c in section["per_component"]] == [2]
        assert "G" not in section

    def test_partition_measure_via_cli(self, tmp_path, capsys):
        path = _write_state(tmp_path, "sigma", sigma())
        assert main(["compute", "--in", path, "--which", "G", "--json"]) == 0
        section = json.loads(capsys.readouterr().out)["measure"]
        assert set(section) == {"G", "F_A", "F_B"}
        assert abs(section["G"] - G_SIGMA) < 1e-9
        assert abs(section["G"] - 0.129) < 5e-4
        assert section["F_A"] < 1e-9

    def test_which_all_on_product_state(self, tmp_path, capsys):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        path = _write_state(tmp_path, "product", DensityMatrix(mat, (2, 2)))
        assert main(["compute", "--in", path, "--which", "all"]) == 0
        out = capsys.readouterr().out
        m_line = next(line for line in out.splitlines() if line.startswith("M   = "))
        g_line = next(line for line in out.splitlines() if line.startswith("G   = "))
        assert float(m_line.split("=")[1]) < 1e-9
        assert float(g_line.split("=")[1]) < 1e-9

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["compute", "--in", str(tmp_path / "nope.json")]) == 2
        assert "cannot read state file" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("dims,offdiagonal", [((1, 1), False), ((1, 2), True), ((2, 2), False), ((2, 2), True)])
    def test_non_finite_file_exits_2(self, tmp_path, capsys, literal, dims, offdiagonal):
        path = tmp_path / "bad.json"
        path.write_text(_non_finite_text(literal, dims, offdiagonal))
        assert main(["compute", "--in", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", _UNDECODABLE)
    def test_undecodable_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["compute", "--in", str(path)]) == 2
        assert "invalid state file" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", _UNDECODABLE_ROWS)
    def test_undecodable_multi_block_file_exits_2(self, tmp_path, capsys, literal):
        path = tmp_path / "bad.json"
        path.write_text(_mutate(_multi_block_text(), "number", 45, literal))
        with mock.patch.object(ncorr.io, "_BLOCK", _SMALL_BLOCK):
            assert main(["compute", "--in", str(path)]) == 2
        assert "invalid state file" in capsys.readouterr().err

    def test_file_not_in_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(state_file_text(varsigma()).encode("utf-16"))
        assert main(["compute", "--in", str(path)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    def test_integer_too_large_for_a_double_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"dims": [1, 1], "matrix": [[[1%s, 0]]]}' % ("0" * 400))
        assert main(["compute", "--in", str(path)]) == 2
        assert "matrix entry (0, 0) is an integer too large for a double" in capsys.readouterr().err

    def test_eps_flags_reach_the_report(self, tmp_path, capsys):
        """--eps-deg 1e-5 merges the near-degenerate pairs; both flags show in the tolerance block."""
        path = _write_state(tmp_path, "near", DensityMatrix(np.diag([0.1, 0.1 + 1e-6, 0.4 - 1e-6, 0.4]), (2, 2)))
        runs = (([], 1e-9, 1e-9, [1, 1, 1, 1]), (["--eps-deg", "1e-5", "--eps-tie", "0.25"], 1e-5, 0.25, [2, 2]))
        for flags, deg, tie, multiplicities in runs:
            assert main(["compute", "--in", path, "--json"] + flags) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["tolerances"]["deg"], doc["tolerances"]["tie"]) == (deg, tie)
            assert [c["multiplicity"] for c in doc["measure"]["per_component"]] == multiplicities

    @pytest.mark.parametrize("command", ["compute", "detect"])
    @pytest.mark.parametrize(
        "flag,value", [("--eps-deg", "nan"), ("--eps-deg", "-1"), ("--eps-tie", "nan"), ("--eps-tie", "inf")]
    )
    def test_invalid_tolerance_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        path = _write_state(tmp_path, "sigma", sigma())
        assert main([command, "--in", path, flag, value]) == 2
        field = flag.removeprefix("--eps-")
        assert f"tolerance {field} must be finite and >= 0" in capsys.readouterr().err

    def test_partition_guard_exits_3(self, tmp_path, capsys):
        path = _write_state(tmp_path, "big", random_density((5, 5), seed=3))
        assert main(["compute", "--in", path, "--which", "G"]) == 3
        err = capsys.readouterr().err
        count = math.factorial(25) // (math.factorial(5) ** 5 * math.factorial(5))
        assert str(count) in err
        assert "guard limit 16" in err

    def test_partition_guard_default_is_the_library_default(self):
        parsed = _build_parser().parse_args(["compute", "--in", "x.json"]).max_partition_dim
        for fn in (partition_discrepancy, partition_measure):
            assert inspect.signature(fn).parameters["max_dim"].default == parsed

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_partition_guard_below_one_exits_2(self, tmp_path, capsys, value):
        path = _write_state(tmp_path, "sigma", sigma())
        assert main(["compute", "--in", path, "--which", "G", "--max-partition-dim", value]) == 2
        assert f"max_dim must be an integer >= 1, got {value}" in capsys.readouterr().err


class TestCliDetect:
    def test_sigma_human_output(self, tmp_path, capsys):
        path = _write_state(tmp_path, "sigma", sigma())
        assert main(["detect", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: NONCLASSICAL (decided by: global-nondegenerate)" in out
        assert "evidence:" in out

    def test_varsigma_decided_by_conditional_blocks(self, tmp_path, capsys):
        path = _write_state(tmp_path, "varsigma", varsigma())
        assert main(["detect", "--in", path]) == 0
        assert "decided by: local-one-nondegenerate" in capsys.readouterr().out

    def test_tau_json_decided_by_npt(self, tmp_path, capsys):
        path = _write_state(tmp_path, "tau", tau())
        assert main(["detect", "--in", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "detect"
        assert doc["detection"]["verdict"] == "NONCLASSICAL"
        assert doc["detection"]["decided_by"] == "npt"

    def test_classical_json_carries_witness_basis(self, tmp_path, capsys):
        path = _write_state(tmp_path, "classical", random_classical((2, 2), seed=5)[0])
        assert main(["detect", "--in", path, "--json"]) == 0
        detection = json.loads(capsys.readouterr().out)["detection"]
        assert detection["verdict"] == "CLASSICAL"
        assert len(detection["basis_A"]) == 2
        assert len(detection["basis_B"]) == 2
        assert len(detection["weights"]) == 2
        total = sum(sum(row) for row in detection["weights"])
        assert abs(total - 1.0) < 1e-9

    def test_classical_human_output_mentions_basis(self, tmp_path, capsys):
        path = _write_state(tmp_path, "classical", random_classical((2, 2), seed=5)[0])
        assert main(["detect", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: CLASSICAL" in out
        assert "witnessing product eigenbasis emitted" in out

    def test_undecided_state_reports_no_decider(self, tmp_path, capsys):
        """kappa with default parameters is I/4: no detector decides, so the
        JSON decided_by is null and the text names none and no basis."""
        path = str(tmp_path / "kappa.json")
        assert main(["state", "--name", "kappa", "--out", path]) == 0
        assert main(["detect", "--in", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert '"decided_by": null,' in out
        assert json.loads(out)["detection"]["verdict"] == "UNKNOWN"
        assert main(["detect", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: UNKNOWN (decided by: none)\n" in out
        assert "basis" not in out


class TestCliNearHermitian:
    """A state validation accepts (max |m - m^dag| = 9e-11 < tol.herm) whose
    reduced state A has three times that error (2.7e-10): the whole request
    must run on the state as accepted, not re-check matrices derived from it."""

    @staticmethod
    def _path(tmp_path) -> str:
        mat = np.array(random_density((2, 3), seed=1).mat)
        for b in range(3):
            mat[b, 3 + b] += 0.45e-10
            mat[3 + b, b] -= 0.45e-10
        assert np.abs(mat - mat.conj().T).max() == pytest.approx(9e-11, rel=1e-3)
        return _write_state(tmp_path, "near_hermitian", DensityMatrix(mat, (2, 3)))

    def test_compute_all_exits_0(self, tmp_path, capsys):
        assert main(["compute", "--in", self._path(tmp_path), "--which", "all", "--json"]) == 0
        assert "G" in json.loads(capsys.readouterr().out)["measure"]

    def test_detect_exits_0(self, tmp_path, capsys):
        assert main(["detect", "--in", self._path(tmp_path)]) == 0
        assert "verdict:" in capsys.readouterr().out


class TestCliSweep:
    def test_pure_family_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--family", "phi_p",
            "--start", "0", "--stop", "1", "--steps", "21",
            "--out", str(path),
        ]
        assert main(argv) == 0
        data = path.read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0] == "param,M,S_vN_trB"
        assert len(lines) == 22
        for line in lines[1:]:
            p, m, s = (float(v) for v in line.split(","))
            assert abs(m - m_pure(p)) < 1e-9
            assert m <= s + 1e-9
        mid = lines[11].split(",")
        assert float(mid[0]) == 0.5
        assert abs(float(mid[1]) - 1.0) < 1e-12

    def test_degenerate_crossing_smoke(self, capsys):
        argv = [
            "sweep", "--family", "kappa",
            "--param", "c_y=0.2", "--param", "c_z=0.2",
            "--start", "-0.2", "--stop", "0.2", "--steps", "5",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert float(lines[3].split(",")[0]) == 0.0  # degenerate point included
        for line in lines[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(","))

    def test_bad_steps_exits_2(self, capsys):
        argv = ["sweep", "--family", "phi_p", "--start", "0", "--stop", "1", "--steps", "0"]
        assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("steps", [2.5, True])
    def test_run_sweep_takes_an_integer_step_count(self, steps):
        with pytest.raises(ncorr.DomainError, match="steps must be an integer"):
            run_sweep("phi_p", 0.0, 1.0, steps)

    def test_run_sweep_rejects_unknown_family(self):
        with pytest.raises(MalformedInputError, match="family"):
            run_sweep("nonesuch", 0.0, 1.0, 3)


class TestCliBench:
    def test_zero_trials(self, capsys):
        assert main(["bench", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "no timings collected (trials = 0)" in out

    def test_small_bench_writes_rows_and_slope(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["bench", "--max-dim", "4", "--trials", "1", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "log-log slope of runtime vs per-side dimension:" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "N,dim,mean_seconds"
        assert len(lines) == 3
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4]
        assert [int(line.split(",")[1]) for line in lines[1:]] == [4, 16]

    def test_every_timed_state_is_decomposed_in_its_timed_call(self, monkeypatch):
        """The warm-up runs on a state of its own: a timed state whose
        measure is already cached would time a dict lookup."""
        eigh, sizes = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run_bench(max_dim=4, trials=2)
        n2 = sizes[: sizes.index(16)]  # N=4's reduced matrices are 4x4 too
        assert (n2.count(4), sizes.count(16)) == (3, 3)

    def test_run_bench_argument_checks(self):
        rows, slope = run_bench(max_dim=2, trials=1)
        assert len(rows) == 1 and slope is None
        with pytest.raises(ncorr.DomainError, match="max-dim"):
            run_bench(max_dim=1)
        with pytest.raises(ncorr.DomainError, match="trials"):
            run_bench(trials=-1)

    @pytest.mark.parametrize(
        "kwargs, what", [({"trials": 1.5}, "trials"), ({"trials": True}, "trials"), ({"max_dim": 2.5}, "max-dim")]
    )
    def test_run_bench_takes_integer_counts(self, kwargs, what):
        with pytest.raises(ncorr.DomainError, match=f"{what} must be an integer"):
            run_bench(**kwargs)


class TestGoldenReports:
    """Byte-level regressions of the JSON reports, version field normalized."""

    def test_compute_varsigma(self, tmp_path, capsys):
        path = _write_state(tmp_path, "varsigma", varsigma())
        assert main(["compute", "--in", path, "--which", "all", "--json"]) == 0
        produced = _normalize_version(capsys.readouterr().out)
        frozen = _normalize_version((DATA_DIR / "compute_varsigma.json").read_text())
        assert produced == frozen

    @staticmethod
    def _check_detect(name, state, tmp_path, capsys):
        path = _write_state(tmp_path, name, state)
        assert main(["detect", "--in", path, "--json"]) == 0
        produced = _normalize_version(capsys.readouterr().out)
        frozen = _normalize_version((DATA_DIR / f"detect_{name}.json").read_text())
        assert produced == frozen

    def test_detect_sigma(self, tmp_path, capsys):
        self._check_detect("sigma", sigma(), tmp_path, capsys)

    def test_detect_varsigma(self, tmp_path, capsys):
        """Decided by local-one-nondegenerate, so this pins that detector's trail."""
        self._check_detect("varsigma", varsigma(), tmp_path, capsys)


_CATALOG = (varsigma, sigma, sigma_prime, sigma_dprime, tau, zeta, zeta_prime, xi, xi_prime)
_REPORTED = {f.__name__: f for f in _CATALOG} | {f"bell{n}": functools.partial(bell, n) for n in (2, 3, 4)}


@pytest.mark.parametrize("argv", [["compute", "--which", "all", "--json"], ["detect", "--json"]], ids=["compute", "detect"])
@pytest.mark.parametrize("name", _REPORTED)
def test_cli_json_report_is_the_per_node_writers_text(name, argv, tmp_path, capsys):
    """The report the CLI prints is, byte for byte, the text the per-node
    writer gives the same document."""
    path = _write_state(tmp_path, name, _REPORTED[name]())
    with mock.patch("ncorr.io.dumps", wraps=dumps) as writer:
        assert main([argv[0], "--in", path, *argv[1:]]) == 0
    (call,) = writer.call_args_list
    assert capsys.readouterr().out == per_node_dumps(*call.args)


class TestGoldenText:
    """The text reports, line for line, as the golden JSON reports render them."""

    @staticmethod
    def _text_after_header(argv, path, dims, capsys) -> list:
        assert main(argv + ["--in", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"state: {path} (dims {dims})"
        return lines[1:]

    @staticmethod
    def _tolerance_line(doc) -> str:
        return "tolerances: " + " ".join(f"{k}={v:g}" for k, v in doc["tolerances"].items())

    def test_compute_varsigma(self, tmp_path, capsys):
        doc = json.loads((DATA_DIR / "compute_varsigma.json").read_text())
        want = []
        for key, value in doc["measure"].items():
            if key == "per_component":
                want += ["per-eigenspace contributions:", "  eta            mult  side A          side B"]
                want += [
                    f"  {c['eta']:<14.9g} {c['multiplicity']:<5d} {c['contribution_A']:<15.9g} {c['contribution_B']:.9g}"
                    for c in value
                ]
            else:
                want.append(f"{key:<3} = {value:.12g}")
        want.append(self._tolerance_line(doc))
        path = _write_state(tmp_path, "varsigma", varsigma())
        assert self._text_after_header(["compute", "--which", "all"], path, "2x2", capsys) == want

    def _check_detect(self, name, state, tmp_path, capsys):
        doc = json.loads((DATA_DIR / f"detect_{name}.json").read_text())
        section = doc["detection"]
        want = [f"verdict: {section['verdict']} (decided by: {section['decided_by'] or 'none'})", "evidence:"]
        want += [f"  {e['test']}: {e['outcome']} (witness={e['witness']:.6g}) {e['detail']}" for e in section["evidence"]]
        if "basis_A" in section:
            want.append("witnessing product eigenbasis emitted (use --json for the matrices)")
        want.append(self._tolerance_line(doc))
        path = _write_state(tmp_path, name, state)
        assert self._text_after_header(["detect"], path, "2x2", capsys) == want

    def test_detect_sigma(self, tmp_path, capsys):
        self._check_detect("sigma", sigma(), tmp_path, capsys)

    def test_detect_varsigma(self, tmp_path, capsys):
        self._check_detect("varsigma", varsigma(), tmp_path, capsys)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "ncorr", "state", "--name", "bell", "--param", "N=2"],
            capture_output=True,
            text=True,
            check=True,
        )
        doc = json.loads(out.stdout)
        assert doc["dims"] == [2, 2]
        assert doc["matrix"][0][0][0] == pytest.approx(0.5)
        assert doc["matrix"][0][3][0] == pytest.approx(0.5)

    def test_compute_json_deterministic(self, tmp_path):
        path = _write_state(tmp_path, "phi", phi_p(0.3))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ncorr", "compute", "--in", path, "--json"],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
