"""read_matrix's one-pass route against the per-cell route it falls back to.

The one-pass route parses a CSV file's non-blank lines with numpy's
``loadtxt`` (a JSON file with one ``np.array``).  Files it refuses, or whose
entries fail the vectorised check, take the per-cell route: ragged rows,
non-finite or negative entries, and cells that ``float()`` reads but numpy
does not, such as ``1_0`` and non-ASCII digits.

``_per_cell_read`` is the reference: every cell through ``_parse_entry``
(CSV) or the JSON entry checks, in file order, then the width check.  The
one-pass route must return the same bits on every file it accepts, and every
file it rejects must fail with the same code, message and location.
"""

import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projcone import cli
from projcone.cli import CliError, _load, _parse_entry, matrix_to_csv, matrix_to_json, read_matrix


def _per_cell_rows(rows: list[list[float]], location: str) -> np.ndarray:
    if not rows:
        raise CliError("parse_error", "no rows found", location)
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise CliError("parse_error", f"row {k} has {len(row)} entries, expected {width}", location)
    return np.array(rows, dtype=float)


def _per_cell_read(path: str) -> np.ndarray:
    if path.endswith(".json"):
        obj = _load(path, as_json=True)
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise CliError("parse_error", 'expected a JSON object with a "matrix" key', path)
        raw = obj["matrix"]
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise CliError("parse_error", '"matrix" must be a list of rows', path)
        rows = []
        for i, row in enumerate(raw):
            parsed = []
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise CliError("parse_error", f"entry ({i},{j}) is not a number", path)
                try:
                    x = float(v)
                except OverflowError:
                    raise CliError("parse_error", f"entry ({i},{j}) is out of the double range", path) from None
                if not math.isfinite(x):
                    raise CliError("parse_error", f"entry ({i},{j}) is not finite", path)
                if x < 0:
                    raise CliError("negative_entry", f"negative entry {v} at ({i},{j})", path)
                parsed.append(x)
            rows.append(parsed)
        return _per_cell_rows(rows, path)
    rows = []
    for lineno, line in enumerate(_load(path, as_json=False).splitlines(), 1):
        if line.strip() == "":
            continue
        rows.append([_parse_entry(cell.strip(), f"{path}:{lineno}") for cell in line.split(",")])
    return _per_cell_rows(rows, path)


def _outcome(reader, path):
    try:
        M = reader(path)
    except CliError as err:
        return ("error", err.code, err.message, err.location)
    return ("matrix", M.dtype.str, M.shape, M.tobytes())


def _same_outcome(suffix: str, content: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m" + suffix)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        assert _outcome(read_matrix, path) == _outcome(_per_cell_read, path), repr(content)


# ---------------------------------------------------------------------------
# CSV: cell text float() may or may not accept, in rows that may be ragged

SPACES = ["", " ", "\t", "\x0b", "\x1f", "\xa0", "\u2003", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"]
WORDS = ["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "infinity", "1e309", "-1e309", "-0", "-0.0", "+0",
         "5e-324", "2e-324", "1e-310", "1.7976931348623157e308", "1_0", "1__0", "_1", "1_", "0x10", "1d5", ".5",
         "5.", ".", "e5", "\u0661\u0662", "\uff11", "1e", "1e+", "--1", "+-1", "abc"]

digits = st.text("0123456789", min_size=1, max_size=4)


@st.composite
def numerals(draw, signs=("", "+", "-")):
    text = draw(st.sampled_from(signs)) + draw(digits)
    if draw(st.booleans()):
        text += "_" + draw(digits)
    if draw(st.booleans()):
        text += "." + draw(st.sampled_from(["", "5", "25"]))
    if draw(st.booleans()):
        text += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 330)))
    return text


def padded(core, spaces=SPACES):
    return st.tuples(st.sampled_from(spaces), core, st.sampled_from(spaces)).map("".join)


good_cells = padded(numerals(signs=("", "+")), spaces=["", " ", "\t", "\xa0", "\u3000"])
any_cells = padded(st.one_of(numerals(), st.sampled_from(WORDS), st.just("")))


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([width] * 9 + [width + 1, max(width - 1, 1)]))  # now and then a ragged row
        rows.append(draw(st.lists(good_cells, min_size=n, max_size=n)))
    if rows and draw(st.booleans()):  # one cell of any kind in half of the files
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(any_cells)
    lines = [",".join(row) + draw(st.sampled_from([""] * 19 + [","])) for row in rows]  # now and then a trailing comma
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))  # a blank line
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=csv_texts())
@example(text="1,2\n\n3,-0\n")
@example(text=" 1 ,\u3000 2\u2003\r\n3,4\r\n")
@example(text="\x1f1,2\n3,4\n")
@example(text="1,2\n3,nan\n")
@example(text="1,2\n-3,4\n")
@example(text="1,2\n3\n")
@example(text="1,2\n3,4,\n")
@example(text="1,x\n3\n")
@example(text="\n \n")
@example(text="0.5,-0,5e-324\r\n\n  1e-310 ,1.7976931348623157e308,\u3000 2 \n1_0,+3,.5\n")
def test_csv_matches_the_per_cell_route(text):
    _same_outcome(".csv", text)


# ---------------------------------------------------------------------------
# JSON: numbers json.load may return, and values that are not numbers

INTS = [0, 1, 7, 2**53 - 1, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63 + 1, 2**64 - 1, 2**64 + 1, 2**70 + 1,
        2**1023 * 3 // 2, 2**1024 - 2**970, 2**1024 - 2**969, 2**1024, 10**400, -1, -(2**64)]
FLOATS = [0.0, -0.0, 5e-324, 1e-310, 0.3, 1.0, 1e300, 1.7976931348623157e308, -2.5, math.inf, -math.inf, math.nan]
OTHERS = [True, False, None, "1", " 2 ", [1.0], {"a": 1}]

json_entries = st.one_of(st.sampled_from(INTS), st.sampled_from(FLOATS), st.floats(0.0, 10.0), st.sampled_from(OTHERS))


@st.composite
def json_texts(draw):
    width = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([width] * 9 + [width + 1, max(width - 1, 0)]))  # now and then a ragged row
        # mostly numbers, so that most files reach the end of both routes
        row = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from(INTS[:10] + FLOATS[:6])), min_size=n, max_size=n))
        if row and draw(st.sampled_from([False, False, True])):
            row[draw(st.integers(0, n - 1))] = draw(json_entries)
        rows.append(row)
    return json.dumps({"matrix": rows})


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=st.one_of(json_texts(), st.sampled_from(['{"matrix": 5}', '{"matrix": [1, 2]}', "[[1]]", '{"m": []}'])))
@example(text='{"matrix": [[]]}')
@example(text='{"matrix": []}')
@example(text='{"matrix": [[1, 2.5], [9007199254740993, 0]]}')
@example(text='{"matrix": [[1, 2], [3, true]]}')
@example(text='{"matrix": [[-1, "x"]]}')
@example(text='{"matrix": [[1, 2], [3]]}')
@example(text='{"matrix": [[1, 2], [3, 1' + "0" * 400 + "]]}")
@example(text='{"matrix": [[NaN, 1]]}')
@example(text='{"matrix": [[-0.0, -0, 5e-324]]}')
def test_json_matches_the_per_cell_route(text):
    _same_outcome(".json", text)


# ---------------------------------------------------------------------------
# pinned results on structural edge cases: the bits of the matrix, or the error and the line it names


@pytest.mark.parametrize(
    "content, expected",
    [
        ("1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n \t\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n3\n", ("parse_error", "row 1 has 1 entries, expected 2", "")),
        ("1\n2\n3\n", [[1.0], [2.0], [3.0]]),
        ("1,2,3\n", [[1.0, 2.0, 3.0]]),
        ("1,2,\n3,4,\n", ("parse_error", "invalid numeric literal ''", ":1")),
        ("\ufeff1,2\n3,4\n", ("parse_error", "invalid numeric literal '\\ufeff1'", ":1")),
        ("\x1f1,2\n3,4\x1f\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,\u20282\n", ("parse_error", "invalid numeric literal ''", ":1")),
        ("1,\x1c2\n", ("parse_error", "invalid numeric literal ''", ":1")),
        ("1_0,2\n", [[10.0, 2.0]]),
        ("\u0661\u0662,1\n", [[12.0, 1.0]]),
        ("-0,1\n", [[-0.0, 1.0]]),
        ("1,2\nnan,1\n", ("parse_error", "non-finite entry 'nan'", ":2")),
        ("1e400,1\n", ("parse_error", "non-finite entry '1e400'", ":1")),
        ("", ("parse_error", "no rows found", "")),
    ],
    ids=["blank-line", "whitespace-line", "crlf", "lone-cr", "ragged", "one-column", "one-row", "trailing-comma", "bom",
         "x1f-padding", "u2028", "x1c", "underscore", "arabic-digits", "minus-zero", "nan", "1e400", "empty"],
)
def test_csv_edge_cases_keep_their_pinned_result(tmp_path, content, expected):
    path = tmp_path / "m.csv"
    path.write_text(content, encoding="utf-8", newline="")
    if isinstance(expected, tuple):
        code, message, line = expected
        assert _outcome(read_matrix, str(path)) == ("error", code, message, str(path) + line)
    else:
        M = np.array(expected)
        assert _outcome(read_matrix, str(path)) == ("matrix", "<f8", M.shape, M.tobytes())


# ---------------------------------------------------------------------------
# the one-pass route is the one well-formed files take


@pytest.mark.parametrize(
    "suffix, content",
    [
        (".csv", "0.5,-0,5e-324\r\n\n  1e-310 ,1.7976931348623157e308,\u3000 2 \n10,+3,.5\n"),
        (".json", '{"matrix": [[0.5, -0.0, 5e-324], [9007199254740993, 18446744073709551617, 2], [0, 1, 1e300]]}'),
    ],
)
def test_well_formed_files_skip_the_per_cell_route(tmp_path, monkeypatch, suffix, content):
    path = tmp_path / ("m" + suffix)
    path.write_text(content, encoding="utf-8")
    expected = _per_cell_read(str(path))

    def per_cell_route(*args):
        raise AssertionError("the per-cell route ran on a well-formed file")

    monkeypatch.setattr(cli, "_matrix_from_rows", per_cell_route)
    got = read_matrix(str(path))
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert math.copysign(1.0, got[0, 1]) == -1.0


@pytest.mark.parametrize("write", [matrix_to_csv, matrix_to_json], ids=["csv", "json"])
def test_read_matrix_peak_memory_is_at_most_three_times_the_file(tmp_path, write):
    M = np.random.default_rng(512).uniform(0.0, 10.0, size=(512, 512))
    path = tmp_path / ("m.csv" if write is matrix_to_csv else "m.json")
    path.write_text(write(M))
    tracemalloc.start()
    try:
        got = read_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == M.tobytes()
    assert peak <= 3 * path.stat().st_size, peak / path.stat().st_size
