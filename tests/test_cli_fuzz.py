"""The CLI contract on arbitrary inputs: one JSON report and exit 0, or one error object and exit 1."""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from projcone.cli import main

ENTRIES = [0, 1, 2, 0.3, 1e-15, 1e-300, 1e-310, 5e-324, 1e300, 1.7e308]
COMMANDS = {
    "coeff": ["coeff"],
    "check": ["check"],
    "perron": ["perron"],
    "dist": ["dist", "--file"],
    "kernel": ["kernel", "--file"],
}


@st.composite
def structured_cases(draw):
    """A matrix file (CSV or JSON) or a kernel grid file of dimension 1 to 4."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    n = draw(st.integers(1, 4))
    rows = 2 if command == "dist" else n
    matrix = draw(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=rows, max_size=rows))
    if command == "kernel":
        grid = {"nodes": [(k + 0.5) / n for k in range(n)], "weights": [1.0 / n] * n, "values": matrix}
        return command, ".json", json.dumps(grid).encode()
    if draw(st.booleans()):
        return command, ".json", json.dumps({"matrix": matrix}).encode()
    return command, ".csv", "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix).encode()


raw_cases = st.tuples(st.sampled_from(sorted(COMMANDS)), st.sampled_from([".csv", ".json"]), st.binary(max_size=64))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=st.one_of(structured_cases(), raw_cases), zero_tol=st.sampled_from(["0", "0.2", "0.5"]))
@example(case=("coeff", ".json", b"[" * 100000), zero_tol="0")
@example(case=("kernel", ".json", b"[" * 100000), zero_tol="0")
@example(case=("check", ".csv", b"1,1\n0.3,0\n"), zero_tol="0.5")
@example(case=("check", ".csv", b"1e-310,1e-310\n1e-310,2e-310\n"), zero_tol="0")
@example(case=("kernel", ".json", b'{"nodes":[0.25,0.75],"weights":[0.5,0.5],"values":[[1,1],[0.3,0]]}'), zero_tol="0.4")
def test_cli_contract_holds_for_any_input(case, zero_tol):
    command, suffix, content = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as fh:
            fh.write(content)
        argv = [*COMMANDS[command], path, "--zero-tol", zero_tol]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)  # raw numpy warnings are a separate defect
            code = main(argv)
    assert code in (0, 1), argv
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), dict), argv
    else:
        assert out.getvalue() == "", argv
        payload = json.loads(err.getvalue().splitlines()[-1])
        assert set(payload) == {"code", "message", "location"}, argv


HUGE = "1" + "0" * 400
FLAG_VALUES = st.one_of(
    st.sampled_from([HUGE, "-" + HUGE, "1e400", "-1e400", "1e-400", "5e-324", "nan", "-nan", "inf", "-inf", "0", "-1", "1.5",
                     "64", "65", str(10**20), "x", "", " ", "0x10", "1_000", "--", "--tol"]),
    st.integers(-1000, 1000).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)
PERRON_FLAGS = ("--max-iter", "--tol", "--zero-tol", "--json-indent")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(values=st.tuples(*(st.none() | FLAG_VALUES for _ in PERRON_FLAGS)), joined=st.booleans())
@example(values=(HUGE, None, None, None), joined=False)
@example(values=(None, None, None, str(10**20)), joined=False)
@example(values=("--", None, None, None), joined=True)
def test_cli_contract_holds_for_any_flag_values(values, joined):
    # 2,1 / 1,2 reaches step 0 at iteration 1, so no --max-iter loops long; kernel --n is left out, as a drawn n
    # would allocate n x n grids
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.csv")
        with open(path, "w") as fh:
            fh.write("2,1\n1,2\n")
        flags = [(flag, value) for flag, value in zip(PERRON_FLAGS, values) if value is not None]
        argv = ["perron", path, *(arg for flag, value in flags for arg in ([f"{flag}={value}"] if joined else [flag, value]))]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1), argv
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), dict), argv
    else:
        assert out.getvalue() == "", argv
        payload = json.loads(err.getvalue())
        assert set(payload) == {"code", "message", "location"}, argv
