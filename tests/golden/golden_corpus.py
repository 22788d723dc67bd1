"""Golden corpus: seeded inputs and the exact results the library and the CLI give on them.

``golden.json`` next to this file holds, for every input below, each result
with floats written by ``float.hex``, or the type and message of the
exception a call raised.  ``test_golden.py`` recomputes every entry and
requires it to be unchanged, so results that earlier changes kept bitwise
identical stay so.  A change that alters a result on purpose rewrites the
file with

    PYTHONPATH=src python tests/golden/golden_corpus.py

and names the entries that changed.

Inputs are drawn by Python's ``random.Random`` (its stream is fixed across
Python versions), and each library entry carries a digest of its matrix, so
a changed input is told apart from a changed result.  Known defects are
recorded as they are: an entry whose calls printed raw numpy warnings lists
them under ``raw_warnings`` (the test allows fewer, never new ones), a NaN
coefficient is marked under ``known``, and the CLI files name the defect
they were chosen for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from projcone import (
    builtin_kernel,
    contraction_coeff,
    factorization_certificate,
    is_cone_preserving,
    is_strictly_contracting,
    is_uniformly_positive,
    kernel_contraction_estimate,
    perron_iterate,
    tabulate_kernel,
    uniform_positivity_certificate,
)
from projcone.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 20261018
# the CLI fuzz test's entries: subnormals, both ends of the double range, and zeros
ENTRIES = [0, 1, 2, 0.3, 1e-15, 1e-300, 1e-310, 5e-324, 1e300, 1.7e308]
ZERO_TOLS = (0.0, 0.5)
MATRIX_COUNT = 520
PERRON_MAX_ITER = 64  # enough for the positive families to converge, small enough to keep the corpus fast


def _encode(x):
    """JSON value of a result: floats by ``float.hex``, arrays and tuples as lists."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_encode(v) for v in x]
    return x  # None and str


def _outcome(call, fields):
    """``fields(call())`` encoded, or the type and message of the exception the call raised."""
    try:
        return _encode(fields(call()))
    except (ValueError, ArithmeticError) as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


@contextlib.contextmanager
def _caught_warnings(sink: set):
    """Collect the messages of raw warnings into ``sink`` instead of printing (or raising) them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    sink.update(f"{w.category.__name__}: {w.message}" for w in caught)


def corpus_matrices():
    """``MATRIX_COUNT`` seeded square matrices, n = 1..24, in four families that cycle."""
    rng = random.Random(SEED)
    for k in range(MATRIX_COUNT):
        n = 1 + min(int(rng.expovariate(1 / 6)), 23)
        family = k % 4
        if family == 0:  # the fuzz entries, zeros included
            M = np.array([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)], dtype=float)
        elif family == 1:  # positive, with a few fuzz entries
            M = np.array([[rng.choice(ENTRIES) if rng.random() < 0.1 else rng.uniform(0.1, 10.0) for _ in range(n)] for _ in range(n)])
        elif family == 2:  # log-uniform magnitudes, some zeros
            M = np.array([[0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(n)])
        else:  # positive with all-zero rows
            M = np.array([[rng.uniform(0.05, 2.0) for _ in range(n)] for _ in range(n)])
            for i in range(n):
                if rng.random() < 0.25:
                    M[i] = 0.0
        yield M


def library_entry(M: np.ndarray, zero_tol: float) -> dict:
    """Every library result on one matrix at one ``zero_tol``."""
    raw: set[str] = set()
    with _caught_warnings(raw):
        entry = {
            "n": M.shape[0],
            "zero_tol": _encode(zero_tol),
            "digest": hashlib.sha256(M.tobytes()).hexdigest()[:16],
            "coeff": _outcome(lambda: contraction_coeff(M, zero_tol), lambda r: [r.c, r.witness, r.a_star, r.is_strict, r.method]),
            "is_cone_preserving": _outcome(lambda: is_cone_preserving(M, zero_tol), bool),
            "is_uniformly_positive": _outcome(lambda: is_uniformly_positive(M, zero_tol), bool),
            "is_strictly_contracting": _outcome(lambda: is_strictly_contracting(M, zero_tol), bool),
            "certificate": _outcome(lambda: uniform_positivity_certificate(M, zero_tol), lambda c: [c.A, c.reference_row, c.reference_col]),
            "perron": _outcome(
                lambda: perron_iterate(M, max_iter=PERRON_MAX_ITER, zero_tol=zero_tol),
                lambda r: [r.eigenvector, r.eigenvalue_lower, r.eigenvalue_upper, r.iterations,
                           r.final_step_distance, r.error_bound, r.converged, r.no_bound_reason],
            ),
        }
    if isinstance(entry["coeff"], list) and entry["coeff"][0] == "nan":
        entry["known"] = ["NaN coefficient from an inf * 0 pair product (ROADMAP item 2)"]
    if raw:
        entry["raw_warnings"] = sorted(raw)
    return entry


KERNELS = [("constant", {}), ("separable", {}), ("poly1xy", {}), ("gaussian", {"sigma": 1.0}), ("gaussian", {"sigma": 0.02})]


def kernel_entry(name: str, params: dict, n: int, rule: str, zero_tol: float) -> dict:
    """Certificate and grid coefficient of one builtin kernel grid."""
    grid = tabulate_kernel(builtin_kernel(name, **params), n, rule)
    raw: set[str] = set()
    with _caught_warnings(raw):
        entry = {
            "kernel": name, "params": params, "n": n, "rule": rule, "zero_tol": _encode(zero_tol),
            "certificate": _outcome(lambda: factorization_certificate(grid, zero_tol),
                                    lambda c: [c.A, c.g1, c.g2, c.reference_row, c.reference_col]),
            "estimate": _outcome(lambda: kernel_contraction_estimate(grid, zero_tol), lambda r: [r.c, r.witness, r.a_star]),
        }
    if raw:
        entry["raw_warnings"] = sorted(raw)
    return entry


def kernel_cases():
    for name, params in KERNELS:
        for n, rule in ((1, "midpoint"), (5, "midpoint"), (12, "trapezoid"), (16, "midpoint")):
            for zero_tol in ZERO_TOLS:
                yield name, params, n, rule, zero_tol


def _csv(rows) -> str:
    return "".join(row + "\n" for row in rows)


# name -> (file text, the defect it was chosen for or None)
CLI_FILES = {
    "pos.csv": (_csv(["2,1", "1,2"]), None),
    "scale.csv": (_csv(["2000,1000", "1000,2000"]), None),
    "nan.csv": (_csv(["1,1e-310,1e300,1e-310"] * 4), "NaN coefficient and raw warnings (ROADMAP item 2)"),
    "overflow.csv": (_csv(["1e-300,0.3,0", "1e-300,1,2", "1e-310,0,1e-310"]), "raw overflow warning in the Perron step"),
    "contradiction.csv": (_csv(["1e300,1e300", "1e300,1e-300"]), "c rounds to 1 and m_min underflows, so no a_star (ROADMAP item 4)"),
    "near_one.csv": (_csv(["1,1e-9", "1e-9,1"]), None),
    "subnormal.csv": (_csv(["1e-310,1e-310", "1e-310,2e-310"]), None),
    "lost.csv": (_csv(["1,1", "1,1e-310"]), "certificate A beyond the double range"),
    "dead.csv": (_csv(["1,0", "1,0"]), None),
    "pattern.csv": (_csv(["1,0", "1,1"]), None),
    "zero_row.json": ('{"matrix": [[0, 0, 0], [1, 2, 3], [2, 1, 1]]}\n', None),
    "grid.json": (json.dumps({"nodes": [0.25, 0.75], "weights": [0.5, 0.5], "values": [[1.0, 0.5], [0.5, 1.0]]}) + "\n", None),
}


def cli_cases():
    """argv lists: every subcommand on every file, then flag variants."""
    for name in CLI_FILES:
        for argv in (["coeff", name], ["check", name], ["perron", name], ["dist", "--file", name], ["kernel", "--file", name]):
            yield argv
    for name in ("pos.csv", "nan.csv", "contradiction.csv", "zero_row.json"):
        yield ["coeff", name, "--formula"]
    for name in ("pos.csv", "near_one.csv", "zero_row.json", "pattern.csv"):
        for command in ("coeff", "check", "perron"):
            yield [command, name, "--zero-tol", "0.5"]
    yield ["kernel", "--builtin", "constant", "--n", "8", "--zero-tol", "0.2"]  # zero_tol reads the values, never values * weights
    yield ["kernel", "--builtin", "gaussian", "--param", "sigma=0.05", "--n", "16"]
    yield ["kernel", "--builtin", "poly1xy", "--n", "6", "--rule", "trapezoid"]
    yield ["dist", "1,0,2", "2,1,0"]
    # every subcommand refuses a dead column alike, ahead of --formula's positivity refusal
    yield ["coeff", "dead.csv", "--formula"]
    yield ["kernel", "--builtin", "constant", "--n", "3", "--zero-tol", "1"]
    yield ["kernel", "--file", "grid.json", "--zero-tol", "1"]


_ELAPSED = re.compile(r'"elapsed": [^,}]+')


def cli_entry(argv: list[str]) -> dict:
    """Exit code, stdout (``elapsed`` masked) and stderr of one in-process CLI run in the current directory."""
    raw: set[str] = set()
    out, err = io.StringIO(), io.StringIO()
    with _caught_warnings(raw), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    entry = {"argv": argv, "exit": code, "stdout": _ELAPSED.sub('"elapsed": "*"', out.getvalue()), "stderr": err.getvalue()}
    known = CLI_FILES.get(next((a for a in argv if a in CLI_FILES), ""), (None, None))[1]
    if known:
        entry["known"] = known
    if raw:
        entry["raw_warnings"] = sorted(raw)
    return entry


@contextlib.contextmanager
def cli_directory():
    """A temporary working directory holding ``CLI_FILES``, so reports name the files by relative path."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, _) in CLI_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old)


def record() -> dict:
    """The whole corpus, computed by the code on the import path."""
    library = [library_entry(M, zt) for M in corpus_matrices() for zt in ZERO_TOLS]
    kernels = [kernel_entry(*case) for case in kernel_cases()]
    with cli_directory():
        cli = [cli_entry(argv) for argv in cli_cases()]
    return {"library": library, "kernels": kernels, "cli": cli}


def write(corpus: dict, path: Path = GOLDEN) -> None:
    """One entry per line, so a diff names the entries that changed."""
    parts = []
    for section, entries in corpus.items():
        body = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
        parts.append(f'"{section}": [\n{body}\n]')
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    write(record())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
