"""Command-line front end: matrix/kernel ingestion and JSON reports.

Subcommands: dist, coeff, check, perron, kernel.  Every successful run
prints exactly one JSON report object on stdout and exits 0; every failure
prints a machine-readable {code, message, location} object on stderr and
exits nonzero.  Floats are serialized with 17 significant digits (lossless
for doubles) and infinities as the JSON string "inf", so reports are always
valid JSON and byte-identical across identical invocations (the coeff
report's elapsed field excepted).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from itertools import chain

import numpy as np

from .cone import _support, hilbert_distance, m_ratio, phi, psi, psi_inverse
from .kernels import (
    KernelGrid,
    KernelPatternError,
    builtin_kernel,
    discretize,
    factorization_certificate,
    kernel_contraction_estimate,
    tabulate_kernel,
)
from .matrices import (
    _check_cone_preserving,
    _first_dead_column,
    as_nonneg_matrix,
    contraction_coeff,
    contraction_coeff_formula,
    is_cone_preserving,
    is_uniformly_positive,
    uniform_positivity_certificate,
)
from .perron import perron_iterate

__all__ = ["CliError", "dumps", "main", "matrix_to_csv", "matrix_to_json", "read_kernel_grid", "read_matrix"]


class CliError(Exception):
    """Failure with a machine-readable code and location."""

    def __init__(self, code: str, message: str, location: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message
        self.location = location


# --------------------------------------------------------------------------
# JSON serialization with lossless float round-trip


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _emit(obj, out: list, indent: int | None, depth: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    end = "" if indent is None else "\n" + " " * (indent * depth)
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        is_dict = isinstance(obj, dict)
        items = list(obj.items() if is_dict else obj)
        brackets = "{}" if is_dict else "[]"
        if not items:
            out.append(brackets)
            return
        out.append(brackets[0])
        for k, item in enumerate(items):
            if k:
                out.append(",")
            out.append(pad)
            if is_dict:
                key, item = item
                out.append(json.dumps(str(key)) + ": ")
            _emit(item, out, indent, depth + 1)
        out.append(end + brackets[1])
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize a report to JSON text; floats round-trip exactly."""
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


# --------------------------------------------------------------------------
# Parsing and serialization of matrices and grids


def _parse_entry(cell: str, location: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise CliError("parse_error", f"invalid numeric literal {cell!r}", location) from None
    if math.isnan(v) or math.isinf(v):
        raise CliError("parse_error", f"non-finite entry {cell!r}", location)
    if v < 0.0:
        raise CliError("negative_entry", f"negative entry {cell!r} not allowed", location)
    return v


def parse_vector_literal(text: str, location: str = "vector") -> np.ndarray:
    """Parse a comma-separated nonnegative vector literal such as '1,2.5,3e-1'."""
    cells = [cell.strip() for cell in text.split(",")]
    if not cells or any(cell == "" for cell in cells):
        raise CliError("parse_error", f"empty entry in vector literal {text!r}", location)
    return np.array([_parse_entry(cell, location) for cell in cells])


def _matrix_from_rows(rows: list[list[float]], location: str) -> np.ndarray:
    if not rows:
        raise CliError("parse_error", "no rows found", location)
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise CliError("parse_error", f"row {k} has {len(row)} entries, expected {width}", location)
    return np.array(rows, dtype=float)


def _load(path: str, as_json: bool):
    """Text of the UTF-8 file ``path``, parsed when ``as_json``; file, encoding and JSON errors are ``CliError`` at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh) if as_json else fh.read()
    except OSError as exc:
        raise CliError("file_not_found", str(exc), path) from None
    except UnicodeDecodeError as exc:
        raise CliError("parse_error", f"not UTF-8 text: {exc}", path) from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested deeper than the parser's stack
        raise CliError("parse_error", f"invalid JSON: {exc}", path) from None


def _first_non_number(rows) -> tuple[int, int] | None:
    """``(i, j)`` of the first entry of a list row of the list ``rows`` that is not a JSON number (``bool`` is not one), or None."""
    for i, row in enumerate(rows if isinstance(rows, list) else ()):
        if isinstance(row, list) and not {int, float}.issuperset(map(type, row)):
            return i, next(j for j, v in enumerate(row) if type(v) not in (int, float))
    return None


def _json_entry(v, i: int, j: int, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise CliError("parse_error", f"entry ({i},{j}) is not a number", path)
    try:
        x = float(v)  # an integer literal beyond the double range overflows here
    except OverflowError:
        raise CliError("parse_error", f"entry ({i},{j}) is out of the double range", path) from None
    if not math.isfinite(x):
        raise CliError("parse_error", f"entry ({i},{j}) is not finite", path)
    if x < 0:
        raise CliError("negative_entry", f"negative entry {v} at ({i},{j})", path)
    return x


def read_matrix(path: str) -> np.ndarray:
    """Read a nonnegative matrix from a CSV file or a JSON {"matrix": [[...]]} file.

    A well-formed file takes one ``float()`` per CSV cell (or one ``np.array`` of the JSON numbers) and one vectorised
    check; any failure reruns the per-cell route, whose first bad cell names the error.
    """
    M = None
    if path.endswith(".json"):
        obj = _load(path, as_json=True)
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise CliError("parse_error", 'expected a JSON object with a "matrix" key', path)
        raw = obj["matrix"]
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise CliError("parse_error", '"matrix" must be a list of rows', path)
        if raw and _first_non_number(raw) is None:
            with contextlib.suppress(ValueError, OverflowError):  # ragged rows; an integer beyond the double range
                M = np.array(raw, dtype=float)
        rows = ([_json_entry(v, i, j, path) for j, v in enumerate(row)] for i, row in enumerate(raw))
    else:
        lines = [(lineno, line) for lineno, line in enumerate(_load(path, as_json=False).splitlines(), 1) if line.strip()]
        if len({line.count(",") for _, line in lines}) == 1:
            with contextlib.suppress(ValueError):  # a cell float() rejects
                cells = chain.from_iterable(map(float, line.split(",")) for _, line in lines)  # a list of all cells would double the peak memory
                M = np.fromiter(cells, float, len(lines) * (lines[0][1].count(",") + 1)).reshape(len(lines), -1)
        rows = ([_parse_entry(cell.strip(), f"{path}:{lineno}") for cell in line.split(",")] for lineno, line in lines)
    if M is not None and ((M >= 0.0) & (M < math.inf)).all():
        return M
    return _matrix_from_rows(list(rows), path)


def matrix_to_csv(M) -> str:
    """CSV text for a matrix; round-trips bitwise through read_matrix."""
    M = np.asarray(M, dtype=float)
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in M) + "\n"


def matrix_to_json(M, indent: int | None = None) -> str:
    """JSON text for a matrix; round-trips bitwise through read_matrix."""
    M = np.asarray(M, dtype=float)
    return dumps({"matrix": [list(row) for row in M]}, indent) + "\n"


def read_kernel_grid(path: str) -> KernelGrid:
    """Read a kernel grid from a JSON {"nodes", "weights", "values"} file whose entries are JSON numbers."""
    obj = _load(path, as_json=True)
    if not isinstance(obj, dict) or not {"nodes", "weights", "values"} <= set(obj):
        raise CliError("parse_error", 'expected a JSON object with "nodes", "weights" and "values"', path)
    for name in ("nodes", "weights", "values"):
        bad = _first_non_number(obj[name] if name == "values" else [obj[name]])
        if bad is not None:
            index = list(bad) if name == "values" else [bad[1]]
            raise CliError("invalid_grid", f"{name}{index} is not a number", path)
    try:
        return KernelGrid(nodes=obj["nodes"], weights=obj["weights"], values=obj["values"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise CliError("invalid_grid", str(exc), path) from None


# --------------------------------------------------------------------------
# Subcommands


def _report(command: str, inputs: dict, results: dict, warnings: list[str]) -> dict:
    return {"command": command, "inputs": inputs, "results": results, "warnings": warnings}


def _require_cone_preserving(M: np.ndarray, zero_tol: float, location: str) -> None:
    j = _first_dead_column(_support(as_nonneg_matrix(M), zero_tol))  # read_matrix does not check the shape
    if j is not None:
        raise CliError("not_cone_preserving", f"column {j} has no positive entry", f"{location}: column {j}")


def cmd_dist(args) -> dict:
    if args.file and args.vectors:
        raise CliError("bad_flags", "give either --file or two vector literals, not both", "dist")
    if args.file:
        M = read_matrix(args.file)
        if M.shape[0] != 2:
            raise CliError("invalid_input", f"expected exactly two rows, found {M.shape[0]}", args.file)
        f, g = M[0], M[1]
        inputs = {"file": args.file}
    else:
        if len(args.vectors) != 2:
            raise CliError("bad_flags", 'expected two vector literals, e.g. projcone dist "1,2" "2,1"', "dist")
        f = parse_vector_literal(args.vectors[0], "first vector")
        g = parse_vector_literal(args.vectors[1], "second vector")
        inputs = {"vectors": [f, g]}
    ratios = m_ratio(f, g, zero_tol=args.zero_tol)
    results = {
        "d": phi(ratios.m),
        "d_H": hilbert_distance(f, g, zero_tol=args.zero_tol),
        "m": ratios.m,
        "aleph_fg": ratios.aleph_fg,
        "aleph_gf": ratios.aleph_gf,
    }
    return _report("dist", inputs, results, [])


def cmd_coeff(args) -> dict:
    M = read_matrix(args.file)
    zt = args.zero_tol
    _require_cone_preserving(M, zt, args.file)
    inputs = {"file": args.file, "formula": bool(args.formula), "zero_tol": zt}
    start = time.perf_counter()
    if args.formula:
        try:
            c = contraction_coeff_formula(M, zt)
        except ValueError as exc:
            if _support(M, zt).all():
                raise  # the double-range refusal of a strictly positive matrix: invalid_input
            raise CliError("not_strictly_positive", str(exc), args.file) from None
        witness, method, a_star = None, "closed_form", psi_inverse(c) if c < 1.0 else None
    else:
        report = contraction_coeff(M, zt)
        c, witness, method, a_star = report.c, list(report.witness), report.method, report.a_star
    results = {
        "c": c,
        "is_strict": c < 1.0,
        "witness": witness,
        "method": method,
        "elapsed": time.perf_counter() - start,
    }
    if a_star is not None:
        results["a_star"] = a_star
    return _report("coeff", inputs, results, [])


def cmd_check(args) -> dict:
    M = read_matrix(args.file)
    zt = args.zero_tol
    warnings: list[str] = []
    cone_preserving = is_cone_preserving(M, zt)
    uniformly_positive = is_uniformly_positive(M, zt)
    # for a cone-preserving matrix the pattern test decides strict contraction
    strictly_contracting = uniformly_positive if cone_preserving else None
    if not cone_preserving:
        warnings.append("matrix is not cone-preserving; strictly_contracting is undefined and reported as null")
    certificate = None
    if cone_preserving and uniformly_positive:
        try:
            cert = uniform_positivity_certificate(M, zt)
            certificate = {"h": cert.h, "b": cert.b, "A": cert.A, "i0": cert.reference_row, "j0": cert.reference_col}
        except ArithmeticError:
            warnings.append("certificate omitted: the constructed sandwich failed validation")
    elif uniformly_positive:
        warnings.append("certificate omitted: matrix is not cone-preserving")
    results = {
        "cone_preserving": cone_preserving,
        "uniformly_positive": uniformly_positive,
        "strictly_contracting": strictly_contracting,
        "certificate": certificate,
    }
    return _report("check", {"file": args.file, "zero_tol": zt}, results, warnings)


def cmd_perron(args) -> dict:
    M = read_matrix(args.file)
    zt = args.zero_tol
    _require_cone_preserving(M, zt, args.file)
    inputs = {"file": args.file, "tol": args.tol, "max_iter": args.max_iter, "zero_tol": zt}
    if args.start is not None:
        inputs["start"] = args.start
    res = perron_iterate(M, args.start, tol=args.tol, max_iter=args.max_iter, zero_tol=zt)
    warnings = []
    if not res.converged:
        warnings.append(f"max-iter {args.max_iter} reached before the step distance fell below tol")
    if res.no_bound_reason is not None:
        warnings.append(res.no_bound_reason)
    results = {
        "eigenvector": res.eigenvector,
        "eigenvalue_lower": res.eigenvalue_lower,
        "eigenvalue_upper": res.eigenvalue_upper,
        "iterations": res.iterations,
        "final_step_distance": res.final_step_distance,
        "converged": res.converged,
    }
    if res.error_bound is not None:
        results["error_bound"] = res.error_bound
    return _report("perron", inputs, results, warnings)


def cmd_kernel(args) -> dict:
    zt = args.zero_tol
    if args.file is not None:
        grid = read_kernel_grid(args.file)
        inputs = {"file": args.file, "zero_tol": zt}
    else:
        params = dict(args.param or [])
        try:
            kernel = builtin_kernel(args.builtin, **params)
            grid = tabulate_kernel(kernel, args.n, args.rule)
        except (ValueError, MemoryError) as exc:  # MemoryError: an n x n grid beyond the machine's memory
            raise CliError("bad_flags", str(exc), "kernel") from None
        inputs = {"builtin": args.builtin, "n": args.n, "rule": args.rule, "params": params, "zero_tol": zt}
    # O(n^2) checks first, so a grid they reject never pays for the O(n^3) scans
    try:
        _check_cone_preserving(_support(discretize(grid), zt))
        cert = factorization_certificate(grid, zt)
        report = kernel_contraction_estimate(grid, zt)
    except KernelPatternError as exc:
        raise CliError("pattern_failure", str(exc), f"values[{exc.row}][{exc.col}]") from None
    except ArithmeticError:
        raise CliError("certificate_failure", "the constructed factorization certificate failed validation", "kernel") from None
    c_values_only = contraction_coeff(grid.values, zt).c
    deviation = abs(report.c - c_values_only)
    results = {
        "c_grid": report.c,
        "certificate": {"A": cert.A, "g1": cert.g1, "g2": cert.g2, "k0": cert.reference_row, "j0": cert.reference_col},
        "psi_of_A": psi(cert.A),
        "weight_invariance": {
            "c_values_only": c_values_only,
            "abs_difference": deviation,
            "within_1e-12": deviation <= 1e-12,
        },
    }
    return _report("kernel", inputs, results, [])


# --------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # structured instead of argparse's SystemExit(2)
        raise CliError("bad_flags", message, self.prog)


def _number(parse, holds, requirement: str):
    """argparse type: a finite ``parse(text)`` for which ``holds`` is true.  A malformed number gets argparse's own message."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and holds(value)):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return convert


def _param(text: str) -> tuple[str, float]:
    """``--param`` value: ``NAME=VALUE`` with a numeric value."""
    name, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expects name=value, got {text!r}")
    try:
        return name.strip(), float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value {raw!r} is not a number") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--zero-tol", type=_number(float, lambda v: v >= 0.0, "finite and nonnegative"), default=0.0, metavar="T",
                        help="entries at or below T count as zero in pattern tests (default 0)")
    common.add_argument("--json-indent", type=int, default=None, metavar="N",
                        help="pretty-print the report with N-space indentation")

    parser = _Parser(prog="projcone", description="Projective cone geometry: bounded metric, contraction coefficients, certificates, Perron iteration, kernels.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dist", parents=[common], help="projective distances between two nonnegative vectors")
    p.add_argument("vectors", nargs="*", help='two comma-separated vector literals, e.g. "1,2" "2,1"')
    p.add_argument("--file", help="matrix file (CSV or JSON) with exactly two rows")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("coeff", parents=[common], help="contraction coefficient of a matrix")
    p.add_argument("file", help="matrix file (CSV or JSON)")
    p.add_argument("--formula", action="store_true",
                   help="use the O(d^4) closed form (strictly positive matrices only)")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("check", parents=[common], help="cone-preservation, positivity pattern and certificate")
    p.add_argument("file", help="matrix file (CSV or JSON)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("perron", parents=[common], help="projective power iteration for the Perron eigenvector")
    p.add_argument("file", help="matrix file (CSV or JSON)")
    p.add_argument("--tol", type=_number(float, lambda v: v > 0.0, "finite and positive"), default=1e-12,
                   help="stopping distance between successive rays (default 1e-12)")
    p.add_argument("--max-iter", type=_number(int, lambda v: v >= 1, "at least 1"), default=10000, help="iteration budget (default 10000)")
    p.add_argument("--start", type=lambda text: parse_vector_literal(text, "--start"), help="comma-separated starting vector (default all ones)")
    p.set_defaults(func=cmd_perron)

    p = sub.add_parser("kernel", parents=[common], help="discretize a positive kernel and certify its contraction")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help='kernel grid JSON file {"nodes", "weights", "values"}')
    source.add_argument("--builtin", help="builtin kernel family: constant, separable, poly1xy, gaussian")
    p.add_argument("--n", type=int, default=8, help="number of quadrature nodes for --builtin (default 8)")
    p.add_argument("--rule", default="midpoint", choices=("midpoint", "trapezoid"),
                   help="quadrature rule for --builtin (default midpoint)")
    p.add_argument("--param", action="append", type=_param, metavar="NAME=VALUE",
                   help="kernel parameter, repeatable (e.g. --param sigma=0.5)")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    command = "projcone"
    try:
        args = parser.parse_args(argv)
        command = args.command
        report = args.func(args)
        sys.stdout.write(dumps(report, indent=args.json_indent) + "\n")
        return 0
    except (CliError, ValueError) as err:
        if not isinstance(err, CliError):  # the library refused the input
            err = CliError("invalid_input", str(err), command)
        sys.stderr.write(dumps({"code": err.code, "message": err.message, "location": err.location}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
