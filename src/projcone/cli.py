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
import json
import math
import sys
import time

import numpy as np

from .cone import hilbert_distance, m_ratio, phi, psi, psi_inverse
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


def read_matrix(path: str) -> np.ndarray:
    """Read a nonnegative matrix from a CSV file or a JSON {"matrix": [[...]]} file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("file_not_found", str(exc), path) from None
    except UnicodeDecodeError as exc:
        raise CliError("parse_error", f"not UTF-8 text: {exc}", path) from None
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested deeper than the parser's stack
            raise CliError("parse_error", f"invalid JSON: {exc}", path) from None
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
                    x = float(v)  # an integer literal beyond the double range overflows here
                except OverflowError:
                    raise CliError("parse_error", f"entry ({i},{j}) is out of the double range", path) from None
                if not math.isfinite(x):
                    raise CliError("parse_error", f"entry ({i},{j}) is not finite", path)
                if x < 0:
                    raise CliError("negative_entry", f"negative entry {v} at ({i},{j})", path)
                parsed.append(x)
            rows.append(parsed)
        return _matrix_from_rows(rows, path)
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip() == "":
            continue
        rows.append([_parse_entry(cell.strip(), f"{path}:{lineno}") for cell in line.split(",")])
    return _matrix_from_rows(rows, path)


def matrix_to_csv(M) -> str:
    """CSV text for a matrix; round-trips bitwise through read_matrix."""
    M = np.asarray(M, dtype=float)
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in M) + "\n"


def matrix_to_json(M, indent: int | None = None) -> str:
    """JSON text for a matrix; round-trips bitwise through read_matrix."""
    M = np.asarray(M, dtype=float)
    return dumps({"matrix": [list(row) for row in M]}, indent) + "\n"


def read_kernel_grid(path: str) -> KernelGrid:
    """Read a kernel grid from a JSON {"nodes", "weights", "values"} file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError("file_not_found", str(exc), path) from None
    except UnicodeDecodeError as exc:
        raise CliError("parse_error", f"not UTF-8 text: {exc}", path) from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError("parse_error", f"invalid JSON: {exc}", path) from None
    if not isinstance(obj, dict) or not {"nodes", "weights", "values"} <= set(obj):
        raise CliError("parse_error", 'expected a JSON object with "nodes", "weights" and "values"', path)
    try:
        return KernelGrid(nodes=obj["nodes"], weights=obj["weights"], values=obj["values"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise CliError("invalid_grid", str(exc), path) from None


# --------------------------------------------------------------------------
# Subcommands


def _report(command: str, inputs: dict, results: dict, warnings: list[str]) -> dict:
    return {"command": command, "inputs": inputs, "results": results, "warnings": warnings}


def _require_cone_preserving(M: np.ndarray, zero_tol: float, location: str) -> None:
    j = _first_dead_column(as_nonneg_matrix(M), zero_tol)
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
    try:
        ratios = m_ratio(f, g, zero_tol=args.zero_tol)
        d_h = hilbert_distance(f, g, zero_tol=args.zero_tol)
    except ValueError as exc:
        raise CliError("invalid_input", str(exc), "dist") from None
    results = {
        "d": phi(ratios.m),
        "d_H": d_h,
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
            raise CliError("not_strictly_positive", str(exc), args.file) from None
        elapsed = time.perf_counter() - start
        results = {"c": c, "is_strict": c < 1.0, "witness": None, "method": "closed_form", "elapsed": elapsed}
        if c < 1.0:
            results["a_star"] = psi_inverse(c)
    else:
        report = contraction_coeff(M, zt)
        elapsed = time.perf_counter() - start
        results = {
            "c": report.c,
            "is_strict": report.is_strict,
            "witness": list(report.witness),
            "method": report.method,
            "elapsed": elapsed,
        }
        if report.a_star is not None:
            results["a_star"] = report.a_star
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
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise CliError("bad_flags", f"--tol must be positive, got {args.tol}", "perron")
    if args.max_iter < 1:
        raise CliError("bad_flags", f"--max-iter must be at least 1, got {args.max_iter}", "perron")
    inputs = {"file": args.file, "tol": args.tol, "max_iter": args.max_iter, "zero_tol": zt}
    f0 = None
    if args.start is not None:
        f0 = inputs["start"] = parse_vector_literal(args.start, "--start")
    try:
        res = perron_iterate(M, f0, tol=args.tol, max_iter=args.max_iter, zero_tol=zt)
    except ValueError as exc:
        raise CliError("invalid_input", str(exc), "perron") from None
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
    if bool(args.file) == bool(args.builtin):
        raise CliError("bad_flags", "give exactly one of --file or --builtin", "kernel")
    if args.file:
        grid = read_kernel_grid(args.file)
        inputs = {"file": args.file, "zero_tol": zt}
    else:
        params = {}
        for item in args.param or []:
            if "=" not in item:
                raise CliError("bad_flags", f"--param expects name=value, got {item!r}", "kernel")
            key, _, raw = item.partition("=")
            try:
                params[key.strip()] = float(raw)
            except ValueError:
                raise CliError("bad_flags", f"--param value {raw!r} is not a number", "kernel") from None
        try:
            kernel = builtin_kernel(args.builtin, **params)
            grid = tabulate_kernel(kernel, args.n, args.rule)
        except ValueError as exc:
            raise CliError("bad_flags", str(exc), "kernel") from None
        inputs = {"builtin": args.builtin, "n": args.n, "rule": args.rule, "params": params, "zero_tol": zt}
    # O(n^2) checks first, so a grid they reject never pays for the O(n^3) scans
    try:
        _check_cone_preserving(discretize(grid), zt)
        cert = factorization_certificate(grid, zt)
        report = kernel_contraction_estimate(grid, zt)
    except KernelPatternError as exc:
        raise CliError("pattern_failure", str(exc), f"values[{exc.row}][{exc.col}]") from None
    except ValueError as exc:
        raise CliError("invalid_input", str(exc), "kernel") from None
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--zero-tol", type=float, default=0.0, metavar="T",
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
    p.add_argument("--tol", type=float, default=1e-12, help="stopping distance between successive rays (default 1e-12)")
    p.add_argument("--max-iter", type=int, default=10000, help="iteration budget (default 10000)")
    p.add_argument("--start", help="comma-separated starting vector (default all ones)")
    p.set_defaults(func=cmd_perron)

    p = sub.add_parser("kernel", parents=[common], help="discretize a positive kernel and certify its contraction")
    p.add_argument("--file", help='kernel grid JSON file {"nodes", "weights", "values"}')
    p.add_argument("--builtin", help="builtin kernel family: constant, separable, poly1xy, gaussian")
    p.add_argument("--n", type=int, default=8, help="number of quadrature nodes for --builtin (default 8)")
    p.add_argument("--rule", default="midpoint", choices=("midpoint", "trapezoid"),
                   help="quadrature rule for --builtin (default midpoint)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="kernel parameter, repeatable (e.g. --param sigma=0.5)")
    p.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    indent = None
    try:
        args = parser.parse_args(argv)
        indent = args.json_indent
        report = args.func(args)
        sys.stdout.write(dumps(report, indent=indent) + "\n")
        return 0
    except CliError as err:
        sys.stderr.write(dumps({"code": err.code, "message": err.message, "location": err.location}) + "\n")
        return 1
    except ValueError as err:
        sys.stderr.write(dumps({"code": "invalid_input", "message": str(err), "location": "projcone"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
