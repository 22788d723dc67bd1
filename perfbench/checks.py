"""Output checks, run after the timed loop.

Every check recomputes what it compares against with numpy code of its own
rather than with projcone.  Each ``check_*`` returns ``None`` for a correct
output and a one-line reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import Request

# Slack for comparing our O(n) recomputations and independent sandwiches
# with the program's values; both are a few roundings from exact.
TOL = 1e-12


def _distance(f: np.ndarray, g: np.ndarray) -> float:
    """Bounded projective distance (1-m)/(1+m) between two cone vectors."""
    sf, sg = f > 0.0, g > 0.0
    m = min(float(np.min(g[sf] / f[sf])) * float(np.min(f[sg] / g[sg])), 1.0)
    return (1.0 - m) / (1.0 + m)


def _psi(a: float) -> float:
    t = 1.0 / (a * a)
    return (1.0 - t) / (1.0 + t)


def _strictly_contracting(M: np.ndarray) -> bool:
    """Zero-pattern test: every zero entry lies in an all-zero row."""
    pos = M > 0.0
    return bool(np.all(pos | ~pos.any(axis=1)[:, None]))


def _sandwich_constant(M: np.ndarray) -> float:
    """Constant of a sandwich around column 0 and the first nonzero row."""
    rows = M.any(axis=1)
    h = M[rows, 0]
    b = M[int(np.argmax(rows)), :]
    ratios = M[rows, :] / np.outer(h, b)
    return float(max(ratios.max(), (1.0 / ratios).max()))


def noise_lines(stderr: str) -> int:
    """Lines on stderr that are not the CLI's JSON error object (e.g. numpy warnings)."""
    count = 0
    for line in stderr.splitlines():
        if not line.strip():
            continue
        try:
            is_json = isinstance(json.loads(line), dict)
        except ValueError:
            is_json = False
        count += not is_json
    return count


def _last_json(text: str):
    for line in reversed(text.splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    return None


def check_cli(req: Request, ref: dict, code: int, out: str, err: str) -> str | None:
    if req.expect_error:
        payload = _last_json(err)
        if code != 1 or out or payload is None:
            return f"expected exit 1 with a JSON error on stderr, got exit {code}"
        if payload.get("code") != req.expect_error:
            return f"expected error code {req.expect_error}, got {payload.get('code')}"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[-200:]}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON object"
    if not isinstance(report, dict) or report.get("command") != req.kind:
        return f"report is not a {req.kind} report"
    try:
        return CLI_CHECKS[req.kind](report["results"], ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed {req.kind} report: {exc!r}"


def _check_coeff(res: dict, ref: dict) -> str | None:
    M = ref["matrix"]
    c = res["c"]
    i, j = res["witness"]
    strict = _strictly_contracting(M)
    if (c < 1.0) != strict or res["is_strict"] != strict:
        return f"c = {c!r} disagrees with the zero-pattern test (strict = {strict})"
    d = _distance(M[:, i], M[:, j])
    if abs(d - c) > TOL:
        return f"witness ({i}, {j}) has distance {d!r}, not c = {c!r}"
    if strict and c > _psi(_sandwich_constant(M)) + TOL:
        return f"c = {c!r} exceeds psi(A) of an independent sandwich"
    rng = np.random.default_rng(ref["sample_seed"])
    n = M.shape[1]
    for a, b in rng.integers(0, n, size=(64, 2)):
        if _distance(M[:, a], M[:, b]) > c + TOL:
            return f"column pair ({a}, {b}) is farther apart than c = {c!r}"
    return None


def _check_kernel(res: dict, ref: dict) -> str | None:
    if not res["psi_of_A"] >= res["c_grid"]:
        return f"psi(A) = {res['psi_of_A']!r} is below c_grid = {res['c_grid']!r}"
    if res["weight_invariance"]["within_1e-12"] is not True:
        return "weight invariance is not within 1e-12"
    return None


CLI_CHECKS = {"coeff": _check_coeff, "kernel": _check_kernel}


def _perron_reference(ref: dict) -> tuple[float, np.ndarray]:
    if "eig" not in ref:
        w, V = np.linalg.eig(ref["matrix"])
        k = int(np.argmax(w.real))
        ref["eig"] = (float(w[k].real), np.abs(V[:, k].real))
    return ref["eig"]


def check_perron(ref: dict, out: dict) -> str | None:
    lam, p_star = _perron_reference(ref)
    if not out["converged"] or out["error_bound"] is None:
        return "did not converge to a certified result"
    slack = TOL * lam  # rounding of the reference eigenvalue
    if not out["eigenvalue_lower"] - slack <= lam <= out["eigenvalue_upper"] + slack:
        return f"bracket [{out['eigenvalue_lower']!r}, {out['eigenvalue_upper']!r}] misses {lam!r}"
    d = _distance(np.array(out["eigenvector"]), p_star)
    if d > out["error_bound"]:
        return f"d(p, p*) = {d!r} exceeds error_bound = {out['error_bound']!r}"
    return None
