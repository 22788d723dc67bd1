"""Seeded inputs for each workload, written to files before timing starts.

``build`` returns one cycle of requests; the client repeats the cycle.  The
same seed gives the same files and arrays.  Matrix entries are drawn from a
pool of 2**16 values per kind, so that the text files (17 significant
digits, as ``matrix_to_csv`` writes them) can be produced by joining
preformatted strings instead of formatting millions of floats on every run.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POOL = 1 << 16
PERRON_TOL = 1e-12
PERRON_FAMILY = 20231218  # fixed seed of the perron-loop matrix family


@dataclass
class Request:
    kind: str  # "coeff", "kernel" (CLI subcommands) or "perron" (library call)
    argv: list[str]  # CLI arguments; for "perron" the .npy file holding the matrix
    ref: int  # index into Inputs.refs
    expect_error: str | None = None


@dataclass
class Inputs:
    cycle: list[Request]
    refs: list[dict] = field(default_factory=list)  # what the output checks compare against
    sizes: dict = field(default_factory=dict)  # input array shapes and file sizes, for the record


@contextlib.contextmanager
def synced(path: Path, mode: str = "w"):
    """Open ``path`` for writing and flush it to disk on close.

    The benchmark writes up to a hundred megabytes per run; flushing them
    before timing starts keeps their writeback out of the timed loop.
    """
    with open(path, mode) as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _pooled_matrix(rng, n: int, draw, zero_prob: float = 0.0):
    """Matrix and its cell literals, drawn from a pool of preformatted values."""
    pool = draw(rng, POOL)
    literals = np.array([format(v, ".17g") for v in pool.tolist()], dtype=object)
    idx = rng.integers(0, POOL, size=(n, n))
    M = pool[idx]
    cells = literals[idx]
    zero = np.zeros((n, n), dtype=bool)
    if zero_prob:
        zero |= rng.random((n, n)) < zero_prob
    dead = zero.all(axis=0)
    zero[0, dead] = False  # keep every column positive, so the matrix preserves the cone
    M[zero] = 0.0
    cells[zero] = "0"
    return M, cells.tolist()


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with synced(path) as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")


def _write_json(path: Path, rows: list[list[str]]) -> None:
    with synced(path) as fh:
        fh.write('{"matrix": [' + ",\n".join("[" + ",".join(row) + "]" for row in rows) + "]}\n")


def _uniform(rng, size):
    return rng.uniform(0.1, 10.0, size)


def _log_uniform(rng, size):
    return 10.0 ** rng.uniform(-3.0, 3.0, size)


def _coeff_requests(seed: int, work: Path, tiny: bool, inputs: Inputs) -> list[Request]:
    n = 24 if tiny else 1024
    rng = _rng(seed, "coeff-scan")
    kinds = [
        ("dense.csv", dict(draw=_uniform), _write_csv),
        ("zeros.csv", dict(draw=_uniform, zero_prob=0.3), _write_csv),
        ("log.json", dict(draw=_log_uniform), _write_json),
    ]
    requests = []
    for name, params, write in kinds:
        M, rows = _pooled_matrix(rng, n, **params)
        path = work / name
        write(path, rows)
        requests.append(Request("coeff", ["coeff", str(path)], len(inputs.refs)))
        inputs.refs.append({"matrix": M, "sample_seed": [seed, len(inputs.refs)]})
        inputs.sizes[name] = {"shape": [n, n], "file_bytes": path.stat().st_size}
    return requests


def _perron_loop(seed: int, work: Path, tiny: bool) -> Inputs:
    dims = (4, 8) if tiny else (8, 16, 32, 64, 128)
    epsilons = (0.05, 0.02) if tiny else (0.05, 0.02, 0.01)
    family = np.random.default_rng(PERRON_FAMILY)
    rng = _rng(seed, "perron-loop")
    inputs = Inputs(cycle=[])
    for n in dims:
        # A dominant diagonal mixes slowly, so the iteration takes hundreds of
        # steps while the matrix stays positive.  The seed permutes the
        # coordinates of one fixed family of such matrices: every seed poses
        # the same spectral problem, so the iteration count, and with it the
        # run's cost, does not depend on the seed, while the arrays do.
        u = 1.0 - 0.5 * np.arange(n) / (n - 1)
        R = family.uniform(0.0, 1.0, (n, n))
        for eps in epsilons:
            perm = rng.permutation(n)
            M = ((1.0 - eps) * np.diag(u) + eps * R)[np.ix_(perm, perm)]
            path = work / f"perron-{n}-{eps}.npy"
            with synced(path, "wb") as fh:
                np.save(fh, M)
            inputs.cycle.append(Request("perron", [str(path)], len(inputs.refs)))
            inputs.refs.append({"matrix": M})
    inputs.sizes["matrices"] = {"shapes": [[n, n] for n in dims for _ in epsilons], "tol": PERRON_TOL}
    return inputs


def _kernel_requests(seed: int, work: Path, tiny: bool, inputs: Inputs) -> list[Request]:
    n = 16 if tiny else 512
    rng = _rng(seed, "kernel-grid")
    nodes = (np.arange(n) + 0.5) / n
    a, s, b = rng.uniform(0.01, 0.1), rng.uniform(0.02, 0.2), rng.uniform(0.0, 1.0)
    x, y = nodes[:, None], nodes[None, :]
    values = a + np.exp(-((x - y) ** 2) / s) * (1.0 + b * x * y)
    grid_path = work / "grid.json"
    with synced(grid_path) as fh:
        json.dump({"nodes": nodes.tolist(), "weights": [1.0 / n] * n, "values": values.tolist()}, fh)
    common = ["--n", str(n)]
    gaussian = ["kernel", "--builtin", "gaussian", "--param", f"sigma={0.05 * rng.uniform(0.8, 1.2)!r}", *common]
    poly = ["kernel", "--builtin", "poly1xy", "--rule", "trapezoid", *common]
    # exp underflows to 0 far from the diagonal, so this grid must fail the pattern test
    failing = ["kernel", "--builtin", "gaussian", "--param", f"sigma={1e-4 * rng.uniform(0.8, 1.2)!r}", *common]
    ref = len(inputs.refs)
    inputs.refs.append({})
    inputs.sizes["grid"] = [n, n]
    inputs.sizes["grid.json_bytes"] = grid_path.stat().st_size
    return [Request("kernel", gaussian, ref), Request("kernel", poly, ref),
            Request("kernel", ["kernel", "--file", str(grid_path)], ref),
            Request("kernel", failing, ref, expect_error="pattern_failure")]


def _cli_scan(seed: int, work: Path, tiny: bool) -> Inputs:
    # Coeff and kernel requests alternate; the pattern failure closes the cycle.
    inputs = Inputs(cycle=[])
    coeff = _coeff_requests(seed, work, tiny, inputs)
    kernel = _kernel_requests(seed, work, tiny, inputs)
    inputs.cycle = [coeff[0], kernel[0], coeff[1], kernel[1], coeff[2], kernel[2], kernel[3]]
    return inputs


BUILDERS = {
    "cli-scan": _cli_scan,
    "perron-loop": _perron_loop,
}


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> Inputs:
    """Write the workload's input files under ``work`` and return one request cycle."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, work, tiny)
