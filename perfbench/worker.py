"""Runs requests inside one process and reports what it measured.

Two modes, both reading a job file written by ``run.py``:

- ``library``: the untraced closed loop for a library workload.
- ``trace``: the traced run; each request is sent untraced and then traced.
  CLI requests go through ``cli.main(argv)`` with stdout and stderr captured.

Usage: python3 perfbench/worker.py JOB.json RESULT.json
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import resource
import sys
import traceback
import warnings
from time import perf_counter

import numpy as np


def closed_loop(cycle, seconds, send):
    """One client sending ``cycle`` repeatedly, each request after the previous returns.

    Whole cycles only, so every run covers the same request mix; stops at
    the cycle end nearest to ``seconds``.  Returns per-request latencies,
    the loop's wall time and the cycle count.
    """
    latencies = []
    done = 0
    t0 = perf_counter()
    while True:
        for req in cycle:
            t = perf_counter()
            send(req)
            latencies.append(perf_counter() - t)
        done += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / done / 2 >= seconds:
            return latencies, elapsed, done


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def traced_run(cycle, seconds, send, spans_path) -> dict:
    """Send every request twice in a row, untraced and then traced.

    Pairing the passes request by request lets machine drift and warm-up
    fall on both alike, so their wall times compare.  Per-layer values are
    per traced request; CPU time and page faults come from the untraced
    sends.
    """
    from inputs import synced
    from tracer import Tracer

    tracer = Tracer()
    ids = itertools.count()
    latencies = []
    totals = {"cpu_s": 0.0, "faults": 0, "traced_wall": 0.0}

    def pair(req):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t = perf_counter()
        send(req)
        latencies.append(perf_counter() - t)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        totals["cpu_s"] += _cpu_s(ru1) - _cpu_s(ru0)
        totals["faults"] += ru1.ru_minflt - ru0.ru_minflt
        tracer.request_id = next(ids)
        tracer.install()
        try:
            t = perf_counter()
            send(req)
            totals["traced_wall"] += perf_counter() - t
        finally:
            tracer.uninstall()

    _, _, cycles = closed_loop(cycle, seconds, pair)
    with synced(spans_path, "wb") as fh:
        tracer.save(fh)
    n = len(latencies)
    wall = sum(latencies)
    spans = tracer.per_span()
    layers = {f"{span}.{key}": value / n for span, qty in spans.items() for key, value in qty.items()}
    layers.update((key, value / n) for key, value in tracer.counters.items())
    iterations = tracer.counters["perron.iterations"]
    layers["perron.self_s_per_iteration"] = spans["perron.perron_iterate"]["self_s"] / iterations if iterations else 0.0
    layers["process.cpu_s"] = totals["cpu_s"] / n
    layers["process.cores_used"] = totals["cpu_s"] / wall
    layers["process.minor_faults"] = totals["faults"] / n
    layers["trace.overhead_frac"] = totals["traced_wall"] / wall - 1.0
    return {"latencies": latencies, "wall": wall, "cycles": cycles, "cpu_s": totals["cpu_s"], "layers": layers}


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import projcone  # loads every layer module but cli
    import projcone.cli

    cycle = job["cycle"]
    matrices = {r["argv"][0]: np.load(r["argv"][0]) for r in cycle if r["kind"] == "perron"}
    # The program is deterministic, so repeated requests normally repeat their
    # output exactly: keep each distinct output once, with its count.
    outputs = collections.Counter()

    def send(req):
        if req["kind"] == "perron":
            res = projcone.perron.perron_iterate(matrices[req["argv"][0]], tol=job["tol"])
            outputs[("perron", req["index"], res.eigenvector.tobytes(), res.eigenvalue_lower, res.eigenvalue_upper,
                     res.error_bound, res.iterations, res.converged)] += 1
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            # Resetting the filters shows each warning once per request, as a fresh process would.
            warnings.simplefilter("default", RuntimeWarning)
            try:
                code = projcone.cli.main(list(req["argv"]))
            except Exception:  # the real CLI would die with a traceback and exit 1
                traceback.print_exc()
                code = 1
        outputs[("cli", req["index"], code, out.getvalue(), err.getvalue())] += 1

    send(cycle[0])  # warm-up: lazy imports, first-call costs, allocator growth
    outputs.clear()
    if job["mode"] == "library":
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        latencies, wall, cycles = closed_loop(cycle, job["seconds"], send)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result = {"latencies": latencies, "wall": wall, "cycles": cycles, "cpu_s": _cpu_s(ru1) - _cpu_s(ru0)}
    else:
        result = traced_run(cycle, job["seconds"], send, job["spans"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outputs"] = [_output_record(key, count) for key, count in outputs.items()]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _output_record(key, count) -> dict:
    if key[0] == "cli":
        _, index, code, out, err = key
        return {"index": index, "count": count, "code": code, "stdout": out, "stderr": err}
    _, index, vec, lower, upper, bound, iterations, converged = key
    return {"index": index, "count": count, "eigenvector": np.frombuffer(vec).tolist(), "eigenvalue_lower": lower,
            "eigenvalue_upper": upper, "error_bound": bound, "iterations": iterations, "converged": converged}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
