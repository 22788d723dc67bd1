#!/usr/bin/env python3
"""projcone benchmark: one closed-loop client, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload cli-scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --write-benchmark-json

With ``--trace 0`` the run measures the end-to-end metrics with nothing
patched; with ``--trace 1`` it runs the workload in a worker process,
sending each request untraced and then traced, and reports the per-layer
metrics.  Inputs are
generated from the seed before timing starts; every output is checked
after the timed loop.  The last line of stdout is the JSON result; the
lines before it give every metric by name and unit, and the environment.
A copy of the result with the environment goes to ``.perfbench_out/``,
together with the spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs as inputs_mod
import spec
from worker import closed_loop

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root from perfbench/spec.py and exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    return args


def spawn(cmd, env, root: Path, out_path: Path, err_path: Path):
    """Run ``cmd`` to completion; return its exit code and resource usage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(root: Path, env, work: Path, times: list[float]) -> None:
    """Append SETUP_REPEATS wall times of a fresh interpreter importing projcone.cli."""
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        code, _ = spawn([sys.executable, "-c", "import projcone.cli"], env, root, work / "setup.out", work / "setup.err")
        times.append(perf_counter() - t)
        if code != 0:
            raise RuntimeError(f"import projcone.cli failed: {(work / 'setup.err').read_text()[-500:]}")


def run_cli(inputs, root: Path, env, work: Path, seconds: float) -> dict:
    """Untraced closed loop of CLI subprocesses, timed from spawn until reaped."""
    usages = []

    def send(item):
        index, req = item
        k = len(usages)
        code, usage = spawn([sys.executable, "-m", "projcone.cli", *req.argv], env, root,
                            work / f"req{k}.out", work / f"req{k}.err")
        usages.append((index, code, usage))

    latencies, wall, cycles = closed_loop(list(enumerate(inputs.cycle)), seconds, send)
    counts = collections.Counter(
        (index, code, (work / f"req{k}.out").read_text(), (work / f"req{k}.err").read_text())
        for k, (index, code, _) in enumerate(usages))
    outputs = [{"index": i, "count": n, "code": code, "stdout": out, "stderr": err}
               for (i, code, out, err), n in counts.items()]
    return {
        "latencies": latencies,
        "wall": wall,
        "cycles": cycles,
        "maxrss_mb": max(u.ru_maxrss for *_, u in usages) / 1024.0,
        "cpu_s": sum(u.ru_utime + u.ru_stime for *_, u in usages),
        "minor_faults": sum(u.ru_minflt for *_, u in usages) / len(usages),
        "outputs": outputs,
    }


def run_worker(mode: str, inputs, root: Path, env, work: Path, seconds: float, spans: Path | None = None) -> dict:
    job = {
        "mode": mode,
        "src": str(root / "src"),
        "seconds": seconds,
        "tol": inputs_mod.PERRON_TOL,
        "spans": str(spans) if spans else None,
        "cycle": [{"kind": r.kind, "argv": r.argv, "index": i} for i, r in enumerate(inputs.cycle)],
    }
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                   cwd=root, env=env, stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def check_outputs(inputs, outputs) -> tuple[int, int, int, list[str]]:
    """Attempted and failed request counts, stderr noise lines, and failure reasons."""
    attempted = failed = noise = 0
    reasons = []
    for rec in outputs:
        req = inputs.cycle[rec["index"]]
        ref = inputs.refs[req.ref]
        if req.kind == "perron":
            reason = checks.check_perron(ref, rec)
        else:
            reason = checks.check_cli(req, ref, rec["code"], rec["stdout"], rec["stderr"])
            noise += rec["count"] * checks.noise_lines(rec["stderr"])
        attempted += rec["count"]
        if reason is not None:
            failed += rec["count"]
            reasons.append(f"{' '.join(req.argv)}: {reason}")
    return attempted, failed, noise, reasons


def environment(seed: int, inputs) -> dict:
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "caches": caches,
        "inputs": inputs.sizes,
        "note": "bytes_in, bytes_out and scan.bytes_computed are computed from file sizes and operation "
                "counts, not measured; the client is one closed loop with no threads of its own",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.write_benchmark_json:
        (root / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (root / "src" / "projcone" / "cli.py").is_file():
        print("perfbench: src/projcone not found; run from the root of a projcone checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = Path(WORK_DIR) / f"{args.workload}-{args.seed}-{os.getpid()}"  # relative, so reports name short paths
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    try:
        inputs = inputs_mod.build(args.workload, args.seed, work, args.tiny)
        env_record = environment(args.seed, inputs)
        if args.trace:
            spans = out_dir / f"spans-{args.workload}.npz"
            run = run_worker("trace", inputs, root, env, work, args.seconds, spans)
        else:
            # Set-up is timed before and after the loop, so its median spans the run.
            setup_times = []
            measure_setup(root, env, work, setup_times)
            if inputs.cycle[0].kind == "perron":
                run = run_worker("library", inputs, root, env, work, args.seconds)
            else:
                run = run_cli(inputs, root, env, work, args.seconds)
            measure_setup(root, env, work, setup_times)
        attempted, failed, noise, reasons = check_outputs(inputs, run["outputs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    if args.trace:
        layers = run["layers"]
        layers["cli.stderr_noise_lines"] = noise / attempted
        layers["client.error_rate"] = failed / attempted
        metrics = {m["name"]: float(layers.get(m["name"], 0.0)) for m in spec.PER_LAYER}
    else:
        metrics = {
            "throughput_rps": (attempted - failed) / run["wall"],
            "latency_mean_s": statistics.fmean(run["latencies"]),
            "peak_rss_mb": run["maxrss_mb"],
            "setup_s": statistics.median(setup_times),
        }
    for reason in reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    print("env " + json.dumps(env_record))
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} cycles={run['cycles']} "
          f"requests={len(run['latencies'])} wall_s={run['wall']:.3f}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric error_rate = {failed / attempted:.6g} frac ({failed} of {attempted} requests failed)")
    quartiles = statistics.quantiles(run["latencies"], n=4)
    print(f"info latency_p25_p50_p75_s = {quartiles[0]:.4g} {quartiles[1]:.4g} {quartiles[2]:.4g} s "
          f"(over {len(run['latencies'])} requests of {len(inputs.cycle)} kinds)")
    print(f"info cores_used = {run['cpu_s'] / run['wall']:.4g} cores (CPU {run['cpu_s']:.3f} s over the "
          f"{'untraced sends' if args.trace else 'measured loop'})")
    print(f"info stderr_noise_lines_total = {noise} count")
    if "minor_faults" in run:
        print(f"info minor_faults = {run['minor_faults']:.0f} count per CLI request")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, env=env_record, failures=reasons[:10], latencies=run["latencies"], wall=run["wall"])
    with inputs_mod.synced(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
