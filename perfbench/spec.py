"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --write-benchmark-json``; the self-test checks
that the committed file still matches.
"""

from __future__ import annotations

RUN_SECONDS = 50

# Each workload stresses different layers; see perfbench/README.md for the
# layer -> metric -> workload map.
WORKLOADS = [
    {
        "name": "cli-scan",
        "why": "CLI coeff on n=1024 matrices and CLI kernel on n=512 grids, one a pattern failure: the O(n^3) aleph "
        "scan dominates, and only this workload reaches cli and kernels",
    },
    {
        "name": "perron-loop",
        "why": "in-process perron_iterate on slowly mixing n<=128 matrices: per-step validation "
        "overhead in cone and perron dominates and the scan is a minor share",
    },
]

END_TO_END = [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_mean_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# Traced functions whose calls and self time are reported, per module.
TRACED_LAYERS = {
    "cli": ["main", "read_matrix", "read_kernel_grid", "dumps"],
    "matrices": [
        "contraction_coeff",
        "as_nonneg_matrix",
        "is_cone_preserving",
    ],
    "perron": ["perron_iterate"],
    "cone": ["as_cone_vector", "aleph", "m_ratio", "normalize", "pseudo_distance"],
    "kernels": [
        "tabulate_kernel",
        "discretize",
        "kernel_contraction_estimate",
        "factorization_certificate",
        "factorization_is_valid",
    ],
}

# Spans whose inclusive time is reported as well.
TOTAL_TIME_SPANS = ["cli.main", "matrices.contraction_coeff", "perron.perron_iterate", "kernels.kernel_contraction_estimate"]

# Counters recorded by the tracer's hooks or by the client, per request.
COUNTERS = [
    ("cli.read_matrix.bytes_in", "B", "lower"),
    ("cli.dumps.bytes_out", "B", "lower"),
    ("cli.stderr_noise_lines", "count", "lower"),
    ("matrices.scan.divisions", "count", "lower"),
    ("matrices.scan.bytes_computed", "B", "lower"),
    ("perron.iterations", "count", "lower"),
    ("perron.self_s_per_iteration", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.cores_used", "cores", "higher"),
    ("process.minor_faults", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("client.error_rate", "frac", "lower"),
]


def _per_layer() -> list[dict]:
    out = []
    for module, functions in TRACED_LAYERS.items():
        for fn in functions:
            span = f"{module}.{fn}"
            out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
            out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
            if span in TOTAL_TIME_SPANS:
                out.append({"name": f"{span}.total_s", "unit": "s", "better": "lower"})
    out.extend({"name": name, "unit": unit, "better": better} for name, unit, better in COUNTERS)
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
