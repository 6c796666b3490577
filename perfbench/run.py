#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` repeats the measured loop with every layer wrapped and
prints the per-layer metrics instead, after checking that the traced
loop computed bit-identical results; its span timeline is written to
``perfbench/traces/<workload>-seed<seed>.json`` (Chrome trace-event
JSON, opens in Perfetto).

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the machine fingerprint, the workload's properties and the sample
counts.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("train_dense", "train_sparse", "serve_sparse")


def blas_threads() -> object:
    """OpenBLAS's runtime thread count, asked from the library numpy
    loaded; ``None`` when it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy

    import repro

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": repro.resolve_backend(None).name,
        "backends_available": [
            b["name"] for b in repro.backend_status() if b["available"]
        ],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path: Path):
    import workloads as w
    from tracing import Tracer, chrome_trace, min_samples_for

    work = w.GENERATORS[workload](seed)
    problems = []
    details = {}
    if workload.startswith("train"):
        start_psnr, rho = w.initial_state(work)
        untraced = w.train_phase(work, seconds)
        if not untraced.psnr_db > start_psnr:
            problems.append(
                f"final PSNR {untraced.psnr_db:.4f} dB does not beat the "
                f"initial {start_psnr:.4f} dB"
            )
        details["initial_psnr_db"] = start_psnr
    else:
        rho = w.mean_rho(work.model, work.cameras)
        engine = w.serve_engine(work)
        untraced = w.serve_phase(work, engine, seconds)
        w.serve_quality(work, engine, untraced)
        count = len(untraced.latencies_s)
        if count < min_samples_for(99):
            problems.append(f"only {count} completed requests for the p99")
    problems += untraced.problems
    attempted, failed = untraced.attempted, untraced.failed
    details.update(
        {
            "workload.mean_rho": rho,
            **untraced.properties,
            "latency_samples": len(untraced.records)
            or sum(len(v) for v in untraced.batch_latencies_s.values()),
            "episodes": untraced.episodes,
            "batch_latencies_s": untraced.batch_latencies_s,
            "setup_samples": len(untraced.setup_s),
            "measured_s": untraced.measured_s,
        }
    )
    if workload.startswith("serve"):
        # Arrivals sit on the serving session's virtual clock, which
        # advances by measured service time, so every request is sent
        # exactly when due: the generator cannot run late.
        details["generator_lateness_s"] = 0.0

    if not trace:
        metrics = w.end_to_end(untraced, peak_rss_mb())
    else:
        tracer = Tracer(w.LAYERS)
        tracer.install()
        try:
            if workload.startswith("train"):
                traced = w.train_phase(work, seconds, tracer)
                if traced.losses != untraced.losses:
                    problems.append("traced losses differ from untraced")
            else:
                traced = w.serve_phase(work, engine, seconds, tracer)
                w.serve_quality(work, engine, traced)
        finally:
            tracer.restore()
        if not tracer.restored():
            problems.append("a wrapped callable was not restored")
        if not traced.psnr_db == untraced.psnr_db:
            problems.append("traced PSNR differs from untraced")
        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
        metrics = w.per_layer(tracer, traced, untraced, rho)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as handle:
            json.dump(chrome_trace(tracer.spans, w.request_events(traced)), handle)
        details["trace_file"] = str(trace_path.relative_to(ROOT))

    problems += [f"metric {k} is {v}" for k, v in metrics.items() if not math.isfinite(v)]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed += len(problems)
    return details, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
    details, result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), trace_path
    )
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fingerprint": fingerprint(), **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
