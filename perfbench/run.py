"""The queuemax benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload geo_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Every command goes through `queuemax.cli.main` in this process, and every
output is checked. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Lines before it, each
starting with `#`, record the machine and its RNG floor, the checks with
every failure, sample-file hashes, work counts and workload-specific
throughputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 8          # fresh interpreters, before the workload's file output starts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("geo_wide", "geo_long", "mm_wide", "analyze_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ machine


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def machine_record(np) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        name = f"L{_read(index / 'level')} {_read(index / 'type')}"
        caches[name] = _read(index / "size")
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def rng_doubles_per_s(np) -> float:
    """Machine floor: PCG64 uniforms per second into a reused 512 KiB buffer."""
    gen = np.random.Generator(np.random.PCG64(7))
    buf = np.empty(1 << 16)
    rates = []
    for _ in range(25):
        start = perf_counter()
        for _ in range(16):
            gen.random(out=buf)
        rates.append(16 * buf.size / (perf_counter() - start))
    return median(rates)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "queuemax" / "cli.py").is_file():
        print(f"error: no queuemax sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import queuemax
    import queuemax.cli

    import layers
    from runner import END_TO_END_UNITS, end_to_end, run_workload, setup_times
    from spans import Tracer
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    tracer = Tracer() if args.trace else None
    try:
        machine = machine_record(np)
        floor = rng_doubles_per_s(np)
        setup_times(ROOT, 1)  # may compile bytecode; not counted
        setup, setup_wall = map(median, setup_times(ROOT, SETUP_RUNS))
        workload = WORKLOADS[args.workload]()
        outcomes, warm, identical = run_workload(queuemax, workload, args.seed, args.seconds,
                                                 tracer, work_dir)
        pooled = workload.pooled_failures(outcomes)
        if tracer is not None:
            probe_factor = layers.run_probes(tracer)
            tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [o for o in outcomes if o.cause is not None]
    unexpected = [o for o in failures if not o.known_defect]
    correct = not unexpected and not pooled and identical is True
    print("# machine " + json.dumps(dict(machine, rng_doubles_per_s=floor)))
    first = {}
    for o in outcomes:
        first.setdefault(o.key, o)
    print("# checks " + json.dumps({
        "determinism_repeat_identical": identical, "pooled_failures": pooled,
        "failures": sorted({f"{o.key}: {o.cause}" + ("" if o.known_defect else " [unexpected]")
                            for o in failures}),
        "failures_by_type": Counter(o.error or o.cause.split(":", 1)[0] for o in failures),
        "samples_sha256": {k: o.sha256 for k, o in first.items() if o.sha256},
        "warmup_sha256": warm.sha256}))
    if tracer is None:
        metrics, extra = end_to_end(outcomes, setup, setup_wall)
        print("# workload " + json.dumps(dict(workload=workload.name, seed=args.seed, **extra)))
        units = END_TO_END_UNITS
    else:
        metrics = layers.layer_metrics(tracer, probe_factor, outcomes, workload.name, floor)
        units = layers.PER_LAYER_UNITS
        own = tracer.layer_self_seconds()
        print("# layers " + json.dumps({"self_seconds": own, "spans": len(tracer.spans)}))
        trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
