"""Running a workload: commands through the CLI entry point, timed and checked."""
from __future__ import annotations

import io
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from workloads import Failed, Outcome, check_time_average

HARD_STOP_S = 150.0     # stop starting passes here, whatever the pooled checks still want
CALIBRATION_REF_S = 0.9e-3  # best time of calibration_seconds() on a 2-vCPU Xeon, Python 3.11
CALIBRATION_REFRESH_S = 0.05
NUMPY_IMPORT_REF_S = 0.16  # best `python -c "import numpy"` on a 2-vCPU Xeon, numpy 2.4


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the interpreter's current speed."""
    start = perf_counter()
    total, seen = 0, {}
    for i in range(10_000):
        total += i * i % 7
        seen[i & 255] = total
    return perf_counter() - start


class Speedometer:
    """Scales wall times to the reference interpreter speed.

    The machine's speed drifts by 20-40% over minutes (other tenants, clock
    changes), and the CLI's cost drifts with it. A command's wall time is
    multiplied by CALIBRATION_REF_S over the calibration loop's time just
    before and just after it, which cancels the drift and keeps the unit.
    """

    def __init__(self):
        self._at, self._loop = float("-inf"), 0.0

    def loop_seconds(self) -> float:
        """Best of three calibration loops, refreshed at most every CALIBRATION_REFRESH_S."""
        if perf_counter() - self._at >= CALIBRATION_REFRESH_S:
            self._loop = min(calibration_seconds() for _ in range(3))
            self._at = perf_counter()
        return self._loop

    def scaled(self, wall: float, before: float) -> float:
        return wall * CALIBRATION_REF_S / (0.5 * (before + self.loop_seconds()))


class Runner:
    """Runs commands through the CLI entry point and checks their outputs."""

    def __init__(self, qm, workload, work_dir: Path):
        self.qm, self.workload, self.work_dir = qm, workload, work_dir
        self.tracer = None  # set for the traced phase
        self.speed = Speedometer()
        self.last_error = None
        original = qm.cli.run

        def run(argv):  # records which exception a failing command raised
            try:
                return original(argv)
            except Exception as exc:
                self.last_error = type(exc).__name__
                raise

        qm.cli.run = run

    def execute(self, command, phase: str, trace_id=None):
        outcome = Outcome(command.key, phase)
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        self.last_error = None
        sink = io.StringIO()
        root = "bench.call" if command.call is not None else "cli.main"
        scope = self.tracer.trace(root, trace_id) if self.tracer is not None else nullcontext()
        before = self.speed.loop_seconds()
        with redirect_stdout(sink), redirect_stderr(sink):
            start = perf_counter()
            try:
                with scope:
                    if command.call is not None:
                        result = command.call()
                    else:
                        outcome.code = self.qm.cli.main(command.argv + ["--out", str(out_dir)])
            except Exception as exc:  # a crash fails this command; the run goes on
                traceback.print_exc()
                outcome.code, self.last_error = -1, type(exc).__name__
            outcome.wall = perf_counter() - start
        outcome.seconds = self.speed.scaled(outcome.wall, before)
        outcome.error = self.last_error
        try:
            if outcome.code != 0:
                last_line = (sink.getvalue().strip().splitlines() or [""])[-1]
                raise Failed(f"exit {outcome.code} ({outcome.error}): {last_line[:120]}")
            if command.call is not None:
                check_time_average(result, command.info, outcome)
            else:
                self.workload.check(out_dir, command.info, outcome)
        except Failed as exc:
            outcome.cause = str(exc)
        except Exception as exc:  # an unreadable output is a failed command, not a crash
            outcome.cause = f"output check raised {type(exc).__name__}: {exc}"
        if outcome.cause is not None:
            outcome.known_defect = self.workload.known_defect(command.info, outcome)
        return outcome, out_dir


def _same_outputs(a: Path, b: Path) -> bool:
    """Equal result files; a failed command writes none, which is also equal."""
    def read(path: Path):
        return path.read_bytes() if path.exists() else None

    names = ("samples.csv",) if (a / "samples.csv").exists() else ("summary.json", "cdf.csv")
    return all(read(a / n) == read(b / n) for n in names)


def run_workload(qm, workload, seed: int, seconds: float, tracer, work_dir: Path):
    """Warm up, then run passes until the time is spent and the pooled checks have enough."""
    rng = random.Random(f"{workload.name}/{seed}")
    first_pass = workload.commands(rng)
    runner = Runner(qm, workload, work_dir)
    # The warm-up runs the first CLI command of pass 0, which pass 0 repeats
    # with the same seed: their outputs must be byte-identical.
    warm = next(c for c in first_pass if c.argv is not None)
    warm_outcome, warm_dir = runner.execute(warm, "warmup")
    phases = [("untraced", seconds)] if tracer is None else [
        ("untraced", seconds / 2), ("traced", seconds / 2)]
    outcomes, identical = [], None
    started = perf_counter()
    for phase, budget in phases:
        if phase == "traced":
            tracer.install(qm)
            runner.tracer = tracer
        phase_start = perf_counter()
        while True:
            commands, first_pass = first_pass or workload.commands(rng), None
            for command in commands:
                outcome, out_dir = runner.execute(command, phase, trace_id=len(outcomes))
                outcomes.append(outcome)
                if command is warm and identical is None:
                    identical = (outcome.code == warm_outcome.code
                                 and _same_outputs(warm_dir, out_dir))
                    shutil.rmtree(warm_dir)
                shutil.rmtree(out_dir)
            now = perf_counter()
            if now - started > HARD_STOP_S:
                break
            # After the budget, go on only while the pooled checks lack samples
            # and no command has already failed the run.
            if now - phase_start >= budget and (
                    phase != phases[-1][0] or workload.enough(outcomes)
                    or any(o.cause and not o.known_defect for o in outcomes)):
                break
    return outcomes, warm_outcome, identical


def setup_times(root: Path, count: int) -> tuple[list[float], list[float]]:
    """Times of fresh interpreters that import the CLI and build its parser,
    at the reference speed of importing numpy, and their wall times.

    Start-up cost is mostly reading and loading modules, which drifts with
    the machine's file cache rather than with the interpreter loop, so each
    launch is paired with a `python -c "import numpy"` launch and scaled by
    NUMPY_IMPORT_REF_S over its time.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def launch(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - start

    times, walls = [], []
    for _ in range(count):
        walls.append(launch("import queuemax.cli as cli; cli.build_parser()"))
        times.append(walls[-1] * NUMPY_IMPORT_REF_S / launch("import numpy"))
    return times, walls


# ------------------------------------------------------------------ metrics

END_TO_END_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "cmd_p50_ms": "ms",
                    "cmd_p98_ms": "ms", "peak_rss_mb": "MB"}


def by_command(outcomes, phase: str, field: str = "seconds") -> dict[str, list[float]]:
    times = defaultdict(list)
    for o in outcomes:
        if o.phase == phase:
            times[o.key].append(getattr(o, field))
    return times


def _command_timings(times_by_key: dict[str, list[float]]) -> dict[str, float]:
    """calls_per_s and the p50 and p98 over distinct commands of their median times.

    The p98 interpolates between the order statistics (the inclusive method),
    so it always lies between the fastest and the slowest command.
    """
    medians = sorted(median(v) for v in times_by_key.values())
    p98 = quantiles(medians, n=50, method="inclusive")[-1] if len(medians) > 1 else medians[0]
    return {"calls_per_s": len(medians) / sum(medians), "cmd_p50_ms": median(medians) * 1e3,
            "cmd_p98_ms": p98 * 1e3}


def end_to_end(outcomes, setup: float, setup_wall: float) -> tuple[dict, dict]:
    """The gated metrics, and the workload-specific figures printed beside them."""
    scaled_times = by_command(outcomes, "untraced")
    wall_times = by_command(outcomes, "untraced", "wall")
    medians = {k: median(v) for k, v in scaled_times.items()}
    metrics = dict(setup_s=setup, **_command_timings(scaled_times),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    p98 = metrics["cmd_p98_ms"] / 1e3
    work = defaultdict(lambda: defaultdict(list))
    for o in outcomes:
        for name, amount in o.work.items():
            work[name][o.key].append(amount)
    failed = sum(o.cause is not None for o in outcomes)
    extra = {"failed_share": {"value": failed / len(outcomes), "unit": "fraction"},
             "unscaled": dict(setup_s=setup_wall, **_command_timings(wall_times)),
             "work_done": {name: sum(sum(v) for v in keys.values()) for name, keys in work.items()},
             "distinct_commands": len(medians), "commands_beyond_p98": sum(
                 t > p98 for t in medians.values()),
             "runs_per_command": sorted({len(v) for v in scaled_times.values()})}
    if len(medians) <= 8:
        extra["median_s"] = medians
        extra["median_wall_s"] = {k: median(v) for k, v in wall_times.items()}
    for name, metric in (("slot_reps", "geo_slot_reps_per_s"), ("customers", "mm_customers_per_s")):
        if work[name]:
            keys = work[name]
            rate = sum(median(v) for v in keys.values()) / sum(medians[k] for k in keys)
            extra[metric] = {"value": rate, "unit": f"{name.replace('_', '-')}/s"}
    return metrics, extra
